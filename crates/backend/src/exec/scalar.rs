//! The AST-walking interpreter: value-expression evaluation, the scalar
//! fastdot path, and the legacy recursive statement walk.
//!
//! Since the linear-plan lowering (`ExecOptions::interp == false`, the
//! default) the recursive walk survives as the **bit-exactness oracle**:
//! `ExecOptions { interp: true }` runs every statement of one request
//! through [`Interp::exec_stmt`], start to finish, exactly the
//! pre-lowering executor. It never suspends: under the oracle,
//! `Engine::execute_many` runs one solo walk per request (batched ≡ solo
//! is the contract, so that is its batched answer). Property tests
//! assert the pc runtime, solo and batched, agrees with these walks bit
//! for bit (outputs *and* `Profile`s) on all models — the same
//! cross-check pattern as `bulk: false`.
//!
//! The expression evaluator ([`Interp::eval_val`], [`Interp::eval_dot`])
//! lives here too and is shared by the pc runtime: a lowered `Store` op
//! evaluates its own clone of the `ValExpr` tree the oracle walks, with
//! the same code, so the two runtimes cannot diverge on arithmetic or
//! accounting.
//! Every `Sum` tries `fastdot::compile` first: a recognized body runs
//! as one strided dot ([`Interp::eval_dot`]), a rejected one (a
//! nonlinearity or guard around the reduction variable) sums per `k`
//! through [`Interp::eval_val`].
//! [`Interp::resolve_product`] walks a reduction's operands for
//! `eval_dot` only — the path of `Engine::per_element` engines and of
//! `bulk: false`. The wave gather resolves the same operands through
//! compiled address programs ([`super::address`]) into the same
//! [`Resolved`] form, and the equivalence suites compare the two.

use cortex_core::expr::ValExpr;
use cortex_core::ilir::{LaunchPattern, Stmt};

use super::address::Resolved;
use super::interp::{launch_units, Interp};
use super::lowering::CompiledKernel;
use super::stopwatch::Stopwatch;
use crate::fastdot::Operand;

impl<'a> Interp<'a> {
    /// Runs the whole launch schedule through the recursive AST walk
    /// (the `interp: true` oracle, for one request).
    pub(crate) fn run_all(&mut self) {
        let compiled = self.compiled.clone();
        // Per-batch kernels run once per internal batch when specialized;
        // without specialization the leaf wave joins the batch table too
        // (see [`launch_units`]). The schedule borrows the cursor's list.
        let mut units = std::mem::take(&mut self.cursor.units);
        launch_units(&compiled, self.program, self.lin, &mut units);
        for &(ki, b) in &units {
            self.launch(ki, &compiled[ki], b);
        }
        self.cursor.units = units;
        self.finalize_run();
    }

    // -- launching ----------------------------------------------------

    fn launch(&mut self, kernel_idx: usize, kernel: &CompiledKernel, batch_index: Option<i64>) {
        self.cur_kernel = kernel_idx;
        self.profile.launches += 1;
        self.profile.host_api_calls += 1;
        // Per-batch kernels are wave work: their parameter reads recur
        // every wave and are what persistence would pin.
        self.push_scope(kernel.launch == LaunchPattern::PerInternalBatch);
        if let Some(bv) = kernel.batch_slot {
            self.slots[bv] = batch_index.expect("per-batch kernel needs a batch index");
        }
        for s in &kernel.body {
            self.exec_stmt(s);
        }
        self.pop_scope();
    }

    // -- statement execution -------------------------------------------

    pub(crate) fn exec_stmt(&mut self, s: &Stmt) {
        match s {
            Stmt::For { var, dim, body, .. } => {
                let (n, activated, clock) = self.enter_loop(s);
                let slot = var.id() as usize;
                let is_wave = matches!(dim, Some(d) if d.0 == "d_all_batches");
                // Row programs: a fused wave serves its whole body row
                // by row, a lone feature loop its one row; values and
                // counters are identical to per-element interpretation.
                let mut served = false;
                if n > 0 && !is_wave && self.opts.bulk {
                    let key = (self.cur_kernel, s as *const Stmt as usize);
                    let plans = self.stmt_plans.clone();
                    if let Some(fw) = plans.fused.get(&key) {
                        if self.fused_servable(fw) {
                            self.exec_fused_wave(fw, n as usize, clock);
                            served = true;
                        }
                    } else if let Some(plan) = plans.bulk.get(&key) {
                        if self.bulk_servable(plan) {
                            // Not timed (`ExecStats::epilogue_ns` is
                            // charged at fused-wave granularity).
                            self.exec_row_program(plan);
                            served = true;
                        }
                    }
                }
                if !served {
                    for i in 0..n.max(0) {
                        if is_wave {
                            self.push_scope(true);
                        }
                        self.slots[slot] = i;
                        for st in body {
                            self.exec_stmt(st);
                        }
                        if is_wave {
                            self.pop_scope();
                        }
                    }
                }
                if activated != (0, 0) {
                    self.finish_wave(activated);
                }
            }
            Stmt::Let { var, value, body } => {
                let v = self.eval_idx(value);
                self.slots[var.id() as usize] = v;
                for st in body {
                    self.exec_stmt(st);
                }
            }
            Stmt::Store {
                tensor,
                index,
                value,
            } => self.exec_store(*tensor, index, value),
            Stmt::If {
                cond,
                then_branch,
                else_branch,
            } => {
                self.profile.branch_checks += 1;
                let branch = if self.eval_bool(cond) {
                    then_branch
                } else {
                    else_branch
                };
                for st in branch {
                    self.exec_stmt(st);
                }
            }
            Stmt::Barrier => {
                self.profile.barriers_global += 1;
            }
        }
    }

    /// The `For` entry of the walk: evaluates the extent, records the
    /// wave width and — batched wavefront execution — if this node loop
    /// has a wave plan, runs each stacking group of recognized reduction
    /// sites as one packed GEMM over the whole wave, so the body's `Sum`s
    /// serve from the result matrices. Returns the extent, the
    /// activated `(sites, groups)` and the wave's clock (see
    /// [`Interp::prepare_wave`]).
    fn enter_loop(&mut self, s: &Stmt) -> (i64, (usize, usize), Option<Stopwatch>) {
        let Stmt::For { extent, dim, .. } = s else {
            unreachable!("enter_loop on a non-For statement")
        };
        let n = self.eval_idx(extent);
        if matches!(dim, Some(d) if d.0 == "d_batch") {
            if let Some(scope) = self.scopes.last_mut() {
                scope.width = scope.width.max(n.max(0) as u64);
            }
        }
        match self.stmt_plans.waves.get(&(s as *const Stmt as usize)) {
            Some(&w) if n > 0 => {
                let program = self.plan.clone();
                let (activated, clock, _) =
                    self.prepare_wave(&program.waves[w], w, n as usize, None);
                (n, activated, clock)
            }
            _ => (n, (0, 0), None),
        }
    }

    // -- expression evaluation -------------------------------------------

    pub(crate) fn eval_val(&mut self, e: &ValExpr) -> f32 {
        match e {
            ValExpr::Const(c) => *c,
            ValExpr::Load { tensor, index } => {
                let off = self.offset(*tensor, index);
                self.record_load(*tensor);
                self.bufs[tensor.0 as usize]
                    .as_ref()
                    .expect("loaded tensor allocated")
                    .data[off]
            }
            ValExpr::Unary(op, a) => {
                let x = self.eval_val(a);
                self.profile.flops += 1;
                // The operators' one definition, shared with the tiled
                // row programs — bit-identity by construction.
                op.apply(self.nonlin, x)
            }
            ValExpr::Bin(op, a, b) => {
                let x = self.eval_val(a);
                let y = self.eval_val(b);
                self.profile.flops += 1;
                op.apply(x, y)
            }
            ValExpr::Sum { var, extent, body } => {
                let n = self.eval_idx(extent).max(0);
                // Wave memo: this reduction was computed by a wave GEMM —
                // serve the element and charge the exact counters the
                // scalar dot would have. Sites are named by binder slot;
                // a linear scan: a wave has a handful of sites.
                let binder = var.id() as usize;
                let memo = (self.active.iter())
                    .position(|s| s.as_ref().is_some_and(|s| s.binder == binder));
                if let Some(idx) = memo {
                    return self.serve_memo_element(idx);
                }
                let key = &**body as *const ValExpr as usize;
                let plan = match self.caches.plan_cache.get(&key) {
                    Some(p) => p.clone(),
                    None => {
                        let p = crate::fastdot::compile(*var, body).map(std::sync::Arc::new);
                        self.caches.plan_cache.insert(key, p.clone());
                        p
                    }
                };
                if let Some(plan) = plan {
                    self.eval_dot(&plan, n)
                } else {
                    // A body `fastdot::compile` rejects (a nonlinearity
                    // or a guard around the reduction variable) sums
                    // per k through the generic evaluator.
                    let slot = var.id() as usize;
                    let mut acc = 0.0f32;
                    for k in 0..n {
                        self.slots[slot] = k;
                        acc += self.eval_val(body);
                        self.profile.flops += 1;
                    }
                    acc
                }
            }
            ValExpr::Select {
                cond,
                then,
                otherwise,
            } => {
                self.profile.branch_checks += 1;
                if self.eval_bool(cond) {
                    self.eval_val(then)
                } else {
                    self.eval_val(otherwise)
                }
            }
        }
    }

    /// Serves one element of a memo-active reduction site from its wave
    /// GEMM result, charging the exact counters the scalar dot would.
    #[inline]
    fn serve_memo_element(&mut self, idx: usize) -> f32 {
        let site = self.active[idx].as_ref().expect("memo-active site");
        let group = &self.active_groups[site.group];
        let r = self.slots[site.n_idx_slot] as usize;
        let m = &group.meta[site.meta_off + r];
        if m.zero {
            // The scalar path short-circuits before any accounting when
            // a guard kills the product.
            return 0.0;
        }
        let value = m.scale * group.value(site.row_off + r, site.col(&self.slots));
        // `m.streams` excludes the weight stream: `+1` for the weight,
        // `+1` for the accumulate — the scalar path's
        // `flops += k·(streams+1)` with the weight included.
        self.profile.flops += site.k * (m.streams + 2);
        if let Some(scope) = self.scopes.last_mut() {
            scope.touch[site.weight_tensor as usize].0 += site.k;
            for &t in &m.tensors {
                scope.touch[t as usize].0 += site.k;
            }
        }
        value
    }

    /// Resolves the multiplicative operands of a reduction into `out` by
    /// walking them — the per-element reference the gather's compiled
    /// [`RowOperand`](super::address::RowOperand)s are checked against.
    pub(crate) fn resolve_product(&mut self, operands: &[Operand], out: &mut Resolved) {
        fn streams(interp: &mut Interp<'_>, op: &Operand, out: &mut Resolved) {
            match op {
                Operand::Load {
                    tensor,
                    index,
                    k_pos,
                } => {
                    let (base, stride) = interp.strided_offset(*tensor, index, Some(*k_pos));
                    out.streams.push((tensor.0 as usize, base, stride));
                }
                Operand::Add(parts) => parts.iter().for_each(|p| streams(interp, p, out)),
                Operand::Guarded { cond, inner } => {
                    if interp.eval_bool(cond) {
                        streams(interp, inner, out);
                    }
                }
                Operand::Scalar(_) => unreachable!("scalars are resolved separately"),
            }
        }
        out.clear();
        for op in operands {
            if let Operand::Scalar(e) = op {
                out.scale *= self.eval_val(e);
            } else {
                streams(self, op, out);
                out.close(matches!(op, Operand::Add(_)));
            }
        }
    }

    /// Executes a compiled reduction as tight strided loops.
    pub(crate) fn eval_dot(&mut self, plan: &crate::fastdot::DotPlan, n: i64) -> f32 {
        #[cfg(test)]
        {
            self.caches.dots += 1;
        }
        let mut r = std::mem::take(&mut self.caches.resolved);
        self.resolve_product(&plan.operands, &mut r);
        let value = self.dot_resolved(&mut r, n);
        self.caches.resolved = r;
        value
    }

    fn dot_resolved(&mut self, r: &mut Resolved, n: i64) -> f32 {
        if r.zero || n == 0 {
            return 0.0;
        }
        // Accounting in bulk, before borrowing buffers for the hot loop.
        let n_usize = n as usize;
        if let Some(scope) = self.scopes.last_mut() {
            for &(t, _, _) in &r.streams {
                scope.touch[t].0 += n as u64;
            }
        }
        self.profile.flops += n as u64 * (r.streams.len() as u64 + 1);

        let bufs = &self.bufs;
        let data = |t: usize| -> &[f32] { &bufs[t].as_ref().expect("allocated").data };
        let mut acc = 0.0f32;
        // Specialize the overwhelmingly common case: product of exactly
        // two plain streams (a matvec row).
        if let Some(&[(t0, b0, s0), (t1, b1, s1)]) = r.plain() {
            let (d0, d1) = (data(t0), data(t1));
            if s0 == 1 && s1 == 1 {
                // The chain a wave GEMM runs for this element, so the
                // two paths agree bit for bit at any length.
                acc =
                    cortex_tensor::simd::dot_ordered(&d0[b0..b0 + n_usize], &d1[b1..b1 + n_usize]);
            } else {
                for k in 0..n_usize {
                    acc += d0[b0 + k * s0] * d1[b1 + k * s1];
                }
            }
            return r.scale * acc;
        }
        let mut row = std::mem::take(&mut r.row);
        row.resize(n_usize, 0.0);
        r.pack(bufs, &mut row);
        acc = row.iter().fold(acc, |acc, p| acc + p);
        r.row = row;
        r.scale * acc
    }
}
