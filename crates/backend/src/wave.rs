//! Batched wavefront execution: compile-time analysis.
//!
//! The scalar executor evaluates each recognized reduction ([`DotPlan`])
//! once **per output element**: a wave of `R` nodes × `H` hidden units
//! costs `R·H` independent stream resolutions and dot loops. This module
//! extends the `fastdot` pattern match from "one reduction row" to "one
//! reduction wave": for a parallel `d_batch` node loop it finds every
//! reduction of the shape
//!
//! ```text
//! for n_idx in 0..wave_len:          # d_batch, parallel
//!   node = base + n_idx
//!   for i in 0..H:                   # d_hidden, vectorized
//!     t[…, i] = f( Σ_k W[i,k] · X(node, k), … )
//! ```
//!
//! and emits a [`SumSite`]: the feature-dependent *weight* operand `W`
//! (packed once into the tile kernel's column panels) and the
//! node-dependent *row* operands `X` (guards and child-sums resolved once
//! per node, gathered into a packed `[R][K]` matrix). The executor then
//! computes the whole wave with one register-tiled GEMM from
//! `cortex-tensor` instead of `R·H` interpreted dots, and serves each
//! `Sum` evaluation from the result matrix.
//!
//! When no one weight serves every node — the weight's index varies per
//! node (MV-RNN's `Σ_k A[child₁(n), i, k]·a[child₀(n), k]`), or the row
//! operands ride a second feature loop `j` (its `Σ_k W_M[i,k]·A[child(n),
//! k, j]`) — the site is a [`NodeProduct`]: one small GEMM per node,
//! `C_n[i][j] = Σ_k X_n[i,k]·Y_n[k,j]`.
//!
//! The analysis is purely syntactic and conservative: any shape outside
//! the recognized forms (feature-dependent guards, loads in
//! reduction-invariant factors, two operands riding `i`, …) is skipped,
//! and the executor falls back to the scalar interpreter for that site.
//! Crucially, every accepted site preserves the *exact* `Profile`
//! accounting of the scalar path — see the executor's wave-memo
//! bookkeeping.

use std::collections::HashMap;
use std::sync::Arc;

use cortex_core::expr::{BoolExpr, IdxExpr, TensorId, Ufn, ValExpr, Var};
use cortex_core::ilir::{LoopKind, Stmt};
use cortex_tensor::kernels::PackedB;

use crate::exec::address::{Addr, Coord, RowOperand};
use crate::fastdot::{self, bool_uses_var, idx_uses_var, val_uses_var, Operand};

/// A batched execution plan for one `d_batch` parallel node loop.
#[derive(Debug)]
pub(crate) struct WavePlan {
    /// Slot of the loop variable (`n_idx`).
    pub n_idx_slot: usize,
    /// The `let node = value` binding directly under the loop, if any,
    /// compiled (the gather evaluates it once per row).
    pub node_let: Option<(usize, Coord)>,
    /// Reductions executable as one GEMM per wave.
    pub sites: Vec<SumSite>,
    /// Stacking groups over `sites`: each group runs as **one** GEMM.
    pub groups: Vec<SiteGroup>,
    /// Engine-wide id of `groups[0]`: group `g` of this plan is
    /// `group_base + g`, the index of its packed weights and scratch in
    /// the engine caches.
    pub group_base: usize,
}

/// How the members of a [`SiteGroup`] share one GEMM.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum GroupKind {
    /// Members gather identical operand rows (TreeLSTM's i/o/u gates all
    /// consume the child-sum row): the rows are packed **once** and the
    /// per-site weights are stacked vertically into one `[ΣH]×[K]`
    /// matrix. A singleton group is the ordinary one-site GEMM.
    SharedRows,
    /// Members read the **same** weight window over different rows (the
    /// per-child forget gates both multiply `U_f`): their gathered rows
    /// are stacked into one `[G·R]×[K]` matrix against the one packed
    /// weight.
    SharedWeight,
    /// One [`NodeProduct`] site: one small GEMM per node, with nothing
    /// packed or merged across nodes or requests.
    PerNode,
}

/// A set of sites executed as one stacked GEMM.
#[derive(Debug)]
pub(crate) struct SiteGroup {
    /// Sharing shape of the group.
    pub kind: GroupKind,
    /// Indices into [`WavePlan::sites`].
    pub members: Vec<usize>,
    /// Whether the group runs as one packed GEMM: every member reads a
    /// 2-D `Param` whose index is just `i` and `k`, and the reduction
    /// extent is a constant that fits the parameter's declared dims. Its
    /// packed weight is then a pure function of the group and the bound
    /// [`crate::params::Params`], packed once per params generation.
    /// Decided at engine build (the analysis does not know storage
    /// classes or dims); the sites of any other stacking group run per
    /// element every wave, counted in `ExecStats::fallback_sites`.
    pub static_window: bool,
}

/// One batched reduction site.
#[derive(Debug)]
pub(crate) struct SumSite {
    /// Slot of the `Sum`'s binder: the site's identity within its wave
    /// (binders are unique per `Sum` and distinct within a wave body),
    /// which the wave memo and the row programs match on.
    pub binder: usize,
    /// Reduction extent `K` (node- and feature-invariant).
    pub extent: IdxExpr,
    /// Feature loop variable slot (`i`).
    pub feat_slot: usize,
    /// Feature extent `H`.
    pub feat_extent: usize,
    /// How many stored elements the scalar path serves from one gathered
    /// row: `H_i` for a rank-1 site, `H_i·H_j` for a site nested under a
    /// two-level feature loop (one row per node serves the whole `i×j`
    /// tile). This is the accounting replay factor for the packing phase.
    pub served_per_row: usize,
    /// The feature-dependent operand: packed once per params binding
    /// (see [`SiteGroup::static_window`]), or read in place per node by
    /// a [`NodeProduct`] site.
    pub weight: WeightRef,
    /// The remaining operands and the value-level `Select` guards
    /// wrapping this `Sum`, compiled into the address program the
    /// gather resolves each node's row with.
    pub row: RowOperand,
    /// Set when the operands vary per node in a way one shared weight
    /// cannot serve: the site then runs one product per node.
    pub per_node: Option<NodeProduct>,
}

/// A per-node product site, `C_n[i][j] = Σ_k X_n[i,k]·Y_n[k,j]`: MV-RNN's
/// `A_child·a_child` matvecs (`X` varies per node, no `j`) and its
/// `W_M·A_child` recursions (`Y` rides a second feature loop `j`). The
/// gather runs one GEMM per node: `X`'s `[i][k]` block read in place as
/// rows, `Y`'s `[k][j]` block packed as `H_j` columns, and the node's
/// `H_i·H_j` results stored as one result row, `i`-major.
#[derive(Debug)]
pub(crate) struct NodeProduct {
    /// `X` with its feature position zeroed and its reduction position
    /// the hole: each node's `[i][k]` block starts at this address.
    pub x: Addr,
    /// `(slot, extent H_j)` of the feature variable `Y` rides, if any
    /// (none: a matvec, `H_j = 1`). `Y` is then one load with `j` in its
    /// last (unit-stride) index position.
    pub j: Option<(usize, usize)>,
}

impl SumSite {
    /// Columns of the site's result row: `H_i·H_j` for a per-node
    /// product, `H_i` otherwise.
    pub(crate) fn cols(&self) -> usize {
        let hj = self
            .per_node
            .as_ref()
            .and_then(|p| p.j)
            .map_or(1, |(_, hj)| hj);
        self.feat_extent * hj
    }
}

/// The feature-dependent operand of a site: a plain load
/// `W[…, i, …, k, …]` whose other indices are counter-free and, unless
/// the site is a [`NodeProduct`], wave-invariant. The analysis accepts
/// any such tensor; only a 2-D `Param` read as `[i, k]` is packed
/// ([`SiteGroup::static_window`]).
#[derive(Debug)]
pub(crate) struct WeightRef {
    /// The tensor read.
    pub tensor: TensorId,
    /// Full index expressions; positions `i_pos` / `k_pos` are the
    /// feature and reduction variables.
    pub index: Vec<IdxExpr>,
    /// Index position carrying the feature variable.
    pub i_pos: usize,
    /// Index position carrying the reduction variable.
    pub k_pos: usize,
}

/// Analyzes compiled kernel bodies, returning the wave plans by wave id
/// and the map from each planned `For` statement's address to its id.
/// Sites with compatible signatures are grouped into stacked GEMMs
/// (`group_sites`).
///
/// The addresses are lookup keys for walks over these same kernels (the
/// lowering, the `interp: true` oracle), stable because the bodies are
/// never mutated; nothing dereferences them.
pub(crate) fn analyze(bodies: &[&[Stmt]]) -> (Vec<WavePlan>, HashMap<usize, usize>) {
    let mut plans = (Vec::new(), HashMap::new());
    for body in bodies {
        for stmt in *body {
            visit(stmt, &mut plans);
        }
    }
    plans
}

fn visit(stmt: &Stmt, plans: &mut (Vec<WavePlan>, HashMap<usize, usize>)) {
    if let Stmt::For {
        var,
        kind: LoopKind::Parallel,
        dim: Some(d),
        body,
        ..
    } = stmt
    {
        if d.0 == "d_batch" {
            let group_base = plans.0.last().map_or(0, |p| p.group_base + p.groups.len());
            if let Some(plan) = plan_wave(*var, body, group_base) {
                plans.1.insert(stmt as *const Stmt as usize, plans.0.len());
                plans.0.push(plan);
                return; // sites under this loop are covered by the plan
            }
        }
    }
    match stmt {
        Stmt::For { body, .. } | Stmt::Let { body, .. } => {
            body.iter().for_each(|s| visit(s, plans));
        }
        Stmt::If {
            then_branch,
            else_branch,
            ..
        } => {
            then_branch.iter().for_each(|s| visit(s, plans));
            else_branch.iter().for_each(|s| visit(s, plans));
        }
        Stmt::Store { .. } | Stmt::Barrier => {}
    }
}

/// Builds a plan for one `d_batch` loop body, or `None` if nothing under
/// it batches.
fn plan_wave(n_idx: Var, body: &[Stmt], group_base: usize) -> Option<WavePlan> {
    let (node_let, stmts): (Option<(usize, &IdxExpr)>, &[Stmt]) = match body {
        [Stmt::Let { var, value, body }] => (Some((var.id() as usize, value)), body.as_slice()),
        other => (None, other),
    };
    let node = node_let
        .as_ref()
        .map(|(slot, _)| Var::from_raw(*slot as u32));
    // The packing phase evaluates the node binding once per row on top of
    // the loop's own per-iteration evaluation; like the reduction extent,
    // it must therefore be free of counter-bumping uninterpreted
    // functions or the bit-for-bit Profile contract breaks.
    if let Some((_, value)) = &node_let {
        if idx_has_counting_ufn(value) {
            return None;
        }
    }
    // Intra-wave dependence check: the packing phase reads operand rows
    // for the *whole* wave before any iteration's stores run, so a site
    // may not read a tensor this loop writes (same-iteration producers
    // like the refactored GRU's hsum, or cross-iteration node/child
    // aliasing). Collect every store target under the loop.
    let mut stored = std::collections::HashSet::new();
    for stmt in stmts {
        collect_stored(stmt, &mut stored);
    }
    let mut sites = Vec::new();
    for stmt in stmts {
        // Feature loops directly under the node binding are candidates:
        // a single `for i { store }` (vector sites) or a two-level
        // `for i { for j { store } }` nest (matrix sites — MV-RNN's
        // per-node products). Everything else simply runs through the
        // scalar interpreter.
        let Stmt::For {
            var: outer,
            extent: IdxExpr::Const(ho),
            body: inner,
            ..
        } = stmt
        else {
            continue;
        };
        if *ho <= 0 {
            continue;
        }
        let mut guards = Vec::new();
        match inner.as_slice() {
            [Stmt::Store { value, .. }] => {
                collect_sites(
                    value,
                    n_idx,
                    node,
                    (*outer, *ho as usize),
                    None,
                    &stored,
                    &mut guards,
                    &mut sites,
                );
            }
            [Stmt::For {
                var: inner_var,
                extent: IdxExpr::Const(hi),
                body: innermost,
                ..
            }] if *hi > 0 => {
                let [Stmt::Store { value, .. }] = innermost.as_slice() else {
                    continue;
                };
                collect_sites(
                    value,
                    n_idx,
                    node,
                    (*outer, *ho as usize),
                    Some((*inner_var, *hi as usize)),
                    &stored,
                    &mut guards,
                    &mut sites,
                );
            }
            _ => {}
        }
    }
    if sites.is_empty() {
        None
    } else {
        let groups = group_sites(&sites);
        Some(WavePlan {
            n_idx_slot: n_idx.id() as usize,
            node_let: node_let.map(|(slot, value)| (slot, Coord::new(value))),
            sites,
            groups,
            group_base,
        })
    }
}

// ---------------------------------------------------------------------
// Gate stacking: site grouping by structural signature
// ---------------------------------------------------------------------

/// Partitions the sites of one wave into stacking groups.
///
/// Pass 1 groups sites whose reduction extent and row operands are
/// structurally equal modulo each site's own reduction variable
/// ([`GroupKind::SharedRows`] — one gather, vertically stacked weights).
/// Pass 2 groups leftover singletons that read the same weight window
/// ([`GroupKind::SharedWeight`] — one packed weight, row-stacked
/// gathers). Whatever remains is a singleton `SharedRows` group (one
/// GEMM for its one site), or a `PerNode` group for a per-node product.
fn group_sites(sites: &[SumSite]) -> Vec<SiteGroup> {
    let group = |kind, members| SiteGroup {
        kind,
        members,
        static_window: false,
    };
    // A per-node product shares nothing: it is always its own group.
    let single = |i: usize| match sites[i].per_node {
        Some(_) => group(GroupKind::PerNode, vec![i]),
        None => group(GroupKind::SharedRows, vec![i]),
    };
    let stacks = |i: usize| sites[i].per_node.is_none();
    let mut groups = Vec::new();
    let mut grouped = vec![false; sites.len()];
    let mut singles = Vec::new();
    for i in 0..sites.len() {
        if grouped[i] {
            continue;
        }
        let mut members = vec![i];
        for j in i + 1..sites.len() {
            if !grouped[j] && stacks(i) && stacks(j) && rows_sig_equal(&sites[i], &sites[j]) {
                grouped[j] = true;
                members.push(j);
            }
        }
        grouped[i] = true;
        if members.len() > 1 {
            groups.push(group(GroupKind::SharedRows, members));
        } else {
            singles.push(i);
        }
    }
    let mut single_grouped = vec![false; singles.len()];
    for a in 0..singles.len() {
        if single_grouped[a] {
            continue;
        }
        let i = singles[a];
        let mut members = vec![i];
        for (b, &j) in singles.iter().enumerate().skip(a + 1) {
            if !single_grouped[b]
                && stacks(i)
                && stacks(j)
                && weight_sig_equal(&sites[i], &sites[j])
            {
                single_grouped[b] = true;
                members.push(j);
            }
        }
        single_grouped[a] = true;
        groups.push(if members.len() > 1 {
            group(GroupKind::SharedWeight, members)
        } else {
            single(i)
        });
    }
    groups
}

/// Whether two sites gather identical operand rows: equal reduction
/// extents and the same row operands ([`RowOperand::same_rows`]). Such
/// sites share one packed row matrix; their weights stack vertically.
/// Shared-rows members share one per-row metadata entry, so their zero
/// patterns — and therefore their `Select` guards — must coincide too.
fn rows_sig_equal(a: &SumSite, b: &SumSite) -> bool {
    a.extent == b.extent && a.row.same_rows(&b.row)
}

/// Whether two sites read the same weight window: same tensor, same
/// feature/reduction index positions and extents, and equal
/// wave-invariant indices everywhere else. Such sites share one packed
/// weight; their gathered rows stack.
fn weight_sig_equal(a: &SumSite, b: &SumSite) -> bool {
    let (wa, wb) = (&a.weight, &b.weight);
    a.extent == b.extent
        && a.feat_extent == b.feat_extent
        && wa.tensor == wb.tensor
        && wa.i_pos == wb.i_pos
        && wa.k_pos == wb.k_pos
        && wa.index.len() == wb.index.len()
        && wa
            .index
            .iter()
            .zip(&wb.index)
            .enumerate()
            .all(|(d, (x, y))| d == wa.i_pos || d == wa.k_pos || x == y)
}

/// Records every tensor stored under a statement.
fn collect_stored(stmt: &Stmt, out: &mut std::collections::HashSet<TensorId>) {
    stmt.visit(&mut |s| {
        if let Stmt::Store { tensor, .. } = s {
            out.insert(*tensor);
        }
    });
}

/// Whether an operand's loads are safe to gather before the wave loop
/// runs, given the set of tensors the loop stores to.
fn operand_reads_safe(
    op: &Operand,
    stored: &std::collections::HashSet<TensorId>,
    n_idx: Var,
    node: Option<Var>,
) -> bool {
    let uses_wave_var =
        |e: &IdxExpr| idx_uses_var(e, n_idx) || node.is_some_and(|nv| idx_uses_var(e, nv));
    match op {
        Operand::Load {
            tensor,
            index,
            k_pos,
        } => {
            if !stored.contains(tensor) {
                return true; // read-only within this loop
            }
            // Stored tensor: every wave-dependent index must be a child
            // indirection rooted at the wave's node (a strictly earlier
            // wave's row — the invariant the linearizer guarantees), and
            // the row must actually vary with the node (a fixed row of a
            // stored tensor could alias any iteration's store).
            let mut via_child = false;
            for (d, e) in index.iter().enumerate() {
                if d == *k_pos {
                    continue;
                }
                if uses_wave_var(e) {
                    if is_wave_child_indirection(e, n_idx, node) {
                        via_child = true;
                    } else {
                        return false;
                    }
                }
            }
            via_child
        }
        Operand::Add(parts) => parts
            .iter()
            .all(|p| operand_reads_safe(p, stored, n_idx, node)),
        // Guard conditions read no tensors.
        Operand::Guarded { inner, .. } => operand_reads_safe(inner, stored, n_idx, node),
        // Scalars are pure (checked separately): no loads.
        Operand::Scalar(_) => true,
    }
}

/// Whether an index is a `Child` indirection chain that bottoms out at
/// the wave's own node variable — `child(node)`, `child(child(node))`, …
/// Anything else (`child(node) + 1`, `child(word(node))`) could alias a
/// row this wave writes, so it is not accepted.
pub(crate) fn is_wave_child_indirection(e: &IdxExpr, n_idx: Var, node: Option<Var>) -> bool {
    match e {
        IdxExpr::Ufn(Ufn::Child(_), args) => match args.first() {
            Some(IdxExpr::Var(v)) => *v == n_idx || node == Some(*v),
            Some(inner) => is_wave_child_indirection(inner, n_idx, node),
            None => false,
        },
        _ => false,
    }
}

/// Collects batchable top-level `Sum`s from a stored value expression.
///
/// `outer`/`inner` are the feature loop variables of the store's loop
/// nest (with extents). Which of them is the weight-side feature `i` is
/// decided per site: the variable the weight operand rides; the other
/// (if used) becomes the column variable `j` of a per-node product.
///
/// `guards` is the stack of value-level `Select` conditions (with the
/// branch taken) on the path from the store's root to the current
/// subexpression: a `Sum` found here is only evaluated by the scalar
/// path when every guard holds, so the site records them and the gather
/// phase skips (zero-fills) rows whose guards fail — including their
/// child indirections, which may be `NO_CHILD` on guarded-off nodes.
#[allow(clippy::too_many_arguments)]
fn collect_sites(
    e: &ValExpr,
    n_idx: Var,
    node: Option<Var>,
    outer: (Var, usize),
    inner: Option<(Var, usize)>,
    stored: &std::collections::HashSet<TensorId>,
    guards: &mut Vec<(BoolExpr, bool)>,
    out: &mut Vec<SumSite>,
) {
    match e {
        ValExpr::Sum { var, extent, body } => {
            let site = plan_site(
                *var, extent, body, n_idx, node, outer, inner, stored, guards,
            )
            .or_else(|| {
                // The weight may ride the inner loop instead (the
                // outer var then becomes the row-side dimension).
                inner.and_then(|inner_dim| {
                    plan_site(
                        *var,
                        extent,
                        body,
                        n_idx,
                        node,
                        inner_dim,
                        Some(outer),
                        stored,
                        guards,
                    )
                })
            });
            if let Some(site) = site {
                out.push(site);
            }
            // Nested sums inside `body` are part of this reduction (and
            // reject the fastdot match anyway): do not descend.
        }
        ValExpr::Unary(_, a) => collect_sites(a, n_idx, node, outer, inner, stored, guards, out),
        ValExpr::Bin(_, a, b) => {
            collect_sites(a, n_idx, node, outer, inner, stored, guards, out);
            collect_sites(b, n_idx, node, outer, inner, stored, guards, out);
        }
        // A `Sum` under a value-level `Select` is evaluated only when its
        // branch is taken (the DAG formulation `select(guard, Σ_k …, 0)`).
        // Descend with the condition pushed onto the guard stack: the
        // site's gather phase then resolves operand rows only for nodes
        // whose guards hold — guarded-off nodes get a zero row that the
        // interpreter never reads (their `Select` takes the other arm),
        // and no accounting is replayed for them. The condition must be
        // feature-invariant so one evaluation decides the whole row.
        ValExpr::Select {
            cond,
            then,
            otherwise,
        } => {
            let feat_ok = !bool_uses_var(cond, outer.0)
                && !inner.is_some_and(|(jv, _)| bool_uses_var(cond, jv));
            if feat_ok {
                guards.push((cond.clone(), true));
                collect_sites(then, n_idx, node, outer, inner, stored, guards, out);
                guards.pop();
                guards.push((cond.clone(), false));
                collect_sites(otherwise, n_idx, node, outer, inner, stored, guards, out);
                guards.pop();
            }
        }
        ValExpr::Const(_) | ValExpr::Load { .. } => {}
    }
}

/// Tries to turn one `Sum` into a [`SumSite`] with `feat` as the
/// weight-side feature variable. `other` is the remaining loop variable
/// of a two-level feature nest, if any: the weight must not ride it, and
/// if the row operands do, the site is a [`NodeProduct`] with `other` as
/// its column variable `j`.
#[allow(clippy::too_many_arguments)]
fn plan_site(
    k: Var,
    extent: &IdxExpr,
    body: &ValExpr,
    n_idx: Var,
    node: Option<Var>,
    (feat, h): (Var, usize),
    other: Option<(Var, usize)>,
    stored: &std::collections::HashSet<TensorId>,
    guards: &[(BoolExpr, bool)],
) -> Option<SumSite> {
    // The extent must be loop-invariant (evaluable once per wave) and
    // free of counting uninterpreted functions, so evaluating it in the
    // packing phase adds no profile counters the scalar path would not.
    if idx_uses_var(extent, feat)
        || idx_uses_var(extent, n_idx)
        || node.is_some_and(|nv| idx_uses_var(extent, nv))
        || other.is_some_and(|(jv, _)| idx_uses_var(extent, jv))
        || idx_has_counting_ufn(extent)
    {
        return None;
    }
    let plan = fastdot::compile(k, body)?;
    // Reject reductions that may read something this wave loop writes:
    // the packing phase gathers every node's rows *before* any iteration
    // stores. Reads of a stored tensor are only safe through a child
    // indirection — the wavefront schedule places children in strictly
    // earlier waves, so those rows are final (this is exactly the fused
    // TreeLSTM shape). A bare same-node read (the refactored GRU's hsum)
    // is a genuine intra-wave dependence and falls back to the scalar
    // path.
    if !plan
        .operands
        .iter()
        .all(|op| operand_reads_safe(op, stored, n_idx, node))
    {
        return None;
    }
    // Exactly one operand may depend on the feature variable, and it must
    // be a plain strided load: `X`, the weight matrix.
    let mut weight: Option<WeightRef> = None;
    let mut node_dep = false;
    let mut rest = Vec::new();
    for op in plan.operands {
        if !operand_uses_var(&op, feat) {
            // Row operands are re-resolved once per node; loads hiding in
            // reduction-invariant factors would need per-element load
            // accounting, so only pure scalars pass.
            if let Operand::Scalar(e) = &op {
                if !val_is_pure(e) {
                    return None;
                }
            }
            rest.push(op);
            continue;
        }
        if weight.is_some() {
            return None; // two operands ride `i` (an elementwise `A[i,k]·B[i,k]`)
        }
        let Operand::Load {
            tensor,
            index,
            k_pos,
        } = op
        else {
            return None;
        };
        let mut i_pos = None;
        for (d, ix) in index.iter().enumerate() {
            if d == k_pos {
                continue;
            }
            match ix {
                IdxExpr::Var(v) if *v == feat => {
                    if i_pos.is_some() {
                        return None;
                    }
                    i_pos = Some(d);
                }
                ix_other => {
                    // Remaining positions must be free of both feature
                    // variables, and counter-free because the packing
                    // phase evaluates them outside the scalar path's
                    // cadence. One that varies per node (MV-RNN's
                    // `A[child(n), i, k]`) makes this a per-node product.
                    if idx_uses_var(ix_other, feat)
                        || other.is_some_and(|(jv, _)| idx_uses_var(ix_other, jv))
                        || idx_has_counting_ufn(ix_other)
                    {
                        return None;
                    }
                    node_dep |= idx_uses_var(ix_other, n_idx)
                        || node.is_some_and(|nv| idx_uses_var(ix_other, nv));
                }
            }
        }
        weight = Some(WeightRef {
            tensor,
            index,
            i_pos: i_pos?,
            k_pos,
        });
    }
    let weight = weight?;
    // A site under a two-level feature nest serves its whole `i×j` tile
    // from one gathered row per node (the scalar path re-resolves per
    // element, hence the replay factor). If its row operands ride the
    // other loop, or its weight varies per node, one shared weight cannot
    // serve it: it becomes a per-node product.
    let j = other.filter(|(jv, _)| rest.iter().any(|op| operand_uses_var(op, *jv)));
    let per_node = if node_dep || j.is_some() {
        if j.is_some_and(|(jv, _)| !rides_last(&rest, jv)) {
            return None;
        }
        let mut x = weight.index.clone();
        x[weight.i_pos] = IdxExpr::Const(0);
        Some(NodeProduct {
            x: Addr::new(weight.tensor, x, Some(weight.k_pos)),
            j: j.map(|(jv, hj)| (jv.id() as usize, hj)),
        })
    } else {
        None
    };
    Some(SumSite {
        binder: k.id() as usize,
        extent: extent.clone(),
        feat_slot: feat.id() as usize,
        feat_extent: h,
        served_per_row: h * other.map_or(1, |(_, hj)| hj),
        weight,
        row: RowOperand::new(rest, guards),
        per_node,
    })
}

/// Whether the row operands of a per-node product are one load (besides
/// pure scalars) that `j` rides in its last index position and nowhere
/// else: the node's `Y` is then a `[k][j]` block with unit-stride rows.
fn rides_last(rest: &[Operand], j: Var) -> bool {
    let mut loads = rest.iter().filter(|op| !matches!(op, Operand::Scalar(_)));
    let (Some(Operand::Load { index, k_pos, .. }), None) = (loads.next(), loads.next()) else {
        return false;
    };
    let Some((last, before)) = index.split_last() else {
        return false;
    };
    *k_pos != before.len() && *last == IdxExpr::Var(j) && !before.iter().any(|e| idx_uses_var(e, j))
}

fn operand_uses_var(op: &Operand, v: Var) -> bool {
    match op {
        Operand::Load { index, .. } => index.iter().any(|i| idx_uses_var(i, v)),
        Operand::Add(parts) => parts.iter().any(|p| operand_uses_var(p, v)),
        Operand::Guarded { cond, inner } => bool_uses_var(cond, v) || operand_uses_var(inner, v),
        Operand::Scalar(e) => val_uses_var(e, v),
    }
}

/// Whether evaluating this value can touch memory or profile counters
/// beyond plain flops (loads, selects, nested reductions).
fn val_is_pure(e: &ValExpr) -> bool {
    match e {
        ValExpr::Const(_) => true,
        ValExpr::Load { .. } | ValExpr::Sum { .. } | ValExpr::Select { .. } => false,
        ValExpr::Unary(_, a) => val_is_pure(a),
        ValExpr::Bin(_, a, b) => val_is_pure(a) && val_is_pure(b),
    }
}

// ---------------------------------------------------------------------
// Cross-request super-waves: merging per-request wave GEMMs
// ---------------------------------------------------------------------

/// Identity of a mergeable wave GEMM: two requests' wave instances fuse
/// into one super-wave GEMM exactly when they are the *same* stacking
/// group of the *same* planned loop — the result matrices then differ
/// only in which rows belong to whom. The GEMM's shape is the group's
/// packed weight's ([`PackedB::shape`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SuperKey {
    /// Id of the wave plan.
    pub wave: usize,
    /// Ordinal of the stacking group within its [`WavePlan`].
    pub group: usize,
}

/// One request's share of a super-wave GEMM.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Registrant {
    /// Index of the request in the `run_many` batch.
    pub request: usize,
    /// Index into that request's active-group list.
    pub group_idx: usize,
    /// First row of the request's block in the merged matrices.
    pub base_row: usize,
}

/// One pending super-wave GEMM: merged gathered rows from every
/// registered request against one shared packed weight.
pub(crate) struct SuperEntry {
    pub key: SuperKey,
    /// The group's packed weight, the one every request multiplies by.
    pub weight: Arc<PackedB>,
    /// Merged row matrix, `[total_rows][K]` row-major.
    pub rows: Vec<f32>,
    pub total_rows: usize,
    pub registrants: Vec<Registrant>,
}

/// Accumulates per-request wave GEMMs between executor rendezvous
/// points and merges compatible ones ([`merge_plans`]) so one GEMM
/// serves every queued request at that wave depth.
///
/// One lives for one `execute_many` call, and recycles what its flushes
/// allocate: row matrices return to `pool` after their GEMM, and each
/// result matrix stays in `outs` to be reused by a later depth once
/// every registrant has finished its wave and dropped its share.
#[derive(Default)]
pub(crate) struct SuperWaveAcc {
    entries: Vec<SuperEntry>,
    pool: Vec<Vec<f32>>,
    outs: Vec<Arc<Vec<f32>>>,
}

/// Finds the entry a wave instance merges into, or opens a new one.
/// Merging requires the same [`SuperKey`]: a group has one pack per
/// params generation, so within one call every instance of a key
/// multiplies by the same packed weight.
pub(crate) fn merge_plans(
    entries: &mut Vec<SuperEntry>,
    pool: &mut Vec<Vec<f32>>,
    key: SuperKey,
    weight: &Arc<PackedB>,
) -> usize {
    if let Some(i) = entries.iter().position(|e| e.key == key) {
        debug_assert!(
            Arc::ptr_eq(&entries[i].weight, weight),
            "one pack per group"
        );
        return i;
    }
    entries.push(SuperEntry {
        key,
        weight: weight.clone(),
        rows: pool.pop().unwrap_or_default(),
        total_rows: 0,
        registrants: Vec::new(),
    });
    entries.len() - 1
}

impl SuperWaveAcc {
    /// Registers `n_rows` gathered rows for `request`, returning the
    /// entry index and the block's base row. The row storage is zeroed
    /// and ready to be packed via [`SuperWaveAcc::rows_mut`].
    pub fn register(
        &mut self,
        key: SuperKey,
        weight: &Arc<PackedB>,
        n_rows: usize,
        request: usize,
        group_idx: usize,
    ) -> (usize, usize) {
        let e = merge_plans(&mut self.entries, &mut self.pool, key, weight);
        let entry = &mut self.entries[e];
        let base = entry.total_rows;
        entry.total_rows += n_rows;
        entry.rows.resize(entry.total_rows * weight.shape().1, 0.0);
        entry.registrants.push(Registrant {
            request,
            group_idx,
            base_row: base,
        });
        (e, base)
    }

    /// The mutable row block `[base..base+n_rows]` of an entry.
    pub fn rows_mut(&mut self, entry: usize, base: usize, n_rows: usize) -> &mut [f32] {
        let k = self.entries[entry].weight.shape().1;
        &mut self.entries[entry].rows[base * k..(base + n_rows) * k]
    }

    /// Whether any GEMMs are pending.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Drains the pending entries for the flush phase.
    pub fn take_entries(&mut self) -> Vec<SuperEntry> {
        std::mem::take(&mut self.entries)
    }

    /// A result matrix of `len` floats this accumulator alone holds: a
    /// retired one when any is free (its contents are stale; the GEMM
    /// stores every element), else a new one.
    pub fn take_output(&mut self, len: usize) -> Arc<Vec<f32>> {
        let free = self.outs.iter_mut().position(|o| Arc::get_mut(o).is_some());
        let mut out = free.map_or_else(Arc::default, |i| self.outs.swap_remove(i));
        Arc::get_mut(&mut out).expect("unshared").resize(len, 0.0);
        out
    }

    /// Returns a flushed entry's row buffer to the pool and keeps a
    /// share of its result matrix for reuse once its registrants retire.
    pub fn recycle(&mut self, mut rows: Vec<f32>, out: Arc<Vec<f32>>) {
        rows.clear();
        self.pool.push(rows);
        self.outs.push(out);
    }
}

/// Whether an index expression contains an uninterpreted function that
/// bumps profile counters when evaluated (`NumChildren`).
pub(crate) fn idx_has_counting_ufn(e: &IdxExpr) -> bool {
    match e {
        IdxExpr::Const(_) | IdxExpr::Var(_) | IdxExpr::Rt(_) => false,
        IdxExpr::Ufn(f, args) => {
            matches!(f, Ufn::NumChildren) || args.iter().any(idx_has_counting_ufn)
        }
        IdxExpr::Bin(_, a, b) => idx_has_counting_ufn(a) || idx_has_counting_ufn(b),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cortex_core::expr::TensorId;
    use cortex_core::ilir::DimName;

    fn v(id: u32) -> Var {
        Var::from_raw(id)
    }

    /// `for n_idx(v0) in 0..4 { let node(v1) = n_idx; body }`.
    fn node_loop(body: Vec<Stmt>) -> Stmt {
        Stmt::For {
            var: v(0),
            extent: IdxExpr::Const(4),
            kind: LoopKind::Parallel,
            dim: Some(DimName::batch()),
            body: vec![Stmt::Let {
                var: v(1),
                value: IdxExpr::Var(v(0)),
                body,
            }],
        }
    }

    /// `for var in 0..extent { body }` over feature dimension `d`.
    fn feature_loop(var: Var, extent: i64, d: usize, body: Stmt) -> Stmt {
        Stmt::For {
            var,
            extent: IdxExpr::Const(extent),
            kind: LoopKind::Vectorized,
            dim: Some(DimName::feature(d)),
            body: vec![body],
        }
    }

    /// `t[vars…] = value`.
    fn store(t: u32, vars: &[Var], value: ValExpr) -> Stmt {
        let index = vars.iter().map(|&x| IdxExpr::Var(x)).collect();
        Stmt::Store {
            tensor: TensorId(t),
            index,
            value,
        }
    }

    /// Builds the canonical wave loop: for n_idx { let node = n_idx {
    /// for i in 0..h { t[node,i] = tanh(sum_k W[i,k] * s[node,k] + b[i]) } } }
    fn wave_loop(h: i64, k_extent: i64) -> Stmt {
        let (node, i, k) = (v(1), v(2), v(3));
        let sum = ValExpr::Sum {
            var: k,
            extent: IdxExpr::Const(k_extent),
            body: Box::new(
                ValExpr::load(TensorId(0), vec![IdxExpr::Var(i), IdxExpr::Var(k)]).mul(
                    ValExpr::load(TensorId(1), vec![IdxExpr::Var(node), IdxExpr::Var(k)]),
                ),
            ),
        };
        let value = sum
            .add(ValExpr::load(TensorId(2), vec![IdxExpr::Var(i)]))
            .tanh();
        node_loop(vec![feature_loop(i, h, 0, store(3, &[node, i], value))])
    }

    #[test]
    fn sum_under_value_level_select_is_planned_with_guard() {
        // select(guard, sum_k …, 0): the scalar interpreter evaluates the
        // reduction only when the branch is taken. The site is planned
        // with the condition recorded as a select guard, so the gather
        // phase zero-fills (and never resolves) rows whose guard fails —
        // child indirections that are NO_CHILD there are never touched.
        let (node, i, k) = (v(1), v(2), v(3));
        let child = IdxExpr::Ufn(Ufn::Child(1), vec![IdxExpr::Var(node)]);
        let sum = ValExpr::Sum {
            var: k,
            extent: IdxExpr::Const(4),
            body: Box::new(
                ValExpr::load(TensorId(0), vec![IdxExpr::Var(i), IdxExpr::Var(k)])
                    .mul(ValExpr::load(TensorId(1), vec![child, IdxExpr::Var(k)])),
            ),
        };
        let value = ValExpr::Select {
            cond: cortex_core::expr::BoolExpr::Cmp(
                cortex_core::expr::CmpOp::Lt,
                IdxExpr::Const(1),
                IdxExpr::Ufn(Ufn::NumChildren, vec![IdxExpr::Var(node)]),
            ),
            then: Box::new(sum),
            otherwise: Box::new(ValExpr::Const(0.0)),
        };
        let stmt = node_loop(vec![feature_loop(i, 4, 0, store(2, &[node, i], value))]);
        let body = [stmt];
        let (plans, _) = analyze(&[&body]);
        assert_eq!(plans.len(), 1, "the guarded sum must be planned");
        let plan = &plans[0];
        assert_eq!(plan.sites.len(), 1);
        let site = &plan.sites[0];
        assert_eq!(site.row.guards.len(), 1);
        assert!(site.row.guards[0].1, "then-branch guard expects true");
    }

    #[test]
    fn feature_dependent_select_guard_is_not_planned() {
        // select(i < 2, sum_k …, 0): the guard rides the feature
        // variable, so one evaluation cannot decide the whole row — the
        // site stays on the scalar path.
        let (node, i, k) = (v(1), v(2), v(3));
        let sum = ValExpr::Sum {
            var: k,
            extent: IdxExpr::Const(4),
            body: Box::new(
                ValExpr::load(TensorId(0), vec![IdxExpr::Var(i), IdxExpr::Var(k)]).mul(
                    ValExpr::load(TensorId(1), vec![IdxExpr::Var(node), IdxExpr::Var(k)]),
                ),
            ),
        };
        let value = ValExpr::Select {
            cond: cortex_core::expr::BoolExpr::Cmp(
                cortex_core::expr::CmpOp::Lt,
                IdxExpr::Var(i),
                IdxExpr::Const(2),
            ),
            then: Box::new(sum),
            otherwise: Box::new(ValExpr::Const(0.0)),
        };
        let stmt = node_loop(vec![feature_loop(i, 4, 0, store(2, &[node, i], value))]);
        let body = [stmt];
        assert!(analyze(&[&body]).0.is_empty());
    }

    #[test]
    fn child_indirection_must_be_rooted_at_the_wave_node() {
        // `stored[child0(word(node)), k]`: the outer constructor is a
        // Child ufn, but the chain does not bottom out at the node
        // variable, so the earlier-wave invariant does not apply.
        let (n_idx, node) = (v(0), v(1));
        let rooted = IdxExpr::Ufn(Ufn::Child(0), vec![IdxExpr::Var(node)]);
        let nested = IdxExpr::Ufn(Ufn::Child(1), vec![rooted.clone()]);
        let unrooted = IdxExpr::Ufn(
            Ufn::Child(0),
            vec![IdxExpr::Ufn(Ufn::Word, vec![IdxExpr::Var(node)])],
        );
        assert!(is_wave_child_indirection(&rooted, n_idx, Some(node)));
        assert!(is_wave_child_indirection(&nested, n_idx, Some(node)));
        assert!(!is_wave_child_indirection(&unrooted, n_idx, Some(node)));
        assert!(!is_wave_child_indirection(
            &IdxExpr::Var(node),
            n_idx,
            Some(node)
        ));
    }

    #[test]
    fn canonical_gate_loop_is_planned() {
        let stmt = wave_loop(8, 8);
        let body = [stmt];
        let (plans, _) = analyze(&[&body]);
        assert_eq!(plans.len(), 1);
        let plan = &plans[0];
        assert_eq!(plan.sites.len(), 1);
        let site = &plan.sites[0];
        assert_eq!(site.feat_extent, 8);
        assert_eq!(site.weight.tensor, TensorId(0));
        assert_eq!(site.weight.i_pos, 0);
        assert_eq!(site.weight.k_pos, 1);
        let rest = Operand::Load {
            tensor: TensorId(1),
            index: vec![IdxExpr::Var(v(1)), IdxExpr::Var(v(3))],
            k_pos: 1,
        };
        assert_eq!(site.row, RowOperand::new(vec![rest], &[]));
    }

    #[test]
    fn serial_or_unnamed_loops_are_not_planned() {
        let Stmt::For {
            var, extent, body, ..
        } = wave_loop(8, 8)
        else {
            unreachable!()
        };
        let serial = Stmt::For {
            var,
            extent,
            kind: LoopKind::Serial,
            dim: Some(DimName::node()),
            body,
        };
        let body = [serial];
        // The inner feature loop is reachable but the loop itself is not a
        // d_batch parallel loop, so nothing batches.
        assert!(analyze(&[&body]).0.is_empty());
    }

    /// Builds a TreeLSTM-shaped wave loop: `gates` sites reading the
    /// shared row `s[node,k]` with distinct weights `W_g`, plus
    /// `forgets` sites reading `Uf[i,k] * h[child_s(node),k]` — the same
    /// weight tensor over different child rows. Each site has its own
    /// feature/reduction variables, as slot remapping produces.
    fn multi_gate_loop(gates: usize, forgets: usize, k_extent: i64) -> Stmt {
        let node = v(1);
        let mut body = Vec::new();
        let mut next_var = 2u32;
        for g in 0..gates + forgets {
            let i = v(next_var);
            let k = v(next_var + 1);
            next_var += 2;
            let weight = if g < gates {
                ValExpr::load(
                    TensorId(10 + g as u32),
                    vec![IdxExpr::Var(i), IdxExpr::Var(k)],
                )
            } else {
                ValExpr::load(TensorId(20), vec![IdxExpr::Var(i), IdxExpr::Var(k)])
            };
            let row = if g < gates {
                ValExpr::load(TensorId(1), vec![IdxExpr::Var(node), IdxExpr::Var(k)])
            } else {
                let child = IdxExpr::Ufn(Ufn::Child((g - gates) as u8), vec![IdxExpr::Var(node)]);
                ValExpr::load(TensorId(2), vec![child, IdxExpr::Var(k)])
            };
            let sum = ValExpr::Sum {
                var: k,
                extent: IdxExpr::Const(k_extent),
                body: Box::new(weight.mul(row)),
            };
            let stmt = store(30 + g as u32, &[node, i], sum.tanh());
            body.push(feature_loop(i, 4, 0, stmt));
        }
        node_loop(body)
    }

    #[test]
    fn gates_sharing_rows_stack_and_forget_gates_share_weight() {
        let body = [multi_gate_loop(3, 2, 8)];
        let (plans, _) = analyze(&[&body]);
        let plan = &plans[0];
        assert_eq!(plan.sites.len(), 5);
        let shared_rows: Vec<_> = plan
            .groups
            .iter()
            .filter(|g| g.kind == GroupKind::SharedRows && g.members.len() > 1)
            .collect();
        let shared_weight: Vec<_> = plan
            .groups
            .iter()
            .filter(|g| g.kind == GroupKind::SharedWeight)
            .collect();
        assert_eq!(shared_rows.len(), 1, "i/o/u gates form one stacked group");
        assert_eq!(shared_rows[0].members.len(), 3);
        assert_eq!(shared_weight.len(), 1, "forget gates share one weight");
        assert_eq!(shared_weight[0].members.len(), 2);
        // 5 sites → 2 GEMMs per wave.
        assert_eq!(plan.groups.len(), 2);
        // Every site appears in exactly one group.
        let mut seen: Vec<usize> = plan.groups.iter().flat_map(|g| g.members.clone()).collect();
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn canonical_single_gate_is_a_singleton_group() {
        let body = [wave_loop(8, 8)];
        let (plans, _) = analyze(&[&body]);
        let plan = &plans[0];
        assert_eq!(plan.groups.len(), 1);
        assert_eq!(plan.groups[0].members, vec![0]);
    }

    /// Builds an MV-RNN-shaped rank-2 wave loop:
    /// `for i { for j { A[node,i,j] = sum_k WM[i,k] * M[child0(node),k,j] } }`.
    fn rank2_loop(hi: i64, hj: i64, k_extent: i64) -> Stmt {
        let (node, i, j, k) = (v(1), v(2), v(3), v(4));
        let child = IdxExpr::Ufn(Ufn::Child(0), vec![IdxExpr::Var(node)]);
        let sum = ValExpr::Sum {
            var: k,
            extent: IdxExpr::Const(k_extent),
            body: Box::new(
                ValExpr::load(TensorId(0), vec![IdxExpr::Var(i), IdxExpr::Var(k)]).mul(
                    ValExpr::load(TensorId(1), vec![child, IdxExpr::Var(k), IdxExpr::Var(j)]),
                ),
            ),
        };
        let stmt = store(1, &[node, i, j], sum);
        node_loop(vec![feature_loop(i, hi, 0, feature_loop(j, hj, 1, stmt))])
    }

    #[test]
    fn rank2_matrix_site_is_planned() {
        let body = [rank2_loop(5, 7, 5)];
        let (plans, _) = analyze(&[&body]);
        assert_eq!(plans.len(), 1);
        let plan = &plans[0];
        assert_eq!(plan.sites.len(), 1);
        let site = &plan.sites[0];
        assert_eq!(site.feat_extent, 5);
        assert_eq!(site.weight.tensor, TensorId(0));
        let product = site.per_node.as_ref().expect("a per-node product");
        assert_eq!(product.j, Some((3, 7)), "Y rides j, H_j = 7");
        assert_eq!(site.cols(), 35);
        assert_eq!(site.served_per_row, 35, "one Y per node serves H_i·H_j");
        // The shared W is read in place from its `[0, k]` address.
        assert_eq!(product.x.index, vec![IdxExpr::Const(0), IdxExpr::Var(v(4))]);
        assert_eq!(product.x.hole, Some(1));
        assert_eq!(plan.groups.len(), 1);
        assert_eq!(plan.groups[0].kind, GroupKind::PerNode);
    }

    /// An MV-RNN-shaped matvec: `t[node, i] = Σ_k M[child1(node), i, k] ·
    /// a[child0(node), k]`, where the feature operand's matrix is the
    /// child's — it varies per node.
    #[test]
    fn node_dependent_feature_operand_is_planned() {
        let (node, i, k) = (v(1), v(2), v(3));
        let child = |c| IdxExpr::Ufn(Ufn::Child(c), vec![IdxExpr::Var(node)]);
        let sum = ValExpr::Sum {
            var: k,
            extent: IdxExpr::Const(6),
            body: Box::new(
                ValExpr::load(
                    TensorId(0),
                    vec![child(1), IdxExpr::Var(i), IdxExpr::Var(k)],
                )
                .mul(ValExpr::load(TensorId(1), vec![child(0), IdxExpr::Var(k)])),
            ),
        };
        let stmt = node_loop(vec![feature_loop(i, 6, 0, store(2, &[node, i], sum))]);
        let body = [stmt];
        let (plans, _) = analyze(&[&body]);
        assert_eq!(plans.len(), 1, "the matvec must be planned");
        let site = &plans[0].sites[0];
        let product = site.per_node.as_ref().expect("a per-node product");
        assert_eq!(product.j, None, "a matvec has no column variable");
        assert_eq!(product.x.index[0], child(1));
        assert_eq!((site.cols(), site.served_per_row), (6, 6));
        assert_eq!(plans[0].groups[0].kind, GroupKind::PerNode);
    }

    #[test]
    fn j_invariant_sum_under_two_level_nest_serves_full_tile() {
        // for i { for j { t[n,i,j] = sum_k W[i,k]·s[node,k] } }: the sum
        // ignores j, so one row per node serves the whole H_i×H_j tile.
        let (node, i, j, k) = (v(1), v(2), v(3), v(4));
        let sum = ValExpr::Sum {
            var: k,
            extent: IdxExpr::Const(6),
            body: Box::new(
                ValExpr::load(TensorId(0), vec![IdxExpr::Var(i), IdxExpr::Var(k)]).mul(
                    ValExpr::load(TensorId(1), vec![IdxExpr::Var(node), IdxExpr::Var(k)]),
                ),
            ),
        };
        let stmt = store(2, &[node, i, j], sum);
        let stmt = node_loop(vec![feature_loop(i, 3, 0, feature_loop(j, 5, 1, stmt))]);
        let body = [stmt];
        let (plans, _) = analyze(&[&body]);
        let plan = &plans[0];
        assert_eq!(plan.sites.len(), 1);
        assert!(plan.sites[0].per_node.is_none());
        assert_eq!(plan.sites[0].served_per_row, 15);
    }

    #[test]
    fn merge_plans_fuses_same_key_and_weight_only() {
        let ones = [1.0f32; 8];
        let w1 = Arc::new(PackedB::pack_nt(&ones, 2, 4));
        let key = SuperKey { wave: 1, group: 0 };
        let other_key = SuperKey { group: 1, ..key };
        let mut acc = SuperWaveAcc::default();
        let (e0, b0) = acc.register(key, &w1, 3, 0, 0);
        let (e1, b1) = acc.register(key, &w1, 2, 1, 0);
        assert_eq!((e0, b0), (0, 0));
        assert_eq!((e1, b1), (0, 3), "same key+weight fuses, rows appended");
        let (e2, _) = acc.register(other_key, &w1, 1, 2, 0);
        assert_eq!(e2, 1, "different group stays separate");
        let entries = acc.take_entries();
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].total_rows, 5);
        assert_eq!(entries[0].rows.len(), 5 * 4);
        assert_eq!(entries[0].registrants.len(), 2);
        assert_eq!(entries[0].registrants[1].base_row, 3);
    }

    #[test]
    fn result_matrices_are_reused_only_once_every_share_is_dropped() {
        let mut acc = SuperWaveAcc::default();
        let out = acc.take_output(6);
        let held = out.clone(); // a registrant still serving its wave
        let first = Arc::as_ptr(&out);
        acc.recycle(Vec::new(), out);
        let other = acc.take_output(4);
        assert_ne!(Arc::as_ptr(&other), first, "a held result is not reused");
        acc.recycle(Vec::new(), other);
        drop(held);
        let again = acc.take_output(8);
        assert_eq!(Arc::as_ptr(&again), first, "the retired result is reused");
        assert_eq!(again.len(), 8);
        assert_eq!(acc.outs.len(), 1, "the other one stays pooled");
    }

    #[test]
    fn two_feature_dependent_operands_reject() {
        // sum_k A[i,k] * B[i,k]: both operands ride the feature variable.
        let (n_idx, i, k) = (v(0), v(2), v(3));
        let sum = ValExpr::Sum {
            var: k,
            extent: IdxExpr::Const(4),
            body: Box::new(
                ValExpr::load(TensorId(0), vec![IdxExpr::Var(i), IdxExpr::Var(k)]).mul(
                    ValExpr::load(TensorId(1), vec![IdxExpr::Var(i), IdxExpr::Var(k)]),
                ),
            ),
        };
        let stmt = Stmt::For {
            var: n_idx,
            extent: IdxExpr::Const(4),
            kind: LoopKind::Parallel,
            dim: Some(DimName::batch()),
            body: vec![Stmt::For {
                var: i,
                extent: IdxExpr::Const(4),
                kind: LoopKind::Vectorized,
                dim: Some(DimName::feature(0)),
                body: vec![Stmt::Store {
                    tensor: TensorId(3),
                    index: vec![IdxExpr::Var(n_idx), IdxExpr::Var(i)],
                    value: sum,
                }],
            }],
        };
        let body = [stmt];
        assert!(analyze(&[&body]).0.is_empty());
    }
}
