//! Static verification of a lowered [`Program`].
//!
//! Runs once per engine build, after [`super::build_plans`] (the plan
//! never changes afterwards), and turns every invariant the pc runtime
//! assumes — documented on [`super::program`] — into a checked one:
//!
//! * every jump/branch/loop/kernel pc operand lands inside the op
//!   stream ([`VerifyError::DanglingJump`]);
//! * `LoopEnter`/`LoopNext` pair up and nest properly within each
//!   kernel ([`VerifyError::UnpairedLoopNext`],
//!   [`VerifyError::UnclosedLoop`]), and each loop's body, fused
//!   epilogue and exit sit where the runtime jumps
//!   ([`VerifyError::BadLoopShape`]);
//! * every `Jump`, `Branch` join and bulk `done` goes forward to an op
//!   of its kernel in the loop it leaves, never a fused epilogue
//!   ([`VerifyError::UnstructuredJump`]), and every row-program jump
//!   forward within its pass (`what: "row jump"`). So `LoopNext` is the
//!   only back-edge, with a trip count fixed at loop entry: every run of
//!   a verified plan is bounded by its loops' extents;
//! * a `FusedEpilogue` sits only right after the `LoopNext` of its
//!   fused loop ([`VerifyError::UnstructuredJump`]), and every kernel's
//!   op range holds its `KernelEnd` ([`VerifyError::MissingKernelEnd`]);
//! * every register slot is written (by a `Let`, a loop header, or the
//!   kernel's batch binding) before any expression reads it
//!   ([`VerifyError::UseBeforeDef`], [`VerifyError::SlotOutOfRange`]);
//! * every plan id an op or loop carries (loop, wave, fused, bulk)
//!   names an entry of its table ([`VerifyError::PlanRefOutOfBounds`]);
//! * every `d_all_batches` wave loop that drives a wave-GEMM loop
//!   contains a `Barrier` separating its iterations
//!   ([`VerifyError::MissingBarrier`]);
//! * every fused wave's row program is row-disjoint and its block form
//!   re-derives — a forged or stale fused wave is rejected before any
//!   run is admitted ([`VerifyError::CertificateMismatch`] with
//!   `what: "fused"`);
//! * every stored address program (a gathered row operand, a node
//!   binding, a row program's load, store or select) is what the
//!   address compiler makes of its source expressions
//!   ([`VerifyError::CertificateMismatch`] with `what: "address"`).
//!
//! The scan is textual (it does not follow jumps): the lowering emits
//! defs lexically before their uses and brackets loops in op order, and
//! since no jump can leave or enter a loop (the rule above), a linear
//! walk checks exactly the shape the runtime executes. It reads
//! the program alone: the ops own every expression they evaluate and
//! each kernel entry declares its slot file.
//! Verification is build-time only — the runtime's dispatch loop is
//! untouched in default builds.

use cortex_core::expr::{BoolExpr, CmpOp, IdxExpr, Ufn, ValExpr};
use cortex_core::ilir::Stmt;

use super::address::Coord;
use super::bulk::{Instr, RowPass, RowProgram};
use super::lowering::CompiledKernel;
use super::program::{Op, Program, StoreOp};

/// A violated ExecPlan invariant, naming the offending op index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VerifyError {
    /// A pc operand (jump target, branch join, loop body/exit, bulk
    /// `done`, kernel entry) points outside the op stream.
    DanglingJump {
        /// The op carrying the target (`usize::MAX` for a kernel entry).
        op: usize,
        /// The out-of-range pc.
        target: usize,
    },
    /// A `LoopEnter`/`LoopNext` names a loop id with no `LoopDef`
    /// (or a plan id — wave, fused, bulk — with no plan entry).
    PlanRefOutOfBounds {
        /// The op carrying the reference.
        op: usize,
        /// What kind of table the reference indexes.
        what: &'static str,
        /// The out-of-range index.
        index: usize,
    },
    /// A `LoopNext` whose loop id does not match the innermost open
    /// `LoopEnter` (unpaired or improperly nested).
    UnpairedLoopNext {
        /// The `LoopNext` op.
        op: usize,
        /// Its loop id.
        loop_id: usize,
    },
    /// A `LoopEnter` still open when its kernel ends.
    UnclosedLoop {
        /// The unclosed `LoopEnter` op.
        op: usize,
        /// Its loop id.
        loop_id: usize,
    },
    /// A register slot outside the kernel's compiled slot file.
    SlotOutOfRange {
        /// The op writing or reading the slot.
        op: usize,
        /// The offending slot.
        slot: usize,
        /// The kernel's slot-file size.
        limit: usize,
    },
    /// An expression reads a slot no earlier op in the kernel wrote.
    UseBeforeDef {
        /// The op evaluating the expression.
        op: usize,
        /// The undefined slot.
        slot: usize,
    },
    /// A `d_all_batches` wave loop drives a wave-GEMM loop but contains
    /// no `Barrier` separating its iterations.
    MissingBarrier {
        /// The wave loop's `LoopEnter` op.
        op: usize,
        /// Its loop id.
        loop_id: usize,
    },
    /// A loop's static shape disagrees with its op placement: the body
    /// must immediately follow the `LoopEnter`, `fused_pc` the
    /// `LoopNext`, a `FusedEpilogue` op must sit there exactly when
    /// the loop is fused, and the exit must be the op after both.
    BadLoopShape {
        /// The loop's `LoopEnter` op.
        op: usize,
        /// Its loop id.
        loop_id: usize,
        /// Which field disagrees.
        what: &'static str,
    },
    /// A `Jump`, `Branch` join or bulk `done` that does not go forward
    /// to an op of its own kernel in the same innermost loop, or that
    /// lands on a fused epilogue (entered only from its `LoopEnter`);
    /// also a `FusedEpilogue` op anywhere but right after the `LoopNext`
    /// of its fused loop (`target == op`: it would exit a loop it has no
    /// record of).
    UnstructuredJump {
        /// The jumping op.
        op: usize,
        /// Its target.
        target: usize,
    },
    /// A kernel's op range holds no `KernelEnd`: its launch would run on
    /// into the next kernel, or off the end of the op stream.
    MissingKernelEnd {
        /// The kernel.
        kernel: usize,
    },
    /// A fused wave is not row-disjoint or not of its recorded block
    /// form, a stored address program disagrees with the one the
    /// address compiler derives from its source, or a row program jumps
    /// backwards or past its pass: the plan was forged or tampered with
    /// after lowering.
    CertificateMismatch {
        /// Which table (`"fused"` waves, `"address"` programs or
        /// `"row jump"` programs).
        what: &'static str,
        /// Index into that table; address programs are numbered by
        /// their wave plan, then fused wave, then bulk pass, row-jump
        /// programs by fused wave, then bulk pass.
        index: usize,
    },
}

impl std::fmt::Display for VerifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VerifyError::DanglingJump { op, target } => {
                write!(f, "op {op}: jump target {target} outside the op stream")
            }
            VerifyError::PlanRefOutOfBounds { op, what, index } => {
                write!(f, "op {op}: {what} id {index} has no table entry")
            }
            VerifyError::UnpairedLoopNext { op, loop_id } => {
                write!(
                    f,
                    "op {op}: LoopNext({loop_id}) does not close the innermost open loop"
                )
            }
            VerifyError::UnclosedLoop { op, loop_id } => {
                write!(
                    f,
                    "op {op}: LoopEnter({loop_id}) never closed in its kernel"
                )
            }
            VerifyError::SlotOutOfRange { op, slot, limit } => {
                write!(
                    f,
                    "op {op}: slot {slot} outside the kernel's {limit}-slot file"
                )
            }
            VerifyError::UseBeforeDef { op, slot } => {
                write!(f, "op {op}: reads slot {slot} before any op defines it")
            }
            VerifyError::MissingBarrier { op, loop_id } => {
                write!(
                    f,
                    "op {op}: wave loop {loop_id} drives a wave GEMM with no barrier in its body"
                )
            }
            VerifyError::BadLoopShape { op, loop_id, what } => {
                write!(f, "op {op}: loop {loop_id} has inconsistent {what}")
            }
            VerifyError::UnstructuredJump { op, target } => {
                write!(f, "op {op}: jump to {target} leaves its loop or goes back")
            }
            VerifyError::MissingKernelEnd { kernel } => {
                write!(f, "kernel {kernel} has no KernelEnd in its op range")
            }
            VerifyError::CertificateMismatch { what, index } => {
                let analysis = match *what {
                    "address" => "address compile",
                    "row jump" => "forward-jump rule",
                    _ => "row-disjointness check",
                };
                write!(
                    f,
                    "{what} certificate {index} does not match the re-derived {analysis}"
                )
            }
        }
    }
}

impl std::error::Error for VerifyError {}

/// Tracks which register slots are defined at the current textual point
/// of one kernel, plus the `Sum` binders of the expression being walked.
struct SlotEnv {
    defined: Vec<bool>,
    /// Binders introduced inside the expression currently being walked.
    bound: Vec<usize>,
    op: usize,
}

impl SlotEnv {
    fn new(limit: usize) -> Self {
        SlotEnv {
            defined: vec![false; limit],
            bound: Vec::new(),
            op: 0,
        }
    }

    fn define(&mut self, slot: usize) -> Result<(), VerifyError> {
        if slot >= self.defined.len() {
            return Err(VerifyError::SlotOutOfRange {
                op: self.op,
                slot,
                limit: self.defined.len(),
            });
        }
        self.defined[slot] = true;
        Ok(())
    }

    fn read(&self, slot: usize) -> Result<(), VerifyError> {
        if slot >= self.defined.len() {
            return Err(VerifyError::SlotOutOfRange {
                op: self.op,
                slot,
                limit: self.defined.len(),
            });
        }
        if !self.defined[slot] && !self.bound.contains(&slot) {
            return Err(VerifyError::UseBeforeDef { op: self.op, slot });
        }
        Ok(())
    }

    fn check_idx(&self, e: &IdxExpr) -> Result<(), VerifyError> {
        match e {
            IdxExpr::Const(_) | IdxExpr::Rt(_) => Ok(()),
            IdxExpr::Var(v) => self.read(v.id() as usize),
            IdxExpr::Ufn(_, args) => args.iter().try_for_each(|a| self.check_idx(a)),
            IdxExpr::Bin(_, a, b) => {
                self.check_idx(a)?;
                self.check_idx(b)
            }
        }
    }

    fn check_bool(&self, e: &BoolExpr) -> Result<(), VerifyError> {
        match e {
            BoolExpr::Cmp(_, a, b) => {
                self.check_idx(a)?;
                self.check_idx(b)
            }
            BoolExpr::IsLeaf(a) => self.check_idx(a),
            BoolExpr::And(a, b) | BoolExpr::Or(a, b) => {
                self.check_bool(a)?;
                self.check_bool(b)
            }
            BoolExpr::Not(a) => self.check_bool(a),
        }
    }

    fn check_val(&mut self, e: &ValExpr) -> Result<(), VerifyError> {
        match e {
            ValExpr::Const(_) => Ok(()),
            ValExpr::Load { index, .. } => index.iter().try_for_each(|i| self.check_idx(i)),
            ValExpr::Unary(_, a) => self.check_val(a),
            ValExpr::Bin(_, a, b) => {
                self.check_val(a)?;
                self.check_val(b)
            }
            ValExpr::Sum { var, extent, body } => {
                self.check_idx(extent)?;
                self.bound.push(var.id() as usize);
                let r = self.check_val(body);
                self.bound.pop();
                r
            }
            ValExpr::Select {
                cond,
                then,
                otherwise,
            } => {
                self.check_bool(cond)?;
                self.check_val(then)?;
                self.check_val(otherwise)
            }
        }
    }
}

/// Verifies every static invariant of a lowered program (module docs).
///
/// # Errors
///
/// The first violated invariant, naming the offending op index.
pub(crate) fn verify(plan: &Program) -> Result<(), VerifyError> {
    let n_ops = plan.ops.len();
    // Textual kernel ranges: entry of kernel k up to the next entry.
    for (ki, kd) in plan.kernels.iter().enumerate() {
        if kd.entry >= n_ops {
            return Err(VerifyError::DanglingJump {
                op: usize::MAX,
                target: kd.entry,
            });
        }
        let end = plan.kernels.get(ki + 1).map(|k| k.entry).unwrap_or(n_ops);
        verify_kernel(plan, ki, kd.entry..end)?;
    }
    verify_fused(plan)?;
    verify_row_jumps(plan)?;
    verify_addresses(plan)
}

/// Recompiles every stored address program from its source
/// expressions and compares: the runtime evaluates the compiled terms
/// and never looks at the source again, so a stale or forged program
/// would address other cells than the kernels say.
fn verify_addresses(plan: &Program) -> Result<(), VerifyError> {
    let node_ok =
        |node_let: &Option<(usize, Coord)>| node_let.as_ref().is_none_or(|(_, c)| c.is_fresh());
    // A fused wave's feature-loop views share its passes: check each once.
    let mut seen: Vec<*const RowPass> = Vec::new();
    let mut rows_ok = |prog: &RowProgram| {
        let passes = prog.passes.as_ptr();
        if seen.contains(&passes) {
            return true;
        }
        seen.push(passes);
        prog.passes
            .iter()
            .flat_map(|p| &p.instrs)
            .all(|ins| match ins {
                Instr::Load { cells, .. } | Instr::Store { cells, .. } => cells.is_fresh(),
                Instr::Select { cond, .. } => cond.is_fresh(),
                Instr::Memo { .. } | Instr::Ops { .. } | Instr::Jump(_) => true,
            })
    };
    let site_ok = |s: &crate::wave::SumSite| {
        s.row.is_fresh() && s.per_node.as_ref().is_none_or(|p| p.x.is_fresh())
    };
    let waves = (plan.waves.iter()).map(|w| node_ok(&w.node_let) && w.sites.iter().all(site_ok));
    let fused = plan.fused.iter().map(|fw| (Some(&fw.node_let), &fw.prog));
    let bulks = plan.bulks.iter().map(|b| (None, &**b));
    let rows = (fused.chain(bulks)).map(|(node, prog)| node.is_none_or(node_ok) && rows_ok(prog));
    first_mismatch("address", waves.chain(rows))
}

/// Re-derives the row-disjointness (only row-disjoint bodies may share
/// tile sweeps) and the block form (only block-form waves fork) of every
/// fused wave.
fn verify_fused(plan: &Program) -> Result<(), VerifyError> {
    let ok = (plan.fused.iter()).map(|fw| fw.rows_disjoint() && fw.block == fw.block_form());
    first_mismatch("fused", ok)
}

/// Checks that every row-program `Select`/`Jump` goes forward and at
/// most to the end of its pass, so each sweep of a pass ends.
fn verify_row_jumps(plan: &Program) -> Result<(), VerifyError> {
    let forward = |pass: &RowPass| {
        (pass.instrs.iter().enumerate()).all(|(i, ins)| match ins {
            Instr::Select { else_at: to, .. } | Instr::Jump(to) => {
                (i + 1..=pass.instrs.len()).contains(to)
            }
            _ => true,
        })
    };
    let progs = (plan.fused.iter().map(|fw| &fw.prog)).chain(plan.bulks.iter().map(|b| &**b));
    first_mismatch("row jump", progs.map(|p| p.passes.iter().all(forward)))
}

/// [`VerifyError::CertificateMismatch`] naming the first entry of the
/// `what` table whose check failed.
fn first_mismatch(
    what: &'static str,
    mut ok: impl Iterator<Item = bool>,
) -> Result<(), VerifyError> {
    match ok.position(|ok| !ok) {
        Some(index) => Err(VerifyError::CertificateMismatch { what, index }),
        None => Ok(()),
    }
}

fn verify_kernel(
    plan: &Program,
    ki: usize,
    range: std::ops::Range<usize>,
) -> Result<(), VerifyError> {
    let n_ops = plan.ops.len();
    // A launch runs up to its first `KernelEnd`, and the scan with it.
    let ops = plan.ops.get(range.clone()).unwrap_or_default();
    if !ops.iter().any(|op| matches!(op, Op::KernelEnd)) {
        return Err(VerifyError::MissingKernelEnd { kernel: ki });
    }
    let mut env = SlotEnv::new(plan.kernels[ki].num_slots);
    // The launch prologue binds the kernel's batch slot before any op.
    if let Some(bv) = plan.kernels[ki].batch_slot {
        env.op = range.start;
        env.define(bv)?;
    }
    // Open `LoopEnter`s, innermost last: (op pc, loop id, saw_gemm,
    // saw_barrier). A wave loop driving a wave-GEMM loop must barrier
    // each iteration.
    let mut open: Vec<(usize, usize, bool, bool)> = Vec::new();
    // Forward jumps not reached yet: (target, jumping op, innermost open
    // loop at that op).
    let mut pending: Vec<(usize, usize, Option<usize>)> = Vec::new();
    // The first failed placement check of a loop's shape.
    let shape = |op, loop_id, ok: [(bool, &'static str); 2]| match ok.iter().find(|c| !c.0) {
        Some(&(_, what)) => Err(VerifyError::BadLoopShape { op, loop_id, what }),
        None => Ok(()),
    };
    let start = range.start;
    for pc in range {
        env.op = pc;
        // The innermost open loop at this op: a `LoopEnter` sits in its
        // parent, a `LoopNext` in its own loop and a `FusedEpilogue`
        // (after its `LoopNext` closed the loop) in the parent.
        let here = open.last().map(|o| o.0);
        let epilogue = matches!(plan.ops[pc], Op::FusedEpilogue);
        let stray = (pending.iter()).find(|p| p.0 == pc && (p.2 != here || epilogue));
        if let Some(&(_, op, _)) = stray {
            return Err(VerifyError::UnstructuredJump { op, target: pc });
        }
        pending.retain(|p| p.0 != pc);
        // A plan id must name an entry of its table, a pc operand an op.
        let plan_ref = |what: &'static str, index: usize, len: usize| {
            let err = VerifyError::PlanRefOutOfBounds {
                op: pc,
                what,
                index,
            };
            (index < len).then_some(()).ok_or(err)
        };
        let jump_to = |target: usize| {
            let err = VerifyError::DanglingJump { op: pc, target };
            (target < n_ops).then_some(()).ok_or(err)
        };
        // A `Jump`, `Branch` join or bulk `done`: checked when the scan
        // reaches its target.
        let mut jump = |target: usize| {
            jump_to(target)?;
            pending.push((target, pc, here));
            let err = VerifyError::UnstructuredJump { op: pc, target };
            (target > pc).then_some(()).ok_or(err)
        };
        match &plan.ops[pc] {
            Op::KernelEnd => break,
            Op::LoopEnter(id) => {
                plan_ref("loop", *id, plan.loops.len())?;
                let d = &plan.loops[*id];
                env.check_idx(&d.extent)?;
                for target in [d.body, d.fused_pc, d.exit] {
                    jump_to(target)?;
                }
                // The body runs from the op after the enter up to the
                // exit.
                let placed = [(d.body == pc + 1, "body pc"), (d.exit > pc, "exit pc")];
                shape(pc, *id, placed)?;
                if let Some(w) = d.wave {
                    plan_ref("wave", w, plan.waves.len())?;
                    open.iter_mut().for_each(|o| o.2 = true);
                }
                if let Some(fu) = d.fused {
                    plan_ref("fused", fu, plan.fused.len())?;
                }
                env.define(d.slot)?;
                open.push((pc, *id, false, false));
            }
            Op::LoopNext(id) => {
                plan_ref("loop", *id, plan.loops.len())?;
                let (enter, saw_gemm, saw_barrier) = match open.pop() {
                    Some((at, open_id, gemm, barrier)) if open_id == *id => (at, gemm, barrier),
                    _ => {
                        return Err(VerifyError::UnpairedLoopNext {
                            op: pc,
                            loop_id: *id,
                        })
                    }
                };
                // The loop's other exits: its fused epilogue right here,
                // then the exit.
                let d = &plan.loops[*id];
                let fused = matches!(plan.ops.get(pc + 1), Some(Op::FusedEpilogue));
                let fused_ok = d.fused_pc == pc + 1 && fused == d.fused.is_some();
                let exit_ok = d.exit == pc + 1 + usize::from(fused);
                shape(enter, *id, [(fused_ok, "fused pc"), (exit_ok, "exit pc")])?;
                if d.is_wave && saw_gemm && !saw_barrier {
                    return Err(VerifyError::MissingBarrier {
                        op: enter,
                        loop_id: *id,
                    });
                }
            }
            // Reached only by falling out of its loop's `LoopNext`,
            // which checked that the loop is fused.
            Op::FusedEpilogue if pc > start && matches!(plan.ops[pc - 1], Op::LoopNext(_)) => {}
            Op::FusedEpilogue => return Err(VerifyError::UnstructuredJump { op: pc, target: pc }),
            Op::Let { slot, value } => {
                env.check_idx(value)?;
                env.define(*slot)?;
            }
            Op::Store(id) => {
                plan_ref("store", *id, plan.stores.len())?;
                let StoreOp { index, value, .. } = &plan.stores[*id];
                index.iter().try_for_each(|i| env.check_idx(i))?;
                env.check_val(value)?;
            }
            Op::Branch { cond, on_false } => {
                env.check_bool(cond)?;
                jump(*on_false)?;
            }
            Op::Jump(target) => jump(*target)?,
            Op::Barrier => open.iter_mut().for_each(|o| o.3 = true),
            Op::BulkPass { id, done } => {
                plan_ref("bulk", *id, plan.bulks.len())?;
                jump(*done)?;
            }
        }
    }
    if let Some(&(at, loop_id, ..)) = open.last() {
        return Err(VerifyError::UnclosedLoop { op: at, loop_id });
    }
    // A target past the kernel's end was never reached.
    pending.first().map_or(Ok(()), |&(target, op, _)| {
        Err(VerifyError::UnstructuredJump { op, target })
    })
}

/// Child-arity bounds the plan was lowered for, scanned from the
/// compiled kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ArityBounds {
    /// One past the highest child slot any kernel reads
    /// (`Ufn::Child(k)`), or 0 if no kernel touches children.
    /// Structures with more children per node would have their extra
    /// children silently ignored, so intake rejects them
    /// ([`super::InvalidInput::ArityExceedsPlan`]).
    pub max: usize,
    /// One past the highest child slot read *unguarded* — outside the
    /// `then` branch of a `Select` whose condition proves the slot
    /// exists (`Const(c) < NumChildren(n)` with `k <= c`). Exact
    /// (unguarded) plans read every slot up to this for any node with
    /// children, so intake rejects internal nodes with fewer
    /// ([`super::InvalidInput::ArityBelowPlan`]); guarded plans
    /// (`required == 0`) substitute zero and accept any arity.
    pub required: usize,
}

/// Scans the compiled kernels for [`ArityBounds`]. `bound` carries the
/// highest child slot the enclosing `Select` guards prove present.
pub(crate) fn plan_arity_bounds(kernels: &[CompiledKernel]) -> ArityBounds {
    /// `Some(c)` when `cond` is the canonical slot guard
    /// `Const(c) < NumChildren(n)`, proving slots `0..=c` exist.
    fn guard_bound(cond: &BoolExpr) -> Option<usize> {
        if let BoolExpr::Cmp(CmpOp::Lt, IdxExpr::Const(c), IdxExpr::Ufn(Ufn::NumChildren, _)) = cond
        {
            usize::try_from(*c).ok()
        } else {
            None
        }
    }
    fn scan_stmt(s: &Stmt, b: &mut ArityBounds, bound: Option<usize>) {
        match s {
            Stmt::For { extent: e, .. } | Stmt::Let { value: e, .. } => scan_idx(e, b, bound),
            Stmt::Store { index, value, .. } => {
                index.iter().for_each(|i| scan_idx(i, b, bound));
                scan_val(value, b, bound);
            }
            Stmt::If { cond, .. } => scan_bool(cond, b, bound),
            Stmt::Barrier => {}
        }
        s.children().for_each(|st| scan_stmt(st, b, bound));
    }
    fn scan_idx(e: &IdxExpr, b: &mut ArityBounds, bound: Option<usize>) {
        match e {
            IdxExpr::Const(_) | IdxExpr::Rt(_) | IdxExpr::Var(_) => {}
            IdxExpr::Ufn(u, args) => {
                if let Ufn::Child(k) = u {
                    let k = *k as usize;
                    b.max = b.max.max(k + 1);
                    if bound.is_none_or(|c| k > c) {
                        b.required = b.required.max(k + 1);
                    }
                }
                args.iter().for_each(|a| scan_idx(a, b, bound));
            }
            IdxExpr::Bin(_, x, y) => {
                scan_idx(x, b, bound);
                scan_idx(y, b, bound);
            }
        }
    }
    fn scan_bool(e: &BoolExpr, b: &mut ArityBounds, bound: Option<usize>) {
        match e {
            BoolExpr::Cmp(_, x, y) => {
                scan_idx(x, b, bound);
                scan_idx(y, b, bound);
            }
            BoolExpr::IsLeaf(x) => scan_idx(x, b, bound),
            BoolExpr::And(x, y) | BoolExpr::Or(x, y) => {
                scan_bool(x, b, bound);
                scan_bool(y, b, bound);
            }
            BoolExpr::Not(x) => scan_bool(x, b, bound),
        }
    }
    fn scan_val(e: &ValExpr, b: &mut ArityBounds, bound: Option<usize>) {
        match e {
            ValExpr::Const(_) => {}
            ValExpr::Load { index, .. } => index.iter().for_each(|i| scan_idx(i, b, bound)),
            ValExpr::Unary(_, a) => scan_val(a, b, bound),
            ValExpr::Bin(_, x, y) => {
                scan_val(x, b, bound);
                scan_val(y, b, bound);
            }
            ValExpr::Sum { extent, body, .. } => {
                scan_idx(extent, b, bound);
                scan_val(body, b, bound);
            }
            ValExpr::Select {
                cond,
                then,
                otherwise,
            } => {
                scan_bool(cond, b, bound);
                // Guards compose conjunctively along the path: keep the
                // strongest proof in scope.
                let inner = match guard_bound(cond) {
                    Some(c) => Some(bound.map_or(c, |prev| prev.max(c))),
                    None => bound,
                };
                scan_val(then, b, inner);
                scan_val(otherwise, b, bound);
            }
        }
    }
    let mut b = ArityBounds {
        max: 0,
        required: 0,
    };
    for k in kernels {
        for s in &k.body {
            scan_stmt(s, &mut b, None);
        }
    }
    b
}
