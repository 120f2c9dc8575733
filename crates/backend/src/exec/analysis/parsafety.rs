//! The static parallel-safety certifier.
//!
//! Certifies the two parallel surfaces of a lowered program — wave-loop
//! bodies (the `d_batch` parallel loops the wave batcher targets) and
//! fused whole-wave row passes — as either [`ParSafety::RowDisjoint`]
//! (iterations touch pairwise-disjoint rows of every tensor written, so
//! running them concurrently is race-free) or
//! [`ParSafety::Sequential`] with a typed [`SeqReason`] naming the
//! first obstruction. Certificates are computed once at lowering,
//! stored in the [`Program`], re-derived and compared by
//! [`super::super::verify`] (a forged certificate is a
//! [`VerifyError::CertificateMismatch`](super::super::VerifyError)),
//! and surfaced through `Engine::stats()`. The multicore roadmap item
//! consumes exactly these certificates: a `RowDisjoint` wave may fan
//! its rows across threads, a `Sequential` one must not.
//!
//! Reasoning is in the symbolic region model of [`super::effects`]: a
//! store is row-disjoint when some non-feature index dimension is
//! *exactly* an iteration-unique row slot (the wave counter or an
//! injective alias of it — `BatchBegin(b) + n`, `node_at(n)`, …), and a
//! read of a wave-written tensor is safe when its row is the
//! iteration's own row or a child-indirection chain rooted at it (a
//! strictly earlier wave's row, which this wave never writes).

use std::collections::{HashMap, HashSet};

use cortex_core::expr::{IdxBinOp, IdxExpr, TensorId, Ufn, ValExpr, Var};

use super::super::address::Addr;
use super::super::bulk::{Instr, RowProgram};
use super::super::program::{Op, Program, StoreOp};
use super::effects::{self, region_of_idx, RegionDim};

/// A parallel-safety certificate for one wave body or fused row pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParSafety {
    /// Distinct iterations write pairwise-disjoint rows and read only
    /// their own or strictly-earlier rows: iterations may run
    /// concurrently without synchronization.
    RowDisjoint,
    /// Not certified for parallel execution; `reason` names the first
    /// obstruction found.
    Sequential {
        /// Why the surface failed to certify.
        reason: SeqReason,
    },
}

/// Why a parallel surface failed to certify as row-disjoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeqReason {
    /// A store's index does not depend on the iteration at all: every
    /// iteration writes the same cells.
    WriteRowShared,
    /// A store's iteration-dependent row is not exactly an
    /// iteration-unique slot (arithmetic over the counter, a child
    /// indirection, an opaque function) — two iterations may collide.
    WriteRowAliased,
    /// Two fused statements store the same tensor with different index
    /// patterns.
    StorePatternMismatch,
    /// A read of an iteration-written tensor lands on a row another
    /// iteration may be writing.
    ReadOverlapsWrites,
    /// A read of an iteration-written tensor addresses a fixed row,
    /// which some iteration's write may own.
    FixedRowOfStored,
    /// The body contains an explicit `Barrier`: it stages its own
    /// internal ordering and must not be blindly row-parallelized.
    Barrier,
}

impl SeqReason {
    /// Every reason, in [`Self::index`] order — the layout of the
    /// `par_unsafe_by_reason` counters in `ExecStats`.
    pub const ALL: [SeqReason; 6] = [
        SeqReason::WriteRowShared,
        SeqReason::WriteRowAliased,
        SeqReason::StorePatternMismatch,
        SeqReason::ReadOverlapsWrites,
        SeqReason::FixedRowOfStored,
        SeqReason::Barrier,
    ];

    /// This reason's position in [`Self::ALL`].
    pub fn index(self) -> usize {
        match self {
            SeqReason::WriteRowShared => 0,
            SeqReason::WriteRowAliased => 1,
            SeqReason::StorePatternMismatch => 2,
            SeqReason::ReadOverlapsWrites => 3,
            SeqReason::FixedRowOfStored => 4,
            SeqReason::Barrier => 5,
        }
    }

    /// A stable snake_case name (bench schema, logs).
    pub fn name(self) -> &'static str {
        match self {
            SeqReason::WriteRowShared => "write_row_shared",
            SeqReason::WriteRowAliased => "write_row_aliased",
            SeqReason::StorePatternMismatch => "store_pattern_mismatch",
            SeqReason::ReadOverlapsWrites => "read_overlaps_writes",
            SeqReason::FixedRowOfStored => "fixed_row_of_stored",
            SeqReason::Barrier => "barrier",
        }
    }
}

impl std::fmt::Display for SeqReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::fmt::Display for ParSafety {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParSafety::RowDisjoint => f.write_str("row_disjoint"),
            ParSafety::Sequential { reason } => write!(f, "sequential({reason})"),
        }
    }
}

// ---------------------------------------------------------------------
// Wave bodies
// ---------------------------------------------------------------------

/// Every wave's certificate, by wave id: the body of the loop that
/// runs it, certified by [`certify_wave`] (`None` for a wave id no loop
/// names).
pub(crate) fn wave_certificates(plan: &Program) -> Vec<Option<ParSafety>> {
    let mut certs = vec![None; plan.waves.len()];
    for (id, d) in plan.loops.iter().enumerate() {
        let Some(w) = d.wave.filter(|&w| w < certs.len()) else {
            continue;
        };
        certs[w] = Some(certify_wave(plan, id, plan.waves[w].node_let.is_some()));
    }
    certs
}

/// Certifies the body of the parallel `d_batch` loop `loop_id`: may its
/// iterations (one per node of the wave) run concurrently?
///
/// The body's ops are read in program order, which is the statement
/// order of the loop body. With `node_let` the first op is the
/// top-level `let node = …` binding `plan_wave` consumes. The walk
/// reasons about *every* statement, not just the batchable reductions:
/// each store must ride an iteration-unique row slot in some
/// non-feature dimension, and each read of a wave-written tensor must
/// stay on its own row or a child chain rooted at it.
pub(crate) fn certify_wave(plan: &Program, loop_id: usize, node_let: bool) -> ParSafety {
    let d = &plan.loops[loop_id];
    let n_idx = d.slot as u32;
    let mut cx = WaveCx {
        row_slots: HashSet::from([n_idx]),
        wave_dep: HashSet::from([n_idx]),
        env: HashMap::new(),
    };
    let mut ops = &plan.ops[d.body..d.exit];
    if let (true, [Op::Let { slot, value }, rest @ ..]) = (node_let, ops) {
        if injective_in(value, Var::from_raw(n_idx)) {
            // The node alias enumerates distinct rows per iteration —
            // itself an iteration-unique row slot.
            cx.row_slots.insert(*slot as u32);
        }
        if cx.uses_wave(value) {
            cx.wave_dep.insert(*slot as u32);
        }
        ops = rest;
    }
    let stored: HashSet<TensorId> = ops
        .iter()
        .filter_map(|op| match op {
            Op::Store(id) => Some(plan.stores[*id].tensor),
            _ => None,
        })
        .collect();
    match certify_ops(plan, ops, &mut cx, &stored) {
        Ok(()) => ParSafety::RowDisjoint,
        Err(reason) => ParSafety::Sequential { reason },
    }
}

struct WaveCx {
    /// Slots holding an iteration-unique row (the wave counter and
    /// injective aliases of it).
    row_slots: HashSet<u32>,
    /// Slots whose value varies with the wave iteration at all.
    wave_dep: HashSet<u32>,
    /// Let-bound region aliases (var id → region of the bound value).
    env: HashMap<u32, RegionDim>,
}

impl WaveCx {
    /// Whether evaluating `e` depends on the wave iteration.
    fn uses_wave(&self, e: &IdxExpr) -> bool {
        let mut free = Vec::new();
        effects::idx_slots(e, &mut free);
        free.iter().any(|v| self.wave_dep.contains(v))
    }

    /// Whether `r` is the iteration's own row.
    fn is_own_row(&self, r: &RegionDim) -> bool {
        matches!(r, RegionDim::Slot(s) if self.row_slots.contains(s))
    }

    /// Whether `r` is a strictly-earlier wave's row: a child chain
    /// rooted at the iteration's own row.
    fn is_earlier_row(&self, r: &RegionDim) -> bool {
        match r {
            RegionDim::Child { of, .. } => self.is_own_row(of) || self.is_earlier_row(of),
            _ => false,
        }
    }
}

fn certify_ops(
    plan: &Program,
    ops: &[Op],
    cx: &mut WaveCx,
    stored: &HashSet<TensorId>,
) -> Result<(), SeqReason> {
    for op in ops {
        match op {
            Op::Barrier => return Err(SeqReason::Barrier),
            Op::LoopEnter(id) => {
                // A nested counter is iteration-independent (it restarts
                // per iteration); the kernel compiler gives every variable
                // a slot of its own, so shadowing cannot occur — drop
                // defensively.
                let var = plan.loops[*id].slot as u32;
                cx.wave_dep.remove(&var);
                cx.row_slots.remove(&var);
                cx.env.remove(&var);
            }
            Op::Let { slot, value } => {
                let var = *slot as u32;
                let region = region_of_idx(value, &cx.env);
                if cx.uses_wave(value) {
                    cx.wave_dep.insert(var);
                } else {
                    cx.wave_dep.remove(&var);
                }
                cx.row_slots.remove(&var);
                cx.env.insert(var, region);
            }
            Op::Store(id) => {
                let StoreOp { index, value, .. } = &plan.stores[*id];
                let mut row_dims = 0usize;
                for dim in index {
                    if !cx.uses_wave(dim) {
                        continue;
                    }
                    if !cx.is_own_row(&region_of_idx(dim, &cx.env)) {
                        return Err(SeqReason::WriteRowAliased);
                    }
                    row_dims += 1;
                }
                if row_dims == 0 {
                    return Err(SeqReason::WriteRowShared);
                }
                certify_val_loads(value, cx, stored)?;
            }
            // Both arms of a branch are certified, in program order.
            Op::Branch { .. }
            | Op::Jump(_)
            | Op::LoopNext(_)
            | Op::BulkPass { .. }
            | Op::FusedEpilogue
            | Op::KernelEnd => {}
        }
    }
    Ok(())
}

/// Checks every load under `e` against the wave's store set.
fn certify_val_loads(
    e: &ValExpr,
    cx: &WaveCx,
    stored: &HashSet<TensorId>,
) -> Result<(), SeqReason> {
    match e {
        ValExpr::Const(_) => Ok(()),
        ValExpr::Load { tensor, index } => {
            if !stored.contains(tensor) {
                return Ok(());
            }
            let mut row_dims = 0usize;
            for dim in index {
                if !cx.uses_wave(dim) {
                    continue;
                }
                let r = region_of_idx(dim, &cx.env);
                if !cx.is_own_row(&r) && !cx.is_earlier_row(&r) {
                    return Err(SeqReason::ReadOverlapsWrites);
                }
                row_dims += 1;
            }
            if row_dims == 0 {
                return Err(SeqReason::FixedRowOfStored);
            }
            Ok(())
        }
        ValExpr::Unary(_, a) => certify_val_loads(a, cx, stored),
        ValExpr::Bin(_, a, b) => {
            certify_val_loads(a, cx, stored)?;
            certify_val_loads(b, cx, stored)
        }
        // The extent and condition load no tensors.
        ValExpr::Sum { body, .. } => certify_val_loads(body, cx, stored),
        ValExpr::Select {
            then, otherwise, ..
        } => {
            certify_val_loads(then, cx, stored)?;
            certify_val_loads(otherwise, cx, stored)
        }
    }
}

/// Whether `e` is injective in `n`: distinct values of `n` produce
/// distinct results. Recognizes the counter itself, affine offsets with
/// unit coefficient (`BatchBegin(b) + n`), and the injective node
/// enumerators (`node_at` / `root_at` / `stage_node` applied to an
/// injective position).
fn injective_in(e: &IdxExpr, n: Var) -> bool {
    use crate::fastdot::idx_uses_var;
    match e {
        IdxExpr::Var(v) => *v == n,
        IdxExpr::Bin(IdxBinOp::Add | IdxBinOp::Sub, a, b) => {
            (injective_in(a, n) && !idx_uses_var(b, n))
                || (!idx_uses_var(a, n) && injective_in(b, n))
        }
        IdxExpr::Ufn(Ufn::NodeAt | Ufn::RootAt | Ufn::StageNodeAt, args) => {
            let mut using = args.iter().filter(|a| idx_uses_var(a, n));
            match (using.next(), using.next()) {
                (Some(a), None) => injective_in(a, n),
                _ => false,
            }
        }
        _ => false,
    }
}

// ---------------------------------------------------------------------
// Fused row programs
// ---------------------------------------------------------------------

/// Certifies a fused wave's row program: whether serving the body's
/// statements together, tile by tile within each node's row, is
/// observationally identical to per-node interpretation — and, the same
/// condition, whether the wave's rows may be served concurrently.
///
/// Requirements, each mapped to its [`SeqReason`]:
///
/// * every store targets a node-unique row (some non-feature index
///   position rides the wave variable), so no two nodes write the same
///   cell — else [`SeqReason::WriteRowShared`];
/// * statements storing one tensor share one index pattern — else
///   [`SeqReason::StorePatternMismatch`];
/// * every load of a body-stored tensor either stays within its own
///   node's row (non-feature index positions structurally equal to the
///   store's) or reads a strictly-earlier wave's row through a child
///   indirection rooted at the wave node — else
///   [`SeqReason::ReadOverlapsWrites`].
///
/// [`plan_fused_wave`](super::super::bulk) only builds a [`FusedWave`]
/// when this certifies [`ParSafety::RowDisjoint`], so every fused wave
/// stored in a program carries — and `verify` re-derives — a
/// row-disjoint certificate.
pub(crate) fn certify_fused(prog: &RowProgram, n_idx: Var, node: Option<Var>) -> ParSafety {
    use crate::fastdot::idx_uses_var;
    let instrs = || prog.passes.iter().flat_map(|p| &p.instrs);
    // The first store of every stored tensor (a handful: no map needed).
    let mut stores: Vec<&Addr> = Vec::new();
    for ins in instrs() {
        let Instr::Store { cells, .. } = ins else {
            continue;
        };
        // A store must hit a different row for every node of the wave.
        let node_dep = cells.index.iter().enumerate().any(|(d, e)| {
            Some(d) != cells.hole
                && (idx_uses_var(e, n_idx) || node.is_some_and(|nv| idx_uses_var(e, nv)))
        });
        if !node_dep {
            return ParSafety::Sequential {
                reason: SeqReason::WriteRowShared,
            };
        }
        let Some(first) = stores.iter().find(|s| s.tensor == cells.tensor) else {
            stores.push(cells);
            continue;
        };
        if *first != cells {
            return ParSafety::Sequential {
                reason: SeqReason::StorePatternMismatch,
            };
        }
    }
    let loads_disjoint = instrs().all(|ins| {
        let Instr::Load { cells, .. } = ins else {
            return true; // constants, memo rows and guards load no tensors
        };
        let Some(store) = stores.iter().find(|s| s.tensor == cells.tensor) else {
            return true; // not written by this wave body
        };
        cells.index.len() == store.index.len()
            && cells.index.iter().enumerate().all(|(d, ix)| {
                // Within the stored row's feature dimension, any element
                // is same-row; elsewhere the coordinate must match the
                // store's (same node row) or be an earlier-wave child
                // row.
                Some(d) == store.hole
                    || *ix == store.index[d]
                    || crate::wave::is_wave_child_indirection(ix, n_idx, node)
            })
    });
    if !loads_disjoint {
        return ParSafety::Sequential {
            reason: SeqReason::ReadOverlapsWrites,
        };
    }
    ParSafety::RowDisjoint
}
