//! Per-op effect summaries and the symbolic region model.
//!
//! Two abstraction levels, one per consumer:
//!
//! * **Slot effects** ([`OpEffects`], [`op_effects`]) — which register
//!   slots each lowered op reads and writes. This is the input the
//!   gen/kill dataflow transfers are built from
//!   ([`super::liveness`]).
//! * **Symbolic regions** ([`RegionDim`], [`region_of_idx`]) — an
//!   index expression abstracted into the *row* it addresses,
//!   parameterized by loop counters: a constant row, a loop-counter
//!   row (`Slot`), a child-indirection chain off a counter row
//!   (`Child`), or unknown (`Any`). The parallel-safety certifier
//!   ([`super::parsafety`]) reasons about store/load disjointness
//!   entirely in these terms, and the shadow checker
//!   ([`super::shadow`]) dynamically validates the concrete accesses
//!   against what the regions promised.

use std::collections::HashMap;

use cortex_core::expr::{BoolExpr, IdxExpr, Ufn, ValExpr};

use super::super::program::{Op, Program, StoreOp};

/// The slot-level effect summary of one op.
pub(crate) struct OpEffects {
    /// Slots the op reads (free variables of its expressions; `Sum`
    /// binders are bound, not read).
    pub(crate) reads: Vec<u32>,
    /// Slots the op writes.
    pub(crate) writes: Vec<u32>,
    /// `Sum` binder slots the op clobbers *while* evaluating — never
    /// live across ops, but real writes to the register file within
    /// one (the coalescer must keep them from aliasing anything the op
    /// reads or keeps live).
    pub(crate) binders: Vec<u32>,
    /// The op executes an attached plan (wave prepare, bulk pass,
    /// fused epilogue, scalar fallback) whose slot traffic is not
    /// summarized here; treat as reading and writing everything.
    pub(crate) clobbers_all: bool,
}

impl OpEffects {
    fn none() -> OpEffects {
        OpEffects {
            reads: Vec::new(),
            writes: Vec::new(),
            binders: Vec::new(),
            clobbers_all: false,
        }
    }

    fn opaque() -> OpEffects {
        OpEffects {
            clobbers_all: true,
            ..OpEffects::none()
        }
    }
}

/// Summarizes every op of `plan`.
pub(crate) fn op_effects(plan: &Program) -> Vec<OpEffects> {
    plan.ops
        .iter()
        .map(|op| match op {
            Op::LoopEnter(id) => {
                let l = &plan.loops[*id];
                if l.wave.is_some() || l.fused.is_some() {
                    // Wave prepare / fused dispatch evaluates plan
                    // expressions and drives the loop slot per row.
                    return OpEffects::opaque();
                }
                let mut e = OpEffects::none();
                idx_slots(&l.extent, &mut Vec::new(), &mut e.reads);
                push_unique(&mut e.writes, l.slot as u32);
                e
            }
            Op::LoopNext(id) => {
                let slot = plan.loops[*id].slot as u32;
                OpEffects {
                    reads: vec![slot],
                    writes: vec![slot],
                    ..OpEffects::none()
                }
            }
            Op::Let { slot, value } => {
                let mut e = OpEffects::none();
                idx_slots(value, &mut Vec::new(), &mut e.reads);
                push_unique(&mut e.writes, *slot as u32);
                e
            }
            Op::Store(id) => {
                let StoreOp { index, value, .. } = &plan.stores[*id];
                let mut e = OpEffects::none();
                let mut bound = Vec::new();
                for dim in index {
                    idx_slots(dim, &mut bound, &mut e.reads);
                }
                val_slots(value, &mut bound, &mut e.binders, &mut e.reads);
                e
            }
            Op::Branch { cond, .. } => {
                let mut e = OpEffects::none();
                bool_slots(cond, &mut Vec::new(), &mut e.reads);
                e
            }
            Op::FusedEpilogue | Op::BulkPass { .. } => OpEffects::opaque(),
            Op::Jump(_) | Op::Barrier | Op::KernelEnd => OpEffects::none(),
        })
        .collect()
}

fn push_unique(out: &mut Vec<u32>, s: u32) {
    if !out.contains(&s) {
        out.push(s);
    }
}

/// Collects the slots `e` reads, excluding `bound` binders.
pub(crate) fn idx_slots(e: &IdxExpr, bound: &mut Vec<u32>, out: &mut Vec<u32>) {
    match e {
        IdxExpr::Const(_) | IdxExpr::Rt(_) => {}
        IdxExpr::Var(v) => {
            if !bound.contains(&v.id()) {
                push_unique(out, v.id());
            }
        }
        IdxExpr::Ufn(_, args) => args.iter().for_each(|a| idx_slots(a, bound, out)),
        IdxExpr::Bin(_, a, b) => {
            idx_slots(a, bound, out);
            idx_slots(b, bound, out);
        }
    }
}

pub(crate) fn bool_slots(e: &BoolExpr, bound: &mut Vec<u32>, out: &mut Vec<u32>) {
    match e {
        BoolExpr::Cmp(_, a, b) => {
            idx_slots(a, bound, out);
            idx_slots(b, bound, out);
        }
        BoolExpr::IsLeaf(a) => idx_slots(a, bound, out),
        BoolExpr::And(a, b) | BoolExpr::Or(a, b) => {
            bool_slots(a, bound, out);
            bool_slots(b, bound, out);
        }
        BoolExpr::Not(a) => bool_slots(a, bound, out),
    }
}

/// Collects the slots `e` reads and the `Sum` binder slots it clobbers.
pub(crate) fn val_slots(
    e: &ValExpr,
    bound: &mut Vec<u32>,
    binders: &mut Vec<u32>,
    out: &mut Vec<u32>,
) {
    match e {
        ValExpr::Const(_) => {}
        ValExpr::Load { index, .. } => index.iter().for_each(|i| idx_slots(i, bound, out)),
        ValExpr::Unary(_, a) => val_slots(a, bound, binders, out),
        ValExpr::Bin(_, a, b) => {
            val_slots(a, bound, binders, out);
            val_slots(b, bound, binders, out);
        }
        ValExpr::Sum { var, extent, body } => {
            // The extent is evaluated before the binder is driven.
            idx_slots(extent, bound, out);
            push_unique(binders, var.id());
            bound.push(var.id());
            val_slots(body, bound, binders, out);
            bound.pop();
        }
        ValExpr::Select {
            cond,
            then,
            otherwise,
        } => {
            bool_slots(cond, bound, out);
            val_slots(then, bound, binders, out);
            val_slots(otherwise, bound, binders, out);
        }
    }
}

// ---------------------------------------------------------------------
// Symbolic regions
// ---------------------------------------------------------------------

/// One tensor dimension of a symbolic access region: the row an index
/// expression addresses, abstracted over the current loop state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum RegionDim {
    /// A fixed row, shared by every loop iteration.
    Const(i64),
    /// Exactly the value of a register slot (a loop counter or a
    /// let-bound alias of one): distinct iterations address distinct
    /// rows iff the slot is iteration-unique.
    Slot(u32),
    /// A child-indirection chain rooted at a row: `child_k[of]`. When
    /// `of` is an iteration row, this is a *strictly earlier* row in
    /// dependence order (children are computed in earlier waves).
    Child { k: u8, of: Box<RegionDim> },
    /// Anything else — arithmetic over counters, runtime scalars,
    /// multi-argument indirections. Unknown aliasing.
    Any,
}

/// Abstracts an index expression into the region dimension it
/// addresses, resolving let-bound aliases through `env` (var id →
/// region of its bound value).
pub(crate) fn region_of_idx(e: &IdxExpr, env: &HashMap<u32, RegionDim>) -> RegionDim {
    match e {
        IdxExpr::Const(c) => RegionDim::Const(*c),
        IdxExpr::Var(v) => env.get(&v.id()).cloned().unwrap_or(RegionDim::Slot(v.id())),
        IdxExpr::Ufn(Ufn::Child(k), args) if args.len() == 1 => RegionDim::Child {
            k: *k,
            of: Box::new(region_of_idx(&args[0], env)),
        },
        IdxExpr::Rt(_) | IdxExpr::Ufn(..) | IdxExpr::Bin(..) => RegionDim::Any,
    }
}
