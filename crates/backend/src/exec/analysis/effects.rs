//! The symbolic region model.
//!
//! An index expression abstracted into the *row* it addresses
//! ([`RegionDim`], [`region_of_idx`]), parameterized by loop counters:
//! a constant row, a loop-counter row (`Slot`), a child-indirection
//! chain off a counter row (`Child`), or unknown (`Any`). The
//! parallel-safety certifier ([`super::parsafety`]) reasons about
//! store/load disjointness entirely in these terms, and the shadow
//! checker ([`super::shadow`]) dynamically validates the concrete
//! accesses against what the regions promised.

use std::collections::HashMap;

use cortex_core::expr::{IdxExpr, Ufn};

/// Collects the slots `e` reads.
pub(crate) fn idx_slots(e: &IdxExpr, out: &mut Vec<u32>) {
    match e {
        IdxExpr::Const(_) | IdxExpr::Rt(_) => {}
        IdxExpr::Var(v) => {
            if !out.contains(&v.id()) {
                out.push(v.id());
            }
        }
        IdxExpr::Ufn(_, args) => args.iter().for_each(|a| idx_slots(a, out)),
        IdxExpr::Bin(_, a, b) => {
            idx_slots(a, out);
            idx_slots(b, out);
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
