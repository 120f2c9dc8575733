//! Semantic analyses over the lowered ExecPlan IR.
//!
//! The [`Program`](super::program) op stream has a *structural*
//! verifier ([`super::verify`]); this module adds the *semantic* layer
//! the executor relies on:
//!
//! * [`effects`] — the symbolic *region* model ([`effects::RegionDim`])
//!   that abstracts index expressions into row descriptors
//!   (constant / loop-counter / child-indirection chains), and the
//!   free-slot walk over index expressions.
//! * [`parsafety`] — the static parallel-safety certifier: region-based
//!   disjointness reasoning that certifies each wave GEMM body and each
//!   fused row pass as [`ParSafety::RowDisjoint`] or
//!   [`ParSafety::Sequential`] with a typed reason. Certificates are
//!   stored in the lowered [`Program`](super::program::Program) and
//!   re-derived by [`super::verify`], so a forged certificate is
//!   rejected before any run is admitted. A wave body fuses, and so
//!   may fork its row sweeps across lanes, only when `RowDisjoint`.
//! * [`shadow`] (`checked` feature only) — the dynamic shadow-access
//!   checker: records the rows each wave actually gathers and the rows
//!   each fused pass actually writes, and panics the moment a runtime
//!   access falls outside what the static summaries promised.

pub(crate) mod effects;
pub(crate) mod parsafety;
#[cfg(feature = "checked")]
pub(crate) mod shadow;

pub use parsafety::{ParSafety, SeqReason};
