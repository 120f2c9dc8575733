//! Expression simplification: constant folding and algebraic identities.
//!
//! The lowering from the RA to the ILIR produces many trivially
//! simplifiable expressions (offsets of zero, multiplications by one,
//! selects with decided conditions). This module normalizes them; the
//! deeper reasoning about uninterpreted functions lives in
//! [`prover`](crate::prover).

use crate::expr::{BinOp, BoolExpr, CmpOp, IdxBinOp, IdxExpr, ValExpr};
use cortex_tensor::approx::NonlinearityMode;

/// Simplifies an index expression.
///
/// Applies constant folding and the usual identities (`x+0`, `x*1`, `x*0`,
/// `x-0`, `min/max` of equal operands, nested constant folding). The
/// result evaluates identically in every environment (checked by property
/// tests).
pub fn simplify_idx(e: &IdxExpr) -> IdxExpr {
    match e {
        IdxExpr::Const(_) | IdxExpr::Var(_) | IdxExpr::Rt(_) => e.clone(),
        IdxExpr::Ufn(f, args) => IdxExpr::Ufn(*f, args.iter().map(simplify_idx).collect()),
        IdxExpr::Bin(op, a, b) => {
            let a = simplify_idx(a);
            let b = simplify_idx(b);
            use IdxBinOp::*;
            match (&a, &b) {
                (IdxExpr::Const(x), IdxExpr::Const(y)) => {
                    let v = match op {
                        Add => x + y,
                        Sub => x - y,
                        Mul => x * y,
                        Div => {
                            if *y == 0 {
                                return IdxExpr::Bin(*op, Box::new(a), Box::new(b));
                            }
                            x.div_euclid(*y)
                        }
                        Rem => {
                            if *y == 0 {
                                return IdxExpr::Bin(*op, Box::new(a), Box::new(b));
                            }
                            x.rem_euclid(*y)
                        }
                        Min => (*x).min(*y),
                        Max => (*x).max(*y),
                    };
                    IdxExpr::Const(v)
                }
                (IdxExpr::Const(0), _) if *op == Add => b,
                (_, IdxExpr::Const(0)) if matches!(op, Add | Sub) => a,
                (IdxExpr::Const(0), _) if *op == Mul => IdxExpr::Const(0),
                (_, IdxExpr::Const(0)) if *op == Mul => IdxExpr::Const(0),
                (IdxExpr::Const(1), _) if *op == Mul => b,
                (_, IdxExpr::Const(1)) if matches!(op, Mul | Div) => a,
                (_, IdxExpr::Const(1)) if *op == Rem => IdxExpr::Const(0),
                _ if a == b && matches!(op, Min | Max) => a,
                _ if a == b && *op == Sub => IdxExpr::Const(0),
                _ => IdxExpr::Bin(*op, Box::new(a), Box::new(b)),
            }
        }
    }
}

/// Simplifies a boolean expression, deciding constant comparisons.
pub fn simplify_bool(e: &BoolExpr) -> BoolExpr {
    match e {
        BoolExpr::Cmp(op, a, b) => {
            let a = simplify_idx(a);
            let b = simplify_idx(b);
            if let (IdxExpr::Const(x), IdxExpr::Const(y)) = (&a, &b) {
                return constant_bool(op.apply(*x, *y));
            }
            if a == b {
                return constant_bool(matches!(op, CmpOp::Eq | CmpOp::Le | CmpOp::Ge));
            }
            BoolExpr::Cmp(*op, a, b)
        }
        BoolExpr::IsLeaf(e) => BoolExpr::IsLeaf(simplify_idx(e)),
        BoolExpr::And(a, b) => {
            let a = simplify_bool(a);
            let b = simplify_bool(b);
            match (is_constant_bool(&a), is_constant_bool(&b)) {
                (Some(false), _) | (_, Some(false)) => constant_bool(false),
                (Some(true), _) => b,
                (_, Some(true)) => a,
                _ => BoolExpr::And(Box::new(a), Box::new(b)),
            }
        }
        BoolExpr::Or(a, b) => {
            let a = simplify_bool(a);
            let b = simplify_bool(b);
            match (is_constant_bool(&a), is_constant_bool(&b)) {
                (Some(true), _) | (_, Some(true)) => constant_bool(true),
                (Some(false), _) => b,
                (_, Some(false)) => a,
                _ => BoolExpr::Or(Box::new(a), Box::new(b)),
            }
        }
        BoolExpr::Not(a) => {
            let a = simplify_bool(a);
            match is_constant_bool(&a) {
                Some(v) => constant_bool(!v),
                None => BoolExpr::Not(Box::new(a)),
            }
        }
    }
}

/// Canonical constant-true/false encodings (`0 == 0` / `0 == 1`).
pub(crate) fn constant_bool(v: bool) -> BoolExpr {
    BoolExpr::Cmp(
        CmpOp::Eq,
        IdxExpr::Const(0),
        IdxExpr::Const(if v { 0 } else { 1 }),
    )
}

/// Recognizes the canonical constant encodings (and any decided constant
/// comparison).
pub(crate) fn is_constant_bool(e: &BoolExpr) -> Option<bool> {
    if let BoolExpr::Cmp(op, IdxExpr::Const(x), IdxExpr::Const(y)) = e {
        return Some(op.apply(*x, *y));
    }
    None
}

/// Simplifies a value expression.
///
/// Folds constants through arithmetic and nonlinearities, removes additive
/// and multiplicative identities, and resolves selects whose condition is
/// decided. The *zero-tensor* detection used by constant propagation in
/// RA lowering (§4.3) is `simplify_val(e) == ValExpr::Const(0.0)`.
pub fn simplify_val(e: &ValExpr) -> ValExpr {
    match e {
        ValExpr::Const(_) | ValExpr::Load { .. } => match e {
            ValExpr::Load { tensor, index } => ValExpr::Load {
                tensor: *tensor,
                index: index.iter().map(simplify_idx).collect(),
            },
            _ => e.clone(),
        },
        ValExpr::Unary(op, a) => {
            let a = simplify_val(a);
            if let ValExpr::Const(c) = a {
                // Folded with the runtime's own definition (in the
                // default `Exact` mode), so a folded constant equals the
                // executed value bit for bit.
                return ValExpr::Const(op.apply(NonlinearityMode::Exact, c));
            }
            ValExpr::Unary(*op, Box::new(a))
        }
        ValExpr::Bin(op, a, b) => {
            let a = simplify_val(a);
            let b = simplify_val(b);
            use BinOp::*;
            match (&a, &b) {
                (ValExpr::Const(x), ValExpr::Const(y)) => ValExpr::Const(op.apply(*x, *y)),
                (ValExpr::Const(c), _) if *c == 0.0 && *op == Add => b,
                (_, ValExpr::Const(c)) if *c == 0.0 && matches!(op, Add | Sub) => a,
                (ValExpr::Const(c), _) if *c == 0.0 && *op == Mul => ValExpr::Const(0.0),
                (_, ValExpr::Const(c)) if *c == 0.0 && *op == Mul => ValExpr::Const(0.0),
                (ValExpr::Const(c), _) if *c == 1.0 && *op == Mul => b,
                (_, ValExpr::Const(c)) if *c == 1.0 && matches!(op, Mul | Div) => a,
                _ => ValExpr::Bin(*op, Box::new(a), Box::new(b)),
            }
        }
        ValExpr::Sum { var, extent, body } => {
            let extent = simplify_idx(extent);
            let body = simplify_val(body);
            // sum of zero is zero regardless of extent.
            if body == ValExpr::Const(0.0) {
                return ValExpr::Const(0.0);
            }
            if let IdxExpr::Const(0) = extent {
                return ValExpr::Const(0.0);
            }
            ValExpr::Sum {
                var: *var,
                extent,
                body: Box::new(body),
            }
        }
        ValExpr::Select {
            cond,
            then,
            otherwise,
        } => {
            let cond = simplify_bool(cond);
            let then = simplify_val(then);
            let otherwise = simplify_val(otherwise);
            match is_constant_bool(&cond) {
                Some(true) => then,
                Some(false) => otherwise,
                None => {
                    if then == otherwise {
                        then
                    } else {
                        ValExpr::Select {
                            cond,
                            then: Box::new(then),
                            otherwise: Box::new(otherwise),
                        }
                    }
                }
            }
        }
    }
}

/// Whether the expression is (provably, by folding) the zero tensor —
/// the special case §4.3 optimizes for recursive base values.
pub fn is_zero(e: &ValExpr) -> bool {
    simplify_val(e) == ValExpr::Const(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{TensorId, Var, VarGen};

    fn n() -> (VarGen, Var) {
        let mut g = VarGen::new();
        let v = g.fresh("n");
        (g, v)
    }

    #[test]
    fn folds_idx_arithmetic() {
        let e = IdxExpr::Const(3)
            .add(IdxExpr::Const(4))
            .mul(IdxExpr::Const(2));
        assert_eq!(simplify_idx(&e), IdxExpr::Const(14));
    }

    #[test]
    fn removes_idx_identities() {
        let (_, v) = n();
        assert_eq!(
            simplify_idx(&IdxExpr::var(v).add(IdxExpr::Const(0))),
            IdxExpr::var(v)
        );
        assert_eq!(
            simplify_idx(&IdxExpr::var(v).mul(IdxExpr::Const(1))),
            IdxExpr::var(v)
        );
        assert_eq!(
            simplify_idx(&IdxExpr::var(v).mul(IdxExpr::Const(0))),
            IdxExpr::Const(0)
        );
        assert_eq!(
            simplify_idx(&IdxExpr::var(v).sub(IdxExpr::var(v))),
            IdxExpr::Const(0)
        );
        assert_eq!(
            simplify_idx(&IdxExpr::var(v).min(IdxExpr::var(v))),
            IdxExpr::var(v)
        );
    }

    #[test]
    fn preserves_division_by_zero() {
        // Must not fold away UB; the expression is kept for runtime diagnosis.
        let e = IdxExpr::Bin(
            IdxBinOp::Div,
            Box::new(IdxExpr::Const(4)),
            Box::new(IdxExpr::Const(0)),
        );
        assert_eq!(simplify_idx(&e), e);
    }

    #[test]
    fn decides_constant_comparisons() {
        let t = BoolExpr::lt(IdxExpr::Const(1), IdxExpr::Const(2));
        assert_eq!(is_constant_bool(&simplify_bool(&t)), Some(true));
        let f = BoolExpr::Cmp(CmpOp::Ge, IdxExpr::Const(1), IdxExpr::Const(2));
        assert_eq!(is_constant_bool(&simplify_bool(&f)), Some(false));
    }

    #[test]
    fn reflexive_comparisons_decided_without_constants() {
        let (_, v) = n();
        let e = BoolExpr::Cmp(CmpOp::Le, IdxExpr::var(v), IdxExpr::var(v));
        assert_eq!(is_constant_bool(&simplify_bool(&e)), Some(true));
        let e = BoolExpr::Cmp(CmpOp::Lt, IdxExpr::var(v), IdxExpr::var(v));
        assert_eq!(is_constant_bool(&simplify_bool(&e)), Some(false));
    }

    #[test]
    fn and_or_short_circuit() {
        let (_, v) = n();
        let leaf = BoolExpr::IsLeaf(IdxExpr::var(v));
        let e = BoolExpr::And(Box::new(constant_bool(true)), Box::new(leaf.clone()));
        assert_eq!(simplify_bool(&e), leaf);
        let e = BoolExpr::Or(Box::new(constant_bool(true)), Box::new(leaf.clone()));
        assert_eq!(is_constant_bool(&simplify_bool(&e)), Some(true));
        let e = BoolExpr::Not(Box::new(constant_bool(false)));
        assert_eq!(is_constant_bool(&simplify_bool(&e)), Some(true));
    }

    #[test]
    fn folds_val_constants_through_nonlinearities() {
        let e = ValExpr::Const(0.0).tanh();
        assert_eq!(simplify_val(&e), ValExpr::Const(0.0));
        let e = ValExpr::Const(0.0).sigmoid();
        assert_eq!(simplify_val(&e), ValExpr::Const(0.5));
    }

    #[test]
    fn val_identities() {
        let x = ValExpr::load(TensorId(0), vec![IdxExpr::Const(0)]);
        assert_eq!(simplify_val(&x.clone().add(ValExpr::Const(0.0))), x);
        assert_eq!(simplify_val(&x.clone().mul(ValExpr::Const(1.0))), x);
        assert_eq!(
            simplify_val(&x.clone().mul(ValExpr::Const(0.0))),
            ValExpr::Const(0.0)
        );
    }

    #[test]
    fn zero_sum_collapses() {
        let (mut g, _) = n();
        let k = g.fresh("k");
        let e = ValExpr::Sum {
            var: k,
            extent: IdxExpr::Const(256),
            body: Box::new(ValExpr::Const(0.5).mul(ValExpr::Const(0.0))),
        };
        assert!(is_zero(&e));
        let e = ValExpr::Sum {
            var: k,
            extent: IdxExpr::Const(0),
            body: Box::new(ValExpr::load(TensorId(0), vec![IdxExpr::var(k)])),
        };
        assert!(is_zero(&e));
    }

    #[test]
    fn select_resolution() {
        let x = ValExpr::load(TensorId(0), vec![IdxExpr::Const(0)]);
        let y = ValExpr::load(TensorId(1), vec![IdxExpr::Const(0)]);
        let e = ValExpr::Select {
            cond: constant_bool(true),
            then: Box::new(x.clone()),
            otherwise: Box::new(y.clone()),
        };
        assert_eq!(simplify_val(&e), x);
        // Equal branches collapse even with an undecided condition.
        let (_, v) = n();
        let e = ValExpr::Select {
            cond: BoolExpr::IsLeaf(IdxExpr::var(v)),
            then: Box::new(x.clone()),
            otherwise: Box::new(x.clone()),
        };
        assert_eq!(simplify_val(&e), x);
    }

    #[test]
    fn zero_detection_matches_section_4_3() {
        // TreeLSTM-style zero initial state: select(isleaf, 0, ...) is not
        // all-zero, but the leaf branch is — exactly what hoisting checks.
        let zero_init = ValExpr::Const(0.0).mul(ValExpr::Const(3.0));
        assert!(is_zero(&zero_init));
        let not_zero = ValExpr::load(TensorId(0), vec![IdxExpr::Const(0)]);
        assert!(!is_zero(&not_zero));
    }
}
