//! Fast-path compilation for reduction expressions.
//!
//! Generated Cortex kernels bottom out in matvec-like reductions
//! (`sum_k W[i,k] * hsum[n,k]`). Interpreting those one AST node at a time
//! would be orders of magnitude slower than the native inner loops TVM
//! would emit, distorting every wall-clock measurement. This module
//! pattern-matches reduction bodies into a [`DotPlan`] — a product of
//! strided tensor streams, optionally guarded or summed (child-sum) — that
//! the executor runs as a tight multiply-accumulate loop, exactly what
//! generated code would do.
//!
//! The match is best-effort: anything outside the recognized shapes sums
//! per `k` through the generic evaluator, and every `Sum` tries this
//! match first. The executor's tests pin that fallback against a hand
//! computation (`rejected_sum_bodies_run_the_per_k_loop_on_every_path`).

use cortex_core::expr::{BinOp, BoolExpr, IdxExpr, TensorId, ValExpr, Var};

/// One multiplicative operand of a reduction.
///
/// `PartialEq` is structural (used by the wave analyzer's gate-stacking
/// signature match); note it compares reduction variables literally, so
/// cross-site comparison must ignore each site's own `k` position — see
/// `wave::operand_sig_equal`.
#[derive(Debug, Clone, PartialEq)]
pub enum Operand {
    /// A tensor load with the reduction variable at one index position
    /// (that position must be *exactly* the reduction variable).
    Load {
        /// Tensor read.
        tensor: TensorId,
        /// All index expressions; position `k_pos` is the reduction var.
        index: Vec<IdxExpr>,
        /// Which index position carries the reduction variable.
        k_pos: usize,
    },
    /// A sum of operands (child-sum aggregation inlined into a matvec).
    Add(Vec<Operand>),
    /// An operand that is zero when the guard fails (variable-arity
    /// children in DAG models).
    Guarded {
        /// The (reduction-invariant) guard.
        cond: BoolExpr,
        /// Value when the guard holds.
        inner: Box<Operand>,
    },
    /// A reduction-invariant scalar factor.
    Scalar(ValExpr),
}

/// A compiled reduction: the product of `operands` summed over the
/// reduction variable.
#[derive(Debug, Clone)]
pub struct DotPlan {
    /// Reduction variable (slot-mapped).
    pub var: Var,
    /// Multiplicative operands.
    pub operands: Vec<Operand>,
}

/// Tries to compile a reduction body into a [`DotPlan`].
///
/// Returns `None` when the body falls outside the recognized patterns; the
/// caller then uses the generic interpreter.
pub fn compile(var: Var, body: &ValExpr) -> Option<DotPlan> {
    let mut operands = Vec::new();
    collect_product(var, body, &mut operands)?;
    // At least one operand must actually involve the reduction variable;
    // otherwise the generic path is just as good.
    if operands.iter().any(involves_k) {
        Some(DotPlan { var, operands })
    } else {
        None
    }
}

fn involves_k(op: &Operand) -> bool {
    match op {
        Operand::Load { .. } => true,
        Operand::Add(parts) => parts.iter().any(involves_k),
        Operand::Guarded { inner, .. } => involves_k(inner),
        Operand::Scalar(_) => false,
    }
}

fn collect_product(var: Var, e: &ValExpr, out: &mut Vec<Operand>) -> Option<()> {
    match e {
        ValExpr::Bin(BinOp::Mul, a, b) => {
            collect_product(var, a, out)?;
            collect_product(var, b, out)
        }
        other => {
            out.push(compile_operand(var, other)?);
            Some(())
        }
    }
}

fn compile_operand(var: Var, e: &ValExpr) -> Option<Operand> {
    if !val_uses_var(e, var) {
        // Reduction-invariant: hoisted out and evaluated once.
        return Some(Operand::Scalar(e.clone()));
    }
    match e {
        ValExpr::Load { tensor, index } => {
            let mut k_pos = None;
            for (d, ix) in index.iter().enumerate() {
                match ix {
                    IdxExpr::Var(v) if *v == var => {
                        if k_pos.is_some() {
                            return None; // k twice: not a plain stream
                        }
                        k_pos = Some(d);
                    }
                    other if idx_uses_var(other, var) => return None,
                    _ => {}
                }
            }
            Some(Operand::Load {
                tensor: *tensor,
                index: index.clone(),
                k_pos: k_pos?,
            })
        }
        ValExpr::Bin(BinOp::Add, a, b) => {
            let a = compile_operand(var, a)?;
            let b = compile_operand(var, b)?;
            let mut parts = Vec::new();
            flatten_add(a, &mut parts);
            flatten_add(b, &mut parts);
            // Stream resolution needs every addend to be a stream; mixed
            // scalar+stream sums fall back to the generic interpreter.
            if parts.iter().any(|p| matches!(p, Operand::Scalar(_))) {
                return None;
            }
            Some(Operand::Add(parts))
        }
        ValExpr::Select {
            cond,
            then,
            otherwise,
        } => {
            if bool_uses_var(cond, var) {
                return None;
            }
            match (&**then, &**otherwise) {
                (_, ValExpr::Const(c)) if *c == 0.0 => Some(Operand::Guarded {
                    cond: cond.clone(),
                    inner: Box::new(compile_operand(var, then)?),
                }),
                (ValExpr::Const(c), _) if *c == 0.0 => Some(Operand::Guarded {
                    cond: BoolExpr::Not(Box::new(cond.clone())),
                    inner: Box::new(compile_operand(var, otherwise)?),
                }),
                _ => None,
            }
        }
        _ => None,
    }
}

fn flatten_add(op: Operand, out: &mut Vec<Operand>) {
    match op {
        Operand::Add(parts) => out.extend(parts),
        other => out.push(other),
    }
}

pub(crate) fn idx_uses_var(e: &IdxExpr, var: Var) -> bool {
    match e {
        IdxExpr::Var(v) => *v == var,
        IdxExpr::Const(_) | IdxExpr::Rt(_) => false,
        IdxExpr::Ufn(_, args) => args.iter().any(|a| idx_uses_var(a, var)),
        IdxExpr::Bin(_, a, b) => idx_uses_var(a, var) || idx_uses_var(b, var),
    }
}

pub(crate) fn bool_uses_var(e: &BoolExpr, var: Var) -> bool {
    match e {
        BoolExpr::Cmp(_, a, b) => idx_uses_var(a, var) || idx_uses_var(b, var),
        BoolExpr::IsLeaf(a) => idx_uses_var(a, var),
        BoolExpr::And(a, b) | BoolExpr::Or(a, b) => bool_uses_var(a, var) || bool_uses_var(b, var),
        BoolExpr::Not(a) => bool_uses_var(a, var),
    }
}

pub(crate) fn val_uses_var(e: &ValExpr, var: Var) -> bool {
    match e {
        ValExpr::Const(_) => false,
        ValExpr::Load { index, .. } => index.iter().any(|i| idx_uses_var(i, var)),
        ValExpr::Unary(_, a) => val_uses_var(a, var),
        ValExpr::Bin(_, a, b) => val_uses_var(a, var) || val_uses_var(b, var),
        ValExpr::Sum { extent, body, .. } => idx_uses_var(extent, var) || val_uses_var(body, var),
        ValExpr::Select {
            cond,
            then,
            otherwise,
        } => bool_uses_var(cond, var) || val_uses_var(then, var) || val_uses_var(otherwise, var),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cortex_core::expr::{CmpOp, Ufn};

    fn v(id: u32) -> Var {
        Var::from_raw(id)
    }

    #[test]
    fn plain_matvec_compiles() {
        let k = v(0);
        let i = v(1);
        let n = v(2);
        // W[i,k] * h[n,k]
        let body = ValExpr::load(TensorId(0), vec![IdxExpr::Var(i), IdxExpr::Var(k)]).mul(
            ValExpr::load(TensorId(1), vec![IdxExpr::Var(n), IdxExpr::Var(k)]),
        );
        let plan = compile(k, &body).expect("matvec should compile");
        assert_eq!(plan.operands.len(), 2);
        assert!(matches!(plan.operands[0], Operand::Load { k_pos: 1, .. }));
    }

    #[test]
    fn child_sum_inlined_compiles() {
        let k = v(0);
        let i = v(1);
        let n = v(2);
        // W[i,k] * (h[left[n],k] + h[right[n],k])
        let left = IdxExpr::Ufn(Ufn::Child(0), vec![IdxExpr::Var(n)]);
        let right = IdxExpr::Ufn(Ufn::Child(1), vec![IdxExpr::Var(n)]);
        let body = ValExpr::load(TensorId(0), vec![IdxExpr::Var(i), IdxExpr::Var(k)]).mul(
            ValExpr::load(TensorId(1), vec![left, IdxExpr::Var(k)])
                .add(ValExpr::load(TensorId(1), vec![right, IdxExpr::Var(k)])),
        );
        let plan = compile(k, &body).expect("child-sum matvec should compile");
        assert!(matches!(&plan.operands[1], Operand::Add(parts) if parts.len() == 2));
    }

    #[test]
    fn guarded_child_compiles() {
        let k = v(0);
        let n = v(2);
        // W[0,k] * select(0 < num_children[n], h[child0[n],k], 0)
        let guard = BoolExpr::Cmp(
            CmpOp::Lt,
            IdxExpr::Const(0),
            IdxExpr::Ufn(Ufn::NumChildren, vec![IdxExpr::Var(n)]),
        );
        let child = IdxExpr::Ufn(Ufn::Child(0), vec![IdxExpr::Var(n)]);
        let body = ValExpr::load(TensorId(0), vec![IdxExpr::Const(0), IdxExpr::Var(k)]).mul(
            ValExpr::Select {
                cond: guard,
                then: Box::new(ValExpr::load(TensorId(1), vec![child, IdxExpr::Var(k)])),
                otherwise: Box::new(ValExpr::Const(0.0)),
            },
        );
        assert!(compile(k, &body).is_some());
    }

    #[test]
    fn nonaffine_k_use_is_rejected() {
        let k = v(0);
        // h[k*2] — strided through an expression, not a plain stream.
        let body = ValExpr::load(TensorId(0), vec![IdxExpr::Var(k).mul(IdxExpr::Const(2))]);
        assert!(compile(k, &body).is_none());
    }

    #[test]
    fn k_free_body_is_rejected() {
        let k = v(0);
        let body = ValExpr::Const(2.0).mul(ValExpr::Const(3.0));
        assert!(compile(k, &body).is_none(), "no stream to accelerate");
    }

    #[test]
    fn tanh_inside_reduction_is_rejected() {
        let k = v(0);
        let body = ValExpr::load(TensorId(0), vec![IdxExpr::Var(k)]).tanh();
        assert!(compile(k, &body).is_none());
    }
}
