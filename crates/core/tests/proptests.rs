//! Randomized soundness tests for the compiler core.
//!
//! * The simplifier must preserve the value of every expression in every
//!   environment (checked with a small reference evaluator).
//! * The prover must be *sound*: whenever it says `Proven`, sampling the
//!   assumed variable ranges may never find a counterexample (and dually
//!   for `Disproven`).
//!
//! Expressions are generated with the workspace's deterministic
//! [`cortex_rng::Rng`] so every failure is reproducible.

use cortex_core::expr::{BinOp, BoolExpr, CmpOp, IdxBinOp, IdxExpr, UnaryOp, ValExpr, Var};
use cortex_core::prover::{ProofContext, Verdict};
use cortex_core::simplify::{simplify_bool, simplify_idx, simplify_val};
use cortex_rng::Rng;
use cortex_tensor::approx::NonlinearityMode;

const VARS: usize = 3;
const CASES: usize = 300;

fn var(i: usize) -> Var {
    Var::from_raw(i as u32)
}

/// Random integer index expressions over a small set of variables.
/// (No uninterpreted functions: their semantics need a structure; they
/// are exercised by the executor tests instead.)
fn arb_idx(rng: &mut Rng, depth: u32) -> IdxExpr {
    if depth == 0 || rng.below_usize(3) == 0 {
        return if rng.bool() {
            IdxExpr::Const(rng.range_i64(-20, 20))
        } else {
            IdxExpr::Var(var(rng.below_usize(VARS)))
        };
    }
    let op = *rng.pick(&[
        IdxBinOp::Add,
        IdxBinOp::Sub,
        IdxBinOp::Mul,
        IdxBinOp::Min,
        IdxBinOp::Max,
    ]);
    IdxExpr::Bin(
        op,
        Box::new(arb_idx(rng, depth - 1)),
        Box::new(arb_idx(rng, depth - 1)),
    )
}

fn arb_bool(rng: &mut Rng, depth: u32) -> BoolExpr {
    if depth == 0 || rng.below_usize(3) == 0 {
        let op = *rng.pick(&[
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ]);
        return BoolExpr::Cmp(op, arb_idx(rng, 2), arb_idx(rng, 2));
    }
    match rng.below_usize(3) {
        0 => BoolExpr::And(
            Box::new(arb_bool(rng, depth - 1)),
            Box::new(arb_bool(rng, depth - 1)),
        ),
        1 => BoolExpr::Or(
            Box::new(arb_bool(rng, depth - 1)),
            Box::new(arb_bool(rng, depth - 1)),
        ),
        _ => BoolExpr::Not(Box::new(arb_bool(rng, depth - 1))),
    }
}

/// Random value expressions (constants and arithmetic over index-driven
/// selects; loads are exercised by the executor).
fn arb_val(rng: &mut Rng, depth: u32) -> ValExpr {
    if depth == 0 || rng.below_usize(3) == 0 {
        return ValExpr::Const(rng.range_f32(-4.0, 4.0));
    }
    match rng.below_usize(3) {
        0 => {
            let op = *rng.pick(&[BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::Max, BinOp::Min]);
            ValExpr::Bin(
                op,
                Box::new(arb_val(rng, depth - 1)),
                Box::new(arb_val(rng, depth - 1)),
            )
        }
        1 => {
            let op = *rng.pick(&[UnaryOp::Neg, UnaryOp::Tanh, UnaryOp::Sigmoid, UnaryOp::Relu]);
            ValExpr::Unary(op, Box::new(arb_val(rng, depth - 1)))
        }
        _ => ValExpr::Select {
            cond: arb_bool(rng, 1),
            then: Box::new(arb_val(rng, depth - 1)),
            otherwise: Box::new(arb_val(rng, depth - 1)),
        },
    }
}

fn arb_env(rng: &mut Rng) -> [i64; VARS] {
    [
        rng.range_i64(-15, 15),
        rng.range_i64(-15, 15),
        rng.range_i64(-15, 15),
    ]
}

// ----------------------------------------------------------------------
// Reference evaluators (no uninterpreted functions / loads / reductions).
// ----------------------------------------------------------------------

fn eval_idx(e: &IdxExpr, env: &[i64; VARS]) -> i64 {
    match e {
        IdxExpr::Const(c) => *c,
        IdxExpr::Var(v) => env[v.id() as usize],
        IdxExpr::Rt(_) | IdxExpr::Ufn(..) => unreachable!("not generated"),
        IdxExpr::Bin(op, a, b) => {
            let (x, y) = (eval_idx(a, env), eval_idx(b, env));
            match op {
                IdxBinOp::Add => x.wrapping_add(y),
                IdxBinOp::Sub => x.wrapping_sub(y),
                IdxBinOp::Mul => x.wrapping_mul(y),
                IdxBinOp::Div => {
                    if y == 0 {
                        0
                    } else {
                        x.div_euclid(y)
                    }
                }
                IdxBinOp::Rem => {
                    if y == 0 {
                        0
                    } else {
                        x.rem_euclid(y)
                    }
                }
                IdxBinOp::Min => x.min(y),
                IdxBinOp::Max => x.max(y),
            }
        }
    }
}

fn eval_bool(e: &BoolExpr, env: &[i64; VARS]) -> bool {
    match e {
        BoolExpr::Cmp(op, a, b) => {
            let (x, y) = (eval_idx(a, env), eval_idx(b, env));
            match op {
                CmpOp::Eq => x == y,
                CmpOp::Ne => x != y,
                CmpOp::Lt => x < y,
                CmpOp::Le => x <= y,
                CmpOp::Gt => x > y,
                CmpOp::Ge => x >= y,
            }
        }
        BoolExpr::IsLeaf(_) => unreachable!("not generated"),
        BoolExpr::And(a, b) => eval_bool(a, env) && eval_bool(b, env),
        BoolExpr::Or(a, b) => eval_bool(a, env) || eval_bool(b, env),
        BoolExpr::Not(a) => !eval_bool(a, env),
    }
}

fn eval_val(e: &ValExpr, env: &[i64; VARS]) -> f32 {
    match e {
        ValExpr::Const(c) => *c,
        ValExpr::Load { .. } | ValExpr::Sum { .. } => unreachable!("not generated"),
        // The operators' shared definition: what the folder and every
        // runtime path evaluate.
        ValExpr::Unary(op, a) => op.apply(NonlinearityMode::Exact, eval_val(a, env)),
        ValExpr::Bin(op, a, b) => op.apply(eval_val(a, env), eval_val(b, env)),
        ValExpr::Select {
            cond,
            then,
            otherwise,
        } => {
            if eval_bool(cond, env) {
                eval_val(then, env)
            } else {
                eval_val(otherwise, env)
            }
        }
    }
}

#[test]
fn simplify_idx_preserves_value() {
    let mut rng = Rng::new(0x31);
    for _ in 0..CASES {
        let e = arb_idx(&mut rng, 4);
        let env = arb_env(&mut rng);
        let s = simplify_idx(&e);
        assert_eq!(eval_idx(&e, &env), eval_idx(&s, &env), "{e} vs {s}");
    }
}

#[test]
fn simplify_bool_preserves_value() {
    let mut rng = Rng::new(0x32);
    for _ in 0..CASES {
        let e = arb_bool(&mut rng, 3);
        let env = arb_env(&mut rng);
        let s = simplify_bool(&e);
        assert_eq!(eval_bool(&e, &env), eval_bool(&s, &env), "{e} vs {s}");
    }
}

#[test]
fn simplify_val_preserves_value() {
    let mut rng = Rng::new(0x33);
    for _ in 0..CASES {
        let e = arb_val(&mut rng, 4);
        let env = arb_env(&mut rng);
        let s = simplify_val(&e);
        let a = eval_val(&e, &env);
        let b = eval_val(&s, &env);
        // Folding uses the same f32 ops, so results match exactly unless
        // both are NaN (possible through Div… which we do generate via
        // sigmoid but never with NaN inputs; keep the guard anyway).
        assert!(
            a == b || (a.is_nan() && b.is_nan()),
            "{e} -> {s}: {a} vs {b}"
        );
    }
}

#[test]
fn prover_is_sound_on_comparisons() {
    let mut rng = Rng::new(0x34);
    for _ in 0..CASES {
        let a = arb_idx(&mut rng, 3);
        let b = arb_idx(&mut rng, 3);
        let lo = rng.range_i64(-8, 0);
        let width = rng.range_i64(1, 12);
        let hi = lo + width;
        let mut ctx = ProofContext::new();
        for i in 0..VARS {
            ctx.assume_var(var(i), lo, hi);
        }
        for op in [
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Eq,
            CmpOp::Ge,
            CmpOp::Gt,
            CmpOp::Ne,
        ] {
            let verdict = ctx.prove_cmp(op, &a, &b);
            if verdict == Verdict::Unknown {
                continue;
            }
            // Sample assignments within the assumed ranges; a sound
            // verdict can never be contradicted.
            for _ in 0..16 {
                let s = rng.below_u64(1_000_000);
                let env = [
                    lo + (s % width as u64) as i64,
                    lo + ((s / 7) % width as u64) as i64,
                    lo + ((s / 49) % width as u64) as i64,
                ];
                let (x, y) = (eval_idx(&a, &env), eval_idx(&b, &env));
                let holds = match op {
                    CmpOp::Eq => x == y,
                    CmpOp::Ne => x != y,
                    CmpOp::Lt => x < y,
                    CmpOp::Le => x <= y,
                    CmpOp::Gt => x > y,
                    CmpOp::Ge => x >= y,
                };
                match verdict {
                    Verdict::Proven => {
                        assert!(holds, "{a} {op:?} {b} proven but fails at {env:?}");
                    }
                    Verdict::Disproven => {
                        assert!(!holds, "{a} {op:?} {b} disproven but holds at {env:?}");
                    }
                    Verdict::Unknown => unreachable!(),
                }
            }
        }
    }
}

#[test]
fn simplification_is_idempotent() {
    let mut rng = Rng::new(0x35);
    for _ in 0..CASES {
        let e = arb_idx(&mut rng, 4);
        let once = simplify_idx(&e);
        let twice = simplify_idx(&once);
        assert_eq!(once, twice);
    }
}
