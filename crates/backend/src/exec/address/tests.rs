//! The address compiler against the walk it replaces: random index lists
//! over the grammar the models emit, on random linearized trees,
//! sequences and DAGs. A compiled coordinate, condition or access must
//! give the walk's value (`eval_idx`, `eval_bool`, `strided_offset`) and
//! change the `Profile`'s `leaf_check_loads`, `flops` and
//! `branch_checks` by exactly what the walk does. Bounded by counts.

use std::sync::Arc;

use cortex_core::expr::{BoolExpr, CmpOp, IdxBinOp, IdxExpr, RtScalar, TensorId, Ufn, Var};
use cortex_core::lower::{lower, StructureInfo};
use cortex_core::ra::{RaGraph, RaSchedule};
use cortex_ds::datasets;
use cortex_ds::linearizer::{Linearized, Linearizer};
use cortex_rng::Rng;
use cortex_tensor::Tensor;

use super::{Addr, Cond, Coord};
use crate::exec::interp::{Interp, RunState};
use crate::exec::lowering::CompiledKernel;
use crate::exec::{build_plans, ExecOptions};
use crate::params::Params;

const H: usize = 64;
/// Slots `0..NODE_SLOTS` hold node ids, slot `BATCH_SLOT` a batch index.
const NODE_SLOTS: u32 = 4;
const BATCH_SLOT: u32 = 4;

/// A TreeRNN-shaped program: `Emb[VOCAB, H]` and `rec[N, H]`.
fn program() -> (cortex_core::ilir::IlirProgram, Params) {
    let mut g = RaGraph::new();
    let emb = g.input("Emb", &[datasets::VOCAB_SIZE as usize, H]);
    let ph = g.placeholder("ph", &[H]);
    let leaf = g.compute("leaf", &[H], |c| c.read(emb, &[c.node().word(), c.axis(0)]));
    let rec = g.compute("rec", &[H], |c| {
        c.read(ph, &[c.node().child(0), c.axis(0)])
            .add(c.read(ph, &[c.node().child(1), c.axis(0)]))
    });
    let body = g.if_then_else("body", leaf, rec).unwrap();
    let out = g.recursion(ph, body).unwrap();
    g.mark_output(out);
    let program = lower(
        &g,
        &RaSchedule::default(),
        StructureInfo { max_children: 2 },
    )
    .unwrap();
    let mut params = Params::new();
    params.set(
        "Emb",
        Tensor::random(&[datasets::VOCAB_SIZE as usize, H], 0.5, 7),
    );
    (program, params)
}

/// Random values for the slots: node ids and a batch index.
struct Slots {
    nodes: [u32; NODE_SLOTS as usize],
    children: [usize; NODE_SLOTS as usize],
    nodes_total: u32,
}

fn leaf(rng: &mut Rng, s: &Slots) -> IdxExpr {
    let node_slot = rng.below_u32(NODE_SLOTS);
    let node = IdxExpr::Var(Var::from_raw(node_slot));
    match rng.below_u32(6) {
        0 => IdxExpr::Const(rng.range_i64(0, 4)),
        1 => node,
        2 => IdxExpr::Rt(*rng.pick(&[
            RtScalar::NumNodes,
            RtScalar::NumInternal,
            RtScalar::NumLeaves,
            RtScalar::NumInternalBatches,
            RtScalar::LeafBegin,
            RtScalar::MaxBatchLen,
            RtScalar::NumRoots,
        ])),
        // A child read only where the child exists (a NO_CHILD id times
        // another would overflow either evaluator).
        3 if s.children[node_slot as usize] > 0 => {
            let k = rng.below_usize(s.children[node_slot as usize]) as u8;
            IdxExpr::Ufn(Ufn::Child(k), vec![node])
        }
        3 | 4 => {
            let f = *rng.pick(&[Ufn::Word, Ufn::NumChildren, Ufn::NodeAt]);
            // `f(n + 1)` stays a node while `n` is not the last one.
            let arg = if s.nodes[node_slot as usize] + 1 < s.nodes_total && rng.bool() {
                node.add(IdxExpr::Const(1))
            } else {
                node
            };
            IdxExpr::Ufn(f, vec![arg])
        }
        _ => {
            let f = *rng.pick(&[Ufn::BatchBegin, Ufn::BatchLength]);
            IdxExpr::Ufn(f, vec![IdxExpr::Var(Var::from_raw(BATCH_SLOT))])
        }
    }
}

/// An expression of depth ≤ `depth` (≤ 4 leaves below 10⁴: no
/// product overflows).
fn expr(rng: &mut Rng, s: &Slots, depth: u32) -> IdxExpr {
    if depth == 0 || rng.below_u32(3) == 0 {
        return leaf(rng, s);
    }
    use IdxBinOp::*;
    let bin = |op, a, b| IdxExpr::Bin(op, Box::new(a), Box::new(b));
    let (a, b) = (expr(rng, s, depth - 1), expr(rng, s, depth - 1));
    match rng.below_u32(4) {
        0 | 1 => bin(*rng.pick(&[Add, Sub, Mul, Min, Max]), a, b),
        // A coefficient, folded into the terms.
        2 => bin(Mul, IdxExpr::Const(rng.range_i64(-3, 4)), a),
        // The generic fallback: operators and argument shapes with no
        // term of their own.
        _ if rng.bool() => bin(
            *rng.pick(&[Div, Rem]),
            a,
            IdxExpr::Const(rng.range_i64(1, 4)),
        ),
        _ => {
            let inner = IdxExpr::Ufn(Ufn::NodeAt, vec![IdxExpr::Var(Var::from_raw(0))]);
            IdxExpr::Ufn(Ufn::Word, vec![inner])
        }
    }
}

fn counters(interp: &Interp<'_>) -> (u64, u64, u64) {
    let p = &interp.profile;
    (p.flops, p.leaf_check_loads, p.branch_checks)
}

/// Runs `f` and returns its value with the counter deltas it caused.
fn charged<T>(interp: &mut Interp<'_>, f: impl FnOnce(&mut Interp<'_>) -> T) -> (T, [u64; 3]) {
    let before = counters(interp);
    let value = f(interp);
    let after = counters(interp);
    (
        value,
        [after.0 - before.0, after.1 - before.1, after.2 - before.2],
    )
}

fn structure(rng: &mut Rng, case: usize) -> Linearized {
    let seed = rng.next_u64();
    let s = match case % 3 {
        0 => datasets::random_binary_tree(rng.range_usize(2, 30), seed),
        1 => datasets::sequence(rng.range_usize(2, 30), seed),
        _ => datasets::grid_dag(rng.range_usize(2, 5), rng.range_usize(2, 5), seed),
    };
    Linearizer::new().linearize(&s).unwrap()
}

#[test]
fn compiled_addressing_equals_the_walk_on_random_index_lists() {
    let (program, params) = program();
    let compiled: Arc<Vec<CompiledKernel>> = Arc::new(
        program
            .kernels
            .iter()
            .map(CompiledKernel::compile)
            .collect(),
    );
    let (shared, _) = build_plans(&program, compiled, true);
    let mut rng = Rng::new(0xadd7);
    let (mut coords, mut conds, mut addrs, mut in_range) = (0, 0, 0, 0);
    for case in 0..60 {
        let lin = structure(&mut rng, case);
        let mut interp = Interp::new(
            &program,
            &lin,
            &params,
            false,
            ExecOptions::default(),
            shared.clone(),
            &[],
            8,
            RunState::default(),
            false,
        )
        .unwrap();
        let n = lin.num_nodes() as u32;
        let mut slots = Slots {
            nodes: [0; NODE_SLOTS as usize],
            children: [0; NODE_SLOTS as usize],
            nodes_total: n,
        };
        for k in 0..NODE_SLOTS as usize {
            slots.nodes[k] = rng.below_u32(n);
            slots.children[k] = lin.num_children_of(slots.nodes[k]);
            interp.slots[k] = i64::from(slots.nodes[k]);
        }
        interp.slots[BATCH_SLOT as usize] = rng.below_usize(interp.rt.batches.len()) as i64;
        let tensors: Vec<(TensorId, Vec<usize>)> = (interp.bufs.iter().enumerate())
            .filter_map(|(t, b)| Some((TensorId(t as u32), b.as_ref()?.dims.to_vec())))
            .collect();

        for _ in 0..40 {
            let e = expr(&mut rng, &slots, 2);
            let want = charged(&mut interp, |it| it.eval_idx(&e));
            let c = Coord::new(&e);
            assert_eq!(charged(&mut interp, |it| it.coord(&c)), want, "{e}");
            coords += 1;

            let (a, b) = (expr(&mut rng, &slots, 1), expr(&mut rng, &slots, 1));
            let op = *rng.pick(&[
                CmpOp::Eq,
                CmpOp::Ne,
                CmpOp::Lt,
                CmpOp::Le,
                CmpOp::Gt,
                CmpOp::Ge,
            ]);
            let cmp = BoolExpr::Cmp(op, a, b);
            let cond = match rng.below_u32(3) {
                0 => cmp,
                1 => BoolExpr::Not(Box::new(cmp)),
                _ => BoolExpr::And(
                    Box::new(cmp),
                    Box::new(BoolExpr::lt(IdxExpr::Const(0), leaf(&mut rng, &slots))),
                ),
            };
            let want = charged(&mut interp, |it| it.eval_bool(&cond));
            let compiled = Cond::new(&cond);
            assert_eq!(
                charged(&mut interp, |it| it.cond(&compiled)),
                want,
                "{cond}"
            );
            conds += 1;

            let (tensor, dims) = rng.pick(&tensors).clone();
            let hole = *rng.pick(&[None, Some(0), Some(dims.len() - 1)]);
            let index: Vec<IdxExpr> = (0..dims.len())
                .map(|d| match hole {
                    Some(h) if h == d => IdxExpr::Const(i64::MIN),
                    _ => expr(&mut rng, &slots, 1),
                })
                .collect();
            addrs += 1;
            // `strided_offset` asserts its coordinates in bounds.
            let fits = index.iter().zip(&dims).enumerate().all(|(d, (e, &dim))| {
                hole == Some(d) || (0..dim as i64).contains(&interp.idx_value(e, &mut 0))
            });
            if fits {
                in_range += 1;
                let want = charged(&mut interp, |it| it.strided_offset(tensor, &index, hole));
                let a = Addr::new(tensor, index.clone(), hole);
                assert_eq!(
                    charged(&mut interp, |it| it.addr(&a)),
                    want,
                    "{tensor}{index:?}"
                );
            }
        }
    }
    assert_eq!((coords, conds, addrs), (2400, 2400, 2400));
    assert!(
        in_range >= 600,
        "only {in_range} of {addrs} accesses in bounds"
    );
}
