//! Property test for the plan runtime's dispatch: lowering to the flat
//! `Program` and executing it by program counter must be completely
//! unobservable. For every Table 2 model, under every Fig. 10 ablation
//! schedule, over random forests, the pc engine (the default) and the
//! AST-walking interp oracle must produce bit-identical outputs AND
//! bit-identical `Profile` counters — both solo and through a depth-16
//! serving batch, where the pc runtime parks and resumes at super-wave
//! flushes while the oracle walks each request alone.

use cortex_backend::exec::{Engine, ExecOptions};
use cortex_backend::params::Params;
use cortex_bench_harness::experiments::fig10::ablation_schedules;
use cortex_bench_harness::registry::ModelId;
use cortex_core::lower::{lower, StructureInfo};
use cortex_core::ra::{RaGraph, RaSchedule};
use cortex_ds::linearizer::Linearizer;
use cortex_rng::Rng;
use cortex_tensor::approx::NonlinearityMode;
use cortex_tensor::Tensor;

const ALL_MODELS: [ModelId; 9] = [
    ModelId::TreeFc,
    ModelId::DagRnn,
    ModelId::TreeGru,
    ModelId::TreeLstm,
    ModelId::MvRnn,
    ModelId::TreeRnn,
    ModelId::SimpleTreeGru,
    ModelId::SeqLstm,
    ModelId::SeqGru,
];

#[test]
fn pc_runtime_matches_oracle_across_models_schedules_and_batching() {
    let mut rng = Rng::new(0x7D15);
    for id in ALL_MODELS {
        let model = id.build(10);
        for (sched, schedule) in ablation_schedules() {
            let ctx = format!("{} [{sched}]", model.name);
            let program = model
                .lower(&schedule)
                .unwrap_or_else(|e| panic!("{ctx}: lower failed: {e}"));
            let mut pc = Engine::new(&program);
            let mut oracle = Engine::with_options(&program, ExecOptions::interpreted());

            // Solo over a random forest.
            let seed = rng.next_u64();
            let structure = id.dataset(rng.range_usize(1, 3), seed);
            let lin = Linearizer::new()
                .linearize(&structure)
                .unwrap_or_else(|e| panic!("{ctx}: linearize failed: {e}"));
            let (out_p, prof_p) = pc.execute(&lin, &model.params, true).unwrap();
            let (out_o, prof_o) = oracle.execute(&lin, &model.params, true).unwrap();
            assert_eq!(prof_p, prof_o, "{ctx} (seed {seed}): pc vs oracle Profile");
            assert_eq!(out_p.len(), out_o.len(), "{ctx}: output set");
            for (tid, t_o) in &out_o {
                assert_eq!(
                    out_p.get(tid),
                    Some(t_o),
                    "{ctx} (seed {seed}): pc tensor {tid:?}"
                );
            }

            // Depth-16 serving batch: a parked pc request is a plain
            // value (pc + loop records) and must resume exactly where an
            // uninterrupted walk would be; the oracle's `execute_many`
            // is one solo walk per request.
            let batch_seed = rng.next_u64();
            let structures: Vec<_> = (0..16)
                .map(|i| id.dataset(1, batch_seed.wrapping_add(i)))
                .collect();
            let lins: Vec<_> = structures
                .iter()
                .map(|s| Linearizer::new().linearize(s).unwrap())
                .collect();
            let refs: Vec<&_> = lins.iter().collect();
            let many_p = pc.execute_many(&refs, &model.params, true).unwrap();
            let many_o = oracle.execute_many(&refs, &model.params, true).unwrap();
            for (r, (out_o, prof_o)) in many_o.iter().enumerate() {
                assert_eq!(&many_p[r].1, prof_o, "{ctx}: request {r} pc Profile");
                for (tid, t_o) in out_o {
                    assert_eq!(
                        many_p[r].0.get(tid),
                        Some(t_o),
                        "{ctx}: request {r} pc tensor {tid:?}"
                    );
                }
            }
        }
    }
}

/// A random recursive cell: `gates` gate statements (a child reduction
/// plus bias through a random unary), then one combining statement that
/// folds the gates and a child-state read through random binaries.
/// Every statement row-serves, so the whole wave body lowers into one
/// flat row program.
fn random_cell(rng: &mut Rng, h: usize) -> (RaGraph, cortex_core::expr::TensorId, Params) {
    use cortex_core::expr::{BinOp, UnaryOp, ValExpr};
    const UNARY: [UnaryOp; 5] = [
        UnaryOp::Tanh,
        UnaryOp::Sigmoid,
        UnaryOp::Relu,
        UnaryOp::Neg,
        UnaryOp::Exp,
    ];
    const BINARY: [BinOp; 6] = [
        BinOp::Add,
        BinOp::Sub,
        BinOp::Mul,
        BinOp::Max,
        BinOp::Min,
        BinOp::Div,
    ];
    let vocab = cortex_ds::datasets::VOCAB_SIZE as usize;
    let mut g = RaGraph::new();
    let mut params = Params::new();
    let emb = g.input("Emb", &[vocab, h]);
    params.set("Emb", Tensor::random(&[vocab, h], 0.5, rng.next_u64()));
    let ph = g.placeholder("ph", &[h]);
    let leaf = g.compute("leaf", &[h], |c| c.read(emb, &[c.node().word(), c.axis(0)]));
    let gates: Vec<_> = (0..rng.range_usize(1, 5))
        .map(|j| {
            let w = g.input(&format!("W{j}"), &[h, h]);
            let b = g.input(&format!("b{j}"), &[h]);
            params.set(
                &format!("W{j}"),
                Tensor::random(&[h, h], 0.4, rng.next_u64()),
            );
            params.set(&format!("b{j}"), Tensor::random(&[h], 0.4, rng.next_u64()));
            let (slot, op) = (rng.range_usize(0, 2) as u8, UNARY[rng.range_usize(0, 5)]);
            g.compute(&format!("gate{j}"), &[h], |c| {
                let i = c.axis(0);
                let node = c.node();
                let mv = c.sum(h, |c, k| {
                    c.read(w, &[i.clone(), k.clone()])
                        .mul(c.read(ph, &[node.clone().child(slot), k]))
                });
                // tanh first, so `Exp` stays finite.
                ValExpr::Unary(op, Box::new(mv.add(c.read(b, &[i])).tanh()))
            })
        })
        .collect();
    let ops: Vec<BinOp> = gates
        .iter()
        .map(|_| BINARY[rng.range_usize(0, 6)])
        .collect();
    let rec = g.compute("rec", &[h], |c| {
        let (node, i) = (c.node(), c.axis(0));
        // Both children are read, so the plan's arity is the trees'.
        let mut acc = c
            .read(ph, &[node.clone().child(0), i.clone()])
            .sub(c.read(ph, &[node.clone().child(1), i.clone()]));
        for (gate, op) in gates.iter().zip(&ops) {
            let mut rhs = c.read(*gate, &[node.clone(), i.clone()]);
            if *op == BinOp::Div {
                rhs = rhs.sigmoid().add(ValExpr::Const(0.5)); // denominators ≥ 0.5
            }
            acc = ValExpr::Bin(*op, Box::new(acc), Box::new(rhs));
        }
        acc.tanh()
    });
    let body = g.if_then_else("body", leaf, rec).expect("same shapes");
    let out = g.recursion(ph, body).expect("recursion");
    g.mark_output(out);
    (g, out.id(), params)
}

/// The flat row program and the per-element scalar walk (`bulk: false`,
/// served from the same wave GEMMs) must give identical outputs AND
/// `Profile`s on random row-servable statement lists, in both
/// nonlinearity modes, at widths with ragged tile tails.
#[test]
fn row_programs_match_the_per_element_walk_on_random_statement_lists() {
    let mut rng = Rng::new(0x7D16);
    for case in 0..24 {
        let h = [3, 8, 17, 64, 70, 131][case % 6];
        let (g, out, params) = random_cell(&mut rng, h);
        let schedule = RaSchedule {
            nonlinearity: [NonlinearityMode::Exact, NonlinearityMode::Rational][case / 6 % 2],
            ..RaSchedule::default()
        };
        let program = lower(&g, &schedule, StructureInfo { max_children: 2 })
            .unwrap_or_else(|e| panic!("case {case}: lower failed: {e}"));
        let tree = cortex_ds::datasets::random_binary_tree(rng.range_usize(2, 12), rng.next_u64());
        let lin = Linearizer::new().linearize(&tree).unwrap();
        let on = ExecOptions::default();
        let mut flat = Engine::with_options(&program, on);
        let (out_f, prof_f) = flat.execute(&lin, &params, true).unwrap();
        assert!(flat.stats().fused_waves > 0, "case {case}: body must fuse");
        let (out_s, prof_s) = Engine::with_options(&program, ExecOptions { bulk: false, ..on })
            .execute(&lin, &params, true)
            .unwrap();
        assert_eq!(out_f[&out], out_s[&out], "case {case} h={h}: outputs");
        assert_eq!(prof_f, prof_s, "case {case} h={h}: Profile");
        // Without wave GEMMs the internal waves cannot fuse and the gates
        // run per element, but the combining statement (no reduction) still
        // row-serves — as a one-statement view of the fused program,
        // its forwarded gate reads now real loads.
        let mut view = Engine::per_element(&program, on);
        let (out_v, prof_v) = view.execute(&lin, &params, true).unwrap();
        let fused = (view.stats().fused_waves, flat.stats().fused_waves);
        assert!(fused.0 < fused.1, "case {case}: only the leaf wave fuses");
        let (out_s, prof_s) = Engine::per_element(&program, ExecOptions { bulk: false, ..on })
            .execute(&lin, &params, true)
            .unwrap();
        assert_eq!(out_v[&out], out_s[&out], "case {case} h={h}: view outputs");
        assert_eq!(prof_v, prof_s, "case {case} h={h}: view Profile");
    }
}
