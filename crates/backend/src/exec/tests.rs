use std::rc::Rc;
use std::sync::Arc;

use cortex_core::expr::TensorId;
use cortex_core::lower::{lower, StructureInfo};
use cortex_core::ra::{RaGraph, RaSchedule};
use cortex_ds::datasets;
use cortex_ds::linearizer::{Linearized, Linearizer};
use cortex_tensor::approx::NonlinearityMode;
use cortex_tensor::Tensor;

use super::interp::Caches;
use super::{execute, lane_groups, Engine, ExecError, ExecOptions};
use crate::params::Params;

/// The Fig. 1 model: rnn(n) = Emb[word] at leaves, tanh(l + r) inside.
fn tree_rnn(h: usize) -> (RaGraph, TensorId) {
    let mut g = RaGraph::new();
    let emb = g.input("Emb", &[datasets::VOCAB_SIZE as usize, h]);
    let ph = g.placeholder("rnn_ph", &[h]);
    let leaf = g.compute("leaf", &[h], |c| c.read(emb, &[c.node().word(), c.axis(0)]));
    let lh = g.compute("lh", &[h], |c| c.read(ph, &[c.node().child(0), c.axis(0)]));
    let rh = g.compute("rh", &[h], |c| c.read(ph, &[c.node().child(1), c.axis(0)]));
    let rec = g.compute("rec", &[h], |c| {
        c.read(lh, &[c.node(), c.axis(0)])
            .add(c.read(rh, &[c.node(), c.axis(0)]))
            .tanh()
    });
    let body = g.if_then_else("body", leaf, rec).unwrap();
    let rnn = g.recursion(ph, body).unwrap();
    g.mark_output(rnn);
    (g, rnn.id())
}

fn reference_tree_rnn(lin: &Linearized, emb: &Tensor, h: usize) -> Vec<Vec<f32>> {
    let mut vals = vec![vec![0.0f32; h]; lin.num_nodes()];
    for &n in lin.post_order() {
        if lin.is_leaf(n) {
            let w = lin.word(n) as usize;
            vals[n as usize] = emb.row(w).to_vec();
        } else {
            let l = lin.child(0, n).unwrap() as usize;
            let r = lin.child(1, n).unwrap() as usize;
            vals[n as usize] = vals[l]
                .iter()
                .zip(&vals[r])
                .map(|(a, b)| cortex_tensor::approx::tanh_exact(a + b))
                .collect();
        }
    }
    vals
}

fn check_against_reference(schedule: &RaSchedule, tree_seed: u64) {
    let h = 8;
    let (g, out) = tree_rnn(h);
    let program = lower(&g, schedule, StructureInfo { max_children: 2 }).unwrap();
    let tree = datasets::random_binary_tree(13, tree_seed);
    let lin = Linearizer::new().linearize(&tree).unwrap();
    let emb = Tensor::random(&[datasets::VOCAB_SIZE as usize, h], 0.5, 42);
    let mut params = Params::new();
    params.set("Emb", emb.clone());
    let (outputs, _) = execute(&program, &lin, &params, true).unwrap();
    let got = &outputs[&out];
    let want = reference_tree_rnn(&lin, &emb, h);
    for n in 0..lin.num_nodes() {
        for i in 0..h {
            let g = got[[n, i]];
            let w = want[n][i];
            assert!(
                (g - w).abs() < 1e-6,
                "mismatch at node {n} elem {i}: {g} vs {w} (schedule {schedule:?})"
            );
        }
    }
}

#[test]
fn default_schedule_matches_reference() {
    check_against_reference(&RaSchedule::default(), 3);
}

#[test]
fn unoptimized_schedule_matches_reference() {
    check_against_reference(&RaSchedule::unoptimized(), 4);
}

#[test]
fn no_specialization_matches_reference() {
    check_against_reference(
        &RaSchedule {
            specialize: false,
            ..RaSchedule::default()
        },
        5,
    );
}

#[test]
fn unbatched_matches_reference() {
    check_against_reference(
        &RaSchedule {
            dynamic_batch: false,
            ..RaSchedule::default()
        },
        6,
    );
}

#[test]
fn peeled_matches_reference() {
    check_against_reference(
        &RaSchedule {
            peel: Some(4),
            ..RaSchedule::default()
        },
        7,
    );
}

#[test]
fn unrolled_matches_reference() {
    check_against_reference(
        &RaSchedule {
            unroll: Some(2),
            ..RaSchedule::default()
        },
        8,
    );
}

#[test]
fn leaf_check_by_load_matches_reference() {
    check_against_reference(
        &RaSchedule {
            specialize: false,
            leaf_check: cortex_core::ra::LeafCheckMode::Load,
            ..RaSchedule::default()
        },
        9,
    );
}

#[test]
fn fusion_reduces_launches() {
    let h = 8;
    let (g, _) = tree_rnn(h);
    let tree = datasets::perfect_binary_tree(5, 0);
    let lin = Linearizer::new().linearize(&tree).unwrap();
    let emb = Tensor::random(&[datasets::VOCAB_SIZE as usize, h], 0.5, 42);
    let mut params = Params::new();
    params.set("Emb", emb);

    let fused = lower(
        &g,
        &RaSchedule::default(),
        StructureInfo { max_children: 2 },
    )
    .unwrap();
    let unfused = lower(
        &g,
        &RaSchedule {
            fusion: cortex_core::ra::FusionMode::None,
            dense_intermediates: false,
            ..RaSchedule::default()
        },
        StructureInfo { max_children: 2 },
    )
    .unwrap();
    let (_, pf) = execute(&fused, &lin, &params, true).unwrap();
    let (_, pu) = execute(&unfused, &lin, &params, true).unwrap();
    assert!(
        pu.launches > 3 * pf.launches,
        "unfused {} vs fused {} launches",
        pu.launches,
        pf.launches
    );
}

#[test]
fn persistence_reduces_param_traffic() {
    let h = 8;
    let (g, _) = tree_rnn(h);
    let program = lower(
        &g,
        &RaSchedule::default(),
        StructureInfo { max_children: 2 },
    )
    .unwrap();
    let tree = datasets::perfect_binary_tree(6, 0);
    let lin = Linearizer::new().linearize(&tree).unwrap();
    let emb = Tensor::random(&[datasets::VOCAB_SIZE as usize, h], 0.5, 42);
    let mut params = Params::new();
    params.set("Emb", emb);
    let (_, with) = execute(&program, &lin, &params, true).unwrap();
    let (_, without) = execute(&program, &lin, &params, false).unwrap();
    assert!(with.param_bytes_read <= without.param_bytes_read);
}

#[test]
fn conservative_barriers_inflate_counts() {
    let h = 4;
    let (g, _) = tree_rnn(h);
    let tree = datasets::perfect_binary_tree(5, 0);
    let lin = Linearizer::new().linearize(&tree).unwrap();
    let emb = Tensor::random(&[datasets::VOCAB_SIZE as usize, h], 0.5, 42);
    let mut params = Params::new();
    params.set("Emb", emb);
    let dflt = lower(
        &g,
        &RaSchedule::default(),
        StructureInfo { max_children: 2 },
    )
    .unwrap();
    let cons = lower(
        &g,
        &RaSchedule {
            barrier: cortex_core::ra::BarrierMode::Conservative,
            ..RaSchedule::default()
        },
        StructureInfo { max_children: 2 },
    )
    .unwrap();
    let (_, pd) = execute(&dflt, &lin, &params, true).unwrap();
    let (_, pc) = execute(&cons, &lin, &params, true).unwrap();
    assert!(
        pc.barriers_global > pd.barriers_global,
        "conservative {} vs dependence-aware {}",
        pc.barriers_global,
        pd.barriers_global
    );
}

#[test]
fn missing_param_is_reported() {
    let (g, _) = tree_rnn(4);
    let program = lower(
        &g,
        &RaSchedule::default(),
        StructureInfo { max_children: 2 },
    )
    .unwrap();
    let tree = datasets::perfect_binary_tree(2, 0);
    let lin = Linearizer::new().linearize(&tree).unwrap();
    let err = execute(&program, &lin, &Params::new(), true).unwrap_err();
    assert_eq!(err, ExecError::MissingParam("Emb".to_string()));
}

#[test]
fn param_shape_is_checked() {
    let (g, _) = tree_rnn(4);
    let program = lower(
        &g,
        &RaSchedule::default(),
        StructureInfo { max_children: 2 },
    )
    .unwrap();
    let tree = datasets::perfect_binary_tree(2, 0);
    let lin = Linearizer::new().linearize(&tree).unwrap();
    let mut params = Params::new();
    params.set("Emb", Tensor::zeros(&[3, 3]));
    assert!(matches!(
        execute(&program, &lin, &params, true),
        Err(ExecError::ParamShape { .. })
    ));
}

#[test]
fn leaf_check_modes_differ_in_loads() {
    let h = 4;
    let (g, _) = tree_rnn(h);
    let tree = datasets::perfect_binary_tree(5, 0);
    let lin = Linearizer::new().linearize(&tree).unwrap();
    let emb = Tensor::random(&[datasets::VOCAB_SIZE as usize, h], 0.5, 42);
    let mut params = Params::new();
    params.set("Emb", emb);
    let numbering = lower(
        &g,
        &RaSchedule {
            specialize: false,
            ..RaSchedule::default()
        },
        StructureInfo { max_children: 2 },
    )
    .unwrap();
    let by_load = lower(
        &g,
        &RaSchedule {
            specialize: false,
            leaf_check: cortex_core::ra::LeafCheckMode::Load,
            ..RaSchedule::default()
        },
        StructureInfo { max_children: 2 },
    )
    .unwrap();
    let (_, pn) = execute(&numbering, &lin, &params, true).unwrap();
    let (_, pl) = execute(&by_load, &lin, &params, true).unwrap();
    assert_eq!(pn.leaf_check_loads, 0, "Appendix-B numbering avoids loads");
    assert!(pl.leaf_check_loads > 0);
}

#[test]
fn every_schedule_lowers_fully_with_no_fallback_ops() {
    // The lowering is total over the statement grammar (its `match`
    // over `Stmt` is exhaustive): whatever schedule shape the RA pass
    // emits, the plan must be non-trivial.
    use cortex_core::ra::{BarrierMode, LeafCheckMode};
    let (g, _) = tree_rnn(6);
    let schedules = [
        RaSchedule::default(),
        RaSchedule::unoptimized(),
        RaSchedule {
            specialize: false,
            leaf_check: LeafCheckMode::Load,
            ..RaSchedule::default()
        },
        RaSchedule {
            unroll: Some(2),
            ..RaSchedule::default()
        },
        RaSchedule {
            peel: Some(4),
            barrier: BarrierMode::Conservative,
            ..RaSchedule::default()
        },
    ];
    for schedule in &schedules {
        let program = lower(&g, schedule, StructureInfo { max_children: 2 }).unwrap();
        let engine = Engine::new(&program);
        let ps = engine.plan_stats();
        assert!(ps.plan_ops > 0, "plan must lower ({schedule:?})");
    }
}

#[test]
fn pc_runtime_matches_interp_oracle_exactly() {
    // The lowered plan runtime and the AST-walking oracle must produce
    // bit-identical outputs and Profiles (the model-scale property test
    // lives in tests/wave_equivalence.rs; this is the fast unit-level
    // gate on the Fig. 1 model across schedules).
    let h = 8;
    let (g, out) = tree_rnn(h);
    let emb = Tensor::random(&[datasets::VOCAB_SIZE as usize, h], 0.5, 42);
    let mut params = Params::new();
    params.set("Emb", emb);
    for (si, schedule) in [
        RaSchedule::default(),
        RaSchedule {
            unroll: Some(2),
            ..RaSchedule::default()
        },
    ]
    .iter()
    .enumerate()
    {
        let tree = datasets::random_binary_tree(17, 11 + si as u64);
        let lin = Linearizer::new().linearize(&tree).unwrap();
        // Both nonlinearity modes (each its own lowering), against the
        // oracle and against per-element serving (`bulk: false`).
        for nonlinearity in [NonlinearityMode::Exact, NonlinearityMode::Rational] {
            let schedule = RaSchedule {
                nonlinearity,
                ..schedule.clone()
            };
            let program = lower(&g, &schedule, StructureInfo { max_children: 2 }).unwrap();
            let on = ExecOptions::default();
            let run = |opts| {
                Engine::with_options(&program, opts)
                    .execute(&lin, &params, true)
                    .unwrap()
            };
            let (out_pc, prof_pc) = run(on);
            let interp = true;
            for other in [
                ExecOptions { interp, ..on },
                ExecOptions { bulk: false, ..on },
            ] {
                let (out_or, prof_or) = run(other);
                let ctx = format!("schedule {si} {nonlinearity:?}");
                assert_eq!(out_pc[&out], out_or[&out], "{ctx}: bit-exact");
                assert_eq!(prof_pc, prof_or, "{ctx}: identical profiles");
            }
        }
    }
}

#[test]
fn model_multiply_adds_round_twice_on_every_path() {
    // rnn(n) = Emb[word] at leaves, lh·rh + c inside. Every leaf holds
    // 1 + 2⁻¹², whose square is an exact tie: a fused multiply-add would
    // keep the tie's half ulp, model arithmetic must not.
    let (h, c) = (8, -1.0f32);
    let tie = f32::from_bits(0x3f80_0800);
    let mut g = RaGraph::new();
    let emb = g.input("Emb", &[datasets::VOCAB_SIZE as usize, h]);
    let ph = g.placeholder("ph", &[h]);
    let leaf = g.compute("leaf", &[h], |x| x.read(emb, &[x.node().word(), x.axis(0)]));
    let lh = g.compute("lh", &[h], |x| x.read(ph, &[x.node().child(0), x.axis(0)]));
    let rh = g.compute("rh", &[h], |x| x.read(ph, &[x.node().child(1), x.axis(0)]));
    let rec = g.compute("rec", &[h], |x| {
        x.read(lh, &[x.node(), x.axis(0)])
            .mul(x.read(rh, &[x.node(), x.axis(0)]))
            .add(cortex_core::expr::ValExpr::Const(c))
    });
    let body = g.if_then_else("body", leaf, rec).unwrap();
    let rnn = g.recursion(ph, body).unwrap();
    g.mark_output(rnn);
    let program = lower(
        &g,
        &RaSchedule::default(),
        StructureInfo { max_children: 2 },
    )
    .unwrap();
    let lin = Linearizer::new()
        .linearize(&datasets::random_binary_tree(13, 5))
        .unwrap();
    let mut params = Params::new();
    params.set(
        "Emb",
        Tensor::full(&[datasets::VOCAB_SIZE as usize, h], tie),
    );

    let mut want = vec![0.0f32; lin.num_nodes()];
    for &n in lin.post_order() {
        want[n as usize] = if lin.is_leaf(n) {
            tie
        } else {
            let (l, r) = (lin.child(0, n).unwrap(), lin.child(1, n).unwrap());
            want[l as usize] * want[r as usize] + c
        };
    }
    assert!(
        want.contains(&(tie * tie + c)) && tie * tie + c != tie.mul_add(tie, c),
        "a node multiplies two leaves, where one rounding and two differ"
    );
    let interp = true;
    for opts in [
        ExecOptions::default(),
        ExecOptions {
            bulk: false,
            ..ExecOptions::default()
        },
        ExecOptions {
            interp,
            ..ExecOptions::default()
        },
    ] {
        let (outputs, _) = Engine::with_options(&program, opts)
            .execute(&lin, &params, true)
            .unwrap();
        for (n, &w) in want.iter().enumerate() {
            for i in 0..h {
                let got = outputs[&rnn.id()][[n, i]];
                assert_eq!(got.to_bits(), w.to_bits(), "{opts:?}: node {n} elem {i}");
            }
        }
    }
}

// -- fault-injection hooks (the serving front's containment substrate) --

/// Silences the default panic report for injected-fault unwinds (they
/// are expected and caught) while leaving genuine panics loud.
fn silence_injected(f: impl FnOnce()) {
    use std::sync::Once;
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info.payload().is::<super::InjectedPanic>()
                || info.payload().is::<super::InjectedFault>();
            if !injected {
                prev(info);
            }
        }));
    });
    f();
}

/// A TreeRNN-shaped graph whose recursion is a real matvec
/// (`tanh(W · (h_l + h_r))`): its reduction waves run as wave GEMMs, so
/// the super-wave flush — and its `Gemm` fault site — engages under
/// `execute_many`.
fn matvec_tree(h: usize) -> (RaGraph, TensorId) {
    matvec_twin(h, &[h, h], |i, k| vec![i, k])
}

/// [`matvec_tree`] with its weight `W` of `shape`, read at `at(i, k)`.
fn matvec_twin(
    h: usize,
    shape: &[usize],
    at: impl Fn(IdxExpr, IdxExpr) -> Vec<IdxExpr>,
) -> (RaGraph, TensorId) {
    let mut g = RaGraph::new();
    let w = g.input("W", shape);
    let emb = g.input("Emb", &[datasets::VOCAB_SIZE as usize, h]);
    let ph = g.placeholder("mv_ph", &[h]);
    let leaf = g.compute("leaf", &[h], |c| c.read(emb, &[c.node().word(), c.axis(0)]));
    let rec = g.compute("rec", &[h], |c| {
        let i = c.axis(0);
        c.sum(h, |c, k| {
            c.read(w, &at(i.clone(), k.clone())).mul(
                c.read(ph, &[c.node().child(0), k.clone()])
                    .add(c.read(ph, &[c.node().child(1), k.clone()])),
            )
        })
        .tanh()
    });
    let body = g.if_then_else("body", leaf, rec).unwrap();
    let mv = g.recursion(ph, body).unwrap();
    g.mark_output(mv);
    (g, mv.id())
}

/// A weight the engine does not pack runs per element: [`matvec_tree`]'s
/// twin reads `W[1, i, k]` of a 3-D `Param`. The analysis plans the wave
/// site, but its group is not `static_window`, so the site falls back
/// every wave — counted in `fallback_sites` each wave, nothing packed,
/// no wave GEMM — and outputs and `Profile` equal the oracle's and
/// per-element serving's, solo and batched, on one lane and on two.
#[test]
fn an_unpackable_weight_runs_per_element_every_wave() {
    use cortex_tensor::par;
    let h = 8;
    let (g, _) = matvec_twin(h, &[2, h, h], |i, k| vec![IdxExpr::Const(1), i, k]);
    let program = lower(
        &g,
        &RaSchedule::default(),
        StructureInfo { max_children: 2 },
    )
    .unwrap();
    let mut params = Params::new();
    params.set("W", Tensor::random(&[2, h, h], 0.5, 41));
    params.set(
        "Emb",
        Tensor::random(&[datasets::VOCAB_SIZE as usize, h], 0.5, 42),
    );
    let lins: Vec<Linearized> = (0..4u64)
        .map(|s| {
            let tree = datasets::random_binary_tree(5 + 4 * s as usize, s);
            Linearizer::new().linearize(&tree).unwrap()
        })
        .collect();
    let refs: Vec<&Linearized> = lins.iter().collect();
    let waves = |lin: &Linearized| lin.internal_batches().len() as u64;
    let mut oracle = Engine::with_options(&program, ExecOptions::interpreted());
    let want: Vec<_> = (lins.iter())
        .map(|lin| oracle.execute(lin, &params, true).unwrap())
        .collect();
    let per_element = ExecOptions {
        bulk: false,
        ..ExecOptions::default()
    };
    for lanes in [1, 2] {
        par::with_lanes(lanes, || {
            for mut engine in [
                Engine::new(&program),
                Engine::with_options(&program, per_element),
            ] {
                assert_eq!(engine.num_wave_plans(), 1, "the site is planned");
                for (lin, want) in lins.iter().zip(&want) {
                    assert!(engine.execute(lin, &params, true).unwrap() == *want);
                    let stats = engine.stats();
                    assert_eq!(stats.fallback_sites, waves(lin), "{lanes} lanes");
                    let work = (stats.weight_packs, stats.wave_gemms, stats.sites_batched);
                    assert_eq!(work, (0, 0, 0), "{lanes} lanes");
                }
                assert!(engine.execute_many(&refs, &params, true).unwrap() == want);
                let stats = engine.stats();
                let all: u64 = lins.iter().map(waves).sum();
                assert_eq!(stats.fallback_sites, all, "{lanes} lanes");
                assert_eq!((stats.weight_packs, stats.wave_gemms), (0, 0));
            }
        });
    }
}

/// Shared fixture for the hook tests: program, a linearized tree, and
/// bound params.
fn fault_fixture() -> (cortex_core::ilir::IlirProgram, Linearized, Params, TensorId) {
    let h = 8;
    let (g, out) = tree_rnn(h);
    let program = lower(
        &g,
        &RaSchedule::default(),
        StructureInfo { max_children: 2 },
    )
    .unwrap();
    let tree = datasets::random_binary_tree(9, 5);
    let lin = Linearizer::new().linearize(&tree).unwrap();
    let mut params = Params::new();
    params.set(
        "Emb",
        Tensor::random(&[datasets::VOCAB_SIZE as usize, h], 0.5, 42),
    );
    (program, lin, params, out)
}

#[test]
fn injected_err_surfaces_typed_and_the_engine_recovers() {
    let (program, lin, params, out) = fault_fixture();
    let (want, want_prof) = execute(&program, &lin, &params, true).unwrap();

    let mut engine = Engine::new(&program);
    let hook: super::FaultHook = Rc::new(std::cell::RefCell::new(|site: super::FaultSite| {
        matches!(site, super::FaultSite::Launch { .. }).then_some(super::FaultAction::Err)
    }));
    engine.set_fault_hook(Some(hook));
    // The injected fault comes back as a *typed* error, not a panic.
    match engine.execute(&lin, &params, true) {
        Err(ExecError::Injected(msg)) => assert!(msg.contains("launch"), "site in message: {msg}"),
        other => panic!("expected an injected fault, got {other:?}"),
    }
    // Healing the hook heals the engine: the fault reset its caches, so
    // the next run matches an untouched engine bit-for-bit.
    engine.set_fault_hook(None);
    let (got, got_prof) = engine.execute(&lin, &params, true).unwrap();
    assert_eq!(got_prof, want_prof);
    assert_eq!(got[&out], want[&out]);
}

#[test]
fn injected_panic_unwinds_to_the_caller_and_the_engine_survives() {
    silence_injected(|| {
        let h = 8;
        let (g, out) = matvec_tree(h);
        let program = lower(
            &g,
            &RaSchedule::default(),
            StructureInfo { max_children: 2 },
        )
        .unwrap();
        let lin = Linearizer::new()
            .linearize(&datasets::random_binary_tree(9, 5))
            .unwrap();
        let mut params = Params::new();
        params.set("W", Tensor::random(&[h, h], 0.5, 7));
        params.set(
            "Emb",
            Tensor::random(&[datasets::VOCAB_SIZE as usize, h], 0.5, 42),
        );
        let (want, _) = execute(&program, &lin, &params, true).unwrap();

        let mut engine = Engine::new(&program);
        let hook: super::FaultHook = Rc::new(std::cell::RefCell::new(|site: super::FaultSite| {
            matches!(site, super::FaultSite::Gemm { .. }).then_some(super::FaultAction::Panic)
        }));
        engine.set_fault_hook(Some(hook));
        // Gemm sites live in the super-wave flush, so the panic fires
        // mid-`execute_many` — with another request's caches swapped in,
        // the worst place to unwind from. Injected *panics* are
        // deliberately not converted: they unwind to the caller (the
        // serving layer's containment boundary) with the typed payload
        // intact.
        let lin2 = Linearizer::new()
            .linearize(&datasets::random_binary_tree(7, 6))
            .unwrap();
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            engine.execute_many(&[&lin, &lin2], &params, true)
        }));
        let payload = unwound.expect_err("the injected panic must unwind");
        let site = payload
            .downcast::<super::InjectedPanic>()
            .expect("typed panic payload");
        assert!(matches!(site.0, super::FaultSite::Gemm { rows } if rows > 0));
        // The engine guard reset its caches on the way out: with the
        // hook gone, the same engine serves the request correctly.
        engine.set_fault_hook(None);
        let (got, _) = engine.execute(&lin, &params, true).unwrap();
        assert_eq!(got[&out], want[&out]);
    });
}

#[test]
fn hookless_engines_pay_no_guard() {
    // The panic-containment wrapper only engages when a hook is
    // installed: a plain engine reports `None` for its hook and runs
    // the direct path (same results, no catch_unwind frame).
    let (program, lin, params, out) = fault_fixture();
    let mut engine = Engine::new(&program);
    assert!(engine.fault_hook().is_none());
    let (got, _) = engine.execute(&lin, &params, true).unwrap();
    let (want, _) = execute(&program, &lin, &params, true).unwrap();
    assert_eq!(got[&out], want[&out]);
}

// -- pipeline hardening: verifier, intake validation, budgets --

use super::lowering::{CompiledKernel, StmtPlans};
use super::program::{Op, Program};
use super::verify::{verify, VerifyError};
use super::InvalidInput;

/// Lowers the Fig. 1 model into a plain (mutable) plan so tests can
/// corrupt individual ops.
fn owned_plan() -> Program {
    let (g, _) = tree_rnn(4);
    let ilir = lower(
        &g,
        &RaSchedule::default(),
        StructureInfo { max_children: 2 },
    )
    .unwrap();
    let compiled: Vec<CompiledKernel> = ilir.kernels.iter().map(CompiledKernel::compile).collect();
    super::lowering::lower(&compiled, Vec::new(), &StmtPlans::default())
}

#[test]
fn verify_accepts_every_lowered_schedule_and_rebuild() {
    use cortex_core::ra::{BarrierMode, LeafCheckMode};
    let (g, _) = tree_rnn(6);
    let schedules = [
        RaSchedule::default(),
        RaSchedule::unoptimized(),
        RaSchedule {
            specialize: false,
            leaf_check: LeafCheckMode::Load,
            ..RaSchedule::default()
        },
        RaSchedule {
            unroll: Some(2),
            ..RaSchedule::default()
        },
        RaSchedule {
            peel: Some(4),
            barrier: BarrierMode::Conservative,
            ..RaSchedule::default()
        },
    ];
    for schedule in &schedules {
        let program = lower(&g, schedule, StructureInfo { max_children: 2 }).unwrap();
        let engine = Engine::new(&program);
        assert_eq!(engine.verified(), Ok(()), "fresh build ({schedule:?})");
        assert_eq!(engine.plan_arity(), 2, "tree model reads children 0..2");
        // The per-element lowering verifies too, and a rebuilt engine
        // keeps its plan's verdict.
        let per_element = Engine::per_element(&program, ExecOptions::default());
        assert_eq!(per_element.verified(), Ok(()), "per-element ({schedule:?})");
        assert_eq!(
            engine.rebuilt().verified(),
            Ok(()),
            "rebuilt ({schedule:?})"
        );
        assert_eq!(
            per_element.rebuilt().num_wave_plans(),
            0,
            "rebuilt keeps the lowering"
        );
    }
}

#[test]
fn verify_rejects_dangling_jump() {
    let mut plan = owned_plan();
    let bad = plan.ops.len() + 100;
    // Point the first loop's exit outside the op stream; its LoopEnter
    // op must report the dangling target.
    let at = plan
        .ops
        .iter()
        .position(|op| matches!(op, Op::LoopEnter(_)))
        .expect("a loop lowers somewhere");
    let Op::LoopEnter(id) = plan.ops[at] else {
        unreachable!()
    };
    plan.loops[id].exit = bad;
    assert_eq!(
        verify(&plan),
        Err(VerifyError::DanglingJump {
            op: at,
            target: bad
        })
    );
}

/// The first `Store` of the Fig. 1 plan and the `LoopNext` closing
/// its innermost loop.
fn first_store_and_its_loop_next(plan: &Program) -> (usize, usize) {
    let at = (plan.ops.iter())
        .position(|op| matches!(op, Op::Store(_)))
        .expect("the lowering emits stores");
    let mut depth = 0usize;
    for (pc, op) in plan.ops.iter().enumerate().skip(at) {
        match op {
            Op::LoopEnter(_) => depth += 1,
            Op::LoopNext(_) if depth == 0 => return (at, pc),
            Op::LoopNext(_) => depth -= 1,
            _ => {}
        }
    }
    panic!("the store at {at} sits in no loop")
}

/// A jump that is not forward, or that leaves its loop, is refused:
/// with `LoopNext` the only back-edge, every verified run ends.
#[test]
fn verify_rejects_unstructured_jumps() {
    use cortex_core::expr::{BoolExpr, CmpOp};
    let (at, next) = first_store_and_its_loop_next(&owned_plan());
    let taken = || BoolExpr::Cmp(CmpOp::Lt, IdxExpr::Const(0), IdxExpr::Const(1));
    let forgeries = [
        // A self-loop.
        (Op::Jump(at), at),
        // Out of the loop body, past its `LoopNext`.
        (Op::Jump(next + 1), next + 1),
        // A branch joining at itself or earlier.
        (
            Op::Branch {
                cond: taken(),
                on_false: at,
            },
            at,
        ),
        (
            Op::Branch {
                cond: taken(),
                on_false: at - 1,
            },
            at - 1,
        ),
    ];
    for (op, target) in forgeries {
        let mut plan = owned_plan();
        plan.ops[at] = op;
        assert_eq!(
            verify(&plan),
            Err(VerifyError::UnstructuredJump { op: at, target })
        );
    }
}

/// A bulk pass must skip the whole loop it guards: a `done` inside the
/// loop would enter its body with no loop record.
#[test]
fn verify_rejects_bulk_done_inside_its_loop() {
    let (g, _) = tree_rnn(6);
    let mut shared = forgeable_plans(&g);
    let plan = Arc::get_mut(&mut shared.plan).expect("sole owner");
    let at = (plan.ops.iter())
        .position(|op| matches!(op, Op::BulkPass { .. }))
        .expect("a feature loop bulk-serves");
    assert!(matches!(plan.ops[at + 1], Op::LoopEnter(_)));
    let Op::BulkPass { done, .. } = &mut plan.ops[at] else {
        unreachable!()
    };
    *done = at + 2;
    assert_eq!(
        verify(&shared.plan),
        Err(VerifyError::UnstructuredJump {
            op: at,
            target: at + 2
        })
    );
}

/// A fused loop's epilogue sits right after its `LoopNext`: pointing
/// `fused_pc` back at the `LoopEnter` would re-enter the loop forever.
#[test]
fn verify_rejects_fused_pc_before_its_loop_next() {
    let (g, _) = tree_rnn(6);
    let mut shared = forgeable_plans(&g);
    let plan = Arc::get_mut(&mut shared.plan).expect("sole owner");
    let (at, id) = (plan.ops.iter().enumerate())
        .find_map(|(pc, op)| match op {
            Op::LoopEnter(id) if plan.loops[*id].fused.is_some() => Some((pc, *id)),
            _ => None,
        })
        .expect("a node loop fuses");
    plan.loops[id].fused_pc = at;
    assert_eq!(
        verify(&shared.plan),
        Err(VerifyError::BadLoopShape {
            op: at,
            loop_id: id,
            what: "fused pc"
        })
    );
}

/// A fused epilogue runs only as its fused loop's exit: one anywhere
/// else would pop a loop record it does not own.
#[test]
fn verify_rejects_stray_fused_epilogue() {
    let mut plan = owned_plan();
    let at = (plan.ops.iter())
        .position(|op| matches!(op, Op::Store(_)))
        .expect("the lowering emits stores");
    plan.ops[at] = Op::FusedEpilogue;
    assert_eq!(
        verify(&plan),
        Err(VerifyError::UnstructuredJump { op: at, target: at })
    );
}

/// A launch runs to its `KernelEnd`: without one the first kernel
/// would run on into the second, and the last off the op stream.
#[test]
fn verify_rejects_kernel_without_its_end() {
    let ends = |plan: &Program| -> Vec<usize> {
        (plan.ops.iter().enumerate())
            .filter_map(|(pc, op)| matches!(op, Op::KernelEnd).then_some(pc))
            .collect()
    };
    let mut plan = owned_plan();
    let kernels = plan.kernels.len();
    assert!(kernels >= 2, "the Fig. 1 plan launches several kernels");
    let first = ends(&plan)[0];
    plan.ops[first] = Op::Barrier;
    assert_eq!(
        verify(&plan),
        Err(VerifyError::MissingKernelEnd { kernel: 0 })
    );
    let mut plan = owned_plan();
    let last = *ends(&plan).last().expect("kernels end");
    assert_eq!(last, plan.ops.len() - 1, "the last kernel ends the stream");
    plan.ops.pop();
    assert_eq!(
        verify(&plan),
        Err(VerifyError::MissingKernelEnd {
            kernel: kernels - 1
        })
    );
}

/// The certifier reads a wave body as the ops from its enter to its
/// exit: an exit at or before the enter is refused, not sliced.
#[test]
fn verify_rejects_loop_exit_before_its_body() {
    let mut plan = owned_plan();
    let at = plan
        .ops
        .iter()
        .position(|op| matches!(op, Op::LoopEnter(_)))
        .expect("a loop lowers somewhere");
    let Op::LoopEnter(id) = plan.ops[at] else {
        unreachable!()
    };
    plan.loops[id].exit = at;
    assert_eq!(
        verify(&plan),
        Err(VerifyError::BadLoopShape {
            op: at,
            loop_id: id,
            what: "exit pc"
        })
    );
}

#[test]
fn verify_rejects_unpaired_loop_next() {
    let mut plan = owned_plan();
    assert!(plan.loops.len() >= 2, "nested loops expected");
    let at = plan
        .ops
        .iter()
        .position(|op| matches!(op, Op::LoopNext(_)))
        .expect("a loop closes somewhere");
    let Op::LoopNext(id) = plan.ops[at] else {
        unreachable!()
    };
    let wrong = (id + 1) % plan.loops.len();
    plan.ops[at] = Op::LoopNext(wrong);
    assert_eq!(
        verify(&plan),
        Err(VerifyError::UnpairedLoopNext {
            op: at,
            loop_id: wrong
        })
    );
}

#[test]
fn verify_rejects_unclosed_loop() {
    let mut plan = owned_plan();
    // Drop the *last* LoopNext of the stream: the loop it closed stays
    // open with no later LoopNext to mismatch first.
    let at = plan
        .ops
        .iter()
        .rposition(|op| matches!(op, Op::LoopNext(_)))
        .expect("a loop closes somewhere");
    plan.ops[at] = Op::Barrier;
    assert!(
        matches!(verify(&plan), Err(VerifyError::UnclosedLoop { .. })),
        "got {:?}",
        verify(&plan)
    );
}

#[test]
fn verify_rejects_use_before_def() {
    let mut plan = owned_plan();
    // Drop the first Let: every later read of its slot is now undefined.
    let at = plan
        .ops
        .iter()
        .position(|op| matches!(op, Op::Let { .. }))
        .expect("the lowering emits Let ops");
    let Op::Let { slot, .. } = plan.ops[at] else {
        unreachable!()
    };
    plan.ops[at] = Op::Barrier;
    match verify(&plan) {
        Err(VerifyError::UseBeforeDef { slot: s, .. }) => assert_eq!(s, slot),
        other => panic!("expected UseBeforeDef of slot {slot}, got {other:?}"),
    }
}

#[test]
fn over_arity_structures_are_refused_at_intake() {
    use cortex_ds::{StructureBuilder, StructureKind};
    let (g, _) = tree_rnn(4);
    let program = lower(
        &g,
        &RaSchedule::default(),
        StructureInfo { max_children: 2 },
    )
    .unwrap();
    let mut b = StructureBuilder::new(StructureKind::Tree);
    let l0 = b.leaf(1);
    let l1 = b.leaf(2);
    let l2 = b.leaf(3);
    b.internal(&[l0, l1, l2]).unwrap();
    let wide = b.finish().unwrap();
    let lin = Linearizer::new().linearize(&wide).unwrap();
    let mut params = Params::new();
    params.set(
        "Emb",
        Tensor::random(&[datasets::VOCAB_SIZE as usize, 4], 0.5, 42),
    );
    let mut engine = Engine::new(&program);
    let err = engine.execute(&lin, &params, true).unwrap_err();
    assert_eq!(
        err,
        ExecError::InvalidInput(InvalidInput::ArityExceedsPlan { found: 3, plan: 2 })
    );
    // The same check guards `execute_many`: a hostile request is refused
    // before any batch state is touched.
    let ok = Linearizer::new()
        .linearize(&datasets::random_binary_tree(5, 1))
        .unwrap();
    let err = engine
        .execute_many(&[&ok, &lin], &params, true)
        .unwrap_err();
    assert!(matches!(
        err,
        ExecError::InvalidInput(InvalidInput::ArityExceedsPlan { .. })
    ));
    // The engine still serves valid traffic afterwards.
    engine.execute(&ok, &params, true).unwrap();
}

#[test]
fn non_finite_params_are_refused() {
    let (program, lin, _params, _) = fault_fixture();
    let mut bad = Params::new();
    let mut emb = Tensor::zeros(&[datasets::VOCAB_SIZE as usize, 8]);
    emb.as_mut_slice()[3] = f32::NAN;
    bad.set("Emb", emb);
    let mut engine = Engine::new(&program);
    let err = engine.execute(&lin, &bad, true).unwrap_err();
    assert_eq!(
        err,
        ExecError::InvalidInput(InvalidInput::NonFiniteParam {
            name: "Emb".to_string()
        })
    );
    // Re-binding finite values clears the refusal (validation is keyed
    // on the params generation).
    let mut good = Params::new();
    good.set(
        "Emb",
        Tensor::random(&[datasets::VOCAB_SIZE as usize, 8], 0.5, 42),
    );
    engine.execute(&lin, &good, true).unwrap();
}

#[test]
fn memory_budget_refuses_over_budget_runs() {
    let (program, lin, params, out) = fault_fixture();
    let mut engine = Engine::with_options(
        &program,
        ExecOptions {
            memory_budget: Some(1),
            ..ExecOptions::default()
        },
    );
    let needed = engine.footprint(&lin);
    assert!(needed > 1, "footprint estimate must be non-trivial");
    match engine.execute(&lin, &params, true) {
        Err(ExecError::OverBudget { needed: n, budget }) => {
            assert_eq!((n, budget), (needed, 1));
        }
        other => panic!("expected OverBudget, got {other:?}"),
    }
    // A budget above the estimate admits the run unchanged.
    let mut roomy = Engine::with_options(
        &program,
        ExecOptions {
            memory_budget: Some(needed * 2),
            ..ExecOptions::default()
        },
    );
    let (got, _) = roomy.execute(&lin, &params, true).unwrap();
    let (want, _) = execute(&program, &lin, &params, true).unwrap();
    assert_eq!(got[&out], want[&out]);
}

#[test]
fn input_size_and_depth_limits_are_enforced() {
    let (program, lin, params, _) = fault_fixture();
    let mut small = Engine::with_options(
        &program,
        ExecOptions {
            max_input_nodes: Some(3),
            ..ExecOptions::default()
        },
    );
    assert!(matches!(
        small.execute(&lin, &params, true),
        Err(ExecError::InvalidInput(InvalidInput::NodesOverLimit {
            limit: 3,
            ..
        }))
    ));
    let mut shallow = Engine::with_options(
        &program,
        ExecOptions {
            max_input_depth: Some(1),
            ..ExecOptions::default()
        },
    );
    assert!(matches!(
        shallow.execute(&lin, &params, true),
        Err(ExecError::InvalidInput(InvalidInput::DepthOverLimit {
            limit: 1,
            ..
        }))
    ));
}

#[test]
fn footprint_scales_with_input_size() {
    let (program, _, _, _) = fault_fixture();
    let engine = Engine::new(&program);
    let small = Linearizer::new()
        .linearize(&datasets::random_binary_tree(5, 1))
        .unwrap();
    let large = Linearizer::new()
        .linearize(&datasets::random_binary_tree(63, 1))
        .unwrap();
    assert!(engine.footprint(&large) > engine.footprint(&small));
}

/// Packed weights are zero-padded to whole panels, so a narrow site
/// holds several times `h·k` floats; the footprint charges the padded
/// size and stays an upper bound on what the engine really keeps.
#[test]
fn footprint_bounds_the_packed_weights_actually_held() {
    for h in [3, 8, 33, 100] {
        let (g, _) = matvec_tree(h);
        let program = lower(
            &g,
            &RaSchedule::default(),
            StructureInfo { max_children: 2 },
        )
        .unwrap();
        let lin = Linearizer::new()
            .linearize(&datasets::random_binary_tree(9, 5))
            .unwrap();
        let mut params = Params::new();
        params.set("W", Tensor::random(&[h, h], 0.5, 41));
        params.set(
            "Emb",
            Tensor::random(&[datasets::VOCAB_SIZE as usize, h], 0.5, 42),
        );
        let mut engine = Engine::new(&program);
        engine.execute(&lin, &params, true).unwrap();
        let held: u64 = (engine.packs.iter().filter_map(|p| p.get()))
            .map(|w| {
                4 * cortex_tensor::kernels::PackedB::padded_len(
                    cortex_tensor::simd::level(),
                    w.shape().0,
                    w.shape().1,
                ) as u64
            })
            .sum();
        assert!(held >= 4 * (h * h) as u64, "h={h}: the matvec weight packs");
        assert!(
            held <= engine.footprint_weights(),
            "h={h}: {held} bytes of packed weights held, {} charged",
            engine.footprint_weights()
        );
        let needed = engine.footprint(&lin);
        let mut tight = Engine::with_options(
            &program,
            ExecOptions {
                memory_budget: Some(needed - 1),
                ..ExecOptions::default()
            },
        );
        assert_eq!(
            tight.execute(&lin, &params, true).unwrap_err(),
            ExecError::OverBudget {
                needed,
                budget: needed - 1
            },
            "h={h}"
        );
    }
}

/// A run binds its parameters in place and allocates nothing for them,
/// so the footprint leaves them out: a budget smaller than the embedding
/// table alone still admits a small tree, and one byte less than the
/// estimate is still refused.
#[test]
fn footprint_charges_no_parameter_bytes() {
    let (program, lin, params, out) = fault_fixture();
    let needed = Engine::new(&program).footprint(&lin);
    let emb_bytes = params.get("Emb").unwrap().len() as u64 * 4;
    assert!(
        needed < emb_bytes,
        "{needed} B estimated, Emb is {emb_bytes} B"
    );
    let budget = |memory_budget| ExecOptions {
        memory_budget,
        ..ExecOptions::default()
    };
    let mut fits = Engine::with_options(&program, budget(Some(needed)));
    let (got, _) = fits.execute(&lin, &params, true).unwrap();
    let (want, _) = execute(&program, &lin, &params, true).unwrap();
    assert_eq!(got[&out], want[&out]);
    let mut tight = Engine::with_options(&program, budget(Some(needed - 1)));
    assert_eq!(
        tight.execute(&lin, &params, true).unwrap_err(),
        ExecError::OverBudget {
            needed,
            budget: needed - 1
        }
    );
}

thread_local! {
    /// `(name, data pointer)` of every `Param` buffer, one entry per run
    /// finished on this thread ([`note_param_views`]).
    static PARAM_VIEWS: std::cell::RefCell<Vec<Vec<(String, *const f32)>>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

/// Called by `Interp::finish` in test builds: records where each `Param`
/// buffer of the finishing run reads its data.
pub(super) fn note_param_views(interp: &super::interp::Interp<'_>) {
    let views = interp
        .program
        .declared_tensors()
        .filter(|d| d.class == cortex_core::ilir::StorageClass::Param)
        .map(|d| {
            let buf = interp.bufs[d.id.0 as usize].as_ref().unwrap();
            (d.name.clone(), buf.data.as_ptr())
        })
        .collect();
    PARAM_VIEWS.with_borrow_mut(|runs| runs.push(views));
}

fn matvec_fixture(h: usize) -> (cortex_core::ilir::IlirProgram, Vec<Linearized>, Params) {
    let (g, _) = matvec_tree(h);
    let program = lower(
        &g,
        &RaSchedule::default(),
        StructureInfo { max_children: 2 },
    )
    .unwrap();
    let lins = (0..3u64)
        .map(|s| {
            Linearizer::new()
                .linearize(&datasets::random_binary_tree(5 + 4 * s as usize, s))
                .unwrap()
        })
        .collect();
    let mut params = Params::new();
    params.set("W", Tensor::random(&[h, h], 0.5, 41));
    params.set(
        "Emb",
        Tensor::random(&[datasets::VOCAB_SIZE as usize, h], 0.5, 42),
    );
    (program, lins, params)
}

/// Zero copy: every `Param` buffer of every run — solo and each request
/// of a batch — reads the caller's tensor allocation itself.
#[test]
fn param_buffers_view_the_bound_tensors_in_place() {
    let (program, lins, params) = matvec_fixture(8);
    let mut engine = Engine::new(&program);
    PARAM_VIEWS.take();
    engine.execute(&lins[0], &params, true).unwrap();
    let solo = PARAM_VIEWS.take();
    let refs: Vec<&Linearized> = lins.iter().collect();
    // The record is per thread: one lane keeps the batch on this one.
    cortex_tensor::par::with_lanes(1, || engine.execute_many(&refs, &params, true)).unwrap();
    let many = PARAM_VIEWS.take();
    assert_eq!((solo.len(), many.len()), (1, 3));
    for run in solo.iter().chain(&many) {
        assert_eq!(run.len(), params.len());
        for (name, ptr) in run {
            let bound = params.get(name).unwrap().as_slice().as_ptr();
            assert_eq!(*ptr, bound, "{name} was copied");
        }
    }
}

#[test]
fn params_clones_share_storage_and_set_rebinds_one_entry() {
    let (_, _, original) = matvec_fixture(4);
    let ptr = |p: &Params, name: &str| p.get(name).unwrap().as_slice().as_ptr();
    let gen = original.generation();
    let w = original.get("W").unwrap().clone();
    let mut clone = original.clone();
    for (name, t) in original.iter() {
        assert_eq!(ptr(&clone, name), t.as_slice().as_ptr(), "{name}");
    }
    clone.set("W", Tensor::zeros(&[4, 4]));
    assert_ne!(clone.generation(), gen);
    assert_eq!(original.generation(), gen, "the original's binding stands");
    assert_eq!(original.get("W").unwrap(), &w);
    assert_ne!(ptr(&clone, "W"), ptr(&original, "W"));
    assert_eq!(ptr(&clone, "Emb"), ptr(&original, "Emb"), "still shared");
}

/// Rebinding a parameter is seen by the very next run of a warm engine:
/// it equals a fresh engine's run on the new binding, outputs and
/// `Profile`.
#[test]
fn rebinding_a_param_equals_a_fresh_engine() {
    let (program, lins, mut params) = matvec_fixture(8);
    let refs: Vec<&Linearized> = lins.iter().collect();
    let mut warm = Engine::new(&program);
    warm.execute_many(&refs, &params, true).unwrap();
    params.set("W", Tensor::random(&[8, 8], 0.5, 7));
    let got = warm.execute_many(&refs, &params, true).unwrap();
    let want = Engine::new(&program)
        .execute_many(&refs, &params, true)
        .unwrap();
    assert_eq!(got, want);
    let solo = warm.execute(&lins[0], &params, true).unwrap();
    assert_eq!(solo, want[0]);
}

/// Lane groups balance node counts, largest request first into the
/// lightest group, and keep input order inside each; the engine reports
/// the groups it ran.
#[test]
fn lane_groups_balance_nodes_and_the_engine_reports_them() {
    let (program, lins, params) = matvec_fixture(8);
    let sizes: Vec<usize> = lins.iter().map(Linearized::num_nodes).collect();
    assert!(sizes[0] < sizes[1] && sizes[1] < sizes[2], "{sizes:?}");
    let refs: Vec<&Linearized> = lins.iter().collect();
    assert_eq!(lane_groups(&refs, 1), [vec![0, 1, 2]]);
    assert_eq!(lane_groups(&refs, 2), [vec![2], vec![0, 1]]);
    assert_eq!(lane_groups(&refs, 4), [vec![2], vec![1], vec![0]]);
    let equal = [&lins[0]; 5];
    assert_eq!(lane_groups(&equal, 2), [vec![0, 2, 4], vec![1, 3]]);
    assert!(lane_groups(&[], 2).is_empty());

    let mut engine = Engine::new(&program);
    for lanes in [1, 2] {
        cortex_tensor::par::with_lanes(lanes, || engine.execute_many(&refs, &params, true))
            .unwrap();
        let want = lane_groups(&refs, lanes.min(cortex_tensor::par::lanes()));
        assert_eq!(engine.batch_groups(), want, "{lanes} lanes");
    }
}

/// A stacking group's weight is packed once per params binding, by
/// whichever lane needs it first: a cold `execute_many` of 16 TreeLSTM
/// requests on two lanes packs exactly what a cold solo run packs, and
/// a warm batch packs nothing.
#[test]
fn a_cold_batch_on_two_lanes_packs_each_weight_once() {
    use cortex_models::{treelstm, LeafInit};
    let model = treelstm::tree_lstm(16, LeafInit::Embedding);
    let program = model.lower(&RaSchedule::default()).unwrap();
    let mut params = Params::new();
    for (name, t) in model.params.iter() {
        params.set(name, t.clone());
    }
    let lins: Vec<Linearized> = (0..16u64)
        .map(|s| {
            let tree = datasets::random_binary_tree(4 + s as usize, s);
            Linearizer::new().linearize(&tree).unwrap()
        })
        .collect();
    let refs: Vec<&Linearized> = lins.iter().collect();
    let mut solo = Engine::new(&program);
    solo.execute(&lins[15], &params, true).unwrap();
    let packs = solo.stats().weight_packs;
    assert!(packs > 0, "TreeLSTM packs its gate weights");
    let mut engine = Engine::new(&program);
    for (pass, want) in [("cold", packs), ("warm", 0)] {
        cortex_tensor::par::with_lanes(2, || engine.execute_many(&refs, &params, true)).unwrap();
        let groups = engine.batch_groups().len();
        let made = engine.stats().weight_packs;
        assert_eq!(made, want, "{pass} batch, {groups} lane groups");
    }
}

/// A panic out of a lane group's step with no hook installed resets
/// nothing: each lane it hit keeps the placeholder caches of the
/// interpreter that unwound (what this test installs by hand, as no
/// input makes a real run panic). Such an engine still multiplies by
/// the weights bound now, on every lane: the packs are the engine's,
/// and a rebind clears them for all lanes at once.
#[test]
fn a_torn_engine_sees_a_rebind_on_every_lane() {
    let (program, lins, mut params) = matvec_fixture(8);
    let refs: Vec<&Linearized> = lins.iter().collect();
    let two_lanes = |engine: &mut Engine<'_>, params: &Params| {
        cortex_tensor::par::with_lanes(2, || engine.execute_many(&refs, params, true)).unwrap()
    };
    let mut torn = Engine::new(&program);
    two_lanes(&mut torn, &params);
    for lane in &mut torn.lanes {
        lane.caches = Caches::default();
    }
    two_lanes(&mut torn, &params);
    params.set("W", Tensor::random(&[8, 8], 0.5, 7));
    assert_eq!(
        two_lanes(&mut torn, &params),
        two_lanes(&mut Engine::new(&program), &params)
    );
}

/// Parameter sets are shared across threads once compiled models are:
/// this stops compiling if `Params` loses `Send + Sync`.
const _: fn() = || {
    fn send_sync<T: Send + Sync>() {}
    send_sync::<Params>();
};

/// `tree_rnn`'s guarded twin: every child read sits under the canonical
/// `slot < num_children` Select (the DAG-RNN idiom), so absent children
/// contribute zero instead of a dangling indirection.
fn guarded_tree_rnn(h: usize) -> (RaGraph, TensorId) {
    use cortex_core::expr::{BoolExpr, CmpOp, IdxExpr, Ufn, ValExpr};
    let mut g = RaGraph::new();
    let emb = g.input("Emb", &[datasets::VOCAB_SIZE as usize, h]);
    let ph = g.placeholder("g_ph", &[h]);
    let leaf = g.compute("leaf", &[h], |c| c.read(emb, &[c.node().word(), c.axis(0)]));
    let rec = g.compute("rec", &[h], |c| {
        let mut acc: Option<ValExpr> = None;
        for s in 0..2u8 {
            let node = c.node();
            let child = IdxExpr::Ufn(Ufn::Child(s), vec![node.clone()]);
            let read = c.read(ph, &[child, c.axis(0)]);
            let guarded = ValExpr::Select {
                cond: BoolExpr::Cmp(
                    CmpOp::Lt,
                    IdxExpr::Const(s as i64),
                    IdxExpr::Ufn(Ufn::NumChildren, vec![node]),
                ),
                then: Box::new(read),
                otherwise: Box::new(ValExpr::Const(0.0)),
            };
            acc = Some(match acc {
                None => guarded,
                Some(prev) => prev.add(guarded),
            });
        }
        acc.unwrap().tanh()
    });
    let body = g.if_then_else("body", leaf, rec).unwrap();
    let r = g.recursion(ph, body).unwrap();
    g.mark_output(r);
    (g, r.id())
}

#[test]
fn under_arity_structures_are_refused_for_exact_plans() {
    use cortex_ds::{StructureBuilder, StructureKind};
    let (g, _) = tree_rnn(4);
    let program = lower(
        &g,
        &RaSchedule::default(),
        StructureInfo { max_children: 2 },
    )
    .unwrap();
    let mut engine = Engine::new(&program);
    assert_eq!(
        engine.plan_required_arity(),
        2,
        "exact plan requires both slots"
    );
    // A unary internal node: the plan would chase child(1) = NO_CHILD.
    let mut b = StructureBuilder::new(StructureKind::Tree);
    let leaf = b.leaf(1);
    b.internal(&[leaf]).unwrap();
    let lin = Linearizer::new().linearize(&b.finish().unwrap()).unwrap();
    let mut params = Params::new();
    params.set(
        "Emb",
        Tensor::random(&[datasets::VOCAB_SIZE as usize, 4], 0.5, 42),
    );
    let err = engine.execute(&lin, &params, true).unwrap_err();
    assert_eq!(
        err,
        ExecError::InvalidInput(InvalidInput::ArityBelowPlan {
            found: 1,
            required: 2
        })
    );
}

#[test]
fn guarded_plans_admit_any_arity_and_match_the_oracle() {
    use cortex_ds::{StructureBuilder, StructureKind};
    let h = 4;
    let (g, out) = guarded_tree_rnn(h);
    let program = lower(
        &g,
        &RaSchedule::default(),
        StructureInfo { max_children: 2 },
    )
    .unwrap();
    let mut engine = Engine::new(&program);
    assert_eq!(engine.plan_arity(), 2);
    assert_eq!(
        engine.plan_required_arity(),
        0,
        "every child read is Select-guarded"
    );
    // A unary chain — refused by the exact plan above — is admissible
    // here and must agree with the interp oracle exactly.
    let mut b = StructureBuilder::new(StructureKind::Tree);
    let leaf = b.leaf(1);
    let mid = b.internal(&[leaf]).unwrap();
    b.internal(&[mid]).unwrap();
    let lin = Linearizer::new().linearize(&b.finish().unwrap()).unwrap();
    let mut params = Params::new();
    params.set(
        "Emb",
        Tensor::random(&[datasets::VOCAB_SIZE as usize, h], 0.5, 42),
    );
    engine.validate_input(&lin).unwrap();
    let (got, prof) = engine.execute(&lin, &params, true).unwrap();
    let mut oracle = Engine::with_options(&program, ExecOptions::interpreted());
    let (want, want_prof) = oracle.execute(&lin, &params, true).unwrap();
    assert_eq!(prof, want_prof, "profiles must be bit-identical");
    assert_eq!(got[&out], want[&out], "outputs must be bit-identical");
}

// -- static checks: fused-wave row-disjointness, verify, shadow --

use cortex_core::expr::{IdxExpr, ValExpr, Var};
use cortex_core::ilir::{LoopKind, Stmt};

/// Builds the shared plans of a model for certificate-forging tests.
fn forgeable_plans(g: &RaGraph) -> super::SharedPlans {
    let ilir = lower(g, &RaSchedule::default(), StructureInfo { max_children: 2 }).unwrap();
    let compiled: Arc<Vec<CompiledKernel>> =
        Arc::new(ilir.kernels.iter().map(CompiledKernel::compile).collect());
    let (shared, _) = super::build_plans(&ilir, compiled, true);
    assert_eq!(verify(&shared.plan), Ok(()), "genuine plan verifies");
    shared
}

#[test]
fn verify_rejects_forged_fused_certificate() {
    let (g, _) = matvec_tree(6);
    let mut shared = forgeable_plans(&g);
    let plan = Arc::get_mut(&mut shared.plan).expect("sole owner");
    assert!(
        !plan.fused.is_empty(),
        "matvec body fuses under the default schedule"
    );
    // A fused wave carries no stored certificate to flip: forge the wave
    // itself, claiming a loop variable its stores do not ride (every
    // node would write the same row), or the wrong block form.
    let genuine = plan.fused[0].clone();
    assert!(genuine.block, "the matvec waves are in block form");
    let forge = |n_idx_slot: usize, node_let, block: bool| super::bulk::FusedWave {
        n_idx_slot,
        node_let,
        prog: super::bulk::RowProgram {
            passes: genuine.prog.passes.clone(),
            only: None,
            sites: genuine.prog.sites.clone(),
        },
        bytes_per_row: genuine.bytes_per_row,
        block,
    };
    let stray = forge(usize::from(u16::MAX), None, true);
    let unblocked = forge(genuine.n_idx_slot, genuine.node_let.clone(), false);
    for forged in [stray, unblocked] {
        Arc::get_mut(&mut shared.plan).expect("sole owner").fused[0] = Arc::new(forged);
        assert_eq!(
            verify(&shared.plan),
            Err(VerifyError::CertificateMismatch {
                what: "fused",
                index: 0
            })
        );
    }
}

/// A wave loop that drives a wave GEMM must barrier every iteration:
/// jumping over its only `Barrier` is refused.
#[test]
fn verify_rejects_wave_loop_without_barrier() {
    let (g, _) = matvec_tree(6);
    let mut shared = forgeable_plans(&g);
    let plan = Arc::get_mut(&mut shared.plan).expect("sole owner");
    let at = (plan.ops.iter())
        .position(|op| matches!(op, Op::Barrier))
        .expect("the wave loop barriers");
    let Op::LoopEnter(id) = plan.ops[at - 1] else {
        panic!("the barrier opens its wave loop's body")
    };
    assert!(plan.loops[id].is_wave);
    plan.ops[at] = Op::Jump(at + 1);
    assert_eq!(
        verify(&shared.plan),
        Err(VerifyError::MissingBarrier {
            op: at - 1,
            loop_id: id
        })
    );
}

/// A stored address program is re-derived from its source: a fused
/// wave's node binding compiled from another expression than the one it
/// carries is refused.
#[test]
fn verify_rejects_stale_address_program() {
    use super::address::Coord;
    let (g, _) = matvec_tree(6);
    let mut shared = forgeable_plans(&g);
    let plan = Arc::get_mut(&mut shared.plan).expect("sole owner");
    let forged = {
        let genuine = &plan.fused[0];
        let (slot, node) = genuine.node_let.clone().expect("the wave binds its node");
        let mut stale = Coord::new(&IdxExpr::Const(0));
        stale.src = node.src;
        super::bulk::FusedWave {
            n_idx_slot: genuine.n_idx_slot,
            node_let: Some((slot, stale)),
            prog: super::bulk::RowProgram {
                passes: genuine.prog.passes.clone(),
                only: None,
                sites: genuine.prog.sites.clone(),
            },
            bytes_per_row: genuine.bytes_per_row,
            block: genuine.block,
        }
    };
    plan.fused[0] = Arc::new(forged);
    let index = plan.waves.len();
    assert_eq!(
        verify(&shared.plan),
        Err(VerifyError::CertificateMismatch {
            what: "address",
            index
        })
    );
}

/// A row program's `Select`/`Jump` goes forward within its pass: a
/// backward jump in a fused wave's pass would spin its row sweep.
#[test]
fn verify_rejects_backward_row_jump() {
    use super::bulk::{Instr, RowPass, RowProgram};
    let (g, _) = tree_rnn(6);
    let mut shared = forgeable_plans(&g);
    let plan = Arc::get_mut(&mut shared.plan).expect("sole owner");
    let genuine = plan.fused[0].clone();
    let spin = RowPass {
        h: genuine.prog.passes[0].h,
        instrs: vec![
            Instr::Ops {
                from: 0,
                to: 0,
                flops: 0,
            },
            Instr::Jump(0),
        ],
        ops: Vec::new(),
        stores: Vec::new(),
        regs: 0,
    };
    let mut forged = super::bulk::FusedWave {
        n_idx_slot: genuine.n_idx_slot,
        node_let: genuine.node_let.clone(),
        prog: RowProgram {
            passes: Arc::from(vec![spin]),
            only: None,
            sites: genuine.prog.sites.clone(),
        },
        bytes_per_row: genuine.bytes_per_row,
        block: genuine.block,
    };
    forged.block = forged.block_form();
    plan.fused[0] = Arc::new(forged);
    assert_eq!(
        verify(&shared.plan),
        Err(VerifyError::CertificateMismatch {
            what: "row jump",
            index: 0
        })
    );
}

/// An engine whose plan failed verification refuses every run with a
/// typed error — a rejected plan is never executed.
#[test]
fn demoted_engine_refuses_execution_typed() {
    let h = 4;
    let (g, _) = tree_rnn(h);
    let program = lower(
        &g,
        &RaSchedule::default(),
        StructureInfo { max_children: 2 },
    )
    .unwrap();
    let mut engine = Engine::new(&program);
    assert_eq!(engine.verified(), Ok(()));
    let forged = VerifyError::DanglingJump { op: 0, target: 1 };
    engine.verified = Err(forged.clone());
    let lin = Linearizer::new()
        .linearize(&datasets::random_binary_tree(9, 5))
        .unwrap();
    let mut params = Params::new();
    params.set(
        "Emb",
        Tensor::random(&[datasets::VOCAB_SIZE as usize, h], 0.5, 42),
    );
    match engine.execute(&lin, &params, true) {
        Err(ExecError::Verify(e)) => assert_eq!(e, forged),
        other => panic!("demoted engine must refuse typed, got {other:?}"),
    }
}

#[test]
fn shadow_checks_count_only_under_the_checked_feature() {
    let h = 8;
    let (g, _) = matvec_tree(h);
    let program = lower(
        &g,
        &RaSchedule::default(),
        StructureInfo { max_children: 2 },
    )
    .unwrap();
    let lin = Linearizer::new()
        .linearize(&datasets::random_binary_tree(15, 3))
        .unwrap();
    let mut params = Params::new();
    params.set("W", Tensor::random(&[h, h], 0.5, 7));
    params.set(
        "Emb",
        Tensor::random(&[datasets::VOCAB_SIZE as usize, h], 0.5, 42),
    );
    let mut engine = Engine::new(&program);
    engine.execute(&lin, &params, true).unwrap();
    let stats = engine.stats();
    if cfg!(feature = "checked") {
        assert!(stats.shadow_checks > 0, "shadow hooks recorded accesses");
    } else {
        assert_eq!(stats.shadow_checks, 0);
    }
}

#[test]
fn certify_fused_rejects_overlapping_row_passes() {
    let n = Var::from_raw(0);
    let i = Var::from_raw(1);
    let t = TensorId(4);
    // `for i in 0..4 { t[index] = value }`, lowered as the whole body of
    // the wave over `n` and checked.
    let rows_disjoint = |index: Vec<IdxExpr>, value: ValExpr| {
        let s = Stmt::For {
            var: i,
            extent: IdxExpr::Const(4),
            kind: LoopKind::Vectorized,
            dim: None,
            body: vec![Stmt::Store {
                tensor: t,
                index,
                value,
            }],
        };
        let prog = super::bulk::lower_row_program(&[(None, &s)], &[], &[]).expect("row-serves");
        let fw = super::bulk::FusedWave {
            n_idx_slot: n.id() as usize,
            node_let: None,
            bytes_per_row: 0,
            prog,
            block: false,
        };
        fw.rows_disjoint()
    };
    let own_row = vec![IdxExpr::Var(n), IdxExpr::Var(i)];
    // Pass writes t[0][i] — every row of the wave hits the same cells.
    assert!(!rows_disjoint(
        vec![IdxExpr::Const(0), IdxExpr::Var(i)],
        ValExpr::Const(1.0)
    ));
    // Pass reads its own tensor at the *next* row: cross-row overlap.
    let next_row = vec![IdxExpr::Var(n).add(IdxExpr::Const(1)), IdxExpr::Var(i)];
    assert!(!rows_disjoint(own_row.clone(), ValExpr::load(t, next_row)));
    // Own-row read is fine.
    assert!(rows_disjoint(own_row.clone(), ValExpr::load(t, own_row)));
}

/// A rank-2 store nest row-serves only as a plane: one `H_i·H_j`-lane
/// pass when every access is contiguous over `(i, j)`, nothing (the
/// per-element walk) otherwise.
#[test]
fn rank2_nests_row_serve_only_as_planes() {
    use cortex_core::ilir::{DimExtent, DimName, StorageClass, TensorDecl};
    let (n, i, j) = (Var::from_raw(0), Var::from_raw(1), Var::from_raw(2));
    let decl = |t: u32, (hi, hj): (usize, usize)| {
        Some(TensorDecl {
            id: TensorId(t),
            name: format!("t{t}"),
            dims: vec![DimExtent::Nodes, DimExtent::Fixed(hi), DimExtent::Fixed(hj)],
            dim_names: vec![DimName::node(), DimName::feature(0), DimName::feature(1)],
            class: StorageClass::Global,
            persist: false,
            is_output: false,
        })
    };
    // `a[n, i, j] = t[index]` over `i < 3`, `j < 5`; `c` is `b` transposed.
    let tensors = [decl(0, (3, 5)), decl(1, (3, 5)), decl(2, (5, 3))];
    let lower = |t: u32, index: [Var; 3]| {
        let inner = Stmt::For {
            var: j,
            extent: IdxExpr::Const(5),
            kind: LoopKind::Vectorized,
            dim: None,
            body: vec![Stmt::Store {
                tensor: TensorId(0),
                index: [n, i, j].map(IdxExpr::Var).to_vec(),
                value: ValExpr::load(TensorId(t), index.map(IdxExpr::Var).to_vec()),
            }],
        };
        super::bulk::lower_row_program(&[(Some((i.id() as usize, 3)), &inner)], &[], &tensors)
    };
    let plane = lower(1, [n, i, j]).expect("a contiguous nest is a plane");
    assert_eq!(plane.passes.len(), 1);
    assert_eq!(plane.passes[0].h, 15);
    assert!(lower(2, [n, j, i]).is_none(), "a transposed read");
}

// -- wave site identity: binder slots --

/// `(binder slot, body address)` of every `Sum` under `e`.
fn sums_in(e: &ValExpr, out: &mut Vec<(usize, usize)>) {
    match e {
        ValExpr::Const(_) | ValExpr::Load { .. } => {}
        ValExpr::Unary(_, a) => sums_in(a, out),
        ValExpr::Bin(_, a, b) => {
            sums_in(a, out);
            sums_in(b, out);
        }
        ValExpr::Sum { var, body, .. } => {
            out.push((var.id() as usize, &**body as *const ValExpr as usize));
            sums_in(body, out);
        }
        ValExpr::Select {
            then, otherwise, ..
        } => {
            sums_in(then, out);
            sums_in(otherwise, out);
        }
    }
}

/// `(binder slot, body address)` of every `Sum` stored under `stmts`.
fn stored_sums(stmts: &[Stmt]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    for s in stmts {
        s.visit(&mut |st| {
            if let Stmt::Store { value, .. } = st {
                sums_in(value, &mut out);
            }
        });
    }
    out
}

/// Body addresses, in the program's own stores, of the `Sum` of every
/// planned wave site: the `Sum`s in its wave loop's body bound by a
/// site's binder.
fn planned_site_sums(plan: &Program) -> Vec<usize> {
    let mut out = Vec::new();
    for d in &plan.loops {
        let Some(w) = d.wave else { continue };
        let sites = &plan.waves[w].sites;
        for op in &plan.ops[d.body..d.exit] {
            let Op::Store(id) = op else { continue };
            let mut sums = Vec::new();
            sums_in(&plan.stores[*id].value, &mut sums);
            out.extend(
                (sums.into_iter())
                    .filter(|&(binder, _)| sites.iter().any(|s| s.binder == binder))
                    .map(|(_, body)| body),
            );
        }
    }
    out
}

/// One `Var` binding two `Sum`s in one `d_batch` body: the kernel
/// compiler gives each its own binder slot, both become wave sites, and
/// each is served its own GEMM result — the pc runtime, the oracle and
/// the memo-free scalar path agree on outputs and `Profile`.
#[test]
fn one_var_binding_two_sums_compiles_to_two_sites() {
    let h = 6;
    let mut g = RaGraph::new();
    let w = g.input("W", &[h, h]);
    let u = g.input("U", &[h, h]);
    let emb = g.input("Emb", &[datasets::VOCAB_SIZE as usize, h]);
    let ph = g.placeholder("two_ph", &[h]);
    let leaf = g.compute("leaf", &[h], |c| c.read(emb, &[c.node().word(), c.axis(0)]));
    let rec = g.compute("rec", &[h], |c| {
        let i = c.axis(0);
        let left = c.sum(h, |c, k| {
            c.read(w, &[i.clone(), k.clone()])
                .mul(c.read(ph, &[c.node().child(0), k]))
        });
        // A second reduction bound by the very same variable.
        let ValExpr::Sum { var, .. } = &left else {
            unreachable!("`sum` builds a Sum")
        };
        let k = IdxExpr::Var(*var);
        let right = ValExpr::Sum {
            var: *var,
            extent: IdxExpr::Const(h as i64),
            body: Box::new(
                c.read(u, &[i, k.clone()])
                    .mul(c.read(ph, &[c.node().child(1), k])),
            ),
        };
        left.add(right).tanh()
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

    // The ILIR shares one binder between the two sums; compiled, they
    // own a slot each.
    let (shared, split) = program
        .kernels
        .iter()
        .map(|k| {
            let raw = stored_sums(&k.body);
            let compiled = stored_sums(&CompiledKernel::compile(k).body);
            (raw, compiled)
        })
        .find(|(raw, _)| raw.len() == 2)
        .expect("a kernel stores both sums");
    assert_eq!(shared[0].0, shared[1].0, "one Var binds both sums");
    assert_ne!(split[0].0, split[1].0, "each sum binds its own slot");

    let lin = Linearizer::new()
        .linearize(&datasets::random_binary_tree(11, 3))
        .unwrap();
    let lins = [&lin, &lin];
    let mut params = Params::new();
    params.set("W", Tensor::random(&[h, h], 0.5, 1));
    params.set("U", Tensor::random(&[h, h], 0.5, 2));
    params.set(
        "Emb",
        Tensor::random(&[datasets::VOCAB_SIZE as usize, h], 0.5, 3),
    );
    let mut pc = Engine::new(&program);
    let binders: Vec<Vec<usize>> = (pc.shared.plan.waves.iter())
        .map(|w| w.sites.iter().map(|s| s.binder).collect())
        .collect();
    assert!(
        binders.iter().any(|b| b.len() == 2 && b[0] != b[1]),
        "both sums are sites of one wave: {binders:?}"
    );
    let want = pc.execute(&lin, &params, true).unwrap();
    assert_eq!(
        pc.stats().sites_batched,
        2 * lin.internal_batches().len() as u64
    );
    let want_many = pc.execute_many(&lins, &params, true).unwrap();
    for (name, mut other) in [
        (
            "oracle",
            Engine::with_options(&program, ExecOptions::interpreted()),
        ),
        (
            "per-element",
            Engine::per_element(&program, ExecOptions::default()),
        ),
    ] {
        assert_eq!(other.execute(&lin, &params, true).unwrap(), want, "{name}");
        let many = other.execute_many(&lins, &params, true).unwrap();
        assert_eq!(many, want_many, "{name}");
    }
}

/// A wave memo miss is invisible in outputs and `Profile` (a site's
/// scalar dot is `==` to its GEMM row), so it is detected here
/// directly. With per-element serving (`bulk: false`) every site's
/// `Sum` consults the memo; on all nine models, solo and batched, none
/// may reach the scalar reduction compile — `plan_cache` holds no entry
/// for a planned site's `Sum`.
#[test]
fn planned_sites_never_reach_the_scalar_dot() {
    use cortex_models::{dagrnn, mvrnn, seq, treefc, treegru, treelstm, treernn, LeafInit};
    let h = 8;
    let models = [
        treernn::tree_rnn(h, LeafInit::Embedding),
        treefc::tree_fc(h, LeafInit::Embedding),
        treegru::tree_gru(h, LeafInit::Embedding),
        treelstm::tree_lstm(h, LeafInit::Zero),
        mvrnn::mv_rnn(4),
        dagrnn::dag_rnn(h),
        seq::seq_lstm(h),
        treegru::simple_tree_gru(h, LeafInit::Embedding),
        seq::seq_gru(h),
    ];
    for model in models {
        let program = model.lower(&RaSchedule::default()).unwrap();
        let mut params = Params::new();
        for (name, t) in model.params.iter() {
            params.set(name, t.clone());
        }
        let lins: Vec<Linearized> = (0..4u64)
            .map(|s| {
                let structure = match model.name.as_str() {
                    "DAG-RNN" => datasets::grid_dag(3, 2 + s as usize, s),
                    "LSTM" | "GRU" => datasets::sequence(5 + 3 * s as usize, s),
                    _ => datasets::random_binary_tree(4 + 3 * s as usize, s),
                };
                Linearizer::new().linearize(&structure).unwrap()
            })
            .collect();
        let refs: Vec<&Linearized> = lins.iter().collect();
        let mut engine = Engine::with_options(
            &program,
            ExecOptions {
                bulk: false,
                ..ExecOptions::default()
            },
        );
        engine.execute(&lins[0], &params, true).unwrap();
        let solo = engine.stats();
        engine.execute_many(&refs, &params, true).unwrap();
        let many = engine.stats();
        let name = &model.name;
        assert!(solo.sites_batched > 0 && many.sites_batched > 0, "{name}");
        assert_eq!((solo.fallback_sites, many.fallback_sites), (0, 0), "{name}");
        let sites = planned_site_sums(&engine.shared.plan);
        assert!(!sites.is_empty(), "{name}: sites found in the program");
        for body in sites {
            assert!(
                (engine.lanes.iter()).all(|lane| !lane.caches.plan_cache.contains_key(&body)),
                "{name}: a planned site's Sum missed the wave memo"
            );
        }
    }
}

/// Which sums leave the compiled paths: at default options no sum of the
/// nine models (h = 8) reaches the per-element [`Interp::eval_dot`] —
/// solo, in a batch of 4, on one lane and on two — while an
/// [`Engine::per_element`] engine runs every one there, which shows the
/// count is live.
///
/// [`Interp::eval_dot`]: super::interp::Interp::eval_dot
#[test]
fn default_options_make_no_per_element_dots() {
    use cortex_models::{dagrnn, mvrnn, seq, treefc, treegru, treelstm, treernn, LeafInit};
    use cortex_tensor::par;
    let h = 8;
    let models = [
        treernn::tree_rnn(h, LeafInit::Embedding),
        treefc::tree_fc(h, LeafInit::Embedding),
        treegru::tree_gru(h, LeafInit::Embedding),
        treegru::simple_tree_gru(h, LeafInit::Embedding),
        treelstm::tree_lstm(h, LeafInit::Zero),
        mvrnn::mv_rnn(h),
        dagrnn::dag_rnn(h),
        seq::seq_lstm(h),
        seq::seq_gru(h),
    ];
    for model in models {
        let program = model.lower(&RaSchedule::default()).unwrap();
        let mut params = Params::new();
        for (name, t) in model.params.iter() {
            params.set(name, t.clone());
        }
        let lins: Vec<Linearized> = (0..4u64)
            .map(|s| {
                let structure = match model.name.as_str() {
                    "DAG-RNN" => datasets::grid_dag(3, 2 + s as usize, s),
                    "LSTM" | "GRU" => datasets::sequence(5 + 3 * s as usize, s),
                    _ => datasets::random_binary_tree(4 + 3 * s as usize, s),
                };
                Linearizer::new().linearize(&structure).unwrap()
            })
            .collect();
        let refs: Vec<&Linearized> = lins.iter().collect();
        for lanes in [1, 2] {
            let opts = ExecOptions::default();
            for (mut engine, dots) in [
                (Engine::new(&program), false),
                (Engine::per_element(&program, opts), true),
            ] {
                par::with_lanes(lanes, || {
                    engine.execute(&lins[0], &params, true).unwrap();
                    engine.execute_many(&refs, &params, true).unwrap();
                });
                let made: u64 = engine.lanes.iter().map(|lane| lane.caches.dots).sum();
                let name = &model.name;
                assert_eq!(
                    made > 0,
                    dots,
                    "{name}, {lanes} lanes, per-element {dots}: {made} dots"
                );
            }
        }
    }
}

/// Sums whose bodies `fastdot::compile` rejects run the per-`k` loop of
/// the generic evaluator on every path: `rec(n)[i] = Σ_k tanh(h[c₀,k]) +
/// Σ_k W[i,k]·(h[c₁,k] + 1)` — a nonlinearity around the reduction
/// variable, and a product whose addend mixes a stream with a constant.
/// Neither is a wave site or a strided dot. The pc runtime equals the
/// oracle (outputs and `Profile`), solo and batched on one lane and on
/// two, and both equal a hand computation in the same summation order.
#[test]
fn rejected_sum_bodies_run_the_per_k_loop_on_every_path() {
    use cortex_core::expr::ValExpr;
    use cortex_tensor::approx::tanh_exact;
    use cortex_tensor::par;
    let h = 6;
    let vocab = datasets::VOCAB_SIZE as usize;
    let mut g = RaGraph::new();
    let emb_t = g.input("Emb", &[vocab, h]);
    let w_t = g.input("W", &[h, h]);
    let ph = g.placeholder("ph", &[h]);
    let leaf = g.compute("leaf", &[h], |c| {
        c.read(emb_t, &[c.node().word(), c.axis(0)])
    });
    let rec = g.compute("rec", &[h], |c| {
        let (node, i) = (c.node(), c.axis(0));
        let squashed = c.sum(h, |c, k| c.read(ph, &[node.clone().child(0), k]).tanh());
        let shifted = c.sum(h, |c, k| {
            let row = c.read(ph, &[node.clone().child(1), k.clone()]);
            c.read(w_t, &[i.clone(), k])
                .mul(row.add(ValExpr::Const(1.0)))
        });
        squashed.add(shifted)
    });
    let body = g.if_then_else("body", leaf, rec).unwrap();
    let rnn = g.recursion(ph, body).unwrap();
    g.mark_output(rnn);
    let program = lower(
        &g,
        &RaSchedule::default(),
        StructureInfo { max_children: 2 },
    )
    .unwrap();
    let (emb, w) = (
        Tensor::random(&[vocab, h], 0.5, 7),
        Tensor::random(&[h, h], 0.5, 8),
    );
    let mut params = Params::new();
    params.set("Emb", emb.clone());
    params.set("W", w.clone());
    let lins: Vec<Linearized> = (0..5u64)
        .map(|s| {
            let tree = datasets::random_binary_tree(3 + 4 * s as usize, 60 + s);
            Linearizer::new().linearize(&tree).unwrap()
        })
        .collect();
    let refs: Vec<&Linearized> = lins.iter().collect();

    let mut oracle = Engine::with_options(&program, ExecOptions::interpreted());
    let want: Vec<_> = (lins.iter())
        .map(|l| oracle.execute(l, &params, true).unwrap())
        .collect();
    for (lin, (out, _)) in lins.iter().zip(&want) {
        let mut hand = vec![vec![0.0f32; h]; lin.num_nodes()];
        for &n in lin.post_order() {
            let n = n as usize;
            if lin.is_leaf(n as u32) {
                hand[n] = emb.row(lin.word(n as u32) as usize).to_vec();
                continue;
            }
            let (c0, c1) = (
                lin.child(0, n as u32).unwrap() as usize,
                lin.child(1, n as u32).unwrap() as usize,
            );
            for i in 0..h {
                let (mut squashed, mut shifted) = (0.0f32, 0.0f32);
                for k in 0..h {
                    squashed += tanh_exact(hand[c0][k]);
                    shifted += w[[i, k]] * (hand[c1][k] + 1.0);
                }
                hand[n][i] = squashed + shifted;
            }
        }
        for (n, row) in hand.iter().enumerate() {
            for (i, &v) in row.iter().enumerate() {
                assert_eq!(
                    out[&rnn.id()][[n, i]].to_bits(),
                    v.to_bits(),
                    "node {n} elem {i}"
                );
            }
        }
    }
    for lanes in [1, 2] {
        par::with_lanes(lanes, || {
            let mut pc = Engine::new(&program);
            for (lin, want) in lins.iter().zip(&want) {
                assert!(
                    pc.execute(lin, &params, true).unwrap() == *want,
                    "{lanes} lanes: solo"
                );
            }
            let many = pc.execute_many(&refs, &params, true).unwrap();
            assert!(many == want, "{lanes} lanes: batched");
            assert_eq!(pc.stats().sites_batched, 0, "neither sum is a wave site");
            let lanes_of = || pc.lanes.iter().map(|lane| &lane.caches);
            assert_eq!(lanes_of().map(|c| c.dots).sum::<u64>(), 0, "no strided dot");
            assert!(
                lanes_of().any(|c| c.plan_cache.values().any(Option::is_none)),
                "a rejected body is cached as rejected"
            );
        });
    }
}

// -- the fork decision of a fused wave --

/// A hand-built one-kernel program at `h = 256`: one wave of 64 rows
/// over a forest of 128 lone leaves, `let node = bind(n_idx); t[node, i]
/// = tanh(x[node, i]) (+ t[node + 1, i] with `sibling`)`, whose 2 KiB
/// rows stream 128 KiB in all, twice the fork threshold.
fn leaf_wave(
    bind: impl Fn(IdxExpr) -> IdxExpr,
    sibling: bool,
) -> (cortex_core::ilir::IlirProgram, Linearized, Params) {
    use cortex_core::expr::VarGen;
    use cortex_core::ilir::{
        DimExtent, DimName, IlirProgram, Kernel, LaunchPattern, ProgramMeta, StorageClass,
        TensorDecl,
    };
    let h = 256;
    let mut vg = VarGen::new();
    let (n_idx, node, i) = (vg.fresh("n_idx"), vg.fresh("node"), vg.fresh("i"));
    let (x, t) = (TensorId(0), TensorId(1));
    let decl = |id, name: &str, rows, class| TensorDecl {
        id,
        name: name.to_string(),
        dims: vec![rows, DimExtent::Fixed(h)],
        dim_names: vec![DimName::node(), DimName::feature(0)],
        class,
        persist: false,
        is_output: class == StorageClass::Global,
    };
    let row = |node: IdxExpr| vec![node, IdxExpr::Var(i)];
    let mut value = ValExpr::load(x, row(IdxExpr::Var(node))).tanh();
    if sibling {
        value = value.add(ValExpr::load(
            t,
            row(IdxExpr::Var(node).add(IdxExpr::Const(1))),
        ));
    }
    let body = vec![Stmt::For {
        var: n_idx,
        extent: IdxExpr::Const(64),
        kind: LoopKind::Parallel,
        dim: Some(DimName::batch()),
        body: vec![Stmt::Let {
            var: node,
            value: bind(IdxExpr::Var(n_idx)),
            body: vec![Stmt::For {
                var: i,
                extent: IdxExpr::Const(h as i64),
                kind: LoopKind::Vectorized,
                dim: Some(DimName::feature(0)),
                body: vec![Stmt::Store {
                    tensor: t,
                    index: row(IdxExpr::Var(node)),
                    value,
                }],
            }],
        }],
    }];
    let program = IlirProgram {
        tensors: vec![
            Some(decl(x, "X", DimExtent::Fixed(128), StorageClass::Param)),
            Some(decl(t, "t", DimExtent::Nodes, StorageClass::Global)),
        ],
        kernels: vec![Kernel {
            name: "leaves".to_string(),
            launch: LaunchPattern::Once,
            batch_var: None,
            body,
        }],
        outputs: vec![t],
        meta: ProgramMeta {
            schedule: RaSchedule::default(),
            sync_depth: 1,
            crossing_tensors: Vec::new(),
            leaf_hoisted: false,
            leaf_zero: false,
        },
        vg,
    };
    let leaves = datasets::batch_of(|s| datasets::random_binary_tree(1, s), 128, 1);
    let lin = Linearizer::new().linearize(&leaves).unwrap();
    let mut params = Params::new();
    params.set("X", Tensor::random(&[128, h], 0.5, 3));
    (program, lin, params)
}

/// Runs `program` solo on one lane and on all, checks outputs and
/// `Profile` bit for bit against the per-element walk, and returns the
/// all-lanes run's stats.
fn fork_decision(
    (program, lin, params): (cortex_core::ilir::IlirProgram, Linearized, Params),
) -> super::ExecStats {
    use cortex_tensor::par;
    let per_element = ExecOptions {
        bulk: false,
        ..ExecOptions::interpreted()
    };
    let want = Engine::with_options(&program, per_element)
        .execute(&lin, &params, true)
        .unwrap();
    let mut stats = Vec::new();
    for lanes in [1, par::MAX_LANES] {
        par::with_lanes(lanes, || {
            let mut engine = Engine::new(&program);
            assert!(
                engine.execute(&lin, &params, true).unwrap() == want,
                "{lanes} lanes"
            );
            stats.push(engine.stats());
        });
    }
    assert_eq!(stats[0].forked_waves, 0, "one lane never forks");
    assert_eq!(stats[0].fused_waves, stats[1].fused_waves);
    stats[1]
}

#[test]
fn a_block_form_wave_forks_across_lanes() {
    let stats = fork_decision(leaf_wave(|n| IdxExpr::Const(0).add(n), false));
    assert_eq!(stats.fused_waves, 1);
    let lanes = cortex_tensor::par::lanes();
    assert_eq!(stats.forked_waves, u64::from(lanes > 1), "{lanes} lanes");
}

#[test]
fn a_wave_not_in_block_form_fuses_but_runs_unforked() {
    let stats = fork_decision(leaf_wave(|n| n.mul(IdxExpr::Const(2)), false));
    assert_eq!((stats.fused_waves, stats.forked_waves), (1, 0));
}

#[test]
fn a_wave_reading_its_sibling_row_is_refused_fusion() {
    let stats = fork_decision(leaf_wave(|n| IdxExpr::Const(0).add(n), true));
    assert_eq!((stats.fused_waves, stats.forked_waves), (0, 0));
}

/// The phase timers run only on an observed engine. A warm engine whose
/// [`Engine::stats`] nobody read makes no clock read — solo, in a batch
/// of 4 and under the `interp: true` oracle, on one lane and on two —
/// and its `*_ns` fields stay 0. Once read, the same runs time their
/// gather, GEMM and epilogue phases, and every other output, `Profile`
/// and counter is unchanged. A rebuilt engine keeps the observed state.
#[test]
fn unobserved_engines_read_no_clock() {
    use super::stopwatch::reads;
    use super::{ExecStats, RunOutput};
    use cortex_models::{treelstm, LeafInit};
    use cortex_tensor::par;
    let model = treelstm::tree_lstm(16, LeafInit::Zero);
    let program = model.lower(&RaSchedule::default()).unwrap();
    let mut params = Params::new();
    for (name, t) in model.params.iter() {
        params.set(name, t.clone());
    }
    let lins: Vec<Linearized> = (0..4u64)
        .map(|s| {
            let tree = datasets::random_binary_tree(5 + 3 * s as usize, s);
            Linearizer::new().linearize(&tree).unwrap()
        })
        .collect();
    let refs: Vec<&Linearized> = lins.iter().collect();
    let untimed = |s: ExecStats| ExecStats {
        gather_ns: 0,
        gemm_ns: 0,
        epilogue_ns: 0,
        serve_ns: 0,
        ..s
    };
    let oracle = ExecOptions {
        interp: true,
        ..ExecOptions::default()
    };
    for lanes in [1, 2] {
        for (path, opts, batch) in [
            ("solo", ExecOptions::default(), 1),
            ("batch of 4", ExecOptions::default(), 4),
            ("oracle", oracle, 4),
        ] {
            let ctx = format!("{path}, {lanes} lanes");
            // One run, with the clock reads it made on this thread.
            let run = |engine: &mut Engine| -> (Vec<RunOutput>, u64) {
                let before = reads();
                let outs = par::with_lanes(lanes, || match batch {
                    1 => vec![engine.execute(&lins[0], &params, true).unwrap()],
                    _ => engine.execute_many(&refs[..batch], &params, true).unwrap(),
                });
                (outs, reads() - before)
            };
            let mut engine = Engine::with_options(&program, opts);
            run(&mut engine);
            let (quiet, quiet_reads) = run(&mut engine);
            assert_eq!(quiet_reads, 0, "{ctx}: unobserved");
            let quiet_stats = engine.stats();
            assert_eq!(quiet_stats, untimed(quiet_stats), "{ctx}: no phase timed");
            let (timed, timed_reads) = run(&mut engine);
            let stats = engine.stats();
            assert!(
                stats.gather_ns > 0 && stats.gemm_ns > 0 && stats.epilogue_ns > 0,
                "{ctx}: observed phases timed, {stats:?}"
            );
            // On one lane every timer runs on this thread.
            assert!(lanes > 1 || timed_reads > 0, "{ctx}: observed");
            assert!(timed == quiet, "{ctx}: outputs and Profiles");
            assert_eq!(untimed(stats), quiet_stats, "{ctx}: counters");
            let mut rebuilt = engine.rebuilt();
            run(&mut rebuilt);
            assert!(rebuilt.stats().gather_ns > 0, "{ctx}: rebuilt observed");
            let mut fresh = Engine::with_options(&program, opts).rebuilt();
            run(&mut fresh);
            assert_eq!(run(&mut fresh).1, 0, "{ctx}: rebuilt unobserved");
        }
    }
}
