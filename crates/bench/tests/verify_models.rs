//! Acceptance gate for the compile-pipeline verifier: every Table 2
//! model's lowered ExecPlan passes `Program::verify()` with zero
//! findings — under every schedule of [`schedules`], for both lowerings
//! (the batched wavefront engine and the per-element one), and on the
//! engine a serving front rebuilds after a contained panic — and admits
//! its own Table 2 dataset through intake validation.

use cortex_backend::exec::{Engine, ExecOptions};
use cortex_bench_harness::registry::ModelId;
use cortex_core::ra::{BarrierMode, LeafCheckMode, RaSchedule};
use cortex_ds::linearizer::Linearizer;

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

/// Every schedule the backend's own verifier test lowers TreeRNN
/// under, by name: between them they emit `Branch`/`Jump` ops (no
/// specialization), unrolled and peeled loops, and extra barriers. All
/// nine models lower under each, so none is skipped.
fn schedules() -> [(&'static str, RaSchedule); 5] {
    [
        ("default", RaSchedule::default()),
        ("unoptimized", RaSchedule::unoptimized()),
        (
            "unspecialized + load leaf check",
            RaSchedule {
                specialize: false,
                leaf_check: LeafCheckMode::Load,
                ..RaSchedule::default()
            },
        ),
        (
            "unroll 2",
            RaSchedule {
                unroll: Some(2),
                ..RaSchedule::default()
            },
        ),
        (
            "peel 4 + conservative barriers",
            RaSchedule {
                peel: Some(4),
                barrier: BarrierMode::Conservative,
                ..RaSchedule::default()
            },
        ),
    ]
}

#[test]
fn every_model_plan_verifies_at_build_and_after_rebuilds() {
    for id in ALL_MODELS {
        let model = id.build(16);
        for (sched, schedule) in schedules() {
            let what = format!("{} under {sched}", model.name);
            let program = model
                .lower(&schedule)
                .unwrap_or_else(|e| panic!("{what}: lower failed: {e}"));
            let mut engine = Engine::new(&program);
            assert_eq!(engine.verified(), Ok(()), "{what}: fresh build must verify");
            assert!(
                engine.plan_arity() <= model.max_children,
                "{what}: plan arity {} exceeds the model's max_children {}",
                engine.plan_arity(),
                model.max_children
            );
            // The per-element lowering verifies too, under the runtime
            // switches, and a rebuilt engine keeps its plan's verdict.
            for opts in [
                ExecOptions::default(),
                ExecOptions {
                    bulk: false,
                    ..ExecOptions::default()
                },
            ] {
                let per_element = Engine::per_element(&program, opts);
                assert_eq!(
                    per_element.verified(),
                    Ok(()),
                    "{what}: per-element build under {opts:?} must verify"
                );
                assert_eq!(per_element.rebuilt().verified(), Ok(()), "{what}");
            }
            engine.set_options(ExecOptions::interpreted());
            assert_eq!(engine.rebuilt().verified(), Ok(()), "{what}");
        }
    }
}

/// The guarded/exact split the arity-intake check relies on: DagRnn
/// Select-guards every child read (any arity admissible); every other
/// model reads its child slots unguarded and so requires full arity on
/// internal nodes. A model silently changing camp would change which
/// inputs the engine refuses.
#[test]
fn required_arity_matches_each_models_guardedness() {
    for id in ALL_MODELS {
        let model = id.build(16);
        let program = model.lower(&RaSchedule::default()).unwrap();
        let engine = Engine::new(&program);
        let expected = match id {
            ModelId::DagRnn => 0,
            _ => engine.plan_arity(),
        };
        assert_eq!(
            engine.plan_required_arity(),
            expected,
            "{}: unexpected unguarded child-read arity",
            model.name
        );
    }
}

#[test]
fn every_model_admits_its_own_dataset() {
    for id in ALL_MODELS {
        let model = id.build(16);
        let program = model.lower(&RaSchedule::default()).unwrap();
        let engine = Engine::new(&program);
        let structure = id.dataset(2, 7);
        let lin = Linearizer::new()
            .linearize(&structure)
            .unwrap_or_else(|e| panic!("{}: linearize failed: {e}", model.name));
        engine
            .validate_input(&lin)
            .unwrap_or_else(|e| panic!("{}: own dataset refused: {e}", model.name));
        assert!(
            engine.footprint(&lin) > 0,
            "{}: footprint estimate must be positive",
            model.name
        );
    }
}
