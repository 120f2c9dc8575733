//! Soundness suite for the wave and fusion legality checks: with the `checked`
//! feature, the runtime records every wave gather, store, and fused
//! row-pass access into a shadow state and asserts it stays inside what
//! the static analyses claimed (gathered cells are never stored by the
//! same wave; fused row passes touch only their own row). Runs every
//! Table 2 model under the four Fig. 10a ablation schedules on both
//! runtimes (pc and interp oracle) — any violation panics the test.
#![cfg(feature = "checked")]

use cortex_backend::exec::{Engine, ExecOptions};
use cortex_bench_harness::experiments::fig10::ablation_schedules;
use cortex_bench_harness::registry::ModelId;
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

#[test]
fn every_model_and_schedule_runs_with_zero_shadow_violations() {
    let mut checks = 0u64;
    for id in ALL_MODELS {
        let model = id.build(16);
        let lin = Linearizer::new().linearize(&id.dataset(2, 7)).unwrap();
        for (tag, schedule) in ablation_schedules() {
            let program = model
                .lower(&schedule)
                .unwrap_or_else(|e| panic!("{} [{tag}]: lower failed: {e}", model.name));
            for opts in [ExecOptions::default(), ExecOptions::interpreted()] {
                let mut engine = Engine::with_options(&program, opts);
                engine
                    .execute(&lin, &model.params, true)
                    .unwrap_or_else(|e| panic!("{} [{tag}]: run failed: {e}", model.name));
                checks += engine.stats().shadow_checks;
            }
        }
    }
    // The suite is vacuous if the hooks never fired: the batched models'
    // default-schedule runs must have recorded wave accesses.
    assert!(checks > 0, "shadow hooks recorded no accesses at all");
}
