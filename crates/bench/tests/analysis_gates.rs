//! CI gates on the static-analysis results: the parallel-safety
//! certifier must certify the wave GEMM surfaces of the headline
//! batched models as `RowDisjoint` (the contract the multicore roadmap
//! item consumes), and the analysis counters must flow end to end from
//! `PlanStats` into `Engine::stats()`.

use cortex_backend::exec::Engine;
use cortex_bench_harness::registry::ModelId;
use cortex_core::ra::RaSchedule;
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
fn wave_surfaces_of_batched_models_certify_row_disjoint() {
    for id in ALL_MODELS {
        let model = id.build(16);
        let program = model
            .lower(&RaSchedule::default())
            .unwrap_or_else(|e| panic!("{}: lower failed: {e}", model.name));
        let plan = Engine::new(&program).plan_stats();
        println!(
            "{:<16} par_safe_waves={:<2} par_unsafe_waves={}",
            model.name, plan.par_safe_waves, plan.par_unsafe_waves
        );
        if matches!(id, ModelId::TreeLstm | ModelId::TreeGru | ModelId::SeqLstm) {
            assert!(
                plan.par_safe_waves > 0,
                "{}: the wave GEMM surfaces must carry RowDisjoint certificates",
                model.name
            );
        }
    }
}

#[test]
fn analysis_counters_flow_into_engine_stats() {
    for id in ALL_MODELS {
        let model = id.build(16);
        let program = model.lower(&RaSchedule::default()).unwrap();
        let mut engine = Engine::new(&program);
        let lin = Linearizer::new().linearize(&id.dataset(2, 7)).unwrap();
        engine.execute(&lin, &model.params, true).unwrap();
        let stats = engine.stats();
        let plan = engine.plan_stats();
        assert_eq!(
            stats.par_safe_waves, plan.par_safe_waves as u64,
            "{}",
            model.name
        );
        assert_eq!(
            stats.par_unsafe_waves,
            stats.par_unsafe_by_reason.iter().sum::<u64>(),
            "{}: the reason histogram must partition par_unsafe_waves",
            model.name
        );
    }
}
