//! CI gate on the paper's fused cell kernel (§4–§5): every model of the
//! zoo must run some wave as one fused row program. A wave fuses only
//! when its rows are disjoint, so this also gates that the check does
//! not refuse the bodies it exists to admit.

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
fn every_model_runs_fused_waves() {
    for id in ALL_MODELS {
        let model = id.build(16);
        let program = model
            .lower(&RaSchedule::default())
            .unwrap_or_else(|e| panic!("{}: lower failed: {e}", model.name));
        let mut engine = Engine::new(&program);
        let lin = Linearizer::new().linearize(&id.dataset(2, 7)).unwrap();
        engine.execute(&lin, &model.params, true).unwrap();
        let fused_waves = engine.stats().fused_waves;
        println!(
            "{:<16} plan_ops={:<5} fused_waves={fused_waves}",
            model.name,
            engine.plan_stats().plan_ops
        );
        assert!(fused_waves > 0, "{}: no wave fused", model.name);
    }
}
