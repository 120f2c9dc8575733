//! Property test for the plan runtime's dispatch: lowering to the flat
//! `Program` and executing it by program counter must be completely
//! unobservable. For every Table 2 model, under every Fig. 10 ablation
//! schedule, over random forests, the pc engine (the default) and the
//! AST-walking interp oracle must produce bit-identical outputs AND
//! bit-identical `Profile` counters — both solo and through a depth-16
//! serving batch, where the pc runtime parks and resumes at super-wave
//! flushes.

use cortex_backend::exec::{Engine, ExecOptions};
use cortex_bench_harness::experiments::fig10::ablation_schedules;
use cortex_bench_harness::registry::ModelId;
use cortex_ds::linearizer::Linearizer;
use cortex_rng::Rng;

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
            // value (pc + loop records) and must resume exactly where
            // the oracle's frame machine does.
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
