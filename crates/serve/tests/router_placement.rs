//! Placement independence: the router's topology decisions must never
//! change *what* is computed.
//!
//! The same fixed input set, across three models, runs through
//! structurally different topologies — one shard, three shards, three
//! shards under a deadline polled after every submit, and a pair whose
//! shard 0 faults every launch (forcing a retry for every ticket placed
//! there). In every configuration, every ticket must resolve `Ok` with
//! outputs *and* `Profile` bit-identical to a solo run on a clean
//! engine: which shard served a request, and whether a retry moved it,
//! are invisible in the result.

use std::collections::HashMap;
use std::rc::Rc;
use std::time::Duration;

use cortex_backend::exec::{Engine, FaultAction};
use cortex_core::ilir::IlirProgram;
use cortex_core::ra::RaSchedule;
use cortex_ds::linearizer::{Linearized, Linearizer};
use cortex_ds::{datasets, RecStructure};
use cortex_models::{seq, treegru, treelstm, LeafInit, Model};
use cortex_serve::faults::{silence_injected_panics, FaultInjector};
use cortex_serve::{
    BatcherOptions, RetryPolicy, Router, RouterOptions, RouterStats, RouterTicket, TestClock,
};

const INPUTS_PER_MODEL: usize = 6;

/// The topology whose shard 0 faults every launch.
const FAULTING: &str = "2 shards, shard 0 faults every launch (its tickets retry)";

fn the_models() -> Vec<Model> {
    vec![
        treelstm::tree_lstm(16, LeafInit::Embedding),
        treegru::tree_gru(16, LeafInit::Embedding),
        seq::seq_lstm(16),
    ]
}

/// A fixed, seed-deterministic input set per model.
fn the_inputs() -> Vec<Vec<Linearized>> {
    let gen = |m: usize, j: usize| -> RecStructure {
        let seed = (m as u64) * 100 + j as u64 + 1;
        if m == 2 {
            datasets::sequence(4 + j, seed)
        } else {
            datasets::random_binary_tree(4 + j, seed)
        }
    };
    (0..3)
        .map(|m| {
            (0..INPUTS_PER_MODEL)
                .map(|j| Linearizer::new().linearize(&gen(m, j)).expect("linearizes"))
                .collect()
        })
        .collect()
}

struct Topology {
    label: &'static str,
    opts: RouterOptions,
    shards: usize,
    shard_opts: BatcherOptions,
    /// Submit with this deadline budget.
    deadline: Option<Duration>,
    /// Poll each ticket once right after submitting it (a pump, or a
    /// skipped one, while the queue is still warm).
    poll_after_submit: bool,
    /// Break shard 0 of every model (always-faulting launches).
    fault_shard0: bool,
}

fn quiet_opts() -> BatcherOptions {
    BatcherOptions {
        max_batch: 64,
        max_delay: Duration::from_secs(3600),
        queue_cap: 64,
        breaker_threshold: 0,
        ..BatcherOptions::default()
    }
}

/// Runs the fixed input set through one topology and asserts every
/// ticket resolves `Ok`, bit-identical to a clean solo run. Returns the
/// router stats and how many tickets were first placed on shard 0, for
/// topology-specific assertions.
fn run_topology(
    topo: &Topology,
    models: &[Model],
    programs: &[IlirProgram],
    inputs: &[Vec<Linearized>],
) -> (RouterStats, usize) {
    let clock = TestClock::new();
    let mut router = Router::new(topo.opts).with_clock(Rc::new(clock.clone()));
    let ids: Vec<_> = models
        .iter()
        .zip(programs)
        .map(|(m, p)| router.add_model(&m.name, p, &m.params, topo.shards, topo.shard_opts))
        .collect();
    if topo.fault_shard0 {
        for &id in &ids {
            let (hook, _h) = FaultInjector::new(3)
                .always(FaultAction::Err)
                .launches_only()
                .into_hook();
            assert!(router.set_shard_fault_hook(id, 0, Some(hook)));
        }
    }

    // Interleave submissions across models, remembering what each
    // ticket carried.
    let mut carried: HashMap<RouterTicket, (usize, usize)> = HashMap::new();
    let mut resolved: HashMap<RouterTicket, cortex_serve::Response> = HashMap::new();
    // Submission order interleaves across models on purpose, so both
    // indices stay explicit.
    #[allow(clippy::needless_range_loop)]
    for j in 0..INPUTS_PER_MODEL {
        for m in 0..models.len() {
            let t = router
                .submit_with_deadline(ids[m], inputs[m][j].clone(), topo.deadline)
                .unwrap_or_else(|e| panic!("{}: admission refused: {e}", topo.label));
            carried.insert(t, (m, j));
            if topo.poll_after_submit {
                if let Some(r) = router
                    .poll(t)
                    .unwrap_or_else(|e| panic!("{}: early failure: {e}", topo.label))
                {
                    resolved.insert(t, r);
                }
            }
        }
    }
    // Nothing has flushed yet (no queue reaches its flush depth and the
    // clock stands still), so shard 0 holds every ticket first placed
    // on it.
    let first_on_shard0: usize = ids.iter().map(|&id| router.health(id)[0].queued).sum();
    for (t, outcome) in router.drain() {
        match outcome {
            Ok(r) => {
                resolved.insert(t, r);
            }
            Err(e) => panic!("{}: ticket {t:?} failed: {e}", topo.label),
        }
    }

    // Every ticket resolved, bit-identical to a clean solo run.
    assert_eq!(resolved.len(), carried.len(), "{}", topo.label);
    let mut solo_engines: Vec<Engine<'_>> = programs.iter().map(Engine::new).collect();
    for (t, response) in &resolved {
        let (m, j) = carried[t];
        let (solo_out, solo_prof) = solo_engines[m]
            .execute(&inputs[m][j], &models[m].params, true)
            .expect("clean solo run");
        assert_eq!(
            response.profile, solo_prof,
            "{}: profile differs for model {m} input {j}",
            topo.label
        );
        assert_eq!(solo_out.len(), response.outputs.len(), "{}", topo.label);
        for (id, tensor) in &solo_out {
            assert_eq!(
                &response.outputs[id], tensor,
                "{}: outputs differ for model {m} input {j}",
                topo.label
            );
        }
    }
    let stats = router.stats();
    assert_eq!(stats.submitted, (models.len() * INPUTS_PER_MODEL) as u64);
    assert_eq!(stats.resolved_ok, stats.submitted, "{}", topo.label);
    assert_eq!(stats.resolved_err, 0, "{}", topo.label);
    (stats, first_on_shard0)
}

#[test]
fn results_are_identical_across_placements_hedging_and_retries() {
    silence_injected_panics();
    let models = the_models();
    let programs: Vec<IlirProgram> = models
        .iter()
        .map(|m| m.lower(&RaSchedule::default()).expect("lowers"))
        .collect();
    let inputs = the_inputs();

    let zero_backoff = RetryPolicy {
        max_attempts: 3,
        backoff: Duration::ZERO,
        max_backoff: Duration::ZERO,
    };
    let topologies = vec![
        Topology {
            label: "solo shard",
            opts: RouterOptions::default(),
            shards: 1,
            shard_opts: quiet_opts(),
            deadline: None,
            poll_after_submit: false,
            fault_shard0: false,
        },
        Topology {
            label: "3 shards",
            opts: RouterOptions::default(),
            shards: 3,
            shard_opts: quiet_opts(),
            deadline: None,
            poll_after_submit: false,
            fault_shard0: false,
        },
        Topology {
            label: "3 shards, one-hour deadline, polled after every submit",
            opts: RouterOptions::default(),
            shards: 3,
            shard_opts: quiet_opts(),
            deadline: Some(Duration::from_secs(3600)),
            poll_after_submit: true,
            fault_shard0: false,
        },
        Topology {
            label: FAULTING,
            opts: RouterOptions {
                retry: zero_backoff,
                adaptive_depth: None,
                ..RouterOptions::default()
            },
            shards: 2,
            shard_opts: quiet_opts(),
            deadline: None,
            poll_after_submit: false,
            fault_shard0: true,
        },
    ];

    for topo in &topologies {
        let (stats, first_on_shard0) = run_topology(topo, &models, &programs, &inputs);
        if topo.label == FAULTING {
            assert!(stats.retries > 0, "the faulting shard took no ticket");
            assert_eq!(
                stats.retries, first_on_shard0 as u64,
                "every ticket placed on the faulting shard retried once"
            );
            assert_eq!(stats.retries_exhausted, 0);
        }
    }
}
