//! Router-level model-based fault-injection suite.
//!
//! Extends the per-shard suite (`model_based.rs`) one topology level
//! up: one [`Router`] serving **three models** (TreeLSTM, TreeGRU,
//! sequence-LSTM) on 2–3 shards each, every shard's engine under its
//! own deterministic fault stream (typed errors *and* panics), while a
//! seeded interleaving of `submit` / `poll` / `flush` / clock advances
//! / **shard kills** / health probes runs against it. The oracle holds
//! the same three invariants, now across retries, failovers and spills:
//!
//! 1. **Exactly-once resolution** — every accepted router ticket
//!    resolves exactly once, with a [`Response`] or a typed
//!    [`ServeError`]; kills and retries never lose or duplicate one.
//! 2. **Bit-identical survivors** — every `Ok` response equals a solo
//!    run on a clean engine exactly (outputs *and* `Profile`), no
//!    matter which shard served it, how many legs it took, or what
//!    faults its chunk-mates raised.
//! 3. **Accounting** — after a final drain nothing is pending, no
//!    shard batcher tracks a ticket, and
//!    `submitted == resolved_ok + resolved_err` in [`RouterStats`].
//!
//! Seeds come from `CORTEX_FAULT_SEEDS` (comma-separated, for CI
//! sweeps) with a fixed default set. A block of deterministic
//! lifecycle tests (least-loaded placement, spill, failover,
//! exhaustion, shutdown shedding, AIMD) pins the individual behaviors
//! the random suite exercises in aggregate.

use std::collections::HashMap;
use std::rc::Rc;
use std::time::Duration;

use cortex_backend::exec::{Engine, FaultAction};
use cortex_core::ilir::IlirProgram;
use cortex_core::ra::RaSchedule;
use cortex_ds::linearizer::{Linearized, Linearizer};
use cortex_ds::{datasets, RecStructure};
use cortex_models::{seq, treegru, treelstm, LeafInit, Model};
use cortex_rng::Rng;
use cortex_serve::faults::{silence_injected_panics, FaultInjector};
use cortex_serve::{
    AimdDepth, BatcherOptions, BreakerState, HealthPolicy, ModelId, Response, RetryPolicy, Router,
    RouterOptions, RouterStats, RouterTicket, ServeError, TestClock,
};

/// Seeds to sweep: `CORTEX_FAULT_SEEDS=1,2,3` overrides the default.
fn seeds() -> Vec<u64> {
    match std::env::var("CORTEX_FAULT_SEEDS") {
        Ok(s) => s.split(',').filter_map(|t| t.trim().parse().ok()).collect(),
        Err(_) => vec![11, 23, 47],
    }
}

fn the_models() -> Vec<Model> {
    vec![
        treelstm::tree_lstm(16, LeafInit::Embedding),
        treegru::tree_gru(16, LeafInit::Embedding),
        seq::seq_lstm(16),
    ]
}

fn gen_input(model_idx: usize, rng: &mut Rng) -> RecStructure {
    if model_idx == 2 {
        datasets::sequence(3 + rng.below_usize(10), rng.next_u64())
    } else {
        datasets::random_binary_tree(3 + rng.below_usize(8), rng.next_u64())
    }
}

fn lin(s: &RecStructure) -> Linearized {
    Linearizer::new().linearize(s).expect("linearizes")
}

/// The in-memory oracle: which accepted router tickets have not yet
/// resolved, and what (model, input) each carried.
struct Oracle {
    unresolved: HashMap<RouterTicket, (usize, Linearized)>,
    resolutions: u64,
}

impl Oracle {
    fn new() -> Self {
        Oracle {
            unresolved: HashMap::new(),
            resolutions: 0,
        }
    }

    fn accept(&mut self, ticket: RouterTicket, model_idx: usize, input: Linearized) {
        let prev = self.unresolved.insert(ticket, (model_idx, input));
        assert!(prev.is_none(), "ticket {ticket:?} accepted twice");
    }

    fn resolve(
        &mut self,
        ticket: RouterTicket,
        outcome: &Result<Response, ServeError>,
        solo_engines: &mut [Engine<'_>],
        models: &[Model],
    ) {
        let (model_idx, input) = self
            .unresolved
            .remove(&ticket)
            .unwrap_or_else(|| panic!("ticket {ticket:?} resolved twice (or never accepted)"));
        self.resolutions += 1;
        match outcome {
            Ok(response) => {
                let (solo_out, solo_prof) = solo_engines[model_idx]
                    .execute(&input, &models[model_idx].params, true)
                    .expect("clean solo run");
                assert_eq!(
                    response.profile, solo_prof,
                    "survivor profile must equal a solo run exactly"
                );
                assert_eq!(solo_out.len(), response.outputs.len());
                for (id, tensor) in &solo_out {
                    assert_eq!(
                        &response.outputs[id], tensor,
                        "survivor outputs must be bit-identical to a solo run"
                    );
                }
            }
            Err(e) => assert!(
                matches!(
                    e,
                    ServeError::DeadlineExceeded | ServeError::RetriesExhausted { .. }
                ),
                "only deadline misses and retry exhaustion are terminal here, got {e}"
            ),
        }
    }
}

/// One random interleaving against the full three-model topology.
fn run_router_interleaving(seed: u64) -> u64 {
    silence_injected_panics();
    let models = the_models();
    let programs: Vec<IlirProgram> = models
        .iter()
        .map(|m| m.lower(&RaSchedule::default()).expect("lowers"))
        .collect();
    let mut rng = Rng::new(seed);
    let clock = TestClock::new();

    // Random (seed-deterministic) topology configuration.
    let shard_opts = BatcherOptions {
        max_batch: 2 + rng.below_usize(6),
        max_delay: Duration::from_millis(rng.below_usize(8) as u64),
        queue_cap: 2 + rng.below_usize(6),
        deadline: None,
        breaker_threshold: rng.below_usize(4) as u32, // 0 disables
        breaker_reset: Duration::from_millis(1 + rng.below_usize(50) as u64),
        ..BatcherOptions::default()
    };
    let ropts = RouterOptions {
        retry: RetryPolicy {
            max_attempts: 1 + rng.below_usize(3) as u32,
            backoff: Duration::from_millis(rng.below_usize(5) as u64),
            max_backoff: Duration::from_millis(100),
        },
        adaptive_depth: if rng.bool() {
            Some(AimdDepth {
                start: 2 + rng.below_usize(8),
                min: 1,
                max: 32,
                window: 4,
            })
        } else {
            None
        },
        health: HealthPolicy::default(),
    };
    let mut router = Router::new(ropts).with_clock(Rc::new(clock.clone()));

    let mut ids: Vec<ModelId> = Vec::new();
    let mut shard_counts: Vec<usize> = Vec::new();
    for (i, (model, program)) in models.iter().zip(&programs).enumerate() {
        let shards = 2 + rng.below_usize(2);
        let id = router.add_model(&model.name, program, &model.params, shards, shard_opts);
        // Each shard gets its own independent fault stream.
        for (s, (hook, _handle)) in FaultInjector::new(seed ^ (0xFA17 + i as u64))
            .with_rates(0.05, 0.03)
            .into_shard_hooks(shards)
            .into_iter()
            .enumerate()
        {
            assert!(router.set_shard_fault_hook(id, s, Some(hook)));
        }
        ids.push(id);
        shard_counts.push(shards);
    }

    let mut solo_engines: Vec<Engine<'_>> = programs.iter().map(Engine::new).collect();
    let mut oracle = Oracle::new();
    let mut known: Vec<RouterTicket> = Vec::new();

    let ops = 80 + rng.below_usize(40);
    for _ in 0..ops {
        match rng.below_usize(10) {
            // submit (heaviest weight: traffic drives everything else)
            0..=3 => {
                let m = rng.below_usize(models.len());
                let input = lin(&gen_input(m, &mut rng));
                let budget = if rng.bool() {
                    Some(Duration::from_millis(5 + rng.below_usize(30) as u64))
                } else {
                    None
                };
                match router.submit_with_deadline(ids[m], input.clone(), budget) {
                    Ok(t) => {
                        oracle.accept(t, m, input);
                        known.push(t);
                    }
                    Err(e) => assert!(
                        matches!(e, ServeError::QueueFull),
                        "only full-topology refusals may come back from submit, got {e}"
                    ),
                }
            }
            // poll a random known ticket
            4..=5 => {
                if known.is_empty() {
                    continue;
                }
                let t = *rng.pick(&known);
                let resolved_before = !oracle.unresolved.contains_key(&t);
                match router.poll(t) {
                    Ok(None) => {}
                    Ok(Some(response)) => {
                        oracle.resolve(t, &Ok(response), &mut solo_engines, &models);
                    }
                    Err(e) => {
                        assert!(
                            !resolved_before,
                            "ticket {t:?} reported an error after already resolving: {e}"
                        );
                        oracle.resolve(t, &Err(e), &mut solo_engines, &models);
                    }
                }
            }
            // flush the whole topology
            6 => router.flush(),
            // advance time (deadlines, backoff, breaker)
            7 => clock.advance(Duration::from_millis(rng.below_usize(12) as u64)),
            // kill a shard — but never a model's last one
            8 => {
                let m = rng.below_usize(models.len());
                if router.alive_shards(ids[m]) > 1 {
                    let alive: Vec<usize> = router
                        .health(ids[m])
                        .iter()
                        .filter(|s| s.alive)
                        .map(|s| s.shard)
                        .collect();
                    let victim = *rng.pick(&alive);
                    assert!(router.kill_shard(ids[m], victim));
                }
            }
            // operator health probe: shape sanity only
            _ => {
                let m = rng.below_usize(models.len());
                let snapshots = router.health(ids[m]);
                assert_eq!(snapshots.len(), shard_counts[m]);
                for snap in &snapshots {
                    assert!(snap.error_rate >= 0.0 && snap.error_rate <= 1.0);
                    assert!(!snap.healthy || snap.alive, "healthy implies alive");
                }
            }
        }
    }

    // Final drain: every still-tracked ticket must resolve here.
    for (t, outcome) in router.drain() {
        oracle.resolve(t, &outcome, &mut solo_engines, &models);
    }
    assert!(
        oracle.unresolved.is_empty(),
        "tickets lost without resolution: {:?}",
        oracle.unresolved.keys().collect::<Vec<_>>()
    );
    assert_eq!(router.pending(), 0, "drain must settle every ticket");
    assert_eq!(router.unclaimed(), 0, "drain must hand every outcome back");
    for &id in &ids {
        assert!(router.shards_empty(id), "drain leaves no shard work behind");
    }
    let stats = router.stats();
    assert_eq!(
        stats.resolved_ok + stats.resolved_err,
        stats.submitted,
        "accounting: every admitted ticket resolves exactly once"
    );
    assert_eq!(
        stats.submitted, oracle.resolutions,
        "oracle saw every ticket"
    );
    oracle.resolutions
}

#[test]
fn random_router_interleavings_hold_invariants() {
    for seed in seeds() {
        let resolved = run_router_interleaving(seed);
        assert!(resolved > 0, "seed {seed}: the run must serve traffic");
    }
}

// ---------------------------------------------------------------------
// Deterministic lifecycle tests: each pins one behavior the random
// suite exercises in aggregate.
// ---------------------------------------------------------------------

/// A (program, model) pair the router can borrow from.
fn one_model() -> (IlirProgram, Model) {
    let model = treelstm::tree_lstm(16, LeafInit::Embedding);
    let program = model.lower(&RaSchedule::default()).expect("lowers");
    (program, model)
}

fn tree_input(seed: u64) -> Linearized {
    lin(&datasets::random_binary_tree(5, seed))
}

/// Shard options for deterministic tests: nothing fires on its own.
fn quiet_opts() -> BatcherOptions {
    BatcherOptions {
        max_batch: 64,
        max_delay: Duration::from_secs(3600),
        queue_cap: 64,
        breaker_threshold: 0,
        ..BatcherOptions::default()
    }
}

/// Queued requests per shard of `id`.
fn queued(router: &Router<'_>, id: ModelId) -> Vec<usize> {
    router.health(id).iter().map(|h| h.queued).collect()
}

/// A hook that fails every launch of the shard it is installed on.
fn always_faulting() -> cortex_backend::exec::FaultHook {
    FaultInjector::new(7)
        .always(FaultAction::Err)
        .launches_only()
        .into_hook()
        .0
}

/// Least-loaded placement, case by case: ties go to the lowest index; a
/// full shard spills to the next; a retry goes behind the shard it
/// failed on; an open breaker is skipped until no shard is healthy.
#[test]
fn placement_is_least_loaded_among_healthy_shards() {
    silence_injected_panics();
    let (program, model) = one_model();
    let no_aimd = RouterOptions {
        adaptive_depth: None,
        ..RouterOptions::default()
    };

    // Equal queues pick the lowest index.
    let mut router = Router::new(no_aimd);
    let id = router.add_model("m", &program, &model.params, 3, quiet_opts());
    let wants = [[1, 0, 0], [1, 1, 0], [1, 1, 1], [2, 1, 1]];
    for (i, want) in wants.iter().enumerate() {
        router.submit(id, tree_input(i as u64)).expect("admitted");
        assert_eq!(queued(&router, id), want, "after submit {i}");
    }
    assert_eq!(router.stats().spills, 0);
    assert!(router.drain().iter().all(|(_, o)| o.is_ok()));

    // A shard at queue_cap spills to the next one. B faults on shard 1
    // and waits out a 1 ms backoff while shard 0 fills to its cap of 2;
    // the retry tries shard 0 first (shard 1 failed last) and spills
    // back to shard 1.
    let clock = TestClock::new();
    let mut router = Router::new(RouterOptions {
        retry: RetryPolicy {
            max_attempts: 2,
            backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(1),
        },
        ..no_aimd
    })
    .with_clock(Rc::new(clock.clone()));
    let capped = BatcherOptions {
        queue_cap: 2,
        ..quiet_opts()
    };
    let id = router.add_model("m", &program, &model.params, 2, capped);
    assert!(router.set_shard_fault_hook(id, 1, Some(always_faulting())));
    router.submit(id, tree_input(1)).expect("admitted");
    let b = router.submit(id, tree_input(2)).expect("admitted");
    router.flush();
    assert_eq!(router.stats().resolved_ok, 1, "A ran on shard 0");
    assert!(router.set_shard_fault_hook(id, 1, None));
    for i in 3..6 {
        router.submit(id, tree_input(i)).expect("admitted");
    }
    assert_eq!(queued(&router, id), [2, 1]);
    clock.advance(Duration::from_millis(1));
    assert_eq!(router.poll(b), Ok(None), "B is queued again");
    assert_eq!(queued(&router, id), [2, 2]);
    let stats = router.stats();
    assert_eq!((stats.retries, stats.spills), (1, 1));
    assert!(router.drain().iter().all(|(_, o)| o.is_ok()));

    // A retry avoids the shard that last failed when a sibling exists:
    // the tie would pick shard 0, where the request just faulted.
    let mut router = Router::new(RouterOptions {
        retry: RetryPolicy {
            max_attempts: 2,
            backoff: Duration::ZERO,
            max_backoff: Duration::ZERO,
        },
        ..no_aimd
    });
    let id = router.add_model("m", &program, &model.params, 2, quiet_opts());
    assert!(router.set_shard_fault_hook(id, 0, Some(always_faulting())));
    router.submit(id, tree_input(1)).expect("admitted");
    assert_eq!(queued(&router, id), [1, 0]);
    router.flush();
    assert_eq!(queued(&router, id), [0, 1], "the retry went to shard 1");
    assert_eq!(router.stats().retries, 1);
    assert!(router.drain().iter().all(|(_, o)| o.is_ok()));

    // A shard with an open breaker is skipped unless no shard is
    // healthy. One fault trips a shard's breaker for an hour (the
    // clock stands still), and one attempt means no retry.
    let mut router = Router::new(RouterOptions {
        retry: RetryPolicy {
            max_attempts: 1,
            ..RetryPolicy::default()
        },
        ..no_aimd
    })
    .with_clock(Rc::new(TestClock::new()));
    let tripping = BatcherOptions {
        breaker_threshold: 1,
        breaker_reset: Duration::from_secs(3600),
        ..quiet_opts()
    };
    let id = router.add_model("m", &program, &model.params, 2, tripping);
    let breakers = |router: &Router<'_>| -> Vec<BreakerState> {
        router.health(id).iter().map(|h| h.breaker).collect()
    };
    for shard in 0..2 {
        assert!(router.set_shard_fault_hook(id, shard, Some(always_faulting())));
        router
            .submit(id, tree_input(shard as u64))
            .expect("admitted");
        assert_eq!(
            queued(&router, id)[shard],
            1,
            "shard {shard} is the lowest-indexed shard with a closed breaker"
        );
        router.flush();
    }
    assert_eq!(breakers(&router), [BreakerState::Open, BreakerState::Open]);
    // No shard is healthy: every alive shard is a candidate again.
    router.submit(id, tree_input(7)).expect("admitted");
    router.submit(id, tree_input(8)).expect("admitted");
    assert_eq!(queued(&router, id), [1, 1]);
    let stats = router.stats();
    assert_eq!((stats.retries, stats.retries_exhausted), (0, 2));
    // The drain hands back the two exhausted tickets too.
    let outcomes = router.drain();
    let ok = outcomes.iter().filter(|(_, o)| o.is_ok()).count();
    assert_eq!((outcomes.len(), ok), (4, 2), "degraded shards serve");
}

/// Two cap-2 shards take four requests, two each, and refuse the fifth.
/// Least-loaded placement never leaves one shard hot: the least-loaded
/// shard is full only when both are, so a first dispatch never spills
/// (a retry can; see `placement_is_least_loaded_among_healthy_shards`).
#[test]
fn hot_shard_spills_before_rejecting() {
    let (program, model) = one_model();
    let mut router = Router::new(RouterOptions {
        adaptive_depth: None,
        ..RouterOptions::default()
    });
    let opts = BatcherOptions {
        queue_cap: 2,
        ..quiet_opts()
    };
    let id = router.add_model("m", &program, &model.params, 2, opts);
    let mut tickets = Vec::new();
    for i in 0..4 {
        tickets.push(router.submit(id, tree_input(i)).expect("capacity left"));
    }
    assert_eq!(
        router.submit(id, tree_input(9)),
        Err(ServeError::QueueFull),
        "both shards at cap"
    );
    assert_eq!(queued(&router, id), [2, 2]);
    let stats = router.stats();
    assert_eq!(stats.spills, 0, "placement alternated; nothing spilled");
    assert_eq!(stats.rejected, 1);
    let outcomes = router.drain();
    assert_eq!(outcomes.len(), 4);
    assert!(outcomes.iter().all(|(_, o)| o.is_ok()));
    assert_eq!(router.stats().resolved_ok, 4);
}

#[test]
fn kill_shard_fails_over_without_consuming_retry_budget() {
    let (program, model) = one_model();
    let mut router = Router::new(RouterOptions {
        adaptive_depth: None,
        ..RouterOptions::default()
    });
    let id = router.add_model("m", &program, &model.params, 2, quiet_opts());
    for i in 0..5 {
        router.submit(id, tree_input(i)).expect("admitted");
    }
    assert_eq!(queued(&router, id), [3, 2]);
    assert!(router.kill_shard(id, 0), "shard 0 was alive");
    assert!(!router.kill_shard(id, 0), "second kill is a no-op");
    assert_eq!(router.alive_shards(id), 1);
    assert_eq!(queued(&router, id), [0, 5]);
    let stats = router.stats();
    assert_eq!(stats.shard_kills, 1);
    assert_eq!(
        stats.failovers, 3,
        "every leg queued on shard 0 moved to shard 1"
    );
    assert_eq!(stats.retries, 0, "failover is free");
    let outcomes = router.drain();
    assert_eq!(outcomes.len(), 5);
    assert!(outcomes.iter().all(|(_, o)| o.is_ok()));
}

#[test]
fn killing_the_last_shard_surfaces_unavailable() {
    let (program, model) = one_model();
    let mut router = Router::new(RouterOptions {
        adaptive_depth: None,
        ..RouterOptions::default()
    });
    let id = router.add_model("m", &program, &model.params, 1, quiet_opts());
    let t = router.submit(id, tree_input(1)).expect("admitted");
    assert!(router.kill_shard(id, 0));
    assert_eq!(router.alive_shards(id), 0);
    assert_eq!(
        router.poll(t),
        Err(ServeError::Unavailable),
        "an orphaned ticket with no shard left resolves Unavailable"
    );
    assert_eq!(
        router.submit(id, tree_input(2)),
        Err(ServeError::Unavailable),
        "a dead model refuses admission"
    );
    let stats = router.stats();
    assert_eq!(stats.submitted, 1);
    assert_eq!(stats.resolved_err, 1);
    assert_eq!(stats.rejected, 1);
}

#[test]
fn faulted_requests_retry_on_a_sibling_and_exhaust_typed() {
    silence_injected_panics();
    let (program, model) = one_model();
    // Shard 0 faults every launch; shard 1 is clean. The ticket lands
    // on shard 0 (the tie goes to the lowest index), and one retry on
    // shard 1 rescues it.
    let mut router = Router::new(RouterOptions {
        retry: RetryPolicy {
            max_attempts: 2,
            backoff: Duration::ZERO,
            max_backoff: Duration::ZERO,
        },
        adaptive_depth: None,
        ..RouterOptions::default()
    });
    let id = router.add_model("m", &program, &model.params, 2, quiet_opts());
    assert!(router.set_shard_fault_hook(id, 0, Some(always_faulting())));
    let t = router.submit(id, tree_input(1)).expect("admitted");
    let outcomes = router.drain();
    assert_eq!(outcomes.len(), 1);
    assert_eq!(outcomes[0].0, t);
    assert!(outcomes[0].1.is_ok(), "the retry leg on shard 1 succeeds");
    let stats = router.stats();
    assert_eq!(stats.retries, 1);
    assert_eq!(stats.retries_exhausted, 0);

    // Both shards broken: the budget runs out, typed.
    let mut router = Router::new(RouterOptions {
        retry: RetryPolicy {
            max_attempts: 2,
            backoff: Duration::ZERO,
            max_backoff: Duration::ZERO,
        },
        adaptive_depth: None,
        ..RouterOptions::default()
    });
    let id = router.add_model("m", &program, &model.params, 2, quiet_opts());
    for s in 0..2 {
        assert!(router.set_shard_fault_hook(id, s, Some(always_faulting())));
    }
    router.submit(id, tree_input(1)).expect("admitted");
    let outcomes = router.drain();
    match &outcomes[0].1 {
        Err(ServeError::RetriesExhausted { attempts, last }) => {
            assert_eq!(*attempts, 2);
            assert!(matches!(**last, ServeError::EngineFault { .. }));
        }
        other => panic!("expected RetriesExhausted, got {other:?}"),
    }
    assert_eq!(router.stats().retries_exhausted, 1);
}

#[test]
fn shutdown_sheds_the_remainder_typed_and_closes_admission() {
    let (program, model) = one_model();
    let clock = TestClock::new();
    let mut router = Router::new(RouterOptions {
        adaptive_depth: None,
        ..RouterOptions::default()
    })
    .with_clock(Rc::new(clock.clone()));
    let id = router.add_model("m", &program, &model.params, 1, quiet_opts());
    for i in 0..4 {
        router.submit(id, tree_input(i)).expect("admitted");
    }
    // A zero budget sheds everything still in flight — typed, not lost.
    let outcomes = router.shutdown(Duration::ZERO);
    assert_eq!(outcomes.len(), 4);
    assert!(outcomes
        .iter()
        .all(|(_, o)| matches!(o, Err(ServeError::Shed))));
    let stats = router.stats();
    assert_eq!(stats.shed, 4);
    assert_eq!(stats.resolved_ok + stats.resolved_err, stats.submitted);
    assert_eq!(router.pending(), 0);
    assert_eq!(
        router.submit(id, tree_input(9)),
        Err(ServeError::Draining),
        "admission is closed after shutdown"
    );
}

#[test]
fn deadline_misses_resolve_at_the_router() {
    let (program, model) = one_model();
    let clock = TestClock::new();
    let mut router = Router::new(RouterOptions {
        adaptive_depth: None,
        ..RouterOptions::default()
    })
    .with_clock(Rc::new(clock.clone()));
    let id = router.add_model("m", &program, &model.params, 1, quiet_opts());
    let t = router
        .submit_with_deadline(id, tree_input(1), Some(Duration::from_millis(5)))
        .expect("admitted");
    clock.advance(Duration::from_millis(6));
    assert_eq!(router.poll(t), Err(ServeError::DeadlineExceeded));
    assert_eq!(router.stats().deadline_misses, 1);
}

#[test]
fn aimd_depth_halves_on_misses_and_grows_back() {
    let (program, model) = one_model();
    let clock = TestClock::new();
    let mut router = Router::new(RouterOptions {
        adaptive_depth: Some(AimdDepth {
            start: 8,
            min: 1,
            max: 16,
            window: 2,
        }),
        ..RouterOptions::default()
    })
    .with_clock(Rc::new(clock.clone()));
    let id = router.add_model("m", &program, &model.params, 1, quiet_opts());
    assert_eq!(router.health(id)[0].max_batch, 8, "AIMD start overrides");

    // Two deadline misses in one window: multiplicative decrease.
    for i in 0..2 {
        router
            .submit_with_deadline(id, tree_input(i), Some(Duration::from_millis(1)))
            .expect("admitted");
    }
    clock.advance(Duration::from_millis(2));
    router.flush();
    assert_eq!(router.stats().deadline_misses, 2);
    assert_eq!(router.health(id)[0].max_batch, 4, "halved after misses");
    assert_eq!(router.stats().depth_decreases, 1);

    // A clean window: additive increase.
    for i in 0..2 {
        router.submit(id, tree_input(10 + i)).expect("admitted");
    }
    router.flush();
    assert_eq!(router.health(id)[0].max_batch, 5, "grew by one");
    assert_eq!(router.stats().depth_increases, 1);
}

/// One deadline-pressured stream: 64 requests with a 20 ms budget arrive
/// 2 ms apart on one shard whose `max_delay` never fires, so only the
/// flush depth decides who makes the deadline.
fn adaptive_depth_run(adaptive_depth: Option<AimdDepth>) -> RouterStats {
    let (program, model) = one_model();
    let clock = TestClock::new();
    let mut router = Router::new(RouterOptions {
        adaptive_depth,
        ..RouterOptions::default()
    })
    .with_clock(Rc::new(clock.clone()));
    let opts = BatcherOptions {
        max_batch: 16,
        queue_cap: 128,
        ..quiet_opts()
    };
    let id = router.add_model("m", &program, &model.params, 1, opts);
    for i in 0..64 {
        let t = router
            .submit_with_deadline(id, tree_input(i), Some(Duration::from_millis(20)))
            .expect("admitted");
        clock.advance(Duration::from_millis(2));
        let _ = router.poll(t);
    }
    router.drain();
    router.stats()
}

/// On the identical clocked stream, the AIMD controller dominates a
/// fixed depth of 16: the fixed shard waits ~32 ms to fill and misses
/// most of the stream; AIMD halves its depth after the first missed
/// window and misses no more, serving at least as many requests.
#[test]
fn aimd_depth_dominates_fixed_depth16_on_the_same_stream() {
    let fixed = adaptive_depth_run(None);
    let aimd = adaptive_depth_run(Some(AimdDepth {
        start: 16,
        min: 1,
        max: 64,
        window: 4,
    }));
    assert!(
        fixed.deadline_misses > 40,
        "the fixed baseline must be under pressure, missed {}",
        fixed.deadline_misses
    );
    assert!(aimd.deadline_misses <= fixed.deadline_misses);
    assert!(aimd.resolved_ok >= fixed.resolved_ok);
    assert!(aimd.depth_decreases >= 1);
    for s in [&fixed, &aimd] {
        assert_eq!(s.resolved_ok + s.resolved_err, s.submitted);
    }
}
