//! Model-based fault-injection suite for the serving front.
//!
//! Random interleavings of `submit` / `submit_many` / `poll` / `flush` /
//! `drain` / clock advances / executor reconfiguration run against a
//! [`Batcher`] whose engine is under deterministic random fault
//! injection (typed errors *and* panics at launch/GEMM sites), checked
//! against an in-memory oracle holding three invariants:
//!
//! 1. **Exactly-once resolution** — every accepted ticket resolves
//!    exactly once: with a [`Response`] or a typed [`ServeError`]; no
//!    ticket is lost, none resolves twice.
//! 2. **Bit-identical survivors** — every `Ok` response (including
//!    responses served while the circuit breaker holds the engine
//!    degraded, and responses re-run after a chunk-mate's contained
//!    panic) equals a solo run on a clean engine exactly: outputs *and*
//!    `Profile` counters.
//! 3. **Accounting** — after a final drain the batcher is empty and
//!    `submitted == resolved_ok + resolved_err` in [`ServeStats`].
//!
//! The same harness runs across three models (TreeLSTM, TreeGRU,
//! sequence-LSTM) so the invariants hold for tree, gated-tree, and
//! width-1 sequence wave shapes alike. Seeds come from
//! `CORTEX_FAULT_SEEDS` (comma-separated, for CI sweeps) with a fixed
//! default set.

use std::collections::HashMap;
use std::rc::Rc;
use std::time::Duration;

use cortex_backend::exec::{Engine, ExecOptions, FaultAction};
use cortex_core::ra::RaSchedule;
use cortex_ds::linearizer::{Linearized, Linearizer};
use cortex_ds::{datasets, RecStructure};
use cortex_models::{seq, treegru, treelstm, LeafInit, Model};
use cortex_rng::Rng;
use cortex_serve::faults::{silence_injected_panics, FaultInjector};
use cortex_serve::{Batcher, BatcherOptions, Response, ServeError, TestClock, Ticket};

/// Seeds to sweep: `CORTEX_FAULT_SEEDS=1,2,3` overrides the default.
fn seeds() -> Vec<u64> {
    match std::env::var("CORTEX_FAULT_SEEDS") {
        Ok(s) => s.split(',').filter_map(|t| t.trim().parse().ok()).collect(),
        Err(_) => vec![11, 23, 47],
    }
}

/// The in-memory oracle: which accepted tickets have not yet resolved,
/// and what input each carried (for the solo-run comparison).
struct Oracle {
    unresolved: HashMap<Ticket, Linearized>,
    resolutions: u64,
}

impl Oracle {
    fn new() -> Self {
        Oracle {
            unresolved: HashMap::new(),
            resolutions: 0,
        }
    }

    fn accept(&mut self, ticket: Ticket, lin: Linearized) {
        let prev = self.unresolved.insert(ticket, lin);
        assert!(prev.is_none(), "ticket {ticket:?} accepted twice");
    }

    /// Records a terminal outcome, checking exactly-once resolution and
    /// (for `Ok`) bit-identity against a solo run on the clean engine.
    fn resolve(
        &mut self,
        ticket: Ticket,
        outcome: &Result<Response, ServeError>,
        solo_engine: &mut Engine<'_>,
        model: &Model,
    ) {
        let lin = self
            .unresolved
            .remove(&ticket)
            .unwrap_or_else(|| panic!("ticket {ticket:?} resolved twice (or never accepted)"));
        self.resolutions += 1;
        if let Ok(response) = outcome {
            let (solo_out, solo_prof) = solo_engine
                .execute(&lin, &model.params, true)
                .expect("clean solo run");
            assert_eq!(
                response.profile, solo_prof,
                "survivor profile must equal a solo run exactly"
            );
            assert_eq!(
                solo_out.len(),
                response.outputs.len(),
                "survivor output set must match a solo run"
            );
            for (id, tensor) in &solo_out {
                assert_eq!(
                    &response.outputs[id], tensor,
                    "survivor outputs must be bit-identical to a solo run"
                );
            }
        }
    }
}

/// One random interleaving against one model. Returns the number of
/// tickets resolved, for the smoke assertion that the run did work.
fn run_interleaving(model: &Model, gen_input: &dyn Fn(&mut Rng) -> RecStructure, seed: u64) -> u64 {
    silence_injected_panics();
    let program = model.lower(&RaSchedule::default()).expect("lowers");
    let mut rng = Rng::new(seed);

    // Random (but seed-deterministic) serving configuration.
    let opts = BatcherOptions {
        max_batch: 2 + rng.below_usize(6),
        max_delay: Duration::from_millis(rng.below_usize(8) as u64),
        queue_cap: 2 + rng.below_usize(6),
        deadline: if rng.bool() {
            Some(Duration::from_millis(1 + rng.below_usize(20) as u64))
        } else {
            None
        },
        breaker_threshold: rng.below_usize(4) as u32, // 0 disables
        breaker_reset: Duration::from_millis(1 + rng.below_usize(50) as u64),
        ..BatcherOptions::default()
    };
    let clock = TestClock::new();
    let mut batcher =
        Batcher::new(&program, model.params.clone(), opts).with_clock(Rc::new(clock.clone()));
    // Background fault pressure at every instrumented site.
    let (hook, _handle) = FaultInjector::new(seed ^ 0xFA17)
        .with_rates(0.06, 0.04)
        .into_hook();
    batcher.set_fault_hook(Some(hook));

    // The bit-identity oracle runs on its own clean engine.
    let mut solo_engine = Engine::new(&program);
    let mut oracle = Oracle::new();
    let mut known: Vec<Ticket> = Vec::new();

    let lin = |s: &RecStructure| Linearizer::new().linearize(s).expect("linearizes");
    let ops = 60 + rng.below_usize(40);
    for _ in 0..ops {
        match rng.below_usize(10) {
            // submit (heaviest weight: traffic drives everything else)
            0..=3 => {
                let input = lin(&gen_input(&mut rng));
                match batcher.submit(input.clone()) {
                    Ok(t) => {
                        oracle.accept(t, input);
                        known.push(t);
                    }
                    Err(e) => assert!(
                        matches!(e, ServeError::QueueFull | ServeError::DeadlineExceeded),
                        "only admission refusals may come back from submit, got {e}"
                    ),
                }
            }
            // submit_many burst
            4 => {
                let inputs: Vec<Linearized> = (0..1 + rng.below_usize(6))
                    .map(|_| lin(&gen_input(&mut rng)))
                    .collect();
                for (input, result) in inputs.iter().zip(batcher.submit_many(inputs.clone())) {
                    if let Ok(t) = result {
                        oracle.accept(t, input.clone());
                        known.push(t);
                    }
                }
            }
            // poll a random known ticket
            5..=6 => {
                if known.is_empty() {
                    continue;
                }
                let t = *rng.pick(&known);
                let result = batcher.poll(t);
                let resolved_before = !oracle.unresolved.contains_key(&t);
                match result {
                    Ok(None) => {
                        // Still queued — or already resolved through a
                        // previous poll (unknown tickets read the same).
                    }
                    Ok(Some(response)) => {
                        oracle.resolve(t, &Ok(response), &mut solo_engine, model);
                    }
                    Err(e) => {
                        assert!(
                            !resolved_before,
                            "ticket {t:?} reported an error after already resolving: {e}"
                        );
                        oracle.resolve(t, &Err(e), &mut solo_engine, model);
                    }
                }
            }
            // flush
            7 => {
                batcher.flush();
            }
            // advance time (drives deadlines, max_delay, breaker reset)
            8 => {
                clock.advance(Duration::from_millis(rng.below_usize(12) as u64));
            }
            // mid-stream executor reconfiguration: results must stay
            // bit-identical under any of these configurations
            _ => {
                let flip = rng.below_usize(3);
                batcher.set_exec_options(match flip {
                    0 => ExecOptions::default(),
                    1 => ExecOptions {
                        bulk: false,
                        ..ExecOptions::default()
                    },
                    _ => ExecOptions::interpreted(),
                });
            }
        }
    }

    // Final drain: every still-tracked ticket must resolve here.
    for (t, outcome) in batcher.drain() {
        oracle.resolve(t, &outcome, &mut solo_engine, model);
    }
    assert!(
        oracle.unresolved.is_empty(),
        "tickets lost without resolution: {:?}",
        oracle.unresolved.keys().collect::<Vec<_>>()
    );
    assert!(batcher.is_empty(), "drain must empty the batcher");
    let stats = batcher.serve_stats();
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

fn small_tree(rng: &mut Rng) -> RecStructure {
    datasets::random_binary_tree(3 + rng.below_usize(8), rng.next_u64())
}

fn small_sequence(rng: &mut Rng) -> RecStructure {
    datasets::sequence(3 + rng.below_usize(10), rng.next_u64())
}

#[test]
fn random_interleavings_hold_invariants_on_treelstm() {
    let model = treelstm::tree_lstm(16, LeafInit::Embedding);
    for seed in seeds() {
        let resolved = run_interleaving(&model, &small_tree, seed);
        assert!(resolved > 0, "seed {seed}: the run must serve traffic");
    }
}

#[test]
fn random_interleavings_hold_invariants_on_treegru() {
    let model = treegru::tree_gru(16, LeafInit::Embedding);
    for seed in seeds() {
        let resolved = run_interleaving(&model, &small_tree, seed);
        assert!(resolved > 0, "seed {seed}: the run must serve traffic");
    }
}

#[test]
fn random_interleavings_hold_invariants_on_seqlstm() {
    let model = seq::seq_lstm(16);
    for seed in seeds() {
        let resolved = run_interleaving(&model, &small_sequence, seed);
        assert!(resolved > 0, "seed {seed}: the run must serve traffic");
    }
}

/// Circuit-breaker demotion must keep serving traffic on every model
/// shape: a totally broken ExecPlan path (every launch errors) trips
/// the breaker after `threshold` consecutive faults, and every request
/// after that resolves `Ok` — degraded, bit-identical — with none
/// dropped.
#[test]
fn breaker_demotion_serves_traffic_on_every_model() {
    type ModelCase = (Model, fn(&mut Rng) -> RecStructure);
    let models: Vec<ModelCase> = vec![
        (treelstm::tree_lstm(16, LeafInit::Embedding), small_tree),
        (treegru::tree_gru(16, LeafInit::Embedding), small_tree),
        (seq::seq_lstm(16), small_sequence),
    ];
    for (model, gen_input) in &models {
        let program = model.lower(&RaSchedule::default()).expect("lowers");
        let mut batcher = Batcher::new(
            &program,
            model.params.clone(),
            BatcherOptions {
                max_batch: 1,
                max_delay: Duration::from_secs(3600),
                breaker_threshold: 3,
                breaker_reset: Duration::from_secs(3600),
                ..BatcherOptions::default()
            },
        );
        let (hook, _handle) = FaultInjector::new(5)
            .always(FaultAction::Err)
            .launches_only()
            .into_hook();
        batcher.set_fault_hook(Some(hook));
        let mut rng = Rng::new(99);
        let mut solo_engine = Engine::new(&program);
        for i in 0..10 {
            let structure = gen_input(&mut rng);
            let input = Linearizer::new().linearize(&structure).expect("linearizes");
            let t = batcher.submit(input.clone()).expect("admitted");
            match batcher.poll(t).transpose().expect("resolved on flush") {
                Ok(response) if i >= 3 => {
                    assert!(response.degraded, "{}: past the threshold", model.name);
                    let (solo_out, _) = solo_engine
                        .execute(&input, &model.params, true)
                        .expect("solo");
                    for (id, tensor) in &solo_out {
                        assert_eq!(&response.outputs[id], tensor, "{}", model.name);
                    }
                }
                Ok(_) => panic!("{}: the first 3 requests hit the broken plan", model.name),
                Err(e) if i < 3 => {
                    assert!(
                        matches!(&e, ServeError::EngineFault { .. }),
                        "{}: typed plan fault, got {e}",
                        model.name
                    );
                }
                Err(e) => panic!("{}: demoted traffic must not fail: {e}", model.name),
            }
        }
        let stats = batcher.serve_stats();
        assert_eq!(stats.submitted, 10, "{}", model.name);
        assert_eq!(stats.resolved_err, 3, "{}", model.name);
        assert_eq!(stats.resolved_ok, 7, "{}: no traffic dropped", model.name);
        assert_eq!(stats.degraded_runs, 7, "{}", model.name);
    }
}
