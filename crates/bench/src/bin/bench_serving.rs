//! Serving-throughput trajectory: emits `BENCH_serving.json`.
//!
//! Measures cross-request super-wave batching (`Engine::execute_many`)
//! against sequential per-request execution on the two serving-shaped
//! workloads the tentpole targets:
//!
//! * `seqlstm_h256` — batch-1 sequences, the worst launch-bound case:
//!   every wave is 1 node wide, so a depth-`Q` queue turns width-1
//!   waves into width-`Q` super-waves;
//! * `treelstm_h256_bs1` — single sentiment trees, the Fig. 6 `bs=1`
//!   point.
//!
//! For each queue depth (1/4/16/64) the harness measures batched
//! throughput over a fixed request set, then replays a deterministic
//! Poisson arrival process (λ = 80% of sequential capacity) against the
//! measured batch service times to report the throughput/latency
//! trade-off: deeper queues amortize more (higher throughput) but wait
//! longer to fill (higher mean latency at low load).
//!
//! Before any timing, batched outputs are verified ≤1e-4 against the
//! pure-Rust reference models and per-request `Profile` counters are
//! asserted exactly equal to solo runs — the correctness bar of the
//! equivalence property tests, re-checked at paper scale.
//!
//! Run with `cargo run --release -p cortex-bench-harness --bin
//! bench_serving [-- output.json]`.
//!
//! ## Acceptance
//!
//! Two kinds of gates. The *structural* amortization gates are
//! deterministic (immune to machine noise): at queue depth 16 every
//! wave GEMM must serve ≥12 requests on seqlstm (width-1 waves merge
//! into width-16 super-waves) and the batch must launch ≥8× fewer
//! GEMMs than sequential execution. The *wall-clock* gates (skippable
//! via `CORTEX_BENCH_ENFORCE=0` on noisy boxes) require ≥1.25×
//! throughput on seqlstm at depth 16 and ≥0.95× on treelstm bs1.
//!
//! Schema v3 adds a `robustness` section: four deterministic
//! fault-tolerance scenarios (queue-full shedding, deadline pressure,
//! panic isolation, circuit-breaker degradation) whose [`ServeStats`]
//! counters are gated structurally — on the queue-full burst,
//! `shed + resolved == submitted` exactly (no ticket lost, none
//! double-resolved); these gates are never skipped.
//!
//! Schema v4 adds two admission-hardening scenarios on top:
//! `invalid_input_burst` drives the adversarial structure fuzzer's case
//! stream at the batcher and gates the exact `rejected_invalid` /
//! `resolved_ok` split (hostile shapes refused at intake, controls
//! served), and `over_budget` gates the `over_budget` counter under a
//! one-byte memory budget and proves the same traffic is served once
//! the budget is lifted. Both are seeded and structural, never skipped.
//!
//! Schema v5 adds a `router` section: sharded-topology scenarios run
//! through [`Router`] — hot-shard spill (exact spill/reject split on a
//! primary/standby pair), failover after a shard kill (every queued leg
//! moves without consuming retry budget), drain under a faulting shard
//! (exactly one budgeted retry per victim, all served), and an
//! adaptive-flush-depth comparison where the AIMD controller must miss
//! no more deadlines than the fixed depth-16 baseline at
//! equal-or-better throughput on the identical clocked arrival stream.
//! All structural, never skipped.
//!
//! The wall-clock bars are intentionally below the issue's aspirational
//! 2×/1.3×: that target assumed a per-wave-launch-bound sequential
//! baseline, but PR 2's SIMD kernels plus this PR's shared parameter
//! arena and bulk feature-loop serving already removed most launch
//! overhead from the *solo* path too. Measured on this box when the
//! bars were set (under the dot-product kernels of the time), the merged
//! GEMM ran at 68 GFLOPS vs the solo GEMV's 27 (7.6 µs vs 19 µs per
//! row at h=256), but ~25 µs/wave/request
//! of genuine per-request elementwise epilogue (gate sigmoids/tanh,
//! cell updates — work generated code would also execute per request)
//! bounds the end-to-end wall ratio near 1.4× regardless of merge
//! width. The launch-amortization the tentpole targets is the
//! structural metric, and that is gated hard.

use std::fmt::Write as _;
use std::rc::Rc;
use std::time::{Duration, Instant};

use cortex_backend::exec::{Engine, FaultAction};
use cortex_core::ra::RaSchedule;
use cortex_ds::linearizer::{Linearized, Linearizer};
use cortex_ds::merge::DepthMap;
use cortex_ds::{datasets, RecStructure};
use cortex_models::{reference, seq, treelstm, LeafInit, Model};
use cortex_rng::Rng;
use cortex_serve::faults::{silence_injected_panics, FaultInjector};
use cortex_serve::{
    AimdDepth, Batcher, BatcherOptions, Placement, RetryPolicy, Router, RouterOptions, RouterStats,
    ServeStats, TestClock, WhenFull,
};

const QUEUE_DEPTHS: [usize; 4] = [1, 4, 16, 64];

struct DepthRecord {
    queue_depth: usize,
    superwave_width: f64,
    /// Wave-GEMM launches per request (from the final measured chunk):
    /// the launch amortization the tentpole targets, deterministic.
    gemms_per_request: f64,
    /// Mean requests served per merged GEMM (1.0 at depth 1).
    requests_per_gemm: f64,
    wall_s: f64,
    throughput_rps: f64,
    speedup_vs_depth1: f64,
    mean_latency_ms: f64,
    p95_latency_ms: f64,
    /// Elementwise-epilogue wall time of the final measured chunk (the
    /// fused post-GEMM serve the `Rational` nonlinearity mode targets).
    epilogue_ms: f64,
}

struct Workload {
    bench: String,
    requests: usize,
    nodes_per_request: f64,
    hidden: usize,
    verified: bool,
    depths: Vec<DepthRecord>,
}

/// Verifies depth-`Q` batched execution: outputs ≤1e-4 against the
/// reference tables and `Profile` counters exactly equal to solo runs.
fn verify_batched(
    model: &Model,
    engine: &mut Engine<'_>,
    lins: &[&Linearized],
    structures: &[RecStructure],
    want: &[Vec<Vec<f32>>],
) -> bool {
    let many = engine
        .execute_many(lins, &model.params, true)
        .expect("batched run");
    for (r, (outputs, profile)) in many.iter().enumerate() {
        let (solo_out, solo_prof) = engine
            .execute(lins[r], &model.params, true)
            .expect("solo run");
        if profile.flops != solo_prof.flops
            || profile.launches != solo_prof.launches
            || profile.global_bytes_read != solo_prof.global_bytes_read
            || profile.param_bytes_read != solo_prof.param_bytes_read
        {
            eprintln!("VERIFY FAIL {}: request {r} profile diverges", model.name);
            return false;
        }
        let got = &outputs[&model.output];
        if got != &solo_out[&model.output] {
            eprintln!(
                "VERIFY FAIL {}: request {r} not bit-equal to solo",
                model.name
            );
            return false;
        }
        for n in structures[r].iter() {
            let id = lins[r].from_structure_id(n) as usize;
            for (i, w) in want[r][n.index()].iter().enumerate() {
                if (got[[id, i]] - w).abs() > 1e-4 {
                    eprintln!(
                        "VERIFY FAIL {}: request {r} node {n} elem {i}: {} vs {w}",
                        model.name,
                        got[[id, i]]
                    );
                    return false;
                }
            }
        }
    }
    true
}

/// Verifies the serving front door at paper scale: the whole request
/// set goes through `Batcher::submit_many` (burst intake, synchronous
/// chunk flushes) and `Batcher::drain` (resolve every ticket) instead
/// of a hand-rolled submit/poll loop, and every response must match the
/// reference tables ≤1e-4 with cross-request merging engaged.
fn verify_batcher_burst(
    model: &Model,
    program: &cortex_core::ilir::IlirProgram,
    lins: &[&Linearized],
    structures: &[RecStructure],
    want: &[Vec<Vec<f32>>],
) -> bool {
    let mut batcher = Batcher::new(
        program,
        model.params.clone(),
        BatcherOptions {
            max_batch: 16,
            max_delay: std::time::Duration::from_secs(3600),
            ..BatcherOptions::default()
        },
    );
    let tickets: Vec<_> = batcher
        .submit_many(lins.iter().map(|l| (*l).clone()))
        .into_iter()
        .map(|r| r.expect("burst intake"))
        .collect();
    // Engine stats reset per flush, so read the merge counter after the
    // burst's synchronous full-chunk flushes — the final drain flush may
    // legally hold a single leftover request that merges nothing.
    let merged = batcher.stats().super_gemms > 0;
    let results = batcher.drain();
    if results.len() != tickets.len() || !batcher.is_empty() {
        eprintln!("VERIFY FAIL {}: drain left tickets behind", model.name);
        return false;
    }
    if !merged {
        eprintln!("VERIFY FAIL {}: batcher merged nothing", model.name);
        return false;
    }
    for (r, (_, result)) in results.into_iter().enumerate() {
        let response = match result {
            Ok(resp) => resp,
            Err(e) => {
                eprintln!("VERIFY FAIL {}: request {r}: {e}", model.name);
                return false;
            }
        };
        let got = &response.outputs[&model.output];
        for n in structures[r].iter() {
            let id = lins[r].from_structure_id(n) as usize;
            for (i, w) in want[r][n.index()].iter().enumerate() {
                if (got[[id, i]] - w).abs() > 1e-4 {
                    eprintln!(
                        "VERIFY FAIL {}: batcher request {r} node {n} elem {i}",
                        model.name
                    );
                    return false;
                }
            }
        }
    }
    true
}

/// Wall-clock for pushing every request through, `queue_depth` at a
/// time (depth 1 uses the plain per-request engine path). Two passes,
/// best-of (the engine's caches are warm after verification).
fn measure_depth(
    model: &Model,
    engine: &mut Engine<'_>,
    lins: &[&Linearized],
    queue_depth: usize,
) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let start = Instant::now();
        if queue_depth <= 1 {
            for lin in lins {
                engine.execute(lin, &model.params, true).expect("run");
            }
        } else {
            for chunk in lins.chunks(queue_depth) {
                engine
                    .execute_many(chunk, &model.params, true)
                    .expect("batched run");
            }
        }
        best = best.min(start.elapsed().as_secs_f64());
    }
    best
}

/// Deterministic Poisson-arrival replay: `n` arrivals at rate
/// `lambda_rps`, served in fixed batches of `queue_depth` (the batcher
/// flushes when the queue fills; the final partial batch flushes at the
/// deadline, modeled as the last arrival). Batch service time is the
/// measured mean. Returns `(mean, p95)` latency in milliseconds.
fn simulate_latency(
    n: usize,
    lambda_rps: f64,
    queue_depth: usize,
    batch_service_s: f64,
    seed: u64,
) -> (f64, f64) {
    let mut rng = Rng::new(seed);
    let mut arrivals = Vec::with_capacity(n);
    let mut t = 0.0f64;
    for _ in 0..n {
        t += -(1.0 - rng.f64()).ln() / lambda_rps;
        arrivals.push(t);
    }
    let mut latencies = Vec::with_capacity(n);
    let mut server_free = 0.0f64;
    for batch in arrivals.chunks(queue_depth) {
        // The flush waits for the batch to fill (its last arrival) and
        // for the server to drain earlier batches.
        let flush_at = batch.last().copied().unwrap_or(0.0f64).max(server_free);
        let done = flush_at + batch_service_s;
        server_free = done;
        for &a in batch {
            latencies.push((done - a) * 1e3);
        }
    }
    latencies.sort_by(f64::total_cmp);
    let mean = latencies.iter().sum::<f64>() / latencies.len() as f64;
    let p95 = latencies[((latencies.len() as f64 * 0.95) as usize).min(latencies.len() - 1)];
    (mean, p95)
}

/// One robustness scenario's outcome: the batcher's cumulative
/// counters plus a deterministic structural verdict.
struct RobustnessRecord {
    scenario: &'static str,
    stats: ServeStats,
    ok: bool,
}

/// Runs the four robustness scenarios the fault-tolerant front gates
/// on: queue-full shedding, deadline pressure, fault isolation, and
/// circuit-breaker degradation. Every gate here is structural
/// (counter-based), so these never depend on wall-clock and are always
/// enforced. The shared accounting invariant — every admitted ticket
/// resolves exactly once, `shed + resolved == submitted` on the burst —
/// is checked per scenario.
fn robustness_scenarios() -> Vec<RobustnessRecord> {
    let model = treelstm::tree_lstm(64, LeafInit::Embedding);
    let program = model.lower(&RaSchedule::default()).expect("lowers");
    let lin = |leaves: usize, seed: u64| -> Linearized {
        Linearizer::new()
            .linearize(&datasets::random_binary_tree(leaves, seed))
            .expect("linearizes")
    };
    let mut records = Vec::new();

    // Scenario 1: queue-full burst. 64 arrivals against a 16-slot queue
    // under shed-oldest, no flush until drain: exactly 48 shed, 16
    // served, nothing lost.
    {
        let mut batcher = Batcher::new(
            &program,
            model.params.clone(),
            BatcherOptions {
                max_batch: 64, // larger than the cap: flush only on drain
                max_delay: Duration::from_secs(3600),
                queue_cap: 16,
                when_full: WhenFull::ShedOldest,
                ..BatcherOptions::default()
            },
        );
        for s in 0..64u64 {
            batcher.submit(lin(6, s)).expect("shedding never rejects");
        }
        let results = batcher.drain();
        let stats = batcher.serve_stats();
        let ok = stats.submitted == 64
            && stats.shed == 48
            && stats.resolved_ok == 16
            && stats.shed + stats.resolved_ok == stats.submitted
            && results.len() as u64 == stats.submitted;
        records.push(RobustnessRecord {
            scenario: "queue_full_burst",
            stats,
            ok,
        });
    }

    // Scenario 2: deadline pressure. 16 requests with a 5 ms budget go
    // stale behind a frozen clock; 8 fresh ones arrive after the jump.
    // The flush expires exactly the stale 16 and serves the fresh 8.
    {
        let clock = TestClock::new();
        let mut batcher = Batcher::new(
            &program,
            model.params.clone(),
            BatcherOptions {
                max_batch: 64,
                max_delay: Duration::from_secs(3600),
                deadline: Some(Duration::from_millis(5)),
                ..BatcherOptions::default()
            },
        )
        .with_clock(Rc::new(clock.clone()));
        for s in 0..16u64 {
            batcher.submit(lin(6, s)).expect("admitted");
        }
        clock.advance(Duration::from_millis(6));
        for s in 16..24u64 {
            batcher.submit(lin(6, s)).expect("admitted");
        }
        batcher.drain();
        let stats = batcher.serve_stats();
        let ok = stats.submitted == 24
            && stats.deadline_misses == 16
            && stats.resolved_ok == 8
            && stats.resolved_ok + stats.resolved_err == stats.submitted;
        records.push(RobustnessRecord {
            scenario: "deadline_pressure",
            stats,
            ok,
        });
    }

    // Scenario 3: fault isolation. One of 16 co-batched requests panics
    // at every launch (sticky: it still faults when bisection re-runs
    // it); the 15 healthy chunk-mates must all resolve.
    {
        silence_injected_panics();
        let mut batcher = Batcher::new(
            &program,
            model.params.clone(),
            BatcherOptions {
                max_batch: 16,
                max_delay: Duration::from_secs(3600),
                ..BatcherOptions::default()
            },
        );
        // Distinct leaf counts give every request a unique node count;
        // poison the 8th request by its node count.
        let inputs: Vec<Linearized> = (0..16u64).map(|s| lin(4 + s as usize, s)).collect();
        let culprit_nodes = inputs[7].num_nodes();
        let (hook, _handle) = FaultInjector::new(0xFA)
            .always(FaultAction::Panic)
            .poison_nodes(culprit_nodes)
            .into_hook();
        batcher.set_fault_hook(Some(hook));
        for input in inputs {
            batcher.submit(input).expect("admitted");
        }
        batcher.drain();
        let stats = batcher.serve_stats();
        let ok = stats.submitted == 16
            && stats.resolved_ok == 15
            && stats.resolved_err == 1
            && stats.isolated_faults == 1
            && stats.panics_contained >= 2;
        records.push(RobustnessRecord {
            scenario: "fault_isolation",
            stats,
            ok,
        });
    }

    // Scenario 4: circuit breaker. A broken ExecPlan path (every launch
    // raises a typed error) trips the breaker after 3 consecutive
    // faults; the remaining traffic is served degraded on the interp
    // oracle path — slower, never dropped.
    {
        let mut batcher = Batcher::new(
            &program,
            model.params.clone(),
            BatcherOptions {
                max_batch: 1, // every request flushes alone
                max_delay: Duration::from_secs(3600),
                breaker_threshold: 3,
                breaker_reset: Duration::from_secs(3600),
                ..BatcherOptions::default()
            },
        );
        let (hook, _handle) = FaultInjector::new(7)
            .always(FaultAction::Err)
            .launches_only()
            .into_hook();
        batcher.set_fault_hook(Some(hook));
        for s in 0..12u64 {
            batcher.submit(lin(6, s)).expect("admitted");
        }
        batcher.drain();
        let stats = batcher.serve_stats();
        let ok = stats.submitted == 12
            && stats.resolved_err == 3
            && stats.resolved_ok == 9
            && stats.degraded_runs == 9
            && stats.resolved_ok + stats.resolved_err == stats.submitted;
        records.push(RobustnessRecord {
            scenario: "circuit_breaker",
            stats,
            ok,
        });
    }

    // Scenario 5: invalid-input burst. The adversarial structure
    // fuzzer's case stream — hostile shapes interleaved with valid
    // controls — goes straight at the front door. Malformed parts never
    // construct; structurally valid but plan-incompatible shapes (wide
    // arity, unary chains against an exact binary plan) are refused at
    // admission with typed errors; the controls are served. Per fuzzer
    // rotation: 7 refused at construction, 3 at intake, 2 served.
    {
        use cortex_serve::fuzz::{StructureFuzzer, SHAPES};
        let mut batcher = Batcher::new(
            &program,
            model.params.clone(),
            BatcherOptions {
                max_batch: 64,
                max_delay: Duration::from_secs(3600),
                ..BatcherOptions::default()
            },
        );
        let mut fuzz = StructureFuzzer::new(0xF022);
        let (mut bad_parts, mut served) = (0u64, 0u64);
        for case in fuzz.cases(2 * SHAPES) {
            let Ok(structure) = case.build() else {
                bad_parts += 1;
                continue;
            };
            let input = Linearizer::new().linearize(&structure).expect("linearizes");
            match batcher.submit(input) {
                Ok(_) => served += 1,
                Err(e) => assert!(
                    matches!(e, cortex_serve::ServeError::InvalidInput { .. }),
                    "invalid_input_burst: unexpected refusal {e}"
                ),
            }
        }
        batcher.drain();
        let stats = batcher.serve_stats();
        let ok = bad_parts == 14
            && stats.rejected_invalid == 6
            && stats.submitted == served
            && stats.resolved_ok == 4
            && stats.resolved_ok + stats.resolved_err == stats.submitted;
        records.push(RobustnessRecord {
            scenario: "invalid_input_burst",
            stats,
            ok,
        });
    }

    // Scenario 6: resource budget. Under a one-byte memory budget every
    // request is refused at admission with a typed OverBudget; lifting
    // the budget serves the identical traffic — refusals must not
    // poison the batcher.
    {
        let mut batcher = Batcher::new(
            &program,
            model.params.clone(),
            BatcherOptions {
                max_batch: 64,
                max_delay: Duration::from_secs(3600),
                ..BatcherOptions::default()
            },
        );
        batcher.set_exec_options(cortex_backend::exec::ExecOptions {
            memory_budget: Some(1),
            ..cortex_backend::exec::ExecOptions::default()
        });
        for s in 0..8u64 {
            let err = batcher.submit(lin(6, s)).expect_err("1-byte budget");
            assert!(
                matches!(err, cortex_serve::ServeError::OverBudget { .. }),
                "over_budget: unexpected refusal {err}"
            );
        }
        batcher.set_exec_options(cortex_backend::exec::ExecOptions::default());
        for s in 0..8u64 {
            batcher.submit(lin(6, s)).expect("budget lifted");
        }
        batcher.drain();
        let stats = batcher.serve_stats();
        let ok = stats.over_budget == 8
            && stats.rejected == 8
            && stats.submitted == 8
            && stats.resolved_ok == 8
            && stats.resolved_ok + stats.resolved_err == stats.submitted;
        records.push(RobustnessRecord {
            scenario: "over_budget",
            stats,
            ok,
        });
    }

    for r in &records {
        println!(
            "robustness {:<18} submitted={:<3} ok={:<3} err={:<3} shed={:<3} \
             deadline={:<3} isolated={:<2} degraded={:<3} panics={:<2} \
             invalid={:<2} budget={:<2} -> {}",
            r.scenario,
            r.stats.submitted,
            r.stats.resolved_ok,
            r.stats.resolved_err,
            r.stats.shed,
            r.stats.deadline_misses,
            r.stats.isolated_faults,
            r.stats.degraded_runs,
            r.stats.panics_contained,
            r.stats.rejected_invalid,
            r.stats.over_budget,
            if r.ok { "PASS" } else { "FAIL" },
        );
    }
    records
}

/// One router-topology scenario's outcome: the router's cumulative
/// counters plus a deterministic structural verdict.
struct RouterRecord {
    scenario: &'static str,
    stats: RouterStats,
    ok: bool,
}

/// Quiet shard options for the router scenarios: nothing fires on its
/// own, shards reject when full so overload crosses the topology.
fn router_shard_opts() -> BatcherOptions {
    BatcherOptions {
        max_batch: 64,
        max_delay: Duration::from_secs(3600),
        queue_cap: 64,
        when_full: WhenFull::Reject,
        breaker_threshold: 0,
        ..BatcherOptions::default()
    }
}

/// One adaptive-depth serving run: 64 requests with a 20 ms budget
/// arrive 2 ms apart against a single shard whose `max_delay` never
/// fires — only the flush depth decides who makes the deadline. The
/// fixed depth-16 baseline waits ~32 ms to fill and misses most of the
/// stream; the AIMD controller halves the depth after the first missed
/// window and serves it.
fn run_adaptive(adaptive: Option<AimdDepth>) -> RouterStats {
    let model = treelstm::tree_lstm(64, LeafInit::Embedding);
    let program = model.lower(&RaSchedule::default()).expect("lowers");
    let clock = TestClock::new();
    let mut router = Router::new(RouterOptions {
        adaptive_depth: adaptive,
        ..RouterOptions::default()
    })
    .with_clock(Rc::new(clock.clone()));
    let opts = BatcherOptions {
        max_batch: 16,
        queue_cap: 128,
        ..router_shard_opts()
    };
    let id = router.add_model("treelstm", &program, &model.params, 1, opts);
    let lin = |s: u64| -> Linearized {
        Linearizer::new()
            .linearize(&datasets::random_binary_tree(6, s))
            .expect("linearizes")
    };
    for i in 0..64u64 {
        let t = router
            .submit_with_deadline(id, lin(i), Some(Duration::from_millis(20)))
            .expect("admitted");
        clock.advance(Duration::from_millis(2));
        let _ = router.poll(t);
    }
    router.drain();
    router.stats()
}

/// Runs the router-topology scenarios schema v5 gates on: hot-shard
/// spill, failover after a shard kill, drain under a faulting shard,
/// and the adaptive-flush-depth comparison against a fixed depth-16
/// baseline. Every gate is structural (counter equalities) except the
/// adaptive comparison, which is a deterministic dominance check
/// (fewer-or-equal misses at equal-or-better throughput) — none depend
/// on wall-clock, so they are always enforced.
fn router_scenarios() -> Vec<RouterRecord> {
    let model = treelstm::tree_lstm(64, LeafInit::Embedding);
    let program = model.lower(&RaSchedule::default()).expect("lowers");
    let lin = |leaves: usize, seed: u64| -> Linearized {
        Linearizer::new()
            .linearize(&datasets::random_binary_tree(leaves, seed))
            .expect("linearizes")
    };
    let mut records = Vec::new();

    // Scenario 1: hot-shard spill. A 12-request burst against a
    // primary/spill pair with 4-slot queues: 4 land on the primary, 4
    // spill to the standby, 4 are refused — and the split is exact.
    {
        let mut router = Router::new(RouterOptions {
            placement: Placement::PrimarySpill,
            adaptive_depth: None,
            ..RouterOptions::default()
        });
        let opts = BatcherOptions {
            queue_cap: 4,
            ..router_shard_opts()
        };
        let id = router.add_model("treelstm", &program, &model.params, 2, opts);
        let mut accepted = 0u64;
        for s in 0..12u64 {
            if router.submit(id, lin(6, s)).is_ok() {
                accepted += 1;
            }
        }
        let outcomes = router.drain();
        let stats = router.stats();
        let ok = accepted == 8
            && stats.submitted == 8
            && stats.rejected == 4
            && stats.spills == 4
            && stats.resolved_ok == 8
            && stats.resolved_err == 0
            && outcomes.len() as u64 == stats.submitted;
        records.push(RouterRecord {
            scenario: "hot_shard_spill",
            stats,
            ok,
        });
    }

    // Scenario 2: failover after a shard kill. 8 requests queue on the
    // primary; killing it drops the engine with the work still queued.
    // Every leg moves to the standby without consuming retry budget and
    // the full stream is served.
    {
        let mut router = Router::new(RouterOptions {
            placement: Placement::PrimarySpill,
            adaptive_depth: None,
            ..RouterOptions::default()
        });
        let id = router.add_model("treelstm", &program, &model.params, 2, router_shard_opts());
        for s in 0..8u64 {
            router.submit(id, lin(6, s)).expect("admitted");
        }
        let killed = router.kill_shard(id, 0);
        let outcomes = router.drain();
        let stats = router.stats();
        let ok = killed
            && stats.shard_kills == 1
            && stats.failovers == 8
            && stats.retries == 0
            && stats.resolved_ok == 8
            && stats.resolved_err == 0
            && outcomes.iter().all(|(_, o)| o.is_ok());
        records.push(RouterRecord {
            scenario: "retry_after_shard_kill",
            stats,
            ok,
        });
    }

    // Scenario 3: drain under load with a faulting shard. 24 requests
    // round-robin across 3 shards; shard 1 faults every launch (breaker
    // disabled so it never self-heals). Its 8 victims each retry once
    // onto a healthy sibling during the drain, and the whole stream is
    // served — exactly 8 retries, none exhausted.
    {
        let mut router = Router::new(RouterOptions {
            placement: Placement::RoundRobin,
            retry: RetryPolicy {
                max_attempts: 3,
                backoff: Duration::from_millis(1),
                max_backoff: Duration::from_millis(8),
            },
            adaptive_depth: None,
            ..RouterOptions::default()
        });
        let id = router.add_model("treelstm", &program, &model.params, 3, router_shard_opts());
        let (hook, _handle) = FaultInjector::new(9)
            .always(FaultAction::Err)
            .launches_only()
            .into_hook();
        assert!(router.set_shard_fault_hook(id, 1, Some(hook)));
        for s in 0..24u64 {
            router.submit(id, lin(6, s)).expect("admitted");
        }
        let outcomes = router.drain();
        let stats = router.stats();
        let ok = stats.submitted == 24
            && stats.retries == 8
            && stats.retries_exhausted == 0
            && stats.resolved_ok == 24
            && stats.resolved_err == 0
            && outcomes.iter().all(|(_, o)| o.is_ok());
        records.push(RouterRecord {
            scenario: "drain_under_load",
            stats,
            ok,
        });
    }

    // Scenario 4: adaptive flush depth. The same deadline-pressured
    // stream through a fixed depth-16 shard and through the AIMD
    // controller: adaptive must miss no more deadlines at
    // equal-or-better throughput (served requests over the identical
    // arrival window), and the baseline must actually be under pressure
    // for the comparison to mean anything.
    {
        let fixed = run_adaptive(None);
        let aimd = run_adaptive(Some(AimdDepth {
            start: 16,
            min: 1,
            max: 64,
            window: 4,
        }));
        let accounted = |s: &RouterStats| s.resolved_ok + s.resolved_err == s.submitted;
        let ok = fixed.deadline_misses > 40
            && aimd.deadline_misses <= fixed.deadline_misses
            && aimd.resolved_ok >= fixed.resolved_ok
            && aimd.depth_decreases >= 1
            && accounted(&fixed)
            && accounted(&aimd);
        records.push(RouterRecord {
            scenario: "adaptive_depth_fixed16",
            stats: fixed,
            ok,
        });
        records.push(RouterRecord {
            scenario: "adaptive_depth_aimd",
            stats: aimd,
            ok,
        });
    }

    for r in &records {
        println!(
            "router     {:<22} submitted={:<3} ok={:<3} err={:<3} rejected={:<3} \
             spills={:<2} retries={:<2} failovers={:<2} kills={:<2} \
             misses={:<3} depth-={:<2} -> {}",
            r.scenario,
            r.stats.submitted,
            r.stats.resolved_ok,
            r.stats.resolved_err,
            r.stats.rejected,
            r.stats.spills,
            r.stats.retries,
            r.stats.failovers,
            r.stats.shard_kills,
            r.stats.deadline_misses,
            r.stats.depth_decreases,
            if r.ok { "PASS" } else { "FAIL" },
        );
    }
    records
}

fn bench_workload(
    bench: &str,
    model: &Model,
    structures: Vec<RecStructure>,
    want: Vec<Vec<Vec<f32>>>,
) -> Workload {
    let program = model.lower(&RaSchedule::default()).expect("lowers");
    let lins: Vec<Linearized> = structures
        .iter()
        .map(|s| Linearizer::new().linearize(s).expect("linearizes"))
        .collect();
    let refs: Vec<&Linearized> = lins.iter().collect();
    let mut engine = Engine::new(&program);
    assert!(
        engine.num_wave_plans() > 0,
        "{bench}: wave path must engage"
    );

    let verified = verify_batched(model, &mut engine, &refs, &structures, &want)
        && verify_batcher_burst(model, &program, &refs, &structures, &want);

    let mut depths = Vec::new();
    let mut depth1_wall = f64::NAN;
    for &q in &QUEUE_DEPTHS {
        let wall = measure_depth(model, &mut engine, &refs, q);
        if q == 1 {
            depth1_wall = wall;
        }
        let throughput = refs.len() as f64 / wall;
        // Launch-amortization metrics from the final measured chunk
        // (deterministic: the same inputs always produce the same
        // schedule).
        let stats = engine.stats();
        let last_chunk = if q <= 1 {
            1
        } else {
            let rem = refs.len() % q;
            if rem == 0 {
                q
            } else {
                rem
            }
        };
        let gemms_per_request = stats.wave_gemms as f64 / last_chunk as f64;
        let epilogue_ms = stats.epilogue_ns as f64 / 1e6;
        let requests_per_gemm = if stats.super_gemms > 0 {
            stats.super_gemm_requests as f64 / stats.super_gemms as f64
        } else {
            1.0
        };
        let superwave_width: f64 = if q <= 1 {
            let map = DepthMap::build(&refs[..1]);
            map.mean_super_width()
        } else {
            // Mean over the chunks actually flushed.
            let mut total = 0.0;
            let mut chunks = 0.0;
            for chunk in refs.chunks(q) {
                total += DepthMap::build(chunk).mean_super_width();
                chunks += 1.0;
            }
            total / chunks
        };
        // Poisson replay at 80% of sequential capacity: all depths are
        // stable, so the latency column isolates the fill-the-queue
        // wait against the amortized service time.
        let lambda = 0.8 * (refs.len() as f64 / depth1_wall);
        let batch_service = wall / (refs.len() as f64 / q as f64).ceil();
        let (mean_ms, p95_ms) = simulate_latency(512, lambda, q, batch_service, 0xC0FFEE);
        depths.push(DepthRecord {
            queue_depth: q,
            superwave_width,
            gemms_per_request,
            requests_per_gemm,
            wall_s: wall,
            throughput_rps: throughput,
            speedup_vs_depth1: depth1_wall / wall,
            mean_latency_ms: mean_ms,
            p95_latency_ms: p95_ms,
            epilogue_ms,
        });
        println!(
            "{bench:<20} depth={q:<3} superwave={superwave_width:7.1} \
             gemms/req={gemms_per_request:7.1} req/gemm={requests_per_gemm:5.1} \
             wall={:8.1}ms throughput={throughput:8.1} req/s speedup={:5.2}x \
             latency mean={mean_ms:8.2}ms p95={p95_ms:8.2}ms",
            wall * 1e3,
            depth1_wall / wall,
        );
    }
    let nodes: usize = structures.iter().map(RecStructure::num_nodes).sum();
    Workload {
        bench: bench.to_string(),
        requests: structures.len(),
        nodes_per_request: nodes as f64 / structures.len() as f64,
        hidden: model.hidden,
        verified,
        depths,
    }
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_serving.json".to_string());
    if let Err(e) = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&out_path)
    {
        eprintln!("error: cannot write {out_path}: {e}");
        std::process::exit(2);
    }

    let mut workloads = Vec::new();

    // Acceptance workload 1: batch-1 sequences through a 256-wide LSTM.
    {
        let h = 256;
        let model = seq::seq_lstm(h);
        let structures: Vec<RecStructure> = (0..64u64)
            .map(|s| datasets::sequence(48 + (s % 5) as usize * 8, 100 + s))
            .collect();
        let want: Vec<_> = structures
            .iter()
            .map(|s| reference::tree_lstm(s, &model.params, h, LeafInit::Embedding).h)
            .collect();
        workloads.push(bench_workload("seqlstm_h256", &model, structures, want));
    }
    // Acceptance workload 2: single sentiment trees (Fig. 6 bs=1).
    {
        let h = 256;
        let model = treelstm::tree_lstm(h, LeafInit::Embedding);
        let corpus = datasets::sentiment_treebank(64, 45);
        let want: Vec<_> = corpus
            .iter()
            .map(|s| reference::tree_lstm(s, &model.params, h, LeafInit::Embedding).h)
            .collect();
        workloads.push(bench_workload("treelstm_h256_bs1", &model, corpus, want));
    }

    let robustness = robustness_scenarios();
    let router = router_scenarios();

    let mut json =
        String::from("{\n  \"schema\": \"cortex-bench-serving/v5\",\n  \"results\": [\n");
    let mut first = true;
    for w in &workloads {
        for d in &w.depths {
            if !first {
                json.push_str(",\n");
            }
            first = false;
            let _ = write!(
                json,
                "    {{\"bench\": \"{}\", \"requests\": {}, \"nodes_per_request\": {:.1}, \
                 \"hidden\": {}, \"queue_depth\": {}, \"requests_per_batch\": {}, \
                 \"superwave_width\": {:.2}, \"gemms_per_request\": {:.2}, \
                 \"requests_per_gemm\": {:.2}, \"wall_ms\": {:.4}, \"throughput_rps\": {:.3}, \
                 \"speedup_vs_depth1\": {:.3}, \"mean_latency_ms\": {:.3}, \
                 \"p95_latency_ms\": {:.3}, \"epilogue_ms\": {:.4}, \"verified\": {}}}",
                w.bench,
                w.requests,
                w.nodes_per_request,
                w.hidden,
                d.queue_depth,
                d.queue_depth,
                d.superwave_width,
                d.gemms_per_request,
                d.requests_per_gemm,
                d.wall_s * 1e3,
                d.throughput_rps,
                d.speedup_vs_depth1,
                d.mean_latency_ms,
                d.p95_latency_ms,
                d.epilogue_ms,
                w.verified
            );
        }
    }
    json.push_str("\n  ],\n  \"robustness\": [\n");
    for (i, r) in robustness.iter().enumerate() {
        if i > 0 {
            json.push_str(",\n");
        }
        let _ = write!(
            json,
            "    {{\"scenario\": \"{}\", \"submitted\": {}, \"resolved_ok\": {}, \
             \"resolved_err\": {}, \"shed\": {}, \"deadline_misses\": {}, \
             \"isolated_faults\": {}, \"degraded_runs\": {}, \
             \"panics_contained\": {}, \"rejected_invalid\": {}, \
             \"over_budget\": {}, \"ok\": {}}}",
            r.scenario,
            r.stats.submitted,
            r.stats.resolved_ok,
            r.stats.resolved_err,
            r.stats.shed,
            r.stats.deadline_misses,
            r.stats.isolated_faults,
            r.stats.degraded_runs,
            r.stats.panics_contained,
            r.stats.rejected_invalid,
            r.stats.over_budget,
            r.ok
        );
    }
    json.push_str("\n  ],\n  \"router\": [\n");
    for (i, r) in router.iter().enumerate() {
        if i > 0 {
            json.push_str(",\n");
        }
        let _ = write!(
            json,
            "    {{\"scenario\": \"{}\", \"submitted\": {}, \"rejected\": {}, \
             \"resolved_ok\": {}, \"resolved_err\": {}, \"spills\": {}, \
             \"retries\": {}, \"retries_exhausted\": {}, \"failovers\": {}, \
             \"shard_kills\": {}, \"deadline_misses\": {}, \"shed\": {}, \
             \"hedges_launched\": {}, \"depth_increases\": {}, \
             \"depth_decreases\": {}, \"ok\": {}}}",
            r.scenario,
            r.stats.submitted,
            r.stats.rejected,
            r.stats.resolved_ok,
            r.stats.resolved_err,
            r.stats.spills,
            r.stats.retries,
            r.stats.retries_exhausted,
            r.stats.failovers,
            r.stats.shard_kills,
            r.stats.deadline_misses,
            r.stats.shed,
            r.stats.hedges_launched,
            r.stats.depth_increases,
            r.stats.depth_decreases,
            r.ok
        );
    }
    json.push_str("\n  ]\n}\n");
    std::fs::write(&out_path, &json).expect("write BENCH_serving.json");
    println!("\nwrote {out_path}");

    for w in &workloads {
        assert!(w.verified, "{}: verification failed", w.bench);
    }
    // Robustness gates — structural (counter equalities), never skipped.
    for r in &robustness {
        assert!(
            r.ok,
            "robustness: scenario {} failed its accounting gate \
             (shed + resolved must equal submitted, with the expected split)",
            r.scenario
        );
    }
    // Router-topology gates — structural and deterministic (counter
    // equalities; the adaptive comparison is a dominance check on two
    // runs of the same clocked stream), never skipped.
    for r in &router {
        assert!(
            r.ok,
            "router: scenario {} failed its structural gate \
             (exact spill/retry/failover splits, every ticket resolved once, \
             adaptive depth dominating the fixed baseline)",
            r.scenario
        );
    }
    let at = |bench: &str, depth: usize| -> &DepthRecord {
        workloads
            .iter()
            .find(|w| w.bench == bench)
            .unwrap()
            .depths
            .iter()
            .find(|d| d.queue_depth == depth)
            .unwrap()
    };

    // Structural amortization gates — deterministic, never skipped.
    let seq1 = at("seqlstm_h256", 1);
    let seq16 = at("seqlstm_h256", 16);
    assert!(
        seq16.requests_per_gemm >= 12.0,
        "amortization: every merged GEMM must serve ~all 16 queued sequences, \
         got {:.1} requests/GEMM",
        seq16.requests_per_gemm
    );
    assert!(
        seq16.gemms_per_request * 8.0 <= seq1.gemms_per_request,
        "amortization: depth-16 must launch ≥8x fewer GEMMs per request \
         ({:.1} vs {:.1})",
        seq16.gemms_per_request,
        seq1.gemms_per_request
    );
    assert!(
        seq16.superwave_width >= 10.0,
        "amortization: width-1 sequence waves must merge into ≥10-wide \
         super-waves, got {:.1}",
        seq16.superwave_width
    );

    // Wall-clock gates (machine-dependent; ratio of two same-box runs).
    let seq_speedup = seq16.speedup_vs_depth1;
    let tree_speedup = at("treelstm_h256_bs1", 16).speedup_vs_depth1;
    if std::env::var("CORTEX_BENCH_ENFORCE").as_deref() == Ok("0") {
        println!(
            "acceptance: seqlstm {seq_speedup:.2}x, treelstm bs1 {tree_speedup:.2}x \
             (wall-clock enforcement disabled)"
        );
    } else {
        assert!(
            seq_speedup >= 1.25,
            "acceptance: seqlstm depth-16 throughput must be ≥1.25x depth-1, \
             got {seq_speedup:.2}x"
        );
        assert!(
            tree_speedup >= 0.9,
            "acceptance: treelstm bs1 depth-16 batching must never cost >10% \
             throughput (typically it gains ~10%; single-core wall noise on \
             this workload is ±10%), got {tree_speedup:.2}x"
        );
        println!(
            "acceptance: seqlstm {seq_speedup:.2}x ≥ 1.25x ✓, treelstm bs1 \
             {tree_speedup:.2}x ≥ 0.9x ✓"
        );
    }
}
