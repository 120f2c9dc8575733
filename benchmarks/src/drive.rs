//! The load generator: one thread that never sleeps, replaying a
//! workload's request cycle through the library's public functions.
//!
//! A request's clock starts before its `linearize` (for a burst, before
//! the burst's first `linearize`) and stops when its response is in
//! hand. With the recorder on, the same code also wraps each public
//! call in a span and reads the library's own counters.

use std::collections::HashMap;
use std::rc::Rc;
use std::time::{Duration, Instant};

use cortex_backend::exec::{Engine, ExecStats, RunOutput};
use cortex_core::ilir::IlirProgram;
use cortex_ds::linearizer::Linearizer;
use cortex_serve::router::ModelId;
use cortex_serve::{
    Batcher, BatcherOptions, Response, Router, RouterOptions, RouterStats, RouterTicket, TestClock,
};

use crate::gen::{Inputs, Workload, BURST, ROUTER_MAX_DELAY};
use crate::trace::Recorder;

/// Shards per model behind the `mixed_router` router.
const SHARDS: usize = 2;

/// What one replay of the cycle produced.
pub struct Replay {
    /// Per request of the cycle, in cycle order.
    pub latencies_ms: Vec<f64>,
    /// Wall time of each lap of the closed loop, in order: a solo
    /// request, a burst, or one arrival (submit + polls) and the final
    /// drain. A lap ends where the next begins, after its responses were
    /// taken and dropped, so the laps add up to the whole replay and what
    /// the library does between calls or in `Drop` is on the clock.
    pub laps_ms: Vec<f64>,
    /// Requests refused or resolved with an error.
    pub failed: usize,
    /// What the library reports about the replay; the engine's own
    /// stats are only read while tracing.
    pub counters: Counters,
    /// Per request, when the replay was asked to keep them.
    pub outputs: Vec<Option<RunOutput>>,
}

/// Counts the library reports about itself, summed over one replay.
#[derive(Debug, Clone, Default)]
pub struct Counters {
    pub nodes: u64,
    pub gemm_launches: u64,
    pub gemm_rows: u64,
    /// Sum over GEMM launches of the requests each one served.
    pub gemm_requests: u64,
    pub fused_waves: u64,
    pub weight_packs: u64,
    pub fallback_sites: u64,
    pub gemm_ns: u64,
    pub gather_ns: u64,
    pub epilogue_ns: u64,
    pub responses: u64,
    /// Sum over responses of `1 / batch_size`: the number of flushes.
    pub flushes: f64,
    /// The same sum over the responses the router's final `drain`
    /// returned: the flushes that ran inside it. (The polls after the
    /// last arrival have claimed everything flushed before.)
    pub drain_flushes: f64,
    pub superwave_width_sum: f64,
    pub queue_delay_ms_sum: f64,
    pub spills: u64,
    pub retries: u64,
    pub resolved_err: u64,
}

impl Counters {
    fn add_exec(&mut self, s: &ExecStats) {
        self.gemm_launches += s.wave_gemms;
        self.gemm_rows += s.gemm_rows;
        // A merged launch serves several requests, any other exactly one.
        self.gemm_requests += s.super_gemm_requests + (s.wave_gemms - s.super_gemms);
        self.fused_waves += s.fused_waves;
        self.weight_packs += s.weight_packs;
        self.fallback_sites += s.fallback_sites;
        self.gemm_ns += s.gemm_ns;
        self.gather_ns += s.gather_ns;
        self.epilogue_ns += s.epilogue_ns + s.serve_ns;
    }

    fn add_response(&mut self, r: &Response) {
        self.responses += 1;
        self.flushes += 1.0 / r.batch_size as f64;
        self.superwave_width_sum += r.superwave_width;
        self.queue_delay_ms_sum += r.queue_delay.as_secs_f64() * 1e3;
    }

    fn add_router(&mut self, before: &RouterStats, after: &RouterStats) {
        self.spills += after.spills - before.spills;
        self.retries += after.retries - before.retries;
        self.resolved_err += after.resolved_err - before.resolved_err;
    }
}

/// The system under test, built over already lowered programs.
// One per process and never moved on a timed path: boxing the big
// variants would buy nothing.
#[allow(clippy::large_enum_variant)]
pub enum Driver<'p> {
    /// `Engine::execute`, one engine per model.
    Solo(Vec<Engine<'p>>),
    /// `Batcher::submit_many` + `drain` in bursts of [`BURST`].
    Burst(Batcher<'p>),
    /// `Router::submit`/`poll`/`drain` on a virtual clock.
    Routed {
        router: Router<'p>,
        ids: Vec<ModelId>,
        clock: TestClock,
        /// Virtual time at which the next replay starts.
        epoch: Duration,
    },
}

impl<'p> Driver<'p> {
    pub fn new(workload: Workload, inputs: &Inputs, programs: &'p [IlirProgram]) -> Self {
        match workload {
            Workload::TreeSolo | Workload::ZooSmall => {
                Driver::Solo(programs.iter().map(Engine::new).collect())
            }
            Workload::SeqBurst16 => {
                let opts = BatcherOptions {
                    max_batch: BURST,
                    ..BatcherOptions::default()
                };
                // A frozen clock: only a full queue flushes, and the
                // reported queue delays are virtual.
                let batcher = Batcher::new(&programs[0], inputs.models[0].params.clone(), opts)
                    .with_clock(Rc::new(TestClock::new()));
                Driver::Burst(batcher)
            }
            Workload::MixedRouter => {
                let clock = TestClock::new();
                let mut router =
                    Router::new(RouterOptions::default()).with_clock(Rc::new(clock.clone()));
                let opts = BatcherOptions {
                    max_delay: ROUTER_MAX_DELAY,
                    ..BatcherOptions::default()
                };
                let ids = inputs
                    .models
                    .iter()
                    .zip(programs)
                    .map(|(m, p)| router.add_model(&m.name, p, &m.params, SHARDS, opts))
                    .collect();
                Driver::Routed {
                    router,
                    ids,
                    clock,
                    epoch: Duration::ZERO,
                }
            }
        }
    }

    /// Replays the whole request cycle once.
    pub fn replay(&mut self, inputs: &Inputs, rec: &mut Recorder, keep: bool) -> Replay {
        let n = inputs.requests.len();
        let mut out = Replay {
            latencies_ms: vec![0.0; n],
            laps_ms: Vec::with_capacity(n + 1),
            failed: 0,
            counters: Counters::default(),
            outputs: Vec::new(),
        };
        if keep {
            out.outputs.resize_with(n, || None);
        }
        let linearizer = Linearizer::new();
        let mut lap_began = Instant::now();
        let mut end_lap = |laps_ms: &mut Vec<f64>| {
            let now = Instant::now();
            laps_ms.push((now - lap_began).as_secs_f64() * 1e3);
            lap_began = now;
        };
        match self {
            Driver::Solo(engines) => {
                for (i, req) in inputs.requests.iter().enumerate() {
                    let engine = &mut engines[req.model];
                    let start = Instant::now();
                    rec.open_request(i);
                    let result = rec
                        .span("ds.linearize", || linearizer.linearize(&req.structure))
                        .map_err(|e| e.to_string())
                        .and_then(|lin| {
                            if rec.is_on() {
                                // `execute` validates again itself; this
                                // extra call only makes the cost visible.
                                rec.span("backend.validate_input", || engine.validate_input(&lin))
                                    .map_err(|e| e.to_string())?;
                                out.counters.nodes += lin.num_nodes() as u64;
                            }
                            let params = &inputs.models[req.model].params;
                            rec.span("backend.execute", || engine.execute(&lin, params, true))
                                .map_err(|e| e.to_string())
                        });
                    rec.close();
                    out.latencies_ms[i] = start.elapsed().as_secs_f64() * 1e3;
                    if rec.is_on() {
                        out.counters.add_exec(&engine.stats());
                    }
                    match result {
                        Ok(output) if keep => out.outputs[i] = Some(output),
                        Ok(output) => drop(std::hint::black_box(output)),
                        Err(_) => out.failed += 1,
                    }
                    end_lap(&mut out.laps_ms);
                }
            }
            Driver::Burst(batcher) => {
                for (b, burst) in inputs.requests.chunks(BURST).enumerate() {
                    let start = Instant::now();
                    rec.open_request(b);
                    let mut lins = Vec::with_capacity(BURST);
                    for req in burst {
                        match rec.span("ds.linearize", || linearizer.linearize(&req.structure)) {
                            Ok(lin) => {
                                out.counters.nodes += lin.num_nodes() as u64;
                                lins.push(lin);
                            }
                            Err(_) => out.failed += 1,
                        }
                    }
                    let tickets = rec.span("serve.submit_many", || batcher.submit_many(lins));
                    if rec.is_on() {
                        // The burst filled the queue, so its one flush
                        // ran inside `submit_many`.
                        out.counters.add_exec(&batcher.stats());
                    }
                    let results = rec.span("serve.drain", || batcher.drain());
                    rec.close();
                    let elapsed_ms = start.elapsed().as_secs_f64() * 1e3;
                    let mut by_ticket: HashMap<_, _> = results.into_iter().collect();
                    for (j, ticket) in tickets.into_iter().enumerate() {
                        let i = b * BURST + j;
                        out.latencies_ms[i] = elapsed_ms;
                        match ticket.ok().and_then(|t| by_ticket.remove(&t)) {
                            Some(Ok(resp)) => {
                                out.counters.add_response(&resp);
                                if keep {
                                    out.outputs[i] = Some((resp.outputs, resp.profile));
                                }
                            }
                            _ => out.failed += 1,
                        }
                    }
                    end_lap(&mut out.laps_ms);
                }
            }
            Driver::Routed {
                router,
                ids,
                clock,
                epoch,
            } => {
                let before = router.stats();
                let mut outstanding: Vec<(RouterTicket, usize, Instant)> = Vec::new();
                let resolve = |out: &mut Replay, i: usize, start: Instant, resp: Response| {
                    out.latencies_ms[i] = start.elapsed().as_secs_f64() * 1e3;
                    out.counters.add_response(&resp);
                    if keep {
                        out.outputs[i] = Some((resp.outputs, resp.profile));
                    }
                };
                for (i, req) in inputs.requests.iter().enumerate() {
                    clock.set(*epoch + inputs.arrivals[i]);
                    let start = Instant::now();
                    rec.open_request(i);
                    let submitted = rec
                        .span("ds.linearize", || linearizer.linearize(&req.structure))
                        .map_err(|e| e.to_string())
                        .and_then(|lin| {
                            out.counters.nodes += lin.num_nodes() as u64;
                            rec.span("serve.router_submit", || router.submit(ids[req.model], lin))
                                .map_err(|e| e.to_string())
                        });
                    match submitted {
                        Ok(ticket) => outstanding.push((ticket, i, start)),
                        Err(_) => out.failed += 1,
                    }
                    outstanding.retain(|&(ticket, j, started)| {
                        rec.open("serve.router_poll");
                        let polled = router.poll(ticket);
                        match polled {
                            Ok(None) => {
                                rec.close_as("serve.router_poll_idle");
                                true
                            }
                            Ok(Some(resp)) => {
                                rec.close();
                                resolve(&mut out, j, started, resp);
                                false
                            }
                            Err(_) => {
                                rec.close();
                                out.failed += 1;
                                false
                            }
                        }
                    });
                    rec.close();
                    end_lap(&mut out.laps_ms);
                }
                let last = inputs.arrivals.last().copied().unwrap_or_default();
                *epoch += last + 2 * ROUTER_MAX_DELAY;
                clock.set(*epoch);
                rec.open_request(n);
                let drained = rec.span("serve.drain", || router.drain());
                rec.close();
                let mut by_ticket: HashMap<_, _> = drained.into_iter().collect();
                for (ticket, i, started) in outstanding {
                    match by_ticket.remove(&ticket) {
                        Some(Ok(resp)) => {
                            out.counters.drain_flushes += 1.0 / resp.batch_size as f64;
                            resolve(&mut out, i, started, resp);
                        }
                        _ => out.failed += 1,
                    }
                }
                out.counters.add_router(&before, &router.stats());
                drop(by_ticket);
                end_lap(&mut out.laps_ms);
            }
        }
        out
    }
}
