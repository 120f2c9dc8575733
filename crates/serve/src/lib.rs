//! # cortex-serve — a fault-tolerant cross-request serving front
//!
//! Serving a recursive model means many small, structurally independent
//! requests: each one alone pays full wave planning and per-wave GEMM
//! launches over waves only `bs` nodes wide (for sequences, width 1 —
//! the worst launch-bound case in the paper's Fig. 9 gap). This crate
//! adds the queueing layer over the backend's super-wave executor
//! ([`Engine::execute_many`]): a [`Batcher`] collects submissions,
//! flushes them as one batch through a **merged wave schedule** — one
//! gather and one stacked GEMM per (wave depth × stacking group) across
//! *all* queued requests — and hands back per-request responses that are
//! bit-for-bit what a solo run would have produced (outputs *and*
//! `Profile` counters; a property test in `tests/wave_equivalence.rs`
//! asserts exactly that).
//!
//! On top of the throughput machinery sits the **robustness substrate**
//! a production front end assumes:
//!
//! * **Typed outcomes** — every failure is a [`ServeError`], never a
//!   string: admission refusals ([`ServeError::QueueFull`],
//!   [`ServeError::DeadlineExceeded`]), typed engine errors
//!   ([`ServeError::EngineFault`]) and contained panics
//!   ([`ServeError::Poisoned`]).
//! * **Bounded admission** — the queue holds at most
//!   [`BatcherOptions::queue_cap`] requests; a full queue refuses the
//!   next submission with [`ServeError::QueueFull`] instead of growing
//!   without bound.
//! * **Deadlines** — per-request deadlines are checked at admission and
//!   at every flush boundary; an expired request resolves
//!   [`ServeError::DeadlineExceeded`] without executing.
//! * **Fault isolation** — each flush chunk runs under panic
//!   containment; a failing chunk is *bisected* so the poisoned
//!   request(s) resolve with their own error while healthy co-batched
//!   requests still return bit-identical solo results.
//! * **Graceful degradation** — repeated ExecPlan-path faults trip a
//!   circuit breaker that demotes the engine to the AST-walking
//!   `interp` oracle (bit-identical results, slower) for a reset
//!   window instead of failing traffic. A degraded flush is one solo
//!   oracle walk per request: nothing merges, and no fault site is
//!   consulted.
//!
//! The [`faults`] module provides the deterministic fault-injection
//! hooks the model-based test suites (`tests/model_based.rs`,
//! `tests/router_model_based.rs`) drive all of this with.
//!
//! ```no_run
//! use cortex_serve::{Batcher, BatcherOptions};
//! # fn demo(program: &cortex_core::ilir::IlirProgram,
//! #         params: cortex_backend::params::Params,
//! #         inputs: Vec<cortex_ds::linearizer::Linearized>) {
//! let mut batcher = Batcher::new(program, params, BatcherOptions::default());
//! // Burst intake: one ticket per admitted input (a bounded queue may
//! // refuse some), full queues flush mid-burst.
//! let tickets: Vec<_> = batcher
//!     .submit_many(inputs)
//!     .into_iter()
//!     .filter_map(Result::ok)
//!     .collect();
//! // Drain flushes the remainder and resolves every ticket in order —
//! // each response is exactly the solo-run result. (Interactive
//! // callers instead hold their ticket and `poll` it, which drives the
//! // deadline-based flush policy.)
//! for (ticket, result) in batcher.drain() {
//!     assert!(tickets.contains(&ticket));
//!     let _ = result.expect("flushed").outputs;
//! }
//! # }
//! ```

use std::collections::{HashMap, VecDeque};
use std::rc::Rc;
use std::time::Duration;

use cortex_backend::exec::{
    Engine, ExecError, ExecOptions, ExecStats, FaultHook, InjectedPanic, RunOutput,
};
use cortex_backend::params::Params;
use cortex_backend::profile::Profile;
use cortex_core::expr::TensorId;
use cortex_core::ilir::IlirProgram;
use cortex_ds::linearizer::Linearized;
use cortex_tensor::Tensor;

mod clock;
pub mod faults;
pub mod fuzz;
pub mod health;
pub mod retry;
pub mod router;

pub use clock::{Clock, MonotonicClock, TestClock};
pub use health::{BreakerState, HealthPolicy, HealthSnapshot};
pub use retry::RetryPolicy;
pub use router::{AimdDepth, ModelId, Router, RouterOptions, RouterStats, RouterTicket};

// ---------------------------------------------------------------------
// Typed errors
// ---------------------------------------------------------------------

/// Every way a request can fail, as a type. A ticket resolves exactly
/// once: with a [`Response`] or with one of these.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// Admission refused: the queue is at [`BatcherOptions::queue_cap`].
    /// No ticket was issued — retry later.
    QueueFull,
    /// The request's deadline expired: at admission (zero budget) or at
    /// a flush boundary before it executed.
    DeadlineExceeded,
    /// [`Router::shutdown`] ran out of its budget before the request
    /// resolved.
    Shed,
    /// Admission refused: the input failed the engine's untrusted-input
    /// validation (arity over the lowered plan, size/depth over the
    /// configured limits, non-finite parameters). No ticket was issued
    /// and no co-batched request was touched.
    InvalidInput {
        /// The executor's intake error.
        source: ExecError,
    },
    /// Admission refused: the plan-time memory estimate for this input
    /// exceeds [`ExecOptions::memory_budget`]. No ticket was issued.
    OverBudget {
        /// Estimated bytes the run would need.
        needed: u64,
        /// The configured budget.
        budget: u64,
    },
    /// The engine returned a typed error executing this request.
    EngineFault {
        /// The executor's own error.
        source: ExecError,
    },
    /// Executing this request panicked; the panic was contained and the
    /// request isolated so co-batched requests could still resolve.
    Poisoned {
        /// The contained panic's message.
        message: String,
    },
    /// The ticket did fail, but its stored error was dropped by the
    /// bounded failed-set retention ([`FAILED_RETENTION_CAP`]) before
    /// anyone polled it. Distinguishable from "still queued"
    /// (`Ok(None)`): the request is definitively over, its original
    /// error is gone. Counted in [`ServeStats::failed_dropped`] at drop
    /// time.
    ResultExpired,
    /// Every dispatch the [`RetryPolicy`] allowed has failed; `last` is
    /// the final attempt's own error. Raised by the [`Router`] only —
    /// a lone [`Batcher`] never retries.
    RetriesExhausted {
        /// Dispatch attempts made (initial dispatch included).
        attempts: u32,
        /// The last attempt's error.
        last: Box<ServeError>,
    },
    /// No shard of the requested model is alive to take the request
    /// (every sibling was killed). Raised by the [`Router`] only.
    Unavailable,
    /// The [`Router`] has been shut down and admits nothing new.
    Draining,
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::QueueFull => write!(f, "admission queue is full"),
            ServeError::DeadlineExceeded => write!(f, "deadline exceeded before execution"),
            ServeError::Shed => write!(f, "shed at shutdown before it resolved"),
            ServeError::InvalidInput { source } => {
                write!(f, "invalid input refused at admission: {source}")
            }
            ServeError::OverBudget { needed, budget } => {
                write!(
                    f,
                    "over budget at admission: needs ~{needed} bytes, budget is {budget}"
                )
            }
            ServeError::EngineFault { source } => write!(f, "engine fault: {source}"),
            ServeError::Poisoned { message } => {
                write!(f, "request poisoned its batch (contained panic: {message})")
            }
            ServeError::ResultExpired => {
                write!(f, "failed result dropped by bounded retention before poll")
            }
            ServeError::RetriesExhausted { attempts, last } => {
                write!(f, "retries exhausted after {attempts} attempts: {last}")
            }
            ServeError::Unavailable => write!(f, "no alive shard can take this request"),
            ServeError::Draining => write!(f, "router is draining; admission closed"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::EngineFault { source } | ServeError::InvalidInput { source } => {
                Some(source)
            }
            ServeError::RetriesExhausted { last, .. } => Some(&**last),
            _ => None,
        }
    }
}

impl From<ExecError> for ServeError {
    fn from(source: ExecError) -> Self {
        ServeError::EngineFault { source }
    }
}

// ---------------------------------------------------------------------
// Options
// ---------------------------------------------------------------------

/// Flush, admission, deadline and degradation policy of a [`Batcher`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatcherOptions {
    /// Flush as soon as this many requests are queued (the super-wave
    /// width budget). A submission that fills the queue flushes
    /// synchronously.
    pub max_batch: usize,
    /// Flush whenever the *oldest* queued request has waited this long,
    /// checked on every [`Batcher::poll`] call — the latency bound of
    /// the throughput/latency trade-off. `Duration::ZERO` makes every
    /// poll flush (lowest latency, no cross-request merging beyond what
    /// one poll interval collects).
    pub max_delay: Duration,
    /// Run with model persistence active (the default serving mode:
    /// recurrent weights pinned on-chip).
    pub persist: bool,
    /// Bounded admission: at most this many requests wait in the queue
    /// (clamped to ≥ 1); a submission beyond it is refused with
    /// [`ServeError::QueueFull`]. The default (1024) never engages under
    /// the default `max_batch` (the queue flushes at 16) — it is the
    /// safety net for configurations that defer flushing.
    pub queue_cap: usize,
    /// Default per-request deadline budget, from admission: a request
    /// still queued when its budget elapses resolves
    /// [`ServeError::DeadlineExceeded`] at the next flush boundary or
    /// poll instead of executing. `None` = no deadline.
    /// [`Batcher::submit_with_deadline`] overrides per request.
    pub deadline: Option<Duration>,
    /// Circuit breaker: after this many *consecutive* engine faults on
    /// the ExecPlan path, demote the engine to the `interp` oracle path
    /// (bit-identical results, no lowered-plan execution) for
    /// [`BatcherOptions::breaker_reset`]. `0` disables the breaker.
    pub breaker_threshold: u32,
    /// How long a tripped breaker stays degraded before re-trying the
    /// ExecPlan path (half-open: one more fault re-trips immediately).
    pub breaker_reset: Duration,
}

impl Default for BatcherOptions {
    fn default() -> Self {
        BatcherOptions {
            max_batch: 16,
            max_delay: Duration::from_millis(2),
            persist: true,
            queue_cap: 1024,
            deadline: None,
            breaker_threshold: 3,
            breaker_reset: Duration::from_secs(1),
        }
    }
}

// ---------------------------------------------------------------------
// Tickets, responses, counters
// ---------------------------------------------------------------------

/// Handle to one submitted request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Ticket(u64);

/// The result of one request, exactly equal to a solo
/// [`Engine::execute`] run on the same input.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// Output tensors by id (node-major, this request's numbering).
    pub outputs: HashMap<TensorId, Tensor>,
    /// Execution counters — per-request, identical to a solo run.
    pub profile: Profile,
    /// How many requests shared this request's flush chunk (after any
    /// fault-isolation re-batching).
    pub batch_size: usize,
    /// Mean merged super-wave width of the request's lane group (its
    /// internal nodes per wave): the amortization actually achieved.
    /// [`Engine::execute_many`] merges a flush's requests only within
    /// each of its lane groups ([`Engine::batch_groups`]), so 16 equal
    /// sequences flushed on two lanes report 8. A degraded flush runs
    /// each request alone, so it reports the request's own width.
    pub superwave_width: f64,
    /// How long the request waited in the queue before its flush.
    pub queue_delay: Duration,
    /// Whether the circuit breaker had demoted execution to the
    /// `interp` oracle path when this request ran. Results are
    /// bit-identical either way; this flags the slower, unmerged path
    /// (one solo walk per request).
    pub degraded: bool,
}

/// Robustness counters of a [`Batcher`], cumulative over its lifetime.
///
/// The admission invariant they witness:
/// `submitted == resolved_ok + resolved_err + pending()` at every
/// quiescent point (and after [`Batcher::drain`], `pending() == 0`, so
/// `submitted == resolved_ok + resolved_err` — nothing is ever lost).
/// Outcomes count at *resolution* time (when the ticket's fate is
/// decided), not at poll time, so the bounded failed-set retention
/// ([`FAILED_RETENTION_CAP`]) never un-counts anything.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Tickets issued (admitted requests).
    pub submitted: u64,
    /// Submissions refused without a ticket ([`ServeError::QueueFull`],
    /// a zero deadline budget, an invalid input, or an over-budget input
    /// at admission).
    pub rejected: u64,
    /// Submissions refused because the input failed untrusted-input
    /// validation ([`ServeError::InvalidInput`]); also counted in
    /// `rejected`.
    pub rejected_invalid: u64,
    /// Submissions refused because the plan-time memory estimate
    /// exceeded the engine's budget ([`ServeError::OverBudget`]); also
    /// counted in `rejected`.
    pub over_budget: u64,
    /// Tickets resolved with a [`Response`].
    pub resolved_ok: u64,
    /// Tickets resolved with a [`ServeError`] (deadline outcomes
    /// included).
    pub resolved_err: u64,
    /// Tickets resolved [`ServeError::DeadlineExceeded`].
    pub deadline_misses: u64,
    /// Faulted requests isolated out of a multi-request chunk by
    /// bisection (their healthy chunk-mates still resolved).
    pub isolated_faults: u64,
    /// Flush chunks executed while the circuit breaker held the engine
    /// on the degraded `interp` path.
    pub degraded_runs: u64,
    /// Engine panics contained by the serving layer.
    pub panics_contained: u64,
    /// Failed tickets whose stored error was dropped by the bounded
    /// retention policy ([`FAILED_RETENTION_CAP`]) before being polled.
    /// Their later polls read [`ServeError::ResultExpired`]. Already
    /// counted in `resolved_err` at resolution time — this counter only
    /// witnesses the loss of the error *detail*.
    pub failed_dropped: u64,
}

struct PendingRequest {
    ticket: u64,
    lin: Linearized,
    /// Clock time of admission.
    submitted: Duration,
    /// Absolute clock time after which the request must not execute.
    deadline: Option<Duration>,
}

/// How many failed tickets a [`Batcher`] retains for error reporting.
/// A caller that drops tickets without ever polling them must not make
/// the batcher grow without bound, so failures beyond this are dropped
/// oldest-first. A dropped ticket's first poll reports
/// [`ServeError::ResultExpired`] (the failure happened; its detail is
/// gone) and increments [`ServeStats::failed_dropped`] at drop time.
/// The [`ServeStats`] resolution counters are recorded before the drop,
/// so the accounting invariant survives.
pub const FAILED_RETENTION_CAP: usize = 1024;

/// How many *dropped* failed tickets a [`Batcher`] remembers so their
/// polls can report [`ServeError::ResultExpired`] instead of reading as
/// unknown. Ticket ids are 8 bytes each, so this tail is cheap; beyond
/// it the oldest expirations are forgotten entirely (their polls read
/// `Ok(None)`, the pre-fix behavior, and `failed_dropped` still counts
/// them).
pub const EXPIRED_RETENTION_CAP: usize = 4 * FAILED_RETENTION_CAP;

/// The outcome of one guarded engine execution of a chunk.
enum ChunkOutcome {
    Ok(Vec<RunOutput>),
    Fault(ServeError),
}

// ---------------------------------------------------------------------
// Batcher
// ---------------------------------------------------------------------

/// A bounded submission queue in front of one [`Engine`]: collects
/// independent requests, executes them through merged super-wave
/// schedules, and contains their failures.
///
/// # Invariants
///
/// Every admitted ticket is in exactly one of three places until it is
/// polled: the queue ([`Batcher::pending`]), the ready set
/// ([`Batcher::ready`]), or the failed set ([`Batcher::failed`], bounded
/// by [`FAILED_RETENTION_CAP`]) — so
/// `len() == pending() + ready() + failed()` always holds. Every
/// admitted ticket resolves **exactly once**: with a [`Response`] or a
/// [`ServeError`] (see [`ServeStats`] for the counter form of the
/// invariant). A failing request never strands its chunk-mates: the
/// chunk is bisected until the fault is isolated to the request(s) that
/// actually carry it.
pub struct Batcher<'p> {
    engine: Engine<'p>,
    /// The healthy (non-degraded) engine options; the circuit breaker
    /// restores these when its reset window elapses.
    base_opts: ExecOptions,
    /// The installed fault-injection hook, re-installed when a contained
    /// panic forces an engine rebuild.
    fault_hook: Option<FaultHook>,
    params: Params,
    opts: BatcherOptions,
    clock: Rc<dyn Clock>,
    queue: VecDeque<PendingRequest>,
    ready: HashMap<u64, Response>,
    /// Tickets whose execution failed, with their own typed error:
    /// polling one of these reports the failure instead of waiting
    /// forever.
    failed: HashMap<u64, ServeError>,
    /// Insertion order of `failed` (oldest first), the drain order of
    /// the bounded retention policy. May transiently hold tickets
    /// already polled out of `failed`; compacted when it outgrows
    /// `2 × FAILED_RETENTION_CAP`.
    failed_order: VecDeque<u64>,
    /// Tickets whose failure was dropped by the retention cap before
    /// being polled: their next poll reads
    /// [`ServeError::ResultExpired`]. Bounded by
    /// [`EXPIRED_RETENTION_CAP`], oldest forgotten first.
    expired: std::collections::HashSet<u64>,
    /// Insertion order of `expired` (oldest first). May transiently
    /// hold already-polled tickets; compacted like `failed_order`.
    expired_order: VecDeque<u64>,
    /// The earliest instant at which [`Batcher::poll`] acts on the
    /// queue by itself: the front's `max_delay` flush or the earliest
    /// queued deadline (`None` with an empty queue). Exact: updated on
    /// every queue change.
    due: Option<Duration>,
    /// Bumped whenever the queue, the ready set, the failed set or the
    /// breaker changes, so a [`Router`] can tell whether a pump did
    /// anything on this shard.
    version: u64,
    next_ticket: u64,
    flushes: u64,
    serve_stats: ServeStats,
    /// Consecutive ExecPlan-path engine faults (resets on a clean
    /// plan-path chunk).
    consecutive_faults: u32,
    /// While `Some`, the breaker holds the engine on the `interp` path
    /// until this clock time.
    degraded_until: Option<Duration>,
}

impl<'p> Batcher<'p> {
    /// Builds a batcher serving `program` with fixed parameters.
    pub fn new(program: &'p IlirProgram, params: Params, opts: BatcherOptions) -> Self {
        Batcher::with_engine(Engine::new(program), params, opts)
    }

    /// Builds a batcher over a pre-configured engine.
    pub(crate) fn with_engine(engine: Engine<'p>, params: Params, opts: BatcherOptions) -> Self {
        Batcher {
            base_opts: engine.options(),
            fault_hook: engine.fault_hook(),
            engine,
            params,
            opts,
            clock: Rc::new(MonotonicClock::new()),
            queue: VecDeque::new(),
            ready: HashMap::new(),
            failed: HashMap::new(),
            failed_order: VecDeque::new(),
            expired: std::collections::HashSet::new(),
            expired_order: VecDeque::new(),
            due: None,
            version: 0,
            next_ticket: 0,
            flushes: 0,
            serve_stats: ServeStats::default(),
            consecutive_faults: 0,
            degraded_until: None,
        }
    }

    /// Replaces the time source (builder-style). Tests inject a
    /// [`TestClock`] here to drive deadlines, the flush policy and the
    /// breaker reset window deterministically.
    pub fn with_clock(mut self, clock: Rc<dyn Clock>) -> Self {
        self.clock = clock;
        self
    }

    /// Installs (or removes) a deterministic fault-injection hook on the
    /// underlying engine (see [`faults`]), surviving the engine rebuilds
    /// that panic containment forces.
    pub fn set_fault_hook(&mut self, hook: Option<FaultHook>) {
        self.fault_hook = hook.clone();
        self.engine.set_fault_hook(hook);
    }

    /// Reconfigures the underlying engine's runtime switches and
    /// admission limits while requests may be queued. Safe by
    /// construction: queued requests have not started executing (a
    /// flush chunk runs to completion within one [`Batcher::flush`]
    /// call), and no option reaches the engine's lowered plan
    /// ([`Engine::set_options`]), so the next flush behaves exactly like
    /// a freshly built engine with these options — results stay
    /// bit-identical (regression-tested).
    pub fn set_exec_options(&mut self, opts: ExecOptions) {
        self.base_opts = opts;
        if self.degraded() {
            let mut degraded = opts;
            degraded.interp = true;
            self.engine.set_options(degraded);
        } else {
            self.engine.set_options(opts);
        }
    }

    /// Whether the circuit breaker currently holds the engine on the
    /// degraded `interp` oracle path.
    pub(crate) fn degraded(&self) -> bool {
        self.degraded_until.is_some()
    }

    /// Enqueues a linearized input under the default deadline policy
    /// ([`BatcherOptions::deadline`]). Flushes synchronously when the
    /// queue reaches [`BatcherOptions::max_batch`].
    ///
    /// # Errors
    ///
    /// [`ServeError::QueueFull`] when the queue is at
    /// [`BatcherOptions::queue_cap`] (no ticket is issued),
    /// [`ServeError::DeadlineExceeded`] for a zero deadline budget.
    /// Execution failures are **not** reported here: they resolve per
    /// ticket through [`Batcher::poll`] / [`Batcher::drain`].
    pub fn submit(&mut self, lin: Linearized) -> Result<Ticket, ServeError> {
        self.submit_with_deadline(lin, self.opts.deadline)
    }

    /// [`Batcher::submit`] with an explicit deadline budget for this
    /// request (`None` = no deadline), overriding
    /// [`BatcherOptions::deadline`].
    ///
    /// # Errors
    ///
    /// See [`Batcher::submit`].
    pub fn submit_with_deadline(
        &mut self,
        lin: Linearized,
        deadline: Option<Duration>,
    ) -> Result<Ticket, ServeError> {
        let now = self.clock.now();
        // Admission-time deadline check: a zero budget can never execute.
        if deadline == Some(Duration::ZERO) {
            self.serve_stats.rejected += 1;
            return Err(ServeError::DeadlineExceeded);
        }
        // Untrusted-input validation at admission: a hostile or
        // over-budget request is refused *here*, before it can co-batch
        // with (and abort) healthy requests at flush time.
        if let Err(source) = self.engine.validate_input(&lin) {
            self.serve_stats.rejected += 1;
            return Err(match source {
                ExecError::OverBudget { needed, budget } => {
                    self.serve_stats.over_budget += 1;
                    ServeError::OverBudget { needed, budget }
                }
                source => {
                    self.serve_stats.rejected_invalid += 1;
                    ServeError::InvalidInput { source }
                }
            });
        }
        if self.queue.len() >= self.opts.queue_cap.max(1) {
            self.serve_stats.rejected += 1;
            return Err(ServeError::QueueFull);
        }
        let ticket = self.next_ticket;
        self.next_ticket += 1;
        self.serve_stats.submitted += 1;
        let pending = PendingRequest {
            ticket,
            lin,
            submitted: now,
            deadline: deadline.map(|d| now + d),
        };
        let front_flush = self.queue.is_empty().then(|| self.flush_due(&pending));
        self.due = [self.due, front_flush, pending.deadline]
            .into_iter()
            .flatten()
            .min();
        self.queue.push_back(pending);
        self.version += 1;
        if self.queue.len() >= self.opts.max_batch {
            self.flush();
        }
        Ok(Ticket(ticket))
    }

    /// Enqueues a whole burst of inputs at once, returning one admission
    /// outcome per input in order. Exactly equivalent to calling
    /// [`Batcher::submit`] in a loop — full queues still flush
    /// synchronously mid-burst, in [`BatcherOptions::max_batch`]-sized
    /// chunks, and the bounded-admission policy applies per submission
    /// (a rejected input yields its own `Err` without aborting the
    /// burst).
    pub fn submit_many(
        &mut self,
        lins: impl IntoIterator<Item = Linearized>,
    ) -> Vec<Result<Ticket, ServeError>> {
        lins.into_iter().map(|lin| self.submit(lin)).collect()
    }

    /// Flushes everything still queued, then returns every **tracked**
    /// ticket's outcome — ready responses and retained failures alike —
    /// in ticket order. After `drain` the batcher is empty: no request
    /// is left pending, ready, or failed.
    ///
    /// Tracked is the same notion [`Batcher::poll`] sees: a failure
    /// dropped by the [`FAILED_RETENTION_CAP`] retention policy resolves
    /// here as [`ServeError::ResultExpired`] (while the
    /// [`EXPIRED_RETENTION_CAP`] tail remembers it), exactly as its
    /// `poll` would. Successful responses are never dropped.
    pub fn drain(&mut self) -> Vec<(Ticket, Result<Response, ServeError>)> {
        self.flush();
        let mut out: Vec<(Ticket, Result<Response, ServeError>)> = self
            .ready
            .drain()
            .map(|(t, r)| (Ticket(t), Ok(r)))
            .chain(self.failed.drain().map(|(t, e)| (Ticket(t), Err(e))))
            .chain(
                self.expired
                    .drain()
                    .map(|t| (Ticket(t), Err(ServeError::ResultExpired))),
            )
            .collect();
        self.failed_order.clear();
        self.expired_order.clear();
        self.version += 1;
        out.sort_by_key(|(t, _)| *t);
        out
    }

    /// Retrieves a finished response, driving the deadline policies: any
    /// queued request whose own deadline expired resolves
    /// [`ServeError::DeadlineExceeded`], and if the oldest queued
    /// request has waited past [`BatcherOptions::max_delay`] the queue
    /// flushes. Before the earliest of those instants a poll only looks
    /// the ticket up; it scans nothing.
    ///
    /// Returns `Ok(None)` while the request is still queued within its
    /// deadline (and for unknown/already-resolved tickets).
    ///
    /// # Errors
    ///
    /// Reports only **this ticket's own** typed failure, exactly once —
    /// another request's error never masks this ticket's ready response
    /// or still-queued state.
    pub fn poll(&mut self, ticket: Ticket) -> Result<Option<Response>, ServeError> {
        if let Some(outcome) = self.take_outcome(ticket.0) {
            return outcome.map(Some);
        }
        let now = self.clock.now();
        if self.due.is_none_or(|due| now < due) {
            return Ok(None);
        }
        self.expire_due(now);
        if self.queue.front().is_some_and(|p| now >= self.flush_due(p)) {
            self.flush();
        }
        self.take_outcome(ticket.0)
            .map_or(Ok(None), |o| o.map(Some))
    }

    /// Flushes every queued request through merged super-wave
    /// executions (in chunks of [`BatcherOptions::max_batch`]), making
    /// their outcomes pollable, and returns how many requests resolved
    /// with a response.
    ///
    /// Expired deadlines resolve first, without executing. A faulting
    /// chunk is bisected until the fault is isolated: each failing
    /// request resolves with **its own** [`ServeError`] (a contained
    /// panic reads [`ServeError::Poisoned`], a typed engine error
    /// [`ServeError::EngineFault`]) while every healthy chunk-mate is
    /// re-run and resolves normally — one poisoned request never takes
    /// a batch down. Repeated ExecPlan-path faults trip the circuit
    /// breaker (see [`BatcherOptions::breaker_threshold`]).
    pub fn flush(&mut self) -> usize {
        let now = self.clock.now();
        self.update_breaker(now);
        self.expire_due(now);
        let mut ok = 0usize;
        while !self.queue.is_empty() {
            let take = self.queue.len().min(self.opts.max_batch.max(1));
            let batch: Vec<PendingRequest> = self.queue.drain(..take).collect();
            ok += self.run_chunk(batch, false);
        }
        self.due = None;
        ok
    }

    // -- internals ----------------------------------------------------

    /// Removes `ticket`'s outcome, if it has one.
    fn take_outcome(&mut self, ticket: u64) -> Option<Result<Response, ServeError>> {
        let outcome = if let Some(r) = self.ready.remove(&ticket) {
            Ok(r)
        } else if let Some(e) = self.failed.remove(&ticket) {
            Err(e)
        } else if self.expired.remove(&ticket) {
            Err(ServeError::ResultExpired)
        } else {
            return None;
        };
        self.version += 1;
        Some(outcome)
    }

    /// When `p`, at the queue front, forces a flush: `max_delay` after
    /// its admission, or at once for a zero delay whatever the clock
    /// reads.
    fn flush_due(&self, p: &PendingRequest) -> Duration {
        if self.opts.max_delay.is_zero() {
            Duration::ZERO
        } else {
            p.submitted + self.opts.max_delay
        }
    }

    /// Recomputes `due` from the whole queue.
    fn refresh_due(&mut self) {
        let front_flush = self.queue.front().map(|p| self.flush_due(p));
        let deadline = self.queue.iter().filter_map(|p| p.deadline).min();
        self.due = front_flush.into_iter().chain(deadline).min();
    }

    /// Resolves every queued request whose deadline is due as
    /// [`ServeError::DeadlineExceeded`] — the flush-boundary half of the
    /// deadline check.
    fn expire_due(&mut self, now: Duration) {
        let mut i = 0;
        while i < self.queue.len() {
            if self.queue[i].deadline.is_some_and(|d| now >= d) {
                let victim = self.queue.remove(i).expect("index in bounds");
                self.record_failure(victim.ticket, ServeError::DeadlineExceeded);
            } else {
                i += 1;
            }
        }
        self.refresh_due();
    }

    /// Executes one chunk, bisecting on failure so each ticket's outcome
    /// is its own. `from_bisect` marks recursive calls (for the
    /// isolation counter). Returns how many requests resolved Ok.
    fn run_chunk(&mut self, mut batch: Vec<PendingRequest>, from_bisect: bool) -> usize {
        if batch.is_empty() {
            return 0;
        }
        match self.guarded_execute(&batch) {
            ChunkOutcome::Ok(results) => {
                self.note_engine_success();
                self.flushes += 1;
                let now = self.clock.now();
                // Each request merged only within its lane group: the group's
                // internal nodes per wave of its deepest request (or 0).
                let mut widths = vec![0.0; batch.len()];
                for group in self.engine.batch_groups() {
                    let lins = || group.iter().map(|&r| &batch[r].lin);
                    let nodes: usize = lins().map(Linearized::num_internal).sum();
                    let depth = lins().map(|l| l.internal_batches().len()).max();
                    let width = nodes as f64 / depth.unwrap_or(0).max(1) as f64;
                    group.iter().for_each(|&r| widths[r] = width);
                }
                let degraded = self.degraded();
                let n = batch.len();
                self.version += 1;
                for ((pending, (outputs, profile)), width) in batch.iter().zip(results).zip(widths)
                {
                    self.serve_stats.resolved_ok += 1;
                    self.ready.insert(
                        pending.ticket,
                        Response {
                            outputs,
                            profile,
                            batch_size: n,
                            superwave_width: width,
                            queue_delay: now.saturating_sub(pending.submitted),
                            degraded,
                        },
                    );
                }
                n
            }
            ChunkOutcome::Fault(err) => {
                if batch.len() == 1 {
                    // The fault is isolated to this request.
                    self.note_engine_fault();
                    if from_bisect {
                        self.serve_stats.isolated_faults += 1;
                    }
                    let pending = batch.pop().expect("len checked");
                    self.record_failure(pending.ticket, err);
                    0
                } else {
                    // Bisect: healthy co-batched requests must still
                    // resolve; only the culprit(s) keep faulting as the
                    // halves shrink to singletons.
                    let right = batch.split_off(batch.len() / 2);
                    self.run_chunk(batch, true) + self.run_chunk(right, true)
                }
            }
        }
    }

    /// One guarded engine execution: typed engine errors come back as
    /// [`ChunkOutcome::Fault`], and a panic is contained — counted, the
    /// engine rebuilt from its program (the unwound engine may hold torn
    /// caches), and reported as [`ServeError::Poisoned`].
    fn guarded_execute(&mut self, batch: &[PendingRequest]) -> ChunkOutcome {
        if self.degraded() {
            self.serve_stats.degraded_runs += 1;
        }
        let lins: Vec<&Linearized> = batch.iter().map(|p| &p.lin).collect();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            self.engine
                .execute_many(&lins, &self.params, self.opts.persist)
        }));
        match result {
            Ok(Ok(outputs)) => ChunkOutcome::Ok(outputs),
            Ok(Err(e)) => ChunkOutcome::Fault(ServeError::EngineFault { source: e }),
            Err(payload) => {
                self.serve_stats.panics_contained += 1;
                self.rebuild_engine();
                ChunkOutcome::Fault(ServeError::Poisoned {
                    message: panic_message(payload.as_ref()),
                })
            }
        }
    }

    /// Replaces the engine after a contained panic: same program, same
    /// lowering ([`Engine::rebuilt`]), same options (including any
    /// degradation in effect), same fault hook, cold caches.
    fn rebuild_engine(&mut self) {
        self.engine = self.engine.rebuilt();
        self.engine.set_fault_hook(self.fault_hook.clone());
    }

    /// A clean chunk on the ExecPlan path re-arms the breaker.
    fn note_engine_success(&mut self) {
        if !self.degraded() {
            self.consecutive_faults = 0;
        }
    }

    /// Counts an isolated engine fault toward the breaker — plan-path
    /// faults only: once degraded, further faults (the input's own
    /// errors, which the oracle path shares) don't re-count.
    fn note_engine_fault(&mut self) {
        if self.degraded() || self.opts.breaker_threshold == 0 {
            return;
        }
        self.consecutive_faults += 1;
        if self.consecutive_faults >= self.opts.breaker_threshold {
            let now = self.clock.now();
            self.degraded_until = Some(now + self.opts.breaker_reset);
            let mut degraded = self.base_opts;
            degraded.interp = true;
            self.engine.set_options(degraded);
        }
    }

    /// Restores the ExecPlan path when the breaker's reset window has
    /// elapsed — half-open: one more plan-path fault re-trips
    /// immediately.
    fn update_breaker(&mut self, now: Duration) {
        if self.degraded_until.is_some_and(|until| now >= until) {
            self.version += 1;
            self.degraded_until = None;
            self.engine.set_options(self.base_opts);
            self.consecutive_faults = self.opts.breaker_threshold.saturating_sub(1);
        }
    }

    /// Records a ticket's typed failure under the bounded retention
    /// policy: beyond [`FAILED_RETENTION_CAP`] unpolled failures, the
    /// oldest are dropped. Resolution counters update here — exactly
    /// once per ticket.
    fn record_failure(&mut self, ticket: u64, e: ServeError) {
        self.version += 1;
        self.serve_stats.resolved_err += 1;
        if matches!(e, ServeError::DeadlineExceeded) {
            self.serve_stats.deadline_misses += 1;
        }
        let prev = self.failed.insert(ticket, e);
        debug_assert!(prev.is_none(), "ticket {ticket} resolved twice");
        if prev.is_none() {
            self.failed_order.push_back(ticket);
        }
        while self.failed.len() > FAILED_RETENTION_CAP {
            match self.failed_order.pop_front() {
                Some(t) => {
                    if self.failed.remove(&t).is_some() {
                        self.serve_stats.failed_dropped += 1;
                        self.note_expired(t);
                    }
                }
                None => break,
            }
        }
        // `failed_order` may hold tickets already polled out of
        // `failed`; compact so it stays within a constant factor of the
        // cap (amortized O(1) per failure).
        if self.failed_order.len() > 2 * FAILED_RETENTION_CAP {
            let failed = &self.failed;
            self.failed_order.retain(|t| failed.contains_key(t));
        }
    }

    /// Remembers a retention-dropped ticket so its poll can report
    /// [`ServeError::ResultExpired`], under its own (larger) bound.
    fn note_expired(&mut self, ticket: u64) {
        if self.expired.insert(ticket) {
            self.expired_order.push_back(ticket);
        }
        while self.expired.len() > EXPIRED_RETENTION_CAP {
            match self.expired_order.pop_front() {
                Some(t) => {
                    self.expired.remove(&t);
                }
                None => break,
            }
        }
        if self.expired_order.len() > 2 * EXPIRED_RETENTION_CAP {
            let expired = &self.expired;
            self.expired_order.retain(|t| expired.contains(t));
        }
    }

    // -- accessors ----------------------------------------------------

    /// Number of requests waiting for a flush.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Number of flushed-but-unpolled responses.
    pub fn ready(&self) -> usize {
        self.ready.len()
    }

    /// Number of retained typed failures not yet reported through
    /// [`Batcher::poll`] (bounded by [`FAILED_RETENTION_CAP`]).
    pub fn failed(&self) -> usize {
        self.failed.len()
    }

    /// Total tickets the batcher currently tracks:
    /// `pending() + ready() + failed()`.
    pub fn len(&self) -> usize {
        self.queue.len() + self.ready.len() + self.failed.len()
    }

    /// Whether no tickets are tracked at all.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The earliest instant at which a poll acts on the queue without a
    /// new submission (`None` with an empty queue).
    pub(crate) fn next_due(&self) -> Option<Duration> {
        self.due
    }

    /// A counter that moves whenever the queue, the ready set, the
    /// failed set or the breaker changes.
    pub(crate) fn version(&self) -> u64 {
        self.version
    }

    /// Executor-strategy counters of the most recent flush (see
    /// [`Engine::stats`]); `super_gemms > 0` means cross-request merging
    /// engaged.
    pub fn stats(&self) -> ExecStats {
        self.engine.stats()
    }

    /// Cumulative robustness counters (admission, deadlines,
    /// isolation, degradation).
    pub fn serve_stats(&self) -> ServeStats {
        self.serve_stats
    }

    /// How many merged executions have run.
    pub fn flushes(&self) -> u64 {
        self.flushes
    }

    /// The circuit breaker's externally observable state: `Open` while
    /// the engine is held on the degraded `interp` path, `HalfOpen` when
    /// one more consecutive plan-path fault would trip it (including
    /// the probe window right after a reset), `Closed` otherwise. The
    /// [`Router`] feeds its health-aware placement with this.
    pub fn breaker_state(&self) -> BreakerState {
        if self.degraded_until.is_some() {
            BreakerState::Open
        } else if self.opts.breaker_threshold > 0
            && self.consecutive_faults > 0
            && self.consecutive_faults + 1 >= self.opts.breaker_threshold
        {
            BreakerState::HalfOpen
        } else {
            BreakerState::Closed
        }
    }

    /// The current flush depth ([`BatcherOptions::max_batch`]) — live,
    /// because [`Batcher::set_max_batch`] can retune it.
    pub fn max_batch(&self) -> usize {
        self.opts.max_batch
    }

    /// Retunes the flush depth at runtime (the [`Router`]'s AIMD
    /// adaptive-depth controller drives this). Clamped to ≥ 1; if the
    /// queue already holds the new depth, it flushes immediately —
    /// exactly as if the requests had arrived under it.
    pub fn set_max_batch(&mut self, depth: usize) {
        self.opts.max_batch = depth.max(1);
        if self.queue.len() >= self.opts.max_batch {
            self.flush();
        }
    }

    /// The batcher's current policy options (admission, flush, deadline,
    /// breaker), reflecting any live [`Batcher::set_max_batch`] retune.
    pub fn options(&self) -> BatcherOptions {
        self.opts
    }
}

/// Human-readable message of a contained panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(injected) = payload.downcast_ref::<InjectedPanic>() {
        format!("injected panic at {}", injected.0)
    } else if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{silence_injected_panics, FaultInjector};
    use cortex_backend::exec::{self, FaultAction};
    use cortex_core::ra::RaSchedule;
    use cortex_ds::linearizer::Linearizer;
    use cortex_ds::{datasets, RecStructure};
    use cortex_models::{treelstm, LeafInit};
    use cortex_tensor::par;

    fn lin(s: &RecStructure) -> Linearized {
        Linearizer::new().linearize(s).unwrap()
    }

    /// Options for tests that flush only at `max_batch` (no wall-clock
    /// policies in the way).
    fn manual(max_batch: usize) -> BatcherOptions {
        BatcherOptions {
            max_batch,
            max_delay: Duration::from_secs(3600),
            ..BatcherOptions::default()
        }
    }

    #[test]
    fn batched_responses_equal_solo_runs_exactly() {
        let model = treelstm::tree_lstm(9, LeafInit::Embedding);
        let program = model.lower(&RaSchedule::default()).unwrap();
        let trees: Vec<RecStructure> = (0..5u64)
            .map(|s| datasets::random_binary_tree(6 + 3 * s as usize, s))
            .collect();

        let mut batcher = Batcher::new(&program, model.params.clone(), manual(trees.len()));
        let tickets: Vec<Ticket> = trees
            .iter()
            .map(|t| batcher.submit(lin(t)).unwrap())
            .collect();
        // The queue filled exactly: the last submit flushed everything.
        assert_eq!(batcher.pending(), 0);
        assert!(batcher.stats().super_gemms > 0, "merging must engage");

        for (t, ticket) in trees.iter().zip(tickets) {
            let response = batcher.poll(ticket).unwrap().expect("flushed");
            let (solo_out, solo_prof) =
                exec::execute(&program, &lin(t), &model.params, true).unwrap();
            assert_eq!(response.batch_size, trees.len());
            assert!(!response.degraded);
            assert_eq!(response.profile.flops, solo_prof.flops);
            assert_eq!(response.profile.launches, solo_prof.launches);
            for (id, tensor) in &solo_out {
                assert_eq!(&response.outputs[id], tensor, "bit-exact outputs");
            }
        }
        assert_eq!(batcher.ready(), 0, "every response polled exactly once");
        let stats = batcher.serve_stats();
        assert_eq!(stats.submitted, 5);
        assert_eq!(stats.resolved_ok, 5);
        assert_eq!(stats.resolved_err, 0);
    }

    #[test]
    fn submit_many_and_drain_resolve_every_ticket() {
        let model = treelstm::tree_lstm(6, LeafInit::Embedding);
        let program = model.lower(&RaSchedule::default()).unwrap();
        let trees: Vec<RecStructure> = (0..7u64)
            .map(|s| datasets::random_binary_tree(5 + 2 * s as usize, 50 + s))
            .collect();
        // max_batch 3: the burst spans multiple flush chunks.
        let mut batcher = Batcher::new(&program, model.params.clone(), manual(3));
        let tickets: Vec<Ticket> = batcher
            .submit_many(trees.iter().map(lin))
            .into_iter()
            .map(|r| r.expect("unbounded admission accepts all"))
            .collect();
        assert_eq!(tickets.len(), trees.len());
        // Two full chunks flushed synchronously mid-burst; one remains.
        assert_eq!(batcher.pending(), 1);
        let results = batcher.drain();
        assert!(batcher.is_empty(), "drain leaves nothing tracked");
        assert_eq!(results.len(), trees.len());
        // Ticket order, every outcome present, bit-exact vs solo runs.
        for ((ticket, result), t) in results.into_iter().zip(&trees) {
            let response = result.expect("all requests succeed");
            let (solo_out, solo_prof) =
                exec::execute(&program, &lin(t), &model.params, true).unwrap();
            assert!(tickets.contains(&ticket));
            assert_eq!(response.profile, solo_prof);
            for (id, tensor) in &solo_out {
                assert_eq!(&response.outputs[id], tensor);
            }
        }
    }

    #[test]
    fn drain_reports_failures_and_empties_the_batcher() {
        let model = treelstm::tree_lstm(4, LeafInit::Zero);
        let program = model.lower(&RaSchedule::default()).unwrap();
        let mut batcher = Batcher::new(
            &program,
            cortex_backend::params::Params::new(), // nothing bound: all fail
            manual(8),
        );
        let tickets: Vec<Ticket> = batcher
            .submit_many((0..3u64).map(|s| lin(&datasets::random_binary_tree(4, s))))
            .into_iter()
            .map(|r| r.unwrap())
            .collect();
        let results = batcher.drain();
        assert_eq!(results.len(), tickets.len());
        for (i, (ticket, result)) in results.into_iter().enumerate() {
            assert_eq!(ticket, tickets[i], "ticket order");
            assert!(matches!(
                result,
                Err(ServeError::EngineFault {
                    source: ExecError::MissingParam(_)
                })
            ));
        }
        assert!(batcher.is_empty());
        // Drained failures are gone: a re-poll reads as unknown.
        assert!(batcher.poll(tickets[0]).unwrap().is_none());
        // Counters saw each ticket resolve exactly once.
        let stats = batcher.serve_stats();
        assert_eq!(stats.submitted, 3);
        assert_eq!(stats.resolved_err, 3);
        assert_eq!(stats.resolved_ok, 0);
    }

    #[test]
    fn zero_delay_polls_flush_immediately() {
        let model = treelstm::tree_lstm(4, LeafInit::Zero);
        let program = model.lower(&RaSchedule::default()).unwrap();
        let mut batcher = Batcher::new(
            &program,
            model.params.clone(),
            BatcherOptions {
                max_batch: 64,
                max_delay: Duration::ZERO,
                ..BatcherOptions::default()
            },
        );
        let t = batcher
            .submit(lin(&datasets::random_binary_tree(8, 1)))
            .unwrap();
        assert_eq!(batcher.pending(), 1, "queue holds until a poll");
        let r = batcher.poll(t).unwrap().expect("deadline flush on poll");
        assert_eq!(r.batch_size, 1);
        assert_eq!(batcher.pending(), 0);
    }

    #[test]
    fn long_delay_keeps_queueing_until_batch_full() {
        let model = treelstm::tree_lstm(4, LeafInit::Zero);
        let program = model.lower(&RaSchedule::default()).unwrap();
        let mut batcher = Batcher::new(&program, model.params.clone(), manual(3));
        let t0 = batcher
            .submit(lin(&datasets::random_binary_tree(6, 2)))
            .unwrap();
        assert!(
            batcher.poll(t0).unwrap().is_none(),
            "within deadline: waits"
        );
        let _t1 = batcher
            .submit(lin(&datasets::random_binary_tree(7, 3)))
            .unwrap();
        assert_eq!(batcher.pending(), 2);
        let t2 = batcher
            .submit(lin(&datasets::random_binary_tree(8, 4)))
            .unwrap();
        // Third submission hit max_batch: everyone flushed together.
        assert_eq!(batcher.pending(), 0);
        assert_eq!(batcher.flushes(), 1);
        assert_eq!(batcher.poll(t0).unwrap().unwrap().batch_size, 3);
        assert_eq!(batcher.poll(t2).unwrap().unwrap().batch_size, 3);
    }

    #[test]
    fn failed_flushes_report_through_poll_instead_of_hanging() {
        // Unbound parameters make every execution fail: the tickets of
        // the failing chunk must surface the error on poll (exactly
        // once) rather than spin forever as "still queued" — and the
        // submitter must still receive its ticket (an earlier version
        // returned the flush error from `submit` and dropped the
        // ticket, stranding the request unpollable in the failed set).
        let model = treelstm::tree_lstm(4, LeafInit::Zero);
        let program = model.lower(&RaSchedule::default()).unwrap();
        let mut batcher = Batcher::new(
            &program,
            cortex_backend::params::Params::new(), // nothing bound
            manual(2),
        );
        let t0 = batcher
            .submit(lin(&datasets::random_binary_tree(5, 7)))
            .unwrap();
        // The second submission fills the batch; its synchronous flush
        // fails, and the submitter still gets a pollable ticket.
        let t1 = batcher
            .submit(lin(&datasets::random_binary_tree(6, 8)))
            .unwrap();
        assert_eq!(batcher.pending(), 0, "the failing chunk was drained");
        assert_eq!(batcher.failed(), 2);
        assert_eq!(batcher.len(), 2, "len == pending + ready + failed");
        // Both tickets report *their own* error, exactly once each.
        for t in [t0, t1] {
            assert!(matches!(
                batcher.poll(t),
                Err(ServeError::EngineFault {
                    source: ExecError::MissingParam(_)
                })
            ));
            assert!(batcher.poll(t).unwrap().is_none());
        }
        assert!(batcher.is_empty());
    }

    #[test]
    fn unpolled_failures_are_retained_bounded() {
        // A caller that drops failing tickets without polling them must
        // not grow the batcher without bound: retention is capped, with
        // the oldest failures dropped first.
        let model = treelstm::tree_lstm(3, LeafInit::Zero);
        let program = model.lower(&RaSchedule::default()).unwrap();
        let mut batcher = Batcher::new(
            &program,
            cortex_backend::params::Params::new(), // nothing bound: all flushes fail
            manual(1),
        );
        let total = FAILED_RETENTION_CAP + 40;
        let structure = datasets::random_binary_tree(3, 1);
        let mut first = None;
        let mut last = None;
        for _ in 0..total {
            let t = batcher.submit(lin(&structure)).unwrap();
            first.get_or_insert(t);
            last = Some(t);
        }
        assert_eq!(
            batcher.failed(),
            FAILED_RETENTION_CAP,
            "retention is capped"
        );
        assert_eq!(batcher.len(), FAILED_RETENTION_CAP);
        // The newest failure is still reportable with its own error; the
        // oldest was dropped, which its poll must *observe* — once — as
        // ResultExpired rather than reading as still-queued.
        assert!(matches!(
            batcher.poll(last.unwrap()),
            Err(ServeError::EngineFault { .. })
        ));
        assert_eq!(batcher.poll(first.unwrap()), Err(ServeError::ResultExpired));
        assert!(
            batcher.poll(first.unwrap()).unwrap().is_none(),
            "the expiration reports exactly once"
        );
        // Resolution counters recorded every ticket before the drops,
        // and the drops themselves are counted.
        assert_eq!(batcher.serve_stats().resolved_err, total as u64);
        assert_eq!(batcher.serve_stats().failed_dropped, 40);
    }

    #[test]
    fn dropped_failures_surface_result_expired_in_drain_too() {
        // Regression for the silent-loss bug: a retention-dropped ticket
        // must be distinguishable from an unknown one in *every*
        // reporting path — drain included.
        let model = treelstm::tree_lstm(3, LeafInit::Zero);
        let program = model.lower(&RaSchedule::default()).unwrap();
        let mut batcher = Batcher::new(
            &program,
            cortex_backend::params::Params::new(), // nothing bound: all flushes fail
            manual(1),
        );
        let structure = datasets::random_binary_tree(3, 1);
        let mut tickets = Vec::new();
        for _ in 0..FAILED_RETENTION_CAP + 3 {
            tickets.push(batcher.submit(lin(&structure)).unwrap());
        }
        assert_eq!(batcher.serve_stats().failed_dropped, 3);
        let results: HashMap<Ticket, Result<Response, ServeError>> =
            batcher.drain().into_iter().collect();
        assert_eq!(results.len(), tickets.len(), "drain reports every ticket");
        for (i, t) in tickets.iter().enumerate() {
            match &results[t] {
                Err(ServeError::ResultExpired) => {
                    assert!(i < 3, "only the dropped oldest expire")
                }
                Err(ServeError::EngineFault { .. }) => assert!(i >= 3),
                other => panic!("unexpected outcome for ticket {i}: {other:?}"),
            }
        }
        assert!(batcher.is_empty(), "drain clears the expired tail too");
        assert!(batcher.poll(tickets[0]).unwrap().is_none());
    }

    #[test]
    fn a_poisoned_chunk_mate_is_isolated_by_bisection() {
        // An unrolling schedule rejects DAG inputs at interpreter build
        // time, so a chunk containing a DAG fails as a whole: bisection
        // must isolate the DAG to its own typed error while its healthy
        // chunk-mate — co-batched with the culprit — still resolves,
        // and later chunks must be untouched.
        let model = treelstm::tree_lstm(4, LeafInit::Zero);
        let program = model
            .lower(&RaSchedule {
                unroll: Some(2),
                ..RaSchedule::default()
            })
            .unwrap();
        let mut batcher = Batcher::new(&program, model.params.clone(), manual(2));
        // Chunk 1: a DAG poisons it (unrolling a DAG is rejected). A
        // full-binary diamond, so it clears the plan's arity intake and
        // only fails at engine time — the containment scenario.
        let bad = {
            use cortex_ds::{StructureBuilder, StructureKind};
            let mut b = StructureBuilder::new(StructureKind::Dag);
            let l0 = b.leaf(1);
            let l1 = b.leaf(2);
            let l2 = b.leaf(3);
            let d0 = b.internal(&[l0, l1]).unwrap();
            let d1 = b.internal(&[l1, l2]).unwrap();
            b.internal(&[d0, d1]).unwrap();
            batcher.submit(lin(&b.finish().unwrap())).unwrap()
        };
        let innocent = batcher
            .submit(lin(&datasets::random_binary_tree(6, 9)))
            .unwrap();
        // Chunk 2: trees only — must still execute.
        let good0 = batcher
            .submit(lin(&datasets::random_binary_tree(5, 10)))
            .unwrap();
        let good1 = batcher
            .submit(lin(&datasets::random_binary_tree(7, 11)))
            .unwrap();
        assert_eq!(batcher.pending(), 0);
        assert!(matches!(
            batcher.poll(bad),
            Err(ServeError::EngineFault {
                source: ExecError::Unroll(_)
            })
        ));
        assert!(
            batcher.poll(innocent).unwrap().is_some(),
            "bisection re-runs the healthy chunk-mate instead of sharing the culprit's error"
        );
        assert!(batcher.poll(good0).unwrap().is_some(), "later chunk ran");
        assert!(batcher.poll(good1).unwrap().is_some());
        assert!(batcher.is_empty());
        assert_eq!(batcher.serve_stats().isolated_faults, 1);
    }

    #[test]
    fn steady_state_serving_repacks_no_weights() {
        // Weight packs are pinned across a serving engine's lifetime
        // (one per stacking group per params generation): after the
        // first flush, no flush may repack anything.
        let model = treelstm::tree_lstm(8, LeafInit::Embedding);
        let program = model.lower(&RaSchedule::default()).unwrap();
        let mut batcher = Batcher::new(&program, model.params.clone(), manual(3));
        for round in 0..4u64 {
            let tickets: Vec<Ticket> = (0..3u64)
                .map(|s| {
                    batcher
                        .submit(lin(&datasets::random_binary_tree(
                            6 + s as usize,
                            31 + round * 3 + s,
                        )))
                        .unwrap()
                })
                .collect();
            for t in tickets {
                batcher.poll(t).unwrap().expect("flushed");
            }
            if round > 0 {
                assert_eq!(
                    batcher.stats().weight_packs,
                    0,
                    "steady-state flush {round} repacked weights"
                );
            }
        }
    }

    #[test]
    fn responses_route_to_the_right_ticket() {
        // Distinguishable inputs: different tree shapes give different
        // node counts, so the output tensor's first dimension identifies
        // which request a response belongs to.
        let model = treelstm::tree_lstm(5, LeafInit::Embedding);
        let program = model.lower(&RaSchedule::default()).unwrap();
        let sizes = [5usize, 9, 13, 17];
        let trees: Vec<RecStructure> = sizes
            .iter()
            .enumerate()
            .map(|(i, &n)| datasets::random_binary_tree(n, i as u64))
            .collect();
        let mut batcher = Batcher::new(&program, model.params.clone(), manual(trees.len()));
        let tickets: Vec<Ticket> = trees
            .iter()
            .map(|t| batcher.submit(lin(t)).unwrap())
            .collect();
        for (t, ticket) in trees.iter().zip(tickets) {
            let r = batcher.poll(ticket).unwrap().unwrap();
            let out = &r.outputs[&model.output];
            assert_eq!(out.shape().dim(0), t.num_nodes());
        }
    }

    /// 16 queued length-12 sequences for the seq-LSTM at h = 6.
    fn sixteen_sequences() -> (cortex_models::Model, IlirProgram, Vec<Linearized>) {
        let model = cortex_models::seq::seq_lstm(6);
        let program = model.lower(&RaSchedule::default()).unwrap();
        let seqs = (0..16u64)
            .map(|s| lin(&datasets::sequence(12, s)))
            .collect();
        (model, program, seqs)
    }

    /// Merging within one schedule, so pinned to one lane: there the
    /// whole flush is one lane group.
    #[test]
    fn queued_sequences_report_wide_superwaves() {
        let (model, program, seqs) = sixteen_sequences();
        par::with_lanes(1, || {
            // Depth 1: a sequence alone launches a GEMM for every wave.
            let mut solo = Batcher::new(&program, model.params.clone(), manual(1));
            let t = solo.submit(seqs[0].clone()).unwrap();
            solo.poll(t).unwrap().expect("flushed");
            let solo_gemms = solo.stats().wave_gemms as f64;

            let mut batcher = Batcher::new(&program, model.params.clone(), manual(16));
            let tickets: Vec<Ticket> = seqs
                .into_iter()
                .map(|l| batcher.submit(l).unwrap())
                .collect();
            let r = batcher.poll(tickets[0]).unwrap().unwrap();
            assert!(
                (r.superwave_width - 16.0).abs() < 1e-9,
                "16 width-1 sequence waves merge into width-16 super-waves, got {}",
                r.superwave_width
            );
            let stats = batcher.stats();
            assert!(stats.super_gemms > 0);
            let mean_requests = stats.super_gemm_requests as f64 / stats.super_gemms as f64;
            assert!(
                mean_requests >= 12.0,
                "nearly every GEMM should serve all 16 requests, got {mean_requests:.2}"
            );
            let gemms_per_request = stats.wave_gemms as f64 / 16.0;
            assert!(
                gemms_per_request * 8.0 <= solo_gemms,
                "depth 16 must launch ≥ 8× fewer GEMMs per request than depth 1 \
                 ({gemms_per_request:.2} vs {solo_gemms})"
            );
        });
    }

    /// On two lanes the flush splits into two lane groups of 8, and each
    /// response reports its own group's width (16 on a one-CPU box,
    /// where there is one group).
    #[test]
    fn superwave_width_is_the_lane_groups() {
        let (model, program, seqs) = sixteen_sequences();
        par::with_lanes(2, || {
            let groups = par::lanes();
            let mut batcher = Batcher::new(&program, model.params.clone(), manual(16));
            let tickets: Vec<Ticket> = (seqs.iter())
                .map(|l| batcher.submit(l.clone()).unwrap())
                .collect();
            for t in tickets {
                let r = batcher.poll(t).unwrap().expect("flushed");
                assert_eq!(r.batch_size, 16);
                assert_eq!(r.superwave_width, (16 / groups) as f64);
            }
            if groups == 2 {
                // Equal sizes deal alternately.
                let halves: Vec<Vec<usize>> =
                    vec![(0..16).step_by(2).collect(), (1..16).step_by(2).collect()];
                assert_eq!(batcher.engine.batch_groups(), halves);
            }
        });
    }

    /// Mixed depths merge wave by wave: a lane group's width is its
    /// internal nodes over its deepest request's waves. Sequences of 7,
    /// 13, 3 and 10 nodes have 6, 12, 2 and 9 one-node internal waves,
    /// so their 12 super-waves carry 29 nodes.
    #[test]
    fn mixed_depth_widths_spread_over_the_deepest_request() {
        let model = cortex_models::seq::seq_lstm(6);
        let program = model.lower(&RaSchedule::default()).unwrap();
        let seqs: Vec<Linearized> = [7usize, 13, 3, 10]
            .iter()
            .zip(1u64..)
            .map(|(&len, seed)| lin(&datasets::sequence(len, seed)))
            .collect();
        let waves: Vec<usize> = seqs.iter().map(|l| l.internal_batches().len()).collect();
        assert_eq!(waves, [6, 12, 2, 9], "a length-L sequence has L − 1 waves");
        assert!(seqs
            .iter()
            .all(|l| l.internal_batches().iter().all(|b| b.len() == 1)));
        par::with_lanes(1, || {
            let mut batcher = Batcher::new(&program, model.params.clone(), manual(4));
            let tickets: Vec<Ticket> = (seqs.iter())
                .map(|l| batcher.submit(l.clone()).unwrap())
                .collect();
            assert_eq!(batcher.engine.batch_groups(), [[0, 1, 2, 3]]);
            for t in tickets {
                let r = batcher.poll(t).unwrap().expect("flushed");
                assert_eq!(r.superwave_width, 29.0 / 12.0);
            }
        });
    }

    // -- robustness: admission, deadlines, isolation, degradation -----

    #[test]
    fn full_queue_rejects_without_issuing_a_ticket() {
        let model = treelstm::tree_lstm(3, LeafInit::Zero);
        let program = model.lower(&RaSchedule::default()).unwrap();
        let mut batcher = Batcher::new(
            &program,
            model.params.clone(),
            BatcherOptions {
                max_batch: 64, // never auto-flushes in this test
                max_delay: Duration::from_secs(3600),
                queue_cap: 2,
                ..BatcherOptions::default()
            },
        );
        let structure = datasets::random_binary_tree(4, 2);
        let t0 = batcher.submit(lin(&structure)).unwrap();
        let t1 = batcher.submit(lin(&structure)).unwrap();
        assert_eq!(
            batcher.submit(lin(&structure)),
            Err(ServeError::QueueFull),
            "third submission finds the queue at cap"
        );
        assert_eq!(batcher.pending(), 2, "queued requests are untouched");
        for (ticket, result) in batcher.drain() {
            assert!(ticket == t0 || ticket == t1);
            result.expect("admitted requests execute normally");
        }
        let stats = batcher.serve_stats();
        assert_eq!(stats.submitted, 2);
        assert_eq!(stats.rejected, 1);
        assert_eq!(stats.resolved_ok, 2);
    }

    #[test]
    fn deadlines_reject_at_admission_and_expire_at_flush_boundaries() {
        let model = treelstm::tree_lstm(3, LeafInit::Zero);
        let program = model.lower(&RaSchedule::default()).unwrap();
        let clock = TestClock::new();
        let mut batcher = Batcher::new(&program, model.params.clone(), manual(64))
            .with_clock(Rc::new(clock.clone()));
        let structure = datasets::random_binary_tree(4, 2);
        // Admission-time: a zero budget can never execute.
        assert_eq!(
            batcher.submit_with_deadline(lin(&structure), Some(Duration::ZERO)),
            Err(ServeError::DeadlineExceeded)
        );
        // Flush-boundary: the 5 ms request expires while queued, the
        // deadline-free one executes.
        let doomed = batcher
            .submit_with_deadline(lin(&structure), Some(Duration::from_millis(5)))
            .unwrap();
        let healthy = batcher.submit(lin(&structure)).unwrap();
        clock.advance(Duration::from_millis(6));
        batcher.flush();
        assert_eq!(batcher.poll(doomed), Err(ServeError::DeadlineExceeded));
        let response = batcher.poll(healthy).unwrap().expect("flushed");
        assert!(response.queue_delay >= Duration::from_millis(6));
        let stats = batcher.serve_stats();
        assert_eq!(stats.rejected, 1, "zero-budget admission refusal");
        assert_eq!(stats.deadline_misses, 1);
        assert_eq!(stats.submitted, 2);
        assert_eq!(stats.resolved_ok + stats.resolved_err, stats.submitted);
    }

    #[test]
    fn expired_deadlines_resolve_on_poll_without_a_flush() {
        let model = treelstm::tree_lstm(3, LeafInit::Zero);
        let program = model.lower(&RaSchedule::default()).unwrap();
        let clock = TestClock::new();
        let mut batcher = Batcher::new(
            &program,
            model.params.clone(),
            BatcherOptions {
                max_batch: 64,
                max_delay: Duration::from_secs(3600), // poll never flushes
                deadline: Some(Duration::from_millis(10)),
                ..BatcherOptions::default()
            },
        )
        .with_clock(Rc::new(clock.clone()));
        let t = batcher
            .submit(lin(&datasets::random_binary_tree(4, 2)))
            .unwrap();
        assert!(batcher.poll(t).unwrap().is_none(), "within budget: waits");
        clock.advance(Duration::from_millis(11));
        assert_eq!(batcher.poll(t), Err(ServeError::DeadlineExceeded));
        assert!(batcher.is_empty());
    }

    #[test]
    fn an_injected_panic_poisons_only_the_culprit() {
        silence_injected_panics();
        let model = treelstm::tree_lstm(5, LeafInit::Embedding);
        let program = model.lower(&RaSchedule::default()).unwrap();
        // Unique node counts identify requests across bisection re-runs.
        let sizes = [5usize, 9, 13, 17];
        let trees: Vec<RecStructure> = sizes
            .iter()
            .enumerate()
            .map(|(i, &n)| datasets::random_binary_tree(n, i as u64))
            .collect();
        let mut batcher = Batcher::new(&program, model.params.clone(), manual(trees.len()));
        // Panic at every launch of the third request (identified by its
        // unique node count) — sticky: it still faults when bisection
        // re-runs it in smaller chunks.
        let culprit_nodes = lin(&trees[2]).num_nodes();
        let (hook, handle) = FaultInjector::new(77)
            .always(FaultAction::Panic)
            .poison_nodes(culprit_nodes)
            .into_hook();
        batcher.set_fault_hook(Some(hook));
        let tickets: Vec<Ticket> = trees
            .iter()
            .map(|t| batcher.submit(lin(t)).unwrap())
            .collect();
        assert_eq!(batcher.pending(), 0, "batch flushed on the last submit");
        for (i, (t, ticket)) in trees.iter().zip(&tickets).enumerate() {
            if i == 2 {
                assert!(matches!(
                    batcher.poll(*ticket),
                    Err(ServeError::Poisoned { .. })
                ));
                continue;
            }
            // Healthy chunk-mates resolve bit-identically to solo runs
            // even though their first execution attempt was unwound.
            let response = batcher.poll(*ticket).unwrap().expect("isolated and re-run");
            let (solo_out, solo_prof) =
                exec::execute(&program, &lin(t), &model.params, true).unwrap();
            assert_eq!(response.profile, solo_prof);
            for (id, tensor) in &solo_out {
                assert_eq!(&response.outputs[id], tensor);
            }
        }
        assert!(handle.fired() >= 1);
        let stats = batcher.serve_stats();
        assert!(
            stats.panics_contained >= 2,
            "the whole-batch attempt and the bisection re-runs each contained a panic"
        );
        assert_eq!(stats.isolated_faults, 1);
        assert_eq!(stats.resolved_ok, 3);
        assert_eq!(stats.resolved_err, 1);
    }

    /// The engine a contained panic forces the batcher to rebuild keeps
    /// its build kind: a per-element engine comes back per-element (no
    /// wave GEMM), a batched one batched, and every healthy request's
    /// response is bit-identical to a solo run on a fresh engine of that
    /// kind, before and after the rebuild.
    #[test]
    fn a_rebuilt_engine_keeps_its_build_kind() {
        silence_injected_panics();
        let model = treelstm::tree_lstm(5, LeafInit::Embedding);
        let program = model.lower(&RaSchedule::default()).unwrap();
        let trees: Vec<RecStructure> = [5usize, 9, 13, 17]
            .iter()
            .enumerate()
            .map(|(i, &n)| datasets::random_binary_tree(n, i as u64))
            .collect();
        let culprit_nodes = lin(&trees[1]).num_nodes();
        let opts = ExecOptions::default();
        for per_element in [true, false] {
            let build = || match per_element {
                true => Engine::per_element(&program, opts),
                false => Engine::with_options(&program, opts),
            };
            let mut batcher = Batcher::with_engine(build(), model.params.clone(), manual(4));
            let (hook, _) = FaultInjector::new(3)
                .always(FaultAction::Panic)
                .poison_nodes(culprit_nodes)
                .into_hook();
            batcher.set_fault_hook(Some(hook));
            let tickets: Vec<Ticket> = (trees.iter())
                .map(|t| batcher.submit(lin(t)).unwrap())
                .collect();
            assert!(
                batcher.serve_stats().panics_contained >= 1,
                "the engine was rebuilt"
            );
            batcher.set_fault_hook(None);
            let again: Vec<Ticket> = (trees.iter())
                .map(|t| batcher.submit(lin(t)).unwrap())
                .collect();
            assert_eq!(
                batcher.stats().wave_gemms == 0,
                per_element,
                "per-element {per_element}: the rebuilt engine keeps its lowering"
            );
            let mut solo = build();
            for (i, t) in trees.iter().enumerate() {
                let want = solo.execute(&lin(t), &model.params, true).unwrap();
                for ticket in [tickets[i], again[i]] {
                    match batcher.poll(ticket) {
                        Err(ServeError::Poisoned { .. }) if i == 1 && ticket == tickets[i] => {}
                        outcome => {
                            let response = outcome.unwrap().expect("served");
                            assert!(
                                (response.outputs, response.profile) == want,
                                "per-element {per_element}, tree {i}: bit-identical"
                            );
                        }
                    }
                }
            }
        }
    }

    /// With a fault hook installed, an engine runs a flush's lane groups
    /// one after another on the caller. A sticky culprit then meets the
    /// same faults on one lane and on two: every ticket's outcome, the
    /// serving counters and the hook's own counts are equal.
    #[test]
    fn fault_outcomes_do_not_depend_on_the_lane_count() {
        silence_injected_panics();
        let model = treelstm::tree_lstm(5, LeafInit::Embedding);
        let program = model.lower(&RaSchedule::default()).unwrap();
        let trees: Vec<RecStructure> = [5usize, 9, 13, 17, 21, 25]
            .iter()
            .enumerate()
            .map(|(i, &n)| datasets::random_binary_tree(n, i as u64))
            .collect();
        let culprit_nodes = lin(&trees[3]).num_nodes();
        for action in [FaultAction::Err, FaultAction::Panic] {
            let run = |lanes: usize| {
                par::with_lanes(lanes, || {
                    let mut batcher = Batcher::new(&program, model.params.clone(), manual(6));
                    let (hook, handle) = FaultInjector::new(5)
                        .always(action)
                        .poison_nodes(culprit_nodes)
                        .into_hook();
                    batcher.set_fault_hook(Some(hook));
                    let tickets: Vec<Ticket> = (trees.iter())
                        .map(|t| batcher.submit(lin(t)).unwrap())
                        .collect();
                    let outcomes: Vec<_> = (tickets.into_iter())
                        .map(|t| {
                            let r = batcher.poll(t).map(|r| r.expect("flushed"));
                            r.map(|r| (r.outputs, r.profile, r.batch_size))
                        })
                        .collect();
                    let counts = (handle.consulted(), handle.fired());
                    (outcomes, batcher.serve_stats(), counts)
                })
            };
            let one = run(1);
            assert_eq!(one.0.iter().filter(|o| o.is_err()).count(), 1);
            assert_eq!(one, run(2), "{action:?}");
        }
    }

    #[test]
    fn circuit_breaker_degrades_to_interp_and_recovers_half_open() {
        let model = treelstm::tree_lstm(4, LeafInit::Embedding);
        let program = model.lower(&RaSchedule::default()).unwrap();
        let clock = TestClock::new();
        let mut batcher = Batcher::new(
            &program,
            model.params.clone(),
            BatcherOptions {
                max_batch: 1, // every submission flushes alone
                max_delay: Duration::from_secs(3600),
                breaker_threshold: 2,
                breaker_reset: Duration::from_secs(1),
                ..BatcherOptions::default()
            },
        )
        .with_clock(Rc::new(clock.clone()));
        // Launch sites exist only in the lowered-plan runtime, so this
        // emulates a broken ExecPlan whose interp oracle still works.
        let (hook, _handle) = FaultInjector::new(3)
            .always(FaultAction::Err)
            .launches_only()
            .into_hook();
        batcher.set_fault_hook(Some(hook));
        let structure = datasets::random_binary_tree(6, 4);
        let (solo_out, _) = exec::execute(&program, &lin(&structure), &model.params, true).unwrap();

        // Two consecutive plan-path faults trip the breaker...
        for _ in 0..2 {
            let t = batcher.submit(lin(&structure)).unwrap();
            assert!(matches!(
                batcher.poll(t),
                Err(ServeError::EngineFault {
                    source: ExecError::Injected(_)
                })
            ));
        }
        assert!(batcher.degraded(), "threshold reached");
        // ...and traffic keeps flowing on the oracle path, bit-identical.
        let t = batcher.submit(lin(&structure)).unwrap();
        let r = batcher.poll(t).unwrap().expect("degraded but serving");
        assert!(r.degraded);
        for (id, tensor) in &solo_out {
            assert_eq!(&r.outputs[id], tensor, "oracle path is bit-identical");
        }
        assert!(batcher.serve_stats().degraded_runs >= 1);

        // After the reset window the plan path is re-tried (half-open):
        // its first fault re-trips immediately...
        clock.advance(Duration::from_secs(2));
        let t = batcher.submit(lin(&structure)).unwrap();
        assert!(batcher.poll(t).is_err(), "half-open probe faulted");
        assert!(batcher.degraded(), "one fault re-trips a half-open breaker");
        // ...and traffic still flows degraded.
        let t = batcher.submit(lin(&structure)).unwrap();
        assert!(batcher.poll(t).unwrap().is_some());

        // A healed plan path (hook removed) closes the breaker for good.
        clock.advance(Duration::from_secs(2));
        batcher.set_fault_hook(None);
        let t = batcher.submit(lin(&structure)).unwrap();
        let r = batcher.poll(t).unwrap().expect("healed");
        assert!(!r.degraded);
        assert!(!batcher.degraded());
    }

    /// The degraded rung's contract: once the breaker trips, a flush of
    /// mixed-length sequences is one solo oracle walk per request —
    /// every response flagged, `==` a solo run (outputs and `Profile`),
    /// its width its own, no GEMM merged — and the fault hook, which
    /// faults every site it is consulted at, is never consulted.
    #[test]
    fn degraded_flushes_are_solo_oracle_walks() {
        let model = cortex_models::seq::seq_lstm(6);
        let program = model.lower(&RaSchedule::default()).unwrap();
        let mut batcher = Batcher::new(
            &program,
            model.params.clone(),
            BatcherOptions {
                breaker_threshold: 1,
                ..manual(4)
            },
        );
        let (hook, handle) = FaultInjector::new(9).always(FaultAction::Err).into_hook();
        batcher.set_fault_hook(Some(hook));
        let t = batcher.submit(lin(&datasets::sequence(4, 0))).unwrap();
        batcher.flush();
        assert!(batcher.poll(t).is_err(), "the plan path faults");
        assert!(batcher.degraded(), "one fault trips a threshold of 1");
        let consulted = handle.consulted();

        let seqs: Vec<Linearized> = [7usize, 13, 3, 10]
            .iter()
            .zip(1u64..)
            .map(|(&len, seed)| lin(&datasets::sequence(len, seed)))
            .collect();
        let tickets: Vec<Ticket> = (seqs.iter())
            .map(|l| batcher.submit(l.clone()).unwrap())
            .collect();
        assert_eq!(batcher.pending(), 0, "the fourth submit flushed");
        assert_eq!(batcher.stats().super_gemms, 0, "nothing merges");
        assert_eq!(batcher.engine.batch_groups(), [[0], [1], [2], [3]]);
        assert_eq!(handle.consulted(), consulted, "the oracle consults no site");
        let mut solo = Engine::new(&program);
        for (l, t) in seqs.iter().zip(tickets) {
            let r = batcher.poll(t).unwrap().expect("degraded but serving");
            assert!(r.degraded);
            assert_eq!(r.batch_size, 4);
            assert_eq!(
                r.superwave_width, 1.0,
                "a request's width is its own: a sequence's waves are one node wide"
            );
            let (outputs, profile) = solo.execute(l, &model.params, true).unwrap();
            assert!(
                r.outputs == outputs && r.profile == profile,
                "== a solo run"
            );
        }
    }

    #[test]
    fn mid_batch_reconfiguration_stays_bit_identical() {
        // Satellite regression: `set_exec_options` while requests are
        // queued (they have not started executing) must either serve
        // them bit-identically under the new configuration or reject
        // them — never corrupt. No option reaches the lowered plan, so
        // the flush after the switch behaves exactly like a freshly
        // built engine.
        let model = treelstm::tree_lstm(6, LeafInit::Embedding);
        let program = model.lower(&RaSchedule::default()).unwrap();
        let trees: Vec<RecStructure> = (0..4u64)
            .map(|s| datasets::random_binary_tree(5 + 2 * s as usize, 90 + s))
            .collect();
        let flips = [
            ExecOptions {
                bulk: false,
                ..ExecOptions::default()
            },
            ExecOptions {
                interp: true,
                ..ExecOptions::default()
            },
        ];
        for opts in flips {
            let mut batcher = Batcher::new(&program, model.params.clone(), manual(64));
            // Warm the engine under the default configuration first.
            let warm = batcher
                .submit(lin(&datasets::random_binary_tree(8, 1)))
                .unwrap();
            batcher.flush();
            assert!(batcher.poll(warm).unwrap().is_some());
            // Queue a batch, then reconfigure mid-batch.
            let tickets: Vec<Ticket> = trees
                .iter()
                .map(|t| batcher.submit(lin(t)).unwrap())
                .collect();
            assert_eq!(batcher.pending(), trees.len());
            batcher.set_exec_options(opts);
            batcher.flush();
            for (t, ticket) in trees.iter().zip(&tickets) {
                let response = batcher.poll(*ticket).unwrap().expect("served after switch");
                // Oracle: a fresh engine built directly with the new
                // options, run solo.
                let (solo_out, solo_prof) = Engine::with_options(&program, opts)
                    .execute(&lin(t), &model.params, true)
                    .unwrap();
                assert_eq!(response.profile, solo_prof);
                for (id, tensor) in &solo_out {
                    assert_eq!(&response.outputs[id], tensor, "bit-exact after reconfig");
                }
            }
        }
    }

    #[test]
    fn serve_error_display_and_source_chain() {
        let e = ServeError::EngineFault {
            source: ExecError::MissingParam("w".into()),
        };
        assert!(e.to_string().contains("engine fault"));
        assert!(std::error::Error::source(&e).is_some());
        assert!(std::error::Error::source(&ServeError::QueueFull).is_none());
        assert!(ServeError::Shed.to_string().contains("shed"));
        assert!(ServeError::DeadlineExceeded
            .to_string()
            .contains("deadline"));
        let exhausted = ServeError::RetriesExhausted {
            attempts: 3,
            last: Box::new(ServeError::Poisoned {
                message: "boom".into(),
            }),
        };
        assert!(exhausted.to_string().contains("3 attempts"));
        assert!(exhausted.to_string().contains("boom"));
        assert!(
            std::error::Error::source(&exhausted).is_some(),
            "the last attempt's error chains as the source"
        );
        assert!(ServeError::ResultExpired.to_string().contains("retention"));
        assert!(ServeError::Unavailable.to_string().contains("alive"));
        assert!(ServeError::Draining.to_string().contains("draining"));
    }
}
