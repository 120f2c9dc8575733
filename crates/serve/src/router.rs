//! A sharded, multi-model serving router over [`Batcher`] shards.
//!
//! One [`Router`] owns a registry of models; each model is served by a
//! vector of [`Batcher`] shards (one engine each). On top of the
//! single-queue robustness substrate the shards provide, the router
//! adds the *topology*-level behaviors a production front needs:
//!
//! * **Health-aware placement** — a request goes to the *healthy*
//!   shard (alive, breaker not [`BreakerState::Open`], rolling error
//!   rate within the [`HealthPolicy`]) with the fewest queued requests,
//!   ties to the lowest index. A shard refusing with
//!   [`ServeError::QueueFull`] spills to the next sibling instead of
//!   bouncing the caller.
//! * **Budgeted retries** — a leg that fails with a fault-shaped error
//!   ([`ServeError::EngineFault`], [`ServeError::Poisoned`],
//!   [`ServeError::ResultExpired`]) is re-dispatched to a healthy
//!   sibling under the [`RetryPolicy`]'s deterministic backoff;
//!   exhaustion resolves [`ServeError::RetriesExhausted`].
//! * **Failover** — killing a shard ([`Router::kill_shard`]) moves its
//!   outstanding legs to live siblings *without* consuming retry
//!   budget; a request only resolves [`ServeError::Unavailable`] when
//!   no shard of its model is left alive.
//! * **Graceful lifecycle** — [`Router::drain`] resolves every
//!   outstanding ticket (flushing and retrying as needed);
//!   [`Router::shutdown`] does the same under a wall budget and sheds
//!   the remainder as typed [`ServeError::Shed`] outcomes. No ticket is
//!   ever lost either way.
//! * **Adaptive flush depth** — an [`AimdDepth`] controller retunes
//!   each shard's `max_batch` from its observed deadline-miss rate:
//!   additive increase while misses stay at zero, multiplicative
//!   decrease the moment a window sees one. The depth-16 constant the
//!   bench curve questioned becomes a live tradeoff.
//!
//! Determinism is load-bearing everywhere: placement reads only queue
//! depths and health, backoff is computed (never slept) on the injected
//! [`Clock`], and shard outputs are bit-identical to solo runs — so the
//! router-level model-based suite can assert exactly-once resolution
//! *and* bitwise-equal survivors across arbitrary fault/kill
//! interleavings. How often a caller polls does not change any of it: a
//! [`Router::poll`] that skips its pump skips a no-op (the pump before
//! it changed nothing, nothing has mutated since, and no time-driven
//! condition has come due). Debug builds run every skipped pump anyway
//! and assert that it changed nothing.
//!
//! [`BreakerState::Open`]: crate::BreakerState::Open
//! [`ServeError::QueueFull`]: crate::ServeError::QueueFull
//! [`ServeError::EngineFault`]: crate::ServeError::EngineFault
//! [`ServeError::Poisoned`]: crate::ServeError::Poisoned
//! [`ServeError::ResultExpired`]: crate::ServeError::ResultExpired
//! [`ServeError::RetriesExhausted`]: crate::ServeError::RetriesExhausted
//! [`ServeError::Unavailable`]: crate::ServeError::Unavailable
//! [`ServeError::Shed`]: crate::ServeError::Shed

use std::collections::HashMap;
use std::ops::Range;
use std::rc::Rc;
use std::time::Duration;

use cortex_backend::exec::FaultHook;
use cortex_backend::params::Params;
use cortex_core::ilir::IlirProgram;
use cortex_ds::linearizer::Linearized;

use crate::health::{BreakerState, HealthPolicy, HealthSnapshot, RollingWindow};
use crate::retry::RetryPolicy;
use crate::{
    Batcher, BatcherOptions, Clock, MonotonicClock, Response, ServeError, ServeStats, Ticket,
};

/// Handle to a model registered with [`Router::add_model`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ModelId(pub(crate) usize);

/// Handle to one request submitted to the [`Router`] (distinct from
/// the per-shard [`Ticket`]s its legs hold internally).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RouterTicket(pub(crate) u64);

/// AIMD controller for a shard's flush depth (`max_batch`): every
/// `window` resolutions, halve the depth if the window saw a deadline
/// miss, else grow it by one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AimdDepth {
    /// Depth each shard starts at (overrides the shard's
    /// [`BatcherOptions::max_batch`]).
    pub start: usize,
    /// Floor of the multiplicative decrease.
    pub min: usize,
    /// Ceiling of the additive increase.
    pub max: usize,
    /// How many shard resolutions make one observation window.
    pub window: u32,
}

impl Default for AimdDepth {
    fn default() -> Self {
        AimdDepth {
            start: 16,
            min: 1,
            max: 64,
            window: 8,
        }
    }
}

/// Topology-level policy of a [`Router`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RouterOptions {
    /// Retry budget and backoff for fault-shaped leg failures.
    pub retry: RetryPolicy,
    /// Adaptive per-shard flush depth (`None` = shards keep their
    /// configured fixed `max_batch`).
    pub adaptive_depth: Option<AimdDepth>,
    /// What "healthy" means for placement.
    pub health: HealthPolicy,
}

impl Default for RouterOptions {
    fn default() -> Self {
        RouterOptions {
            retry: RetryPolicy::default(),
            adaptive_depth: Some(AimdDepth::default()),
            health: HealthPolicy::default(),
        }
    }
}

/// Topology-level counters of a [`Router`], cumulative over its
/// lifetime. The router-level accounting invariant:
/// `submitted == resolved_ok + resolved_err + pending()` at every
/// quiescent point (after [`Router::drain`] / [`Router::shutdown`],
/// `pending() == 0`). Retries and failovers are *legs* of one ticket —
/// they never double-count a resolution.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RouterStats {
    /// Router tickets issued.
    pub submitted: u64,
    /// Submissions refused without a ticket (every shard full, invalid
    /// input, zero deadline, draining, model dead).
    pub rejected: u64,
    /// Tickets resolved with a [`Response`].
    pub resolved_ok: u64,
    /// Tickets resolved with a [`ServeError`].
    pub resolved_err: u64,
    /// Tickets resolved [`ServeError::Shed`] (shutdown remainder).
    pub shed: u64,
    /// Tickets resolved [`ServeError::DeadlineExceeded`] at the router
    /// level (shard-level misses roll up here too: the leg's miss is
    /// the ticket's outcome unless a retry rescues it).
    pub deadline_misses: u64,
    /// Re-dispatches after fault-shaped leg failures (consumes
    /// [`RetryPolicy`] budget).
    pub retries: u64,
    /// Tickets that resolved [`ServeError::RetriesExhausted`].
    pub retries_exhausted: u64,
    /// Dispatches that landed on a non-first-choice shard because the
    /// preferred shard was at queue cap. Only a re-dispatch can spill:
    /// every shard of a model has the same cap, so the least-loaded one
    /// is full only when all are, but a retry puts the shard it failed
    /// on behind its siblings.
    pub spills: u64,
    /// Legs moved off a killed shard without consuming retry budget.
    pub failovers: u64,
    /// Shards killed via [`Router::kill_shard`].
    pub shard_kills: u64,
    /// AIMD depth increases applied across all shards.
    pub depth_increases: u64,
    /// AIMD depth decreases applied across all shards.
    pub depth_decreases: u64,
}

/// One dispatch of a request to a specific shard.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Leg {
    shard: usize,
    /// The shard's generation id — a leg whose uid mismatches found its
    /// shard killed (indices are reused, uids never).
    uid: u64,
    ticket: Ticket,
}

/// What polling a leg found.
enum LegPoll {
    Pending,
    Done(Box<Result<Response, ServeError>>),
    ShardDead,
}

/// Router-side state of one in-flight ticket.
struct InFlight {
    /// The router ticket id.
    id: u64,
    model: ModelId,
    input: Linearized,
    /// Absolute clock time after which the ticket must not execute.
    deadline: Option<Duration>,
    /// Dispatches made (retry budget consumed). Failovers are free.
    attempts: u32,
    /// Consecutive re-dispatch attempts that found every shard full.
    redispatch_stalls: u32,
    /// The next re-dispatch is a failover (shard died under the leg):
    /// it does not consume retry budget.
    free_redispatch: bool,
    /// The leg in flight, if any.
    leg: Option<Leg>,
    /// Absolute clock time the scheduled re-dispatch becomes due.
    retry_due: Option<Duration>,
    /// The most recent leg failure (reported by
    /// [`ServeError::RetriesExhausted`] on exhaustion).
    last_err: Option<ServeError>,
    /// Where the last failed leg ran — re-dispatch avoids it when any
    /// alternative exists.
    last_shard: Option<usize>,
}

struct Shard<'p> {
    /// Generation id, unique across the router's lifetime.
    uid: u64,
    /// `None` = killed. The slot stays so shard indices are stable.
    batcher: Option<Batcher<'p>>,
    /// Router-observed leg outcomes (faults only), for placement.
    window: RollingWindow,
    /// Live flush depth (mirrors the batcher's `max_batch`).
    depth: usize,
    /// AIMD snapshot: shard resolutions at the last window boundary.
    aimd_total: u64,
    /// AIMD snapshot: shard deadline misses at the last boundary.
    aimd_misses: u64,
}

struct ModelEntry<'p> {
    name: String,
    shard_opts: BatcherOptions,
    shards: Vec<Shard<'p>>,
}

/// A multi-model registry of [`Batcher`] shards with health-aware
/// dispatch, budgeted retries, failover and a graceful lifecycle. See
/// the [module docs](self) for the full semantics.
pub struct Router<'p> {
    opts: RouterOptions,
    clock: Rc<dyn Clock>,
    models: Vec<ModelEntry<'p>>,
    /// In ticket order (tickets are issued in increasing order and
    /// pushed), which is the order a pump steps them in.
    in_flight: Vec<InFlight>,
    /// Resolved-but-unclaimed outcomes ([`Router::poll`] removes).
    done: HashMap<u64, Result<Response, ServeError>>,
    next_ticket: u64,
    next_shard_uid: u64,
    stats: RouterStats,
    draining: bool,
    /// Placement scratch: the candidate shards of one dispatch, in the
    /// order they are tried.
    order: Vec<usize>,
    /// Bumped by every router-side change a pump makes; with the
    /// shards' [`Batcher`] versions it tells whether a pump did
    /// anything.
    version: u64,
    /// Set by a pump that changed nothing, to the instants from that
    /// pump's up to the earliest one at which a time-driven condition
    /// can fire. A [`Router::poll`] inside it skips its pump; every
    /// other mutation clears it. A poll outside it pumps, also one at
    /// an instant before the start (a [`TestClock`](crate::TestClock)
    /// set back).
    idle: Option<Range<Duration>>,
    /// Pumps [`Router::poll`] ran rather than skipped.
    #[cfg(test)]
    polled_pumps: u64,
}

/// Fault-shaped errors: the leg's *execution* failed in a way a
/// different shard might not reproduce — retry-eligible.
fn is_fault(e: &ServeError) -> bool {
    matches!(
        e,
        ServeError::EngineFault { .. } | ServeError::Poisoned { .. } | ServeError::ResultExpired
    )
}

/// The earlier of `acc` and `due`, counting `due` only when it is after
/// `now`: a condition due at or before `now` either fired in this pump
/// or cannot fire without a state change.
fn earliest_after(now: Duration, acc: Option<Duration>, due: Option<Duration>) -> Option<Duration> {
    acc.into_iter().chain(due.filter(|&d| d > now)).min()
}

impl<'p> Router<'p> {
    /// An empty router (no models yet) under `opts`, on the production
    /// clock.
    pub fn new(opts: RouterOptions) -> Self {
        Router {
            opts,
            clock: Rc::new(MonotonicClock::new()),
            models: Vec::new(),
            in_flight: Vec::new(),
            done: HashMap::new(),
            next_ticket: 0,
            next_shard_uid: 0,
            stats: RouterStats::default(),
            draining: false,
            order: Vec::new(),
            version: 0,
            idle: None,
            #[cfg(test)]
            polled_pumps: 0,
        }
    }

    /// Replaces the time source (builder-style) — every shard batcher
    /// added *afterwards* shares it. Call before [`Router::add_model`].
    pub fn with_clock(mut self, clock: Rc<dyn Clock>) -> Self {
        self.clock = clock;
        self.idle = None;
        self
    }

    /// Registers a model served by `shards` identical [`Batcher`]
    /// shards (one engine each), returning its handle. Every shard
    /// shares the caller's parameter storage: cloning [`Params`] copies
    /// no tensor. When adaptive depth is on, [`AimdDepth::start`]
    /// overrides `shard_opts.max_batch`.
    pub fn add_model(
        &mut self,
        name: &str,
        program: &'p IlirProgram,
        params: &Params,
        shards: usize,
        mut shard_opts: BatcherOptions,
    ) -> ModelId {
        assert!(shards >= 1, "a model needs at least one shard");
        self.idle = None;
        if let Some(aimd) = self.opts.adaptive_depth {
            shard_opts.max_batch = aimd.start.clamp(aimd.min.max(1), aimd.max.max(1));
        }
        let mut entry = ModelEntry {
            name: name.to_string(),
            shard_opts,
            shards: Vec::with_capacity(shards),
        };
        for _ in 0..shards {
            let uid = self.next_shard_uid;
            self.next_shard_uid += 1;
            let batcher =
                Batcher::new(program, params.clone(), shard_opts).with_clock(self.clock.clone());
            entry.shards.push(Shard {
                uid,
                batcher: Some(batcher),
                window: RollingWindow::new(self.opts.health.window),
                depth: shard_opts.max_batch,
                aimd_total: 0,
                aimd_misses: 0,
            });
        }
        self.models.push(entry);
        ModelId(self.models.len() - 1)
    }

    /// Looks a registered model up by name.
    pub fn model(&self, name: &str) -> Option<ModelId> {
        self.models.iter().position(|m| m.name == name).map(ModelId)
    }

    /// Submits a request for `model` under the model's default deadline
    /// policy ([`BatcherOptions::deadline`] of its shards).
    ///
    /// # Errors
    ///
    /// Admission refusals only — see [`Router::submit_with_deadline`].
    pub fn submit(
        &mut self,
        model: ModelId,
        input: Linearized,
    ) -> Result<RouterTicket, ServeError> {
        let default = self.models.get(model.0).and_then(|m| m.shard_opts.deadline);
        self.submit_with_deadline(model, input, default)
    }

    /// Submits a request with an explicit deadline budget (`None` = no
    /// deadline), placing it on a healthy shard and spilling on
    /// [`ServeError::QueueFull`].
    ///
    /// # Errors
    ///
    /// [`ServeError::Draining`] after [`Router::shutdown`],
    /// [`ServeError::DeadlineExceeded`] for a zero budget,
    /// [`ServeError::Unavailable`] when every shard of the model is
    /// dead, [`ServeError::QueueFull`] when every candidate shard is at
    /// cap, and the shard's own admission refusals
    /// ([`ServeError::InvalidInput`], [`ServeError::OverBudget`]). No
    /// ticket is issued on any of these. Execution failures resolve per
    /// ticket through [`Router::poll`] / [`Router::drain`].
    pub fn submit_with_deadline(
        &mut self,
        model: ModelId,
        input: Linearized,
        budget: Option<Duration>,
    ) -> Result<RouterTicket, ServeError> {
        assert!(model.0 < self.models.len(), "unknown model id");
        self.idle = None;
        if self.draining {
            self.stats.rejected += 1;
            return Err(ServeError::Draining);
        }
        if budget == Some(Duration::ZERO) {
            self.stats.rejected += 1;
            return Err(ServeError::DeadlineExceeded);
        }
        let now = self.clock.now();
        match self.dispatch(model.0, &input, budget, None) {
            Ok(leg) => {
                let rt = self.next_ticket;
                self.next_ticket += 1;
                self.stats.submitted += 1;
                self.in_flight.push(InFlight {
                    id: rt,
                    model,
                    input,
                    deadline: budget.map(|b| now + b),
                    attempts: 1,
                    redispatch_stalls: 0,
                    free_redispatch: false,
                    last_shard: Some(leg.shard),
                    leg: Some(leg),
                    retry_due: None,
                    last_err: None,
                });
                Ok(RouterTicket(rt))
            }
            Err(e) => {
                self.stats.rejected += 1;
                Err(e)
            }
        }
    }

    /// Retrieves a finished outcome, first pumping the topology one
    /// step — leg polls (which drive each shard's own flush/deadline
    /// policies), retries, failovers and the AIMD depth controller —
    /// unless that pump would do nothing.
    ///
    /// The pump is skipped when the last pump changed nothing, no other
    /// `&mut` method has run since, and the clock has not reached the
    /// earliest instant at which something can fall due: a shard's
    /// `max_delay` flush or queued deadline, or a ticket's retry or
    /// deadline while it has no leg out. Such a pump would re-evaluate
    /// every condition to the same value, so polling N outstanding
    /// tickets costs one or two pumps, not N.
    ///
    /// Returns `Ok(None)` while the ticket is in flight (and for
    /// unknown/already-claimed tickets).
    ///
    /// # Errors
    ///
    /// This ticket's own terminal error, exactly once.
    pub fn poll(&mut self, ticket: RouterTicket) -> Result<Option<Response>, ServeError> {
        let now = self.clock.now();
        if self.idle.as_ref().is_some_and(|idle| idle.contains(&now)) {
            #[cfg(debug_assertions)]
            self.audit_skipped_pump();
        } else {
            #[cfg(test)]
            {
                self.polled_pumps += 1;
            }
            self.pump(false);
        }
        match self.done.remove(&ticket.0) {
            Some(Ok(r)) => Ok(Some(r)),
            Some(Err(e)) => Err(e),
            None => Ok(None),
        }
    }

    /// Flushes every alive shard's queue and steps the topology — the
    /// bulk counterpart of [`Router::poll`].
    pub fn flush(&mut self) {
        self.flush_shards();
        self.pump(false);
    }

    /// Resolves **every** outstanding ticket — flushing shards,
    /// ignoring retry backoff (a drain does not wait), failing over off
    /// dead shards — and returns all unclaimed outcomes in ticket
    /// order. After `drain` no ticket is pending and none was lost.
    /// The router remains usable (draining is not shutdown).
    pub fn drain(&mut self) -> Vec<(RouterTicket, Result<Response, ServeError>)> {
        let mut rounds = 0u32;
        while !self.in_flight.is_empty() {
            rounds += 1;
            assert!(
                rounds <= 100_000,
                "router drain failed to converge ({} tickets stuck)",
                self.in_flight.len()
            );
            self.flush_shards();
            self.pump(true);
        }
        self.idle = None;
        self.take_done()
    }

    /// [`Router::drain`] under a wall budget: drives the topology until
    /// every ticket resolves or `budget` elapses on the router's clock,
    /// then sheds the remainder as [`ServeError::Shed`] — typed, never
    /// lost. Afterwards the router refuses new submissions with
    /// [`ServeError::Draining`]. Returns all unclaimed outcomes in
    /// ticket order.
    pub fn shutdown(
        &mut self,
        budget: Duration,
    ) -> Vec<(RouterTicket, Result<Response, ServeError>)> {
        self.draining = true;
        let deadline = self.clock.now() + budget;
        let mut rounds = 0u32;
        while !self.in_flight.is_empty() && self.clock.now() < deadline && rounds <= 100_000 {
            rounds += 1;
            self.flush_shards();
            self.pump(true);
        }
        for f in std::mem::take(&mut self.in_flight) {
            self.finish(&f, Err(ServeError::Shed));
        }
        // The shed tickets' legs may still be queued: drop what they
        // resolve to.
        self.batchers().for_each(|b| drop(b.drain()));
        self.idle = None;
        self.take_done()
    }

    /// Kills a shard: its engine and queued work drop on the spot
    /// (modeling a crashed process), and the next pump fails its
    /// outstanding legs over to live siblings without consuming retry
    /// budget. Returns `false` if the shard was already dead (or out of
    /// range). Requests find the model [`ServeError::Unavailable`] only
    /// when *every* shard is dead.
    pub fn kill_shard(&mut self, model: ModelId, shard: usize) -> bool {
        let Some(entry) = self.models.get_mut(model.0) else {
            return false;
        };
        let Some(s) = entry.shards.get_mut(shard) else {
            return false;
        };
        if s.batcher.is_none() {
            return false;
        }
        s.batcher = None;
        self.stats.shard_kills += 1;
        // Failover now: every leg on the dead shard re-dispatches (for
        // free) before the caller observes anything.
        self.pump(false);
        true
    }

    /// Installs (or removes) a fault-injection hook on one shard's
    /// engine (see [`crate::faults`]). Returns `false` for a dead or
    /// unknown shard.
    pub fn set_shard_fault_hook(
        &mut self,
        model: ModelId,
        shard: usize,
        hook: Option<FaultHook>,
    ) -> bool {
        self.idle = None;
        match self
            .models
            .get_mut(model.0)
            .and_then(|m| m.shards.get_mut(shard))
            .and_then(|s| s.batcher.as_mut())
        {
            Some(b) => {
                b.set_fault_hook(hook);
                true
            }
            None => false,
        }
    }

    /// Per-shard health snapshots for `model` — liveness, breaker
    /// state, windowed error rate, queue depth, live flush depth, and
    /// the shard batcher's own [`ServeStats`].
    pub fn health(&self, model: ModelId) -> Vec<HealthSnapshot> {
        let entry = &self.models[model.0];
        entry
            .shards
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let (alive, breaker, queued, max_batch, stats) = match &s.batcher {
                    Some(b) => (
                        true,
                        b.breaker_state(),
                        b.pending(),
                        b.max_batch(),
                        b.serve_stats(),
                    ),
                    None => (
                        false,
                        BreakerState::Closed,
                        0,
                        s.depth,
                        ServeStats::default(),
                    ),
                };
                HealthSnapshot {
                    shard: i,
                    alive,
                    healthy: alive
                        && breaker != BreakerState::Open
                        && self.opts.health.window_healthy(&s.window),
                    breaker,
                    error_rate: s.window.error_rate(),
                    samples: s.window.samples(),
                    queued,
                    max_batch,
                    stats,
                }
            })
            .collect()
    }

    /// Topology-level counters.
    pub fn stats(&self) -> RouterStats {
        self.stats
    }

    /// Tickets submitted but not yet resolved (their outcome is still
    /// being produced; resolved-but-unclaimed outcomes don't count).
    pub fn pending(&self) -> usize {
        self.in_flight.len()
    }

    /// Resolved outcomes nobody has claimed via [`Router::poll`] yet.
    pub fn unclaimed(&self) -> usize {
        self.done.len()
    }

    /// Whether no alive shard of `model` tracks a ticket
    /// ([`Batcher::is_empty`]), as after [`Router::drain`].
    pub fn shards_empty(&self, model: ModelId) -> bool {
        let shards = &self.models[model.0].shards;
        (shards.iter()).all(|s| s.batcher.as_ref().is_none_or(Batcher::is_empty))
    }

    /// How many shards of `model` are still alive.
    pub fn alive_shards(&self, model: ModelId) -> usize {
        self.models[model.0]
            .shards
            .iter()
            .filter(|s| s.batcher.is_some())
            .count()
    }

    // -- internals ----------------------------------------------------

    /// One step of the whole topology: every in-flight ticket (in
    /// ticket order, for determinism), then the AIMD controller.
    /// `ignore_backoff` makes due-dated retries fire immediately
    /// (drain/shutdown don't wait out backoff windows).
    ///
    /// A pump that changed nothing leaves `idle` set until the earliest
    /// instant after `now` at which one of its time-driven conditions
    /// (all of the form `now >= due`) can turn true.
    fn pump(&mut self, ignore_backoff: bool) {
        let now = self.clock.now();
        let before = self.versions();
        let mut next_due = None;
        let mut in_flight = std::mem::take(&mut self.in_flight);
        in_flight.retain_mut(|f| match self.step_ticket(f, now, ignore_backoff) {
            Some(outcome) => {
                self.finish(f, outcome);
                false
            }
            None => {
                next_due = earliest_after(now, next_due, Self::ticket_due(f));
                true
            }
        });
        self.in_flight = in_flight;
        self.adjust_depths();
        self.idle = (self.versions() == before).then(|| {
            let shard_dues = self.models.iter().flat_map(|m| &m.shards);
            let until = shard_dues
                .filter_map(|s| s.batcher.as_ref()?.next_due())
                .fold(next_due, |acc, due| earliest_after(now, acc, Some(due)));
            now..until.unwrap_or(Duration::MAX)
        });
    }

    /// The router's version plus every alive shard's: it moves whenever
    /// a pump changes anything.
    fn versions(&self) -> u64 {
        self.models
            .iter()
            .flat_map(|m| &m.shards)
            .filter_map(|s| s.batcher.as_ref())
            .fold(self.version, |acc, b| acc.wrapping_add(b.version()))
    }

    /// When `f`'s next pump acts on it without a leg resolving: its
    /// retry or deadline while it has no leg out.
    fn ticket_due(f: &InFlight) -> Option<Duration> {
        match f.leg {
            None => f.retry_due.into_iter().chain(f.deadline).min(),
            Some(_) => None,
        }
    }

    /// Debug builds run the pump a poll skips and assert it changed
    /// nothing observable, so a missed version bump fails here instead
    /// of stranding a ticket in release builds.
    #[cfg(debug_assertions)]
    fn audit_skipped_pump(&mut self) {
        let until = self.idle.as_ref().expect("only an idle router skips").end;
        let before = self.observed();
        self.pump(false);
        // A clock that moved past `until` during the pump may rightly
        // have fired something.
        if self.clock.now() < until {
            assert_eq!(
                before,
                self.observed(),
                "a pump the router skipped would have changed its state"
            );
        }
    }

    /// Everything a pump can change, read without the version counters:
    /// router counters; per shard its liveness, counters, queue, ready
    /// and failed sizes, breaker, depth and health window; per ticket
    /// its leg and retry state; the done set.
    #[cfg(debug_assertions)]
    fn observed(&self) -> impl PartialEq + std::fmt::Debug {
        let shards: Vec<_> = self
            .models
            .iter()
            .flat_map(|m| &m.shards)
            .map(|s| {
                let batcher = s.batcher.as_ref().map(|b| {
                    let sizes = [b.pending(), b.ready(), b.failed(), b.max_batch()];
                    (b.serve_stats(), sizes, b.breaker_state())
                });
                let aimd = (s.aimd_total, s.aimd_misses);
                (s.uid, batcher, s.depth, s.window.clone(), aimd)
            })
            .collect();
        let tickets: Vec<_> = self
            .in_flight
            .iter()
            .map(|f| {
                let retry = (f.retry_due, f.attempts, f.redispatch_stalls);
                let flags = (f.free_redispatch, f.last_err.clone());
                (f.id, f.leg, f.last_shard, retry, flags)
            })
            .collect();
        let mut done: Vec<u64> = self.done.keys().copied().collect();
        done.sort_unstable();
        (self.stats, shards, tickets, done)
    }

    /// Advances one ticket; `Some` is its terminal outcome.
    fn step_ticket(
        &mut self,
        f: &mut InFlight,
        now: Duration,
        ignore_backoff: bool,
    ) -> Option<Result<Response, ServeError>> {
        if let Some(leg) = f.leg {
            match self.poll_leg(f.model.0, leg) {
                LegPoll::Pending => return None,
                LegPoll::Done(res) => {
                    f.leg = None;
                    match *res {
                        Ok(r) => return Some(Ok(r)),
                        Err(e) => f.last_err = Some(e),
                    }
                }
                LegPoll::ShardDead => {
                    f.leg = None;
                    f.free_redispatch = true;
                }
            }
        }

        // No leg in flight: classify the failure once…
        if f.retry_due.is_none() {
            self.version += 1;
            if f.free_redispatch {
                f.retry_due = Some(now);
            } else {
                match f.last_err.clone() {
                    Some(e) if is_fault(&e) && self.opts.retry.allows(f.attempts) => {
                        f.retry_due = Some(now + self.opts.retry.backoff_for(f.attempts));
                    }
                    Some(e) if is_fault(&e) => {
                        return Some(Err(ServeError::RetriesExhausted {
                            attempts: f.attempts,
                            last: Box::new(e),
                        }));
                    }
                    Some(e) => return Some(Err(e)),
                    // A leg vanished without an error (defensive):
                    // failover rather than lose the ticket.
                    None => {
                        f.free_redispatch = true;
                        f.retry_due = Some(now);
                    }
                }
            }
        }
        // …expire a ticket that outwaited its deadline…
        if f.deadline.is_some_and(|d| now >= d) {
            return Some(Err(ServeError::DeadlineExceeded));
        }
        // …and re-dispatch when the backoff is due.
        if let Some(due) = f.retry_due {
            if ignore_backoff || now >= due {
                f.retry_due = None;
                let budget = f.deadline.map(|d| d.saturating_sub(now));
                let free = f.free_redispatch;
                match self.dispatch(f.model.0, &f.input, budget, f.last_shard) {
                    Ok(leg) => {
                        f.free_redispatch = false;
                        f.redispatch_stalls = 0;
                        if free {
                            self.stats.failovers += 1;
                        } else {
                            f.attempts += 1;
                            self.stats.retries += 1;
                        }
                        f.last_shard = Some(leg.shard);
                        f.leg = Some(leg);
                    }
                    Err(ServeError::QueueFull) => {
                        // Every candidate at cap: wait out one more
                        // backoff (bounded — a stalled topology must
                        // not spin a ticket forever).
                        f.redispatch_stalls += 1;
                        if f.redispatch_stalls > 3 * self.opts.retry.max_attempts.max(1) {
                            return Some(Err(ServeError::RetriesExhausted {
                                attempts: f.attempts,
                                last: Box::new(ServeError::QueueFull),
                            }));
                        }
                        f.retry_due = Some(now + self.opts.retry.backoff_for(f.attempts.max(1)));
                    }
                    Err(e) => return Some(Err(e)),
                }
            }
        }
        None
    }

    /// Polls one leg on its shard, recording fault-shaped outcomes in
    /// the shard's health window.
    fn poll_leg(&mut self, model: usize, leg: Leg) -> LegPoll {
        let entry = &mut self.models[model];
        let Some(b) = entry
            .shards
            .get_mut(leg.shard)
            .filter(|s| s.uid == leg.uid)
            .and_then(|s| s.batcher.as_mut())
        else {
            self.version += 1;
            return LegPoll::ShardDead;
        };
        let polled = b.poll(leg.ticket);
        let shard = &mut entry.shards[leg.shard];
        match polled {
            Ok(None) => LegPoll::Pending,
            Ok(Some(r)) => {
                shard.window.record(true);
                LegPoll::Done(Box::new(Ok(r)))
            }
            Err(e) => {
                if is_fault(&e) {
                    shard.window.record(false);
                }
                LegPoll::Done(Box::new(Err(e)))
            }
        }
    }

    /// Places one request on a shard of `model`.
    ///
    /// Candidates are the healthy shards (alive, breaker not open,
    /// window within policy) — or every alive shard when none is
    /// healthy (serving sick beats not serving) — ordered by queued
    /// requests, ties to the lowest index. `avoid` (the last failed
    /// shard) moves to the back. [`ServeError::QueueFull`] walks to the
    /// next candidate, counted in [`RouterStats::spills`].
    fn dispatch(
        &mut self,
        model: usize,
        input: &Linearized,
        budget: Option<Duration>,
        avoid: Option<usize>,
    ) -> Result<Leg, ServeError> {
        self.version += 1;
        let health = self.opts.health;
        let entry = &mut self.models[model];
        // Candidates in shard-index order: the healthy shards, or every
        // alive one when none is healthy.
        let ordered = &mut self.order;
        ordered.clear();
        ordered.extend(entry.shards.iter().enumerate().filter_map(|(i, s)| {
            let b = s.batcher.as_ref()?;
            let healthy =
                b.breaker_state() != BreakerState::Open && health.window_healthy(&s.window);
            healthy.then_some(i)
        }));
        if ordered.is_empty() {
            let shards = entry.shards.iter().enumerate();
            ordered.extend(shards.filter(|(_, s)| s.batcher.is_some()).map(|(i, _)| i));
            if ordered.is_empty() {
                return Err(ServeError::Unavailable);
            }
        }
        // Every candidate is alive. The (load, index) keys are
        // distinct, so an unstable sort orders exactly as a stable one
        // would.
        ordered.sort_unstable_by_key(|&i| {
            let b = entry.shards[i].batcher.as_ref();
            (b.expect("candidate shard is alive").pending(), i)
        });
        if ordered.len() > 1 {
            if let Some(pos) = avoid.and_then(|a| ordered.iter().position(|&i| i == a)) {
                ordered[pos..].rotate_left(1);
            }
        }
        for (rank, &i) in ordered.iter().enumerate() {
            let shard = &mut entry.shards[i];
            let uid = shard.uid;
            let b = shard.batcher.as_mut().expect("candidate shard is alive");
            match b.submit_with_deadline(input.clone(), budget) {
                Ok(ticket) => {
                    if rank > 0 {
                        self.stats.spills += 1;
                    }
                    return Ok(Leg {
                        shard: i,
                        uid,
                        ticket,
                    });
                }
                Err(ServeError::QueueFull) => continue,
                // Input-shaped refusals are identical on every shard:
                // surface immediately.
                Err(e) => return Err(e),
            }
        }
        Err(ServeError::QueueFull)
    }

    /// Records a ticket's terminal outcome: counters and the
    /// unclaimed-outcome slot.
    fn finish(&mut self, f: &InFlight, outcome: Result<Response, ServeError>) {
        self.version += 1;
        match &outcome {
            Ok(_) => self.stats.resolved_ok += 1,
            Err(e) => {
                self.stats.resolved_err += 1;
                match e {
                    ServeError::DeadlineExceeded => self.stats.deadline_misses += 1,
                    ServeError::RetriesExhausted { .. } => self.stats.retries_exhausted += 1,
                    ServeError::Shed => self.stats.shed += 1,
                    _ => {}
                }
            }
        }
        let prev = self.done.insert(f.id, outcome);
        debug_assert!(prev.is_none(), "router ticket {} resolved twice", f.id);
    }

    /// The AIMD depth controller: per shard, every
    /// [`AimdDepth::window`] resolutions, halve the flush depth if the
    /// window saw a deadline miss, else grow it by one.
    fn adjust_depths(&mut self) {
        let Some(aimd) = self.opts.adaptive_depth else {
            return;
        };
        for entry in &mut self.models {
            for shard in &mut entry.shards {
                let Some(b) = shard.batcher.as_mut() else {
                    continue;
                };
                let st = b.serve_stats();
                let total = st.resolved_ok + st.resolved_err;
                if total.saturating_sub(shard.aimd_total) < u64::from(aimd.window.max(1)) {
                    continue;
                }
                self.version += 1;
                let missed = st.deadline_misses > shard.aimd_misses;
                let depth = if missed {
                    (shard.depth / 2).max(aimd.min.max(1))
                } else {
                    (shard.depth + 1).min(aimd.max.max(1))
                };
                if depth < shard.depth {
                    self.stats.depth_decreases += 1;
                } else if depth > shard.depth {
                    self.stats.depth_increases += 1;
                }
                if depth != shard.depth {
                    shard.depth = depth;
                    b.set_max_batch(depth);
                }
                shard.aimd_total = total;
                shard.aimd_misses = st.deadline_misses;
            }
        }
    }

    /// Every alive shard batcher, model by model.
    fn batchers(&mut self) -> impl Iterator<Item = &mut Batcher<'p>> {
        let shards = self.models.iter_mut().flat_map(|e| &mut e.shards);
        shards.filter_map(|s| s.batcher.as_mut())
    }

    fn flush_shards(&mut self) {
        for b in self.batchers() {
            b.flush();
        }
    }

    fn take_done(&mut self) -> Vec<(RouterTicket, Result<Response, ServeError>)> {
        let mut out: Vec<(RouterTicket, Result<Response, ServeError>)> = self
            .done
            .drain()
            .map(|(t, r)| (RouterTicket(t), r))
            .collect();
        out.sort_by_key(|&(t, _)| t);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TestClock;
    use cortex_core::ra::RaSchedule;
    use cortex_ds::datasets;
    use cortex_ds::linearizer::Linearizer;
    use cortex_models::{treelstm, LeafInit};

    fn tree(seed: u64) -> Linearized {
        Linearizer::new()
            .linearize(&datasets::random_binary_tree(5, seed))
            .unwrap()
    }

    /// 32 tickets on 3 shards under a virtual clock: polling all of them
    /// at one instant runs at most two pumps, an advancing clock that
    /// stays before the earliest `max_delay` flush still skips, and the
    /// flush instant resolves everything.
    #[test]
    fn polls_skip_pumps_until_a_flush_falls_due() {
        let model = treelstm::tree_lstm(8, LeafInit::Embedding);
        let program = model.lower(&RaSchedule::default()).unwrap();
        let clock = TestClock::new();
        let mut router = Router::new(RouterOptions {
            adaptive_depth: None,
            ..RouterOptions::default()
        })
        .with_clock(Rc::new(clock.clone()));
        let max_delay = Duration::from_millis(2);
        let opts = BatcherOptions {
            max_batch: 64,
            max_delay,
            ..BatcherOptions::default()
        };
        let id = router.add_model("lstm", &program, &model.params, 3, opts);
        let tickets: Vec<RouterTicket> = (0..32)
            .map(|s| router.submit(id, tree(s)).unwrap())
            .collect();

        for &t in &tickets {
            assert_eq!(router.poll(t), Ok(None));
        }
        assert!(router.polled_pumps <= 2, "{} pumps", router.polled_pumps);

        clock.advance(Duration::from_nanos(1));
        let pumps = router.polled_pumps;
        for &t in &tickets {
            assert_eq!(router.poll(t), Ok(None));
        }
        assert_eq!(router.polled_pumps, pumps, "nothing fell due");

        clock.set(max_delay);
        for &t in &tickets {
            assert!(router.poll(t).unwrap().is_some(), "flushed and resolved");
        }
        assert_eq!(router.pending(), 0);
        assert_eq!(router.stats().resolved_ok, 32);
    }

    /// Shards share the caller's parameter storage: a model added with
    /// three shards keeps one copy of its parameters, not four.
    #[test]
    fn every_shard_reads_the_callers_parameter_allocation() {
        let model = treelstm::tree_lstm(8, LeafInit::Embedding);
        let program = model.lower(&RaSchedule::default()).unwrap();
        let mut router = Router::new(RouterOptions::default());
        let id = router.add_model(
            "lstm",
            &program,
            &model.params,
            3,
            BatcherOptions::default(),
        );
        let shards = &router.models[id.0].shards;
        assert_eq!(shards.len(), 3);
        for (s, shard) in shards.iter().enumerate() {
            let held = &shard.batcher.as_ref().unwrap().params;
            assert_eq!(held.len(), model.params.len());
            for (name, t) in model.params.iter() {
                assert_eq!(
                    held.get(name).unwrap().as_slice().as_ptr(),
                    t.as_slice().as_ptr(),
                    "shard {s} copied {name}"
                );
            }
        }
    }
}
