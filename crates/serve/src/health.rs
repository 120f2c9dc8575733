//! Shard health: breaker state, rolling error-rate windows, snapshots.
//!
//! The [`Router`](crate::Router)'s placement decisions need a cheap,
//! deterministic answer to "is this shard healthy right now?". Two
//! signals feed it:
//!
//! * the shard batcher's **circuit breaker** ([`BreakerState`], exposed
//!   by [`Batcher::breaker_state`](crate::Batcher::breaker_state)) —
//!   `Open` means the ExecPlan path is demoted and the shard is slow;
//! * a **rolling error-rate window** ([`RollingWindow`]) over the last
//!   N leg outcomes the router observed on the shard — fault-shaped
//!   errors only (engine faults, contained panics, expired results),
//!   so an overloaded-but-correct shard is not marked sick for missing
//!   deadlines (that signal drives the adaptive flush depth instead).
//!
//! [`HealthPolicy`] turns the signals into a verdict; a
//! [`HealthSnapshot`] packages everything for operators.

use crate::ServeStats;

/// The externally observable state of a shard batcher's circuit
/// breaker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Normal operation on the ExecPlan path.
    Closed,
    /// One more consecutive plan-path fault trips the breaker — either
    /// the threshold is almost reached, or the reset window just
    /// elapsed and the next chunk is the half-open probe.
    HalfOpen,
    /// Tripped: the engine is demoted to the `interp` oracle path until
    /// the reset window elapses.
    Open,
}

/// When the router considers a shard healthy enough for placement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HealthPolicy {
    /// How many recent leg outcomes the rolling window holds.
    pub window: usize,
    /// A shard whose windowed error rate exceeds this is unhealthy.
    pub max_error_rate: f64,
    /// Below this many samples the window abstains (the shard counts
    /// healthy): a single early fault must not blacklist a cold shard.
    pub min_samples: usize,
}

impl Default for HealthPolicy {
    fn default() -> Self {
        HealthPolicy {
            window: 16,
            max_error_rate: 0.5,
            min_samples: 4,
        }
    }
}

impl HealthPolicy {
    /// The windowed verdict: healthy unless the window has enough
    /// samples *and* its error rate is over the line. (Breaker and
    /// liveness are judged separately by the router.)
    pub fn window_healthy(&self, window: &RollingWindow) -> bool {
        window.samples() < self.min_samples.max(1) || window.error_rate() <= self.max_error_rate
    }
}

/// A fixed-size ring of recent outcomes (`true` = ok) with an O(1)
/// error-rate read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RollingWindow {
    outcomes: std::collections::VecDeque<bool>,
    cap: usize,
    errors: usize,
}

impl RollingWindow {
    /// An empty window holding at most `cap` outcomes (clamped ≥ 1).
    pub fn new(cap: usize) -> Self {
        let cap = cap.max(1);
        RollingWindow {
            outcomes: std::collections::VecDeque::with_capacity(cap),
            cap,
            errors: 0,
        }
    }

    /// Records one outcome, evicting the oldest beyond the cap.
    pub fn record(&mut self, ok: bool) {
        if self.outcomes.len() == self.cap {
            if let Some(evicted) = self.outcomes.pop_front() {
                if !evicted {
                    self.errors -= 1;
                }
            }
        }
        self.outcomes.push_back(ok);
        if !ok {
            self.errors += 1;
        }
    }

    /// Outcomes currently in the window.
    pub fn samples(&self) -> usize {
        self.outcomes.len()
    }

    /// Fraction of windowed outcomes that were errors (0.0 when empty).
    pub fn error_rate(&self) -> f64 {
        if self.outcomes.is_empty() {
            0.0
        } else {
            self.errors as f64 / self.outcomes.len() as f64
        }
    }
}

/// One shard's health, as the router sees it — the operator-facing
/// probe behind [`Router::health`](crate::Router::health).
#[derive(Debug, Clone)]
pub struct HealthSnapshot {
    /// Index of the shard within its model's shard vector.
    pub shard: usize,
    /// Whether the shard's batcher (and engine) still exists. A killed
    /// shard stays in the vector, dead, so indices are stable.
    pub alive: bool,
    /// Whether placement currently considers the shard eligible
    /// (alive, breaker not `Open`, windowed error rate in bounds).
    pub healthy: bool,
    /// The shard batcher's circuit-breaker state (`Closed` if dead).
    pub breaker: BreakerState,
    /// Windowed error rate of router-observed leg outcomes.
    pub error_rate: f64,
    /// Samples currently in the rolling window.
    pub samples: usize,
    /// Requests queued on the shard right now.
    pub queued: usize,
    /// The shard's live flush depth (AIMD retunes this).
    pub max_batch: usize,
    /// The shard batcher's cumulative robustness counters.
    pub stats: ServeStats,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rolling_window_evicts_oldest_and_tracks_rate() {
        let mut w = RollingWindow::new(4);
        assert_eq!(w.error_rate(), 0.0, "empty window abstains at 0");
        for ok in [false, false, true, true] {
            w.record(ok);
        }
        assert_eq!(w.samples(), 4);
        assert_eq!(w.error_rate(), 0.5);
        // Two more oks evict the two initial errors.
        w.record(true);
        w.record(true);
        assert_eq!(w.samples(), 4);
        assert_eq!(w.error_rate(), 0.0);
        w.record(false);
        assert_eq!(w.error_rate(), 0.25);
    }

    #[test]
    fn policy_abstains_below_min_samples() {
        let policy = HealthPolicy {
            window: 8,
            max_error_rate: 0.3,
            min_samples: 4,
        };
        let mut w = RollingWindow::new(policy.window);
        w.record(false);
        w.record(false);
        assert!(
            policy.window_healthy(&w),
            "2 samples < min_samples: abstain healthy"
        );
        w.record(false);
        w.record(false);
        assert!(!policy.window_healthy(&w), "4/4 errors over the line");
        for _ in 0..8 {
            w.record(true);
        }
        assert!(policy.window_healthy(&w), "window slid clean again");
    }
}
