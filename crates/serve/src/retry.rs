//! Budgeted, deterministic retry for faulted requests.
//!
//! The [`Router`](crate::Router) re-dispatches a request whose leg
//! failed with a *fault-shaped* error ([`ServeError::EngineFault`],
//! [`ServeError::Poisoned`], [`ServeError::ResultExpired`]) to a
//! healthy sibling shard, after a deterministic exponential backoff
//! read off the injected [`Clock`](crate::Clock) — no wall-clock
//! sleeps, no jitter, so every retry schedule is reproducible under a
//! [`TestClock`](crate::TestClock). When the budget runs out the ticket
//! resolves [`ServeError::RetriesExhausted`] carrying the final
//! attempt's error.
//!
//! [`ServeError::EngineFault`]: crate::ServeError::EngineFault
//! [`ServeError::Poisoned`]: crate::ServeError::Poisoned
//! [`ServeError::ResultExpired`]: crate::ServeError::ResultExpired
//! [`ServeError::RetriesExhausted`]: crate::ServeError::RetriesExhausted

use std::time::Duration;

/// How many dispatches a request gets and how long to wait between
/// them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total dispatch budget, the initial dispatch included: 1 means
    /// never retry; 3 means up to two re-dispatches after faults.
    /// (Failovers off a killed shard don't count.)
    pub max_attempts: u32,
    /// Backoff before the first re-dispatch; doubles per subsequent
    /// attempt. `Duration::ZERO` retries immediately at the next pump.
    pub backoff: Duration,
    /// Ceiling on the doubled backoff.
    pub max_backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(500),
        }
    }
}

impl RetryPolicy {
    /// Whether a request that has already been dispatched `attempts`
    /// times may be dispatched again.
    pub fn allows(&self, attempts: u32) -> bool {
        attempts < self.max_attempts
    }

    /// Deterministic exponential backoff before re-dispatching a
    /// request whose `attempts`-th dispatch just failed (1-based):
    /// `backoff × 2^(attempts−1)`, saturating, capped at
    /// [`RetryPolicy::max_backoff`].
    pub fn backoff_for(&self, attempts: u32) -> Duration {
        let doublings = attempts.saturating_sub(1).min(32);
        let backed = self
            .backoff
            .saturating_mul(1u32.checked_shl(doublings).unwrap_or(u32::MAX));
        backed.min(self.max_backoff)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_and_caps() {
        let p = RetryPolicy {
            max_attempts: 5,
            backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(35),
        };
        assert_eq!(p.backoff_for(1), Duration::from_millis(10));
        assert_eq!(p.backoff_for(2), Duration::from_millis(20));
        assert_eq!(p.backoff_for(3), Duration::from_millis(35), "capped");
        assert_eq!(p.backoff_for(60), Duration::from_millis(35), "no overflow");
    }

    #[test]
    fn budget_counts_the_initial_dispatch() {
        let p = RetryPolicy {
            max_attempts: 3,
            ..RetryPolicy::default()
        };
        assert!(p.allows(1), "one dispatch made: two left");
        assert!(p.allows(2));
        assert!(!p.allows(3), "budget spent");
        let never = RetryPolicy {
            max_attempts: 1,
            ..RetryPolicy::default()
        };
        assert!(!never.allows(1), "max_attempts 1 never retries");
    }

    #[test]
    fn zero_backoff_is_immediate() {
        let p = RetryPolicy {
            backoff: Duration::ZERO,
            ..RetryPolicy::default()
        };
        assert_eq!(p.backoff_for(1), Duration::ZERO);
        assert_eq!(p.backoff_for(7), Duration::ZERO);
    }
}
