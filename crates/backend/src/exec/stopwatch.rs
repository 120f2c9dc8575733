//! The executor's one clock: every phase timer of [`super::ExecStats`]
//! (and the lowering time of [`super::PlanStats`]) reads the wall clock
//! through [`Stopwatch`], and only here. The readings are measurement,
//! never control flow: no result or counter depends on them.

use std::time::Instant;

/// A chained phase timer: each [`Stopwatch::lap`] reads the clock once
/// and returns the nanoseconds since the previous read, so `n`
/// back-to-back phases cost `n + 1` clock reads instead of `2n`.
#[derive(Clone, Copy)]
pub(crate) struct Stopwatch(Instant);

impl Stopwatch {
    /// Reads the clock: the start of the first phase.
    pub(crate) fn start() -> Self {
        Stopwatch(Instant::now())
    }

    /// Reads the clock: ends the running phase (returning its length in
    /// nanoseconds) and starts the next one.
    pub(crate) fn lap(&mut self) -> u64 {
        let now = Instant::now();
        let ns = now.duration_since(self.0).as_nanos() as u64;
        self.0 = now;
        ns
    }
}
