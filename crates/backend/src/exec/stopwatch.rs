//! The executor's one clock: every phase timer of [`super::ExecStats`]
//! (and the lowering time of [`super::PlanStats`]) reads the wall clock
//! through [`Stopwatch`], and only here. The readings are measurement,
//! never control flow: no result or counter depends on them.
//!
//! The phase timers run only on an *observed* engine — one whose
//! [`super::Engine::stats`] was read before the run. An unobserved
//! engine starts every timer unarmed: it reads no clock, and its
//! `*_ns` fields stay 0.

use std::time::Instant;

/// A chained phase timer: each [`Stopwatch::lap`] reads the clock once
/// and returns the nanoseconds since the previous read, so `n`
/// back-to-back phases cost `n + 1` clock reads instead of `2n`. An
/// unarmed one holds no reading and never reads the clock.
#[derive(Clone, Copy)]
pub(crate) struct Stopwatch(Option<Instant>);

impl Stopwatch {
    /// With `armed`, reads the clock: the start of the first phase.
    /// Without, reads nothing.
    pub(crate) fn start(armed: bool) -> Self {
        Stopwatch(armed.then(now))
    }

    /// Armed, reads the clock: ends the running phase (returning its
    /// length in nanoseconds) and starts the next one. Unarmed, returns
    /// 0 without reading it.
    pub(crate) fn lap(&mut self) -> u64 {
        let Some(last) = &mut self.0 else { return 0 };
        let now = now();
        let ns = now.duration_since(*last).as_nanos() as u64;
        *last = now;
        ns
    }
}

/// The one clock read, counted per thread in test builds.
fn now() -> Instant {
    #[cfg(test)]
    READS.with(|n| n.set(n.get() + 1));
    Instant::now()
}

#[cfg(test)]
thread_local! {
    static READS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Clock reads [`Stopwatch`] made on this thread so far (test builds),
/// so a test can pin which runs read none.
#[cfg(test)]
pub(crate) fn reads() -> u64 {
    READS.with(std::cell::Cell::get)
}
