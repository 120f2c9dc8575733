//! The stopwatch of `bench_pipeline`'s machine ceilings: plain
//! `std::time`, no bench framework. Latency and throughput of the
//! engine itself are measured in `benchmarks/`, not here.

use std::time::{Duration, Instant};

/// Times a single closure once, returning its result and the elapsed time.
pub fn time_once<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed())
}

/// One warm-up run, then the median wall-clock of `samples` single
/// executions of `f`.
pub fn median_run(samples: u32, mut f: impl FnMut()) -> Duration {
    f();
    let mut times: Vec<Duration> = (0..samples.max(1))
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed()
        })
        .collect();
    times.sort_unstable();
    times[times.len() / 2]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measures_something_positive() {
        let d = median_run(3, || {
            let mut acc = 0u64;
            for i in 0..std::hint::black_box(10_000u64) {
                acc = acc.wrapping_add(i * i);
            }
            std::hint::black_box(acc);
        });
        assert!(d > Duration::ZERO);
    }

    #[test]
    fn time_once_returns_value() {
        let (v, d) = time_once(|| 41 + 1);
        assert_eq!(v, 42);
        assert!(d < Duration::from_secs(5));
    }
}
