//! A tiny self-contained timing harness (no external bench framework).
//!
//! `cargo bench` binaries in this workspace use [`Bench`] to sample
//! wall-clock timings: a short calibration pass picks an iteration count
//! per sample, then the median over a fixed number of samples is
//! reported. Medians are robust against scheduler noise, and everything
//! is plain `std::time`, so the harness works offline and in CI.

use std::time::{Duration, Instant};

/// One measured result.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Benchmark name.
    pub name: String,
    /// Median wall-clock time per iteration.
    pub median: Duration,
    /// Minimum observed time per iteration.
    pub min: Duration,
    /// Maximum observed time per iteration.
    pub max: Duration,
    /// Iterations per sample used.
    pub iters_per_sample: u32,
}

impl Measurement {
    /// Median seconds per iteration.
    pub fn median_s(&self) -> f64 {
        self.median.as_secs_f64()
    }
}

/// A benchmark runner with a fixed sample budget.
#[derive(Debug, Clone)]
pub struct Bench {
    samples: u32,
    target_sample_time: Duration,
    results: Vec<Measurement>,
}

impl Default for Bench {
    fn default() -> Self {
        Bench::new(12, Duration::from_millis(60))
    }
}

impl Bench {
    /// Creates a runner taking `samples` samples of roughly
    /// `target_sample_time` each.
    pub fn new(samples: u32, target_sample_time: Duration) -> Self {
        Bench {
            samples: samples.max(3),
            target_sample_time,
            results: Vec::new(),
        }
    }

    /// Times `f`, printing and recording the result.
    pub fn run<R>(&mut self, name: &str, mut f: impl FnMut() -> R) -> &Measurement {
        // Calibrate: how many iterations fit in the target sample time?
        let mut iters: u32 = 1;
        loop {
            let t = Instant::now();
            for _ in 0..iters {
                std::hint::black_box(f());
            }
            let elapsed = t.elapsed();
            if elapsed >= self.target_sample_time / 2 || iters >= 1 << 20 {
                break;
            }
            // Aim past the target; the loop re-checks.
            iters = iters.saturating_mul(2);
        }
        let mut per_iter: Vec<Duration> = (0..self.samples)
            .map(|_| {
                let t = Instant::now();
                for _ in 0..iters {
                    std::hint::black_box(f());
                }
                // Sub-nanosecond bodies (tiny closures at the 2^20-iter
                // calibration cap in release builds) truncate to 0 under
                // integer division; floor at the 1 ns resolution of
                // `Duration` so timings stay non-zero.
                (t.elapsed() / iters).max(Duration::from_nanos(1))
            })
            .collect();
        per_iter.sort_unstable();
        let m = Measurement {
            name: name.to_string(),
            median: per_iter[per_iter.len() / 2],
            min: per_iter[0],
            max: per_iter[per_iter.len() - 1],
            iters_per_sample: iters,
        };
        println!(
            "{:<44} {:>12} /iter  (min {:?}, max {:?}, {} iters/sample)",
            m.name,
            format!("{:?}", m.median),
            m.min,
            m.max,
            m.iters_per_sample
        );
        self.results.push(m);
        self.results.last().expect("just pushed")
    }

    /// All results so far.
    pub fn results(&self) -> &[Measurement] {
        &self.results
    }
}

/// Times a single closure once, returning its result and the elapsed time.
pub fn time_once<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed())
}

/// The result of a paired A/B comparison (see [`paired_compare`]).
#[derive(Debug, Clone, Copy)]
pub struct PairedReport {
    /// Median seconds per iteration of `a` across blocks.
    pub a_s: f64,
    /// Median seconds per iteration of `b` across blocks.
    pub b_s: f64,
    /// Median of the per-block `b/a` time ratios — the speedup of `a`
    /// over `b`, robust to frequency drift between blocks.
    pub speedup: f64,
    /// First and third quartile of those ratios: the spread a claim
    /// resting on `speedup` has to clear.
    pub speedup_quartiles: (f64, f64),
}

/// Compares two workloads by alternating timed blocks — `iters` runs of
/// `a`, then `iters` of `b`, repeated `blocks` times — and reporting the
/// median of the **per-block-pair** time ratios. Separately-measured
/// medians (as [`Bench`] produces) are vulnerable to CPU frequency drift
/// between the two measurement windows; pairing each `a` block with the
/// `b` block measured microseconds later cancels that drift, which
/// matters when the claimed difference is tens of percent and the noise
/// floor is larger. One calibration/warm-up block of each runs first.
pub fn paired_compare<R, S>(
    blocks: u32,
    iters: u32,
    mut a: impl FnMut() -> R,
    mut b: impl FnMut() -> S,
) -> PairedReport {
    let blocks = blocks.max(3) as usize;
    let iters = iters.max(1);
    let time_block = |f: &mut dyn FnMut()| {
        let t = Instant::now();
        for _ in 0..iters {
            f();
        }
        (t.elapsed().max(Duration::from_nanos(1))).as_secs_f64() / f64::from(iters)
    };
    let mut fa = || {
        std::hint::black_box(a());
    };
    let mut fb = || {
        std::hint::black_box(b());
    };
    time_block(&mut fa);
    time_block(&mut fb);
    let mut ta = Vec::with_capacity(blocks);
    let mut tb = Vec::with_capacity(blocks);
    let mut ratios = Vec::with_capacity(blocks);
    for _ in 0..blocks {
        let x = time_block(&mut fa);
        let y = time_block(&mut fb);
        ta.push(x);
        tb.push(y);
        ratios.push(y / x);
    }
    let med = |v: &mut Vec<f64>| {
        v.sort_unstable_by(|p, q| p.partial_cmp(q).expect("finite timings"));
        v[v.len() / 2]
    };
    PairedReport {
        a_s: med(&mut ta),
        b_s: med(&mut tb),
        speedup: med(&mut ratios),
        speedup_quartiles: (ratios[ratios.len() / 4], ratios[ratios.len() * 3 / 4]),
    }
}

/// One warm-up run, then the median wall-clock of `samples` single
/// executions of `f`. For workloads that take milliseconds or more per
/// run, where [`Bench`]'s iteration calibration is unnecessary.
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
        let mut b = Bench::new(3, Duration::from_micros(200));
        let m = b.run("spin", || {
            let mut acc = 0u64;
            for i in 0..100u64 {
                acc = acc.wrapping_add(i * i);
            }
            acc
        });
        assert!(m.median > Duration::ZERO);
        assert_eq!(b.results().len(), 1);
    }

    #[test]
    fn time_once_returns_value() {
        let (v, d) = time_once(|| 41 + 1);
        assert_eq!(v, 42);
        assert!(d < Duration::from_secs(5));
    }
}
