//! The estimator: every timing metric reports the fastest the program
//! was seen to do that piece of work, over all replays of all rounds.
//!
//! On this shared 2-vCPU box a neighbour slows a whole child by 10–40%
//! for seconds to minutes. In such a spell the median round's p50 moved
//! 36% between identical runs and the best round's p50 32%, while the
//! p50 over per-request minima stayed within 2.4% (quartile distance
//! over 15 runs). Everything a metric reports goes through the few
//! functions here, so the unit tests pin the definitions.

/// Whether a smaller or a larger value of a metric is the better one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    /// As `BENCHMARK.json` spells it.
    pub fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// The `q`-quantile (0 ≤ q ≤ 1) of `sorted`, linearly interpolated
/// between the two neighbouring order statistics.
///
/// # Panics
///
/// Panics on an empty slice: a metric with no samples is a bug in the
/// benchmark, not a value to report.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Sorts `values` in place and returns the `q`-quantile.
pub fn quantile_of(values: &mut [f64], q: f64) -> f64 {
    values.sort_by(f64::total_cmp);
    quantile(values, q)
}

/// The median of `values` (sorted in place).
pub fn median(values: &mut [f64]) -> f64 {
    quantile_of(values, 0.5)
}

/// Collapses `replays[r][i]` (replay `r`, request `i` of the cycle) to
/// one latency per request: the median over its replays — the
/// conventional view of one round, reported next to the gated numbers.
pub fn per_request_median(replays: &[Vec<f64>]) -> Vec<f64> {
    let requests = replays.first().map_or(0, Vec::len);
    let mut column = Vec::with_capacity(replays.len());
    (0..requests)
        .map(|i| {
            column.clear();
            column.extend(replays.iter().map(|r| r[i]));
            median(&mut column)
        })
        .collect()
}

/// Collapses replays of the cycle (each a slice with one latency per
/// request) to the fastest time each request was served in. Machine
/// noise only ever adds time, so the minimum over many replays in many
/// processes is the steadiest view of what the code costs; it keeps the
/// variation between inputs, which p50/p90 are then taken over.
pub fn per_request_min<'a>(replays: impl IntoIterator<Item = &'a [f64]>) -> Vec<f64> {
    let mut replays = replays.into_iter();
    let mut best = replays.next().map_or(Vec::new(), <[f64]>::to_vec);
    for replay in replays {
        for (b, &x) in best.iter_mut().zip(replay) {
            *b = b.min(x);
        }
    }
    best
}

/// The value a one-per-round metric reports across rounds: its best.
pub fn best_round(rounds: &[f64], better: Better) -> f64 {
    let pick = match better {
        Better::Lower => f64::min,
        Better::Higher => f64::max,
    };
    rounds
        .iter()
        .copied()
        .reduce(pick)
        .expect("at least one round")
}

/// How much worse `b` is than `a`, as a share of `a` (negative when
/// `b` is the better one).
pub fn worsening(a: f64, b: f64, better: Better) -> f64 {
    match better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_order_statistics() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 0.5), 3.0);
        assert_eq!(quantile(&v, 1.0), 5.0);
        assert_eq!(quantile(&v, 0.9), 4.6);
        assert_eq!(quantile(&[10.0, 20.0], 0.5), 15.0);
        assert_eq!(quantile(&[7.0], 0.9), 7.0);
    }

    #[test]
    fn p90_of_a_120_request_cycle_has_ten_samples_beyond_it() {
        let v: Vec<f64> = (0..120).map(f64::from).collect();
        let p90 = quantile(&v, 0.9);
        assert!(v.iter().filter(|&&x| x > p90).count() >= 10);
    }

    #[test]
    fn median_sorts_its_input() {
        let mut v = [9.0, 1.0, 5.0];
        assert_eq!(median(&mut v), 5.0);
        assert_eq!(v, [1.0, 5.0, 9.0]);
    }

    #[test]
    fn per_request_median_removes_a_noisy_replay_and_keeps_input_sizes() {
        // Request 1 is ten times the size of request 0; replay 1 hit a
        // slow spell on both.
        let replays = vec![vec![1.0, 10.0], vec![5.0, 50.0], vec![1.2, 12.0]];
        assert_eq!(per_request_median(&replays), vec![1.2, 12.0]);
        assert!(per_request_median(&[]).is_empty());
    }

    #[test]
    fn per_request_min_takes_each_request_from_its_fastest_replay() {
        let replays: [&[f64]; 3] = [&[1.0, 12.0], &[5.0, 10.0], &[1.2, 50.0]];
        assert_eq!(per_request_min(replays), vec![1.0, 10.0]);
        assert!(per_request_min(std::iter::empty()).is_empty());
    }

    #[test]
    fn best_round_is_min_for_times_and_max_for_rates() {
        let rounds = [4.38, 5.1, 4.28, 6.0];
        assert_eq!(best_round(&rounds, Better::Lower), 4.28);
        assert_eq!(best_round(&rounds, Better::Higher), 6.0);
    }

    #[test]
    fn worsening_is_signed_by_direction() {
        assert!((worsening(100.0, 106.0, Better::Lower) - 0.06).abs() < 1e-12);
        assert!((worsening(100.0, 94.0, Better::Higher) - 0.06).abs() < 1e-12);
        assert!(worsening(100.0, 90.0, Better::Lower) < 0.0);
    }
}
