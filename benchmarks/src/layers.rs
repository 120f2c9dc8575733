//! Per-layer metrics of one traced replay, from its spans and from the
//! counters the library reports about itself.
//!
//! A metric that does not apply to a workload (no `serve` layer behind
//! `tree_solo`, no engine counters visible through the `Router`) is
//! left out here; only the final JSON line zero-fills, because the
//! benchmark contract wants every name on every workload.

use std::collections::BTreeMap;

use crate::drive::Counters;
use crate::gen::Workload;
use crate::stats;
use crate::trace::{self_times_ns, total, Span};

pub type Metrics = BTreeMap<&'static str, f64>;

/// Per-layer metric names whose value is a count that must repeat
/// exactly between two runs of the same build and seed.
pub const EXACT: &[&str] = &[
    "backend.plan_ops",
    "backend.threaded_ops",
    "ds.nodes_per_req",
    "backend.gemm_launches_per_req",
    "backend.gemm_rows_per_launch",
    "backend.requests_per_gemm",
    "backend.fused_waves_per_req",
    "backend.weight_packs_per_req",
    "backend.fallback_sites",
    "serve.flushes_per_replay",
    "serve.batch_size_mean",
    "serve.superwave_width_mean",
    "serve.queue_delay_virtual_ms_mean",
    "serve.spills",
    "serve.retries",
    "serve.resolved_err",
    "alloc.count_per_req",
    "alloc.kb_per_req",
    "alloc.linearize_count_per_req",
    "alloc.execute_count_per_req",
    "alloc.serve_count_per_req",
];

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The metrics of one traced replay of `requests` requests.
pub fn of_replay(workload: Workload, spans: &[Span], c: &Counters, requests: usize) -> Metrics {
    let req = requests as f64;
    let own = self_times_ns(spans);
    let own_of = |prefix: &str| -> f64 {
        let named = spans.iter().zip(&own);
        named
            .filter(|(s, _)| s.name.starts_with(prefix))
            .map(|(_, &t)| t as f64)
            .sum()
    };
    let time = |name: &str| total(spans, name, Span::duration_ns) as f64;
    let allocs = |prefix: &str| -> f64 {
        let named = spans.iter().filter(|s| s.name.starts_with(prefix));
        named.map(|s| s.allocs as f64).sum()
    };
    let roots = || spans.iter().filter(|s| s.parent.is_none());
    let sum = |values: &mut dyn Iterator<Item = u64>| values.sum::<u64>() as f64;
    let wall_ns = sum(&mut roots().map(Span::duration_ns));

    let mut m = Metrics::from([
        ("ds.linearize_us_per_req", time("ds.linearize") / 1e3 / req),
        ("ds.linearize_share", own_of("ds.linearize") / wall_ns),
        ("ds.nodes_per_req", c.nodes as f64 / req),
        (
            "alloc.count_per_req",
            sum(&mut roots().map(|s| s.allocs)) / req,
        ),
        (
            "alloc.kb_per_req",
            sum(&mut roots().map(|s| s.bytes)) / 1024.0 / req,
        ),
        (
            "alloc.linearize_count_per_req",
            allocs("ds.linearize") / req,
        ),
    ]);
    let solo = matches!(workload, Workload::TreeSolo | Workload::ZooSmall);
    if solo {
        m.extend([
            (
                "backend.execute_ms_per_req",
                time("backend.execute") / 1e6 / req,
            ),
            ("backend.execute_share", own_of("backend.execute") / wall_ns),
            (
                "backend.validate_us_per_req",
                time("backend.validate_input") / 1e3 / req,
            ),
            (
                "alloc.execute_count_per_req",
                allocs("backend.execute") / req,
            ),
        ]);
    } else {
        let (responses, flushes) = (c.responses as f64, c.flushes.round());
        m.extend([
            ("serve.flushes_per_replay", flushes),
            ("serve.batch_size_mean", ratio(responses, flushes)),
            (
                "serve.superwave_width_mean",
                ratio(c.superwave_width_sum, responses),
            ),
            (
                "serve.queue_delay_virtual_ms_mean",
                ratio(c.queue_delay_ms_sum, responses),
            ),
            ("alloc.serve_count_per_req", allocs("serve.") / req),
        ]);
    }
    if workload == Workload::SeqBurst16 {
        m.insert(
            "serve.submit_us_per_req",
            time("serve.submit_many") / 1e3 / req,
        );
    }
    if workload == Workload::MixedRouter {
        let idle = spans.iter().filter(|s| s.name == "serve.router_poll_idle");
        let mut idle_us: Vec<f64> = idle.map(|s| s.duration_ns() as f64 / 1e3).collect();
        if !idle_us.is_empty() {
            m.insert("serve.router_idle_poll_us", stats::median(&mut idle_us));
        }
        m.extend([
            // The replay's one `drain`, over the flushes that ran inside
            // it. (On `seq_burst16` a burst fills the queue, so its flush
            // runs inside `submit_many` and `drain` only hands results
            // over: the metric does not apply there.)
            (
                "serve.drain_ms_per_flush",
                ratio(time("serve.drain") / 1e6, c.drain_flushes.round()),
            ),
            (
                "serve.router_submit_us_per_req",
                time("serve.router_submit") / 1e3 / req,
            ),
            ("serve.spills", c.spills as f64),
            ("serve.retries", c.retries as f64),
            ("serve.resolved_err", c.resolved_err as f64),
        ]);
    } else {
        // The engine's own counters are readable: directly, or through
        // `Batcher::stats`. The `Router` shows none of them. The engine
        // ran inside the span named here; its three phase timers are
        // read from its stats, and the rest of the span is the residue
        // (dispatch, allocation, admission, bookkeeping).
        let span = if solo {
            "backend.execute"
        } else {
            "serve.submit_many"
        };
        let (launches, engine_ns) = (c.gemm_launches as f64, time(span));
        let share = |ns: u64| ns as f64 / engine_ns;
        m.extend([
            ("backend.gemm_launches_per_req", launches / req),
            (
                "backend.gemm_rows_per_launch",
                ratio(c.gemm_rows as f64, launches),
            ),
            (
                "backend.requests_per_gemm",
                ratio(c.gemm_requests as f64, launches),
            ),
            ("backend.fused_waves_per_req", c.fused_waves as f64 / req),
            ("backend.weight_packs_per_req", c.weight_packs as f64 / req),
            ("backend.fallback_sites", c.fallback_sites as f64),
            (
                "backend.gemm_us_per_launch",
                ratio(c.gemm_ns as f64 / 1e3, launches),
            ),
            ("backend.gather_share", share(c.gather_ns)),
            ("backend.gemm_share", share(c.gemm_ns)),
            ("backend.epilogue_share", share(c.epilogue_ns)),
            (
                "backend.unattributed_share",
                1.0 - share(c.gather_ns + c.gemm_ns + c.epilogue_ns),
            ),
        ]);
    }
    m
}

/// One value per metric from the traced replays: the median over the
/// replays that report it — except for the [`EXACT`] counts, which come
/// from the first traced replay: state drifts from replay to replay
/// (the router's adaptive flush depth sizes its buffers), and a count
/// must not depend on how many replays `--seconds` asks for.
pub fn over_replays(replays: &[Metrics]) -> Metrics {
    let mut names: Vec<&'static str> = replays.iter().flat_map(|m| m.keys().copied()).collect();
    names.sort_unstable();
    names.dedup();
    names
        .into_iter()
        .map(|name| {
            let mut values: Vec<f64> = replays
                .iter()
                .filter_map(|m| m.get(name).copied())
                .collect();
            if EXACT.contains(&name) {
                (name, values[0])
            } else {
                (name, stats::median(&mut values))
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<u32>, start: u64, end: u64, allocs: u64) -> Span {
        Span {
            name,
            request: 0,
            parent,
            start_ns: start,
            end_ns: end,
            allocs,
            bytes: allocs * 1024,
        }
    }

    #[test]
    fn solo_replay_metrics_follow_their_definitions() {
        let spans = vec![
            span("request", None, 0, 1000, 12),
            span("ds.linearize", Some(0), 0, 100, 2),
            span("backend.execute", Some(0), 200, 1000, 10),
        ];
        let counters = Counters {
            nodes: 40,
            gemm_launches: 4,
            gemm_rows: 40,
            gemm_requests: 4,
            gemm_ns: 400,
            gather_ns: 80,
            epilogue_ns: 160,
            ..Counters::default()
        };
        let m = of_replay(Workload::TreeSolo, &spans, &counters, 1);
        assert_eq!(m["ds.linearize_share"], 0.1);
        assert_eq!(m["backend.execute_share"], 0.8);
        assert_eq!(m["backend.requests_per_gemm"], 1.0);
        assert_eq!(m["backend.gemm_share"], 0.5);
        assert!((m["backend.unattributed_share"] - 0.2).abs() < 1e-12);
        assert_eq!(m["alloc.count_per_req"], 12.0);
        assert_eq!(m["alloc.kb_per_req"], 12.0);
        assert_eq!(m["alloc.execute_count_per_req"], 10.0);
        assert!(
            m.keys().all(|k| !k.starts_with("serve.")),
            "no serve layer behind a solo run"
        );
    }

    #[test]
    fn timings_take_the_median_replay_and_counts_the_first() {
        let replay = |v: f64| Metrics::from([("a", v), ("serve.spills", 10.0 * v)]);
        let m = over_replays(&[replay(3.0), replay(1.0), replay(2.0)]);
        assert_eq!(m, Metrics::from([("a", 2.0), ("serve.spills", 30.0)]));
    }
}
