//! Names, units, directions and bounds of every metric: the table
//! behind the result line and the tables a person reads. A unit test
//! checks that `BENCHMARK.json` lists exactly these.

use crate::stats::Better::{self, Higher, Lower};

/// An end-to-end metric and the share by which it may get worse.
pub struct E2e {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> E2e {
    E2e {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Layer {
    Layer { name, unit, better }
}

/// The bounds are what this shared box supports, not what one would
/// like: in a neighbour's slow spell that outlasts a run, ten runs of
/// one build spread (quartile distance ÷ median) up to 12.7% on the
/// latencies, 10.4% on throughput, 7.3% on `compile_ms` and 19.9% on
/// `setup_s`, against 1–4% (`setup_s` 4–7%) when the box is calm. Each
/// bound is about twice the worst spread seen (`setup_s`: as wide as
/// the contract allows), so that a spell during one of two sets of
/// runs does not read as a regression.
pub const E2E: [E2e; 6] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("compile_ms", "ms", Lower, 0.15),
    e2e("latency_ms_p50", "ms", Lower, 0.25),
    e2e("latency_ms_p90", "ms", Lower, 0.25),
    e2e("throughput_rps", "1/s", Higher, 0.25),
    e2e("peak_rss_mb", "MB", Lower, 0.05),
];

pub const LAYERS: &[Layer] = &[
    layer("models.build_ms", "ms", Lower),
    layer("core.lower_ms", "ms", Lower),
    layer("backend.engine_build_ms", "ms", Lower),
    layer("backend.specialize_ms", "ms", Lower),
    layer("backend.plan_ops", "count", Lower),
    layer("backend.threaded_ops", "count", Lower),
    layer("ds.linearize_us_per_req", "us", Lower),
    layer("ds.linearize_share", "share", Lower),
    layer("ds.nodes_per_req", "count", Lower),
    layer("backend.execute_ms_per_req", "ms", Lower),
    layer("backend.execute_share", "share", Lower),
    layer("backend.validate_us_per_req", "us", Lower),
    layer("backend.gemm_launches_per_req", "count", Lower),
    layer("backend.gemm_rows_per_launch", "count", Higher),
    layer("backend.requests_per_gemm", "count", Higher),
    layer("backend.fused_waves_per_req", "count", Higher),
    layer("backend.weight_packs_per_req", "count", Lower),
    layer("backend.fallback_sites", "count", Lower),
    layer("backend.gemm_us_per_launch", "us", Lower),
    layer("backend.gather_share", "share", Lower),
    layer("backend.gemm_share", "share", Higher),
    layer("backend.epilogue_share", "share", Lower),
    layer("backend.unattributed_share", "share", Lower),
    layer("tensor.gemm_nt_gflops_m1", "GFLOP/s", Higher),
    layer("tensor.gemm_nt_gflops_m16", "GFLOP/s", Higher),
    layer("tensor.gemm_nt_gflops_m64", "GFLOP/s", Higher),
    layer("tensor.axpy_gb_s", "GB/s", Higher),
    layer("serve.submit_us_per_req", "us", Lower),
    layer("serve.drain_ms_per_flush", "ms", Lower),
    layer("serve.batcher_overhead_share", "share", Lower),
    layer("serve.router_submit_us_per_req", "us", Lower),
    layer("serve.router_idle_poll_us", "us", Lower),
    layer("serve.flushes_per_replay", "count", Lower),
    layer("serve.batch_size_mean", "count", Higher),
    layer("serve.superwave_width_mean", "count", Higher),
    layer("serve.queue_delay_virtual_ms_mean", "ms", Lower),
    layer("serve.spills", "count", Lower),
    layer("serve.retries", "count", Lower),
    layer("serve.resolved_err", "count", Lower),
    layer("alloc.count_per_req", "count", Lower),
    layer("alloc.kb_per_req", "kB", Lower),
    layer("alloc.linearize_count_per_req", "count", Lower),
    layer("alloc.execute_count_per_req", "count", Lower),
    layer("alloc.serve_count_per_req", "count", Lower),
    layer("noise.round_spread", "ratio", Lower),
    layer("noise.steal_share", "share", Lower),
    layer("e2e.latency_ms_p50_round_median", "ms", Lower),
    layer("e2e.latency_ms_p99_pooled", "ms", Lower),
    layer("e2e.throughput_rps_best_replay", "1/s", Higher),
    layer("trace.overhead_share", "share", Lower),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::Workload;

    #[test]
    fn benchmark_json_at_the_root_lists_exactly_this_table() {
        let file = include_str!("../../BENCHMARK.json");
        for w in Workload::ALL {
            let entry = format!("{{\"name\": \"{}\", \"why\": \"", w.name());
            assert!(file.contains(&entry), "{entry}");
        }
        for m in &E2E {
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                m.better.word(),
                m.bound
            );
            assert!(file.contains(&entry), "{entry}");
        }
        for m in LAYERS {
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                m.better.word()
            );
            assert!(file.contains(&entry), "{entry}");
        }
        let entries = file.matches("{\"name\": ").count();
        assert_eq!(entries, Workload::ALL.len() + E2E.len() + LAYERS.len());
    }

    #[test]
    fn the_table_meets_the_contract() {
        let mut names: Vec<&str> = E2E
            .iter()
            .map(|m| m.name)
            .chain(LAYERS.iter().map(|m| m.name))
            .collect();
        assert!(E2E
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Lower));
        // No bound is wider than the contract's quarter, and none is
        // wider than that of `setup_s`.
        assert!(E2E.iter().all(|m| m.bound <= E2E[0].bound));
        assert!(E2E[0].name == "setup_s" && E2E[0].bound <= 0.25);
        assert!(LAYERS.len() <= 128);
        let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
        assert!(names.iter().all(|n| n.len() <= 64 && n.chars().all(ok)));
        let unit_ok = |c: char| c.is_ascii_alphanumeric() || "_/%.-".contains(c);
        assert!(E2E
            .iter()
            .map(|m| m.unit)
            .chain(LAYERS.iter().map(|m| m.unit))
            .all(|u| u.len() <= 16 && u.chars().all(unit_ok)));
        let count = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), count, "metric names are used once");
        for exact in crate::layers::EXACT {
            assert!(
                names.binary_search(exact).is_ok(),
                "{exact} is in the table"
            );
        }
    }
}
