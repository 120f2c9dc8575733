//! Benchmark harness reproducing every table and figure of the Cortex
//! paper's evaluation (§7 and appendices).
//!
//! Each experiment is a library function returning the formatted table
//! (so integration tests can assert on its contents);
//! `cargo run --release -p cortex-bench-harness --bin all_experiments
//! [name]` prints all of them, or the one named:
//!
//! | `name` | Paper artifact |
//! | --- | --- |
//! | `fig6` | Fig. 6 — speedup over PyTorch vs batch size |
//! | `fig7` | Fig. 7 — latency vs hidden size (DyNet/Cavs overheads) |
//! | `fig9` | Fig. 9 — Cortex vs hand-optimized GRNN |
//! | `fig10a` | Fig. 10a — fusion / specialization / persistence ablation |
//! | `fig10b` | Fig. 10b + Fig. 11 — unrolling (barrier counts) |
//! | `fig10c` | Fig. 10c — recursive refactoring |
//! | `fig12` | Fig. 12 — peak memory across frameworks |
//! | `table4` | Table 4 — Cavs vs Cortex |
//! | `table5` | Table 5 — DyNet vs Cortex on three backends |
//! | `table6` | Table 6 — runtime-activity breakdown |
//! | `linearize` | §7.5 — linearization overheads |
//! | `roofline` | Appendix C — operational intensities for TreeFC |
//!
//! The other binaries: `bench_pipeline` (machine ceilings and lowering
//! facts, `BENCH_pipeline.json`), `tune` (the §6 grid search) and
//! `lint` (the workspace lint). Engine latency and throughput are
//! measured in `benchmarks/`, not here.
//!
//! Workload configurations follow Table 2: perfect binary trees of height
//! 7 for TreeFC, 10×10 grid DAGs for DAG-RNN, a synthetic
//! sentiment-treebank for the Tree* and MV-RNN models, and length-100
//! sequences for the Fig. 9 RNNs. Hidden sizes are hs/hl = 256/512
//! (64/128 for MV-RNN); batch sizes are 1 and 10.
//!
//! Experiments accept a [`Scale`] so integration tests can run the
//! identical code at reduced hidden sizes.

pub mod experiments;
pub mod registry;
pub mod runner;
pub mod table;
pub mod timing;
pub mod tune;

/// Scaling knob for experiments: `Paper` uses the exact paper
/// configuration; `Smoke` shrinks hidden sizes (÷8) for tests and
/// quick runs while preserving every structural property.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The paper's configuration.
    Paper,
    /// Reduced hidden sizes for fast runs.
    Smoke,
}

impl Scale {
    /// Applies the scale to a hidden size.
    pub fn hidden(self, h: usize) -> usize {
        match self {
            Scale::Paper => h,
            Scale::Smoke => (h / 8).max(4),
        }
    }

    /// Reads the scale from the `CORTEX_BENCH_SCALE` environment variable
    /// (`smoke` selects [`Scale::Smoke`]; anything else is `Paper`).
    pub fn from_env() -> Self {
        match std::env::var("CORTEX_BENCH_SCALE").as_deref() {
            Ok("smoke") => Scale::Smoke,
            _ => Scale::Paper,
        }
    }
}
