//! The machine's ceilings and the zoo's lowering facts: emits
//! `BENCH_pipeline.json`.
//!
//! Request latency and throughput, and the per-layer shares that add up
//! to them, come from `benchmarks/` (`bash benchmarks/run.sh`). This
//! binary records what those shares are stated against, what the lanes
//! buy one batch, and what lowering produces for every model:
//!
//! ```json
//! {
//!   "schema": "cortex-bench-pipeline/v15",
//!   "axpy_gb_s": 38.1, "fma_peak_gflops": 166.5,
//!   "gemm_packed_gflops_m1": 33.9, "gemm_packed_gflops_m16": 136.3,
//!   "gemm_packed_gflops_m64": 149.1,
//!   "lanes": {"lanes": 2, "fma_peak_gflops_all_lanes": 309.1,
//!     "fork_join_ns": 767,
//!     "gemm_packed_gflops_all_lanes_m1": 58.7,
//!     "gemm_packed_gflops_all_lanes_m16": 240.0,
//!     "gemm_packed_gflops_all_lanes_m64": 251.6,
//!     "seq_burst16_ms_one_lane": 5.94, "seq_burst16_ms_all_lanes": 3.68,
//!     "seq_burst16_all_over_one": 0.62},
//!   "lowering": [
//!     {"model": "treelstm", "plan_ops": 36, "lower_ms": 0.012}
//!   ]
//! }
//! ```
//!
//! * `axpy_gb_s` — what `simd::axpy` streams over 1 Mi elements: the
//!   ceiling of an elementwise epilogue pass.
//! * `fma_peak_gflops` — twelve independent FMA chains at the detected
//!   SIMD level (`simd::fma_chains`), operands in registers: the ceiling
//!   of the GEMM. CI gates `gemm_packed_gflops_m16` ≥ half of it.
//! * `gemm_packed_gflops_m{1,16,64}` — the tile kernel through its
//!   packed entry on `m` rows × N=1024 × K=256 (an h=256 gate stack),
//!   pinned to one lane.
//! * `lanes` — the same probes on every lane of `cortex_tensor::par` at
//!   once, and `fork_join_ns`, an empty `par::split` round trip. Then the
//!   one engine timing: `Engine::execute_many` over 16 length-64
//!   sequences of the h=256 seq-LSTM (the shape of the benchmark's
//!   `seq_burst16` bursts), median of 9 warm batches, pinned to one lane
//!   and on all lanes, where the batch splits into one lane group per
//!   lane — and the ratio of the two.
//! * `lowering` — `PlanStats` of every model of the zoo at the default
//!   schedule: plan length and lowering time.
//!
//! Run with `cargo run --release -p cortex-bench-harness --bin
//! bench_pipeline [-- output.json]`.

use std::fmt::Write as _;

use cortex_backend::exec::Engine;
use cortex_bench_harness::timing::{median_run, time_once};
use cortex_core::ra::RaSchedule;
use cortex_ds::datasets;
use cortex_ds::linearizer::Linearizer;
use cortex_models::{dagrnn, mvrnn, seq, treefc, treegru, treelstm, treernn, LeafInit};
use cortex_tensor::par;

/// The FLOP ceiling of the GEMM layer: twelve independent vector FMA
/// chains at the detected level, operands in registers, on `lanes` lanes
/// at once.
fn fma_peak_gflops(lanes: usize) -> f64 {
    use std::sync::atomic::{AtomicU64, Ordering};
    let level = cortex_tensor::simd::level();
    let flops = AtomicU64::new(0);
    let seconds = median_run(9, || {
        flops.store(0, Ordering::Relaxed);
        par::with_lanes(lanes, || {
            par::split(lanes, &|_| {
                let done = cortex_tensor::simd::fma_chains(level, 1 << 20);
                flops.fetch_add(done, Ordering::Relaxed);
            });
        });
    })
    .as_secs_f64();
    flops.into_inner() as f64 / seconds / 1e9
}

/// What the tile kernel reaches through its packed entry on `m` rows
/// against 1024 columns × K=256 — the shape of an h=256 gate stack —
/// spread over at most `lanes` lanes.
fn gemm_packed_gflops(m: usize, lanes: usize) -> f64 {
    use cortex_tensor::kernels::{gemm_packed_into, PackedB};
    let (n, k) = (1024, 256);
    let b = cortex_tensor::Tensor::random(&[n, k], 1.0, 2);
    let packed = PackedB::pack_nt(b.as_slice(), n, k);
    let a = cortex_tensor::Tensor::random(&[m, k], 1.0, 1);
    let mut c = vec![0.0f32; m * n];
    let calls = 2048 / m as u32;
    let seconds = par::with_lanes(lanes, || {
        median_run(9, || {
            for _ in 0..calls {
                gemm_packed_into(&mut c, a.as_slice(), &packed, m);
                std::hint::black_box(&mut c);
            }
        })
    })
    .as_secs_f64();
    2.0 * (m * n * k) as f64 * f64::from(calls) / seconds / 1e9
}

/// An empty fork and join on every lane, nanoseconds (median of 10001
/// back-to-back round trips: the helpers are hot).
fn fork_join_ns() -> f64 {
    let lanes = par::lanes();
    let mut ns: Vec<u128> = (0..10_001)
        .map(|_| time_once(|| par::split(lanes, &|_| {})).1.as_nanos())
        .collect();
    ns.sort_unstable();
    ns[ns.len() / 2] as f64
}

/// One warm `execute_many` of 16 length-64 sequences through the h=256
/// seq-LSTM on at most `lanes` lanes, milliseconds (median of 9).
fn seq_burst16_ms(lanes: usize) -> f64 {
    let model = seq::seq_lstm(256);
    let program = model.lower(&RaSchedule::default()).expect("lowers");
    let lins: Vec<_> = (0..16)
        .map(|s| Linearizer::new().linearize(&datasets::sequence(64, s)))
        .collect::<Result<_, _>>()
        .expect("linearizes");
    let refs: Vec<_> = lins.iter().collect();
    let mut engine = Engine::new(&program);
    let burst = || {
        engine
            .execute_many(&refs, &model.params, true)
            .expect("runs");
    };
    par::with_lanes(lanes, || median_run(9, burst).as_secs_f64() * 1e3)
}

/// The stream-rate ceiling of an elementwise pass: `y += x` over 1 Mi
/// elements (reads `x` and `y`, writes `y` — twelve bytes per element).
fn axpy_gb_s() -> f64 {
    let x = vec![1.0f32; 1 << 20];
    let mut y = vec![0.0f32; 1 << 20];
    let seconds = median_run(9, || {
        cortex_tensor::simd::axpy(&mut y, &x);
        std::hint::black_box(&mut y);
    })
    .as_secs_f64();
    12.0 * y.len() as f64 / seconds / 1e9
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_pipeline.json".to_string());

    let axpy = axpy_gb_s();
    let lanes = par::lanes();
    let (fma_peak, fma_peak_all) = (fma_peak_gflops(1), fma_peak_gflops(lanes));
    let [packed_m1, packed_m16, packed_m64] = [1, 16, 64].map(|m| gemm_packed_gflops(m, 1));
    let [all_m1, all_m16, all_m64] = [1, 16, 64].map(|m| gemm_packed_gflops(m, lanes));
    let fork_join = fork_join_ns();
    let (burst_one, burst_all) = (seq_burst16_ms(1), seq_burst16_ms(lanes));
    let burst_ratio = burst_all / burst_one;
    println!(
        "ceilings: axpy {axpy:.1} GB/s, fma {fma_peak:.1} GFLOP/s; packed gemm \
         m1 {packed_m1:.1} m16 {packed_m16:.1} m64 {packed_m64:.1} GFLOP/s\n\
         on {lanes} lanes: fma {fma_peak_all:.1} GFLOP/s; packed gemm m1 {all_m1:.1} \
         m16 {all_m16:.1} m64 {all_m64:.1} GFLOP/s; fork+join {fork_join:.0} ns\n\
         16-sequence execute_many: {burst_one:.3} ms on one lane, {burst_all:.3} ms \
         on {lanes} ({burst_ratio:.3}x)"
    );
    let mut json = format!(
        "{{\n  \"schema\": \"cortex-bench-pipeline/v15\",\n  \"axpy_gb_s\": {axpy:.3},\n  \
         \"fma_peak_gflops\": {fma_peak:.3},\n  \"gemm_packed_gflops_m1\": {packed_m1:.3},\n  \
         \"gemm_packed_gflops_m16\": {packed_m16:.3},\n  \
         \"gemm_packed_gflops_m64\": {packed_m64:.3},\n  \"lanes\": {{\n    \
         \"lanes\": {lanes}, \"fma_peak_gflops_all_lanes\": {fma_peak_all:.3}, \
         \"fork_join_ns\": {fork_join:.0},\n    \
         \"gemm_packed_gflops_all_lanes_m1\": {all_m1:.3}, \
         \"gemm_packed_gflops_all_lanes_m16\": {all_m16:.3}, \
         \"gemm_packed_gflops_all_lanes_m64\": {all_m64:.3},\n    \
         \"seq_burst16_ms_one_lane\": {burst_one:.3}, \
         \"seq_burst16_ms_all_lanes\": {burst_all:.3}, \
         \"seq_burst16_all_over_one\": {burst_ratio:.3}\n  }},\n  \"lowering\": [\n"
    );

    let zoo = [
        ("treernn", treernn::tree_rnn(64, LeafInit::Embedding)),
        ("treefc", treefc::tree_fc(64, LeafInit::Embedding)),
        ("treegru", treegru::tree_gru(64, LeafInit::Embedding)),
        ("treelstm", treelstm::tree_lstm(64, LeafInit::Zero)),
        ("mvrnn", mvrnn::mv_rnn(16)),
        ("dagrnn", dagrnn::dag_rnn(64)),
        ("seqlstm", seq::seq_lstm(64)),
    ];
    for (i, (name, model)) in zoo.iter().enumerate() {
        let program = model.lower(&RaSchedule::default()).expect("lowers");
        let plan = Engine::new(&program).plan_stats();
        println!(
            "lowering {name:<10} plan_ops={:<5} lower={:.3}ms",
            plan.plan_ops,
            plan.lower_ns as f64 / 1e6,
        );
        let _ = write!(
            json,
            "    {{\"model\": \"{name}\", \"plan_ops\": {}, \"lower_ms\": {:.4}}}{}",
            plan.plan_ops,
            plan.lower_ns as f64 / 1e6,
            if i + 1 < zoo.len() { ",\n" } else { "\n" }
        );
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&out_path, &json).expect("write BENCH_pipeline.json");
    println!("\nwrote {out_path}");
}
