//! Seeded inputs of the four workloads.
//!
//! The *sizes* of a workload's structures are part of its definition
//! and come from a fixed generator, so every seed sees the same
//! distribution of request sizes, and so are the traffic patterns
//! (which lengths share a `seq_burst16` burst; which model and size
//! arrives when on `mixed_router`). `--seed` decides the shapes of the
//! structures, the word ids and the order of the solo request cycles.
//! Without this split a p50 over 120 requests moves ~2.5% from seed to
//! seed on input sizes alone, and the `mixed_router` p90 ±5% on the
//! make-up of its slowest flushes: as much as the regression bounds.

use std::time::{Duration, Instant};

use cortex_ds::{datasets, RecStructure};
use cortex_models::{
    dagrnn, mvrnn, reference, seq, treefc, treegru, treelstm, treernn, LeafInit, Model,
};
use cortex_rng::Rng;

/// The four workloads of `BENCHMARK.json`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    TreeSolo,
    SeqBurst16,
    ZooSmall,
    MixedRouter,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::TreeSolo,
        Workload::SeqBurst16,
        Workload::ZooSmall,
        Workload::MixedRouter,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::TreeSolo => "tree_solo",
            Workload::SeqBurst16 => "seq_burst16",
            Workload::ZooSmall => "zoo_small",
            Workload::MixedRouter => "mixed_router",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Seeds the size generators. Changing it redefines the workloads.
const SIZES: u64 = 0x5eed_51ce;

/// Requests per burst of `seq_burst16` (and the batcher's `max_batch`).
pub const BURST: usize = 16;
/// Virtual flush delay of the `mixed_router` shards.
pub const ROUTER_MAX_DELAY: Duration = Duration::from_millis(2);
/// Requests per replay of `mixed_router`: about 30 flush windows, so
/// that the cycle's percentiles do not hang on a few flushes.
const MIXED_REQUESTS: usize = 720;
/// Mean virtual gap between `mixed_router` arrivals: ~24 arrivals per
/// flush window over six shards, so flushes hold about 1–12 requests.
const ROUTER_MEAN_GAP_US: f64 = 83.0;

/// Which model a request runs, with the reference that checks it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelKind {
    TreeRnn,
    TreeFc,
    TreeGru,
    SimpleTreeGru,
    TreeLstm,
    MvRnn,
    DagRnn,
    SeqLstm,
    SeqGru,
}

impl ModelKind {
    pub fn build(self, h: usize) -> Model {
        let leaf = LeafInit::Embedding;
        match self {
            ModelKind::TreeRnn => treernn::tree_rnn(h, leaf),
            ModelKind::TreeFc => treefc::tree_fc(h, leaf),
            ModelKind::TreeGru => treegru::tree_gru(h, leaf),
            ModelKind::SimpleTreeGru => treegru::simple_tree_gru(h, leaf),
            ModelKind::TreeLstm => treelstm::tree_lstm(h, leaf),
            ModelKind::MvRnn => mvrnn::mv_rnn(h),
            ModelKind::DagRnn => dagrnn::dag_rnn(h),
            ModelKind::SeqLstm => seq::seq_lstm(h),
            ModelKind::SeqGru => seq::seq_gru(h),
        }
    }

    /// The primary output per structure node from the independent
    /// pure-Rust model — never from the engine under test.
    pub fn reference(self, s: &RecStructure, m: &Model) -> Vec<Vec<f32>> {
        let (p, h, leaf) = (&m.params, m.hidden, LeafInit::Embedding);
        match self {
            ModelKind::TreeRnn => reference::tree_rnn(s, p, h, leaf),
            ModelKind::TreeFc => reference::tree_fc(s, p, h, leaf),
            ModelKind::TreeGru | ModelKind::SeqGru => reference::tree_gru(s, p, h, leaf, false),
            ModelKind::SimpleTreeGru => reference::tree_gru(s, p, h, leaf, true),
            ModelKind::TreeLstm | ModelKind::SeqLstm => reference::tree_lstm(s, p, h, leaf).h,
            ModelKind::MvRnn => reference::mv_rnn(s, p, h).a,
            ModelKind::DagRnn => reference::dag_rnn(s, p, h),
        }
    }

    /// One small structure of `size` (its meaning depends on the kind).
    fn small_structure(self, size: usize, seed: u64) -> RecStructure {
        match self {
            ModelKind::TreeFc => datasets::perfect_binary_tree(2 + (size % 2) as u32, seed),
            ModelKind::DagRnn => datasets::grid_dag(2 + size % 3, 2 + size / 3 % 3, seed),
            ModelKind::SeqLstm | ModelKind::SeqGru => datasets::sequence(6 + 2 * size, seed),
            _ => datasets::random_binary_tree(3 + size, seed),
        }
    }
}

/// One request of a cycle: which model, on which structure.
pub struct Request {
    pub model: usize,
    pub structure: RecStructure,
}

/// Everything a child builds from `--seed` before it compiles anything.
pub struct Inputs {
    pub kinds: Vec<ModelKind>,
    pub models: Vec<Model>,
    /// How long building the model graphs and parameters took.
    pub models_build: Duration,
    /// The request cycle, replayed in this order.
    pub requests: Vec<Request>,
    /// `mixed_router` only: virtual arrival time of each request.
    pub arrivals: Vec<Duration>,
}

fn shuffle<T>(items: &mut [T], rng: &mut Rng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.below_usize(i + 1));
    }
}

/// Sentence lengths with the repository's SST-like distribution, read
/// off its own corpus generator.
fn sst_lengths(count: usize, seed: u64) -> Vec<usize> {
    datasets::sentiment_treebank(count, seed)
        .iter()
        .map(RecStructure::num_leaves)
        .collect()
}

fn forest(lengths: &[usize], rng: &mut Rng) -> RecStructure {
    let trees: Vec<RecStructure> = lengths
        .iter()
        .map(|&l| datasets::random_binary_tree(l, rng.next_u64()))
        .collect();
    RecStructure::merge(&trees.iter().collect::<Vec<_>>())
}

/// The virtual arrival times of `mixed_router`, a pure function of
/// `seed`: the gaps are the `count` quantiles of the exponential
/// distribution (a Poisson process's gaps), in an order `seed` picks.
/// Every trace therefore has the same gaps and the same length.
pub fn arrival_trace(seed: u64, count: usize) -> Vec<Duration> {
    let mut gaps_us: Vec<f64> = (0..count)
        .map(|i| -(1.0 - (i as f64 + 0.5) / count as f64).ln() * ROUTER_MEAN_GAP_US)
        .collect();
    shuffle(&mut gaps_us, &mut Rng::new(seed ^ 0x0a44_17a1));
    let mut at = 0.0f64;
    gaps_us
        .into_iter()
        .map(|gap| {
            at += gap;
            Duration::from_nanos((at * 1e3) as u64)
        })
        .collect()
}

/// Builds the models and the request cycle of `workload` for `seed`.
pub fn inputs(workload: Workload, seed: u64) -> Inputs {
    let mut sizes = Rng::new(SIZES);
    let mut rng = Rng::new(seed);
    let mut arrivals = Vec::new();
    let (kinds, hidden, mut requests): (Vec<ModelKind>, usize, Vec<Request>) = match workload {
        // The paper's Fig. 6 bs=10 point: 120 batches of ten sentences.
        Workload::TreeSolo => {
            let lengths = sst_lengths(1200, SIZES);
            let requests = lengths
                .chunks(10)
                .map(|batch| Request {
                    model: 0,
                    structure: forest(batch, &mut rng),
                })
                .collect();
            (vec![ModelKind::TreeLstm], 256, requests)
        }
        // 16 bursts of 16 single sequences; `requests.chunks(BURST)`
        // are the bursts, and a burst keeps its lengths on every seed.
        Workload::SeqBurst16 => {
            let mut bursts: Vec<Vec<Request>> = (0..16)
                .map(|_| {
                    let mut burst: Vec<Request> = (0..BURST)
                        .map(|_| sizes.range_usize(48, 81))
                        .map(|len| Request {
                            model: 0,
                            structure: datasets::sequence(len, rng.next_u64()),
                        })
                        .collect();
                    shuffle(&mut burst, &mut rng);
                    burst
                })
                .collect();
            shuffle(&mut bursts, &mut rng);
            let requests = bursts.into_iter().flatten().collect();
            (vec![ModelKind::SeqLstm], 256, requests)
        }
        Workload::ZooSmall => {
            let kinds = vec![
                ModelKind::TreeRnn,
                ModelKind::TreeFc,
                ModelKind::TreeGru,
                ModelKind::SimpleTreeGru,
                ModelKind::TreeLstm,
                ModelKind::MvRnn,
                ModelKind::DagRnn,
                ModelKind::SeqLstm,
                ModelKind::SeqGru,
            ];
            let mut requests = Vec::new();
            for (model, kind) in kinds.iter().enumerate() {
                for _ in 0..16 {
                    let size = sizes.below_usize(8);
                    requests.push(Request {
                        model,
                        structure: kind.small_structure(size, rng.next_u64()),
                    });
                }
            }
            (kinds, 32, requests)
        }
        Workload::MixedRouter => {
            let kinds = vec![ModelKind::TreeLstm, ModelKind::TreeGru, ModelKind::DagRnn];
            let lengths = sst_lengths(MIXED_REQUESTS, SIZES ^ 1);
            let mut requests: Vec<Request> = lengths
                .iter()
                .enumerate()
                .map(|(i, &len)| {
                    let model = i % kinds.len();
                    let structure = if kinds[model] == ModelKind::DagRnn {
                        let (rows, cols) = (sizes.range_usize(4, 9), sizes.range_usize(4, 9));
                        datasets::grid_dag(rows, cols, rng.next_u64())
                    } else {
                        datasets::random_binary_tree(len, rng.next_u64())
                    };
                    Request { model, structure }
                })
                .collect();
            // Who arrives when is the workload, like the sizes: the
            // tail latency follows the make-up of the slowest flushes,
            // and a trace drawn per seed moved p90 by ±5% on its own.
            shuffle(&mut requests, &mut sizes);
            arrivals = arrival_trace(SIZES, requests.len());
            (kinds, 256, requests)
        }
    };
    if matches!(workload, Workload::TreeSolo | Workload::ZooSmall) {
        shuffle(&mut requests, &mut rng);
    }
    let building = Instant::now();
    let models = kinds
        .iter()
        // MV-RNN carries an h×h matrix per node, so (as in the paper)
        // it runs at a smaller hidden size than its neighbours.
        .map(|k| {
            k.build(if *k == ModelKind::MvRnn {
                hidden / 2
            } else {
                hidden
            })
        })
        .collect();
    Inputs {
        kinds,
        models,
        models_build: building.elapsed(),
        requests,
        arrivals,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arrival_trace_is_a_pure_function_of_the_seed() {
        let a = arrival_trace(7, 240);
        assert_eq!(a, arrival_trace(7, 240));
        assert_ne!(a, arrival_trace(8, 240));
        assert!(a.windows(2).all(|w| w[0] <= w[1]), "arrivals are ordered");
        let length_us = |trace: &[Duration]| (trace.last().unwrap().as_secs_f64() * 1e6).round();
        assert_eq!(length_us(&a), length_us(&arrival_trace(8, 240)));
        let mean_gap_us = length_us(&a) / a.len() as f64;
        assert!((75.0..90.0).contains(&mean_gap_us), "{mean_gap_us}");
    }

    #[test]
    fn every_seed_sees_the_same_request_sizes() {
        for w in Workload::ALL {
            let sizes = |seed| {
                let mut s: Vec<(usize, usize)> = inputs(w, seed)
                    .requests
                    .iter()
                    .map(|r| (r.model, r.structure.num_nodes()))
                    .collect();
                s.sort_unstable();
                s
            };
            assert_eq!(sizes(1), sizes(2), "{}", w.name());
        }
    }

    #[test]
    fn the_seed_changes_shapes_and_order() {
        for w in Workload::ALL {
            let heights = |seed| -> Vec<u32> {
                inputs(w, seed)
                    .requests
                    .iter()
                    .map(|r| r.structure.max_height() + r.structure.word(r.structure.roots()[0]))
                    .collect()
            };
            assert_eq!(heights(3), heights(3), "{}", w.name());
            assert_ne!(heights(3), heights(4), "{}", w.name());
        }
    }

    #[test]
    fn cycles_have_at_least_a_hundred_requests() {
        for w in Workload::ALL {
            assert!(inputs(w, 1).requests.len() >= 100, "{}", w.name());
        }
        assert_eq!(inputs(Workload::SeqBurst16, 1).requests.len() % BURST, 0);
    }
}
