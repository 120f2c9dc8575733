//! The model and workload registry for the evaluation (Table 2).

use cortex_ds::{datasets, RecStructure};
use cortex_models::{dagrnn, mvrnn, seq, treefc, treegru, treelstm, treernn, LeafInit, Model};

use crate::Scale;

/// The five primary evaluation models (Table 2), plus the §7.4 extras.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelId {
    /// TreeFC on perfect binary trees of height 7.
    TreeFc,
    /// DAG-RNN on 10×10 grid DAGs.
    DagRnn,
    /// Child-sum TreeGRU on sentiment-treebank trees.
    TreeGru,
    /// Child-sum TreeLSTM on sentiment-treebank trees.
    TreeLstm,
    /// MV-RNN on sentiment-treebank trees.
    MvRnn,
    /// TreeRNN (§7.4 unrolling experiment).
    TreeRnn,
    /// SimpleTreeGRU (§7.4 refactoring experiment).
    SimpleTreeGru,
    /// Sequential LSTM (Fig. 9).
    SeqLstm,
    /// Sequential GRU (Fig. 9).
    SeqGru,
}

/// The paper's five main evaluation models, in Table 2 order.
pub const MAIN_MODELS: [ModelId; 5] = [
    ModelId::TreeFc,
    ModelId::DagRnn,
    ModelId::TreeGru,
    ModelId::TreeLstm,
    ModelId::MvRnn,
];

impl ModelId {
    /// Table 2 short name.
    pub fn name(self) -> &'static str {
        match self {
            ModelId::TreeFc => "TreeFC",
            ModelId::DagRnn => "DAG-RNN",
            ModelId::TreeGru => "TreeGRU",
            ModelId::TreeLstm => "TreeLSTM",
            ModelId::MvRnn => "MV-RNN",
            ModelId::TreeRnn => "TreeRNN",
            ModelId::SimpleTreeGru => "SimpleTreeGRU",
            ModelId::SeqLstm => "LSTM",
            ModelId::SeqGru => "GRU",
        }
    }

    /// The smaller/larger hidden sizes (hs, hl) of §7.1.
    pub fn hidden_sizes(self) -> (usize, usize) {
        match self {
            ModelId::MvRnn => (64, 128),
            _ => (256, 512),
        }
    }

    /// The hs hidden size under a scale.
    pub fn hs(self, scale: Scale) -> usize {
        scale.hidden(self.hidden_sizes().0)
    }

    /// Builds the model at hidden size `h`.
    ///
    /// Leaf initialization follows the paper's protocol: embeddings for
    /// the full models, zero (constant-propagated) when an experiment
    /// isolates the recursive portion — see [`ModelId::build_recursive_only`].
    pub fn build(self, h: usize) -> Model {
        match self {
            ModelId::TreeFc => treefc::tree_fc(h, LeafInit::Embedding),
            ModelId::DagRnn => dagrnn::dag_rnn(h),
            ModelId::TreeGru => treegru::tree_gru(h, LeafInit::Embedding),
            ModelId::TreeLstm => treelstm::tree_lstm(h, LeafInit::Embedding),
            ModelId::MvRnn => mvrnn::mv_rnn(h),
            ModelId::TreeRnn => treernn::tree_rnn(h, LeafInit::Embedding),
            ModelId::SimpleTreeGru => treegru::simple_tree_gru(h, LeafInit::Embedding),
            ModelId::SeqLstm => seq::seq_lstm(h),
            ModelId::SeqGru => seq::seq_gru(h),
        }
    }

    /// Builds the recursive-portion-only variant (zero leaves): the
    /// protocol of footnote 3 / Fig. 7 / Table 4.
    pub fn build_recursive_only(self, h: usize) -> Model {
        match self {
            ModelId::TreeFc => treefc::tree_fc(h, LeafInit::Zero),
            ModelId::TreeGru => treegru::tree_gru(h, LeafInit::Zero),
            ModelId::TreeLstm => treelstm::tree_lstm(h, LeafInit::Zero),
            ModelId::TreeRnn => treernn::tree_rnn(h, LeafInit::Zero),
            ModelId::SimpleTreeGru => treegru::simple_tree_gru(h, LeafInit::Zero),
            other => other.build(h),
        }
    }

    /// The Table 2 dataset for this model at the given batch size.
    pub fn dataset(self, batch_size: usize, seed: u64) -> RecStructure {
        match self {
            ModelId::TreeFc => {
                datasets::batch_of(|s| datasets::perfect_binary_tree(7, s), batch_size, seed)
            }
            ModelId::DagRnn => {
                datasets::batch_of(|s| datasets::grid_dag(10, 10, s), batch_size, seed)
            }
            ModelId::TreeGru
            | ModelId::TreeLstm
            | ModelId::MvRnn
            | ModelId::TreeRnn
            | ModelId::SimpleTreeGru => {
                let corpus = datasets::sentiment_treebank(batch_size, seed);
                let refs: Vec<&RecStructure> = corpus.iter().collect();
                RecStructure::merge(&refs)
            }
            ModelId::SeqLstm | ModelId::SeqGru => {
                datasets::batch_of(|s| datasets::sequence(100, s), batch_size, seed)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_datasets_have_documented_shapes() {
        let t = ModelId::TreeFc.dataset(1, 0);
        assert_eq!(t.num_nodes(), 255, "perfect binary tree of height 7");
        let d = ModelId::DagRnn.dataset(1, 0);
        assert_eq!(d.num_nodes(), 100, "10x10 grid");
        let s = ModelId::SeqLstm.dataset(1, 0);
        assert_eq!(s.num_nodes(), 100, "length-100 sequence");
        let b = ModelId::TreeLstm.dataset(10, 0);
        assert_eq!(b.roots().len(), 10, "batch of 10 sentences");
    }

    #[test]
    fn hidden_sizes_follow_paper() {
        assert_eq!(ModelId::TreeLstm.hidden_sizes(), (256, 512));
        assert_eq!(ModelId::MvRnn.hidden_sizes(), (64, 128));
        assert_eq!(ModelId::TreeLstm.hs(Scale::Smoke), 32);
    }

    #[test]
    fn all_models_build_at_small_hidden() {
        for id in MAIN_MODELS {
            let m = id.build(8);
            assert_eq!(m.name, id.name());
            assert!(m.graph.validate().is_ok());
        }
    }
}
