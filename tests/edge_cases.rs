//! Degenerate and adversarial inputs: the compiler and runtime must handle
//! structures at the boundaries of the recursion (single leaves, chains,
//! zero internal batches) and expose the documented resource trade-offs.

use cortex::core::ra::RaSchedule;
use cortex::models::{reference, treegru, treelstm, treernn, verify, LeafInit};
use cortex::prelude::*;

#[test]
fn single_leaf_tree_has_no_internal_batches() {
    // A one-token sentence: the recursion body never runs.
    let mut b = StructureBuilder::new(StructureKind::Tree);
    b.leaf(42);
    let t = b.finish().unwrap();
    let lin = Linearizer::new().linearize(&t).unwrap();
    assert_eq!(lin.num_internal(), 0);
    assert!(lin.internal_batches().is_empty());

    let m = treernn::tree_rnn(8, LeafInit::Embedding);
    let want = reference::tree_rnn(&t, &m.params, 8, LeafInit::Embedding);
    verify::assert_matches(&m, &t, &RaSchedule::default(), &want, 1e-6);
}

#[test]
fn forest_of_single_leaves() {
    // Batch of one-token sentences: leaf batch only, 10 roots.
    let mut b = StructureBuilder::new(StructureKind::Tree);
    for w in 0..10 {
        b.leaf(w);
    }
    let f = b.finish().unwrap();
    assert_eq!(f.roots().len(), 10);
    let m = treelstm::tree_lstm(6, LeafInit::Embedding);
    let want = reference::tree_lstm(&f, &m.params, 6, LeafInit::Embedding);
    verify::assert_matches(&m, &f, &RaSchedule::default(), &want.h, 1e-6);
}

#[test]
fn very_deep_sequences_do_not_overflow() {
    // 2000 steps: iterative linearization and execution must survive
    // (recursive implementations would blow the stack).
    let s = cortex::ds::datasets::sequence(2000, 0);
    let m = cortex::models::seq::seq_gru(4);
    let want = reference::tree_gru(&s, &m.params, 4, LeafInit::Embedding, false);
    verify::assert_matches(&m, &s, &RaSchedule::default(), &want, 1e-3);
}

#[test]
fn maximally_skewed_tree() {
    // A left-spine "tree" — every wavefront has exactly one internal node,
    // the worst case for dynamic batching.
    let mut b = StructureBuilder::new(StructureKind::Tree);
    let mut acc = b.leaf(0);
    for w in 1..40 {
        let leaf = b.leaf(w);
        acc = b.internal(&[acc, leaf]).unwrap();
    }
    let t = b.finish().unwrap();
    let lin = Linearizer::new().linearize(&t).unwrap();
    assert!(lin.internal_batches().iter().all(|b| b.len() == 1));

    let m = treernn::tree_rnn(6, LeafInit::Embedding);
    let want = reference::tree_rnn(&t, &m.params, 6, LeafInit::Embedding);
    verify::assert_matches(&m, &t, &RaSchedule::default(), &want, 1e-4);
}

#[test]
fn dense_indexing_trades_global_for_scratch_traffic() {
    // Fig. 5's point, measured: with dense intermediate indexing the gate
    // tensors live in scratchpad (small, iteration-space sized); without
    // it they are node-indexed global tensors.
    let m = treegru::tree_gru(16, LeafInit::Zero);
    let corpus = cortex::ds::datasets::sentiment_treebank(6, 3);
    let refs: Vec<&RecStructure> = corpus.iter().collect();
    let f = RecStructure::merge(&refs);
    let gpu = DeviceSpec::v100();

    let (dense, _) = m.run(&f, &RaSchedule::default(), &gpu).unwrap();
    let (sparse, _) = m
        .run(
            &f,
            &RaSchedule {
                dense_intermediates: false,
                ..RaSchedule::default()
            },
            &gpu,
        )
        .unwrap();
    assert!(dense.profile.scratch_allocated_bytes > 0);
    assert_eq!(sparse.profile.scratch_allocated_bytes, 0);
    assert!(
        dense.profile.scratch_allocated_bytes
            < sparse.profile.allocated_bytes - dense.profile.allocated_bytes
                + dense.profile.scratch_allocated_bytes,
        "scratch must be smaller than the node-indexed globals it replaces"
    );
    assert!(sparse.profile.global_bytes_read > dense.profile.global_bytes_read);
}

#[test]
fn zero_leaf_treelstm_skips_leaf_kernel_entirely() {
    // §4.3 constant propagation at full pipeline scope: with zero leaf
    // states the program has no leaf kernel and fewer launches.
    let zero = treelstm::tree_lstm(8, LeafInit::Zero);
    let emb = treelstm::tree_lstm(8, LeafInit::Embedding);
    let corpus = cortex::ds::datasets::sentiment_treebank(4, 4);
    let refs: Vec<&RecStructure> = corpus.iter().collect();
    let f = RecStructure::merge(&refs);
    let gpu = DeviceSpec::v100();
    let (z, _) = zero.run(&f, &RaSchedule::default(), &gpu).unwrap();
    let (e, _) = emb.run(&f, &RaSchedule::default(), &gpu).unwrap();
    assert!(z.profile.launches < e.profile.launches);
}

#[test]
fn sequences_of_length_one_work() {
    let s = cortex::ds::datasets::sequence(1, 5);
    let m = cortex::models::seq::seq_gru(4);
    let want = reference::tree_gru(&s, &m.params, 4, LeafInit::Embedding, false);
    verify::assert_matches(&m, &s, &RaSchedule::default(), &want, 1e-6);
}

#[test]
fn constant_folding_agrees_with_the_runtime_bit_for_bit() {
    // `simplify(op(Const c))` must be the very value the engine computes
    // for `op(load)` of `c` — both evaluate the one shared definition —
    // over a sweep crossing every regime of the nonlinearities.
    use cortex::backend::exec::Engine;
    use cortex::core::expr::{UnaryOp, ValExpr};
    use cortex::core::simplify::simplify_val;
    let (h, leaves) = (8usize, 64usize);
    let vocab = cortex::ds::datasets::VOCAB_SIZE as usize;
    let mut table = vec![0.0f32; vocab * h];
    for (i, v) in table.iter_mut().take(leaves * h).enumerate() {
        *v = match i % 4 {
            0 => (i as f32 - 250.0) * 0.013,  // around the small-argument switch
            1 => (i as f32 - 250.0) * 0.41,   // out to the saturation thresholds
            2 => (i as f32 - 250.0) * 1.0e-3, // near zero
            _ => (i as f32 - 250.0) * 0.07,
        };
    }
    let mut params = Params::new();
    params.set("Emb", Tensor::from_vec(table.clone(), &[vocab, h]).unwrap());
    let mut b = StructureBuilder::new(StructureKind::Tree);
    for w in 0..leaves as u32 {
        b.leaf(w);
    }
    let forest = b.finish().unwrap();
    let lin = Linearizer::new().linearize(&forest).unwrap();

    for op in [UnaryOp::Tanh, UnaryOp::Sigmoid, UnaryOp::Exp] {
        let mut g = RaGraph::new();
        let emb = g.input("Emb", &[vocab, h]);
        let ph = g.placeholder("ph", &[h]);
        let leaf = g.compute("leaf", &[h], |c| {
            ValExpr::Unary(op, Box::new(c.read(emb, &[c.node().word(), c.axis(0)])))
        });
        let rec = g.compute("rec", &[h], |c| c.read(ph, &[c.node().child(0), c.axis(0)]));
        let body = g.if_then_else("body", leaf, rec).unwrap();
        let out = g.recursion(ph, body).unwrap();
        g.mark_output(out);
        let program = lower(
            &g,
            &RaSchedule::default(),
            StructureInfo { max_children: 2 },
        )
        .unwrap();
        let (outputs, _) = Engine::new(&program).execute(&lin, &params, true).unwrap();
        let got = outputs[&out.id()].as_slice();
        for node in forest.iter() {
            let row = lin.from_structure_id(node) as usize;
            for i in 0..h {
                let c = table[forest.word(node) as usize * h + i];
                let folded = simplify_val(&ValExpr::Unary(op, Box::new(ValExpr::Const(c))));
                let ValExpr::Const(want) = folded else {
                    panic!("{op:?}({c}) did not fold: {folded}");
                };
                assert_eq!(
                    got[row * h + i].to_bits(),
                    want.to_bits(),
                    "{op:?}({c:e}): engine {:e} vs folded {want:e}",
                    got[row * h + i]
                );
            }
        }
    }
}
