//! Randomized property tests for structures and the linearizer.
//!
//! These check the invariants §4.2 and Appendix B of the paper rely on:
//! the numbering scheme, batch consistency, and dependence preservation,
//! over randomly generated trees, forests, DAGs and sequences. Cases are
//! sampled with the workspace's deterministic [`cortex_rng::Rng`], so
//! failures are reproducible without an external framework.

use cortex_ds::datasets;
use cortex_ds::linearizer::{Linearizer, NO_CHILD};
use cortex_ds::RecStructure;
use cortex_rng::Rng;

const CASES: usize = 120;

/// Samples one of the five structure families.
fn any_structure(rng: &mut Rng) -> RecStructure {
    let seed = rng.next_u64();
    match rng.below_usize(5) {
        0 => datasets::perfect_binary_tree(rng.range_usize(1, 6) as u32, seed),
        1 => datasets::random_binary_tree(rng.range_usize(1, 40), seed),
        2 => datasets::grid_dag(rng.range_usize(1, 8), rng.range_usize(1, 8), seed),
        3 => datasets::sequence(rng.range_usize(1, 50), seed),
        _ => datasets::batch_of(
            |x| datasets::random_binary_tree(8, x),
            rng.range_usize(1, 5),
            seed,
        ),
    }
}

#[test]
fn linearizer_is_a_bijection() {
    let mut rng = Rng::new(0x21);
    for _ in 0..CASES {
        let s = any_structure(&mut rng);
        let lin = Linearizer::new().linearize(&s).unwrap();
        assert_eq!(lin.num_nodes(), s.num_nodes());
        let mut seen = vec![false; s.num_nodes()];
        for node in s.iter() {
            let new = lin.from_structure_id(node);
            assert!(!seen[new as usize]);
            seen[new as usize] = true;
        }
    }
}

#[test]
fn appendix_b_numbering_invariants() {
    let mut rng = Rng::new(0x22);
    for _ in 0..CASES {
        let s = any_structure(&mut rng);
        let lin = Linearizer::new().linearize(&s).unwrap();
        // (1) Children numbered higher than parents.
        for id in 0..lin.num_nodes() as u32 {
            for c in lin.children_of(id) {
                assert!(c > id);
            }
        }
        // (2) Leaves numbered after all internal nodes, so the one-compare
        // leaf check agrees with the memory-load leaf check everywhere.
        for id in 0..lin.num_nodes() as u32 {
            assert_eq!(lin.is_leaf(id), lin.num_children_of(id) == 0);
        }
        // (3) Batches partition the nodes.
        let covered: usize = lin.batches().iter().map(|b| b.len()).sum();
        assert_eq!(covered, lin.num_nodes());
    }
}

#[test]
fn batches_satisfy_dependences() {
    let mut rng = Rng::new(0x23);
    for _ in 0..CASES {
        let s = any_structure(&mut rng);
        let lin = Linearizer::new().linearize(&s).unwrap();
        let batches = lin.batches();
        let mut step_of = vec![usize::MAX; lin.num_nodes()];
        for (i, b) in batches.iter().enumerate() {
            for n in b.iter() {
                assert_eq!(step_of[n as usize], usize::MAX, "node in two batches");
                step_of[n as usize] = i;
            }
        }
        for id in 0..lin.num_nodes() as u32 {
            for c in lin.children_of(id) {
                assert!(step_of[c as usize] < step_of[id as usize]);
            }
        }
    }
}

#[test]
fn no_node_is_its_own_descendant() {
    let mut rng = Rng::new(0x24);
    for _ in 0..CASES / 2 {
        // Builder construction should make cycles impossible; verify by
        // walking down from every node.
        let s = any_structure(&mut rng);
        let lin = Linearizer::new().linearize(&s).unwrap();
        for start in 0..lin.num_nodes() as u32 {
            let mut frontier = vec![start];
            let mut steps = 0usize;
            while let Some(n) = frontier.pop() {
                steps += 1;
                assert!(
                    steps <= 10 * lin.num_nodes() * lin.num_nodes().max(4),
                    "walk too long"
                );
                for c in lin.children_of(n) {
                    assert!(c != start, "cycle through {start}");
                    frontier.push(c);
                }
            }
        }
    }
}

#[test]
fn child_slots_consistent() {
    let mut rng = Rng::new(0x25);
    for _ in 0..CASES {
        let s = any_structure(&mut rng);
        let lin = Linearizer::new().linearize(&s).unwrap();
        for id in 0..lin.num_nodes() as u32 {
            let n = lin.num_children_of(id);
            for slot in 0..lin.max_children() {
                let raw = lin.child_array(slot)[id as usize];
                if slot < n {
                    assert!(raw != NO_CHILD);
                    assert_eq!(lin.child(slot, id), Some(raw));
                } else {
                    assert_eq!(raw, NO_CHILD);
                    assert_eq!(lin.child(slot, id), None);
                }
            }
        }
    }
}

#[test]
fn post_order_is_complete_permutation() {
    let mut rng = Rng::new(0x26);
    for _ in 0..CASES {
        let s = any_structure(&mut rng);
        let lin = Linearizer::new().linearize(&s).unwrap();
        let mut order = lin.post_order().to_vec();
        order.sort_unstable();
        let expect: Vec<u32> = (0..lin.num_nodes() as u32).collect();
        assert_eq!(order, expect);
    }
}

#[test]
fn unrolled_schedule_is_complete_and_ordered() {
    let mut rng = Rng::new(0x27);
    for _ in 0..CASES {
        let n = rng.range_usize(2, 40);
        let seed = rng.next_u64();
        let depth = rng.range_usize(2, 5);
        let t = datasets::random_binary_tree(n, seed);
        let lin = Linearizer::new().linearize(&t).unwrap();
        let sched = lin.unrolled(depth).unwrap();
        // Dependence: internal children execute in a strictly earlier
        // global stage than their parents.
        let mut stage_of = std::collections::HashMap::new();
        let mut idx = 0usize;
        for w in &sched.super_waves {
            for stage in &w.stages {
                for &node in stage {
                    assert!(stage_of.insert(node, idx).is_none(), "{node} twice");
                }
                idx += 1;
            }
        }
        assert_eq!(stage_of.len(), lin.num_internal());
        for id in 0..lin.num_internal() as u32 {
            for c in lin.children_of(id) {
                if !lin.is_leaf(c) {
                    assert!(stage_of[&c] < stage_of[&id]);
                }
            }
        }
    }
}

#[test]
fn merge_preserves_node_and_leaf_counts() {
    let mut rng = Rng::new(0x28);
    for _ in 0..CASES {
        let k = rng.range_usize(1, 6);
        let n = rng.range_usize(1, 15);
        let seed = rng.next_u64();
        let parts: Vec<_> = (0..k)
            .map(|i| datasets::random_binary_tree(n, seed.wrapping_add(i as u64)))
            .collect();
        let refs: Vec<&RecStructure> = parts.iter().collect();
        let forest = RecStructure::merge(&refs);
        assert_eq!(
            forest.num_nodes(),
            parts.iter().map(|p| p.num_nodes()).sum::<usize>()
        );
        assert_eq!(
            forest.num_leaves(),
            parts.iter().map(|p| p.num_leaves()).sum::<usize>()
        );
        assert_eq!(forest.roots().len(), k);
    }
}
