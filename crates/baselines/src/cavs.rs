//! Cavs-like execution: "think like a vertex" (Xu et al. 2018).
//!
//! Cavs separates the static vertex function (compiled once — its graph
//! has one vertex per *operator*, not per operator per node) from the
//! dynamic input structure, batching vertex executions level by level.
//! Compared to DyNet this removes the per-input graph-construction cost
//! and shrinks the batching problem to the data-structure graph; compared
//! to Cortex it still issues per-operator vendor calls (with partial
//! elementwise fusion — Table 1) and pays gather/scatter contiguity
//! copies, and it cannot specialize leaf checks (§7.2 notes the open
//! source version lacks specialization).

use cortex_backend::device::DeviceSpec;
use cortex_ds::linearizer::time_fastest;
use cortex_ds::{NodeId, RecStructure};
use cortex_models::Model;

use crate::cell::{CellKind, NodeState, WaveNode};
use crate::vendor::{MemoryMeter, VendorCtx};
use crate::FrameworkRun;

/// Runs `model` under the Cavs execution model.
///
/// # Panics
///
/// Panics if the model is not one of the known cells.
pub fn run(model: &Model, structure: &RecStructure, device: &DeviceSpec) -> FrameworkRun {
    let cell = CellKind::for_model(model)
        .unwrap_or_else(|| panic!("no Cavs cell for model {}", model.name));
    let h = model.hidden;
    // Training-capable: intermediates are kept (Fig. 12).
    let mut ctx = VendorCtx::new(MemoryMeter::training(), true);
    ctx.alloc(model.params.total_bytes());

    // --- Vertex-function "compilation": once, proportional to the cell's
    // operator count, not to the input size (measured).
    let (vertex_ops, compile_time) = time_fastest(|| {
        let vertex_ops: Vec<u16> =
            (0..cell.ops_per_internal(structure.max_children()) as u16).collect();
        std::hint::black_box(vertex_ops)
    });
    ctx.profile.graph_construction_time = compile_time;

    // --- Runtime batching over the *data-structure* graph (measured):
    // gather nodes into height levels, Cavs's scheduling unit.
    let (by_height, batching_time) = time_fastest(|| {
        let mut by_height: Vec<Vec<NodeId>> = Vec::new();
        for node in structure.iter() {
            let height = structure.height(node) as usize;
            if by_height.len() <= height {
                by_height.resize(height + 1, Vec::new());
            }
            by_height[height].push(node);
        }
        by_height
    });
    ctx.profile.dynamic_batching_time = batching_time;

    // --- Batched vertex execution, level by level.
    let mut states = vec![NodeState::default(); structure.num_nodes()];
    for (height, nodes) in by_height.iter().enumerate() {
        if nodes.is_empty() {
            continue;
        }
        // Per-level gather-list construction is runtime batching work
        // (measured), as in Cavs's scheduler.
        let (wave, gather_time) = time_fastest(|| WaveNode::from_structure(structure, nodes));
        ctx.profile.dynamic_batching_time += gather_time;
        let new_states = if height == 0 {
            cell.leaf_wave(&model.params, &wave, h, model.leaf, &mut ctx)
        } else {
            cell.internal_wave(&model.params, &wave, &states, h, &mut ctx)
                .0
        };
        for (st, &n) in new_states.into_iter().zip(nodes) {
            ctx.alloc(cell.state_bytes(h));
            states[n.index()] = st;
        }
    }
    let hidden = states.into_iter().map(|s| s.h).collect();
    FrameworkRun::finish(hidden, ctx.profile, device, vertex_ops.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dynet::{self, DynetOptions};
    use cortex_models::{reference, treefc, treegru, LeafInit};

    #[test]
    fn cavs_matches_reference() {
        let m = treefc::tree_fc(6, LeafInit::Embedding);
        let t = cortex_ds::datasets::perfect_binary_tree(4, 70);
        let want = reference::tree_fc(&t, &m.params, 6, LeafInit::Embedding);
        let r = run(&m, &t, &DeviceSpec::v100());
        for n in t.iter() {
            for (g, w) in r.hidden[n.index()].iter().zip(&want[n.index()]) {
                assert!((g - w).abs() < 1e-4, "{g} vs {w}");
            }
        }
    }

    #[test]
    fn cavs_launches_fewer_kernels_than_dynet() {
        // Partial fusion folds elementwise ops into the preceding
        // reduction call.
        let m = treegru::tree_gru(4, LeafInit::Embedding);
        let t = cortex_ds::datasets::random_binary_tree(20, 71);
        let cavs = run(&m, &t, &DeviceSpec::v100());
        let dy = dynet::run(&m, &t, &DeviceSpec::v100(), DynetOptions::default());
        assert!(
            cavs.profile.launches < dy.profile.launches,
            "{} vs {}",
            cavs.profile.launches,
            dy.profile.launches
        );
    }

    #[test]
    fn cavs_graph_construction_is_input_independent() {
        let m = treegru::tree_gru(4, LeafInit::Embedding);
        let small = cortex_ds::datasets::random_binary_tree(4, 72);
        let large = cortex_ds::datasets::random_binary_tree(50, 73);
        let a = run(&m, &small, &DeviceSpec::v100());
        let b = run(&m, &large, &DeviceSpec::v100());
        // Vertex compilation is O(ops): the graph Cavs builds has one
        // vertex per operator of the cell, whatever the input, where
        // DyNet's has one per operator per node. Counts, not the
        // stopwatch: both are exact and repeat on any machine.
        assert_eq!(a.graph_vertices, b.graph_vertices);
        assert!(a.graph_vertices > 0 && a.graph_vertices < 64);
        let dy = |t| dynet::run(&m, t, &DeviceSpec::v100(), DynetOptions::default()).graph_vertices;
        let (dy_small, dy_large) = (dy(&small), dy(&large));
        assert!(dy_small > a.graph_vertices);
        // 4 → 50 leaves is 7 → 99 nodes: the graph grows with them.
        assert!(dy_large > 10 * dy_small, "{dy_small} → {dy_large} vertices");
    }
}
