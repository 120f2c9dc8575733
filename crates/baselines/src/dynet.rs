//! DyNet-like execution: runtime dataflow-graph construction + on-the-fly
//! dynamic batching over the *operator* graph (Neubig et al. 2017b).
//!
//! DyNet's runtime, unlike Cavs and Cortex, works on a graph with one
//! vertex per tensor operator per data-structure node — "a much larger
//! graph" (§7.2, Table 6). Both the graph construction and the
//! signature/depth-based batching pass are executed for real here and
//! timed with wall clocks (each at its fastest of five runs, see
//! [`time_fastest`]); execution
//! then issues one vendor call per operator batch with gather/scatter
//! contiguity copies.

use cortex_backend::device::DeviceSpec;
use cortex_ds::linearizer::time_fastest;
use cortex_ds::{NodeId, RecStructure};
use cortex_models::Model;

use crate::cell::{CellKind, NodeState, WaveNode};
use crate::vendor::{MemoryMeter, VendorCtx};
use crate::FrameworkRun;

/// DyNet execution options.
#[derive(Debug, Clone, Copy, Default)]
pub struct DynetOptions {
    /// Simulate the inference-mode variant of Fig. 12 that releases
    /// intermediate tensors once consumed (stock DyNet keeps everything
    /// for backprop).
    pub inference_mode: bool,
}

/// One vertex of the runtime op graph.
#[derive(Debug, Clone, Copy)]
struct OpVertex {
    /// Operator signature (which op of the cell).
    sig: u16,
    /// Dependency depth (drives the batching agenda).
    depth: u32,
    /// Which structure node this op instance belongs to.
    node: u32,
}

/// Runs `model` under the DyNet execution model.
///
/// # Panics
///
/// Panics if the model is not one of the known cells.
pub fn run(
    model: &Model,
    structure: &RecStructure,
    device: &DeviceSpec,
    opts: DynetOptions,
) -> FrameworkRun {
    let cell = CellKind::for_model(model)
        .unwrap_or_else(|| panic!("no DyNet cell for model {}", model.name));
    let h = model.hidden;
    let meter = if opts.inference_mode {
        MemoryMeter::inference()
    } else {
        MemoryMeter::training()
    };
    let mut ctx = VendorCtx::new(meter, false);
    ctx.alloc(model.params.total_bytes());

    // --- 1. Runtime graph construction (measured). -------------------
    let ops_per_internal = cell.ops_per_internal(structure.max_children()) as u16;
    let (graph, graph_time) = time_fastest(|| {
        let mut graph: Vec<OpVertex> = Vec::new();
        for node in structure.iter() {
            let height = structure.height(node);
            let n_ops = if structure.is_leaf(node) {
                1
            } else {
                ops_per_internal
            };
            for sig in 0..n_ops {
                graph.push(OpVertex {
                    sig,
                    depth: height * ops_per_internal as u32 + sig as u32,
                    node: node.index() as u32,
                });
            }
        }
        graph
    });
    ctx.profile.graph_construction_time = graph_time;

    // --- 2. On-the-fly batching over the op graph (measured). --------
    // The published algorithm batches ops with identical signatures at
    // compatible depths; for uniform recursive cells this groups each
    // operator across all nodes of one structure level.
    let (groups, batching_time) = time_fastest(|| {
        let mut order: Vec<usize> = (0..graph.len()).collect();
        order.sort_by_key(|&i| (graph[i].depth, graph[i].sig));
        let mut groups: Vec<(u16, Vec<u32>)> = Vec::new();
        for &i in &order {
            let v = graph[i];
            match groups.last_mut() {
                Some((sig, nodes))
                    if *sig == v.sig
                        && graph[order[0]].depth <= v.depth // same agenda round
                        && nodes.last() != Some(&v.node) =>
                {
                    nodes.push(v.node);
                }
                _ => groups.push((v.sig, vec![v.node])),
            }
        }
        groups
    });
    ctx.profile.dynamic_batching_time = batching_time;
    // `groups` is what the agenda would execute; our cell functions issue
    // the identical per-op batched calls level by level below, so the
    // group list is used only for its (measured) construction cost.
    drop(groups);

    // --- 3. Batched execution, one level at a time. -------------------
    let mut by_height: Vec<Vec<NodeId>> = Vec::new();
    for node in structure.iter() {
        let height = structure.height(node) as usize;
        if by_height.len() <= height {
            by_height.resize(height + 1, Vec::new());
        }
        by_height[height].push(node);
    }
    let mut states = vec![NodeState::default(); structure.num_nodes()];
    for (height, nodes) in by_height.iter().enumerate() {
        if nodes.is_empty() {
            continue;
        }
        // Building the per-batch gather lists is part of the runtime
        // batching work (measured).
        let (wave, gather_time) = time_fastest(|| WaveNode::from_structure(structure, nodes));
        ctx.profile.dynamic_batching_time += gather_time;
        let new_states = if height == 0 {
            cell.leaf_wave(&model.params, &wave, h, model.leaf, &mut ctx)
        } else {
            let (sts, intermediates) =
                cell.internal_wave(&model.params, &wave, &states, h, &mut ctx);
            if opts.inference_mode {
                ctx.free(intermediates);
            }
            sts
        };
        for (st, &n) in new_states.into_iter().zip(nodes) {
            ctx.alloc(cell.state_bytes(h));
            states[n.index()] = st;
        }
    }
    let hidden = states.into_iter().map(|s| s.h).collect();
    FrameworkRun::finish(hidden, ctx.profile, device, graph.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cortex_models::{reference, treegru, treelstm, LeafInit};

    #[test]
    fn dynet_matches_reference() {
        let m = treegru::tree_gru(6, LeafInit::Embedding);
        let t = cortex_ds::datasets::random_binary_tree(12, 60);
        let want = reference::tree_gru(&t, &m.params, 6, LeafInit::Embedding, false);
        let r = run(&m, &t, &DeviceSpec::v100(), DynetOptions::default());
        for n in t.iter() {
            for (g, w) in r.hidden[n.index()].iter().zip(&want[n.index()]) {
                assert!((g - w).abs() < 1e-4, "{g} vs {w}");
            }
        }
    }

    #[test]
    fn batching_widens_waves_vs_eager() {
        let m = treelstm::tree_lstm(4, LeafInit::Zero);
        let f = cortex_ds::datasets::batch_of(
            |s| cortex_ds::datasets::random_binary_tree(10, s),
            8,
            61,
        );
        let dy = run(&m, &f, &DeviceSpec::v100(), DynetOptions::default());
        let eager = crate::eager::run(&m, &f, &DeviceSpec::v100());
        assert!(dy.profile.launches < eager.profile.launches / 2);
        assert!(dy.profile.waves.iter().any(|w| w.width > 4));
    }

    #[test]
    fn graph_and_batching_overheads_are_measured() {
        let m = treelstm::tree_lstm(4, LeafInit::Zero);
        let t = cortex_ds::datasets::random_binary_tree(40, 62);
        let r = run(&m, &t, &DeviceSpec::v100(), DynetOptions::default());
        // What the two stopwatches time, as exact counts: one vertex per
        // leaf and one per operator of every internal node.
        let ops = CellKind::for_model(&m)
            .expect("known cell")
            .ops_per_internal(t.max_children());
        let internal = t.iter().filter(|n| !t.is_leaf(*n)).count();
        assert_eq!(internal, 39);
        assert_eq!(r.graph_vertices, 40 + internal * ops);
        assert!(
            r.profile.memcpy_bytes > 0,
            "contiguity copies must be counted"
        );
    }

    #[test]
    fn inference_mode_reduces_peak_memory() {
        let m = treelstm::tree_lstm(8, LeafInit::Zero);
        let t = cortex_ds::datasets::random_binary_tree(30, 63);
        let training = run(&m, &t, &DeviceSpec::v100(), DynetOptions::default());
        let inference = run(
            &m,
            &t,
            &DeviceSpec::v100(),
            DynetOptions {
                inference_mode: true,
            },
        );
        assert!(inference.profile.allocated_bytes < training.profile.allocated_bytes);
    }
}
