//! PyTorch-like eager execution: per-node, per-operator kernel calls.
//!
//! §7.2: *"PyTorch does not perform automatic dynamic batching or kernel
//! fusion. Due to the lack of batching, it cannot exploit parallelism
//! across data structure nodes"* — every vendor call here has wave width
//! 1, and kernel-call counts grow with the node count. Memory is freed
//! eagerly (PyTorch's allocator releases dead intermediates), which is why
//! PyTorch has the lowest footprint in Fig. 12.

use cortex_backend::device::DeviceSpec;
use cortex_ds::RecStructure;
use cortex_models::Model;

use crate::cell::{CellKind, NodeState, WaveNode};
use crate::vendor::{MemoryMeter, VendorCtx};
use crate::FrameworkRun;

/// Runs `model` eagerly over `structure` on the device model.
///
/// # Panics
///
/// Panics if the model is not one of the known cells.
pub fn run(model: &Model, structure: &RecStructure, device: &DeviceSpec) -> FrameworkRun {
    let cell = CellKind::for_model(model)
        .unwrap_or_else(|| panic!("no eager cell for model {}", model.name));
    let h = model.hidden;
    let mut ctx = VendorCtx::new(MemoryMeter::inference(), false);
    ctx.alloc(model.params.total_bytes());
    let mut states = vec![NodeState::default(); structure.num_nodes()];
    for node in structure.post_order() {
        let wave = WaveNode::from_structure(structure, &[node]);
        let new_state = if structure.is_leaf(node) {
            cell.leaf_wave(&model.params, &wave, h, model.leaf, &mut ctx)
                .pop()
                .expect("one state per node")
        } else {
            let (mut sts, intermediates) =
                cell.internal_wave(&model.params, &wave, &states, h, &mut ctx);
            ctx.free(intermediates);
            sts.pop().expect("one state per node")
        };
        ctx.alloc(cell.state_bytes(h));
        states[node.index()] = new_state;
    }
    let hidden = states.into_iter().map(|s| s.h).collect();
    FrameworkRun::finish(hidden, ctx.profile, device, 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cortex_models::{reference, treegru, treelstm, LeafInit};

    #[test]
    fn eager_matches_reference() {
        let m = treelstm::tree_lstm(6, LeafInit::Embedding);
        let t = cortex_ds::datasets::random_binary_tree(8, 50);
        let want = reference::tree_lstm(&t, &m.params, 6, LeafInit::Embedding);
        let run = run(&m, &t, &DeviceSpec::v100());
        for n in t.iter() {
            for (g, w) in run.hidden[n.index()].iter().zip(&want.h[n.index()]) {
                assert!((g - w).abs() < 1e-4, "{g} vs {w}");
            }
        }
    }

    #[test]
    fn launches_grow_with_nodes() {
        let m = treegru::tree_gru(4, LeafInit::Embedding);
        let small = cortex_ds::datasets::random_binary_tree(5, 51);
        let large = cortex_ds::datasets::random_binary_tree(25, 52);
        let a = run(&m, &small, &DeviceSpec::v100());
        let b = run(&m, &large, &DeviceSpec::v100());
        assert!(b.profile.launches > 3 * a.profile.launches);
    }

    #[test]
    fn waves_have_width_one() {
        let m = treegru::tree_gru(4, LeafInit::Embedding);
        let t = cortex_ds::datasets::random_binary_tree(10, 53);
        let r = run(&m, &t, &DeviceSpec::v100());
        assert!(r.profile.waves.iter().all(|w| w.width == 1));
    }

    #[test]
    fn no_graph_or_batching_overheads() {
        let m = treegru::tree_gru(4, LeafInit::Embedding);
        let t = cortex_ds::datasets::random_binary_tree(6, 54);
        let r = run(&m, &t, &DeviceSpec::v100());
        assert!(r.profile.graph_construction_time.is_zero());
        assert!(r.profile.dynamic_batching_time.is_zero());
    }
}
