//! GRNN-like hand-optimized persistent RNN kernels (Holmes et al. 2019),
//! for the Fig. 9 comparison on *sequential* LSTM/GRU.
//!
//! GRNN runs the whole sequence in a single persistent kernel: weights
//! live in registers, each step reads the previous hidden state from
//! shared memory, and steps are separated by a device-wide barrier —
//! lock-free (Xiao & Feng 2010) in stock GRNN; the paper also measures a
//! lock-based variant for a fair comparison with Cortex (which uses the
//! lock-based one). The LSTM needs one barrier per step; the unrefactored
//! GRU's chained reductions need two, which GRNN's refactoring reduces to
//! match the LSTM.

use cortex_backend::device::DeviceSpec;
use cortex_backend::profile::{Profile, WaveStat};
use cortex_ds::{RecStructure, StructureKind};
use cortex_models::{reference, LeafInit, Model};

use crate::FrameworkRun;

/// Runs the persistent GRNN-style kernel for a sequential LSTM or GRU.
///
/// Pass [`DeviceSpec::v100`] for the lock-based barrier variant or
/// [`DeviceSpec::v100_lockfree_barrier`] for stock GRNN.
///
/// # Panics
///
/// Panics if `model` is not the sequential `"LSTM"`/`"GRU"` or the
/// structure is not a (batch of) sequence(s).
pub fn run(model: &Model, structure: &RecStructure, device: &DeviceSpec) -> FrameworkRun {
    assert_eq!(
        structure.kind(),
        StructureKind::Sequence,
        "GRNN persistent kernels only support sequences"
    );
    let h = model.hidden as u64;
    let batch = structure.roots().len() as u64;
    let steps = structure.max_height() as u64; // internal steps per sequence
    let (hidden, gates, barriers_per_step): (Vec<Vec<f32>>, u64, u64) = match model.name.as_str() {
        "LSTM" => {
            let r =
                reference::tree_lstm(structure, &model.params, model.hidden, LeafInit::Embedding);
            (r.h, 4, 1)
        }
        // GRNN applies its refactoring to the GRU, bringing it to one
        // barrier per step like the LSTM.
        "GRU" => {
            let r = reference::tree_gru(
                structure,
                &model.params,
                model.hidden,
                LeafInit::Embedding,
                false,
            );
            (r, 3, 1)
        }
        other => panic!("GRNN has hand-optimized kernels only for LSTM/GRU, not {other}"),
    };

    let mut profile = Profile::new();
    profile.launches = 1; // the persistent kernel
    profile.host_api_calls = 1;
    profile.barriers_global = steps * barriers_per_step;
    // Weights persist on-chip: read exactly once.
    profile.param_bytes_read = gates * h * h * 4 + gates * h * 4;
    // Per step and sequence: read previous state, write new state.
    let state_words = if model.name == "LSTM" { 2 * h } else { h };
    profile.global_bytes_read = steps * batch * state_words * 4;
    profile.global_bytes_written = (steps + 1) * batch * state_words * 4;
    let flops_per_step = batch * gates * 2 * h * h;
    profile.flops = steps * flops_per_step;
    let bytes_per_step = 2 * batch * state_words * 4; // read prev, write new
    profile.waves = (0..steps)
        .map(|_| WaveStat {
            flops: flops_per_step,
            width: batch,
            bytes: bytes_per_step,
        })
        .collect();
    profile.allocated_bytes = model.params.total_bytes() + (steps + 1) * batch * state_words * 4;

    FrameworkRun::finish(hidden, profile, device, 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cortex_ds::datasets;
    use cortex_models::seq;

    #[test]
    fn grnn_lstm_outputs_match_reference() {
        let m = seq::seq_lstm(6);
        let s = datasets::sequence(20, 80);
        let r = run(&m, &s, &DeviceSpec::v100_lockfree_barrier());
        let want = reference::tree_lstm(&s, &m.params, 6, LeafInit::Embedding);
        assert_eq!(r.hidden, want.h);
        assert_eq!(r.profile.launches, 1);
    }

    #[test]
    fn lock_free_barrier_is_faster() {
        let m = seq::seq_gru(8);
        let s = datasets::batch_of(|x| datasets::sequence(100, x), 10, 81);
        let free = run(&m, &s, &DeviceSpec::v100_lockfree_barrier());
        let locked = run(&m, &s, &DeviceSpec::v100());
        assert!(free.latency.total_s < locked.latency.total_s);
        assert_eq!(free.profile.barriers_global, 99);
    }

    #[test]
    fn rejects_trees() {
        let m = seq::seq_lstm(4);
        let t = datasets::random_binary_tree(5, 82);
        assert!(std::panic::catch_unwind(|| run(&m, &t, &DeviceSpec::v100())).is_err());
    }
}
