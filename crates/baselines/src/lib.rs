//! Baseline dynamic-NN frameworks for the Cortex evaluation (§7.2).
//!
//! The paper compares Cortex against PyTorch, DyNet, Cavs and GRNN. None
//! of those can run here, so this crate rebuilds their *execution models*
//! from their published designs, computing the **same numerics with the
//! same vendor kernels** (`cortex_tensor::kernels`, standing in for
//! cuBLAS/MKL/OpenBLAS) while metering exactly what each framework's
//! runtime does:
//!
//! * [`eager`] — PyTorch-like: per-node, per-operator eager execution.
//!   No batching (wave width 1), no fusion, one kernel call per operator
//!   per node, parameters re-read by every call.
//! * [`dynet`] — DyNet-like: constructs a runtime dataflow graph with one
//!   vertex per operator per node (*measured* wall-clock), runs the
//!   depth-based on-the-fly batching algorithm of Neubig et al. 2017b
//!   (*measured*), and executes one vendor call per operator per batch
//!   with gather/scatter copies to make inputs contiguous (§7.2's "Mem.
//!   mgmt" overhead). Keeps all intermediates (training-capable), with an
//!   inference-mode variant that releases them when consumed (Fig. 12).
//! * [`cavs`] — Cavs-like: one vertex function compiled once ("think like
//!   a vertex"), batched level-by-level over the input structure, with
//!   elementwise operators partially fused into the preceding reduction
//!   call (Table 1's "Partial" fusion) but still vendor calls + contiguity
//!   copies.
//! * [`grnn`] — GRNN-like: a hand-written persistent kernel for
//!   *sequential* LSTM/GRU only (Fig. 9): one launch, parameters pinned
//!   on-chip, one global barrier per step (lock-free or lock-based).
//!
//! Every framework's outputs are asserted equal to the pure-Rust
//! reference implementations (and hence to Cortex's compiled outputs),
//! so all latency differences come from the metered execution structure,
//! not from computing different things.

pub mod cavs;
pub mod cell;
pub mod dynet;
pub mod eager;
pub mod grnn;
pub mod vendor;

use cortex_backend::device::{DeviceSpec, LatencyEstimate};
use cortex_backend::profile::Profile;

/// The result of running a baseline framework.
#[derive(Debug, Clone)]
pub struct FrameworkRun {
    /// Hidden-state vectors per structure node (builder order).
    pub hidden: Vec<Vec<f32>>,
    /// Metered execution counters.
    pub profile: Profile,
    /// Device-model latency.
    pub latency: LatencyEstimate,
    /// Vertices of the dataflow graph the framework built for this run —
    /// the deterministic size of what `graph_construction_time` times:
    /// one per operator per node for DyNet, one per operator of the
    /// vertex function for Cavs, none for the frameworks that build no
    /// graph.
    pub graph_vertices: usize,
}

impl FrameworkRun {
    pub(crate) fn finish(
        hidden: Vec<Vec<f32>>,
        profile: Profile,
        device: &DeviceSpec,
        graph_vertices: usize,
    ) -> Self {
        let latency = device.latency(&profile);
        FrameworkRun {
            hidden,
            profile,
            latency,
            graph_vertices,
        }
    }
}
