//! # Cortex — a compiler for recursive deep learning models
//!
//! A from-scratch Rust reproduction of *"Cortex: A Compiler for Recursive
//! Deep Learning Models"* (Fegade, Chen, Gibbons, Mowry — MLSys 2021).
//!
//! Cortex takes a recursive model computation (TreeLSTM, TreeGRU, MV-RNN,
//! DAG-RNN, …) expressed in a **Recursive API**, lowers the recursion to
//! loop-based iterative code over *linearized* data structures, and
//! applies end-to-end optimizations — dynamic batching, specialization,
//! kernel fusion, computation hoisting, model persistence, unrolling and
//! recursive refactoring — that per-operator frameworks built on vendor
//! libraries cannot perform.
//!
//! This crate re-exports the whole workspace:
//!
//! | Module | Crate | Contents |
//! | --- | --- | --- |
//! | [`tensor`] | `cortex-tensor` | dense tensors, kernels, the lane pool |
//! | [`ds`] | `cortex-ds` | recursive structures, datasets, the linearizer |
//! | [`core`] | `cortex-core` | the RA, the ILIR, lowering and passes |
//! | [`backend`] | `cortex-backend` | executor, device models, profiling |
//! | [`models`] | `cortex-models` | the paper's models + references |
//! | [`baselines`] | `cortex-baselines` | PyTorch/DyNet/Cavs/GRNN execution models |
//!
//! # Quickstart
//!
//! Run the Fig. 1 model on a parse tree (see `examples/quickstart.rs` for
//! the narrated version):
//!
//! ```
//! use cortex::prelude::*;
//!
//! // 1. Express the model in the Recursive API (Listing 1).
//! let h = 16;
//! let mut g = RaGraph::new();
//! let emb = g.input("Emb", &[cortex::ds::datasets::VOCAB_SIZE as usize, h]);
//! let ph = g.placeholder("rnn_ph", &[h]);
//! let leaf = g.compute("leaf", &[h], |c| c.read(emb, &[c.node().word(), c.axis(0)]));
//! let lh = g.compute("lh", &[h], |c| c.read(ph, &[c.node().child(0), c.axis(0)]));
//! let rh = g.compute("rh", &[h], |c| c.read(ph, &[c.node().child(1), c.axis(0)]));
//! let rec = g.compute("rec", &[h], |c| {
//!     c.read(lh, &[c.node(), c.axis(0)]).add(c.read(rh, &[c.node(), c.axis(0)])).tanh()
//! });
//! let body = g.if_then_else("body", leaf, rec)?;
//! let rnn = g.recursion(ph, body)?;
//! g.mark_output(rnn);
//!
//! // 2. Lower with the default schedule (dynamic batching +
//! //    specialization + maximal fusion + persistence).
//! let program = lower(&g, &RaSchedule::default(), StructureInfo { max_children: 2 })?;
//!
//! // 3. Linearize an input tree and execute.
//! let tree = cortex::ds::datasets::random_binary_tree(19, 7);
//! let lin = Linearizer::new().linearize(&tree)?;
//! let mut params = Params::new();
//! params.set("Emb", Tensor::random(&[cortex::ds::datasets::VOCAB_SIZE as usize, h], 0.5, 1));
//! let result = cortex::backend::exec::run(&program, &lin, &params, &DeviceSpec::v100())?;
//!
//! assert_eq!(result.outputs[&rnn.id()].shape().dims(), &[tree.num_nodes(), h]);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub use cortex_backend as backend;
pub use cortex_baselines as baselines;
pub use cortex_core as core;
pub use cortex_ds as ds;
pub use cortex_models as models;
pub use cortex_serve as serve;
pub use cortex_tensor as tensor;

/// The most commonly used items, for glob import.
pub mod prelude {
    pub use cortex_backend::device::DeviceSpec;
    pub use cortex_backend::params::Params;
    pub use cortex_core::lower::{lower, StructureInfo};
    pub use cortex_core::ra::{RaGraph, RaSchedule};
    pub use cortex_ds::linearizer::Linearizer;
    pub use cortex_ds::{RecStructure, StructureBuilder, StructureKind};
    pub use cortex_models::{LeafInit, Model};
    pub use cortex_tensor::Tensor;
}

#[cfg(test)]
mod tests {
    #[test]
    fn prelude_exposes_the_pipeline() {
        use crate::prelude::*;
        let s = RaSchedule::default();
        assert!(s.dynamic_batch);
        let d = DeviceSpec::v100();
        assert!(d.is_gpu);
    }
}
