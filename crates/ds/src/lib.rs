//! Recursive data structures and the data-structure linearizer for Cortex.
//!
//! Recursive deep learning models traverse pointer-linked structures —
//! sequences, trees and DAGs — while performing tensor computation at every
//! node. Cortex (MLSys 2021) observes that when all control flow depends
//! only on the *connectivity* of the structure (property P.1 in the paper),
//! the structure can be *linearized* to flat arrays on the host CPU before
//! any tensor computation runs, enabling loop-based generated code.
//!
//! This crate provides:
//!
//! * [`RecStructure`] — validated pointer-linked recursive structures
//!   (sequences, trees/forests, DAGs) built through [`StructureBuilder`],
//! * [`datasets`] — the workload generators used by the paper's evaluation
//!   (perfect binary trees, a synthetic Stanford-Sentiment-Treebank stand-in,
//!   grid DAGs for DAG-RNN, plain sequences),
//! * [`linearizer`] — the runtime component of Fig. 2: dynamic batching into
//!   height wavefronts, leaf/internal specialization partitions, the
//!   Appendix-B node numbering scheme (consecutive batches, leaves numbered
//!   after all internal nodes), and unrolled schedules for the recursion
//!   unrolling primitive.
//!
//! # Example
//!
//! ```
//! use cortex_ds::{StructureBuilder, StructureKind};
//! use cortex_ds::linearizer::Linearizer;
//!
//! // The parse tree of Fig. 1: ((It is) ((a dog) .))
//! let mut b = StructureBuilder::new(StructureKind::Tree);
//! let it = b.leaf(10);
//! let is = b.leaf(11);
//! let a = b.leaf(12);
//! let dog = b.leaf(13);
//! let dot = b.leaf(14);
//! let l = b.internal(&[it, is]).unwrap();
//! let ad = b.internal(&[a, dog]).unwrap();
//! let r = b.internal(&[ad, dot]).unwrap();
//! let _root = b.internal(&[l, r]).unwrap();
//! let tree = b.finish().unwrap();
//!
//! let lin = Linearizer::new().linearize(&tree).unwrap();
//! assert_eq!(lin.num_nodes(), 9);
//! assert_eq!(lin.leaf_batch().len(), 5);
//! assert_eq!(lin.internal_batches().len(), 3); // heights 1, 2, 3
//! ```

pub mod datasets;
pub mod linearizer;
pub mod node;
pub mod structure;

pub use node::NodeId;
pub use structure::{RecStructure, StructureBuilder, StructureError, StructureKind};
