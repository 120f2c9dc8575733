//! Dense tensor substrate for the Cortex recursive-model compiler.
//!
//! The Cortex paper (MLSys 2021) extends a tensor compiler; this crate is the
//! from-scratch tensor layer that the rest of the reproduction builds on. It
//! provides:
//!
//! * [`Shape`] — tensor extents with row-major index arithmetic,
//! * [`Tensor`] — an owned dense `f32` tensor,
//! * [`kernels`] — the numeric kernels (gemm, elementwise)
//!   used both by Cortex-generated code and by the baseline frameworks'
//!   "vendor library" calls,
//! * [`simd`] — explicit AVX2/AVX-512 micro-kernels with runtime feature
//!   dispatch (and the always-correct scalar fallback) that the matrix
//!   kernels bottom out in,
//! * [`approx`] — rational approximations of `tanh`/`sigmoid` (App. A.5),
//! * [`par`] — the process-wide fork/join lane pool that large matrix
//!   products and row sweeps are spread over.
//!
//! # Example
//!
//! ```
//! use cortex_tensor::{Tensor, kernels};
//!
//! let w = Tensor::from_fn(&[2, 3], |ix| (ix[0] * 3 + ix[1]) as f32);
//! let x = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3, 1]).unwrap();
//! let y = kernels::gemm(&w, &x).unwrap();
//! assert_eq!(y.as_slice(), &[8.0, 26.0]);
//! ```

pub mod approx;
pub mod kernels;
pub mod par;
pub mod shape;
pub mod simd;
pub mod tensor;

pub use shape::Shape;
pub use tensor::{Tensor, TensorError};

/// Convenience result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, TensorError>;
