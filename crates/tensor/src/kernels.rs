//! Numeric kernels: matrix products and elementwise operators.
//!
//! These kernels play two roles in the reproduction:
//!
//! 1. They are the *vendor library* that the baseline frameworks (PyTorch-,
//!    DyNet- and Cavs-like) call as black boxes, one call per operator.
//! 2. They are the native inner loops that Cortex-generated fused kernels
//!    bottom out in (standing in for the LLVM/CUDA code TVM would emit) —
//!    in particular the batched wavefront executor runs one
//!    [`gemm_packed_into`] per stacking group per wave.
//!
//! Every matrix product is **one register-tiled kernel**
//! ([`crate::simd::gemm_panels`]) over weights repacked once into
//! k-major column panels ([`PackedB`]): `C[i,j] = Σ_k A[i,k]·B[j,k]`
//! where a k-step loads a panel's two vectors and feeds them one scalar
//! broadcast of `A[i,k]` per row — no horizontal sums, and every output
//! element is a single k-sequential chain whatever the tile shape (the
//! numerics paragraph of [`crate::simd`]). [`gemm_packed_into`] is the
//! entry for a weight that outlives the call; [`gemm_nt_into`] and
//! [`gemm`] pack their `B` and call it. [`dot`] and [`axpy`] dispatch to explicit AVX2/FMA or
//! AVX-512 kernels when the CPU supports them, with a scalar loop as the
//! always-correct fallback. There is **no** zero-skipping: a branch on
//! `a == 0.0` both blocks vectorization and silently changes IEEE
//! semantics (`0 · ∞` must be `NaN`, not skipped) — see
//! `gemm_propagates_nan_and_inf`.
//!
//! A product of at least `simd::GEMM_FORK_MIN_WORK` (2¹⁸) multiply-adds is
//! split by weight-panel ranges across the lanes of [`crate::par`]; an
//! element's chain does not depend on the lane that runs it, so results
//! are identical on any number of lanes.

use crate::simd::{self, Level};
use crate::tensor::{Tensor, TensorError};

/// A `B` operand repacked for the tile kernel: `n` columns of `k`
/// elements each in k-major panels of [`simd::panel_width`] columns,
/// the last panel zero-padded (see [`simd::gemm_panels`] for the
/// layout). The pack remembers the level it was laid out for, so a
/// product can never read it at another width.
#[derive(Debug, Clone)]
pub struct PackedB {
    level: Level,
    n: usize,
    k: usize,
    data: Vec<f32>,
}

impl PackedB {
    /// Packs `n` columns at the detected level. Each item of `columns`
    /// is one column, in order: the slice holding it from its first
    /// element on, and the stride (≥ 1) between its consecutive `k`
    /// elements.
    pub fn pack<'a>(
        n: usize,
        k: usize,
        columns: impl IntoIterator<Item = (&'a [f32], usize)>,
    ) -> Self {
        Self::pack_with(simd::level(), n, k, columns)
    }

    /// [`PackedB::pack`] at an explicit level (an unsupported one packs
    /// for the scalar kernel).
    ///
    /// # Panics
    ///
    /// Panics if `columns` yields fewer than `n` items or a column slice
    /// is shorter than `(k - 1)·stride + 1`.
    pub fn pack_with<'a>(
        level: Level,
        n: usize,
        k: usize,
        columns: impl IntoIterator<Item = (&'a [f32], usize)>,
    ) -> Self {
        let w = simd::panel_width(level);
        let mut data = vec![0.0f32; Self::padded_len(level, n, k)];
        if k > 0 {
            let mut columns = columns.into_iter();
            for j in 0..n {
                let (src, stride) = columns.next().expect("pack: a column per output column");
                let src = &src[..(k - 1) * stride + 1];
                let dsts = data[(j / w * k) * w + j % w..].iter_mut().step_by(w);
                if stride == 1 {
                    dsts.zip(src).for_each(|(dst, v)| *dst = *v);
                } else {
                    dsts.zip(src.iter().step_by(stride))
                        .for_each(|(dst, v)| *dst = *v);
                }
            }
        }
        PackedB { level, n, k, data }
    }

    /// Packs a row-major `[n][k]` matrix (the NT layout: `B`'s rows are
    /// the product's columns).
    pub fn pack_nt(b: &[f32], n: usize, k: usize) -> Self {
        Self::pack(n, k, (0..n).map(|j| (&b[j * k..], 1)))
    }

    /// Repacks `self`, at the detected level and in its own allocation,
    /// from the row-major `[k][n]` matrix (the NN layout) whose row `kk`
    /// starts at `b[kk·ld]`: each panel row is a plain slice of a `B`
    /// row. A recycled pack allocates only to grow.
    ///
    /// # Panics
    ///
    /// Panics if `b` is shorter than `(k - 1)·ld + n`.
    pub fn pack_nn_into(&mut self, b: &[f32], ld: usize, n: usize, k: usize) {
        self.level = simd::level();
        (self.n, self.k) = (n, k);
        let w = simd::panel_width(self.level);
        self.data.clear();
        self.data.resize(Self::padded_len(self.level, n, k), 0.0);
        for (p, panel) in self.data.chunks_exact_mut((w * k).max(1)).enumerate() {
            let jb = w.min(n - p * w);
            for (kk, row) in panel.chunks_exact_mut(w).enumerate() {
                row[..jb].copy_from_slice(&b[kk * ld + p * w..][..jb]);
            }
        }
    }

    /// Floats a pack of `n` columns × `k` holds at `level`, padding
    /// included.
    pub fn padded_len(level: Level, n: usize, k: usize) -> usize {
        let w = simd::panel_width(level);
        n.div_ceil(w) * w * k
    }

    /// Output columns and reduction extent, `(n, k)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.n, self.k)
    }
}

/// An empty pack (no columns), ready to be repacked.
impl Default for PackedB {
    fn default() -> Self {
        PackedB {
            level: simd::level(),
            n: 0,
            k: 0,
            data: Vec::new(),
        }
    }
}

/// The packed product: `c[i·n + j] = Σ_k a[i·k + k']·B[j][k']` for `m`
/// rows of `a` against the `n = b.shape().0` columns of `b`. Returns whether
/// the launch was split across lanes (see [`simd::gemm_panels`]); every
/// element is the same k-sequential chain either way.
///
/// # Panics
///
/// Panics if `a` or `c` is shorter than `m` rows.
pub fn gemm_packed_into(c: &mut [f32], a: &[f32], b: &PackedB, m: usize) -> bool {
    simd::gemm_panels(b.level, c, a, &b.data, m, b.n, b.k)
}

/// Dense matrix–matrix product: `C[m,n] = sum_k A[m,k] * B[k,n]`.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] unless `a` is `[M,K]`, `b` is
/// `[K,N]`.
pub fn gemm(a: &Tensor, b: &Tensor) -> crate::Result<Tensor> {
    if a.rank() != 2 || b.rank() != 2 || a.shape().dim(1) != b.shape().dim(0) {
        return Err(TensorError::ShapeMismatch {
            expected: "[M,K] x [K,N]".to_string(),
            found: format!("{} x {}", a.shape(), b.shape()),
        });
    }
    let (m, k) = (a.shape().dim(0), a.shape().dim(1));
    let n = b.shape().dim(1);
    let mut c = Tensor::zeros(&[m, n]);
    if m > 0 && n > 0 {
        let mut packed = PackedB::default();
        packed.pack_nn_into(b.as_slice(), n, n, k);
        gemm_packed_into(c.as_mut_slice(), a.as_slice(), &packed, m);
    }
    Ok(c)
}

/// Slice-level NT product: `c[i·n+j] = Σ_k a[i·k+k']·b[j·k+k']`, with
/// `a` `[m][k]` and `b` `[n][k]` row-major ([`PackedB::pack_nt`], then
/// [`gemm_packed_into`]). A caller that reuses `b` should pack it once
/// and call the packed entry: this convenience repacks on every call.
///
/// # Panics
///
/// Panics if the slices are shorter than the shapes imply.
pub fn gemm_nt_into(c: &mut [f32], a: &[f32], b: &[f32], m: usize, n: usize, k: usize) {
    if m > 0 && n > 0 {
        gemm_packed_into(c, a, &PackedB::pack_nt(b, n, k), m);
    }
}

/// Dot product of two equal-length slices, dispatched to the widest
/// available SIMD level ([`crate::simd::dot`]).
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    crate::simd::dot(a, b)
}

/// `y += x` over slices, dispatched to the widest available SIMD level
/// ([`crate::simd::axpy`]).
///
/// # Panics
///
/// Panics if lengths differ.
#[inline]
pub fn axpy(y: &mut [f32], x: &[f32]) {
    crate::simd::axpy(y, x);
}

/// Elementwise addition.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if shapes differ.
pub fn add(a: &Tensor, b: &Tensor) -> crate::Result<Tensor> {
    a.zip(b, |x, y| x + y)
}

/// Elementwise multiplication (Hadamard product).
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if shapes differ.
pub fn mul(a: &Tensor, b: &Tensor) -> crate::Result<Tensor> {
    a.zip(b, |x, y| x * y)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_gemm(a: &Tensor, b: &Tensor) -> Tensor {
        let (m, k) = (a.shape().dim(0), a.shape().dim(1));
        let n = b.shape().dim(1);
        Tensor::from_fn(&[m, n], |ix| {
            (0..k).map(|kk| a[[ix[0], kk]] * b[[kk, ix[1]]]).sum()
        })
    }

    fn transpose(a: &Tensor) -> Tensor {
        let (m, n) = (a.shape().dim(0), a.shape().dim(1));
        Tensor::from_fn(&[n, m], |ix| a[[ix[1], ix[0]]])
    }

    /// `a · btᵀ` through the slice-level NT entry.
    fn gemm_nt(a: &Tensor, bt: &Tensor) -> Tensor {
        let (m, k, n) = (a.shape().dim(0), a.shape().dim(1), bt.shape().dim(0));
        let mut c = Tensor::zeros(&[m, n]);
        gemm_nt_into(c.as_mut_slice(), a.as_slice(), bt.as_slice(), m, n, k);
        c
    }

    #[test]
    fn gemm_matches_naive_on_odd_sizes() {
        // Sizes straddle the panel boundaries on purpose.
        for &(m, k, n) in &[
            (1, 1, 1),
            (3, 5, 7),
            (33, 31, 65),
            (64, 64, 64),
            (5, 1030, 3),
            (2, 17, 9),
        ] {
            let a = Tensor::random(&[m, k], 1.0, 1);
            let b = Tensor::random(&[k, n], 1.0, 2);
            let fast = gemm(&a, &b).unwrap();
            let slow = naive_gemm(&a, &b);
            assert!(fast.all_close(&slow, 1e-3), "mismatch at ({m},{k},{n})");
        }
    }

    #[test]
    fn gemm_nt_matches_gemm_of_transpose() {
        for &(m, k, n) in &[(1, 1, 1), (3, 5, 7), (17, 33, 4), (40, 1030, 12)] {
            let a = Tensor::random(&[m, k], 1.0, 3);
            let bt = Tensor::random(&[n, k], 1.0, 4);
            let via_nt = gemm_nt(&a, &bt);
            let via_nn = gemm(&a, &transpose(&bt)).unwrap();
            assert!(via_nt.all_close(&via_nn, 1e-3), "mismatch at ({m},{k},{n})");
        }
    }

    #[test]
    fn gemm_propagates_nan_and_inf() {
        // 0 · ∞ = NaN: zero-skipping would silently return 0 here.
        let a = Tensor::from_vec(vec![0.0, 1.0], &[1, 2]).unwrap();
        let b = Tensor::from_vec(vec![f32::INFINITY, 0.0], &[2, 1]).unwrap();
        let c = gemm(&a, &b).unwrap();
        assert!(
            c[[0, 0]].is_nan(),
            "0 * inf must poison the sum, got {}",
            c[[0, 0]]
        );

        let bn = Tensor::from_vec(vec![f32::NAN, 0.0], &[2, 1]).unwrap();
        let cn = gemm(&a, &bn).unwrap();
        assert!(cn[[0, 0]].is_nan());

        // Plain zeros (no non-finite values) still give exact zeros.
        let z = gemm(&Tensor::zeros(&[2, 3]), &Tensor::random(&[3, 2], 1.0, 9)).unwrap();
        assert!(z.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn gemv_matches_gemm_column() {
        // A matrix–vector product is the one-row NT product `x · Aᵀ`.
        for &(m, k) in &[(17, 9), (4, 8), (3, 3), (9, 130)] {
            let a = Tensor::random(&[m, k], 1.0, 3);
            let x = Tensor::random(&[k], 1.0, 4);
            let column = Tensor::from_vec(x.as_slice().to_vec(), &[k, 1]).unwrap();
            let via_gemm = gemm(&a, &column).unwrap();
            let via_gemv = gemm_nt(
                &Tensor::from_vec(x.as_slice().to_vec(), &[1, k]).unwrap(),
                &a,
            );
            assert!(via_gemv
                .as_slice()
                .iter()
                .zip(via_gemm.as_slice())
                .all(|(p, q)| (p - q).abs() <= 1e-4));
        }
    }

    #[test]
    fn gemm_rejects_bad_shapes() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[2, 3]);
        assert!(matches!(
            gemm(&a, &b),
            Err(TensorError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn dot_handles_remainders() {
        for len in [0usize, 1, 7, 8, 9, 31] {
            let a: Vec<f32> = (0..len).map(|i| i as f32).collect();
            let b = vec![1.0f32; len];
            let want: f32 = (0..len).map(|i| i as f32).sum();
            assert_eq!(dot(&a, &b), want, "len {len}");
        }
    }

    #[test]
    fn axpy_accumulates() {
        let mut y = vec![1.0f32, 1.0];
        axpy(&mut y, &[2.0, 3.0]);
        assert_eq!(y, vec![3.0, 4.0]);
    }

    #[test]
    fn large_nt_product_is_consistent_with_small_blocks() {
        // Large enough to be split across lanes where there are any;
        // either way the result must match the naive reference.
        let (m, k, n) = (130, 96, 50);
        let a = Tensor::random(&[m, k], 1.0, 7);
        let bt = Tensor::random(&[n, k], 1.0, 8);
        let got = gemm_nt(&a, &bt);
        let want = naive_gemm(&a, &transpose(&bt));
        assert!(got.all_close(&want, 1e-3));
    }
}
