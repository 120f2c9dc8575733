//! Randomized property tests for the tensor substrate.
//!
//! Driven by the workspace's deterministic [`cortex_rng::Rng`] instead of
//! an external property-testing framework: each test samples a few hundred
//! random cases from a fixed seed, so failures are reproducible and the
//! build has no registry dependencies.

use cortex_rng::Rng;
use cortex_tensor::{kernels, Shape, Tensor};

const CASES: usize = 200;

fn small_dims(rng: &mut Rng) -> Vec<usize> {
    let rank = rng.range_usize(1, 4);
    (0..rank).map(|_| rng.range_usize(1, 6)).collect()
}

#[test]
fn linearize_delinearize_roundtrip() {
    let mut rng = Rng::new(0x11);
    for _ in 0..CASES {
        let shape = Shape::new(&small_dims(&mut rng));
        let flat = rng.below_usize(shape.len());
        let ix = shape.delinearize(flat);
        assert_eq!(shape.linearize(&ix), flat);
    }
}

#[test]
fn gemm_is_linear_in_first_argument() {
    let mut rng = Rng::new(0x14);
    for _ in 0..CASES {
        let (m, k, n) = (
            rng.range_usize(1, 8),
            rng.range_usize(1, 8),
            rng.range_usize(1, 8),
        );
        let alpha = rng.range_f32(-3.0, 3.0);
        let a = Tensor::random(&[m, k], 1.0, 7);
        let b = Tensor::random(&[k, n], 1.0, 8);
        let scaled_a = a.map(|x| alpha * x);
        let lhs = kernels::gemm(&scaled_a, &b).unwrap();
        let rhs = kernels::gemm(&a, &b).unwrap().map(|x| alpha * x);
        assert!(lhs.all_close(&rhs, 1e-3));
    }
}

#[test]
fn add_commutes() {
    let mut rng = Rng::new(0x15);
    for _ in 0..CASES {
        let dims = small_dims(&mut rng);
        let (s1, s2) = (rng.below_u64(100), rng.below_u64(100));
        let a = Tensor::random(&dims, 1.0, s1);
        let b = Tensor::random(&dims, 1.0, s2);
        let ab = kernels::add(&a, &b).unwrap();
        let ba = kernels::add(&b, &a).unwrap();
        assert_eq!(ab, ba);
    }
}

fn transpose(a: &Tensor) -> Tensor {
    let (m, n) = (a.shape().dim(0), a.shape().dim(1));
    Tensor::from_fn(&[n, m], |ix| a[[ix[1], ix[0]]])
}

#[test]
fn transpose_gemm_identity() {
    let mut rng = Rng::new(0x16);
    for _ in 0..CASES {
        // (A B)^T == B^T A^T
        let (m, k, n) = (
            rng.range_usize(1, 6),
            rng.range_usize(1, 6),
            rng.range_usize(1, 6),
        );
        let a = Tensor::random(&[m, k], 1.0, 11);
        let b = Tensor::random(&[k, n], 1.0, 12);
        let lhs = transpose(&kernels::gemm(&a, &b).unwrap());
        let rhs = kernels::gemm(&transpose(&b), &transpose(&a)).unwrap();
        assert!(lhs.all_close(&rhs, 1e-4));
    }
}

#[test]
fn tensor_map_then_zip_agree() {
    let mut rng = Rng::new(0x17);
    for _ in 0..CASES {
        let dims = small_dims(&mut rng);
        let s = rng.below_u64(50);
        let a = Tensor::random(&dims, 2.0, s);
        let doubled = a.map(|x| 2.0 * x);
        let summed = kernels::add(&a, &a).unwrap();
        assert!(doubled.all_close(&summed, 1e-6));
    }
}
