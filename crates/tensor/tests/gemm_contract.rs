//! The tile kernel's contract: every element of every matrix product is
//! the k-sequential chain of `simd::dot_ordered`, bit for bit, at every
//! level, whatever the tile shape and whoever shares the launch.

use cortex_tensor::kernels::{self, PackedB};
use cortex_tensor::simd::{self, Level};
use cortex_tensor::{par, Tensor};

const NS: [usize; 8] = [1, 15, 16, 17, 31, 32, 33, 100];
const KS: [usize; 6] = [0, 1, 7, 16, 255, 600];
/// Every tile height at every level, every balanced split of two and
/// three tiles (13 → 7+6, 25 → 9+8+8), and the multi-panel forms of
/// one- to six-row launches.
const M_MAX: usize = 27;

fn random(len: usize, seed: u64) -> Vec<f32> {
    Tensor::random(&[len.max(1)], 1.0, seed).as_slice()[..len].to_vec()
}

fn pack_nt(l: Level, b: &[f32], n: usize, k: usize) -> PackedB {
    PackedB::pack_with(l, n, k, (0..n).map(|j| (&b[j * k..], 1)))
}

fn product(a: &[f32], b: &PackedB, m: usize) -> Vec<f32> {
    // A poisoned output shows any element the kernel fails to store.
    let mut c = vec![f32::NAN; m * b.shape().0];
    kernels::gemm_packed_into(&mut c, a, b, m);
    c
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn every_element_is_the_ordered_dot_of_its_row_and_column() {
    for l in simd::available_levels() {
        for n in NS {
            for k in KS {
                let a = random(M_MAX * k, 1 + k as u64);
                let b = random(n * k, 1000 + (n * k) as u64);
                let packed = pack_nt(l, &b, n, k);
                let want: Vec<f32> = (0..M_MAX * n)
                    .map(|e| {
                        let (i, j) = (e / n, e % n);
                        simd::dot_ordered_with(l, &a[i * k..(i + 1) * k], &b[j * k..(j + 1) * k])
                    })
                    .collect();
                // Row i of any m-row product is the one-row product of
                // that row: solo ≡ batched ≡ super-wave.
                for i in 0..M_MAX {
                    assert_eq!(
                        bits(&product(&a[i * k..(i + 1) * k], &packed, 1)),
                        bits(&want[i * n..(i + 1) * n]),
                        "{l:?} n={n} k={k}: one-row product of row {i}"
                    );
                }
                for m in 0..=M_MAX {
                    assert_eq!(
                        bits(&product(&a, &packed, m)),
                        bits(&want[..m * n]),
                        "{l:?} m={m} n={n} k={k}"
                    );
                }
            }
        }
    }
}

#[test]
fn zero_times_infinity_poisons_exactly_its_own_element() {
    // n = 33 leaves padded columns in the last panel at every level. An
    // infinite `a` makes them NaN inside the kernel (∞ · 0 padding);
    // none of that may reach `c`.
    let (m, n, k) = (5, 33, 7);
    for l in simd::available_levels() {
        let mut a = random(m * k, 3);
        let mut b = random(n * k, 4);
        assert!(a.iter().chain(&b).all(|v| *v != 0.0));
        a[2 * k + 3] = 0.0;
        b[5 * k + 3] = f32::INFINITY;
        a[k + 2] = f32::INFINITY;
        let c = product(&a, &pack_nt(l, &b, n, k), m);
        for (e, v) in c.iter().enumerate() {
            let (i, j) = (e / n, e % n);
            assert_eq!(v.is_nan(), (i, j) == (2, 5), "{l:?} c[{i}][{j}] = {v}");
            assert_eq!(
                v.is_infinite(),
                i == 1 || (j == 5 && i != 2),
                "{l:?} c[{i}][{j}] = {v}"
            );
        }
    }
}

#[test]
fn products_stay_close_to_an_f64_reference_at_k_600() {
    let (m, n, k) = (13, 33, 600);
    let (a, b) = (random(m * k, 5), random(n * k, 6));
    for l in simd::available_levels() {
        let c = product(&a, &pack_nt(l, &b, n, k), m);
        for (e, got) in c.iter().enumerate() {
            let (i, j) = (e / n, e % n);
            let want: f64 = (0..k)
                .map(|kk| f64::from(a[i * k + kk]) * f64::from(b[j * k + kk]))
                .sum();
            assert!(
                (f64::from(*got) - want).abs() <= 1e-4 * (1.0 + want.abs()),
                "{l:?} c[{i}][{j}] = {got} vs {want}"
            );
        }
    }
}

#[test]
fn conveniences_agree_bitwise_with_the_packed_entry() {
    for (m, n, k) in [
        (1, 1, 1),
        (3, 5, 7),
        (13, 33, 40),
        (27, 100, 255),
        (4, 70, 0),
    ] {
        let a = Tensor::from_vec(random(m * k, 7), &[m, k]).unwrap();
        let b = Tensor::from_vec(random(n * k, 8), &[n, k]).unwrap();
        let want = product(a.as_slice(), &PackedB::pack_nt(b.as_slice(), n, k), m);

        let mut nt = vec![f32::NAN; m * n];
        kernels::gemm_nt_into(&mut nt, a.as_slice(), b.as_slice(), m, n, k);
        assert_eq!(bits(&nt), bits(&want), "gemm_nt_into {m}x{n}x{k}");

        let bt = Tensor::from_fn(&[k, n], |ix| b[[ix[1], ix[0]]]);
        let nn = kernels::gemm(&a, &bt).unwrap();
        assert_eq!(bits(nn.as_slice()), bits(&want), "gemm {m}x{n}x{k}");
    }
}

#[test]
fn a_recycled_strided_nn_pack_equals_a_fresh_one() {
    // A pack reused across shapes, read from a matrix whose rows are
    // further apart than its width (a window of a wider tensor), packs
    // the same panels as a fresh pack of the dense copy.
    let mut recycled = PackedB::default();
    for (m, n, k, ld) in [
        (16, 16, 16, 16),
        (4, 1, 9, 1),
        (33, 33, 33, 40),
        (3, 50, 5, 64),
    ] {
        let b = random((k - 1) * ld + n, 11);
        let dense: Vec<f32> = (0..k).flat_map(|kk| b[kk * ld..][..n].to_vec()).collect();
        recycled.pack_nn_into(&b, ld, n, k);
        let a = random(m * k, 12);
        let mut fresh = PackedB::default();
        fresh.pack_nn_into(&dense, n, n, k);
        let want = product(&a, &fresh, m);
        assert_eq!(
            bits(&product(&a, &recycled, m)),
            bits(&want),
            "{m}x{n}x{k} ld {ld}"
        );
    }
}

#[test]
fn a_large_product_equals_its_rows_computed_one_at_a_time() {
    // This shape is split across lanes where there are any; one-row
    // products of it never are. Either way: the same bits.
    let (m, n, k) = (100, 64, 128);
    let (a, b) = (random(m * k, 9), random(n * k, 10));
    let packed = PackedB::pack_nt(&b, n, k);
    let whole = product(&a, &packed, m);
    for i in 0..m {
        let row = product(&a[i * k..(i + 1) * k], &packed, 1);
        assert_eq!(bits(&row), bits(&whole[i * n..(i + 1) * n]), "row {i}");
    }
}

#[test]
fn a_product_split_across_lanes_equals_the_unsplit_one_bitwise() {
    // 9 panels of 32 columns, 18 of 16, 35 of 8 — an odd count at every
    // level, the last one ragged (280 = 8·32 + 24) — under every tile
    // shape and widening: one-row launches (four panels wide), 5 rows
    // (two wide), 13 (7 + 6), 27 (9 + 9 + 9) and 64.
    let (n, k) = (280, 256);
    let b = random(n * k, 11);
    for l in simd::available_levels() {
        let packed = pack_nt(l, &b, n, k);
        for m in [1, 5, 13, 27, 64] {
            let a = random(m * k, 12 + m as u64);
            let (mut one, mut all) = (vec![f32::NAN; m * n], vec![f32::NAN; m * n]);
            let forked = par::with_lanes(1, || kernels::gemm_packed_into(&mut one, &a, &packed, m));
            assert!(!forked, "{l:?} m={m}: one lane never forks");
            let forked = kernels::gemm_packed_into(&mut all, &a, &packed, m);
            // m·n·k ≥ 2¹⁸ from m = 4 on; one row stays below.
            assert_eq!(forked, m >= 4 && par::lanes() > 1, "{l:?} m={m}");
            assert_eq!(bits(&one), bits(&all), "{l:?} m={m}");
            assert_eq!(
                one[m * n - 1].to_bits(),
                simd::dot_ordered_with(l, &a[(m - 1) * k..], &b[(n - 1) * k..]).to_bits(),
                "{l:?} m={m}: the last element of the ragged panel"
            );
        }
    }
    // The gate-stack shape forks from one row on.
    let (n, k) = (1024, 256);
    let (a, b) = (random(k, 13), random(n * k, 14));
    let packed = PackedB::pack_nt(&b, n, k);
    let mut one = vec![f32::NAN; n];
    par::with_lanes(1, || kernels::gemm_packed_into(&mut one, &a, &packed, 1));
    let mut all = vec![f32::NAN; n];
    let forked = kernels::gemm_packed_into(&mut all, &a, &packed, 1);
    assert_eq!(forked, par::lanes() > 1);
    assert_eq!(bits(&one), bits(&all));
}
