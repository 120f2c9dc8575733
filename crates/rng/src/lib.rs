//! A tiny, dependency-free, deterministic PRNG used across the workspace.
//!
//! The reproduction needs reproducible synthetic datasets and parameter
//! initializations, not cryptographic quality. [`Rng`] is SplitMix64
//! (Steele, Lea, Flood 2014): a 64-bit state advanced by a Weyl sequence
//! and finalized with a murmur-style mixer — passes BigCrush, one `u64` of
//! output per three multiplications, and identical on every platform.
//!
//! # Example
//!
//! ```
//! use cortex_rng::Rng;
//!
//! let mut a = Rng::new(42);
//! let mut b = Rng::new(42);
//! assert_eq!(a.next_u64(), b.next_u64());
//! let x = a.uniform_f32(0.5);
//! assert!((-0.5..0.5).contains(&x));
//! ```

/// A deterministic SplitMix64 generator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rng {
    state: u64,
}

impl Rng {
    /// Creates a generator from a seed. Equal seeds yield equal streams.
    pub fn new(seed: u64) -> Self {
        // Pre-mix the seed so adjacent seeds (0, 1, 2, …) produce
        // uncorrelated streams from the very first draw.
        let mut rng = Rng {
            state: seed ^ 0x9e37_79b9_7f4a_7c15,
        };
        rng.next_u64();
        rng
    }

    /// The next 64 uniformly distributed bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A uniform value in `0..n`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn below_u64(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below_u64(0)");
        // Multiply-shift (Lemire); the tiny modulo bias of the plain
        // widening reduction is irrelevant for workload generation.
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// A uniform value in `0..n`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn below_u32(&mut self, n: u32) -> u32 {
        self.below_u64(n as u64) as u32
    }

    /// A uniform value in `0..n`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn below_usize(&mut self, n: usize) -> usize {
        self.below_u64(n as u64) as usize
    }

    /// A uniform value in `lo..hi`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn range_i64(&mut self, lo: i64, hi: i64) -> i64 {
        assert!(lo < hi, "range_i64({lo}, {hi})");
        lo.wrapping_add(self.below_u64(hi.abs_diff(lo)) as i64)
    }

    /// A uniform value in `lo..hi`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn range_usize(&mut self, lo: usize, hi: usize) -> usize {
        assert!(lo < hi, "range_usize({lo}, {hi})");
        lo + self.below_usize(hi - lo)
    }

    /// A uniform `f64` in `[0, 1)`.
    pub fn f64(&mut self) -> f64 {
        // 53 mantissa bits.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform `f32` in `[0, 1)`.
    pub fn f32(&mut self) -> f32 {
        // 24 mantissa bits.
        (self.next_u64() >> 40) as f32 * (1.0 / (1u32 << 24) as f32)
    }

    /// A uniform `f32` in `[-bound, bound)`.
    pub fn uniform_f32(&mut self, bound: f32) -> f32 {
        (self.f32() * 2.0 - 1.0) * bound
    }

    /// A uniform `f32` in `[lo, hi)`.
    pub fn range_f32(&mut self, lo: f32, hi: f32) -> f32 {
        lo + self.f32() * (hi - lo)
    }

    /// A fair coin flip.
    pub fn bool(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }

    /// Picks a uniformly random element of a non-empty slice.
    ///
    /// # Panics
    ///
    /// Panics if the slice is empty.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below_usize(items.len())]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn determinism_per_seed() {
        let xs: Vec<u64> = {
            let mut r = Rng::new(7);
            (0..16).map(|_| r.next_u64()).collect()
        };
        let ys: Vec<u64> = {
            let mut r = Rng::new(7);
            (0..16).map(|_| r.next_u64()).collect()
        };
        assert_eq!(xs, ys);
        let zs: Vec<u64> = {
            let mut r = Rng::new(8);
            (0..16).map(|_| r.next_u64()).collect()
        };
        assert_ne!(xs, zs);
    }

    #[test]
    fn below_is_in_range_and_covers() {
        let mut r = Rng::new(1);
        let mut seen = [false; 7];
        for _ in 0..1000 {
            let v = r.below_usize(7);
            assert!(v < 7);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues hit in 1000 draws");
    }

    #[test]
    fn floats_are_in_unit_interval() {
        let mut r = Rng::new(2);
        for _ in 0..1000 {
            let x = r.f64();
            assert!((0.0..1.0).contains(&x));
            let y = r.f32();
            assert!((0.0..1.0).contains(&y));
        }
    }

    #[test]
    fn uniform_mean_is_near_zero() {
        let mut r = Rng::new(3);
        let n = 40_000;
        let mean: f64 = (0..n).map(|_| r.uniform_f32(1.0) as f64).sum::<f64>() / f64::from(n);
        assert!(mean.abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn range_endpoints() {
        let mut r = Rng::new(4);
        for _ in 0..100 {
            let v = r.range_i64(-5, 5);
            assert!((-5..5).contains(&v));
            let u = r.range_usize(3, 4);
            assert_eq!(u, 3);
        }
    }
}
