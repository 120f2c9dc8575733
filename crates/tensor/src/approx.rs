//! Nonlinearities: one deterministic definition, exact and approximated.
//!
//! Every `tanh` / `sigmoid` / `exp` the workspace evaluates — the scalar
//! interpreter, the AST oracle, the tiled row programs of the fused
//! epilogue, the constant folder and the reference models — is the
//! routine defined **once** in this module over a small lane abstraction
//! (`Lanes`): range reduction plus a fixed polynomial, with
//! saturation and NaN/±∞/±0 handled by lane-wise select. The scalar form
//! (`f32` lanes) and every SIMD width ([`crate::simd`]) execute the same
//! sequence of IEEE-754 single-precision operations, so all of them agree
//! **bit for bit**, and bit-identity between the execution paths holds by
//! construction rather than by avoiding SIMD.
//!
//! Fused multiply-add. Each multiply-add these routines spell out is one
//! `Lanes::mul_add`: a single correctly rounded `a·b + c` at every
//! level (`f32::mul_add`, `vfmadd…ps`), so it too is one IEEE operation
//! with one result. Nothing else contracts: Rust never fuses `a * b + c`
//! on its own, and model arithmetic (the tile programs' `Mul` then `Add`,
//! `BinOp::apply`) keeps its two roundings.
//!
//! Two accuracy classes share the abstraction:
//!
//! * [`Exact`](NonlinearityMode::Exact): [`tanh_exact`], [`sigmoid_exact`],
//!   [`exp_exact`] — within 2 ulp of the correctly rounded result over all
//!   of `f32` (measured exhaustively: 1.207 / 1.437 / 0.987 ulp), odd
//!   (`tanh(-x) == -tanh(x)` bitwise) and monotone. The exhaustive sweep
//!   is an ignored test: `cargo test --release -p cortex-tensor --
//!   --ignored`.
//! * [`Rational`](NonlinearityMode::Rational): the Appendix A.5 ablation
//!   of the Cortex paper — *"We use rational approximations for the
//!   `tanh` and `sigmoid` functions, which makes exploiting SIMD
//!   instructions on CPUs easier."* — a 13/6 rational `tanh` within
//!   `1e-4` of the exact one.

/// One or more `f32` lanes evaluated in lock step.
///
/// Every method is a single IEEE-754 operation (or a pure bit
/// manipulation; [`mul_add`](Lanes::mul_add) is the one fused operation,
/// rounded once) with **identical results per lane** in every
/// implementation: `f32` here, 8-lane AVX2 and 16-lane AVX-512 in
/// [`crate::simd`]. Comparisons are ordered and quiet (false on NaN);
/// [`select`](Lanes::select) picks per lane. The generic routines below
/// are written against this trait only, which is what makes the scalar
/// and vector forms bit-identical.
pub(crate) trait Lanes: Copy {
    /// Lane count.
    const N: usize;
    /// Per-lane boolean.
    type Mask: Copy;

    fn splat(x: f32) -> Self;
    /// Reads `Self::N` lanes from the front of `src`.
    fn load(src: &[f32]) -> Self;
    /// Writes `Self::N` lanes to the front of `dst`.
    fn store(self, dst: &mut [f32]);
    fn add(self, o: Self) -> Self;
    fn sub(self, o: Self) -> Self;
    fn mul(self, o: Self) -> Self;
    fn div(self, o: Self) -> Self;
    /// `self · b + c` rounded once (IEEE-754 fusedMultiplyAdd).
    fn mul_add(self, b: Self, c: Self) -> Self;
    /// Clears the sign bit.
    fn abs(self) -> Self;
    /// Flips the sign bit.
    fn neg(self) -> Self;
    /// `self`'s magnitude with `sign`'s sign bit.
    fn copysign(self, sign: Self) -> Self;
    /// The bit pattern shifted left by 23 (an integer in the low
    /// mantissa bits becomes a biased exponent).
    fn shl23(self) -> Self;
    fn lt(self, o: Self) -> Self::Mask;
    fn is_nan(self) -> Self::Mask;
    /// Per lane: `a` where `m` is set, else `b`.
    fn select(m: Self::Mask, a: Self, b: Self) -> Self;
}

impl Lanes for f32 {
    const N: usize = 1;
    type Mask = bool;

    #[inline(always)]
    fn splat(x: f32) -> Self {
        x
    }
    #[inline(always)]
    fn load(src: &[f32]) -> Self {
        src[0]
    }
    #[inline(always)]
    fn store(self, dst: &mut [f32]) {
        dst[0] = self;
    }
    #[inline(always)]
    fn add(self, o: Self) -> Self {
        self + o
    }
    #[inline(always)]
    fn sub(self, o: Self) -> Self {
        self - o
    }
    #[inline(always)]
    fn mul(self, o: Self) -> Self {
        self * o
    }
    #[inline(always)]
    fn div(self, o: Self) -> Self {
        self / o
    }
    #[inline(always)]
    fn mul_add(self, b: Self, c: Self) -> Self {
        f32::mul_add(self, b, c)
    }
    #[inline(always)]
    fn abs(self) -> Self {
        f32::from_bits(self.to_bits() & 0x7fff_ffff)
    }
    #[inline(always)]
    fn neg(self) -> Self {
        f32::from_bits(self.to_bits() ^ 0x8000_0000)
    }
    #[inline(always)]
    fn copysign(self, sign: Self) -> Self {
        f32::from_bits((self.to_bits() & 0x7fff_ffff) | (sign.to_bits() & 0x8000_0000))
    }
    #[inline(always)]
    fn shl23(self) -> Self {
        f32::from_bits(self.to_bits() << 23)
    }
    #[inline(always)]
    fn lt(self, o: Self) -> bool {
        self < o
    }
    #[inline(always)]
    fn is_nan(self) -> bool {
        f32::is_nan(self)
    }
    #[inline(always)]
    fn select(m: bool, a: Self, b: Self) -> Self {
        if m {
            a
        } else {
            b
        }
    }
}

// ---------------------------------------------------------------------
// The exact routines
// ---------------------------------------------------------------------

/// `1.5 · 2²³`: adding then subtracting it rounds to the nearest integer
/// (ties to even) for `|z| < 2²²`, and leaves that integer in the low
/// mantissa bits of the intermediate sum.
const MAGIC: f32 = 12_582_912.0;
const LOG2E: f32 = std::f32::consts::LOG2_E;
/// Cody–Waite split of `ln 2`: the high part has 9 significant bits, so
/// `n · LN2_HI` is exact for every `|n| ≤ 2¹⁵`.
#[allow(clippy::excessive_precision)] // exact: 355 / 512
const LN2_HI: f32 = 0.693_359_375;
const LN2_LO: f32 = -2.121_944_4e-4;
/// `(eʳ − 1 − r) / r²` on `|r| ≤ ln2/2`, highest degree first.
#[allow(clippy::excessive_precision)]
const EXP_POLY: [f32; 6] = [
    1.989_198_063e-4,
    1.393_454_149e-3,
    8.333_310_485e-3,
    4.166_645_557e-2,
    1.666_666_716e-1,
    5.0e-1,
];
/// `(tanh x / x − 1) / x²` in `x²` on `|x| ≤ 0.625`, highest degree first.
#[allow(clippy::excessive_precision)]
const TANH_POLY: [f32; 6] = [
    2.292_744_815e-3,
    -8.343_945_257e-3,
    2.176_891_826e-2,
    -5.395_925_790e-2,
    1.333_330_423e-1,
    -3.333_333_433e-1,
];
/// Below this magnitude `tanh` is the odd polynomial; above, `1 − 2/(e²ˣ+1)`.
const TANH_SWITCH: f32 = 0.625;
/// From here on `tanh` rounds to ±1.
const TANH_SATURATE: f32 = 9.011;

/// `P(x)`, highest degree first: one `mul_add` per coefficient.
#[inline(always)]
fn horner<L: Lanes>(x: L, coeffs: &[f32]) -> L {
    let mut p = L::splat(coeffs[0]);
    for &c in &coeffs[1..] {
        p = p.mul_add(x, L::splat(c));
    }
    p
}

/// `a < b ? a : b` — the x86 `MINPS` operand convention (the second
/// operand on NaN), spelled out so every lane width agrees.
#[inline(always)]
fn min_x86<L: Lanes>(a: L, b: L) -> L {
    L::select(a.lt(b), a, b)
}

/// `2ⁿ` for an integer-valued `n` in `[-127, 128)`: the biased exponent
/// lands in the low mantissa bits of `n + (MAGIC + 127)`.
#[inline(always)]
fn pow2<L: Lanes>(n: L) -> L {
    n.add(L::splat(MAGIC + 127.0)).shl23()
}

/// `2⁻ⁿ` for an integer-valued `n` in `(-128, 127]`.
#[inline(always)]
fn pow2_neg<L: Lanes>(n: L) -> L {
    L::splat(MAGIC + 127.0).sub(n).shl23()
}

/// Splits `eᵗ = 2ⁿ · (1 + q)` for finite `|t| ≤ 150`: integer-valued
/// `n = round(t · log₂e)` and `q = expm1(t − n ln 2)`, `|q| ≤ 0.42`.
/// Returning the parts (instead of their product) lets `tanh` and
/// `sigmoid` fold the `1 +` of their denominators into one rounding.
#[inline(always)]
fn exp_parts<L: Lanes>(t: L) -> (L, L) {
    let magic = L::splat(MAGIC);
    let n = t.mul_add(L::splat(LOG2E), magic).sub(magic);
    let r = n.mul_add(L::splat(-LN2_HI), t);
    let r = n.mul_add(L::splat(-LN2_LO), r);
    let q = r.mul(r).mul_add(horner(r, &EXP_POLY), r);
    (n, q)
}

/// Halves an integer-valued `n` into integer-valued `(n₁, n₂)` with
/// `n₁ + n₂ = n`, so `2ⁿ` can be applied as two in-range factors
/// (results down in the subnormals round once, at the second multiply).
#[inline(always)]
fn split_exponent<L: Lanes>(n: L) -> (L, L) {
    let magic = L::splat(MAGIC);
    let n1 = n.mul(L::splat(0.5)).add(magic).sub(magic);
    (n1, n.sub(n1))
}

/// Natural exponential (see the module docs for the contract).
#[inline(always)]
pub(crate) fn exp_lanes<L: Lanes>(x: L) -> L {
    // Clamped so the integer tricks stay in range; the true overflow and
    // underflow thresholds are applied by select below.
    let lo = L::splat(-104.0);
    let t = min_x86(L::splat(89.0), x);
    let t = L::select(lo.lt(t), t, lo);
    let (n, q) = exp_parts(t);
    let (n1, n2) = split_exponent(n);
    let y = L::splat(1.0).add(q).mul(pow2(n1)).mul(pow2(n2));
    let y = L::select(L::splat(88.722_84).lt(x), L::splat(f32::INFINITY), y);
    let y = L::select(x.lt(L::splat(-103.972_08)), L::splat(0.0), y);
    L::select(x.is_nan(), x, y)
}

/// Hyperbolic tangent (see the module docs for the contract).
#[inline(always)]
pub(crate) fn tanh_lanes<L: Lanes>(x: L) -> L {
    let one = L::splat(1.0);
    let a = x.abs();
    // |x| < 0.625: x + x³·P(x²).
    let z = a.mul(a);
    let small = a.mul(z).mul_add(horner(z, &TANH_POLY), a);
    // Otherwise 1 − 2/(e²ᵃ + 1) with e²ᵃ = 2ⁿ(1+q), u = 2⁻ⁿ:
    // 1 − 2u / ((u + 1) + q) — the denominator rounds once.
    let t = min_x86(a, L::splat(9.1)).mul(L::splat(2.0));
    let (n, q) = exp_parts(t);
    let u = pow2_neg(n);
    let mid = one.sub(L::splat(2.0).mul(u).div(u.add(one).add(q)));
    let y = L::select(a.lt(L::splat(TANH_SWITCH)), small, mid);
    let y = L::select(a.lt(L::splat(TANH_SATURATE)), y, one);
    L::select(x.is_nan(), x, y.copysign(x))
}

/// Logistic sigmoid (see the module docs for the contract).
#[inline(always)]
pub(crate) fn sigmoid_lanes<L: Lanes>(x: L) -> L {
    let one = L::splat(1.0);
    // w = σ(−|x|) = u / (1 + u + q) with e^|x| = 2ⁿ(1+q), u = 2⁻ⁿ; the
    // positive side is 1 − w. The denominator's two rounding errors are
    // recovered exactly (Fast2Sum) and folded back into the quotient —
    // without them the result sits at 2.0 ulp around x = 0.
    let t = min_x86(L::splat(104.5), x.abs());
    let (n, q) = exp_parts(t);
    let (n1, n2) = split_exponent(n);
    let (u1, u2) = (pow2_neg(n1), pow2_neg(n2));
    let u = u1.mul(u2);
    let s = u.add(q);
    let e1 = q.sub(s.sub(u));
    let d = one.add(s);
    let e2 = s.sub(d.sub(one));
    let r = one.div(d);
    let r = r.sub(r.mul(r).mul(e1.add(e2)));
    let w = r.mul(u1).mul(u2);
    let y = L::select(x.lt(L::splat(0.0)), w, one.sub(w));
    L::select(x.is_nan(), x, y)
}

/// `max(x, 0)`; NaN maps to 0 like `f32::max(NaN, 0.0)`.
#[inline(always)]
pub(crate) fn relu_lanes<L: Lanes>(x: L) -> L {
    let zero = L::splat(0.0);
    L::select(zero.lt(x), x, zero)
}

/// IEEE `maxNum`: the larger operand, the other one when one is NaN.
#[inline(always)]
pub(crate) fn max_lanes<L: Lanes>(a: L, b: L) -> L {
    L::select(b.is_nan(), a, L::select(b.lt(a), a, b))
}

/// IEEE `minNum`: the smaller operand, the other one when one is NaN.
#[inline(always)]
pub(crate) fn min_lanes<L: Lanes>(a: L, b: L) -> L {
    L::select(b.is_nan(), a, L::select(a.lt(b), a, b))
}

/// Deterministic hyperbolic tangent, ≤ 2 ulp (the `Exact` mode).
pub fn tanh_exact(x: f32) -> f32 {
    tanh_lanes(x)
}

/// Deterministic logistic sigmoid, ≤ 2 ulp (the `Exact` mode).
pub fn sigmoid_exact(x: f32) -> f32 {
    sigmoid_lanes(x)
}

/// Deterministic natural exponential, ≤ 2 ulp.
pub fn exp_exact(x: f32) -> f32 {
    exp_lanes(x)
}

// ---------------------------------------------------------------------
// The rational approximations (App. A.5)
// ---------------------------------------------------------------------

/// Numerator coefficients of the rational `tanh`, odd powers x¹³..x¹
/// (highest first).
#[allow(clippy::excessive_precision)]
const TANH_ALPHA: [f32; 7] = [
    -2.760_768_5e-16, // x^13
    2.000_187_9e-13,  // x^11
    -8.604_671_5e-11, // x^9
    5.122_297_1e-8,   // x^7
    1.485_722_4e-5,   // x^5
    6.372_619_3e-4,   // x^3
    4.893_524_6e-3,   // x^1
];

/// Denominator coefficients of the rational `tanh`, even powers x⁶..x⁰
/// (highest first).
#[allow(clippy::excessive_precision)]
const TANH_BETA: [f32; 4] = [
    1.198_258_4e-6, // x^6
    1.185_347_1e-4, // x^4
    2.268_434_6e-3, // x^2
    4.893_525_2e-3, // x^0
];

/// See [`tanh_rational`].
#[inline(always)]
pub(crate) fn tanh_rational_lanes<L: Lanes>(x: L) -> L {
    // clamp(x, -9, 9); NaN flows through both selects.
    let lo = L::splat(-9.0);
    let x = min_x86(L::splat(9.0), x);
    let x = L::select(x.lt(lo), lo, x);
    let x2 = x.mul(x);
    let p = horner(x2, &TANH_ALPHA).mul(x);
    p.div(horner(x2, &TANH_BETA))
}

/// See [`sigmoid_rational`].
#[inline(always)]
pub(crate) fn sigmoid_rational_lanes<L: Lanes>(x: L) -> L {
    let half = L::splat(0.5);
    half.mul(L::splat(1.0).add(tanh_rational_lanes(half.mul(x))))
}

/// Rational approximation of `tanh`: a degree-13 odd polynomial over a
/// degree-6 even polynomial, clamped to the saturation region at |x| = 9.
///
/// These are the classic single-precision coefficients used by SIMD math
/// libraries (Eigen's `ptanh`, among others), evaluated through the same
/// lane abstraction as the exact routines — so the scalar form and the
/// vector kernels of [`crate::simd`] agree bit for bit here too.
///
/// Maximum absolute error against `tanh` is below `1e-4` on all of ℝ
/// (asserted by tests).
pub fn tanh_rational(x: f32) -> f32 {
    tanh_rational_lanes(x)
}

/// Rational approximation of the logistic sigmoid via [`tanh_rational`],
/// using `σ(x) = (1 + tanh(x/2)) / 2`.
///
/// Maximum absolute error is below `1e-4` (asserted by tests).
pub fn sigmoid_rational(x: f32) -> f32 {
    sigmoid_rational_lanes(x)
}

/// Which implementation of the nonlinearities a backend should use.
///
/// Both are deterministic and vectorized; [`Exact`](NonlinearityMode::Exact)
/// is the default everywhere, [`Rational`](NonlinearityMode::Rational) is
/// the paper's App. A.5 substitution, kept as an ablation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum NonlinearityMode {
    /// The ≤ 2 ulp routines of this module.
    #[default]
    Exact,
    /// Rational approximations (≤ 1e-4 absolute).
    Rational,
}

impl NonlinearityMode {
    /// Applies `tanh` in this mode.
    pub fn tanh(self, x: f32) -> f32 {
        self.tanh_lanes(x)
    }

    /// Applies the sigmoid in this mode.
    pub fn sigmoid(self, x: f32) -> f32 {
        self.sigmoid_lanes(x)
    }

    #[inline(always)]
    pub(crate) fn tanh_lanes<L: Lanes>(self, x: L) -> L {
        match self {
            NonlinearityMode::Exact => tanh_lanes(x),
            NonlinearityMode::Rational => tanh_rational_lanes(x),
        }
    }

    #[inline(always)]
    pub(crate) fn sigmoid_lanes<L: Lanes>(self, x: L) -> L {
        match self {
            NonlinearityMode::Exact => sigmoid_lanes(x),
            NonlinearityMode::Rational => sigmoid_rational_lanes(x),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sweep(f: impl Fn(f32) -> f32, g: impl Fn(f32) -> f32) -> f32 {
        let mut max_err = 0.0f32;
        let mut x = -10.0f32;
        while x <= 10.0 {
            max_err = max_err.max((f(x) - g(x)).abs());
            x += 0.001;
        }
        max_err
    }

    #[test]
    fn tanh_rational_error_bound() {
        let err = sweep(tanh_exact, tanh_rational);
        assert!(err < 1e-4, "tanh approximation error {err} too large");
    }

    #[test]
    fn sigmoid_rational_error_bound() {
        let err = sweep(sigmoid_exact, sigmoid_rational);
        assert!(err < 1e-4, "sigmoid approximation error {err} too large");
    }

    #[test]
    fn tanh_rational_saturates_and_is_odd() {
        assert!((tanh_rational(100.0) - 1.0).abs() < 1e-4);
        assert!((tanh_rational(-100.0) + 1.0).abs() < 1e-4);
        for &x in &[0.1f32, 0.7, 1.9, 3.0] {
            assert!((tanh_rational(x) + tanh_rational(-x)).abs() < 1e-6);
        }
        assert_eq!(tanh_rational(0.0), 0.0);
    }

    #[test]
    fn sigmoid_rational_bounds_and_midpoint() {
        assert!((sigmoid_rational(0.0) - 0.5).abs() < 1e-6);
        assert!((sigmoid_rational(100.0) - 1.0).abs() < 1e-4);
        assert!(sigmoid_rational(-100.0).abs() < 1e-4);
    }

    #[test]
    fn mode_dispatch() {
        assert_eq!(NonlinearityMode::Exact.tanh(0.5), tanh_exact(0.5));
        assert_eq!(
            NonlinearityMode::Rational.sigmoid(0.5),
            sigmoid_rational(0.5)
        );
        assert_eq!(NonlinearityMode::default(), NonlinearityMode::Exact);
    }

    #[test]
    fn rational_tanh_monotone_on_grid() {
        let mut prev = tanh_rational(-5.0);
        let mut x = -5.0f32;
        while x <= 5.0 {
            let y = tanh_rational(x);
            assert!(y >= prev - 1e-6, "not monotone at {x}");
            prev = y;
            x += 0.01;
        }
    }

    // -- the exact contract ------------------------------------------------

    /// Error of `got` against the f64 reference `want`, in ulps of the
    /// correctly rounded `f32` result.
    fn ulp_error(got: f32, want: f64) -> f64 {
        let w = want as f32;
        if got.to_bits() == w.to_bits() || (got == 0.0 && w == 0.0) {
            return 0.0;
        }
        if !w.is_finite() || !got.is_finite() {
            return f64::INFINITY;
        }
        let mag = w.abs();
        let ulp = if mag < f32::MIN_POSITIVE {
            f64::from(f32::from_bits(1))
        } else {
            f64::from(f32::from_bits(mag.to_bits() + 1)) - f64::from(mag)
        };
        (f64::from(got) - want).abs() / ulp
    }

    /// The three exact routines with their f64 references.
    #[allow(clippy::type_complexity)]
    const CONTRACT: [(&str, fn(f32) -> f32, fn(f64) -> f64); 3] = [
        ("tanh", tanh_exact, |x| x.tanh()),
        ("sigmoid", sigmoid_exact, |x| 1.0 / (1.0 + (-x).exp())),
        ("exp", exp_exact, |x| x.exp()),
    ];

    /// Asserts the contract at one input (≤ 2 ulp, NaN → NaN) and
    /// returns each routine's ulp error there.
    fn assert_within_2_ulp(bits: u32) -> [f64; 3] {
        let x = f32::from_bits(bits);
        CONTRACT.map(|(name, f, reference)| {
            let y = f(x);
            if x.is_nan() {
                assert!(y.is_nan(), "{name}(NaN {bits:#x}) = {y}");
                return 0.0;
            }
            let err = ulp_error(y, reference(f64::from(x)));
            assert!(err <= 2.0, "{name}({x:e}) = {y:e}: {err:.3} ulp");
            err
        })
    }

    /// The contract over bit patterns `lo..hi`, plus `tanh` odd and
    /// monotone on the range's non-negative inputs (monotone from the
    /// pattern just before `lo`, so adjacent ranges chain). Returns each
    /// routine's largest ulp error and the pattern it occurs at.
    fn sweep_contract(lo: u64, hi: u64) -> [(f64, u32); 3] {
        let last_non_negative = u64::from(f32::INFINITY.to_bits());
        let mut worst = [(0.0f64, 0u32); 3];
        let mut prev =
            (lo > 0 && lo <= last_non_negative).then(|| tanh_exact(f32::from_bits(lo as u32 - 1)));
        for b in lo..hi {
            let bits = b as u32;
            for (w, err) in worst.iter_mut().zip(assert_within_2_ulp(bits)) {
                if err > w.0 {
                    *w = (err, bits);
                }
            }
            if b <= last_non_negative {
                let x = f32::from_bits(bits);
                let y = tanh_exact(x);
                assert_eq!(tanh_exact(-x).to_bits(), (-y).to_bits(), "odd at {x:e}");
                if let Some(p) = prev {
                    assert!(y >= p, "not monotone at {x:e}: {p:e} then {y:e}");
                }
                prev = Some(y);
            }
        }
        worst
    }

    #[test]
    #[ignore = "all 2³² inputs: minutes in release (CI runs it with --ignored)"]
    fn exact_routines_meet_the_contract_on_every_f32() {
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get()) as u64;
        let total = 1u64 << 32;
        let per = total.div_ceil(threads);
        let parts: Vec<[(f64, u32); 3]> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads)
                .map(|t| s.spawn(move || sweep_contract(t * per, ((t + 1) * per).min(total))))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for (i, (name, ..)) in CONTRACT.iter().enumerate() {
            let (err, bits) =
                (parts.iter().map(|w| w[i])).fold((0.0, 0), |a, b| if b.0 > a.0 { b } else { a });
            let x = f32::from_bits(bits);
            println!("{name}: max {err:.3} ulp at {x:e} ({bits:#010x})");
        }
    }

    #[test]
    fn exact_routines_stay_within_2_ulp_on_a_strided_sweep() {
        // 2²⁴ + 1 evenly strided bit patterns across all of f32 (both
        // signs, subnormals, infinities, NaNs); the exhaustive 2³² run
        // measures 1.207 / 1.437 / 0.987 ulp.
        for i in 0..=(1u64 << 24) {
            assert_within_2_ulp((i * 255).min(u64::from(u32::MAX)) as u32);
        }
    }

    #[test]
    fn exact_routines_stay_within_2_ulp_on_edges() {
        let mut edges = vec![
            0.0f32,
            f32::from_bits(1),
            f32::MIN_POSITIVE,
            f32::from_bits(f32::MIN_POSITIVE.to_bits() - 1),
            f32::MAX,
            f32::INFINITY,
            f32::NAN,
            TANH_SWITCH,
            TANH_SATURATE,
            9.1,
            88.722_84,  // exp overflow threshold
            103.972_08, // exp underflow threshold
            104.0,
            104.5, // sigmoid clamp
            89.0,
            17.328_68,   // sigmoid rounds to 1 from here
            0.346_573_6, // ln2/2: the reduction's n = 0 | 1 boundary
        ];
        for e in edges.clone() {
            for b in [e.to_bits().wrapping_sub(1), e.to_bits() + 1] {
                edges.push(f32::from_bits(b));
            }
        }
        for e in edges {
            assert_within_2_ulp(e.to_bits());
            assert_within_2_ulp((-e).to_bits());
        }
        // Exact special values.
        assert_eq!(tanh_exact(0.0).to_bits(), 0.0f32.to_bits());
        assert_eq!(tanh_exact(-0.0).to_bits(), (-0.0f32).to_bits());
        assert_eq!(tanh_exact(f32::INFINITY), 1.0);
        assert_eq!(tanh_exact(f32::NEG_INFINITY), -1.0);
        assert_eq!(sigmoid_exact(0.0), 0.5);
        assert_eq!(sigmoid_exact(-0.0), 0.5);
        assert_eq!(sigmoid_exact(f32::INFINITY), 1.0);
        assert_eq!(sigmoid_exact(f32::NEG_INFINITY), 0.0);
        assert_eq!(exp_exact(0.0), 1.0);
        assert_eq!(exp_exact(-0.0), 1.0);
        assert_eq!(exp_exact(f32::INFINITY), f32::INFINITY);
        assert_eq!(exp_exact(f32::NEG_INFINITY), 0.0);
    }

    #[test]
    fn exact_tanh_is_odd_and_monotone_on_a_grid() {
        let mut prev = 0.0f32;
        for bits in (0..=f32::INFINITY.to_bits()).step_by(509) {
            let x = f32::from_bits(bits);
            let y = tanh_exact(x);
            assert_eq!(tanh_exact(-x).to_bits(), (-y).to_bits(), "odd at {x:e}");
            assert!(y >= prev, "not monotone at {x:e}: {prev:e} then {y:e}");
            prev = y;
        }
    }

    #[test]
    fn max_min_relu_follow_maxnum_semantics() {
        let nan = f32::NAN;
        assert_eq!(max_lanes(1.0f32, 2.0), 2.0);
        assert_eq!(max_lanes(nan, 2.0), 2.0);
        assert_eq!(max_lanes(1.0f32, nan), 1.0);
        assert_eq!(min_lanes(1.0f32, 2.0), 1.0);
        assert_eq!(min_lanes(nan, 2.0), 2.0);
        assert_eq!(min_lanes(1.0f32, nan), 1.0);
        assert_eq!(relu_lanes(-3.0f32), 0.0);
        assert_eq!(relu_lanes(3.0f32), 3.0);
        assert_eq!(relu_lanes(nan), 0.0);
    }
}
