//! Explicit SIMD micro-kernels with runtime feature dispatch.
//!
//! The NT micro-kernel, GEMV, and the row-gather/pack loops all bottom
//! out in three primitives — [`dot`], [`dot4`] (four dots sharing one
//! pass over `a`), and [`axpy`] — which this module provides in three
//! implementations:
//!
//! * **Scalar** — the unrolled loops the autovectorizer handles; this is
//!   the always-correct fallback and the reference the wide paths are
//!   tested against.
//! * **AVX2+FMA** — 8-lane `f32` with fused multiply-add, two
//!   accumulator chains per output to hide FMA latency.
//! * **AVX-512F** — 16-lane `f32` with masked tail loads (no scalar
//!   remainder loop at all).
//!
//! The active level is detected once per process with
//! `is_x86_feature_detected!` and cached ([`level`]); the
//! `CORTEX_SIMD` environment variable (`scalar` / `avx2` / `avx512`)
//! clamps it for benchmarking and tests. Every entry point also exists
//! in a `*_with` form taking an explicit [`Level`] so tests can compare
//! the wide paths against the scalar path on the same inputs.
//!
//! Numerics: the wide *reduction* paths reassociate (lane-striped
//! partial sums) and contract `a*b+c` into FMAs, so results may differ
//! from the scalar path by normal rounding — but IEEE special values
//! flow through unchanged (`0·∞ → NaN` is preserved; FMA propagates
//! NaN/∞ exactly like mul+add does). The *elementwise* kernels
//! ([`run_tile`], [`unary_slice`]) do neither: every level runs the one
//! lane-generic routine of [`crate::approx`] and is bit-identical to its
//! scalar form.

use std::sync::atomic::{AtomicU8, Ordering};

/// Instruction-set level of the dispatched kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Level {
    /// Unrolled scalar loops (autovectorizer-friendly); always available.
    Scalar,
    /// 8-lane AVX2 with FMA.
    Avx2,
    /// 16-lane AVX-512F with masked tails.
    Avx512,
}

const LEVEL_UNKNOWN: u8 = 0;
const LEVEL_SCALAR: u8 = 1;
const LEVEL_AVX2: u8 = 2;
const LEVEL_AVX512: u8 = 3;

static LEVEL: AtomicU8 = AtomicU8::new(LEVEL_UNKNOWN);

/// Detects the best supported level (respecting `CORTEX_SIMD`), cached
/// after the first call.
pub fn level() -> Level {
    match LEVEL.load(Ordering::Relaxed) {
        LEVEL_SCALAR => Level::Scalar,
        LEVEL_AVX2 => Level::Avx2,
        LEVEL_AVX512 => Level::Avx512,
        _ => {
            let l = detect();
            LEVEL.store(
                match l {
                    Level::Scalar => LEVEL_SCALAR,
                    Level::Avx2 => LEVEL_AVX2,
                    Level::Avx512 => LEVEL_AVX512,
                },
                Ordering::Relaxed,
            );
            l
        }
    }
}

/// Uncached detection: hardware capability clamped by `CORTEX_SIMD`.
pub fn detect() -> Level {
    clamp_level(
        detect_hardware(),
        std::env::var("CORTEX_SIMD").ok().as_deref(),
    )
}

/// Applies a `CORTEX_SIMD`-style override to a detected hardware level
/// (the override can only lower the level, never exceed the hardware).
fn clamp_level(hw: Level, env: Option<&str>) -> Level {
    match env {
        Some("scalar") => Level::Scalar,
        Some("avx2") if hw != Level::Scalar => Level::Avx2,
        Some("avx512") => hw, // cannot exceed the hardware
        _ => hw,
    }
}

#[cfg(target_arch = "x86_64")]
fn detect_hardware() -> Level {
    if is_x86_feature_detected!("avx512f") {
        Level::Avx512
    } else if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
        Level::Avx2
    } else {
        Level::Scalar
    }
}

#[cfg(not(target_arch = "x86_64"))]
fn detect_hardware() -> Level {
    Level::Scalar
}

/// Levels the current process can actually execute (for tests).
pub fn available_levels() -> Vec<Level> {
    let mut out = vec![Level::Scalar];
    match detect_hardware() {
        Level::Avx512 => {
            out.push(Level::Avx2);
            out.push(Level::Avx512);
        }
        Level::Avx2 => out.push(Level::Avx2),
        Level::Scalar => {}
    }
    out
}

/// Whether this process can execute kernels at `l`. The `*_with` entry
/// points are safe because they check this (falling back to scalar on
/// an unsupported level) — `is_x86_feature_detected!` caches, so the
/// check is an atomic load, negligible against any kernel body.
#[inline]
pub fn level_supported(l: Level) -> bool {
    match l {
        Level::Scalar => true,
        #[cfg(target_arch = "x86_64")]
        Level::Avx2 => is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma"),
        #[cfg(target_arch = "x86_64")]
        Level::Avx512 => is_x86_feature_detected!("avx512f"),
        #[cfg(not(target_arch = "x86_64"))]
        _ => false,
    }
}

// ---------------------------------------------------------------------
// dot
// ---------------------------------------------------------------------

/// Dot product of two equal-length slices at the detected level.
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    dot_with(level(), a, b)
}

/// [`dot`] at an explicit level; an unsupported level falls back to the
/// scalar kernel (see [`level_supported`]), keeping this safe to call
/// with any `Level`.
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[inline]
pub fn dot_with(l: Level, a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "dot of unequal lengths");
    match l {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the feature is verified on this CPU, and the slices
        // are equal-length (asserted above).
        Level::Avx2 if level_supported(l) => unsafe { dot_avx2(a, b) },
        #[cfg(target_arch = "x86_64")]
        Level::Avx512 if level_supported(l) => unsafe { dot_avx512(a, b) },
        _ => dot_scalar(a, b),
    }
}

/// Scalar `dot`: eight partial accumulators, pairwise-combined. Every
/// scalar reduction kernel below accumulates each of its outputs in
/// exactly this order, so at the scalar level a GEMM element (one `k`
/// block) is bit-identical to the `dot` of its row and column whichever
/// micro-kernel shape produced it.
pub fn dot_scalar(a: &[f32], b: &[f32]) -> f32 {
    let mut acc = [0.0f32; 8];
    let chunks = a.len() / 8;
    for c in 0..chunks {
        let i = c * 8;
        for (u, av) in acc.iter_mut().enumerate() {
            *av += a[i + u] * b[i + u];
        }
    }
    let mut sum = (acc[0] + acc[1]) + (acc[2] + acc[3]) + ((acc[4] + acc[5]) + (acc[6] + acc[7]));
    for i in chunks * 8..a.len() {
        sum += a[i] * b[i];
    }
    sum
}

// ---------------------------------------------------------------------
// dot4
// ---------------------------------------------------------------------

/// Four simultaneous dot products sharing one pass over `a`, at the
/// detected level. This is the inner kernel of both the NT GEMM and
/// GEMV.
///
/// # Panics
///
/// Panics (in debug builds) if any `b` row is shorter than `a`.
#[inline]
pub fn dot4(a: &[f32], b0: &[f32], b1: &[f32], b2: &[f32], b3: &[f32]) -> [f32; 4] {
    dot4_with(level(), a, b0, b1, b2, b3)
}

/// [`dot4`] at an explicit level; an unsupported level falls back to
/// the scalar kernel.
///
/// # Panics
///
/// Panics if any `b` row is shorter than `a` (a real assert, not a
/// debug one: the wide paths do unchecked unaligned loads up to
/// `a.len()` and must not be reachable out of bounds from safe code).
#[inline]
pub fn dot4_with(l: Level, a: &[f32], b0: &[f32], b1: &[f32], b2: &[f32], b3: &[f32]) -> [f32; 4] {
    let n = a.len();
    assert!(
        b0.len() >= n && b1.len() >= n && b2.len() >= n && b3.len() >= n,
        "dot4: b rows shorter than a"
    );
    match l {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the feature is verified on this CPU, and every row is
        // at least `a.len()` long (asserted above).
        Level::Avx2 if level_supported(l) => unsafe { dot4_avx2(a, b0, b1, b2, b3) },
        #[cfg(target_arch = "x86_64")]
        Level::Avx512 if level_supported(l) => unsafe { dot4_avx512(a, b0, b1, b2, b3) },
        _ => dot4_scalar(a, b0, b1, b2, b3),
    }
}

/// Scalar `dot4`: four [`dot_scalar`]s (the shared accumulation order).
pub fn dot4_scalar(a: &[f32], b0: &[f32], b1: &[f32], b2: &[f32], b3: &[f32]) -> [f32; 4] {
    [b0, b1, b2, b3].map(|b| dot_scalar(a, &b[..a.len()]))
}

// ---------------------------------------------------------------------
// dot8
// ---------------------------------------------------------------------

/// Eight simultaneous dot products sharing one pass over `a` — the
/// widest accumulator shape of the NT micro-kernel (eight independent
/// FMA chains amortize each `a` load and hide FMA latency).
///
/// # Panics
///
/// Panics (in debug builds) if any `b` row is shorter than `a`.
#[inline]
pub fn dot8(a: &[f32], b: &[&[f32]; 8]) -> [f32; 8] {
    dot8_with(level(), a, b)
}

/// [`dot8`] at an explicit level; an unsupported level falls back to
/// the scalar kernel.
///
/// # Panics
///
/// Panics if any `b` row is shorter than `a` (a real assert — see
/// [`dot4_with`]).
#[inline]
pub fn dot8_with(l: Level, a: &[f32], b: &[&[f32]; 8]) -> [f32; 8] {
    assert!(
        b.iter().all(|r| r.len() >= a.len()),
        "dot8: b rows shorter than a"
    );
    match l {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the feature is verified on this CPU, and every row is
        // at least `a.len()` long (asserted above).
        Level::Avx2 if level_supported(l) => unsafe { dot8_avx2(a, b) },
        #[cfg(target_arch = "x86_64")]
        Level::Avx512 if level_supported(l) => unsafe { dot8_avx512(a, b) },
        _ => dot8_scalar(a, b),
    }
}

/// Scalar `dot8`: eight [`dot_scalar`]s (the shared accumulation order).
pub fn dot8_scalar(a: &[f32], b: &[&[f32]; 8]) -> [f32; 8] {
    b.map(|b| dot_scalar(a, &b[..a.len()]))
}

// ---------------------------------------------------------------------
// dot8x2
// ---------------------------------------------------------------------

/// Two `a` rows against the same eight `b` rows: sixteen simultaneous
/// dot products where each `b` load feeds **two** FMA chains. This is
/// the row-pair register blocking of the NT micro-kernel for multi-row
/// (super-wave) GEMMs — the b-panel traffic per row halves, which is
/// what bounds the 16-accumulator AVX-512 shape. Results are
/// **bit-identical** to two independent [`dot8`] calls (each row's
/// chains accumulate in the same order).
///
/// # Panics
///
/// Panics if `a1` is shorter than `a0` or any `b` row is shorter than
/// `a0`.
#[inline]
pub fn dot8x2(a0: &[f32], a1: &[f32], b: &[&[f32]; 8]) -> [[f32; 8]; 2] {
    dot8x2_with(level(), a0, a1, b)
}

/// [`dot8x2`] at an explicit level; an unsupported level falls back to
/// the scalar kernel. AVX2 has too few vector registers for sixteen
/// accumulators and runs the two rows as consecutive [`dot8`]s.
///
/// # Panics
///
/// See [`dot8x2`].
#[inline]
pub fn dot8x2_with(l: Level, a0: &[f32], a1: &[f32], b: &[&[f32]; 8]) -> [[f32; 8]; 2] {
    assert!(a1.len() >= a0.len(), "dot8x2: a1 shorter than a0");
    assert!(
        b.iter().all(|r| r.len() >= a0.len()),
        "dot8x2: b rows shorter than a0"
    );
    let a1 = &a1[..a0.len()];
    match l {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the feature is verified on this CPU, and every row is
        // at least `a0.len()` long (asserted above).
        Level::Avx512 if level_supported(l) => unsafe { dot8x2_avx512(a0, a1, b) },
        #[cfg(target_arch = "x86_64")]
        Level::Avx2 if level_supported(l) => unsafe { [dot8_avx2(a0, b), dot8_avx2(a1, b)] },
        _ => dot8x2_scalar(a0, a1, b),
    }
}

/// Scalar `dot8x2`: two independent [`dot8_scalar`] passes.
pub fn dot8x2_scalar(a0: &[f32], a1: &[f32], b: &[&[f32]; 8]) -> [[f32; 8]; 2] {
    [dot8_scalar(a0, b), dot8_scalar(a1, b)]
}

// ---------------------------------------------------------------------
// axpy
// ---------------------------------------------------------------------

/// `y += x` over slices at the detected level (the child-sum
/// accumulation of the wave packer's gather loop).
///
/// # Panics
///
/// Panics if lengths differ.
#[inline]
pub fn axpy(y: &mut [f32], x: &[f32]) {
    axpy_with(level(), y, x);
}

/// [`axpy`] at an explicit level; an unsupported level falls back to
/// the scalar kernel.
///
/// # Panics
///
/// Panics if lengths differ.
#[inline]
pub fn axpy_with(l: Level, y: &mut [f32], x: &[f32]) {
    assert_eq!(y.len(), x.len(), "axpy of unequal lengths");
    match l {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the feature is verified on this CPU, and the slices
        // are equal-length (asserted above).
        Level::Avx2 if level_supported(l) => unsafe { axpy_avx2(y, x) },
        #[cfg(target_arch = "x86_64")]
        Level::Avx512 if level_supported(l) => unsafe { axpy_avx512(y, x) },
        _ => axpy_scalar(y, x),
    }
}

/// Scalar `axpy`.
pub fn axpy_scalar(y: &mut [f32], x: &[f32]) {
    for (yv, &xv) in y.iter_mut().zip(x) {
        *yv += xv;
    }
}

// ---------------------------------------------------------------------
// Elementwise kernels: nonlinearity slices and register-tile programs
// ---------------------------------------------------------------------
//
// Everything below evaluates the lane-generic routines of
// [`crate::approx`] at the dispatched width. Unlike the reductions above
// there is no reassociation and no FMA: every level executes the same
// IEEE operation sequence per element, so results are **bit-identical**
// across levels and to the scalar `approx` functions.

use crate::approx::{self, Lanes, NonlinearityMode};

/// Lane count of one register tile of a [`run_tile`] program (a
/// multiple of every level's vector width). At 128 lanes a 20-register
/// program keeps 10 kB live — well inside L1 — and an `h = 256` row is
/// two tiles; 64 lanes measured 7% slower on the TreeLSTM epilogue (the
/// per-tile copy and call overheads double), 256 lanes no faster.
pub const TILE: usize = 128;

/// Elementwise unary operators of a tile program.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TileUnary {
    /// Register copy.
    Copy,
    /// Sign flip.
    Neg,
    /// `max(x, 0)` (NaN → 0).
    Relu,
    /// [`approx::exp_exact`].
    Exp,
    /// `tanh` in the program's [`NonlinearityMode`].
    Tanh,
    /// Logistic sigmoid in the program's [`NonlinearityMode`].
    Sigmoid,
}

/// Elementwise binary operators of a tile program.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TileBinary {
    /// `a + b`.
    Add,
    /// `a - b`.
    Sub,
    /// `a * b`.
    Mul,
    /// `a / b`.
    Div,
    /// IEEE `maxNum`.
    Max,
    /// IEEE `minNum`.
    Min,
}

impl TileUnary {
    /// The scalar form: exactly what [`run_tile`] computes per lane.
    pub fn apply(self, mode: NonlinearityMode, x: f32) -> f32 {
        self.lanes(mode, x)
    }

    #[inline(always)]
    fn lanes<L: Lanes>(self, mode: NonlinearityMode, x: L) -> L {
        match self {
            TileUnary::Copy => x,
            TileUnary::Neg => x.neg(),
            TileUnary::Relu => approx::relu_lanes(x),
            TileUnary::Exp => approx::exp_lanes(x),
            TileUnary::Tanh => mode.tanh_lanes(x),
            TileUnary::Sigmoid => mode.sigmoid_lanes(x),
        }
    }
}

impl TileBinary {
    /// The scalar form: exactly what [`run_tile`] computes per lane.
    pub fn apply(self, x: f32, y: f32) -> f32 {
        self.lanes(x, y)
    }

    #[inline(always)]
    fn lanes<L: Lanes>(self, x: L, y: L) -> L {
        match self {
            TileBinary::Add => x.add(y),
            TileBinary::Sub => x.sub(y),
            TileBinary::Mul => x.mul(y),
            TileBinary::Div => x.div(y),
            TileBinary::Max => approx::max_lanes(x, y),
            TileBinary::Min => approx::min_lanes(x, y),
        }
    }
}

/// One instruction of a register-tile program: registers are
/// [`TILE`]-lane columns of one flat scratch slice, addressed by index.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TileOp {
    /// `dst ← value` in every lane.
    Const {
        /// Destination register.
        dst: u16,
        /// Broadcast value.
        value: f32,
    },
    /// `dst ← op(a)`.
    Unary {
        /// Operator.
        op: TileUnary,
        /// Destination register (may alias `a`).
        dst: u16,
        /// Operand register.
        a: u16,
    },
    /// `dst ← op(a, b)`.
    Binary {
        /// Operator.
        op: TileBinary,
        /// Destination register (may alias an operand).
        dst: u16,
        /// Left operand register.
        a: u16,
        /// Right operand register.
        b: u16,
    },
}

/// Runs a straight-line tile program over the first `lanes` lanes of
/// every register it names, at the detected level. `regs` holds
/// `regs.len() / TILE` registers; lanes at and beyond `lanes` (up to the
/// next vector boundary) may be overwritten with unspecified values.
///
/// # Panics
///
/// Panics if `lanes > TILE` or an instruction names a register outside
/// `regs`.
#[inline]
pub fn run_tile(ops: &[TileOp], regs: &mut [f32], lanes: usize, mode: NonlinearityMode) {
    run_tile_with(level(), ops, regs, lanes, mode);
}

/// [`run_tile`] at an explicit level; an unsupported level falls back to
/// the scalar kernel.
///
/// # Panics
///
/// See [`run_tile`].
pub fn run_tile_with(
    l: Level,
    ops: &[TileOp],
    regs: &mut [f32],
    lanes: usize,
    mode: NonlinearityMode,
) {
    assert!(lanes <= TILE, "tile program over {lanes} > {TILE} lanes");
    match l {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the feature is verified on this CPU.
        Level::Avx2 if level_supported(l) => unsafe { run_tile_avx2(ops, regs, lanes, mode) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the feature is verified on this CPU.
        Level::Avx512 if level_supported(l) => unsafe { run_tile_avx512(ops, regs, lanes, mode) },
        _ => run_tile_lanes::<f32>(ops, regs, lanes, mode),
    }
}

/// The tile interpreter, generic over the lane width: dispatch on the
/// operator happens once per instruction, outside the per-vector loop.
#[inline(always)]
fn run_tile_lanes<L: Lanes>(
    ops: &[TileOp],
    regs: &mut [f32],
    lanes: usize,
    mode: NonlinearityMode,
) {
    let span = lanes.div_ceil(L::N) * L::N;
    for op in ops {
        match *op {
            TileOp::Const { dst, value } => {
                let d = usize::from(dst) * TILE;
                regs[d..d + span].fill(value);
            }
            TileOp::Unary { op, dst, a } => {
                let (d, a) = (usize::from(dst) * TILE, usize::from(a) * TILE);
                // One monomorphic loop per operator, so the lane
                // routine inlines into straight-line vector code.
                macro_rules! each {
                    ($f:expr) => {
                        for i in (0..span).step_by(L::N) {
                            let x = L::load(&regs[a + i..a + i + L::N]);
                            $f(x).store(&mut regs[d + i..d + i + L::N]);
                        }
                    };
                }
                match (op, mode) {
                    (TileUnary::Copy, _) => regs.copy_within(a..a + span, d),
                    (TileUnary::Neg, _) => each!(|x: L| x.neg()),
                    (TileUnary::Relu, _) => each!(approx::relu_lanes::<L>),
                    (TileUnary::Exp, _) => each!(approx::exp_lanes::<L>),
                    (TileUnary::Tanh, NonlinearityMode::Exact) => each!(approx::tanh_lanes::<L>),
                    (TileUnary::Tanh, NonlinearityMode::Rational) => {
                        each!(approx::tanh_rational_lanes::<L>)
                    }
                    (TileUnary::Sigmoid, NonlinearityMode::Exact) => {
                        each!(approx::sigmoid_lanes::<L>)
                    }
                    (TileUnary::Sigmoid, NonlinearityMode::Rational) => {
                        each!(approx::sigmoid_rational_lanes::<L>)
                    }
                }
            }
            TileOp::Binary { op, dst, a, b } => {
                let d = usize::from(dst) * TILE;
                let (a, b) = (usize::from(a) * TILE, usize::from(b) * TILE);
                macro_rules! each {
                    ($f:expr) => {
                        for i in (0..span).step_by(L::N) {
                            let x = L::load(&regs[a + i..a + i + L::N]);
                            let y = L::load(&regs[b + i..b + i + L::N]);
                            $f(x, y).store(&mut regs[d + i..d + i + L::N]);
                        }
                    };
                }
                match op {
                    TileBinary::Add => each!(L::add),
                    TileBinary::Sub => each!(L::sub),
                    TileBinary::Mul => each!(L::mul),
                    TileBinary::Div => each!(L::div),
                    TileBinary::Max => each!(approx::max_lanes::<L>),
                    TileBinary::Min => each!(approx::min_lanes::<L>),
                }
            }
        }
    }
}

/// Applies a unary operator in place over a slice of any length at
/// level `l` (whole tiles in place, the ragged tail through a
/// zero-padded stack tile — the same lane routine either way); an
/// unsupported level falls back to the scalar kernel.
pub fn unary_slice(l: Level, op: TileUnary, mode: NonlinearityMode, xs: &mut [f32]) {
    let prog = [TileOp::Unary { op, dst: 0, a: 0 }];
    let mut chunks = xs.chunks_exact_mut(TILE);
    for chunk in &mut chunks {
        run_tile_with(l, &prog, chunk, TILE, mode);
    }
    let tail = chunks.into_remainder();
    if !tail.is_empty() {
        let mut reg = [0.0f32; TILE];
        reg[..tail.len()].copy_from_slice(tail);
        run_tile_with(l, &prog, &mut reg, tail.len(), mode);
        tail.copy_from_slice(&reg[..tail.len()]);
    }
}

// ---------------------------------------------------------------------
// AVX2 + FMA (8-lane)
// ---------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::{run_tile_lanes, Lanes, NonlinearityMode, TileOp};
    use std::arch::x86_64::*;

    #[inline]
    unsafe fn hsum256(v: __m256) -> f32 {
        // SAFETY: caller guarantees AVX is available.
        unsafe {
            let lo = _mm256_castps256_ps128(v);
            let hi = _mm256_extractf128_ps(v, 1);
            let s = _mm_add_ps(lo, hi);
            let s = _mm_add_ps(s, _mm_movehl_ps(s, s));
            let s = _mm_add_ss(s, _mm_shuffle_ps(s, s, 1));
            _mm_cvtss_f32(s)
        }
    }

    /// 8-lane dot with two accumulator chains (hides FMA latency).
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn dot_avx2(a: &[f32], b: &[f32]) -> f32 {
        // SAFETY (all pointer arithmetic below): `i + 16 <= n` /
        // `i + 8 <= n` bounds every unaligned load to the slices.
        unsafe {
            let n = a.len();
            let (ap, bp) = (a.as_ptr(), b.as_ptr());
            let mut acc0 = _mm256_setzero_ps();
            let mut acc1 = _mm256_setzero_ps();
            let mut i = 0usize;
            while i + 16 <= n {
                acc0 =
                    _mm256_fmadd_ps(_mm256_loadu_ps(ap.add(i)), _mm256_loadu_ps(bp.add(i)), acc0);
                acc1 = _mm256_fmadd_ps(
                    _mm256_loadu_ps(ap.add(i + 8)),
                    _mm256_loadu_ps(bp.add(i + 8)),
                    acc1,
                );
                i += 16;
            }
            if i + 8 <= n {
                acc0 =
                    _mm256_fmadd_ps(_mm256_loadu_ps(ap.add(i)), _mm256_loadu_ps(bp.add(i)), acc0);
                i += 8;
            }
            let mut sum = hsum256(_mm256_add_ps(acc0, acc1));
            while i < n {
                sum = a[i].mul_add(b[i], sum);
                i += 1;
            }
            sum
        }
    }

    /// Four dots sharing one pass over `a`, 8-lane FMA per row.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn dot4_avx2(a: &[f32], b0: &[f32], b1: &[f32], b2: &[f32], b3: &[f32]) -> [f32; 4] {
        // SAFETY: the caller checks every row is at least `a.len()`
        // long; loads stay inside `i + 8 <= n`.
        unsafe {
            let n = a.len();
            let ap = a.as_ptr();
            let bps = [b0.as_ptr(), b1.as_ptr(), b2.as_ptr(), b3.as_ptr()];
            let mut acc = [_mm256_setzero_ps(); 4];
            let mut i = 0usize;
            while i + 8 <= n {
                let va = _mm256_loadu_ps(ap.add(i));
                for j in 0..4 {
                    acc[j] = _mm256_fmadd_ps(va, _mm256_loadu_ps(bps[j].add(i)), acc[j]);
                }
                i += 8;
            }
            let mut out = [
                hsum256(acc[0]),
                hsum256(acc[1]),
                hsum256(acc[2]),
                hsum256(acc[3]),
            ];
            while i < n {
                let av = a[i];
                out[0] = av.mul_add(b0[i], out[0]);
                out[1] = av.mul_add(b1[i], out[1]);
                out[2] = av.mul_add(b2[i], out[2]);
                out[3] = av.mul_add(b3[i], out[3]);
                i += 1;
            }
            out
        }
    }

    /// Eight dots sharing one pass over `a`: eight 8-lane FMA chains.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn dot8_avx2(a: &[f32], b: &[&[f32]; 8]) -> [f32; 8] {
        // SAFETY: rows are at least `a.len()` long (caller-checked);
        // loads stay inside `i + 8 <= n`.
        unsafe {
            let n = a.len();
            let ap = a.as_ptr();
            let mut acc = [_mm256_setzero_ps(); 8];
            let mut i = 0usize;
            while i + 8 <= n {
                let va = _mm256_loadu_ps(ap.add(i));
                for j in 0..8 {
                    acc[j] = _mm256_fmadd_ps(va, _mm256_loadu_ps(b[j].as_ptr().add(i)), acc[j]);
                }
                i += 8;
            }
            let mut out = [0.0f32; 8];
            for (j, o) in out.iter_mut().enumerate() {
                *o = hsum256(acc[j]);
            }
            while i < n {
                let av = a[i];
                for (j, o) in out.iter_mut().enumerate() {
                    *o = av.mul_add(b[j][i], *o);
                }
                i += 1;
            }
            out
        }
    }

    /// Eight `f32` lanes in a `__m256` ([`Lanes`] at the AVX2 level).
    /// Only constructed inside `#[target_feature(enable = "avx2")]`
    /// entry points, after the runtime feature check.
    #[derive(Clone, Copy)]
    pub struct V256(__m256);

    // SAFETY (every intrinsic below): `V256` values exist only in code
    // reached through an AVX2-checked entry point; loads and stores go
    // through bounds-checked `N`-element subslices.
    impl Lanes for V256 {
        const N: usize = 8;
        type Mask = __m256;

        #[inline(always)]
        fn splat(x: f32) -> Self {
            V256(unsafe { _mm256_set1_ps(x) })
        }
        #[inline(always)]
        fn load(src: &[f32]) -> Self {
            let src = &src[..8];
            V256(unsafe { _mm256_loadu_ps(src.as_ptr()) })
        }
        #[inline(always)]
        fn store(self, dst: &mut [f32]) {
            let dst = &mut dst[..8];
            unsafe { _mm256_storeu_ps(dst.as_mut_ptr(), self.0) }
        }
        #[inline(always)]
        fn add(self, o: Self) -> Self {
            V256(unsafe { _mm256_add_ps(self.0, o.0) })
        }
        #[inline(always)]
        fn sub(self, o: Self) -> Self {
            V256(unsafe { _mm256_sub_ps(self.0, o.0) })
        }
        #[inline(always)]
        fn mul(self, o: Self) -> Self {
            V256(unsafe { _mm256_mul_ps(self.0, o.0) })
        }
        #[inline(always)]
        fn div(self, o: Self) -> Self {
            V256(unsafe { _mm256_div_ps(self.0, o.0) })
        }
        #[inline(always)]
        fn abs(self) -> Self {
            V256(unsafe { _mm256_andnot_ps(_mm256_set1_ps(-0.0), self.0) })
        }
        #[inline(always)]
        fn neg(self) -> Self {
            V256(unsafe { _mm256_xor_ps(_mm256_set1_ps(-0.0), self.0) })
        }
        #[inline(always)]
        fn copysign(self, sign: Self) -> Self {
            unsafe {
                let m = _mm256_set1_ps(-0.0);
                V256(_mm256_or_ps(
                    _mm256_andnot_ps(m, self.0),
                    _mm256_and_ps(m, sign.0),
                ))
            }
        }
        #[inline(always)]
        fn shl23(self) -> Self {
            unsafe {
                V256(_mm256_castsi256_ps(_mm256_slli_epi32(
                    _mm256_castps_si256(self.0),
                    23,
                )))
            }
        }
        #[inline(always)]
        fn lt(self, o: Self) -> __m256 {
            unsafe { _mm256_cmp_ps(self.0, o.0, _CMP_LT_OQ) }
        }
        #[inline(always)]
        fn is_nan(self) -> __m256 {
            unsafe { _mm256_cmp_ps(self.0, self.0, _CMP_UNORD_Q) }
        }
        #[inline(always)]
        fn select(m: __m256, a: Self, b: Self) -> Self {
            V256(unsafe { _mm256_blendv_ps(b.0, a.0, m) })
        }
    }

    /// The tile interpreter at 8 lanes.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn run_tile_avx2(
        ops: &[TileOp],
        regs: &mut [f32],
        lanes: usize,
        mode: NonlinearityMode,
    ) {
        run_tile_lanes::<V256>(ops, regs, lanes, mode);
    }

    /// 8-lane `y += x`.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn axpy_avx2(y: &mut [f32], x: &[f32]) {
        // SAFETY: `i + 8 <= n` bounds every load/store; lengths are
        // checked equal by the caller.
        unsafe {
            let n = y.len();
            let yp = y.as_mut_ptr();
            let xp = x.as_ptr();
            let mut i = 0usize;
            while i + 8 <= n {
                let v = _mm256_add_ps(_mm256_loadu_ps(yp.add(i)), _mm256_loadu_ps(xp.add(i)));
                _mm256_storeu_ps(yp.add(i), v);
                i += 8;
            }
            while i < n {
                y[i] += x[i];
                i += 1;
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
use avx2::{axpy_avx2, dot4_avx2, dot8_avx2, dot_avx2, run_tile_avx2};

// ---------------------------------------------------------------------
// AVX-512F (16-lane, masked tails)
// ---------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod avx512 {
    use super::{run_tile_lanes, Lanes, NonlinearityMode, TileOp};
    use std::arch::x86_64::*;

    /// 16-lane dot with two accumulator chains and a masked tail.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn dot_avx512(a: &[f32], b: &[f32]) -> f32 {
        // SAFETY: full loads are bounded by `i + 16/32 <= n`; the tail
        // load is masked to the remaining `n - i` lanes.
        unsafe {
            let n = a.len();
            let (ap, bp) = (a.as_ptr(), b.as_ptr());
            let mut acc0 = _mm512_setzero_ps();
            let mut acc1 = _mm512_setzero_ps();
            let mut i = 0usize;
            while i + 32 <= n {
                acc0 =
                    _mm512_fmadd_ps(_mm512_loadu_ps(ap.add(i)), _mm512_loadu_ps(bp.add(i)), acc0);
                acc1 = _mm512_fmadd_ps(
                    _mm512_loadu_ps(ap.add(i + 16)),
                    _mm512_loadu_ps(bp.add(i + 16)),
                    acc1,
                );
                i += 32;
            }
            if i + 16 <= n {
                acc0 =
                    _mm512_fmadd_ps(_mm512_loadu_ps(ap.add(i)), _mm512_loadu_ps(bp.add(i)), acc0);
                i += 16;
            }
            if i < n {
                let m: __mmask16 = (1u16 << (n - i)) - 1;
                acc1 = _mm512_fmadd_ps(
                    _mm512_maskz_loadu_ps(m, ap.add(i)),
                    _mm512_maskz_loadu_ps(m, bp.add(i)),
                    acc1,
                );
            }
            _mm512_reduce_add_ps(_mm512_add_ps(acc0, acc1))
        }
    }

    /// Four dots sharing one pass over `a`, 16-lane FMA per row.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn dot4_avx512(
        a: &[f32],
        b0: &[f32],
        b1: &[f32],
        b2: &[f32],
        b3: &[f32],
    ) -> [f32; 4] {
        // SAFETY: rows are at least `a.len()` long (caller-checked);
        // the tail is masked.
        unsafe {
            let n = a.len();
            let ap = a.as_ptr();
            let bps = [b0.as_ptr(), b1.as_ptr(), b2.as_ptr(), b3.as_ptr()];
            let mut acc = [_mm512_setzero_ps(); 4];
            let mut i = 0usize;
            while i + 16 <= n {
                let va = _mm512_loadu_ps(ap.add(i));
                for j in 0..4 {
                    acc[j] = _mm512_fmadd_ps(va, _mm512_loadu_ps(bps[j].add(i)), acc[j]);
                }
                i += 16;
            }
            if i < n {
                let m: __mmask16 = (1u16 << (n - i)) - 1;
                let va = _mm512_maskz_loadu_ps(m, ap.add(i));
                for j in 0..4 {
                    acc[j] = _mm512_fmadd_ps(va, _mm512_maskz_loadu_ps(m, bps[j].add(i)), acc[j]);
                }
            }
            [
                _mm512_reduce_add_ps(acc[0]),
                _mm512_reduce_add_ps(acc[1]),
                _mm512_reduce_add_ps(acc[2]),
                _mm512_reduce_add_ps(acc[3]),
            ]
        }
    }

    /// Eight dots sharing one pass over `a`: eight 16-lane FMA chains.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn dot8_avx512(a: &[f32], b: &[&[f32]; 8]) -> [f32; 8] {
        // SAFETY: rows are at least `a.len()` long (caller-checked);
        // the tail is masked.
        unsafe {
            let n = a.len();
            let ap = a.as_ptr();
            let mut acc = [_mm512_setzero_ps(); 8];
            let mut i = 0usize;
            while i + 16 <= n {
                let va = _mm512_loadu_ps(ap.add(i));
                for j in 0..8 {
                    acc[j] = _mm512_fmadd_ps(va, _mm512_loadu_ps(b[j].as_ptr().add(i)), acc[j]);
                }
                i += 16;
            }
            if i < n {
                let m: __mmask16 = (1u16 << (n - i)) - 1;
                let va = _mm512_maskz_loadu_ps(m, ap.add(i));
                for j in 0..8 {
                    acc[j] =
                        _mm512_fmadd_ps(va, _mm512_maskz_loadu_ps(m, b[j].as_ptr().add(i)), acc[j]);
                }
            }
            let mut out = [0.0f32; 8];
            for (j, o) in out.iter_mut().enumerate() {
                *o = _mm512_reduce_add_ps(acc[j]);
            }
            out
        }
    }

    /// Sixteen dots as an 2×8 register block: each 16-lane `b` load
    /// feeds two FMA chains (one per `a` row). Per-row accumulation
    /// order is identical to [`dot8_avx512`], so results are
    /// bit-identical to two independent calls.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn dot8x2_avx512(a0: &[f32], a1: &[f32], b: &[&[f32]; 8]) -> [[f32; 8]; 2] {
        // SAFETY: rows are at least `a0.len()` long (caller-checked);
        // the tail is masked.
        unsafe {
            let n = a0.len();
            let (ap0, ap1) = (a0.as_ptr(), a1.as_ptr());
            let mut acc0 = [_mm512_setzero_ps(); 8];
            let mut acc1 = [_mm512_setzero_ps(); 8];
            let mut i = 0usize;
            while i + 16 <= n {
                let va0 = _mm512_loadu_ps(ap0.add(i));
                let va1 = _mm512_loadu_ps(ap1.add(i));
                for j in 0..8 {
                    let vb = _mm512_loadu_ps(b[j].as_ptr().add(i));
                    acc0[j] = _mm512_fmadd_ps(va0, vb, acc0[j]);
                    acc1[j] = _mm512_fmadd_ps(va1, vb, acc1[j]);
                }
                i += 16;
            }
            if i < n {
                let m: __mmask16 = (1u16 << (n - i)) - 1;
                let va0 = _mm512_maskz_loadu_ps(m, ap0.add(i));
                let va1 = _mm512_maskz_loadu_ps(m, ap1.add(i));
                for j in 0..8 {
                    let vb = _mm512_maskz_loadu_ps(m, b[j].as_ptr().add(i));
                    acc0[j] = _mm512_fmadd_ps(va0, vb, acc0[j]);
                    acc1[j] = _mm512_fmadd_ps(va1, vb, acc1[j]);
                }
            }
            let mut out = [[0.0f32; 8]; 2];
            for j in 0..8 {
                out[0][j] = _mm512_reduce_add_ps(acc0[j]);
                out[1][j] = _mm512_reduce_add_ps(acc1[j]);
            }
            out
        }
    }

    /// Sixteen `f32` lanes in a `__m512` ([`Lanes`] at the AVX-512
    /// level). Only constructed inside
    /// `#[target_feature(enable = "avx512f")]` entry points, after the
    /// runtime feature check.
    #[derive(Clone, Copy)]
    pub struct V512(__m512);

    // SAFETY (every intrinsic below): `V512` values exist only in code
    // reached through an AVX-512F-checked entry point; loads and stores
    // go through bounds-checked `N`-element subslices. Bit operations
    // use the integer forms (`AVX512F`; the `_ps` forms need `DQ`).
    impl Lanes for V512 {
        const N: usize = 16;
        type Mask = __mmask16;

        #[inline(always)]
        fn splat(x: f32) -> Self {
            V512(unsafe { _mm512_set1_ps(x) })
        }
        #[inline(always)]
        fn load(src: &[f32]) -> Self {
            let src = &src[..16];
            V512(unsafe { _mm512_loadu_ps(src.as_ptr()) })
        }
        #[inline(always)]
        fn store(self, dst: &mut [f32]) {
            let dst = &mut dst[..16];
            unsafe { _mm512_storeu_ps(dst.as_mut_ptr(), self.0) }
        }
        #[inline(always)]
        fn add(self, o: Self) -> Self {
            V512(unsafe { _mm512_add_ps(self.0, o.0) })
        }
        #[inline(always)]
        fn sub(self, o: Self) -> Self {
            V512(unsafe { _mm512_sub_ps(self.0, o.0) })
        }
        #[inline(always)]
        fn mul(self, o: Self) -> Self {
            V512(unsafe { _mm512_mul_ps(self.0, o.0) })
        }
        #[inline(always)]
        fn div(self, o: Self) -> Self {
            V512(unsafe { _mm512_div_ps(self.0, o.0) })
        }
        #[inline(always)]
        fn abs(self) -> Self {
            unsafe {
                let m = _mm512_set1_epi32(0x7fff_ffff);
                V512(_mm512_castsi512_ps(_mm512_and_si512(
                    _mm512_castps_si512(self.0),
                    m,
                )))
            }
        }
        #[inline(always)]
        fn neg(self) -> Self {
            unsafe {
                let m = _mm512_set1_epi32(i32::MIN);
                V512(_mm512_castsi512_ps(_mm512_xor_si512(
                    _mm512_castps_si512(self.0),
                    m,
                )))
            }
        }
        #[inline(always)]
        fn copysign(self, sign: Self) -> Self {
            unsafe {
                let m = _mm512_set1_epi32(i32::MIN);
                let mag = _mm512_andnot_si512(m, _mm512_castps_si512(self.0));
                let sgn = _mm512_and_si512(m, _mm512_castps_si512(sign.0));
                V512(_mm512_castsi512_ps(_mm512_or_si512(mag, sgn)))
            }
        }
        #[inline(always)]
        fn shl23(self) -> Self {
            unsafe {
                V512(_mm512_castsi512_ps(_mm512_slli_epi32(
                    _mm512_castps_si512(self.0),
                    23,
                )))
            }
        }
        #[inline(always)]
        fn lt(self, o: Self) -> __mmask16 {
            unsafe { _mm512_cmp_ps_mask(self.0, o.0, _CMP_LT_OQ) }
        }
        #[inline(always)]
        fn is_nan(self) -> __mmask16 {
            unsafe { _mm512_cmp_ps_mask(self.0, self.0, _CMP_UNORD_Q) }
        }
        #[inline(always)]
        fn select(m: __mmask16, a: Self, b: Self) -> Self {
            V512(unsafe { _mm512_mask_blend_ps(m, b.0, a.0) })
        }
    }

    /// The tile interpreter at 16 lanes.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn run_tile_avx512(
        ops: &[TileOp],
        regs: &mut [f32],
        lanes: usize,
        mode: NonlinearityMode,
    ) {
        run_tile_lanes::<V512>(ops, regs, lanes, mode);
    }

    /// 16-lane `y += x` with a masked tail.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn axpy_avx512(y: &mut [f32], x: &[f32]) {
        // SAFETY: full ops bounded by `i + 16 <= n`; tail masked.
        unsafe {
            let n = y.len();
            let yp = y.as_mut_ptr();
            let xp = x.as_ptr();
            let mut i = 0usize;
            while i + 16 <= n {
                let v = _mm512_add_ps(_mm512_loadu_ps(yp.add(i)), _mm512_loadu_ps(xp.add(i)));
                _mm512_storeu_ps(yp.add(i), v);
                i += 16;
            }
            if i < n {
                let m: __mmask16 = (1u16 << (n - i)) - 1;
                let v = _mm512_add_ps(
                    _mm512_maskz_loadu_ps(m, yp.add(i)),
                    _mm512_maskz_loadu_ps(m, xp.add(i)),
                );
                _mm512_mask_storeu_ps(yp.add(i), m, v);
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
use avx512::{axpy_avx512, dot4_avx512, dot8_avx512, dot8x2_avx512, dot_avx512, run_tile_avx512};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tensor::Tensor;

    /// Relative-ish tolerance for reassociated/FMA-contracted sums.
    fn close(a: f32, b: f32, tol: f32) -> bool {
        (a - b).abs() <= tol * (1.0 + a.abs().max(b.abs()))
    }

    #[test]
    fn detection_is_cached_and_consistent() {
        assert_eq!(level(), level());
        assert!(available_levels().contains(&Level::Scalar));
    }

    #[test]
    fn wide_dot_matches_scalar_on_all_tail_lengths() {
        for l in available_levels() {
            for n in [0usize, 1, 3, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 130, 257] {
                let a = Tensor::random(&[n.max(1)], 1.0, n as u64 + 1);
                let b = Tensor::random(&[n.max(1)], 1.0, n as u64 + 1000);
                let (a, b) = (&a.as_slice()[..n], &b.as_slice()[..n]);
                let want = dot_scalar(a, b);
                let got = dot_with(l, a, b);
                assert!(close(got, want, 1e-5), "{l:?} n={n}: {got} vs {want}");
            }
        }
    }

    #[test]
    fn wide_dot4_matches_scalar_on_edge_shapes() {
        for l in available_levels() {
            for n in [0usize, 1, 2, 5, 8, 15, 16, 17, 40, 129] {
                let a = Tensor::random(&[n.max(1)], 1.0, 7);
                let rows = Tensor::random(&[4, n.max(1)], 1.0, 8);
                let a = &a.as_slice()[..n];
                let r = |j: usize| &rows.row(j)[..n];
                let want = dot4_scalar(a, r(0), r(1), r(2), r(3));
                let got = dot4_with(l, a, r(0), r(1), r(2), r(3));
                for j in 0..4 {
                    assert!(
                        close(got[j], want[j], 1e-5),
                        "{l:?} n={n} j={j}: {} vs {}",
                        got[j],
                        want[j]
                    );
                }
            }
        }
    }

    #[test]
    fn wide_dot8_matches_scalar_on_edge_shapes() {
        for l in available_levels() {
            for n in [0usize, 1, 7, 8, 15, 16, 17, 31, 33, 100] {
                let a = Tensor::random(&[n.max(1)], 1.0, 9);
                let rows = Tensor::random(&[8, n.max(1)], 1.0, 10);
                let a = &a.as_slice()[..n];
                let b: [&[f32]; 8] = std::array::from_fn(|j| &rows.row(j)[..n]);
                let want = dot8_scalar(a, &b);
                let got = dot8_with(l, a, &b);
                for j in 0..8 {
                    assert!(
                        close(got[j], want[j], 1e-5),
                        "{l:?} n={n} j={j}: {} vs {}",
                        got[j],
                        want[j]
                    );
                }
            }
        }
    }

    #[test]
    fn multi_column_dots_are_bit_identical_to_dot() {
        // A GEMM element (from `dot4`/`dot8`) and the per-element `dot`
        // of the same row and column must not differ by a bit: the
        // wave-GEMM ≡ scalar-path suites rest on this. It holds for
        // every length at the scalar level and below 16 at the wide
        // ones, where `dot` switches to two accumulator chains and the
        // multi-column kernels keep one (ROADMAP, known gap).
        for l in available_levels() {
            for n in [0usize, 1, 5, 7, 8, 9, 15, 16, 17, 31, 33, 40, 100, 129, 256] {
                if l != Level::Scalar && n >= 16 {
                    continue;
                }
                let a = Tensor::random(&[n.max(1)], 1.0, 11);
                let rows = Tensor::random(&[8, n.max(1)], 1.0, 12);
                let a = &a.as_slice()[..n];
                let b: [&[f32]; 8] = std::array::from_fn(|j| &rows.row(j)[..n]);
                let four = dot4_with(l, a, b[0], b[1], b[2], b[3]);
                let eight = dot8_with(l, a, &b);
                for j in 0..8 {
                    let want = dot_with(l, a, b[j]);
                    assert_eq!(eight[j], want, "{l:?} n={n} dot8 column {j}");
                    if j < 4 {
                        assert_eq!(four[j], want, "{l:?} n={n} dot4 column {j}");
                    }
                }
            }
        }
    }

    #[test]
    fn dot8x2_is_bit_identical_to_two_dot8s() {
        // The row-pair block must not change a single bit vs per-row
        // execution — the super-wave executor's equivalence contract
        // (merged GEMMs ≡ solo GEMMs) rests on this.
        for l in available_levels() {
            for n in [0usize, 1, 7, 15, 16, 17, 31, 33, 100, 256] {
                let a = Tensor::random(&[2, n.max(1)], 1.0, 21);
                let rows = Tensor::random(&[8, n.max(1)], 1.0, 22);
                let (a0, a1) = (&a.row(0)[..n], &a.row(1)[..n]);
                let b: [&[f32]; 8] = std::array::from_fn(|j| &rows.row(j)[..n]);
                let got = dot8x2_with(l, a0, a1, &b);
                assert_eq!(got[0], dot8_with(l, a0, &b), "{l:?} n={n} row 0");
                assert_eq!(got[1], dot8_with(l, a1, &b), "{l:?} n={n} row 1");
            }
        }
    }

    #[test]
    fn wide_axpy_matches_scalar() {
        for l in available_levels() {
            for n in [0usize, 1, 7, 8, 9, 16, 17, 50, 255] {
                let x = Tensor::random(&[n.max(1)], 1.0, 3);
                let x = &x.as_slice()[..n];
                let mut want: Vec<f32> = (0..n).map(|i| i as f32).collect();
                let mut got = want.clone();
                axpy_scalar(&mut want, x);
                axpy_with(l, &mut got, x);
                assert_eq!(got, want, "{l:?} n={n}: axpy is exact, no reassociation");
            }
        }
    }

    #[test]
    fn all_levels_propagate_nan_and_inf() {
        // 0·∞ → NaN must survive in every lane position, including the
        // masked/scalar tails.
        for l in available_levels() {
            for n in [1usize, 8, 16, 17, 33] {
                for pos in [0, n / 2, n - 1] {
                    let mut a = vec![1.0f32; n];
                    let mut b = vec![1.0f32; n];
                    a[pos] = 0.0;
                    b[pos] = f32::INFINITY;
                    assert!(
                        dot_with(l, &a, &b).is_nan(),
                        "{l:?} n={n} pos={pos}: 0·∞ must poison the dot"
                    );
                    b[pos] = f32::NAN;
                    assert!(dot_with(l, &a, &b).is_nan());
                    let got = dot4_with(l, &a, &b, &b, &b, &b);
                    assert!(got.iter().all(|v| v.is_nan()), "{l:?} dot4 tail");
                }
            }
        }
    }

    #[test]
    fn zero_extent_reductions_are_exactly_zero() {
        for l in available_levels() {
            assert_eq!(dot_with(l, &[], &[]), 0.0, "{l:?}: K=0 dot");
            let z = dot4_with(l, &[], &[], &[], &[], &[]);
            assert_eq!(z, [0.0; 4], "{l:?}: K=0 dot4");
            let mut y: [f32; 0] = [];
            axpy_with(l, &mut y, &[]);
        }
    }

    #[test]
    fn vector_rational_nonlinearities_match_scalar_rational_and_bound_exact() {
        use crate::approx::{sigmoid_exact, sigmoid_rational, tanh_exact, tanh_rational};
        for l in available_levels() {
            for n in [0usize, 1, 7, 8, 9, 15, 16, 17, 31, 33, 100, 257] {
                let base: Vec<f32> = (0..n).map(|i| (i as f32) * 0.173 - 8.0).collect();
                // tanh: every lane bit-identical to the scalar rational
                // kernel and within 1e-4 of exact tanh.
                let mut got = base.clone();
                unary_slice(l, TileUnary::Tanh, NonlinearityMode::Rational, &mut got);
                for (i, (&g, &x)) in got.iter().zip(&base).enumerate() {
                    let scalar = tanh_rational(x);
                    assert!(
                        g.to_bits() == scalar.to_bits(),
                        "{l:?} tanh n={n} lane {i}: {g} vs scalar rational {scalar}"
                    );
                    assert!(
                        (g - tanh_exact(x)).abs() < 1e-4,
                        "{l:?} tanh n={n} lane {i}: error vs exact too large"
                    );
                }
                // sigmoid likewise.
                let mut got = base.clone();
                unary_slice(l, TileUnary::Sigmoid, NonlinearityMode::Rational, &mut got);
                for (i, (&g, &x)) in got.iter().zip(&base).enumerate() {
                    let scalar = sigmoid_rational(x);
                    assert!(
                        g.to_bits() == scalar.to_bits(),
                        "{l:?} sigmoid n={n} lane {i}: {g} vs scalar rational {scalar}"
                    );
                    assert!(
                        (g - sigmoid_exact(x)).abs() < 1e-4,
                        "{l:?} sigmoid n={n} lane {i}: error vs exact too large"
                    );
                }
            }
        }
    }

    #[test]
    fn vector_rational_tanh_saturates_at_extremes() {
        for l in available_levels() {
            let mut xs = vec![-100.0f32, -9.5, 0.0, 9.5, 100.0];
            unary_slice(l, TileUnary::Tanh, NonlinearityMode::Rational, &mut xs);
            assert!((xs[0] + 1.0).abs() < 1e-4, "{l:?}");
            assert!((xs[4] - 1.0).abs() < 1e-4, "{l:?}");
            assert_eq!(xs[2], 0.0, "{l:?}: tanh(0) is exactly zero");
        }
    }

    /// Inputs that cross every branch of the exact routines: both
    /// polynomial/exponential regimes, the saturation and clamp
    /// thresholds, zeros, subnormals, infinities and NaN.
    fn nonlinearity_probe(n: usize) -> Vec<f32> {
        const EDGES: [f32; 16] = [
            0.0,
            -0.0,
            1.0e-41,
            f32::MIN_POSITIVE,
            0.624_999_9,
            0.625,
            -9.011,
            9.2,
            17.4,
            -87.9,
            88.73,
            -103.9,
            -104.6,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
        ];
        (0..n)
            .map(|i| match i % 3 {
                0 => EDGES[(i / 3) % EDGES.len()],
                1 => (i as f32) * 0.173 - 5.0,
                _ => (i as f32 - 30.0) * 1.7,
            })
            .collect()
    }

    #[test]
    fn elementwise_slices_are_bit_identical_to_the_scalar_form_at_every_level() {
        use TileUnary::*;
        for l in available_levels() {
            for mode in [NonlinearityMode::Exact, NonlinearityMode::Rational] {
                for op in [Copy, Neg, Relu, Exp, Tanh, Sigmoid] {
                    // Every ragged tail, and lengths around a whole tile.
                    for n in (0..=67usize).chain([TILE - 1, TILE, TILE + 1, 2 * TILE + 5]) {
                        let base = nonlinearity_probe(n);
                        let mut got = base.clone();
                        unary_slice(l, op, mode, &mut got);
                        for (i, (&g, &x)) in got.iter().zip(&base).enumerate() {
                            let want = op.apply(mode, x);
                            assert_eq!(
                                g.to_bits(),
                                want.to_bits(),
                                "{l:?} {mode:?} {op:?} n={n} lane {i}: f({x:e}) = {g:e} vs scalar {want:e}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn scalar_forms_are_the_approx_definitions() {
        use crate::approx::*;
        for x in nonlinearity_probe(96) {
            let same = |a: f32, b: f32| a.to_bits() == b.to_bits();
            let (ex, ra) = (NonlinearityMode::Exact, NonlinearityMode::Rational);
            assert!(same(TileUnary::Tanh.apply(ex, x), tanh_exact(x)));
            assert!(same(TileUnary::Sigmoid.apply(ex, x), sigmoid_exact(x)));
            assert!(same(TileUnary::Exp.apply(ra, x), exp_exact(x)));
            assert!(same(TileUnary::Tanh.apply(ra, x), tanh_rational(x)));
            assert!(same(TileUnary::Sigmoid.apply(ra, x), sigmoid_rational(x)));
        }
    }

    #[test]
    fn tile_programs_match_per_lane_scalar_evaluation_with_aliased_registers() {
        // r0 ← sigmoid(r0 + r1) * tanh(min(r2, r0)) / 3, reusing r0 as
        // both operand and destination, over every ragged lane count.
        let prog = [
            TileOp::Binary {
                op: TileBinary::Add,
                dst: 0,
                a: 0,
                b: 1,
            },
            TileOp::Unary {
                op: TileUnary::Sigmoid,
                dst: 3,
                a: 0,
            },
            TileOp::Binary {
                op: TileBinary::Min,
                dst: 0,
                a: 2,
                b: 0,
            },
            TileOp::Unary {
                op: TileUnary::Tanh,
                dst: 0,
                a: 0,
            },
            TileOp::Binary {
                op: TileBinary::Mul,
                dst: 0,
                a: 3,
                b: 0,
            },
            TileOp::Const { dst: 1, value: 3.0 },
            TileOp::Binary {
                op: TileBinary::Div,
                dst: 0,
                a: 0,
                b: 1,
            },
        ];
        let mode = NonlinearityMode::Exact;
        for l in available_levels() {
            for lanes in 0..=TILE {
                let mut regs = vec![0.0f32; 4 * TILE];
                for (r, seed) in [(0usize, 0.31f32), (1, -0.77), (2, 1.9)] {
                    for i in 0..lanes {
                        regs[r * TILE + i] = seed * (i as f32 - 20.0) * 0.4;
                    }
                }
                let want: Vec<f32> = (0..lanes)
                    .map(|i| {
                        let (a, b, c) = (regs[i], regs[TILE + i], regs[2 * TILE + i]);
                        let s = TileBinary::Add.apply(a, b);
                        let sig = TileUnary::Sigmoid.apply(mode, s);
                        let t = TileUnary::Tanh.apply(mode, TileBinary::Min.apply(c, s));
                        sig * t / 3.0
                    })
                    .collect();
                run_tile_with(l, &prog, &mut regs, lanes, mode);
                for i in 0..lanes {
                    assert_eq!(
                        regs[i].to_bits(),
                        want[i].to_bits(),
                        "{l:?} lanes={lanes} lane {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn override_clamps_but_never_exceeds_hardware() {
        // Tested through the pure clamp (no process-global env mutation,
        // which would race sibling tests against the `level()` cache).
        for hw in available_levels() {
            assert_eq!(clamp_level(hw, Some("scalar")), Level::Scalar);
            assert_eq!(clamp_level(hw, None), hw);
            assert_eq!(clamp_level(hw, Some("avx512")), hw, "cannot exceed hw");
        }
        assert_eq!(clamp_level(Level::Avx512, Some("avx2")), Level::Avx2);
        assert_eq!(clamp_level(Level::Scalar, Some("avx2")), Level::Scalar);
    }
}
