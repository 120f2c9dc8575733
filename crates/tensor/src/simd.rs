//! Explicit SIMD micro-kernels with runtime feature dispatch.
//!
//! Four primitives, each at three levels:
//!
//! * [`gemm_panels`] — the one matrix product of the workspace: a
//!   register-tiled outer-product kernel over weights packed into
//!   k-major column panels ([`crate::kernels::PackedB`]);
//! * [`dot_ordered`] — the same reduction for a single element, in the
//!   same order (the engine's per-element path);
//! * [`dot`] — a reassociating dot product for code that is *not* the
//!   engine (the reference models, the modelled vendor library), so
//!   what the engine is checked against does not share its kernel;
//! * [`axpy`] — `y += x`, the gather loop's child-sum.
//!
//! The levels:
//!
//! * **Scalar** — plain loops the autovectorizer handles; always
//!   available, and the only one whose reductions never fuse a
//!   multiply-add.
//! * **AVX2+FMA** — 8-lane `f32`, 16-column panels, tiles up to 6×16.
//! * **AVX-512F** — 16-lane `f32`, 32-column panels, tiles up to 12×32.
//!
//! The active level is detected once per process with
//! `is_x86_feature_detected!` and cached ([`level`]); the
//! `CORTEX_SIMD` environment variable (`scalar` / `avx2` / `avx512`)
//! clamps it for benchmarking and tests. Every entry point also takes an
//! explicit [`Level`] (`*_with`, or a leading argument) so tests can
//! compare levels on the same inputs.
//!
//! Numerics. [`gemm_panels`] and [`dot_ordered`] are **k-sequential**:
//! every output element is the single chain `acc = a[k]·b[k] + acc`,
//! `k = 0..K` in order — one fused multiply-add per step at the wide
//! levels, a multiply then an add at the scalar one — whatever the tile
//! shape, the row count or the neighbouring rows. Within a level they
//! agree bit for bit; across levels they differ by the fusion only.
//! [`dot`] **reassociates** (lane-striped partial sums, two accumulator
//! chains, FMA at the wide levels) and promises a tolerance, not bits.
//! IEEE special values flow through all of them unchanged (`0·∞ → NaN`;
//! FMA propagates NaN/∞ exactly like mul+add does). The *elementwise*
//! kernels ([`run_tile`]) never reassociate: every
//! level runs the one lane-generic routine of [`crate::approx`] and is
//! bit-identical to its scalar form. Inside those routines each spelled
//! out multiply-add is one `Lanes::mul_add`, rounded once at every
//! level; a tile program's own `Mul` then `Add` stays two roundings.

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
pub(crate) fn detect() -> Level {
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
pub(crate) fn level_supported(l: Level) -> bool {
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
pub(crate) fn dot_with(l: Level, a: &[f32], b: &[f32]) -> f32 {
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

/// Scalar `dot`: eight partial accumulators, pairwise-combined.
pub(crate) fn dot_scalar(a: &[f32], b: &[f32]) -> f32 {
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
// dot_ordered: the per-element form of a GEMM element
// ---------------------------------------------------------------------

/// The k-sequential dot product `acc = a[k]·b[k] + acc`, `k = 0..len` in
/// order from `acc = 0`, at the detected level: one fused multiply-add
/// per step at AVX2/AVX-512, a multiply then an add at
/// [`Level::Scalar`]. This is **exactly** the chain [`gemm_panels`]
/// runs for every output element at the same level, so an engine that
/// evaluates a reduction per element and one that batches it into a
/// GEMM agree bit for bit at any length.
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[inline]
pub fn dot_ordered(a: &[f32], b: &[f32]) -> f32 {
    dot_ordered_with(level(), a, b)
}

/// [`dot_ordered`] at an explicit level; an unsupported level falls back
/// to the scalar (unfused) chain.
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[inline]
pub fn dot_ordered_with(l: Level, a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "dot of unequal lengths");
    match l {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: AVX2 and FMA are verified on this CPU (the second
        // check covers `Avx512`, whose own is AVX-512F alone).
        Level::Avx2 | Level::Avx512 if level_supported(l) && level_supported(Level::Avx2) => unsafe {
            dot_ordered_fma(a, b)
        },
        _ => a.iter().zip(b).fold(0.0, |acc, (x, y)| x * y + acc),
    }
}

/// The fused chain: `mul_add` compiles to one `vfmadd…ss` per step.
///
/// # Safety
///
/// AVX2 and FMA are available.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn dot_ordered_fma(a: &[f32], b: &[f32]) -> f32 {
    a.iter().zip(b).fold(0.0, |acc, (x, y)| x.mul_add(*y, acc))
}

// ---------------------------------------------------------------------
// gemm_panels: the register-tiled product over packed column panels
// ---------------------------------------------------------------------

/// Columns of one packed weight panel at `l`: two vectors (an
/// unsupported level counts as scalar, like every `*_with` entry).
pub fn panel_width(l: Level) -> usize {
    match l {
        Level::Avx512 if level_supported(l) => 32,
        Level::Avx2 if level_supported(l) => 16,
        _ => 8,
    }
}

/// One vector of the tile kernel. `fma` is its only arithmetic.
///
/// # Safety
///
/// Every method needs the implementing vector's instruction set;
/// `load` and `store` need `N` readable / writable floats at `p`.
trait Fma: Copy {
    /// Lanes per vector.
    const N: usize;
    unsafe fn zero() -> Self;
    unsafe fn load(p: *const f32) -> Self;
    unsafe fn store(self, p: *mut f32);
    /// `a·b + self` in every lane: fused at the wide levels, a multiply
    /// then an add at the scalar one.
    unsafe fn fma(self, a: f32, b: Self) -> Self;
}

/// The scalar level's "vector": four lanes the autovectorizer keeps in
/// one SSE/NEON register. Rust never contracts `a * b + c`.
impl Fma for [f32; 4] {
    const N: usize = 4;
    #[inline(always)]
    unsafe fn zero() -> Self {
        [0.0; 4]
    }
    #[inline(always)]
    unsafe fn load(p: *const f32) -> Self {
        // SAFETY: the caller guarantees four readable floats at `p`.
        unsafe { p.cast::<[f32; 4]>().read_unaligned() }
    }
    #[inline(always)]
    unsafe fn store(self, p: *mut f32) {
        // SAFETY: the caller guarantees four writable floats at `p`.
        unsafe { p.cast::<[f32; 4]>().write_unaligned(self) }
    }
    #[inline(always)]
    unsafe fn fma(self, a: f32, b: Self) -> Self {
        std::array::from_fn(|i| a * b[i] + self[i])
    }
}

/// Smallest `m·n·k` a product is split across lanes at: 2¹⁸ multiply-adds,
/// which is one row against the 1024 × 256 gate stack of an `h = 256`
/// LSTM. The `lanes` ceilings of `BENCH_pipeline.json` (v12) have the
/// measurement on this 2-core box: a fork and join costs ≈ 0.8 µs
/// (`fork_join_ns`); that one-row product takes 15 µs on one lane (34
/// GFLOP/s, bound by streaming the 1 MB weight from L2) and 9 µs on two,
/// each streaming its own half (`gemm_packed_gflops_all_lanes_m1` 59);
/// 16 and 64 rows go from 136 and 149 to 240 and 252 GFLOP/s. Every
/// launch of the `h = 32` models is several times below the line, so the
/// small-request path never looks at the pool.
pub(crate) const GEMM_FORK_MIN_WORK: usize = 1 << 18;

/// The output of a product shared by the lanes that compute it.
struct SplitOut(*mut f32);

// SAFETY: lanes store through the pointer to the columns of pairwise
// disjoint panel ranges only (`gemm_panels` hands each chunk its own).
unsafe impl Sync for SplitOut {}

/// `c[i·n + j] = Σ_k a[i·k + k']·B[j][k']` for `m` rows against the `n`
/// columns held in `panels`: `⌈n / w⌉` panels of `w =`
/// [`panel_width`]`(l)` columns, panel `p` storing element `k'` of
/// column `p·w + jj` at `(p·k + k')·w + jj` (columns past `n` are
/// padding and never stored). Every element of `c` is the
/// [`dot_ordered_with`]`(l, ..)` chain of its row and column — whatever
/// `m`, the tile split, the rows it shares a launch with, or the lane
/// that computes it: a product of at least `GEMM_FORK_MIN_WORK`
/// multiply-adds is split by **panel ranges** across the lanes of
/// [`crate::par::split`], which changes who computes an element and
/// nothing about how. Returns whether the product was split.
///
/// # Panics
///
/// Panics if a slice is shorter than the shapes imply.
pub fn gemm_panels(
    l: Level,
    c: &mut [f32],
    a: &[f32],
    panels: &[f32],
    m: usize,
    n: usize,
    k: usize,
) -> bool {
    let w = panel_width(l);
    let n_panels = n.div_ceil(w);
    assert!(
        a.len() >= m * k && c.len() >= m * n && panels.len() >= n_panels * w * k,
        "gemm_panels: operands shorter than {m}x{n}x{k}"
    );
    if m == 0 || n == 0 {
        return false;
    }
    let out = SplitOut(c.as_mut_ptr());
    let run = |ps: std::ops::Range<usize>| {
        // The wrapper as a whole, not its (unshareable) pointer field.
        let out = &out;
        match w {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `panel_width` verified the feature; the slices
            // cover the shapes (asserted above), `ps` is inside the
            // panels, and no concurrent call shares a panel with it.
            32 => unsafe { gemm_panels_avx512(out.0, a, panels, m, n, k, ps) },
            #[cfg(target_arch = "x86_64")]
            16 => unsafe { gemm_panels_avx2(out.0, a, panels, m, n, k, ps) },
            // SAFETY: as above, without an instruction-set requirement.
            _ => unsafe { gemm_tiles::<[f32; 4], 6>(out.0, a, panels, m, n, k, ps) },
        }
    };
    // A small launch does not even look at the pool.
    if m * n * k < GEMM_FORK_MIN_WORK {
        run(0..n_panels);
        return false;
    }
    // Chunks are whole groups of the panels a few-row launch is widened
    // across, so it keeps its widening; a few per lane, so a late
    // helper costs one of them.
    let wide = panels_wide(m, if w == 32 { 12 } else { 6 });
    let groups = n_panels.div_ceil(wide);
    let lanes = crate::par::lanes();
    if lanes == 1 || groups == 1 {
        run(0..n_panels);
        return false;
    }
    let chunks = groups.min(4 * lanes);
    crate::par::split(chunks, &|chunk| {
        let from = chunk * groups / chunks * wide;
        run(from..((chunk + 1) * groups / chunks * wide).min(n_panels));
    });
    true
}

/// Adjacent panels a launch of `m` rows in tiles of at most `mr_max` is
/// widened across: as many (1, 2 or 4) as keep the accumulators of its
/// tallest tile inside the register file.
fn panels_wide(m: usize, mr_max: usize) -> usize {
    match mr_max / m.div_ceil(m.div_ceil(mr_max)) {
        0 | 1 => 1,
        2 | 3 => 2,
        _ => 4,
    }
}

/// The FLOP ceiling [`gemm_panels`] is stated against: `steps` rounds
/// of twelve independent vector FMA chains at level `l`, operands in
/// registers throughout. Returns the flops performed; the caller times
/// the call.
pub fn fma_chains(l: Level, steps: usize) -> u64 {
    let lanes = panel_width(l) / 2;
    match lanes {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `panel_width` verified the feature.
        16 => unsafe { fma_chains_avx512(steps) },
        #[cfg(target_arch = "x86_64")]
        8 => unsafe { fma_chains_avx2(steps) },
        // SAFETY: no instruction-set requirement at the scalar level.
        _ => unsafe { fma_chains_on::<[f32; 4]>(steps) },
    }
    (steps * 12 * lanes * 2) as u64
}

/// # Safety
///
/// `V`'s instruction set is available.
#[inline(always)]
unsafe fn fma_chains_on<V: Fma>(steps: usize) {
    // Distinct opaque seeds keep the twelve chains from folding into one.
    let seed: [f32; 12 + 16] = std::hint::black_box(std::array::from_fn(|i| 1.0 + i as f32));
    let mut sink = [0.0f32; 12 * 16];
    // SAFETY: every load and store stays `N <= 16` floats inside the
    // two stack arrays.
    unsafe {
        let mut acc: [V; 12] = std::array::from_fn(|i| V::load(seed.as_ptr().add(i)));
        let b = V::load(seed.as_ptr().add(12));
        for _ in 0..steps {
            for v in &mut acc {
                *v = v.fma(seed[0], b);
            }
        }
        for (i, v) in acc.iter().enumerate() {
            v.store(sink.as_mut_ptr().add(i * 16));
        }
    }
    std::hint::black_box(sink);
}

/// Splits panels `ps` of the product into register tiles: panels
/// outermost (a panel stays in L1 across the row tiles), rows in
/// `⌈m / MR_MAX⌉` *balanced* tiles (13 rows → 7 + 6, never 12 + 1). A
/// launch of few rows is widened across 2 or 4 adjacent panels while the
/// accumulators still fit the register file, so even `m = 1` runs eight
/// independent FMA chains.
///
/// # Safety
///
/// `V`'s instruction set is available; `a` and `panels` cover `m×k` and
/// `⌈n / 2N⌉` panels, `c` addresses `m×n` writable floats of which no
/// concurrent access touches the columns of panels `ps`; `ps` is inside
/// the panels; `m, n > 0`.
#[inline(always)]
unsafe fn gemm_tiles<V: Fma, const MR_MAX: usize>(
    c: *mut f32,
    a: &[f32],
    panels: &[f32],
    m: usize,
    n: usize,
    k: usize,
    ps: std::ops::Range<usize>,
) {
    let w = 2 * V::N;
    let tiles = m.div_ceil(MR_MAX);
    let (short, taller) = (m / tiles, m % tiles);
    let np_wide = panels_wide(m, MR_MAX);
    let mut p = ps.start;
    while p < ps.end {
        let mut np = np_wide;
        while p + np > ps.end {
            np /= 2;
        }
        let cols = (n - p * w).min(np * w);
        let mut i = 0;
        for t in 0..tiles {
            let mr = short + usize::from(t < taller);
            // SAFETY: rows `i..i + mr` and panels `p..p + np` are inside
            // the operands; `cols` keeps the stores inside row `i`'s `n`
            // and inside the columns of `ps`.
            unsafe {
                let a = a.as_ptr().add(i * k);
                let b = panels.as_ptr().add(p * k * w);
                let c = c.add(i * n + p * w);
                macro_rules! run {
                    ($(($mr:literal, $np:literal))*) => {
                        match (mr, np) {
                            $(($mr, $np) => tile::<V, $mr, $np>(a, b, c, k, n, cols),)*
                            _ => unreachable!("no {mr}x{np} tile"),
                        }
                    };
                }
                // Every shape the split can ask for: any height on one
                // panel, up to six rows on two, up to three on four.
                #[rustfmt::skip]
                run!((1, 1) (2, 1) (3, 1) (4, 1) (5, 1) (6, 1)
                     (7, 1) (8, 1) (9, 1) (10, 1) (11, 1) (12, 1)
                     (1, 2) (2, 2) (3, 2) (4, 2) (5, 2) (6, 2)
                     (1, 4) (2, 4) (3, 4));
            }
            i += mr;
        }
        p += np;
    }
}

/// The micro-kernel: `MR` rows × `NP` adjacent panels, `MR·NP·2`
/// accumulator vectors whose every lane is one output element's chain.
/// A k-step loads each panel's two vectors once and feeds them `MR`
/// scalar broadcasts of `a[r][k]`; nothing is summed across lanes.
///
/// # Safety
///
/// `a` addresses `MR` rows of stride `k`, `b` `NP` panels of `k`
/// k-steps, `c` `MR` rows of stride `ldc` with `cols` (at most `NP`
/// panel widths) writable floats each.
#[inline(always)]
unsafe fn tile<V: Fma, const MR: usize, const NP: usize>(
    a: *const f32,
    b: *const f32,
    c: *mut f32,
    k: usize,
    ldc: usize,
    cols: usize,
) {
    let w = 2 * V::N;
    // SAFETY: see the function's contract; a partial panel is staged
    // through a full-width stack buffer and only `cols - j0` floats of
    // it reach `c`.
    unsafe {
        let mut acc = [[[V::zero(); 2]; MR]; NP];
        for kk in 0..k {
            for (p, rows) in acc.iter_mut().enumerate() {
                let bp = b.add((p * k + kk) * w);
                let (b0, b1) = (V::load(bp), V::load(bp.add(V::N)));
                for (r, [acc0, acc1]) in rows.iter_mut().enumerate() {
                    let av = *a.add(r * k + kk);
                    *acc0 = acc0.fma(av, b0);
                    *acc1 = acc1.fma(av, b1);
                }
            }
        }
        for (p, rows) in acc.iter().enumerate() {
            for (r, [acc0, acc1]) in rows.iter().enumerate() {
                let (j0, cp) = (p * w, c.add(r * ldc + p * w));
                if j0 + w <= cols {
                    acc0.store(cp);
                    acc1.store(cp.add(V::N));
                } else if j0 < cols {
                    let mut stage = [0.0f32; 32];
                    acc0.store(stage.as_mut_ptr());
                    acc1.store(stage.as_mut_ptr().add(V::N));
                    std::ptr::copy_nonoverlapping(stage.as_ptr(), cp, cols - j0);
                }
            }
        }
    }
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
pub(crate) fn axpy_with(l: Level, y: &mut [f32], x: &[f32]) {
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
pub(crate) fn axpy_scalar(y: &mut [f32], x: &[f32]) {
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
// there is no reassociation, and the only fused multiply-adds are the
// routines' own `Lanes::mul_add`s, rounded once at every level: each
// level executes the same IEEE operation sequence per element, so
// results are **bit-identical** across levels and to the scalar `approx`
// functions. `TileBinary` never fuses.

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
pub(crate) fn run_tile_with(
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

// ---------------------------------------------------------------------
// AVX2 + FMA (8-lane)
// ---------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::{fma_chains_on, gemm_tiles, run_tile_lanes, Fma, Lanes, NonlinearityMode, TileOp};
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
    pub(crate) unsafe fn dot_avx2(a: &[f32], b: &[f32]) -> f32 {
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

    // SAFETY (every intrinsic below): only reached through
    // [`gemm_panels_avx2`], after the runtime feature check; the pointer
    // contracts are [`Fma`]'s.
    impl Fma for __m256 {
        const N: usize = 8;
        #[inline(always)]
        unsafe fn zero() -> Self {
            unsafe { _mm256_setzero_ps() }
        }
        #[inline(always)]
        unsafe fn load(p: *const f32) -> Self {
            unsafe { _mm256_loadu_ps(p) }
        }
        #[inline(always)]
        unsafe fn store(self, p: *mut f32) {
            unsafe { _mm256_storeu_ps(p, self) }
        }
        #[inline(always)]
        unsafe fn fma(self, a: f32, b: Self) -> Self {
            unsafe { _mm256_fmadd_ps(_mm256_set1_ps(a), b, self) }
        }
    }

    /// The tile kernel at 8 lanes: 16-column panels, tiles up to 6×16.
    #[target_feature(enable = "avx2,fma")]
    pub(crate) unsafe fn gemm_panels_avx2(
        c: *mut f32,
        a: &[f32],
        panels: &[f32],
        m: usize,
        n: usize,
        k: usize,
        ps: std::ops::Range<usize>,
    ) {
        // SAFETY: forwarded contract of [`gemm_tiles`].
        unsafe { gemm_tiles::<__m256, 6>(c, a, panels, m, n, k, ps) }
    }

    /// The FMA ceiling probe at 8 lanes.
    #[target_feature(enable = "avx2,fma")]
    pub(crate) unsafe fn fma_chains_avx2(steps: usize) {
        // SAFETY: the caller verified AVX2+FMA.
        unsafe { fma_chains_on::<__m256>(steps) }
    }

    /// Eight `f32` lanes in a `__m256` ([`Lanes`] at the AVX2 level).
    /// Only constructed inside `#[target_feature(enable = "avx2,fma")]`
    /// entry points, after the runtime feature check.
    #[derive(Clone, Copy)]
    pub(crate) struct V256(__m256);

    // SAFETY (every intrinsic below): `V256` values exist only in code
    // reached through an AVX2+FMA-checked entry point; loads and stores
    // go through bounds-checked `N`-element subslices.
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
        fn mul_add(self, b: Self, c: Self) -> Self {
            V256(unsafe { _mm256_fmadd_ps(self.0, b.0, c.0) })
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
    pub(crate) unsafe fn run_tile_avx2(
        ops: &[TileOp],
        regs: &mut [f32],
        lanes: usize,
        mode: NonlinearityMode,
    ) {
        run_tile_lanes::<V256>(ops, regs, lanes, mode);
    }

    /// `Lanes::mul_add` at 8 lanes over whole vectors.
    #[cfg(test)]
    #[target_feature(enable = "avx2,fma")]
    pub(crate) unsafe fn mul_add_avx2(a: &[f32], b: &[f32], c: &[f32], out: &mut [f32]) {
        super::tests::mul_add_lanes::<V256>(a, b, c, out);
    }

    /// 8-lane `y += x`.
    #[target_feature(enable = "avx2,fma")]
    pub(crate) unsafe fn axpy_avx2(y: &mut [f32], x: &[f32]) {
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
use avx2::{axpy_avx2, dot_avx2, fma_chains_avx2, gemm_panels_avx2, run_tile_avx2};

// ---------------------------------------------------------------------
// AVX-512F (16-lane, masked tails)
// ---------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod avx512 {
    use super::{fma_chains_on, gemm_tiles, run_tile_lanes, Fma, Lanes, NonlinearityMode, TileOp};
    use std::arch::x86_64::*;

    /// 16-lane dot with two accumulator chains and a masked tail.
    #[target_feature(enable = "avx512f")]
    pub(crate) unsafe fn dot_avx512(a: &[f32], b: &[f32]) -> f32 {
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

    // SAFETY (every intrinsic below): only reached through
    // [`gemm_panels_avx512`], after the runtime feature check; the
    // pointer contracts are [`Fma`]'s.
    impl Fma for __m512 {
        const N: usize = 16;
        #[inline(always)]
        unsafe fn zero() -> Self {
            unsafe { _mm512_setzero_ps() }
        }
        #[inline(always)]
        unsafe fn load(p: *const f32) -> Self {
            unsafe { _mm512_loadu_ps(p) }
        }
        #[inline(always)]
        unsafe fn store(self, p: *mut f32) {
            unsafe { _mm512_storeu_ps(p, self) }
        }
        #[inline(always)]
        unsafe fn fma(self, a: f32, b: Self) -> Self {
            unsafe { _mm512_fmadd_ps(_mm512_set1_ps(a), b, self) }
        }
    }

    /// The tile kernel at 16 lanes: 32-column panels, tiles up to 12×32
    /// (24 of the 32 vector registers accumulate).
    #[target_feature(enable = "avx512f")]
    pub(crate) unsafe fn gemm_panels_avx512(
        c: *mut f32,
        a: &[f32],
        panels: &[f32],
        m: usize,
        n: usize,
        k: usize,
        ps: std::ops::Range<usize>,
    ) {
        // SAFETY: forwarded contract of [`gemm_tiles`].
        unsafe { gemm_tiles::<__m512, 12>(c, a, panels, m, n, k, ps) }
    }

    /// The FMA ceiling probe at 16 lanes.
    #[target_feature(enable = "avx512f")]
    pub(crate) unsafe fn fma_chains_avx512(steps: usize) {
        // SAFETY: the caller verified AVX-512F.
        unsafe { fma_chains_on::<__m512>(steps) }
    }

    /// Sixteen `f32` lanes in a `__m512` ([`Lanes`] at the AVX-512
    /// level). Only constructed inside
    /// `#[target_feature(enable = "avx512f")]` entry points, after the
    /// runtime feature check.
    #[derive(Clone, Copy)]
    pub(crate) struct V512(__m512);

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
        fn mul_add(self, b: Self, c: Self) -> Self {
            V512(unsafe { _mm512_fmadd_ps(self.0, b.0, c.0) })
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
    pub(crate) unsafe fn run_tile_avx512(
        ops: &[TileOp],
        regs: &mut [f32],
        lanes: usize,
        mode: NonlinearityMode,
    ) {
        run_tile_lanes::<V512>(ops, regs, lanes, mode);
    }

    /// `Lanes::mul_add` at 16 lanes over whole vectors.
    #[cfg(test)]
    #[target_feature(enable = "avx512f")]
    pub(crate) unsafe fn mul_add_avx512(a: &[f32], b: &[f32], c: &[f32], out: &mut [f32]) {
        super::tests::mul_add_lanes::<V512>(a, b, c, out);
    }

    /// 16-lane `y += x` with a masked tail.
    #[target_feature(enable = "avx512f")]
    pub(crate) unsafe fn axpy_avx512(y: &mut [f32], x: &[f32]) {
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
use avx512::{axpy_avx512, dot_avx512, fma_chains_avx512, gemm_panels_avx512, run_tile_avx512};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tensor::Tensor;

    /// Applies a unary operator in place over a slice of any length at
    /// level `l` (whole tiles in place, the ragged tail through a
    /// zero-padded stack tile — the same lane routine either way); an
    /// unsupported level falls back to the scalar kernel.
    fn unary_slice(l: Level, op: TileUnary, mode: NonlinearityMode, xs: &mut [f32]) {
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
                    assert!(dot_ordered_with(l, &a, &b).is_nan());
                }
            }
        }
    }

    #[test]
    fn zero_extent_reductions_are_exactly_zero() {
        for l in available_levels() {
            assert_eq!(dot_with(l, &[], &[]), 0.0, "{l:?}: K=0 dot");
            assert_eq!(dot_ordered_with(l, &[], &[]), 0.0, "{l:?}: K=0 chain");
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

    /// `out = a·b + c` through `Lanes::mul_add`, `L::N` lanes at a time
    /// (lengths are whole vectors).
    pub(super) fn mul_add_lanes<L: Lanes>(a: &[f32], b: &[f32], c: &[f32], out: &mut [f32]) {
        for i in (0..out.len()).step_by(L::N) {
            let r = L::load(&a[i..]).mul_add(L::load(&b[i..]), L::load(&c[i..]));
            r.store(&mut out[i..]);
        }
    }

    fn mul_add_with(l: Level, a: &[f32], b: &[f32], c: &[f32], out: &mut [f32]) {
        match l {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: the feature is verified on this CPU.
            Level::Avx2 if level_supported(l) => unsafe { avx2::mul_add_avx2(a, b, c, out) },
            #[cfg(target_arch = "x86_64")]
            // SAFETY: the feature is verified on this CPU.
            Level::Avx512 if level_supported(l) => unsafe { avx512::mul_add_avx512(a, b, c, out) },
            _ => mul_add_lanes::<f32>(a, b, c, out),
        }
    }

    /// `(a, b, c)` triples on which one rounding and two disagree: a
    /// product that is an exact tie (twice), a product in the subnormals,
    /// and a product that overflows while the sum does not.
    fn fusion_sensitive_triples() -> [(f32, f32, f32); 4] {
        let tie = f32::from_bits(0x3f80_0800); // 1 + 2⁻¹²: the square is a tie
        let three_2_75 = f32::from_bits(0x1ac0_0000); // 3·2⁻⁷⁵
        let two_75 = f32::from_bits(0x1a00_0000); // 2⁻⁷⁵
        [
            (tie, tie, -1.0),
            (tie, tie, f32::from_bits(0x3380_0000)), // + 2⁻²⁴
            (three_2_75, two_75, -f32::from_bits(1)), // 3·2⁻¹⁵⁰ − 2⁻¹⁴⁹
            (f32::MAX, 2.0, -f32::MAX),
        ]
    }

    #[test]
    fn every_level_rounds_mul_add_once() {
        let (inf, nan) = (f32::INFINITY, f32::NAN);
        let mut triples = fusion_sensitive_triples().to_vec();
        triples.extend([
            (0.0, inf, 1.0),
            (inf, 0.0, -1.0),
            (inf, 2.0, 1.0),
            (inf, 1.0, -inf),
            (-inf, -1.0, 5.0),
            (2.0, 3.0, -inf),
            (nan, 1.0, 1.0),
            (1.0, nan, 1.0),
            (1.0, 1.0, nan),
            (0.0, -1.0, 0.0),
            (-0.0, 1.0, -0.0),
            (f32::from_bits(1), 0.5, 0.0),
        ]);
        let rand = Tensor::random(&[3 * 40], 4.0, 30);
        triples.extend(rand.as_slice().chunks_exact(3).map(|t| (t[0], t[1], t[2])));
        // Each triple fills a 16-lane block: every lane of every level.
        let block = |pick: fn(&(f32, f32, f32)) -> f32| -> Vec<f32> {
            triples.iter().flat_map(|t| [pick(t); 16]).collect()
        };
        let (a, b, c) = (block(|t| t.0), block(|t| t.1), block(|t| t.2));
        let n = a.len();
        for l in available_levels() {
            let mut out = vec![0.0f32; n];
            mul_add_with(l, &a, &b, &c, &mut out);
            for i in 0..n {
                let want = a[i].mul_add(b[i], c[i]);
                // NaN payloads are the encoding's choice; NaN-ness is not.
                let same = want.to_bits() == out[i].to_bits() || want.is_nan() && out[i].is_nan();
                assert!(
                    same,
                    "{l:?} {:e}·{:e}+{:e}: {:e} vs {want:e}",
                    a[i], b[i], c[i], out[i]
                );
            }
        }
    }

    #[test]
    fn model_arithmetic_is_never_contracted() {
        // t = a·b; y = t + c as a tile program, and its per-element form.
        let prog = [
            TileOp::Binary {
                op: TileBinary::Mul,
                dst: 3,
                a: 0,
                b: 1,
            },
            TileOp::Binary {
                op: TileBinary::Add,
                dst: 3,
                a: 3,
                b: 2,
            },
        ];
        let triples = fusion_sensitive_triples();
        let mode = NonlinearityMode::Exact;
        for l in available_levels() {
            let mut regs = vec![0.0f32; 4 * TILE];
            for (i, &(a, b, c)) in triples.iter().cycle().take(TILE).enumerate() {
                (regs[i], regs[TILE + i], regs[2 * TILE + i]) = (a, b, c);
            }
            run_tile_with(l, &prog, &mut regs, TILE, mode);
            for (i, &(a, b, c)) in triples.iter().cycle().take(TILE).enumerate() {
                let two = a * b + c;
                let walk = TileBinary::Add.apply(TileBinary::Mul.apply(a, b), c);
                assert_eq!(
                    regs[3 * TILE + i].to_bits(),
                    two.to_bits(),
                    "{l:?} lane {i}"
                );
                assert_eq!(walk.to_bits(), two.to_bits(), "per-element lane {i}");
                assert_ne!(two.to_bits(), a.mul_add(b, c).to_bits(), "lane {i}");
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
