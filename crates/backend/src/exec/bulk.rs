//! The compiled epilogue: flat row programs over column tiles.
//!
//! A feature-store loop `for i in 0..H { t[…, i] = expr(i) }` that can be
//! served a whole row at a time — every `Sum` comes from an active wave
//! GEMM, every load is a plain `i`-strided stream, and the per-element
//! profile counters are *uniform in `i`* (no feature-dependent selects,
//! no counting uninterpreted functions) — is lowered at engine build,
//! straight from its `ValExpr`, into a linear register program
//! ([`RowProgram`]). A parallel `d_batch` wave loop whose **whole body**
//! lowers this way becomes one program ([`FusedWave`]) — the host
//! backend's form of the paper's fused cell kernel (§4–§5), whose
//! intermediates never round-trip through memory — and its feature
//! loops' own programs are views of that one.
//!
//! Registers are [`TILE`]-lane column tiles, one file per thread. A
//! pass's arithmetic is a [`TileOp`] list fixed at lowering. Serving a
//! row has two halves. The *resolve* ([`Interp::resolve_pass`]) settles
//! what varies per row — addresses, memo rows and scales, which arm of
//! each feature-invariant `Select` runs, and the exact `×H` `Profile`
//! counter deltas of the per-element walk — into the engine-owned
//! [`TileScratch`]. Every address and condition it evaluates is a
//! program of [`super::address`] compiled with the row program, and
//! each memo read names its site by plan ordinal, so the resolve walks
//! no index tree and searches no table. It is the only half that
//! touches the interpreter's counters, and it always runs sequentially,
//! in row order. The *sweep*
//! ([`Sweeper::sweep`]) then runs the resolved row tile by tile: inputs
//! copied in, each taken stretch of the op list as one vectorized
//! [`run_tile`](cortex_tensor::simd::run_tile) call (one in all for a
//! select-free pass), results copied out. A later statement's read of an
//! earlier statement's own-row store (LSTM `c` → `h`) is forwarded from
//! the register that still holds it. Normally a sweep follows its
//! resolve at once. A large enough fused wave in block form is instead
//! resolved whole, and its sweeps then run row-parallel across the lanes
//! of [`cortex_tensor::par`], each chunk of rows on its own `&mut` piece
//! of the stored rows ([`Interp::sweep_deferred`]). Values are
//! bit-identical to per-element evaluation either way and on any number
//! of lanes: each element comes from the same operation tree, and every
//! operator is the one lane-generic definition of
//! [`cortex_tensor::approx`].

use std::cell::RefCell;
use std::sync::{Arc, Mutex, PoisonError};

use cortex_core::expr::{IdxBinOp, IdxExpr, TensorId, ValExpr, Var};
use cortex_core::ilir::{DimExtent, Stmt, TensorDecl};
use cortex_tensor::approx::NonlinearityMode;
use cortex_tensor::par;
use cortex_tensor::simd::{TileOp, TileUnary, TILE};

use super::address::{Addr, Cond, Coord};
use super::gather::ActiveGroup;
use super::interp::{Buffer, Interp};
use super::lowering::StmtPlans;
use super::stopwatch::Stopwatch;
use crate::fastdot::idx_uses_var as uses;
use crate::wave::{SumSite, WavePlan};

/// A tile register (an index into the scratch's [`TILE`]-lane columns).
type Reg = u16;

/// How the lanes of a pass map onto a statement's feature indices.
#[derive(Clone, Copy)]
struct Lanes<'d> {
    /// The feature variable the lanes ride (`j` of a plane).
    feat: Var,
    /// A plane's outer variable `i`, its lane width `H_j`, and the
    /// declared tensors, whose dimensions show an access contiguous over
    /// `(i, j)`.
    plane: Option<(Var, usize, &'d [Option<TensorDecl>])>,
}

/// The cells `tensor[index]` one row streams, as a compiled address
/// whose hole is the position the lanes ride (none: a loop-invariant
/// broadcast), where `index` holds a placeholder — so equal cells
/// address the same cell for equal feature indices, whatever each loop
/// calls its `i`.
///
/// Validates the access for row serving: at most one position is the
/// plain variable `i`; every other position must be `i`-free and
/// counter-free (it is evaluated once instead of once per element). In
/// a plane, `i` and `j` must instead ride the last two positions over
/// an `H_j`-wide last dimension — row-major, so the plane's lanes are
/// one unit-stride run from `(0, 0)` — or neither may appear.
fn cells(tensor: TensorId, index: &[IdxExpr], lanes: Lanes<'_>) -> Option<Addr> {
    let (feat, mut index) = (lanes.feat, index.to_vec());
    if let Some((i, hj, decls)) = lanes.plane {
        let last_dim = decls.get(tensor.0 as usize).and_then(Option::as_ref);
        let n = index.len();
        let contiguous = n >= 2
            && index[n - 2] == IdxExpr::Var(i)
            && index[n - 1] == IdxExpr::Var(feat)
            && last_dim.is_some_and(|d| d.dims.last() == Some(&DimExtent::Fixed(hj)));
        if contiguous {
            index[n - 2] = IdxExpr::Const(0);
        }
        if index
            .iter()
            .any(|e| uses(e, i) || (!contiguous && uses(e, feat)))
        {
            return None;
        }
    }
    let mut i_pos = None;
    for (d, e) in index.iter().enumerate() {
        let rides = matches!(e, IdxExpr::Var(v) if *v == feat);
        if rides && i_pos.is_none() {
            i_pos = Some(d);
        } else if rides || uses(e, feat) || crate::wave::idx_has_counting_ufn(e) {
            return None;
        }
    }
    if let Some(d) = i_pos {
        index[d] = IdxExpr::Const(i64::MIN); // no real coordinate; never evaluated
    }
    Some(Addr::new(tensor, index, i_pos))
}

/// One instruction of a [`RowPass`].
pub(crate) enum Instr {
    /// Stream `cells` into `dst`. A `forwarded` load reads the very
    /// cells an earlier statement of this pass stored: the value is
    /// already in `dst` (that statement's result register), only
    /// accounting remains.
    Load {
        dst: Reg,
        cells: Addr,
        forwarded: bool,
    },
    /// A reduction served from the wave memo — `site` is its ordinal in
    /// the enclosing wave's plan, found by binder slot (`usize::MAX`: no
    /// wave plans it) — in the statement whose feature variable lives in
    /// `feat_slot`.
    Memo {
        dst: Reg,
        site: usize,
        feat_slot: usize,
    },
    /// Pure register arithmetic: `ops[from..to]` of the pass, whose
    /// non-move operators charge `flops` (already `×H`) per row.
    Ops {
        from: usize,
        to: usize,
        flops: u64,
    },
    /// A value-level select whose condition is feature-invariant (the
    /// DAG guard `select(slot < nc(n), …, 0)`): one evaluation per row,
    /// its counters replayed `×H`, decides every lane. Execution skips
    /// to `else_at` when it fails; the taken arm ends in an
    /// [`Instr::Jump`] over the other.
    Select {
        cond: Cond,
        else_at: usize,
    },
    Jump(usize),
    /// The statement's store (its cells always ride `i`) from `src`.
    Store {
        src: Reg,
        cells: Addr,
    },
}

/// Body statements that run together, tile by tile, in one sweep over
/// the row.
pub(crate) struct RowPass {
    /// Lanes: the loop extent `H`, or `H_i·H_j` for a *plane*, a rank-2
    /// store (`for i { for j { A[n,i,j] = … } }`) whose every access is
    /// contiguous over `(i, j)`, swept as one run. No other rank-2
    /// store row-serves as a nest.
    pub(crate) h: usize,
    pub(crate) instrs: Vec<Instr>,
    /// The pass's straight-line arithmetic, fixed at lowering: per row
    /// only *which* [`Instr::Ops`] runs execute is decided (selects).
    pub(crate) ops: Vec<TileOp>,
    /// Where in `instrs` the stores are: one per statement, at its end.
    pub(crate) stores: Vec<usize>,
    /// Tile registers the pass uses. A register has one writer; a
    /// statement's result stays live to the end of the tile, where the
    /// stores happen.
    pub(crate) regs: Reg,
}

/// A compiled feature-store loop, or the whole body of a fused wave
/// (see module docs).
pub(crate) struct RowProgram {
    pub(crate) passes: Arc<[RowPass]>,
    /// `Some((pass, start, end))` makes this the stand-alone program of
    /// one statement of a fused wave — a view of the wave's own
    /// instructions `start..end` (nothing is lowered twice), run with
    /// forwarded loads read from memory.
    pub(crate) only: Option<(usize, usize, usize)>,
    /// Plan ordinals of the sites that must be memo-active for the
    /// program to run.
    pub(crate) sites: Vec<usize>,
}

/// A parallel `d_batch` (wave) loop whose **whole body** lowers into one
/// [`RowProgram`], served row by row — node order, like per-node
/// interpretation — with statements that read each other's own-row
/// stores sharing a tile sweep. That is valid because only waves whose
/// rows are disjoint ([`FusedWave::rows_disjoint`]) fuse: cross-statement
/// reads stay on each node's own rows or strictly-earlier-wave rows
/// (child indirections); profile counters are order-independent sums,
/// so the `Profile` is bit-identical too.
pub(crate) struct FusedWave {
    /// Slot of the wave loop variable.
    pub(crate) n_idx_slot: usize,
    /// The `let node = value` binding directly under the loop, compiled;
    /// its value is counter-free (checked at plan time).
    pub(crate) node_let: Option<(usize, Coord)>,
    pub(crate) prog: RowProgram,
    /// Bytes one node's row streams through the tile registers, counted
    /// at lowering (see [`RowProgram::stream_bytes`]).
    pub(crate) bytes_per_row: u64,
    /// [`FusedWave::block_form`]: the rows may be swept across lanes.
    pub(crate) block: bool,
}

impl FusedWave {
    /// Whether serving the body's statements together, tile by tile
    /// within each node's row, is observationally identical to per-node
    /// interpretation. It holds when
    ///
    /// * every store targets a node-unique row (some non-feature index
    ///   position rides the wave variable or the node binding), so no two
    ///   nodes write the same cell;
    /// * statements storing one tensor share one index pattern;
    /// * every load of a body-stored tensor either stays within its own
    ///   node's row (non-feature index positions structurally equal to
    ///   the store's) or reads a strictly-earlier wave's row through a
    ///   child indirection rooted at the wave node.
    ///
    /// [`plan_fused_wave`] only fuses a wave for which this holds, and
    /// [`super::verify`] re-derives it for every stored fused wave.
    pub(crate) fn rows_disjoint(&self) -> bool {
        let n_idx = Var::from_raw(self.n_idx_slot as u32);
        let node = (self.node_let.as_ref()).map(|(slot, _)| Var::from_raw(*slot as u32));
        let instrs = || self.prog.passes.iter().flat_map(|p| &p.instrs);
        // The first store of every stored tensor (a handful: no map needed).
        let mut stores: Vec<&Addr> = Vec::new();
        for ins in instrs() {
            let Instr::Store { cells, .. } = ins else {
                continue;
            };
            let node_dep = cells.index.iter().enumerate().any(|(d, e)| {
                Some(d) != cells.hole && (uses(e, n_idx) || node.is_some_and(|nv| uses(e, nv)))
            });
            if !node_dep {
                return false;
            }
            match stores.iter().find(|s| s.tensor == cells.tensor) {
                None => stores.push(cells),
                Some(first) if *first != cells => return false,
                Some(_) => {}
            }
        }
        instrs().all(|ins| {
            let Instr::Load { cells, .. } = ins else {
                return true; // constants, memo rows and guards load no tensors
            };
            let Some(store) = stores.iter().find(|s| s.tensor == cells.tensor) else {
                return true; // not written by this wave body
            };
            cells.index.len() == store.index.len()
                && cells.index.iter().enumerate().all(|(d, ix)| {
                    // Within the stored row's feature dimension, any
                    // element is same-row; elsewhere the coordinate must
                    // match the store's (same node row) or be an
                    // earlier-wave child row.
                    Some(d) == store.hole
                        || *ix == store.index[d]
                        || crate::wave::is_wave_child_indirection(ix, n_idx, node)
                })
        })
    }

    /// Whether the wave is in *block form*: any node binding is `base +
    /// n_idx` (`base` wave-invariant: `batch_begin[b]`, `leaf_begin`, `0`)
    /// and every store indexes `[n_idx or node, …]`, the rest row-invariant:
    /// row `r` stores within `base + r·stride .. base + (r + 1)·stride`.
    pub(crate) fn block_form(&self) -> bool {
        let n_idx = Var::from_raw(self.n_idx_slot as u32);
        let node = (self.node_let.as_ref()).map(|(slot, c)| (Var::from_raw(*slot as u32), &c.src));
        let row = |v: &Var| *v == n_idx || node.is_some_and(|(nv, _)| nv == *v);
        let moves = |e: &IdxExpr| uses(e, n_idx) || node.is_some_and(|(v, _)| uses(e, v));
        let mut instrs = self.prog.passes.iter().flat_map(|p| &p.instrs);
        node.is_none_or(|(_, e)| {
            matches!(e, IdxExpr::Bin(IdxBinOp::Add, base, v)
                if **v == IdxExpr::Var(n_idx) && !uses(base, n_idx))
        }) && instrs.all(|ins| match ins {
            Instr::Store { cells, .. } => matches!(cells.index.split_first(),
                Some((IdxExpr::Var(v), rest)) if row(v) && !rest.iter().any(moves)),
            _ => true,
        })
    }
}

/// Bytes of tile streams (`rows × bytes_per_row`) from which a fused
/// wave's sweeps are spread over lanes: 64 KiB, where forking breaks
/// even on this 2-core box. Measured (PR 19) on the waves of an `h = 256`
/// TreeLSTM (14 KiB and ≈ 3 µs a row; a fork and join costs ≈ 0.8 µs,
/// `lanes.fork_join_ns` of `BENCH_pipeline.json`, and two lanes sweep
/// ≈ 1.45× as fast as one, not 2×): 5 rows (70 KiB) take 13–15 µs on one
/// lane and 13 µs forked, 12 rows 35 → 26 µs, 58 rows 183 → 121 µs.
/// Every wave of an `h = 32` zoo-sized request (at most 18 rows of
/// ≈ 2.4 KiB) stays below and is swept where it was resolved.
const EPILOGUE_FORK_MIN_BYTES: u64 = 64 << 10;

thread_local! {
    /// The tile registers of this thread as a lane of a forked wave,
    /// grown to the widest pass it swept.
    static LANE_REGS: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

/// The resolved form of the rows being served — engine-owned scratch,
/// recycled across rows, waves and runs.
#[derive(Default)]
pub(crate) struct TileScratch {
    /// The tile registers of sweeps that run where they were resolved.
    regs: Vec<f32>,
    streams: Streams,
    /// What a wave that is resolved whole before it is swept adds: one
    /// [`Sweep`] per `(row, pass)`, in resolve order.
    sweeps: Vec<Sweep>,
    /// [`Interp::sweep_deferred`]'s tables, kept empty ([`recycle`]).
    reach: Vec<Reach<'static>>,
    chunks: Vec<Mutex<&'static mut [Reach<'static>]>>,
}

/// `len` cells `base + i·stride` of buffer `buf` (stride 0: one cell).
#[derive(Debug, Clone, Copy)]
struct Window {
    buf: usize,
    base: usize,
    stride: usize,
    len: usize,
}

impl Window {
    fn at(&self, i: usize) -> usize {
        self.base + i * self.stride
    }
}

/// Input streams, runs of the pass's ops and stores of the resolved
/// sweeps, back to back.
#[derive(Default)]
struct Streams {
    loads: Vec<(Reg, Source)>,
    runs: Vec<(usize, usize)>,
    stores: Vec<(Reg, Window)>,
}

impl Streams {
    fn clear(&mut self) {
        self.loads.clear();
        self.runs.clear();
        self.stores.clear();
    }
}

/// One resolved tile sweep: a pass of the program and its slices of
/// the [`Streams`].
struct Sweep {
    pass: usize,
    loads: std::ops::Range<usize>,
    runs: std::ops::Range<usize>,
    stores: std::ops::Range<usize>,
}

/// A resolved input stream of one row.
enum Source {
    /// A window of a tensor buffer. Stride 0 is a loop-invariant cell:
    /// like every tensor read it happens when the tile is swept, after
    /// the stores of the rows before it.
    Tensor(Window),
    /// One value in every lane: a zeroed memo row, or a memo column
    /// bound outside the loop.
    Splat(f32),
    /// `scale · rows[at + i]` of a wave GEMM result.
    Memo { group: usize, at: usize, scale: f32 },
}

// ---------------------------------------------------------------------
// Lowering
// ---------------------------------------------------------------------

/// Compiles every feature loop of a kernel body into `plans.bulk` and
/// every fusable wave loop into `plans.fused`, keyed by `(kernel index,
/// statement address)` for the engine's lifetime. `sites` are the sites
/// of the wave plan enclosing `body` (none outside any); `waves` are the
/// plans `plans.waves` names; `tensors` the program's declarations.
pub(crate) fn collect_row_programs(
    body: &[Stmt],
    kernel: usize,
    sites: &[SumSite],
    waves: &[WavePlan],
    tensors: &[Option<TensorDecl>],
    plans: &mut StmtPlans,
) {
    for s in body {
        let key = (kernel, s as *const Stmt as usize);
        if plans.bulk.contains_key(&key) {
            continue; // a fused wave's view, which serves all of `s`
        }
        let sites = match plans.waves.get(&key.1) {
            Some(&w) => &waves[w].sites[..],
            None => sites,
        };
        if let Some((fw, stmts)) = plan_fused_wave(s, sites, tensors) {
            // The wave's statements, served on their own when the wave
            // cannot fuse at run time, share its instructions.
            for (view, l) in fw.prog.statements().zip(stmts) {
                let at = (kernel, l as *const Stmt as usize);
                plans.bulk.insert(at, Arc::new(view));
            }
            plans.fused.insert(key, Arc::new(fw));
        } else if matches!(s, Stmt::For { .. }) {
            if let Some(prog) = lower_row_program(&[(None, s)], sites, tensors) {
                plans.bulk.insert(key, Arc::new(prog));
            }
        }
        for child in s.children() {
            let child = std::slice::from_ref(child);
            collect_row_programs(child, kernel, sites, waves, tensors, plans);
        }
    }
}

/// Tries to compile a parallel `d_batch` loop into a [`FusedWave`];
/// also returns its body statements, in the order of their views: a
/// feature loop, or the nest of a plane.
fn plan_fused_wave<'s>(
    stmt: &'s Stmt,
    sites: &[SumSite],
    tensors: &[Option<TensorDecl>],
) -> Option<(FusedWave, &'s [Stmt])> {
    let Stmt::For {
        var,
        kind: cortex_core::ilir::LoopKind::Parallel,
        dim: Some(d),
        body,
        ..
    } = stmt
    else {
        return None;
    };
    if d.0 != "d_batch" {
        return None;
    }
    let (node_let, stmts): (Option<(usize, Coord)>, &[Stmt]) = match body.as_slice() {
        // Evaluating the node binding outside the per-element walk must
        // be counter-invisible.
        [Stmt::Let { value, .. }] if crate::wave::idx_has_counting_ufn(value) => return None,
        [Stmt::Let { var, value, body }] => (
            Some((var.id() as usize, Coord::new(value))),
            body.as_slice(),
        ),
        other => (None, other),
    };
    let loops: Vec<_> = stmts
        .iter()
        .map(|s| match s {
            // A rank-2 store nest: the *inner* loop is the feature loop,
            // swept as a plane.
            Stmt::For {
                var: ov,
                extent: IdxExpr::Const(oh),
                body: obody,
                ..
            } if *oh > 0 && matches!(obody.as_slice(), [Stmt::For { .. }]) => {
                (Some((ov.id() as usize, *oh as usize)), &obody[0])
            }
            _ => (None, s),
        })
        .collect();
    let prog = lower_row_program(&loops, sites, tensors)?;
    let mut fw = FusedWave {
        n_idx_slot: var.id() as usize,
        node_let,
        bytes_per_row: prog.stream_bytes(),
        prog,
        block: false,
    };
    fw.block = fw.block_form();
    // Only row-disjoint bodies fuse: sharing a sweep needs it.
    fw.rows_disjoint().then_some((fw, stmts))
}

/// Lowers a list of body statements — feature loops, each with the
/// `(slot, extent)` of its outer loop if it is the inner loop of a
/// rank-2 nest — into one [`RowProgram`], or `None` if any of them does
/// not row-serve.
///
/// Statements share a pass — one tile sweep, inputs hoisted to the
/// front of each tile, stores deferred to its end — while that
/// reordering is invisible: same extent, and every read of a tensor the
/// pass stores is either forwarded (the very cells an earlier statement
/// stored) or rides `i` in the stored dimension and comes *before* the
/// store in body order (a tile-local read-then-write). Anything else
/// starts a new pass, which runs after the previous one has stored the
/// whole row. A rank-2 statement starts a pass of its own, a plane (see
/// [`RowPass::h`]), if its accesses all lie contiguously over `(i, j)`;
/// otherwise it does not row-serve.
pub(crate) fn lower_row_program(
    loops: &[(Option<(usize, usize)>, &Stmt)],
    sites: &[SumSite],
    tensors: &[Option<TensorDecl>],
) -> Option<RowProgram> {
    let mut passes: Vec<RowPass> = Vec::new();
    let mut memos = Vec::new();
    for &(outer, s) in loops {
        let Stmt::For {
            var: feat,
            extent: IdxExpr::Const(h),
            body,
            ..
        } = s
        else {
            return None;
        };
        let [Stmt::Store {
            tensor,
            index,
            value,
        }] = body.as_slice()
        else {
            return None;
        };
        if *h <= 0 {
            return None;
        }
        let h = *h as usize;
        if let Some((slot, ho)) = outer {
            let lanes = Lanes {
                feat: *feat,
                plane: Some((Var::from_raw(slot as u32), h, tensors)),
            };
            let mut plane = RowPass::new(ho * h);
            let store = cells(*tensor, index, lanes).filter(|c| c.hole.is_some())?;
            lower_stmt(&mut plane, &mut memos, sites, lanes, &store, value)?;
            passes.push(plane);
            continue;
        }
        let lanes = Lanes {
            feat: *feat,
            plane: None,
        };
        // The store must ride `i`.
        let store = cells(*tensor, index, lanes).filter(|c| c.hole.is_some())?;
        let joined = match passes.last_mut() {
            // An earlier read of this store's tensor must be tile-local.
            Some(p)
                if p.h == h
                    && p.instrs.iter().all(|ins| match ins {
                        Instr::Load { cells, .. } => {
                            cells.tensor != store.tensor || cells.hole == store.hole
                        }
                        _ => true,
                    }) =>
            {
                lower_stmt(p, &mut memos, sites, lanes, &store, value)?
            }
            _ => false,
        };
        if !joined {
            passes.push(RowPass::new(h));
            let fresh = passes.last_mut().expect("pushed above");
            lower_stmt(fresh, &mut memos, sites, lanes, &store, value)?;
        }
    }
    (!loops.is_empty()).then_some(RowProgram {
        passes: passes.into(),
        only: None,
        sites: memos,
    })
}

impl RowPass {
    fn new(h: usize) -> RowPass {
        RowPass {
            h,
            instrs: Vec::new(),
            ops: Vec::new(),
            stores: Vec::new(),
            regs: 0,
        }
    }
}

impl RowProgram {
    /// Bytes one row streams in and out of the tile registers: `4·H` per
    /// tensor-row load, memo row and store instruction (both arms of a
    /// select; forwarded reads and broadcasts move nothing).
    fn stream_bytes(&self) -> u64 {
        let pass_bytes = |p: &RowPass| {
            let streams = p.instrs.iter().filter(|ins| match ins {
                Instr::Load {
                    cells, forwarded, ..
                } => cells.hole.is_some() && !forwarded,
                Instr::Memo { .. } | Instr::Store { .. } => true,
                _ => false,
            });
            (streams.count() * p.h * 4) as u64
        };
        self.passes.iter().map(pass_bytes).sum()
    }

    /// The stand-alone program of every statement, in body order (a
    /// statement ends at its store).
    fn statements(&self) -> impl Iterator<Item = RowProgram> + '_ {
        self.passes.iter().enumerate().flat_map(move |(p, pass)| {
            let mut from = 0;
            pass.stores.iter().map(move |&store_at| {
                let start = from;
                from = store_at + 1;
                let sites = pass.instrs[start..store_at]
                    .iter()
                    .filter_map(|ins| match ins {
                        Instr::Memo { site, .. } => Some(*site),
                        _ => None,
                    });
                RowProgram {
                    passes: self.passes.clone(),
                    only: Some((p, start, store_at + 1)),
                    sites: sites.collect(),
                }
            })
        })
    }
}

/// Appends one statement to `pass`. Returns `Some(false)`, with the pass
/// untouched, if the statement reads cells the pass's deferred stores
/// would hide from it (it belongs in the next pass), and `None` if it
/// does not row-serve at all.
fn lower_stmt(
    pass: &mut RowPass,
    sums: &mut Vec<usize>,
    sites: &[SumSite],
    lanes: Lanes<'_>,
    store: &Addr,
    value: &ValExpr,
) -> Option<bool> {
    let mark = (pass.instrs.len(), pass.ops.len(), pass.regs, sums.len());
    let mut cx = Emit {
        pass,
        sums,
        sites,
        lanes,
        store,
        hidden_read: false,
        join: usize::MAX,
    };
    let src = cx.emit(value)?.0;
    if cx.hidden_read {
        pass.instrs.truncate(mark.0);
        pass.ops.truncate(mark.1);
        pass.regs = mark.2;
        sums.truncate(mark.3);
        return Some(false);
    }
    let cells = store.clone();
    pass.stores.push(pass.instrs.len());
    pass.instrs.push(Instr::Store { src, cells });
    Some(true)
}

/// Lowering state of one statement.
struct Emit<'p> {
    pass: &'p mut RowPass,
    /// Plan ordinals of the sites the program reads, and the sites of
    /// the enclosing wave plan they index.
    sums: &'p mut Vec<usize>,
    sites: &'p [SumSite],
    lanes: Lanes<'p>,
    /// The statement's store.
    store: &'p Addr,
    /// Set by a read of a tensor the pass stores that cannot be
    /// forwarded.
    hidden_read: bool,
    /// The instruction index the last patched jump lands on: an
    /// [`Instr::Ops`] run must not grow across it.
    join: usize,
}

impl Emit<'_> {
    fn alloc(&mut self) -> Reg {
        self.pass.regs += 1;
        self.pass.regs - 1
    }

    /// Appends `op` to the pass's arithmetic, growing the open
    /// [`Instr::Ops`] run unless a jump lands between the two.
    fn push_op(&mut self, op: TileOp) {
        // `Const` and `Copy` are data movement, not flops.
        let moves = matches!(
            op,
            TileOp::Const { .. }
                | TileOp::Unary {
                    op: TileUnary::Copy,
                    ..
                }
        );
        let flops = if moves { 0 } else { self.pass.h as u64 };
        self.pass.ops.push(op);
        let end = self.pass.ops.len();
        let landed_on = self.pass.instrs.len() == self.join;
        match self.pass.instrs.last_mut() {
            Some(Instr::Ops { to, flops: f, .. }) if !landed_on => {
                *to = end;
                *f += flops;
            }
            _ => self.pass.instrs.push(Instr::Ops {
                from: end - 1,
                to: end,
                flops,
            }),
        }
    }

    /// Emits the instructions computing `e`; returns the register that
    /// holds the value and whether it is a temporary the consumer may
    /// overwrite in place.
    fn emit(&mut self, e: &ValExpr) -> Option<(Reg, bool)> {
        let op = match e {
            ValExpr::Const(c) => TileOp::Const {
                dst: self.alloc(),
                value: *c,
            },
            ValExpr::Load { tensor, index } => {
                let cells = cells(*tensor, index, self.lanes)?;
                // A read of the statement's own store tensor must ride
                // `i` in the stored dimension: then each tile reads its
                // cells before writing them, like the per-element walk.
                if cells.tensor == self.store.tensor && cells.hole != self.store.hole {
                    return None;
                }
                let mut stored = None;
                for &at in &self.pass.stores {
                    let Instr::Store { src, cells: st } = &self.pass.instrs[at] else {
                        unreachable!("`stores` indexes the stores")
                    };
                    if *st == cells {
                        stored = Some(*src);
                    } else if st.tensor == cells.tensor {
                        self.hidden_read = true;
                    }
                }
                let dst = stored.unwrap_or_else(|| self.alloc());
                self.pass.instrs.push(Instr::Load {
                    dst,
                    cells,
                    forwarded: stored.is_some(),
                });
                return Some((dst, false));
            }
            ValExpr::Sum { var, .. } => {
                let binder = var.id() as usize;
                let site = (self.sites.iter())
                    .position(|s| s.binder == binder)
                    .unwrap_or(usize::MAX);
                // A per-node product's result row is `i`-major: a pass
                // reads it along `j`, or a plane along its own `(i, j)`,
                // never along `i` alone.
                let ij = (self.sites.get(site))
                    .and_then(|s| Some((s.feat_slot, s.per_node.as_ref()?.j?.0)));
                let feat = self.lanes.feat.id() as usize;
                let feat_slot = match self.lanes.plane {
                    Some((i, ..)) if ij == Some((i.id() as usize, feat)) => i.id() as usize,
                    Some(_) => return None,
                    None if ij.is_some_and(|(i, _)| i == feat) => return None,
                    None => feat,
                };
                self.sums.push(site);
                let dst = self.alloc();
                self.pass.instrs.push(Instr::Memo {
                    dst,
                    site,
                    feat_slot,
                });
                return Some((dst, false));
            }
            ValExpr::Unary(op, a) => {
                let (a, temp) = self.emit(a)?;
                let dst = if temp { a } else { self.alloc() };
                TileOp::Unary {
                    op: op.tile_op(),
                    dst,
                    a,
                }
            }
            ValExpr::Bin(op, a, b) => {
                let (a, a_temp) = self.emit(a)?;
                let (b, b_temp) = self.emit(b)?;
                let dst = match (a_temp, b_temp) {
                    (true, _) => a,
                    (false, true) => b,
                    (false, false) => self.alloc(),
                };
                TileOp::Binary {
                    op: op.tile_op(),
                    dst,
                    a,
                    b,
                }
            }
            // A select whose condition is feature-invariant is uniform
            // over the row (feature-dependent ones stay per-element);
            // both arms copy their value into `dst`.
            ValExpr::Select {
                cond,
                then,
                otherwise,
            } => {
                let plane = self.lanes.plane.map(|(i, ..)| i);
                if (std::iter::once(self.lanes.feat).chain(plane))
                    .any(|v| crate::fastdot::bool_uses_var(cond, v))
                {
                    return None;
                }
                let dst = self.alloc();
                let op = TileUnary::Copy;
                let select_at = self.pass.instrs.len();
                self.pass.instrs.push(Instr::Jump(0)); // the select, patched below
                let a = self.emit(then)?.0;
                self.push_op(TileOp::Unary { op, dst, a });
                let jump_at = self.pass.instrs.len();
                self.pass.instrs.push(Instr::Jump(0)); // patched below
                let a = self.emit(otherwise)?.0;
                self.push_op(TileOp::Unary { op, dst, a });
                self.join = self.pass.instrs.len();
                self.pass.instrs[jump_at] = Instr::Jump(self.join);
                self.pass.instrs[select_at] = Instr::Select {
                    cond: Cond::new(cond),
                    else_at: jump_at + 1,
                };
                return Some((dst, true));
            }
        };
        self.push_op(op);
        let (TileOp::Const { dst, .. } | TileOp::Unary { dst, .. } | TileOp::Binary { dst, .. }) =
            op;
        Some((dst, true))
    }
}

// ---------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------

impl<'a> Interp<'a> {
    /// Whether every reduction a row program references is currently
    /// wave-served. When not — on the scalar path, after a site's
    /// runtime fallback, or for reductions the analyzer rejected — the
    /// caller falls back to the per-element interpreter.
    pub(crate) fn bulk_servable(&self, prog: &RowProgram) -> bool {
        prog.sites
            .iter()
            .all(|&site| matches!(self.active.get(site), Some(Some(_))))
    }

    /// Whether a fused wave can serve right now: bulk serving enabled
    /// and every referenced reduction memo-active.
    pub(crate) fn fused_servable(&self, fw: &FusedWave) -> bool {
        self.opts.bulk && self.bulk_servable(&fw.prog)
    }

    /// Runs a fused wave: the whole body, row by row — the stand-in for
    /// the fused elementwise epilogue generated code would emit after
    /// the wave GEMMs (see [`FusedWave`]). Rows are resolved in order;
    /// the sweeps of a large enough wave then run across lanes. `clock`
    /// is the wave's, last read when its GEMMs ended, if it ran them
    /// solo; the epilogue is timed from there, else from its own start.
    pub(crate) fn exec_fused_wave(
        &mut self,
        fw: &FusedWave,
        wave_len: usize,
        clock: Option<Stopwatch>,
    ) {
        let mut clock = clock.unwrap_or_else(|| Stopwatch::start(self.timed));
        super::checked_assert!(
            fw.n_idx_slot < self.slots.len(),
            "fused wave index slot {} out of range",
            fw.n_idx_slot
        );
        // A wave worth forking is resolved whole and then swept across
        // lanes; any other is swept as it is resolved.
        let bytes = fw.bytes_per_row * wave_len as u64;
        let fork = fw.block && wave_len > 1 && bytes >= EPILOGUE_FORK_MIN_BYTES && par::lanes() > 1;
        let mut s = self.caches.tile.take().unwrap_or_default();
        for r in 0..wave_len {
            #[cfg(feature = "checked")]
            self.shadow_begin_fused_row(r as i64);
            self.enter_row(fw.n_idx_slot, &fw.node_let, r);
            self.serve_row(&fw.prog, &mut s, fork);
        }
        #[cfg(feature = "checked")]
        self.shadow_end_fused();
        if fork {
            self.sweep_deferred(&fw.prog.passes, wave_len, &mut s);
        }
        self.caches.tile = Some(s);
        let stats = &mut self.caches.stats;
        stats.fused_waves += 1;
        stats.forked_waves += u64::from(fork);
        stats.epilogue_bytes += bytes;
        stats.epilogue_ns += clock.lap();
    }

    /// Runs a row program for the row the slot registers select; the
    /// caller must have checked [`bulk_servable`](Self::bulk_servable).
    pub(crate) fn exec_row_program(&mut self, prog: &RowProgram) {
        let mut s = self.caches.tile.take().unwrap_or_default();
        self.serve_row(prog, &mut s, false);
        self.caches.tile = Some(s);
    }

    /// Resolves every sweep of `prog` for the row the slot registers
    /// select. With `defer` they are appended to `s` as one more row of
    /// a wave ([`Interp::sweep_deferred`] runs them); without, each is
    /// swept right after it was resolved, through the interpreter's own
    /// buffers, and forgotten.
    fn serve_row(&mut self, prog: &RowProgram, s: &mut TileScratch, defer: bool) {
        let (passes, span) = match prog.only {
            Some((p, from, to)) => (p..p + 1, Some((from, to))),
            None => (0..prog.passes.len(), None),
        };
        for p in passes {
            let st = &s.streams;
            let from = (st.loads.len(), st.runs.len(), st.stores.len());
            self.resolve_pass(&prog.passes[p], span, s);
            let st = &s.streams;
            let sweep = Sweep {
                pass: p,
                loads: from.0..st.loads.len(),
                runs: from.1..st.runs.len(),
                stores: from.2..st.stores.len(),
            };
            if defer {
                s.sweeps.push(sweep);
                continue;
            }
            Sweeper {
                passes: &prog.passes,
                streams: &s.streams,
                groups: &self.active_groups,
                nonlin: self.nonlin,
            }
            .sweep(&sweep, &mut Cells::Own(&mut self.bufs), &mut s.regs);
            s.streams.clear();
        }
    }

    /// Sweeps the `rows` rows of a block-form wave resolved with `defer`
    /// across `rows.min(4 · lanes)` chunks of rows, and forgets them. Each
    /// stored buffer splits at the rows' stores (every row resolves the
    /// same ones) into `before | a piece per chunk | after` ([`Reach`]).
    fn sweep_deferred(&mut self, passes: &[RowPass], rows: usize, s: &mut TileScratch) {
        let (chunks, bufs) = (rows.min(4 * par::lanes()), self.bufs.len());
        let first_row = |c: usize| c * rows / chunks;
        let (stores, per_row) = (&s.streams.stores, s.streams.stores.len() / rows);
        let start = |r: usize, j: usize| stores[r * per_row + j].1.base;
        let mut reach: Vec<Reach<'_>> = recycle(std::mem::take(&mut s.reach));
        reach.resize_with(chunks * bufs, Reach::default);
        for (b, buf) in self.bufs.iter_mut().enumerate() {
            let j = stores[..per_row].iter().position(|(_, w)| w.buf == b);
            let (mut block, mut shared) = (&mut [][..], Reach::default());
            match (buf, j) {
                (Some(buf), Some(j)) => {
                    let last = stores[(rows - 1) * per_row..].iter();
                    let ends = last.filter(|(_, w)| w.buf == b);
                    shared.end = ends.fold(0, |end, (_, w)| end.max(w.at(w.len - 1) + 1));
                    let (before, rest) = buf.data.as_mut().split_at_mut(start(0, j));
                    (block, shared.after) = rest.split_at_mut(shared.end - before.len());
                    shared.before = before;
                }
                (buf, _) => shared.after = buf.as_ref().map_or(&[][..], |buf| &buf.data[..]),
            }
            for c in (0..chunks).rev() {
                let at = j.map_or(0, |j| start(first_row(c), j));
                let (rest, rows) =
                    std::mem::take(&mut block).split_at_mut(at - shared.before.len());
                (reach[c * bufs + b], block) = (Reach { at, rows, ..shared }, rest);
            }
        }
        let mut locks: Vec<Mutex<&mut [Reach<'_>]>> = recycle(std::mem::take(&mut s.chunks));
        locks.extend(reach.chunks_mut(bufs).map(Mutex::new));
        let sweeper = Sweeper {
            passes,
            streams: &s.streams,
            groups: &self.active_groups,
            nonlin: self.nonlin,
        };
        par::split(chunks, &|c| {
            let mut mine = locks[c].lock().unwrap_or_else(PoisonError::into_inner);
            let sweeps = &s.sweeps[first_row(c) * passes.len()..first_row(c + 1) * passes.len()];
            // Every lane has its own tile registers.
            LANE_REGS.with_borrow_mut(|regs| {
                for sweep in sweeps {
                    sweeper.sweep(sweep, &mut Cells::Lane(&mut mine), regs);
                }
            });
        });
        (s.chunks, s.reach) = (recycle(locks), recycle(reach));
        s.streams.clear();
        s.sweeps.clear();
    }

    /// Resolves one pass for the current row: evaluates addresses and
    /// selects once, charges per-element counters `×h` exactly as the
    /// per-element walk would have, and appends the row's input streams,
    /// the runs of the pass's ops to execute and its stores to `s`.
    fn resolve_pass(&mut self, pass: &RowPass, span: Option<(usize, usize)>, s: &mut TileScratch) {
        let h = pass.h as u64;
        let first_run = s.streams.runs.len();
        let (mut pc, end) = span.unwrap_or((0, pass.instrs.len()));
        while pc < end {
            pc += 1;
            match &pass.instrs[pc - 1] {
                Instr::Ops { from, to, flops } => {
                    self.profile.flops += flops;
                    match s.streams.runs[first_run..].last_mut() {
                        Some(run) if run.1 == *from => run.1 = *to,
                        _ => s.streams.runs.push((*from, *to)),
                    }
                }
                Instr::Load {
                    dst,
                    cells,
                    forwarded,
                } => {
                    let tensor = cells.tensor.0 as usize;
                    if let Some(scope) = self.scopes.last_mut() {
                        scope.touch[tensor].0 += h;
                    }
                    // A view has no earlier statement to forward from.
                    let forwarded = *forwarded && span.is_none();
                    if forwarded && !cfg!(feature = "checked") {
                        continue;
                    }
                    let w = self.window(cells, pass.h);
                    #[cfg(feature = "checked")]
                    self.shadow_check_bulk_load(cells.tensor, w.base, w.stride, pass.h);
                    if forwarded {
                        continue; // the value is already in `dst`
                    }
                    s.streams.loads.push((*dst, Source::Tensor(w)));
                }
                Instr::Memo {
                    dst,
                    site,
                    feat_slot,
                } => self.resolve_memo(*dst, *site, *feat_slot, pass.h, s),
                Instr::Select { cond, else_at } => {
                    // The scalar path would check the branch — and pay
                    // the condition's counters (e.g. `NumChildren`
                    // loads) — once per element, so the one
                    // evaluation's counter deltas are replayed ×`h`.
                    let p = &self.profile;
                    let before = (p.flops, p.leaf_check_loads, p.branch_checks);
                    self.profile.branch_checks += 1;
                    if !self.cond(cond) {
                        pc = *else_at;
                    }
                    let p = &mut self.profile;
                    p.flops += (p.flops - before.0) * (h - 1);
                    p.leaf_check_loads += (p.leaf_check_loads - before.1) * (h - 1);
                    p.branch_checks += (p.branch_checks - before.2) * (h - 1);
                }
                Instr::Jump(to) => pc = *to,
                Instr::Store { src, cells } => {
                    // Offset evaluated once (the index is counter-free),
                    // accounting ×h exactly as `record_store` per
                    // element would have.
                    let w = self.window(cells, pass.h);
                    #[cfg(feature = "checked")]
                    self.shadow_check_bulk_store(cells.tensor, w.base, w.stride, pass.h);
                    if let Some(scope) = self.scopes.last_mut() {
                        scope.touch[w.buf].1 += h;
                    }
                    super::checked_assert!(
                        self.bufs[w.buf]
                            .as_ref()
                            .is_some_and(|b| w.base + (pass.h - 1) * w.stride < b.data.len()),
                        "row store window {w:?} outside its tensor"
                    );
                    s.streams.stores.push((*src, w));
                }
            }
        }
    }

    /// The `len`-element window of a tensor buffer `cells` selects for
    /// the current row (stride 0 for a loop-invariant cell).
    fn window(&mut self, cells: &Addr, len: usize) -> Window {
        let (base, stride) = self.addr(cells);
        Window {
            buf: cells.tensor.0 as usize,
            base,
            stride,
            len,
        }
    }

    /// Resolves one memo-served reduction of the current row into an
    /// input stream (or a constant), charging the counters the scalar
    /// dot would have charged for all `h` elements.
    fn resolve_memo(
        &mut self,
        dst: Reg,
        idx: usize,
        feat_slot: usize,
        h: usize,
        s: &mut TileScratch,
    ) {
        // Disjoint field borrows: the group (rows, metadata) is read
        // while the profile/scope counters are written.
        let site = self.active[idx]
            .as_ref()
            .expect("memo-active (checked by bulk_servable)");
        let group = &self.active_groups[site.group];
        let r = self.slots[site.n_idx_slot] as usize;
        let m = &group.meta[site.meta_off + r];
        if m.zero {
            // The scalar path short-circuits before accounting.
            s.streams.loads.push((dst, Source::Splat(0.0)));
            return;
        }
        // `h` served elements, each the weight stream plus the row-side
        // ones.
        let loads = site.k * h as u64;
        self.profile.flops += loads * (m.streams + 2);
        if let Some(scope) = self.scopes.last_mut() {
            scope.touch[site.weight_tensor as usize].0 += loads;
            for &t in &m.tensors {
                scope.touch[t as usize].0 += loads;
            }
        }
        // The site's first result column in this node's row.
        let first = (site.row_off + r) * group.cols + site.col_off;
        let source = if feat_slot == site.feat_slot {
            // The pass rides the site's `i` (a plane, its `(i, j)`): the
            // site's columns are contiguous in the result row.
            Source::Memo {
                group: site.group,
                at: first,
                scale: m.scale,
            }
        } else if let Some((_, hj)) = site.j.filter(|&(j, _)| j == feat_slot) {
            // A per-node product along `j`: one `i`-row of the block.
            let i = self.slots[site.feat_slot] as usize;
            Source::Memo {
                group: site.group,
                at: first + i * hj,
                scale: m.scale,
            }
        } else {
            // The site's feature variables are bound outside this loop:
            // one column, broadcast.
            Source::Splat(m.scale * group.value(site.row_off + r, site.col(&self.slots)))
        };
        s.streams.loads.push((dst, source));
    }
}

// ---------------------------------------------------------------------
// The sweep
// ---------------------------------------------------------------------

/// Where a sweep loads and stores tensor cells: the interpreter's own
/// buffers, or one chunk's [`Reach`] of each in a forked wave.
enum Cells<'c, 'p> {
    Own(&'c mut [Option<Buffer>]),
    Lane(&'c mut [Reach<'p>]),
}

/// A buffer as one chunk of a forked wave reaches it: `before` and `after`
/// (from `end`; all of an unstored buffer) shared, `rows` from `at` its own.
#[derive(Default)]
struct Reach<'a> {
    before: &'a [f32],
    end: usize,
    after: &'a [f32],
    at: usize,
    rows: &'a mut [f32],
}

/// `v`'s allocation, emptied, for another lifetime: an in-place collect
/// reuses it, so a warm fork allocates no table.
fn recycle<T, U>(mut v: Vec<T>) -> Vec<U> {
    v.clear();
    v.into_iter().map(|_| unreachable!("emptied")).collect()
}

impl Cells<'_, '_> {
    /// Copies elements `at..at + out.len()` of window `w` into `out`.
    /// Panics on a lane if they reach into another chunk's rows.
    fn load(&self, w: &Window, at: usize, out: &mut [f32]) {
        let (from, last) = (w.at(at), w.at(at + out.len() - 1));
        let (data, start) = match self {
            Cells::Own(bufs) => (&bufs[w.buf].as_ref().expect("allocated").data[..], 0),
            Cells::Lane(reach) => match &reach[w.buf] {
                r if last < r.before.len() => (r.before, 0),
                r if from >= r.end => (r.after, r.end),
                r => (&r.rows[..], r.at),
            },
        };
        let cells = &data[from - start..=last - start];
        match w.stride {
            0 => out.fill(cells[0]),
            1 => out.copy_from_slice(cells),
            stride => (out.iter_mut().zip(cells.iter().step_by(stride))).for_each(|(o, v)| *o = *v),
        }
    }

    /// Copies `src` over elements `at..at + src.len()` of window `w`.
    /// Panics on a lane if they lie outside the chunk's own rows.
    fn store(&mut self, w: &Window, at: usize, src: &[f32]) {
        let (from, last) = (w.at(at), w.at(at + src.len() - 1));
        let (data, start) = match self {
            Cells::Own(bufs) => (bufs[w.buf].as_mut().expect("allocated").data.as_mut(), 0),
            Cells::Lane(reach) => (&mut reach[w.buf].rows[..], reach[w.buf].at),
        };
        let cells = &mut data[from - start..=last - start];
        match w.stride {
            1 => cells.copy_from_slice(src),
            stride => (cells.iter_mut().step_by(stride).zip(src)).for_each(|(c, v)| *c = *v),
        }
    }
}

/// Everything a lane reads to sweep resolved rows — shared, immutable.
struct Sweeper<'a> {
    passes: &'a [RowPass],
    streams: &'a Streams,
    groups: &'a [ActiveGroup],
    nonlin: NonlinearityMode,
}

impl Sweeper<'_> {
    /// One resolved pass, tile by tile: inputs in, one vectorized
    /// tile-program call per run of ops, results out.
    fn sweep(&self, sweep: &Sweep, cells: &mut Cells<'_, '_>, regs: &mut Vec<f32>) {
        let pass = &self.passes[sweep.pass];
        let file = usize::from(pass.regs) * TILE;
        if regs.len() < file {
            regs.resize(file, 0.0);
        }
        for t0 in (0..pass.h).step_by(TILE) {
            let len = TILE.min(pass.h - t0);
            for (dst, src) in &self.streams.loads[sweep.loads.clone()] {
                let out = &mut regs[usize::from(*dst) * TILE..][..len];
                match src {
                    Source::Tensor(w) => cells.load(w, t0, out),
                    Source::Splat(value) => out.fill(*value),
                    Source::Memo { group, at, scale } => {
                        let rows = &self.groups[*group].rows()[at + t0..][..len];
                        if *scale == 1.0 {
                            out.copy_from_slice(rows); // 1·v is v, bit for bit
                        } else {
                            out.iter_mut().zip(rows).for_each(|(o, v)| *o = scale * v);
                        }
                    }
                }
            }
            for &(from, to) in &self.streams.runs[sweep.runs.clone()] {
                cortex_tensor::simd::run_tile(&pass.ops[from..to], regs, len, self.nonlin);
            }
            for (src, w) in &self.streams.stores[sweep.stores.clone()] {
                cells.store(w, t0, &regs[usize::from(*src) * TILE..][..len]);
            }
        }
    }
}
