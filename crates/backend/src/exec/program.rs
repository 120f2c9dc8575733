//! The linear ExecPlan IR: a flat instruction stream per engine.
//!
//! At engine build time every compiled kernel is lowered (see
//! [`super::lowering`]) into one shared [`Program`] — a flat `Vec<Op>`
//! with explicit jump targets — so the runtime ([`super::run`]) executes
//! a **program counter**, never walking the statement AST. Every
//! decision the wave/bulk/fused analyses make (which loops are GEMM
//! waves, which feature loops bulk-serve, which node loops fuse, which
//! sites stack) is resolved into op operands here: the pc runtime's only
//! remaining dynamic checks are the ones that genuinely depend on run
//! state (memo-servability after a per-site fallback).
//!
//! This is the same move Relay/TVM make when going from graph IR to an
//! executable form, and it is what makes suspension trivial: a parked
//! request in `execute_many` is a program counter plus its loop records
//! (slot values live in the interpreter's register file and are never
//! unwound).
//!
//! # Pointer invariant
//!
//! Ops reference the expressions they evaluate (`IdxExpr`, `BoolExpr`,
//! full `Store` statements) by raw pointer into the compiled kernels.
//! This keeps every `Sum` body address — the identity the wave memo,
//! reduction-plan cache and bulk plans key on — canonical between the
//! two runtimes, with no cloning or key translation. The pointers are
//! valid for the [`Program`]'s whole lifetime because:
//!
//! * [`Program::source`] holds the owning `Rc<Vec<CompiledKernel>>`, so
//!   the statement trees outlive the ops pointing into them;
//! * compiled kernels are immutable after construction (nothing ever
//!   takes `&mut` to them — the same address-stability discipline the
//!   wave-plan and bulk-plan maps already rely on).

use std::rc::Rc;

use cortex_core::expr::{BoolExpr, IdxExpr};
use cortex_core::ilir::{LaunchPattern, Stmt};

use super::analysis::ParSafety;
use super::bulk::{FusedWave, RowProgram};
use super::lowering::CompiledKernel;
use crate::wave::WavePlan;

/// A program counter: an index into [`Program::ops`].
pub(crate) type Pc = usize;

/// One instruction of the lowered plan.
pub(crate) enum Op {
    /// Enter the loop `LoopDef`: evaluate its extent, record node-loop
    /// width, run the wave prepare phase (gather + GEMM, or gather +
    /// defer + park under `execute_many`), then either jump to the fused
    /// epilogue or fall into the per-element body.
    LoopEnter(usize),
    /// Close one body iteration: advance the counter and jump back to
    /// the body, or retire the loop (deactivating its wave sites) and
    /// jump to the exit.
    LoopNext(usize),
    /// Run the fused whole-wave epilogue for the loop record on top of
    /// the stack (placed at [`LoopDef::fused_pc`]; reached directly in a
    /// solo run, or as the resume point of a parked fusable wave).
    FusedEpilogue,
    /// `slot = value`.
    Let {
        slot: usize,
        value: *const IdxExpr,
    },
    /// Execute a `Stmt::Store` (index + value evaluation, accounting).
    Store {
        stmt: *const Stmt,
    },
    /// Evaluate the condition (one branch check); fall through on true,
    /// jump to `on_false` otherwise.
    Branch {
        cond: *const BoolExpr,
        on_false: Pc,
    },
    Jump(Pc),
    Barrier,
    /// Bulk feature-loop pass: when servable (all referenced reductions
    /// memo-active and the bulk path enabled) run the row program
    /// and jump `done`; otherwise fall through into the per-element
    /// loop ops.
    BulkPass {
        id: usize,
        done: Pc,
    },
    /// End of a kernel body: pop the launch scope and start the next
    /// launch unit.
    KernelEnd,
}

/// Static description of one lowered loop.
pub(crate) struct LoopDef {
    /// Register (slot) of the loop variable.
    pub(crate) slot: usize,
    /// Trip-count expression, evaluated once at entry.
    pub(crate) extent: *const IdxExpr,
    /// One accounting wave scope per iteration (`d_all_batches`).
    pub(crate) is_wave: bool,
    /// A node (`d_batch`) loop: its width feeds the scope's wave stat.
    pub(crate) is_node: bool,
    /// Wave GEMM plan of this loop, resolved at lowering.
    pub(crate) wave: Option<usize>,
    /// Fused whole-wave epilogue of this loop, resolved at lowering.
    pub(crate) fused: Option<usize>,
    /// First op of the per-element body.
    pub(crate) body: Pc,
    /// The [`Op::FusedEpilogue`] op (valid when `fused` is set).
    pub(crate) fused_pc: Pc,
    /// First op after the loop.
    pub(crate) exit: Pc,
}

/// A wave plan attached to a lowered loop.
pub(crate) struct WaveRef {
    pub(crate) plan: Rc<WavePlan>,
    /// The planned `For`'s statement address — the super-wave merge key
    /// half shared with the `interp: true` oracle, so both runtimes
    /// merge identically across a batch's requests.
    pub(crate) for_key: usize,
}

/// One kernel's entry point in the flat op stream.
pub(crate) struct KernelDef {
    pub(crate) entry: Pc,
    pub(crate) launch: LaunchPattern,
    pub(crate) batch_slot: Option<usize>,
}

/// The lowered execution plan of one engine (see module docs).
pub(crate) struct Program {
    pub(crate) ops: Vec<Op>,
    pub(crate) loops: Vec<LoopDef>,
    pub(crate) waves: Vec<WaveRef>,
    /// Parallel-safety certificate of each wave's `d_batch` body,
    /// aligned with `waves`. Computed by the static certifier at
    /// lowering ([`super::analysis::parsafety`]), re-derived and
    /// compared by [`super::verify`] so a forged entry is rejected.
    pub(crate) wave_safety: Vec<ParSafety>,
    /// Fused waves carry no stored certificate: `plan_fused_wave` only
    /// builds row-disjoint ones, and [`super::verify`] re-derives that
    /// from each wave's row program.
    pub(crate) fused: Vec<Rc<FusedWave>>,
    pub(crate) bulks: Vec<Rc<RowProgram>>,
    pub(crate) kernels: Vec<KernelDef>,
    /// Owner of every statement tree the ops point into — see the
    /// module-level pointer invariant, checked by [`super::verify`].
    pub(crate) source: Rc<Vec<CompiledKernel>>,
}

/// Compile-time facts about an engine's lowered plan (the bench schema's
/// `plan_ops` / `lower_ms` fields).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanStats {
    /// Instructions in the lowered program.
    pub plan_ops: usize,
    /// Wall-clock nanoseconds the lowering pass took at engine build.
    pub lower_ns: u64,
    /// Dead `Let` bindings the liveness pass eliminated at engine build
    /// (0 when `ExecOptions::optimize` is off).
    pub dead_ops_eliminated: usize,
    /// Register slots saved by liveness-based slot coalescing.
    pub slots_coalesced: usize,
    /// Wave bodies certified row-disjoint by the static parallel-safety
    /// certifier (wave GEMM bodies plus fused row passes).
    pub par_safe_waves: usize,
    /// Wave bodies the certifier refused (see
    /// `ExecStats::par_unsafe_by_reason` for the breakdown).
    pub par_unsafe_waves: usize,
    /// Always 0: the direct-threaded tier is gone; `benchmarks/` still
    /// reads this field and `specialize_ns` by name.
    pub threaded_ops: usize,
    /// Always 0 (see `threaded_ops`).
    pub specialize_ns: u64,
}
