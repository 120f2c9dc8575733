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
//! # Ownership
//!
//! The program is plain data. Every op owns what it evaluates: a `Let`
//! its value, a `Branch` its condition, a loop its extent, a `Store` an
//! entry of [`Program::stores`] — clones made at lowering, so nothing
//! here points into the compiled kernels, and no op can name an
//! expression the program does not hold. A wave site is named by its
//! `Sum`'s binder slot, which the kernel compiler gives every `Sum` of
//! its own, so the wave memo matches the same sites in this program as
//! in the kernel trees the `interp: true` oracle walks.

use std::sync::Arc;

use cortex_core::expr::{BoolExpr, IdxExpr, TensorId, ValExpr};
use cortex_core::ilir::LaunchPattern;

use super::bulk::{FusedWave, RowProgram};
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
        value: IdxExpr,
    },
    /// Execute [`Program::stores`]`[id]` (index + value evaluation,
    /// accounting).
    Store(usize),
    /// Evaluate the condition (one branch check); fall through on true,
    /// jump to `on_false` otherwise.
    Branch {
        cond: BoolExpr,
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
    pub(crate) extent: IdxExpr,
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

/// `tensor[index] = value`: one store statement, owned.
pub(crate) struct StoreOp {
    pub(crate) tensor: TensorId,
    pub(crate) index: Vec<IdxExpr>,
    pub(crate) value: ValExpr,
}

/// One kernel's entry point in the flat op stream.
pub(crate) struct KernelDef {
    pub(crate) entry: Pc,
    pub(crate) launch: LaunchPattern,
    pub(crate) batch_slot: Option<usize>,
    /// Size of the kernel's register (slot) file.
    pub(crate) num_slots: usize,
}

/// The lowered execution plan of one engine (see module docs).
pub(crate) struct Program {
    pub(crate) ops: Vec<Op>,
    pub(crate) loops: Vec<LoopDef>,
    pub(crate) stores: Vec<StoreOp>,
    /// The wave GEMM plans, by wave id ([`LoopDef::wave`]).
    pub(crate) waves: Vec<WavePlan>,
    /// The fused waves: only row-disjoint ones are built, and
    /// [`super::verify`] re-derives that from each wave's row program.
    pub(crate) fused: Vec<Arc<FusedWave>>,
    pub(crate) bulks: Vec<Arc<RowProgram>>,
    pub(crate) kernels: Vec<KernelDef>,
}

/// Ops are plain data: this stops compiling if an op, a loop, a kernel
/// entry or a store holds a raw pointer (which is neither `Send` nor
/// `Sync`).
const _: fn() = || {
    fn send_sync<T: Send + Sync>() {}
    send_sync::<Op>();
    send_sync::<LoopDef>();
    send_sync::<KernelDef>();
    send_sync::<StoreOp>();
};

/// Compile-time facts about an engine's lowered plan (the bench schema's
/// `plan_ops` / `lower_ms` fields).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanStats {
    /// Instructions in the lowered program.
    pub plan_ops: usize,
    /// Wall-clock nanoseconds the lowering pass took at engine build.
    pub lower_ns: u64,
    /// Always 0: the direct-threaded tier is gone; `benchmarks/` still
    /// reads this field and `specialize_ns` by name.
    pub threaded_ops: usize,
    /// Always 0 (see `threaded_ops`).
    pub specialize_ns: u64,
}
