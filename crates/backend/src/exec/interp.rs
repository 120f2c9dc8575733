//! Interpreter state shared by both runtimes: buffers, accounting
//! scopes, engine caches, and index/boolean expression evaluation.
//!
//! The [`Interp`] struct is the per-request execution state, started
//! from the [`RunState`] its lane keeps between runs. Two
//! front-ends drive it: the pc-based plan runtime ([`super::run`], the
//! default, which alone parks and resumes under `execute_many`) and the
//! legacy AST-walking oracle ([`super::scalar`],
//! `ExecOptions { interp: true }`, one uninterrupted walk per request).
//! Both share every helper here, which is what keeps their outputs and
//! `Profile` counters bit-identical.

use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

use cortex_core::expr::{BoolExpr, IdxBinOp, IdxExpr, RtScalar, TensorId, Ufn};
use cortex_core::ilir::{DimExtent, IlirProgram, StorageClass};
use cortex_ds::linearizer::{Batch, Linearized};
use cortex_tensor::approx::NonlinearityMode;
use cortex_tensor::kernels::PackedB;
use cortex_tensor::Tensor;

use super::address::Resolved;
use super::bulk::TileScratch;
use super::gather::{ActiveGroup, ActiveSite, GroupBufs};
use super::lowering::{CompiledKernel, StmtPlans};
use super::program::Program;
use super::run::PcCursor;
use super::{ExecError, ExecOptions, ExecStats, RunOutput};
use crate::fastdot::DotPlan;
use crate::params::Params;
use crate::profile::{Profile, WaveStat};

/// State one lane of an engine keeps across runs: memoized reduction
/// plans and the per-group gather/output scratch buffers. (The packed
/// weights are the engine's, lent to every interpreter: see
/// [`Interp::packs`].)
#[derive(Default)]
pub(crate) struct Caches {
    /// The scalar reduction plan of each `Sum` a run evaluated outside
    /// the wave memo, keyed by the address of its body — in the
    /// program's ops or in the kernel trees the oracle walks, both held
    /// unchanged for the engine's lifetime. A key only: the plan is
    /// compiled from the expression being evaluated.
    pub(crate) plan_cache: HashMap<usize, Option<Arc<DotPlan>>>,
    /// Tile registers and resolved rows of the row programs (boxed: it
    /// is taken out and put back around every row program).
    pub(crate) tile: Option<Box<TileScratch>>,
    /// The resolved operand of the row being gathered or the element
    /// being dotted, recycled.
    pub(crate) resolved: Resolved,
    /// Reusable gather/output buffers by group id. A stack per group:
    /// during `execute_many` several requests hold the same group's
    /// buffers at once (their waves overlap in time), so one slot per
    /// group would churn allocations.
    pub(crate) group_bufs: Vec<Vec<GroupBufs>>,
    pub(crate) stats: ExecStats,
    /// Per-element dots [`Interp::eval_dot`] ran: test builds count
    /// them, so a test can pin which sums leave the compiled paths.
    #[cfg(test)]
    pub(crate) dots: u64,
}

// ---------------------------------------------------------------------
// Storage
// ---------------------------------------------------------------------

/// Backing storage of a [`Buffer`]: owned and writable, or a read-only
/// view of a bound parameter tensor. `Param` buffers hold the
/// [`Params`] entry's own `Arc`, so every run, every request of a
/// serving batch and every engine bound to clones of one set reads the
/// caller's allocation: no engine copies (or keeps resident) its own
/// weight + embedding set.
#[derive(Debug, Clone)]
pub(crate) enum BufData {
    Owned(Vec<f32>),
    Shared(Arc<Tensor>),
}

impl std::ops::Deref for BufData {
    type Target = [f32];

    #[inline]
    fn deref(&self) -> &[f32] {
        match self {
            BufData::Owned(v) => v,
            BufData::Shared(t) => t.as_slice(),
        }
    }
}

impl BufData {
    /// Mutable access — only owned storage is writable (the lowering
    /// never emits stores to `Param` tensors, the one shared class).
    #[inline]
    pub(crate) fn as_mut(&mut self) -> &mut [f32] {
        match self {
            BufData::Owned(v) => v,
            BufData::Shared(_) => unreachable!("store to a shared parameter buffer"),
        }
    }

    pub(crate) fn into_vec(self) -> Vec<f32> {
        match self {
            BufData::Owned(v) => v,
            BufData::Shared(t) => t.as_slice().to_vec(),
        }
    }
}

/// An inline dimension (or stride) list, rank ≤ 8: a buffer reshaped
/// for each run's extents keeps them without a heap allocation.
#[derive(Clone, Copy)]
pub(crate) struct Dims {
    a: [usize; 8],
    len: u8,
}

impl std::ops::Deref for Dims {
    type Target = [usize];
    #[inline]
    fn deref(&self) -> &[usize] {
        &self.a[..self.len as usize]
    }
}

/// Row-major strides of `dims`.
fn strides_of(dims: Dims) -> Dims {
    let n = dims.len();
    let mut sa = [1usize; 8];
    for d in (0..n.saturating_sub(1)).rev() {
        sa[d] = sa[d + 1] * dims[d + 1];
    }
    Dims {
        a: sa,
        len: n as u8,
    }
}

impl std::fmt::Debug for Dims {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        (**self).fmt(f)
    }
}

#[derive(Debug, Clone)]
pub(crate) struct Buffer {
    pub(crate) data: BufData,
    pub(crate) dims: Dims,
    pub(crate) strides: Dims,
    pub(crate) class: StorageClass,
}

impl Buffer {
    /// A zeroed owned buffer.
    pub(crate) fn zeroed(dims: Dims, class: StorageClass) -> Self {
        let len: usize = dims.iter().product::<usize>().max(1);
        Self::with_data(dims, class, BufData::Owned(vec![0.0; len]))
    }

    /// Reshapes an owned buffer to `dims` and zeroes it, in its own
    /// allocation (grown only when `dims` need more).
    fn rezero(&mut self, dims: Dims) {
        let len: usize = dims.iter().product::<usize>().max(1);
        let BufData::Owned(v) = &mut self.data else {
            unreachable!("rezero of a shared parameter buffer")
        };
        v.clear();
        v.resize(len, 0.0);
        self.dims = dims;
        self.strides = strides_of(dims);
    }

    /// A read-only view of a bound parameter tensor: no owned storage is
    /// allocated, zeroed or filled at all — on small solo runs a copy of
    /// a `[vocab, h]` embedding table would dwarf the actual execution.
    pub(crate) fn shared(dims: Dims, class: StorageClass, data: Arc<Tensor>) -> Self {
        Self::with_data(dims, class, BufData::Shared(data))
    }

    fn with_data(dims: Dims, class: StorageClass, data: BufData) -> Self {
        Buffer {
            data,
            dims,
            strides: strides_of(dims),
            class,
        }
    }

    pub(crate) fn bytes(&self) -> u64 {
        self.data.len() as u64 * 4
    }
}

// ---------------------------------------------------------------------
// Runtime environment (linearizer arrays + unrolled schedule)
// ---------------------------------------------------------------------

/// The input's batch table and unrolled schedule, refilled in place by
/// every run ([`RtEnv::fill`]).
#[derive(Default)]
pub(crate) struct RtEnv {
    pub(crate) batches: Vec<Batch>,
    pub(crate) stages: Vec<Vec<u32>>,
    pub(crate) num_super_waves: usize,
    pub(crate) intra_group_edges: usize,
    pub(crate) unamortized_barriers: usize,
    pub(crate) max_batch: usize,
}

impl RtEnv {
    /// Rebuilds the table for `lin`, reusing the batch list's allocation.
    pub(crate) fn fill(
        &mut self,
        program: &IlirProgram,
        lin: &Linearized,
    ) -> Result<(), ExecError> {
        let mut batches = std::mem::take(&mut self.batches);
        batches.clear();
        batches.push(lin.leaf_batch());
        batches.extend_from_slice(lin.internal_batches());
        let mut stages = Vec::new();
        let mut num_super_waves = 0;
        let mut intra_group_edges = 0;
        let mut unamortized_barriers = 0;
        if let Some(depth) = program.meta.schedule.unroll {
            let sched = lin.unrolled(depth)?;
            num_super_waves = sched.num_super_waves();
            intra_group_edges = sched.intra_group_edges;
            unamortized_barriers = sched.unamortized_barriers();
            for sw in &sched.super_waves {
                for stage in &sw.stages {
                    stages.push(stage.clone());
                }
            }
        }
        // Scratch tensors are live only within internal waves (and
        // unrolled stages), so they are sized by the widest of those —
        // not by the (typically much wider) leaf batch.
        let max_batch = lin
            .internal_batches()
            .iter()
            .map(Batch::len)
            .chain(stages.iter().map(Vec::len))
            .max()
            .unwrap_or(1)
            .max(1);
        *self = RtEnv {
            batches,
            stages,
            num_super_waves,
            intra_group_edges,
            unamortized_barriers,
            max_batch,
        };
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Accounting scopes
// ---------------------------------------------------------------------

#[derive(Default)]
pub(crate) struct Scope {
    /// Per-tensor `(loads, stores)` within this scope, indexed by tensor
    /// id. A flat array, not a map: these counters are bumped on every
    /// interpreted load/store, the hottest accounting path there is.
    pub(crate) touch: Vec<(u64, u64)>,
    pub(crate) flops_start: u64,
    /// Flops already attributed to nested (wave) scopes, so the outer
    /// launch scope only reports its own residual work.
    pub(crate) flops_attributed: u64,
    pub(crate) width: u64,
    /// Whether this scope is one iteration of the wave (`d_all_batches`)
    /// loop. Parameters read inside wave scopes are the *recurrent*
    /// parameters — the ones model persistence pins on-chip.
    pub(crate) is_wave: bool,
}

// ---------------------------------------------------------------------
// Interpreter state
// ---------------------------------------------------------------------

/// One request's execution state, kept by its lane between runs
/// (`LaneState::runs`: one per request of the widest lane group so far,
/// the first also serving solo runs) so a run reuses it instead of
/// building it. [`Interp::new`] moves it in and resets it for the new
/// input; [`Interp::finish`] moves the outputs out and hands it back.
///
/// * `bufs` keeps every `Param` entry bound to the caller's tensor for
///   the [`Params::generation`] in `bound`: a run against that
///   generation binds nothing, any other generation rebinds every entry
///   (name lookup, shape check, `Arc` clone). Between runs the state
///   keeps those tensors alive.
/// * Owned buffers keep their allocations and are resized and re-zeroed
///   in place; output buffers leave with the outputs.
/// * Slots, persisted loads and the batch table are re-zeroed or
///   refilled in place; scopes, wave activations and the launch cursor
///   are empty between runs and keep their capacity.
///
/// A run that fails drops its state: the lane's next run starts from a
/// fresh one. Nothing a run computes depends on what the state held
/// before — outputs, `Profile` and every counter equal a fresh state's.
#[derive(Default)]
pub(crate) struct RunState {
    bufs: Vec<Option<Buffer>>,
    bound: Option<u64>,
    rt: RtEnv,
    slots: Vec<i64>,
    scopes: Vec<Scope>,
    scope_pool: Vec<Vec<(u64, u64)>>,
    persisted_loads: Vec<u64>,
    active: Vec<Option<ActiveSite>>,
    active_groups: Vec<ActiveGroup>,
    cursor: PcCursor,
    #[cfg(feature = "checked")]
    shadow: super::shadow::ShadowState,
}

/// The per-request execution state both runtimes drive: one request's
/// buffers, registers and accounting (moved in from its lane's
/// [`RunState`]), the engine's plans, and the lane's shuttled caches.
pub(crate) struct Interp<'a> {
    pub(crate) program: &'a IlirProgram,
    pub(crate) lin: &'a Linearized,
    pub(crate) rt: RtEnv,
    pub(crate) bufs: Vec<Option<Buffer>>,
    /// The `Params::generation` the `Param` entries of `bufs` are bound
    /// to.
    params_gen: u64,
    pub(crate) profile: Profile,
    pub(crate) slots: Vec<i64>,
    pub(crate) scopes: Vec<Scope>,
    /// Accumulated loads of persisted parameters (flushed once at the end:
    /// persistence reads each needed parameter byte exactly once).
    pub(crate) persisted_loads: Vec<u64>,
    pub(crate) persist_active: bool,
    pub(crate) nonlin: NonlinearityMode,
    pub(crate) opts: ExecOptions,
    /// Whether the phase timers read the clock: the engine was observed
    /// ([`super::Engine::stats`]) before this run.
    pub(crate) timed: bool,
    /// The compiled kernel trees the `interp: true` oracle walks, and
    /// its statement-address lookups into the plans.
    pub(crate) compiled: Arc<Vec<CompiledKernel>>,
    pub(crate) stmt_plans: Arc<StmtPlans>,
    /// The lowered linear instruction stream the pc runtime executes.
    pub(crate) plan: Arc<Program>,
    /// Index of the kernel currently launching — the kernel half of the
    /// bulk-plan keys.
    pub(crate) cur_kernel: usize,
    /// A lane's state, *shuttled* in and out around execution: a lane
    /// swaps its caches into exactly one of its interpreters at a time
    /// (the running one), which is how the requests of a lane group
    /// share reduction plans and scratch pools without aliasing.
    pub(crate) caches: Caches,
    /// The engine's packed weight of each stacking group, by engine-wide
    /// group id: the one copy every lane multiplies by, packed on first
    /// use. Borrowed, not shuttled: the caches a torn run leaves behind
    /// never carry a private copy.
    pub(crate) packs: &'a [OnceLock<Arc<PackedB>>],
    /// Sites of the wave currently executing (waves do not nest), by
    /// their ordinal in its plan: `Some` when served from a GEMM
    /// result, `None` when the site fell back to the scalar path.
    pub(crate) active: Vec<Option<ActiveSite>>,
    /// Stacked GEMMs of the wave currently executing.
    pub(crate) active_groups: Vec<ActiveGroup>,
    /// Zeroed per-tensor touch arrays, recycled across scopes.
    pub(crate) scope_pool: Vec<Vec<(u64, u64)>>,
    /// The pc runtime's launch cursor, kept for its allocations (see
    /// [`Interp::start_cursor`]).
    pub(crate) cursor: PcCursor,
    /// Shadow-access checker state (`checked` builds only): the dynamic
    /// twin of the wave and fusion legality checks — see
    /// [`super::shadow`]. Reset at every run's start.
    #[cfg(feature = "checked")]
    pub(crate) shadow: super::shadow::ShadowState,
}

impl<'a> Interp<'a> {
    /// Starts a run of `lin` in `state`: binds the `Param` buffers unless
    /// `state` is bound to `params`' generation already, and sizes and
    /// zeroes every owned buffer for this input. With `timed` the run's
    /// phase timers read the clock.
    ///
    /// # Errors
    ///
    /// [`ExecError::MissingParam`] / [`ExecError::ParamShape`] for a
    /// declared parameter `params` lacks or binds at another shape, and
    /// [`ExecError::Unroll`] for an input the schedule cannot unroll.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        program: &'a IlirProgram,
        lin: &'a Linearized,
        params: &Params,
        persist_active: bool,
        opts: ExecOptions,
        shared: super::SharedPlans,
        packs: &'a [OnceLock<Arc<PackedB>>],
        max_slots: usize,
        state: RunState,
        timed: bool,
    ) -> Result<Self, ExecError> {
        let RunState {
            mut bufs,
            bound,
            mut rt,
            mut slots,
            scopes,
            scope_pool,
            mut persisted_loads,
            active,
            active_groups,
            cursor,
            #[cfg(feature = "checked")]
            mut shadow,
        } = state;
        rt.fill(program, lin)?;
        let n_tensors = program.tensors.len();
        bufs.resize_with(n_tensors, || None);
        let params_gen = params.generation();
        let rebind = bound != Some(params_gen);
        let mut profile = Profile::new();
        for decl in program.declared_tensors() {
            assert!(decl.dims.len() <= 8, "tensor rank > 8 unsupported");
            let mut da = [0usize; 8];
            for (i, d) in decl.dims.iter().enumerate() {
                da[i] = match d {
                    DimExtent::Fixed(n) => *n,
                    DimExtent::Nodes => lin.num_nodes(),
                    DimExtent::MaxBatch => rt.max_batch,
                };
            }
            let dims = Dims {
                a: da,
                len: decl.dims.len() as u8,
            };
            let slot = &mut bufs[decl.id.0 as usize];
            let param = decl.class == StorageClass::Param;
            match slot {
                Some(buf) if !param => buf.rezero(dims),
                None if !param => *slot = Some(Buffer::zeroed(dims, decl.class)),
                // A binding stands while the generation and extents do.
                Some(buf) if !rebind && *buf.dims == *dims => {}
                _ => *slot = Some(bind_param(params, decl, dims)?),
            }
            let buf = slot.as_ref().expect("bound above");
            if decl.class == StorageClass::Scratch {
                profile.scratch_allocated_bytes += buf.bytes();
            }
            profile.allocated_bytes += buf.bytes();
        }
        slots.clear();
        slots.resize(max_slots, 0);
        persisted_loads.clear();
        persisted_loads.resize(n_tensors, 0);
        // Empty after every completed run; a failed run drops its state.
        debug_assert!(scopes.is_empty() && active.is_empty() && active_groups.is_empty());
        #[cfg(feature = "checked")]
        shadow.reset();
        Ok(Interp {
            program,
            lin,
            rt,
            bufs,
            params_gen,
            profile,
            slots,
            scopes,
            persisted_loads,
            persist_active,
            // The rational substitution is the schedule's choice (App. A.5).
            nonlin: program.meta.schedule.nonlinearity,
            opts,
            timed,
            compiled: shared.compiled,
            stmt_plans: shared.stmt_plans,
            plan: shared.plan,
            cur_kernel: 0,
            caches: Caches::default(),
            packs,
            active,
            active_groups,
            scope_pool,
            cursor,
            #[cfg(feature = "checked")]
            shadow,
        })
    }
    /// Post-run accounting shared by both runtimes' completion paths.
    pub(crate) fn finalize_run(&mut self) {
        // Unrolled schedules: reclassify stage barriers and credit cache
        // reuse along intra-group edges (Fig. 3's yellow boxes).
        if self.program.meta.schedule.unroll.is_some() {
            if self.program.meta.schedule.unroll_block_local {
                // One node per thread block: intra-group stage boundaries
                // are block-local syncs; only super waves need the device.
                let total = self.profile.barriers_global;
                let global = self.rt.num_super_waves as u64;
                self.profile.barriers_block = total.saturating_sub(global);
                self.profile.barriers_global = global;
            } else {
                // Fig. 11: the barrier cannot be amortized across the
                // groups of a super wave — each unrolled call region
                // synchronizes its own stages.
                self.profile.barriers_global = self
                    .profile
                    .barriers_global
                    .max(self.rt.unamortized_barriers as u64);
            }
            let per_edge_bytes: u64 = self
                .program
                .declared_tensors()
                .filter(|t| t.is_output || matches!(t.dims.first(), Some(DimExtent::Nodes)))
                .filter(|t| t.class == StorageClass::Global)
                .map(|t| {
                    t.dims
                        .iter()
                        .skip(1)
                        .map(|d| match d {
                            DimExtent::Fixed(n) => *n as u64,
                            _ => 1,
                        })
                        .product::<u64>()
                        * 4
                })
                .sum();
            self.profile.cache_reuse_bytes = self.rt.intra_group_edges as u64 * per_edge_bytes;
        }
        // Recursive refactoring: the fused A2/A1 stage boundary is a
        // block-local sync per wave (per-subtree blocking), accounted here.
        if self.program.meta.schedule.refactor_split.is_some() {
            self.profile.barriers_block += self.lin.internal_batches().len() as u64;
        }
        // Persisted parameters: each needed byte read exactly once.
        if self.persist_active {
            for (i, &loads) in self.persisted_loads.iter().enumerate() {
                if loads > 0 {
                    if let Some(buf) = &self.bufs[i] {
                        self.profile.param_bytes_read += (loads * 4).min(buf.bytes());
                    }
                }
            }
        }
    }

    /// Ends the run: moves the outputs out with the `Profile`, and hands
    /// back the [`RunState`] for the lane's next run.
    ///
    /// # Errors
    ///
    /// [`ExecError::Internal`] if an output has no buffer.
    pub(crate) fn finish(mut self) -> Result<(RunOutput, RunState), ExecError> {
        #[cfg(test)]
        super::tests::note_param_views(&self);
        let mut outputs = HashMap::new();
        for id in &self.program.outputs {
            let buf = self.bufs[id.0 as usize]
                .take()
                .ok_or_else(|| ExecError::Internal(format!("output {id} has no buffer")))?;
            let t = Tensor::from_vec(buf.data.into_vec(), &buf.dims)
                .map_err(|e| ExecError::Internal(e.to_string()))?;
            outputs.insert(*id, t);
        }
        let state = RunState {
            bufs: self.bufs,
            bound: Some(self.params_gen),
            rt: self.rt,
            slots: self.slots,
            scopes: self.scopes,
            scope_pool: self.scope_pool,
            persisted_loads: self.persisted_loads,
            active: self.active,
            active_groups: self.active_groups,
            cursor: self.cursor,
            #[cfg(feature = "checked")]
            shadow: self.shadow,
        };
        Ok(((outputs, self.profile), state))
    }

    // -- accounting ---------------------------------------------------

    pub(crate) fn push_scope(&mut self, is_wave: bool) {
        let flops = self.profile.flops;
        let touch = self
            .scope_pool
            .pop()
            .unwrap_or_else(|| vec![(0, 0); self.bufs.len()]);
        debug_assert!(touch.iter().all(|&t| t == (0, 0)));
        self.scopes.push(Scope {
            touch,
            flops_start: flops,
            flops_attributed: 0,
            width: 0,
            is_wave,
        });
    }

    pub(crate) fn pop_scope(&mut self) {
        let mut scope = self.scopes.pop().expect("scope underflow");
        let delta = self.profile.flops - scope.flops_start;
        let own = delta - scope.flops_attributed;
        if let Some(parent) = self.scopes.last_mut() {
            parent.flops_attributed += delta;
        }
        let mut wave_bytes = 0u64;
        for (t, counts) in scope.touch.iter_mut().enumerate() {
            let (loads, stores) = std::mem::take(counts);
            if loads == 0 && stores == 0 {
                continue;
            }
            let tensor = TensorId(t as u32);
            let Some(buf) = &self.bufs[tensor.0 as usize] else {
                continue;
            };
            let size = buf.bytes();
            match buf.class {
                StorageClass::Param => {
                    // Persistence pins the recurrent parameters (those
                    // read every wave); one-shot reads (embedding gathers
                    // in leaf/precompute kernels) always pay their
                    // traffic, as in GRNN/DeepCPU.
                    if self.persist_active && scope.is_wave {
                        self.persisted_loads[tensor.0 as usize] += loads;
                    } else {
                        let b = (loads * 4).min(size);
                        self.profile.param_bytes_read += b;
                        wave_bytes += b;
                    }
                }
                StorageClass::Global => {
                    let r = (loads * 4).min(size);
                    let w = (stores * 4).min(size);
                    self.profile.global_bytes_read += r;
                    self.profile.global_bytes_written += w;
                    wave_bytes += r + w;
                }
                StorageClass::Scratch => {
                    self.profile.scratch_bytes_accessed += (loads + stores) * 4;
                }
            }
        }
        if own > 0 || wave_bytes > 0 {
            self.profile.waves.push(WaveStat {
                flops: own,
                width: scope.width.max(1),
                bytes: wave_bytes,
            });
        }
        self.scope_pool.push(scope.touch);
    }

    #[inline]
    pub(crate) fn record_load(&mut self, tensor: TensorId) {
        if let Some(scope) = self.scopes.last_mut() {
            scope.touch[tensor.0 as usize].0 += 1;
        }
    }

    #[inline]
    pub(crate) fn record_store(&mut self, tensor: TensorId) {
        if let Some(scope) = self.scopes.last_mut() {
            scope.touch[tensor.0 as usize].1 += 1;
        }
    }

    // -- statement helpers shared by both runtimes --------------------

    /// Executes a `Store` statement (offset, accounting, write).
    pub(crate) fn exec_store(
        &mut self,
        tensor: TensorId,
        index: &[IdxExpr],
        value: &cortex_core::expr::ValExpr,
    ) {
        let v = self.eval_val(value);
        let off = self.offset(tensor, index);
        #[cfg(feature = "checked")]
        self.shadow_check_store(tensor, off);
        self.record_store(tensor);
        let buf = self.bufs[tensor.0 as usize]
            .as_mut()
            .expect("stored tensor allocated");
        buf.data.as_mut()[off] = v;
    }

    pub(crate) fn offset(&mut self, tensor: TensorId, index: &[IdxExpr]) -> usize {
        self.strided_offset(tensor, index, None).0
    }

    /// Base offset and `i`-stride of an index list whose non-`i`
    /// positions are loop-invariant (evaluated once).
    pub(crate) fn strided_offset(
        &mut self,
        tensor: TensorId,
        index: &[IdxExpr],
        i_pos: Option<usize>,
    ) -> (usize, usize) {
        let mut coords = [0i64; 8];
        for (d, e) in index.iter().enumerate() {
            if Some(d) != i_pos {
                coords[d] = self.eval_idx(e);
            }
        }
        let buf = self.bufs[tensor.0 as usize]
            .as_ref()
            .expect("tensor allocated");
        let mut base = 0usize;
        for (d, &c) in coords.iter().enumerate().take(index.len()) {
            debug_assert!(
                c >= 0 && (c as usize) < buf.dims[d],
                "index {} out of bounds for dim {} of {:?} (tensor {tensor})",
                c,
                d,
                buf.dims
            );
            base += c as usize * buf.strides[d];
        }
        (base, i_pos.map_or(0, |d| buf.strides[d]))
    }

    // -- index/boolean expression evaluation --------------------------

    pub(crate) fn eval_idx(&mut self, e: &IdxExpr) -> i64 {
        let mut loads = 0;
        let v = self.idx_value(e, &mut loads);
        self.profile.leaf_check_loads += loads;
        v
    }

    /// The index walk: the value of `e`, adding the `leaf_check_loads` it
    /// charges to `loads`.
    pub(crate) fn idx_value(&self, e: &IdxExpr, loads: &mut u64) -> i64 {
        match e {
            IdxExpr::Const(c) => *c,
            IdxExpr::Var(v) => self.slots[v.id() as usize],
            IdxExpr::Rt(r) => self.rt_scalar(*r),
            IdxExpr::Ufn(Ufn::StageNodeAt, args) => {
                let a0 = self.idx_value(&args[0], loads);
                let a1 = self.idx_value(&args[1], loads);
                self.rt.stages[a0 as usize][a1 as usize] as i64
            }
            IdxExpr::Ufn(f, args) => {
                let a0 = self.idx_value(&args[0], loads);
                *loads += u64::from(*f == Ufn::NumChildren);
                self.read(*f, a0)
            }
            IdxExpr::Bin(op, a, b) => {
                let (x, y) = (self.idx_value(a, loads), self.idx_value(b, loads));
                match op {
                    IdxBinOp::Add => x + y,
                    IdxBinOp::Sub => x - y,
                    IdxBinOp::Mul => x * y,
                    IdxBinOp::Div => x.div_euclid(y),
                    IdxBinOp::Rem => x.rem_euclid(y),
                    IdxBinOp::Min => x.min(y),
                    IdxBinOp::Max => x.max(y),
                }
            }
        }
    }

    /// One read `f(a0)` of a linearizer or schedule array (every
    /// one-argument [`Ufn`]).
    #[inline]
    pub(crate) fn read(&self, f: Ufn, a0: i64) -> i64 {
        match f {
            Ufn::Child(k) => self.lin.child_array(k as usize)[a0 as usize] as i64,
            Ufn::Word => self.lin.word(a0 as u32) as i64,
            Ufn::NumChildren => self.lin.num_children_of(a0 as u32) as i64,
            Ufn::BatchBegin => self.rt.batches[a0 as usize].begin() as i64,
            Ufn::BatchLength => self.rt.batches[a0 as usize].len() as i64,
            Ufn::NodeAt => self.lin.post_order()[a0 as usize] as i64,
            Ufn::RootAt => self.lin.roots()[a0 as usize] as i64,
            Ufn::StageLength => self.rt.stages[a0 as usize].len() as i64,
            Ufn::StageNodeAt => unreachable!("stage_node takes two arguments"),
        }
    }

    pub(crate) fn rt_scalar(&self, r: RtScalar) -> i64 {
        match r {
            RtScalar::NumNodes => self.lin.num_nodes() as i64,
            RtScalar::NumInternal => self.lin.num_internal() as i64,
            RtScalar::NumLeaves => (self.lin.num_nodes() - self.lin.num_internal()) as i64,
            RtScalar::NumInternalBatches => self.lin.internal_batches().len() as i64,
            RtScalar::LeafBegin => self.lin.num_internal() as i64,
            RtScalar::MaxBatchLen => self.rt.max_batch as i64,
            RtScalar::NumRoots => self.lin.roots().len() as i64,
            RtScalar::NumStages => self.rt.stages.len() as i64,
        }
    }

    pub(crate) fn eval_bool(&mut self, e: &BoolExpr) -> bool {
        match e {
            BoolExpr::Cmp(op, a, b) => {
                let (x, y) = (self.eval_idx(a), self.eval_idx(b));
                op.apply(x, y)
            }
            BoolExpr::IsLeaf(n) => {
                let v = self.eval_idx(n);
                self.lin.is_leaf(v as u32)
            }
            BoolExpr::And(a, b) => self.eval_bool(a) && self.eval_bool(b),
            BoolExpr::Or(a, b) => self.eval_bool(a) || self.eval_bool(b),
            BoolExpr::Not(a) => !self.eval_bool(a),
        }
    }

    /// The pc runtime's cursor for this run, at its first launch: the
    /// run state's cursor with the launch schedule refilled. Put it back
    /// in [`Interp::cursor`] when done.
    pub(crate) fn start_cursor(&mut self) -> PcCursor {
        let mut cur = std::mem::take(&mut self.cursor);
        launch_units(&self.compiled, self.program, self.lin, &mut cur.units);
        cur.restart();
        cur
    }
}

/// A `Param` buffer: the caller's tensor for `decl`, bound in place
/// (parameters are read-only to the generated code).
fn bind_param(
    params: &Params,
    decl: &cortex_core::ilir::TensorDecl,
    dims: Dims,
) -> Result<Buffer, ExecError> {
    let bound = params
        .get_shared(&decl.name)
        .ok_or_else(|| ExecError::MissingParam(decl.name.clone()))?;
    if bound.shape().dims() != &*dims {
        return Err(ExecError::ParamShape {
            name: decl.name.clone(),
            expected: dims.to_vec(),
            found: bound.shape().dims().to_vec(),
        });
    }
    Ok(Buffer::shared(dims, decl.class, Arc::clone(bound)))
}

/// The flat launch schedule both runtimes execute, into `units`:
/// `Once` kernels in order, each `PerInternalBatch` run expanded over
/// the input's batch indices. Precomputing it lets the resumable pc
/// cursor treat every kernel launch uniformly.
pub(crate) fn launch_units(
    compiled: &[CompiledKernel],
    program: &IlirProgram,
    lin: &Linearized,
    units: &mut Vec<(usize, Option<i64>)>,
) {
    use cortex_core::ilir::LaunchPattern;
    let num_internal_batches = if program.meta.schedule.specialize {
        lin.internal_batches().len() as i64
    } else {
        lin.internal_batches().len() as i64 + 1
    };
    units.clear();
    let mut i = 0;
    while i < compiled.len() {
        match compiled[i].launch {
            LaunchPattern::Once => {
                units.push((i, None));
                i += 1;
            }
            LaunchPattern::PerInternalBatch => {
                let mut j = i;
                while j < compiled.len() && compiled[j].launch == LaunchPattern::PerInternalBatch {
                    j += 1;
                }
                for b in 0..num_internal_batches {
                    for k in i..j {
                        units.push((k, Some(b)));
                    }
                }
                i = j;
            }
        }
    }
}
