//! The ILIR executor: compiles kernels to a linear plan and runs it.
//!
//! Where TVM would emit CUDA/LLVM, this executor **lowers** the ILIR to
//! a flat instruction stream and interprets that — with two properties
//! the reproduction depends on:
//!
//! 1. **Exact semantics**: results are bit-identical to what generated
//!    code would produce (validated against pure-Rust reference model
//!    implementations in `cortex-models`).
//! 2. **Complete accounting**: every launch, barrier, load, store and flop
//!    is recorded into a [`Profile`], with global-memory traffic
//!    de-duplicated per wavefront (a hardware cache would do the same
//!    within a kernel) and parameter reads counted once per program under
//!    model persistence or once per wave otherwise — the exact accounting
//!    Appendix C's roofline analysis performs.
//!
//! # Compile pipeline
//!
//! ```text
//! ILIR kernels
//!   │  [`lowering::CompiledKernel::compile`]   dense variable slots
//!   ▼
//! compiled ASTs ──▶ wave analysis  (`wave::analyze`: GEMM sites, stacking groups)
//!   │           ──▶ row programs   (`bulk`: tiled feature loops, fused epilogues)
//!   │  [`lowering::lower`]        flatten + resolve plans into operands
//!   ▼
//! [`program::Program`]            flat `Vec<Op>` with jump targets
//!   │  [`verify`]                 static checks; refuse on any finding
//!   │  [`run`]                    pc dispatch; park = pc + loop records
//!   ▼
//! outputs + exact `Profile`
//! ```
//!
//! The lowering is fixed when the engine is built: [`Engine::new`] (and
//! [`Engine::with_options`]) plan reduction waves as stacked GEMMs,
//! [`Engine::per_element`] plans none, so each reduction runs as its
//! own strided dot — the reference the wave path's `Profile` accounting
//! is checked against. [`ExecOptions`] holds runtime switches and
//! admission limits only; [`Engine::set_options`] swaps them without
//! touching the plan.
//!
//! One runtime executes the verified program, and one reference checks
//! it — bit-identical on outputs and `Profile` (property-tested across
//! every model, the pc runtime solo and batched against one oracle walk
//! per request):
//!
//! * **pc** (default): the match-on-op dispatch loop over the `Program`
//!   ops (`run`). It alone parks and resumes, so it alone runs the
//!   batched super-wave schedule of [`Engine::execute_many`].
//! * **interp** (`interp: true`): the pre-lowering recursive AST walk
//!   (`scalar`), kept as the bit-exactness oracle — the same
//!   cross-check pattern as `bulk: false`. It never suspends: its
//!   `execute_many` is one solo walk per request, in input order.

pub(crate) mod address;
mod bulk;
mod gather;
mod interp;
mod lowering;
mod program;
mod run;
mod scalar;
#[cfg(feature = "checked")]
mod shadow;
mod stopwatch;
#[cfg(test)]
mod tests;
mod verify;

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};

use cortex_core::expr::{IdxExpr, TensorId};
use cortex_core::ilir::{DimExtent, IlirProgram, StorageClass};
use cortex_ds::linearizer::{LinearizeError, Linearized};
use cortex_tensor::kernels::{self, PackedB};
use cortex_tensor::{par, Tensor};

use crate::device::{DeviceSpec, LatencyEstimate};
use crate::params::Params;
use crate::persist::{check_persistence, PersistDecision};
use crate::profile::Profile;
use crate::wave::{SumSite, SuperEntry, SuperWaveAcc};

use interp::{Caches, Interp, RunState};
use lowering::{CompiledKernel, StmtPlans};
use run::PcCursor;
use stopwatch::Stopwatch;

pub use program::PlanStats;
pub use verify::VerifyError;

/// Slot/pc/bounds assertions in the pc runtime's hot loops, compiled in
/// only under the `checked` cargo feature (CI runs the suite with it
/// on; default builds pay nothing). Results are bit-identical either
/// way — the asserts observe, never steer.
#[cfg(feature = "checked")]
macro_rules! checked_assert {
    ($($t:tt)*) => { assert!($($t)*) };
}
#[cfg(not(feature = "checked"))]
macro_rules! checked_assert {
    ($($t:tt)*) => {};
}
pub(crate) use checked_assert;

/// Why an input was refused at engine intake (see
/// [`ExecError::InvalidInput`]): an untrusted structure or binding that
/// must not reach the runtimes.
#[derive(Debug, Clone, PartialEq)]
pub enum InvalidInput {
    /// The structure has nodes with more children than the plan was
    /// lowered for — executing it would silently drop edges.
    ArityExceedsPlan {
        /// The structure's max children per node.
        found: usize,
        /// The child slots the plan's kernels address.
        plan: usize,
    },
    /// The structure has internal nodes with fewer children than the
    /// plan reads *unguarded* — an exact (Select-free) plan would chase
    /// a "no child" indirection. Guarded plans (`required == 0`) accept
    /// any arity and substitute zero for absent children.
    ArityBelowPlan {
        /// The smallest internal-node child count in the structure.
        found: usize,
        /// The child slots the plan reads without an existence guard.
        required: usize,
    },
    /// More nodes than [`ExecOptions::max_input_nodes`] allows.
    NodesOverLimit {
        /// The structure's node count.
        nodes: usize,
        /// The configured admission limit.
        limit: usize,
    },
    /// More wavefront depths than [`ExecOptions::max_input_depth`]
    /// allows.
    DepthOverLimit {
        /// The structure's wavefront (batch) count.
        depth: usize,
        /// The configured admission limit.
        limit: usize,
    },
    /// A bound parameter tensor contains NaN or infinity.
    NonFiniteParam {
        /// The parameter's name.
        name: String,
    },
}

impl std::fmt::Display for InvalidInput {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InvalidInput::ArityExceedsPlan { found, plan } => {
                write!(
                    f,
                    "structure has nodes with {found} children but the plan addresses {plan}"
                )
            }
            InvalidInput::ArityBelowPlan { found, required } => {
                write!(
                    f,
                    "structure has internal nodes with {found} children but the plan \
                     reads {required} unguarded"
                )
            }
            InvalidInput::NodesOverLimit { nodes, limit } => {
                write!(
                    f,
                    "structure has {nodes} nodes, over the {limit}-node limit"
                )
            }
            InvalidInput::DepthOverLimit { depth, limit } => {
                write!(
                    f,
                    "structure has {depth} wavefronts, over the {limit} limit"
                )
            }
            InvalidInput::NonFiniteParam { name } => {
                write!(f, "parameter '{name}' contains non-finite values")
            }
        }
    }
}

/// Errors from program execution.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecError {
    /// A declared parameter was not bound.
    MissingParam(String),
    /// A bound parameter's shape does not match its declaration.
    ParamShape {
        /// Parameter name.
        name: String,
        /// Declared dims.
        expected: Vec<usize>,
        /// Bound dims.
        found: Vec<usize>,
    },
    /// Building the unrolled schedule failed (e.g. unrolling a DAG).
    Unroll(LinearizeError),
    /// An untrusted input was refused at intake (before any execution
    /// state was touched) — see [`InvalidInput`].
    InvalidInput(InvalidInput),
    /// The plan-time memory estimate for this input exceeds
    /// [`ExecOptions::memory_budget`].
    OverBudget {
        /// Estimated bytes the run would allocate.
        needed: u64,
        /// The configured budget.
        budget: u64,
    },
    /// The lowered plan failed static verification — the engine refuses
    /// to run it (see [`VerifyError`]).
    Verify(VerifyError),
    /// An internal invariant was violated.
    Internal(String),
    /// A deterministic test fault raised through the engine's
    /// fault-injection hook (see [`FaultHook`]). Never produced outside
    /// fault-injection harnesses.
    Injected(String),
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::MissingParam(n) => write!(f, "parameter '{n}' is not bound"),
            ExecError::ParamShape {
                name,
                expected,
                found,
            } => {
                write!(
                    f,
                    "parameter '{name}' has shape {found:?}, expected {expected:?}"
                )
            }
            ExecError::Unroll(e) => write!(f, "unrolled schedule: {e}"),
            ExecError::InvalidInput(e) => write!(f, "invalid input: {e}"),
            ExecError::OverBudget { needed, budget } => {
                write!(
                    f,
                    "estimated footprint {needed} bytes exceeds the {budget}-byte budget"
                )
            }
            ExecError::Verify(e) => write!(f, "plan verification failed: {e}"),
            ExecError::Internal(msg) => write!(f, "internal executor error: {msg}"),
            ExecError::Injected(site) => write!(f, "injected fault at {site}"),
        }
    }
}

impl std::error::Error for ExecError {}

impl From<LinearizeError> for ExecError {
    fn from(e: LinearizeError) -> Self {
        ExecError::Unroll(e)
    }
}

impl From<InvalidInput> for ExecError {
    fn from(e: InvalidInput) -> Self {
        ExecError::InvalidInput(e)
    }
}

impl From<VerifyError> for ExecError {
    fn from(e: VerifyError) -> Self {
        ExecError::Verify(e)
    }
}

// ---------------------------------------------------------------------
// Fault injection (testing substrate)
// ---------------------------------------------------------------------

/// An instrumented execution site a [`FaultHook`] is consulted at.
///
/// The two sites cover the two failure shapes a serving layer must
/// contain, and both belong to the **pc (ExecPlan) runtime only**: the
/// `interp` oracle consults no site on any path, so an always-faulting
/// hook emulates a broken lowered plan whose oracle twin still works
/// (the circuit-breaker scenario). [`FaultSite::Launch`] fires once per
/// kernel launch; [`FaultSite::Gemm`] fires once per super-wave flush of
/// [`Engine::execute_many`], shared by every request parked in it, so
/// one Gemm fault takes down a whole co-batched lane group. (A solo
/// run's own wave GEMMs consult no site.)
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultSite {
    /// One kernel launch of the pc runtime. `nodes` is the running
    /// request's node count — a request identity that survives
    /// re-batching, letting a hook poison one specific request
    /// deterministically across chunk bisection and solo re-runs.
    Launch {
        /// Node count of the request entering the launch.
        nodes: usize,
    },
    /// One pc super-wave flush over `rows` gathered rows (possibly
    /// merged across the requests of a lane group).
    Gemm {
        /// Total row count of the (super-)wave GEMM.
        rows: usize,
    },
}

impl std::fmt::Display for FaultSite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultSite::Launch { nodes } => write!(f, "launch(nodes={nodes})"),
            FaultSite::Gemm { rows } => write!(f, "gemm(rows={rows})"),
        }
    }
}

/// What an injected fault does at its site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// The engine call returns `Err(`[`ExecError::Injected`]`)` — the
    /// typed-error failure shape.
    Err,
    /// The engine panics (payload [`InjectedPanic`]), as a genuine
    /// executor bug would — the panic-containment failure shape.
    Panic,
}

/// Panic payload carrying a [`FaultAction::Err`] injection out of the
/// run. Caught at the [`Engine::execute`]/[`Engine::execute_many`]
/// boundary (only when a hook is installed) and converted into the
/// typed `Err` return; it never escapes the engine.
pub struct InjectedFault(pub ExecError);

/// Panic payload of [`FaultAction::Panic`]. Deliberately **not** caught
/// by the engine: it unwinds out of the engine call exactly like a real
/// executor panic, for callers' panic containment to exercise.
pub struct InjectedPanic(pub FaultSite);

/// A deterministic fault-injection decision function, consulted at every
/// [`FaultSite`] occurrence. Installed with [`Engine::set_fault_hook`];
/// `None` (the default) costs one branch per site. Shared `Rc` so
/// harnesses can keep counters on the other handle. Being `Rc`, it never
/// leaves the calling thread: with a hook installed, the lane groups of
/// [`Engine::execute_many`] run one after another on the caller, in
/// group order, so the hook sees a deterministic site sequence.
pub type FaultHook = Rc<RefCell<dyn FnMut(FaultSite) -> Option<FaultAction>>>;

/// Consults the hook at `site` and raises the chosen fault, if any.
///
/// The hook borrow is released *before* the panic so a caught unwind
/// leaves the hook reusable.
pub(crate) fn maybe_inject(hook: Option<&FaultHook>, site: FaultSite) {
    let Some(h) = hook else { return };
    let action = (h.borrow_mut())(site);
    match action {
        None => {}
        Some(FaultAction::Err) => {
            std::panic::panic_any(InjectedFault(ExecError::Injected(site.to_string())))
        }
        Some(FaultAction::Panic) => std::panic::panic_any(InjectedPanic(site)),
    }
}

/// One request's raw execution result: output tensors by id plus the
/// exact counters ([`Engine::execute`]'s return shape, also produced
/// per request by [`Engine::execute_many`]).
pub type RunOutput = (HashMap<TensorId, Tensor>, Profile);

/// The result of running a lowered program on a device model.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Output tensors by id (recursion results and marked outputs).
    pub outputs: HashMap<TensorId, Tensor>,
    /// Execution counters.
    pub profile: Profile,
    /// Device-model latency estimate.
    pub latency: LatencyEstimate,
    /// Persistence decision that was in effect.
    pub persist: PersistDecision,
}

/// Runs `program` on the linearized input with the given parameters and
/// device model.
///
/// # Errors
///
/// Returns [`ExecError`] for unbound/ill-shaped parameters or invalid
/// unrolled schedules.
pub fn run(
    program: &IlirProgram,
    lin: &Linearized,
    params: &Params,
    device: &DeviceSpec,
) -> Result<RunResult, ExecError> {
    Engine::new(program).run(lin, params, device)
}

/// Executes without a device model, returning outputs and raw counters.
///
/// # Errors
///
/// See [`run`].
pub fn execute(
    program: &IlirProgram,
    lin: &Linearized,
    params: &Params,
    persist_active: bool,
) -> Result<(HashMap<TensorId, Tensor>, Profile), ExecError> {
    Engine::new(program).execute(lin, params, persist_active)
}

// ---------------------------------------------------------------------
// Options and stats
// ---------------------------------------------------------------------

/// The runtime switches and admission limits of an [`Engine`].
///
/// None of these reaches the lowering: an engine's plan is fixed when
/// it is built ([`Engine::new`] for the batched wavefront lowering,
/// [`Engine::per_element`] for its reference), and
/// [`Engine::set_options`] swaps these fields on a live engine without
/// touching it. The nonlinearity mode is the program's schedule choice
/// (`RaSchedule::nonlinearity`, App. A.5), not an option.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecOptions {
    /// Serve store loops as compiled row programs (tiled rows, fused
    /// whole-wave epilogues) instead of interpreting them per element.
    /// Results are **bit-identical** either way, in both nonlinearity
    /// modes, and the `Profile` counters are exactly equal; `false` is
    /// the per-element reference for that claim
    /// (`tests/wave_equivalence.rs`'s
    /// `bulk_serving_is_bit_identical_to_per_element_serving`).
    pub bulk: bool,
    /// Run the AST-walking interpreter instead of the lowered linear
    /// plan. Outputs and `Profile`s are **bit-identical** to the pc
    /// runtime (property-tested across every model, the pc runtime solo
    /// and batched); this switch is the lowering's correctness oracle
    /// and the serving breaker's degraded rung. The oracle never merges
    /// requests: [`Engine::execute_many`] runs one solo walk per
    /// request.
    pub interp: bool,
    /// Refuse runs whose plan-time memory estimate
    /// ([`Engine::footprint`]) exceeds this many bytes
    /// ([`ExecError::OverBudget`]). `None` (the default) admits
    /// everything. Enforced at admission only — accepted runs pay no
    /// per-op cost. Needed by the serving front's over-budget refusal
    /// (`cortex-serve`'s `fuzz_structures`) and
    /// `memory_budget_refuses_over_budget_runs`.
    pub memory_budget: Option<u64>,
    /// Refuse inputs with more nodes than this
    /// ([`InvalidInput::NodesOverLimit`]). `None` admits any size.
    /// Needed by the intake ladder's node cap
    /// (`input_size_and_depth_limits_are_enforced`).
    pub max_input_nodes: Option<usize>,
    /// Refuse inputs with more wavefront depths (height batches) than
    /// this ([`InvalidInput::DepthOverLimit`]). `None` admits any depth.
    /// Needed by the intake ladder's depth cap
    /// (`input_size_and_depth_limits_are_enforced`).
    pub max_input_depth: Option<usize>,
}

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions {
            bulk: true,
            interp: false,
            memory_budget: None,
            max_input_nodes: None,
            max_input_depth: None,
        }
    }
}

impl ExecOptions {
    /// The AST-walking oracle: identical semantics to the lowered plan
    /// runtime, re-dispatched per statement instead of per op.
    pub fn interpreted() -> Self {
        ExecOptions {
            interp: true,
            ..ExecOptions::default()
        }
    }
}

/// Diagnostic counters of the batched wavefront engine, reset on every
/// [`Engine::execute`]. Unlike [`Profile`] these describe the *executor
/// strategy* (how many GEMMs served the run, how much stacking engaged),
/// not the modeled device work — the scalar and batched paths
/// intentionally report different [`ExecStats`] while their `Profile`s
/// are identical. The four `*_ns` phase timers run only on an observed
/// engine, one whose [`Engine::stats`] was read before the run; on an
/// unobserved one they read no clock and stay 0.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Wave GEMM launches. A per-node product's small GEMMs (MV-RNN's
    /// child-matrix sums) run inside the gather: they are timed as
    /// gather work and not counted here or in the next two fields.
    pub wave_gemms: u64,
    /// Total rows across all wave GEMMs.
    pub gemm_rows: u64,
    /// Floating-point operations of all wave GEMMs (`2·rows·cols·k` per
    /// launch): over `gemm_ns` it is the rate the GEMM layer achieved,
    /// whose ceiling is the box's FMA peak.
    pub gemm_flops: u64,
    /// Waves that ran the batched path.
    pub waves_batched: u64,
    /// Reduction sites served from wave GEMMs.
    pub sites_batched: u64,
    /// Multi-site groups executed as one stacked GEMM.
    pub stacked_groups: u64,
    /// Sites that shared a stacked GEMM (members of the above).
    pub stacked_sites: u64,
    /// Planned sites that ran per element instead, counted each wave:
    /// the members of a stacking group whose weight is not a 2-D
    /// `Param` window with a constant extent (decided at engine build,
    /// see `SiteGroup::static_window`), and a per-node product whose
    /// `X` cannot be read in place that wave.
    pub fallback_sites: u64,
    /// Stacked-weight matrices packed: at most one per stacking group
    /// per params generation, by whichever lane needs it first, so 0 on
    /// an engine that already ran against the bound [`Params`].
    pub weight_packs: u64,
    /// Merged super-wave GEMMs (one GEMM serving the same wave depth of
    /// several queued requests) executed by [`Engine::execute_many`].
    /// Requests merge only within their lane group
    /// ([`Engine::batch_groups`]):
    /// on two lanes, 16 equal sequences run as two groups of 8, so this
    /// and the next two fields count each group's GEMMs, and a GEMM
    /// serves at most its group's requests.
    pub super_gemms: u64,
    /// Rows across merged super-wave GEMMs (per lane group, like
    /// `super_gemms`).
    pub super_gemm_rows: u64,
    /// Sum over merged GEMMs of the number of requests each served (so
    /// `super_gemm_requests / super_gemms` is the mean merge width, at
    /// most the largest lane group).
    pub super_gemm_requests: u64,
    /// Wave GEMM launches, and per-node products, large enough to be
    /// split, by weight-panel ranges, across the lanes of
    /// `cortex_tensor::par` (0 on a one-CPU box or under
    /// `par::with_lanes(1, ..)`). Outputs and `Profile` do not depend on
    /// it.
    pub forked_gemms: u64,
    /// Waves whose whole body ran as the fused epilogue (one flat row
    /// program per node instead of a per-element body walk).
    pub fused_waves: u64,
    /// Fused waves whose tile sweeps ran row-parallel across lanes: in
    /// block form (stores filling one block of rows, checked at plan
    /// time), of two rows or more, big enough, and on more than one lane.
    pub forked_waves: u64,
    /// Wall-clock nanoseconds in **fused wave** epilogues — the
    /// post-GEMM serve/nonlinearity cost. Per fused wave: from the end
    /// of the wave's GEMMs when it ran them solo (the GEMM phase's last
    /// clock read, shared), else from the epilogue's start (a wave
    /// parked for a super-wave flush, or one without GEMMs), to the end
    /// of its last row's sweeps, forked sweeps included. Per-node row
    /// programs outside fused waves are not counted (a clock read per
    /// row would distort both the metric and the path). 0 on an
    /// unobserved engine.
    pub epilogue_ns: u64,
    /// Bytes the **fused wave** row programs stream in and out of their
    /// tile registers: a per-row count fixed at lowering (tensor and
    /// GEMM-result rows loaded, rows stored; forwarded reads and
    /// broadcasts move nothing) times the rows served. It covers
    /// exactly the work `epilogue_ns` times, so the quotient is the
    /// epilogue's achieved bandwidth — its ceiling is the box's stream
    /// rate.
    pub epilogue_bytes: u64,
    /// Wall-clock nanoseconds in the wave gather phase. Per planned
    /// wave: from its start to the end of its last stacking group's
    /// gather — for each group, its packed weight fetched (packed on
    /// first use), then each operand row resolved through its compiled
    /// address program and copied into the GEMM's row block (or this
    /// request's block of a super-wave matrix). Waves whose every site
    /// fell back are included. 0 on an unobserved engine.
    pub gather_ns: u64,
    /// Wall-clock nanoseconds in the GEMM phase. A solo wave: from the
    /// end of its gathers to the end of its last group's GEMM, the
    /// groups' GEMMs back to back. A super-wave flush of
    /// [`Engine::execute_many`]: from the flush's start to the end of
    /// its last GEMM, the fault-site consults, result matrices and
    /// result installs between its GEMMs included. 0 on an unobserved
    /// engine.
    pub gemm_ns: u64,
    /// Wall-clock nanoseconds serving a wave's per-element epilogue
    /// (memo hits, lone row programs) when the body does **not** fuse:
    /// from the end of the wave's GEMMs to the loop's exit. Timed by
    /// the pc runtime on solo runs only: under `execute_many` a parked
    /// wave would count other requests' wall time into its own phase,
    /// and the `interp: true` oracle lacks the loop bracket. 0 on an
    /// unobserved engine.
    pub serve_ns: u64,
    /// Dynamic shadow-checker assertions executed (0 unless the
    /// `checked` cargo feature is on).
    pub shadow_checks: u64,
}

impl ExecStats {
    /// Adds one lane group's run counters to these. The destructuring
    /// is exhaustive, so a new field must be named here. The `*_ns`
    /// fields sum over lanes: lane time, not wall time.
    fn absorb(&mut self, group: &ExecStats) {
        macro_rules! sum {
            ($($f:ident),*) => {{
                let ExecStats { $($f,)* } = *group;
                $(self.$f += $f;)*
            }};
        }
        sum!(
            wave_gemms,
            gemm_rows,
            gemm_flops,
            waves_batched,
            sites_batched,
            stacked_groups,
            stacked_sites,
            fallback_sites,
            weight_packs,
            super_gemms,
            super_gemm_rows,
            super_gemm_requests,
            forked_gemms,
            fused_waves,
            forked_waves,
            epilogue_ns,
            epilogue_bytes,
            gather_ns,
            gemm_ns,
            serve_ns,
            shadow_checks
        );
    }
}

// ---------------------------------------------------------------------
// Engine
// ---------------------------------------------------------------------

/// The engine-lifetime compile artifacts shared by every interpreter:
/// the lowered linear program the pc runtime runs, and for the
/// `interp: true` oracle the compiled kernel trees with their
/// statement-address lookups into the plans.
#[derive(Clone)]
pub(crate) struct SharedPlans {
    pub(crate) compiled: Arc<Vec<CompiledKernel>>,
    pub(crate) stmt_plans: Arc<StmtPlans>,
    /// The lowered linear instruction stream (see [`program`]).
    pub(crate) plan: Arc<program::Program>,
}

/// Whether a resumable step suspended or finished the request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum StepOutcome {
    /// Parked at a planned wave loop; pending super-wave GEMMs must
    /// flush (and install) before the next step.
    Paused,
    /// The launch schedule completed and post-run accounting ran.
    Done,
}

/// A reusable execution engine for one lowered program.
///
/// Compiling kernels (dense slot remapping), analyzing wave plans,
/// pattern-matching reduction bodies, and lowering everything to the
/// linear `program::Program` are all done **once** here and then
/// reused by every run. `Param` buffers view the caller's [`Params`]
/// tensors in place, so the engine holds no copy of the parameters; a
/// lane keeps each request's run state between calls, bound to the
/// params generation it last ran against, and rebinds only when that
/// changes (see `LaneState`). Each stacking group's weight is packed
/// once per params generation and shared by every run, lane and request
/// of a batch; per-site scratch buffers persist. Use this instead of
/// the free [`execute`] function when running the same program many
/// times (benchmarks, serving loops):
///
/// ```ignore
/// let mut engine = Engine::new(&program);
/// for lin in inputs {
///     let (outputs, profile) = engine.execute(&lin, &params, true)?;
/// }
/// ```
pub struct Engine<'p> {
    program: &'p IlirProgram,
    opts: ExecOptions,
    shared: SharedPlans,
    plan_stats: PlanStats,
    max_slots: usize,
    /// One [`LaneState`] per lane group of the widest `execute_many` so
    /// far (never empty), reset to one fresh lane after a caught unwind.
    /// Lane 0 also serves solo runs and holds the [`Engine::stats`] of
    /// the latest call.
    lanes: Vec<LaneState>,
    /// Each stacking group's packed weight, by engine-wide group id
    /// ([`crate::wave::WavePlan::group_base`]): a pure function of the
    /// plan and the bound [`Params`], packed on first use by whichever
    /// lane needs it and emptied when the params generation changes.
    /// Every lane borrows the one copy.
    packs: Vec<OnceLock<Arc<PackedB>>>,
    /// The lane groups the latest `execute_many` ran
    /// ([`Engine::batch_groups`]).
    groups: Vec<Vec<usize>>,
    /// Deterministic fault-injection hook ([`FaultHook`]), consulted at
    /// instrumented sites.
    fault_hook: Option<FaultHook>,
    /// The `Params::generation` the packs were built against; a
    /// different generation empties them.
    params_gen: Option<u64>,
    /// Static verification verdict of the lowered plan, computed once
    /// at build. `Err` makes every execute call refuse with
    /// [`ExecError::Verify`].
    verified: Result<(), VerifyError>,
    /// Child-arity bounds the plan's kernels address (`max` over every
    /// `Ufn::Child(k)` read, `required` over the unguarded ones); wider
    /// input structures — and, for exact plans, narrower internal
    /// nodes — are refused at intake.
    plan_arity: verify::ArityBounds,
    /// The `Params::generation` most recently proven finite — parameter
    /// validation runs once per binding state, not once per run.
    params_validated: Option<u64>,
    /// Set by the first [`Engine::stats`] read: from then on every run
    /// times its phases; before, no run reads the clock.
    observed: AtomicBool,
}

/// What a lane keeps between calls: the scratch caches its requests
/// shuttle, and one [`RunState`] per request it runs — the `i`-th
/// request of a lane group runs in `runs[i]`, a solo run in `runs[0]`.
/// A run binds its parameters only when the params generation changed
/// since its state's last run, and resizes and re-zeroes the state's
/// buffers in place, so a steady-state run allocates little beyond its
/// outputs. Reuse is invisible to execution: outputs, `Profile` and
/// every counter equal a fresh state's.
#[derive(Default)]
struct LaneState {
    caches: Caches,
    runs: Vec<RunState>,
}

/// A group's state moves to the lane that runs it.
const _: fn() = || {
    fn send<T: Send>() {}
    send::<LaneState>();
    send::<Interp<'static>>();
};

/// Splits a batch into the lane groups [`Engine::execute_many`] runs on
/// `lanes` lanes (it passes `cortex_tensor::par::lanes()`): `min(lanes,
/// n)` groups of request indices, balanced by node count — each request,
/// largest first, joins the lightest group so far — and in input order
/// within each group. [`Engine::batch_groups`] reports the result.
pub(crate) fn lane_groups(lins: &[&Linearized], lanes: usize) -> Vec<Vec<usize>> {
    let mut groups = vec![Vec::new(); lanes.min(lins.len())];
    let mut load = vec![0usize; groups.len()];
    let mut by_size: Vec<usize> = (0..lins.len()).collect();
    by_size.sort_by_key(|&r| std::cmp::Reverse(lins[r].num_nodes()));
    for r in by_size {
        let lightest = (0..load.len()).min_by_key(|&g| load[g]).expect("a group");
        load[lightest] += lins[r].num_nodes();
        groups[lightest].push(r);
    }
    groups.iter_mut().for_each(|g| g.sort_unstable());
    groups
}

/// What every lane group of one `execute_many` call reads.
struct Batch<'e> {
    program: &'e IlirProgram,
    shared: &'e SharedPlans,
    packs: &'e [OnceLock<Arc<PackedB>>],
    opts: ExecOptions,
    max_slots: usize,
    params: &'e Params,
    persist_active: bool,
    timed: bool,
}

impl Batch<'_> {
    /// Runs one lane group's requests to completion on `lane`, through
    /// one cooperative park/flush/resume schedule.
    fn run_group(
        &self,
        lane: &mut LaneState,
        lins: &[&Linearized],
        hook: Option<&FaultHook>,
    ) -> Result<Vec<RunOutput>, ExecError> {
        if lane.runs.len() < lins.len() {
            lane.runs.resize_with(lins.len(), RunState::default);
        }
        let mut interps = Vec::with_capacity(lins.len());
        for (lin, state) in lins.iter().zip(&mut lane.runs) {
            interps.push(Interp::new(
                self.program,
                lin,
                self.params,
                self.persist_active,
                self.opts,
                self.shared.clone(),
                self.packs,
                self.max_slots,
                std::mem::take(state),
                self.timed,
            )?);
        }
        lane.run_many_cooperative(&mut interps, hook);
        (interps.into_iter().zip(&mut lane.runs))
            .map(|(it, state)| {
                let (out, kept) = it.finish()?;
                *state = kept;
                Ok(out)
            })
            .collect()
    }
}

/// Whether `site` reads a 2-D `Param` as `[i, k]` (in either order)
/// over a constant extent that fits its declared dims: then its weight
/// window is fixed by the plan and the pack by the bound [`Params`]
/// (see `SiteGroup::static_window`).
fn packs_whole(program: &IlirProgram, site: &SumSite) -> bool {
    let w = &site.weight;
    let Some(decl) = &program.tensors[w.tensor.0 as usize] else {
        return false;
    };
    let fits =
        |d: usize, n: usize| matches!(decl.dims.get(d), Some(&DimExtent::Fixed(e)) if n <= e);
    decl.class == StorageClass::Param
        && w.index.len() == 2
        && fits(w.i_pos, site.feat_extent)
        && matches!(site.extent, IdxExpr::Const(k) if fits(w.k_pos, k.max(0) as usize))
}

/// Builds every per-engine compile artifact: the compiled-kernel
/// analyses (with `waves`, the wave plans and their stacking groups;
/// without, none — the per-element lowering) plus the lowered program
/// with those plans resolved into operands.
fn build_plans(
    program: &IlirProgram,
    compiled: Arc<Vec<CompiledKernel>>,
    waves: bool,
) -> (SharedPlans, PlanStats) {
    let (mut waves, wave_ids) = if waves {
        let bodies: Vec<&[cortex_core::ilir::Stmt]> =
            compiled.iter().map(|k| k.body.as_slice()).collect();
        crate::wave::analyze(&bodies)
    } else {
        Default::default()
    };
    for plan in &mut waves {
        for group in &mut plan.groups {
            let sites = &plan.sites;
            group.static_window = (group.members.iter()).all(|&m| packs_whole(program, &sites[m]));
        }
    }
    let mut stmt_plans = StmtPlans {
        waves: wave_ids,
        ..StmtPlans::default()
    };
    // The row programs of feature loops and fused wave epilogues are
    // purely syntactic: lower them once here, per `(kernel, statement)`,
    // instead of caching per run. A row program names each reduction it
    // reads by the site's ordinal in its wave plan.
    for (ki, kernel) in compiled.iter().enumerate() {
        bulk::collect_row_programs(
            &kernel.body,
            ki,
            &[],
            &waves,
            &program.tensors,
            &mut stmt_plans,
        );
    }
    let mut clock = Stopwatch::start(true);
    let plan = lowering::lower(&compiled, waves, &stmt_plans);
    let stats = PlanStats {
        plan_ops: plan.ops.len(),
        lower_ns: clock.lap(),
        ..PlanStats::default()
    };
    (
        SharedPlans {
            compiled,
            stmt_plans: Arc::new(stmt_plans),
            plan: Arc::new(plan),
        },
        stats,
    )
}

impl<'p> Engine<'p> {
    /// Builds an engine with the default options (all fast paths on).
    pub fn new(program: &'p IlirProgram) -> Self {
        Engine::with_options(program, ExecOptions::default())
    }

    /// Builds an engine with explicit executor options over the batched
    /// wavefront lowering: reduction waves run as stacked GEMMs.
    pub fn with_options(program: &'p IlirProgram, opts: ExecOptions) -> Self {
        Engine::build(program, opts, true)
    }

    /// Builds an engine over the per-element lowering: no loop is a
    /// wave, and every reduction element is evaluated on its own (a
    /// strided dot where `fastdot::compile` matches the body, a per-`k`
    /// sum where it does not). `Profile`s equal the batched engine's
    /// exactly and outputs agree to rounding; its [`ExecStats`] count no
    /// wave GEMM. It is the one independent check of the wave path's
    /// `Profile` accounting (`tests/wave_equivalence.rs`).
    pub fn per_element(program: &'p IlirProgram, opts: ExecOptions) -> Self {
        Engine::build(program, opts, false)
    }

    /// Compiles, lowers (with or without wave plans) and verifies once;
    /// the plan never changes afterwards.
    fn build(program: &'p IlirProgram, opts: ExecOptions, waves: bool) -> Self {
        let compiled: Arc<Vec<CompiledKernel>> = Arc::new(
            program
                .kernels
                .iter()
                .map(CompiledKernel::compile)
                .collect(),
        );
        let max_slots = compiled.iter().map(|k| k.num_slots).max().unwrap_or(0);
        let plan_arity = verify::plan_arity_bounds(&compiled);
        let (shared, plan_stats) = build_plans(program, compiled, waves);
        let verified = verify::verify(&shared.plan);
        debug_assert!(verified.is_ok(), "lowering emitted an invalid plan");
        let groups = (shared.plan.waves.last()).map_or(0, |w| w.group_base + w.groups.len());
        Engine {
            program,
            opts,
            shared,
            plan_stats,
            max_slots,
            lanes: vec![LaneState::default()],
            packs: (0..groups).map(|_| OnceLock::new()).collect(),
            groups: Vec::new(),
            fault_hook: None,
            params_gen: None,
            verified,
            plan_arity,
            params_validated: None,
            observed: AtomicBool::new(false),
        }
    }

    /// The options in effect.
    pub fn options(&self) -> ExecOptions {
        self.opts
    }

    /// An engine equivalent to a fresh build of this one — the same
    /// program, lowering, plan, options and observed state (see
    /// [`Engine::stats`]) — with cold caches and no fault hook. The
    /// lowered plan is immutable and shared, so nothing is compiled
    /// again; a serving front replaces an engine with this after
    /// containing a panic, keeping its build kind.
    pub fn rebuilt(&self) -> Engine<'p> {
        Engine {
            program: self.program,
            opts: self.opts,
            shared: self.shared.clone(),
            plan_stats: self.plan_stats,
            max_slots: self.max_slots,
            lanes: vec![LaneState::default()],
            packs: self.packs.iter().map(|_| OnceLock::new()).collect(),
            groups: Vec::new(),
            fault_hook: None,
            params_gen: None,
            verified: self.verified.clone(),
            plan_arity: self.plan_arity,
            params_validated: None,
            observed: AtomicBool::new(self.observed()),
        }
    }

    /// Installs (or removes) the deterministic fault-injection hook.
    /// With a hook installed, [`Engine::execute`]/[`Engine::execute_many`]
    /// run guarded: a [`FaultAction::Err`] injection surfaces as a typed
    /// `Err(`[`ExecError::Injected`]`)` return with the engine's caches
    /// restored to a coherent (cold) state, while a
    /// [`FaultAction::Panic`] injection — and any genuine panic — still
    /// unwinds out for the caller's containment to handle.
    pub fn set_fault_hook(&mut self, hook: Option<FaultHook>) {
        self.fault_hook = hook;
    }

    /// The installed fault-injection hook, if any (cloned handle).
    pub fn fault_hook(&self) -> Option<FaultHook> {
        self.fault_hook.clone()
    }

    /// Runs `f` under the fault-injection guard: with no hook installed
    /// this is a plain call (the production path — no `catch_unwind` in
    /// the way of real panics); with a hook, typed [`InjectedFault`]
    /// unwinds convert to `Err` and every caught unwind first resets the
    /// engine's lanes, whose caches a mid-step panic leaves swapped into
    /// a dropped interpreter (see `run_many_cooperative`).
    fn guarded<T>(
        &mut self,
        f: impl FnOnce(&mut Self) -> Result<T, ExecError>,
    ) -> Result<T, ExecError> {
        if self.fault_hook.is_none() {
            return f(self);
        }
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(self))) {
            Ok(r) => r,
            Err(payload) => {
                self.lanes = vec![LaneState::default()];
                self.params_gen = None; // the next run starts from no pack
                match payload.downcast::<InjectedFault>() {
                    Ok(injected) => Err(injected.0),
                    Err(other) => std::panic::resume_unwind(other),
                }
            }
        }
    }

    /// Swaps a live engine's runtime switches and admission limits.
    /// The lowered plan and every cache keyed on it stay as they are:
    /// no option reaches the lowering, so a reconfigured engine runs
    /// exactly like one freshly built with `opts`. This is how the
    /// serving breaker demotes an engine to the oracle and back.
    pub fn set_options(&mut self, opts: ExecOptions) {
        self.opts = opts;
    }

    /// Number of `d_batch` loops that will execute as batched GEMM waves.
    pub fn num_wave_plans(&self) -> usize {
        self.shared.plan.waves.len()
    }

    /// The static verification verdict of the engine's lowered plan,
    /// computed once at build. `Err` means every execute call refuses
    /// with [`ExecError::Verify`].
    pub fn verified(&self) -> Result<(), VerifyError> {
        self.verified.clone()
    }

    /// Child slots the plan's kernels address: inputs whose
    /// `max_children` exceeds this are refused at intake
    /// ([`InvalidInput::ArityExceedsPlan`]); narrower inputs resolve the
    /// unaddressed slots to "no child".
    pub fn plan_arity(&self) -> usize {
        self.plan_arity.max
    }

    /// Child slots the plan reads *without* an existence guard (a
    /// `Select` on `NumChildren`): internal nodes with fewer children
    /// are refused at intake ([`InvalidInput::ArityBelowPlan`]), because
    /// an exact plan would chase a "no child" indirection for them. 0
    /// means every child read is guarded and any arity is admissible.
    pub fn plan_required_arity(&self) -> usize {
        self.plan_arity.required
    }

    /// Plan-time estimate (bytes) of what executing `lin` will allocate:
    /// declared non-`Param` tensors at this input's extents, wave
    /// gather/pack scratch (gathered rows, packed weights, group outputs
    /// at the widest batch), and the linearized child arrays. `Param`
    /// tensors are not charged: a run binds them in place and allocates
    /// nothing for them. An *estimate* — upper-bounds steady-state
    /// allocation shape, not a byte-exact accounting — enforced against
    /// [`ExecOptions::memory_budget`] at admission.
    pub fn footprint(&self, lin: &Linearized) -> u64 {
        let num_nodes = lin.num_nodes();
        let max_batch = lin
            .internal_batches()
            .iter()
            .map(|b| b.len())
            .chain([lin.leaf_batch().len()])
            .max()
            .unwrap_or(1)
            .max(1);
        let mut bytes: u64 = 0;
        for t in self.program.declared_tensors() {
            if t.class != StorageClass::Param {
                bytes += t.len(num_nodes, max_batch) as u64 * 4;
            }
        }
        // Wave scratch per site: gathered rows (R×K) and the group
        // output (R×H, or R×H_i·H_j for a per-node product) at the widest
        // batch, plus the packed weights.
        for (site, k) in self.wave_sites() {
            let rows = max_batch as u64;
            let cols = site.cols().max(1) as u64;
            bytes += 4 * (rows * k + rows * cols);
        }
        bytes += self.footprint_weights();
        // Linearized arrays: child slots plus ~6 u32 metadata arrays.
        bytes += (lin.max_children() as u64 + 6) * num_nodes as u64 * 4;
        bytes
    }

    /// Every planned reduction site with the reduction extent the
    /// footprint charges it at.
    fn wave_sites(&self) -> impl Iterator<Item = (&SumSite, u64)> {
        self.shared.plan.waves.iter().flat_map(|plan| {
            plan.sites.iter().map(|site| {
                let k = match &site.extent {
                    cortex_core::expr::IdxExpr::Const(k) => (*k).max(1) as u64,
                    _ => site.feat_extent.max(1) as u64,
                };
                (site, k)
            })
        })
    }

    /// The packed-weight term of [`Engine::footprint`] (bytes): every
    /// site's `H×K` window at the *padded* size its panels occupy. Sites
    /// stacked into one pack share its last panel, so the per-site sum
    /// bounds what the engine's packs hold from above.
    pub(crate) fn footprint_weights(&self) -> u64 {
        let level = cortex_tensor::simd::level();
        self.wave_sites()
            .map(|(site, k)| {
                4 * PackedB::padded_len(level, site.feat_extent.max(1), k as usize) as u64
            })
            .sum()
    }

    /// Validates one untrusted input against the plan and the engine's
    /// admission limits. Called by every execute path before any
    /// execution state is touched; serving fronts call it at admission
    /// so one bad request never reaches a co-batched run.
    ///
    /// # Errors
    ///
    /// [`ExecError::InvalidInput`] for arity/size/depth violations,
    /// [`ExecError::OverBudget`] when the footprint estimate exceeds
    /// [`ExecOptions::memory_budget`].
    pub fn validate_input(&self, lin: &Linearized) -> Result<(), ExecError> {
        if lin.max_children() > self.plan_arity.max {
            return Err(InvalidInput::ArityExceedsPlan {
                found: lin.max_children(),
                plan: self.plan_arity.max,
            }
            .into());
        }
        let required = self.plan_arity.required;
        if required > 0 {
            for node in 0..lin.num_nodes() as u32 {
                let found = lin.num_children_of(node);
                if found > 0 && found < required {
                    return Err(InvalidInput::ArityBelowPlan { found, required }.into());
                }
            }
        }
        if let Some(limit) = self.opts.max_input_nodes {
            if lin.num_nodes() > limit {
                return Err(InvalidInput::NodesOverLimit {
                    nodes: lin.num_nodes(),
                    limit,
                }
                .into());
            }
        }
        if let Some(limit) = self.opts.max_input_depth {
            let depth = lin.internal_batches().len() + 1;
            if depth > limit {
                return Err(InvalidInput::DepthOverLimit { depth, limit }.into());
            }
        }
        if let Some(budget) = self.opts.memory_budget {
            let needed = self.footprint(lin);
            if needed > budget {
                return Err(ExecError::OverBudget { needed, budget });
            }
        }
        Ok(())
    }

    /// Proves every bound parameter finite, once per
    /// [`Params::generation`] — re-binding invalidates the proof,
    /// repeated runs against the same binding pay nothing.
    fn validate_params(&mut self, params: &Params) -> Result<(), ExecError> {
        let gen = params.generation();
        if self.params_validated == Some(gen) {
            return Ok(());
        }
        for (name, t) in params.iter() {
            if !t.as_slice().iter().all(|v| v.is_finite()) {
                return Err(InvalidInput::NonFiniteParam {
                    name: name.to_string(),
                }
                .into());
            }
        }
        self.params_validated = Some(gen);
        Ok(())
    }

    /// The shared admission gate of both execute paths.
    fn admit(&mut self, lins: &[&Linearized], params: &Params) -> Result<(), ExecError> {
        if let Err(e) = &self.verified {
            return Err(ExecError::Verify(e.clone()));
        }
        self.validate_params(params)?;
        for lin in lins {
            self.validate_input(lin)?;
        }
        Ok(())
    }

    /// Diagnostic counters of the most recent [`Engine::execute`] or
    /// [`Engine::execute_many`] call (the latter's summed over its lane
    /// groups, in group order, or over its requests under the oracle).
    ///
    /// The first read marks the engine observed: every later run times
    /// its phases into the `*_ns` fields. Until then no run reads the
    /// clock and those fields stay 0; the other fields never depend on
    /// it.
    pub fn stats(&self) -> ExecStats {
        self.observed.store(true, Ordering::Relaxed);
        self.lanes[0].caches.stats
    }

    /// Whether [`Engine::stats`] was read: runs time their phases.
    fn observed(&self) -> bool {
        self.observed.load(Ordering::Relaxed)
    }

    /// Compile-time facts about the lowered plan: instruction count and
    /// lowering time.
    pub fn plan_stats(&self) -> PlanStats {
        self.plan_stats
    }

    /// Executes the program, returning outputs and raw counters.
    ///
    /// # Errors
    ///
    /// See [`execute`].
    pub fn execute(
        &mut self,
        lin: &Linearized,
        params: &Params,
        persist_active: bool,
    ) -> Result<(HashMap<TensorId, Tensor>, Profile), ExecError> {
        self.guarded(|e| e.execute_inner(lin, params, persist_active))
    }

    fn execute_inner(
        &mut self,
        lin: &Linearized,
        params: &Params,
        persist_active: bool,
    ) -> Result<(HashMap<TensorId, Tensor>, Profile), ExecError> {
        self.admit(&[lin], params)?;
        self.refresh_weight_cache(params);
        self.lanes[0].caches.stats = ExecStats::default();
        self.run_solo(lin, params, persist_active)
    }

    /// Runs one admitted request start to finish on lane 0, adding its
    /// counters to that lane's stats: a solo [`Engine::execute`], and
    /// each request of the oracle's [`Engine::execute_many`].
    fn run_solo(
        &mut self,
        lin: &Linearized,
        params: &Params,
        persist_active: bool,
    ) -> Result<RunOutput, ExecError> {
        let timed = self.observed();
        let lane = &mut self.lanes[0];
        if lane.runs.is_empty() {
            lane.runs.push(RunState::default());
        }
        let mut interp = Interp::new(
            self.program,
            lin,
            params,
            persist_active,
            self.opts,
            self.shared.clone(),
            &self.packs,
            self.max_slots,
            std::mem::take(&mut lane.runs[0]),
            timed,
        )?;
        std::mem::swap(&mut lane.caches, &mut interp.caches);
        if self.opts.interp {
            interp.run_all();
        } else {
            interp.run_program(self.fault_hook.as_ref());
        }
        std::mem::swap(&mut lane.caches, &mut interp.caches);
        let (out, kept) = interp.finish()?;
        lane.runs[0] = kept;
        Ok(out)
    }

    /// Executes the program over a *batch* of independent inputs, fusing
    /// their wavefronts: at each wave depth, the per-request wave GEMMs
    /// of the same stacking group merge into one **super-wave** GEMM
    /// over the concatenation of every request's gathered rows (width
    /// `Σ bs` instead of `bs`), so GEMM launches scale with the number
    /// of wave depths, not with the number of requests.
    ///
    /// The lanes of `cortex_tensor::par` split the *batch*: the requests
    /// are dealt into lane groups ([`Engine::batch_groups`]: balanced by
    /// node count, one per lane), and each group runs its whole
    /// gather → GEMM → epilogue schedule on a lane of its own, pinned to
    /// that lane (a request's rows stay on one core, and the batch costs
    /// one fork instead of a few per wave). Requests merge within their
    /// group. One group — one lane, or one request — runs on the caller
    /// with all lanes free to split its GEMM panels and epilogue rows.
    /// With a fault hook installed the groups run one after another on
    /// the caller, in group order.
    ///
    /// Under `interp: true` nothing merges: the oracle runs each request
    /// as one solo walk, in input order, on the caller, and
    /// [`Engine::batch_groups`] reports one group per request.
    ///
    /// Outputs and `Profile`s are returned per request, **exactly**
    /// equal to running each input through [`Engine::execute`] alone,
    /// on any number of lanes: the merged GEMM computes each output
    /// element from the same row and weight data in the same reduction
    /// order, and all accounting is per-request by construction (the
    /// GEMM itself is accounting-free; counters are charged during each
    /// request's own gather and memo-serve phases). [`Engine::stats`]
    /// afterwards describes the whole batch, summed over its groups (one
    /// `wave_gemms` launch may serve many requests — that is the
    /// amortization being measured).
    ///
    /// # Errors
    ///
    /// See [`execute`]; the first failing request aborts the batch, and
    /// of several failing groups the first in group order reports.
    pub fn execute_many(
        &mut self,
        lins: &[&Linearized],
        params: &Params,
        persist_active: bool,
    ) -> Result<Vec<RunOutput>, ExecError> {
        self.guarded(|e| e.execute_many_inner(lins, params, persist_active))
    }

    fn execute_many_inner(
        &mut self,
        lins: &[&Linearized],
        params: &Params,
        persist_active: bool,
    ) -> Result<Vec<RunOutput>, ExecError> {
        // Validation failures surface *before* any request runs: a
        // serving front validates per request at admission, so a batch
        // reaching this check with a bad member aborts whole — the
        // front's isolation machinery (bisection) then resolves the
        // good requests solo.
        self.admit(lins, params)?;
        self.refresh_weight_cache(params);
        let mut stats = ExecStats::default();
        if self.opts.interp {
            self.groups = (0..lins.len()).map(|r| vec![r]).collect();
            self.lanes[0].caches.stats = stats;
            return (lins.iter())
                .map(|lin| self.run_solo(lin, params, persist_active))
                .collect();
        }
        self.groups = lane_groups(lins, par::lanes());
        let groups = &self.groups;
        if self.lanes.len() < groups.len() {
            self.lanes.resize_with(groups.len(), LaneState::default);
        }
        let batch = Batch {
            program: self.program,
            shared: &self.shared,
            packs: &self.packs,
            opts: self.opts,
            max_slots: self.max_slots,
            params,
            persist_active,
            timed: self.observed(),
        };
        type Job<'j> = (
            &'j mut LaneState,
            Vec<&'j Linearized>,
            Option<Result<Vec<RunOutput>, ExecError>>,
        );
        let mut jobs: Vec<Job<'_>> = (self.lanes.iter_mut().zip(groups))
            .map(|(lane, group)| {
                lane.caches.stats = ExecStats::default();
                (lane, group.iter().map(|&r| lins[r]).collect(), None)
            })
            .collect();
        match (jobs.as_mut_slice(), self.fault_hook.as_ref()) {
            // One group keeps every lane for its own launches.
            ([(lane, lins, out)], hook) => *out = Some(batch.run_group(lane, lins, hook)),
            // The hook is `Rc`: the groups take turns on this thread.
            (jobs, Some(hook)) => {
                for (lane, lins, out) in jobs {
                    let result = par::with_lanes(1, || batch.run_group(lane, lins, Some(hook)));
                    let failed = result.is_err();
                    *out = Some(result);
                    if failed {
                        break;
                    }
                }
            }
            (jobs, None) => par::for_each_mut(jobs, &|(lane, lins, out): &mut Job<'_>| {
                *out = Some(par::with_lanes(1, || batch.run_group(lane, lins, None)));
            }),
        }
        let mut outputs: Vec<Option<RunOutput>> = lins.iter().map(|_| None).collect();
        let mut verdict = Ok(());
        for ((lane, _, out), group) in jobs.into_iter().zip(groups) {
            stats.absorb(&lane.caches.stats);
            match out {
                Some(Ok(outs)) => (group.iter().zip(outs)).for_each(|(&r, o)| outputs[r] = Some(o)),
                Some(Err(e)) if verdict.is_ok() => verdict = Err(e),
                _ => {}
            }
        }
        self.lanes[0].caches.stats = stats;
        verdict?;
        Ok(outputs
            .into_iter()
            .map(|o| o.expect("every group ran"))
            .collect())
    }

    /// Empties the packs when the params generation changed since the
    /// last run: a group's packed weight depends on nothing else, so it
    /// stands across runs and the requests of a batch while the binding
    /// does.
    fn refresh_weight_cache(&mut self, params: &Params) {
        let gen = params.generation();
        if self.params_gen.replace(gen) != Some(gen) {
            self.packs.iter_mut().for_each(|p| drop(p.take()));
        }
    }

    /// The lane groups the latest [`Engine::execute_many`] ran: request
    /// indices, ascending within each group, groups in the order their
    /// statistics were summed. A request's wave GEMMs merged only with
    /// the other members of its group.
    pub fn batch_groups(&self) -> &[Vec<usize>] {
        &self.groups
    }

    /// Executes against a device model, like the free [`run`] function.
    ///
    /// # Errors
    ///
    /// See [`run`].
    pub fn run(
        &mut self,
        lin: &Linearized,
        params: &Params,
        device: &DeviceSpec,
    ) -> Result<RunResult, ExecError> {
        let persist = check_persistence(self.program, device);
        let (outputs, profile) = self.execute(lin, params, persist.active())?;
        let latency = device.latency(&profile);
        Ok(RunResult {
            outputs,
            profile,
            latency,
            persist,
        })
    }
}

impl LaneState {
    /// The pc runtime's batched scheduler, a cooperative round-robin
    /// over one [`PcCursor`] per request: each request runs until it
    /// parks at a planned wave loop (gathered rows registered, GEMM
    /// pending) or completes. Once every live request is parked, the
    /// accumulated GEMMs flush — merged across requests — results
    /// install, and everyone resumes. Merging is opportunistic: requests
    /// at different depths (or past their last wave) simply stop
    /// contributing rows, so mixed-depth batches stay correct.
    fn run_many_cooperative(&mut self, interps: &mut [Interp<'_>], hook: Option<&FaultHook>) {
        let mut cursors: Vec<PcCursor> = interps.iter_mut().map(Interp::start_cursor).collect();
        let mut acc = SuperWaveAcc::default();
        let mut parked = vec![false; interps.len()];
        loop {
            let mut progressed = false;
            for r in 0..interps.len() {
                if cursors[r].done || parked[r] {
                    continue;
                }
                progressed = true;
                // The lane's caches (reduction plans, scratch pools,
                // stats) shuttle into whichever request is stepping, so
                // they serve the whole group.
                std::mem::swap(&mut self.caches, &mut interps[r].caches);
                let outcome = interps[r].step_program(&mut cursors[r], Some((&mut acc, r)), hook);
                std::mem::swap(&mut self.caches, &mut interps[r].caches);
                if matches!(outcome, StepOutcome::Paused) {
                    parked[r] = true;
                }
            }
            if !acc.is_empty() {
                self.flush_super_waves(&mut acc, interps, hook);
                parked.iter_mut().for_each(|p| *p = false);
                progressed = true;
            }
            if !progressed {
                break;
            }
        }
        debug_assert!(cursors.iter().all(|c| c.done), "all requests must finish");
        for (it, cur) in interps.iter_mut().zip(cursors) {
            it.cursor = cur;
        }
    }

    /// Runs every pending super-wave GEMM and hands each registered
    /// request its block of the shared result matrix. The matrices are
    /// the accumulator's: an earlier depth's, once its registrants have
    /// retired it, so a flush allocates only when a depth needs more.
    /// One clock read starts the flush and one ends each GEMM, so each
    /// lap also covers the installs of the entry before it.
    fn flush_super_waves(
        &mut self,
        acc: &mut SuperWaveAcc,
        interps: &mut [Interp<'_>],
        hook: Option<&FaultHook>,
    ) {
        let mut clock = Stopwatch::start(interps.first().is_some_and(|it| it.timed));
        for entry in acc.take_entries() {
            let SuperEntry {
                key: _,
                weight,
                rows,
                total_rows,
                registrants,
            } = entry;
            maybe_inject(hook, FaultSite::Gemm { rows: total_rows });
            let (cols, k_len) = weight.shape();
            let mut shared = acc.take_output(total_rows * cols);
            let out = Arc::get_mut(&mut shared).expect("unshared");
            let forked = kernels::gemm_packed_into(out, &rows, &weight, total_rows);
            let stats = &mut self.caches.stats;
            stats.gemm_ns += clock.lap();
            stats.forked_gemms += u64::from(forked);
            stats.wave_gemms += 1;
            stats.gemm_rows += total_rows as u64;
            stats.gemm_flops += 2 * (total_rows * cols * k_len) as u64;
            if registrants.len() > 1 {
                stats.super_gemms += 1;
                stats.super_gemm_rows += total_rows as u64;
                stats.super_gemm_requests += registrants.len() as u64;
            }
            for reg in &registrants {
                interps[reg.request].install_wave_result(
                    reg.group_idx,
                    shared.clone(),
                    reg.base_row,
                );
            }
            acc.recycle(rows, shared);
        }
    }
}
