//! The Recursive API (§3 of the paper).
//!
//! The RA models a recursive model as a DAG of tensor operators, each
//! specified as a loop nest over a per-node iteration space, plus a
//! *recursion operator* that ties a placeholder (the results of recursive
//! calls) to the operator producing those results. Listing 1 of the paper
//! maps to this module as:
//!
//! ```
//! use cortex_core::ra::RaGraph;
//!
//! let mut g = RaGraph::new();
//! const H: usize = 256;
//! const V: usize = 1000;
//! let emb = g.input("Emb", &[V, H]);
//! let rnn_ph = g.placeholder("rnn_ph", &[H]);
//! // Base case: Emb[words[n], i]
//! let leaf_case = g.compute("leaf_case", &[H], |c| {
//!     c.read(emb, &[c.node().word(), c.axis(0)])
//! });
//! // lh = rnn_ph[n.left, i]; rh = rnn_ph[n.right, i]
//! let lh = g.compute("lh", &[H], |c| c.read(rnn_ph, &[c.node().child(0), c.axis(0)]));
//! let rh = g.compute("rh", &[H], |c| c.read(rnn_ph, &[c.node().child(1), c.axis(0)]));
//! let recursive_case = g.compute("rec_case", &[H], |c| {
//!     c.read(lh, &[c.node(), c.axis(0)]).add(c.read(rh, &[c.node(), c.axis(0)])).tanh()
//! });
//! let body = g.if_then_else("body", leaf_case, recursive_case).unwrap();
//! let rnn = g.recursion(rnn_ph, body).unwrap();
//! g.mark_output(rnn);
//! assert!(g.validate().is_ok());
//! ```
//!
//! Scheduling primitives (§3.1) are carried by [`RaSchedule`] and consumed
//! by [`lower`](mod@crate::lower).

use std::error::Error;
use std::fmt;

use cortex_tensor::approx::NonlinearityMode;

use crate::expr::{BoolExpr, IdxExpr, TensorId, ValExpr, Var, VarGen};

/// A handle to a tensor in an [`RaGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RaTensor {
    pub(crate) id: TensorId,
}

impl RaTensor {
    /// The underlying tensor id (shared with the lowered ILIR).
    pub fn id(self) -> TensorId {
        self.id
    }
}

/// The kind of an RA operator.
#[derive(Debug, Clone)]
pub enum RaOpKind {
    /// A model parameter or input table (e.g. embedding matrix, weights).
    Input,
    /// A placeholder standing for the results of recursive calls
    /// (`rnn_ph` in Listing 1).
    Placeholder,
    /// A per-node loop-nest computation.
    Compute {
        /// The node iteration variable used by `body`.
        node_var: Var,
        /// Per-feature-dimension iteration variables.
        axes: Vec<Var>,
        /// The value computed at `[node, axes...]`.
        body: ValExpr,
    },
    /// The conditional operator over the leaf check (§5.2); selects between
    /// two same-shaped per-node tensors.
    IfThenElse {
        /// Value for leaves.
        then: TensorId,
        /// Value for internal nodes.
        otherwise: TensorId,
    },
    /// The recursion operator: declares that `body`'s values are what the
    /// placeholder's recursive reads observe.
    Recursion {
        /// The placeholder being tied.
        placeholder: TensorId,
        /// The operator producing each node's result.
        body: TensorId,
    },
}

/// One operator in the RA graph.
#[derive(Debug, Clone)]
pub struct RaOp {
    /// Diagnostic name.
    pub name: String,
    /// Operator kind.
    pub kind: RaOpKind,
    /// Shape of the non-node ("feature") dimensions. For [`RaOpKind::Input`]
    /// this is the full shape; every other op additionally has an implicit
    /// leading node dimension of runtime extent `N`.
    pub feature_shape: Vec<usize>,
}

impl RaOp {
    /// Whether this op's tensor has the implicit leading node dimension.
    pub(crate) fn is_node_major(&self) -> bool {
        !matches!(self.kind, RaOpKind::Input)
    }
}

/// Errors detected while building or validating an RA graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RaError {
    /// A referenced tensor id does not exist.
    UnknownTensor(TensorId),
    /// `if_then_else` branches disagree in shape.
    BranchShapeMismatch {
        /// Leaf branch.
        then: TensorId,
        /// Internal branch.
        otherwise: TensorId,
    },
    /// A recursion ties a placeholder to a body of different shape.
    RecursionShapeMismatch {
        /// The placeholder.
        placeholder: TensorId,
        /// The body.
        body: TensorId,
    },
    /// The tensor passed as a placeholder is not a placeholder op.
    NotAPlaceholder(TensorId),
    /// A placeholder is never tied by a recursion operator.
    UnboundPlaceholder(TensorId),
    /// A placeholder is tied by two recursion operators.
    DoublyBoundPlaceholder(TensorId),
    /// The graph has no outputs marked.
    NoOutputs,
    /// The refactor split names an op outside any recursion body.
    BadRefactorSplit(TensorId),
}

impl fmt::Display for RaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RaError::UnknownTensor(t) => write!(f, "unknown tensor {t}"),
            RaError::BranchShapeMismatch { then, otherwise } => {
                write!(
                    f,
                    "if_then_else branches {then} and {otherwise} have different shapes"
                )
            }
            RaError::RecursionShapeMismatch { placeholder, body } => {
                write!(
                    f,
                    "recursion body {body} does not match placeholder {placeholder} shape"
                )
            }
            RaError::NotAPlaceholder(t) => write!(f, "{t} is not a placeholder"),
            RaError::UnboundPlaceholder(t) => {
                write!(f, "placeholder {t} is never tied by a recursion")
            }
            RaError::DoublyBoundPlaceholder(t) => {
                write!(f, "placeholder {t} tied by two recursions")
            }
            RaError::NoOutputs => write!(f, "graph has no outputs marked"),
            RaError::BadRefactorSplit(t) => {
                write!(f, "refactor split {t} is not a recursion-body op")
            }
        }
    }
}

impl Error for RaError {}

/// Body-construction context handed to [`RaGraph::compute`] closures.
///
/// Provides the node variable, feature-axis variables and helpers to read
/// other tensors or build reductions.
pub struct BodyCtx<'g> {
    node_var: Var,
    axes: Vec<Var>,
    vg: &'g mut VarGen,
    ops: &'g [RaOp],
}

impl BodyCtx<'_> {
    /// The current node id as an index expression.
    pub fn node(&self) -> IdxExpr {
        IdxExpr::Var(self.node_var)
    }

    /// The `d`-th feature-axis variable as an index expression.
    ///
    /// # Panics
    ///
    /// Panics if `d` exceeds the declared feature rank.
    pub fn axis(&self, d: usize) -> IdxExpr {
        IdxExpr::Var(self.axes[d])
    }

    /// Reads tensor `t` at `index`.
    ///
    /// For node-major tensors `index[0]` must be a node id expression
    /// (e.g. [`node`](Self::node) or `node().child(k)`); inputs take only
    /// their declared indices.
    ///
    /// # Panics
    ///
    /// Panics if the index rank does not match the tensor's rank.
    pub fn read(&self, t: RaTensor, index: &[IdxExpr]) -> ValExpr {
        let op = &self.ops[t.id.0 as usize];
        let expect = op.feature_shape.len() + usize::from(op.is_node_major());
        assert_eq!(
            index.len(),
            expect,
            "tensor {} ({}) expects {} indices, got {}",
            t.id,
            op.name,
            expect,
            index.len()
        );
        ValExpr::Load {
            tensor: t.id,
            index: index.to_vec(),
        }
    }

    /// Builds a reduction `sum over k in 0..extent of f(ctx, k)`.
    ///
    /// The context is passed back into the closure so tensor reads can be
    /// issued while the reduction variable is in scope.
    pub fn sum(&mut self, extent: usize, f: impl FnOnce(&Self, IdxExpr) -> ValExpr) -> ValExpr {
        let k = self.vg.fresh("k");
        let body = f(self, IdxExpr::Var(k));
        ValExpr::Sum {
            var: k,
            extent: IdxExpr::Const(extent as i64),
            body: Box::new(body),
        }
    }

    /// The leaf predicate on the current node.
    pub fn is_leaf(&self) -> BoolExpr {
        BoolExpr::IsLeaf(self.node())
    }
}

/// A recursive model computation: a DAG of RA operators.
#[derive(Debug, Clone, Default)]
pub struct RaGraph {
    ops: Vec<RaOp>,
    outputs: Vec<TensorId>,
    vg: VarGen,
}

impl RaGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        RaGraph::default()
    }

    fn push(&mut self, op: RaOp) -> RaTensor {
        let id = TensorId(self.ops.len() as u32);
        self.ops.push(op);
        RaTensor { id }
    }

    /// Declares a model parameter/input with a fully static shape
    /// (`input_tensor` in Listing 1).
    pub fn input(&mut self, name: &str, shape: &[usize]) -> RaTensor {
        self.push(RaOp {
            name: name.to_string(),
            kind: RaOpKind::Input,
            feature_shape: shape.to_vec(),
        })
    }

    /// Declares a placeholder for recursive-call results with the given
    /// per-node feature shape (`placeholder((N, H))` in Listing 1).
    pub fn placeholder(&mut self, name: &str, feature_shape: &[usize]) -> RaTensor {
        self.push(RaOp {
            name: name.to_string(),
            kind: RaOpKind::Placeholder,
            feature_shape: feature_shape.to_vec(),
        })
    }

    /// Declares a per-node computation (`compute` in Listing 1). The body
    /// closure receives a [`BodyCtx`] exposing the node variable and one
    /// axis variable per feature dimension.
    pub fn compute(
        &mut self,
        name: &str,
        feature_shape: &[usize],
        f: impl FnOnce(&mut BodyCtx) -> ValExpr,
    ) -> RaTensor {
        let node_var = self.vg.fresh(&format!("{name}.n"));
        let axes: Vec<Var> = (0..feature_shape.len())
            .map(|d| self.vg.fresh(&format!("{name}.i{d}")))
            .collect();
        let body = {
            let mut ctx = BodyCtx {
                node_var,
                axes: axes.clone(),
                vg: &mut self.vg,
                ops: &self.ops,
            };
            f(&mut ctx)
        };
        self.push(RaOp {
            name: name.to_string(),
            kind: RaOpKind::Compute {
                node_var,
                axes,
                body,
            },
            feature_shape: feature_shape.to_vec(),
        })
    }

    /// The conditional operator for the leaf check (`if_then_else` in
    /// Listing 1): per node, `then` for leaves, `otherwise` for internal
    /// nodes.
    ///
    /// # Errors
    ///
    /// Returns [`RaError::BranchShapeMismatch`] if the branches' shapes
    /// differ, or [`RaError::UnknownTensor`].
    pub fn if_then_else(
        &mut self,
        name: &str,
        then: RaTensor,
        otherwise: RaTensor,
    ) -> Result<RaTensor, RaError> {
        let ts = self.op(then.id)?.feature_shape.clone();
        let os = self.op(otherwise.id)?.feature_shape.clone();
        if ts != os {
            return Err(RaError::BranchShapeMismatch {
                then: then.id,
                otherwise: otherwise.id,
            });
        }
        Ok(self.push(RaOp {
            name: name.to_string(),
            kind: RaOpKind::IfThenElse {
                then: then.id,
                otherwise: otherwise.id,
            },
            feature_shape: ts,
        }))
    }

    /// The recursion operator (`recursion_op` in Listing 1): ties
    /// `placeholder` to `body`, returning the recursion result tensor.
    ///
    /// # Errors
    ///
    /// Returns [`RaError::NotAPlaceholder`] or
    /// [`RaError::RecursionShapeMismatch`] on misuse.
    pub fn recursion(
        &mut self,
        placeholder: RaTensor,
        body: RaTensor,
    ) -> Result<RaTensor, RaError> {
        let ph = self.op(placeholder.id)?;
        if !matches!(ph.kind, RaOpKind::Placeholder) {
            return Err(RaError::NotAPlaceholder(placeholder.id));
        }
        let ph_shape = ph.feature_shape.clone();
        let body_shape = self.op(body.id)?.feature_shape.clone();
        if ph_shape != body_shape {
            return Err(RaError::RecursionShapeMismatch {
                placeholder: placeholder.id,
                body: body.id,
            });
        }
        let name = format!("rec({})", self.ops[placeholder.id.0 as usize].name);
        Ok(self.push(RaOp {
            name,
            kind: RaOpKind::Recursion {
                placeholder: placeholder.id,
                body: body.id,
            },
            feature_shape: ph_shape,
        }))
    }

    /// Marks a tensor as a model output.
    pub fn mark_output(&mut self, t: RaTensor) {
        if !self.outputs.contains(&t.id) {
            self.outputs.push(t.id);
        }
    }

    /// The marked outputs.
    pub fn outputs(&self) -> &[TensorId] {
        &self.outputs
    }

    /// All operators, in id order (which is a topological order, since
    /// handles only exist after their op is created).
    pub fn ops(&self) -> &[RaOp] {
        &self.ops
    }

    /// Looks up one operator.
    ///
    /// # Errors
    ///
    /// Returns [`RaError::UnknownTensor`] if out of range.
    pub fn op(&self, id: TensorId) -> Result<&RaOp, RaError> {
        self.ops
            .get(id.0 as usize)
            .ok_or(RaError::UnknownTensor(id))
    }

    /// Number of operators.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the graph is empty.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Validates structural invariants: every placeholder tied exactly
    /// once, branch shapes consistent, outputs present.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant as an [`RaError`].
    pub fn validate(&self) -> Result<(), RaError> {
        if self.outputs.is_empty() {
            return Err(RaError::NoOutputs);
        }
        let mut tied = vec![0usize; self.ops.len()];
        for op in &self.ops {
            if let RaOpKind::Recursion { placeholder, .. } = op.kind {
                tied[placeholder.0 as usize] += 1;
            }
        }
        for (i, op) in self.ops.iter().enumerate() {
            if matches!(op.kind, RaOpKind::Placeholder) {
                match tied[i] {
                    0 => return Err(RaError::UnboundPlaceholder(TensorId(i as u32))),
                    1 => {}
                    _ => return Err(RaError::DoublyBoundPlaceholder(TensorId(i as u32))),
                }
            }
        }
        Ok(())
    }

    /// Tensors read by op `id` (direct dependencies).
    pub fn reads_of(&self, id: TensorId) -> Vec<TensorId> {
        match &self.ops[id.0 as usize].kind {
            RaOpKind::Input | RaOpKind::Placeholder => Vec::new(),
            RaOpKind::Compute { body, .. } => {
                let mut v = Vec::new();
                body.loaded_tensors(&mut v);
                v
            }
            RaOpKind::IfThenElse { then, otherwise } => vec![*then, *otherwise],
            RaOpKind::Recursion { body, .. } => vec![*body],
        }
    }
}

/// How aggressively operators are fused into kernels (§7.3, Fig. 10a).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FusionMode {
    /// One kernel launch per operator per dynamic batch — the vendor-library
    /// execution model.
    None,
    /// All operators fused into a single persistent kernel iterating over
    /// batches internally ("maximal kernel fusion").
    #[default]
    Maximal,
}

/// How the leaf check is lowered (Appendix B ablation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LeafCheckMode {
    /// One comparison against `num_internal` (the Appendix-B numbering).
    #[default]
    Numbering,
    /// A load of `num_children[n]` compared with zero.
    Load,
}

/// Where synchronization barriers are placed (Appendix A.4 ablation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BarrierMode {
    /// At the loop that actually carries the dependence (Cortex's pass).
    #[default]
    DependenceAware,
    /// Conservatively in the innermost loop (the unmodified TVM pass).
    Conservative,
}

/// The schedule for a recursive computation: the §3.1 recursion scheduling
/// primitives plus the ILIR-level knobs of §5 and the appendices.
///
/// `RaSchedule::default()` is the paper's best configuration: dynamic
/// batching, specialization, maximal fusion, persistence, dense
/// intermediate indexing, Appendix-B leaf checks and dependence-aware
/// barriers.
#[derive(Debug, Clone)]
pub struct RaSchedule {
    /// `dynamic_batch(rnn)`: process height wavefronts instead of single
    /// nodes.
    pub dynamic_batch: bool,
    /// `specialize_if_else(body)`: split leaf/internal loop nests instead
    /// of a conditional operator.
    pub specialize: bool,
    /// Kernel fusion mode.
    pub fusion: FusionMode,
    /// Model persistence: keep parameters in on-chip memory across batches.
    pub persist: bool,
    /// Recursion unrolling depth (trees/sequences only).
    pub unroll: Option<usize>,
    /// With unrolling: schedule one node per thread block so stage
    /// boundaries inside a super wave need only block-local synchronization
    /// (the TreeRNN schedule of §7.4) instead of global barriers.
    pub unroll_block_local: bool,
    /// Recursive refactoring: the op at which the recursion backedge is
    /// moved (Fig. 4). Ops downstream of this one execute in the consumer's
    /// wave.
    pub refactor_split: Option<TensorId>,
    /// Dense (iteration-space) indexing for same-wave intermediates (Fig. 5).
    pub dense_intermediates: bool,
    /// Leaf-check lowering.
    pub leaf_check: LeafCheckMode,
    /// Barrier-insertion mode.
    pub barrier: BarrierMode,
    /// Loop peeling factor for variable-bound loops (Appendix A.5).
    pub peel: Option<usize>,
    /// Nonlinearity implementation for generated code — exact or the
    /// rational approximations (App. A.5). This is the one place the
    /// mode is chosen: the executor reads it from the lowered program's
    /// schedule, so running one graph in both modes lowers it twice.
    pub nonlinearity: NonlinearityMode,
}

impl Default for RaSchedule {
    fn default() -> Self {
        RaSchedule {
            dynamic_batch: true,
            specialize: true,
            fusion: FusionMode::Maximal,
            persist: true,
            unroll: None,
            unroll_block_local: false,
            refactor_split: None,
            dense_intermediates: true,
            leaf_check: LeafCheckMode::Numbering,
            barrier: BarrierMode::DependenceAware,
            peel: None,
            nonlinearity: NonlinearityMode::Exact,
        }
    }
}

impl RaSchedule {
    /// The unoptimized starting point of Fig. 10a: no fusion, no
    /// specialization, no persistence (dynamic batching stays on — every
    /// framework compared in §7.3 batches).
    pub fn unoptimized() -> Self {
        RaSchedule {
            specialize: false,
            fusion: FusionMode::None,
            persist: false,
            dense_intermediates: false,
            ..RaSchedule::default()
        }
    }
}

/// Per-op analysis results used by lowering and the device model.
#[derive(Debug, Clone)]
pub struct GraphAnalysis {
    /// For each op: its reduction level. Level 0 = inputs/placeholders;
    /// an op's level is the max of its operand levels, plus one for each
    /// reduction over a same-wave operand. The maximum level over the
    /// recursion body is the number of barrier-separated segments a fused
    /// persistent kernel needs per wavefront (§7.4).
    pub level: Vec<u32>,
    /// Ops belonging to any recursion body cone (computed per node).
    pub in_recursion_body: Vec<bool>,
    /// Maximum level over recursion-body ops (≥ 1 when any exist).
    pub sync_depth: u32,
}

/// Computes reduction levels and recursion-body membership.
pub fn analyze(graph: &RaGraph) -> GraphAnalysis {
    let n = graph.len();
    let mut level = vec![0u32; n];
    for (i, op) in graph.ops().iter().enumerate() {
        level[i] = match &op.kind {
            RaOpKind::Input | RaOpKind::Placeholder => 0,
            RaOpKind::IfThenElse { then, otherwise } => {
                level[then.0 as usize].max(level[otherwise.0 as usize])
            }
            RaOpKind::Recursion { body, .. } => level[body.0 as usize],
            RaOpKind::Compute { body, .. } => compute_level(body, &level, false),
        };
    }
    // Recursion-body membership: ops on a path from a placeholder-tied body
    // back to inputs/placeholders, i.e. everything a recursion body reads
    // transitively (excluding inputs/placeholders themselves).
    let mut in_body = vec![false; n];
    for op in graph.ops() {
        if let RaOpKind::Recursion { body, .. } = op.kind {
            mark_cone(graph, body, &mut in_body);
        }
    }
    let sync_depth = graph
        .ops()
        .iter()
        .enumerate()
        .filter(|(i, _)| in_body[*i])
        .map(|(i, _)| level[i])
        .max()
        .unwrap_or(0)
        .max(1);
    GraphAnalysis {
        level,
        in_recursion_body: in_body,
        sync_depth,
    }
}

fn compute_level(e: &ValExpr, level: &[u32], inside_reduction: bool) -> u32 {
    match e {
        ValExpr::Const(_) => 0,
        ValExpr::Load { tensor, .. } => {
            let l = level[tensor.0 as usize];
            // Reducing over a same-wave tensor (level >= 1) requires that
            // tensor to be globally complete: one extra barrier level.
            // Reducing over level-0 data (previous waves / inputs) is
            // covered by the wave-entry barrier.
            if inside_reduction {
                l + 1
            } else {
                l
            }
        }
        ValExpr::Unary(_, a) => compute_level(a, level, inside_reduction),
        ValExpr::Bin(_, a, b) => {
            compute_level(a, level, inside_reduction).max(compute_level(b, level, inside_reduction))
        }
        ValExpr::Sum { body, .. } => compute_level(body, level, true).max(1),
        ValExpr::Select {
            then, otherwise, ..
        } => compute_level(then, level, inside_reduction).max(compute_level(
            otherwise,
            level,
            inside_reduction,
        )),
    }
}

fn mark_cone(graph: &RaGraph, start: TensorId, marked: &mut [bool]) {
    let mut stack = vec![start];
    while let Some(t) = stack.pop() {
        let idx = t.0 as usize;
        if marked[idx] {
            continue;
        }
        match graph.ops()[idx].kind {
            RaOpKind::Input | RaOpKind::Placeholder => continue,
            _ => {}
        }
        marked[idx] = true;
        stack.extend(graph.reads_of(t));
    }
}

/// Analysis of a recursive-refactoring request (Fig. 4).
///
/// Splitting at op `s` moves `s` and its transitive consumers inside the
/// recursion body (the `A2` set) across the backedge: they execute in the
/// consumer's wave. The analysis reports the resulting barrier depth and
/// the producer outputs that must newly be materialized to global memory
/// (they now cross a wave boundary).
#[derive(Debug, Clone)]
pub struct RefactorAnalysis {
    /// Barrier-separated segments per wave without refactoring.
    pub depth_before: u32,
    /// Barrier-separated segments per wave with refactoring.
    pub depth_after: u32,
    /// Ops in the moved (`A2`) set.
    pub moved: Vec<TensorId>,
    /// A1 outputs consumed by A2: newly cross-wave, so they are
    /// materialized to global memory instead of staying on-chip.
    pub crossing_tensors: Vec<TensorId>,
}

/// Analyzes a refactor split.
///
/// # Errors
///
/// Returns [`RaError::BadRefactorSplit`] if `split` is not a
/// recursion-body compute/conditional op.
pub fn analyze_refactor(graph: &RaGraph, split: TensorId) -> Result<RefactorAnalysis, RaError> {
    let base = analyze(graph);
    if split.0 as usize >= graph.len() || !base.in_recursion_body[split.0 as usize] {
        return Err(RaError::BadRefactorSplit(split));
    }
    // A2 = split ∪ transitive consumers within the body.
    let n = graph.len();
    let mut moved = vec![false; n];
    moved[split.0 as usize] = true;
    for i in 0..n {
        if base.in_recursion_body[i] && !moved[i] {
            let reads = graph.reads_of(TensorId(i as u32));
            if reads.iter().any(|r| moved[r.0 as usize]) {
                moved[i] = true;
            }
        }
    }
    // Recompute levels treating A1 outputs read by A2 as level 0 (they are
    // previous-wave data after the move).
    let mut level = vec![0u32; n];
    for (i, op) in graph.ops().iter().enumerate() {
        let eff_level_of = |t: TensorId, lv: &[u32]| -> u32 {
            if moved[i] && !moved[t.0 as usize] {
                0 // A2 reading A1: prior wave after refactoring
            } else {
                lv[t.0 as usize]
            }
        };
        level[i] = match &op.kind {
            RaOpKind::Input | RaOpKind::Placeholder => 0,
            RaOpKind::IfThenElse { then, otherwise } => {
                eff_level_of(*then, &level).max(eff_level_of(*otherwise, &level))
            }
            RaOpKind::Recursion { body, .. } => level[body.0 as usize],
            RaOpKind::Compute { body, .. } => {
                // Evaluate the level with operand levels adjusted for the
                // move: A1 outputs read by A2 count as prior-wave data.
                let mut eff = level.clone();
                for t in graph.reads_of(TensorId(i as u32)) {
                    eff[t.0 as usize] = eff_level_of(t, &level);
                }
                compute_level(body, &eff, false)
            }
        };
    }
    let depth_after = graph
        .ops()
        .iter()
        .enumerate()
        .filter(|(i, _)| base.in_recursion_body[*i])
        .map(|(i, _)| level[i])
        .max()
        .unwrap_or(0)
        .max(1);
    // Crossing tensors: A1 outputs consumed by moved *compute* ops — the
    // data that must be materialized to global memory because it now
    // crosses a wave boundary. Reads by conditional/recursion bookkeeping
    // ops (e.g. the leaf branch, which the leaf kernel handles) don't move
    // data.
    let crossing: Vec<TensorId> = (0..n)
        .filter(|&i| {
            base.in_recursion_body[i]
                && !moved[i]
                && (0..n).any(|j| {
                    moved[j]
                        && matches!(graph.ops()[j].kind, RaOpKind::Compute { .. })
                        && graph
                            .reads_of(TensorId(j as u32))
                            .contains(&TensorId(i as u32))
                })
        })
        .map(|i| TensorId(i as u32))
        .collect();
    Ok(RefactorAnalysis {
        depth_before: base.sync_depth,
        depth_after,
        moved: (0..n)
            .filter(|&i| moved[i])
            .map(|i| TensorId(i as u32))
            .collect(),
        crossing_tensors: crossing,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The Fig. 1 / Listing 1 model.
    fn tree_rnn(h: usize) -> (RaGraph, RaTensor) {
        let mut g = RaGraph::new();
        let emb = g.input("Emb", &[100, h]);
        let ph = g.placeholder("rnn_ph", &[h]);
        let leaf = g.compute("leaf", &[h], |c| c.read(emb, &[c.node().word(), c.axis(0)]));
        let lh = g.compute("lh", &[h], |c| c.read(ph, &[c.node().child(0), c.axis(0)]));
        let rh = g.compute("rh", &[h], |c| c.read(ph, &[c.node().child(1), c.axis(0)]));
        let rec = g.compute("rec", &[h], |c| {
            c.read(lh, &[c.node(), c.axis(0)])
                .add(c.read(rh, &[c.node(), c.axis(0)]))
                .tanh()
        });
        let body = g.if_then_else("body", leaf, rec).unwrap();
        let rnn = g.recursion(ph, body).unwrap();
        g.mark_output(rnn);
        (g, rnn)
    }

    /// A GRU-like model with two chained reductions per node.
    fn chained_matvec(h: usize) -> RaGraph {
        let mut g = RaGraph::new();
        let u = g.input("U", &[h, h]);
        let uh = g.input("Uh", &[h, h]);
        let ph = g.placeholder("h_ph", &[h]);
        let hsum = g.compute("hsum", &[h], |c| {
            c.read(ph, &[c.node().child(0), c.axis(0)])
                .add(c.read(ph, &[c.node().child(1), c.axis(0)]))
        });
        let r = g.compute("r", &[h], |c| {
            let i = c.axis(0);
            let node = c.node();
            let red = c.sum(h, |c, k| {
                c.read(u, &[i.clone(), k.clone()])
                    .mul(c.read(hsum, &[node.clone(), k]))
            });
            red.sigmoid()
        });
        let hp = g.compute("hp", &[h], |c| {
            let i = c.axis(0);
            let node = c.node();
            let red = c.sum(h, |c, k| {
                let rk = c.read(r, &[node.clone(), k.clone()]);
                let hk = c.read(hsum, &[node.clone(), k.clone()]);
                c.read(uh, &[i.clone(), k]).mul(rk.mul(hk))
            });
            red.tanh()
        });
        let zero = g.compute("zero", &[h], |_| ValExpr::Const(0.0));
        let body = g.if_then_else("body", zero, hp).unwrap();
        let out = g.recursion(ph, body).unwrap();
        g.mark_output(out);
        g
    }

    #[test]
    fn listing1_builds_and_validates() {
        let (g, _) = tree_rnn(16);
        assert!(g.validate().is_ok());
        assert_eq!(g.outputs().len(), 1);
    }

    #[test]
    fn unbound_placeholder_rejected() {
        let mut g = RaGraph::new();
        let ph = g.placeholder("ph", &[4]);
        let c = g.compute("c", &[4], |c| c.read(ph, &[c.node(), c.axis(0)]));
        g.mark_output(c);
        assert_eq!(g.validate(), Err(RaError::UnboundPlaceholder(ph.id())));
    }

    #[test]
    fn branch_shape_mismatch_rejected() {
        let mut g = RaGraph::new();
        let a = g.compute("a", &[4], |_| ValExpr::Const(1.0));
        let b = g.compute("b", &[8], |_| ValExpr::Const(2.0));
        assert!(matches!(
            g.if_then_else("bad", a, b),
            Err(RaError::BranchShapeMismatch { .. })
        ));
    }

    #[test]
    fn recursion_requires_placeholder() {
        let mut g = RaGraph::new();
        let a = g.compute("a", &[4], |_| ValExpr::Const(1.0));
        let b = g.compute("b", &[4], |_| ValExpr::Const(2.0));
        assert_eq!(
            g.recursion(a, b).unwrap_err(),
            RaError::NotAPlaceholder(a.id())
        );
    }

    #[test]
    fn doubly_bound_placeholder_rejected() {
        let mut g = RaGraph::new();
        let ph = g.placeholder("ph", &[2]);
        let a = g.compute("a", &[2], |_| ValExpr::Const(1.0));
        let r1 = g.recursion(ph, a).unwrap();
        let _r2 = g.recursion(ph, a).unwrap();
        g.mark_output(r1);
        assert_eq!(g.validate(), Err(RaError::DoublyBoundPlaceholder(ph.id())));
    }

    #[test]
    fn elementwise_model_has_sync_depth_one() {
        let (g, _) = tree_rnn(8);
        let a = analyze(&g);
        assert_eq!(
            a.sync_depth, 1,
            "tanh(lh+rh) needs only the wave-entry barrier"
        );
    }

    #[test]
    fn chained_matvecs_have_sync_depth_two() {
        let g = chained_matvec(8);
        let a = analyze(&g);
        assert_eq!(
            a.sync_depth, 2,
            "reduction over a same-wave tensor adds a barrier"
        );
    }

    #[test]
    fn single_matvec_over_placeholder_is_depth_one() {
        let mut g = RaGraph::new();
        let w = g.input("W", &[8, 8]);
        let ph = g.placeholder("ph", &[8]);
        let mv = g.compute("mv", &[8], |c| {
            let i = c.axis(0);
            let node = c.node();
            let red = c.sum(8, |c, k| {
                c.read(w, &[i.clone(), k.clone()])
                    .mul(c.read(ph, &[node.clone().child(0), k]))
            });
            red.tanh()
        });
        let zero = g.compute("zero", &[8], |_| ValExpr::Const(0.0));
        let body = g.if_then_else("body", zero, mv).unwrap();
        let out = g.recursion(ph, body).unwrap();
        g.mark_output(out);
        assert_eq!(analyze(&g).sync_depth, 1);
    }

    #[test]
    fn refactor_reduces_depth_and_reports_crossings() {
        let g = chained_matvec(8);
        // Split at hp: hp (and the ops after it) move across the backedge.
        let hp = TensorId(4); // hsum=3? order: U=0, Uh=1, ph=2, hsum=3, r=4, hp=5
        let hp = TensorId(hp.0 + 1); // index of "hp" op = 5
        let info = analyze_refactor(&g, hp).unwrap();
        assert_eq!(info.depth_before, 2);
        assert_eq!(info.depth_after, 1, "moved reduction reads prior-wave data");
        assert!(
            !info.crossing_tensors.is_empty(),
            "r and hsum must cross the boundary"
        );
    }

    #[test]
    fn refactor_split_must_be_in_body() {
        let (g, _) = tree_rnn(4);
        let bad = TensorId(0); // the embedding input
        assert!(matches!(
            analyze_refactor(&g, bad),
            Err(RaError::BadRefactorSplit(_))
        ));
    }

    #[test]
    fn default_schedule_matches_paper_best() {
        let s = RaSchedule::default();
        assert!(s.dynamic_batch && s.specialize && s.persist && s.dense_intermediates);
        assert_eq!(s.fusion, FusionMode::Maximal);
        let u = RaSchedule::unoptimized();
        assert_eq!(u.fusion, FusionMode::None);
        assert!(!u.specialize && !u.persist);
    }

    #[test]
    fn reads_of_tracks_dependencies() {
        let (g, _) = tree_rnn(4);
        // body (if_then_else) reads leaf and rec.
        let body_id = TensorId(6);
        let reads = g.reads_of(body_id);
        assert_eq!(reads.len(), 2);
    }
}
