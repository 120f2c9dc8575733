//! Scalar expression IR shared by the Recursive API and the ILIR.
//!
//! Two sorts of expressions exist, mirroring a tensor compiler's IR:
//!
//! * [`IdxExpr`] — integer index expressions. These include *uninterpreted
//!   functions* ([`Ufn`]) over loop variables, which is how the ILIR
//!   represents indirect memory accesses like `left[node]` or
//!   `batch_begin[b]` (§5.1 of the paper, following the Sparse Polyhedral
//!   Framework).
//! * [`ValExpr`] — `f32` value expressions: tensor loads, arithmetic,
//!   nonlinearities and bounded reductions (`sum`), plus a conditional
//!   [`select`](ValExpr::Select) used to express the conditional operator
//!   (§5.2).
//!
//! Expressions are evaluated by the backend executor against an
//! environment binding loop variables and the linearized data-structure
//! arrays.

use std::fmt;

/// A loop or let-bound integer variable.
///
/// Variables are compared by identity (`id`); the name is carried only for
/// diagnostics and printed IR.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Var {
    id: u32,
}

impl Var {
    /// Creates a variable with an explicit id. Prefer [`VarGen::fresh`].
    pub fn from_raw(id: u32) -> Self {
        Var { id }
    }

    /// The raw id.
    pub fn id(self) -> u32 {
        self.id
    }
}

impl fmt::Display for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.id)
    }
}

/// Generates fresh [`Var`]s with unique ids.
#[derive(Debug, Default, Clone)]
pub struct VarGen {
    next: u32,
    names: Vec<String>,
}

impl VarGen {
    /// Creates a generator starting at id 0.
    pub fn new() -> Self {
        VarGen::default()
    }

    /// Returns a fresh variable carrying `name` for diagnostics.
    pub fn fresh(&mut self, name: &str) -> Var {
        let v = Var { id: self.next };
        self.next += 1;
        self.names.push(name.to_string());
        v
    }

    /// The diagnostic name of `v`, if it was produced by this generator.
    pub fn name(&self, v: Var) -> &str {
        self.names
            .get(v.id as usize)
            .map(String::as_str)
            .unwrap_or("?")
    }
}

/// Identifier of a tensor within a program (RA graph or ILIR program).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TensorId(pub u32);

impl fmt::Display for TensorId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// The uninterpreted functions the ILIR may apply to index expressions.
///
/// Cortex represents data-structure accesses as uninterpreted functions of
/// loop variables (§5.1). The set is closed: each corresponds to one of the
/// arrays the data-structure linearizer produces, which keeps both the
/// executor and the [`prover`](crate::prover) aware of their semantics
/// (e.g. `BatchBegin` is monotonically non-decreasing).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Ufn {
    /// `child_k[n]`: the `k`-th child of node `n` (e.g. `left`, `right`).
    Child(u8),
    /// `words[n]`: the word (input feature) id of node `n`.
    Word,
    /// `num_children[n]`.
    NumChildren,
    /// `batch_begin[b]` (Appendix B).
    BatchBegin,
    /// `batch_length[b]` (Appendix B).
    BatchLength,
    /// `post_order[i]`: the `i`-th node in dependence order (used when
    /// dynamic batching is disabled).
    NodeAt,
    /// `roots[i]`: the `i`-th root node (used by the recursive-refactoring
    /// epilogue, which finishes the moved computation for root nodes).
    RootAt,
    /// `stage_length[s]`: nodes in the `s`-th stage of an unrolled
    /// schedule (§3.1 unrolling; stages are not contiguous id ranges, so
    /// unrolled code pays for indirection — see Fig. 11).
    StageLength,
    /// `stage_node[s, i]`: the `i`-th node of unrolled stage `s`.
    StageNodeAt,
}

impl fmt::Display for Ufn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Ufn::Child(0) => write!(f, "left"),
            Ufn::Child(1) => write!(f, "right"),
            Ufn::Child(k) => write!(f, "child{k}"),
            Ufn::Word => write!(f, "words"),
            Ufn::NumChildren => write!(f, "num_children"),
            Ufn::BatchBegin => write!(f, "batch_begin"),
            Ufn::BatchLength => write!(f, "batch_length"),
            Ufn::NodeAt => write!(f, "post_order"),
            Ufn::RootAt => write!(f, "roots"),
            Ufn::StageLength => write!(f, "stage_length"),
            Ufn::StageNodeAt => write!(f, "stage_node"),
        }
    }
}

/// Runtime scalars describing the linearized input (known only at runtime,
/// constant within one inference).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RtScalar {
    /// Total number of nodes (`N`).
    NumNodes,
    /// Number of internal nodes; also the id of the first leaf (App. B).
    NumInternal,
    /// Number of leaves.
    NumLeaves,
    /// Number of internal batches.
    NumInternalBatches,
    /// First node id of the leaf batch.
    LeafBegin,
    /// Longest internal batch (used to size dense scratchpad tensors).
    MaxBatchLen,
    /// Number of root nodes.
    NumRoots,
    /// Number of stages in an unrolled schedule.
    NumStages,
}

impl fmt::Display for RtScalar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            RtScalar::NumNodes => "num_nodes",
            RtScalar::NumInternal => "num_internal",
            RtScalar::NumLeaves => "num_leaves",
            RtScalar::NumInternalBatches => "num_internal_batches",
            RtScalar::LeafBegin => "leaf_begin",
            RtScalar::MaxBatchLen => "max_batch_len",
            RtScalar::NumRoots => "num_roots",
            RtScalar::NumStages => "num_stages",
        };
        f.write_str(s)
    }
}

/// Integer binary operators for index expressions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IdxBinOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Euclidean (floor) division.
    Div,
    /// Remainder.
    Rem,
    /// Minimum.
    Min,
    /// Maximum.
    Max,
}

/// An integer index expression.
#[derive(Debug, Clone, PartialEq)]
pub enum IdxExpr {
    /// Integer literal.
    Const(i64),
    /// Loop or let-bound variable.
    Var(Var),
    /// Runtime scalar (input-dependent constant).
    Rt(RtScalar),
    /// Uninterpreted function application (indirect access).
    Ufn(Ufn, Vec<IdxExpr>),
    /// Binary arithmetic.
    Bin(IdxBinOp, Box<IdxExpr>, Box<IdxExpr>),
}

impl IdxExpr {
    /// Variable reference.
    pub fn var(v: Var) -> Self {
        IdxExpr::Var(v)
    }

    /// `self + other`.
    #[allow(clippy::should_implement_trait)]
    pub fn add(self, other: IdxExpr) -> Self {
        IdxExpr::Bin(IdxBinOp::Add, Box::new(self), Box::new(other))
    }

    /// `self - other`.
    #[allow(clippy::should_implement_trait)]
    pub fn sub(self, other: IdxExpr) -> Self {
        IdxExpr::Bin(IdxBinOp::Sub, Box::new(self), Box::new(other))
    }

    /// `self * other`.
    #[allow(clippy::should_implement_trait)]
    pub fn mul(self, other: IdxExpr) -> Self {
        IdxExpr::Bin(IdxBinOp::Mul, Box::new(self), Box::new(other))
    }

    /// `min(self, other)`.
    pub fn min(self, other: IdxExpr) -> Self {
        IdxExpr::Bin(IdxBinOp::Min, Box::new(self), Box::new(other))
    }

    /// `max(self, other)`.
    pub fn max(self, other: IdxExpr) -> Self {
        IdxExpr::Bin(IdxBinOp::Max, Box::new(self), Box::new(other))
    }

    /// The `k`-th child of this node id.
    pub fn child(self, k: u8) -> Self {
        IdxExpr::Ufn(Ufn::Child(k), vec![self])
    }

    /// The word id of this node.
    pub fn word(self) -> Self {
        IdxExpr::Ufn(Ufn::Word, vec![self])
    }

    /// Substitutes `var := replacement` throughout.
    pub fn substitute(&self, var: Var, replacement: &IdxExpr) -> IdxExpr {
        match self {
            IdxExpr::Var(v) if *v == var => replacement.clone(),
            IdxExpr::Const(_) | IdxExpr::Var(_) | IdxExpr::Rt(_) => self.clone(),
            IdxExpr::Ufn(f, args) => IdxExpr::Ufn(
                *f,
                args.iter()
                    .map(|a| a.substitute(var, replacement))
                    .collect(),
            ),
            IdxExpr::Bin(op, a, b) => IdxExpr::Bin(
                *op,
                Box::new(a.substitute(var, replacement)),
                Box::new(b.substitute(var, replacement)),
            ),
        }
    }
}

impl From<i64> for IdxExpr {
    fn from(c: i64) -> Self {
        IdxExpr::Const(c)
    }
}

impl From<Var> for IdxExpr {
    fn from(v: Var) -> Self {
        IdxExpr::Var(v)
    }
}

impl From<RtScalar> for IdxExpr {
    fn from(r: RtScalar) -> Self {
        IdxExpr::Rt(r)
    }
}

impl fmt::Display for IdxExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IdxExpr::Const(c) => write!(f, "{c}"),
            IdxExpr::Var(v) => write!(f, "{v}"),
            IdxExpr::Rt(r) => write!(f, "{r}"),
            IdxExpr::Ufn(u, args) => {
                write!(f, "{u}[")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, "]")
            }
            IdxExpr::Bin(op, a, b) => {
                let sym = match op {
                    IdxBinOp::Add => "+",
                    IdxBinOp::Sub => "-",
                    IdxBinOp::Mul => "*",
                    IdxBinOp::Div => "/",
                    IdxBinOp::Rem => "%",
                    IdxBinOp::Min => return write!(f, "min({a}, {b})"),
                    IdxBinOp::Max => return write!(f, "max({a}, {b})"),
                };
                write!(f, "({a} {sym} {b})")
            }
        }
    }
}

/// Comparison operators for boolean conditions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Less than.
    Lt,
    /// Less than or equal.
    Le,
    /// Greater than.
    Gt,
    /// Greater than or equal.
    Ge,
}

impl CmpOp {
    /// `x op y`.
    pub fn apply(self, x: i64, y: i64) -> bool {
        match self {
            CmpOp::Eq => x == y,
            CmpOp::Ne => x != y,
            CmpOp::Lt => x < y,
            CmpOp::Le => x <= y,
            CmpOp::Gt => x > y,
            CmpOp::Ge => x >= y,
        }
    }
}

/// A boolean condition over index expressions.
#[derive(Debug, Clone, PartialEq)]
pub enum BoolExpr {
    /// Integer comparison.
    Cmp(CmpOp, IdxExpr, IdxExpr),
    /// `isleaf(n)` — abstract leaf predicate. The compiler lowers this to
    /// either the Appendix-B numbering comparison (`n >= num_internal`) or
    /// a `num_children[n] == 0` load, depending on schedule options.
    IsLeaf(IdxExpr),
    /// Conjunction.
    And(Box<BoolExpr>, Box<BoolExpr>),
    /// Disjunction.
    Or(Box<BoolExpr>, Box<BoolExpr>),
    /// Negation.
    Not(Box<BoolExpr>),
}

impl BoolExpr {
    /// Convenience: `a < b`.
    pub fn lt(a: impl Into<IdxExpr>, b: impl Into<IdxExpr>) -> Self {
        BoolExpr::Cmp(CmpOp::Lt, a.into(), b.into())
    }

    /// Substitutes a variable in all contained index expressions.
    pub fn substitute(&self, var: Var, replacement: &IdxExpr) -> BoolExpr {
        match self {
            BoolExpr::Cmp(op, a, b) => BoolExpr::Cmp(
                *op,
                a.substitute(var, replacement),
                b.substitute(var, replacement),
            ),
            BoolExpr::IsLeaf(e) => BoolExpr::IsLeaf(e.substitute(var, replacement)),
            BoolExpr::And(a, b) => BoolExpr::And(
                Box::new(a.substitute(var, replacement)),
                Box::new(b.substitute(var, replacement)),
            ),
            BoolExpr::Or(a, b) => BoolExpr::Or(
                Box::new(a.substitute(var, replacement)),
                Box::new(b.substitute(var, replacement)),
            ),
            BoolExpr::Not(a) => BoolExpr::Not(Box::new(a.substitute(var, replacement))),
        }
    }
}

impl fmt::Display for BoolExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BoolExpr::Cmp(op, a, b) => {
                let sym = match op {
                    CmpOp::Eq => "==",
                    CmpOp::Ne => "!=",
                    CmpOp::Lt => "<",
                    CmpOp::Le => "<=",
                    CmpOp::Gt => ">",
                    CmpOp::Ge => ">=",
                };
                write!(f, "({a} {sym} {b})")
            }
            BoolExpr::IsLeaf(e) => write!(f, "isleaf({e})"),
            BoolExpr::And(a, b) => write!(f, "({a} && {b})"),
            BoolExpr::Or(a, b) => write!(f, "({a} || {b})"),
            BoolExpr::Not(a) => write!(f, "!{a}"),
        }
    }
}

/// Unary value operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnaryOp {
    /// Negation.
    Neg,
    /// Hyperbolic tangent.
    Tanh,
    /// Logistic sigmoid.
    Sigmoid,
    /// Rectified linear unit.
    Relu,
    /// Natural exponential.
    Exp,
}

/// Binary value operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division.
    Div,
    /// Maximum.
    Max,
    /// Minimum.
    Min,
}

impl UnaryOp {
    /// The tile-kernel operator that defines this operator's numerics.
    pub fn tile_op(self) -> cortex_tensor::simd::TileUnary {
        use cortex_tensor::simd::TileUnary;
        match self {
            UnaryOp::Neg => TileUnary::Neg,
            UnaryOp::Tanh => TileUnary::Tanh,
            UnaryOp::Sigmoid => TileUnary::Sigmoid,
            UnaryOp::Relu => TileUnary::Relu,
            UnaryOp::Exp => TileUnary::Exp,
        }
    }

    /// Evaluates the operator on one value — the single definition every
    /// execution path (scalar walk, tiled row programs, constant folder)
    /// shares, so they agree bit for bit.
    pub fn apply(self, mode: cortex_tensor::approx::NonlinearityMode, x: f32) -> f32 {
        self.tile_op().apply(mode, x)
    }
}

impl BinOp {
    /// The tile-kernel operator that defines this operator's numerics.
    pub fn tile_op(self) -> cortex_tensor::simd::TileBinary {
        use cortex_tensor::simd::TileBinary;
        match self {
            BinOp::Add => TileBinary::Add,
            BinOp::Sub => TileBinary::Sub,
            BinOp::Mul => TileBinary::Mul,
            BinOp::Div => TileBinary::Div,
            BinOp::Max => TileBinary::Max,
            BinOp::Min => TileBinary::Min,
        }
    }

    /// Evaluates the operator on one pair of values (see
    /// [`UnaryOp::apply`]).
    pub fn apply(self, x: f32, y: f32) -> f32 {
        self.tile_op().apply(x, y)
    }
}

/// An `f32` value expression.
#[derive(Debug, Clone, PartialEq)]
pub enum ValExpr {
    /// Floating-point literal.
    Const(f32),
    /// Tensor load at the given indices.
    Load {
        /// The tensor being read.
        tensor: TensorId,
        /// One index expression per tensor dimension.
        index: Vec<IdxExpr>,
    },
    /// Unary operator application.
    Unary(UnaryOp, Box<ValExpr>),
    /// Binary operator application.
    Bin(BinOp, Box<ValExpr>, Box<ValExpr>),
    /// Bounded reduction: `sum over var in 0..extent of body`.
    Sum {
        /// Reduction variable.
        var: Var,
        /// Reduction extent (evaluated once per surrounding iteration).
        extent: IdxExpr,
        /// Summand.
        body: Box<ValExpr>,
    },
    /// Conditional value: the expression form of the conditional operator.
    Select {
        /// Condition over index variables.
        cond: BoolExpr,
        /// Value when true.
        then: Box<ValExpr>,
        /// Value when false.
        otherwise: Box<ValExpr>,
    },
}

impl ValExpr {
    /// Tensor load.
    pub fn load(tensor: TensorId, index: Vec<IdxExpr>) -> Self {
        ValExpr::Load { tensor, index }
    }

    /// `self + other`.
    #[allow(clippy::should_implement_trait)]
    pub fn add(self, other: ValExpr) -> Self {
        ValExpr::Bin(BinOp::Add, Box::new(self), Box::new(other))
    }

    /// `self - other`.
    #[allow(clippy::should_implement_trait)]
    pub fn sub(self, other: ValExpr) -> Self {
        ValExpr::Bin(BinOp::Sub, Box::new(self), Box::new(other))
    }

    /// `self * other`.
    #[allow(clippy::should_implement_trait)]
    pub fn mul(self, other: ValExpr) -> Self {
        ValExpr::Bin(BinOp::Mul, Box::new(self), Box::new(other))
    }

    /// `tanh(self)`.
    pub fn tanh(self) -> Self {
        ValExpr::Unary(UnaryOp::Tanh, Box::new(self))
    }

    /// `sigmoid(self)`.
    pub fn sigmoid(self) -> Self {
        ValExpr::Unary(UnaryOp::Sigmoid, Box::new(self))
    }

    /// Substitutes an index variable throughout.
    pub fn substitute(&self, var: Var, replacement: &IdxExpr) -> ValExpr {
        match self {
            ValExpr::Const(_) => self.clone(),
            ValExpr::Load { tensor, index } => ValExpr::Load {
                tensor: *tensor,
                index: index
                    .iter()
                    .map(|i| i.substitute(var, replacement))
                    .collect(),
            },
            ValExpr::Unary(op, a) => ValExpr::Unary(*op, Box::new(a.substitute(var, replacement))),
            ValExpr::Bin(op, a, b) => ValExpr::Bin(
                *op,
                Box::new(a.substitute(var, replacement)),
                Box::new(b.substitute(var, replacement)),
            ),
            ValExpr::Sum {
                var: rv,
                extent,
                body,
            } => {
                // Reduction variables are always fresh; shadowing cannot occur.
                debug_assert_ne!(*rv, var, "substituting a bound reduction variable");
                ValExpr::Sum {
                    var: *rv,
                    extent: extent.substitute(var, replacement),
                    body: Box::new(body.substitute(var, replacement)),
                }
            }
            ValExpr::Select {
                cond,
                then,
                otherwise,
            } => ValExpr::Select {
                cond: cond.substitute(var, replacement),
                then: Box::new(then.substitute(var, replacement)),
                otherwise: Box::new(otherwise.substitute(var, replacement)),
            },
        }
    }

    /// Rewrites every load via `f` (receives tensor and index vector).
    pub fn transform_loads(
        &self,
        f: &mut impl FnMut(TensorId, Vec<IdxExpr>) -> ValExpr,
    ) -> ValExpr {
        match self {
            ValExpr::Const(_) => self.clone(),
            ValExpr::Load { tensor, index } => f(*tensor, index.clone()),
            ValExpr::Unary(op, a) => ValExpr::Unary(*op, Box::new(a.transform_loads(f))),
            ValExpr::Bin(op, a, b) => ValExpr::Bin(
                *op,
                Box::new(a.transform_loads(f)),
                Box::new(b.transform_loads(f)),
            ),
            ValExpr::Sum { var, extent, body } => ValExpr::Sum {
                var: *var,
                extent: extent.clone(),
                body: Box::new(body.transform_loads(f)),
            },
            ValExpr::Select {
                cond,
                then,
                otherwise,
            } => ValExpr::Select {
                cond: cond.clone(),
                then: Box::new(then.transform_loads(f)),
                otherwise: Box::new(otherwise.transform_loads(f)),
            },
        }
    }

    /// Collects the set of tensors this expression loads from.
    pub fn loaded_tensors(&self, out: &mut Vec<TensorId>) {
        match self {
            ValExpr::Const(_) => {}
            ValExpr::Load { tensor, .. } => {
                if !out.contains(tensor) {
                    out.push(*tensor);
                }
            }
            ValExpr::Unary(_, a) => a.loaded_tensors(out),
            ValExpr::Bin(_, a, b) => {
                a.loaded_tensors(out);
                b.loaded_tensors(out);
            }
            ValExpr::Sum { body, .. } => body.loaded_tensors(out),
            ValExpr::Select {
                then, otherwise, ..
            } => {
                then.loaded_tensors(out);
                otherwise.loaded_tensors(out);
            }
        }
    }

    /// Whether the expression contains a [`ValExpr::Sum`] reduction
    /// (loosely: "is a matvec-like op"); reductions are what force
    /// cross-thread synchronization in persistent kernels (§7.4).
    pub fn contains_reduction(&self) -> bool {
        match self {
            ValExpr::Const(_) | ValExpr::Load { .. } => false,
            ValExpr::Unary(_, a) => a.contains_reduction(),
            ValExpr::Bin(_, a, b) => a.contains_reduction() || b.contains_reduction(),
            ValExpr::Sum { .. } => true,
            ValExpr::Select {
                then, otherwise, ..
            } => then.contains_reduction() || otherwise.contains_reduction(),
        }
    }

    /// Counts scalar floating-point operations per evaluation, with
    /// reduction extents resolved by `extent_of`. Used by the device model
    /// to account flops.
    pub fn flops(&self, extent_of: &impl Fn(&IdxExpr) -> u64) -> u64 {
        match self {
            ValExpr::Const(_) | ValExpr::Load { .. } => 0,
            ValExpr::Unary(_, a) => 1 + a.flops(extent_of),
            ValExpr::Bin(_, a, b) => 1 + a.flops(extent_of) + b.flops(extent_of),
            ValExpr::Sum { extent, body, .. } => {
                let n = extent_of(extent);
                // body flops + one add per reduction step.
                n * (body.flops(extent_of) + 1)
            }
            ValExpr::Select {
                then, otherwise, ..
            } => 1 + then.flops(extent_of).max(otherwise.flops(extent_of)),
        }
    }
}

impl fmt::Display for ValExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValExpr::Const(c) => write!(f, "{c}"),
            ValExpr::Load { tensor, index } => {
                write!(f, "{tensor}[")?;
                for (i, e) in index.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{e}")?;
                }
                write!(f, "]")
            }
            ValExpr::Unary(op, a) => {
                let name = match op {
                    UnaryOp::Neg => "-",
                    UnaryOp::Tanh => "tanh",
                    UnaryOp::Sigmoid => "sigmoid",
                    UnaryOp::Relu => "relu",
                    UnaryOp::Exp => "exp",
                };
                write!(f, "{name}({a})")
            }
            ValExpr::Bin(op, a, b) => {
                let sym = match op {
                    BinOp::Add => "+",
                    BinOp::Sub => "-",
                    BinOp::Mul => "*",
                    BinOp::Div => "/",
                    BinOp::Max => return write!(f, "max({a}, {b})"),
                    BinOp::Min => return write!(f, "min({a}, {b})"),
                };
                write!(f, "({a} {sym} {b})")
            }
            ValExpr::Sum { var, extent, body } => {
                write!(f, "sum({var} < {extent}) {body}")
            }
            ValExpr::Select {
                cond,
                then,
                otherwise,
            } => {
                write!(f, "select({cond}, {then}, {otherwise})")
            }
        }
    }
}

impl From<f32> for ValExpr {
    fn from(c: f32) -> Self {
        ValExpr::Const(c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vg() -> VarGen {
        VarGen::new()
    }

    #[test]
    fn var_gen_produces_unique_named_vars() {
        let mut g = vg();
        let a = g.fresh("n");
        let b = g.fresh("i");
        assert_ne!(a, b);
        assert_eq!(g.name(a), "n");
        assert_eq!(g.name(b), "i");
    }

    #[test]
    fn idx_substitution() {
        let mut g = vg();
        let n = g.fresh("n");
        let e = IdxExpr::var(n).child(0).add(IdxExpr::Const(1));
        let s = e.substitute(n, &IdxExpr::Const(5));
        assert_eq!(
            s,
            IdxExpr::Ufn(Ufn::Child(0), vec![IdxExpr::Const(5)]).add(IdxExpr::Const(1))
        );
    }

    #[test]
    fn val_substitution_reaches_loads_and_selects() {
        let mut g = vg();
        let n = g.fresh("n");
        let t = TensorId(0);
        let e = ValExpr::Select {
            cond: BoolExpr::IsLeaf(IdxExpr::var(n)),
            then: Box::new(ValExpr::load(t, vec![IdxExpr::var(n)])),
            otherwise: Box::new(ValExpr::load(t, vec![IdxExpr::var(n).child(1)])),
        };
        let s = e.substitute(n, &IdxExpr::Const(3));
        match s {
            ValExpr::Select { cond, then, .. } => {
                assert_eq!(cond, BoolExpr::IsLeaf(IdxExpr::Const(3)));
                assert_eq!(*then, ValExpr::load(t, vec![IdxExpr::Const(3)]));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn contains_reduction_detects_sum() {
        let mut g = vg();
        let k = g.fresh("k");
        let t = TensorId(0);
        let matvec = ValExpr::Sum {
            var: k,
            extent: IdxExpr::Const(4),
            body: Box::new(ValExpr::load(t, vec![IdxExpr::var(k)])),
        };
        assert!(matvec.contains_reduction());
        assert!(!ValExpr::Const(1.0)
            .add(ValExpr::Const(2.0))
            .contains_reduction());
    }

    #[test]
    fn flops_accounting_matvec() {
        let mut g = vg();
        let k = g.fresh("k");
        let (w, x) = (TensorId(0), TensorId(1));
        // sum_k w[k] * x[k]: per step one mul + one add = 2 flops; extent 256.
        let e = ValExpr::Sum {
            var: k,
            extent: IdxExpr::Const(256),
            body: Box::new(
                ValExpr::load(w, vec![IdxExpr::var(k)])
                    .mul(ValExpr::load(x, vec![IdxExpr::var(k)])),
            ),
        };
        let flops = e.flops(&|e| match e {
            IdxExpr::Const(c) => *c as u64,
            _ => 0,
        });
        assert_eq!(flops, 512);
    }

    #[test]
    fn display_is_readable() {
        let mut g = vg();
        let n = g.fresh("n");
        let e = ValExpr::load(
            TensorId(3),
            vec![IdxExpr::var(n).child(0), IdxExpr::Const(2)],
        )
        .tanh();
        assert_eq!(format!("{e}"), "tanh(t3[left[v0], 2])");
        let b = BoolExpr::IsLeaf(IdxExpr::var(n));
        assert_eq!(format!("{b}"), "isleaf(v0)");
    }
}
