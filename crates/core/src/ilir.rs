//! The Irregular Loops IR (§5 of the paper).
//!
//! The ILIR is a loop-based, data-structure-agnostic IR extending what a
//! tensor compiler provides with: (1) non-affine index expressions
//! (uninterpreted functions over loop variables), (2) loops with variable
//! bounds (batch lengths known only at runtime), and (3) a conditional
//! operator. Tensor dimensions and loops carry *named dimensions*
//! (Appendix A.2) so bounds inference can relate them when they are no
//! longer one-to-one.
//!
//! A lowered program ([`IlirProgram`]) is a list of tensor declarations
//! plus kernels. The pretty-printer renders programs in the pseudo-code
//! style of Listings 2–3 of the paper.

use std::fmt;

use crate::expr::{BoolExpr, IdxExpr, TensorId, ValExpr, Var, VarGen};
use crate::ra::RaSchedule;

/// Where a tensor lives and how long it persists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StorageClass {
    /// Model parameter (weights, embeddings): read-only at inference.
    Param,
    /// Off-chip global memory, persisting across the whole inference
    /// (per-node result tensors, cross-wave intermediates).
    Global,
    /// On-chip scratchpad: sized to the longest batch and reused each
    /// wave (the dense-indexed intermediates of Fig. 5).
    Scratch,
}

/// One extent of a declared tensor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DimExtent {
    /// Compile-time constant (hidden size, vocabulary size, …).
    Fixed(usize),
    /// The number of data-structure nodes, known at runtime (`N`).
    Nodes,
    /// The longest dynamic batch, known after linearization — the
    /// iteration-space extent of dense-indexed scratch tensors.
    MaxBatch,
}

impl fmt::Display for DimExtent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DimExtent::Fixed(n) => write!(f, "{n}"),
            DimExtent::Nodes => write!(f, "N"),
            DimExtent::MaxBatch => write!(f, "maxB"),
        }
    }
}

/// A named dimension (Appendix A.2): relates tensor dimensions to the
/// loops that iterate over them, which is no longer one-to-one in the ILIR.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct DimName(pub String);

impl DimName {
    /// The node dimension (`d_node` in Listing 3).
    pub fn node() -> Self {
        DimName("d_node".to_string())
    }

    /// The batch-of-batches loop dimension (`d_all_batches`).
    pub fn all_batches() -> Self {
        DimName("d_all_batches".to_string())
    }

    /// The within-batch loop dimension (`d_batch`).
    pub fn batch() -> Self {
        DimName("d_batch".to_string())
    }

    /// The `d`-th feature dimension (`d_hidden` for `d = 0`).
    pub fn feature(d: usize) -> Self {
        if d == 0 {
            DimName("d_hidden".to_string())
        } else {
            DimName(format!("d_feat{d}"))
        }
    }
}

impl fmt::Display for DimName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// A tensor declaration in a lowered program.
#[derive(Debug, Clone)]
pub struct TensorDecl {
    /// Identifier (shared with the RA graph that produced the program).
    pub id: TensorId,
    /// Diagnostic name.
    pub name: String,
    /// Extents.
    pub dims: Vec<DimExtent>,
    /// Named dimensions, parallel to `dims`.
    pub dim_names: Vec<DimName>,
    /// Storage class.
    pub class: StorageClass,
    /// Whether the tensor participates in model persistence (kept in
    /// on-chip memory across waves; only meaningful for `Param`).
    pub persist: bool,
    /// Whether this is a program output.
    pub is_output: bool,
}

impl TensorDecl {
    /// Number of elements, with runtime extents substituted.
    pub fn len(&self, num_nodes: usize, max_batch: usize) -> usize {
        self.dims
            .iter()
            .map(|d| match d {
                DimExtent::Fixed(n) => *n,
                DimExtent::Nodes => num_nodes,
                DimExtent::MaxBatch => max_batch,
            })
            .product()
    }
}

/// Loop annotations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoopKind {
    /// Ordinary sequential loop.
    Serial,
    /// Parallel across hardware threads (node loops within a wave).
    Parallel,
    /// Data-parallel inner loop (feature dimension).
    Vectorized,
}

/// An ILIR statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// `for var in 0..extent { body }` — extents may be variable
    /// (`batch_length[b]`), the hallmark of the ILIR.
    For {
        /// Loop variable.
        var: Var,
        /// Upper bound (exclusive), possibly variable.
        extent: IdxExpr,
        /// Execution annotation.
        kind: LoopKind,
        /// Named dimension of this loop (Appendix A.2).
        dim: Option<DimName>,
        /// Loop body.
        body: Vec<Stmt>,
    },
    /// `let var = value { body }` — binds an index (e.g. the indirection
    /// `node = batch_begin[b] + n_idx`).
    Let {
        /// Bound variable.
        var: Var,
        /// Its value.
        value: IdxExpr,
        /// Scope.
        body: Vec<Stmt>,
    },
    /// A tensor store `tensor[index] = value`.
    Store {
        /// Destination tensor.
        tensor: TensorId,
        /// Destination indices.
        index: Vec<IdxExpr>,
        /// Stored value.
        value: ValExpr,
    },
    /// The conditional operator (§5.2), lowered to an `if`.
    If {
        /// Condition.
        cond: BoolExpr,
        /// True branch.
        then_branch: Vec<Stmt>,
        /// False branch.
        else_branch: Vec<Stmt>,
    },
    /// A device-wide synchronization barrier (Appendix A.4).
    Barrier,
}

impl Stmt {
    /// The directly nested statements, in program order.
    pub fn children(&self) -> impl Iterator<Item = &Stmt> {
        let (first, second): (&[Stmt], &[Stmt]) = match self {
            Stmt::For { body, .. } | Stmt::Let { body, .. } => (body, &[]),
            Stmt::If {
                then_branch,
                else_branch,
                ..
            } => (then_branch, else_branch),
            Stmt::Store { .. } | Stmt::Barrier => (&[], &[]),
        };
        first.iter().chain(second)
    }

    /// Visits every statement (pre-order), including nested ones.
    pub fn visit(&self, f: &mut impl FnMut(&Stmt)) {
        f(self);
        self.children().for_each(|s| s.visit(f));
    }

    /// Counts statements satisfying a predicate.
    pub fn count(&self, pred: &impl Fn(&Stmt) -> bool) -> usize {
        let mut n = 0;
        self.visit(&mut |s| {
            if pred(s) {
                n += 1;
            }
        });
        n
    }
}

/// How often the runtime launches a kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LaunchPattern {
    /// Launched exactly once per inference.
    Once,
    /// Launched once per internal dynamic batch, in listed kernel order
    /// within each batch (the vendor-library execution model when fusion
    /// is disabled). The kernel body sees the batch index bound to
    /// [`Kernel::batch_var`].
    PerInternalBatch,
}

/// A lowered kernel: the unit of launch.
#[derive(Debug, Clone)]
pub struct Kernel {
    /// Diagnostic name.
    pub name: String,
    /// Launch pattern.
    pub launch: LaunchPattern,
    /// For [`LaunchPattern::PerInternalBatch`], the variable the runtime
    /// binds to the current batch index.
    pub batch_var: Option<Var>,
    /// Kernel body.
    pub body: Vec<Stmt>,
}

impl Kernel {
    /// Counts statements satisfying a predicate across the body.
    pub fn count(&self, pred: impl Fn(&Stmt) -> bool) -> usize {
        self.body.iter().map(|s| s.count(&pred)).sum()
    }
}

/// Schedule summary the backend device model needs (beyond what the
/// kernels themselves encode).
#[derive(Debug, Clone)]
pub struct ProgramMeta {
    /// The schedule the program was lowered with.
    pub schedule: RaSchedule,
    /// Barrier-separated segments per wavefront (from RA analysis).
    pub sync_depth: u32,
    /// Tensors that newly cross wave boundaries due to recursive
    /// refactoring (extra global materialization).
    pub crossing_tensors: Vec<TensorId>,
    /// Whether the leaf case was hoisted out of the recursion (§4.3).
    pub leaf_hoisted: bool,
    /// Whether the leaf case folded to the zero tensor (§4.3).
    pub leaf_zero: bool,
}

/// A complete lowered program: declarations plus kernels in launch order.
#[derive(Debug, Clone)]
pub struct IlirProgram {
    /// Tensor declarations (indexed by [`TensorId`] — ids are dense).
    pub tensors: Vec<Option<TensorDecl>>,
    /// Kernels in launch order.
    pub kernels: Vec<Kernel>,
    /// Program outputs.
    pub outputs: Vec<TensorId>,
    /// Scheduling metadata for the device model.
    pub meta: ProgramMeta,
    /// Variable generator (continued from the RA graph) for passes that
    /// need fresh variables.
    pub vg: VarGen,
}

impl IlirProgram {
    /// Looks up a declared tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor was eliminated or never declared.
    pub fn tensor(&self, id: TensorId) -> &TensorDecl {
        self.tensors[id.0 as usize]
            .as_ref()
            .expect("tensor not declared")
    }

    /// Looks up a declared tensor, if present.
    pub fn tensor_opt(&self, id: TensorId) -> Option<&TensorDecl> {
        self.tensors.get(id.0 as usize).and_then(|t| t.as_ref())
    }

    /// Iterator over declared tensors.
    pub fn declared_tensors(&self) -> impl Iterator<Item = &TensorDecl> {
        self.tensors.iter().filter_map(|t| t.as_ref())
    }

    /// Number of kernels.
    pub fn num_kernels(&self) -> usize {
        self.kernels.len()
    }

    /// Total barrier statements across all kernels (static count; the
    /// dynamic count depends on runtime batch counts).
    #[cfg(test)]
    pub(crate) fn static_barrier_count(&self) -> usize {
        self.kernels
            .iter()
            .map(|k| k.count(|s| matches!(s, Stmt::Barrier)))
            .sum()
    }
}

impl fmt::Display for IlirProgram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "// ILIR program: {} kernels", self.kernels.len())?;
        for t in self.declared_tensors() {
            let class = match t.class {
                StorageClass::Param => "param",
                StorageClass::Global => "global",
                StorageClass::Scratch => "scratch",
            };
            write!(f, "{class} {} {}(", t.id, t.name)?;
            for (i, (d, n)) in t.dims.iter().zip(&t.dim_names).enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{d}:{n}")?;
            }
            writeln!(
                f,
                "){}{}",
                if t.persist { " persist" } else { "" },
                if t.is_output { " out" } else { "" }
            )?;
        }
        for k in &self.kernels {
            let launch = match k.launch {
                LaunchPattern::Once => "once".to_string(),
                LaunchPattern::PerInternalBatch => {
                    format!(
                        "per-batch({})",
                        k.batch_var.map(|v| v.to_string()).unwrap_or_default()
                    )
                }
            };
            writeln!(f, "kernel {} [{}] {{", k.name, launch)?;
            for s in &k.body {
                fmt_stmt(f, s, 1)?;
            }
            writeln!(f, "}}")?;
        }
        Ok(())
    }
}

fn fmt_stmt(f: &mut fmt::Formatter<'_>, s: &Stmt, depth: usize) -> fmt::Result {
    let pad = "  ".repeat(depth);
    match s {
        Stmt::For {
            var,
            extent,
            kind,
            dim,
            body,
        } => {
            let k = match kind {
                LoopKind::Serial => "",
                LoopKind::Parallel => " @parallel",
                LoopKind::Vectorized => " @vector",
            };
            let d = dim.as_ref().map(|d| format!(" # {d}")).unwrap_or_default();
            writeln!(f, "{pad}for {var} = 0:{extent}:{k}{d}")?;
            for st in body {
                fmt_stmt(f, st, depth + 1)?;
            }
            Ok(())
        }
        Stmt::Let { var, value, body } => {
            writeln!(f, "{pad}{var} = {value}")?;
            for st in body {
                fmt_stmt(f, st, depth)?;
            }
            Ok(())
        }
        Stmt::Store {
            tensor,
            index,
            value,
        } => {
            write!(f, "{pad}{tensor}[")?;
            for (i, e) in index.iter().enumerate() {
                if i > 0 {
                    write!(f, ",")?;
                }
                write!(f, "{e}")?;
            }
            writeln!(f, "] = {value}")
        }
        Stmt::If {
            cond,
            then_branch,
            else_branch,
        } => {
            writeln!(f, "{pad}if {cond}:")?;
            for st in then_branch {
                fmt_stmt(f, st, depth + 1)?;
            }
            if !else_branch.is_empty() {
                writeln!(f, "{pad}else:")?;
                for st in else_branch {
                    fmt_stmt(f, st, depth + 1)?;
                }
            }
            Ok(())
        }
        Stmt::Barrier => writeln!(f, "{pad}barrier()"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::RtScalar;

    fn sample_program() -> IlirProgram {
        let mut vg = VarGen::new();
        let n_idx = vg.fresh("n_idx");
        let node = vg.fresh("node");
        let i = vg.fresh("i");
        let rnn = TensorId(0);
        let decl = TensorDecl {
            id: rnn,
            name: "rnn".to_string(),
            dims: vec![DimExtent::Nodes, DimExtent::Fixed(4)],
            dim_names: vec![DimName::node(), DimName::feature(0)],
            class: StorageClass::Global,
            persist: false,
            is_output: true,
        };
        let body = vec![Stmt::For {
            var: n_idx,
            extent: IdxExpr::Rt(RtScalar::NumLeaves),
            kind: LoopKind::Parallel,
            dim: Some(DimName::batch()),
            body: vec![Stmt::Let {
                var: node,
                value: IdxExpr::Rt(RtScalar::LeafBegin).add(IdxExpr::var(n_idx)),
                body: vec![Stmt::For {
                    var: i,
                    extent: IdxExpr::Const(4),
                    kind: LoopKind::Vectorized,
                    dim: Some(DimName::feature(0)),
                    body: vec![Stmt::Store {
                        tensor: rnn,
                        index: vec![IdxExpr::var(node), IdxExpr::var(i)],
                        value: ValExpr::Const(1.0),
                    }],
                }],
            }],
        }];
        IlirProgram {
            tensors: vec![Some(decl)],
            kernels: vec![Kernel {
                name: "leaf".to_string(),
                launch: LaunchPattern::Once,
                batch_var: None,
                body,
            }],
            outputs: vec![rnn],
            meta: ProgramMeta {
                schedule: RaSchedule::default(),
                sync_depth: 1,
                crossing_tensors: Vec::new(),
                leaf_hoisted: false,
                leaf_zero: false,
            },
            vg,
        }
    }

    #[test]
    fn tensor_len_resolves_runtime_extents() {
        let p = sample_program();
        let t = p.tensor(TensorId(0));
        assert_eq!(t.len(255, 16), 255 * 4);
    }

    #[test]
    fn stmt_visit_and_count() {
        let p = sample_program();
        let k = &p.kernels[0];
        assert_eq!(k.count(|s| matches!(s, Stmt::Store { .. })), 1);
        assert_eq!(k.count(|s| matches!(s, Stmt::For { .. })), 2);
        assert_eq!(p.static_barrier_count(), 0);
    }

    #[test]
    fn display_renders_paper_style() {
        let p = sample_program();
        let text = p.to_string();
        assert!(text.contains("kernel leaf [once]"), "{text}");
        assert!(text.contains("for v0 = 0:num_leaves"), "{text}");
        assert!(text.contains("t0[v1,v2] = 1"), "{text}");
        assert!(text.contains("d_hidden"), "{text}");
    }

    #[test]
    fn dim_names_match_listing_3() {
        assert_eq!(DimName::node().to_string(), "d_node");
        assert_eq!(DimName::all_batches().to_string(), "d_all_batches");
        assert_eq!(DimName::batch().to_string(), "d_batch");
        assert_eq!(DimName::feature(0).to_string(), "d_hidden");
    }
}
