//! Lowering: from kernel ASTs to the linear [`Program`].
//!
//! Two stages, both run once per engine:
//!
//! 1. **Kernel compilation** ([`CompiledKernel::compile`]): remap every
//!    `Var` to a dense slot index so the interpreter's register file is
//!    a flat array. Every `Sum` binds a slot of its own, which is how a
//!    wave names its reduction sites.
//! 2. **Flattening** ([`lower`]): walk each compiled body once and emit
//!    the flat op stream, resolving every wave/bulk/fused plan lookup
//!    into op operands and cloning into the program each expression an
//!    op evaluates. Control flow becomes explicit jump targets
//!    (`Branch`/`Jump`, `LoopEnter`/`LoopNext`); plan decisions that
//!    the AST walker re-discovers per execution (map lookups keyed by
//!    statement address) happen exactly once, here.
//!
//! The lowering is total over the statement grammar — `For`, `Let`,
//! `Store`, `If`, `Barrier` all flatten, and the `match` over `Stmt` is
//! exhaustive, so a new statement kind is a compile error here rather
//! than a silent fallback to the AST walk.

use std::collections::HashMap;
use std::sync::Arc;

use cortex_core::expr::{BoolExpr, IdxExpr, ValExpr, Var};
use cortex_core::ilir::{LaunchPattern, Stmt};

use super::bulk::{FusedWave, RowProgram};
use super::program::{KernelDef, LoopDef, Op, Pc, Program, StoreOp};
use crate::wave::WavePlan;

// ---------------------------------------------------------------------
// Kernel compilation: dense variable slots
// ---------------------------------------------------------------------

pub(crate) struct CompiledKernel {
    pub(crate) launch: LaunchPattern,
    pub(crate) batch_slot: Option<usize>,
    pub(crate) body: Vec<Stmt>,
    pub(crate) num_slots: usize,
}

#[derive(Default)]
struct SlotMap {
    map: HashMap<u32, u32>,
    next: u32,
}

impl SlotMap {
    fn slot(&mut self, v: Var) -> Var {
        let s = match self.map.get(&v.id()) {
            Some(&s) => s,
            None => {
                let s = self.fresh();
                self.map.insert(v.id(), s);
                s
            }
        };
        Var::from_raw(s)
    }

    fn fresh(&mut self) -> u32 {
        self.next += 1;
        self.next - 1
    }
}

impl CompiledKernel {
    pub(crate) fn compile(kernel: &cortex_core::ilir::Kernel) -> Self {
        let mut slots = SlotMap::default();
        let batch_slot = kernel.batch_var.map(|v| slots.slot(v).id() as usize);
        let body = kernel
            .body
            .iter()
            .map(|s| remap_stmt(s, &mut slots))
            .collect();
        CompiledKernel {
            launch: kernel.launch,
            batch_slot,
            body,
            num_slots: slots.next as usize,
        }
    }
}

fn remap_stmt(s: &Stmt, m: &mut SlotMap) -> Stmt {
    match s {
        Stmt::For {
            var,
            extent,
            kind,
            dim,
            body,
        } => Stmt::For {
            var: m.slot(*var),
            extent: remap_idx(extent, m),
            kind: *kind,
            dim: dim.clone(),
            body: body.iter().map(|st| remap_stmt(st, m)).collect(),
        },
        Stmt::Let { var, value, body } => Stmt::Let {
            var: m.slot(*var),
            value: remap_idx(value, m),
            body: body.iter().map(|st| remap_stmt(st, m)).collect(),
        },
        Stmt::Store {
            tensor,
            index,
            value,
        } => Stmt::Store {
            tensor: *tensor,
            index: index.iter().map(|e| remap_idx(e, m)).collect(),
            value: remap_val(value, m),
        },
        Stmt::If {
            cond,
            then_branch,
            else_branch,
        } => Stmt::If {
            cond: remap_bool(cond, m),
            then_branch: then_branch.iter().map(|st| remap_stmt(st, m)).collect(),
            else_branch: else_branch.iter().map(|st| remap_stmt(st, m)).collect(),
        },
        Stmt::Barrier => Stmt::Barrier,
    }
}

fn remap_idx(e: &IdxExpr, m: &mut SlotMap) -> IdxExpr {
    match e {
        IdxExpr::Const(_) | IdxExpr::Rt(_) => e.clone(),
        IdxExpr::Var(v) => IdxExpr::Var(m.slot(*v)),
        IdxExpr::Ufn(f, args) => IdxExpr::Ufn(*f, args.iter().map(|a| remap_idx(a, m)).collect()),
        IdxExpr::Bin(op, a, b) => {
            IdxExpr::Bin(*op, Box::new(remap_idx(a, m)), Box::new(remap_idx(b, m)))
        }
    }
}

fn remap_bool(e: &BoolExpr, m: &mut SlotMap) -> BoolExpr {
    match e {
        BoolExpr::Cmp(op, a, b) => BoolExpr::Cmp(*op, remap_idx(a, m), remap_idx(b, m)),
        BoolExpr::IsLeaf(a) => BoolExpr::IsLeaf(remap_idx(a, m)),
        BoolExpr::And(a, b) => {
            BoolExpr::And(Box::new(remap_bool(a, m)), Box::new(remap_bool(b, m)))
        }
        BoolExpr::Or(a, b) => BoolExpr::Or(Box::new(remap_bool(a, m)), Box::new(remap_bool(b, m))),
        BoolExpr::Not(a) => BoolExpr::Not(Box::new(remap_bool(a, m))),
    }
}

fn remap_val(e: &ValExpr, m: &mut SlotMap) -> ValExpr {
    match e {
        ValExpr::Const(_) => e.clone(),
        ValExpr::Load { tensor, index } => ValExpr::Load {
            tensor: *tensor,
            index: index.iter().map(|i| remap_idx(i, m)).collect(),
        },
        ValExpr::Unary(op, a) => ValExpr::Unary(*op, Box::new(remap_val(a, m))),
        ValExpr::Bin(op, a, b) => {
            ValExpr::Bin(*op, Box::new(remap_val(a, m)), Box::new(remap_val(b, m)))
        }
        // A fresh slot per `Sum`, even when one `Var` binds several:
        // the binder is the reduction's identity within its wave.
        ValExpr::Sum { var, extent, body } => {
            let fresh = m.fresh();
            let extent = remap_idx(extent, m);
            let outer = m.map.insert(var.id(), fresh);
            let body = Box::new(remap_val(body, m));
            match outer {
                Some(s) => m.map.insert(var.id(), s),
                None => m.map.remove(&var.id()),
            };
            ValExpr::Sum {
                var: Var::from_raw(fresh),
                extent,
                body,
            }
        }
        ValExpr::Select {
            cond,
            then,
            otherwise,
        } => ValExpr::Select {
            cond: remap_bool(cond, m),
            then: Box::new(remap_val(then, m)),
            otherwise: Box::new(remap_val(otherwise, m)),
        },
    }
}

// ---------------------------------------------------------------------
// Flattening
// ---------------------------------------------------------------------

/// The analysis results keyed by statement address in the compiled
/// kernels. The lowering resolves them into op operands once; the
/// `interp: true` oracle looks them up at each `For` of its solo walk
/// over the kernel trees. The addresses are keys only: nothing
/// dereferences them.
#[derive(Default)]
pub(crate) struct StmtPlans {
    /// Planned `For` → its id in [`Program::waves`].
    pub(crate) waves: HashMap<usize, usize>,
    /// Row programs of feature loops, compiled **once per engine** from
    /// its own kernels and keyed by `(kernel index, For address)`: there
    /// is no runtime insertion, so a key can never outlive or alias the
    /// statement it was built from.
    pub(crate) bulk: HashMap<(usize, usize), Arc<RowProgram>>,
    /// Fused whole-wave epilogues: parallel `d_batch` loops whose whole
    /// body bulk-serves, keyed like `bulk`.
    pub(crate) fused: HashMap<(usize, usize), Arc<FusedWave>>,
}

/// Lowers every compiled kernel into one flat [`Program`], resolving the
/// engine's wave/bulk/fused plans into op operands. `waves` are the wave
/// plans by id, as `plans.waves` names them.
pub(crate) fn lower(
    compiled: &[CompiledKernel],
    waves: Vec<WavePlan>,
    plans: &StmtPlans,
) -> Program {
    let mut lw = Lowerer {
        ops: Vec::new(),
        loops: Vec::new(),
        stores: Vec::new(),
        fused: Vec::new(),
        bulks: Vec::new(),
        plans,
        cur_kernel: 0,
    };
    let mut kernels = Vec::with_capacity(compiled.len());
    for (ki, kernel) in compiled.iter().enumerate() {
        lw.cur_kernel = ki;
        let entry = lw.ops.len();
        for s in &kernel.body {
            lw.lower_stmt(s);
        }
        lw.ops.push(Op::KernelEnd);
        kernels.push(KernelDef {
            entry,
            launch: kernel.launch,
            batch_slot: kernel.batch_slot,
            num_slots: kernel.num_slots,
        });
    }
    Program {
        ops: lw.ops,
        loops: lw.loops,
        stores: lw.stores,
        waves,
        fused: lw.fused,
        bulks: lw.bulks,
        kernels,
    }
}

struct Lowerer<'e> {
    ops: Vec<Op>,
    loops: Vec<LoopDef>,
    stores: Vec<StoreOp>,
    fused: Vec<Arc<FusedWave>>,
    bulks: Vec<Arc<RowProgram>>,
    plans: &'e StmtPlans,
    cur_kernel: usize,
}

impl<'e> Lowerer<'e> {
    fn lower_stmt(&mut self, s: &Stmt) {
        match s {
            Stmt::For {
                var,
                extent,
                dim,
                body,
                ..
            } => {
                let addr = s as *const Stmt as usize;
                let key = (self.cur_kernel, addr);
                // A bulk-servable feature loop gets its fast path op in
                // front of the per-element loop; the runtime falls
                // through when the plan's reductions are not memo-active
                // (scalar path, per-site fallback).
                let bulk_at: Option<Pc> = self.plans.bulk.get(&key).map(|plan| {
                    self.bulks.push(plan.clone());
                    let at = self.ops.len();
                    self.ops.push(Op::BulkPass {
                        id: self.bulks.len() - 1,
                        done: 0, // patched below
                    });
                    at
                });

                let is_wave = matches!(dim, Some(d) if d.0 == "d_all_batches");
                let is_node = matches!(dim, Some(d) if d.0 == "d_batch");
                let wave = self.plans.waves.get(&addr).copied();
                let fused = self.plans.fused.get(&key).map(|fw| {
                    self.fused.push(fw.clone());
                    self.fused.len() - 1
                });

                let loop_id = self.loops.len();
                self.loops.push(LoopDef {
                    slot: var.id() as usize,
                    extent: extent.clone(),
                    is_wave,
                    is_node,
                    wave,
                    fused,
                    body: 0,     // patched below
                    fused_pc: 0, // patched below
                    exit: 0,     // patched below
                });
                self.ops.push(Op::LoopEnter(loop_id));
                let body_pc = self.ops.len();
                for st in body {
                    self.lower_stmt(st);
                }
                self.ops.push(Op::LoopNext(loop_id));
                let fused_pc = self.ops.len();
                if fused.is_some() {
                    self.ops.push(Op::FusedEpilogue);
                }
                let exit = self.ops.len();
                let d = &mut self.loops[loop_id];
                d.body = body_pc;
                d.fused_pc = fused_pc;
                d.exit = exit;
                if let Some(at) = bulk_at {
                    let Op::BulkPass { done, .. } = &mut self.ops[at] else {
                        unreachable!("bulk op emitted above")
                    };
                    *done = exit;
                }
            }
            Stmt::Let { var, value, body } => {
                self.ops.push(Op::Let {
                    slot: var.id() as usize,
                    value: value.clone(),
                });
                for st in body {
                    self.lower_stmt(st);
                }
            }
            Stmt::Store {
                tensor,
                index,
                value,
            } => {
                self.ops.push(Op::Store(self.stores.len()));
                self.stores.push(StoreOp {
                    tensor: *tensor,
                    index: index.clone(),
                    value: value.clone(),
                });
            }
            Stmt::If {
                cond,
                then_branch,
                else_branch,
            } => {
                let branch_at = self.ops.len();
                self.ops.push(Op::Branch {
                    cond: cond.clone(),
                    on_false: 0, // patched below
                });
                for st in then_branch {
                    self.lower_stmt(st);
                }
                if else_branch.is_empty() {
                    let after = self.ops.len();
                    self.patch_branch(branch_at, after);
                } else {
                    let jump_at = self.ops.len();
                    self.ops.push(Op::Jump(0)); // patched below
                    let else_pc = self.ops.len();
                    self.patch_branch(branch_at, else_pc);
                    for st in else_branch {
                        self.lower_stmt(st);
                    }
                    let after = self.ops.len();
                    let Op::Jump(t) = &mut self.ops[jump_at] else {
                        unreachable!("jump emitted above")
                    };
                    *t = after;
                }
            }
            Stmt::Barrier => self.ops.push(Op::Barrier),
        }
    }

    fn patch_branch(&mut self, at: Pc, target: Pc) {
        let Op::Branch { on_false, .. } = &mut self.ops[at] else {
            unreachable!("branch emitted above")
        };
        *on_false = target;
    }
}
