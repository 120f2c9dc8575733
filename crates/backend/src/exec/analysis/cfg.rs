//! The op-level control-flow graph of a lowered [`Program`].
//!
//! Every edge is already explicit in the op operands the lowering
//! resolves (`Jump`/`Branch` targets, `LoopDef` body/exit/fused pcs,
//! `BulkPass` done pcs); this module just materializes them as
//! successor/predecessor lists so the dataflow solver never needs to
//! know op semantics. Kernel bodies are disjoint subgraphs — no edge
//! ever crosses a [`KernelDef`](super::super::program::KernelDef)
//! boundary — which is what lets one global solve interpret each
//! kernel's private slot numbering independently.

use super::super::program::{Op, Program};

/// Successor/predecessor lists per op, plus the textual op range of
/// each kernel.
pub(crate) struct OpCfg {
    pub(crate) succs: Vec<Vec<usize>>,
    pub(crate) preds: Vec<Vec<usize>>,
    /// Per-kernel `entry..end` op ranges (the end is the pc just past
    /// the kernel's `KernelEnd`).
    pub(crate) kernel_ranges: Vec<(usize, usize)>,
}

impl OpCfg {
    /// Materializes the edges of `plan`.
    ///
    /// Loop ops get every edge the runtime can take: `LoopEnter` falls
    /// into the body, exits directly on a zero trip count, and jumps to
    /// the fused epilogue when one is attached; `LoopNext` either takes
    /// the back edge or retires to the exit; `BulkPass` serves and
    /// jumps `done` or falls through into the per-element loop.
    pub(crate) fn build(plan: &Program) -> OpCfg {
        let n = plan.ops.len();
        let mut succs: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (pc, op) in plan.ops.iter().enumerate() {
            match op {
                Op::Jump(t) => succs[pc].push(*t),
                Op::Branch { on_false, .. } => {
                    succs[pc].push(pc + 1);
                    if *on_false != pc + 1 {
                        succs[pc].push(*on_false);
                    }
                }
                Op::LoopEnter(id) => {
                    let l = &plan.loops[*id];
                    succs[pc].push(l.body);
                    succs[pc].push(l.exit);
                    if l.fused.is_some() {
                        succs[pc].push(l.fused_pc);
                    }
                }
                Op::LoopNext(id) => {
                    let l = &plan.loops[*id];
                    succs[pc].push(l.body);
                    succs[pc].push(l.exit);
                }
                Op::BulkPass { done, .. } => {
                    succs[pc].push(pc + 1);
                    succs[pc].push(*done);
                }
                Op::FusedEpilogue => {
                    // The epilogue op belongs to the unique loop whose
                    // `fused_pc` names it; it retires that loop.
                    if let Some(l) = plan
                        .loops
                        .iter()
                        .find(|l| l.fused.is_some() && l.fused_pc == pc)
                    {
                        succs[pc].push(l.exit);
                    }
                }
                Op::KernelEnd => {}
                Op::Let { .. } | Op::Store(_) | Op::Barrier => {
                    succs[pc].push(pc + 1);
                }
            }
        }
        let mut preds: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (pc, ss) in succs.iter().enumerate() {
            for &s in ss {
                preds[s].push(pc);
            }
        }
        let kernel_ranges = plan
            .kernels
            .iter()
            .enumerate()
            .map(|(ki, k)| {
                let end = plan.kernels.get(ki + 1).map(|next| next.entry).unwrap_or(n);
                (k.entry, end)
            })
            .collect();
        OpCfg {
            succs,
            preds,
            kernel_ranges,
        }
    }
}
