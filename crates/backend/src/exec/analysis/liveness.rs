//! Slot liveness and its consumers: dead-`Let` elimination and slot
//! coalescing, run over the compiled kernels at engine build.
//!
//! [`optimize_kernels`] lowers the kernels once *without* any plans
//! (the plan-free op stream has the same control flow and the same
//! expressions as the final program — wave/bulk/fused ops only replace
//! loop bodies wholesale), solves backward slot liveness over the op
//! CFG, and then:
//!
//! 1. **Dead-`Let` elimination** — a `Let` whose slot is dead at its
//!    own out-point computes a value nothing reads; it is removed and
//!    its body spliced inline. Re-solved to a fixpoint so chains of
//!    dead bindings collapse. `Let`s whose value evaluation bumps a
//!    `Profile` counter (a `num_children` load — the only counting
//!    uninterpreted function) are kept, so profiles stay bit-identical
//!    with the optimization on or off.
//! 2. **Slot coalescing** — slots that are never simultaneously live
//!    share one register: interference is built at definition points
//!    (standard for programs with definite assignment, which the
//!    ILIR's scoped binders guarantee and `verify`'s `UseBeforeDef`
//!    check enforces), plus three structural rules — the external
//!    batch-slot binding interferes with everything live at kernel
//!    entry; `Sum` binders interfere with everything their op reads or
//!    keeps live (they clobber mid-evaluation); and all slots
//!    appearing syntactically inside one parallel `d_batch` body are
//!    pairwise kept distinct. The last rule is what keeps renaming
//!    sound for the wave analyses: renaming is a uniform function, so
//!    equal expressions stay equal, but a *non-injective* merge could
//!    manufacture false structural equality between expressions the
//!    wave/fused/stacking analyses compare across loop iterations —
//!    and every such cross-time comparison is confined to `d_batch`
//!    bodies.
//!
//! The rewrite builds the new kernels from the preliminary program's
//! own expressions, recolored in place: the lowering emits one loop per
//! `For`, one op per `Let` and `If` and one store per `Store`, in
//! statement pre-order, so a pre-order walk of the kernels meets them
//! in the order they were emitted — a `Let` is dead by its op.
//!
//! A forward definite-assignment solve (the must-analysis twin of
//! liveness) re-checks the rewritten kernels under debug assertions:
//! every read must be dominated by a write on all paths, which would
//! catch a miscolored rewrite long before the weaker textual
//! `UseBeforeDef` scan does.

use std::collections::HashMap;

use cortex_core::expr::{BoolExpr, IdxExpr, ValExpr, Var};
use cortex_core::ilir::{LoopKind, Stmt};

use super::super::lowering::{self, CompiledKernel, StmtPlans};
use super::super::program::{Op, Program, StoreOp};
use super::cfg::OpCfg;
use super::dataflow::{self, BitSet, Direction, GenKill, Meet};
use super::effects::{self, OpEffects};

/// What [`optimize_kernels`] did, surfaced through
/// [`PlanStats`](super::super::PlanStats) and `Engine::stats()`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct OptStats {
    /// Dead `Let` bindings eliminated.
    pub(crate) dead_lets: usize,
    /// Register slots saved by coalescing (live slots minus colors).
    pub(crate) slots_coalesced: usize,
}

/// Rewrites `kernels` with dead `Let`s removed and slots coalesced.
///
/// Outputs and `Profile`s are bit-identical to the unoptimized
/// kernels by construction: removed evaluations are counter-free, the
/// store/branch/launch structure is untouched, and renaming slots
/// changes only register numbering (property-tested against the
/// interp oracle over every model).
pub(crate) fn optimize_kernels(kernels: Vec<CompiledKernel>) -> (Vec<CompiledKernel>, OptStats) {
    if kernels.is_empty() {
        return (kernels, OptStats::default());
    }
    // Plan-free preliminary lowering: same CFG and expressions as the
    // final program, analyzable before any wave/bulk/fused decisions.
    let plan = lowering::lower(&kernels, Vec::new(), &StmtPlans::default());
    let cfg = OpCfg::build(&plan);
    let eff = effects::op_effects(&plan);
    let nslots = plan.kernels.iter().map(|k| k.num_slots).max().unwrap_or(0);

    // --- Liveness + dead-`Let` elimination, to a fixpoint ---
    // `dead[pc]`: the op at `pc` is a `Let` found dead.
    let mut dead = vec![false; plan.ops.len()];
    let live = loop {
        let transfers = liveness_transfers(&eff, &dead, nslots);
        let sol = dataflow::solve(
            &cfg,
            Direction::Backward,
            Meet::Union,
            &transfers,
            nslots,
            &HashMap::new(),
        );
        let mut changed = false;
        for (pc, op) in plan.ops.iter().enumerate() {
            if let Op::Let { slot, value } = op {
                if dead[pc] || sol.outs[pc].contains(*slot) {
                    continue;
                }
                if crate::wave::idx_has_counting_ufn(value) {
                    continue;
                }
                dead[pc] = true;
                changed = true;
            }
        }
        if !changed {
            break sol;
        }
    };

    // --- Per-kernel interference, coloring, and rewrite ---
    let mut stats = OptStats {
        dead_lets: dead.iter().filter(|&&d| d).count(),
        slots_coalesced: 0,
    };
    let mut out = Vec::with_capacity(kernels.len());
    let mut exprs = Exprs::take(plan, &dead);
    for (ki, &(lo, hi)) in cfg.kernel_ranges.iter().enumerate() {
        let kernel = &kernels[ki];
        let s_count = kernel.num_slots;
        let mut used = vec![false; s_count];
        let mut adj: Vec<BitSet> = vec![BitSet::new(s_count); s_count];
        let add_edge = |adj: &mut Vec<BitSet>, a: usize, b: usize| {
            if a != b {
                adj[a].insert(b);
                adj[b].insert(a);
            }
        };
        for (pc, e) in eff.iter().enumerate().take(hi).skip(lo) {
            if dead[pc] {
                continue;
            }
            debug_assert!(!e.clobbers_all, "plan-free lowering emitted a plan op");
            for &s in e.reads.iter().chain(&e.writes).chain(&e.binders) {
                used[s as usize] = true;
            }
            // Definition-point rule: a write interferes with everything
            // live just after it.
            for &w in &e.writes {
                for s in live.outs[pc].iter() {
                    add_edge(&mut adj, w as usize, s);
                }
            }
            // `Sum` binders clobber mid-evaluation: keep them apart
            // from the op's reads, everything live across the op, and
            // each other (nested reductions).
            for (bi, &b) in e.binders.iter().enumerate() {
                for &r in &e.reads {
                    add_edge(&mut adj, b as usize, r as usize);
                }
                for s in live.outs[pc].iter() {
                    add_edge(&mut adj, b as usize, s);
                }
                for &b2 in &e.binders[bi + 1..] {
                    add_edge(&mut adj, b as usize, b2 as usize);
                }
            }
        }
        // The batch slot is bound by the runtime before kernel entry.
        if let Some(bs) = kernel.batch_slot {
            used[bs] = true;
            for s in live.ins[lo].iter() {
                add_edge(&mut adj, bs, s);
            }
        }
        // Parallel `d_batch` bodies: keep every syntactic slot distinct
        // (see module docs — cross-iteration structural comparisons).
        let mut cliques = Vec::new();
        collect_batch_body_cliques(&kernel.body, &mut cliques);
        for set in &cliques {
            for (i, &a) in set.iter().enumerate() {
                for &b in &set[i + 1..] {
                    add_edge(&mut adj, a as usize, b as usize);
                }
            }
        }

        // Greedy coloring in slot order.
        let mut colors = vec![u32::MAX; s_count];
        let mut colors_used = 0u32;
        for s in 0..s_count {
            if !used[s] {
                continue;
            }
            let mut c = 0u32;
            loop {
                let clash = adj[s].iter().any(|n| used[n] && colors[n] == c);
                if !clash {
                    break;
                }
                c += 1;
            }
            colors[s] = c;
            colors_used = colors_used.max(c + 1);
        }
        let live_slots = used.iter().filter(|&&u| u).count();
        stats.slots_coalesced += live_slots - colors_used as usize;

        let body = kernel
            .body
            .iter()
            .flat_map(|s| rewrite_stmt(s, &mut exprs, &colors))
            .collect();
        out.push(CompiledKernel {
            launch: kernel.launch,
            batch_slot: kernel.batch_slot.map(|s| colors[s] as usize),
            body,
            num_slots: colors_used as usize,
        });
    }

    if cfg!(debug_assertions) {
        let plan = lowering::lower(&out, Vec::new(), &StmtPlans::default());
        assert!(
            definitely_assigned(&plan),
            "slot optimization broke definite assignment"
        );
    }
    (out, stats)
}

/// Backward-liveness transfers: `gen` = slots read, `kill` = slots
/// written; dead `Let`s contribute nothing (they will be removed).
fn liveness_transfers(eff: &[OpEffects], dead: &[bool], nslots: usize) -> Vec<GenKill> {
    eff.iter()
        .zip(dead)
        .map(|(e, &dead)| {
            let mut t = GenKill::empty(nslots);
            if dead {
                return t;
            }
            if e.clobbers_all {
                t.gen = BitSet::full(nslots);
                return t;
            }
            for &r in &e.reads {
                t.gen.insert(r as usize);
            }
            for &w in &e.writes {
                t.kill.insert(w as usize);
            }
            t
        })
        .collect()
}

/// Forward definite-assignment (must) analysis: every slot an op reads
/// is written on *all* paths reaching it. The rewrite cross-check.
pub(crate) fn definitely_assigned(plan: &Program) -> bool {
    let cfg = OpCfg::build(plan);
    let eff = effects::op_effects(plan);
    let nslots = plan.kernels.iter().map(|k| k.num_slots).max().unwrap_or(0);
    let transfers: Vec<GenKill> = eff
        .iter()
        .map(|e| {
            let mut t = GenKill::empty(nslots);
            for &w in &e.writes {
                t.gen.insert(w as usize);
            }
            t
        })
        .collect();
    let mut boundary = HashMap::new();
    for (ki, &(lo, _)) in cfg.kernel_ranges.iter().enumerate() {
        let mut b = BitSet::new(nslots);
        if let Some(bs) = plan.kernels[ki].batch_slot {
            b.insert(bs);
        }
        boundary.insert(lo, b);
    }
    let sol = dataflow::solve(
        &cfg,
        Direction::Forward,
        Meet::Intersect,
        &transfers,
        nslots,
        &boundary,
    );
    eff.iter()
        .enumerate()
        .all(|(pc, e)| e.clobbers_all || e.reads.iter().all(|&r| sol.ins[pc].contains(r as usize)))
}

// ---------------------------------------------------------------------
// Rewrite
// ---------------------------------------------------------------------

/// The expressions of the preliminary program, handed back to the
/// rewrite in the statement pre-order the lowering emitted them in.
struct Exprs {
    extents: std::vec::IntoIter<IdxExpr>,
    /// `None`: a dead `Let`.
    lets: std::vec::IntoIter<Option<IdxExpr>>,
    stores: std::vec::IntoIter<StoreOp>,
    conds: std::vec::IntoIter<BoolExpr>,
}

impl Exprs {
    fn take(plan: Program, dead: &[bool]) -> Exprs {
        let (mut lets, mut conds) = (Vec::new(), Vec::new());
        for (op, &dead) in plan.ops.into_iter().zip(dead) {
            match op {
                Op::Let { value, .. } => lets.push((!dead).then_some(value)),
                Op::Branch { cond, .. } => conds.push(cond),
                _ => {}
            }
        }
        let extents: Vec<IdxExpr> = plan.loops.into_iter().map(|l| l.extent).collect();
        Exprs {
            extents: extents.into_iter(),
            lets: lets.into_iter(),
            stores: plan.stores.into_iter(),
            conds: conds.into_iter(),
        }
    }
}

/// Rewrites one statement from its expressions in `exprs`: dead `Let`s
/// splice their body inline, every surviving variable is renamed to its
/// color.
fn rewrite_stmt(s: &Stmt, exprs: &mut Exprs, colors: &[u32]) -> Vec<Stmt> {
    let rewrite = |body: &[Stmt], exprs: &mut Exprs| -> Vec<Stmt> {
        body.iter()
            .flat_map(|st| rewrite_stmt(st, exprs, colors))
            .collect()
    };
    const EMITTED: &str = "the lowering emits one per statement";
    match s {
        Stmt::For {
            var,
            kind,
            dim,
            body,
            ..
        } => {
            let mut extent = exprs.extents.next().expect(EMITTED);
            recolor_idx(&mut extent, colors);
            vec![Stmt::For {
                var: recolor(*var, colors),
                extent,
                kind: *kind,
                dim: dim.clone(),
                body: rewrite(body, exprs),
            }]
        }
        Stmt::Let { var, body, .. } => {
            let value = exprs.lets.next().expect(EMITTED);
            let inner = rewrite(body, exprs);
            match value {
                None => inner,
                Some(mut value) => {
                    recolor_idx(&mut value, colors);
                    vec![Stmt::Let {
                        var: recolor(*var, colors),
                        value,
                        body: inner,
                    }]
                }
            }
        }
        Stmt::Store { .. } => {
            let StoreOp {
                tensor,
                mut index,
                mut value,
            } = exprs.stores.next().expect(EMITTED);
            index.iter_mut().for_each(|e| recolor_idx(e, colors));
            recolor_val(&mut value, colors);
            vec![Stmt::Store {
                tensor,
                index,
                value,
            }]
        }
        Stmt::If {
            then_branch,
            else_branch,
            ..
        } => {
            let mut cond = exprs.conds.next().expect(EMITTED);
            recolor_bool(&mut cond, colors);
            vec![Stmt::If {
                cond,
                then_branch: rewrite(then_branch, exprs),
                else_branch: rewrite(else_branch, exprs),
            }]
        }
        Stmt::Barrier => vec![Stmt::Barrier],
    }
}

fn recolor(v: Var, colors: &[u32]) -> Var {
    let c = colors[v.id() as usize];
    debug_assert_ne!(c, u32::MAX, "uncolored slot survived the rewrite");
    Var::from_raw(c)
}

fn recolor_idx(e: &mut IdxExpr, colors: &[u32]) {
    match e {
        IdxExpr::Const(_) | IdxExpr::Rt(_) => {}
        IdxExpr::Var(v) => *v = recolor(*v, colors),
        IdxExpr::Ufn(_, args) => args.iter_mut().for_each(|a| recolor_idx(a, colors)),
        IdxExpr::Bin(_, a, b) => {
            recolor_idx(a, colors);
            recolor_idx(b, colors);
        }
    }
}

fn recolor_bool(e: &mut BoolExpr, colors: &[u32]) {
    match e {
        BoolExpr::Cmp(_, a, b) => {
            recolor_idx(a, colors);
            recolor_idx(b, colors);
        }
        BoolExpr::IsLeaf(a) => recolor_idx(a, colors),
        BoolExpr::And(a, b) | BoolExpr::Or(a, b) => {
            recolor_bool(a, colors);
            recolor_bool(b, colors);
        }
        BoolExpr::Not(a) => recolor_bool(a, colors),
    }
}

fn recolor_val(e: &mut ValExpr, colors: &[u32]) {
    match e {
        ValExpr::Const(_) => {}
        ValExpr::Load { index, .. } => index.iter_mut().for_each(|i| recolor_idx(i, colors)),
        ValExpr::Unary(_, a) => recolor_val(a, colors),
        ValExpr::Bin(_, a, b) => {
            recolor_val(a, colors);
            recolor_val(b, colors);
        }
        ValExpr::Sum { var, extent, body } => {
            *var = recolor(*var, colors);
            recolor_idx(extent, colors);
            recolor_val(body, colors);
        }
        ValExpr::Select {
            cond,
            then,
            otherwise,
        } => {
            recolor_bool(cond, colors);
            recolor_val(then, colors);
            recolor_val(otherwise, colors);
        }
    }
}

// ---------------------------------------------------------------------
// Parallel d_batch cliques
// ---------------------------------------------------------------------

/// Collects, per parallel `d_batch` loop, every slot appearing
/// syntactically within it (the loop variable, nested binders, every
/// expression variable) — the sets the coalescer keeps pairwise
/// distinct.
fn collect_batch_body_cliques(stmts: &[Stmt], cliques: &mut Vec<Vec<u32>>) {
    for s in stmts {
        match s {
            Stmt::For {
                var,
                kind: LoopKind::Parallel,
                dim: Some(d),
                body,
                ..
            } if d.0 == "d_batch" => {
                let mut set = vec![var.id()];
                for st in body {
                    collect_stmt_slots(st, &mut set);
                }
                cliques.push(set);
            }
            Stmt::For { body, .. } | Stmt::Let { body, .. } => {
                collect_batch_body_cliques(body, cliques);
            }
            Stmt::If {
                then_branch,
                else_branch,
                ..
            } => {
                collect_batch_body_cliques(then_branch, cliques);
                collect_batch_body_cliques(else_branch, cliques);
            }
            Stmt::Store { .. } | Stmt::Barrier => {}
        }
    }
}

/// Every slot mentioned by `s`, binders included.
fn collect_stmt_slots(s: &Stmt, out: &mut Vec<u32>) {
    let push = |v: u32, out: &mut Vec<u32>| {
        if !out.contains(&v) {
            out.push(v);
        }
    };
    match s {
        Stmt::For { var, extent: e, .. } | Stmt::Let { var, value: e, .. } => {
            push(var.id(), out);
            effects::idx_slots(e, &mut Vec::new(), out);
        }
        Stmt::Store { index, value, .. } => {
            for dim in index {
                effects::idx_slots(dim, &mut Vec::new(), out);
            }
            let mut binders = Vec::new();
            effects::val_slots(value, &mut Vec::new(), &mut binders, out);
            for b in binders {
                push(b, out);
            }
        }
        Stmt::If { cond, .. } => effects::bool_slots(cond, &mut Vec::new(), out),
        Stmt::Barrier => {}
    }
    s.children().for_each(|st| collect_stmt_slots(st, out));
}
