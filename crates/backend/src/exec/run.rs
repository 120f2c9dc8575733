//! The pc-based plan runtime: executes a lowered [`Program`].
//!
//! One flat dispatch loop over [`Op`]s replaces the recursive statement
//! walk: control flow is jump targets, loop state is a record stack plus
//! the interpreter's slot registers, and every plan decision was already
//! resolved into op operands by the lowering. Suspension (the
//! `execute_many` super-wave park) is therefore just "remember the pc":
//! a parked request is its [`PcCursor`] — program counter, launch-unit
//! index, loop records — and resuming re-enters the dispatch loop at
//! that pc with no re-evaluation of any control expression, so the
//! `Profile` is exactly that of an uninterrupted run.

use cortex_core::ilir::LaunchPattern;

use super::interp::Interp;
use super::program::{Op, Pc, Program};
use super::stopwatch::Stopwatch;
use super::{checked_assert, FaultHook, StepOutcome};
use crate::wave::SuperWaveAcc;

/// The resumable execution state of one request under the pc runtime: a
/// program counter plus its loop records. Slot values (loop variables,
/// `let` bindings) live in the interpreter's register file and are never
/// unwound, so this is the *entire* suspension state. It carries no
/// step budget: [`super::verify`] admits only forward, nest-preserving
/// jumps, so every run of a verified plan is bounded by its loops'
/// extents. A run state keeps one between runs for its allocations
/// ([`Interp::start_cursor`]).
#[derive(Default)]
pub(crate) struct PcCursor {
    pub(crate) units: Vec<(usize, Option<i64>)>,
    pub(crate) unit: usize,
    pub(crate) in_launch: bool,
    pub(crate) pc: Pc,
    pub(crate) recs: Vec<LoopRec>,
    pub(crate) done: bool,
}

impl PcCursor {
    /// Rewinds to the first launch unit.
    pub(crate) fn restart(&mut self) {
        self.unit = 0;
        self.in_launch = false;
        self.pc = 0;
        self.recs.clear();
        self.done = false;
    }
}

/// One live loop: the dynamic half of a [`super::program::LoopDef`].
pub(crate) enum LoopRec {
    /// A per-element loop mid-flight at iteration `i` of `n` (the loop
    /// id lives in the `LoopEnter`/`LoopNext` ops bracketing the body).
    Iter {
        i: i64,
        n: i64,
        /// Wave `(sites, groups)` to retire when the loop closes.
        activated: (usize, usize),
        /// Set when this is a wave-served loop running its per-element
        /// serve phase in a solo run: the wave's clock, last read when
        /// its GEMMs ended, so the lap at loop exit is the post-GEMM
        /// serve cost ([`super::ExecStats::serve_ns`]). `None` under
        /// `execute_many` — a park would count other requests' wall time
        /// into this request's phase.
        serve: Option<Stopwatch>,
    },
    /// A fusable wave waiting at its [`Op::FusedEpilogue`] (either
    /// reached directly in a solo run, or parked there until the
    /// super-wave flush installs this request's GEMM blocks).
    Fused {
        id: usize,
        n: usize,
        activated: (usize, usize),
        /// The wave's clock when it ran its GEMMs solo (the epilogue's
        /// start); `None` when parked or without GEMMs.
        clock: Option<Stopwatch>,
    },
}

impl<'a> Interp<'a> {
    /// Runs the whole launch schedule to completion through the pc
    /// runtime (the solo path — without a deferral accumulator nothing
    /// ever parks). A verified plan always gets there: its only
    /// back-edge is [`Op::LoopNext`], whose trip count was fixed at the
    /// loop's entry ([`super::verify`]).
    pub(crate) fn run_program(&mut self, hook: Option<&FaultHook>) {
        let mut cur = self.start_cursor();
        let outcome = self.step_program(&mut cur, None, hook);
        debug_assert_eq!(outcome, StepOutcome::Done, "solo runs never park");
        self.cursor = cur;
    }

    /// Advances this request until it parks at a wave loop whose GEMMs
    /// were deferred into `defer` ([`StepOutcome::Paused`]) or the
    /// launch schedule completes ([`StepOutcome::Done`]), consulting
    /// `hook` at every launch.
    pub(crate) fn step_program(
        &mut self,
        cur: &mut PcCursor,
        mut defer: Option<(&mut SuperWaveAcc, usize)>,
        hook: Option<&FaultHook>,
    ) -> StepOutcome {
        let plan = self.plan.clone();
        loop {
            if !cur.in_launch {
                let Some(&(ki, b)) = cur.units.get(cur.unit) else {
                    if !cur.done {
                        cur.done = true;
                        self.finalize_run();
                    }
                    return StepOutcome::Done;
                };
                super::maybe_inject(
                    hook,
                    super::FaultSite::Launch {
                        nodes: self.lin.num_nodes(),
                    },
                );
                let kernel = &plan.kernels[ki];
                self.cur_kernel = ki;
                self.profile.launches += 1;
                self.profile.host_api_calls += 1;
                self.push_scope(kernel.launch == LaunchPattern::PerInternalBatch);
                if let Some(bv) = kernel.batch_slot {
                    self.slots[bv] = b.expect("per-batch kernel needs a batch index");
                }
                cur.in_launch = true;
                cur.pc = kernel.entry;
            }
            checked_assert!(cur.pc < plan.ops.len(), "pc {} out of range", cur.pc);
            match &plan.ops[cur.pc] {
                Op::KernelEnd => {
                    self.pop_scope();
                    cur.in_launch = false;
                    cur.unit += 1;
                }
                Op::Let { slot, value } => {
                    checked_assert!(*slot < self.slots.len(), "Let slot {slot} out of range");
                    let v = self.eval_idx(value);
                    self.slots[*slot] = v;
                    cur.pc += 1;
                }
                Op::Store(id) => {
                    let st = &plan.stores[*id];
                    self.exec_store(st.tensor, &st.index, &st.value);
                    cur.pc += 1;
                }
                Op::Branch { cond, on_false } => {
                    self.profile.branch_checks += 1;
                    cur.pc = if self.eval_bool(cond) {
                        cur.pc + 1
                    } else {
                        *on_false
                    };
                }
                Op::Jump(target) => cur.pc = *target,
                Op::Barrier => {
                    self.profile.barriers_global += 1;
                    cur.pc += 1;
                }
                Op::BulkPass { id, done } => {
                    let bulk = &plan.bulks[*id];
                    if self.opts.bulk && self.bulk_servable(bulk) {
                        self.exec_row_program(bulk);
                        cur.pc = *done;
                    } else {
                        cur.pc += 1;
                    }
                }
                Op::LoopEnter(id) => {
                    let deferring = defer.as_mut().map(|(acc, req)| (&mut **acc, *req));
                    if self.op_loop_enter(*id, &plan, cur, deferring) {
                        return StepOutcome::Paused;
                    }
                }
                Op::LoopNext(id) => self.op_loop_next(*id, &plan, cur),
                Op::FusedEpilogue => self.op_fused_epilogue(&plan, cur),
            }
        }
    }

    /// [`Op::LoopEnter`]: the pc mirror of the AST walker's `For` entry.
    /// Returns whether the request must park for a super-wave flush.
    fn op_loop_enter(
        &mut self,
        id: usize,
        plan: &Program,
        cur: &mut PcCursor,
        defer: Option<(&mut SuperWaveAcc, usize)>,
    ) -> bool {
        let d = &plan.loops[id];
        let n = self.eval_idx(&d.extent);
        if d.is_node {
            if let Some(scope) = self.scopes.last_mut() {
                scope.width = scope.width.max(n.max(0) as u64);
            }
        }
        let (mut activated, mut clock) = ((0usize, 0usize), None);
        let mut paused = false;
        if n > 0 {
            if let Some(w) = d.wave {
                (activated, clock, paused) =
                    self.prepare_wave(&plan.waves[w], w, n as usize, defer);
            }
        }
        if n <= 0 {
            cur.pc = d.exit;
            return false;
        }
        // A fusable wave runs its whole body as one row program from the
        // FusedEpilogue op — immediately in a solo run, after the flush
        // installs results when parked.
        if let Some(f) = d.fused {
            if self.fused_servable(&plan.fused[f]) {
                cur.recs.push(LoopRec::Fused {
                    id,
                    n: n as usize,
                    activated,
                    clock,
                });
                cur.pc = d.fused_pc;
                return paused;
            }
        }
        // Per-element body: serve-phase timing only on solo wave-served
        // loops, which are the ones whose wave returned its clock (see
        // [`LoopRec::Iter::serve`]).
        cur.recs.push(LoopRec::Iter {
            i: 0,
            n,
            activated,
            serve: clock,
        });
        if d.is_wave {
            self.push_scope(true);
        }
        checked_assert!(
            d.slot < self.slots.len(),
            "loop slot {} out of range",
            d.slot
        );
        self.slots[d.slot] = 0;
        cur.pc = d.body;
        paused
    }

    /// [`Op::LoopNext`]: close one iteration; loop back or retire.
    fn op_loop_next(&mut self, id: usize, plan: &Program, cur: &mut PcCursor) {
        let d = &plan.loops[id];
        let Some(LoopRec::Iter { i, n, .. }) = cur.recs.last_mut() else {
            unreachable!("LoopNext without its loop record")
        };
        if d.is_wave {
            self.pop_scope();
        }
        *i += 1;
        if *i < *n {
            if d.is_wave {
                self.push_scope(true);
            }
            let at = *i;
            self.slots[d.slot] = at;
            cur.pc = d.body;
        } else {
            let Some(LoopRec::Iter {
                activated, serve, ..
            }) = cur.recs.pop()
            else {
                unreachable!("checked above")
            };
            if activated != (0, 0) {
                self.finish_wave(activated);
            }
            if let Some(mut clock) = serve {
                self.caches.stats.serve_ns += clock.lap();
            }
            cur.pc = d.exit;
        }
    }

    /// [`Op::FusedEpilogue`]: run the whole parked/fusable wave as its
    /// row program, retire its sites, and exit the loop.
    fn op_fused_epilogue(&mut self, plan: &Program, cur: &mut PcCursor) {
        let Some(LoopRec::Fused {
            id,
            n,
            activated,
            clock,
        }) = cur.recs.pop()
        else {
            unreachable!("FusedEpilogue without its loop record")
        };
        let d = &plan.loops[id];
        self.exec_fused_wave(&plan.fused[d.fused.expect("fused loop def")], n, clock);
        if activated != (0, 0) {
            self.finish_wave(activated);
        }
        cur.pc = d.exit;
    }
}
