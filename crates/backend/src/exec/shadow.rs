//! The dynamic shadow-access checker (`checked` feature only).
//!
//! Soundness instrumentation for the static analyses: while a wave's
//! GEMM results are active, every tensor cell the gather phase packed
//! into an operand row is recorded, and any interpreted store that
//! lands on a recorded cell panics — it would mean the wave batcher
//! read a value that per-node interpretation would have produced
//! *during* the wave, exactly the intra-wave dependence `plan_wave`
//! statically rules out. Likewise each fused row pass records which
//! wave row wrote each cell and asserts that no other row writes or
//! reads it — the runtime twin of the row-disjointness check that gates
//! fusion ([`FusedWave::rows_disjoint`](super::bulk::FusedWave::rows_disjoint)).
//!
//! The hooks live behind `--features checked` and are exercised by the
//! cross-model suites (every model × every schedule, both runtimes);
//! they are absent from release builds. Each hook bumps
//! `ExecStats::shadow_checks` so tests can assert the instrumentation
//! actually ran.

use std::collections::{HashMap, HashSet};

use cortex_core::expr::TensorId;

use super::interp::Interp;

/// Per-run shadow state, kept in the run state for its allocations and
/// reset at every run's start ([`ShadowState::reset`]).
#[derive(Default)]
pub(crate) struct ShadowState {
    /// Nesting depth of active waves (gathered rows outstanding).
    wave_depth: usize,
    /// `(tensor, cell)` pairs the active waves' gathers read.
    gathered: HashSet<(usize, usize)>,
    /// The wave row the current fused pass is serving.
    fused_row: Option<i64>,
    /// `(tensor, cell) → owning row` for the current fused wave.
    fused_writes: HashMap<(u32, usize), i64>,
}

impl ShadowState {
    /// Forgets everything a previous run recorded, keeping the
    /// allocations: a reused state audits like a fresh one.
    pub(crate) fn reset(&mut self) {
        self.wave_depth = 0;
        self.gathered.clear();
        self.fused_row = None;
        self.fused_writes.clear();
    }
}

impl<'a> Interp<'a> {
    /// A wave's gathered rows just became live.
    pub(crate) fn shadow_enter_wave(&mut self) {
        self.caches.stats.shadow_checks += 1;
        self.shadow.wave_depth += 1;
    }

    /// A wave retired; at depth zero its recorded cells are released.
    pub(crate) fn shadow_exit_wave(&mut self) {
        self.caches.stats.shadow_checks += 1;
        self.shadow.wave_depth = self.shadow.wave_depth.saturating_sub(1);
        if self.shadow.wave_depth == 0 {
            self.shadow.gathered.clear();
        }
    }

    /// Records the cells one packed operand row read.
    pub(crate) fn shadow_record_row(&mut self, streams: &[(usize, usize, usize)], k_len: usize) {
        self.caches.stats.shadow_checks += 1;
        for &(t, b, s) in streams {
            if s == 0 {
                self.shadow.gathered.insert((t, b));
            } else {
                for kk in 0..k_len {
                    self.shadow.gathered.insert((t, b + kk * s));
                }
            }
        }
    }

    /// An interpreted store: must not touch a gathered cell.
    pub(crate) fn shadow_check_store(&mut self, tensor: TensorId, off: usize) {
        self.caches.stats.shadow_checks += 1;
        if self.shadow.wave_depth > 0 {
            assert!(
                !self.shadow.gathered.contains(&(tensor.0 as usize, off)),
                "shadow violation: store to {tensor}[{off}] while the wave's \
                 gather holds that cell (intra-wave dependence)"
            );
        }
    }

    /// A bulk store pass: no gathered cell, and within a fused wave the
    /// serving row claims exclusive ownership of each written cell.
    pub(crate) fn shadow_check_bulk_store(
        &mut self,
        tensor: TensorId,
        base: usize,
        stride: usize,
        h: usize,
    ) {
        self.caches.stats.shadow_checks += 1;
        let cells = if stride == 0 { h.min(1) } else { h };
        for kk in 0..cells {
            let off = base + kk * stride;
            if self.shadow.wave_depth > 0 {
                assert!(
                    !self.shadow.gathered.contains(&(tensor.0 as usize, off)),
                    "shadow violation: bulk store to {tensor}[{off}] while the \
                     wave's gather holds that cell (intra-wave dependence)"
                );
            }
            if let Some(row) = self.shadow.fused_row {
                let owner = *self
                    .shadow
                    .fused_writes
                    .entry((tensor.0, off))
                    .or_insert(row);
                assert!(
                    owner == row,
                    "shadow violation: fused rows {owner} and {row} both wrote \
                     {tensor}[{off}] (fused rows not disjoint)"
                );
            }
        }
    }

    /// A bulk load pass within a fused wave: every cell read must be
    /// unwritten by this fused wave or owned by the serving row itself.
    pub(crate) fn shadow_check_bulk_load(
        &mut self,
        tensor: TensorId,
        base: usize,
        stride: usize,
        h: usize,
    ) {
        self.caches.stats.shadow_checks += 1;
        let Some(row) = self.shadow.fused_row else {
            return;
        };
        let cells = if stride == 0 { h.min(1) } else { h };
        for kk in 0..cells {
            let off = base + kk * stride;
            if let Some(&owner) = self.shadow.fused_writes.get(&(tensor.0, off)) {
                assert!(
                    owner == row,
                    "shadow violation: fused row {row} read {tensor}[{off}] \
                     written by row {owner} (fused rows not disjoint)"
                );
            }
        }
    }

    /// The fused wave starts serving row `r`.
    pub(crate) fn shadow_begin_fused_row(&mut self, r: i64) {
        self.caches.stats.shadow_checks += 1;
        self.shadow.fused_row = Some(r);
    }

    /// The fused wave retired; ownership records are released.
    pub(crate) fn shadow_end_fused(&mut self) {
        self.caches.stats.shadow_checks += 1;
        self.shadow.fused_row = None;
        self.shadow.fused_writes.clear();
    }
}
