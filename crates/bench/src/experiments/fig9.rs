//! Fig. 9 — Cortex vs GRNN's hand-optimized sequential LSTM/GRU kernels
//! (sequence length 100, hidden/input 256, batch sizes 1 and 10).

use cortex_backend::device::DeviceSpec;
use cortex_core::ra::RaSchedule;

use crate::registry::ModelId;
use crate::runner::{baseline, cortex, Baseline};
use crate::table::{ms, Table};
use crate::Scale;

/// Regenerates Fig. 9.
pub fn run(scale: Scale) -> String {
    let gpu = DeviceSpec::v100();
    let mut t = Table::new(
        "Fig. 9: Cortex vs hand-optimized GRNN (seq len 100, H=256)",
        &[
            "model",
            "batch",
            "GRNN (ms)",
            "GRNN lock-based (ms)",
            "Cortex (ms)",
        ],
    );
    for id in [ModelId::SeqLstm, ModelId::SeqGru] {
        let model = id.build(scale.hidden(256));
        for bs in [1usize, 10] {
            let data = id.dataset(bs, super::SEED);
            let lock_free = baseline(Baseline::GrnnLockFree, &model, &data, &gpu);
            let lock_based = baseline(Baseline::GrnnLockBased, &model, &data, &gpu);
            // §7.4: Cortex's sequential GRU uses recursive refactoring,
            // like GRNN's GRU implementation.
            let schedule = if id == ModelId::SeqGru {
                model.refactored_schedule()
            } else {
                RaSchedule::default()
            };
            let ours = cortex(&model, &data, &schedule, &gpu);
            t.row_owned(vec![
                id.name().to_string(),
                bs.to_string(),
                ms(lock_free.latency_ms),
                ms(lock_based.latency_ms),
                ms(ours.latency_ms),
            ]);
        }
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cortex_is_competitive_with_hand_optimized_code() {
        // Fig. 9's claim: Cortex-generated code performs competitively
        // with GRNN. Cortex uses the lock-based barrier, so the fair
        // anchor is the lock-based GRNN variant (the paper adds it for
        // exactly this comparison).
        let gpu = DeviceSpec::v100();
        let model = ModelId::SeqLstm.build(32);
        let data = ModelId::SeqLstm.dataset(10, super::super::SEED);
        let grnn = baseline(Baseline::GrnnLockBased, &model, &data, &gpu);
        let ours = cortex(&model, &data, &RaSchedule::default(), &gpu);
        // Compared on the modelled latency with the four measured host
        // stopwatches zeroed on both sides: counters only, so the
        // assertion has no wall-clock input.
        let modelled_ms = |m: &crate::runner::Measured| {
            let mut p = m.profile.clone();
            p.linearize_time = std::time::Duration::ZERO;
            p.graph_construction_time = std::time::Duration::ZERO;
            p.dynamic_batching_time = std::time::Duration::ZERO;
            p.mem_mgmt_time = std::time::Duration::ZERO;
            gpu.latency(&p).total_ms()
        };
        let (ours, grnn) = (modelled_ms(&ours), modelled_ms(&grnn));
        assert!(
            ours < 3.0 * grnn,
            "cortex {ours} ms should be within 3x of hand-optimized {grnn} ms"
        );
    }

    #[test]
    fn lock_based_variant_is_slower() {
        let gpu = DeviceSpec::v100();
        let model = ModelId::SeqGru.build(32);
        let data = ModelId::SeqGru.dataset(1, super::super::SEED);
        let free = baseline(Baseline::GrnnLockFree, &model, &data, &gpu);
        let locked = baseline(Baseline::GrnnLockBased, &model, &data, &gpu);
        assert!(locked.latency_ms > free.latency_ms);
    }

    #[test]
    fn renders_four_rows() {
        let out = run(Scale::Smoke);
        assert_eq!(out.lines().count(), 3 + 4, "{out}");
    }
}
