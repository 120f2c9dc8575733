//! Fig. 12 — peak memory consumption across frameworks (batch 10, hs).

use cortex_backend::device::DeviceSpec;
use cortex_core::ra::RaSchedule;

use crate::registry::MAIN_MODELS;
use crate::runner::{baseline, cortex, Baseline};
use crate::table::Table;
use crate::Scale;

fn kb(bytes: u64) -> String {
    format!("{}", bytes / 1024)
}

/// Regenerates Fig. 12.
pub fn run(scale: Scale) -> String {
    let gpu = DeviceSpec::v100();
    let mut t = Table::new(
        "Fig. 12: peak memory (KB), batch 10, hidden hs",
        &[
            "model",
            "PyTorch",
            "DyNet",
            "DyNet (inference)",
            "Cavs",
            "Cortex",
        ],
    );
    for id in MAIN_MODELS {
        let model = id.build(id.hs(scale));
        let data = id.dataset(10, super::SEED);
        let torch = baseline(Baseline::PyTorch, &model, &data, &gpu);
        let dynet = baseline(Baseline::DyNet, &model, &data, &gpu);
        let dynet_inf = baseline(Baseline::DyNetInference, &model, &data, &gpu);
        let cavs = baseline(Baseline::Cavs, &model, &data, &gpu);
        let ours = cortex(&model, &data, &RaSchedule::default(), &gpu);
        t.row_owned(vec![
            id.name().to_string(),
            kb(torch.profile.allocated_bytes),
            kb(dynet.profile.allocated_bytes),
            kb(dynet_inf.profile.allocated_bytes),
            kb(cavs.profile.allocated_bytes),
            kb(ours.profile.allocated_bytes),
        ]);
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::SEED;
    use crate::registry::ModelId;

    /// Peak bytes per framework for one model.
    fn peaks(id: ModelId, scale: Scale) -> [u64; 5] {
        let gpu = DeviceSpec::v100();
        let model = id.build(id.hs(scale));
        let data = id.dataset(10, SEED);
        [
            baseline(Baseline::PyTorch, &model, &data, &gpu)
                .profile
                .allocated_bytes,
            baseline(Baseline::DyNet, &model, &data, &gpu)
                .profile
                .allocated_bytes,
            baseline(Baseline::DyNetInference, &model, &data, &gpu)
                .profile
                .allocated_bytes,
            baseline(Baseline::Cavs, &model, &data, &gpu)
                .profile
                .allocated_bytes,
            cortex(&model, &data, &RaSchedule::default(), &gpu)
                .profile
                .allocated_bytes,
        ]
    }

    #[test]
    fn memory_ordering_matches_paper() {
        // Fig. 12: PyTorch lowest; DyNet/Cavs highest (keep intermediates
        // for training); DyNet-inference in between but still above
        // Cortex, which materializes fewer intermediates due to fusion.
        let [torch, dynet, dynet_inf, cavs, ours] = peaks(ModelId::TreeGru, Scale::Smoke);
        assert!(torch < ours, "PyTorch frees everything: {torch} vs {ours}");
        assert!(
            dynet > dynet_inf,
            "training mode keeps more: {dynet} vs {dynet_inf}"
        );
        assert!(
            dynet_inf > ours,
            "even inference DyNet materializes more: {dynet_inf} vs {ours}"
        );
        assert!(cavs > ours);
    }

    #[test]
    fn renders_all_models() {
        let out = run(Scale::Smoke);
        assert!(out.contains("MV-RNN"));
        assert_eq!(out.lines().count(), 3 + 5);
    }
}
