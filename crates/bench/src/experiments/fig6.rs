//! Fig. 6 — speedup over PyTorch vs batch size (GPU and Intel, hidden hs).

use cortex_backend::device::DeviceSpec;
use cortex_core::ra::RaSchedule;

use crate::registry::{ModelId, MAIN_MODELS};
use crate::runner::{baseline_multi, cortex_multi, Baseline};
use crate::table::{speedup, Table};
use crate::Scale;

/// Batch sizes sampled along the figure's x-axis.
pub(crate) const BATCH_SIZES: [usize; 4] = [1, 4, 7, 10];

/// Regenerates the Fig. 6 series.
pub fn run(scale: Scale) -> String {
    let devices = [DeviceSpec::v100(), DeviceSpec::intel_cascadelake()];
    let mut t = Table::new(
        "Fig. 6: speedup over PyTorch (hidden hs)",
        &["model", "batch", "GPU speedup", "Intel speedup"],
    );
    for id in MAIN_MODELS {
        for bs in BATCH_SIZES {
            let (gpu, intel) = measure(id, bs, scale, &devices);
            t.row_owned(vec![
                id.name().to_string(),
                bs.to_string(),
                speedup(gpu.0, gpu.1),
                speedup(intel.0, intel.1),
            ]);
        }
    }
    t.render()
}

/// Returns ((pytorch_ms, cortex_ms) on GPU, same on Intel).
pub fn measure(
    id: ModelId,
    batch_size: usize,
    scale: Scale,
    devices: &[DeviceSpec; 2],
) -> ((f64, f64), (f64, f64)) {
    let model = id.build(id.hs(scale));
    let data = id.dataset(batch_size, super::SEED);
    let cortex = cortex_multi(&model, &data, &RaSchedule::default(), devices);
    let torch = baseline_multi(Baseline::PyTorch, &model, &data, devices);
    (
        (torch[0].latency_ms, cortex[0].latency_ms),
        (torch[1].latency_ms, cortex[1].latency_ms),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speedups_grow_with_batch_size_on_gpu() {
        // The paper's key Fig. 6 shape: the PyTorch gap widens with batch
        // size (more unexploited parallelism + more kernel calls).
        let devices = [DeviceSpec::v100(), DeviceSpec::intel_cascadelake()];
        let (gpu1, _) = measure(ModelId::TreeLstm, 1, Scale::Smoke, &devices);
        let (gpu10, _) = measure(ModelId::TreeLstm, 10, Scale::Smoke, &devices);
        let s1 = gpu1.0 / gpu1.1;
        let s10 = gpu10.0 / gpu10.1;
        assert!(
            s1 > 1.0,
            "cortex must beat eager even at batch 1 ({s1:.2}x)"
        );
        assert!(
            s10 > s1,
            "speedup must grow with batch size: {s10:.2} vs {s1:.2}"
        );
    }

    #[test]
    fn gpu_speedups_exceed_cpu_speedups() {
        // Fig. 6: GPU speedups (up to ~200x) dwarf Intel ones (up to ~60x)
        // because eager execution wastes the GPU's parallelism hardest.
        let devices = [DeviceSpec::v100(), DeviceSpec::intel_cascadelake()];
        let (gpu, intel) = measure(ModelId::TreeGru, 10, Scale::Smoke, &devices);
        assert!(gpu.0 / gpu.1 > intel.0 / intel.1);
    }

    #[test]
    fn table_renders_all_series() {
        let out = run(Scale::Smoke);
        for id in MAIN_MODELS {
            assert!(out.contains(id.name()), "{out}");
        }
    }
}
