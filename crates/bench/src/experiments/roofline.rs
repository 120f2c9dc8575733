//! Appendix C — roofline operational intensities for the TreeFC model.
//!
//! Fig. 14 derives analytic intensities; here we *measure* them from the
//! executed profiles (flops ÷ global bytes) and also print the paper's
//! analytic approximations for comparison:
//!
//! ```text
//! O_cortex  ≈ B·N0 / (3B + 2)
//! O_dynet   ≈ B·N0 / (5B + 8·log2(N0))
//! O_pytorch ≈ 0.5
//! ```

use cortex_backend::device::DeviceSpec;
use cortex_core::ra::RaSchedule;

use crate::registry::ModelId;
use crate::runner::{baseline, cortex, Baseline};
use crate::table::Table;
use crate::Scale;

/// Measured operational intensities `(cortex, dynet, pytorch)`.
pub fn measure(scale: Scale, bs: usize) -> (f64, f64, f64) {
    let gpu = DeviceSpec::v100();
    let id = ModelId::TreeFc;
    let model = id.build_recursive_only(id.hs(scale));
    let data = id.dataset(bs, super::SEED);
    let ours = cortex(&model, &data, &RaSchedule::default(), &gpu);
    let dynet = baseline(Baseline::DyNet, &model, &data, &gpu);
    let torch = baseline(Baseline::PyTorch, &model, &data, &gpu);
    (
        ours.profile.operational_intensity(),
        dynet.profile.operational_intensity(),
        torch.profile.operational_intensity(),
    )
}

/// The paper's analytic approximations (Fig. 14 with N ≈ H = N0).
pub(crate) fn analytic(n0: f64, b: f64) -> (f64, f64, f64) {
    (
        b * n0 / (3.0 * b + 2.0),
        b * n0 / (5.0 * b + 8.0 * n0.log2()),
        0.5,
    )
}

/// Regenerates the Appendix C comparison.
pub fn run(scale: Scale) -> String {
    let mut t = Table::new(
        "Appendix C: operational intensity (flops/byte), TreeFC, hidden hs",
        &[
            "batch",
            "Cortex (measured)",
            "DyNet (measured)",
            "PyTorch (measured)",
            "analytic (C/D/P)",
        ],
    );
    let n0 = ModelId::TreeFc.hs(scale) as f64;
    for bs in [1usize, 10] {
        let (c, d, p) = measure(scale, bs);
        let (ac, ad, ap) = analytic(n0, bs as f64);
        t.row_owned(vec![
            bs.to_string(),
            format!("{c:.2}"),
            format!("{d:.2}"),
            format!("{p:.2}"),
            format!("{ac:.1}/{ad:.1}/{ap:.1}"),
        ]);
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intensity_ordering_matches_appendix_c() {
        // O_cortex > O_dynet > O_pytorch.
        let (c, d, p) = measure(Scale::Smoke, 10);
        assert!(c > d, "cortex {c:.2} vs dynet {d:.2}");
        assert!(d > p, "dynet {d:.2} vs pytorch {p:.2}");
    }

    #[test]
    fn pytorch_intensity_is_near_half() {
        // Appendix C: O_pytorch ≈ 0.5 — parameters re-read per node kill
        // all reuse.
        let (_, _, p) = measure(Scale::Smoke, 10);
        assert!(p < 2.0, "pytorch intensity {p:.2} should be O(1)");
    }

    #[test]
    fn analytic_formulas_are_ordered_too() {
        let (c, d, p) = analytic(256.0, 10.0);
        assert!(c > d && d > p);
    }
}
