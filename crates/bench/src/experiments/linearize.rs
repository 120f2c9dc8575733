//! §7.5 — data-structure linearization overheads.
//!
//! The paper reports linearization times in microseconds for each dataset
//! (grouped: the SST-based models share inputs), and overhead percentages
//! of total GPU runtime between 1.2% (MV-RNN) and 24.4% (DAG-RNN).

use cortex_backend::device::DeviceSpec;
use cortex_core::ra::RaSchedule;
use cortex_ds::linearizer::Linearizer;

use crate::registry::ModelId;
use crate::runner::cortex;
use crate::table::Table;
use crate::Scale;

/// Measured linearization time in microseconds for a model's dataset at a
/// batch size (median of `reps` runs for stability).
pub(crate) fn linearize_us(id: ModelId, bs: usize, reps: usize) -> f64 {
    let data = id.dataset(bs, super::SEED);
    let mut times: Vec<f64> = (0..reps)
        .map(|_| {
            let (_, d) = Linearizer::new()
                .linearize_timed(&data)
                .expect("linearizable");
            d.as_secs_f64() * 1e6
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[times.len() / 2]
}

/// Regenerates the §7.5 table.
pub fn run(scale: Scale) -> String {
    let mut t = Table::new(
        "Sec. 7.5: linearization times (µs) and share of GPU runtime (batch 10, hs)",
        &[
            "dataset",
            "batch 1 (µs)",
            "batch 10 (µs)",
            "% of runtime (bs 10)",
        ],
    );
    let gpu = DeviceSpec::v100();
    for (label, id) in [
        ("TreeLSTM/TreeGRU/MV-RNN (treebank)", ModelId::TreeLstm),
        ("DAG-RNN (10x10 grids)", ModelId::DagRnn),
        ("TreeFC (perfect trees)", ModelId::TreeFc),
    ] {
        let t1 = linearize_us(id, 1, 5);
        let t10 = linearize_us(id, 10, 5);
        let model = id.build(id.hs(scale));
        let data = id.dataset(10, super::SEED);
        let m = cortex(&model, &data, &RaSchedule::default(), &gpu);
        let pct = 100.0 * (t10 / 1e6) / m.breakdown.total_s.max(1e-12);
        t.row_owned(vec![
            label.to_string(),
            format!("{t1:.1}"),
            format!("{t10:.1}"),
            format!("{pct:.1}"),
        ]);
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linearization_scales_with_input_size() {
        let small = linearize_us(ModelId::TreeFc, 1, 5);
        let large = linearize_us(ModelId::TreeFc, 10, 5);
        assert!(
            large > small,
            "batch 10 must take longer: {large} vs {small}"
        );
    }

    #[test]
    fn linearization_is_microseconds_not_milliseconds() {
        // §7.5: 1.31–95 µs across datasets — small by construction.
        let t = linearize_us(ModelId::TreeLstm, 10, 5);
        assert!(t < 10_000.0, "linearization took {t} µs");
    }

    #[test]
    fn renders_three_dataset_groups() {
        let out = run(Scale::Smoke);
        assert_eq!(out.lines().count(), 3 + 3, "{out}");
    }
}
