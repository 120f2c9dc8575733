//! One module per paper table/figure; every function returns the
//! formatted output so tests and binaries share the code path.

pub mod fig10;
pub mod fig12;
pub mod fig6;
pub mod fig7;
pub mod fig9;
pub mod linearize;
pub mod roofline;
pub mod table4;
pub mod table5;
pub mod table6;

use crate::Scale;

/// Fixed workload seed so all experiments see the same inputs.
pub const SEED: u64 = 2021;

/// An experiment: the formatted table at a scale.
pub(crate) type Experiment = fn(Scale) -> String;

/// Every experiment under its `all_experiments` name, in print order.
pub const ALL: [(&str, Experiment); 12] = [
    ("fig6", fig6::run),
    ("fig7", fig7::run),
    ("fig9", fig9::run),
    ("fig10a", fig10::run_a),
    ("fig10b", fig10::run_b),
    ("fig10c", fig10::run_c),
    ("fig12", fig12::run),
    ("table4", table4::run),
    ("table5", table5::run),
    ("table6", table6::run),
    ("linearize", linearize::run),
    ("roofline", roofline::run),
];

/// The experiment called `name` in [`ALL`].
pub fn by_name(name: &str) -> Option<Experiment> {
    ALL.iter().find(|(n, _)| *n == name).map(|&(_, run)| run)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_listed_name_resolves() {
        for (i, (name, _)) in ALL.iter().enumerate() {
            assert!(by_name(name).is_some(), "{name} does not resolve");
            assert!(
                ALL[..i].iter().all(|(n, _)| n != name),
                "{name} is listed twice"
            );
        }
        assert!(by_name("fig8").is_none());
    }
}
