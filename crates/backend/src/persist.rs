//! Model persistence feasibility (Appendix D: register pressure).
//!
//! Persisting model parameters on-chip (Persistent RNNs, GRNN, DeepCPU)
//! requires them to fit in the device's register/scratchpad budget.
//! Cortex-generated kernels are large — fusion, peeling and unrolling all
//! increase register pressure — so some schedule combinations preclude
//! persistence. Appendix D reports exactly this: *"recursive unrolling
//! precludes us from using persistence for the TreeLSTM and TreeRNN
//! models"*, and loop peeling and persistence cannot be combined for
//! TreeLSTM.
//!
//! This module reproduces that interaction with an explicit budget model:
//! required on-chip bytes = parameter bytes × a pressure multiplier that
//! grows with unrolling and peeling.

use std::collections::HashSet;

use cortex_core::expr::{BoolExpr, TensorId, ValExpr};
use cortex_core::ilir::{IlirProgram, LaunchPattern, Stmt, StorageClass};

use crate::device::DeviceSpec;

/// Extra register pressure per unrolled recursion level.
const UNROLL_PRESSURE_PER_LEVEL: f64 = 0.25;
/// Extra register pressure from loop peeling (duplicated loop bodies).
const PEEL_PRESSURE: f64 = 0.15;

/// The outcome of the persistence feasibility check.
#[derive(Debug, Clone, PartialEq)]
pub struct PersistDecision {
    /// Whether the schedule requested persistence.
    pub requested: bool,
    /// Whether the parameters (at the schedule's register pressure) fit.
    pub feasible: bool,
    /// Parameter bytes that would be persisted.
    pub param_bytes: u64,
    /// Bytes required once pressure multipliers are applied.
    pub required_bytes: u64,
    /// Human-readable explanation when infeasible.
    pub reason: Option<String>,
}

impl PersistDecision {
    /// Whether persistence is actually in effect for a run.
    pub fn active(&self) -> bool {
        self.requested && self.feasible
    }
}

/// Bytes of *recurrent* parameters: those read inside the wave loops (or
/// per-batch kernels) and therefore re-read every iteration without
/// persistence. One-shot parameters (embedding tables gathered once in
/// leaf/precompute kernels) are excluded — persistent-RNN systems pin
/// only the recurrent weights.
fn recurrent_param_bytes(program: &IlirProgram) -> u64 {
    let mut recurrent: HashSet<TensorId> = HashSet::new();
    for kernel in &program.kernels {
        let in_wave_kernel = kernel.launch == LaunchPattern::PerInternalBatch;
        for s in &kernel.body {
            collect_wave_param_reads(s, in_wave_kernel, program, &mut recurrent);
        }
    }
    recurrent
        .iter()
        .filter_map(|id| program.tensor_opt(*id))
        .filter(|t| t.class == StorageClass::Param)
        .map(|t| t.len(0, 0) as u64 * 4)
        .sum()
}

fn collect_wave_param_reads(
    s: &Stmt,
    in_wave: bool,
    program: &IlirProgram,
    out: &mut HashSet<TensorId>,
) {
    match s {
        Stmt::For { dim, body, .. } => {
            let in_wave = in_wave || matches!(dim, Some(d) if d.0 == "d_all_batches");
            for st in body {
                collect_wave_param_reads(st, in_wave, program, out);
            }
        }
        Stmt::Let { body, .. } => {
            for st in body {
                collect_wave_param_reads(st, in_wave, program, out);
            }
        }
        Stmt::If {
            then_branch,
            else_branch,
            ..
        } => {
            for st in then_branch.iter().chain(else_branch) {
                collect_wave_param_reads(st, in_wave, program, out);
            }
        }
        Stmt::Store { value, .. } => {
            if in_wave {
                collect_value_reads(value, out);
            }
        }
        Stmt::Barrier => {}
    }
    let _ = program;
}

fn collect_value_reads(e: &ValExpr, out: &mut HashSet<TensorId>) {
    match e {
        ValExpr::Const(_) => {}
        ValExpr::Load { tensor, .. } => {
            out.insert(*tensor);
        }
        ValExpr::Unary(_, a) => collect_value_reads(a, out),
        ValExpr::Bin(_, a, b) => {
            collect_value_reads(a, out);
            collect_value_reads(b, out);
        }
        ValExpr::Sum { body, .. } => collect_value_reads(body, out),
        ValExpr::Select {
            cond,
            then,
            otherwise,
        } => {
            let _ = cond as &BoolExpr;
            collect_value_reads(then, out);
            collect_value_reads(otherwise, out);
        }
    }
}

/// Decides whether model persistence is feasible for `program` on `device`.
pub fn check_persistence(program: &IlirProgram, device: &DeviceSpec) -> PersistDecision {
    let requested = program.meta.schedule.persist;
    let bytes = recurrent_param_bytes(program);
    let mut pressure = 1.0f64;
    if let Some(depth) = program.meta.schedule.unroll {
        pressure += UNROLL_PRESSURE_PER_LEVEL * (depth.saturating_sub(1)) as f64;
    }
    if program.meta.schedule.peel.is_some() {
        pressure += PEEL_PRESSURE;
    }
    let required = (bytes as f64 * pressure).ceil() as u64;
    let feasible = required <= device.onchip_bytes;
    let reason = if requested && !feasible {
        Some(format!(
            "requires {required} on-chip bytes ({bytes} param bytes × {pressure:.2} register \
             pressure) but {} provides {}",
            device.name, device.onchip_bytes
        ))
    } else {
        None
    };
    PersistDecision {
        requested,
        feasible,
        param_bytes: bytes,
        required_bytes: required,
        reason,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cortex_core::lower::{lower, StructureInfo};
    use cortex_core::ra::{RaGraph, RaSchedule};

    /// A model with `n_mats` H×H recursive weight matrices — a stand-in
    /// for gate counts (4 for LSTM, 3 for GRU).
    fn model_with_params(h: usize, n_mats: usize, schedule: &RaSchedule) -> IlirProgram {
        let mut g = RaGraph::new();
        let ws: Vec<_> = (0..n_mats)
            .map(|i| g.input(&format!("U{i}"), &[h, h]))
            .collect();
        let ph = g.placeholder("h_ph", &[h]);
        let hsum = g.compute("hsum", &[h], |c| {
            c.read(ph, &[c.node().child(0), c.axis(0)])
                .add(c.read(ph, &[c.node().child(1), c.axis(0)]))
        });
        // Chain the matvecs so every weight matrix is live in the
        // recursion body (dead operators are pruned by the cone analysis).
        let mut last = hsum;
        for w in &ws {
            last = g.compute("mv", &[h], |c| {
                let i = c.axis(0);
                let node = c.node();
                c.sum(h, |c, k| {
                    c.read(*w, &[i.clone(), k.clone()])
                        .mul(c.read(last, &[node.clone(), k]))
                })
            });
        }
        let rec = g.compute("rec", &[h], |c| c.read(last, &[c.node(), c.axis(0)]).tanh());
        let zero = g.compute("zero", &[h], |_| cortex_core::expr::ValExpr::Const(0.0));
        let body = g.if_then_else("body", zero, rec).unwrap();
        let out = g.recursion(ph, body).unwrap();
        g.mark_output(out);
        lower(&g, schedule, StructureInfo { max_children: 2 }).unwrap()
    }

    #[test]
    fn lstm_sized_params_persist_at_hs() {
        // 4 × 256×256×4B = 1 MB < the V100 budget.
        let p = model_with_params(256, 4, &RaSchedule::default());
        let d = check_persistence(&p, &DeviceSpec::v100());
        assert_eq!(d.param_bytes, 4 * 256 * 256 * 4);
        assert!(d.active(), "{:?}", d.reason);
    }

    #[test]
    fn unrolling_precludes_persistence_for_lstm_sized_models() {
        // Appendix D: unrolling + persistence do not fit for TreeLSTM.
        let s = RaSchedule {
            unroll: Some(2),
            ..RaSchedule::default()
        };
        let p = model_with_params(256, 4, &s);
        let d = check_persistence(&p, &DeviceSpec::v100());
        assert!(d.requested && !d.feasible, "{d:?}");
    }

    #[test]
    fn peeling_precludes_persistence_for_lstm_sized_models() {
        // Appendix D: peeling + persistence cannot combine for TreeLSTM.
        let s = RaSchedule {
            peel: Some(4),
            ..RaSchedule::default()
        };
        let p = model_with_params(256, 4, &s);
        let d = check_persistence(&p, &DeviceSpec::v100());
        assert!(!d.feasible, "{d:?}");
    }

    #[test]
    fn smaller_models_survive_unrolling() {
        // TreeRNN-sized (no weight matrices beyond a small one).
        let s = RaSchedule {
            unroll: Some(2),
            ..RaSchedule::default()
        };
        let p = model_with_params(64, 1, &s);
        let d = check_persistence(&p, &DeviceSpec::v100());
        assert!(d.active(), "{:?}", d.reason);
    }

    #[test]
    fn large_hidden_sizes_fall_out_of_budget() {
        // hl = 512: 4 MB of gates does not fit the V100 budget.
        let p = model_with_params(512, 4, &RaSchedule::default());
        let d = check_persistence(&p, &DeviceSpec::v100());
        assert!(!d.feasible);
        // CPUs have larger private caches: DeepCPU-style persistence fits.
        let d = check_persistence(&p, &DeviceSpec::intel_cascadelake());
        assert!(d.feasible);
    }

    #[test]
    fn unrequested_persistence_is_not_active() {
        let s = RaSchedule {
            persist: false,
            ..RaSchedule::default()
        };
        let p = model_with_params(64, 1, &s);
        let d = check_persistence(&p, &DeviceSpec::v100());
        assert!(!d.requested && d.feasible && !d.active());
    }
}
