//! Adversarial structure fuzzing, run differentially.
//!
//! [`StructureFuzzer`] cases — hostile forests interleaved with valid
//! controls — drive the whole intake ladder:
//!
//! 1. **Construction** ([`RecStructure::from_parts`]): every malformed
//!    case (cycle, self-loop, dangling child, length mismatch, fan-out
//!    violation, empty) is refused with a typed `StructureError`, never
//!    a panic; every well-formed case constructs.
//! 2. **Engine admission**: structurally valid but hostile inputs
//!    (over-wide arity, over-budget footprints, poisoned parameters)
//!    come back as typed `ExecError`/`ServeError` refusals, and the pc
//!    runtime and the `interp` oracle refuse *identically*.
//! 3. **Execution**: every accepted case produces bit-identical outputs
//!    *and* `Profile` counters on both runtimes.
//!
//! Seeds come from `CORTEX_FUZZ_SEEDS` (comma-separated, for CI sweeps)
//! with a fixed default set, mirroring the fault-injection suite's
//! `CORTEX_FAULT_SEEDS`.

use cortex_backend::exec::{Engine, ExecError, ExecOptions};
use cortex_core::ra::RaSchedule;
use cortex_ds::linearizer::Linearizer;
use cortex_models::{treelstm, LeafInit, Model};
use cortex_serve::fuzz::{FuzzCase, StructureFuzzer, SHAPES};
use cortex_serve::{Batcher, BatcherOptions, ServeError};

/// Seeds to sweep: `CORTEX_FUZZ_SEEDS=1,2,3` overrides the default.
fn seeds() -> Vec<u64> {
    match std::env::var("CORTEX_FUZZ_SEEDS") {
        Ok(s) => s.split(',').filter_map(|t| t.trim().parse().ok()).collect(),
        Err(_) => vec![11, 23, 47],
    }
}

fn model() -> Model {
    treelstm::tree_lstm(8, LeafInit::Embedding)
}

fn linearize(case: &FuzzCase) -> cortex_ds::linearizer::Linearized {
    let structure = case
        .build()
        .unwrap_or_else(|e| panic!("{}: expected well-formed, got {e}", case.label));
    Linearizer::new()
        .linearize(&structure)
        .unwrap_or_else(|e| panic!("{}: linearize failed: {e}", case.label))
}

/// The core differential property: for every fuzzed case, construction
/// either refuses with a typed error (malformed cases, and only those)
/// or yields a structure on which the pc runtime and the interp oracle
/// agree exactly — same admission verdict, same outputs, same profile.
#[test]
fn fuzzed_cases_never_panic_and_accepted_cases_match_the_oracle() {
    let model = model();
    let program = model.lower(&RaSchedule::default()).expect("lowers");
    let mut pc = Engine::new(&program);
    let mut oracle = Engine::with_options(&program, ExecOptions::interpreted());

    for seed in seeds() {
        let mut fuzz = StructureFuzzer::new(seed);
        let (mut executed, mut refused_build, mut refused_intake) = (0u32, 0u32, 0u32);
        for case in fuzz.cases(4 * SHAPES) {
            let structure = match case.build() {
                Err(e) => {
                    assert!(
                        case.expect_malformed,
                        "seed {seed}, {}: well-formed case refused: {e}",
                        case.label
                    );
                    refused_build += 1;
                    continue;
                }
                Ok(s) => {
                    assert!(
                        !case.expect_malformed,
                        "seed {seed}, {}: malformed case was accepted",
                        case.label
                    );
                    s
                }
            };
            let lin = Linearizer::new()
                .linearize(&structure)
                .unwrap_or_else(|e| panic!("seed {seed}, {}: linearize failed: {e}", case.label));
            let pc_run = pc.execute(&lin, &model.params, true);
            let oracle_run = oracle.execute(&lin, &model.params, true);
            match (pc_run, oracle_run) {
                (Ok((out, prof)), Ok((oracle_out, oracle_prof))) => {
                    executed += 1;
                    assert_eq!(
                        prof, oracle_prof,
                        "seed {seed}, {}: profiles must be bit-identical",
                        case.label
                    );
                    assert_eq!(out.len(), oracle_out.len());
                    for (id, tensor) in &out {
                        assert_eq!(
                            Some(tensor),
                            oracle_out.get(id),
                            "seed {seed}, {}: outputs must be bit-identical",
                            case.label
                        );
                    }
                }
                (Err(e), Err(oracle_e)) => {
                    refused_intake += 1;
                    assert_eq!(
                        e, oracle_e,
                        "seed {seed}, {}: both runtimes must refuse identically",
                        case.label
                    );
                    assert!(
                        matches!(e, ExecError::InvalidInput(_)),
                        "seed {seed}, {}: admission refusals must be typed InvalidInput, got {e}",
                        case.label
                    );
                }
                (pc_r, oracle_r) => panic!(
                    "seed {seed}, {}: runtimes disagree on admission (pc ok={}, oracle ok={})",
                    case.label,
                    pc_r.is_ok(),
                    oracle_r.is_ok()
                ),
            }
        }
        assert!(
            executed > 0 && refused_build > 0 && refused_intake > 0,
            "seed {seed}: sweep must exercise all three verdicts \
             (executed {executed}, refused at build {refused_build}, at intake {refused_intake})"
        );
    }
}

/// Serve-level admission: hostile inputs are refused at `submit` with
/// the new typed `ServeError` variants and counted in `ServeStats`,
/// while valid traffic keeps flowing on the same batcher.
#[test]
fn batcher_refuses_hostile_admissions_with_typed_errors_and_counters() {
    let model = model();
    let program = model.lower(&RaSchedule::default()).expect("lowers");
    let mut batcher = Batcher::new(&program, model.params.clone(), BatcherOptions::default());
    let mut fuzz = StructureFuzzer::new(seeds()[0]);

    // Arity beyond the compiled plan: refused before any ticket exists.
    let err = batcher.submit(linearize(&fuzz.wide_arity())).unwrap_err();
    assert!(
        matches!(err, ServeError::InvalidInput { .. }),
        "wide arity must be InvalidInput, got {err}"
    );

    // A unary chain: TreeLSTM reads both child slots unguarded, so the
    // plan's required arity refuses it before execution.
    let err = batcher.submit(linearize(&fuzz.deep_chain())).unwrap_err();
    assert!(
        matches!(err, ServeError::InvalidInput { .. }),
        "under-arity chain must be InvalidInput, got {err}"
    );

    // A one-byte memory budget: all eight trees are over budget.
    batcher.set_exec_options(ExecOptions {
        memory_budget: Some(1),
        ..ExecOptions::default()
    });
    let trees: Vec<_> = (0..8).map(|_| linearize(&fuzz.valid_tree())).collect();
    for tree in &trees {
        let err = batcher.submit(tree.clone()).unwrap_err();
        assert!(
            matches!(err, ServeError::OverBudget { budget: 1, .. }),
            "tiny budget must be OverBudget, got {err}"
        );
    }

    // Refusals must not poison the batcher: the same eight inputs are
    // served once the budget is lifted.
    batcher.set_exec_options(ExecOptions::default());
    for tree in trees {
        batcher.submit(tree).expect("valid input admits");
    }
    let resolved = batcher.drain();
    assert_eq!(resolved.len(), 8);
    assert!(
        resolved.iter().all(|(_, outcome)| outcome.is_ok()),
        "valid traffic must still be served"
    );

    let stats = batcher.serve_stats();
    assert_eq!(stats.rejected_invalid, 2);
    assert_eq!(stats.over_budget, 8);
    assert_eq!(stats.rejected, 2 + 8, "every refusal counts as rejected");
    assert_eq!(stats.resolved_ok, 8);
    assert_eq!(
        stats.submitted,
        stats.resolved_ok + stats.resolved_err,
        "refused requests never enter the resolution ledger"
    );
}

/// The fuzzer's case stream straight at the front door: over two
/// rotations of seed `0xF022`, 14 malformed cases never construct, the
/// 6 plan-incompatible shapes (wide arity, unary chains against an
/// exact binary plan) are refused at intake as `InvalidInput`, and the 4
/// controls are served — an exact split, every ticket resolved once.
#[test]
fn invalid_input_burst_splits_exactly() {
    let model = treelstm::tree_lstm(64, LeafInit::Embedding);
    let program = model.lower(&RaSchedule::default()).expect("lowers");
    let mut batcher = Batcher::new(
        &program,
        model.params.clone(),
        BatcherOptions {
            max_batch: 64,
            max_delay: std::time::Duration::from_secs(3600),
            ..BatcherOptions::default()
        },
    );
    let (mut malformed, mut admitted) = (0u64, 0u64);
    for case in StructureFuzzer::new(0xF022).cases(2 * SHAPES) {
        let Ok(structure) = case.build() else {
            malformed += 1;
            continue;
        };
        let input = Linearizer::new().linearize(&structure).expect("linearizes");
        match batcher.submit(input) {
            Ok(_) => admitted += 1,
            Err(e) => assert!(
                matches!(e, ServeError::InvalidInput { .. }),
                "{}: unexpected refusal {e}",
                case.label
            ),
        }
    }
    batcher.drain();
    let stats = batcher.serve_stats();
    assert_eq!(malformed, 14);
    assert_eq!(stats.rejected_invalid, 6);
    assert_eq!(stats.submitted, admitted);
    assert_eq!(stats.resolved_ok, 4);
    assert_eq!(stats.resolved_ok + stats.resolved_err, stats.submitted);
}

/// Non-finite parameters — the fuzzer's NaN attack — surface as a typed
/// per-ticket error at batch execution, never a panic, and accounting
/// still balances.
#[test]
fn poisoned_params_fail_typed_not_panicking() {
    let model = model();
    let program = model.lower(&RaSchedule::default()).expect("lowers");
    let mut params = model.params.clone();
    let mut poisoned = params.get("U_i").expect("treelstm has U_i").clone();
    poisoned.as_mut_slice()[0] = f32::NAN;
    params.set("U_i", poisoned);

    let mut batcher = Batcher::new(&program, params, BatcherOptions::default());
    let mut fuzz = StructureFuzzer::new(seeds()[0]);
    let ticket = batcher
        .submit(linearize(&fuzz.next_case()))
        .expect("structure itself is valid");
    let resolved = batcher.drain();
    let outcome = &resolved
        .iter()
        .find(|(t, _)| *t == ticket)
        .expect("ticket resolves")
        .1;
    let err = outcome.as_ref().unwrap_err();
    assert!(
        matches!(
            err,
            ServeError::EngineFault { .. } | ServeError::InvalidInput { .. }
        ),
        "NaN params must fail typed, got {err}"
    );
    let stats = batcher.serve_stats();
    assert_eq!(stats.submitted, stats.resolved_ok + stats.resolved_err);
}
