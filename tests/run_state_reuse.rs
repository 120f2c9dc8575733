//! A lane's kept run state is invisible.
//!
//! Between calls, an engine's lanes keep one run state per request they
//! ran: parameters bound for the params generation they last saw,
//! buffers sized for the last input, scratch and cursors with their
//! capacity. Every step below runs on one engine per model, and after
//! each step outputs and `Profile` must equal a fresh engine's:
//!
//! * inputs that grow and shrink (1, 40, 3 and 25 nodes), so each run
//!   reshapes and re-zeroes buffers another input sized;
//! * a `Params::set` rebind between two runs, which a kept state must
//!   notice (its `Param` buffers still view the old tensors);
//! * an injected fault contained mid-run, after which the engine runs
//!   on from fresh states.
//!
//! Solo runs and `execute_many` of 4 each, on one lane and on two.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use cortex::backend::exec::{Engine, ExecError, FaultAction, FaultHook, FaultSite, RunOutput};
use cortex::backend::params::Params;
use cortex::core::expr::TensorId;
use cortex::core::ilir::IlirProgram;
use cortex::ds::linearizer::{Linearized, Linearizer};
use cortex::ds::{datasets, RecStructure};
use cortex::models::{dagrnn, mvrnn, seq, treefc, treegru, treelstm, treernn, LeafInit, Model};
use cortex::tensor::{par, Tensor};

/// The node counts the steps cycle through: growing, shrinking, growing.
const SIZES: [usize; 4] = [1, 40, 3, 25];

fn models(h: usize) -> Vec<Model> {
    vec![
        treefc::tree_fc(h, LeafInit::Embedding),
        dagrnn::dag_rnn(h),
        treegru::tree_gru(h, LeafInit::Embedding),
        treelstm::tree_lstm(h, LeafInit::Embedding),
        mvrnn::mv_rnn(h),
        treernn::tree_rnn(h, LeafInit::Embedding),
        treegru::simple_tree_gru(h, LeafInit::Embedding),
        seq::seq_lstm(h),
        seq::seq_gru(h),
    ]
}

/// An input of exactly `nodes` nodes in the shape `model` consumes.
fn structure(model: &Model, nodes: usize, seed: u64) -> RecStructure {
    match model.name.as_str() {
        "LSTM" | "GRU" => datasets::sequence(nodes, seed),
        "DAG-RNN" => {
            let rows = (1..=nodes.isqrt())
                .rev()
                .find(|&r| nodes.is_multiple_of(r))
                .unwrap_or(1);
            datasets::grid_dag(rows, nodes / rows, seed)
        }
        // A full binary tree has an odd node count; an even one is a
        // forest of such a tree and a lone leaf.
        _ if !nodes.is_multiple_of(2) => datasets::random_binary_tree(nodes.div_ceil(2), seed),
        _ => RecStructure::merge(&[
            &datasets::random_binary_tree(nodes / 2, seed),
            &datasets::random_binary_tree(1, seed + 1),
        ]),
    }
}

struct Case<'m> {
    model: &'m Model,
    program: &'m IlirProgram,
    lins: Vec<Linearized>,
    params: Params,
}

impl Case<'_> {
    /// The input of `SIZES[i]` nodes.
    fn lin(&self, i: usize) -> &Linearized {
        &self.lins[i]
    }

    /// A fresh engine's answer for input `i`.
    fn fresh(&self, i: usize) -> RunOutput {
        Engine::new(self.program)
            .execute(self.lin(i), &self.params, true)
            .expect("fresh run")
    }

    fn check(&self, i: usize, got: &RunOutput, step: &str) {
        let want = self.fresh(i);
        let ctx = format!("{} {step}, {} nodes", self.model.name, SIZES[i]);
        assert_same(&got.0, &want.0, &ctx);
        assert_eq!(got.1, want.1, "Profile: {ctx}");
    }

    /// Halves the first parameter (by name): a new params generation.
    fn rebind(&mut self) {
        let (name, t) = (self.params.iter())
            .map(|(n, t)| (n.to_string(), t.clone()))
            .min_by(|a, b| a.0.cmp(&b.0))
            .expect("a parameter");
        let halved = t.as_slice().iter().map(|v| v * 0.5).collect();
        let t = Tensor::from_vec(halved, t.shape().dims()).expect("same shape");
        self.params.set(&name, t);
    }
}

fn assert_same(got: &HashMap<TensorId, Tensor>, want: &HashMap<TensorId, Tensor>, ctx: &str) {
    assert_eq!(got.len(), want.len(), "output count: {ctx}");
    for (id, w) in want {
        let g = &got[id];
        assert_eq!(g.shape(), w.shape(), "shape of {id}: {ctx}");
        let bits = |t: &Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(g), bits(w), "values of {id}: {ctx}");
    }
}

/// A hook raising a typed fault at the `nth` occurrence of a site `hit`
/// selects, and at no other.
fn fault_at(nth: usize, hit: fn(FaultSite) -> bool) -> FaultHook {
    let mut seen = 0;
    Rc::new(RefCell::new(move |site| {
        seen += usize::from(hit(site));
        (hit(site) && seen == nth).then_some(FaultAction::Err)
    }))
}

fn solo_steps(case: &mut Case<'_>, engine: &mut Engine<'_>) {
    for i in 0..SIZES.len() {
        let out = engine.execute(case.lin(i), &case.params, true).unwrap();
        case.check(i, &out, "solo");
    }
    case.rebind();
    for i in [1, 0] {
        let out = engine.execute(case.lin(i), &case.params, true).unwrap();
        case.check(i, &out, "solo after a rebind");
    }
    // The 25-node input launches more than twice.
    engine.set_fault_hook(Some(fault_at(2, |s| matches!(s, FaultSite::Launch { .. }))));
    let err = engine.execute(case.lin(3), &case.params, true).unwrap_err();
    assert!(matches!(err, ExecError::Injected(_)), "{err}");
    engine.set_fault_hook(None);
    for i in [2, 1] {
        let out = engine.execute(case.lin(i), &case.params, true).unwrap();
        case.check(i, &out, "solo after a contained fault");
    }
}

/// Runs the inputs `order` names as one batch and checks each answer.
fn batch(engine: &mut Engine<'_>, case: &Case<'_>, order: [usize; 4], step: &str) {
    let lins: Vec<&Linearized> = order.iter().map(|&i| case.lin(i)).collect();
    let outs = engine.execute_many(&lins, &case.params, true).unwrap();
    for (&i, out) in order.iter().zip(&outs) {
        case.check(i, out, step);
    }
}

fn many_steps(case: &mut Case<'_>, engine: &mut Engine<'_>) {
    batch(engine, case, [0, 1, 2, 3], "batched");
    batch(engine, case, [3, 2, 1, 0], "batched, reversed");
    case.rebind();
    batch(engine, case, [1, 0, 3, 2], "batched after a rebind");
    // A fault mid-batch: at the second launch of the batch.
    engine.set_fault_hook(Some(fault_at(2, |s| matches!(s, FaultSite::Launch { .. }))));
    let lins: Vec<&Linearized> = (0..SIZES.len()).map(|i| case.lin(i)).collect();
    let err = engine.execute_many(&lins, &case.params, true).unwrap_err();
    assert!(matches!(err, ExecError::Injected(_)), "{err}");
    engine.set_fault_hook(None);
    batch(
        engine,
        case,
        [2, 3, 0, 1],
        "batched after a contained fault",
    );
}

fn run_all(lanes: usize) {
    par::with_lanes(lanes, || {
        for model in models(32) {
            let program = model.lower(&Default::default()).expect("lowers");
            let lins = (SIZES.iter().zip(1u64..))
                .map(|(&n, seed)| {
                    let s = structure(&model, n, seed);
                    assert_eq!(s.num_nodes(), n, "{} input", model.name);
                    Linearizer::new().linearize(&s).expect("linearizes")
                })
                .collect();
            let mut case = Case {
                model: &model,
                program: &program,
                lins,
                params: model.params.clone(),
            };
            let mut engine = Engine::new(&program);
            solo_steps(&mut case, &mut engine);
            many_steps(&mut case, &mut engine);
            // Solo again after batches left four states per lane.
            solo_steps(&mut case, &mut engine);
        }
    });
}

#[test]
fn kept_run_states_match_fresh_engines_on_one_lane() {
    run_all(1);
}

#[test]
fn kept_run_states_match_fresh_engines_on_two_lanes() {
    run_all(2);
}
