//! Equivalence of the executor configurations.
//!
//! The batched wavefront engine (`Engine::new`: stacked wave GEMMs), the
//! per-element engine (`Engine::per_element`: one strided dot per
//! reduction element) and the AST-walking oracle (`interp: true`) must
//! agree on every model, schedule, and input structure:
//!
//! * outputs within 1e-5 (different summation orders, same math), and
//! * **identical** `Profile` counters between the per-element and
//!   batched engines — the wave engine replays the exact per-element
//!   accounting it optimizes away, whether a site runs its own GEMM or
//!   shares a stacked one.

use cortex::backend::exec::{Engine, ExecOptions};
use cortex::backend::profile::Profile;
use cortex::core::ilir::IlirProgram;
use cortex::core::ra::RaSchedule;
use cortex::ds::linearizer::Linearizer;
use cortex::ds::{datasets, RecStructure};
use cortex::models::{dagrnn, mvrnn, seq, treefc, treegru, treelstm, treernn, LeafInit, Model};
use cortex::tensor::approx::NonlinearityMode;
use cortex_rng::Rng;

/// Both nonlinearity modes: every bit-identity contract holds in each.
const NONLINEARITIES: [NonlinearityMode; 2] = [NonlinearityMode::Exact, NonlinearityMode::Rational];

/// `model` lowered with the default schedule in `nonlinearity` mode —
/// the schedule is where the mode is chosen (App. A.5).
fn lower_in(model: &Model, nonlinearity: NonlinearityMode) -> IlirProgram {
    let schedule = RaSchedule {
        nonlinearity,
        ..RaSchedule::default()
    };
    model.lower(&schedule).unwrap()
}

fn models(h: usize) -> Vec<Model> {
    vec![
        treernn::tree_rnn(h, LeafInit::Embedding),
        treefc::tree_fc(h, LeafInit::Embedding),
        treegru::tree_gru(h, LeafInit::Embedding),
        treelstm::tree_lstm(h, LeafInit::Zero),
        mvrnn::mv_rnn(h),
        dagrnn::dag_rnn(h),
        seq::seq_lstm(h),
    ]
}

fn structure_for(model: &Model, rng: &mut Rng) -> RecStructure {
    let seed = rng.next_u64();
    match model.name.as_str() {
        "DAG-RNN" => datasets::grid_dag(rng.range_usize(2, 6), rng.range_usize(2, 6), seed),
        "LSTM" | "GRU" => datasets::sequence(rng.range_usize(3, 30), seed),
        _ => {
            let parts: Vec<RecStructure> = (0..rng.range_usize(1, 4))
                .map(|i| {
                    datasets::random_binary_tree(
                        rng.range_usize(2, 14),
                        seed.wrapping_add(i as u64),
                    )
                })
                .collect();
            let refs: Vec<&RecStructure> = parts.iter().collect();
            RecStructure::merge(&refs)
        }
    }
}

/// Counter fields that must match exactly between scalar and batched
/// execution (wave stats included).
fn assert_profiles_identical(a: &Profile, b: &Profile, ctx: &str) {
    assert_eq!(a.launches, b.launches, "launches: {ctx}");
    assert_eq!(a.flops, b.flops, "flops: {ctx}");
    assert_eq!(
        a.global_bytes_read, b.global_bytes_read,
        "global reads: {ctx}"
    );
    assert_eq!(
        a.global_bytes_written, b.global_bytes_written,
        "global writes: {ctx}"
    );
    assert_eq!(a.param_bytes_read, b.param_bytes_read, "param reads: {ctx}");
    assert_eq!(
        a.scratch_bytes_accessed, b.scratch_bytes_accessed,
        "scratch: {ctx}"
    );
    assert_eq!(a.branch_checks, b.branch_checks, "branch checks: {ctx}");
    assert_eq!(
        a.leaf_check_loads, b.leaf_check_loads,
        "leaf-check loads: {ctx}"
    );
    assert_eq!(
        a.barriers_global, b.barriers_global,
        "global barriers: {ctx}"
    );
    assert_eq!(a.barriers_block, b.barriers_block, "block barriers: {ctx}");
    assert_eq!(a.waves, b.waves, "wave stats: {ctx}");
}

#[test]
fn three_executors_agree_on_random_models_and_trees() {
    let mut rng = Rng::new(0x51);
    for case in 0..24 {
        let h = rng.range_usize(3, 11);
        for model in nine_models(h, h) {
            let structure = structure_for(&model, &mut rng);
            let program = model.lower(&RaSchedule::default()).unwrap();
            let lin = Linearizer::new().linearize(&structure).unwrap();

            let (out_s, prof_s) = Engine::per_element(&program, ExecOptions::default())
                .execute(&lin, &model.params, true)
                .unwrap();
            let (out_w, prof_w) = Engine::new(&program)
                .execute(&lin, &model.params, true)
                .unwrap();
            let oracle = Engine::with_options(&program, ExecOptions::interpreted())
                .execute(&lin, &model.params, true)
                .unwrap();

            let ctx = format!("{} h={h} case={case}", model.name);
            assert!(oracle == (out_w.clone(), prof_w.clone()), "oracle ({ctx})");
            for (id, t_s) in &out_s {
                assert!(
                    out_w[id].all_close(t_s, 1e-5),
                    "batched vs per-element diverge ({ctx}): {:?}",
                    out_w[id].max_abs_diff(t_s)
                );
            }
            assert_profiles_identical(&prof_s, &prof_w, &ctx);
        }
    }
}

/// Gate stacking on randomized TreeLSTM/TreeGRU forests: the stacked
/// wave GEMMs must match the per-element engine, which computes every
/// site alone — outputs within 1e-5, counters exactly — while sites
/// actually share GEMMs: every TreeLSTM site is a member of a stacked
/// group, and TreeGRU's r/z gates stack.
#[test]
fn stacked_path_matches_per_site_path_on_random_forests() {
    let mut rng = Rng::new(0x54);
    for case in 0..10 {
        let h = rng.range_usize(3, 24);
        for model in [
            treelstm::tree_lstm(h, LeafInit::Embedding),
            treelstm::tree_lstm(h, LeafInit::Zero),
            treegru::tree_gru(h, LeafInit::Embedding),
        ] {
            let structure = structure_for(&model, &mut rng);
            let program = model.lower(&RaSchedule::default()).unwrap();
            let lin = Linearizer::new().linearize(&structure).unwrap();

            let mut stacked = Engine::new(&program);
            let mut per_site = Engine::per_element(&program, ExecOptions::default());
            let (out_g, prof_g) = stacked.execute(&lin, &model.params, true).unwrap();
            let (out_u, prof_u) = per_site.execute(&lin, &model.params, true).unwrap();

            let ctx = format!("{} h={h} case={case}", model.name);
            for (id, t_g) in &out_g {
                assert!(
                    out_u[id].all_close(t_g, 1e-5),
                    "stacked vs per-site diverge ({ctx})"
                );
            }
            assert_profiles_identical(&prof_u, &prof_g, &ctx);
            // TreeLSTM's i/o/u gates share one GEMM and its forget
            // gates another; TreeGRU's r/z gates stack likewise.
            let sg = stacked.stats();
            assert_eq!(
                per_site.stats().wave_gemms,
                0,
                "{ctx}: per-element ran a GEMM"
            );
            if sg.wave_gemms > 0 {
                assert!(
                    sg.stacked_groups > 0,
                    "{ctx}: stacking did not engage ({sg:?})"
                );
                if model.name == "TreeLSTM" {
                    assert_eq!(
                        sg.stacked_sites, sg.sites_batched,
                        "{ctx}: every site stacks"
                    );
                }
            }
        }
    }
}

/// Mixed waves — some sites stackable, some not — must split correctly.
/// TreeLSTM is exactly that shape: i/o/u stack by shared rows, the two
/// forget gates stack by shared weight, and at `h` where guards differ
/// none of them may leak into each other's groups.
#[test]
fn treelstm_gemm_count_drops_three_fold_with_stacking() {
    let h = 16;
    let model = treelstm::tree_lstm(h, LeafInit::Embedding);
    let corpus = datasets::sentiment_treebank(4, 21);
    let refs: Vec<&RecStructure> = corpus.iter().collect();
    let forest = RecStructure::merge(&refs);
    let program = model.lower(&RaSchedule::default()).unwrap();
    let lin = Linearizer::new().linearize(&forest).unwrap();

    let mut stacked = Engine::new(&program);
    let (out_s, _) = stacked.execute(&lin, &model.params, true).unwrap();
    let (out_u, _) = Engine::per_element(&program, ExecOptions::default())
        .execute(&lin, &model.params, true)
        .unwrap();
    for (id, t) in &out_s {
        assert!(out_u[id].all_close(t, 1e-4));
    }
    let sg = stacked.stats();
    // 5 sites per wave (i, o, u, f0, f1) → 2 GEMMs (i/o/u weight-stacked,
    // f0/f1 row-stacked): a 2.5× launch reduction, every site served.
    assert!(sg.waves_batched > 0);
    assert_eq!(sg.sites_batched, 5 * sg.waves_batched, "5 sites/wave");
    assert_eq!(sg.wave_gemms, 2 * sg.waves_batched, "stacked: 2 GEMMs/wave");
    assert_eq!(
        sg.stacked_sites, sg.sites_batched,
        "all 5 sites share GEMMs"
    );
}

#[test]
fn executors_agree_across_random_schedules() {
    use cortex::core::ra::{BarrierMode, LeafCheckMode};
    let mut rng = Rng::new(0x52);
    for _ in 0..12 {
        let schedule = RaSchedule {
            specialize: rng.bool(),
            persist: rng.bool(),
            dense_intermediates: rng.bool(),
            leaf_check: if rng.bool() {
                LeafCheckMode::Numbering
            } else {
                LeafCheckMode::Load
            },
            barrier: if rng.bool() {
                BarrierMode::Conservative
            } else {
                BarrierMode::DependenceAware
            },
            peel: if rng.bool() {
                Some(rng.range_usize(2, 4))
            } else {
                None
            },
            ..RaSchedule::default()
        };
        let h = rng.range_usize(3, 9);
        let model = treelstm::tree_lstm(h, LeafInit::Embedding);
        let structure = structure_for(&model, &mut rng);
        let program = model.lower(&schedule).unwrap();
        let lin = Linearizer::new().linearize(&structure).unwrap();
        let (out_s, prof_s) = Engine::per_element(&program, ExecOptions::default())
            .execute(&lin, &model.params, true)
            .unwrap();
        let (out_w, prof_w) = Engine::new(&program)
            .execute(&lin, &model.params, true)
            .unwrap();
        let ctx = format!("TreeLSTM h={h} schedule={schedule:?}");
        for (id, t_s) in &out_s {
            assert!(out_w[id].all_close(t_s, 1e-5), "{ctx}");
        }
        assert_profiles_identical(&prof_s, &prof_w, &ctx);
    }
}

#[test]
fn batched_engine_matches_reference_models_at_paper_width() {
    // The acceptance-bar check at realistic width: TreeLSTM h=64 on a
    // ≥256-node forest, batched engine vs the pure-Rust reference.
    use cortex::models::reference;
    let h = 64;
    let model = treelstm::tree_lstm(h, LeafInit::Embedding);
    let corpus = datasets::sentiment_treebank(16, 9);
    let refs: Vec<&RecStructure> = corpus.iter().collect();
    let forest = RecStructure::merge(&refs);
    assert!(forest.num_nodes() >= 256);
    let want = reference::tree_lstm(&forest, &model.params, h, LeafInit::Embedding);

    let program = model.lower(&RaSchedule::default()).unwrap();
    let lin = Linearizer::new().linearize(&forest).unwrap();
    let mut engine = Engine::new(&program);
    assert!(
        engine.num_wave_plans() > 0,
        "TreeLSTM must take the batched path"
    );
    let (out, _) = engine.execute(&lin, &model.params, true).unwrap();
    let got = &out[&model.output];
    for n in forest.iter() {
        let id = lin.from_structure_id(n) as usize;
        for i in 0..h {
            let g = got[[id, i]];
            let w = want.h[n.index()][i];
            assert!((g - w).abs() < 1e-4, "node {n} elem {i}: {g} vs {w}");
        }
    }
}

/// The nine models of the zoo, the vector ones at `h` and the rank-2
/// MV-RNN (an `h × h` matrix per node) at `mv_h`.
fn nine_models(h: usize, mv_h: usize) -> Vec<Model> {
    let mut all = models(h);
    all[4] = mvrnn::mv_rnn(mv_h);
    all.push(treegru::simple_tree_gru(h, LeafInit::Embedding));
    all.push(seq::seq_gru(h));
    all
}

/// MV-RNN where its per-node products fill whole tiles and panels
/// (h = 16) and where they leave partial ones (h = 33): the first case of
/// each bit-identity suite runs them too.
fn wide_mv_rnns(case: u64) -> Vec<Model> {
    match case {
        0 => vec![mvrnn::mv_rnn(16), mvrnn::mv_rnn(33)],
        _ => Vec::new(),
    }
}

/// A forest of `parts` structures for `model`, each of `size`: leaves
/// of a tree, steps of a sequence, columns of a three-row grid.
fn forest_of(model: &Model, parts: usize, size: usize, rng: &mut Rng) -> RecStructure {
    let parts: Vec<RecStructure> = (0..parts)
        .map(|_| {
            let seed = rng.next_u64();
            match model.name.as_str() {
                "DAG-RNN" => datasets::grid_dag(3, size.min(4), seed),
                "LSTM" | "GRU" => datasets::sequence(size, seed),
                _ => datasets::random_binary_tree(size, seed),
            }
        })
        .collect();
    RecStructure::merge(&parts.iter().collect::<Vec<_>>())
}

/// The lane pool changes who computes an element, never how: with
/// forks pinned to one lane (`par::with_lanes(1, ..)`) and on every
/// lane the box has, outputs **and** `Profile` are `==`, solo and
/// through `execute_many` of 16, for all nine models. At the paper's
/// width the first request is a forest wide enough that a solo run's
/// wave GEMMs (split by weight panels) and fused epilogues (split by
/// rows) really fork — asserted, wherever there is a second lane. A
/// batch splits into lane groups instead, each pinned to its own lane,
/// so no launch inside one forks, and the one long request beside
/// fifteen short ones lands in a group of its own. At the width of the
/// benchmark's `zoo_small`, on structures as large as its largest, no
/// solo launch may reach a threshold. Run under `--features
/// cortex-backend/checked` too: the shadow hooks see the same accesses
/// in the same order on any lane count.
#[test]
fn one_lane_and_all_lanes_agree_exactly_and_large_launches_fork() {
    use cortex::backend::exec::ExecStats;
    use cortex::tensor::par;
    let mut rng = Rng::new(0x55);
    for (h, mv_h, wide) in [(256, 64, true), (32, 16, false)] {
        for model in nine_models(h, mv_h) {
            let program = model.lower(&RaSchedule::default()).unwrap();
            let lins: Vec<_> = (0..16)
                .map(|r| {
                    let forest = match (wide, r) {
                        (true, 0) => forest_of(&model, 16, 6, &mut rng),
                        (true, _) => forest_of(&model, 1, 4, &mut rng),
                        (false, _) => forest_of(&model, 1, 18 + 18 * (r % 2), &mut rng),
                    };
                    Linearizer::new().linearize(&forest).unwrap()
                })
                .collect();
            let refs: Vec<_> = lins.iter().collect();
            // (solo stats, batched stats) and every output of a side.
            let side = |lanes: usize| {
                par::with_lanes(lanes, || {
                    let mut engine = Engine::new(&program);
                    let solo = engine.execute(&lins[0], &model.params, true).unwrap();
                    let solo_stats = engine.stats();
                    let many = engine.execute_many(&refs, &model.params, true).unwrap();
                    ((solo_stats, engine.stats()), solo, many)
                })
            };
            let (one_stats, one_solo, one_many) = side(1);
            let (all_stats, all_solo, all_many) = side(par::MAX_LANES);
            let ctx = format!("{} h={}", model.name, model.hidden);
            assert_eq!(one_solo, all_solo, "solo, one lane vs all: {ctx}");
            assert_eq!(one_many, all_many, "execute_many, one lane vs all: {ctx}");
            assert_eq!(one_many[0], one_solo, "batched vs solo: {ctx}");
            let forks = |s: &ExecStats| (s.forked_gemms, s.forked_waves);
            let ((one, one_batch), (all, all_batch)) = (one_stats, all_stats);
            assert_eq!(forks(&one), (0, 0), "solo on one lane: {ctx}");
            if wide && par::lanes() > 1 {
                assert!(all.forked_gemms > 0, "solo GEMMs: {ctx}: {all:?}");
                assert!(all.forked_waves > 0, "solo waves: {ctx}: {all:?}");
            } else {
                assert_eq!(forks(&all), (0, 0), "solo at zoo size: {ctx}");
            }
            assert_eq!(
                (one.wave_gemms, one.fused_waves),
                (all.wave_gemms, all.fused_waves),
                "solo: the schedule does not depend on lanes: {ctx}"
            );
            assert_eq!(
                (forks(&one_batch), forks(&all_batch)),
                ((0, 0), (0, 0)),
                "execute_many: nothing inside a lane group forks: {ctx}"
            );
            assert_eq!(
                one_batch.fused_waves, all_batch.fused_waves,
                "execute_many: every request fuses the same waves: {ctx}"
            );
        }
    }
}

/// However the lanes split a batch, `execute_many` is solo `execute` per
/// request, outputs and `Profile` `==`: on 1, 2 and 4 lanes, for all
/// nine models on both runtimes, batches of 1, 2, 3 and 16 — fewer
/// requests than lanes, and one long request among fifteen short ones.
#[test]
fn execute_many_equals_solo_on_every_lane_count() {
    use cortex::tensor::par;
    let mut rng = Rng::new(0x31);
    for model in nine_models(16, 8) {
        let program = model.lower(&RaSchedule::default()).unwrap();
        let lins: Vec<_> = (0..16)
            .map(|r| {
                let forest = match r {
                    0 => forest_of(&model, 6, 8, &mut rng),
                    _ => forest_of(&model, 1, 2 + r % 5, &mut rng),
                };
                Linearizer::new().linearize(&forest).unwrap()
            })
            .collect();
        for opts in [ExecOptions::default(), ExecOptions::interpreted()] {
            let mut solo = Engine::with_options(&program, opts);
            let want: Vec<_> = (lins.iter())
                .map(|l| solo.execute(l, &model.params, true).unwrap())
                .collect();
            for lanes in [1, 2, 4] {
                par::with_lanes(lanes, || {
                    let mut engine = Engine::with_options(&program, opts);
                    for n in [1, 2, 3, 16] {
                        let refs: Vec<_> = lins[..n].iter().collect();
                        let got = engine.execute_many(&refs, &model.params, true).unwrap();
                        let ctx = format!("{} {opts:?}, {lanes} lanes, {n}", model.name);
                        assert!(got == want[..n], "{ctx}");
                    }
                });
            }
        }
    }
}

/// Builds a DAG-RNN-like model whose child guards sit *outside* the
/// reductions — `select(slot < nc(n), Σ_k U[i,k]·h[child(n),k], 0)` —
/// the natural user formulation the wave analyzer now batches with a
/// recorded select guard (the gather phase zero-fills guarded-off rows
/// without resolving their NO_CHILD indirections).
fn guard_outside_model(
    h: usize,
) -> (
    cortex::core::ilir::IlirProgram,
    cortex::backend::params::Params,
) {
    use cortex::backend::params::Params;
    use cortex::core::expr::{BoolExpr, CmpOp, IdxExpr, Ufn, ValExpr};
    use cortex::core::lower::{lower, StructureInfo};
    use cortex::core::ra::RaGraph;
    use cortex::tensor::Tensor;

    let vocab = datasets::VOCAB_SIZE as usize;
    let mut g = RaGraph::new();
    let u = g.input("U", &[h, h]);
    let emb = g.input("Emb", &[vocab, h]);
    let ph = g.placeholder("ph", &[h]);
    let leaf = g.compute("leaf", &[h], |c| c.read(emb, &[c.node().word(), c.axis(0)]));
    let rec = g.compute("rec", &[h], |c| {
        let i = c.axis(0);
        let node = c.node();
        let mut acc: Option<ValExpr> = None;
        for slot in 0..2u8 {
            let child = IdxExpr::Ufn(Ufn::Child(slot), vec![node.clone()]);
            let mv = c.sum(h, |c, k| {
                c.read(u, &[i.clone(), k.clone()])
                    .mul(c.read(ph, &[child.clone(), k]))
            });
            let guarded = ValExpr::Select {
                cond: BoolExpr::Cmp(
                    CmpOp::Lt,
                    IdxExpr::Const(i64::from(slot)),
                    IdxExpr::Ufn(Ufn::NumChildren, vec![node.clone()]),
                ),
                then: Box::new(mv),
                otherwise: Box::new(ValExpr::Const(0.0)),
            };
            acc = Some(match acc {
                None => guarded,
                Some(prev) => prev.add(guarded),
            });
        }
        acc.expect("two slots").tanh()
    });
    let body = g.if_then_else("body", leaf, rec).unwrap();
    let rnn = g.recursion(ph, body).unwrap();
    g.mark_output(rnn);

    let program = lower(
        &g,
        &RaSchedule::default(),
        StructureInfo { max_children: 2 },
    )
    .unwrap();
    let mut params = Params::new();
    params.set("U", Tensor::random(&[h, h], 0.4, 1));
    params.set("Emb", Tensor::random(&[vocab, h], 0.4, 2));
    (program, params)
}

/// The Select-guarded tentpole: a guard formulated *outside* the
/// reduction must now run on the batched + bulk path — with outputs and
/// `Profile` counters **exactly** matching the scalar path. Grid DAGs
/// exercise the guard both ways: border internal nodes have a single
/// child, so slot 1's select takes the zero arm there (its `child` is
/// NO_CHILD and must never be resolved).
#[test]
fn guard_outside_reduction_batches_and_agrees_exactly() {
    let mut rng = Rng::new(0x58);
    // Eight narrow widths, then three past one and two vectors of every
    // SIMD level: the per-element path and the wave GEMM run the same
    // k-sequential chain, so `==` holds at any reduction length.
    for case in 0..11 {
        let h = match case {
            0..8 => rng.range_usize(3, 12),
            _ => [16, 33, 70][case as usize - 8],
        };
        let (program, params) = guard_outside_model(h);
        let d = datasets::grid_dag(rng.range_usize(2, 7), rng.range_usize(2, 7), 3 + case);
        let lin = Linearizer::new().linearize(&d).unwrap();

        let (out_s, prof_s) = Engine::per_element(&program, ExecOptions::default())
            .execute(&lin, &params, true)
            .unwrap();
        let mut batched = Engine::new(&program);
        let (out_w, prof_w) = batched.execute(&lin, &params, true).unwrap();
        let ctx = format!("guard outside reduction h={h} case={case}");
        for (id, t_s) in &out_s {
            assert_eq!(&out_w[id], t_s, "bulk serving is bit-exact ({ctx})");
        }
        assert_profiles_identical(&prof_s, &prof_w, &ctx);
        let stats = batched.stats();
        assert!(
            stats.sites_batched > 0,
            "{ctx}: guarded sums must batch as wave GEMMs, got {stats:?}"
        );
        assert!(
            stats.fused_waves > 0,
            "{ctx}: the select epilogue must run as fused bulk passes"
        );
    }
}

/// An MV-RNN-like cell whose only reduction is a per-node product:
/// `rec(n)[i] = tanh(Σ_k Emb_M[word(n) % 64, i, k] · (h[child₀(n), k] +
/// (1 < nc(n) ? h[child₁(n), k] : 0)))` — the matrix varies per node, and
/// the vector side is a sum of two child rows, one behind a guard whose
/// `num_children` loads the gather replays per served element.
fn per_node_only_model(
    h: usize,
) -> (
    cortex::core::ilir::IlirProgram,
    cortex::backend::params::Params,
) {
    use cortex::backend::params::Params;
    use cortex::core::expr::{BoolExpr, CmpOp, IdxBinOp, IdxExpr, Ufn, ValExpr};
    use cortex::core::lower::{lower, StructureInfo};
    use cortex::core::ra::RaGraph;
    use cortex::tensor::Tensor;

    let vocab = datasets::VOCAB_SIZE as usize;
    let mut g = RaGraph::new();
    let emb = g.input("Emb", &[vocab, h]);
    let emb_m = g.input("Emb_M", &[64, h, h]);
    let ph = g.placeholder("ph", &[h]);
    let leaf = g.compute("leaf", &[h], |c| c.read(emb, &[c.node().word(), c.axis(0)]));
    let rec = g.compute("rec", &[h], |c| {
        let i = c.axis(0);
        let node = c.node();
        let row = IdxExpr::Bin(
            IdxBinOp::Rem,
            Box::new(node.clone().word()),
            Box::new(IdxExpr::Const(64)),
        );
        c.sum(h, |c, k| {
            let second = ValExpr::Select {
                cond: BoolExpr::Cmp(
                    CmpOp::Lt,
                    IdxExpr::Const(1),
                    IdxExpr::Ufn(Ufn::NumChildren, vec![node.clone()]),
                ),
                then: Box::new(c.read(ph, &[node.clone().child(1), k.clone()])),
                otherwise: Box::new(ValExpr::Const(0.0)),
            };
            let y = c.read(ph, &[node.clone().child(0), k.clone()]).add(second);
            c.read(emb_m, &[row.clone(), i.clone(), k]).mul(y)
        })
        .tanh()
    });
    let body = g.if_then_else("body", leaf, rec).unwrap();
    let rnn = g.recursion(ph, body).unwrap();
    g.mark_output(rnn);
    let program = lower(
        &g,
        &RaSchedule::default(),
        StructureInfo { max_children: 2 },
    )
    .unwrap();
    let mut params = Params::new();
    params.set("Emb", Tensor::random(&[vocab, h], 0.4, 3));
    params.set("Emb_M", Tensor::random(&[64, h, h], 0.4, 4));
    (program, params)
}

/// A wave whose sites are all per-node products defers nothing, so it
/// never parks under `execute_many`: a batch of such requests runs no
/// wave GEMM and no super-wave, and still equals its solo runs and the
/// oracle's, on one lane and on two — and the scalar path's `Profile`.
#[test]
fn per_node_product_waves_never_park() {
    use cortex::tensor::par;
    for h in [5, 16, 33] {
        let (program, params) = per_node_only_model(h);
        let lins: Vec<_> = (0..6u64)
            .map(|s| {
                let tree = datasets::random_binary_tree(2 + 3 * s as usize, 40 + s);
                Linearizer::new().linearize(&tree).unwrap()
            })
            .collect();
        let refs: Vec<_> = lins.iter().collect();
        let mut solo = Engine::new(&program);
        let want: Vec<_> = (lins.iter())
            .map(|l| solo.execute(l, &params, true).unwrap())
            .collect();
        let mut oracle = Engine::with_options(&program, ExecOptions::interpreted());
        let mut scalar = Engine::per_element(&program, ExecOptions::default());
        for (l, (out, prof)) in lins.iter().zip(&want) {
            assert!(oracle.execute(l, &params, true).unwrap() == (out.clone(), prof.clone()));
            let (out_s, prof_s) = scalar.execute(l, &params, true).unwrap();
            for (id, t_s) in &out_s {
                assert!(out[id].all_close(t_s, 1e-5), "h={h}: wave vs scalar");
            }
            assert_profiles_identical(&prof_s, prof, &format!("per-node only h={h}"));
        }
        for lanes in [1, 2] {
            let mut engine = Engine::new(&program);
            let got = par::with_lanes(lanes, || engine.execute_many(&refs, &params, true).unwrap());
            assert!(got == want, "h={h}, {lanes} lanes: batched equals solo");
            let stats = engine.stats();
            assert!(stats.sites_batched > 0, "h={h}: {stats:?}");
            assert_eq!(
                (stats.wave_gemms, stats.super_gemms, stats.fallback_sites),
                (0, 0, 0),
                "h={h}: nothing deferred, nothing merged"
            );
        }
    }
}

/// The cross-request super-wave tentpole: `run_many` over K random
/// inputs must produce outputs **bit-for-bit** equal and `Profile`
/// counters **exactly** equal to K independent `run` calls — the merged
/// GEMM computes every output element from the same rows, weights and
/// reduction order, and all accounting stays per-request. Covers mixed
/// depths (a batch mixes deep and shallow inputs), rank-2 sites
/// (MV-RNN), sequences (the width-1 → width-K case), and DAG inputs
/// whose guarded sites individually fall back to the scalar path.
#[test]
fn execute_many_equals_independent_runs_exactly() {
    let mut rng = Rng::new(0x56);
    for case in 0..4 {
        let h = rng.range_usize(3, 10);
        let zoo = [
            treelstm::tree_lstm(h, LeafInit::Embedding),
            treegru::tree_gru(h, LeafInit::Embedding),
            mvrnn::mv_rnn(h),
            seq::seq_lstm(h),
            dagrnn::dag_rnn(h),
        ];
        for model in zoo.into_iter().chain(wide_mv_rnns(case)) {
            let k = rng.range_usize(2, 6);
            let structures: Vec<RecStructure> = (0..k)
                .map(|i| {
                    let seed = rng.next_u64();
                    match model.name.as_str() {
                        "DAG-RNN" => {
                            datasets::grid_dag(rng.range_usize(2, 5), rng.range_usize(2, 5), seed)
                        }
                        "LSTM" => datasets::sequence(rng.range_usize(1, 20), seed),
                        // Mixed depths on purpose: request 0 is tiny
                        // (often a single wave or leaf-only), later
                        // requests grow.
                        _ => datasets::random_binary_tree(1 + 5 * i, seed),
                    }
                })
                .collect();
            let lins: Vec<_> = structures
                .iter()
                .map(|s| Linearizer::new().linearize(s).unwrap())
                .collect();
            let refs: Vec<&_> = lins.iter().collect();

            for nonlinearity in NONLINEARITIES {
                let program = lower_in(&model, nonlinearity);
                let mut engine = Engine::new(&program);
                let many = engine.execute_many(&refs, &model.params, true).unwrap();
                assert_eq!(many.len(), k);

                let mut solo_engine = Engine::new(&program);
                for (r, (out_m, prof_m)) in many.iter().enumerate() {
                    let (out_s, prof_s) =
                        solo_engine.execute(&lins[r], &model.params, true).unwrap();
                    let ctx = format!(
                        "{} h={h} case={case} {nonlinearity:?} request={r}/{k}",
                        model.name
                    );
                    assert_eq!(out_m.len(), out_s.len(), "{ctx}");
                    for (id, t_s) in &out_s {
                        assert_eq!(
                            &out_m[id], t_s,
                            "batched output must be bit-identical ({ctx})"
                        );
                    }
                    assert_profiles_identical(&prof_s, prof_m, &ctx);
                }
            }
        }
    }
}

/// The seq-LSTM at h = 12 and `k` length-40 sequences for it.
fn equal_sequences(k: u64) -> (Model, Vec<cortex::ds::linearizer::Linearized>) {
    let model = seq::seq_lstm(12);
    let lins = (0..k)
        .map(|s| {
            Linearizer::new()
                .linearize(&datasets::sequence(40, s))
                .unwrap()
        })
        .collect();
    (model, lins)
}

/// Merging must actually amortize: K equal-length queued sequences run
/// ~K× fewer wave GEMMs than K solo runs, with every merged GEMM
/// serving all K requests. Pinned to one lane, where the batch is one
/// lane group.
#[test]
fn execute_many_amortizes_gemm_launches_across_requests() {
    use cortex::tensor::par;
    let k = 8usize;
    let (model, lins) = equal_sequences(k as u64);
    let program = model.lower(&RaSchedule::default()).unwrap();
    let refs: Vec<&_> = lins.iter().collect();

    let mut engine = Engine::new(&program);
    par::with_lanes(1, || engine.execute_many(&refs, &model.params, true)).unwrap();
    let many_stats = engine.stats();

    let mut solo = Engine::new(&program);
    solo.execute(&lins[0], &model.params, true).unwrap();
    let solo_stats = solo.stats();

    assert!(many_stats.super_gemms > 0, "merging must engage");
    assert_eq!(
        many_stats.wave_gemms, solo_stats.wave_gemms,
        "K equal-depth requests collapse to one GEMM per wave: the \
         batch launches exactly what one request launches alone"
    );
    let mean_requests = many_stats.super_gemm_requests as f64 / many_stats.super_gemms as f64;
    assert!(
        (mean_requests - k as f64).abs() < 1e-9,
        "every merged GEMM serves all {k} requests, got {mean_requests}"
    );
    assert_eq!(
        many_stats.gemm_rows,
        k as u64 * solo_stats.gemm_rows,
        "super-waves carry Σ rows"
    );
}

/// The two-lane counterpart: the batch splits into one lane group per
/// lane (two of 4 where the box has a second CPU), and each group's
/// GEMMs serve all of that group's requests — one GEMM per wave per
/// group. Outputs stay those of the one-group run.
#[test]
fn execute_many_merges_within_each_lane_group() {
    use cortex::tensor::par;
    let k = 8usize;
    let (model, lins) = equal_sequences(k as u64);
    let program = model.lower(&RaSchedule::default()).unwrap();
    let refs: Vec<&_> = lins.iter().collect();
    let mut solo = Engine::new(&program);
    solo.execute(&lins[0], &model.params, true).unwrap();
    let solo_stats = solo.stats();
    let one_group = par::with_lanes(1, || {
        Engine::new(&program).execute_many(&refs, &model.params, true)
    });

    let mut engine = Engine::new(&program);
    let (groups, many) = par::with_lanes(2, || {
        let groups = par::lanes();
        (groups, engine.execute_many(&refs, &model.params, true))
    });
    assert_eq!(many.unwrap(), one_group.unwrap(), "groups change no output");
    let stats = engine.stats();
    assert_eq!(
        stats.wave_gemms,
        groups as u64 * solo_stats.wave_gemms,
        "one GEMM per wave per lane group"
    );
    assert_eq!(
        stats.super_gemm_requests,
        k as u64 * solo_stats.wave_gemms,
        "every merged GEMM serves its whole group of {}",
        k / groups
    );
    assert_eq!(stats.gemm_rows, k as u64 * solo_stats.gemm_rows);
    assert_eq!((stats.forked_gemms, stats.forked_waves), (0, 0));
}

/// Every MV-RNN sum is a wave site. Its first loop holds four per-node
/// products (`mva`/`mvb`'s child-matrix matvecs `A_r·a_l`, `A_l·a_r` and
/// `A_rec`'s `W_M1·A_l`, `W_M2·A_r`), each one small GEMM per node; its
/// second loop holds `a_rec`'s two gates, one wave GEMM each. So 6 sites
/// batch per depth, only `W_1` and `W_2` pack, and the wave GEMMs
/// gather one row per node.
#[test]
fn mvrnn_rank2_sites_batch_as_wave_gemms() {
    let h = 8;
    let model = mvrnn::mv_rnn(h);
    let tree = datasets::random_binary_tree(20, 11);
    let program = model.lower(&RaSchedule::default()).unwrap();
    let lin = Linearizer::new().linearize(&tree).unwrap();
    let mut engine = Engine::new(&program);
    let (_, _) = engine.execute(&lin, &model.params, true).unwrap();
    let stats = engine.stats();
    let depths = lin.internal_batches().len() as u64;
    assert!(depths > 0);
    assert_eq!(
        stats.waves_batched,
        2 * depths,
        "both loops batch per depth"
    );
    assert_eq!(
        stats.sites_batched,
        6 * depths,
        "mva, mvb, A_rec's two products and a_rec's two gates all batch"
    );
    assert_eq!(stats.fallback_sites, 0);
    assert_eq!(
        stats.weight_packs, 2,
        "W_1 and W_2 pack; a per-node product packs only run scratch"
    );
    // Per-node products run in the gather: the wave GEMMs are the two
    // gates of each depth, one row per node.
    let internal_nodes: u64 = lin.internal_batches().iter().map(|b| b.len() as u64).sum();
    assert_eq!(stats.wave_gemms, 2 * depths);
    assert_eq!(stats.gemm_rows, 2 * internal_nodes);
    engine.execute(&lin, &model.params, true).unwrap();
    assert_eq!(engine.stats().weight_packs, 0, "a warm run packs nothing");
}

/// The packed-weight cache persists per `(model, params generation)`:
/// repeated runs — and every request of a batch — reuse the packs; a
/// parameter rebind invalidates them.
#[test]
fn weight_packs_amortize_across_runs_and_requests() {
    let mut model = treelstm::tree_lstm(10, LeafInit::Embedding);
    let program = model.lower(&RaSchedule::default()).unwrap();
    let lins: Vec<_> = (0..4u64)
        .map(|s| {
            Linearizer::new()
                .linearize(&datasets::random_binary_tree(12, s))
                .unwrap()
        })
        .collect();
    let refs: Vec<&_> = lins.iter().collect();

    let mut engine = Engine::new(&program);
    engine.execute(&lins[0], &model.params, true).unwrap();
    let first = engine.stats().weight_packs;
    assert!(first > 0, "first run packs");
    engine.execute(&lins[1], &model.params, true).unwrap();
    assert_eq!(engine.stats().weight_packs, 0, "second run reuses packs");

    engine.execute_many(&refs, &model.params, true).unwrap();
    assert_eq!(
        engine.stats().weight_packs,
        0,
        "a whole batch reuses the packs too — weights amortize across requests"
    );

    // Rebinding a parameter invalidates the cache (fresh generation).
    let w = model.params.get("U_i").unwrap().clone();
    model.params.set("U_i", w);
    engine.execute(&lins[0], &model.params, true).unwrap();
    assert!(
        engine.stats().weight_packs > 0,
        "parameter rebind must repack"
    );
}

/// Bulk serving (strided row passes + fused whole-wave epilogues) must
/// be **bit-identical** to per-element serving from the same wave GEMMs
/// — outputs and `Profile` both — across every model, including the
/// rank-2 store loops (MV-RNN) and Select-guarded DAGs this PR moved
/// onto the bulk path.
#[test]
fn bulk_serving_is_bit_identical_to_per_element_serving() {
    let mut rng = Rng::new(0x59);
    for case in 0..6 {
        let h = rng.range_usize(3, 14);
        for model in nine_models(h, h).into_iter().chain(wide_mv_rnns(case)) {
            let structure = structure_for(&model, &mut rng);
            let lin = Linearizer::new().linearize(&structure).unwrap();

            // Both nonlinearity modes: the row programs and the
            // per-element walk share one lane definition of each.
            for nonlinearity in NONLINEARITIES {
                let program = lower_in(&model, nonlinearity);
                let on = ExecOptions::default();
                let mut bulk = Engine::with_options(&program, on);
                let (out_b, prof_b) = bulk.execute(&lin, &model.params, true).unwrap();
                let mut per_elem =
                    Engine::with_options(&program, ExecOptions { bulk: false, ..on });
                let (out_p, prof_p) = per_elem.execute(&lin, &model.params, true).unwrap();

                let ctx = format!("{} h={h} case={case} {nonlinearity:?}", model.name);
                for (id, t_p) in &out_p {
                    assert_eq!(&out_b[id], t_p, "bulk must be bit-identical ({ctx})");
                }
                assert_profiles_identical(&prof_p, &prof_b, &ctx);
                assert_eq!(per_elem.stats().fused_waves, 0, "{ctx}: bulk off");
                assert_eq!(per_elem.stats().epilogue_ns, 0, "{ctx}: bulk off");
            }
        }
    }
}

/// With every sum wave-served, both MV-RNN loops of each depth fuse, and
/// the rank-2 stores (`A_rec`, `A_leaf`) sweep as planes: one `H·H`-lane
/// pass per node. The per-node products run the per-element walk's
/// k-sequential chains, so the outputs agree with the scalar path's and
/// the `Profile`s are equal.
#[test]
fn mvrnn_rank2_store_loops_bulk_serve() {
    let h = 10;
    let model = mvrnn::mv_rnn(h);
    let tree = datasets::random_binary_tree(24, 13);
    let program = model.lower(&RaSchedule::default()).unwrap();
    let lin = Linearizer::new().linearize(&tree).unwrap();

    let mut engine = Engine::new(&program);
    // Observed before the run, so the run times its phases.
    engine.stats();
    let (out_b, prof_b) = engine.execute(&lin, &model.params, true).unwrap();
    let stats = engine.stats();
    let depths = lin.internal_batches().len() as u64;
    assert_eq!(
        stats.fused_waves,
        2 * depths + 1,
        "both loops of every depth and the leaf wave fuse"
    );
    assert!(stats.epilogue_ns > 0, "epilogue time must be accounted");
    // A node's row streams, at 4 bytes a lane: `A_rec` is one plane (two
    // product blocks in, the matrix out) beside the four `H`-wide
    // mva/mvb rows; `a_rec` reads two gate rows and `b`, stores `a`;
    // a leaf copies its `a` and its `A` plane.
    let h2 = (h * h) as u64;
    let internal: u64 = lin.internal_batches().iter().map(|b| b.len() as u64).sum();
    let leaves = lin.leaf_batch().len() as u64;
    let want =
        4 * (internal * (4 * h as u64 + 3 * h2 + 4 * h as u64) + leaves * (2 * h as u64 + 2 * h2));
    assert_eq!(stats.epilogue_bytes, want, "one plane per rank-2 store");

    let (out_s, prof_s) = Engine::per_element(&program, ExecOptions::default())
        .execute(&lin, &model.params, true)
        .unwrap();
    for (id, t_s) in &out_s {
        assert!(out_b[id].all_close(t_s, 1e-4), "rank-2 bulk diverges");
    }
    assert_profiles_identical(&prof_s, &prof_b, "MV-RNN rank-2 bulk");
}

/// The `Rational` nonlinearity mode (App. A.5, `RaSchedule::nonlinearity`)
/// must stay within 1e-4 of the exact-mode results end-to-end on every
/// model — including 100-step sequences and 10×10 grid DAGs, where
/// per-application error could compound — while leaving every `Profile`
/// counter untouched (the modes differ in arithmetic, never in
/// accounting).
#[test]
fn rational_nonlinearity_bounds_error_and_keeps_profile_exact() {
    let mut rng = Rng::new(0x5a);
    for case in 0..4 {
        let h = rng.range_usize(4, 20);
        for model in models(h) {
            let structure = structure_for(&model, &mut rng);
            let lin = Linearizer::new().linearize(&structure).unwrap();

            let (out_e, prof_e) = Engine::new(&lower_in(&model, NonlinearityMode::Exact))
                .execute(&lin, &model.params, true)
                .unwrap();
            let (out_r, prof_r) = Engine::new(&lower_in(&model, NonlinearityMode::Rational))
                .execute(&lin, &model.params, true)
                .unwrap();
            let ctx = format!("{} h={h} case={case}", model.name);
            for (id, t_e) in &out_e {
                assert!(
                    out_r[id].all_close(t_e, 1e-4),
                    "rational mode exceeds 1e-4 ({ctx}): {:?}",
                    out_r[id].max_abs_diff(t_e)
                );
            }
            assert_profiles_identical(&prof_e, &prof_r, &ctx);
        }
    }
}

/// Regression for the bulk-plan keying fix: plans are compiled once per
/// engine and keyed by `(kernel, statement)`, so two engines serving
/// different models — including engines created after another was
/// dropped, when the allocator may reuse statement addresses — can
/// never serve one model's store loop from another's plan. Interleaved
/// execution must match fresh solo runs exactly.
#[test]
fn bulk_plans_never_collide_across_models_or_engines() {
    let h = 6;
    let model_a = treelstm::tree_lstm(h, LeafInit::Embedding);
    let model_b = dagrnn::dag_rnn(h);
    let prog_a = model_a.lower(&RaSchedule::default()).unwrap();
    let prog_b = model_b.lower(&RaSchedule::default()).unwrap();
    let lin_a = Linearizer::new()
        .linearize(&datasets::random_binary_tree(14, 3))
        .unwrap();
    let lin_b = Linearizer::new()
        .linearize(&datasets::grid_dag(4, 4, 4))
        .unwrap();
    let (ref_a, prof_a) = Engine::new(&prog_a)
        .execute(&lin_a, &model_a.params, true)
        .unwrap();
    let (ref_b, prof_b) = Engine::new(&prog_b)
        .execute(&lin_b, &model_b.params, true)
        .unwrap();

    // Interleave two live engines, and recreate one mid-stream so a
    // fresh engine's kernels can land on a dropped engine's addresses.
    let mut ea = Engine::new(&prog_a);
    for round in 0..3 {
        let mut eb = Engine::new(&prog_b);
        for _ in 0..2 {
            let (out_a, pa) = ea.execute(&lin_a, &model_a.params, true).unwrap();
            let (out_b, pb) = eb.execute(&lin_b, &model_b.params, true).unwrap();
            for (id, t) in &ref_a {
                assert_eq!(&out_a[id], t, "model A diverged (round {round})");
            }
            for (id, t) in &ref_b {
                assert_eq!(&out_b[id], t, "model B diverged (round {round})");
            }
            assert_profiles_identical(&pa, &prof_a, "model A profile");
            assert_profiles_identical(&pb, &prof_b, "model B profile");
        }
    }
}

#[test]
fn engine_reuse_across_runs_is_stable() {
    // Cached compiled kernels / packed weights / scratch must not leak
    // state between runs or inputs.
    let model = treegru::tree_gru(8, LeafInit::Embedding);
    let program = model.lower(&RaSchedule::default()).unwrap();
    let mut engine = Engine::new(&program);
    let mut baseline = Vec::new();
    for seed in 0..4u64 {
        let t = datasets::random_binary_tree(11, seed);
        let lin = Linearizer::new().linearize(&t).unwrap();
        let (out, prof) = engine.execute(&lin, &model.params, true).unwrap();
        baseline.push((out[&model.output].clone(), prof.flops));
    }
    for seed in 0..4u64 {
        let t = datasets::random_binary_tree(11, seed);
        let lin = Linearizer::new().linearize(&t).unwrap();
        let (out, prof) = engine.execute(&lin, &model.params, true).unwrap();
        assert_eq!(out[&model.output], baseline[seed as usize].0, "seed {seed}");
        assert_eq!(prof.flops, baseline[seed as usize].1, "seed {seed}");
    }
}

/// The plan runtime's correctness bar: the pc dispatch loop (the
/// default) must agree **bit-for-bit** — outputs and complete
/// `Profile`s — with the AST-walking oracle (`ExecOptions { interp:
/// true }`) walking each request alone, on all nine models: solo, and
/// through a depth-16 serving batch on one lane and on two, where the pc
/// runtime parks and resumes at super-wave flushes inside one lane group
/// or two. The oracle never parks, so this is batched pc against the
/// plainest semantics.
#[test]
fn plan_runtime_matches_interp_oracle_on_all_models() {
    use cortex::tensor::par;
    let mut rng = Rng::new(0x61);
    for case in 0..3 {
        let h = rng.range_usize(3, 12);
        for model in nine_models(h, h).into_iter().chain(wide_mv_rnns(case)) {
            // One solo input and a depth-16 serving batch (mixed shapes
            // and depths), run in both nonlinearity modes.
            let structure = structure_for(&model, &mut rng);
            let lin = Linearizer::new().linearize(&structure).unwrap();
            let lins: Vec<_> = (0..16)
                .map(|_| {
                    let s = structure_for(&model, &mut rng);
                    Linearizer::new().linearize(&s).unwrap()
                })
                .collect();
            let refs: Vec<&_> = lins.iter().collect();

            for nonlinearity in NONLINEARITIES {
                let ctx = format!("{} h={h} case={case} {nonlinearity:?}", model.name);
                let program = lower_in(&model, nonlinearity);
                let mut oracle = Engine::with_options(&program, ExecOptions::interpreted());
                let solo = oracle.execute(&lin, &model.params, true).unwrap();
                let want: Vec<_> = (lins.iter())
                    .map(|l| oracle.execute(l, &model.params, true).unwrap())
                    .collect();

                let mut pc = Engine::new(&program);
                assert!(
                    pc.plan_stats().plan_ops > 0,
                    "{ctx}: kernels must lower to a plan"
                );
                let got = pc.execute(&lin, &model.params, true).unwrap();
                assert!(got == solo, "{ctx}: solo pc outputs and profile");
                for lanes in [1, 2] {
                    let many = par::with_lanes(lanes, || {
                        pc.execute_many(&refs, &model.params, true).unwrap()
                    });
                    for (r, (got, want)) in many.iter().zip(&want).enumerate() {
                        assert!(
                            got == want,
                            "{ctx}, {lanes} lanes: request {r} pc outputs and profile"
                        );
                    }
                }
            }
        }
    }
}

/// pc-based suspension: width-1 sequence waves force every request to
/// park at **every** wave depth (a parked request is just its program
/// counter plus loop records) and resume after each merged super-wave
/// flush — mixed-length sequences exercise requests dropping out at
/// different depths. Results must stay exactly those of uninterrupted
/// solo runs.
#[test]
fn pc_suspension_parks_mid_wave_and_resumes_exactly() {
    let h = 9;
    let model = seq::seq_lstm(h);
    let program = model.lower(&RaSchedule::default()).unwrap();
    let mut engine = Engine::new(&program);

    let structures: Vec<RecStructure> = [7usize, 13, 4, 21]
        .iter()
        .enumerate()
        .map(|(i, &len)| datasets::sequence(len, 0x70 + i as u64))
        .collect();
    let lins: Vec<_> = structures
        .iter()
        .map(|s| Linearizer::new().linearize(s).unwrap())
        .collect();
    let refs: Vec<&_> = lins.iter().collect();
    let many = engine.execute_many(&refs, &model.params, true).unwrap();
    let stats = engine.stats();
    assert!(
        stats.super_gemms > 0,
        "width-1 waves must merge — otherwise nothing ever parked"
    );
    // The longest sequence (21 tokens -> 20 recursion steps) sets the
    // number of wave depths; each is one park + merged flush.
    assert!(
        stats.wave_gemms >= 20,
        "one merged launch per wave depth, got {}",
        stats.wave_gemms
    );
    for (r, (outputs, profile)) in many.iter().enumerate() {
        let (solo_out, solo_prof) = engine.execute(refs[r], &model.params, true).unwrap();
        assert_eq!(
            profile, &solo_prof,
            "request {r}: suspension must be invisible to the Profile"
        );
        for (id, t_s) in &solo_out {
            assert_eq!(&outputs[id], t_s, "request {r}: bit-exact outputs");
        }
    }
}

/// Reconfiguring a live engine must behave exactly like building a
/// fresh engine of the same build kind with the new options: every
/// option is a runtime switch or limit (`bulk`, `interp`, the admission
/// limits), so no plan or cache goes stale. Each is flipped on one
/// engine of each build kind whose caches were warmed under the
/// previous configuration.
#[test]
fn set_options_matches_fresh_engine_for_every_knob() {
    let model = treelstm::tree_lstm(10, LeafInit::Embedding);
    let program = model.lower(&RaSchedule::default()).unwrap();
    let tree = datasets::random_binary_tree(26, 0x81);
    let lin = Linearizer::new().linearize(&tree).unwrap();

    let flips: Vec<(&str, ExecOptions)> = vec![
        (
            "bulk off",
            ExecOptions {
                bulk: false,
                ..ExecOptions::default()
            },
        ),
        ("back to default", ExecOptions::default()),
        ("interp oracle", ExecOptions::interpreted()),
        (
            "admission limits",
            ExecOptions {
                memory_budget: Some(1 << 30),
                max_input_nodes: Some(1 << 20),
                max_input_depth: Some(1 << 20),
                ..ExecOptions::default()
            },
        ),
        ("default again", ExecOptions::default()),
    ];

    let build = |per_element: bool, opts| match per_element {
        false => Engine::with_options(&program, opts),
        true => Engine::per_element(&program, opts),
    };
    for (kind, per_element) in [("batched", false), ("per-element", true)] {
        let mut live = build(per_element, ExecOptions::default());
        // Warm every cache under the initial configuration.
        live.execute(&lin, &model.params, true).unwrap();
        live.execute(&lin, &model.params, true).unwrap();

        for (name, opts) in &flips {
            let (name, opts) = (format!("{kind}, {name}"), *opts);
            live.set_options(opts);
            let (out_l, prof_l) = live.execute(&lin, &model.params, true).unwrap();
            let live_stats = live.stats();

            let mut fresh = build(per_element, opts);
            let (out_f, prof_f) = fresh.execute(&lin, &model.params, true).unwrap();
            let fresh_stats = fresh.stats();

            for (id, t_f) in &out_f {
                assert_eq!(&out_l[id], t_f, "{name}: outputs must be bit-equal");
            }
            assert_eq!(prof_l, prof_f, "{name}: profiles must be identical");
            // Strategy counters prove the live engine actually switched
            // paths instead of reusing stale compiled state (weight_packs
            // legitimately differs: the fresh engine packs, the live one
            // may reuse params-keyed packs — that cache is
            // options-independent by design).
            assert_eq!(
                live_stats.wave_gemms, fresh_stats.wave_gemms,
                "{name}: wave GEMM schedule must match a fresh engine"
            );
            assert_eq!(
                live_stats.stacked_groups, fresh_stats.stacked_groups,
                "{name}: stacking must match a fresh engine"
            );
            assert_eq!(
                live_stats.sites_batched, fresh_stats.sites_batched,
                "{name}: site serving must match a fresh engine"
            );
            assert_eq!(
                live_stats.fused_waves, fresh_stats.fused_waves,
                "{name}: fused epilogues must match a fresh engine"
            );
        }
    }
}
