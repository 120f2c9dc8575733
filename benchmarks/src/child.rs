//! One round of one workload, in a fresh process: set-up, timed
//! replays, the compile loop, the correctness gate.
//!
//! The parent starts one of these per round because a process keeps
//! whatever memory layout it was dealt (about one in four runs the
//! sequence bursts ~12% faster from start to finish), and only a fresh
//! process redraws it.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

use cortex_backend::exec::Engine;
use cortex_core::ilir::IlirProgram;
use cortex_core::ra::RaSchedule;
use cortex_ds::linearizer::Linearizer;
use cortex_models::verify::compare_output;
use cortex_tensor::{kernels, simd, Tensor};

use crate::drive::Driver;
use crate::gen::{self, Inputs, Workload, BURST};
use crate::layers::{self, Metrics};
use crate::stats::{self, Better};
use crate::trace::{self, Recorder};

/// `Model::lower` + `Engine::new` repetitions behind `compile_ms`.
const COMPILE_REPS: usize = 60;
/// The trace file holds the first this-many driver-level requests of
/// the last traced replay (`seq_burst16` has sixteen in all); the
/// per-layer metrics are computed from every span of every replay.
const TRACE_FILE_REQUESTS: u32 = 64;
/// Outputs must match the reference models this closely.
const TOLERANCE: f32 = 1e-4;

/// What a child tells its parent: named numbers, and every request
/// latency and every lap time it measured, replay after replay.
#[derive(Debug, Default, PartialEq)]
pub struct Report {
    pub values: BTreeMap<String, f64>,
    pub samples_ms: Vec<f64>,
    pub laps_ms: Vec<f64>,
}

impl Report {
    /// The samples of each replay of a cycle of `requests` requests.
    pub fn replays(&self, requests: usize) -> impl Iterator<Item = &[f64]> {
        self.samples_ms.chunks(requests)
    }

    /// The lap times of each replay.
    pub fn replay_laps(&self) -> impl Iterator<Item = &[f64]> {
        self.laps_ms
            .chunks(self.laps_ms.len() / self.get("replays") as usize)
    }

    pub fn get(&self, name: &str) -> f64 {
        *self
            .values
            .get(name)
            .unwrap_or_else(|| panic!("child report lacks '{name}'"))
    }

    /// One `name value` line per number, then the samples.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.values {
            out.push_str(&format!("{name} {value}\n"));
        }
        for (name, values) in [("samples_ms", &self.samples_ms), ("laps_ms", &self.laps_ms)] {
            let words: Vec<String> = values.iter().map(f64::to_string).collect();
            out.push_str(&format!("{name} {}\n", words.join(" ")));
        }
        out
    }

    pub fn parse(text: &str) -> Result<Report, String> {
        let mut report = Report::default();
        for line in text.lines() {
            let mut words = line.split(' ').filter(|w| !w.is_empty());
            let Some(name) = words.next() else { continue };
            let numbers: Result<Vec<f64>, _> = words.map(str::parse::<f64>).collect();
            let numbers = numbers.map_err(|e| format!("child line '{name} …': {e}"))?;
            match (name, numbers.as_slice()) {
                ("samples_ms", _) => report.samples_ms = numbers,
                ("laps_ms", _) => report.laps_ms = numbers,
                (_, [value]) => {
                    report.values.insert(name.to_string(), *value);
                }
                _ => return Err(format!("child line '{name}' does not hold one number")),
            }
        }
        if report.values.is_empty() {
            return Err("child printed no report".into());
        }
        Ok(report)
    }
}

/// What the parent asks of one child.
pub struct Task<'a> {
    pub workload: Workload,
    pub seed: u64,
    /// Timed replays of the request cycle: a count, because the
    /// reported minima fall with the number of draws they are taken over.
    pub replays: usize,
    /// Which share of the requests this child checks against the
    /// reference models: those with `index % rounds == round`.
    pub round: usize,
    pub rounds: usize,
    /// `Some(dir)`: record spans and write `dir/trace_<workload>.json`.
    pub trace_dir: Option<&'a Path>,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok());
    kb.expect("VmHWM in /proc/self/status") / 1024.0
}

/// Runs the round and returns its report.
pub fn run(task: &Task<'_>) -> Report {
    let started = Instant::now();
    let workload = task.workload;
    let inputs = gen::inputs(workload, task.seed);
    let schedule = RaSchedule::default();
    let programs: Vec<IlirProgram> = inputs
        .models
        .iter()
        .map(|m| m.lower(&schedule).expect("the benchmark's models lower"))
        .collect();
    let mut driver = Driver::new(workload, &inputs, &programs);
    let mut failed = driver.replay(&inputs, &mut Recorder::off(), false).failed;
    let setup_s = started.elapsed().as_secs_f64();

    let requests = inputs.requests.len();
    let mut rec = if task.trace_dir.is_some() {
        Recorder::on()
    } else {
        Recorder::off()
    };
    let mut latencies: Vec<Vec<f64>> = Vec::new();
    let mut laps: Vec<Vec<f64>> = Vec::new();
    let mut traced: Vec<Metrics> = Vec::new();
    let mut span_room = 64 * (requests + 1);
    for _ in 0..task.replays {
        rec.start_replay(span_room);
        let replay = driver.replay(&inputs, &mut rec, false);
        failed += replay.failed;
        laps.push(replay.laps_ms);
        latencies.push(replay.latencies_ms);
        if rec.is_on() {
            span_room = 2 * rec.spans().len();
            traced.push(layers::of_replay(
                workload,
                rec.spans(),
                &replay.counters,
                requests,
            ));
        }
    }
    let replays = latencies.len();
    let mut per_request = stats::per_request_median(&latencies);
    per_request.sort_by(f64::total_cmp);

    let mut report = Report::default();
    let mut put = |name: &str, value: f64| {
        report.values.insert(name.to_string(), value);
    };
    put("setup_s", setup_s);
    // The round's conventional p50; the gated latencies are taken by
    // the parent over the samples of all rounds.
    put("round_p50_ms", stats::quantile(&per_request, 0.5));
    let mut fastest = stats::per_request_min(latencies.iter().map(Vec::as_slice));
    put("round_floor_p50_ms", stats::median(&mut fastest));
    put("models.build_ms", ms(inputs.models_build));
    for (name, value) in compile_loop(&inputs, &schedule) {
        put(name, value);
    }
    put("peak_rss_mb", peak_rss_mb());

    if let Some(dir) = task.trace_dir {
        // The last replay's spans are the ones kept in `rec`. They are
        // in time order, so the first requests' spans are a prefix.
        let spans = rec.spans();
        trace::check_well_formed(spans).expect("the recording is well formed");
        let kept = spans.partition_point(|s| s.request < TRACE_FILE_REQUESTS);
        std::fs::create_dir_all(dir).expect("create the trace directory");
        let path = dir.join(format!("trace_{}.json", workload.name()));
        let json = trace::to_json(workload.name(), task.seed, &spans[..kept]);
        std::fs::write(&path, json).expect("write the trace file");
        for (name, value) in layers::over_replays(&traced) {
            put(name, value);
        }
        for (name, value) in tensor_ceilings() {
            put(name, value);
        }
        if workload == Workload::SeqBurst16 {
            let share = batcher_overhead_share(&inputs, &programs[0]);
            put("serve.batcher_overhead_share", share);
        }
    }

    let (checked, mismatched) = check(task, &inputs, &programs, &mut driver);
    put("replays", replays as f64);
    put("requests", requests as f64);
    put("attempted", (replays * requests + checked) as f64);
    put("failed", (failed + mismatched) as f64);
    report.samples_ms = latencies.into_iter().flatten().collect();
    report.laps_ms = laps.into_iter().flatten().collect();
    report
}

/// `compile_ms` (the fastest repetition) and the compile-side layer
/// metrics (medians): the workload's whole model set lowered and built
/// [`COMPILE_REPS`] times.
fn compile_loop(inputs: &Inputs, schedule: &RaSchedule) -> Vec<(&'static str, f64)> {
    let (mut total, mut lower, mut build, mut specialize) = (vec![], vec![], vec![], vec![]);
    let (mut plan_ops, mut threaded_ops) = (0, 0);
    for _ in 0..COMPILE_REPS {
        let rep = Instant::now();
        let (mut lower_ms, mut build_ms, mut specialize_ns) = (0.0, 0.0, 0);
        (plan_ops, threaded_ops) = (0, 0);
        for model in &inputs.models {
            let t = Instant::now();
            let program = model.lower(schedule).expect("the benchmark's models lower");
            lower_ms += ms(t.elapsed());
            let t = Instant::now();
            let engine = Engine::new(&program);
            build_ms += ms(t.elapsed());
            let plan = engine.plan_stats();
            specialize_ns += plan.specialize_ns;
            plan_ops += plan.plan_ops;
            threaded_ops += plan.threaded_ops;
        }
        total.push(ms(rep.elapsed()));
        lower.push(lower_ms);
        build.push(build_ms);
        specialize.push(specialize_ns as f64 / 1e6);
    }
    vec![
        ("compile_ms", stats::best_round(&total, Better::Lower)),
        ("core.lower_ms", stats::median(&mut lower)),
        ("backend.engine_build_ms", stats::median(&mut build)),
        ("backend.specialize_ms", stats::median(&mut specialize)),
        ("backend.plan_ops", plan_ops as f64),
        ("backend.threaded_ops", threaded_ops as f64),
    ]
}

/// Seconds of one call of `f`: the fastest of nine blocks of ~10 ms.
fn time_call(mut f: impl FnMut()) -> f64 {
    let probe = Instant::now();
    f();
    let calls = (0.01 / probe.elapsed().as_secs_f64().max(1e-7)).ceil() as usize;
    let blocks: Vec<f64> = (0..9)
        .map(|_| {
            let t = Instant::now();
            (0..calls).for_each(|_| f());
            t.elapsed().as_secs_f64() / calls as f64
        })
        .collect();
    stats::best_round(&blocks, Better::Lower)
}

/// What the kernels under the engine reach when called directly, at
/// the shapes of the h=256 workloads: the ceiling for the engine's
/// GEMM time per launch and for its streaming epilogue.
fn tensor_ceilings() -> Vec<(&'static str, f64)> {
    let (n, k) = (1024, 256);
    let b = Tensor::random(&[n, k], 1.0, 2);
    let mut out = Vec::new();
    for (name, m) in [
        ("tensor.gemm_nt_gflops_m1", 1),
        ("tensor.gemm_nt_gflops_m16", 16),
        ("tensor.gemm_nt_gflops_m64", 64),
    ] {
        let a = Tensor::random(&[m, k], 1.0, 1);
        let mut c = vec![0.0f32; m * n];
        let seconds = time_call(|| {
            kernels::gemm_nt_into(&mut c, a.as_slice(), b.as_slice(), m, n, k);
            std::hint::black_box(&mut c);
        });
        out.push((name, 2.0 * (m * n * k) as f64 / seconds / 1e9));
    }
    let x = Tensor::random(&[1 << 20], 1.0, 3);
    let mut y = vec![0.0f32; 1 << 20];
    let seconds = time_call(|| {
        simd::axpy(&mut y, x.as_slice());
        std::hint::black_box(&mut y);
    });
    // Reads x and y, writes y: twelve bytes per element.
    out.push(("tensor.axpy_gb_s", 12.0 * y.len() as f64 / seconds / 1e9));
    out
}

/// The `Batcher`'s self time seen from outside: one burst through
/// `submit_many` + `drain` against the bare `Engine::execute_many` on
/// the same sixteen inputs, in alternating blocks, the fastest block of
/// each side.
fn batcher_overhead_share(inputs: &Inputs, program: &IlirProgram) -> f64 {
    let params = &inputs.models[0].params;
    let linearizer = Linearizer::new();
    let lins: Vec<_> = inputs.requests[..BURST]
        .iter()
        .map(|r| {
            linearizer
                .linearize(&r.structure)
                .expect("sequences linearize")
        })
        .collect();
    let refs: Vec<_> = lins.iter().collect();
    let mut driver = Driver::new(Workload::SeqBurst16, inputs, std::slice::from_ref(program));
    let Driver::Burst(batcher) = &mut driver else {
        unreachable!("seq_burst16 drives a batcher");
    };
    let mut engine = Engine::new(program);
    let (mut fronted, mut bare) = (Vec::new(), Vec::new());
    for block in 0..21 {
        let burst = lins.clone();
        let t = Instant::now();
        let tickets = batcher.submit_many(burst);
        std::hint::black_box((tickets, batcher.drain()));
        let through_batcher = t.elapsed().as_secs_f64();
        let t = Instant::now();
        std::hint::black_box(
            engine
                .execute_many(&refs, params, true)
                .expect("the burst runs"),
        );
        // The first block warms both sides.
        if block > 0 {
            fronted.push(through_batcher);
            bare.push(t.elapsed().as_secs_f64());
        }
    }
    stats::best_round(&fronted, Better::Lower) / stats::best_round(&bare, Better::Lower) - 1.0
}

/// The correctness gate, after timing. This round's share of the
/// requests (over the rounds, every request) must match the pure-Rust
/// reference models. Behind a `Batcher` or `Router` the responses of
/// one more whole replay are checked, and each must also equal a solo
/// `Engine::execute` of the same input exactly (`==` on every output
/// tensor and on the `Profile`, as the repository's equivalence tests do).
/// Returns `(attempted, failed)`.
fn check<'p>(
    task: &Task<'_>,
    inputs: &Inputs,
    programs: &'p [IlirProgram],
    driver: &mut Driver<'p>,
) -> (usize, usize) {
    let mut fresh;
    let (served, engines) = match driver {
        Driver::Solo(engines) => (None, engines),
        _ => {
            fresh = programs.iter().map(Engine::new).collect();
            (
                Some(driver.replay(inputs, &mut Recorder::off(), true)),
                &mut fresh,
            )
        }
    };
    let (mut attempted, mut failed) = served
        .as_ref()
        .map_or((0, 0), |r| (r.outputs.len(), r.failed));
    let linearizer = Linearizer::new();
    let share = inputs
        .requests
        .iter()
        .enumerate()
        .filter(|(i, _)| i % task.rounds == task.round);
    for (i, req) in share {
        let model = &inputs.models[req.model];
        let lin = linearizer
            .linearize(&req.structure)
            .expect("inputs linearize");
        let alone = engines[req.model].execute(&lin, &model.params, true);
        let verdict = match (&served, alone) {
            (_, Err(e)) => Err(format!("solo run failed: {e}")),
            (None, Ok((outputs, _))) => {
                attempted += 1;
                Ok(outputs)
            }
            (Some(replay), Ok((outputs, profile))) => match &replay.outputs[i] {
                None => continue, // refused or errored: counted in `replay.failed`
                Some((o, p)) if *o == outputs && *p == profile => Ok(outputs),
                Some(_) => Err("response differs from a solo run".to_string()),
            },
        };
        let verdict = verdict.and_then(|outputs| {
            let want = inputs.kinds[req.model].reference(&req.structure, model);
            compare_output(
                &outputs[&model.output],
                &lin,
                &req.structure,
                &want,
                TOLERANCE,
            )
        });
        if let Err(why) = verdict {
            eprintln!("{} request {i}: {why}", task.workload.name());
            failed += 1;
        }
    }
    (attempted, failed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reports_survive_the_pipe() {
        let mut report = Report::default();
        report
            .values
            .insert("latency_ms_p50".into(), 4.281_234_567_890_123);
        report.values.insert("backend.plan_ops".into(), 311.0);
        report.samples_ms = vec![0.1, 2.5e-3, 17.0];
        report.laps_ms = vec![1.5, 16.25];
        assert_eq!(Report::parse(&report.to_text()), Ok(report));
        assert!(Report::parse("").is_err());
        assert!(Report::parse("a 1 2\n").is_err());
        assert!(Report::parse("a x\n").is_err());
    }

    /// A traced child of every workload at a second seed: outputs pass
    /// the gate, the trace file is well formed (`run` panics otherwise)
    /// and the documented interactions between layers hold.
    #[test]
    fn traced_children_run_green_on_seed_2() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out/test");
        let run_one = |workload| {
            run(&Task {
                workload,
                seed: 2,
                replays: 3,
                round: 0,
                rounds: 3,
                trace_dir: Some(&dir),
            })
        };
        for workload in Workload::ALL {
            let report = run_one(workload);
            let name = workload.name();
            assert_eq!(report.get("failed"), 0.0, "{name}");
            assert!(
                report.get("attempted") >= 3.0 * report.get("requests"),
                "{name}"
            );
            assert_eq!(
                report.samples_ms.len() as f64,
                report.get("replays") * report.get("requests")
            );
            let laps = match workload {
                Workload::TreeSolo | Workload::ZooSmall => report.get("requests"),
                Workload::SeqBurst16 => report.get("requests") / BURST as f64,
                Workload::MixedRouter => report.get("requests") + 1.0,
            };
            assert_eq!(report.replay_laps().count(), 3, "{name}");
            assert!(
                report.replay_laps().all(|r| r.len() as f64 == laps),
                "{name}"
            );
            let serve = report.values.keys().any(|k| k.starts_with("serve."));
            let behind_serve = matches!(workload, Workload::SeqBurst16 | Workload::MixedRouter);
            assert_eq!(serve, behind_serve, "{name}");
            let text = std::fs::read_to_string(dir.join(format!("trace_{name}.json"))).unwrap();
            assert!(
                text.starts_with("{\"workload\"") && text.ends_with("]}\n"),
                "{name}"
            );
            match workload {
                Workload::TreeSolo | Workload::ZooSmall => {
                    assert_eq!(report.get("backend.requests_per_gemm"), 1.0, "{name}");
                }
                Workload::SeqBurst16 => {
                    assert!(report.get("backend.requests_per_gemm") > 8.0);
                    assert_eq!(report.get("serve.batch_size_mean"), BURST as f64);
                }
                Workload::MixedRouter => {
                    let mean = report.get("serve.batch_size_mean");
                    assert!(1.0 < mean && mean < 16.0, "{mean}");
                    assert_eq!(report.get("serve.resolved_err"), 0.0);
                }
            }
            if workload != Workload::MixedRouter {
                assert_eq!(report.get("backend.fallback_sites"), 0.0, "{name}");
            }
        }
        // Same seed, same round: the exact counts repeat. (Not the
        // allocation counts here: the counter is process-wide and other
        // tests run on parallel threads. `--selfcheck` compares those
        // between real children.)
        let (a, b) = (
            run_one(Workload::MixedRouter),
            run_one(Workload::MixedRouter),
        );
        for name in layers::EXACT.iter().filter(|n| !n.starts_with("alloc.")) {
            assert_eq!(a.values.get(*name), b.values.get(*name), "{name}");
        }
    }
}
