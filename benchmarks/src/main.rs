//! The repository's benchmark. `benchmarks/run.sh` builds and runs it;
//! `benchmarks/README.md` defines every metric it prints.
//!
//! This process only orchestrates: it starts one fresh child per round
//! and workload (rounds visit the workloads in rotated order) and
//! reports, for every piece of timed work, the fastest it was seen done
//! in any replay of any round (see `stats`).

mod child;
mod drive;
mod gen;
mod layers;
mod spec;
mod stats;
mod trace;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use child::{Report, Task};
use gen::Workload;
use layers::Metrics;
use spec::{E2E, LAYERS};
use stats::Better;

#[global_allocator]
static ALLOCATOR: trace::CountingAlloc = trace::CountingAlloc;

/// Rounds (fresh processes) behind every end-to-end number. A process
/// keeps the memory layout it was dealt, and about one in four is ~12%
/// faster on the sequence bursts: shrink the replays, never the rounds
/// below seven, or the best layout is missed too often.
const ROUNDS: usize = 9;
/// `--seconds` the replay counts of [`replays_per_child`] are sized for.
const SIZED_FOR_SECONDS: f64 = 20.0;

/// Timed replays of the cycle in one child. A count, the same on every
/// commit, because every gated time is a minimum over replays and a
/// minimum falls with the number of draws: a time box would hand a
/// faster build more draws and a slower build fewer. Sized on this box
/// so that a calm child replays for about `20 s / ROUNDS`, and scaled
/// by `--seconds`.
fn replays_per_child(workload: Workload, seconds: f64) -> usize {
    let sized = match workload {
        Workload::TreeSolo => 4.0,
        Workload::SeqBurst16 => 8.0,
        Workload::ZooSmall => 360.0,
        Workload::MixedRouter => 5.0,
    };
    ((sized * seconds / SIZED_FOR_SECONDS).round() as usize).max(2)
}

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    /// `Some(false)`: end-to-end only; `Some(true)`: per-layer only;
    /// `None`: both, for a person.
    trace: Option<bool>,
    selfcheck: bool,
    out: PathBuf,
    /// The command line of a child: run one round and print its report.
    child: bool,
    replays: usize,
    round: usize,
    rounds: usize,
    traced: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workloads: Workload::ALL.to_vec(),
        seed: 1,
        seconds: 20.0,
        trace: None,
        selfcheck: false,
        out: PathBuf::from("benchmarks/out"),
        child: false,
        replays: 2,
        round: 0,
        rounds: 1,
        traced: false,
    };
    let mut words = std::env::args().skip(1);
    while let Some(flag) = words.next() {
        let mut value = || words.next().ok_or(format!("{flag} needs a value"));
        let number = |v: String| v.parse::<f64>().map_err(|e| format!("{flag} {v}: {e}"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                let workload =
                    Workload::from_name(&name).ok_or(format!("unknown workload {name}"))?;
                args.workloads = vec![workload];
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => args.seconds = number(value()?)?,
            "--trace" => args.trace = Some(number(value()?)? != 0.0),
            "--out" => args.out = PathBuf::from(value()?),
            "--selfcheck" => args.selfcheck = true,
            "--child" => args.child = true,
            "--replays" => args.replays = (number(value()?)? as usize).max(1),
            "--round" => args.round = number(value()?)? as usize,
            "--rounds" => args.rounds = (number(value()?)? as usize).max(1),
            "--traced" => args.traced = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    if args.selfcheck && args.trace.is_some() {
        return Err("--selfcheck compares whole sets: it takes no --trace".into());
    }
    Ok(args)
}

/// Starts one child, waits for it and parses what it printed.
fn spawn(args: &Args, workload: Workload, round: usize, traced: bool) -> Result<Report, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(["--child", "--workload", workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .args([
            "--replays",
            &replays_per_child(workload, args.seconds).to_string(),
        ])
        .args([
            "--round",
            &round.to_string(),
            "--rounds",
            &ROUNDS.to_string(),
        ])
        .arg("--out")
        .arg(&args.out);
    if traced {
        command.arg("--traced");
    }
    // `output` waits for the child; its stderr goes to ours.
    let output = command
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("start a child: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "{} child (round {round}) ended with {}",
            workload.name(),
            output.status
        ));
    }
    Report::parse(&String::from_utf8_lossy(&output.stdout))
}

/// What one set of runs found for one workload.
struct Outcome {
    workload: Workload,
    /// In the order of [`E2E`]; empty for a per-layer-only run.
    e2e: Vec<f64>,
    /// Empty for an end-to-end-only run.
    layers: Metrics,
    attempted: u64,
    failed: u64,
    /// Over all rounds.
    replays: usize,
    requests: usize,
}

fn cpu_times() -> Option<(f64, f64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<f64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .take(8)
        .map(|f| f.parse().unwrap_or(0.0))
        .collect();
    (fields.len() == 8).then(|| (fields[7], fields.iter().sum()))
}

/// Runs the rounds (and the traced children) of `args.workloads`.
fn run_set(args: &Args) -> Result<Vec<Outcome>, String> {
    let (want_e2e, want_layers) = (args.trace != Some(true), args.trace != Some(false));
    let cpu_before = cpu_times();
    let workloads = &args.workloads;
    let mut reports: Vec<Vec<Report>> = workloads.iter().map(|_| Vec::new()).collect();
    for round in 0..ROUNDS {
        for turn in 0..workloads.len() {
            let w = (turn + round) % workloads.len();
            reports[w].push(spawn(args, workloads[w], round, false)?);
        }
    }
    let mut outcomes = Vec::new();
    for (&workload, rounds_of) in workloads.iter().zip(&reports) {
        let column = |name: &str| -> Vec<f64> { rounds_of.iter().map(|r| r.get(name)).collect() };
        let sum = |name: &str| column(name).iter().sum::<f64>();
        let mut outcome = Outcome {
            workload,
            e2e: Vec::new(),
            layers: Metrics::new(),
            attempted: sum("attempted") as u64,
            failed: sum("failed") as u64,
            replays: sum("replays") as usize,
            requests: rounds_of[0].get("requests") as usize,
        };
        if want_e2e {
            let replays = rounds_of.iter().flat_map(|r| r.replays(outcome.requests));
            let mut fastest = stats::per_request_min(replays);
            fastest.sort_by(f64::total_cmp);
            // The laps of a replay add up to it (the loop is closed and
            // never sleeps); take each lap from its fastest replay.
            let laps = rounds_of.iter().flat_map(Report::replay_laps);
            let floor_replay_ms: f64 = stats::per_request_min(laps).iter().sum();
            outcome.e2e = E2E
                .iter()
                .map(|spec| match spec.name {
                    "latency_ms_p50" => stats::quantile(&fastest, 0.5),
                    "latency_ms_p90" => stats::quantile(&fastest, 0.9),
                    "throughput_rps" => outcome.requests as f64 / (floor_replay_ms / 1e3),
                    "peak_rss_mb" => stats::median(&mut column(spec.name)),
                    name => stats::best_round(&column(name), spec.better),
                })
                .collect();
        }
        if want_layers {
            let traced = spawn(args, workload, 0, true)?;
            outcome.attempted += traced.get("attempted") as u64;
            outcome.failed += traced.get("failed") as u64;
            for spec in LAYERS {
                if let Some(&value) = traced.values.get(spec.name) {
                    outcome.layers.insert(spec.name, value);
                }
            }
            let mut p50 = column("round_p50_ms");
            let best = stats::best_round(&p50, Better::Lower);
            let middle = stats::median(&mut p50);
            let mut pooled: Vec<f64> = rounds_of
                .iter()
                .flat_map(|r| r.samples_ms.iter().copied())
                .collect();
            outcome.layers.insert("noise.round_spread", middle / best);
            outcome
                .layers
                .insert("e2e.latency_ms_p50_round_median", middle);
            outcome.layers.insert(
                "e2e.latency_ms_p99_pooled",
                stats::quantile_of(&mut pooled, 0.99),
            );
            let whole_ms: Vec<f64> = rounds_of
                .iter()
                .flat_map(Report::replay_laps)
                .map(|laps| laps.iter().sum())
                .collect();
            outcome.layers.insert(
                "e2e.throughput_rps_best_replay",
                outcome.requests as f64 / (stats::best_round(&whole_ms, Better::Lower) / 1e3),
            );
            outcome.layers.insert(
                "trace.overhead_share",
                traced.get("round_floor_p50_ms") / stats::median(&mut column("round_floor_p50_ms"))
                    - 1.0,
            );
        }
        outcomes.push(outcome);
    }
    if want_layers {
        let steal = match (cpu_before, cpu_times()) {
            (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => (s1 - s0) / (t1 - t0),
            _ => 0.0,
        };
        for outcome in &mut outcomes {
            outcome.layers.insert("noise.steal_share", steal);
            let spread = outcome.layers["noise.round_spread"];
            if spread > 1.15 || steal > 0.02 {
                eprintln!(
                    "warning: {} ran on a noisy box (median round {spread:.3}× the best, {:.1}% steal)",
                    outcome.workload.name(),
                    100.0 * steal
                );
            }
        }
    }
    Ok(outcomes)
}

fn run_of(program: &str, arguments: &[&str]) -> String {
    let output = Command::new(program)
        .args(arguments)
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output();
    match output {
        Ok(o) if o.status.success() => String::from_utf8_lossy(&o.stdout).trim().to_string(),
        _ => "unknown".to_string(),
    }
}

fn metadata(args: &Args) -> String {
    let threads = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "git {} · {} · nproc {threads} · simd {:?} · seed {} · {} rounds · replays per round: {}",
        run_of("git", &["rev-parse", "--short", "HEAD"]),
        run_of("rustc", &["--version"]),
        cortex_tensor::simd::level(),
        args.seed,
        ROUNDS,
        args.workloads
            .iter()
            .map(|w| format!("{} {}", w.name(), replays_per_child(*w, args.seconds)))
            .collect::<Vec<_>>()
            .join(", "),
    )
}

/// The contract's result line for one workload.
fn result_json(outcome: &Outcome, with_e2e: bool, with_layers: bool) -> String {
    let mut metrics = Vec::new();
    if with_e2e {
        for (spec, value) in E2E.iter().zip(&outcome.e2e) {
            metrics.push((spec.name, *value, spec.unit));
        }
    }
    if with_layers {
        for spec in LAYERS {
            // The contract wants every name on every workload: a layer
            // metric that does not apply reads 0 here (and only here).
            metrics.push((
                spec.name,
                outcome.layers.get(spec.name).copied().unwrap_or(0.0),
                spec.unit,
            ));
        }
    }
    let correct = outcome.failed == 0 && metrics.iter().all(|(_, v, _)| v.is_finite());
    let mut line = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        outcome.attempted, outcome.failed
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let value = if value.is_finite() { *value } else { 0.0 };
        let comma = if i == 0 { "" } else { ", " };
        write!(
            line,
            "{comma}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        )
        .expect("write to a String");
    }
    line.push_str("}}");
    line
}

fn print_table(outcome: &Outcome) {
    let samples = outcome.requests * outcome.replays;
    println!(
        "\n## {} — {} requests × {} replays over {} rounds, {} attempted, {} failed",
        outcome.workload.name(),
        outcome.requests,
        outcome.replays,
        ROUNDS,
        outcome.attempted,
        outcome.failed
    );
    for (spec, value) in E2E.iter().zip(&outcome.e2e) {
        let how = match spec.name {
            "peak_rss_mb" => format!("median of {ROUNDS} rounds"),
            "latency_ms_p50" | "latency_ms_p90" => {
                format!(
                    "over {} requests, each its fastest of {} replays; {samples} samples",
                    outcome.requests, outcome.replays
                )
            }
            "throughput_rps" => format!(
                "each lap of the cycle its fastest of {} replays",
                outcome.replays
            ),
            _ => format!("best of {ROUNDS} rounds"),
        };
        println!("{:<36} {value:>14.4} {:<8} ({how})", spec.name, spec.unit);
    }
    for spec in LAYERS {
        match outcome.layers.get(spec.name) {
            Some(value) => println!(
                "{:<36} {value:>14.4} {:<8} ({} is better)",
                spec.name,
                spec.unit,
                spec.better.word()
            ),
            None if !outcome.layers.is_empty() => {
                println!("{:<36} {:>14} (does not apply)", spec.name, "-")
            }
            None => {}
        }
    }
}

/// Two complete sets of the same build, compared by the benchmark's own
/// bounds. Prints markdown (committed as `AA_CHECK.md`).
fn selfcheck(args: &Args) -> Result<bool, String> {
    let (a, b) = (run_set(args)?, run_set(args)?);
    let mut ok = true;
    println!(
        "# A/A check: two sets of runs of one build\n\n{}\n",
        metadata(args)
    );
    println!("| workload | metric | set A | set B | gap | bound | |");
    println!("| --- | --- | ---: | ---: | ---: | ---: | --- |");
    for (x, y) in a.iter().zip(&b) {
        for (i, spec) in E2E.iter().enumerate() {
            let gap = stats::worsening(x.e2e[i], y.e2e[i], spec.better).abs();
            let verdict = if gap <= spec.bound { "ok" } else { "FAIL" };
            ok &= gap <= spec.bound;
            println!(
                "| {} | {} | {:.4} | {:.4} | {:.2}% | {:.0}% | {verdict} |",
                x.workload.name(),
                spec.name,
                x.e2e[i],
                y.e2e[i],
                100.0 * gap,
                100.0 * spec.bound
            );
        }
        if x.failed + y.failed > 0 {
            ok = false;
            println!(
                "| {} | failed requests | {} | {} | | 0 | FAIL |",
                x.workload.name(),
                x.failed,
                y.failed
            );
        }
    }
    println!("\nCounts that must repeat exactly:\n\n| workload | count | set A | set B | |\n| --- | --- | ---: | ---: | --- |");
    for (x, y) in a.iter().zip(&b) {
        for name in layers::EXACT {
            let (p, q) = (x.layers.get(name), y.layers.get(name));
            if let (Some(p), Some(q)) = (p, q) {
                let verdict = if p == q { "same" } else { "DIFFERS" };
                println!("| {} | {name} | {p} | {q} | {verdict} |", x.workload.name());
            }
            ok &= p == q;
        }
    }
    println!(
        "\n{}",
        if ok {
            "A/A check passed."
        } else {
            "A/A check FAILED."
        }
    );
    Ok(ok)
}

fn run(args: &Args) -> Result<bool, String> {
    if std::env::var_os("CORTEX_SIMD").is_some() {
        return Err(
            "CORTEX_SIMD must be unset: the benchmark measures the detected SIMD level".into(),
        );
    }
    if args.child {
        let report = child::run(&Task {
            workload: args.workloads[0],
            seed: args.seed,
            replays: args.replays,
            round: args.round,
            rounds: args.rounds,
            trace_dir: args.traced.then_some(args.out.as_path()),
        });
        print!("{}", report.to_text());
        return Ok(true);
    }
    if args.selfcheck {
        return selfcheck(args);
    }
    let outcomes = run_set(args)?;
    println!("{}", metadata(args));
    for outcome in &outcomes {
        print_table(outcome);
    }
    println!();
    for outcome in &outcomes {
        if outcomes.len() > 1 {
            println!("{}:", outcome.workload.name());
        }
        println!(
            "{}",
            result_json(outcome, args.trace != Some(true), args.trace != Some(false))
        );
    }
    Ok(outcomes.iter().all(|o| o.failed == 0))
}

fn main() -> ExitCode {
    let outcome = parse_args().and_then(|args| run(&args));
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(why) => {
            eprintln!("benchmark: {why}");
            ExitCode::from(2)
        }
    }
}
