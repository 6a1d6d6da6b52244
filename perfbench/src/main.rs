//! `perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]`
//!
//! Runs one workload and prints a human report followed, as the last
//! line, by one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`: the end-to-end metrics untraced (`--trace 0`), the
//! per-layer metrics traced (`--trace 1`). Exits 1 when any answer is
//! wrong or any job failed. `--print-reference` prints the recorded
//! `paper-zoo` values as Rust source.

use perfbench::layers::{serving_layers, traced_figures, Layers};
use perfbench::serving::{self, Tracing};
use perfbench::stats::{
    count, median, object, peak_rss_mb, result_line, Failure, LatencySummary, Metric, Tally,
};
use perfbench::streams::{self, Workload};
use perfbench::zoo;
use serde_json::Value;
use std::process::{Command, ExitCode};
use std::time::Instant;

/// Segments of an untraced serving run, each on a freshly set-up stack,
/// and set-ups of an untraced `paper-zoo` run. The other metrics are over
/// the whole run.
const SEGMENTS: usize = 5;

/// Set-ups of an untraced serving run besides its segments' own, with no
/// timed phase: `setup_s` is the median of all of them.
const EXTRA_SETUPS: usize = 10;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Option<Args>, String> {
    let mut workload = None;
    let mut seed = 42;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--print-reference" {
            return Ok(None);
        }
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad(&"unknown workload"))?);
            }
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err(format!("--seconds {seconds}: expected 0 < s <= 120"));
    }
    Ok(Some(Args {
        workload,
        seed,
        seconds,
        trace,
    }))
}

/// What one run produced.
struct Outcome {
    tally: Tally,
    problems: Vec<String>,
    metrics: Vec<Metric>,
    report: Vec<String>,
    lines: u64,
}

fn first_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

fn provenance(args: &Args, outcome: &Outcome) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    // Outside a git checkout, git would find an enclosing repository.
    let git_rev = if std::path::Path::new(".git").exists() {
        first_line("git", &["rev-parse", "HEAD"])
    } else {
        "unknown".to_string()
    };
    let fields = object(vec![
        ("workload", Value::Str(args.workload.name().to_string())),
        ("seed", count(args.seed)),
        ("seconds", Value::F64(args.seconds)),
        ("trace", Value::Bool(args.trace)),
        ("nproc", count(nproc as u64)),
        ("git_rev", Value::Str(git_rev)),
        ("rustc", Value::Str(first_line("rustc", &["--version"]))),
        ("request_lines", count(outcome.lines)),
        ("jobs_attempted", count(outcome.tally.attempted)),
    ]);
    serde_json::to_string(&object(vec![("provenance", fields)])).expect("finite values")
}

fn run_serving(args: &Args) -> Result<Outcome, String> {
    let inputs = serving::Inputs::new(args.workload, args.seed)?;
    let plan = inputs.plan;
    let mut report = vec![format!(
        "stack: {} gateway(s) x {} worker(s){}; load: {} connections, {} line(s) in flight, {} job(s) per line",
        plan.gateways,
        plan.workers,
        if plan.routed { " behind a router" } else { "" },
        streams::CONNECTIONS,
        plan.window,
        plan.batch
    )];
    if plan.routed {
        report.push(format!(
            "distinct keys per shard: {:?}",
            serving::key_split(&plan, &inputs.period)
        ));
    }
    if !args.trace {
        let (mut phase, segments) = inputs.run(SEGMENTS, args.seconds, &Tracing::off())?;
        let (extra_setups, warm_tally) = inputs.setups(EXTRA_SETUPS)?;
        phase.tally.merge(&warm_tally);
        let setups: Vec<f64> = segments
            .setup_s
            .iter()
            .chain(&extra_setups)
            .copied()
            .collect();
        let lat = LatencySummary::of(&phase.latencies_us)?;
        report.push(format!(
            "latency per request line: p50_us={:.1} p99_us={:.1} (samples={})",
            lat.p50, lat.p99, lat.samples
        ));
        report.push(format!("setup_s samples: {setups:?}"));
        report.push(format!(
            "listener readiness waits, not in setup_s: {:?}",
            segments.ready_wait_s
        ));
        report.push(format!(
            "ok_per_s by segment: {:.0?} over {:.2} s",
            segments.ok_per_s, phase.wall_s
        ));
        report.push(format!(
            "latency p50_us, p99_us by segment: {:.0?}",
            segments.p50_p99_us
        ));
        let metrics = vec![
            Metric::new("ok_per_s", phase.ok_per_s(), "1/s"),
            Metric::new("p50_us", lat.p50, "us"),
            Metric::new("p99_us", lat.p99, "us"),
            Metric::new("setup_s", median(&setups), "s"),
            Metric::new("peak_rss_mb", peak_rss_mb(), "MiB"),
        ];
        return Ok(Outcome {
            tally: phase.tally,
            problems: Vec::new(),
            metrics,
            report,
            lines: phase.lines,
        });
    }

    // Traced run: an untraced half, then a half with the program's
    // Recorder and Tracer on (every request sampled).
    let half = args.seconds / 2.0;
    let (plain, _) = inputs.run(1, half, &Tracing::off())?;
    let tracing = Tracing::sampled_all(args.seed);
    let (traced, _) = inputs.run(1, half, &tracing)?;
    let mut tally = plain.tally;
    tally.merge(&traced.tally);
    let registry = tracing.recorder.registry().expect("recorder is enabled");
    let snapshot = drift_obs::Snapshot::of(registry);
    let mut layers = Layers::default();
    let plain_rate = plain.ok_per_s();
    let traced_rate = traced.ok_per_s();
    layers.set("obs.trace_overhead_ratio", traced_rate / plain_rate);
    report.push(format!(
        "ok_per_s untraced={plain_rate:.1} traced={traced_rate:.1}"
    ));
    traced_figures(
        &mut layers,
        &snapshot,
        &tracing.spans,
        traced.lines,
        plan.batch,
    );
    serving_layers(&mut layers, &plan, &inputs.period, &inputs.expected)?;
    // Where the stream simulates, the Fig. 7/8 layers are measured too:
    // `serving_layers` runs the four accelerators on the Simulate jobs'
    // workloads, and this times lowering the five zoo models.
    if inputs.period.iter().any(|s| s.kind.label() == "simulate") {
        zoo::lowering(&mut layers);
    }
    Ok(Outcome {
        tally,
        problems: Vec::new(),
        metrics: layers.metrics(),
        report,
        lines: plain.lines + traced.lines,
    })
}

fn run_zoo(args: &Args) -> Result<Outcome, String> {
    let mut tally = Tally::default();
    let mut report = Vec::new();
    let mut setups = Vec::new();
    let mut input = Vec::new();
    for _ in 0..if args.trace { 1 } else { SEGMENTS } {
        let start = Instant::now();
        input = zoo::set_up(args.seed)?;
        setups.push(start.elapsed().as_secs_f64());
    }
    let layers_per_sweep: usize = input.iter().map(|(_, d)| d.len()).sum();
    report.push(format!(
        "input: {} models lowered at seed {}, {layers_per_sweep} GEMM layers per sweep; order {:?}",
        input.len(),
        zoo::PAPER_SEED,
        input
            .iter()
            .map(|(d, _)| d.name.as_str())
            .collect::<Vec<_>>()
    ));
    let (metrics, first, lines) = if !args.trace {
        let phase = zoo::run_phase(&input, args.seconds, serving::MIN_LINES, None)?;
        tally.merge(&phase.tally);
        let rate = phase.ok_per_s();
        let lines = phase.latencies_us.count();
        let lat = LatencySummary::of(&phase.latencies_us)?;
        report.push(format!(
            "zoo_layers_per_s={rate:.2} over {} sweeps",
            phase.sweeps
        ));
        report.push(format!(
            "latency per layer: p50_us={:.1} p99_us={:.1} (samples={})",
            lat.p50, lat.p99, lat.samples
        ));
        report.push(format!("setup_s samples: {setups:?}"));
        let metrics = vec![
            Metric::new("ok_per_s", rate, "1/s"),
            Metric::new("p50_us", lat.p50, "us"),
            Metric::new("p99_us", lat.p99, "us"),
            Metric::new("setup_s", median(&setups), "s"),
            Metric::new("peak_rss_mb", peak_rss_mb(), "MiB"),
        ];
        (metrics, phase.first, lines)
    } else {
        let half = args.seconds / 2.0;
        let plain = zoo::run_phase(&input, half, 0, None)?;
        let mut times = zoo::AccelTimes::default();
        let traced = zoo::run_phase(&input, half, 0, Some(&mut times))?;
        tally.merge(&plain.tally);
        tally.merge(&traced.tally);
        let mut layers = Layers::default();
        let plain_rate = plain.ok_per_s();
        let traced_rate = traced.ok_per_s();
        layers.set("obs.trace_overhead_ratio", traced_rate / plain_rate);
        report.push(format!(
            "zoo_layers_per_s untraced={plain_rate:.2} traced={traced_rate:.2}"
        ));
        zoo::accel_times(&mut layers, &times);
        zoo::zoo_layers(&mut layers, &input)?;
        let lines = plain.latencies_us.count() + traced.latencies_us.count();
        (layers.metrics(), plain.first, lines)
    };
    let problems = zoo::check(&input, &first)?;
    for _ in &problems {
        tally.fail(Failure::WrongAnswer, 1);
    }
    let sweep = zoo::geomeans(&first);
    report.push(format!(
        "fig7 geomean speedup over eyeriss: bitfusion {:.3}x drq {:.3}x drift {:.3}x; drift/bitfusion {:.3}x drift/drq {:.3}x",
        sweep[0], sweep[1], sweep[2], sweep[3], sweep[4]
    ));
    report.push(format!(
        "fig8 geomean energy reduction over eyeriss: bitfusion {:.3}x drq {:.3}x drift {:.3}x; drift/bitfusion {:.3}x drift/drq {:.3}x",
        sweep[5], sweep[6], sweep[7], sweep[8], sweep[9]
    ));
    Ok(Outcome {
        tally,
        problems,
        metrics,
        report,
        lines,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Some(args)) => args,
        Ok(None) => {
            return match zoo::reference_source() {
                Ok(source) => {
                    print!("{source}");
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    ExitCode::FAILURE
                }
            };
        }
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match args.workload {
        Workload::PaperZoo => run_zoo(&args),
        _ => run_serving(&args),
    };
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {}: {e}", args.workload.name());
            return ExitCode::FAILURE;
        }
    };
    let correct = outcome.problems.is_empty() && outcome.tally.failed_total() == 0;
    println!("{}", provenance(&args, &outcome));
    for line in &outcome.report {
        println!("# {line}");
    }
    for problem in &outcome.problems {
        println!("# MISMATCH {problem}");
    }
    println!("# jobs: {}", outcome.tally.render());
    println!(
        "# correctness gate: {}",
        if correct { "pass" } else { "FAIL" }
    );
    for m in &outcome.metrics {
        println!("# {:<34} {:>16.4} {}", m.name, m.value, m.unit);
    }
    println!("{}", result_line(correct, &outcome.tally, &outcome.metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
