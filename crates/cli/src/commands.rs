//! The CLI subcommands.

use crate::{opt_parse, opt_str, Opts};
use drift_accel::accelerator::Accelerator;
use drift_accel::area::{bitfusion_area, drift_area, AreaModel};
use drift_accel::bitfusion::{paper_geometry, BitFusion};
use drift_accel::drq::DrqAccelerator;
use drift_accel::eyeriss::Eyeriss;
use drift_accel::gemm::{GemmShape, GemmWorkload};
use drift_accel::memory::BufferSet;
use drift_core::accelerator::DriftAccelerator;
use drift_core::schedule::{balanced_schedule, oracle_lower_bound};
use drift_core::selector::DriftPolicy;
use drift_nn::datagen::TokenProfile;
use drift_nn::lower::{lower, model_low_fraction, model_workloads};
use drift_nn::zoo::{self, ModelDesc, ModelFamily};
use drift_quant::Precision;

/// `drift models`
pub fn models() -> Result<(), String> {
    println!(
        "{:<11} {:<6} {:>6} {:>9} {:>9}",
        "model", "family", "gemms", "GMACs", "seq"
    );
    for desc in zoo::hardware_eval_models()
        .into_iter()
        .chain(zoo::llm_models())
    {
        let ops = lower(&desc).map_err(|e| e.to_string())?;
        let macs: u64 = ops.iter().map(|o| o.shape.macs() * o.repeat).sum();
        let family = match desc.family {
            ModelFamily::Cnn => "cnn",
            ModelFamily::Vit => "vit",
            ModelFamily::Bert => "bert",
            ModelFamily::Llm => "llm",
        };
        println!(
            "{:<11} {:<6} {:>6} {:>9.2} {:>9}",
            desc.name,
            family,
            ops.len(),
            macs as f64 / 1e9,
            desc.seq
        );
    }
    Ok(())
}

/// `drift select`
pub fn select(opts: &Opts) -> Result<(), String> {
    let tokens: usize = opt_parse(opts, "tokens", 64)?;
    let hidden: usize = opt_parse(opts, "hidden", 256)?;
    let delta: f64 = opt_parse(opts, "delta", 0.3)?;
    let seed: u64 = opt_parse(opts, "seed", 7)?;
    let name = opt_str(opts, "profile", "bert");
    let profile = TokenProfile::by_name(name).ok_or_else(|| format!("unknown profile '{name}'"))?;
    let stats = profile
        .token_stats(tokens, hidden, seed)
        .map_err(|e| e.to_string())?;
    let policy = DriftPolicy::new(delta).map_err(|e| e.to_string())?;
    let run = stats.select(Precision::INT8, &policy);

    println!("selector on [{tokens} x {hidden}] ({name} profile), δ = {delta}:");
    println!(
        "  {} of {} tokens converted to INT4 ({:.1}% of elements)",
        run.low_subtensors(),
        run.decisions.len(),
        run.low_fraction() * 100.0
    );
    // Conversion-choice histogram.
    let mut by_hc = [0usize; 5];
    for d in &run.decisions {
        if let drift_quant::policy::Decision::Convert(c) = d.decision {
            by_hc[c.hc() as usize] += 1;
        }
    }
    for (hc, count) in by_hc.iter().enumerate() {
        if *count > 0 {
            println!("  (hc={hc}, lc={}): {count} tokens", 4 - hc);
        }
    }
    Ok(())
}

/// `drift schedule`
pub fn schedule(opts: &Opts) -> Result<(), String> {
    let m: usize = opt_parse(opts, "m", 512)?;
    let k: usize = opt_parse(opts, "k", 768)?;
    let n: usize = opt_parse(opts, "n", 768)?;
    let fa: f64 = opt_parse(opts, "fa", 0.2)?;
    let fw: f64 = opt_parse(opts, "fw", 0.1)?;
    let shape = GemmShape::new(m, k, n).map_err(|e| e.to_string())?;
    let ah = (m as f64 * fa.clamp(0.0, 1.0)) as usize;
    let wh = (n as f64 * fw.clamp(0.0, 1.0)) as usize;
    let w = GemmWorkload::new(
        "cli",
        shape,
        (0..m).map(|i| i < ah).collect(),
        (0..n).map(|j| j < wh).collect(),
    )
    .map_err(|e| e.to_string())?;
    let quads = w.quadrants();
    let s = balanced_schedule(paper_geometry(), &quads).map_err(|e| e.to_string())?;
    println!("GEMM {shape}, act-high {fa:.2}, weight-high {fw:.2}:");
    let labels = ["hh", "hl", "lh", "ll"];
    for (i, geo) in s.partition.geometries().iter().enumerate() {
        match geo {
            Some(g) => println!(
                "  {}: {:>2} x {:>2} BGs, {:>9} cycles",
                labels[i], g.rows, g.cols, s.latencies[i]
            ),
            None => println!("  {}: (empty)", labels[i]),
        }
    }
    println!(
        "  makespan {} cycles ({:.2}x the perfect-balance bound)",
        s.makespan,
        s.makespan as f64 / oracle_lower_bound(paper_geometry(), &quads)
    );
    Ok(())
}

/// `drift simulate`
pub fn simulate(opts: &Opts) -> Result<(), String> {
    let model_name = opt_str(opts, "model", "BERT");
    let accel_name = opt_str(opts, "accel", "drift");
    let seed: u64 = opt_parse(opts, "seed", 42)?;
    let desc: ModelDesc = zoo::hardware_eval_models()
        .into_iter()
        .chain(zoo::llm_models())
        .find(|d| d.name.eq_ignore_ascii_case(model_name))
        .ok_or_else(|| format!("unknown model '{model_name}' (try `drift models`)"))?;
    let delta: f64 = opt_parse(opts, "delta", default_delta(desc.family))?;
    let policy = DriftPolicy::new(delta).map_err(|e| e.to_string())?;
    let workloads = model_workloads(&desc, &policy, seed).map_err(|e| e.to_string())?;
    println!(
        "{} on {}: δ = {delta}, 4-bit share {:.1}%",
        accel_name,
        desc.name,
        model_low_fraction(&workloads) * 100.0
    );

    let mut total = 0u64;
    let mut trace = drift_accel::trace::TraceRecorder::new();
    let execute = |w: &GemmWorkload,
                   uniform: &GemmWorkload|
     -> Result<drift_accel::accelerator::ExecReport, String> {
        let report = match accel_name {
            "drift" => DriftAccelerator::paper_config()
                .map_err(|e| e.to_string())?
                .execute(w),
            "bitfusion" => BitFusion::int8()
                .map_err(|e| e.to_string())?
                .execute(uniform),
            "drq" => DrqAccelerator::paper_config()
                .map_err(|e| e.to_string())?
                .execute(w),
            "eyeriss" => Eyeriss::paper_config()
                .map_err(|e| e.to_string())?
                .execute(uniform),
            other => return Err(format!("unknown accelerator '{other}'")),
        }
        .map_err(|e| e.to_string())?;
        Ok(report)
    };
    println!(
        "{:<24} {:>16} {:>6} {:>12}",
        "layer", "shape", "rep", "cycles"
    );
    for (op, w) in &workloads {
        let uniform = GemmWorkload::uniform(op.name.clone(), op.shape, false);
        let report = execute(w, &uniform)?;
        println!(
            "{:<24} {:>16} {:>6} {:>12}",
            op.name,
            op.shape.to_string(),
            op.repeat,
            report.cycles * op.repeat
        );
        total += report.cycles * op.repeat;
        trace.record(report);
    }
    println!("{:<24} {:>16} {:>6} {:>12}", "total", "", "", total);
    if let Some(path) = opts.get("trace") {
        std::fs::write(path, trace.to_json()?).map_err(|e| format!("cannot write {path}: {e}"))?;
        println!(
            "trace: {} layers ({} DRAM-bound) written to {path}",
            trace.events().len(),
            trace.dram_bound_layers()
        );
    }
    Ok(())
}

/// The `--metrics-addr` / `--metrics-out` wiring `serve` and `gateway`
/// share. Observability is opt-in: either flag enables the recorder;
/// the default path runs with the no-op recorder (bit-identical
/// results either way, see docs/OBSERVABILITY.md).
struct MetricsWiring {
    recorder: drift_obs::Recorder,
    server: Option<drift_obs::http::MetricsServer>,
    out: Option<String>,
}

fn metrics_wiring(opts: &Opts) -> Result<MetricsWiring, String> {
    let metrics_addr = opts.get("metrics-addr");
    let out = opts.get("metrics-out").cloned();
    let recorder = if metrics_addr.is_some() || out.is_some() {
        drift_obs::Recorder::enabled()
    } else {
        drift_obs::Recorder::disabled()
    };
    let server = match metrics_addr {
        Some(addr) => {
            let registry = recorder.registry().expect("recorder enabled above");
            let server =
                drift_obs::http::MetricsServer::start(addr, std::sync::Arc::clone(registry))
                    .map_err(|e| format!("cannot bind metrics server on {addr}: {e}"))?;
            eprintln!("metrics: http://{}/metrics", server.local_addr());
            Some(server)
        }
        None => None,
    };
    Ok(MetricsWiring {
        recorder,
        server,
        out,
    })
}

/// The `--trace-out` / `--trace-sample` / `--trace-seed` wiring
/// `serve`, `gateway`, and `router` share. Tracing is opt-in:
/// `--trace-out FILE` enables the JSONL span sink; without it the
/// disabled tracer is returned and behaviour (results, wire bytes) is
/// bit-identical to a tracing-free run (docs/OBSERVABILITY.md).
fn trace_wiring(
    opts: &Opts,
    service: &str,
    recorder: &drift_obs::Recorder,
) -> Result<drift_obs::Tracer, String> {
    let Some(path) = opts.get("trace-out") else {
        if opts.contains_key("trace-sample") || opts.contains_key("trace-seed") {
            return Err("--trace-sample/--trace-seed need --trace-out FILE".to_string());
        }
        return Ok(drift_obs::Tracer::disabled());
    };
    let sample_every = parse_trace_sample(opt_str(opts, "trace-sample", "1/1"))?;
    let seed: u64 = opt_parse(opts, "trace-seed", 0u64)?;
    let tracer = drift_obs::Tracer::to_file(
        std::path::Path::new(path),
        service,
        sample_every,
        seed,
        recorder.clone(),
    )
    .map_err(|e| format!("cannot open trace sink {path}: {e}"))?;
    eprintln!("trace: {service} spans to {path} (sample 1/{sample_every}, seed {seed})");
    Ok(tracer)
}

/// Parses `--trace-sample`: `1/N` (the documented spelling) or a bare
/// `N` both mean "sample 1 in N requests at the ingress edge".
fn parse_trace_sample(raw: &str) -> Result<u64, String> {
    let every: u64 = raw
        .strip_prefix("1/")
        .unwrap_or(raw)
        .parse()
        .map_err(|_| format!("--trace-sample: expected 1/N or N, got '{raw}'"))?;
    if every == 0 {
        return Err("--trace-sample: N must be at least 1".to_string());
    }
    Ok(every)
}

impl MetricsWiring {
    /// Writes the `--metrics-out` snapshot (if requested) and stops the
    /// metrics server.
    fn finish(self) -> Result<(), String> {
        if let (Some(path), Some(registry)) = (&self.out, self.recorder.registry()) {
            std::fs::write(path, registry.snapshot().to_json())
                .map_err(|e| format!("cannot write {path}: {e}"))?;
            eprintln!("metrics: snapshot written to {path} (render with `drift report {path}`)");
        }
        drop(self.server);
        Ok(())
    }
}

/// The worker pool's `--workers`, `--queue-depth` and
/// `--cache-capacity`, which `drift serve` and `drift gateway` read
/// alike.
fn pool_config(opts: &Opts) -> Result<drift_serve::ServeConfig, String> {
    let default = drift_serve::ServeConfig::default();
    Ok(drift_serve::ServeConfig {
        workers: opt_parse(opts, "workers", default.workers)?,
        queue_depth: opt_parse(opts, "queue-depth", default.queue_depth)?,
        cache_capacity: opt_parse(opts, "cache-capacity", default.cache_capacity)?,
    })
}

/// `drift serve`
pub fn serve(opts: &Opts) -> Result<(), String> {
    use std::io::Write;

    let config = pool_config(opts)?;
    let lenient: bool = opt_parse(opts, "lenient", false)?;
    let metrics = metrics_wiring(opts)?;

    let source = opt_str(opts, "jobs", "-");
    let read = |reader: &mut dyn std::io::BufRead| -> Result<Vec<drift_serve::JobSpec>, String> {
        if lenient {
            let ingest = drift_serve::read_jobs_lenient(reader, &metrics.recorder)?;
            for (line, err) in &ingest.skipped {
                eprintln!("serve: skipped malformed line {line}: {err}");
            }
            if !ingest.skipped.is_empty() {
                eprintln!(
                    "serve: {} malformed line(s) skipped (counted in drift_serve_jobs_rejected_total)",
                    ingest.skipped.len()
                );
            }
            Ok(ingest.jobs)
        } else {
            drift_serve::read_jobs(reader)
        }
    };
    let jobs = if source == "-" {
        read(&mut std::io::stdin().lock())?
    } else {
        let file = std::fs::File::open(source).map_err(|e| format!("cannot open {source}: {e}"))?;
        read(&mut std::io::BufReader::new(file)).map_err(|e| format!("{source}: {e}"))?
    };
    if jobs.is_empty() {
        return Err("no jobs in the input stream".to_string());
    }

    let tracer = trace_wiring(opts, "serve", &metrics.recorder)?;
    // With --store the cache is warm-started from the persistent log
    // before the run and newly solved schedules flow back into it;
    // results are byte-identical either way (docs/PERSISTENCE.md).
    let cache = drift_serve::ScheduleCache::with_recorder(
        config.cache_capacity.max(1),
        drift_serve::cache::SHARDS,
        metrics.recorder.clone(),
    );
    let binding = match opts.get("store") {
        None => None,
        Some(store) => {
            let (report, binding) = drift_serve::open_and_preload(
                std::path::Path::new(store),
                &cache,
                metrics.recorder.clone(),
            )
            .map_err(|e| format!("cannot open store {store}: {e}"))?;
            eprintln!(
                "store: {} schedule(s) loaded from {store}{}",
                report.entries.len(),
                if report.skipped > 0 {
                    format!(" ({} corrupt record(s) skipped)", report.skipped)
                } else {
                    String::new()
                }
            );
            Some((store, binding))
        }
    };
    let outcome = drift_serve::serve_observed(
        jobs,
        &config,
        metrics.recorder.clone(),
        tracer.clone(),
        Some(&cache),
    );
    if let Some((store, binding)) = binding {
        let records = binding
            .finish(&cache)
            .map_err(|e| format!("cannot flush store {store}: {e}"))?;
        eprintln!("store: {records} record(s) now in {store}");
    }
    tracer.close();

    // Results as JSONL on stdout; the report goes to stderr so the
    // stream stays pipeable.
    let stdout = std::io::stdout();
    let mut out = std::io::BufWriter::new(stdout.lock());
    for result in &outcome.results {
        writeln!(out, "{}", drift_serve::job::result_line(result))
            .map_err(|e| format!("cannot write results: {e}"))?;
    }
    out.flush()
        .map_err(|e| format!("cannot write results: {e}"))?;
    eprint!("{}", outcome.report.render());

    metrics.finish()
}

/// Writes `addr` to `path` atomically: a temp file in the same
/// directory, flushed, then renamed over the target. Scripts polling
/// the port file therefore never observe a partially written address.
fn write_port_file(path: &str, addr: std::net::SocketAddr) -> Result<(), String> {
    use std::io::Write;

    let target = std::path::Path::new(path);
    let dir = target.parent().filter(|p| !p.as_os_str().is_empty());
    let tmp = dir
        .unwrap_or_else(|| std::path::Path::new("."))
        .join(format!(
            ".{}.tmp-{}",
            target
                .file_name()
                .and_then(|n| n.to_str())
                .unwrap_or("port"),
            std::process::id()
        ));
    let write = || -> std::io::Result<()> {
        let mut file = std::fs::File::create(&tmp)?;
        file.write_all(addr.to_string().as_bytes())?;
        file.sync_all()?;
        std::fs::rename(&tmp, target)
    };
    write().map_err(|e| {
        let _ = std::fs::remove_file(&tmp);
        format!("cannot write {path}: {e}")
    })
}

/// `drift gateway`
pub fn gateway(opts: &Opts) -> Result<(), String> {
    let addr = opt_str(opts, "addr", "127.0.0.1:7077");
    let config = pool_config(opts)?;
    let metrics = metrics_wiring(opts)?;
    let tracer = trace_wiring(opts, "gateway", &metrics.recorder)?;

    let gw = match opts.get("store") {
        None => drift_gateway::Gateway::start_traced(
            addr,
            config,
            metrics.recorder.clone(),
            tracer.clone(),
        ),
        Some(store) => drift_gateway::Gateway::start_persistent(
            addr,
            config,
            metrics.recorder.clone(),
            tracer.clone(),
            std::path::Path::new(store),
        ),
    }
    .map_err(|e| format!("cannot bind gateway on {addr}: {e}"))?;
    if let Some(store) = opts.get("store") {
        eprintln!("store: schedule cache backed by {store} (docs/PERSISTENCE.md)");
    }
    eprintln!(
        "gateway: listening on {} ({} workers, queue depth {}); \
         stop with `drift gateway-stop --addr {}`",
        gw.local_addr(),
        config.workers,
        config.queue_depth,
        gw.local_addr()
    );
    if let Some(path) = opts.get("port-file") {
        // Written after bind so a script can wait on the file to learn
        // the port chosen by `--addr host:0`.
        write_port_file(path, gw.local_addr())?;
    }

    // No signal handling within the dependency budget: the drain
    // request arrives over the wire as {"control":"shutdown"}.
    gw.wait_for_drain();
    let summary = gw.shutdown();
    eprintln!("{}", summary.render());
    tracer.close();
    metrics.finish()
}

/// `drift loadgen`
pub fn loadgen(opts: &Opts) -> Result<(), String> {
    use std::io::Write;

    let addr = opt_str(opts, "addr", "127.0.0.1:7077");
    let deadline_ms: u64 = opt_parse(opts, "deadline-ms", 0u64)?;
    let jitter_ms: u64 = opt_parse(opts, "deadline-jitter-ms", 0u64)?;
    let open_loop: f64 = opt_parse(opts, "open-loop", 0.0f64)?;
    let config = drift_gateway::LoadGenConfig {
        clients: opt_parse(opts, "clients", 4)?,
        jobs: opt_parse(opts, "jobs", 200)?,
        shapes: opt_parse(opts, "shapes", 4)?,
        seed: opt_parse(opts, "seed", 42u64)?,
        deadline_ms: (deadline_ms > 0).then_some(deadline_ms),
        deadline_jitter_ms: (jitter_ms > 0).then_some(jitter_ms),
        open_loop_rps: (open_loop > 0.0).then_some(open_loop),
        batch: opt_parse::<usize>(opts, "batch", 1)?.max(1),
        schedule_only: opt_parse(opts, "schedule-only", false)?,
    };
    let report = drift_gateway::loadgen::run(addr, &config)?;

    // Results as JSONL on stdout (pipeable, like `drift serve`); the
    // measurement summary goes to stderr.
    let stdout = std::io::stdout();
    let mut out = std::io::BufWriter::new(stdout.lock());
    for result in &report.results {
        writeln!(out, "{}", drift_serve::job::result_line(result))
            .map_err(|e| format!("cannot write results: {e}"))?;
    }
    out.flush()
        .map_err(|e| format!("cannot write results: {e}"))?;
    eprintln!("{}", report.render());
    if opt_parse(opts, "json", false)? {
        // Machine-readable summary as the final stdout line, after the
        // per-result JSONL stream (distinguishable by its "jobs" key).
        println!("{}", report.json_line());
    }
    report.verify_complete()
}

/// `drift gateway-stop` and `drift router-stop`: ask the `tier`
/// server at `--addr` (default `default_addr`) to drain and exit.
pub fn stop(opts: &Opts, tier: &str, default_addr: &str) -> Result<(), String> {
    let addr = opt_str(opts, "addr", default_addr);
    let mut client = drift_gateway::Client::connect(addr)
        .map_err(|e| format!("cannot connect to {tier} at {addr}: {e}"))?;
    if client.shutdown_server()? {
        eprintln!("{tier} at {addr} acknowledged the drain");
        Ok(())
    } else {
        Err(format!("{tier} at {addr} refused the shutdown"))
    }
}

/// `drift router`
pub fn router(opts: &Opts) -> Result<(), String> {
    let addr = opt_str(opts, "addr", "127.0.0.1:7177");
    let shards: Vec<String> = opts
        .get("shards")
        .ok_or("router needs --shards addr1,addr2,... (backend gateway addresses)")?
        .split(',')
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .collect();
    let config = drift_router::RouterConfig::default();
    let metrics = metrics_wiring(opts)?;
    let tracer = trace_wiring(opts, "router", &metrics.recorder)?;

    let router = drift_router::Router::start_traced(
        addr,
        &shards,
        config,
        metrics.recorder.clone(),
        tracer.clone(),
    )
    .map_err(|e| format!("cannot start router on {addr}: {e}"))?;
    eprintln!(
        "router: listening on {} over {} shard(s) [{}] ({} vnodes/shard); \
         stop with `drift router-stop --addr {}`",
        router.local_addr(),
        shards.len(),
        shards.join(", "),
        config.vnodes,
        router.local_addr()
    );
    if let Some(path) = opts.get("port-file") {
        write_port_file(path, router.local_addr())?;
    }

    // As with the gateway: no signal handling, the drain request
    // arrives over the wire as {"control":"shutdown"}.
    router.wait_for_drain();
    let summary = router.shutdown();
    eprintln!("{}", summary.render());
    tracer.close();
    metrics.finish()
}

/// `drift store` — inspect / verify / compact / merge persistent
/// schedule stores (docs/PERSISTENCE.md). Positional like `report`:
/// `drift store verify sched.drift [--deep]`.
pub fn store(args: &[String]) -> Result<(), String> {
    const USAGE: &str =
        "usage: drift store inspect|verify|compact FILE [--deep] | merge OUT IN1 [IN2...]";
    let Some((op, rest)) = args.split_first() else {
        return Err(USAGE.to_string());
    };
    let path_arg = |rest: &[String]| -> Result<std::path::PathBuf, String> {
        match rest.iter().find(|a| !a.starts_with("--")) {
            Some(p) => Ok(std::path::PathBuf::from(p)),
            None => Err(USAGE.to_string()),
        }
    };
    match op.as_str() {
        "inspect" => {
            let path = path_arg(rest)?;
            let report = drift_store::load(&path).map_err(|e| e.to_string())?;
            println!("store {}:", path.display());
            println!(
                "  format:      v1 ({} bytes/entry)",
                drift_core::schedule::ENTRY_BYTES
            );
            println!(
                "  size:        {} bytes ({} valid)",
                report.bytes, report.valid_len
            );
            println!("  records:     {}", report.records);
            println!(
                "  entries:     {} distinct schedule key(s)",
                drift_store::dedup_last_wins(report.entries).len()
            );
            println!("  skipped:     {} corrupt record(s)", report.skipped);
            if report.truncated_tail {
                println!(
                    "  tail:        torn write truncated at byte {} (a crash mid-append;",
                    report.valid_len
                );
                println!("               the next writer will trim it)");
            }
            Ok(())
        }
        "verify" => {
            let path = path_arg(rest)?;
            let deep = rest.iter().any(|a| a == "--deep");
            let report = drift_store::verify(&path, deep).map_err(|e| e.to_string())?;
            println!(
                "store {}: OK — {} record(s), {} distinct key(s), {} bytes{}",
                path.display(),
                report.records,
                report.unique_keys,
                report.bytes,
                match report.resolved {
                    Some(n) => format!(", {n} schedule(s) re-solved and matched"),
                    None => String::new(),
                }
            );
            Ok(())
        }
        "compact" => {
            let path = path_arg(rest)?;
            let (before, after) = drift_store::compact(&path).map_err(|e| e.to_string())?;
            println!(
                "store {}: compacted {before} -> {after} record(s)",
                path.display()
            );
            Ok(())
        }
        "merge" => {
            let paths: Vec<std::path::PathBuf> = rest
                .iter()
                .filter(|a| !a.starts_with("--"))
                .map(std::path::PathBuf::from)
                .collect();
            let Some((out, inputs)) = paths.split_first() else {
                return Err(USAGE.to_string());
            };
            if inputs.is_empty() {
                return Err(USAGE.to_string());
            }
            let records = drift_store::merge(inputs, out).map_err(|e| e.to_string())?;
            println!(
                "store {}: {} record(s) merged from {} input(s)",
                out.display(),
                records,
                inputs.len()
            );
            Ok(())
        }
        other => Err(format!("unknown store operation '{other}'\n{USAGE}")),
    }
}

/// `drift report` — renders a `--metrics-out` JSON snapshot as the
/// human table (counters with units, histogram quantiles).
pub fn report(args: &[String]) -> Result<(), String> {
    let [path] = args else {
        return Err("usage: drift report FILE|-".to_string());
    };
    let text = if path == "-" {
        use std::io::Read;
        let mut buf = String::new();
        std::io::stdin()
            .read_to_string(&mut buf)
            .map_err(|e| format!("cannot read stdin: {e}"))?;
        buf
    } else {
        std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?
    };
    print!("{}", parse_snapshot(&text)?.render_table());
    Ok(())
}

/// Parses the `Snapshot::to_json` schema back into a [`Snapshot`].
/// Sections it does not know, such as the `stages` of older
/// snapshots, are skipped.
///
/// Lives here rather than in `drift-obs` so the obs crate stays
/// dependency-free; the CLI already carries `serde_json`.
fn parse_snapshot(text: &str) -> Result<drift_obs::Snapshot, String> {
    use crate::trace_cmd::{v_str, v_u64};
    use drift_obs::export::{HistogramSample, Sample};
    use drift_obs::registry::MetricId;
    use serde_json::Value;

    fn v_i64(v: &Value) -> Option<i64> {
        match v {
            Value::I64(n) => Some(*n),
            Value::U64(n) => i64::try_from(*n).ok(),
            _ => None,
        }
    }
    fn v_f64(v: &Value) -> Option<f64> {
        match v {
            Value::F64(x) => Some(*x),
            Value::I64(n) => Some(*n as f64),
            Value::U64(n) => Some(*n as f64),
            _ => None,
        }
    }

    let root: Value =
        serde_json::from_str(text).map_err(|e| format!("invalid metrics JSON: {e}"))?;
    let section = |name: &str| -> Vec<Value> {
        root.get(name)
            .and_then(Value::as_seq)
            .map(<[Value]>::to_vec)
            .unwrap_or_default()
    };
    let id_of = |entry: &Value| -> Result<MetricId, String> {
        let name = entry
            .get("name")
            .and_then(v_str)
            .ok_or("metric sample missing \"name\"")?;
        let labels: Vec<(&str, &str)> = entry
            .get("labels")
            .and_then(Value::as_map)
            .map(|m| {
                m.iter()
                    .filter_map(|(k, v)| v_str(v).map(|v| (k.as_str(), v)))
                    .collect()
            })
            .unwrap_or_default();
        Ok(MetricId::new(name, &labels))
    };
    let u64s = |entry: &Value, field: &str| -> Vec<u64> {
        entry
            .get(field)
            .and_then(Value::as_seq)
            .map(|a| a.iter().filter_map(v_u64).collect())
            .unwrap_or_default()
    };

    let mut snapshot = drift_obs::Snapshot::default();
    for entry in section("counters") {
        snapshot.counters.push(Sample {
            id: id_of(&entry)?,
            value: entry.get("value").and_then(v_u64).unwrap_or(0),
        });
    }
    for entry in section("fcounters") {
        snapshot.fcounters.push(Sample {
            id: id_of(&entry)?,
            value: entry.get("value").and_then(v_f64).unwrap_or(0.0),
        });
    }
    for entry in section("gauges") {
        snapshot.gauges.push(Sample {
            id: id_of(&entry)?,
            value: entry.get("value").and_then(v_i64).unwrap_or(0),
        });
    }
    for entry in section("histograms") {
        snapshot.histograms.push(HistogramSample {
            id: id_of(&entry)?,
            bounds: u64s(&entry, "bounds"),
            counts: u64s(&entry, "counts"),
            sum: entry.get("sum").and_then(v_u64).unwrap_or(0),
        });
    }
    Ok(snapshot)
}

/// `drift area`
pub fn area() -> Result<(), String> {
    let model = AreaModel::default();
    let buffers = BufferSet::drift_default();
    let drift = drift_area(&model, paper_geometry(), &buffers);
    let bitfusion = bitfusion_area(&model, paper_geometry(), &buffers);
    println!("40 nm-class area model (mm²):");
    println!("  fabric (792 BGs):      {:>7.3}", drift.fabric_mm2);
    println!("  bidirectional links:   {:>7.3}", drift.links_mm2);
    println!("  global+weight buffers: {:>7.3}", drift.buffers_mm2);
    println!("  index buffer:          {:>7.3}", drift.index_mm2);
    println!("  controller:            {:>7.3}", drift.controller_mm2);
    println!("  drift total:           {:>7.3}", drift.total_mm2());
    println!("  bitfusion-class total: {:>7.3}", bitfusion.total_mm2());
    println!(
        "dynamic-precision support = {:.1}% of the die",
        drift.dynamic_precision_overhead() * 100.0
    );
    Ok(())
}

fn default_delta(family: ModelFamily) -> f64 {
    match family {
        ModelFamily::Cnn => 0.055,
        ModelFamily::Vit => 0.045,
        ModelFamily::Bert => 0.027,
        ModelFamily::Llm => 0.006,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_loads_a_snapshot_with_an_old_stages_section() {
        let json = r#"{
  "counters": [
    {"name": "drift_serve_jobs_total", "labels": {"kind": "simulate", "outcome": "ok"}, "value": 40}],
  "fcounters": [],
  "gauges": [],
  "histograms": [],
  "stages": [
    {"stage": "serve_job", "calls": 40, "wall_ns": 120000000, "sim_cycles": 700000}]
}"#;
        let snapshot = parse_snapshot(json).unwrap();
        assert_eq!(snapshot.counter_sum("drift_serve_jobs_total"), 40);
        assert!(snapshot.render_table().contains("drift_serve_jobs_total"));
    }
}
