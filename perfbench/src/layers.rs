//! Per-layer metrics: calls into each layer's public functions, timed
//! from the benchmark on the workload's own inputs, plus the figures
//! the program's existing `Recorder` and `Tracer` collect in a traced
//! run.

use crate::stats::{median, quantile, Metric};
use crate::streams::Plan;
use drift_accel::accelerator::{Accelerator, MemorySubsystem};
use drift_accel::bitfusion::BitFusion;
use drift_accel::drq::DrqAccelerator;
use drift_accel::eyeriss::Eyeriss;
use drift_accel::gemm::{GemmShape, GemmWorkload};
use drift_core::accelerator::DriftAccelerator;
use drift_core::arch::paper_fabric;
use drift_core::schedule::ScheduleKey;
use drift_core::selector::DriftPolicy;
use drift_gateway::protocol::{
    batch_request_line, batch_response_line, parse_request, parse_response, request_line,
};
use drift_nn::datagen::TokenProfile;
use drift_obs::Snapshot;
use drift_quant::policy::run_policy;
use drift_quant::Precision;
use drift_router::{route_key, HashRing, RouterConfig};
use drift_serve::cache::ScheduleCache;
use drift_serve::job::result_line;
use drift_serve::worker::{execute_group, execute_job, schedule_key_for};
use drift_serve::{JobKind, JobOutcome, JobResult, JobSpec};
use drift_tensor::rng::{derive_seed, seeded};
use drift_tensor::subtensor::SubTensorScheme;
use rand::Rng;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Every per-layer metric, with its unit, in `BENCHMARK.json` order.
/// A metric the workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 41] = [
    ("gateway.parse_request_ns", "ns"),
    ("gateway.render_ns", "ns"),
    ("gateway.client_parse_ns", "ns"),
    ("gateway.queue_wait_p50_us", "us"),
    ("gateway.queue_wait_p99_us", "us"),
    ("gateway.response_write_us", "us"),
    ("gateway.batch_size_mean", "jobs"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.cache_hit_ns", "ns"),
    ("serve.schedule_key_ns.schedule", "ns"),
    ("serve.schedule_key_ns.simulate", "ns"),
    ("serve.execute_us.select", "us"),
    ("serve.execute_us.schedule", "us"),
    ("serve.execute_us.simulate", "us"),
    ("serve.execute_group_us", "us"),
    ("serve.exec_share.select", "ratio"),
    ("serve.exec_share.schedule", "ratio"),
    ("serve.exec_share.simulate", "ratio"),
    ("core.solve_us", "us"),
    ("core.execute_with_schedule_us", "us"),
    ("core.sim_cycles", "cycles"),
    ("core.sim_compute_cycles", "cycles"),
    ("core.sim_dram_cycles", "cycles"),
    ("nn.datagen_us", "us"),
    ("quant.run_policy_us", "us"),
    ("nn.model_workloads_us", "us"),
    ("accel.workload_traffic_us", "us"),
    ("accel.dram_bursts", "count"),
    ("accel.execute_us.eyeriss", "us"),
    ("accel.execute_us.bitfusion", "us"),
    ("accel.execute_us.drq", "us"),
    ("accel.execute_us.drift", "us"),
    ("router.route_key_ns", "ns"),
    ("router.ring_lookup_ns", "ns"),
    ("router.hop_p50_us", "us"),
    ("router.hop_p99_us", "us"),
    ("router.splits_per_batch", "ratio"),
    ("router.hops_per_batch", "count"),
    ("router.failovers", "count"),
    ("obs.trace_overhead_ratio", "ratio"),
    ("obs.spans_per_line", "count"),
];

/// Per-layer values by name; names outside [`PER_LAYER`] are a bug.
#[derive(Debug, Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    /// Sets `name` to `value`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not in [`PER_LAYER`].
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "unknown per-layer metric {name}"
        );
        self.0.insert(name, value);
    }

    /// Every metric of [`PER_LAYER`], 0 where unset.
    pub fn metrics(&self) -> Vec<Metric> {
        PER_LAYER
            .iter()
            .map(|(name, unit)| Metric::new(*name, self.0.get(name).copied().unwrap_or(0.0), unit))
            .collect()
    }
}

/// Time spent per call of `f` over `items`, in ns: the median over
/// passes of each pass's mean. Passes repeat until `budget` is spent
/// (at least one, at most 200).
pub fn per_call_ns<T, R>(items: &[T], budget: Duration, mut f: impl FnMut(&T) -> R) -> f64 {
    if items.is_empty() {
        return 0.0;
    }
    let start = Instant::now();
    let mut passes = Vec::new();
    while passes.is_empty() || (start.elapsed() < budget && passes.len() < 200) {
        let t = Instant::now();
        for item in items {
            black_box(f(black_box(item)));
        }
        passes.push(t.elapsed().as_nanos() as f64 / items.len() as f64);
    }
    median(&passes)
}

const BUDGET: Duration = Duration::from_millis(100);

/// The Bernoulli precision maps a Simulate job draws, rebuilt from the
/// spec exactly as the serve worker draws them; [`serving_layers`]
/// checks the rebuilt workload reproduces offline serve's cycles.
pub fn simulate_workload(spec: &JobSpec) -> Option<GemmWorkload> {
    let JobKind::Simulate { m, k, n, fa, fw } = &spec.kind else {
        return None;
    };
    let mut rng = seeded(derive_seed(spec.seed, "serve-simulate"));
    let (fa, fw) = (fa.clamp(0.0, 1.0), fw.clamp(0.0, 1.0));
    let act: Vec<bool> = (0..*m).map(|_| rng.gen_bool(fa)).collect();
    let weight: Vec<bool> = (0..*n).map(|_| rng.gen_bool(fw)).collect();
    let shape = GemmShape::new(*m, *k, *n).ok()?;
    GemmWorkload::new(format!("job-{}", spec.id), shape, act, weight).ok()
}

fn profile(name: &str) -> Option<TokenProfile> {
    match name {
        "cnn" => Some(TokenProfile::cnn()),
        "vit" => Some(TokenProfile::vit()),
        "bert" => Some(TokenProfile::bert()),
        "llm" => Some(TokenProfile::llm()),
        _ => None,
    }
}

/// Memory-side figures of `workloads`: µs per
/// `MemorySubsystem::workload_traffic` call, and the bytes the DRAM
/// model moves per workload ÷ 64 (a computed count, not a
/// measurement).
pub fn traffic(layers: &mut Layers, workloads: &[&GemmWorkload]) {
    let Ok(mut memory) = MemorySubsystem::new() else {
        return;
    };
    let us = per_call_ns(workloads, BUDGET, |w| {
        memory.reset();
        memory.workload_traffic(w, 1)
    }) / 1e3;
    layers.set("accel.workload_traffic_us", us);
    let bursts: Vec<f64> = workloads
        .iter()
        .map(|w| {
            memory.reset();
            memory.workload_traffic(w, 1);
            let stats = memory.dram.stats();
            (stats.read_bytes + stats.write_bytes) as f64 / 64.0
        })
        .collect();
    layers.set(
        "accel.dram_bursts",
        bursts.iter().sum::<f64>() / bursts.len().max(1) as f64,
    );
}

/// µs per `ScheduleKey::solve` over `keys`.
pub fn solve_us(keys: &[ScheduleKey]) -> f64 {
    per_call_ns(keys, BUDGET, |k| k.solve()) / 1e3
}

/// µs per `DriftAccelerator::execute_with_schedule` over `workloads`,
/// each with its solved schedule.
pub fn scheduled_execution(layers: &mut Layers, workloads: &[&GemmWorkload]) -> Result<(), String> {
    let fabric = paper_fabric();
    let solved = workloads
        .iter()
        .map(|w| {
            ScheduleKey::for_workload(w, fabric)
                .solve()
                .map(|s| (*w, s))
        })
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| e.to_string())?;
    let mut accel = DriftAccelerator::paper_config().map_err(|e| e.to_string())?;
    let us = per_call_ns(&solved, BUDGET, |(w, s)| {
        accel.reset();
        accel.execute_with_schedule(w, *s)
    }) / 1e3;
    layers.set("core.execute_with_schedule_us", us);
    Ok(())
}

/// µs per `execute` of each accelerator of the Fig. 7/8 comparison
/// over `workloads`, called as `drift_bench::compare_model` calls them:
/// Eyeriss and BitFusion on the dense form of each workload, DRQ and
/// Drift on the workload itself.
///
/// # Errors
///
/// Propagates build errors.
pub fn accelerators(layers: &mut Layers, workloads: &[&GemmWorkload]) -> Result<(), String> {
    let dense: Vec<GemmWorkload> = workloads
        .iter()
        .map(|w| GemmWorkload::uniform(w.name(), w.shape(), false))
        .collect();
    let dense: Vec<&GemmWorkload> = dense.iter().collect();
    let err = |e: drift_accel::AccelError| e.to_string();
    let mut eyeriss = Eyeriss::paper_config().map_err(err)?;
    let mut bitfusion = BitFusion::int8().map_err(err)?;
    let mut drq = DrqAccelerator::paper_config().map_err(err)?;
    let mut drift = DriftAccelerator::paper_config().map_err(|e| e.to_string())?;
    let runs: [(&str, &[&GemmWorkload], &mut dyn Accelerator); 4] = [
        ("accel.execute_us.eyeriss", &dense, &mut eyeriss),
        ("accel.execute_us.bitfusion", &dense, &mut bitfusion),
        ("accel.execute_us.drq", workloads, &mut drq),
        ("accel.execute_us.drift", workloads, &mut drift),
    ];
    for (name, inputs, accel) in runs {
        layers.set(
            name,
            per_call_ns(inputs, BUDGET, |w| accel.execute(w)) / 1e3,
        );
    }
    Ok(())
}

/// Per-layer calls for a serving workload, on its own jobs: one
/// period of its stream and the offline answers to it.
///
/// # Errors
///
/// Fails when a rebuilt input disagrees with offline serve.
pub fn serving_layers(
    layers: &mut Layers,
    plan: &Plan,
    period: &[JobSpec],
    expected: &[JobOutcome],
) -> Result<(), String> {
    let fabric = paper_fabric();
    let batch = plan.batch;
    let results: Vec<JobResult> = period
        .iter()
        .zip(expected)
        .map(|(s, o)| JobResult {
            id: s.id,
            outcome: o.clone(),
        })
        .collect();

    // gateway: the workload's request and response lines.
    let (requests, responses): (Vec<String>, Vec<String>) = if batch == 1 {
        (
            period.iter().map(|s| request_line(s, None)).collect(),
            results.iter().map(result_line).collect(),
        )
    } else {
        let chunks = period.chunks(batch).zip(results.chunks(batch));
        chunks
            .enumerate()
            .map(|(i, (specs, rs))| {
                let items: Vec<String> = rs.iter().map(result_line).collect();
                (
                    batch_request_line(i as u64, specs, None),
                    batch_response_line(i as u64, &items),
                )
            })
            .unzip()
    };
    layers.set(
        "gateway.parse_request_ns",
        per_call_ns(&requests, BUDGET, |l| parse_request(l)),
    );
    let render = if batch == 1 {
        per_call_ns(&results, BUDGET, result_line)
    } else {
        let groups: Vec<&[JobResult]> = results.chunks(batch).collect();
        per_call_ns(&groups, BUDGET, |rs| {
            let items: Vec<String> = rs.iter().map(result_line).collect();
            batch_response_line(0, &items)
        })
    };
    layers.set("gateway.render_ns", render);
    layers.set(
        "gateway.client_parse_ns",
        per_call_ns(&responses, BUDGET, |l| parse_response(l)),
    );

    // serve: keys, a warm cache, and execution by kind.
    let by_kind = |label: &str| -> Vec<&JobSpec> {
        period.iter().filter(|s| s.kind.label() == label).collect()
    };
    for (label, name) in [
        ("schedule", "serve.schedule_key_ns.schedule"),
        ("simulate", "serve.schedule_key_ns.simulate"),
    ] {
        let specs = by_kind(label);
        layers.set(
            name,
            per_call_ns(&specs, BUDGET, |s| schedule_key_for(s, fabric)),
        );
    }
    let keys: Vec<ScheduleKey> = crate::streams::warm_set(period)
        .iter()
        .filter_map(|s| schedule_key_for(s, fabric))
        .collect();
    let cache = ScheduleCache::new(4096, 16);
    for key in &keys {
        cache.get_or_solve(*key).map_err(|e| e.to_string())?;
    }
    layers.set(
        "serve.cache_hit_ns",
        per_call_ns(&keys, BUDGET, |k| cache.get_or_solve(*k)),
    );
    layers.set(
        "core.solve_us",
        per_call_ns(&keys, BUDGET, |k| k.solve()) / 1e3,
    );
    let mut accel = DriftAccelerator::paper_config().map_err(|e| e.to_string())?;
    let mut busy = Vec::new();
    for (label, name) in [
        ("select", "serve.execute_us.select"),
        ("schedule", "serve.execute_us.schedule"),
        ("simulate", "serve.execute_us.simulate"),
    ] {
        let specs = by_kind(label);
        let us = per_call_ns(&specs, BUDGET, |s| execute_job(s, &mut accel, &cache)) / 1e3;
        layers.set(name, us);
        busy.push(us * specs.len() as f64);
    }
    let total: f64 = busy.iter().sum();
    for (share, name) in busy.iter().zip([
        "serve.exec_share.select",
        "serve.exec_share.schedule",
        "serve.exec_share.simulate",
    ]) {
        layers.set(name, if total > 0.0 { share / total } else { 0.0 });
    }
    if batch > 1 {
        // The key groups of every batch line of the period; Select jobs
        // form the keyless group.
        let mut groups: Vec<(Option<ScheduleKey>, Vec<JobSpec>)> = Vec::new();
        for line in period.chunks(batch) {
            let first = groups.len();
            for spec in line {
                let key = schedule_key_for(spec, fabric);
                match groups[first..].iter_mut().find(|(k, _)| *k == key) {
                    Some((_, specs)) => specs.push(spec.clone()),
                    None => groups.push((key, vec![spec.clone()])),
                }
            }
        }
        let recorder = drift_obs::Recorder::disabled();
        let us = per_call_ns(&groups, BUDGET, |(k, specs)| {
            execute_group(k.as_ref(), specs, &mut accel, &cache, &recorder)
        }) / 1e3;
        layers.set("serve.execute_group_us", us);
    }

    // nn + quant: the Select jobs' data generation and policy run.
    let selects: Vec<(TokenProfile, usize, usize, f64, u64)> = by_kind("select")
        .into_iter()
        .filter_map(|s| match &s.kind {
            JobKind::Select {
                tokens,
                hidden,
                delta,
                profile: p,
            } => profile(p).map(|p| (p, *tokens, *hidden, *delta, s.seed)),
            _ => None,
        })
        .collect();
    if !selects.is_empty() {
        layers.set(
            "nn.datagen_us",
            per_call_ns(&selects, BUDGET, |(p, t, h, _, seed)| {
                p.generate(*t, *h, *seed)
            }) / 1e3,
        );
        let inputs = selects
            .iter()
            .map(|(p, t, h, d, seed)| {
                let data = p.generate(*t, *h, *seed).map_err(|e| e.to_string())?;
                let policy = DriftPolicy::new(*d).map_err(|e| e.to_string())?;
                Ok((data, *h, policy))
            })
            .collect::<Result<Vec<_>, String>>()?;
        layers.set(
            "quant.run_policy_us",
            per_call_ns(&inputs, BUDGET, |(data, h, policy)| {
                run_policy(data, &SubTensorScheme::token(*h), Precision::INT8, policy)
            }) / 1e3,
        );
    }

    // core + accel: the Simulate jobs, rebuilt and checked against the
    // offline cycles.
    let simulated: Vec<(GemmWorkload, u64, u64, u64)> = period
        .iter()
        .zip(expected)
        .filter_map(|(s, o)| match o {
            JobOutcome::Simulate {
                cycles,
                compute_cycles,
                dram_cycles,
                ..
            } => simulate_workload(s).map(|w| (w, *cycles, *compute_cycles, *dram_cycles)),
            _ => None,
        })
        .collect();
    if !simulated.is_empty() {
        let workloads: Vec<&GemmWorkload> = simulated.iter().map(|(w, ..)| w).collect();
        for (w, cycles, ..) in &simulated {
            accel.reset();
            let key = ScheduleKey::for_workload(w, fabric);
            let schedule = key.solve().map_err(|e| e.to_string())?;
            let report = accel
                .execute_with_schedule(w, schedule)
                .map_err(|e| e.to_string())?;
            if report.cycles != *cycles {
                return Err(format!(
                    "{}: rebuilt workload gives {} cycles, offline serve {}",
                    w.name(),
                    report.cycles,
                    cycles
                ));
            }
        }
        scheduled_execution(layers, &workloads)?;
        traffic(layers, &workloads);
        accelerators(layers, &workloads)?;
        let n = simulated.len() as f64;
        let mean = |f: fn(&(GemmWorkload, u64, u64, u64)) -> u64| {
            simulated.iter().map(|s| f(s) as f64).sum::<f64>() / n
        };
        layers.set("core.sim_cycles", mean(|s| s.1));
        layers.set("core.sim_compute_cycles", mean(|s| s.2));
        layers.set("core.sim_dram_cycles", mean(|s| s.3));
    }

    // router: key hashing and the ring walk.
    if plan.routed {
        let shards: Vec<String> = (0..plan.gateways).map(crate::serving::shard_addr).collect();
        let ring = HashRing::new(&shards, RouterConfig::default().vnodes);
        layers.set(
            "router.route_key_ns",
            per_call_ns(period, BUDGET, |s| route_key(s, fabric)),
        );
        let hashes: Vec<u64> = period.iter().map(|s| route_key(s, fabric)).collect();
        layers.set(
            "router.ring_lookup_ns",
            per_call_ns(&hashes, BUDGET, |h| ring.primary(*h)),
        );
    }
    Ok(())
}

fn p50_p99(mut values: Vec<f64>) -> (f64, f64) {
    if values.is_empty() {
        return (0.0, 0.0);
    }
    values.sort_by(f64::total_cmp);
    (quantile(&values, 0.5), quantile(&values, 0.99))
}

/// Figures the program's own `Recorder` and `Tracer` collected during
/// a traced phase of `lines` request lines.
pub fn traced_figures(
    layers: &mut Layers,
    snapshot: &Snapshot,
    spans: &crate::serving::SpanSink,
    lines: u64,
    batch: usize,
) {
    let (p50, p99) = p50_p99(spans.durations("gateway.queue_wait"));
    layers.set("gateway.queue_wait_p50_us", p50);
    layers.set("gateway.queue_wait_p99_us", p99);
    let writes = spans.durations("gateway.response_write");
    if !writes.is_empty() {
        let mean = writes.iter().sum::<f64>() / writes.len() as f64;
        layers.set("gateway.response_write_us", mean);
    }
    if let Some(h) = snapshot.histogram_merged("drift_gateway_batch_size") {
        layers.set("gateway.batch_size_mean", h.mean());
    }
    let hits = snapshot.counter_sum("drift_schedule_cache_hits_total") as f64;
    let misses = snapshot.counter_sum("drift_schedule_cache_misses_total") as f64;
    if hits + misses > 0.0 {
        layers.set("serve.cache_hit_ratio", hits / (hits + misses));
    }
    let hops = spans.durations("router.hop");
    let lines = lines.max(1) as f64;
    if !hops.is_empty() {
        layers.set("router.hops_per_batch", hops.len() as f64 / lines);
        let (p50, p99) = p50_p99(hops);
        layers.set("router.hop_p50_us", p50);
        layers.set("router.hop_p99_us", p99);
    }
    if batch > 1 {
        let splits = snapshot.counter_sum("drift_router_batch_splits_total") as f64;
        layers.set("router.splits_per_batch", splits / lines);
    }
    layers.set(
        "router.failovers",
        snapshot.counter_sum("drift_router_failovers_total") as f64,
    );
    let spans_written = snapshot.counter_sum("drift_trace_spans_written_total") as f64;
    layers.set("obs.spans_per_line", spans_written / lines);
}
