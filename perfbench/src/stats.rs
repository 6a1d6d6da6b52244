//! Summary statistics, failure accounting and the result line.

use serde_json::Value;

/// Nearest-rank quantile of an ascending slice (`q` in `0..=1`).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let rank = ((q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize).max(1);
    sorted[rank - 1]
}

/// Samples strictly above the nearest-rank `q` quantile of `n` samples.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as usize).max(1);
    n.saturating_sub(rank)
}

/// The highest of the usual tail percentiles (99.9, 99, 90) that has at
/// least ten samples beyond it, or `None` when not even p90 does.
pub fn supported_tail(n: usize) -> Option<f64> {
    [0.999, 0.99, 0.9]
        .into_iter()
        .find(|&q| samples_beyond(n, q) >= 10)
}

/// Latencies in log-spaced buckets 0.14% wide, from 0.01 µs to about
/// three hours: the run keeps constant memory however many requests it
/// makes, so `peak_rss_mb` measures the servers, not the sample.
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyHistogram {
    counts: Vec<u64>,
    total: u64,
}

const PER_DOUBLING: f64 = 512.0;
const FLOOR_US: f64 = 0.01;
const BUCKETS: usize = 40 * 512;

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            counts: vec![0; BUCKETS],
            total: 0,
        }
    }
}

impl LatencyHistogram {
    /// Records one latency, µs.
    pub fn record(&mut self, us: f64) {
        let i = if us > FLOOR_US {
            ((us / FLOOR_US).log2() * PER_DOUBLING) as usize + 1
        } else {
            0
        };
        self.counts[i.min(BUCKETS - 1)] += 1;
        self.total += 1;
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Adds `other` into `self`.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
    }

    /// Nearest-rank quantile: the geometric middle of the bucket that
    /// holds rank `ceil(q * count)`. `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        let rank = ((q.clamp(0.0, 1.0) * self.total as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if c > 0 && seen >= rank {
                return Some(if i == 0 {
                    FLOOR_US
                } else {
                    FLOOR_US * ((i as f64 - 0.5) / PER_DOUBLING).exp2()
                });
            }
        }
        None
    }
}

/// Median and p99 of a latency sample, with its size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencySummary {
    /// Number of samples.
    pub samples: u64,
    /// Median.
    pub p50: f64,
    /// 99th percentile.
    pub p99: f64,
}

impl LatencySummary {
    /// Summarises `hist`; `Err` when p99 would have fewer than ten
    /// samples beyond it (fewer than 1,000 samples).
    pub fn of(hist: &LatencyHistogram) -> Result<LatencySummary, String> {
        let n = hist.count();
        match (
            supported_tail(n as usize),
            hist.quantile(0.5),
            hist.quantile(0.99),
        ) {
            (Some(q), Some(p50), Some(p99)) if q >= 0.99 => Ok(LatencySummary {
                samples: n,
                p50,
                p99,
            }),
            _ => Err(format!("{n} latency samples: p99 needs at least 1000")),
        }
    }
}

/// The median of a non-empty sample.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile(&v, 0.5)
}

/// Why a job did not count as answered correctly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Failure {
    /// Refused with `overloaded`.
    Shed,
    /// Answered `deadline_exceeded`.
    Expired,
    /// Refused with `deadline_unmeetable`.
    Unmeetable,
    /// Answered with a job-level error payload, or any other error.
    JobError,
    /// The connection failed before the answer arrived.
    Transport,
    /// Answered, but not with offline serve's result for the same job.
    WrongAnswer,
}

impl Failure {
    /// Classifies a gateway error code.
    pub fn from_code(code: &str) -> Failure {
        match code {
            "overloaded" => Failure::Shed,
            "deadline_exceeded" => Failure::Expired,
            "deadline_unmeetable" => Failure::Unmeetable,
            _ => Failure::JobError,
        }
    }
}

/// Jobs attempted and failed, by cause. Counts are per job: a refused
/// batch line fails every job it carried.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Jobs sent (or, for `paper-zoo`, layers simulated).
    pub attempted: u64,
    /// Jobs answered correctly.
    pub ok: u64,
    /// Failures: shed, expired, unmeetable, job error, transport, wrong.
    pub failed: [u64; 6],
}

impl Tally {
    /// Records `jobs` jobs that succeeded.
    pub fn ok(&mut self, jobs: u64) {
        self.attempted += jobs;
        self.ok += jobs;
    }

    /// Records `jobs` jobs that failed with `why`.
    pub fn fail(&mut self, why: Failure, jobs: u64) {
        self.attempted += jobs;
        self.failed[why as usize] += jobs;
    }

    /// Total failed jobs.
    pub fn failed_total(&self) -> u64 {
        self.failed.iter().sum()
    }

    /// Failures over attempts (0 when nothing was attempted).
    pub fn fail_ratio(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed_total() as f64 / self.attempted as f64
        }
    }

    /// Adds `other` into `self`.
    pub fn merge(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.ok += other.ok;
        for (a, b) in self.failed.iter_mut().zip(other.failed) {
            *a += b;
        }
    }

    /// One-line breakdown for the report.
    pub fn render(&self) -> String {
        let [shed, expired, unmeetable, job_error, transport, wrong] = self.failed;
        format!(
            "attempted={} ok={} failed={} (shed={shed} expired={expired} unmeetable={unmeetable} \
             job_error={job_error} transport={transport} wrong_answer={wrong}) fail_ratio={}",
            self.attempted,
            self.ok,
            self.failed_total(),
            self.fail_ratio()
        )
    }
}

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

impl Metric {
    /// A metric named `name`.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// A count as a JSON integer.
pub fn count(n: u64) -> Value {
    i64::try_from(n).map_or(Value::U64(n), Value::I64)
}

/// A JSON object with `entries` in order.
pub fn object(entries: Vec<(&str, Value)>) -> Value {
    Value::Map(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// The final output line:
/// `{"correct":..,"attempted":..,"failed":..,"metrics":{name:{"value":..,"unit":..}}}`.
/// A non-finite value, which JSON cannot express, prints as 0.
pub fn result_line(correct: bool, tally: &Tally, metrics: &[Metric]) -> String {
    let body = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let metric = object(vec![
                ("value", Value::F64(value)),
                ("unit", Value::Str(m.unit.to_string())),
            ]);
            (m.name.clone(), metric)
        })
        .collect();
    let line = object(vec![
        ("correct", Value::Bool(correct)),
        ("attempted", count(tally.attempted)),
        ("failed", count(tally.failed_total())),
        ("metrics", Value::Map(body)),
    ]);
    serde_json::to_string(&line).expect("every value is finite")
}

/// Peak resident memory of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
