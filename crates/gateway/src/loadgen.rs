//! A closed-loop load generator for the gateway.
//!
//! `drift loadgen` drives a running gateway with `clients` concurrent
//! connections sharing one deterministic synthetic job stream
//! ([`drift_serve::job::synthetic_jobs`], split round-robin so job ids
//! stay unique). The default mode is **closed-loop**: each client
//! submits its next job as soon as the previous response arrives,
//! absorbing shed responses with the client library's capped
//! exponential backoff — so measured throughput is the gateway's
//! sustainable service rate. With `open_loop_rps` set, clients instead
//! pace request *sends* at a fixed aggregate rate with no retries,
//! pipelining into the connection while a reaper thread drains
//! responses — offered load stays fixed no matter how slow the gateway
//! gets, which exposes the shed rate of the admission queue.

use crate::client::{Client, RetryPolicy};
use crate::protocol::{Response, ERR_DEADLINE, ERR_OVERLOADED, ERR_UNMEETABLE};
use drift_serve::job::{synthetic_jobs, synthetic_schedule_jobs, JobOutcome, JobResult, JobSpec};
use drift_serve::stats::percentile_ns;
use std::collections::HashMap;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Tunables for one load-generation run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadGenConfig {
    /// Concurrent client connections.
    pub clients: usize,
    /// Total jobs across all clients.
    pub jobs: usize,
    /// Distinct GEMM shapes in the synthetic stream.
    pub shapes: usize,
    /// Master seed of the synthetic stream.
    pub seed: u64,
    /// Per-request deadline budget sent with every job.
    pub deadline_ms: Option<u64>,
    /// Adds a deterministic uniform jitter in `[0, J]` ms to each job's
    /// deadline budget (derived from `seed` and the job id), so budgets
    /// span `[D, D+J]` — the spread EDF exploits and FIFO cannot.
    /// Ignored without `deadline_ms`.
    pub deadline_jitter_ms: Option<u64>,
    /// Open-loop mode: pace request starts at this aggregate rate and
    /// do not retry sheds. `None` = closed loop with retry.
    pub open_loop_rps: Option<f64>,
    /// Open-loop only: send in on/off bursts instead of a steady
    /// stream. Requests are offered at `open_loop_rps` for the first
    /// half of every window of this many milliseconds and not at all
    /// for the second half (average rate = `open_loop_rps / 2`). This
    /// is the regime where queue ordering matters: a steady stream
    /// above capacity saturates the queue permanently, making the
    /// deadline-met count capacity-bound under *any* discipline, while
    /// bursts leave drain slack that EDF can exploit and FIFO cannot
    /// (docs/SCHEDULING.md). Ignored in closed-loop mode.
    pub burst_ms: Option<u64>,
    /// Closed-loop only: open a fresh TCP connection for every request
    /// and tear it down after the response, instead of holding one
    /// persistent connection per client. Measures connection-churn cost
    /// (see the connection-reuse guidance in `docs/SERVING.md`).
    pub connect_per_request: bool,
    /// Jobs per wire request. `1` (or `0`) submits singleton lines;
    /// above `1` each client chunks its job stream and submits whole
    /// chunks with the batch wire protocol (`docs/SERVING.md`) — one
    /// request line in, one response line out per chunk. The batch id
    /// is the chunk's first job id, and the whole chunk shares that
    /// job's deadline budget draw (batches carry one `deadline_ms`).
    /// In open-loop mode batch *sends* are paced at the instant their
    /// first job would have been offered singleton, so the aggregate
    /// job rate still matches `open_loop_rps`.
    pub batch: usize,
    /// Small-job stream: offer only `Schedule` jobs (cycling the same
    /// shape/fraction tables as the mixed stream). Each distinct key
    /// is solved once and every repeat is a cache hit executing in
    /// microseconds, so per-request wire and admission overhead
    /// dominates the measurement — the regime where batching shows
    /// its full effect (the `EXPERIMENTS.md` batch sweep).
    pub schedule_only: bool,
    /// Backoff policy for closed-loop shed retries.
    pub retry: RetryPolicy,
}

impl Default for LoadGenConfig {
    fn default() -> Self {
        LoadGenConfig {
            clients: 4,
            jobs: 200,
            shapes: 4,
            seed: 42,
            deadline_ms: None,
            deadline_jitter_ms: None,
            open_loop_rps: None,
            burst_ms: None,
            connect_per_request: false,
            batch: 1,
            schedule_only: false,
            retry: RetryPolicy::default(),
        }
    }
}

/// What one load-generation run measured.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadReport {
    /// Jobs offered.
    pub jobs: usize,
    /// Requests answered with a result.
    pub ok: u64,
    /// Requests that ended shed (after retries ran out, or on first
    /// shed in open-loop mode).
    pub shed: u64,
    /// Requests answered `deadline_exceeded`.
    pub expired: u64,
    /// Requests refused at admission as `deadline_unmeetable`.
    pub unmeetable: u64,
    /// Of deadlined runs, the fraction of offered jobs answered with a
    /// result (`ok / jobs`); `None` when no deadline was configured.
    pub deadline_met_rate: Option<f64>,
    /// Of the `ok` responses, how many carried a job-level error
    /// outcome (the job ran and failed).
    pub job_errors: u64,
    /// Shed responses absorbed by closed-loop backoff.
    pub retries: u64,
    /// Wall-clock time of the whole run.
    pub wall: Duration,
    /// Completed (ok) responses per wall-clock second.
    pub throughput: f64,
    /// Median end-to-end request latency, µs (including retry time).
    pub p50_us: f64,
    /// 99th-percentile end-to-end request latency, µs.
    pub p99_us: f64,
    /// Every result received, sorted by job id.
    pub results: Vec<JobResult>,
}

impl LoadReport {
    /// Checks the run lost or duplicated nothing: every offered job is
    /// accounted for exactly once (ok, shed, or expired), and no result
    /// id repeats.
    ///
    /// # Errors
    ///
    /// Describes the first imbalance found.
    pub fn verify_complete(&self) -> Result<(), String> {
        let answered = self.ok + self.shed + self.expired + self.unmeetable;
        if answered != self.jobs as u64 {
            return Err(format!(
                "offered {} jobs but accounted for {answered} ({} ok, {} shed, {} expired, {} unmeetable)",
                self.jobs, self.ok, self.shed, self.expired, self.unmeetable
            ));
        }
        for pair in self.results.windows(2) {
            if pair[0].id == pair[1].id {
                return Err(format!("duplicated result id {}", pair[0].id));
            }
        }
        Ok(())
    }

    /// A one-line machine-readable JSON rendering of the summary for
    /// `drift loadgen --json`. Every field is numeric (or `null` for
    /// an unconfigured deadline-met rate), so the line needs no string
    /// escaping; the per-result payload is deliberately omitted.
    pub fn json_line(&self) -> String {
        let met = self
            .deadline_met_rate
            .map_or_else(|| "null".to_string(), |rate| format!("{rate:.6}"));
        format!(
            "{{\"jobs\":{},\"ok\":{},\"job_errors\":{},\"shed\":{},\"expired\":{},\
             \"unmeetable\":{},\"retries\":{},\"deadline_met_rate\":{met},\
             \"wall_ms\":{:.3},\"throughput_rps\":{:.3},\"p50_us\":{:.1},\"p99_us\":{:.1}}}",
            self.jobs,
            self.ok,
            self.job_errors,
            self.shed,
            self.expired,
            self.unmeetable,
            self.retries,
            self.wall.as_secs_f64() * 1e3,
            self.throughput,
            self.p50_us,
            self.p99_us,
        )
    }

    /// A short human rendering for the CLI.
    pub fn render(&self) -> String {
        let met = self
            .deadline_met_rate
            .map(|rate| format!(", deadline met {:.1}%", rate * 100.0))
            .unwrap_or_default();
        format!(
            "loadgen: {} jobs in {:.1} ms — {:.0} ok/s, {} ok ({} job errors), {} shed, \
             {} expired, {} unmeetable, {} retries, p50 {:.0} µs, p99 {:.0} µs{met}",
            self.jobs,
            self.wall.as_secs_f64() * 1e3,
            self.throughput,
            self.ok,
            self.job_errors,
            self.shed,
            self.expired,
            self.unmeetable,
            self.retries,
            self.p50_us,
            self.p99_us,
        )
    }
}

#[derive(Default)]
struct ClientTally {
    ok: u64,
    shed: u64,
    expired: u64,
    unmeetable: u64,
    job_errors: u64,
    retries: u64,
    latencies_ns: Vec<u64>,
    results: Vec<JobResult>,
}

/// SplitMix64: the per-job deadline jitter's hash, so budgets are
/// reproducible from `(seed, id)` alone with no RNG dependency.
fn splitmix64(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl LoadGenConfig {
    /// The deadline budget for job `id`: `deadline_ms` plus this job's
    /// deterministic jitter draw from `[0, deadline_jitter_ms]`.
    pub fn budget_for(&self, id: u64) -> Option<u64> {
        let base = self.deadline_ms?;
        let jitter = match self.deadline_jitter_ms {
            Some(j) if j > 0 => {
                splitmix64(self.seed ^ id.wrapping_mul(0x9E37_79B9_7F4A_7C15)) % (j + 1)
            }
            _ => 0,
        };
        Some(base.saturating_add(jitter))
    }

    /// When (relative to the pacer's start) this client's `index`-th
    /// open-loop send should happen. Steady pacing spaces sends by
    /// `interval`; with `burst_ms` set, sends keep that spacing but
    /// come in windows — the first half of every `burst_ms` window
    /// offers load, the second half is silent.
    fn send_offset(&self, index: u64, interval: Duration) -> Duration {
        let Some(window_ms) = self.burst_ms.filter(|&w| w > 0) else {
            return interval.mul_f64(index as f64);
        };
        let window = Duration::from_millis(window_ms);
        let per_window = ((window.as_secs_f64() / 2.0) / interval.as_secs_f64())
            .floor()
            .max(1.0) as u64;
        window.mul_f64((index / per_window) as f64) + interval.mul_f64((index % per_window) as f64)
    }
}

/// Runs one load-generation pass against the gateway at `addr`.
///
/// # Errors
///
/// Reports connection failures, transport errors, and unexpected
/// responses (e.g. `bad_request` for a stream the generator itself
/// produced).
pub fn run(addr: &str, config: &LoadGenConfig) -> Result<LoadReport, String> {
    let clients = config.clients.max(1);
    let config = &LoadGenConfig {
        batch: config.batch.max(1),
        ..*config
    };
    let jobs = if config.schedule_only {
        synthetic_schedule_jobs(config.jobs, config.shapes, config.seed)
    } else {
        synthetic_jobs(config.jobs, config.shapes, config.seed)
    };
    // Round-robin partition: ids stay unique across clients and every
    // client sees the same kind mix.
    let mut slices: Vec<Vec<JobSpec>> = vec![Vec::new(); clients];
    for (i, job) in jobs.into_iter().enumerate() {
        slices[i % clients].push(job);
    }
    // Pace per client so the aggregate request-start rate is the
    // configured RPS.
    let pace = config
        .open_loop_rps
        .and_then(|rps| (rps > 0.0).then(|| Duration::from_secs_f64(clients as f64 / rps)));

    let start = Instant::now();
    let tallies: Vec<Result<ClientTally, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = slices
            .into_iter()
            .filter(|slice| !slice.is_empty())
            .map(|slice| scope.spawn(move || drive_client(addr, &slice, config, pace)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("loadgen client panicked"))
            .collect()
    });
    let wall = start.elapsed();

    let mut total = ClientTally::default();
    for tally in tallies {
        let tally = tally?;
        total.ok += tally.ok;
        total.shed += tally.shed;
        total.expired += tally.expired;
        total.unmeetable += tally.unmeetable;
        total.job_errors += tally.job_errors;
        total.retries += tally.retries;
        total.latencies_ns.extend(tally.latencies_ns);
        total.results.extend(tally.results);
    }
    total.latencies_ns.sort_unstable();
    total.results.sort_by_key(|r| r.id);
    let secs = wall.as_secs_f64();
    Ok(LoadReport {
        jobs: config.jobs,
        ok: total.ok,
        shed: total.shed,
        expired: total.expired,
        unmeetable: total.unmeetable,
        deadline_met_rate: (config.deadline_ms.is_some() && config.jobs > 0)
            .then(|| total.ok as f64 / config.jobs as f64),
        job_errors: total.job_errors,
        retries: total.retries,
        wall,
        throughput: if secs > 0.0 {
            total.ok as f64 / secs
        } else {
            0.0
        },
        p50_us: percentile_ns(&total.latencies_ns, 50.0) as f64 / 1_000.0,
        p99_us: percentile_ns(&total.latencies_ns, 99.0) as f64 / 1_000.0,
        results: total.results,
    })
}

/// Drives one client's slice as lines of `config.batch` jobs.
fn drive_client(
    addr: &str,
    slice: &[JobSpec],
    config: &LoadGenConfig,
    pace: Option<Duration>,
) -> Result<ClientTally, String> {
    let connect =
        || Client::connect(addr).map_err(|e| format!("cannot connect to gateway at {addr}: {e}"));
    if let Some(interval) = pace {
        return drive_open_loop(connect()?, slice, config, interval);
    }
    // Closed loop: one line in flight. With `connect_per_request` each
    // line gets a short-lived connection (connect, submit with the
    // standard shed retries, read the response, drop the socket), so its
    // latency includes the TCP setup and teardown — exactly the cost the
    // persistent-connection default amortises away.
    let mut persistent = if config.connect_per_request {
        None
    } else {
        Some(connect()?)
    };
    let batched = config.batch > 1;
    let mut tally = ClientTally::default();
    for chunk in slice.chunks(config.batch) {
        let begin = Instant::now();
        let mut churned = None;
        let client = match persistent.as_mut() {
            Some(client) => client,
            None => churned.insert(connect()?),
        };
        let (id, budget) = (chunk[0].id, config.budget_for(chunk[0].id));
        let sub = if batched {
            client.submit_batch_with_retry(id, chunk, budget, &config.retry)?
        } else {
            client.submit_with_retry(&chunk[0], budget, &config.retry)?
        };
        drop(churned);
        let latency = begin.elapsed();
        tally.retries += u64::from(sub.retries);
        tally.account_line(sub.response, batched, chunk.len(), latency)?;
    }
    Ok(tally)
}

/// Open-loop driving: line *sends* are paced on this thread while a
/// reaper thread drains responses concurrently, so a slow gateway
/// cannot push back on the offered rate — the requests pipeline and the
/// bounded queue (not the client) decides what gets shed. A blocking
/// submit-then-wait loop here would silently turn the run into a
/// closed loop capped at `clients` in-flight requests. A batch line
/// goes out when its first job would have, so the *job* rate matches
/// the configured RPS.
fn drive_open_loop(
    client: Client,
    slice: &[JobSpec],
    config: &LoadGenConfig,
    interval: Duration,
) -> Result<ClientTally, String> {
    let (mut reader, mut writer) = client.split();
    let batched = config.batch > 1;
    let chunks: Vec<&[JobSpec]> = slice.chunks(config.batch).collect();
    // Send instants and item counts by line id, for the reaper's
    // latencies and to fan a flat refusal out across a batch's items.
    let sent: Mutex<HashMap<u64, (Instant, usize)>> =
        Mutex::new(HashMap::with_capacity(chunks.len()));

    std::thread::scope(|scope| {
        let pacer = scope.spawn(|| -> Result<(), String> {
            let start = Instant::now();
            for (index, chunk) in chunks.iter().enumerate() {
                let next_start =
                    start + config.send_offset((index * config.batch) as u64, interval);
                let now = Instant::now();
                if next_start > now {
                    std::thread::sleep(next_start - now);
                }
                let id = chunk[0].id;
                sent.lock()
                    .expect("send-time map")
                    .insert(id, (Instant::now(), chunk.len()));
                if batched {
                    writer.send_batch(id, chunk, config.budget_for(id))?;
                } else {
                    writer.send(&chunk[0], config.budget_for(id))?;
                }
            }
            Ok(())
        });

        let mut tally = ClientTally::default();
        for _ in 0..chunks.len() {
            let response = reader.recv()?;
            let id = match &response {
                Response::Result(result) => Some(result.id),
                Response::Batch { id, .. } => Some(*id),
                Response::Error { id, .. } => *id,
                Response::Control { .. } => None,
            };
            let entry = id.and_then(|id| sent.lock().expect("send-time map").remove(&id));
            let (latency, items) = entry.map_or((Duration::ZERO, config.batch), |(begin, n)| {
                (begin.elapsed(), n)
            });
            tally.account_line(response, batched, items, latency)?;
        }
        pacer.join().expect("loadgen pacer panicked")?;
        Ok(tally)
    })
}

impl ClientTally {
    /// Accounts the answer to one line of `items` jobs: a singleton's
    /// response, or a batch's ([`ClientTally::account_batch`]).
    fn account_line(
        &mut self,
        response: Response,
        batched: bool,
        items: usize,
        latency: Duration,
    ) -> Result<(), String> {
        if batched {
            self.account_batch(response, items, latency)
        } else {
            self.account(response, latency)
        }
    }

    /// Accounts one batch response: a [`Response::Batch`] item by
    /// item, or a flat whole-batch refusal fanned out across every
    /// submitted item (batch admission is all-or-shed, so one
    /// `overloaded` line means `expected` jobs were shed).
    fn account_batch(
        &mut self,
        response: Response,
        expected: usize,
        latency: Duration,
    ) -> Result<(), String> {
        match response {
            Response::Batch { items, .. } => {
                if items.len() != expected {
                    return Err(format!(
                        "batch response carried {} items for {expected} submitted jobs",
                        items.len()
                    ));
                }
                for item in items {
                    self.account(item, latency)?;
                }
                Ok(())
            }
            Response::Error { id, error } => {
                for _ in 0..expected {
                    self.account(
                        Response::Error {
                            id,
                            error: error.clone(),
                        },
                        latency,
                    )?;
                }
                Ok(())
            }
            other => Err(format!("unexpected gateway batch response {other:?}")),
        }
    }

    fn account(&mut self, response: Response, latency: Duration) -> Result<(), String> {
        match response {
            Response::Result(result) => {
                self.ok += 1;
                self.latencies_ns
                    .push(latency.as_nanos().min(u128::from(u64::MAX)) as u64);
                self.job_errors += u64::from(matches!(result.outcome, JobOutcome::Error { .. }));
                self.results.push(result);
            }
            Response::Error { error, .. } if error == ERR_OVERLOADED => self.shed += 1,
            Response::Error { error, .. } if error == ERR_DEADLINE => self.expired += 1,
            Response::Error { error, .. } if error == ERR_UNMEETABLE => self.unmeetable += 1,
            other => return Err(format!("unexpected gateway response {other:?}")),
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;

    #[test]
    fn json_line_parses_and_carries_every_counter() {
        let report = LoadReport {
            jobs: 10,
            ok: 7,
            shed: 1,
            expired: 1,
            unmeetable: 1,
            deadline_met_rate: Some(0.7),
            job_errors: 2,
            retries: 3,
            wall: Duration::from_millis(250),
            throughput: 28.0,
            p50_us: 1234.5,
            p99_us: 9876.5,
            results: Vec::new(),
        };
        let value: Value =
            serde_json::from_str(&report.json_line()).expect("json_line must be valid JSON");
        let num = |key: &str| match value.get(key) {
            Some(Value::U64(v)) => *v as f64,
            Some(Value::I64(v)) => *v as f64,
            Some(Value::F64(v)) => *v,
            other => panic!("field {key} missing or non-numeric: {other:?}"),
        };
        assert_eq!(num("jobs"), 10.0);
        assert_eq!(num("ok"), 7.0);
        assert_eq!(num("job_errors"), 2.0);
        assert_eq!(num("shed"), 1.0);
        assert_eq!(num("expired"), 1.0);
        assert_eq!(num("unmeetable"), 1.0);
        assert_eq!(num("retries"), 3.0);
        assert!((num("deadline_met_rate") - 0.7).abs() < 1e-9);
        assert!((num("wall_ms") - 250.0).abs() < 1e-6);
        assert!((num("throughput_rps") - 28.0).abs() < 1e-6);
        assert!((num("p50_us") - 1234.5).abs() < 1e-6);
        assert!((num("p99_us") - 9876.5).abs() < 1e-6);
    }

    #[test]
    fn json_line_renders_missing_deadline_rate_as_null() {
        let report = LoadReport {
            jobs: 0,
            ok: 0,
            shed: 0,
            expired: 0,
            unmeetable: 0,
            deadline_met_rate: None,
            job_errors: 0,
            retries: 0,
            wall: Duration::ZERO,
            throughput: 0.0,
            p50_us: 0.0,
            p99_us: 0.0,
            results: Vec::new(),
        };
        let value: Value =
            serde_json::from_str(&report.json_line()).expect("json_line must be valid JSON");
        assert_eq!(value.get("deadline_met_rate"), Some(&Value::Null));
    }
}
