//! Job specifications and results, with their JSONL wire format.
//!
//! One job is one line of JSON on the way in and one line on the way
//! out, so job streams pipe naturally between processes:
//!
//! ```text
//! {"id":0,"seed":7,"kind":{"Schedule":{"m":512,"k":768,"n":768,"fa":0.2,"fw":0.1}}}
//! {"id":1,"seed":9,"kind":{"Simulate":{"m":256,"k":1024,"n":1024,"fa":0.5,"fw":0.25}}}
//! {"id":2,"seed":3,"kind":{"Select":{"tokens":128,"hidden":768,"delta":0.027,"profile":"bert"}}}
//! ```
//!
//! A result carries only data derived from the job's own fields and its
//! seeded RNG — never from scheduling accidents like which worker ran
//! it or whether the schedule cache happened to hit — so a job stream
//! produces the same result set at any worker count.
//!
//! # Duplicate job ids
//!
//! Ids are caller-chosen correlation tokens, not keys: the runtime
//! never deduplicates on them. A stream that submits the same id twice
//! gets **two** results, each echoing that id, and the result order is
//! **sequence-stable** — results sort by `(id, submission order)`, so
//! duplicates come back in the order their jobs were submitted,
//! identically at any worker count. Callers that need to tell
//! duplicates apart should simply use distinct ids ([`synthetic_jobs`]
//! issues the `0..count` sequence); the networked gateway inherits the
//! same echo-both semantics, but responses there are correlated per
//! connection, so pipelined duplicates within one connection are
//! indistinguishable to that client.
//!
//! # Strict vs. lenient ingest
//!
//! [`read_jobs`] is strict — the first malformed line aborts the read
//! with its line number, which is what an offline batch wants (fail
//! fast, fix the file). [`read_jobs_lenient`] instead skips malformed
//! lines, reporting each with its line number and counting them into
//! the `drift_serve_jobs_rejected_total` metric — what a long-lived
//! ingest wants (one bad producer must not poison the stream). Both
//! skip blank lines.

use drift_obs::Recorder;
use serde::{Deserialize, Serialize};
use std::io::BufRead;

/// One unit of work for the serve runtime.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobSpec {
    /// Caller-chosen identifier echoed into the matching [`JobResult`].
    pub id: u64,
    /// Seed for the job's private RNG; equal specs give equal results.
    pub seed: u64,
    /// What to compute.
    pub kind: JobKind,
}

/// The job kinds, mirroring the `drift` CLI's offline subcommands.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum JobKind {
    /// Run the precision selector on a synthetic activation tensor.
    Select {
        /// Streamed tokens (sub-tensors).
        tokens: usize,
        /// Hidden dimension (elements per sub-tensor).
        hidden: usize,
        /// Density threshold δ of Eq. 6.
        delta: f64,
        /// Data profile: `cnn`, `vit`, `bert`, or `llm`.
        profile: String,
    },
    /// Solve Eq. 8 for a precision mix on the paper fabric.
    Schedule {
        /// Streamed dimension.
        m: usize,
        /// Reduction dimension.
        k: usize,
        /// Output dimension.
        n: usize,
        /// Fraction of high-precision activation rows.
        fa: f64,
        /// Fraction of high-precision weight columns.
        fw: f64,
    },
    /// Execute a full GEMM on the Drift accelerator model, with
    /// precision maps drawn row-by-row from the job's RNG.
    Simulate {
        /// Streamed dimension.
        m: usize,
        /// Reduction dimension.
        k: usize,
        /// Output dimension.
        n: usize,
        /// Probability that an activation row is high precision.
        fa: f64,
        /// Probability that a weight column is high precision.
        fw: f64,
    },
}

/// The most elements any one operand of a job may hold: a Select
/// job's `tokens × hidden` activations, or a GEMM job's `m × k`
/// activations, `k × n` weights and `m × n` outputs.
///
/// 2^26 is the largest operand the model zoo lowers to, the
/// 4096 × 16384 MLP weights of BLOOM-7B1 and OPT-6.7B; every synthetic
/// stream stays far below it. Above it a job is refused with a job
/// error before any work or allocation is sized from its fields, so a
/// hostile line cannot make a process abort on a failed allocation.
pub const MAX_JOB_ELEMENTS: usize = 1 << 26;

impl JobKind {
    /// Refuses a job whose operands exceed [`MAX_JOB_ELEMENTS`]
    /// (products that overflow `usize` included).
    ///
    /// # Errors
    ///
    /// Names the first oversized operand.
    pub fn check_size(&self) -> Result<(), String> {
        let operands: &[(&str, usize, usize)] = match *self {
            JobKind::Select { tokens, hidden, .. } => &[("Select tensor", tokens, hidden)],
            JobKind::Schedule { m, k, n, .. } | JobKind::Simulate { m, k, n, .. } => &[
                ("activation operand", m, k),
                ("weight operand", k, n),
                ("output operand", m, n),
            ],
        };
        for &(name, rows, cols) in operands {
            if rows.checked_mul(cols).is_none_or(|n| n > MAX_JOB_ELEMENTS) {
                return Err(format!(
                    "job too large: the {rows}x{cols} {name} is over the limit of \
                     {MAX_JOB_ELEMENTS} elements per operand"
                ));
            }
        }
        Ok(())
    }

    /// A short label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            JobKind::Select { .. } => "select",
            JobKind::Schedule { .. } => "schedule",
            JobKind::Simulate { .. } => "simulate",
        }
    }
}

/// The outcome of one job, echoing its id.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobResult {
    /// The [`JobSpec::id`] this result answers.
    pub id: u64,
    /// The payload (or error).
    pub outcome: JobOutcome,
}

/// Per-kind result payloads.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum JobOutcome {
    /// Selector statistics.
    Select {
        /// Sub-tensors converted to the low precision.
        low_subtensors: usize,
        /// Total sub-tensors examined.
        subtensors: usize,
        /// Fraction of elements at the low precision.
        low_fraction: f64,
    },
    /// The balanced schedule's quality.
    Schedule {
        /// The layer's compute time in cycles.
        makespan: u64,
        /// Per-quadrant latencies in `(hh, hl, lh, ll)` order.
        latencies: [u64; 4],
    },
    /// The execution report of the simulated GEMM.
    Simulate {
        /// End-to-end cycles.
        cycles: u64,
        /// Compute-side cycles.
        compute_cycles: u64,
        /// DRAM-side cycles.
        dram_cycles: u64,
        /// Total energy, pJ.
        energy_pj: f64,
    },
    /// The job failed; the message says why.
    Error {
        /// Human-readable failure description.
        message: String,
    },
}

/// Parses one JSONL line into a job.
///
/// # Errors
///
/// Returns the JSON parser's message on malformed input.
pub fn parse_job(line: &str) -> Result<JobSpec, String> {
    serde_json::from_str(line).map_err(|e| e.to_string())
}

/// Reads a whole JSONL job stream, skipping blank lines.
///
/// # Errors
///
/// Reports I/O and parse failures with their 1-based line number.
pub fn read_jobs(reader: impl BufRead) -> Result<Vec<JobSpec>, String> {
    let mut jobs = Vec::new();
    for (idx, line) in reader.lines().enumerate() {
        let line = line.map_err(|e| format!("line {}: {e}", idx + 1))?;
        if line.trim().is_empty() {
            continue;
        }
        jobs.push(parse_job(&line).map_err(|e| format!("line {}: {e}", idx + 1))?);
    }
    Ok(jobs)
}

/// What a lenient JSONL read produced: the good jobs plus a record of
/// every line that was skipped.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LenientIngest {
    /// The jobs that parsed, in stream order.
    pub jobs: Vec<JobSpec>,
    /// `(1-based line number, parse error)` for each skipped line.
    pub skipped: Vec<(usize, String)>,
}

/// Reads a JSONL job stream, skipping malformed lines instead of
/// aborting. Each skipped line is recorded with its 1-based line number
/// and counted into `drift_serve_jobs_rejected_total` on `recorder`.
///
/// # Errors
///
/// Only I/O failures abort the read; parse failures never do.
pub fn read_jobs_lenient(
    reader: impl BufRead,
    recorder: &Recorder,
) -> Result<LenientIngest, String> {
    let mut ingest = LenientIngest::default();
    for (idx, line) in reader.lines().enumerate() {
        let line = line.map_err(|e| format!("line {}: {e}", idx + 1))?;
        if line.trim().is_empty() {
            continue;
        }
        match parse_job(&line) {
            Ok(job) => ingest.jobs.push(job),
            Err(e) => {
                recorder.counter_add("drift_serve_jobs_rejected_total", &[], 1);
                ingest.skipped.push((idx + 1, e));
            }
        }
    }
    Ok(ingest)
}

/// Renders a result as one JSONL line (no trailing newline).
pub fn result_line(result: &JobResult) -> String {
    serde_json::to_string(result).expect("job results contain only finite numbers")
}

/// The GEMM shape pool the synthetic streams cycle through.
const SHAPES: [(usize, usize, usize); 8] = [
    (256, 768, 768),
    (512, 768, 3072),
    (128, 1024, 1024),
    (64, 512, 512),
    (384, 768, 768),
    (256, 2048, 2048),
    (512, 512, 2048),
    (96, 4096, 1024),
];
/// The `(fa, fw)` fraction pairs the synthetic streams cycle through.
const FRACTIONS: [(f64, f64); 4] = [(0.1, 0.1), (0.2, 0.1), (0.5, 0.25), (0.8, 0.5)];

/// A deterministic all-`Schedule` job stream — the "small job" load:
/// each distinct (shape, fraction) pair is solved once and every
/// repeat is a schedule-cache hit executing in microseconds, so a
/// stream like this measures per-request wire and admission overhead
/// rather than execution (the batching sweep in `EXPERIMENTS.md`).
/// Cycles the same shape/fraction tables as [`synthetic_jobs`]; equal
/// arguments always produce the identical job list.
pub fn synthetic_schedule_jobs(
    count: usize,
    distinct_shapes: usize,
    master_seed: u64,
) -> Vec<JobSpec> {
    let shapes = &SHAPES[..distinct_shapes.clamp(1, SHAPES.len())];
    (0..count)
        .map(|i| {
            let (m, k, n) = shapes[i % shapes.len()];
            let (fa, fw) = FRACTIONS[(i / shapes.len()) % FRACTIONS.len()];
            JobSpec {
                id: i as u64,
                seed: master_seed.wrapping_add((i % 8) as u64),
                kind: JobKind::Schedule { m, k, n, fa, fw },
            }
        })
        .collect()
}

/// A deterministic synthetic job mix for benchmarks and load tests.
///
/// Jobs cycle through `distinct_shapes` GEMM shapes (capped at the
/// built-in pool) and a small seed pool, so a long stream revisits the
/// same schedule keys and exercises the cache; the mix is roughly 20%
/// select, 40% schedule, 40% simulate. Equal arguments always produce
/// the identical job list.
pub fn synthetic_jobs(count: usize, distinct_shapes: usize, master_seed: u64) -> Vec<JobSpec> {
    const PROFILES: [&str; 4] = ["cnn", "vit", "bert", "llm"];
    let shapes = &SHAPES[..distinct_shapes.clamp(1, SHAPES.len())];
    (0..count)
        .map(|i| {
            let (m, k, n) = shapes[i % shapes.len()];
            let (fa, fw) = FRACTIONS[(i / shapes.len()) % FRACTIONS.len()];
            // A small seed pool: repeated (shape, seed) pairs give the
            // simulate jobs repeated schedule keys too.
            let seed = master_seed.wrapping_add((i % 8) as u64);
            let kind = match i % 5 {
                0 => JobKind::Select {
                    tokens: m.min(256),
                    hidden: k.min(1024),
                    delta: 0.03,
                    profile: PROFILES[i % PROFILES.len()].to_string(),
                },
                1 | 2 => JobKind::Schedule { m, k, n, fa, fw },
                _ => JobKind::Simulate { m, k, n, fa, fw },
            };
            JobSpec {
                id: i as u64,
                seed,
                kind,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn specs_round_trip_through_jsonl() {
        let jobs = synthetic_jobs(25, 8, 42);
        let text: String = jobs
            .iter()
            .map(|j| serde_json::to_string(j).unwrap() + "\n")
            .collect();
        let back = read_jobs(Cursor::new(text)).unwrap();
        assert_eq!(back, jobs);
    }

    #[test]
    fn blank_lines_are_skipped_and_errors_carry_line_numbers() {
        let text = "\n{\"id\":0,\"seed\":1,\"kind\":{\"Schedule\":{\"m\":8,\"k\":8,\"n\":8,\"fa\":0.5,\"fw\":0.5}}}\n\nnot json\n";
        let err = read_jobs(Cursor::new(text)).unwrap_err();
        assert!(err.starts_with("line 4:"), "{err}");
        let ok = read_jobs(Cursor::new(
            "{\"id\":3,\"seed\":1,\"kind\":{\"Select\":{\"tokens\":4,\"hidden\":8,\"delta\":0.1,\"profile\":\"bert\"}}}\n",
        ))
        .unwrap();
        assert_eq!(ok.len(), 1);
        assert_eq!(ok[0].kind.label(), "select");
    }

    #[test]
    fn lenient_read_skips_bad_lines_and_counts_them() {
        let text = "\n{\"id\":0,\"seed\":1,\"kind\":{\"Schedule\":{\"m\":8,\"k\":8,\"n\":8,\"fa\":0.5,\"fw\":0.5}}}\nnot json\n{\"id\":7}\n{\"id\":1,\"seed\":2,\"kind\":{\"Select\":{\"tokens\":4,\"hidden\":8,\"delta\":0.1,\"profile\":\"bert\"}}}\n";
        let recorder = Recorder::enabled();
        let ingest = read_jobs_lenient(Cursor::new(text), &recorder).unwrap();
        assert_eq!(
            ingest.jobs.iter().map(|j| j.id).collect::<Vec<_>>(),
            vec![0, 1]
        );
        let skipped_lines: Vec<usize> = ingest.skipped.iter().map(|(n, _)| *n).collect();
        assert_eq!(skipped_lines, vec![3, 4]);
        let snap = recorder.registry().unwrap().snapshot();
        assert_eq!(snap.counter_sum("drift_serve_jobs_rejected_total"), 2);
        // Strict and lenient agree on a clean stream.
        let clean = "{\"id\":3,\"seed\":1,\"kind\":{\"Select\":{\"tokens\":4,\"hidden\":8,\"delta\":0.1,\"profile\":\"bert\"}}}\n";
        let strict = read_jobs(Cursor::new(clean)).unwrap();
        let lenient = read_jobs_lenient(Cursor::new(clean), &Recorder::disabled()).unwrap();
        assert_eq!(strict, lenient.jobs);
        assert!(lenient.skipped.is_empty());
    }

    #[test]
    fn results_round_trip() {
        let r = JobResult {
            id: 9,
            outcome: JobOutcome::Simulate {
                cycles: 123,
                compute_cycles: 120,
                dram_cycles: 88,
                energy_pj: 1.25e6,
            },
        };
        let line = result_line(&r);
        assert_eq!(serde_json::from_str::<JobResult>(&line).unwrap(), r);
    }

    #[test]
    fn oversized_jobs_fail_the_size_check() {
        let select = |tokens, hidden| JobKind::Select {
            tokens,
            hidden,
            delta: 0.1,
            profile: "bert".to_string(),
        };
        let gemm = |m, k, n| JobKind::Simulate {
            m,
            k,
            n,
            fa: 0.5,
            fw: 0.5,
        };
        assert!(select(1 << 13, 1 << 13).check_size().is_ok());
        assert!(select(1, MAX_JOB_ELEMENTS + 1).check_size().is_err());
        assert!(select(usize::MAX, 2).check_size().is_err());
        // The largest zoo operand passes; each operand is checked.
        assert!(gemm(1024, 4096, 16384).check_size().is_ok());
        let err = gemm(1 << 40, 1, 1).check_size().unwrap_err();
        assert!(err.contains("activation operand"), "{err}");
        assert!(gemm(1, 1, 1 << 27).check_size().is_err());
        assert!(gemm(1 << 14, 1, 1 << 14).check_size().is_err());
        // Every synthetic job is within the limit.
        assert!(synthetic_jobs(40, 8, 1)
            .iter()
            .all(|j| j.kind.check_size().is_ok()));
    }

    #[test]
    fn synthetic_mix_is_deterministic_and_varied() {
        let a = synthetic_jobs(100, 4, 7);
        let b = synthetic_jobs(100, 4, 7);
        assert_eq!(a, b);
        assert!(a.iter().any(|j| j.kind.label() == "select"));
        assert!(a.iter().any(|j| j.kind.label() == "schedule"));
        assert!(a.iter().any(|j| j.kind.label() == "simulate"));
        // Ids are the 0..count sequence.
        assert!(a.iter().enumerate().all(|(i, j)| j.id == i as u64));
    }
}
