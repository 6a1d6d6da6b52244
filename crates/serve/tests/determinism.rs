//! End-to-end determinism: one JSONL job stream must produce the
//! identical result set at any worker count, byte-for-byte, including
//! through the JSONL encode/decode round trip the CLI performs.

use drift_serve::job::{read_jobs, result_line, JobKind, JobSpec};
use drift_serve::{serve, synthetic_jobs, ServeConfig};
use std::io::Cursor;

#[test]
fn one_and_eight_workers_produce_identical_result_sets() {
    // The stream leaves and re-enters through JSONL, exactly like
    // `drift serve --jobs - < jobs.jsonl`.
    let jsonl: String = synthetic_jobs(160, 8, 2024)
        .iter()
        .map(|j| serde_json::to_string(j).unwrap() + "\n")
        .collect();

    let run = |workers: usize| -> Vec<String> {
        let jobs = read_jobs(Cursor::new(jsonl.clone())).unwrap();
        let outcome = serve(jobs, &ServeConfig::with_workers(workers));
        assert_eq!(outcome.results.len(), 160, "lost or duplicated results");
        assert_eq!(outcome.report.errors, 0);
        outcome.results.iter().map(result_line).collect()
    };

    let mut solo = run(1);
    let mut pool = run(8);
    // Order-insensitive comparison of the rendered JSONL lines.
    solo.sort();
    pool.sort();
    assert_eq!(solo, pool);
}

#[test]
fn dequeue_interleaving_does_not_change_the_result_set() {
    // The deadline heap reorders *when* jobs run, never *what* they
    // compute. Offline serve jobs carry no deadlines, so the heap
    // drains in submission order, and one worker sees exactly that
    // order while eight interleave it: both must deliver the identical
    // result set, and so must a repeat of the one-worker run.
    let jobs = synthetic_jobs(120, 6, 77);

    let run = |workers: usize| -> Vec<String> {
        let outcome = serve(jobs.clone(), &ServeConfig::with_workers(workers));
        assert_eq!(
            outcome.results.len(),
            jobs.len(),
            "[x{workers}] lost or duplicated results"
        );
        assert_eq!(outcome.report.errors, 0);
        let mut lines: Vec<String> = outcome.results.iter().map(result_line).collect();
        lines.sort();
        lines
    };

    let baseline = run(1);
    for workers in [1, 8] {
        assert_eq!(run(workers), baseline, "[x{workers}]");
    }
}

/// FNV-1a, 64-bit, over every result line plus its newline.
fn fnv64(lines: &[String]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for byte in lines.iter().flat_map(|l| l.bytes().chain([b'\n'])) {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The edge of every job kind: 1×1 and odd-width Select tensors, δ = 0,
/// GEMMs with one row or one column, the extreme precision fractions,
/// and the invalid specs whose error messages are part of the bytes.
fn edge_jobs() -> Vec<JobSpec> {
    let select = |tokens, hidden, delta, profile: &str| JobKind::Select {
        tokens,
        hidden,
        delta,
        profile: profile.to_string(),
    };
    let simulate = |m, k, n, fa, fw| JobKind::Simulate { m, k, n, fa, fw };
    let schedule = |m, k, n, fa, fw| JobKind::Schedule { m, k, n, fa, fw };
    let kinds = vec![
        select(1, 1, 0.03, "bert"),
        select(3, 7, 0.03, "cnn"),
        select(5, 33, 0.5, "vit"),
        select(17, 129, 0.03, "llm"),
        select(8, 16, 0.0, "bert"),
        select(64, 768, 0.0, "llm"),
        select(0, 16, 0.03, "bert"),
        select(16, 0, 0.03, "bert"),
        select(0, 16, -1.0, "bert"),
        select(4, 8, -1.0, "bert"),
        select(4, 8, 0.03, "gpt"),
        simulate(1, 64, 32, 0.5, 0.5),
        simulate(48, 64, 1, 0.5, 0.5),
        simulate(1, 1, 1, 1.0, 1.0),
        simulate(96, 33, 17, 0.0, 1.0),
        simulate(96, 33, 17, 1.0, 0.0),
        simulate(130, 129, 65, 0.0, 0.0),
        simulate(130, 129, 65, 1.0, 1.0),
        simulate(0, 16, 16, 0.5, 0.5),
        schedule(1, 64, 1, 0.0, 1.0),
        schedule(64, 64, 64, 1.0, 0.0),
        schedule(0, 8, 8, 0.5, 0.5),
    ];
    kinds
        .into_iter()
        .enumerate()
        .map(|(i, kind)| JobSpec {
            id: i as u64,
            seed: 1000 + i as u64,
            kind,
        })
        .collect()
}

#[test]
fn result_bytes_are_pinned_across_commits() {
    // The other tests here compare runs with each other; this one pins
    // the bytes themselves, so a change that claims to leave results
    // untouched (a faster kernel, a refactor) is checked against the
    // literal it inherited.
    let hash = |jobs: Vec<JobSpec>| {
        let outcome = serve(jobs, &ServeConfig::with_workers(2));
        fnv64(&outcome.results.iter().map(result_line).collect::<Vec<_>>())
    };
    let regenerate = "a deliberate change to the model's results must update this \
         literal: print the new hash with `{hash:#018x}` and explain the change \
         in CHANGES.md";
    assert_eq!(
        hash(synthetic_jobs(160, 8, 42)),
        0x3f6ce3c42dc2809d,
        "synthetic_jobs(160, 8, 42) result bytes changed; {regenerate}"
    );
    assert_eq!(
        hash(edge_jobs()),
        0x94b881d8f86db036,
        "edge-job result bytes changed; {regenerate}"
    );
}
