//! The gateway is a transport, not a transform: the same job stream
//! must yield byte-identical results whether it arrives over TCP
//! through eight concurrent clients, paced open loop, in batch request
//! lines, or through the offline `drift serve` batch path, and so must
//! the schedule-only stream.

use drift_gateway::loadgen::{self, LoadGenConfig, LoadReport};
use drift_gateway::protocol::{batch_request_line, batch_response_line, request_line};
use drift_gateway::server::{Gateway, GatewayConfig};
use drift_obs::Recorder;
use drift_serve::job::{result_line, synthetic_jobs, synthetic_schedule_jobs, JobSpec};
use drift_serve::runtime::{serve, ServeConfig};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

/// Asserts `report` holds, byte for byte, the results offline `serve`
/// gives for `jobs`.
fn assert_matches_offline_serve(report: &LoadReport, jobs: Vec<JobSpec>) {
    let mut offline = serve(jobs, &ServeConfig::with_workers(8)).results;
    offline.sort_by_key(|r| r.id);
    let online_lines: Vec<String> = report.results.iter().map(result_line).collect();
    let offline_lines: Vec<String> = offline.iter().map(result_line).collect();
    assert_eq!(online_lines, offline_lines);
}

#[test]
fn gateway_results_match_offline_serve_byte_for_byte() {
    const JOBS: usize = 500;
    const SHAPES: usize = 4;
    const SEED: u64 = 42;

    let mut config = GatewayConfig::with_workers(8);
    // Deep enough that nothing sheds: every job must come back.
    config.queue_depth = JOBS;
    let gw = Gateway::start("127.0.0.1:0", config, Recorder::disabled()).unwrap();
    let addr = gw.local_addr().to_string();

    let load = LoadGenConfig {
        clients: 8,
        jobs: JOBS,
        shapes: SHAPES,
        seed: SEED,
        ..LoadGenConfig::default()
    };
    let report = loadgen::run(&addr, &load).unwrap();
    report.verify_complete().unwrap();
    assert_eq!(report.ok, JOBS as u64, "{}", report.render());
    assert_eq!(report.shed, 0);
    assert_eq!(report.expired, 0);

    let summary = gw.shutdown();
    assert_eq!(summary.accepted, JOBS as u64);
    assert_eq!(summary.dropped, 0);

    assert_matches_offline_serve(&report, synthetic_jobs(JOBS, SHAPES, SEED));
}

#[test]
fn batched_loadgen_matches_offline_serve_byte_for_byte() {
    // The full batch path — batch framing, grouped admission, shared
    // schedule execution, response splicing, batched loadgen
    // accounting — must change nothing about the bytes.
    const JOBS: usize = 256;
    const SHAPES: usize = 4;
    const SEED: u64 = 42;

    let mut config = GatewayConfig::with_workers(8);
    config.queue_depth = JOBS;
    let gw = Gateway::start("127.0.0.1:0", config, Recorder::disabled()).unwrap();
    let addr = gw.local_addr().to_string();

    let load = LoadGenConfig {
        clients: 4,
        jobs: JOBS,
        shapes: SHAPES,
        seed: SEED,
        batch: 32,
        ..LoadGenConfig::default()
    };
    let report = loadgen::run(&addr, &load).unwrap();
    report.verify_complete().unwrap();
    assert_eq!(report.ok, JOBS as u64, "{}", report.render());
    let summary = gw.shutdown();
    assert_eq!(summary.accepted, JOBS as u64);

    assert_matches_offline_serve(&report, synthetic_jobs(JOBS, SHAPES, SEED));
}

#[test]
fn open_loop_loadgen_matches_offline_serve_byte_for_byte() {
    // Paced sends pipelined into each connection while a reaper drains
    // the answers. 200 jobs cannot fill the default 256-slot queue, so
    // none sheds whatever the pace.
    const JOBS: usize = 200;
    const SHAPES: usize = 4;
    const SEED: u64 = 42;

    let gw = Gateway::start(
        "127.0.0.1:0",
        GatewayConfig::with_workers(2),
        Recorder::disabled(),
    )
    .unwrap();
    let load = LoadGenConfig {
        jobs: JOBS,
        shapes: SHAPES,
        seed: SEED,
        open_loop_rps: Some(2_000.0),
        ..LoadGenConfig::default()
    };
    let report = loadgen::run(&gw.local_addr().to_string(), &load).unwrap();
    report.verify_complete().unwrap();
    assert_eq!(report.ok, JOBS as u64, "{}", report.render());
    assert_eq!(gw.shutdown().accepted, JOBS as u64);

    assert_matches_offline_serve(&report, synthetic_jobs(JOBS, SHAPES, SEED));
}

#[test]
fn schedule_only_loadgen_matches_offline_serve_byte_for_byte() {
    const JOBS: usize = 200;
    const SHAPES: usize = 4;
    const SEED: u64 = 42;

    let gw = Gateway::start(
        "127.0.0.1:0",
        GatewayConfig::with_workers(2),
        Recorder::disabled(),
    )
    .unwrap();
    let load = LoadGenConfig {
        jobs: JOBS,
        shapes: SHAPES,
        seed: SEED,
        schedule_only: true,
        ..LoadGenConfig::default()
    };
    let report = loadgen::run(&gw.local_addr().to_string(), &load).unwrap();
    report.verify_complete().unwrap();
    assert_eq!(report.ok, JOBS as u64, "{}", report.render());
    gw.shutdown();

    assert_matches_offline_serve(&report, synthetic_schedule_jobs(JOBS, SHAPES, SEED));
}

/// Submits `jobs` one per request line over raw TCP and returns the
/// exact response line for each, in submission order.
fn drive_raw_singleton(addr: &str, jobs: &[JobSpec]) -> Vec<String> {
    let stream = TcpStream::connect(addr).expect("connect to gateway");
    stream.set_nodelay(true).expect("nodelay");
    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
    let mut write = stream;
    jobs.iter()
        .map(|spec| {
            write
                .write_all(format!("{}\n", request_line(spec, None)).as_bytes())
                .expect("send request");
            let mut response = String::new();
            reader.read_line(&mut response).expect("read response");
            response.trim_end().to_string()
        })
        .collect()
}

#[test]
fn batch_response_lines_splice_the_exact_singleton_bytes() {
    // Wire-level identity: for the same job stream, a batch response
    // line must be byte-equal to the singleton response lines spliced
    // into the batch envelope — the gateway renders items with the
    // same serializers either way and splices, never re-encodes.
    const JOBS: usize = 48;
    const BATCH: usize = 12;
    let jobs = synthetic_jobs(JOBS, 4, 7);

    let singleton_gw = Gateway::start(
        "127.0.0.1:0",
        GatewayConfig::with_workers(2),
        Recorder::disabled(),
    )
    .unwrap();
    let singleton_lines = drive_raw_singleton(&singleton_gw.local_addr().to_string(), &jobs);
    singleton_gw.shutdown();

    let mut config = GatewayConfig::with_workers(2);
    config.queue_depth = JOBS;
    let batch_gw = Gateway::start("127.0.0.1:0", config, Recorder::disabled()).unwrap();
    let stream = TcpStream::connect(batch_gw.local_addr()).expect("connect to gateway");
    stream.set_nodelay(true).expect("nodelay");
    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
    let mut write = stream;
    for (chunk, expected_items) in jobs.chunks(BATCH).zip(singleton_lines.chunks(BATCH)) {
        let batch_id = chunk[0].id;
        write
            .write_all(format!("{}\n", batch_request_line(batch_id, chunk, None)).as_bytes())
            .expect("send batch");
        let mut response = String::new();
        reader
            .read_line(&mut response)
            .expect("read batch response");
        assert_eq!(
            response.trim_end(),
            batch_response_line(batch_id, expected_items),
            "batch {batch_id}: response must splice the exact singleton bytes"
        );
    }
    batch_gw.shutdown();
}
