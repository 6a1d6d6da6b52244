//! Generated inputs for the line reader both tiers run on: seeded
//! truncations, bit flips, invalid UTF-8 and over-long lines, sent to a
//! gateway in random chunk splits. Every bad line gets one `bad_request`
//! line and the stream stays alive; an over-long line fails only its own
//! connection. The proptest stand-in does not shrink, so cases are small.

use drift_gateway::framing::MAX_LINE_BYTES;
use drift_gateway::protocol::{
    control_line, parse_request, parse_response, request_line, ControlOp, Request, Response,
    ERR_BAD_REQUEST,
};
use drift_gateway::server::{Gateway, GatewayConfig};
use drift_obs::Recorder;
use drift_serve::job::{JobKind, JobSpec};
use proptest::{run_cases, TestCaseError, TestRng};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

/// A job small enough to stay fast in debug builds, whatever one bit
/// flip makes of its numbers.
fn job_line(id: u64) -> Vec<u8> {
    let spec = JobSpec {
        id,
        seed: id + 1,
        kind: JobKind::Schedule {
            m: 64,
            k: 128,
            n: 64,
            fa: 0.25,
            fw: 0.5,
        },
    };
    request_line(&spec, None).into_bytes()
}

/// A job line, whole or damaged one of three ways.
fn generated_line(rng: &mut TestRng, id: u64) -> Vec<u8> {
    let mut line = job_line(id);
    let at = rng.next_u64() as usize % line.len();
    match rng.next_u64() % 4 {
        0 => {}
        1 => line.truncate(at),
        2 => {
            let flipped = line[at] ^ 1 << (rng.next_u64() % 8);
            // A flip to a newline would split the line in two.
            if flipped != b'\n' {
                line[at] = flipped;
            }
        }
        _ => {
            let invalid: [&[u8]; 3] = [b"\xff", b"\xc3", b"\xe2\x82"];
            let bytes = invalid[rng.next_u64() as usize % invalid.len()];
            line.splice(at..at, bytes.iter().copied());
        }
    }
    line
}

/// How many reply lines the gateway owes `line`, and whether that one
/// is a `bad_request`: decoded as the line reader decodes it, a blank
/// line gets none, a job one reply carrying its id, anything else one
/// `bad_request`. `None` for a line that decodes to some other request.
fn owed(line: &[u8]) -> Option<(u64, bool)> {
    let line = line.strip_suffix(b"\r").unwrap_or(line);
    let line = String::from_utf8_lossy(line);
    if line.trim().is_empty() {
        return Some((0, false));
    }
    match parse_request(&line) {
        Ok(Request::Job(_)) => Some((1, false)),
        Err(_) => Some((1, true)),
        Ok(_) => None,
    }
}

/// Writes `bytes` in chunks of 1 to 64 bytes.
fn write_in_chunks(rng: &mut TestRng, stream: &mut TcpStream, mut bytes: &[u8]) {
    while !bytes.is_empty() {
        let n = (1 + rng.next_u64() as usize % 64).min(bytes.len());
        stream.write_all(&bytes[..n]).unwrap();
        bytes = &bytes[n..];
    }
}

fn connect(gateway: &Gateway) -> TcpStream {
    let stream = TcpStream::connect(gateway.local_addr()).unwrap();
    stream.set_nodelay(true).unwrap();
    // A hung read fails the test instead of hanging it.
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    stream
}

fn start() -> Gateway {
    Gateway::start(
        "127.0.0.1:0",
        GatewayConfig::with_workers(2),
        Recorder::disabled(),
    )
    .unwrap()
}

#[test]
fn each_bad_line_gets_one_bad_request_and_the_stream_stays_alive() {
    let gateway = start();
    // One connection carries every case: it must outlive them all.
    let mut reader = BufReader::new(connect(&gateway));
    let (mut all_bad, mut all_jobs) = (0, 0);
    run_cases("damaged_lines_in_random_chunks", |rng| {
        let mut stream = Vec::new();
        let (mut replies, mut bad) = (0, 0);
        for id in 0..1 + rng.next_u64() % 12 {
            let line = generated_line(rng, id);
            let Some((owed, is_bad)) = owed(&line) else {
                return Err(TestCaseError::Reject);
            };
            replies += owed;
            bad += u64::from(is_bad);
            stream.extend_from_slice(&line);
            stream.extend_from_slice(if rng.next_u64() % 4 == 0 {
                b"\r\n"
            } else {
                b"\n"
            });
        }
        // A ping last: its ack proves the stream is still read.
        stream.extend_from_slice(control_line(ControlOp::Ping).as_bytes());
        stream.push(b'\n');
        write_in_chunks(rng, reader.get_mut(), &stream);

        // Bad lines are answered by the reader, jobs by the workers, so
        // only the counts are fixed, not the order.
        let (mut got_bad, mut got_jobs, mut acked) = (0, 0, false);
        for _ in 0..replies + 1 {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            match parse_response(line.trim_end()) {
                Ok(Response::Error { id: None, error }) if error == ERR_BAD_REQUEST => got_bad += 1,
                Ok(Response::Control { op, ok: true, .. }) if op == "ping" => acked = true,
                Ok(Response::Result(_) | Response::Error { id: Some(_), .. }) => got_jobs += 1,
                other => return Err(TestCaseError::fail(format!("unexpected reply {other:?}"))),
            }
        }
        if !acked || got_bad != bad || got_jobs != replies - bad {
            return Err(TestCaseError::fail(format!(
                "{got_bad} of {bad} bad_request replies, {got_jobs} of {} job replies, acked {acked}",
                replies - bad
            )));
        }
        all_bad += bad;
        all_jobs += replies - bad;
        Ok(())
    });
    // The generator made both kinds of line.
    assert!(
        all_bad > 0 && all_jobs > 0,
        "{all_bad} bad, {all_jobs} jobs"
    );
    let summary = gateway.shutdown();
    assert_eq!(summary.dropped, 0, "{}", summary.render());
}

#[test]
fn an_over_long_line_fails_only_its_own_connection() {
    let gateway = start();
    let mut rng = TestRng::new(7);
    for case in 0..3 {
        let mut doomed = connect(&gateway);
        let mut stream = job_line(case);
        stream.push(b'\n');
        let long = MAX_LINE_BYTES + 1 + rng.next_u64() as usize % 64;
        stream.extend(std::iter::repeat_n(b'{', long));
        stream.push(b'\n');
        let chunk = 1 + rng.next_u64() as usize % 8192;
        let mut writer = doomed.try_clone().unwrap();
        // The write fails once the gateway hangs up mid-line.
        let sender = std::thread::spawn(move || {
            for piece in stream.chunks(chunk) {
                if writer.write_all(piece).is_err() {
                    break;
                }
            }
        });

        // Another connection is served all the while.
        let mut other = BufReader::new(connect(&gateway));
        let ping = format!("{}\n", control_line(ControlOp::Ping));
        other.get_mut().write_all(ping.as_bytes()).unwrap();
        let mut line = String::new();
        other.read_line(&mut line).unwrap();
        assert!(line.contains("\"ping\""), "case {case}: {line:?}");

        // The doomed connection ends: EOF, or a reset if the gateway
        // closed with the rest of the line unread. A read timeout fails.
        let mut rest = Vec::new();
        let ended = std::io::Read::read_to_end(&mut doomed, &mut rest);
        assert!(
            ended.as_ref().map_or_else(
                |e| e.kind() == std::io::ErrorKind::ConnectionReset,
                |_| true
            ),
            "case {case}: {ended:?}"
        );
        sender.join().unwrap();
    }
    gateway.shutdown();
}
