//! The line server both tiers run on. The gateway and the router speak
//! the same newline-delimited JSON, so each supplies only a
//! [`LineHandler`] that answers one request line, and one
//! [`LineServer`] owns the rest: accepting, `TCP_NODELAY`, reads that
//! tick every [`READ_TICK`] (so readers notice shutdown and idle
//! expiry), skipping blank lines, the reply channel, a writer that
//! discards once a write stalls past [`WRITE_TIMEOUT`], and joining
//! every connection at shutdown.
//!
//! [`LineReader`] keeps a partial line buffered across read ticks (where
//! `BufRead::read_line` would lose it) and lends each complete line from
//! a reused scratch buffer: zero allocations per line after warm-up,
//! however many jobs a line carries.

use crossbeam::channel::{unbounded, Receiver, Sender};
use drift_obs::{SpanCtx, Stage};
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Longest line, in bytes before its newline, a [`LineReader`]
/// accepts; a longer line fails the connection.
pub const MAX_LINE_BYTES: usize = 1 << 20;
/// How often blocked reads and the idle accept loop wake up to check
/// shutdown and idle expiry.
pub const READ_TICK: Duration = Duration::from_millis(100);
/// How long a writer waits on a stalled client before discarding the
/// rest of that connection's replies.
pub const WRITE_TIMEOUT: Duration = Duration::from_secs(5);

/// What one [`LineReader::next_line_ref`] call produced.
#[derive(Debug)]
pub enum LineEventRef<'a> {
    /// A complete line (newline stripped; a preceding `\r` too; invalid
    /// UTF-8 replaced lossily), valid until the next call.
    Line(&'a str),
    /// The read timed out with no complete line; partial input stays
    /// buffered.
    TimedOut,
    /// The peer closed the connection (a partial last line is dropped).
    Eof,
    /// The connection failed (socket error or an over-long line).
    Failed,
}

/// A newline-framed reader over a socket with a read timeout, keeping
/// partial lines buffered across timeout ticks.
#[derive(Debug)]
pub struct LineReader {
    stream: TcpStream,
    buf: Vec<u8>,
    /// How much of `buf` is known to hold no newline, so each read
    /// scans only the bytes it added.
    scanned: usize,
    /// Scratch the current line is decoded into — reused across lines
    /// so steady-state reads allocate nothing.
    line: String,
}

impl LineReader {
    /// Wraps `stream`. The caller is responsible for having set a read
    /// timeout if it wants [`LineEventRef::TimedOut`] ticks.
    pub fn new(stream: TcpStream) -> Self {
        LineReader {
            stream,
            buf: Vec::new(),
            scanned: 0,
            line: String::new(),
        }
    }

    /// Blocks until the next complete line, a timeout tick, EOF, or a
    /// failure. A line longer than [`MAX_LINE_BYTES`] fails, however its
    /// bytes arrive.
    pub fn next_line_ref(&mut self) -> LineEventRef<'_> {
        loop {
            if let Some(at) = self.buf[self.scanned..].iter().position(|&b| b == b'\n') {
                let pos = self.scanned + at;
                self.scanned = 0;
                if pos > MAX_LINE_BYTES {
                    return LineEventRef::Failed;
                }
                let mut end = pos;
                if end > 0 && self.buf[end - 1] == b'\r' {
                    end -= 1;
                }
                self.line.clear();
                self.line
                    .push_str(&String::from_utf8_lossy(&self.buf[..end]));
                // A memmove of the tail, not a fresh allocation.
                self.buf.drain(..=pos);
                return LineEventRef::Line(&self.line);
            }
            self.scanned = self.buf.len();
            if self.buf.len() > MAX_LINE_BYTES {
                return LineEventRef::Failed;
            }
            let mut chunk = [0u8; 4096];
            match self.stream.read(&mut chunk) {
                Ok(0) => return LineEventRef::Eof,
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    return LineEventRef::TimedOut;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return LineEventRef::Failed,
            }
        }
    }
}

/// One queued response line (without its newline).
#[derive(Debug, Clone)]
pub struct Reply {
    /// The line.
    pub line: String,
    /// Whether [`LineHandler::write_stage`] times this reply's write.
    pub timed: bool,
    /// The sampled request's span, the parent of the write's span.
    pub request_span: Option<SpanCtx>,
}

impl Reply {
    /// An untimed reply: a control ack, a refusal, or any router reply.
    pub fn plain(line: String) -> Reply {
        Reply {
            line,
            timed: false,
            request_span: None,
        }
    }
}

/// What a tier plugs into a [`LineServer`]: how to answer one line,
/// when to stop, and its connection and dropped-reply accounting.
pub trait LineHandler: Send + Sync + 'static {
    /// Handles one non-blank request line, queueing its answer (if any)
    /// on `reply`. Returns `false` to stop reading this connection.
    fn line(&self, line: &str, reply: &Sender<Reply>) -> bool;
    /// True once the tier is stopping: the accept loop and the readers
    /// exit at their next tick.
    fn stopping(&self) -> bool;
    /// Counts a connection opening (`1`) or closing (`-1`).
    fn connections(&self, delta: i64);
    /// Counts a reply the client is gone or too stalled to receive.
    fn dropped(&self);
    /// Opens the stage timing `reply`'s write, if this tier times it;
    /// it ends `ok`, or `dropped` when the write fails.
    fn write_stage(&self, _reply: &Reply) -> Option<Stage<'_>> {
        None
    }
}

/// A running line server: its accept loop, which owns the connection
/// threads it spawns.
#[derive(Debug)]
pub struct LineServer(JoinHandle<()>);

impl LineServer {
    /// Serves `listener` with `handler` on threads named `{tier}-acceptor`
    /// and, per connection, `{tier}-conn` and `{tier}-writer`. A connection
    /// idle for `idle_timeout_ms` is closed (`0` disables idle expiry).
    ///
    /// # Errors
    ///
    /// Fails when the listener cannot be made non-blocking or the
    /// accept thread cannot be spawned.
    pub fn start<H: LineHandler>(
        listener: TcpListener,
        tier: &'static str,
        idle_timeout_ms: u64,
        handler: H,
    ) -> io::Result<LineServer> {
        listener.set_nonblocking(true)?;
        let handler = Arc::new(handler);
        let idle = Duration::from_millis(idle_timeout_ms);
        let mut conns: Vec<JoinHandle<()>> = Vec::new();
        let acceptor = move || {
            while !handler.stopping() {
                let Ok((stream, _peer)) = listener.accept() else {
                    std::thread::sleep(READ_TICK);
                    continue;
                };
                let handler = Arc::clone(&handler);
                let conn = std::thread::Builder::new()
                    .name(format!("{tier}-conn"))
                    .spawn(move || connection(stream, tier, idle, &handler));
                // Reap finished connections so a long-lived server does
                // not accumulate dead handles.
                conns.retain(|h| !h.is_finished());
                if let Ok(conn) = conn {
                    conns.push(conn);
                }
            }
            for conn in conns {
                let _ = conn.join();
            }
        };
        std::thread::Builder::new()
            .name(format!("{tier}-acceptor"))
            .spawn(acceptor)
            .map(LineServer)
    }

    /// Waits for the accept loop, which exits once the handler reports
    /// [`LineHandler::stopping`] and then joins each reader; a reader
    /// joins its writer once every reply sender is gone. The handler is
    /// dropped by the time this returns.
    pub fn join(self) {
        let _ = self.0.join();
    }
}

/// One connection's reader, which owns its writer thread.
fn connection<H: LineHandler>(
    stream: TcpStream,
    tier: &'static str,
    idle: Duration,
    handler: &Arc<H>,
) {
    let _ = stream.set_nodelay(true);
    if stream.set_read_timeout(Some(READ_TICK)).is_err() {
        return;
    }
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    handler.connections(1);

    let (reply_tx, reply_rx) = unbounded::<Reply>();
    let writer = {
        let handler = Arc::clone(handler);
        std::thread::Builder::new()
            .name(format!("{tier}-writer"))
            .spawn(move || writer_loop(write_half, &reply_rx, &*handler))
    };

    let mut lines = LineReader::new(stream);
    let mut last_activity = Instant::now();
    while !handler.stopping() {
        match lines.next_line_ref() {
            LineEventRef::Line(line) => {
                last_activity = Instant::now();
                if !line.trim().is_empty() && !handler.line(line, &reply_tx) {
                    break;
                }
            }
            LineEventRef::TimedOut => {
                if !idle.is_zero() && last_activity.elapsed() >= idle {
                    break;
                }
            }
            LineEventRef::Eof | LineEventRef::Failed => break,
        }
    }
    // The writer exits once every in-flight request's clone of this
    // sender is gone too: after all accepted work is answered.
    drop(reply_tx);
    if let Ok(writer) = writer {
        let _ = writer.join();
    }
    handler.connections(-1);
}

/// Writes reply lines until every sender is gone. A write failure
/// (client gone or stalled past [`WRITE_TIMEOUT`]) flips the writer
/// into discard mode: remaining replies are drained and counted as
/// dropped so in-flight senders never block on a dead peer.
fn writer_loop<H: LineHandler>(mut stream: TcpStream, replies: &Receiver<Reply>, handler: &H) {
    let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
    let mut dead = false;
    // Reply scratch, reused across replies: after warm-up the writer
    // performs zero allocations per line (batch responses can run to
    // hundreds of KiB, so recycling the capacity matters).
    let mut buf: Vec<u8> = Vec::new();
    for reply in replies.iter() {
        if !dead {
            let write = handler.write_stage(&reply);
            buf.clear();
            buf.extend_from_slice(reply.line.as_bytes());
            buf.push(b'\n');
            dead = stream.write_all(&buf).is_err() || stream.flush().is_err();
            if let Some(write) = write {
                let outcome = if dead { "dropped" } else { "ok" };
                write.end(outcome, &[("outcome", outcome)]);
            }
            if !dead {
                continue;
            }
        }
        handler.dropped();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A connected socket pair: the client end to write to, and a
    /// reader over the server end whose reads tick every millisecond.
    fn pair() -> (TcpStream, LineReader) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        server
            .set_read_timeout(Some(Duration::from_millis(1)))
            .unwrap();
        (client, LineReader::new(server))
    }

    /// The next event that is not a timeout tick, as an owned value.
    fn next(reader: &mut LineReader) -> Result<String, &'static str> {
        loop {
            match reader.next_line_ref() {
                LineEventRef::Line(line) => return Ok(line.to_owned()),
                LineEventRef::TimedOut => {}
                LineEventRef::Eof => return Err("eof"),
                LineEventRef::Failed => return Err("failed"),
            }
        }
    }

    /// Asserts the reader has no complete line yet: with only part of
    /// a line sent, the read can only tick.
    fn assert_pending(reader: &mut LineReader) {
        assert!(matches!(reader.next_line_ref(), LineEventRef::TimedOut));
    }

    #[test]
    fn a_line_split_across_many_writes_arrives_whole() {
        let (mut client, mut reader) = pair();
        let line = "{\"id\":1,\"seed\":2}".repeat(300);
        for piece in line.as_bytes().chunks(97) {
            client.write_all(piece).unwrap();
            assert_pending(&mut reader);
        }
        client.write_all(b"\n").unwrap();
        assert_eq!(next(&mut reader).unwrap(), line);
    }

    #[test]
    fn carriage_return_and_newline_in_separate_writes_strip_both() {
        let (mut client, mut reader) = pair();
        client.write_all(b"abc\r").unwrap();
        assert_pending(&mut reader);
        client.write_all(b"\n").unwrap();
        assert_eq!(next(&mut reader).unwrap(), "abc");
    }

    #[test]
    fn several_lines_in_one_write_come_out_one_at_a_time() {
        let (mut client, mut reader) = pair();
        client.write_all(b"one\ntwo\r\n\nthree\n").unwrap();
        for expect in ["one", "two", "", "three"] {
            assert_eq!(next(&mut reader).unwrap(), expect);
        }
        assert_pending(&mut reader);
    }

    #[test]
    fn eof_mid_line_is_eof() {
        let (mut client, mut reader) = pair();
        client.write_all(b"whole\npartial").unwrap();
        client.shutdown(std::net::Shutdown::Write).unwrap();
        assert_eq!(next(&mut reader).unwrap(), "whole");
        assert_eq!(next(&mut reader), Err("eof"));
    }

    #[test]
    fn invalid_utf8_is_replaced_lossily() {
        let (mut client, mut reader) = pair();
        client.write_all(b"a\xffb\n").unwrap();
        assert_eq!(next(&mut reader).unwrap(), "a\u{FFFD}b");
    }

    /// Sends `len` bytes of `x` then a newline from another thread (the
    /// line outgrows the socket buffers) and returns the length of the
    /// line the reader made of it.
    fn read_line_of(len: usize) -> Result<usize, &'static str> {
        let (mut client, mut reader) = pair();
        std::thread::scope(move |scope| {
            scope.spawn(move || {
                let mut line = vec![b'x'; len];
                line.push(b'\n');
                // Fails once the reader below hangs up mid-line.
                let _ = client.write_all(&line);
            });
            let got = next(&mut reader).map(|line| line.len());
            // Hang up so a writer still blocked mid-line returns.
            drop(reader);
            got
        })
    }

    #[test]
    fn the_line_cap_holds_however_the_bytes_arrive() {
        assert_eq!(read_line_of(MAX_LINE_BYTES), Ok(MAX_LINE_BYTES));
        assert_eq!(read_line_of(MAX_LINE_BYTES + 1), Err("failed"));
    }
}
