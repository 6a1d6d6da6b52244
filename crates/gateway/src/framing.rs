//! The line server both tiers run on. The gateway and the router speak
//! the same newline-delimited JSON, so each supplies only a
//! [`LineHandler`] that answers one request line, and one
//! [`LineServer`] owns the rest: accepting, `TCP_NODELAY`, reads that
//! tick every [`READ_TICK`] (so readers notice shutdown and idle
//! expiry), skipping blank lines, each connection's [`Outbox`], and
//! joining every connection at shutdown.
//!
//! A connection runs on one thread, its reader. A reply is written by
//! the thread that settles it: a gateway worker, a router shard-link
//! reader, or the reader itself for control acks and refusals. The
//! [`Outbox`] keeps that safe: a settling thread writes one connection
//! for less than one [`READ_TICK`] per reply it sends, whatever remains
//! then is written by the connection's own reader, and replies to a
//! client stalled past [`WRITE_TIMEOUT`] are discarded.
//!
//! [`LineReader`] keeps a partial line buffered across read ticks (where
//! `BufRead::read_line` would lose it) and lends each complete line from
//! a reused scratch buffer: zero allocations per line after warm-up,
//! however many jobs a line carries.

use drift_obs::{SpanCtx, Stage};
use std::io::{self, Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicIsize, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Longest line, in bytes before its newline, a [`LineReader`]
/// accepts; a longer line fails the connection.
pub const MAX_LINE_BYTES: usize = 1 << 20;
/// How often blocked reads wake up to check shutdown and idle expiry.
/// No settling thread spends longer than this writing one reply's
/// connection (see [`WRITE_TICK`]).
pub const READ_TICK: Duration = Duration::from_millis(100);
/// Each socket's write timeout, and how long a thread that settles a
/// reply may go on writing that connection: it starts no write after
/// this, so it spends under two of these, one [`READ_TICK`], there.
pub const WRITE_TICK: Duration = Duration::from_millis(50);
/// How long a connection's replies may make no progress toward a
/// stalled client before the rest of them are discarded.
pub const WRITE_TIMEOUT: Duration = Duration::from_secs(5);
/// How long a connection may go without a complete line before it is
/// closed. A router keeps its links to its shards busier than this.
pub const IDLE_TIMEOUT: Duration = Duration::from_secs(30);

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
        self.next_line().0
    }

    /// [`LineReader::next_line_ref`], with whether bytes past a returned
    /// line are already buffered.
    fn next_line(&mut self) -> (LineEventRef<'_>, bool) {
        loop {
            if let Some(at) = self.buf[self.scanned..].iter().position(|&b| b == b'\n') {
                let pos = self.scanned + at;
                self.scanned = 0;
                if pos > MAX_LINE_BYTES {
                    return (LineEventRef::Failed, false);
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
                return (LineEventRef::Line(&self.line), !self.buf.is_empty());
            }
            self.scanned = self.buf.len();
            if self.buf.len() > MAX_LINE_BYTES {
                return (LineEventRef::Failed, false);
            }
            let mut chunk = [0u8; 4096];
            match self.stream.read(&mut chunk) {
                Ok(0) => return (LineEventRef::Eof, false),
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    return (LineEventRef::TimedOut, false);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return (LineEventRef::Failed, false),
            }
        }
    }
}

/// One response line (without its newline), handed to [`Outbox::send`].
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

/// A tier's drain request: set by a `{"control":"shutdown"}` line, read
/// by every connection without a lock, and awaited by the tier's owner
/// without polling.
#[derive(Debug, Default)]
pub struct DrainSignal {
    requested: AtomicBool,
    lock: Mutex<()>,
    woken: Condvar,
}

impl DrainSignal {
    /// Records the request and wakes every [`DrainSignal::wait`]er.
    pub fn request(&self) {
        self.requested.store(true, Ordering::SeqCst);
        let _guard = self.lock.lock().expect("drain signal");
        self.woken.notify_all();
    }

    /// True once a drain has been requested.
    pub fn is_requested(&self) -> bool {
        self.requested.load(Ordering::SeqCst)
    }

    /// Blocks until a drain has been requested.
    pub fn wait(&self) {
        let mut guard = self.lock.lock().expect("drain signal");
        while !self.is_requested() {
            guard = self.woken.wait(guard).expect("drain signal");
        }
    }
}

/// What a tier plugs into a [`LineServer`]: how to answer one line,
/// when to stop, and its connection and dropped-reply accounting.
pub trait LineHandler: Send + Sync + 'static {
    /// Handles one non-blank request line. Its answer, if any, goes to
    /// `outbox`: sent now, or later from whichever thread settles it
    /// through a clone. Returns `false` to stop reading this connection.
    fn line(&self, line: &str, outbox: &Outbox) -> bool;
    /// True once the tier is stopping: the readers exit at their next
    /// tick, and the accept loop at the next connection it accepts
    /// ([`LineServer::join`] makes one).
    fn stopping(&self) -> bool;
    /// Counts a connection opening (`1`) or closing (`-1`).
    fn connections(&self, delta: i64);
    /// Counts a reply the client is gone or too stalled to receive.
    fn dropped(&self);
    /// The stage timing a timed reply's write, if this tier times it,
    /// under `request_span`. The [`Outbox`] starts it at the write call
    /// that carries the reply and ends it `ok`, or `dropped` when that
    /// write fails.
    fn write_stage(&self, _request_span: Option<SpanCtx>) -> Option<Stage<'_>> {
        None
    }
}

/// A running line server: its accept loop, which owns the connection
/// threads it spawns.
#[derive(Debug)]
pub struct LineServer {
    acceptor: JoinHandle<()>,
    /// Where [`LineServer::join`] connects to wake the acceptor out of
    /// its blocking `accept`.
    wake: SocketAddr,
}

impl LineServer {
    /// Serves `listener` with `handler` on a thread named
    /// `{tier}-acceptor` and one `{tier}-conn` thread per connection. A
    /// connection idle for [`IDLE_TIMEOUT`] is closed.
    ///
    /// # Errors
    ///
    /// Fails when the listener cannot be made blocking, its address
    /// cannot be read, or the accept thread cannot be spawned.
    pub fn start<H: LineHandler>(
        listener: TcpListener,
        tier: &'static str,
        handler: H,
    ) -> io::Result<LineServer> {
        listener.set_nonblocking(false)?;
        let mut wake = listener.local_addr()?;
        if wake.ip().is_unspecified() {
            wake.set_ip(match wake {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        let handler = Arc::new(handler);
        let mut conns: Vec<JoinHandle<()>> = Vec::new();
        let acceptor = move || {
            loop {
                let accepted = listener.accept();
                // Once stopping, the connection that woke the accept
                // (the one `join` makes, or a late client's) is dropped
                // unserved.
                if handler.stopping() {
                    break;
                }
                let Ok((stream, _peer)) = accepted else {
                    // A failed accept (out of descriptors, say) can fail
                    // again at once: back off rather than spin.
                    std::thread::sleep(READ_TICK);
                    continue;
                };
                let handler = Arc::clone(&handler);
                let conn = std::thread::Builder::new()
                    .name(format!("{tier}-conn"))
                    .spawn(move || connection(stream, IDLE_TIMEOUT, &handler));
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
        let acceptor = std::thread::Builder::new()
            .name(format!("{tier}-acceptor"))
            .spawn(acceptor)?;
        Ok(LineServer { acceptor, wake })
    }

    /// Waits for the accept loop, which exits once the handler reports
    /// [`LineHandler::stopping`] and then joins each reader; a reader
    /// exits once every request in flight on its connection is answered
    /// and written. The handler is dropped by the time this returns.
    ///
    /// The acceptor blocks in `accept`, so this first connects to the
    /// listener once to wake it: call it only once the handler reports
    /// stopping, or that connection is served like any other.
    pub fn join(self) {
        while TcpStream::connect_timeout(&self.wake, READ_TICK).is_err()
            && !self.acceptor.is_finished()
        {
            std::thread::sleep(READ_TICK);
        }
        let _ = self.acceptor.join();
    }
}

/// One connection, on one thread: reads lines, finishes stalled
/// writes at each tick, closes the connection once no complete line
/// has arrived for `idle` ([`IDLE_TIMEOUT`] outside tests), and at the
/// end waits until every request in flight on it is answered.
fn connection<H: LineHandler>(stream: TcpStream, idle: Duration, handler: &Arc<H>) {
    let _ = stream.set_nodelay(true);
    // A tick both ways: the read so the reader notices shutdown and
    // idle expiry, the write so no settling thread waits longer on a
    // stalled client.
    if stream.set_read_timeout(Some(READ_TICK)).is_err()
        || stream.set_write_timeout(Some(WRITE_TICK)).is_err()
    {
        return;
    }
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    handler.connections(1);

    let weak: Weak<H> = Arc::downgrade(handler);
    let outbox = Outbox::new(write_half, weak);
    let mut lines = LineReader::new(stream);
    let mut last_activity = Instant::now();
    while !handler.stopping() {
        match lines.next_line() {
            (LineEventRef::Line(line), buffered) => {
                last_activity = Instant::now();
                outbox.0.buffered.store(buffered, Ordering::Relaxed);
                if !line.trim().is_empty() && !handler.line(line, &outbox) {
                    break;
                }
            }
            (LineEventRef::TimedOut, _) => {
                if last_activity.elapsed() >= idle {
                    break;
                }
            }
            (LineEventRef::Eof | LineEventRef::Failed, _) => break,
        }
        outbox.resume();
    }
    // Every in-flight request holds a clone of the outbox: once they are
    // all gone and their bytes written, all accepted work is answered.
    outbox.drain();
    handler.connections(-1);
}

/// One connection's reply path, cloned into each request in flight on
/// it. A reply is written by the thread that settles it.
///
/// [`Outbox::send`] queues a reply. If no thread is writing the
/// connection, the caller writes everything queued in one `write`;
/// otherwise it returns at once, and the thread already writing takes
/// the reply with the rest of the queue in its next `write`.
///
/// No settling thread writes a client for a whole [`READ_TICK`]. The
/// socket's write timeout is one [`WRITE_TICK`], and a settling thread
/// leaves what is still queued to the connection's reader when a write
/// does not finish within it, or when replies settled meanwhile would
/// keep it writing past that tick. Later sends then only queue, and the
/// reader takes over the writes after its next line or read tick,
/// writing until the queue is empty or a write makes no progress.
/// After [`WRITE_TIMEOUT`] without progress, or once a write fails,
/// the connection is closed, and its queued and later replies are
/// dropped, each counted once through [`LineHandler::dropped`].
///
/// The outbox also tells a handler, on the reader's thread, whether a
/// line is its connection's only business: whether no other request
/// admitted on it awaits its reply ([`Outbox::nothing_in_flight`], kept
/// by [`Outbox::admit`] and [`Outbox::send_settled`]), and whether the
/// reader holds more input ([`Outbox::input_pending`]).
pub struct Outbox(Arc<OutboxInner>);

struct OutboxInner {
    /// The connection's write half.
    stream: TcpStream,
    /// Weak, so the handler is dropped with its server even while the
    /// last request's handle is still on its way out.
    handler: Weak<dyn LineHandler>,
    queue: Mutex<Queue>,
    /// Wakes the reader in [`Outbox::drain`]. Signalled only while the
    /// reader waits, and only when the last request handle goes or a
    /// settling thread leaves its writes to the reader: a condvar
    /// signal costs a syscall even with no waiter.
    settled: Condvar,
    /// Live handles, the reader's own included: a request takes and
    /// drops its handle without the lock.
    handles: AtomicUsize,
    /// Raised, under the lock, while the reader waits in
    /// [`Outbox::drain`].
    reader_waiting: AtomicBool,
    /// Requests admitted on the connection whose reply is not yet
    /// queued. Lowered before that reply is written, so a closed-loop
    /// client's next line never finds its answered request counted.
    /// Below zero while a reply is sent before its admit is counted.
    in_flight: AtomicIsize,
    /// Whether the reader had read bytes past the line it is handling.
    buffered: AtomicBool,
}

#[derive(Default)]
struct Queue {
    /// Reply bytes not yet written, oldest first.
    bytes: Vec<u8>,
    /// The replies in `bytes`, in order.
    replies: Vec<Queued>,
    writer: Writer,
}

/// One queued reply: its length in `Queue::bytes` and its timing.
struct Queued {
    len: usize,
    timed: bool,
    request_span: Option<SpanCtx>,
}

/// Who writes the connection.
#[derive(Default, Clone, Copy)]
enum Writer {
    /// No one: nothing is queued.
    #[default]
    Idle,
    /// A thread is writing, and takes whatever is queued meanwhile.
    Busy,
    /// Left to the connection's reader, which writes after its next line
    /// or read tick: a write returned short, or a settling thread spent
    /// its tick. `since` is when the queued bytes last moved.
    Reader { since: Instant },
    /// The client is gone or stalled past [`WRITE_TIMEOUT`]: every
    /// reply is dropped.
    Dead,
}

impl Queue {
    fn push(&mut self, reply: Reply) {
        self.bytes.extend_from_slice(reply.line.as_bytes());
        self.bytes.push(b'\n');
        self.replies.push(Queued {
            len: reply.line.len() + 1,
            timed: reply.timed,
            request_span: reply.request_span,
        });
    }

    /// Puts a batch's buffers back, holding its unwritten tail (if any)
    /// ahead of whatever was queued while it was being written. Reusing
    /// them, the queue allocates nothing per reply after warm-up.
    fn put_back(&mut self, mut bytes: Vec<u8>, mut replies: Vec<Queued>) {
        bytes.append(&mut self.bytes);
        replies.append(&mut self.replies);
        self.bytes = bytes;
        self.replies = replies;
    }
}

impl Outbox {
    fn new(stream: TcpStream, handler: Weak<dyn LineHandler>) -> Outbox {
        Outbox(Arc::new(OutboxInner {
            stream,
            handler,
            queue: Mutex::default(),
            settled: Condvar::new(),
            handles: AtomicUsize::new(1),
            reader_waiting: AtomicBool::new(false),
            in_flight: AtomicIsize::new(0),
            buffered: AtomicBool::new(false),
        }))
    }

    fn lock(&self) -> MutexGuard<'_, Queue> {
        self.0.queue.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Queues `reply` and, if no thread is writing the connection,
    /// writes everything queued; see [`Outbox`]. Returns within one
    /// [`READ_TICK`].
    pub fn send(&self, reply: Reply) {
        let mut queue = self.lock();
        match queue.writer {
            Writer::Idle => {
                queue.push(reply);
                queue.writer = Writer::Busy;
                let now = Instant::now();
                self.write_out(queue, now, Some(now + WRITE_TICK));
            }
            Writer::Busy | Writer::Reader { .. } => queue.push(reply),
            Writer::Dead => {
                drop(queue);
                if let Some(handler) = self.0.handler.upgrade() {
                    handler.dropped();
                }
            }
        }
    }

    /// Counts a request admitted on this connection; its reply, sent
    /// with [`Outbox::send_settled`], stops the count. Call it on the
    /// reader's thread once the request can no longer be refused.
    pub fn admit(&self) {
        self.0.in_flight.fetch_add(1, Ordering::SeqCst);
    }

    /// Whether no request admitted on this connection awaits its reply
    /// ([`Outbox::admit`], [`Outbox::send_settled`]). Read it on the
    /// reader's thread.
    pub fn nothing_in_flight(&self) -> bool {
        // A count below zero is a reply sent before its admit was
        // counted: that request, too, is answered.
        self.0.in_flight.load(Ordering::SeqCst) <= 0
    }

    /// [`Outbox::send`] for the reply to an admitted request: it leaves
    /// the in-flight count before it is queued or written.
    pub fn send_settled(&self, reply: Reply) {
        self.0.in_flight.fetch_sub(1, Ordering::SeqCst);
        self.send(reply);
    }

    /// Whether the reader holds input past the line it is handling:
    /// bytes it has already read, or bytes waiting on the socket, which
    /// it peeks without blocking. Meaningful only on the reader's
    /// thread, inside [`LineHandler::line`].
    pub fn input_pending(&self) -> bool {
        let stream = &self.0.stream;
        if self.0.buffered.load(Ordering::Relaxed) || stream.set_nonblocking(true).is_err() {
            return true;
        }
        let mut byte = [0u8; 1];
        let peeked = stream.peek(&mut byte);
        // Every other use of the socket expects it blocking, with its
        // timeouts. Only the reader reads it, and a settling thread
        // writing meanwhile (a reply sent while no request was counted
        // in flight) at worst finds it full, returns short and leaves
        // its writes to the reader.
        let restored = stream.set_nonblocking(false).is_ok();
        !restored || !matches!(peeked, Err(e) if e.kind() == io::ErrorKind::WouldBlock)
    }

    /// Writes what was left to the reader, if anything: the reader's
    /// part, at each line and read tick.
    fn resume(&self) {
        self.resume_locked(self.lock());
    }

    /// Writes, as the reader, what `queue` left to it, if anything.
    fn resume_locked<'a>(&'a self, mut queue: MutexGuard<'a, Queue>) {
        if let Writer::Reader { since } = queue.writer {
            queue.writer = Writer::Busy;
            self.write_out(queue, since, None);
        }
    }

    /// The reader's last step: waits, without polling, until every
    /// other handle is gone and everything queued is written or
    /// dropped, writing what is left to it itself.
    fn drain(&self) {
        let inner = &*self.0;
        loop {
            let queue = self.lock();
            if matches!(queue.writer, Writer::Reader { .. }) {
                self.resume_locked(queue);
                continue;
            }
            // Raised before the count is read, and the count lowered
            // before the flag is read (`Drop`): either the reader sees
            // the last handle gone, or that handle's drop sees it wait.
            inner.reader_waiting.store(true, Ordering::SeqCst);
            if inner.handles.load(Ordering::SeqCst) == 1 {
                inner.reader_waiting.store(false, Ordering::SeqCst);
                return;
            }
            // A busy writer holds a handle; it signals when it leaves
            // its writes to the reader, or drops its handle when done.
            let queue = inner
                .settled
                .wait(queue)
                .unwrap_or_else(PoisonError::into_inner);
            inner.reader_waiting.store(false, Ordering::SeqCst);
            drop(queue);
        }
    }

    /// Writes the queue out as the connection's one writer (the caller
    /// set [`Writer::Busy`]) until it is empty or the connection is
    /// given up, unless it leaves the rest to the reader first. A
    /// settling thread, which has a `deadline`, leaves when a write
    /// returns short or once the deadline has passed; the reader, when a
    /// write makes no progress. `progress` is when the queued bytes
    /// last moved.
    fn write_out<'a>(
        &'a self,
        mut queue: MutexGuard<'a, Queue>,
        mut progress: Instant,
        deadline: Option<Instant>,
    ) {
        let inner = &*self.0;
        let handler = inner.handler.upgrade();
        while !queue.bytes.is_empty() {
            let mut bytes = std::mem::take(&mut queue.bytes);
            let mut replies = std::mem::take(&mut queue.replies);
            drop(queue);
            let started = Instant::now();
            let written = write_once(&inner.stream, &bytes);
            let short = written.is_some_and(|n| n < bytes.len());
            let moved = written.is_some_and(|n| n > 0);
            if moved {
                progress = Instant::now();
            }
            let give_up = written.is_none() || (short && progress.elapsed() >= WRITE_TIMEOUT);
            // The replies this write finished, and how far it got into
            // the next one.
            let (mut done, mut head) = (0, written.unwrap_or(0));
            while done < replies.len() && replies[done].len <= head {
                head -= replies[done].len;
                done += 1;
            }
            record_writes(handler.as_deref(), &replies[..done], started, "ok");
            if give_up {
                record_writes(handler.as_deref(), &replies[done..], started, "dropped");
            }
            bytes.drain(..written.unwrap_or(0));
            replies.drain(..done);
            if let Some(first) = replies.first_mut() {
                first.len -= head;
            }
            queue = self.lock();
            queue.put_back(bytes, replies);
            if give_up {
                // Closing both ways ends the reader's next read too.
                let _ = inner.stream.shutdown(Shutdown::Both);
                queue.writer = Writer::Dead;
                let dropped = queue.replies.len();
                queue.bytes.clear();
                queue.replies.clear();
                drop(queue);
                if let Some(handler) = &handler {
                    (0..dropped).for_each(|_| handler.dropped());
                }
                return;
            }
            let leave = match deadline {
                Some(deadline) => short || (!queue.bytes.is_empty() && Instant::now() >= deadline),
                None => short && !moved,
            };
            if leave {
                queue.writer = Writer::Reader { since: progress };
                if inner.reader_waiting.load(Ordering::SeqCst) {
                    inner.settled.notify_one();
                }
                return;
            }
        }
        queue.writer = Writer::Idle;
    }
}

/// Writes `bytes` in one `write` call (another only if a signal cuts
/// it short with nothing written), returning how many went out, or
/// `None` when the connection failed. The socket's write timeout is one
/// [`WRITE_TICK`], and a blocking write returns short only when that
/// fires.
fn write_once(mut stream: &TcpStream, bytes: &[u8]) -> Option<usize> {
    loop {
        return match stream.write(bytes) {
            Ok(0) => None,
            Ok(n) => Some(n),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                Some(0)
            }
            Err(_) => None,
        };
    }
}

/// Ends one `response_write` stage per timed reply of `replies`: it
/// spans the write call, started at `started`, that carried the reply.
fn record_writes(
    handler: Option<&dyn LineHandler>,
    replies: &[Queued],
    started: Instant,
    outcome: &str,
) {
    let Some(handler) = handler else {
        return;
    };
    for reply in replies.iter().filter(|reply| reply.timed) {
        if let Some(stage) = handler.write_stage(reply.request_span) {
            stage.since(started).end(outcome, &[("outcome", outcome)]);
        }
    }
}

impl Clone for Outbox {
    fn clone(&self) -> Self {
        // Only a holder clones, so the count cannot be 1 here unless the
        // reader clones, and the reader is not waiting then.
        self.0.handles.fetch_add(1, Ordering::Relaxed);
        Outbox(Arc::clone(&self.0))
    }
}

impl Drop for Outbox {
    fn drop(&mut self) {
        let inner = &*self.0;
        if inner.handles.fetch_sub(1, Ordering::SeqCst) == 2
            && inner.reader_waiting.load(Ordering::SeqCst)
        {
            // The reader raised its flag under the lock, so once this
            // holds the lock the reader is waiting, not about to.
            let _queue = self.lock();
            inner.settled.notify_one();
        }
    }
}

impl std::fmt::Debug for Outbox {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Outbox").finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drift_obs::Recorder;
    use std::io::{BufRead, BufReader};
    use std::sync::atomic::AtomicU64;
    use std::sync::mpsc;

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

    /// The most reply bytes [`Relay::fill`] sends a client that reads
    /// nothing, by which its socket buffers must have filled.
    const FILL_CAP: usize = 64 << 20;
    /// Request pairs the client sends once its outbox has stalled: a big
    /// reply settled on the settling thread while the reader is busy
    /// finishing the stalled write, and a small one from the reader.
    const LATE_PAIRS: usize = 4;
    /// The length of a `mid N` reply.
    const MID_BYTES: usize = 64 << 10;
    /// How long a settling send may take: the bound is one
    /// [`READ_TICK`], the rest is slack for a loaded host.
    const SEND_BOUND: Duration = Duration::from_millis(300);
    /// The most bytes a [`Trickle`] client reads a millisecond.
    const TRICKLE_CHUNK: usize = 32 << 10;
    /// Replies a [`Trickle`] client keeps outstanding beyond what its
    /// socket buffers hold: few enough that a settling thread's writes
    /// each finish within one [`WRITE_TICK`].
    const WINDOW_EXTRA: usize = 8;
    /// Replies a [`Trickle`] client reads beyond its first window.
    const TRICKLE_MORE: usize = 384;

    /// The line answering request line `line`: `big N` is answered with
    /// itself padded to [`MAX_LINE_BYTES`], `mid N` with itself padded
    /// to [`MID_BYTES`], anything else with itself.
    fn reply_to(line: &str) -> String {
        let len = if line.starts_with("big ") {
            MAX_LINE_BYTES
        } else if line.starts_with("mid ") {
            MID_BYTES
        } else {
            return line.to_owned();
        };
        format!("{line} {}", "x".repeat(len - line.len() - 1))
    }

    fn timed_reply(line: &str) -> Reply {
        Reply {
            line: reply_to(line),
            timed: true,
            request_span: None,
        }
    }

    impl Outbox {
        /// Whether bytes wait for a thread other than the caller: right
        /// after a settling thread's send, that it left them to the
        /// reader.
        fn leaves_bytes(&self) -> bool {
            !matches!(self.lock().writer, Writer::Idle)
        }
    }

    /// How one settling `send` went.
    struct Sent {
        took: Duration,
        /// Whether it left bytes to the reader.
        left: bool,
    }

    /// A line server whose replies are settled on other threads, as a
    /// gateway's workers settle them: its settling threads answer every
    /// connection and report each `send`. Lines starting `now` are
    /// answered by the reader itself, as control acks are, and the reply
    /// to `hold` waits for a [`Relay::release`].
    struct Relay {
        addr: std::net::SocketAddr,
        server: Option<LineServer>,
        state: Arc<RelayState>,
        /// One report per settled reply.
        settled: mpsc::Receiver<Sent>,
        release: mpsc::Sender<()>,
        /// One message per dropped reply.
        dropped: mpsc::Receiver<()>,
        /// One message per closed connection.
        closed: mpsc::Receiver<()>,
    }

    struct RelayState {
        stop: AtomicBool,
        dropped: AtomicU64,
        /// Times every reply's write, by outcome.
        recorder: Recorder,
    }

    struct RelayHandler {
        state: Arc<RelayState>,
        settle: mpsc::Sender<(Outbox, String)>,
        dropped: mpsc::Sender<()>,
        closed: mpsc::Sender<()>,
    }

    impl LineHandler for RelayHandler {
        fn line(&self, line: &str, outbox: &Outbox) -> bool {
            if line.starts_with("now") {
                outbox.send(timed_reply(line));
                return true;
            }
            self.settle.send((outbox.clone(), line.to_owned())).is_ok()
        }

        fn stopping(&self) -> bool {
            self.state.stop.load(Ordering::SeqCst)
        }

        fn connections(&self, delta: i64) {
            if delta < 0 {
                let _ = self.closed.send(());
            }
        }

        fn dropped(&self) {
            self.state.dropped.fetch_add(1, Ordering::SeqCst);
            let _ = self.dropped.send(());
        }

        fn write_stage(&self, _request_span: Option<SpanCtx>) -> Option<Stage<'_>> {
            Some(Stage::new("relay", "write", &self.state.recorder))
        }
    }

    impl Relay {
        fn start(settlers: usize) -> Relay {
            let (settle, requests) = mpsc::channel::<(Outbox, String)>();
            let requests = Arc::new(Mutex::new(requests));
            let (settled_tx, settled) = mpsc::channel();
            let (release, released) = mpsc::channel();
            let released = Arc::new(Mutex::new(released));
            for _ in 0..settlers {
                let (requests, released) = (Arc::clone(&requests), Arc::clone(&released));
                let settled = settled_tx.clone();
                std::thread::spawn(move || loop {
                    let Ok((outbox, line)) = requests.lock().unwrap().recv() else {
                        return;
                    };
                    if line == "hold" {
                        let _ = released.lock().unwrap().recv();
                    }
                    let reply = timed_reply(&line);
                    let start = Instant::now();
                    outbox.send(reply);
                    let took = start.elapsed();
                    let left = outbox.leaves_bytes();
                    drop(outbox);
                    let _ = settled.send(Sent { took, left });
                });
            }
            let state = Arc::new(RelayState {
                stop: AtomicBool::new(false),
                dropped: AtomicU64::new(0),
                recorder: Recorder::enabled(),
            });
            let (dropped_tx, dropped) = mpsc::channel();
            let (closed_tx, closed) = mpsc::channel();
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let addr = listener.local_addr().unwrap();
            let handler = RelayHandler {
                state: Arc::clone(&state),
                settle,
                dropped: dropped_tx,
                closed: closed_tx,
            };
            let server = LineServer::start(listener, "relay", handler).unwrap();
            Relay {
                addr,
                server: Some(server),
                state,
                settled,
                release,
                dropped,
                closed,
            }
        }

        /// Sends `{kind} 0`, `{kind} 1`, … one at a time, each once the
        /// last one's send returned, until a send leaves bytes to the
        /// reader: the client, which reads nothing, has filled its socket
        /// buffers. Returns how many lines it sent.
        fn fill(&self, client: &mut TcpStream, kind: &str) -> usize {
            let size = reply_to(&format!("{kind} 0")).len();
            for sent in 1..=FILL_CAP / size {
                writeln!(client, "{kind} {}", sent - 1).unwrap();
                if self.await_send().left {
                    return sent;
                }
            }
            panic!("{FILL_CAP} reply bytes did not fill the socket buffers");
        }

        /// A client that has read nothing, and how many replies it is
        /// owed: it filled its buffers with `big` lines, then sent `now 0`,
        /// `big B`, `now 1`, `big B+1`, … and waited for those sends too.
        fn stalled_client(&self) -> (TcpStream, usize) {
            let mut client = self.connect();
            let bigs = self.fill(&mut client, "big");
            for i in 0..LATE_PAIRS {
                writeln!(client, "now {i}").unwrap();
                writeln!(client, "big {}", bigs + i).unwrap();
            }
            for _ in 0..LATE_PAIRS {
                self.await_send();
            }
            (client, bigs + 2 * LATE_PAIRS)
        }

        /// The next settling send's report, once it returned within
        /// [`SEND_BOUND`].
        fn await_send(&self) -> Sent {
            let sent = self.settled.recv().unwrap();
            assert!(sent.took < SEND_BOUND, "a send took {:?}", sent.took);
            sent
        }

        /// A client whose hung read fails the test instead of hanging it,
        /// and whose lines go out as they are written.
        fn connect(&self) -> TcpStream {
            let client = TcpStream::connect(self.addr).unwrap();
            client.set_nodelay(true).unwrap();
            client
                .set_read_timeout(Some(Duration::from_secs(60)))
                .unwrap();
            client
        }

        /// Writes whose call ended with `outcome`.
        fn writes(&self, outcome: &str) -> u64 {
            let snapshot = self.state.recorder.registry().unwrap().snapshot();
            snapshot
                .histogram_merged_where("drift_stage_microseconds", &[("outcome", outcome)])
                .map_or(0, |h| h.count())
        }

        /// Stops the server and waits for every connection to end.
        fn shutdown(&mut self) {
            self.state.stop.store(true, Ordering::SeqCst);
            if let Some(server) = self.server.take() {
                server.join();
            }
        }
    }

    #[test]
    fn a_stalled_client_pins_no_settling_thread() {
        let mut relay = Relay::start(1);
        let (stalled, owed) = relay.stalled_client();

        // The same settling thread answers another connection meanwhile.
        let mut other = BufReader::new(relay.connect());
        other.get_mut().write_all(b"small\n").unwrap();
        let mut line = String::new();
        other.read_line(&mut line).unwrap();
        assert_eq!(line, "small\n");

        // Once the client reads, every line arrives whole, and each
        // thread's replies in order, across the hand-over from the
        // settling thread to the reader.
        let mut stalled = BufReader::new(stalled);
        let (mut big, mut now) = (0, 0);
        for _ in 0..owed {
            line.clear();
            stalled.read_line(&mut line).unwrap();
            let (kind, next) = if line.starts_with("now") {
                ("now", &mut now)
            } else {
                ("big", &mut big)
            };
            let expected = reply_to(&format!("{kind} {next}"));
            assert!(
                line.trim_end() == expected,
                "{kind} reply {next} is not whole"
            );
            *next += 1;
        }
        drop((stalled, other));
        relay.shutdown();
        assert_eq!(relay.writes("ok"), owed as u64 + 1);
        assert_eq!(relay.state.dropped.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn replies_to_a_client_that_hangs_up_are_dropped_once_each() {
        let mut relay = Relay::start(1);
        let (mut client, owed) = relay.stalled_client();
        // One more reply, settled only after the connection is given up.
        writeln!(client, "hold").unwrap();
        drop(client);
        relay.dropped.recv().unwrap();
        relay.release.send(()).unwrap();
        relay.closed.recv().unwrap();
        // Each reply was either written or dropped, and counted once.
        let written = relay.writes("ok");
        let dropped = relay.state.dropped.load(Ordering::SeqCst);
        assert_eq!(written + dropped, owed as u64 + 1, "{written} written");
        // A write the hang-up cut short ends its replies' stages
        // `dropped`; replies that no write reached have no stage.
        assert!(relay.writes("dropped") < dropped);
        relay.shutdown();
    }

    /// A client's socket, read at most [`TRICKLE_CHUNK`] bytes a
    /// millisecond.
    struct Trickle(TcpStream);

    impl Read for Trickle {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            std::thread::sleep(Duration::from_millis(1));
            let len = buf.len().min(TRICKLE_CHUNK);
            self.0.read(&mut buf[..len])
        }
    }

    #[test]
    fn a_slow_reader_pins_no_settling_thread() {
        let mut relay = Relay::start(2);
        // A client that fills its socket buffers with `mid` replies, asks
        // for a few more, and only then reads, slowly, asking for one
        // more reply per reply read. A settling thread's write then
        // finishes within its tick, and by then the other settling
        // thread has queued as much again, so the writes to this client
        // never run dry.
        let mut client = relay.connect();
        let held = relay.fill(&mut client, "mid");
        let window = held + WINDOW_EXTRA;
        let total = window + TRICKLE_MORE;
        for i in held..window {
            writeln!(client, "mid {i}").unwrap();
        }
        let mut requests = client.try_clone().unwrap();
        let mut replies = BufReader::with_capacity(TRICKLE_CHUNK, Trickle(client));
        let mut seen = vec![false; total];
        let mut line = String::new();
        for n in 0..total {
            line.clear();
            replies.read_line(&mut line).unwrap();
            let id: usize = line.split(' ').nth(1).unwrap().parse().unwrap();
            assert!(
                line.trim_end() == reply_to(&format!("mid {id}")),
                "reply {id} is not whole"
            );
            assert!(!std::mem::replace(&mut seen[id], true), "reply {id} twice");
            if n + window < total {
                writeln!(requests, "mid {}", n + window).unwrap();
            }
        }
        // Yet every settling send returned within the bound.
        for _ in held..total {
            relay.await_send();
        }
        drop((replies, requests));
        relay.shutdown();
    }

    /// The idle time the expiry tests give a connection: a few read
    /// ticks. A quarter of it is still longer than one, so that reads
    /// time out, and the reader checks for expiry, between the lines
    /// the tests send.
    const SHORT_IDLE: Duration = Duration::from_millis(600);
    /// How long an expiry test waits for a close it expects.
    const CLOSE_BOUND: Duration = Duration::from_secs(10);

    /// Echoes every line, and reports each connection's close.
    struct Echo {
        closed: mpsc::Sender<()>,
    }

    impl LineHandler for Echo {
        fn line(&self, line: &str, outbox: &Outbox) -> bool {
            outbox.send(Reply::plain(line.to_owned()));
            true
        }

        fn stopping(&self) -> bool {
            false
        }

        fn connections(&self, delta: i64) {
            if delta < 0 {
                let _ = self.closed.send(());
            }
        }

        fn dropped(&self) {}
    }

    /// One [`connection`] that expires after [`SHORT_IDLE`], on its own
    /// thread: the client end, and a receiver of the connection's
    /// close.
    fn short_idle_connection() -> (TcpStream, mpsc::Receiver<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        let (closed_tx, closed) = mpsc::channel();
        let handler = Arc::new(Echo { closed: closed_tx });
        std::thread::spawn(move || connection(server, SHORT_IDLE, &handler));
        client.set_nodelay(true).unwrap();
        client.set_read_timeout(Some(CLOSE_BOUND)).unwrap();
        (client, closed)
    }

    #[test]
    fn a_silent_client_is_closed_once_idle() {
        let start = Instant::now();
        let (mut client, closed) = short_idle_connection();
        closed
            .recv_timeout(CLOSE_BOUND)
            .expect("the handler sees connections(-1)");
        assert!(start.elapsed() >= SHORT_IDLE, "closed before it idled");
        // The server end is gone: the client reads end of stream.
        assert_eq!(client.read(&mut [0u8; 16]).unwrap(), 0);
    }

    #[test]
    fn a_partial_line_is_no_activity() {
        let (mut client, closed) = short_idle_connection();
        // One byte of a line that never ends, every one and a half read
        // ticks, for many idle times; the close comes one idle time in.
        let start = Instant::now();
        let mut wrote = 0;
        while closed.try_recv().is_err() {
            assert!(
                start.elapsed() < 4 * SHORT_IDLE + CLOSE_BOUND,
                "a partial line kept the connection open"
            );
            // Once the server end is gone a write may fail; the close
            // is what the loop waits for.
            wrote += usize::from(client.write_all(b"x").is_ok());
            std::thread::sleep(READ_TICK * 3 / 2);
        }
        assert!(start.elapsed() >= SHORT_IDLE, "closed before it idled");
        assert!(wrote >= 2, "the client wrote {wrote} bytes");
    }

    #[test]
    fn lines_sent_within_the_idle_time_keep_the_connection_open() {
        let (client, closed) = short_idle_connection();
        let mut replies = BufReader::new(client.try_clone().unwrap());
        let mut line = String::new();
        // Complete lines every quarter idle time, for three idle times.
        for i in 0..12 {
            writeln!(&client, "line {i}").unwrap();
            line.clear();
            replies.read_line(&mut line).unwrap();
            assert_eq!(line, format!("line {i}\n"));
            std::thread::sleep(SHORT_IDLE / 4);
        }
        assert!(closed.try_recv().is_err(), "closed while lines arrived");
        // Silent from here on, it expires.
        closed
            .recv_timeout(CLOSE_BOUND)
            .expect("the handler sees connections(-1)");
    }
}
