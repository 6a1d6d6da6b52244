//! A blocking gateway client: connect, submit, retry-on-shed.
//!
//! One [`Client`] wraps one TCP connection. [`Client::submit`] is the
//! simple request/response path; [`Client::send`] / [`Client::recv`]
//! split the two halves for pipelining (responses then arrive in any
//! order and must be correlated by `id`). [`Client::submit_with_retry`]
//! turns the gateway's `overloaded` shed responses into capped
//! exponential backoff, the cooperative half of the admission-control
//! contract (see `docs/SERVING.md`).

use crate::protocol::{self, ControlOp, Response, ERR_OVERLOADED};
use drift_core::schedule::{Schedule, ScheduleKey};
use drift_serve::job::JobSpec;
use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

/// How a client waits between retries of a shed request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retries after the first attempt (0 = give up immediately).
    pub max_retries: u32,
    /// Backoff before the first retry.
    pub base: Duration,
    /// Upper bound on any single backoff.
    pub cap: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 8,
            base: Duration::from_millis(1),
            cap: Duration::from_millis(100),
        }
    }
}

impl RetryPolicy {
    /// The backoff before retry number `attempt` (0-based): `base *
    /// 2^attempt`, capped at [`RetryPolicy::cap`].
    pub fn delay(&self, attempt: u32) -> Duration {
        let factor = 1u32.checked_shl(attempt).unwrap_or(u32::MAX);
        self.base.saturating_mul(factor).min(self.cap)
    }
}

/// The outcome of a [`Client::submit_with_retry`] call.
#[derive(Debug, Clone, PartialEq)]
pub struct Submission {
    /// The final response (a result, or the last shed if retries ran
    /// out, or another gateway error).
    pub response: Response,
    /// Shed responses absorbed by backoff along the way.
    pub retries: u32,
}

/// One connection to a gateway: a [`ClientReader`] and a
/// [`ClientWriter`] over the same socket.
#[derive(Debug)]
pub struct Client {
    reader: ClientReader,
    writer: ClientWriter,
}

impl Client {
    /// Connects to `addr` (e.g. `127.0.0.1:7077`).
    ///
    /// # Errors
    ///
    /// Propagates the connect failure.
    pub fn connect(addr: &str) -> io::Result<Client> {
        Client::from_stream(TcpStream::connect(addr)?)
    }

    /// Connects to `addr` with a bound on the connect time, so callers
    /// probing a possibly-dead peer (the router's health checks) are
    /// never stuck in a long kernel connect timeout.
    ///
    /// # Errors
    ///
    /// Propagates address-resolution and connect failures; an
    /// unresolvable `addr` is an `InvalidInput` error.
    pub fn connect_with_timeout(addr: &str, timeout: Duration) -> io::Result<Client> {
        use std::net::ToSocketAddrs;
        let sockaddr = addr.to_socket_addrs()?.next().ok_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidInput, "address resolves to nothing")
        })?;
        Client::from_stream(TcpStream::connect_timeout(&sockaddr, timeout)?)
    }

    fn from_stream(stream: TcpStream) -> io::Result<Client> {
        stream.set_nodelay(true)?;
        let writer = ClientWriter(stream.try_clone()?);
        Ok(Client {
            reader: ClientReader(BufReader::new(stream)),
            writer,
        })
    }

    /// Bounds each later read and write on this connection by
    /// `timeout`, so that a peer which accepted the connection and then
    /// never answers fails the call instead of blocking it for good.
    ///
    /// # Errors
    ///
    /// Propagates the socket option failure (a zero `timeout` is one).
    pub fn set_timeout(&self, timeout: Duration) -> io::Result<()> {
        let stream = &self.writer.0;
        stream.set_read_timeout(Some(timeout))?;
        stream.set_write_timeout(Some(timeout))
    }

    /// A handle onto the underlying socket, so an owner pooling
    /// split-half connections can force a blocked reader out of `recv`
    /// (via [`TcpStream::shutdown`]) without waiting for the peer.
    ///
    /// # Errors
    ///
    /// Propagates the `try_clone` failure.
    pub fn try_clone_stream(&self) -> io::Result<TcpStream> {
        self.writer.0.try_clone()
    }

    /// Sends one job request without waiting for the response
    /// (pipelining). Pair with [`Client::recv`].
    ///
    /// # Errors
    ///
    /// Returns the socket error on a failed write.
    pub fn send(&mut self, spec: &JobSpec, deadline_ms: Option<u64>) -> Result<(), String> {
        self.writer.send(spec, deadline_ms)
    }

    /// Sends one raw line (exposed for protocol tests and tooling).
    ///
    /// # Errors
    ///
    /// Returns the socket error on a failed write.
    pub fn send_raw(&mut self, line: &str) -> Result<(), String> {
        self.writer.send_raw(line)
    }

    /// Blocks for the next response line.
    ///
    /// # Errors
    ///
    /// Reports a closed connection or an unparseable response.
    pub fn recv(&mut self) -> Result<Response, String> {
        self.reader.recv()
    }

    /// Sends one job and waits for its response.
    ///
    /// # Errors
    ///
    /// Propagates send/recv failures; gateway-level refusals come back
    /// as [`Response::Error`], not `Err`.
    pub fn submit(&mut self, spec: &JobSpec, deadline_ms: Option<u64>) -> Result<Response, String> {
        self.send(spec, deadline_ms)?;
        self.recv()
    }

    /// Sends one batch request (`{"id":N,"batch":[...]}`) without
    /// waiting for the response (pipelining). Pair with
    /// [`Client::recv`]; the single response line carries every item.
    ///
    /// # Errors
    ///
    /// Returns the socket error on a failed write.
    pub fn send_batch(
        &mut self,
        id: u64,
        specs: &[JobSpec],
        deadline_ms: Option<u64>,
    ) -> Result<(), String> {
        self.writer.send_batch(id, specs, deadline_ms)
    }

    /// Sends one batch of jobs and waits for its single response line:
    /// a [`Response::Batch`] with per-item payloads in submission
    /// order, or a flat [`Response::Error`] carrying the batch id when
    /// the gateway refused the whole batch (shed or unmeetable — batch
    /// admission is all-or-shed, see `docs/SERVING.md`).
    ///
    /// # Errors
    ///
    /// Propagates send/recv failures.
    pub fn submit_batch(
        &mut self,
        id: u64,
        specs: &[JobSpec],
        deadline_ms: Option<u64>,
    ) -> Result<Response, String> {
        self.send_batch(id, specs, deadline_ms)?;
        self.recv()
    }

    /// [`Client::submit_batch`], retrying whole-batch sheds with
    /// capped exponential backoff. Batch admission is all-or-shed, so
    /// a shed response means no item was admitted and resubmitting the
    /// whole batch is exactly-once safe.
    ///
    /// # Errors
    ///
    /// Propagates send/recv failures.
    pub fn submit_batch_with_retry(
        &mut self,
        id: u64,
        specs: &[JobSpec],
        deadline_ms: Option<u64>,
        policy: &RetryPolicy,
    ) -> Result<Submission, String> {
        with_retry(policy, || self.submit_batch(id, specs, deadline_ms))
    }

    /// [`Client::submit`], retrying shed (`overloaded`) responses with
    /// capped exponential backoff. Other responses — results, deadline
    /// errors — return immediately.
    ///
    /// # Errors
    ///
    /// Propagates send/recv failures.
    pub fn submit_with_retry(
        &mut self,
        spec: &JobSpec,
        deadline_ms: Option<u64>,
        policy: &RetryPolicy,
    ) -> Result<Submission, String> {
        with_retry(policy, || self.submit(spec, deadline_ms))
    }

    /// Probes the gateway with a `ping` control line.
    ///
    /// # Errors
    ///
    /// Propagates send/recv failures or a non-control response.
    pub fn ping(&mut self) -> Result<bool, String> {
        self.control(ControlOp::Ping)
    }

    /// Asks the gateway to drain and exit.
    ///
    /// # Errors
    ///
    /// Propagates send/recv failures or a non-control response.
    pub fn shutdown_server(&mut self) -> Result<bool, String> {
        self.control(ControlOp::Shutdown)
    }

    /// Pushes a batch of already-solved schedules into the gateway's
    /// cache (the router's reshard-prewarming path). Returns the
    /// gateway's ack.
    ///
    /// # Errors
    ///
    /// Propagates send/recv failures or a non-prewarm response.
    pub fn prewarm(&mut self, entries: &[(ScheduleKey, Schedule)]) -> Result<bool, String> {
        self.send_raw(&protocol::prewarm_line(entries))?;
        match self.recv()? {
            Response::Control { op, ok, .. } if op == "prewarm" => Ok(ok),
            other => Err(format!("expected a prewarm ack, got {other:?}")),
        }
    }

    fn control(&mut self, op: ControlOp) -> Result<bool, String> {
        self.send_raw(&protocol::control_line(op))?;
        match self.recv()? {
            Response::Control { op: echoed, ok } if echoed == op.name() => Ok(ok),
            other => Err(format!("expected a {} ack, got {other:?}", op.name())),
        }
    }

    /// Splits the connection into independent send and receive halves
    /// so one thread can keep pipelining requests while another reaps
    /// responses (the open-loop load generator's mode of operation).
    pub fn split(self) -> (ClientReader, ClientWriter) {
        (self.reader, self.writer)
    }
}

/// Runs `attempt` until it answers anything but a shed, or until
/// `policy` runs out of retries, backing off between attempts.
fn with_retry(
    policy: &RetryPolicy,
    mut attempt: impl FnMut() -> Result<Response, String>,
) -> Result<Submission, String> {
    let mut retries = 0;
    loop {
        let response = attempt()?;
        let shed = matches!(&response, Response::Error { error, .. } if error == ERR_OVERLOADED);
        if !shed || retries >= policy.max_retries {
            return Ok(Submission { response, retries });
        }
        std::thread::sleep(policy.delay(retries));
        retries += 1;
    }
}

/// The receive half of a [`Client`].
#[derive(Debug)]
pub struct ClientReader(BufReader<TcpStream>);

impl ClientReader {
    /// Blocks for the next response line (see [`Client::recv`]).
    ///
    /// # Errors
    ///
    /// Reports a closed connection or an unparseable response.
    pub fn recv(&mut self) -> Result<Response, String> {
        let mut line = String::new();
        let n = self
            .0
            .read_line(&mut line)
            .map_err(|e| format!("gateway recv failed: {e}"))?;
        if n == 0 {
            return Err("gateway closed the connection".to_string());
        }
        protocol::parse_response(line.trim_end())
    }
}

/// The send half of a [`Client`].
#[derive(Debug)]
pub struct ClientWriter(TcpStream);

impl ClientWriter {
    /// Sends one job request without waiting for the response (see
    /// [`Client::send`]).
    ///
    /// # Errors
    ///
    /// Returns the socket error on a failed write.
    pub fn send(&mut self, spec: &JobSpec, deadline_ms: Option<u64>) -> Result<(), String> {
        self.send_raw(&protocol::request_line(spec, deadline_ms))
    }

    /// Sends one batch request without waiting for the response (see
    /// [`Client::send_batch`]).
    ///
    /// # Errors
    ///
    /// Returns the socket error on a failed write.
    pub fn send_batch(
        &mut self,
        id: u64,
        specs: &[JobSpec],
        deadline_ms: Option<u64>,
    ) -> Result<(), String> {
        self.send_raw(&protocol::batch_request_line(id, specs, deadline_ms))
    }

    /// Sends one raw line (see [`Client::send_raw`]) — what a proxy
    /// tier forwarding rewritten request lines needs.
    ///
    /// # Errors
    ///
    /// Returns the socket error on a failed write.
    pub fn send_raw(&mut self, line: &str) -> Result<(), String> {
        let mut bytes = Vec::with_capacity(line.len() + 1);
        bytes.extend_from_slice(line.as_bytes());
        bytes.push(b'\n');
        self.0
            .write_all(&bytes)
            .and_then(|()| self.0.flush())
            .map_err(|e| format!("gateway send failed: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{error_line, ERR_DEADLINE};
    use drift_serve::job::{result_line, JobKind, JobOutcome, JobResult};
    use std::net::TcpListener;

    /// A stub gateway that sheds the first `sheds` job lines with
    /// `overloaded` and then answers each line via `answer`. Returns
    /// the address to connect to.
    fn stub_server(
        sheds: usize,
        answer: impl Fn(u64) -> String + Send + 'static,
    ) -> std::net::SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut writer = stream.try_clone().unwrap();
            let reader = BufReader::new(stream);
            for (seen, line) in reader.lines().enumerate() {
                let Ok(line) = line else { break };
                let spec: JobSpec = serde_json::from_str(&line).unwrap();
                let response = if seen < sheds {
                    error_line(Some(spec.id), ERR_OVERLOADED)
                } else {
                    answer(spec.id)
                };
                if writer.write_all((response + "\n").as_bytes()).is_err() {
                    break;
                }
            }
        });
        addr
    }

    fn spec() -> JobSpec {
        JobSpec {
            id: 7,
            seed: 1,
            kind: JobKind::Schedule {
                m: 64,
                k: 128,
                n: 64,
                fa: 0.25,
                fw: 0.5,
            },
        }
    }

    fn fast_policy(max_retries: u32) -> RetryPolicy {
        RetryPolicy {
            max_retries,
            base: Duration::from_micros(10),
            cap: Duration::from_micros(100),
        }
    }

    #[test]
    fn submit_with_retry_absorbs_sheds_until_a_result() {
        let addr = stub_server(2, |id| {
            result_line(&JobResult {
                id,
                outcome: JobOutcome::Schedule {
                    makespan: 1,
                    latencies: [1, 1, 1, 1],
                },
            })
        });
        let mut client = Client::connect(&addr.to_string()).unwrap();
        let sub = client
            .submit_with_retry(&spec(), None, &fast_policy(8))
            .unwrap();
        assert_eq!(sub.retries, 2);
        assert!(matches!(sub.response, Response::Result(r) if r.id == 7));
    }

    #[test]
    fn submit_with_retry_surfaces_the_last_shed_when_retries_run_out() {
        // A server that always sheds: the caller gets the shed back
        // after `max_retries` attempts and can fail over elsewhere —
        // the router's shed-then-failover path builds on exactly this.
        let addr = stub_server(usize::MAX, |_| unreachable!());
        let mut client = Client::connect(&addr.to_string()).unwrap();
        let sub = client
            .submit_with_retry(&spec(), None, &fast_policy(3))
            .unwrap();
        assert_eq!(sub.retries, 3);
        assert!(
            matches!(&sub.response, Response::Error { id: Some(7), error } if error == ERR_OVERLOADED)
        );
    }

    #[test]
    fn submit_with_retry_returns_non_shed_errors_immediately() {
        let addr = stub_server(0, |id| error_line(Some(id), ERR_DEADLINE));
        let mut client = Client::connect(&addr.to_string()).unwrap();
        let sub = client
            .submit_with_retry(&spec(), Some(5), &fast_policy(8))
            .unwrap();
        assert_eq!(sub.retries, 0);
        assert!(matches!(&sub.response, Response::Error { error, .. } if error == ERR_DEADLINE));
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let policy = RetryPolicy {
            max_retries: 10,
            base: Duration::from_millis(2),
            cap: Duration::from_millis(20),
        };
        assert_eq!(policy.delay(0), Duration::from_millis(2));
        assert_eq!(policy.delay(1), Duration::from_millis(4));
        assert_eq!(policy.delay(2), Duration::from_millis(8));
        assert_eq!(policy.delay(3), Duration::from_millis(16));
        assert_eq!(policy.delay(4), Duration::from_millis(20));
        assert_eq!(policy.delay(31), Duration::from_millis(20));
        // Shift overflow saturates instead of wrapping.
        assert_eq!(policy.delay(40), Duration::from_millis(20));
    }
}
