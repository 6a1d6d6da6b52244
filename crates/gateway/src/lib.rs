//! A networked serving front-end for the Drift runtime.
//!
//! `drift-serve` runs batches offline: read a JSONL file, execute,
//! print results. This crate puts a TCP server in front of the same
//! machinery so clients submit jobs over the network and stream
//! results back, without changing a single byte of any result. One
//! [`server::Gateway`] owns:
//!
//! * a **wire protocol** ([`protocol`]) — newline-delimited JSON, one
//!   request per line in, one response per line out, pipelined per
//!   connection. A request line is the `drift serve` [`JobSpec`] JSONL
//!   format, optionally extended with a `deadline_ms` budget;
//! * **admission control** — requests feed the bounded
//!   [`drift_serve::queue`] via its non-blocking, all-or-shed
//!   `try_submit_batch`; when the queue is full the gateway sheds the
//!   request with a structured `{"id":N,"error":"overloaded"}` response
//!   instead of stalling the connection, and clients retry with capped
//!   exponential backoff ([`client::backoff`]);
//! * **deadlines** — each request carries an optional budget, enforced
//!   both when a worker dequeues the job and again before the response
//!   is sent (`{"id":N,"error":"deadline_exceeded"}`);
//! * **graceful drain** — shutdown stops the acceptor, lets every
//!   admitted job finish and flush, then joins the pool; accepted work
//!   is never dropped;
//! * a **client library** ([`client`]) and a **closed-loop load
//!   generator** ([`loadgen`]) exposed as `drift loadgen`, reporting
//!   throughput and p50/p99 end-to-end latency.
//!
//! Every stage records into a [`drift_obs::Recorder`] — accepted,
//! shed and expired request counters, open-connection and in-flight
//! gauges, end-to-end latency histograms — on the same `/metrics`
//! endpoint the rest of the stack uses. `docs/SERVING.md` specifies the
//! wire contract; `docs/OBSERVABILITY.md` documents the metrics.
//!
//! # Example
//!
//! ```rust
//! use drift_gateway::client::Client;
//! use drift_gateway::protocol::Response;
//! use drift_gateway::server::{Gateway, GatewayConfig};
//! use drift_serve::job::{JobKind, JobSpec};
//!
//! let gw = Gateway::start(
//!     "127.0.0.1:0",
//!     GatewayConfig::with_workers(2),
//!     drift_obs::Recorder::disabled(),
//! )
//! .unwrap();
//! let mut client = Client::connect(&gw.local_addr().to_string()).unwrap();
//! let spec = JobSpec {
//!     id: 0,
//!     seed: 7,
//!     kind: JobKind::Schedule { m: 128, k: 256, n: 128, fa: 0.25, fw: 0.5 },
//! };
//! match client.submit(&spec, None).unwrap() {
//!     Response::Result(result) => assert_eq!(result.id, 0),
//!     other => panic!("unexpected response {other:?}"),
//! }
//! let summary = gw.shutdown();
//! assert_eq!(summary.accepted, 1);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod client;
pub mod framing;
pub mod loadgen;
pub mod protocol;
pub mod server;

pub use client::{Client, Submission};
pub use loadgen::{LoadGenConfig, LoadReport};
pub use protocol::{ControlOp, Request, Response};
pub use server::{Gateway, GatewayConfig, GatewaySummary};

// Re-exported so doc examples and downstream tests can name job types
// without a separate drift-serve dependency line.
pub use drift_serve::job::JobSpec;
