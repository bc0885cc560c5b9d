//! The concurrent serving front end (docs/SERVER.md).
//!
//! `mpc-server` turns the single-owner [`mpc_cluster::ServeEngine`]
//! into a multi-client TCP service without weakening any contract the
//! serving layer makes:
//!
//! * [`proto`] — a length-prefixed wire protocol whose RESULT bodies
//!   are the `mpc_cluster::wire` codec bytes of the finished result,
//! * [`queue`] — the bounded admission queue (backpressure by explicit
//!   `REJECTED` responses, graceful close-then-drain shutdown),
//! * [`server`] — the accept loop, per-connection handlers, and the
//!   worker pool sharing one engine behind its sharded result cache,
//! * [`client`] — the client side: per-query digests and a
//!   connection-striped replay whose output is byte-identical to a
//!   sequential session.
//!
//! Everything is `std` — `TcpListener`/`TcpStream` plus scoped
//! threads; the only dependencies are workspace crates.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod proto;
pub mod queue;
pub mod server;

pub use client::{digest_result_bytes, replay, Client, ClientError, RequestOpts, ResultDigest};
pub use proto::{
    fingerprint, CommitFrame, Frame, ProtoError, QueryFrame, UpdateFrame, MAX_FRAME,
};
pub use queue::AdmissionQueue;
pub use server::{Server, ServerConfig, ServerSummary};
