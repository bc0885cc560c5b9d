//! The client side: a connection wrapper, a backpressure-aware request
//! helper, and the workload replay behind the `mpc client` subcommand.
//! The repo benchmark (`benchmark/`) drives the same client in its four
//! TCP workloads.

use crate::proto::{self, fingerprint, CommitFrame, Frame, ProtoError, QueryFrame, UpdateFrame};
use mpc_cluster::wire::decode_bindings;
use mpc_cluster::{ExecMode, RetryPolicy};
use std::fmt;
use std::io;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// A client-side failure.
#[derive(Debug)]
pub enum ClientError {
    /// Transport or protocol failure.
    Proto(ProtoError),
    /// The server answered with an `ERROR` frame.
    Server(String),
    /// The server kept rejecting the request (backpressure) past the
    /// retry budget.
    Rejected(String),
    /// The server closed the connection or answered out of protocol.
    Unexpected(String),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Proto(e) => write!(f, "{e}"),
            ClientError::Server(msg) => write!(f, "server error: {msg}"),
            ClientError::Rejected(msg) => write!(f, "rejected: {msg}"),
            ClientError::Unexpected(msg) => write!(f, "protocol violation: {msg}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<ProtoError> for ClientError {
    fn from(e: ProtoError) -> Self {
        ClientError::Proto(e)
    }
}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Proto(ProtoError::Io(e))
    }
}

/// Per-request knobs a replay applies to every query it sends.
#[derive(Clone, Copy, Debug)]
pub struct RequestOpts {
    /// Execution mode.
    pub mode: ExecMode,
    /// Whether the server's result cache may answer.
    pub cached: bool,
    /// Per-request thread budget (0 = server default).
    pub threads: u16,
    /// How many times to retry a `REJECTED` response before giving up.
    /// Each retry backs off per [`RequestOpts::backoff`], so a drained
    /// or overloaded server sheds load instead of melting.
    pub reject_retries: u32,
    /// Backoff schedule between rejection retries: bounded exponential
    /// growth with seeded jitter (reusing the cluster retry policy), so
    /// many clients hammered off the same overloaded server do not
    /// retry in lock-step. Only `base_backoff`/`max_backoff`/`jitter`
    /// apply here; `max_retries`/`deadline` belong to the cluster
    /// fault-tolerance path and are ignored.
    pub backoff: RetryPolicy,
    /// Seed for the jitter stream. Each attempt draws from
    /// `backoff_seed ^ attempt`, so the full wait sequence is a
    /// deterministic function of the seed — reproducible in tests,
    /// de-synchronized across clients that pick different seeds.
    pub backoff_seed: u64,
}

impl Default for RequestOpts {
    fn default() -> Self {
        RequestOpts {
            mode: ExecMode::CrossingAware,
            cached: true,
            threads: 0,
            reject_retries: 400,
            backoff: RetryPolicy {
                base_backoff: Duration::from_millis(1),
                max_backoff: Duration::from_millis(50),
                jitter: 0.2,
                ..RetryPolicy::default()
            },
            backoff_seed: 0,
        }
    }
}

impl RequestOpts {
    /// The wait before rejection retry number `attempt` (0-based):
    /// deterministic given `backoff_seed`, exponentially growing,
    /// capped at the policy's `max_backoff`.
    pub fn retry_wait(&self, attempt: u32) -> Duration {
        self.backoff
            .backoff(attempt, self.backoff_seed ^ u64::from(attempt))
    }
}

/// One query's digest: what `mpc client` prints per line and what the
/// byte-identical assertions compare.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ResultDigest {
    /// Row count of the finished result.
    pub rows: usize,
    /// [`fingerprint`] of the raw result codec bytes.
    pub fp: u64,
}

impl fmt::Display for ResultDigest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "rows={} fp=0x{:016x}", self.rows, self.fp)
    }
}

/// One connection to an `mpc server`.
pub struct Client {
    stream: TcpStream,
}

impl Client {
    /// Connects. `TCP_NODELAY` is set because the protocol is strict
    /// request/response ping-pong: Nagle buffering a small frame until
    /// the peer's delayed ACK would add tens of milliseconds per query.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client { stream })
    }

    /// Sends one query and reads the reply frame — no retry on
    /// rejection (tests use this to observe backpressure directly).
    pub fn request(&mut self, query: &str, opts: &RequestOpts) -> Result<Frame, ClientError> {
        proto::send(
            &mut self.stream,
            &Frame::Query(QueryFrame {
                mode: opts.mode,
                cached: opts.cached,
                threads: opts.threads,
                text: query.to_owned(),
            }),
        )?;
        match proto::recv(&mut self.stream)? {
            Some(frame) => Ok(frame),
            None => Err(ClientError::Unexpected(
                "server closed the connection mid-request".into(),
            )),
        }
    }

    /// Sends one query, retrying on backpressure, and returns the raw
    /// result codec bytes.
    pub fn query_bytes(&mut self, query: &str, opts: &RequestOpts) -> Result<Vec<u8>, ClientError> {
        let mut rejections = 0u32;
        loop {
            match self.request(query, opts)? {
                Frame::Result(bytes) => return Ok(bytes),
                Frame::Error(msg) => return Err(ClientError::Server(msg)),
                Frame::Rejected(msg) => {
                    if rejections >= opts.reject_retries {
                        return Err(ClientError::Rejected(msg));
                    }
                    std::thread::sleep(opts.retry_wait(rejections));
                    rejections += 1;
                }
                other => {
                    return Err(ClientError::Unexpected(format!(
                        "expected RESULT/ERROR/REJECTED, got {other:?}"
                    )))
                }
            }
        }
    }

    /// Sends one query and digests the reply ([`ResultDigest`]). The
    /// row count comes from decoding the codec bytes; the fingerprint
    /// is over the bytes themselves.
    pub fn query_digest(
        &mut self,
        query: &str,
        opts: &RequestOpts,
    ) -> Result<ResultDigest, ClientError> {
        let bytes = self.query_bytes(query, opts)?;
        digest_result_bytes(&bytes)
    }

    /// Sends one SPARQL Update text (`INSERT DATA` / `DELETE DATA`) as
    /// a transactional commit, retrying on backpressure, and returns
    /// the server's commit report. `compact` asks the server to fold
    /// the novelty overlays into the base runs after the commit.
    pub fn update(&mut self, text: &str, compact: bool) -> Result<CommitFrame, ClientError> {
        let opts = RequestOpts::default();
        let mut rejections = 0u32;
        loop {
            proto::send(
                &mut self.stream,
                &Frame::Update(UpdateFrame {
                    compact,
                    text: text.to_owned(),
                }),
            )?;
            match proto::recv(&mut self.stream)? {
                Some(Frame::Committed(report)) => return Ok(report),
                Some(Frame::Error(msg)) => return Err(ClientError::Server(msg)),
                Some(Frame::Rejected(msg)) => {
                    if rejections >= opts.reject_retries {
                        return Err(ClientError::Rejected(msg));
                    }
                    std::thread::sleep(opts.retry_wait(rejections));
                    rejections += 1;
                }
                Some(other) => {
                    return Err(ClientError::Unexpected(format!(
                        "expected COMMITTED/ERROR/REJECTED, got {other:?}"
                    )))
                }
                None => {
                    return Err(ClientError::Unexpected(
                        "server closed the connection mid-update".into(),
                    ))
                }
            }
        }
    }

    /// Ends the session politely. Errors are ignored: the socket is
    /// closing either way.
    pub fn bye(mut self) {
        let _ = proto::send(&mut self.stream, &Frame::Bye);
    }

    /// Asks the server to drain and exit, waiting for its `BYE` ack.
    pub fn shutdown_server(mut self) -> Result<(), ClientError> {
        proto::send(&mut self.stream, &Frame::Shutdown)?;
        match proto::recv(&mut self.stream)? {
            Some(Frame::Bye) | None => Ok(()),
            Some(other) => Err(ClientError::Unexpected(format!(
                "expected BYE after SHUTDOWN, got {other:?}"
            ))),
        }
    }
}

/// Decodes result codec bytes into a [`ResultDigest`].
pub fn digest_result_bytes(bytes: &[u8]) -> Result<ResultDigest, ClientError> {
    let fp = fingerprint(bytes);
    let bindings = decode_bindings(bytes.to_vec().into())
        .map_err(|e| ClientError::Unexpected(format!("undecodable result body: {e}")))?;
    Ok(ResultDigest {
        rows: bindings.rows.len(),
        fp,
    })
}

/// Replays `queries` over `connections` parallel sessions (query `i`
/// goes to connection `i % connections`) and returns the digests **in
/// workload order** — so the output is identical to a single sequential
/// session, which is the point: interleaving must not be observable.
pub fn replay(
    addr: std::net::SocketAddr,
    queries: &[String],
    connections: usize,
    opts: &RequestOpts,
) -> Result<Vec<ResultDigest>, ClientError> {
    let connections = connections.max(1).min(queries.len().max(1));
    let mut slots: Vec<Option<Result<ResultDigest, ClientError>>> = Vec::new();
    slots.resize_with(queries.len(), || None);
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for c in 0..connections {
            let opts = *opts;
            handles.push(scope.spawn(move || -> Vec<(usize, Result<ResultDigest, ClientError>)> {
                let mut client = match Client::connect(addr) {
                    Ok(client) => client,
                    Err(e) => {
                        // Attribute the connect failure to this stripe's
                        // first query; the rest of the stripe is skipped
                        // and surfaces as a missing-slot error below.
                        return match queries.iter().enumerate().find(|(i, _)| i % connections == c)
                        {
                            Some((i, _)) => vec![(i, Err(e.into()))],
                            None => Vec::new(),
                        };
                    }
                };
                let mut out = Vec::new();
                for (i, q) in queries.iter().enumerate() {
                    if i % connections != c {
                        continue;
                    }
                    let digest = client.query_digest(q, &opts);
                    let failed = digest.is_err();
                    out.push((i, digest));
                    if failed {
                        break;
                    }
                }
                client.bye();
                out
            }));
        }
        for handle in handles {
            if let Ok(results) = handle.join() {
                for (i, r) in results {
                    slots[i] = Some(r);
                }
            }
        }
    });
    slots
        .into_iter()
        .enumerate()
        .map(|(i, slot)| {
            slot.unwrap_or_else(|| {
                Err(ClientError::Unexpected(format!(
                    "query {i} was never answered (its connection failed earlier)"
                )))
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retry_waits_are_deterministic_growing_and_capped() {
        let opts = RequestOpts {
            backoff_seed: 7,
            ..RequestOpts::default()
        };
        let waits: Vec<Duration> = (0..12).map(|a| opts.retry_wait(a)).collect();
        // Same seed, same schedule — byte-for-byte reproducible.
        let again: Vec<Duration> = (0..12).map(|a| opts.retry_wait(a)).collect();
        assert_eq!(waits, again);
        // Exponential growth dominates the ≤20% jitter ...
        assert!(waits[0] < waits[2], "{waits:?}");
        assert!(waits[2] < waits[4], "{waits:?}");
        // ... until the cap takes over (1ms << 6 = 64ms > 50ms cap).
        let max = opts.backoff.max_backoff;
        assert!(waits.iter().all(|w| *w <= max), "{waits:?}");
        assert_eq!(waits[6], max);
        assert_eq!(waits[11], max);
    }

    #[test]
    fn different_seeds_desynchronize_the_schedule() {
        let a = RequestOpts {
            backoff_seed: 7,
            ..RequestOpts::default()
        };
        let b = RequestOpts {
            backoff_seed: 8,
            ..RequestOpts::default()
        };
        let wa: Vec<Duration> = (0..6).map(|n| a.retry_wait(n)).collect();
        let wb: Vec<Duration> = (0..6).map(|n| b.retry_wait(n)).collect();
        assert_ne!(wa, wb, "jitter streams must differ across seeds");
    }
}
