//! The server: accept loop, per-connection handlers, and the worker
//! pool that shares one [`ServeEngine`] (docs/SERVER.md).
//!
//! ```text
//!   TcpListener ──accept──▶ handler thread (one per connection)
//!        │                       │  QUERY frame
//!        │                       ▼
//!        │              AdmissionQueue (bounded; full ⇒ REJECTED)
//!        │                       │
//!        │              worker threads (N, one ServeEngine)
//!        │                       │  encoded RESULT / ERROR
//!        │                       ▼
//!        └──────────── handler writes the reply frame back
//! ```
//!
//! Determinism contract: the reply bytes for a query depend only on the
//! query text and its [`QueryFrame`] knobs — never on which worker ran
//! it, what else was queued, or how requests interleaved. That follows
//! from [`ServeEngine::serve_plan`]'s guarantee that a cached answer is
//! byte-identical to an uncached one, plus the
//! deterministic `finish`/codec pipeline; the `serve_concurrent` bench
//! and this crate's proptest check it end to end.

use crate::proto::{self, CommitFrame, Frame, ProtoError, QueryFrame, UpdateFrame};
use crate::queue::AdmissionQueue;
use mpc_cluster::wire::encode_bindings;
use mpc_cluster::{CommitOptions, RequestSpec, ServeEngine, ShardStats, UpdateBatch};
use mpc_obs::Recorder;
use mpc_rdf::RdfGraph;
use parking_lot::RwLock;
use std::io::{self, Read};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// How long a handler sleeps in its read loop before re-checking the
/// shutdown flag, and how long the accept loop sleeps when idle.
const IDLE_TICK: Duration = Duration::from_millis(50);

/// How long a handler keeps waiting for the rest of a partially
/// received frame *after* shutdown is signalled, before giving up on
/// the connection.
const DRAIN_GRACE: Duration = Duration::from_secs(5);

/// Server knobs (the `mpc server` flags map onto this 1:1).
#[derive(Clone, Copy, Debug)]
pub struct ServerConfig {
    /// Worker threads executing queries (clamped to ≥ 1).
    pub workers: usize,
    /// Admission-queue capacity; 0 rejects every request.
    pub queue_depth: usize,
    /// Per-connection I/O stall bound: how long a handler tolerates a
    /// peer that stops sending mid-frame (slow-loris) or stops reading
    /// its reply, before closing the connection with an error. `None`
    /// waits forever. Idle connections *between* frames are exempt —
    /// keep-alive clients may sit quietly as long as they like.
    pub io_timeout: Option<Duration>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 4,
            queue_depth: 64,
            io_timeout: Some(Duration::from_secs(30)),
        }
    }
}

/// What the server did over its lifetime, returned by [`Server::run`]
/// after the graceful drain completes.
#[derive(Clone, Debug, Default)]
#[non_exhaustive]
pub struct ServerSummary {
    /// Connections accepted.
    pub accepted: u64,
    /// QUERY frames received.
    pub requests: u64,
    /// Queries executed by workers (admitted and completed).
    pub served: u64,
    /// Admission rejections (backpressure responses sent).
    pub rejected: u64,
    /// UPDATE frames that reached a worker (committed or errored).
    pub updates: u64,
    /// High-water mark of the admission queue.
    pub queue_max_depth: usize,
    /// Per-shard result-cache statistics, in shard order.
    pub shards: Vec<ShardStats>,
}

/// What one admitted job asks for: a query (served under the engine
/// read lock, so queries run concurrently) or a transactional update
/// (served under the write lock, so a commit excludes every query and
/// every other commit — the lock is what makes the epoch flip and the
/// data change one atomic step as seen from the workers).
enum WorkItem {
    Query(QueryFrame),
    Update(UpdateFrame),
}

/// One admitted unit of work: the request plus the channel its reply
/// payload goes back on. The receiving handler may be gone by the time
/// the worker finishes (client disconnected while queued) — the send
/// then fails and the result is dropped, which is the correct outcome.
struct Job {
    item: WorkItem,
    reply: mpsc::SyncSender<Vec<u8>>,
}

struct Shared {
    graph: RdfGraph,
    serve: RwLock<ServeEngine>,
    queue: AdmissionQueue<Job>,
    rec: Recorder,
    io_timeout: Option<Duration>,
    /// Per-site fan-out threads for a query whose frame leaves
    /// `threads` at 0 — see [`auto_thread_budget`].
    auto_threads: usize,
    shutdown: AtomicBool,
    accepted: AtomicU64,
    requests: AtomicU64,
    served: AtomicU64,
    rejected: AtomicU64,
    updates: AtomicU64,
}

/// A bound, not-yet-running server. [`Server::bind`] then
/// [`Server::run`]; `run` blocks until a client sends `SHUTDOWN` and
/// the drain completes.
pub struct Server {
    listener: TcpListener,
    shared: Shared,
    workers: usize,
}

impl Server {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an OS-assigned port) over a
    /// graph + serving engine. The engine's shard count should match
    /// the concurrency (`ServeEngine::with_shards`); metrics go to
    /// `rec` under `server.*` (docs/OBSERVABILITY.md).
    pub fn bind(
        addr: impl ToSocketAddrs,
        graph: RdfGraph,
        serve: ServeEngine,
        cfg: ServerConfig,
        rec: Recorder,
    ) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let workers = cfg.workers.max(1);
        Ok(Server {
            listener,
            shared: Shared {
                graph,
                serve: RwLock::new(serve),
                queue: AdmissionQueue::new(cfg.queue_depth),
                rec,
                io_timeout: cfg.io_timeout,
                auto_threads: auto_thread_budget(RequestSpec::auto_threads(), workers),
                shutdown: AtomicBool::new(false),
                accepted: AtomicU64::new(0),
                requests: AtomicU64::new(0),
                served: AtomicU64::new(0),
                rejected: AtomicU64::new(0),
                updates: AtomicU64::new(0),
            },
            workers,
        })
    }

    /// The bound address (the actual port when bound to port 0).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Runs until a `SHUTDOWN` frame arrives, then drains: accepting
    /// stops, admitted queries complete and their replies are written,
    /// new queries are rejected, workers and handlers join. Returns the
    /// lifetime summary.
    pub fn run(self) -> io::Result<ServerSummary> {
        let Server {
            listener,
            mut shared,
            workers,
        } = self;
        listener.set_nonblocking(true)?;
        std::thread::scope(|scope| -> io::Result<()> {
            let sh = &shared;
            for i in 0..workers {
                scope.spawn(move || worker_loop(sh, i));
            }
            loop {
                // ordering: Acquire pairs with the Release store in the
                // Shutdown handler; observing `true` also makes the
                // queue-close that follows that store visible.
                if sh.shutdown.load(Ordering::Acquire) {
                    break;
                }
                match listener.accept() {
                    Ok((stream, _peer)) => {
                        // ordering: statistics counter; the RMW is atomic
                        // and totals are read only after the scope joins.
                        sh.accepted.fetch_add(1, Ordering::Relaxed);
                        sh.rec.incr("server.accepted");
                        scope.spawn(move || handle_connection(sh, stream));
                    }
                    Err(e) if is_would_block(&e) => std::thread::sleep(IDLE_TICK),
                    // Transient accept errors (per-connection resets)
                    // must not take the server down.
                    Err(_) => std::thread::sleep(IDLE_TICK),
                }
            }
            // The queue was closed by the shutdown request; the scope
            // exit joins workers (drain) and handlers (flag observed).
            Ok(())
        })?;
        let rec = &shared.rec;
        rec.set("server.queue.max_depth", shared.queue.max_depth() as u64);
        // Workers have joined; no locking needed for the final readout.
        let shards = shared.serve.get_mut().shard_stats();
        for (i, s) in shards.iter().enumerate() {
            rec.set(&format!("server.shard{i}.hits"), s.hits);
            rec.set(&format!("server.shard{i}.misses"), s.misses);
        }
        Ok(ServerSummary {
            // ordering: Relaxed suffices for all five counter reads —
            // the worker scope has joined, and thread join synchronizes
            // every write made by the joined threads.
            accepted: shared.accepted.load(Ordering::Relaxed),
            requests: shared.requests.load(Ordering::Relaxed), // ordering: see above
            served: shared.served.load(Ordering::Relaxed), // ordering: see above
            rejected: shared.rejected.load(Ordering::Relaxed), // ordering: see above
            updates: shared.updates.load(Ordering::Relaxed), // ordering: see above
            queue_max_depth: shared.queue.max_depth(),
            shards,
        })
    }
}

/// The fan-out threads each of `workers` concurrent queries gets when
/// the machine offers `machine` in all: the workers already occupy one
/// core each, so a query fans out only over what is left per worker.
/// Resolved once at [`Server::bind`] — the machine's parallelism is an
/// environment and cgroup read, not something to repeat per request.
fn auto_thread_budget(machine: usize, workers: usize) -> usize {
    (machine / workers.max(1)).max(1)
}

/// The fan-out threads of one query: what its frame pins, else the
/// server's auto budget.
fn fanout_threads(frame_threads: u16, auto_threads: usize) -> usize {
    match usize::from(frame_threads) {
        0 => auto_threads,
        pinned => pinned,
    }
}

fn is_would_block(e: &io::Error) -> bool {
    matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut)
}

/// Executes admitted jobs until the queue is closed and drained. Each
/// worker accumulates its own totals and records them once at exit
/// (`server.worker{i}.jobs` / `server.worker{i}.busy`), so live
/// execution touches no shared recorder state beyond the engine's own
/// counters.
fn worker_loop(sh: &Shared, i: usize) {
    let mut jobs = 0u64;
    let mut busy = Duration::ZERO;
    while let Some(job) = sh.queue.pop() {
        let t0 = Instant::now();
        let payload = proto::encode(&execute(sh, &job.item));
        busy += t0.elapsed();
        jobs += 1;
        // ordering: statistics counter; read after the scope joins.
        sh.served.fetch_add(1, Ordering::Relaxed);
        // The handler (and its client) may be gone; dropping the reply
        // is the correct outcome then.
        let _ = job.reply.send(payload);
    }
    sh.rec.add(&format!("server.worker{i}.jobs"), jobs);
    sh.rec.record(&format!("server.worker{i}.busy"), busy);
}

/// Runs one admitted work item. Every failure becomes an `ERROR`
/// frame; the connection survives.
fn execute(sh: &Shared, item: &WorkItem) -> Frame {
    match item {
        WorkItem::Query(q) => match run_query(sh, q) {
            Ok(bytes) => Frame::Result(bytes),
            Err(msg) => Frame::Error(msg),
        },
        WorkItem::Update(u) => {
            // ordering: statistics counter; read after the scope joins.
            sh.updates.fetch_add(1, Ordering::Relaxed);
            match run_update(sh, u) {
                Ok(report) => Frame::Committed(report),
                Err(msg) => Frame::Error(msg),
            }
        }
    }
}

fn run_query(sh: &Shared, q: &QueryFrame) -> Result<Vec<u8>, String> {
    // Queries share the engine read lock; a commit's write lock excludes
    // them, so every query sees either the whole commit or none of it.
    let serve = sh.serve.read();
    // Resolve against the live dictionary once updates have run — a
    // term interned by a commit must be addressable by the next query.
    // Constants absent from the dictionary resolve to an `Empty` leaf,
    // so a provably-empty query still flows through the normal serving
    // path and produces a RESULT frame with the query's own columns.
    let dict = serve
        .engine()
        .dictionary()
        .unwrap_or_else(|| sh.graph.dictionary());
    let plan = mpc_sparql::parse(&q.text)
        .map_err(|e| e.to_string())?
        .resolve(dict)
        .map_err(|e| e.to_string())?;
    let req = RequestSpec::default()
        .mode(q.mode)
        .cached(q.cached)
        .threads(fanout_threads(q.threads, sh.auto_threads))
        .to_request(&sh.rec);
    let outcome = serve.serve_plan(&plan, &req, dict).map_err(|e| e.to_string())?;
    let (partial, _stats) = outcome.into_parts();
    encode_bindings(&partial.rows)
        .map(|b| b.as_ref().to_vec())
        .map_err(|e| e.to_string())
}

fn run_update(sh: &Shared, u: &UpdateFrame) -> Result<CommitFrame, String> {
    let data = mpc_sparql::parse_update(&u.text).map_err(|e| e.to_string())?;
    let batch = UpdateBatch::from_update_data(&data);
    let opts = CommitOptions {
        compact: u.compact,
        // Server-side commits stay in memory; persistence is the CLI's
        // `mpc update --save` path (docs/UPDATES.md).
        snapshot_dir: None,
    };
    let mut serve = sh.serve.write();
    let report = serve
        .commit(&batch, &opts, &sh.rec)
        .map_err(|e| e.to_string())?;
    sh.rec.incr("server.updates");
    Ok(CommitFrame {
        epoch: report.epoch,
        generation: report.generation,
        inserted: report.inserted as u64,
        deleted: report.deleted as u64,
        noops: (report.insert_noops + report.delete_noops) as u64,
        new_vertices: report.new_vertices as u64,
        crossing_properties: report.crossing_properties as u64,
        crossing_edges: report.crossing_edges as u64,
    })
}

/// One connection's request/response loop. Returns (closing the
/// connection) on clean client EOF, `BYE`, unrecoverable protocol
/// damage, or shutdown observed while idle.
fn handle_connection(sh: &Shared, mut stream: TcpStream) {
    // The read timeout is what lets an idle handler observe shutdown.
    if stream.set_read_timeout(Some(IDLE_TICK)).is_err() {
        return;
    }
    // Request/response ping-pong: Nagle would hold small reply frames
    // back for the client's delayed ACK. Best-effort, like the timeout.
    let _ = stream.set_nodelay(true);
    // A peer that stops *reading* must not pin this handler in a blocked
    // write: bound reply writes by the configured I/O timeout.
    let _ = stream.set_write_timeout(sh.io_timeout);
    loop {
        let payload = match read_frame_interruptible(&mut stream, sh) {
            Ok(Some(payload)) => payload,
            Ok(None) => return,
            Err(e @ (ProtoError::Oversized { .. } | ProtoError::Malformed(_))) => {
                // The stream itself is still framed correctly (an
                // oversized announcement is detected before any body
                // bytes are consumed... but the body may follow), so
                // the only safe move is: report, then close.
                let _ = proto::send(&mut stream, &Frame::Error(e.to_string()));
                return;
            }
            Err(_) => return, // truncated or transport failure
        };
        let frame = match proto::decode(&payload) {
            Ok(f) => f,
            Err(e) => {
                let _ = proto::send(&mut stream, &Frame::Error(e.to_string()));
                return;
            }
        };
        match frame {
            Frame::Query(q) => {
                if !admit(sh, &mut stream, WorkItem::Query(q)) {
                    return;
                }
            }
            Frame::Update(u) => {
                if !admit(sh, &mut stream, WorkItem::Update(u)) {
                    return;
                }
            }
            Frame::Shutdown => {
                // ordering: Release pairs with the accept/read loops'
                // Acquire loads, publishing everything done before the
                // flag flip (the flip itself gates the queue close below).
                sh.shutdown.store(true, Ordering::Release);
                sh.queue.close();
                let _ = proto::send(&mut stream, &Frame::Bye);
                return;
            }
            Frame::Bye => return,
            Frame::Result(_) | Frame::Error(_) | Frame::Rejected(_) | Frame::Committed(_) => {
                let _ = proto::send(
                    &mut stream,
                    &Frame::Error("unexpected server-side frame from client".into()),
                );
                return;
            }
        }
    }
}

/// Pushes one work item through the admission queue and writes the
/// reply (or the backpressure rejection) back. Returns `false` when the
/// connection should close: the reply write failed, or the worker pool
/// disappeared mid-request (shutdown race).
fn admit(sh: &Shared, stream: &mut TcpStream, item: WorkItem) -> bool {
    // ordering: statistics counter; read after the scope joins.
    sh.requests.fetch_add(1, Ordering::Relaxed);
    sh.rec.incr("server.requests");
    let (tx, rx) = mpsc::sync_channel(1);
    match sh.queue.try_push(Job { item, reply: tx }) {
        Err(_) => {
            // ordering: statistics counter; read after the scope joins.
            sh.rejected.fetch_add(1, Ordering::Relaxed);
            sh.rec.incr("server.rejected");
            proto::send(stream, &Frame::Rejected("admission queue full".into())).is_ok()
        }
        Ok(()) => match rx.recv() {
            Ok(reply) => proto::write_frame(stream, &reply).is_ok(),
            Err(_) => false,
        },
    }
}

/// [`proto::read_frame`] over a timeout-armed stream: timeouts while
/// **idle** (no byte of the next frame yet) re-check the shutdown flag
/// and keep waiting — or end the session once shutdown is signalled.
/// Timeouts **mid-frame** keep waiting for the peer (bounded by
/// [`DRAIN_GRACE`] once shutdown is signalled), because abandoning a
/// half-read frame would desynchronize the stream.
fn read_frame_interruptible(
    stream: &mut TcpStream,
    sh: &Shared,
) -> Result<Option<Vec<u8>>, ProtoError> {
    let mut header = [0u8; 4];
    if read_exact_interruptible(stream, &mut header, sh, true)?.is_none() {
        return Ok(None);
    }
    let len = u32::from_le_bytes(header) as usize;
    if len > proto::MAX_FRAME {
        return Err(ProtoError::Oversized { len });
    }
    let mut payload = vec![0u8; len];
    match read_exact_interruptible(stream, &mut payload, sh, false)? {
        Some(()) => Ok(Some(payload)),
        None => Err(ProtoError::Truncated),
    }
}

/// Fills `buf`, tolerating read timeouts. Returns `Ok(None)` when the
/// session should end without error: clean EOF before the first byte,
/// or shutdown observed while no byte has arrived (only if
/// `idle_start` — i.e. this read began between frames).
///
/// Stalls are bounded: once a frame has started arriving, a peer that
/// goes quiet (slow-loris) gets at most the configured I/O timeout
/// before the handler reports a per-connection error — it can never pin
/// a handler thread forever. Any received byte resets the clock, so a
/// merely slow client on a thin link survives as long as it keeps
/// making progress.
fn read_exact_interruptible(
    stream: &mut TcpStream,
    buf: &mut [u8],
    sh: &Shared,
    idle_start: bool,
) -> Result<Option<()>, ProtoError> {
    let mut got = 0usize;
    let mut drain_deadline: Option<Instant> = None;
    let mut stall_deadline: Option<Instant> = None;
    while got < buf.len() {
        match stream.read(&mut buf[got..]) {
            Ok(0) => {
                return if got == 0 && idle_start {
                    Ok(None)
                } else {
                    Err(ProtoError::Truncated)
                };
            }
            Ok(n) => {
                got += n;
                stall_deadline = None; // progress resets the stall clock
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) if is_would_block(&e) => {
                // ordering: Acquire pairs with the Shutdown handler's
                // Release store, same protocol as the accept loop.
                let shutting_down = sh.shutdown.load(Ordering::Acquire);
                if got == 0 && idle_start {
                    if shutting_down {
                        return Ok(None);
                    }
                    // Idle between frames: a keep-alive client may sit
                    // quietly indefinitely.
                    continue;
                }
                if shutting_down {
                    // Shutdown mid-frame: give the peer a bounded grace
                    // period to finish sending, then give up.
                    let deadline =
                        *drain_deadline.get_or_insert_with(|| Instant::now() + DRAIN_GRACE);
                    if Instant::now() >= deadline {
                        return Err(ProtoError::Truncated);
                    }
                    continue;
                }
                // Mid-frame with no shutdown: bound the stall.
                let Some(limit) = sh.io_timeout else { continue };
                let deadline = *stall_deadline.get_or_insert_with(|| Instant::now() + limit);
                if Instant::now() >= deadline {
                    sh.rec.incr("server.io_timeout");
                    return Err(ProtoError::Malformed(format!(
                        "connection stalled mid-frame for {} ms",
                        limit.as_millis()
                    )));
                }
            }
            Err(e) => return Err(e.into()),
        }
    }
    Ok(Some(()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn auto_budget_divides_the_machine_among_workers() {
        assert_eq!(auto_thread_budget(8, 2), 4);
        assert_eq!(auto_thread_budget(8, 3), 2);
        // Workers at or beyond the core count leave one thread each.
        assert_eq!(auto_thread_budget(4, 4), 1);
        assert_eq!(auto_thread_budget(2, 16), 1);
        assert_eq!(auto_thread_budget(1, 1), 1);
    }

    #[test]
    fn a_frame_that_pins_threads_overrides_the_auto_budget() {
        assert_eq!(fanout_threads(0, 3), 3);
        assert_eq!(fanout_threads(1, 3), 1);
        assert_eq!(fanout_threads(4, 1), 4);
    }
}
