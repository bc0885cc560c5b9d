//! The measured path: closed-loop clients over real TCP against the
//! in-process server, the paced writer, and the post-commit check.
//!
//! Load is closed-loop — a SPARQL client holds a connection and waits
//! for its reply — with `fixture::parallelism()` connections. A read's
//! latency runs from the send to the full reply; a paced commit's from
//! the instant it was *due*, so a stalled server is charged for the
//! commits it delayed.

use crate::fixture::{self, Digest, Fixture, Gauges};
use crate::stats;
use crate::workload::{Batch, Stream, VRef, Workload};
use mpc_cluster::CrossingSet;
use mpc_core::{IncrementalPartitioning, Partitioning};
use mpc_rdf::{Dictionary, FxHashSet, PropertyId, RdfGraph, Triple, VertexId};
use mpc_server::{Client, CommitFrame, RequestOpts, ServerSummary};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// One read measured inside the window.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    /// Completion time, nanoseconds after the window opened.
    pub done_ns: u64,
    pub latency_ns: u64,
}

/// Operation counts; a non-RESULT reply, an exhausted REJECTED retry
/// budget, a digest mismatch or a malformed COMMITTED all count as
/// failed.
#[derive(Clone, Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, for the log.
    pub errors: Vec<String>,
}

impl Tally {
    fn record(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failed += 1;
            if self.errors.len() < 5 {
                self.errors.push(e);
            }
        }
    }

    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.errors.extend(other.errors);
        self.errors.truncate(5);
    }
}

/// When the window opens and closes; shared by every client thread.
#[derive(Clone, Copy, Debug)]
pub struct Window {
    pub start: Instant,
    pub end: Instant,
}

impl Window {
    pub fn opening_in(warmup: Duration, length: Duration) -> Window {
        let start = Instant::now() + warmup;
        Window {
            start,
            end: start + length,
        }
    }

    pub fn seconds(&self) -> f64 {
        (self.end - self.start).as_secs_f64()
    }
}

fn ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn request_opts(w: Workload) -> RequestOpts {
    RequestOpts {
        cached: w.cached(),
        ..RequestOpts::default()
    }
}

/// Sends pool text `idx` and checks the reply against the oracle (any
/// RESULT frame passes when the fixture has none). Returns the latency.
fn read(
    client: &mut Client,
    fx: &Fixture,
    idx: usize,
    opts: &RequestOpts,
) -> (Duration, Result<(), String>) {
    let t0 = Instant::now();
    let reply = client.query_bytes(&fx.pool[idx], opts);
    let latency = t0.elapsed();
    // The digest is checked after the latency is taken: verification is
    // the client's think time, not the server's.
    let outcome = match reply {
        Err(e) => Err(format!("{e}: {}", fx.pool[idx])),
        Ok(bytes) => match fx.oracle.get(idx) {
            Some(want) if *want != Digest::of(&bytes, fixture::is_ordered(&fx.pool[idx])) => {
                Err(format!(
                    "digest mismatch ({} bytes, expected {}): {}",
                    bytes.len(),
                    want.len,
                    fx.pool[idx]
                ))
            }
            _ => Ok(()),
        },
    };
    (latency, outcome)
}

/// One closed-loop reader: primes the cache with its stripe of the pool
/// while the warm-up lasts, then follows its stream until the window
/// closes. Only reads that start and finish inside the window are
/// samples.
fn reader(
    fx: &Fixture,
    seed: u64,
    lane: usize,
    lanes: usize,
    window: Window,
) -> (Vec<Sample>, Tally) {
    let mut tally = Tally::default();
    let mut samples = Vec::new();
    let mut client = match Client::connect(fx.addr) {
        Ok(c) => c,
        Err(e) => {
            tally.record(Err(format!("connect: {e}")));
            return (samples, tally);
        }
    };
    let opts = request_opts(fx.workload);
    for idx in (lane..fx.pool.len()).step_by(lanes) {
        if Instant::now() >= window.start {
            break;
        }
        let (_, outcome) = read(&mut client, fx, idx, &opts);
        tally.record(outcome);
    }
    let mut stream = Stream::new(fx.workload, fx.pool.len(), seed, lane);
    loop {
        let t0 = Instant::now();
        if t0 >= window.end {
            break;
        }
        let idx = stream.next().expect("streams are endless");
        let (latency, outcome) = read(&mut client, fx, idx, &opts);
        let failed = outcome.is_err();
        tally.record(outcome);
        let done = t0 + latency;
        if t0 >= window.start && done <= window.end && !failed {
            samples.push(Sample {
                done_ns: ns(done - window.start),
                latency_ns: ns(latency),
            });
        }
    }
    client.bye();
    (samples, tally)
}

/// What the writer saw.
#[derive(Clone, Debug, Default)]
pub struct Commits {
    /// Per commit, milliseconds from the due instant to COMMITTED.
    pub latency_ms: Vec<f64>,
    /// Per commit, how late the generator sent it.
    pub lag_ms: Vec<f64>,
    pub last: Option<CommitFrame>,
    pub tally: Tally,
}

/// Sends `batches` as UPDATE frames (rendered up front, before the
/// first is due). With `pace`, commit *i* is due at `start + i·pace` and
/// timed from then; without, each is due when the previous one returned
/// (a quiet closed loop).
fn writer(addr: SocketAddr, batches: &[Batch], start: Instant, pace: Option<Duration>) -> Commits {
    let mut out = Commits::default();
    let texts: Vec<String> = batches.iter().map(Batch::text).collect();
    let mut client = match Client::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            out.tally.record(Err(format!("connect: {e}")));
            return out;
        }
    };
    for (i, (batch, text)) in batches.iter().zip(&texts).enumerate() {
        let due = match pace {
            Some(pace) => start + pace * u32::try_from(i).expect("few commits"),
            None => Instant::now().max(start),
        };
        std::thread::sleep(due.saturating_duration_since(Instant::now()));
        let sent = Instant::now();
        let reply = client.update(text, false);
        let done = Instant::now();
        out.tally.record(match reply {
            Err(e) => Err(format!("commit {i}: {e}")),
            Ok(frame) => {
                out.latency_ms.push(ms(done - due));
                out.lag_ms.push(ms(sent - due));
                let applied = frame.inserted + frame.deleted + frame.noops;
                out.last = Some(frame);
                if applied == batch.len() as u64 {
                    Ok(())
                } else {
                    Err(format!(
                        "commit {i} accounted for {applied} of {} triples",
                        batch.len()
                    ))
                }
            }
        });
    }
    client.bye();
    out
}

/// The measured window of one run.
pub struct WindowRun {
    pub samples: Vec<Sample>,
    pub commits: Commits,
    pub tally: Tally,
}

/// Runs warm-up and window: `readers` closed-loop connections and, on
/// `lubm_update`, the paced writer beside them. Returns when every
/// client is done (the writer always sends all its commits, so the
/// final graph is the same whether or not it kept pace). On the other
/// workloads `commits` comes back empty; see [`quiet_commits`].
pub fn run_window(fx: &Fixture, seed: u64, readers: usize, window: Window) -> WindowRun {
    let paced = fx.workload.has_writer();
    let pace =
        (window.end - window.start) / u32::try_from(fx.batches.len().max(1)).expect("few commits");
    let (mut samples, mut tally, mut commits) = (Vec::new(), Tally::default(), Commits::default());
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..readers)
            .map(|lane| scope.spawn(move || reader(fx, seed, lane, readers, window)))
            .collect();
        let write = paced
            .then(|| scope.spawn(move || writer(fx.addr, &fx.batches, window.start, Some(pace))));
        for h in handles {
            let (s, t) = h.join().expect("reader thread does not panic");
            samples.extend(s);
            tally.absorb(t);
        }
        if let Some(h) = write {
            commits = h.join().expect("writer thread does not panic");
        }
    });
    tally.absorb(std::mem::take(&mut commits.tally));
    samples.sort_unstable_by_key(|s| s.done_ns);
    WindowRun {
        samples,
        commits,
        tally,
    }
}

/// The read-only workloads send their commits to a quiet server once
/// every measured read is done, one after the other, so that
/// `commit_p50_ms` exists for every workload without a writer
/// disturbing the reads — or changing the data their digests describe.
pub fn quiet_commits(fx: &Fixture, run: &mut WindowRun) {
    run.commits = writer(fx.addr, &fx.batches, Instant::now(), None);
    run.tally.absorb(std::mem::take(&mut run.commits.tally));
}

/// One connection replaying lane 0's stream for `length`; returns the
/// latencies in milliseconds. The traced run's 1-client TCP reference.
pub fn single_client(fx: &Fixture, seed: u64, length: Duration) -> (Vec<f64>, Tally) {
    let window = Window::opening_in(Duration::ZERO, length);
    // No priming stripe: the window is already open.
    let (samples, tally) = reader(fx, seed, 0, 1, window);
    (
        samples.iter().map(|s| s.latency_ns as f64 / 1e6).collect(),
        tally,
    )
}

/// End-to-end read metrics of a window.
#[derive(Clone, Debug)]
pub struct ReadMetrics {
    /// Completed reads per second of window.
    pub qps: f64,
    pub p50_ms: f64,
    pub p99_ms: f64,
    pub samples: usize,
    /// Samples beyond the p99 (what the percentile rests on).
    pub beyond_p99: usize,
    /// Request rate in each eighth of the window, in order — a note that
    /// shows a stall or a drift the whole-window numbers average over.
    pub eighth_qps: [f64; 8],
}

/// Completed reads over the window's length, and the median and p99 of
/// their latencies — over the whole window, so a stall inside it counts.
pub fn read_metrics(samples: &[Sample], window_s: f64) -> Result<ReadMetrics, String> {
    let n = samples.len();
    let beyond_p99 = stats::beyond(n, 0.99);
    if n < stats::MIN_TAIL_SAMPLES || beyond_p99 < stats::TAIL_SUPPORT {
        return Err(format!(
            "the window completed {n} reads; latency_p99_ms needs {}",
            stats::MIN_TAIL_SAMPLES
        ));
    }
    let mut lat: Vec<f64> = samples.iter().map(|s| s.latency_ns as f64 / 1e6).collect();
    lat.sort_by(f64::total_cmp);
    let mut eighth_qps = [0.0; 8];
    let eighth_s = window_s / 8.0;
    for s in samples {
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let k = ((s.done_ns as f64 / 1e9 / eighth_s) as usize).min(7);
        eighth_qps[k] += 1.0 / eighth_s;
    }
    Ok(ReadMetrics {
        qps: n as f64 / window_s,
        p50_ms: stats::percentile(&lat, 0.50),
        p99_ms: stats::percentile(&lat, 0.99),
        samples: n,
        beyond_p99,
        eighth_qps,
    })
}

/// Asks the server to drain and returns its lifetime summary.
pub fn shutdown(
    addr: SocketAddr,
    server: std::thread::JoinHandle<std::io::Result<ServerSummary>>,
) -> Result<ServerSummary, String> {
    Client::connect(addr)
        .map_err(|e| format!("connect for shutdown: {e}"))?
        .shutdown_server()
        .map_err(|e| format!("shutdown: {e}"))?;
    server
        .join()
        .map_err(|_| "server thread panicked".to_owned())?
        .map_err(|e| format!("server: {e}"))
}

/// The benchmark's own copy of the data under commits: a triple
/// multiset, the dictionary the new vertices extend, and the crossing
/// counts — maintained with none of the engine's site or overlay code,
/// so that the post-commit oracle is independent of what it checks.
pub struct Mirror {
    dict: Dictionary,
    triples: Vec<Triple>,
    present: FxHashSet<Triple>,
    inc: IncrementalPartitioning,
}

impl Mirror {
    pub fn new(graph: &RdfGraph, partitioning: &Partitioning) -> Mirror {
        Mirror {
            dict: graph.dictionary().clone(),
            triples: graph.triples().to_vec(),
            present: graph.triples().iter().copied().collect(),
            inc: IncrementalPartitioning::from_partitioning(
                graph,
                partitioning,
                fixture::UPDATE_EPSILON,
            ),
        }
    }

    fn vertex(&mut self, v: VRef) -> VertexId {
        match v {
            VRef::Old(id) => VertexId(id),
            VRef::New(_) => self.dict.intern_vertex(&v.term()),
        }
    }

    /// SPARQL Update order: every delete against the pre-commit data
    /// (striking each occurrence), then the inserts, duplicates ignored.
    pub fn apply(&mut self, batch: &Batch) {
        let mut removed = FxHashSet::default();
        for &(s, p, o) in &batch.deletes {
            if let (VRef::Old(s), VRef::Old(o)) = (s, o) {
                let t = Triple::new(VertexId(s), PropertyId(p), VertexId(o));
                if self.present.remove(&t) {
                    removed.insert(t);
                }
            }
        }
        if !removed.is_empty() {
            let inc = &mut self.inc;
            self.triples.retain(|t| {
                let gone = removed.contains(t);
                if gone {
                    inc.delete(*t);
                }
                !gone
            });
        }
        for &(s, p, o) in &batch.inserts {
            // Subject before object: the order the engine interns in.
            let (s, o) = (self.vertex(s), self.vertex(o));
            let t = Triple::new(s, PropertyId(p), o);
            if self.present.insert(t) {
                self.inc.insert(t);
                self.triples.push(t);
            }
        }
    }

    /// The graph after every applied batch, and its crossing set.
    pub fn finish(self) -> (RdfGraph, CrossingSet) {
        let crossing = CrossingSet(
            (0..self.inc.property_count())
                .map(|p| {
                    self.inc
                        .is_crossing_property(PropertyId(u32::try_from(p).expect("few properties")))
                })
                .collect(),
        );
        (RdfGraph::from_dictionary(self.dict, self.triples), crossing)
    }
}

/// After the last commit of `lubm_update`: rebuild the data from the
/// mirror, evaluate every pool text over it locally, and require the
/// server's reply to each to match byte for byte. Also reads the gauges
/// off the post-commit crossing set and cross-checks the engine's own
/// crossing-property count.
pub fn verify_after_commits(fx: &Fixture, last: Option<CommitFrame>) -> (Option<Gauges>, Tally) {
    let mut tally = Tally::default();
    let mut mirror = Mirror::new(&fx.graph, &fx.partitioning);
    for batch in &fx.batches {
        mirror.apply(batch);
    }
    let (graph, crossing) = mirror.finish();
    let oracle = match fixture::oracle(&graph, &fx.pool) {
        Ok(o) => o,
        Err(e) => {
            tally.record(Err(format!("post-commit oracle: {e}")));
            return (None, tally);
        }
    };
    let gauges = fixture::gauges(&crossing, &oracle.leaves);
    tally.record(match last {
        Some(f) if f.crossing_properties == gauges.crossing_properties as u64 => Ok(()),
        Some(f) => Err(format!(
            "engine reports {} crossing properties after the last commit, the mirror {}",
            f.crossing_properties, gauges.crossing_properties
        )),
        None => Err("no commit was acknowledged".to_owned()),
    });
    let mut client = match Client::connect(fx.addr) {
        Ok(c) => c,
        Err(e) => {
            tally.record(Err(format!("connect: {e}")));
            return (Some(gauges), tally);
        }
    };
    let opts = request_opts(fx.workload);
    for (text, want) in fx.pool.iter().zip(&oracle.digests) {
        tally.record(match client.query_bytes(text, &opts) {
            Ok(bytes) if Digest::of(&bytes, fixture::is_ordered(text)) == *want => Ok(()),
            Ok(bytes) => Err(format!(
                "post-commit digest mismatch ({} bytes, expected {}): {text}",
                bytes.len(),
                want.len
            )),
            Err(e) => Err(format!("{e}: {text}")),
        });
    }
    client.bye();
    (Some(gauges), tally)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples(n: usize, latency_ns: impl Fn(usize) -> u64) -> Vec<Sample> {
        (0..n)
            .map(|i| Sample {
                done_ns: (i as u64 + 1) * 1_000_000,
                latency_ns: latency_ns(i),
            })
            .collect()
    }

    #[test]
    fn read_metrics_refuses_a_thin_window() {
        assert!(read_metrics(&samples(1_999, |_| 1), 2.0).is_err());
        assert!(read_metrics(&samples(2_000, |_| 1), 2.0).is_ok());
    }

    #[test]
    fn read_metrics_cover_the_whole_window() {
        // 8,000 reads, one per millisecond; the third thousand is slow:
        // an eighth of the window, so it owns the p99 and not the median.
        let m = read_metrics(
            &samples(8_000, |i| {
                if (2_000..3_000).contains(&i) {
                    9_000_000
                } else {
                    500_000
                }
            }),
            8.0,
        )
        .unwrap();
        assert_eq!((m.samples, m.beyond_p99), (8_000, 80));
        assert!((m.qps - 1_000.0).abs() < 1e-9, "{}", m.qps);
        assert_eq!((m.p50_ms, m.p99_ms), (0.5, 9.0));
        // Completions at 1..=8,000 ms: the last lands in the eighth slot.
        assert!(m.eighth_qps.iter().all(|q| (q - 1_000.0).abs() <= 1.0));
    }
}
