//! Set-up: generate the graph, partition it, build the engine and the
//! server, and compute the oracle digests every reply is checked
//! against. Each stage is timed; `setup_s` is their sum.

use crate::workload::{self, Batch, Workload, CACHE_ENTRIES, COMMITS, K};
use mpc_cluster::wire::encode_bindings;
use mpc_cluster::{classify, CrossingSet, DistributedEngine, NetworkModel, ServeEngine};
use mpc_core::{MpcConfig, MpcPartitioner, Partitioning};
use mpc_obs::Recorder;
use mpc_rdf::RdfGraph;
use mpc_server::{fingerprint, Server, ServerConfig};
use mpc_sparql::{eval_plan_local, parse, LocalStore, PlanNode, Query, ResolvedPlan};
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::time::Instant;

/// Balance slack the live-update path places new vertices with (the
/// CLI's default).
pub const UPDATE_EPSILON: f64 = 0.1;

/// Client connections, server workers and cache shards: a closed loop
/// sized to the host, never above the two cores the reference host has.
pub fn parallelism() -> usize {
    std::thread::available_parallelism()
        .map_or(1, usize::from)
        .min(2)
}

/// What a reply must be. For a query with ORDER BY the row order is
/// part of the answer and the digest is `proto::fingerprint` of the
/// reply bytes. For every other query the answer is a *bag* of rows, and
/// the digest is order-insensitive: the engine returns the rows of a
/// decomposed (non-IEQ) leaf sorted in its canonical plan's column order,
/// the local reference in the query's own, and both are right.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Digest {
    pub len: usize,
    pub hash: u64,
}

impl Digest {
    pub fn of(bytes: &[u8], ordered: bool) -> Digest {
        let hash = if ordered {
            fingerprint(bytes)
        } else {
            bag_hash(bytes)
        };
        Digest {
            len: bytes.len(),
            hash,
        }
    }
}

/// True when `text` fixes the order of its rows.
pub fn is_ordered(text: &str) -> bool {
    text.contains(" ORDER BY ")
}

/// Fingerprint of the table header (column count, row count, column
/// variables) plus the wrapping sum of one hash per row — equal for two
/// `wire` tables exactly when they hold the same columns and the same
/// multiset of rows (up to hash collisions). Bytes that are not a
/// well-formed table get the plain fingerprint, so they match nothing
/// but themselves.
fn bag_hash(bytes: &[u8]) -> u64 {
    let word =
        |at: usize| u32::from_le_bytes([bytes[at], bytes[at + 1], bytes[at + 2], bytes[at + 3]]);
    if bytes.len() < 8 {
        return fingerprint(bytes);
    }
    let (cols, rows) = (word(0) as usize, word(4) as usize);
    let header = 8 + 4 * cols;
    if cols == 0 || bytes.len() != header + 4 * cols * rows {
        return fingerprint(bytes);
    }
    let mut sum = fingerprint(&bytes[..header]);
    for row in bytes[header..].chunks_exact(4 * cols) {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for v in row.chunks_exact(4) {
            h = (h ^ u64::from(u32::from_le_bytes([v[0], v[1], v[2], v[3]])))
                .wrapping_mul(0x0000_0100_0000_01b3);
        }
        sum = sum.wrapping_add(h ^ (h >> 29));
    }
    sum
}

/// Wall seconds of each set-up stage.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTimes {
    pub generate_s: f64,
    pub partition_s: f64,
    /// From `MpcReport`; zero unless the partitioner ran traced.
    pub select_s: f64,
    pub coarse_s: f64,
    pub build_s: f64,
    pub oracle_s: f64,
}

impl SetupTimes {
    pub fn total_s(&self) -> f64 {
        self.generate_s + self.partition_s + self.build_s + self.oracle_s
    }
}

/// The paper's objective, read from an engine's crossing set.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Gauges {
    /// |L_cross|.
    pub crossing_properties: usize,
    /// Share of the pool's distinct BGP leaves that run independently.
    pub independent_share: f64,
}

/// Everything a run needs besides the server itself.
pub struct Fixture {
    pub workload: Workload,
    pub graph: RdfGraph,
    pub partitioning: Partitioning,
    pub pool: Vec<String>,
    pub batches: Vec<Batch>,
    /// One digest per pool text; empty for `lubm_update`, whose replies
    /// are checked against a post-commit oracle instead.
    pub oracle: Vec<Digest>,
    /// Gauges of the freshly built engine; `None` for `lubm_update`,
    /// which reads them after its last commit.
    pub gauges: Option<Gauges>,
    pub addr: SocketAddr,
    pub times: SetupTimes,
}

/// Expected replies and distinct BGP leaves of `pool` over `graph`.
pub struct Oracle {
    pub digests: Vec<Digest>,
    /// Distinct leaves, keyed by pattern list (names blanked) so the
    /// three spellings of a query count once when they resolve alike.
    pub leaves: Vec<Query>,
}

/// One evaluated pool text: its digest and its BGP leaves.
type Evaluated = (Digest, Vec<Query>);

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Parses and resolves `text` against `graph`'s dictionary.
pub fn resolve(text: &str, graph: &RdfGraph) -> Result<ResolvedPlan, String> {
    parse(text)
        .and_then(|a| a.resolve(graph.dictionary()))
        .map_err(|e| format!("{e}: {text}"))
}

/// Evaluates every pool text once over a whole-graph store — the
/// reference no distributed path shares code with above the matcher —
/// and keeps the digest of the reply bytes the server must produce.
pub fn oracle(graph: &RdfGraph, pool: &[String]) -> Result<Oracle, String> {
    let store = LocalStore::from_graph(graph);
    let dict = graph.dictionary();
    let chunk = pool.len().div_ceil(parallelism()).max(1);
    let parts: Vec<Result<Vec<Evaluated>, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = pool
            .chunks(chunk)
            .map(|texts| {
                let store = &store;
                scope.spawn(move || {
                    texts
                        .iter()
                        .map(|text| {
                            let plan = resolve(text, graph)?;
                            let rows = eval_plan_local(&plan, store, dict);
                            let bytes =
                                encode_bindings(&rows).map_err(|e| format!("{e}: {text}"))?;
                            let mut leaves = Vec::new();
                            plan.root.for_each(&mut |n| {
                                if let PlanNode::Bgp { query, .. } = n {
                                    leaves.push(Query::new(
                                        query.patterns.clone(),
                                        vec![String::new(); query.var_count()],
                                    ));
                                }
                            });
                            Ok((Digest::of(bytes.as_ref(), is_ordered(text)), leaves))
                        })
                        .collect()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("oracle thread does not panic"))
            .collect()
    });
    let mut digests = Vec::with_capacity(pool.len());
    let mut distinct = BTreeMap::new();
    for part in parts {
        for (digest, leaves) in part? {
            digests.push(digest);
            for q in leaves {
                distinct.entry(q.patterns.clone()).or_insert(q);
            }
        }
    }
    Ok(Oracle {
        digests,
        leaves: distinct.into_values().collect(),
    })
}

/// Reads the gauges off a crossing set.
pub fn gauges(crossing: &CrossingSet, leaves: &[Query]) -> Gauges {
    let independent = leaves
        .iter()
        .filter(|q| classify(q, crossing).is_ieq())
        .count();
    Gauges {
        crossing_properties: crossing.0.iter().filter(|&&c| c).count(),
        independent_share: independent as f64 / leaves.len().max(1) as f64,
    }
}

/// Builds the engine the server (or the ladder) serves from: 8 sites,
/// the default network model (its time is charged to statistics, never
/// slept), live updates armed, a 256-entry cache with one shard per
/// worker.
pub fn serve_engine(graph: &RdfGraph, partitioning: &Partitioning) -> ServeEngine {
    let mut engine = DistributedEngine::build(graph, partitioning, NetworkModel::default());
    engine
        .enable_updates(graph, partitioning, UPDATE_EPSILON)
        .expect("a radius-1 engine accepts updates");
    ServeEngine::with_shards(engine, CACHE_ENTRIES, parallelism())
}

/// One complete set-up of workload `w`: the fixture plus the bound,
/// not yet running server. With `traced` the partitioner runs under a
/// live recorder so `MpcReport` carries its stage times.
pub fn setup(w: Workload, traced: bool) -> Result<(Fixture, Server), String> {
    let mut times = SetupTimes::default();

    let t = Instant::now();
    let data = workload::dataset(w);
    let batches = workload::batches(&data.graph, COMMITS);
    times.generate_s = secs(t);

    let t = Instant::now();
    let partitioner = MpcPartitioner::new(MpcConfig::with_k(K));
    let (partitioning, report) = if traced {
        partitioner.partition_traced(&data.graph, &Recorder::enabled())
    } else {
        partitioner.partition_with_report(&data.graph)
    };
    times.partition_s = secs(t);
    times.select_s = report.selection_time.as_secs_f64();
    times.coarse_s = report.partition_time.as_secs_f64();

    let t = Instant::now();
    let serve = serve_engine(&data.graph, &partitioning);
    let crossing = serve.engine().crossing_set().clone();
    let server = Server::bind(
        "127.0.0.1:0",
        data.graph.clone(),
        serve,
        ServerConfig {
            workers: parallelism(),
            ..ServerConfig::default()
        },
        Recorder::disabled(),
    )
    .map_err(|e| format!("bind: {e}"))?;
    let addr = server
        .local_addr()
        .map_err(|e| format!("local_addr: {e}"))?;
    times.build_s = secs(t);

    let t = Instant::now();
    let (oracle_digests, fixture_gauges) = if w.has_writer() {
        (Vec::new(), None)
    } else {
        let o = oracle(&data.graph, &data.pool)?;
        (o.digests, Some(gauges(&crossing, &o.leaves)))
    };
    times.oracle_s = secs(t);

    let fixture = Fixture {
        workload: w,
        graph: data.graph,
        partitioning,
        pool: data.pool,
        batches,
        oracle: oracle_digests,
        gauges: fixture_gauges,
        addr,
        times,
    };
    Ok((fixture, server))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpc_sparql::Bindings;

    fn table(rows: &[[u32; 2]]) -> Vec<u8> {
        let b = Bindings {
            vars: vec![0, 1],
            rows: rows.iter().map(|r| r.to_vec()).collect(),
        };
        encode_bindings(&b).unwrap().as_ref().to_vec()
    }

    #[test]
    fn bag_digest_ignores_row_order_and_nothing_else() {
        let a = table(&[[1, 2], [3, 4], [3, 4], [5, 6]]);
        let permuted = table(&[[3, 4], [5, 6], [1, 2], [3, 4]]);
        assert_eq!(Digest::of(&a, false), Digest::of(&permuted, false));
        assert_ne!(Digest::of(&a, true), Digest::of(&permuted, true));
        // Multiplicity, a changed cell, swapped columns and a truncated
        // frame all show.
        assert_ne!(
            Digest::of(&a, false),
            Digest::of(&table(&[[1, 2], [3, 4], [5, 6], [5, 6]]), false)
        );
        assert_ne!(
            Digest::of(&a, false),
            Digest::of(&table(&[[1, 2], [3, 4], [3, 4], [5, 7]]), false)
        );
        assert_ne!(
            Digest::of(&a, false),
            Digest::of(&table(&[[2, 1], [4, 3], [4, 3], [6, 5]]), false)
        );
        assert_ne!(Digest::of(&a, false), Digest::of(&a[..a.len() - 1], false));
        assert!(is_ordered(
            "SELECT * WHERE { ?a <p> ?b } ORDER BY DESC(?a) LIMIT 10"
        ));
        assert!(!is_ordered("SELECT * WHERE { ?a <p> ?b }"));
    }
}
