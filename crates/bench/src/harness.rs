//! Shared experiment machinery: building the four partitionings/engines of
//! a dataset and running workloads through them.

use crate::datasets::DatasetBundle;
use mpc_cluster::{DistributedEngine, ExecMode, ExecutionStats, NetworkModel, RequestSpec, VpEngine};
use mpc_core::{
    EdgePartitioning, MinEdgeCutPartitioner, MpcConfig, MpcPartitioner, Partitioner,
    Partitioning, SubjectHashPartitioner, VerticalPartitioner,
};
use mpc_obs::{Json, Recorder};
use mpc_rdf::{Dictionary, RdfGraph};
use mpc_sparql::{Bindings, Query, ResolvedPlan};
use std::time::{Duration, Instant};

/// The number of partitions/sites used throughout the evaluation
/// (the paper's cluster has 8 machines).
pub const K: usize = 8;

/// A vertex-disjoint method under test.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Method {
    /// Minimum property-cut (this paper).
    Mpc,
    /// Subject hashing.
    SubjectHash,
    /// Min edge-cut over the full graph.
    Metis,
}

impl Method {
    /// All three vertex-disjoint methods, in the paper's column order.
    pub const ALL: [Method; 3] = [Method::Mpc, Method::SubjectHash, Method::Metis];

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            Method::Mpc => "MPC",
            Method::SubjectHash => "Subject_Hash",
            Method::Metis => "METIS",
        }
    }

    /// Builds the partitioner.
    pub fn partitioner(&self) -> Box<dyn Partitioner> {
        match self {
            Method::Mpc => Box::new(MpcPartitioner::new(MpcConfig::with_k(K))),
            Method::SubjectHash => Box::new(SubjectHashPartitioner::new(K)),
            Method::Metis => Box::new(MinEdgeCutPartitioner::new(K)),
        }
    }

    /// The execution mode this method's engine natively runs: MPC plans
    /// with crossing properties; the baselines only localize stars.
    pub fn native_mode(&self) -> ExecMode {
        match self {
            Method::Mpc => ExecMode::CrossingAware,
            _ => ExecMode::StarOnly,
        }
    }
}

/// A partitioned dataset: the partitioning plus its timing.
pub struct Partitioned {
    /// The partitioning.
    pub partitioning: Partitioning,
    /// Wall time of the partitioning step (Table VI "partitioning").
    pub partition_time: Duration,
}

/// Partitions a graph with one method, timing it.
pub fn partition_with(method: Method, graph: &RdfGraph) -> Partitioned {
    let t0 = Instant::now();
    let partitioning = method.partitioner().partition(graph);
    Partitioned {
        partitioning,
        partition_time: t0.elapsed(),
    }
}

/// Like [`partition_with`], but folds per-stage spans and counters into
/// `rec`. Only MPC has internal stages; the baselines record a single
/// `partition.total` timer.
pub fn partition_with_traced(method: Method, graph: &RdfGraph, rec: &Recorder) -> Partitioned {
    let t0 = Instant::now();
    let partitioning = match method {
        Method::Mpc => {
            MpcPartitioner::new(MpcConfig::with_k(K))
                .partition_traced(graph, rec)
                .0
        }
        _ => {
            let span = rec.span("partition.total");
            let p = method.partitioner().partition(graph);
            drop(span);
            p
        }
    };
    Partitioned {
        partitioning,
        partition_time: t0.elapsed(),
    }
}

/// The VP baseline: edge-disjoint partitioning plus timing.
pub fn partition_vp(graph: &RdfGraph) -> (EdgePartitioning, Duration) {
    let t0 = Instant::now();
    let ep = VerticalPartitioner::new(K).partition(graph);
    (ep, t0.elapsed())
}

/// A dataset with all engines built — the fixture most experiments need.
pub struct EngineSet {
    /// The source bundle.
    pub bundle: DatasetBundle,
    /// Engines for MPC / Subject_Hash / METIS, in [`Method::ALL`] order.
    pub engines: Vec<(Method, DistributedEngine)>,
    /// The VP engine.
    pub vp: VpEngine,
}

/// Builds all four engines over a bundle. The three vertex-disjoint
/// methods partition and build independently, so they fan out over the
/// mpc-par pool (`MPC_THREADS` caps it); each build is deterministic on
/// its own, so the set is identical for every thread count.
pub fn build_engines(bundle: DatasetBundle) -> EngineSet {
    let network = NetworkModel::default();
    let threads = mpc_par::resolve_threads(None);
    let engines = mpc_par::par_map(threads, &Method::ALL, |_, &m| {
        let part = partition_with(m, &bundle.graph);
        (m, DistributedEngine::build(&bundle.graph, &part.partitioning, network))
    });
    let (ep, _) = partition_vp(&bundle.graph);
    let vp = VpEngine::build(&bundle.graph, &ep, network);
    EngineSet {
        bundle,
        engines,
        vp,
    }
}

impl EngineSet {
    /// The engine of one vertex-disjoint method.
    pub fn engine(&self, method: Method) -> &DistributedEngine {
        // mpc-allow: unwrap-expect the loop above builds an engine for every method in the list
        &self.engines.iter().find(|(m, _)| *m == method).expect("method built").1
    }
}

/// Runs one query through [`DistributedEngine::run_plan`] as a one-leaf
/// plan in an explicit mode, returning rows + stats. The requests carry
/// no fault layer, so they cannot fail, and a bare BGP has no FILTER to
/// read a dictionary, so an empty one stands in.
pub fn exec(engine: &DistributedEngine, mode: ExecMode, query: &Query) -> (Bindings, ExecutionStats) {
    exec_traced(engine, mode, query, &Recorder::disabled())
}

/// Like [`exec`], but folds query spans and matcher counters into `rec`.
pub fn exec_traced(
    engine: &DistributedEngine,
    mode: ExecMode,
    query: &Query,
    rec: &Recorder,
) -> (Bindings, ExecutionStats) {
    let plan = ResolvedPlan::from_bgp(query.clone());
    let req = RequestSpec::default().mode(mode).to_request(rec);
    let outcome = engine
        .run_plan(&plan, &req, &Dictionary::default())
        // mpc-allow: unwrap-expect a request without a fault layer cannot fail
        .expect("no fault layer in play");
    let (partial, stats) = outcome.into_parts();
    (partial.rows, stats)
}

/// Runs a query on an engine in its native mode, returning the stats only.
pub fn run(engine: &DistributedEngine, method: Method, query: &Query) -> ExecutionStats {
    exec(engine, method.native_mode(), query).1
}

/// Like [`run`], but folds query spans and matcher counters into `rec`.
pub fn run_traced(
    engine: &DistributedEngine,
    method: Method,
    query: &Query,
    rec: &Recorder,
) -> ExecutionStats {
    exec_traced(engine, method.native_mode(), query, rec).1
}

/// Milliseconds of total response time.
pub fn total_ms(stats: &ExecutionStats) -> f64 {
    stats.total().as_secs_f64() * 1e3
}

/// A machine-readable record of one instrumented benchmark run: metadata
/// plus every timer and counter the [`Recorder`] collected. Serialized to
/// `bench_results/<experiment>.json` (see `docs/OBSERVABILITY.md` for the
/// schema).
#[derive(Clone, Debug)]
pub struct RunReport {
    /// Experiment name — becomes the output file stem.
    pub experiment: String,
    /// Dataset the run used.
    pub dataset: String,
    /// Partitioning method under test.
    pub method: String,
    /// Number of partitions/sites.
    pub k: usize,
    /// Dataset scale factor (`MPC_BENCH_SCALE`).
    pub scale: f64,
    /// Worker-pool size the run resolved (`MPC_THREADS`, else the machine).
    pub threads: usize,
    /// Every metric the run recorded.
    pub metrics: mpc_obs::Report,
}

impl RunReport {
    /// Assembles a report from run metadata and a recorder's contents.
    pub fn new(experiment: &str, dataset: &str, method: Method, scale: f64, rec: &Recorder) -> Self {
        RunReport {
            experiment: experiment.to_owned(),
            dataset: dataset.to_owned(),
            method: method.name().to_owned(),
            k: K,
            scale,
            threads: mpc_par::resolve_threads(None),
            metrics: rec.report(),
        }
    }

    /// The JSON document: `{"experiment", "dataset", "method", "k",
    /// "scale", "threads", "metrics"}`.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("experiment", Json::from(self.experiment.as_str())),
            ("dataset", Json::from(self.dataset.as_str())),
            ("method", Json::from(self.method.as_str())),
            ("k", Json::from(self.k as u64)),
            ("scale", Json::from(self.scale)),
            ("threads", Json::from(self.threads as u64)),
            ("metrics", self.metrics.to_json()),
        ])
    }

    /// Writes the pretty-printed JSON to
    /// `bench_results/<experiment>.json`, returning the path.
    pub fn write(&self) -> std::io::Result<std::path::PathBuf> {
        crate::report::write_json(&self.experiment, &self.to_json())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_report_serializes_metadata_and_metrics() {
        let rec = Recorder::enabled();
        rec.add("query.match.steps", 7);
        rec.record("partition.select", Duration::from_millis(3));
        let report = RunReport::new("unit_test", "lubm", Method::Mpc, 1.0, &rec);
        let json = report.to_json().pretty();
        assert!(json.contains("\"experiment\": \"unit_test\""), "{json}");
        assert!(json.contains("\"method\": \"MPC\""), "{json}");
        assert!(json.contains("\"threads\""), "{json}");
        assert!(json.contains("\"steps\": 7"), "{json}");
        assert!(json.contains("\"select\""), "{json}");
    }
}
