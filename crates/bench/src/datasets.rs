//! Dataset bundles for the experiment harness: every dataset of Table I as
//! a scaled analog, with its benchmark queries and/or query-log workload.
//!
//! Default scales target single-machine runtimes of minutes, not hours;
//! every bundle takes the scale factor `main` parses once from
//! `MPC_BENCH_SCALE` (a positive float, default `1.0`) and shrinks or grows
//! its dataset proportionally, so quick smoke runs (`MPC_BENCH_SCALE=0.1`)
//! and bigger sweeps use the same code.

use mpc_datagen::lubm::{self, LubmConfig};
use mpc_datagen::real_queries::{bio2rdf_queries, yago2_queries};
use mpc_datagen::realistic::{self, RealisticConfig};
use mpc_datagen::watdiv::{self, WatdivConfig};
use mpc_datagen::{NamedQuery, QuerySampler, ShapeMix};
use mpc_rdf::RdfGraph;
use mpc_sparql::Query;
use mpc_rdf::narrow;

/// One dataset plus its workloads.
pub struct DatasetBundle {
    /// Display name (matches Table I).
    pub name: &'static str,
    /// The graph.
    pub graph: RdfGraph,
    /// Named benchmark queries (LQ/YQ/BQ), if the dataset has them.
    pub benchmark_queries: Vec<NamedQuery>,
    /// Sampled query log, if the dataset is log-driven.
    pub query_log: Vec<Query>,
}

/// The scale factor from the raw value of `MPC_BENCH_SCALE`: unset means
/// 1.0, and anything else must parse as a finite float above zero.
pub fn parse_scale(raw: Option<&str>) -> Result<f64, String> {
    let Some(raw) = raw else { return Ok(1.0) };
    match raw.parse::<f64>() {
        Ok(f) if f.is_finite() && f > 0.0 => Ok(f),
        _ => Err(format!(
            "MPC_BENCH_SCALE={raw:?} is not a positive number (e.g. 0.1)"
        )),
    }
}

/// Number of log queries to sample (paper: 1000), scaled.
fn log_size(scale: f64) -> usize {
    narrow::usize_from_f64(1000.0 * scale).clamp(50, 5000)
}

/// LUBM analog (default 20 universities = 40,041 triples).
pub fn lubm_bundle(scale: f64) -> DatasetBundle {
    let universities = narrow::usize_from_f64(20.0 * scale).max(2);
    let d = lubm::generate(&LubmConfig {
        universities,
        ..Default::default()
    });
    let benchmark_queries = d.benchmark_queries();
    DatasetBundle {
        name: "LUBM",
        graph: d.graph,
        benchmark_queries,
        query_log: Vec::new(),
    }
}

/// LUBM analog at an explicit university count (scalability sweeps).
pub fn lubm_at(universities: usize) -> DatasetBundle {
    let d = lubm::generate(&LubmConfig {
        universities,
        ..Default::default()
    });
    let benchmark_queries = d.benchmark_queries();
    DatasetBundle {
        name: "LUBM",
        graph: d.graph,
        benchmark_queries,
        query_log: Vec::new(),
    }
}

/// WatDiv analog (default 4,000 users = 87,994 triples) with a sampled log.
pub fn watdiv_bundle(scale: f64) -> DatasetBundle {
    let users = narrow::usize_from_f64(4000.0 * scale).max(200);
    watdiv_at(users, scale)
}

/// WatDiv analog at an explicit user count; `scale` sizes its log.
pub fn watdiv_at(users: usize, scale: f64) -> DatasetBundle {
    let d = watdiv::generate(&WatdivConfig {
        scale: users,
        ..Default::default()
    });
    let mut sampler = QuerySampler::new(&d.graph, 0x3a7d_5eed);
    let query_log = sampler.sample_log(log_size(scale), &ShapeMix::watdiv_like());
    DatasetBundle {
        name: "WatDiv",
        graph: d.graph,
        benchmark_queries: Vec::new(),
        query_log,
    }
}

/// YAGO2 analog with its four benchmark queries.
pub fn yago2_bundle(scale: f64) -> DatasetBundle {
    let graph = realistic::generate(&RealisticConfig::yago2_like().scaled(scale));
    let benchmark_queries = yago2_queries(&graph);
    DatasetBundle {
        name: "YAGO2",
        graph,
        benchmark_queries,
        query_log: Vec::new(),
    }
}

/// Bio2RDF analog with its five benchmark queries.
pub fn bio2rdf_bundle(scale: f64) -> DatasetBundle {
    let graph = realistic::generate(&RealisticConfig::bio2rdf_like().scaled(scale));
    let benchmark_queries = bio2rdf_queries(&graph);
    DatasetBundle {
        name: "Bio2RDF",
        graph,
        benchmark_queries,
        query_log: Vec::new(),
    }
}

/// DBpedia analog with a sampled LSQ-style log.
pub fn dbpedia_bundle(scale: f64) -> DatasetBundle {
    let graph = realistic::generate(&RealisticConfig::dbpedia_like().scaled(scale));
    let mut sampler = QuerySampler::new(&graph, 0xdb9e_5eed);
    sampler.var_property_prob = 0.02;
    let query_log = sampler.sample_log(log_size(scale), &ShapeMix::dbpedia_like());
    DatasetBundle {
        name: "DBpedia",
        graph,
        benchmark_queries: Vec::new(),
        query_log,
    }
}

/// LGD analog with a sampled LSQ-style log.
pub fn lgd_bundle(scale: f64) -> DatasetBundle {
    let graph = realistic::generate(&RealisticConfig::lgd_like().scaled(scale));
    let mut sampler = QuerySampler::new(&graph, 0x16d0_5eed);
    let query_log = sampler.sample_log(log_size(scale), &ShapeMix::lgd_like());
    DatasetBundle {
        name: "LGD",
        graph,
        benchmark_queries: Vec::new(),
        query_log,
    }
}

/// All six datasets, in Table I order.
pub fn all_bundles(scale: f64) -> Vec<DatasetBundle> {
    vec![
        lubm_bundle(scale),
        watdiv_bundle(scale),
        yago2_bundle(scale),
        bio2rdf_bundle(scale),
        dbpedia_bundle(scale),
        lgd_bundle(scale),
    ]
}

#[cfg(test)]
mod tests {
    use super::parse_scale;

    #[test]
    fn unset_means_one_and_positive_finite_scales_parse() {
        assert_eq!(parse_scale(None), Ok(1.0));
        assert_eq!(parse_scale(Some("0.1")), Ok(0.1));
        assert_eq!(parse_scale(Some("2")), Ok(2.0));
        assert_eq!(parse_scale(Some("5e-2")), Ok(0.05));
    }

    #[test]
    fn malformed_scales_are_rejected() {
        for raw in [
            "0,1", "", " 0.1", "abc", "0", "-1", "-0.5", "inf", "NaN", "1e999",
        ] {
            let err = parse_scale(Some(raw)).expect_err(raw);
            assert!(err.contains("MPC_BENCH_SCALE"), "{err}");
        }
    }
}
