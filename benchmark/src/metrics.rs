//! The benchmark's manifest in code: the four workloads, the nine
//! end-to-end metrics with their bounds, and every per-layer metric with
//! the end-to-end metric and workload it is expected to move.
//! `BENCHMARK.json` is `manifest --json` of this file; a unit test keeps
//! the two from drifting.

use crate::json::Json;

/// Seconds one run measures (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 10;

/// Wall-clock cap on one `run` invocation, traced or not; the watchdog
/// fails the run when it is exceeded.
pub const RUN_CAP_SECONDS: u64 = 30;

/// Which direction is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    /// By what share of `base` is `new` worse (negative when better).
    pub fn worsening(self, base: f64, new: f64) -> f64 {
        if base == 0.0 {
            return if new == base { 0.0 } else { f64::INFINITY };
        }
        match self {
            Better::Lower => (new - base) / base.abs(),
            Better::Higher => (base - new) / base.abs(),
        }
    }
}

/// One workload and the one-line reason it exists.
pub struct WorkloadInfo {
    pub name: &'static str,
    pub why: &'static str,
}

/// One end-to-end metric.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

impl EndToEnd {
    /// Counts that repeat exactly: two sets of runs must agree to the
    /// last digit, not merely within `bound`.
    pub fn exact(&self) -> bool {
        self.bound == EXACT
    }
}

/// One per-layer metric: what is timed or counted, and the prediction
/// (section 3 of the choosing-metrics guide) written down before
/// measuring — which end-to-end metric it should move, on which workload.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub moves: &'static str,
    pub on: &'static str,
}

pub const WORKLOADS: [WorkloadInfo; 4] = [
    WorkloadInfo {
        name: "lubm_hot",
        why: "Zipf replay of LUBM queries in 3 respellings, cache resident: time is framing, parse, resolve, cache probe and reply encoding; bypasses matcher and join",
    },
    WorkloadInfo {
        name: "lubm_cold",
        why: "same graph and stream with cached=false: every request pays per-site evaluation on 8 sites; all LUBM queries are IEQs so decomposition and join idle",
    },
    WorkloadInfo {
        name: "watdiv_join",
        why: "2,000-query WatDiv log drawn uniformly through a 256-entry cache: churn (miss, insert, evict) and the non-IEQ fifth exercises classify, decompose and join_all",
    },
    WorkloadInfo {
        name: "lubm_update",
        why: "one closed-loop reader beside a paced writer of 48 fixed INSERT/DELETE DATA commits: write lock, overlay growth and epoch flips strand the cache mid-stream",
    },
];

/// A bound for counts that repeat exactly. The contract wants a share
/// of the median; any change of one crossing property or one BGP leaf
/// is orders of magnitude above this, so it reads as "must not worsen".
const EXACT: f64 = 0.0001;

#[rustfmt::skip] // one row per metric reads as the table it is
pub const END_TO_END: [EndToEnd; 9] = [
    EndToEnd { name: "setup_s", unit: "s", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: "partition_s", unit: "s", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: "qps", unit: "req/s", better: Better::Higher, bound: 0.25 },
    EndToEnd { name: "latency_p50_ms", unit: "ms", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: "latency_p99_ms", unit: "ms", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: "commit_p50_ms", unit: "ms", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: "peak_rss_mb", unit: "MiB", better: Better::Lower, bound: 0.15 },
    EndToEnd { name: "crossing_properties", unit: "count", better: Better::Lower, bound: EXACT },
    EndToEnd { name: "independent_share", unit: "ratio", better: Better::Higher, bound: EXACT },
];

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
    on: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        moves,
        on,
    }
}

use Better::{Higher, Lower};

#[rustfmt::skip] // one row per metric reads as the table it is
pub const PER_LAYER: [PerLayer; 42] = [
    layer("server.proto.decode_us", "us", Lower, "latency_p50_ms", "lubm_hot"),
    layer("server.proto.encode_us", "us", Lower, "latency_p50_ms, latency_p99_ms (large replies)", "lubm_hot"),
    layer("sparql.parser.parse_us", "us", Lower, "latency_p50_ms, qps", "lubm_hot"),
    layer("sparql.algebra.resolve_us", "us", Lower, "latency_p50_ms, qps", "lubm_hot"),
    layer("sparql.canon.canonicalize_plan_us", "us", Lower, "latency_p50_ms, qps", "lubm_hot"),
    layer("cluster.serve.hit_us", "us", Lower, "latency_p50_ms", "lubm_hot"),
    layer("cluster.serve.miss_overhead_us", "us", Lower, "qps", "watdiv_join, lubm_update"),
    layer("cluster.serve.hit_rate", "ratio", Higher, "qps", "watdiv_join, lubm_update"),
    layer("cluster.serve.evictions", "count", Lower, "qps", "watdiv_join, lubm_update"),
    layer("cluster.coordinator.run_plan_us", "us", Lower, "latency_p50_ms", "lubm_cold, watdiv_join"),
    layer("cluster.ieq.classify_us", "us", Lower, "latency_p50_ms", "watdiv_join"),
    layer("cluster.decompose.decompose_us", "us", Lower, "latency_p50_ms", "watdiv_join"),
    layer("cluster.stats.subqueries", "count", Lower, "latency_p50_ms", "watdiv_join"),
    layer("cluster.site.respond_max_us", "us", Lower, "latency_p50_ms, qps", "lubm_cold"),
    layer("cluster.site.respond_sum_us", "us", Lower, "latency_p50_ms, qps", "lubm_cold"),
    layer("sparql.matcher.evaluate_us", "us", Lower, "latency_p50_ms", "lubm_cold"),
    layer("sparql.matcher.candidates_per_row", "ratio", Lower, "latency_p50_ms", "lubm_cold"),
    layer("cluster.wire.encode_us", "us", Lower, "latency_p99_ms", "lubm_cold"),
    layer("cluster.wire.decode_us", "us", Lower, "latency_p99_ms", "lubm_cold"),
    layer("cluster.stats.comm_bytes", "B", Lower, "latency_p99_ms", "lubm_cold"),
    layer("cluster.stats.comm_sim_us", "us", Lower, "none: modelled network time, never slept", "lubm_cold"),
    layer("sparql.algebra.join_all_us", "us", Lower, "latency_p99_ms", "watdiv_join"),
    layer("cluster.stats.qdt_us", "us", Lower, "cross-check of classify + decompose spans", "all"),
    layer("cluster.stats.let_us", "us", Lower, "cross-check of the site spans", "all"),
    layer("cluster.stats.jt_us", "us", Lower, "cross-check of the join_all span", "all"),
    layer("server.transport_us", "us", Lower, "latency_p50_ms", "lubm_hot"),
    layer("server.queue.max_depth", "count", Lower, "latency_p50_ms", "lubm_hot"),
    layer("server.rejected", "count", Lower, "latency_p50_ms", "lubm_hot"),
    layer("cluster.update.commit_us", "us", Lower, "commit_p50_ms, latency_p99_ms (readers behind the write lock)", "lubm_update"),
    layer("sparql.parser.parse_update_us", "us", Lower, "commit_p50_ms", "lubm_update"),
    layer("cluster.update.overlay_len", "count", Lower, "latency_p99_ms", "lubm_update"),
    layer("server.writer_lag_ms", "ms", Lower, "commit_p50_ms (generator lateness, not the system)", "lubm_update"),
    layer("core.mpc.select_s", "s", Lower, "partition_s, setup_s", "all"),
    layer("core.mpc.coarse_partition_s", "s", Lower, "partition_s, setup_s", "all"),
    layer("cluster.engine.build_s", "s", Lower, "setup_s", "all"),
    layer("datagen.generate_s", "s", Lower, "setup_s", "all"),
    layer("snapshot.store.save_s", "s", Lower, "none yet (cold start)", "lubm_cold, traced"),
    layer("snapshot.store.load_s", "s", Lower, "none yet (cold start)", "lubm_cold, traced"),
    layer("snapshot.bytes_per_triple", "B/triple", Lower, "none yet (cold start)", "lubm_cold, traced"),
    layer("ladder.residual_ratio", "ratio", Lower, "reported, not gated: share of 1-client TCP p50 the layer sum leaves unexplained", "all"),
    layer("trace.overhead_ratio", "ratio", Higher, "traced / untraced request rate of the in-process ladder", "all"),
    layer("ladder.requests", "count", Higher, "how many requests the time-bounded ladder covered", "all"),
];

/// The end-to-end metric called `name`.
pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// The document the contract calls `BENCHMARK.json`.
pub fn manifest_json() -> Json {
    let metric = |name: &str, unit: &str, better: Better| {
        vec![
            ("name", Json::str(name)),
            ("unit", Json::str(unit)),
            ("better", Json::str(better.as_str())),
        ]
    };
    Json::obj([
        (
            "command",
            Json::Arr(
                [
                    "cargo",
                    "run",
                    "--release",
                    "--offline",
                    "--quiet",
                    "--manifest-path",
                    "benchmark/Cargo.toml",
                    "--",
                    "run",
                ]
                .iter()
                .map(|s| Json::str(*s))
                .collect(),
            ),
        ),
        ("paths", Json::Arr(vec![Json::str("benchmark")])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        let mut pairs = metric(m.name, m.unit, m.better);
                        pairs.push(("bound", Json::Num(m.bound)));
                        Json::obj(pairs)
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| Json::obj(metric(m.name, m.unit, m.better)))
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn valid_name(s: &str) -> bool {
        s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn manifest_obeys_the_contract_limits() {
        let mut names = BTreeSet::new();
        for w in &WORKLOADS {
            assert!(valid_name(w.name) && names.insert(w.name));
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for (name, unit) in END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        {
            assert!(valid_name(name) && names.insert(name), "{name}");
            assert!(
                unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{unit}"
            );
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = end_to_end("setup_s").unwrap();
        assert!(setup.unit == "s" && setup.better == Better::Lower);
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!((1..=60).contains(&RUN_SECONDS));
    }

    #[test]
    fn committed_benchmark_json_is_this_manifest() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(Json::parse(&text).unwrap(), manifest_json());
    }

    #[test]
    fn worsening_follows_direction() {
        assert!((Better::Lower.worsening(10.0, 11.0) - 0.1).abs() < 1e-12);
        assert!((Better::Higher.worsening(10.0, 9.0) - 0.1).abs() < 1e-12);
        assert!(Better::Higher.worsening(10.0, 12.0) < 0.0);
        assert_eq!(Better::Lower.worsening(0.0, 0.0), 0.0);
    }
}
