//! `compare`, `stability` and `manifest`: the benchmark's own bounds
//! applied to its own results.

use crate::json::Json;
use crate::metrics::{self, EndToEnd, END_TO_END, RUN_CAP_SECONDS, RUN_SECONDS, WORKLOADS};
use crate::stats;
use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;

/// The parts of a result document `compare` looks at.
struct ResultDoc {
    workload: String,
    correct: bool,
    attempted: f64,
    failed: f64,
    metrics: BTreeMap<String, f64>,
}

impl ResultDoc {
    fn parse(text: &str) -> Result<ResultDoc, String> {
        let doc = Json::parse(text.trim())?;
        let num = |key: &str| {
            doc.get(key)
                .and_then(Json::as_f64)
                .ok_or(format!("no number `{key}`"))
        };
        Ok(ResultDoc {
            workload: doc
                .get("workload")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_owned(),
            correct: doc.get("correct") == Some(&Json::Bool(true)),
            attempted: num("attempted")?,
            failed: num("failed")?,
            metrics: doc.get("metrics").ok_or("no `metrics`")?.metric_values(),
        })
    }

    fn failed_share(&self) -> f64 {
        self.failed / self.attempted.max(1.0)
    }
}

/// One row of a comparison.
#[derive(Debug, PartialEq)]
pub struct Verdict {
    pub metric: String,
    pub base: f64,
    pub new: f64,
    /// Share of `base` by which `new` is worse; negative when better.
    pub worsening: f64,
    pub bound: Option<f64>,
    pub regressed: bool,
}

/// Applies each end-to-end metric's direction and bound to two result
/// documents (base, new). Metrics without a bound — the per-layer ones
/// of traced results — are listed but never gate. The returned flag is
/// true when `new` regressed: a metric beyond its bound, an incorrect
/// run, or a larger share of failed operations.
pub fn compare_docs(base: &str, new: &str) -> Result<(Vec<Verdict>, bool), String> {
    let (a, b) = (ResultDoc::parse(base)?, ResultDoc::parse(new)?);
    if a.workload != b.workload {
        return Err(format!(
            "results are of different workloads: `{}` and `{}`",
            a.workload, b.workload
        ));
    }
    let mut regressed = !b.correct || b.failed_share() > a.failed_share();
    let mut rows = Vec::new();
    for (name, &base) in &a.metrics {
        let Some(&new) = b.metrics.get(name) else {
            return Err(format!("the second result has no `{name}`"));
        };
        let known = metrics::end_to_end(name);
        let better = known.map_or_else(
            || {
                metrics::PER_LAYER
                    .iter()
                    .find(|m| m.name == name)
                    .map_or(metrics::Better::Lower, |m| m.better)
            },
            |m| m.better,
        );
        let worsening = better.worsening(base, new);
        let bad = known.is_some_and(|m| worsening > m.bound);
        regressed |= bad;
        rows.push(Verdict {
            metric: name.clone(),
            base,
            new,
            worsening,
            bound: known.map(|m| m.bound),
            regressed: bad,
        });
    }
    Ok((rows, regressed))
}

/// `compare <a.json> <b.json>`; exit code 1 on a regression.
pub fn compare(a: &Path, b: &Path) -> i32 {
    let read = |p: &Path| std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()));
    let outcome = read(a).and_then(|ta| read(b).and_then(|tb| compare_docs(&ta, &tb)));
    match outcome {
        Err(e) => {
            eprintln!("compare: {e}");
            2
        }
        Ok((rows, regressed)) => {
            println!(
                "{:<36}{:>14}{:>14}{:>10}{:>8}",
                "metric", "base", "new", "worse by", "bound"
            );
            for r in &rows {
                println!(
                    "{:<36}{:>14.4}{:>14.4}{:>9.1}%{:>8}{}",
                    r.metric,
                    r.base,
                    r.new,
                    r.worsening * 100.0,
                    r.bound
                        .map_or("-".to_owned(), |b| format!("{:.2}%", b * 100.0)),
                    if r.regressed { "  REGRESSED" } else { "" }
                );
            }
            println!(
                "{}",
                if regressed {
                    "regression"
                } else {
                    "no regression"
                }
            );
            i32::from(regressed)
        }
    }
}

/// How two sets of runs of one build relate on one metric.
#[derive(Debug, PartialEq, Eq, Clone, Copy)]
pub enum Agreement {
    /// Medians agree within the bound and both spreads are inside it.
    Stable,
    /// A spread exceeds the bound: the metric cannot resolve a change of
    /// the size it is meant to gate.
    Unresolved,
    /// One set's median is worse than the other's by more than the
    /// bound, whichever ran first (or an exact count differs).
    Disagrees,
}

/// Judges one metric from the values of two sets of runs.
pub fn agreement(m: &EndToEnd, first: &[f64], second: &[f64]) -> Agreement {
    if m.exact() {
        let all_equal = first.iter().chain(second).all(|&v| v == first[0]);
        return if all_equal {
            Agreement::Stable
        } else {
            Agreement::Disagrees
        };
    }
    // Both sets are the same build, so neither is the baseline: a gap
    // beyond the bound is a disagreement in whichever order they ran.
    let (a, b) = (stats::median(first), stats::median(second));
    if m.better.worsening(a, b).max(m.better.worsening(b, a)) > m.bound {
        return Agreement::Disagrees;
    }
    // `setup_s` is the one metric whose spread the contract does not
    // hold to its bound; its medians must still agree.
    let spread = stats::relative_spread(first).max(stats::relative_spread(second));
    if spread > m.bound && m.name != "setup_s" {
        return Agreement::Unresolved;
    }
    Agreement::Stable
}

/// Runs per workload in each of `stability`'s two sets — the driver's
/// own count, and the one the spreads in the README were measured with.
const STABILITY_RUNS: usize = 10;

/// Runs `<this binary> run` once and parses its result line.
fn run_once(workload: &str, seed: u64) -> Result<ResultDoc, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args([
            "run",
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
            "--seconds",
            &RUN_SECONDS.to_string(),
            "--trace",
            "0",
        ])
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or("");
    if !out.status.success() {
        return Err(format!(
            "{workload} seed {seed} exited with {}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    ResultDoc::parse(last).map_err(|e| format!("{workload} seed {seed}: {e}"))
}

/// `stability`: two full sets of [`STABILITY_RUNS`] runs per workload of
/// this same build, each run on another seed, judged by [`agreement`].
/// Exit code 1 unless every end-to-end metric of every workload is
/// stable and no operation failed.
pub fn stability() -> i32 {
    let mut ok = true;
    println!(
        "{:<14}{:<22}{:>12}{:>12}{:>9}{:>9}{:>8}  verdict",
        "workload", "metric", "median 1", "median 2", "spread 1", "spread 2", "bound"
    );
    for w in &WORKLOADS {
        let mut sets: [BTreeMap<String, Vec<f64>>; 2] = [BTreeMap::new(), BTreeMap::new()];
        for (s, set) in sets.iter_mut().enumerate() {
            for r in 0..STABILITY_RUNS {
                let seed = (s * STABILITY_RUNS + r + 1) as u64;
                match run_once(w.name, seed) {
                    Err(e) => {
                        eprintln!("stability: {e}");
                        return 2;
                    }
                    Ok(doc) => {
                        if !doc.correct || doc.failed > 0.0 {
                            println!(
                                "{:<14}seed {seed}: {} of {} operations failed",
                                w.name, doc.failed, doc.attempted
                            );
                            ok = false;
                        }
                        for (name, v) in doc.metrics {
                            set.entry(name).or_default().push(v);
                        }
                    }
                }
            }
        }
        for m in &END_TO_END {
            let (a, b) = (&sets[0][m.name], &sets[1][m.name]);
            let verdict = agreement(m, a, b);
            ok &= verdict == Agreement::Stable;
            println!(
                "{:<14}{:<22}{:>12.4}{:>12.4}{:>8.2}%{:>8.2}%{:>7.2}%  {}",
                w.name,
                m.name,
                stats::median(a),
                stats::median(b),
                stats::relative_spread(a) * 100.0,
                stats::relative_spread(b) * 100.0,
                m.bound * 100.0,
                match verdict {
                    Agreement::Stable => "stable",
                    Agreement::Unresolved => "UNRESOLVED",
                    Agreement::Disagrees => "DISAGREES",
                }
            );
            if verdict != Agreement::Stable {
                for (n, set) in [a, b].iter().enumerate() {
                    let values: Vec<String> = set.iter().map(|v| format!("{v:.4}")).collect();
                    println!("{:<14}  set {}: {}", "", n + 1, values.join(" "));
                }
            }
        }
    }
    println!("{}", if ok { "stable" } else { "not stable" });
    i32::from(!ok)
}

/// `manifest`: the `BENCHMARK.json` document (`--json`), or the
/// wall-clock budget it implies.
pub fn manifest(json: bool) -> i32 {
    if json {
        println!("{}", pretty(&metrics::manifest_json(), 0));
        return 0;
    }
    let passes = WORKLOADS.len() as u64 * 2;
    println!("run_seconds            {RUN_SECONDS} s measured per run");
    println!(
        "cap per run            {RUN_CAP_SECONDS} s wall, enforced by the watchdog (traced or not)"
    );
    println!(
        "one untraced + one traced pass over {} workloads: at most {} s",
        WORKLOADS.len(),
        passes * RUN_CAP_SECONDS
    );
    let driver_runs = 4 + 22 * WORKLOADS.len() as u64;
    println!(
        "the driver's {driver_runs} runs: at most {} s at the cap (plus two builds)",
        driver_runs * RUN_CAP_SECONDS
    );
    println!(
        "\n{:<36}{:<10}{:<62}on",
        "per-layer metric", "unit", "should move"
    );
    for m in &metrics::PER_LAYER {
        println!("{:<36}{:<10}{:<62}{}", m.name, m.unit, m.moves, m.on);
    }
    0
}

/// Indented rendering for the committed manifest (arrays of scalars and
/// flat objects stay on one line so the file reads as a table).
fn pretty(v: &Json, depth: usize) -> String {
    let pad = "  ".repeat(depth + 1);
    let flat = |v: &Json| !matches!(v, Json::Arr(_) | Json::Obj(_));
    match v {
        Json::Obj(pairs) if depth == 0 || !pairs.iter().all(|(_, v)| flat(v)) => {
            let body: Vec<String> = pairs
                .iter()
                .map(|(k, v)| {
                    format!(
                        "{pad}{}: {}",
                        Json::str(k.as_str()).render(),
                        pretty(v, depth + 1)
                    )
                })
                .collect();
            format!("{{\n{}\n{}}}", body.join(",\n"), "  ".repeat(depth))
        }
        Json::Arr(items) if !items.iter().all(flat) => {
            let body: Vec<String> = items
                .iter()
                .map(|v| format!("{pad}{}", pretty(v, depth + 1)))
                .collect();
            format!("[\n{}\n{}]", body.join(",\n"), "  ".repeat(depth))
        }
        other => other.render(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(workload: &str, failed: u32, qps: f64, p99: f64, crossing: f64) -> String {
        format!(
            "{{\"workload\": \"{workload}\", \"correct\": {}, \"attempted\": 1000, \"failed\": {failed}, \"metrics\": {{\
             \"qps\": {{\"value\": {qps}, \"unit\": \"req/s\"}}, \
             \"latency_p99_ms\": {{\"value\": {p99}, \"unit\": \"ms\"}}, \
             \"crossing_properties\": {{\"value\": {crossing}, \"unit\": \"count\"}}, \
             \"server.proto.decode_us\": {{\"value\": {p99}, \"unit\": \"us\"}}}}}}",
            failed == 0
        )
    }

    #[test]
    fn compare_applies_direction_and_bound() {
        let (qps_bound, p99_bound) = (
            metrics::end_to_end("qps").unwrap().bound,
            metrics::end_to_end("latency_p99_ms").unwrap().bound,
        );
        let base = doc("lubm_hot", 0, 1000.0, 10.0, 5.0);
        // Half of each bound the wrong way is still inside it.
        let inside = doc(
            "lubm_hot",
            0,
            1000.0 * (1.0 - qps_bound / 2.0),
            10.0 * (1.0 + p99_bound / 2.0),
            5.0,
        );
        let (rows, regressed) = compare_docs(&base, &inside).unwrap();
        assert!(!regressed);
        let qps = rows.iter().find(|r| r.metric == "qps").unwrap();
        assert!((qps.worsening - qps_bound / 2.0).abs() < 1e-12 && qps.bound == Some(qps_bound));
        // Higher qps is better, so a rise is a negative worsening.
        let (rows, regressed) =
            compare_docs(&base, &doc("lubm_hot", 0, 1500.0, 10.0, 5.0)).unwrap();
        assert!(!regressed && rows.iter().find(|r| r.metric == "qps").unwrap().worsening < 0.0);
        // A drop, or a rise in latency, just beyond the bound regresses.
        assert!(
            compare_docs(
                &base,
                &doc("lubm_hot", 0, 1000.0 * (1.0 - qps_bound * 1.1), 10.0, 5.0)
            )
            .unwrap()
            .1
        );
        assert!(
            compare_docs(
                &base,
                &doc("lubm_hot", 0, 1000.0, 10.0 * (1.0 + p99_bound * 1.1), 5.0)
            )
            .unwrap()
            .1
        );
        // One more crossing property is a regression of an exact count.
        assert!(
            compare_docs(&base, &doc("lubm_hot", 0, 1000.0, 10.0, 6.0))
                .unwrap()
                .1
        );
    }

    #[test]
    fn compare_flags_failures_and_ignores_unbounded_layers() {
        let base = doc("lubm_hot", 0, 1000.0, 10.0, 5.0);
        assert!(
            compare_docs(&base, &doc("lubm_hot", 3, 1000.0, 10.0, 5.0))
                .unwrap()
                .1
        );
        // A per-layer metric (here p99's twin) is listed, never gated.
        let (rows, regressed) =
            compare_docs(&base, &doc("lubm_hot", 0, 1000.0, 10.5, 5.0)).unwrap();
        assert!(!regressed);
        let layer = rows
            .iter()
            .find(|r| r.metric == "server.proto.decode_us")
            .unwrap();
        assert!(layer.bound.is_none() && !layer.regressed);
        assert!(compare_docs(&base, &doc("lubm_cold", 0, 1000.0, 10.0, 5.0)).is_err());
    }

    #[test]
    fn agreement_separates_stable_unresolved_and_disagreeing() {
        let qps = metrics::end_to_end("qps").unwrap();
        let around = |centre: f64, half_width: f64| -> Vec<f64> {
            [-1.0, -0.5, 0.0, 0.5, 1.0]
                .iter()
                .map(|k| centre * (1.0 + k * half_width))
                .collect()
        };
        let tight = around(100.0, qps.bound / 10.0);
        assert_eq!(agreement(qps, &tight, &tight), Agreement::Stable);
        let lower = around(100.0 * (1.0 - 1.2 * qps.bound), qps.bound / 10.0);
        assert_eq!(agreement(qps, &tight, &lower), Agreement::Disagrees);
        assert_eq!(agreement(qps, &lower, &tight), Agreement::Disagrees);
        let wide = around(100.0, 2.0 * qps.bound);
        assert_eq!(agreement(qps, &tight, &wide), Agreement::Unresolved);
        // setup_s may spread; its medians must still agree.
        let setup = metrics::end_to_end("setup_s").unwrap();
        assert_eq!(
            agreement(setup, &tight, &around(100.0, 2.0 * setup.bound)),
            Agreement::Stable
        );
        let exact = metrics::end_to_end("crossing_properties").unwrap();
        assert_eq!(agreement(exact, &[5.0; 3], &[5.0; 3]), Agreement::Stable);
        assert_eq!(
            agreement(exact, &[5.0; 3], &[5.0, 5.0, 6.0]),
            Agreement::Disagrees
        );
    }

    #[test]
    fn pretty_manifest_parses_back() {
        let m = metrics::manifest_json();
        assert_eq!(Json::parse(&pretty(&m, 0)).unwrap(), m);
    }
}
