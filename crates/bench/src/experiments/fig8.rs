//! Fig. 8: five-number summaries (min / Q1 / median / Q3 / max) of query
//! response times over sampled query logs, per partitioning method.

use crate::datasets::{dbpedia_bundle, lgd_bundle, watdiv_bundle, DatasetBundle};
use crate::harness::{build_engines, run as run_query, total_ms, Method};
use crate::report::{emit, Table};
use mpc_cluster::FiveNumber;
use std::io;

fn summary_table(bundle: DatasetBundle) -> (String, Table) {
    let name = bundle.name.to_owned();
    let set = build_engines(bundle);
    let mut t = Table::new(&[
        "Method", "min(ms)", "Q1(ms)", "median(ms)", "Q3(ms)", "max(ms)", "IEQs",
    ]);
    let log = &set.bundle.query_log;
    for method in Method::ALL {
        let engine = set.engine(method);
        let mut times = Vec::with_capacity(log.len());
        let mut ieqs = 0usize;
        for q in log {
            let stats = run_query(engine, method, q);
            if stats.independent {
                ieqs += 1;
            }
            times.push(total_ms(&stats));
        }
        let f = FiveNumber::of(&times);
        t.row(vec![
            method.name().to_owned(),
            format!("{:.3}", f.min),
            format!("{:.3}", f.q1),
            format!("{:.3}", f.median),
            format!("{:.3}", f.q3),
            format!("{:.2}", f.max),
            format!("{}/{}", ieqs, log.len()),
        ]);
    }
    // VP.
    let mut times = Vec::with_capacity(log.len());
    let mut ieqs = 0usize;
    for q in log {
        let (_, stats) = set.vp.execute(q);
        if stats.independent {
            ieqs += 1;
        }
        times.push(total_ms(&stats));
    }
    let f = FiveNumber::of(&times);
    t.row(vec![
        "VP".to_owned(),
        format!("{:.3}", f.min),
        format!("{:.3}", f.q1),
        format!("{:.3}", f.median),
        format!("{:.3}", f.q3),
        format!("{:.2}", f.max),
        format!("{}/{}", ieqs, log.len()),
    ]);
    (name, t)
}

/// Regenerates Fig. 8.
pub fn run(scale: f64) -> io::Result<()> {
    for bundle in [
        watdiv_bundle(scale),
        dbpedia_bundle(scale),
        lgd_bundle(scale),
    ] {
        let n = bundle.query_log.len();
        let (name, t) = summary_table(bundle);
        emit(
            "fig8",
            &format!("Fig. 8 — response-time distribution over {n} log queries on {name} (k=8)"),
            &t.render(),
        )?;
    }
    Ok(())
}
