//! Fig. 7: online response times of the benchmark queries under all four
//! partitioning methods, split into star and non-star groups like the
//! paper's subplot pairs.

use crate::datasets::{bio2rdf_bundle, lubm_bundle, yago2_bundle, DatasetBundle};
use crate::harness::{build_engines, run as run_query, total_ms, Method};
use crate::report::{emit, Table};
use std::io;

fn compare_table(bundle: DatasetBundle) -> (String, Table) {
    let name = bundle.name.to_owned();
    let set = build_engines(bundle);
    let mut t = Table::new(&[
        "Query",
        "shape",
        "MPC(ms)",
        "Subject_Hash(ms)",
        "METIS(ms)",
        "VP(ms)",
        "MPC_IEQ",
    ]);
    for nq in &set.bundle.benchmark_queries {
        let shape = if nq.query.is_star() { "star" } else { "non-star" };
        let mut cells = vec![nq.name.clone(), shape.to_owned()];
        let mut mpc_ieq = false;
        for method in Method::ALL {
            let engine = set.engine(method);
            let stats = run_query(engine, method, &nq.query);
            if method == Method::Mpc {
                mpc_ieq = stats.independent;
            }
            cells.push(format!("{:.2}", total_ms(&stats)));
        }
        let (_, vp_stats) = set.vp.execute(&nq.query);
        cells.push(format!("{:.2}", total_ms(&vp_stats)));
        cells.push(if mpc_ieq { "yes" } else { "no" }.to_owned());
        t.row(cells);
    }
    (name, t)
}

/// Regenerates Fig. 7.
pub fn run(scale: f64) -> io::Result<()> {
    for bundle in [
        lubm_bundle(scale),
        yago2_bundle(scale),
        bio2rdf_bundle(scale),
    ] {
        let (name, t) = compare_table(bundle);
        emit(
            "fig7",
            &format!("Fig. 7 — benchmark query response times on {name} (k=8)"),
            &t.render(),
        )?;
    }
    Ok(())
}
