//! Fig. 11: the partitioning-agnostic (gStoreD) experiment, from two
//! angles.
//!
//! (a) **Crossing-aware planning under each partitioning** — a
//! partitioning-agnostic coordinator plans with whatever crossing-property
//! set the given partitioning exhibits; fewer crossing properties ⇒ fewer
//! subqueries ⇒ fewer joins. This reproduces the paper's ordering (MPC
//! fastest on every non-star query).
//!
//! (b) **Exact partial evaluation + assembly** (`mpc_cluster::partial`) —
//! our verifiable reconstruction of gStoreD's execution model. Its piece
//! enumeration is partitioning-independent (all connected subqueries run
//! everywhere), so its *times* do not separate the methods the way the
//! real system's do; the table reports the piece/assembly statistics for
//! completeness. See EXPERIMENTS.md for the discussion.

use crate::datasets::{lubm_bundle, yago2_bundle, DatasetBundle};
use crate::harness::{build_engines, exec, partition_with, total_ms, Method};
use crate::report::{emit, ms, Table};
use mpc_cluster::{partial_evaluate, ExecMode, NetworkModel, Site};
use std::io;

fn keep(name: &str, only: Option<&[&str]>) -> bool {
    only.is_none_or(|f| f.contains(&name))
}

/// Table (a): crossing-aware planning over each partitioning.
fn planning_table(
    bundle: DatasetBundle,
    only: Option<&[&str]>,
) -> (String, Table, DatasetBundle) {
    let name = bundle.name.to_owned();
    let set = build_engines(bundle);
    let mut t = Table::new(&[
        "Query",
        "MPC(ms)",
        "Subject_Hash(ms)",
        "METIS(ms)",
        "MPC subqueries",
        "SH subqueries",
    ]);
    for nq in &set.bundle.benchmark_queries {
        if !keep(&nq.name, only) {
            continue;
        }
        let mut cells = vec![nq.name.clone()];
        let mut subq = Vec::new();
        for method in Method::ALL {
            let engine = set.engine(method);
            let (_, stats) = exec(engine, ExecMode::CrossingAware, &nq.query);
            cells.push(format!("{:.2}", total_ms(&stats)));
            if method != Method::Metis {
                subq.push(stats.subqueries.to_string());
            }
        }
        cells.extend(subq);
        t.row(cells);
    }
    (name, t, set.bundle)
}

/// Table (b): exact partial evaluation + assembly statistics.
fn partial_table(bundle: &DatasetBundle, only: Option<&[&str]>) -> Table {
    let network = NetworkModel::default();
    let mut site_sets = Vec::new();
    for method in [Method::Mpc, Method::SubjectHash] {
        let part = partition_with(method, &bundle.graph).partitioning;
        let sites: Vec<Site> = part
            .fragments(&bundle.graph)
            .into_iter()
            .map(|f| Site::load(f).0)
            .collect();
        site_sets.push((method, sites));
    }
    let mut t = Table::new(&[
        "Query",
        "MPC total(ms)",
        "SH total(ms)",
        "MPC assembly(ms)",
        "SH assembly(ms)",
        "pieces",
    ]);
    for nq in &bundle.benchmark_queries {
        if !keep(&nq.name, only) {
            continue;
        }
        if nq.query.patterns.len() > mpc_cluster::partial::MAX_PATTERNS {
            continue;
        }
        let mut totals = Vec::new();
        let mut assemblies = Vec::new();
        let mut pieces = 0;
        for (_, sites) in &site_sets {
            let (_, stats) = partial_evaluate(sites, &nq.query);
            let comm = network.transfer_time(stats.shipped_bytes, sites.len() as u64);
            totals.push(ms(stats.local_eval_time + stats.assembly_time + comm));
            assemblies.push(ms(stats.assembly_time));
            pieces = stats.pieces;
        }
        t.row(vec![
            nq.name.clone(),
            totals[0].clone(),
            totals[1].clone(),
            assemblies[0].clone(),
            assemblies[1].clone(),
            pieces.to_string(),
        ]);
    }
    t
}

/// Regenerates Fig. 11.
pub fn run(scale: f64) -> io::Result<()> {
    let lubm_nonstar = ["LQ2", "LQ7", "LQ8", "LQ9", "LQ12"];
    let (name, t, bundle) = planning_table(lubm_bundle(scale), Some(&lubm_nonstar));
    emit(
        "fig11",
        &format!("Fig. 11 (a) — partitioning-agnostic planning, non-star queries on {name}"),
        &t.render(),
    )?;
    emit(
        "fig11",
        &format!("Fig. 11 (b) — exact partial evaluation + assembly on {name}"),
        &partial_table(&bundle, Some(&lubm_nonstar)).render(),
    )?;
    let (name, t, bundle) = planning_table(yago2_bundle(scale), None);
    emit(
        "fig11",
        &format!("Fig. 11 (a) — partitioning-agnostic planning on {name}"),
        &t.render(),
    )?;
    emit(
        "fig11",
        &format!("Fig. 11 (b) — exact partial evaluation + assembly on {name}"),
        &partial_table(&bundle, None).render(),
    )?;
    Ok(())
}
