//! Table VI: offline cost — partitioning time plus per-site loading
//! (index build) time, for all four methods on every dataset.

use crate::datasets::all_bundles;
use crate::harness::{partition_vp, partition_with, Method};
use crate::report::{emit, secs, Table};
use mpc_cluster::{DistributedEngine, NetworkModel, VpEngine};
use std::io;

/// Regenerates Table VI.
pub fn run(scale: f64) -> io::Result<()> {
    let mut t = Table::new(&[
        "Dataset",
        "Method",
        "Partitioning(s)",
        "Loading(s)",
        "Total(s)",
    ]);
    for bundle in all_bundles(scale) {
        for method in Method::ALL {
            let p = partition_with(method, &bundle.graph);
            let engine =
                DistributedEngine::build(&bundle.graph, &p.partitioning, NetworkModel::default());
            let load = engine.load_time();
            t.row(vec![
                bundle.name.to_owned(),
                method.name().to_owned(),
                secs(p.partition_time),
                secs(load),
                secs(p.partition_time + load),
            ]);
        }
        let (ep, vp_time) = partition_vp(&bundle.graph);
        let vp = VpEngine::build(&bundle.graph, &ep, NetworkModel::default());
        t.row(vec![
            bundle.name.to_owned(),
            "VP".to_owned(),
            secs(vp_time),
            secs(vp.load_time()),
            secs(vp_time + vp.load_time()),
        ]);
    }
    emit(
        "table6",
        "Table VI — offline partitioning and loading time (k=8)",
        &t.render(),
    )?;
    Ok(())
}
