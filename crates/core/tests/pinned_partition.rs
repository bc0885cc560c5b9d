//! Pins one real MPC partition: k = 8 on a generated WatDiv graph whose
//! coarse graph is large enough to run multilevel FM refinement at every
//! level. Refinement, coarsening and selection changes that are meant to
//! be behaviour-preserving must leave the part vector bit-identical; a
//! change that moves it has to update the digest here and say why.

use mpc_core::{MpcConfig, MpcPartitioner};
use mpc_datagen::watdiv::{self, WatdivConfig};
use mpc_obs::Recorder;

/// FNV-1a (64-bit) over each part id as two little-endian bytes.
fn fnv1a(parts: &[u16]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in parts.iter().flat_map(|p| p.to_le_bytes()) {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[test]
fn watdiv_k8_partition_is_pinned() {
    let g = watdiv::generate(&WatdivConfig {
        scale: 1_000,
        seed: 1,
    })
    .graph;
    let rec = Recorder::enabled();
    let (p, report) = MpcPartitioner::new(MpcConfig::with_k(8)).partition_traced(&g, &rec);
    let parts: Vec<u16> = p.assignment().iter().map(|a| a.0).collect();
    // The refinement under test really runs: many levels, many moves.
    assert!(rec.counter("metis.fm.moves_committed").unwrap() > 100);
    assert_eq!(report.coarse_vertices, 1_278);
    assert_eq!(p.crossing_property_count(), 31);
    assert_eq!(p.crossing_edge_count(), 14_456);
    assert_eq!(fnv1a(&parts), 0x50ff_81e6_4b15_e8ec, "part vector moved");
}
