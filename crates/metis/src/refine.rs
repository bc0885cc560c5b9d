//! Fiduccia–Mattheyses (FM) bisection refinement.
//!
//! Each pass tentatively moves boundary vertices one at a time — always the
//! highest-gain admissible move, locking each moved vertex — and finally
//! rolls back to the best prefix seen. Passes repeat until a pass yields no
//! improvement. This is the classical refinement METIS applies at every
//! uncoarsening level, and a pass costs time linear in the adjacency:
//!
//! * **One seeding scan.** A pass opens with one scan of every adjacency
//!   list that yields each vertex's gain (external minus internal edge
//!   weight) and whether it has a neighbour on the other side.
//! * **Incremental gains.** When `u` moves, every unlocked neighbour `v`
//!   joined by an edge of weight `w` changes gain by exactly `±2w`: `−2w`
//!   if `v` now shares `u`'s side, `+2w` otherwise. A move therefore costs
//!   `u`'s degree, never its neighbours' degrees — which matters on MPC's
//!   nearly dense supervertex graphs, where a hub neighbours most vertices.
//! * **Indexed gain queue.** Candidates live in an indexed binary max-heap
//!   keyed by `(gain, vertex)` that holds each vertex at most once and
//!   re-keys it in place, so it never exceeds `n` entries. It pops the same
//!   sequence a lazy heap of pushed `(gain, vertex)` pairs would pop once
//!   stale pairs are skipped: ties break on the vertex id in both, a
//!   neighbour update re-keys (or re-inserts) the neighbour exactly where
//!   the lazy heap pushes a fresh pair, and a vertex skipped for balance
//!   leaves the queue until a neighbour next moves.

use crate::bisect::{side_cut, side_weights};
use crate::wgraph::WeightedGraph;
use mpc_obs::Recorder;
use mpc_rdf::narrow;

/// Refines a bisection in place.
///
/// * `max_side` — maximum admissible weight per side (balance constraint).
///   Moves that would push the destination side above its cap are skipped,
///   unless the source side itself is above cap (rebalancing moves are then
///   always admissible).
/// * `max_passes` — upper bound on FM passes (2–3 suffices in practice).
///
/// Returns the final cut weight.
pub fn fm_refine(g: &WeightedGraph, side: &mut [u8], max_side: [u64; 2], max_passes: usize) -> u64 {
    fm_refine_traced(g, side, max_side, max_passes, &Recorder::disabled())
}

/// [`fm_refine`], recording pass counts, move/rollback totals, and the
/// accumulated cut gain under `metis.fm.*` (see docs/OBSERVABILITY.md).
pub fn fm_refine_traced(
    g: &WeightedGraph,
    side: &mut [u8],
    max_side: [u64; 2],
    max_passes: usize,
    rec: &Recorder,
) -> u64 {
    let n = g.vertex_count();
    let mut weights = side_weights(g, side);
    let mut cut = side_cut(g, side);
    let mut gain: Vec<i64> = vec![0; n];
    let mut locked = vec![false; n];
    let mut queue = GainQueue::new(n);
    let mut seeds: Vec<(i64, u32)> = Vec::new();
    let mut moves: Vec<u32> = Vec::new();

    for _ in 0..max_passes {
        // Seed with boundary vertices only (interior moves only become
        // attractive after neighbors move and are queued below) — unless a
        // side is overweight, in which case there may be no boundary at all
        // and every vertex must be a move candidate.
        let must_rebalance = weights[0] > max_side[0] || weights[1] > max_side[1];
        seeds.clear();
        for u in 0..narrow::u32_from(n) {
            let (gu, boundary) = gain_and_boundary(g, side, u);
            gain[u as usize] = gu;
            if must_rebalance || boundary {
                seeds.push((gu, u));
            }
        }
        queue.fill(&seeds);
        locked.fill(false);
        moves.clear();
        // Best prefix = lexicographically best (is_balanced, cut_delta):
        // a prefix that restores balance always beats one that does not,
        // otherwise the largest cut improvement wins.
        let balanced = |w: &[u64; 2]| w[0] <= max_side[0] && w[1] <= max_side[1];
        let mut best_prefix = 0usize;
        let mut best_key = (balanced(&weights), 0i64);
        let mut delta = 0i64;

        // Every queued vertex is unlocked and keyed by its current gain.
        while let Some(u) = queue.pop() {
            let ui = u as usize;
            let from = side[ui] as usize;
            let to = 1 - from;
            let vw = g.vwgt[ui];
            let source_overweight = weights[from] > max_side[from];
            if weights[to] + vw > max_side[to] && !source_overweight {
                continue; // would break balance
            }
            // Commit the tentative move.
            side[ui] = 1 - side[ui];
            weights[from] -= vw;
            weights[to] += vw;
            locked[ui] = true;
            delta += gain[ui];
            moves.push(u);
            let key = (balanced(&weights), delta);
            if key > best_key {
                best_key = key;
                best_prefix = moves.len();
            }
            for (v, w) in g.neighbors(u) {
                let vi = v as usize;
                if !locked[vi] {
                    let d = 2 * i64::from(w);
                    gain[vi] += if side[vi] == side[ui] { -d } else { d };
                    queue.upsert(v, gain[vi]);
                }
            }
        }

        // Roll back everything after the best prefix.
        for &u in &moves[best_prefix..] {
            let ui = u as usize;
            let cur = side[ui] as usize;
            side[ui] = 1 - side[ui];
            weights[cur] -= g.vwgt[ui];
            weights[1 - cur] += g.vwgt[ui];
        }
        cut = u64::try_from(cut as i64 - best_key.1).unwrap_or(0);
        rec.incr("metis.fm.passes");
        rec.add("metis.fm.moves_committed", best_prefix as u64);
        rec.add(
            "metis.fm.moves_rolled_back",
            (moves.len() - best_prefix) as u64,
        );
        if best_key.1 > 0 {
            rec.add("metis.fm.cut_gain", u64::try_from(best_key.1).unwrap_or(0));
        }
        if best_prefix == 0 {
            break; // pass made no progress
        }
        if best_key.1 <= 0 && !must_rebalance {
            break; // no cut improvement and balance was already fine
        }
    }
    debug_assert_eq!(cut, side_cut(g, side));
    cut
}

/// Gain of moving `u` to the other side (external minus internal edge
/// weight), and whether `u` has a neighbour on the other side. The boundary
/// test counts neighbours, not weight, so a zero-weight edge across the cut
/// still makes both ends boundary vertices.
#[inline]
fn gain_and_boundary(g: &WeightedGraph, side: &[u8], u: u32) -> (i64, bool) {
    let mut gain = 0i64;
    let mut external = 0usize;
    let su = side[u as usize];
    for (v, w) in g.neighbors(u) {
        if side[v as usize] == su {
            gain -= i64::from(w);
        } else {
            gain += i64::from(w);
            external += 1;
        }
    }
    (gain, external > 0)
}

/// An indexed binary max-heap of vertices keyed by `(gain, vertex)`.
///
/// Each vertex is queued at most once; `pos` maps a vertex to its heap
/// slot (or [`GainQueue::ABSENT`]), so a gain change re-keys the vertex in
/// place instead of pushing a second entry.
struct GainQueue {
    heap: Vec<(i64, u32)>,
    pos: Vec<u32>,
}

impl GainQueue {
    const ABSENT: u32 = u32::MAX;

    fn new(n: usize) -> Self {
        GainQueue {
            heap: Vec::with_capacity(n),
            pos: vec![Self::ABSENT; n],
        }
    }

    /// Replaces the contents of an empty queue with `entries` (distinct
    /// vertices) in linear time.
    fn fill(&mut self, entries: &[(i64, u32)]) {
        debug_assert!(self.heap.is_empty());
        self.heap.extend_from_slice(entries);
        for (i, &(_, v)) in self.heap.iter().enumerate() {
            self.pos[v as usize] = narrow::u32_from(i);
        }
        for i in (0..self.heap.len() / 2).rev() {
            self.sift_down(i);
        }
    }

    /// Removes and returns the vertex with the greatest `(gain, vertex)`.
    fn pop(&mut self) -> Option<u32> {
        let last = self.heap.pop()?;
        let top = match self.heap.first_mut() {
            Some(slot) => std::mem::replace(slot, last),
            None => last,
        };
        self.pos[top.1 as usize] = Self::ABSENT;
        if !self.heap.is_empty() {
            self.pos[last.1 as usize] = 0;
            self.sift_down(0);
        }
        Some(top.1)
    }

    /// Queues `v` under `gain`, or re-keys it if it is already queued.
    fn upsert(&mut self, v: u32, gain: i64) {
        let p = self.pos[v as usize];
        if p == Self::ABSENT {
            self.heap.push((gain, v));
            let i = self.heap.len() - 1;
            self.pos[v as usize] = narrow::u32_from(i);
            self.sift_up(i);
        } else {
            let i = p as usize;
            let old = self.heap[i].0;
            self.heap[i].0 = gain;
            if gain > old {
                self.sift_up(i);
            } else {
                self.sift_down(i);
            }
        }
    }

    fn sift_up(&mut self, mut i: usize) {
        let item = self.heap[i];
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.heap[parent] >= item {
                break;
            }
            self.place(i, self.heap[parent]);
            i = parent;
        }
        self.place(i, item);
    }

    fn sift_down(&mut self, mut i: usize) {
        let item = self.heap[i];
        let len = self.heap.len();
        loop {
            let left = 2 * i + 1;
            if left >= len {
                break;
            }
            let right = left + 1;
            let child = if right < len && self.heap[right] > self.heap[left] {
                right
            } else {
                left
            };
            if self.heap[child] <= item {
                break;
            }
            self.place(i, self.heap[child]);
            i = child;
        }
        self.place(i, item);
    }

    #[inline]
    fn place(&mut self, i: usize, item: (i64, u32)) {
        self.heap[i] = item;
        self.pos[item.1 as usize] = narrow::u32_from(i);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BinaryHeap;

    /// The full-recompute FM this module replaced, kept as the reference
    /// the linear-time passes must match move for move: after each move it
    /// rescans every unlocked neighbour's adjacency and pushes a fresh
    /// `(gain, vertex)` pair onto a lazy heap, skipping stale pairs on pop.
    fn reference_fm_refine(
        g: &WeightedGraph,
        side: &mut [u8],
        max_side: [u64; 2],
        max_passes: usize,
    ) -> u64 {
        let n = g.vertex_count();
        let mut weights = side_weights(g, side);
        let mut cut = side_cut(g, side);
        for _ in 0..max_passes {
            let mut gain: Vec<i64> = vec![0; n];
            let mut heap: BinaryHeap<(i64, u32)> = BinaryHeap::new();
            let must_rebalance = weights[0] > max_side[0] || weights[1] > max_side[1];
            for u in 0..narrow::u32_from(n) {
                gain[u as usize] = move_gain(g, side, u);
                if must_rebalance || is_boundary(g, side, u) {
                    heap.push((gain[u as usize], u));
                }
            }
            let mut locked = vec![false; n];
            let mut moves: Vec<u32> = Vec::new();
            let balanced = |w: &[u64; 2]| w[0] <= max_side[0] && w[1] <= max_side[1];
            let mut best_prefix = 0usize;
            let mut best_key = (balanced(&weights), 0i64);
            let mut delta = 0i64;
            while let Some((gcand, u)) = heap.pop() {
                let ui = u as usize;
                if locked[ui] || gcand != gain[ui] {
                    continue;
                }
                let from = side[ui] as usize;
                let to = 1 - from;
                let vw = g.vwgt[ui];
                let source_overweight = weights[from] > max_side[from];
                if weights[to] + vw > max_side[to] && !source_overweight {
                    continue;
                }
                side[ui] = 1 - side[ui];
                weights[from] -= vw;
                weights[to] += vw;
                locked[ui] = true;
                delta += gain[ui];
                moves.push(u);
                let key = (balanced(&weights), delta);
                if key > best_key {
                    best_key = key;
                    best_prefix = moves.len();
                }
                for (v, _) in g.neighbors(u) {
                    if !locked[v as usize] {
                        gain[v as usize] = move_gain(g, side, v);
                        heap.push((gain[v as usize], v));
                    }
                }
            }
            for &u in &moves[best_prefix..] {
                let ui = u as usize;
                let cur = side[ui] as usize;
                side[ui] = 1 - side[ui];
                weights[cur] -= g.vwgt[ui];
                weights[1 - cur] += g.vwgt[ui];
            }
            cut = u64::try_from(cut as i64 - best_key.1).unwrap_or(0);
            if best_prefix == 0 || (best_key.1 <= 0 && !must_rebalance) {
                break;
            }
        }
        cut
    }

    fn move_gain(g: &WeightedGraph, side: &[u8], u: u32) -> i64 {
        let su = side[u as usize];
        g.neighbors(u)
            .map(|(v, w)| {
                if side[v as usize] == su {
                    -i64::from(w)
                } else {
                    i64::from(w)
                }
            })
            .sum()
    }

    fn is_boundary(g: &WeightedGraph, side: &[u8], u: u32) -> bool {
        let su = side[u as usize];
        g.neighbors(u).any(|(v, _)| side[v as usize] != su)
    }

    fn two_cliques() -> WeightedGraph {
        let mut edges = Vec::new();
        for a in 0..4u32 {
            for b in (a + 1)..4 {
                edges.push((a, b, 10));
                edges.push((a + 4, b + 4, 10));
            }
        }
        edges.push((0, 4, 1));
        WeightedGraph::from_edge_list(8, &edges, vec![1; 8])
    }

    #[test]
    fn repairs_a_bad_bisection() {
        let g = two_cliques();
        // Deliberately wrong: one vertex of each clique swapped.
        let mut side = vec![0, 0, 0, 1, 1, 1, 1, 0];
        let before = side_cut(&g, &side);
        let after = fm_refine(&g, &mut side, [5, 5], 4);
        assert!(after < before);
        assert_eq!(after, 1); // optimal: only the bridge is cut
        assert_eq!(side_weights(&g, &side), [4, 4]);
    }

    #[test]
    fn traced_refinement_records_work() {
        let g = two_cliques();
        let mut side = vec![0, 0, 0, 1, 1, 1, 1, 0];
        let rec = Recorder::enabled();
        let after = fm_refine_traced(&g, &mut side, [5, 5], 4, &rec);
        assert_eq!(after, 1, "tracing must not change the refinement");
        assert!(rec.counter("metis.fm.passes").unwrap() >= 1);
        // The two swapped vertices must both move home.
        assert!(rec.counter("metis.fm.moves_committed").unwrap() >= 2);
        let gain = rec.counter("metis.fm.cut_gain").unwrap();
        let before = side_cut(&g, &[0, 0, 0, 1, 1, 1, 1, 0]);
        assert_eq!(gain, before - after, "gain accounts for the cut delta");
    }

    #[test]
    fn respects_balance_cap() {
        let g = two_cliques();
        let mut side = vec![0, 0, 0, 0, 1, 1, 1, 1];
        // Caps forbid any growth: nothing may move.
        let cut = fm_refine(&g, &mut side, [4, 4], 3);
        assert_eq!(cut, 1);
        assert_eq!(side_weights(&g, &side), [4, 4]);
    }

    #[test]
    fn rebalances_overweight_side() {
        let g = two_cliques();
        // Everything on side 0: grossly overweight.
        let mut side = vec![0u8; 8];
        fm_refine(&g, &mut side, [5, 5], 6);
        let w = side_weights(&g, &side);
        assert!(w[0] <= 5, "side 0 still overweight: {w:?}");
    }

    #[test]
    fn stable_on_optimal_input() {
        let g = two_cliques();
        let mut side = vec![0, 0, 0, 0, 1, 1, 1, 1];
        let cut = fm_refine(&g, &mut side, [5, 5], 3);
        assert_eq!(cut, 1);
        assert_eq!(side, vec![0, 0, 0, 0, 1, 1, 1, 1]);
    }

    #[test]
    fn empty_graph_is_fine() {
        let g = WeightedGraph::from_edge_list(0, &[], vec![]);
        let mut side: Vec<u8> = vec![];
        assert_eq!(fm_refine(&g, &mut side, [0, 0], 2), 0);
    }

    /// A random refinement input: graph, starting sides, caps, passes.
    type Case = (WeightedGraph, Vec<u8>, [u64; 2], usize);

    /// Random weighted graphs with zero-weight edges, parallel edges
    /// (merged by `from_edge_list`, or kept as repeated arcs), an optional
    /// heavy hub adjacent to every vertex, and caps that range from loose
    /// to an overweight start that forces the rebalance path.
    fn case_strategy() -> impl Strategy<Value = Case> {
        (2usize..48).prop_flat_map(|n| {
            let nv = narrow::u32_from(n);
            (
                proptest::collection::vec((0..nv, 0..nv, 0u32..6), 0..n * 4),
                proptest::collection::vec(1u64..4, n),
                proptest::collection::vec(0u8..2, n),
                (0u32..4, any::<bool>(), 0usize..4, 1usize..6),
            )
                .prop_map(
                    move |(mut edges, vwgt, mut side, (hub, repeat_arcs, regime, passes))| {
                        if hub > 0 {
                            edges.extend((1..nv).map(|v| (0, v, 25 * hub)));
                        }
                        let g = if repeat_arcs {
                            let mut adj: Vec<Vec<(u32, u32)>> = vec![Vec::new(); n];
                            for &(u, v, w) in &edges {
                                if u != v {
                                    adj[u as usize].push((v, w));
                                    adj[v as usize].push((u, w));
                                }
                            }
                            WeightedGraph::from_adjacency(adj, vwgt)
                        } else {
                            WeightedGraph::from_edge_list(n, &edges, vwgt)
                        };
                        let total = g.total_weight();
                        let half = total.div_ceil(2);
                        let max_side = match regime {
                            0 => [total, total],
                            1 => [half + half / 10, half + half / 10],
                            2 => {
                                side.fill(0); // everything starts on side 0
                                [half + 1, half + 1]
                            }
                            _ => [half, half],
                        };
                        (g, side, max_side, passes)
                    },
                )
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Incremental gains and the indexed queue make exactly the moves
        /// the full-recompute reference makes: same sides, same cut.
        #[test]
        fn matches_full_recompute_reference(case in case_strategy()) {
            let (g, start, max_side, passes) = case;
            let mut expected = start.clone();
            let expected_cut = reference_fm_refine(&g, &mut expected, max_side, passes);
            let mut side = start;
            let cut = fm_refine(&g, &mut side, max_side, passes);
            prop_assert_eq!(&side, &expected);
            prop_assert_eq!(cut, expected_cut);
            prop_assert_eq!(cut, side_cut(&g, &side));
        }
    }
}
