//! A site: one machine of the simulated cluster, holding one partition
//! fragment in an indexed local store.

use crate::fault::{FaultKind, SiteError};
use crate::wire;
use mpc_core::Fragment;
use mpc_rdf::{FxHashSet, PartitionId, VertexId};
use mpc_sparql::{evaluate_with, Bindings, LocalStore, MatchObserver, Query, ResolvedFilter};
use std::time::{Duration, Instant};

/// One cluster site hosting a partition fragment.
#[derive(Clone, Debug)]
pub struct Site {
    /// The partition this site hosts.
    pub part: PartitionId,
    /// Indexed store over `E_i ∪ E_i^c`.
    pub store: LocalStore,
    /// The replicated foreign endpoints `V_i^e`.
    pub extended: FxHashSet<VertexId>,
}

/// A successful site response: the evaluated tables, plus the
/// (simulated) evaluation time and payload size.
#[derive(Clone, Debug, PartialEq)]
pub struct SiteResponse {
    /// One binding table per requested query.
    pub tables: Vec<Bindings>,
    /// Local evaluation time; scaled by the plan's `slow_factor` when a
    /// straggler fault was injected.
    pub eval_time: Duration,
    /// Total wire bytes of the shipped tables.
    pub bytes: u64,
}

/// What the coordinator asks a site to evaluate for one BGP leaf: the
/// whole leaf, or every subquery of its decomposition, and how.
pub(crate) struct SiteRequest<'a> {
    /// One table comes back per query, in this order.
    pub queries: &'a [&'a Query],
    /// A static pattern order per query (docs/QUERY.md); empty runs the
    /// matcher's dynamic order.
    pub orders: &'a [Vec<usize>],
    /// Id-only filters every row must pass before it ships — the
    /// partition-local FILTER pushdown. Rejected rows cost no wire bytes.
    pub filters: &'a [ResolvedFilter],
    /// A bind-join seed: the variable and its sorted distinct keys, which
    /// every search starts from (needs `orders`).
    pub seed: Option<(u32, &'a [u32])>,
}

impl Site {
    /// Loads a fragment into an indexed store, returning the site and the
    /// measured load (index build) time — the "loading" column of Table VI.
    pub fn load(fragment: Fragment) -> (Self, Duration) {
        let t0 = Instant::now();
        let store = LocalStore::new(fragment.triples);
        let elapsed = t0.elapsed();
        (
            Site {
                part: fragment.part,
                store,
                extended: fragment.extended_vertices,
            },
            elapsed,
        )
    }

    /// Number of stored (distinct) triples.
    pub fn triple_count(&self) -> usize {
        self.store.len()
    }

    /// Serves one coordinator request under the matcher's dynamic order,
    /// honoring an injected fault. This is the coordinator's site step
    /// with no plan, no pushed filters, no seed, and no observer: healthy
    /// tables move to the caller, charged their [`wire::encoded_len`],
    /// and only an injected `Corrupt` runs the codec, whose length check
    /// must reject the truncated payload as [`SiteError::CorruptPayload`].
    pub fn respond(
        &self,
        queries: &[&Query],
        host: u16,
        fault: Option<FaultKind>,
        slow_factor: f64,
        deadline: Duration,
    ) -> Result<SiteResponse, SiteError> {
        let req = SiteRequest {
            queries,
            orders: &[],
            filters: &[],
            seed: None,
        };
        self.serve(&req, host, fault, slow_factor, deadline, &mut ())
    }

    /// The one site step every coordinator request takes: evaluate
    /// `req`, reporting search events to `obs`, and honor an injected
    /// fault. Healthy tables move to the coordinator and are charged
    /// their [`wire::encoded_len`]. Faults map to the [`SiteError`]
    /// taxonomy:
    ///
    /// * `Crash` / `Overload` → refused before evaluation,
    /// * `Stall` → [`SiteError::Timeout`] after `deadline` (the
    ///   coordinator charges the wait to its simulated clock),
    /// * `Corrupt` → the site evaluates and encodes the last table, the
    ///   payload loses its last byte in flight, and
    ///   [`wire::decode_bindings`]' length check rejects it — corruption
    ///   is *detected*, never consumed,
    /// * `Slow` → correct answer, `slow_factor`× the evaluation time.
    pub(crate) fn serve(
        &self,
        req: &SiteRequest<'_>,
        host: u16,
        fault: Option<FaultKind>,
        slow_factor: f64,
        deadline: Duration,
        obs: &mut impl MatchObserver,
    ) -> Result<SiteResponse, SiteError> {
        match fault {
            Some(FaultKind::Crash) => return Err(SiteError::Crashed { host }),
            Some(FaultKind::Overload) => return Err(SiteError::Overloaded { host }),
            Some(FaultKind::Stall) => return Err(SiteError::Timeout { host, deadline }),
            Some(FaultKind::Corrupt) | Some(FaultKind::Slow) | None => {}
        }
        let t0 = Instant::now();
        let tables: Vec<Bindings> = req
            .queries
            .iter()
            .enumerate()
            .map(|(i, query)| self.evaluate(req, query, req.orders.get(i), obs))
            .collect();
        let mut eval_time = t0.elapsed();
        if fault == Some(FaultKind::Slow) && slow_factor > 1.0 {
            eval_time = eval_time.mul_f64(slow_factor);
        }
        if fault == Some(FaultKind::Corrupt) {
            if let Some(last) = tables.last() {
                // Damaged in flight: drop the trailing byte. The decoder's
                // length check catches this for every table shape (see
                // wire::tests::one_byte_truncation_is_always_detected).
                let corrupt = SiteError::CorruptPayload { host };
                let payload = wire::encode_bindings(last).map_err(|_| corrupt)?;
                wire::decode_bindings(payload.slice(0..payload.len().saturating_sub(1)))
                    .map_err(|_| corrupt)?;
            }
        }
        let bytes = tables
            .iter()
            .map(|t| wire::encoded_len(t.len(), t.vars.len()))
            .sum();
        Ok(SiteResponse {
            tables,
            eval_time,
            bytes,
        })
    }

    /// Evaluates one query of `req` under `order` (the dynamic order when
    /// `None`), then applies the pushed filters.
    fn evaluate(
        &self,
        req: &SiteRequest<'_>,
        query: &Query,
        order: Option<&Vec<usize>>,
        obs: &mut impl MatchObserver,
    ) -> Bindings {
        let mut table = evaluate_with(query, &self.store, order.map(Vec::as_slice), req.seed, obs);
        if !req.filters.is_empty() {
            let Bindings { vars, rows } = &mut table;
            rows.retain(|row| req.filters.iter().all(|f| f.accepts_ids(row, vars)));
        }
        table
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpc_core::{Partitioner, SubjectHashPartitioner};
    use mpc_rdf::{PropertyId, RdfGraph, Triple};
    use mpc_sparql::{evaluate, QLabel, QNode, TriplePattern};

    fn t(s: u32, p: u32, o: u32) -> Triple {
        Triple::new(VertexId(s), PropertyId(p), VertexId(o))
    }

    fn graph() -> RdfGraph {
        RdfGraph::from_raw(
            6,
            2,
            vec![t(0, 0, 1), t(1, 0, 2), t(3, 1, 4), t(2, 1, 3)],
        )
    }

    fn one_site() -> Site {
        let g = graph();
        let part = SubjectHashPartitioner::new(1).partition(&g);
        Site::load(part.fragments(&g).remove(0)).0
    }

    fn query() -> Query {
        Query::new(
            vec![TriplePattern::new(
                QNode::Var(0),
                QLabel::Prop(PropertyId(0)),
                QNode::Var(1),
            )],
            vec!["a".into(), "b".into()],
        )
    }

    #[test]
    fn loads_fragments() {
        let g = graph();
        let part = SubjectHashPartitioner::new(2).partition(&g);
        let frags = part.fragments(&g);
        let total_internal: usize = frags
            .iter()
            .map(|f| {
                let (site, dur) = Site::load(f.clone());
                assert!(dur >= Duration::ZERO);
                assert_eq!(site.part, f.part);
                site.triple_count()
            })
            .sum();
        assert_eq!(total_internal, g.triple_count() + part.crossing_edge_count());
    }

    /// The subject directory over a LUBM site fragment (global ids,
    /// k = 8) stays within a tenth of the bytes of the store's three runs.
    #[test]
    fn subject_directory_is_small_against_the_runs() {
        use mpc_core::{MpcConfig, MpcPartitioner};
        use mpc_datagen::lubm::{self, LubmConfig};
        let d = lubm::generate(&LubmConfig {
            universities: 32,
            ..Default::default()
        });
        let part = MpcPartitioner::new(MpcConfig::with_k(8)).partition(&d.graph);
        for frag in part.fragments(&d.graph) {
            let mut triples = frag.triples;
            triples.sort_unstable();
            triples.dedup();
            triples.shrink_to_fit();
            let store = LocalStore::new(triples);
            // Exact-capacity runs: the rest of the heap is the directory.
            let runs = 3 * store.len() * std::mem::size_of::<Triple>();
            let directory = store.heap_bytes() - runs;
            assert!(directory > 0, "site {:?} built no directory", frag.part);
            assert!(
                directory * 10 <= runs,
                "site {:?}: directory {directory} B against runs {runs} B",
                frag.part
            );
        }
    }

    #[test]
    fn respond_ships_tables_charged_at_wire_size() {
        let site = one_site();
        let q = query();
        let resp = site
            .respond(&[&q], 0, None, 1.0, Duration::from_millis(100))
            .unwrap();
        assert_eq!(resp.tables.len(), 1);
        assert_eq!(resp.tables[0], evaluate(&q, &site.store));
        assert_eq!(
            resp.bytes,
            wire::encoded_len(resp.tables[0].len(), resp.tables[0].vars.len())
        );
    }

    #[test]
    fn seeded_step_ships_the_keyed_subsequence() {
        let site = one_site();
        // ?a p0 ?b over 0→1→2: rows (0,1) and (1,2).
        let q = query();
        let full = evaluate(&q, &site.store);
        let orders = [vec![0]];
        let seeded = SiteRequest {
            queries: &[&q],
            orders: &orders,
            filters: &[],
            seed: Some((0, &[1, 7])),
        };
        let resp = site
            .serve(&seeded, 0, None, 1.0, Duration::ZERO, &mut ())
            .unwrap();
        let keyed: Vec<Vec<u32>> = full.rows.iter().filter(|r| r[0] == 1).cloned().collect();
        assert_eq!(resp.tables[0].rows, keyed);
        assert_eq!(resp.bytes, wire::encoded_len(keyed.len(), 2));
        // A corrupt payload is rejected however small the table is.
        let corrupt = Some(FaultKind::Corrupt);
        assert_eq!(
            site.serve(&seeded, 2, corrupt, 1.0, Duration::ZERO, &mut ()),
            Err(SiteError::CorruptPayload { host: 2 })
        );
    }

    #[test]
    fn respond_maps_faults_to_the_error_taxonomy() {
        let site = one_site();
        let q = query();
        let deadline = Duration::from_millis(250);
        let call = |fault| site.respond(&[&q], 3, Some(fault), 2.0, deadline);
        assert_eq!(call(FaultKind::Crash), Err(SiteError::Crashed { host: 3 }));
        assert_eq!(call(FaultKind::Overload), Err(SiteError::Overloaded { host: 3 }));
        assert_eq!(
            call(FaultKind::Stall),
            Err(SiteError::Timeout { host: 3, deadline })
        );
        assert_eq!(
            call(FaultKind::Corrupt),
            Err(SiteError::CorruptPayload { host: 3 }),
            "a truncated payload must be detected, not consumed"
        );
    }

    #[test]
    fn slow_fault_still_answers_correctly() {
        let site = one_site();
        let q = query();
        let resp = site
            .respond(&[&q], 0, Some(FaultKind::Slow), 8.0, Duration::from_millis(100))
            .unwrap();
        assert_eq!(resp.tables[0], evaluate(&q, &site.store));
    }
}
