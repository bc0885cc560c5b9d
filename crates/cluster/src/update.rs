//! The transactional mutation API (docs/UPDATES.md): an [`UpdateBatch`]
//! of triple inserts and deletes applied through one
//! [`DistributedEngine::commit`] entry point.
//!
//! A commit is all-or-nothing at the *validation* boundary: the whole
//! batch is resolved and checked against the engine's live state first
//! (dense vertex ids, dictionary coverage), and only a batch that can
//! apply in full mutates anything. Application then follows SPARQL
//! Update semantics — every `DELETE DATA` clause against the
//! pre-commit store, then every `INSERT DATA` clause in order — and
//! routes each touched triple to its fragment sites:
//!
//! * deletes tombstone the triple in the owning site's novelty overlay
//!   ([`mpc_sparql::LocalStore::delete`]) and, for crossing edges, in
//!   the replicating site too, pruning stranded extended vertices;
//! * inserts place any new vertex via
//!   [`mpc_core::IncrementalPartitioning`] (so crossing-property flags
//!   stay exactly what a from-scratch recount would derive), stage the
//!   triple in the owning site's overlay, and replicate crossing edges
//!   on both endpoint sites with the foreign endpoint recorded in
//!   [`crate::site::Site::extended`].
//!
//! Afterwards the engine's crossing set, plan cache, and planner
//! statistics are rebuilt, so the next query plans against the
//! post-commit world. The serving layer
//! ([`crate::serve::ServeEngine::commit`]) wraps this with the epoch
//! bump that makes every stale cached result unaddressable.

use crate::coordinator::DistributedEngine;
use crate::ieq::CrossingSet;
use crate::site::Site;
use mpc_core::{IncrementalPartitioning, Partitioning};
use mpc_obs::Recorder;
use mpc_rdf::{narrow, Dictionary, FxHashSet, PropertyId, RdfGraph, Term, Triple, VertexId};
use mpc_sparql::{Pattern, StoreStats, UpdateData};
use std::fmt;

/// One staged mutation: a triple by dense ids (the programmatic form)
/// or by terms (the SPARQL `INSERT DATA` / `DELETE DATA` form, resolved
/// against — and growing — the engine's live dictionary at commit).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum UpdateOp {
    /// A triple in id space. Inserts may extend the vertex space only
    /// densely (next unused id first) and only on engines without a
    /// dictionary — on dictionary-backed engines a new vertex must
    /// arrive with its term.
    Ids(Triple),
    /// A ground triple in term space: subject term, property IRI,
    /// object term. Requires a dictionary-backed engine; unknown terms
    /// in inserts are interned, unknown terms in deletes make the
    /// delete a no-op (the triple cannot exist).
    Terms {
        /// Subject term.
        s: Term,
        /// Predicate IRI.
        p: String,
        /// Object term.
        o: Term,
    },
}

/// A transactional batch of mutations: all deletes apply first (against
/// the pre-commit store), then all inserts, in order — SPARQL Update's
/// clause semantics. Build one programmatically or with
/// [`UpdateBatch::from_update_data`] from parsed SPARQL.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct UpdateBatch {
    /// Triples to remove (applied first).
    pub deletes: Vec<UpdateOp>,
    /// Triples to add (applied after all deletes).
    pub inserts: Vec<UpdateOp>,
}

impl UpdateBatch {
    /// An empty batch (committing it is a no-op that still bumps the
    /// serving epoch).
    pub fn new() -> Self {
        Self::default()
    }

    /// Stages an id-form insert.
    pub fn insert(&mut self, t: Triple) -> &mut Self {
        self.inserts.push(UpdateOp::Ids(t));
        self
    }

    /// Stages an id-form delete.
    pub fn delete(&mut self, t: Triple) -> &mut Self {
        self.deletes.push(UpdateOp::Ids(t));
        self
    }

    /// Stages a term-form insert.
    pub fn insert_terms(&mut self, s: Term, p: impl Into<String>, o: Term) -> &mut Self {
        self.inserts.push(UpdateOp::Terms { s, p: p.into(), o });
        self
    }

    /// Stages a term-form delete.
    pub fn delete_terms(&mut self, s: Term, p: impl Into<String>, o: Term) -> &mut Self {
        self.deletes.push(UpdateOp::Terms { s, p: p.into(), o });
        self
    }

    /// Converts parsed SPARQL Update data ([`mpc_sparql::parse_update`])
    /// into a batch of term-form operations.
    pub fn from_update_data(data: &UpdateData) -> Self {
        let op = |(s, p, o): &(Term, String, Term)| UpdateOp::Terms {
            s: s.clone(),
            p: p.clone(),
            o: o.clone(),
        };
        UpdateBatch {
            deletes: data.deletes.iter().map(op).collect(),
            inserts: data.inserts.iter().map(op).collect(),
        }
    }

    /// Total staged operations.
    pub fn len(&self) -> usize {
        self.deletes.len() + self.inserts.len()
    }

    /// True when nothing is staged.
    pub fn is_empty(&self) -> bool {
        self.deletes.is_empty() && self.inserts.is_empty()
    }
}

/// Why a commit was refused. Validation errors are raised before any
/// mutation, so a failed commit leaves the engine exactly as it was —
/// never silently half-applied.
#[derive(Debug)]
#[non_exhaustive]
pub enum CommitError {
    /// [`DistributedEngine::enable_updates`] was never called on this
    /// engine.
    UpdatesDisabled,
    /// Live updates require the paper's radius-1 fragments: incremental
    /// routing maintains the 1-hop crossing-edge replication invariant
    /// and cannot maintain a k-hop guarantee.
    RadiusUnsupported {
        /// The engine's replication radius.
        radius: usize,
    },
    /// An id-form insert referenced a vertex id beyond the next unused
    /// one — vertex ids must stay dense.
    SparseVertexId {
        /// The offending id.
        got: u32,
        /// The only admissible fresh id at that point in the batch.
        expected: u32,
    },
    /// An id-form insert introduced a fresh vertex on a
    /// dictionary-backed engine; new vertices must arrive as terms so
    /// the dictionary stays total.
    NewVertexWithoutTerm {
        /// The fresh id the insert tried to mint.
        id: u32,
    },
    /// A term-form operation reached an engine whose graph has no
    /// dictionary (raw id-space graphs).
    NoDictionary,
    /// Writing the post-commit snapshot generation failed
    /// ([`crate::serve::CommitOptions::snapshot_dir`]). The in-memory
    /// commit has already applied; the error reports that durability —
    /// not the data — is behind.
    Snapshot(mpc_snapshot::SnapshotError),
}

impl fmt::Display for CommitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CommitError::UpdatesDisabled => {
                write!(f, "live updates are not enabled on this engine (call enable_updates)")
            }
            CommitError::RadiusUnsupported { radius } => write!(
                f,
                "live updates require radius-1 fragments; this engine replicates at radius {radius}"
            ),
            CommitError::SparseVertexId { got, expected } => write!(
                f,
                "insert references vertex id {got} but the next unused id is {expected}; \
                 vertex ids must stay dense"
            ),
            CommitError::NewVertexWithoutTerm { id } => write!(
                f,
                "insert mints vertex id {id} on a dictionary-backed engine; \
                 new vertices must be inserted as terms"
            ),
            CommitError::NoDictionary => {
                write!(f, "term-form update on an engine without a dictionary")
            }
            CommitError::Snapshot(e) => write!(f, "commit applied but snapshot save failed: {e}"),
        }
    }
}

impl std::error::Error for CommitError {}

/// What one commit did, down to the exactness counters the `update.*`
/// metrics mirror (docs/OBSERVABILITY.md).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct CommitReport {
    /// Triples actually added (set semantics: re-inserting a live
    /// triple is a no-op).
    pub inserted: usize,
    /// Triples actually removed.
    pub deleted: usize,
    /// Inserts that were already present.
    pub insert_noops: usize,
    /// Deletes of absent triples (including unknown terms/ids).
    pub delete_noops: usize,
    /// Fresh vertices placed by the incremental partitioner.
    pub new_vertices: usize,
    /// Fresh properties added to the property space.
    pub new_properties: usize,
    /// Applied inserts whose endpoints live on different sites.
    pub crossing_inserts: usize,
    /// Crossing properties (|L_cross|) after the commit.
    pub crossing_properties: usize,
    /// Crossing edges (|E^c|) after the commit.
    pub crossing_edges: usize,
    /// The partition epoch the serving layer moved to; 0 from the bare
    /// engine path (only [`crate::serve::ServeEngine::commit`] owns an
    /// epoch).
    pub epoch: u64,
    /// The snapshot generation written by the serving layer, when a
    /// snapshot directory was configured.
    pub generation: Option<u64>,
}

/// The engine's mutable world: the dictionary (a delta over the graph's
/// shared one, growing with term-form inserts), the live triple
/// multiset (the exact content a rebuilt graph would hold), and the
/// incremental partitioner that places new vertices and tracks exact
/// per-property crossing counts.
#[derive(Clone, Debug)]
pub(crate) struct LiveState {
    pub(crate) dict: Dictionary,
    pub(crate) triples: Vec<Triple>,
    pub(crate) inc: IncrementalPartitioning,
}

impl DistributedEngine {
    /// Arms the live-update path: layers a dictionary over the graph's
    /// shared one ([`Dictionary::layered`]; nothing is copied, now or at
    /// any commit), captures the triple multiset, and seeds an
    /// [`IncrementalPartitioning`] from
    /// `partitioning` (with balance slack `epsilon` for placing new
    /// vertices). Must be called with the same graph + partitioning the
    /// engine was built from. Fails on engines with replication radius
    /// ≠ 1 — see [`CommitError::RadiusUnsupported`].
    pub fn enable_updates(
        &mut self,
        g: &RdfGraph,
        partitioning: &Partitioning,
        epsilon: f64,
    ) -> Result<(), CommitError> {
        if self.radius != 1 {
            return Err(CommitError::RadiusUnsupported { radius: self.radius });
        }
        assert_eq!(
            partitioning.k(),
            self.sites.len(),
            "partitioning must match the engine's site count"
        );
        self.live = Some(Box::new(LiveState {
            dict: Dictionary::layered(g.shared_dictionary()),
            triples: g.triples().to_vec(),
            inc: IncrementalPartitioning::from_partitioning(g, partitioning, epsilon),
        }));
        Ok(())
    }

    /// True once [`Self::enable_updates`] armed the live-update path.
    pub fn updates_enabled(&self) -> bool {
        self.live.is_some()
    }

    /// The live dictionary — the one that grows with term-form inserts
    /// and that queries must resolve against after a commit. `None`
    /// until [`Self::enable_updates`].
    pub fn dictionary(&self) -> Option<&Dictionary> {
        self.live.as_ref().map(|l| &l.dict)
    }

    /// Rebuilds the live `(graph, partitioning)` pair — what a snapshot
    /// of the post-commit world persists, and what a from-scratch
    /// rebuild must reproduce bit for bit. `None` until
    /// [`Self::enable_updates`].
    pub fn live_dataset(&self) -> Option<(RdfGraph, Partitioning)> {
        let live = self.live.as_deref()?;
        let g = if live.dict.vertex_count() > 0 {
            RdfGraph::from_dictionary(live.dict.clone(), live.triples.clone())
        } else {
            RdfGraph::from_raw(
                live.inc.vertex_count(),
                live.inc.property_count(),
                live.triples.clone(),
            )
        };
        let p = live.inc.clone().into_partitioning(&g);
        Some((g, p))
    }

    /// Folds every site's novelty overlay into its sorted base runs
    /// ([`mpc_sparql::LocalStore::compact`]) — content-neutral, purely a
    /// scan-speed refresh after large commits.
    pub fn compact_sites(&mut self) {
        for site in &mut self.sites {
            site.store.compact();
        }
    }

    /// Applies one [`UpdateBatch`] transactionally — the single
    /// mutation entry point.
    ///
    /// Phase 1 *validates* the whole batch against the live state
    /// (density of fresh ids, dictionary coverage) without touching
    /// anything; every [`CommitError`] is raised here. Phase 2 applies
    /// deletes then inserts as the module docs describe, and phase 3
    /// rebuilds the crossing set, clears the plan cache (plans embed
    /// crossing-set and statistics decisions), and re-aggregates the
    /// planner statistics.
    ///
    /// Counters (when `rec` is live): `update.commit`,
    /// `update.inserted`, `update.deleted`, `update.noops`,
    /// `update.new_vertices`, `update.new_properties`, and the
    /// `update.crossing_properties` / `update.crossing_edges` gauges.
    pub fn commit(
        &mut self,
        batch: &UpdateBatch,
        rec: &Recorder,
    ) -> Result<CommitReport, CommitError> {
        let span = rec.span("update.commit.time");
        let live = self.live.as_deref_mut().ok_or(CommitError::UpdatesDisabled)?;
        validate(live, batch)?;

        let mut report = CommitReport::default();
        apply_deletes(live, &mut self.sites, batch, &mut report);
        apply_inserts(live, &mut self.sites, batch, &mut report);

        // Phase 3: the planning world. The crossing set drives IEQ
        // classification and decomposition; cached plans embed both it
        // and the statistics-driven join orders, so they are all stale.
        self.crossing = CrossingSet(
            (0..live.inc.property_count())
                .map(|i| live.inc.is_crossing_property(PropertyId(narrow::u32_from(i))))
                .collect(),
        );
        self.plans.lock().clear();
        let mut stats = StoreStats::default();
        for site in &self.sites {
            stats.merge(site.store.stats());
        }
        self.stats = stats;

        report.crossing_properties = live.inc.crossing_property_count();
        report.crossing_edges = live.inc.crossing_edge_count();
        rec.incr("update.commit");
        rec.add("update.inserted", report.inserted as u64);
        rec.add("update.deleted", report.deleted as u64);
        rec.add("update.noops", (report.insert_noops + report.delete_noops) as u64);
        rec.add("update.new_vertices", report.new_vertices as u64);
        rec.add("update.new_properties", report.new_properties as u64);
        rec.set("update.crossing_properties", report.crossing_properties as u64);
        rec.set("update.crossing_edges", report.crossing_edges as u64);
        span.finish();
        Ok(report)
    }
}

/// Phase 1: resolve and check the whole batch without mutating. Fresh
/// vertex ids are simulated in batch order with exactly the allocation
/// the apply phase will perform (dictionary interning hands out dense
/// ids in first-appearance order; id-form growth must name the next
/// unused id itself), so a batch that validates cannot fail mid-apply.
fn validate(live: &LiveState, batch: &UpdateBatch) -> Result<(), CommitError> {
    let has_dict = live.dict.vertex_count() > 0;
    for op in &batch.deletes {
        if matches!(op, UpdateOp::Terms { .. }) && !has_dict {
            return Err(CommitError::NoDictionary);
        }
    }
    let mut next = narrow::u32_from(live.inc.vertex_count());
    let mut pending: FxHashSet<&Term> = FxHashSet::default();
    for op in &batch.inserts {
        match op {
            UpdateOp::Ids(t) => {
                for v in [t.s, t.o] {
                    if v.0 > next {
                        return Err(CommitError::SparseVertexId { got: v.0, expected: next });
                    }
                    if v.0 == next {
                        if has_dict {
                            return Err(CommitError::NewVertexWithoutTerm { id: v.0 });
                        }
                        next += 1;
                    }
                }
            }
            UpdateOp::Terms { s, o, .. } => {
                if !has_dict {
                    return Err(CommitError::NoDictionary);
                }
                for term in [s, o] {
                    if live.dict.vertex_id(term).is_none() && pending.insert(term) {
                        next += 1;
                    }
                }
            }
        }
    }
    Ok(())
}

/// Resolves one delete to id space; `None` means the triple cannot
/// exist (unknown term or out-of-range id) and the delete is a no-op.
fn resolve_delete(live: &LiveState, op: &UpdateOp) -> Option<Triple> {
    match op {
        UpdateOp::Ids(t) => {
            let known = t.s.index() < live.inc.vertex_count()
                && t.o.index() < live.inc.vertex_count()
                && t.p.index() < live.inc.property_count();
            known.then_some(*t)
        }
        UpdateOp::Terms { s, p, o } => Some(Triple::new(
            live.dict.vertex_id(s)?,
            live.dict.property_id(p)?,
            live.dict.vertex_id(o)?,
        )),
    }
}

/// Phase 2a: deletes, against the pre-commit store. Each applied delete
/// removes the triple from the owning site (and the replicating site
/// for crossing edges), prunes stranded extended vertices, and strikes
/// every occurrence from the live multiset — decrementing the
/// incremental partitioner once per occurrence, which is exactly what a
/// from-scratch recount over the post-delete multiset would see.
fn apply_deletes(
    live: &mut LiveState,
    sites: &mut [Site],
    batch: &UpdateBatch,
    report: &mut CommitReport,
) {
    let mut removed: FxHashSet<Triple> = FxHashSet::default();
    for op in &batch.deletes {
        let Some(t) = resolve_delete(live, op) else {
            report.delete_noops += 1;
            continue;
        };
        let sp = live.inc.part_of(t.s);
        if !sites[sp.index()].store.delete(t) {
            report.delete_noops += 1;
            continue;
        }
        let op_ = live.inc.part_of(t.o);
        if op_ != sp {
            let replicated = sites[op_.index()].store.delete(t);
            debug_assert!(replicated, "crossing edge must be replicated on both sites");
            prune_extended(&mut sites[sp.index()], t.o);
            prune_extended(&mut sites[op_.index()], t.s);
        }
        removed.insert(t);
        report.deleted += 1;
    }
    if removed.is_empty() {
        return;
    }
    let (kept, dropped): (Vec<Triple>, Vec<Triple>) = live
        .triples
        .drain(..)
        .partition(|t| !removed.contains(t));
    live.triples = kept;
    for t in dropped {
        live.inc.delete(t);
    }
}

/// Phase 2b: inserts, in batch order. Terms intern into the live
/// dictionary (new vertices get the dense ids the validation phase
/// simulated); duplicates of live triples are counted as no-ops; real
/// inserts go through the incremental partitioner and are routed to
/// their fragment sites.
fn apply_inserts(
    live: &mut LiveState,
    sites: &mut [Site],
    batch: &UpdateBatch,
    report: &mut CommitReport,
) {
    for op in &batch.inserts {
        let t = match op {
            UpdateOp::Ids(t) => *t,
            UpdateOp::Terms { s, p, o } => {
                // Intern subject before object: validation simulated
                // fresh ids in exactly this order.
                let s = live.dict.intern_vertex(s);
                let o = live.dict.intern_vertex(o);
                Triple::new(s, live.dict.intern_property(p), o)
            }
        };
        let tracked = t.s.index() < live.inc.vertex_count()
            && t.o.index() < live.inc.vertex_count()
            && t.p.index() < live.inc.property_count();
        if tracked && sites[live.inc.part_of(t.s).index()].store.contains(t) {
            report.insert_noops += 1;
            continue;
        }
        let (pv, pp) = (live.inc.vertex_count(), live.inc.property_count());
        live.inc.insert(t);
        report.new_vertices += live.inc.vertex_count() - pv;
        report.new_properties += live.inc.property_count() - pp;
        let sp = live.inc.part_of(t.s);
        let op_ = live.inc.part_of(t.o);
        sites[sp.index()].store.insert(t);
        if op_ != sp {
            sites[op_.index()].store.insert(t);
            sites[sp.index()].extended.insert(t.o);
            sites[op_.index()].extended.insert(t.s);
            report.crossing_inserts += 1;
        }
        live.triples.push(t);
        report.inserted += 1;
    }
}

/// Drops `v` from the site's extended set once no stored triple touches
/// it — keeping `V_i^e` exactly the foreign endpoints of the site's
/// remaining crossing edges.
fn prune_extended(site: &mut Site, v: VertexId) {
    if !site.extended.contains(&v) {
        return;
    }
    let touches = site.store.count(&Pattern { s: Some(v), ..Pattern::any() })
        + site.store.count(&Pattern { o: Some(v), ..Pattern::any() });
    if touches == 0 {
        site.extended.remove(&v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coordinator::{DistributedEngine, ExecRequest};
    use crate::network::NetworkModel;
    use mpc_core::{MpcConfig, MpcPartitioner, Partitioner};
    use mpc_rdf::GraphBuilder;
    use mpc_sparql::{
        evaluate, Bindings, LocalStore, QLabel, QNode, Query, ResolvedPlan, TriplePattern,
    };

    fn t(s: u32, p: u32, o: u32) -> Triple {
        Triple::new(VertexId(s), mpc_rdf::PropertyId(p), VertexId(o))
    }

    fn raw_graph() -> RdfGraph {
        let mut triples = Vec::new();
        for i in 0..10 {
            triples.push(t(i, 0, (i + 1) % 10));
        }
        for i in 0..5 {
            triples.push(t(i, 1, i + 5));
        }
        RdfGraph::from_raw(10, 2, triples)
    }

    fn live_engine(g: &RdfGraph, k: usize) -> DistributedEngine {
        let part = MpcPartitioner::new(MpcConfig::with_k(k)).partition(g);
        let mut eng = DistributedEngine::build(g, &part, NetworkModel::free());
        eng.enable_updates(g, &part, 0.1).unwrap();
        eng
    }

    /// Fresh engine over the live dataset — the from-scratch world every
    /// committed engine must agree with.
    fn rebuild(eng: &DistributedEngine) -> (RdfGraph, DistributedEngine) {
        let (g, p) = eng.live_dataset().unwrap();
        let fresh = DistributedEngine::build(&g, &p, NetworkModel::free());
        (g, fresh)
    }

    fn one_pattern_query(p: u32) -> Query {
        Query::new(
            vec![TriplePattern::new(
                QNode::Var(0),
                QLabel::Prop(mpc_rdf::PropertyId(p)),
                QNode::Var(1),
            )],
            vec!["s".into(), "o".into()],
        )
    }

    /// A fault-free run of the bare BGP `q` through the one entry point
    /// (a BGP has no FILTER to read a dictionary).
    fn rows_of(eng: &DistributedEngine, q: &Query) -> Bindings {
        let plan = ResolvedPlan::from_bgp(q.clone());
        eng.run_plan(&plan, &ExecRequest::new(), &Dictionary::default())
            .unwrap()
            .bindings
            .rows
    }

    #[test]
    fn commit_requires_enable_updates_and_radius_one() {
        let g = raw_graph();
        let part = MpcPartitioner::new(MpcConfig::with_k(2)).partition(&g);
        let mut eng = DistributedEngine::build(&g, &part, NetworkModel::free());
        let err = eng.commit(&UpdateBatch::new(), &Recorder::disabled());
        assert!(matches!(err, Err(CommitError::UpdatesDisabled)));
        let mut khop = DistributedEngine::build_with_radius(&g, &part, NetworkModel::free(), 2);
        let err = khop.enable_updates(&g, &part, 0.1);
        assert!(matches!(err, Err(CommitError::RadiusUnsupported { radius: 2 })));
        assert!(!khop.updates_enabled());
        eng.enable_updates(&g, &part, 0.1).unwrap();
        assert!(eng.updates_enabled());
    }

    #[test]
    fn id_commit_matches_a_from_scratch_rebuild() {
        let g = raw_graph();
        let mut eng = live_engine(&g, 2);
        let rec = Recorder::enabled();
        let mut batch = UpdateBatch::new();
        // Delete two edges, re-add one of them, insert a fresh vertex 10
        // (dense growth) with two edges, and a duplicate (no-op) insert.
        batch.delete(t(0, 0, 1)).delete(t(3, 1, 8));
        batch.insert(t(0, 0, 1)).insert(t(10, 0, 0)).insert(t(2, 1, 10)).insert(t(4, 1, 9));
        let report = eng.commit(&batch, &rec).unwrap();
        assert_eq!(report.deleted, 2);
        assert_eq!(report.inserted, 3, "the re-add applies; (4,1,9) is a duplicate");
        assert_eq!(report.insert_noops, 1);
        assert_eq!(report.new_vertices, 1);
        let (live_g, fresh) = rebuild(&eng);
        assert_eq!(live_g.vertex_count(), 11);
        for p in [0, 1] {
            let q = one_pattern_query(p);
            let mut a = rows_of(&eng, &q);
            let mut b = rows_of(&fresh, &q);
            a.rows.sort_unstable();
            b.rows.sort_unstable();
            assert_eq!(a.rows, b.rows, "committed vs rebuilt, property {p}");
            let mut local = evaluate(&q, &LocalStore::from_graph(&live_g)).rows;
            local.sort_unstable();
            assert_eq!(a.rows, local, "committed vs centralized, property {p}");
        }
        assert_eq!(report.crossing_properties, {
            let (lg, lp) = eng.live_dataset().unwrap();
            let recount = IncrementalPartitioning::from_partitioning(&lg, &lp, 0.1);
            recount.crossing_property_count()
        });
    }

    #[test]
    fn term_commit_grows_the_dictionary_and_answers() {
        let mut b = GraphBuilder::new();
        for i in 0..8 {
            b.add_iris(&format!("urn:v:{i}"), "urn:p:0", &format!("urn:v:{}", (i + 1) % 8));
        }
        let g = b.build();
        let mut eng = live_engine(&g, 2);
        let rec = Recorder::enabled();
        let mut batch = UpdateBatch::new();
        batch
            .insert_terms(Term::iri("urn:v:new"), "urn:p:fresh", Term::literal("42"))
            .delete_terms(Term::iri("urn:v:0"), "urn:p:0", Term::iri("urn:v:1"))
            .delete_terms(Term::iri("urn:v:ghost"), "urn:p:0", Term::iri("urn:v:1"));
        let report = eng.commit(&batch, &rec).unwrap();
        assert_eq!(report.inserted, 1);
        assert_eq!(report.deleted, 1);
        assert_eq!(report.delete_noops, 1, "unknown term deletes are no-ops");
        assert_eq!(report.new_vertices, 2);
        assert_eq!(report.new_properties, 1);
        let dict = eng.dictionary().unwrap();
        assert!(dict.vertex_id(&Term::iri("urn:v:new")).is_some());
        assert!(dict.property_id("urn:p:fresh").is_some());
        let (live_g, fresh) = rebuild(&eng);
        assert_eq!(live_g.dictionary().vertex_count(), live_g.vertex_count());
        let pid = dict.property_id("urn:p:fresh").unwrap();
        let q = one_pattern_query(pid.0);
        let a = rows_of(&eng, &q);
        let b2 = rows_of(&fresh, &q);
        assert_eq!(a.rows, b2.rows);
        assert_eq!(a.rows.len(), 1);
    }

    #[test]
    fn validation_rejects_before_mutating() {
        let g = raw_graph();
        let mut eng = live_engine(&g, 2);
        let rec = Recorder::disabled();
        let before = eng.live_dataset().unwrap().0.triples().to_vec();

        // Sparse id: 12 when next is 10 — and the valid first insert
        // must NOT have applied.
        let mut batch = UpdateBatch::new();
        batch.insert(t(0, 1, 9)).insert(t(12, 0, 0));
        let err = eng.commit(&batch, &rec);
        assert!(matches!(
            err,
            Err(CommitError::SparseVertexId { got: 12, expected: 10 })
        ));
        assert_eq!(eng.live_dataset().unwrap().0.triples(), &before[..]);

        // Term ops on a raw (dictionary-less) graph.
        let mut batch = UpdateBatch::new();
        batch.insert_terms(Term::iri("urn:x"), "urn:p", Term::iri("urn:y"));
        assert!(matches!(eng.commit(&batch, &rec), Err(CommitError::NoDictionary)));

        // Id-form growth on a dictionary-backed engine.
        let mut b = GraphBuilder::new();
        b.add_iris("urn:a", "urn:p", "urn:b");
        b.add_iris("urn:b", "urn:p", "urn:c");
        b.add_iris("urn:c", "urn:p", "urn:a");
        b.add_iris("urn:a", "urn:q", "urn:c");
        let dg = b.build();
        let mut deng = live_engine(&dg, 2);
        let mut batch = UpdateBatch::new();
        batch.insert(t(3, 0, 0));
        assert!(matches!(
            deng.commit(&batch, &rec),
            Err(CommitError::NewVertexWithoutTerm { id: 3 })
        ));
    }

    #[test]
    fn crossing_deletes_prune_extended_sets_exactly() {
        let g = raw_graph();
        let mut eng = live_engine(&g, 2);
        let rec = Recorder::disabled();
        // Delete every triple; afterwards no site may retain an extended
        // vertex and nothing is crossing.
        let mut batch = UpdateBatch::new();
        for &tr in g.triples() {
            batch.delete(tr);
        }
        let report = eng.commit(&batch, &rec).unwrap();
        assert_eq!(report.deleted, g.triples().len());
        assert_eq!(report.crossing_edges, 0);
        assert_eq!(report.crossing_properties, 0);
        for site in &eng.sites {
            assert_eq!(site.store.len(), 0);
            assert!(site.extended.is_empty(), "stranded extended vertices");
        }
        // The batch-of-everything case aside, partial pruning: rebuild
        // and delete only property-1 edges.
        let mut eng = live_engine(&g, 2);
        let mut batch = UpdateBatch::new();
        for &tr in g.triples().iter().filter(|tr| tr.p.0 == 1) {
            batch.delete(tr);
        }
        eng.commit(&batch, &rec).unwrap();
        let (lg, lp) = eng.live_dataset().unwrap();
        let recount = IncrementalPartitioning::from_partitioning(&lg, &lp, 0.1);
        assert_eq!(
            (recount.crossing_property_count(), recount.crossing_edge_count()),
            (
                eng.live.as_ref().unwrap().inc.crossing_property_count(),
                eng.live.as_ref().unwrap().inc.crossing_edge_count()
            ),
            "incremental crossing bookkeeping must equal a recount"
        );
    }

    #[test]
    fn commit_metrics_and_compaction() {
        let g = raw_graph();
        let mut eng = live_engine(&g, 2);
        let rec = Recorder::enabled();
        let mut batch = UpdateBatch::new();
        batch.insert(t(0, 1, 9)).delete(t(0, 0, 1));
        eng.commit(&batch, &rec).unwrap();
        assert_eq!(rec.counter("update.commit"), Some(1));
        assert_eq!(rec.counter("update.inserted"), Some(1));
        assert_eq!(rec.counter("update.deleted"), Some(1));
        assert!(eng.sites.iter().any(|s| s.store.is_dirty()));
        eng.compact_sites();
        assert!(eng.sites.iter().all(|s| !s.store.is_dirty()));
        let q = one_pattern_query(1);
        let rows = rows_of(&eng, &q);
        let (lg, _) = eng.live_dataset().unwrap();
        let mut local = evaluate(&q, &LocalStore::from_graph(&lg)).rows;
        let mut got = rows.rows;
        got.sort_unstable();
        local.sort_unstable();
        assert_eq!(got, local, "compaction is content-neutral");
    }

    #[test]
    fn empty_batch_commits_cleanly() {
        let g = raw_graph();
        let mut eng = live_engine(&g, 2);
        let report = eng.commit(&UpdateBatch::new(), &Recorder::disabled()).unwrap();
        assert_eq!(report, CommitReport {
            crossing_properties: report.crossing_properties,
            crossing_edges: report.crossing_edges,
            ..CommitReport::default()
        });
        assert!(UpdateBatch::new().is_empty());
        assert_eq!(UpdateBatch::new().len(), 0);
    }

    #[test]
    fn the_live_dictionary_shares_the_graph_dictionary_and_never_copies_it() {
        use std::sync::Arc;
        let mut b = GraphBuilder::new();
        for i in 0..8 {
            b.add_iris(
                &format!("urn:v:{i}"),
                "urn:p:0",
                &format!("urn:v:{}", (i + 1) % 8),
            );
        }
        let g = b.build();
        let before = Arc::strong_count(&g.shared_dictionary());
        let mut eng = live_engine(&g, 2);
        let armed = Arc::strong_count(&g.shared_dictionary());
        assert!(armed > before, "arming shares the graph's dictionary");

        let sizes = |d: &Dictionary| (d.vertex_count(), d.property_count());
        let (vc, pc) = sizes(g.dictionary());
        let mut batch = UpdateBatch::new();
        batch
            .insert_terms(
                Term::iri("urn:v:new"),
                "urn:p:fresh",
                Term::lang_literal("x", "en"),
            )
            .insert_terms(Term::iri("urn:v:0"), "urn:p:0", Term::iri("urn:v:new"));
        let report = eng.commit(&batch, &Recorder::disabled()).unwrap();
        assert_eq!((report.new_vertices, report.new_properties), (2, 1));
        let committed = Arc::strong_count(&g.shared_dictionary());
        assert_eq!(committed, armed, "a commit copies nothing");
        let live_base = eng.dictionary().unwrap().base().unwrap();
        assert!(Arc::ptr_eq(live_base, &g.shared_dictionary()));
        assert_eq!(
            sizes(g.dictionary()),
            (vc, pc),
            "the caller's dictionary is unchanged"
        );
        assert_eq!(g.dictionary().vertex_id(&Term::iri("urn:v:new")), None);
        assert_eq!(g.dictionary().property_id("urn:p:fresh"), None);

        // Old and new terms resolve to the ids the rebuilt graph gives them.
        let dict = eng.dictionary().unwrap();
        let (live_g, live_p) = eng.live_dataset().unwrap();
        assert_eq!(live_g.vertex_count(), vc + 2);
        for (id, term) in live_g.dictionary().vertices() {
            assert_eq!(dict.vertex_id(&term.to_term()), Some(id));
        }
        for (id, iri) in live_g.dictionary().properties() {
            assert_eq!(dict.property_id(iri), Some(id));
        }

        // Arming over the layered dictionary yields one layer over the
        // same base.
        let mut again = DistributedEngine::build(&live_g, &live_p, NetworkModel::free());
        again.enable_updates(&live_g, &live_p, 0.1).unwrap();
        let base = again.dictionary().unwrap().base().unwrap();
        assert!(Arc::ptr_eq(base, &g.shared_dictionary()));
        assert!(base.base().is_none());
        let relive = again.dictionary().unwrap();
        assert_eq!(relive.vertex_id(&Term::iri("urn:v:new")), Some(VertexId(8)));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::network::NetworkModel;
    use mpc_core::{MpcConfig, MpcPartitioner, Partitioner};
    use mpc_rdf::{GraphBuilder, TermRef};
    use proptest::prelude::*;

    /// Texts shared by every term kind: the old in-band separators, the
    /// empty string, and a text that is also a language tag and a
    /// datatype.
    const TEXTS: [&str; 8] = [
        "", "x", "en", "\u{1}", "\u{2}", "x\u{1}en", "x\u{2}en", "urn:v:0",
    ];

    fn term_strategy() -> impl Strategy<Value = Term> {
        (0usize..5, 0..TEXTS.len(), 0..TEXTS.len()).prop_map(|(kind, a, b)| {
            let (a, b) = (TEXTS[a], TEXTS[b]);
            match kind {
                0 => Term::iri(a),
                1 => Term::blank(a),
                2 => Term::literal(a),
                3 => Term::typed_literal(a, b),
                _ => Term::lang_literal(a, b),
            }
        })
    }

    fn distinct(terms: &[Term]) -> usize {
        terms.iter().collect::<FxHashSet<_>>().len()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// intern → id → view → owned term is the identity on the graph's
        /// flat dictionary and on the engine's layered one after a commit
        /// interned more terms; sorting views orders them as sorting the
        /// terms does, and both print alike.
        #[test]
        fn terms_round_trip_flat_and_layered_across_a_commit(
            base in prop::collection::vec(term_strategy(), 1..10),
            delta in prop::collection::vec(term_strategy(), 1..10),
        ) {
            let hub = Term::iri("urn:hub");
            let mut b = GraphBuilder::new();
            for t in &base {
                b.add(&hub, "urn:p:base", t);
            }
            let g = b.build();
            let part = MpcPartitioner::new(MpcConfig::with_k(2)).partition(&g);
            let mut eng = DistributedEngine::build(&g, &part, NetworkModel::free());
            eng.enable_updates(&g, &part, 0.1).unwrap();
            let mut batch = UpdateBatch::new();
            for t in &delta {
                batch.insert_terms(hub.clone(), "urn:p:delta", t.clone());
            }
            eng.commit(&batch, &Recorder::disabled()).unwrap();

            let with_hub = |terms: &[Term]| {
                let mut all = vec![hub.clone()];
                all.extend_from_slice(terms);
                all
            };
            let flat = g.dictionary();
            let live = eng.dictionary().unwrap();
            let everything: Vec<Term> = with_hub(&[base.clone(), delta.clone()].concat());
            for (dict, terms) in [(flat, with_hub(&base)), (live, everything.clone())] {
                prop_assert_eq!(dict.vertex_count(), distinct(&terms));
                for t in &terms {
                    let id = dict.vertex_id(t);
                    prop_assert!(id.is_some(), "{} not interned", t);
                    let view = dict.vertex_term(id.unwrap());
                    prop_assert_eq!(view, t.view());
                    prop_assert_eq!(view.to_term(), t.clone());
                    prop_assert_eq!(view.to_string(), t.to_string());
                }
            }

            let mut views: Vec<TermRef<'_>> = everything
                .iter()
                .map(|t| live.vertex_term(live.vertex_id(t).unwrap()))
                .collect();
            views.sort();
            let mut sorted = everything.clone();
            sorted.sort();
            prop_assert_eq!(views.iter().map(|v| v.to_term()).collect::<Vec<_>>(), sorted);
        }
    }
}
