//! The workload serving layer: a memoized plan canonicalization step
//! and a bounded, **sharded** LRU result cache with epoch invalidation
//! (docs/SERVING.md).
//!
//! A served workload repeats the same query templates with cosmetic
//! variation — renamed variables, reordered patterns, re-parsed
//! whitespace. [`ServeEngine`] wraps a [`DistributedEngine`] and answers
//! such repeats from a result cache keyed by the *canonical* form of the
//! plan ([`mpc_sparql::canonicalize_plan`]) plus the engine's **partition
//! epoch**: every repartition bumps the epoch, so entries computed over
//! a stale partitioning can never be returned — they simply stop being
//! addressable and age out of the LRU. There is one way in,
//! [`ServeEngine::serve_plan`]; a caller holding a bare BGP passes its
//! one-leaf plan ([`ResolvedPlan::from_bgp`]).
//!
//! The cache is split into `K` independently mutex-guarded shards
//! ([`ServeEngine::with_shards`]), each a bounded LRU over its slice of
//! the capacity. A plan's shard is the Fx hash of its canonical root, so
//! every spelling of a plan — and every epoch and mode variant of it —
//! lands in the same shard, and concurrent workers (the `mpc-server`
//! front end) contend only when they touch the same slice of the key
//! space. `K = 1` (the [`ServeEngine::new`] default) is a single LRU.
//!
//! What a caller can rely on (pinned by the `serving_*` proptests in
//! this crate and the tests below):
//!
//! * a cached answer is **byte-identical** to an uncached one
//!   ([`ExecRequest::cached`]`(false)`), at any thread count: misses
//!   execute the *canonical* plan and store a copy of its rows, hits
//!   hand those rows back, and both relabel the columns the same way
//!   ([`mpc_sparql::CanonicalPlan::restore_bindings`]) — no cached row
//!   is ever reinterpreted;
//! * without a `Slice`, the answer equals [`DistributedEngine::run_plan`]
//!   on the requester's plan **as a bag**, with equal `vars`. Rows can
//!   come out in another order, because the canonical leaf numbers its
//!   variables differently;
//! * under `LIMIT` / `OFFSET` without a total order, the answer is a
//!   valid sub-bag of the unsliced answer with the right row count — the
//!   canonical run may keep different tied rows than `run_plan` would;
//! * requests with a fault layer pass straight through to
//!   [`DistributedEngine::run_plan`] on the original plan, uncached —
//!   fault decisions are keyed on the engine's query sequence, and a
//!   cache hit would desynchronize it (and a degraded answer must never
//!   be replayed as authoritative).
use crate::coordinator::{DistributedEngine, ExecMode, ExecOutcome, ExecRequest, PartialBindings};
use crate::fault::SiteError;
use crate::stats::ExecutionStats;
use crate::update::{CommitError, CommitReport, UpdateBatch};
use mpc_obs::Recorder;
use mpc_rdf::{Dictionary, FxHashMap, FxHasher};
use mpc_sparql::{canonicalize_plan, Bindings, CanonicalPlan, PlanNode, ResolvedPlan};
use parking_lot::Mutex;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Capacity of the canonicalization memo. Above every benchmark
/// workload's count of distinct request texts, so a replay never evicts
/// a memo entry; a client that sends endless distinct texts costs a
/// labeling search per request instead of unbounded memory.
const MEMO_ENTRIES: usize = 4096;

/// A result-cache address: the *canonical* plan root, the crossing-aware
/// mode flag, and the partition epoch. The canonical root subsumes
/// patterns, operators, filters, and modifiers, so two requests share an
/// entry exactly when [`canonicalize_plan`] maps them to one shape.
type CacheKey = (PlanNode, bool, u64);

/// One cached execution: the canonical bindings plus the stats of the
/// run that populated the entry. The table is shared, so a hit leaves
/// the shard lock holding a reference and copies the rows outside it.
type CachedRun = (Arc<Bindings>, ExecutionStats);

/// What one cache shard has done since construction. Hit/miss/eviction
/// counts are kept inside the shard lock (no recorder required), so a
/// concurrent front end can report per-shard hit rates — see the
/// `server.shard{i}.*` rows in docs/OBSERVABILITY.md.
#[non_exhaustive]
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Live entries (stale epochs included until they age out).
    pub entries: usize,
    /// Lookups answered from this shard.
    pub hits: u64,
    /// Lookups that missed (and later populated an entry).
    pub misses: u64,
    /// LRU evictions performed when the shard was full.
    pub evictions: u64,
}

/// A bounded LRU from `K` to `V` — one result-cache **shard**, or the
/// canonicalization memo. Recency is a monotone stamp bumped on every
/// touch; eviction removes the minimum stamp. The O(n) eviction scan is
/// deliberate: result shards hold hundreds of entries, the memo only
/// evicts after [`MEMO_ENTRIES`] distinct texts (and then pays it beside
/// a labeling search), and the determinism argument ("unique monotone
/// stamps, unique victim") stays one sentence long.
struct Lru<K, V> {
    capacity: usize,
    tick: u64,
    entries: FxHashMap<K, (u64, V)>,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl<K: Eq + Hash + Clone, V: Clone> Lru<K, V> {
    fn new(capacity: usize) -> Self {
        Lru {
            capacity,
            tick: 0,
            entries: FxHashMap::default(),
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    fn get(&mut self, key: &K) -> Option<V> {
        self.tick += 1;
        let Some((stamp, value)) = self.entries.get_mut(key) else {
            self.misses += 1;
            return None;
        };
        self.hits += 1;
        *stamp = self.tick;
        Some(value.clone())
    }

    /// Inserts, evicting the least-recently-used entry when full.
    /// Returns true when an eviction happened.
    fn insert(&mut self, key: K, value: V) -> bool {
        self.tick += 1;
        let mut evicted = false;
        if !self.entries.contains_key(&key) && self.entries.len() >= self.capacity {
            let victim = self
                .entries
                .iter()
                .min_by_key(|(_, (stamp, _))| *stamp)
                .map(|(k, _)| k.clone());
            if let Some(victim) = victim {
                self.entries.remove(&victim);
                self.evictions += 1;
                evicted = true;
            }
        }
        self.entries.insert(key, (self.tick, value));
        evicted
    }

    fn stats(&self) -> ShardStats {
        ShardStats {
            entries: self.entries.len(),
            hits: self.hits,
            misses: self.misses,
            evictions: self.evictions,
        }
    }
}

/// Why the serving layer is moving to a new partition epoch — the
/// argument to [`ServeEngine::transition`], the single lifecycle entry
/// point for every epoch change that is not a data commit.
pub enum EpochTransition {
    /// Replace the wrapped engine (a repartition). Epoch advances by
    /// one; no result computed over the old partitioning stays servable.
    Repartition(Box<DistributedEngine>),
    /// Seed the epoch from a snapshot's committed generation at cold
    /// start (docs/PERSISTENCE.md) — results cached before a restart can
    /// never alias results computed after one, and the epoch visibly
    /// tracks the on-disk generation.
    Restore {
        /// The snapshot generation to serve as.
        generation: u64,
    },
}

/// What [`ServeEngine::commit`] should do after the batch applies.
#[derive(Clone, Debug, Default)]
pub struct CommitOptions {
    /// Fold every site's novelty overlay into its sorted base runs
    /// after the commit ([`DistributedEngine::compact_sites`]).
    pub compact: bool,
    /// Persist the post-commit dataset as a new snapshot generation in
    /// this directory (docs/PERSISTENCE.md).
    pub snapshot_dir: Option<std::path::PathBuf>,
}

/// A query-serving front end over a [`DistributedEngine`]: memoized
/// plan canonicalization and a bounded result cache that the partition
/// epoch invalidates wholesale. See the [module docs](self) for what a
/// served answer guarantees.
///
/// ```
/// # use mpc_cluster::{DistributedEngine, ExecRequest, NetworkModel, ServeEngine};
/// # use mpc_core::{MpcConfig, MpcPartitioner, Partitioner};
/// # use mpc_rdf::{PropertyId, RdfGraph, Triple, VertexId};
/// # use mpc_sparql::{QLabel, QNode, Query, ResolvedPlan, TriplePattern};
/// # let g = RdfGraph::from_raw(4, 1, vec![Triple::new(VertexId(0), PropertyId(0), VertexId(1))]);
/// # let part = MpcPartitioner::new(MpcConfig::with_k(2)).partition(&g);
/// let engine = DistributedEngine::build(&g, &part, NetworkModel::free());
/// let serve = ServeEngine::new(engine, 128);
/// let plan = ResolvedPlan::from_bgp(Query::new(
///     vec![TriplePattern::new(QNode::Var(0), QLabel::Prop(PropertyId(0)), QNode::Var(1))],
///     vec!["s".into(), "o".into()],
/// ));
/// let req = ExecRequest::new();
/// let first = serve.serve_plan(&plan, &req, g.dictionary()).unwrap();
/// let again = serve.serve_plan(&plan, &req, g.dictionary()).unwrap(); // cache hit
/// assert_eq!(first.rows(), again.rows());
/// ```
pub struct ServeEngine {
    inner: DistributedEngine,
    /// The partition epoch: a component of every result-cache key.
    /// Moved by [`Self::commit`] / [`Self::transition`], which makes
    /// every existing entry unaddressable at once.
    epoch: AtomicU64,
    /// Canonicalization memo: the raw plan with variable names blanked
    /// (renamed spellings share an entry) → its [`CanonicalPlan`]. Pure,
    /// so never invalidated; bounded at [`MEMO_ENTRIES`].
    memo: Mutex<Lru<ResolvedPlan, Arc<CanonicalPlan>>>,
    /// The sharded result cache: each shard is an independent bounded
    /// LRU behind its own mutex. A plan's shard is the Fx hash of its
    /// canonical root (epoch and mode excluded, so every variant of one
    /// plan shape shares a shard).
    shards: Vec<Mutex<Lru<CacheKey, CachedRun>>>,
    cache_capacity: usize,
}

impl ServeEngine {
    /// Wraps `inner`, keeping at most `cache_entries` cached results in
    /// a single-shard cache (0 disables the result cache;
    /// canonicalization is still memoized). Concurrent front ends that
    /// want lower lock contention use [`Self::with_shards`].
    pub fn new(inner: DistributedEngine, cache_entries: usize) -> Self {
        Self::with_shards(inner, cache_entries, 1)
    }

    /// Wraps `inner` with the result cache split into `shards`
    /// mutex-guarded LRU shards (clamped to ≥ 1). Each shard holds
    /// `ceil(cache_entries / shards)` entries, so the effective total
    /// capacity rounds up to a shard multiple; 0 entries disables the
    /// cache regardless of the shard count. Sharding changes only *lock
    /// granularity* — hit/miss behavior for a sequential request stream
    /// and the bit-identical answer contract are unchanged.
    pub fn with_shards(inner: DistributedEngine, cache_entries: usize, shards: usize) -> Self {
        let shards = shards.max(1);
        let per_shard = if cache_entries == 0 {
            0
        } else {
            cache_entries.div_ceil(shards)
        };
        ServeEngine {
            inner,
            epoch: AtomicU64::new(0),
            memo: Mutex::new(Lru::new(MEMO_ENTRIES)),
            shards: (0..shards).map(|_| Mutex::new(Lru::new(per_shard))).collect(),
            cache_capacity: cache_entries,
        }
    }

    /// The wrapped engine.
    pub fn engine(&self) -> &DistributedEngine {
        &self.inner
    }

    /// The current partition epoch.
    pub fn epoch(&self) -> u64 {
        // ordering: Acquire pairs with the AcqRel bump; a reader that
        // observes the new epoch also observes the engine mutations made
        // before the bump.
        self.epoch.load(Ordering::Acquire)
    }

    /// Moves the serving layer to a new partition epoch — the one
    /// lifecycle entry point for every epoch change that is not a data
    /// commit (those go through [`Self::commit`]). Every cached result
    /// keys on the epoch, so any transition makes all existing entries
    /// unaddressable at once. The canonicalization memo survives every
    /// transition: it is a partition-independent pure function.
    ///
    /// Returns the epoch now being served.
    pub fn transition(&mut self, transition: EpochTransition) -> u64 {
        match transition {
            EpochTransition::Restore { generation } => {
                // ordering: Release publishes the freshly loaded engine
                // state to readers that Acquire-observe the seeded
                // epoch, mirroring the AcqRel bump below.
                self.epoch.store(generation, Ordering::Release);
                generation
            }
            EpochTransition::Repartition(inner) => {
                self.inner = *inner;
                // ordering: AcqRel — the release half publishes the
                // engine replacement; the acquire half orders the bump
                // against later cache fills.
                self.epoch.fetch_add(1, Ordering::AcqRel) + 1
            }
        }
    }

    /// Applies one [`UpdateBatch`] through
    /// [`DistributedEngine::commit`](crate::coordinator::DistributedEngine)
    /// and moves to the next epoch, so every result cached over the
    /// pre-commit data becomes unaddressable. With
    /// [`CommitOptions::compact`] the sites' novelty overlays are folded
    /// into their base runs afterwards; with a
    /// [`CommitOptions::snapshot_dir`] the post-commit dataset is
    /// persisted as a new snapshot generation (durability is the last
    /// step: a snapshot error reports after the in-memory commit has
    /// already applied — see [`CommitError::Snapshot`]).
    pub fn commit(
        &mut self,
        batch: &UpdateBatch,
        opts: &CommitOptions,
        rec: &Recorder,
    ) -> Result<CommitReport, CommitError> {
        let mut report = self.inner.commit(batch, rec)?;
        if opts.compact {
            self.inner.compact_sites();
        }
        // ordering: AcqRel — the release half publishes the committed
        // site/overlay mutations; the acquire half orders the flip
        // against the cache fills that will follow under the new epoch.
        report.epoch = self.epoch.fetch_add(1, Ordering::AcqRel) + 1;
        rec.set("update.epoch", report.epoch);
        if let Some(dir) = &opts.snapshot_dir {
            let (g, p) = self
                .inner
                .live_dataset()
                // mpc-allow: unwrap-expect commit succeeded, so updates are armed and live state exists
                .expect("commit succeeded, so live state exists");
            let saved =
                mpc_snapshot::save(dir, &g, &p, rec).map_err(CommitError::Snapshot)?;
            report.generation = Some(saved.generation);
        }
        Ok(report)
    }

    /// Number of live result-cache entries across all shards (stale
    /// epochs included until they age out).
    pub fn cache_len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().entries.len()).sum()
    }

    /// The configured result-cache capacity.
    pub fn cache_capacity(&self) -> usize {
        self.cache_capacity
    }

    /// Number of result-cache shards (≥ 1).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// A per-shard snapshot of entry counts and hit/miss/eviction
    /// totals, in shard order. Each shard is snapshotted under its own
    /// lock; the vector as a whole is not one atomic observation.
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        self.shards.iter().map(|s| s.lock().stats()).collect()
    }

    /// Serves one resolved algebra plan ([`mpc_sparql::parse`] →
    /// [`mpc_sparql::Algebra::resolve`], or [`ResolvedPlan::from_bgp`]
    /// for a bare BGP) — the one way into the serving layer. The answer
    /// is byte-identical to this call with [`ExecRequest::cached`]`(false)`
    /// at any thread count. Against [`DistributedEngine::run_plan`] on the
    /// same request it is equal as a bag, with equal `vars`, unless a
    /// `Slice` cuts an order with ties: then it is a sub-bag of the
    /// unsliced answer with the right row count (see the [module
    /// docs](self)). On a hit, `stats` are those of the execution that
    /// populated the entry.
    ///
    /// Misses execute the **canonical** plan (so hits restore cached
    /// rows verbatim — the resolver's root projection makes original
    /// and canonical output columns correspond pointwise). Requests with
    /// a fault layer pass straight through to
    /// [`DistributedEngine::run_plan`] on the original plan, uncached.
    ///
    /// Counters (when `req.recorder` is live): `serve.plan.hit` /
    /// `serve.plan.miss` for the canonicalization memo and
    /// `serve.cache.hit` / `serve.cache.miss` / `serve.cache.evict` for
    /// the result cache. Fault-layer pass-throughs record neither.
    pub fn serve_plan(
        &self,
        plan: &ResolvedPlan,
        req: &ExecRequest,
        dict: &Dictionary,
    ) -> Result<ExecOutcome, SiteError> {
        // Chaos requests pass through uncached so the engine's query
        // sequence advances exactly as it would without a front end.
        if req.fault.is_some() {
            return self.inner.run_plan(plan, req, dict);
        }
        let rec = &req.recorder;
        let canon = self.canonical(plan, rec);
        // Key and shard are only worked out for requests that may use them.
        let slot = (req.cached && self.cache_capacity > 0).then(|| {
            let root = &canon.plan.root;
            let shard = &self.shards[self.shard_index(root)];
            let key = (root.clone(), req.mode == ExecMode::CrossingAware, self.epoch());
            (key, shard)
        });
        if let Some((key, shard)) = &slot {
            let hit = shard.lock().get(key);
            if let Some((rows, stats)) = hit {
                rec.incr("serve.cache.hit");
                let rows = canon.restore_bindings(Bindings::clone(&rows));
                return Ok(complete_outcome(rows, stats));
            }
            rec.incr("serve.cache.miss");
        }
        let (partial, stats) = self.inner.run_plan(&canon.plan, req, dict)?.into_parts();
        if let Some((key, shard)) = slot {
            let evicted = shard.lock().insert(key, (compact_copy(&partial.rows), stats));
            if evicted {
                rec.incr("serve.cache.evict");
            }
        }
        Ok(complete_outcome(canon.restore_bindings(partial.rows), stats))
    }

    /// Canonicalization memo lookup (`serve.plan.*`): blanks the
    /// variable names (they are presentation, not semantics — resolve
    /// assigns ids by occurrence position, so renamed spellings are
    /// structurally identical) and memoizes the labeling search.
    fn canonical(&self, plan: &ResolvedPlan, rec: &Recorder) -> Arc<CanonicalPlan> {
        let key = strip_var_names(plan);
        if let Some(canon) = self.memo.lock().get(&key) {
            rec.incr("serve.plan.hit");
            return canon;
        }
        rec.incr("serve.plan.miss");
        let canon = Arc::new(canonicalize_plan(&key));
        self.memo.lock().insert(key, canon.clone());
        canon
    }

    /// The shard owning a canonical plan root: Fx hash of the root, mod
    /// the shard count (mode and epoch excluded, so every variant of one
    /// plan shape colocates).
    // The modulus is a usize shard count, so the remainder fits.
    #[allow(clippy::cast_possible_truncation)]
    fn shard_index(&self, root: &PlanNode) -> usize {
        let mut h = FxHasher::default();
        root.hash(&mut h);
        (h.finish() % self.shards.len() as u64) as usize
    }
}

/// A copy of `plan` with every variable name (root and BGP-leaf) set to
/// the empty string — the memo key under which renamed spellings meet.
fn strip_var_names(plan: &ResolvedPlan) -> ResolvedPlan {
    fn strip_node(node: &mut PlanNode) {
        match node {
            PlanNode::Bgp { query, .. } => {
                query.var_names = vec![String::new(); query.var_names.len()];
            }
            PlanNode::Empty { .. } => {}
            PlanNode::Join(l, r) | PlanNode::LeftJoin(l, r) | PlanNode::Union(l, r) => {
                strip_node(l);
                strip_node(r);
            }
            PlanNode::Filter(c, _)
            | PlanNode::Distinct(c)
            | PlanNode::OrderBy(c, _)
            | PlanNode::Slice(c, _, _)
            | PlanNode::Project(c, _) => strip_node(c),
        }
    }
    let mut stripped = plan.clone();
    stripped.var_names = vec![String::new(); stripped.var_names.len()];
    strip_node(&mut stripped.root);
    stripped
}

/// The copy of a freshly computed table that the cache keeps. The
/// original goes back to the caller: its rows were allocated between the
/// pipeline's temporaries, so holding *them* would pin those pages after
/// the temporaries are freed, while a copy made now is laid out together
/// and sized exactly.
fn compact_copy(rows: &Bindings) -> Arc<Bindings> {
    Arc::new(rows.clone())
}

/// Wraps bindings from a request without a fault layer (always
/// complete) into an outcome.
fn complete_outcome(rows: Bindings, stats: ExecutionStats) -> ExecOutcome {
    ExecOutcome {
        bindings: PartialBindings {
            rows,
            complete: true,
            failed_sites: Vec::new(),
        },
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coordinator::FaultSpec;
    use crate::fault::{FaultKind, FaultPlan, ScriptedFault};
    use crate::network::NetworkModel;
    use crate::retry::RetryPolicy;
    use mpc_core::{MpcConfig, MpcPartitioner, Partitioner};
    use mpc_rdf::{PropertyId, RdfGraph, Triple, VertexId};
    use mpc_sparql::{eval_plan_local, LocalStore, QLabel, QNode, Query, TriplePattern};

    fn t(s: u32, p: u32, o: u32) -> Triple {
        Triple::new(VertexId(s), PropertyId(p), VertexId(o))
    }

    fn v(i: u32) -> QNode {
        QNode::Var(i)
    }

    fn prop(i: u32) -> QLabel {
        QLabel::Prop(PropertyId(i))
    }

    fn q(patterns: Vec<TriplePattern>, nvars: u32) -> ResolvedPlan {
        let names = (0..nvars).map(|i| format!("v{i}")).collect();
        ResolvedPlan::from_bgp(Query::new(patterns, names))
    }

    fn dataset() -> RdfGraph {
        let mut triples = Vec::new();
        for i in 0..7 {
            triples.push(t(i, 0, i + 1));
        }
        for i in 8..15 {
            triples.push(t(i, 1, i + 1));
        }
        for j in 8..16 {
            triples.push(t(3, 2, j));
        }
        RdfGraph::from_raw(16, 3, triples)
    }

    fn engine(g: &RdfGraph) -> DistributedEngine {
        let part = MpcPartitioner::new(MpcConfig::with_k(2)).partition(g);
        DistributedEngine::build(g, &part, NetworkModel::free())
    }

    fn serve_engine(g: &RdfGraph, entries: usize) -> ServeEngine {
        ServeEngine::new(engine(g), entries)
    }

    /// Serves `plan` over `g`, which must be fault-free.
    fn served(
        engine: &ServeEngine,
        g: &RdfGraph,
        plan: &ResolvedPlan,
        req: &ExecRequest,
    ) -> Bindings {
        engine
            .serve_plan(plan, req, g.dictionary())
            .expect("fault-free serving is total")
            .bindings
            .rows
    }

    fn reference(g: &RdfGraph, plan: &ResolvedPlan) -> Bindings {
        eval_plan_local(plan, &LocalStore::from_graph(g), g.dictionary())
    }

    /// `rows` with its rows sorted: what a bag comparison looks at.
    fn bag(rows: &Bindings) -> Bindings {
        let mut out = rows.clone();
        out.rows.sort_unstable();
        out
    }

    fn path_query() -> ResolvedPlan {
        q(
            vec![
                TriplePattern::new(v(0), prop(0), v(1)),
                TriplePattern::new(v(1), prop(2), v(2)),
            ],
            3,
        )
    }

    /// The same BGP with its patterns reordered and its variables
    /// renamed: the columns still correspond pointwise.
    fn path_query_reordered() -> ResolvedPlan {
        let names = ["s", "m", "e"].map(String::from).to_vec();
        ResolvedPlan::from_bgp(Query::new(
            vec![
                TriplePattern::new(v(1), prop(2), v(2)),
                TriplePattern::new(v(0), prop(0), v(1)),
            ],
            names,
        ))
    }

    /// The same BGP numbered from the middle vertex: `SELECT *` over it
    /// answers (?mid, ?start, ?end), so it is a different plan.
    fn path_query_renumbered() -> ResolvedPlan {
        q(
            vec![
                TriplePattern::new(v(0), prop(2), v(2)),
                TriplePattern::new(v(1), prop(0), v(0)),
            ],
            3,
        )
    }

    /// Serves `plan` twice cached and once uncached: the hit must be
    /// byte-identical to both, bag-equal to the centralized answer, and
    /// counted once in the result cache and twice in the memo.
    fn assert_hits_bit_identical(g: &RdfGraph, plan: &ResolvedPlan) {
        let serve = serve_engine(g, 8);
        let rec = Recorder::enabled();
        let req = ExecRequest::new().traced(&rec);
        let first = serve.serve_plan(plan, &req, g.dictionary()).unwrap();
        let second = serve.serve_plan(plan, &req, g.dictionary()).unwrap();
        let uncached = serve
            .serve_plan(plan, &req.clone().cached(false), g.dictionary())
            .unwrap();
        assert_eq!(first.rows(), second.rows());
        assert_eq!(first.rows(), uncached.rows());
        assert_eq!(first.stats.result_rows, second.stats.result_rows);
        assert_eq!(bag(first.rows()), bag(&reference(g, plan)));
        assert_eq!(rec.counter("serve.cache.miss"), Some(1));
        assert_eq!(rec.counter("serve.cache.hit"), Some(1));
        assert_eq!(rec.counter("serve.plan.miss"), Some(1));
        assert_eq!(rec.counter("serve.plan.hit"), Some(2));
        assert_eq!(serve.cache_len(), 1);
    }

    #[test]
    fn hits_are_bit_identical_to_uncached_and_counted() {
        assert_hits_bit_identical(&dataset(), &path_query());
    }

    #[test]
    fn plan_hits_are_bit_identical_to_uncached_and_counted() {
        let g = iri_dataset();
        let optional = plan_of(
            &g,
            "SELECT * WHERE { ?a <urn:p:0> ?b OPTIONAL { ?b <urn:p:2> ?c } } ORDER BY ?b",
        );
        assert_hits_bit_identical(&g, &optional);
    }

    #[test]
    fn respelled_queries_share_one_entry_and_restore_their_own_columns() {
        let g = dataset();
        let serve = serve_engine(&g, 8);
        let rec = Recorder::enabled();
        let req = ExecRequest::new().traced(&rec);
        let a = served(&serve, &g, &path_query(), &req);
        let b = served(&serve, &g, &path_query_reordered(), &req);
        assert_eq!(serve.cache_len(), 1, "one canonical entry for both spellings");
        assert_eq!(rec.counter("serve.cache.hit"), Some(1));
        assert_eq!(a, b);
        // Numbered from the middle, the columns come out in another
        // order: a second entry, answering with its own columns.
        let renumbered = path_query_renumbered();
        let c = served(&serve, &g, &renumbered, &req);
        assert_eq!(serve.cache_len(), 2);
        assert_eq!(bag(&c), bag(&reference(&g, &renumbered)));
    }

    #[test]
    fn renamed_plan_spellings_share_one_entry_and_columns() {
        let g = iri_dataset();
        let serve = serve_engine(&g, 8);
        let a = plan_of(
            &g,
            "SELECT ?x WHERE { ?x <urn:p:2> ?y FILTER(?x != ?y) } ORDER BY ?x",
        );
        let b = plan_of(
            &g,
            "SELECT ?s WHERE { ?s <urn:p:2> ?o FILTER(?s != ?o) } ORDER BY ?s",
        );
        let rec = Recorder::enabled();
        let req = ExecRequest::new().traced(&rec);
        let ra = served(&serve, &g, &a, &req);
        let rb = served(&serve, &g, &b, &req);
        assert_eq!(serve.cache_len(), 1, "renamed spellings share one entry");
        assert_eq!(rec.counter("serve.cache.hit"), Some(1));
        assert_eq!(rec.counter("serve.plan.hit"), Some(1), "memo shared too");
        assert_eq!(ra, rb);
        assert_eq!(ra, reference(&g, &a));
    }

    #[test]
    fn epoch_bump_invalidates_without_wrong_answers() {
        let g = dataset();
        let mut serve = serve_engine(&g, 8);
        let query = path_query();
        let rec = Recorder::enabled();
        let req = ExecRequest::new().traced(&rec);
        let before = served(&serve, &g, &query, &req);
        assert_eq!(serve.epoch(), 0);
        let next = EpochTransition::Repartition(Box::new(engine(&g)));
        assert_eq!(serve.transition(next), 1);
        assert_eq!(serve.epoch(), 1);
        // The stale entry is unaddressable: the next serve is a miss and
        // recomputes over the new engine.
        let after = served(&serve, &g, &query, &req);
        assert_eq!(rec.counter("serve.cache.miss"), Some(2));
        assert_eq!(rec.counter("serve.cache.hit"), None);
        assert_eq!(before, after);
        // And the new entry serves hits again.
        let _ = served(&serve, &g, &query, &req);
        assert_eq!(rec.counter("serve.cache.hit"), Some(1));
    }

    #[test]
    fn commit_flips_epoch_and_serves_the_post_commit_data() {
        let g = dataset();
        let part = MpcPartitioner::new(MpcConfig::with_k(2)).partition(&g);
        let mut eng = DistributedEngine::build(&g, &part, NetworkModel::free());
        eng.enable_updates(&g, &part, 0.1).unwrap();
        let mut serve = ServeEngine::new(eng, 8);
        let query = path_query();
        let rec = Recorder::enabled();
        let req = ExecRequest::new().traced(&rec);
        let before = served(&serve, &g, &query, &req);
        assert_eq!(serve.epoch(), 0);

        // (1,p0,2) exists, so inserting (2,p2,9) adds the row (1,2,9);
        // deleting (3,p2,8) removes (2,3,8).
        let mut batch = UpdateBatch::new();
        batch.insert(t(2, 2, 9)).delete(t(3, 2, 8));
        let report = serve
            .commit(&batch, &CommitOptions::default(), &rec)
            .unwrap();
        assert_eq!((report.inserted, report.deleted), (1, 1));
        assert_eq!(report.epoch, 1);
        assert_eq!(serve.epoch(), 1);
        assert_eq!(report.generation, None);

        // The pre-commit entry is unaddressable: a miss recomputes over
        // the committed data and matches a from-scratch rebuild.
        let after = served(&serve, &g, &query, &req);
        assert_eq!(rec.counter("serve.cache.miss"), Some(2));
        assert_eq!(rec.counter("serve.cache.hit"), None);
        assert_ne!(before, after);
        let (live_g, _) = serve.engine().live_dataset().unwrap();
        assert_eq!(bag(&after), bag(&reference(&live_g, &query)));
        // And the post-commit entry serves hits again, bit-identical to
        // the miss that filled it and to uncached serving.
        assert_eq!(served(&serve, &g, &query, &req), after);
        assert_eq!(rec.counter("serve.cache.hit"), Some(1));
        assert_eq!(rec.counter("update.commit"), Some(1));
        let uncached = served(&serve, &g, &query, &ExecRequest::new().cached(false));
        assert_eq!(uncached, after);
    }

    #[test]
    fn lru_evicts_the_least_recently_used_entry() {
        let g = dataset();
        let serve = serve_engine(&g, 2);
        let rec = Recorder::enabled();
        let req = ExecRequest::new().traced(&rec);
        let q0 = q(vec![TriplePattern::new(v(0), prop(0), v(1))], 2);
        let q1 = q(vec![TriplePattern::new(v(0), prop(1), v(1))], 2);
        let q2 = q(vec![TriplePattern::new(v(0), prop(2), v(1))], 2);
        let _ = served(&serve, &g, &q0, &req);
        let _ = served(&serve, &g, &q1, &req);
        let _ = served(&serve, &g, &q0, &req); // q0 recent, q1 is LRU
        let _ = served(&serve, &g, &q2, &req); // evicts q1
        assert_eq!(rec.counter("serve.cache.evict"), Some(1));
        assert_eq!(serve.cache_len(), 2);
        let hits_before = rec.counter("serve.cache.hit");
        let _ = served(&serve, &g, &q0, &req); // still cached
        assert_eq!(rec.counter("serve.cache.hit"), hits_before.map(|h| h + 1));
        let _ = served(&serve, &g, &q1, &req); // evicted → miss
        assert_eq!(rec.counter("serve.cache.miss"), Some(4));
    }

    #[test]
    fn zero_capacity_disables_the_result_cache() {
        let g = dataset();
        let serve = serve_engine(&g, 0);
        let query = path_query();
        let rec = Recorder::enabled();
        let req = ExecRequest::new().traced(&rec);
        let a = served(&serve, &g, &query, &req);
        let b = served(&serve, &g, &query, &req);
        assert_eq!(a, b);
        assert_eq!(serve.cache_len(), 0);
        assert_eq!(rec.counter("serve.cache.hit"), None);
        assert_eq!(rec.counter("serve.cache.miss"), None);
        // Canonicalization is still memoized.
        assert_eq!(rec.counter("serve.plan.hit"), Some(1));
    }

    #[test]
    fn memo_is_bounded_and_evicts_the_least_recent_plan() {
        let g = dataset();
        let serve = serve_engine(&g, 0);
        let rec = Recorder::enabled();
        let req = ExecRequest::new().traced(&rec);
        let first = path_query();
        let rows = served(&serve, &g, &first, &req);
        // MEMO_ENTRIES more distinct plans: the first one ages out.
        for limit in 0..MEMO_ENTRIES {
            let mut sliced = path_query();
            sliced.root = PlanNode::Slice(Box::new(sliced.root), 0, Some(limit));
            let _ = served(&serve, &g, &sliced, &req);
        }
        assert!(serve.memo.lock().entries.len() <= MEMO_ENTRIES);
        let misses = rec.counter("serve.plan.miss");
        assert_eq!(misses, Some(MEMO_ENTRIES as u64 + 1));
        assert_eq!(served(&serve, &g, &first, &req), rows);
        assert_eq!(rec.counter("serve.plan.miss"), misses.map(|m| m + 1));
        assert_eq!(rec.counter("serve.plan.hit"), None);
    }

    #[test]
    fn modes_cache_separately_but_agree_on_rows() {
        let g = dataset();
        let serve = serve_engine(&g, 8);
        let query = path_query();
        let a = served(&serve, &g, &query, &ExecRequest::new().mode(ExecMode::CrossingAware));
        let b = served(&serve, &g, &query, &ExecRequest::new().mode(ExecMode::StarOnly));
        assert_eq!(serve.cache_len(), 2);
        assert_eq!(bag(&a), bag(&b));
    }

    #[test]
    fn default_engine_is_single_shard() {
        let g = dataset();
        let serve = serve_engine(&g, 8);
        assert_eq!(serve.shard_count(), 1);
        assert_eq!(serve.cache_capacity(), 8);
    }

    #[test]
    fn sharded_cache_is_bit_identical_and_counts_match_recorder() {
        let g = dataset();
        let single = serve_engine(&g, 16);
        let sharded = ServeEngine::with_shards(engine(&g), 16, 4);
        assert_eq!(sharded.shard_count(), 4);
        let rec = Recorder::enabled();
        let req = ExecRequest::new().traced(&rec);
        let queries = [
            q(vec![TriplePattern::new(v(0), prop(0), v(1))], 2),
            q(vec![TriplePattern::new(v(0), prop(1), v(1))], 2),
            q(vec![TriplePattern::new(v(0), prop(2), v(1))], 2),
            path_query(),
            path_query_reordered(),
        ];
        for round in 0..3 {
            for query in &queries {
                let a = served(&single, &g, query, &ExecRequest::new());
                let b = served(&sharded, &g, query, &req);
                assert_eq!(a, b, "round {round}");
                assert_eq!(bag(&b), bag(&reference(&g, query)), "round {round}");
            }
        }
        // 4 canonical entries (the two path spellings share one), each
        // missed once and hit on every later arrival.
        assert_eq!(sharded.cache_len(), 4);
        let totals = sharded.shard_stats().into_iter().fold(
            ShardStats::default(),
            |mut acc, s| {
                acc.entries += s.entries;
                acc.hits += s.hits;
                acc.misses += s.misses;
                acc.evictions += s.evictions;
                acc
            },
        );
        assert_eq!(totals.entries, 4);
        assert_eq!(Some(totals.hits), rec.counter("serve.cache.hit"));
        assert_eq!(Some(totals.misses), rec.counter("serve.cache.miss"));
        assert_eq!(totals.misses, 4);
        assert_eq!(totals.evictions, 0);
    }

    #[test]
    fn epoch_bump_invalidates_every_shard() {
        let g = dataset();
        let mut sharded = ServeEngine::with_shards(engine(&g), 16, 4);
        let rec = Recorder::enabled();
        let req = ExecRequest::new().traced(&rec);
        let queries = [
            q(vec![TriplePattern::new(v(0), prop(0), v(1))], 2),
            q(vec![TriplePattern::new(v(0), prop(1), v(1))], 2),
            path_query(),
        ];
        let before: Vec<_> = queries
            .iter()
            .map(|query| served(&sharded, &g, query, &req))
            .collect();
        sharded.transition(EpochTransition::Repartition(Box::new(engine(&g))));
        for (query, old) in queries.iter().zip(&before) {
            assert_eq!(&served(&sharded, &g, query, &req), old);
        }
        // All 6 serves were misses: the epoch bump made every shard's
        // entries unaddressable at once.
        assert_eq!(rec.counter("serve.cache.miss"), Some(6));
        assert_eq!(rec.counter("serve.cache.hit"), None);
    }

    #[test]
    fn per_shard_capacity_rounds_up_and_zero_disables() {
        let g = dataset();
        // 5 entries over 2 shards → 3 per shard, effective 6 total.
        let sharded = ServeEngine::with_shards(engine(&g), 5, 2);
        assert_eq!(sharded.cache_capacity(), 5);
        let off = ServeEngine::with_shards(engine(&g), 0, 4);
        let rec = Recorder::enabled();
        let req = ExecRequest::new().traced(&rec);
        let _ = served(&off, &g, &path_query(), &req);
        let _ = served(&off, &g, &path_query(), &req);
        assert_eq!(off.cache_len(), 0);
        assert_eq!(rec.counter("serve.cache.hit"), None);
        assert!(off.shard_stats().iter().all(|s| *s == ShardStats::default()));
    }

    /// A dictionary-backed graph for plan serving (parsed queries need
    /// resolvable IRIs).
    fn iri_dataset() -> RdfGraph {
        let mut b = mpc_rdf::GraphBuilder::new();
        for i in 0..7 {
            b.add_iris(&format!("urn:v:{i}"), "urn:p:0", &format!("urn:v:{}", i + 1));
        }
        for j in 8..16 {
            b.add_iris("urn:v:3", "urn:p:2", &format!("urn:v:{j}"));
        }
        b.build()
    }

    fn plan_of(g: &RdfGraph, text: &str) -> ResolvedPlan {
        mpc_sparql::parse(text)
            .expect("test query parses")
            .resolve(g.dictionary())
            .expect("test query resolves")
    }

    #[test]
    fn distinct_plans_cache_apart_from_their_bag_forms() {
        let g = iri_dataset();
        let serve = serve_engine(&g, 8);
        let bag_form = plan_of(
            &g,
            "SELECT ?a WHERE { { ?a <urn:p:2> ?b } UNION { ?a <urn:p:2> ?c } }",
        );
        let set = plan_of(
            &g,
            "SELECT DISTINCT ?a WHERE { { ?a <urn:p:2> ?b } UNION { ?a <urn:p:2> ?c } }",
        );
        let req = ExecRequest::new();
        let rb = served(&serve, &g, &bag_form, &req);
        let rs = served(&serve, &g, &set, &req);
        assert_eq!(serve.cache_len(), 2, "bag and set forms are distinct keys");
        assert!(rb.len() > rs.len(), "UNION duplicates survive without DISTINCT");
    }

    /// `LIMIT` over an order with ties: the canonical run may keep other
    /// tied rows than `run_plan` does, so the served answer is only a
    /// sub-bag of the unsliced answer — of the right size, with the
    /// requester's columns, and the same whether cached or not.
    #[test]
    fn limit_over_ties_serves_a_sub_bag_of_the_right_size() {
        let mut b = mpc_rdf::GraphBuilder::new();
        for i in 1..=3 {
            b.add_iris("urn:v:h", "urn:p:1", &format!("urn:v:a{i}"));
            b.add_iris("urn:v:h", "urn:p:2", &format!("urn:v:b{i}"));
        }
        let g = b.build();
        let body = "SELECT * WHERE { ?h <urn:p:2> ?b . ?h <urn:p:1> ?a }";
        let unsliced = bag(&reference(&g, &plan_of(&g, body)));
        assert_eq!(unsliced.len(), 9);
        for modifiers in [" LIMIT 2", " ORDER BY ?h LIMIT 2", " OFFSET 3 LIMIT 4"] {
            let plan = plan_of(&g, &format!("{body}{modifiers}"));
            let serve = serve_engine(&g, 8);
            let cached = served(&serve, &g, &plan, &ExecRequest::new());
            let again = served(&serve, &g, &plan, &ExecRequest::new());
            let uncached = served(&serve, &g, &plan, &ExecRequest::new().cached(false));
            assert_eq!(cached, again, "{modifiers}");
            assert_eq!(cached, uncached, "{modifiers}");
            let direct = serve
                .engine()
                .run_plan(&plan, &ExecRequest::new(), g.dictionary())
                .unwrap();
            assert_eq!(cached.vars, direct.rows().vars, "{modifiers}");
            assert_eq!(cached.len(), direct.rows().len(), "{modifiers}");
            let mut left = unsliced.rows.clone();
            for row in &cached.rows {
                let at = left.iter().position(|r| r == row);
                assert!(at.is_some(), "{modifiers}: row {row:?} is not in the answer");
                left.swap_remove(at.unwrap_or_default());
            }
        }
    }

    #[test]
    fn chaos_plan_requests_pass_through_uncached() {
        let g = iri_dataset();
        let serve = serve_engine(&g, 8);
        let plan = plan_of(&g, "SELECT * WHERE { ?a <urn:p:0> ?b }");
        let req = ExecRequest::new().fault(FaultSpec {
            plan: FaultPlan::none(),
            policy: RetryPolicy::default(),
            replicas: 0,
            graceful: true,
        });
        let rec = Recorder::enabled();
        let _ = serve
            .serve_plan(&plan, &req.traced(&rec), g.dictionary())
            .unwrap();
        assert_eq!(serve.cache_len(), 0, "chaos plan results must never be cached");
        assert_eq!(rec.counter("serve.cache.miss"), None);
    }

    #[test]
    fn chaos_requests_pass_through_uncached_in_lockstep() {
        let g = dataset();
        let query = path_query();
        let custom = || FaultSpec {
            plan: FaultPlan {
                scripted: vec![ScriptedFault {
                    fragment: Some(0),
                    host: Some(0),
                    kind: FaultKind::Crash,
                    first_attempts: 1,
                }],
                ..FaultPlan::none()
            },
            policy: RetryPolicy::default(),
            replicas: 0,
            graceful: false,
        };
        let serve = serve_engine(&g, 8);
        let bare = engine(&g);
        let rec = Recorder::enabled();
        for round in 0..3 {
            let req = ExecRequest::new().fault(custom());
            let via_serve = serve
                .serve_plan(&query, &req.clone().traced(&rec), g.dictionary())
                .unwrap();
            let via_bare = bare.run_plan(&query, &req, g.dictionary()).unwrap();
            assert_eq!(via_serve.rows(), via_bare.rows(), "round {round}");
            assert_eq!(
                via_serve.stats.faults, via_bare.stats.faults,
                "query_seq must stay in lockstep (round {round})"
            );
        }
        assert_eq!(serve.cache_len(), 0, "chaos results must never be cached");
        assert_eq!(rec.counter("serve.cache.miss"), None);
        assert_eq!(rec.counter("serve.plan.miss"), None);
    }
}
