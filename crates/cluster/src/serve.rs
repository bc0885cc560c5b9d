//! The workload serving layer: canonical query keys, a memoized
//! canonicalization step, and a bounded, **sharded** LRU result cache
//! with epoch invalidation (docs/SERVING.md).
//!
//! A served workload repeats the same query templates with cosmetic
//! variation — renamed variables, reordered patterns, re-parsed
//! whitespace. [`ServeEngine`] wraps a [`DistributedEngine`] and answers
//! such repeats from a result cache keyed by the *canonical* form of the
//! query ([`mpc_sparql::canonicalize`]) plus the engine's **partition
//! epoch**: every repartition bumps the epoch, so entries computed over
//! a stale partitioning can never be returned — they simply stop being
//! addressable and age out of the LRU.
//!
//! The cache is split into `K` independently mutex-guarded shards
//! ([`ServeEngine::with_shards`]), each a bounded LRU over its slice of
//! the capacity. A query's shard is the Fx hash of its canonical pattern
//! list, so every spelling of a BGP — and every epoch and mode variant
//! of it — lands in the same shard, and concurrent workers (the
//! `mpc-server` front end) contend only when they touch the same slice
//! of the key space. `K = 1` (the [`ServeEngine::new`] default) is
//! exactly the single-owner LRU this layer shipped with.
//!
//! The contract is strict: a cache hit returns bindings **bit-identical**
//! to what an uncached execution of the same request would return
//! (pinned by the `serving_*` proptests in this crate). Three rules keep
//! that contract cheap to trust:
//!
//! * misses execute the *canonical* query and store a copy of its
//!   canonical bindings; hits restore the requester's variable numbering
//!   via [`mpc_sparql::CanonicalQuery::restore_bindings`] — a pure
//!   column permutation, so no cached row is ever reinterpreted;
//! * requests with an effective fault layer pass straight through to
//!   [`DistributedEngine::run`], uncached — fault decisions are keyed on
//!   the engine's query sequence, and a cache hit would desynchronize
//!   it (and a degraded answer must never be replayed as authoritative);
//! * [`ExecRequest::cached`]`(false)` forces a full execution along the
//!   exact same canonical path, so the only difference is the cache.
use crate::coordinator::{DistributedEngine, ExecMode, ExecOutcome, ExecRequest, PartialBindings};
use crate::fault::SiteError;
use crate::stats::ExecutionStats;
use crate::update::{CommitError, CommitReport, UpdateBatch};
use mpc_obs::Recorder;
use mpc_rdf::{Dictionary, FxHashMap, FxHasher};
use mpc_sparql::{
    canonicalize, canonicalize_plan, Bindings, CanonicalPlan, CanonicalQuery, PlanNode, Query,
    ResolvedPlan, TriplePattern,
};
use parking_lot::Mutex;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A result-cache address: canonical pattern list, canonical variable
/// count, crossing-aware mode flag, and the partition epoch the entry
/// was computed under.
type ResultKey = (Vec<TriplePattern>, usize, bool, u64);

/// A raw spelling as the canonicalization memo sees it: the query's
/// pattern list plus its variable count.
type RawKey = (Vec<TriplePattern>, usize);

/// A plan-result-cache address: the *canonical* plan root, the
/// crossing-aware mode flag, and the partition epoch. The canonical
/// root subsumes patterns, operators, filters, and modifiers, so two
/// requests share an entry exactly when [`canonicalize_plan`] maps them
/// to one shape.
type PlanResultKey = (PlanNode, bool, u64);

/// One cached execution: the canonical bindings plus the stats of the
/// run that populated the entry. The table is shared, so a hit leaves
/// the shard lock holding a reference and copies the rows outside it.
struct CacheEntry {
    stamp: u64,
    rows: Arc<Bindings>,
    stats: ExecutionStats,
}

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

/// A bounded LRU keyed by `K` ([`ResultKey`] for BGP serving,
/// [`PlanResultKey`] for algebra plans). Recency is a monotone stamp
/// bumped on every touch; eviction removes the minimum stamp. The O(n)
/// eviction scan is deliberate — capacities are small (hundreds), and
/// the determinism argument ("unique monotone stamps, unique victim")
/// stays one sentence long. One instance is one **shard**; the
/// [`ServeEngine`] owns `K` of them behind independent mutexes.
struct ResultCache<K> {
    capacity: usize,
    tick: u64,
    entries: FxHashMap<K, CacheEntry>,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl<K: Eq + Hash + Clone> ResultCache<K> {
    fn new(capacity: usize) -> Self {
        ResultCache {
            capacity,
            tick: 0,
            entries: FxHashMap::default(),
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    fn get(&mut self, key: &K) -> Option<(Arc<Bindings>, ExecutionStats)> {
        self.tick += 1;
        let tick = self.tick;
        let Some(entry) = self.entries.get_mut(key) else {
            self.misses += 1;
            return None;
        };
        self.hits += 1;
        entry.stamp = tick;
        Some((entry.rows.clone(), entry.stats))
    }

    /// Inserts, evicting the least-recently-used entry when full.
    /// Returns true when an eviction happened.
    fn insert(&mut self, key: K, rows: Arc<Bindings>, stats: ExecutionStats) -> bool {
        self.tick += 1;
        let mut evicted = false;
        if !self.entries.contains_key(&key) && self.entries.len() >= self.capacity {
            let victim = self
                .entries
                .iter()
                .min_by_key(|(_, e)| e.stamp)
                .map(|(k, _)| k.clone());
            if let Some(victim) = victim {
                self.entries.remove(&victim);
                self.evictions += 1;
                evicted = true;
            }
        }
        self.entries.insert(
            key,
            CacheEntry {
                stamp: self.tick,
                rows,
                stats,
            },
        );
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
#[derive(Default)]
pub enum EpochTransition {
    /// Invalidate every cached result without touching the engine — for
    /// in-place mutations of partition-dependent engine state (e.g.
    /// toggling semijoin reduction). Epoch advances by one.
    #[default]
    Invalidate,
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

/// A query-serving front end over a [`DistributedEngine`]: canonical
/// keys, memoized canonicalization, and a bounded result cache that the
/// partition epoch invalidates wholesale. See the [module docs](self)
/// for the bit-identical contract.
///
/// ```
/// # use mpc_cluster::{DistributedEngine, ExecRequest, NetworkModel, ServeEngine};
/// # use mpc_core::{MpcConfig, MpcPartitioner, Partitioner};
/// # use mpc_rdf::{PropertyId, RdfGraph, Triple, VertexId};
/// # use mpc_sparql::{QLabel, QNode, Query, TriplePattern};
/// # let g = RdfGraph::from_raw(4, 1, vec![Triple::new(VertexId(0), PropertyId(0), VertexId(1))]);
/// # let part = MpcPartitioner::new(MpcConfig::with_k(2)).partition(&g);
/// let engine = DistributedEngine::build(&g, &part, NetworkModel::free());
/// let serve = ServeEngine::new(engine, 128);
/// let query = Query::new(
///     vec![TriplePattern::new(QNode::Var(0), QLabel::Prop(PropertyId(0)), QNode::Var(1))],
///     vec!["s".into(), "o".into()],
/// );
/// let first = serve.serve(&query, &ExecRequest::new()).unwrap();
/// let again = serve.serve(&query, &ExecRequest::new()).unwrap(); // cache hit
/// assert_eq!(first.rows(), again.rows());
/// ```
pub struct ServeEngine {
    inner: DistributedEngine,
    /// The partition epoch: a component of every result-cache key.
    /// Moved by [`Self::commit`] / [`Self::transition`], which makes
    /// every existing entry unaddressable at once.
    epoch: AtomicU64,
    /// Canonicalization memo: raw (patterns, var count) → the canonical
    /// query and the restore map. Pure function of the query, so never
    /// invalidated (unbounded, like the engine's own plan cache).
    canon_memo: Mutex<FxHashMap<RawKey, Arc<CanonicalQuery>>>,
    /// Plan canonicalization memo for [`Self::serve_plan`]: the raw
    /// plan with variable names blanked (renamed spellings share an
    /// entry) → its [`CanonicalPlan`]. Pure, so never invalidated.
    plan_memo: Mutex<FxHashMap<ResolvedPlan, Arc<CanonicalPlan>>>,
    /// The sharded result cache: each shard is an independent bounded
    /// LRU behind its own mutex. A query's shard is the Fx hash of its
    /// canonical pattern list (epoch and mode excluded, so every
    /// variant of one BGP shares a shard).
    shards: Vec<Mutex<ResultCache<ResultKey>>>,
    /// The algebra-plan result cache, sharded like `shards` (one shard
    /// per index, same per-shard capacity). Keyed by canonical plan
    /// root, so it holds OPTIONAL / UNION / ORDER BY results the
    /// pattern-list key cannot address.
    plan_shards: Vec<Mutex<ResultCache<PlanResultKey>>>,
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
            canon_memo: Mutex::new(FxHashMap::default()),
            plan_memo: Mutex::new(FxHashMap::default()),
            shards: (0..shards)
                .map(|_| Mutex::new(ResultCache::new(per_shard)))
                .collect(),
            plan_shards: (0..shards)
                .map(|_| Mutex::new(ResultCache::new(per_shard)))
                .collect(),
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
    /// unaddressable at once. The canonicalization memos survive every
    /// transition: they are partition-independent pure functions.
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
            EpochTransition::Invalidate => {
                // ordering: AcqRel — the release half publishes the
                // in-place engine mutations that motivated the bump; the
                // acquire half orders the bump against later cache fills.
                self.epoch.fetch_add(1, Ordering::AcqRel) + 1
            }
            EpochTransition::Repartition(inner) => {
                self.inner = *inner;
                // ordering: AcqRel, as for `Invalidate` — publishes the
                // engine replacement.
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

    /// Number of live result-cache entries across all shards of both
    /// key spaces (stale epochs included until they age out).
    pub fn cache_len(&self) -> usize {
        let bgp: usize = self.shards.iter().map(|s| s.lock().entries.len()).sum();
        let plan: usize = self.plan_shards.iter().map(|p| p.lock().entries.len()).sum();
        bgp + plan
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
    /// totals, in shard order (each index sums the BGP and plan caches'
    /// shard at that index). Each shard is snapshotted under its own
    /// lock; the vector as a whole is not one atomic observation.
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        self.shards
            .iter()
            .zip(&self.plan_shards)
            .map(|(a, b)| {
                let (a, b) = (a.lock().stats(), b.lock().stats());
                ShardStats {
                    entries: a.entries + b.entries,
                    hits: a.hits + b.hits,
                    misses: a.misses + b.misses,
                    evictions: a.evictions + b.evictions,
                }
            })
            .collect()
    }

    /// The shard owning a canonical query: Fx hash of the canonical
    /// pattern list + var count, mod the shard count. Mode and epoch are
    /// deliberately excluded so every variant of one BGP colocates.
    // The modulus is a usize shard count, so the remainder fits.
    #[allow(clippy::cast_possible_truncation)]
    fn shard_for(&self, canon: &CanonicalQuery) -> usize {
        let mut h = FxHasher::default();
        canon.query.patterns.hash(&mut h);
        canon.query.var_count().hash(&mut h);
        (h.finish() % self.shards.len() as u64) as usize
    }

    /// Serves one request. Identical in results to
    /// [`DistributedEngine::run`] on the same request — the cache can
    /// change only *when* work happens, never what comes back. On a hit,
    /// `stats` are those of the execution that populated the entry.
    ///
    /// Counters (when `req.recorder` is live): `serve.plan.hit` /
    /// `serve.plan.miss` for the canonicalization memo and
    /// `serve.cache.hit` / `serve.cache.miss` / `serve.cache.evict` for
    /// the result cache. Fault-layer pass-throughs record neither.
    pub fn serve(&self, query: &Query, req: &ExecRequest) -> Result<ExecOutcome, SiteError> {
        // Chaos requests pass through uncached so the engine's query
        // sequence advances exactly as it would without a front end.
        if self.inner.fault_effective(req) {
            return self.inner.run(query, req);
        }
        let rec = &req.recorder;
        let canon = self.lookup_canon(query, rec);
        // Key and shard are only worked out for requests that may use them.
        let slot = (req.cached && self.cache_capacity > 0).then(|| {
            let key = (
                canon.query.patterns.clone(),
                canon.query.var_count(),
                req.mode == ExecMode::CrossingAware,
                self.epoch(),
            );
            (key, &self.shards[self.shard_for(&canon)])
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
        let (partial, stats) = self.inner.run(&canon.query, req)?.into_parts();
        if let Some((key, shard)) = slot {
            let evicted = shard.lock().insert(key, compact_copy(&partial.rows), stats);
            if evicted {
                rec.incr("serve.cache.evict");
            }
        }
        Ok(complete_outcome(canon.restore_bindings(partial.rows), stats))
    }

    /// Canonicalization memo lookup (`serve.plan.*`). Keyed by the raw
    /// pattern list so every spelling pays the labeling search once.
    fn lookup_canon(&self, query: &Query, rec: &Recorder) -> Arc<CanonicalQuery> {
        let key = (query.patterns.clone(), query.var_count());
        if let Some(canon) = self.canon_memo.lock().get(&key) {
            rec.incr("serve.plan.hit");
            return canon.clone();
        }
        rec.incr("serve.plan.miss");
        let canon = Arc::new(canonicalize(query));
        self.canon_memo.lock().insert(key, canon.clone());
        canon
    }

    /// Serves one resolved algebra plan ([`mpc_sparql::parse`] →
    /// [`mpc_sparql::Algebra::resolve`]) — the plan-level counterpart of
    /// [`Self::serve`], and the path `mpc serve` / `mpc-server` use.
    /// Identical in results to [`DistributedEngine::run_plan`] on the
    /// same request; the same `serve.plan.*` / `serve.cache.*` counters
    /// apply.
    ///
    /// Misses execute the **canonical** plan (so hits restore cached
    /// rows verbatim — the resolver's root projection makes original
    /// and canonical output columns correspond pointwise), and requests
    /// with an effective fault layer pass straight through to the
    /// engine, uncached, exactly like BGP serving.
    pub fn serve_plan(
        &self,
        plan: &ResolvedPlan,
        req: &ExecRequest,
        dict: &Dictionary,
    ) -> Result<ExecOutcome, SiteError> {
        if self.inner.fault_effective(req) {
            return self.inner.run_plan(plan, req, dict);
        }
        let rec = &req.recorder;
        let canon = self.lookup_plan_canon(plan, rec);
        // Key and shard are only worked out for requests that may use them.
        let slot = (req.cached && self.cache_capacity > 0).then(|| {
            let key = (
                canon.plan.root.clone(),
                req.mode == ExecMode::CrossingAware,
                self.epoch(),
            );
            (
                key,
                &self.plan_shards[self.plan_shard_for(&canon.plan.root)],
            )
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
            let evicted = shard.lock().insert(key, compact_copy(&partial.rows), stats);
            if evicted {
                rec.incr("serve.cache.evict");
            }
        }
        Ok(complete_outcome(canon.restore_bindings(partial.rows), stats))
    }

    /// Plan canonicalization memo lookup (`serve.plan.*`): blanks the
    /// variable names (they are presentation, not semantics — resolve
    /// assigns ids by occurrence position, so renamed spellings are
    /// structurally identical) and memoizes the labeling search.
    fn lookup_plan_canon(&self, plan: &ResolvedPlan, rec: &Recorder) -> Arc<CanonicalPlan> {
        let key = strip_var_names(plan);
        if let Some(canon) = self.plan_memo.lock().get(&key) {
            rec.incr("serve.plan.hit");
            return canon.clone();
        }
        rec.incr("serve.plan.miss");
        let canon = Arc::new(canonicalize_plan(&key));
        self.plan_memo.lock().insert(key, canon.clone());
        canon
    }

    /// The plan-cache shard owning a canonical plan root: Fx hash of
    /// the root, mod the shard count (mode and epoch excluded, so every
    /// variant of one plan shape colocates).
    // The modulus is a usize shard count, so the remainder fits.
    #[allow(clippy::cast_possible_truncation)]
    fn plan_shard_for(&self, root: &PlanNode) -> usize {
        let mut h = FxHasher::default();
        root.hash(&mut h);
        (h.finish() % self.plan_shards.len() as u64) as usize
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
    use mpc_sparql::{evaluate, LocalStore, QLabel, QNode};

    fn t(s: u32, p: u32, o: u32) -> Triple {
        Triple::new(VertexId(s), PropertyId(p), VertexId(o))
    }

    fn v(i: u32) -> QNode {
        QNode::Var(i)
    }

    fn prop(i: u32) -> QLabel {
        QLabel::Prop(PropertyId(i))
    }

    fn q(patterns: Vec<TriplePattern>, nvars: u32) -> Query {
        Query::new(patterns, (0..nvars).map(|i| format!("v{i}")).collect())
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

    fn reference(g: &RdfGraph, query: &Query) -> Bindings {
        evaluate(query, &LocalStore::from_graph(g))
    }

    fn path_query() -> Query {
        q(
            vec![
                TriplePattern::new(v(0), prop(0), v(1)),
                TriplePattern::new(v(1), prop(2), v(2)),
            ],
            3,
        )
    }

    /// The same BGP with variables renamed and patterns reordered.
    fn path_query_respelled() -> Query {
        q(
            vec![
                TriplePattern::new(v(0), prop(2), v(2)),
                TriplePattern::new(v(1), prop(0), v(0)),
            ],
            3,
        )
        // ?1 -p0-> ?0 -p2-> ?2 : same shape, different spelling. The
        // canonical answer restores to THIS query's variable numbering.
    }

    #[test]
    fn hits_are_bit_identical_to_uncached_and_counted() {
        let g = dataset();
        let serve = serve_engine(&g, 8);
        let query = path_query();
        let rec = Recorder::enabled();
        let req = ExecRequest::new().traced(&rec);
        let first = serve.serve(&query, &req).unwrap();
        let second = serve.serve(&query, &req).unwrap();
        let uncached = serve.serve(&query, &req.clone().cached(false)).unwrap();
        assert_eq!(first.rows(), second.rows());
        assert_eq!(first.rows(), uncached.rows());
        assert_eq!(first.rows(), &reference(&g, &query));
        assert_eq!(rec.counter("serve.cache.miss"), Some(1));
        assert_eq!(rec.counter("serve.cache.hit"), Some(1));
        assert_eq!(rec.counter("serve.plan.miss"), Some(1));
        assert_eq!(rec.counter("serve.plan.hit"), Some(2));
        assert_eq!(serve.cache_len(), 1);
    }

    #[test]
    fn respelled_queries_share_one_entry_and_restore_their_own_columns() {
        let g = dataset();
        let serve = serve_engine(&g, 8);
        let rec = Recorder::enabled();
        let req = ExecRequest::new().traced(&rec);
        let a = serve.serve(&path_query(), &req).unwrap();
        let b = serve.serve(&path_query_respelled(), &req).unwrap();
        assert_eq!(serve.cache_len(), 1, "one canonical entry for both spellings");
        assert_eq!(rec.counter("serve.cache.hit"), Some(1));
        assert_eq!(a.rows(), &reference(&g, &path_query()));
        assert_eq!(b.rows(), &reference(&g, &path_query_respelled()));
    }

    #[test]
    fn epoch_bump_invalidates_without_wrong_answers() {
        let g = dataset();
        let mut serve = serve_engine(&g, 8);
        let query = path_query();
        let rec = Recorder::enabled();
        let req = ExecRequest::new().traced(&rec);
        let before = serve.serve(&query, &req).unwrap();
        assert_eq!(serve.epoch(), 0);
        assert_eq!(serve.transition(EpochTransition::Repartition(Box::new(engine(&g)))), 1);
        assert_eq!(serve.epoch(), 1);
        // The stale entry is unaddressable: the next serve is a miss and
        // recomputes over the new engine.
        let after = serve.serve(&query, &req).unwrap();
        assert_eq!(rec.counter("serve.cache.miss"), Some(2));
        assert_eq!(rec.counter("serve.cache.hit"), None);
        assert_eq!(before.rows(), after.rows());
        // And the new entry serves hits again.
        let _ = serve.serve(&query, &req).unwrap();
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
        let before = serve.serve(&query, &req).unwrap();
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
        let after = serve.serve(&query, &req).unwrap();
        assert_eq!(rec.counter("serve.cache.miss"), Some(2));
        assert_eq!(rec.counter("serve.cache.hit"), None);
        assert_ne!(before.rows(), after.rows());
        let (live_g, _) = serve.engine().live_dataset().unwrap();
        assert_eq!(after.rows(), &reference(&live_g, &query));
        // And the post-commit entry serves hits again.
        let _ = serve.serve(&query, &req).unwrap();
        assert_eq!(rec.counter("serve.cache.hit"), Some(1));
        assert_eq!(rec.counter("update.commit"), Some(1));
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
        let _ = serve.serve(&q0, &req).unwrap();
        let _ = serve.serve(&q1, &req).unwrap();
        let _ = serve.serve(&q0, &req).unwrap(); // q0 recent, q1 is LRU
        let _ = serve.serve(&q2, &req).unwrap(); // evicts q1
        assert_eq!(rec.counter("serve.cache.evict"), Some(1));
        assert_eq!(serve.cache_len(), 2);
        let hits_before = rec.counter("serve.cache.hit");
        let _ = serve.serve(&q0, &req).unwrap(); // still cached
        assert_eq!(rec.counter("serve.cache.hit"), hits_before.map(|h| h + 1));
        let _ = serve.serve(&q1, &req).unwrap(); // evicted → miss
        assert_eq!(rec.counter("serve.cache.miss"), Some(4));
    }

    #[test]
    fn zero_capacity_disables_the_result_cache() {
        let g = dataset();
        let serve = serve_engine(&g, 0);
        let query = path_query();
        let rec = Recorder::enabled();
        let req = ExecRequest::new().traced(&rec);
        let a = serve.serve(&query, &req).unwrap();
        let b = serve.serve(&query, &req).unwrap();
        assert_eq!(a.rows(), b.rows());
        assert_eq!(serve.cache_len(), 0);
        assert_eq!(rec.counter("serve.cache.hit"), None);
        assert_eq!(rec.counter("serve.cache.miss"), None);
        // Canonicalization is still memoized.
        assert_eq!(rec.counter("serve.plan.hit"), Some(1));
    }

    #[test]
    fn modes_cache_separately_but_agree_on_rows() {
        let g = dataset();
        let serve = serve_engine(&g, 8);
        let query = path_query();
        let a = serve
            .serve(&query, &ExecRequest::new().mode(ExecMode::CrossingAware))
            .unwrap();
        let b = serve
            .serve(&query, &ExecRequest::new().mode(ExecMode::StarOnly))
            .unwrap();
        assert_eq!(serve.cache_len(), 2);
        assert_eq!(a.rows(), b.rows());
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
            path_query_respelled(),
        ];
        for round in 0..3 {
            for query in &queries {
                let a = single.serve(query, &ExecRequest::new()).unwrap();
                let b = sharded.serve(query, &req).unwrap();
                assert_eq!(a.rows(), b.rows(), "round {round}");
                assert_eq!(b.rows(), &reference(&g, query), "round {round}");
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
            .map(|query| sharded.serve(query, &req).unwrap())
            .collect();
        sharded.transition(EpochTransition::Repartition(Box::new(engine(&g))));
        for (query, old) in queries.iter().zip(&before) {
            let fresh = sharded.serve(query, &req).unwrap();
            assert_eq!(fresh.rows(), old.rows());
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
        let _ = off.serve(&path_query(), &req).unwrap();
        let _ = off.serve(&path_query(), &req).unwrap();
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

    fn plan_of(g: &RdfGraph, text: &str) -> mpc_sparql::ResolvedPlan {
        mpc_sparql::parse(text)
            .expect("test query parses")
            .resolve(g.dictionary())
            .expect("test query resolves")
    }

    #[test]
    fn plan_hits_are_bit_identical_to_uncached_and_counted() {
        let g = iri_dataset();
        let serve = serve_engine(&g, 8);
        let text = "SELECT * WHERE { ?a <urn:p:0> ?b OPTIONAL { ?b <urn:p:2> ?c } } ORDER BY ?b";
        let plan = plan_of(&g, text);
        let rec = Recorder::enabled();
        let req = ExecRequest::new().traced(&rec);
        let first = serve.serve_plan(&plan, &req, g.dictionary()).unwrap();
        let second = serve.serve_plan(&plan, &req, g.dictionary()).unwrap();
        let uncached = serve
            .serve_plan(&plan, &req.clone().cached(false), g.dictionary())
            .unwrap();
        assert_eq!(first.rows(), second.rows());
        assert_eq!(first.rows(), uncached.rows());
        assert_eq!(rec.counter("serve.cache.miss"), Some(1));
        assert_eq!(rec.counter("serve.cache.hit"), Some(1));
        assert_eq!(rec.counter("serve.plan.miss"), Some(1));
        assert_eq!(rec.counter("serve.plan.hit"), Some(2));
        assert_eq!(serve.cache_len(), 1);
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
        let ra = serve.serve_plan(&a, &req, g.dictionary()).unwrap();
        let rb = serve.serve_plan(&b, &req, g.dictionary()).unwrap();
        assert_eq!(serve.cache_len(), 1, "renamed spellings share one entry");
        assert_eq!(rec.counter("serve.cache.hit"), Some(1));
        assert_eq!(rec.counter("serve.plan.hit"), Some(1), "memo shared too");
        assert_eq!(ra.rows(), rb.rows());
        let store = LocalStore::from_graph(&g);
        let central = mpc_sparql::eval_plan_local(&a, &store, g.dictionary());
        assert_eq!(ra.rows(), &central);
    }

    #[test]
    fn distinct_plans_cache_apart_from_their_bag_forms() {
        let g = iri_dataset();
        let serve = serve_engine(&g, 8);
        let bag = plan_of(
            &g,
            "SELECT ?a WHERE { { ?a <urn:p:2> ?b } UNION { ?a <urn:p:2> ?c } }",
        );
        let set = plan_of(
            &g,
            "SELECT DISTINCT ?a WHERE { { ?a <urn:p:2> ?b } UNION { ?a <urn:p:2> ?c } }",
        );
        let req = ExecRequest::new();
        let rb = serve.serve_plan(&bag, &req, g.dictionary()).unwrap();
        let rs = serve.serve_plan(&set, &req, g.dictionary()).unwrap();
        assert_eq!(serve.cache_len(), 2, "bag and set forms are distinct keys");
        assert!(rb.rows().len() > rs.rows().len(), "UNION duplicates survive without DISTINCT");
    }

    #[test]
    fn chaos_plan_requests_pass_through_uncached() {
        let g = iri_dataset();
        let serve = serve_engine(&g, 8);
        let plan = plan_of(&g, "SELECT * WHERE { ?a <urn:p:0> ?b }");
        let req = ExecRequest::new().fault(FaultSpec::Custom {
            plan: FaultPlan::none(),
            policy: RetryPolicy::default(),
            replicas: 0,
            graceful: true,
        });
        let rec = Recorder::enabled();
        let _ = serve
            .serve_plan(&plan, &req.clone().traced(&rec), g.dictionary())
            .unwrap();
        assert_eq!(serve.cache_len(), 0, "chaos plan results must never be cached");
        assert_eq!(rec.counter("serve.cache.miss"), None);
    }

    #[test]
    fn chaos_requests_pass_through_uncached_in_lockstep() {
        let g = dataset();
        let query = path_query();
        let custom = || FaultSpec::Custom {
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
        for round in 0..3 {
            let via_serve = serve
                .serve(&query, &ExecRequest::new().fault(custom()))
                .unwrap();
            let via_bare = bare
                .run(&query, &ExecRequest::new().fault(custom()))
                .unwrap();
            assert_eq!(via_serve.rows(), via_bare.rows(), "round {round}");
            assert_eq!(
                via_serve.stats.faults, via_bare.stats.faults,
                "query_seq must stay in lockstep (round {round})"
            );
        }
        assert_eq!(serve.cache_len(), 0, "chaos results must never be cached");
    }
}
