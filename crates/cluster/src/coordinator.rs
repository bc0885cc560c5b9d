//! The coordinator: distributed query execution over partition sites.
//!
//! Mirrors the paper's architecture (Section V-B2): one coordinator
//! receives queries, classifies them, and either
//!
//! * **independent execution** — sends the whole query to every site,
//!   evaluates in parallel, and unions the per-site results (no joins), or
//! * **decomposed execution** — decomposes into IEQ subqueries (Algorithm 2
//!   under MPC; star decomposition for crossing-unaware baselines), runs
//!   every subquery on every site in parallel, unions per subquery, and
//!   joins the subquery results at the coordinator.
//!
//! Both shapes run one pipeline per BGP leaf: look the leaf's plan up,
//! fan one request chain per fragment out over the bounded deterministic
//! `mpc-par` pool (`MPC_THREADS` / [`ExecRequest::threads`]), union what
//! the sites return per subquery, and join only a decomposed leaf. Every
//! site is reached through the same site step ([`Site::respond`] is its
//! unplanned form), under the plan's static join order. Without a fault
//! layer a chain is one attempt on the fragment's primary site; with one
//! it retries and fails over (docs/FAULT_TOLERANCE.md). The reported LET
//! is the slowest site's measured evaluation time, matching a cluster
//! where sites proceed in parallel. Result shipping is charged to the
//! simulated [`NetworkModel`].
//!
//! The one entry point is [`DistributedEngine::run_plan`]: an algebra
//! plan (a bare BGP is [`ResolvedPlan::from_bgp`]) driven by an
//! [`ExecRequest`] (mode, tracing, fault layer, threads, caching) and
//! returning an [`ExecOutcome`]. The fault layer is a per-request
//! [`FaultSpec`]; the engine itself holds none. For cached serving on top
//! of it, see [`crate::serve::ServeEngine`].

use crate::decompose::{decompose_crossing_aware, decompose_stars, Subquery};
use crate::fault::{FaultKind, FaultPlan, SiteError};
use crate::ieq::{classify, is_khop_executable, CrossingSet, IeqClass};
use crate::network::{NetworkModel, COORDINATOR};
use crate::retry::{RetryPolicy, SimClock};
use crate::site::{Site, SiteRequest, SiteResponse};
use crate::stats::{ExecutionStats, FaultStats};
use crate::wire;
use mpc_core::Partitioning;
use mpc_obs::Recorder;
use mpc_rdf::{Dictionary, FxHashMap, RdfGraph};
use mpc_sparql::{
    eval_plan, join_all, seeding_pays, static_order, BgpSource, Bindings, MatchObserver,
    MatchStats, Query, ResolvedFilter, ResolvedPlan, StoreStats, TriplePattern,
};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use mpc_rdf::narrow;

/// How the engine recognizes and decomposes queries.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum ExecMode {
    /// Full MPC-style execution: IEQ classification by crossing properties,
    /// Algorithm 2 decomposition. (Also models `Subject_Hash+` / `METIS+`
    /// when built over those partitionings.)
    #[default]
    CrossingAware,
    /// Classic baseline: only star queries run independently; everything
    /// else is decomposed into stars (SHAPE / H-RDF-3X style).
    StarOnly,
}

/// A request's fault layer: the faults the simulated cluster experiences
/// and the coordinator's countermeasures. It arms that request only; the
/// plan's `cut_sites` are applied to a per-request copy of the network
/// model.
#[derive(Clone, Debug)]
pub struct FaultSpec {
    /// The faults the simulated cluster will experience.
    pub plan: FaultPlan,
    /// Retry/backoff/deadline countermeasures.
    pub policy: RetryPolicy,
    /// Extra replica hosts per fragment (0 = primaries only). Fragment
    /// `f`'s replica chain is `f, f+1, …, f+replicas` (mod site count).
    pub replicas: usize,
    /// Degrade to explicit [`PartialBindings`] (`complete == false`)
    /// instead of failing the whole query.
    pub graceful: bool,
}

/// One distributed execution, fully described: what to run it as
/// ([`ExecMode`]), what to record, how to treat faults, and how many
/// worker threads to fan out on. Construct with [`ExecRequest::new`] and
/// chain the builder methods; every field also stays readable.
///
/// ```
/// # use mpc_cluster::{ExecRequest, ExecMode};
/// let req = ExecRequest::new().mode(ExecMode::StarOnly).threads(4);
/// assert_eq!(req.threads, Some(4));
/// ```
#[non_exhaustive]
#[derive(Clone, Debug)]
pub struct ExecRequest {
    /// Recognition / decomposition strategy (default: crossing-aware MPC).
    pub mode: ExecMode,
    /// Where to record `query.*` / `par.*` metrics (default: disabled —
    /// sites then run the unobserved matcher and nothing is allocated).
    pub recorder: Recorder,
    /// The fault layer (default: none — one attempt per fragment on its
    /// primary site, and the request cannot fail).
    pub fault: Option<FaultSpec>,
    /// Worker threads for the per-site fan-out. `None` (default) and
    /// `Some(0)` resolve via `MPC_THREADS`, then the machine's available
    /// parallelism — see [`mpc_par::resolve_threads`]. Results are
    /// bit-identical for every value (docs/PARALLELISM.md).
    pub threads: Option<usize>,
    /// Allow answering from the serving layer's result cache (default:
    /// true). Only [`crate::serve::ServeEngine`] consults this — a plain
    /// [`DistributedEngine::run_plan`] always executes. Set false to force a
    /// full execution through a serving front end (docs/SERVING.md).
    pub cached: bool,
}

impl Default for ExecRequest {
    fn default() -> Self {
        ExecRequest {
            mode: ExecMode::default(),
            recorder: Recorder::disabled(),
            fault: None,
            threads: None,
            cached: true,
        }
    }
}

impl ExecRequest {
    /// A default request: crossing-aware, untraced, no fault layer, auto
    /// thread count.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the execution mode.
    #[must_use]
    pub fn mode(mut self, mode: ExecMode) -> Self {
        self.mode = mode;
        self
    }

    /// Records the execution into `rec` (a cheap shared handle).
    #[must_use]
    pub fn traced(mut self, rec: &Recorder) -> Self {
        self.recorder = rec.clone();
        self
    }

    /// Runs this request under the fault layer `fault`.
    #[must_use]
    pub fn fault(mut self, fault: FaultSpec) -> Self {
        self.fault = Some(fault);
        self
    }

    /// Pins the worker-thread count (0 = auto).
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// Allows (default) or forbids answering from a serving layer's
    /// result cache — see [`crate::serve::ServeEngine`].
    #[must_use]
    pub fn cached(mut self, cached: bool) -> Self {
        self.cached = cached;
        self
    }
}

/// What [`DistributedEngine::run_plan`] produced: the (possibly partial)
/// bindings plus the per-stage statistics.
#[non_exhaustive]
#[derive(Clone, Debug)]
pub struct ExecOutcome {
    /// The assembled result. `bindings.complete` is always true without a
    /// fault layer; under faults it follows the graceful-degradation
    /// contract of [`PartialBindings`].
    pub bindings: PartialBindings,
    /// Timing, volume, and fault accounting.
    pub stats: ExecutionStats,
}

impl ExecOutcome {
    /// The result rows (exact when [`PartialBindings::complete`]).
    pub fn rows(&self) -> &Bindings {
        &self.bindings.rows
    }

    /// Splits the outcome into its parts (the old tuple shape).
    pub fn into_parts(self) -> (PartialBindings, ExecutionStats) {
        (self.bindings, self.stats)
    }
}

/// A cached query plan: classification, (for non-IEQs) the
/// decomposition, and the statistics-driven static join orders the sites
/// follow ([`mpc_sparql::static_order`] over the engine's aggregated
/// [`StoreStats`]). Real coordinators cache plans because the same query
/// templates repeat in workloads; the cache also lets repeated benchmark
/// runs measure steady-state QDT.
#[derive(Clone)]
pub(crate) struct CachedPlan {
    class: IeqClass,
    subqueries: Option<Arc<Vec<Subquery>>>,
    /// One pattern order per query the sites evaluate: the whole query
    /// (starting from the seed variable in a seeded leaf's entry) when it
    /// runs independently, else each subquery in `subqueries` order.
    orders: Arc<Vec<Vec<usize>>>,
}

/// Plan-cache key: (pattern list, crossing-aware?, the variable a seeded
/// leaf starts bound).
type PlanKey = (Vec<TriplePattern>, bool, Option<u32>);

/// The (possibly partial) result of a fault-tolerant execution: graceful
/// degradation makes incompleteness *explicit* instead of silently wrong.
///
/// When `complete` is false, `rows` is still sound — every row is a true
/// answer (missing fragments can only *remove* matches from a union or a
/// join, never invent them) — but some answers may be absent, and
/// `failed_sites` names the fragments that stayed unreachable.
#[derive(Clone, Debug)]
pub struct PartialBindings {
    /// The assembled bindings (the exact answer when `complete`).
    pub rows: Bindings,
    /// True iff every fragment contributed.
    pub complete: bool,
    /// Fragments that stayed unreachable after all replicas and retries.
    pub failed_sites: Vec<u16>,
}

/// One request, resolved once: what every leaf of
/// [`DistributedEngine::run_plan`] executes under.
struct Ctx<'a> {
    mode: ExecMode,
    rec: &'a Recorder,
    threads: usize,
    /// The request's fault layer, if it carries one.
    layer: Option<&'a FaultSpec>,
    /// The network model, with a per-request layer's cut sites applied.
    network: NetworkModel,
}

/// A simulated distributed SPARQL engine over a vertex-disjoint
/// partitioning.
pub struct DistributedEngine {
    pub(crate) sites: Vec<Site>,
    pub(crate) crossing: CrossingSet,
    network: NetworkModel,
    load_time: Duration,
    /// Replication radius the fragments were built with (1 = the paper's
    /// 1-hop crossing-edge replication).
    pub(crate) radius: usize,
    /// The coordinator's plan cache.
    pub(crate) plans: Mutex<FxHashMap<PlanKey, CachedPlan>>,
    /// Per-property cardinality statistics aggregated across sites at
    /// build time (crossing-edge replicas are counted once per site, so
    /// counts are upper bounds — fine for comparing plan candidates).
    pub(crate) stats: StoreStats,
    /// Monotone query number — a coordinate of every fault decision, so a
    /// workload's fault sequence is reproducible query by query.
    query_seq: AtomicU64,
    /// Live-update state, armed by
    /// [`DistributedEngine::enable_updates`]; `None` on read-only
    /// engines. Boxed: the dictionary + triple multiset are heavy and
    /// most engines never mutate.
    pub(crate) live: Option<Box<crate::update::LiveState>>,
}

impl DistributedEngine {
    /// Materializes all fragments of `partitioning` into per-site stores.
    pub fn build(g: &RdfGraph, partitioning: &Partitioning, network: NetworkModel) -> Self {
        Self::build_with_radius(g, partitioning, network, 1)
    }

    /// Like [`DistributedEngine::build`], with a `radius`-hop replication
    /// guarantee per fragment (the k-hop extension; `radius = 1` is the
    /// paper's scheme). Larger radii localize more queries — see
    /// [`is_khop_executable`] — in exchange for replicated storage.
    pub fn build_with_radius(
        g: &RdfGraph,
        partitioning: &Partitioning,
        network: NetworkModel,
        radius: usize,
    ) -> Self {
        let mut load_time = Duration::ZERO;
        let sites: Vec<Site> = partitioning
            .fragments_with_radius(g, radius)
            .into_iter()
            .map(|f| {
                let (site, t) = Site::load(f);
                load_time += t;
                site
            })
            .collect();
        Self::assemble(sites, g, partitioning, network, radius, load_time)
    }

    /// Assembles an engine from pre-built sites — the snapshot cold-start
    /// path (docs/PERSISTENCE.md), which skips [`Site::load`]'s index
    /// sorts because the loader already verified the persisted runs.
    ///
    /// `sites` must hold one entry per partition, in partition order,
    /// each storing exactly the fragment `partitioning` induces on `g`
    /// with `radius`-hop replication; `mpc_snapshot::decode` guarantees
    /// all of this for its `SitePart`s.
    ///
    /// # Panics
    /// Panics if the site list does not line up with the partitioning.
    pub fn from_sites(
        sites: Vec<Site>,
        g: &RdfGraph,
        partitioning: &Partitioning,
        network: NetworkModel,
        radius: usize,
    ) -> Self {
        assert_eq!(
            sites.len(),
            partitioning.k(),
            "one site per partition required"
        );
        for (i, site) in sites.iter().enumerate() {
            assert_eq!(site.part.index(), i, "sites must be in partition order");
        }
        Self::assemble(sites, g, partitioning, network, radius, Duration::ZERO)
    }

    /// The one engine constructor: the crossing set `partitioning`
    /// induces on `g`, the sites' merged [`StoreStats`], and empty plan
    /// cache, query sequence and live state.
    fn assemble(
        sites: Vec<Site>,
        g: &RdfGraph,
        partitioning: &Partitioning,
        network: NetworkModel,
        radius: usize,
        load_time: Duration,
    ) -> Self {
        let crossing = CrossingSet(
            g.property_ids()
                .map(|p| partitioning.is_crossing_property(p))
                .collect(),
        );
        let mut stats = StoreStats::default();
        for site in &sites {
            stats.merge(site.store.stats());
        }
        DistributedEngine {
            sites,
            crossing,
            network,
            load_time,
            radius,
            plans: Mutex::new(FxHashMap::default()),
            stats,
            query_seq: AtomicU64::new(0),
            live: None,
        }
    }

    /// The replication radius of this engine's fragments.
    pub fn radius(&self) -> usize {
        self.radius
    }

    /// Total triples stored across sites (replication overhead measure).
    pub fn stored_triples(&self) -> usize {
        self.sites.iter().map(Site::triple_count).sum()
    }

    /// Number of cached query plans.
    pub fn cached_plan_count(&self) -> usize {
        self.plans.lock().len()
    }

    /// Number of sites (= partitions).
    pub fn site_count(&self) -> usize {
        self.sites.len()
    }

    /// Total index-build time across sites (Table VI "loading").
    pub fn load_time(&self) -> Duration {
        self.load_time
    }

    /// The crossing-property set the engine plans against.
    pub fn crossing_set(&self) -> &CrossingSet {
        &self.crossing
    }

    /// The per-property cardinality statistics the planner orders joins
    /// by (aggregated across sites at build time; replica counts make
    /// them upper bounds).
    pub fn store_stats(&self) -> &StoreStats {
        &self.stats
    }

    /// IEQ classification of a query under this engine's partitioning.
    pub fn classify(&self, query: &Query) -> IeqClass {
        classify(query, &self.crossing)
    }

    /// True if `query` would run independently under `mode`.
    pub fn is_independent(&self, query: &Query, mode: ExecMode) -> bool {
        match mode {
            ExecMode::CrossingAware => {
                self.classify(query).is_ieq()
                    || (self.radius > 1
                        && is_khop_executable(query, &self.crossing, self.radius))
            }
            ExecMode::StarOnly => query.is_star(),
        }
    }

    /// Executes a resolved algebra plan ([`mpc_sparql::parse`] →
    /// [`mpc_sparql::Algebra::resolve`], or [`ResolvedPlan::from_bgp`]
    /// for a bare BGP) distributedly: each BGP leaf takes the leaf
    /// pipeline — reusing the plan cache, IEQ classification, and
    /// per-leaf static join orders — and the OPTIONAL / UNION / FILTER /
    /// ORDER BY structure above the leaves is combined on the coordinator
    /// with the bag operators of [`mpc_sparql::algebra`]. `dict` is only
    /// read by FILTERs that compare terms rather than ids, so an engine
    /// built without a dictionary passes an empty one.
    ///
    /// * Without a fault layer ([`ExecRequest::fault`] is `None`) this
    ///   never errors and the outcome is always `complete`.
    /// * With one it follows the chaos contract (pinned by the `chaos_*`
    ///   proptests): the bindings are either exactly the fault-free
    ///   answer with `complete == true`, or a sound subset with
    ///   `complete == false` and the unreachable fragments named — never
    ///   silently wrong, never a panic. In strict mode
    ///   (`graceful == false`) an unreachable fragment fails the query
    ///   with the first [`SiteError`] observed on it.
    ///
    /// The per-site fan-out runs on the bounded deterministic `mpc-par`
    /// pool; see [`ExecRequest::threads`] for the knobs and
    /// docs/PARALLELISM.md for the bit-identical-results contract.
    ///
    /// Id-only FILTERs sitting directly on an *independent* leaf are
    /// pushed into the sites (partition-local evaluation; counted under
    /// `query.pushdown.*`), and an independent right-hand join leaf is
    /// seeded with the left side's keys (`query.seed.*`), with or without
    /// a fault layer: either way the leaf executes exactly once, so the
    /// fault draws are the ones a declining source would see. Plan shape
    /// is recorded under `query.algebra.*`.
    ///
    /// The aggregated [`ExecutionStats`] sum times/bytes across leaves;
    /// `class` is the first leaf's classification and `independent` is
    /// true only if every leaf ran without decomposition.
    pub fn run_plan(
        &self,
        plan: &ResolvedPlan,
        req: &ExecRequest,
        dict: &Dictionary,
    ) -> Result<ExecOutcome, SiteError> {
        let rec = &req.recorder;
        if rec.is_enabled() {
            let mut nodes = 0u64;
            plan.root.for_each(&mut |n| {
                nodes += 1;
                rec.incr(&format!("query.algebra.{}", n.op_name()));
            });
            rec.set("query.algebra.nodes", nodes);
        }
        let mut source = EngineSource {
            engine: self,
            ctx: self.resolve(req),
            agg: None,
            complete: true,
            failed_sites: Vec::new(),
        };
        let rows = eval_plan(plan, &mut source, dict)?;
        let mut stats = source.agg.unwrap_or(ExecutionStats {
            class: IeqClass::Internal,
            independent: true,
            subqueries: 0,
            decomposition_time: Duration::ZERO,
            local_eval_time: Duration::ZERO,
            join_time: Duration::ZERO,
            comm_bytes: 0,
            comm_time: Duration::ZERO,
            result_rows: 0,
            faults: FaultStats::default(),
        });
        stats.result_rows = rows.len();
        if rec.is_enabled() {
            rec.set("query.result_rows", stats.result_rows as u64);
        }
        let mut failed_sites = source.failed_sites;
        failed_sites.sort_unstable();
        failed_sites.dedup();
        Ok(ExecOutcome {
            bindings: PartialBindings {
                rows,
                complete: source.complete,
                failed_sites,
            },
            stats,
        })
    }

    /// Resolves `req` once: its thread budget (recorded as `par.threads`)
    /// and the fault layer and network model it runs against.
    fn resolve<'a>(&self, req: &'a ExecRequest) -> Ctx<'a> {
        let threads = mpc_par::resolve_threads(req.threads);
        req.recorder.set("par.threads", threads as u64);
        let layer = req.fault.as_ref();
        let network = match layer {
            Some(spec) => self.network.with_links_down(&spec.plan.cut_sites),
            None => self.network,
        };
        Ctx {
            mode: req.mode,
            rec: &req.recorder,
            threads,
            layer,
            network,
        }
    }

    /// The one leaf pipeline: plan-cache lookup (QDT), one request chain
    /// per fragment on the `mpc-par` pool, a union per subquery, a join
    /// for a decomposed leaf only, then the leaf's [`ExecutionStats`] and
    /// `query.*` metrics. With a disabled recorder the sites run the
    /// unobserved matcher and nothing is formatted. See [`Self::run_plan`]
    /// for the fault contract.
    ///
    /// `pushed` is what [`Self::run_plan`] moved into the sites for this
    /// leaf; anything but the default requires an independent `query`.
    fn exec_leaf(
        &self,
        query: &Query,
        ctx: &Ctx<'_>,
        pushed: Pushed<'_>,
    ) -> Result<ExecOutcome, SiteError> {
        let rec = ctx.rec;
        let qdt_span = rec.span("query.qdt");
        let t0 = Instant::now();
        let plan = self.lookup_plan(query, ctx.mode, pushed.seed.map(|(var, _)| var), rec);
        let decomposition_time = t0.elapsed();
        drop(qdt_span);

        let subqueries = plan.subqueries.as_deref();
        let queries: Vec<&Query> = match subqueries {
            None => vec![query],
            Some(subs) => {
                debug_assert!(pushed.filters.is_empty() && pushed.seed.is_none());
                subs.iter().map(|sq| &sq.query).collect()
            }
        };
        let site_req = SiteRequest {
            queries: &queries,
            orders: &plan.orders,
            filters: pushed.filters,
            seed: pushed.seed,
        };
        // Fault decisions are keyed on the query number, so only a request
        // with a fault layer draws one.
        let chaos = ctx.layer.map(|layer| {
            // ordering: sequence source for fault-draw coordinates; only the
            // RMW's uniqueness matters, no other data is published through it.
            (layer, self.query_seq.fetch_add(1, Ordering::Relaxed))
        });
        let observe = rec.is_enabled();
        let (outcomes, pstats) = mpc_par::par_map_stats(ctx.threads, &self.sites, |i, _| {
            if observe {
                let mut mstats = MatchStats::default();
                let out = self.request_fragment(chaos, &ctx.network, i, &site_req, &mut mstats);
                (out, Some(mstats))
            } else {
                let out = self.request_fragment(chaos, &ctx.network, i, &site_req, &mut ());
                (out, None)
            }
        });

        // Workers never touch the recorder: fragment results fold here on
        // the coordinator thread, in fragment order, so stats and
        // `--profile` reports are reproducible for any thread count.
        let mut faults = FaultStats::default();
        let mut local_eval_time = Duration::ZERO;
        let mut site_bytes = 0u64;
        let mut messages = 0u64;
        let mut failed_sites = Vec::new();
        let mut first_error = None;
        let mut match_total = MatchStats::default();
        let mut runs: Vec<Vec<Vec<Vec<u32>>>> = vec![Vec::new(); queries.len()];
        for (i, ((served, chain), mstats)) in outcomes.into_iter().enumerate() {
            faults.attempts += chain.attempts;
            faults.retries += chain.retries;
            faults.failovers += chain.failovers;
            faults.injected += chain.injected;
            // Fragments recover in parallel: the slowest chain gates the stage.
            faults.penalty = faults.penalty.max(chain.penalty);
            if let Some(mstats) = mstats {
                match_total.merge(&mstats);
            }
            match served {
                Ok(resp) => {
                    if observe {
                        rec.record(&format!("query.let.site{i}"), resp.eval_time);
                    }
                    local_eval_time = local_eval_time.max(resp.eval_time);
                    site_bytes += resp.bytes;
                    messages += queries.len() as u64;
                    for (into, table) in runs.iter_mut().zip(resp.tables) {
                        into.push(table.rows);
                    }
                }
                Err(e) => {
                    failed_sites.push(narrow::u16_from(i));
                    first_error.get_or_insert(e);
                }
            }
        }
        // In strict mode a fragment that stayed unreachable fails the query.
        if let (Some((layer, _)), Some(err)) = (chaos, first_error) {
            if !layer.graceful {
                return Err(err);
            }
        }

        // Sites return strictly sorted tables, so each subquery's union
        // (crossing-edge replicas can duplicate matches) is a merge.
        let all_vars = || (0..narrow::u32_from(query.var_count())).collect::<Vec<u32>>();
        let mut tables: Vec<Bindings> = runs
            .into_iter()
            .enumerate()
            .map(|(j, runs)| {
                let vars = subqueries.map_or_else(all_vars, |subs| subs[j].parent_vars.clone());
                Bindings::union_sorted(vars, runs)
            })
            .collect();
        let mut comm_bytes = 0u64;
        if let Some((_, keys)) = pushed.seed {
            // The keys travel with every site's request.
            comm_bytes += self.sites.len() as u64 * wire::encoded_len(keys.len(), 1);
            rec.incr("query.seed.leaves");
            rec.add("query.seed.keys", keys.len() as u64);
        }
        if !pushed.filters.is_empty() {
            rec.add("query.pushdown.site_evals", self.sites.len() as u64);
            rec.add("query.pushdown.filters", pushed.filters.len() as u64);
        }
        let (rows, join_time) = if subqueries.is_none() {
            comm_bytes += site_bytes;
            (tables.swap_remove(0), Duration::ZERO)
        } else {
            // A decomposed leaf ships its per-subquery unions whole.
            for table in &tables {
                comm_bytes += wire::encoded_len(table.len(), table.vars.len());
            }
            let join_span = rec.span("query.join");
            let t_join = Instant::now();
            // `join_all` picks a connected, smallest-first order; normalize
            // the column order to the full variable space, the layout of
            // independent execution.
            let rows = join_all(&tables).project(&all_vars());
            let join_time = t_join.elapsed();
            drop(join_span);
            (rows, join_time)
        };
        let comm_time = match chaos {
            Some((layer, query_seq)) => ctx.network.transfer_time_seeded(
                comm_bytes,
                messages,
                layer.plan.seed ^ query_seq,
            ),
            None => ctx.network.transfer_time(comm_bytes, messages),
        };
        faults.failed_fragments = failed_sites.len() as u64;
        faults.degraded = !failed_sites.is_empty();
        let stats = ExecutionStats {
            class: plan.class,
            independent: subqueries.is_none(),
            subqueries: queries.len(),
            decomposition_time,
            local_eval_time,
            join_time,
            comm_bytes,
            comm_time,
            result_rows: rows.len(),
            faults,
        };
        if observe {
            rec.add("par.tasks", pstats.tasks as u64);
            rec.add("par.chunks", pstats.chunks);
            record_match_stats(rec, &match_total);
            rec.set("query.subqueries", stats.subqueries as u64);
            rec.set("query.independent", u64::from(stats.independent));
            rec.set("query.result_rows", stats.result_rows as u64);
            rec.record("query.let", stats.local_eval_time);
            rec.record("query.comm", stats.comm_time);
            rec.add("query.comm.bytes", stats.comm_bytes);
            rec.add("query.comm.messages", messages);
            if chaos.is_some() {
                rec.add("query.fault.attempts", faults.attempts);
                rec.add("query.fault.retries", faults.retries);
                rec.add("query.fault.failovers", faults.failovers);
                rec.add("query.fault.injected", faults.injected);
                rec.add("query.fault.failed_sites", faults.failed_fragments);
                rec.set("query.fault.degraded", u64::from(faults.degraded));
                rec.record("query.fault.penalty", faults.penalty);
            }
        }
        Ok(ExecOutcome {
            bindings: PartialBindings {
                rows,
                complete: failed_sites.is_empty(),
                failed_sites,
            },
            stats,
        })
    }

    /// Plan-cache lookup: classification, (for non-IEQs) decomposition,
    /// and static join orders, computed once per (pattern list, mode,
    /// seed variable) and reused.
    fn lookup_plan(
        &self,
        query: &Query,
        mode: ExecMode,
        seed: Option<u32>,
        rec: &Recorder,
    ) -> CachedPlan {
        let key = (
            query.patterns.clone(),
            mode == ExecMode::CrossingAware,
            seed,
        );
        let cached = self.plans.lock().get(&key).cloned();
        if let Some(plan) = cached {
            rec.incr("query.plan_cache.hits");
            return plan;
        }
        rec.incr("query.plan_cache.misses");
        let subqueries = (!self.is_independent(query, mode)).then(|| {
            Arc::new(match mode {
                ExecMode::CrossingAware => decompose_crossing_aware(query, &self.crossing),
                ExecMode::StarOnly => decompose_stars(query),
            })
        });
        let order = |q: &Query, seed| static_order(&q.patterns, q.var_count(), &self.stats, seed);
        let orders = match subqueries.as_deref() {
            None => vec![order(query, seed)],
            Some(subs) => subs.iter().map(|sq| order(&sq.query, None)).collect(),
        };
        let entry = CachedPlan {
            class: self.classify(query),
            subqueries,
            orders: Arc::new(orders),
        };
        self.plans.lock().insert(key, entry.clone());
        entry
    }

    /// One fragment's request chain through the site step; returns the
    /// last response (or error) with the chain's fault accounting.
    ///
    /// Without a fault layer (`chaos` is `None`) the chain is one attempt
    /// on the fragment's primary site: no fault decision, no accounting,
    /// and it cannot fail. With one, walk the replica hosts in order, give
    /// each host `max_retries + 1` attempts with exponential backoff
    /// between them, and stop at the first success. Detection costs and
    /// backoff waits are charged to a [`SimClock`], never slept — every
    /// charge is a deterministic function of (plan, seed, query number),
    /// so the penalty is reproducible while the run stays fast.
    fn request_fragment(
        &self,
        chaos: Option<(&FaultSpec, u64)>,
        network: &NetworkModel,
        fragment_idx: usize,
        req: &SiteRequest<'_>,
        obs: &mut impl MatchObserver,
    ) -> (Result<SiteResponse, SiteError>, FaultStats) {
        let site = &self.sites[fragment_idx];
        let fragment = narrow::u16_from(fragment_idx);
        let mut faults = FaultStats::default();
        let Some((layer, query_seq)) = chaos else {
            let served = site.serve(req, fragment, None, 1.0, Duration::ZERO, obs);
            return (served, faults);
        };
        let site_count = self.sites.len();
        let replicas = layer.replicas.min(site_count.saturating_sub(1));
        let policy = &layer.policy;
        let mut clock = SimClock::new();
        // Overwritten by the first attempt: every chain makes at least one.
        let mut served = Err(SiteError::Crashed { host: fragment });
        'hosts: for offset in 0..=replicas {
            let host = narrow::u16_from((fragment_idx + offset) % site_count);
            if offset > 0 {
                faults.failovers += 1;
            }
            for attempt in 0..=policy.max_retries {
                faults.attempts += 1;
                // A severed coordinator↔host link behaves like a stall: the
                // request dies on the wire and the deadline expires.
                let fault = if network.partitioned(COORDINATOR, host) {
                    Some(FaultKind::Stall)
                } else {
                    layer.plan.decide(query_seq, fragment, host, attempt)
                };
                if fault.is_some() {
                    faults.injected += 1;
                }
                let slow_factor = layer.plan.slow_factor;
                served = site.serve(req, host, fault, slow_factor, policy.deadline, obs);
                let Err(e) = &served else {
                    break 'hosts;
                };
                clock.charge(match *e {
                    // A stalled site costs the full deadline.
                    SiteError::Timeout { deadline, .. } => deadline,
                    // Refusals and rejected payloads are detected after one
                    // round trip.
                    SiteError::Crashed { .. }
                    | SiteError::Overloaded { .. }
                    | SiteError::CorruptPayload { .. } => network.latency,
                });
                if attempt < policy.max_retries {
                    faults.retries += 1;
                    let stream = layer.plan.attempt_hash(query_seq, fragment, host, attempt);
                    clock.charge(policy.backoff(attempt, stream));
                }
            }
        }
        faults.penalty = clock.elapsed();
        (served, faults)
    }
}

/// What [`DistributedEngine::run_plan`] moves into the sites of one
/// independent leaf (docs/QUERY.md); the default is a plain leaf.
#[derive(Clone, Copy, Default)]
struct Pushed<'a> {
    /// Id-only filters in the leaf's variable space.
    filters: &'a [ResolvedFilter],
    /// The leaf variable a bind join seeds, with its sorted distinct keys.
    seed: Option<(u32, &'a [u32])>,
}

/// The [`BgpSource`] behind [`DistributedEngine::run_plan`]: leaves run
/// through the engine's leaf pipeline and their [`ExecutionStats`] are
/// summed as they complete (leaves evaluate sequentially on the
/// coordinator; each one fans out across sites internally).
struct EngineSource<'a> {
    engine: &'a DistributedEngine,
    ctx: Ctx<'a>,
    agg: Option<ExecutionStats>,
    complete: bool,
    failed_sites: Vec<u16>,
}

impl EngineSource<'_> {
    /// Runs one leaf with `pushed` applied inside the sites.
    fn leaf(&mut self, query: &Query, pushed: Pushed<'_>) -> Result<Bindings, SiteError> {
        let ExecOutcome { bindings, stats } = self.engine.exec_leaf(query, &self.ctx, pushed)?;
        self.note(stats);
        self.complete &= bindings.complete;
        self.failed_sites.extend(bindings.failed_sites);
        Ok(bindings.rows)
    }

    /// Folds one leaf's stats into the aggregate: times, bytes, and
    /// subquery counts sum; `class` keeps the first leaf's value;
    /// `independent` holds only if every leaf held it.
    fn note(&mut self, s: ExecutionStats) {
        match &mut self.agg {
            None => self.agg = Some(s),
            Some(agg) => {
                agg.independent &= s.independent;
                agg.subqueries += s.subqueries;
                agg.decomposition_time += s.decomposition_time;
                agg.local_eval_time += s.local_eval_time;
                agg.join_time += s.join_time;
                agg.comm_bytes += s.comm_bytes;
                agg.comm_time += s.comm_time;
                agg.faults.attempts += s.faults.attempts;
                agg.faults.retries += s.faults.retries;
                agg.faults.failovers += s.faults.failovers;
                agg.faults.injected += s.faults.injected;
                agg.faults.failed_fragments += s.faults.failed_fragments;
                agg.faults.degraded |= s.faults.degraded;
                agg.faults.penalty += s.faults.penalty;
            }
        }
    }
}

impl BgpSource for EngineSource<'_> {
    type Error = SiteError;

    fn eval_bgp(&mut self, query: &Query) -> Result<Bindings, SiteError> {
        self.leaf(query, Pushed::default())
    }

    fn eval_bgp_filtered(
        &mut self,
        query: &Query,
        filters: &[ResolvedFilter],
    ) -> Option<Result<Bindings, SiteError>> {
        if !self.engine.is_independent(query, self.ctx.mode) {
            return None;
        }
        Some(self.leaf(
            query,
            Pushed {
                filters,
                seed: None,
            },
        ))
    }

    fn eval_bgp_seeded(
        &mut self,
        query: &Query,
        var: u32,
        keys: &[u32],
    ) -> Option<Result<Bindings, SiteError>> {
        let engine = self.engine;
        if !engine.is_independent(query, self.ctx.mode)
            || !seeding_pays(
                &query.patterns,
                query.var_count(),
                &engine.stats,
                keys.len(),
            )
        {
            self.ctx.rec.incr("query.seed.declined");
            return None;
        }
        Some(self.leaf(
            query,
            Pushed {
                filters: &[],
                seed: Some((var, keys)),
            },
        ))
    }
}

/// Folds the merged matcher counters into `query.match.*`.
fn record_match_stats(rec: &Recorder, stats: &MatchStats) {
    rec.add("query.match.steps", stats.steps);
    rec.add("query.match.candidates", stats.candidates_scanned);
    rec.add("query.match.backtracks", stats.backtracks);
    rec.add("query.match.rows_emitted", stats.rows_emitted);
    for (path, n) in &stats.access_paths {
        rec.add(&format!("query.match.path.{path}"), *n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpc_core::{MpcConfig, MpcPartitioner, Partitioner, SubjectHashPartitioner};
    use mpc_rdf::{PropertyId, Triple, VertexId};
    use mpc_sparql::{evaluate, LocalStore, QLabel, QNode, TriplePattern};

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

    /// Two domains (property 0 / property 1 chains) with property-2 hub
    /// edges — MPC keeps p0/p1 internal.
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

    fn mpc_engine(g: &RdfGraph) -> DistributedEngine {
        let part = MpcPartitioner::new(MpcConfig::with_k(2)).partition(g);
        DistributedEngine::build(g, &part, NetworkModel::free())
    }

    fn reference(g: &RdfGraph, query: &Query) -> Bindings {
        evaluate(query, &LocalStore::from_graph(g))
    }

    /// A bare BGP through the one entry point. These graphs have no
    /// dictionary, and a BGP has no FILTER to read one.
    fn run_bgp(
        engine: &DistributedEngine,
        query: &Query,
        req: &ExecRequest,
    ) -> Result<ExecOutcome, SiteError> {
        let plan = ResolvedPlan::from_bgp(query.clone());
        engine.run_plan(&plan, req, &Dictionary::default())
    }

    /// Infallible execution through the unified entry point (the old
    /// `execute` shape).
    fn exec(engine: &DistributedEngine, query: &Query) -> (Bindings, ExecutionStats) {
        exec_mode(engine, query, ExecMode::CrossingAware)
    }

    /// Infallible execution under `mode` (the old `execute_mode` shape).
    fn exec_mode(
        engine: &DistributedEngine,
        query: &Query,
        mode: ExecMode,
    ) -> (Bindings, ExecutionStats) {
        let (partial, stats) = run_bgp(engine, query, &ExecRequest::new().mode(mode))
            .unwrap()
            .into_parts();
        assert!(partial.complete);
        (partial.rows, stats)
    }

    /// Traced infallible execution (the old `execute_traced` shape).
    fn exec_traced(
        engine: &DistributedEngine,
        query: &Query,
        rec: &Recorder,
    ) -> (Bindings, ExecutionStats) {
        let (partial, stats) = run_bgp(engine, query, &ExecRequest::new().traced(rec))
            .unwrap()
            .into_parts();
        assert!(partial.complete);
        (partial.rows, stats)
    }

    /// Execution under `req`'s fault layer, if any (the old
    /// `execute_fault_tolerant` shape).
    fn exec_ft(
        engine: &DistributedEngine,
        query: &Query,
        req: &ExecRequest,
    ) -> Result<(PartialBindings, ExecutionStats), SiteError> {
        run_bgp(engine, query, req).map(ExecOutcome::into_parts)
    }

    #[test]
    fn internal_query_runs_independently_and_matches_reference() {
        let g = dataset();
        let engine = mpc_engine(&g);
        // Path query over internal property 0 only.
        let query = q(
            vec![
                TriplePattern::new(v(0), prop(0), v(1)),
                TriplePattern::new(v(1), prop(0), v(2)),
            ],
            3,
        );
        let (result, stats) = exec(&engine, &query);
        assert!(stats.independent);
        assert_eq!(stats.join_time, Duration::ZERO);
        assert_eq!(result, reference(&g, &query));
        assert!(!result.is_empty());
    }

    #[test]
    fn non_ieq_is_decomposed_and_still_correct() {
        let g = dataset();
        let engine = mpc_engine(&g);
        // p0-chain, crossing hub edge, p1-chain: two internal cores → NonIeq.
        let query = q(
            vec![
                TriplePattern::new(v(0), prop(0), v(1)),
                TriplePattern::new(v(1), prop(2), v(2)),
                TriplePattern::new(v(2), prop(1), v(3)),
            ],
            4,
        );
        let (result, stats) = exec(&engine, &query);
        assert_eq!(stats.class, IeqClass::NonIeq);
        assert!(!stats.independent);
        assert!(stats.subqueries >= 2);
        assert_eq!(result, reference(&g, &query));
        assert!(!result.is_empty());
    }

    #[test]
    fn star_only_mode_decomposes_non_stars() {
        let g = dataset();
        let engine = mpc_engine(&g);
        // A 3-hop path over internal properties: IEQ for MPC, but not a
        // star → StarOnly must decompose while CrossingAware must not.
        let query = q(
            vec![
                TriplePattern::new(v(0), prop(0), v(1)),
                TriplePattern::new(v(1), prop(0), v(2)),
                TriplePattern::new(v(2), prop(0), v(3)),
            ],
            4,
        );
        let (r1, s1) = exec_mode(&engine, &query, ExecMode::CrossingAware);
        let (r2, s2) = exec_mode(&engine, &query, ExecMode::StarOnly);
        assert!(s1.independent);
        assert!(!s2.independent);
        assert_eq!(r1, r2);
        assert_eq!(r1, reference(&g, &query));
    }

    #[test]
    fn star_queries_run_independently_in_both_modes() {
        let g = dataset();
        let engine = mpc_engine(&g);
        // Star around ?0 that includes a *crossing* property edge.
        let query = q(
            vec![
                TriplePattern::new(v(0), prop(0), v(1)),
                TriplePattern::new(v(0), prop(2), v(2)),
            ],
            3,
        );
        assert!(query.is_star());
        let (r1, s1) = exec_mode(&engine, &query, ExecMode::CrossingAware);
        let (r2, s2) = exec_mode(&engine, &query, ExecMode::StarOnly);
        assert!(s1.independent, "Theorem 5: stars are IEQs under MPC");
        assert!(s2.independent);
        assert_eq!(r1, r2);
        assert_eq!(r1, reference(&g, &query));
    }

    #[test]
    fn subject_hash_engine_matches_reference_via_stars() {
        let g = dataset();
        let part = SubjectHashPartitioner::new(4).partition(&g);
        let engine = DistributedEngine::build(&g, &part, NetworkModel::free());
        let query = q(
            vec![
                TriplePattern::new(v(0), prop(0), v(1)),
                TriplePattern::new(v(1), prop(0), v(2)),
                TriplePattern::new(v(2), prop(2), v(3)),
            ],
            4,
        );
        let (result, stats) = exec_mode(&engine, &query, ExecMode::StarOnly);
        assert!(!stats.independent);
        assert_eq!(result, reference(&g, &query));
    }

    #[test]
    fn comm_time_uses_network_model() {
        let g = dataset();
        let part = MpcPartitioner::new(MpcConfig::with_k(2)).partition(&g);
        let slow = NetworkModel {
            latency: Duration::from_millis(10),
            bandwidth: 1.0,
            ..NetworkModel::free()
        };
        let engine = DistributedEngine::build(&g, &part, slow);
        let query = q(vec![TriplePattern::new(v(0), prop(0), v(1))], 2);
        let (_, stats) = exec(&engine, &query);
        assert!(stats.comm_time >= Duration::from_millis(20));
        assert!(stats.comm_bytes > 0);
    }

    #[test]
    fn plan_cache_fills_and_reuses() {
        let g = dataset();
        let engine = mpc_engine(&g);
        let query = q(
            vec![
                TriplePattern::new(v(0), prop(0), v(1)),
                TriplePattern::new(v(1), prop(2), v(2)),
                TriplePattern::new(v(2), prop(1), v(3)),
            ],
            4,
        );
        assert_eq!(engine.cached_plan_count(), 0);
        let (r1, s1) = exec(&engine, &query);
        assert_eq!(engine.cached_plan_count(), 1);
        let (r2, s2) = exec(&engine, &query);
        assert_eq!(engine.cached_plan_count(), 1);
        assert_eq!(r1, r2);
        assert_eq!(s1.subqueries, s2.subqueries);
        // Both modes cache separately.
        let _ = exec_mode(&engine, &query, ExecMode::StarOnly);
        assert_eq!(engine.cached_plan_count(), 2);
    }

    #[test]
    fn traced_execution_matches_untraced_and_records_breakdown() {
        let g = dataset();
        let engine = mpc_engine(&g);
        // Non-IEQ: exercises decompose, per-site LET, comm, and join.
        let query = q(
            vec![
                TriplePattern::new(v(0), prop(0), v(1)),
                TriplePattern::new(v(1), prop(2), v(2)),
                TriplePattern::new(v(2), prop(1), v(3)),
            ],
            4,
        );
        let rec = Recorder::enabled();
        let (traced, tstats) = exec_traced(&engine, &query, &rec);
        let (plain, _) = exec(&engine, &query);
        assert_eq!(traced, plain, "tracing must not change results");

        assert_eq!(rec.counter("query.plan_cache.misses"), Some(1));
        assert_eq!(rec.counter("query.subqueries"), Some(tstats.subqueries as u64));
        assert!(rec.timer("query.qdt").is_some());
        assert!(rec.timer("query.join").is_some());
        assert!(rec.timer("query.let.site0").is_some(), "per-site LET breakdown");
        assert!(rec.timer("query.let.site1").is_some());
        assert_eq!(rec.counter("query.comm.bytes"), Some(tstats.comm_bytes));
        assert!(rec.counter("query.match.candidates").unwrap() > 0);
        assert!(rec.counter("query.match.steps").unwrap() > 0);
        // Second run over the same engine hits the plan cache.
        let _ = exec_traced(&engine, &query, &rec);
        assert_eq!(rec.counter("query.plan_cache.hits"), Some(1));
    }

    #[test]
    fn engine_reports_sites_and_load_time() {
        let g = dataset();
        let engine = mpc_engine(&g);
        assert_eq!(engine.site_count(), 2);
        // load_time is measured; just ensure it is recorded.
        let _ = engine.load_time();
    }

    #[test]
    fn property_variable_queries_are_correct() {
        let g = dataset();
        let engine = mpc_engine(&g);
        let query = Query::new(
            vec![
                TriplePattern::new(v(0), prop(0), v(1)),
                TriplePattern::new(v(1), QLabel::Var(2), v(3)),
            ],
            vec!["a".into(), "b".into(), "p".into(), "c".into()],
        );
        let (result, _) = exec(&engine, &query);
        assert_eq!(result, reference(&g, &query));
    }

    // ---- fault-tolerant execution ------------------------------------

    use crate::fault::{FaultKind, FaultPlan, ScriptedFault, SiteError};
    use crate::retry::RetryPolicy;

    /// An MPC engine over `g` and a request carrying the fault layer.
    fn chaos_engine(
        g: &RdfGraph,
        plan: FaultPlan,
        policy: RetryPolicy,
        replicas: usize,
        graceful: bool,
    ) -> (DistributedEngine, ExecRequest) {
        let req = ExecRequest::new().fault(FaultSpec {
            plan,
            policy,
            replicas,
            graceful,
        });
        (mpc_engine(g), req)
    }

    fn scripted(
        fragment: Option<u16>,
        host: Option<u16>,
        kind: FaultKind,
        first_attempts: u32,
    ) -> FaultPlan {
        FaultPlan {
            scripted: vec![ScriptedFault {
                fragment,
                host,
                kind,
                first_attempts,
            }],
            ..FaultPlan::none()
        }
    }

    #[test]
    fn unarmed_engine_answers_complete_with_zero_fault_stats() {
        let g = dataset();
        let engine = mpc_engine(&g);
        let query = q(vec![TriplePattern::new(v(0), prop(0), v(1))], 2);
        let (partial, stats) = exec_ft(&engine, &query, &ExecRequest::new()).unwrap();
        assert!(partial.complete);
        assert!(partial.failed_sites.is_empty());
        assert_eq!(partial.rows, reference(&g, &query));
        assert_eq!(stats.faults, crate::stats::FaultStats::default());
    }

    #[test]
    fn quiet_plan_matches_plain_execution_on_both_paths() {
        let g = dataset();
        let (engine, req) = chaos_engine(&g, FaultPlan::none(), RetryPolicy::default(), 1, true);
        // IEQ (independent) and non-IEQ (decomposed) queries.
        let independent = q(vec![TriplePattern::new(v(0), prop(0), v(1))], 2);
        let decomposed = q(
            vec![
                TriplePattern::new(v(0), prop(0), v(1)),
                TriplePattern::new(v(1), prop(2), v(2)),
                TriplePattern::new(v(2), prop(1), v(3)),
            ],
            4,
        );
        for query in [&independent, &decomposed] {
            let (partial, stats) = exec_ft(&engine, query, &req).unwrap();
            assert!(partial.complete);
            assert_eq!(partial.rows, reference(&g, query));
            assert_eq!(stats.faults.injected, 0);
            assert_eq!(stats.faults.retries, 0);
            assert_eq!(stats.faults.penalty, Duration::ZERO);
            // One successful attempt per fragment.
            assert_eq!(stats.faults.attempts, engine.site_count() as u64);
        }
    }

    #[test]
    fn crash_then_retry_succeeds_with_exact_counts() {
        let g = dataset();
        // Fragment 0's primary crashes on the first attempt only.
        let plan = scripted(Some(0), Some(0), FaultKind::Crash, 1);
        let (engine, req) = chaos_engine(&g, plan, RetryPolicy::default(), 0, false);
        let query = q(vec![TriplePattern::new(v(0), prop(0), v(1))], 2);
        let (partial, stats) = exec_ft(&engine, &query, &req).unwrap();
        assert!(partial.complete);
        assert_eq!(partial.rows, reference(&g, &query));
        assert_eq!(stats.faults.injected, 1);
        assert_eq!(stats.faults.retries, 1);
        assert_eq!(stats.faults.failovers, 0);
        // Fragment 0 took two attempts, fragment 1 one.
        assert_eq!(stats.faults.attempts, 3);
        assert!(!stats.faults.degraded);
        // The backoff before the retry was charged, not slept.
        assert!(stats.faults.penalty >= Duration::from_millis(10));
    }

    #[test]
    fn deadline_expiry_fails_over_to_replica() {
        let g = dataset();
        // Fragment 0's primary stalls forever; only host 0 is scripted, so
        // the replica (host 1) answers.
        let plan = scripted(Some(0), Some(0), FaultKind::Stall, u32::MAX);
        let policy = RetryPolicy {
            max_retries: 0,
            jitter: 0.0,
            deadline: Duration::from_millis(200),
            ..RetryPolicy::default()
        };
        let (engine, req) = chaos_engine(&g, plan, policy, 1, false);
        let query = q(vec![TriplePattern::new(v(0), prop(0), v(1))], 2);
        let (partial, stats) = exec_ft(&engine, &query, &req).unwrap();
        assert!(partial.complete);
        assert_eq!(partial.rows, reference(&g, &query));
        assert_eq!(stats.faults.failovers, 1);
        assert_eq!(stats.faults.retries, 0);
        // Exactly one expired deadline was charged to the simulated clock.
        assert_eq!(stats.faults.penalty, Duration::from_millis(200));
        assert!(stats.total() >= Duration::from_millis(200));
    }

    #[test]
    fn quorum_loss_degrades_gracefully_and_names_sites() {
        let g = dataset();
        // Every host serving fragment 0 crashes, every time.
        let plan = scripted(Some(0), None, FaultKind::Crash, u32::MAX);
        let policy = RetryPolicy {
            max_retries: 1,
            jitter: 0.0,
            ..RetryPolicy::default()
        };
        let (engine, req) = chaos_engine(&g, plan.clone(), policy, 1, true);
        let query = q(vec![TriplePattern::new(v(0), prop(0), v(1))], 2);
        let (partial, stats) = exec_ft(&engine, &query, &req).unwrap();
        assert!(!partial.complete, "missing fragment must be reported");
        assert_eq!(partial.failed_sites, vec![0]);
        assert!(stats.faults.degraded);
        assert_eq!(stats.faults.failed_fragments, 1);
        // 2 hosts × 2 attempts for fragment 0, one attempt for fragment 1.
        assert_eq!(stats.faults.attempts, 5);
        assert_eq!(stats.faults.retries, 2);
        assert_eq!(stats.faults.failovers, 1);
        // Sound subset: no invented rows.
        let expected = reference(&g, &query);
        assert!(partial.rows.rows.iter().all(|r| expected.rows.contains(r)));

        // Strict mode turns the same scenario into an error naming a host.
        let (strict, strict_req) = chaos_engine(&g, plan, policy, 1, false);
        let err = exec_ft(&strict, &query, &strict_req).unwrap_err();
        assert!(matches!(err, SiteError::Crashed { .. }), "{err}");
    }

    #[test]
    fn corrupt_payloads_are_detected_and_retried() {
        let g = dataset();
        // Every fragment's first attempt returns a damaged payload.
        let plan = scripted(None, None, FaultKind::Corrupt, 1);
        let (engine, req) = chaos_engine(&g, plan, RetryPolicy::default(), 0, false);
        // Non-IEQ query: the corrupt payload crosses the decomposed path.
        let query = q(
            vec![
                TriplePattern::new(v(0), prop(0), v(1)),
                TriplePattern::new(v(1), prop(2), v(2)),
                TriplePattern::new(v(2), prop(1), v(3)),
            ],
            4,
        );
        let (partial, stats) = exec_ft(&engine, &query, &req).unwrap();
        assert!(partial.complete);
        assert_eq!(partial.rows, reference(&g, &query));
        assert_eq!(stats.faults.injected, 2, "one corrupt payload per fragment");
        assert_eq!(stats.faults.retries, 2);
        assert_eq!(stats.faults.attempts, 4);
    }

    #[test]
    fn cut_site_fails_over_via_replica() {
        let g = dataset();
        let plan = FaultPlan {
            cut_sites: vec![0],
            ..FaultPlan::none()
        };
        let policy = RetryPolicy {
            max_retries: 0,
            jitter: 0.0,
            deadline: Duration::from_millis(100),
            ..RetryPolicy::default()
        };
        let (engine, req) = chaos_engine(&g, plan, policy, 1, false);
        let query = q(vec![TriplePattern::new(v(0), prop(0), v(1))], 2);
        let (partial, stats) = exec_ft(&engine, &query, &req).unwrap();
        assert!(partial.complete);
        assert_eq!(partial.rows, reference(&g, &query));
        // The severed link behaves as a stall: deadline, then failover.
        assert_eq!(stats.faults.failovers, 1);
        assert_eq!(stats.faults.injected, 1);
        assert_eq!(stats.faults.penalty, Duration::from_millis(100));
    }

    #[test]
    fn same_seed_and_plan_give_identical_fault_stats() {
        let g = dataset();
        let queries = [
            q(vec![TriplePattern::new(v(0), prop(0), v(1))], 2),
            q(
                vec![
                    TriplePattern::new(v(0), prop(0), v(1)),
                    TriplePattern::new(v(1), prop(2), v(2)),
                    TriplePattern::new(v(2), prop(1), v(3)),
                ],
                4,
            ),
            q(vec![TriplePattern::new(v(0), prop(2), v(1))], 2),
        ];
        let run = || {
            let (engine, req) = chaos_engine(
                &g,
                FaultPlan::uniform(99, 0.12),
                RetryPolicy::default(),
                1,
                true,
            );
            queries
                .iter()
                .map(|query| {
                    let (partial, stats) = exec_ft(&engine, query, &req).unwrap();
                    (partial.complete, partial.failed_sites.clone(), stats.faults)
                })
                .collect::<Vec<_>>()
        };
        // FaultStats is Eq: bit-identical counters AND penalty durations.
        assert_eq!(run(), run(), "same seed + same plan must reproduce exactly");
    }

    /// The fault draws of a fixed workload, pinned literally: fault
    /// decisions key on (plan, seed, query number, fragment, host,
    /// attempt) and nothing else, so these counters and penalties are
    /// what every version of the coordinator must reproduce. Recorded
    /// when the fault layer could still be armed on the engine instead of
    /// carried by the request.
    #[test]
    fn fault_draws_match_the_recorded_workload() {
        let g = dataset();
        let queries = [
            q(vec![TriplePattern::new(v(0), prop(0), v(1))], 2),
            q(
                vec![
                    TriplePattern::new(v(0), prop(0), v(1)),
                    TriplePattern::new(v(1), prop(2), v(2)),
                    TriplePattern::new(v(2), prop(1), v(3)),
                ],
                4,
            ),
            q(vec![TriplePattern::new(v(0), prop(2), v(1))], 2),
            q(
                vec![
                    TriplePattern::new(v(0), prop(0), v(1)),
                    TriplePattern::new(v(1), prop(0), v(2)),
                ],
                3,
            ),
        ];
        let stats = |attempts, retries, failovers, injected, failed: u64, penalty_ns| FaultStats {
            attempts,
            retries,
            failovers,
            injected,
            failed_fragments: failed,
            degraded: failed > 0,
            penalty: Duration::from_nanos(penalty_ns),
        };
        let cases = [
            (
                FaultPlan::uniform(11, 0.17),
                vec![
                    (true, stats(5, 3, 0, 5, 0, 510_021_082)),
                    (false, stats(8, 5, 1, 8, 1, 564_474_685)),
                    (false, stats(7, 4, 1, 7, 1, 64_517_024)),
                    (true, stats(4, 2, 0, 4, 0, 535_196_428)),
                ],
            ),
            // Fragment 1's primary refuses every attempt: three tries,
            // then the replica answers.
            (
                scripted(Some(1), Some(1), FaultKind::Crash, u32::MAX),
                vec![
                    (true, stats(5, 2, 1, 3, 0, 30_659_165)),
                    (true, stats(5, 2, 1, 3, 0, 31_790_193)),
                    (true, stats(5, 2, 1, 3, 0, 32_977_270)),
                    (true, stats(5, 2, 1, 3, 0, 32_443_292)),
                ],
            ),
            // Site 0's link is down: three expired deadlines, then the
            // replica answers.
            (
                FaultPlan {
                    cut_sites: vec![0],
                    ..FaultPlan::none()
                },
                vec![
                    (true, stats(5, 2, 1, 3, 0, 1_534_506_522)),
                    (true, stats(5, 2, 1, 3, 0, 1_533_610_676)),
                    (true, stats(5, 2, 1, 3, 0, 1_532_432_710)),
                    (true, stats(5, 2, 1, 3, 0, 1_534_452_944)),
                ],
            ),
        ];
        for (plan, want) in cases {
            let (engine, req) = chaos_engine(&g, plan.clone(), RetryPolicy::default(), 1, true);
            let got: Vec<(bool, FaultStats)> = queries
                .iter()
                .map(|query| {
                    let (partial, stats) = exec_ft(&engine, query, &req).unwrap();
                    (partial.complete, stats.faults)
                })
                .collect();
            assert_eq!(got, want, "{plan:?}");
        }
    }

    #[test]
    fn traced_chaos_execution_records_fault_counters() {
        let g = dataset();
        let plan = scripted(Some(0), Some(0), FaultKind::Crash, 1);
        let (engine, req) = chaos_engine(&g, plan, RetryPolicy::default(), 0, false);
        let query = q(vec![TriplePattern::new(v(0), prop(0), v(1))], 2);
        let rec = Recorder::enabled();
        let (partial, stats) = run_bgp(&engine, &query, &req.traced(&rec))
            .unwrap()
            .into_parts();
        assert!(partial.complete);
        assert_eq!(rec.counter("query.fault.attempts"), Some(stats.faults.attempts));
        assert_eq!(rec.counter("query.fault.retries"), Some(1));
        assert_eq!(rec.counter("query.fault.injected"), Some(1));
        assert_eq!(rec.counter("query.fault.failovers"), Some(0));
        assert_eq!(rec.counter("query.fault.degraded"), Some(0));
        assert!(rec.timer("query.fault.penalty").is_some());
        assert_eq!(rec.counter("query.comm.bytes"), Some(stats.comm_bytes));
    }

    // ---- the unified ExecRequest → ExecOutcome entry point ------------

    #[test]
    fn request_defaults_are_crossing_aware_untraced_inherit_auto() {
        let req = ExecRequest::new();
        assert_eq!(req.mode, ExecMode::CrossingAware);
        assert!(!req.recorder.is_enabled());
        assert!(req.fault.is_none());
        assert_eq!(req.threads, None);
        assert!(req.cached, "caching opt-out, not opt-in");
        assert!(!req.cached(false).cached);
    }

    #[test]
    fn run_is_reproducible_across_fresh_engines_on_every_path() {
        let g = dataset();
        let query = q(
            vec![
                TriplePattern::new(v(0), prop(0), v(1)),
                TriplePattern::new(v(1), prop(2), v(2)),
                TriplePattern::new(v(2), prop(1), v(3)),
            ],
            4,
        );
        // Infallible path: both modes match the centralized reference.
        let engine = mpc_engine(&g);
        for mode in [ExecMode::CrossingAware, ExecMode::StarOnly] {
            let outcome = run_bgp(&engine, &query, &ExecRequest::new().mode(mode)).unwrap();
            assert!(outcome.bindings.complete);
            assert_eq!(outcome.rows(), &reference(&g, &query));
        }
        // Fault path: fresh engines, same seed — fault decisions are keyed
        // on the engine's query sequence, so a rerun reproduces exactly.
        let plan = FaultPlan::uniform(7, 0.1);
        let run_once = || {
            let (engine, req) = chaos_engine(&g, plan.clone(), RetryPolicy::default(), 1, true);
            let (partial, stats) = exec_ft(&engine, &query, &req).unwrap();
            (partial.rows, partial.complete, stats.faults)
        };
        assert_eq!(run_once(), run_once(), "fresh engines must agree");
    }

    #[test]
    fn run_records_par_pool_metrics() {
        let g = dataset();
        let engine = mpc_engine(&g);
        let query = q(vec![TriplePattern::new(v(0), prop(0), v(1))], 2);
        let rec = Recorder::enabled();
        let outcome =
            run_bgp(&engine, &query, &ExecRequest::new().traced(&rec).threads(4)).unwrap();
        assert!(outcome.bindings.complete);
        assert_eq!(rec.counter("par.threads"), Some(4));
        assert_eq!(
            rec.counter("par.tasks"),
            Some(engine.site_count() as u64),
            "one pool task per site fan-out"
        );
        assert!(rec.counter("par.chunks").unwrap() >= 1);
    }

    #[test]
    fn pinned_thread_counts_agree_with_each_other() {
        let g = dataset();
        let engine = mpc_engine(&g);
        let query = q(
            vec![
                TriplePattern::new(v(0), prop(0), v(1)),
                TriplePattern::new(v(1), prop(2), v(2)),
                TriplePattern::new(v(2), prop(1), v(3)),
            ],
            4,
        );
        let at = |t: usize| {
            run_bgp(&engine, &query, &ExecRequest::new().threads(t))
                .unwrap()
                .bindings
                .rows
        };
        let one = at(1);
        assert_eq!(one, reference(&g, &query));
        for t in [2, 3, 8] {
            assert_eq!(at(t), one, "threads={t}");
        }
    }

    /// A dictionary-backed graph (parsed queries need resolvable IRIs):
    /// a chain of `urn:p:0` edges, a second chain of `urn:p:1`, and a
    /// `urn:p:2` star out of one hub.
    fn iri_dataset() -> RdfGraph {
        let mut b = mpc_rdf::GraphBuilder::new();
        for i in 0..7 {
            b.add_iris(&format!("urn:v:{i}"), "urn:p:0", &format!("urn:v:{}", i + 1));
        }
        for i in 8..15 {
            b.add_iris(&format!("urn:v:{i}"), "urn:p:1", &format!("urn:v:{}", i + 1));
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
    fn run_plan_matches_centralized_on_operator_queries() {
        let g = iri_dataset();
        let engine = mpc_engine(&g);
        let store = LocalStore::from_graph(&g);
        for text in [
            "SELECT * WHERE { ?a <urn:p:0> ?b OPTIONAL { ?b <urn:p:2> ?c } }",
            "SELECT * WHERE { { ?a <urn:p:0> ?b } UNION { ?a <urn:p:1> ?b } }",
            "SELECT ?b WHERE { ?a <urn:p:2> ?b . ?b <urn:p:1> ?c } ORDER BY DESC(?b)",
            "SELECT DISTINCT ?a WHERE { { ?a <urn:p:2> ?b } UNION { ?a <urn:p:2> ?c } }",
        ] {
            let plan = plan_of(&g, text);
            let outcome = engine
                .run_plan(&plan, &ExecRequest::new(), g.dictionary())
                .expect("fault-free plan execution is total");
            let central = mpc_sparql::eval_plan_local(&plan, &store, g.dictionary());
            assert_eq!(outcome.rows().vars, central.vars, "{text}");
            let mut got = outcome.rows().rows.clone();
            let mut want = central.rows;
            got.sort_unstable();
            want.sort_unstable();
            assert_eq!(got, want, "{text}");
            assert!(outcome.bindings.complete);
        }
    }

    #[test]
    fn run_plan_pushes_id_filters_into_sites() {
        let g = iri_dataset();
        let engine = mpc_engine(&g);
        // A star is always an IEQ, so the leaf is independent and the
        // id-only FILTER runs inside each site.
        let text = "SELECT * WHERE { ?h <urn:p:2> ?x . ?h <urn:p:2> ?y FILTER(?x != ?y) }";
        let plan = plan_of(&g, text);
        let rec = Recorder::enabled();
        let outcome = engine
            .run_plan(&plan, &ExecRequest::new().traced(&rec), g.dictionary())
            .expect("fault-free plan execution is total");
        assert!(
            rec.counter("query.pushdown.site_evals").unwrap_or(0) > 0,
            "star + id-only filter must evaluate partition-locally"
        );
        assert_eq!(rec.counter("query.pushdown.filters"), Some(1));
        let store = LocalStore::from_graph(&g);
        let central = mpc_sparql::eval_plan_local(&plan, &store, g.dictionary());
        let mut got = outcome.rows().rows.clone();
        let mut want = central.rows;
        got.sort_unstable();
        want.sort_unstable();
        assert_eq!(got, want);
        // Plan shape gauges ride along on the traced path.
        assert_eq!(rec.counter("query.algebra.filter"), Some(1));
        assert_eq!(rec.counter("query.algebra.bgp"), Some(1));
        assert!(rec.counter("query.algebra.nodes").unwrap_or(0) >= 3);
    }

    /// Join texts over `iri_dataset()` whose right-hand leaf shares a
    /// variable with a left side of one row: a bound OPTIONAL, an
    /// OPTIONAL whose arm finds nothing, an object-anchored left side,
    /// and a join of two groups.
    const SEEDED_TEXTS: [&str; 4] = [
        "SELECT * WHERE { <urn:v:0> <urn:p:0> ?x OPTIONAL { ?x <urn:p:0> ?y } }",
        "SELECT * WHERE { <urn:v:6> <urn:p:0> ?x OPTIONAL { ?x <urn:p:0> ?y } }",
        "SELECT * WHERE { ?h <urn:p:2> <urn:v:9> OPTIONAL { ?h <urn:p:0> ?n } }",
        "SELECT * WHERE { { <urn:v:2> <urn:p:0> ?h } { ?h <urn:p:2> ?y } }",
    ];

    #[test]
    fn run_plan_seeds_join_leaves_and_matches_centralized_byte_for_byte() {
        let g = iri_dataset();
        let engine = mpc_engine(&g);
        let store = LocalStore::from_graph(&g);
        for text in SEEDED_TEXTS {
            let plan = plan_of(&g, text);
            let central = mpc_sparql::eval_plan_local(&plan, &store, g.dictionary());
            assert!(!central.is_empty(), "{text}");
            for threads in [1, 4] {
                let rec = Recorder::enabled();
                let outcome = engine
                    .run_plan(
                        &plan,
                        &ExecRequest::new().traced(&rec).threads(threads),
                        g.dictionary(),
                    )
                    .expect("fault-free plan execution is total");
                assert_eq!(outcome.rows(), &central, "{text} at {threads} threads");
                assert_eq!(rec.counter("query.seed.leaves"), Some(1), "{text}");
                assert_eq!(rec.counter("query.seed.keys"), Some(1), "{text}");
                assert_eq!(rec.counter("query.seed.declined"), None, "{text}");
            }
        }
        // Eight hub targets against seven p1 edges: scanning is cheaper.
        let wide = plan_of(
            &g,
            "SELECT * WHERE { ?h <urn:p:2> ?x OPTIONAL { ?x <urn:p:1> ?y } }",
        );
        let rec = Recorder::enabled();
        let outcome = engine
            .run_plan(&wide, &ExecRequest::new().traced(&rec), g.dictionary())
            .expect("fault-free plan execution is total");
        assert_eq!(
            outcome.rows(),
            &mpc_sparql::eval_plan_local(&wide, &store, g.dictionary())
        );
        assert_eq!(rec.counter("query.seed.leaves"), None);
        assert_eq!(rec.counter("query.seed.declined"), Some(1));
    }

    #[test]
    fn run_plan_under_a_quiet_fault_layer_pushes_and_seeds_like_the_unarmed_engine() {
        let g = iri_dataset();
        let engine = mpc_engine(&g);
        let quiet = ExecRequest::new().fault(FaultSpec {
            plan: FaultPlan::none(),
            policy: RetryPolicy::default(),
            replicas: 0,
            graceful: true,
        });
        let filtered = "SELECT * WHERE { ?h <urn:p:2> ?x . ?h <urn:p:2> ?y FILTER(?x != ?y) }";
        let offers = [
            "query.pushdown.site_evals",
            "query.pushdown.filters",
            "query.seed.leaves",
            "query.seed.keys",
            "query.seed.declined",
        ];
        for text in std::iter::once(filtered).chain(SEEDED_TEXTS) {
            let plan = plan_of(&g, text);
            let mut leaves = 0u64;
            plan.root.for_each(&mut |n| {
                leaves += u64::from(matches!(n, mpc_sparql::PlanNode::Bgp { .. }));
            });
            let run = |req: &ExecRequest| {
                let rec = Recorder::enabled();
                let outcome = engine
                    .run_plan(&plan, &req.clone().traced(&rec), g.dictionary())
                    .expect("an empty fault plan injects nothing");
                (outcome, rec)
            };
            let (want, want_rec) = run(&ExecRequest::new());
            let (got, got_rec) = run(&quiet);
            assert_eq!(got.rows(), want.rows(), "{text}");
            assert!(got.bindings.complete, "{text}");
            assert!(
                want_rec.counter(offers[0]).is_some() || want_rec.counter(offers[2]).is_some(),
                "a request without a fault layer takes the offer: {text}"
            );
            for name in offers {
                let (got, want) = (got_rec.counter(name), want_rec.counter(name));
                assert_eq!(got, want, "{name}: {text}");
            }
            assert_eq!(
                got.stats.faults.attempts,
                engine.site_count() as u64 * leaves,
                "one attempt per site per leaf: {text}"
            );
        }
    }

    #[test]
    fn seeded_leaf_is_charged_its_keys_and_ships_fewer_bytes() {
        let g = iri_dataset();
        let engine = mpc_engine(&g);
        let plan = plan_of(&g, SEEDED_TEXTS[0]);
        let mut leaves = Vec::new();
        plan.root.for_each(&mut |n| {
            if let mpc_sparql::PlanNode::Bgp { query, .. } = n {
                leaves.push(query);
            }
        });
        let [left, right] = leaves[..] else {
            panic!("an OPTIONAL over two leaves");
        };
        let plain = |q: &Query| exec(&engine, q);
        let (left_rows, left_stats) = plain(left);
        let (_, right_stats) = plain(right);
        // <urn:v:0> p0 ?x binds ?x once; the arm keys on it.
        let keys: Vec<u32> = left_rows.rows.iter().map(|row| row[0]).collect();
        assert_eq!(keys.len(), 1);

        let seeded = engine
            .run_plan(&plan, &ExecRequest::new(), g.dictionary())
            .expect("fault-free plan execution is total");
        let sites = engine.site_count() as u64;
        let key_bytes = sites * wire::encoded_len(keys.len(), 1);
        // What each site ships back: its share of the arm's keyed rows.
        let arm_bytes: u64 = engine
            .sites
            .iter()
            .map(|site| {
                let mut rows = evaluate(right, &site.store);
                rows.rows.retain(|row| keys.contains(&row[0]));
                wire::encoded_len(rows.len(), right.var_count())
            })
            .sum();
        assert_eq!(
            seeded.stats.comm_bytes,
            left_stats.comm_bytes + key_bytes + arm_bytes
        );
        assert!(
            seeded.stats.comm_bytes < left_stats.comm_bytes + right_stats.comm_bytes,
            "one key out, one row back beats shipping the whole property"
        );
    }
}
