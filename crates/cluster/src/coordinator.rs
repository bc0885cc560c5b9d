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
//! Sites run as real threads on the bounded deterministic `mpc-par`
//! pool (`MPC_THREADS` / [`ExecRequest::threads`]); the reported LET is
//! the slowest site's measured evaluation time, matching a cluster where
//! sites proceed in parallel. Result shipping is charged to the
//! simulated [`NetworkModel`].
//!
//! The single entry point is [`DistributedEngine::run`], driven by an
//! [`ExecRequest`] (mode, tracing, fault handling, threads, caching) and
//! returning an [`ExecOutcome`]. The historical `execute*` method family
//! is gone; the `deprecated-exec` lint (`mpc analyze`) keeps both its
//! call sites *and* its method names from reappearing. For cached
//! serving on top of this entry point, see [`crate::serve::ServeEngine`].

use crate::decompose::{decompose_crossing_aware, decompose_stars, Subquery};
use crate::fault::{FaultInjector, FaultKind, FaultPlan, SiteError};
use crate::ieq::{classify, is_khop_executable, CrossingSet, IeqClass};
use crate::network::{NetworkModel, COORDINATOR};
use crate::retry::{RetryPolicy, SimClock};
use crate::semijoin;
use crate::site::Site;
use crate::stats::{ExecutionStats, FaultStats};
use crate::wire;
use mpc_core::Partitioning;
use mpc_obs::Recorder;
use mpc_rdf::{Dictionary, FxHashMap, RdfGraph};
use mpc_sparql::{
    eval_plan, evaluate_ordered, evaluate_ordered_observed, evaluate_seeded_observed, join_all,
    seeding_pays, static_order, BgpSource, Bindings, LocalStore, MatchObserver, MatchStats, Query,
    ResolvedFilter, ResolvedPlan, StoreStats, TriplePattern,
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

/// Fault handling for one [`ExecRequest`].
#[non_exhaustive]
#[derive(Clone, Debug, Default)]
pub enum FaultSpec {
    /// Use whatever fault layer the engine armed via
    /// [`DistributedEngine::enable_fault_tolerance`] (none on a plain
    /// engine). The default.
    #[default]
    Inherit,
    /// Force the infallible path, even on an armed engine.
    Disabled,
    /// A per-request chaos layer: this request (only) runs against `plan`
    /// with the given countermeasures; the plan's `cut_sites` are applied
    /// to a per-request copy of the network model.
    Custom {
        /// The faults the simulated cluster will experience.
        plan: FaultPlan,
        /// Retry/backoff/deadline countermeasures.
        policy: RetryPolicy,
        /// Extra replica hosts per fragment (0 = primaries only).
        replicas: usize,
        /// Degrade to explicit [`PartialBindings`] instead of erroring.
        graceful: bool,
    },
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
    /// Fault handling (default: [`FaultSpec::Inherit`]).
    pub fault: FaultSpec,
    /// Worker threads for the per-site fan-out. `None` (default) and
    /// `Some(0)` resolve via `MPC_THREADS`, then the machine's available
    /// parallelism — see [`mpc_par::resolve_threads`]. Results are
    /// bit-identical for every value (docs/PARALLELISM.md).
    pub threads: Option<usize>,
    /// Allow answering from the serving layer's result cache (default:
    /// true). Only [`crate::serve::ServeEngine`] consults this — a plain
    /// [`DistributedEngine::run`] always executes. Set false to force a
    /// full execution through a serving front end (docs/SERVING.md).
    pub cached: bool,
}

impl Default for ExecRequest {
    fn default() -> Self {
        ExecRequest {
            mode: ExecMode::default(),
            recorder: Recorder::disabled(),
            fault: FaultSpec::default(),
            threads: None,
            cached: true,
        }
    }
}

impl ExecRequest {
    /// A default request: crossing-aware, untraced, inheriting the
    /// engine's fault layer, auto thread count.
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

    /// Sets the fault handling.
    #[must_use]
    pub fn fault(mut self, fault: FaultSpec) -> Self {
        self.fault = fault;
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

/// What [`DistributedEngine::run`] produced: the (possibly partial)
/// bindings plus the per-stage statistics.
#[non_exhaustive]
#[derive(Clone, Debug)]
pub struct ExecOutcome {
    /// The assembled result. `bindings.complete` is always true on the
    /// infallible path; under faults it follows the graceful-degradation
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
    /// Pattern order for independent execution of the whole query
    /// (starting from the seed variable in a seeded leaf's entry).
    order: Arc<Vec<usize>>,
    /// Pattern order per subquery (parallel to `subqueries`; empty when
    /// the query runs independently).
    sub_orders: Arc<Vec<Vec<usize>>>,
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

/// Fault-tolerance configuration: an injector (the simulated failure
/// source) plus the coordinator's countermeasures.
struct FaultLayer {
    injector: FaultInjector,
    policy: RetryPolicy,
    /// Extra replica hosts per fragment (0 = primaries only). Fragment
    /// `f`'s replica chain is `f, f+1, …, f+replicas` (mod site count).
    replicas: usize,
    /// Degrade gracefully (return [`PartialBindings`] with
    /// `complete == false`) instead of failing the whole query.
    graceful: bool,
}

/// Everything one fragment's request chain produced: the decoded tables
/// (`None` if every host and retry was exhausted) plus the deterministic
/// fault accounting.
struct FragmentOutcome {
    tables: Option<Vec<Bindings>>,
    eval_time: Duration,
    bytes: u64,
    messages: u64,
    attempts: u64,
    retries: u64,
    failovers: u64,
    injected: u64,
    penalty: Duration,
    error: Option<SiteError>,
}

/// Fragment outcomes folded into per-query totals.
struct FoldedOutcomes {
    /// Per-fragment tables, `None` where the fragment failed.
    tables: Vec<Option<Vec<Bindings>>>,
    faults: FaultStats,
    local_eval_time: Duration,
    comm_bytes: u64,
    messages: u64,
    failed_sites: Vec<u16>,
    first_error: Option<SiteError>,
}

fn fold_outcomes(outcomes: Vec<FragmentOutcome>) -> FoldedOutcomes {
    let mut folded = FoldedOutcomes {
        tables: Vec::with_capacity(outcomes.len()),
        faults: FaultStats::default(),
        local_eval_time: Duration::ZERO,
        comm_bytes: 0,
        messages: 0,
        failed_sites: Vec::new(),
        first_error: None,
    };
    for (i, out) in outcomes.into_iter().enumerate() {
        folded.faults.attempts += out.attempts;
        folded.faults.retries += out.retries;
        folded.faults.failovers += out.failovers;
        folded.faults.injected += out.injected;
        // Fragments recover in parallel: the slowest chain gates the stage.
        folded.faults.penalty = folded.faults.penalty.max(out.penalty);
        folded.local_eval_time = folded.local_eval_time.max(out.eval_time);
        if out.tables.is_none() {
            folded.failed_sites.push(narrow::u16_from(i));
            if folded.first_error.is_none() {
                folded.first_error = out.error;
            }
        } else {
            folded.comm_bytes += out.bytes;
            folded.messages += out.messages;
        }
        folded.tables.push(out.tables);
    }
    folded.faults.failed_fragments = folded.failed_sites.len() as u64;
    folded.faults.degraded = !folded.failed_sites.is_empty();
    folded
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
    /// Apply Bloom-semijoin reduction before shipping decomposed subquery
    /// results (the AdPart/WORQ-style run-time optimization; off by
    /// default to match the paper's plain execution).
    pub semijoin_reduction: bool,
    /// The coordinator's plan cache.
    pub(crate) plans: Mutex<FxHashMap<PlanKey, CachedPlan>>,
    /// Per-property cardinality statistics aggregated across sites at
    /// build time (crossing-edge replicas are counted once per site, so
    /// counts are upper bounds — fine for comparing plan candidates).
    pub(crate) stats: StoreStats,
    /// Fault-tolerance layer; `None` on the (default) infallible path.
    fault: Option<FaultLayer>,
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
        let crossing = CrossingSet(
            g.property_ids()
                .map(|p| partitioning.is_crossing_property(p))
                .collect(),
        );
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
            semijoin_reduction: false,
            plans: Mutex::new(FxHashMap::default()),
            stats,
            fault: None,
            query_seq: AtomicU64::new(0),
            live: None,
        }
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
            load_time: Duration::ZERO,
            radius,
            semijoin_reduction: false,
            plans: Mutex::new(FxHashMap::default()),
            stats,
            fault: None,
            query_seq: AtomicU64::new(0),
            live: None,
        }
    }

    /// Arms the chaos layer: `plan` describes the faults the simulated
    /// cluster will experience; `policy`, `replicas`, and `graceful`
    /// describe the coordinator's countermeasures. The plan's `cut_sites`
    /// are applied to the network model's link-down mask.
    pub fn enable_fault_tolerance(
        &mut self,
        plan: FaultPlan,
        policy: RetryPolicy,
        replicas: usize,
        graceful: bool,
    ) {
        self.network = self.network.with_links_down(&plan.cut_sites);
        self.fault = Some(FaultLayer {
            injector: FaultInjector::new(plan),
            policy,
            replicas,
            graceful,
        });
    }

    /// True once [`Self::enable_fault_tolerance`] has armed the chaos layer.
    pub fn fault_tolerance_enabled(&self) -> bool {
        self.fault.is_some()
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

    /// Executes one request — the single entry point replacing the old
    /// `execute*` family.
    ///
    /// * With no effective fault layer ([`FaultSpec::Disabled`], or
    ///   [`FaultSpec::Inherit`] on an unarmed engine) this never errors
    ///   and the outcome is always `complete`.
    /// * With a fault layer it follows the chaos contract (pinned by the
    ///   `chaos_*` proptests): the bindings are either exactly the
    ///   fault-free answer with `complete == true`, or a sound subset
    ///   with `complete == false` and the unreachable fragments named —
    ///   never silently wrong, never a panic. In strict mode
    ///   (`graceful == false`) an unreachable fragment fails the query
    ///   with the first [`SiteError`] observed on it.
    ///
    /// The per-site fan-out runs on the bounded deterministic `mpc-par`
    /// pool; see [`ExecRequest::threads`] for the knobs and
    /// docs/PARALLELISM.md for the bit-identical-results contract.
    pub fn run(&self, query: &Query, req: &ExecRequest) -> Result<ExecOutcome, SiteError> {
        let threads = mpc_par::resolve_threads(req.threads);
        let rec = &req.recorder;
        rec.set("par.threads", threads as u64);
        let custom_layer;
        let (layer, network) = match &req.fault {
            FaultSpec::Disabled => (None, self.network),
            FaultSpec::Inherit => (self.fault.as_ref(), self.network),
            FaultSpec::Custom {
                plan,
                policy,
                replicas,
                graceful,
            } => {
                let network = self.network.with_links_down(&plan.cut_sites);
                custom_layer = FaultLayer {
                    injector: FaultInjector::new(plan.clone()),
                    policy: *policy,
                    replicas: *replicas,
                    graceful: *graceful,
                };
                (Some(&custom_layer), network)
            }
        };
        match layer {
            None => {
                let (rows, stats) =
                    self.exec_infallible(query, req.mode, rec, threads, Pushed::default());
                Ok(ExecOutcome {
                    bindings: PartialBindings {
                        rows,
                        complete: true,
                        failed_sites: Vec::new(),
                    },
                    stats,
                })
            }
            Some(layer) => {
                let (bindings, stats) =
                    self.exec_fault_tolerant(query, req.mode, rec, threads, layer, &network)?;
                Ok(ExecOutcome { bindings, stats })
            }
        }
    }

    /// Executes a resolved algebra plan ([`mpc_sparql::parse`] →
    /// [`mpc_sparql::Algebra::resolve`]) distributedly: each BGP leaf
    /// goes through [`Self::run`] — reusing the plan cache, IEQ
    /// classification, and per-leaf static join orders — and the
    /// OPTIONAL / UNION / FILTER / ORDER BY structure above the leaves
    /// is combined on the coordinator with the bag operators of
    /// [`mpc_sparql::algebra`].
    ///
    /// Id-only FILTERs sitting directly on an *independent* leaf are
    /// pushed into the sites (partition-local evaluation; counted under
    /// `query.pushdown.*`) unless a fault layer is in effect — faulty
    /// requests keep the plain leaf path so the chaos contract stays
    /// byte-identical with the uncached reference. Plan shape is
    /// recorded under `query.algebra.*`.
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
        let pushdown_ok = !self.fault_effective(req);
        let mut source = EngineSource {
            engine: self,
            req,
            pushdown_ok,
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

    /// True if `req` resolves to an active fault layer on this engine.
    fn fault_effective(&self, req: &ExecRequest) -> bool {
        match &req.fault {
            FaultSpec::Disabled => false,
            FaultSpec::Inherit => self.fault.is_some(),
            FaultSpec::Custom { .. } => true,
        }
    }

    /// The infallible execution path: QDT / per-site LET / comm / join
    /// breakdown plus plan-cache, semijoin, and matcher counters under
    /// `query.*`. With a disabled recorder, sites run the unobserved
    /// matcher and nothing is formatted or allocated.
    ///
    /// `pushed` is what [`Self::run_plan`] moved into the sites for this
    /// leaf; anything but the default requires an independent `query`.
    fn exec_infallible(
        &self,
        query: &Query,
        mode: ExecMode,
        rec: &Recorder,
        threads: usize,
        pushed: Pushed<'_>,
    ) -> (Bindings, ExecutionStats) {
        let qdt_span = rec.span("query.qdt");
        let t0 = Instant::now();
        let plan_entry = self.lookup_plan(query, mode, pushed.seed.map(|(var, _)| var), rec);
        let class = plan_entry.class;
        let plan: Option<Arc<Vec<Subquery>>> = plan_entry.subqueries;
        let decomposition_time = t0.elapsed();
        drop(qdt_span);

        let (result, stats) = match plan {
            None => {
                let (result, local_eval_time, comm_bytes, comm_time) =
                    self.run_everywhere_and_union(query, &plan_entry.order, pushed, rec, threads);
                let stats = ExecutionStats {
                    class,
                    independent: true,
                    subqueries: 1,
                    decomposition_time,
                    local_eval_time,
                    join_time: Duration::ZERO,
                    comm_bytes,
                    comm_time,
                    result_rows: result.len(),
                    faults: FaultStats::default(),
                };
                (result, stats)
            }
            Some(subqueries) => {
                debug_assert!(pushed.filters.is_empty() && pushed.seed.is_none());
                let (tables, local_eval_time, comm_bytes, comm_time) =
                    self.run_subqueries(&subqueries, &plan_entry.sub_orders, rec, threads);
                let join_span = rec.span("query.join");
                let t_join = Instant::now();
                // Join smaller tables first.
                let mut ordered = tables;
                ordered.sort_by_key(Bindings::len);
                let joined = join_all(&ordered);
                // Normalize the column order to the full variable space so
                // callers see the same layout as independent execution.
                let all_vars: Vec<u32> = (0..narrow::u32_from(query.var_count())).collect();
                let result = joined.project(&all_vars);
                let join_time = t_join.elapsed();
                drop(join_span);
                let stats = ExecutionStats {
                    class,
                    independent: false,
                    subqueries: subqueries.len(),
                    decomposition_time,
                    local_eval_time,
                    join_time,
                    comm_bytes,
                    comm_time,
                    result_rows: result.len(),
                    faults: FaultStats::default(),
                };
                (result, stats)
            }
        };
        if rec.is_enabled() {
            rec.set("query.subqueries", stats.subqueries as u64);
            rec.set("query.independent", stats.independent as u64);
            rec.set("query.result_rows", stats.result_rows as u64);
            rec.record("query.let", stats.local_eval_time);
            rec.record("query.comm", stats.comm_time);
        }
        (result, stats)
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
        match cached {
            Some(p) => {
                rec.incr("query.plan_cache.hits");
                p
            }
            None => {
                rec.incr("query.plan_cache.misses");
                let class = self.classify(query);
                let subqueries = if self.is_independent(query, mode) {
                    None
                } else {
                    Some(Arc::new(match mode {
                        ExecMode::CrossingAware => {
                            decompose_crossing_aware(query, &self.crossing)
                        }
                        ExecMode::StarOnly => decompose_stars(query),
                    }))
                };
                let order = Arc::new(static_order(
                    &query.patterns,
                    query.var_count(),
                    &self.stats,
                    seed,
                ));
                let sub_orders = Arc::new(subqueries.as_deref().map_or_else(Vec::new, |subs| {
                    subs.iter()
                        .map(|sq| {
                            static_order(
                                &sq.query.patterns,
                                sq.query.var_count(),
                                &self.stats,
                                None,
                            )
                        })
                        .collect()
                }));
                let entry = CachedPlan {
                    class,
                    subqueries,
                    order,
                    sub_orders,
                };
                self.plans.lock().insert(key, entry.clone());
                entry
            }
        }
    }

    /// The fault-tolerant execution path: every fragment request can
    /// crash, stall past its deadline, corrupt its payload, be shed, or
    /// straggle, per `layer`'s [`FaultPlan`]; the coordinator answers with
    /// bounded retries (exponential backoff + seeded jitter, charged to a
    /// simulated clock), failover along each fragment's replica chain, and
    /// — in graceful mode — explicit partial results. See [`Self::run`]
    /// for the soundness contract.
    fn exec_fault_tolerant(
        &self,
        query: &Query,
        mode: ExecMode,
        rec: &Recorder,
        threads: usize,
        layer: &FaultLayer,
        network: &NetworkModel,
    ) -> Result<(PartialBindings, ExecutionStats), SiteError> {
        let qdt_span = rec.span("query.qdt");
        let t0 = Instant::now();
        let plan_entry = self.lookup_plan(query, mode, None, rec);
        let class = plan_entry.class;
        let decomposition_time = t0.elapsed();
        drop(qdt_span);
        // ordering: sequence source for comm-seed derivation; only the
        // RMW's uniqueness matters, no other data is published through it.
        let query_seq = self.query_seq.fetch_add(1, Ordering::Relaxed);
        let comm_seed = layer.injector.plan().seed ^ query_seq;

        let (result, stats) = match plan_entry.subqueries {
            None => {
                let folded = fold_outcomes(self.request_all_fragments(
                    layer,
                    network,
                    query_seq,
                    &[query],
                    threads,
                    rec,
                ));
                if let Some(err) = self.strict_failure(layer, &folded) {
                    return Err(err);
                }
                let result = Bindings::union_sorted(
                    (0..narrow::u32_from(query.var_count())).collect(),
                    folded
                        .tables
                        .into_iter()
                        .flatten()
                        .flatten()
                        .map(|table| table.rows)
                        .collect(),
                );
                let comm_time = network.transfer_time_seeded(
                    folded.comm_bytes,
                    folded.messages,
                    comm_seed,
                );
                let stats = ExecutionStats {
                    class,
                    independent: true,
                    subqueries: 1,
                    decomposition_time,
                    local_eval_time: folded.local_eval_time,
                    join_time: Duration::ZERO,
                    comm_bytes: folded.comm_bytes,
                    comm_time,
                    result_rows: result.len(),
                    faults: folded.faults,
                };
                let partial = PartialBindings {
                    rows: result,
                    complete: !folded.faults.degraded,
                    failed_sites: folded.failed_sites,
                };
                (partial, stats)
            }
            Some(subqueries) => {
                let sub_refs: Vec<&Query> = subqueries.iter().map(|sq| &sq.query).collect();
                let folded = fold_outcomes(self.request_all_fragments(
                    layer,
                    network,
                    query_seq,
                    &sub_refs,
                    threads,
                    rec,
                ));
                if let Some(err) = self.strict_failure(layer, &folded) {
                    return Err(err);
                }
                let mut merged =
                    union_per_subquery(&subqueries, folded.tables.into_iter().flatten());
                let comm_time = network.transfer_time_seeded(
                    folded.comm_bytes,
                    folded.messages,
                    comm_seed,
                );
                let join_span = rec.span("query.join");
                let t_join = Instant::now();
                merged.sort_by_key(Bindings::len);
                let joined = join_all(&merged);
                let all_vars: Vec<u32> = (0..narrow::u32_from(query.var_count())).collect();
                let result = joined.project(&all_vars);
                let join_time = t_join.elapsed();
                drop(join_span);
                let stats = ExecutionStats {
                    class,
                    independent: false,
                    subqueries: subqueries.len(),
                    decomposition_time,
                    local_eval_time: folded.local_eval_time,
                    join_time,
                    comm_bytes: folded.comm_bytes,
                    comm_time,
                    result_rows: result.len(),
                    faults: folded.faults,
                };
                let partial = PartialBindings {
                    rows: result,
                    complete: !folded.faults.degraded,
                    failed_sites: folded.failed_sites,
                };
                (partial, stats)
            }
        };
        if rec.is_enabled() {
            rec.set("query.subqueries", stats.subqueries as u64);
            rec.set("query.independent", u64::from(stats.independent));
            rec.set("query.result_rows", stats.result_rows as u64);
            rec.record("query.let", stats.local_eval_time);
            rec.record("query.comm", stats.comm_time);
            rec.add("query.comm.bytes", stats.comm_bytes);
            rec.add("query.fault.attempts", stats.faults.attempts);
            rec.add("query.fault.retries", stats.faults.retries);
            rec.add("query.fault.failovers", stats.faults.failovers);
            rec.add("query.fault.injected", stats.faults.injected);
            rec.add("query.fault.failed_sites", stats.faults.failed_fragments);
            rec.set("query.fault.degraded", u64::from(stats.faults.degraded));
            rec.record("query.fault.penalty", stats.faults.penalty);
        }
        Ok((result, stats))
    }

    /// In strict (non-graceful) mode, a failed fragment fails the query.
    fn strict_failure(&self, layer: &FaultLayer, folded: &FoldedOutcomes) -> Option<SiteError> {
        if layer.graceful || folded.failed_sites.is_empty() {
            return None;
        }
        Some(folded.first_error.unwrap_or(SiteError::Crashed {
            host: folded.failed_sites[0],
        }))
    }

    /// Issues every fragment's request chain on the bounded `mpc-par`
    /// pool (the fault-tolerant twin of [`Self::parallel_eval`]).
    /// Retries stay per-site inside each chain; outcomes come back in
    /// fragment order regardless of thread count.
    fn request_all_fragments(
        &self,
        layer: &FaultLayer,
        network: &NetworkModel,
        query_seq: u64,
        queries: &[&Query],
        threads: usize,
        rec: &Recorder,
    ) -> Vec<FragmentOutcome> {
        let (outcomes, pstats) = mpc_par::par_map_stats(threads, &self.sites, |i, _| {
            self.request_fragment(layer, network, query_seq, i, queries)
        });
        record_par_stats(rec, &pstats);
        outcomes
    }

    /// One fragment's request chain: walk the replica hosts in order, give
    /// each host `max_retries + 1` attempts with exponential backoff
    /// between them, and stop at the first success. Detection costs and
    /// backoff waits are charged to a [`SimClock`], never slept — every
    /// charge is a deterministic function of (plan, seed, query_seq), so
    /// the penalty is reproducible while the run stays fast.
    fn request_fragment(
        &self,
        layer: &FaultLayer,
        network: &NetworkModel,
        query_seq: u64,
        fragment_idx: usize,
        queries: &[&Query],
    ) -> FragmentOutcome {
        let fragment = narrow::u16_from(fragment_idx);
        let site_count = self.sites.len();
        let replicas = layer.replicas.min(site_count.saturating_sub(1));
        let mut clock = SimClock::new();
        let mut out = FragmentOutcome {
            tables: None,
            eval_time: Duration::ZERO,
            bytes: 0,
            messages: 0,
            attempts: 0,
            retries: 0,
            failovers: 0,
            injected: 0,
            penalty: Duration::ZERO,
            error: None,
        };
        'hosts: for offset in 0..=replicas {
            let host = narrow::u16_from((fragment_idx + offset) % site_count);
            if offset > 0 {
                out.failovers += 1;
            }
            for attempt in 0..=layer.policy.max_retries {
                out.attempts += 1;
                // A severed coordinator↔host link behaves like a stall: the
                // request dies on the wire and the deadline expires.
                let fault = if network.partitioned(COORDINATOR, host) {
                    Some(FaultKind::Stall)
                } else {
                    layer.injector.decide(query_seq, fragment, host, attempt)
                };
                if fault.is_some() {
                    out.injected += 1;
                }
                let served = self.sites[fragment_idx].respond(
                    queries,
                    host,
                    fault,
                    layer.injector.plan().slow_factor,
                    layer.policy.deadline,
                );
                match served {
                    Ok(resp) => {
                        out.bytes = resp.bytes;
                        out.messages = queries.len() as u64;
                        out.eval_time = resp.eval_time;
                        out.tables = Some(resp.tables);
                        break 'hosts;
                    }
                    Err(e) => {
                        out.error = Some(e);
                        clock.charge(match e {
                            // A stalled site costs the full deadline.
                            SiteError::Timeout { deadline, .. } => deadline,
                            // Refusals and rejected payloads are detected
                            // after one round trip.
                            SiteError::Crashed { .. }
                            | SiteError::Overloaded { .. }
                            | SiteError::CorruptPayload { .. } => network.latency,
                        });
                        if attempt < layer.policy.max_retries {
                            out.retries += 1;
                            clock.charge(layer.policy.backoff(
                                attempt,
                                layer.injector.attempt_hash(query_seq, fragment, host, attempt),
                            ));
                        }
                    }
                }
            }
        }
        out.penalty = clock.elapsed();
        out
    }

    /// Independent evaluation: the query runs on every site in parallel
    /// under the plan's static join `order`; results are unioned
    /// (crossing-edge replicas can duplicate matches, so the union
    /// dedups).
    ///
    /// `pushed.filters` are id-only [`ResolvedFilter`]s in the query's
    /// own variable space, applied *inside* each site before rows are
    /// shipped — the partition-local FILTER pushdown of docs/QUERY.md.
    /// Rows a filter rejects never cross the property cut, so they are
    /// charged no wire bytes.
    ///
    /// `pushed.seed` makes this the right-hand leaf of a bind join: every
    /// site starts its search from the keys (`order` is then the seeded
    /// order), and the keys, which travel with each site's request, are
    /// charged at wire size like the semijoin filters of
    /// [`Self::run_subqueries`].
    fn run_everywhere_and_union(
        &self,
        query: &Query,
        order: &[usize],
        pushed: Pushed<'_>,
        rec: &Recorder,
        threads: usize,
    ) -> (Bindings, Duration, u64, Duration) {
        let Pushed { filters, seed } = pushed;
        // Only observe the matcher when the recorder is live — the
        // unobserved arm monomorphizes to the exact pre-instrumentation
        // search loop.
        let observe = rec.is_enabled();
        let leaf_vars: Vec<u32> = (0..narrow::u32_from(query.var_count())).collect();
        let per_site = self.parallel_eval(threads, rec, |site| {
            let (mut b, mstats) = if observe {
                let mut mstats = MatchStats::default();
                let b = eval_leaf(query, &site.store, order, seed, &mut mstats);
                (b, Some(mstats))
            } else {
                (eval_leaf(query, &site.store, order, seed, &mut ()), None)
            };
            if !filters.is_empty() {
                b.rows
                    .retain(|row| filters.iter().all(|f| f.accepts_ids(row, &leaf_vars)));
            }
            (b, mstats)
        });
        let mut comm_bytes = 0u64;
        // Summed post-join on the coordinator thread, like every other
        // counter (workers never touch the recorder).
        if !filters.is_empty() {
            rec.add("query.pushdown.site_evals", self.sites.len() as u64);
            rec.add("query.pushdown.filters", filters.len() as u64);
        }
        if let Some((_, keys)) = seed {
            comm_bytes += self.sites.len() as u64 * wire::encoded_len(keys.len(), 1);
            rec.incr("query.seed.leaves");
            rec.add("query.seed.keys", keys.len() as u64);
        }
        let width = query.var_count();
        let mut runs = Vec::with_capacity(per_site.len());
        let mut max_time = Duration::ZERO;
        // Workers never touch the recorder: per-site counters are summed
        // here on the coordinator thread after the join, in site order,
        // so `--profile` reports are reproducible for any thread count.
        let mut match_total = MatchStats::default();
        for (i, ((bindings, mstats), took)) in per_site.into_iter().enumerate() {
            if let Some(mstats) = mstats {
                rec.record(&format!("query.let.site{i}"), took);
                merge_match_stats(&mut match_total, mstats);
            }
            comm_bytes += wire::encoded_len(bindings.len(), width);
            max_time = max_time.max(took);
            runs.push(bindings.rows);
        }
        if observe {
            record_match_stats(rec, &match_total);
        }
        let result = Bindings::union_sorted(leaf_vars, runs);
        let messages = self.sites.len() as u64;
        let comm_time = self.network.transfer_time(comm_bytes, messages);
        rec.add("query.comm.bytes", comm_bytes);
        rec.add("query.comm.messages", messages);
        (result, max_time, comm_bytes, comm_time)
    }

    /// Decomposed evaluation: every subquery runs on every site under its
    /// static join order (`orders` is parallel to `subqueries`); per-site
    /// time is the sum of that site's subquery times (a site evaluates its
    /// subqueries sequentially), the stage time is the max across sites.
    ///
    /// With [`Self::semijoin_reduction`] enabled, a Bloom-semijoin pass
    /// prunes the merged tables before the shipped bytes are charged (plus
    /// the filters' own wire size), modeling sites exchanging filters and
    /// pruning locally before sending results to the coordinator.
    fn run_subqueries(
        &self,
        subqueries: &[Subquery],
        orders: &[Vec<usize>],
        rec: &Recorder,
        threads: usize,
    ) -> (Vec<Bindings>, Duration, u64, Duration) {
        debug_assert_eq!(subqueries.len(), orders.len());
        let observe = rec.is_enabled();
        let per_site = self.parallel_eval(threads, rec, |site| {
            if observe {
                let mut mstats = MatchStats::default();
                let tables = subqueries
                    .iter()
                    .zip(orders)
                    .map(|(sq, ord)| {
                        evaluate_ordered_observed(&sq.query, &site.store, ord, &mut mstats)
                    })
                    .collect::<Vec<Bindings>>();
                (tables, Some(mstats))
            } else {
                let tables = subqueries
                    .iter()
                    .zip(orders)
                    .map(|(sq, ord)| evaluate_ordered(&sq.query, &site.store, ord))
                    .collect::<Vec<Bindings>>();
                (tables, None)
            }
        });
        let mut max_time = Duration::ZERO;
        let mut per_site_tables = Vec::with_capacity(per_site.len());
        // Same merge discipline as `run_everywhere_and_union`: counters
        // are summed post-join in site order, never from worker threads.
        let mut match_total = MatchStats::default();
        for (i, ((site_tables, mstats), took)) in per_site.into_iter().enumerate() {
            if let Some(mstats) = mstats {
                rec.record(&format!("query.let.site{i}"), took);
                merge_match_stats(&mut match_total, mstats);
            }
            max_time = max_time.max(took);
            per_site_tables.push(site_tables);
        }
        if observe {
            record_match_stats(rec, &match_total);
        }
        let mut merged = union_per_subquery(subqueries, per_site_tables);
        let mut comm_bytes = 0u64;
        if self.semijoin_reduction {
            let stats = semijoin::bloom_reduce(&mut merged);
            comm_bytes += stats.filter_bytes;
            if rec.is_enabled() {
                rec.add("query.semijoin.rows_before", stats.rows_before as u64);
                rec.add("query.semijoin.rows_after", stats.rows_after as u64);
                rec.add("query.semijoin.filter_bytes", stats.filter_bytes);
                if stats.rows_before > 0 {
                    rec.set(
                        "query.semijoin.kept_permille",
                        (stats.rows_after as u64 * 1000) / stats.rows_before as u64,
                    );
                }
            }
        }
        for table in &merged {
            comm_bytes += wire::encoded_len(table.len(), table.vars.len());
        }
        let messages = (self.sites.len() * subqueries.len()) as u64;
        let comm_time = self.network.transfer_time(comm_bytes, messages);
        rec.add("query.comm.bytes", comm_bytes);
        rec.add("query.comm.messages", messages);
        (merged, max_time, comm_bytes, comm_time)
    }

    /// Runs `f` on every site on the bounded `mpc-par` pool, measuring
    /// each site's time. Results come back in site order for any thread
    /// count; `f` must not touch the recorder (counters are merged by
    /// the caller after the join — see the determinism contract in
    /// docs/PARALLELISM.md).
    fn parallel_eval<T: Send>(
        &self,
        threads: usize,
        rec: &Recorder,
        f: impl Fn(&Site) -> T + Sync,
    ) -> Vec<(T, Duration)> {
        let (per_site, pstats) = mpc_par::par_map_stats(threads, &self.sites, |_, site| {
            let t0 = Instant::now();
            let out = f(site);
            (out, t0.elapsed())
        });
        record_par_stats(rec, &pstats);
        per_site
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

/// One site's evaluation of an independent leaf under its static order.
fn eval_leaf(
    query: &Query,
    store: &LocalStore,
    order: &[usize],
    seed: Option<(u32, &[u32])>,
    obs: &mut impl MatchObserver,
) -> Bindings {
    match seed {
        Some((var, keys)) => evaluate_seeded_observed(query, store, order, var, keys, obs),
        None => evaluate_ordered_observed(query, store, order, obs),
    }
}

/// The [`BgpSource`] behind [`DistributedEngine::run_plan`]: leaves run
/// through the engine and their [`ExecutionStats`] are summed as they
/// complete (leaves evaluate sequentially on the coordinator; each one
/// fans out across sites internally).
struct EngineSource<'a> {
    engine: &'a DistributedEngine,
    req: &'a ExecRequest,
    /// False when a fault layer is in effect — filter pushdown and
    /// seeding then stand down so every leaf follows the chaos-contract
    /// path.
    pushdown_ok: bool,
    agg: Option<ExecutionStats>,
    complete: bool,
    failed_sites: Vec<u16>,
}

impl EngineSource<'_> {
    /// Runs an independent leaf on the infallible path with `pushed`
    /// applied inside the sites. Callers have checked `pushdown_ok` and
    /// that the leaf is independent.
    fn run_independent_leaf(&mut self, query: &Query, pushed: Pushed<'_>) -> Bindings {
        let req = self.req;
        let threads = mpc_par::resolve_threads(req.threads);
        req.recorder.set("par.threads", threads as u64);
        let (rows, stats) =
            self.engine
                .exec_infallible(query, req.mode, &req.recorder, threads, pushed);
        self.note(stats);
        rows
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
        let outcome = self.engine.run(query, self.req)?;
        let (bindings, stats) = outcome.into_parts();
        self.note(stats);
        self.complete &= bindings.complete;
        self.failed_sites.extend(bindings.failed_sites);
        Ok(bindings.rows)
    }

    fn eval_bgp_filtered(
        &mut self,
        query: &Query,
        filters: &[ResolvedFilter],
    ) -> Option<Result<Bindings, SiteError>> {
        if !self.pushdown_ok || !self.engine.is_independent(query, self.req.mode) {
            return None;
        }
        Some(Ok(self.run_independent_leaf(
            query,
            Pushed {
                filters,
                seed: None,
            },
        )))
    }

    fn eval_bgp_seeded(
        &mut self,
        query: &Query,
        var: u32,
        keys: &[u32],
    ) -> Option<Result<Bindings, SiteError>> {
        let engine = self.engine;
        if !self.pushdown_ok
            || !engine.is_independent(query, self.req.mode)
            || !seeding_pays(
                &query.patterns,
                query.var_count(),
                &engine.stats,
                keys.len(),
            )
        {
            self.req.recorder.incr("query.seed.declined");
            return None;
        }
        Some(Ok(self.run_independent_leaf(
            query,
            Pushed {
                filters: &[],
                seed: Some((var, keys)),
            },
        )))
    }
}

/// Unions what the sites returned for each subquery — `per_site` yields
/// one table per subquery, in subquery order — into one table per
/// subquery over its parent-space columns. Sites return strictly sorted
/// tables, so this is [`Bindings::union_sorted`] per subquery.
fn union_per_subquery(
    subqueries: &[Subquery],
    per_site: impl IntoIterator<Item = Vec<Bindings>>,
) -> Vec<Bindings> {
    let mut runs: Vec<Vec<Vec<Vec<u32>>>> = vec![Vec::new(); subqueries.len()];
    for tables in per_site {
        for (into, table) in runs.iter_mut().zip(tables) {
            into.push(table.rows);
        }
    }
    subqueries
        .iter()
        .zip(runs)
        .map(|(sq, runs)| Bindings::union_sorted(sq.parent_vars.clone(), runs))
        .collect()
}

/// Folds one fan-out's pool accounting into `par.*` (`par.threads`, the
/// resolved thread budget, is a gauge set once per request in `run`).
fn record_par_stats(rec: &Recorder, stats: &mpc_par::ParStats) {
    if rec.is_enabled() {
        rec.add("par.tasks", stats.tasks as u64);
        rec.add("par.chunks", stats.chunks);
    }
}

/// Sums one site's matcher counters into a running total (the
/// order-independent merge recorded once per stage).
fn merge_match_stats(total: &mut MatchStats, site: MatchStats) {
    total.steps += site.steps;
    total.candidates_scanned += site.candidates_scanned;
    total.backtracks += site.backtracks;
    total.rows_emitted += site.rows_emitted;
    for (path, n) in site.access_paths {
        *total.access_paths.entry(path).or_insert(0) += n;
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
        let (partial, stats) = engine
            .run(query, &ExecRequest::new().mode(mode))
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
        let (partial, stats) = engine
            .run(query, &ExecRequest::new().traced(rec))
            .unwrap()
            .into_parts();
        assert!(partial.complete);
        (partial.rows, stats)
    }

    /// Execution with the engine's inherited fault layer (the old
    /// `execute_fault_tolerant` shape).
    fn exec_ft(
        engine: &DistributedEngine,
        query: &Query,
    ) -> Result<(PartialBindings, ExecutionStats), SiteError> {
        engine
            .run(query, &ExecRequest::new())
            .map(ExecOutcome::into_parts)
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
    fn semijoin_reduction_preserves_results_and_cuts_bytes() {
        let g = dataset();
        let part = MpcPartitioner::new(MpcConfig::with_k(2)).partition(&g);
        let plain = DistributedEngine::build(&g, &part, NetworkModel::free());
        let mut reduced = DistributedEngine::build(&g, &part, NetworkModel::free());
        reduced.semijoin_reduction = true;
        // Non-IEQ query: two internal cores joined by a crossing edge.
        let query = q(
            vec![
                TriplePattern::new(v(0), prop(0), v(1)),
                TriplePattern::new(v(1), prop(2), v(2)),
                TriplePattern::new(v(2), prop(1), v(3)),
            ],
            4,
        );
        let (r1, s1) = exec(&plain, &query);
        let (r2, s2) = exec(&reduced, &query);
        assert!(!s1.independent);
        assert_eq!(r1, r2);
        // Reduction ships fewer row bytes; filters add a constant, so just
        // check it never blows up and usually shrinks.
        assert!(s2.comm_bytes <= s1.comm_bytes + 4096);
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
    fn traced_semijoin_reduction_records_ratio() {
        let g = dataset();
        let part = MpcPartitioner::new(MpcConfig::with_k(2)).partition(&g);
        let mut engine = DistributedEngine::build(&g, &part, NetworkModel::free());
        engine.semijoin_reduction = true;
        let query = q(
            vec![
                TriplePattern::new(v(0), prop(0), v(1)),
                TriplePattern::new(v(1), prop(2), v(2)),
                TriplePattern::new(v(2), prop(1), v(3)),
            ],
            4,
        );
        let rec = Recorder::enabled();
        let (result, _) = exec_traced(&engine, &query, &rec);
        assert_eq!(result, reference(&g, &query));
        let before = rec.counter("query.semijoin.rows_before").unwrap();
        let after = rec.counter("query.semijoin.rows_after").unwrap();
        assert!(after <= before);
        assert!(rec.counter("query.semijoin.kept_permille").unwrap() <= 1000);
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

    fn chaos_engine(
        g: &RdfGraph,
        plan: FaultPlan,
        policy: RetryPolicy,
        replicas: usize,
        graceful: bool,
    ) -> DistributedEngine {
        let part = MpcPartitioner::new(MpcConfig::with_k(2)).partition(g);
        let mut engine = DistributedEngine::build(g, &part, NetworkModel::free());
        engine.enable_fault_tolerance(plan, policy, replicas, graceful);
        engine
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
        assert!(!engine.fault_tolerance_enabled());
        let query = q(vec![TriplePattern::new(v(0), prop(0), v(1))], 2);
        let (partial, stats) = exec_ft(&engine, &query).unwrap();
        assert!(partial.complete);
        assert!(partial.failed_sites.is_empty());
        assert_eq!(partial.rows, reference(&g, &query));
        assert_eq!(stats.faults, crate::stats::FaultStats::default());
    }

    #[test]
    fn quiet_plan_matches_plain_execution_on_both_paths() {
        let g = dataset();
        let engine = chaos_engine(&g, FaultPlan::none(), RetryPolicy::default(), 1, true);
        assert!(engine.fault_tolerance_enabled());
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
            let (partial, stats) = exec_ft(&engine, query).unwrap();
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
        let engine = chaos_engine(&g, plan, RetryPolicy::default(), 0, false);
        let query = q(vec![TriplePattern::new(v(0), prop(0), v(1))], 2);
        let (partial, stats) = exec_ft(&engine, &query).unwrap();
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
        let engine = chaos_engine(&g, plan, policy, 1, false);
        let query = q(vec![TriplePattern::new(v(0), prop(0), v(1))], 2);
        let (partial, stats) = exec_ft(&engine, &query).unwrap();
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
        let engine = chaos_engine(&g, plan.clone(), policy, 1, true);
        let query = q(vec![TriplePattern::new(v(0), prop(0), v(1))], 2);
        let (partial, stats) = exec_ft(&engine, &query).unwrap();
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
        let strict = chaos_engine(&g, plan, policy, 1, false);
        let err = exec_ft(&strict, &query).unwrap_err();
        assert!(matches!(err, SiteError::Crashed { .. }), "{err}");
    }

    #[test]
    fn corrupt_payloads_are_detected_and_retried() {
        let g = dataset();
        // Every fragment's first attempt returns a damaged payload.
        let plan = scripted(None, None, FaultKind::Corrupt, 1);
        let engine = chaos_engine(&g, plan, RetryPolicy::default(), 0, false);
        // Non-IEQ query: the corrupt payload crosses the decomposed path.
        let query = q(
            vec![
                TriplePattern::new(v(0), prop(0), v(1)),
                TriplePattern::new(v(1), prop(2), v(2)),
                TriplePattern::new(v(2), prop(1), v(3)),
            ],
            4,
        );
        let (partial, stats) = exec_ft(&engine, &query).unwrap();
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
        let engine = chaos_engine(&g, plan, policy, 1, false);
        let query = q(vec![TriplePattern::new(v(0), prop(0), v(1))], 2);
        let (partial, stats) = exec_ft(&engine, &query).unwrap();
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
            let engine = chaos_engine(
                &g,
                FaultPlan::uniform(99, 0.12),
                RetryPolicy::default(),
                1,
                true,
            );
            queries
                .iter()
                .map(|query| {
                    let (partial, stats) = exec_ft(&engine, query).unwrap();
                    (partial.complete, partial.failed_sites.clone(), stats.faults)
                })
                .collect::<Vec<_>>()
        };
        // FaultStats is Eq: bit-identical counters AND penalty durations.
        assert_eq!(run(), run(), "same seed + same plan must reproduce exactly");
    }

    #[test]
    fn traced_chaos_execution_records_fault_counters() {
        let g = dataset();
        let plan = scripted(Some(0), Some(0), FaultKind::Crash, 1);
        let engine = chaos_engine(&g, plan, RetryPolicy::default(), 0, false);
        let query = q(vec![TriplePattern::new(v(0), prop(0), v(1))], 2);
        let rec = Recorder::enabled();
        let (partial, stats) = engine
            .run(&query, &ExecRequest::new().traced(&rec))
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
        assert!(matches!(req.fault, FaultSpec::Inherit));
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
            let outcome = engine
                .run(&query, &ExecRequest::new().mode(mode))
                .unwrap();
            assert!(outcome.bindings.complete);
            assert_eq!(outcome.rows(), &reference(&g, &query));
        }
        // Fault path: fresh engines, same seed — fault decisions are keyed
        // on the engine's query sequence, so a rerun reproduces exactly.
        let plan = FaultPlan::uniform(7, 0.1);
        let run_once = || {
            let engine = chaos_engine(&g, plan.clone(), RetryPolicy::default(), 1, true);
            let (partial, stats) = exec_ft(&engine, &query).unwrap();
            (partial.rows, partial.complete, stats.faults)
        };
        assert_eq!(run_once(), run_once(), "fresh engines must agree");
    }

    #[test]
    fn fault_spec_disabled_bypasses_an_armed_engine() {
        let g = dataset();
        // Every request everywhere crashes, forever.
        let plan = scripted(None, None, FaultKind::Crash, u32::MAX);
        let engine = chaos_engine(&g, plan, RetryPolicy::default(), 1, true);
        let query = q(vec![TriplePattern::new(v(0), prop(0), v(1))], 2);
        let outcome = engine
            .run(&query, &ExecRequest::new().fault(FaultSpec::Disabled))
            .unwrap();
        assert!(outcome.bindings.complete);
        assert_eq!(outcome.rows(), &reference(&g, &query));
        assert_eq!(outcome.stats.faults, FaultStats::default());
    }

    #[test]
    fn fault_spec_custom_arms_one_request_only() {
        let g = dataset();
        let engine = mpc_engine(&g);
        let query = q(vec![TriplePattern::new(v(0), prop(0), v(1))], 2);
        // Fragment 0's primary crashes on the first attempt only.
        let custom = FaultSpec::Custom {
            plan: scripted(Some(0), Some(0), FaultKind::Crash, 1),
            policy: RetryPolicy::default(),
            replicas: 0,
            graceful: false,
        };
        let outcome = engine
            .run(&query, &ExecRequest::new().fault(custom))
            .unwrap();
        assert!(outcome.bindings.complete);
        assert_eq!(outcome.rows(), &reference(&g, &query));
        assert_eq!(outcome.stats.faults.injected, 1);
        assert_eq!(outcome.stats.faults.retries, 1);
        // The engine itself stays unarmed: the next request sees nothing.
        assert!(!engine.fault_tolerance_enabled());
        let plain = engine.run(&query, &ExecRequest::new()).unwrap();
        assert_eq!(plain.stats.faults, FaultStats::default());
    }

    #[test]
    fn run_records_par_pool_metrics() {
        let g = dataset();
        let engine = mpc_engine(&g);
        let query = q(vec![TriplePattern::new(v(0), prop(0), v(1))], 2);
        let rec = Recorder::enabled();
        let outcome = engine
            .run(&query, &ExecRequest::new().traced(&rec).threads(4))
            .unwrap();
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
            engine
                .run(&query, &ExecRequest::new().threads(t))
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

    #[test]
    fn run_plan_with_fault_layer_stands_pushdown_down() {
        let g = iri_dataset();
        let mut engine = mpc_engine(&g);
        engine.enable_fault_tolerance(FaultPlan::none(), RetryPolicy::default(), 0, true);
        let text = "SELECT * WHERE { ?h <urn:p:2> ?x . ?h <urn:p:2> ?y FILTER(?x != ?y) }";
        let plan = plan_of(&g, text);
        let rec = Recorder::enabled();
        let outcome = engine
            .run_plan(&plan, &ExecRequest::new().traced(&rec), g.dictionary())
            .expect("an empty fault plan injects nothing");
        assert_eq!(
            rec.counter("query.pushdown.site_evals"),
            None,
            "fault-layer requests must keep the plain leaf path"
        );
        let store = LocalStore::from_graph(&g);
        let central = mpc_sparql::eval_plan_local(&plan, &store, g.dictionary());
        let mut got = outcome.rows().rows.clone();
        let mut want = central.rows;
        got.sort_unstable();
        want.sort_unstable();
        assert_eq!(got, want);
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
    fn run_plan_with_fault_layer_stands_seeding_down() {
        let g = iri_dataset();
        let mut engine = mpc_engine(&g);
        engine.enable_fault_tolerance(FaultPlan::none(), RetryPolicy::default(), 0, true);
        let store = LocalStore::from_graph(&g);
        for text in SEEDED_TEXTS {
            let plan = plan_of(&g, text);
            let rec = Recorder::enabled();
            let outcome = engine
                .run_plan(&plan, &ExecRequest::new().traced(&rec), g.dictionary())
                .expect("an empty fault plan injects nothing");
            assert_eq!(
                rec.counter("query.seed.leaves"),
                None,
                "fault-layer requests must keep the plain leaf path"
            );
            assert_eq!(rec.counter("query.seed.declined"), Some(1));
            assert_eq!(
                outcome.rows(),
                &mpc_sparql::eval_plan_local(&plan, &store, g.dictionary()),
                "{text}"
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
