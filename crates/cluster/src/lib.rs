//! A simulated distributed SPARQL engine — the evaluation substrate of the
//! MPC paper (Sections V and VI).
//!
//! The paper runs an 8-machine MPI cluster with a gStore instance per
//! partition. This crate reproduces that architecture in-process:
//!
//! * [`site::Site`] — one "machine" holding a partition fragment in an
//!   indexed store,
//! * [`coordinator::DistributedEngine`] — receives queries, classifies them
//!   ([`ieq`], Definitions 5.1–5.3), decomposes non-IEQs ([`decompose`],
//!   Algorithm 2 or the star baseline), fans evaluation out to site threads,
//!   and joins at the coordinator,
//! * [`vp::VpEngine`] — the edge-disjoint (vertical partitioning) baseline
//!   with per-pattern routing,
//! * [`serve::ServeEngine`] — the workload serving front end: canonical
//!   plan keys, plan/result caching, epoch invalidation (docs/SERVING.md),
//! * [`network::NetworkModel`] — charges simulated wire time for every
//!   shipped binding, replacing the real LAN,
//! * [`stats::ExecutionStats`] — the QDT / LET / JT / communication
//!   breakdown reported in Tables IV–V and Figures 7–11.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod coordinator;
pub mod decompose;
pub mod fault;
pub mod ieq;
pub mod network;
pub mod partial;
pub mod request;
pub mod retry;
pub mod serve;
pub mod site;
pub mod stats;
pub mod update;
pub mod vp;
pub mod wire;

pub use coordinator::{
    DistributedEngine, ExecMode, ExecOutcome, ExecRequest, FaultSpec, PartialBindings,
};
pub use decompose::{decompose_crossing_aware, decompose_stars, extract_subquery, Subquery};
pub use fault::{FaultKind, FaultPlan, ScriptedFault, SiteError};
pub use ieq::{classify, is_khop_executable, CrossingOracle, CrossingSet, IeqClass};
pub use network::{NetworkModel, COORDINATOR};
pub use partial::{partial_evaluate, PartialEvalStats};
pub use request::RequestSpec;
pub use retry::{RetryPolicy, SimClock};
pub use serve::{CommitOptions, EpochTransition, ServeEngine, ShardStats};
pub use update::{CommitError, CommitReport, UpdateBatch, UpdateOp};
pub use site::{Site, SiteResponse};
pub use stats::{ExecutionStats, FaultStats, FiveNumber};
pub use vp::VpEngine;

#[cfg(test)]
#[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
mod proptests {
    use super::*;
    use mpc_core::{
        IncrementalPartitioning, MinEdgeCutPartitioner, MpcConfig, MpcPartitioner, Partitioner,
        SubjectHashPartitioner, VerticalPartitioner,
    };
    use mpc_rdf::{GraphBuilder, PropertyId, RdfGraph, Term, Triple, VertexId};
    use mpc_sparql::{evaluate, LocalStore, QLabel, QNode, Query, ResolvedPlan, TriplePattern};
    use proptest::prelude::*;

    fn graph_strategy() -> impl Strategy<Value = RdfGraph> {
        (4usize..20, 2usize..5).prop_flat_map(|(n, l)| {
            proptest::collection::vec((0..n as u32, 0..l as u32, 0..n as u32), 4..60).prop_map(
                move |edges| {
                    let triples = edges
                        .into_iter()
                        .map(|(s, p, o)| Triple::new(VertexId(s), PropertyId(p), VertexId(o)))
                        .collect();
                    RdfGraph::from_raw(n, l, triples)
                },
            )
        })
    }

    /// Random connected-ish queries: a chain of patterns sharing variables,
    /// guaranteeing weak connectivity (the paper's standing assumption).
    fn query_strategy() -> impl Strategy<Value = Query> {
        proptest::collection::vec((0u32..5, any::<bool>(), 0u32..5, any::<bool>()), 1..4)
            .prop_map(|specs| {
                let mut patterns = Vec::new();
                for (i, (p, flip, other, _)) in specs.iter().enumerate() {
                    // Chain: pattern i links var i and var i+1 (or a repeat
                    // var for cycles), property p.
                    let a = QNode::Var(i as u32);
                    let b = QNode::Var(if *flip { (*other) % (i as u32 + 2) } else { i as u32 + 1 });
                    patterns.push(TriplePattern::new(a, QLabel::Prop(PropertyId(*p)), b));
                }
                // Remap variables densely: cycle-closing patterns can skip
                // the last chain variable, which would otherwise leave a
                // declared-but-unused var.
                let mut map = std::collections::HashMap::new();
                let mut names: Vec<String> = Vec::new();
                let patterns: Vec<TriplePattern> = patterns
                    .into_iter()
                    .map(|pat| {
                        let mut remap = |n: QNode| match n {
                            QNode::Var(v) => {
                                let next = names.len() as u32;
                                let id = *map.entry(v).or_insert_with(|| {
                                    names.push(format!("v{v}"));
                                    next
                                });
                                QNode::Var(id)
                            }
                            c => c,
                        };
                        let s = remap(pat.s);
                        let o = remap(pat.o);
                        TriplePattern::new(s, pat.p, o)
                    })
                    .collect();
                Query::new(patterns, names)
            })
    }

    fn reference(g: &RdfGraph, q: &Query) -> mpc_sparql::Bindings {
        evaluate(q, &LocalStore::from_graph(g))
    }

    /// Graphs with a real dictionary (IRI-built), so parsed queries
    /// resolve against them.
    fn iri_graph_strategy() -> impl Strategy<Value = RdfGraph> {
        proptest::collection::vec((0u32..8, 0u32..3, 0u32..8), 2..40).prop_map(|edges| {
            let mut b = GraphBuilder::new();
            for (s, p, o) in edges {
                b.add_iris(
                    &format!("urn:v:{s}"),
                    &format!("urn:p:{p}"),
                    &format!("urn:v:{o}"),
                );
            }
            b.build()
        })
    }

    /// SPARQL texts exercising the algebra operators (no LIMIT — slices
    /// of unordered ties are not content-comparable across plans).
    fn algebra_text_strategy() -> impl Strategy<Value = String> {
        let pat = (0u32..4, 0u32..3, 0u32..4)
            .prop_map(|(s, p, o)| format!("?a{s} <urn:p:{p}> ?b{o}"));
        let base = proptest::collection::vec(pat, 1..3).prop_map(|ps| ps.join(" . "));
        let tail = prop_oneof![
            Just(String::new()),
            (0u32..4, 0u32..3, 0u32..4)
                .prop_map(|(s, p, o)| format!(" OPTIONAL {{ ?a{s} <urn:p:{p}> ?c{o} }}")),
            (0u32..3, 0u32..3, 0u32..4).prop_map(|(p, q, o)| format!(
                " {{ ?a0 <urn:p:{p}> ?d{o} }} UNION {{ ?a1 <urn:p:{q}> ?d{o} }}"
            )),
        ];
        let filt = prop_oneof![
            Just(String::new()),
            (0u32..4, 0u32..4).prop_map(|(x, y)| format!(" FILTER(?a{x} != ?a{y})")),
        ];
        let order = prop_oneof![
            Just(String::new()),
            (0u32..4, any::<bool>()).prop_map(|(v, desc)| if desc {
                format!(" ORDER BY DESC(?a{v})")
            } else {
                format!(" ORDER BY ?a{v}")
            }),
        ];
        let distinct = prop_oneof![Just(""), Just("DISTINCT ")];
        (distinct, base, tail, filt, order)
            .prop_map(|(d, b, t, f, o)| format!("SELECT {d}* WHERE {{ {b}{t}{f} }}{o}"))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The paper's headline soundness claim (Theorems 3–5 + Algorithm 2
        /// correctness): distributed execution over ANY vertex-disjoint
        /// partitioning returns exactly the centralized result, whether the
        /// query is an IEQ (independent path) or not (decomposed path) —
        /// under both execution modes.
        #[test]
        fn distributed_equals_centralized(
            g in graph_strategy(),
            query in query_strategy(),
            k in 2usize..4,
        ) {
            let expected = reference(&g, &query);
            let plan = ResolvedPlan::from_bgp(query.clone());
            let parts: Vec<Box<dyn Partitioner>> = vec![
                Box::new(MpcPartitioner::new(MpcConfig::with_k(k))),
                Box::new(SubjectHashPartitioner::new(k)),
                Box::new(MinEdgeCutPartitioner::new(k)),
            ];
            for partitioner in parts {
                let partitioning = partitioner.partition(&g);
                let engine = DistributedEngine::build(&g, &partitioning, NetworkModel::free());
                for mode in [ExecMode::CrossingAware, ExecMode::StarOnly] {
                    let outcome = engine
                        .run_plan(&plan, &ExecRequest::new().mode(mode), g.dictionary())
                        .expect("fault-free execution is total");
                    prop_assert_eq!(
                        outcome.rows(), &expected,
                        "{} mode {:?} class {:?}", partitioner.name(), mode, outcome.stats.class
                    );
                }
            }
            // VP engine too.
            let ep = VerticalPartitioner::new(k).partition(&g);
            let vp = VpEngine::build(&g, &ep, NetworkModel::free());
            let (result, _) = vp.execute(&query);
            prop_assert_eq!(&result, &expected, "VP");
        }

        /// k-hop replication soundness: engines with radius 2 and 3 return
        /// exactly the centralized result (for every query — IEQ or not),
        /// and store at least as many triples as the 1-hop engine.
        #[test]
        fn khop_engines_are_sound(
            g in graph_strategy(),
            query in query_strategy(),
            k in 2usize..4,
        ) {
            let expected = reference(&g, &query);
            let plan = ResolvedPlan::from_bgp(query);
            let partitioning = MpcPartitioner::new(MpcConfig::with_k(k)).partition(&g);
            let one_hop = DistributedEngine::build(&g, &partitioning, NetworkModel::free());
            let mut prev_stored = one_hop.stored_triples();
            for radius in [2usize, 3] {
                let engine = DistributedEngine::build_with_radius(
                    &g, &partitioning, NetworkModel::free(), radius,
                );
                prop_assert!(engine.stored_triples() >= prev_stored);
                prev_stored = engine.stored_triples();
                let outcome = engine
                    .run_plan(&plan, &ExecRequest::new(), g.dictionary())
                    .expect("fault-free execution is total");
                prop_assert_eq!(outcome.rows(), &expected, "radius {}", radius);
            }
        }

        /// The chaos headline invariant: under ANY fault plan, graceful
        /// execution returns either exactly the fault-free reference answer
        /// (`complete == true`) or an explicitly incomplete *sound* subset
        /// with the unreachable fragments named — never silently wrong,
        /// never a panic.
        #[test]
        fn chaos_execution_is_exact_or_explicitly_incomplete(
            g in graph_strategy(),
            query in query_strategy(),
            seed in any::<u64>(),
            rate in 0.0f64..0.18,
            k in 2usize..4,
            replicas in 0usize..3,
        ) {
            let expected = reference(&g, &query);
            let plan = ResolvedPlan::from_bgp(query);
            let partitioning = MpcPartitioner::new(MpcConfig::with_k(k)).partition(&g);
            let engine = DistributedEngine::build(&g, &partitioning, NetworkModel::free());
            let chaos = ExecRequest::new().fault(FaultSpec {
                plan: FaultPlan::uniform(seed, rate),
                policy: RetryPolicy::default(),
                replicas,
                graceful: true,
            });
            for mode in [ExecMode::CrossingAware, ExecMode::StarOnly] {
                let (partial, stats) = engine
                    .run_plan(&plan, &chaos.clone().mode(mode), g.dictionary())
                    .expect("graceful mode never errors")
                    .into_parts();
                if partial.complete {
                    prop_assert_eq!(
                        &partial.rows, &expected,
                        "complete result must be exact (mode {:?})", mode
                    );
                    prop_assert!(partial.failed_sites.is_empty());
                } else {
                    prop_assert!(stats.faults.degraded);
                    prop_assert!(!partial.failed_sites.is_empty());
                    for row in &partial.rows.rows {
                        prop_assert!(
                            expected.rows.contains(row),
                            "degraded result invented row {:?} (mode {:?})", row, mode
                        );
                    }
                }
            }
        }

        /// Theorem 5 as a property: star queries are never NonIeq.
        #[test]
        fn stars_are_always_ieq(
            g in graph_strategy(),
            center_props in proptest::collection::vec(0u32..5, 1..4),
            k in 2usize..4,
        ) {
            let mut patterns = Vec::new();
            for (i, p) in center_props.iter().enumerate() {
                patterns.push(TriplePattern::new(
                    QNode::Var(0),
                    QLabel::Prop(PropertyId(*p)),
                    QNode::Var(i as u32 + 1),
                ));
            }
            let query = Query::new(
                patterns,
                (0..=center_props.len()).map(|i| format!("v{i}")).collect(),
            );
            let partitioning = MpcPartitioner::new(MpcConfig::with_k(k)).partition(&g);
            let engine = DistributedEngine::build(&g, &partitioning, NetworkModel::free());
            prop_assert!(engine.classify(&query).is_ieq());
        }

        /// The mpc-par determinism contract (docs/PARALLELISM.md):
        /// bindings, structural stats, and obs counters are bit-identical
        /// for threads ∈ {1, 2, 8} — only wall-clock timers may differ.
        #[test]
        fn parallel_execution_is_deterministic_across_thread_counts(
            g in graph_strategy(),
            query in query_strategy(),
            k in 2usize..4,
        ) {
            let plan = ResolvedPlan::from_bgp(query);
            let dict = g.dictionary();
            let partitioning = MpcPartitioner::new(MpcConfig::with_k(k)).partition(&g);
            let engine = DistributedEngine::build(&g, &partitioning, NetworkModel::free());
            // Warm the plan cache so every traced run below records the
            // same hit/miss counters.
            engine
                .run_plan(&plan, &ExecRequest::new(), dict)
                .expect("fault-free execution is total");
            let run_at = |threads: usize| {
                let rec = mpc_obs::Recorder::enabled();
                let outcome = engine
                    .run_plan(&plan, &ExecRequest::new().traced(&rec).threads(threads), dict)
                    .expect("fault-free execution is total");
                let mut counters = rec.counters();
                // The pool's own accounting legitimately varies with the
                // thread budget; everything else must not.
                counters.remove("par.threads");
                counters.remove("par.chunks");
                (outcome, counters)
            };
            let (base, base_counters) = run_at(1);
            for threads in [2usize, 8] {
                let (o, counters) = run_at(threads);
                prop_assert_eq!(o.rows(), base.rows(), "threads {}", threads);
                prop_assert_eq!(o.bindings.complete, base.bindings.complete);
                prop_assert_eq!(o.stats.subqueries, base.stats.subqueries);
                prop_assert_eq!(o.stats.independent, base.stats.independent);
                prop_assert_eq!(o.stats.comm_bytes, base.stats.comm_bytes);
                prop_assert_eq!(o.stats.result_rows, base.stats.result_rows);
                prop_assert_eq!(&counters, &base_counters, "threads {}", threads);
            }
        }

        /// The serving-layer headline contract: across a random workload
        /// of repeated, respelled one-leaf plans, a cached [`ServeEngine`]
        /// returns bit-identical bindings to uncached serving, and the
        /// same bag of rows (with the same columns) as `run_plan` — before
        /// AND immediately after an epoch bump (repartition).
        #[test]
        fn serving_is_bit_identical_to_uncached_across_workloads(
            g in graph_strategy(),
            queries in proptest::collection::vec(query_strategy(), 1..5),
            replay in proptest::collection::vec((0usize..5, any::<bool>()), 1..12),
            k in 2usize..4,
        ) {
            let partitioning = MpcPartitioner::new(MpcConfig::with_k(k)).partition(&g);
            let build = || DistributedEngine::build(&g, &partitioning, NetworkModel::free());
            let plans: Vec<ResolvedPlan> =
                queries.into_iter().map(ResolvedPlan::from_bgp).collect();
            let dict = g.dictionary();
            let mut serve = ServeEngine::new(build(), 4);
            let direct_engine = build();
            let replay_once = |serve: &ServeEngine, mode_flip: bool| -> Result<(), TestCaseError> {
                for &(qi, star) in &replay {
                    let plan = &plans[qi % plans.len()];
                    let mode = if star != mode_flip { ExecMode::StarOnly } else { ExecMode::CrossingAware };
                    let req = ExecRequest::new().mode(mode);
                    let served = serve
                        .serve_plan(plan, &req, dict)
                        .expect("fault-free serving is total");
                    let uncached = serve
                        .serve_plan(plan, &req.clone().cached(false), dict)
                        .expect("fault-free serving is total");
                    prop_assert_eq!(served.rows(), uncached.rows(), "query {} mode {:?}", qi, mode);
                    prop_assert!(served.bindings.complete);
                    let direct = direct_engine
                        .run_plan(plan, &req, dict)
                        .expect("fault-free execution is total");
                    prop_assert_eq!(&served.rows().vars, &direct.rows().vars);
                    let (mut a, mut b) = (served.rows().rows.clone(), direct.rows().rows.clone());
                    a.sort_unstable();
                    b.sort_unstable();
                    prop_assert_eq!(a, b, "query {} mode {:?}", qi, mode);
                }
                Ok(())
            };
            replay_once(&serve, false)?;
            // Repartition: every cached entry must become unaddressable,
            // and the replay must still agree answer for answer.
            serve.transition(EpochTransition::Repartition(Box::new(build())));
            replay_once(&serve, true)?;
        }

        /// Serving under chaos: fault-layer requests pass through the
        /// front end uncached, on the original plan, so a ServeEngine and
        /// a bare engine driven by the same interleaved workload stay in
        /// query-sequence lockstep — byte-identical rows under chaos, the
        /// same bag without it, and identical completeness and fault
        /// accounting throughout.
        #[test]
        fn serving_passes_chaos_requests_through_in_lockstep(
            g in graph_strategy(),
            queries in proptest::collection::vec(query_strategy(), 1..4),
            replay in proptest::collection::vec((0usize..4, any::<bool>()), 1..8),
            seed in any::<u64>(),
            rate in 0.0f64..0.18,
            k in 2usize..4,
        ) {
            let partitioning = MpcPartitioner::new(MpcConfig::with_k(k)).partition(&g);
            let build = || DistributedEngine::build(&g, &partitioning, NetworkModel::free());
            let plans: Vec<ResolvedPlan> =
                queries.into_iter().map(ResolvedPlan::from_bgp).collect();
            let dict = g.dictionary();
            let serve = ServeEngine::new(build(), 4);
            let bare = build();
            let chaos = || FaultSpec {
                plan: FaultPlan::uniform(seed, rate),
                policy: RetryPolicy::default(),
                replicas: 1,
                graceful: true,
            };
            for &(qi, with_chaos) in &replay {
                let plan = &plans[qi % plans.len()];
                let req = if with_chaos {
                    ExecRequest::new().fault(chaos())
                } else {
                    ExecRequest::new()
                };
                let served = serve
                    .serve_plan(plan, &req, dict)
                    .expect("graceful mode never errors");
                let direct = bare.run_plan(plan, &req, dict).expect("graceful mode never errors");
                if with_chaos {
                    prop_assert_eq!(served.rows(), direct.rows(), "query {}", qi);
                } else {
                    prop_assert_eq!(&served.rows().vars, &direct.rows().vars);
                    let (mut a, mut b) = (served.rows().rows.clone(), direct.rows().rows.clone());
                    a.sort_unstable();
                    b.sort_unstable();
                    prop_assert_eq!(a, b, "query {}", qi);
                }
                prop_assert_eq!(served.bindings.complete, direct.bindings.complete);
                prop_assert_eq!(served.stats.faults, direct.stats.faults, "lockstep query_seq");
            }
        }

        /// Chaos + parallelism: the PR-3 trichotomy invariant holds on
        /// the pooled fan-out, and the deterministic fault accounting is
        /// identical for every thread count (fresh engine per count —
        /// fault decisions are keyed on the engine's query sequence).
        #[test]
        fn chaos_parallel_execution_is_sound_and_thread_invariant(
            g in graph_strategy(),
            query in query_strategy(),
            seed in any::<u64>(),
            rate in 0.0f64..0.18,
            k in 2usize..4,
        ) {
            let expected = reference(&g, &query);
            let plan = ResolvedPlan::from_bgp(query);
            let partitioning = MpcPartitioner::new(MpcConfig::with_k(k)).partition(&g);
            let run_at = |threads: usize| {
                let engine = DistributedEngine::build(&g, &partitioning, NetworkModel::free());
                let req = ExecRequest::new().threads(threads).fault(FaultSpec {
                    plan: FaultPlan::uniform(seed, rate),
                    policy: RetryPolicy::default(),
                    replicas: 1,
                    graceful: true,
                });
                engine
                    .run_plan(&plan, &req, g.dictionary())
                    .expect("graceful mode never errors")
                    .into_parts()
            };
            let (base, base_stats) = run_at(1);
            for threads in [4usize, 8] {
                let (partial, stats) = run_at(threads);
                // Exact or explicitly incomplete, never silently wrong.
                if partial.complete {
                    prop_assert_eq!(&partial.rows, &expected, "threads {}", threads);
                    prop_assert!(partial.failed_sites.is_empty());
                } else {
                    prop_assert!(stats.faults.degraded);
                    for row in &partial.rows.rows {
                        prop_assert!(
                            expected.rows.contains(row),
                            "degraded result invented row {:?}", row
                        );
                    }
                }
                // Thread-count invariance of everything deterministic
                // (FaultStats is Eq: counters AND simulated penalties).
                prop_assert_eq!(&partial.rows, &base.rows, "threads {}", threads);
                prop_assert_eq!(partial.complete, base.complete);
                prop_assert_eq!(&partial.failed_sites, &base.failed_sites);
                prop_assert_eq!(stats.faults, base_stats.faults);
            }
        }

    }

    proptest! {
        // Few generated texts both resolve and put an id-only FILTER
        // straight on a leaf; this many cases make those meet faults.
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The chaos contract on the plan path, where leaves are pushed
        /// down and seeded under a fault layer too. Graceful `run_plan`
        /// returns the centralized answer as a bag when complete, and
        /// otherwise names the lost fragments and invents nothing: every
        /// row agrees with some reference row on every cell it binds (a
        /// degraded OPTIONAL arm leaves unbound what the full answer
        /// extends), and a plan without OPTIONAL returns a sub-bag. Rows,
        /// completeness, failed sites and fault accounting agree at 1
        /// and 4 threads (fresh engines: fault draws follow the query
        /// sequence).
        #[test]
        fn chaos_plan_execution_is_exact_or_explicitly_incomplete(
            g in iri_graph_strategy(),
            text in algebra_text_strategy(),
            seed in any::<u64>(),
            rate in 0.0f64..0.18,
            k in 2usize..4,
        ) {
            let dict = g.dictionary();
            let Ok(plan) = mpc_sparql::parse(&text).expect("generated text parses").resolve(dict)
            else {
                return Ok(());
            };
            let central = mpc_sparql::eval_plan_local(&plan, &LocalStore::from_graph(&g), dict);
            let mut want = central.rows.clone();
            want.sort_unstable();
            let partitioning = MpcPartitioner::new(MpcConfig::with_k(k)).partition(&g);
            let run_at = |threads: usize| {
                let engine = DistributedEngine::build(&g, &partitioning, NetworkModel::free());
                let req = ExecRequest::new().threads(threads).fault(FaultSpec {
                    plan: FaultPlan::uniform(seed, rate),
                    policy: RetryPolicy::default(),
                    replicas: 1,
                    graceful: true,
                });
                engine
                    .run_plan(&plan, &req, dict)
                    .expect("graceful mode never errors")
                    .into_parts()
            };
            let (base, base_stats) = run_at(1);
            prop_assert_eq!(&base.rows.vars, &central.vars);
            let mut got = base.rows.rows.clone();
            got.sort_unstable();
            if base.complete {
                prop_assert_eq!(&got, &want, "complete result must be exact: {}", text);
                prop_assert!(base.failed_sites.is_empty());
            } else {
                prop_assert!(base_stats.faults.degraded);
                prop_assert!(!base.failed_sites.is_empty());
                for row in &got {
                    prop_assert!(
                        want.iter().any(|full| row
                            .iter()
                            .zip(full)
                            .all(|(&a, &b)| a == mpc_sparql::UNBOUND || a == b)),
                        "degraded result invented row {:?}: {}", row, text
                    );
                }
                let mut optional = false;
                plan.root.for_each(&mut |n| {
                    optional |= matches!(n, mpc_sparql::PlanNode::LeftJoin(..));
                });
                if !optional {
                    // Both sorted: walk `want` once, consuming one copy per row.
                    let mut rest = want.iter();
                    prop_assert!(
                        got.iter().all(|row| rest.any(|full| full == row)),
                        "degraded result is not a sub-bag: {}", text
                    );
                }
            }
            let (four, four_stats) = run_at(4);
            prop_assert_eq!(&four.rows, &base.rows, "threads 1 vs 4: {}", text);
            prop_assert_eq!(four.complete, base.complete);
            prop_assert_eq!(&four.failed_sites, &base.failed_sites);
            prop_assert_eq!(four_stats.faults, base_stats.faults);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The algebra-plan serving contract over OPTIONAL / UNION /
        /// FILTER / ORDER BY / DISTINCT workloads: cached serving is
        /// bit-identical to uncached serving, distributed plan execution
        /// is thread-count invariant, and both agree (as multisets, and
        /// on column numbering) with centralized evaluation.
        #[test]
        fn plan_serving_is_bit_identical_and_thread_invariant(
            g in iri_graph_strategy(),
            texts in proptest::collection::vec(algebra_text_strategy(), 1..4),
            replay in proptest::collection::vec(0usize..4, 1..8),
            k in 2usize..4,
        ) {
            let dict = g.dictionary();
            // Texts whose FILTER/ORDER BY variables don't occur are
            // rejected at resolve; skip those spellings.
            let plans: Vec<_> = texts
                .iter()
                .filter_map(|t| mpc_sparql::parse(t).expect("generated text parses").resolve(dict).ok())
                .collect();
            if plans.is_empty() {
                return Ok(());
            }
            let partitioning = MpcPartitioner::new(MpcConfig::with_k(k)).partition(&g);
            let serve = ServeEngine::new(
                DistributedEngine::build(&g, &partitioning, NetworkModel::free()),
                4,
            );
            let store = LocalStore::from_graph(&g);
            for &ri in &replay {
                let plan = &plans[ri % plans.len()];
                let cached = serve
                    .serve_plan(plan, &ExecRequest::new(), dict)
                    .expect("fault-free serving is total");
                let uncached = serve
                    .serve_plan(plan, &ExecRequest::new().cached(false), dict)
                    .expect("fault-free serving is total");
                prop_assert_eq!(cached.rows(), uncached.rows(), "cached vs uncached");
                prop_assert!(cached.bindings.complete);
                let t1 = serve
                    .engine()
                    .run_plan(plan, &ExecRequest::new().threads(1), dict)
                    .expect("fault-free execution is total");
                let t4 = serve
                    .engine()
                    .run_plan(plan, &ExecRequest::new().threads(4), dict)
                    .expect("fault-free execution is total");
                prop_assert_eq!(t1.rows(), t4.rows(), "threads 1 vs 4");
                let central = mpc_sparql::eval_plan_local(plan, &store, dict);
                prop_assert_eq!(&cached.rows().vars, &central.vars);
                let mut got = cached.rows().rows.clone();
                let mut want = central.rows;
                got.sort_unstable();
                want.sort_unstable();
                prop_assert_eq!(got, want, "distributed vs centralized content");
            }
        }

        /// Live-commit exactness (docs/UPDATES.md): after any stream of
        /// insert/delete batches through [`DistributedEngine::commit`],
        /// the incremental crossing bookkeeping — per-property flags,
        /// |L_cross|, |E^c| — and the vertex placement equal a
        /// from-scratch recount over the live dataset, and the committed
        /// engine answers exactly like an engine rebuilt from scratch.
        #[test]
        fn committed_engine_equals_from_scratch_rebuild(
            g in graph_strategy(),
            ops in proptest::collection::vec((0u32..10, any::<u32>(), 0u32..8, any::<u32>()), 1..25),
            query in query_strategy(),
            k in 2usize..4,
        ) {
            let partitioning = MpcPartitioner::new(MpcConfig::with_k(k)).partition(&g);
            let mut eng = DistributedEngine::build(&g, &partitioning, NetworkModel::free());
            eng.enable_updates(&g, &partitioning, 0.1).expect("radius-1 engine");
            let rec = mpc_obs::Recorder::disabled();
            let mut vc = g.vertex_count() as u32;
            let mut pc = g.property_count() as u32;
            for chunk in ops.chunks(6) {
                let mut batch = UpdateBatch::new();
                for &(kind, s, p, o) in chunk {
                    if kind < 7 {
                        // Insert; ids clamped so fresh vertices appear
                        // densely (at most one new id per op) and at most
                        // one property beyond the tracked space.
                        let (s, o, p) = (s % (vc + 1), o % (vc + 1), p % (pc + 1));
                        if s == vc || o == vc {
                            vc += 1;
                        }
                        if p == pc {
                            pc += 1;
                        }
                        batch.insert(Triple::new(VertexId(s), PropertyId(p), VertexId(o)));
                    } else {
                        // Delete a currently-live triple when one exists
                        // (an arbitrary-id delete is just a no-op).
                        let live = &eng.live.as_ref().unwrap().triples;
                        if !live.is_empty() {
                            batch.delete(live[s as usize % live.len()]);
                        }
                    }
                }
                eng.commit(&batch, &rec).expect("validated batch commits");
            }
            let (lg, lp) = eng.live_dataset().expect("updates enabled");
            let recount = IncrementalPartitioning::from_partitioning(&lg, &lp, 0.1);
            let inc = &eng.live.as_ref().unwrap().inc;
            prop_assert_eq!(inc.crossing_property_count(), recount.crossing_property_count());
            prop_assert_eq!(inc.crossing_edge_count(), recount.crossing_edge_count());
            for p in 0..lg.property_count() {
                let p = PropertyId(p as u32);
                prop_assert_eq!(
                    inc.is_crossing_property(p),
                    recount.is_crossing_property(p),
                    "flag divergence at {}", p
                );
            }
            for v in 0..lg.vertex_count() {
                let v = VertexId(v as u32);
                prop_assert_eq!(inc.part_of(v), recount.part_of(v), "placement {}", v);
            }
            let fresh = DistributedEngine::build(&lg, &lp, NetworkModel::free());
            let plan = ResolvedPlan::from_bgp(query.clone());
            let committed = eng
                .run_plan(&plan, &ExecRequest::new(), lg.dictionary())
                .expect("fault-free");
            let rebuilt = fresh
                .run_plan(&plan, &ExecRequest::new(), lg.dictionary())
                .expect("fault-free");
            prop_assert_eq!(committed.rows(), rebuilt.rows(), "committed vs rebuilt");
            prop_assert_eq!(committed.rows(), &reference(&lg, &query), "vs centralized");
        }

        /// The differential overlay contract: an engine answering from
        /// (base runs + novelty overlay) after a commit is bit-identical
        /// to an engine rebuilt from the merged dataset — across
        /// OPTIONAL / UNION / FILTER / ORDER BY plans and 1-vs-4 worker
        /// threads.
        #[test]
        fn overlay_answers_equal_rebuilt_store_across_algebra_plans(
            g in iri_graph_strategy(),
            extra in proptest::collection::vec((0u32..10, 0u32..4, 0u32..10), 1..12),
            dels in proptest::collection::vec(any::<u32>(), 0..6),
            texts in proptest::collection::vec(algebra_text_strategy(), 1..3),
            k in 2usize..4,
        ) {
            let partitioning = MpcPartitioner::new(MpcConfig::with_k(k)).partition(&g);
            let mut eng = DistributedEngine::build(&g, &partitioning, NetworkModel::free());
            eng.enable_updates(&g, &partitioning, 0.1).expect("radius-1 engine");
            let mut batch = UpdateBatch::new();
            for &i in &dels {
                let base = g.triples();
                batch.delete(base[i as usize % base.len()]);
            }
            for &(s, p, o) in &extra {
                batch.insert_terms(
                    Term::iri(format!("urn:v:{s}")),
                    format!("urn:p:{p}"),
                    Term::iri(format!("urn:v:{o}")),
                );
            }
            eng.commit(&batch, &mpc_obs::Recorder::disabled()).expect("term batch commits");
            let (lg, lp) = eng.live_dataset().expect("updates enabled");
            let dict = lg.dictionary();
            let fresh = DistributedEngine::build(&lg, &lp, NetworkModel::free());
            let store = LocalStore::from_graph(&lg);
            for text in &texts {
                let Ok(plan) = mpc_sparql::parse(text).expect("generated text parses").resolve(dict)
                else {
                    // FILTER/ORDER BY over absent variables, or a
                    // property the dataset never minted.
                    continue;
                };
                for threads in [1usize, 4] {
                    let req = ExecRequest::new().threads(threads);
                    let a = eng.run_plan(&plan, &req, dict).expect("fault-free");
                    let b = fresh.run_plan(&plan, &req, dict).expect("fault-free");
                    prop_assert_eq!(
                        a.rows(), b.rows(),
                        "overlay vs rebuilt, {} threads: {}", threads, text
                    );
                }
                let central = mpc_sparql::eval_plan_local(&plan, &store, dict);
                let one = eng
                    .run_plan(&plan, &ExecRequest::new(), dict)
                    .expect("fault-free");
                let mut got = one.rows().rows.clone();
                let mut want = central.rows;
                got.sort_unstable();
                want.sort_unstable();
                prop_assert_eq!(got, want, "overlay vs centralized: {}", text);
            }
        }
    }
}
