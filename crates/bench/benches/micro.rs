//! Criterion micro-benchmarks for the core building blocks, including the
//! ablations DESIGN.md calls out: forward vs reverse greedy selection,
//! selection with and without oversized-property pruning, and the
//! trial-merge cost oracle vs naive forest cloning.

#![allow(clippy::cast_possible_truncation, clippy::unwrap_used)] // bench code: ids are tiny and panicking on bad setup is fine

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mpc_cluster::{classify, decompose_crossing_aware, partial_evaluate, CrossingSet, Site};
use mpc_core::coarsen::coarsen;
use mpc_core::select::{
    forward_greedy, reverse_greedy, select_internal_properties, SelectConfig, SelectStrategy,
};
use mpc_core::{MpcConfig, MpcPartitioner, Partitioner};
use mpc_datagen::lubm::{self, LubmConfig};
use mpc_datagen::realistic::{generate as gen_real, RealisticConfig};
use mpc_datagen::watdiv::{self, WatdivConfig};
use mpc_datagen::{QuerySampler, Shape};
use mpc_dsu::DisjointSetForest;
use mpc_metis::bisect::bisect;
use mpc_metis::{fm_refine, partition, MetisConfig, WeightedGraph};
use mpc_rdf::{Dictionary, PropertyId, Term, VertexId};
use mpc_sparql::{
    evaluate, evaluate_observed, evaluate_with, static_order, LocalStore, MatchStats, Pattern,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

fn bench_dsu(c: &mut Criterion) {
    let mut group = c.benchmark_group("dsu");
    let n = 100_000usize;
    let mut rng = StdRng::seed_from_u64(1);
    let edges: Vec<(u32, u32)> = (0..n)
        .map(|_| (rng.gen_range(0..n as u32), rng.gen_range(0..n as u32)))
        .collect();
    group.bench_function("union_100k", |b| {
        b.iter(|| {
            let mut d = DisjointSetForest::new(n);
            d.merge_edges(edges.iter().copied());
            black_box(d.max_component_size())
        })
    });
    let base = DisjointSetForest::from_edges(n, edges.iter().take(n / 2).copied());
    let probe: Vec<(u32, u32)> = edges[n / 2..n / 2 + 1000].to_vec();
    group.bench_function("trial_merge_1k", |b| {
        let mut d = base.clone();
        b.iter(|| black_box(d.trial_merge_cost(probe.iter().copied())))
    });
    group.bench_function("clone_and_merge_1k", |b| {
        // The naive alternative the trial merge replaces.
        b.iter(|| {
            let mut d = base.clone();
            d.merge_edges(probe.iter().copied());
            black_box(d.max_component_size())
        })
    });
    group.finish();
}

fn selection_graph() -> mpc_rdf::RdfGraph {
    gen_real(&RealisticConfig {
        name: "bench",
        vertices: 20_000,
        triples: 80_000,
        properties: 400,
        domains: 32,
        zipf: 1.1,
        global_fraction: 0.03,
        type_like: true,
        seed: 5,
    })
}

fn bench_selection(c: &mut Criterion) {
    let mut group = c.benchmark_group("selection");
    let graph = selection_graph();
    let cfg = |strategy, prune| {
        SelectConfig::new()
            .with_k(8)
            .with_epsilon(0.1)
            .with_strategy(strategy)
            .with_prune_oversized(prune)
            .with_reverse_threshold(usize::MAX)
    };
    group.bench_function("forward_greedy", |b| {
        b.iter(|| black_box(forward_greedy(&graph, &cfg(SelectStrategy::ForwardGreedy, true))))
    });
    group.bench_function("forward_greedy_no_prune", |b| {
        b.iter(|| black_box(forward_greedy(&graph, &cfg(SelectStrategy::ForwardGreedy, false))))
    });
    group.bench_function("reverse_greedy", |b| {
        b.iter(|| black_box(reverse_greedy(&graph, &cfg(SelectStrategy::ReverseGreedy, true))))
    });
    group.finish();
}

fn bench_metis(c: &mut Criterion) {
    let mut group = c.benchmark_group("metis");
    for side in [32usize, 64] {
        let idx = |x: usize, y: usize| (y * side + x) as u32;
        let mut edges = Vec::new();
        for y in 0..side {
            for x in 0..side {
                if x + 1 < side {
                    edges.push((idx(x, y), idx(x + 1, y), 1));
                }
                if y + 1 < side {
                    edges.push((idx(x, y), idx(x, y + 1), 1));
                }
            }
        }
        let g = WeightedGraph::from_edge_list(side * side, &edges, vec![1; side * side]);
        group.bench_with_input(BenchmarkId::new("grid_8way", side * side), &g, |b, g| {
            b.iter(|| black_box(partition(g, 8, &MetisConfig::default())))
        });
    }
    group.finish();
}

/// MPC's supervertex graph `G_c` of a WatDiv graph (6,000 users, seed 1:
/// ≈131 k triples, 4,260 supervertices) and a greedy-grown bisection of it,
/// the nearly dense input FM refinement faces inside MPC.
fn watdiv_supervertex_bisection() -> (WeightedGraph, Vec<u8>, [u64; 2]) {
    let g = watdiv::generate(&WatdivConfig {
        scale: 6_000,
        seed: 1,
    })
    .graph;
    let mut selection = select_internal_properties(&g, &SelectConfig::new().with_k(8));
    let gc = coarsen(&g, &mut selection).graph;
    let half = gc.total_weight() / 2;
    let side = bisect(&gc, half, 4, &mut StdRng::seed_from_u64(1));
    let cap = half + half / 10;
    (gc, side, [cap, cap])
}

fn bench_fm_refine(c: &mut Criterion) {
    let mut group = c.benchmark_group("metis/fm_refine");
    let (gc, side, max_side) = watdiv_supervertex_bisection();
    group.bench_with_input(
        BenchmarkId::new("watdiv_supervertex", gc.vertex_count()),
        &gc,
        |b, gc| {
            b.iter(|| {
                let mut s = side.clone();
                black_box(fm_refine(gc, &mut s, max_side, 4))
            })
        },
    );
    group.finish();
}

fn bench_matcher(c: &mut Criterion) {
    let mut group = c.benchmark_group("matcher");
    let d = lubm::generate(&LubmConfig {
        universities: 3,
        ..Default::default()
    });
    let store = LocalStore::from_graph(&d.graph);
    // The same graph with an overlay: one triple in 16 held out of the
    // base and staged as novelty, another one in 16 tombstoned.
    let triples = d.graph.triples();
    let mut dirty = LocalStore::new(
        triples.iter().enumerate().filter(|(i, _)| i % 16 != 0).map(|(_, &t)| t).collect(),
    );
    for (i, &t) in triples.iter().enumerate() {
        match i % 16 {
            0 => dirty.insert(t),
            8 => dirty.delete(t),
            _ => false,
        };
    }
    for nq in d.benchmark_queries() {
        if ["LQ1", "LQ2", "LQ4", "LQ9"].contains(&nq.name.as_str()) {
            group.bench_function(&nq.name, |b| {
                b.iter(|| black_box(evaluate(&nq.query, &store)))
            });
        }
        // The static order the sites run, from each store's statistics.
        if ["LQ2", "LQ9"].contains(&nq.name.as_str()) {
            let q = &nq.query;
            for (label, store) in [("clean", &store), ("dirty", &dirty)] {
                let order = static_order(&q.patterns, q.var_count(), store.stats(), None);
                group.bench_function(format!("{}_static_{label}", nq.name), |b| {
                    b.iter(|| black_box(evaluate_with(q, store, Some(&order), None, &mut ())))
                });
            }
        }
    }
    group.finish();
}

/// A fixed list of bound-(subject, property) probes against one LUBM-32
/// store, the access path the matcher's joins and the commit path's
/// statistics take: half are (s, p) pairs the store holds, half pair a
/// random subject id with a random property (mostly misses).
fn bench_store(c: &mut Criterion) {
    let mut group = c.benchmark_group("store");
    let d = lubm::generate(&LubmConfig {
        universities: 32,
        ..Default::default()
    });
    let store = LocalStore::from_graph(&d.graph);
    let triples = store.triples();
    let max_s = triples.last().map_or(0, |t| t.s.0);
    let max_p = triples.iter().map(|t| t.p.0).max().unwrap_or(0);
    let mut rng = StdRng::seed_from_u64(1);
    let probes: Vec<Pattern> = (0..4096)
        .map(|i| {
            let (s, p) = if i % 2 == 0 {
                let t = triples[rng.gen_range(0..triples.len())];
                (t.s, t.p)
            } else {
                (
                    VertexId(rng.gen_range(0..=max_s)),
                    PropertyId(rng.gen_range(0..=max_p)),
                )
            };
            Pattern {
                s: Some(s),
                p: Some(p),
                o: None,
            }
        })
        .collect();
    group.bench_function("subject_probe", |b| {
        b.iter(|| {
            probes
                .iter()
                .map(|pat| store.count(black_box(pat)))
                .sum::<usize>()
        })
    });
    group.finish();
}

/// The observability acceptance gate: the matcher hot loop with the no-op
/// `()` observer must cost the same as the plain `evaluate` (the observer
/// is monomorphized away), and the counting observer's overhead should
/// stay small. Compare `obs_overhead/{plain,noop_observer}` medians —
/// the target is ≤2% difference.
fn bench_obs_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("obs_overhead");
    let d = lubm::generate(&LubmConfig {
        universities: 3,
        ..Default::default()
    });
    let store = LocalStore::from_graph(&d.graph);
    let queries = d.benchmark_queries();
    let lq2 = &queries.iter().find(|q| q.name == "LQ2").unwrap().query;
    group.bench_function("plain", |b| {
        b.iter(|| black_box(evaluate(lq2, &store)))
    });
    group.bench_function("noop_observer", |b| {
        b.iter(|| black_box(evaluate_observed(lq2, &store, &mut ())))
    });
    group.bench_function("counting_observer", |b| {
        b.iter(|| {
            let mut stats = MatchStats::default();
            let out = evaluate_observed(lq2, &store, &mut stats);
            black_box((out, stats))
        })
    });
    group.finish();
}

fn bench_planning(c: &mut Criterion) {
    let mut group = c.benchmark_group("planning");
    let graph = gen_real(&RealisticConfig {
        name: "bench",
        vertices: 5_000,
        triples: 20_000,
        properties: 128,
        domains: 16,
        zipf: 1.1,
        global_fraction: 0.05,
        type_like: true,
        seed: 6,
    });
    let crossing = CrossingSet((0..128).map(|p| p % 7 == 0).collect());
    let mut sampler = QuerySampler::new(&graph, 17);
    let queries: Vec<_> = (0..64).map(|_| sampler.sample(Shape::Snowflake)).collect();
    group.bench_function("classify_64", |b| {
        b.iter(|| {
            for q in &queries {
                black_box(classify(q, &crossing));
            }
        })
    });
    group.bench_function("decompose_64", |b| {
        b.iter(|| {
            for q in &queries {
                black_box(decompose_crossing_aware(q, &crossing));
            }
        })
    });
    group.finish();
}

fn bench_distributed(c: &mut Criterion) {
    let mut group = c.benchmark_group("distributed");
    let d = lubm::generate(&LubmConfig {
        universities: 3,
        ..Default::default()
    });
    let part = MpcPartitioner::new(MpcConfig::with_k(4)).partition(&d.graph);
    let sites: Vec<Site> = part
        .fragments(&d.graph)
        .into_iter()
        .map(|f| Site::load(f).0)
        .collect();
    let queries = d.benchmark_queries();
    let lq9 = &queries.iter().find(|q| q.name == "LQ9").unwrap().query;
    group.bench_function("partial_evaluate_lq9", |b| {
        b.iter(|| black_box(partial_evaluate(&sites, lq9)))
    });
    group.finish();
}

fn bench_end_to_end_partition(c: &mut Criterion) {
    let mut group = c.benchmark_group("partition");
    let d = lubm::generate(&LubmConfig {
        universities: 4,
        ..Default::default()
    });
    group.bench_function("mpc_lubm4_k8", |b| {
        let p = MpcPartitioner::new(MpcConfig::with_k(8));
        b.iter(|| black_box(p.partition(&d.graph)))
    });
    group.finish();
}

/// The term dictionary at `lubm_cold`'s size: 124,309 `urn:v:N` IRIs,
/// the names the benchmark's graphs give their vertices. Lookups run in
/// batches of 1,000 (hits at a stride across the id space, misses on
/// absent IRIs of the same shape).
fn bench_dictionary(c: &mut Criterion) {
    let mut group = c.benchmark_group("rdf/dictionary");
    let n = 124_309usize;
    let terms: Vec<Term> = (0..n).map(|i| Term::iri(format!("urn:v:{i}"))).collect();
    let intern_all = || {
        let mut d = Dictionary::new();
        for t in &terms {
            d.intern_vertex(t);
        }
        d
    };
    group.bench_function("intern_124k", |b| {
        b.iter(|| black_box(intern_all().vertex_count()))
    });
    let dict = intern_all();
    let ids: Vec<usize> = (0..1000).map(|i| (i * 7919) % n).collect();
    let misses: Vec<Term> = (0..1000).map(|i| Term::iri(format!("urn:w:{i}"))).collect();
    group.bench_function("vertex_id_hit_x1000", |b| {
        b.iter(|| {
            ids.iter()
                .filter(|&&i| dict.vertex_id(&terms[i]).is_some())
                .count()
        })
    });
    group.bench_function("vertex_id_miss_x1000", |b| {
        b.iter(|| {
            misses
                .iter()
                .filter(|t| dict.vertex_id(t).is_some())
                .count()
        })
    });
    group.bench_function("vertex_term_x1000", |b| {
        b.iter(|| {
            for &i in &ids {
                black_box(dict.vertex_term(VertexId(i as u32)));
            }
        })
    });
    group.finish();
}

/// Short measurement windows keep the full suite to a few minutes on a
/// single-core machine while still giving stable medians.
fn configured() -> Criterion {
    Criterion::default()
        .measurement_time(std::time::Duration::from_secs(2))
        .warm_up_time(std::time::Duration::from_millis(500))
        .sample_size(10)
}

criterion_group! {
    name = benches;
    config = configured();
    targets = bench_dsu,
        bench_selection,
        bench_metis,
        bench_fm_refine,
        bench_matcher,
        bench_store,
        bench_obs_overhead,
        bench_planning,
        bench_distributed,
        bench_end_to_end_partition,
        bench_dictionary
}
criterion_main!(benches);
