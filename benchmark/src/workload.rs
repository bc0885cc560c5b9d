//! The four workloads as data: which graph, which query texts, which
//! request stream a seed picks, and the fixed commit batches.
//!
//! What `--seed` controls is the *draw order* of requests. The graphs,
//! the query pools, the popularity ranking and the commit contents come
//! from constants, so that the quality gauges (`crossing_properties`,
//! `independent_share`) and the mix of cheap and expensive queries are
//! the same for every seed and only sampling noise separates two runs.

use crate::rng::{zipf_deck, Rng};
use mpc_datagen::lubm::{self, LubmConfig};
use mpc_datagen::watdiv::{self, WatdivConfig};
use mpc_datagen::{QuerySampler, ShapeMix};
use mpc_rdf::{Dictionary, RdfGraph, Term, Triple};
use mpc_sparql::{QLabel, QNode, Query};
use std::fmt::Write as _;

/// LUBM universities (≈ 2,040 triples each) of the two read-only LUBM
/// workloads. Sized by `lubm_cold`, their slower stream, which must
/// complete 2,000 reads in the window for `latency_p99_ms` to be
/// reported at all. Measured on the reference host, 10 s window: 64
/// universities complete 6,830 reads, 96: 4,667, 128: 3,272, 160: 2,533
/// (a request's cost grows faster than the graph). 128 is the largest of
/// these that keeps half as many reads again in hand for a slow episode
/// of the host; set-up (0.6 s) is far below its 6 s limit.
pub const LUBM_UNIVERSITIES: usize = 128;

/// LUBM universities of `lubm_update`. Its one reader re-evaluates every
/// distinct query after each of the 48 epoch flips, and only the time
/// left over until the next flip goes to cache hits, so its read rate
/// falls much faster than the graph grows and amplifies any change in
/// the host's speed. `qps` / `latency_p50_ms` over four seeds each on the
/// reference host: 32 universities 2,706–2,878 / 0.111–0.114 ms; 48:
/// 1,006–1,283 / 0.127–0.154; 64: 584–686 / 0.19–0.22; 96: 287–455 /
/// 0.21–0.44 (there half the reads are misses and the median falls in
/// the gap between hits and misses). 32 is the largest of these at which
/// four seeds agree within a tenth.
pub const LUBM_UPDATE_UNIVERSITIES: usize = 32;

/// WatDiv scale factor (≈ 22 triples per unit). MPC's coarse-graph stage
/// is superlinear on WatDiv (0.47 s here, 8.5 s at four times the
/// scale), so this is what bounds set-up, not the request stream.
pub const WATDIV_SCALE: usize = 6_000;

/// Queries in the WatDiv log — about 8× the result cache.
pub const WATDIV_LOG: usize = 2_000;

/// Result-cache entries; every LUBM form fits, the WatDiv log does not.
pub const CACHE_ENTRIES: usize = 256;

/// Partitions (sites), the paper's cluster size.
pub const K: usize = 8;

/// Commits per run. The `lubm_update` writer paces them evenly over the
/// window; the read-only workloads send the same number to a quiet
/// server after it, so that `commit_p50_ms` exists for every workload.
pub const COMMITS: usize = 48;

/// Inserted and deleted triples per commit.
pub const INSERTS_PER_COMMIT: usize = 400;
pub const DELETES_PER_COMMIT: usize = 100;

/// Zipf exponent of the LUBM streams.
pub const ZIPF_S: f64 = 1.0;

/// Seed of everything that is part of the data rather than the traffic:
/// the WatDiv log, the popularity ranking and the commit contents.
const DATA_SEED: u64 = 0x4d50_435f_6461_7461;

/// The workloads, in the order `BENCHMARK.json` lists them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    LubmHot,
    LubmCold,
    WatdivJoin,
    LubmUpdate,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::LubmHot,
        Workload::LubmCold,
        Workload::WatdivJoin,
        Workload::LubmUpdate,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::LubmHot => "lubm_hot",
            Workload::LubmCold => "lubm_cold",
            Workload::WatdivJoin => "watdiv_join",
            Workload::LubmUpdate => "lubm_update",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The one request knob that varies between workloads.
    pub fn cached(self) -> bool {
        self != Workload::LubmCold
    }

    /// True for the workload whose second connection is the paced writer.
    pub fn has_writer(self) -> bool {
        self == Workload::LubmUpdate
    }

    fn is_lubm(self) -> bool {
        self != Workload::WatdivJoin
    }
}

/// A generated graph (with the synthetic `<urn:v:N>` / `<urn:p:N>`
/// dictionary the server resolves query text against) and the distinct
/// query texts requests are drawn from.
pub struct Dataset {
    pub graph: RdfGraph,
    /// Distinct SPARQL texts; a request is an index into this.
    pub pool: Vec<String>,
}

/// Generates the workload's graph and query pool.
pub fn dataset(w: Workload) -> Dataset {
    if w.is_lubm() {
        let d = lubm::generate(&LubmConfig {
            universities: if w.has_writer() {
                LUBM_UPDATE_UNIVERSITIES
            } else {
                LUBM_UNIVERSITIES
            },
            ..Default::default()
        });
        let base: Vec<Query> = d.benchmark_queries().into_iter().map(|q| q.query).collect();
        Dataset {
            pool: lubm_pool(&base, &d.graph),
            graph: with_dictionary(&d.graph),
        }
    } else {
        let d = watdiv::generate(&WatdivConfig {
            scale: WATDIV_SCALE,
            ..Default::default()
        });
        Dataset {
            pool: watdiv_pool(&d.graph),
            graph: with_dictionary(&d.graph),
        }
    }
}

/// [`WATDIV_LOG`] distinct queries sampled with the WatDiv shape mix.
///
/// Kept are the *anchored* queries: those naming at least one constant
/// vertex, like every WatDiv template does. An unanchored sample (a
/// 2-path over a popular property with every end a variable) returns
/// 10^5–10^6 rows — more than a frame may carry — and a handful of them
/// would own the whole window. Property variables are off for the same
/// reason.
fn watdiv_pool(graph: &RdfGraph) -> Vec<String> {
    let mut sampler = QuerySampler::new(graph, DATA_SEED);
    sampler.var_property_prob = 0.0;
    sampler.const_leaf_prob = 0.5;
    let mix = ShapeMix::watdiv_like();
    let anchored = |q: &Query| {
        q.patterns
            .iter()
            .any(|p| matches!(p.s, QNode::Const(_)) || matches!(p.o, QNode::Const(_)))
    };
    let mut pool = Vec::with_capacity(WATDIV_LOG);
    let mut seen = std::collections::BTreeSet::new();
    // Sampling is rejection-based; the round cap only guards against a
    // graph on which too few distinct anchored queries exist.
    for _ in 0..32 {
        for q in sampler.sample_log(WATDIV_LOG, &mix) {
            if pool.len() < WATDIV_LOG && anchored(&q) {
                let text = render(&q, Form::Bgp, 0, None);
                if seen.insert(text.clone()) {
                    pool.push(text);
                }
            }
        }
        if pool.len() == WATDIV_LOG {
            break;
        }
    }
    pool
}

/// The generators emit raw id graphs; the server needs terms to resolve
/// query text. Interning `urn:v:N` in id order keeps every id where the
/// generator put it, so the generator's query constants stay valid —
/// the same terms a serialize → parse round trip would produce, without
/// paying for one.
fn with_dictionary(raw: &RdfGraph) -> RdfGraph {
    let mut dict = Dictionary::new();
    for v in 0..raw.vertex_count() {
        dict.intern_vertex(&Term::iri(format!("urn:v:{v}")));
    }
    for p in 0..raw.property_count() {
        dict.intern_property(&format!("urn:p:{p}"));
    }
    RdfGraph::from_dictionary(dict, raw.triples().to_vec())
}

/// The operator forms `mpc_datagen::operator_plans` derives from a base
/// BGP, as SPARQL text (the wire carries text, not plans).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Form {
    Bgp,
    /// `base OPTIONAL { ?s <p> ?opt }`, see [`optional_arm`].
    Optional,
    /// `{ base } UNION { base, patterns reversed }`.
    Union,
    /// `base ORDER BY DESC(?v0) LIMIT 10`.
    OrderBy,
}

/// Every LUBM base query in every applicable form, each in three
/// spellings (original; variables renamed; renamed and patterns
/// reversed), then put in a fixed shuffled order — the popularity
/// ranking the Zipf stream draws from.
///
/// The single-pattern scans (LQ6, LQ14: up to 170k rows) are replayed
/// as plain BGPs only — they are the large-reply requests. Sorting or
/// left-joining that many rows takes ~100 ms uncached and would make
/// `lubm_cold` a benchmark of two queries.
fn lubm_pool(base: &[Query], graph: &RdfGraph) -> Vec<String> {
    let mut pool = Vec::new();
    for q in base {
        let arm = optional_arm(q, graph);
        for form in [Form::Bgp, Form::Optional, Form::Union, Form::OrderBy] {
            if form != Form::Bgp && q.patterns.len() < 2 {
                continue;
            }
            if form == Form::Optional && arm.is_none() {
                continue;
            }
            for spelling in 0..3 {
                pool.push(render(q, form, spelling, arm));
            }
        }
    }
    Rng::new(DATA_SEED).shuffle(&mut pool);
    pool
}

/// The `(subject variable, property)` the OPTIONAL arm re-probes: of the
/// patterns with a variable subject and a fixed property, the one whose
/// property is rarest in the graph. (`operator_plans` takes the first
/// such pattern; on LUBM that is usually `rdf:type`, whose arm scans a
/// quarter of the graph and would turn every uncached OPTIONAL into a
/// 60 ms request that says nothing about the layers under test.)
fn optional_arm(q: &Query, graph: &RdfGraph) -> Option<(u32, u32)> {
    q.patterns
        .iter()
        .filter_map(|p| match (p.s, p.p) {
            (QNode::Var(s), QLabel::Prop(p)) => Some((graph.property_frequency(p), s, p.0)),
            _ => None,
        })
        .min()
        .map(|(_, s, p)| (s, p))
}

/// Renders `q` in `form`; `spelling` 0 keeps the generator's variable
/// names and pattern order, 1 renames the variables, 2 renames them and
/// reverses the pattern order. All three share one canonical cache key.
fn render(q: &Query, form: Form, spelling: u32, arm: Option<(u32, u32)>) -> String {
    let var = |v: u32| match spelling {
        0 => format!("?{}", q.var_names[v as usize]),
        1 => format!("?x{v}"),
        _ => format!("?r{}", q.var_names.len() as u32 - v),
    };
    let node = |n: QNode| match n {
        QNode::Var(v) => var(v),
        QNode::Const(id) => format!("<urn:v:{}>", id.0),
    };
    let patterns = |reversed: bool| {
        let mut parts: Vec<String> = q
            .patterns
            .iter()
            .map(|p| {
                let label = match p.p {
                    QLabel::Var(v) => var(v),
                    QLabel::Prop(id) => format!("<urn:p:{}>", id.0),
                };
                format!("{} {} {}", node(p.s), label, node(p.o))
            })
            .collect();
        if reversed {
            parts.reverse();
        }
        parts.join(" . ")
    };
    let reversed = spelling == 2;
    let body = patterns(reversed);
    match form {
        Form::Bgp => format!("SELECT * WHERE {{ {body} }}"),
        Form::Optional => {
            let (s, p) = arm.expect("the pool only asks for OPTIONAL where an arm exists");
            format!(
                "SELECT * WHERE {{ {body} OPTIONAL {{ {} <urn:p:{p}> ?opt }} }}",
                var(s)
            )
        }
        Form::Union => format!(
            "SELECT * WHERE {{ {{ {body} }} UNION {{ {} }} }}",
            patterns(!reversed)
        ),
        Form::OrderBy => format!(
            "SELECT * WHERE {{ {body} }} ORDER BY DESC({}) LIMIT 10",
            var(0)
        ),
    }
}

/// Cards in a LUBM stream's deck (see [`zipf_deck`]).
const DECK_SIZE: usize = 1_000;

/// One client's endless request stream: indices into the pool, dealt
/// from a deck that is reshuffled every time it runs out. The LUBM deck
/// holds each text in proportion to its Zipf weight over the pool's
/// fixed ranking; the WatDiv deck holds every query of the log once.
pub struct Stream {
    rng: Rng,
    deck: Vec<u32>,
    dealt: usize,
}

impl Stream {
    /// The stream `seed` picks for connection `client` of workload `w`.
    pub fn new(w: Workload, pool_len: usize, seed: u64, client: usize) -> Stream {
        let deck = if w.is_lubm() {
            zipf_deck(pool_len, ZIPF_S, DECK_SIZE)
        } else {
            (0..u32::try_from(pool_len).expect("small pool")).collect()
        };
        // `dealt` at the end makes the first `next` shuffle.
        Stream {
            rng: Rng::lane(seed, client as u64),
            dealt: deck.len(),
            deck,
        }
    }
}

impl Iterator for Stream {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        if self.dealt == self.deck.len() {
            self.rng.shuffle(&mut self.deck);
            self.dealt = 0;
        }
        self.dealt += 1;
        Some(self.deck[self.dealt - 1] as usize)
    }
}

/// A vertex named in a commit: one the graph already has, or the n-th
/// vertex the commits introduce.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum VRef {
    Old(u32),
    New(u32),
}

impl VRef {
    /// The term the update text names the vertex by.
    pub fn term(self) -> Term {
        match self {
            VRef::Old(v) => Term::iri(format!("urn:v:{v}")),
            VRef::New(n) => Term::iri(format!("urn:n:{n}")),
        }
    }
}

/// One commit: ground triples to delete (applied first) and to insert.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Batch {
    pub deletes: Vec<(VRef, u32, VRef)>,
    pub inserts: Vec<(VRef, u32, VRef)>,
}

impl Batch {
    /// The UPDATE frame's text.
    pub fn text(&self) -> String {
        let mut out = String::with_capacity(48 * (self.inserts.len() + self.deletes.len()));
        for (keyword, triples) in [("DELETE", &self.deletes), ("INSERT", &self.inserts)] {
            let _ = write!(out, "{keyword} DATA {{");
            for (s, p, o) in triples {
                let _ = write!(out, " {} <urn:p:{p}> {} .", s.term(), o.term());
            }
            out.push_str(" } ");
        }
        out
    }

    pub fn len(&self) -> usize {
        self.deletes.len() + self.inserts.len()
    }
}

/// The first `count` commit batches over `graph`. Content is a constant
/// of the dataset (not of `--seed`), so the graph after the last commit
/// — and every gauge read from it — repeats exactly.
///
/// Nine inserts in ten are *local*: `(s, p, o')` where `(s, p, o)` and
/// `(s', p, o')` are triples of the same property a few positions apart
/// in generation order, which is how both generators express "same
/// department" / "same retailer". The tenth hangs a new vertex off an
/// existing object. Deletes name existing base triples. Only existing
/// properties are used.
pub fn batches(graph: &RdfGraph, count: usize) -> Vec<Batch> {
    let mut rng = Rng::new(DATA_SEED ^ 0x7570_6474);
    let mut fresh = 0u32;
    let triples = graph.triples();
    let pick = |rng: &mut Rng| -> Triple { triples[rng.below(triples.len())] };
    (0..count)
        .map(|_| {
            let deletes = (0..DELETES_PER_COMMIT)
                .map(|_| {
                    let t = pick(&mut rng);
                    (VRef::Old(t.s.0), t.p.0, VRef::Old(t.o.0))
                })
                .collect();
            let inserts = (0..INSERTS_PER_COMMIT)
                .map(|i| {
                    let t = pick(&mut rng);
                    if i % 10 == 9 {
                        fresh += 1;
                        (VRef::New(fresh - 1), t.p.0, VRef::Old(t.o.0))
                    } else {
                        let same = graph.property_triple_indices(t.p);
                        let at = rng.below(same.len());
                        let near = (at + 1 + rng.below(4)).min(same.len() - 1);
                        let (a, b) = (graph.triple(same[at]), graph.triple(same[near]));
                        (VRef::Old(a.s.0), t.p.0, VRef::Old(b.o.0))
                    }
                })
                .collect();
            Batch { deletes, inserts }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpc_rdf::{PropertyId, VertexId};
    use mpc_sparql::{parse, parse_update, TriplePattern};

    fn tiny_graph() -> RdfGraph {
        let triples = (0..200u32)
            .map(|i| {
                Triple::new(
                    VertexId(i % 50),
                    PropertyId(i % 3),
                    VertexId((i * 7 + 1) % 50),
                )
            })
            .collect();
        with_dictionary(&RdfGraph::from_raw(50, 3, triples))
    }

    fn sample_query() -> Query {
        Query::new(
            vec![
                TriplePattern::new(
                    QNode::Var(0),
                    QLabel::Prop(PropertyId(1)),
                    QNode::Const(VertexId(4)),
                ),
                TriplePattern::new(QNode::Var(0), QLabel::Prop(PropertyId(2)), QNode::Var(1)),
            ],
            vec!["v0".into(), "v1".into()],
        )
    }

    #[test]
    fn same_seed_gives_the_same_request_stream_and_another_seed_does_not() {
        for w in Workload::ALL {
            let take = |seed, client| {
                Stream::new(w, 165, seed, client)
                    .take(10_000)
                    .collect::<Vec<_>>()
            };
            assert_eq!(take(1, 0), take(1, 0), "{}", w.name());
            assert_ne!(take(1, 0), take(2, 0), "{}", w.name());
            assert_ne!(take(1, 0), take(1, 1), "{}", w.name());
            assert!(take(3, 0).iter().all(|&i| i < 165));
            // Whatever the seed, a whole number of decks holds the same mix.
            let deck = Stream::new(w, 165, 0, 0).deck.len();
            let (mut a, mut b) = (take(1, 0), take(2, 0));
            a.truncate(10_000 / deck * deck);
            b.truncate(10_000 / deck * deck);
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "{}", w.name());
        }
    }

    #[test]
    fn commit_batches_repeat_byte_for_byte_and_parse() {
        let g = tiny_graph();
        let a: Vec<String> = batches(&g, 3).iter().map(Batch::text).collect();
        let b: Vec<String> = batches(&g, 3).iter().map(Batch::text).collect();
        assert_eq!(a, b);
        assert_ne!(a[0], a[1]);
        // A longer series starts with the shorter one.
        assert_eq!(batches(&g, 5)[..3], batches(&g, 3)[..]);
        let parsed = parse_update(&a[0]).unwrap();
        assert_eq!(parsed.inserts.len(), INSERTS_PER_COMMIT);
        assert_eq!(parsed.deletes.len(), DELETES_PER_COMMIT);
        let fresh = parsed
            .inserts
            .iter()
            .filter(|(s, _, _)| s.to_string().contains("urn:n:"))
            .count();
        assert_eq!(fresh, INSERTS_PER_COMMIT / 10);
    }

    #[test]
    fn every_form_and_spelling_parses_and_spellings_differ() {
        let q = sample_query();
        let dict_graph = tiny_graph();
        for form in [Form::Bgp, Form::Optional, Form::Union, Form::OrderBy] {
            let texts: Vec<String> = (0..3)
                .map(|s| render(&q, form, s, optional_arm(&q, &dict_graph)))
                .collect();
            assert!(texts[0] != texts[1] && texts[1] != texts[2], "{form:?}");
            for t in &texts {
                parse(t)
                    .and_then(|a| a.resolve(dict_graph.dictionary()))
                    .unwrap_or_else(|e| panic!("{form:?}: {t}: {e}"));
            }
        }
        let pool = lubm_pool(&[q.clone(), q], &dict_graph);
        assert_eq!(pool.len(), 2 * 4 * 3);
        assert_eq!(
            pool,
            lubm_pool(&[sample_query(), sample_query()], &dict_graph)
        );
    }

    #[test]
    fn dictionary_keeps_generator_ids() {
        let g = tiny_graph();
        let d = g.dictionary();
        assert_eq!(d.vertex_id(&Term::iri("urn:v:17")), Some(VertexId(17)));
        assert_eq!(d.property_id("urn:p:2"), Some(PropertyId(2)));
        assert_eq!(g.triple_count(), 200);
    }
}
