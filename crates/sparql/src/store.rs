//! An indexed triple store — the per-site "centralized RDF engine".
//!
//! Each partition site holds one [`LocalStore`] over its fragment. Three
//! materialized sorted runs of the triples themselves (SPO, POS, OSP)
//! answer every triple-pattern access path by a contiguous slice, the
//! standard layout of centralized RDF engines (RDF-3X, gStore's VS-tree
//! plays the same role). A bound subject finds its slice of the base SPO
//! run through a subject rank directory in a few reads, the way gStore
//! reaches a vertex's edges directly; every other prefix is narrowed by
//! binary search.

use mpc_rdf::{FxHashMap, PropertyId, RdfGraph, Triple, VertexId};
use mpc_rdf::narrow;

/// Cardinalities of one predicate: the planner's selectivity statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PropertyCard {
    /// Triples carrying this property.
    pub triples: u64,
    /// Distinct subjects among them.
    pub distinct_subjects: u64,
    /// Distinct objects among them.
    pub distinct_objects: u64,
}

/// Per-property cardinality statistics, computed once at store build time
/// (the sorted POS permutation makes every figure a linear scan).
///
/// [`StoreStats::merge`] aggregates per-site statistics into a
/// cluster-wide estimate: triple counts add exactly (sites hold disjoint
/// fragments), while distinct counts add to an *upper bound* (a vertex
/// replicated as an extended-fragment boundary can be counted twice).
/// The static planner only compares estimates, so bounds suffice.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Total (distinct) triples in the store.
    pub triples: u64,
    /// Per-property cardinalities, keyed by raw property id.
    pub properties: FxHashMap<u32, PropertyCard>,
}

impl StoreStats {
    /// The cardinalities of one property; zeroes if the property is absent.
    pub fn card(&self, p: PropertyId) -> PropertyCard {
        self.properties.get(&p.0).copied().unwrap_or_default()
    }

    /// Folds another site's statistics into this aggregate.
    pub fn merge(&mut self, other: &StoreStats) {
        self.triples = self.triples.saturating_add(other.triples);
        for (p, card) in &other.properties {
            let slot = self.properties.entry(*p).or_default();
            slot.triples = slot.triples.saturating_add(card.triples);
            slot.distinct_subjects = slot.distinct_subjects.saturating_add(card.distinct_subjects);
            slot.distinct_objects = slot.distinct_objects.saturating_add(card.distinct_objects);
        }
    }

    /// Computes statistics from a deduplicated triple list sorted by
    /// (s, p, o) and the same list sorted by (p, o, s) (distinct objects
    /// fall out of the (p, o, s) run; distinct subjects need one extra
    /// (p, s) sort).
    fn compute(triples: &[Triple], pos: &[Triple]) -> StoreStats {
        let mut properties: FxHashMap<u32, PropertyCard> = FxHashMap::default();
        let mut prev: Option<(PropertyId, VertexId)> = None;
        for t in pos {
            let slot = properties.entry(t.p.0).or_default();
            slot.triples += 1;
            if prev != Some((t.p, t.o)) {
                slot.distinct_objects += 1;
            }
            prev = Some((t.p, t.o));
        }
        let mut ps: Vec<(PropertyId, VertexId)> =
            triples.iter().map(|t| (t.p, t.s)).collect();
        ps.sort_unstable();
        ps.dedup();
        for (p, _) in ps {
            if let Some(slot) = properties.get_mut(&p.0) {
                slot.distinct_subjects += 1;
            }
        }
        StoreStats {
            triples: triples.len() as u64,
            properties,
        }
    }
}

/// One triple set materialized as three sorted runs, so that every
/// triple-pattern access path is a contiguous slice of one of them.
/// The base of a [`LocalStore`] and the novelty of its overlay are both
/// kept this way.
#[derive(Clone, Debug, Default)]
struct Runs {
    /// The triples sorted by (s, p, o), duplicate-free.
    spo: Vec<Triple>,
    /// The same triples sorted by (p, o, s).
    pos: Vec<Triple>,
    /// The same triples sorted by (o, s, p).
    osp: Vec<Triple>,
    /// Where each subject's slice of `spo` starts. Only the base has one
    /// (built by [`LocalStore::from_runs`]); the novelty, which `insert`
    /// and `remove` mutate, finds subjects by binary search.
    subjects: Option<SubjectIndex>,
}

/// A rank directory over the subjects of a strictly (s, p, o)-sorted run:
/// one presence bit per subject id, grouped in 64-id words that each carry
/// the number of present subjects below them, and the run offset of each
/// present subject in rank order. A subject's slice is then a bit test, a
/// popcount and two reads of `starts`, with no search.
///
/// Costs 16 bytes per 64 ids up to the largest subject plus 4 bytes per
/// distinct subject; [`SubjectIndex::build`] declines when the words alone
/// would outnumber the triples (ids sparser than one word per triple).
#[derive(Clone, Debug, PartialEq, Eq)]
struct SubjectIndex {
    /// Per 64 subject ids from 0: the presence bitmap and the number of
    /// present subjects in all earlier words.
    words: Vec<RankWord>,
    /// The first run offset of each present subject, by rank, plus the
    /// run length as a sentinel.
    starts: Vec<u32>,
}

#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct RankWord {
    bits: u64,
    before: u32,
}

impl SubjectIndex {
    /// The directory of `spo`, or `None` when it would outgrow the run
    /// (an empty run, or more 64-id words than triples) or its offsets
    /// would not fit in `u32`.
    fn build(spo: &[Triple]) -> Option<SubjectIndex> {
        let last = spo.last()?.s.0 as usize;
        let n_words = last / 64 + 1;
        let sentinel = u32::try_from(spo.len()).ok()?;
        if n_words > spo.len() {
            return None;
        }
        let mut words = vec![RankWord::default(); n_words];
        let mut starts = Vec::new();
        let mut prev = None;
        for (at, t) in spo.iter().enumerate() {
            if prev != Some(t.s) {
                prev = Some(t.s);
                let s = t.s.0 as usize;
                words[s / 64].bits |= 1u64 << (s % 64);
                starts.push(narrow::u32_from(at));
            }
        }
        starts.push(sentinel);
        starts.shrink_to_fit();
        let mut before = 0u32;
        for w in &mut words {
            w.before = before;
            before += w.bits.count_ones();
        }
        Some(SubjectIndex { words, starts })
    }

    /// The slice of `spo` (the run this directory was built over) whose
    /// triples have subject `s`; empty if there are none.
    #[inline]
    fn slice<'a>(&self, spo: &'a [Triple], s: VertexId) -> &'a [Triple] {
        let s = s.0 as usize;
        let Some(w) = self.words.get(s / 64) else {
            return &[];
        };
        let bit = 1u64 << (s % 64);
        if w.bits & bit == 0 {
            return &[];
        }
        let rank = w.before as usize + (w.bits & (bit - 1)).count_ones() as usize;
        &spo[self.starts[rank] as usize..self.starts[rank + 1] as usize]
    }

    fn heap_bytes(&self) -> usize {
        self.words.capacity() * std::mem::size_of::<RankWord>()
            + self.starts.capacity() * std::mem::size_of::<u32>()
    }
}

fn pos_key(t: &Triple) -> (PropertyId, VertexId, VertexId) {
    (t.p, t.o, t.s)
}

fn osp_key(t: &Triple) -> (VertexId, VertexId, PropertyId) {
    (t.o, t.s, t.p)
}

impl Runs {
    /// Materializes the other two orders of a strictly (s, p, o)-sorted
    /// run.
    fn from_spo(spo: Vec<Triple>) -> Runs {
        let mut pos = spo.clone();
        pos.sort_unstable_by_key(pos_key);
        let mut osp = spo.clone();
        osp.sort_unstable_by_key(osp_key);
        Runs {
            spo,
            pos,
            osp,
            subjects: None,
        }
    }

    /// The triples with subject `s`: through the directory if there is
    /// one, else by binary search of the whole SPO run.
    #[inline]
    fn subject(&self, s: VertexId) -> &[Triple] {
        match &self.subjects {
            Some(dir) => dir.slice(&self.spo, s),
            None => range_of(&self.spo, |t| t.s.cmp(&s)),
        }
    }

    /// True if the run holds `t`.
    fn contains(&self, t: &Triple) -> bool {
        self.subject(t.s).binary_search(t).is_ok()
    }

    /// The triples matching a pattern: the run whose sort order has the
    /// bound positions as a prefix, narrowed by binary search (a bound
    /// subject first takes its own slice of SPO). Every access path is
    /// fully covered, so no residual filtering is needed.
    fn select(&self, pat: &Pattern) -> &[Triple] {
        match (pat.s, pat.p, pat.o) {
            (None, None, None) => &self.spo,
            // Prefixes of SPO.
            (Some(s), None, None) => self.subject(s),
            (Some(s), Some(p), None) => range_of(self.subject(s), |t| t.p.cmp(&p)),
            (Some(s), Some(p), Some(o)) => range_of(self.subject(s), |t| (t.p, t.o).cmp(&(p, o))),
            // Prefixes of POS.
            (None, Some(p), None) => range_of(&self.pos, |t| t.p.cmp(&p)),
            (None, Some(p), Some(o)) => range_of(&self.pos, |t| (t.p, t.o).cmp(&(p, o))),
            // Prefixes of OSP.
            (None, None, Some(o)) => range_of(&self.osp, |t| t.o.cmp(&o)),
            (Some(s), None, Some(o)) => range_of(&self.osp, |t| (t.o, t.s).cmp(&(o, s))),
        }
    }

    /// `run` (one of the two derived orders) as indices into `spo`.
    fn permutation(&self, run: &[Triple]) -> Vec<u32> {
        run.iter()
            .map(|t| {
                // mpc-allow: unwrap-expect the three runs hold the same triple set by construction
                let at = self.spo.binary_search(t).expect("runs hold the same triples");
                narrow::u32_from(at)
            })
            .collect()
    }

    fn heap_bytes(&self) -> usize {
        (self.spo.capacity() + self.pos.capacity() + self.osp.capacity())
            * std::mem::size_of::<Triple>()
            + self.subjects.as_ref().map_or(0, SubjectIndex::heap_bytes)
    }

    fn insert(&mut self, t: Triple) {
        debug_assert!(self.subjects.is_none(), "an indexed run is immutable");
        sorted_insert(&mut self.spo, t, |x| *x);
        sorted_insert(&mut self.pos, t, pos_key);
        sorted_insert(&mut self.osp, t, osp_key);
    }

    fn remove(&mut self, t: Triple) {
        debug_assert!(self.subjects.is_none(), "an indexed run is immutable");
        sorted_remove(&mut self.spo, t, |x| *x);
        sorted_remove(&mut self.pos, t, pos_key);
        sorted_remove(&mut self.osp, t, osp_key);
    }
}

/// The mutable side of a [`LocalStore`]: triples inserted since the last
/// compaction (the *novelty*) plus delete tombstones over the base run.
///
/// Invariants: the novelty is disjoint from the live base (a staged
/// triple is never also in `base minus tombstones`), tombstones are a
/// subset of the base run, and tombstones are strictly (s, p, o)-sorted.
/// Every read path merges base and overlay, so a store with a non-empty
/// overlay answers exactly like a store rebuilt from the merged triple
/// set.
#[derive(Clone, Debug, Default)]
struct Overlay {
    novelty: Runs,
    /// Deleted base triples, sorted by (s, p, o).
    tombstones: Vec<Triple>,
}

impl Overlay {
    fn is_empty(&self) -> bool {
        self.novelty.spo.is_empty() && self.tombstones.is_empty()
    }
}

/// Inserts `t` into a `key`-sorted vector, keeping it sorted.
fn sorted_insert<K: Ord>(v: &mut Vec<Triple>, t: Triple, key: impl Fn(&Triple) -> K) {
    let at = v.partition_point(|x| key(x) < key(&t));
    v.insert(at, t);
}

/// Removes `t` from a `key`-sorted vector, if present.
fn sorted_remove<K: Ord>(v: &mut Vec<Triple>, t: Triple, key: impl Fn(&Triple) -> K) {
    if let Ok(at) = v.binary_search_by(|x| key(x).cmp(&key(&t))) {
        v.remove(at);
    }
}

/// A forward cursor over the triples that match a pattern with exactly
/// one free position, yielding that position's values in ascending
/// order — one side of the matcher's leapfrog intersection
/// (docs/QUERY.md).
///
/// With every other position bound, the matching triples are one
/// contiguous slice of the run whose sort order ends in the free position
/// (POS for a free subject, SPO for a free object, OSP for a free
/// property), so they are sorted by its value and each value occurs at
/// most once. The cursor walks the base slice minus tombstones and the
/// novelty slice side by side; the two are disjoint, so the merged values
/// stay strictly ascending, exactly those of [`LocalStore::scan`].
pub(crate) struct KeyCursor<'a> {
    /// The unvisited rest of the base slice.
    base: &'a [Triple],
    /// The unvisited rest of the novelty slice.
    novelty: &'a [Triple],
    tombstones: &'a [Triple],
    free: Free,
}

/// The free position of a [`KeyCursor`]'s pattern.
enum Free {
    S,
    P,
    O,
}

impl KeyCursor<'_> {
    /// Skips every value below `target` and returns the least value at or
    /// above it, or `None` once none is left. The cursor never moves
    /// back, so a `target` below the last answer returns that answer again.
    pub(crate) fn seek(&mut self, target: u32) -> Option<u32> {
        // One copy of the loop per position, so the key read inlines.
        match self.free {
            Free::S => self.seek_by(target, |t| t.s.0),
            Free::P => self.seek_by(target, |t| t.p.0),
            Free::O => self.seek_by(target, |t| t.o.0),
        }
    }

    #[inline]
    fn seek_by(&mut self, target: u32, key: impl Fn(&Triple) -> u32) -> Option<u32> {
        self.base = &self.base[gallop(self.base, |t| key(t) < target)..];
        while let Some(t) = self.base.first() {
            if self.tombstones.is_empty() || self.tombstones.binary_search(t).is_err() {
                break;
            }
            self.base = &self.base[1..];
        }
        self.novelty = &self.novelty[gallop(self.novelty, |t| key(t) < target)..];
        match (self.base.first(), self.novelty.first()) {
            (Some(b), Some(n)) => Some(key(b).min(key(n))),
            (b, n) => b.or(n).map(key),
        }
    }
}

/// A sorted-run triple store with a novelty overlay.
///
/// Duplicate triples are removed at construction: SPARQL BGP matching has
/// set semantics, so multiset duplicates can only produce duplicate rows.
///
/// The base runs are immutable; [`LocalStore::insert`] and
/// [`LocalStore::delete`] stage changes in an in-memory overlay that
/// every read path merges at match time, and [`LocalStore::compact`]
/// folds the overlay back into sorted runs (docs/UPDATES.md).
///
/// # Examples
///
/// ```
/// use mpc_rdf::{PropertyId, Triple, VertexId};
/// use mpc_sparql::{LocalStore, Pattern};
///
/// let store = LocalStore::new(vec![
///     Triple::new(VertexId(0), PropertyId(0), VertexId(1)),
///     Triple::new(VertexId(0), PropertyId(1), VertexId(2)),
/// ]);
/// let by_subject = Pattern { s: Some(VertexId(0)), ..Pattern::any() };
/// assert_eq!(store.count(&by_subject), 2);
/// ```
#[derive(Clone, Debug)]
pub struct LocalStore {
    /// What the last construction or compaction produced.
    base: Runs,
    /// Per-property cardinalities, kept exact across overlay mutations.
    stats: StoreStats,
    /// Staged inserts and delete tombstones (empty after compaction).
    overlay: Overlay,
}

/// A triple-pattern access: each position is either bound or free.
#[derive(Clone, Copy, Debug, Default)]
pub struct Pattern {
    /// Bound subject.
    pub s: Option<VertexId>,
    /// Bound property.
    pub p: Option<PropertyId>,
    /// Bound object.
    pub o: Option<VertexId>,
}

impl Pattern {
    /// A fully unbound pattern.
    pub fn any() -> Self {
        Pattern::default()
    }

    /// True if a triple matches all bound positions.
    #[inline]
    pub fn matches(&self, t: &Triple) -> bool {
        self.s.is_none_or(|s| s == t.s)
            && self.p.is_none_or(|p| p == t.p)
            && self.o.is_none_or(|o| o == t.o)
    }
}

impl LocalStore {
    /// Builds a store from triples (duplicates are dropped).
    pub fn new(mut triples: Vec<Triple>) -> Self {
        triples.sort_unstable();
        triples.dedup();
        Self::from_runs(Runs::from_spo(triples))
    }

    fn from_runs(mut base: Runs) -> Self {
        base.subjects = SubjectIndex::build(&base.spo);
        let stats = StoreStats::compute(&base.spo, &base.pos);
        LocalStore {
            base,
            stats,
            overlay: Overlay::default(),
        }
    }

    /// Builds a store over a whole RDF graph.
    pub fn from_graph(g: &RdfGraph) -> Self {
        Self::new(g.triples().to_vec())
    }

    /// Reassembles a store from persisted parts, skipping the build-time
    /// sorts — the snapshot loader's fast path (docs/PERSISTENCE.md).
    ///
    /// Instead of trusting the input, every invariant [`LocalStore::new`]
    /// would have established is *verified*: `triples` must be strictly
    /// `(s, p, o)`-ascending (sorted and duplicate-free), and `pos` /
    /// `osp` must be strictly ascending under their `(p, o, s)` /
    /// `(o, s, p)` sort keys with every index in range. Strict ascent
    /// under a total order pins each permutation to the unique one a
    /// fresh build computes, so the runs materialized from them here are
    /// the runs `LocalStore::new` sorts into existence on the same
    /// triples — and the statistics are recomputed, not deserialized.
    pub fn from_sorted_parts(
        triples: Vec<Triple>,
        pos: Vec<u32>,
        osp: Vec<u32>,
    ) -> Result<Self, String> {
        let n = triples.len();
        for w in triples.windows(2) {
            if w[0] >= w[1] {
                return Err(format!(
                    "triples are not strictly (s,p,o)-sorted at {:?}",
                    w[1]
                ));
            }
        }
        let materialize = |perm: &[u32],
                           name: &str,
                           key: &dyn Fn(Triple) -> (u32, u32, u32)|
         -> Result<Vec<Triple>, String> {
            if perm.len() != n {
                return Err(format!(
                    "{name} permutation has {} entries for {n} triples",
                    perm.len()
                ));
            }
            let mut run = Vec::with_capacity(n);
            let mut prev: Option<(u32, u32, u32)> = None;
            for &i in perm {
                let t = *triples
                    .get(i as usize)
                    .ok_or_else(|| format!("{name} permutation index {i} out of range"))?;
                let k = key(t);
                if prev.is_some_and(|p| p >= k) {
                    return Err(format!("{name} permutation is not strictly sorted"));
                }
                prev = Some(k);
                run.push(t);
            }
            Ok(run)
        };
        let pos = materialize(&pos, "pos", &|t| (t.p.0, t.o.0, t.s.0))?;
        let osp = materialize(&osp, "osp", &|t| (t.o.0, t.s.0, t.p.0))?;
        Ok(Self::from_runs(Runs {
            spo: triples,
            pos,
            osp,
            subjects: None,
        }))
    }

    /// The base `(p, o, s)` run as indices into [`LocalStore::triples`] —
    /// the form the snapshot format persists (docs/PERSISTENCE.md).
    pub fn pos_permutation(&self) -> Vec<u32> {
        self.base.permutation(&self.base.pos)
    }

    /// The base `(o, s, p)` run as indices into [`LocalStore::triples`].
    pub fn osp_permutation(&self) -> Vec<u32> {
        self.base.permutation(&self.base.osp)
    }

    /// Number of stored (distinct) triples, overlay included.
    pub fn len(&self) -> usize {
        self.base.spo.len() - self.overlay.tombstones.len() + self.overlay.novelty.spo.len()
    }

    /// True if the store is empty (overlay included).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The **base run** in (s, p, o) order — what the last compaction
    /// (or construction) produced, *excluding* the overlay. Callers that
    /// need the live triple set must use [`LocalStore::scan`] with
    /// [`Pattern::any`], or [`LocalStore::compact`] first.
    pub fn triples(&self) -> &[Triple] {
        &self.base.spo
    }

    /// Per-property cardinality statistics of this store, kept exact
    /// across overlay mutations (always equal to what a fresh build over
    /// the merged triple set would compute).
    pub fn stats(&self) -> &StoreStats {
        &self.stats
    }

    /// Heap bytes held by the store's runs, subject directory and
    /// overlay, summed from allocation capacities.
    pub fn heap_bytes(&self) -> usize {
        self.base.heap_bytes()
            + self.overlay.novelty.heap_bytes()
            + self.overlay.tombstones.capacity() * std::mem::size_of::<Triple>()
    }

    /// Number of triples matching a pattern — the matcher's selectivity
    /// estimate. Costs one range lookup on the base run plus one on the
    /// novelty (and a tombstone sweep only while deletes are staged).
    pub fn count(&self, pat: &Pattern) -> usize {
        let dead = if self.overlay.tombstones.is_empty() {
            0
        } else {
            // Tombstones are a subset of the base run, so every match
            // here is also counted by the base range.
            self.overlay.tombstones.iter().filter(|t| pat.matches(t)).count()
        };
        self.base.select(pat).len() - dead + self.overlay.novelty.select(pat).len()
    }

    /// Iterates all triples matching a pattern, using the best run: the
    /// base range (minus tombstones) followed by the matching novelty.
    pub fn scan<'a>(&'a self, pat: &Pattern) -> impl Iterator<Item = Triple> + 'a {
        let tombstones = &self.overlay.tombstones;
        let base = self
            .base
            .select(pat)
            .iter()
            .copied()
            .filter(move |t| tombstones.is_empty() || tombstones.binary_search(t).is_err());
        base.chain(self.overlay.novelty.select(pat).iter().copied())
    }

    /// A [`KeyCursor`] over the triples matching `pat`, through the same
    /// base and novelty ranges as [`LocalStore::scan`].
    ///
    /// # Panics
    /// Panics unless exactly one of `pat`'s positions is free.
    pub(crate) fn cursor(&self, pat: &Pattern) -> KeyCursor<'_> {
        let free = match (pat.s, pat.p, pat.o) {
            (None, Some(_), Some(_)) => Free::S,
            (Some(_), None, Some(_)) => Free::P,
            (Some(_), Some(_), None) => Free::O,
            _ => panic!("a cursor needs exactly one free position, got {pat:?}"),
        };
        KeyCursor {
            base: self.base.select(pat),
            novelty: self.overlay.novelty.select(pat),
            tombstones: &self.overlay.tombstones,
            free,
        }
    }

    /// True if the store currently holds `t` (overlay included).
    pub fn contains(&self, t: Triple) -> bool {
        if self.overlay.novelty.contains(&t) {
            return true;
        }
        self.base.contains(&t) && self.overlay.tombstones.binary_search(&t).is_err()
    }

    /// Stages one triple in the novelty overlay. Returns `true` if the
    /// store changed (set semantics: inserting a present triple is a
    /// no-op). Deleting and re-inserting a base triple clears its
    /// tombstone rather than growing the novelty.
    pub fn insert(&mut self, t: Triple) -> bool {
        if self.contains(t) {
            return false;
        }
        self.stats_add(t);
        if let Ok(at) = self.overlay.tombstones.binary_search(&t) {
            self.overlay.tombstones.remove(at);
        } else {
            self.overlay.novelty.insert(t);
        }
        true
    }

    /// Deletes one triple: novelty triples are unstaged, base triples
    /// get a tombstone. Returns `true` if the store changed (deleting an
    /// absent triple is a no-op).
    pub fn delete(&mut self, t: Triple) -> bool {
        if self.overlay.novelty.contains(&t) {
            self.stats_remove(t);
            self.overlay.novelty.remove(t);
            return true;
        }
        if self.base.contains(&t) && self.overlay.tombstones.binary_search(&t).is_err() {
            self.stats_remove(t);
            sorted_insert(&mut self.overlay.tombstones, t, |x| *x);
            return true;
        }
        false
    }

    /// Triples currently staged in the novelty overlay.
    pub fn novelty_len(&self) -> usize {
        self.overlay.novelty.spo.len()
    }

    /// Base triples currently tombstoned by staged deletes.
    pub fn tombstone_len(&self) -> usize {
        self.overlay.tombstones.len()
    }

    /// True if the overlay is non-empty, i.e. the base run no longer
    /// equals the live triple set.
    pub fn is_dirty(&self) -> bool {
        !self.overlay.is_empty()
    }

    /// Folds the overlay into the base, rebuilding the three sorted
    /// runs. Afterwards the store is bit-identical to a fresh
    /// [`LocalStore::new`] over the merged triple set, and
    /// [`LocalStore::triples`] reflects every staged change.
    pub fn compact(&mut self) {
        if self.overlay.is_empty() {
            return;
        }
        let merged: Vec<Triple> = self.scan(&Pattern::any()).collect();
        *self = LocalStore::new(merged);
    }

    /// Adjusts statistics for an insert of `t` (called **before** the
    /// physical insertion, so the distinct-count probes see the prior
    /// state).
    fn stats_add(&mut self, t: Triple) {
        let sp = Pattern { s: Some(t.s), p: Some(t.p), o: None };
        let po = Pattern { s: None, p: Some(t.p), o: Some(t.o) };
        let new_subject = self.count(&sp) == 0;
        let new_object = self.count(&po) == 0;
        self.stats.triples += 1;
        let card = self.stats.properties.entry(t.p.0).or_default();
        card.triples += 1;
        card.distinct_subjects += u64::from(new_subject);
        card.distinct_objects += u64::from(new_object);
    }

    /// Adjusts statistics for a delete of `t` (called **before** the
    /// physical removal; the probes therefore still count `t` itself and
    /// test whether it was the *last* triple of its (s, p) / (p, o)
    /// group).
    fn stats_remove(&mut self, t: Triple) {
        let sp = Pattern { s: Some(t.s), p: Some(t.p), o: None };
        let po = Pattern { s: None, p: Some(t.p), o: Some(t.o) };
        let last_subject = self.count(&sp) == 1;
        let last_object = self.count(&po) == 1;
        self.stats.triples -= 1;
        if let Some(card) = self.stats.properties.get_mut(&t.p.0) {
            card.triples -= 1;
            card.distinct_subjects -= u64::from(last_subject);
            card.distinct_objects -= u64::from(last_object);
            // A fresh build has no entry for a property with no triples.
            if card.triples == 0 {
                self.stats.properties.remove(&t.p.0);
            }
        }
    }
}

/// The maximal subslice where `cmp` returns `Equal`, assuming the run is
/// sorted consistently with `cmp`: a binary search for its start, then a
/// gallop for its end. Most probes of a search match a handful of
/// triples, so doubling steps from the start reach the end in a few
/// adjacent reads where a second bisection of the run would pay its full
/// depth again; a long range costs the gallop at most twice that depth.
fn range_of<F>(run: &[Triple], cmp: F) -> &[Triple]
where
    F: Fn(&Triple) -> std::cmp::Ordering,
{
    use std::cmp::Ordering::{Equal, Less};
    let lo = run.partition_point(|t| cmp(t) == Less);
    let tail = &run[lo..];
    &tail[..gallop(tail, |t| cmp(t) == Equal)]
}

/// The length of the prefix of `run` on which `pred` holds, assuming it
/// holds on a prefix: doubling steps from the start, then a binary search
/// of the last doubling. The cost grows with the log of the answer, not
/// of the run, so short hops along a long run stay cheap.
fn gallop(run: &[Triple], pred: impl Fn(&Triple) -> bool) -> usize {
    // Double `step` until `run[step - 1]` fails `pred` (or the run ends);
    // the prefix then ends within `run[step / 2..step]`.
    let mut step = 1;
    while step < run.len() && pred(&run[step - 1]) {
        step *= 2;
    }
    let from = step / 2;
    let to = step.min(run.len());
    from + run[from..to].partition_point(pred)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u32, p: u32, o: u32) -> Triple {
        Triple::new(VertexId(s), PropertyId(p), VertexId(o))
    }

    fn store() -> LocalStore {
        LocalStore::new(vec![
            t(0, 0, 1),
            t(0, 0, 2),
            t(0, 1, 1),
            t(1, 0, 2),
            t(2, 1, 0),
            t(2, 1, 0), // duplicate
        ])
    }

    #[test]
    fn dedups() {
        assert_eq!(store().len(), 5);
    }

    #[test]
    fn full_scan() {
        let s = store();
        assert_eq!(s.scan(&Pattern::any()).count(), 5);
    }

    #[test]
    fn all_access_paths() {
        let s = store();
        let by = |sp: Option<u32>, pp: Option<u32>, op: Option<u32>| Pattern {
            s: sp.map(VertexId),
            p: pp.map(PropertyId),
            o: op.map(VertexId),
        };
        // s
        assert_eq!(s.scan(&by(Some(0), None, None)).count(), 3);
        // s,p
        assert_eq!(s.scan(&by(Some(0), Some(0), None)).count(), 2);
        // s,p,o
        assert_eq!(s.scan(&by(Some(0), Some(0), Some(2))).count(), 1);
        assert_eq!(s.scan(&by(Some(0), Some(1), Some(2))).count(), 0);
        // p
        assert_eq!(s.scan(&by(None, Some(1), None)).count(), 2);
        // p,o
        assert_eq!(s.scan(&by(None, Some(0), Some(2))).count(), 2);
        // o
        assert_eq!(s.scan(&by(None, None, Some(1))).count(), 2);
        // s,o
        assert_eq!(s.scan(&by(Some(0), None, Some(1))).count(), 2);
    }

    #[test]
    fn scan_results_match_pattern() {
        let s = store();
        let pat = Pattern {
            s: Some(VertexId(0)),
            p: None,
            o: Some(VertexId(1)),
        };
        for t in s.scan(&pat) {
            assert!(pat.matches(&t));
        }
    }

    #[test]
    fn count_equals_scan_len() {
        let s = store();
        let pats = [
            Pattern::any(),
            Pattern {
                s: Some(VertexId(0)),
                ..Default::default()
            },
            Pattern {
                p: Some(PropertyId(1)),
                ..Default::default()
            },
            Pattern {
                o: Some(VertexId(2)),
                ..Default::default()
            },
        ];
        for pat in pats {
            assert_eq!(s.count(&pat), s.scan(&pat).count());
        }
    }

    #[test]
    fn empty_store() {
        let s = LocalStore::new(vec![]);
        assert!(s.is_empty());
        assert_eq!(s.scan(&Pattern::any()).count(), 0);
    }

    #[test]
    fn stats_count_per_property_cardinalities() {
        let s = store();
        // p0: (0,0,1) (0,0,2) (1,0,2) → 3 triples, 2 subjects, 2 objects.
        let p0 = s.stats().card(PropertyId(0));
        assert_eq!(p0.triples, 3);
        assert_eq!(p0.distinct_subjects, 2);
        assert_eq!(p0.distinct_objects, 2);
        // p1: (0,1,1) (2,1,0) → 2 triples, 2 subjects, 2 objects.
        let p1 = s.stats().card(PropertyId(1));
        assert_eq!(p1.triples, 2);
        assert_eq!(p1.distinct_subjects, 2);
        assert_eq!(p1.distinct_objects, 2);
        assert_eq!(s.stats().triples, 5);
        assert_eq!(s.stats().card(PropertyId(9)), PropertyCard::default());
    }

    #[test]
    fn stats_merge_adds_up() {
        let a = LocalStore::new(vec![t(0, 0, 1), t(0, 1, 2)]);
        let b = LocalStore::new(vec![t(3, 0, 4)]);
        let mut agg = a.stats().clone();
        agg.merge(b.stats());
        assert_eq!(agg.triples, 3);
        assert_eq!(agg.card(PropertyId(0)).triples, 2);
        assert_eq!(agg.card(PropertyId(0)).distinct_subjects, 2);
        assert_eq!(agg.card(PropertyId(1)).triples, 1);
    }

    #[test]
    fn from_sorted_parts_matches_fresh_build() {
        let fresh = store();
        let rebuilt = LocalStore::from_sorted_parts(
            fresh.triples().to_vec(),
            fresh.pos_permutation().to_vec(),
            fresh.osp_permutation().to_vec(),
        )
        .unwrap();
        assert_eq!(rebuilt.triples(), fresh.triples());
        assert_eq!(rebuilt.pos_permutation(), fresh.pos_permutation());
        assert_eq!(rebuilt.osp_permutation(), fresh.osp_permutation());
        assert_eq!(rebuilt.stats(), fresh.stats());
        assert!(fresh.base.subjects.is_some());
        assert_eq!(rebuilt.base.subjects, fresh.base.subjects);
        let pat = Pattern {
            p: Some(PropertyId(0)),
            ..Pattern::default()
        };
        assert_eq!(
            rebuilt.scan(&pat).collect::<Vec<_>>(),
            fresh.scan(&pat).collect::<Vec<_>>()
        );
    }

    #[test]
    fn from_sorted_parts_rejects_bad_inputs() {
        let fresh = store();
        let triples = fresh.triples().to_vec();
        let pos = fresh.pos_permutation().to_vec();
        let osp = fresh.osp_permutation().to_vec();

        // Unsorted triples.
        let mut reversed = triples.clone();
        reversed.reverse();
        assert!(LocalStore::from_sorted_parts(reversed, pos.clone(), osp.clone()).is_err());
        // A duplicate triple (not *strictly* sorted).
        let mut dup = triples.clone();
        dup[1] = dup[0];
        assert!(LocalStore::from_sorted_parts(dup, pos.clone(), osp.clone()).is_err());
        // Wrong permutation length.
        assert!(
            LocalStore::from_sorted_parts(triples.clone(), pos[1..].to_vec(), osp.clone())
                .is_err()
        );
        // Out-of-range index.
        let mut big = pos.clone();
        big[0] = 99;
        assert!(LocalStore::from_sorted_parts(triples.clone(), big, osp.clone()).is_err());
        // Swapped entries break the strict sort-order check.
        let mut swapped = pos.clone();
        swapped.swap(0, 1);
        assert!(LocalStore::from_sorted_parts(triples.clone(), swapped, osp.clone()).is_err());
        // A repeated index is caught by strictness too.
        let mut repeated = osp.clone();
        repeated[1] = repeated[0];
        assert!(LocalStore::from_sorted_parts(triples, pos, repeated).is_err());
    }

    #[test]
    fn subjects_near_the_id_limit_get_no_id_sized_directory() {
        let s = LocalStore::new(vec![t(5, 1, 1), t(u32::MAX - 1, 0, 2), t(u32::MAX, 0, 1)]);
        assert!(s.base.subjects.is_none());
        // Three runs of three triples, and nothing else.
        assert_eq!(s.heap_bytes(), 9 * std::mem::size_of::<Triple>());
        let by_subject = |id| Pattern {
            s: Some(VertexId(id)),
            ..Pattern::default()
        };
        assert_eq!(s.count(&by_subject(u32::MAX)), 1);
        assert_eq!(s.count(&by_subject(u32::MAX - 2)), 0);
        assert!(s.contains(t(u32::MAX, 0, 1)));
    }

    #[test]
    fn missing_keys_yield_empty() {
        let s = store();
        let pat = Pattern {
            s: Some(VertexId(99)),
            ..Default::default()
        };
        assert_eq!(s.count(&pat), 0);
    }

    #[test]
    fn overlay_insert_is_visible_on_every_access_path() {
        let mut s = store();
        assert!(s.insert(t(7, 0, 1)));
        assert!(!s.insert(t(7, 0, 1)), "set semantics: re-insert is a no-op");
        assert!(!s.insert(t(0, 0, 1)), "base triples cannot be re-inserted");
        assert!(s.is_dirty());
        assert_eq!(s.len(), 6);
        assert!(s.contains(t(7, 0, 1)));
        let by = |sp: Option<u32>, pp: Option<u32>, op: Option<u32>| Pattern {
            s: sp.map(VertexId),
            p: pp.map(PropertyId),
            o: op.map(VertexId),
        };
        assert_eq!(s.count(&by(Some(7), None, None)), 1);
        assert_eq!(s.count(&by(None, Some(0), None)), 4);
        assert_eq!(s.count(&by(None, None, Some(1))), 3);
        assert_eq!(s.count(&by(Some(7), None, Some(1))), 1);
        assert_eq!(s.scan(&by(None, Some(0), Some(1))).count(), 2);
    }

    #[test]
    fn overlay_delete_tombstones_base_and_unstages_novelty() {
        let mut s = store();
        // Deleting a base triple leaves a tombstone…
        assert!(s.delete(t(0, 0, 1)));
        assert!(!s.delete(t(0, 0, 1)), "double delete is a no-op");
        assert!(!s.contains(t(0, 0, 1)));
        assert_eq!(s.len(), 4);
        assert_eq!(s.tombstone_len(), 1);
        assert_eq!(s.scan(&Pattern::any()).count(), 4);
        // …and re-inserting it clears the tombstone, not the novelty.
        assert!(s.insert(t(0, 0, 1)));
        assert_eq!(s.tombstone_len(), 0);
        assert_eq!(s.novelty_len(), 0);
        assert!(!s.is_dirty());
        // Deleting a staged triple unstages it.
        assert!(s.insert(t(9, 1, 9)));
        assert!(s.delete(t(9, 1, 9)));
        assert_eq!(s.novelty_len(), 0);
        assert!(!s.delete(t(42, 0, 42)), "absent triples delete as no-ops");
    }

    #[test]
    fn overlay_stats_stay_exact() {
        let mut s = store();
        s.insert(t(7, 0, 2));
        s.delete(t(0, 1, 1));
        s.delete(t(2, 1, 0));
        let mut merged: Vec<Triple> = s.scan(&Pattern::any()).collect();
        merged.sort_unstable();
        let fresh = LocalStore::new(merged);
        assert_eq!(s.stats(), fresh.stats());
        // p1 lost its last triple: the entry is gone, like a fresh build.
        assert_eq!(s.stats().card(PropertyId(1)), PropertyCard::default());
    }

    #[test]
    fn compact_equals_fresh_build() {
        let mut s = store();
        s.insert(t(7, 0, 2));
        s.insert(t(3, 1, 3));
        s.delete(t(1, 0, 2));
        let mut merged: Vec<Triple> = s.scan(&Pattern::any()).collect();
        merged.sort_unstable();
        s.compact();
        assert!(!s.is_dirty());
        let fresh = LocalStore::new(merged);
        assert_eq!(s.triples(), fresh.triples());
        assert_eq!(s.pos_permutation(), fresh.pos_permutation());
        assert_eq!(s.osp_permutation(), fresh.osp_permutation());
        assert_eq!(s.stats(), fresh.stats());
        assert_eq!(s.base.subjects, fresh.base.subjects);
    }
}

#[cfg(test)]
pub(crate) mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn triples_strategy() -> impl Strategy<Value = Vec<Triple>> {
        proptest::collection::vec((0u32..8, 0u32..4, 0u32..8), 0..60).prop_map(|v| {
            v.into_iter()
                .map(|(s, p, o)| Triple::new(VertexId(s), PropertyId(p), VertexId(o)))
                .collect()
        })
    }

    fn pattern_strategy() -> impl Strategy<Value = Pattern> {
        (
            proptest::option::of(0u32..8),
            proptest::option::of(0u32..4),
            proptest::option::of(0u32..8),
        )
            .prop_map(|(s, p, o)| Pattern {
                s: s.map(VertexId),
                p: p.map(PropertyId),
                o: o.map(VertexId),
            })
    }

    /// Subject ids from the whole `u32` range: low ids, where the subject
    /// directory is built and spans a few words, and ids up to
    /// `u32::MAX`, where its words would outgrow the run.
    fn wide_subject() -> impl Strategy<Value = u32> {
        prop_oneof![
            0u32..200,
            0u32..1 << 24,
            u32::MAX - 200..=u32::MAX,
            any::<u32>()
        ]
    }

    /// A store over at most four subjects drawn by [`wide_subject`]
    /// (empty and single-subject stores come up often), and a pattern
    /// whose subject, when bound, is one of them or another wide id.
    fn wide_store_strategy() -> impl Strategy<Value = (Vec<Triple>, Pattern)> {
        (
            proptest::collection::vec(wide_subject(), 0..5),
            proptest::collection::vec((0usize..4, 0u32..3, 0u32..6), 0..40),
            (0usize..6, wide_subject()),
            (proptest::option::of(0u32..3), proptest::option::of(0u32..6)),
        )
            .prop_map(|(subjects, picks, (pick, other), (p, o))| {
                let triples = picks
                    .into_iter()
                    .filter_map(|(i, p, o)| {
                        let s = *subjects.get(i)?;
                        Some(Triple::new(VertexId(s), PropertyId(p), VertexId(o)))
                    })
                    .collect();
                let s = match pick {
                    5 => None,
                    i => Some(subjects.get(i).copied().unwrap_or(other)),
                };
                let pat = Pattern {
                    s: s.map(VertexId),
                    p: p.map(PropertyId),
                    o: o.map(VertexId),
                };
                (triples, pat)
            })
    }

    /// A random mutation stream: `true` is an insert, `false` a delete.
    pub(crate) fn ops_strategy() -> impl Strategy<Value = Vec<(bool, Triple)>> {
        proptest::collection::vec(
            (0u32..10, (0u32..8, 0u32..4, 0u32..8)),
            0..40,
        )
        .prop_map(|v| {
            v.into_iter()
                .map(|(kind, (s, p, o))| {
                    // ~70% inserts, ~30% deletes.
                    (kind < 7, Triple::new(VertexId(s), PropertyId(p), VertexId(o)))
                })
                .collect()
        })
    }

    proptest! {
        /// Every access path returns exactly the brute-force filter result.
        #[test]
        fn scan_equals_filter(triples in triples_strategy(), pat in pattern_strategy()) {
            let store = LocalStore::new(triples.clone());
            let mut expected: Vec<Triple> = {
                let mut t = triples;
                t.sort_unstable();
                t.dedup();
                t.into_iter().filter(|t| pat.matches(t)).collect()
            };
            expected.sort_unstable();
            let mut got: Vec<Triple> = store.scan(&pat).collect();
            got.sort_unstable();
            prop_assert_eq!(got, expected);
        }

        /// At any spread of subject ids, with or without a subject
        /// directory, `scan`, `count`, `contains` and the free-object
        /// cursor answer exactly the brute-force filter; a directory that
        /// is built never has more words than the run has triples.
        #[test]
        fn wide_subject_ids_answer_exactly((triples, pat) in wide_store_strategy()) {
            let store = LocalStore::new(triples.clone());
            let mut all = triples;
            all.sort_unstable();
            all.dedup();
            if let Some(dir) = &store.base.subjects {
                prop_assert!(dir.words.len() <= all.len());
            }
            let want: Vec<Triple> = all.iter().copied().filter(|t| pat.matches(t)).collect();
            let mut got: Vec<Triple> = store.scan(&pat).collect();
            got.sort_unstable();
            prop_assert_eq!(&got, &want);
            prop_assert_eq!(store.count(&pat), want.len());
            for &t in &all {
                prop_assert!(store.contains(t));
            }
            if let (Some(s), Some(p)) = (pat.s, pat.p) {
                for o in 0..6 {
                    let t = Triple::new(s, p, VertexId(o));
                    prop_assert_eq!(store.contains(t), all.contains(&t));
                }
                let free_o = Pattern { o: None, ..pat };
                let want: Vec<u32> =
                    all.iter().filter(|t| free_o.matches(t)).map(|t| t.o.0).collect();
                let mut walked = Vec::new();
                let mut cursor = store.cursor(&free_o);
                let mut target = 0;
                while let Some(v) = cursor.seek(target) {
                    walked.push(v);
                    target = v + 1;
                }
                prop_assert_eq!(walked, want);
            }
        }

        /// Build-time statistics agree with brute-force recounting.
        #[test]
        fn stats_equal_bruteforce(triples in triples_strategy()) {
            let store = LocalStore::new(triples.clone());
            let mut t = triples;
            t.sort_unstable();
            t.dedup();
            prop_assert_eq!(store.stats().triples, t.len() as u64);
            for p in 0u32..4 {
                let of_p: Vec<&Triple> = t.iter().filter(|x| x.p.0 == p).collect();
                let distinct = |f: fn(&Triple) -> u32| {
                    let mut v: Vec<u32> = of_p.iter().map(|x| f(x)).collect();
                    v.sort_unstable();
                    v.dedup();
                    v.len() as u64
                };
                let card = store.stats().card(PropertyId(p));
                prop_assert_eq!(card.triples, of_p.len() as u64);
                prop_assert_eq!(card.distinct_subjects, distinct(|x| x.s.0));
                prop_assert_eq!(card.distinct_objects, distinct(|x| x.o.0));
            }
        }

        /// Over any base and mutation stream, a cursor on a pattern with
        /// one free position visits exactly the free values `scan`
        /// returns, ascending, whether walked value by value or by
        /// ascending seeks to arbitrary targets.
        #[test]
        fn cursor_walks_the_scan_in_key_order(
            base in triples_strategy(),
            ops in ops_strategy(),
            (s, p, o, free) in (0u32..8, 0u32..4, 0u32..8, 0usize..3),
            mut targets in proptest::collection::vec(0u32..10, 0..6),
        ) {
            let mut store = LocalStore::new(base);
            for (ins, t) in ops {
                if ins { store.insert(t); } else { store.delete(t); }
            }
            let pat = Pattern {
                s: (free != 0).then_some(VertexId(s)),
                p: (free != 1).then_some(PropertyId(p)),
                o: (free != 2).then_some(VertexId(o)),
            };
            let key = |t: Triple| [t.s.0, t.p.0, t.o.0][free];
            let mut want: Vec<u32> = store.scan(&pat).map(key).collect();
            want.sort_unstable();

            let mut walked = Vec::new();
            let mut cursor = store.cursor(&pat);
            let mut target = 0;
            while let Some(v) = cursor.seek(target) {
                walked.push(v);
                target = v + 1;
            }
            prop_assert_eq!(&walked, &want);

            targets.sort_unstable();
            let mut cursor = store.cursor(&pat);
            for target in targets {
                let least = want.iter().copied().find(|&v| v >= target);
                prop_assert_eq!(cursor.seek(target), least);
            }
        }

        /// After any mutation stream, every access path over (base +
        /// overlay) answers exactly like a store rebuilt from the merged
        /// triple set — scans, counts, lengths, and statistics — and the
        /// reported change flag matches set semantics. Compaction then
        /// reproduces the fresh build bit for bit.
        #[test]
        fn overlay_equals_rebuild(
            base in triples_strategy(),
            ops in ops_strategy(),
            pat in pattern_strategy(),
        ) {
            let mut store = LocalStore::new(base.clone());
            let mut reference: Vec<Triple> = base;
            reference.sort_unstable();
            reference.dedup();
            for (ins, t) in ops {
                if ins {
                    let expect = !reference.contains(&t);
                    prop_assert_eq!(store.insert(t), expect);
                    if expect {
                        reference.push(t);
                        reference.sort_unstable();
                    }
                } else {
                    let expect = reference.contains(&t);
                    prop_assert_eq!(store.delete(t), expect);
                    reference.retain(|x| *x != t);
                }
            }
            let fresh = LocalStore::new(reference.clone());
            prop_assert_eq!(store.len(), fresh.len());
            prop_assert_eq!(store.stats(), fresh.stats());
            prop_assert_eq!(store.count(&pat), fresh.count(&pat));
            let mut got: Vec<Triple> = store.scan(&pat).collect();
            got.sort_unstable();
            let mut expected: Vec<Triple> = fresh.scan(&pat).collect();
            expected.sort_unstable();
            prop_assert_eq!(got, expected);
            for &t in &reference {
                prop_assert!(store.contains(t));
            }
            store.compact();
            prop_assert_eq!(&store.base.subjects, &fresh.base.subjects);
            prop_assert_eq!(store.triples(), fresh.triples());
            prop_assert_eq!(store.pos_permutation(), fresh.pos_permutation());
            prop_assert_eq!(store.osp_permutation(), fresh.osp_permutation());
            prop_assert_eq!(store.stats(), fresh.stats());
        }
    }
}
