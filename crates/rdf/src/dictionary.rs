//! Dictionary encoding: interning RDF terms and property IRIs to dense ids.
//!
//! Distributed RDF systems universally dictionary-encode their data
//! (gStore, TriAD, AdPart all do); every layer above this one — the
//! partitioners, the triple store, the matcher — works exclusively on
//! [`VertexId`] / [`PropertyId`] integers.
//!
//! **Layout.** Each id space is one table: every term stored once in
//! a single string arena (a kind tag, then each part length-prefixed), a
//! `u32` arena offset per id, and an open-addressing index of ids that
//! hashes and compares decoded views of the arena — a lookup allocates
//! nothing. Lookups hand out [`TermRef`] views into the arena.
//!
//! **Layers.** A graph holds its dictionary behind an `Arc` and never
//! mutates it. A live-update dictionary ([`Dictionary::layered`]) is a
//! small delta over that frozen, shared base: ids `0..base` resolve in
//! the base, new terms take the next ids in the delta, and the base is
//! never copied. Layers never stack.

use crate::hash::FxBuildHasher;
use crate::ids::{PropertyId, VertexId};
use crate::narrow;
use crate::term::{Term, TermRef};
use std::hash::BuildHasher;
use std::sync::Arc;

/// Two-sided mapping between terms and dense integer ids.
///
/// Vertices (subjects/objects) and properties are interned in separate id
/// spaces, mirroring Definition 3.1 where `V` and `L` are distinct sets.
#[derive(Default, Clone, Debug)]
pub struct Dictionary {
    /// The frozen terms with the low ids, shared with the graph it came
    /// from; always a dictionary without a base of its own.
    base: Option<Arc<Dictionary>>,
    vertices: Table,
    properties: Table,
}

impl Dictionary {
    /// Creates an empty dictionary.
    pub fn new() -> Self {
        Self::default()
    }

    /// A dictionary that grows over `shared` without copying it: every
    /// id `shared` knows keeps its term, and new terms get the next ids
    /// in a delta this dictionary owns. Layering over a layered
    /// dictionary shares its base and copies only its delta, so there is
    /// never more than one layer.
    pub fn layered(shared: Arc<Dictionary>) -> Self {
        match &shared.base {
            Some(base) => Dictionary {
                base: Some(Arc::clone(base)),
                vertices: shared.vertices.clone(),
                properties: shared.properties.clone(),
            },
            None => Dictionary {
                base: Some(shared),
                ..Dictionary::default()
            },
        }
    }

    /// The shared base this dictionary is layered over, if any.
    pub fn base(&self) -> Option<&Arc<Dictionary>> {
        self.base.as_ref()
    }

    fn base_vertices(&self) -> Option<&Table> {
        self.base.as_deref().map(|b| &b.vertices)
    }

    fn base_properties(&self) -> Option<&Table> {
        self.base.as_deref().map(|b| &b.properties)
    }

    /// Interns a term as a vertex, returning its id (existing or fresh).
    pub fn intern_vertex(&mut self, term: &Term) -> VertexId {
        let base = self.base.as_deref().map(|b| &b.vertices);
        VertexId(intern(base, &mut self.vertices, term.view()))
    }

    /// Interns a property IRI, returning its id (existing or fresh).
    pub fn intern_property(&mut self, iri: &str) -> PropertyId {
        let base = self.base.as_deref().map(|b| &b.properties);
        PropertyId(intern(base, &mut self.properties, TermRef::Iri(iri)))
    }

    /// Looks up a vertex id by term, without interning.
    pub fn vertex_id(&self, term: &Term) -> Option<VertexId> {
        id_of(self.base_vertices(), &self.vertices, term.view()).map(VertexId)
    }

    /// Looks up a property id by IRI, without interning.
    pub fn property_id(&self, iri: &str) -> Option<PropertyId> {
        id_of(self.base_properties(), &self.properties, TermRef::Iri(iri)).map(PropertyId)
    }

    /// The term behind a vertex id, as a view into the arena.
    ///
    /// # Panics
    /// Panics if `id` was not produced by this dictionary.
    pub fn vertex_term(&self, id: VertexId) -> TermRef<'_> {
        term_at(self.base_vertices(), &self.vertices, id.index())
    }

    /// The IRI behind a property id.
    ///
    /// # Panics
    /// Panics if `id` was not produced by this dictionary.
    pub fn property_iri(&self, id: PropertyId) -> &str {
        match term_at(self.base_properties(), &self.properties, id.index()) {
            TermRef::Iri(iri) => iri,
            other => unreachable!("property tables hold IRIs only, found {other}"),
        }
    }

    /// Number of interned vertices.
    pub fn vertex_count(&self) -> usize {
        self.base_vertices().map_or(0, Table::len) + self.vertices.len()
    }

    /// Number of interned properties.
    pub fn property_count(&self) -> usize {
        self.base_properties().map_or(0, Table::len) + self.properties.len()
    }

    /// Heap bytes held for the terms, summed from allocation capacities
    /// and including a shared base.
    pub fn heap_bytes(&self) -> usize {
        self.base.as_deref().map_or(0, Dictionary::heap_bytes)
            + self.vertices.heap_bytes()
            + self.properties.heap_bytes()
    }

    /// Iterates over `(id, term)` pairs in id order.
    pub fn vertices(&self) -> impl Iterator<Item = (VertexId, TermRef<'_>)> {
        (0..narrow::u32_from(self.vertex_count()))
            .map(|i| (VertexId(i), self.vertex_term(VertexId(i))))
    }

    /// Iterates over `(id, iri)` pairs in id order.
    pub fn properties(&self) -> impl Iterator<Item = (PropertyId, &str)> {
        (0..narrow::u32_from(self.property_count()))
            .map(|i| (PropertyId(i), self.property_iri(PropertyId(i))))
    }
}

/// The id of `t` in a base-plus-delta pair: base ids first, delta ids
/// after them.
fn id_of(base: Option<&Table>, own: &Table, t: TermRef<'_>) -> Option<u32> {
    match base {
        Some(b) => b
            .position(t)
            .or_else(|| own.position(t).map(|i| narrow::u32_from(b.len()) + i)),
        None => own.position(t),
    }
}

fn intern(base: Option<&Table>, own: &mut Table, t: TermRef<'_>) -> u32 {
    match base {
        Some(b) => match b.position(t) {
            Some(i) => i,
            None => narrow::u32_from(b.len()) + own.intern(t),
        },
        None => own.intern(t),
    }
}

fn term_at<'a>(base: Option<&'a Table>, own: &'a Table, i: usize) -> TermRef<'a> {
    match base {
        Some(b) if i < b.len() => b.get(i),
        Some(b) => own.get(i - b.len()),
        None => own.get(i),
    }
}

/// Kind tags. A literal's tag is `LITERAL` plus 1 if it has a datatype
/// and plus 2 if it has a language tag; those parts follow the lexical
/// form in that order. All tags and length bytes are ASCII, so the arena
/// stays a valid `String` and parts slice out of it as `&str`.
const IRI: u8 = b'I';
const BLANK: u8 = b'B';
const LITERAL: u8 = b'L';

/// One id space: terms stored once in `arena`, the arena offset of each
/// id in `starts` (so one table holds at most 4 GiB of encoded terms),
/// and a linear-probing index over ids (`slots`, where 0 is empty and
/// `i + 1` names id `i`) kept at most half full.
#[derive(Default, Clone, Debug)]
struct Table {
    arena: String,
    starts: Vec<u32>,
    slots: Vec<u32>,
}

impl Table {
    fn len(&self) -> usize {
        self.starts.len()
    }

    fn get(&self, i: usize) -> TermRef<'_> {
        decode(&self.arena, self.starts[i] as usize)
    }

    fn heap_bytes(&self) -> usize {
        self.arena.capacity() + 4 * (self.starts.capacity() + self.slots.capacity())
    }

    /// The id of `t`, or the empty slot where it would go.
    fn find(&self, t: TermRef<'_>) -> Result<u32, usize> {
        let mask = self.slots.len() - 1;
        let mut s = home_slot(t, self.slots.len());
        loop {
            match self.slots[s] {
                0 => return Err(s),
                n if self.get((n - 1) as usize) == t => return Ok(n - 1),
                _ => s = (s + 1) & mask,
            }
        }
    }

    fn position(&self, t: TermRef<'_>) -> Option<u32> {
        if self.slots.is_empty() {
            return None;
        }
        self.find(t).ok()
    }

    fn intern(&mut self, t: TermRef<'_>) -> u32 {
        if 2 * self.len() >= self.slots.len() {
            self.grow();
        }
        match self.find(t) {
            Ok(i) => i,
            Err(slot) => {
                let i = narrow::u32_from(self.len());
                self.starts.push(narrow::u32_from(self.arena.len()));
                encode(t, &mut self.arena);
                self.slots[slot] = i + 1;
                i
            }
        }
    }

    /// Doubles the index (8 slots at least) and re-seats every id.
    fn grow(&mut self) {
        let cap = (2 * self.slots.len()).max(8);
        self.slots = vec![0; cap];
        for i in 0..self.len() {
            let mut s = home_slot(self.get(i), cap);
            while self.slots[s] != 0 {
                s = (s + 1) & (cap - 1);
            }
            self.slots[s] = narrow::u32_from(i) + 1;
        }
    }
}

/// The first probe for `t` in a power-of-two index: the hash's top bits,
/// which FxHash mixes best.
fn home_slot(t: TermRef<'_>, slots: usize) -> usize {
    let h = FxBuildHasher::default().hash_one(t);
    usize::try_from(h >> (64 - slots.trailing_zeros())).unwrap_or(0)
}

fn encode(t: TermRef<'_>, out: &mut String) {
    let (tag, lexical, datatype, language) = match t {
        TermRef::Iri(i) => (IRI, i, None, None),
        TermRef::Blank(b) => (BLANK, b, None, None),
        TermRef::Literal {
            lexical,
            datatype,
            language,
        } => {
            let flags = u8::from(datatype.is_some()) + 2 * u8::from(language.is_some());
            (LITERAL + flags, lexical, datatype, language)
        }
    };
    out.push(char::from(tag));
    for part in [Some(lexical), datatype, language].into_iter().flatten() {
        push_part(part, out);
    }
}

/// Appends `part` after its length in 6-bit groups, low group first,
/// bit 6 marking "more follows": every length byte stays ASCII.
fn push_part(part: &str, out: &mut String) {
    let mut n = part.len();
    while n >= 0x40 {
        out.push(char::from(0x40 | low_bits(n)));
        n >>= 6;
    }
    out.push(char::from(low_bits(n)));
    out.push_str(part);
}

fn low_bits(n: usize) -> u8 {
    u8::try_from(n & 0x3f).unwrap_or(0)
}

fn read_part<'a>(arena: &'a str, pos: &mut usize) -> &'a str {
    let bytes = arena.as_bytes();
    let (mut len, mut shift) = (0usize, 0);
    loop {
        let b = bytes[*pos];
        *pos += 1;
        len |= usize::from(b & 0x3f) << shift;
        if b & 0x40 == 0 {
            break;
        }
        shift += 6;
    }
    let part = &arena[*pos..*pos + len];
    *pos += len;
    part
}

fn decode(arena: &str, start: usize) -> TermRef<'_> {
    let tag = arena.as_bytes()[start];
    let mut pos = start + 1;
    let first = read_part(arena, &mut pos);
    match tag {
        IRI => TermRef::Iri(first),
        BLANK => TermRef::Blank(first),
        _ => {
            let flags = tag - LITERAL;
            let datatype = (flags & 1 != 0).then(|| read_part(arena, &mut pos));
            let language = (flags & 2 != 0).then(|| read_part(arena, &mut pos));
            TermRef::Literal {
                lexical: first,
                datatype,
                language,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let mut d = Dictionary::new();
        let a1 = d.intern_vertex(&Term::iri("http://x/a"));
        let a2 = d.intern_vertex(&Term::iri("http://x/a"));
        assert_eq!(a1, a2);
        assert_eq!(d.vertex_count(), 1);

        let p1 = d.intern_property("http://x/p");
        let p2 = d.intern_property("http://x/p");
        assert_eq!(p1, p2);
        assert_eq!(d.property_count(), 1);
    }

    #[test]
    fn ids_are_dense_and_ordered() {
        let mut d = Dictionary::new();
        for i in 0..10 {
            let id = d.intern_vertex(&Term::iri(format!("http://x/{i}")));
            assert_eq!(id, VertexId(i));
        }
    }

    #[test]
    fn lookup_roundtrip() {
        let mut d = Dictionary::new();
        let t = Term::lang_literal("chat", "fr");
        let id = d.intern_vertex(&t);
        assert_eq!(d.vertex_term(id), t.view());
        assert_eq!(d.vertex_id(&t), Some(id));
        assert_eq!(d.vertex_id(&Term::literal("chat")), None);

        let p = d.intern_property("http://x/knows");
        assert_eq!(d.property_iri(p), "http://x/knows");
        assert_eq!(d.property_id("http://x/knows"), Some(p));
        assert_eq!(d.property_id("http://x/unknown"), None);
    }

    #[test]
    fn vertex_and_property_spaces_are_independent() {
        let mut d = Dictionary::new();
        let v = d.intern_vertex(&Term::iri("http://x/same"));
        let p = d.intern_property("http://x/same");
        assert_eq!(v.0, 0);
        assert_eq!(p.0, 0); // same raw value, different id space
    }

    #[test]
    fn iteration_matches_counts() {
        let mut d = Dictionary::new();
        d.intern_vertex(&Term::iri("a"));
        d.intern_vertex(&Term::blank("b"));
        d.intern_property("p");
        assert_eq!(d.vertices().count(), 2);
        assert_eq!(d.properties().count(), 1);
    }

    #[test]
    fn kinds_and_literal_flavours_never_share_an_id() {
        let terms = [
            Term::iri("x"),
            Term::blank("x"),
            Term::literal("x"),
            Term::typed_literal("x", "en"),
            Term::lang_literal("x", "en"),
            Term::Literal {
                lexical: "x".into(),
                datatype: Some("en".into()),
                language: Some("en".into()),
            },
            Term::literal("x\u{1}en"),
            Term::literal("x\u{2}en"),
            Term::literal(""),
        ];
        let mut d = Dictionary::new();
        let ids: Vec<VertexId> = terms.iter().map(|t| d.intern_vertex(t)).collect();
        assert_eq!(d.vertex_count(), terms.len());
        for (t, id) in terms.iter().zip(ids) {
            assert_eq!(d.vertex_term(id).to_term(), *t);
        }
    }

    #[test]
    fn long_parts_round_trip() {
        let mut d = Dictionary::new();
        let long = "é".repeat(5_000);
        let t = Term::typed_literal(long.clone(), format!("urn:{long}"));
        let id = d.intern_vertex(&t);
        assert_eq!(d.vertex_term(id).to_term(), t);
        assert_eq!(d.vertex_id(&t), Some(id));
    }

    #[test]
    fn layers_resolve_base_ids_then_delta_ids() {
        let mut flat = Dictionary::new();
        flat.intern_vertex(&Term::iri("a"));
        flat.intern_property("p");
        let shared = Arc::new(flat);
        let mut live = Dictionary::layered(Arc::clone(&shared));
        assert_eq!(live.intern_vertex(&Term::iri("a")), VertexId(0));
        assert_eq!(live.intern_vertex(&Term::iri("b")), VertexId(1));
        assert_eq!(live.intern_property("q"), PropertyId(1));
        assert_eq!(live.vertex_term(VertexId(1)), TermRef::Iri("b"));
        assert_eq!(live.property_iri(PropertyId(0)), "p");
        assert_eq!((live.vertex_count(), live.property_count()), (2, 2));
        assert_eq!(shared.vertex_count(), 1, "the base never grows");
        assert!(Arc::ptr_eq(live.base().unwrap(), &shared));

        // Layering over a layered dictionary shares the same base.
        let again = Dictionary::layered(Arc::new(live));
        assert!(Arc::ptr_eq(again.base().unwrap(), &shared));
        assert!(again.base().unwrap().base().is_none());
        assert_eq!(again.vertex_id(&Term::iri("b")), Some(VertexId(1)));
    }

    #[test]
    fn a_hundred_thousand_iris_cost_at_most_40_bytes_each() {
        let n = 100_000;
        let mut d = Dictionary::new();
        for i in 0..n {
            d.intern_vertex(&Term::iri(format!("urn:v:{i}")));
        }
        let per_vertex = d.heap_bytes() as f64 / n as f64;
        assert!(per_vertex <= 40.0, "{per_vertex:.1} B per vertex");
    }
}
