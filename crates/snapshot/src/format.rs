//! The sectioned snapshot byte format: encode and verify-on-decode.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic "MPCSNAP1" (8) | version u32 | section_count u32
//! section_count × { kind u32 | offset u64 | len u64 | crc32 u32 }
//! header_crc u32                      — CRC32 over everything above
//! section payloads, contiguous, in table order
//! ```
//!
//! Exactly six sections, in this order: META, DICT, TRIPLES, ASSIGN,
//! INDEX, STATS (see the `KIND_*` constants). The section table must tile
//! the file exactly — every byte of a snapshot is covered either by the
//! header CRC or by one section CRC, so any single-bit flip or truncation
//! is detected before any of the payload is trusted.
//!
//! [`decode`] goes further than checksums ("never silently wrong",
//! docs/PERSISTENCE.md): every structural invariant that the freshly built
//! equivalents would satisfy is re-verified — id ranges, strict sort
//! orders (which pin the stored index runs to the unique fresh ones),
//! fragment coverage counts, and a statistics cross-check — so a decoded
//! snapshot answers queries bit-identically to a from-scratch build.

use crate::SnapshotError;
use mpc_core::Partitioning;
use mpc_rdf::{
    Dictionary, FxHashSet, PartitionId, PropertyId, RdfGraph, Term, TermRef, Triple, VertexId,
};
use mpc_rdf::narrow;
use mpc_sparql::{LocalStore, StoreStats};

/// File magic: identifies an MPC snapshot, version-agnostic.
pub const MAGIC: [u8; 8] = *b"MPCSNAP1";
/// Current (only) format version.
pub const VERSION: u32 = 1;

/// Graph shape and partition parameters; parsed first, bounds everything.
const KIND_META: u32 = 1;
/// Interned dictionary (term per vertex, IRI per property); may be empty.
const KIND_DICT: u32 = 2;
/// The full triple multiset in insertion order.
const KIND_TRIPLES: u32 = 3;
/// Per-vertex partition assignment.
const KIND_ASSIGN: u32 = 4;
/// Per-site sorted triple runs plus POS/OSP permutations.
const KIND_INDEX: u32 = 5;
/// Merged per-property cardinality statistics (cross-checked on load).
const KIND_STATS: u32 = 6;

const SECTION_KINDS: [(u32, &str); 6] = [
    (KIND_META, "meta"),
    (KIND_DICT, "dict"),
    (KIND_TRIPLES, "triples"),
    (KIND_ASSIGN, "assign"),
    (KIND_INDEX, "index"),
    (KIND_STATS, "stats"),
];

const HEADER_FIXED: usize = 16; // magic + version + section_count
const ENTRY_LEN: usize = 24; // kind u32 + offset u64 + len u64 + crc u32

/// One site's decoded payload, ready to become an `mpc_cluster::Site`.
///
/// The snapshot crate sits below the cluster layer, so it hands back the
/// raw parts instead of depending on it.
#[derive(Clone, Debug)]
pub struct SitePart {
    /// The partition this site hosts.
    pub part: PartitionId,
    /// Indexed store over the fragment, rebuilt from the stored runs.
    pub store: LocalStore,
    /// Replicated foreign endpoints, recomputed from the graph.
    pub extended: FxHashSet<VertexId>,
}

/// Everything a snapshot holds, decoded and fully verified.
#[derive(Clone, Debug)]
pub struct SnapshotContents {
    /// The dictionary-encoded graph (dictionary empty for raw graphs).
    pub graph: RdfGraph,
    /// The partition assignment with re-derived crossing sets.
    pub partitioning: Partitioning,
    /// One entry per partition, in partition order.
    pub sites: Vec<SitePart>,
    /// Replication radius the index runs were built with (always 1).
    pub radius: usize,
}

// ---------------------------------------------------------------------------
// CRC32 (IEEE 802.3, reflected), slice-by-8 table-driven — no external
// dependency. Table 0 is the classic byte-at-a-time table; table t maps
// a byte that is t positions deeper into an 8-byte block, so eight
// lookups advance the CRC a full block at a time (~4-5x the byte-wise
// throughput — checksums cover every byte of a snapshot, so this is the
// difference between CRC being free and CRC dominating cold-start load).

const fn crc_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i: u32 = 0;
    while i < 256 {
        let mut crc = i;
        let mut bit = 0;
        while bit < 8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
            bit += 1;
        }
        tables[0][i as usize] = crc;
        i += 1;
    }
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        t += 1;
    }
    tables
}

static CRC_TABLES: [[u32; 256]; 8] = crc_tables();

/// CRC32 (IEEE) of a byte slice.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let lo = u32::from_le_bytes([c[0], c[1], c[2], c[3]]) ^ crc;
        let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        crc = CRC_TABLES[7][(lo & 0xFF) as usize]
            ^ CRC_TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ CRC_TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ CRC_TABLES[4][(lo >> 24) as usize]
            ^ CRC_TABLES[3][(hi & 0xFF) as usize]
            ^ CRC_TABLES[2][((hi >> 8) & 0xFF) as usize]
            ^ CRC_TABLES[1][((hi >> 16) & 0xFF) as usize]
            ^ CRC_TABLES[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        let idx = (crc ^ u32::from(b)) & 0xFF;
        crc = (crc >> 8) ^ CRC_TABLES[0][idx as usize];
    }
    !crc
}

// ---------------------------------------------------------------------------
// Encoding

struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    fn new() -> Self {
        Writer { buf: Vec::new() }
    }
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn str(&mut self, s: &str) {
        self.u32(narrow::u32_from(s.len()));
        self.buf.extend_from_slice(s.as_bytes());
    }
    fn triple(&mut self, t: Triple) {
        self.u32(t.s.0);
        self.u32(t.p.0);
        self.u32(t.o.0);
    }
}

/// Serializes a graph plus partitioning into one snapshot byte image.
///
/// The per-site index runs are built here (the expensive sorts the loader
/// then skips); replication radius is fixed at 1, matching
/// [`Partitioning::fragments`].
pub fn encode(g: &RdfGraph, p: &Partitioning) -> Vec<u8> {
    let frags = p.fragments(g);
    let stores: Vec<(PartitionId, LocalStore)> = frags
        .into_iter()
        .map(|f| (f.part, LocalStore::new(f.triples)))
        .collect();
    let mut merged = StoreStats::default();
    for (_, s) in &stores {
        merged.merge(s.stats());
    }

    let sections: [(u32, Vec<u8>); 6] = [
        (KIND_META, enc_meta(g, p)),
        (KIND_DICT, enc_dict(g.dictionary())),
        (KIND_TRIPLES, enc_triples(g)),
        (KIND_ASSIGN, enc_assign(p)),
        (KIND_INDEX, enc_index(&stores)),
        (KIND_STATS, enc_stats(&merged)),
    ];

    let header_len = HEADER_FIXED + ENTRY_LEN * sections.len() + 4;
    let mut w = Writer::new();
    w.buf.extend_from_slice(&MAGIC);
    w.u32(VERSION);
    w.u32(narrow::u32_from(sections.len()));
    let mut offset = header_len as u64;
    for (kind, payload) in &sections {
        w.u32(*kind);
        w.u64(offset);
        w.u64(payload.len() as u64);
        w.u32(crc32(payload));
        offset += payload.len() as u64;
    }
    let header_crc = crc32(&w.buf);
    w.u32(header_crc);
    debug_assert_eq!(w.buf.len(), header_len);
    for (_, payload) in &sections {
        w.buf.extend_from_slice(payload);
    }
    w.buf
}

fn enc_meta(g: &RdfGraph, p: &Partitioning) -> Vec<u8> {
    let mut w = Writer::new();
    w.u64(g.vertex_count() as u64);
    w.u64(g.property_count() as u64);
    w.u64(g.triple_count() as u64);
    w.u32(narrow::u32_from(p.k()));
    w.u32(1); // replication radius
    w.buf
}

fn enc_dict(d: &Dictionary) -> Vec<u8> {
    let mut w = Writer::new();
    w.u64(d.property_count() as u64);
    for (_, iri) in d.properties() {
        w.str(iri);
    }
    w.u64(d.vertex_count() as u64);
    for (_, term) in d.vertices() {
        match term {
            TermRef::Iri(i) => {
                w.u8(0);
                w.str(i);
            }
            TermRef::Blank(b) => {
                w.u8(1);
                w.str(b);
            }
            TermRef::Literal {
                lexical,
                datatype,
                language,
            } => match (datatype, language) {
                (Some(dt), _) => {
                    w.u8(3);
                    w.str(lexical);
                    w.str(dt);
                }
                (None, Some(lang)) => {
                    w.u8(4);
                    w.str(lexical);
                    w.str(lang);
                }
                (None, None) => {
                    w.u8(2);
                    w.str(lexical);
                }
            },
        }
    }
    w.buf
}

fn enc_triples(g: &RdfGraph) -> Vec<u8> {
    let mut w = Writer::new();
    for &t in g.triples() {
        w.triple(t);
    }
    w.buf
}

fn enc_assign(p: &Partitioning) -> Vec<u8> {
    let mut w = Writer::new();
    for &part in p.assignment() {
        w.u16(part.0);
    }
    w.buf
}

fn enc_index(stores: &[(PartitionId, LocalStore)]) -> Vec<u8> {
    let mut w = Writer::new();
    w.u32(narrow::u32_from(stores.len()));
    for (_, store) in stores {
        w.u64(store.len() as u64);
        for &t in store.triples() {
            w.triple(t);
        }
        // The store keeps materialized runs; the format keeps the
        // permutations it always had (a third the bytes of a run).
        for i in store.pos_permutation() {
            w.u32(i);
        }
        for i in store.osp_permutation() {
            w.u32(i);
        }
    }
    w.buf
}

fn enc_stats(stats: &StoreStats) -> Vec<u8> {
    let mut w = Writer::new();
    w.u64(stats.triples);
    let mut props: Vec<(u32, mpc_sparql::PropertyCard)> =
        stats.properties.iter().map(|(&p, &c)| (p, c)).collect();
    props.sort_unstable_by_key(|&(p, _)| p);
    w.u32(narrow::u32_from(props.len()));
    for (p, card) in props {
        w.u32(p);
        w.u64(card.triples);
        w.u64(card.distinct_subjects);
        w.u64(card.distinct_objects);
    }
    w.buf
}

// ---------------------------------------------------------------------------
// Decoding

/// Bounds-checked little-endian reader over one section payload. Every
/// overrun becomes a typed [`SnapshotError::Malformed`] — never a panic.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
    section: &'static str,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8], section: &'static str) -> Self {
        Reader {
            buf,
            pos: 0,
            section,
        }
    }

    fn err(&self, detail: impl Into<String>) -> SnapshotError {
        SnapshotError::Malformed {
            section: self.section,
            detail: detail.into(),
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| self.err("payload ends mid-field"))?;
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, SnapshotError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn u32(&mut self) -> Result<u32, SnapshotError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, SnapshotError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// A length prefix that must fit in the remaining payload, each item
    /// at least `item_size` bytes — so corrupt counts fail fast instead of
    /// attempting absurd allocations.
    fn count(&mut self, item_size: usize) -> Result<usize, SnapshotError> {
        let n = self.u64()?;
        let n = usize::try_from(n).map_err(|_| self.err("count overflows usize"))?;
        let need = n
            .checked_mul(item_size)
            .ok_or_else(|| self.err("count overflows payload"))?;
        if need > self.buf.len() - self.pos {
            return Err(self.err(format!("count {n} exceeds remaining payload")));
        }
        Ok(n)
    }

    fn str(&mut self) -> Result<String, SnapshotError> {
        let n = self.u32()? as usize;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| self.err("string is not UTF-8"))
    }

    fn triple(&mut self) -> Result<Triple, SnapshotError> {
        let s = self.u32()?;
        let p = self.u32()?;
        let o = self.u32()?;
        Ok(Triple::new(VertexId(s), PropertyId(p), VertexId(o)))
    }

    fn finish(&self) -> Result<(), SnapshotError> {
        if self.pos != self.buf.len() {
            return Err(self.err(format!(
                "{} trailing bytes after payload",
                self.buf.len() - self.pos
            )));
        }
        Ok(())
    }
}

struct Meta {
    vc: usize,
    pc: usize,
    tc: usize,
    k: usize,
    radius: usize,
}

/// Parses and fully verifies a snapshot image.
///
/// Returns a typed [`SnapshotError`] on *any* deviation — bad magic,
/// version, checksum, id range, sort order, coverage count, or statistics
/// mismatch. On success the contents are guaranteed byte-identical in
/// query behavior to a fresh build from the same graph and assignment.
pub fn decode(data: &[u8]) -> Result<SnapshotContents, SnapshotError> {
    let sections = split_sections(data)?;

    let meta = dec_meta(sections[0])?;
    let dict = dec_dict(sections[1], &meta)?;
    let triples = dec_triples(sections[2], &meta)?;
    let graph = if dict.vertex_count() == meta.vc && dict.property_count() == meta.pc {
        RdfGraph::from_dictionary(dict, triples)
    } else {
        // dec_dict guarantees the only other shape is an empty dictionary
        // (a raw-id graph).
        RdfGraph::from_raw(meta.vc, meta.pc, triples)
    };
    let partitioning = dec_assign(sections[3], &meta, &graph)?;
    let sites = dec_index(sections[4], &meta, &graph, &partitioning)?;
    dec_stats(sections[5], &sites)?;

    Ok(SnapshotContents {
        graph,
        partitioning,
        sites,
        radius: meta.radius,
    })
}

/// Validates the header and section table, returning the six payloads in
/// canonical order.
fn split_sections(data: &[u8]) -> Result<[&[u8]; 6], SnapshotError> {
    if data.len() < HEADER_FIXED {
        return Err(SnapshotError::TooShort { len: data.len() });
    }
    if data[..8] != MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    let word = |at: usize| u32::from_le_bytes([data[at], data[at + 1], data[at + 2], data[at + 3]]);
    let version = word(8);
    if version != VERSION {
        return Err(SnapshotError::UnsupportedVersion { found: version });
    }
    let count = word(12) as usize;
    if count != SECTION_KINDS.len() {
        return Err(SnapshotError::HeaderCorrupt(format!(
            "expected {} sections, header claims {count}",
            SECTION_KINDS.len()
        )));
    }
    let header_len = HEADER_FIXED + ENTRY_LEN * count + 4;
    if data.len() < header_len {
        return Err(SnapshotError::TooShort { len: data.len() });
    }
    let stored_crc = word(header_len - 4);
    if crc32(&data[..header_len - 4]) != stored_crc {
        return Err(SnapshotError::HeaderCorrupt("checksum mismatch".into()));
    }

    let mut payloads: [&[u8]; 6] = [&[]; 6];
    let mut expected_offset = header_len as u64;
    for (i, &(kind, name)) in SECTION_KINDS.iter().enumerate() {
        let at = HEADER_FIXED + i * ENTRY_LEN;
        let entry_kind = word(at);
        let offset = u64::from_le_bytes([
            data[at + 4],
            data[at + 5],
            data[at + 6],
            data[at + 7],
            data[at + 8],
            data[at + 9],
            data[at + 10],
            data[at + 11],
        ]);
        let len = u64::from_le_bytes([
            data[at + 12],
            data[at + 13],
            data[at + 14],
            data[at + 15],
            data[at + 16],
            data[at + 17],
            data[at + 18],
            data[at + 19],
        ]);
        let crc = word(at + 20);
        if entry_kind != kind {
            return Err(SnapshotError::HeaderCorrupt(format!(
                "section {i} has kind {entry_kind}, expected {kind} ({name})"
            )));
        }
        if offset != expected_offset {
            return Err(SnapshotError::HeaderCorrupt(format!(
                "section {name} at offset {offset}, expected {expected_offset}"
            )));
        }
        let end = offset
            .checked_add(len)
            .filter(|&e| e <= data.len() as u64)
            .ok_or(SnapshotError::TooShort { len: data.len() })?;
        expected_offset = end;
        // offset/end fit usize: both are <= data.len() which is a usize.
        #[allow(clippy::cast_possible_truncation)]
        let payload = &data[offset as usize..end as usize];
        if crc32(payload) != crc {
            return Err(SnapshotError::SectionCrc { section: name });
        }
        payloads[i] = payload;
    }
    if expected_offset != data.len() as u64 {
        return Err(SnapshotError::HeaderCorrupt(format!(
            "{} trailing bytes after the last section",
            data.len() as u64 - expected_offset
        )));
    }
    Ok(payloads)
}

fn dec_meta(payload: &[u8]) -> Result<Meta, SnapshotError> {
    let mut r = Reader::new(payload, "meta");
    let vc = r.u64()?;
    let pc = r.u64()?;
    let tc = r.u64()?;
    let k = r.u32()? as usize;
    let radius = r.u32()? as usize;
    r.finish()?;
    let narrow_count = |v: u64, what: &str| -> Result<usize, SnapshotError> {
        if v > u64::from(u32::MAX) {
            return Err(r.err(format!("{what} count {v} exceeds the u32 id space")));
        }
        usize::try_from(v).map_err(|_| r.err(format!("{what} count {v} overflows usize")))
    };
    let vc = narrow_count(vc, "vertex")?;
    let pc = narrow_count(pc, "property")?;
    let tc = narrow_count(tc, "triple")?;
    if k == 0 || k > usize::from(u16::MAX) + 1 {
        return Err(r.err(format!("partition count {k} outside 1..=65536")));
    }
    if radius != 1 {
        return Err(r.err(format!("unsupported replication radius {radius}")));
    }
    Ok(Meta {
        vc,
        pc,
        tc,
        k,
        radius,
    })
}

fn dec_dict(payload: &[u8], meta: &Meta) -> Result<Dictionary, SnapshotError> {
    let mut r = Reader::new(payload, "dict");
    let mut dict = Dictionary::new();
    let n_props = r.count(5)?;
    for i in 0..n_props {
        let iri = r.str()?;
        let id = dict.intern_property(&iri);
        if id.index() != i {
            return Err(r.err(format!("duplicate property IRI at entry {i}")));
        }
    }
    let n_verts = r.count(6)?;
    for i in 0..n_verts {
        let term = match r.u8()? {
            0 => Term::Iri(r.str()?),
            1 => Term::Blank(r.str()?),
            2 => Term::literal(r.str()?),
            3 => {
                let lexical = r.str()?;
                let dt = r.str()?;
                Term::typed_literal(lexical, dt)
            }
            4 => {
                let lexical = r.str()?;
                let lang = r.str()?;
                Term::lang_literal(lexical, lang)
            }
            tag => return Err(r.err(format!("unknown term tag {tag}"))),
        };
        let id = dict.intern_vertex(&term);
        if id.index() != i {
            return Err(r.err(format!("duplicate vertex term at entry {i}")));
        }
    }
    r.finish()?;
    let full = n_verts == meta.vc && n_props == meta.pc;
    let raw = n_verts == 0 && n_props == 0;
    if !full && !raw {
        return Err(r.err(format!(
            "dictionary covers {n_verts} vertices / {n_props} properties, \
             graph has {} / {}",
            meta.vc, meta.pc
        )));
    }
    Ok(dict)
}

fn dec_triples(payload: &[u8], meta: &Meta) -> Result<Vec<Triple>, SnapshotError> {
    let mut r = Reader::new(payload, "triples");
    if payload.len() != meta.tc.saturating_mul(12) {
        return Err(r.err(format!(
            "payload is {} bytes, meta promises {} triples",
            payload.len(),
            meta.tc
        )));
    }
    let mut triples = Vec::with_capacity(meta.tc);
    for _ in 0..meta.tc {
        let t = r.triple()?;
        check_triple_ids(&r, t, meta)?;
        triples.push(t);
    }
    r.finish()?;
    Ok(triples)
}

/// Id-range check shared by the graph and index sections; `RdfGraph`
/// construction would otherwise panic on an out-of-range id.
fn check_triple_ids(r: &Reader<'_>, t: Triple, meta: &Meta) -> Result<(), SnapshotError> {
    if t.s.index() >= meta.vc || t.o.index() >= meta.vc {
        return Err(r.err(format!("triple endpoint out of range in {t:?}")));
    }
    if t.p.index() >= meta.pc {
        return Err(r.err(format!("property out of range in {t:?}")));
    }
    Ok(())
}

fn dec_assign(
    payload: &[u8],
    meta: &Meta,
    graph: &RdfGraph,
) -> Result<Partitioning, SnapshotError> {
    let mut r = Reader::new(payload, "assign");
    if payload.len() != meta.vc.saturating_mul(2) {
        return Err(r.err(format!(
            "payload is {} bytes, meta promises {} vertices",
            payload.len(),
            meta.vc
        )));
    }
    let mut assignment = Vec::with_capacity(meta.vc);
    for v in 0..meta.vc {
        let part = r.u16()?;
        if usize::from(part) >= meta.k {
            return Err(r.err(format!(
                "vertex {v} assigned to partition {part}, k = {}",
                meta.k
            )));
        }
        assignment.push(PartitionId(part));
    }
    r.finish()?;
    // Safe now: the assignment covers every vertex and stays below k, so
    // `Partitioning::new` cannot hit its panicking asserts.
    Ok(Partitioning::new(graph, meta.k, assignment))
}

fn dec_index(
    payload: &[u8],
    meta: &Meta,
    graph: &RdfGraph,
    partitioning: &Partitioning,
) -> Result<Vec<SitePart>, SnapshotError> {
    let mut r = Reader::new(payload, "index");
    let site_count = r.u32()? as usize;
    if site_count != meta.k {
        return Err(r.err(format!(
            "index holds {site_count} sites, partitioning has k = {}",
            meta.k
        )));
    }
    let mut graph_triples: FxHashSet<Triple> =
        FxHashSet::with_capacity_and_hasher(graph.triples().len(), Default::default());
    graph_triples.extend(graph.triples().iter().copied());

    let mut sites = Vec::with_capacity(site_count);
    let mut stored_pairs = 0u64;
    for site in 0..site_count {
        let part = PartitionId(narrow::u16_from(site));
        let n = r.count(20)?; // 12 triple bytes + 4 + 4 permutation bytes
        let mut triples = Vec::with_capacity(n);
        for _ in 0..n {
            let t = r.triple()?;
            check_triple_ids(&r, t, meta)?;
            if let Some(prev) = triples.last() {
                if *prev >= t {
                    return Err(r.err(format!(
                        "site {site} run is not strictly (s,p,o)-sorted at {t:?}"
                    )));
                }
            }
            if !graph_triples.contains(&t) {
                return Err(r.err(format!(
                    "site {site} stores {t:?}, which is not a graph triple"
                )));
            }
            if partitioning.part_of(t.s) != part && partitioning.part_of(t.o) != part {
                return Err(r.err(format!("site {site} stores {t:?} with no endpoint in it")));
            }
            triples.push(t);
        }
        let mut pos = Vec::with_capacity(n);
        for _ in 0..n {
            pos.push(r.u32()?);
        }
        let mut osp = Vec::with_capacity(n);
        for _ in 0..n {
            osp.push(r.u32()?);
        }
        stored_pairs += n as u64;
        let store = LocalStore::from_sorted_parts(triples, pos, osp).map_err(|detail| {
            SnapshotError::Malformed {
                section: "index",
                detail: format!("site {site}: {detail}"),
            }
        })?;
        sites.push(SitePart {
            part,
            store,
            extended: FxHashSet::default(),
        });
    }
    r.finish()?;

    // Every stored (site, triple) pair is individually valid; counting
    // proves the stored set is *exactly* the fragment set: an internal
    // triple is valid on one site, a crossing triple on two.
    let crossing = graph_triples
        .iter()
        .filter(|t| partitioning.part_of(t.s) != partitioning.part_of(t.o))
        .count() as u64;
    let expected_pairs = graph_triples.len() as u64 + crossing;
    if stored_pairs != expected_pairs {
        return Err(SnapshotError::Malformed {
            section: "index",
            detail: format!(
                "sites store {stored_pairs} triples, fragments require {expected_pairs}"
            ),
        });
    }

    // Extended vertices are derived data — recompute instead of trusting
    // the file (mirrors `Partitioning::fragments`).
    for t in graph.triples() {
        let ps = partitioning.part_of(t.s);
        let po = partitioning.part_of(t.o);
        if ps != po {
            sites[ps.index()].extended.insert(t.o);
            sites[po.index()].extended.insert(t.s);
        }
    }
    Ok(sites)
}

fn dec_stats(payload: &[u8], sites: &[SitePart]) -> Result<(), SnapshotError> {
    let mut r = Reader::new(payload, "stats");
    let triples = r.u64()?;
    let n_props = r.u32()? as usize;
    let mut stored = StoreStats {
        triples,
        ..StoreStats::default()
    };
    let mut prev: Option<u32> = None;
    for _ in 0..n_props {
        let p = r.u32()?;
        if prev.is_some_and(|q| q >= p) {
            return Err(r.err("property entries are not strictly sorted"));
        }
        prev = Some(p);
        let card = mpc_sparql::PropertyCard {
            triples: r.u64()?,
            distinct_subjects: r.u64()?,
            distinct_objects: r.u64()?,
        };
        stored.properties.insert(p, card);
    }
    r.finish()?;

    let mut recomputed = StoreStats::default();
    for site in sites {
        recomputed.merge(site.store.stats());
    }
    if stored != recomputed {
        return Err(r.err("statistics do not match the indexed data"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpc_rdf::GraphBuilder;

    fn t(s: u32, p: u32, o: u32) -> Triple {
        Triple::new(VertexId(s), PropertyId(p), VertexId(o))
    }

    fn raw_graph() -> (RdfGraph, Partitioning) {
        let g = RdfGraph::from_raw(
            6,
            3,
            vec![
                t(0, 0, 1),
                t(1, 1, 2),
                t(2, 0, 3),
                t(3, 2, 4),
                t(4, 0, 5),
                t(0, 0, 1), // duplicate on purpose
                t(5, 1, 0),
            ],
        );
        let assignment = vec![
            PartitionId(0),
            PartitionId(0),
            PartitionId(1),
            PartitionId(1),
            PartitionId(0),
            PartitionId(1),
        ];
        let p = Partitioning::new(&g, 2, assignment);
        (g, p)
    }

    fn dict_graph() -> (RdfGraph, Partitioning) {
        let mut b = GraphBuilder::new();
        b.add(
            &Term::iri("urn:a"),
            "urn:p",
            &Term::typed_literal("5", "urn:int"),
        );
        b.add(&Term::blank("b0"), "urn:q", &Term::lang_literal("chat", "fr"));
        b.add(&Term::iri("urn:a"), "urn:q", &Term::literal("plain"));
        let g = b.build();
        let assignment = (0..g.vertex_count())
            .map(|v| PartitionId(narrow::u16_from(v % 2)))
            .collect();
        let p = Partitioning::new(&g, 2, assignment);
        (g, p)
    }

    fn check_roundtrip(g: &RdfGraph, p: &Partitioning) {
        let bytes = encode(g, p);
        let decoded = decode(&bytes).expect("intact snapshot must decode");
        assert_eq!(decoded.graph.triples(), g.triples());
        assert_eq!(decoded.graph.vertex_count(), g.vertex_count());
        assert_eq!(decoded.graph.property_count(), g.property_count());
        assert_eq!(decoded.partitioning.assignment(), p.assignment());
        assert_eq!(decoded.radius, 1);
        let frags = p.fragments(g);
        assert_eq!(decoded.sites.len(), frags.len());
        for (site, frag) in decoded.sites.iter().zip(frags) {
            assert_eq!(site.part, frag.part);
            assert_eq!(site.extended, frag.extended_vertices);
            let fresh = LocalStore::new(frag.triples);
            assert_eq!(site.store.triples(), fresh.triples());
            assert_eq!(site.store.pos_permutation(), fresh.pos_permutation());
            assert_eq!(site.store.osp_permutation(), fresh.osp_permutation());
            assert_eq!(site.store.stats(), fresh.stats());
        }
    }

    /// The image of each fixture, byte for byte, is what the commit before
    /// `LocalStore` materialized its runs wrote (length and CRC32 recorded
    /// there): the store's layout is not the snapshot's.
    #[test]
    fn encoded_images_are_pinned() {
        for (name, (g, p), len, crc) in [
            ("raw_graph", raw_graph(), 624, 0x0fe0_4134),
            ("dict_graph", dict_graph(), 523, 0xe724_50ee),
        ] {
            let bytes = encode(&g, &p);
            assert_eq!(bytes.len(), len, "{name}: image length moved");
            assert_eq!(crc32(&bytes), crc, "{name}: image bytes moved");
        }
    }

    #[test]
    fn raw_graph_roundtrips() {
        let (g, p) = raw_graph();
        check_roundtrip(&g, &p);
    }

    #[test]
    fn dictionary_graph_roundtrips() {
        let (g, p) = dict_graph();
        let bytes = encode(&g, &p);
        let decoded = decode(&bytes).expect("decode");
        for (id, term) in g.dictionary().vertices() {
            assert_eq!(decoded.graph.dictionary().vertex_term(id), term);
        }
        for (id, iri) in g.dictionary().properties() {
            assert_eq!(decoded.graph.dictionary().property_iri(id), iri);
        }
        check_roundtrip(&g, &p);
    }

    #[test]
    fn empty_graph_roundtrips() {
        let g = RdfGraph::from_raw(0, 0, vec![]);
        let p = Partitioning::new(&g, 1, vec![]);
        check_roundtrip(&g, &p);
    }

    #[test]
    fn encoding_is_deterministic() {
        let (g, p) = raw_graph();
        assert_eq!(encode(&g, &p), encode(&g, &p));
    }

    #[test]
    fn every_single_byte_flip_is_detected() {
        let (g, p) = raw_graph();
        let bytes = encode(&g, &p);
        for i in 0..bytes.len() {
            for bit in [0x01u8, 0x80u8] {
                let mut evil = bytes.clone();
                evil[i] ^= bit;
                assert!(
                    decode(&evil).is_err(),
                    "flip of bit {bit:#x} at byte {i} went undetected"
                );
            }
        }
    }

    #[test]
    fn every_truncation_is_detected() {
        let (g, p) = raw_graph();
        let bytes = encode(&g, &p);
        for keep in 0..bytes.len() {
            assert!(
                decode(&bytes[..keep]).is_err(),
                "truncation to {keep} bytes went undetected"
            );
        }
    }

    #[test]
    fn trailing_garbage_is_detected() {
        let (g, p) = raw_graph();
        let mut bytes = encode(&g, &p);
        bytes.push(0);
        assert!(matches!(
            decode(&bytes),
            Err(SnapshotError::HeaderCorrupt(_))
        ));
    }

    #[test]
    fn bad_magic_and_version() {
        let (g, p) = raw_graph();
        let bytes = encode(&g, &p);
        let mut wrong_magic = bytes.clone();
        wrong_magic[0] = b'X';
        assert!(matches!(decode(&wrong_magic), Err(SnapshotError::BadMagic)));
        let mut wrong_version = bytes;
        wrong_version[8] = 9;
        assert!(matches!(
            decode(&wrong_version),
            Err(SnapshotError::UnsupportedVersion { found: 9 })
        ));
        assert!(matches!(
            decode(b"short"),
            Err(SnapshotError::TooShort { len: 5 })
        ));
    }

    #[test]
    fn crc32_matches_known_vector() {
        // The classic IEEE test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }
}
