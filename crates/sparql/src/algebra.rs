//! The query algebra: binding tables, the relational operators
//! distributed execution needs (union, natural hash join), the recursive
//! [`Algebra`] tree the parser produces (BGPs composed with OPTIONAL /
//! UNION / FILTER / ORDER BY / DISTINCT / LIMIT), and its
//! dictionary-resolved executable form [`ResolvedPlan`].
//!
//! Two operator families coexist deliberately (docs/QUERY.md):
//!
//! * **set-semantic** operators ([`Bindings::sort_dedup`],
//!   [`Bindings::union_in_place`], [`Bindings::project`], [`hash_join`],
//!   [`join_all`]) — used inside a single BGP, where homomorphism
//!   matching is naturally duplicate-free;
//! * **bag-semantic** operators ([`compat_join`], [`left_join`],
//!   [`bag_union`], [`bag_project`], [`dedup_preserving_order`],
//!   [`sort_rows`]) — used between algebra nodes, where SPARQL
//!   prescribes multiset semantics and rows may carry [`UNBOUND`]
//!   values introduced by OPTIONAL and UNION.

use crate::parser::{
    numeric_value, CompareOp, Filter, FilterOperand, PPattern, PTerm, QueryParseError,
};
use crate::query::{QLabel, QNode, Query, TriplePattern};
use mpc_rdf::{narrow, Dictionary, FxHashMap, PropertyId, Term, TermRef, VertexId};

/// The sentinel value marking an unbound variable in a binding row.
/// OPTIONAL and UNION produce rows that bind only a subset of their
/// output columns; the remaining columns hold this value. It can never
/// collide with a real id: dictionaries are dense from 0 and a graph
/// with `u32::MAX` vertices would not fit in memory long before.
pub const UNBOUND: u32 = u32::MAX;

/// A table of variable bindings: `vars` are global variable indices (the
/// columns), `rows` their values. Values are raw `u32` ids — vertex ids for
/// vertex variables, property ids for property variables.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Bindings {
    /// Column variables (global indices into the query's variable space).
    pub vars: Vec<u32>,
    /// Rows; every row has `vars.len()` values.
    pub rows: Vec<Vec<u32>>,
}

impl Bindings {
    /// An empty table with the given columns.
    pub fn new(vars: Vec<u32>) -> Self {
        Bindings {
            vars,
            rows: Vec::new(),
        }
    }

    /// The join identity: zero columns, one empty row.
    pub fn unit() -> Self {
        Bindings {
            vars: Vec::new(),
            rows: vec![Vec::new()],
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Appends a row.
    ///
    /// # Panics
    /// Panics (in debug builds) if the row width mismatches the columns.
    pub fn push(&mut self, row: Vec<u32>) {
        debug_assert_eq!(row.len(), self.vars.len());
        self.rows.push(row);
    }

    /// Sorts rows and removes duplicates (set semantics).
    pub fn sort_dedup(&mut self) {
        self.rows.sort_unstable();
        self.rows.dedup();
    }

    /// Column position of a variable, if present.
    pub fn column_of(&self, var: u32) -> Option<usize> {
        self.vars.iter().position(|&v| v == var)
    }

    /// Unions another table with the same variable set into this one
    /// (columns may be ordered differently), deduplicating.
    pub fn union_in_place(&mut self, other: &Bindings) {
        assert_eq!(
            sorted(&self.vars),
            sorted(&other.vars),
            "union requires identical variable sets"
        );
        if self.vars == other.vars {
            self.rows.extend(other.rows.iter().cloned());
        } else {
            // Remap other's columns into our order.
            let perm: Vec<usize> = self
                .vars
                .iter()
                // mpc-allow: unwrap-expect join key vars occur in both tables by construction
                .map(|v| other.column_of(*v).expect("same variable sets"))
                .collect();
            for row in &other.rows {
                self.rows.push(perm.iter().map(|&i| row[i]).collect());
            }
        }
        self.sort_dedup();
    }

    /// The set union of strictly sorted runs of rows — what each site
    /// returns for one (sub)query — as a strictly sorted table over
    /// `vars`. Rows are moved, never copied, and a row several runs hold
    /// (a match replicated across partitions) is kept once: the result
    /// equals concatenating the runs and calling
    /// [`sort_dedup`](Self::sort_dedup), without comparing rows that one
    /// run already ordered.
    pub fn union_sorted(vars: Vec<u32>, mut runs: Vec<Vec<Vec<u32>>>) -> Bindings {
        debug_assert!(runs.iter().all(|run| run.windows(2).all(|w| w[0] < w[1])));
        // Merge neighbours pairwise until one run is left: every row is
        // compared once per round, and there are log2(runs) rounds.
        while runs.len() > 1 {
            let mut merged = Vec::with_capacity(runs.len().div_ceil(2));
            let mut pending = runs.into_iter();
            while let Some(a) = pending.next() {
                merged.push(match pending.next() {
                    Some(b) => merge_sorted(a, b),
                    None => a,
                });
            }
            runs = merged;
        }
        Bindings {
            vars,
            rows: runs.pop().unwrap_or_default(),
        }
    }

    /// Projects onto a subset of variables, deduplicating.
    pub fn project(&self, vars: &[u32]) -> Bindings {
        let cols: Vec<usize> = vars
            .iter()
            // mpc-allow: unwrap-expect projection was validated against var_names at parse time
            .map(|v| self.column_of(*v).expect("projected variable must exist"))
            .collect();
        let mut out = Bindings::new(vars.to_vec());
        for row in &self.rows {
            out.rows.push(cols.iter().map(|&c| row[c]).collect());
        }
        out.sort_dedup();
        out
    }
}

/// Merges two strictly sorted runs into one, dropping rows of `b` that
/// `a` also holds.
fn merge_sorted(a: Vec<Vec<u32>>, b: Vec<Vec<u32>>) -> Vec<Vec<u32>> {
    use std::cmp::Ordering;
    // Disjoint ranges (the common case when sites own disjoint vertex
    // ranges, or one side is empty) need no row comparisons at all.
    match (a.last(), b.first()) {
        (None, _) => return b,
        (_, None) => return a,
        (Some(last), Some(first)) if last < first => {
            let mut out = a;
            out.extend(b);
            return out;
        }
        _ => {}
    }
    let mut out = Vec::with_capacity(a.len() + b.len());
    let mut a = a.into_iter().peekable();
    let mut b = b.into_iter().peekable();
    while let (Some(x), Some(y)) = (a.peek(), b.peek()) {
        match x.cmp(y) {
            Ordering::Less => out.extend(a.next()),
            Ordering::Greater => out.extend(b.next()),
            Ordering::Equal => {
                out.extend(a.next());
                b.next();
            }
        }
    }
    out.extend(a);
    out.extend(b);
    out
}

fn sorted(v: &[u32]) -> Vec<u32> {
    let mut s = v.to_vec();
    s.sort_unstable();
    s
}

/// Natural hash join on the shared variables. Output columns are `a`'s
/// variables followed by `b`'s non-shared variables. If no variables are
/// shared this degenerates to a cross product.
pub fn hash_join(a: &Bindings, b: &Bindings) -> Bindings {
    let mut out_vars = a.vars.clone();
    out_vars.extend(b.vars.iter().filter(|v| !a.vars.contains(v)));
    hash_join_as(a, b, out_vars)
}

/// [`hash_join`] with the output columns in the order `out_vars`, which
/// must list every variable of `a` and `b` exactly once.
fn hash_join_as(a: &Bindings, b: &Bindings, out_vars: Vec<u32>) -> Bindings {
    // Shared variables and their column positions in both tables.
    let shared: Vec<(usize, usize)> = a
        .vars
        .iter()
        .enumerate()
        .filter_map(|(ia, v)| b.column_of(*v).map(|ib| (ia, ib)))
        .collect();
    // Where each output column comes from: `a`'s column, else `b`'s.
    let source: Vec<(bool, usize)> = out_vars
        .iter()
        .map(|&v| match a.column_of(v) {
            Some(ia) => (true, ia),
            // mpc-allow: unwrap-expect callers pass the union of both tables' variables
            None => (false, b.column_of(v).expect("output variable of a or b")),
        })
        .collect();
    debug_assert_eq!(out_vars.len(), a.vars.len() + b.vars.len() - shared.len());
    let mut out = Bindings::new(out_vars);

    // Build on the smaller side for memory; probing is symmetric.
    let (build, probe, build_is_a) = if a.len() <= b.len() {
        (a, b, true)
    } else {
        (b, a, false)
    };
    let key_cols_build: Vec<usize> = shared
        .iter()
        .map(|&(ia, ib)| if build_is_a { ia } else { ib })
        .collect();
    let key_cols_probe: Vec<usize> = shared
        .iter()
        .map(|&(ia, ib)| if build_is_a { ib } else { ia })
        .collect();

    let mut table: FxHashMap<Vec<u32>, Vec<usize>> = FxHashMap::default();
    for (ri, row) in build.rows.iter().enumerate() {
        let key: Vec<u32> = key_cols_build.iter().map(|&c| row[c]).collect();
        table.entry(key).or_default().push(ri);
    }
    for probe_row in &probe.rows {
        let key: Vec<u32> = key_cols_probe.iter().map(|&c| probe_row[c]).collect();
        if let Some(matches) = table.get(&key) {
            for &ri in matches {
                let build_row = &build.rows[ri];
                let (a_row, b_row) = if build_is_a {
                    (build_row, probe_row)
                } else {
                    (probe_row, build_row)
                };
                out.rows.push(
                    source
                        .iter()
                        .map(|&(from_a, c)| if from_a { a_row[c] } else { b_row[c] })
                        .collect(),
                );
            }
        }
    }
    out.sort_dedup();
    out
}

/// Natural join of many tables, in an order that never builds a product of
/// unrelated tables when a connected order exists: it starts from the
/// smallest table, then repeatedly joins the smallest remaining table that
/// shares a variable with what is already joined, and falls back to the
/// smallest remaining table overall only when none does (ties go to the
/// earlier table). The result does not depend on that order: its columns
/// are the tables' variables in order of first appearance, its rows sorted
/// and deduplicated — the table a left-to-right fold of [`hash_join`]
/// yields. An empty input list yields the unit table.
pub fn join_all(tables: &[Bindings]) -> Bindings {
    join_all_observed(tables, |_| {})
}

/// [`join_all`], handing each intermediate join result to `on_join`.
fn join_all_observed(tables: &[Bindings], mut on_join: impl FnMut(&Bindings)) -> Bindings {
    let mut schema: Vec<u32> = Vec::new();
    for v in tables.iter().flat_map(|t| &t.vars) {
        if !schema.contains(v) {
            schema.push(*v);
        }
    }
    let mut remaining: Vec<usize> = (0..tables.len()).collect();
    // Start from the join identity; the first pick shares no variable with
    // it, so it is simply the smallest table.
    let mut acc = Bindings::unit();
    while let Some((slot, _)) = remaining.iter().enumerate().min_by_key(|&(_, &t)| {
        let shares = tables[t].vars.iter().any(|v| acc.vars.contains(v));
        (!shares, tables[t].len())
    }) {
        let next = &tables[remaining.remove(slot)];
        // The last join writes its rows straight into the output schema.
        acc = if remaining.is_empty() {
            hash_join_as(&acc, next, std::mem::take(&mut schema))
        } else {
            hash_join(&acc, next)
        };
        on_join(&acc);
        if acc.is_empty() && !remaining.is_empty() {
            // Short-circuit, but keep the full output schema: the remaining
            // tables' columns still belong to the result.
            return Bindings::new(schema);
        }
    }
    acc
}

// ---------------------------------------------------------------------------
// Bag-semantic operators (SPARQL multiset semantics, UNBOUND-aware).
// ---------------------------------------------------------------------------

/// True if two rows are compatible on the given shared column pairs:
/// for every pair, either side is [`UNBOUND`] or the values agree.
fn compatible(a_row: &[u32], b_row: &[u32], shared: &[(usize, usize)]) -> bool {
    shared
        .iter()
        .all(|&(ia, ib)| a_row[ia] == UNBOUND || b_row[ib] == UNBOUND || a_row[ia] == b_row[ib])
}

fn join_compat(a: &Bindings, b: &Bindings, keep_unmatched: bool) -> Bindings {
    let shared: Vec<(usize, usize)> = a
        .vars
        .iter()
        .enumerate()
        .filter_map(|(ia, v)| b.column_of(*v).map(|ib| (ia, ib)))
        .collect();
    let b_only: Vec<usize> = (0..b.vars.len())
        .filter(|&ib| !a.vars.contains(&b.vars[ib]))
        .collect();
    let mut out_vars = a.vars.clone();
    out_vars.extend(b_only.iter().map(|&ib| b.vars[ib]));
    let mut out = Bindings::new(out_vars);

    // Index the b rows that are fully bound on the shared columns; rows
    // with an UNBOUND shared value are compatible with many keys, so
    // their presence forces the order-preserving scan path below.
    let mut table: FxHashMap<Vec<u32>, Vec<usize>> = FxHashMap::default();
    let mut any_unbound_b = false;
    for (ri, row) in b.rows.iter().enumerate() {
        if shared.iter().all(|&(_, ib)| row[ib] != UNBOUND) {
            let key: Vec<u32> = shared.iter().map(|&(_, ib)| row[ib]).collect();
            table.entry(key).or_default().push(ri);
        } else {
            any_unbound_b = true;
        }
    }

    for a_row in &a.rows {
        let a_bound = shared.iter().all(|&(ia, _)| a_row[ia] != UNBOUND);
        let mut matched = false;
        let emit = |out: &mut Bindings, b_row: &[u32]| {
            let mut row: Vec<u32> = a_row.clone();
            // A shared column UNBOUND on the left takes the right value.
            for &(ia, ib) in &shared {
                if row[ia] == UNBOUND {
                    row[ia] = b_row[ib];
                }
            }
            row.extend(b_only.iter().map(|&ib| b_row[ib]));
            out.rows.push(row);
        };
        if a_bound && !any_unbound_b {
            let key: Vec<u32> = shared.iter().map(|&(ia, _)| a_row[ia]).collect();
            if let Some(rows) = table.get(&key) {
                for &ri in rows {
                    matched = true;
                    emit(&mut out, &b.rows[ri]);
                }
            }
        } else {
            // UNBOUND values in play: scan b in row order (deterministic,
            // and rare — only nested OPTIONAL/UNION produce such rows).
            for b_row in &b.rows {
                if compatible(a_row, b_row, &shared) {
                    matched = true;
                    emit(&mut out, b_row);
                }
            }
        }
        if keep_unmatched && !matched {
            let mut row: Vec<u32> = a_row.clone();
            row.extend(std::iter::repeat_n(UNBOUND, b_only.len()));
            out.rows.push(row);
        }
    }
    out
}

/// SPARQL-compatible bag join: rows pair when every shared variable is
/// either equal or [`UNBOUND`] on one side (unbound left columns take
/// the right value). Output columns are `a`'s variables followed by
/// `b`'s non-shared variables; output order is `a`-row order, then
/// `b`-row order within a match — deterministic, no deduplication.
pub fn compat_join(a: &Bindings, b: &Bindings) -> Bindings {
    join_compat(a, b, false)
}

/// OPTIONAL: [`compat_join`], but `a` rows without any compatible `b`
/// row survive with the `b`-only columns [`UNBOUND`].
pub fn left_join(a: &Bindings, b: &Bindings) -> Bindings {
    join_compat(a, b, true)
}

/// Bag union: output columns are `l`'s variables followed by `r`'s
/// variables not in `l`; `l` rows come first, then `r` rows, each padded
/// with [`UNBOUND`] in the columns its side does not bind. Duplicates
/// are preserved (SPARQL UNION is a multiset operator).
pub fn bag_union(l: &Bindings, r: &Bindings) -> Bindings {
    let mut vars = l.vars.clone();
    for &v in &r.vars {
        if !vars.contains(&v) {
            vars.push(v);
        }
    }
    let width = vars.len();
    let cols: Vec<Option<usize>> = vars.iter().map(|&v| r.column_of(v)).collect();
    let mut out = Bindings::new(vars);
    for row in &l.rows {
        let mut nr = row.clone();
        nr.resize(width, UNBOUND);
        out.rows.push(nr);
    }
    for row in &r.rows {
        out.rows
            .push(cols.iter().map(|c| c.map_or(UNBOUND, |i| row[i])).collect());
    }
    out
}

/// Bag projection: reorders/selects columns without deduplicating.
/// A requested variable the input does not bind projects to [`UNBOUND`]
/// (a UNION branch may not bind every projected variable). The table is
/// consumed: one whose columns already are `vars` comes back as it is,
/// any other has its rows rewritten in place.
pub fn bag_project(mut b: Bindings, vars: &[u32]) -> Bindings {
    if b.vars == vars {
        return b;
    }
    let cols: Vec<Option<usize>> = vars.iter().map(|&v| b.column_of(v)).collect();
    let mut projected: Vec<u32> = Vec::with_capacity(cols.len());
    for row in &mut b.rows {
        projected.clear();
        projected.extend(cols.iter().map(|c| c.map_or(UNBOUND, |i| row[i])));
        row.clear();
        row.extend_from_slice(&projected);
    }
    b.vars = vars.to_vec();
    b
}

/// DISTINCT: removes duplicate rows keeping the **first** occurrence,
/// preserving row order — so `ORDER BY` ordering survives a later
/// DISTINCT (unlike [`Bindings::sort_dedup`], which re-sorts).
pub fn dedup_preserving_order(b: &mut Bindings) {
    let mut seen: mpc_rdf::FxHashSet<Vec<u32>> = mpc_rdf::FxHashSet::default();
    b.rows.retain(|r| seen.insert(r.clone()));
}

/// Compares two bound values in one ORDER BY key column. [`UNBOUND`]
/// sorts first; two bound values compare numerically when both resolve
/// to numeric literals, term-wise otherwise, with the raw id as the
/// final tie-break. Ids outside the dictionary (engine-internal tests
/// run without one) compare as raw ids.
fn cmp_values(a: u32, b: u32, is_prop: bool, dict: &Dictionary) -> std::cmp::Ordering {
    use std::cmp::Ordering;
    if a == b {
        return Ordering::Equal;
    }
    match (a == UNBOUND, b == UNBOUND) {
        (true, false) => return Ordering::Less,
        (false, true) => return Ordering::Greater,
        _ => {}
    }
    if is_prop {
        if (a as usize) < dict.property_count() && (b as usize) < dict.property_count() {
            let ta = dict.property_iri(PropertyId(a));
            let tb = dict.property_iri(PropertyId(b));
            return ta.cmp(tb).then_with(|| a.cmp(&b));
        }
        return a.cmp(&b);
    }
    if (a as usize) < dict.vertex_count() && (b as usize) < dict.vertex_count() {
        let ta = dict.vertex_term(VertexId(a));
        let tb = dict.vertex_term(VertexId(b));
        return match (numeric_value(ta), numeric_value(tb)) {
            (Some(x), Some(y)) => x
                .total_cmp(&y)
                .then_with(|| ta.cmp(&tb))
                .then_with(|| a.cmp(&b)),
            _ => ta.cmp(&tb).then_with(|| a.cmp(&b)),
        };
    }
    a.cmp(&b)
}

/// ORDER BY: stably sorts rows by the given `(variable, descending)`
/// keys. Unbound values sort first (last under `DESC`); numeric
/// literals compare numerically, other terms by their term order. A key
/// variable the input does not bind is ignored. Ties preserve the input
/// order — the whole sort is a deterministic function of the input.
pub fn sort_rows(b: &mut Bindings, keys: &[(u32, bool)], prop_vars: &[bool], dict: &Dictionary) {
    let cols: Vec<(usize, bool, bool)> = keys
        .iter()
        .filter_map(|&(v, desc)| {
            b.column_of(v)
                .map(|c| (c, desc, prop_vars.get(v as usize).copied().unwrap_or(false)))
        })
        .collect();
    if cols.is_empty() {
        return;
    }
    b.rows.sort_by(|x, y| {
        for &(c, desc, is_prop) in &cols {
            let ord = cmp_values(x[c], y[c], is_prop, dict);
            let ord = if desc { ord.reverse() } else { ord };
            if ord != std::cmp::Ordering::Equal {
                return ord;
            }
        }
        std::cmp::Ordering::Equal
    });
}

// ---------------------------------------------------------------------------
// The unresolved algebra tree (what `parse` returns).
// ---------------------------------------------------------------------------

/// The recursive query algebra the parser produces. Variables are still
/// names and constants still [`Term`]s; [`Algebra::resolve`] maps the
/// tree into dictionary ids, yielding an executable [`ResolvedPlan`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Algebra {
    /// A basic graph pattern: a conjunction of triple patterns.
    Bgp(Vec<PPattern>),
    /// Natural (compatible-row) join of two operands.
    Join(Box<Algebra>, Box<Algebra>),
    /// OPTIONAL: keep every left row, extending with right columns
    /// where a compatible right row exists.
    LeftJoin(Box<Algebra>, Box<Algebra>),
    /// UNION: multiset concatenation over the merged column set.
    Union(Box<Algebra>, Box<Algebra>),
    /// FILTER: keep rows satisfying the comparison.
    Filter(Box<Algebra>, Filter),
    /// DISTINCT: drop duplicate rows (first occurrence wins).
    Distinct(Box<Algebra>),
    /// ORDER BY: sort rows by `(variable, descending)` keys.
    OrderBy(Box<Algebra>, Vec<(String, bool)>),
    /// LIMIT/OFFSET: skip `offset` rows, then keep at most `limit`.
    Slice(Box<Algebra>, usize, Option<usize>),
    /// Projection: `None` is `SELECT *` (every variable, in
    /// first-occurrence order).
    Project(Box<Algebra>, Option<Vec<String>>),
}

/// One side of a resolved FILTER comparison.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum ROperand {
    /// A global variable index of the plan.
    Var(u32),
    /// A constant: its dictionary id if the term occurs in the graph
    /// (`None` means it provably matches no bound value) plus the term
    /// itself for term-level and numeric comparison.
    Const {
        /// Dictionary id of the term, when interned.
        id: Option<VertexId>,
        /// The constant term.
        term: Term,
    },
}

/// A dictionary-resolved `FILTER(lhs op rhs)` constraint over global
/// plan variables.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct ResolvedFilter {
    /// Left operand.
    pub lhs: ROperand,
    /// Comparison operator.
    pub op: CompareOp,
    /// Right operand.
    pub rhs: ROperand,
}

impl ResolvedFilter {
    /// True when the filter is decidable on raw ids alone: `=`/`!=`
    /// where each operand is a vertex-position variable or a constant
    /// the dictionary knows. Such filters can run at a site without
    /// shipping the dictionary (the pushdown class, docs/QUERY.md).
    pub fn is_id_only(&self, prop_vars: &[bool]) -> bool {
        if !matches!(self.op, CompareOp::Eq | CompareOp::Ne) {
            return false;
        }
        let ok = |o: &ROperand| match o {
            ROperand::Var(v) => !prop_vars.get(*v as usize).copied().unwrap_or(false),
            ROperand::Const { id, .. } => id.is_some(),
        };
        ok(&self.lhs) && ok(&self.rhs)
    }

    /// Decides an [id-only](Self::is_id_only) filter for one row.
    /// Unbound or missing variables fail the filter (SPARQL
    /// error-as-false).
    pub fn accepts_ids(&self, row: &[u32], vars: &[u32]) -> bool {
        let value = |o: &ROperand| -> Option<u32> {
            match o {
                ROperand::Var(v) => {
                    let col = vars.iter().position(|x| x == v)?;
                    (row[col] != UNBOUND).then_some(row[col])
                }
                ROperand::Const { id, .. } => id.map(|i| i.0),
            }
        };
        let (Some(a), Some(b)) = (value(&self.lhs), value(&self.rhs)) else {
            return false;
        };
        match self.op {
            CompareOp::Eq => a == b,
            CompareOp::Ne => a != b,
            _ => false,
        }
    }

    /// Decides the filter for one row of a table with columns `vars`.
    /// `=`/`!=` compare terms for identity (on raw ids when both sides
    /// live in the same id space); the ordering operators compare
    /// numeric literal values. Unbound variables and type errors fail
    /// the filter, mirroring SPARQL's error-as-false semantics.
    pub fn accepts<'a>(
        &'a self,
        row: &[u32],
        vars: &[u32],
        prop_vars: &[bool],
        dict: &'a Dictionary,
    ) -> bool {
        #[derive(Clone)]
        enum Val<'a> {
            Vertex(u32),
            Prop(u32),
            Absent(&'a Term),
        }
        fn value<'a>(
            o: &'a ROperand,
            row: &[u32],
            vars: &[u32],
            prop_vars: &[bool],
        ) -> Option<Val<'a>> {
            match o {
                ROperand::Var(v) => {
                    let col = vars.iter().position(|x| x == v)?;
                    if row[col] == UNBOUND {
                        return None;
                    }
                    if prop_vars.get(*v as usize).copied().unwrap_or(false) {
                        Some(Val::Prop(row[col]))
                    } else {
                        Some(Val::Vertex(row[col]))
                    }
                }
                ROperand::Const { id: Some(i), .. } => Some(Val::Vertex(i.0)),
                ROperand::Const { id: None, term } => Some(Val::Absent(term)),
            }
        }
        let (Some(a), Some(b)) = (
            value(&self.lhs, row, vars, prop_vars),
            value(&self.rhs, row, vars, prop_vars),
        ) else {
            return false;
        };
        let term_of = |v: &Val<'a>| -> Option<TermRef<'a>> {
            match *v {
                Val::Vertex(i) => {
                    ((i as usize) < dict.vertex_count()).then(|| dict.vertex_term(VertexId(i)))
                }
                Val::Prop(i) => ((i as usize) < dict.property_count())
                    .then(|| TermRef::Iri(dict.property_iri(PropertyId(i)))),
                Val::Absent(t) => Some(t.view()),
            }
        };
        match self.op {
            CompareOp::Eq | CompareOp::Ne => {
                let eq = match (&a, &b) {
                    // Same id space: identity on ids, no dictionary needed.
                    (Val::Vertex(x), Val::Vertex(y)) | (Val::Prop(x), Val::Prop(y)) => x == y,
                    // A constant absent from the dictionary can equal no
                    // bound value, only another identical absent constant.
                    (Val::Absent(x), Val::Absent(y)) => x == y,
                    (Val::Absent(_), _) | (_, Val::Absent(_)) => false,
                    // Mixed vertex/property positions: compare terms.
                    _ => match (term_of(&a), term_of(&b)) {
                        (Some(x), Some(y)) => x == y,
                        _ => return false,
                    },
                };
                if self.op == CompareOp::Eq {
                    eq
                } else {
                    !eq
                }
            }
            ordering => {
                let (Some(x), Some(y)) = (
                    term_of(&a).and_then(numeric_value),
                    term_of(&b).and_then(numeric_value),
                ) else {
                    return false;
                };
                match ordering {
                    CompareOp::Lt => x < y,
                    CompareOp::Le => x <= y,
                    CompareOp::Gt => x > y,
                    CompareOp::Ge => x >= y,
                    CompareOp::Eq | CompareOp::Ne => unreachable!("handled above"),
                }
            }
        }
    }

    /// Rewrites the filter's variables through `var_map` (global →
    /// position), for shipping to a site that sees the leaf's local
    /// variable space. `None` if a variable is not in the map.
    pub fn localize(&self, var_map: &[u32]) -> Option<ResolvedFilter> {
        let side = |o: &ROperand| -> Option<ROperand> {
            match o {
                ROperand::Var(g) => var_map
                    .iter()
                    .position(|&m| m == *g)
                    .map(|l| ROperand::Var(narrow::u32_from(l))),
                c => Some(c.clone()),
            }
        };
        Some(ResolvedFilter {
            lhs: side(&self.lhs)?,
            op: self.op,
            rhs: side(&self.rhs)?,
        })
    }
}

/// One node of an executable, dictionary-resolved plan. Variables are
/// global u32 indices into the owning [`ResolvedPlan`]'s `var_names`.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum PlanNode {
    /// A BGP leaf: a self-contained [`Query`] with dense local
    /// variables, plus the map from local to global variable ids.
    Bgp {
        /// The leaf query (local variable space).
        query: Query,
        /// `var_map[local] = global` for every leaf variable.
        var_map: Vec<u32>,
    },
    /// A leaf that provably matches nothing (a constant was absent from
    /// the dictionary). Keeps its would-be output columns so joins and
    /// unions above it stay well-typed.
    Empty {
        /// The global variables this leaf would have bound.
        vars: Vec<u32>,
    },
    /// Compatible-row bag join.
    Join(Box<PlanNode>, Box<PlanNode>),
    /// OPTIONAL.
    LeftJoin(Box<PlanNode>, Box<PlanNode>),
    /// Multiset union.
    Union(Box<PlanNode>, Box<PlanNode>),
    /// FILTER.
    Filter(Box<PlanNode>, ResolvedFilter),
    /// DISTINCT (first-occurrence, order-preserving).
    Distinct(Box<PlanNode>),
    /// ORDER BY `(variable, descending)` keys.
    OrderBy(Box<PlanNode>, Vec<(u32, bool)>),
    /// OFFSET / LIMIT.
    Slice(Box<PlanNode>, usize, Option<usize>),
    /// Column projection (defines the node's exact output columns).
    Project(Box<PlanNode>, Vec<u32>),
}

impl PlanNode {
    /// Pre-order walk over the node and all descendants.
    pub fn for_each<'a>(&'a self, f: &mut impl FnMut(&'a PlanNode)) {
        f(self);
        match self {
            PlanNode::Join(l, r) | PlanNode::LeftJoin(l, r) | PlanNode::Union(l, r) => {
                l.for_each(f);
                r.for_each(f);
            }
            PlanNode::Filter(c, _)
            | PlanNode::Distinct(c)
            | PlanNode::OrderBy(c, _)
            | PlanNode::Slice(c, _, _)
            | PlanNode::Project(c, _) => c.for_each(f),
            PlanNode::Bgp { .. } | PlanNode::Empty { .. } => {}
        }
    }

    /// The operator name, for observability counters
    /// (`query.algebra.<op>` in docs/OBSERVABILITY.md).
    pub fn op_name(&self) -> &'static str {
        match self {
            PlanNode::Bgp { .. } => "bgp",
            PlanNode::Empty { .. } => "empty",
            PlanNode::Join(..) => "join",
            PlanNode::LeftJoin(..) => "left_join",
            PlanNode::Union(..) => "union",
            PlanNode::Filter(..) => "filter",
            PlanNode::Distinct(..) => "distinct",
            PlanNode::OrderBy(..) => "order_by",
            PlanNode::Slice(..) => "slice",
            PlanNode::Project(..) => "project",
        }
    }

    /// The node's output columns, as global variable ids in column
    /// order. Matches what plan evaluation produces at this node.
    pub fn out_vars(&self) -> Vec<u32> {
        match self {
            PlanNode::Bgp { var_map, .. } => var_map.clone(),
            PlanNode::Empty { vars } => vars.clone(),
            PlanNode::Join(l, r) | PlanNode::LeftJoin(l, r) | PlanNode::Union(l, r) => {
                let mut v = l.out_vars();
                for x in r.out_vars() {
                    if !v.contains(&x) {
                        v.push(x);
                    }
                }
                v
            }
            PlanNode::Filter(c, _)
            | PlanNode::Distinct(c)
            | PlanNode::OrderBy(c, _)
            | PlanNode::Slice(c, _, _) => c.out_vars(),
            PlanNode::Project(_, vars) => vars.clone(),
        }
    }
}

/// A dictionary-resolved, executable query plan.
///
/// Invariant (established by [`Algebra::resolve`]): the root spine —
/// descending through `Slice` and `Distinct` only — ends in a
/// [`PlanNode::Project`], so the plan's output columns are an explicit
/// variable list. Canonicalization preserves that list pointwise, which
/// is what lets the serve cache restore rows verbatim
/// (docs/SERVING.md).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct ResolvedPlan {
    /// The plan tree.
    pub root: PlanNode,
    /// Global variable names, indexed by variable id.
    pub var_names: Vec<String>,
    /// `prop_vars[v]` is true when variable `v` occurs in predicate
    /// position (its bound values are property ids, not vertex ids).
    pub prop_vars: Vec<bool>,
}

impl ResolvedPlan {
    /// A bare BGP as a plan: a [`PlanNode::Project`] of every variable
    /// over one leaf whose local ids are the global ids — the plan
    /// [`Algebra::resolve`] produces for `SELECT * { … }`. This is how a
    /// caller holding a [`Query`] enters the one plan pipeline.
    ///
    /// ```
    /// use mpc_rdf::PropertyId;
    /// use mpc_sparql::{PlanNode, QLabel, QNode, Query, ResolvedPlan, TriplePattern};
    ///
    /// let p = TriplePattern::new(QNode::Var(0), QLabel::Prop(PropertyId(0)), QNode::Var(1));
    /// let plan = ResolvedPlan::from_bgp(Query::new(vec![p], vec!["s".into(), "o".into()]));
    /// assert!(matches!(plan.root, PlanNode::Project(..)));
    /// assert_eq!(plan.out_vars(), [0, 1]);
    /// assert_eq!(plan.as_bgp().map(|q| q.patterns.len()), Some(1));
    /// ```
    pub fn from_bgp(query: Query) -> ResolvedPlan {
        let all: Vec<u32> = (0..narrow::u32_from(query.var_count())).collect();
        let mut prop_vars = vec![false; all.len()];
        for pat in &query.patterns {
            if let QLabel::Var(v) = pat.p {
                prop_vars[v as usize] = true;
            }
        }
        let var_names = query.var_names.clone();
        let leaf = PlanNode::Bgp {
            query,
            var_map: all.clone(),
        };
        ResolvedPlan {
            root: PlanNode::Project(Box::new(leaf), all),
            var_names,
            prop_vars,
        }
    }

    /// The plan's output columns (global variable ids, in order).
    pub fn out_vars(&self) -> Vec<u32> {
        self.root.out_vars()
    }

    /// If the plan is a single BGP (no join/optional/union structure
    /// and no provably-empty leaf), the leaf query — the shape the
    /// IEQ classifier and the explainer report on.
    pub fn as_bgp(&self) -> Option<&Query> {
        let mut leaf: Option<&Query> = None;
        let mut plural = false;
        self.root.for_each(&mut |n| match n {
            PlanNode::Bgp { query, .. } => {
                if leaf.is_some() {
                    plural = true;
                } else {
                    leaf = Some(query);
                }
            }
            PlanNode::Empty { .. }
            | PlanNode::Join(..)
            | PlanNode::LeftJoin(..)
            | PlanNode::Union(..) => plural = true,
            _ => {}
        });
        if plural {
            None
        } else {
            leaf
        }
    }
}

/// Resolver state shared by the passes of [`Algebra::resolve`].
struct Resolver<'d> {
    dict: &'d Dictionary,
    names: Vec<String>,
    index: FxHashMap<String, u32>,
    vertex_pos: Vec<bool>,
    prop_pos: Vec<bool>,
}

impl<'d> Resolver<'d> {
    fn touch(&mut self, name: &str, prop: bool) {
        let id = if let Some(&i) = self.index.get(name) {
            i
        } else {
            let i = narrow::u32_from(self.names.len());
            self.index.insert(name.to_owned(), i);
            self.names.push(name.to_owned());
            self.vertex_pos.push(false);
            self.prop_pos.push(false);
            i
        };
        if prop {
            self.prop_pos[id as usize] = true;
        } else {
            self.vertex_pos[id as usize] = true;
        }
    }

    /// Pass 1: intern every triple-pattern variable in first-occurrence
    /// order (subject, predicate, object) and record position kinds.
    fn collect(&mut self, node: &Algebra) -> Result<(), QueryParseError> {
        match node {
            Algebra::Bgp(pats) => {
                for pat in pats {
                    if let PTerm::Var(n) = &pat.s {
                        self.touch(n, false);
                    }
                    match &pat.p {
                        PTerm::Var(n) => self.touch(n, true),
                        PTerm::Term(t) if !t.is_iri() => {
                            return Err(QueryParseError(format!(
                                "predicate must be an IRI or variable, got {t}"
                            )))
                        }
                        PTerm::Term(_) => {}
                    }
                    if let PTerm::Var(n) = &pat.o {
                        self.touch(n, false);
                    }
                }
                Ok(())
            }
            Algebra::Join(l, r) | Algebra::LeftJoin(l, r) | Algebra::Union(l, r) => {
                self.collect(l)?;
                self.collect(r)
            }
            Algebra::Filter(c, _)
            | Algebra::Distinct(c)
            | Algebra::OrderBy(c, _)
            | Algebra::Slice(c, _, _)
            | Algebra::Project(c, _) => self.collect(c),
        }
    }

    fn lookup(&self, name: &str, what: &str) -> Result<u32, QueryParseError> {
        self.index.get(name).copied().ok_or_else(|| {
            QueryParseError(format!("{what} variable ?{name} does not occur in the query"))
        })
    }

    fn resolve_filter(&self, f: &Filter) -> Result<ResolvedFilter, QueryParseError> {
        let side = |o: &FilterOperand| -> Result<ROperand, QueryParseError> {
            match o {
                FilterOperand::Var(name) => Ok(ROperand::Var(self.lookup(name, "FILTER")?)),
                FilterOperand::Term(t) => Ok(ROperand::Const {
                    id: self.dict.vertex_id(t),
                    term: t.clone(),
                }),
            }
        };
        Ok(ResolvedFilter {
            lhs: side(&f.lhs)?,
            op: f.op,
            rhs: side(&f.rhs)?,
        })
    }

    fn resolve_bgp(&self, pats: &[PPattern]) -> PlanNode {
        let mut local: FxHashMap<u32, u32> = FxHashMap::default();
        let mut var_map: Vec<u32> = Vec::new();
        let mut names: Vec<String> = Vec::new();
        let mut absent = false;
        let mut patterns = Vec::with_capacity(pats.len());
        let mut intern_local =
            |g: u32, var_map: &mut Vec<u32>, names: &mut Vec<String>| -> u32 {
                if let Some(&l) = local.get(&g) {
                    return l;
                }
                let l = narrow::u32_from(var_map.len());
                local.insert(g, l);
                var_map.push(g);
                names.push(self.names[g as usize].clone());
                l
            };
        for pat in pats {
            let s = match &pat.s {
                PTerm::Var(n) => {
                    QNode::Var(intern_local(self.index[n.as_str()], &mut var_map, &mut names))
                }
                PTerm::Term(t) => match self.dict.vertex_id(t) {
                    Some(id) => QNode::Const(id),
                    None => {
                        absent = true;
                        QNode::Const(VertexId(0))
                    }
                },
            };
            let p = match &pat.p {
                PTerm::Var(n) => {
                    QLabel::Var(intern_local(self.index[n.as_str()], &mut var_map, &mut names))
                }
                PTerm::Term(t) => {
                    let id = match t {
                        Term::Iri(iri) => self.dict.property_id(iri),
                        _ => None, // rejected in `collect`
                    };
                    match id {
                        Some(id) => QLabel::Prop(id),
                        None => {
                            absent = true;
                            QLabel::Prop(PropertyId(0))
                        }
                    }
                }
            };
            let o = match &pat.o {
                PTerm::Var(n) => {
                    QNode::Var(intern_local(self.index[n.as_str()], &mut var_map, &mut names))
                }
                PTerm::Term(t) => match self.dict.vertex_id(t) {
                    Some(id) => QNode::Const(id),
                    None => {
                        absent = true;
                        QNode::Const(VertexId(0))
                    }
                },
            };
            patterns.push(TriplePattern::new(s, p, o));
        }
        if absent {
            // A constant the dictionary has never seen: this leaf alone
            // is provably empty (a UNION sibling still evaluates).
            PlanNode::Empty { vars: var_map }
        } else {
            PlanNode::Bgp {
                query: Query::new(patterns, names),
                var_map,
            }
        }
    }

    fn build(&self, node: &Algebra) -> Result<PlanNode, QueryParseError> {
        Ok(match node {
            Algebra::Bgp(pats) => self.resolve_bgp(pats),
            Algebra::Join(l, r) => {
                PlanNode::Join(Box::new(self.build(l)?), Box::new(self.build(r)?))
            }
            Algebra::LeftJoin(l, r) => {
                PlanNode::LeftJoin(Box::new(self.build(l)?), Box::new(self.build(r)?))
            }
            Algebra::Union(l, r) => {
                PlanNode::Union(Box::new(self.build(l)?), Box::new(self.build(r)?))
            }
            Algebra::Filter(c, f) => {
                PlanNode::Filter(Box::new(self.build(c)?), self.resolve_filter(f)?)
            }
            Algebra::Distinct(c) => PlanNode::Distinct(Box::new(self.build(c)?)),
            Algebra::OrderBy(c, keys) => {
                let child = self.build(c)?;
                let keys = keys
                    .iter()
                    .map(|(n, desc)| Ok((self.lookup(n, "ORDER BY")?, *desc)))
                    .collect::<Result<Vec<_>, QueryParseError>>()?;
                PlanNode::OrderBy(Box::new(child), keys)
            }
            Algebra::Slice(c, offset, limit) => {
                PlanNode::Slice(Box::new(self.build(c)?), *offset, *limit)
            }
            Algebra::Project(c, names) => {
                let child = self.build(c)?;
                let vars = match names {
                    Some(names) => names
                        .iter()
                        .map(|n| self.lookup(n, "projected"))
                        .collect::<Result<Vec<_>, QueryParseError>>()?,
                    None => (0..narrow::u32_from(self.names.len())).collect(),
                };
                PlanNode::Project(Box::new(child), vars)
            }
        })
    }
}

fn render_term(t: &Term, out: &mut String) {
    match t {
        Term::Iri(iri) => {
            out.push('<');
            out.push_str(iri);
            out.push('>');
        }
        Term::Blank(id) => {
            out.push_str("_:");
            out.push_str(id);
        }
        Term::Literal {
            lexical,
            datatype,
            language,
        } => {
            out.push('"');
            for c in lexical.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    '\t' => out.push_str("\\t"),
                    c => out.push(c),
                }
            }
            out.push('"');
            if let Some(lang) = language {
                out.push('@');
                out.push_str(lang);
            } else if let Some(dt) = datatype {
                out.push_str("^^<");
                out.push_str(dt);
                out.push('>');
            }
        }
    }
}

fn render_pterm(t: &PTerm, out: &mut String) {
    match t {
        PTerm::Var(n) => {
            out.push('?');
            out.push_str(n);
        }
        PTerm::Term(t) => render_term(t, out),
    }
}

fn render_operand(o: &FilterOperand, out: &mut String) {
    match o {
        FilterOperand::Var(n) => {
            out.push('?');
            out.push_str(n);
        }
        FilterOperand::Term(t) => render_term(t, out),
    }
}

fn render_filter(f: &Filter, out: &mut String) {
    out.push_str("FILTER(");
    render_operand(&f.lhs, out);
    out.push(' ');
    out.push_str(match f.op {
        CompareOp::Eq => "=",
        CompareOp::Ne => "!=",
        CompareOp::Lt => "<",
        CompareOp::Le => "<=",
        CompareOp::Gt => ">",
        CompareOp::Ge => ">=",
    });
    out.push(' ');
    render_operand(&f.rhs, out);
    out.push(')');
}

/// Renders one group *element* (the text between the braces of its
/// enclosing group, without wrapping braces for BGPs).
fn render_element(node: &Algebra, out: &mut String) {
    match node {
        Algebra::Bgp(pats) => {
            for (i, pat) in pats.iter().enumerate() {
                if i > 0 {
                    out.push_str(" . ");
                }
                render_pterm(&pat.s, out);
                out.push(' ');
                render_pterm(&pat.p, out);
                out.push(' ');
                render_pterm(&pat.o, out);
            }
        }
        Algebra::Union(l, r) => {
            out.push_str("{ ");
            render_group(l, out);
            out.push_str(" } UNION { ");
            render_group(r, out);
            out.push_str(" }");
        }
        other => {
            out.push_str("{ ");
            render_group(other, out);
            out.push_str(" }");
        }
    }
}

/// Renders a node as the body of a `{ … }` group.
fn render_group(node: &Algebra, out: &mut String) {
    match node {
        Algebra::Filter(c, f) => {
            render_group(c, out);
            out.push(' ');
            render_filter(f, out);
        }
        Algebra::Join(l, r) => {
            render_group(l, out);
            out.push(' ');
            render_element(r, out);
        }
        Algebra::LeftJoin(l, r) => {
            render_group(l, out);
            out.push_str(" OPTIONAL { ");
            render_group(r, out);
            out.push_str(" }");
        }
        other => render_element(other, out),
    }
}

impl Algebra {
    /// Renders the tree back to SPARQL text that [`crate::parse`]
    /// accepts. For trees the parser itself produced, parsing the
    /// rendered text yields an equal tree (the round-trip property the
    /// parser tests check).
    pub fn to_sparql(&self) -> String {
        let mut node = self;
        let mut limit: Option<usize> = None;
        let mut offset: usize = 0;
        if let Algebra::Slice(c, off, lim) = node {
            offset = *off;
            limit = *lim;
            node = c;
        }
        let mut distinct = false;
        if let Algebra::Distinct(c) = node {
            distinct = true;
            node = c;
        }
        let mut out = String::from("SELECT ");
        if distinct {
            out.push_str("DISTINCT ");
        }
        let body = if let Algebra::Project(c, names) = node {
            match names {
                Some(names) if !names.is_empty() => {
                    for n in names {
                        out.push('?');
                        out.push_str(n);
                        out.push(' ');
                    }
                }
                _ => out.push_str("* "),
            }
            c.as_ref()
        } else {
            out.push_str("* ");
            node
        };
        let (body, order) = if let Algebra::OrderBy(c, keys) = body {
            (c.as_ref(), keys.as_slice())
        } else {
            (body, &[][..])
        };
        out.push_str("WHERE { ");
        render_group(body, &mut out);
        out.push_str(" }");
        if !order.is_empty() {
            out.push_str(" ORDER BY");
            for (name, desc) in order {
                if *desc {
                    out.push_str(" DESC(?");
                    out.push_str(name);
                    out.push(')');
                } else {
                    out.push_str(" ASC(?");
                    out.push_str(name);
                    out.push(')');
                }
            }
        }
        if offset > 0 {
            out.push_str(&format!(" OFFSET {offset}"));
        }
        if let Some(l) = limit {
            out.push_str(&format!(" LIMIT {l}"));
        }
        out
    }
}

/// True if the column-defining spine (through `Slice`/`Distinct`) ends
/// in a `Project` — the [`ResolvedPlan`] root invariant.
fn has_root_project(node: &PlanNode) -> bool {
    match node {
        PlanNode::Project(..) => true,
        PlanNode::Slice(c, _, _) | PlanNode::Distinct(c) => has_root_project(c),
        _ => false,
    }
}

impl Algebra {
    /// Resolves names and constants against a dictionary, producing an
    /// executable [`ResolvedPlan`].
    ///
    /// Constants absent from the dictionary make only their own BGP
    /// leaf [`PlanNode::Empty`] — a UNION's other branches still run.
    /// Errors: a non-IRI predicate, a FILTER / ORDER BY / projected
    /// variable that occurs in no triple pattern, or a variable used in
    /// both vertex and property positions.
    pub fn resolve(&self, dict: &Dictionary) -> Result<ResolvedPlan, QueryParseError> {
        let mut r = Resolver {
            dict,
            names: Vec::new(),
            index: FxHashMap::default(),
            vertex_pos: Vec::new(),
            prop_pos: Vec::new(),
        };
        r.collect(self)?;
        for (i, name) in r.names.iter().enumerate() {
            if r.vertex_pos[i] && r.prop_pos[i] {
                return Err(QueryParseError(format!(
                    "variable ?{name} used in both vertex and property positions"
                )));
            }
        }
        let mut root = r.build(self)?;
        if !has_root_project(&root) {
            // Manually built trees may lack an explicit projection; give
            // them the SELECT * one so the root-Project invariant holds.
            root = PlanNode::Project(
                Box::new(root),
                (0..narrow::u32_from(r.names.len())).collect(),
            );
        }
        Ok(ResolvedPlan {
            root,
            var_names: r.names,
            prop_vars: r.prop_pos,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(vars: &[u32], rows: &[&[u32]]) -> Bindings {
        let mut out = Bindings::new(vars.to_vec());
        for r in rows {
            out.push(r.to_vec());
        }
        out
    }

    #[test]
    fn union_dedups_and_reorders() {
        let mut x = b(&[0, 1], &[&[1, 2], &[3, 4]]);
        let y = b(&[1, 0], &[&[2, 1], &[5, 6]]);
        x.union_in_place(&y);
        assert_eq!(x.rows, vec![vec![1, 2], vec![3, 4], vec![6, 5]]);
    }

    #[test]
    #[should_panic(expected = "identical variable sets")]
    fn union_rejects_different_vars() {
        let mut x = b(&[0], &[&[1]]);
        let y = b(&[1], &[&[1]]);
        x.union_in_place(&y);
    }

    #[test]
    fn join_on_shared_var() {
        let x = b(&[0, 1], &[&[1, 10], &[2, 20]]);
        let y = b(&[1, 2], &[&[10, 100], &[10, 101], &[30, 300]]);
        let j = hash_join(&x, &y);
        assert_eq!(j.vars, vec![0, 1, 2]);
        assert_eq!(j.rows, vec![vec![1, 10, 100], vec![1, 10, 101]]);
    }

    #[test]
    fn join_without_shared_vars_is_cross_product() {
        let x = b(&[0], &[&[1], &[2]]);
        let y = b(&[1], &[&[7], &[8]]);
        let j = hash_join(&x, &y);
        assert_eq!(j.len(), 4);
    }

    #[test]
    fn join_is_symmetric_on_content() {
        let x = b(&[0, 1], &[&[1, 10], &[2, 20], &[3, 10]]);
        let y = b(&[1], &[&[10]]);
        let xy = hash_join(&x, &y);
        let yx = hash_join(&y, &x);
        // Same multiset of bindings modulo column order.
        assert_eq!(xy.len(), yx.len());
        let proj = yx.project(&[0, 1]);
        assert_eq!(xy.project(&[0, 1]), proj);
    }

    #[test]
    fn join_all_unit_and_chain() {
        assert_eq!(join_all(&[]), Bindings::unit());
        let x = b(&[0, 1], &[&[1, 10]]);
        let y = b(&[1, 2], &[&[10, 5]]);
        let z = b(&[2, 3], &[&[5, 9]]);
        let j = join_all(&[x, y, z]);
        assert_eq!(j.rows, vec![vec![1, 10, 5, 9]]);
    }

    /// The left-to-right fold of [`hash_join`] `join_all` must reproduce.
    fn fold_left(tables: &[Bindings]) -> Bindings {
        tables
            .iter()
            .fold(Bindings::unit(), |acc, t| hash_join(&acc, t))
    }

    /// A three-subquery path `?a-?b-?c-?d` whose two smallest tables,
    /// `ab` and `cd`, share no variable: joining them first would build
    /// their 400-row product.
    fn disjoint_smallest_path() -> [Bindings; 3] {
        let mut ab = Bindings::new(vec![0, 1]);
        let mut bc = Bindings::new(vec![1, 2]);
        let mut cd = Bindings::new(vec![2, 3]);
        for i in 0..20 {
            ab.push(vec![i, i]);
            cd.push(vec![i + 100, i + 200]);
        }
        for i in 0..40 {
            bc.push(vec![i, i + 100]);
        }
        [ab, bc, cd]
    }

    #[test]
    fn join_all_never_joins_disjoint_tables_when_a_connected_one_remains() {
        let [ab, bc, cd] = disjoint_smallest_path();
        // Size order (ab, cd, bc) would make the second intermediate the
        // 400-row product of ab and cd.
        for tables in [
            [ab.clone(), cd.clone(), bc.clone()],
            [ab.clone(), bc.clone(), cd.clone()],
            [cd.clone(), ab.clone(), bc.clone()],
        ] {
            let mut sizes = Vec::new();
            let joined = join_all_observed(&tables, |t| sizes.push(t.len()));
            assert_eq!(sizes, vec![20, 20, 20], "intermediate row counts");
            assert_eq!(joined, fold_left(&tables));
            assert_eq!(joined.len(), 20);
        }
    }

    #[test]
    fn join_all_falls_back_to_the_smallest_unrelated_table() {
        let x = b(&[0], &[&[1], &[2], &[3]]);
        let y = b(&[1], &[&[7], &[8]]);
        let z = b(&[0, 2], &[&[1, 5], &[3, 6], &[4, 6], &[9, 9]]);
        let tables = [x, y, z];
        let mut sizes = Vec::new();
        let joined = join_all_observed(&tables, |t| sizes.push(t.len()));
        // y (2 rows) first; nothing shares ?1, so x (3) is the smallest
        // overall; then z joins on ?0.
        assert_eq!(sizes, vec![2, 6, 4]);
        assert_eq!(joined.vars, vec![0, 1, 2]);
        assert_eq!(joined, fold_left(&tables));
    }

    #[test]
    fn join_all_empty_intermediate_keeps_the_full_schema() {
        let x = b(&[3, 1], &[&[1, 2]]);
        let y = b(&[1, 0], &[&[9, 9]]);
        let z = b(&[0, 2], &[&[1, 5], &[3, 6]]);
        let joined = join_all(&[x, y, z]);
        assert!(joined.is_empty());
        assert_eq!(joined.vars, vec![3, 1, 0, 2]);
    }

    #[test]
    fn unit_is_join_identity() {
        let x = b(&[0], &[&[3], &[4]]);
        let j = hash_join(&Bindings::unit(), &x);
        assert_eq!(j.project(&[0]), {
            let mut e = x.clone();
            e.sort_dedup();
            e
        });
    }

    #[test]
    fn project_dedups() {
        let x = b(&[0, 1], &[&[1, 10], &[1, 20]]);
        let p = x.project(&[0]);
        assert_eq!(p.rows, vec![vec![1]]);
    }

    #[test]
    fn empty_join_short_circuits() {
        let x = b(&[0], &[]);
        let y = b(&[0], &[&[1]]);
        assert!(hash_join(&x, &y).is_empty());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn table_strategy() -> impl Strategy<Value = Bindings> {
        (
            proptest::collection::vec(0u32..5, 0..3),
            proptest::collection::vec(proptest::collection::vec(0u32..4, 2), 0..12),
        )
            .prop_map(|(mut vars, rows)| {
                vars.sort_unstable();
                vars.dedup();
                let mut t = Bindings::new(vars);
                for row in rows {
                    t.push(row[..t.vars.len()].to_vec());
                }
                t
            })
    }

    proptest! {
        /// Whatever order `join_all` picks, it returns the table a
        /// left-to-right fold of `hash_join` returns: same columns, same
        /// sorted rows.
        #[test]
        fn join_all_equals_the_left_to_right_fold(
            tables in proptest::collection::vec(table_strategy(), 0..5),
        ) {
            let fold = tables.iter().fold(Bindings::unit(), |acc, t| hash_join(&acc, t));
            prop_assert_eq!(join_all(&tables), fold);
        }
    }

    proptest! {
        /// The union of strictly sorted runs is what concatenating them
        /// and `sort_dedup` gives. Cells come from a four-value domain, so
        /// runs overlap heavily; `width` 0 makes every non-empty run the
        /// unit table; `replicate` makes every run a copy of the first;
        /// zero runs, one run and empty runs all occur.
        #[test]
        fn union_sorted_equals_extend_then_sort_dedup(
            width in 0usize..3,
            raw in proptest::collection::vec(
                proptest::collection::vec(proptest::collection::vec(0u32..4, 2), 0..12),
                0..6,
            ),
            replicate in any::<bool>(),
        ) {
            let mut runs: Vec<Vec<Vec<u32>>> = raw
                .into_iter()
                .map(|run| {
                    let mut run: Vec<Vec<u32>> =
                        run.into_iter().map(|row| row[..width].to_vec()).collect();
                    run.sort_unstable();
                    run.dedup();
                    run
                })
                .collect();
            if replicate {
                if let Some(first) = runs.first().cloned() {
                    runs.iter_mut().for_each(|run| run.clone_from(&first));
                }
            }
            let vars: Vec<u32> = (0..narrow::u32_from(width)).collect();
            let mut expected = Bindings::new(vars.clone());
            for run in &runs {
                expected.rows.extend(run.iter().cloned());
            }
            expected.sort_dedup();
            prop_assert_eq!(Bindings::union_sorted(vars, runs), expected);
        }
    }
}
