//! A parser for the SPARQL fragment this engine evaluates: BGPs
//! (Definition 3.5) composed with OPTIONAL, UNION, group-level FILTER,
//! DISTINCT, ORDER BY and LIMIT/OFFSET. See docs/QUERY.md.
//!
//! Grammar (case-insensitive keywords):
//!
//! ```text
//! query    := prefix* 'SELECT' 'DISTINCT'? ('*' | var+) 'WHERE' group
//!             ('ORDER' 'BY' key+)? (('LIMIT' INT) | ('OFFSET' INT))*
//! prefix   := 'PREFIX' NAME ':' IRIREF
//! group    := '{' element* '}'
//! element  := (triples | 'FILTER' '(' operand op operand ')'
//!              | 'OPTIONAL' group | group ('UNION' group)*) '.'?
//! triples  := pattern ('.' pattern)*
//! pattern  := term term term
//! term     := var | IRIREF | prefixed | literal | 'a'
//! key      := var | 'ASC' '(' var ')' | 'DESC' '(' var ')'
//! ```
//!
//! where `a` abbreviates `rdf:type` as in Turtle. [`parse`] returns an
//! [`Algebra`] tree holding RDF [`Term`]s; [`Algebra::resolve`] maps it
//! into dictionary ids, yielding an executable
//! [`ResolvedPlan`](crate::algebra::ResolvedPlan).

use crate::algebra::Algebra;
use mpc_rdf::{FxHashMap, Term, TermRef};
use std::fmt;

/// The rdf:type IRI that the keyword `a` abbreviates.
pub const RDF_TYPE: &str = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type";

/// A parse error with a human-readable message.
#[derive(Debug, Clone)]
pub struct QueryParseError(pub String);

impl fmt::Display for QueryParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SPARQL parse error: {}", self.0)
    }
}

impl std::error::Error for QueryParseError {}

/// A term position in a parsed pattern.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PTerm {
    /// A variable name (without `?`).
    Var(String),
    /// A constant term.
    Term(Term),
}

/// One parsed triple pattern.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PPattern {
    /// Subject.
    pub s: PTerm,
    /// Predicate (must be a variable or an IRI).
    pub p: PTerm,
    /// Object.
    pub o: PTerm,
}

/// A comparison operator in a FILTER expression.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CompareOp {
    /// `=` — term equality.
    Eq,
    /// `!=` — term inequality.
    Ne,
    /// `<` — numeric less-than.
    Lt,
    /// `<=` — numeric less-or-equal.
    Le,
    /// `>` — numeric greater-than.
    Gt,
    /// `>=` — numeric greater-or-equal.
    Ge,
}

impl CompareOp {
    fn parse(text: &str) -> Option<Self> {
        Some(match text {
            "=" => CompareOp::Eq,
            "!=" => CompareOp::Ne,
            "<" => CompareOp::Lt,
            "<=" => CompareOp::Le,
            ">" => CompareOp::Gt,
            ">=" => CompareOp::Ge,
            _ => return None,
        })
    }
}

/// One side of a FILTER comparison.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FilterOperand {
    /// A variable name (without `?`).
    Var(String),
    /// A constant term (IRIs, literals; bare numbers become typed
    /// literals).
    Term(Term),
}

/// A `FILTER(lhs op rhs)` constraint.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Filter {
    /// Left operand.
    pub lhs: FilterOperand,
    /// Operator.
    pub op: CompareOp,
    /// Right operand.
    pub rhs: FilterOperand,
}

/// A ground triple in an update request: subject term, predicate IRI,
/// object term.
pub type GroundTriple = (Term, String, Term);

/// A parsed SPARQL Update request: the ground triples to delete and to
/// insert, in request order. Produced by [`parse_update`]; applied by
/// `mpc-cluster`'s commit path (deletes first, then inserts — the SPARQL
/// Update order, docs/UPDATES.md).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct UpdateData {
    /// Triples removed by `DELETE DATA` clauses.
    pub deletes: Vec<GroundTriple>,
    /// Triples added by `INSERT DATA` clauses.
    pub inserts: Vec<GroundTriple>,
}

impl UpdateData {
    /// Total number of triples across both clauses.
    pub fn len(&self) -> usize {
        self.deletes.len() + self.inserts.len()
    }

    /// True if the request carries no triples at all.
    pub fn is_empty(&self) -> bool {
        self.deletes.is_empty() && self.inserts.is_empty()
    }
}

/// True if `input` looks like a SPARQL Update request (starts with
/// `INSERT`, `DELETE`, or a `PREFIX` prologue followed by either) —
/// how the REPL and the server tell updates from queries before picking
/// a parser.
pub fn is_update(input: &str) -> bool {
    let mut rest = input.trim_start();
    // Skip a PREFIX prologue without tokenizing the whole input.
    loop {
        let lower = rest.to_ascii_lowercase();
        if !lower.starts_with("prefix") {
            break;
        }
        match rest.find('>') {
            Some(at) => rest = rest[at + 1..].trim_start(),
            None => return false,
        }
    }
    let lower = rest.to_ascii_lowercase();
    lower.starts_with("insert") || lower.starts_with("delete")
}

/// Parses a SPARQL Update request: one or more `INSERT DATA { … }` /
/// `DELETE DATA { … }` clauses in sequence after an optional `PREFIX`
/// prologue. Only ground triples are allowed inside the braces — no
/// variables, no property paths.
///
/// # Examples
///
/// ```
/// use mpc_sparql::parse_update;
///
/// let up = parse_update(
///     "PREFIX ex: <http://ex/> INSERT DATA { ex:a ex:p ex:b . ex:b ex:p \"lit\" }",
/// ).unwrap();
/// assert_eq!(up.inserts.len(), 2);
/// assert!(up.deletes.is_empty());
/// ```
pub fn parse_update(input: &str) -> Result<UpdateData, QueryParseError> {
    let tokens = tokenize(input)?;
    let mut p = TokenCursor { tokens, pos: 0 };

    let mut prefixes: FxHashMap<String, String> = FxHashMap::default();
    loop {
        match p.peek() {
            Some(Token::Word(w)) if w.eq_ignore_ascii_case("prefix") => {
                p.advance();
                let name = match p.next() {
                    Some(Token::Word(w)) => w.strip_suffix(':').unwrap_or(&w).to_owned(),
                    other => return Err(err(format!("expected prefix name, got {other:?}"))),
                };
                let iri = match p.next() {
                    Some(Token::Iri(i)) => i,
                    other => return Err(err(format!("expected prefix IRI, got {other:?}"))),
                };
                prefixes.insert(name, iri);
            }
            _ => break,
        }
    }

    let mut update = UpdateData::default();
    let mut clauses = 0usize;
    loop {
        let insert = match p.next() {
            Some(Token::Word(w)) if w.eq_ignore_ascii_case("insert") => true,
            Some(Token::Word(w)) if w.eq_ignore_ascii_case("delete") => false,
            None if clauses > 0 => break,
            other => {
                return Err(err(format!("expected INSERT DATA or DELETE DATA, got {other:?}")))
            }
        };
        match p.next() {
            Some(Token::Word(w)) if w.eq_ignore_ascii_case("data") => {}
            other => {
                return Err(err(format!(
                    "only the ground DATA form is supported (expected DATA, got {other:?})"
                )))
            }
        }
        match p.next() {
            Some(Token::OpenBrace) => {}
            other => return Err(err(format!("expected '{{', got {other:?}"))),
        }
        loop {
            if matches!(p.peek(), Some(Token::CloseBrace)) {
                p.advance();
                break;
            }
            let triple = parse_ground_triple(&mut p, &prefixes)?;
            if insert {
                update.inserts.push(triple);
            } else {
                update.deletes.push(triple);
            }
            // Triple separator: '.', optional before '}'.
            if matches!(p.peek(), Some(Token::Dot)) {
                p.advance();
            } else if !matches!(p.peek(), Some(Token::CloseBrace)) {
                return Err(err(format!(
                    "expected '.' or '}}' after a triple, got {:?}",
                    p.peek()
                )));
            }
        }
        clauses += 1;
        if p.peek().is_none() {
            break;
        }
    }
    Ok(update)
}

/// One ground (variable-free) triple: `term iri term`.
fn parse_ground_triple(
    p: &mut TokenCursor,
    prefixes: &FxHashMap<String, String>,
) -> Result<GroundTriple, QueryParseError> {
    let s = match parse_term(p, prefixes)? {
        PTerm::Term(t) if t.is_iri() => t,
        PTerm::Term(t) => return Err(err(format!("literal subject {t} in update data"))),
        PTerm::Var(v) => return Err(err(format!("variable ?{v} in update data (ground triples only)"))),
    };
    let pred = match parse_term(p, prefixes)? {
        PTerm::Term(Term::Iri(i)) => i,
        PTerm::Term(t) => return Err(err(format!("non-IRI predicate {t} in update data"))),
        PTerm::Var(v) => return Err(err(format!("variable ?{v} in update data (ground triples only)"))),
    };
    let o = match parse_term(p, prefixes)? {
        PTerm::Term(t) => t,
        PTerm::Var(v) => return Err(err(format!("variable ?{v} in update data (ground triples only)"))),
    };
    Ok((s, pred, o))
}

/// The numeric value of a literal term, if its lexical form parses.
pub fn numeric_value(term: TermRef<'_>) -> Option<f64> {
    match term {
        TermRef::Literal { lexical, .. } => lexical.trim().parse::<f64>().ok(),
        _ => None,
    }
}

/// Parses a query string into an [`Algebra`] tree.
///
/// # Examples
///
/// ```
/// use mpc_sparql::{parse, Algebra};
///
/// let q = parse(
///     "PREFIX ex: <http://ex/> SELECT ?a WHERE { ?a ex:knows ?b . ?b a ex:Person }",
/// ).unwrap();
/// assert!(matches!(q, Algebra::Project(_, Some(ref names)) if names == &["a"]));
/// ```
pub fn parse(input: &str) -> Result<Algebra, QueryParseError> {
    let tokens = tokenize(input)?;
    let mut p = TokenCursor { tokens, pos: 0 };

    let mut prefixes: FxHashMap<String, String> = FxHashMap::default();
    loop {
        match p.peek() {
            Some(Token::Word(w)) if w.eq_ignore_ascii_case("prefix") => {
                p.advance();
                let name = match p.next() {
                    Some(Token::Word(w)) => w.strip_suffix(':').unwrap_or(&w).to_owned(),
                    other => return Err(err(format!("expected prefix name, got {other:?}"))),
                };
                let iri = match p.next() {
                    Some(Token::Iri(i)) => i,
                    other => return Err(err(format!("expected prefix IRI, got {other:?}"))),
                };
                prefixes.insert(name, iri);
            }
            _ => break,
        }
    }

    match p.next() {
        Some(Token::Word(w)) if w.eq_ignore_ascii_case("select") => {}
        other => return Err(err(format!("expected SELECT, got {other:?}"))),
    }
    let mut distinct = false;
    if matches!(p.peek(), Some(Token::Word(w)) if w.eq_ignore_ascii_case("distinct")) {
        distinct = true;
        p.advance();
    }
    let mut select = Vec::new();
    loop {
        match p.peek() {
            Some(Token::Var(v)) => {
                select.push(v.clone());
                p.advance();
            }
            Some(Token::Star) => {
                p.advance();
            }
            Some(Token::Word(w)) if w.eq_ignore_ascii_case("where") => break,
            other => return Err(err(format!("expected ?var, * or WHERE, got {other:?}"))),
        }
    }
    p.advance(); // WHERE
    match p.next() {
        Some(Token::OpenBrace) => {}
        other => return Err(err(format!("expected '{{', got {other:?}"))),
    }
    let body = parse_group_body(&mut p, &prefixes)?;

    // Solution modifiers.
    let mut order: Vec<(String, bool)> = Vec::new();
    let mut limit = None;
    let mut offset = None;
    loop {
        match p.peek() {
            Some(Token::Word(w)) if w.eq_ignore_ascii_case("order") => {
                p.advance();
                match p.next() {
                    Some(Token::Word(w)) if w.eq_ignore_ascii_case("by") => {}
                    other => return Err(err(format!("ORDER expects BY, got {other:?}"))),
                }
                loop {
                    match p.peek() {
                        Some(Token::Var(v)) => {
                            order.push((v.clone(), false));
                            p.advance();
                        }
                        Some(Token::Word(w))
                            if w.eq_ignore_ascii_case("asc") || w.eq_ignore_ascii_case("desc") =>
                        {
                            let desc = w.eq_ignore_ascii_case("desc");
                            p.advance();
                            match p.next() {
                                Some(Token::OpenParen) => {}
                                other => {
                                    return Err(err(format!(
                                        "ASC/DESC expects '(', got {other:?}"
                                    )))
                                }
                            }
                            let name = match p.next() {
                                Some(Token::Var(v)) => v,
                                other => {
                                    return Err(err(format!(
                                        "ASC/DESC expects a ?var, got {other:?}"
                                    )))
                                }
                            };
                            match p.next() {
                                Some(Token::CloseParen) => {}
                                other => {
                                    return Err(err(format!(
                                        "ASC/DESC expects ')', got {other:?}"
                                    )))
                                }
                            }
                            order.push((name, desc));
                        }
                        _ => break,
                    }
                }
                if order.is_empty() {
                    return Err(err("ORDER BY expects at least one sort key".into()));
                }
            }
            Some(Token::Word(w)) if w.eq_ignore_ascii_case("limit") => {
                p.advance();
                limit = Some(parse_count(&mut p, "LIMIT")?);
            }
            Some(Token::Word(w)) if w.eq_ignore_ascii_case("offset") => {
                p.advance();
                offset = Some(parse_count(&mut p, "OFFSET")?);
            }
            Some(other) => return Err(err(format!("unexpected trailing token {other:?}"))),
            None => break,
        }
    }

    let mut tree = body;
    if !order.is_empty() {
        tree = Algebra::OrderBy(Box::new(tree), order);
    }
    let projection = if select.is_empty() { None } else { Some(select) };
    tree = Algebra::Project(Box::new(tree), projection);
    if distinct {
        tree = Algebra::Distinct(Box::new(tree));
    }
    if limit.is_some() || offset.is_some() {
        tree = Algebra::Slice(Box::new(tree), offset.unwrap_or(0), limit);
    }
    Ok(tree)
}

/// Joins the accumulated triple buffer (as one BGP) into the group
/// accumulator.
fn flush(acc: &mut Option<Algebra>, buf: &mut Vec<PPattern>) {
    if buf.is_empty() {
        return;
    }
    let bgp = Algebra::Bgp(std::mem::take(buf));
    *acc = Some(match acc.take() {
        Some(a) => Algebra::Join(Box::new(a), Box::new(bgp)),
        None => bgp,
    });
}

/// Parses a group's elements; the opening `{` is already consumed, the
/// closing `}` is consumed here. Consecutive triples form one BGP;
/// braced groups and OPTIONALs join left-to-right; FILTERs collect and
/// wrap the whole group (a group-level FILTER sees OPTIONAL-bound
/// variables, per the SPARQL algebra).
fn parse_group_body(
    p: &mut TokenCursor,
    prefixes: &FxHashMap<String, String>,
) -> Result<Algebra, QueryParseError> {
    let mut acc: Option<Algebra> = None;
    let mut buf: Vec<PPattern> = Vec::new();
    let mut filters: Vec<Filter> = Vec::new();
    loop {
        match p.peek() {
            Some(Token::CloseBrace) => {
                p.advance();
                break;
            }
            Some(Token::Word(w)) if w.eq_ignore_ascii_case("filter") => {
                p.advance();
                filters.push(parse_filter(p, prefixes)?);
                if matches!(p.peek(), Some(Token::Dot)) {
                    p.advance();
                }
            }
            Some(Token::Word(w)) if w.eq_ignore_ascii_case("optional") => {
                p.advance();
                match p.next() {
                    Some(Token::OpenBrace) => {}
                    other => return Err(err(format!("OPTIONAL expects '{{', got {other:?}"))),
                }
                let g = parse_group_body(p, prefixes)?;
                flush(&mut acc, &mut buf);
                let Some(a) = acc.take() else {
                    return Err(err("OPTIONAL must follow a graph pattern".into()));
                };
                acc = Some(Algebra::LeftJoin(Box::new(a), Box::new(g)));
                if matches!(p.peek(), Some(Token::Dot)) {
                    p.advance();
                }
            }
            Some(Token::OpenBrace) => {
                p.advance();
                let mut g = parse_group_body(p, prefixes)?;
                while matches!(p.peek(), Some(Token::Word(w)) if w.eq_ignore_ascii_case("union")) {
                    p.advance();
                    match p.next() {
                        Some(Token::OpenBrace) => {}
                        other => return Err(err(format!("UNION expects '{{', got {other:?}"))),
                    }
                    let r = parse_group_body(p, prefixes)?;
                    g = Algebra::Union(Box::new(g), Box::new(r));
                }
                flush(&mut acc, &mut buf);
                acc = Some(match acc.take() {
                    Some(a) => Algebra::Join(Box::new(a), Box::new(g)),
                    None => g,
                });
                if matches!(p.peek(), Some(Token::Dot)) {
                    p.advance();
                }
            }
            Some(_) => {
                let s = parse_term(p, prefixes)?;
                let pred = parse_term(p, prefixes)?;
                let o = parse_term(p, prefixes)?;
                if let PTerm::Term(t) = &pred {
                    if !t.is_iri() {
                        return Err(err(format!("predicate must be an IRI or variable: {t}")));
                    }
                }
                buf.push(PPattern { s, p: pred, o });
                match p.peek() {
                    Some(Token::Dot) => {
                        p.advance();
                    }
                    Some(Token::CloseBrace | Token::OpenBrace) => {}
                    Some(Token::Word(w))
                        if w.eq_ignore_ascii_case("filter")
                            || w.eq_ignore_ascii_case("optional") => {}
                    other => return Err(err(format!("expected '.' or '}}', got {other:?}"))),
                }
            }
            None => return Err(err("unexpected end of query inside group".into())),
        }
    }
    flush(&mut acc, &mut buf);
    let mut tree = acc.ok_or_else(|| err("query has no triple patterns".into()))?;
    for f in filters {
        tree = Algebra::Filter(Box::new(tree), f);
    }
    Ok(tree)
}

/// Parses `( operand op operand )` after the FILTER keyword.
fn parse_filter(
    p: &mut TokenCursor,
    prefixes: &FxHashMap<String, String>,
) -> Result<Filter, QueryParseError> {
    match p.next() {
        Some(Token::OpenParen) => {}
        other => return Err(err(format!("FILTER expects '(', got {other:?}"))),
    }
    let lhs = parse_filter_operand(p, prefixes)?;
    let op = match p.next() {
        Some(Token::Op(text)) => {
            CompareOp::parse(text).ok_or_else(|| err(format!("unknown operator '{text}'")))?
        }
        other => return Err(err(format!("FILTER expects an operator, got {other:?}"))),
    };
    let rhs = parse_filter_operand(p, prefixes)?;
    match p.next() {
        Some(Token::CloseParen) => {}
        other => return Err(err(format!("FILTER expects ')', got {other:?}"))),
    }
    Ok(Filter { lhs, op, rhs })
}

fn parse_filter_operand(
    p: &mut TokenCursor,
    prefixes: &FxHashMap<String, String>,
) -> Result<FilterOperand, QueryParseError> {
    match p.next() {
        Some(Token::Var(v)) => Ok(FilterOperand::Var(v)),
        Some(Token::Iri(i)) => Ok(FilterOperand::Term(Term::Iri(i))),
        Some(Token::Literal(t)) => Ok(FilterOperand::Term(t)),
        Some(Token::Word(w)) => {
            // Bare numbers become typed literals; prefixed names resolve.
            if w.parse::<i64>().is_ok() {
                return Ok(FilterOperand::Term(Term::typed_literal(
                    w,
                    "http://www.w3.org/2001/XMLSchema#integer",
                )));
            }
            if w.parse::<f64>().is_ok() {
                return Ok(FilterOperand::Term(Term::typed_literal(
                    w,
                    "http://www.w3.org/2001/XMLSchema#decimal",
                )));
            }
            if let Some((pfx, local)) = w.split_once(':') {
                if let Some(base) = prefixes.get(pfx) {
                    return Ok(FilterOperand::Term(Term::Iri(format!("{base}{local}"))));
                }
            }
            Err(err(format!("bad FILTER operand '{w}'")))
        }
        other => Err(err(format!("bad FILTER operand {other:?}"))),
    }
}

fn parse_count(p: &mut TokenCursor, what: &str) -> Result<usize, QueryParseError> {
    match p.next() {
        Some(Token::Word(w)) => w
            .parse::<usize>()
            .map_err(|_| err(format!("{what} expects a number, got '{w}'"))),
        other => Err(err(format!("{what} expects a number, got {other:?}"))),
    }
}

fn err(message: String) -> QueryParseError {
    QueryParseError(message)
}

fn parse_term(
    p: &mut TokenCursor,
    prefixes: &FxHashMap<String, String>,
) -> Result<PTerm, QueryParseError> {
    match p.next() {
        Some(Token::Var(v)) => Ok(PTerm::Var(v)),
        Some(Token::Iri(i)) => Ok(PTerm::Term(Term::Iri(i))),
        Some(Token::Literal(t)) => Ok(PTerm::Term(t)),
        Some(Token::Word(w)) => {
            if w == "a" {
                return Ok(PTerm::Term(Term::Iri(RDF_TYPE.to_owned())));
            }
            if let Some((pfx, local)) = w.split_once(':') {
                if let Some(base) = prefixes.get(pfx) {
                    return Ok(PTerm::Term(Term::Iri(format!("{base}{local}"))));
                }
                return Err(err(format!("unknown prefix '{pfx}:'")));
            }
            Err(err(format!("unexpected token '{w}'")))
        }
        other => Err(err(format!("expected term, got {other:?}"))),
    }
}

#[derive(Clone, Debug, PartialEq)]
enum Token {
    Word(String),
    Var(String),
    Iri(String),
    Literal(Term),
    OpenBrace,
    CloseBrace,
    OpenParen,
    CloseParen,
    Dot,
    Star,
    /// A comparison operator inside FILTER: = != < <= > >=.
    Op(&'static str),
}

struct TokenCursor {
    tokens: Vec<Token>,
    pos: usize,
}

impl TokenCursor {
    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn next(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).cloned();
        self.pos += 1;
        t
    }

    fn advance(&mut self) {
        self.pos += 1;
    }
}

fn tokenize(input: &str) -> Result<Vec<Token>, QueryParseError> {
    let mut tokens = Vec::new();
    let mut chars = input.chars().peekable();
    while let Some(&c) = chars.peek() {
        match c {
            c if c.is_whitespace() => {
                chars.next();
            }
            '#' => {
                // Comment to end of line.
                for c in chars.by_ref() {
                    if c == '\n' {
                        break;
                    }
                }
            }
            '{' => {
                chars.next();
                tokens.push(Token::OpenBrace);
            }
            '(' => {
                chars.next();
                tokens.push(Token::OpenParen);
            }
            ')' => {
                chars.next();
                tokens.push(Token::CloseParen);
            }
            '=' => {
                chars.next();
                tokens.push(Token::Op("="));
            }
            '!' => {
                chars.next();
                if chars.peek() == Some(&'=') {
                    chars.next();
                    tokens.push(Token::Op("!="));
                } else {
                    return Err(err("expected '=' after '!'".into()));
                }
            }
            '>' => {
                chars.next();
                if chars.peek() == Some(&'=') {
                    chars.next();
                    tokens.push(Token::Op(">="));
                } else {
                    tokens.push(Token::Op(">"));
                }
            }
            '}' => {
                chars.next();
                tokens.push(Token::CloseBrace);
            }
            '.' => {
                chars.next();
                tokens.push(Token::Dot);
            }
            '*' => {
                chars.next();
                tokens.push(Token::Star);
            }
            '?' | '$' => {
                chars.next();
                let mut name = String::new();
                while let Some(&c) = chars.peek() {
                    if c.is_alphanumeric() || c == '_' {
                        name.push(c);
                        chars.next();
                    } else {
                        break;
                    }
                }
                if name.is_empty() {
                    return Err(err("empty variable name".into()));
                }
                tokens.push(Token::Var(name));
            }
            '<' => {
                chars.next();
                // `<` is an IRI opener in term position but a comparison
                // operator inside FILTER; what follows disambiguates.
                match chars.peek() {
                    Some('=') => {
                        chars.next();
                        tokens.push(Token::Op("<="));
                    }
                    Some(&c2)
                        if c2.is_whitespace()
                            || c2.is_ascii_digit()
                            || matches!(c2, '?' | '$' | '"' | '-' | '+') =>
                    {
                        tokens.push(Token::Op("<"));
                    }
                    _ => {
                        let mut iri = String::new();
                        loop {
                            match chars.next() {
                                Some('>') => break,
                                Some(c) => iri.push(c),
                                None => return Err(err("unterminated IRI".into())),
                            }
                        }
                        tokens.push(Token::Iri(iri));
                    }
                }
            }
            '"' => {
                chars.next();
                let mut lex = String::new();
                loop {
                    match chars.next() {
                        Some('"') => break,
                        Some('\\') => match chars.next() {
                            Some('"') => lex.push('"'),
                            Some('\\') => lex.push('\\'),
                            Some('n') => lex.push('\n'),
                            Some('t') => lex.push('\t'),
                            Some(c) => return Err(err(format!("bad escape '\\{c}'"))),
                            None => return Err(err("dangling escape".into())),
                        },
                        Some(c) => lex.push(c),
                        None => return Err(err("unterminated literal".into())),
                    }
                }
                // Optional @lang or ^^<dt>.
                match chars.peek() {
                    Some('@') => {
                        chars.next();
                        let mut lang = String::new();
                        while let Some(&c) = chars.peek() {
                            if c.is_ascii_alphanumeric() || c == '-' {
                                lang.push(c);
                                chars.next();
                            } else {
                                break;
                            }
                        }
                        tokens.push(Token::Literal(Term::lang_literal(lex, lang)));
                    }
                    Some('^') => {
                        chars.next();
                        if chars.next() != Some('^') || chars.next() != Some('<') {
                            return Err(err("datatype must be '^^<iri>'".into()));
                        }
                        let mut dt = String::new();
                        loop {
                            match chars.next() {
                                Some('>') => break,
                                Some(c) => dt.push(c),
                                None => return Err(err("unterminated datatype IRI".into())),
                            }
                        }
                        tokens.push(Token::Literal(Term::typed_literal(lex, dt)));
                    }
                    _ => tokens.push(Token::Literal(Term::literal(lex))),
                }
            }
            _ => {
                let mut word = String::new();
                while let Some(&c) = chars.peek() {
                    if c.is_alphanumeric() || matches!(c, ':' | '_' | '-' | '/') {
                        word.push(c);
                        chars.next();
                    } else {
                        break;
                    }
                }
                if word.is_empty() {
                    return Err(err(format!("unexpected character '{c}'")));
                }
                tokens.push(Token::Word(word));
            }
        }
    }
    Ok(tokens)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algebra::PlanNode;
    use mpc_rdf::{Dictionary, GraphBuilder};

    fn sample_dict() -> Dictionary {
        let mut b = GraphBuilder::new();
        b.add_iris("http://x/alice", "http://x/knows", "http://x/bob");
        b.add_iris("http://x/bob", "http://x/knows", "http://x/carol");
        b.add(
            &Term::iri("http://x/alice"),
            RDF_TYPE,
            &Term::iri("http://x/Person"),
        );
        b.build().dictionary().clone()
    }

    /// Unwraps the modifier spine down to the group body.
    fn body_of(mut a: &Algebra) -> &Algebra {
        loop {
            match a {
                Algebra::Slice(c, _, _)
                | Algebra::Distinct(c)
                | Algebra::Project(c, _)
                | Algebra::OrderBy(c, _) => a = c,
                other => return other,
            }
        }
    }

    /// The group body's BGP patterns, for tests that expect a pure BGP.
    fn bgp_of(a: &Algebra) -> &[PPattern] {
        match body_of(a) {
            Algebra::Bgp(pats) => pats,
            other => panic!("expected a BGP body, got {other:?}"),
        }
    }

    #[test]
    fn parses_basic_select() {
        let q = parse(
            "PREFIX x: <http://x/>\n\
             SELECT ?a ?b WHERE { ?a x:knows ?b . }",
        )
        .unwrap();
        assert!(matches!(&q, Algebra::Project(_, Some(names)) if names == &["a", "b"]));
        let pats = bgp_of(&q);
        assert_eq!(pats.len(), 1);
        assert_eq!(pats[0].p, PTerm::Term(Term::iri("http://x/knows")));
    }

    #[test]
    fn resolves_against_dictionary() {
        let dict = sample_dict();
        let q = parse(
            "PREFIX x: <http://x/>\n\
             SELECT * WHERE { ?a x:knows ?b . ?b x:knows ?c }",
        )
        .unwrap();
        let plan = q.resolve(&dict).unwrap();
        let bgp = plan.as_bgp().expect("single-BGP plan");
        assert_eq!(bgp.patterns.len(), 2);
        assert_eq!(bgp.var_count(), 3);
        assert_eq!(plan.var_names, vec!["a", "b", "c"]);
    }

    #[test]
    fn unknown_constant_resolves_to_empty() {
        let dict = sample_dict();
        let q = parse("SELECT * WHERE { ?a <http://x/unknownProp> ?b }").unwrap();
        let plan = q.resolve(&dict).unwrap();
        assert!(plan.as_bgp().is_none());
        let mut empty = 0;
        plan.root.for_each(&mut |n| {
            if matches!(n, PlanNode::Empty { .. }) {
                empty += 1;
            }
        });
        assert_eq!(empty, 1);
        let q2 = parse("PREFIX x: <http://x/> SELECT * WHERE { <http://x/nobody> x:knows ?b }")
            .unwrap();
        assert!(q2.resolve(&dict).unwrap().as_bgp().is_none());
    }

    #[test]
    fn a_keyword_is_rdf_type() {
        let dict = sample_dict();
        let q = parse("SELECT ?x WHERE { ?x a <http://x/Person> }").unwrap();
        let plan = q.resolve(&dict).unwrap();
        let bgp = plan.as_bgp().unwrap();
        assert_eq!(bgp.patterns.len(), 1);
        assert!(bgp.patterns[0].p.as_prop().is_some());
    }

    #[test]
    fn property_variables_parse() {
        let dict = sample_dict();
        let q = parse("SELECT * WHERE { ?s ?p ?o }").unwrap();
        let plan = q.resolve(&dict).unwrap();
        assert!(plan.as_bgp().unwrap().has_property_variables());
        assert_eq!(plan.prop_vars, vec![false, true, false]);
    }

    #[test]
    fn literal_objects() {
        let q = parse(r#"SELECT ?x WHERE { ?x <http://x/name> "Alice" }"#).unwrap();
        match &bgp_of(&q)[0].o {
            PTerm::Term(Term::Literal { lexical, .. }) => assert_eq!(lexical, "Alice"),
            other => panic!("expected literal, got {other:?}"),
        }
        let q2 = parse(r#"SELECT ?x WHERE { ?x <http://x/age> "5"^^<http://x/int> }"#).unwrap();
        assert!(matches!(
            &bgp_of(&q2)[0].o,
            PTerm::Term(Term::Literal { .. })
        ));
    }

    #[test]
    fn trailing_dot_optional() {
        assert!(parse("SELECT ?x WHERE { ?x <p> ?y }").is_ok());
        assert!(parse("SELECT ?x WHERE { ?x <p> ?y . }").is_ok());
    }

    #[test]
    fn comments_are_skipped() {
        let q = parse("# leading comment\nSELECT ?x WHERE { # inner\n ?x <p> ?y }").unwrap();
        assert_eq!(bgp_of(&q).len(), 1);
    }

    #[test]
    fn errors() {
        assert!(parse("WHERE { ?x <p> ?y }").is_err()); // no SELECT
        assert!(parse("SELECT ?x { ?x <p> ?y }").is_err()); // no WHERE
        assert!(parse("SELECT ?x WHERE { ?x <p> }").is_err()); // 2 terms
        assert!(parse("SELECT ?x WHERE { }").is_err()); // empty group
        assert!(parse("SELECT ?x WHERE { ?x \"lit\" ?y }").is_err()); // literal predicate
        assert!(parse("SELECT ?x WHERE { ?x unknown:p ?y }").is_err()); // unknown prefix
        // OPTIONAL with nothing on its left has no defined semantics here.
        assert!(parse("SELECT ?x WHERE { OPTIONAL { ?x <p> ?y } }").is_err());
        // Empty nested groups are rejected like empty top-level ones.
        assert!(parse("SELECT ?x WHERE { ?x <p> ?y OPTIONAL { } }").is_err());
        assert!(parse("SELECT ?x WHERE { { } UNION { ?x <p> ?y } }").is_err());
    }

    #[test]
    fn filter_parsing() {
        let q = parse(
            "PREFIX x: <http://x/> SELECT ?a WHERE { \
             ?a x:age ?n . FILTER(?n >= 18) . FILTER(?a != x:bob) }",
        )
        .unwrap();
        // Filters wrap the group in source order: f2(f1(bgp)).
        let Algebra::Filter(inner, f2) = body_of(&q) else {
            panic!("expected outer filter");
        };
        let Algebra::Filter(bgp, f1) = inner.as_ref() else {
            panic!("expected inner filter");
        };
        assert!(matches!(bgp.as_ref(), Algebra::Bgp(_)));
        assert_eq!(f1.op, CompareOp::Ge);
        assert!(
            matches!(&f1.rhs, FilterOperand::Term(Term::Literal { lexical, .. }) if lexical == "18")
        );
        assert_eq!(f2.op, CompareOp::Ne);

        // Operators tokenize next to IRIs without confusion.
        let q2 = parse("SELECT ?a WHERE { ?a <http://x/p> ?b . FILTER(?b = <http://x/c>) }")
            .unwrap();
        assert!(matches!(body_of(&q2), Algebra::Filter(..)));
        assert!(parse("SELECT ?a WHERE { ?a <p> ?b . FILTER ?b }").is_err());
        assert!(parse("SELECT ?a WHERE { ?a <p> ?b . FILTER(?b ! ?a) }").is_err());
    }

    #[test]
    fn optional_parses_to_left_join() {
        let q = parse(
            "SELECT * WHERE { ?x <http://x/p> ?y OPTIONAL { ?y <http://x/q> ?z } }",
        )
        .unwrap();
        let Algebra::LeftJoin(l, r) = body_of(&q) else {
            panic!("expected LeftJoin, got {q:?}");
        };
        assert!(matches!(l.as_ref(), Algebra::Bgp(p) if p.len() == 1));
        assert!(matches!(r.as_ref(), Algebra::Bgp(p) if p.len() == 1));
    }

    #[test]
    fn union_chains_fold_left() {
        let q = parse(
            "SELECT * WHERE { { ?x <http://x/p> ?y } UNION { ?x <http://x/q> ?y } \
             UNION { ?x <http://x/r> ?y } }",
        )
        .unwrap();
        let Algebra::Union(l, _) = body_of(&q) else {
            panic!("expected Union, got {q:?}");
        };
        assert!(matches!(l.as_ref(), Algebra::Union(..)));
    }

    #[test]
    fn union_joins_with_surrounding_triples() {
        let q = parse(
            "SELECT * WHERE { ?x <http://x/p> ?y . { ?y <http://x/q> ?z } UNION \
             { ?y <http://x/r> ?z } }",
        )
        .unwrap();
        let Algebra::Join(l, r) = body_of(&q) else {
            panic!("expected Join, got {q:?}");
        };
        assert!(matches!(l.as_ref(), Algebra::Bgp(_)));
        assert!(matches!(r.as_ref(), Algebra::Union(..)));
    }

    #[test]
    fn order_by_parses_keys() {
        let q = parse(
            "SELECT ?x WHERE { ?x <http://x/p> ?y } ORDER BY ?y DESC(?x) LIMIT 2",
        )
        .unwrap();
        let Algebra::Slice(inner, 0, Some(2)) = &q else {
            panic!("expected Slice, got {q:?}");
        };
        let Algebra::Project(inner, _) = inner.as_ref() else {
            panic!("expected Project");
        };
        let Algebra::OrderBy(_, keys) = inner.as_ref() else {
            panic!("expected OrderBy");
        };
        assert_eq!(keys, &[("y".to_owned(), false), ("x".to_owned(), true)]);
        assert!(parse("SELECT ?x WHERE { ?x <p> ?y } ORDER BY").is_err());
        assert!(parse("SELECT ?x WHERE { ?x <p> ?y } ORDER ?y").is_err());
    }

    #[test]
    fn group_filter_sees_optional_variables() {
        // The FILTER wraps the whole group, OPTIONAL included.
        let q = parse(
            "SELECT * WHERE { ?x <http://x/p> ?y OPTIONAL { ?y <http://x/q> ?z } \
             FILTER(?z != ?x) }",
        )
        .unwrap();
        let Algebra::Filter(inner, _) = body_of(&q) else {
            panic!("expected Filter at group level, got {q:?}");
        };
        assert!(matches!(inner.as_ref(), Algebra::LeftJoin(..)));
    }

    #[test]
    fn numeric_value_parses_literals_only() {
        assert_eq!(numeric_value(Term::literal("42").view()), Some(42.0));
        assert_eq!(numeric_value(Term::typed_literal("-3.5", "dt").view()), Some(-3.5));
        assert_eq!(numeric_value(Term::literal("hello").view()), None);
        assert_eq!(numeric_value(Term::iri("42").view()), None);
    }

    #[test]
    fn distinct_limit_offset() {
        let q = parse("SELECT DISTINCT ?x WHERE { ?x <http://x/knows> ?y } LIMIT 5 OFFSET 2")
            .unwrap();
        let Algebra::Slice(inner, 2, Some(5)) = &q else {
            panic!("expected Slice(2, 5), got {q:?}");
        };
        assert!(matches!(inner.as_ref(), Algebra::Distinct(_)));
        assert!(parse("SELECT ?x WHERE { ?x <p> ?y } LIMIT nope").is_err());
        assert!(parse("SELECT ?x WHERE { ?x <p> ?y } GARBAGE").is_err());
    }

    #[test]
    fn projection_resolves_to_columns() {
        let dict = sample_dict();
        let q = parse("PREFIX x: <http://x/> SELECT ?a WHERE { ?a x:knows ?b } LIMIT 1").unwrap();
        let plan = q.resolve(&dict).unwrap();
        assert_eq!(plan.out_vars(), vec![0]);
        assert_eq!(plan.var_names[0], "a");

        // Projecting a variable that does not occur errors at resolve.
        let bad = parse("PREFIX x: <http://x/> SELECT ?zzz WHERE { ?a x:knows ?b }").unwrap();
        assert!(bad.resolve(&dict).is_err());
        // So does an ORDER BY key that never occurs.
        let bad2 =
            parse("PREFIX x: <http://x/> SELECT ?a WHERE { ?a x:knows ?b } ORDER BY ?qq").unwrap();
        assert!(bad2.resolve(&dict).is_err());
    }

    #[test]
    fn literal_predicate_rejected_in_resolve() {
        // A literal sneaking into predicate position via a hand-built
        // tree is rejected at resolve time as well.
        let alg = Algebra::Bgp(vec![PPattern {
            s: PTerm::Var("x".into()),
            p: PTerm::Term(Term::literal("oops")),
            o: PTerm::Var("y".into()),
        }]);
        let dict = sample_dict();
        assert!(alg.resolve(&dict).is_err());
    }

    #[test]
    fn dual_position_variable_rejected() {
        let dict = sample_dict();
        let q = parse("SELECT * WHERE { ?x ?p ?y . ?y <http://x/knows> ?p }").unwrap();
        let e = q.resolve(&dict).unwrap_err();
        assert!(e.0.contains("both vertex and property positions"), "{e}");
    }

    #[test]
    fn update_insert_and_delete_data() {
        let up = parse_update(
            "PREFIX x: <http://x/> \
             DELETE DATA { x:alice x:knows x:bob } \
             INSERT DATA { x:alice x:knows x:carol . <http://x/bob> a x:Person . \
                           x:bob x:age \"42\"^^<http://www.w3.org/2001/XMLSchema#integer> }",
        )
        .unwrap();
        assert_eq!(up.deletes.len(), 1);
        assert_eq!(up.inserts.len(), 3);
        assert_eq!(up.len(), 4);
        assert!(!up.is_empty());
        let (s, p, o) = &up.deletes[0];
        assert_eq!(s, &Term::iri("http://x/alice"));
        assert_eq!(p, "http://x/knows");
        assert_eq!(o, &Term::iri("http://x/bob"));
        // 'a' expands to rdf:type; literal objects survive with datatype.
        assert_eq!(up.inserts[1].1, RDF_TYPE);
        assert!(matches!(&up.inserts[2].2, Term::Literal { lexical, .. } if lexical == "42"));
    }

    #[test]
    fn update_rejects_non_ground_and_malformed_data() {
        assert!(parse_update("INSERT DATA { ?x <http://x/p> <http://x/o> }").is_err());
        assert!(parse_update("INSERT DATA { \"lit\" <http://x/p> <http://x/o> }").is_err());
        assert!(parse_update("INSERT DATA { <http://x/s> \"lit\" <http://x/o> }").is_err());
        assert!(parse_update("INSERT { <http://x/s> <http://x/p> <http://x/o> }").is_err());
        assert!(parse_update("INSERT DATA { <http://x/s> <http://x/p> }").is_err());
        assert!(parse_update("SELECT ?x WHERE { ?x ?p ?y }").is_err());
        assert!(parse_update("").is_err());
        // Empty DATA blocks are fine — a no-op update.
        assert!(parse_update("INSERT DATA { }").unwrap().is_empty());
    }

    #[test]
    fn is_update_distinguishes_updates_from_queries() {
        assert!(is_update("INSERT DATA { <u:s> <u:p> <u:o> }"));
        assert!(is_update("  delete data { <u:s> <u:p> <u:o> }"));
        assert!(is_update("PREFIX x: <http://x/> INSERT DATA { x:a x:p x:b }"));
        assert!(!is_update("SELECT ?x WHERE { ?x ?p ?y }"));
        assert!(!is_update("PREFIX x: <http://x/> SELECT * WHERE { ?a x:p ?b }"));
    }
}

#[cfg(test)]
mod roundtrip {
    //! Render → reparse → equal-algebra proptests for the new grammar.
    use super::*;
    use crate::algebra::Algebra;
    use proptest::prelude::*;

    fn var_name() -> impl Strategy<Value = String> {
        (0u32..6).prop_map(|i| format!("v{i}"))
    }

    fn const_term() -> impl Strategy<Value = Term> {
        prop_oneof![
            (0u32..5).prop_map(|i| Term::iri(format!("http://x/{i}"))),
            (0u32..5).prop_map(|i| Term::literal(format!("lit{i}"))),
            (0u32..40).prop_map(|n| Term::typed_literal(
                n.to_string(),
                "http://www.w3.org/2001/XMLSchema#integer"
            )),
        ]
    }

    fn node_term() -> impl Strategy<Value = PTerm> {
        prop_oneof![
            var_name().prop_map(PTerm::Var),
            const_term().prop_map(PTerm::Term),
        ]
    }

    fn pred_term() -> impl Strategy<Value = PTerm> {
        prop_oneof![
            var_name().prop_map(PTerm::Var),
            (0u32..5).prop_map(|i| PTerm::Term(Term::iri(format!("http://x/p{i}")))),
        ]
    }

    fn pattern() -> impl Strategy<Value = PPattern> {
        (node_term(), pred_term(), node_term()).prop_map(|(s, p, o)| PPattern { s, p, o })
    }

    fn bgp() -> impl Strategy<Value = Algebra> {
        proptest::collection::vec(pattern(), 1..3).prop_map(Algebra::Bgp)
    }

    fn filter() -> impl Strategy<Value = Filter> {
        let operand = || {
            prop_oneof![
                var_name().prop_map(FilterOperand::Var),
                const_term().prop_map(FilterOperand::Term),
            ]
        };
        let op = prop_oneof![
            Just(CompareOp::Eq),
            Just(CompareOp::Ne),
            Just(CompareOp::Lt),
            Just(CompareOp::Le),
            Just(CompareOp::Gt),
            Just(CompareOp::Ge),
        ];
        (operand(), op, operand()).prop_map(|(lhs, op, rhs)| Filter { lhs, op, rhs })
    }

    /// A group element that renders inside braces (so adjacent bare
    /// BGPs — which the parser would merge — never occur).
    enum Element {
        Optional(Algebra),
        Union(Algebra, Algebra),
    }

    /// A group the way the parser folds one: a leading BGP, a run of
    /// braced elements joined left-to-right, then the group's FILTERs.
    fn group(depth: u32) -> BoxedStrategy<Algebra> {
        if depth == 0 {
            return bgp().boxed();
        }
        let element = prop_oneof![
            group(depth - 1).prop_map(Element::Optional),
            (group(depth - 1), group(depth - 1)).prop_map(|(l, r)| Element::Union(l, r)),
        ];
        (
            bgp(),
            proptest::collection::vec(element, 0..3),
            proptest::collection::vec(filter(), 0..2),
        )
            .prop_map(|(base, elements, filters)| {
                let mut acc = base;
                for e in elements {
                    acc = match e {
                        Element::Optional(g) => Algebra::LeftJoin(Box::new(acc), Box::new(g)),
                        Element::Union(l, r) => Algebra::Join(
                            Box::new(acc),
                            Box::new(Algebra::Union(Box::new(l), Box::new(r))),
                        ),
                    };
                }
                for f in filters {
                    acc = Algebra::Filter(Box::new(acc), f);
                }
                acc
            })
            .boxed()
    }

    fn query() -> impl Strategy<Value = Algebra> {
        (
            group(2),
            proptest::option::of(proptest::collection::vec(var_name(), 1..3)),
            any::<bool>(),
            proptest::collection::vec((var_name(), any::<bool>()), 0..3),
            proptest::option::of((0usize..4, proptest::option::of(0usize..5))),
        )
            .prop_map(|(body, select, distinct, order, slice)| {
                let mut tree = body;
                if !order.is_empty() {
                    tree = Algebra::OrderBy(Box::new(tree), order);
                }
                tree = Algebra::Project(Box::new(tree), select);
                if distinct {
                    tree = Algebra::Distinct(Box::new(tree));
                }
                match slice {
                    // OFFSET 0 with no LIMIT renders as no Slice at all;
                    // skip that degenerate shape.
                    Some((0, None)) | None => {}
                    Some((offset, limit)) => {
                        tree = Algebra::Slice(Box::new(tree), offset, limit);
                    }
                }
                tree
            })
    }

    proptest! {
        #[test]
        fn rendered_queries_reparse_to_equal_algebra(q in query()) {
            let text = q.to_sparql();
            let q2 = parse(&text)
                .unwrap_or_else(|e| panic!("reparse failed: {e}\nrendered: {text}"));
            prop_assert_eq!(&q, &q2, "rendered: {}", text);
        }
    }
}
