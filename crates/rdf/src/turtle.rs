//! A Turtle parser (subset) and prefix-compressing serializer.
//!
//! Real RDF dumps overwhelmingly ship as Turtle; this module covers the
//! fragment those dumps use:
//!
//! * `@prefix` / SPARQL-style `PREFIX` directives and prefixed names,
//! * `@base` / `BASE` (resolved by plain concatenation for relative IRIs),
//! * predicate lists (`;`) and object lists (`,`),
//! * the `a` keyword for `rdf:type`,
//! * blank nodes (`_:label`) and the anonymous blank node `[]`,
//! * literals: quoted strings with the usual escapes, `@lang` tags,
//!   `^^` datatypes, and the numeric / boolean shorthands (`42`, `-3.14`,
//!   `true`), which get their XSD datatypes,
//! * `#` comments.
//!
//! Not covered (rejected with a clear error): collections `( … )`,
//! property lists inside `[ … ]`, and multiline `"""` strings.

use crate::builder::GraphBuilder;
use crate::graph::RdfGraph;
use crate::term::{Term, TermRef};
use std::fmt;

/// `rdf:type`, which the `a` keyword abbreviates.
pub const RDF_TYPE: &str = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type";
/// XSD integer datatype for numeric shorthand.
pub const XSD_INTEGER: &str = "http://www.w3.org/2001/XMLSchema#integer";
/// XSD decimal datatype for numeric shorthand.
pub const XSD_DECIMAL: &str = "http://www.w3.org/2001/XMLSchema#decimal";
/// XSD boolean datatype for `true` / `false`.
pub const XSD_BOOLEAN: &str = "http://www.w3.org/2001/XMLSchema#boolean";

/// A Turtle parse error with position information.
#[derive(Debug, Clone)]
pub struct TurtleError {
    /// 1-based line.
    pub line: usize,
    /// Message.
    pub message: String,
}

impl fmt::Display for TurtleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Turtle parse error at line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for TurtleError {}

/// Parses a Turtle document into a graph.
pub fn parse_str(input: &str) -> Result<RdfGraph, TurtleError> {
    let mut parser = Parser {
        chars: input.chars().collect(),
        pos: 0,
        line: 1,
        prefixes: crate::hash::FxHashMap::default(),
        base: String::new(),
        builder: GraphBuilder::new(),
        next_anon: 0,
    };
    parser.document()?;
    Ok(parser.builder.build())
}

struct Parser {
    chars: Vec<char>,
    pos: usize,
    line: usize,
    prefixes: crate::hash::FxHashMap<String, String>,
    base: String,
    builder: GraphBuilder,
    next_anon: usize,
}

impl Parser {
    fn err(&self, message: impl Into<String>) -> TurtleError {
        TurtleError {
            line: self.line,
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<char> {
        self.chars.get(self.pos).copied()
    }

    fn peek2(&self) -> Option<char> {
        self.chars.get(self.pos + 1).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek();
        if let Some(c) = c {
            self.pos += 1;
            if c == '\n' {
                self.line += 1;
            }
        }
        c
    }

    fn skip_ws(&mut self) {
        loop {
            match self.peek() {
                Some(c) if c.is_whitespace() => {
                    self.bump();
                }
                Some('#') => {
                    while let Some(c) = self.bump() {
                        if c == '\n' {
                            break;
                        }
                    }
                }
                _ => break,
            }
        }
    }

    fn at_end(&mut self) -> bool {
        self.skip_ws();
        self.peek().is_none()
    }

    fn expect_char(&mut self, c: char) -> Result<(), TurtleError> {
        self.skip_ws();
        match self.bump() {
            Some(x) if x == c => Ok(()),
            Some(x) => Err(self.err(format!("expected '{c}', got '{x}'"))),
            None => Err(self.err(format!("expected '{c}', got end of input"))),
        }
    }

    fn document(&mut self) -> Result<(), TurtleError> {
        while !self.at_end() {
            if self.try_directive()? {
                continue;
            }
            self.triples_block()?;
        }
        Ok(())
    }

    /// Parses `@prefix`, `@base`, `PREFIX`, or `BASE`. Returns true if a
    /// directive was consumed.
    fn try_directive(&mut self) -> Result<bool, TurtleError> {
        self.skip_ws();
        let at_form = self.peek() == Some('@');
        let keyword = self.peek_keyword();
        match keyword.as_deref() {
            Some("@prefix") | Some("prefix") if at_form || keyword.as_deref() == Some("prefix") => {
                self.consume_keyword();
                self.skip_ws();
                let name = self.parse_prefix_name()?;
                self.skip_ws();
                let iri = self.parse_iri_ref()?;
                self.prefixes.insert(name, iri);
                if at_form {
                    self.expect_char('.')?;
                }
                Ok(true)
            }
            Some("@base") | Some("base") => {
                self.consume_keyword();
                self.skip_ws();
                let iri = self.parse_iri_ref()?;
                self.base = iri;
                if at_form {
                    self.expect_char('.')?;
                }
                Ok(true)
            }
            _ => Ok(false),
        }
    }

    /// Looks ahead for a directive keyword without consuming.
    fn peek_keyword(&mut self) -> Option<String> {
        self.skip_ws();
        let mut out = String::new();
        let mut i = self.pos;
        if self.chars.get(i) == Some(&'@') {
            out.push('@');
            i += 1;
        }
        while let Some(&c) = self.chars.get(i) {
            if c.is_ascii_alphabetic() {
                out.push(c.to_ascii_lowercase());
                i += 1;
            } else {
                break;
            }
        }
        // A bare word is only a directive keyword if it's exactly
        // "prefix"/"base" followed by whitespace (SPARQL-style, no '@').
        if out.is_empty() {
            None
        } else {
            Some(out)
        }
    }

    fn consume_keyword(&mut self) {
        self.skip_ws();
        if self.peek() == Some('@') {
            self.bump();
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_alphabetic()) {
            self.bump();
        }
    }

    fn parse_prefix_name(&mut self) -> Result<String, TurtleError> {
        let mut name = String::new();
        while let Some(c) = self.peek() {
            if c == ':' {
                self.bump();
                return Ok(name);
            }
            if c.is_alphanumeric() || c == '_' || c == '-' || c == '.' {
                name.push(c);
                self.bump();
            } else {
                return Err(self.err(format!("bad prefix name character '{c}'")));
            }
        }
        Err(self.err("unterminated prefix name"))
    }

    fn parse_iri_ref(&mut self) -> Result<String, TurtleError> {
        self.skip_ws();
        if self.bump() != Some('<') {
            return Err(self.err("expected '<'"));
        }
        let mut iri = String::new();
        loop {
            match self.bump() {
                Some('>') => break,
                Some(c) if !c.is_whitespace() => iri.push(c),
                Some(_) => return Err(self.err("whitespace inside IRI")),
                None => return Err(self.err("unterminated IRI")),
            }
        }
        // Resolve relative IRIs by concatenation with @base.
        if !iri.contains(':') && !self.base.is_empty() {
            Ok(format!("{}{iri}", self.base))
        } else {
            Ok(iri)
        }
    }

    /// One `subject predicateObjectList .` block.
    fn triples_block(&mut self) -> Result<(), TurtleError> {
        let subject = self.parse_term(TermPosition::Subject)?;
        loop {
            self.skip_ws();
            let predicate = self.parse_predicate()?;
            loop {
                let object = self.parse_term(TermPosition::Object)?;
                self.builder.add(&subject, &predicate, &object);
                self.skip_ws();
                match self.peek() {
                    Some(',') => {
                        self.bump();
                    }
                    _ => break,
                }
            }
            self.skip_ws();
            match self.peek() {
                Some(';') => {
                    self.bump();
                    self.skip_ws();
                    // Turtle allows trailing ';' before '.'.
                    if self.peek() == Some('.') {
                        self.bump();
                        return Ok(());
                    }
                }
                Some('.') => {
                    self.bump();
                    return Ok(());
                }
                Some(c) => return Err(self.err(format!("expected ';' or '.', got '{c}'"))),
                None => return Err(self.err("unterminated triples block")),
            }
        }
    }

    fn parse_predicate(&mut self) -> Result<String, TurtleError> {
        self.skip_ws();
        // `a` keyword.
        if self.peek() == Some('a')
            && self
                .peek2()
                .is_none_or(|c| c.is_whitespace() || c == '<' || c == '[')
        {
            self.bump();
            return Ok(RDF_TYPE.to_owned());
        }
        match self.parse_term(TermPosition::Predicate)? {
            Term::Iri(iri) => Ok(iri),
            other => Err(self.err(format!("predicate must be an IRI, got {other}"))),
        }
    }

    fn parse_term(&mut self, position: TermPosition) -> Result<Term, TurtleError> {
        self.skip_ws();
        match self.peek() {
            Some('<') => Ok(Term::Iri(self.parse_iri_ref()?)),
            Some('_') => self.parse_blank(),
            Some('[') => {
                self.bump();
                self.skip_ws();
                if self.peek() == Some(']') {
                    self.bump();
                    let label = format!("anon{}", self.next_anon);
                    self.next_anon += 1;
                    Ok(Term::Blank(label))
                } else {
                    Err(self.err("property lists inside [ ] are not supported"))
                }
            }
            Some('(') => Err(self.err("RDF collections ( ) are not supported")),
            Some('"') => {
                if position == TermPosition::Object {
                    self.parse_literal()
                } else {
                    Err(self.err("literals are only allowed in object position"))
                }
            }
            Some(c) if c == '+' || c == '-' || c.is_ascii_digit() => {
                if position == TermPosition::Object {
                    self.parse_numeric()
                } else {
                    Err(self.err("numeric literals are only allowed in object position"))
                }
            }
            Some(c) if c.is_alphabetic() || c == ':' => {
                // Boolean shorthand or prefixed name.
                if position == TermPosition::Object {
                    if self.try_word("true") {
                        return Ok(Term::typed_literal("true", XSD_BOOLEAN));
                    }
                    if self.try_word("false") {
                        return Ok(Term::typed_literal("false", XSD_BOOLEAN));
                    }
                }
                self.parse_prefixed_name().map(Term::Iri)
            }
            Some(c) => Err(self.err(format!("unexpected character '{c}'"))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// Consumes `word` if present and followed by a delimiter.
    fn try_word(&mut self, word: &str) -> bool {
        let end = self.pos + word.len();
        if end > self.chars.len() {
            return false;
        }
        let slice: String = self.chars[self.pos..end].iter().collect();
        if slice != word {
            return false;
        }
        match self.chars.get(end) {
            Some(&c) if c.is_alphanumeric() || c == '_' || c == ':' => false,
            _ => {
                self.pos = end;
                true
            }
        }
    }

    fn parse_blank(&mut self) -> Result<Term, TurtleError> {
        self.bump(); // '_'
        if self.bump() != Some(':') {
            return Err(self.err("blank node must start with '_:'"));
        }
        let mut label = String::new();
        while let Some(c) = self.peek() {
            if c.is_alphanumeric() || c == '_' || c == '-' {
                label.push(c);
                self.bump();
            } else {
                break;
            }
        }
        if label.is_empty() {
            return Err(self.err("empty blank node label"));
        }
        Ok(Term::Blank(label))
    }

    fn parse_prefixed_name(&mut self) -> Result<String, TurtleError> {
        let mut prefix = String::new();
        while let Some(c) = self.peek() {
            if c == ':' {
                self.bump();
                let base = self
                    .prefixes
                    .get(&prefix)
                    .ok_or_else(|| self.err(format!("unknown prefix '{prefix}:'")))?
                    .clone();
                let mut local = String::new();
                while let Some(c) = self.peek() {
                    if c.is_alphanumeric() || c == '_' || c == '-' {
                        local.push(c);
                        self.bump();
                    } else {
                        break;
                    }
                }
                return Ok(format!("{base}{local}"));
            }
            if c.is_alphanumeric() || c == '_' || c == '-' || c == '.' {
                prefix.push(c);
                self.bump();
            } else {
                return Err(self.err(format!("bad name character '{c}'")));
            }
        }
        Err(self.err("unterminated prefixed name"))
    }

    fn parse_literal(&mut self) -> Result<Term, TurtleError> {
        self.bump(); // '"'
        if self.peek() == Some('"') && self.peek2() == Some('"') {
            return Err(self.err("multiline \"\"\" strings are not supported"));
        }
        let mut lexical = String::new();
        loop {
            match self.bump() {
                Some('"') => break,
                Some('\\') => match self.bump() {
                    Some('"') => lexical.push('"'),
                    Some('\\') => lexical.push('\\'),
                    Some('n') => lexical.push('\n'),
                    Some('r') => lexical.push('\r'),
                    Some('t') => lexical.push('\t'),
                    Some('u') => lexical.push(self.unicode_escape(4)?),
                    Some('U') => lexical.push(self.unicode_escape(8)?),
                    Some(c) => return Err(self.err(format!("unknown escape '\\{c}'"))),
                    None => return Err(self.err("dangling escape")),
                },
                Some(c) => lexical.push(c),
                None => return Err(self.err("unterminated literal")),
            }
        }
        match self.peek() {
            Some('@') => {
                self.bump();
                let mut lang = String::new();
                while let Some(c) = self.peek() {
                    if c.is_ascii_alphanumeric() || c == '-' {
                        lang.push(c);
                        self.bump();
                    } else {
                        break;
                    }
                }
                if lang.is_empty() {
                    return Err(self.err("empty language tag"));
                }
                Ok(Term::lang_literal(lexical, lang))
            }
            Some('^') => {
                self.bump();
                if self.bump() != Some('^') {
                    return Err(self.err("datatype must be introduced by '^^'"));
                }
                self.skip_ws();
                let dt = match self.peek() {
                    Some('<') => self.parse_iri_ref()?,
                    _ => self.parse_prefixed_name()?,
                };
                Ok(Term::typed_literal(lexical, dt))
            }
            _ => Ok(Term::literal(lexical)),
        }
    }

    fn unicode_escape(&mut self, digits: usize) -> Result<char, TurtleError> {
        let mut value = 0u32;
        for _ in 0..digits {
            let c = self.bump().ok_or_else(|| self.err("truncated unicode escape"))?;
            let d = c
                .to_digit(16)
                .ok_or_else(|| self.err(format!("invalid hex digit '{c}'")))?;
            value = value * 16 + d;
        }
        char::from_u32(value).ok_or_else(|| self.err(format!("invalid code point U+{value:X}")))
    }

    fn parse_numeric(&mut self) -> Result<Term, TurtleError> {
        let mut text = String::new();
        if let Some(sign @ ('+' | '-')) = self.peek() {
            self.bump();
            text.push(sign);
        }
        let mut is_decimal = false;
        while let Some(c) = self.peek() {
            if c.is_ascii_digit() {
                text.push(c);
                self.bump();
            } else if c == '.' && self.peek2().is_some_and(|d| d.is_ascii_digit()) {
                is_decimal = true;
                text.push(c);
                self.bump();
            } else {
                break;
            }
        }
        if text.is_empty() || text == "+" || text == "-" {
            return Err(self.err("malformed numeric literal"));
        }
        let dt = if is_decimal { XSD_DECIMAL } else { XSD_INTEGER };
        Ok(Term::typed_literal(text, dt))
    }
}

#[derive(PartialEq, Clone, Copy)]
enum TermPosition {
    Subject,
    Predicate,
    Object,
}

/// Serializes a graph as Turtle, grouping triples by subject (predicate
/// lists) and compressing IRIs under the namespaces passed in `prefixes`
/// (pairs of `(prefix, namespace_iri)`).
pub fn to_string(graph: &RdfGraph, prefixes: &[(&str, &str)]) -> String {
    use std::fmt::Write as _;
    let dict = graph.dictionary();
    let has_terms = dict.vertex_count() == graph.vertex_count();
    let mut out = String::new();
    for (name, iri) in prefixes {
        let _ = writeln!(out, "@prefix {name}: <{iri}> .");
    }
    if !prefixes.is_empty() {
        out.push('\n');
    }
    let compress = |iri: &str| -> String {
        for (name, ns) in prefixes {
            if let Some(local) = iri.strip_prefix(ns) {
                if !local.is_empty()
                    && local.chars().all(|c| c.is_alphanumeric() || c == '_' || c == '-')
                {
                    return format!("{name}:{local}");
                }
            }
        }
        format!("<{iri}>")
    };
    let term_str = |t: TermRef<'_>| -> String {
        match t {
            TermRef::Iri(i) => compress(i),
            other => other.to_string(),
        }
    };

    // Group by subject, preserving first-seen subject order.
    let mut order: Vec<u32> = Vec::new();
    let mut groups: crate::hash::FxHashMap<u32, Vec<usize>> = Default::default();
    for (i, t) in graph.triples().iter().enumerate() {
        groups
            .entry(t.s.0)
            .or_insert_with(|| {
                order.push(t.s.0);
                Vec::new()
            })
            .push(i);
    }
    for s in order {
        let idxs = &groups[&s];
        let subject = if has_terms {
            term_str(dict.vertex_term(crate::ids::VertexId(s)))
        } else {
            format!("<urn:v:{s}>")
        };
        let _ = write!(out, "{subject} ");
        for (j, &i) in idxs.iter().enumerate() {
            let t = graph.triples()[i];
            let p = if has_terms {
                let iri = dict.property_iri(t.p);
                if iri == RDF_TYPE {
                    "a".to_owned()
                } else {
                    compress(iri)
                }
            } else {
                format!("<urn:p:{}>", t.p.0)
            };
            let o = if has_terms {
                term_str(dict.vertex_term(t.o))
            } else {
                format!("<urn:v:{}>", t.o.0)
            };
            if j == 0 {
                let _ = write!(out, "{p} {o}");
            } else {
                let _ = write!(out, " ;\n    {p} {o}");
            }
        }
        out.push_str(" .\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_basic_document() {
        let g = parse_str(
            "@prefix ex: <http://ex/> .\n\
             ex:alice ex:knows ex:bob .\n\
             ex:bob ex:knows ex:carol .",
        )
        .unwrap();
        assert_eq!(g.triple_count(), 2);
        assert_eq!(g.vertex_count(), 3);
    }

    #[test]
    fn predicate_and_object_lists() {
        let g = parse_str(
            "@prefix ex: <http://ex/> .\n\
             ex:a ex:p ex:b , ex:c ;\n\
                  ex:q ex:d ;\n\
                  a ex:Thing .",
        )
        .unwrap();
        assert_eq!(g.triple_count(), 4);
        let dict = g.dictionary();
        assert!(dict.property_id(RDF_TYPE).is_some());
    }

    #[test]
    fn sparql_style_directives() {
        let g = parse_str(
            "PREFIX ex: <http://ex/>\n\
             ex:a ex:p ex:b .",
        )
        .unwrap();
        assert_eq!(g.triple_count(), 1);
    }

    #[test]
    fn base_resolution() {
        let g = parse_str(
            "@base <http://ex/> .\n\
             <a> <p> <b> .",
        )
        .unwrap();
        let dict = g.dictionary();
        assert!(dict.vertex_id(&Term::iri("http://ex/a")).is_some());
        assert!(dict.property_id("http://ex/p").is_some());
    }

    #[test]
    fn literals_and_shorthands() {
        let g = parse_str(
            "@prefix ex: <http://ex/> .\n\
             @prefix xsd: <http://www.w3.org/2001/XMLSchema#> .\n\
             ex:a ex:name \"Alice\" ;\n\
                  ex:age 42 ;\n\
                  ex:height 1.75 ;\n\
                  ex:active true ;\n\
                  ex:label \"chat\"@fr ;\n\
                  ex:code \"x\"^^xsd:string .",
        )
        .unwrap();
        assert_eq!(g.triple_count(), 6);
        let dict = g.dictionary();
        assert!(dict
            .vertex_id(&Term::typed_literal("42", XSD_INTEGER))
            .is_some());
        assert!(dict
            .vertex_id(&Term::typed_literal("1.75", XSD_DECIMAL))
            .is_some());
        assert!(dict
            .vertex_id(&Term::typed_literal("true", XSD_BOOLEAN))
            .is_some());
        assert!(dict.vertex_id(&Term::lang_literal("chat", "fr")).is_some());
    }

    #[test]
    fn blank_nodes() {
        let g = parse_str(
            "@prefix ex: <http://ex/> .\n\
             _:b1 ex:p _:b2 .\n\
             [] ex:p ex:c .",
        )
        .unwrap();
        assert_eq!(g.triple_count(), 2);
        assert_eq!(g.vertex_count(), 4); // b1, b2, anon, c
    }

    #[test]
    fn errors_are_positioned_and_clear() {
        let err = parse_str("@prefix ex: <http://ex/> .\nex:a ex:p (1 2) .").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("collections"));

        assert!(parse_str("ex:a ex:p ex:b .").is_err()); // unknown prefix
        assert!(parse_str("<a> \"lit\" <b> .").is_err()); // literal predicate
        assert!(parse_str("<a> <p> <b> ").is_err()); // missing dot
        assert!(parse_str("<a> <p> [ <q> <r> ] .").is_err()); // nested blank
    }

    #[test]
    fn round_trip_through_serializer() {
        let src = "@prefix ex: <http://ex/> .\n\
                   ex:a ex:p ex:b ;\n\
                        ex:q \"lit\" , \"zwei\"@de ;\n\
                        a ex:Thing .\n\
                   ex:b ex:p ex:a .";
        let g = parse_str(src).unwrap();
        let out = to_string(&g, &[("ex", "http://ex/")]);
        let g2 = parse_str(&out).unwrap();
        assert_eq!(g.triple_count(), g2.triple_count());
        assert_eq!(g.vertex_count(), g2.vertex_count());
        // And the serializer actually compressed something.
        assert!(out.contains("ex:a"), "{out}");
        assert!(out.contains(" a ex:Thing") || out.contains("a ex:Thing"), "{out}");
    }

    #[test]
    fn ntriples_is_valid_turtle() {
        // N-Triples documents are Turtle documents.
        let src = "<http://ex/a> <http://ex/p> <http://ex/b> .\n\
                   <http://ex/b> <http://ex/n> \"5\"^^<http://www.w3.org/2001/XMLSchema#int> .\n";
        let nt = crate::ntriples::parse_str(src).unwrap();
        let ttl = parse_str(src).unwrap();
        assert_eq!(nt.triple_count(), ttl.triple_count());
        assert_eq!(nt.vertex_count(), ttl.vertex_count());
    }

    #[test]
    fn comments_anywhere() {
        let g = parse_str(
            "# header\n@prefix ex: <http://ex/> . # trailing\nex:a ex:p ex:b . # done",
        )
        .unwrap();
        assert_eq!(g.triple_count(), 1);
    }

    #[test]
    fn trailing_semicolon_before_dot() {
        let g = parse_str("@prefix ex: <http://ex/> .\nex:a ex:p ex:b ; .").unwrap();
        assert_eq!(g.triple_count(), 1);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::builder::GraphBuilder;
    use proptest::prelude::*;

    fn term_strategy() -> impl Strategy<Value = Term> {
        prop_oneof![
            (0u32..12).prop_map(|i| Term::iri(format!("http://ex/e{i}"))),
            (0u32..6).prop_map(|i| Term::blank(format!("b{i}"))),
            "[a-zA-Z0-9 ]{0,8}".prop_map(Term::literal),
            ("[a-z]{1,6}", 0u32..3).prop_map(|(s, l)| Term::lang_literal(s, format!("l{l}"))),
            ("[0-9]{1,4}", 0u32..2)
                .prop_map(|(s, d)| Term::typed_literal(s, format!("http://ex/dt{d}"))),
        ]
    }

    fn graph_strategy() -> impl Strategy<Value = crate::RdfGraph> {
        proptest::collection::vec(
            (term_strategy(), 0u32..5, term_strategy()),
            1..25,
        )
        .prop_map(|triples| {
            let mut b = GraphBuilder::new();
            for (s, p, o) in triples {
                // Subjects must not be literals.
                let s = match s {
                    Term::Literal { .. } => Term::iri("http://ex/subst"),
                    other => other,
                };
                b.add(&s, &format!("http://ex/p{p}"), &o);
            }
            b.build()
        })
    }

    /// Canonical multiset of (s, p, o) term strings for comparison across
    /// re-interning.
    fn canonical(g: &crate::RdfGraph) -> Vec<(String, String, String)> {
        let dict = g.dictionary();
        let mut out: Vec<_> = g
            .triples()
            .iter()
            .map(|t| {
                (
                    dict.vertex_term(t.s).to_string(),
                    dict.property_iri(t.p).to_owned(),
                    dict.vertex_term(t.o).to_string(),
                )
            })
            .collect();
        out.sort();
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Serialize → parse is the identity on term-level triples, with
        /// and without prefix compression.
        #[test]
        fn round_trip(g in graph_strategy()) {
            for prefixes in [vec![], vec![("ex", "http://ex/")]] {
                let text = to_string(&g, &prefixes);
                let parsed = parse_str(&text)
                    .unwrap_or_else(|e| panic!("reparse failed: {e}\n{text}"));
                prop_assert_eq!(canonical(&parsed), canonical(&g), "{}", text);
            }
        }
    }
}
