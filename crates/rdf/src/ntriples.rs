//! A streaming N-Triples parser and serializer.
//!
//! Covers the fragment real dumps use: IRIs, blank nodes, plain / typed /
//! language-tagged literals, `\"`/`\\`/`\n`/`\r`/`\t` and `\uXXXX` /
//! `\UXXXXXXXX` escapes, comments, and blank lines. Errors carry line
//! numbers.

use crate::builder::GraphBuilder;
use crate::graph::RdfGraph;
use crate::term::Term;
use std::fmt;
use std::io::{self, BufRead, Write};

/// A parse error with its 1-based line number.
#[derive(Debug)]
pub struct ParseError {
    /// 1-based line number where the error occurred.
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "N-Triples parse error at line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Errors from [`parse_reader`].
#[derive(Debug)]
pub enum NtError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Malformed N-Triples input.
    Parse(ParseError),
}

impl fmt::Display for NtError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NtError::Io(e) => write!(f, "I/O error: {e}"),
            NtError::Parse(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for NtError {}

impl From<io::Error> for NtError {
    fn from(e: io::Error) -> Self {
        NtError::Io(e)
    }
}

impl From<ParseError> for NtError {
    fn from(e: ParseError) -> Self {
        NtError::Parse(e)
    }
}

/// Parses an entire N-Triples document from a string.
pub fn parse_str(input: &str) -> Result<RdfGraph, ParseError> {
    let mut builder = GraphBuilder::new();
    for (i, line) in input.lines().enumerate() {
        parse_line(line, i + 1, &mut builder)?;
    }
    Ok(builder.build())
}

/// Parses an N-Triples document from a buffered reader, reusing one line
/// buffer (perf-book: avoid the per-line allocation of `lines()`).
pub fn parse_reader<R: BufRead>(mut reader: R) -> Result<RdfGraph, NtError> {
    let mut builder = GraphBuilder::new();
    let mut line = String::new();
    let mut lineno = 0usize;
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            break;
        }
        lineno += 1;
        parse_line(line.trim_end_matches(['\n', '\r']), lineno, &mut builder)?;
    }
    Ok(builder.build())
}

/// Serializes a graph as N-Triples to a writer.
///
/// Raw graphs (built without a dictionary) cannot be serialized faithfully;
/// their vertices are rendered as synthetic `<urn:v:N>` IRIs.
pub fn write_graph<W: Write>(graph: &RdfGraph, mut out: W) -> io::Result<()> {
    let dict = graph.dictionary();
    let has_terms = dict.vertex_count() == graph.vertex_count();
    for t in graph.triples() {
        if has_terms {
            writeln!(
                out,
                "{} <{}> {} .",
                dict.vertex_term(t.s),
                dict.property_iri(t.p),
                dict.vertex_term(t.o)
            )?;
        } else {
            writeln!(out, "<urn:v:{}> <urn:p:{}> <urn:v:{}> .", t.s.0, t.p.0, t.o.0)?;
        }
    }
    Ok(())
}

/// Serializes a graph to an N-Triples string.
pub fn to_string(graph: &RdfGraph) -> String {
    let mut buf = Vec::new();
    // mpc-allow: unwrap-expect io::Write on Vec<u8> is infallible
    write_graph(graph, &mut buf).expect("writing to Vec cannot fail");
    // mpc-allow: unwrap-expect the serializer only emits str fragments, hence valid UTF-8
    String::from_utf8(buf).expect("serializer emits UTF-8")
}

fn parse_line(line: &str, lineno: usize, builder: &mut GraphBuilder) -> Result<(), ParseError> {
    let mut cursor = Cursor::new(line, lineno);
    cursor.skip_ws();
    if cursor.at_end() || cursor.peek() == Some('#') {
        return Ok(());
    }
    let subject = cursor.parse_term()?;
    if subject.is_literal() {
        return Err(cursor.error("subject must not be a literal"));
    }
    cursor.skip_ws();
    let predicate = cursor.parse_term()?;
    let predicate_iri = match predicate {
        Term::Iri(i) => i,
        _ => return Err(cursor.error("predicate must be an IRI")),
    };
    cursor.skip_ws();
    let object = cursor.parse_term()?;
    cursor.skip_ws();
    if cursor.peek() != Some('.') {
        return Err(cursor.error("expected terminating '.'"));
    }
    cursor.advance();
    cursor.skip_ws();
    if let Some(c) = cursor.peek() {
        if c != '#' {
            return Err(cursor.error("trailing content after '.'"));
        }
    }
    builder.add(&subject, &predicate_iri, &object);
    Ok(())
}

/// Character cursor over one line.
struct Cursor<'a> {
    chars: std::iter::Peekable<std::str::Chars<'a>>,
    lineno: usize,
}

impl<'a> Cursor<'a> {
    fn new(line: &'a str, lineno: usize) -> Self {
        Cursor {
            chars: line.chars().peekable(),
            lineno,
        }
    }

    fn error(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            line: self.lineno,
            message: message.into(),
        }
    }

    fn peek(&mut self) -> Option<char> {
        self.chars.peek().copied()
    }

    fn advance(&mut self) -> Option<char> {
        self.chars.next()
    }

    fn at_end(&mut self) -> bool {
        self.peek().is_none()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(' ') | Some('\t')) {
            self.advance();
        }
    }

    fn parse_term(&mut self) -> Result<Term, ParseError> {
        match self.peek() {
            Some('<') => self.parse_iri().map(Term::Iri),
            Some('_') => self.parse_blank(),
            Some('"') => self.parse_literal(),
            Some(c) => Err(self.error(format!("unexpected character '{c}'"))),
            None => Err(self.error("unexpected end of line")),
        }
    }

    fn parse_iri(&mut self) -> Result<String, ParseError> {
        self.advance(); // '<'
        let mut iri = String::new();
        loop {
            match self.advance() {
                Some('>') => return Ok(iri),
                Some(c) if c != ' ' && c != '\t' => iri.push(c),
                Some(_) => return Err(self.error("whitespace inside IRI")),
                None => return Err(self.error("unterminated IRI")),
            }
        }
    }

    fn parse_blank(&mut self) -> Result<Term, ParseError> {
        self.advance(); // '_'
        if self.advance() != Some(':') {
            return Err(self.error("blank node must start with '_:'"));
        }
        let mut label = String::new();
        while let Some(c) = self.peek() {
            if c.is_alphanumeric() || c == '_' || c == '-' || c == '.' {
                label.push(c);
                self.advance();
            } else {
                break;
            }
        }
        if label.is_empty() {
            return Err(self.error("empty blank node label"));
        }
        Ok(Term::Blank(label))
    }

    fn parse_literal(&mut self) -> Result<Term, ParseError> {
        self.advance(); // '"'
        let mut lexical = String::new();
        loop {
            match self.advance() {
                Some('"') => break,
                Some('\\') => lexical.push(self.parse_escape()?),
                Some(c) => lexical.push(c),
                None => return Err(self.error("unterminated literal")),
            }
        }
        match self.peek() {
            Some('^') => {
                self.advance();
                if self.advance() != Some('^') {
                    return Err(self.error("datatype must be introduced by '^^'"));
                }
                if self.peek() != Some('<') {
                    return Err(self.error("datatype must be an IRI"));
                }
                let dt = self.parse_iri()?;
                Ok(Term::typed_literal(lexical, dt))
            }
            Some('@') => {
                self.advance();
                let mut lang = String::new();
                while let Some(c) = self.peek() {
                    if c.is_ascii_alphanumeric() || c == '-' {
                        lang.push(c);
                        self.advance();
                    } else {
                        break;
                    }
                }
                if lang.is_empty() {
                    return Err(self.error("empty language tag"));
                }
                Ok(Term::lang_literal(lexical, lang))
            }
            _ => Ok(Term::literal(lexical)),
        }
    }

    fn parse_escape(&mut self) -> Result<char, ParseError> {
        match self.advance() {
            Some('"') => Ok('"'),
            Some('\\') => Ok('\\'),
            Some('n') => Ok('\n'),
            Some('r') => Ok('\r'),
            Some('t') => Ok('\t'),
            Some('u') => self.parse_unicode_escape(4),
            Some('U') => self.parse_unicode_escape(8),
            Some(c) => Err(self.error(format!("unknown escape '\\{c}'"))),
            None => Err(self.error("dangling escape")),
        }
    }

    fn parse_unicode_escape(&mut self, digits: usize) -> Result<char, ParseError> {
        let mut value = 0u32;
        for _ in 0..digits {
            let c = self
                .advance()
                .ok_or_else(|| self.error("truncated unicode escape"))?;
            let d = c
                .to_digit(16)
                .ok_or_else(|| self.error(format!("invalid hex digit '{c}'")))?;
            value = value * 16 + d;
        }
        char::from_u32(value).ok_or_else(|| self.error(format!("invalid code point U+{value:X}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::TermRef;

    #[test]
    fn parses_basic_triples() {
        let g = parse_str(
            "<http://x/a> <http://x/p> <http://x/b> .\n\
             # a comment\n\
             \n\
             <http://x/b> <http://x/p> \"lit\" .\n",
        )
        .unwrap();
        assert_eq!(g.triple_count(), 2);
        assert_eq!(g.vertex_count(), 3);
        assert_eq!(g.property_count(), 1);
    }

    #[test]
    fn parses_blank_nodes_and_tags() {
        let g = parse_str(
            "_:b0 <http://x/p> \"5\"^^<http://www.w3.org/2001/XMLSchema#int> .\n\
             _:b0 <http://x/q> \"chat\"@fr .\n",
        )
        .unwrap();
        assert_eq!(g.triple_count(), 2);
        assert_eq!(g.property_count(), 2);
    }

    #[test]
    fn parses_escapes() {
        let g = parse_str(r#"<a> <p> "quote:\" slash:\\ nl:\n uni:A" ."#).unwrap();
        let dict = g.dictionary();
        let obj = dict.vertex_term(g.triples()[0].o);
        match obj {
            TermRef::Literal { lexical, .. } => {
                assert_eq!(lexical, "quote:\" slash:\\ nl:\n uni:A");
            }
            other => panic!("expected literal, got {other:?}"),
        }
    }

    #[test]
    fn separator_characters_never_merge_literal_flavours() {
        // `\u0001` / `\u0002` were once the in-band separators of the
        // dictionary key, so each pair below interned as one vertex.
        let g = parse_str(
            "<s> <p> \"a\\u0001b\" .\n<s> <p> \"a\"^^<b> .\n\
             <s> <p> \"x\\u0002en\" .\n<s> <p> \"x\"@en .\n",
        )
        .unwrap();
        let dict = g.dictionary();
        let objects: Vec<_> = g.triples().iter().map(|t| t.o).collect();
        let expected = [
            Term::literal("a\u{1}b"),
            Term::typed_literal("a", "b"),
            Term::literal("x\u{2}en"),
            Term::lang_literal("x", "en"),
        ];
        assert_eq!(g.vertex_count(), 5, "the subject and four distinct objects");
        for (o, term) in objects.iter().zip(&expected) {
            assert_eq!(dict.vertex_term(*o).to_term(), *term);
            assert_eq!(dict.vertex_id(term), Some(*o));
        }
    }

    #[test]
    fn roundtrip() {
        let src = "<http://x/a> <http://x/p> <http://x/b> .\n\
                   <http://x/a> <http://x/n> \"Al\\\"ice\" .\n\
                   _:b0 <http://x/p> \"5\"^^<http://x/int> .\n\
                   <http://x/b> <http://x/m> \"chat\"@fr .\n";
        let g = parse_str(src).unwrap();
        let out = to_string(&g);
        let g2 = parse_str(&out).unwrap();
        assert_eq!(g.triple_count(), g2.triple_count());
        assert_eq!(to_string(&g2), out);
    }

    #[test]
    fn error_has_line_number() {
        let err = parse_str("<a> <p> <b> .\n<a> <p> .\n").unwrap_err();
        assert_eq!(err.line, 2);
    }

    #[test]
    fn rejects_literal_subject() {
        assert!(parse_str("\"x\" <p> <b> .").is_err());
    }

    #[test]
    fn rejects_blank_predicate() {
        assert!(parse_str("<a> _:p <b> .").is_err());
    }

    #[test]
    fn rejects_missing_dot() {
        assert!(parse_str("<a> <p> <b>").is_err());
    }

    #[test]
    fn rejects_trailing_garbage() {
        assert!(parse_str("<a> <p> <b> . <extra>").is_err());
        // ... but a trailing comment is fine.
        assert!(parse_str("<a> <p> <b> . # ok").is_ok());
    }

    #[test]
    fn reader_matches_str_parser() {
        let src = "<a> <p> <b> .\n<b> <p> <c> .\n";
        let g1 = parse_str(src).unwrap();
        let g2 = parse_reader(src.as_bytes()).unwrap();
        assert_eq!(g1.triple_count(), g2.triple_count());
        assert_eq!(to_string(&g1), to_string(&g2));
    }

    #[test]
    fn raw_graph_serializes_synthetic_iris() {
        use crate::ids::{PropertyId, VertexId};
        use crate::triple::Triple;
        let g = RdfGraph::from_raw(
            2,
            1,
            vec![Triple::new(VertexId(0), PropertyId(0), VertexId(1))],
        );
        assert_eq!(to_string(&g), "<urn:v:0> <urn:p:0> <urn:v:1> .\n");
    }
}
