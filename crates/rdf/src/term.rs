//! RDF terms: IRIs, literals, and blank nodes.

use std::fmt;

/// An RDF term as it appears in a triple before dictionary encoding.
///
/// Literals keep their lexical form plus an optional datatype IRI or
/// language tag; that is enough for the BGP fragment the paper evaluates
/// (queries match terms by identity, never by typed-value semantics).
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Term {
    /// An IRI, stored without the surrounding angle brackets.
    Iri(String),
    /// A literal: lexical form, optional datatype IRI, optional language tag.
    Literal {
        /// The lexical form, unescaped.
        lexical: String,
        /// Datatype IRI, if any (mutually exclusive with `language` in
        /// well-formed RDF; we keep both optional and let the parser decide).
        datatype: Option<String>,
        /// Language tag without the leading `@`, if any.
        language: Option<String>,
    },
    /// A blank node, stored without the leading `_:`.
    Blank(String),
}

impl Term {
    /// Convenience constructor for an IRI term.
    pub fn iri(s: impl Into<String>) -> Self {
        Term::Iri(s.into())
    }

    /// Convenience constructor for a plain (untyped, untagged) literal.
    pub fn literal(s: impl Into<String>) -> Self {
        Term::Literal {
            lexical: s.into(),
            datatype: None,
            language: None,
        }
    }

    /// Convenience constructor for a typed literal.
    pub fn typed_literal(s: impl Into<String>, datatype: impl Into<String>) -> Self {
        Term::Literal {
            lexical: s.into(),
            datatype: Some(datatype.into()),
            language: None,
        }
    }

    /// Convenience constructor for a language-tagged literal.
    pub fn lang_literal(s: impl Into<String>, lang: impl Into<String>) -> Self {
        Term::Literal {
            lexical: s.into(),
            datatype: None,
            language: Some(lang.into()),
        }
    }

    /// Convenience constructor for a blank node.
    pub fn blank(s: impl Into<String>) -> Self {
        Term::Blank(s.into())
    }

    /// True if this term is an IRI.
    pub fn is_iri(&self) -> bool {
        matches!(self, Term::Iri(_))
    }

    /// True if this term is a literal.
    pub fn is_literal(&self) -> bool {
        matches!(self, Term::Literal { .. })
    }

    /// True if this term is a blank node.
    pub fn is_blank(&self) -> bool {
        matches!(self, Term::Blank(_))
    }

    /// The borrowed view of this term: what [`crate::Dictionary`] hands
    /// out for interned terms, ordered, compared and printed exactly as
    /// the term itself.
    pub fn view(&self) -> TermRef<'_> {
        match self {
            Term::Iri(i) => TermRef::Iri(i),
            Term::Blank(b) => TermRef::Blank(b),
            Term::Literal {
                lexical,
                datatype,
                language,
            } => TermRef::Literal {
                lexical,
                datatype: datatype.as_deref(),
                language: language.as_deref(),
            },
        }
    }
}

/// A borrowed RDF term: [`Term`] with `&str` parts, so it is `Copy` and
/// costs no allocation. Its `Eq`, `Ord`, `Hash` and `Display` agree with
/// [`Term`]'s (same variants and fields, in the same order), so sorting
/// views orders terms the way sorting owned terms does.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum TermRef<'a> {
    /// An IRI, without the surrounding angle brackets.
    Iri(&'a str),
    /// A literal: lexical form, optional datatype IRI, optional language tag.
    Literal {
        /// The lexical form, unescaped.
        lexical: &'a str,
        /// Datatype IRI, if any.
        datatype: Option<&'a str>,
        /// Language tag without the leading `@`, if any.
        language: Option<&'a str>,
    },
    /// A blank node, without the leading `_:`.
    Blank(&'a str),
}

impl TermRef<'_> {
    /// The owned term.
    pub fn to_term(self) -> Term {
        match self {
            TermRef::Iri(i) => Term::Iri(i.to_owned()),
            TermRef::Blank(b) => Term::Blank(b.to_owned()),
            TermRef::Literal {
                lexical,
                datatype,
                language,
            } => Term::Literal {
                lexical: lexical.to_owned(),
                datatype: datatype.map(str::to_owned),
                language: language.map(str::to_owned),
            },
        }
    }
}

impl fmt::Display for Term {
    /// Formats the term in N-Triples syntax.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&self.view(), f)
    }
}

impl fmt::Display for TermRef<'_> {
    /// Formats the term in N-Triples syntax.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            TermRef::Iri(i) => write!(f, "<{i}>"),
            TermRef::Blank(b) => write!(f, "_:{b}"),
            TermRef::Literal {
                lexical,
                datatype,
                language,
            } => {
                write!(f, "\"{}\"", escape_literal(lexical))?;
                if let Some(dt) = datatype {
                    write!(f, "^^<{dt}>")?;
                } else if let Some(lang) = language {
                    write!(f, "@{lang}")?;
                }
                Ok(())
            }
        }
    }
}

/// Escapes a literal's lexical form for N-Triples output.
pub fn escape_literal(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            _ => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_iri_and_blank() {
        assert_eq!(Term::iri("http://x/a").to_string(), "<http://x/a>");
        assert_eq!(Term::blank("b0").to_string(), "_:b0");
    }

    #[test]
    fn display_literals() {
        assert_eq!(Term::literal("hi").to_string(), "\"hi\"");
        assert_eq!(
            Term::typed_literal("5", "http://www.w3.org/2001/XMLSchema#int").to_string(),
            "\"5\"^^<http://www.w3.org/2001/XMLSchema#int>"
        );
        assert_eq!(Term::lang_literal("chat", "fr").to_string(), "\"chat\"@fr");
    }

    #[test]
    fn escaping() {
        assert_eq!(
            Term::literal("a\"b\\c\nd").to_string(),
            "\"a\\\"b\\\\c\\nd\""
        );
    }

    /// Interns `terms` into a fresh dictionary and asserts that no two
    /// share a vertex id.
    fn assert_distinct_dictionary_ids(terms: &[Term]) {
        let mut d = crate::Dictionary::new();
        let ids: Vec<_> = terms.iter().map(|t| d.intern_vertex(t)).collect();
        for (i, a) in ids.iter().enumerate() {
            for b in &ids[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn dictionary_keys_disambiguate_kinds() {
        assert_distinct_dictionary_ids(&[Term::iri("x"), Term::literal("x"), Term::blank("x")]);
    }

    #[test]
    fn dictionary_keys_disambiguate_literal_flavours() {
        assert_distinct_dictionary_ids(&[
            Term::literal("x"),
            Term::typed_literal("x", "dt"),
            Term::lang_literal("x", "en"),
        ]);
    }

    #[test]
    fn views_order_and_print_like_terms() {
        let mut terms = vec![
            Term::typed_literal("x", "dt"),
            Term::blank("x"),
            Term::lang_literal("x", "en"),
            Term::literal("x"),
            Term::iri("x"),
        ];
        let mut views: Vec<TermRef<'_>> = terms.iter().map(Term::view).collect();
        views.sort();
        let sorted_views: Vec<Term> = views.iter().map(|v| v.to_term()).collect();
        terms.sort();
        assert_eq!(sorted_views, terms);
        for t in &terms {
            assert_eq!(t.view().to_string(), t.to_string());
            assert_eq!(t.view().to_term(), *t);
        }
    }

    #[test]
    fn kind_predicates() {
        assert!(Term::iri("a").is_iri());
        assert!(Term::literal("a").is_literal());
        assert!(Term::blank("a").is_blank());
        assert!(!Term::iri("a").is_literal());
    }
}
