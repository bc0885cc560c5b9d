//! SPARQL BGP query graphs (Definition 3.5).

use mpc_rdf::{FxHashMap, PropertyId, VertexId};
use mpc_rdf::narrow;

/// A query vertex: either a variable or a constant RDF vertex.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub enum QNode {
    /// A variable, identified by its index into [`Query::var_names`].
    Var(u32),
    /// A constant (IRI/literal/blank) resolved to its dictionary id.
    Const(VertexId),
}

impl QNode {
    /// The variable index, if this is a variable.
    pub fn as_var(&self) -> Option<u32> {
        match self {
            QNode::Var(v) => Some(*v),
            QNode::Const(_) => None,
        }
    }
}

/// A query edge label: a property constant or a variable.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub enum QLabel {
    /// A variable in the property position.
    Var(u32),
    /// A fixed property.
    Prop(PropertyId),
}

impl QLabel {
    /// The variable index, if this is a variable.
    pub fn as_var(&self) -> Option<u32> {
        match self {
            QLabel::Var(v) => Some(*v),
            QLabel::Prop(_) => None,
        }
    }

    /// The property, if fixed.
    pub fn as_prop(&self) -> Option<PropertyId> {
        match self {
            QLabel::Prop(p) => Some(*p),
            QLabel::Var(_) => None,
        }
    }
}

/// One triple pattern `s --p--> o`.
///
/// The derived ordering (subject, then property, then object) is what
/// [`crate::canon`] sorts canonical pattern lists by; it has no semantic
/// meaning beyond being total and deterministic.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct TriplePattern {
    /// Subject node.
    pub s: QNode,
    /// Property label.
    pub p: QLabel,
    /// Object node.
    pub o: QNode,
}

impl TriplePattern {
    /// Constructs a pattern.
    pub fn new(s: QNode, p: QLabel, o: QNode) -> Self {
        TriplePattern { s, p, o }
    }

    /// The variables in its subject, property and object positions, in
    /// that order (a variable repeated in the pattern repeats here).
    pub fn vars(&self) -> impl Iterator<Item = u32> {
        [self.s.as_var(), self.p.as_var(), self.o.as_var()]
            .into_iter()
            .flatten()
    }
}

/// A BGP query: a multiset of triple patterns over a shared variable space.
///
/// Variables in vertex positions and in property positions share one index
/// space; the same variable must not appear in both kinds of position.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Query {
    /// The triple patterns (query edges).
    pub patterns: Vec<TriplePattern>,
    /// Variable names by index (without the leading `?`).
    pub var_names: Vec<String>,
}

impl Query {
    /// Creates a query; validates that no variable is used both as a vertex
    /// and as a property.
    pub fn new(patterns: Vec<TriplePattern>, var_names: Vec<String>) -> Self {
        let mut vertex_use = vec![false; var_names.len()];
        let mut label_use = vec![false; var_names.len()];
        for pat in &patterns {
            for node in [pat.s, pat.o] {
                if let QNode::Var(v) = node {
                    vertex_use[v as usize] = true;
                }
            }
            if let QLabel::Var(v) = pat.p {
                label_use[v as usize] = true;
            }
        }
        for i in 0..var_names.len() {
            assert!(
                !(vertex_use[i] && label_use[i]),
                "variable ?{} used in both vertex and property positions",
                var_names[i]
            );
        }
        Query {
            patterns,
            var_names,
        }
    }

    /// Number of variables.
    pub fn var_count(&self) -> usize {
        self.var_names.len()
    }

    /// Number of triple patterns.
    pub fn len(&self) -> usize {
        self.patterns.len()
    }

    /// True if the query has no patterns.
    pub fn is_empty(&self) -> bool {
        self.patterns.is_empty()
    }

    /// Distinct query vertices (variables and constants), in first-seen
    /// order.
    pub fn query_vertices(&self) -> Vec<QNode> {
        let mut seen: FxHashMap<QNode, ()> = FxHashMap::default();
        let mut out = Vec::new();
        for pat in &self.patterns {
            for node in [pat.s, pat.o] {
                if seen.insert(node, ()).is_none() {
                    out.push(node);
                }
            }
        }
        out
    }

    /// All distinct fixed properties used in the query.
    pub fn properties(&self) -> Vec<PropertyId> {
        let mut seen: FxHashMap<PropertyId, ()> = FxHashMap::default();
        let mut out = Vec::new();
        for pat in &self.patterns {
            if let QLabel::Prop(p) = pat.p {
                if seen.insert(p, ()).is_none() {
                    out.push(p);
                }
            }
        }
        out
    }

    /// True if any pattern has a variable in the property position.
    pub fn has_property_variables(&self) -> bool {
        self.patterns.iter().any(|p| p.p.as_var().is_some())
    }

    /// True if the query is a *star*: one central vertex incident to every
    /// pattern (the class all vertex-disjoint systems localize).
    pub fn is_star(&self) -> bool {
        if self.patterns.is_empty() {
            return false;
        }
        let candidates = [self.patterns[0].s, self.patterns[0].o];
        candidates.iter().any(|&c| {
            self.patterns.iter().all(|pat| pat.s == c || pat.o == c)
        })
    }

    /// True if the query graph is weakly connected (patterns linked through
    /// shared vertices).
    pub fn is_weakly_connected(&self) -> bool {
        self.pattern_components(|_| true).len() <= 1
    }

    /// Groups pattern indices into weakly connected components of the query
    /// graph **after keeping only patterns for which `keep` is true**.
    /// Dropped patterns' endpoints still count as (isolated) query vertices
    /// if no kept pattern touches them — but such vertices appear in no
    /// group. Used by IEQ classification and Algorithm 2.
    pub fn pattern_components(&self, keep: impl Fn(&TriplePattern) -> bool) -> Vec<Vec<usize>> {
        // Union-find over query vertices, driven by kept patterns.
        let vertices = self.query_vertices();
        let index: FxHashMap<QNode, usize> =
            vertices.iter().enumerate().map(|(i, &v)| (v, i)).collect();
        let mut parent: Vec<usize> = (0..vertices.len()).collect();
        fn find(parent: &mut [usize], x: usize) -> usize {
            let mut r = x;
            while parent[r] != r {
                r = parent[r];
            }
            let mut c = x;
            while parent[c] != r {
                let n = parent[c];
                parent[c] = r;
                c = n;
            }
            r
        }
        for pat in &self.patterns {
            if keep(pat) {
                let a = find(&mut parent, index[&pat.s]);
                let b = find(&mut parent, index[&pat.o]);
                if a != b {
                    parent[a] = b;
                }
            }
        }
        let mut groups: FxHashMap<usize, Vec<usize>> = FxHashMap::default();
        for (i, pat) in self.patterns.iter().enumerate() {
            if keep(pat) {
                let root = find(&mut parent, index[&pat.s]);
                groups.entry(root).or_default().push(i);
            }
        }
        let mut out: Vec<Vec<usize>> = groups.into_values().collect();
        out.sort_by_key(|g| g[0]);
        out
    }

    /// Vertex groups of the query after keeping only `keep` patterns: every
    /// query vertex appears in exactly one group (isolated vertices form
    /// singleton groups). This is the WCC view Definition 5.3 talks about.
    pub fn vertex_components(&self, keep: impl Fn(&TriplePattern) -> bool) -> Vec<Vec<QNode>> {
        let vertices = self.query_vertices();
        let index: FxHashMap<QNode, usize> =
            vertices.iter().enumerate().map(|(i, &v)| (v, i)).collect();
        let mut parent: Vec<usize> = (0..vertices.len()).collect();
        fn find(parent: &mut [usize], x: usize) -> usize {
            let mut r = x;
            while parent[r] != r {
                r = parent[r];
            }
            let mut c = x;
            while parent[c] != r {
                let n = parent[c];
                parent[c] = r;
                c = n;
            }
            r
        }
        for pat in &self.patterns {
            if keep(pat) {
                let a = find(&mut parent, index[&pat.s]);
                let b = find(&mut parent, index[&pat.o]);
                if a != b {
                    parent[a] = b;
                }
            }
        }
        let mut groups: FxHashMap<usize, Vec<QNode>> = FxHashMap::default();
        for (i, &v) in vertices.iter().enumerate() {
            groups.entry(find(&mut parent, i)).or_default().push(v);
        }
        let mut out: Vec<Vec<QNode>> = groups.into_values().collect();
        out.sort_by_key(|g| g[0]);
        out
    }

    /// A builder for assembling queries in code (used by the generators).
    pub fn builder() -> QueryBuilder {
        QueryBuilder::default()
    }
}

/// Incremental query construction with named variables.
#[derive(Default, Clone, Debug)]
pub struct QueryBuilder {
    patterns: Vec<TriplePattern>,
    var_names: Vec<String>,
    var_index: FxHashMap<String, u32>,
}

impl QueryBuilder {
    /// Interns a variable by name, returning its node.
    pub fn var(&mut self, name: &str) -> QNode {
        QNode::Var(self.var_id(name))
    }

    /// Interns a variable by name, returning its label form.
    pub fn var_label(&mut self, name: &str) -> QLabel {
        QLabel::Var(self.var_id(name))
    }

    fn var_id(&mut self, name: &str) -> u32 {
        if let Some(&i) = self.var_index.get(name) {
            return i;
        }
        let i = narrow::u32_from(self.var_names.len());
        self.var_index.insert(name.to_owned(), i);
        self.var_names.push(name.to_owned());
        i
    }

    /// Adds a pattern.
    pub fn pattern(&mut self, s: QNode, p: QLabel, o: QNode) -> &mut Self {
        self.patterns.push(TriplePattern::new(s, p, o));
        self
    }

    /// Finalizes the query.
    pub fn build(self) -> Query {
        Query::new(self.patterns, self.var_names)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: u32) -> QNode {
        QNode::Var(i)
    }

    fn c(i: u32) -> QNode {
        QNode::Const(VertexId(i))
    }

    fn p(i: u32) -> QLabel {
        QLabel::Prop(PropertyId(i))
    }

    fn q(patterns: Vec<TriplePattern>, nvars: u32) -> Query {
        let names = (0..nvars).map(|i| format!("v{i}")).collect();
        Query::new(patterns, names)
    }

    #[test]
    fn star_detection() {
        // ?0 is the center of three patterns.
        let star = q(
            vec![
                TriplePattern::new(v(0), p(0), v(1)),
                TriplePattern::new(v(0), p(1), c(5)),
                TriplePattern::new(v(2), p(2), v(0)),
            ],
            3,
        );
        assert!(star.is_star());

        let path = q(
            vec![
                TriplePattern::new(v(0), p(0), v(1)),
                TriplePattern::new(v(1), p(1), v(2)),
                TriplePattern::new(v(2), p(2), v(3)),
            ],
            4,
        );
        assert!(!path.is_star());

        // A 2-pattern path is a star centered on the shared vertex.
        let two = q(
            vec![
                TriplePattern::new(v(0), p(0), v(1)),
                TriplePattern::new(v(1), p(1), v(2)),
            ],
            3,
        );
        assert!(two.is_star());
    }

    #[test]
    fn connectivity() {
        let connected = q(
            vec![
                TriplePattern::new(v(0), p(0), v(1)),
                TriplePattern::new(v(1), p(1), v(2)),
            ],
            3,
        );
        assert!(connected.is_weakly_connected());

        let split = q(
            vec![
                TriplePattern::new(v(0), p(0), v(1)),
                TriplePattern::new(v(2), p(1), v(3)),
            ],
            4,
        );
        assert!(!split.is_weakly_connected());
    }

    #[test]
    fn constants_connect_patterns() {
        let joined = q(
            vec![
                TriplePattern::new(v(0), p(0), c(7)),
                TriplePattern::new(c(7), p(1), v(1)),
            ],
            2,
        );
        assert!(joined.is_weakly_connected());
    }

    #[test]
    fn pattern_components_respect_filter() {
        // Path 0-1-2-3 with middle edge filtered out → two components.
        let path = q(
            vec![
                TriplePattern::new(v(0), p(0), v(1)),
                TriplePattern::new(v(1), p(9), v(2)),
                TriplePattern::new(v(2), p(0), v(3)),
            ],
            4,
        );
        let comps = path.pattern_components(|pat| pat.p != p(9));
        assert_eq!(comps.len(), 2);
        assert_eq!(comps[0], vec![0]);
        assert_eq!(comps[1], vec![2]);
    }

    #[test]
    fn vertex_components_include_isolated() {
        let path = q(
            vec![
                TriplePattern::new(v(0), p(0), v(1)),
                TriplePattern::new(v(1), p(9), v(2)),
            ],
            3,
        );
        let comps = path.vertex_components(|pat| pat.p != p(9));
        // {?0, ?1} and the isolated {?2}.
        assert_eq!(comps.len(), 2);
        let sizes: Vec<usize> = comps.iter().map(|c| c.len()).collect();
        assert!(sizes.contains(&2) && sizes.contains(&1));
    }

    #[test]
    fn builder_interns_vars() {
        let mut b = Query::builder();
        let x = b.var("x");
        let y = b.var("y");
        let x2 = b.var("x");
        assert_eq!(x, x2);
        b.pattern(x, p(0), y);
        let q = b.build();
        assert_eq!(q.var_count(), 2);
        assert_eq!(q.var_names, vec!["x", "y"]);
    }

    #[test]
    fn properties_dedup() {
        let qq = q(
            vec![
                TriplePattern::new(v(0), p(3), v(1)),
                TriplePattern::new(v(1), p(3), v(2)),
                TriplePattern::new(v(2), QLabel::Var(3), v(0)),
            ],
            4,
        );
        assert_eq!(qq.properties(), vec![PropertyId(3)]);
        assert!(qq.has_property_variables());
    }

    #[test]
    #[should_panic(expected = "both vertex and property")]
    fn rejects_dual_use_variables() {
        q(
            vec![
                TriplePattern::new(v(0), QLabel::Var(1), v(2)),
                TriplePattern::new(v(1), p(0), v(2)),
            ],
            3,
        );
    }
}
