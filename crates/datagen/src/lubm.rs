//! A LUBM-style synthetic dataset generator and the 14-query benchmark.
//!
//! Mirrors the structure the Lehigh University Benchmark \[12\] generates:
//! universities containing departments containing faculty, students,
//! courses and publications, with exactly LUBM's 18 properties. The
//! MPC-relevant trait is preserved: most properties stay inside one
//! university (small WCCs), while `rdf:type`, the three `*DegreeFrom`
//! properties and `researchInterest` connect universities (or everything)
//! and become crossing/pruned — exactly why the paper measures
//! `|L_cross| = 5` on LUBM.
//!
//! The 14 companion queries (`LQ1`–`LQ14`) reproduce the benchmark's
//! shapes: selective stars, giant-result scans, and the non-star
//! triangle/tree queries (`LQ2`, `LQ7`, `LQ8`, `LQ9`, `LQ12`) that only MPC
//! can run independently.

use crate::NamedQuery;
use mpc_rdf::{PropertyId, RdfGraph, Triple, VertexId};
use mpc_sparql::{QLabel, QNode, Query, TriplePattern};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use mpc_rdf::narrow;

/// LUBM's 18 properties.
pub mod prop {
    /// `rdf:type`.
    pub const TYPE: u32 = 0;
    /// Department → University.
    pub const SUB_ORGANIZATION_OF: u32 = 1;
    /// Person → University (bachelor's).
    pub const UNDERGRADUATE_DEGREE_FROM: u32 = 2;
    /// Person → University (master's).
    pub const MASTERS_DEGREE_FROM: u32 = 3;
    /// Person → University (doctorate).
    pub const DOCTORAL_DEGREE_FROM: u32 = 4;
    /// Faculty → Department.
    pub const WORKS_FOR: u32 = 5;
    /// Student → Department.
    pub const MEMBER_OF: u32 = 6;
    /// GraduateStudent → Professor.
    pub const ADVISOR: u32 = 7;
    /// Student → Course.
    pub const TAKES_COURSE: u32 = 8;
    /// Faculty → Course.
    pub const TEACHER_OF: u32 = 9;
    /// Publication → Person.
    pub const PUBLICATION_AUTHOR: u32 = 10;
    /// Professor → Department.
    pub const HEAD_OF: u32 = 11;
    /// Faculty → ResearchTopic.
    pub const RESEARCH_INTEREST: u32 = 12;
    /// Entity → name literal.
    pub const NAME: u32 = 13;
    /// Person → email literal.
    pub const EMAIL_ADDRESS: u32 = 14;
    /// Person → phone literal.
    pub const TELEPHONE: u32 = 15;
    /// Publication → title literal.
    pub const TITLE: u32 = 16;
    /// GraduateStudent → Course.
    pub const TEACHING_ASSISTANT_OF: u32 = 17;
    /// Property count.
    pub const COUNT: usize = 18;
    /// Display names, indexable by property id.
    pub const NAMES: [&str; COUNT] = [
        "type",
        "subOrganizationOf",
        "undergraduateDegreeFrom",
        "mastersDegreeFrom",
        "doctoralDegreeFrom",
        "worksFor",
        "memberOf",
        "advisor",
        "takesCourse",
        "teacherOf",
        "publicationAuthor",
        "headOf",
        "researchInterest",
        "name",
        "emailAddress",
        "telephone",
        "title",
        "teachingAssistantOf",
    ];
}

/// Class vertices (objects of `rdf:type`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u32)]
pub enum Class {
    /// A university.
    University = 0,
    /// A department.
    Department = 1,
    /// A full professor.
    FullProfessor = 2,
    /// An associate professor.
    AssociateProfessor = 3,
    /// An assistant professor.
    AssistantProfessor = 4,
    /// A lecturer.
    Lecturer = 5,
    /// A graduate student.
    GraduateStudent = 6,
    /// An undergraduate student.
    UndergraduateStudent = 7,
    /// An (undergraduate) course.
    Course = 8,
    /// A graduate course.
    GraduateCourse = 9,
    /// A publication.
    Publication = 10,
    /// A research topic.
    ResearchTopic = 11,
}

const CLASS_COUNT: usize = 12;
const TOPIC_COUNT: u32 = 24;

/// The generated dataset: graph plus the id bookkeeping queries need.
#[derive(Clone, Debug)]
pub struct LubmDataset {
    /// The RDF graph (raw ids; property ids follow [`prop`]).
    pub graph: RdfGraph,
    /// Class vertex ids, indexed by [`Class`].
    pub class_ids: [VertexId; CLASS_COUNT],
    /// One sample graduate course per university (for selective queries).
    pub sample_grad_course: VertexId,
    /// One sample department.
    pub sample_department: VertexId,
    /// One sample university.
    pub sample_university: VertexId,
    /// One sample full professor.
    pub sample_professor: VertexId,
    /// Number of universities generated.
    pub universities: usize,
}

/// Generation parameters.
#[derive(Clone, Debug)]
pub struct LubmConfig {
    /// Number of universities (LUBM's scale factor; ~8–10k triples each).
    pub universities: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for LubmConfig {
    fn default() -> Self {
        LubmConfig {
            universities: 10,
            seed: 0x4c55_424d, // "LUBM"
        }
    }
}

/// Generates a LUBM-style graph.
pub fn generate(cfg: &LubmConfig) -> LubmDataset {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut next_vertex = 0u32;
    let alloc = |n: u32, next_vertex: &mut u32| -> u32 {
        let base = *next_vertex;
        *next_vertex += n;
        base
    };
    let mut triples: Vec<Triple> = Vec::new();
    let add = |triples: &mut Vec<Triple>, s: u32, p: u32, o: u32| {
        triples.push(Triple::new(VertexId(s), PropertyId(p), VertexId(o)));
    };

    // Global vertices: classes and research topics.
    let class_base = alloc(narrow::u32_from(CLASS_COUNT), &mut next_vertex);
    // mpc-allow: narrowing-cast Class is repr(u32); the discriminant cast is lossless
    let class = |c: Class| class_base + c as u32;
    let topic_base = alloc(TOPIC_COUNT, &mut next_vertex);
    for t in 0..TOPIC_COUNT {
        add(&mut triples, topic_base + t, prop::TYPE, class(Class::ResearchTopic));
    }

    let mut universities: Vec<u32> = Vec::with_capacity(cfg.universities);
    let mut sample_grad_course = 0u32;
    let mut sample_department = 0u32;
    let mut sample_professor = 0u32;

    // First pass: allocate university ids so DegreeFrom can reference any.
    for _ in 0..cfg.universities {
        universities.push(alloc(1, &mut next_vertex));
    }
    for (ui, &univ) in universities.iter().enumerate() {
        add(&mut triples, univ, prop::TYPE, class(Class::University));
        let name = alloc(1, &mut next_vertex);
        add(&mut triples, univ, prop::NAME, name);

        let dept_count = rng.gen_range(3..=6);
        for di in 0..dept_count {
            let dept = alloc(1, &mut next_vertex);
            if ui == 0 && di == 0 {
                sample_department = dept;
            }
            add(&mut triples, dept, prop::TYPE, class(Class::Department));
            add(&mut triples, dept, prop::SUB_ORGANIZATION_OF, univ);
            add(&mut triples, dept, prop::NAME, alloc(1, &mut next_vertex));

            // Courses.
            let course_count = rng.gen_range(8..=12);
            let courses = alloc(course_count, &mut next_vertex);
            let grad_course_count = rng.gen_range(4..=6);
            let grad_courses = alloc(grad_course_count, &mut next_vertex);
            for c in 0..course_count {
                add(&mut triples, courses + c, prop::TYPE, class(Class::Course));
                add(&mut triples, courses + c, prop::NAME, alloc(1, &mut next_vertex));
            }
            for c in 0..grad_course_count {
                add(&mut triples, grad_courses + c, prop::TYPE, class(Class::GraduateCourse));
                add(&mut triples, grad_courses + c, prop::NAME, alloc(1, &mut next_vertex));
            }
            if ui == 0 && di == 0 {
                sample_grad_course = grad_courses;
            }

            // Faculty.
            let faculty_count = rng.gen_range(7usize..=10);
            let mut faculty: Vec<u32> = Vec::with_capacity(faculty_count);
            for fi in 0..faculty_count {
                let person = alloc(1, &mut next_vertex);
                faculty.push(person);
                let cls = match fi % 4 {
                    0 => Class::FullProfessor,
                    1 => Class::AssociateProfessor,
                    2 => Class::AssistantProfessor,
                    _ => Class::Lecturer,
                };
                if ui == 0 && di == 0 && fi == 0 {
                    sample_professor = person;
                }
                add(&mut triples, person, prop::TYPE, class(cls));
                add(&mut triples, person, prop::WORKS_FOR, dept);
                add(&mut triples, person, prop::NAME, alloc(1, &mut next_vertex));
                add(&mut triples, person, prop::EMAIL_ADDRESS, alloc(1, &mut next_vertex));
                add(&mut triples, person, prop::TELEPHONE, alloc(1, &mut next_vertex));
                add(
                    &mut triples,
                    person,
                    prop::RESEARCH_INTEREST,
                    topic_base + rng.gen_range(0..TOPIC_COUNT),
                );
                // Degrees from random universities — the cross-university
                // edges that make DegreeFrom properties crossing.
                let pick = |rng: &mut StdRng, unis: &[u32]| unis[rng.gen_range(0..unis.len())];
                add(
                    &mut triples,
                    person,
                    prop::UNDERGRADUATE_DEGREE_FROM,
                    pick(&mut rng, &universities),
                );
                add(
                    &mut triples,
                    person,
                    prop::MASTERS_DEGREE_FROM,
                    pick(&mut rng, &universities),
                );
                add(
                    &mut triples,
                    person,
                    prop::DOCTORAL_DEGREE_FROM,
                    pick(&mut rng, &universities),
                );
                // Teaching.
                let c = rng.gen_range(0..course_count);
                add(&mut triples, person, prop::TEACHER_OF, courses + c);
                if !matches!(cls, Class::Lecturer) {
                    let gc = rng.gen_range(0..grad_course_count);
                    add(&mut triples, person, prop::TEACHER_OF, grad_courses + gc);
                }
                // Publications.
                let pubs = rng.gen_range(1..=4);
                for _ in 0..pubs {
                    let publication = alloc(1, &mut next_vertex);
                    add(&mut triples, publication, prop::TYPE, class(Class::Publication));
                    add(&mut triples, publication, prop::TITLE, alloc(1, &mut next_vertex));
                    add(&mut triples, publication, prop::PUBLICATION_AUTHOR, person);
                }
            }
            // One professor heads the department.
            add(&mut triples, faculty[0], prop::HEAD_OF, dept);

            // Graduate students.
            let grad_count = rng.gen_range(8..=14);
            for _ in 0..grad_count {
                let student = alloc(1, &mut next_vertex);
                add(&mut triples, student, prop::TYPE, class(Class::GraduateStudent));
                add(&mut triples, student, prop::MEMBER_OF, dept);
                add(&mut triples, student, prop::NAME, alloc(1, &mut next_vertex));
                add(&mut triples, student, prop::EMAIL_ADDRESS, alloc(1, &mut next_vertex));
                let adv = faculty[rng.gen_range(0..faculty.len())];
                add(&mut triples, student, prop::ADVISOR, adv);
                add(
                    &mut triples,
                    student,
                    prop::UNDERGRADUATE_DEGREE_FROM,
                    universities[rng.gen_range(0..universities.len())],
                );
                for _ in 0..rng.gen_range(1..=3) {
                    let gc = rng.gen_range(0..grad_course_count);
                    add(&mut triples, student, prop::TAKES_COURSE, grad_courses + gc);
                }
                if rng.gen_bool(0.25) {
                    let c = rng.gen_range(0..course_count);
                    add(&mut triples, student, prop::TEACHING_ASSISTANT_OF, courses + c);
                }
            }

            // Undergraduate students.
            let ug_count = rng.gen_range(20..=30);
            for _ in 0..ug_count {
                let student = alloc(1, &mut next_vertex);
                add(&mut triples, student, prop::TYPE, class(Class::UndergraduateStudent));
                add(&mut triples, student, prop::MEMBER_OF, dept);
                add(&mut triples, student, prop::NAME, alloc(1, &mut next_vertex));
                add(&mut triples, student, prop::EMAIL_ADDRESS, alloc(1, &mut next_vertex));
                for _ in 0..rng.gen_range(2..=4) {
                    let c = rng.gen_range(0..course_count);
                    add(&mut triples, student, prop::TAKES_COURSE, courses + c);
                }
            }
        }
    }

    let graph = RdfGraph::from_raw(next_vertex as usize, prop::COUNT, triples);
    let mut class_ids = [VertexId(0); CLASS_COUNT];
    for (i, id) in class_ids.iter_mut().enumerate() {
        *id = VertexId(class_base + narrow::u32_from(i));
    }
    LubmDataset {
        graph,
        class_ids,
        sample_grad_course: VertexId(sample_grad_course),
        sample_department: VertexId(sample_department),
        sample_university: VertexId(universities[0]),
        sample_professor: VertexId(sample_professor),
        universities: cfg.universities,
    }
}

impl LubmDataset {
    /// The class vertex of `c`.
    pub fn class(&self, c: Class) -> QNode {
        QNode::Const(self.class_ids[c as usize])
    }

    /// The 14 LUBM-analog benchmark queries.
    pub fn benchmark_queries(&self) -> Vec<NamedQuery> {
        let p = |id: u32| QLabel::Prop(PropertyId(id));
        let v = QNode::Var;
        let pat = TriplePattern::new;
        let names = |n: usize| (0..n).map(|i| format!("v{i}")).collect::<Vec<_>>();
        let mk = |name: &str, patterns: Vec<TriplePattern>, nvars: usize| NamedQuery {
            name: name.to_owned(),
            query: Query::new(patterns, names(nvars)),
        };
        let gc = QNode::Const(self.sample_grad_course);
        let dept = QNode::Const(self.sample_department);
        let univ = QNode::Const(self.sample_university);
        let prof = QNode::Const(self.sample_professor);

        vec![
            // LQ1: selective star — grads taking one specific course.
            mk(
                "LQ1",
                vec![
                    pat(v(0), p(prop::TAKES_COURSE), gc),
                    pat(v(0), p(prop::TYPE), self.class(Class::GraduateStudent)),
                ],
                1,
            ),
            // LQ2: the classic triangle (grad, univ, dept) — non-star.
            mk(
                "LQ2",
                vec![
                    pat(v(0), p(prop::TYPE), self.class(Class::GraduateStudent)),
                    pat(v(1), p(prop::TYPE), self.class(Class::University)),
                    pat(v(2), p(prop::TYPE), self.class(Class::Department)),
                    pat(v(0), p(prop::MEMBER_OF), v(2)),
                    pat(v(2), p(prop::SUB_ORGANIZATION_OF), v(1)),
                    pat(v(0), p(prop::UNDERGRADUATE_DEGREE_FROM), v(1)),
                ],
                3,
            ),
            // LQ3: star — publications of one professor.
            mk(
                "LQ3",
                vec![
                    pat(v(0), p(prop::TYPE), self.class(Class::Publication)),
                    pat(v(0), p(prop::PUBLICATION_AUTHOR), prof),
                ],
                1,
            ),
            // LQ4: star — professors of one department with contact data.
            mk(
                "LQ4",
                vec![
                    pat(v(0), p(prop::WORKS_FOR), dept),
                    pat(v(0), p(prop::TYPE), self.class(Class::FullProfessor)),
                    pat(v(0), p(prop::NAME), v(1)),
                    pat(v(0), p(prop::EMAIL_ADDRESS), v(2)),
                    pat(v(0), p(prop::TELEPHONE), v(3)),
                ],
                4,
            ),
            // LQ5: star — members of one department.
            mk(
                "LQ5",
                vec![
                    pat(v(0), p(prop::MEMBER_OF), dept),
                    pat(v(0), p(prop::TYPE), self.class(Class::UndergraduateStudent)),
                ],
                1,
            ),
            // LQ6: one-pattern scan with a huge result.
            mk(
                "LQ6",
                vec![pat(v(0), p(prop::TAKES_COURSE), v(1))],
                2,
            ),
            // LQ7: tree — students taking courses taught by a professor.
            mk(
                "LQ7",
                vec![
                    pat(v(0), p(prop::TYPE), self.class(Class::UndergraduateStudent)),
                    pat(v(0), p(prop::TAKES_COURSE), v(1)),
                    pat(prof, p(prop::TEACHER_OF), v(1)),
                ],
                2,
            ),
            // LQ8: tree — students of departments of one university.
            mk(
                "LQ8",
                vec![
                    pat(v(0), p(prop::TYPE), self.class(Class::UndergraduateStudent)),
                    pat(v(0), p(prop::MEMBER_OF), v(1)),
                    pat(v(1), p(prop::SUB_ORGANIZATION_OF), univ),
                    pat(v(0), p(prop::EMAIL_ADDRESS), v(2)),
                ],
                3,
            ),
            // LQ9: triangle — student, advisor, course.
            mk(
                "LQ9",
                vec![
                    pat(v(0), p(prop::TYPE), self.class(Class::GraduateStudent)),
                    pat(v(0), p(prop::ADVISOR), v(1)),
                    pat(v(1), p(prop::TEACHER_OF), v(2)),
                    pat(v(0), p(prop::TAKES_COURSE), v(2)),
                ],
                3,
            ),
            // LQ10: star — TAs of a specific course's department course.
            mk(
                "LQ10",
                vec![
                    pat(v(0), p(prop::TAKES_COURSE), gc),
                    pat(v(0), p(prop::TYPE), self.class(Class::GraduateStudent)),
                    pat(v(0), p(prop::ADVISOR), v(1)),
                ],
                2,
            ),
            // LQ11: star — research groups... here: faculty interested in a
            // topic working for one university's department (selective star
            // on ?0 after constant folding).
            mk(
                "LQ11",
                vec![
                    pat(v(0), p(prop::TYPE), self.class(Class::FullProfessor)),
                    pat(v(0), p(prop::WORKS_FOR), dept),
                    pat(v(0), p(prop::RESEARCH_INTEREST), v(1)),
                ],
                2,
            ),
            // LQ12: tree — heads of departments of one university, with
            // their names (the name arm keeps it non-star).
            mk(
                "LQ12",
                vec![
                    pat(v(0), p(prop::HEAD_OF), v(1)),
                    pat(v(1), p(prop::TYPE), self.class(Class::Department)),
                    pat(v(1), p(prop::SUB_ORGANIZATION_OF), univ),
                    pat(v(0), p(prop::NAME), v(2)),
                ],
                3,
            ),
            // LQ13: star — alumni of one university (via degree).
            mk(
                "LQ13",
                vec![
                    pat(v(0), p(prop::UNDERGRADUATE_DEGREE_FROM), univ),
                    pat(v(0), p(prop::TYPE), self.class(Class::GraduateStudent)),
                ],
                1,
            ),
            // LQ14: one-pattern scan — all undergraduates.
            mk(
                "LQ14",
                vec![pat(v(0), p(prop::TYPE), self.class(Class::UndergraduateStudent))],
                1,
            ),
        ]
    }
}

/// Property display name.
pub fn property_name(p: PropertyId) -> &'static str {
    prop::NAMES[p.index()]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generates_expected_shape() {
        let d = generate(&LubmConfig {
            universities: 4,
            seed: 7,
        });
        let stats = d.graph.stats();
        assert_eq!(stats.properties, 18);
        assert!(stats.triples > 4_000, "got {}", stats.triples);
        assert!(stats.vertices > 2_000);
        // Every property is populated.
        for p in d.graph.property_ids() {
            assert!(d.graph.property_frequency(p) > 0, "{p} empty");
        }
    }

    #[test]
    fn deterministic() {
        let cfg = LubmConfig {
            universities: 2,
            seed: 9,
        };
        let a = generate(&cfg);
        let b = generate(&cfg);
        assert_eq!(a.graph.triples(), b.graph.triples());
    }

    #[test]
    fn scale_grows_with_universities() {
        let small = generate(&LubmConfig {
            universities: 2,
            seed: 1,
        });
        let big = generate(&LubmConfig {
            universities: 8,
            seed: 1,
        });
        assert!(big.graph.triple_count() > 3 * small.graph.triple_count());
    }

    #[test]
    fn queries_have_nonempty_results() {
        use mpc_sparql::{evaluate, LocalStore};
        let d = generate(&LubmConfig {
            universities: 3,
            seed: 3,
        });
        let store = LocalStore::from_graph(&d.graph);
        for nq in d.benchmark_queries() {
            let result = evaluate(&nq.query, &store);
            assert!(!result.is_empty(), "{} returned no rows", nq.name);
        }
    }

    /// LQ2's cycle closes by intersection, not by probing: under its
    /// static order the search takes at most a fifth of the steps it took
    /// with one membership probe per closing edge, and its rows stay the
    /// brute-force ones.
    #[test]
    fn lq2_closes_its_cycle_by_intersecting() {
        use mpc_sparql::matcher::evaluate_bruteforce;
        use mpc_sparql::{evaluate_with, static_order, LocalStore, MatchStats};
        /// `MatchStats::steps` of LQ2 on three default universities under
        /// the order below, when every closing edge was its own probe.
        const PROBING_STEPS: u64 = 649;
        let lq2 = |universities| {
            let d = generate(&LubmConfig {
                universities,
                ..Default::default()
            });
            let store = LocalStore::from_graph(&d.graph);
            let query = d
                .benchmark_queries()
                .into_iter()
                .find(|nq| nq.name == "LQ2")
                .unwrap()
                .query;
            (store, query)
        };

        let (store, query) = lq2(3);
        let order = static_order(&query.patterns, query.var_count(), store.stats(), None);
        let mut stats = MatchStats::default();
        let rows = evaluate_with(&query, &store, Some(&order), None, &mut stats);
        assert!(!rows.is_empty());
        assert!(
            stats.steps * 5 <= PROBING_STEPS,
            "LQ2 took {} steps under {order:?}; probing took {PROBING_STEPS}",
            stats.steps
        );

        let (store, query) = lq2(1);
        let order = static_order(&query.patterns, query.var_count(), store.stats(), None);
        let want = evaluate_bruteforce(&query, &store);
        assert!(!want.is_empty());
        assert_eq!(evaluate_with(&query, &store, Some(&order), None, &mut ()), want);
    }

    #[test]
    fn star_mix_matches_benchmark() {
        let d = generate(&LubmConfig {
            universities: 2,
            seed: 2,
        });
        let queries = d.benchmark_queries();
        assert_eq!(queries.len(), 14);
        let stars: Vec<&str> = queries
            .iter()
            .filter(|q| q.query.is_star())
            .map(|q| q.name.as_str())
            .collect();
        // The five non-star queries, as in the paper's Fig. 11 selection.
        for name in ["LQ2", "LQ7", "LQ8", "LQ9", "LQ12"] {
            assert!(!stars.contains(&name), "{name} should not be a star");
        }
        assert!(stars.len() >= 8, "stars: {stars:?}");
    }

    #[test]
    fn degree_properties_cross_universities() {
        // DegreeFrom edges must reference universities other than the
        // student's own (with several universities, overwhelmingly likely).
        let d = generate(&LubmConfig {
            universities: 6,
            seed: 5,
        });
        let degrees: usize = [
            prop::UNDERGRADUATE_DEGREE_FROM,
            prop::MASTERS_DEGREE_FROM,
            prop::DOCTORAL_DEGREE_FROM,
        ]
        .iter()
        .map(|&p| d.graph.property_frequency(PropertyId(p)))
        .sum();
        assert!(degrees > 100);
    }
}
