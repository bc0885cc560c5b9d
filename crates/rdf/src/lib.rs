//! RDF data model substrate for the MPC (Minimum Property-Cut) reproduction.
//!
//! This crate provides everything below the partitioning layer:
//!
//! * [`Term`] — RDF terms (IRIs, literals, blank nodes), and [`TermRef`],
//!   the borrowed view a [`Dictionary`] hands out,
//! * [`Dictionary`] — string interning so the rest of the system works on
//!   compact [`VertexId`] / [`PropertyId`] integers; one arena per id
//!   space, shareable and layerable for live updates,
//! * [`Triple`] and [`RdfGraph`] — a dictionary-encoded labeled multigraph
//!   matching Definition 3.1 of the paper (`G = {V, E, L, f}`),
//! * [`GraphBuilder`] — incremental construction from triples or terms,
//! * [`ntriples`] — a streaming N-Triples parser / serializer,
//! * [`hash`] — a fast FxHash-style hasher used throughout the workspace
//!   (the sanctioned dependency set has no fast-hash crate and SipHash is
//!   needlessly slow for small integer keys).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod builder;
pub mod dictionary;
pub mod graph;
pub mod hash;
pub mod ids;
pub mod narrow;
pub mod ntriples;
pub mod term;
pub mod turtle;
pub mod triple;

pub use builder::GraphBuilder;
pub use dictionary::Dictionary;
pub use graph::RdfGraph;
pub use hash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use ids::{PartitionId, PropertyId, VertexId};
pub use term::{Term, TermRef};
pub use triple::Triple;
