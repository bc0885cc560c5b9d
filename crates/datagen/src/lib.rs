//! Seeded dataset and workload generators for the MPC evaluation.
//!
//! One module per dataset family of Table I:
//!
//! * [`lubm`] — university-domain generator with LUBM's 18 properties and
//!   the 14-query benchmark (`LQ1`–`LQ14`),
//! * [`watdiv`] — e-commerce generator with WatDiv's 86 properties,
//! * [`realistic`] — domain-clustered power-law generator with presets for
//!   the four real datasets (YAGO2 / Bio2RDF / DBpedia / LGD),
//! * [`real_queries`] — `YQ1`–`YQ4` and `BQ1`–`BQ5` analogs,
//! * [`sampler`] — shape-mix workload sampling (the WatDiv template
//!   instantiator / LSQ query-log stand-in).
//!
//! Everything is seeded and deterministic.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod lubm;
pub mod real_queries;
pub mod realistic;
pub mod sampler;
pub mod watdiv;

use mpc_sparql::Query;

pub use realistic::RealisticConfig;
pub use sampler::{QuerySampler, Shape, ShapeMix};

/// A query with a display name (e.g. `LQ3`).
#[derive(Clone, Debug)]
pub struct NamedQuery {
    /// Benchmark name.
    pub name: String,
    /// The query.
    pub query: Query,
}
