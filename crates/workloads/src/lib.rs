//! # pythia-workloads
//!
//! Benchmark schemas, data generators and parameterized query templates —
//! the stand-in for DSB (a skewed/correlated TPC-DS variant) at scale factor
//! 100 and for the IMDB/CEB workload the paper evaluates on (§5.1).
//!
//! The substitution argument (see `DESIGN.md`): Pythia only ever sees
//! `(serialized plan, page-id set)` pairs, so what must be preserved is the
//! *distribution* of those pairs, not the 100 GB of bytes. The generator
//! keeps the properties that make the paper's prediction problem what it is:
//!
//! * star joins where a sequentially scanned fact drives index probes into
//!   dimension tables (`Seq Scan` + per-row `Index Scan`, §5.1),
//! * data correlations (customers cluster in time, demographics cluster with
//!   customers) so parameter ranges map to *learnable* page subsets,
//! * Zipf-skewed popularity so page accesses are heavy-tailed (the paper:
//!   "less than 2% of the pages from template 18 are retrieved more than 10
//!   times across 1000 query instances"),
//! * several distinct plan shapes per template, chosen by parameter
//!   selectivity (Table 1 "distinct query plans in workload").
//!
//! Everything is scaled down ~25× in page count so a pure-Rust CPU training
//! loop replaces the paper's GPU; [`GeneratorConfig::scale`] sweeps sizes
//! for the Figure 12a experiment.

pub mod datagen;
pub mod schema;
pub mod stats;
pub mod templates;

pub use schema::{build_benchmark, build_for, BenchmarkDb, GeneratorConfig};
pub use stats::{workload_stats, WorkloadStats};
pub use templates::{QueryInstance, Template};
