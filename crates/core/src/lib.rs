//! **ProvMark**: automated provenance expressiveness benchmarking.
//!
//! This crate is the Rust reproduction of the ProvMark system (Chan et al.,
//! Middleware 2019): it identifies the provenance graph structure a capture
//! system records for a target activity, treating the capture system as a
//! black box. The pipeline has the paper's four subsystems (Figure 3):
//!
//! 1. **Recording** ([`tool`]) — run the foreground and background variants
//!    of a benchmark program several times under a recorder (SPADE, OPUS or
//!    CamFlow simulations) and collect each tool's *native* output;
//! 2. **Transformation** ([`tool`]) — map DOT / Neo4j / PROV-JSON output
//!    into the uniform Datalog property-graph representation;
//! 3. **Generalization** ([`generalize`]) — partition trials into
//!    similarity classes, pick the two smallest consistent trials, and
//!    strip volatile properties under an optimal matching;
//! 4. **Comparison** ([`compare`]) — match the generalized background graph
//!    into the foreground graph (approximate subgraph isomorphism) and
//!    subtract it; the remainder plus dummy boundary nodes is the
//!    *benchmark result*.
//!
//! The [`suite`] module defines the 44 syscall benchmarks of the paper's
//! Table 1 together with the expected Table 2 outcome for every
//! (syscall, tool) cell, and [`scale`] generates the scalability workloads
//! of Figures 8–10.
//!
//! # Quickstart
//!
//! ```
//! use provmark_core::{pipeline, suite, tool::Tool, BenchmarkOptions};
//!
//! let spec = suite::spec("creat").expect("creat is in Table 1");
//! let mut tool = Tool::spade_baseline().instantiate();
//! let run = pipeline::run_benchmark(&mut tool, &spec, &BenchmarkOptions::default())
//!     .expect("pipeline runs");
//! assert!(run.status.is_ok(), "SPADE records creat (Table 2)");
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod compare;
mod error;
pub mod generalize;
mod options;
pub mod pipeline;
pub mod regression;
pub mod report;
pub mod scale;
pub mod suite;
pub mod tool;

pub use error::{PipelineError, WorkerFailure};
pub use options::BenchmarkOptions;
pub use pipeline::{BenchStatus, BenchmarkRun, StageTimings};
pub use suite::{BenchSpec, EmptyNote, Expectation, ExpectedCell};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quickstart_example() {
        let spec = suite::spec("creat").unwrap();
        let mut tool = tool::Tool::spade_baseline().instantiate();
        let run = pipeline::run_benchmark(&mut tool, &spec, &BenchmarkOptions::default()).unwrap();
        assert!(run.status.is_ok());
    }
}
