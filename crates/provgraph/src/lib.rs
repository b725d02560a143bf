//! Property-graph model and serialization formats for provenance graphs.
//!
//! This crate implements the data model at the heart of ProvMark (paper
//! §3.3): *property graphs* `G = (V, E, src, tgt, lab, prop)` where nodes
//! and edges carry a label from a vocabulary `Σ` and a partial key/value
//! property map `prop : (V ∪ E) × Γ ⇀ D`.
//!
//! Besides the in-memory model ([`PropertyGraph`]), the crate provides the
//! serialization formats used by the benchmarked provenance recorders and by
//! the ProvMark pipeline itself:
//!
//! - [`datalog`] — the uniform Datalog fact format of paper Listing 1; the
//!   lingua franca of the transformation, generalization and comparison
//!   stages, and the regression-test storage format.
//! - [`dot`] — Graphviz DOT, the native output format of the SPADE
//!   recorder simulation.
//! - [`provjson`] — W3C PROV-JSON, the native output format of the CamFlow
//!   recorder simulation.
//! - [`diff`] — graph difference with *dummy node* retention, used by the
//!   comparison stage to carve the target subgraph out of the foreground
//!   graph (paper §3.5).
//! - [`fingerprint`] — Weisfeiler–Lehman style shape and full fingerprints
//!   used to pre-bucket trials into candidate similarity classes before the
//!   exact solver confirms them.
//! - [`compiled`] — the symbol-interned graph kernel: dense-id, CSR,
//!   merge-friendly read-only views the matching solver runs on.
//! - [`snapshot`] — versioned binary snapshots of whole
//!   [`compiled::CorpusSession`]s (vocabulary, compiled arenas, memoized
//!   fingerprints), so sessions can cross process or host boundaries and
//!   rehydrate to solver-identical state.
//! - [`par`] — the scoped-thread parallel map behind the pipeline's one
//!   parallel stage (the Table 2 matrix's fan-out over rows).
//!
//! # `PropertyGraph` vs `CompiledGraph`
//!
//! [`PropertyGraph`] is the **construction and interchange** API: string
//! identifiers, validated insertion, mutable properties, serialization.
//! Use it everywhere a graph is being built, transformed, stored, or
//! inspected — recorders, format parsers, generalization output, results.
//!
//! [`compiled::CompiledGraph`] is the **matching** API: an immutable view
//! with interned labels/properties and flat integer adjacency, built with
//! [`compiled::CompiledGraph::compile`] against a shared
//! [`compiled::Interner`]. Compile when a graph is about to be matched
//! repeatedly (similarity classification pairs each trial against many
//! class representatives) and pass the views to
//! `aspsolver::solve_compiled`; for one-shot matches, `aspsolver::solve`
//! compiles internally against a warm per-thread interner. The compiled
//! view borrows the source graph, so it cannot outlive it and never
//! observes mutation.
//!
//! # Example
//!
//! ```
//! use provgraph::{PropertyGraph, Label};
//!
//! # fn main() -> Result<(), provgraph::GraphError> {
//! let mut g = PropertyGraph::new();
//! g.add_node("n1", "Process")?;
//! g.add_node("n2", "Artifact")?;
//! g.add_edge("e1", "n1", "n2", "Used")?;
//! g.set_node_property("n1", "pid", "42")?;
//! assert_eq!(g.node_count(), 2);
//! assert_eq!(g.edge_count(), 1);
//! assert_eq!(g.node_label("n1"), Some(&Label::from("Process")));
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod error;
mod graph;
mod json;

pub mod compiled;
pub mod datalog;
pub mod diff;
pub mod dot;
pub mod fingerprint;
pub mod par;
pub mod provjson;
pub mod snapshot;

pub use error::GraphError;
pub use graph::{EdgeData, ElemId, Label, NodeData, PropertyGraph, Props};

/// Property key used to mark dummy (boundary) nodes in benchmark results.
///
/// The comparison stage subtracts the matched background structure from the
/// foreground graph; nodes that were matched away but are endpoints of
/// surviving edges are retained as *dummy* nodes carrying this property
/// (rendered green/gray in the paper's figures).
pub const DUMMY_PROP: &str = "provmark:dummy";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crate_level_doc_example_compiles() {
        let mut g = PropertyGraph::new();
        g.add_node("n1", "Process").unwrap();
        g.add_node("n2", "Artifact").unwrap();
        g.add_edge("e1", "n1", "n2", "Used").unwrap();
        assert_eq!(g.size(), 3);
    }
}
