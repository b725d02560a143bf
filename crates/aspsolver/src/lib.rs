//! Graph matching solver for ProvMark, replacing the clingo ASP solver.
//!
//! The paper (§3.4–3.5) reduces two pipeline stages to matching problems
//! over property graphs and hands them to an Answer Set Programming solver:
//!
//! 1. **Similarity** (Listing 3) — is there a bijection `h` between the
//!    elements of two graphs preserving edge structure and labels (but not
//!    necessarily properties)? Used to partition recording trials into
//!    similarity classes.
//! 2. **Generalization** — among all similarity bijections, find one that
//!    *minimizes the number of differing properties*; properties that still
//!    differ under the optimal matching are volatile (timestamps, ids) and
//!    are discarded.
//! 3. **Approximate subgraph isomorphism** (Listing 4) — embed the
//!    background graph injectively into the foreground graph, minimizing
//!    the number of background properties with no matching foreground
//!    property (`#minimize { PC,X,K : cost(X,K,PC) }`).
//!
//! This crate solves all three *exactly* with a branch-and-bound
//! backtracking search: same models, same optima an ASP solver would
//! produce, without the external dependency. The [`asp`] module renders the
//! exact clingo programs from the paper for inspection and differential
//! debugging.
//!
//! # Engine paths
//!
//! The default entry points ([`solve`] and the `find_*` helpers) run on
//! the **compiled path**: both graphs are interned into a shared
//! [`provgraph::compiled::Interner`] and searched as
//! [`provgraph::compiled::CompiledGraph`]s, so the hot loop touches only
//! dense integers (see [`provgraph::compiled`] for the representation).
//!
//! Callers that match corpus members against each other repeatedly — the
//! whole benchmark pipeline: similarity classification, generalization,
//! the comparison stage — should compile every graph once into a
//! [`provgraph::compiled::CorpusSession`] and use the **session path**
//! ([`solve_in`] over [`provgraph::compiled::GraphId`] handles); each
//! solve then pays zero compile or interning cost. [`solve_compiled`]
//! serves the same purpose for borrow-based
//! [`provgraph::compiled::CompiledGraph`]s compiled by the caller.
//!
//! Callers that match one *fixed* left-hand graph against many right-hand
//! graphs — a similarity-class representative confirmed against every
//! bucket member, a generalized graph replayed across matrix cells —
//! should use the **batch path**: [`BatchSolver`] (or the [`solve_batch_in`]
//! one-shot wrapper) prepares the left-hand search plan once and reuses
//! it for every right-hand solve, searching solver-equivalent rights
//! once. Batch outcomes are identical to per-pair
//! [`solve_in`] calls in every observable, including search statistics.
//!
//! Callers replaying the same pairs across *separate* calls — the
//! Table 2 matrix replaying one foreground against many backgrounds,
//! similarity classification re-confirming equivalent cores under
//! several representatives — should additionally thread a session-level
//! [`SolveMemo`] through the `_memo` entry points ([`solve_in_memo`],
//! [`solve_batch_in_memo`], [`BatchSolver::with_memo`]): identifier-free
//! dense outcomes are cached under the cores' deterministic **content
//! hashes** and the full [`SolverConfig`], so cross-call and
//! cross-left-side replays are searched once — and, because content
//! hashes are interner-independent, the memo is valid across sessions
//! and can be persisted to a cache file and reloaded in another process
//! (see [`persist`]). Memo-on outcomes are byte-identical to memo-off
//! ones, search statistics included.
//!
//! Every dense path above runs one kernel, the **bitset/WL kernel**:
//! candidate domains are `u64`-block bitsets intersected word-parallel
//! as assignments extend, and for bijective problems the session's
//! memoized Weisfeiler–Lehman shape colours pre-filter pairs whose
//! colour classes can never correspond (see the engine module docs for
//! the design). Pruning is outcome-neutral — matchings, costs and
//! optimality flags are unchanged — while [`SolverStats`] shrinks
//! deterministically.
//!
//! The **string path** ([`solve_strings`]) searches [`PropertyGraph`]
//! directly. It is the one independent reference implementation for
//! differential tests and the baseline of the solver ablation
//! benchmark. All paths return identical outcomes (matchings, costs,
//! optimality), and the compiled paths' search statistics never exceed
//! the string path's (`tests/differential_compiled.rs`).
//!
//! # Example
//!
//! ```
//! use provgraph::PropertyGraph;
//! use aspsolver::{find_similarity, find_subgraph};
//!
//! # fn main() -> Result<(), provgraph::GraphError> {
//! let mut bg = PropertyGraph::new();
//! bg.add_node("p", "Process")?;
//! let mut fg = PropertyGraph::new();
//! fg.add_node("q", "Process")?;
//! fg.add_node("f", "Artifact")?;
//! fg.add_edge("e", "q", "f", "Used")?;
//!
//! // bg embeds into fg …
//! let m = find_subgraph(&bg, &fg).expect("embedding exists");
//! assert_eq!(m.node_map["p"], "q");
//! // … but they are not similar (different shapes).
//! assert!(find_similarity(&bg, &fg).is_none());
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod asp;
mod assignment;
mod engine;
mod matching;
pub mod persist;
mod strpath;

pub use assignment::min_cost_assignment;
#[doc(hidden)]
pub use engine::{debug_domains, DebugDomains};
pub use engine::{
    solve, solve_batch_in, solve_batch_in_memo, solve_compiled, solve_in, solve_in_memo,
    BatchSolver, Problem, SolveMemo, SolverConfig, SolverStats,
};
pub use matching::{Matching, Outcome};
pub use persist::{
    cache_bytes, delta_bytes, load_cache_bytes, load_cache_file, write_bytes_durable,
    write_cache_file, SolveCacheError, SOLVE_CACHE_MAGIC, SOLVE_CACHE_VERSION,
};
pub use strpath::solve_strings;

use provgraph::PropertyGraph;

/// Decide *similarity* (paper Listing 3): a bijection preserving structure
/// and labels, ignoring properties. Returns a witness matching if similar.
pub fn find_similarity(g1: &PropertyGraph, g2: &PropertyGraph) -> Option<Matching> {
    solve(Problem::Similarity, g1, g2, &SolverConfig::default()).matching
}

/// Decide full property-graph isomorphism: similarity plus equal
/// properties on every matched pair.
pub fn find_isomorphism(g1: &PropertyGraph, g2: &PropertyGraph) -> Option<Matching> {
    solve(Problem::Isomorphism, g1, g2, &SolverConfig::default()).matching
}

/// Find the similarity bijection minimizing the number of differing
/// properties (the generalization stage's matching, paper §3.4).
///
/// Returns `None` when the graphs are not similar at all. The returned
/// matching's `cost` counts properties in the symmetric difference of each
/// matched pair.
pub fn find_generalization(g1: &PropertyGraph, g2: &PropertyGraph) -> Option<Matching> {
    solve(Problem::Generalization, g1, g2, &SolverConfig::default()).matching
}

/// Approximate subgraph isomorphism (paper Listing 4): embed `g1` into
/// `g2` injectively, preserving structure and labels, minimizing the count
/// of `g1` properties with no matching property on the image.
///
/// Returns `None` when no structure/label-preserving embedding exists.
pub fn find_subgraph(g1: &PropertyGraph, g2: &PropertyGraph) -> Option<Matching> {
    solve(Problem::Subgraph, g1, g2, &SolverConfig::default()).matching
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn doc_example() {
        let mut bg = PropertyGraph::new();
        bg.add_node("p", "Process").unwrap();
        let mut fg = PropertyGraph::new();
        fg.add_node("q", "Process").unwrap();
        fg.add_node("f", "Artifact").unwrap();
        fg.add_edge("e", "q", "f", "Used").unwrap();
        let m = find_subgraph(&bg, &fg).unwrap();
        assert_eq!(m.node_map["p"], "q");
        assert!(find_similarity(&bg, &fg).is_none());
    }
}
