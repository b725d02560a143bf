//! Graph comparison (paper §3.5).
//!
//! The generalized background graph should embed into the generalized
//! foreground graph (recording is append-only); the embedding is found by
//! approximate subgraph isomorphism with property-mismatch cost
//! minimization (paper Listing 4), and the unmatched foreground remainder
//! — with dummy boundary nodes — is the benchmark result.
//!
//! The stage is session-aware: [`compare_in`] matches two members of a
//! [`CorpusSession`] (zero compile cost when the pipeline threads its
//! per-run session through), drives the subgraph solve through a
//! prepared left-hand plan ([`BatchSolver`]) so the background side of
//! the search is set up once per cell rather than once per solve, borrows
//! the matched identifiers straight out of the witness matching, and
//! lowers to a [`PropertyGraph`] only for the subtracted result graph.

use std::collections::BTreeSet;

use aspsolver::{find_subgraph, BatchSolver, Matching, Problem, SolveMemo, SolverConfig};
use provgraph::compiled::{CorpusSession, GraphId};
use provgraph::{diff, PropertyGraph};

use crate::PipelineError;

/// Result of the comparison stage.
#[derive(Debug, Clone)]
pub struct Comparison {
    /// The benchmark result graph: unmatched foreground structure plus
    /// dummy boundary nodes.
    pub result: PropertyGraph,
    /// Property-mismatch cost of the optimal embedding (0 when the
    /// background matched perfectly).
    pub matching_cost: u64,
}

impl Comparison {
    /// `true` when the recorder captured nothing for the target activity
    /// (the paper's "empty" cells in Table 2).
    pub fn is_empty(&self) -> bool {
        diff::effective_size(&self.result) == 0
    }
}

/// Match `background` into `foreground` and subtract it.
///
/// One-shot path: solves via [`find_subgraph`], whose engine compiles
/// both graphs against the warm per-thread interner (no session setup or
/// owned id arenas per call). The pipeline uses [`compare_in`] with its
/// per-run session instead, which amortizes even that compile.
///
/// # Errors
///
/// [`PipelineError::BackgroundNotSubgraph`] when no structure-preserving
/// embedding exists (the recording-monotonicity assumption failed — e.g.
/// when generalization picked a larger background than foreground,
/// paper §3.4).
pub fn compare(
    background: &PropertyGraph,
    foreground: &PropertyGraph,
) -> Result<Comparison, PipelineError> {
    let matching =
        find_subgraph(background, foreground).ok_or(PipelineError::BackgroundNotSubgraph)?;
    subtract_matched(foreground, &matching)
}

/// Match session member `background` into `foreground` and subtract it.
///
/// `foreground_graph` must be the property graph `foreground` was
/// compiled from; the result graph is carved out of it. The matched
/// identifiers are borrowed from the witness matching — nothing is cloned
/// per cell on the way to the subtraction.
///
/// The solve goes through a [`BatchSolver`]'s prepared left-hand plan
/// (a batch of one), consulting `memo` when given — a replayed
/// (background, foreground) core pair (regression replay, repeated
/// cells) is then served from the cache. Outcomes are identical to the
/// plain session path either way.
///
/// # Errors
///
/// Same contract as [`compare`].
pub fn compare_in(
    session: &CorpusSession,
    background: GraphId,
    foreground: GraphId,
    foreground_graph: &PropertyGraph,
    memo: Option<&SolveMemo>,
) -> Result<Comparison, PipelineError> {
    let matching = BatchSolver::new(
        Problem::Subgraph,
        session,
        background,
        SolverConfig::default(),
    )
    .with_memo(memo)
    .solve_one(foreground)
    .matching
    .ok_or(PipelineError::BackgroundNotSubgraph)?;
    subtract_matched(foreground_graph, &matching)
}

/// Shared tail of both entry points: borrow the matched identifiers out
/// of the witness and subtract them from the foreground.
fn subtract_matched(
    foreground: &PropertyGraph,
    matching: &Matching,
) -> Result<Comparison, PipelineError> {
    let matched_nodes: BTreeSet<&str> = matching.node_map.values().map(String::as_str).collect();
    let matched_edges: BTreeSet<&str> = matching.edge_map.values().map(String::as_str).collect();
    let result = diff::subtract(foreground, &matched_nodes, &matched_edges)?;
    Ok(Comparison {
        result,
        matching_cost: matching.cost,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bg() -> PropertyGraph {
        let mut g = PropertyGraph::new();
        g.add_node("p", "Process").unwrap();
        g.add_node("lib", "Artifact").unwrap();
        g.add_edge("e1", "p", "lib", "Used").unwrap();
        g
    }

    fn fg_with_target() -> PropertyGraph {
        let mut g = bg();
        g.add_node("t", "Artifact").unwrap();
        g.add_edge("e2", "t", "p", "WasGeneratedBy").unwrap();
        g
    }

    #[test]
    fn target_structure_survives() {
        let c = compare(&bg(), &fg_with_target()).unwrap();
        assert!(!c.is_empty());
        assert!(c.result.has_node("t"));
        assert!(c.result.has_edge("e2"));
        assert!(!c.result.has_edge("e1"));
        // The process anchors the new edge: retained as dummy.
        assert!(diff::is_dummy(&c.result, "p"));
    }

    #[test]
    fn identical_graphs_give_empty_result() {
        let c = compare(&bg(), &bg()).unwrap();
        assert!(c.is_empty());
        assert_eq!(c.matching_cost, 0);
    }

    #[test]
    fn compare_in_agrees_with_one_shot_compare() {
        let bg = bg();
        let fg = fg_with_target();
        let mut session = CorpusSession::new();
        let b = session.add(&bg);
        let f = session.add(&fg);
        let via_session = compare_in(&session, b, f, &fg, None).unwrap();
        let one_shot = compare(&bg, &fg).unwrap();
        assert_eq!(via_session.result, one_shot.result);
        assert_eq!(via_session.matching_cost, one_shot.matching_cost);
    }

    #[test]
    fn compare_in_with_memo_agrees_and_replays_from_cache() {
        let bg = bg();
        let fg = fg_with_target();
        let mut session = CorpusSession::new();
        let b = session.add(&bg);
        let f = session.add(&fg);
        let plain = compare_in(&session, b, f, &fg, None).unwrap();
        let memo = SolveMemo::new();
        let cold = compare_in(&session, b, f, &fg, Some(&memo)).unwrap();
        let warm = compare_in(&session, b, f, &fg, Some(&memo)).unwrap();
        assert_eq!(memo.misses(), 1);
        assert_eq!(memo.hits(), 1, "the replayed cell must come from the cache");
        for c in [&cold, &warm] {
            assert_eq!(c.result, plain.result);
            assert_eq!(c.matching_cost, plain.matching_cost);
        }
    }

    #[test]
    fn oversized_background_is_an_error() {
        let err = compare(&fg_with_target(), &bg()).unwrap_err();
        assert!(matches!(err, PipelineError::BackgroundNotSubgraph));
    }

    #[test]
    fn label_incompatible_background_is_an_error() {
        let mut other = bg();
        other.remove_node("lib").unwrap();
        other.add_node("x", "Socket").unwrap();
        assert!(compare(&other, &fg_with_target()).is_err());
    }
}
