//! Graph generalization (paper §3.4).
//!
//! Several recording trials of the same program yield graphs that agree in
//! structure but differ in transient data. This stage:
//!
//! 1. partitions the trials into **similarity classes** (same shape and
//!    labels, properties ignored) — classes of size one are *failed runs*
//!    and are discarded;
//! 2. picks a representative **pair** from the class whose graphs are
//!    smallest (the paper found two-smallest and two-largest both work;
//!    both are implemented for the ablation bench);
//! 3. finds the similarity bijection minimizing property differences and
//!    **strips every property that differs** — the surviving properties
//!    are the invariant ones.
//!
//! The whole stage runs over a [`CorpusSession`]: every trial is compiled
//! exactly once into the session's shared interner, and fingerprint
//! bucketing, similarity confirmation and the generalization matching all
//! reuse those compiled graphs ([`generalize_trials_in`]). The pipeline
//! threads one session per benchmark run through generalization *and* the
//! comparison stage, so no graph is ever compiled (or its vocabulary
//! re-interned) twice.

use aspsolver::{
    find_generalization, solve_in_memo, BatchSolver, Matching, Problem, SolveMemo, SolverConfig,
};
use provgraph::compiled::{CorpusSession, GraphId};
use provgraph::PropertyGraph;

use crate::PipelineError;

/// Which pair of consistent trials generalization uses (paper §3.4
/// discusses the choice; `TwoSmallest` is ProvMark's default).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PairStrategy {
    /// The class with the smallest graphs (default).
    #[default]
    TwoSmallest,
    /// The class with the largest graphs (also works per the paper).
    TwoLargest,
}

/// Partition trial graphs into similarity classes.
///
/// Convenience wrapper over [`similarity_classes_in`] that compiles the
/// trials into a throwaway [`CorpusSession`]. Callers that keep using the
/// graphs (the pipeline does) should build the session themselves so the
/// compiled trials are reused by the later stages.
pub fn similarity_classes(graphs: &[PropertyGraph]) -> Vec<Vec<usize>> {
    let mut session = CorpusSession::new();
    let ids: Vec<GraphId> = graphs.iter().map(|g| session.add(g)).collect();
    similarity_classes_in(&session, &ids, graphs, None)
}

/// Partition session-compiled trial graphs into similarity classes.
///
/// `ids[i]` must be the session handle of `graphs[i]`; the returned
/// classes contain positions into that common indexing. Three-layer
/// classification, entirely in symbol space:
///
/// 1. **Fingerprint prefilter** — compiled-path Weisfeiler–Lehman shape
///    fingerprints (memoized per session member at compile time, no
///    string hashing) bucket the trials; unequal fingerprints *prove*
///    dissimilarity, so the exact solver never sees cross-bucket pairs.
/// 2. **Identity fast path** — set-equal graphs are trivially similar
///    and skip the solver entirely.
/// 3. **Exact confirmation** — within a bucket (buckets taken in
///    fingerprint order on the caller's thread), each class
///    representative is confirmed against **all** still-unclassified
///    bucket members in one batched solver call
///    ([`BatchSolver`]): the representative's left-hand search plan is
///    prepared once and reused for every member, instead of being
///    rebuilt per pair. Every trial was compiled exactly once when added
///    to the session, so confirmation pays zero compile cost either way.
///    Fingerprint collisions may still split a bucket into several
///    classes, so the result is always a true partition by similarity.
///
/// The batched schedule produces exactly the partition the pair-at-a-time
/// schedule did: a trial belongs to the first class (in creation order)
/// whose representative it matches, and representatives are taken in
/// trial order either way.
///
/// `memo`, when given, is threaded into every batched confirmation
/// ([`BatchSolver::with_memo`]): cores already confirmed under one
/// representative are replayed from the cache when a later
/// representative (or a later caller sharing the memo — the pipeline
/// threads one per benchmark run) meets an equivalent core. The
/// partition is identical with and without it.
pub fn similarity_classes_in(
    session: &CorpusSession,
    ids: &[GraphId],
    graphs: &[PropertyGraph],
    memo: Option<&SolveMemo>,
) -> Vec<Vec<usize>> {
    debug_assert_eq!(ids.len(), graphs.len());
    let mut buckets: std::collections::BTreeMap<u64, Vec<usize>> = Default::default();
    for (i, id) in ids.iter().enumerate() {
        let fp = session.shape_fingerprint(*id);
        buckets.entry(fp).or_default().push(i);
    }
    let mut classes = Vec::new();
    for bucket in buckets.values() {
        // Class members as bucket-local positions; representative first.
        let mut sub: Vec<Vec<usize>> = Vec::new();
        let mut remaining: Vec<usize> = (0..bucket.len()).collect();
        while let Some((&rep, rest)) = remaining.split_first() {
            // Identity fast path first; everything else goes through one
            // batched confirmation against the representative.
            let mut need: Vec<GraphId> = Vec::new();
            let trivially: Vec<bool> = rest
                .iter()
                .map(|&local| {
                    let equal = graphs[bucket[rep]] == graphs[bucket[local]];
                    if !equal {
                        need.push(ids[bucket[local]]);
                    }
                    equal
                })
                .collect();
            let outcomes = if need.is_empty() {
                Vec::new()
            } else {
                BatchSolver::new(
                    Problem::Similarity,
                    session,
                    ids[bucket[rep]],
                    SolverConfig::default(),
                )
                .with_memo(memo)
                .solve_batch(&need)
            };
            let mut outcomes = outcomes.into_iter();
            let mut class = vec![rep];
            let mut next = Vec::new();
            for (&local, &equal) in rest.iter().zip(&trivially) {
                let similar = equal
                    || outcomes
                        .next()
                        // provlint: allow(panic-in-lib) -- the batch was built with one entry per non-trivial member of this zip
                        .expect("one batch outcome per solver-confirmed member")
                        .matching
                        .is_some();
                if similar {
                    class.push(local);
                } else {
                    next.push(local);
                }
            }
            sub.push(class);
            remaining = next;
        }
        classes.extend(
            sub.into_iter()
                .map(|class| class.into_iter().map(|local| bucket[local]).collect()),
        );
    }
    classes
}

/// Pick the representative pair per the strategy. Returns trial indices.
///
/// Classes of size one are failed runs and never chosen.
pub fn pick_pair(
    classes: &[Vec<usize>],
    graphs: &[PropertyGraph],
    strategy: PairStrategy,
) -> Option<(usize, usize)> {
    let viable = classes.iter().filter(|c| c.len() >= 2);
    let chosen = match strategy {
        PairStrategy::TwoSmallest => viable.min_by_key(|c| graphs[c[0]].size()),
        PairStrategy::TwoLargest => viable.max_by_key(|c| graphs[c[0]].size()),
    }?;
    Some((chosen[0], chosen[1]))
}

/// Generalize a pair of similar graphs: keep only the properties that
/// match under the optimal (mismatch-minimizing) bijection.
///
/// Returns `None` when the graphs are not similar at all.
pub fn generalize_pair(g1: &PropertyGraph, g2: &PropertyGraph) -> Option<PropertyGraph> {
    let matching = find_generalization(g1, g2)?;
    Some(apply_generalization(g1, g2, &matching))
}

/// Build the generalized graph for a matched pair: `g1` with every
/// property that differs from its image under `matching` stripped.
fn apply_generalization(
    g1: &PropertyGraph,
    g2: &PropertyGraph,
    matching: &Matching,
) -> PropertyGraph {
    let mut out = PropertyGraph::new();
    for n in g1.nodes() {
        let mut node = n.clone();
        if let Some(image) = matching.node_map.get(&n.id).and_then(|id| g2.node(id)) {
            node.props.retain(|k, v| image.props.get(k) == Some(v));
        } else {
            node.props.clear();
        }
        // provlint: allow(panic-in-lib) -- ids copied from a graph whose ids are already unique
        out.add_node_data(node).expect("copied node unique");
    }
    for e in g1.edges() {
        let mut edge = e.clone();
        if let Some(image) = matching.edge_map.get(&e.id).and_then(|id| g2.edge(id)) {
            edge.props.retain(|k, v| image.props.get(k) == Some(v));
        } else {
            edge.props.clear();
        }
        // provlint: allow(panic-in-lib) -- ids copied from a graph whose ids are already unique
        out.add_edge_data(edge).expect("copied edge unique");
    }
    out
}

/// Outcome of generalizing one variant's trials.
#[derive(Debug, Clone)]
pub struct Generalized {
    /// The generalized (volatile-free) representative graph.
    pub graph: PropertyGraph,
    /// Trials discarded as failed runs (singleton similarity classes or
    /// unparseable output upstream).
    pub discarded: usize,
}

/// Full generalization stage over all trials of one program variant.
///
/// Convenience wrapper over [`generalize_trials_in`] with a throwaway
/// [`CorpusSession`]; the pipeline passes its per-run session instead so
/// compiled trials carry over to the comparison stage's interner.
///
/// # Errors
///
/// - [`PipelineError::NotEnoughTrials`] with fewer than two trials;
/// - [`PipelineError::NoConsistentTrials`] when every similarity class is
///   a singleton.
pub fn generalize_trials(
    graphs: &[PropertyGraph],
    strategy: PairStrategy,
    variant: &'static str,
) -> Result<Generalized, PipelineError> {
    generalize_trials_in(&mut CorpusSession::new(), graphs, strategy, variant, None)
}

/// Full generalization stage over all trials of one program variant,
/// threading a caller-owned [`CorpusSession`].
///
/// Every trial is compiled once into `session`; classification and the
/// generalization matching then run entirely over the session's compiled
/// graphs. The session keeps the compiled trials (and, more importantly,
/// the interned vocabulary) afterwards, so later stages sharing the
/// session — the other variant, the comparison stage — intern next to
/// nothing. Lowering to a [`PropertyGraph`] happens only once, for the
/// returned generalized representative.
///
/// `memo`, when given, is shared by the classification batches and the
/// generalization matching (the pipeline threads one memo per benchmark
/// run, so both variants' stages replay each other's dense solves).
///
/// # Errors
///
/// Same contract as [`generalize_trials`].
pub fn generalize_trials_in(
    session: &mut CorpusSession,
    graphs: &[PropertyGraph],
    strategy: PairStrategy,
    variant: &'static str,
    memo: Option<&SolveMemo>,
) -> Result<Generalized, PipelineError> {
    if graphs.len() < 2 {
        return Err(PipelineError::NotEnoughTrials(graphs.len()));
    }
    let ids: Vec<GraphId> = graphs.iter().map(|g| session.add(g)).collect();
    let classes = similarity_classes_in(session, &ids, graphs, memo);
    let Some((a, b)) = pick_pair(&classes, graphs, strategy) else {
        return Err(PipelineError::NoConsistentTrials {
            variant,
            trials: graphs.len(),
        });
    };
    // A pair drawn from a similarity class is similar, so the only way
    // the matching can be absent is the solver abandoning the search at
    // its step budget on a pathological trial — a reportable condition,
    // not a programming error.
    let matching = solve_in_memo(
        Problem::Generalization,
        session,
        ids[a],
        ids[b],
        &SolverConfig::default(),
        memo,
    )
    .matching
    .ok_or(PipelineError::SolverGaveUp {
        stage: "generalization",
    })?;
    let graph = apply_generalization(&graphs[a], &graphs[b], &matching);
    let chosen_class_len = classes
        .iter()
        .find(|c| c.contains(&a))
        .map(Vec::len)
        .unwrap_or(2);
    Ok(Generalized {
        graph,
        discarded: graphs.len() - chosen_class_len,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trial(time: &str, extra_node: bool) -> PropertyGraph {
        let mut g = PropertyGraph::new();
        g.add_node("p", "Process").unwrap();
        g.add_node("f", "Artifact").unwrap();
        g.add_edge("e", "p", "f", "Used").unwrap();
        g.set_node_property("p", "pid", time).unwrap(); // volatile
        g.set_node_property("f", "path", "/tmp/t").unwrap(); // stable
        g.set_edge_property("e", "time", time).unwrap(); // volatile
        g.set_edge_property("e", "op", "open").unwrap(); // stable
        if extra_node {
            g.add_node("noise", "Artifact").unwrap();
        }
        g
    }

    #[test]
    fn classes_split_failed_runs() {
        let graphs = vec![trial("1", false), trial("2", false), trial("3", true)];
        let classes = similarity_classes(&graphs);
        assert_eq!(classes.len(), 2);
        let sizes: Vec<usize> = classes.iter().map(Vec::len).collect();
        assert!(sizes.contains(&2) && sizes.contains(&1));
    }

    #[test]
    fn pick_pair_ignores_singletons() {
        let graphs = vec![trial("1", true), trial("2", false), trial("3", false)];
        let classes = similarity_classes(&graphs);
        let (a, b) = pick_pair(&classes, &graphs, PairStrategy::TwoSmallest).unwrap();
        assert!(!graphs[a].has_node("noise"));
        assert!(!graphs[b].has_node("noise"));
    }

    #[test]
    fn pick_pair_strategies_differ() {
        // Two classes of two: small pair and large pair.
        let graphs = vec![
            trial("1", false),
            trial("2", false),
            trial("3", true),
            trial("4", true),
        ];
        let classes = similarity_classes(&graphs);
        let small = pick_pair(&classes, &graphs, PairStrategy::TwoSmallest).unwrap();
        let large = pick_pair(&classes, &graphs, PairStrategy::TwoLargest).unwrap();
        assert!(graphs[small.0].size() < graphs[large.0].size());
    }

    #[test]
    fn generalize_strips_volatile_keeps_stable() {
        let g = generalize_pair(&trial("111", false), &trial("222", false)).unwrap();
        assert_eq!(g.prop("p", "pid"), None, "volatile pid stripped");
        assert_eq!(g.prop("e", "time"), None, "volatile time stripped");
        assert_eq!(g.prop("f", "path"), Some("/tmp/t"), "stable path kept");
        assert_eq!(g.prop("e", "op"), Some("open"), "stable op kept");
    }

    #[test]
    fn generalize_dissimilar_is_none() {
        assert!(generalize_pair(&trial("1", false), &trial("2", true)).is_none());
    }

    #[test]
    fn generalize_trials_end_to_end() {
        let graphs = vec![trial("5", false), trial("6", true), trial("7", false)];
        let out = generalize_trials(&graphs, PairStrategy::default(), "background").unwrap();
        assert_eq!(out.discarded, 1);
        assert_eq!(out.graph.prop("f", "path"), Some("/tmp/t"));
        assert_eq!(out.graph.prop("p", "pid"), None);
    }

    #[test]
    fn all_inconsistent_is_error() {
        // Three pairwise-dissimilar graphs.
        let mut g1 = PropertyGraph::new();
        g1.add_node("a", "A").unwrap();
        let mut g2 = PropertyGraph::new();
        g2.add_node("a", "B").unwrap();
        let mut g3 = PropertyGraph::new();
        g3.add_node("a", "C").unwrap();
        let err =
            generalize_trials(&[g1, g2, g3], PairStrategy::default(), "foreground").unwrap_err();
        assert!(matches!(
            err,
            PipelineError::NoConsistentTrials {
                variant: "foreground",
                trials: 3
            }
        ));
    }

    #[test]
    fn single_trial_is_error() {
        let err = generalize_trials(&[trial("1", false)], PairStrategy::default(), "background")
            .unwrap_err();
        assert!(matches!(err, PipelineError::NotEnoughTrials(1)));
    }

    #[test]
    fn matching_pairs_volatile_optimally() {
        // Two nodes per graph distinguished only by a stable name; the
        // optimal matching must align names so only timestamps differ.
        let make = |t1: &str, t2: &str| {
            let mut g = PropertyGraph::new();
            g.add_node("x", "F").unwrap();
            g.set_node_property("x", "name", "alpha").unwrap();
            g.set_node_property("x", "time", t1).unwrap();
            g.add_node("y", "F").unwrap();
            g.set_node_property("y", "name", "beta").unwrap();
            g.set_node_property("y", "time", t2).unwrap();
            g
        };
        let g = generalize_pair(&make("1", "2"), &make("8", "9")).unwrap();
        assert_eq!(g.prop("x", "name"), Some("alpha"));
        assert_eq!(g.prop("y", "name"), Some("beta"));
        assert_eq!(g.prop("x", "time"), None);
        assert_eq!(g.prop("y", "time"), None);
    }
}
