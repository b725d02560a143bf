//! Differential property tests: the compiled (symbol-interned) engine and
//! the legacy string-path engine must return **identical** outcomes —
//! same feasibility verdict, same witness matching, same cost, same
//! optimality flag — for every problem over randomly generated graphs.
//!
//! The two engines share candidate ordering, variable selection and edge
//! placement logic by construction, so even witnesses (which are not
//! unique in general) line up exactly; asserting full equality is what
//! lets the string path serve as the reference implementation while the
//! compiled path serves production traffic.
//!
//! # What is pinned
//!
//! The compiled engine's bitset/WL kernel is **outcome-neutral but
//! statistics-improving**: WL-colour skips remove provably solution-free
//! work before the step counter. The invariant split is therefore:
//!
//! - **outcomes**: matchings, costs and optimality flags equal the
//!   string oracle's under every configuration;
//! - **statistics**: deterministic, never larger than the oracle's, and
//!   identical across the one-shot, session, batch and memo paths.

use proptest::prelude::*;
use provgraph::compiled::{CompiledGraph, CorpusSession, GraphId, Interner};
use provgraph::PropertyGraph;

use aspsolver::{
    solve, solve_batch_in, solve_batch_in_memo, solve_compiled, solve_in, solve_in_memo,
    solve_strings, Matching, Problem, SolveMemo, SolverConfig,
};

/// An arbitrary small multigraph with node and edge properties.
fn arb_graph(max_nodes: usize) -> impl Strategy<Value = PropertyGraph> {
    let node_label = prop::sample::select(vec!["P", "A", "E"]);
    let edge_label = prop::sample::select(vec!["u", "g"]);
    (
        prop::collection::vec(node_label, 1..=max_nodes),
        prop::collection::vec((0usize..8, 0usize..8, edge_label), 0..=8),
        prop::collection::vec((0usize..8, "k[123]", "[abc]"), 0..=5),
        prop::collection::vec((0usize..8, "t[12]", "[xy]"), 0..=4),
    )
        .prop_map(|(nodes, edges, node_props, edge_props)| {
            let mut g = PropertyGraph::new();
            for (i, label) in nodes.iter().enumerate() {
                g.add_node(format!("n{i}"), *label).unwrap();
            }
            let n = g.node_count();
            for (j, (s, t, label)) in edges.iter().enumerate() {
                g.add_edge(
                    format!("e{j}"),
                    format!("n{}", s % n),
                    format!("n{}", t % n),
                    *label,
                )
                .unwrap();
            }
            for (i, k, v) in node_props {
                g.set_node_property(&format!("n{}", i % n), k, v).unwrap();
            }
            let m = g.edge_count();
            if m > 0 {
                for (j, k, v) in edge_props {
                    g.set_edge_property(&format!("e{}", j % m), k, v).unwrap();
                }
            }
            g
        })
}

/// A structurally identical copy with fresh ids, reversed insertion order
/// and perturbed properties (drives the optimizing problems off the
/// trivial zero-cost diagonal).
fn relabel_perturbed(g: &PropertyGraph, perturb: bool) -> PropertyGraph {
    let mut out = PropertyGraph::new();
    let nodes: Vec<_> = g.nodes().collect();
    for n in nodes.iter().rev() {
        let mut copy = (*n).clone();
        copy.id = format!("c_{}", n.id);
        if perturb {
            copy.props.insert("k1".to_owned(), "perturbed".to_owned());
        }
        out.add_node_data(copy).unwrap();
    }
    let edges: Vec<_> = g.edges().collect();
    for e in edges.iter().rev() {
        let mut copy = (*e).clone();
        copy.id = format!("c_{}", e.id);
        copy.src = format!("c_{}", e.src);
        copy.tgt = format!("c_{}", e.tgt);
        out.add_edge_data(copy).unwrap();
    }
    out
}

const ALL_PROBLEMS: [Problem; 4] = [
    Problem::Similarity,
    Problem::Isomorphism,
    Problem::Generalization,
    Problem::Subgraph,
];

/// Assert both engines produce the same outcome; returns the matching for
/// further validity checks.
fn assert_paths_agree(
    problem: Problem,
    g1: &PropertyGraph,
    g2: &PropertyGraph,
    config: &SolverConfig,
) -> Option<Matching> {
    let compiled = solve(problem, g1, g2, config);
    let strings = solve_strings(problem, g1, g2, config);
    assert_eq!(
        compiled.optimal, strings.optimal,
        "{problem:?}: optimality flags diverge"
    );
    assert_eq!(
        compiled.matching.is_some(),
        strings.matching.is_some(),
        "{problem:?}: feasibility diverges"
    );
    match (&compiled.matching, &strings.matching) {
        (Some(c), Some(s)) => {
            assert_eq!(c.cost, s.cost, "{problem:?}: optima diverge");
            assert_eq!(
                c.node_map, s.node_map,
                "{problem:?}: node witnesses diverge"
            );
            assert_eq!(
                c.edge_map, s.edge_map,
                "{problem:?}: edge witnesses diverge"
            );
        }
        (None, None) => {}
        _ => unreachable!("feasibility already compared"),
    }
    compiled.matching
}

/// Check a matching is a valid witness for `problem` (independent of
/// either engine's internals).
fn assert_valid_witness(problem: Problem, g1: &PropertyGraph, g2: &PropertyGraph, m: &Matching) {
    assert_eq!(
        m.node_map.len(),
        g1.node_count(),
        "{problem:?}: total on nodes"
    );
    assert_eq!(
        m.edge_map.len(),
        g1.edge_count(),
        "{problem:?}: total on edges"
    );
    // Injectivity.
    let images: std::collections::BTreeSet<&String> = m.node_map.values().collect();
    assert_eq!(
        images.len(),
        m.node_map.len(),
        "{problem:?}: node injectivity"
    );
    let eimages: std::collections::BTreeSet<&String> = m.edge_map.values().collect();
    assert_eq!(
        eimages.len(),
        m.edge_map.len(),
        "{problem:?}: edge injectivity"
    );
    if problem.bijective() {
        assert_eq!(m.node_map.len(), g2.node_count(), "{problem:?}: onto nodes");
        assert_eq!(m.edge_map.len(), g2.edge_count(), "{problem:?}: onto edges");
    }
    // Structure and label preservation.
    for (id1, id2) in &m.node_map {
        assert_eq!(
            g1.node_label(id1),
            g2.node_label(id2),
            "{problem:?}: node label preserved"
        );
    }
    for (e1, e2) in &m.edge_map {
        let d1 = g1.edge(e1).unwrap();
        let d2 = g2.edge(e2).unwrap();
        assert_eq!(d1.label, d2.label, "{problem:?}: edge label preserved");
        assert_eq!(
            &m.node_map[&d1.src], &d2.src,
            "{problem:?}: source preserved"
        );
        assert_eq!(
            &m.node_map[&d1.tgt], &d2.tgt,
            "{problem:?}: target preserved"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Identical outcomes on arbitrary (mostly infeasible) pairs.
    #[test]
    fn engines_agree_on_arbitrary_pairs(
        g1 in arb_graph(4),
        g2 in arb_graph(5),
    ) {
        for problem in ALL_PROBLEMS {
            if let Some(m) = assert_paths_agree(problem, &g1, &g2, &SolverConfig::default()) {
                assert_valid_witness(problem, &g1, &g2, &m);
            }
        }
    }

    /// Identical outcomes on relabelled copies (always feasible for the
    /// bijective problems, so witnesses are actually exercised).
    #[test]
    fn engines_agree_on_relabelled_copies(g in arb_graph(6)) {
        let h = relabel_perturbed(&g, false);
        for problem in ALL_PROBLEMS {
            let m = assert_paths_agree(problem, &g, &h, &SolverConfig::default())
                .expect("relabelled copy must match");
            assert_valid_witness(problem, &g, &h, &m);
            if problem.optimizing() {
                assert_eq!(m.cost, 0, "{problem:?}: identical copy at zero cost");
            }
        }
    }

    /// Identical outcomes (including nonzero optima) on property-perturbed
    /// copies.
    #[test]
    fn engines_agree_on_perturbed_copies(g in arb_graph(5)) {
        let h = relabel_perturbed(&g, true);
        for problem in [Problem::Generalization, Problem::Subgraph] {
            if let Some(m) = assert_paths_agree(problem, &g, &h, &SolverConfig::default()) {
                assert_valid_witness(problem, &g, &h, &m);
            }
        }
    }

    /// The ablation configurations agree across engines too (they drive
    /// different search orders, which must stay in lockstep).
    #[test]
    fn engines_agree_under_ablation_configs(g in arb_graph(4)) {
        let h = relabel_perturbed(&g, true);
        let configs = [
            SolverConfig::naive(),
            SolverConfig { degree_filter: false, ..SolverConfig::default() },
            // Bitset kernel with static domains (no forward propagation).
            SolverConfig { forward_check: false, ..SolverConfig::default() },
            SolverConfig { cost_bound: false, order_by_cost: false, ..SolverConfig::default() },
        ];
        for config in &configs {
            for problem in ALL_PROBLEMS {
                assert_paths_agree(problem, &g, &h, config);
            }
        }
    }

    /// The compiled engine explores no more than the oracle: its outcome
    /// is oracle-identical while its statistics are deterministic and
    /// never worse than the string path's, which checks consistency per
    /// candidate and has no colour signal.
    #[test]
    fn engines_explore_identically(g in arb_graph(5), h in arb_graph(5)) {
        let config = SolverConfig::default();
        for problem in ALL_PROBLEMS {
            let strings = solve_strings(problem, &g, &h, &config);
            let pruned = solve(problem, &g, &h, &config);
            prop_assert_eq!(
                &pruned.matching, &strings.matching,
                "{:?}: pruned matching diverges from the oracle", problem
            );
            prop_assert_eq!(
                pruned.optimal, strings.optimal,
                "{:?}: pruned optimality diverges from the oracle", problem
            );
            prop_assert!(
                pruned.stats.steps <= strings.stats.steps,
                "{:?}: pruning must never add steps ({} > {})",
                problem, pruned.stats.steps, strings.stats.steps
            );
            prop_assert!(
                pruned.stats.backtracks <= strings.stats.backtracks,
                "{:?}: pruning must never add backtracks ({} > {})",
                problem, pruned.stats.backtracks, strings.stats.backtracks
            );
            let replay = solve(problem, &g, &h, &config);
            prop_assert_eq!(
                pruned.stats, replay.stats,
                "{:?}: pruned statistics must be deterministic", problem
            );
        }
    }

    /// The corpus-session path returns outcomes identical to **both** the
    /// string oracle and the borrow-based compiled path — matchings,
    /// costs and optimality always; statistics bounded by the oracle's,
    /// and equal across compiled paths (memoized session colours vs
    /// one-shot colour derivation) — on every ordered
    /// pair of a randomly generated corpus, for all four problems. This
    /// is what licenses the pipeline to run generalization and
    /// comparison over session handles while the string path stays the
    /// reference.
    #[test]
    fn session_path_agrees_with_both_engines(
        graphs in prop::collection::vec(arb_graph(4), 2..4),
        perturbed_copy in prop::sample::select(vec![false, true]),
    ) {
        let mut corpus: Vec<PropertyGraph> = graphs;
        // Guarantee at least one feasible bijective pair in the corpus so
        // witnesses are exercised, not just infeasibility verdicts.
        let copy = relabel_perturbed(&corpus[0], perturbed_copy);
        corpus.push(copy);
        let mut session = CorpusSession::new();
        let ids: Vec<_> = corpus.iter().map(|g| session.add(g)).collect();
        // An equivalent borrow-based compilation sharing one interner.
        let mut interner = Interner::new();
        let compiled: Vec<CompiledGraph> = corpus
            .iter()
            .map(|g| CompiledGraph::compile(g, &mut interner))
            .collect();
        let config = SolverConfig::default();
        for i in 0..corpus.len() {
            for j in 0..corpus.len() {
                for problem in ALL_PROBLEMS {
                    let in_session = solve_in(problem, &session, ids[i], ids[j], &config);
                    let strings = solve_strings(problem, &corpus[i], &corpus[j], &config);
                    let borrowed =
                        solve_compiled(problem, &compiled[i], &compiled[j], &config);
                    prop_assert_eq!(
                        in_session.optimal, strings.optimal,
                        "{:?} ({}, {}): optimality diverges from oracle", problem, i, j
                    );
                    prop_assert_eq!(
                        &in_session.matching, &strings.matching,
                        "{:?} ({}, {}): matching diverges from oracle", problem, i, j
                    );
                    // Statistics are pinned *across compiled paths*
                    // (session colours vs one-shot derivation must prune
                    // identically) and bounded by the oracle's counts.
                    prop_assert!(
                        in_session.stats.steps <= strings.stats.steps,
                        "{:?} ({}, {}): pruning must never add steps", problem, i, j
                    );
                    prop_assert!(
                        in_session.stats.backtracks <= strings.stats.backtracks,
                        "{:?} ({}, {}): pruning must never add backtracks", problem, i, j
                    );
                    prop_assert_eq!(
                        &in_session.matching, &borrowed.matching,
                        "{:?} ({}, {}): session and borrowed compiled paths diverge",
                        problem, i, j
                    );
                    prop_assert_eq!(
                        in_session.stats, borrowed.stats,
                        "{:?} ({}, {}): session and borrowed stats diverge", problem, i, j
                    );
                    if let Some(m) = &in_session.matching {
                        assert_valid_witness(problem, &corpus[i], &corpus[j], m);
                    }
                }
            }
        }
    }

    /// The batch path (one prepared left-hand plan, many right-hand
    /// graphs) returns outcomes identical to per-pair [`solve_in`] in
    /// every observable including search statistics, and to the string
    /// oracle in matchings, costs and optimality flags — for every left
    /// graph of a random corpus against the whole corpus, for all four
    /// problems. This is what licenses similarity classification and
    /// the comparison stage to batch their solves.
    #[test]
    fn batch_path_agrees_with_per_pair_session_and_oracle(
        graphs in prop::collection::vec(arb_graph(4), 2..4),
        perturbed_copy in prop::sample::select(vec![false, true]),
    ) {
        let mut corpus: Vec<PropertyGraph> = graphs;
        // Guarantee at least one feasible bijective pair so witnesses
        // are exercised, not just infeasibility verdicts.
        let copy = relabel_perturbed(&corpus[0], perturbed_copy);
        corpus.push(copy);
        let mut session = CorpusSession::new();
        let ids: Vec<GraphId> = corpus.iter().map(|g| session.add(g)).collect();
        let config = SolverConfig::default();
        for problem in ALL_PROBLEMS {
            for (i, &lhs) in ids.iter().enumerate() {
                // The batch includes the left graph itself (the
                // self-solve is a legal member of a bucket batch).
                let batch = solve_batch_in(problem, &session, lhs, &ids, &config);
                prop_assert_eq!(batch.len(), ids.len());
                for (j, out) in batch.iter().enumerate() {
                    let per_pair = solve_in(problem, &session, lhs, ids[j], &config);
                    let strings = solve_strings(problem, &corpus[i], &corpus[j], &config);
                    prop_assert_eq!(
                        &out.matching, &per_pair.matching,
                        "{:?} ({}, {}): batch matching diverges from per-pair", problem, i, j
                    );
                    prop_assert_eq!(
                        out.optimal, per_pair.optimal,
                        "{:?} ({}, {}): batch optimality diverges from per-pair", problem, i, j
                    );
                    prop_assert_eq!(
                        out.stats, per_pair.stats,
                        "{:?} ({}, {}): batch statistics diverge from per-pair", problem, i, j
                    );
                    prop_assert_eq!(
                        &out.matching, &strings.matching,
                        "{:?} ({}, {}): batch matching diverges from oracle", problem, i, j
                    );
                    // Statistics are held to the per-pair session path
                    // above, which `session_path_agrees_with_both_engines`
                    // bounds by the oracle's.
                    if let Some(m) = &out.matching {
                        assert_valid_witness(problem, &corpus[i], &corpus[j], m);
                    }
                }
            }
        }
    }

    /// Mixed-session batch fuzz: right-hand batches where [`GraphId`]
    /// handles **repeat and interleave** arbitrarily, run across all four
    /// problems over one shared session. Repeats land in one
    /// dense-solve-sharing group by construction (a graph's core is
    /// trivially solver-equivalent to itself), so this exercises the
    /// grouping, translation fan-out and ordering logic well beyond the
    /// each-member-once batches the pipeline issues — while the outcome
    /// must stay position-by-position identical to per-pair [`solve_in`]
    /// and the string oracle, including search statistics.
    #[test]
    fn batch_fuzz_repeated_interleaved_handles(
        graphs in prop::collection::vec(arb_graph(4), 2..4),
        picks in prop::collection::vec(0usize..16, 0..12),
        lhs_picks in prop::collection::vec(0usize..16, 2..4),
    ) {
        let mut corpus: Vec<PropertyGraph> = graphs;
        // A relabelled copy and an exact clone: guarantees both a
        // feasible bijective pair and same-structure rights that the
        // batch path will group into one shared dense solve.
        let copy = relabel_perturbed(&corpus[0], false);
        corpus.push(copy);
        corpus.push(corpus[0].clone());
        let mut session = CorpusSession::new();
        let ids: Vec<GraphId> = corpus.iter().map(|g| session.add(g)).collect();
        // Arbitrary multiset of handles: repeats and interleavings of
        // every corpus member, in fuzzer-chosen order.
        let rhs: Vec<GraphId> = picks.iter().map(|&p| ids[p % ids.len()]).collect();
        let config = SolverConfig::default();
        for &lp in &lhs_picks {
            let lhs = ids[lp % ids.len()];
            let li = lhs.index();
            for problem in ALL_PROBLEMS {
                let batch = solve_batch_in(problem, &session, lhs, &rhs, &config);
                prop_assert_eq!(batch.len(), rhs.len());
                for (pos, out) in batch.iter().enumerate() {
                    let rid = rhs[pos];
                    let ri = rid.index();
                    let per_pair = solve_in(problem, &session, lhs, rid, &config);
                    let strings = solve_strings(problem, &corpus[li], &corpus[ri], &config);
                    prop_assert_eq!(
                        &out.matching, &per_pair.matching,
                        "{:?} lhs {} pos {} (rhs {}): fuzzed batch diverges from per-pair",
                        problem, li, pos, ri
                    );
                    prop_assert_eq!(
                        out.optimal, per_pair.optimal,
                        "{:?} lhs {} pos {} (rhs {}): optimality diverges",
                        problem, li, pos, ri
                    );
                    prop_assert_eq!(
                        out.stats, per_pair.stats,
                        "{:?} lhs {} pos {} (rhs {}): statistics diverge",
                        problem, li, pos, ri
                    );
                    prop_assert_eq!(
                        &out.matching, &strings.matching,
                        "{:?} lhs {} pos {} (rhs {}): fuzzed batch diverges from oracle",
                        problem, li, pos, ri
                    );
                    if let Some(m) = &out.matching {
                        assert_valid_witness(problem, &corpus[li], &corpus[ri], m);
                    }
                }
            }
        }
    }

    /// Memo-on solves must be identical to memo-off solves in every
    /// observable — matchings, costs, optimality flags and search
    /// statistics — across all four problems over one **mixed** session
    /// (an exact duplicate and a relabelled copy guarantee equivalent
    /// cores under distinct handles), with one [`SolveMemo`] shared by
    /// every problem, batch and per-pair call. Each batch runs twice, so
    /// the second pass exercises the hit path; the memo must actually
    /// have served hits by the end.
    #[test]
    fn memo_on_agrees_with_memo_off(
        graphs in prop::collection::vec(arb_graph(4), 2..4),
        perturbed_copy in prop::sample::select(vec![false, true]),
    ) {
        let mut corpus: Vec<PropertyGraph> = graphs;
        let copy = relabel_perturbed(&corpus[0], perturbed_copy);
        corpus.push(copy);
        corpus.push(corpus[0].clone());
        let mut session = CorpusSession::new();
        let ids: Vec<GraphId> = corpus.iter().map(|g| session.add(g)).collect();
        let config = SolverConfig::default();
        let memo = SolveMemo::new();
        for problem in ALL_PROBLEMS {
            for (i, &lhs) in ids.iter().enumerate() {
                let plain = solve_batch_in(problem, &session, lhs, &ids, &config);
                for pass in 0..2 {
                    let memoed =
                        solve_batch_in_memo(problem, &session, lhs, &ids, &config, Some(&memo));
                    prop_assert_eq!(memoed.len(), plain.len());
                    for (j, (m, p)) in memoed.iter().zip(&plain).enumerate() {
                        prop_assert_eq!(
                            &m.matching, &p.matching,
                            "{:?} ({}, {}) pass {}: memo-on matching diverges",
                            problem, i, j, pass
                        );
                        prop_assert_eq!(
                            m.optimal, p.optimal,
                            "{:?} ({}, {}) pass {}: memo-on optimality diverges",
                            problem, i, j, pass
                        );
                        prop_assert_eq!(
                            m.stats, p.stats,
                            "{:?} ({}, {}) pass {}: memo-on statistics diverge",
                            problem, i, j, pass
                        );
                    }
                }
                // Per-pair solves through the same memo (hits seeded by
                // the batches above) agree with memo-off per-pair solves.
                for (j, &rid) in ids.iter().enumerate() {
                    let m = solve_in_memo(problem, &session, lhs, rid, &config, Some(&memo));
                    let p = solve_in(problem, &session, lhs, rid, &config);
                    prop_assert_eq!(
                        &m.matching, &p.matching,
                        "{:?} ({}, {}): per-pair memo matching diverges", problem, i, j
                    );
                    prop_assert_eq!(m.optimal, p.optimal, "{:?} ({}, {})", problem, i, j);
                    prop_assert_eq!(m.stats, p.stats, "{:?} ({}, {})", problem, i, j);
                    if let Some(w) = &m.matching {
                        assert_valid_witness(problem, &corpus[i], &corpus[j], w);
                    }
                }
            }
        }
        prop_assert!(memo.hits() > 0, "replays must be served from the memo");
    }
}
