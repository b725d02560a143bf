//! Differential tests for the bitset/WL dense kernel: the bitset
//! candidate domains must be **set-identical** to an independent
//! reconstruction of the per-pair candidate rules, and the
//! WL-colour pre-filter must never remove a pair that appears in any
//! optimal matching the string oracle finds.
//!
//! These pin the two halves of the kernel separately from the
//! end-to-end differentials in `differential_compiled.rs`: domain
//! construction (via the `debug_domains` introspection hook) and the
//! soundness of the colour signal (via oracle witnesses).

use proptest::prelude::*;
use provgraph::compiled::{CompiledGraph, Interner};
use provgraph::fingerprint::shape_colors_core;
use provgraph::PropertyGraph;

use aspsolver::{debug_domains, solve, solve_strings, Problem, SolverConfig};

/// An arbitrary small multigraph with node and edge properties (same
/// shape as the generator in `differential_compiled.rs`).
fn arb_graph(max_nodes: usize) -> impl Strategy<Value = PropertyGraph> {
    let node_label = prop::sample::select(vec!["P", "A", "E"]);
    let edge_label = prop::sample::select(vec!["u", "g"]);
    (
        prop::collection::vec(node_label, 1..=max_nodes),
        prop::collection::vec((0usize..8, 0usize..8, edge_label), 0..=8),
        prop::collection::vec((0usize..8, "k[123]", "[abc]"), 0..=5),
    )
        .prop_map(|(nodes, edges, node_props)| {
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
            g
        })
}

/// A structurally identical copy with fresh ids and reversed insertion
/// order, so bijective problems are feasible and witnesses non-trivial.
fn relabelled(g: &PropertyGraph) -> PropertyGraph {
    let mut out = PropertyGraph::new();
    let nodes: Vec<_> = g.nodes().collect();
    for n in nodes.iter().rev() {
        let mut copy = (*n).clone();
        copy.id = format!("c_{}", n.id);
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

/// Rebuild the per-pair candidate rules from public accessors
/// only: label equality, exact properties for isomorphism, and the
/// degree-signature filter. Returns ascending right ids per left node.
fn expected_candidates(
    problem: Problem,
    c1: &CompiledGraph,
    c2: &CompiledGraph,
    config: &SolverConfig,
) -> Vec<Vec<u32>> {
    use provgraph::compiled::degree_sig_leq;
    let n1 = c1.node_count() as u32;
    let n2 = c2.node_count() as u32;
    (0..n1)
        .map(|i| {
            (0..n2)
                .filter(|&j| {
                    if c1.node_label(i) != c2.node_label(j) {
                        return false;
                    }
                    if problem == Problem::Isomorphism && c1.node_props(i) != c2.node_props(j) {
                        return false;
                    }
                    if config.degree_filter {
                        let ok = if problem.bijective() {
                            c1.degree_sig(i) == c2.degree_sig(j)
                        } else {
                            degree_sig_leq(c1.degree_sig(i), c2.degree_sig(j))
                        };
                        if !ok {
                            return false;
                        }
                    }
                    true
                })
                .collect()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The initial bitset domains decode to exactly the candidate sets
    /// the per-pair rules produce, for all four problems and for
    /// configurations with and without the degree filter; the WL masks
    /// are exactly the colour-compatible subsets.
    #[test]
    fn bitset_domains_match_vector_candidates(
        g1 in arb_graph(5),
        g2 in arb_graph(6),
        degree_filter in prop::sample::select(vec![false, true]),
    ) {
        let config = SolverConfig { degree_filter, ..SolverConfig::default() };
        for problem in ALL_PROBLEMS {
            let dd = debug_domains(problem, &g1, &g2, &config);
            let mut interner = Interner::new();
            let c1 = CompiledGraph::compile(&g1, &mut interner);
            let c2 = CompiledGraph::compile(&g2, &mut interner);
            let expected = expected_candidates(problem, &c1, &c2, &config);
            prop_assert_eq!(dd.candidates.len(), expected.len());
            prop_assert_eq!(dd.bitset.len(), expected.len());
            for (i, exp) in expected.iter().enumerate() {
                let mut cand = dd.candidates[i].clone();
                cand.sort_unstable();
                prop_assert_eq!(
                    &cand, exp,
                    "{:?} node {}: vector candidates diverge from the rules", problem, i
                );
                // `bitset` rows decode ascending by construction.
                prop_assert_eq!(
                    &dd.bitset[i], exp,
                    "{:?} node {}: bitset domain diverges from vector candidates", problem, i
                );
            }
            match &dd.wl {
                Some(wl) => {
                    prop_assert!(problem.bijective(), "WL masks only for bijective problems");
                    let colors1 = shape_colors_core(&c1);
                    let colors2 = shape_colors_core(&c2);
                    for (i, exp) in expected.iter().enumerate() {
                        let exp_wl: Vec<u32> = exp
                            .iter()
                            .copied()
                            .filter(|&j| colors1[i] == colors2[j as usize])
                            .collect();
                        prop_assert_eq!(
                            &wl[i], &exp_wl,
                            "{:?} node {}: WL mask diverges from colour classes", problem, i
                        );
                    }
                }
                None => prop_assert!(
                    !problem.bijective(),
                    "{:?}: WL masks must be active for bijective problems", problem
                ),
            }
        }
    }

    /// Soundness of the colour signal: every pair appearing in an
    /// optimal matching found by the string oracle survives the WL
    /// pre-filter (the filter only ever removes pairs no witness uses).
    #[test]
    fn wl_prefilter_keeps_oracle_witness_pairs(g in arb_graph(6)) {
        let h = relabelled(&g);
        let config = SolverConfig::default();
        for problem in [Problem::Similarity, Problem::Isomorphism, Problem::Generalization] {
            let Some(m) = solve_strings(problem, &g, &h, &config).matching else {
                continue;
            };
            let dd = debug_domains(problem, &g, &h, &config);
            let wl = dd.wl.as_ref().expect("bijective problem has WL masks");
            let mut interner = Interner::new();
            let c1 = CompiledGraph::compile(&g, &mut interner);
            let c2 = CompiledGraph::compile(&h, &mut interner);
            let index_of = |c: &CompiledGraph, id: &str| -> u32 {
                (0..c.node_count() as u32)
                    .find(|&v| c.node_id(v) == id)
                    .expect("witness id exists in its graph")
            };
            for (id1, id2) in &m.node_map {
                let i = index_of(&c1, id1);
                let j = index_of(&c2, id2);
                prop_assert!(
                    wl[i as usize].contains(&j),
                    "{:?}: witness pair {} -> {} removed by the WL pre-filter",
                    problem, id1, id2
                );
            }
        }
    }

    /// End-to-end: the kernel agrees with the oracle on every outcome,
    /// with statistics never worse, on feasible bijective instances.
    #[test]
    fn pruned_outcomes_match_oracle_on_copies(g in arb_graph(6)) {
        let h = relabelled(&g);
        let config = SolverConfig::default();
        for problem in ALL_PROBLEMS {
            let pruned = solve(problem, &g, &h, &config);
            let strings = solve_strings(problem, &g, &h, &config);
            prop_assert_eq!(&pruned.matching, &strings.matching, "{:?}", problem);
            prop_assert_eq!(pruned.optimal, strings.optimal, "{:?}", problem);
            prop_assert!(pruned.stats.steps <= strings.stats.steps, "{:?}", problem);
            prop_assert!(
                pruned.stats.backtracks <= strings.stats.backtracks,
                "{:?}", problem
            );
        }
    }
}

/// A deterministic instance where the colour signal strictly beats
/// forward checking: two disjoint uniform-label paths of different
/// lengths. Path starts share degree signatures, so the search may try
/// mapping the start of the long path onto the start of the short one
/// and walk the chain before failing; iterated WL colours separate the
/// positions immediately. The right-hand graph inserts the short path
/// first so the wrong image precedes the right one in candidate order.
#[test]
fn wl_pruning_strictly_reduces_steps_on_mixed_paths() {
    fn paths(prefix: &str, chains: [(&str, usize); 2]) -> PropertyGraph {
        let mut g = PropertyGraph::new();
        for (c, len) in chains {
            for i in 0..len {
                g.add_node(format!("{prefix}{c}{i}"), "N").unwrap();
            }
            for i in 0..len - 1 {
                g.add_edge(
                    format!("{prefix}{c}e{i}"),
                    format!("{prefix}{c}{i}"),
                    format!("{prefix}{c}{}", i + 1),
                    "r",
                )
                .unwrap();
            }
        }
        g
    }
    let g1 = paths("x", [("a", 7), ("b", 3)]);
    let g2 = paths("y", [("b", 3), ("a", 7)]);
    let config = SolverConfig::default();
    for problem in [Problem::Similarity, Problem::Generalization] {
        let pruned = solve(problem, &g1, &g2, &config);
        let strings = solve_strings(problem, &g1, &g2, &config);
        assert_eq!(pruned.matching, strings.matching, "{problem:?}");
        assert_eq!(pruned.optimal, strings.optimal, "{problem:?}");
        assert!(
            pruned.stats.steps < strings.stats.steps,
            "{problem:?}: colour pruning should strictly reduce steps \
             ({} vs {})",
            pruned.stats.steps,
            strings.stats.steps
        );
    }
}
