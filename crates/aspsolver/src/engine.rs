//! Branch-and-bound search engine for the graph matching problems,
//! running on the **compiled** (symbol-interned) graph representation.
//!
//! The engine searches over *node* mappings only: once every g1 node has
//! an image, the edges decompose into independent groups keyed by
//! `(mapped source, mapped target, label)` and each group is an
//! assignment problem solved exactly by the Hungarian algorithm
//! ([`crate::min_cost_assignment`]). This two-level decomposition is what
//! makes the NP-complete subgraph isomorphism instances from provenance
//! graphs tractable in practice (paper §5.1 establishes "minutes rather
//! than days"; we do better on the simulated substrate).
//!
//! # The hot path
//!
//! Every datum the inner loop touches is an integer:
//!
//! - labels, property keys and values are [`Symbol`]s interned once at
//!   compile time ([`provgraph::compiled`]);
//! - candidate lists live in one flat array indexed by per-node ranges —
//!   nothing is cloned while descending;
//! - pair costs are precomputed into a dense `n1 × n2` table read by
//!   multiplication-free indexing;
//! - the partial cost and the remaining-cost floor are maintained
//!   incrementally on assign/undo instead of being recomputed per
//!   candidate;
//! - adjacency consistency compares sorted `(Symbol, count)` slices.
//!
//! # The bitset/WL kernel
//!
//! The search runs over **bitset candidate domains**: each left node's
//! domain is a `⌈n2/64⌉`-word bitset over dense right ids, restricted
//! word-parallel as assignments extend (`restrict_neighbours`) and
//! undone via a change trail, so a candidate probe is two bit tests and
//! an MRV domain size is `popcount(dyn & free)`. For bijective problems,
//! memoized **Weisfeiler–Lehman shape colours**
//! ([`provgraph::fingerprint::shape_colors_core`], a session lookup via
//! [`CorpusSession::shape_colors`]) additionally pre-filter pairs whose
//! iterated colour classes can never correspond, seed the
//! most-constrained-first scan order, and tighten the admissible
//! per-node cost floors. Every colour-guided prune removes only
//! provably solution-free work, so **matchings, costs and optimality
//! flags are identical** to [`crate::solve_strings`], while
//! [`SolverStats`] never exceed the oracle's — the invariant split the
//! differential proptests pin. One caveat follows from doing less work:
//! a budget-limited search may complete (report `optimal`) where the
//! oracle would have exhausted `max_steps`; outcomes are guaranteed
//! identical whenever neither search truncates.
//!
//! String identifiers reappear only once, when the final dense matching
//! is translated back to [`Matching`]'s `ElemId` maps. The string-path
//! engine in [`crate::solve_strings`] is the one independent reference:
//! differential tests and `bench_solver` hold this kernel to its
//! outcomes and bound its statistics by the oracle's.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use provgraph::compiled::{
    degree_sig_leq, label_counts_leq, one_sided_prop_diff, symmetric_prop_diff, CompiledGraph,
    CorpusSession, FxHashMap, FxHasher, GraphCore, GraphId, Interner, NamedGraph, Symbol,
};
use provgraph::fingerprint::shape_colors_core;
use provgraph::PropertyGraph;

use crate::assignment::{min_cost_assignment, FORBIDDEN};
use crate::matching::{Matching, Outcome};

/// Which matching problem to solve (see crate docs for the paper mapping).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Problem {
    /// Bijection preserving structure + labels; properties ignored
    /// (paper Listing 3).
    Similarity,
    /// Bijection preserving structure + labels + exact properties.
    Isomorphism,
    /// Bijection preserving structure + labels, minimizing the number of
    /// properties in the symmetric difference of matched pairs (§3.4).
    Generalization,
    /// Injective embedding of g1 into g2 preserving structure + labels,
    /// minimizing g1 properties unmatched on the image (paper Listing 4).
    Subgraph,
}

impl Problem {
    /// `true` for problems requiring a bijection (everything except
    /// [`Problem::Subgraph`]).
    pub fn bijective(self) -> bool {
        !matches!(self, Problem::Subgraph)
    }

    /// `true` for problems minimizing a property-mismatch objective.
    pub fn optimizing(self) -> bool {
        matches!(self, Problem::Generalization | Problem::Subgraph)
    }
}

/// Tuning knobs for the search; the defaults enable every pruning rule.
///
/// The individual switches exist for the solver ablation benchmark
/// (`ablation_solver`), which quantifies what each rule buys.
/// `PartialEq`/`Eq`/`Hash` exist because the whole configuration is part
/// of every [`SolveMemo`] key: each knob changes the search order or the
/// step budget, and therefore the cached outcome (including its
/// statistics), so outcomes cached under one configuration must never be
/// replayed under another.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SolverConfig {
    /// Budget on candidate assignments tried before giving up and
    /// returning the best solution found so far (`optimal = false`).
    pub max_steps: u64,
    /// Prune candidates whose per-label degree signature is incompatible.
    pub degree_filter: bool,
    /// Check adjacency consistency against already-assigned neighbours at
    /// every assignment (forward checking).
    pub forward_check: bool,
    /// Prune branches whose cost lower bound meets the incumbent.
    pub cost_bound: bool,
    /// Try cheap candidates first (best-first value ordering).
    pub order_by_cost: bool,
}

impl Default for SolverConfig {
    fn default() -> Self {
        SolverConfig {
            max_steps: 10_000_000,
            degree_filter: true,
            forward_check: true,
            cost_bound: true,
            order_by_cost: true,
        }
    }
}

impl SolverConfig {
    /// A configuration with every switchable rule disabled (the ablation
    /// baseline): no degree filter, static candidate domains, no cost
    /// bound and no value ordering.
    ///
    /// This is not pure generate and test: the bitset/WL kernel has no
    /// switch, so bijective problems still skip WL-colour-mismatched
    /// pairs. Outcomes equal [`solve_strings`] under this configuration
    /// too.
    ///
    /// [`solve_strings`]: crate::solve_strings
    pub fn naive() -> Self {
        SolverConfig {
            max_steps: 10_000_000,
            degree_filter: false,
            forward_check: false,
            cost_bound: false,
            order_by_cost: false,
        }
    }
}

/// Search statistics, reported for every run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// Candidate node assignments attempted.
    pub steps: u64,
    /// Dead ends that forced the search to undo an assignment.
    pub backtracks: u64,
    /// Complete (feasible) solutions encountered.
    pub solutions: u64,
}

thread_local! {
    /// Warm per-thread interner reused across [`solve`] calls.
    ///
    /// Provenance vocabularies (labels, property keys, most values) are
    /// small and highly repetitive, so after the first few solves the
    /// compile pass stops allocating strings entirely — every intern is a
    /// single hash probe. Solver outcomes are invariant to symbol
    /// numbering (symbols only feed equality tests, set-inclusion merges
    /// and order-insensitive sums), so the warm start never changes a
    /// result; `tests/differential_compiled.rs` pins that down against
    /// the deterministic string path.
    static SOLVER_INTERNER: std::cell::RefCell<Interner> =
        std::cell::RefCell::new(Interner::new());
}

/// Reset threshold for the warm interner.
///
/// Volatile property values (timestamps, fresh ids) are unique per trial,
/// so a long-lived service thread would otherwise accumulate distinct
/// strings without bound. The stable vocabulary is tiny; rebuilding it
/// after a reset costs one compile pass.
const WARM_INTERNER_CAP: usize = 1 << 20;

/// Solve `problem` matching `g1` against `g2`.
///
/// Compiles both graphs into a shared (thread-warm) interner and runs
/// the compiled search ([`solve_compiled`]). For bijective problems the
/// graphs must have identical element counts and label multisets or the
/// result is immediately infeasible. The returned [`Outcome`] carries
/// the optimal matching (or `None`), an optimality flag, and search
/// statistics.
///
/// Callers matching the *same* graph repeatedly (e.g. similarity
/// classification over many trials) should compile once and call
/// [`solve_compiled`] directly to amortize the compile pass as well.
pub fn solve(
    problem: Problem,
    g1: &PropertyGraph,
    g2: &PropertyGraph,
    config: &SolverConfig,
) -> Outcome {
    SOLVER_INTERNER.with(|cell| {
        let mut interner = cell.borrow_mut();
        if interner.len() > WARM_INTERNER_CAP {
            *interner = Interner::new();
        }
        let c1 = CompiledGraph::compile(g1, &mut interner);
        let c2 = CompiledGraph::compile(g2, &mut interner);
        drop(interner);
        solve_compiled(problem, &c1, &c2, config)
    })
}

/// Solve `problem` over graphs compiled with a **shared** interner.
///
/// Symbols are only comparable within one interner's namespace; passing
/// graphs compiled against different interners silently mismatches
/// labels. The [`solve`] wrapper handles this for one-shot calls.
pub fn solve_compiled(
    problem: Problem,
    g1: &CompiledGraph,
    g2: &CompiledGraph,
    config: &SolverConfig,
) -> Outcome {
    translate(
        &solve_dense(problem, g1.core(), g2.core(), config, None, None),
        g1,
        g2,
    )
}

/// Solve `problem` over two graphs of a [`CorpusSession`].
///
/// This is the amortized corpus path: both graphs were compiled exactly
/// once when added to the session (sharing its interner), so repeated
/// solves over session members — similarity confirmation, generalization,
/// the comparison stage — pay zero compile or interning cost per call.
///
/// Handles are only meaningful for the session that issued them. Panics
/// when a foreign handle's index is out of range; a foreign handle whose
/// index happens to be in range silently addresses a *different* session
/// graph (see [`CorpusSession::graph`]) — keep handles with their
/// session.
pub fn solve_in(
    problem: Problem,
    session: &CorpusSession,
    g1: GraphId,
    g2: GraphId,
    config: &SolverConfig,
) -> Outcome {
    // The session memoizes WL shape colours at `add`, so the
    // colour-guided pruning signal is a lookup here where the one-shot
    // paths re-derive it. Pruning decisions depend only on the colour
    // *equality pattern*, which is interner-invariant, so outcomes and
    // statistics match the one-shot paths either way.
    let dense = solve_dense(
        problem,
        session.graph(g1).core(),
        session.graph(g2).core(),
        config,
        None,
        Some((session.shape_colors(g1), session.shape_colors(g2))),
    );
    translate(&dense, session.graph(g1), session.graph(g2))
}

/// Left-hand search state prepared once and reused across many right-hand
/// graphs — the "one plan, many right-hand graphs" batch pattern of
/// similarity classification (one class representative confirmed against
/// every bucket member) and the Table 2 matrix replay (one generalized
/// graph embedded into many cells).
///
/// Most left-derived state the solver needs — sorted property rows,
/// degree signatures, CSR adjacency, label multisets — is already
/// precompiled into the borrowed [`GraphCore`]. What `PreparedLhs` adds
/// is the per-problem organisation of that core around *labels*, which
/// lets each per-right solve skip every cross-label pair instead of
/// scanning the full `n1 × n2` candidate grid:
///
/// - the set of distinct left node labels, used to index only the
///   relevant right nodes when building candidate ranges (right nodes
///   whose label never occurs on the left are not even bucketed);
/// - for optimizing problems, the left edges grouped by label, so the
///   admissible edge-cost floor visits same-label edge pairs only.
///
/// # Invariants
///
/// A plan is valid for exactly one `(problem, left core)` pair and any
/// right-hand graph compiled against the **same interner** (symbols are
/// only comparable within one interner's namespace — the same scoping
/// rule as [`solve_compiled`]). A solve through a plan builds candidate
/// tables, pair costs and cost floors identical to the unprepared path,
/// so matchings, costs, optimality flags and search statistics equal
/// [`solve_in`] / [`solve_compiled`] outcomes — pinned by the batch
/// differential proptest in `tests/differential_compiled.rs`.
pub(crate) struct PreparedLhs<'a> {
    problem: Problem,
    core: &'a GraphCore,
    /// Distinct left node labels (with multiplicities, cheap to carry).
    node_label_counts: FxHashMap<Symbol, u32>,
    /// Left edge indices grouped by label (ascending within a group);
    /// empty for non-optimizing problems, which have no cost floor.
    edge_groups: FxHashMap<Symbol, Vec<u32>>,
}

impl<'a> PreparedLhs<'a> {
    /// Prepare the left-hand plan for `problem` over a compiled core.
    pub(crate) fn new(problem: Problem, core: &'a GraphCore) -> PreparedLhs<'a> {
        let mut node_label_counts: FxHashMap<Symbol, u32> = FxHashMap::default();
        for v in 0..core.node_count() as u32 {
            *node_label_counts.entry(core.node_label(v)).or_insert(0) += 1;
        }
        let mut edge_groups: FxHashMap<Symbol, Vec<u32>> = FxHashMap::default();
        if problem.optimizing() {
            for e in 0..core.edge_count() as u32 {
                edge_groups.entry(core.edge_label(e)).or_default().push(e);
            }
        }
        PreparedLhs {
            problem,
            core,
            node_label_counts,
            edge_groups,
        }
    }
}

/// Batched solver over a [`CorpusSession`]: one prepared left-hand graph
/// matched against many right-hand session members.
///
/// This is the amortization layer on top of the session path: where
/// [`solve_in`] pays the full per-pair setup on every call, a
/// `BatchSolver` builds the left-hand plan (indexed by the left graph's
/// labels) once at construction and reuses it for every right-hand
/// graph.
/// [`solve_batch`](BatchSolver::solve_batch) additionally shares one
/// dense search across rights whose compiled cores are
/// solver-equivalent (see its docs).
///
/// Handle scoping is as for [`solve_in`]: handles are only meaningful
/// for the session that issued them.
pub struct BatchSolver<'s> {
    session: &'s CorpusSession,
    lhs: GraphId,
    prepared: PreparedLhs<'s>,
    config: SolverConfig,
    memo: Option<&'s SolveMemo>,
}

impl<'s> BatchSolver<'s> {
    /// Prepare `session`'s graph `lhs` as the fixed left-hand side for
    /// `problem` under `config`.
    pub fn new(
        problem: Problem,
        session: &'s CorpusSession,
        lhs: GraphId,
        config: SolverConfig,
    ) -> BatchSolver<'s> {
        BatchSolver {
            session,
            lhs,
            prepared: PreparedLhs::new(problem, session.graph(lhs).core()),
            config,
            memo: None,
        }
    }

    /// Attach (or detach) a session-level [`SolveMemo`]: every dense
    /// solve this batch solver runs is then looked up in — and recorded
    /// into — the memo, so replays of the same (problem, core pair,
    /// config) across batches, calls and left-hand sides are searched
    /// once. `None` restores the memo-less behaviour. The memo must be
    /// scoped to the same session as the solver's handles.
    pub fn with_memo(mut self, memo: Option<&'s SolveMemo>) -> BatchSolver<'s> {
        self.memo = memo;
        self
    }

    /// The problem this solver batches.
    pub fn problem(&self) -> Problem {
        self.prepared.problem
    }

    /// The prepared left-hand session graph.
    pub fn lhs(&self) -> GraphId {
        self.lhs
    }

    /// Solve the prepared left against one right-hand session graph.
    ///
    /// Identical outcome (matching, cost, optimality, statistics) to
    /// `solve_in(problem, session, lhs, rhs, config)`. With a memo
    /// attached ([`with_memo`](BatchSolver::with_memo)), the dense half
    /// is served from — or recorded into — the memo.
    pub fn solve_one(&self, rhs: GraphId) -> Outcome {
        translate(
            &self.dense(rhs),
            self.session.graph(self.lhs),
            self.session.graph(rhs),
        )
    }

    /// The identifier-free dense solve of the prepared left against
    /// `rhs`: served from (or recorded into) the memo when one is
    /// attached — the memo is keyed on canonical core identity, so a
    /// replay of this pair from an earlier batch (or a left side with an
    /// equivalent core) is a lookup — and searched directly otherwise.
    fn dense(&self, rhs: GraphId) -> Arc<DenseOutcome> {
        match self.memo {
            Some(memo) => memoized_dense(
                memo,
                self.prepared.problem,
                self.session,
                self.lhs,
                rhs,
                &self.config,
                Some(&self.prepared),
            ),
            None => Arc::new(solve_dense(
                self.prepared.problem,
                self.prepared.core,
                self.session.graph(rhs).core(),
                &self.config,
                Some(&self.prepared),
                Some((
                    self.session.shape_colors(self.lhs),
                    self.session.shape_colors(rhs),
                )),
            )),
        }
    }

    /// Solve the prepared left against every right-hand graph, in order.
    ///
    /// On top of the shared plan, the batch **shares dense solves**. The
    /// search itself never sees element identifiers, so its outcome is a
    /// pure function of the two compiled cores (for
    /// [`Problem::Similarity`], of their structure and labels alone — see
    /// `cores_equivalent`). Rights whose cores are solver-equivalent are
    /// grouped — cheap: the session's memoized fingerprints prefilter, an
    /// exact core comparison confirms — and searched **once**; only the
    /// witness translation back to each right's identifiers is
    /// per-member. This is the dominant win for similarity confirmation,
    /// where bucket members routinely differ only in volatile property
    /// values. Groups are solved in order on the caller's thread: the
    /// pipeline parallelizes across matrix cells, not within a batch.
    ///
    /// Outcomes are returned in `rhs` order; each equals the
    /// corresponding per-pair [`solve_in`] call in every observable,
    /// including search statistics (a shared dense solve reports the
    /// statistics the identical per-pair search would have).
    pub fn solve_batch(&self, rhs: &[GraphId]) -> Vec<Outcome> {
        // Group rights by solver-equivalent cores: fingerprint prefilter
        // (memoized in the session, so a lookup), exact check to confirm.
        let mut groups: Vec<(GraphId, u64, Vec<usize>)> = Vec::new();
        let problem = self.prepared.problem;
        let fingerprint = |id: GraphId| {
            if problem == Problem::Similarity {
                self.session.shape_fingerprint(id)
            } else {
                self.session.full_fingerprint(id)
            }
        };
        for (pos, &id) in rhs.iter().enumerate() {
            let fp = fingerprint(id);
            let found = groups.iter_mut().find(|(rep, rep_fp, _)| {
                *rep_fp == fp
                    && cores_equivalent(
                        problem,
                        self.session.graph(*rep).core(),
                        self.session.graph(id).core(),
                    )
            });
            match found {
                Some((_, _, members)) => members.push(pos),
                None => groups.push((id, fp, vec![pos])),
            }
        }
        let dense: Vec<Arc<DenseOutcome>> =
            groups.iter().map(|(rep, _, _)| self.dense(*rep)).collect();
        let g1 = self.session.graph(self.lhs);
        let mut out: Vec<Option<Outcome>> = (0..rhs.len()).map(|_| None).collect();
        for ((_, _, members), dense) in groups.iter().zip(&dense) {
            for &pos in members {
                out[pos] = Some(translate(dense, g1, self.session.graph(rhs[pos])));
            }
        }
        out.into_iter()
            // provlint: allow(panic-in-lib) -- the group partition covers every index by construction
            .map(|o| o.expect("every right belongs to exactly one group"))
            .collect()
    }
}

/// Solve `problem` matching session graph `lhs` against each of `rhs`,
/// preparing the left-hand side once for the whole batch.
///
/// Convenience wrapper constructing a [`BatchSolver`] for a single
/// batch; callers issuing several batches against the same left side
/// should keep the solver. Outcomes are returned in `rhs` order and are
/// identical to per-pair [`solve_in`] calls.
pub fn solve_batch_in(
    problem: Problem,
    session: &CorpusSession,
    lhs: GraphId,
    rhs: &[GraphId],
    config: &SolverConfig,
) -> Vec<Outcome> {
    BatchSolver::new(problem, session, lhs, config.clone()).solve_batch(rhs)
}

/// [`solve_batch_in`] with an optional session-level [`SolveMemo`]:
/// dense solves are served from (and recorded into) the memo, so the
/// same (problem, core pair, config) replayed across separate batch
/// calls — the Table 2 matrix-replay shape — is searched once. With
/// `None` this is exactly [`solve_batch_in`]. Outcomes are identical to
/// the memo-less path in every observable, including search statistics.
pub fn solve_batch_in_memo(
    problem: Problem,
    session: &CorpusSession,
    lhs: GraphId,
    rhs: &[GraphId],
    config: &SolverConfig,
    memo: Option<&SolveMemo>,
) -> Vec<Outcome> {
    BatchSolver::new(problem, session, lhs, config.clone())
        .with_memo(memo)
        .solve_batch(rhs)
}

/// [`solve_in`] with an optional session-level [`SolveMemo`]: the dense
/// half of the solve is looked up under the pair's canonical core
/// identity before searching, and recorded after. With `None` this is
/// exactly [`solve_in`]. Outcomes are identical to the memo-less path
/// in every observable, including search statistics.
pub fn solve_in_memo(
    problem: Problem,
    session: &CorpusSession,
    g1: GraphId,
    g2: GraphId,
    config: &SolverConfig,
    memo: Option<&SolveMemo>,
) -> Outcome {
    match memo {
        Some(memo) => {
            let dense = memoized_dense(memo, problem, session, g1, g2, config, None);
            translate(&dense, session.graph(g1), session.graph(g2))
        }
        None => solve_in(problem, session, g1, g2, config),
    }
}

/// Number of shards the memo's outcome map is split across; keys are
/// distributed by hash so threads sharing one memo (the matrix's
/// parallel rows) rarely contend on one lock.
const MEMO_SHARDS: usize = 8;

/// Default total entry capacity of a [`SolveMemo`] (split evenly across
/// shards). A long-lived service must not accumulate outcomes without
/// bound — the same hygiene rule as [`WARM_INTERNER_CAP`] — so inserts
/// past a shard's share batch-evict its least-recently-used quarter
/// (counted by [`SolveMemo::evictions`]).
const MEMO_CAP: usize = 1 << 18;

/// Memo key: the complete input of a dense solve, named by **content**.
/// `lhs` / `rhs` are the interner-independent 128-bit content hashes of
/// the two cores ([`provgraph::compiled::content_hashes`]) — the
/// property-blind structure hash for [`Problem::Similarity`] (whose
/// search never reads a property), the full structure + properties hash
/// otherwise — so graphs differing only in element identifiers (or, for
/// similarity, only in properties) share one entry, *across sessions and
/// processes*. The full [`SolverConfig`] is part of the key: in
/// particular a budget-exhausted (non-optimal) outcome cached under a
/// small `max_steps` can never be replayed for a larger budget, which
/// would wrongly report a truncated search as that budget's result.
#[derive(Clone, PartialEq, Eq, Hash)]
pub(crate) struct MemoKey {
    pub(crate) problem: Problem,
    pub(crate) lhs: u128,
    pub(crate) rhs: u128,
    pub(crate) config: SolverConfig,
}

/// The content hash under which `id`'s core is memo-addressed for
/// `problem`: structure-only for the property-blind
/// [`Problem::Similarity`], structure + properties otherwise. Both are
/// memoized in the session beside the WL fingerprints, so this is an
/// array lookup.
fn content_key(problem: Problem, session: &CorpusSession, id: GraphId) -> u128 {
    if problem == Problem::Similarity {
        session.content_shape_hash(id)
    } else {
        session.content_full_hash(id)
    }
}

/// One cached outcome plus its bookkeeping.
struct MemoEntry {
    outcome: Arc<DenseOutcome>,
    /// Logical-clock tick of the last hit or insert (drives LRU-ish
    /// batch eviction; ticks are globally unique per memo).
    last_used: u64,
    /// `true` when the entry was loaded from a persisted cache file
    /// rather than searched in this process — excluded from delta
    /// exports and counted separately on hits.
    from_disk: bool,
}

/// Content-addressed memo of dense solve outcomes, shared across batches,
/// calls, left-hand sides — and, through the persistence layer
/// ([`crate::persist`]), across sessions, processes and restarts.
///
/// The search never sees element identifiers, so a [`DenseOutcome`] is a
/// pure function of `(problem, left core, right core, config)` — the
/// same invariant the in-batch dense-solve sharing rests on, extended
/// across calls: the Table 2 matrix replays the same foreground against
/// many backgrounds in *separate* `solve_batch` calls, and similarity
/// classification re-confirms equivalent cores under several
/// representatives. Keys name the cores by their deterministic 128-bit
/// **content hashes** ([`provgraph::compiled::content_hashes`], memoized
/// per session member) — property-blind for [`Problem::Similarity`],
/// whose search never reads a property — plus the **full**
/// [`SolverConfig`], so a budget-exhausted outcome is only ever replayed
/// under the exact budget that produced it. Because content hashes are
/// interner-independent, an entry computed in one session (or one
/// process) is valid in every other: the memo may be shared across
/// sessions and warmed from a [`crate::persist`] cache file.
///
/// A memo hit returns byte-identically what the fresh search would have
/// returned — matching, cost, optimality flag and search statistics —
/// so memo-on and memo-off runs are indistinguishable in every solver
/// observable (pinned by `tests/differential_compiled.rs`). Hit/miss
/// accounting lives here, not in [`SolverStats`], precisely so cached
/// statistics stay bit-equal to fresh ones.
///
/// # Capacity and concurrency
///
/// The outcome map is sharded behind mutexes and solves run outside any
/// lock, so threads may share one memo freely. Nothing inside a solver
/// call is concurrent, so a memo used from one thread — one pipeline
/// run — sees deterministic hit/miss counts. Only when callers share a
/// memo across threads (`run_matrix`'s parallel rows) can concurrent
/// misses on one key duplicate a search; every copy computes the same
/// value, so whichever insert lands the outcome is unchanged, and only
/// the informational hit/miss counts vary with scheduling. Each shard
/// holds at most its share of the capacity (default [`MEMO_CAP`],
/// configurable via [`SolveMemo::with_capacity`]); inserts past that
/// batch-evict the shard's least-recently-used quarter, counted by
/// [`SolveMemo::evictions`].
///
/// The memo is deliberately **not** serialized into session snapshots —
/// its persistence artifact is the [`crate::persist`] cache file, whose
/// integrity is checked on load like every other artifact.
pub struct SolveMemo {
    shards: [Mutex<FxHashMap<MemoKey, MemoEntry>>; MEMO_SHARDS],
    /// Per-shard entry cap (total capacity / [`MEMO_SHARDS`], ≥ 1).
    shard_cap: usize,
    /// Logical clock stamping hits and inserts (drives eviction order).
    tick: AtomicU64,
    hits: AtomicU64,
    disk_hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    /// Telemetry sink for memo hit/miss/eviction events, per-solve
    /// spans and cache load/save events. Disabled by default; attach
    /// with [`SolveMemo::with_tracer`]. Tracing is observably
    /// outcome-neutral: it never touches outcomes, search statistics
    /// or the hit/miss counters above.
    tracer: provtrace::Tracer,
}

impl Default for SolveMemo {
    fn default() -> Self {
        Self::with_capacity(MEMO_CAP)
    }
}

impl SolveMemo {
    /// Create an empty memo with the default capacity ([`MEMO_CAP`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// Create an empty memo holding at most `capacity` entries in total
    /// (split evenly across shards, at least one per shard).
    pub fn with_capacity(capacity: usize) -> Self {
        SolveMemo {
            shards: std::array::from_fn(|_| Mutex::new(FxHashMap::default())),
            shard_cap: (capacity / MEMO_SHARDS).max(1),
            tick: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            disk_hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            tracer: provtrace::Tracer::disabled(),
        }
    }

    /// Attach a telemetry sink: every memo-aware solve through this
    /// memo then emits `memo.hit` / `memo.evict` events, per-search
    /// `solve` spans (steps, backtracks, solutions, optimality, cost)
    /// and `memo.*` counters. With the default disabled tracer the
    /// cost is one branch per event site — no allocation, no lock.
    pub fn with_tracer(mut self, tracer: provtrace::Tracer) -> Self {
        self.tracer = tracer;
        self
    }

    /// The attached telemetry sink (disabled unless
    /// [`SolveMemo::with_tracer`] was used). Callers layering their own
    /// events around memo activity (cache merges, cell boundaries)
    /// emit through this same sink so one worker's records share one
    /// buffer.
    pub fn tracer(&self) -> &provtrace::Tracer {
        &self.tracer
    }

    /// Dense solves served from the cache so far (informational — never
    /// part of [`SolverStats`]).
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// The subset of [`SolveMemo::hits`] served by entries loaded from a
    /// persisted cache file rather than searched in this process.
    pub fn disk_hits(&self) -> u64 {
        self.disk_hits.load(Ordering::Relaxed)
    }

    /// Dense solves actually searched (and recorded) so far.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Entries dropped by capacity eviction so far.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Lock a memo shard, recovering from poisoning: every mutation
    /// under the lock is a plain map update, so a panicking peer leaves
    /// the shard consistent and the cache must stay usable.
    fn lock_shard(
        shard: &Mutex<FxHashMap<MemoKey, MemoEntry>>,
    ) -> std::sync::MutexGuard<'_, FxHashMap<MemoKey, MemoEntry>> {
        shard
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Entries currently held across all shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| SolveMemo::lock_shard(s).len())
            .sum()
    }

    /// `true` when no entry is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Record `outcome` under `key` (first insert wins: an existing
    /// entry — racing thread or earlier cache load — is kept and
    /// returned). Evicts the shard's least-recently-used quarter first
    /// when the insert would exceed the shard cap.
    pub(crate) fn insert(
        &self,
        key: MemoKey,
        outcome: Arc<DenseOutcome>,
        from_disk: bool,
    ) -> Arc<DenseOutcome> {
        let mut shard = SolveMemo::lock_shard(self.shard(&key));
        if shard.len() >= self.shard_cap && !shard.contains_key(&key) {
            // Batch-evict the oldest quarter: `last_used` ticks are
            // globally unique, so the rank-select threshold drops
            // exactly `drop_n` entries and amortizes the O(shard) scan
            // over the next quarter-shard of inserts.
            let drop_n = (shard.len() / 4).max(1);
            let mut ticks: Vec<u64> = shard.values().map(|e| e.last_used).collect();
            let (_, &mut threshold, _) = ticks.select_nth_unstable(drop_n - 1);
            shard.retain(|_, e| e.last_used > threshold);
            self.evictions.fetch_add(drop_n as u64, Ordering::Relaxed);
            self.tracer.counter_add("memo.evictions", drop_n as u64);
            self.tracer.event("memo.evict", None, || {
                vec![("dropped", provtrace::Field::from(drop_n))]
            });
        }
        let tick = self.tick.fetch_add(1, Ordering::Relaxed);
        let entry = shard.entry(key).or_insert(MemoEntry {
            outcome,
            last_used: 0,
            from_disk,
        });
        entry.last_used = tick;
        Arc::clone(&entry.outcome)
    }

    /// Snapshot every cached `(key, outcome)` pair — or, with
    /// `only_fresh`, only those searched in this process (the delta a
    /// worker publishes on top of the cache file it loaded).
    pub(crate) fn entries_snapshot(&self, only_fresh: bool) -> Vec<(MemoKey, Arc<DenseOutcome>)> {
        let mut out = Vec::new();
        for shard in &self.shards {
            let shard = SolveMemo::lock_shard(shard);
            out.extend(
                shard
                    .iter()
                    .filter(|(_, e)| !only_fresh || !e.from_disk)
                    .map(|(k, e)| (k.clone(), Arc::clone(&e.outcome))),
            );
        }
        out
    }

    /// The outcome shard responsible for `key`.
    fn shard(&self, key: &MemoKey) -> &Mutex<FxHashMap<MemoKey, MemoEntry>> {
        use std::hash::{Hash, Hasher};
        let mut h = FxHasher::default();
        key.hash(&mut h);
        &self.shards[h.finish() as usize % MEMO_SHARDS]
    }
}

/// The memoized dense solve behind every memo-aware entry point:
/// content-address both cores, look the key up, search-and-record on a
/// miss. `prepared`, when given, must be a plan over `lhs`'s core (used
/// only when the search actually runs).
fn memoized_dense(
    memo: &SolveMemo,
    problem: Problem,
    session: &CorpusSession,
    lhs: GraphId,
    rhs: GraphId,
    config: &SolverConfig,
    prepared: Option<&PreparedLhs<'_>>,
) -> Arc<DenseOutcome> {
    let key = MemoKey {
        problem,
        lhs: content_key(problem, session, lhs),
        rhs: content_key(problem, session, rhs),
        config: config.clone(),
    };
    let hit = {
        let mut shard = SolveMemo::lock_shard(memo.shard(&key));
        if let Some(entry) = shard.get_mut(&key) {
            entry.last_used = memo.tick.fetch_add(1, Ordering::Relaxed);
            memo.hits.fetch_add(1, Ordering::Relaxed);
            if entry.from_disk {
                memo.disk_hits.fetch_add(1, Ordering::Relaxed);
            }
            Some((Arc::clone(&entry.outcome), entry.from_disk))
        } else {
            None
        }
    };
    // Telemetry outside the shard lock: the tracer has its own buffer
    // lock and holding both at once would serialize unrelated solves.
    if let Some((outcome, from_disk)) = hit {
        memo.tracer.counter_add("memo.hits", 1);
        if from_disk {
            memo.tracer.counter_add("memo.disk_hits", 1);
        }
        memo.tracer.event("memo.hit", None, || {
            vec![("disk", provtrace::Field::from(from_disk))]
        });
        return outcome;
    }
    // Search outside the lock: two threads missing one key concurrently
    // duplicate the work but compute the same pure-function value, so
    // whichever insert lands first is the one everyone reads.
    memo.misses.fetch_add(1, Ordering::Relaxed);
    memo.tracer.counter_add("memo.misses", 1);
    let span = memo.tracer.span_enter("solve", None, || {
        vec![("problem", provtrace::Field::from(format!("{problem:?}")))]
    });
    // Colours come from the solved handles themselves (the solve runs
    // over their cores); content-equal cores have identical label and
    // adjacency arrays, so their shape colours — and hence every pruning
    // decision — are identical, keeping memo replays consistent.
    let dense = Arc::new(solve_dense(
        problem,
        session.graph(lhs).core(),
        session.graph(rhs).core(),
        config,
        prepared,
        Some((session.shape_colors(lhs), session.shape_colors(rhs))),
    ));
    memo.tracer.span_exit_with("solve", span, || {
        vec![
            ("steps", provtrace::Field::from(dense.stats.steps)),
            ("backtracks", provtrace::Field::from(dense.stats.backtracks)),
            ("solutions", provtrace::Field::from(dense.stats.solutions)),
            ("optimal", provtrace::Field::from(dense.optimal)),
            (
                "cost",
                dense
                    .best
                    .as_ref()
                    .map_or(provtrace::Field::I64(-1), |b| provtrace::Field::from(b.2)),
            ),
        ]
    });
    memo.insert(key, dense, false)
}

/// The identifier-free half of a solve: everything the search produces
/// before the witness is translated back to string ids. A pure function
/// of `(problem, left core, right core, config)` — element identifiers
/// are invisible to the search — which is what lets the batch path share
/// one dense solve across rights with solver-equivalent cores.
pub(crate) struct DenseOutcome {
    pub(crate) best: Option<BestSolution>,
    pub(crate) optimal: bool,
    pub(crate) stats: SolverStats,
}

/// Run pre-checks and the branch-and-bound search over the cores,
/// stopping short of witness translation.
///
/// `colors`, when given, must be the WL shape colours
/// ([`fingerprint::shape_colors_core`]) of `g1` and `g2` — session
/// entry points pass their memoized arrays. When `None` and the
/// problem is bijective, the colours are derived here (the one-shot
/// paths); pruning decisions read only the colour
/// equality pattern, which is interner-invariant, so both sources
/// yield identical searches.
///
/// [`fingerprint::shape_colors_core`]: provgraph::fingerprint::shape_colors_core
fn solve_dense(
    problem: Problem,
    g1: &GraphCore,
    g2: &GraphCore,
    config: &SolverConfig,
    prepared: Option<&PreparedLhs<'_>>,
    colors: Option<(&[u64], &[u64])>,
) -> DenseOutcome {
    let mut dense = DenseOutcome {
        best: None,
        optimal: true,
        stats: SolverStats::default(),
    };

    // Global pre-checks that make the problem trivially infeasible.
    if problem.bijective() {
        if g1.node_count() != g2.node_count()
            || g1.edge_count() != g2.edge_count()
            || g1.node_label_multiset() != g2.node_label_multiset()
            || g1.edge_label_multiset() != g2.edge_label_multiset()
        {
            return dense;
        }
    } else {
        if g1.node_count() > g2.node_count() || g1.edge_count() > g2.edge_count() {
            return dense;
        }
        if !multiset_leq(g1.node_label_multiset(), g2.node_label_multiset())
            || !multiset_leq(g1.edge_label_multiset(), g2.edge_label_multiset())
        {
            return dense;
        }
    }
    if g1.node_count() == 0 {
        // Possible only when g2 is also empty (bijective) or any g2
        // (subgraph): the empty matching, with no edges to place.
        dense.best = Some((Vec::new(), Vec::new(), 0));
        dense.stats.solutions = 1;
        return dense;
    }

    // WL shape colours are preserved by label-preserving bijections, so
    // they are a sound pruning signal exactly for the bijective
    // problems; embeddings (subgraph) do not preserve iterated colours.
    let derived: (Vec<u64>, Vec<u64>);
    let wl_colors = if problem.bijective() {
        match colors {
            Some(c) => Some(c),
            None => {
                derived = (shape_colors_core(g1), shape_colors_core(g2));
                Some((derived.0.as_slice(), derived.1.as_slice()))
            }
        }
    } else {
        None
    };

    let scratch = SEARCH_SCRATCH.with(|cell| std::mem::take(&mut *cell.borrow_mut()));
    let mut search = Search::build(problem, g1, g2, config, prepared, wl_colors, scratch);
    search.run();
    dense.stats = search.stats;
    dense.optimal = !search.budget_exhausted;
    dense.best = search.best.take();
    SEARCH_SCRATCH.with(|cell| *cell.borrow_mut() = search.into_scratch());
    dense
}

/// Translate a dense outcome back to an [`Outcome`] through the
/// carriers' id tables — the only string work in the whole solve.
fn translate<G1: NamedGraph, G2: NamedGraph>(dense: &DenseOutcome, g1: &G1, g2: &G2) -> Outcome {
    Outcome {
        optimal: dense.optimal,
        stats: dense.stats,
        matching: dense.best.as_ref().map(|(node_assign, edge_pairs, cost)| {
            let node_map: BTreeMap<String, String> = node_assign
                .iter()
                .enumerate()
                .map(|(i, &j)| (g1.node_id(i as u32).to_owned(), g2.node_id(j).to_owned()))
                .collect();
            let edge_map: BTreeMap<String, String> = edge_pairs
                .iter()
                .map(|&(e1, e2)| (g1.edge_id(e1).to_owned(), g2.edge_id(e2).to_owned()))
                .collect();
            Matching {
                node_map,
                edge_map,
                cost: *cost,
            }
        }),
    }
}

/// `true` when two right-hand cores are indistinguishable to the search
/// for `problem`, so one dense solve serves both.
///
/// For [`Problem::Similarity`] this is structural equality alone: the
/// similarity search never reads a property — candidate filtering is
/// label + degree signature, consistency is edge-label counts, edge
/// placement costs are identically zero — so property rows cannot
/// influence any observable. Every other problem reads properties
/// (isomorphism filters on them; the optimizing problems cost them), so
/// full core equality is required.
fn cores_equivalent(problem: Problem, a: &GraphCore, b: &GraphCore) -> bool {
    if !a.same_structure(b) {
        return false;
    }
    problem == Problem::Similarity || a.same_props(b)
}

fn multiset_leq<T: Ord>(small: &[T], big: &[T]) -> bool {
    // Both inputs are sorted; check small ⊆ big as multisets.
    let mut i = 0;
    for x in small {
        while i < big.len() && big[i] < *x {
            i += 1;
        }
        if i >= big.len() || big[i] != *x {
            return false;
        }
        i += 1;
    }
    true
}

/// Sentinel for "not yet assigned" in the dense assignment array.
const UNASSIGNED: u32 = u32::MAX;

/// Reusable per-thread search allocations: the candidate tables, the
/// dense pair-cost matrix, the bitset domains and the assignment state.
///
/// Every solve used to allocate these vectors from scratch; a thread
/// that solves repeatedly (the groups of a batch, the pipeline's
/// repeated solves on their matrix-row thread) rebuilds
/// same-shaped tables over and over, so the allocations are pure
/// overhead. The pool hands the vectors to [`Search::build`], which
/// **clears and refills** them — every element is rewritten before use,
/// so reuse cannot leak state between solves and outcomes are
/// bit-identical to the allocate-fresh path (pinned, like every engine
/// change, by the differential tests including search statistics).
#[derive(Default)]
struct SearchScratch {
    cand_flat: Vec<u32>,
    cand_start: Vec<u32>,
    pair_cost: Vec<u64>,
    node_min_cost: Vec<u64>,
    assign: Vec<u32>,
    cand_buf: Vec<u32>,
    dyn_bits: Vec<u64>,
    wl_bits: Vec<u64>,
    free_bits: Vec<u64>,
    mask_buf: Vec<u64>,
    seed_order: Vec<u32>,
    trail: Vec<(u32, u32, u64)>,
}

/// Element-capacity bound above which a scratch vector is dropped
/// instead of returned to the per-thread pool, so one pathological solve
/// cannot pin a huge buffer on a long-lived service thread (the same
/// hygiene rule as [`WARM_INTERNER_CAP`]).
const SCRATCH_CAP: usize = 1 << 22;

thread_local! {
    /// The per-thread scratch pool. Taken (not borrowed) for the
    /// duration of a dense solve, so a re-entrant solve on the same
    /// thread would simply fall back to fresh allocations.
    static SEARCH_SCRATCH: std::cell::RefCell<SearchScratch> =
        std::cell::RefCell::new(SearchScratch::default());
}

/// Clear `v` and return it to the pool, unless its capacity exceeds
/// [`SCRATCH_CAP`] elements (then drop it and pool an empty vector).
fn reclaim<T>(mut v: Vec<T>) -> Vec<T> {
    if v.capacity() > SCRATCH_CAP {
        return Vec::new();
    }
    v.clear();
    v
}

/// Best solution found so far: node assignment, edge pairing, total cost.
pub(crate) type BestSolution = (Vec<u32>, Vec<(u32, u32)>, u64);

struct Search<'a> {
    problem: Problem,
    config: &'a SolverConfig,
    g1: &'a GraphCore,
    g2: &'a GraphCore,
    n1: usize,
    n2: usize,
    /// Statically feasible candidates, flattened; node i's candidates are
    /// `cand_flat[cand_start[i]..cand_start[i+1]]`.
    cand_flat: Vec<u32>,
    cand_start: Vec<u32>,
    /// Dense pair-cost table (`i * n2 + j`); `u64::MAX` = incompatible.
    /// Empty for pure feasibility problems, where every pair costs zero.
    pair_cost: Vec<u64>,
    /// Admissible per-node lower bound (min static pair cost).
    node_min_cost: Vec<u64>,
    /// Admissible total lower bound contribution of all g1 edges.
    edge_cost_floor: u64,
    /// g2 edges grouped by (src, tgt, label) — assignment-independent,
    /// built lazily on the first complete assignment.
    groups2: Option<BTreeMap<(u32, u32, Symbol), Vec<u32>>>,
    // --- bitset domains --------------------------------------------------
    /// `true` when WL-colour pruning is active (bijective problem, colour
    /// arrays supplied or derived).
    wl_active: bool,
    /// `u64` words per right-hand bitset row (`n2.div_ceil(64)`).
    words: usize,
    /// Dynamic candidate domains, one `words`-wide row per left node:
    /// bit `j` of row `i` ⇔ `j` is statically feasible for `i` **and**
    /// adjacency-consistent with every currently assigned neighbour of
    /// `i` (with `forward_check` off the rows stay static). Maintained
    /// incrementally by word-parallel ANDs on assign, undone via `trail`.
    dyn_bits: Vec<u64>,
    /// WL-colour masks, one row per left node: bit `j` ⇔ `j` is a static
    /// candidate of `i` with the same iterated shape colour. Empty unless
    /// `wl_active`. Colour-preserving bijections can never map outside
    /// these masks, so they prune *provably doomed* subtrees only —
    /// outcomes are untouched, statistics shrink.
    wl_bits: Vec<u64>,
    /// Bit `j` ⇔ right node `j` is unassigned, so domain sizes are
    /// `popcount(dyn & free)`.
    free_bits: Vec<u64>,
    /// Per-assignment scratch row for the allowed-survivor mask built
    /// over `g2.neighbours(j)`.
    mask_buf: Vec<u64>,
    /// Left nodes ordered most-constrained-first (smallest pruned
    /// domain, then rarest WL colour class, then index) — the scan order
    /// of variable selection, chosen so wipeouts surface on the first
    /// few probes. Selection still minimizes the colour-blind MRV key, so
    /// the chosen variable (and hence the witness) is scan-order-invariant.
    seed_order: Vec<u32>,
    /// Undo log for `dyn_bits`: `(left node, word index, previous word)`
    /// per changed word; `descend` truncates to its saved mark.
    trail: Vec<(u32, u32, u64)>,
    // --- search state ----------------------------------------------------
    assign: Vec<u32>,
    /// Build-time per-node candidate buffer, carried only so
    /// [`Search::into_scratch`] can return it to the per-thread pool.
    cand_buf: Vec<u32>,
    /// Sum of pair costs of currently assigned nodes (incremental).
    partial_cost: u64,
    /// Sum of `node_min_cost` over currently unassigned nodes (incremental).
    unassigned_floor: u64,
    stats: SolverStats,
    budget_exhausted: bool,
    best: Option<BestSolution>,
    best_cost: u64,
    /// Global lower bound; reaching it allows immediate termination.
    global_floor: u64,
}

impl<'a> Search<'a> {
    /// Build the per-solve search state. With a prepared left-hand plan
    /// (`lhs`, which must be over `g1` for `problem`), the right graph
    /// is indexed by the plan's left labels once and only same-label
    /// pairs are visited; without one, the full grid is scanned. Both
    /// paths run every pair through the same filters, so the resulting
    /// tables — and therefore the search and its statistics — are
    /// identical.
    ///
    /// The candidate tables, pair-cost matrix and assignment state are
    /// filled into `scratch`'s (cleared) vectors rather than fresh
    /// allocations; [`Search::into_scratch`] returns them to the pool.
    fn build(
        problem: Problem,
        g1: &'a GraphCore,
        g2: &'a GraphCore,
        config: &'a SolverConfig,
        lhs: Option<&PreparedLhs<'_>>,
        wl_colors: Option<(&[u64], &[u64])>,
        scratch: SearchScratch,
    ) -> Self {
        let n1 = g1.node_count();
        let n2 = g2.node_count();
        let bijective = problem.bijective();
        let optimizing = problem.optimizing();
        let wl_active = wl_colors.is_some();
        let words = n2.div_ceil(64);
        if let Some((c1, c2)) = wl_colors {
            debug_assert_eq!(c1.len(), n1, "left colour array length");
            debug_assert_eq!(c2.len(), n2, "right colour array length");
        }

        // Right nodes bucketed by label, restricted to labels that occur
        // on the left (one pass over g2, reused by every left node).
        let rhs_by_label: Option<FxHashMap<Symbol, Vec<u32>>> = lhs.map(|lhs| {
            debug_assert!(
                std::ptr::eq(lhs.core, g1),
                "prepared plan used with a different left graph"
            );
            debug_assert_eq!(
                lhs.problem, problem,
                "prepared plan for a different problem"
            );
            let mut buckets: FxHashMap<Symbol, Vec<u32>> = FxHashMap::default();
            for j in 0..n2 as u32 {
                let label = g2.node_label(j);
                if lhs.node_label_counts.contains_key(&label) {
                    buckets.entry(label).or_default().push(j);
                }
            }
            buckets
        });

        let SearchScratch {
            mut cand_flat,
            mut cand_start,
            mut pair_cost,
            mut node_min_cost,
            mut assign,
            cand_buf: mut scratch,
            mut dyn_bits,
            mut wl_bits,
            mut free_bits,
            mut mask_buf,
            mut seed_order,
            mut trail,
        } = scratch;
        cand_flat.clear();
        cand_start.clear();
        cand_start.reserve(n1 + 1);
        cand_start.push(0);
        // Feasibility problems cost zero everywhere — skip the table.
        pair_cost.clear();
        if optimizing {
            pair_cost.resize(n1 * n2, u64::MAX);
        }
        node_min_cost.clear();
        node_min_cost.reserve(n1);
        assign.clear();
        assign.resize(n1, UNASSIGNED);
        scratch.clear();
        scratch.reserve(n2);
        dyn_bits.clear();
        wl_bits.clear();
        free_bits.clear();
        mask_buf.clear();
        seed_order.clear();
        trail.clear();
        dyn_bits.resize(n1 * words, 0);
        // Bits past n2 in the last word stay set but are never set in
        // any dyn/wl row, and every read ANDs against one.
        free_bits.resize(words, u64::MAX);
        mask_buf.resize(words, 0);
        if wl_active {
            wl_bits.resize(n1 * words, 0);
        }
        // The per-pair candidate filter, shared verbatim by both
        // construction paths.
        let consider = |i: u32,
                        j: u32,
                        scratch: &mut Vec<u32>,
                        pair_cost: &mut Vec<u64>,
                        min_cost: &mut u64| {
            if g1.node_label(i) != g2.node_label(j) {
                return;
            }
            if problem == Problem::Isomorphism && g1.node_props(i) != g2.node_props(j) {
                return;
            }
            if config.degree_filter {
                let ok = if bijective {
                    g1.degree_sig(i) == g2.degree_sig(j)
                } else {
                    degree_sig_leq(g1.degree_sig(i), g2.degree_sig(j))
                };
                if !ok {
                    return;
                }
            }
            if optimizing {
                let cost = node_pair_cost(problem, g1.node_props(i), g2.node_props(j));
                pair_cost[i as usize * n2 + j as usize] = cost;
                *min_cost = (*min_cost).min(cost);
            }
            scratch.push(j);
        };
        for i in 0..n1 as u32 {
            scratch.clear();
            let mut min_cost = u64::MAX;
            match &rhs_by_label {
                Some(buckets) => {
                    // Bucket rows are ascending in j, so candidate order
                    // matches the full scan's.
                    if let Some(bucket) = buckets.get(&g1.node_label(i)) {
                        for &j in bucket {
                            consider(i, j, &mut scratch, &mut pair_cost, &mut min_cost);
                        }
                    }
                }
                None => {
                    for j in 0..n2 as u32 {
                        consider(i, j, &mut scratch, &mut pair_cost, &mut min_cost);
                    }
                }
            }
            if config.order_by_cost && optimizing {
                // Stable by cost: ties keep insertion order, exactly like
                // the string path (and trivially so for feasibility
                // problems, where the sort would be an all-ties no-op).
                scratch.sort_by_key(|&j| pair_cost[i as usize * n2 + j as usize]);
            }
            let row = i as usize * words;
            for &j in scratch.iter() {
                dyn_bits[row + (j as usize >> 6)] |= 1u64 << (j & 63);
            }
            if let Some((c1, c2)) = wl_colors {
                let mut wl_min = u64::MAX;
                for &j in scratch.iter() {
                    if c1[i as usize] == c2[j as usize] {
                        wl_bits[row + (j as usize >> 6)] |= 1u64 << (j & 63);
                        if optimizing {
                            wl_min = wl_min.min(pair_cost[i as usize * n2 + j as usize]);
                        }
                    }
                }
                if optimizing {
                    // Tightened admissible floor: every feasible
                    // bijection maps `i` inside its colour class, so the
                    // per-node minimum may ignore colour-mismatched
                    // pairs. Raising the floor only skips branches whose
                    // completions all cost at least the incumbent — the
                    // strict-improvement sequence, and hence the
                    // witness, is unchanged.
                    min_cost = wl_min;
                }
            }
            node_min_cost.push(if min_cost == u64::MAX { 0 } else { min_cost });
            cand_flat.extend_from_slice(&scratch);
            cand_start.push(cand_flat.len() as u32);
        }

        // Seed order: most-constrained-first over the *pruned* static
        // domains (then rarest right-hand colour class, then index).
        // This is only the scan order of variable selection — the MRV
        // minimum itself is scan-order-invariant — so it accelerates
        // wipeout detection without perturbing any outcome.
        let mut color_count: FxHashMap<u64, u32> = FxHashMap::default();
        if let Some((_, c2)) = wl_colors {
            for &c in c2 {
                *color_count.entry(c).or_insert(0) += 1;
            }
        }
        seed_order.extend(0..n1 as u32);
        seed_order.sort_by_key(|&i| {
            let row = i as usize * words;
            let bits = if wl_active {
                &wl_bits[row..row + words]
            } else {
                &dyn_bits[row..row + words]
            };
            let domain: u32 = bits.iter().map(|w| w.count_ones()).sum();
            let class = wl_colors
                .map(|(c1, _)| color_count.get(&c1[i as usize]).copied().unwrap_or(0))
                .unwrap_or(0);
            (domain, class, i)
        });

        // Admissible edge-cost floor: each g1 edge costs at least the
        // minimum mismatch against any same-label g2 edge. (Per-edge
        // minima are order-independent, so the label-grouped prepared
        // path sums the exact same floor as the full scan.)
        let mut edge_cost_floor = 0u64;
        if optimizing {
            match lhs {
                Some(lhs) => {
                    let mut rhs_edges: FxHashMap<Symbol, Vec<u32>> = FxHashMap::default();
                    for e2 in 0..g2.edge_count() as u32 {
                        let label = g2.edge_label(e2);
                        if lhs.edge_groups.contains_key(&label) {
                            rhs_edges.entry(label).or_default().push(e2);
                        }
                    }
                    for (label, es1) in &lhs.edge_groups {
                        let Some(es2) = rhs_edges.get(label) else {
                            continue;
                        };
                        for &e1 in es1 {
                            let mut min_c = u64::MAX;
                            for &e2 in es2 {
                                min_c = min_c.min(edge_pair_cost(
                                    problem,
                                    g1.edge_props(e1),
                                    g2.edge_props(e2),
                                ));
                            }
                            if min_c != u64::MAX {
                                edge_cost_floor += min_c;
                            }
                        }
                    }
                }
                None => {
                    for e1 in 0..g1.edge_count() as u32 {
                        let mut min_c = u64::MAX;
                        for e2 in 0..g2.edge_count() as u32 {
                            if g1.edge_label(e1) != g2.edge_label(e2) {
                                continue;
                            }
                            min_c = min_c.min(edge_pair_cost(
                                problem,
                                g1.edge_props(e1),
                                g2.edge_props(e2),
                            ));
                        }
                        if min_c != u64::MAX {
                            edge_cost_floor += min_c;
                        }
                    }
                }
            }
        }
        let unassigned_floor = node_min_cost.iter().sum::<u64>();
        let global_floor = unassigned_floor + edge_cost_floor;

        Search {
            problem,
            config,
            g1,
            g2,
            n1,
            n2,
            cand_flat,
            cand_start,
            pair_cost,
            node_min_cost,
            edge_cost_floor,
            groups2: None,
            wl_active,
            words,
            dyn_bits,
            wl_bits,
            free_bits,
            mask_buf,
            seed_order,
            trail,
            assign,
            cand_buf: scratch,
            partial_cost: 0,
            unassigned_floor,
            stats: SolverStats::default(),
            budget_exhausted: false,
            best: None,
            best_cost: u64::MAX,
            global_floor,
        }
    }

    #[inline]
    fn cost_of(&self, i: u32, j: u32) -> u64 {
        if self.pair_cost.is_empty() {
            0
        } else {
            self.pair_cost[i as usize * self.n2 + j as usize]
        }
    }

    #[inline]
    fn candidates(&self, i: u32) -> (usize, usize) {
        (
            self.cand_start[i as usize] as usize,
            self.cand_start[i as usize + 1] as usize,
        )
    }

    /// Dismantle the search, returning its reusable allocations to a
    /// [`SearchScratch`] (each vector cleared, oversized ones dropped).
    fn into_scratch(self) -> SearchScratch {
        SearchScratch {
            cand_flat: reclaim(self.cand_flat),
            cand_start: reclaim(self.cand_start),
            pair_cost: reclaim(self.pair_cost),
            node_min_cost: reclaim(self.node_min_cost),
            assign: reclaim(self.assign),
            cand_buf: reclaim(self.cand_buf),
            dyn_bits: reclaim(self.dyn_bits),
            wl_bits: reclaim(self.wl_bits),
            free_bits: reclaim(self.free_bits),
            mask_buf: reclaim(self.mask_buf),
            seed_order: reclaim(self.seed_order),
            trail: reclaim(self.trail),
        }
    }

    fn run(&mut self) {
        // A node with zero candidates makes the problem infeasible.
        if self.cand_start.windows(2).any(|w| w[0] == w[1]) {
            return;
        }
        // A node with no colour-compatible candidate is just as
        // infeasible for a bijective problem: colour-preserving maps
        // cannot leave the colour class.
        if self.wl_active {
            for i in 0..self.n1 {
                let row = i * self.words;
                if self.wl_bits[row..row + self.words].iter().all(|&w| w == 0) {
                    return;
                }
            }
        }
        self.descend(0);
    }

    #[inline]
    fn dyn_bit(&self, i: u32, j: u32) -> bool {
        self.dyn_bits[i as usize * self.words + (j as usize >> 6)] >> (j & 63) & 1 != 0
    }

    #[inline]
    fn wl_bit(&self, i: u32, j: u32) -> bool {
        self.wl_bits[i as usize * self.words + (j as usize >> 6)] >> (j & 63) & 1 != 0
    }

    #[inline]
    fn free_bit(&self, j: u32) -> bool {
        self.free_bits[j as usize >> 6] >> (j & 63) & 1 != 0
    }

    /// `depth` = number of assigned nodes so far.
    fn descend(&mut self, depth: usize) -> bool {
        if self.budget_exhausted {
            return true;
        }
        if depth == self.n1 {
            return self.complete();
        }
        let var = match self.select_variable() {
            Some(v) => v,
            None => return false, // some node has no remaining candidate
        };
        let (start, end) = self.candidates(var);
        for ci in start..end {
            let j = self.cand_flat[ci];
            // The dynamic row already encodes adjacency consistency with
            // every assigned neighbour (and stays static with
            // `forward_check` off, reproducing naive semantics).
            if !self.free_bit(j) || !self.dyn_bit(var, j) {
                continue;
            }
            // A colour-mismatched pair heads a provably solution-free
            // subtree (no colour-preserving bijection extends it), so it
            // is skipped before the step counter: outcomes are untouched,
            // statistics shrink deterministically.
            if self.wl_active && !self.wl_bit(var, j) {
                continue;
            }
            self.stats.steps += 1;
            if self.stats.steps > self.config.max_steps {
                self.budget_exhausted = true;
                return true;
            }
            let pair = self.cost_of(var, j);
            if self.config.cost_bound && self.problem.optimizing() {
                // Incrementally maintained bound: assigned cost + this
                // pair + floors of the other unassigned nodes + edges.
                let bound = self.partial_cost
                    + pair
                    + self.edge_cost_floor
                    + (self.unassigned_floor - self.node_min_cost[var as usize]);
                if bound >= self.best_cost {
                    continue;
                }
            }
            self.assign[var as usize] = j;
            self.partial_cost += pair;
            self.unassigned_floor -= self.node_min_cost[var as usize];
            let trail_mark = self.trail.len();
            self.free_bits[j as usize >> 6] &= !(1u64 << (j & 63));
            if self.config.forward_check {
                self.restrict_neighbours(var, j);
            }
            let stop = self.descend(depth + 1);
            while self.trail.len() > trail_mark {
                // provlint: allow(panic-in-lib) -- trail_mark was captured from this trail before descent
                let (n, w, old) = self.trail.pop().expect("trail mark within bounds");
                self.dyn_bits[n as usize * self.words + w as usize] = old;
            }
            self.free_bits[j as usize >> 6] |= 1u64 << (j & 63);
            self.assign[var as usize] = UNASSIGNED;
            self.partial_cost -= pair;
            self.unassigned_floor += self.node_min_cost[var as usize];
            if stop {
                return true;
            }
        }
        self.stats.backtracks += 1;
        false
    }

    /// Word-parallel forward propagation of `var → j`: every unassigned
    /// g1-neighbour `n` of `var` loses the candidates that are not
    /// adjacency-consistent with the new assignment, by one AND per row
    /// word. Changed words are logged to `trail` for undo.
    ///
    /// Survivors are necessarily g2-neighbours of `j` — `n` is adjacent
    /// to `var`, so some direction of `g1.pair_labels` is non-empty and
    /// any image of `n` must carry the matching g2 edge(s) to `j` — so
    /// the allowed mask is built over `g2.neighbours(j)` only. By
    /// induction over the assignment stack, bit `m` of row `n` is set
    /// exactly when `n → m` is edge-count-compatible (`pair_edges_ok`,
    /// both directions) with every assigned neighbour of `n`: the same
    /// consistency the string oracle checks per candidate, which is what
    /// keeps step counts equal to its counts modulo the WL skips.
    fn restrict_neighbours(&mut self, var: u32, j: u32) {
        let g1 = self.g1;
        let g2 = self.g2;
        let words = self.words;
        let mut mask = std::mem::take(&mut self.mask_buf);
        for &n in g1.neighbours(var) {
            if self.assign[n as usize] != UNASSIGNED {
                continue;
            }
            mask.iter_mut().for_each(|w| *w = 0);
            for &m in g2.neighbours(j) {
                if self.pair_edges_ok(n, var, m, j) && self.pair_edges_ok(var, n, j, m) {
                    mask[m as usize >> 6] |= 1u64 << (m & 63);
                }
            }
            let row = n as usize * words;
            for (w, &allowed) in mask.iter().enumerate() {
                let old = self.dyn_bits[row + w];
                let new = old & allowed;
                if new != old {
                    self.trail.push((n, w as u32, old));
                    self.dyn_bits[row + w] = new;
                }
            }
        }
        self.mask_buf = mask;
    }

    /// Minimum-remaining-values with a preference for nodes adjacent to the
    /// already-assigned frontier. Domain sizes are `popcount(dyn & free)`
    /// per row word.
    ///
    /// The MRV key counts the dynamic domain **before** WL pruning — the
    /// count the string oracle's candidate walk makes — so the selected
    /// variable, and with it the witness, never depends on the WL signal;
    /// colours only contribute the early `None` when some node's
    /// colour-compatible domain wipes out (a state with no feasible
    /// completion either way). Scanning in `seed_order` surfaces wipeouts
    /// early; the minimum itself is scan-order-invariant because the key
    /// totalizes on the node index.
    fn select_variable(&self) -> Option<u32> {
        let mut best: Option<(usize, usize, u32)> = None; // (remaining, -adjacency, var)
        for &i in &self.seed_order {
            if self.assign[i as usize] != UNASSIGNED {
                continue;
            }
            let row = i as usize * self.words;
            let mut remaining = 0usize;
            let mut wl_remaining = 0usize;
            for w in 0..self.words {
                let live = self.dyn_bits[row + w] & self.free_bits[w];
                remaining += live.count_ones() as usize;
                if self.wl_active {
                    wl_remaining += (live & self.wl_bits[row + w]).count_ones() as usize;
                }
            }
            if remaining == 0 || (self.wl_active && wl_remaining == 0) {
                return None;
            }
            let adjacency = self
                .g1
                .neighbours(i)
                .iter()
                .filter(|&&n| self.assign[n as usize] != UNASSIGNED)
                .count();
            let key = (remaining, usize::MAX - adjacency, i);
            if best.is_none_or(|b| key < b) {
                best = Some(key);
            }
        }
        best.map(|(_, _, v)| v)
    }

    /// Check edge-count compatibility for the ordered pair (a→b) vs (x→y):
    /// a sorted-slice compare, no map probing, no allocation.
    #[inline]
    fn pair_edges_ok(&self, a: u32, b: u32, x: u32, y: u32) -> bool {
        let c1 = self.g1.pair_labels(a, b);
        let c2 = self.g2.pair_labels(x, y);
        if self.problem.bijective() {
            c1 == c2
        } else {
            label_counts_leq(c1, c2)
        }
    }

    /// All nodes assigned: place edges group-by-group and record solution.
    /// Returns `true` when the search can stop globally.
    fn complete(&mut self) -> bool {
        let node_cost = self.partial_cost;
        if self.problem.optimizing() && node_cost + self.edge_cost_floor >= self.best_cost {
            return false;
        }
        if self.groups2.is_none() {
            // Built on the first complete assignment only: infeasible
            // searches never pay for it.
            let mut groups: BTreeMap<(u32, u32, Symbol), Vec<u32>> = BTreeMap::new();
            for e in 0..self.g2.edge_count() as u32 {
                groups
                    .entry((
                        self.g2.edge_src(e),
                        self.g2.edge_tgt(e),
                        self.g2.edge_label(e),
                    ))
                    .or_default()
                    .push(e);
            }
            self.groups2 = Some(groups);
        }
        let Some((edge_pairs, edge_cost)) = self.place_edges() else {
            return false;
        };
        self.stats.solutions += 1;
        let total = node_cost + edge_cost;
        if total < self.best_cost {
            self.best_cost = total;
            self.best = Some((self.assign.clone(), edge_pairs, total));
        }
        if !self.problem.optimizing() {
            return true; // first feasible solution suffices
        }
        // Optimal as soon as we hit the admissible global floor.
        self.best_cost <= self.global_floor
    }

    /// Assign g1 edges to g2 edges given the complete node map.
    fn place_edges(&self) -> Option<(Vec<(u32, u32)>, u64)> {
        // provlint: allow(panic-in-lib) -- complete() populates groups2 before place_edges is reachable
        let groups2 = self.groups2.as_ref().expect("groups built in complete()");
        // Group g1 edges by mapped (src, tgt, label).
        let mut groups1: BTreeMap<(u32, u32, Symbol), Vec<u32>> = BTreeMap::new();
        for e in 0..self.g1.edge_count() as u32 {
            let s = self.assign[self.g1.edge_src(e) as usize];
            let t = self.assign[self.g1.edge_tgt(e) as usize];
            groups1
                .entry((s, t, self.g1.edge_label(e)))
                .or_default()
                .push(e);
        }
        if self.problem.bijective() {
            // Every g2 edge must be covered by an equal-size g1 group.
            if groups1.len() != groups2.len() {
                return None;
            }
            for (k, v2) in groups2 {
                if groups1.get(k).map(Vec::len) != Some(v2.len()) {
                    return None;
                }
            }
        }
        let mut edge_pairs = Vec::with_capacity(self.g1.edge_count());
        let mut total_cost = 0u64;
        for (key, es1) in &groups1 {
            let es2 = groups2.get(key)?;
            if es1.len() > es2.len() {
                return None;
            }
            let cost_matrix: Vec<Vec<u64>> = es1
                .iter()
                .map(|&e1| {
                    es2.iter()
                        .map(|&e2| {
                            let p1 = self.g1.edge_props(e1);
                            let p2 = self.g2.edge_props(e2);
                            if self.problem == Problem::Isomorphism && p1 != p2 {
                                FORBIDDEN
                            } else {
                                edge_pair_cost(self.problem, p1, p2)
                            }
                        })
                        .collect()
                })
                .collect();
            let (cols, cost) = min_cost_assignment(&cost_matrix)?;
            total_cost += cost;
            for (row, col) in cols.into_iter().enumerate() {
                edge_pairs.push((es1[row], es2[col]));
            }
        }
        Some((edge_pairs, total_cost))
    }
}

fn node_pair_cost(problem: Problem, p1: &[(Symbol, Symbol)], p2: &[(Symbol, Symbol)]) -> u64 {
    match problem {
        Problem::Similarity | Problem::Isomorphism => 0,
        Problem::Generalization => symmetric_prop_diff(p1, p2),
        Problem::Subgraph => one_sided_prop_diff(p1, p2),
    }
}

fn edge_pair_cost(problem: Problem, p1: &[(Symbol, Symbol)], p2: &[(Symbol, Symbol)]) -> u64 {
    node_pair_cost(problem, p1, p2)
}

/// Build-time candidate domains of a dense search, exposed for the
/// differential domain proptests (`tests/pruned_search.rs`). Not part of
/// the public API contract.
#[doc(hidden)]
#[derive(Debug)]
pub struct DebugDomains {
    /// Candidate list per left node, in search order (cost-sorted when
    /// `order_by_cost` applies).
    pub candidates: Vec<Vec<u32>>,
    /// Bitset domain per left node, decoded to ascending right ids.
    pub bitset: Vec<Vec<u32>>,
    /// WL-colour-surviving candidates per left node (ascending right
    /// ids); `None` for the non-bijective problem, where colour pruning
    /// is inactive.
    pub wl: Option<Vec<Vec<u32>>>,
}

/// Compile `g1`/`g2` against a fresh interner and expose the dense
/// search's build-time candidate state — the introspection hook behind
/// the bitset/WL domain differential tests. Skips the global
/// feasibility pre-checks on purpose: domains are compared even for
/// pairs the full solve would reject early.
#[doc(hidden)]
pub fn debug_domains(
    problem: Problem,
    g1: &PropertyGraph,
    g2: &PropertyGraph,
    config: &SolverConfig,
) -> DebugDomains {
    let mut interner = Interner::new();
    let c1 = CompiledGraph::compile(g1, &mut interner);
    let c2 = CompiledGraph::compile(g2, &mut interner);
    let core1: &GraphCore = &c1;
    let core2: &GraphCore = &c2;
    let derived: (Vec<u64>, Vec<u64>);
    let wl_colors = if problem.bijective() {
        derived = (shape_colors_core(core1), shape_colors_core(core2));
        Some((derived.0.as_slice(), derived.1.as_slice()))
    } else {
        None
    };
    let search = Search::build(
        problem,
        core1,
        core2,
        config,
        None,
        wl_colors,
        SearchScratch::default(),
    );
    let n1 = core1.node_count();
    let n2 = core2.node_count() as u32;
    let words = search.words;
    let candidates = (0..n1)
        .map(|i| {
            let (s, e) = search.candidates(i as u32);
            search.cand_flat[s..e].to_vec()
        })
        .collect();
    let decode = |bits: &[u64], i: usize| -> Vec<u32> {
        let row = &bits[i * words..(i + 1) * words];
        (0..n2)
            .filter(|&j| row[j as usize >> 6] >> (j & 63) & 1 != 0)
            .collect()
    };
    let bitset = (0..n1).map(|i| decode(&search.dyn_bits, i)).collect();
    let wl = search
        .wl_active
        .then(|| (0..n1).map(|i| decode(&search.wl_bits, i)).collect());
    DebugDomains {
        candidates,
        bitset,
        wl,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn g(build: impl FnOnce(&mut PropertyGraph)) -> PropertyGraph {
        let mut graph = PropertyGraph::new();
        build(&mut graph);
        graph
    }

    fn triangle(prefix: &str) -> PropertyGraph {
        g(|g| {
            for i in 0..3 {
                g.add_node(format!("{prefix}{i}"), "N").unwrap();
            }
            for i in 0..3 {
                g.add_edge(
                    format!("{prefix}e{i}"),
                    format!("{prefix}{i}"),
                    format!("{prefix}{}", (i + 1) % 3),
                    "r",
                )
                .unwrap();
            }
        })
    }

    #[test]
    fn triangle_similar_to_relabelled_triangle() {
        let a = triangle("a");
        let b = triangle("b");
        let m = solve(Problem::Similarity, &a, &b, &SolverConfig::default())
            .matching
            .unwrap();
        assert_eq!(m.node_map.len(), 3);
        assert_eq!(m.edge_map.len(), 3);
        assert_eq!(m.cost, 0);
        // The witness must be structure-preserving.
        for (e1, e2) in &m.edge_map {
            let d1 = a.edge(e1).unwrap();
            let d2 = b.edge(e2).unwrap();
            assert_eq!(m.node_map[&d1.src], d2.src);
            assert_eq!(m.node_map[&d1.tgt], d2.tgt);
        }
    }

    #[test]
    fn triangle_not_similar_to_path() {
        let a = triangle("a");
        let path = g(|g| {
            for i in 0..3 {
                g.add_node(format!("p{i}"), "N").unwrap();
            }
            g.add_edge("e0", "p0", "p1", "r").unwrap();
            g.add_edge("e1", "p1", "p2", "r").unwrap();
            g.add_edge("e2", "p0", "p2", "r").unwrap();
        });
        assert!(
            solve(Problem::Similarity, &a, &path, &SolverConfig::default())
                .matching
                .is_none()
        );
    }

    #[test]
    fn label_mismatch_fails_fast() {
        let a = g(|g| {
            g.add_node("x", "A").unwrap();
        });
        let b = g(|g| {
            g.add_node("y", "B").unwrap();
        });
        let out = solve(Problem::Similarity, &a, &b, &SolverConfig::default());
        assert!(out.matching.is_none());
        assert!(out.optimal);
        assert_eq!(out.stats.steps, 0, "must fail in the pre-check");
    }

    #[test]
    fn isomorphism_requires_equal_properties() {
        let a = g(|g| {
            g.add_node("x", "A").unwrap();
            g.set_node_property("x", "k", "1").unwrap();
        });
        let b = g(|g| {
            g.add_node("y", "A").unwrap();
            g.set_node_property("y", "k", "2").unwrap();
        });
        assert!(
            solve(Problem::Isomorphism, &a, &b, &SolverConfig::default())
                .matching
                .is_none()
        );
        assert!(solve(Problem::Similarity, &a, &b, &SolverConfig::default())
            .matching
            .is_some());
    }

    #[test]
    fn generalization_minimizes_property_mismatch() {
        // Two nodes with same label; pairing by matching "name" property
        // costs 2 (the volatile timestamps), the wrong pairing costs 6.
        let a = g(|g| {
            g.add_node("a1", "F").unwrap();
            g.set_node_property("a1", "name", "alpha").unwrap();
            g.set_node_property("a1", "time", "100").unwrap();
            g.add_node("a2", "F").unwrap();
            g.set_node_property("a2", "name", "beta").unwrap();
            g.set_node_property("a2", "time", "101").unwrap();
        });
        let b = g(|g| {
            g.add_node("b1", "F").unwrap();
            g.set_node_property("b1", "name", "beta").unwrap();
            g.set_node_property("b1", "time", "200").unwrap();
            g.add_node("b2", "F").unwrap();
            g.set_node_property("b2", "name", "alpha").unwrap();
            g.set_node_property("b2", "time", "201").unwrap();
        });
        let m = solve(Problem::Generalization, &a, &b, &SolverConfig::default())
            .matching
            .unwrap();
        assert_eq!(m.node_map["a1"], "b2");
        assert_eq!(m.node_map["a2"], "b1");
        assert_eq!(m.cost, 4, "two volatile timestamps, counted on both sides");
    }

    #[test]
    fn subgraph_finds_embedding_with_extra_structure() {
        let bg = g(|g| {
            g.add_node("p", "Process").unwrap();
            g.add_node("f", "Artifact").unwrap();
            g.add_edge("e", "p", "f", "Used").unwrap();
        });
        let fg = g(|g| {
            g.add_node("q", "Process").unwrap();
            g.add_node("x", "Artifact").unwrap();
            g.add_node("y", "Artifact").unwrap();
            g.add_edge("e1", "q", "x", "Used").unwrap();
            g.add_edge("e2", "q", "y", "WasGeneratedBy").unwrap();
        });
        let m = solve(Problem::Subgraph, &bg, &fg, &SolverConfig::default())
            .matching
            .unwrap();
        assert_eq!(m.node_map["p"], "q");
        assert_eq!(m.node_map["f"], "x");
        assert_eq!(m.edge_map["e"], "e1");
    }

    #[test]
    fn subgraph_prefers_property_matching_image() {
        let bg = g(|g| {
            g.add_node("f", "Artifact").unwrap();
            g.set_node_property("f", "path", "/tmp/t").unwrap();
        });
        let fg = g(|g| {
            g.add_node("x", "Artifact").unwrap();
            g.set_node_property("x", "path", "/lib/libc").unwrap();
            g.add_node("y", "Artifact").unwrap();
            g.set_node_property("y", "path", "/tmp/t").unwrap();
        });
        let m = solve(Problem::Subgraph, &bg, &fg, &SolverConfig::default())
            .matching
            .unwrap();
        assert_eq!(m.node_map["f"], "y");
        assert_eq!(m.cost, 0);
    }

    #[test]
    fn subgraph_respects_structure_over_properties() {
        // The property-perfect node is not structurally viable.
        let bg = g(|g| {
            g.add_node("p", "P").unwrap();
            g.add_node("f", "F").unwrap();
            g.add_edge("e", "p", "f", "r").unwrap();
            g.set_node_property("f", "name", "t").unwrap();
        });
        let fg = g(|g| {
            g.add_node("q", "P").unwrap();
            g.add_node("isolated", "F").unwrap();
            g.set_node_property("isolated", "name", "t").unwrap();
            g.add_node("linked", "F").unwrap();
            g.set_node_property("linked", "name", "other").unwrap();
            g.add_edge("e1", "q", "linked", "r").unwrap();
        });
        let m = solve(Problem::Subgraph, &bg, &fg, &SolverConfig::default())
            .matching
            .unwrap();
        assert_eq!(m.node_map["f"], "linked");
        assert_eq!(m.cost, 1);
    }

    #[test]
    fn subgraph_infeasible_when_larger() {
        let bg = triangle("a");
        let fg = g(|g| {
            g.add_node("x", "N").unwrap();
        });
        let out = solve(Problem::Subgraph, &bg, &fg, &SolverConfig::default());
        assert!(out.matching.is_none());
        assert!(out.optimal);
    }

    #[test]
    fn empty_bg_embeds_into_anything() {
        let bg = PropertyGraph::new();
        let fg = triangle("a");
        let m = solve(Problem::Subgraph, &bg, &fg, &SolverConfig::default())
            .matching
            .unwrap();
        assert!(m.is_empty());
    }

    #[test]
    fn empty_graphs_are_similar() {
        let out = solve(
            Problem::Similarity,
            &PropertyGraph::new(),
            &PropertyGraph::new(),
            &SolverConfig::default(),
        );
        assert!(out.matching.unwrap().is_empty());
    }

    #[test]
    fn multigraph_edge_counts_respected() {
        // Two parallel edges in bg require two in fg.
        let bg = g(|g| {
            g.add_node("p", "P").unwrap();
            g.add_node("f", "F").unwrap();
            g.add_edge("e1", "p", "f", "r").unwrap();
            g.add_edge("e2", "p", "f", "r").unwrap();
        });
        let fg_one = g(|g| {
            g.add_node("q", "P").unwrap();
            g.add_node("x", "F").unwrap();
            g.add_edge("e", "q", "x", "r").unwrap();
            g.add_edge("other", "x", "q", "r").unwrap();
        });
        assert!(
            solve(Problem::Subgraph, &bg, &fg_one, &SolverConfig::default())
                .matching
                .is_none()
        );
        let fg_two = g(|g| {
            g.add_node("q", "P").unwrap();
            g.add_node("x", "F").unwrap();
            g.add_edge("f1", "q", "x", "r").unwrap();
            g.add_edge("f2", "q", "x", "r").unwrap();
        });
        let m = solve(Problem::Subgraph, &bg, &fg_two, &SolverConfig::default())
            .matching
            .unwrap();
        assert_eq!(m.edge_map.len(), 2);
        // Injective on edges.
        assert_ne!(m.edge_map["e1"], m.edge_map["e2"]);
    }

    #[test]
    fn multigraph_parallel_edge_costs_optimally_assigned() {
        let bg = g(|g| {
            g.add_node("p", "P").unwrap();
            g.add_node("f", "F").unwrap();
            for (e, v) in [("e1", "1"), ("e2", "2")] {
                g.add_edge(e, "p", "f", "r").unwrap();
                g.set_edge_property(e, "seq", v).unwrap();
            }
        });
        let fg = g(|g| {
            g.add_node("q", "P").unwrap();
            g.add_node("x", "F").unwrap();
            for (e, v) in [("f2", "2"), ("f1", "1"), ("f3", "3")] {
                g.add_edge(e, "q", "x", "r").unwrap();
                g.set_edge_property(e, "seq", v).unwrap();
            }
        });
        let m = solve(Problem::Subgraph, &bg, &fg, &SolverConfig::default())
            .matching
            .unwrap();
        assert_eq!(m.cost, 0);
        assert_eq!(m.edge_map["e1"], "f1");
        assert_eq!(m.edge_map["e2"], "f2");
    }

    #[test]
    fn bijective_requires_all_g2_edges_covered() {
        // Same node multiset, same edge count, but edges placed such that
        // no bijection exists.
        let a = g(|g| {
            g.add_node("a", "N").unwrap();
            g.add_node("b", "N").unwrap();
            g.add_edge("e1", "a", "b", "r").unwrap();
            g.add_edge("e2", "a", "b", "r").unwrap();
        });
        let b = g(|g| {
            g.add_node("x", "N").unwrap();
            g.add_node("y", "N").unwrap();
            g.add_edge("f1", "x", "y", "r").unwrap();
            g.add_edge("f2", "y", "x", "r").unwrap();
        });
        assert!(solve(Problem::Similarity, &a, &b, &SolverConfig::default())
            .matching
            .is_none());
    }

    #[test]
    fn naive_config_agrees_with_default() {
        let a = triangle("a");
        let mut b = triangle("b");
        b.set_node_property("b1", "time", "42").unwrap();
        let full = solve(Problem::Generalization, &a, &b, &SolverConfig::default());
        let naive = solve(Problem::Generalization, &a, &b, &SolverConfig::naive());
        assert_eq!(
            full.matching.as_ref().map(|m| m.cost),
            naive.matching.as_ref().map(|m| m.cost)
        );
        assert!(full.optimal && naive.optimal);
    }

    #[test]
    fn budget_exhaustion_reported() {
        // A graph with many interchangeable nodes explodes the naive search.
        let make = |p: &str| {
            g(|g| {
                for i in 0..12 {
                    g.add_node(format!("{p}{i}"), "N").unwrap();
                }
            })
        };
        let a = make("a");
        let b = make("b");
        let cfg = SolverConfig {
            max_steps: 5,
            ..SolverConfig::naive()
        };
        let out = solve(Problem::Similarity, &a, &b, &cfg);
        // Either it happened to finish (it should: first dive is a valid
        // bijection) or it reports non-optimality — but never both empty
        // and "optimal".
        if out.matching.is_none() {
            assert!(!out.optimal);
        }
    }

    #[test]
    fn self_loops_matched() {
        let a = g(|g| {
            g.add_node("x", "N").unwrap();
            g.add_edge("e", "x", "x", "loop").unwrap();
        });
        let b = g(|g| {
            g.add_node("y", "N").unwrap();
            g.add_edge("f", "y", "y", "loop").unwrap();
        });
        let m = solve(Problem::Similarity, &a, &b, &SolverConfig::default())
            .matching
            .unwrap();
        assert_eq!(m.node_map["x"], "y");
        assert_eq!(m.edge_map["e"], "f");
        // A self-loop is not similar to a plain edge.
        let c = g(|g| {
            g.add_node("y", "N").unwrap();
            g.add_node("z", "N").unwrap();
            g.add_edge("f", "y", "z", "loop").unwrap();
        });
        assert!(solve(Problem::Subgraph, &a, &c, &SolverConfig::default())
            .matching
            .is_none());
    }

    #[test]
    fn star_graph_automorphisms_handled() {
        // A star with 6 identical leaves has 720 automorphisms; the solver
        // must still terminate instantly on feasibility problems.
        let star = |p: &str| {
            g(|g| {
                g.add_node(format!("{p}hub"), "Hub").unwrap();
                for i in 0..6 {
                    g.add_node(format!("{p}leaf{i}"), "Leaf").unwrap();
                    g.add_edge(
                        format!("{p}e{i}"),
                        format!("{p}hub"),
                        format!("{p}leaf{i}"),
                        "spoke",
                    )
                    .unwrap();
                }
            })
        };
        let out = solve(
            Problem::Similarity,
            &star("a"),
            &star("b"),
            &SolverConfig::default(),
        );
        assert!(out.matching.is_some());
        assert!(out.optimal);
        assert!(out.stats.steps < 100, "steps: {}", out.stats.steps);
    }

    #[test]
    fn pruning_reduces_search_effort() {
        // A chain embedded into a copy whose nodes are inserted in
        // reverse order: the naive search's candidate order is maximally
        // wrong, while degree filtering + forward checking cut through.
        // Embedding, because WL colours (always on, and alone enough to
        // separate a directed chain's positions) prune only bijective
        // problems, so this isolates the switchable rules.
        let chain = |p: &str, order: &mut dyn Iterator<Item = usize>| {
            g(|g| {
                for i in order {
                    g.add_node(format!("{p}{i}"), "N").unwrap();
                }
                for i in 0..6 {
                    g.add_edge(
                        format!("{p}e{i}"),
                        format!("{p}{i}"),
                        format!("{p}{}", i + 1),
                        "r",
                    )
                    .unwrap();
                }
            })
        };
        let a = chain("a", &mut (0..7));
        let b = chain("b", &mut (0..7).rev());
        let smart = solve(Problem::Subgraph, &a, &b, &SolverConfig::default());
        let naive = solve(Problem::Subgraph, &a, &b, &SolverConfig::naive());
        assert!(smart.matching.is_some() && naive.matching.is_some());
        assert!(
            smart.stats.steps < naive.stats.steps,
            "pruned {} vs naive {}",
            smart.stats.steps,
            naive.stats.steps
        );
    }

    #[test]
    fn generalization_on_disconnected_components() {
        let make = |p: &str, t: &str| {
            g(|g| {
                g.add_node(format!("{p}1"), "A").unwrap();
                g.add_node(format!("{p}2"), "A").unwrap();
                g.set_node_property(&format!("{p}1"), "name", "one")
                    .unwrap();
                g.set_node_property(&format!("{p}1"), "t", t).unwrap();
                g.set_node_property(&format!("{p}2"), "name", "two")
                    .unwrap();
                g.set_node_property(&format!("{p}2"), "t", t).unwrap();
            })
        };
        let m = solve(
            Problem::Generalization,
            &make("x", "5"),
            &make("y", "9"),
            &SolverConfig::default(),
        )
        .matching
        .unwrap();
        // Optimal pairing aligns names; cost = 2 volatile props × 2 sides.
        assert_eq!(m.node_map["x1"], "y1");
        assert_eq!(m.cost, 4);
    }

    #[test]
    fn subgraph_budget_reports_best_effort() {
        let many = |p: &str, n: usize| {
            g(|g| {
                for i in 0..n {
                    g.add_node(format!("{p}{i}"), "N").unwrap();
                }
            })
        };
        let cfg = SolverConfig {
            max_steps: 3,
            ..SolverConfig::naive()
        };
        let out = solve(Problem::Subgraph, &many("a", 8), &many("b", 9), &cfg);
        // Either found quickly or flagged non-optimal — never a silent wrong answer.
        if out.matching.is_none() {
            assert!(!out.optimal);
        }
    }

    #[test]
    fn stats_populated() {
        let a = triangle("a");
        let b = triangle("b");
        let out = solve(Problem::Similarity, &a, &b, &SolverConfig::default());
        assert!(out.stats.steps >= 3);
        assert_eq!(out.stats.solutions, 1);
    }

    #[test]
    fn solve_in_matches_session_members() {
        // The corpus-session call pattern: compile everything once, then
        // match members pairwise with zero per-call compile cost.
        let a = triangle("a");
        let b = triangle("b");
        let c = g(|g| {
            g.add_node("only", "N").unwrap();
        });
        let mut session = CorpusSession::new();
        let ia = session.add(&a);
        let ib = session.add(&b);
        let ic = session.add(&c);
        let cfg = SolverConfig::default();
        let m = solve_in(Problem::Similarity, &session, ia, ib, &cfg)
            .matching
            .expect("triangles similar");
        assert_eq!(m.node_map.len(), 3);
        // Witness identifiers resolve to the original strings.
        assert!(m.node_map.keys().all(|k| k.starts_with('a')));
        assert!(m.node_map.values().all(|v| v.starts_with('b')));
        assert!(solve_in(Problem::Similarity, &session, ia, ic, &cfg)
            .matching
            .is_none());
        // Session outcomes equal the one-shot path in full.
        let oneshot = solve(Problem::Similarity, &a, &b, &cfg);
        let in_session = solve_in(Problem::Similarity, &session, ia, ib, &cfg);
        assert_eq!(oneshot.matching, in_session.matching);
        assert_eq!(oneshot.stats, in_session.stats);
    }

    #[test]
    fn batch_solver_matches_per_pair_session_path() {
        let a = triangle("a");
        let mut b = triangle("b");
        // A property perturbation drives the optimizing problems off the
        // zero-cost diagonal, exercising the prepared pair-cost table.
        b.set_node_property("b1", "time", "42").unwrap();
        let c = g(|g| {
            g.add_node("only", "N").unwrap();
        });
        let mut session = CorpusSession::new();
        let ia = session.add(&a);
        let ib = session.add(&b);
        let ic = session.add(&c);
        let cfg = SolverConfig::default();
        let rhs = [ia, ib, ic];
        for problem in [
            Problem::Similarity,
            Problem::Isomorphism,
            Problem::Generalization,
            Problem::Subgraph,
        ] {
            let batch = solve_batch_in(problem, &session, ia, &rhs, &cfg);
            assert_eq!(batch.len(), rhs.len());
            for (out, &r) in batch.iter().zip(&rhs) {
                let per_pair = solve_in(problem, &session, ia, r, &cfg);
                assert_eq!(out.matching, per_pair.matching, "{problem:?}");
                assert_eq!(out.optimal, per_pair.optimal, "{problem:?}");
                assert_eq!(out.stats, per_pair.stats, "{problem:?}");
            }
        }
        // A kept solver reuses one plan across batches and single solves.
        let solver = BatchSolver::new(Problem::Similarity, &session, ia, cfg);
        assert_eq!(solver.problem(), Problem::Similarity);
        assert_eq!(solver.lhs(), ia);
        assert!(solver.solve_one(ib).matching.is_some());
        assert!(solver.solve_one(ic).matching.is_none());
        assert!(solver.solve_batch(&[]).is_empty());
    }

    #[test]
    fn solve_compiled_reuses_precompiled_graphs() {
        // Compile once, match the same g1 against two partners — the
        // amortized call pattern of similarity classification.
        let a = triangle("a");
        let b = triangle("b");
        let c = g(|g| {
            g.add_node("only", "N").unwrap();
        });
        let mut interner = Interner::new();
        let ca = CompiledGraph::compile(&a, &mut interner);
        let cb = CompiledGraph::compile(&b, &mut interner);
        let cc = CompiledGraph::compile(&c, &mut interner);
        let cfg = SolverConfig::default();
        assert!(solve_compiled(Problem::Similarity, &ca, &cb, &cfg)
            .matching
            .is_some());
        assert!(solve_compiled(Problem::Similarity, &ca, &cc, &cfg)
            .matching
            .is_none());
        // And the wrapper agrees.
        assert!(solve(Problem::Similarity, &a, &b, &cfg).matching.is_some());
    }

    #[test]
    fn memo_shares_across_calls_and_left_sides() {
        let a = triangle("a");
        let b = triangle("b");
        let a_again = triangle("x"); // same core as `a`, different handle
        let mut session = CorpusSession::new();
        let ia = session.add(&a);
        let ib = session.add(&b);
        let ix = session.add(&a_again);
        let cfg = SolverConfig::default();
        let memo = SolveMemo::new();
        // First batch populates the memo.
        let first =
            solve_batch_in_memo(Problem::Similarity, &session, ia, &[ib], &cfg, Some(&memo));
        assert_eq!(memo.misses(), 1);
        assert_eq!(memo.hits(), 0);
        // A separate call replaying the same pair is a pure hit.
        let replay =
            solve_batch_in_memo(Problem::Similarity, &session, ia, &[ib], &cfg, Some(&memo));
        assert_eq!(memo.hits(), 1);
        // A *different left handle* with an equivalent core hits too —
        // the cross-left-side sharing the per-batch path cannot do.
        let cross_left = solve_in_memo(Problem::Similarity, &session, ix, ib, &cfg, Some(&memo));
        assert_eq!(memo.hits(), 2);
        assert_eq!(memo.misses(), 1);
        // Every memo outcome equals the memo-off solve in full, with the
        // witness translated through the *actual* carriers.
        for (out, lhs) in [(&first[0], ia), (&replay[0], ia), (&cross_left, ix)] {
            let plain = solve_in(Problem::Similarity, &session, lhs, ib, &cfg);
            assert_eq!(out.matching, plain.matching);
            assert_eq!(out.optimal, plain.optimal);
            assert_eq!(out.stats, plain.stats);
        }
        let m = cross_left.matching.expect("triangles similar");
        assert!(m.node_map.keys().all(|k| k.starts_with('x')));
    }

    #[test]
    fn memo_keys_are_property_blind_only_for_similarity() {
        let a = triangle("a");
        let mut b = triangle("b");
        b.set_node_property("b0", "time", "1").unwrap();
        let mut c = triangle("c");
        c.set_node_property("c0", "time", "2").unwrap();
        let mut session = CorpusSession::new();
        let ia = session.add(&a);
        let ib = session.add(&b);
        let ic = session.add(&c);
        let cfg = SolverConfig::default();
        let memo = SolveMemo::new();
        // Similarity never reads a property, so b and c share one entry.
        solve_in_memo(Problem::Similarity, &session, ia, ib, &cfg, Some(&memo));
        solve_in_memo(Problem::Similarity, &session, ia, ic, &cfg, Some(&memo));
        assert_eq!((memo.hits(), memo.misses()), (1, 1));
        // Isomorphism reads properties: distinct rows, distinct entries —
        // and the memoed verdicts still equal the memo-off ones.
        let iso_b = solve_in_memo(Problem::Isomorphism, &session, ia, ib, &cfg, Some(&memo));
        let iso_c = solve_in_memo(Problem::Isomorphism, &session, ia, ic, &cfg, Some(&memo));
        assert_eq!((memo.hits(), memo.misses()), (1, 3));
        assert!(iso_b.matching.is_none() && iso_c.matching.is_none());
    }

    #[test]
    fn memo_does_not_reuse_budget_exhausted_outcomes_under_larger_budget() {
        // Pathological pair: many interchangeable nodes whose properties
        // make the optimizing search explore, so a tiny step budget
        // exhausts before any complete assignment exists.
        let make = |p: &str, shift: usize| {
            g(|g| {
                for i in 0..10 {
                    g.add_node(format!("{p}{i}"), "N").unwrap();
                    g.set_node_property(&format!("{p}{i}"), "t", ((i + shift) % 10).to_string())
                        .unwrap();
                }
            })
        };
        let a = make("a", 0);
        let b = make("b", 0);
        let mut session = CorpusSession::new();
        let ia = session.add(&a);
        let ib = session.add(&b);
        let memo = SolveMemo::new();
        let small = SolverConfig {
            max_steps: 4,
            ..SolverConfig::naive()
        };
        let exhausted = solve_in_memo(
            Problem::Generalization,
            &session,
            ia,
            ib,
            &small,
            Some(&memo),
        );
        assert!(
            !exhausted.optimal && exhausted.matching.is_none(),
            "4 steps cannot assign 10 nodes"
        );
        // A larger budget must trigger a fresh search (the budget is part
        // of the memo key), not replay the truncated outcome.
        let full_cfg = SolverConfig::default();
        let full = solve_in_memo(
            Problem::Generalization,
            &session,
            ia,
            ib,
            &full_cfg,
            Some(&memo),
        );
        assert!(
            full.optimal,
            "larger budget must not reuse the exhausted outcome"
        );
        assert_eq!(full.matching.as_ref().map(|m| m.cost), Some(0));
        let plain = solve_in(Problem::Generalization, &session, ia, ib, &full_cfg);
        assert_eq!(full.matching, plain.matching);
        assert_eq!(full.stats, plain.stats);
        assert_eq!(memo.hits(), 0, "distinct budgets are distinct keys");
        // Replaying the *same* small budget is a legal hit and reproduces
        // the exhausted outcome bit-for-bit.
        let replay = solve_in_memo(
            Problem::Generalization,
            &session,
            ia,
            ib,
            &small,
            Some(&memo),
        );
        assert_eq!(memo.hits(), 1);
        assert_eq!(replay.optimal, exhausted.optimal);
        assert_eq!(replay.matching, exhausted.matching);
        assert_eq!(replay.stats, exhausted.stats);
    }
}
