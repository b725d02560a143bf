//! Solver engine-path benchmark: string path vs compiled path, reported
//! as `BENCH_solver.json`.
//!
//! Three "after" numbers are reported per workload:
//!
//! - `compiled_oneshot_ms` — [`aspsolver::solve`]: compile both graphs
//!   into the warm thread interner, then search. The cost a cold caller
//!   pays.
//! - `compiled_amortized_ms` — [`aspsolver::solve_compiled`] on
//!   pre-compiled graphs: search only, no compile. The `--min-speedup`
//!   gate applies to this number.
//! - `session_amortized_ms` — [`aspsolver::solve_in`] over a
//!   [`CorpusSession`]: the pipeline's actual steady-state pattern since
//!   the corpus-session refactor (every trial compiled exactly once into
//!   one shared interner, generalization and comparison both solved over
//!   session handles).
//!
//! Before any timing is published, every workload's compiled outcomes
//! (one-shot and session) are asserted identical to the string oracle's,
//! session statistics equal to one-shot ones, and the compiled search's
//! steps and backtracks no larger than the oracle's.
//!
//! The string path has no compile stage to amortize — re-deriving
//! adjacency tables, degree signatures and property comparisons from
//! heap strings on every call is exactly the work the compiled
//! representation eliminates.
//!
//! # Workloads
//!
//! The paper-sized trio (`generalize_execve`, `subgraph_scale4/8`)
//! mirrors the pipeline's own call shapes: tiny graphs, and a
//! constant-size background for the subgraph problem (the paper's
//! background program does not grow with the scale factor), so those
//! one-shot numbers stay compile-bound by construction.
//!
//! The scaled suites (`generalize_scale16/32/64`,
//! `subgraph_scale16/32/64`) grow **both** sides of the matching:
//! generalization matches two foreground trials of scaleN, and the
//! scaled subgraph workloads embed the generalized foreground into a
//! fresh raw trial — the regression-check pattern. There search cost
//! dominates compile cost, which is where the one-shot compiled path
//! must clear 2× as well; `--min-oneshot` gates that on the scale64
//! workloads.
//!
//! # Batch workloads
//!
//! The `batch` column measures the prepared-left-hand-side solver
//! ([`aspsolver::solve_batch_in`]: one plan, many right-hand graphs)
//! against the session-amortized path solving the same pairs one by one:
//!
//! - `rep_members_scaleN` — one similarity-class representative
//!   confirmed against 8 further trials of the same benchmark (the
//!   classification stage's exact call shape);
//! - `matrix_replay_scale16` — one generalized graph embedded into 8
//!   fresh raw trials (the Table 2 replay / regression-check shape).
//!
//! `--min-batch` gates `session_amortized / batch` on these workloads.
//!
//! A fourth `batch_memo` column replays each batch workload through a
//! session-level [`aspsolver::SolveMemo`] held across calls — the
//! steady-state matrix-replay pattern, where the same (problem, core
//! pair, config) keys recur call after call and are served from the
//! cache. `memo_speedup` = batch / batch_memo; `--min-memo` gates it on
//! the `matrix_replay` workloads (per-batch sharing cannot help there —
//! the rights are all distinct cores — so the memo's cross-call reuse is
//! exactly what the gate measures); it is informational on the
//! rep-members workloads. Each memo row also carries informational
//! `memo_hits` / `memo_misses` / `memo_hit_rate` (tracked outside
//! `SolverStats`, so cached outcomes stay bit-identical to fresh ones).
//!
//! A fifth `cache_warm` column measures the **persistent solve cache**
//! ([`aspsolver::persist`]): the warm memo is serialized to cache bytes
//! once, then each rep starts a *fresh* memo — cold reps solve the
//! batch from scratch, warm reps first reload the bytes and replay
//! every outcome from disk state without a single dense search (the
//! cross-process warm-start pattern: a restarted worker or a second
//! shard inheriting another run's cache file). `cache_warm_speedup` =
//! cache_cold / cache_warm; `--min-cache` gates it on the
//! `matrix_replay` workloads. Warm outcomes are asserted identical to
//! the memo-off batch — search statistics included — and the warm memo
//! is asserted to have served every answer from the loaded entries
//! (zero misses) before any timing is published.
//!
//! ```text
//! bench_solver [--out PATH] [--min-speedup X] [--min-oneshot X]
//!              [--min-batch X] [--min-memo X] [--min-cache X]
//!              [--reps N] [--quick]
//! ```
//!
//! `--quick` runs only the scaled suites plus the batch workloads at a
//! reduced default rep count (the CI smoke configuration). All timings
//! carry p25/p75 quartiles *and* a bootstrap 95% confidence interval of
//! the median (resampled medians, deterministic RNG — see
//! `criterion::bootstrap_median_ci` in the minibench shim) in the
//! report. A gate that fails on the median but would pass on the
//! optimistic bootstrap bound (`strings_ci_high / path_ci_low`) flags
//! the run as **noisy** and does not fail, so transient scheduler
//! jitter cannot flap CI; unlike the raw quartile bound used before,
//! the interval narrows with the rep count, so more reps mean a
//! stricter gate.
//!
//! Exits nonzero when the paths disagree on any outcome, or when an
//! enabled gate fails beyond noise.

use std::time::Instant;

use aspsolver::{
    solve, solve_batch_in, solve_batch_in_memo, solve_compiled, solve_in, solve_strings, Problem,
    SolveMemo, SolverConfig,
};
use criterion::bootstrap_median_ci;
use provgraph::compiled::{CompiledGraph, CorpusSession, GraphId, Interner};
use provgraph::PropertyGraph;
use provmark_bench::{prepare_generalized, prepare_trial_graphs};
use provmark_core::scale::{scale_spec, EXTENDED_SCALE_FACTORS};
use provmark_core::suite;
use provmark_core::tool::ToolKind;
use serde_json::{Map, Value};

struct Workload {
    name: String,
    problem: Problem,
    g1: PropertyGraph,
    g2: PropertyGraph,
}

/// The scaled suites: per extended factor, a generalization matching of
/// two foreground trials and a subgraph embedding of the generalized
/// foreground into a fresh raw trial (both sides grow with N).
fn scaled_workloads() -> Vec<Workload> {
    let mut out = Vec::new();
    for n in EXTENDED_SCALE_FACTORS {
        let spec = scale_spec(n);
        let (_, fg_trials) = prepare_trial_graphs(ToolKind::Spade, &spec, 3);
        let (_, fg_gen) = prepare_generalized(ToolKind::Spade, &spec);
        let mut trials = fg_trials.into_iter();
        let t1 = trials.next().expect("three trials");
        let t2 = trials.next().expect("three trials");
        let fresh = trials.next().expect("three trials");
        out.push(Workload {
            name: format!("generalize_scale{n}"),
            problem: Problem::Generalization,
            g1: t1,
            g2: t2,
        });
        out.push(Workload {
            name: format!("subgraph_scale{n}"),
            problem: Problem::Subgraph,
            g1: fg_gen,
            g2: fresh,
        });
    }
    out
}

/// The paper-sized trio retained from the original ablation.
fn paper_workloads() -> Vec<Workload> {
    let spec = suite::spec("execve").expect("execve in suite");
    let (_, fg_trials) = prepare_trial_graphs(ToolKind::Spade, &spec, 2);
    let mut trials = fg_trials.into_iter();
    let g1 = trials.next().expect("two trials");
    let g2 = trials.next().expect("two trials");
    let (bg4, fg4) = prepare_generalized(ToolKind::Spade, &scale_spec(4));
    let (bg8, fg8) = prepare_generalized(ToolKind::Spade, &scale_spec(8));
    vec![
        Workload {
            name: "generalize_execve".to_owned(),
            problem: Problem::Generalization,
            g1,
            g2,
        },
        Workload {
            name: "subgraph_scale4".to_owned(),
            problem: Problem::Subgraph,
            g1: bg4,
            g2: fg4,
        },
        Workload {
            name: "subgraph_scale8".to_owned(),
            problem: Problem::Subgraph,
            g1: bg8,
            g2: fg8,
        },
    ]
}

/// A batch workload: one fixed left-hand graph solved against many
/// right-hand graphs.
struct BatchWorkload {
    name: String,
    problem: Problem,
    lhs: PropertyGraph,
    rhs: Vec<PropertyGraph>,
}

/// The batch suites: representative-vs-members similarity confirmation
/// and the matrix-replay subgraph embedding (one generalized graph,
/// many fresh foregrounds).
fn batch_workloads(quick: bool) -> Vec<BatchWorkload> {
    let mut out = Vec::new();
    let factors: &[usize] = if quick { &[16] } else { &[16, 32] };
    for &n in factors {
        let spec = scale_spec(n);
        let (_, mut fg) = prepare_trial_graphs(ToolKind::Spade, &spec, 9);
        let lhs = fg.remove(0);
        out.push(BatchWorkload {
            name: format!("rep_members_scale{n}"),
            problem: Problem::Similarity,
            lhs,
            rhs: fg,
        });
    }
    let spec = scale_spec(16);
    let (_, fg_gen) = prepare_generalized(ToolKind::Spade, &spec);
    let (_, fresh) = prepare_trial_graphs(ToolKind::Spade, &spec, 8);
    out.push(BatchWorkload {
        name: "matrix_replay_scale16".to_owned(),
        problem: Problem::Subgraph,
        lhs: fg_gen,
        rhs: fresh,
    });
    out
}

/// Wall-clock statistics of `reps` runs (after one warm-up): quartiles
/// plus a bootstrap 95% CI of the median, all in seconds.
#[derive(Debug, Clone, Copy)]
struct Timed {
    p25: f64,
    median: f64,
    p75: f64,
    ci_low: f64,
    ci_high: f64,
}

fn measure<T>(reps: usize, mut run: impl FnMut() -> T) -> Timed {
    std::hint::black_box(run());
    let mut samples: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            // provlint: allow(direct-clock) -- this IS the benchmark measurement; timings never enter canonical reports
            let t0 = Instant::now();
            std::hint::black_box(run());
            t0.elapsed().as_secs_f64()
        })
        .collect();
    let (ci_low, ci_high) = bootstrap_median_ci(&samples, 300, 0x9E37_79B9);
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    let n = samples.len();
    Timed {
        p25: samples[n / 4],
        median: samples[n / 2],
        p75: samples[(3 * n) / 4],
        ci_low,
        ci_high,
    }
}

/// Relative interquartile range — the noise indicator carried per path.
fn relative_iqr(q: Timed) -> f64 {
    if q.median == 0.0 {
        0.0
    } else {
        (q.p75 - q.p25) / q.median
    }
}

fn insert_quartiles(row: &mut Map<String, Value>, prefix: &str, q: Timed) {
    row.insert(format!("{prefix}_ms"), Value::Number(q.median * 1e3));
    row.insert(format!("{prefix}_p25_ms"), Value::Number(q.p25 * 1e3));
    row.insert(format!("{prefix}_p75_ms"), Value::Number(q.p75 * 1e3));
    row.insert(format!("{prefix}_ci_low_ms"), Value::Number(q.ci_low * 1e3));
    row.insert(
        format!("{prefix}_ci_high_ms"),
        Value::Number(q.ci_high * 1e3),
    );
}

/// One gated speedup with its noise-aware bounds.
#[derive(Debug, Clone, Copy)]
struct Speedup {
    /// Median-based speedup (the reported number).
    median: f64,
    /// `baseline_ci_high / path_ci_low`: the best speedup consistent
    /// with the bootstrap CIs of both medians — what the speedup looks
    /// like when noise flattered the baseline and penalized the
    /// measured path.
    optimistic: f64,
}

fn speedup(baseline: Timed, path: Timed) -> Speedup {
    Speedup {
        median: baseline.median / path.median,
        optimistic: baseline.ci_high / path.ci_low,
    }
}

/// Apply a `min` gate to a set of (workload, speedup) pairs. Returns
/// `true` when CI must fail (below the bar beyond noise); prints a NOISY
/// warning (and passes) when only the median is below the bar but the
/// bootstrap interval still admits it.
fn gate(label: &str, required: f64, entries: &[(String, Speedup)]) -> bool {
    let mut fail = false;
    for (name, s) in entries {
        if s.median >= required {
            continue;
        }
        if s.optimistic >= required {
            eprintln!(
                "NOISY: {name} {label} speedup {:.2}x below required {required:.2}x, \
                 but the optimistic bootstrap bound ({:.2}x) clears it — not failing",
                s.median, s.optimistic
            );
        } else {
            eprintln!(
                "FAIL: {name} {label} speedup {:.2}x below required {required:.2}x \
                 (optimistic bootstrap bound {:.2}x)",
                s.median, s.optimistic
            );
            fail = true;
        }
    }
    fail
}

fn main() {
    let mut out_path = "BENCH_solver.json".to_owned();
    let mut min_speedup: Option<f64> = None;
    let mut min_oneshot: Option<f64> = None;
    let mut min_batch: Option<f64> = None;
    let mut min_memo: Option<f64> = None;
    let mut min_cache: Option<f64> = None;
    let mut reps: Option<usize> = None;
    let mut quick = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => out_path = args.next().expect("--out needs a path"),
            "--min-speedup" => {
                min_speedup = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .expect("--min-speedup needs a number"),
                )
            }
            "--min-oneshot" => {
                min_oneshot = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .expect("--min-oneshot needs a number"),
                )
            }
            "--min-batch" => {
                min_batch = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .expect("--min-batch needs a number"),
                )
            }
            "--min-memo" => {
                min_memo = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .expect("--min-memo needs a number"),
                )
            }
            "--min-cache" => {
                min_cache = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .expect("--min-cache needs a number"),
                )
            }
            "--reps" => {
                reps = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .expect("--reps needs a count"),
                )
            }
            "--quick" => quick = true,
            other => {
                eprintln!("unknown argument `{other}`");
                std::process::exit(2);
            }
        }
    }
    let reps = reps.unwrap_or(if quick { 7 } else { 25 });

    let workloads = if quick {
        scaled_workloads()
    } else {
        let mut w = paper_workloads();
        w.extend(scaled_workloads());
        w
    };

    let config = SolverConfig::default();
    let mut rows: Vec<Value> = Vec::new();
    let mut amortized_speedups: Vec<(String, Speedup)> = Vec::new();
    let mut scale64_oneshot_speedups: Vec<(String, Speedup)> = Vec::new();
    let mut oneshot_speedups: Vec<(String, Speedup)> = Vec::new();
    let mut session_speedups: Vec<(String, Speedup)> = Vec::new();
    let mut disagreements = 0usize;
    println!(
        "{:<20} {:>13} {:>13} {:>11} {:>11} {:>8} {:>8} {:>8}",
        "workload",
        "strings (ms)",
        "oneshot (ms)",
        "amortized",
        "session",
        "1shot ×",
        "amort ×",
        "sess ×"
    );
    for w in workloads {
        // Differential check first: identical outcomes on this workload
        // across all paths (the string path is the oracle), and a
        // compiled search that explores no more than the oracle's.
        let compiled = solve(w.problem, &w.g1, &w.g2, &config);
        let strings = solve_strings(w.problem, &w.g1, &w.g2, &config);
        let mut session = CorpusSession::new();
        let id1 = session.add(&w.g1);
        let id2 = session.add(&w.g2);
        let in_session = solve_in(w.problem, &session, id1, id2, &config);
        let agree = compiled.optimal == strings.optimal
            && compiled.matching == strings.matching
            && in_session.optimal == strings.optimal
            && in_session.matching == strings.matching
            && in_session.stats == compiled.stats
            && compiled.stats.steps <= strings.stats.steps
            && compiled.stats.backtracks <= strings.stats.backtracks;
        if !agree {
            eprintln!("{}: engine paths DISAGREE — not publishing timings", w.name);
            disagreements += 1;
            continue;
        }
        assert!(
            compiled.optimal,
            "benchmark workloads must solve to optimality"
        );
        let cost = compiled.matching.as_ref().map(|m| m.cost);

        let strings_q = measure(reps, || solve_strings(w.problem, &w.g1, &w.g2, &config));
        let oneshot_q = measure(reps, || solve(w.problem, &w.g1, &w.g2, &config));
        let mut interner = Interner::new();
        let c1 = CompiledGraph::compile(&w.g1, &mut interner);
        let c2 = CompiledGraph::compile(&w.g2, &mut interner);
        let amortized_q = measure(reps, || solve_compiled(w.problem, &c1, &c2, &config));
        let session_q = measure(reps, || solve_in(w.problem, &session, id1, id2, &config));

        let oneshot_x = speedup(strings_q, oneshot_q);
        let amortized_x = speedup(strings_q, amortized_q);
        let session_x = speedup(strings_q, session_q);
        let noisy = [strings_q, oneshot_q, amortized_q, session_q]
            .into_iter()
            .map(relative_iqr)
            .fold(0.0f64, f64::max)
            > 0.25;
        println!(
            "{:<20} {:>13.3} {:>13.3} {:>11.3} {:>11.3} {:>7.2}x {:>7.2}x {:>7.2}x{}",
            w.name,
            strings_q.median * 1e3,
            oneshot_q.median * 1e3,
            amortized_q.median * 1e3,
            session_q.median * 1e3,
            oneshot_x.median,
            amortized_x.median,
            session_x.median,
            if noisy { "  (noisy)" } else { "" }
        );

        let mut row = Map::new();
        row.insert("name".into(), Value::String(w.name.clone()));
        row.insert("problem".into(), Value::String(format!("{:?}", w.problem)));
        row.insert("g1_size".into(), Value::Number(w.g1.size() as f64));
        row.insert("g2_size".into(), Value::Number(w.g2.size() as f64));
        insert_quartiles(&mut row, "strings", strings_q);
        insert_quartiles(&mut row, "compiled_oneshot", oneshot_q);
        insert_quartiles(&mut row, "compiled_amortized", amortized_q);
        insert_quartiles(&mut row, "session_amortized", session_q);
        row.insert("oneshot_speedup".into(), Value::Number(oneshot_x.median));
        row.insert(
            "amortized_speedup".into(),
            Value::Number(amortized_x.median),
        );
        row.insert("session_speedup".into(), Value::Number(session_x.median));
        row.insert(
            "matching_cost".into(),
            cost.map_or(Value::Null, |c| Value::Number(c as f64)),
        );
        row.insert("outcomes_identical".into(), Value::Bool(true));
        row.insert("noisy".into(), Value::Bool(noisy));
        rows.push(Value::Object(row));

        if w.name.ends_with("scale64") {
            scale64_oneshot_speedups.push((w.name.clone(), oneshot_x));
        }
        oneshot_speedups.push((w.name.clone(), oneshot_x));
        amortized_speedups.push((w.name.clone(), amortized_x));
        session_speedups.push((w.name, session_x));
    }

    // ---- batch workloads: one prepared left, many rights ---------------
    let mut batch_speedups: Vec<(String, Speedup)> = Vec::new();
    let mut memo_speedups: Vec<(String, Speedup)> = Vec::new();
    let mut cache_speedups: Vec<(String, Speedup)> = Vec::new();
    println!(
        "\n{:<22} {:>6} {:>13} {:>11} {:>8} {:>11} {:>8} {:>6} {:>11} {:>8}",
        "batch workload",
        "rights",
        "session (ms)",
        "batch (ms)",
        "batch ×",
        "memo (ms)",
        "memo ×",
        "hit%",
        "warm (ms)",
        "cache ×"
    );
    for w in batch_workloads(quick) {
        let mut session = CorpusSession::new();
        let lhs_id = session.add(&w.lhs);
        let rhs_ids: Vec<GraphId> = w.rhs.iter().map(|g| session.add(g)).collect();

        // Differential first: every batch outcome must equal the
        // per-pair session solve and the string oracle in full —
        // matching, cost, optimality and search statistics.
        let batch_outcomes = solve_batch_in(w.problem, &session, lhs_id, &rhs_ids, &config);
        let mut agree = batch_outcomes.len() == rhs_ids.len();
        for ((out, &rid), g2) in batch_outcomes.iter().zip(&rhs_ids).zip(&w.rhs) {
            let per_pair = solve_in(w.problem, &session, lhs_id, rid, &config);
            let strings = solve_strings(w.problem, &w.lhs, g2, &config);
            agree &= out.matching == per_pair.matching
                && out.optimal == per_pair.optimal
                && out.stats == per_pair.stats
                && out.matching == strings.matching
                && out.optimal == strings.optimal
                && out.stats == strings.stats;
        }
        // Memo differential: a cold pass (populating) and a warm pass
        // (replaying from the cache) must both equal the memo-off batch
        // in every observable, search statistics included. The memo then
        // stays warm for the timed column — the steady-state replay.
        let memo = SolveMemo::new();
        for _pass in 0..2 {
            let memo_outcomes =
                solve_batch_in_memo(w.problem, &session, lhs_id, &rhs_ids, &config, Some(&memo));
            agree &= memo_outcomes.len() == batch_outcomes.len();
            for (m, b) in memo_outcomes.iter().zip(&batch_outcomes) {
                agree &= m.matching == b.matching && m.optimal == b.optimal && m.stats == b.stats;
            }
        }
        // Persistent-cache differential: serialize the warm memo, reload
        // the bytes into a *fresh* memo (the cross-process warm-start),
        // and replay — every outcome must equal the memo-off batch in
        // every observable, and every answer must come from the loaded
        // entries (zero fresh dense searches).
        let warm_bytes = aspsolver::cache_bytes(&memo);
        let warmed = SolveMemo::new();
        aspsolver::load_cache_bytes(&warmed, &warm_bytes)
            .expect("freshly serialized cache bytes decode");
        let warm_outcomes = solve_batch_in_memo(
            w.problem,
            &session,
            lhs_id,
            &rhs_ids,
            &config,
            Some(&warmed),
        );
        agree &= warm_outcomes.len() == batch_outcomes.len() && warmed.misses() == 0;
        for (m, b) in warm_outcomes.iter().zip(&batch_outcomes) {
            agree &= m.matching == b.matching && m.optimal == b.optimal && m.stats == b.stats;
        }
        if !agree {
            eprintln!(
                "{}: batch/memo/cache paths DISAGREE with per-pair/oracle — not publishing \
                 timings",
                w.name
            );
            disagreements += 1;
            continue;
        }

        let session_q = measure(reps, || {
            for &rid in &rhs_ids {
                std::hint::black_box(solve_in(w.problem, &session, lhs_id, rid, &config));
            }
        });
        let batch_q = measure(reps, || {
            solve_batch_in(w.problem, &session, lhs_id, &rhs_ids, &config)
        });
        let memo_q = measure(reps, || {
            solve_batch_in_memo(w.problem, &session, lhs_id, &rhs_ids, &config, Some(&memo))
        });
        let (memo_hits, memo_misses) = (memo.hits(), memo.misses());
        let memo_hit_rate = memo_hits as f64 / (memo_hits + memo_misses).max(1) as f64;
        // Cold vs warm process start: each rep gets a fresh memo, so the
        // cold closure pays the full dense searches and the warm closure
        // pays only the cache-bytes reload plus memo lookups.
        let cache_cold_q = measure(reps, || {
            let m = SolveMemo::new();
            solve_batch_in_memo(w.problem, &session, lhs_id, &rhs_ids, &config, Some(&m))
        });
        let cache_warm_q = measure(reps, || {
            let m = SolveMemo::new();
            aspsolver::load_cache_bytes(&m, &warm_bytes).expect("cache bytes decode");
            solve_batch_in_memo(w.problem, &session, lhs_id, &rhs_ids, &config, Some(&m))
        });
        let batch_x = speedup(session_q, batch_q);
        let memo_x = speedup(batch_q, memo_q);
        let cache_x = speedup(cache_cold_q, cache_warm_q);
        let noisy = [session_q, batch_q, memo_q, cache_cold_q, cache_warm_q]
            .into_iter()
            .map(relative_iqr)
            .fold(0.0f64, f64::max)
            > 0.25;
        println!(
            "{:<22} {:>6} {:>13.3} {:>11.3} {:>7.2}x {:>11.3} {:>7.2}x {:>5.0}% {:>11.3} {:>7.2}x{}",
            w.name,
            rhs_ids.len(),
            session_q.median * 1e3,
            batch_q.median * 1e3,
            batch_x.median,
            memo_q.median * 1e3,
            memo_x.median,
            memo_hit_rate * 100.0,
            cache_warm_q.median * 1e3,
            cache_x.median,
            if noisy { "  (noisy)" } else { "" }
        );

        let mut row = Map::new();
        row.insert("name".into(), Value::String(w.name.clone()));
        row.insert("kind".into(), Value::String("batch".into()));
        row.insert("problem".into(), Value::String(format!("{:?}", w.problem)));
        row.insert("lhs_size".into(), Value::Number(w.lhs.size() as f64));
        row.insert("rhs_count".into(), Value::Number(rhs_ids.len() as f64));
        insert_quartiles(&mut row, "session_amortized", session_q);
        insert_quartiles(&mut row, "batch", batch_q);
        insert_quartiles(&mut row, "batch_memo", memo_q);
        insert_quartiles(&mut row, "cache_cold", cache_cold_q);
        insert_quartiles(&mut row, "cache_warm", cache_warm_q);
        row.insert("batch_speedup".into(), Value::Number(batch_x.median));
        row.insert("memo_speedup".into(), Value::Number(memo_x.median));
        row.insert("cache_warm_speedup".into(), Value::Number(cache_x.median));
        row.insert("cache_bytes".into(), Value::Number(warm_bytes.len() as f64));
        // Informational hit-rate accounting, kept outside SolverStats so
        // cached outcomes stay bit-identical to fresh ones.
        row.insert("memo_hits".into(), Value::Number(memo_hits as f64));
        row.insert("memo_misses".into(), Value::Number(memo_misses as f64));
        row.insert("memo_hit_rate".into(), Value::Number(memo_hit_rate));
        row.insert("outcomes_identical".into(), Value::Bool(true));
        row.insert("noisy".into(), Value::Bool(noisy));
        rows.push(Value::Object(row));

        // Only the representative-vs-members workloads are gated: their
        // rights share one compiled structure, so the batch path's
        // dense-solve sharing must pay. The matrix-replay rights are all
        // distinct (volatile properties), so the batch path has nothing
        // to share there and that row is informational.
        if w.name.starts_with("rep_members") {
            batch_speedups.push((w.name.clone(), batch_x));
        }
        // The memo gate is the mirror image: matrix replay is where
        // per-batch sharing cannot help (all rights are distinct cores),
        // so the memo's cross-call reuse must beat it; on rep-members
        // the in-batch sharing already collapses the work, so the memo
        // column is informational there. The persistent-cache gate
        // follows the same logic: the warm start must beat the cold one
        // exactly where re-solving is the dominant cost.
        if w.name.starts_with("matrix_replay") {
            memo_speedups.push((w.name.clone(), memo_x));
            cache_speedups.push((w.name, cache_x));
        }
    }

    // ---- elastic drive: one injected worker loss vs clean run -----------
    //
    // Informational row (never gated): pins down the wall-clock overhead
    // of losing one worker mid-cell — stale-heartbeat detection, backoff
    // and epoch-bumped re-dispatch — against the clean elastic run, and
    // asserts the recovered report stays byte-identical. In-process
    // thread workers (no subprocess spawning), so the overhead measured
    // is the protocol's, not process startup.
    // Medians of the fault-injection comparison, hoisted so the summary
    // can record them (satellite to the gated fields below): recovery
    // cost was previously printed to stdout only and lost once the
    // terminal scrolled, while BENCH_solver.json trajectories are what
    // actually get compared across runs.
    let mut faulted_recovery: Option<(f64, f64, f64)> = None;
    {
        use provshard::elastic::{drive_elastic_in_process, ElasticOptions, InjectSpec};
        use provshard::RunConfig;
        use std::sync::atomic::{AtomicUsize, Ordering};

        const ELASTIC_WORKERS: usize = 3;
        let config = RunConfig {
            opts: provmark_core::BenchmarkOptions::default(),
            opus_db_iterations: Some(500),
        };
        // The smoke-tuned recovery preset (the same one `provmark-shard
        // --quick` uses): production timings left a killed cell stale
        // for seconds on a millisecond-scale matrix.
        let elastic_opts = |inject: &str| ElasticOptions {
            inject: InjectSpec::parse(inject).expect("inject spec"),
            ..ElasticOptions::quick()
        };
        // Every drive needs a fresh run directory (a reused one is
        // refused by design).
        let run_seq = AtomicUsize::new(0);
        let drive = |inject: &str| {
            let dir = std::env::temp_dir().join(format!(
                "provmark-bench-elastic-{}-{}",
                std::process::id(),
                run_seq.fetch_add(1, Ordering::Relaxed)
            ));
            let outcome =
                drive_elastic_in_process(ELASTIC_WORKERS, &config, &dir, &elastic_opts(inject))
                    .expect("elastic drive");
            std::fs::remove_dir_all(&dir).ok();
            assert!(
                outcome.failures.is_empty(),
                "bench elastic drive must recover every cell: {:?}",
                outcome.failures
            );
            outcome.report
        };
        let clean = drive("");
        let faulted = drive("kill-worker=1");
        if clean != faulted {
            eprintln!(
                "sharded_faulted_quick: fault-recovered report DIFFERS from the clean \
                 elastic report — not publishing timings"
            );
            disagreements += 1;
        } else {
            let fault_reps = reps.min(3);
            let clean_q = measure(fault_reps, || drive(""));
            let faulted_q = measure(fault_reps, || drive("kill-worker=1"));
            let ratio = speedup(clean_q, faulted_q);
            faulted_recovery = Some((clean_q.median, faulted_q.median, ratio.median));
            println!(
                "\n{:<22} {:>6} {:>13.3} {:>11.3} {:>7.2}x  (informational; recovered byte-identical)",
                "sharded_faulted_quick",
                ELASTIC_WORKERS,
                clean_q.median * 1e3,
                faulted_q.median * 1e3,
                ratio.median,
            );
            let mut row = Map::new();
            row.insert("name".into(), Value::String("sharded_faulted_quick".into()));
            row.insert("kind".into(), Value::String("fault_injection".into()));
            row.insert("workers".into(), Value::Number(ELASTIC_WORKERS as f64));
            row.insert("inject".into(), Value::String("kill-worker=1".into()));
            insert_quartiles(&mut row, "clean", clean_q);
            insert_quartiles(&mut row, "faulted", faulted_q);
            row.insert("clean_over_faulted".into(), Value::Number(ratio.median));
            row.insert("reports_byte_identical".into(), Value::Bool(true));
            rows.push(Value::Object(row));
        }
    }

    if disagreements > 0 {
        std::process::exit(1);
    }

    let min_of = |v: &[(String, Speedup)]| {
        v.iter()
            .map(|(_, s)| s.median)
            .fold(f64::INFINITY, f64::min)
    };
    let min_amortized = min_of(&amortized_speedups);
    let min_oneshot_all = min_of(&oneshot_speedups);
    let min_session = min_of(&session_speedups);
    let min_oneshot_scale64 = min_of(&scale64_oneshot_speedups);
    let min_batch_speedup = min_of(&batch_speedups);
    let min_memo_speedup = min_of(&memo_speedups);
    let min_cache_speedup = min_of(&cache_speedups);
    let geomean_amortized = (amortized_speedups
        .iter()
        .map(|(_, s)| s.median.ln())
        .sum::<f64>()
        / amortized_speedups.len() as f64)
        .exp();

    let mut doc = Map::new();
    doc.insert("bench".into(), Value::String("solver_path_ablation".into()));
    doc.insert(
        "description".into(),
        Value::String(
            "aspsolver string path (before) vs compiled symbol-interned path (after), \
             default SolverConfig, wall-clock quartiles (p25/median/p75). `amortized` = \
             solve_compiled on pre-compiled graphs; `session` = solve_in over a \
             CorpusSession, the pipeline's steady-state call pattern; `oneshot` \
             includes compiling both graphs. The scale16/32/64 suites grow both sides \
             of the matching (generalization of two trials; embedding the generalized \
             graph into a fresh raw trial), so search cost dominates and the one-shot \
             path is gated at 2x on scale64. Every compiled outcome equals the string \
             oracle's, with steps and backtracks no larger than the oracle's. Batch \
             workloads (kind=batch) measure \
             solve_batch_in — one prepared left-hand plan reused across many right \
             graphs, solving solver-equivalent rights once — against per-pair session solves of the \
             same pairs; `batch_speedup` = session_amortized / batch, gated \
             (--min-batch) on the rep_members workloads where rights share one \
             compiled structure. The batch_memo column replays the same batch through \
             a session-level SolveMemo held across calls (the steady-state \
             matrix-replay pattern); `memo_speedup` = batch / batch_memo, gated \
             (--min-memo) on the matrix_replay workloads where per-batch sharing \
             cannot help, with informational memo_hits/memo_misses/memo_hit_rate per \
             row. The cache_cold/cache_warm columns measure the persistent solve \
             cache: each rep starts a fresh memo, cold reps solve the batch from \
             scratch, warm reps reload the serialized cache bytes first and replay \
             every outcome without a dense search (the cross-process warm-start \
             pattern); `cache_warm_speedup` = cache_cold / cache_warm, gated \
             (--min-cache) on the matrix_replay workloads, with the serialized size \
             in `cache_bytes`. All timings carry p25/p75 quartiles and a bootstrap \
             95% CI of the median; gates use the CI bound for noise awareness"
                .into(),
        ),
    );
    doc.insert("reps".into(), Value::Number(reps as f64));
    doc.insert("quick".into(), Value::Bool(quick));
    // Run provenance: host shape and the session-snapshot format version
    // in effect, so BENCH_solver.json trajectories compared across
    // heterogeneous runners (sharded workers included) are
    // interpretable.
    let mut host = Map::new();
    host.insert(
        "cores".into(),
        Value::Number(
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get) as f64,
        ),
    );
    host.insert(
        "target".into(),
        Value::String(format!(
            "{}-{}",
            std::env::consts::ARCH,
            std::env::consts::OS
        )),
    );
    doc.insert("host".into(), Value::Object(host));
    doc.insert(
        "snapshot_format_version".into(),
        Value::Number(provgraph::snapshot::SNAPSHOT_VERSION as f64),
    );
    doc.insert("workloads".into(), Value::Array(rows));
    let mut summary = Map::new();
    summary.insert("min_amortized_speedup".into(), Value::Number(min_amortized));
    summary.insert("min_session_speedup".into(), Value::Number(min_session));
    summary.insert("min_oneshot_speedup".into(), Value::Number(min_oneshot_all));
    summary.insert(
        "min_oneshot_speedup_scale64".into(),
        Value::Number(min_oneshot_scale64),
    );
    summary.insert(
        "geomean_amortized_speedup".into(),
        Value::Number(geomean_amortized),
    );
    summary.insert("min_batch_speedup".into(), Value::Number(min_batch_speedup));
    summary.insert(
        "min_memo_speedup_matrix_replay".into(),
        Value::Number(min_memo_speedup),
    );
    summary.insert(
        "min_cache_warm_speedup_matrix_replay".into(),
        Value::Number(min_cache_speedup),
    );
    // Informational (never gated): the fault-injection recovery medians,
    // recorded so cross-run trajectories keep the recovery cost instead
    // of it living only in scrollback. Absent when the byte-identity
    // precheck failed and the row was not published.
    if let Some((clean_median, faulted_median, ratio_median)) = faulted_recovery {
        summary.insert(
            "sharded_faulted_clean_median_s".into(),
            Value::Number(clean_median),
        );
        summary.insert(
            "sharded_faulted_median_s".into(),
            Value::Number(faulted_median),
        );
        summary.insert(
            "sharded_faulted_recovery_ratio".into(),
            Value::Number(ratio_median),
        );
    }
    doc.insert("summary".into(), Value::Object(summary));

    let text = serde_json::to_string_pretty(&Value::Object(doc)).expect("report serializes");
    provtrace::write_bytes_durable(std::path::Path::new(&out_path), text.as_bytes())
        .expect("report written");
    println!(
        "wrote {out_path} (min amortized {min_amortized:.2}x, geomean {geomean_amortized:.2}x, \
         min session {min_session:.2}x, scale64 min oneshot {min_oneshot_scale64:.2}x, \
         min batch {min_batch_speedup:.2}x, min memo (matrix replay) {min_memo_speedup:.2}x, \
         min cache-warm (matrix replay) {min_cache_speedup:.2}x)"
    );

    let mut fail = false;
    if let Some(required) = min_speedup {
        fail |= gate("amortized", required, &amortized_speedups);
    }
    if let Some(required) = min_oneshot {
        if scale64_oneshot_speedups.is_empty() {
            eprintln!("FAIL: --min-oneshot given but no scale64 workload was run");
            fail = true;
        } else {
            fail |= gate("one-shot", required, &scale64_oneshot_speedups);
        }
    }
    if let Some(required) = min_batch {
        if batch_speedups.is_empty() {
            eprintln!("FAIL: --min-batch given but no batch workload was run");
            fail = true;
        } else {
            fail |= gate("batch", required, &batch_speedups);
        }
    }
    if let Some(required) = min_memo {
        if memo_speedups.is_empty() {
            eprintln!("FAIL: --min-memo given but no matrix_replay workload was run");
            fail = true;
        } else {
            fail |= gate("memo", required, &memo_speedups);
        }
    }
    if let Some(required) = min_cache {
        if cache_speedups.is_empty() {
            eprintln!("FAIL: --min-cache given but no matrix_replay workload was run");
            fail = true;
        } else {
            fail |= gate("cache-warm", required, &cache_speedups);
        }
    }
    if fail {
        std::process::exit(1);
    }
}
