//! Tracing must be observably outcome-neutral and complete: a traced
//! run (single-process, clean elastic, fault-injected, stalled)
//! produces a report byte-identical to the untraced single-process
//! reference, while the merged trace actually shows the run's anatomy —
//! per-cell claims and solve spans, the kill, the stale detection, the
//! epoch-bumped re-dispatch and the rejected superseded publish.

use std::path::PathBuf;
use std::sync::OnceLock;
use std::time::Duration;

use provshard::elastic::{drive_elastic, drive_elastic_in_process, ElasticOptions, InjectSpec};
use provshard::{single_report, RunConfig};
use provtrace::TraceMerge;

const WORKER: &str = env!("CARGO_BIN_EXE_provmark-shard");

fn temp_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("provmark-traced-test-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// The **untraced** single-process quick report every traced run must
/// reproduce byte-for-byte. Computed once per test binary.
fn reference() -> &'static str {
    static REFERENCE: OnceLock<String> = OnceLock::new();
    REFERENCE.get_or_init(|| single_report(&RunConfig::quick()))
}

/// Table 2 rows × 3 tools — the number of matrix cells every full run
/// solves, and therefore the number of solve spans a complete trace
/// must carry.
fn cells_in_matrix() -> usize {
    provmark_core::suite::table2().len() * 3
}

#[test]
fn traced_single_report_is_byte_identical_and_trace_parses() {
    let dir = temp_dir("single");
    let mut config = RunConfig::quick();
    config.opts.trace = Some(dir.clone());
    assert_eq!(
        single_report(&config),
        reference(),
        "tracing must not perturb the single-process report by a single byte"
    );
    let merged = TraceMerge::from_dir(&dir).expect("trace dir parses");
    assert_eq!(merged.workers.len(), 1, "one process, one trace file");
    assert_eq!(merged.workers[0].label, "matrix");
    let spans = merged.workers[0].spans();
    let cells: Vec<_> = spans.iter().filter(|s| s.name == "cell").collect();
    assert_eq!(
        cells.len(),
        cells_in_matrix(),
        "one cell span per matrix cell"
    );
    assert!(
        cells.iter().all(|s| s.end_ts_ns.is_some()),
        "every cell span closes"
    );
    assert!(
        spans.iter().any(|s| s.name == "solve"),
        "solver-level spans ride along"
    );
    let totals = merged.counter_totals();
    assert!(
        totals.get("memo.misses").copied().unwrap_or(0) > 0,
        "memo counters land in the trace footer: {totals:?}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn traced_kill_drive_is_byte_identical_and_trace_shows_recovery() {
    let dir = temp_dir("kill");
    let trace_dir = dir.join("trace");
    let opts = ElasticOptions {
        worker_exe: Some(PathBuf::from(WORKER)),
        stale_after: Duration::from_millis(400),
        backoff: Duration::from_millis(50),
        inject: InjectSpec::parse("kill-worker=1").expect("inject spec"),
        trace: Some(trace_dir.clone()),
        ..ElasticOptions::default()
    };
    let outcome = drive_elastic(3, &RunConfig::quick(), &dir.join("work"), &opts).unwrap();
    assert_eq!(
        outcome.report,
        reference(),
        "traced fault-injected drive must stay byte-identical to the untraced reference"
    );
    assert!(outcome.failures.is_empty(), "{:?}", outcome.failures);

    let merged = TraceMerge::from_dir(&trace_dir).expect("trace dir parses");
    let labels: Vec<&str> = merged.workers.iter().map(|w| w.label.as_str()).collect();
    assert!(
        labels.contains(&"drive"),
        "supervisor trace present: {labels:?}"
    );
    assert!(
        labels.iter().filter(|l| l.starts_with("worker-")).count() >= 3,
        "every worker (including the killed one) leaves a trace file: {labels:?}"
    );

    let counts = merged.event_counts();
    let count = |key: &str| counts.get(key).copied().unwrap_or(0);
    let cells = cells_in_matrix();
    assert_eq!(
        count("event:harvest.accept"),
        cells,
        "every cell accepted exactly once: {counts:?}"
    );
    assert!(
        count("span_enter:claim") >= cells,
        "at least one claim per cell (the re-dispatch adds more): {counts:?}"
    );
    assert!(
        count("span_enter:cell") >= cells,
        "a solve span per claimed cell: {counts:?}"
    );
    assert!(
        count("event:stale.detect") >= 1,
        "the killed worker's claim was detected stale: {counts:?}"
    );
    assert!(
        count("event:redispatch") >= 1,
        "the dead claim was re-dispatched under a bumped epoch: {counts:?}"
    );
    // The killed worker aborted mid-claim but its durably flushed
    // partial trace is still readable: a claim span it never closed.
    let unclosed_claim = merged
        .workers
        .iter()
        .filter(|w| w.label.starts_with("worker-"))
        .flat_map(|w| w.spans())
        .any(|s| s.name == "claim" && s.end_ts_ns.is_none());
    assert!(
        unclosed_claim,
        "expected a never-closed claim span from the killed worker"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn superseded_publish_is_counted_and_traced() {
    let dir = temp_dir("stall");
    let trace_dir = dir.join("trace");
    let opts = ElasticOptions {
        stale_after: Duration::from_millis(250),
        backoff: Duration::from_millis(50),
        inject: InjectSpec::parse("stall=2").expect("inject spec"),
        trace: Some(trace_dir.clone()),
        ..ElasticOptions::default()
    };
    let outcome =
        drive_elastic_in_process(3, &RunConfig::quick(), &dir.join("work"), &opts).unwrap();
    assert_eq!(
        outcome.report,
        reference(),
        "a rejected stale-epoch publish must not perturb the report"
    );
    assert!(outcome.failures.is_empty(), "{:?}", outcome.failures);
    assert!(
        outcome.stale_publishes >= 1,
        "the stalled worker's superseded publish must be counted, not silently dropped"
    );
    assert!(
        outcome.zombie_memo.misses > 0,
        "the zombie's wasted solver work is visible: {:?}",
        outcome.zombie_memo
    );
    let merged = TraceMerge::from_dir(&trace_dir).expect("trace dir parses");
    let counts = merged.event_counts();
    assert!(
        counts
            .get("event:harvest.reject_stale")
            .copied()
            .unwrap_or(0)
            >= 1,
        "the rejection is visible in the supervisor trace: {counts:?}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn clean_drive_counts_no_stale_publishes() {
    let dir = temp_dir("clean");
    // Production timings: a live worker beats every 250 ms, and a claim
    // is never older than the supervisor's first sight of it, so nothing
    // may go stale.
    let trace_dir = dir.join("trace");
    let opts = ElasticOptions {
        trace: Some(trace_dir.clone()),
        ..ElasticOptions::default()
    };
    let outcome =
        drive_elastic_in_process(3, &RunConfig::quick(), &dir.join("work"), &opts).unwrap();
    assert_eq!(outcome.report, reference());
    let merged = TraceMerge::from_dir(&trace_dir).expect("trace dir parses");
    let stale: Vec<_> = merged
        .timeline
        .iter()
        .filter(|e| matches!(e.event.name.as_str(), "stale.detect" | "redispatch"))
        .map(|e| format!("{} {} {:?}", e.worker, e.event.name, e.event.fields))
        .collect();
    assert!(
        stale.is_empty(),
        "a clean drive detects nothing stale: {stale:?}"
    );
    assert_eq!(outcome.requeues, 0, "nothing was re-dispatched");
    assert_eq!(outcome.stale_publishes, 0, "a clean drive rejects nothing");
    assert_eq!(outcome.zombie_memo.hits, 0);
    assert_eq!(outcome.zombie_memo.misses, 0);
    std::fs::remove_dir_all(&dir).ok();
}
