//! End-to-end tests of the elastic drive: runs that lose workers, tear
//! partials or stall mid-claim must recover and produce a merged report
//! **byte-identical** to the single-process run; runs whose retries are
//! exhausted must surface typed per-cell failures — never panics or torn
//! artifacts; unusable worker counts and CLI arguments fail with
//! actionable errors.

use std::path::PathBuf;
use std::process::Command;
use std::sync::OnceLock;
use std::time::Duration;

use provmark_core::PipelineError;
use provshard::elastic::{drive_elastic, drive_elastic_in_process, ElasticOptions, InjectSpec};
use provshard::{single_report, RunConfig};

const WORKER: &str = env!("CARGO_BIN_EXE_provmark-shard");

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "provmark-elastic-test-{tag}-{}",
        std::process::id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// The single-process quick report every recovered run must reproduce
/// byte-for-byte. Computed once per test binary.
fn reference() -> &'static str {
    static REFERENCE: OnceLock<String> = OnceLock::new();
    REFERENCE.get_or_init(|| single_report(&RunConfig::quick()))
}

fn fast_opts(inject: &str) -> ElasticOptions {
    ElasticOptions {
        worker_exe: Some(PathBuf::from(WORKER)),
        stale_after: Duration::from_millis(400),
        backoff: Duration::from_millis(50),
        inject: InjectSpec::parse(inject).expect("inject spec"),
        ..ElasticOptions::default()
    }
}

/// The quick-mode preset must stay proportionate to a quick matrix
/// (milliseconds of work): a sub-second staleness threshold so killed
/// cells are re-dispatched promptly, a reduced retry backoff, and every
/// other knob at its production default. Guards the `--quick` recovery
/// overhead fix (the faulted smoke bench measured 0.83× — slower than
/// single-process — under the 5 s production threshold).
#[test]
fn quick_preset_scales_recovery_timings_down() {
    let quick = ElasticOptions::quick();
    let prod = ElasticOptions::default();
    assert_eq!(quick.stale_after, Duration::from_millis(300));
    assert_eq!(quick.backoff, Duration::from_millis(50));
    assert!(quick.stale_after < prod.stale_after);
    assert!(quick.backoff < prod.backoff);
    // The driver clamps heartbeats to stale_after / 4; the preset must
    // leave room for at least one refresh before a claim goes stale.
    assert!(quick.heartbeat_interval.min(quick.stale_after / 4) < quick.stale_after);
    assert_eq!(quick.max_retries, prod.max_retries);
    assert_eq!(quick.max_respawns, prod.max_respawns);
    assert_eq!(quick.poll_interval, prod.poll_interval);
    assert!(quick.inject.is_empty());
}

#[test]
fn memo_off_single_report_is_byte_identical() {
    assert!(reference().contains("agreement with paper Table 2"));
    // The session-level solve memo (on by default) must be invisible in
    // the report: a memo-off run renders byte-identically.
    let mut no_memo = RunConfig::quick();
    no_memo.opts.use_solve_memo = false;
    assert_eq!(
        single_report(&no_memo),
        reference(),
        "memo-on and memo-off matrix reports must be byte-identical"
    );
}

#[test]
fn unusable_worker_counts_are_rejected() {
    let rows = provmark_core::suite::table2().len();
    for workers in [0, rows + 1] {
        let dir = temp_dir(&format!("workers-{workers}"));
        let err = drive_elastic_in_process(workers, &RunConfig::quick(), &dir, &fast_opts(""))
            .expect_err("an unusable worker count must fail");
        assert!(
            matches!(err, PipelineError::InvalidShardCount { count, rows: r }
                if count == workers && r == rows),
            "{workers} workers: {err}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn clean_elastic_drive_is_byte_identical() {
    let dir = temp_dir("clean");
    let outcome = drive_elastic(3, &RunConfig::quick(), &dir, &fast_opts("")).unwrap();
    assert_eq!(
        outcome.report,
        reference(),
        "clean elastic run must be byte-identical to the single-process report"
    );
    assert!(outcome.failures.is_empty());
    assert_eq!(outcome.workers_spawned, 3);
    assert!(
        outcome.worker_exits.iter().all(|e| e.success),
        "all workers drain cleanly: {:?}",
        outcome.worker_exits
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn killed_worker_is_recovered_byte_identically() {
    let dir = temp_dir("kill");
    let outcome = drive_elastic(3, &RunConfig::quick(), &dir, &fast_opts("kill-worker=1")).unwrap();
    assert_eq!(
        outcome.report,
        reference(),
        "a run that lost worker 1 mid-cell must recover byte-identically"
    );
    assert!(outcome.failures.is_empty(), "{:?}", outcome.failures);
    assert!(
        outcome.requeues >= 1,
        "the dead worker's claim must have been re-dispatched"
    );
    let dead: Vec<_> = outcome.worker_exits.iter().filter(|e| !e.success).collect();
    assert_eq!(
        dead.len(),
        1,
        "exactly worker 1 died: {:?}",
        outcome.worker_exits
    );
    assert_eq!(dead[0].worker, 1);
    let stderr = dead[0]
        .stderr
        .as_ref()
        .expect("process workers capture stderr");
    let captured = std::fs::read_to_string(stderr).expect("stderr file exists");
    assert!(
        captured.contains("kill-worker"),
        "worker stderr names the injected crash: {captured:?}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn torn_partial_is_rejected_and_recovered_byte_identically() {
    let dir = temp_dir("torn");
    let outcome =
        drive_elastic(3, &RunConfig::quick(), &dir, &fast_opts("torn-partial=0")).unwrap();
    assert_eq!(
        outcome.report,
        reference(),
        "a torn result must be discarded and the cell re-solved byte-identically"
    );
    assert!(outcome.failures.is_empty(), "{:?}", outcome.failures);
    assert!(
        outcome.requeues >= 1,
        "the torn cell must have been re-dispatched"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn stalled_worker_publishes_under_superseded_epoch_and_is_ignored() {
    let dir = temp_dir("stall");
    let mut opts = fast_opts("stall=2");
    opts.stale_after = Duration::from_millis(250);
    let outcome = drive_elastic(3, &RunConfig::quick(), &dir, &opts).unwrap();
    assert_eq!(
        outcome.report,
        reference(),
        "a stale-epoch publish must be rejected without corrupting the report"
    );
    assert!(outcome.failures.is_empty(), "{:?}", outcome.failures);
    assert!(
        outcome.requeues >= 1,
        "the stalled claim must have been re-dispatched"
    );
    // The straggler's superseded publish really happened: some cell has
    // results at two epochs in done/ (latest epoch won the merge).
    let mut by_id: std::collections::BTreeMap<String, usize> = Default::default();
    for entry in std::fs::read_dir(dir.join("done")).unwrap() {
        let name = entry.unwrap().file_name().to_string_lossy().into_owned();
        if let Some((id, _)) = name
            .strip_suffix(".json")
            .and_then(|stem| stem.rsplit_once(".e"))
        {
            *by_id.entry(id.to_owned()).or_default() += 1;
        }
    }
    assert!(
        by_id.values().any(|count| *count >= 2),
        "expected a cell with results at two epochs, got {by_id:?}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn exhausted_retries_surface_as_typed_per_cell_failures() {
    let dir = temp_dir("exhaust");
    let mut opts = fast_opts("kill-cell=creat/0");
    opts.max_retries = 1;
    let outcome = drive_elastic(3, &RunConfig::quick(), &dir, &opts).unwrap();
    assert_eq!(outcome.failures.len(), 1, "{:?}", outcome.failures);
    let failure = &outcome.failures[0];
    assert_eq!(failure.syscall, "creat");
    assert_eq!(failure.tool, 0);
    assert_eq!(
        failure.attempts, 2,
        "max_retries=1 means two attempts before abandoning"
    );
    assert_eq!(failure.tool_name(), "SPADE");
    // The degraded report still merges, is visibly degraded, and every
    // other cell matches the reference.
    assert_ne!(outcome.report, reference());
    assert!(
        outcome
            .report
            .contains("lost: no worker completed this cell in 2 attempt(s)"),
        "lost cell rendered in the report:\n{}",
        outcome.report
    );
    // Only the creat row and the agreement tally may differ from the
    // single-process reference — every other cell solved normally.
    let divergent: Vec<(&str, &str)> = reference()
        .lines()
        .zip(outcome.report.lines())
        .filter(|(a, b)| a != b)
        .collect();
    assert!(
        !divergent.is_empty()
            && divergent
                .iter()
                .all(|(a, _)| a.contains("creat") || a.contains("agreement with paper Table 2")),
        "only the creat row and the tally may differ from the reference: {divergent:?}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn drive_cli_reports_injected_faults_and_exhaustion() {
    let dir = temp_dir("cli");
    let path = |name: &str| dir.join(name).to_string_lossy().into_owned();

    // A fault-injected drive that recovers exits 0 and reports the dead
    // worker's index, status and stderr path on stderr.
    let output = Command::new(WORKER)
        .args([
            "drive",
            "--shards",
            "3",
            "--quick",
            "--inject",
            "kill-worker=1",
            "--stale-after-ms",
            "400",
            "--backoff-ms",
            "50",
            "--work-dir",
            &path("recovered-work"),
            "--out",
            &path("recovered.txt"),
        ])
        .output()
        .expect("spawn provmark-shard");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        output.status.success(),
        "recovered drive exits 0:\n{stderr}"
    );
    assert!(
        stderr.contains("worker 1 failed") && stderr.contains("worker-1.stderr"),
        "drive reports the failed worker's index and stderr path: {stderr}"
    );
    assert_eq!(
        std::fs::read_to_string(dir.join("recovered.txt")).unwrap(),
        reference(),
        "CLI-recovered report is byte-identical"
    );

    // Exhausted retries exit non-zero with the typed per-cell failure —
    // and the degraded report is still written.
    let output = Command::new(WORKER)
        .args([
            "drive",
            "--shards",
            "3",
            "--quick",
            "--inject",
            "kill-cell=creat/0",
            "--max-retries",
            "0",
            "--stale-after-ms",
            "400",
            "--backoff-ms",
            "50",
            "--work-dir",
            &path("exhausted-work"),
            "--out",
            &path("exhausted.txt"),
        ])
        .output()
        .expect("spawn provmark-shard");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(!output.status.success(), "exhausted drive exits non-zero");
    assert!(
        stderr.contains("exhausted their retries") && stderr.contains("`creat`/SPADE"),
        "typed per-cell failure on stderr: {stderr}"
    );
    let degraded = std::fs::read_to_string(dir.join("exhausted.txt")).unwrap();
    assert!(
        degraded.contains("lost: no worker completed this cell"),
        "degraded report still written:\n{degraded}"
    );

    // A bogus --inject spec is a usage error (exit 2).
    let output = Command::new(WORKER)
        .args([
            "drive",
            "--shards",
            "3",
            "--inject",
            "frobnicate",
            "--out",
            &path("x.txt"),
        ])
        .output()
        .expect("spawn provmark-shard");
    assert_eq!(
        output.status.code(),
        Some(2),
        "bogus --inject is a usage error"
    );
    assert!(
        String::from_utf8_lossy(&output.stderr).contains("unknown --inject directive"),
        "{}",
        String::from_utf8_lossy(&output.stderr)
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn worker_cli_validates_arguments_with_actionable_errors() {
    let dir = temp_dir("cli-args");
    let fail = |args: &[&str]| -> String {
        let output = Command::new(WORKER)
            .args(args)
            .output()
            .expect("spawn provmark-shard");
        assert!(
            !output.status.success(),
            "provmark-shard {args:?} must fail"
        );
        String::from_utf8_lossy(&output.stderr).into_owned()
    };
    let work_dir = dir.join("work").to_string_lossy().into_owned();
    let out = dir.join("never.txt").to_string_lossy().into_owned();

    let err = fail(&[
        "drive",
        "--shards",
        "0",
        "--quick",
        "--work-dir",
        &work_dir,
        "--out",
        &out,
    ]);
    assert!(
        err.contains("--shards N"),
        "actionable worker-count error: {err}"
    );

    let err = fail(&["drive", "--shards", "not-a-number", "--out", &out]);
    assert!(err.contains("positive integer"), "{err}");

    let err = fail(&["frobnicate"]);
    assert!(err.contains("unknown command"), "{err}");

    std::fs::remove_dir_all(&dir).ok();
}
