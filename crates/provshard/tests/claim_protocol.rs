//! Unit-level tests of the elastic claim protocol: claim races have
//! exactly one winner, publishes are atomic, torn results are
//! rejected as typed errors at every truncation length, the
//! fault-injection spec parses round-trip, and a finished cell never
//! waits out its heartbeat interval.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use provmark_core::pipeline::CellOutcome;
use provmark_core::PipelineError;
use provshard::elastic::{
    plan_cells, worker_loop, CellResult, CellTask, InjectSpec, MemoCounters, TaskStore,
    WorkerContext, WorkerEnd, CELL_RESULT_VERSION, CELL_TASK_VERSION,
};
use provshard::RunConfig;

fn temp_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("provmark-claim-test-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

fn sample_outcome() -> CellOutcome {
    CellOutcome {
        status: "ok".into(),
        matching_cost: Some(2),
        discarded_trials: Some(0),
        result_size: Some(5),
    }
}

#[test]
fn plan_covers_every_cell_once_at_epoch_one() {
    let tasks = plan_cells(&RunConfig::quick());
    let rows = provmark_core::suite::table2().len();
    assert_eq!(tasks.len(), rows * 3, "one task per (row, tool) cell");
    let mut ids: Vec<String> = tasks.iter().map(CellTask::id).collect();
    ids.sort();
    ids.dedup();
    assert_eq!(ids.len(), rows * 3, "cell ids are unique");
    assert!(tasks.iter().all(|t| t.epoch == 1));
}

#[test]
fn cell_task_and_result_roundtrip_through_json() {
    let task = CellTask {
        syscall: "creat".into(),
        tool: 1,
        epoch: 3,
        config: RunConfig::quick(),
    };
    assert_eq!(task.id(), "creat.t1");
    assert_eq!(task.file_name(), "creat.t1.e3.json");
    let back = CellTask::from_json_str(&task.to_json_string()).unwrap();
    assert_eq!(back, task);

    let result = CellResult {
        syscall: "creat".into(),
        tool: 1,
        epoch: 3,
        config: RunConfig::quick(),
        cell: sample_outcome(),
        memo: MemoCounters::default(),
    };
    let back = CellResult::from_json_str(&result.to_json_string()).unwrap();
    assert_eq!(back, result);

    // Format tags are distinct: a task never parses as a result.
    let err = CellResult::from_json_str(&task.to_json_string()).unwrap_err();
    assert!(
        matches!(&err, PipelineError::ShardArtifact { detail }
            if detail.contains("provmark-cell-result")),
        "{err}"
    );
}

#[test]
fn claim_race_has_exactly_one_winner() {
    let dir = temp_dir("race");
    let task = CellTask {
        syscall: "creat".into(),
        tool: 0,
        epoch: 1,
        config: RunConfig::quick(),
    };
    let store = TaskStore::init(&dir, std::slice::from_ref(&task)).unwrap();
    let file_name = task.file_name();
    let winners: Vec<bool> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8)
            .map(|worker| {
                let store = store.clone();
                let file_name = file_name.clone();
                scope.spawn(move || store.try_claim(&file_name, worker).unwrap().is_some())
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert_eq!(
        winners.iter().filter(|w| **w).count(),
        1,
        "an 8-way claim race must have exactly one winner: {winners:?}"
    );
    // The winner's claim left a fresh liveness signal.
    let age = store.heartbeat_age(&task.id(), 1).expect("claim is live");
    assert!(age.as_secs() < 5, "claim-time heartbeat is fresh: {age:?}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn publish_is_atomic_and_roundtrips() {
    let dir = temp_dir("publish");
    let task = CellTask {
        syscall: "open".into(),
        tool: 2,
        epoch: 1,
        config: RunConfig::quick(),
    };
    let store = TaskStore::init(&dir, std::slice::from_ref(&task)).unwrap();
    let result = CellResult {
        syscall: "open".into(),
        tool: 2,
        epoch: 1,
        config: RunConfig::quick(),
        cell: sample_outcome(),
        memo: MemoCounters::default(),
    };
    store.publish(&result).unwrap();
    assert_eq!(
        store.done_entries().unwrap(),
        vec![("open.t2".to_owned(), 1)]
    );
    assert_eq!(store.load_result("open.t2", 1).unwrap(), result);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn every_strict_prefix_of_a_result_is_a_typed_error() {
    // A torn result artifact — cut at *any* byte — must surface as a
    // typed ShardArtifact error from the loader, never a panic or a
    // silently wrong parse. Exhaustive over all strict prefix lengths.
    let dir = temp_dir("torn");
    let task = CellTask {
        syscall: "close".into(),
        tool: 0,
        epoch: 2,
        config: RunConfig::quick(),
    };
    let store = TaskStore::init(&dir, std::slice::from_ref(&task)).unwrap();
    let full = CellResult {
        syscall: "close".into(),
        tool: 0,
        epoch: 2,
        config: RunConfig::quick(),
        cell: sample_outcome(),
        memo: MemoCounters::default(),
    }
    .to_json_string();
    let path = dir.join("done").join("close.t0.e2.json");
    for cut in 0..full.len() {
        std::fs::write(&path, &full[..cut]).unwrap();
        let err = store.load_result("close.t0", 2).unwrap_err();
        assert!(
            matches!(&err, PipelineError::ShardArtifact { detail }
                if detail.contains("close.t0.e2.json")),
            "prefix of {cut} bytes must be a typed error naming the file, got: {err}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn requeue_bumps_epoch_and_older_done_files_coexist() {
    let dir = temp_dir("requeue");
    let mut task = CellTask {
        syscall: "creat".into(),
        tool: 0,
        epoch: 1,
        config: RunConfig::quick(),
    };
    let store = TaskStore::init(&dir, std::slice::from_ref(&task)).unwrap();
    let claimed = store.try_claim(&task.file_name(), 0).unwrap().unwrap();
    assert_eq!(claimed.epoch, 1);
    // Supervisor re-dispatches under epoch 2; the zombie's late epoch-1
    // publish coexists with (and never clobbers) the epoch-2 result.
    task.epoch = 2;
    store.requeue(&task).unwrap();
    let reclaimed = store.claim_next(1).unwrap().unwrap();
    assert_eq!(reclaimed.epoch, 2);
    let publish_at = |epoch: u32| {
        store
            .publish(&CellResult {
                syscall: "creat".into(),
                tool: 0,
                epoch,
                config: RunConfig::quick(),
                cell: sample_outcome(),
                memo: MemoCounters::default(),
            })
            .unwrap()
    };
    publish_at(1);
    publish_at(2);
    assert_eq!(
        store.done_entries().unwrap(),
        vec![("creat.t0".to_owned(), 1), ("creat.t0".to_owned(), 2)],
        "both epochs' results are retained; the harvest picks the current one"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn init_refuses_a_reused_run_directory() {
    let dir = temp_dir("reuse");
    let tasks = vec![CellTask {
        syscall: "creat".into(),
        tool: 0,
        epoch: 1,
        config: RunConfig::quick(),
    }];
    TaskStore::init(&dir, &tasks).unwrap();
    let err = TaskStore::init(&dir, &tasks).unwrap_err();
    assert!(
        matches!(&err, PipelineError::ShardArtifact { detail }
            if detail.contains("already contains a run") && detail.contains("--work-dir")),
        "{err}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn stop_sentinel_roundtrips() {
    let dir = temp_dir("stop");
    let store = TaskStore::init(&dir, &[]).unwrap();
    assert!(!store.stop_requested());
    store.request_stop().unwrap();
    assert!(store.stop_requested());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn inject_spec_parses_and_renders_all_directives() {
    let spec = InjectSpec::parse("kill-worker=1,torn-partial,stall=2,kill-cell=creat/0").unwrap();
    assert_eq!(spec.kill_worker, Some(1));
    assert_eq!(
        spec.torn_partial,
        Some(0),
        "torn-partial defaults to worker 0"
    );
    assert_eq!(spec.stall_worker, Some(2));
    assert_eq!(spec.kill_cell, Some(("creat".to_owned(), 0)));
    // to_arg round-trips (torn-partial renders its explicit index).
    let rendered = spec.to_arg();
    assert_eq!(InjectSpec::parse(&rendered).unwrap(), spec);

    assert!(InjectSpec::parse("").unwrap().is_empty());
    for bad in [
        "frobnicate",
        "kill-worker",
        "kill-worker=x",
        "stall",
        "kill-cell",
        "kill-cell=creat",
        "kill-cell=creat/x",
    ] {
        let err = InjectSpec::parse(bad).unwrap_err();
        assert!(!err.is_empty(), "`{bad}` must be rejected");
    }
}

#[test]
fn cell_artifact_version_skew_rejected() {
    // Both cell artifacts carry their own format version; a document
    // one version ahead (a newer build's artifact) is refused with the
    // actionable re-plan error instead of being half-parsed.
    let task = CellTask {
        syscall: "creat".into(),
        tool: 1,
        epoch: 3,
        config: RunConfig::quick(),
    };
    let skewed = task.to_json_string().replace(
        &format!("\"version\": {CELL_TASK_VERSION}"),
        &format!("\"version\": {}", CELL_TASK_VERSION + 1),
    );
    assert_ne!(skewed, task.to_json_string(), "replacement must fire");
    let err = CellTask::from_json_str(&skewed).unwrap_err();
    assert!(
        matches!(&err, PipelineError::ShardArtifact { detail }
            if detail.contains(&format!("version {}", CELL_TASK_VERSION + 1))
                && detail.contains("re-plan")),
        "{err}"
    );

    let result = CellResult {
        syscall: "creat".into(),
        tool: 1,
        epoch: 3,
        config: RunConfig::quick(),
        cell: sample_outcome(),
        memo: MemoCounters::default(),
    };
    let skewed = result.to_json_string().replace(
        &format!("\"version\": {CELL_RESULT_VERSION}"),
        &format!("\"version\": {}", CELL_RESULT_VERSION + 1),
    );
    assert_ne!(skewed, result.to_json_string(), "replacement must fire");
    let err = CellResult::from_json_str(&skewed).unwrap_err();
    assert!(
        matches!(&err, PipelineError::ShardArtifact { detail }
            if detail.contains(&format!("version {}", CELL_RESULT_VERSION + 1))),
        "{err}"
    );
}

#[test]
fn finished_cell_wakes_its_heartbeat_instead_of_sleeping_out_the_interval() {
    // The heartbeat thread used to sleep a whole interval and be joined
    // when the cell ended, so every cell cost at least one interval. With
    // a 30 s interval, one tiny cell must publish long before it.
    let dir = temp_dir("wake");
    let task = CellTask {
        syscall: "creat".into(),
        tool: 0,
        epoch: 1,
        config: RunConfig::quick(),
    };
    let store = TaskStore::init(&dir, std::slice::from_ref(&task)).unwrap();
    let interval = Duration::from_secs(30);
    let ctx = WorkerContext {
        index: 0,
        heartbeat_interval: interval,
        poll_interval: Duration::from_millis(5),
        stall: Duration::ZERO,
        inject: InjectSpec::default(),
        solve_cache: None,
        trace: None,
    };
    let started = Instant::now();
    let end = std::thread::scope(|scope| {
        let worker = scope.spawn(|| worker_loop(&store, &ctx));
        while !store.done_exists(&task.id(), 1) && started.elapsed() < interval * 2 {
            std::thread::sleep(Duration::from_millis(5));
        }
        let published = started.elapsed();
        store.request_stop().unwrap();
        let end = worker.join().unwrap().unwrap();
        assert!(
            published < interval,
            "the cell published after {published:?}, not promptly"
        );
        end
    });
    assert_eq!(end, WorkerEnd::Stopped);
    assert!(store.load_result(&task.id(), 1).is_ok());
    std::fs::remove_dir_all(&dir).ok();
}
