//! Unit-level tests of the elastic claim protocol: claim races over
//! hard-linked tasks have exactly one winner per cell and every claim
//! names its claimant, malformed task names and torn results are typed
//! errors, publishes are atomic, a dead worker's claims go stale through
//! its heartbeat while a live worker's do not, the fault-injection spec
//! parses round-trip, and neither a cell nor a worker's exit waits out
//! the heartbeat interval.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant, SystemTime};

use provmark_core::pipeline::CellOutcome;
use provmark_core::PipelineError;
use provshard::elastic::{
    plan_cells, plan_from_json_str, plan_to_json_string, worker_loop, CellResult, CellTask,
    ClaimClock, InjectSpec, MemoCounters, TaskStore, WorkerContext, WorkerEnd, CELL_RESULT_VERSION,
    CELL_TASK_VERSION,
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
    // A task is its file name plus the plan's configuration.
    let back = CellTask::from_file_name(&task.file_name(), RunConfig::quick()).unwrap();
    assert_eq!(back, task);
    let plan = plan_to_json_string(&task.config);
    assert_eq!(plan_from_json_str(&plan).unwrap(), task.config);

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

    // Format tags are distinct: a task (the plan) never parses as a
    // result.
    let err = CellResult::from_json_str(&plan).unwrap_err();
    assert!(
        matches!(&err, PipelineError::ShardArtifact { detail }
            if detail.contains("provmark-cell-result")),
        "{err}"
    );
}

#[test]
fn claim_race_has_exactly_one_winner() {
    let dir = temp_dir("race");
    let tasks = plan_cells(&RunConfig::quick());
    let store = TaskStore::init(&dir, &tasks).unwrap();
    // Every task file is a hard link to the one plan document.
    let plan = std::fs::read(dir.join("plan.json")).unwrap();
    for task in &tasks {
        assert_eq!(
            std::fs::read(dir.join("tasks").join(task.file_name())).unwrap(),
            plan
        );
    }
    // Eight workers race over the whole plan until nothing is left.
    let won: Vec<(usize, CellTask)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8)
            .map(|worker| {
                let store = store.clone();
                scope.spawn(move || {
                    let mut won = Vec::new();
                    while let Some(task) = store.claim_next(worker).unwrap() {
                        won.push((worker, task));
                    }
                    won
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect()
    });
    let mut winners: BTreeMap<String, Vec<usize>> = BTreeMap::new();
    for (worker, task) in &won {
        winners.entry(task.id()).or_default().push(*worker);
    }
    assert_eq!(winners.len(), tasks.len(), "every cell was claimed");
    assert!(
        winners.values().all(|w| w.len() == 1),
        "an 8-way claim race must have exactly one winner per cell: {winners:?}"
    );
    // Each claim is one file in claimed/, named after its claimant.
    let mut names: Vec<String> = std::fs::read_dir(dir.join("claimed"))
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    let mut expected: Vec<String> = won
        .iter()
        .map(|(worker, task)| format!("{}.w{worker}", task.file_name()))
        .collect();
    expected.sort();
    assert_eq!(names, expected);
    let claimants = store.claimants().unwrap();
    assert_eq!(claimants.len(), tasks.len());
    for (worker, task) in &won {
        assert_eq!(claimants[&(task.id(), task.epoch)], *worker);
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn malformed_or_unknown_task_names_are_typed_errors() {
    // Every strict prefix of a task name, and names for cells the plan
    // cannot hold, must be refused as a typed ShardArtifact error naming
    // the file — by the parser and by a claim — and the claim must leave
    // the file where it is.
    let good = "creat.t0.e12.json";
    assert!(CellTask::from_file_name(good, RunConfig::quick()).is_ok());
    let mut bad: Vec<String> = (1..good.len()).map(|cut| good[..cut].to_owned()).collect();
    bad.extend(
        [
            "nosuch.t0.e1.json",
            "creat.t3.e1.json",
            "creat.t0.e0.json",
            "creat.t00.e1.json",
            "creat.t0.e01.json",
            "creat.t+0.e1.json",
            "creat.t0.e-1.json",
            "creat.t0.e4294967296.json",
            "creat.t0.e1.json.w0",
            "creat.t0.e1.txt",
            "creat.e1.json",
            "creat.t0.json",
        ]
        .map(str::to_owned),
    );
    for name in &bad {
        let err = CellTask::from_file_name(name, RunConfig::quick()).unwrap_err();
        assert!(
            matches!(&err, PipelineError::ShardArtifact { detail } if detail.contains(name.as_str())),
            "`{name}`: {err}"
        );
    }
    let dir = temp_dir("names");
    let store = TaskStore::init(&dir, &plan_cells(&RunConfig::quick())[..1]).unwrap();
    assert!(store.claim_next(0).unwrap().is_some());
    for name in &bad {
        let path = dir.join("tasks").join(name);
        std::fs::write(&path, b"").unwrap();
        let err = store.claim_next(0).unwrap_err();
        assert!(
            matches!(&err, PipelineError::ShardArtifact { detail } if detail.contains(name.as_str())),
            "`{name}`: {err}"
        );
        assert!(path.exists(), "`{name}` must not be claimed");
        std::fs::remove_file(&path).unwrap();
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn killed_workers_claims_go_stale_through_its_heartbeat_but_a_live_long_claim_does_not() {
    let dir = temp_dir("liveness");
    let tasks = plan_cells(&RunConfig::quick());
    let store = TaskStore::init(&dir, &tasks[..3]).unwrap();
    let live = store.claim_next(0).unwrap().unwrap();
    let dead: Vec<CellTask> = (0..2)
        .map(|_| store.claim_next(1).unwrap().unwrap())
        .collect();
    let (mut live_beat, mut dead_beat) = (store.heartbeat(0), store.heartbeat(1));
    live_beat.beat().unwrap();
    dead_beat.beat().unwrap();
    let mut clock = ClaimClock::default();
    let seen = Instant::now();
    let ages = clock.ages(&store, seen).unwrap();
    assert!(ages.values().all(|age| age.is_zero()), "{ages:?}");

    // An hour on: worker 0 kept beating through its long claim, worker
    // 1 was killed an hour ago and its heartbeat stopped then.
    live_beat.beat().unwrap();
    std::fs::File::options()
        .write(true)
        .open(dir.join("heartbeats").join("worker-1"))
        .unwrap()
        .set_modified(SystemTime::now() - Duration::from_secs(3600))
        .unwrap();
    let hour = Duration::from_secs(3600);
    let ages = clock.ages(&store, seen + hour).unwrap();
    let stale_after = Duration::from_secs(5);
    assert!(
        ages[&(live.id(), 1)] < stale_after,
        "a live worker's long claim stays fresh: {ages:?}"
    );
    for task in &dead {
        assert!(
            ages[&(task.id(), 1)] >= hour,
            "every claim of the killed worker goes stale: {ages:?}"
        );
    }
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
fn init_refuses_tasks_that_do_not_share_one_plan() {
    // One plan file backs every task, so a task list with two run
    // configurations cannot be written faithfully and is refused.
    let dir = temp_dir("mixed");
    let mut tasks = plan_cells(&RunConfig::quick())[..2].to_vec();
    tasks[1].config.opts.base_seed += 1;
    let err = TaskStore::init(&dir, &tasks).unwrap_err();
    assert!(
        matches!(&err, PipelineError::ShardArtifact { detail }
            if detail.contains("one run configuration")),
        "{err}"
    );
    assert!(!dir.join("plan.json").exists());
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
    // actionable re-plan error instead of being half-parsed. For tasks
    // that document is the run plan every task file links to, so a
    // worker refuses a skewed run directory when it opens it.
    let plan = plan_to_json_string(&RunConfig::quick());
    let skewed = plan.replace(
        &format!("\"version\": {CELL_TASK_VERSION}"),
        &format!("\"version\": {}", CELL_TASK_VERSION + 1),
    );
    assert_ne!(skewed, plan, "replacement must fire");
    let err = plan_from_json_str(&skewed).unwrap_err();
    assert!(
        matches!(&err, PipelineError::ShardArtifact { detail }
            if detail.contains(&format!("version {}", CELL_TASK_VERSION + 1))
                && detail.contains("re-plan")),
        "{err}"
    );
    let dir = temp_dir("skew");
    TaskStore::init(&dir, &plan_cells(&RunConfig::quick())).unwrap();
    assert!(TaskStore::open(&dir).is_ok());
    std::fs::write(dir.join("plan.json"), &skewed).unwrap();
    let err = TaskStore::open(&dir).unwrap_err();
    assert!(
        matches!(&err, PipelineError::ShardArtifact { detail }
            if detail.contains("plan.json")
                && detail.contains(&format!("version {}", CELL_TASK_VERSION + 1))),
        "{err}"
    );
    std::fs::remove_dir_all(&dir).ok();

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
    // A heartbeat that sleeps out its interval before a cell (or the
    // worker) may finish costs at least one interval. With a 30 s
    // interval, one tiny cell must publish, and the worker exit on the
    // stop sentinel, long before it.
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
        let exited = started.elapsed();
        assert!(
            published < interval,
            "the cell published after {published:?}, not promptly"
        );
        assert!(
            exited < interval,
            "the worker exited after {exited:?}, not promptly"
        );
        end
    });
    assert_eq!(end, WorkerEnd::Stopped);
    assert!(store.load_result(&task.id(), 1).is_ok());
    std::fs::remove_dir_all(&dir).ok();
}
