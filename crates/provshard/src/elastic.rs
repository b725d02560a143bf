//! Crash-tolerant elastic execution of the Table 2 matrix.
//!
//! A shared run directory is the whole coordination substrate — no
//! sockets, no shared memory, no coordinator state that a crash can
//! corrupt. The plan step writes one claimable **cell task file per
//! matrix cell** (so a long-tail row never serializes behind one
//! worker); workers claim tasks by atomic `rename` into `claimed/`,
//! refresh a heartbeat file while solving, and publish results with
//! write-temp-then-`rename` so a torn artifact can never be observed at
//! the final path. A supervisor loop watches heartbeats, re-dispatches
//! cells whose worker died or stalled under a **bumped claim epoch**
//! with bounded retries and backoff, and records cells that exhaust
//! their budget as typed [`CellFailure`]s instead of poisoning the run.
//!
//! ## The claim protocol
//!
//! ```text
//! tasks/creat.t0.e1.json      --rename-->  claimed/creat.t0.e1.json
//!                                          heartbeats/creat.t0.e1.json  (refreshed)
//!                                          done/creat.t0.e1.json        (atomic publish)
//! ```
//!
//! * **Claim** is `rename(tasks/F, claimed/F)` — atomic on POSIX, so a
//!   claim race between any number of workers has exactly one winner;
//!   the losers see `NotFound` and move on.
//! * **Heartbeat** files carry pid + worker index; only their *mtime*
//!   matters to the supervisor. The claim writes the first one and a
//!   thread refreshes it until the cell ends. A claim whose heartbeat —
//!   or, before the first beat lands, whose first sighting by the
//!   supervisor — is older than `stale_after` is declared dead.
//! * **Epoch** starts at 1 and is part of every file name. When the
//!   supervisor re-dispatches a cell it writes a fresh task file at
//!   epoch *e+1*; a zombie worker finishing the old claim publishes to
//!   the epoch-*e* done path, which the supervisor ignores (latest
//!   epoch wins, nothing is ever clobbered).
//! * **Publish** is write-to-temp-then-`rename`
//!   ([`provtrace::write_bytes_durable`]), so the done directory only
//!   ever holds complete documents — unless a fault-injection
//!   deliberately tears one, which the harvest then treats as a failed
//!   attempt. Results are also fsynced; task,
//!   heartbeat and stop-sentinel files are atomic but not fsynced,
//!   since nothing reads them once the run is over.
//!
//! Because each cell reuses the exact single-process measurement path
//! ([`run_matrix_cell_traced`]), the merged report is
//! **byte-identical** to the single-process run whenever every cell
//! eventually completes — even if workers were lost and cells
//! re-dispatched mid-flight.
//!
//! ## The shared solve cache
//!
//! With [`ElasticOptions::solve_cache`] set to a directory, workers
//! warm their solve memos from `DIR/solve.cache` once and publish the
//! entries they solved to private `DIR/delta.worker-*` files after
//! every cell (cumulative, durably written — one writer per file, so
//! no contention and nothing to lock). After the run the driver merges
//! the base cache with every delta and atomically republishes
//! `DIR/solve.cache`, so the next drive — or a bare `single` run, or a
//! worker on another host sharing the directory — starts warm. The
//! cache only short-circuits pure dense searches keyed by content
//! hashes, so reports are byte-identical warm or cold; corrupt cache
//! or delta files are skipped with a note, never fatal.
//!
//! ## Fault injection
//!
//! [`InjectSpec`] drives deterministic failures for tests and CI:
//! `kill-worker=N` (worker N aborts right after its first claim),
//! `torn-partial[=N]` (worker N tears its first publish and crashes),
//! `stall=N` (worker N stops heartbeating, oversleeps its claim and
//! publishes under a superseded epoch), `kill-cell=SYSCALL/TOOL` (any
//! worker claiming that cell crashes — drives retry exhaustion).

use std::collections::{BTreeMap, BTreeSet};
use std::io::ErrorKind;
use std::path::{Path, PathBuf};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::{Duration, Instant};

use provmark_core::pipeline::{
    merge_matrix_cells, run_matrix_cell_traced, CellFailure, CellOutcome,
};
use provmark_core::report::render_matrix_report;
use provmark_core::{PipelineError, WorkerFailure};
use serde_json::{Map, Value};

use crate::{
    artifact, cell_from_json, cell_to_json, check_header, extract_config, insert_config, RunConfig,
};

/// Version of the cell-task JSON layout.
pub const CELL_TASK_VERSION: u32 = 1;

/// Version of the cell-result JSON layout. Version 2 added the
/// `memo` counter block (solve-memo hits/misses per cell).
pub const CELL_RESULT_VERSION: u32 = 2;

/// File name of the shared solve cache inside a `--solve-cache`
/// directory. Workers warm from it; the supervisor republishes it
/// after merging the per-worker delta files (`delta.*`).
pub const SOLVE_CACHE_FILE: &str = "solve.cache";

/// Solve-memo traffic counters, as published per cell and as
/// aggregated over a whole elastic run.
///
/// `hits` counts every memoized answer served (of which `disk_hits`
/// came from entries loaded out of a persistent cache file rather
/// than solved in this process); `misses` counts dense searches
/// actually run; `evictions` counts entries dropped by the memo's
/// capacity cap.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoCounters {
    /// Memoized answers served.
    pub hits: u64,
    /// Subset of `hits` answered by entries loaded from a cache file.
    pub disk_hits: u64,
    /// Dense searches that had to run.
    pub misses: u64,
    /// Entries dropped by the capacity cap.
    pub evictions: u64,
}

impl MemoCounters {
    /// Snapshot a memo's counters.
    pub fn of(memo: &aspsolver::SolveMemo) -> MemoCounters {
        MemoCounters {
            hits: memo.hits(),
            disk_hits: memo.disk_hits(),
            misses: memo.misses(),
            evictions: memo.evictions(),
        }
    }

    /// Counter-wise difference since an earlier snapshot of the same
    /// (monotone) memo.
    pub fn since(&self, earlier: &MemoCounters) -> MemoCounters {
        MemoCounters {
            hits: self.hits - earlier.hits,
            disk_hits: self.disk_hits - earlier.disk_hits,
            misses: self.misses - earlier.misses,
            evictions: self.evictions - earlier.evictions,
        }
    }

    /// Counter-wise accumulate.
    pub fn merge(&mut self, other: &MemoCounters) {
        self.hits += other.hits;
        self.disk_hits += other.disk_hits;
        self.misses += other.misses;
        self.evictions += other.evictions;
    }

    fn to_json(self) -> Value {
        let mut doc = Map::new();
        doc.insert("hits".into(), crate::exact_num(self.hits));
        doc.insert("disk_hits".into(), crate::exact_num(self.disk_hits));
        doc.insert("misses".into(), crate::exact_num(self.misses));
        doc.insert("evictions".into(), crate::exact_num(self.evictions));
        Value::Object(doc)
    }

    fn from_json(v: &Value) -> Result<MemoCounters, PipelineError> {
        if v.as_object().is_none() {
            return Err(artifact("cell result is missing its `memo` counters"));
        }
        Ok(MemoCounters {
            hits: crate::get_usize(v, "hits")? as u64,
            disk_hits: crate::get_usize(v, "disk_hits")? as u64,
            misses: crate::get_usize(v, "misses")? as u64,
            evictions: crate::get_usize(v, "evictions")? as u64,
        })
    }
}

/// One claimable unit of work: a single `(syscall, tool)` matrix cell
/// at a claim epoch, carrying the complete run configuration so the
/// task file alone fully determines the work.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellTask {
    /// Table 2 row (benchmark syscall name).
    pub syscall: String,
    /// Tool column index (0 = SPADE, 1 = OPUS, 2 = CamFlow).
    pub tool: usize,
    /// Claim epoch, starting at 1; bumped on every re-dispatch.
    pub epoch: u32,
    /// The run configuration shared by every cell of the plan.
    pub config: RunConfig,
}

impl CellTask {
    /// Stable cell identity (`"{syscall}.t{tool}"`), shared by every
    /// epoch of the cell.
    pub fn id(&self) -> String {
        format!("{}.t{}", self.syscall, self.tool)
    }

    /// File name of this task/claim/heartbeat/result at this epoch.
    pub fn file_name(&self) -> String {
        format!("{}.e{}.json", self.id(), self.epoch)
    }

    /// Render as the versioned cell-task JSON document.
    pub fn to_json_string(&self) -> String {
        let mut doc = Map::new();
        doc.insert("format".into(), Value::String("provmark-cell-task".into()));
        doc.insert("version".into(), crate::exact_num(CELL_TASK_VERSION.into()));
        doc.insert(
            "snapshot_format_version".into(),
            crate::exact_num(provgraph::snapshot::SNAPSHOT_VERSION.into()),
        );
        doc.insert("syscall".into(), Value::String(self.syscall.clone()));
        doc.insert("tool".into(), crate::exact_num(self.tool as u64));
        doc.insert("epoch".into(), crate::exact_num(self.epoch.into()));
        insert_config(&mut doc, &self.config);
        // provlint: allow(panic-in-lib) -- serialization only fails on non-finite floats; every number here passed exact_num
        serde_json::to_string_pretty(&Value::Object(doc)).expect("cell task serializes")
    }

    /// Parse and validate a cell-task document.
    ///
    /// # Errors
    ///
    /// [`PipelineError::ShardArtifact`] on malformed JSON, a wrong
    /// format tag, an unsupported task version or missing fields;
    /// [`PipelineError::Snapshot`] when the task was written against a
    /// different session-snapshot format version (runner skew).
    pub fn from_json_str(text: &str) -> Result<CellTask, PipelineError> {
        let doc: Value = serde_json::from_str(text)
            .map_err(|e| artifact(format!("cell task is not valid JSON: {e}")))?;
        check_header(&doc, "provmark-cell-task", CELL_TASK_VERSION)?;
        Ok(CellTask {
            syscall: doc["syscall"]
                .as_str()
                .ok_or_else(|| artifact("cell task is missing `syscall`"))?
                .to_owned(),
            tool: crate::get_usize(&doc, "tool")?,
            epoch: u32::try_from(crate::get_usize(&doc, "epoch")?)
                .map_err(|_| artifact("epoch outside u32 range"))?,
            config: extract_config(&doc)?,
        })
    }
}

/// The published outcome of one cell claim: the task identity plus the
/// measured [`CellOutcome`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellResult {
    /// Table 2 row the cell belongs to.
    pub syscall: String,
    /// Tool column index.
    pub tool: usize,
    /// Claim epoch this result was measured under.
    pub epoch: u32,
    /// The run configuration the cell was measured under — the
    /// supervisor refuses results measured under a different
    /// configuration than planned.
    pub config: RunConfig,
    /// The measured outcome.
    pub cell: CellOutcome,
    /// Solve-memo traffic while measuring this cell (zeros when the
    /// memo is disabled). The supervisor aggregates these into the
    /// drive's end-of-run summary.
    pub memo: MemoCounters,
}

impl CellResult {
    /// Render as the versioned cell-result JSON document.
    pub fn to_json_string(&self) -> String {
        let mut doc = Map::new();
        doc.insert(
            "format".into(),
            Value::String("provmark-cell-result".into()),
        );
        doc.insert(
            "version".into(),
            crate::exact_num(CELL_RESULT_VERSION.into()),
        );
        doc.insert(
            "snapshot_format_version".into(),
            crate::exact_num(provgraph::snapshot::SNAPSHOT_VERSION.into()),
        );
        doc.insert("syscall".into(), Value::String(self.syscall.clone()));
        doc.insert("tool".into(), crate::exact_num(self.tool as u64));
        doc.insert("epoch".into(), crate::exact_num(self.epoch.into()));
        insert_config(&mut doc, &self.config);
        doc.insert("cell".into(), cell_to_json(&self.cell));
        doc.insert("memo".into(), self.memo.to_json());
        // provlint: allow(panic-in-lib) -- serialization only fails on non-finite floats; every number here passed exact_num
        serde_json::to_string_pretty(&Value::Object(doc)).expect("cell result serializes")
    }

    /// Parse and validate a cell-result document.
    ///
    /// # Errors
    ///
    /// [`PipelineError::ShardArtifact`] / [`PipelineError::Snapshot`] on
    /// the same header conditions as [`CellTask::from_json_str`].
    pub fn from_json_str(text: &str) -> Result<CellResult, PipelineError> {
        let doc: Value = serde_json::from_str(text)
            .map_err(|e| artifact(format!("cell result is not valid JSON: {e}")))?;
        check_header(&doc, "provmark-cell-result", CELL_RESULT_VERSION)?;
        Ok(CellResult {
            syscall: doc["syscall"]
                .as_str()
                .ok_or_else(|| artifact("cell result is missing `syscall`"))?
                .to_owned(),
            tool: crate::get_usize(&doc, "tool")?,
            epoch: u32::try_from(crate::get_usize(&doc, "epoch")?)
                .map_err(|_| artifact("epoch outside u32 range"))?,
            config: extract_config(&doc)?,
            cell: cell_from_json(&doc["cell"])?,
            memo: MemoCounters::from_json(&doc["memo"])?,
        })
    }
}

/// Plan the full matrix as one [`CellTask`] per `(row, tool)` cell at
/// epoch 1, in canonical order.
pub fn plan_cells(config: &RunConfig) -> Vec<CellTask> {
    let tools = provmark_core::tool::ToolKind::all().len();
    provmark_core::suite::table2()
        .iter()
        .flat_map(|exp| {
            (0..tools).map(move |tool| CellTask {
                syscall: exp.syscall.to_owned(),
                tool,
                epoch: 1,
                config: config.clone(),
            })
        })
        .collect()
}

/// The shared run directory: four subdirectories implementing the
/// claim protocol (`tasks/`, `claimed/`, `heartbeats/`, `done/`) plus
/// a `stop` sentinel file.
///
/// Cloneable and freely shareable — it holds only the root path; all
/// state lives on the filesystem.
#[derive(Debug, Clone)]
pub struct TaskStore {
    root: PathBuf,
}

impl TaskStore {
    fn tasks(&self) -> PathBuf {
        self.root.join("tasks")
    }
    fn claimed(&self) -> PathBuf {
        self.root.join("claimed")
    }
    fn heartbeats(&self) -> PathBuf {
        self.root.join("heartbeats")
    }
    fn done(&self) -> PathBuf {
        self.root.join("done")
    }
    fn stop_file(&self) -> PathBuf {
        self.root.join("stop")
    }

    /// Initialize a fresh run directory and seed it with `tasks`.
    ///
    /// # Errors
    ///
    /// [`PipelineError::ShardArtifact`] when the directory already
    /// holds a run (stale tasks or results would silently mix into the
    /// new run); [`PipelineError::Store`] on I/O failure.
    pub fn init(root: &Path, tasks: &[CellTask]) -> Result<TaskStore, PipelineError> {
        let store = TaskStore {
            root: root.to_owned(),
        };
        for dir in [
            store.tasks(),
            store.claimed(),
            store.heartbeats(),
            store.done(),
        ] {
            std::fs::create_dir_all(&dir)?;
        }
        for dir in [store.tasks(), store.done()] {
            if std::fs::read_dir(&dir)?.next().is_some() {
                return Err(artifact(format!(
                    "work dir `{}` already contains a run ({} is not empty); \
                     pass a fresh --work-dir",
                    root.display(),
                    dir.display()
                )));
            }
        }
        std::fs::remove_file(store.stop_file()).ok();
        for task in tasks {
            store.write_task(task)?;
        }
        Ok(store)
    }

    /// Write a claimable task file. Atomic, so a worker never claims a
    /// torn task, but not fsynced: a task is only read by this run's
    /// workers, and a crash of the machine ends the run with them.
    fn write_task(&self, task: &CellTask) -> Result<(), PipelineError> {
        let path = self.tasks().join(task.file_name());
        provtrace::write_bytes_atomic(&path, task.to_json_string().as_bytes())?;
        Ok(())
    }

    /// Open an existing run directory (the worker side of
    /// [`TaskStore::init`]).
    ///
    /// # Errors
    ///
    /// [`PipelineError::ShardArtifact`] when the directory does not
    /// hold an elastic run.
    pub fn open(root: &Path) -> Result<TaskStore, PipelineError> {
        let store = TaskStore {
            root: root.to_owned(),
        };
        if !store.tasks().is_dir() || !store.done().is_dir() {
            return Err(artifact(format!(
                "`{}` is not an elastic run directory (no tasks/done subdirectories)",
                root.display()
            )));
        }
        Ok(store)
    }

    /// Try to claim the task file `file_name` by atomically renaming it
    /// into `claimed/`. Exactly one concurrent claimant wins; everyone
    /// else observes `Ok(None)`. On success the first heartbeat is
    /// written.
    ///
    /// # Errors
    ///
    /// [`PipelineError::Store`] on I/O failure,
    /// [`PipelineError::ShardArtifact`] on a malformed task file.
    pub fn try_claim(
        &self,
        file_name: &str,
        worker: usize,
    ) -> Result<Option<CellTask>, PipelineError> {
        let claimed = self.claimed().join(file_name);
        match std::fs::rename(self.tasks().join(file_name), &claimed) {
            Ok(()) => {}
            Err(e) if e.kind() == ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e.into()),
        }
        let task = CellTask::from_json_str(&std::fs::read_to_string(&claimed)?)?;
        self.write_heartbeat(&task, worker)?;
        Ok(Some(task))
    }

    /// Claim the first available task (by sorted file name, for
    /// deterministic claim order under no contention).
    ///
    /// # Errors
    ///
    /// As [`TaskStore::try_claim`].
    pub fn claim_next(&self, worker: usize) -> Result<Option<CellTask>, PipelineError> {
        let mut names: Vec<String> = Vec::new();
        for entry in std::fs::read_dir(self.tasks())? {
            let name = entry?.file_name().to_string_lossy().into_owned();
            if !name.starts_with('.') {
                names.push(name);
            }
        }
        names.sort();
        for name in names {
            if let Some(task) = self.try_claim(&name, worker)? {
                return Ok(Some(task));
            }
        }
        Ok(None)
    }

    /// Refresh the heartbeat for a claim. The supervisor only reads the
    /// file's mtime; the body (pid + worker index) is for operators. Not
    /// fsynced: a beat lost to a crash only makes the claim look older.
    ///
    /// # Errors
    ///
    /// [`PipelineError::Store`] on I/O failure.
    pub fn write_heartbeat(&self, task: &CellTask, worker: usize) -> Result<(), PipelineError> {
        let mut doc = Map::new();
        doc.insert("format".into(), Value::String("provmark-heartbeat".into()));
        doc.insert("pid".into(), crate::exact_num(std::process::id().into()));
        doc.insert("worker".into(), crate::exact_num(worker as u64));
        doc.insert("epoch".into(), crate::exact_num(task.epoch.into()));
        // provlint: allow(panic-in-lib) -- serialization only fails on non-finite floats; every number here passed exact_num
        let text = serde_json::to_string_pretty(&Value::Object(doc)).expect("heartbeat serializes");
        provtrace::write_bytes_atomic(&self.heartbeats().join(task.file_name()), text.as_bytes())?;
        Ok(())
    }

    /// Age of a claim's heartbeat file; `None` while it has none. The
    /// claimed file's mtime is no liveness signal: `rename` keeps the
    /// stamp of the plan or re-dispatch that wrote the task. An mtime
    /// ahead of the system clock counts as a fresh beat.
    pub fn heartbeat_age(&self, id: &str, epoch: u32) -> Option<Duration> {
        let path = self.heartbeats().join(format!("{id}.e{epoch}.json"));
        let mtime = std::fs::metadata(path).and_then(|m| m.modified()).ok()?;
        Some(mtime.elapsed().unwrap_or(Duration::ZERO))
    }

    /// Atomically publish a cell result to `done/` — the only way an
    /// uninjected worker writes a result, so readers never observe a
    /// torn document at the final path.
    ///
    /// # Errors
    ///
    /// [`PipelineError::Store`] on I/O failure.
    pub fn publish(&self, result: &CellResult) -> Result<(), PipelineError> {
        let name = format!("{}.t{}.e{}.json", result.syscall, result.tool, result.epoch);
        provtrace::write_bytes_durable(
            &self.done().join(name),
            result.to_json_string().as_bytes(),
        )?;
        Ok(())
    }

    /// **Fault injection only**: write a torn (truncated, non-atomic)
    /// result directly to the final done path, simulating a worker
    /// killed mid-`write` on a filesystem without atomic rename.
    ///
    /// # Errors
    ///
    /// [`PipelineError::Store`] on I/O failure.
    pub fn publish_torn(&self, result: &CellResult) -> Result<(), PipelineError> {
        let name = format!("{}.t{}.e{}.json", result.syscall, result.tool, result.epoch);
        let full = result.to_json_string();
        // provlint: allow(raw-write) -- deliberately torn: this fault injector simulates a worker killed mid-write
        std::fs::write(self.done().join(name), &full[..full.len() / 2])?;
        Ok(())
    }

    /// List `(cell id, epoch)` of every published result, skipping
    /// temp/hidden files.
    ///
    /// # Errors
    ///
    /// [`PipelineError::Store`] on I/O failure.
    pub fn done_entries(&self) -> Result<Vec<(String, u32)>, PipelineError> {
        let mut entries = Vec::new();
        for entry in std::fs::read_dir(self.done())? {
            let name = entry?.file_name().to_string_lossy().into_owned();
            if name.starts_with('.') {
                continue;
            }
            if let Some((id, epoch)) = parse_epoch_name(&name) {
                entries.push((id, epoch));
            }
        }
        entries.sort();
        Ok(entries)
    }

    /// Load one published result.
    ///
    /// # Errors
    ///
    /// [`PipelineError::Store`] when unreadable,
    /// [`PipelineError::ShardArtifact`] when torn or malformed.
    pub fn load_result(&self, id: &str, epoch: u32) -> Result<CellResult, PipelineError> {
        let path = self.done().join(format!("{id}.e{epoch}.json"));
        let text = std::fs::read_to_string(&path)?;
        CellResult::from_json_str(&text).map_err(|e| match e {
            PipelineError::ShardArtifact { detail } => {
                artifact(format!("result `{}`: {detail}", path.display()))
            }
            other => other,
        })
    }

    /// `true` while the task file for this claim is still unclaimed.
    pub fn task_pending(&self, task: &CellTask) -> bool {
        self.tasks().join(task.file_name()).exists()
    }

    /// `true` once a result for this claim epoch has been published.
    pub fn done_exists(&self, id: &str, epoch: u32) -> bool {
        self.done().join(format!("{id}.e{epoch}.json")).exists()
    }

    /// Re-dispatch a cell: write its task file (already carrying the
    /// bumped epoch) back into `tasks/` for any worker to claim.
    ///
    /// # Errors
    ///
    /// [`PipelineError::Store`] on I/O failure.
    pub fn requeue(&self, task: &CellTask) -> Result<(), PipelineError> {
        self.write_task(task)
    }

    /// Raise the stop sentinel: workers exit cleanly at their next poll.
    /// Not fsynced: only this run's workers read it, and a crash of the
    /// machine ends the run with them.
    ///
    /// # Errors
    ///
    /// [`PipelineError::Store`] on I/O failure.
    pub fn request_stop(&self) -> Result<(), PipelineError> {
        provtrace::write_bytes_atomic(&self.stop_file(), b"stop\n")?;
        Ok(())
    }

    /// `true` once the supervisor has requested shutdown.
    pub fn stop_requested(&self) -> bool {
        self.stop_file().exists()
    }
}

/// Parse `"{id}.e{epoch}.json"` into `(id, epoch)`.
fn parse_epoch_name(name: &str) -> Option<(String, u32)> {
    let stem = name.strip_suffix(".json")?;
    let (id, epoch) = stem.rsplit_once(".e")?;
    Some((id.to_owned(), epoch.parse().ok()?))
}

/// Deterministic fault-injection directives for tests and CI
/// (`--inject kill-worker=1,torn-partial,stall=2,kill-cell=creat/0`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct InjectSpec {
    /// Worker index that aborts right after its first claim (dead
    /// worker with a fresh heartbeat — the supervisor must detect the
    /// claim going stale).
    pub kill_worker: Option<usize>,
    /// Worker index that writes a torn result to the final done path on
    /// its first publish and then crashes.
    pub torn_partial: Option<usize>,
    /// Worker index that stops heartbeating on its first claim,
    /// oversleeps past staleness and publishes under the superseded
    /// epoch (exercises stale-epoch rejection).
    pub stall_worker: Option<usize>,
    /// `(syscall, tool)` cell whose every claimant crashes — drives
    /// retry exhaustion.
    pub kill_cell: Option<(String, usize)>,
}

impl InjectSpec {
    /// Parse a comma-separated directive list.
    ///
    /// # Errors
    ///
    /// A usage message naming the bad directive.
    pub fn parse(spec: &str) -> Result<InjectSpec, String> {
        let mut inject = InjectSpec::default();
        for directive in spec.split(',').filter(|d| !d.is_empty()) {
            let (key, value) = match directive.split_once('=') {
                Some((k, v)) => (k, Some(v)),
                None => (directive, None),
            };
            let index = |value: Option<&str>, default: Option<usize>| -> Result<usize, String> {
                match value {
                    Some(v) => v
                        .parse()
                        .map_err(|_| format!("`{directive}`: worker index must be an integer")),
                    None => {
                        default.ok_or_else(|| format!("`{directive}` needs =N (a worker index)"))
                    }
                }
            };
            match key {
                "kill-worker" => inject.kill_worker = Some(index(value, None)?),
                "torn-partial" => inject.torn_partial = Some(index(value, Some(0))?),
                "stall" => inject.stall_worker = Some(index(value, None)?),
                "kill-cell" => {
                    let value =
                        value.ok_or_else(|| "`kill-cell` needs =SYSCALL/TOOL".to_owned())?;
                    let (syscall, tool) = value
                        .split_once('/')
                        .ok_or_else(|| format!("`{directive}`: expected SYSCALL/TOOL"))?;
                    let tool = tool
                        .parse()
                        .map_err(|_| format!("`{directive}`: tool must be an integer"))?;
                    inject.kill_cell = Some((syscall.to_owned(), tool));
                }
                other => {
                    return Err(format!(
                        "unknown --inject directive `{other}` (expected kill-worker=N, \
                         torn-partial[=N], stall=N or kill-cell=SYSCALL/TOOL)"
                    ))
                }
            }
        }
        Ok(inject)
    }

    /// Render back into the `--inject` argument form (for forwarding to
    /// worker processes).
    pub fn to_arg(&self) -> String {
        let mut parts = Vec::new();
        if let Some(n) = self.kill_worker {
            parts.push(format!("kill-worker={n}"));
        }
        if let Some(n) = self.torn_partial {
            parts.push(format!("torn-partial={n}"));
        }
        if let Some(n) = self.stall_worker {
            parts.push(format!("stall={n}"));
        }
        if let Some((syscall, tool)) = &self.kill_cell {
            parts.push(format!("kill-cell={syscall}/{tool}"));
        }
        parts.join(",")
    }

    /// `true` when no directive is set.
    pub fn is_empty(&self) -> bool {
        *self == InjectSpec::default()
    }
}

/// Tuning knobs of the elastic driver.
#[derive(Debug, Clone)]
pub struct ElasticOptions {
    /// Worker executable override (`None` = the current executable).
    /// Tests point this at the `provmark-shard` binary.
    pub worker_exe: Option<PathBuf>,
    /// A claim whose heartbeat is older than this is declared dead and
    /// re-dispatched.
    pub stale_after: Duration,
    /// How often workers refresh their heartbeat while solving (clamped
    /// to at most `stale_after / 4`).
    pub heartbeat_interval: Duration,
    /// Worker / supervisor poll interval.
    pub poll_interval: Duration,
    /// How many times a cell is re-dispatched after its first attempt
    /// before it is recorded as a typed per-cell failure.
    pub max_retries: u32,
    /// Delay before a failed cell's re-dispatch becomes claimable.
    pub backoff: Duration,
    /// How many replacement workers the supervisor may spawn when the
    /// whole pool has died with cells still open.
    pub max_respawns: usize,
    /// Deterministic fault injection (tests / CI only).
    pub inject: InjectSpec,
    /// Shared solve-cache **directory**. When set, every worker warms
    /// its memo once from `DIR/solve.cache` and publishes its freshly
    /// solved entries to a private `DIR/delta.worker-*` file after each
    /// cell (no write contention — one writer per file); after the run
    /// the driver merges base + deltas and republishes
    /// `DIR/solve.cache`, so the next drive (or any other process)
    /// starts warm. Reports are byte-identical with or without it.
    pub solve_cache: Option<PathBuf>,
    /// Trace **directory** for structured run telemetry (`provtrace`).
    /// When set, the supervisor writes `trace.drive.<pid>.jsonl` (plan /
    /// execute / merge phases, worker spawns and exits, stale
    /// detections, re-dispatches, harvest accept/reject events) and
    /// every worker writes `trace.worker-<index>.<pid>.jsonl` (claims,
    /// heartbeats, per-cell solve spans, publishes), flushed durably
    /// after every publish so a killed worker still leaves a readable
    /// partial trace. Fold them with `provtrace::TraceMerge` or the
    /// `provmark-trace` binary. Tracing is observably outcome-neutral:
    /// reports are byte-identical with it on or off, and when unset
    /// every instrumentation site is a no-op branch.
    pub trace: Option<PathBuf>,
}

impl Default for ElasticOptions {
    fn default() -> Self {
        ElasticOptions {
            worker_exe: None,
            stale_after: Duration::from_secs(5),
            heartbeat_interval: Duration::from_millis(250),
            poll_interval: Duration::from_millis(25),
            max_retries: 2,
            backoff: Duration::from_millis(100),
            max_respawns: 8,
            inject: InjectSpec::default(),
            solve_cache: None,
            trace: None,
        }
    }
}

impl ElasticOptions {
    /// Timings tuned for quick / smoke runs, where a matrix completes in
    /// well under a second and the production 5 s staleness threshold
    /// dominates wall-clock whenever a worker dies: any killed cell sits
    /// unclaimable for seconds on a run that otherwise takes
    /// milliseconds (the `sharded_faulted_quick` bench row measured
    /// 0.83× — *slower* than single-process — under the defaults).
    /// A 300 ms staleness threshold plus a 50 ms retry backoff keeps
    /// recovery proportionate; the heartbeat interval is left at its
    /// default and clamped to `stale_after / 4` = 75 ms by the driver.
    /// A claim ages from its last heartbeat or from the supervisor's first
    /// sight of it, whichever is younger, so a live worker looks stale
    /// only if it misses every beat for `stale_after`; even then the
    /// superseded publish is rejected and the report is unchanged.
    pub fn quick() -> Self {
        ElasticOptions {
            stale_after: Duration::from_millis(300),
            backoff: Duration::from_millis(50),
            ..ElasticOptions::default()
        }
    }
}

/// Everything a worker needs besides the store.
#[derive(Debug, Clone)]
pub struct WorkerContext {
    /// This worker's index (respawned workers get fresh indices past
    /// the initial pool size, so index-keyed injections fire at most
    /// once).
    pub index: usize,
    /// Heartbeat refresh interval while solving.
    pub heartbeat_interval: Duration,
    /// Sleep between idle polls of the task directory.
    pub poll_interval: Duration,
    /// How long a stall-injected worker oversleeps its first claim.
    pub stall: Duration,
    /// Fault injection directives.
    pub inject: InjectSpec,
    /// Shared solve-cache directory (see
    /// [`ElasticOptions::solve_cache`]); the worker reads
    /// `solve.cache` and writes only its own `delta.worker-*` file.
    pub solve_cache: Option<PathBuf>,
    /// Trace directory (see [`ElasticOptions::trace`]); the worker
    /// writes only its own `trace.worker-<index>.<pid>.jsonl` file.
    pub trace: Option<PathBuf>,
}

/// How a worker loop ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkerEnd {
    /// The stop sentinel was raised; the worker drained cleanly.
    Stopped,
    /// A fault injection asked this worker to crash; the process
    /// wrapper aborts, the in-process pool records the reason.
    Crashed(&'static str),
}

/// The claim-solve-publish loop run by every worker.
///
/// Claims tasks until the stop sentinel appears, refreshing a heartbeat
/// in a background thread while each cell solves, and publishing every
/// result atomically. Fault injections deterministically divert the
/// loop (see [`InjectSpec`]).
///
/// # Errors
///
/// [`PipelineError`] on I/O failures or malformed task files — the
/// worker dies, its claim goes stale, and the supervisor re-dispatches.
pub fn worker_loop(store: &TaskStore, ctx: &WorkerContext) -> Result<WorkerEnd, PipelineError> {
    let tracer = make_tracer(&ctx.trace, &format!("worker-{}", ctx.index));
    tracer.event("worker.start", None, || {
        vec![
            ("worker", provtrace::Field::from(ctx.index)),
            ("pid", provtrace::Field::from(std::process::id())),
        ]
    });
    // One memo for the worker's whole lifetime: entries earned on one
    // cell answer replays on every later cell (content-hash keys are
    // session- and process-independent). Warmed lazily from the shared
    // cache file on the first memo-enabled claim; a missing file is a
    // cold start, a corrupt one is reported and ignored. The tracer
    // rides on the memo so solver-level spans and memo counters land in
    // this worker's trace file.
    let memo = aspsolver::SolveMemo::new().with_tracer(tracer.clone());
    let mut warmed = false;
    let delta_path = ctx.solve_cache.as_ref().map(|dir| {
        dir.join(format!(
            "delta.worker-{}.{}.cache",
            ctx.index,
            std::process::id()
        ))
    });
    let mut first_claim = true;
    // A crash injection exits mid-claim: record the worker's last words
    // and flush so the partial trace (claim span never closed) is on
    // disk before the process wrapper aborts.
    let crash = |reason: &'static str, parent: Option<provtrace::SpanId>| {
        tracer.event("worker.exit", parent, || {
            vec![("status", provtrace::Field::from(reason))]
        });
        flush_tracer(&tracer, &ctx.trace);
        Ok(WorkerEnd::Crashed(reason))
    };
    loop {
        if store.stop_requested() {
            tracer.event("worker.exit", None, || {
                vec![("status", provtrace::Field::from("stopped"))]
            });
            flush_tracer(&tracer, &ctx.trace);
            return Ok(WorkerEnd::Stopped);
        }
        let Some(task) = store.claim_next(ctx.index)? else {
            std::thread::sleep(ctx.poll_interval);
            continue;
        };
        let claim_span = tracer.span_enter("claim", None, || {
            vec![
                ("cell", provtrace::Field::from(task.id())),
                ("epoch", provtrace::Field::from(task.epoch)),
            ]
        });
        let injected_first = first_claim;
        first_claim = false;
        if injected_first && ctx.inject.kill_worker == Some(ctx.index) {
            // Die with a fresh claim + heartbeat on the books: the
            // supervisor must notice the heartbeat going stale.
            return crash("injected kill-worker", claim_span);
        }
        if let Some((syscall, tool)) = &ctx.inject.kill_cell {
            if task.syscall == *syscall && task.tool == *tool {
                return crash("injected kill-cell", claim_span);
            }
        }
        let stalling = injected_first && ctx.inject.stall_worker == Some(ctx.index);
        if stalling {
            // No heartbeat refresh, oversleep past staleness, then fall
            // through and publish under the (by now superseded) epoch.
            std::thread::sleep(ctx.stall);
        }
        let memo_ref = if task.config.opts.use_solve_memo {
            if !warmed {
                warmed = true;
                if let Some(dir) = &ctx.solve_cache {
                    let path = dir.join(SOLVE_CACHE_FILE);
                    if let Err(e) = aspsolver::load_cache_file(&memo, &path) {
                        eprintln!(
                            "worker {}: solve cache {} ignored (cold start): {e}",
                            ctx.index,
                            path.display()
                        );
                    }
                }
            }
            Some(&memo)
        } else {
            None
        };
        let counters_before = MemoCounters::of(&memo);
        // The claim wrote the first heartbeat; refresh it every interval
        // until the cell ends. Dropping `cell_done` (also on unwind) wakes
        // the heartbeat thread at once, so no cell waits out an interval.
        let (cell_done, beat_timer) = mpsc::channel::<()>();
        let cell = std::thread::scope(|scope| {
            if !stalling {
                let (task, tracer) = (&task, &tracer);
                scope.spawn(move || {
                    while let Err(RecvTimeoutError::Timeout) =
                        beat_timer.recv_timeout(ctx.heartbeat_interval)
                    {
                        store.write_heartbeat(task, ctx.index).ok();
                        tracer.event("heartbeat", claim_span, || {
                            vec![
                                ("cell", provtrace::Field::from(task.id())),
                                ("epoch", provtrace::Field::from(task.epoch)),
                            ]
                        });
                    }
                });
            }
            let cell = run_matrix_cell_traced(
                &task.syscall,
                task.tool,
                &task.config.opts,
                task.config.opus_db_iterations,
                memo_ref,
                &tracer,
                claim_span,
            );
            drop(cell_done);
            cell
        })?;
        let result = CellResult {
            syscall: task.syscall.clone(),
            tool: task.tool,
            epoch: task.epoch,
            config: task.config.clone(),
            cell,
            memo: MemoCounters::of(&memo).since(&counters_before),
        };
        if injected_first && ctx.inject.torn_partial == Some(ctx.index) {
            store.publish_torn(&result)?;
            return crash("injected torn-partial", claim_span);
        }
        store.publish(&result)?;
        tracer.event("publish", claim_span, || {
            vec![
                ("cell", provtrace::Field::from(task.id())),
                ("epoch", provtrace::Field::from(task.epoch)),
            ]
        });
        // Persist everything this worker has solved so far (cumulative,
        // so a crash loses at most the last cell's entries). Private
        // per-worker file — no contention with other writers; best
        // effort — the cache is an accelerator, not a correctness
        // dependency.
        if let (Some(path), true) = (&delta_path, task.config.opts.use_solve_memo) {
            let bytes = aspsolver::delta_bytes(&memo);
            tracer.event("cache.delta", claim_span, || {
                vec![("bytes", provtrace::Field::from(bytes.len()))]
            });
            if let Err(e) = aspsolver::write_bytes_durable(path, &bytes) {
                eprintln!(
                    "worker {}: could not persist solve-cache delta {}: {e}",
                    ctx.index,
                    path.display()
                );
            }
        }
        tracer.span_exit("claim", claim_span);
        // Cumulative durable flush after every publish: a worker killed
        // later still leaves a readable trace of everything up to here.
        flush_tracer(&tracer, &ctx.trace);
    }
}

/// Create a tracer labelled `label` when a trace directory is
/// configured, the inert disabled tracer otherwise.
fn make_tracer(dir: &Option<PathBuf>, label: &str) -> provtrace::Tracer {
    match dir {
        Some(_) => provtrace::Tracer::new(label),
        None => provtrace::Tracer::disabled(),
    }
}

/// Durably flush `tracer` into `dir`. Best effort: telemetry must
/// never fail a run, so errors are reported and swallowed.
fn flush_tracer(tracer: &provtrace::Tracer, dir: &Option<PathBuf>) {
    if let Some(dir) = dir {
        if let Err(e) = tracer.write_to_dir(dir) {
            eprintln!("trace flush to {} failed (ignored): {e}", dir.display());
        }
    }
}

/// How one worker of the pool exited.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerExit {
    /// The worker's index.
    pub worker: usize,
    /// `true` when the worker drained cleanly.
    pub success: bool,
    /// Rendered exit status (process exit code / signal, or the
    /// crash/abandonment reason for thread workers).
    pub status: String,
    /// Captured stderr path, for process workers.
    pub stderr: Option<PathBuf>,
}

impl WorkerExit {
    fn failure(&self) -> WorkerFailure {
        WorkerFailure {
            worker: self.worker,
            status: self.status.clone(),
            stderr: self.stderr.clone(),
        }
    }
}

/// A pool of workers the supervisor can spawn into and reap from —
/// process-backed for the real driver, thread-backed for in-process
/// benchmarking and fast tests.
trait Pool {
    fn spawn(&mut self, index: usize) -> Result<(), PipelineError>;
    /// Collect every worker that has exited since the last call.
    fn reap(&mut self) -> Vec<WorkerExit>;
    fn live(&self) -> usize;
    /// Wait for the remaining workers after the stop sentinel is up.
    fn shutdown(&mut self) -> Vec<WorkerExit>;
}

/// Worker pool backed by `provmark-shard work` subprocesses, each with
/// its stderr captured to `worker-{index}.stderr` in the run directory.
struct ProcessPool {
    exe: PathBuf,
    root: PathBuf,
    heartbeat: Duration,
    poll: Duration,
    stall: Duration,
    inject: InjectSpec,
    solve_cache: Option<PathBuf>,
    trace: Option<PathBuf>,
    children: Vec<(usize, std::process::Child, PathBuf)>,
}

impl ProcessPool {
    fn exit(worker: usize, status: std::process::ExitStatus, stderr: PathBuf) -> WorkerExit {
        WorkerExit {
            worker,
            success: status.success(),
            status: status.to_string(),
            stderr: Some(stderr),
        }
    }
}

impl Pool for ProcessPool {
    fn spawn(&mut self, index: usize) -> Result<(), PipelineError> {
        let stderr_path = self.root.join(format!("worker-{index}.stderr"));
        // provlint: allow(raw-write) -- live stderr stream handed to the child process, not a parsed artifact
        let stderr = std::fs::File::create(&stderr_path)?;
        let mut command = std::process::Command::new(&self.exe);
        command
            .arg("work")
            .arg(&self.root)
            .arg("--worker-index")
            .arg(index.to_string())
            .arg("--heartbeat-ms")
            .arg(self.heartbeat.as_millis().to_string())
            .arg("--poll-ms")
            .arg(self.poll.as_millis().to_string())
            .arg("--stall-ms")
            .arg(self.stall.as_millis().to_string())
            .stdout(std::process::Stdio::null())
            .stderr(stderr);
        if !self.inject.is_empty() {
            command.arg("--inject").arg(self.inject.to_arg());
        }
        if let Some(dir) = &self.solve_cache {
            command.arg("--solve-cache").arg(dir);
        }
        if let Some(dir) = &self.trace {
            command.arg("--trace").arg(dir);
        }
        let child = command.spawn()?;
        self.children.push((index, child, stderr_path));
        Ok(())
    }

    fn reap(&mut self) -> Vec<WorkerExit> {
        let mut exits = Vec::new();
        self.children
            .retain_mut(|(index, child, stderr)| match child.try_wait() {
                Ok(Some(status)) => {
                    exits.push(Self::exit(*index, status, stderr.clone()));
                    false
                }
                Ok(None) => true,
                Err(e) => {
                    exits.push(WorkerExit {
                        worker: *index,
                        success: false,
                        status: format!("wait failed: {e}"),
                        stderr: Some(stderr.clone()),
                    });
                    false
                }
            });
        exits
    }

    fn live(&self) -> usize {
        self.children.len()
    }

    fn shutdown(&mut self) -> Vec<WorkerExit> {
        // The stop sentinel is up; give workers (which may be finishing
        // a superseded claim) a generous grace period, then kill.
        // provlint: allow(direct-clock) -- liveness/backoff scheduling only; report bytes are time-free
        let deadline = Instant::now() + Duration::from_secs(60);
        let mut exits = Vec::new();
        while !self.children.is_empty() {
            exits.extend(self.reap());
            if self.children.is_empty() {
                break;
            }
            // provlint: allow(direct-clock) -- liveness/backoff scheduling only; report bytes are time-free
            if Instant::now() >= deadline {
                for (index, child, stderr) in self.children.drain(..) {
                    let mut child = child;
                    child.kill().ok();
                    let status = child.wait();
                    exits.push(WorkerExit {
                        worker: index,
                        success: false,
                        status: status.map_or_else(
                            |e| format!("kill failed: {e}"),
                            |s| format!("killed at shutdown ({s})"),
                        ),
                        stderr: Some(stderr),
                    });
                }
                break;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        exits
    }
}

/// Worker pool backed by in-process threads (no subprocess spawning) —
/// used by benches and fast tests. Threads cannot be killed, so
/// injected crashes end the thread and are reported as failures.
struct ThreadPool {
    store: TaskStore,
    heartbeat: Duration,
    poll: Duration,
    stall: Duration,
    inject: InjectSpec,
    solve_cache: Option<PathBuf>,
    trace: Option<PathBuf>,
    threads: Vec<(
        usize,
        std::thread::JoinHandle<Result<WorkerEnd, PipelineError>>,
    )>,
}

impl ThreadPool {
    fn exit(
        worker: usize,
        handle: std::thread::JoinHandle<Result<WorkerEnd, PipelineError>>,
    ) -> WorkerExit {
        let (success, status) = match handle.join() {
            Ok(Ok(WorkerEnd::Stopped)) => (true, "stopped".to_owned()),
            Ok(Ok(WorkerEnd::Crashed(reason))) => (false, reason.to_owned()),
            Ok(Err(e)) => (false, e.to_string()),
            Err(_) => (false, "panicked".to_owned()),
        };
        WorkerExit {
            worker,
            success,
            status,
            stderr: None,
        }
    }
}

impl Pool for ThreadPool {
    fn spawn(&mut self, index: usize) -> Result<(), PipelineError> {
        let store = self.store.clone();
        let ctx = WorkerContext {
            index,
            heartbeat_interval: self.heartbeat,
            poll_interval: self.poll,
            stall: self.stall,
            inject: self.inject.clone(),
            solve_cache: self.solve_cache.clone(),
            trace: self.trace.clone(),
        };
        let handle = std::thread::spawn(move || worker_loop(&store, &ctx));
        self.threads.push((index, handle));
        Ok(())
    }

    fn reap(&mut self) -> Vec<WorkerExit> {
        let mut exits = Vec::new();
        let mut remaining = Vec::new();
        for (index, handle) in self.threads.drain(..) {
            if handle.is_finished() {
                exits.push(Self::exit(index, handle));
            } else {
                remaining.push((index, handle));
            }
        }
        self.threads = remaining;
        exits
    }

    fn live(&self) -> usize {
        self.threads.len()
    }

    fn shutdown(&mut self) -> Vec<WorkerExit> {
        self.threads
            .drain(..)
            .map(|(index, handle)| Self::exit(index, handle))
            .collect()
    }
}

/// Result of an elastic drive: the rendered report plus everything the
/// run observed along the way.
#[derive(Debug)]
pub struct ElasticOutcome {
    /// The merged matrix report (byte-identical to the single-process
    /// report when `failures` is empty).
    pub report: String,
    /// Cells that exhausted their retry budget, in canonical order —
    /// rendered as `lost` in the report.
    pub failures: Vec<CellFailure>,
    /// Every worker exit the supervisor observed.
    pub worker_exits: Vec<WorkerExit>,
    /// Total workers spawned (initial pool + respawns).
    pub workers_spawned: usize,
    /// How many cell re-dispatches the supervisor issued.
    pub requeues: usize,
    /// Solve-memo traffic summed over every accepted cell result.
    pub memo: MemoCounters,
    /// Publishes the supervisor rejected because their claim epoch was
    /// superseded (a zombie worker finishing a re-dispatched cell).
    /// Each distinct `(cell, epoch)` done artifact is counted once —
    /// this is the cluster's wasted completed work, previously dropped
    /// silently.
    pub stale_publishes: usize,
    /// Solve-memo traffic carried by those rejected publishes — kept
    /// separate from [`memo`](Self::memo) so the accepted-cell totals
    /// stay meaningful while the zombie work remains visible.
    pub zombie_memo: MemoCounters,
    /// Outcome of the post-run solve-cache merge (`None` when no
    /// [`ElasticOptions::solve_cache`] directory was configured).
    pub cache_merge: Option<SolveCacheMerge>,
}

/// What the post-run solve-cache merge accomplished.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SolveCacheMerge {
    /// Entries in the republished `solve.cache`.
    pub entries: usize,
    /// Per-worker delta files folded in (and then removed).
    pub delta_files: usize,
    /// Files skipped as corrupt or unreadable — each a
    /// `"{path}: {error}"` note. Skips degrade coverage, never
    /// correctness.
    pub skipped: Vec<String>,
}

/// Merge `DIR/solve.cache` with every `DIR/delta.*` file and
/// atomically, durably republish `DIR/solve.cache`; merged delta files
/// are removed. Corrupt or unreadable inputs are recorded in
/// [`SolveCacheMerge::skipped`] and otherwise ignored — the merge
/// keeps whatever decodes.
///
/// # Errors
///
/// [`PipelineError::Store`] when the directory cannot be read or
/// created; [`PipelineError::ShardArtifact`] when the merged cache
/// cannot be written back (input corruption is never an error).
pub fn merge_solve_cache_dir(dir: &Path) -> Result<SolveCacheMerge, PipelineError> {
    std::fs::create_dir_all(dir)?;
    let memo = aspsolver::SolveMemo::new();
    let mut merge = SolveCacheMerge::default();
    let base = dir.join(SOLVE_CACHE_FILE);
    if let Err(e) = aspsolver::load_cache_file(&memo, &base) {
        merge.skipped.push(format!("{}: {e}", base.display()));
    }
    let mut deltas: Vec<PathBuf> = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        let name = path.file_name().unwrap_or_default().to_string_lossy();
        if path.is_file() && name.starts_with("delta.") {
            deltas.push(path);
        }
    }
    deltas.sort();
    let mut merged_deltas = Vec::new();
    for path in deltas {
        match aspsolver::load_cache_file(&memo, &path) {
            Ok(_) => {
                merge.delta_files += 1;
                merged_deltas.push(path);
            }
            Err(e) => merge.skipped.push(format!("{}: {e}", path.display())),
        }
    }
    merge.entries = memo.len();
    aspsolver::write_cache_file(&memo, &base)
        .map_err(|e| artifact(format!("cannot republish merged solve cache: {e}")))?;
    // Only after the merged cache is durably on disk do the folded-in
    // deltas become redundant; corrupt ones are kept for inspection.
    for path in merged_deltas {
        std::fs::remove_file(path).ok();
    }
    Ok(merge)
}

/// Per-cell supervisor state.
enum SlotState {
    Open,
    Done(CellOutcome),
    Failed(CellFailure),
}

struct Slot {
    task: CellTask,
    state: SlotState,
}

/// The supervisor's liveness clock. A claim's age is the younger of its
/// heartbeat's age and the time since the supervisor first saw the claim,
/// so a claim caught between its rename and its first heartbeat is
/// never older than the scan that found it.
#[derive(Default)]
struct ClaimClock {
    first_seen: BTreeMap<(String, u32), Instant>,
}

impl ClaimClock {
    fn age(&mut self, store: &TaskStore, id: &str, epoch: u32, now: Instant) -> Duration {
        let seen = *self.first_seen.entry((id.to_owned(), epoch)).or_insert(now);
        let since_seen = now.saturating_duration_since(seen);
        store
            .heartbeat_age(id, epoch)
            .map_or(since_seen, |beat| beat.min(since_seen))
    }
}

/// The supervisor loop: harvest published results, watch heartbeats,
/// re-dispatch dead claims under bumped epochs with bounded retries
/// and backoff, respawn the pool if it collapses, and merge.
///
/// `worker_count` must lie in `1..=` the number of matrix rows; anything
/// else is [`PipelineError::InvalidShardCount`] before a worker spawns.
fn supervise(
    store: &TaskStore,
    pool: &mut dyn Pool,
    worker_count: usize,
    tasks: Vec<CellTask>,
    config: &RunConfig,
    opts: &ElasticOptions,
    tracer: &provtrace::Tracer,
) -> Result<ElasticOutcome, PipelineError> {
    let rows = provmark_core::suite::table2().len();
    if worker_count == 0 || worker_count > rows {
        return Err(PipelineError::InvalidShardCount {
            count: worker_count,
            rows,
        });
    }
    let mut slots: BTreeMap<String, Slot> = tasks
        .into_iter()
        .map(|task| {
            (
                task.id(),
                Slot {
                    task,
                    state: SlotState::Open,
                },
            )
        })
        .collect();
    let exec_span = tracer.span_enter("phase.execute", None, || {
        vec![
            ("cells", provtrace::Field::from(slots.len())),
            ("workers", provtrace::Field::from(worker_count)),
        ]
    });
    let mut pending: BTreeMap<String, Instant> = BTreeMap::new();
    let mut exits: Vec<WorkerExit> = Vec::new();
    let mut workers_spawned = 0;
    let mut respawns = 0;
    let mut requeues = 0;
    let mut memo_totals = MemoCounters::default();
    let mut stale_publishes = 0usize;
    let mut zombie_memo = MemoCounters::default();
    // Every `(cell, epoch)` done artifact already handled. `done_entries`
    // re-lists the whole directory each poll, so without this set an
    // already-accepted (or already-rejected) publish would be re-counted
    // on every later iteration.
    let mut harvested: BTreeSet<(String, u32)> = BTreeSet::new();
    let mut claim_clock = ClaimClock::default();
    for index in 0..worker_count {
        pool.spawn(index)?;
        workers_spawned += 1;
        tracer.event("worker.spawn", exec_span, || {
            vec![("worker", provtrace::Field::from(index))]
        });
    }

    // Bump a cell's epoch for re-dispatch, or fail it for good once the
    // retry budget is gone.
    let fail_attempt = |slots: &mut BTreeMap<String, Slot>,
                        pending: &mut BTreeMap<String, Instant>,
                        requeues: &mut usize,
                        id: &str,
                        detail: String,
                        backoff: Duration,
                        max_retries: u32| {
        // provlint: allow(panic-in-lib) -- every dispatched id was seeded into `slots` at plan time
        let slot = slots.get_mut(id).expect("known cell");
        if slot.task.epoch > max_retries {
            slot.state = SlotState::Failed(CellFailure {
                syscall: slot.task.syscall.clone(),
                tool: slot.task.tool,
                attempts: slot.task.epoch,
                detail,
            });
        } else {
            slot.task.epoch += 1;
            // provlint: allow(direct-clock) -- liveness/backoff scheduling only; report bytes are time-free
            pending.insert(id.to_owned(), Instant::now() + backoff);
            *requeues += 1;
        }
    };

    loop {
        let reaped = pool.reap();
        for exit in &reaped {
            tracer.event("worker.reap", exec_span, || {
                vec![
                    ("worker", provtrace::Field::from(exit.worker)),
                    ("success", provtrace::Field::from(exit.success)),
                    ("status", provtrace::Field::from(exit.status.clone())),
                ]
            });
        }
        exits.extend(reaped);

        // Harvest published results. Only the current epoch counts:
        // superseded publishes (a stalled worker finishing a claim the
        // supervisor already re-dispatched) are rejected — and counted,
        // because a rejected publish is completed work the cluster
        // wasted, which a silent drop would hide from the operator.
        let mut completed: Vec<(String, CellOutcome)> = Vec::new();
        let mut failed: Vec<(String, String)> = Vec::new();
        for (id, epoch) in store.done_entries()? {
            let Some(slot) = slots.get(&id) else { continue };
            if harvested.contains(&(id.clone(), epoch)) {
                continue;
            }
            if !matches!(slot.state, SlotState::Open) || epoch != slot.task.epoch {
                harvested.insert((id.clone(), epoch));
                stale_publishes += 1;
                if let Ok(result) = store.load_result(&id, epoch) {
                    zombie_memo.merge(&result.memo);
                }
                tracer.event("harvest.reject_stale", exec_span, || {
                    vec![
                        ("cell", provtrace::Field::from(id.clone())),
                        ("epoch", provtrace::Field::from(epoch)),
                    ]
                });
                continue;
            }
            harvested.insert((id.clone(), epoch));
            match store.load_result(&id, epoch) {
                Ok(result)
                    if result.syscall == slot.task.syscall
                        && result.tool == slot.task.tool
                        && result.config == *config =>
                {
                    memo_totals.merge(&result.memo);
                    tracer.event("harvest.accept", exec_span, || {
                        vec![
                            ("cell", provtrace::Field::from(id.clone())),
                            ("epoch", provtrace::Field::from(epoch)),
                        ]
                    });
                    completed.push((id, result.cell));
                }
                Ok(_) => failed.push((
                    id,
                    "published result does not match its task (identity or run \
                     configuration differ)"
                        .to_owned(),
                )),
                Err(e) => failed.push((id, format!("torn or malformed result artifact: {e}"))),
            }
        }
        for (id, cell) in completed {
            // provlint: allow(panic-in-lib) -- every dispatched id was seeded into `slots` at plan time
            slots.get_mut(&id).expect("known cell").state = SlotState::Done(cell);
            pending.remove(&id);
        }
        for (id, detail) in failed {
            fail_attempt(
                &mut slots,
                &mut pending,
                &mut requeues,
                &id,
                detail,
                opts.backoff,
                opts.max_retries,
            );
        }

        // Staleness: an open, claimed, unpublished cell whose heartbeat
        // is too old has lost its worker.
        // provlint: allow(direct-clock) -- liveness/backoff scheduling only; report bytes are time-free
        let now = Instant::now();
        let mut stale: Vec<(String, String)> = Vec::new();
        for (id, slot) in &slots {
            if !matches!(slot.state, SlotState::Open)
                || pending.contains_key(id)
                || store.task_pending(&slot.task)
                || store.done_exists(id, slot.task.epoch)
            {
                continue;
            }
            let age = claim_clock.age(store, id, slot.task.epoch, now);
            if age > opts.stale_after {
                stale.push((
                    id.clone(),
                    format!(
                        "heartbeat went stale at epoch {} ({}ms without a beat)",
                        slot.task.epoch,
                        age.as_millis()
                    ),
                ));
            }
        }
        for (id, detail) in stale {
            tracer.event("stale.detect", exec_span, || {
                vec![
                    ("cell", provtrace::Field::from(id.clone())),
                    ("detail", provtrace::Field::from(detail.clone())),
                ]
            });
            fail_attempt(
                &mut slots,
                &mut pending,
                &mut requeues,
                &id,
                detail,
                opts.backoff,
                opts.max_retries,
            );
        }

        // Re-dispatch cells whose backoff has elapsed.
        let due: Vec<String> = pending
            .iter()
            .filter(|(_, at)| **at <= now)
            .map(|(id, _)| id.clone())
            .collect();
        for id in due {
            pending.remove(&id);
            tracer.event("redispatch", exec_span, || {
                vec![
                    ("cell", provtrace::Field::from(id.clone())),
                    ("epoch", provtrace::Field::from(slots[&id].task.epoch)),
                ]
            });
            store.requeue(&slots[&id].task)?;
        }

        let open = slots
            .values()
            .filter(|s| matches!(s.state, SlotState::Open))
            .count();
        if open == 0 {
            break;
        }

        // The pool collapsed with work left: respawn (bounded), giving
        // replacements fresh indices so index-keyed injections cannot
        // retrigger.
        if pool.live() == 0 {
            if respawns >= opts.max_respawns {
                return Err(PipelineError::WorkerPool {
                    failures: exits
                        .iter()
                        .filter(|e| !e.success)
                        .map(WorkerExit::failure)
                        .collect(),
                    detail: format!("{open} cell(s) still open after {respawns} respawn(s)"),
                });
            }
            respawns += 1;
            pool.spawn(workers_spawned)?;
            tracer.event("worker.spawn", exec_span, || {
                vec![
                    ("worker", provtrace::Field::from(workers_spawned)),
                    ("respawn", provtrace::Field::from(true)),
                ]
            });
            workers_spawned += 1;
        }

        std::thread::sleep(opts.poll_interval);
    }

    store.request_stop()?;
    let drained = pool.shutdown();
    for exit in &drained {
        tracer.event("worker.reap", exec_span, || {
            vec![
                ("worker", provtrace::Field::from(exit.worker)),
                ("success", provtrace::Field::from(exit.success)),
                ("status", provtrace::Field::from(exit.status.clone())),
            ]
        });
    }
    exits.extend(drained);

    // Zombies can publish between the last poll and their shutdown — a
    // stall-injected worker sleeps past the whole run and lands its
    // superseded claim only once the stop sentinel is already up. Sweep
    // the done directory one final time so those rejected publishes are
    // counted too: every slot is resolved here, so anything not yet
    // harvested is by definition a superseded publish.
    for (id, epoch) in store.done_entries()? {
        if !slots.contains_key(&id) || harvested.contains(&(id.clone(), epoch)) {
            continue;
        }
        harvested.insert((id.clone(), epoch));
        stale_publishes += 1;
        if let Ok(result) = store.load_result(&id, epoch) {
            zombie_memo.merge(&result.memo);
        }
        tracer.event("harvest.reject_stale", exec_span, || {
            vec![
                ("cell", provtrace::Field::from(id.clone())),
                ("epoch", provtrace::Field::from(epoch)),
            ]
        });
    }
    tracer.span_exit_with("phase.execute", exec_span, || {
        vec![
            ("requeues", provtrace::Field::from(requeues)),
            ("stale_publishes", provtrace::Field::from(stale_publishes)),
        ]
    });

    let merge_span = tracer.span_enter("phase.merge", None, Vec::new);
    let mut cells: Vec<(String, usize, CellOutcome)> = Vec::new();
    let mut failures: Vec<CellFailure> = Vec::new();
    for (_, slot) in slots {
        match slot.state {
            SlotState::Done(cell) => cells.push((slot.task.syscall, slot.task.tool, cell)),
            SlotState::Failed(failure) => {
                cells.push((
                    failure.syscall.clone(),
                    failure.tool,
                    failure.lost_outcome(),
                ));
                failures.push(failure);
            }
            SlotState::Open => unreachable!("loop exits only with no open cells"),
        }
    }
    let merged = merge_matrix_cells(cells)?;
    tracer.span_exit_with("phase.merge", merge_span, || {
        vec![("failures", provtrace::Field::from(failures.len()))]
    });
    Ok(ElasticOutcome {
        report: render_matrix_report(&merged),
        failures,
        worker_exits: exits,
        workers_spawned,
        requeues,
        memo: memo_totals,
        stale_publishes,
        zombie_memo,
        cache_merge: None,
    })
}

/// Clamp the heartbeat interval so a live worker can never look stale.
fn effective_heartbeat(opts: &ElasticOptions) -> Duration {
    opts.heartbeat_interval.min(opts.stale_after / 4)
}

/// How long a stall-injected worker oversleeps: comfortably past
/// staleness, so the supervisor is guaranteed to re-dispatch first.
fn stall_duration(opts: &ElasticOptions) -> Duration {
    opts.stale_after * 4
}

/// Drive an elastic matrix run with `worker_count` worker
/// **processes** (`provmark-shard work …`), supervising claims,
/// heartbeats and re-dispatch in this process.
///
/// `work_dir` becomes the shared run directory (tasks, claims,
/// heartbeats, results and per-worker stderr captures are kept for
/// inspection).
///
/// # Errors
///
/// [`PipelineError::InvalidShardCount`] unless `1 <= worker_count <=`
/// the number of matrix rows,
/// [`PipelineError::Store`] on I/O failures,
/// [`PipelineError::ShardArtifact`] on a reused work dir,
/// [`PipelineError::WorkerPool`] when the pool collapses beyond the
/// respawn budget. Exhausted cells are **not** an error here — they are
/// reported in [`ElasticOutcome::failures`] so the caller decides.
pub fn drive_elastic(
    worker_count: usize,
    config: &RunConfig,
    work_dir: &Path,
    opts: &ElasticOptions,
) -> Result<ElasticOutcome, PipelineError> {
    std::fs::create_dir_all(work_dir)?;
    let tracer = make_tracer(&opts.trace, "drive");
    let plan_span = tracer.span_enter("phase.plan", None, Vec::new);
    let tasks = plan_cells(config);
    let store = TaskStore::init(work_dir, &tasks)?;
    tracer.span_exit_with("phase.plan", plan_span, || {
        vec![("cells", provtrace::Field::from(tasks.len()))]
    });
    let exe = match &opts.worker_exe {
        Some(exe) => exe.clone(),
        None => std::env::current_exe()?,
    };
    let mut pool = ProcessPool {
        exe,
        root: work_dir.to_owned(),
        heartbeat: effective_heartbeat(opts),
        poll: opts.poll_interval,
        stall: stall_duration(opts),
        inject: opts.inject.clone(),
        solve_cache: prepare_solve_cache_dir(opts)?,
        trace: prepare_trace_dir(opts)?,
        children: Vec::new(),
    };
    let mut outcome = supervise(
        &store,
        &mut pool,
        worker_count,
        tasks,
        config,
        opts,
        &tracer,
    )?;
    merge_after_drive(opts, &mut outcome, &tracer)?;
    flush_tracer(&tracer, &opts.trace);
    Ok(outcome)
}

/// Drive an elastic matrix run with `worker_count` worker **threads**
/// in this process — no subprocess spawning, same protocol and
/// supervisor. Used by benches and fast tests.
///
/// # Errors
///
/// As [`drive_elastic`].
pub fn drive_elastic_in_process(
    worker_count: usize,
    config: &RunConfig,
    work_dir: &Path,
    opts: &ElasticOptions,
) -> Result<ElasticOutcome, PipelineError> {
    std::fs::create_dir_all(work_dir)?;
    let tracer = make_tracer(&opts.trace, "drive");
    let plan_span = tracer.span_enter("phase.plan", None, Vec::new);
    let tasks = plan_cells(config);
    let store = TaskStore::init(work_dir, &tasks)?;
    tracer.span_exit_with("phase.plan", plan_span, || {
        vec![("cells", provtrace::Field::from(tasks.len()))]
    });
    let mut pool = ThreadPool {
        store: store.clone(),
        heartbeat: effective_heartbeat(opts),
        poll: opts.poll_interval,
        stall: stall_duration(opts),
        inject: opts.inject.clone(),
        solve_cache: prepare_solve_cache_dir(opts)?,
        trace: prepare_trace_dir(opts)?,
        threads: Vec::new(),
    };
    let mut outcome = supervise(
        &store,
        &mut pool,
        worker_count,
        tasks,
        config,
        opts,
        &tracer,
    )?;
    merge_after_drive(opts, &mut outcome, &tracer)?;
    flush_tracer(&tracer, &opts.trace);
    Ok(outcome)
}

/// Ensure the configured solve-cache directory exists before workers
/// try to warm from (or write deltas into) it.
fn prepare_solve_cache_dir(opts: &ElasticOptions) -> Result<Option<PathBuf>, PipelineError> {
    if let Some(dir) = &opts.solve_cache {
        std::fs::create_dir_all(dir)?;
    }
    Ok(opts.solve_cache.clone())
}

/// Ensure the configured trace directory exists before workers try to
/// flush into it.
fn prepare_trace_dir(opts: &ElasticOptions) -> Result<Option<PathBuf>, PipelineError> {
    if let Some(dir) = &opts.trace {
        std::fs::create_dir_all(dir)?;
    }
    Ok(opts.trace.clone())
}

/// Fold the per-worker delta files into the shared cache once the run
/// is over, recording what happened on the outcome.
fn merge_after_drive(
    opts: &ElasticOptions,
    outcome: &mut ElasticOutcome,
    tracer: &provtrace::Tracer,
) -> Result<(), PipelineError> {
    if let Some(dir) = &opts.solve_cache {
        let merge = merge_solve_cache_dir(dir)?;
        tracer.event("cache.merge", None, || {
            vec![
                ("entries", provtrace::Field::from(merge.entries)),
                ("delta_files", provtrace::Field::from(merge.delta_files)),
                ("skipped", provtrace::Field::from(merge.skipped.len())),
            ]
        });
        outcome.cache_merge = Some(merge);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::SystemTime;

    fn store_with_one_task(tag: &str) -> (TaskStore, CellTask, PathBuf) {
        let dir =
            std::env::temp_dir().join(format!("provmark-claim-clock-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let task = CellTask {
            syscall: "creat".into(),
            tool: 0,
            epoch: 1,
            config: RunConfig::quick(),
        };
        let store = TaskStore::init(&dir, std::slice::from_ref(&task)).unwrap();
        (store, task, dir)
    }

    fn set_mtime(path: &Path, mtime: SystemTime) {
        std::fs::File::options()
            .write(true)
            .open(path)
            .unwrap()
            .set_modified(mtime)
            .unwrap();
    }

    /// The state a scan can catch mid-claim: the task is renamed into
    /// `claimed/` with its hour-old plan-time mtime, and no heartbeat
    /// exists yet. It must read as a brand-new claim, not an hour-old one.
    #[test]
    fn claim_without_a_heartbeat_ages_from_first_sight() {
        let (store, task, dir) = store_with_one_task("window");
        let hour_ago = SystemTime::now() - Duration::from_secs(3600);
        set_mtime(&store.tasks().join(task.file_name()), hour_ago);
        std::fs::rename(
            store.tasks().join(task.file_name()),
            store.claimed().join(task.file_name()),
        )
        .unwrap();
        assert_eq!(store.heartbeat_age(&task.id(), 1), None);

        let mut clock = ClaimClock::default();
        let seen = Instant::now();
        assert_eq!(clock.age(&store, &task.id(), 1, seen), Duration::ZERO);
        // A claim that never beats still goes stale, counted from sight.
        let stale_after = Duration::from_millis(300);
        assert_eq!(
            clock.age(&store, &task.id(), 1, seen + stale_after * 2),
            stale_after * 2
        );
        // A re-dispatch is a new claim with its own first sighting.
        assert_eq!(
            clock.age(&store, &task.id(), 2, seen + stale_after * 2),
            Duration::ZERO
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn heartbeat_bounds_the_age_of_a_long_watched_claim() {
        let (store, task, dir) = store_with_one_task("beat");
        let claimed = store.try_claim(&task.file_name(), 0).unwrap().unwrap();
        let mut clock = ClaimClock::default();
        let seen = Instant::now();
        clock.age(&store, &claimed.id(), 1, seen);
        let later = clock.age(&store, &claimed.id(), 1, seen + Duration::from_secs(3600));
        assert!(
            later < Duration::from_secs(60),
            "fresh heartbeat wins: {later:?}"
        );

        // An mtime ahead of the system clock is a fresh beat, not a
        // missing one.
        let beat = store.heartbeats().join(claimed.file_name());
        set_mtime(&beat, SystemTime::now() + Duration::from_secs(3600));
        assert_eq!(store.heartbeat_age(&claimed.id(), 1), Some(Duration::ZERO));
        std::fs::remove_dir_all(&dir).ok();
    }
}
