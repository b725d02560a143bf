//! The four workloads, their correctness references and their metrics.
//!
//! - `table2-single`: the 44 x 3 Table 2 matrix in this process, in the
//!   `--quick` configuration, on `WORKERS` lanes (threads) that claim
//!   cells in canonical order. Each lane owns one `SolveMemo` and passes
//!   it to `run_benchmark_with_memo`, as each elastic worker owns one.
//! - `table2-drive`: the same matrix through `drive_elastic` with
//!   `WORKERS` worker processes of the repository's own
//!   `provmark-shard work`, built by the run.
//! - `table2-drive-kill`: the same drive with `kill-worker=1` injected.
//! - `scale-sweep`: scaleN for N in `SCALE_FACTORS` under the three
//!   tools, on the same lanes as `table2-single`.
//!
//! `BENCHMARK.json` gates only the two drives. Their wall-clock is mostly
//! the heartbeat interval, so it repeats across runs; the in-process
//! workloads are pure CPU and durable writes, and on a shared 2-core host
//! their wall-clock spread between runs far more than the drives' (see
//! `baseline.json`, which records all four workloads). They stay runnable
//! for their traced breakdowns.
//!
//! Every iteration's output is checked: matrix reports byte-for-byte
//! against the report of `provmark-shard single --quick` at the same
//! seed, made in a child process (it must itself agree with Table 2 on
//! all 132 cells), scale runs on status,
//! matching cost, discarded trials and result size against
//! `pipeline::run_benchmark`.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use aspsolver::SolveMemo;
use provmark_core::pipeline::{self, CellOutcome, MeasuredCell};
use provmark_core::report::render_matrix_report;
use provmark_core::suite::{self, BenchSpec};
use provmark_core::tool::{Tool, ToolKind};
use provmark_core::{BenchmarkOptions, BenchmarkRun, PipelineError};
use provshard::elastic::{drive_elastic, plan_cells, ElasticOptions, InjectSpec, TaskStore};
use provshard::RunConfig;
use serde_json::Value;

use crate::fold::{self, Breakdown};
use crate::metrics::Outcome;
use crate::probes;
use crate::procs::{self, ChildPeaks};
use crate::stats::{median, peak_rss_kib, percentile};

/// Lanes of the in-process workloads and worker processes of the drives.
pub const WORKERS: usize = 2;
/// Simulated OPUS Neo4j startup iterations (the `--quick` preset).
pub const OPUS_ITERATIONS: u64 = provshard::QUICK_OPUS_DB_ITERATIONS;
/// Scale factors of `scale-sweep`.
pub const SCALE_FACTORS: [usize; 4] = [32, 64, 128, 256];
/// Set-ups timed per run (the median is reported): in process, and on
/// the drives up front and again before each drive.
const SETUP_REPS_IN_PROCESS: usize = 31;
const SETUP_REPS_DRIVE: usize = 4;
const SETUP_REPS_PER_DRIVE: usize = 4;
/// In-process matrices a traced drive run makes for the per-layer stage
/// metrics (the protocol returns no stage timings).
const DRIVE_IN_PROCESS_PASSES: usize = 3;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Single,
    Drive,
    DriveKill,
    Sweep,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 4] = [
        Workload::Single,
        Workload::Drive,
        Workload::DriveKill,
        Workload::Sweep,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Single => "table2-single",
            Workload::Drive => "table2-drive",
            Workload::DriveKill => "table2-drive-kill",
            Workload::Sweep => "scale-sweep",
        }
    }

    /// Why the workload exists.
    pub fn why(self) -> &'static str {
        match self {
            Workload::Single => "quick Table 2 matrix (44 x 3 cells) in one process on 2 lanes: record and transform dominate, the solver is tiny, no protocol",
            Workload::Drive => "same cells and report through the elastic protocol with 2 worker processes, clean: the gap to table2-single is protocol cost",
            Workload::DriveKill => "the drive with worker 1 killed at its first claim: stale detection, re-dispatch, harvest rejection, one surviving worker",
            Workload::Sweep => "scale32/64/128/256 under SPADE, OPUS and CamFlow in one process: generalize and the solver dominate, no protocol",
        }
    }

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    fn is_drive(self) -> bool {
        matches!(self, Workload::Drive | Workload::DriveKill)
    }
}

/// One cell of an in-process workload: a benchmark under one tool
/// column (0 = SPADE, 1 = OPUS, 2 = CamFlow).
pub struct Job {
    pub spec: BenchSpec,
    pub tool: usize,
}

/// The tool profile the matrix runners build for `kind` under `--quick`.
pub fn quick_tool(kind: ToolKind) -> Tool {
    match kind {
        ToolKind::Opus => Tool::Opus(opus::OpusConfig {
            db_startup_iterations: OPUS_ITERATIONS,
            ..opus::OpusConfig::default()
        }),
        _ => Tool::baseline(kind),
    }
}

fn jobs(workload: Workload) -> Vec<Job> {
    let specs: Vec<BenchSpec> = match workload {
        // Largest first, so the two lanes finish close together.
        Workload::Sweep => SCALE_FACTORS
            .iter()
            .rev()
            .map(|&n| provmark_core::scale::scale_spec(n))
            .collect(),
        _ => suite::table2()
            .iter()
            .map(|exp| suite::spec(exp.syscall).expect("every Table 2 row has a spec"))
            .collect(),
    };
    specs
        .into_iter()
        .flat_map(|spec| {
            (0..ToolKind::all().len()).map(move |tool| Job {
                spec: spec.clone(),
                tool,
            })
        })
        .collect()
}

/// Settings of one benchmark run.
pub struct RunSpec {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Scratch directory for run dirs, trace files and stores.
    pub root: PathBuf,
}

/// The `--quick` run configuration at `seed`.
pub fn run_config(seed: u64) -> RunConfig {
    let mut config = RunConfig::quick();
    config.opts.base_seed = seed;
    config
}

/// The elastic timing preset of the drives.
pub fn elastic_options(kill: bool) -> ElasticOptions {
    let mut opts = ElasticOptions::quick();
    if kill {
        opts.inject = InjectSpec::parse("kill-worker=1").expect("a valid injection");
    }
    opts
}

// ---------------------------------------------------------------------
// In-process lanes
// ---------------------------------------------------------------------

struct Lane {
    cells: Vec<(usize, MeasuredCell)>,
    hits: u64,
    misses: u64,
}

fn run_lane(
    lane: usize,
    jobs: &[Job],
    opts: &BenchmarkOptions,
    next: &AtomicUsize,
    trace: Option<&Path>,
) -> Result<Lane, String> {
    let tracer = match trace {
        Some(_) => provtrace::Tracer::new(&format!("lane-{lane}")),
        None => provtrace::Tracer::disabled(),
    };
    let memo = SolveMemo::new().with_tracer(tracer.clone());
    let lane_span = tracer.span_enter("bench.lane", None, Vec::new);
    let mut cells = Vec::new();
    loop {
        // The counter only hands out job indices; it publishes no data.
        let index = next.fetch_add(1, Ordering::Relaxed);
        let Some(job) = jobs.get(index) else { break };
        let kind = ToolKind::all()[job.tool];
        let span = tracer.span_enter("bench.cell", lane_span, || {
            vec![
                ("syscall", provtrace::Field::from(job.spec.name.as_str())),
                ("tool", provtrace::Field::from(kind.name())),
            ]
        });
        let mut tool = quick_tool(kind).instantiate();
        let run = if tracer.is_enabled() {
            pipeline::run_benchmark_traced(&mut tool, &job.spec, opts, Some(&memo), &tracer, span)
        } else {
            pipeline::run_benchmark_with_memo(&mut tool, &job.spec, opts, Some(&memo))
        };
        tracer.span_exit("bench.cell", span);
        cells.push((index, measured(run)));
    }
    tracer.span_exit("bench.lane", lane_span);
    if let Some(dir) = trace {
        tracer
            .write_to_dir(dir)
            .map_err(|e| format!("trace flush: {e}"))?;
    }
    Ok(Lane {
        cells,
        hits: memo.hits(),
        misses: memo.misses(),
    })
}

/// Run every job on `WORKERS` lanes; cells come back in job order.
fn run_lanes(
    jobs: &[Job],
    opts: &BenchmarkOptions,
    trace: Option<&Path>,
) -> Result<(Vec<MeasuredCell>, u64, u64), String> {
    let next = AtomicUsize::new(0);
    let lanes: Vec<Lane> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..WORKERS)
            .map(|lane| {
                let next = &next;
                scope.spawn(move || run_lane(lane, jobs, opts, next, trace))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().map_err(|_| "a lane panicked".to_owned())?)
            .collect::<Result<_, String>>()
    })?;
    let mut slots: Vec<Option<MeasuredCell>> = (0..jobs.len()).map(|_| None).collect();
    let (mut hits, mut misses) = (0, 0);
    for lane in lanes {
        hits += lane.hits;
        misses += lane.misses;
        for (i, cell) in lane.cells {
            slots[i] = Some(cell);
        }
    }
    let cells = slots
        .into_iter()
        .collect::<Option<Vec<_>>>()
        .ok_or("a job was never run")?;
    Ok((cells, hits, misses))
}

fn measured(run: Result<BenchmarkRun, PipelineError>) -> MeasuredCell {
    match run {
        Ok(run) => MeasuredCell {
            run: Some(run),
            error: None,
        },
        Err(e) => MeasuredCell {
            run: None,
            error: Some(e.to_string()),
        },
    }
}

/// The matrix report of in-process cells, rendered as `single` renders it.
fn matrix_report(jobs: &[Job], outcomes: &[CellOutcome]) -> Result<String, String> {
    let cells = jobs
        .iter()
        .zip(outcomes)
        .map(|(job, cell)| (job.spec.name.clone(), job.tool, cell.clone()));
    let rows = pipeline::merge_matrix_cells(cells).map_err(|e| e.to_string())?;
    Ok(render_matrix_report(&rows))
}

/// One in-process iteration, reduced to what the metrics need.
#[derive(Debug, Clone, Default)]
struct Sample {
    wall: f64,
    failed: u64,
    processing: f64,
    cell_p50_ms: f64,
    cell_p90_ms: f64,
    /// `[tool][stage]` seconds summed over cells; stages are record,
    /// transform, generalize, compare.
    stages: [[f64; 4]; 3],
    hits: u64,
    misses: u64,
}

fn in_process_sample(
    jobs: &[Job],
    opts: &BenchmarkOptions,
    reference: &Reference,
    trace: Option<&Path>,
) -> Result<(Sample, Vec<CellOutcome>), String> {
    let t0 = Instant::now();
    let (cells, hits, misses) = run_lanes(jobs, opts, trace)?;
    let outcomes: Vec<CellOutcome> = cells.iter().map(CellOutcome::of).collect();
    let report = match reference.report {
        Some(_) => Some(matrix_report(jobs, &outcomes)?),
        None => None,
    };
    let wall = t0.elapsed().as_secs_f64();
    let failed = match (&report, &reference.report) {
        (Some(report), Some(expected)) => differing_cells(report, expected, jobs.len()),
        _ => outcomes
            .iter()
            .zip(&reference.outcomes)
            .filter(|(got, want)| got != want || !want.completed())
            .count() as u64,
    };
    let mut sample = Sample {
        wall,
        failed,
        hits,
        misses,
        ..Sample::default()
    };
    let mut cell_ms = Vec::with_capacity(cells.len());
    for (job, cell) in jobs.iter().zip(&cells) {
        let Some(run) = &cell.run else { continue };
        let t = run.timings;
        sample.processing += t.processing_total().as_secs_f64();
        cell_ms.push((t.recording + t.processing_total()).as_secs_f64() * 1e3);
        let stages = [
            t.recording,
            t.transformation,
            t.generalization,
            t.comparison,
        ];
        for (acc, stage) in sample.stages[job.tool].iter_mut().zip(stages) {
            *acc += stage.as_secs_f64();
        }
    }
    sample.cell_p50_ms = percentile(&cell_ms, 50.0);
    sample.cell_p90_ms = percentile(&cell_ms, 90.0);
    Ok((sample, outcomes))
}

// ---------------------------------------------------------------------
// References and checks
// ---------------------------------------------------------------------

struct Reference {
    /// `provmark-shard single --quick` at the seed (matrix workloads).
    report: Option<String>,
    /// `run_benchmark` outcomes in job order (scale-sweep).
    outcomes: Vec<CellOutcome>,
}

impl Reference {
    /// With `shard` (the matrix workloads) the reference is its single
    /// report, made in a child process so that this process's peak
    /// memory stays the measured workload's; without, the scale runs.
    fn compute(
        jobs: &[Job],
        config: &RunConfig,
        shard: Option<&Path>,
        root: &Path,
    ) -> Result<Reference, String> {
        if let Some(shard) = shard {
            let out = root.join("reference.txt");
            let status = Command::new(shard)
                .args(["single", "--quick", "--seed"])
                .arg(config.opts.base_seed.to_string())
                .arg("--out")
                .arg(&out)
                .stdout(Stdio::null())
                .status()
                .map_err(|e| format!("reference: {e}"))?;
            if !status.success() {
                return Err(format!("reference: provmark-shard single: {status}"));
            }
            let report = std::fs::read_to_string(&out).map_err(|e| format!("reference: {e}"))?;
            return Ok(Reference {
                report: Some(report),
                outcomes: Vec::new(),
            });
        }
        let outcomes = provgraph::par::par_map(jobs, |job| {
            let mut tool = quick_tool(ToolKind::all()[job.tool]).instantiate();
            CellOutcome::of(&measured(pipeline::run_benchmark(
                &mut tool,
                &job.spec,
                &config.opts,
            )))
        });
        Ok(Reference {
            report: None,
            outcomes,
        })
    }

    /// Reference cells that are themselves wrong: Table 2 disagreements
    /// or scale runs that did not complete.
    fn defects(&self) -> u64 {
        match &self.report {
            Some(report) => table2_disagreements(report).unwrap_or(132),
            None => self.outcomes.iter().filter(|c| !c.is_ok()).count() as u64,
        }
    }
}

/// Cells that disagree with Table 2, from the report's footer.
fn table2_disagreements(report: &str) -> Option<u64> {
    let footer = report
        .lines()
        .rev()
        .find_map(|l| l.strip_prefix("agreement with paper Table 2: "))?;
    let (agree, total) = footer.strip_suffix(" cells")?.split_once('/')?;
    total.parse::<u64>().ok()?.checked_sub(agree.parse().ok()?)
}

/// Matrix cells of `report` that differ from `reference`, compared
/// table row by table row and column by column.
fn differing_cells(report: &str, reference: &str, total: usize) -> u64 {
    if report == reference {
        return 0;
    }
    let got: Vec<&str> = report.lines().collect();
    let want: Vec<&str> = reference.lines().collect();
    if got.len() != want.len() {
        return total as u64;
    }
    let cells: usize = got
        .iter()
        .zip(&want)
        .filter(|(g, w)| g != w && w.contains('|'))
        .map(|(g, w)| {
            let g: Vec<&str> = g.split('|').collect();
            let w: Vec<&str> = w.split('|').collect();
            g.iter()
                .zip(&w)
                .skip(1)
                .filter(|(a, b)| a != b)
                .count()
                .max(1)
        })
        .sum();
    cells.clamp(1, total) as u64
}

// ---------------------------------------------------------------------
// Drives
// ---------------------------------------------------------------------

/// One drive iteration.
#[derive(Debug, Clone, Default)]
struct DriveSample {
    wall: f64,
    failed: u64,
    claims: u64,
    requeues: u64,
    stale_publishes: u64,
    workers_spawned: u64,
    failures: u64,
    hits: u64,
    misses: u64,
    worker_failures: u64,
    /// Peak resident sets of the drive's workers summed, `None` if the
    /// exit of one was missed.
    worker_rss_kib: Option<u64>,
}

impl DriveSample {
    fn to_json(&self) -> String {
        let doc: BTreeMap<String, Value> = [
            ("wall_s", Value::from(self.wall)),
            ("failed_cells", self.failed.into()),
            ("claims", self.claims.into()),
            ("redispatches", self.requeues.into()),
            ("stale_publishes", self.stale_publishes.into()),
            ("workers_spawned", self.workers_spawned.into()),
            ("failures", self.failures.into()),
            ("failed_worker_exits", self.worker_failures.into()),
            (
                "worker_rss_kib",
                self.worker_rss_kib.map_or(Value::Null, Value::from),
            ),
            ("memo_hits", self.hits.into()),
            ("memo_misses", self.misses.into()),
        ]
        .into_iter()
        .map(|(k, v)| (k.to_owned(), v))
        .collect();
        serde_json::to_string(&Value::from(doc)).expect("plain numbers serialize")
    }
}

fn drive_sample(
    config: &RunConfig,
    dir: &Path,
    kill: bool,
    reference: &str,
    shard: &Path,
    trace: Option<&Path>,
) -> Result<DriveSample, String> {
    let mut opts = elastic_options(kill);
    opts.worker_exe = Some(shard.to_path_buf());
    opts.trace = trace.map(Path::to_path_buf);
    let bench = match trace {
        Some(_) => provtrace::Tracer::new("bench"),
        None => provtrace::Tracer::disabled(),
    };
    let span = bench.span_enter("bench.drive", None, Vec::new);
    let workers = ChildPeaks::watch();
    let t0 = Instant::now();
    let outcome = drive_elastic(WORKERS, config, dir, &opts);
    let wall = t0.elapsed().as_secs_f64();
    let peaks = workers.finish();
    let outcome = outcome.map_err(|e| format!("drive: {e}"))?;
    bench.span_exit("bench.drive", span);
    if let Some(trace) = trace {
        bench
            .write_to_dir(trace)
            .map_err(|e| format!("trace flush: {e}"))?;
    }
    Ok(DriveSample {
        wall,
        failed: differing_cells(&outcome.report, reference, 132),
        claims: file_names(&dir.join("claimed"))?.len() as u64,
        worker_rss_kib: (peaks.len() == outcome.workers_spawned)
            .then(|| peaks.iter().copied().sum::<Option<u64>>())
            .flatten(),
        requeues: outcome.requeues as u64,
        stale_publishes: outcome.stale_publishes as u64,
        workers_spawned: outcome.workers_spawned as u64,
        failures: outcome.failures.len() as u64,
        hits: outcome.memo.hits,
        misses: outcome.memo.misses,
        worker_failures: outcome.worker_exits.iter().filter(|e| !e.success).count() as u64,
    })
}

/// Artifact names in a run-dir subdirectory, temp files skipped.
fn file_names(dir: &Path) -> Result<Vec<String>, String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(entries
        .filter_map(Result::ok)
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|name| !name.starts_with('.'))
        .collect())
}

// ---------------------------------------------------------------------
// Set-up
// ---------------------------------------------------------------------

/// Build every cell's spec and tool, the lanes' memos, and start and
/// join the lanes: all an in-process iteration does before its first
/// cell.
fn in_process_setup(workload: Workload) -> f64 {
    let t0 = Instant::now();
    let jobs = jobs(workload);
    let tools: Vec<_> = jobs
        .iter()
        .map(|job| quick_tool(ToolKind::all()[job.tool]).instantiate())
        .collect();
    let memos: Vec<SolveMemo> = (0..WORKERS).map(|_| SolveMemo::new()).collect();
    std::thread::scope(|scope| {
        for memo in &memos {
            scope.spawn(move || black_box(memo));
        }
    });
    let elapsed = t0.elapsed().as_secs_f64();
    drop(black_box((jobs, tools, memos)));
    elapsed
}

/// `plan_cells` + `TaskStore::init` into a fresh run dir, then start
/// `WORKERS` worker processes and wait until each has opened the store
/// and exited on the (already raised, untimed) stop sentinel.
fn drive_setup(config: &RunConfig, dir: &Path, shard: &Path) -> Result<f64, String> {
    let t0 = Instant::now();
    let tasks = plan_cells(config);
    let store = TaskStore::init(dir, &tasks).map_err(|e| e.to_string())?;
    let planned = t0.elapsed();
    store.request_stop().map_err(|e| e.to_string())?;
    let t1 = Instant::now();
    let mut children: Vec<Child> = Vec::with_capacity(WORKERS);
    let mut spawn_error = None;
    for index in 0..WORKERS {
        let spawned = Command::new(shard)
            .arg("work")
            .arg(dir)
            .arg("--worker-index")
            .arg(index.to_string())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn();
        match spawned {
            Ok(child) => children.push(child),
            Err(e) => {
                spawn_error = Some(format!("worker start: {e}"));
                break;
            }
        }
    }
    let mut all_ok = true;
    for mut child in children {
        all_ok &= child.wait().is_ok_and(|status| status.success());
    }
    let started = t1.elapsed();
    if let Some(e) = spawn_error {
        return Err(e);
    }
    if !all_ok {
        return Err("a worker failed to start".to_owned());
    }
    Ok((planned + started).as_secs_f64())
}

// ---------------------------------------------------------------------
// The run
// ---------------------------------------------------------------------

/// Repeat `iteration` until one more would overrun `seconds` (at least
/// once); returns each iteration's result.
fn timed_loop<T>(
    seconds: f64,
    wall: impl Fn(&T) -> f64,
    mut iteration: impl FnMut(usize) -> Result<T, String>,
) -> Result<Vec<T>, String> {
    let start = Instant::now();
    let mut out: Vec<T> = Vec::new();
    loop {
        out.push(iteration(out.len())?);
        let walls: Vec<f64> = out.iter().map(&wall).collect();
        if start.elapsed().as_secs_f64() + median(&walls) > seconds {
            let shown: Vec<String> = walls.iter().map(|w| format!("{w:.4}")).collect();
            eprintln!("iteration walls (s): {}", shown.join(" "));
            return Ok(out);
        }
    }
}

fn median_of<T>(items: &[T], f: impl Fn(&T) -> f64) -> f64 {
    median(&items.iter().map(f).collect::<Vec<_>>())
}

/// What a run prints: the outcome, plus record lines printed before it.
pub struct RunOutput {
    pub outcome: Outcome,
    pub notes: Vec<String>,
    pub lines: Vec<String>,
}

/// Run one workload for about `spec.seconds` and collect its metrics:
/// the end-to-end set, or with `spec.trace` the per-layer set.
pub fn run(spec: &RunSpec) -> Result<RunOutput, String> {
    let workload = spec.workload;
    let config = run_config(spec.seed);
    let opts = &config.opts;
    let jobs = jobs(workload);
    let mut notes: Vec<String> = Vec::new();
    let mut lines: Vec<String> = Vec::new();
    let mut metrics: BTreeMap<&'static str, f64> = BTreeMap::new();

    let shard = match workload {
        Workload::Sweep => None,
        _ => Some(procs::build_worker()?),
    };
    let reference = Reference::compute(&jobs, &config, shard.as_deref(), &spec.root)?;
    let shard = shard.unwrap_or_default();
    let mut failed = reference.defects();
    let mut attempted = jobs.len() as u64;
    if failed > 0 {
        notes.push(format!(
            "reference has {failed} wrong cell(s) at seed {}",
            spec.seed
        ));
    }

    let scratch = |name: String| spec.root.join(name);
    // Drive set-ups are dominated by durable writes (132 fsynced task
    // files), whose latency on a shared disk drifts over tens of seconds,
    // so they are spread over the run: a few up front and more before
    // each drive.
    let mut setups: Vec<f64> = Vec::new();
    let mut time_setups = |reps: usize| -> Result<(), String> {
        if spec.trace {
            return Ok(());
        }
        for _ in 0..reps {
            setups.push(if workload.is_drive() {
                let dir = scratch(format!("setup-{}", setups.len()));
                let s = drive_setup(&config, &dir, &shard);
                std::fs::remove_dir_all(&dir).ok();
                s?
            } else {
                in_process_setup(workload)
            });
        }
        Ok(())
    };
    time_setups(if workload.is_drive() {
        SETUP_REPS_DRIVE
    } else {
        SETUP_REPS_IN_PROCESS
    })?;

    // In-process iterations: the whole measurement on table2-single and
    // scale-sweep; on the drives, a fixed few for the per-layer stage
    // metrics only.
    let mut first_outcomes: Option<Vec<CellOutcome>> = None;
    let mut keep_first = |(sample, outcomes): (Sample, Vec<CellOutcome>)| {
        first_outcomes.get_or_insert(outcomes);
        sample
    };
    let samples: Vec<Sample> = if workload.is_drive() {
        let passes = if spec.trace {
            DRIVE_IN_PROCESS_PASSES
        } else {
            0
        };
        (0..passes)
            .map(|_| in_process_sample(&jobs, opts, &reference, None).map(&mut keep_first))
            .collect::<Result<_, _>>()?
    } else {
        timed_loop(
            spec.seconds,
            |s: &Sample| s.wall,
            |_| in_process_sample(&jobs, opts, &reference, None).map(&mut keep_first),
        )?
    };
    attempted += samples.len() as u64 * jobs.len() as u64;
    failed += samples.iter().map(|s| s.failed).sum::<u64>();

    let expected = reference.report.clone().unwrap_or_default();
    let kill = workload == Workload::DriveKill;
    let drives: Vec<DriveSample> = if workload.is_drive() {
        timed_loop(
            spec.seconds,
            |d: &DriveSample| d.wall,
            |i| {
                time_setups(SETUP_REPS_PER_DRIVE)?;
                let dir = scratch(format!("drive-{i}"));
                let sample = drive_sample(&config, &dir, kill, &expected, &shard, None);
                std::fs::remove_dir_all(&dir).ok();
                sample
            },
        )?
    } else {
        Vec::new()
    };
    for drive in &drives {
        lines.push(format!("drive {}", drive.to_json()));
        attempted += jobs.len() as u64;
        failed += drive.failed;
        if kill && drive.worker_failures == 0 {
            notes.push("the injected worker kill did not happen".to_owned());
        }
        if !kill && drive.worker_failures > 0 {
            notes.push(format!(
                "{} worker(s) failed on a clean drive",
                drive.worker_failures
            ));
        }
    }

    let wall = if workload.is_drive() {
        median_of(&drives, |d| d.wall)
    } else {
        median_of(&samples, |s| s.wall)
    };
    if !spec.trace {
        let shown: Vec<String> = setups.iter().map(|s| format!("{s:.4}")).collect();
        eprintln!("set-ups (s): {}", shown.join(" "));
        metrics.insert("wall_s", wall);
        metrics.insert("setup_s", median(&setups));
        let workers = if workload.is_drive() {
            drives
                .iter()
                .filter_map(|d| d.worker_rss_kib)
                .max()
                .ok_or("no drive had every worker's exit measured")?
        } else {
            0
        };
        metrics.insert("peak_rss_mb", (peak_rss_kib() + workers) as f64 / 1024.0);
    } else {
        metrics.insert("processing_s", median_of(&samples, |s| s.processing));
        metrics.insert("cell_ms_p50", median_of(&samples, |s| s.cell_p50_ms));
        metrics.insert("cell_ms_p90", median_of(&samples, |s| s.cell_p90_ms));
        let outcomes = first_outcomes.unwrap_or_default();
        let traced = per_layer(
            spec,
            &config,
            &jobs,
            &reference,
            &shard,
            &samples,
            &drives,
            &outcomes,
            wall,
            &mut metrics,
        )?;
        attempted += jobs.len() as u64;
        failed += traced.failed;
        lines.push(format!("breakdown {}", traced.breakdown));
        metrics.insert("fail_ratio", failed as f64 / attempted as f64);
    }
    Ok(RunOutput {
        outcome: Outcome {
            correct: failed == 0 && notes.is_empty(),
            attempted,
            failed,
            metrics,
        },
        notes,
        lines,
    })
}

struct Traced {
    failed: u64,
    breakdown: String,
}

const STAGE_METRICS: [[&str; 4]; 3] = [
    [
        "record_s.spade",
        "transform_s.spade",
        "generalize_s.spade",
        "compare_s.spade",
    ],
    [
        "record_s.opus",
        "transform_s.opus",
        "generalize_s.opus",
        "compare_s.opus",
    ],
    [
        "record_s.camflow",
        "transform_s.camflow",
        "generalize_s.camflow",
        "compare_s.camflow",
    ],
];

/// Per-layer metrics: outside timings from the untraced iterations and
/// the probes, then one traced iteration folded into self-time.
#[allow(clippy::too_many_arguments)]
fn per_layer(
    spec: &RunSpec,
    config: &RunConfig,
    jobs: &[Job],
    reference: &Reference,
    shard: &Path,
    samples: &[Sample],
    drives: &[DriveSample],
    outcomes: &[CellOutcome],
    untraced_wall: f64,
    metrics: &mut BTreeMap<&'static str, f64>,
) -> Result<Traced, String> {
    let opts = &config.opts;
    for (tool, names) in STAGE_METRICS.iter().enumerate() {
        for (stage, name) in names.iter().enumerate() {
            metrics.insert(name, median_of(samples, |s| s.stages[tool][stage]));
        }
    }
    let (hits, misses) = if drives.is_empty() {
        (
            median_of(samples, |s| s.hits as f64),
            median_of(samples, |s| s.misses as f64),
        )
    } else {
        (
            median_of(drives, |d| d.hits as f64),
            median_of(drives, |d| d.misses as f64),
        )
    };
    metrics.insert("memo.hits", hits);
    metrics.insert("memo.misses", misses);
    metrics.insert("memo.hit_rate", hits / (hits + misses).max(1.0));

    let probe = probes::layer_probe(jobs, opts)?;
    metrics.insert(
        "kernel.events",
        probe.kernel_events as f64 / probe.trials.max(1) as f64,
    );
    metrics.insert("kernel.run_s", probe.kernel_run_s);
    metrics.insert("opus.warmup_s", probe.opus_warmup_s);
    metrics.insert("opus.store_io_s", probe.opus_store_io_s);
    metrics.insert("opus.stores", probe.opus_stores as f64);
    metrics.insert("compile_s", probe.compile_s);
    metrics.insert("graphs_compiled", probe.graphs_compiled as f64);

    let protocol = |f: fn(&DriveSample) -> u64| median_of(drives, |d| f(d) as f64);
    metrics.insert("protocol.claims", protocol(|d| d.claims));
    metrics.insert("protocol.redispatches", protocol(|d| d.requeues));
    metrics.insert("protocol.stale_publishes", protocol(|d| d.stale_publishes));
    metrics.insert("protocol.workers_spawned", protocol(|d| d.workers_spawned));
    metrics.insert("protocol.failures", protocol(|d| d.failures));
    let publish_ms = if drives.is_empty() {
        0.0
    } else {
        let dir = spec.root.join("publish-probe");
        let ms = probes::publish_probe(&dir, config, jobs, outcomes);
        std::fs::remove_dir_all(&dir).ok();
        ms?
    };
    metrics.insert("protocol.publish_ms", publish_ms);

    // The traced iteration.
    let trace_dir = spec.root.join("trace");
    std::fs::create_dir_all(&trace_dir).map_err(|e| format!("trace dir: {e}"))?;
    let (traced_wall, failed) = if drives.is_empty() {
        let (sample, _) = in_process_sample(jobs, opts, reference, Some(&trace_dir))?;
        (sample.wall, sample.failed)
    } else {
        let dir = spec.root.join("drive-traced");
        let expected = reference.report.as_deref().unwrap_or_default();
        let drive = drive_sample(
            config,
            &dir,
            spec.workload == Workload::DriveKill,
            expected,
            shard,
            Some(&trace_dir),
        );
        std::fs::remove_dir_all(&dir).ok();
        let drive = drive?;
        (drive.wall, drive.failed)
    };
    let folded = fold::fold_dir(&trace_dir)?;
    std::fs::remove_dir_all(&trace_dir).ok();
    let t = &folded.totals;
    metrics.insert("solve.searches", folded.solve_searches as f64);
    metrics.insert("solve.steps", folded.solve_steps as f64);
    metrics.insert("solve.backtracks", folded.solve_backtracks as f64);
    metrics.insert("solve_s", t["solve"]);
    metrics.insert("protocol.claim_overhead_s", t["protocol"]);
    metrics.insert("protocol.idle_s", t["idle"]);
    metrics.insert("protocol.heartbeats", folded.heartbeats as f64);
    metrics.insert("self.record_s", t["record"]);
    metrics.insert("self.transform_s", t["transform"]);
    metrics.insert("self.generalize_s", t["generalize"]);
    metrics.insert("self.compare_s", t["compare"]);
    metrics.insert("self.pipeline_s", t["pipeline"]);
    metrics.insert("self.bench_s", t["bench"]);
    metrics.insert("trace.overhead_ratio", traced_wall / untraced_wall);
    metrics.insert("trace.events", folded.events as f64);
    // Every lane's self-times sum to its lifetime; the longest lane (the
    // surviving worker on the kill drive) should span the traced wall.
    let coverage = folded.longest_lane_s / traced_wall;
    metrics.insert("trace.coverage", coverage);
    Ok(Traced {
        failed,
        breakdown: breakdown_json(spec, traced_wall, coverage, &folded),
    })
}

fn breakdown_json(spec: &RunSpec, traced_wall: f64, coverage: f64, b: &Breakdown) -> String {
    let layers = |m: &BTreeMap<&'static str, f64>| {
        Value::from(
            m.iter()
                .map(|(k, v)| ((*k).to_owned(), Value::from(*v)))
                .collect::<BTreeMap<String, Value>>(),
        )
    };
    let nested = |m: &BTreeMap<String, BTreeMap<&'static str, f64>>| {
        Value::from(
            m.iter()
                .map(|(k, v)| (k.clone(), layers(v)))
                .collect::<BTreeMap<String, Value>>(),
        )
    };
    let doc: BTreeMap<String, Value> = [
        ("workload", Value::from(spec.workload.name())),
        ("seed", Value::from(spec.seed)),
        ("traced_wall_s", Value::from(traced_wall)),
        ("lane_time_s", Value::from(b.lane_time_s)),
        ("lanes", Value::from(b.lane_count)),
        ("coverage", Value::from(coverage)),
        ("self_s", layers(&b.totals)),
        ("per_lane", nested(&b.lanes)),
        ("per_tool", nested(&b.tools)),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_owned(), v))
    .collect();
    serde_json::to_string(&Value::from(doc)).expect("plain numbers serialize")
}

/// Host and configuration the numbers were taken under.
pub fn provenance_json() -> String {
    let quick = ElasticOptions::quick();
    let doc: BTreeMap<String, Value> = [
        (
            "nproc",
            Value::from(std::thread::available_parallelism().map_or(0, |n| n.get())),
        ),
        (
            "target",
            Value::from(format!(
                "{}-{}",
                std::env::consts::ARCH,
                std::env::consts::OS
            )),
        ),
        ("opus_iterations", Value::from(OPUS_ITERATIONS)),
        ("workers", Value::from(WORKERS)),
        ("trials", Value::from(RunConfig::quick().opts.trials)),
        ("stale_after_ms", Value::from(ms(quick.stale_after))),
        (
            "heartbeat_ms",
            Value::from(ms(quick.heartbeat_interval.min(quick.stale_after / 4))),
        ),
        ("poll_ms", Value::from(ms(quick.poll_interval))),
        (
            "scale_factors",
            Value::from(
                SCALE_FACTORS
                    .iter()
                    .map(|&n| n as u64)
                    .collect::<Vec<u64>>(),
            ),
        ),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_owned(), v))
    .collect();
    serde_json::to_string(&Value::from(doc)).expect("plain numbers serialize")
}

fn ms(d: Duration) -> u64 {
    d.as_millis() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn differing_cells_counts_columns() {
        let a = "h | a | b | c\nx | ok | ok | ok\n\nagreement with paper Table 2: 3/3 cells\n";
        let b = "h | a | b | c\nx | ok | lost | ok\n\nagreement with paper Table 2: 2/3 cells\n";
        assert_eq!(differing_cells(a, a, 3), 0);
        assert_eq!(differing_cells(b, a, 3), 1);
        assert_eq!(differing_cells("short", a, 3), 3);
        assert_eq!(table2_disagreements(a), Some(0));
        assert_eq!(table2_disagreements(b), Some(1));
    }

    #[test]
    fn workloads_round_trip_by_name() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(jobs(Workload::Single).len(), 132);
        assert_eq!(jobs(Workload::Sweep).len(), 12);
    }
}
