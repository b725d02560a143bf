//! The end-to-end ProvMark pipeline (paper Figure 3), with per-stage
//! timing instrumentation used to regenerate Figures 5–10.
//!
//! # Session lifecycle
//!
//! Every [`run_benchmark`] call owns one
//! [`CorpusSession`](provgraph::compiled::CorpusSession) spanning the
//! whole run: the background and foreground trials are compiled into it
//! exactly once during generalization (WL fingerprints are memoized at
//! that same moment), the generalized representatives are added at the
//! comparison boundary (their vocabulary is already interned, so that
//! compile is near-free), and the subgraph comparison runs over session
//! handles — every matching problem in the run shares one interner and
//! never re-interns or re-compiles a graph. Within the run, the repeated
//! solves go through the batch solver: similarity classification
//! confirms each class representative against all unclassified bucket
//! members with one prepared left-hand plan
//! ([`generalize::similarity_classes_in`]), and the comparison prepares
//! the background side once per cell ([`compare::compare_in`]). A
//! session-level solve memo ([`aspsolver::SolveMemo`], one per run, on
//! by default via [`BenchmarkOptions::use_solve_memo`]) spans all those
//! stages, so dense searches replayed across batches, calls and
//! left-hand sides are looked up instead of re-run — with outcomes
//! byte-identical to memo-off runs, search statistics included. The
//! pipeline lowers back to [`PropertyGraph`] only where string
//! identifiers and mutable properties are the point: the generalized
//! representatives and the subtracted result graph handed to
//! [`crate::report`].
//!
//! [`run_matrix`] keeps one session *per cell* (cells run in parallel
//! and must stay independently reproducible), which is exactly the
//! per-run scope described above — but one solve memo is shared across
//! *all* cells: memo keys are interner-independent content hashes, so
//! an outcome cached under one cell's session is a valid (and
//! byte-identical) answer in every other. With
//! [`BenchmarkOptions::solve_cache`] set, that shared memo is warmed
//! from a persistent cache file before the fan-out and saved back
//! after, extending the replay across processes and restarts.

use std::time::{Duration, Instant};

use aspsolver::SolveMemo;
use provgraph::compiled::CorpusSession;
use provgraph::{diff, PropertyGraph};

use crate::generalize::{self, PairStrategy};
use crate::suite::BenchSpec;
use crate::tool::{NativeOutput, ToolInstance};
use crate::{compare, BenchmarkOptions, PipelineError};

/// Wall-clock time spent in each pipeline stage (one benchmark run).
#[derive(Debug, Clone, Copy, Default)]
pub struct StageTimings {
    /// Stage 1: running programs under the recorder.
    pub recording: Duration,
    /// Stage 2: native output → Datalog property graphs.
    pub transformation: Duration,
    /// Stage 3: similarity classes + property generalization.
    pub generalization: Duration,
    /// Stage 4: subgraph matching + subtraction.
    pub comparison: Duration,
}

impl StageTimings {
    /// Total processing time excluding recording (the quantity plotted in
    /// Figures 5–10).
    pub fn processing_total(&self) -> Duration {
        self.transformation + self.generalization + self.comparison
    }

    /// Render as the original's `/tmp/time.log` line: four comma-separated
    /// second counts (appendix A.6.4).
    pub fn time_log_line(&self, tool: &str, syscall: &str) -> String {
        format!(
            "{tool},{syscall},{:.6},{:.6},{:.6},{:.6}",
            self.recording.as_secs_f64(),
            self.transformation.as_secs_f64(),
            self.generalization.as_secs_f64(),
            self.comparison.as_secs_f64()
        )
    }
}

/// Verdict of one benchmark run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BenchStatus {
    /// The recorder captured the target activity (nonempty result graph).
    Ok,
    /// Foreground and background were indistinguishable.
    Empty,
}

impl BenchStatus {
    /// `true` for [`BenchStatus::Ok`].
    pub fn is_ok(self) -> bool {
        matches!(self, BenchStatus::Ok)
    }

    /// Lowercase rendering as in Table 2.
    pub fn render(self) -> &'static str {
        match self {
            BenchStatus::Ok => "ok",
            BenchStatus::Empty => "empty",
        }
    }
}

/// Complete output of one benchmark run.
#[derive(Debug, Clone)]
pub struct BenchmarkRun {
    /// Benchmark name.
    pub name: String,
    /// ok / empty verdict.
    pub status: BenchStatus,
    /// The benchmark result graph (target structure + dummy nodes).
    pub result: PropertyGraph,
    /// Generalized background graph.
    pub generalized_bg: PropertyGraph,
    /// Generalized foreground graph.
    pub generalized_fg: PropertyGraph,
    /// Per-stage wall-clock times.
    pub timings: StageTimings,
    /// Trials discarded as failed runs across both variants.
    pub discarded_trials: usize,
    /// Property-mismatch cost of the comparison matching.
    pub matching_cost: u64,
}

/// Record, transform and generalize one program variant, compiling its
/// trials into the run's shared session. Stage spans (`record`,
/// `transform`, `generalize`) land on `tracer` under `parent`; with the
/// default disabled tracer every span site is a no-op branch.
#[allow(clippy::too_many_arguments)]
fn prepare_variant(
    tool: &mut ToolInstance,
    session: &mut CorpusSession,
    spec: &BenchSpec,
    opts: &BenchmarkOptions,
    variant: &'static str,
    seed_base: u64,
    timings: &mut StageTimings,
    memo: Option<&SolveMemo>,
    tracer: &provtrace::Tracer,
    parent: Option<provtrace::SpanId>,
) -> Result<generalize::Generalized, PipelineError> {
    let variant_field = || vec![("variant", provtrace::Field::from(variant))];
    let program = if variant == "background" {
        spec.background()
    } else {
        spec.foreground()
    };
    let mut natives: Vec<NativeOutput> = Vec::with_capacity(opts.trials);
    // provlint: allow(direct-clock) -- wall-clock stage timing feeds the timings telemetry only; canonical reports carry no time
    let t0 = Instant::now();
    let span = tracer.span_enter("record", parent, variant_field);
    for i in 0..opts.trials {
        natives.push(tool.record(&program, seed_base + i as u64, opts.noise)?);
    }
    tracer.span_exit_with("record", span, || {
        vec![("trials", provtrace::Field::from(opts.trials))]
    });
    timings.recording += t0.elapsed();

    // provlint: allow(direct-clock) -- wall-clock stage timing feeds the timings telemetry only; canonical reports carry no time
    let t0 = Instant::now();
    let span = tracer.span_enter("transform", parent, variant_field);
    let mut graphs: Vec<PropertyGraph> = Vec::with_capacity(natives.len());
    let mut unparseable = 0usize;
    for native in natives {
        match tool.transform(native) {
            Ok(g) => graphs.push(g),
            // With graph filtering on, unusable trials are discarded like
            // failed runs instead of aborting the whole benchmark.
            Err(PipelineError::Transform { .. }) if opts.filter_graphs => unparseable += 1,
            Err(e) => return Err(e),
        }
    }
    tracer.span_exit_with("transform", span, || {
        vec![("unparseable", provtrace::Field::from(unparseable))]
    });
    timings.transformation += t0.elapsed();

    // provlint: allow(direct-clock) -- wall-clock stage timing feeds the timings telemetry only; canonical reports carry no time
    let t0 = Instant::now();
    let span = tracer.span_enter("generalize", parent, variant_field);
    let mut generalized =
        generalize::generalize_trials_in(session, &graphs, PairStrategy::default(), variant, memo)?;
    generalized.discarded += unparseable;
    tracer.span_exit_with("generalize", span, || {
        vec![("discarded", provtrace::Field::from(generalized.discarded))]
    });
    timings.generalization += t0.elapsed();
    Ok(generalized)
}

/// The run's telemetry sink per [`BenchmarkOptions::trace`]: an enabled
/// tracer labelled `label` when a trace directory is configured, the
/// free disabled tracer otherwise.
fn trace_tracer(opts: &BenchmarkOptions, label: &str) -> provtrace::Tracer {
    if opts.trace.is_some() {
        provtrace::Tracer::new(label)
    } else {
        provtrace::Tracer::disabled()
    }
}

/// Flush `tracer` durably into the configured trace directory. Like the
/// solve cache, telemetry is an observer, never a correctness
/// dependency: failures are reported on stderr and ignored.
fn flush_trace(tracer: &provtrace::Tracer, opts: &BenchmarkOptions) {
    if let Some(dir) = opts.trace.as_ref() {
        if let Err(e) = tracer.write_to_dir(dir) {
            eprintln!("trace {}: {e}; trace not saved", dir.display());
        }
    }
}

/// Run the full four-stage pipeline for one benchmark under one tool.
///
/// With [`BenchmarkOptions::use_solve_memo`] on, one solve memo spans
/// the run; with [`BenchmarkOptions::solve_cache`] also set, the memo is
/// warmed from that cache file first and the merged contents are saved
/// back afterwards (a missing file is a cold start; a corrupt one is
/// reported on stderr and ignored). Results are byte-identical in every
/// case.
///
/// # Errors
///
/// Propagates stage errors: benchmark failure, transformation errors, no
/// consistent trials, or a background graph that does not embed.
pub fn run_benchmark(
    tool: &mut ToolInstance,
    spec: &BenchSpec,
    opts: &BenchmarkOptions,
) -> Result<BenchmarkRun, PipelineError> {
    // One solve memo for the whole run: similarity confirmation, the
    // generalization matching and the comparison all replay each
    // other's dense searches, across both variants. Outcomes are
    // byte-identical with the memo off.
    let tracer = trace_tracer(opts, "run");
    let memo = opts
        .use_solve_memo
        .then(|| SolveMemo::new().with_tracer(tracer.clone()));
    load_solve_cache(memo.as_ref(), opts);
    let span = tracer.span_enter("benchmark", None, || {
        vec![("name", provtrace::Field::from(spec.name.as_str()))]
    });
    let run = run_benchmark_traced(tool, spec, opts, memo.as_ref(), &tracer, span);
    tracer.span_exit_with("benchmark", span, || {
        vec![(
            "status",
            provtrace::Field::from(match &run {
                Ok(r) => r.status.render(),
                Err(_) => "error",
            }),
        )]
    });
    save_solve_cache(memo.as_ref(), opts);
    flush_trace(&tracer, opts);
    run
}

/// Warm `memo` from [`BenchmarkOptions::solve_cache`], when both are
/// present. A missing file is a normal cold start; a corrupt or
/// unreadable one is reported on stderr and ignored — the run proceeds
/// cold and produces the identical report either way.
fn load_solve_cache(memo: Option<&SolveMemo>, opts: &BenchmarkOptions) {
    if let (Some(memo), Some(path)) = (memo, opts.solve_cache.as_ref()) {
        if let Err(e) = aspsolver::load_cache_file(memo, path) {
            eprintln!("solve cache {}: {e}; starting cold", path.display());
        }
    }
}

/// Save the memo's merged contents back to
/// [`BenchmarkOptions::solve_cache`], when both are present. Failures
/// are reported on stderr and ignored — the cache is an accelerator,
/// never a correctness dependency.
fn save_solve_cache(memo: Option<&SolveMemo>, opts: &BenchmarkOptions) {
    if let (Some(memo), Some(path)) = (memo, opts.solve_cache.as_ref()) {
        if let Err(e) = aspsolver::write_cache_file(memo, path) {
            eprintln!("solve cache {}: {e}; not saved", path.display());
        }
    }
}

/// [`run_benchmark`] with a caller-owned [`SolveMemo`] (and no cache
/// file I/O). Because memo keys are content hashes — independent of any
/// session or process — one memo may be shared across many runs and
/// cells: the matrix runner and the elastic workers thread a
/// process-wide memo through here. With `None` the run solves
/// memo-less. Outcomes are byte-identical in every case, search
/// statistics included.
///
/// # Errors
///
/// Propagates stage errors: benchmark failure, transformation errors, no
/// consistent trials, or a background graph that does not embed.
pub fn run_benchmark_with_memo(
    tool: &mut ToolInstance,
    spec: &BenchSpec,
    opts: &BenchmarkOptions,
    memo: Option<&SolveMemo>,
) -> Result<BenchmarkRun, PipelineError> {
    // Callers who attached a tracer to their memo get stage spans on
    // the same sink without widening this long-standing signature;
    // memo-less callers run untraced at this layer.
    let tracer = memo
        .map(|m| m.tracer().clone())
        .unwrap_or_else(provtrace::Tracer::disabled);
    run_benchmark_traced(tool, spec, opts, memo, &tracer, None)
}

/// [`run_benchmark_with_memo`] with an explicit telemetry sink and
/// parent span: stage spans (`record` / `transform` / `generalize` per
/// variant, `compare`) are parented under `parent` (a `cell` span in
/// the matrix runners). Tracing never changes outcomes; with a disabled
/// tracer every instrumentation site is one branch.
///
/// # Errors
///
/// Same contract as [`run_benchmark_with_memo`].
pub fn run_benchmark_traced(
    tool: &mut ToolInstance,
    spec: &BenchSpec,
    opts: &BenchmarkOptions,
    memo: Option<&SolveMemo>,
    tracer: &provtrace::Tracer,
    parent: Option<provtrace::SpanId>,
) -> Result<BenchmarkRun, PipelineError> {
    if opts.trials < 2 {
        return Err(PipelineError::NotEnoughTrials(opts.trials));
    }
    let mut timings = StageTimings::default();
    // One corpus session for the whole run: both variants' trials, the
    // generalized representatives and the comparison share one interner.
    let mut session = CorpusSession::new();
    // Distinct kernel seeds per variant so volatile values never repeat.
    let bg = prepare_variant(
        tool,
        &mut session,
        spec,
        opts,
        "background",
        opts.base_seed,
        &mut timings,
        memo,
        tracer,
        parent,
    )?;
    let fg = prepare_variant(
        tool,
        &mut session,
        spec,
        opts,
        "foreground",
        opts.base_seed + 10_000,
        &mut timings,
        memo,
        tracer,
        parent,
    )?;

    // provlint: allow(direct-clock) -- wall-clock stage timing feeds the timings telemetry only; canonical reports carry no time
    let t0 = Instant::now();
    let span = tracer.span_enter("compare", parent, Vec::new);
    // The generalized graphs are new (property-stripped) graphs, but
    // their entire vocabulary is already interned from the trials, so
    // adding them compiles without growing the symbol table.
    let bg_id = session.add(&bg.graph);
    let fg_id = session.add(&fg.graph);
    let cmp = compare::compare_in(&session, bg_id, fg_id, &fg.graph, memo)?;
    tracer.span_exit_with("compare", span, || {
        vec![("matching_cost", provtrace::Field::from(cmp.matching_cost))]
    });
    timings.comparison += t0.elapsed();

    let status = if diff::effective_size(&cmp.result) == 0 {
        BenchStatus::Empty
    } else {
        BenchStatus::Ok
    };
    Ok(BenchmarkRun {
        name: spec.name.clone(),
        status,
        result: cmp.result,
        generalized_bg: bg.graph,
        generalized_fg: fg.graph,
        timings,
        discarded_trials: bg.discarded + fg.discarded,
        matching_cost: cmp.matching_cost,
    })
}

/// Measured outcome for one (syscall, tool) cell of the results matrix.
#[derive(Debug, Clone)]
pub struct MeasuredCell {
    /// The run, when the pipeline completed.
    pub run: Option<BenchmarkRun>,
    /// Pipeline error text otherwise.
    pub error: Option<String>,
}

impl MeasuredCell {
    /// Render like a Table 2 cell (`ok`, `empty`, or `error: …`).
    pub fn render(&self) -> String {
        match (&self.run, &self.error) {
            (Some(run), _) => run.status.render().to_owned(),
            (None, Some(e)) => format!("error: {e}"),
            _ => "?".to_owned(),
        }
    }

    /// `true` when the pipeline completed with a nonempty result.
    pub fn is_ok(&self) -> bool {
        self.run.as_ref().is_some_and(|r| r.status.is_ok())
    }
}

/// Run the full Table 2 matrix: every Table 1 benchmark under every tool
/// (in its baseline configuration).
///
/// Benchmarks run **in parallel** across the machine's cores
/// ([`provgraph::par::par_map`]) — the pipeline's one level of
/// parallelism: everything inside a cell runs on its row's thread. Each
/// row instantiates its own tool handles, so every cell is
/// reproducible in isolation (the simulated kernel is
/// seeded per trial, and a fresh instance pins the session counter the
/// boot seed mixes in — a shared warm instance would make a cell's boot
/// ids depend on how many benchmarks ran before it).
///
/// `opus_db_iterations` overrides the simulated Neo4j startup cost so
/// tests can run the matrix quickly; pass `None` for the default.
///
/// This is the single-process reference run. The elastic protocol in the
/// `provshard` crate runs the same cells one at a time through
/// [`run_matrix_cell`] and reassembles them with [`merge_matrix_cells`]
/// into the identical report.
pub fn run_matrix(
    opts: &BenchmarkOptions,
    opus_db_iterations: Option<u64>,
) -> Vec<(crate::suite::Expectation, [MeasuredCell; 3])> {
    use crate::tool::ToolKind;
    let expectations = crate::suite::table2();
    // One process-wide memo shared by every cell: memo keys are content
    // hashes, valid across the per-cell sessions, so cross-cell replays
    // (the same background trials recur in every row) are lookups. With
    // a cache path the memo is warmed once before the fan-out and the
    // merged contents saved once after — no per-cell file traffic.
    let tracer = trace_tracer(opts, "matrix");
    let memo = opts
        .use_solve_memo
        .then(|| SolveMemo::new().with_tracer(tracer.clone()));
    load_solve_cache(memo.as_ref(), opts);
    let phase = tracer.span_enter("phase.execute", None, || {
        vec![("rows", provtrace::Field::from(expectations.len()))]
    });
    let cells = provgraph::par::par_map(&expectations, |exp| {
        // provlint: allow(panic-in-lib) -- rows come straight from the static table2, and every table2 row has a spec
        let spec = crate::suite::spec(exp.syscall).expect("table2 rows have specs");
        let row = tracer.span_enter("row", phase, || {
            vec![("syscall", provtrace::Field::from(exp.syscall))]
        });
        let cells = ToolKind::all().map(|kind| {
            measure_cell(
                &spec,
                kind,
                opts,
                opus_db_iterations,
                memo.as_ref(),
                &tracer,
                row,
            )
        });
        tracer.span_exit("row", row);
        cells
    });
    tracer.span_exit("phase.execute", phase);
    save_solve_cache(memo.as_ref(), opts);
    flush_trace(&tracer, opts);
    expectations.into_iter().zip(cells).collect()
}

/// Measure one (benchmark, tool) cell: build the tool exactly as the
/// full-matrix path does, instantiate a fresh handle, and run the
/// pipeline. Each cell is a pure function of `(spec, kind, opts,
/// opus_db_iterations)` — which is what makes per-cell elastic
/// execution byte-identical to the single-process [`run_matrix`]. The
/// memo (any memo, warm or cold) never changes that function's value,
/// only how much of it is re-derived.
fn measure_cell(
    spec: &crate::suite::BenchSpec,
    kind: crate::tool::ToolKind,
    opts: &BenchmarkOptions,
    opus_db_iterations: Option<u64>,
    memo: Option<&SolveMemo>,
    tracer: &provtrace::Tracer,
    parent: Option<provtrace::SpanId>,
) -> MeasuredCell {
    use crate::tool::{Tool, ToolKind};
    let tool = match (kind, opus_db_iterations) {
        (ToolKind::Opus, Some(iters)) => Tool::Opus(opus::OpusConfig {
            db_startup_iterations: iters,
            ..opus::OpusConfig::default()
        }),
        _ => Tool::baseline(kind),
    };
    let span = tracer.span_enter("cell", parent, || {
        vec![
            ("syscall", provtrace::Field::from(spec.name.as_str())),
            ("tool", provtrace::Field::from(kind.name())),
        ]
    });
    let mut inst = tool.instantiate();
    let cell = match run_benchmark_traced(&mut inst, spec, opts, memo, tracer, span) {
        Ok(run) => MeasuredCell {
            run: Some(run),
            error: None,
        },
        Err(e) => MeasuredCell {
            run: None,
            error: Some(e.to_string()),
        },
    };
    tracer.span_exit_with("cell", span, || {
        vec![("status", provtrace::Field::from(cell.render()))]
    });
    cell
}

/// Execute a single matrix cell — one `(syscall, tool column)` pair —
/// and summarize it. This is the unit of work the elastic shard runner
/// dispatches to workers; it reuses the exact tool-construction and
/// measurement path of [`run_matrix`], so a matrix reassembled from
/// per-cell outcomes is byte-identical to a single-process run.
///
/// # Errors
///
/// [`PipelineError::UnknownBenchmark`] when `syscall` is not a Table 2
/// row; [`PipelineError::UnknownTool`] when `tool` is not a matrix
/// column (0 = SPADE, 1 = OPUS, 2 = CamFlow). Per-cell *pipeline*
/// errors are reported inside the [`CellOutcome`], not raised — same
/// contract as [`run_matrix`].
pub fn run_matrix_cell(
    syscall: &str,
    tool: usize,
    opts: &BenchmarkOptions,
    opus_db_iterations: Option<u64>,
) -> Result<CellOutcome, PipelineError> {
    // A per-cell memo, warmed read-only from the cache file when one is
    // configured (never saved back — a one-cell unit of work doesn't
    // own the artifact; the elastic supervisor publishes merged state).
    let memo = opts.use_solve_memo.then(SolveMemo::new);
    load_solve_cache(memo.as_ref(), opts);
    run_matrix_cell_traced(
        syscall,
        tool,
        opts,
        opus_db_iterations,
        memo.as_ref(),
        &provtrace::Tracer::disabled(),
        None,
    )
}

/// [`run_matrix_cell`] with a caller-owned [`SolveMemo`] (and no cache
/// file I/O), an explicit telemetry sink and a parent span: the elastic
/// worker loop threads one worker-lifetime memo — warmed once from the
/// shared cache directory — through every cell it claims, and parents
/// each cell's `cell` span (and the stage spans beneath it) under its
/// own claim context. Outcomes are byte-identical with any memo or
/// none, traced or not.
///
/// # Errors
///
/// Same contract as [`run_matrix_cell`].
#[allow(clippy::too_many_arguments)]
pub fn run_matrix_cell_traced(
    syscall: &str,
    tool: usize,
    opts: &BenchmarkOptions,
    opus_db_iterations: Option<u64>,
    memo: Option<&SolveMemo>,
    tracer: &provtrace::Tracer,
    parent: Option<provtrace::SpanId>,
) -> Result<CellOutcome, PipelineError> {
    use crate::tool::ToolKind;
    let tools = ToolKind::all();
    let kind = *tools.get(tool).ok_or(PipelineError::UnknownTool {
        index: tool,
        tools: tools.len(),
    })?;
    let spec = crate::suite::spec(syscall).ok_or_else(|| PipelineError::UnknownBenchmark {
        name: syscall.to_owned(),
    })?;
    Ok(CellOutcome::of(&measure_cell(
        &spec,
        kind,
        opts,
        opus_db_iterations,
        memo,
        tracer,
        parent,
    )))
}

/// Typed record of one matrix cell abandoned by the elastic shard
/// runner: every dispatch ended in a dead worker, stale heartbeat or
/// torn artifact, and the retry budget ran out.
///
/// Carried by [`PipelineError::CellsExhausted`]; the merged report
/// renders the cell via [`CellFailure::lost_outcome`] instead of
/// silently omitting the row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellFailure {
    /// Table 2 row (benchmark syscall name).
    pub syscall: String,
    /// Tool column index (0 = SPADE, 1 = OPUS, 2 = CamFlow).
    pub tool: usize,
    /// How many dispatch attempts were made before giving up.
    pub attempts: u32,
    /// Why the last attempt was declared dead (stale heartbeat, torn
    /// artifact, …).
    pub detail: String,
}

impl CellFailure {
    /// Human name of the tool column (`"SPADE"` / `"OPUS"` /
    /// `"CamFlow"`), or the raw index if out of range.
    pub fn tool_name(&self) -> String {
        crate::tool::ToolKind::all()
            .get(self.tool)
            .map(|kind| kind.name().to_owned())
            .unwrap_or_else(|| format!("tool#{}", self.tool))
    }

    /// The placeholder outcome recorded in the merged matrix for this
    /// cell: a non-completed status that renders as a mismatch, so a
    /// degraded report is visibly degraded.
    pub fn lost_outcome(&self) -> CellOutcome {
        CellOutcome {
            status: format!(
                "lost: no worker completed this cell in {} attempt(s) ({})",
                self.attempts, self.detail
            ),
            matching_cost: None,
            discarded_trials: None,
            result_size: None,
        }
    }
}

impl std::fmt::Display for CellFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "`{}`/{} abandoned after {} attempt(s): {}",
            self.syscall,
            self.tool_name(),
            self.attempts,
            self.detail
        )
    }
}

/// Deterministically reassemble per-cell outcomes into the full matrix
/// (the merge step of the elastic protocol).
///
/// Output is in canonical Table 2 order with canonical tool columns
/// regardless of completion order, so a report rendered from it is
/// byte-identical to the single-process run's whenever every cell
/// completed.
///
/// # Errors
///
/// [`PipelineError::UnknownTool`] on an out-of-range tool column;
/// [`PipelineError::ShardMerge`] on a foreign row, a duplicate cell, or
/// missing cells (listed as `syscall/tool`) — the merge never emits a
/// silently partial report.
pub fn merge_matrix_cells(
    cells: impl IntoIterator<Item = (String, usize, CellOutcome)>,
) -> Result<Vec<(crate::suite::Expectation, [CellOutcome; 3])>, PipelineError> {
    let table = crate::suite::table2();
    let tools = crate::tool::ToolKind::all().len();
    let mut by_cell: std::collections::BTreeMap<(String, usize), CellOutcome> = Default::default();
    for (syscall, tool, outcome) in cells {
        if tool >= tools {
            return Err(PipelineError::UnknownTool { index: tool, tools });
        }
        if !table.iter().any(|exp| exp.syscall == syscall) {
            return Err(PipelineError::ShardMerge {
                detail: format!("foreign row `{syscall}` is not a Table 2 benchmark"),
            });
        }
        if by_cell.insert((syscall.clone(), tool), outcome).is_some() {
            return Err(PipelineError::ShardMerge {
                detail: format!("cell `{syscall}`/{tool} appears in more than one result"),
            });
        }
    }
    let mut rows = Vec::with_capacity(table.len());
    let mut missing: Vec<String> = Vec::new();
    for exp in table {
        let mut row: Vec<CellOutcome> = Vec::with_capacity(tools);
        for tool in 0..tools {
            match by_cell.remove(&(exp.syscall.to_owned(), tool)) {
                Some(outcome) => row.push(outcome),
                None => missing.push(format!("{}/{tool}", exp.syscall)),
            }
        }
        if let Ok(row) = <[CellOutcome; 3]>::try_from(row) {
            rows.push((exp, row));
        }
    }
    if !missing.is_empty() {
        return Err(PipelineError::ShardMerge {
            detail: format!(
                "{} cell(s) missing from the results: {}",
                missing.len(),
                missing.join(", ")
            ),
        });
    }
    Ok(rows)
}

/// Deterministic, serializable summary of one measured matrix cell —
/// the unit elastic workers publish between processes.
///
/// Everything here is a pure function of the cell's (seeded,
/// deterministic) pipeline run: no timings, no host state. Two runs of
/// the same cell on any machines produce equal summaries, which is what
/// makes the merged elastic report byte-identical to the single-process
/// one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellOutcome {
    /// `ok` / `empty` / `error: …`, exactly as [`MeasuredCell::render`].
    pub status: String,
    /// Property-mismatch cost of the comparison matching (`None` when
    /// the cell's pipeline errored).
    pub matching_cost: Option<u64>,
    /// Trials discarded as failed runs (`None` on pipeline error).
    pub discarded_trials: Option<usize>,
    /// Node + edge count of the benchmark result graph (`None` on
    /// pipeline error).
    pub result_size: Option<usize>,
}

impl CellOutcome {
    /// Summarize a measured cell.
    pub fn of(cell: &MeasuredCell) -> CellOutcome {
        CellOutcome {
            status: cell.render(),
            matching_cost: cell.run.as_ref().map(|r| r.matching_cost),
            discarded_trials: cell.run.as_ref().map(|r| r.discarded_trials),
            result_size: cell.run.as_ref().map(|r| r.result.size()),
        }
    }

    /// `true` when the pipeline completed with a nonempty result.
    pub fn is_ok(&self) -> bool {
        self.status == "ok"
    }

    /// `true` when the pipeline completed at all (ok or empty).
    pub fn completed(&self) -> bool {
        self.matching_cost.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite;
    use crate::tool::Tool;
    use opus::OpusConfig;

    fn fast_opus() -> Tool {
        Tool::Opus(OpusConfig {
            db_startup_iterations: 100,
            ..OpusConfig::default()
        })
    }

    #[test]
    fn creat_is_ok_for_all_three_tools() {
        let spec = suite::spec("creat").unwrap();
        for tool in [
            Tool::spade_baseline(),
            fast_opus(),
            Tool::camflow_baseline(),
        ] {
            let kind = tool.kind();
            let mut inst = tool.instantiate();
            let run = run_benchmark(&mut inst, &spec, &BenchmarkOptions::default()).unwrap();
            assert!(run.status.is_ok(), "{:?} must record creat", kind);
            assert!(run.result.size() > 0);
        }
    }

    #[test]
    fn exit_is_empty_everywhere() {
        let spec = suite::spec("exit").unwrap();
        for tool in [
            Tool::spade_baseline(),
            fast_opus(),
            Tool::camflow_baseline(),
        ] {
            let kind = tool.kind();
            let mut inst = tool.instantiate();
            let run = run_benchmark(&mut inst, &spec, &BenchmarkOptions::default()).unwrap();
            assert_eq!(
                run.status,
                BenchStatus::Empty,
                "{kind:?} exit must be empty (LP)"
            );
        }
    }

    #[test]
    fn volatile_properties_absent_from_result() {
        let spec = suite::spec("creat").unwrap();
        let mut inst = Tool::spade_baseline().instantiate();
        let run = run_benchmark(&mut inst, &spec, &BenchmarkOptions::default()).unwrap();
        for n in run.generalized_bg.nodes() {
            assert!(
                !n.props.contains_key("seen time"),
                "volatile timestamp must be generalized away: {:?}",
                n
            );
        }
        for e in run.generalized_fg.edges() {
            assert!(!e.props.contains_key("time"));
        }
    }

    #[test]
    fn result_contains_target_structure_with_dummies() {
        let spec = suite::spec("creat").unwrap();
        let mut inst = Tool::spade_baseline().instantiate();
        let run = run_benchmark(&mut inst, &spec, &BenchmarkOptions::default()).unwrap();
        // creat: new artifact node + WasGeneratedBy edge; the process node
        // is background and must appear only as a dummy.
        assert!(run
            .result
            .edges()
            .any(|e| e.label.as_str() == "WasGeneratedBy"));
        let dummies: Vec<_> = run
            .result
            .nodes()
            .filter(|n| provgraph::diff::is_dummy(&run.result, &n.id))
            .collect();
        assert!(!dummies.is_empty(), "process anchor should be a dummy");
    }

    #[test]
    fn memo_on_run_identical_to_memo_off() {
        // The solve memo must be invisible in every run observable:
        // status, result graph, generalized graphs, matching cost,
        // discarded-trial count. And with no threads inside a run, a
        // fresh memo's hit/miss counts are a pure function of the run.
        let spec = suite::spec("creat").unwrap();
        let on = BenchmarkOptions::default();
        assert!(on.use_solve_memo, "memo is the default");
        let off = BenchmarkOptions {
            use_solve_memo: false,
            ..BenchmarkOptions::default()
        };
        for tool in [
            Tool::spade_baseline(),
            fast_opus(),
            Tool::camflow_baseline(),
        ] {
            let kind = tool.kind();
            let run_on = run_benchmark(&mut tool.clone().instantiate(), &spec, &on).unwrap();
            let run_off = run_benchmark(&mut tool.clone().instantiate(), &spec, &off).unwrap();
            assert_eq!(run_on.status, run_off.status, "{kind:?}");
            assert_eq!(run_on.result, run_off.result, "{kind:?}");
            assert_eq!(run_on.generalized_bg, run_off.generalized_bg, "{kind:?}");
            assert_eq!(run_on.generalized_fg, run_off.generalized_fg, "{kind:?}");
            assert_eq!(run_on.matching_cost, run_off.matching_cost, "{kind:?}");
            assert_eq!(
                run_on.discarded_trials, run_off.discarded_trials,
                "{kind:?}"
            );
            let counts = || {
                let memo = SolveMemo::new();
                run_benchmark_with_memo(&mut tool.clone().instantiate(), &spec, &on, Some(&memo))
                    .unwrap();
                (memo.hits(), memo.misses())
            };
            let first = counts();
            assert_eq!(first, counts(), "{kind:?}");
            assert!(first.1 > 0, "{kind:?}: a fresh memo must miss");
        }
    }

    #[test]
    fn cache_cold_warm_and_off_runs_are_identical() {
        // The persistent solve cache must be invisible in every run
        // observable, whether the run starts cold (no cache file), warm
        // (file populated by a previous run) or with the cache — or the
        // whole memo — disabled; and a corrupt cache file must degrade
        // to a cold start, not an error or a different answer.
        let dir = std::env::temp_dir().join(format!("provmark-core-cache-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let cache = dir.join("solve.cache");
        let spec = suite::spec("creat").unwrap();
        let cached = BenchmarkOptions {
            solve_cache: Some(cache.clone()),
            ..BenchmarkOptions::default()
        };
        let uncached = BenchmarkOptions::default();
        let observables = |run: &BenchmarkRun| {
            (
                run.status,
                run.result.clone(),
                run.generalized_bg.clone(),
                run.generalized_fg.clone(),
                run.matching_cost,
                run.discarded_trials,
            )
        };
        let run_with = |opts: &BenchmarkOptions| {
            let mut inst = Tool::spade_baseline().instantiate();
            observables(&run_benchmark(&mut inst, &spec, opts).unwrap())
        };
        let cold = run_with(&cached);
        assert!(cache.is_file(), "a cold cached run must save its memo back");
        let warm = run_with(&cached);
        let off = run_with(&uncached);
        assert_eq!(cold, warm, "cold and warm cached runs must agree");
        assert_eq!(cold, off, "cached and uncached runs must agree");
        std::fs::write(&cache, b"not a solve cache at all").unwrap();
        let corrupt = run_with(&cached);
        assert_eq!(cold, corrupt, "a corrupt cache must mean a cold start");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn noise_trials_are_filtered_with_enough_trials() {
        let spec = suite::spec("creat").unwrap();
        let mut inst = Tool::spade_baseline().instantiate();
        let opts = BenchmarkOptions {
            trials: 6,
            noise: true,
            ..BenchmarkOptions::default()
        };
        let run = run_benchmark(&mut inst, &spec, &opts).unwrap();
        assert!(run.status.is_ok());
        assert!(
            run.discarded_trials > 0,
            "noisy trials must be discarded as failed runs"
        );
    }

    #[test]
    fn one_trial_is_rejected() {
        let spec = suite::spec("creat").unwrap();
        let mut inst = Tool::spade_baseline().instantiate();
        let opts = BenchmarkOptions {
            trials: 1,
            ..BenchmarkOptions::default()
        };
        assert!(matches!(
            run_benchmark(&mut inst, &spec, &opts),
            Err(PipelineError::NotEnoughTrials(1))
        ));
    }

    #[test]
    fn per_cell_execution_matches_per_row_execution() {
        // `run_matrix_cell` (the elastic unit of work) must produce
        // outcomes equal to the same cells of the single-process matrix
        // run — the foundation of the byte-identity invariant for
        // elastic runs.
        let opts = BenchmarkOptions::default();
        let rows = run_matrix(&opts, Some(100));
        let (_, row) = rows
            .iter()
            .find(|(exp, _)| exp.syscall == "creat")
            .expect("creat is a Table 2 row");
        for (tool, measured) in row.iter().enumerate() {
            let cell = run_matrix_cell("creat", tool, &opts, Some(100)).unwrap();
            assert_eq!(
                cell,
                CellOutcome::of(measured),
                "tool column {tool} diverges"
            );
        }
    }

    #[test]
    fn cell_runner_validates_names_and_tools() {
        let opts = BenchmarkOptions::default();
        let err = run_matrix_cell("frobnicate", 0, &opts, Some(100)).unwrap_err();
        assert!(matches!(err, PipelineError::UnknownBenchmark { name } if name == "frobnicate"));
        let err = run_matrix_cell("creat", 3, &opts, Some(100)).unwrap_err();
        assert!(matches!(
            err,
            PipelineError::UnknownTool { index: 3, tools: 3 }
        ));
    }

    fn ok_cell() -> CellOutcome {
        CellOutcome {
            status: "ok".into(),
            matching_cost: Some(0),
            discarded_trials: Some(0),
            result_size: Some(1),
        }
    }

    #[test]
    fn cell_merge_restores_canonical_order_and_validates() {
        let table = crate::suite::table2();
        // Full coverage in reverse order merges into canonical order.
        let mut cells: Vec<(String, usize, CellOutcome)> = Vec::new();
        for exp in table.iter().rev() {
            for tool in (0..3).rev() {
                cells.push((exp.syscall.to_owned(), tool, ok_cell()));
            }
        }
        let merged = merge_matrix_cells(cells).unwrap();
        assert_eq!(merged.len(), table.len());
        for ((exp, _), want) in merged.iter().zip(&table) {
            assert_eq!(exp.syscall, want.syscall, "canonical order restored");
        }

        let err = merge_matrix_cells(vec![("creat".to_owned(), 5, ok_cell())]).unwrap_err();
        assert!(matches!(
            err,
            PipelineError::UnknownTool { index: 5, tools: 3 }
        ));
    }

    #[test]
    fn merge_rejects_missing_duplicate_and_foreign_rows() {
        let err = merge_matrix_cells(vec![("frobnicate".to_owned(), 0, ok_cell())]).unwrap_err();
        assert!(matches!(err, PipelineError::ShardMerge { detail } if detail.contains("foreign")));

        let err = merge_matrix_cells(vec![
            ("creat".to_owned(), 0, ok_cell()),
            ("creat".to_owned(), 0, ok_cell()),
        ])
        .unwrap_err();
        assert!(
            matches!(&err, PipelineError::ShardMerge { detail } if detail.contains("more than one")),
            "{err}"
        );

        let err = merge_matrix_cells(vec![("creat".to_owned(), 0, ok_cell())]).unwrap_err();
        assert!(
            matches!(&err, PipelineError::ShardMerge { detail }
                if detail.contains("missing") && detail.contains("creat/1")),
            "{err}"
        );
    }

    #[test]
    fn lost_outcome_is_visibly_degraded() {
        let failure = CellFailure {
            syscall: "creat".into(),
            tool: 1,
            attempts: 3,
            detail: "heartbeat stale".into(),
        };
        assert_eq!(failure.tool_name(), "OPUS");
        let lost = failure.lost_outcome();
        assert!(!lost.completed(), "lost cells must not count as completed");
        assert!(lost.status.starts_with("lost:"), "{}", lost.status);
        assert!(lost.status.contains("3 attempt(s)"), "{}", lost.status);
        let text = failure.to_string();
        assert!(text.contains("`creat`/OPUS"), "{text}");
    }

    #[test]
    fn timings_are_populated() {
        let spec = suite::spec("open").unwrap();
        let mut inst = Tool::spade_baseline().instantiate();
        let run = run_benchmark(&mut inst, &spec, &BenchmarkOptions::default()).unwrap();
        assert!(run.timings.recording > Duration::ZERO);
        assert!(run.timings.processing_total() > Duration::ZERO);
        let line = run.timings.time_log_line("spg", "open");
        assert!(line.starts_with("spg,open,"));
        assert_eq!(line.split(',').count(), 6);
    }
}
