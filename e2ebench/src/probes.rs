//! Layer probes: time single layers from outside, through their public
//! functions, on the workload's own trials.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use opus::neo4jsim::warmup_work;
use opus::{Neo4jStore, OpusConfig, OpusRecorder};
use oskernel::Kernel;
use provgraph::compiled::CorpusSession;
use provmark_core::pipeline::CellOutcome;
use provmark_core::tool::ToolKind;
use provmark_core::BenchmarkOptions;
use provshard::elastic::{CellResult, MemoCounters, TaskStore};
use provshard::RunConfig;

use crate::workloads::{quick_tool, Job, OPUS_ITERATIONS};

/// What the kernel, OPUS store and compile probes measured.
#[derive(Debug, Default)]
pub struct LayerProbe {
    /// Kernel trials replayed.
    pub trials: u64,
    /// Event-log records over those trials.
    pub kernel_events: u64,
    /// Time in `Kernel::run_program`.
    pub kernel_run_s: f64,
    /// Time in `warmup_work`, once per OPUS trial.
    pub opus_warmup_s: f64,
    /// Time in `Neo4jStore` create + ingest + export (no warmup) + drop.
    pub opus_store_io_s: f64,
    /// Stores created.
    pub opus_stores: u64,
    /// Time in `CorpusSession::add` over the trial graphs.
    pub compile_s: f64,
    /// Trial graphs compiled.
    pub graphs_compiled: u64,
}

/// Replay every trial of `jobs` (both variants) on fresh kernels, store
/// the OPUS trials through the simulated Neo4j store, and compile every
/// cell's transformed trial graphs into a fresh session.
pub fn layer_probe(jobs: &[Job], opts: &BenchmarkOptions) -> Result<LayerProbe, String> {
    let mut probe = LayerProbe::default();
    let recorder = OpusRecorder::new(OpusConfig {
        db_startup_iterations: OPUS_ITERATIONS,
        ..OpusConfig::default()
    });
    for job in jobs {
        let kind = ToolKind::all()[job.tool];
        let variants = [
            (job.spec.background(), opts.base_seed),
            (job.spec.foreground(), opts.base_seed + 10_000),
        ];
        // The boot seeds mirror `ToolInstance::record`: the trial seed
        // mixed with the instance's session counter.
        let mut session = 0u64;
        for (program, base) in &variants {
            for trial in 0..opts.trials as u64 {
                session += 1;
                let seed = base + trial;
                let boot = seed
                    .wrapping_mul(0x100000001B3)
                    .wrapping_add(session.wrapping_mul(0x9E3779B97F4A7C15));
                let t0 = Instant::now();
                let mut kernel = Kernel::with_seed(boot);
                kernel.startup_noise = opts.noise && seed.is_multiple_of(5);
                black_box(kernel.run_program(program));
                probe.kernel_run_s += t0.elapsed().as_secs_f64();
                probe.trials += 1;
                probe.kernel_events += kernel.event_log().len() as u64;
                if kind == ToolKind::Opus {
                    let graph = recorder.record_graph(kernel.event_log());
                    let t0 = Instant::now();
                    black_box(warmup_work(black_box(OPUS_ITERATIONS)));
                    probe.opus_warmup_s += t0.elapsed().as_secs_f64();
                    let t0 = Instant::now();
                    let mut store = Neo4jStore::create_temp(0).map_err(|e| e.to_string())?;
                    store.ingest(&graph).map_err(|e| e.to_string())?;
                    black_box(store.export().map_err(|e| e.to_string())?);
                    drop(store);
                    probe.opus_store_io_s += t0.elapsed().as_secs_f64();
                    probe.opus_stores += 1;
                }
            }
        }
        let mut tool = quick_tool(kind).instantiate();
        let mut graphs = Vec::with_capacity(2 * opts.trials);
        for (program, base) in &variants {
            for trial in 0..opts.trials as u64 {
                let native = tool
                    .record(program, base + trial, opts.noise)
                    .map_err(|e| e.to_string())?;
                graphs.push(tool.transform(native).map_err(|e| e.to_string())?);
            }
        }
        let mut corpus = CorpusSession::new();
        let t0 = Instant::now();
        for graph in &graphs {
            black_box(corpus.add(graph));
        }
        probe.compile_s += t0.elapsed().as_secs_f64();
        probe.graphs_compiled += graphs.len() as u64;
    }
    Ok(probe)
}

/// Publish every cell outcome into a fresh task store at `dir`; mean
/// milliseconds per `TaskStore::publish`.
pub fn publish_probe(
    dir: &Path,
    config: &RunConfig,
    jobs: &[Job],
    cells: &[CellOutcome],
) -> Result<f64, String> {
    let store = TaskStore::init(dir, &[]).map_err(|e| e.to_string())?;
    let t0 = Instant::now();
    for (job, cell) in jobs.iter().zip(cells) {
        let result = CellResult {
            syscall: job.spec.name.clone(),
            tool: job.tool,
            epoch: 1,
            config: config.clone(),
            cell: cell.clone(),
            memo: MemoCounters::default(),
        };
        store.publish(&result).map_err(|e| e.to_string())?;
    }
    Ok(t0.elapsed().as_secs_f64() * 1e3 / cells.len().max(1) as f64)
}
