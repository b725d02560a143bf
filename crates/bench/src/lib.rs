//! Shared harness code for regenerating the ProvMark paper's tables and
//! figures (see `src/bin/` for the table binaries and `benches/` for the
//! Criterion figure benchmarks; DESIGN.md maps each experiment to its
//! target).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::time::Duration;

use provmark_core::pipeline::{self, BenchmarkRun};
use provmark_core::scale::scale_spec;
use provmark_core::suite::{self, BenchSpec};
use provmark_core::tool::{Tool, ToolInstance, ToolKind};
use provmark_core::{BenchmarkOptions, PipelineError};

/// The five representative syscalls of Figures 5–7.
pub const FIGURE_SYSCALLS: [&str; 5] = ["open", "execve", "fork", "setuid", "rename"];

/// Simulated Neo4j startup iterations used by the harness for OPUS.
///
/// The paper's absolute numbers (minutes of JVM warmup) are scaled to
/// milliseconds; the *shape* — OPUS transformation dominating every other
/// stage and tool — is preserved. EXPERIMENTS.md records the scaling.
pub const OPUS_DB_ITERATIONS: u64 = 2_000_000;

/// Instantiate a tool in the configuration the harness benchmarks.
pub fn harness_tool(kind: ToolKind) -> ToolInstance {
    match kind {
        ToolKind::Opus => Tool::Opus(opus::OpusConfig {
            db_startup_iterations: OPUS_DB_ITERATIONS,
            ..Default::default()
        })
        .instantiate(),
        other => Tool::baseline(other).instantiate(),
    }
}

/// Run one benchmark and return the run (panicking on pipeline errors —
/// harness context where every suite benchmark is expected to complete).
pub fn run_spec(kind: ToolKind, spec: &BenchSpec, opts: &BenchmarkOptions) -> BenchmarkRun {
    let mut tool = harness_tool(kind);
    pipeline::run_benchmark(&mut tool, spec, opts)
        .unwrap_or_else(|e| panic!("{} / {}: {e}", kind.name(), spec.name))
}

/// Run one named suite benchmark.
pub fn run_named(kind: ToolKind, name: &str, opts: &BenchmarkOptions) -> BenchmarkRun {
    let spec = suite::spec(name).unwrap_or_else(|| panic!("unknown benchmark {name}"));
    run_spec(kind, &spec, opts)
}

/// Run a scaleN workload.
pub fn run_scale(kind: ToolKind, n: usize, opts: &BenchmarkOptions) -> BenchmarkRun {
    run_spec(kind, &scale_spec(n), opts)
}

/// One row of figure data: per-stage seconds for one benchmark.
#[derive(Debug, Clone)]
pub struct StageRow {
    /// Benchmark name (syscall or scaleN).
    pub name: String,
    /// Transformation seconds.
    pub transformation: f64,
    /// Generalization seconds.
    pub generalization: f64,
    /// Comparison seconds.
    pub comparison: f64,
}

impl StageRow {
    /// Extract the plotted stages from a run.
    pub fn from_run(run: &BenchmarkRun) -> Self {
        StageRow {
            name: run.name.clone(),
            transformation: run.timings.transformation.as_secs_f64(),
            generalization: run.timings.generalization.as_secs_f64(),
            comparison: run.timings.comparison.as_secs_f64(),
        }
    }

    /// Sum of the plotted stages.
    pub fn total(&self) -> f64 {
        self.transformation + self.generalization + self.comparison
    }
}

/// Render stage rows as the text analogue of the paper's stacked bar
/// charts (Figures 5–10).
pub fn render_stage_rows(title: &str, rows: &[StageRow]) -> String {
    let mut out = format!("{title}\n");
    out.push_str(&format!(
        "{:<10} {:>16} {:>16} {:>14} {:>12}\n",
        "bench", "transform (s)", "generalize (s)", "compare (s)", "total (s)"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<10} {:>16.6} {:>16.6} {:>14.6} {:>12.6}\n",
            r.name,
            r.transformation,
            r.generalization,
            r.comparison,
            r.total()
        ));
    }
    out
}

/// Collect Figure 5/6/7 data: the five representative syscalls under one
/// tool, averaged over `repeats` pipeline executions.
pub fn figure_stage_rows(kind: ToolKind, repeats: u32) -> Vec<StageRow> {
    let opts = BenchmarkOptions::default();
    FIGURE_SYSCALLS
        .iter()
        .map(|name| {
            let mut acc = (Duration::ZERO, Duration::ZERO, Duration::ZERO);
            for _ in 0..repeats {
                let run = run_named(kind, name, &opts);
                acc.0 += run.timings.transformation;
                acc.1 += run.timings.generalization;
                acc.2 += run.timings.comparison;
            }
            StageRow {
                name: (*name).to_owned(),
                transformation: acc.0.as_secs_f64() / f64::from(repeats),
                generalization: acc.1.as_secs_f64() / f64::from(repeats),
                comparison: acc.2.as_secs_f64() / f64::from(repeats),
            }
        })
        .collect()
}

/// Collect Figure 8/9/10 data: scale1/2/4/8 under one tool.
pub fn scaling_stage_rows(kind: ToolKind, repeats: u32) -> Vec<StageRow> {
    let opts = BenchmarkOptions::default();
    provmark_core::scale::SCALE_FACTORS
        .iter()
        .map(|&n| {
            let mut acc = (Duration::ZERO, Duration::ZERO, Duration::ZERO);
            for _ in 0..repeats {
                let run = run_scale(kind, n, &opts);
                acc.0 += run.timings.transformation;
                acc.1 += run.timings.generalization;
                acc.2 += run.timings.comparison;
            }
            StageRow {
                name: format!("scale{n}"),
                transformation: acc.0.as_secs_f64() / f64::from(repeats),
                generalization: acc.1.as_secs_f64() / f64::from(repeats),
                comparison: acc.2.as_secs_f64() / f64::from(repeats),
            }
        })
        .collect()
}

/// Run the whole Table 2 matrix in harness configuration.
pub fn table2_rows(
    opts: &BenchmarkOptions,
) -> Vec<(suite::Expectation, [pipeline::MeasuredCell; 3])> {
    pipeline::run_matrix(opts, Some(OPUS_DB_ITERATIONS / 100))
}

/// Produce a benchmark result graph for a (tool, syscall) pair, tolerating
/// empty results (Table 3 shows several deliberately empty cells).
pub fn table3_cell(kind: ToolKind, name: &str) -> Result<BenchmarkRun, PipelineError> {
    let spec = suite::spec(name).expect("table3 names are in the suite");
    let mut tool = harness_tool(kind);
    pipeline::run_benchmark(&mut tool, &spec, &BenchmarkOptions::default())
}

/// Prepared per-variant trial graphs (post-transformation), for benching
/// the generalization stage in isolation.
pub fn prepare_trial_graphs(
    kind: ToolKind,
    spec: &BenchSpec,
    trials: usize,
) -> (Vec<provgraph::PropertyGraph>, Vec<provgraph::PropertyGraph>) {
    let mut tool = harness_tool(kind);
    let mut collect = |program: &oskernel::program::Program, base: u64| {
        (0..trials)
            .map(|i| {
                let native = tool
                    .record(program, base + i as u64, false)
                    .expect("benchmark records");
                tool.transform(native).expect("native output transforms")
            })
            .collect::<Vec<_>>()
    };
    let bg = collect(&spec.background(), 1);
    let fg = collect(&spec.foreground(), 10_001);
    (bg, fg)
}

/// Prepared generalized background/foreground graphs, for benching the
/// comparison stage in isolation.
pub fn prepare_generalized(
    kind: ToolKind,
    spec: &BenchSpec,
) -> (provgraph::PropertyGraph, provgraph::PropertyGraph) {
    let (bg, fg) = prepare_trial_graphs(kind, spec, 2);
    let strategy = provmark_core::generalize::PairStrategy::default();
    let bg = provmark_core::generalize::generalize_trials(&bg, strategy, "background")
        .expect("background generalizes")
        .graph;
    let fg = provmark_core::generalize::generalize_trials(&fg, strategy, "foreground")
        .expect("foreground generalizes")
        .graph;
    (bg, fg)
}

/// Native text outputs (DOT or PROV-JSON) for benching text-format
/// transformation in isolation. Panics for OPUS, whose native output is a
/// store, not text — bench that with [`prepare_opus_store`].
pub fn native_texts(kind: ToolKind, spec: &BenchSpec, trials: usize) -> Vec<String> {
    let mut tool = harness_tool(kind);
    (0..trials)
        .map(|i| {
            let native = tool
                .record(&spec.foreground(), 20_001 + i as u64, false)
                .expect("benchmark records");
            match native {
                provmark_core::tool::NativeOutput::Dot(s) => s,
                provmark_core::tool::NativeOutput::ProvJson(s) => s,
                provmark_core::tool::NativeOutput::Neo4j(_) => {
                    panic!("OPUS output is a store; use prepare_opus_store")
                }
            }
        })
        .collect()
}

/// A freshly ingested in-memory OPUS store for one foreground trial.
/// Its export (simulated Neo4j startup, then parsing the committed JSON)
/// is the transformation work to bench.
pub fn prepare_opus_store(spec: &BenchSpec, seed: u64) -> opus::Neo4jStore {
    let recorder = opus::OpusRecorder::baseline();
    let mut prog_kernel = oskernel::Kernel::with_seed(seed);
    prog_kernel.run_program(&spec.foreground());
    let mut store = opus::Neo4jStore::new(OPUS_DB_ITERATIONS);
    recorder
        .record_to_store(prog_kernel.event_log(), &mut store)
        .expect("store ingests");
    store
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prepared_data_helpers_work() {
        let spec = suite::spec("open").unwrap();
        let (bg, fg) = prepare_trial_graphs(ToolKind::Spade, &spec, 2);
        assert_eq!(bg.len(), 2);
        assert_eq!(fg.len(), 2);
        let (gbg, gfg) = prepare_generalized(ToolKind::Spade, &spec);
        assert!(gfg.size() > gbg.size());
        let texts = native_texts(ToolKind::CamFlow, &spec, 1);
        assert!(texts[0].contains("entity"));
        let mut store = prepare_opus_store(&spec, 5);
        assert!(store.export().unwrap().node_count() > 0);
    }

    #[test]
    fn figure_rows_have_five_benchmarks() {
        let rows = figure_stage_rows(ToolKind::Spade, 1);
        assert_eq!(rows.len(), 5);
        assert!(rows.iter().all(|r| r.total() > 0.0));
        let text = render_stage_rows("Figure 5", &rows);
        assert!(text.contains("execve"));
    }

    #[test]
    fn scaling_rows_have_four_factors() {
        let rows = scaling_stage_rows(ToolKind::Spade, 1);
        assert_eq!(rows.len(), 4);
        assert_eq!(rows[3].name, "scale8");
    }
}
