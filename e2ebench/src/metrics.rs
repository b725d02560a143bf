//! The benchmark's metric registry and its result line.
//!
//! Every metric the benchmark can report is named here once, with its
//! unit, the layer (workspace module) it belongs to, and the end-to-end
//! metric and workload it is expected to move. `e2ebench metrics`
//! prints this table; the run refuses to print a result whose metric
//! set differs from it.

use std::collections::BTreeMap;

/// One named metric.
pub struct Metric {
    /// Metric name, as printed in the result line.
    pub name: &'static str,
    /// Unit of the value.
    pub unit: &'static str,
    /// Workspace module the metric measures (`-` for end-to-end).
    pub layer: &'static str,
    /// What the metric is, and for a per-layer metric which end-to-end
    /// metric on which workload it should move.
    pub about: &'static str,
}

impl Metric {
    /// Which direction is an improvement.
    pub fn better(&self) -> &'static str {
        match self.name {
            "memo.hits" | "memo.hit_rate" | "trace.coverage" => "higher",
            _ => "lower",
        }
    }
}

const fn m(
    name: &'static str,
    unit: &'static str,
    layer: &'static str,
    about: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        layer,
        about,
    }
}

/// End-to-end metrics: reported by every workload with `--trace 0`,
/// all measured with tracing off.
pub const END_TO_END: &[Metric] = &[
    m("wall_s", "s", "-", "median wall-clock of one workload iteration (one full drive, matrix or sweep)"),
    m("setup_s", "s", "-", "median time before the first cell can start: plan_cells + TaskStore::init + worker start on the drives; spec + tool construction and lane start in process"),
    m("peak_rss_mb", "MiB", "-", "peak resident memory of the run: this process, plus on the drives the largest sum over one drive of its worker processes' peaks"),
];

/// Per-layer metrics: reported by every workload with `--trace 1`.
pub const PER_LAYER: &[Metric] = &[
    m("fail_ratio", "ratio", "bench", "cells (or scale runs) lost, errored or differing from the reference, over cells attempted; 0 on every accepted run"),
    m("processing_s", "s", "core::pipeline", "transform + generalize + compare summed over cells, median over in-process iterations (the paper's plotted quantity); moves wall_s on scale-sweep"),
    m("cell_ms_p50", "ms", "core::pipeline", "per-cell p50 of StageTimings total over the in-process cells, median over iterations; moves wall_s on table2-single"),
    m("cell_ms_p90", "ms", "core::pipeline", "per-cell p90 of StageTimings total over the in-process cells, median over iterations; moves wall_s on table2-single"),
    m("record_s.spade", "s", "core::pipeline", "SPADE record stage summed over cells; moves wall_s and cell_ms_p90 on table2-single"),
    m("record_s.opus", "s", "core::pipeline", "OPUS record stage summed over cells; moves wall_s and cell_ms_p90 on table2-single"),
    m("record_s.camflow", "s", "core::pipeline", "CamFlow record stage summed over cells; moves wall_s and cell_ms_p90 on table2-single"),
    m("transform_s.spade", "s", "core::pipeline", "SPADE transform stage summed over cells; moves wall_s and cell_ms_p90 on table2-single"),
    m("transform_s.opus", "s", "core::pipeline", "OPUS transform stage summed over cells; moves wall_s and cell_ms_p90 on table2-single"),
    m("transform_s.camflow", "s", "core::pipeline", "CamFlow transform stage summed over cells; moves wall_s and cell_ms_p90 on table2-single"),
    m("generalize_s.spade", "s", "core::pipeline", "SPADE generalize stage summed over cells; moves processing_s and wall_s on scale-sweep"),
    m("generalize_s.opus", "s", "core::pipeline", "OPUS generalize stage summed over cells; moves processing_s and wall_s on scale-sweep"),
    m("generalize_s.camflow", "s", "core::pipeline", "CamFlow generalize stage summed over cells; moves processing_s and wall_s on scale-sweep"),
    m("compare_s.spade", "s", "core::pipeline", "SPADE compare stage summed over cells; moves processing_s and wall_s on scale-sweep"),
    m("compare_s.opus", "s", "core::pipeline", "OPUS compare stage summed over cells; moves processing_s and wall_s on scale-sweep"),
    m("compare_s.camflow", "s", "core::pipeline", "CamFlow compare stage summed over cells; moves processing_s and wall_s on scale-sweep"),
    m("kernel.events", "count", "oskernel", "event-log length per trial, mean over the workload's trials; moves wall_s on table2-single"),
    m("kernel.run_s", "s", "oskernel", "Kernel::run_program over the workload's trials; moves wall_s on table2-single"),
    m("opus.warmup_s", "s", "opus::neo4jsim", "simulated Neo4j startup (warmup_work) over the OPUS trials; moves wall_s and cell_ms_p90 on table2-single"),
    m("opus.store_io_s", "s", "opus::neo4jsim", "Neo4jStore create_temp + durable ingest + export read/parse, no warmup; moves wall_s and cell_ms_p90 on table2-single"),
    m("opus.stores", "count", "opus::neo4jsim", "stores created, one per OPUS trial"),
    m("compile_s", "s", "provgraph::compiled", "CorpusSession::add over the workload's trial graphs; moves processing_s on scale-sweep"),
    m("graphs_compiled", "count", "provgraph::compiled", "trial graphs compiled by the probe"),
    m("solve.searches", "count", "aspsolver", "dense searches run (solve spans, i.e. memo misses) in the traced iteration"),
    m("solve.steps", "count", "aspsolver", "search steps over those searches; moves processing_s on scale-sweep"),
    m("solve.backtracks", "count", "aspsolver", "search backtracks over those searches; moves processing_s on scale-sweep"),
    m("solve_s", "s", "aspsolver", "self-time of solve spans in the traced iteration; moves processing_s on scale-sweep, not wall_s on table2-single"),
    m("memo.hits", "count", "aspsolver", "caller-owned SolveMemo hits per iteration (median)"),
    m("memo.misses", "count", "aspsolver", "caller-owned SolveMemo misses per iteration (median)"),
    m("memo.hit_rate", "ratio", "aspsolver", "hits / (hits + misses)"),
    m("protocol.claims", "count", "provshard::elastic", "claims made per drive (median); 0 off the drives"),
    m("protocol.redispatches", "count", "provshard::elastic", "ElasticOutcome::requeues per drive (median); false re-dispatches on table2-drive"),
    m("protocol.stale_publishes", "count", "provshard::elastic", "ElasticOutcome::stale_publishes per drive (median)"),
    m("protocol.workers_spawned", "count", "provshard::elastic", "ElasticOutcome::workers_spawned per drive (median)"),
    m("protocol.failures", "count", "provshard::elastic", "cells lost after exhausting retries per drive (median)"),
    m("protocol.claim_overhead_s", "s", "provshard::elastic", "claim span minus its cell span, summed (the heartbeat join stall); moves wall_s on table2-drive and table2-drive-kill"),
    m("protocol.idle_s", "s", "provshard::elastic", "worker time outside claims, summed over workers; moves wall_s on the drives"),
    m("protocol.heartbeats", "count", "provshard::elastic", "heartbeat events in the traced drive"),
    m("protocol.publish_ms", "ms", "provshard::elastic", "TaskStore::publish of the drive's cell results, mean per publish; moves wall_s on the drives"),
    m("self.record_s", "s", "core::pipeline", "traced self-time of record spans"),
    m("self.transform_s", "s", "core::pipeline", "traced self-time of transform spans"),
    m("self.generalize_s", "s", "core::pipeline", "traced self-time of generalize spans, solve excluded"),
    m("self.compare_s", "s", "core::pipeline", "traced self-time of compare spans, solve excluded"),
    m("self.pipeline_s", "s", "core::pipeline", "traced self-time of cell spans outside the four stages"),
    m("self.bench_s", "s", "bench", "traced self-time of the benchmark's own lane and cell spans"),
    m("trace.overhead_ratio", "ratio", "provtrace", "traced wall_s / untraced wall_s; moves no end-to-end metric"),
    m("trace.events", "count", "provtrace", "records in the traced iteration's PMTRACE files"),
    m("trace.coverage", "ratio", "provtrace", "longest lane's traced lifetime (its self-times summed) / traced wall-clock"),
];

/// Outcome of one benchmark run, ready to print.
pub struct Outcome {
    /// Every output checked out against its reference.
    pub correct: bool,
    /// Cells (or scale runs) attempted.
    pub attempted: u64,
    /// Cells lost, errored or differing from the reference.
    pub failed: u64,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Check that exactly the registry's metrics of the requested kind
    /// are present with finite values.
    pub fn check_complete(&self, registry: &[Metric]) -> Result<(), String> {
        for metric in registry {
            match self.metrics.get(metric.name) {
                Some(v) if v.is_finite() => {}
                Some(v) => return Err(format!("metric {} is not finite: {v}", metric.name)),
                None => return Err(format!("metric {} was not measured", metric.name)),
            }
        }
        if let Some(extra) = self
            .metrics
            .keys()
            .find(|name| !registry.iter().any(|m| m.name == **name))
        {
            return Err(format!("metric {extra} is not in the registry"));
        }
        Ok(())
    }

    /// The result line. A run with failures publishes no metrics.
    pub fn to_line(&self, registry: &[Metric]) -> String {
        let metrics: Vec<String> = if self.failed > 0 || !self.correct {
            Vec::new()
        } else {
            registry
                .iter()
                .filter_map(|m| {
                    let value = self.metrics.get(m.name)?;
                    Some(format!(
                        "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                        m.name, m.unit
                    ))
                })
                .collect()
        };
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}
