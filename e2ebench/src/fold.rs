//! Fold a traced iteration's PMTRACE files into per-layer self-time.
//!
//! Each lane (an in-process `lane-*` thread or an elastic `worker-*`
//! process) writes its own trace file. A span's self-time is its
//! duration minus the durations of its children. `solve` spans are
//! emitted without a parent, so each is parented here under the
//! innermost span of the same file whose interval contains it; every
//! lane runs its cells on one thread, so that span is the stage that
//! called the solver. Worker time outside any claim is protocol idle.

use std::collections::BTreeMap;
use std::path::Path;

use provtrace::{EventKind, TraceFile, TraceMerge};

/// Layer names of the breakdown.
pub const LAYERS: [&str; 9] = [
    "record",
    "transform",
    "generalize",
    "compare",
    "solve",
    "pipeline",
    "protocol",
    "idle",
    "bench",
];

/// Per-layer self-time of one traced iteration, in seconds.
#[derive(Debug, Default)]
pub struct Breakdown {
    /// Lane or worker label → layer → self-time.
    pub lanes: BTreeMap<String, BTreeMap<&'static str, f64>>,
    /// Tool → layer → self-time (spans outside any cell under `none`).
    pub tools: BTreeMap<String, BTreeMap<&'static str, f64>>,
    /// Layer → self-time summed over lanes.
    pub totals: BTreeMap<&'static str, f64>,
    /// Summed lifetime of the lanes.
    pub lane_time_s: f64,
    /// Lifetime of the longest-lived lane.
    pub longest_lane_s: f64,
    /// Number of lanes folded.
    pub lane_count: usize,
    /// Solve spans, and their `steps` / `backtracks` fields, summed.
    pub solve_searches: u64,
    /// Search steps over all solve spans.
    pub solve_steps: u64,
    /// Search backtracks over all solve spans.
    pub solve_backtracks: u64,
    /// `heartbeat` events.
    pub heartbeats: u64,
    /// Records in every trace file, lanes or not.
    pub events: u64,
}

fn layer_of(name: &str) -> &'static str {
    match name {
        "record" => "record",
        "transform" => "transform",
        "generalize" => "generalize",
        "compare" => "compare",
        "solve" => "solve",
        "cell" | "benchmark" => "pipeline",
        "claim" => "protocol",
        _ => "bench",
    }
}

const NS: f64 = 1e9;

/// Merge every trace file in `dir` and fold the lanes.
pub fn fold_dir(dir: &Path) -> Result<Breakdown, String> {
    let merge = TraceMerge::from_dir(dir).map_err(|e| format!("trace merge: {e}"))?;
    let mut out = Breakdown::default();
    for file in &merge.workers {
        out.events += file.events.len() as u64;
        out.heartbeats += file
            .events
            .iter()
            .filter(|e| e.kind == EventKind::Event && e.name == "heartbeat")
            .count() as u64;
        let is_worker = file.label.starts_with("worker-");
        if is_worker || file.label.starts_with("lane-") {
            fold_lane(file, is_worker, &mut out);
        }
    }
    for layer in LAYERS {
        let total = out
            .lanes
            .values()
            .filter_map(|l| l.get(layer))
            .fold(0.0, |a, b| a + b);
        out.totals.insert(layer, total);
    }
    Ok(out)
}

fn fold_lane(file: &TraceFile, is_worker: bool, out: &mut Breakdown) {
    let (Some(first), Some(last)) = (file.events.first(), file.events.last()) else {
        return;
    };
    let (start, end) = (first.ts_ns, last.ts_ns);
    let spans = file.spans();
    // A span never closed (a killed worker's claim) ends with the file.
    let ends: Vec<u128> = spans.iter().map(|s| s.end_ts_ns.unwrap_or(end)).collect();
    let index: BTreeMap<u64, usize> = spans.iter().enumerate().map(|(i, s)| (s.span, i)).collect();
    let mut by_start: Vec<usize> = (0..spans.len())
        .filter(|&i| spans[i].name != "solve")
        .collect();
    by_start.sort_by_key(|&i| spans[i].start_ts_ns);
    let parents: Vec<Option<usize>> = spans
        .iter()
        .enumerate()
        .map(|(i, s)| match s.parent {
            Some(p) => index.get(&p).copied(),
            None if s.name == "solve" => {
                // Innermost container: the latest-starting span that
                // starts before and ends after the solve.
                let upto = by_start.partition_point(|&j| spans[j].start_ts_ns <= s.start_ts_ns);
                by_start[..upto]
                    .iter()
                    .rev()
                    .copied()
                    .find(|&j| ends[j] >= ends[i])
            }
            None => None,
        })
        .collect();
    let duration = |i: usize| (ends[i] - spans[i].start_ts_ns) as f64 / NS;
    let mut child_time = vec![0.0; spans.len()];
    let mut root_time = 0.0;
    for (i, parent) in parents.iter().enumerate() {
        match parent {
            Some(p) => child_time[*p] += duration(i),
            None => root_time += duration(i),
        }
    }
    let tool_of = |mut i: usize| loop {
        if let Some(tool) = spans[i].field("tool").and_then(|v| v.as_str()) {
            return tool.to_owned();
        }
        match parents[i] {
            Some(p) => i = p,
            None => return "none".to_owned(),
        }
    };
    let lane = out.lanes.entry(file.label.clone()).or_default();
    for (i, span) in spans.iter().enumerate() {
        let own = (duration(i) - child_time[i]).max(0.0);
        let layer = layer_of(&span.name);
        *lane.entry(layer).or_default() += own;
        *out.tools
            .entry(tool_of(i))
            .or_default()
            .entry(layer)
            .or_default() += own;
        if span.name == "solve" {
            out.solve_searches += 1;
            out.solve_steps += span.field("steps").and_then(|v| v.as_u64()).unwrap_or(0);
            out.solve_backtracks += span
                .field("backtracks")
                .and_then(|v| v.as_u64())
                .unwrap_or(0);
        }
    }
    let extent = (end - start) as f64 / NS;
    let idle = (extent - root_time).max(0.0);
    *lane
        .entry(if is_worker { "idle" } else { "bench" })
        .or_default() += idle;
    out.lane_time_s += extent;
    out.longest_lane_s = out.longest_lane_s.max(extent);
    out.lane_count += 1;
}

#[cfg(test)]
mod tests {
    use super::*;
    use provtrace::Tracer;

    #[test]
    fn solve_spans_are_parented_by_containment() {
        let dir = std::env::temp_dir().join(format!("e2ebench-fold-{}", std::process::id()));
        let t = Tracer::new("lane-0");
        let lane = t.span_enter("bench.lane", None, Vec::new);
        let cell = t.span_enter("bench.cell", lane, || vec![("tool", "OPUS".into())]);
        let gen = t.span_enter("generalize", cell, Vec::new);
        let solve = t.span_enter("solve", None, Vec::new);
        std::thread::sleep(std::time::Duration::from_millis(5));
        t.span_exit_with("solve", solve, || vec![("steps", 7u64.into())]);
        t.span_exit("generalize", gen);
        t.span_exit("bench.cell", cell);
        t.span_exit("bench.lane", lane);
        t.write_to_dir(&dir).unwrap();
        let b = fold_dir(&dir).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(b.lane_count, 1);
        assert_eq!(b.solve_searches, 1);
        assert_eq!(b.solve_steps, 7);
        assert!(b.totals["solve"] >= 0.005);
        assert!(b.totals["generalize"] < b.totals["solve"]);
        assert!(b.tools["OPUS"]["solve"] >= 0.005);
        let covered: f64 = b.totals.values().sum();
        assert!((covered - b.lane_time_s).abs() < 1e-6);
    }
}
