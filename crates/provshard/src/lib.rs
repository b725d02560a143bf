//! Distributed execution of the Table 2 matrix.
//!
//! ProvMark's unit of work is one (benchmark, tool) cell: record,
//! transform, generalize and compare. This crate runs the 44 × 3 matrix
//! of cells in one of two ways, and both render the same report byte for
//! byte:
//!
//! - **`single`**: [`single_report`] runs the whole matrix in this
//!   process (`provmark_core::pipeline::run_matrix`). It is the
//!   reference that every drive is diffed against.
//! - **`drive` / `work`**: the [`elastic`] protocol writes one claimable
//!   task file per cell into a shared run directory and supervises N
//!   worker processes (`provmark-shard work …`) that claim, solve and
//!   publish cells. Claims of dead or stalled workers are re-dispatched
//!   under a bumped epoch; cells that exhaust their retries become typed
//!   `lost:` cells instead of poisoning the run.
//!
//! # Artifact versioning
//!
//! Both cell artifacts ([`elastic::CellTask`] and [`elastic::CellResult`])
//! carry a `format` tag and a `version` number
//! ([`elastic::CELL_TASK_VERSION`] / [`elastic::CELL_RESULT_VERSION`]),
//! plus the [`provgraph::snapshot::SNAPSHOT_VERSION`] of the session
//! snapshot format in effect, so heterogeneous runner fleets detect skew
//! up front: readers reject any other format/version with typed
//! [`PipelineError`]s instead of guessing (same rule as the snapshot
//! format itself — no in-place extensions, every layout change bumps the
//! version).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod elastic;

use provmark_core::pipeline::{self, CellOutcome};
use provmark_core::report::render_matrix_report;
use provmark_core::{BenchmarkOptions, PipelineError};
use serde_json::{Map, Value};

/// Simulated OPUS Neo4j startup iterations used by `--quick` runs (the
/// CI smoke configuration; same scale as the tier-1 matrix test).
pub const QUICK_OPUS_DB_ITERATIONS: u64 = 500;

/// The full configuration of a matrix run, shipped inside every cell
/// task so workers need nothing but the artifact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunConfig {
    /// Pipeline options (trials, seed, noise, filtering).
    pub opts: BenchmarkOptions,
    /// Simulated OPUS Neo4j startup override (`None` = tool default).
    pub opus_db_iterations: Option<u64>,
}

impl RunConfig {
    /// The default (full-cost) configuration.
    pub fn full() -> Self {
        RunConfig {
            opts: BenchmarkOptions::default(),
            opus_db_iterations: None,
        }
    }

    /// The `--quick` configuration: default options with the simulated
    /// Neo4j startup scaled down ([`QUICK_OPUS_DB_ITERATIONS`]).
    pub fn quick() -> Self {
        RunConfig {
            opts: BenchmarkOptions::default(),
            opus_db_iterations: Some(QUICK_OPUS_DB_ITERATIONS),
        }
    }
}

/// Write the run configuration into an artifact document — shared by
/// cell tasks and cell results, so the supervisor can verify that every
/// result was measured under the planned configuration.
///
/// The seed is serialized as a **string**: the vendored JSON shim backs
/// numbers with `f64`, which would silently round seeds above 2^53.
pub(crate) fn insert_config(doc: &mut Map<String, Value>, config: &RunConfig) {
    let mut options = Map::new();
    options.insert("trials".into(), exact_num(config.opts.trials as u64));
    options.insert(
        "base_seed".into(),
        Value::String(config.opts.base_seed.to_string()),
    );
    options.insert("noise".into(), Value::Bool(config.opts.noise));
    options.insert(
        "filter_graphs".into(),
        Value::Bool(config.opts.filter_graphs),
    );
    options.insert(
        "use_solve_memo".into(),
        Value::Bool(config.opts.use_solve_memo),
    );
    doc.insert("options".into(), Value::Object(options));
    doc.insert(
        "opus_db_iterations".into(),
        config.opus_db_iterations.map_or(Value::Null, exact_num),
    );
}

/// Parse the run configuration back out of an artifact document.
pub(crate) fn extract_config(doc: &Value) -> Result<RunConfig, PipelineError> {
    let options = &doc["options"];
    let base_seed: u64 = options["base_seed"]
        .as_str()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| artifact("field `base_seed` must be a u64 encoded as a string"))?;
    let opts = BenchmarkOptions {
        trials: get_usize(options, "trials")?,
        base_seed,
        noise: get_bool(options, "noise")?,
        filter_graphs: get_bool(options, "filter_graphs")?,
        use_solve_memo: get_bool(options, "use_solve_memo")?,
        // Deliberately not serialized: the cache is observably invisible
        // (warm and cold runs are byte-identical), so it is runner-local
        // configuration — wired per invocation via `--solve-cache` — and
        // never part of a run's recorded identity.
        solve_cache: None,
        // Same rationale: tracing is observably outcome-neutral, wired
        // per invocation via `--trace`, never part of a run's identity.
        trace: None,
    };
    let opus_db_iterations = match &doc["opus_db_iterations"] {
        Value::Null => None,
        v => Some(
            v.as_f64()
                .filter(|n| *n >= 0.0 && n.fract() == 0.0)
                .ok_or_else(|| {
                    artifact("field `opus_db_iterations` must be a non-negative integer or null")
                })? as u64,
        ),
    };
    Ok(RunConfig {
        opts,
        opus_db_iterations,
    })
}

pub(crate) fn cell_to_json(cell: &CellOutcome) -> Value {
    let mut c = Map::new();
    c.insert("status".into(), Value::String(cell.status.clone()));
    c.insert(
        "matching_cost".into(),
        cell.matching_cost.map_or(Value::Null, exact_num),
    );
    c.insert(
        "discarded_trials".into(),
        cell.discarded_trials
            .map_or(Value::Null, |v| exact_num(v as u64)),
    );
    c.insert(
        "result_size".into(),
        cell.result_size
            .map_or(Value::Null, |v| exact_num(v as u64)),
    );
    Value::Object(c)
}

pub(crate) fn cell_from_json(v: &Value) -> Result<CellOutcome, PipelineError> {
    let opt = |field: &str| -> Result<Option<u64>, PipelineError> {
        match &v[field] {
            Value::Null => Ok(None),
            x => x
                .as_f64()
                .filter(|n| *n >= 0.0 && n.fract() == 0.0)
                .map(|n| Some(n as u64))
                .ok_or_else(|| {
                    artifact(format!(
                        "cell field `{field}` must be a non-negative integer or null"
                    ))
                }),
        }
    };
    Ok(CellOutcome {
        status: v["status"]
            .as_str()
            .ok_or_else(|| artifact("cell is missing `status`"))?
            .to_owned(),
        matching_cost: opt("matching_cost")?,
        discarded_trials: opt("discarded_trials")?.map(|x| x as usize),
        result_size: opt("result_size")?.map(|x| x as usize),
    })
}

/// Encode a non-negative integer as a JSON number, asserting it stays
/// inside the shim's exactly-representable `f64` range (<= 2^53).
/// Seeds — the one field that can exceed that range — are serialized
/// as strings instead (see [`insert_config`]).
pub(crate) fn exact_num(n: u64) -> Value {
    debug_assert!(n <= 1u64 << 53, "integer exceeds the exact f64 range");
    // provlint: allow(lossy-cast-in-serde) -- bound asserted above; the vendored JSON shim backs numbers with f64
    Value::Number(n as f64)
}

pub(crate) fn artifact(detail: impl Into<String>) -> PipelineError {
    PipelineError::ShardArtifact {
        detail: detail.into(),
    }
}

/// Validate the `format` / `version` / `snapshot_format_version` header
/// shared by both cell artifact kinds.
pub(crate) fn check_header(doc: &Value, format: &str, version: u32) -> Result<(), PipelineError> {
    match doc["format"].as_str() {
        Some(found) if found == format => {}
        Some(found) => {
            return Err(artifact(format!(
                "expected a `{format}` document, found `{found}`"
            )))
        }
        None => {
            return Err(artifact(format!(
                "missing `format` tag (expected `{format}`)"
            )))
        }
    }
    let found = get_usize(doc, "version")?;
    if found != version as usize {
        return Err(artifact(format!(
            "{format} version {found} is not supported (this build reads version \
             {version}); re-plan with a matching build"
        )));
    }
    let snap_raw = get_usize(doc, "snapshot_format_version")?;
    let snap = u32::try_from(snap_raw).map_err(|_| {
        artifact(format!(
            "snapshot_format_version {snap_raw} outside u32 range"
        ))
    })?;
    if snap != provgraph::snapshot::SNAPSHOT_VERSION {
        return Err(PipelineError::Snapshot {
            source: provgraph::snapshot::SnapshotError::UnsupportedVersion {
                found: snap,
                supported: provgraph::snapshot::SNAPSHOT_VERSION,
            },
        });
    }
    Ok(())
}

pub(crate) fn get_usize(doc: &Value, field: &str) -> Result<usize, PipelineError> {
    doc[field]
        .as_f64()
        .filter(|n| *n >= 0.0 && n.fract() == 0.0)
        .map(|n| n as usize)
        .ok_or_else(|| artifact(format!("field `{field}` must be a non-negative integer")))
}

pub(crate) fn get_bool(doc: &Value, field: &str) -> Result<bool, PipelineError> {
    doc[field]
        .as_bool()
        .ok_or_else(|| artifact(format!("field `{field}` must be a boolean")))
}

/// Run the matrix in this process and render the canonical report —
/// the byte-identity reference for every elastic drive.
pub fn single_report(config: &RunConfig) -> String {
    let rows: Vec<_> = pipeline::run_matrix(&config.opts, config.opus_db_iterations)
        .into_iter()
        .map(|(exp, cells)| (exp, cells.each_ref().map(CellOutcome::of)))
        .collect();
    render_matrix_report(&rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elastic::{CellResult, CellTask, MemoCounters};

    fn sample_task(config: RunConfig) -> CellTask {
        CellTask {
            syscall: "creat".into(),
            tool: 1,
            epoch: 1,
            config,
        }
    }

    fn sample_result() -> CellResult {
        CellResult {
            syscall: "creat".into(),
            tool: 0,
            epoch: 1,
            config: RunConfig::quick(),
            cell: CellOutcome {
                status: "ok".into(),
                matching_cost: Some(3),
                discarded_trials: Some(0),
                result_size: Some(3),
            },
            memo: MemoCounters::default(),
        }
    }

    #[test]
    fn wrong_format_tag_rejected() {
        let as_task = CellTask::from_json_str(&sample_result().to_json_string());
        assert!(
            matches!(&as_task, Err(PipelineError::ShardArtifact { detail })
                if detail.contains("provmark-cell-task")),
            "{as_task:?}"
        );
        let err = CellTask::from_json_str("{}").unwrap_err();
        assert!(matches!(err, PipelineError::ShardArtifact { .. }));
        let err = CellTask::from_json_str("not json").unwrap_err();
        assert!(matches!(err, PipelineError::ShardArtifact { .. }));
    }

    #[test]
    fn v1_artifacts_without_memo_field_rejected() {
        // A v1-era cell result (no `memo` block) must be refused by the
        // version header, not half-parsed into zero counters.
        let doc: Value = serde_json::from_str(&sample_result().to_json_string()).unwrap();
        let mut v1: Map<String, Value> = doc
            .as_object()
            .unwrap()
            .iter()
            .filter(|(key, _)| key.as_str() != "memo")
            .map(|(key, value)| (key.clone(), value.clone()))
            .collect();
        v1.insert("version".into(), exact_num(1));
        let text = serde_json::to_string_pretty(&Value::Object(v1)).unwrap();
        let err = CellResult::from_json_str(&text).unwrap_err();
        assert!(
            matches!(&err, PipelineError::ShardArtifact { detail } if detail.contains("version 1")),
            "{err}"
        );
    }

    #[test]
    fn memo_switch_roundtrips_through_artifacts() {
        let mut config = RunConfig::quick();
        config.opts.use_solve_memo = false;
        let task = sample_task(config.clone());
        let back = CellTask::from_json_str(&task.to_json_string()).unwrap();
        assert!(!back.config.opts.use_solve_memo);
        assert_eq!(back.config, config);
    }

    #[test]
    fn snapshot_version_skew_rejected_with_typed_error() {
        let text = sample_task(RunConfig::quick()).to_json_string().replace(
            "\"snapshot_format_version\": 1",
            "\"snapshot_format_version\": 9",
        );
        let err = CellTask::from_json_str(&text).unwrap_err();
        assert!(
            matches!(
                err,
                PipelineError::Snapshot {
                    source: provgraph::snapshot::SnapshotError::UnsupportedVersion { found: 9, .. }
                }
            ),
            "snapshot skew must surface as a typed snapshot error"
        );
    }

    #[test]
    fn large_seeds_roundtrip_exactly() {
        // The JSON shim backs numbers with f64; seeds ride as strings so
        // values above 2^53 survive the worker boundary bit-exactly.
        let seed = (1u64 << 53) + 1;
        let mut config = RunConfig::quick();
        config.opts.base_seed = seed;
        let task = sample_task(config);
        let back = CellTask::from_json_str(&task.to_json_string()).unwrap();
        assert_eq!(back.config.opts.base_seed, seed);
    }

    #[test]
    fn malformed_cell_numbers_rejected() {
        let clean = sample_result().to_json_string();
        for bad in ["-3", "1.5"] {
            let text = clean.replace("\"matching_cost\": 3", &format!("\"matching_cost\": {bad}"));
            assert_ne!(text, clean, "replacement must hit");
            let err = CellResult::from_json_str(&text).unwrap_err();
            assert!(
                matches!(&err, PipelineError::ShardArtifact { detail }
                    if detail.contains("matching_cost")),
                "{bad}: {err:?}"
            );
        }
    }
}
