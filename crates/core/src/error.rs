use std::fmt;

use provgraph::GraphError;

/// Errors surfaced by the ProvMark pipeline.
#[derive(Debug)]
#[non_exhaustive]
pub enum PipelineError {
    /// The benchmark program did not perform its target behaviour (the
    /// per-benchmark success check failed, paper §4: "along with tests for
    /// each one to ensure that the target behavior was performed
    /// successfully").
    BenchmarkFailed {
        /// Benchmark name.
        name: String,
        /// Which variant failed (`"foreground"` / `"background"`).
        variant: &'static str,
    },
    /// A recorder's native output could not be transformed into the
    /// Datalog representation.
    Transform {
        /// Underlying format error.
        source: GraphError,
    },
    /// Store input/output failed: OPUS's Neo4j-style store, or an
    /// artifact or run directory on disk.
    Store(std::io::Error),
    /// No similarity class with at least two consistent trials exists —
    /// all runs were "failed runs" in the paper's sense (§3.4).
    NoConsistentTrials {
        /// Which variant lacked consistent trials.
        variant: &'static str,
        /// Number of trials examined.
        trials: usize,
    },
    /// The generalized background graph does not embed into the
    /// generalized foreground graph — monotonicity of recording was
    /// violated (paper §3.5 assumes append-only recording).
    BackgroundNotSubgraph,
    /// Fewer than two trials were requested; generalization needs a pair.
    NotEnoughTrials(usize),
    /// The exact solver abandoned the search at its step budget before
    /// producing a matching the pipeline requires to exist (e.g. the
    /// generalization matching of two graphs already confirmed similar).
    /// Reachable only on pathological trial graphs whose search space
    /// exceeds the budget; surfaced as an error instead of a panic so a
    /// malformed trial cannot take down a whole matrix run.
    SolverGaveUp {
        /// Which matching stage gave up.
        stage: &'static str,
    },
    /// An elastic drive was requested with an unusable worker count
    /// (`--shards 0`, or more workers than matrix rows).
    InvalidShardCount {
        /// Requested worker count.
        count: usize,
        /// Number of matrix rows available to distribute.
        rows: usize,
    },
    /// A cell task or CLI invocation named a benchmark that is not
    /// in the Table 2 matrix.
    UnknownBenchmark {
        /// The unrecognized benchmark name.
        name: String,
    },
    /// A cell task or cell result artifact, a run directory or a CLI
    /// invocation was malformed: wrong format tag, unsupported artifact
    /// version, or a field that does not parse.
    ShardArtifact {
        /// What was wrong with the artifact.
        detail: String,
    },
    /// Per-cell results do not reassemble into the full matrix
    /// (missing, duplicate or foreign cells) — the merge refuses to emit
    /// a report that silently differs from the single-process run.
    ShardMerge {
        /// What failed to line up.
        detail: String,
    },
    /// A per-cell task or artifact named a tool column outside the
    /// matrix (the Table 2 tools are 0 = SPADE, 1 = OPUS, 2 = CamFlow).
    UnknownTool {
        /// The out-of-range tool column.
        index: usize,
        /// Number of tool columns in the matrix.
        tools: usize,
    },
    /// One or more matrix cells were abandoned by the elastic shard
    /// runner after exhausting their retry budget: every dispatch of the
    /// cell ended in a dead worker, a stale heartbeat or a torn result
    /// artifact. The merged report records each such cell as `lost`
    /// instead of silently omitting it; this error carries the typed
    /// per-cell records.
    CellsExhausted {
        /// One record per abandoned cell.
        failures: Vec<crate::pipeline::CellFailure>,
    },
    /// The local worker pool died before the matrix completed and the
    /// respawn budget was exhausted — no worker is left to claim the
    /// remaining cells.
    WorkerPool {
        /// Every worker that exited unsuccessfully (index, rendered exit
        /// status, captured stderr path).
        failures: Vec<WorkerFailure>,
        /// What the pool was still responsible for when it died.
        detail: String,
    },
    /// A session snapshot could not be restored (wrong magic, version
    /// mismatch, truncation or corruption).
    Snapshot {
        /// Underlying snapshot error.
        source: provgraph::snapshot::SnapshotError,
    },
}

/// One worker process (or thread) of a local elastic pool that exited
/// unsuccessfully — the per-worker detail behind
/// [`PipelineError::WorkerPool`], also reported informationally by the
/// driver when the run recovered anyway.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerFailure {
    /// Worker index within the pool (respawned workers get fresh
    /// indices past the initial pool size).
    pub worker: usize,
    /// Rendered exit status (process exit code / signal, or the
    /// abandonment reason for thread workers).
    pub status: String,
    /// Captured stderr path, when the worker ran as a process.
    pub stderr: Option<std::path::PathBuf>,
}

impl fmt::Display for WorkerFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "worker {} failed ({})", self.worker, self.status)?;
        if let Some(path) = &self.stderr {
            write!(f, " — stderr: {}", path.display())?;
        }
        Ok(())
    }
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::BenchmarkFailed { name, variant } => {
                write!(
                    f,
                    "benchmark `{name}` {variant} variant did not perform its target behaviour"
                )
            }
            PipelineError::Transform { source } => {
                write!(f, "transformation to datalog failed: {source}")
            }
            PipelineError::Store(e) => write!(f, "provenance store error: {e}"),
            PipelineError::NoConsistentTrials { variant, trials } => {
                write!(f, "no two consistent {variant} trials among {trials} runs")
            }
            PipelineError::BackgroundNotSubgraph => {
                write!(
                    f,
                    "background graph does not embed into the foreground graph"
                )
            }
            PipelineError::NotEnoughTrials(n) => {
                write!(f, "generalization needs at least 2 trials, got {n}")
            }
            PipelineError::SolverGaveUp { stage } => {
                write!(f, "exact solver exhausted its step budget during {stage}")
            }
            PipelineError::InvalidShardCount { count, rows } => {
                write!(
                    f,
                    "cannot split the matrix into {count} shard(s): pass --shards N \
                     with 1 <= N <= {rows} (the matrix has {rows} rows)"
                )
            }
            PipelineError::UnknownBenchmark { name } => {
                write!(f, "`{name}` is not a Table 2 benchmark")
            }
            PipelineError::ShardArtifact { detail } => {
                write!(f, "malformed shard artifact: {detail}")
            }
            PipelineError::ShardMerge { detail } => {
                write!(f, "shard results do not reassemble the matrix: {detail}")
            }
            PipelineError::UnknownTool { index, tools } => {
                write!(
                    f,
                    "tool column {index} is out of range: the matrix has {tools} tool(s) \
                     (0 = SPADE, 1 = OPUS, 2 = CamFlow)"
                )
            }
            PipelineError::CellsExhausted { failures } => {
                write!(
                    f,
                    "{} matrix cell(s) exhausted their retries and were recorded as lost: ",
                    failures.len()
                )?;
                for (i, failure) in failures.iter().enumerate() {
                    if i > 0 {
                        write!(f, "; ")?;
                    }
                    write!(f, "{failure}")?;
                }
                Ok(())
            }
            PipelineError::WorkerPool { failures, detail } => {
                write!(f, "the local worker pool cannot make progress ({detail}): ")?;
                for (i, failure) in failures.iter().enumerate() {
                    if i > 0 {
                        write!(f, "; ")?;
                    }
                    write!(f, "{failure}")?;
                }
                Ok(())
            }
            PipelineError::Snapshot { source } => {
                write!(f, "session snapshot rejected: {source}")
            }
        }
    }
}

impl std::error::Error for PipelineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PipelineError::Transform { source } => Some(source),
            PipelineError::Store(e) => Some(e),
            PipelineError::Snapshot { source } => Some(source),
            _ => None,
        }
    }
}

impl From<provgraph::snapshot::SnapshotError> for PipelineError {
    fn from(source: provgraph::snapshot::SnapshotError) -> Self {
        PipelineError::Snapshot { source }
    }
}

impl From<GraphError> for PipelineError {
    fn from(source: GraphError) -> Self {
        PipelineError::Transform { source }
    }
}

impl From<std::io::Error> for PipelineError {
    fn from(e: std::io::Error) -> Self {
        PipelineError::Store(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = PipelineError::NoConsistentTrials {
            variant: "background",
            trials: 4,
        };
        assert_eq!(
            e.to_string(),
            "no two consistent background trials among 4 runs"
        );
        let e = PipelineError::NotEnoughTrials(1);
        assert!(e.to_string().contains("at least 2"));
        let e = PipelineError::SolverGaveUp {
            stage: "generalization",
        };
        assert!(e.to_string().contains("step budget"));
        assert!(e.to_string().contains("generalization"));
    }

    #[test]
    fn shard_and_snapshot_messages_are_actionable() {
        let e = PipelineError::InvalidShardCount { count: 0, rows: 44 };
        assert!(e.to_string().contains("--shards N"));
        assert!(e.to_string().contains("44"));
        let e = PipelineError::UnknownBenchmark {
            name: "frobnicate".into(),
        };
        assert!(e.to_string().contains("frobnicate"));
        let e = PipelineError::ShardMerge {
            detail: "row `creat` appears twice".into(),
        };
        assert!(e.to_string().contains("reassemble"));
        let snap = provgraph::snapshot::SnapshotError::UnsupportedVersion {
            found: 9,
            supported: provgraph::snapshot::SNAPSHOT_VERSION,
        };
        let e = PipelineError::from(snap);
        assert!(e.to_string().contains("version 9"));
        assert!(
            std::error::Error::source(&e).is_some(),
            "snapshot source preserved"
        );
    }

    #[test]
    fn elastic_failure_messages_are_actionable() {
        let e = PipelineError::UnknownTool { index: 5, tools: 3 };
        assert!(e.to_string().contains("tool column 5"));
        assert!(e.to_string().contains("CamFlow"));
        let failure = crate::pipeline::CellFailure {
            syscall: "creat".into(),
            tool: 0,
            attempts: 3,
            detail: "worker heartbeat went stale".into(),
        };
        let e = PipelineError::CellsExhausted {
            failures: vec![failure],
        };
        let text = e.to_string();
        assert!(text.contains("1 matrix cell(s)"), "{text}");
        assert!(text.contains("creat"), "{text}");
        assert!(text.contains("3 attempt(s)"), "{text}");
        let e = PipelineError::WorkerPool {
            failures: vec![WorkerFailure {
                worker: 2,
                status: "exit status: 134".into(),
                stderr: Some(std::path::PathBuf::from("/tmp/worker-2.stderr")),
            }],
            detail: "4 cell(s) still open".into(),
        };
        let text = e.to_string();
        assert!(
            text.contains("worker 2 failed (exit status: 134)"),
            "{text}"
        );
        assert!(text.contains("/tmp/worker-2.stderr"), "{text}");
        assert!(text.contains("4 cell(s) still open"), "{text}");
    }

    #[test]
    fn send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<PipelineError>();
    }
}
