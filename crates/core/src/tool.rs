//! Recording and transformation: the tool-facing stages (paper §3.2–3.3).
//!
//! Each supported capture system gets a *profile* ([`Tool`]) naming its
//! configuration, and an instantiated handle ([`ToolInstance`]) holding any
//! state that persists across recording sessions (the CamFlow daemon's
//! serialize-once memory; nothing for SPADE or OPUS). Only these stages
//! know about tool-specific formats — everything downstream works on the
//! uniform Datalog property-graph representation.

use camflow::{CamFlowConfig, CamFlowRecorder};
use opus::{Neo4jStore, OpusConfig, OpusRecorder};
use oskernel::program::Program;
use oskernel::Kernel;
use provgraph::{dot, provjson, PropertyGraph};
use spade::{SpadeConfig, SpadeRecorder};

use crate::PipelineError;

/// Which capture system (and native output format) a profile targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ToolKind {
    /// SPADE with the Linux Audit reporter, Graphviz DOT storage (`spg`).
    Spade,
    /// SPADE with Neo4j storage (`spn`, appendix A.5).
    SpadeNeo4j,
    /// OPUS with Neo4j storage (`opu`).
    Opus,
    /// CamFlow with PROV-JSON output (`cam`).
    CamFlow,
}

impl ToolKind {
    /// Human-readable tool name.
    pub fn name(self) -> &'static str {
        match self {
            ToolKind::Spade | ToolKind::SpadeNeo4j => "SPADE",
            ToolKind::Opus => "OPUS",
            ToolKind::CamFlow => "CamFlow",
        }
    }

    /// The native output format, as in the paper's figures
    /// ("SPADE+Graphviz", "OPUS+Neo4J", "CamFlow+ProvJson").
    pub fn format(self) -> &'static str {
        match self {
            ToolKind::Spade => "Graphviz",
            ToolKind::SpadeNeo4j | ToolKind::Opus => "Neo4J",
            ToolKind::CamFlow => "ProvJson",
        }
    }

    /// The ProvMark CLI tool code (appendix A.5: `spg`, `opu`, `cam`).
    pub fn code(self) -> &'static str {
        match self {
            ToolKind::Spade => "spg",
            ToolKind::SpadeNeo4j => "spn",
            ToolKind::Opus => "opu",
            ToolKind::CamFlow => "cam",
        }
    }

    /// The three tool columns of the paper's evaluation (Table 2 uses the
    /// `spg` SPADE storage).
    pub fn all() -> [ToolKind; 3] {
        [ToolKind::Spade, ToolKind::Opus, ToolKind::CamFlow]
    }

    /// Every supported tool/storage combination (appendix A.5).
    pub fn all_variants() -> [ToolKind; 4] {
        [
            ToolKind::Spade,
            ToolKind::SpadeNeo4j,
            ToolKind::Opus,
            ToolKind::CamFlow,
        ]
    }
}

/// A tool profile: capture system plus configuration (the `config.ini`
/// profiles of appendix A.4).
#[derive(Debug, Clone)]
pub enum Tool {
    /// SPADE profile with DOT storage.
    Spade(SpadeConfig),
    /// SPADE profile with Neo4j storage (`spn`): same recorder, persisted
    /// through the embedded store so transformation pays the DB cost.
    SpadeNeo4j {
        /// Recorder configuration.
        config: SpadeConfig,
        /// Simulated store startup iterations (see [`opus::OpusConfig`]).
        db_startup_iterations: u64,
    },
    /// OPUS profile.
    Opus(OpusConfig),
    /// CamFlow profile.
    CamFlow(CamFlowConfig),
}

impl Tool {
    /// SPADE in its baseline configuration.
    pub fn spade_baseline() -> Self {
        Tool::Spade(SpadeConfig::default())
    }

    /// OPUS in its baseline configuration.
    pub fn opus_baseline() -> Self {
        Tool::Opus(OpusConfig::default())
    }

    /// CamFlow in its baseline (0.4.5) configuration.
    pub fn camflow_baseline() -> Self {
        Tool::CamFlow(CamFlowConfig::default())
    }

    /// SPADE persisting into the Neo4j-style store (`spn`).
    pub fn spade_neo4j_baseline() -> Self {
        Tool::SpadeNeo4j {
            config: SpadeConfig::default(),
            db_startup_iterations: OpusConfig::default().db_startup_iterations,
        }
    }

    /// The baseline profile for a given kind.
    pub fn baseline(kind: ToolKind) -> Self {
        match kind {
            ToolKind::Spade => Self::spade_baseline(),
            ToolKind::SpadeNeo4j => Self::spade_neo4j_baseline(),
            ToolKind::Opus => Self::opus_baseline(),
            ToolKind::CamFlow => Self::camflow_baseline(),
        }
    }

    /// Which tool this profile configures.
    pub fn kind(&self) -> ToolKind {
        match self {
            Tool::Spade(_) => ToolKind::Spade,
            Tool::SpadeNeo4j { .. } => ToolKind::SpadeNeo4j,
            Tool::Opus(_) => ToolKind::Opus,
            Tool::CamFlow(_) => ToolKind::CamFlow,
        }
    }

    /// Create the stateful handle used by the pipeline.
    pub fn instantiate(self) -> ToolInstance {
        let inner = match self {
            Tool::Spade(c) => RecorderImpl::Spade(SpadeRecorder::new(c)),
            Tool::SpadeNeo4j {
                config,
                db_startup_iterations,
            } => RecorderImpl::SpadeNeo4j {
                recorder: SpadeRecorder::new(config),
                db_startup_iterations,
            },
            Tool::Opus(c) => RecorderImpl::Opus(OpusRecorder::new(c)),
            Tool::CamFlow(c) => RecorderImpl::CamFlow(CamFlowRecorder::new(c)),
        };
        ToolInstance { inner, sessions: 0 }
    }
}

/// A recorder's native output for one trial, before transformation.
#[derive(Debug)]
pub enum NativeOutput {
    /// SPADE: Graphviz DOT text.
    Dot(String),
    /// OPUS: a populated Neo4j-style store (export pays the DB cost).
    Neo4j(Box<Neo4jStore>),
    /// CamFlow: a W3C PROV-JSON document.
    ProvJson(String),
}

/// The tool-specific recorder state.
#[derive(Debug)]
enum RecorderImpl {
    /// SPADE recorder (stateless across sessions).
    Spade(SpadeRecorder),
    /// SPADE recorder persisting through the Neo4j-style store.
    SpadeNeo4j {
        /// The recorder.
        recorder: SpadeRecorder,
        /// Store startup cost.
        db_startup_iterations: u64,
    },
    /// OPUS recorder (stateless; each trial's store travels in its
    /// [`NativeOutput`]).
    Opus(OpusRecorder),
    /// CamFlow daemon (stateful: serialize-once memory persists).
    CamFlow(CamFlowRecorder),
}

/// The kernel boot seed of recording session `session` (1-based) for
/// the caller's trial `seed`.
fn boot_seed(seed: u64, session: u64) -> u64 {
    seed.wrapping_mul(0x100000001B3)
        .wrapping_add(session.wrapping_mul(0x9E3779B97F4A7C15))
}

/// An instantiated tool with cross-session state.
///
/// Every recording session boots a *unique* simulated kernel: a session
/// counter is mixed into the caller's seed so that no two sessions — even
/// of different benchmarks sharing one warm daemon — reuse a boot identity
/// (machines do not reboot into identical states).
#[derive(Debug)]
pub struct ToolInstance {
    inner: RecorderImpl,
    sessions: u64,
}

impl ToolInstance {
    /// Which tool this instance is.
    pub fn kind(&self) -> ToolKind {
        match &self.inner {
            RecorderImpl::Spade(_) => ToolKind::Spade,
            RecorderImpl::SpadeNeo4j { .. } => ToolKind::SpadeNeo4j,
            RecorderImpl::Opus(_) => ToolKind::Opus,
            RecorderImpl::CamFlow(_) => ToolKind::CamFlow,
        }
    }

    /// Recording stage for one trial: boot a fresh kernel with `seed`,
    /// run the program, and capture the tool's native output.
    ///
    /// # Errors
    ///
    /// Fails when the benchmark's target behaviour did not execute
    /// successfully, or when a graph does not serialize into its store.
    pub fn record(
        &mut self,
        program: &Program,
        seed: u64,
        noise: bool,
    ) -> Result<NativeOutput, PipelineError> {
        self.sessions += 1;
        let mut kernel = Kernel::with_seed(boot_seed(seed, self.sessions));
        kernel.startup_noise = noise && seed.is_multiple_of(5);
        let outcome = kernel.run_program(program);
        if !outcome.success {
            let variant = if program.exe_path.ends_with("bench_bg") {
                "background"
            } else {
                "foreground"
            };
            return Err(PipelineError::BenchmarkFailed {
                name: program.name.clone(),
                variant,
            });
        }
        match &mut self.inner {
            RecorderImpl::Spade(rec) => Ok(NativeOutput::Dot(rec.record(kernel.event_log()))),
            RecorderImpl::SpadeNeo4j {
                recorder,
                db_startup_iterations,
            } => {
                let mut store = Neo4jStore::new(*db_startup_iterations);
                store.ingest(&recorder.record_graph(kernel.event_log()))?;
                Ok(NativeOutput::Neo4j(Box::new(store)))
            }
            RecorderImpl::Opus(rec) => {
                let mut store = Neo4jStore::new(rec.config.db_startup_iterations);
                rec.record_to_store(kernel.event_log(), &mut store)?;
                Ok(NativeOutput::Neo4j(Box::new(store)))
            }
            RecorderImpl::CamFlow(rec) => Ok(NativeOutput::ProvJson(
                rec.record_session(kernel.event_log()).provjson,
            )),
        }
    }

    /// Transformation stage: map native output to the uniform property
    /// graph (paper §3.3). For OPUS this is where the Neo4j startup and
    /// query cost is paid — the reason transformation dominates in
    /// Figures 6 and 9.
    ///
    /// # Errors
    ///
    /// Fails on malformed native output (e.g. CamFlow's pre-workaround
    /// dangling references) or a store that does not export.
    pub fn transform(&self, native: NativeOutput) -> Result<PropertyGraph, PipelineError> {
        match native {
            NativeOutput::Dot(text) => Ok(dot::parse_dot(&text)?),
            NativeOutput::Neo4j(mut store) => Ok(store.export()?),
            NativeOutput::ProvJson(text) => Ok(provjson::parse_provjson(&text)?),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oskernel::program::Op;

    fn creat_program() -> Program {
        Program::new("creat").op(Op::Creat {
            path: "test.txt".into(),
            mode: 0o644,
            fd_var: "id".into(),
        })
    }

    #[test]
    fn kinds_and_codes() {
        assert_eq!(ToolKind::Spade.name(), "SPADE");
        assert_eq!(ToolKind::Opus.format(), "Neo4J");
        assert_eq!(ToolKind::CamFlow.code(), "cam");
        assert_eq!(ToolKind::SpadeNeo4j.code(), "spn");
        assert_eq!(ToolKind::SpadeNeo4j.name(), "SPADE");
        assert_eq!(ToolKind::SpadeNeo4j.format(), "Neo4J");
        assert_eq!(ToolKind::all().len(), 3);
        assert_eq!(ToolKind::all_variants().len(), 4);
        assert_eq!(Tool::baseline(ToolKind::Opus).kind(), ToolKind::Opus);
        assert_eq!(
            Tool::baseline(ToolKind::SpadeNeo4j).kind(),
            ToolKind::SpadeNeo4j
        );
    }

    /// Every Table 2 program, background then foreground.
    fn table2_programs() -> Vec<Program> {
        crate::suite::table2()
            .iter()
            .flat_map(|row| {
                let spec = crate::suite::spec(row.syscall).expect("Table 2 row has a spec");
                [spec.background(), spec.foreground()]
            })
            .collect()
    }

    #[test]
    fn spade_neo4j_storage_roundtrips_same_graph_as_dot() {
        let mut spg = Tool::spade_baseline().instantiate();
        let mut spn = Tool::SpadeNeo4j {
            config: Default::default(),
            db_startup_iterations: 10, // keep unit tests fast
        }
        .instantiate();
        for (i, prog) in table2_programs().iter().enumerate() {
            let seed = 7 + i as u64;
            let dot_native = spg.record(prog, seed, false).unwrap();
            let g_dot = spg.transform(dot_native).unwrap();
            let db_native = spn.record(prog, seed, false).unwrap();
            assert!(matches!(db_native, NativeOutput::Neo4j(_)));
            // Identical recorder and event log behind both storages.
            let g_db = spn.transform(db_native).unwrap();
            assert_eq!(g_db, g_dot, "{} ({})", prog.name, prog.exe_path);
        }
    }

    #[test]
    fn spade_record_transform_roundtrip() {
        let mut tool = Tool::spade_baseline().instantiate();
        let native = tool.record(&creat_program(), 1, false).unwrap();
        assert!(matches!(native, NativeOutput::Dot(_)));
        let graph = tool.transform(native).unwrap();
        assert!(graph.node_count() > 0);
    }

    #[test]
    fn opus_record_transform_roundtrip() {
        let config = OpusConfig {
            db_startup_iterations: 10, // keep unit tests fast
            ..OpusConfig::default()
        };
        let recorder = OpusRecorder::new(config.clone());
        let mut tool = Tool::Opus(config).instantiate();
        for (i, prog) in table2_programs().iter().enumerate() {
            let seed = 7 + i as u64;
            let native = tool.record(prog, seed, false).unwrap();
            assert!(matches!(native, NativeOutput::Neo4j(_)));
            let graph = tool.transform(native).unwrap();
            // The store round trip must not change the recorded graph.
            let mut kernel = Kernel::with_seed(boot_seed(seed, i as u64 + 1));
            kernel.run_program(prog);
            let direct = recorder.record_graph(kernel.event_log());
            assert!(direct.node_count() > 0);
            assert_eq!(graph, direct, "{} ({})", prog.name, prog.exe_path);
        }
    }

    #[test]
    fn camflow_record_transform_roundtrip() {
        let mut tool = Tool::camflow_baseline().instantiate();
        let native = tool.record(&creat_program(), 1, false).unwrap();
        let graph = tool.transform(native).unwrap();
        assert!(graph.node_count() > 0);
    }

    #[test]
    fn failing_benchmark_reported() {
        let program = Program::new("bad")
            .exe("/usr/local/bin/bench_bg")
            .op(Op::Unlink {
                path: "/staging/does-not-exist".into(),
            });
        let mut tool = Tool::spade_baseline().instantiate();
        let err = tool.record(&program, 1, false).unwrap_err();
        match err {
            PipelineError::BenchmarkFailed { name, variant } => {
                assert_eq!(name, "bad");
                assert_eq!(variant, "background");
            }
            other => panic!("unexpected error {other}"),
        }
    }

    #[test]
    fn camflow_state_persists_across_trials() {
        let mut tool = Tool::camflow_baseline().instantiate();
        let n1 = tool.record(&creat_program(), 1, false).unwrap();
        let g1 = tool.transform(n1).unwrap();
        let n2 = tool.record(&creat_program(), 2, false).unwrap();
        let g2 = tool.transform(n2).unwrap();
        // Same shape even though the daemon carries state forward.
        assert_eq!(g1.node_count(), g2.node_count());
        assert_eq!(g1.edge_count(), g2.edge_count());
    }
}
