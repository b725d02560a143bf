//! Simulated **OPUS** provenance recorder (paper §2, Figure 2).
//!
//! OPUS observes a process by interposing on dynamically-linked C library
//! calls and builds graphs following its *Provenance Versioning Model*
//! (PVM). The simulation consumes the [`oskernel`] libc-call stream and
//! reproduces the behaviours the paper reports for OPUS 0.1.0.26:
//!
//! - it sees **failed** calls — a failed `rename` produces the same
//!   structure as a successful one, with return value `-1` (§3.1, Alice);
//! - it is **blind to raw syscalls** that bypass libc, such as the
//!   benchmarks' direct `clone` (Table 2: `clone` empty/NR);
//! - reads and writes are **not recorded** in the default configuration,
//!   and neither are `fchmod`/`fchown`, which "only perform read/write
//!   activity and do not affect the process's file descriptor state" (§4.3);
//! - `dup` *is* recorded: one node for the call and one for the new
//!   resource, "not directly connected to each other, but connected to the
//!   same process node" (§4.1);
//! - process graphs are comparatively **large**: environments are recorded
//!   at exec/fork time, and `fork`/`vfork` copy descriptor state (§4.2);
//! - provenance is persisted to **Neo4j**, whose startup and query cost
//!   dominates ProvMark's transformation stage (Figures 6 and 9) —
//!   simulated here by the in-memory [`neo4jsim`] store, which charges
//!   the startup cost on every query session.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod neo4jsim;
mod recorder;

pub use neo4jsim::Neo4jStore;
pub use recorder::OpusRecorder;

/// Configuration surface of the simulated OPUS.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpusConfig {
    /// Record read/write activity (off by default, Table 2 note NR).
    pub record_io: bool,
    /// Iterations of busy-work simulating JVM warmup + Neo4j startup each
    /// time the store is opened for a query session. The default is scaled
    /// so OPUS transformation visibly dominates, as in paper Figure 6,
    /// without minutes-long test runs.
    pub db_startup_iterations: u64,
}

impl Default for OpusConfig {
    fn default() -> Self {
        OpusConfig {
            record_io: false,
            db_startup_iterations: 2_000_000,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_matches_paper_baseline() {
        let c = OpusConfig::default();
        assert!(!c.record_io, "reads/writes unrecorded by default");
        assert!(c.db_startup_iterations > 0);
    }
}
