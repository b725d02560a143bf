/// Pipeline configuration (the `config.ini` + CLI parameters of the
/// original ProvMark, appendix A.4–A.5).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchmarkOptions {
    /// Number of recording trials per program variant (paper default: 2;
    /// "more trials … provide a more accurate result as multiple trials
    /// can help to filter out uncertainty").
    pub trials: usize,
    /// Base seed for the per-trial kernels. Trial `i` of the background
    /// variant uses `base_seed + i`; foreground trials continue after.
    pub base_seed: u64,
    /// Enable per-trial startup noise in the kernel, producing occasional
    /// inconsistent trials that the similarity-class filter must discard
    /// (the `filtergraphs` mechanism, appendix A.4).
    pub noise: bool,
    /// Discard obviously incomplete or inconsistent graphs before
    /// generalization (ProvMark's graph filtering; default on for CamFlow).
    pub filter_graphs: bool,
    /// Thread one session-level solve memo (`aspsolver::SolveMemo`)
    /// through each benchmark run, so dense searches replayed across
    /// stages, batches and left-hand sides are cached. Outcomes are
    /// byte-identical either way (the memo only skips re-deriving pure
    /// functions); the switch exists for ablation and for the CI
    /// memo-on/memo-off report diff. Default on.
    pub use_solve_memo: bool,
    /// Persistent solve-cache file backing the memo. When set (and
    /// `use_solve_memo` is on), [`run_benchmark`] warms its memo from
    /// this file before solving and saves the merged contents back
    /// afterwards, so repeated runs — across processes and restarts —
    /// replay prior dense searches instead of re-deriving them. A
    /// missing file is a normal cold start; a corrupt one is reported
    /// and ignored (cold start), never a panic or a wrong answer.
    /// Results are byte-identical with or without the cache, warm or
    /// cold — which is also why the path is **not** part of a run's
    /// recorded identity (`provshard` cell tasks never serialize it).
    ///
    /// [`run_benchmark`]: crate::pipeline::run_benchmark
    pub solve_cache: Option<std::path::PathBuf>,
    /// Trace directory for structured run telemetry (`provtrace`).
    /// When set, the top-level runners ([`run_benchmark`],
    /// [`run_matrix`]) record spans (cells, rows, stages, solves),
    /// memo/cache events and counters, and flush them durably to
    /// `trace.<label>.<pid>.jsonl` in this directory. Tracing is
    /// observably outcome-neutral: reports are byte-identical with it
    /// on or off, and when unset every instrumentation site is a no-op
    /// branch (no allocation, no lock). Like `solve_cache`, the path is
    /// runner-local configuration — wired per invocation via `--trace`
    /// — and never part of a run's recorded identity (`provshard` cell
    /// tasks never serialize it).
    ///
    /// [`run_benchmark`]: crate::pipeline::run_benchmark
    /// [`run_matrix`]: crate::pipeline::run_matrix
    pub trace: Option<std::path::PathBuf>,
}

impl Default for BenchmarkOptions {
    fn default() -> Self {
        BenchmarkOptions {
            trials: 2,
            base_seed: 1,
            noise: false,
            filter_graphs: true,
            use_solve_memo: true,
            solve_cache: None,
            trace: None,
        }
    }
}

impl BenchmarkOptions {
    /// Options with a given trial count.
    pub fn with_trials(trials: usize) -> Self {
        BenchmarkOptions {
            trials,
            ..Self::default()
        }
    }

    /// Builder-style seed override.
    pub fn seed(mut self, base_seed: u64) -> Self {
        self.base_seed = base_seed;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let o = BenchmarkOptions::default();
        assert_eq!(o.trials, 2, "paper appendix: Number of trials (Default: 2)");
        assert!(!o.noise);
    }

    #[test]
    fn builders() {
        let o = BenchmarkOptions::with_trials(5).seed(42);
        assert_eq!(o.trials, 5);
        assert_eq!(o.base_seed, 42);
    }
}
