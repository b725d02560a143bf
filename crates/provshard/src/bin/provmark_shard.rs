//! `provmark-shard` — runs the Table 2 matrix, in one process or over
//! elastic worker processes.
//!
//! ```text
//! provmark-shard single  [--quick] [--trials T] [--seed S] [--solve-cache DIR] [--trace DIR] --out REPORT
//! provmark-shard drive   --shards N --out REPORT [--work-dir DIR] [--solve-cache DIR] [--trace DIR] [fault options] [run options]
//! provmark-shard work    DIR --worker-index N [--heartbeat-ms H] [--poll-ms P] [--stall-ms S] [--inject SPEC] [--solve-cache DIR] [--trace DIR]
//! ```
//!
//! `single` runs the whole matrix in one process and writes the
//! reference report; `drive` runs the crash-tolerant elastic protocol —
//! per-cell claimable tasks, heartbeats, epoch-bumped re-dispatch — over
//! N concurrent `work` worker *processes* of this executable and writes
//! a report byte-identical to `single`'s; `work` is that worker loop
//! (claim → solve → publish, driven entirely by the shared run
//! directory).
//!
//! `--solve-cache DIR` points `single`, `drive` and `work` at a shared
//! persistent solve-cache directory: runs warm their solve memos from
//! `DIR/solve.cache` and publish what they solved back (elastic workers
//! via private per-worker delta files the driver merges), so repeated
//! runs — across processes, workers and restarts — replay prior dense
//! searches. Reports are byte-identical with or without it; a missing
//! cache is a cold start and a corrupt one is skipped with a note.
//!
//! `--trace DIR` points `single`, `drive` and `work` at a trace
//! directory for structured `provtrace` telemetry: every participating
//! process writes its own versioned `trace.<label>.<pid>.jsonl`
//! (spans for cells, rows and solves; claim / heartbeat / publish /
//! re-dispatch events; memo counters), durably flushed so crashes
//! leave readable partial traces. Inspect with `provmark-trace`.
//! Tracing is observably outcome-neutral: reports are byte-identical
//! with it on or off.
//!
//! `--inject` deterministically injects faults for tests and CI:
//! `kill-worker=N`, `torn-partial[=N]`, `stall=N`,
//! `kill-cell=SYSCALL/TOOL`.
//!
//! All argument and artifact validation surfaces typed pipeline errors
//! with actionable messages (exit code 2 for usage errors, 1 for
//! pipeline failures). Reports are written atomically and durably
//! (`provtrace::write_bytes_durable`), so a killed invocation never
//! leaves a torn file at a final path.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use provmark_core::PipelineError;
use provshard::elastic::{
    drive_elastic, worker_loop, ElasticOptions, InjectSpec, TaskStore, WorkerContext, WorkerEnd,
    SOLVE_CACHE_FILE,
};
use provshard::{single_report, RunConfig};

fn usage() -> ExitCode {
    eprintln!(
        "usage: provmark-shard <command> [options]\n\
         \n\
         commands:\n\
         \x20 single  --out REPORT [run options]\n\
         \x20 drive   --shards N --out REPORT [--work-dir DIR] [fault options] [run options]\n\
         \x20 work    DIR --worker-index N [--heartbeat-ms H] [--poll-ms P] [--stall-ms S] [--inject SPEC]\n\
         \n\
         run options:   --quick (scaled-down simulated OPUS startup),\n\
         \x20            --trials T (default 2), --seed S (default 1),\n\
         \x20            --no-memo (disable the session-level solve memo),\n\
         \x20            --solve-cache DIR (persistent solve cache shared across\n\
         \x20            runs and workers),\n\
         \x20            --trace DIR (write provtrace telemetry files into DIR)\n\
         fault options: --stale-after-ms MS (default 5000; 300 with --quick),\n\
         \x20            --max-retries R (default 2),\n\
         \x20            --backoff-ms MS (default 100; 50 with --quick),\n\
         \x20            --inject kill-worker=N,torn-partial[=N],stall=N,kill-cell=SYSCALL/TOOL"
    );
    ExitCode::from(2)
}

/// Shared CLI state collected from the argument list.
#[derive(Default)]
struct Args {
    shards: Option<usize>,
    out: Option<PathBuf>,
    work_dir: Option<PathBuf>,
    solve_cache: Option<PathBuf>,
    trace: Option<PathBuf>,
    quick: bool,
    no_memo: bool,
    trials: Option<usize>,
    seed: Option<u64>,
    inject: InjectSpec,
    stale_after_ms: Option<u64>,
    max_retries: Option<u32>,
    backoff_ms: Option<u64>,
    worker_index: Option<usize>,
    heartbeat_ms: Option<u64>,
    poll_ms: Option<u64>,
    stall_ms: Option<u64>,
    positional: Vec<PathBuf>,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = raw.iter();
    let value = |flag: &str, it: &mut std::slice::Iter<'_, String>| {
        it.next()
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    fn number<T: std::str::FromStr>(flag: &str, text: String, what: &str) -> Result<T, String> {
        text.parse().map_err(|_| format!("{flag} needs {what}"))
    }
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--shards" => {
                args.shards = Some(number(
                    "--shards",
                    value("--shards", &mut it)?,
                    "a positive integer",
                )?)
            }
            "--out" => args.out = Some(PathBuf::from(value("--out", &mut it)?)),
            "--work-dir" => args.work_dir = Some(PathBuf::from(value("--work-dir", &mut it)?)),
            "--solve-cache" => {
                args.solve_cache = Some(PathBuf::from(value("--solve-cache", &mut it)?))
            }
            "--trace" => args.trace = Some(PathBuf::from(value("--trace", &mut it)?)),
            "--quick" => args.quick = true,
            "--no-memo" => args.no_memo = true,
            "--trials" => {
                args.trials = Some(number(
                    "--trials",
                    value("--trials", &mut it)?,
                    "a positive integer",
                )?)
            }
            "--seed" => {
                args.seed = Some(number(
                    "--seed",
                    value("--seed", &mut it)?,
                    "a non-negative integer",
                )?)
            }
            "--inject" => {
                args.inject = InjectSpec::parse(&value("--inject", &mut it)?)
                    .map_err(|e| format!("--inject: {e}"))?
            }
            "--stale-after-ms" => {
                args.stale_after_ms = Some(number(
                    "--stale-after-ms",
                    value("--stale-after-ms", &mut it)?,
                    "a duration in milliseconds",
                )?)
            }
            "--max-retries" => {
                args.max_retries = Some(number(
                    "--max-retries",
                    value("--max-retries", &mut it)?,
                    "a non-negative integer",
                )?)
            }
            "--backoff-ms" => {
                args.backoff_ms = Some(number(
                    "--backoff-ms",
                    value("--backoff-ms", &mut it)?,
                    "a duration in milliseconds",
                )?)
            }
            "--worker-index" => {
                args.worker_index = Some(number(
                    "--worker-index",
                    value("--worker-index", &mut it)?,
                    "a non-negative integer",
                )?)
            }
            "--heartbeat-ms" => {
                args.heartbeat_ms = Some(number(
                    "--heartbeat-ms",
                    value("--heartbeat-ms", &mut it)?,
                    "a duration in milliseconds",
                )?)
            }
            "--poll-ms" => {
                args.poll_ms = Some(number(
                    "--poll-ms",
                    value("--poll-ms", &mut it)?,
                    "a duration in milliseconds",
                )?)
            }
            "--stall-ms" => {
                args.stall_ms = Some(number(
                    "--stall-ms",
                    value("--stall-ms", &mut it)?,
                    "a duration in milliseconds",
                )?)
            }
            flag if flag.starts_with("--") => return Err(format!("unknown flag `{flag}`")),
            path => args.positional.push(PathBuf::from(path)),
        }
    }
    Ok(args)
}

impl Args {
    fn config(&self) -> RunConfig {
        let mut config = if self.quick {
            RunConfig::quick()
        } else {
            RunConfig::full()
        };
        if let Some(trials) = self.trials {
            config.opts.trials = trials;
        }
        if let Some(seed) = self.seed {
            config.opts.base_seed = seed;
        }
        config.opts.use_solve_memo = !self.no_memo;
        config
    }

    fn elastic_options(&self) -> ElasticOptions {
        // Quick runs finish in milliseconds; pair them with the
        // smoke-tuned recovery timings so a killed worker doesn't stall
        // the matrix for the production 5 s staleness threshold.
        // Explicit --stale-after-ms / --backoff-ms still win below.
        let mut opts = if self.quick {
            ElasticOptions::quick()
        } else {
            ElasticOptions::default()
        };
        if let Some(ms) = self.stale_after_ms {
            opts.stale_after = Duration::from_millis(ms);
        }
        if let Some(retries) = self.max_retries {
            opts.max_retries = retries;
        }
        if let Some(ms) = self.backoff_ms {
            opts.backoff = Duration::from_millis(ms);
        }
        opts.inject = self.inject.clone();
        opts.solve_cache = self.solve_cache.clone();
        opts.trace = self.trace.clone();
        opts
    }
}

fn run(command: &str, args: &Args) -> Result<(), PipelineError> {
    match command {
        "single" => {
            let out = args.out.clone().ok_or(missing("--out"))?;
            let mut config = args.config();
            if let Some(dir) = &args.solve_cache {
                std::fs::create_dir_all(dir)?;
                config.opts.solve_cache = Some(dir.join(SOLVE_CACHE_FILE));
            }
            config.opts.trace = args.trace.clone();
            let report = single_report(&config);
            provtrace::write_bytes_durable(&out, report.as_bytes())?;
            println!("single-process matrix -> {}", out.display());
            Ok(())
        }
        "drive" => {
            let workers = args.shards.ok_or(missing("--shards"))?;
            let out = args.out.clone().ok_or(missing("--out"))?;
            let work_dir = args.work_dir.clone().unwrap_or_else(|| {
                std::env::temp_dir().join(format!("provmark-shard-{}", std::process::id()))
            });
            let outcome =
                drive_elastic(workers, &args.config(), &work_dir, &args.elastic_options())?;
            // The report is written even on a degraded run: lost cells
            // are visible in it, and the typed error follows.
            provtrace::write_bytes_durable(&out, outcome.report.as_bytes())?;
            for exit in outcome.worker_exits.iter().filter(|e| !e.success) {
                match &exit.stderr {
                    Some(path) => eprintln!(
                        "provmark-shard drive: worker {} failed ({}) — stderr: {}",
                        exit.worker,
                        exit.status,
                        path.display()
                    ),
                    None => eprintln!(
                        "provmark-shard drive: worker {} failed ({})",
                        exit.worker, exit.status
                    ),
                }
            }
            println!(
                "drove {} worker process(es) ({} spawned, {} re-dispatch(es), artifacts in {}) -> {}",
                workers,
                outcome.workers_spawned,
                outcome.requeues,
                work_dir.display(),
                out.display()
            );
            println!(
                "solve memo: {} hit(s) ({} from disk), {} miss(es), {} eviction(s)",
                outcome.memo.hits,
                outcome.memo.disk_hits,
                outcome.memo.misses,
                outcome.memo.evictions
            );
            // Summed over *accepted* cells only; superseded publishes are
            // reported separately so wasted zombie work stays visible
            // instead of being silently dropped.
            if outcome.stale_publishes > 0 {
                println!(
                    "rejected {} stale-epoch publish(es) (zombie work: {} hit(s), {} miss(es))",
                    outcome.stale_publishes, outcome.zombie_memo.hits, outcome.zombie_memo.misses
                );
            }
            if let Some(merge) = &outcome.cache_merge {
                println!(
                    "solve cache: {} entr{} after folding in {} worker delta file(s)",
                    merge.entries,
                    if merge.entries == 1 { "y" } else { "ies" },
                    merge.delta_files
                );
                for note in &merge.skipped {
                    eprintln!("provmark-shard drive: skipped corrupt cache input {note}");
                }
            }
            if outcome.failures.is_empty() {
                Ok(())
            } else {
                Err(PipelineError::CellsExhausted {
                    failures: outcome.failures,
                })
            }
        }
        "work" => {
            let [dir] = args.positional.as_slice() else {
                return Err(missing("exactly one run DIR"));
            };
            let index = args.worker_index.ok_or(missing("--worker-index"))?;
            let store = TaskStore::open(dir)?;
            let defaults = ElasticOptions::default();
            let ctx = WorkerContext {
                index,
                heartbeat_interval: args
                    .heartbeat_ms
                    .map_or(defaults.heartbeat_interval, Duration::from_millis),
                poll_interval: args
                    .poll_ms
                    .map_or(defaults.poll_interval, Duration::from_millis),
                stall: args
                    .stall_ms
                    .map_or(defaults.stale_after * 4, Duration::from_millis),
                inject: args.inject.clone(),
                solve_cache: args.solve_cache.clone(),
                trace: args.trace.clone(),
            };
            match worker_loop(&store, &ctx)? {
                WorkerEnd::Stopped => Ok(()),
                WorkerEnd::Crashed(reason) => {
                    // A fault injection asked for a real crash: abort so
                    // the supervisor sees a signal death, not a tidy
                    // error return.
                    eprintln!("provmark-shard work: {reason}");
                    std::process::abort();
                }
            }
        }
        other => Err(PipelineError::ShardArtifact {
            detail: format!("unknown command `{other}`"),
        }),
    }
}

fn missing(what: &str) -> PipelineError {
    PipelineError::ShardArtifact {
        detail: format!("missing {what}"),
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = raw.split_first() else {
        return usage();
    };
    let args = match parse_args(rest) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("provmark-shard: {message}");
            return usage();
        }
    };
    match run(command, &args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(PipelineError::ShardArtifact { detail }) if detail.starts_with("missing ") => {
            eprintln!("provmark-shard {command}: {detail}");
            usage()
        }
        Err(e) => {
            eprintln!("provmark-shard {command}: {e}");
            ExitCode::FAILURE
        }
    }
}
