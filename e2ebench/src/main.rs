//! `e2ebench` — end-to-end, layer-attributed benchmark of the ProvMark
//! workspace.
//!
//! ```text
//! e2ebench --workload W --seed S --seconds T --trace 0|1
//! e2ebench metrics [--check]
//! ```
//!
//! A run measures workload `W` at seed `S` for about `T` seconds and
//! prints, as its last stdout line, one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the
//! metrics are the end-to-end set, all taken with tracing off; with
//! `--trace 1` they are the per-layer set: outside timings of each
//! layer's public functions plus one traced iteration folded into
//! per-layer self-time. Earlier stdout lines carry the host provenance
//! (`provenance {...}`), each drive's protocol counters (`drive {...}`)
//! and the traced breakdown per lane and per tool (`breakdown {...}`).
//!
//! `metrics` lists every metric with its unit and layer; `--check` also
//! runs every workload briefly and checks its outputs and metric set.
//!
//! The matrix workloads build the repository's `provmark-shard` binary
//! (`cargo build --release --offline`, a no-op when it is fresh): the
//! drives run it as their worker processes, and its `single` command
//! makes the reference report. All scratch files (run dirs, traces, the
//! simulated Neo4j stores) go under `.e2ebench_run/` in the working
//! directory and are removed at exit.
//!
//! Run from the repository root:
//! `cargo run --release --manifest-path e2ebench/Cargo.toml -- --workload table2-single --seed 1 --seconds 10 --trace 0`

mod fold;
mod metrics;
mod probes;
mod procs;
mod stats;
mod workloads;

use std::process::{Command, ExitCode};

use metrics::{Metric, END_TO_END, PER_LAYER};
use workloads::{RunSpec, Workload};

const USAGE: &str = "usage: e2ebench --workload W --seed S --seconds T --trace 0|1\n\
                     \x20      e2ebench metrics [--check]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("metrics") => list_metrics(&args[1..]),
        _ => run(&args),
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("e2ebench: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn value<'a>(flag: &str, it: &mut impl Iterator<Item = &'a String>) -> Result<&'a String, String> {
    it.next().ok_or_else(|| format!("{flag} needs a value"))
}

fn number<T: std::str::FromStr>(flag: &str, text: &str) -> Result<T, String> {
    text.parse()
        .map_err(|_| format!("{flag}: `{text}` is not a valid number"))
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let text = value(flag, &mut it)?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(text).ok_or_else(|| format!("unknown workload `{text}`"))?,
                )
            }
            "--seed" => seed = Some(number::<u64>(flag, text)?),
            "--seconds" => seconds = Some(number::<u64>(flag, text)?),
            "--trace" => {
                trace = Some(match text.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_owned()),
                })
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(1..=600).contains(&seconds) {
        return Err("--seconds must be between 1 and 600".to_owned());
    }
    let root = std::env::current_dir()
        .map_err(|e| format!("working directory: {e}"))?
        .join(".e2ebench_run");
    let spec = RunSpec {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds as f64,
        trace: trace.ok_or("--trace is required")?,
        root: root.join(std::process::id().to_string()),
    };
    // Keep every file the program writes (the simulated Neo4j stores
    // use the temp dir) inside the working directory. Set before any
    // thread starts; the drive's worker processes inherit it.
    let tmp = spec.root.join("tmp");
    std::fs::create_dir_all(&tmp).map_err(|e| format!("{}: {e}", tmp.display()))?;
    std::env::set_var("TMPDIR", &tmp);
    let result = procs::disable_core_dumps().and_then(|()| workloads::run(&spec));
    std::fs::remove_dir_all(&spec.root).ok();
    std::fs::remove_dir(&root).ok();
    let output = match result {
        Ok(output) => output,
        Err(e) => {
            eprintln!("e2ebench {}: {e}", spec.workload.name());
            return Ok(ExitCode::FAILURE);
        }
    };
    let registry = if spec.trace { PER_LAYER } else { END_TO_END };
    let outcome = &output.outcome;
    for note in &output.notes {
        eprintln!("e2ebench {}: {note}", spec.workload.name());
    }
    if outcome.correct {
        if let Err(e) = outcome.check_complete(registry) {
            eprintln!("e2ebench {}: {e}", spec.workload.name());
            return Ok(ExitCode::FAILURE);
        }
    } else {
        eprintln!(
            "e2ebench {}: {} of {} cells failed; no timings published",
            spec.workload.name(),
            outcome.failed,
            outcome.attempted
        );
    }
    println!("provenance {}", workloads::provenance_json());
    for line in &output.lines {
        println!("{line}");
    }
    println!("{}", outcome.to_line(registry));
    Ok(if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn print_table(title: &str, registry: &[Metric]) {
    println!("\n{title}");
    for m in registry {
        println!("  {:<26} {:<6} {:<20} {}", m.name, m.unit, m.layer, m.about);
    }
}

/// List every metric; with `--check`, run each workload briefly in both
/// modes and check its outputs and metric set.
fn list_metrics(args: &[String]) -> Result<ExitCode, String> {
    let check = match args {
        [] => false,
        [flag] if flag == "--check" => true,
        _ => return Err("metrics takes only --check".to_owned()),
    };
    let all: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    println!("workloads (every workload reports every metric of the set its --trace selects):");
    for w in Workload::ALL {
        println!("  {:<18} {}", w.name(), w.why());
    }
    print_table(
        &format!(
            "end-to-end metrics (--trace 0), reported by {}:",
            all.join(", ")
        ),
        END_TO_END,
    );
    print_table(
        &format!(
            "per-layer metrics (--trace 1), reported by {}:",
            all.join(", ")
        ),
        PER_LAYER,
    );
    if !check {
        return Ok(ExitCode::SUCCESS);
    }
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut ok = true;
    println!("\nchecks (seed 1, 1 second):");
    match check_benchmark_json() {
        Ok(()) => println!("  ok    BENCHMARK.json matches the registry"),
        Err(e) => {
            ok = false;
            println!("  FAIL  BENCHMARK.json: {e}");
        }
    }
    for w in Workload::ALL {
        for (trace, registry) in [("0", END_TO_END), ("1", PER_LAYER)] {
            let out = Command::new(&exe)
                .args([
                    "--workload",
                    w.name(),
                    "--seed",
                    "1",
                    "--seconds",
                    "1",
                    "--trace",
                    trace,
                ])
                .output()
                .map_err(|e| e.to_string())?;
            let stdout = String::from_utf8_lossy(&out.stdout);
            let verdict =
                check_line(stdout.lines().last().unwrap_or_default(), registry).and_then(|()| {
                    out.status
                        .success()
                        .then_some(())
                        .ok_or_else(|| format!("exit status {}", out.status))
                });
            match verdict {
                Ok(()) => println!("  ok    {} --trace {trace}", w.name()),
                Err(e) => {
                    ok = false;
                    println!("  FAIL  {} --trace {trace}: {e}", w.name());
                }
            }
        }
    }
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Check that `BENCHMARK.json` in the working directory names known
/// workloads and exactly the registry's metrics, units and directions.
fn check_benchmark_json() -> Result<(), String> {
    let text = std::fs::read_to_string("BENCHMARK.json").map_err(|e| e.to_string())?;
    let doc: serde_json::Value = serde_json::from_str(&text).map_err(|e| e.to_string())?;
    let serde_json::Value::Array(workloads) = &doc["workloads"] else {
        return Err("no workloads list".to_owned());
    };
    for w in workloads {
        let name = w["name"].as_str().unwrap_or_default();
        Workload::parse(name).ok_or(format!("unknown workload `{name}`"))?;
    }
    for (key, registry) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        let serde_json::Value::Array(listed) = &doc[key] else {
            return Err(format!("no {key} list"));
        };
        let listed: Vec<(&str, &str, &str)> = listed
            .iter()
            .map(|m| {
                let field = |k: &str| m[k].as_str().unwrap_or_default();
                (field("name"), field("unit"), field("better"))
            })
            .collect();
        let expected: Vec<(&str, &str, &str)> = registry
            .iter()
            .map(|m| (m.name, m.unit, m.better()))
            .collect();
        if listed != expected {
            return Err(format!("{key} differs from the registry"));
        }
    }
    Ok(())
}

/// Check one result line: correct, no failures, and exactly the
/// registry's metrics with their units.
fn check_line(line: &str, registry: &[Metric]) -> Result<(), String> {
    let doc: serde_json::Value =
        serde_json::from_str(line).map_err(|e| format!("result line is not JSON: {e}"))?;
    if doc["correct"].as_bool() != Some(true) || doc["failed"].as_f64() != Some(0.0) {
        return Err(format!("outputs incorrect: {line}"));
    }
    let metrics = doc["metrics"].as_object().ok_or("no metrics object")?;
    if metrics.len() != registry.len() {
        return Err(format!(
            "{} metrics, expected {}",
            metrics.len(),
            registry.len()
        ));
    }
    for m in registry {
        let entry = metrics.get(m.name).ok_or(format!("missing {}", m.name))?;
        if entry["unit"].as_str() != Some(m.unit) || entry["value"].as_f64().is_none() {
            return Err(format!("bad entry for {}", m.name));
        }
    }
    Ok(())
}
