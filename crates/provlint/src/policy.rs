//! Per-crate / per-module policy: which rules apply where.
//!
//! The rules themselves are generic ("no raw writes outside sanctioned
//! modules"); the policy names the sanctioned modules for *this*
//! workspace. Defaults are baked into [`Policy::workspace_default`] so
//! `provmark-lint --workspace` works with zero configuration, and a
//! plain-text policy file (see [`Policy::apply_config`]) can extend or
//! replace each list — the format is hand-rolled line-oriented text per
//! the shim policy (no TOML parser in the tree).
//!
//! # Config file grammar
//!
//! ```text
//! # comment
//! skip-dir              <path substring never scanned>
//! panic-strict-crate    <crate name under the panic-in-lib rule>
//! sanctioned-write-file <path suffix where raw writes are sanctioned>
//! serde-module          <path suffix under the cast + version rules>
//! fuzz-marker           <path substring marking corruption/fuzz tests>
//! clock-exempt-crate    <crate name exempt from direct-clock>
//! disable-rule          <rule name turned off globally>
//! clear <list>          empty one of the lists above before extending
//! ```

use std::fmt;
use std::path::Path;

/// Which of the lint's scopes a file belongs to, derived from its path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileClass {
    /// Library source (`src/…` outside `src/bin`).
    Lib,
    /// Binary source (`src/bin/…` or `src/main.rs`).
    Bin,
    /// Integration test / bench / example / build script.
    Test,
}

/// The policy table consulted by every rule.
#[derive(Debug, Clone)]
pub struct Policy {
    /// Path substrings (unix separators) excluded from the walk.
    pub skip_dirs: Vec<String>,
    /// Crates whose non-test library code must be panic-free.
    pub panic_strict_crates: Vec<String>,
    /// Path suffixes where `fs::write`/`File::create` are the
    /// sanctioned durable-write implementation (or deliberate fault
    /// injection) rather than violations.
    pub sanctioned_write_files: Vec<String>,
    /// Path suffixes of serialization modules: the lossy-cast and
    /// version-fuzz-pairing rules apply only here.
    pub serde_modules: Vec<String>,
    /// Path substrings marking corruption/fuzz test files — the
    /// version-fuzz-pairing rule requires every format constant to be
    /// referenced from test code in a file matching one of these.
    pub fuzz_markers: Vec<String>,
    /// Crates allowed to read clocks directly (`Instant::now`,
    /// `SystemTime::now`).
    pub clock_exempt_crates: Vec<String>,
    /// Rules disabled globally.
    pub disabled_rules: Vec<String>,
}

/// A malformed policy config file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PolicyError {
    /// 1-based line of the offending directive.
    pub line: u32,
    /// What was wrong.
    pub message: String,
}

impl fmt::Display for PolicyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "policy line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for PolicyError {}

fn owned(items: &[&str]) -> Vec<String> {
    items.iter().map(|s| (*s).to_owned()).collect()
}

impl Policy {
    /// The baked-in policy for this workspace.
    pub fn workspace_default() -> Policy {
        Policy {
            skip_dirs: owned(&[
                "target/",
                ".git/",
                // Seeded-violation fixtures must fire the rules when a
                // test points the linter at them directly, but never
                // pollute a workspace run.
                "crates/provlint/tests/fixtures/",
            ]),
            panic_strict_crates: owned(&[
                "provgraph",
                "aspsolver",
                "provmark_core",
                "provshard",
                "provtrace",
                "provlint",
            ]),
            sanctioned_write_files: owned(&[
                // The workspace durable-write primitive itself.
                "crates/provtrace/src/lib.rs",
            ]),
            serde_modules: owned(&[
                "crates/aspsolver/src/persist.rs",
                "crates/provgraph/src/snapshot.rs",
                "crates/provshard/src/lib.rs",
                "crates/provshard/src/elastic.rs",
                "crates/provtrace/src/lib.rs",
            ]),
            fuzz_markers: owned(&[
                "corrupt",
                "fuzz",
                "differential",
                "persist",
                "snapshot",
                "claim_protocol",
                "solve_cache",
                "proptest_formats",
            ]),
            // The timing layers: the tracer, the bench shim and the
            // end-to-end benchmark, whose clock reads are its output.
            clock_exempt_crates: owned(&["provtrace", "minibench", "e2ebench"]),
            disabled_rules: Vec::new(),
        }
    }

    /// Is `rule` enabled?
    pub fn rule_enabled(&self, rule: &str) -> bool {
        !self.disabled_rules.iter().any(|r| r == rule)
    }

    /// Should this repo-relative path be scanned at all?
    pub fn scans(&self, rel_path: &str) -> bool {
        !self.skip_dirs.iter().any(|d| rel_path.contains(d.as_str()))
    }

    /// Does the panic-in-lib rule cover this crate?
    pub fn panic_strict(&self, crate_name: &str) -> bool {
        self.panic_strict_crates.iter().any(|c| c == crate_name)
    }

    /// Is this file a sanctioned home for raw filesystem writes?
    pub fn write_sanctioned(&self, rel_path: &str) -> bool {
        self.sanctioned_write_files
            .iter()
            .any(|s| rel_path.ends_with(s.as_str()))
    }

    /// Is this file a serialization module?
    pub fn is_serde_module(&self, rel_path: &str) -> bool {
        self.serde_modules
            .iter()
            .any(|s| rel_path.ends_with(s.as_str()))
    }

    /// Does this path look like a corruption/fuzz test file?
    pub fn is_fuzz_file(&self, rel_path: &str) -> bool {
        self.fuzz_markers
            .iter()
            .any(|m| rel_path.contains(m.as_str()))
    }

    /// Is this crate allowed to read clocks directly?
    pub fn clock_exempt(&self, crate_name: &str) -> bool {
        self.clock_exempt_crates.iter().any(|c| c == crate_name)
    }

    /// Apply a config file's directives on top of the current policy.
    ///
    /// # Errors
    ///
    /// Returns a [`PolicyError`] naming the first malformed line.
    pub fn apply_config(&mut self, text: &str) -> Result<(), PolicyError> {
        for (i, raw) in text.lines().enumerate() {
            let line_no = (i + 1) as u32;
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (key, value) = match line.split_once(char::is_whitespace) {
                Some((k, v)) => (k.trim(), v.trim()),
                None => {
                    return Err(PolicyError {
                        line: line_no,
                        message: format!("directive `{line}` is missing a value"),
                    })
                }
            };
            if value.is_empty() {
                return Err(PolicyError {
                    line: line_no,
                    message: format!("directive `{key}` is missing a value"),
                });
            }
            match key {
                "skip-dir" => self.skip_dirs.push(value.to_owned()),
                "panic-strict-crate" => self.panic_strict_crates.push(value.to_owned()),
                "sanctioned-write-file" => self.sanctioned_write_files.push(value.to_owned()),
                "serde-module" => self.serde_modules.push(value.to_owned()),
                "fuzz-marker" => self.fuzz_markers.push(value.to_owned()),
                "clock-exempt-crate" => self.clock_exempt_crates.push(value.to_owned()),
                "disable-rule" => self.disabled_rules.push(value.to_owned()),
                "clear" => match value {
                    "skip-dir" => self.skip_dirs.clear(),
                    "panic-strict-crate" => self.panic_strict_crates.clear(),
                    "sanctioned-write-file" => self.sanctioned_write_files.clear(),
                    "serde-module" => self.serde_modules.clear(),
                    "fuzz-marker" => self.fuzz_markers.clear(),
                    "clock-exempt-crate" => self.clock_exempt_crates.clear(),
                    "disable-rule" => self.disabled_rules.clear(),
                    other => {
                        return Err(PolicyError {
                            line: line_no,
                            message: format!("`clear {other}`: unknown list"),
                        })
                    }
                },
                other => {
                    return Err(PolicyError {
                        line: line_no,
                        message: format!("unknown directive `{other}`"),
                    })
                }
            }
        }
        Ok(())
    }
}

/// Derive the owning crate name from a repo-relative path.
///
/// `crates/<dir>/…` maps through the workspace's dir→package renames
/// (`core` → `provmark_core`, `bench` → `provmark_bench`); shims map to
/// their package names; everything at the root (`src/`, `tests/`,
/// `examples/`) belongs to the umbrella `provmark_suite`.
pub fn crate_of(rel_path: &str) -> String {
    let mut parts = rel_path.split('/');
    match parts.next() {
        Some("crates") => match parts.next() {
            Some("shims") => parts.next().unwrap_or("shims").to_owned(),
            Some("core") => "provmark_core".to_owned(),
            Some("bench") => "provmark_bench".to_owned(),
            Some(dir) => dir.to_owned(),
            None => "provmark_suite".to_owned(),
        },
        Some("e2ebench") => "e2ebench".to_owned(),
        _ => "provmark_suite".to_owned(),
    }
}

/// Classify a repo-relative path into lib / bin / test scope.
pub fn classify(rel_path: &str) -> FileClass {
    let p = rel_path;
    if p.contains("/tests/")
        || p.starts_with("tests/")
        || p.contains("/benches/")
        || p.contains("/examples/")
        || p.starts_with("examples/")
        || Path::new(p).file_name().is_some_and(|f| f == "build.rs")
    {
        FileClass::Test
    } else if p.contains("/src/bin/") || p.ends_with("/src/main.rs") {
        FileClass::Bin
    } else {
        FileClass::Lib
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_policy_shape() {
        let p = Policy::workspace_default();
        assert!(p.panic_strict("provgraph"));
        assert!(p.panic_strict("provmark_core"));
        assert!(!p.panic_strict("opus"));
        assert!(p.clock_exempt("minibench"));
        assert!(p.clock_exempt("e2ebench"));
        assert!(!p.clock_exempt("provshard"));
        assert!(p.write_sanctioned("crates/provtrace/src/lib.rs"));
        assert!(!p.write_sanctioned("crates/opus/src/neo4jsim.rs"));
        assert!(p.scans("crates/opus/src/lib.rs"));
        assert!(!p.scans("crates/provlint/tests/fixtures/bad.rs"));
        assert!(!p.scans("target/debug/build/x.rs"));
    }

    #[test]
    fn crate_names() {
        assert_eq!(crate_of("crates/core/src/pipeline.rs"), "provmark_core");
        assert_eq!(crate_of("crates/bench/src/lib.rs"), "provmark_bench");
        assert_eq!(crate_of("crates/shims/minibench/src/lib.rs"), "minibench");
        assert_eq!(crate_of("crates/provgraph/src/graph.rs"), "provgraph");
        assert_eq!(crate_of("src/lib.rs"), "provmark_suite");
        assert_eq!(crate_of("tests/table2_matrix.rs"), "provmark_suite");
        assert_eq!(crate_of("e2ebench/src/workloads.rs"), "e2ebench");
    }

    #[test]
    fn classification() {
        assert_eq!(classify("crates/provgraph/src/graph.rs"), FileClass::Lib);
        assert_eq!(classify("crates/core/src/bin/provmark.rs"), FileClass::Bin);
        assert_eq!(classify("crates/aspsolver/tests/x.rs"), FileClass::Test);
        assert_eq!(classify("tests/table2_matrix.rs"), FileClass::Test);
        assert_eq!(classify("examples/demo.rs"), FileClass::Test);
        assert_eq!(classify("crates/x/build.rs"), FileClass::Test);
    }

    #[test]
    fn config_extends_and_clears() {
        let mut p = Policy::workspace_default();
        p.apply_config(
            "# comment\n\nserde-module crates/x/src/fmt.rs\nclear clock-exempt-crate\nclock-exempt-crate onlyme\ndisable-rule raw-write\n",
        )
        .unwrap();
        assert!(p.is_serde_module("crates/x/src/fmt.rs"));
        assert!(!p.clock_exempt("provtrace"));
        assert!(p.clock_exempt("onlyme"));
        assert!(!p.rule_enabled("raw-write"));
        assert!(p.rule_enabled("panic-in-lib"));
    }

    #[test]
    fn config_errors_are_typed() {
        let mut p = Policy::workspace_default();
        let e = p
            .apply_config("skip-dir a\nbogus-directive x\n")
            .unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("bogus-directive"));
        let e = p.apply_config("skip-dir\n").unwrap_err();
        assert_eq!(e.line, 1);
        let e = p.apply_config("clear everything\n").unwrap_err();
        assert!(e.message.contains("unknown list"));
    }
}
