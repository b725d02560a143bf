//! The rule catalog and the engine that runs it.
//!
//! Each rule is a pure function from a [`SourceFile`] (plus the
//! [`Policy`]) to findings; the `version-fuzz-pairing` rule additionally
//! gets a workspace-wide pass because its evidence (a fuzz test
//! referencing a constant) lives in *other* files. Rules never consult
//! allow annotations — the engine filters findings through them so the
//! suppression logic is uniform and auditable.

use crate::diag::Diagnostic;
use crate::policy::{FileClass, Policy};
use crate::source::SourceFile;

/// A rule's identity and documentation, surfaced by `--explain`.
pub struct RuleInfo {
    /// Stable rule name, used in diagnostics and allow annotations.
    pub name: &'static str,
    /// One-line summary.
    pub summary: &'static str,
    /// Why the rule exists (printed by `--explain`).
    pub rationale: &'static str,
    /// How to fix a finding (printed by `--explain`).
    pub fix: &'static str,
}

/// All rules, in diagnostic order.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        name: "raw-write",
        summary: "artifact writes must go through the durable primitives",
        rationale: "\
Artifacts (reports, caches, snapshots, shard results, traces) are read
back by other processes and later runs. A raw `fs::write` or
`File::create` can be torn by a crash mid-write, leaving a half-file
observable at the final path; every consumer then needs bespoke
corruption handling. The workspace primitive
`provtrace::write_bytes_durable` writes a same-directory temp file,
fsyncs it, renames it over the destination and fsyncs the directory, so
readers only ever see the old bytes or the new bytes.",
        fix: "\
Replace `fs::write(path, bytes)` with
`provtrace::write_bytes_durable(&path, bytes)`. For streaming writers,
build the bytes in memory (or in a temp file you rename yourself) and
publish with one durable rename. Deliberate fault-injection sites and
non-artifact streams (e.g. captured child stderr) should carry
`// provlint: allow(raw-write) -- <why>`.",
    },
    RuleInfo {
        name: "panic-in-lib",
        summary: "library code surfaces typed errors instead of panicking",
        rationale: "\
The execution stack (solver, pipeline, shard workers) must degrade into
typed errors — a panic in a worker turns a recoverable cell failure
into a dead process, and a panic during serialization can leave
artifacts half-written. `unwrap`/`expect`/`panic!`/`todo!`/
`unimplemented!` in non-test library code of the strict crates are
therefore violations; tests and binaries may panic freely.",
        fix: "\
Return the crate's typed error (`?`, `ok_or_else`, `map_err`) for any
genuinely fallible site. If the site is provably infallible (e.g. an
index bounds-checked on the line above), keep it and annotate:
`// provlint: allow(panic-in-lib) -- <proof sketch>`.",
    },
    RuleInfo {
        name: "version-fuzz-pairing",
        summary: "every on-disk format constant is exercised by corruption tests",
        rationale: "\
Each persistent format (snapshot, solve cache, shard artifacts, trace
files) declares magic/version constants, and the readers promise typed
errors — never panics — on arbitrary corruption. That promise is only
as good as the fuzz coverage: a new format version that ships without
prefix/byte-flip/version-skew tests is an unverified parser on
untrusted input. This rule requires every `*_VERSION`/`*MAGIC*`
constant declared in a serialization module to be referenced from test
code in a corruption/fuzz test file (policy `fuzz-marker` paths).",
        fix: "\
Extend the format's corruption suite to exercise the constant by name:
build a header from the real constant, flip it to `CONST + 1` (or
corrupt the magic) and assert the typed rejection, and fuzz strict
prefixes of a valid file. Referencing the constant (not a literal copy)
keeps the test honest when the format evolves.",
    },
    RuleInfo {
        name: "lossy-cast-in-serde",
        summary: "no silently narrowing casts in persistence modules",
        rationale: "\
On-disk formats must round-trip values exactly. An `as u32`/`as f64`
cast in a serializer silently truncates once the value outgrows the
target (the JSON shim stores numbers as f64, so any u64 above 2^53
corrupts quietly — the original motivation for string-encoded seeds).
Casts in persist/snapshot/artifact modules must be provably lossless
or checked.",
        fix: "\
Use `try_from` with a typed error, or route through a checked helper
(`len_u32`, `exact_num`) that documents and debug-asserts the bound,
annotated once at the helper:
`// provlint: allow(lossy-cast-in-serde) -- <bound argument>`.",
    },
    RuleInfo {
        name: "direct-clock",
        summary: "clocks are read only by the telemetry and timing layers",
        rationale: "\
Reports, shard artifacts and diffs are byte-identical across
single-process, sharded, memoized and traced runs — the core
correctness claim of the whole stack. Wall-clock or monotonic reads
sneaking into compute paths are how timing leaks into outputs (or into
control flow that changes outputs). Only `provtrace` (telemetry
anchors) and `minibench` (the measurement harness) read clocks freely;
everywhere else each clock read needs an explicit justification that
it is outcome-neutral.",
        fix: "\
If the time feeds a report, thread it from the measurement layer
(`minibench`) instead. If it is genuinely outcome-neutral (stage
timing, liveness deadlines, backoff), annotate the site:
`// provlint: allow(direct-clock) -- <why outcome-neutral>`.",
    },
];

/// Look up a rule by name.
pub fn rule_info(name: &str) -> Option<&'static RuleInfo> {
    RULES.iter().find(|r| r.name == name)
}

/// A format constant declared in a serialization module, collected for
/// the workspace-level `version-fuzz-pairing` pass.
pub struct FormatConst {
    /// Constant identifier (e.g. `SNAPSHOT_VERSION`).
    pub name: String,
    /// Repo-relative path of the declaring file.
    pub rel_path: String,
    /// 1-based declaration line.
    pub line: u32,
    /// Column of the identifier.
    pub col: u32,
    /// Snippet for the diagnostic.
    pub snippet: String,
    /// Justification if an allow annotation covers the declaration.
    pub allowed: Option<String>,
}

fn diag(rule: &'static str, sf: &SourceFile, i: usize, message: String) -> Diagnostic {
    let t = sf.sig_tok(i);
    Diagnostic {
        rule,
        path: sf.rel_path.clone(),
        line: t.line,
        col: t.col,
        message,
        snippet: sf.line_text(t.line).to_owned(),
        justification: None,
    }
}

/// raw-write: `fs::write` / `File::create` outside sanctioned modules.
pub fn check_raw_write(sf: &SourceFile, policy: &Policy) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    if policy.write_sanctioned(&sf.rel_path) {
        return out;
    }
    for i in 2..sf.sig_len() {
        let callee = sf.sig_text(i);
        let (qualifier, what) = match callee {
            "write" => ("fs", "`fs::write`"),
            "create" => ("File", "`File::create`"),
            _ => continue,
        };
        if !(sf.sig_is_punct(i - 1, ':') && sf.sig_is_punct(i - 2, ':')) {
            continue;
        }
        if i < 3 || !sf.sig_is_ident(i - 3, qualifier) {
            continue;
        }
        if sf.in_test_code(sf.sig_tok(i).start) {
            continue;
        }
        out.push(diag(
            "raw-write",
            sf,
            i,
            format!(
                "raw {what} bypasses torn-write protection; route artifact writes \
                 through `provtrace::write_bytes_durable`"
            ),
        ));
    }
    out
}

/// panic-in-lib: panicking constructs in strict crates' library code.
pub fn check_panic_in_lib(sf: &SourceFile, policy: &Policy) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    if !policy.panic_strict(&sf.crate_name) || sf.class != FileClass::Lib {
        return out;
    }
    for i in 0..sf.sig_len() {
        let name = sf.sig_text(i);
        let finding = match name {
            "unwrap" | "expect" => {
                i >= 1 && sf.sig_is_punct(i - 1, '.') && sf.sig_is_punct(i + 1, '(')
            }
            "panic" | "todo" | "unimplemented" => sf.sig_is_punct(i + 1, '!'),
            _ => false,
        };
        if !finding || sf.in_test_code(sf.sig_tok(i).start) {
            continue;
        }
        let form = match name {
            "unwrap" | "expect" => format!("`.{name}()`"),
            _ => format!("`{name}!`"),
        };
        out.push(diag(
            "panic-in-lib",
            sf,
            i,
            format!(
                "{form} in `{}` library code can abort a worker mid-artifact; \
                 surface a typed error instead",
                sf.crate_name
            ),
        ));
    }
    out
}

/// lossy-cast-in-serde: narrowing `as` casts in serialization modules.
pub fn check_lossy_cast(sf: &SourceFile, policy: &Policy) -> Vec<Diagnostic> {
    const NARROW: &[&str] = &["u8", "u16", "u32", "i8", "i16", "i32", "f32", "f64"];
    let mut out = Vec::new();
    if !policy.is_serde_module(&sf.rel_path) {
        return out;
    }
    for i in 0..sf.sig_len().saturating_sub(1) {
        if !sf.sig_is_ident(i, "as") {
            continue;
        }
        let target = sf.sig_text(i + 1);
        if !NARROW.contains(&target) {
            continue;
        }
        if sf.in_test_code(sf.sig_tok(i).start) {
            continue;
        }
        out.push(diag(
            "lossy-cast-in-serde",
            sf,
            i,
            format!(
                "`as {target}` in a persistence module can silently truncate; \
                 use `try_from` or a checked, annotated helper"
            ),
        ));
    }
    out
}

/// direct-clock: `SystemTime::now` / `Instant::now` outside exempt
/// crates.
pub fn check_direct_clock(sf: &SourceFile, policy: &Policy) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    if policy.clock_exempt(&sf.crate_name) {
        return out;
    }
    for i in 3..sf.sig_len() {
        if !sf.sig_is_ident(i, "now") {
            continue;
        }
        if !(sf.sig_is_punct(i - 1, ':') && sf.sig_is_punct(i - 2, ':')) {
            continue;
        }
        let ty = sf.sig_text(i - 3);
        if ty != "SystemTime" && ty != "Instant" {
            continue;
        }
        if sf.in_test_code(sf.sig_tok(i).start) {
            continue;
        }
        out.push(diag(
            "direct-clock",
            sf,
            i,
            format!(
                "`{ty}::now()` outside the telemetry/timing layers risks timing \
                 leaking into reports; thread time from `minibench`/`provtrace` \
                 or annotate why this read is outcome-neutral"
            ),
        ));
    }
    out
}

/// Per-file half of version-fuzz-pairing: collect format constants
/// declared in serialization modules.
pub fn collect_format_consts(sf: &SourceFile, policy: &Policy) -> Vec<FormatConst> {
    let mut out = Vec::new();
    if !policy.is_serde_module(&sf.rel_path) {
        return out;
    }
    for i in 0..sf.sig_len().saturating_sub(2) {
        if !sf.sig_is_ident(i, "const") {
            continue;
        }
        let name = sf.sig_text(i + 1);
        let is_format_const = name.ends_with("_VERSION") || name.contains("MAGIC");
        if !is_format_const || !sf.sig_is_punct(i + 2, ':') {
            continue;
        }
        let t = sf.sig_tok(i + 1);
        if sf.in_test_code(t.start) {
            continue;
        }
        out.push(FormatConst {
            name: name.to_owned(),
            rel_path: sf.rel_path.clone(),
            line: t.line,
            col: t.col,
            snippet: sf.line_text(t.line).to_owned(),
            allowed: sf
                .allowed("version-fuzz-pairing", t.line)
                .map(str::to_owned),
        });
    }
    out
}

/// Workspace half of version-fuzz-pairing: every collected constant
/// must be referenced from test code in a fuzz-marked file.
pub fn check_version_fuzz_pairing(
    consts: &[FormatConst],
    files: &[SourceFile],
    policy: &Policy,
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for c in consts {
        let covered = files.iter().any(|sf| {
            policy.is_fuzz_file(&sf.rel_path) && sf.test_code_idents().any(|id| id == c.name)
        });
        if covered {
            continue;
        }
        out.push(Diagnostic {
            rule: "version-fuzz-pairing",
            path: c.rel_path.clone(),
            line: c.line,
            col: c.col,
            message: format!(
                "format constant `{}` is not referenced from any corruption/fuzz \
                 test file; no on-disk format ships without prefix/byte-flip/\
                 version-skew coverage",
                c.name
            ),
            snippet: c.snippet.clone(),
            justification: c.allowed.clone(),
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SourceFile;

    fn lib_file(path: &str, src: &str) -> SourceFile {
        SourceFile::parse(path, src.to_owned())
    }

    #[test]
    fn raw_write_fires_and_respects_scope() {
        let p = Policy::workspace_default();
        let sf = lib_file(
            "crates/opus/src/neo4jsim.rs",
            "fn f() { fs::write(p, b); File::create(p); }\n#[cfg(test)]\nmod t { fn g() { fs::write(p, b); } }\n",
        );
        let d = check_raw_write(&sf, &p);
        assert_eq!(d.len(), 2);
        assert_eq!(d[0].line, 1);
        // Sanctioned file: no findings at all.
        let sf = lib_file(
            "crates/provtrace/src/lib.rs",
            "fn f() { fs::write(p, b); }\n",
        );
        assert!(check_raw_write(&sf, &p).is_empty());
    }

    #[test]
    fn raw_write_ignores_lookalikes() {
        let p = Policy::workspace_default();
        let sf = lib_file(
            "crates/opus/src/x.rs",
            "fn f(w: &mut W) { w.write(b); buf.create(); writer::write_all(); File::create_new(p); }\n",
        );
        assert!(check_raw_write(&sf, &p).is_empty());
    }

    #[test]
    fn panic_rule_scopes_by_crate_and_class() {
        let p = Policy::workspace_default();
        let src =
            "fn f() { x.unwrap(); y.expect(\"m\"); panic!(\"n\"); todo!(); unimplemented!(); }\n";
        let strict = lib_file("crates/provgraph/src/a.rs", src);
        assert_eq!(check_panic_in_lib(&strict, &p).len(), 5);
        let lax_crate = lib_file("crates/opus/src/a.rs", src);
        assert!(check_panic_in_lib(&lax_crate, &p).is_empty());
        let bin = lib_file("crates/provgraph/src/bin/tool.rs", src);
        assert!(check_panic_in_lib(&bin, &p).is_empty());
        let test = lib_file("crates/provgraph/tests/a.rs", src);
        assert!(check_panic_in_lib(&test, &p).is_empty());
    }

    #[test]
    fn panic_rule_ignores_lookalikes() {
        let p = Policy::workspace_default();
        let sf = lib_file(
            "crates/provgraph/src/a.rs",
            "fn f() { x.unwrap_or(0); y.unwrap_or_else(g); h.expect_err(\"m\"); std::panic::catch_unwind(f); let unwrap = 3; }\n",
        );
        assert!(check_panic_in_lib(&sf, &p).is_empty());
    }

    #[test]
    fn lossy_cast_only_in_serde_modules() {
        let p = Policy::workspace_default();
        let src = "fn f(n: usize) { let a = n as u32; let b = n as u64; let c = n as f64; }\n";
        let serde = lib_file("crates/provgraph/src/snapshot.rs", src);
        let d = check_lossy_cast(&serde, &p);
        assert_eq!(d.len(), 2); // u32 and f64; u64 is widening
        let other = lib_file("crates/provgraph/src/graph.rs", src);
        assert!(check_lossy_cast(&other, &p).is_empty());
    }

    #[test]
    fn direct_clock_scopes_by_crate() {
        let p = Policy::workspace_default();
        let src = "fn f() { let t = Instant::now(); let w = SystemTime::now(); }\n";
        let d = check_direct_clock(&lib_file("crates/core/src/pipeline.rs", src), &p);
        assert_eq!(d.len(), 2);
        assert!(check_direct_clock(&lib_file("crates/provtrace/src/lib.rs", src), &p).is_empty());
        assert!(
            check_direct_clock(&lib_file("crates/shims/minibench/src/lib.rs", src), &p).is_empty()
        );
    }

    #[test]
    fn version_pairing_finds_unreferenced_consts() {
        let p = Policy::workspace_default();
        let serde = lib_file(
            "crates/provgraph/src/snapshot.rs",
            "pub const SNAP_VERSION: u32 = 1;\npub const SNAP_MAGIC: [u8; 4] = *b\"PMXX\";\npub const UNRELATED: u32 = 9;\n",
        );
        let consts = collect_format_consts(&serde, &p);
        assert_eq!(consts.len(), 2);
        let fuzz = lib_file(
            "crates/provgraph/tests/corruption.rs",
            "#[test]\nfn skew() { let v = SNAP_VERSION + 1; }\n",
        );
        let d = check_version_fuzz_pairing(&consts, &[serde, fuzz], &p);
        assert_eq!(d.len(), 1);
        assert!(d[0].message.contains("SNAP_MAGIC"));
    }

    #[test]
    fn version_pairing_requires_fuzz_marked_file() {
        let p = Policy::workspace_default();
        let serde = lib_file(
            "crates/provgraph/src/snapshot.rs",
            "pub const SNAP_VERSION: u32 = 1;\n",
        );
        let consts = collect_format_consts(&serde, &p);
        // Referenced, but from a test file that is not fuzz-marked.
        let plain = lib_file(
            "crates/provgraph/tests/happy_path.rs",
            "#[test]\nfn uses() { let v = SNAP_VERSION; }\n",
        );
        let d = check_version_fuzz_pairing(&consts, &[serde, plain], &p);
        assert_eq!(d.len(), 1);
    }
}
