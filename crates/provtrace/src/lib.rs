//! Structured run telemetry for the ProvMark stack: hierarchical spans,
//! typed counters, versioned JSONL trace files and a cross-worker
//! timeline merge.
//!
//! The execution stack — compiled-kernel solves behind a capacity-capped
//! [`aspsolver`] memo, the `core::pipeline` matrix runner, and the
//! fault-tolerant elastic shard supervisor — previously exposed only
//! end-of-run aggregates. This crate is the window into a *live* run:
//! every layer holds a cheap [`Tracer`] handle and emits spans
//! (`span_enter` / `span_exit` with monotonic timestamps and parent
//! ids), point events and counters; flushing serializes them as a
//! versioned JSONL file written durably (same-directory temp file,
//! `fsync`, atomic rename) so a torn trace is never observable.
//!
//! # Design rules
//!
//! - **Zero dependencies.** The JSON writer and parser are hand-rolled,
//!   so the crate sits at the very bottom of the workspace dependency
//!   graph and everything above it (including `aspsolver`) can depend
//!   on it. Integers are serialized as plain JSON numbers and parsed
//!   exactly (no `f64` round-trip), so 64-bit counters survive.
//! - **Observably outcome-neutral.** A disabled tracer
//!   ([`Tracer::disabled`]) is a `None` behind an `Option` check: no
//!   allocation, no lock, and field closures are never invoked. Every
//!   emitting call site pays one branch when tracing is off.
//! - **Torn traces are typed errors, never panics.** The file format is
//!   framed by a magic/version header line and a footer line carrying
//!   the event count and counter totals; a file cut at *any* byte —
//!   including exactly at a line boundary — fails to parse with a
//!   [`TraceError`] (see the corruption fuzz suite in `tests/`).
//! - **Merges are deterministic.** [`TraceMerge`] folds per-worker
//!   trace files into one globally-ordered timeline keyed by
//!   `(wall-clock ns, worker label, pid, seq)`, so the merged order is
//!   independent of file arrival or enumeration order.
//!
//! # File format (`PMTRACE` version 1)
//!
//! ```text
//! {"magic":"PMTRACE","version":1,"label":"worker-0","pid":1234,"epoch_unix_ns":...}
//! {"seq":0,"ts_ns":120,"kind":"span_enter","name":"cell","span":1,"parent":null,"fields":{...}}
//! {"seq":1,"ts_ns":980,"kind":"span_exit","name":"cell","span":1,"parent":null,"fields":{}}
//! {"magic":"PMTRACE_END","events":2,"counters":{"memo.hits":17}}
//! ```
//!
//! `epoch_unix_ns` anchors the tracer's monotonic clock to wall time at
//! construction; `ts_ns` is nanoseconds since that anchor, so
//! cross-process ordering uses `epoch_unix_ns + ts_ns`. See
//! `crates/provtrace/README.md` for the full schema and versioning
//! rules.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::collections::BTreeMap;
use std::fmt;
use std::fs::File;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

/// Magic tag on the first line of every trace file.
pub const TRACE_MAGIC: &str = "PMTRACE";
/// Magic tag on the footer (last) line of every complete trace file.
pub const TRACE_END_MAGIC: &str = "PMTRACE_END";
/// Current trace file format version.
pub const TRACE_VERSION: u32 = 1;

// ---------------------------------------------------------------------------
// Atomic and durable writes
// ---------------------------------------------------------------------------

/// Ever-increasing suffix so concurrent writes from one process never
/// collide on a temp name.
static TEMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// Write `bytes` to `path` durably and atomically.
///
/// The bytes land in a same-directory temp file first
/// (`.{name}.tmp.{pid}.{seq}`), are fsynced, then renamed over `path`,
/// and the directory is fsynced so the rename itself is durable. A
/// crash at any point leaves either the old content or the new — never
/// a torn file. This is the workspace-wide primitive: `aspsolver`'s
/// solve-cache writer delegates here, and `provshard`'s reports and
/// every trace file are written through it.
pub fn write_bytes_durable(path: &Path, bytes: &[u8]) -> io::Result<()> {
    write_via_temp(path, bytes, true)
}

/// Write `bytes` to `path` atomically but without fsync: readers see
/// the old content or the new, never a torn file, but a machine crash
/// may lose the write. For files that only live as long as the
/// processes that read them, such as an elastic run's plan, its cell
/// results and its stop sentinel.
pub fn write_bytes_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    write_via_temp(path, bytes, false)
}

fn write_via_temp(path: &Path, bytes: &[u8], durable: bool) -> io::Result<()> {
    let dir = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p.to_path_buf(),
        _ => PathBuf::from("."),
    };
    let name = path
        .file_name()
        .and_then(|n| n.to_str())
        .unwrap_or("artifact");
    let tmp = dir.join(format!(
        ".{name}.tmp.{}.{}",
        std::process::id(),
        TEMP_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let result = (|| {
        let mut f = File::create(&tmp)?;
        f.write_all(bytes)?;
        if durable {
            f.sync_all()?;
        }
        drop(f);
        std::fs::rename(&tmp, path)?;
        if durable {
            std::fs::File::open(&dir)?.sync_all()?;
        }
        Ok(())
    })();
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

// ---------------------------------------------------------------------------
// Fields
// ---------------------------------------------------------------------------

/// Lock the tracer state, recovering from poisoning. A panic on some
/// other thread while it held the lock leaves the record buffer in a
/// consistent state (every mutation is a single push or map update),
/// and telemetry must never turn one thread's panic into another's.
fn lock_unpoisoned<T>(m: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// A typed field value attached to a span or event.
#[derive(Debug, Clone, PartialEq)]
pub enum Field {
    /// Unsigned integer (serialized exactly — no float round-trip).
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Floating point.
    F64(f64),
    /// String.
    Str(String),
    /// Boolean.
    Bool(bool),
}

impl From<u64> for Field {
    fn from(v: u64) -> Self {
        Field::U64(v)
    }
}
impl From<u32> for Field {
    fn from(v: u32) -> Self {
        Field::U64(u64::from(v))
    }
}
impl From<usize> for Field {
    fn from(v: usize) -> Self {
        Field::U64(v as u64)
    }
}
impl From<i64> for Field {
    fn from(v: i64) -> Self {
        Field::I64(v)
    }
}
impl From<f64> for Field {
    fn from(v: f64) -> Self {
        Field::F64(v)
    }
}
impl From<bool> for Field {
    fn from(v: bool) -> Self {
        Field::Bool(v)
    }
}
impl From<&str> for Field {
    fn from(v: &str) -> Self {
        Field::Str(v.to_string())
    }
}
impl From<String> for Field {
    fn from(v: String) -> Self {
        Field::Str(v)
    }
}

/// Field list type returned by the lazy field closures: the closure is
/// only invoked when the tracer is enabled, so disabled call sites
/// never allocate.
pub type Fields = Vec<(&'static str, Field)>;

// ---------------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------------

/// Opaque id of an open span, used to parent child spans and events and
/// to close the span. `None` everywhere when tracing is disabled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SpanId(u64);

impl SpanId {
    /// Raw numeric id (unique within one tracer).
    pub fn raw(self) -> u64 {
        self.0
    }
}

/// Kind discriminant of a trace record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A span opened (`span` carries its id, `parent` the enclosing span).
    SpanEnter,
    /// A span closed (`span` matches the corresponding enter).
    SpanExit,
    /// A point-in-time event.
    Event,
}

impl EventKind {
    /// Stable wire/display name of the kind.
    pub fn as_str(self) -> &'static str {
        match self {
            EventKind::SpanEnter => "span_enter",
            EventKind::SpanExit => "span_exit",
            EventKind::Event => "event",
        }
    }
    fn parse(s: &str) -> Option<Self> {
        match s {
            "span_enter" => Some(EventKind::SpanEnter),
            "span_exit" => Some(EventKind::SpanExit),
            "event" => Some(EventKind::Event),
            _ => None,
        }
    }
}

/// One buffered record: timestamps are nanoseconds since the tracer's
/// monotonic origin.
#[derive(Debug, Clone)]
struct Record {
    ts_ns: u128,
    kind: EventKind,
    name: &'static str,
    span: Option<u64>,
    parent: Option<u64>,
    fields: Fields,
}

#[derive(Debug, Default)]
struct State {
    records: Vec<Record>,
    counters: BTreeMap<&'static str, u64>,
    next_span: u64,
}

#[derive(Debug)]
struct Inner {
    label: String,
    pid: u32,
    /// Wall-clock anchor (ns since the unix epoch) taken when the
    /// tracer was created; `epoch_unix_ns + ts_ns` is a cross-process
    /// comparable timestamp.
    epoch_unix_ns: u128,
    origin: Instant,
    state: Mutex<State>,
}

/// Thread-safe telemetry sink. Clone it freely: clones share one event
/// buffer. A disabled tracer ([`Tracer::disabled`]) costs one branch
/// per call site — no allocation, no lock, field closures not invoked.
#[derive(Debug, Clone)]
pub struct Tracer {
    inner: Option<Arc<Inner>>,
}

impl Tracer {
    /// A no-op tracer: every emitting method is a single `Option`
    /// check. This is the default everywhere tracing is not requested.
    pub fn disabled() -> Self {
        Tracer { inner: None }
    }

    /// An enabled tracer labelled `label` (e.g. `"drive"`,
    /// `"worker-3"`). The label and the recording process id identify
    /// the worker in merged timelines.
    pub fn new(label: &str) -> Self {
        let epoch_unix_ns = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_nanos())
            .unwrap_or(0);
        Tracer {
            inner: Some(Arc::new(Inner {
                label: label.to_string(),
                pid: std::process::id(),
                epoch_unix_ns,
                origin: Instant::now(),
                state: Mutex::new(State::default()),
            })),
        }
    }

    /// Whether this tracer records anything. Callers never need to
    /// check before emitting (disabled calls are free); this exists for
    /// sites that do extra work *around* tracing, like flushing files.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Worker label, when enabled.
    pub fn label(&self) -> Option<&str> {
        self.inner.as_deref().map(|i| i.label.as_str())
    }

    /// Conventional trace file name for this tracer:
    /// `trace.{label}.{pid}.jsonl`. Distinct pids keep respawned
    /// workers from clobbering the trace a killed predecessor left
    /// behind. `None` when disabled.
    pub fn file_name(&self) -> Option<String> {
        self.inner
            .as_deref()
            .map(|i| format!("trace.{}.{}.jsonl", i.label, i.pid))
    }

    /// Open a span. `fields` is only invoked when enabled. Returns the
    /// span id to parent children under and to close with
    /// [`Tracer::span_exit`]; `None` when disabled.
    pub fn span_enter<F>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        fields: F,
    ) -> Option<SpanId>
    where
        F: FnOnce() -> Fields,
    {
        let inner = self.inner.as_deref()?;
        let ts_ns = inner.origin.elapsed().as_nanos();
        let fields = fields();
        let mut state = lock_unpoisoned(&inner.state);
        state.next_span += 1;
        let id = state.next_span;
        state.records.push(Record {
            ts_ns,
            kind: EventKind::SpanEnter,
            name,
            span: Some(id),
            parent: parent.map(|p| p.0),
            fields,
        });
        Some(SpanId(id))
    }

    /// Close a span opened by [`Tracer::span_enter`]. Accepts the
    /// `Option` directly so disabled call sites stay one line.
    pub fn span_exit(&self, name: &'static str, span: Option<SpanId>) {
        self.span_exit_with(name, span, Vec::new);
    }

    /// Close a span, attaching exit fields (e.g. search statistics
    /// known only after the work ran).
    pub fn span_exit_with<F>(&self, name: &'static str, span: Option<SpanId>, fields: F)
    where
        F: FnOnce() -> Fields,
    {
        let (Some(inner), Some(span)) = (self.inner.as_deref(), span) else {
            return;
        };
        let ts_ns = inner.origin.elapsed().as_nanos();
        let fields = fields();
        let mut state = lock_unpoisoned(&inner.state);
        state.records.push(Record {
            ts_ns,
            kind: EventKind::SpanExit,
            name,
            span: Some(span.0),
            parent: None,
            fields,
        });
    }

    /// Emit a point-in-time event, optionally parented under a span.
    pub fn event<F>(&self, name: &'static str, parent: Option<SpanId>, fields: F)
    where
        F: FnOnce() -> Fields,
    {
        let Some(inner) = self.inner.as_deref() else {
            return;
        };
        let ts_ns = inner.origin.elapsed().as_nanos();
        let fields = fields();
        let mut state = lock_unpoisoned(&inner.state);
        state.records.push(Record {
            ts_ns,
            kind: EventKind::Event,
            name,
            span: None,
            parent: parent.map(|p| p.0),
            fields,
        });
    }

    /// Add `delta` to the named counter. Counter totals ride in the
    /// trace footer, not the event stream, so high-frequency counting
    /// (memo hits in a hot loop) costs one map update, not one event
    /// line each.
    pub fn counter_add(&self, name: &'static str, delta: u64) {
        let Some(inner) = self.inner.as_deref() else {
            return;
        };
        let mut state = lock_unpoisoned(&inner.state);
        *state.counters.entry(name).or_insert(0) += delta;
    }

    /// Serialize the current buffer as a complete versioned JSONL
    /// trace (header, events, footer). Snapshots without draining, so
    /// workers can flush cumulatively after each unit of work and a
    /// kill between flushes loses only the tail. `None` when disabled.
    pub fn to_bytes(&self) -> Option<Vec<u8>> {
        let inner = self.inner.as_deref()?;
        let state = lock_unpoisoned(&inner.state);
        let mut out = String::new();
        out.push_str(&format!(
            "{{\"magic\":{},\"version\":{},\"label\":{},\"pid\":{},\"epoch_unix_ns\":{}}}\n",
            json_str(TRACE_MAGIC),
            TRACE_VERSION,
            json_str(&inner.label),
            inner.pid,
            inner.epoch_unix_ns
        ));
        for (seq, rec) in state.records.iter().enumerate() {
            out.push_str(&format!(
                "{{\"seq\":{},\"ts_ns\":{},\"kind\":{},\"name\":{},\"span\":{},\"parent\":{},\"fields\":{{",
                seq,
                rec.ts_ns,
                json_str(rec.kind.as_str()),
                json_str(rec.name),
                rec.span.map_or("null".to_string(), |s| s.to_string()),
                rec.parent.map_or("null".to_string(), |p| p.to_string()),
            ));
            for (i, (key, value)) in rec.fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&json_str(key));
                out.push(':');
                match value {
                    Field::U64(v) => out.push_str(&v.to_string()),
                    Field::I64(v) => out.push_str(&v.to_string()),
                    Field::F64(v) => {
                        if v.is_finite() {
                            out.push_str(&format!("{v}"));
                        } else {
                            out.push_str("null");
                        }
                    }
                    Field::Str(v) => out.push_str(&json_str(v)),
                    Field::Bool(v) => out.push_str(if *v { "true" } else { "false" }),
                }
            }
            out.push_str("}}\n");
        }
        out.push_str(&format!(
            "{{\"magic\":{},\"events\":{},\"counters\":{{",
            json_str(TRACE_END_MAGIC),
            state.records.len()
        ));
        for (i, (name, value)) in state.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&json_str(name));
            out.push(':');
            out.push_str(&value.to_string());
        }
        out.push_str("}}\n");
        Some(out.into_bytes())
    }

    /// Flush the buffer durably to `dir/trace.{label}.{pid}.jsonl`.
    /// No-op (and `Ok`) when disabled. Safe to call repeatedly; each
    /// flush atomically replaces the previous one with a longer,
    /// complete trace.
    pub fn write_to_dir(&self, dir: &Path) -> io::Result<()> {
        let (Some(bytes), Some(name)) = (self.to_bytes(), self.file_name()) else {
            return Ok(());
        };
        std::fs::create_dir_all(dir)?;
        write_bytes_durable(&dir.join(name), &bytes)
    }
}

/// JSON-escape a string (quotes included).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            // provlint: allow(lossy-cast-in-serde) -- char to u32 is lossless by definition
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// Why a trace file failed to load. Corruption is always a typed error,
/// never a panic: operators point `provmark-trace` at run directories
/// that may hold traces torn by killed workers or foreign versions.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum TraceError {
    /// The first line is missing, unparseable, or does not carry the
    /// `PMTRACE` magic — this is not a trace file.
    BadMagic,
    /// The header is a trace but from an incompatible format version.
    UnsupportedVersion {
        /// Version found in the header.
        found: u32,
        /// Version this build reads.
        supported: u32,
    },
    /// The file ends early: no footer line (or no final newline), so
    /// the tail was lost. `at` is the byte length observed.
    Truncated {
        /// Observed byte length of the truncated file.
        at: usize,
    },
    /// The file is internally inconsistent: a malformed event line,
    /// a sequence gap, a footer count mismatch, or trailing bytes
    /// after the footer.
    Corrupt {
        /// Human-readable description of the first inconsistency.
        detail: String,
    },
    /// An I/O error while reading.
    Io {
        /// The underlying error, rendered.
        detail: String,
    },
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::BadMagic => {
                write!(f, "not a provtrace file (missing {TRACE_MAGIC} header)")
            }
            TraceError::UnsupportedVersion { found, supported } => write!(
                f,
                "trace format version {found} is not supported (this build reads version {supported}); \
                 re-record the trace with a matching build"
            ),
            TraceError::Truncated { at } => write!(
                f,
                "trace truncated at byte {at}: footer missing — the writer was likely killed mid-run; \
                 partial traces are recoverable only up to their last durable flush"
            ),
            TraceError::Corrupt { detail } => write!(f, "trace corrupt: {detail}"),
            TraceError::Io { detail } => write!(f, "trace I/O error: {detail}"),
        }
    }
}

impl std::error::Error for TraceError {}

impl From<io::Error> for TraceError {
    fn from(e: io::Error) -> Self {
        TraceError::Io {
            detail: e.to_string(),
        }
    }
}

// ---------------------------------------------------------------------------
// Minimal exact JSON parser
// ---------------------------------------------------------------------------

/// Hand-rolled JSON value: integers are kept exact (`i128`), so 64-bit
/// counters and 128-bit nanosecond timestamps survive parsing.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Int(i128),
    Float(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn get<'a>(&'a self, key: &str) -> Option<&'a Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
    fn as_int(&self) -> Option<i128> {
        match self {
            Json::Int(v) => Some(*v),
            _ => None,
        }
    }
    fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(line: &'a str) -> Self {
        Parser {
            bytes: line.as_bytes(),
            pos: 0,
        }
    }

    fn parse_line(line: &'a str) -> Result<Json, String> {
        let mut p = Parser::new(line);
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing characters at column {}", p.pos));
        }
        Ok(v)
    }

    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len() && matches!(self.bytes[self.pos], b' ' | b'\t' | b'\r') {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect_byte(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at column {}", b as char, self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected byte at column {}", self.pos)),
        }
    }

    fn literal(&mut self, lit: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(format!("bad literal at column {}", self.pos))
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect_byte(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect_byte(b':')?;
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(format!("expected ',' or '}}' at column {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect_byte(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at column {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect_byte(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            if self.pos + 4 >= self.bytes.len() {
                                return Err("bad unicode escape".to_string());
                            }
                            let hex = std::str::from_utf8(&self.bytes[self.pos + 1..self.pos + 5])
                                .map_err(|_| "bad unicode escape".to_string())?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| "bad unicode escape".to_string())?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err("bad escape".to_string()),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Multi-byte UTF-8 sequences pass through verbatim;
                    // the input is already a valid &str.
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| "invalid utf-8".to_string())?;
                    // provlint: allow(panic-in-lib) -- `peek()` returned Some, so `rest` is non-empty
                    let c = rest.chars().next().unwrap();
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        let mut float = false;
        if self.peek() == Some(b'.') {
            float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| "bad number".to_string())?;
        if float {
            text.parse::<f64>()
                .map(Json::Float)
                .map_err(|_| format!("bad float at column {start}"))
        } else {
            text.parse::<i128>()
                .map(Json::Int)
                .map_err(|_| format!("integer out of range at column {start}"))
        }
    }
}

// ---------------------------------------------------------------------------
// Parsed traces
// ---------------------------------------------------------------------------

/// A parsed field value (owned mirror of [`Field`]).
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Floating point.
    F64(f64),
    /// String.
    Str(String),
    /// Boolean.
    Bool(bool),
    /// A null field (non-finite floats serialize as null).
    Null,
}

impl FieldValue {
    /// The value as `u64`, if it is an unsigned integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            FieldValue::U64(v) => Some(*v),
            FieldValue::I64(v) => u64::try_from(*v).ok(),
            _ => None,
        }
    }
    /// The value as `&str`, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            FieldValue::Str(s) => Some(s),
            _ => None,
        }
    }
}

impl fmt::Display for FieldValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FieldValue::U64(v) => write!(f, "{v}"),
            FieldValue::I64(v) => write!(f, "{v}"),
            FieldValue::F64(v) => write!(f, "{v}"),
            FieldValue::Str(v) => write!(f, "{v}"),
            FieldValue::Bool(v) => write!(f, "{v}"),
            FieldValue::Null => write!(f, "null"),
        }
    }
}

/// One parsed trace record.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Position in the worker's event stream (0-based, gap-free).
    pub seq: u64,
    /// Nanoseconds since the worker tracer's monotonic origin.
    pub ts_ns: u128,
    /// Record kind.
    pub kind: EventKind,
    /// Record name (e.g. `"cell"`, `"memo.hit"`, `"claim"`).
    pub name: String,
    /// Span id for enter/exit records.
    pub span: Option<u64>,
    /// Parent span id, when parented.
    pub parent: Option<u64>,
    /// Attached fields, in emission order.
    pub fields: Vec<(String, FieldValue)>,
}

impl TraceEvent {
    /// Look up a field by name.
    pub fn field(&self, name: &str) -> Option<&FieldValue> {
        self.fields.iter().find(|(k, _)| k == name).map(|(_, v)| v)
    }
}

/// A closed span reconstructed from an enter/exit pair, or a still-open
/// span (enter with no matching exit — e.g. the worker was killed).
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// Span name.
    pub name: String,
    /// Span id within the worker.
    pub span: u64,
    /// Parent span id, when parented.
    pub parent: Option<u64>,
    /// Enter timestamp (ns since the worker origin).
    pub start_ts_ns: u128,
    /// Exit timestamp; `None` for spans never closed.
    pub end_ts_ns: Option<u128>,
    /// Enter fields followed by exit fields.
    pub fields: Vec<(String, FieldValue)>,
}

impl SpanRecord {
    /// Span duration in nanoseconds, when closed.
    pub fn duration_ns(&self) -> Option<u128> {
        self.end_ts_ns
            .map(|end| end.saturating_sub(self.start_ts_ns))
    }
    /// Look up a field by name (enter fields first).
    pub fn field(&self, name: &str) -> Option<&FieldValue> {
        self.fields.iter().find(|(k, _)| k == name).map(|(_, v)| v)
    }
}

/// One fully parsed and validated trace file.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceFile {
    /// Worker label from the header.
    pub label: String,
    /// Recording process id.
    pub pid: u32,
    /// Wall-clock anchor (ns since the unix epoch) of the worker's
    /// monotonic origin.
    pub epoch_unix_ns: u128,
    /// Format version (currently always [`TRACE_VERSION`]).
    pub version: u32,
    /// Events in emission order.
    pub events: Vec<TraceEvent>,
    /// Counter totals from the footer.
    pub counters: BTreeMap<String, u64>,
}

impl TraceFile {
    /// Parse and validate a complete trace file.
    pub fn parse(bytes: &[u8]) -> Result<TraceFile, TraceError> {
        parse_trace_bytes(bytes)
    }

    /// Read and parse `path`.
    pub fn load(path: &Path) -> Result<TraceFile, TraceError> {
        let bytes = std::fs::read(path)?;
        parse_trace_bytes(&bytes)
    }

    /// Reconstruct spans by pairing enter/exit records. Spans whose
    /// exit was lost (killed worker) come back with `end_ts_ns: None`.
    pub fn spans(&self) -> Vec<SpanRecord> {
        let mut open: BTreeMap<u64, usize> = BTreeMap::new();
        let mut out: Vec<SpanRecord> = Vec::new();
        for event in &self.events {
            match event.kind {
                EventKind::SpanEnter => {
                    let Some(id) = event.span else { continue };
                    open.insert(id, out.len());
                    out.push(SpanRecord {
                        name: event.name.clone(),
                        span: id,
                        parent: event.parent,
                        start_ts_ns: event.ts_ns,
                        end_ts_ns: None,
                        fields: event.fields.clone(),
                    });
                }
                EventKind::SpanExit => {
                    let Some(id) = event.span else { continue };
                    if let Some(&idx) = open.get(&id) {
                        out[idx].end_ts_ns = Some(event.ts_ns);
                        out[idx].fields.extend(event.fields.iter().cloned());
                        open.remove(&id);
                    }
                }
                EventKind::Event => {}
            }
        }
        out
    }
}

fn field_value(v: &Json) -> FieldValue {
    match v {
        Json::Null => FieldValue::Null,
        Json::Bool(b) => FieldValue::Bool(*b),
        Json::Int(i) => {
            if *i >= 0 {
                u64::try_from(*i)
                    .map(FieldValue::U64)
                    // provlint: allow(lossy-cast-in-serde) -- explicit fallback for foreign traces whose ints exceed the exact range
                    .unwrap_or(FieldValue::F64(*i as f64))
            } else {
                i64::try_from(*i)
                    .map(FieldValue::I64)
                    // provlint: allow(lossy-cast-in-serde) -- explicit fallback for foreign traces whose ints exceed the exact range
                    .unwrap_or(FieldValue::F64(*i as f64))
            }
        }
        Json::Float(x) => FieldValue::F64(*x),
        Json::Str(s) => FieldValue::Str(s.clone()),
        // Nested containers never appear in fields; render for safety.
        Json::Arr(_) | Json::Obj(_) => FieldValue::Str(format!("{v:?}")),
    }
}

fn corrupt(detail: impl Into<String>) -> TraceError {
    TraceError::Corrupt {
        detail: detail.into(),
    }
}

/// Parse and validate trace `bytes` (see [`TraceFile::parse`]).
pub fn parse_trace_bytes(bytes: &[u8]) -> Result<TraceFile, TraceError> {
    if bytes.is_empty() {
        return Err(TraceError::Truncated { at: 0 });
    }
    let text = std::str::from_utf8(bytes).map_err(|e| corrupt(format!("invalid utf-8: {e}")))?;
    // A complete trace always ends with the footer line's newline; a
    // file cut anywhere — even exactly at the end of the footer text —
    // is missing it and is reported as truncated, not silently read.
    let Some(body) = text.strip_suffix('\n') else {
        return Err(TraceError::Truncated { at: bytes.len() });
    };
    let lines: Vec<&str> = body.split('\n').collect();

    // Header.
    let header = Parser::parse_line(lines[0]).map_err(|_| TraceError::BadMagic)?;
    if header.get("magic").and_then(Json::as_str) != Some(TRACE_MAGIC) {
        return Err(TraceError::BadMagic);
    }
    let version = header
        .get("version")
        .and_then(Json::as_int)
        .and_then(|v| u32::try_from(v).ok())
        .ok_or(TraceError::BadMagic)?;
    if version != TRACE_VERSION {
        return Err(TraceError::UnsupportedVersion {
            found: version,
            supported: TRACE_VERSION,
        });
    }
    let label = header
        .get("label")
        .and_then(Json::as_str)
        .ok_or_else(|| corrupt("header missing label"))?
        .to_string();
    let pid = header
        .get("pid")
        .and_then(Json::as_int)
        .and_then(|v| u32::try_from(v).ok())
        .ok_or_else(|| corrupt("header missing pid"))?;
    let epoch_unix_ns = header
        .get("epoch_unix_ns")
        .and_then(Json::as_int)
        .and_then(|v| u128::try_from(v).ok())
        .ok_or_else(|| corrupt("header missing epoch_unix_ns"))?;

    if lines.len() < 2 {
        // Header only, newline-terminated: the footer never landed.
        return Err(TraceError::Truncated { at: bytes.len() });
    }

    // Footer (last line).
    let footer_line = lines[lines.len() - 1];
    let footer = match Parser::parse_line(footer_line) {
        Ok(f) if f.get("magic").and_then(Json::as_str) == Some(TRACE_END_MAGIC) => f,
        // The last complete line is not a footer: the file was cut at a
        // line boundary (or mid-line, leaving an unparseable tail).
        _ => return Err(TraceError::Truncated { at: bytes.len() }),
    };
    let declared = footer
        .get("events")
        .and_then(Json::as_int)
        .and_then(|v| usize::try_from(v).ok())
        .ok_or_else(|| corrupt("footer missing event count"))?;
    let event_lines = &lines[1..lines.len() - 1];
    if event_lines.len() != declared {
        return Err(corrupt(format!(
            "footer declares {declared} event(s) but {} present",
            event_lines.len()
        )));
    }
    let mut counters = BTreeMap::new();
    match footer.get("counters") {
        Some(Json::Obj(pairs)) => {
            for (name, value) in pairs {
                let v = value
                    .as_int()
                    .and_then(|v| u64::try_from(v).ok())
                    .ok_or_else(|| corrupt(format!("counter {name} is not a u64")))?;
                counters.insert(name.clone(), v);
            }
        }
        _ => return Err(corrupt("footer missing counters")),
    }

    // Events.
    let mut events = Vec::with_capacity(event_lines.len());
    for (idx, line) in event_lines.iter().enumerate() {
        let v = Parser::parse_line(line)
            .map_err(|e| corrupt(format!("event line {}: {e}", idx + 1)))?;
        let seq = v
            .get("seq")
            .and_then(Json::as_int)
            .and_then(|s| u64::try_from(s).ok())
            .ok_or_else(|| corrupt(format!("event line {}: missing seq", idx + 1)))?;
        if seq != idx as u64 {
            return Err(corrupt(format!(
                "event line {}: seq {seq} out of order (expected {idx})",
                idx + 1
            )));
        }
        let ts_ns = v
            .get("ts_ns")
            .and_then(Json::as_int)
            .and_then(|t| u128::try_from(t).ok())
            .ok_or_else(|| corrupt(format!("event line {}: missing ts_ns", idx + 1)))?;
        let kind = v
            .get("kind")
            .and_then(Json::as_str)
            .and_then(EventKind::parse)
            .ok_or_else(|| corrupt(format!("event line {}: bad kind", idx + 1)))?;
        let name = v
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| corrupt(format!("event line {}: missing name", idx + 1)))?
            .to_string();
        let opt_id = |key: &str| -> Result<Option<u64>, TraceError> {
            // The writer always emits `span` and `parent` (null when
            // absent); a missing key means the line was tampered with.
            match v.get(key) {
                None => Err(corrupt(format!("event line {}: missing {key}", idx + 1))),
                Some(Json::Null) => Ok(None),
                Some(j) => j
                    .as_int()
                    .and_then(|i| u64::try_from(i).ok())
                    .map(Some)
                    .ok_or_else(|| corrupt(format!("event line {}: bad {key}", idx + 1))),
            }
        };
        let span = opt_id("span")?;
        let parent = opt_id("parent")?;
        let fields = match v.get("fields") {
            Some(Json::Obj(pairs)) => pairs
                .iter()
                .map(|(k, fv)| (k.clone(), field_value(fv)))
                .collect(),
            _ => {
                return Err(corrupt(format!(
                    "event line {}: missing fields object",
                    idx + 1
                )))
            }
        };
        events.push(TraceEvent {
            seq,
            ts_ns,
            kind,
            name,
            span,
            parent,
            fields,
        });
    }

    Ok(TraceFile {
        label,
        pid,
        epoch_unix_ns,
        version,
        events,
        counters,
    })
}

// ---------------------------------------------------------------------------
// Merge
// ---------------------------------------------------------------------------

/// One event placed on the merged cross-worker timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct MergedEvent {
    /// Worker label the event came from.
    pub worker: String,
    /// Recording process id.
    pub pid: u32,
    /// Absolute wall-clock timestamp (ns since the unix epoch):
    /// the worker's anchor plus the event's monotonic offset.
    pub unix_ts_ns: u128,
    /// The event itself.
    pub event: TraceEvent,
}

/// Per-worker trace files folded into one globally-ordered timeline.
///
/// Ordering is total and deterministic — `(unix_ts_ns, worker label,
/// pid, seq)` — so two merges over the same files agree byte-for-byte
/// regardless of directory enumeration or arrival order (proptested in
/// `tests/merge_order.rs`).
#[derive(Debug, Clone)]
pub struct TraceMerge {
    /// The parsed inputs, sorted by `(label, pid)`.
    pub workers: Vec<TraceFile>,
    /// All events, globally ordered.
    pub timeline: Vec<MergedEvent>,
}

impl TraceMerge {
    /// Merge already-parsed trace files. Input order is irrelevant.
    pub fn from_files(mut files: Vec<TraceFile>) -> TraceMerge {
        files.sort_by(|a, b| (&a.label, a.pid).cmp(&(&b.label, b.pid)));
        let mut timeline: Vec<MergedEvent> = files
            .iter()
            .flat_map(|f| {
                f.events.iter().map(|event| MergedEvent {
                    worker: f.label.clone(),
                    pid: f.pid,
                    unix_ts_ns: f.epoch_unix_ns + event.ts_ns,
                    event: event.clone(),
                })
            })
            .collect();
        timeline.sort_by(|a, b| {
            (a.unix_ts_ns, &a.worker, a.pid, a.event.seq).cmp(&(
                b.unix_ts_ns,
                &b.worker,
                b.pid,
                b.event.seq,
            ))
        });
        TraceMerge {
            workers: files,
            timeline,
        }
    }

    /// Load and merge every `trace.*.jsonl` file in `dir`. Any single
    /// unreadable or corrupt file fails the whole merge with its typed
    /// error — a partial merge would silently misrepresent the run.
    pub fn from_dir(dir: &Path) -> Result<TraceMerge, TraceError> {
        let mut files = Vec::new();
        let entries = std::fs::read_dir(dir)?;
        let mut names: Vec<PathBuf> = entries
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| {
                p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with("trace.") && n.ends_with(".jsonl"))
            })
            .collect();
        names.sort();
        for path in names {
            files.push(TraceFile::load(&path)?);
        }
        Ok(TraceMerge::from_files(files))
    }

    /// Counter totals summed across all workers.
    pub fn counter_totals(&self) -> BTreeMap<String, u64> {
        let mut totals: BTreeMap<String, u64> = BTreeMap::new();
        for f in &self.workers {
            for (name, v) in &f.counters {
                *totals.entry(name.clone()).or_insert(0) += v;
            }
        }
        totals
    }

    /// Event counts by name across the merged timeline.
    pub fn event_counts(&self) -> BTreeMap<String, usize> {
        let mut counts: BTreeMap<String, usize> = BTreeMap::new();
        for e in &self.timeline {
            *counts
                .entry(format!("{}:{}", e.event.kind.as_str(), e.event.name))
                .or_insert(0) += 1;
        }
        counts
    }

    /// Wall-clock extent of the merged timeline, ns since the unix
    /// epoch: `(first, last)`. `None` when there are no events.
    pub fn extent_unix_ns(&self) -> Option<(u128, u128)> {
        let first = self.timeline.first()?.unix_ts_ns;
        let last = self.timeline.last()?.unix_ts_ns;
        Some((first, last))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_is_inert() {
        let t = Tracer::disabled();
        assert!(!t.is_enabled());
        let span = t.span_enter("cell", None, || panic!("fields evaluated while disabled"));
        assert!(span.is_none());
        t.span_exit("cell", span);
        t.event("memo.hit", None, || {
            panic!("fields evaluated while disabled")
        });
        t.counter_add("memo.hits", 1);
        assert!(t.to_bytes().is_none());
        assert!(t.file_name().is_none());
    }

    #[test]
    fn roundtrip_spans_events_counters() {
        let t = Tracer::new("worker-0");
        let row = t.span_enter("row", None, || vec![("syscall", Field::from("open"))]);
        let cell = t.span_enter("cell", row, || {
            vec![
                ("syscall", Field::from("open")),
                ("tool", Field::from("SPADEv2")),
            ]
        });
        t.event("memo.hit", cell, || vec![("disk", Field::from(false))]);
        t.counter_add("memo.hits", 3);
        t.counter_add("memo.hits", 4);
        t.span_exit_with("cell", cell, || vec![("steps", Field::from(42u64))]);
        t.span_exit("row", row);

        let bytes = t.to_bytes().unwrap();
        let parsed = TraceFile::parse(&bytes).unwrap();
        assert_eq!(parsed.label, "worker-0");
        assert_eq!(parsed.version, TRACE_VERSION);
        assert_eq!(parsed.events.len(), 5);
        assert_eq!(parsed.counters.get("memo.hits"), Some(&7));

        let spans = parsed.spans();
        assert_eq!(spans.len(), 2);
        let cell_span = spans.iter().find(|s| s.name == "cell").unwrap();
        assert!(cell_span.duration_ns().is_some());
        assert_eq!(cell_span.field("tool").unwrap().as_str(), Some("SPADEv2"));
        assert_eq!(cell_span.field("steps").unwrap().as_u64(), Some(42));
        assert_eq!(
            cell_span.parent,
            spans.iter().find(|s| s.name == "row").map(|s| s.span)
        );

        // The memo.hit event is parented under the cell span.
        let hit = parsed.events.iter().find(|e| e.name == "memo.hit").unwrap();
        assert_eq!(hit.parent, Some(cell_span.span));
        assert_eq!(hit.field("disk"), Some(&FieldValue::Bool(false)));
    }

    #[test]
    fn cumulative_flushes_replace_with_longer_trace() {
        let t = Tracer::new("w");
        t.event("a", None, Vec::new);
        let first = t.to_bytes().unwrap();
        t.event("b", None, Vec::new);
        let second = t.to_bytes().unwrap();
        assert!(second.len() > first.len());
        assert_eq!(TraceFile::parse(&first).unwrap().events.len(), 1);
        assert_eq!(TraceFile::parse(&second).unwrap().events.len(), 2);
    }

    #[test]
    fn exact_u64_fields_survive() {
        let t = Tracer::new("w");
        let big = u64::MAX - 7;
        t.event("e", None, || vec![("v", Field::from(big))]);
        t.counter_add("c", big);
        let parsed = TraceFile::parse(&t.to_bytes().unwrap()).unwrap();
        assert_eq!(parsed.events[0].field("v").unwrap().as_u64(), Some(big));
        assert_eq!(parsed.counters.get("c"), Some(&big));
    }

    #[test]
    fn string_escaping_roundtrips() {
        let t = Tracer::new("w\"ei\\rd\nlabel");
        t.event("e", None, || {
            vec![("path", Field::from("a\tb\"c\\d\u{1}e"))]
        });
        let parsed = TraceFile::parse(&t.to_bytes().unwrap()).unwrap();
        assert_eq!(parsed.label, "w\"ei\\rd\nlabel");
        assert_eq!(
            parsed.events[0].field("path").unwrap().as_str(),
            Some("a\tb\"c\\d\u{1}e")
        );
    }

    #[test]
    fn write_to_dir_lands_durable_and_parseable() {
        let dir = std::env::temp_dir().join(format!(
            "provtrace-test-{}-{}",
            std::process::id(),
            TEMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let t = Tracer::new("drive");
        t.event("worker.spawn", None, || vec![("worker", Field::from(0u64))]);
        t.write_to_dir(&dir).unwrap();
        let path = dir.join(t.file_name().unwrap());
        let parsed = TraceFile::load(&path).unwrap();
        assert_eq!(parsed.events.len(), 1);
        // Disabled write is an Ok no-op, leaves nothing behind.
        Tracer::disabled().write_to_dir(&dir).unwrap();
        let count = std::fs::read_dir(&dir).unwrap().count();
        assert_eq!(count, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn atomic_write_leaves_no_temp_files_and_replaces_content() {
        type Write = fn(&Path, &[u8]) -> io::Result<()>;
        let writers: [Write; 2] = [write_bytes_durable, write_bytes_atomic];
        for write in writers {
            let dir = std::env::temp_dir().join(format!(
                "provtrace-write-{}-{}",
                std::process::id(),
                TEMP_SEQ.fetch_add(1, Ordering::Relaxed)
            ));
            std::fs::create_dir_all(&dir).unwrap();
            let path = dir.join("artifact.json");
            write(&path, b"first").unwrap();
            write(&path, b"second").unwrap();
            assert_eq!(std::fs::read_to_string(&path).unwrap(), "second");
            let leftovers: Vec<String> = std::fs::read_dir(&dir)
                .unwrap()
                .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
                .filter(|n| n != "artifact.json")
                .collect();
            assert!(leftovers.is_empty(), "no temp files remain: {leftovers:?}");
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn merge_orders_across_workers() {
        let mk = |label: &str, anchor: u128, ts: &[u128]| {
            let t = Tracer::new(label);
            for _ in ts {
                t.event("e", None, Vec::new);
            }
            let mut f = TraceFile::parse(&t.to_bytes().unwrap()).unwrap();
            f.epoch_unix_ns = anchor;
            for (e, &want) in f.events.iter_mut().zip(ts) {
                e.ts_ns = want;
            }
            f
        };
        let a = mk("a", 1_000, &[10, 500]);
        let b = mk("b", 1_200, &[5, 100]);
        let merged = TraceMerge::from_files(vec![b.clone(), a.clone()]);
        let order: Vec<(u128, &str)> = merged
            .timeline
            .iter()
            .map(|e| (e.unix_ts_ns, e.worker.as_str()))
            .collect();
        assert_eq!(
            order,
            vec![(1_010, "a"), (1_205, "b"), (1_300, "b"), (1_500, "a")]
        );
        // Arrival order never matters.
        let again = TraceMerge::from_files(vec![a, b]);
        assert_eq!(merged.timeline, again.timeline);
        assert_eq!(merged.extent_unix_ns(), Some((1_010, 1_500)));
    }

    #[test]
    fn merge_sums_counters() {
        let mk = |label: &str, n: u64| {
            let t = Tracer::new(label);
            t.counter_add("memo.hits", n);
            TraceFile::parse(&t.to_bytes().unwrap()).unwrap()
        };
        let merged = TraceMerge::from_files(vec![mk("a", 3), mk("b", 4)]);
        assert_eq!(merged.counter_totals().get("memo.hits"), Some(&7));
    }
}
