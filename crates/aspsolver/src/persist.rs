//! Persistent, content-addressed solve cache: the on-disk artifact that
//! warms a [`SolveMemo`] across processes, shards and restarts.
//!
//! # Why this is sound
//!
//! A [`SolveMemo`] entry is a pure function of its key — the problem,
//! the two cores' interner-independent 128-bit content hashes
//! ([`provgraph::compiled::content_hashes`]) and the full
//! [`SolverConfig`](crate::SolverConfig), budget included. Nothing in
//! the key or the cached outcome references a session, an interner
//! numbering or a process, so an entry computed anywhere is valid
//! everywhere: persisting the map and reloading it elsewhere is the
//! classic content-addressing move — name the data, not the host that
//! computed it. A warm replay returns byte-identically what the fresh
//! search would have, search statistics included.
//!
//! # `SolveCacheFile` format (version 2)
//!
//! Little-endian throughout, mirroring the session snapshot format:
//!
//! ```text
//! magic      4 bytes   "PMSC"
//! version    u32       SOLVE_CACHE_VERSION
//! checksum   u64       FxHash of every byte after this field
//! count      u64       number of entries
//! entry*     --        `count` entries, sorted by encoded key bytes
//! ```
//!
//! Each entry is a key followed by its outcome:
//!
//! ```text
//! problem    u8        0 Similarity · 1 Isomorphism · 2 Generalization · 3 Subgraph
//! lhs        u128      content hash of the left core (property-blind for Similarity)
//! rhs        u128      content hash of the right core
//! max_steps  u64       search budget (part of the key!)
//! flags      u8        bit0 degree_filter · bit1 forward_check · bit2 cost_bound
//!                      · bit3 order_by_cost; bits 4–7 zero
//! outcome    u8        bit0 optimal · bit1 solution present; bits 2–7 zero
//! stats      3×u64     steps, backtracks, solutions
//! solution   --        present only when outcome bit1 is set:
//!   nodes    u32 + n×u32          node assignment
//!   edges    u32 + m×(u32,u32)    edge pairing
//!   cost     u64                  total cost
//! ```
//!
//! Entries are written sorted by their encoded key bytes, so the same
//! cache contents always serialize to the same bytes (merge order and
//! shard iteration order are invisible). Trailing bytes after the last
//! entry are rejected.
//!
//! Every malformed input — wrong magic, foreign version, truncation at
//! any byte, flipped payload bytes — is rejected with a typed
//! [`SolveCacheError`]; loading never panics on untrusted bytes and a
//! rejected file simply leaves the memo cold. A forged *well-formed*
//! file can of course plant wrong outcomes — the cache file carries the
//! same trust level as every other run artifact (cell tasks, results)
//! and the same integrity checks, no more.

use std::fmt;
use std::io;
use std::path::Path;
use std::sync::Arc;

use provgraph::compiled::FxHasher;

use crate::engine::{DenseOutcome, MemoKey, Problem, SolveMemo, SolverConfig, SolverStats};

/// Magic bytes opening every solve-cache file.
pub const SOLVE_CACHE_MAGIC: [u8; 4] = *b"PMSC";

/// Current solve-cache format version. Bumped on any byte-layout
/// change, and whenever the set of valid keys changes (version 2 dropped
/// a config flag, so version-1 statistics came from a search this build
/// no longer runs); readers reject every other version rather than
/// guess.
pub const SOLVE_CACHE_VERSION: u32 = 2;

/// Failure to load (or write) a solve-cache file.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SolveCacheError {
    /// The input does not start with [`SOLVE_CACHE_MAGIC`] — it is not
    /// a solve-cache file at all.
    BadMagic,
    /// The file was written by a different format version.
    UnsupportedVersion {
        /// Version found in the header.
        found: u32,
        /// The only version this build reads.
        supported: u32,
    },
    /// The input ended before the structure it promised was complete.
    Truncated {
        /// Byte offset at which more data was needed.
        at: usize,
    },
    /// The input decoded structurally but violates a format invariant.
    Corrupt {
        /// What was violated.
        detail: String,
    },
    /// The underlying file could not be read or written.
    Io {
        /// The operating-system error.
        detail: String,
    },
}

impl fmt::Display for SolveCacheError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolveCacheError::BadMagic => {
                write!(f, "not a solve-cache file (missing PMSC magic)")
            }
            SolveCacheError::UnsupportedVersion { found, supported } => write!(
                f,
                "solve-cache format version {found} is not supported (this build reads \
                 version {supported}); re-create the cache with a matching build"
            ),
            SolveCacheError::Truncated { at } => {
                write!(f, "solve-cache file truncated at byte offset {at}")
            }
            SolveCacheError::Corrupt { detail } => write!(f, "solve-cache file corrupt: {detail}"),
            SolveCacheError::Io { detail } => write!(f, "solve-cache io error: {detail}"),
        }
    }
}

impl std::error::Error for SolveCacheError {}

fn corrupt(detail: impl Into<String>) -> SolveCacheError {
    SolveCacheError::Corrupt {
        detail: detail.into(),
    }
}

impl From<io::Error> for SolveCacheError {
    fn from(e: io::Error) -> Self {
        SolveCacheError::Io {
            detail: e.to_string(),
        }
    }
}

/// FxHash of a byte run — the cache file's payload checksum.
fn payload_hash(bytes: &[u8]) -> u64 {
    use std::hash::Hasher;
    let mut h = FxHasher::default();
    h.write(bytes);
    h.finish()
}

// --- serialization ------------------------------------------------------

fn problem_tag(p: Problem) -> u8 {
    match p {
        Problem::Similarity => 0,
        Problem::Isomorphism => 1,
        Problem::Generalization => 2,
        Problem::Subgraph => 3,
    }
}

fn problem_from_tag(tag: u8) -> Option<Problem> {
    Some(match tag {
        0 => Problem::Similarity,
        1 => Problem::Isomorphism,
        2 => Problem::Generalization,
        3 => Problem::Subgraph,
        _ => return None,
    })
}

fn encode_key(out: &mut Vec<u8>, key: &MemoKey) {
    out.push(problem_tag(key.problem));
    out.extend_from_slice(&key.lhs.to_le_bytes());
    out.extend_from_slice(&key.rhs.to_le_bytes());
    out.extend_from_slice(&key.config.max_steps.to_le_bytes());
    let flags = u8::from(key.config.degree_filter)
        | u8::from(key.config.forward_check) << 1
        | u8::from(key.config.cost_bound) << 2
        | u8::from(key.config.order_by_cost) << 3;
    out.push(flags);
}

fn encode_outcome(out: &mut Vec<u8>, dense: &DenseOutcome) {
    out.push(u8::from(dense.optimal) | u8::from(dense.best.is_some()) << 1);
    out.extend_from_slice(&dense.stats.steps.to_le_bytes());
    out.extend_from_slice(&dense.stats.backtracks.to_le_bytes());
    out.extend_from_slice(&dense.stats.solutions.to_le_bytes());
    if let Some((assign, pairs, cost)) = &dense.best {
        out.extend_from_slice(&len_u32(assign.len()).to_le_bytes());
        for &a in assign {
            out.extend_from_slice(&a.to_le_bytes());
        }
        out.extend_from_slice(&len_u32(pairs.len()).to_le_bytes());
        for &(e1, e2) in pairs {
            out.extend_from_slice(&e1.to_le_bytes());
            out.extend_from_slice(&e2.to_le_bytes());
        }
        out.extend_from_slice(&cost.to_le_bytes());
    }
}

/// Serialize `entries` to the versioned cache-file format (sorted by
/// encoded key bytes, so equal contents yield equal bytes).
fn encode_entries(entries: Vec<(MemoKey, Arc<DenseOutcome>)>) -> Vec<u8> {
    let mut encoded: Vec<(Vec<u8>, &DenseOutcome)> = entries
        .iter()
        .map(|(k, d)| {
            let mut kb = Vec::with_capacity(42);
            encode_key(&mut kb, k);
            (kb, d.as_ref())
        })
        .collect();
    encoded.sort_unstable_by(|a, b| a.0.cmp(&b.0));
    let mut payload = Vec::new();
    payload.extend_from_slice(&(encoded.len() as u64).to_le_bytes());
    for (kb, dense) in &encoded {
        payload.extend_from_slice(kb);
        encode_outcome(&mut payload, dense);
    }
    let mut out = Vec::with_capacity(payload.len() + 16);
    out.extend_from_slice(&SOLVE_CACHE_MAGIC);
    out.extend_from_slice(&SOLVE_CACHE_VERSION.to_le_bytes());
    out.extend_from_slice(&payload_hash(&payload).to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

/// Serialize **every** entry of `memo` to cache-file bytes — the full
/// artifact a supervisor publishes (or a single process saves on exit).
pub fn cache_bytes(memo: &SolveMemo) -> Vec<u8> {
    encode_entries(memo.entries_snapshot(false))
}

/// Serialize only the entries **searched in this process** — the delta
/// a warm-started worker publishes on top of the cache file it loaded,
/// so concurrent workers never rewrite each other's entries.
pub fn delta_bytes(memo: &SolveMemo) -> Vec<u8> {
    encode_entries(memo.entries_snapshot(true))
}

// --- deserialization ----------------------------------------------------

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], SolveCacheError> {
        let slice = self
            .bytes
            .get(self.pos..self.pos + n)
            .ok_or(SolveCacheError::Truncated { at: self.pos })?;
        self.pos += n;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, SolveCacheError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, SolveCacheError> {
        Ok(u32::from_le_bytes(
            // provlint: allow(panic-in-lib) -- take(4) returned exactly 4 bytes or errored
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    fn u64(&mut self) -> Result<u64, SolveCacheError> {
        Ok(u64::from_le_bytes(
            // provlint: allow(panic-in-lib) -- take(8) returned exactly 8 bytes or errored
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    fn u128(&mut self) -> Result<u128, SolveCacheError> {
        Ok(u128::from_le_bytes(
            // provlint: allow(panic-in-lib) -- take(16) returned exactly 16 bytes or errored
            self.take(16)?.try_into().expect("16 bytes"),
        ))
    }
}

/// Encode a collection length as `u32`, the fixed width of every
/// length field in this format. Solver assignments and edge pairings
/// are bounded by graph sizes, whose node/edge ids are already `u32`.
fn len_u32(n: usize) -> u32 {
    debug_assert!(n <= u32::MAX as usize, "length exceeds u32 format field");
    // provlint: allow(lossy-cast-in-serde) -- bound asserted above; ids are u32 by construction
    n as u32
}

fn decode_entry(r: &mut Reader<'_>) -> Result<(MemoKey, DenseOutcome), SolveCacheError> {
    let tag = r.u8()?;
    let problem =
        problem_from_tag(tag).ok_or_else(|| corrupt(format!("unknown problem tag {tag}")))?;
    let lhs = r.u128()?;
    let rhs = r.u128()?;
    let max_steps = r.u64()?;
    let flags = r.u8()?;
    if flags & !0b1111 != 0 {
        return Err(corrupt(format!(
            "reserved config flag bits set ({flags:#x})"
        )));
    }
    let config = SolverConfig {
        max_steps,
        degree_filter: flags & 1 != 0,
        forward_check: flags & 2 != 0,
        cost_bound: flags & 4 != 0,
        order_by_cost: flags & 8 != 0,
    };
    let oflags = r.u8()?;
    if oflags & !0b11 != 0 {
        return Err(corrupt(format!(
            "reserved outcome flag bits set ({oflags:#x})"
        )));
    }
    let stats = SolverStats {
        steps: r.u64()?,
        backtracks: r.u64()?,
        solutions: r.u64()?,
    };
    let best = if oflags & 2 != 0 {
        let n = r.u32()? as usize;
        let mut assign = Vec::with_capacity(n.min(1 << 20));
        for _ in 0..n {
            assign.push(r.u32()?);
        }
        let m = r.u32()? as usize;
        let mut pairs = Vec::with_capacity(m.min(1 << 20));
        for _ in 0..m {
            pairs.push((r.u32()?, r.u32()?));
        }
        Some((assign, pairs, r.u64()?))
    } else {
        None
    };
    Ok((
        MemoKey {
            problem,
            lhs,
            rhs,
            config,
        },
        DenseOutcome {
            best,
            optimal: oflags & 1 != 0,
            stats,
        },
    ))
}

/// Load cache-file bytes into `memo`, returning the number of entries
/// read. Loaded entries are marked as disk-backed (excluded from
/// [`delta_bytes`], counted by [`SolveMemo::disk_hits`] on hits); a key
/// the memo already holds keeps its in-memory entry.
///
/// # Errors
///
/// Every malformed input is rejected with a typed [`SolveCacheError`]
/// (wrong magic, unsupported version, truncation at any byte, checksum
/// mismatch, or an invariant violation); loading never panics on
/// untrusted bytes. On error the memo is left exactly as it was — the
/// caller proceeds with a cold (or partially warmed from earlier files)
/// cache.
pub fn load_cache_bytes(memo: &SolveMemo, bytes: &[u8]) -> Result<usize, SolveCacheError> {
    let mut r = Reader { bytes, pos: 0 };
    if r.take(4).map_err(|_| SolveCacheError::BadMagic)? != SOLVE_CACHE_MAGIC {
        return Err(SolveCacheError::BadMagic);
    }
    let version = r.u32()?;
    if version != SOLVE_CACHE_VERSION {
        return Err(SolveCacheError::UnsupportedVersion {
            found: version,
            supported: SOLVE_CACHE_VERSION,
        });
    }
    // Whole-payload checksum before any parsing — corruption anywhere in
    // the body fails here, and nothing is inserted into the memo.
    let stored_hash = r.u64()?;
    if payload_hash(&bytes[r.pos..]) != stored_hash {
        return Err(corrupt(
            "payload checksum mismatch — the cache file was corrupted in transit",
        ));
    }
    let count = r.u64()? as usize;
    // Decode everything before touching the memo, so a file that decodes
    // the checksum but trips an invariant mid-body leaves it untouched.
    let mut decoded = Vec::with_capacity(count.min(1 << 16));
    for _ in 0..count {
        decoded.push(decode_entry(&mut r)?);
    }
    if r.pos != bytes.len() {
        return Err(corrupt(format!(
            "{} trailing bytes after the last entry",
            bytes.len() - r.pos
        )));
    }
    let loaded = decoded.len();
    for (key, dense) in decoded {
        memo.insert(key, Arc::new(dense), true);
    }
    memo.tracer().event("cache.load", None, || {
        vec![("entries", provtrace::Field::from(loaded))]
    });
    Ok(loaded)
}

/// Warm `memo` from the cache file at `path`.
///
/// A missing file is a normal cold start (`Ok(0)`); an unreadable or
/// malformed file is a typed error, with the memo left as it was.
pub fn load_cache_file(memo: &SolveMemo, path: &Path) -> Result<usize, SolveCacheError> {
    let bytes = match std::fs::read(path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(0),
        Err(e) => return Err(e.into()),
    };
    load_cache_bytes(memo, &bytes)
}

/// Save every entry of `memo` to the cache file at `path`, durably
/// ([`write_bytes_durable`]).
pub fn write_cache_file(memo: &SolveMemo, path: &Path) -> Result<(), SolveCacheError> {
    let bytes = cache_bytes(memo);
    write_bytes_durable(path, &bytes)?;
    memo.tracer().event("cache.save", None, || {
        vec![
            ("entries", provtrace::Field::from(memo.len())),
            ("bytes", provtrace::Field::from(bytes.len())),
        ]
    });
    Ok(())
}

/// Write `bytes` to `path` atomically **and durably**: write to a
/// same-directory temp file, fsync it, rename over `path`, then fsync
/// the parent directory — so the publish survives a host crash, not
/// just a process crash. Readers see either the old content or the new,
/// never a torn write.
///
/// The implementation lives in [`provtrace`] (the bottom of the
/// workspace dependency graph, so trace files share the exact same
/// publish path); this re-export keeps the long-standing `aspsolver`
/// signature for its callers.
pub fn write_bytes_durable(path: &Path, bytes: &[u8]) -> io::Result<()> {
    provtrace::write_bytes_durable(path, bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{solve_batch_in_memo, solve_in_memo};
    use provgraph::compiled::CorpusSession;
    use provgraph::PropertyGraph;

    #[allow(clippy::type_complexity)]
    fn graph(
        nodes: &[(&str, &str, &[(&str, &str)])],
        edges: &[(&str, &str, &str, &str)],
    ) -> PropertyGraph {
        let mut g = PropertyGraph::new();
        for &(id, label, props) in nodes {
            g.add_node(id, label).unwrap();
            for &(k, v) in props {
                g.set_node_property(id, k, v).unwrap();
            }
        }
        for &(id, src, tgt, label) in edges {
            g.add_edge(id, src, tgt, label).unwrap();
        }
        g
    }

    /// A small corpus with repeated content under fresh identifiers, so
    /// memo replays actually occur.
    fn corpus(session: &mut CorpusSession) -> Vec<provgraph::compiled::GraphId> {
        let mut ids = Vec::new();
        for trial in 0..4 {
            let pid = format!("p{trial}");
            let fid = format!("f{trial}");
            let eid = format!("e{trial}");
            let g = graph(
                &[
                    (&pid, "Process", &[("cmd", "ls"), ("pid", "42")]),
                    (&fid, "Artifact", &[("path", "/tmp/x")]),
                ],
                &[(&eid, &pid, &fid, "Used")],
            );
            ids.push(session.add(&g));
        }
        ids
    }

    fn populated_memo() -> (SolveMemo, Vec<crate::Outcome>) {
        let mut session = CorpusSession::new();
        let ids = corpus(&mut session);
        let memo = SolveMemo::new();
        let config = SolverConfig::default();
        let mut outcomes = Vec::new();
        for problem in [
            Problem::Similarity,
            Problem::Isomorphism,
            Problem::Generalization,
            Problem::Subgraph,
        ] {
            outcomes.extend(solve_batch_in_memo(
                problem,
                &session,
                ids[0],
                &ids[1..],
                &config,
                Some(&memo),
            ));
        }
        (memo, outcomes)
    }

    #[test]
    fn roundtrip_preserves_every_entry() {
        let (memo, _) = populated_memo();
        let bytes = cache_bytes(&memo);
        let fresh = SolveMemo::new();
        let loaded = load_cache_bytes(&fresh, &bytes).unwrap();
        assert_eq!(loaded, memo.len());
        assert_eq!(fresh.len(), memo.len());
        // Loaded contents re-serialize to the exact same bytes.
        assert_eq!(cache_bytes(&fresh), bytes);
    }

    #[test]
    fn warm_replay_is_identical_and_all_hits() {
        let (memo, cold_outcomes) = populated_memo();
        let bytes = cache_bytes(&memo);

        // A *different* session: same graph contents, but interned in a
        // different numbering (extra vocabulary first, graphs reversed).
        let mut session = CorpusSession::new();
        let noise = graph(&[("z", "Zebra", &[("stripes", "many")])], &[]);
        session.add(&noise);
        let ids = corpus(&mut session);

        let warm = SolveMemo::new();
        load_cache_bytes(&warm, &bytes).unwrap();
        let config = SolverConfig::default();
        let mut warm_outcomes = Vec::new();
        for problem in [
            Problem::Similarity,
            Problem::Isomorphism,
            Problem::Generalization,
            Problem::Subgraph,
        ] {
            warm_outcomes.extend(solve_batch_in_memo(
                problem,
                &session,
                ids[0],
                &ids[1..],
                &config,
                Some(&warm),
            ));
        }
        assert_eq!(warm.misses(), 0, "every dense solve must be a warm hit");
        assert_eq!(warm.disk_hits(), warm.hits());
        assert_eq!(warm_outcomes.len(), cold_outcomes.len());
        for (w, c) in warm_outcomes.iter().zip(&cold_outcomes) {
            assert_eq!(w, c, "warm replay must be byte-identical");
        }
    }

    #[test]
    fn delta_excludes_disk_backed_entries() {
        let (memo, _) = populated_memo();
        let bytes = cache_bytes(&memo);
        let warm = SolveMemo::new();
        load_cache_bytes(&warm, &bytes).unwrap();
        // No fresh searches yet: the delta is an empty cache file.
        let empty = delta_bytes(&warm);
        let probe = SolveMemo::new();
        assert_eq!(load_cache_bytes(&probe, &empty).unwrap(), 0);

        // One fresh solve appears in the delta; the loaded entries don't.
        let mut session = CorpusSession::new();
        let a = session.add(&graph(&[("a", "Fresh", &[])], &[]));
        let b = session.add(&graph(&[("b", "Fresh", &[("k", "v")])], &[]));
        solve_in_memo(
            Problem::Isomorphism,
            &session,
            a,
            b,
            &SolverConfig::default(),
            Some(&warm),
        );
        let delta = delta_bytes(&warm);
        let probe = SolveMemo::new();
        assert_eq!(load_cache_bytes(&probe, &delta).unwrap(), 1);
    }

    #[test]
    fn merge_is_deterministic_and_idempotent() {
        let (memo, _) = populated_memo();
        let bytes = cache_bytes(&memo);
        // Loading the same file into one memo twice changes nothing.
        let m = SolveMemo::new();
        load_cache_bytes(&m, &bytes).unwrap();
        load_cache_bytes(&m, &bytes).unwrap();
        assert_eq!(cache_bytes(&m), bytes);
        // Loading in any order yields the same artifact bytes.
        let (other, _) = {
            let mut session = CorpusSession::new();
            let a = session.add(&graph(&[("a", "Other", &[])], &[]));
            let b = session.add(&graph(&[("b", "Other", &[])], &[]));
            let memo = SolveMemo::new();
            solve_in_memo(
                Problem::Similarity,
                &session,
                a,
                b,
                &SolverConfig::default(),
                Some(&memo),
            );
            (cache_bytes(&memo), ())
        };
        let ab = SolveMemo::new();
        load_cache_bytes(&ab, &bytes).unwrap();
        load_cache_bytes(&ab, &other).unwrap();
        let ba = SolveMemo::new();
        load_cache_bytes(&ba, &other).unwrap();
        load_cache_bytes(&ba, &bytes).unwrap();
        assert_eq!(cache_bytes(&ab), cache_bytes(&ba));
    }

    #[test]
    fn rejects_garbage_and_foreign_version() {
        let memo = SolveMemo::new();
        assert_eq!(load_cache_bytes(&memo, b""), Err(SolveCacheError::BadMagic));
        // The header opens with exactly SOLVE_CACHE_MAGIC; any other
        // leading bytes are a foreign file, not a version skew.
        let pristine = cache_bytes(&memo);
        assert_eq!(&pristine[..4], &SOLVE_CACHE_MAGIC);
        let mut foreign = pristine.clone();
        foreign[..4].copy_from_slice(b"XMSC");
        assert_eq!(
            load_cache_bytes(&memo, &foreign),
            Err(SolveCacheError::BadMagic)
        );
        assert_eq!(
            load_cache_bytes(&memo, b"nope"),
            Err(SolveCacheError::BadMagic)
        );
        // A future version, and version 1, whose keys carried a config
        // flag this build no longer has: replaying its statistics would
        // report a search this build never ran.
        for found in [SOLVE_CACHE_VERSION + 1, 1] {
            let mut skewed = cache_bytes(&memo);
            skewed[4..8].copy_from_slice(&found.to_le_bytes());
            assert_eq!(
                load_cache_bytes(&memo, &skewed),
                Err(SolveCacheError::UnsupportedVersion {
                    found,
                    supported: SOLVE_CACHE_VERSION,
                })
            );
        }
        assert_eq!(memo.len(), 0, "rejected loads must leave the memo cold");
    }

    #[test]
    fn rejects_every_strict_prefix() {
        let (memo, _) = populated_memo();
        let bytes = cache_bytes(&memo);
        for end in 0..bytes.len() {
            let fresh = SolveMemo::new();
            let err = load_cache_bytes(&fresh, &bytes[..end])
                .expect_err("every strict prefix must be rejected");
            assert!(
                matches!(
                    err,
                    SolveCacheError::BadMagic
                        | SolveCacheError::Truncated { .. }
                        | SolveCacheError::Corrupt { .. }
                ),
                "prefix of length {end}: unexpected error {err:?}"
            );
            assert_eq!(fresh.len(), 0, "prefix of length {end} warmed the memo");
        }
    }

    #[test]
    fn rejects_every_single_byte_flip() {
        let (memo, _) = populated_memo();
        let bytes = cache_bytes(&memo);
        for i in 0..bytes.len() {
            let mut tampered = bytes.clone();
            tampered[i] ^= 0x40;
            let fresh = SolveMemo::new();
            load_cache_bytes(&fresh, &tampered)
                .expect_err("a flipped byte anywhere must be detected");
            assert_eq!(fresh.len(), 0, "flip at byte {i} warmed the memo");
        }
    }

    #[test]
    fn rejects_trailing_bytes() {
        let (memo, _) = populated_memo();
        let pristine = cache_bytes(&memo);
        let mut trailing = pristine.clone();
        trailing.push(0);
        // The first entry's config flags byte follows the 24-byte header
        // and its problem tag, two content hashes and budget. Every bit
        // from 4 up is reserved; bit 4 was a flag in version 1.
        let flags_at = 24 + 1 + 16 + 16 + 8;
        let mut reserved_flag = pristine;
        reserved_flag[flags_at] |= 1 << 4;
        for (mut bytes, reason) in [
            (trailing, "trailing bytes"),
            (reserved_flag, "reserved config flag bits"),
        ] {
            // Re-stamp the checksum so only the structural check can fire.
            let fixed = payload_hash(&bytes[16..]);
            bytes[8..16].copy_from_slice(&fixed.to_le_bytes());
            let fresh = SolveMemo::new();
            match load_cache_bytes(&fresh, &bytes) {
                Err(SolveCacheError::Corrupt { detail }) => {
                    assert!(detail.contains(reason), "{reason}: got {detail}")
                }
                other => panic!("{reason}: expected Corrupt, got {other:?}"),
            }
            assert_eq!(fresh.len(), 0, "a rejected load must leave the memo cold");
        }
    }

    #[test]
    fn missing_file_is_a_cold_start() {
        let memo = SolveMemo::new();
        let dir = std::env::temp_dir().join(format!("pmsc-missing-{}", std::process::id()));
        assert_eq!(load_cache_file(&memo, &dir.join("absent.cache")), Ok(0));
    }

    #[test]
    fn file_roundtrip_via_durable_write() {
        let (memo, _) = populated_memo();
        let dir = std::env::temp_dir().join(format!("pmsc-rt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("solve.cache");
        write_cache_file(&memo, &path).unwrap();
        let fresh = SolveMemo::new();
        assert_eq!(load_cache_file(&fresh, &path).unwrap(), memo.len());
        // Overwrite-in-place goes through the same atomic path.
        write_cache_file(&fresh, &path).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), cache_bytes(&memo));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn capacity_cap_evicts_and_counts() {
        let memo = SolveMemo::with_capacity(16);
        let mut session = CorpusSession::new();
        let config = SolverConfig::default();
        let mut ids = Vec::new();
        for i in 0..40 {
            let id = format!("n{i}");
            let g = graph(&[(&id, "N", &[("i", &i.to_string())])], &[]);
            ids.push(session.add(&g));
        }
        for w in ids.windows(2) {
            solve_in_memo(
                Problem::Isomorphism,
                &session,
                w[0],
                w[1],
                &config,
                Some(&memo),
            );
        }
        assert!(memo.evictions() > 0, "the cap must trigger evictions");
        // Each shard holds at most its share of the capacity, so the
        // total stays within the configured bound.
        assert!(
            memo.len() <= 16,
            "memo holds {} entries over its capacity of 16",
            memo.len()
        );
    }
}
