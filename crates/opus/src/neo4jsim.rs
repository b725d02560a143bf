//! An embedded, in-memory graph store standing in for Neo4j.
//!
//! The real OPUS persists provenance into a Neo4j database; ProvMark's
//! transformation stage then runs Neo4j queries to extract the graph, and
//! the paper attributes OPUS's outsized stage times to "database startup
//! and access time … a one-time JVM warmup and database initialization
//! cost" (§5.1). This module reproduces that cost *shape*:
//!
//! - a commit serializes the graph to its native JSON form, which the
//!   store keeps;
//! - every query session pays a configurable warmup (real computation,
//!   not a sleep) before the JSON is parsed back into a graph, so the
//!   transformation stage parses native output as it does for SPADE (DOT)
//!   and CamFlow (PROV-JSON).
//!
//! A store lives for one trial and nothing reopens it, so it never
//! touches the disk. Absolute durations are scaled down from the paper's
//! minutes to milliseconds through
//! [`OpusConfig::db_startup_iterations`](crate::OpusConfig::db_startup_iterations).

use std::io;

use provgraph::PropertyGraph;

/// Burn CPU deterministically; returns a checksum the compiler cannot
/// discard. Stands in for JVM warmup + database initialization.
pub fn warmup_work(iterations: u64) -> u64 {
    let mut acc: u64 = 0x243F6A8885A308D3;
    for i in 0..iterations {
        acc = acc
            .wrapping_mul(6364136223846793005)
            .wrapping_add(i | 1)
            .rotate_left((i % 31) as u32);
    }
    acc
}

/// An in-memory store holding one provenance graph as committed JSON.
#[derive(Debug)]
pub struct Neo4jStore {
    json: Option<String>,
    /// Warmup iterations paid on every [`Neo4jStore::export`].
    pub startup_iterations: u64,
    /// Checksum accumulated from warmups (observable side effect).
    pub warmup_checksum: u64,
}

impl Neo4jStore {
    /// Create an empty store whose query sessions pay
    /// `startup_iterations` of warmup.
    pub fn new(startup_iterations: u64) -> Self {
        Neo4jStore {
            json: None,
            startup_iterations,
            warmup_checksum: 0,
        }
    }

    /// [`Neo4jStore::new`] under its former name, kept for existing
    /// callers. Never fails.
    ///
    /// # Errors
    ///
    /// None; the `Result` is kept for signature compatibility.
    pub fn create_temp(startup_iterations: u64) -> io::Result<Self> {
        Ok(Self::new(startup_iterations))
    }

    /// Commit a graph into the store (OPUS's commit path), replacing any
    /// earlier commit.
    ///
    /// # Errors
    ///
    /// Propagates serialization errors.
    pub fn ingest(&mut self, graph: &PropertyGraph) -> io::Result<()> {
        let json = serde_json::to_string(graph)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        self.json = Some(json);
        Ok(())
    }

    /// Open a query session and read the graph back (ProvMark's
    /// transformation path). Pays the simulated startup cost first.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::NotFound`] when nothing was ingested;
    /// [`io::ErrorKind::InvalidData`] when the committed JSON does not
    /// parse.
    pub fn export(&mut self) -> io::Result<PropertyGraph> {
        self.warmup_checksum ^= warmup_work(self.startup_iterations);
        let json = self
            .json
            .as_deref()
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "store holds no graph"))?;
        let mut graph: PropertyGraph = serde_json::from_str(json)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        graph.rebuild_indices();
        Ok(graph)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> PropertyGraph {
        let mut g = PropertyGraph::new();
        g.add_node("n1", "Process").unwrap();
        g.add_node("n2", "Global").unwrap();
        g.add_edge("e1", "n1", "n2", "EXECUTED").unwrap();
        g.set_node_property("n2", "path", "/tmp/x").unwrap();
        g
    }

    #[test]
    fn ingest_export_roundtrip() {
        let mut store = Neo4jStore::new(10);
        let g = toy();
        store.ingest(&g).unwrap();
        let g2 = store.export().unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn export_pays_warmup() {
        let mut store = Neo4jStore::new(1000);
        store.ingest(&toy()).unwrap();
        assert_eq!(store.warmup_checksum, 0);
        store.export().unwrap();
        assert_ne!(store.warmup_checksum, 0, "warmup must actually run");
    }

    #[test]
    fn export_without_ingest_fails() {
        let mut store = Neo4jStore::create_temp(0).unwrap();
        let err = store.export().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
    }

    #[test]
    fn warmup_is_deterministic_and_scales() {
        assert_eq!(warmup_work(1000), warmup_work(1000));
        assert_ne!(warmup_work(1000), warmup_work(1001));
    }
}
