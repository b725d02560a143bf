//! Regression-store durability: `accept` must be atomic. A reader
//! racing a writer — or a crash mid-accept — must only ever observe a
//! complete baseline at the final path, never a torn file, and the
//! store directory must not accumulate temp files.

use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Arc;

use provgraph::PropertyGraph;
use provmark_core::regression::RegressionStore;

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "provmark-durable-baselines-{tag}-{}",
        std::process::id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

fn graph(n: usize, label: &str) -> PropertyGraph {
    let mut g = PropertyGraph::new();
    for i in 0..n {
        g.add_node(format!("n{i}"), label).unwrap();
    }
    for i in 1..n {
        g.add_edge(
            format!("e{i}"),
            format!("n{}", i - 1),
            format!("n{i}"),
            "used",
        )
        .unwrap();
    }
    g
}

#[test]
fn torn_accept_is_never_observable_at_the_final_path() {
    let dir = temp_dir("race");
    let store = RegressionStore::open(&dir).unwrap();
    // Two graphs different enough that any byte-level interleaving of
    // their datalog forms fails to parse or changes the node count.
    let small = graph(2, "Small");
    let big = graph(40, "BigBaselineLabelPaddingPaddingPadding");
    store.accept("cell", &small).unwrap();

    let stop = Arc::new(AtomicBool::new(false));
    let progress = Arc::new(AtomicU32::new(0));
    let writer = {
        let store = store.clone();
        let (stop, progress) = (Arc::clone(&stop), Arc::clone(&progress));
        let (small, big) = (small.clone(), big.clone());
        std::thread::spawn(move || {
            let mut flips = 0u32;
            while !stop.load(Ordering::Relaxed) {
                store
                    .accept(
                        "cell",
                        if flips.is_multiple_of(2) {
                            &big
                        } else {
                            &small
                        },
                    )
                    .unwrap();
                flips += 1;
                progress.store(flips, Ordering::Relaxed);
            }
            flips
        })
    };

    // Read at least 300 times, and until the writer has replaced the
    // baseline a few times, however the two threads are scheduled.
    let expected = [small.node_count(), big.node_count()];
    let mut reads = 0;
    while reads < 300 || (progress.load(Ordering::Relaxed) < 4 && !writer.is_finished()) {
        reads += 1;
        let loaded = store
            .load("cell")
            .expect("a racing reader must never see a torn or missing baseline")
            .expect("baseline exists for the whole race");
        assert!(
            expected.contains(&loaded.node_count()),
            "read a graph that is neither baseline ({} nodes)",
            loaded.node_count()
        );
    }
    stop.store(true, Ordering::Relaxed);
    let flips = writer.join().expect("writer thread");
    assert!(flips >= 4, "the writer must actually have raced the reader");

    // The atomic-rename protocol must clean up after itself: nothing in
    // the store directory but the final baseline.
    let leftovers: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|n| n != "cell.dl")
        .collect();
    assert!(
        leftovers.is_empty(),
        "stray files after the race: {leftovers:?}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn simulated_crash_mid_accept_leaves_the_old_baseline() {
    // Simulate the torn write the durable path replaces: a crashed
    // writer leaves a half-written *temp* file behind, and the final
    // path still serves the previous complete baseline.
    let dir = temp_dir("crash");
    let store = RegressionStore::open(&dir).unwrap();
    let old = graph(3, "Old");
    store.accept("cell", &old).unwrap();

    // A torn temp file, as write_bytes_durable would leave it if the
    // process died before its rename.
    let next = provgraph::datalog::to_canonical_datalog(&graph(30, "NewNew"), "g");
    std::fs::write(
        dir.join(".cell.dl.tmp.999.0"),
        &next.as_bytes()[..next.len() / 2],
    )
    .unwrap();

    let loaded = store.load("cell").unwrap().expect("baseline present");
    assert_eq!(
        loaded.node_count(),
        old.node_count(),
        "final path must still serve the pre-crash baseline"
    );
}
