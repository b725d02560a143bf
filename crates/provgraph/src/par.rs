//! Tiny data-parallel helper over `std::thread::scope`.
//!
//! The workspace builds without external crates (no `rayon`), so the one
//! parallel stage — `provmark_core::pipeline::run_matrix`'s fan-out over
//! Table 2 rows — runs on this primitive: an order-preserving parallel
//! map that chunks the input across the machine's available parallelism.
//! Everything below a matrix cell (generalization, the batch solver) is
//! sequential, so there is exactly one level of parallelism and no
//! nesting to guard against. It lives in this base crate so every layer
//! above can reach it.

use std::num::NonZeroUsize;
use std::thread;

/// Number of worker threads to use for `n` items.
fn workers_for(n: usize) -> usize {
    thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
        .min(n)
}

/// Map `f` over `items` in parallel, preserving order.
///
/// Chunks the slice across available cores with scoped threads; falls
/// back to a sequential map for empty/singleton inputs and single-core
/// machines. A panic in any worker is propagated to the caller with its
/// original payload (so failing assertions inside `f` read normally).
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let workers = workers_for(items.len());
    if workers <= 1 {
        return items.iter().map(&f).collect();
    }
    let chunk_size = items.len().div_ceil(workers);
    let f = &f;
    let mut chunks: Vec<Vec<R>> = Vec::with_capacity(workers);
    thread::scope(|scope| {
        let handles: Vec<_> = items
            .chunks(chunk_size)
            .map(|chunk| scope.spawn(move || chunk.iter().map(f).collect::<Vec<R>>()))
            .collect();
        for handle in handles {
            match handle.join() {
                Ok(mapped) => chunks.push(mapped),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });
    chunks.into_iter().flatten().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order_and_values() {
        let items: Vec<usize> = (0..1000).collect();
        let doubled = par_map(&items, |&x| x * 2);
        assert_eq!(doubled, (0..1000).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_singleton() {
        assert_eq!(par_map(&[] as &[u8], |&x| x), Vec::<u8>::new());
        assert_eq!(par_map(&[7u8], |&x| x + 1), vec![8]);
    }

    #[test]
    fn worker_panic_propagates() {
        let items: Vec<usize> = (0..64).collect();
        let caught = std::panic::catch_unwind(|| {
            par_map(&items, |&x| {
                assert!(x != 13, "unlucky");
                x
            })
        });
        assert!(caught.is_err());
    }
}
