//! Deterministic worker-pool layer shared by every parallel hot path.
//!
//! One knob controls the whole workspace's parallelism: the `PYTHIA_THREADS`
//! environment variable (read once), overridable at runtime via
//! [`set_thread_override`] (benches and determinism tests flip between serial
//! and parallel in one process). [`Tensor::matmul`](crate::Tensor::matmul)'s
//! row bands and `pythia-core`'s model-group fan-out both size
//! themselves from [`configured_threads`].
//!
//! Determinism contract: [`parallel_map_vec`] assigns each item a fixed
//! output slot (its input index) and every item is processed by exactly one
//! worker with no shared mutable state, so the returned vector is identical
//! for any thread count — including 1. Callers guarantee `f` itself is a
//! pure function of `(index, item)`.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// Runtime override (0 = unset). Lets benches/tests compare serial vs
/// parallel in one process without re-reading the environment.
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// `PYTHIA_THREADS` parsed once.
static ENV_THREADS: OnceLock<Option<usize>> = OnceLock::new();

/// Force the pool width (`set_thread_override(1)` = serial everywhere);
/// `set_thread_override(0)` restores the environment/default behaviour.
pub fn set_thread_override(n: usize) {
    THREAD_OVERRIDE.store(n, Ordering::SeqCst);
}

/// The worker count every parallel path in the workspace uses: the runtime
/// override if set, else `PYTHIA_THREADS`, else the machine's available
/// parallelism. Always at least 1.
pub fn configured_threads() -> usize {
    let over = THREAD_OVERRIDE.load(Ordering::SeqCst);
    if over > 0 {
        return over;
    }
    let env = ENV_THREADS.get_or_init(|| {
        std::env::var("PYTHIA_THREADS")
            .ok()
            .and_then(|s| s.trim().parse::<usize>().ok())
    });
    match env {
        Some(n) if *n > 0 => *n,
        _ => std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4),
    }
}

/// Map `f` over `items` on the shared pool, returning results in input
/// order. Items are claimed with an atomic cursor (good load balance when
/// per-item cost is uneven, e.g. object models of very different sizes);
/// each result lands in the slot of its input index, so the output is
/// bit-identical to the serial `items.into_iter().enumerate().map(f)` run.
pub fn parallel_map_vec<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    parallel_map_vec_labeled("nn.task", items, f)
}

/// [`parallel_map_vec`] with a static task label: when wall-task capture is
/// on ([`pythia_obs::wall::set_enabled`]), every item's execution is recorded
/// as a `(label, worker, item, start, duration)` span for the trace's
/// wall-clock process. Wall capture never affects the returned values or
/// their order — the determinism contract is unchanged.
pub fn parallel_map_vec_labeled<T, R, F>(label: &'static str, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let n = items.len();
    let threads = configured_threads().min(n);
    let capture = pythia_obs::wall::enabled();
    let train_capture = pythia_obs::train::enabled();
    let timed = |worker: u32, i: usize, item: T| {
        if train_capture {
            // Tag the worker thread so training telemetry recorded inside
            // `f` (per-epoch loss/grad-norm records from the classifier)
            // knows which fleet item and worker it belongs to.
            pythia_obs::train::set_context(worker, i as u64);
        }
        if !capture {
            return f(i, item);
        }
        let start_us = pythia_obs::wall::now_us();
        let r = f(i, item);
        pythia_obs::wall::record(pythia_obs::wall::WallTask {
            label,
            worker,
            item: i as u64,
            // Ambient request attribution: the serving loop brackets each
            // batched inference dispatch with `wall::set_request`.
            req: pythia_obs::wall::current_request(),
            start_us,
            dur_us: pythia_obs::wall::now_us().saturating_sub(start_us),
        });
        r
    };
    if threads <= 1 {
        return items
            .into_iter()
            .enumerate()
            .map(|(i, t)| timed(0, i, t))
            .collect();
    }
    let inputs: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let outputs: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for w in 0..threads {
            let (timed, cursor, inputs, outputs) = (&timed, &cursor, &inputs, &outputs);
            scope.spawn(move || loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let item = inputs[i].lock().unwrap().take().expect("item claimed once");
                let r = timed(w as u32, i, item);
                *outputs[i].lock().unwrap() = Some(r);
            });
        }
    });
    outputs
        .into_iter()
        .map(|m| m.into_inner().unwrap().expect("every slot filled"))
        .collect()
}

/// [`parallel_map_vec`] over a slice of `Sync` items.
pub fn parallel_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    parallel_map_vec(items.iter().collect(), |i, t: &T| f(i, t))
}

/// [`parallel_map`] with a static wall-task label (see
/// [`parallel_map_vec_labeled`]).
pub fn parallel_map_labeled<T, R, F>(label: &'static str, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    parallel_map_vec_labeled(label, items.iter().collect(), |i, t: &T| f(i, t))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        let items: Vec<usize> = (0..100).collect();
        let out = parallel_map(&items, |i, &x| {
            assert_eq!(i, x);
            x * 2
        });
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn serial_and_parallel_agree() {
        let items: Vec<u64> = (0..37).collect();
        set_thread_override(1);
        let serial = parallel_map(&items, |i, &x| x.wrapping_mul(i as u64 + 3));
        set_thread_override(4);
        let parallel = parallel_map(&items, |i, &x| x.wrapping_mul(i as u64 + 3));
        set_thread_override(0);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn handles_empty_and_singleton() {
        let empty: Vec<u8> = Vec::new();
        assert!(parallel_map_vec(empty, |_, x: u8| x).is_empty());
        assert_eq!(parallel_map_vec(vec![7u8], |i, x| (i, x)), vec![(0, 7)]);
    }

    #[test]
    fn moves_owned_items() {
        let items: Vec<String> = (0..8).map(|i| format!("s{i}")).collect();
        let out = parallel_map_vec(items, |_, s| s.len());
        assert_eq!(out, vec![2; 8]);
    }

    #[test]
    fn configured_threads_is_positive() {
        assert!(configured_threads() >= 1);
    }

    #[test]
    fn labeled_map_records_wall_tasks_without_changing_results() {
        let items: Vec<u64> = (0..5).collect();
        pythia_obs::wall::set_enabled(true);
        let out = parallel_map_labeled("nn.pool_test", &items, |i, &x| x + i as u64);
        pythia_obs::wall::set_enabled(false);
        assert_eq!(out, vec![0, 2, 4, 6, 8]);
        // Other tests in this process may have recorded tasks while capture
        // was on; ours are identified by the unique label.
        let mine: Vec<_> = pythia_obs::wall::drain()
            .into_iter()
            .filter(|t| t.label == "nn.pool_test")
            .collect();
        assert_eq!(mine.len(), 5, "one wall task per item");
        let mut covered: Vec<u64> = mine.iter().map(|t| t.item).collect();
        covered.sort_unstable();
        assert_eq!(covered, vec![0, 1, 2, 3, 4]);
    }
}
