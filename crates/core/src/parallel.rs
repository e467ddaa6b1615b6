//! Deterministic parallel map over independent simulations.

use std::collections::VecDeque;
use std::sync::Mutex;

/// Maps `f` over `items` on a scoped pool of `jobs` worker threads,
/// returning results in the items' original order.
///
/// Every item (an experiment point, a fleet deployment) is an independent
/// deterministic simulation, so the only thing parallelism could perturb
/// is ordering — and this preserves it: each item carries its index, and
/// results land in an index-addressed slot. The output (and hence any
/// JSON derived from it) is byte-identical regardless of `jobs`.
///
/// # Panics
///
/// Propagates the first worker panic after the scope joins (a sweep must
/// fail loudly, not report a partial grid).
pub fn parallel_map<T, R, F>(jobs: usize, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = items.len();
    if jobs <= 1 || n <= 1 {
        return items.into_iter().map(f).collect();
    }
    let queue: Mutex<VecDeque<(usize, T)>> = Mutex::new(items.into_iter().enumerate().collect());
    let slots: Mutex<Vec<Option<R>>> = Mutex::new((0..n).map(|_| None).collect());
    std::thread::scope(|scope| {
        for _ in 0..jobs.min(n) {
            scope.spawn(|| loop {
                let next = queue.lock().expect("queue poisoned").pop_front();
                let Some((idx, item)) = next else { break };
                let result = f(item);
                slots.lock().expect("slots poisoned")[idx] = Some(result);
            });
        }
    });
    slots
        .into_inner()
        .expect("slots poisoned")
        .into_iter()
        .map(|r| r.expect("scope joined every worker"))
        .collect()
}
