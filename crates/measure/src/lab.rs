//! The scenario lab's sweep driver.
//!
//! Protocol-level experiments (Fig. 14 usability, the §7.2 attack,
//! bridge strategies) are grids of *scenarios* evaluated against one
//! shared, read-only *substrate* — a warmed [`i2p_router::TestNet`], a
//! pre-filled [`crate::engine::HarvestEngine`], or both. The driver runs
//! such a grid across `std::thread::scope` workers:
//!
//! * **Work stealing, deterministic results.** Workers pull scenario
//!   indices from a shared atomic counter (scenarios have wildly uneven
//!   costs — a 0 % blocking rate finishes in a few simulated seconds, a
//!   97 % one burns full timeouts), but every scenario is a pure
//!   function of `(substrate, scenario, index)`, so the assembled result
//!   vector is identical for any thread count or scheduling order. The
//!   determinism suite in `tests/scenario_lab.rs` pins 1-thread ≡
//!   N-thread equality.
//! * **Inline fallback.** With one thread (or one scenario) the driver
//!   runs inline in index order — no spawn overhead, same results.
//!
//! The closure usually *forks* the substrate per scenario (e.g.
//! [`i2p_router::TestNet::fork`]) rather than mutating it; the driver
//! only hands out shared references.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Threads to use when the caller passes 0: one per available core.
pub fn default_threads() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Runs `run(substrate, scenario, index)` for every scenario and returns
/// the results in scenario order. `threads == 0` means one per core;
/// results are bit-identical for every thread count.
pub fn sweep<S, P, R, F>(substrate: &S, scenarios: &[P], threads: usize, run: F) -> Vec<R>
where
    S: Sync,
    P: Sync,
    R: Send,
    F: Fn(&S, &P, usize) -> R + Sync,
{
    let _span = i2p_telemetry::span("measure.sweep");
    // Counted once per grid, not per worker claim, so the total never
    // depends on how the atomic counter interleaved.
    i2p_telemetry::count(i2p_telemetry::Counter::SweepCells, scenarios.len() as u64);
    let threads = if threads == 0 { default_threads() } else { threads };
    let buckets = claim(scenarios.len(), threads, Vec::new, |out: &mut Vec<(usize, R)>, i| {
        out.push((i, run(substrate, &scenarios[i], i)));
    });
    let mut results: Vec<(usize, R)> = buckets.into_iter().flatten().collect();
    results.sort_unstable_by_key(|&(i, _)| i);
    results.into_iter().map(|(_, r)| r).collect()
}

/// The work-stealing loop behind [`sweep`], the engine's sharded fill
/// and the figure pass: up to `threads` workers claim the indices
/// `0..n` from one shared atomic counter, each folding its claims into
/// a state of its own made by `init`, and the workers' states come
/// back (one per worker, in no particular order). Every index is
/// claimed exactly once. The calling thread is one of the workers;
/// the others run on scoped threads, and a worker's panic is resumed
/// on the caller. Work on the calling thread allocates from its own
/// heap, so a claim loop run once per day (the figure pass) spreads
/// its allocations over one thread fewer.
///
/// Which worker claims which index depends on scheduling, so callers
/// keep their results independent of it: per-index outputs tagged with
/// their index, commutative merges, or disjoint state per index.
pub fn claim<T, I, W>(n: usize, threads: usize, init: I, work: W) -> Vec<T>
where
    T: Send,
    I: Fn() -> T + Sync,
    W: Fn(&mut T, usize) + Sync,
{
    let next = AtomicUsize::new(0);
    // The counter publishes nothing but the index itself: each index's
    // data is reached through `work`'s own shared references.
    let run = || {
        let mut state = init();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                break state;
            }
            work(&mut state, i);
        }
    };
    std::thread::scope(|s| {
        let helpers: Vec<_> = (1..threads.min(n)).map(|_| s.spawn(run)).collect();
        let mut states = vec![run()];
        for helper in helpers {
            states.push(helper.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic)));
        }
        states
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_in_scenario_order() {
        let scenarios: Vec<u64> = (0..37).collect();
        let out = sweep(&7u64, &scenarios, 4, |s, p, i| {
            assert_eq!(*p, i as u64);
            s + p * 2
        });
        assert_eq!(out, (0..37).map(|p| 7 + p * 2).collect::<Vec<_>>());
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let scenarios: Vec<u64> = (0..23).collect();
        let run = |s: &u64, p: &u64, _i: usize| s.wrapping_mul(0x9E37).wrapping_add(*p);
        let one = sweep(&3u64, &scenarios, 1, run);
        let many = sweep(&3u64, &scenarios, 8, run);
        let auto = sweep(&3u64, &scenarios, 0, run);
        assert_eq!(one, many);
        assert_eq!(one, auto);
    }

    #[test]
    fn empty_grid_is_empty() {
        let out: Vec<u32> = sweep(&(), &[] as &[u8], 0, |_, _, _| 1u32);
        assert!(out.is_empty());
    }
}
