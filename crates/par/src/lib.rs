//! # ba-par — embarrassingly-parallel fan-out on a persistent worker pool
//!
//! The workspace has two hot fan-out shapes: per-seed trial loops in the
//! `exp_*` experiment binaries and the independent per-committee elections
//! inside the tournament executor. Both are "map a pure-ish function over
//! an index range and collect results in order". `rayon` is the natural
//! tool, but this build environment is offline, so this crate provides the
//! minimal equivalent: a process-wide pool of worker threads (started
//! lazily on first use, reused across every fan-out afterwards) draining a
//! shared FIFO of striped jobs. No work stealing — just block-cyclic index
//! striping across the workers, which balances well when per-item cost
//! varies smoothly (trial seeds, committee sizes).
//!
//! Results are always returned **in input order**, and work assignment is
//! deterministic (striping depends only on item count and configured
//! worker count), so parallel callers stay reproducible per seed.
//!
//! Nested fan-outs (e.g. `par_trials` over tournament runs that
//! themselves call [`par_map`]) are deadlock-free: a caller waiting for
//! its stripes *helps*, draining jobs from the shared queue instead of
//! parking, so pool workers are never all blocked on queued work.

#![deny(unsafe_code)]
#![warn(missing_docs)]

mod pool;

pub use pool::{Full, Pool};

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Condvar, Mutex, OnceLock};
use std::time::Duration;

/// Number of worker lanes used by the fan-out helpers: the machine's
/// available parallelism, capped at 16 (the fan-outs here stop scaling
/// past that), overridable via the `BA_PAR_THREADS` environment variable
/// (`BA_PAR_THREADS=1` forces sequential execution, useful for tracing).
///
/// The persistent pool is sized from this value on first use; raising the
/// variable afterwards does not grow an already-started pool.
pub fn num_threads() -> usize {
    if let Ok(v) = std::env::var("BA_PAR_THREADS") {
        if let Ok(n) = v.parse::<usize>() {
            return n.max(1);
        }
    }
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(4)
        .min(16)
}

/// A type-erased stripe of work. Jobs are `'static` from the pool's point
/// of view; `par_map_index` guarantees the borrows inside outlive the job
/// by blocking until every stripe has run (see `pool` module docs).
type Job = Box<dyn FnOnce() + Send + 'static>;

struct PoolShared {
    queue: Mutex<VecDeque<Job>>,
    /// Signals workers that the queue became non-empty.
    nonempty: Condvar,
}

impl PoolShared {
    fn submit(&self, job: Job) {
        self.queue
            .lock()
            .expect("pool queue poisoned")
            .push_back(job);
        self.nonempty.notify_one();
    }

    fn try_pop(&self) -> Option<Job> {
        self.queue.lock().expect("pool queue poisoned").pop_front()
    }
}

impl PoolShared {
    /// Starts `workers` threads draining a fresh queue. The pool is
    /// leaked: its threads live for the rest of the process (they park on
    /// the queue condvar when idle).
    fn start(workers: usize) -> &'static PoolShared {
        let shared: &'static PoolShared = Box::leak(Box::new(PoolShared {
            queue: Mutex::new(VecDeque::new()),
            nonempty: Condvar::new(),
        }));
        for w in 0..workers {
            std::thread::Builder::new()
                .name(format!("ba-par-{w}"))
                .spawn(move || loop {
                    let job = {
                        let mut q = shared.queue.lock().expect("pool queue poisoned");
                        loop {
                            if let Some(job) = q.pop_front() {
                                break job;
                            }
                            q = shared.nonempty.wait(q).expect("pool queue poisoned");
                        }
                    };
                    job();
                })
                .expect("failed to spawn ba-par worker");
        }
        shared
    }
}

/// The process-wide pool, started on first parallel call.
fn pool() -> &'static PoolShared {
    static POOL: OnceLock<&'static PoolShared> = OnceLock::new();
    // One worker per lane beyond the caller itself (callers always run
    // their first stripe inline and help while waiting).
    POOL.get_or_init(|| PoolShared::start(num_threads().saturating_sub(1).max(1)))
}

/// Tracks completion of one fan-out call's stripes, including the first
/// panic payload so the caller can re-throw it after all stripes finish.
struct FanOut {
    state: Mutex<FanOutState>,
    done: Condvar,
}

struct FanOutState {
    finished: usize,
    panic: Option<Box<dyn std::any::Any + Send>>,
}

impl FanOut {
    fn new() -> Self {
        FanOut {
            state: Mutex::new(FanOutState {
                finished: 0,
                panic: None,
            }),
            done: Condvar::new(),
        }
    }

    /// Runs one stripe body, recording completion and capturing a panic.
    fn run_stripe(&self, body: impl FnOnce()) {
        let result = catch_unwind(AssertUnwindSafe(body));
        let mut st = self.state.lock().expect("fan-out state poisoned");
        st.finished += 1;
        if let Err(payload) = result {
            if st.panic.is_none() {
                st.panic = Some(payload);
            }
        }
        self.done.notify_all();
    }

    /// Blocks until `total` stripes completed, helping with `pool`'s
    /// queued jobs while waiting. Re-throws the first stripe panic, if any.
    fn wait(&self, total: usize, pool: &PoolShared) {
        loop {
            {
                let st = self.state.lock().expect("fan-out state poisoned");
                if st.finished >= total {
                    break;
                }
            }
            // Help: drain whatever is queued (our own stripes, or a nested
            // fan-out's) instead of parking a lane.
            if let Some(job) = pool.try_pop() {
                job();
                continue;
            }
            // Nothing to help with: our remaining stripes are running on
            // other threads. Park briefly; the timeout re-checks the queue
            // so late-arriving nested jobs still find a lane.
            let st = self.state.lock().expect("fan-out state poisoned");
            if st.finished < total {
                let _ = self
                    .done
                    .wait_timeout(st, Duration::from_millis(2))
                    .expect("fan-out state poisoned");
            }
        }
        let mut st = self.state.lock().expect("fan-out state poisoned");
        if let Some(payload) = st.panic.take() {
            drop(st);
            resume_unwind(payload);
        }
    }
}

/// The lifetime-erasure seam: a stripe borrows the caller's closure and
/// output slots, but the pool queue stores `'static` jobs.
///
/// # Safety
///
/// Sound because every caller ([`par_map_index`]) blocks in
/// [`FanOut::wait`] until **all** of its submitted stripes have executed
/// (panics included — they are captured, counted, and re-thrown only
/// after the wait), so the borrowed data strictly outlives every use.
#[allow(unsafe_code)]
mod erase {
    use super::Job;

    pub(crate) fn erase_job<'a>(job: Box<dyn FnOnce() + Send + 'a>) -> Job {
        // SAFETY: lifetime erasure only; see module docs. Both sides are
        // identical fat pointers (`Box<dyn FnOnce + Send>`); the caller
        // guarantees the job runs before 'a ends.
        unsafe { std::mem::transmute(job) }
    }
}

/// Maps `f` over `0..count` in parallel and returns results in index
/// order. `f` runs concurrently from multiple threads; item `i`'s result
/// lands at index `i`.
///
/// Falls back to a plain sequential loop when `count` is small or only
/// one worker is available, so trivial callers pay no thread overhead.
///
/// # Panics
///
/// Propagates a panic from any invocation of `f` (the first observed),
/// after every stripe of the call has finished.
pub fn par_map_index<T, F>(count: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let lanes = num_threads().min(count.max(1));
    if lanes <= 1 || count < 2 {
        return (0..count).map(f).collect();
    }
    map_on(pool(), lanes, count, f)
}

/// [`par_map_index`] on an explicit pool, striped over `lanes ≥ 2` lanes:
/// the caller runs lane 0 inline and queues the rest on `pool`.
fn map_on<T, F>(pool: &'static PoolShared, lanes: usize, count: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let mut out: Vec<Option<T>> = (0..count).map(|_| None).collect();
    // Hand each lane a block-cyclic stripe of the output slots: lane w
    // gets items w, w+lanes, w+2·lanes, ... This keeps slow tails (e.g.
    // the largest committees) spread across lanes.
    let mut stripes: Vec<Vec<(usize, &mut Option<T>)>> = (0..lanes).map(|_| Vec::new()).collect();
    for (i, slot) in out.iter_mut().enumerate() {
        stripes[i % lanes].push((i, slot));
    }
    let fan = FanOut::new();
    let f = &f;
    let fan_ref = &fan;
    let mut local = stripes.swap_remove(0);
    for stripe in stripes {
        let job: Box<dyn FnOnce() + Send + '_> = Box::new(move || {
            fan_ref.run_stripe(|| {
                for (i, slot) in stripe {
                    *slot = Some(f(i));
                }
            });
        });
        pool.submit(erase::erase_job(job));
    }
    // Run our own stripe inline (lane 0), then help until the rest land.
    fan.run_stripe(|| {
        for (i, slot) in local.drain(..) {
            *slot = Some(f(i));
        }
    });
    fan.wait(lanes, pool);
    out.into_iter()
        .map(|o| o.expect("stripe filled every slot"))
        .collect()
}

/// Maps `f` over a slice in parallel, preserving order:
/// `par_map(items, f)[i] == f(&items[i])`.
pub fn par_map<I, T, F>(items: &[I], f: F) -> Vec<T>
where
    I: Sync,
    T: Send,
    F: Fn(&I) -> T + Sync,
{
    par_map_index(items.len(), |i| f(&items[i]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn results_in_order() {
        let out = par_map_index(100, |i| i * 3);
        assert_eq!(out, (0..100).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_single() {
        assert_eq!(par_map_index(0, |i| i), Vec::<usize>::new());
        assert_eq!(par_map_index(1, |i| i + 7), vec![7]);
    }

    #[test]
    fn slice_variant_matches_sequential() {
        let items: Vec<u64> = (0..64).map(|i| i * i).collect();
        let out = par_map(&items, |&x| x + 1);
        assert_eq!(out, items.iter().map(|&x| x + 1).collect::<Vec<_>>());
    }

    #[test]
    fn every_index_runs_exactly_once() {
        let hits = AtomicUsize::new(0);
        let out = par_map_index(257, |i| {
            hits.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(hits.load(Ordering::Relaxed), 257);
        assert_eq!(out.len(), 257);
        assert!(out.iter().enumerate().all(|(i, &v)| i == v));
    }

    #[test]
    fn pool_threads_are_reused_across_calls() {
        // A private one-worker pool: other tests share the process-wide
        // pool (and help drain its queue), but nothing else can reach this
        // one. The barrier holds the caller inside its inline stripe until
        // the other stripe starts, so that stripe can only run on the
        // pool's worker — the same thread in both calls.
        let pool = PoolShared::start(1);
        let barrier = std::sync::Barrier::new(2);
        let ran_on = || {
            map_on(pool, 2, 2, |_| {
                barrier.wait();
                std::thread::current().id()
            })
        };
        let (a, b) = (ran_on(), ran_on());
        let caller = std::thread::current().id();
        assert_eq!((a[0], b[0]), (caller, caller));
        assert_ne!(a[1], caller);
        assert_eq!(a[1], b[1], "second call ran on a new thread");
    }

    #[test]
    fn nested_fan_outs_complete() {
        // par over par: inner calls must not deadlock the shared pool.
        let out = par_map_index(8, |i| {
            let inner = par_map_index(16, move |j| i * 100 + j);
            inner.iter().sum::<usize>()
        });
        let expect: Vec<usize> = (0..8).map(|i| (0..16).map(|j| i * 100 + j).sum()).collect();
        assert_eq!(out, expect);
    }

    #[test]
    #[should_panic]
    fn worker_panic_propagates() {
        let _ = par_map_index(32, |i| {
            if i == 13 {
                panic!("boom");
            }
            i
        });
    }

    #[test]
    fn panic_in_one_call_leaves_pool_usable() {
        let result = catch_unwind(AssertUnwindSafe(|| {
            par_map_index(32, |i| {
                if i % 2 == 0 {
                    panic!("even panic");
                }
                i
            })
        }));
        assert!(result.is_err());
        // The pool still serves subsequent fan-outs.
        let out = par_map_index(40, |i| i + 1);
        assert_eq!(out.len(), 40);
        assert_eq!(out[39], 40);
    }
}
