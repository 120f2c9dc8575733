//! The lane pool: one persistent fork/join pool for the whole process.
//!
//! A *lane* is an OS thread working on one launch. The caller of
//! [`split`] is lane 0; the other lanes are helper threads that the pool
//! spawns at the first fork and keeps for the life of the process:
//! `min(available_parallelism, 4) − 1` of them, the count read once (none
//! on a one-CPU box, where every `split` runs inline). A job is `chunks`
//! calls of one closure. Each lane starts on its own contiguous share of
//! the chunk indices and, when that is drained, claims what is left of
//! the other lanes' shares from their atomic cursors — so in the normal
//! case a lane works through one contiguous range (and, launch after
//! launch, the *same* range: its part of a packed weight stays in its own
//! L2), while a helper that is late or descheduled costs the chunk it
//! holds, never its whole share.
//!
//! The pool serves one job at a time. A `split` that finds it busy — a
//! nested `split`, or one from another OS thread — runs its chunks
//! inline on the calling thread, in order; so does a job of one chunk or
//! a caller pinned to one lane by [`with_lanes`]. Results never depend on
//! which of these happened: a chunk computes the same thing on any lane.
//! The backend's batched executor relies on the inline rule: it forks
//! one chunk per group of requests ([`for_each_mut`]) and every GEMM and
//! epilogue inside a group runs inline (the group also pins itself to
//! one lane, so it never even asks); a nested `split` that waited for
//! the pool would wait for itself.
//!
//! Idle helpers poll the job word with [`std::hint::spin_loop`] for a
//! bounded *count* of empty polls (no clock is read), then park; the
//! next fork unparks them. `split` is scoped: it returns — or unwinds —
//! only after the job is closed and every helper that joined it has left
//! the closure, and it re-raises a helper lane's panic on the caller.

use std::any::Any;
use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::thread::{self, JoinHandle};

/// Most lanes a job is spread over, the caller included.
pub const MAX_LANES: usize = 4;

/// Empty polls before an idle helper parks: 2¹⁵, which take 0.6–0.8 ms
/// here (a poll is one load and one `pause`, every 64th a
/// `sched_yield`). A helper so stays hot across the gaps between the
/// launches of one request (≤ 150 µs between the super-wave GEMMs of a
/// 16-request burst) and is parked — burning nothing — a millisecond
/// after the last one. A hot helper joins a fork in 0.2–0.5 µs; a parked
/// one costs the caller a futex wake, 10–15 µs in this VM, and arrives
/// after 30–60 µs, during which the caller works through the chunks
/// itself.
const SPIN_POLLS: u32 = 1 << 15;

/// A job's closure, called once per chunk index.
type Chunk<'a> = dyn Fn(usize) + Sync + 'a;

/// What the caller and the helpers share. Every field is an atomic: the
/// job is *published* by the `epoch` store that opens it and *retired*
/// by the `active` count reaching zero after the store that closes it.
struct Shared {
    /// Odd while a job is open. Opening and closing each add one.
    epoch: AtomicUsize,
    /// Helpers currently inside the open job.
    active: AtomicUsize,
    /// The open job's closure: a thin pointer to the caller's `&Chunk`.
    job: AtomicPtr<()>,
    /// Lanes (caller included) and chunks of the open job: lane `l`'s
    /// share is chunks `l·chunks/lanes .. (l + 1)·chunks/lanes`.
    lanes: AtomicUsize,
    chunks: AtomicUsize,
    /// Next unclaimed chunk of each lane's share.
    cursors: [AtomicUsize; MAX_LANES],
    /// Helper `h` is parked, or about to be.
    parked: [AtomicBool; MAX_LANES - 1],
    /// The first panic a helper lane caught in the open job.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    shutdown: AtomicBool,
}

/// A pool of helper threads. The process has one ([`split`] uses it);
/// unit tests build private ones so that nothing else competes for them.
struct Pool {
    helpers: usize,
    /// A caller owns the job slot.
    busy: AtomicBool,
    shared: Arc<Shared>,
    threads: OnceLock<Vec<JoinHandle<()>>>,
}

thread_local! {
    /// The calling thread's [`with_lanes`] pin.
    static LANES: Cell<usize> = const { Cell::new(usize::MAX) };
}

fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| {
        let cpus = thread::available_parallelism().map_or(1, std::num::NonZero::get);
        Pool::new(cpus.min(MAX_LANES) - 1)
    })
}

/// Lanes a [`split`] from this thread is spread over: the pool's helpers
/// plus the caller, or fewer under [`with_lanes`].
pub fn lanes() -> usize {
    pool().lanes()
}

/// Runs `f` with this thread's forks pinned to at most `n` lanes (`1`:
/// everything inline, no helper is touched). Scoped and per-thread, so
/// concurrent tests do not see each other's pins; it is how a test or a
/// bench runs both sides of a one-lane/all-lanes comparison.
pub fn with_lanes<R>(n: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            LANES.set(self.0);
        }
    }
    let _restore = Restore(LANES.replace(n.max(1)));
    f()
}

/// Calls `f(chunk)` for every `chunk < chunks`, spread over [`lanes`]
/// lanes (see the module docs), and returns when all calls have
/// returned. A panic in any call is re-raised here after the job has
/// been retired; the pool stays usable.
pub fn split(chunks: usize, f: &Chunk<'_>) {
    pool().split(chunks, f);
}

/// Calls `f(item)` for every item, one [`split`] chunk each: the items
/// are disjoint, so each lane may mutate the ones it runs. Each item
/// sits behind its own uncontended lock, which a chunk takes once.
pub fn for_each_mut<T: Send>(items: &mut [T], f: &(dyn Fn(&mut T) + Sync)) {
    let items: Vec<Mutex<&mut T>> = items.iter_mut().map(Mutex::new).collect();
    split(items.len(), &|i| {
        f(&mut items[i].lock().unwrap_or_else(PoisonError::into_inner));
    });
}

impl Pool {
    fn new(helpers: usize) -> Pool {
        Pool {
            helpers: helpers.min(MAX_LANES - 1),
            busy: AtomicBool::new(false),
            shared: Arc::new(Shared {
                epoch: AtomicUsize::new(0),
                active: AtomicUsize::new(0),
                job: AtomicPtr::new(std::ptr::null_mut()),
                lanes: AtomicUsize::new(0),
                chunks: AtomicUsize::new(0),
                cursors: Default::default(),
                parked: Default::default(),
                panic: Mutex::new(None),
                shutdown: AtomicBool::new(false),
            }),
            threads: OnceLock::new(),
        }
    }

    fn lanes(&self) -> usize {
        LANES.get().min(self.helpers + 1)
    }

    fn split(&self, chunks: usize, f: &Chunk<'_>) {
        let inline = || (0..chunks).for_each(f);
        let lanes = self.lanes().min(chunks);
        if lanes <= 1 {
            return inline();
        }
        // Acquire pairs with the Release that frees the slot: the
        // previous owner's job is fully retired.
        if self
            .busy
            .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            return inline();
        }
        let slot = FreeSlot(&self.busy);
        // A helper that failed to spawn is a lane the pool does not have.
        let threads = self.threads.get_or_init(|| self.spawn());
        let lanes = lanes.min(threads.len() + 1);
        if lanes <= 1 {
            return inline();
        }
        let s = &*self.shared;
        for lane in 0..lanes {
            s.cursors[lane].store(lane * chunks / lanes, Ordering::Relaxed);
        }
        s.lanes.store(lanes, Ordering::Relaxed);
        s.chunks.store(chunks, Ordering::Relaxed);
        s.job
            .store(std::ptr::from_ref(&f).cast_mut().cast(), Ordering::Relaxed);
        // The guard closes the job and waits for the helpers inside it,
        // on return and on unwind alike: that is what makes handing them
        // a pointer to this frame sound.
        let join = Join(s);
        // SeqCst, like every access of `epoch`, `active` and `parked`:
        // both handshakes below are store-then-load on each side.
        s.epoch.fetch_add(1, Ordering::SeqCst);
        for (h, t) in threads[..lanes - 1].iter().enumerate() {
            if s.parked[h].load(Ordering::SeqCst) {
                t.thread().unpark();
            }
        }
        run_lane(s, 0, lanes, f);
        drop(join);
        let panic = s
            .panic
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take();
        drop(slot);
        if let Some(payload) = panic {
            resume_unwind(payload);
        }
    }

    fn spawn(&self) -> Vec<JoinHandle<()>> {
        (0..self.helpers)
            .map_while(|h| {
                let shared = self.shared.clone();
                thread::Builder::new()
                    .name(format!("cortex-lane-{}", h + 1))
                    .spawn(move || helper(&shared, h))
                    .ok()
            })
            .collect()
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        for t in self.threads.take().unwrap_or_default() {
            t.thread().unpark();
            // A helper catches every panic of a job; it has none of its own.
            let _ = t.join();
        }
    }
}

/// Frees the pool's job slot.
struct FreeSlot<'p>(&'p AtomicBool);

impl Drop for FreeSlot<'_> {
    fn drop(&mut self) {
        self.0.store(false, Ordering::Release);
    }
}

/// Closes the open job and waits until no helper is inside it.
struct Join<'p>(&'p Shared);

impl Drop for Join<'_> {
    fn drop(&mut self) {
        let s = self.0;
        s.epoch.fetch_add(1, Ordering::SeqCst);
        let mut polls = 0;
        while s.active.load(Ordering::SeqCst) != 0 {
            polls += 1;
            relax(polls);
        }
        if thread::panicking() {
            // The caller's own panic is the one that propagates.
            s.panic
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .take();
        }
    }
}

/// One step of a polling loop: a `pause`, and every 64th time a
/// `sched_yield`. Threads are not pinned, so now and then the scheduler
/// puts a spinning helper on the caller's core (or the caller, waiting
/// at the join, on the core of the helper it waits for) while the other
/// core idles; without the yield the thread that has work loses a whole
/// time slice to the one that polls (0.7 ms here, in 1–10 % of forks),
/// with it a few microseconds.
fn relax(polls: u32) {
    if polls.is_multiple_of(64) {
        thread::yield_now();
    } else {
        std::hint::spin_loop();
    }
}

/// One lane's work: its own share, then what is left of the others'.
fn run_lane(s: &Shared, lane: usize, lanes: usize, f: &Chunk<'_>) {
    let chunks = s.chunks.load(Ordering::Relaxed);
    for share in (lane..lanes).chain(0..lane) {
        let end = (share + 1) * chunks / lanes;
        loop {
            // Relaxed: a cursor hands out indices, it publishes nothing.
            let chunk = s.cursors[share].fetch_add(1, Ordering::Relaxed);
            if chunk >= end {
                break;
            }
            f(chunk);
        }
    }
}

fn helper(s: &Shared, h: usize) {
    let lane = h + 1;
    let mut seen = 0;
    let mut idle = 0;
    while !s.shutdown.load(Ordering::Relaxed) {
        let epoch = s.epoch.load(Ordering::SeqCst);
        if epoch % 2 == 1 && epoch != seen {
            seen = epoch;
            idle = 0;
            // Join, then look again: either the caller's close comes
            // after this re-check and its wait sees `active`, or the
            // re-check sees the close and the job is left untouched.
            s.active.fetch_add(1, Ordering::SeqCst);
            let lanes = s.lanes.load(Ordering::Relaxed);
            if s.epoch.load(Ordering::SeqCst) == epoch && lane < lanes {
                // SAFETY: the job is open and this helper is counted in
                // `active`, so the caller is still inside `split` (its
                // `Join` guard waits for the count to drop): the `&Chunk`
                // in its frame, and everything the closure borrows, are
                // alive. The open store published the pointer.
                let f: &Chunk<'_> = unsafe { *s.job.load(Ordering::Relaxed).cast::<&Chunk<'_>>() };
                if let Err(payload) = catch_unwind(AssertUnwindSafe(|| run_lane(s, lane, lanes, f)))
                {
                    s.panic
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .get_or_insert(payload);
                }
            }
            s.active.fetch_sub(1, Ordering::SeqCst);
        } else if idle < SPIN_POLLS {
            idle += 1;
            relax(idle);
        } else {
            // Flag, then look again: either the fork sees the flag and
            // unparks, or this load sees the fork's epoch.
            s.parked[h].store(true, Ordering::SeqCst);
            if s.epoch.load(Ordering::SeqCst) == epoch && !s.shutdown.load(Ordering::SeqCst) {
                thread::park();
            }
            s.parked[h].store(false, Ordering::SeqCst);
            idle = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::Barrier;

    /// Σ chunk², the result every split below must produce.
    fn sum_of_squares(pool: &Pool, chunks: usize) -> u64 {
        let sum = AtomicU64::new(0);
        pool.split(chunks, &|c| {
            sum.fetch_add((c * c) as u64, Ordering::Relaxed);
        });
        sum.into_inner()
    }

    fn want(chunks: usize) -> u64 {
        (0..chunks).map(|c| (c * c) as u64).sum()
    }

    #[test]
    fn every_chunk_runs_exactly_once_on_any_lane_count() {
        for helpers in 0..MAX_LANES {
            let pool = Pool::new(helpers);
            for chunks in [0, 1, 2, 3, 7, 64, 1000] {
                assert_eq!(
                    sum_of_squares(&pool, chunks),
                    want(chunks),
                    "{helpers} helpers"
                );
            }
        }
    }

    #[test]
    fn both_lanes_of_a_two_chunk_job_work_and_a_helper_panic_reaches_the_caller() {
        let pool = Pool::new(1);
        let caller = thread::current().id();
        // Both chunks meet at a barrier, so two threads must be inside
        // the job: chunk 0 starts the caller's share, chunk 1 the
        // helper's, and neither lane can steal while it waits.
        let meet = Barrier::new(2);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.split(2, &|c| {
                meet.wait();
                assert_eq!(c == 0, thread::current().id() == caller);
                if c == 1 {
                    panic!("chunk 1 fails on the helper");
                }
            });
        }));
        let payload = result.expect_err("the helper's panic is re-raised");
        assert_eq!(
            payload.downcast_ref::<&str>(),
            Some(&"chunk 1 fails on the helper")
        );
        // The pool serves the next job, on both lanes again.
        let meet = Barrier::new(2);
        pool.split(2, &|_| {
            meet.wait();
        });
        assert_eq!(sum_of_squares(&pool, 100), want(100));
    }

    #[test]
    fn a_caller_panic_unwinds_only_after_the_helper_left_the_job() {
        let pool = Pool::new(1);
        let meet = Barrier::new(2);
        let helper_done = AtomicBool::new(false);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.split(2, &|c| {
                meet.wait();
                if c == 0 {
                    panic!("chunk 0 fails on the caller");
                }
                // Long enough that an unscoped split would have unwound.
                for _ in 0..20_000 {
                    std::hint::spin_loop();
                }
                helper_done.store(true, Ordering::SeqCst);
            });
        }));
        assert!(result.is_err());
        assert!(helper_done.load(Ordering::SeqCst), "split unwound early");
        assert_eq!(sum_of_squares(&pool, 9), want(9));
    }

    #[test]
    fn a_fork_that_finds_the_pool_busy_runs_inline_and_both_finish() {
        let pool = Pool::new(1);
        // `first` holds the pool open (both of its chunks wait at
        // `second_done`) while `second` forks: the loser must run all of
        // its chunks itself, and both must produce the right sums.
        let (first_open, second_done) = (Barrier::new(3), Barrier::new(3));
        thread::scope(|scope| {
            let first = scope.spawn(|| {
                let sum = AtomicU64::new(0);
                pool.split(2, &|c| {
                    first_open.wait();
                    second_done.wait();
                    sum.fetch_add(c as u64 + 1, Ordering::Relaxed);
                });
                sum.into_inner()
            });
            let second = scope.spawn(|| {
                first_open.wait();
                let me = thread::current().id();
                let sum = AtomicU64::new(0);
                pool.split(50, &|c| {
                    assert_eq!(thread::current().id(), me, "the loser runs inline");
                    sum.fetch_add((c * c) as u64, Ordering::Relaxed);
                });
                second_done.wait();
                sum.into_inner()
            });
            assert_eq!(second.join().expect("second"), want(50));
            assert_eq!(first.join().expect("first"), 3);
        });
    }

    #[test]
    fn one_lane_never_touches_a_helper() {
        let me = thread::current().id();
        let order = Mutex::new(Vec::new());
        with_lanes(1, || {
            assert_eq!(lanes(), 1);
            split(40, &|c| {
                assert_eq!(thread::current().id(), me);
                order.lock().expect("unpoisoned").push(c);
            });
            // Pins nest and restore.
            with_lanes(3, || assert_eq!(lanes(), 3.min(pool().helpers + 1)));
            assert_eq!(lanes(), 1);
        });
        assert_eq!(lanes(), pool().helpers + 1);
        assert_eq!(
            order.into_inner().expect("unpoisoned"),
            (0..40).collect::<Vec<_>>()
        );
        // A private pool pinned to one lane spawns nothing.
        let pool = Pool::new(2);
        with_lanes(1, || assert_eq!(sum_of_squares(&pool, 10), want(10)));
        assert!(pool.threads.get().is_none());
    }

    #[test]
    fn for_each_mut_hands_every_item_to_exactly_one_call() {
        for n in [0, 1, 2, 5, 33] {
            let mut items: Vec<(usize, usize)> = (0..n).map(|i| (i, 0)).collect();
            for_each_mut(&mut items, &|(i, seen)| *seen += *i + 1);
            assert!(items.iter().all(|&(i, seen)| seen == i + 1), "{n} items");
        }
    }

    #[test]
    fn an_idle_helper_parks_and_the_next_fork_wakes_it() {
        let pool = Pool::new(1);
        assert_eq!(sum_of_squares(&pool, 8), want(8));
        // Bounded: the helper spins SPIN_POLLS polls, then flags itself.
        while !pool.shared.parked[0].load(Ordering::SeqCst) {
            thread::yield_now();
        }
        let meet = Barrier::new(2);
        pool.split(2, &|_| {
            meet.wait();
        });
    }
}
