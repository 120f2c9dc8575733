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
//!
//! The second half of the module, [`RowWindows`], is the one way safe
//! code may let lanes write into shared buffers: rows declare the strided
//! windows they load and store, `run` verifies that no row stores into or
//! loads from a window another row stores, and only then fans the rows
//! out.

use std::any::Any;
use std::cell::Cell;
use std::ops::Range;
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

// ---------------------------------------------------------------------
// Row windows: verified row-parallel access to shared buffers
// ---------------------------------------------------------------------

/// A strided window of one buffer: elements `base + i·stride`, `i < len`
/// (stride 0 is one cell read `len` times).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Window {
    /// Index of the buffer among those handed to [`RowWindows::run`].
    pub buf: usize,
    /// Offset of element 0.
    pub base: usize,
    /// Distance between consecutive elements.
    pub stride: usize,
    /// Elements.
    pub len: usize,
}

impl Window {
    /// The last offset the window touches (`len > 0`).
    fn last(&self) -> usize {
        ((self.len - 1).checked_mul(self.stride))
            .and_then(|span| span.checked_add(self.base))
            .expect("window extent overflows")
    }
}

/// One buffer of a [`RowWindows::run`]: rows may store only into `Write`
/// buffers.
pub enum Buf<'a> {
    /// Loaded from, never stored to.
    Read(&'a [f32]),
    /// Loaded from and stored to.
    Write(&'a mut [f32]),
}

#[derive(Clone, Copy)]
struct RawBuf {
    ptr: *mut f32,
    len: usize,
    writable: bool,
}

/// The extent of one row's stores in one buffer.
#[derive(Clone, Copy)]
struct Hull {
    lo: usize,
    hi: usize,
    row: usize,
}

/// The windows a batch of *rows* loads and stores, declared row by row,
/// and the recycled scratch of [`RowWindows::run`].
#[derive(Default)]
pub struct RowWindows {
    /// `(window, stored)`, rows back to back.
    wins: Vec<(Window, bool)>,
    /// Where each declared row's windows end.
    row_ends: Vec<usize>,
    bufs: Vec<RawBuf>,
    /// Buffers rows store to — `(buffer, rows storing to it, last offset
    /// any of them stores)` — and per such buffer one [`Hull`] per row,
    /// sorted by `lo`.
    stored: Vec<(usize, usize, usize)>,
    hulls: Vec<Hull>,
}

// SAFETY: the only pointers are in `bufs`, which `run` fills from the
// borrows it is handed and dereferences only before it returns (through
// a `Table` of its own making); every `run` refills `bufs` first. So the
// pointers a `RowWindows` carries to another thread are never read
// there, and the scratch may move with the lane group that owns it.
unsafe impl Send for RowWindows {}

impl RowWindows {
    /// Forgets every declared row.
    pub fn clear(&mut self) {
        self.wins.clear();
        self.row_ends.clear();
    }

    /// Declares a window the current row loads; returns its id.
    pub fn load(&mut self, w: Window) -> usize {
        self.wins.push((w, false));
        self.wins.len() - 1
    }

    /// Declares a window the current row stores (and may load); returns
    /// its id.
    pub fn store(&mut self, w: Window) -> usize {
        self.wins.push((w, true));
        self.wins.len() - 1
    }

    /// Ends the current row: windows declared from here on are the next
    /// row's.
    pub fn end_row(&mut self) {
        self.row_ends.push(self.wins.len());
    }

    /// Rows declared so far.
    pub fn rows(&self) -> usize {
        self.row_ends.len()
    }

    /// Windows declared so far: the id of the next one.
    pub fn declared(&self) -> usize {
        self.wins.len()
    }

    /// Calls `body(row, access)` once for every declared row, where
    /// `access` reaches exactly that row's windows of `bufs`. If no row
    /// stores into, or loads from, the extent of another row's stores in
    /// the same buffer (checked here, in time linear in the windows when
    /// rows come in address order), the rows are spread over the lanes
    /// of [`split`] and this returns `true`. Otherwise — and for a
    /// caller on one lane — they run on the calling thread in
    /// declaration order, each row seeing the stores of the rows before
    /// it, and this returns `false`.
    ///
    /// # Panics
    ///
    /// Panics if a window lies outside its buffer or is stored to a
    /// [`Buf::Read`] buffer.
    pub fn run<'a>(
        &mut self,
        bufs: impl IntoIterator<Item = Buf<'a>>,
        body: &(dyn Fn(usize, &mut RowAccess<'_>) + Sync),
    ) -> bool {
        self.bufs.clear();
        self.bufs.extend(bufs.into_iter().map(|b| match b {
            Buf::Read(s) => RawBuf {
                ptr: s.as_ptr().cast_mut(),
                len: s.len(),
                writable: false,
            },
            Buf::Write(s) => RawBuf {
                ptr: s.as_mut_ptr(),
                len: s.len(),
                writable: true,
            },
        }));
        for (w, stored) in &self.wins {
            let buf = &self.bufs[w.buf];
            assert!(
                w.len == 0 || w.last() < buf.len,
                "window {w:?} outside its {}-float buffer",
                buf.len
            );
            assert!(
                !stored || buf.writable,
                "store window {w:?} on a read-only buffer"
            );
        }
        let rows = self.rows();
        let forked = rows > 1 && lanes() > 1 && self.rows_are_disjoint();
        let table = Table {
            wins: &self.wins,
            row_ends: &self.row_ends,
            bufs: &self.bufs,
        };
        let serve = |row: usize| {
            let mut access = RowAccess {
                table: &table,
                wins: row_wins(table.row_ends, row),
            };
            body(row, &mut access);
        };
        if forked {
            // A few chunks per lane: a late helper costs one of them.
            let chunks = rows.min(4 * lanes());
            split(chunks, &|c| {
                (c * rows / chunks..(c + 1) * rows / chunks).for_each(&serve);
            });
        } else {
            (0..rows).for_each(serve);
        }
        // The pointers die with the borrows they came from.
        self.bufs.clear();
        forked
    }

    /// Whether rows may run concurrently: per stored buffer, the rows'
    /// store extents are pairwise disjoint, and no load window of a row
    /// overlaps the store extent of another row. Rows are expected to
    /// store to the buffers the first row stores to (they run one
    /// program); a row that does not is reason enough for one lane.
    fn rows_are_disjoint(&mut self) -> bool {
        const NONE: usize = usize::MAX;
        let rows = self.rows();
        self.stored.clear();
        for (w, stored) in &self.wins[row_wins(&self.row_ends, 0)] {
            if *stored && w.len > 0 && !self.stored.iter().any(|s| s.0 == w.buf) {
                self.stored.push((w.buf, 0, 0));
            }
        }
        self.hulls.clear();
        self.hulls.resize(
            self.stored.len() * rows,
            Hull {
                lo: NONE,
                hi: 0,
                row: 0,
            },
        );
        let mut start = 0;
        for (row, end) in self.row_ends.iter().enumerate() {
            for (w, stored) in &self.wins[start..*end] {
                if *stored && w.len > 0 {
                    let Some(b) = self.stored.iter().position(|s| s.0 == w.buf) else {
                        return false;
                    };
                    let hull = &mut self.hulls[b * rows + row];
                    *hull = Hull {
                        lo: hull.lo.min(w.base),
                        hi: hull.hi.max(w.last()),
                        row,
                    };
                }
            }
            start = *end;
        }
        // Rows of a wave come in address order, which the sort detects
        // in one pass. Rows that store nothing to a buffer sort last.
        for (of_buf, extent) in self.hulls.chunks_exact_mut(rows).zip(&mut self.stored) {
            of_buf.sort_unstable_by_key(|h| h.lo);
            if of_buf
                .windows(2)
                .any(|p| p[1].lo != NONE && p[0].hi >= p[1].lo)
            {
                return false;
            }
            let storing = of_buf.partition_point(|h| h.lo != NONE);
            (extent.1, extent.2) = (storing, of_buf[storing - 1].hi);
        }
        let mut start = 0;
        for (row, end) in self.row_ends.iter().enumerate() {
            for (w, stored) in &self.wins[start..*end] {
                if *stored || w.len == 0 {
                    continue;
                }
                let Some(b) = self.stored.iter().position(|s| s.0 == w.buf) else {
                    continue;
                };
                let of_buf = &self.hulls[b * rows..][..self.stored[b].1];
                let (lo, hi) = (w.base, w.last());
                // Most loads of a stored buffer read rows of earlier
                // waves, outside everything this batch stores.
                if hi < of_buf[0].lo || lo > self.stored[b].2 {
                    continue;
                }
                let first = of_buf.partition_point(|h| h.hi < lo);
                if of_buf[first..]
                    .iter()
                    .take_while(|h| h.lo <= hi)
                    .any(|h| h.row != row)
                {
                    return false;
                }
            }
            start = *end;
        }
        true
    }
}

/// The windows of declared row `row`.
fn row_wins(row_ends: &[usize], row: usize) -> Range<usize> {
    let start = if row == 0 { 0 } else { row_ends[row - 1] };
    start..row_ends[row]
}

/// What the lanes of one [`RowWindows::run`] share.
struct Table<'t> {
    wins: &'t [(Window, bool)],
    row_ends: &'t [usize],
    /// Pointers into the buffers `run`'s caller lent it for the call.
    bufs: &'t [RawBuf],
}

// SAFETY: the raw buffer pointers are dereferenced only through a
// `RowAccess`, inside windows of its one row. `run` hands a row to one
// lane at a time, and rows on different lanes were verified to store to
// pairwise disjoint extents that no other row loads from — so no two
// threads ever touch the same float unless both only read it.
unsafe impl Sync for Table<'_> {}

/// One row's reach into the buffers of a [`RowWindows::run`]: loads and
/// stores by window id, bounds-checked against the window. Storing takes
/// `&mut self`: a row's windows have one writer at a time.
pub struct RowAccess<'r> {
    table: &'r Table<'r>,
    wins: Range<usize>,
}

impl RowAccess<'_> {
    fn window(&self, id: usize, at: usize, n: usize) -> (Window, bool, RawBuf) {
        assert!(self.wins.contains(&id), "window {id} is not this row's");
        let (w, stored) = self.table.wins[id];
        assert!(
            at.checked_add(n).is_some_and(|end| end <= w.len),
            "elements {at}..+{n} outside {w:?}"
        );
        (w, stored, self.table.bufs[w.buf])
    }

    /// Copies elements `at..at + out.len()` of window `id` into `out`.
    pub fn load(&self, id: usize, at: usize, out: &mut [f32]) {
        let (w, _, buf) = self.window(id, at, out.len());
        // SAFETY: `run` checked the whole window against the buffer's
        // length and `window` the elements against the window; no other
        // lane stores to them (see `Table`).
        unsafe {
            let src = buf.ptr.add(w.base + at * w.stride);
            if w.stride == 1 {
                std::ptr::copy_nonoverlapping(src, out.as_mut_ptr(), out.len());
            } else {
                for (i, o) in out.iter_mut().enumerate() {
                    *o = *src.add(i * w.stride);
                }
            }
        }
    }

    /// Copies `src` over elements `at..at + src.len()` of window `id`.
    ///
    /// # Panics
    ///
    /// Panics if the window was declared with [`RowWindows::load`].
    pub fn store(&mut self, id: usize, at: usize, src: &[f32]) {
        let (w, stored, buf) = self.window(id, at, src.len());
        assert!(stored, "store to load window {w:?}");
        // SAFETY: as in `load`; the buffer is a `Buf::Write` (checked by
        // `run`), and this row is the only one that touches the window.
        unsafe {
            let dst = buf.ptr.add(w.base + at * w.stride);
            if w.stride == 1 {
                std::ptr::copy_nonoverlapping(src.as_ptr(), dst, src.len());
            } else {
                for (i, v) in src.iter().enumerate() {
                    *dst.add(i * w.stride) = *v;
                }
            }
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

    /// `rows` rows over the 4-float slots of one buffer: row `r` loads
    /// slot `load(r)` and stores slot `r + 1`.
    fn slot_rows(rows: usize, load: impl Fn(usize) -> usize) -> RowWindows {
        let mut t = RowWindows::default();
        for r in 0..rows {
            for (slot, stored) in [(load(r), false), (r + 1, true)] {
                let w = Window {
                    buf: 0,
                    base: slot * 4,
                    stride: 1,
                    len: 4,
                };
                if stored {
                    t.store(w);
                } else {
                    t.load(w);
                }
            }
            t.end_row();
        }
        t
    }

    /// Row r: stored slot = loaded slot + 1, elementwise — through `run`.
    fn add_one(t: &mut RowWindows, data: &mut [f32]) -> bool {
        t.run([Buf::Write(data)], &|row, access| {
            let mut v = [0.0f32; 4];
            access.load(2 * row, 0, &mut v);
            v.iter_mut().for_each(|x| *x += 1.0);
            access.store(2 * row + 1, 0, &v);
        })
    }

    #[test]
    fn disjoint_rows_fork_and_overlapping_rows_fall_back_to_the_sequential_result() {
        let rows = 64;
        let init: Vec<f32> = (0..(rows + 1) * 4).map(|i| i as f32).collect();

        // Own-slot reads: disjoint, forks wherever there is a second lane.
        let mut data = init.clone();
        let forked = add_one(&mut slot_rows(rows, |r| r + 1), &mut data);
        assert_eq!(forked, lanes() > 1);
        assert!(data[4..].iter().zip(&init[4..]).all(|(d, i)| *d == i + 1.0));

        // Row r reads the slot row r − 1 stored: one lane, declaration
        // order — every slot is the first one plus its distance.
        let mut data = init.clone();
        assert!(!add_one(&mut slot_rows(rows, |r| r), &mut data));
        for (slot, got) in data.chunks_exact(4).enumerate() {
            let want: Vec<f32> = init[..4].iter().map(|v| v + slot as f32).collect();
            assert_eq!(got, want, "slot {slot}");
        }

        // Two rows store the same window: one lane, last row wins.
        let mut t = slot_rows(2, |r| r + 1);
        t.wins[3].0.base = 4;
        let mut data = init.clone();
        assert!(!add_one(&mut t, &mut data));
        assert_eq!(data[4..8], [9.0, 10.0, 11.0, 12.0]);

        // Rows in descending address order are still disjoint.
        let mut t = RowWindows::default();
        for r in (0..rows).rev() {
            t.store(Window {
                buf: 0,
                base: r * 4,
                stride: 2,
                len: 2,
            });
            t.end_row();
        }
        let mut data = init.clone();
        let forked = t.run([Buf::Write(&mut data)], &|row, access| {
            access.store(row, 0, &[-1.0, -2.0]);
        });
        assert_eq!(forked, lanes() > 1);
        assert_eq!(data[..6], [-1.0, 1.0, -2.0, 3.0, -1.0, 5.0]);
    }

    #[test]
    fn access_is_confined_to_the_rows_own_windows_and_buffers() {
        let mut data = vec![0.0f32; 16];
        let shared = [7.0f32; 4];
        let mut t = slot_rows(2, |r| r + 1);
        let foreign =
            |t: &mut RowWindows, data: &mut [f32], f: &(dyn Fn(&mut RowAccess<'_>) + Sync)| {
                catch_unwind(AssertUnwindSafe(|| {
                    with_lanes(1, || {
                        t.run([Buf::Write(data), Buf::Read(&shared)], &|row, access| {
                            if row == 0 {
                                f(access);
                            }
                        })
                    })
                }))
                .is_err()
            };
        assert!(!foreign(&mut t, &mut data, &|a| a.store(1, 1, &[1.0; 3])));
        assert!(
            foreign(&mut t, &mut data, &|a| a.store(3, 0, &[1.0])),
            "row 1's window"
        );
        assert!(
            foreign(&mut t, &mut data, &|a| a.store(0, 0, &[1.0])),
            "a load window"
        );
        assert!(
            foreign(&mut t, &mut data, &|a| a.store(1, 2, &[1.0; 3])),
            "past the end"
        );
        t.store(Window {
            buf: 1,
            base: 0,
            stride: 1,
            len: 1,
        });
        t.end_row();
        assert!(
            foreign(&mut t, &mut data, &|_| ()),
            "store window on a read buffer"
        );
        let mut t = slot_rows(5, |r| r + 1);
        assert!(
            foreign(&mut t, &mut data, &|_| ()),
            "window outside the buffer"
        );
    }
}
