//! The benchmark's own span recorder and counting allocator.
//!
//! Spans wrap calls into the library's public functions *from outside*;
//! nothing inside the crates under test is instrumented. They are kept
//! in memory and written out after the traced replays. End-to-end
//! metrics never come from a process with recording on.

use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

/// The system allocator, counting calls and bytes while a traced child
/// has counting switched on (one relaxed load otherwise).
pub struct CountingAlloc;

fn count(bytes: usize) {
    // Relaxed: the counters are statistics and publish no other data.
    if COUNTING.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// whose contract is the one `GlobalAlloc` states; counting touches only
// atomics and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: `ptr` came from `System` with `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

const OPEN: u64 = u64::MAX;

/// One timed call (or one whole request: a span without a parent).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    /// The driver-level request (solo request, burst, or arrival step)
    /// this span belongs to; spans of one request share it.
    pub request: u32,
    /// Index of the enclosing span in the same recording.
    pub parent: Option<u32>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Allocator calls and bytes requested while the span was open.
    pub allocs: u64,
    pub bytes: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans when on; every method is a branch and a return when
/// off, which is how untraced children run the same driver code.
pub struct Recorder {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    request: u32,
}

impl Recorder {
    pub fn off() -> Self {
        Recorder {
            on: false,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            request: 0,
        }
    }

    /// A recording recorder; also switches allocation counting on.
    pub fn on() -> Self {
        COUNTING.store(true, Ordering::Relaxed);
        Recorder {
            on: true,
            stack: Vec::with_capacity(16),
            ..Recorder::off()
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Drops what was recorded and makes room for `spans` more, so that
    /// recording a replay never allocates inside one of its own spans.
    pub fn start_replay(&mut self, spans: usize) {
        self.spans.clear();
        self.spans.reserve(spans);
    }

    /// Opens the root span of driver-level request `request`.
    pub fn open_request(&mut self, request: usize) {
        self.request = request as u32;
        self.open("request");
    }

    pub fn open(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        let index = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            request: self.request,
            parent: self.stack.last().copied(),
            start_ns: 0,
            end_ns: OPEN,
            allocs: ALLOCS.load(Ordering::Relaxed),
            bytes: BYTES.load(Ordering::Relaxed),
        });
        self.stack.push(index);
        // Read the clock last, so the span excludes its own bookkeeping.
        self.spans[index as usize].start_ns = self.epoch.elapsed().as_nanos() as u64;
    }

    /// Closes the innermost open span.
    pub fn close(&mut self) {
        self.close_renamed(None);
    }

    /// Closes the innermost open span under another name, for a call
    /// whose kind is only known from its result.
    pub fn close_as(&mut self, name: &'static str) {
        self.close_renamed(Some(name));
    }

    fn close_renamed(&mut self, name: Option<&'static str>) {
        if !self.on {
            return;
        }
        let now = self.epoch.elapsed().as_nanos() as u64;
        let index = self.stack.pop().expect("close without an open span");
        let span = &mut self.spans[index as usize];
        span.end_ns = now;
        span.name = name.unwrap_or(span.name);
        span.allocs = ALLOCS.load(Ordering::Relaxed) - span.allocs;
        span.bytes = BYTES.load(Ordering::Relaxed) - span.bytes;
    }

    /// Times `f` as a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.open(name);
        let value = f();
        self.close();
        value
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// A span's self time: its duration minus the part its child spans
/// cover (children of one parent never overlap — one thread records).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for span in spans {
        if let Some(parent) = span.parent {
            own[parent as usize] -= span.duration_ns();
        }
    }
    own
}

/// Sums `f` over the spans called `name`.
pub fn total(spans: &[Span], name: &str, f: impl Fn(&Span) -> u64) -> u64 {
    spans.iter().filter(|s| s.name == name).map(f).sum()
}

/// Checks a recording: every span closed, each child inside a parent of
/// the same request that was opened before it, one root per request.
pub fn check_well_formed(spans: &[Span]) -> Result<(), String> {
    let mut roots = std::collections::BTreeSet::new();
    for (i, s) in spans.iter().enumerate() {
        if s.end_ns == OPEN {
            return Err(format!("span {i} ({}) never closed", s.name));
        }
        if s.end_ns < s.start_ns {
            return Err(format!("span {i} ({}) ends before it starts", s.name));
        }
        match s.parent {
            None if !roots.insert(s.request) => {
                return Err(format!("request {} has two roots", s.request));
            }
            None => {}
            Some(p) => {
                let Some(parent) = spans[..i].get(p as usize) else {
                    return Err(format!("span {i} ({}) precedes its parent", s.name));
                };
                if parent.request != s.request {
                    return Err(format!("span {i} ({}) crosses requests", s.name));
                }
                if s.start_ns < parent.start_ns || s.end_ns > parent.end_ns {
                    return Err(format!("span {i} ({}) leaves its parent", s.name));
                }
            }
        }
    }
    Ok(())
}

/// Renders a recording as JSON, one span per line.
pub fn to_json(workload: &str, seed: u64, spans: &[Span]) -> String {
    let mut out = format!(
        "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"unit\": \"ns\", \
         \"columns\": [\"name\", \"request\", \"parent\", \"start\", \"end\", \"allocs\", \"bytes\"],\n\
         \"spans\": [\n"
    );
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let comma = if i + 1 == spans.len() { "" } else { "," };
        writeln!(
            out,
            "[\"{}\", {}, {parent}, {}, {}, {}, {}]{comma}",
            s.name, s.request, s.start_ns, s.end_ns, s.allocs, s.bytes
        )
        .expect("writing to a String");
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, request: u32, parent: Option<u32>, start: u64, end: u64) -> Span {
        Span {
            name,
            request,
            parent,
            start_ns: start,
            end_ns: end,
            allocs: 0,
            bytes: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_coverage() {
        let spans = vec![
            span("request", 0, None, 0, 100),
            span("ds.linearize", 0, Some(0), 5, 25),
            span("backend.execute", 0, Some(0), 30, 90),
            span("inner", 0, Some(2), 40, 50),
        ];
        assert_eq!(self_times_ns(&spans), vec![20, 20, 50, 10]);
        assert_eq!(total(&spans, "ds.linearize", Span::duration_ns), 20);
    }

    #[test]
    fn well_formedness_catches_each_defect() {
        let good = vec![
            span("request", 0, None, 0, 10),
            span("a", 0, Some(0), 1, 9),
            span("request", 1, None, 10, 20),
        ];
        assert_eq!(check_well_formed(&good), Ok(()));

        let mut open = good.clone();
        open[1].end_ns = OPEN;
        assert!(check_well_formed(&open)
            .unwrap_err()
            .contains("never closed"));

        let mut two_roots = good.clone();
        two_roots[2].request = 0;
        assert!(check_well_formed(&two_roots)
            .unwrap_err()
            .contains("two roots"));

        let mut escapes = good.clone();
        escapes[1].end_ns = 11;
        assert!(check_well_formed(&escapes)
            .unwrap_err()
            .contains("leaves its parent"));

        let mut crosses = good;
        crosses[1].request = 1;
        assert!(check_well_formed(&crosses)
            .unwrap_err()
            .contains("crosses requests"));
    }

    #[test]
    fn recorder_nests_spans_and_counts_allocations() {
        let mut rec = Recorder::on();
        rec.start_replay(8);
        rec.open_request(3);
        let v = rec.span("alloc", || vec![0u8; 4096]);
        rec.span("idle", || ());
        rec.close();
        drop(v);
        let spans = rec.spans();
        assert_eq!(check_well_formed(spans), Ok(()));
        assert_eq!(spans.len(), 3);
        assert_eq!((spans[1].parent, spans[1].request), (Some(0), 3));
        assert!(spans[1].allocs >= 1 && spans[1].bytes >= 4096);
        assert!(spans[0].allocs >= spans[1].allocs);
        let json = to_json("t", 1, spans);
        assert_eq!(json.lines().filter(|l| l.starts_with("[\"")).count(), 3);
        assert!(json.ends_with("]}\n"));
    }

    #[test]
    fn recorder_off_records_nothing() {
        let mut rec = Recorder::off();
        rec.open_request(0);
        rec.span("x", || ());
        rec.close();
        assert!(rec.spans().is_empty());
    }
}
