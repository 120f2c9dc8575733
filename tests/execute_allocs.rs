//! What a warm solo `Engine::execute` allocates.
//!
//! A lane keeps each request's run state between calls: parameters stay
//! bound while the params generation holds, and buffers, slots, scopes,
//! wave scratch and the launch cursor are reused in place. So once one
//! run has warmed the engine up, a solo run of a same-sized input
//! allocates only what it hands back: each output's data and shape, the
//! output map, and the `Profile::waves` list.
//!
//! The counting allocator is thread-local: it counts only the calls made
//! on the test's own thread, so nothing else the harness does lands in
//! the count, nor does a helper lane's share of a forked run. Most runs
//! are pinned to one lane; the forked one is compared with the same run
//! pinned to one lane. This asserts a count, never a time.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use cortex::backend::exec::{Engine, ExecOptions, ExecStats, RunOutput};
use cortex::backend::params::Params;
use cortex::core::ilir::IlirProgram;
use cortex::ds::linearizer::{Linearized, Linearizer};
use cortex::ds::{datasets, RecStructure};
use cortex::models::{mvrnn, treelstm, treernn, LeafInit, Model};
use cortex::tensor::par;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting the calls of the current thread.
struct Counting;

fn count() {
    // `try_with`: an allocation during thread teardown is not counted.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// whose contract is the one `GlobalAlloc` states; counting touches only
// a const-initialized thread-local `Cell` and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` came from `System` with `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocator calls `f` makes on this thread.
fn allocs_of<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCS.with(Cell::get);
    let r = f();
    (r, ALLOCS.with(Cell::get) - before)
}

/// A warm engine's second solo run of `lin` on `lanes` lanes: its
/// result, allocator calls and stats.
fn warm_run(
    program: &IlirProgram,
    lin: &Linearized,
    params: &Params,
    lanes: usize,
) -> (RunOutput, u64, ExecStats) {
    par::with_lanes(lanes, || {
        let mut engine = Engine::with_options(program, ExecOptions::default());
        engine.execute(lin, params, true).expect("warm-up run");
        let (out, allocs) = allocs_of(|| engine.execute(lin, params, true).expect("counted run"));
        (out, allocs, engine.stats())
    })
}

/// The allocations a run's results account for, at most: per output its
/// data and its shape, one table for the output map, and the
/// `Profile::waves` list grown by doubling from 4 entries (one
/// allocation, then one reallocation per doubling).
fn result_allocs((outputs, profile): &RunOutput) -> u64 {
    let waves = profile.waves.len().max(1);
    let doublings = u64::from(waves.div_ceil(4).next_power_of_two().trailing_zeros());
    2 * outputs.len() as u64 + 1 + 1 + doublings
}

fn check(model: Model) {
    let program = model.lower(&Default::default()).expect("lowers");
    let tree = datasets::random_binary_tree(6, 3);
    let lin = Linearizer::new().linearize(&tree).expect("linearizes");
    let (out, allocs, _) = warm_run(&program, &lin, &model.params, 1);
    let bound = result_allocs(&out);
    assert!(
        allocs <= bound,
        "{}: a warm solo execute made {allocs} allocator calls, its results account for {bound} \
         ({} outputs, {} waves)",
        model.name,
        out.0.len(),
        out.1.waves.len()
    );
}

#[test]
fn a_warm_tree_rnn_run_allocates_only_its_results() {
    check(treernn::tree_rnn(8, LeafInit::Embedding));
}

#[test]
fn a_warm_tree_lstm_run_allocates_only_its_results() {
    check(treelstm::tree_lstm(8, LeafInit::Embedding));
}

/// MV-RNN's per-node products pack each node's `Y` into the lane's one
/// recycled panel and write into recycled group buffers: no per-node
/// allocation either.
#[test]
fn a_warm_mv_rnn_run_allocates_only_its_results() {
    check(mvrnn::mv_rnn(8));
}

/// A forked fused epilogue hands each chunk of rows borrowed pieces of
/// the stored buffers through tables the lane keeps between runs: a warm
/// run that forks makes no more allocator calls on the caller's thread
/// than the same run on one lane.
#[test]
fn a_warm_forked_tree_lstm_run_allocates_no_more_than_on_one_lane() {
    let model = treelstm::tree_lstm(256, LeafInit::Embedding);
    let program = model.lower(&Default::default()).expect("lowers");
    let trees: Vec<_> = (0..16)
        .map(|s| datasets::random_binary_tree(6, s))
        .collect();
    let forest = RecStructure::merge(&trees.iter().collect::<Vec<_>>());
    let lin = Linearizer::new().linearize(&forest).expect("linearizes");
    let (one, one_allocs, _) = warm_run(&program, &lin, &model.params, 1);
    let (all, all_allocs, stats) = warm_run(&program, &lin, &model.params, par::MAX_LANES);
    assert!(one == all, "one lane and all agree");
    assert!(
        all_allocs <= one_allocs,
        "{all_allocs} allocator calls on all lanes, {one_allocs} on one"
    );
    if par::lanes() > 1 {
        assert!(stats.forked_waves > 0, "the epilogue forks: {stats:?}");
    }
}
