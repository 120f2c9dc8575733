//! The data-structure linearizer (§4.2 and Appendix B of the paper).
//!
//! At runtime, Cortex lowers pointer-linked recursive structures to flat
//! arrays that the generated loop-based code iterates over. Because all
//! control flow depends only on connectivity (property P.1), linearization
//! involves **no tensor computation** and runs on the host CPU.
//!
//! The linearizer implements:
//!
//! * **dynamic batching** — grouping nodes into height wavefronts that can
//!   be processed in parallel (property P.3),
//! * **specialization partitions** — separating leaves from internal nodes
//!   so the generated code can have distinct loop nests per branch,
//! * the **Appendix-B numbering scheme** — nodes in a batch are numbered
//!   consecutively and higher than their parents, and all leaves are
//!   numbered after all internal nodes, so batches lower to
//!   `batch_begin`/`batch_length` arrays and a leaf check is one integer
//!   comparison instead of a memory load,
//! * **unrolled schedules** — the alternative execution orders produced by
//!   the `unroll` scheduling primitive (§3.1, Figs. 3 and 11).

use std::error::Error;
use std::fmt;
use std::time::{Duration, Instant};

use crate::node::NodeId;
use crate::structure::{RecStructure, StructureKind};

/// Sentinel stored in child slot arrays for absent children.
pub const NO_CHILD: u32 = u32::MAX;

/// A contiguous run of node ids forming one dynamic batch.
///
/// Thanks to the Appendix-B numbering, a batch is fully described by its
/// first node id and length — these are exactly the `batch_begin` and
/// `batch_length` arrays of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Batch {
    begin: u32,
    len: u32,
}

impl Batch {
    /// First node id in the batch.
    pub fn begin(&self) -> u32 {
        self.begin
    }

    /// Number of nodes in the batch.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterator over the node ids in the batch.
    pub fn iter(&self) -> std::ops::Range<u32> {
        self.begin..self.begin + self.len
    }

    /// Whether `node` belongs to this batch (the Appendix-B membership
    /// test: `begin <= n < begin + len`).
    pub fn contains(&self, node: u32) -> bool {
        (self.begin..self.begin + self.len).contains(&node)
    }
}

/// Errors from linearization-adjacent scheduling requests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LinearizeError {
    /// Unrolling (and recursive refactoring) are only supported for trees
    /// and sequences: on DAGs they would duplicate work (§3.1).
    UnrollOnDag,
    /// Unroll depth must be at least 2 to change anything.
    UnrollDepthTooSmall(usize),
}

impl fmt::Display for LinearizeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinearizeError::UnrollOnDag => {
                write!(
                    f,
                    "unrolling is only supported for trees and sequences, not DAGs"
                )
            }
            LinearizeError::UnrollDepthTooSmall(d) => {
                write!(f, "unroll depth must be >= 2, got {d}")
            }
        }
    }
}

impl Error for LinearizeError {}

/// Configures and runs linearization.
///
/// The default configuration performs dynamic batching; schedules that
/// process nodes one at a time are modeled on the executor side (see
/// `RaSchedule::dynamic_batch`).
#[derive(Debug, Clone, Default)]
pub struct Linearizer {
    _private: (),
}

impl Linearizer {
    /// Creates a linearizer with the default configuration.
    pub fn new() -> Self {
        Linearizer::default()
    }

    /// Linearizes a structure: renumbers nodes per Appendix B, builds the
    /// child-slot arrays and the batch tables.
    ///
    /// # Errors
    ///
    /// Infallible today (returns `Result` for future-proofing against
    /// structures the generated code cannot consume); the error type is
    /// [`LinearizeError`].
    pub fn linearize(&self, s: &RecStructure) -> Result<Linearized, LinearizeError> {
        let n = s.num_nodes();
        let num_internal = s.num_internal();
        let max_h = s.max_height();

        // --- Appendix-B numbering -------------------------------------
        // Internal nodes first, by *decreasing* height (so parents get
        // lower ids than their children), then all leaves. Nodes of equal
        // height stay in original order, keeping batches deterministic.
        // One O(N) bucketing pass, matching the paper's linearizer
        // pseudocode (`internal_batches[node.height].append(node)`).
        let mut height_counts = vec![0u32; max_h as usize + 1];
        for node in s.iter() {
            if !s.is_leaf(node) {
                height_counts[s.height(node) as usize] += 1;
            }
        }
        // Id offsets per height bucket, highest height first.
        let mut offsets = vec![0u32; max_h as usize + 1];
        let mut next = 0u32;
        let mut internal_batches: Vec<Batch> = vec![Batch { begin: 0, len: 0 }; max_h as usize];
        for h in (1..=max_h).rev() {
            offsets[h as usize] = next;
            internal_batches[h as usize - 1] = Batch {
                begin: next,
                len: height_counts[h as usize],
            };
            next += height_counts[h as usize];
        }
        let mut old_to_new = vec![0u32; n];
        let leaf_begin = next;
        debug_assert_eq!(leaf_begin as usize, num_internal);
        for node in s.iter() {
            let slot = if s.is_leaf(node) {
                let v = next;
                next += 1;
                v
            } else {
                let h = s.height(node) as usize;
                let v = offsets[h];
                offsets[h] += 1;
                v
            };
            old_to_new[node.index()] = slot;
        }
        let leaf_batch = Batch {
            begin: leaf_begin,
            len: next - leaf_begin,
        };

        // --- Child-slot arrays (the `left`/`right` arrays of Fig. 2) ---
        let slots = s.max_children();
        let mut child = vec![vec![NO_CHILD; n]; slots];
        let mut num_children = vec![0u32; n];
        let mut words = vec![0u32; n];
        for node in s.iter() {
            let id = old_to_new[node.index()] as usize;
            words[id] = s.word(node);
            let kids = s.children(node);
            num_children[id] = kids.len() as u32;
            for (slot, &kid) in kids.iter().enumerate() {
                child[slot][id] = old_to_new[kid.index()];
            }
        }

        let roots: Vec<u32> = s.roots().iter().map(|r| old_to_new[r.index()]).collect();
        let post_order: Vec<u32> = s
            .post_order()
            .iter()
            .map(|o| old_to_new[o.index()])
            .collect();

        Ok(Linearized {
            kind: s.kind(),
            num_nodes: n,
            num_internal,
            max_children: slots,
            old_to_new,
            child,
            no_child_row: vec![NO_CHILD; n],
            num_children,
            words,
            leaf_batch,
            internal_batches,
            roots,
            post_order,
        })
    }

    /// Linearizes and reports the wall-clock time spent doing so (the
    /// fastest of five runs, see [`time_fastest`]), for the
    /// §7.5 linearization-overhead experiment.
    ///
    /// # Errors
    ///
    /// Propagates errors from [`linearize`](Self::linearize).
    pub fn linearize_timed(
        &self,
        s: &RecStructure,
    ) -> Result<(Linearized, Duration), LinearizeError> {
        let (lin, dur) = time_fastest(|| self.linearize(s));
        Ok((lin?, dur))
    }
}

/// How many times [`time_fastest`] runs a host phase.
pub(crate) const TIMING_RUNS: usize = 5;

/// Runs `f` five times and returns the last result with the
/// fastest run's wall-clock time.
///
/// This is the stopwatch of every measured host overhead that enters a
/// modelled latency: Cortex's linearization here, and the baselines'
/// graph construction and runtime batching. A phase is priced at its
/// fastest run, so a preemption that lands in one run does not reach the
/// latency it is added to.
pub fn time_fastest<R>(mut f: impl FnMut() -> R) -> (R, Duration) {
    let start = Instant::now();
    let mut out = f();
    let mut best = start.elapsed();
    for _ in 1..TIMING_RUNS {
        let start = Instant::now();
        let r = f();
        best = best.min(start.elapsed());
        out = r;
    }
    (out, best)
}

/// The output of linearization: the flat arrays the generated loop-based
/// code iterates over (item 6 in Fig. 2 of the paper).
#[derive(Debug, Clone)]
pub struct Linearized {
    kind: StructureKind,
    num_nodes: usize,
    num_internal: usize,
    max_children: usize,
    old_to_new: Vec<u32>,
    /// `child[slot][id]` = the id of `id`'s `slot`-th child or [`NO_CHILD`].
    child: Vec<Vec<u32>>,
    /// All-[`NO_CHILD`] row returned for slots beyond [`max_children`]
    /// (a plan lowered for wider structures resolves them to "no child"
    /// instead of indexing out of bounds).
    no_child_row: Vec<u32>,
    num_children: Vec<u32>,
    words: Vec<u32>,
    leaf_batch: Batch,
    /// Execution order: height-1 wavefront first, roots last.
    internal_batches: Vec<Batch>,
    roots: Vec<u32>,
    post_order: Vec<u32>,
}

impl Linearized {
    /// The structure kind this linearization came from.
    pub fn kind(&self) -> StructureKind {
        self.kind
    }

    /// Total node count (N in Listing 1).
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Number of internal nodes; also the id of the first leaf.
    pub fn num_internal(&self) -> usize {
        self.num_internal
    }

    /// Maximum children per node (declared data-structure info, §3).
    pub fn max_children(&self) -> usize {
        self.max_children
    }

    /// The batch containing every leaf.
    pub fn leaf_batch(&self) -> Batch {
        self.leaf_batch
    }

    /// Internal-node batches in execution order (lowest wavefront first).
    pub fn internal_batches(&self) -> &[Batch] {
        &self.internal_batches
    }

    /// All batches in execution order: leaves first, then each internal
    /// wavefront. This is what the generated ILIR iterates over when
    /// dynamic batching is enabled.
    pub fn batches(&self) -> Vec<Batch> {
        let mut v = Vec::with_capacity(1 + self.internal_batches.len());
        v.push(self.leaf_batch);
        v.extend_from_slice(&self.internal_batches);
        v
    }

    /// The `batch_begin` array of Appendix B (execution order).
    pub fn batch_begin(&self) -> Vec<u32> {
        self.batches().iter().map(|b| b.begin()).collect()
    }

    /// The `batch_length` array of Appendix B (execution order).
    pub fn batch_length(&self) -> Vec<u32> {
        self.batches().iter().map(|b| b.len() as u32).collect()
    }

    /// Node ids in dependence-respecting one-at-a-time order (children
    /// before parents) — the execution order without dynamic batching.
    pub fn post_order(&self) -> &[u32] {
        &self.post_order
    }

    /// Root node ids (new numbering).
    pub fn roots(&self) -> &[u32] {
        &self.roots
    }

    /// The `slot`-th child of `node`, if any.
    ///
    /// Total over `slot`: slots beyond [`max_children`](Self::max_children)
    /// resolve to `None`, exactly as an in-range slot the node does not
    /// fill — so a plan lowered for a wider structure degrades to "no
    /// child" instead of panicking.
    pub fn child(&self, slot: usize, node: u32) -> Option<u32> {
        match self.child_array(slot)[node as usize] {
            NO_CHILD => None,
            c => Some(c),
        }
    }

    /// Raw child-slot array (the `left`/`right` arrays in Fig. 2);
    /// entries are [`NO_CHILD`] where absent. Total over `slot`: slots
    /// beyond [`max_children`](Self::max_children) return an
    /// all-[`NO_CHILD`] row of the same length.
    pub fn child_array(&self, slot: usize) -> &[u32] {
        self.child.get(slot).unwrap_or(&self.no_child_row)
    }

    /// Number of children of `node`.
    pub fn num_children_of(&self, node: u32) -> usize {
        self.num_children[node as usize] as usize
    }

    /// Children of `node` as an iterator over present slots.
    pub fn children_of(&self, node: u32) -> impl Iterator<Item = u32> + '_ {
        let n = self.num_children[node as usize] as usize;
        (0..n).map(move |s| self.child[s][node as usize])
    }

    /// Word (input feature) id of `node`.
    pub fn word(&self, node: u32) -> u32 {
        self.words[node as usize]
    }

    /// Leaf check via the Appendix-B numbering: one integer comparison.
    pub fn is_leaf(&self, node: u32) -> bool {
        node as usize >= self.num_internal
    }

    /// Translates a structure node id to the linearized numbering.
    pub fn from_structure_id(&self, node: NodeId) -> u32 {
        self.old_to_new[node.index()]
    }

    /// Builds the unrolled schedule for the `unroll` scheduling primitive.
    ///
    /// Internal nodes are greedily grouped with their descendants within
    /// `depth` levels, starting from the roots (Fig. 3). Each *super wave*
    /// holds groups with no dependencies among them; its `stages` execute
    /// in order with a synchronization barrier between consecutive stages.
    ///
    /// # Errors
    ///
    /// Returns [`LinearizeError::UnrollOnDag`] for DAGs (nodes with
    /// multiple parents would be recomputed) and
    /// [`LinearizeError::UnrollDepthTooSmall`] for `depth < 2`.
    pub fn unrolled(&self, depth: usize) -> Result<UnrolledSchedule, LinearizeError> {
        if self.kind == StructureKind::Dag {
            return Err(LinearizeError::UnrollOnDag);
        }
        if depth < 2 {
            return Err(LinearizeError::UnrollDepthTooSmall(depth));
        }
        let n = self.num_nodes;
        let mut group_of = vec![usize::MAX; n];
        let mut groups: Vec<Vec<(u32, usize)>> = Vec::new(); // (node, dist from group root)

        // Internal ids are 0..num_internal with parents before children,
        // so a forward scan visits parents first — exactly the greedy
        // root-down grouping.
        for id in 0..self.num_internal as u32 {
            if group_of[id as usize] != usize::MAX {
                continue;
            }
            let g = groups.len();
            let mut members = vec![(id, 0usize)];
            group_of[id as usize] = g;
            let mut frontier = vec![(id, 0usize)];
            while let Some((node, dist)) = frontier.pop() {
                if dist + 1 >= depth {
                    continue;
                }
                for c in self.children_of(node) {
                    if !self.is_leaf(c) && group_of[c as usize] == usize::MAX {
                        group_of[c as usize] = g;
                        members.push((c, dist + 1));
                        frontier.push((c, dist + 1));
                    }
                }
            }
            groups.push(members);
        }

        // Group dependency: g needs g' if a member's child lies in g'.
        // Waves via longest-path layering. Group ids increase root-down,
        // meaning dependencies point to *larger* group ids; process groups
        // in reverse id order so dependencies are final first.
        let num_groups = groups.len();
        let mut wave = vec![0usize; num_groups];
        for g in (0..num_groups).rev() {
            let mut w = 0usize;
            for &(node, _) in &groups[g] {
                for c in self.children_of(node) {
                    if !self.is_leaf(c) {
                        let dg = group_of[c as usize];
                        if dg != g {
                            w = w.max(wave[dg] + 1);
                        }
                    }
                }
            }
            wave[g] = w;
        }
        let max_wave = wave.iter().copied().max().map_or(0, |w| w + 1);
        let mut super_waves: Vec<SuperWave> = (0..max_wave)
            .map(|_| SuperWave { stages: Vec::new() })
            .collect();
        // First pass: size each wave's stage list to its deepest group, so
        // groups can be right-aligned (group roots in the final stage).
        for g in 0..num_groups {
            let depth_g = groups[g].iter().map(|&(_, d)| d).max().unwrap_or(0);
            let sw = &mut super_waves[wave[g]];
            if sw.stages.len() < depth_g + 1 {
                sw.stages.resize(depth_g + 1, Vec::new());
            }
        }
        // Second pass: place members; children (larger dist) land in
        // earlier stages than their in-group parents.
        for g in 0..num_groups {
            let sw = &mut super_waves[wave[g]];
            let align = sw.stages.len();
            for &(node, dist) in &groups[g] {
                sw.stages[align - 1 - dist].push(node);
            }
        }
        for sw in &mut super_waves {
            for stage in &mut sw.stages {
                stage.sort_unstable();
            }
        }
        let group_stage_total = groups
            .iter()
            .map(|g| g.iter().map(|&(_, d)| d).max().unwrap_or(0) + 1)
            .sum();
        Ok(UnrolledSchedule {
            super_waves,
            intra_group_edges: self.count_intra_group_edges(&group_of),
            group_stage_total,
        })
    }

    fn count_intra_group_edges(&self, group_of: &[usize]) -> usize {
        let mut count = 0;
        for id in 0..self.num_internal as u32 {
            for c in self.children_of(id) {
                if !self.is_leaf(c) && group_of[c as usize] == group_of[id as usize] {
                    count += 1;
                }
            }
        }
        count
    }
}

/// Execution schedule produced by recursion unrolling (Fig. 3).
///
/// Leaves are always computed first (they belong to the hoisted leaf batch);
/// then super waves execute in order, with a global barrier between the
/// `stages` inside each wave and between waves.
#[derive(Debug, Clone)]
pub struct UnrolledSchedule {
    /// Super waves in execution order.
    pub super_waves: Vec<SuperWave>,
    /// Number of parent→child edges kept inside a group — each is a reuse
    /// opportunity through fast on-chip memory (the yellow boxes in Fig. 3).
    pub intra_group_edges: usize,
    /// Sum over groups of their stage counts: the barrier count when each
    /// unrolled call synchronizes independently.
    pub group_stage_total: usize,
}

impl UnrolledSchedule {
    /// Barrier count when barriers cannot be amortized across the groups
    /// of a super wave (Fig. 11: each unrolled call region synchronizes
    /// its own stages). This is what a global-barrier schedule pays after
    /// unrolling; a per-node thread-block schedule pays
    /// [`num_super_waves`](Self::num_super_waves) instead.
    pub fn unamortized_barriers(&self) -> usize {
        self.group_stage_total
    }

    /// Number of super waves (the barrier count when a per-node
    /// thread-block schedule needs no intra-wave barriers — the TreeRNN
    /// case in §7.4).
    pub fn num_super_waves(&self) -> usize {
        self.super_waves.len()
    }
}

/// One dependency level of an [`UnrolledSchedule`].
#[derive(Debug, Clone)]
pub struct SuperWave {
    /// Stages execute in order; all nodes within a stage are independent.
    pub stages: Vec<Vec<u32>>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets;
    use crate::structure::{StructureBuilder, StructureKind};

    fn fig1_tree() -> RecStructure {
        // ((It is) ((a dog) .))
        let mut b = StructureBuilder::new(StructureKind::Tree);
        let it = b.leaf(10);
        let is = b.leaf(11);
        let a = b.leaf(12);
        let dog = b.leaf(13);
        let dot = b.leaf(14);
        let l = b.internal(&[it, is]).unwrap();
        let ad = b.internal(&[a, dog]).unwrap();
        let r = b.internal(&[ad, dot]).unwrap();
        let _root = b.internal(&[l, r]).unwrap();
        b.finish().unwrap()
    }

    #[test]
    fn numbering_parents_before_children() {
        let t = fig1_tree();
        let lin = Linearizer::new().linearize(&t).unwrap();
        for id in 0..lin.num_internal() as u32 {
            for c in lin.children_of(id) {
                assert!(c > id, "child {c} not numbered higher than parent {id}");
            }
        }
    }

    #[test]
    fn leaves_numbered_last() {
        let t = fig1_tree();
        let lin = Linearizer::new().linearize(&t).unwrap();
        assert_eq!(lin.num_internal(), 4);
        for id in 0..lin.num_nodes() as u32 {
            assert_eq!(lin.is_leaf(id), lin.num_children_of(id) == 0);
            assert_eq!(lin.is_leaf(id), id >= 4);
        }
    }

    #[test]
    fn batches_are_height_wavefronts() {
        let t = fig1_tree();
        let lin = Linearizer::new().linearize(&t).unwrap();
        let batches = lin.batches();
        // leaves, height-1 (2 nodes: (It is), (a dog)), height-2 ((..).),
        // height-3 (root).
        assert_eq!(batches.len(), 4);
        assert_eq!(batches[0].len(), 5);
        assert_eq!(batches[1].len(), 2);
        assert_eq!(batches[2].len(), 1);
        assert_eq!(batches[3].len(), 1);
    }

    #[test]
    fn batch_membership_by_range() {
        let t = datasets::perfect_binary_tree(4, 0);
        let lin = Linearizer::new().linearize(&t).unwrap();
        let begin = lin.batch_begin();
        let length = lin.batch_length();
        for (i, b) in lin.batches().iter().enumerate() {
            for n in b.iter() {
                assert!(begin[i] <= n && n < begin[i] + length[i]);
                assert!(b.contains(n));
            }
        }
    }

    #[test]
    fn every_node_in_exactly_one_batch() {
        let t = datasets::random_binary_tree(23, 3);
        let lin = Linearizer::new().linearize(&t).unwrap();
        let mut seen = vec![false; lin.num_nodes()];
        for b in lin.batches() {
            for n in b.iter() {
                assert!(!seen[n as usize], "node {n} in two batches");
                seen[n as usize] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn children_in_earlier_batches() {
        let d = datasets::grid_dag(6, 7, 1);
        let lin = Linearizer::new().linearize(&d).unwrap();
        let batches = lin.batches();
        let mut batch_of = vec![0usize; lin.num_nodes()];
        for (i, b) in batches.iter().enumerate() {
            for n in b.iter() {
                batch_of[n as usize] = i;
            }
        }
        for id in 0..lin.num_nodes() as u32 {
            for c in lin.children_of(id) {
                assert!(
                    batch_of[c as usize] < batch_of[id as usize],
                    "child {c} not in earlier batch than {id}"
                );
            }
        }
    }

    #[test]
    fn child_accessors_total_over_slot() {
        let t = fig1_tree();
        let lin = Linearizer::new().linearize(&t).unwrap();
        assert_eq!(lin.max_children(), 2);
        // A slot the structure never fills behaves like an absent child,
        // not an out-of-bounds index.
        let row = lin.child_array(5);
        assert_eq!(row.len(), lin.num_nodes());
        assert!(row.iter().all(|&c| c == NO_CHILD));
        for n in 0..lin.num_nodes() as u32 {
            assert_eq!(lin.child(5, n), None);
        }
    }

    #[test]
    fn words_preserved_through_renumbering() {
        let t = fig1_tree();
        let lin = Linearizer::new().linearize(&t).unwrap();
        let mut leaf_words: Vec<u32> = lin.leaf_batch().iter().map(|n| lin.word(n)).collect();
        leaf_words.sort_unstable();
        assert_eq!(leaf_words, vec![10, 11, 12, 13, 14]);
    }

    #[test]
    fn round_trip_ids() {
        let t = datasets::random_binary_tree(12, 9);
        let lin = Linearizer::new().linearize(&t).unwrap();
        for node in t.iter() {
            let id = lin.from_structure_id(node);
            assert_eq!(lin.word(id), t.word(node));
            assert_eq!(lin.num_children_of(id), t.children(node).len());
        }
    }

    #[test]
    fn post_order_respects_dependences() {
        let d = datasets::grid_dag(5, 5, 2);
        let lin = Linearizer::new().linearize(&d).unwrap();
        let pos: std::collections::HashMap<u32, usize> = lin
            .post_order()
            .iter()
            .enumerate()
            .map(|(i, &n)| (n, i))
            .collect();
        for id in 0..lin.num_nodes() as u32 {
            for c in lin.children_of(id) {
                assert!(pos[&c] < pos[&id]);
            }
        }
    }

    #[test]
    fn sequence_batches_are_singletons() {
        let s = datasets::sequence(10, 0);
        let lin = Linearizer::new().linearize(&s).unwrap();
        assert_eq!(lin.internal_batches().len(), 9);
        assert!(lin.internal_batches().iter().all(|b| b.len() == 1));
    }

    #[test]
    fn batched_sequences_have_wide_wavefronts() {
        let f = datasets::batch_of(|s| datasets::sequence(10, s), 4, 0);
        let lin = Linearizer::new().linearize(&f).unwrap();
        assert_eq!(lin.internal_batches().len(), 9);
        assert!(lin.internal_batches().iter().all(|b| b.len() == 4));
    }

    #[test]
    fn unrolled_covers_all_internal_nodes() {
        let t = datasets::perfect_binary_tree(5, 0);
        let lin = Linearizer::new().linearize(&t).unwrap();
        let sched = lin.unrolled(2).unwrap();
        let mut nodes: Vec<u32> = (sched.super_waves.iter())
            .flat_map(|w| w.stages.iter().flatten().copied())
            .collect();
        nodes.sort_unstable();
        assert_eq!(nodes, (0..lin.num_internal() as u32).collect::<Vec<_>>());
    }

    #[test]
    fn unrolled_stage_order_respects_dependences() {
        let t = datasets::random_binary_tree(30, 4);
        let lin = Linearizer::new().linearize(&t).unwrap();
        let sched = lin.unrolled(3).unwrap();
        // Global stage index for every node.
        let mut stage_of = std::collections::HashMap::new();
        let mut idx = 0usize;
        for w in &sched.super_waves {
            for stage in &w.stages {
                for &n in stage {
                    stage_of.insert(n, idx);
                }
                idx += 1;
            }
        }
        for id in 0..lin.num_internal() as u32 {
            for c in lin.children_of(id) {
                if !lin.is_leaf(c) {
                    assert!(
                        stage_of[&c] < stage_of[&id],
                        "internal child {c} must be staged before parent {id}"
                    );
                }
            }
        }
    }

    #[test]
    fn unrolling_creates_reuse_edges_on_perfect_tree() {
        let t = datasets::perfect_binary_tree(6, 0);
        let lin = Linearizer::new().linearize(&t).unwrap();
        let sched = lin.unrolled(2).unwrap();
        assert!(sched.intra_group_edges > 0);
    }

    #[test]
    fn unrolling_increases_stages_on_imbalanced_trees() {
        // Imbalanced SST-like trees fragment wavefronts (Fig. 11).
        let f = datasets::batch_of(|s| datasets::random_binary_tree(20, s), 10, 1);
        let lin = Linearizer::new().linearize(&f).unwrap();
        let plain_barriers = lin.internal_batches().len();
        let sched = lin.unrolled(2).unwrap();
        let stages: usize = sched.super_waves.iter().map(|w| w.stages.len()).sum();
        assert!(
            stages >= plain_barriers,
            "expected unrolling to add barrier stages: {stages} vs {plain_barriers}"
        );
        // ... while reducing the number of super waves (fewer kernel
        // regions), which is what per-node-block schedules exploit.
        assert!(sched.num_super_waves() <= plain_barriers);
    }

    #[test]
    fn unroll_rejects_dags_and_depth_one() {
        let d = datasets::grid_dag(3, 3, 0);
        let lin = Linearizer::new().linearize(&d).unwrap();
        assert_eq!(lin.unrolled(2).unwrap_err(), LinearizeError::UnrollOnDag);
        let t = datasets::perfect_binary_tree(3, 0);
        let lin = Linearizer::new().linearize(&t).unwrap();
        assert_eq!(
            lin.unrolled(1).unwrap_err(),
            LinearizeError::UnrollDepthTooSmall(1)
        );
    }

    #[test]
    fn linearize_timed_reports_duration() {
        let t = datasets::perfect_binary_tree(7, 0);
        let (lin, dur) = Linearizer::new().linearize_timed(&t).unwrap();
        assert_eq!(lin.num_nodes(), 255);
        assert!(dur.as_nanos() > 0);
    }
}
