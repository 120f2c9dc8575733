//! Adversarial structure fuzzing for the compile pipeline.
//!
//! Mirrors [`crate::faults`]: a seeded, dependency-free generator built
//! on the in-repo deterministic RNG — same seed, same hostile inputs,
//! every run, on every platform. Where the fault injector attacks the
//! *runtime* (errors and panics at instrumented sites), the structure
//! fuzzer attacks the *intake*: it emits raw structure parts the way an
//! untrusted client would wire them — cycles, self-loops, dangling
//! child ids, mismatched tables, fan-out violations, over-wide and
//! over-deep shapes — interleaved with well-formed trees, sequences and
//! DAGs so a suite can prove both directions at once:
//!
//! * every malformed case is refused with a **typed error**
//!   ([`StructureError`] at [`RecStructure::from_parts`], or
//!   `ExecError`/`ServeError` at engine/batcher admission) — never a
//!   panic;
//! * every accepted case executes **bit-identically** on the lowered
//!   ExecPlan runtime and the `interp` oracle.
//!
//! The generator rotates deterministically through [`SHAPES`] case
//! shapes while drawing sizes, arities and words from the RNG, so a
//! run of `SHAPES` consecutive cases covers every attack class and two
//! runs with the same seed are identical.

use cortex_ds::datasets::VOCAB_SIZE;
use cortex_ds::{NodeId, RecStructure, StructureError, StructureKind};
use cortex_rng::Rng;

/// Number of distinct case shapes [`StructureFuzzer::next_case`]
/// rotates through before repeating.
pub const SHAPES: usize = 12;

/// One generated input: raw structure *parts*, exactly as an untrusted
/// client would hand them over — no validation has happened yet.
#[derive(Debug, Clone)]
pub struct FuzzCase {
    /// Stable name of the attack class, for test diagnostics.
    pub label: &'static str,
    /// Claimed structure kind.
    pub kind: StructureKind,
    /// Per-node child lists (may be cyclic, dangling, or over-wide).
    pub children: Vec<Vec<NodeId>>,
    /// Per-node words (may disagree in length with `children`).
    pub words: Vec<u32>,
    /// Whether [`RecStructure::from_parts`] must refuse this case.
    ///
    /// `false` means the parts are structurally well-formed; admission
    /// may still refuse them later (arity/size/depth/budget limits at
    /// the engine), but construction must succeed.
    pub expect_malformed: bool,
}

impl FuzzCase {
    /// Runs the case through the validating constructor.
    pub fn build(&self) -> Result<RecStructure, StructureError> {
        RecStructure::from_parts(self.kind, self.children.clone(), self.words.clone())
    }
}

/// Deterministic generator of hostile (and control) structure parts.
#[derive(Debug, Clone)]
pub struct StructureFuzzer {
    rng: Rng,
    max_leaves: usize,
    next_shape: usize,
}

impl StructureFuzzer {
    /// New fuzzer; `seed` fully determines the case stream.
    pub fn new(seed: u64) -> Self {
        StructureFuzzer {
            rng: Rng::new(seed ^ 0x5f3759df_u64),
            max_leaves: 12,
            next_shape: 0,
        }
    }

    /// Caps the leaf count of generated trees (default 12, min 2).
    pub fn with_max_leaves(mut self, max_leaves: usize) -> Self {
        self.max_leaves = max_leaves.max(2);
        self
    }

    /// Generates `n` cases, rotating through every shape in order.
    pub fn cases(&mut self, n: usize) -> Vec<FuzzCase> {
        (0..n).map(|_| self.next_case()).collect()
    }

    /// Generates the next case; shape rotates, sizes are random.
    pub fn next_case(&mut self) -> FuzzCase {
        let shape = self.next_shape;
        self.next_shape = (shape + 1) % SHAPES;
        match shape {
            0 => self.valid_tree(),
            1 => self.valid_sequence(),
            2 => self.valid_dag(),
            3 => self.cycle(),
            4 => self.self_loop(),
            5 => self.unknown_child(),
            6 => self.length_mismatch(),
            7 => self.empty(),
            8 => self.shared_child_tree(),
            9 => self.sequence_fan_out(),
            10 => self.deep_chain(),
            _ => self.wide_arity(),
        }
    }

    fn word(&mut self) -> u32 {
        self.rng.below_u32(VOCAB_SIZE)
    }

    /// Random binary tree in children-before-parents order: combine two
    /// random roots under a fresh parent until one root remains.
    fn tree_parts(&mut self, leaves: usize) -> (Vec<Vec<NodeId>>, Vec<u32>) {
        let mut children: Vec<Vec<NodeId>> = (0..leaves).map(|_| Vec::new()).collect();
        let mut words: Vec<u32> = (0..leaves).map(|_| self.word()).collect();
        let mut roots: Vec<u32> = (0..leaves as u32).collect();
        while roots.len() > 1 {
            let a = roots.swap_remove(self.rng.below_usize(roots.len()));
            let b = roots.swap_remove(self.rng.below_usize(roots.len()));
            let id = children.len() as u32;
            children.push(vec![NodeId::new(a), NodeId::new(b)]);
            words.push(self.word());
            roots.push(id);
        }
        (children, words)
    }

    fn leaves(&mut self) -> usize {
        2 + self.rng.below_usize(self.max_leaves - 1)
    }

    /// A well-formed random full-binary tree: the control case every
    /// plan admits.
    pub fn valid_tree(&mut self) -> FuzzCase {
        let leaves = self.leaves();
        let (children, words) = self.tree_parts(leaves);
        FuzzCase {
            label: "valid_tree",
            kind: StructureKind::Tree,
            children,
            words,
            expect_malformed: false,
        }
    }

    fn valid_sequence(&mut self) -> FuzzCase {
        let len = self.leaves();
        let children = (0..len)
            .map(|i| {
                if i == 0 {
                    Vec::new()
                } else {
                    vec![NodeId::new(i as u32 - 1)]
                }
            })
            .collect();
        let words = (0..len).map(|_| self.word()).collect();
        FuzzCase {
            label: "valid_sequence",
            kind: StructureKind::Sequence,
            children,
            words,
            expect_malformed: false,
        }
    }

    /// Diamond: two internals share one leaf — legal only under `Dag`.
    fn valid_dag(&mut self) -> FuzzCase {
        let children = vec![
            Vec::new(),
            Vec::new(),
            Vec::new(),
            vec![NodeId::new(0), NodeId::new(1)],
            vec![NodeId::new(1), NodeId::new(2)],
            vec![NodeId::new(3), NodeId::new(4)],
        ];
        let words = (0..children.len()).map(|_| self.word()).collect();
        FuzzCase {
            label: "valid_dag",
            kind: StructureKind::Dag,
            children,
            words,
            expect_malformed: false,
        }
    }

    /// Two internals listing each other as children.
    fn cycle(&mut self) -> FuzzCase {
        let mut case = self.valid_tree();
        case.label = "cycle";
        case.expect_malformed = true;
        let n = case.children.len() as u32;
        case.children.push(vec![NodeId::new(n + 1)]);
        case.children.push(vec![NodeId::new(n)]);
        case.words.push(self.word());
        case.words.push(self.word());
        case
    }

    fn self_loop(&mut self) -> FuzzCase {
        let mut case = self.valid_tree();
        case.label = "self_loop";
        case.expect_malformed = true;
        let victim = self.rng.below_usize(case.children.len());
        case.children[victim].push(NodeId::new(victim as u32));
        case
    }

    /// A child id pointing past the end of the node table.
    fn unknown_child(&mut self) -> FuzzCase {
        let mut case = self.valid_tree();
        case.label = "unknown_child";
        case.expect_malformed = true;
        let n = case.children.len() as u32;
        let victim = self.rng.below_usize(case.children.len());
        case.children[victim].push(NodeId::new(n + self.rng.below_u32(100)));
        case
    }

    fn length_mismatch(&mut self) -> FuzzCase {
        let mut case = self.valid_tree();
        case.label = "length_mismatch";
        case.expect_malformed = true;
        if self.rng.below_u32(2) == 0 {
            case.words.pop();
        } else {
            case.words.push(self.word());
        }
        case
    }

    fn empty(&mut self) -> FuzzCase {
        FuzzCase {
            label: "empty",
            kind: StructureKind::Tree,
            children: Vec::new(),
            words: Vec::new(),
            expect_malformed: true,
        }
    }

    /// A node with two parents, claimed to be a `Tree`.
    fn shared_child_tree(&mut self) -> FuzzCase {
        let mut case = self.valid_tree();
        case.label = "shared_child_tree";
        case.expect_malformed = true;
        let root = case.children.len() as u32 - 1;
        let shared = self.rng.below_u32(root);
        case.children
            .push(vec![NodeId::new(shared), NodeId::new(root)]);
        case.words.push(self.word());
        case
    }

    /// A sequence node with two children.
    fn sequence_fan_out(&mut self) -> FuzzCase {
        let mut case = self.valid_sequence();
        case.label = "sequence_fan_out";
        case.expect_malformed = true;
        let last = case.children.len() - 1;
        case.children[last].push(NodeId::new(0));
        case
    }

    /// A unary chain of maximal depth: structurally valid, but every
    /// node sits in its own wavefront, so depth limits see their worst
    /// case.
    pub fn deep_chain(&mut self) -> FuzzCase {
        let depth = 2 * self.max_leaves + self.rng.below_usize(self.max_leaves);
        let children = (0..depth)
            .map(|i| {
                if i == 0 {
                    Vec::new()
                } else {
                    vec![NodeId::new(i as u32 - 1)]
                }
            })
            .collect();
        let words = (0..depth).map(|_| self.word()).collect();
        FuzzCase {
            label: "deep_chain",
            kind: StructureKind::Tree,
            children,
            words,
            expect_malformed: false,
        }
    }

    /// A root with far more children than any binary plan was compiled
    /// for: structurally valid, refused at engine intake
    /// (`ExecError::InvalidInput` with `ArityExceedsPlan`).
    pub fn wide_arity(&mut self) -> FuzzCase {
        let width = 4 + self.rng.below_usize(8);
        let mut children: Vec<Vec<NodeId>> = (0..width).map(|_| Vec::new()).collect();
        children.push((0..width as u32).map(NodeId::new).collect());
        let words = (0..=width).map(|_| self.word()).collect();
        FuzzCase {
            label: "wide_arity",
            kind: StructureKind::Tree,
            children,
            words,
            expect_malformed: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_cases() {
        let a = StructureFuzzer::new(7).cases(3 * SHAPES);
        let b = StructureFuzzer::new(7).cases(3 * SHAPES);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.label, y.label);
            assert_eq!(x.children, y.children);
            assert_eq!(x.words, y.words);
        }
    }

    #[test]
    fn every_shape_judges_correctly() {
        let mut fuzz = StructureFuzzer::new(11);
        for case in fuzz.cases(4 * SHAPES) {
            match case.build() {
                Ok(_) => assert!(
                    !case.expect_malformed,
                    "{}: malformed case was accepted",
                    case.label
                ),
                Err(e) => assert!(
                    case.expect_malformed,
                    "{}: well-formed case refused: {e}",
                    case.label
                ),
            }
        }
    }

    #[test]
    fn rotation_covers_all_shapes() {
        let mut fuzz = StructureFuzzer::new(3);
        let labels: std::collections::BTreeSet<&str> =
            fuzz.cases(SHAPES).iter().map(|c| c.label).collect();
        assert_eq!(labels.len(), SHAPES, "shape labels must be distinct");
    }
}
