//! Pointer-linked recursive structures: sequences, trees, DAGs.

use std::error::Error;
use std::fmt;

use crate::node::NodeId;

/// The connectivity class of a recursive structure.
///
/// The user declares the kind up front (§3 of the paper: "the user also
/// needs to provide basic information about the input data structure such
/// as the maximum number of children per node, and the kind"); the builder
/// verifies the declared kind at construction time, mirroring the paper's
/// "can be easily verified at runtime".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StructureKind {
    /// A chain: every node has at most one child and at most one parent.
    Sequence,
    /// A tree or forest: every node has at most one parent.
    Tree,
    /// A directed acyclic graph: nodes may have multiple parents.
    Dag,
}

impl fmt::Display for StructureKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            StructureKind::Sequence => "sequence",
            StructureKind::Tree => "tree",
            StructureKind::Dag => "dag",
        };
        f.write_str(s)
    }
}

/// Errors produced while building or validating a structure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StructureError {
    /// A child id referred to a node that does not exist yet.
    UnknownChild(NodeId),
    /// A node would gain a second parent in a `Sequence`/`Tree` structure.
    MultipleParents {
        /// The child that already had a parent.
        child: NodeId,
        /// The kind that forbids this.
        kind: StructureKind,
    },
    /// A sequence node would gain a second child.
    SequenceFanOut(NodeId),
    /// The structure has no nodes.
    Empty,
    /// A node lists itself as its own child
    /// ([`RecStructure::from_parts`] only — the builder cannot express
    /// this).
    SelfLoop(NodeId),
    /// The child edges contain a cycle through this node
    /// ([`RecStructure::from_parts`] only).
    Cycle(NodeId),
    /// The per-node arrays have different lengths
    /// ([`RecStructure::from_parts`] only).
    LengthMismatch {
        /// Entries in the children table.
        children: usize,
        /// Entries in the words table.
        words: usize,
    },
    /// [`RecStructure::merge`] was given parts of different kinds.
    MixedKinds {
        /// Kind of the first part.
        first: StructureKind,
        /// The first disagreeing kind.
        other: StructureKind,
    },
}

impl fmt::Display for StructureError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StructureError::UnknownChild(id) => write!(f, "unknown child node {id}"),
            StructureError::MultipleParents { child, kind } => {
                write!(f, "node {child} would have multiple parents in a {kind}")
            }
            StructureError::SequenceFanOut(id) => {
                write!(f, "sequence node {id} would have more than one child")
            }
            StructureError::Empty => write!(f, "structure has no nodes"),
            StructureError::SelfLoop(id) => write!(f, "node {id} lists itself as a child"),
            StructureError::Cycle(id) => {
                write!(f, "child edges form a cycle through node {id}")
            }
            StructureError::LengthMismatch { children, words } => {
                write!(
                    f,
                    "children table has {children} entries but words table has {words}"
                )
            }
            StructureError::MixedKinds { first, other } => {
                write!(f, "cannot merge a {other} into a batch of {first}s")
            }
        }
    }
}

impl Error for StructureError {}

/// Incrementally builds a [`RecStructure`].
///
/// Children must be created before their parents, which makes cycles
/// impossible by construction. Kind constraints (single parent for trees,
/// single child+parent for sequences) are enforced eagerly.
///
/// # Example
///
/// ```
/// use cortex_ds::{StructureBuilder, StructureKind};
///
/// let mut b = StructureBuilder::new(StructureKind::Tree);
/// let l = b.leaf(0);
/// let r = b.leaf(1);
/// let root = b.internal(&[l, r]).unwrap();
/// let tree = b.finish().unwrap();
/// assert_eq!(tree.roots(), &[root]);
/// assert_eq!(tree.num_leaves(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct StructureBuilder {
    kind: StructureKind,
    children: Vec<Vec<NodeId>>,
    words: Vec<u32>,
    parent_count: Vec<u32>,
}

impl StructureBuilder {
    /// Creates an empty builder for the declared structure kind.
    pub fn new(kind: StructureKind) -> Self {
        StructureBuilder {
            kind,
            children: Vec::new(),
            words: Vec::new(),
            parent_count: Vec::new(),
        }
    }

    /// Adds a leaf node carrying a word (input feature) id.
    pub fn leaf(&mut self, word: u32) -> NodeId {
        let id = NodeId(self.children.len() as u32);
        self.children.push(Vec::new());
        self.words.push(word);
        self.parent_count.push(0);
        id
    }

    /// Adds an internal node with the given children and word id 0.
    ///
    /// # Errors
    ///
    /// Returns an error if a child is unknown, or if connecting the children
    /// would violate the declared [`StructureKind`].
    pub fn internal(&mut self, children: &[NodeId]) -> Result<NodeId, StructureError> {
        self.internal_with_word(children, 0)
    }

    /// Adds an internal node with the given children and word id.
    ///
    /// DAG models (e.g. DAG-RNN) attach input features to every node, not
    /// just leaves, hence the explicit word parameter.
    ///
    /// # Errors
    ///
    /// Returns an error if a child is unknown, or if connecting the children
    /// would violate the declared [`StructureKind`].
    pub fn internal_with_word(
        &mut self,
        children: &[NodeId],
        word: u32,
    ) -> Result<NodeId, StructureError> {
        for &c in children {
            if c.index() >= self.children.len() {
                return Err(StructureError::UnknownChild(c));
            }
            if self.kind != StructureKind::Dag && self.parent_count[c.index()] > 0 {
                return Err(StructureError::MultipleParents {
                    child: c,
                    kind: self.kind,
                });
            }
        }
        if self.kind == StructureKind::Sequence && children.len() > 1 {
            return Err(StructureError::SequenceFanOut(NodeId(
                self.children.len() as u32
            )));
        }
        for &c in children {
            self.parent_count[c.index()] += 1;
        }
        let id = NodeId(self.children.len() as u32);
        self.children.push(children.to_vec());
        self.words.push(word);
        self.parent_count.push(0);
        Ok(id)
    }

    /// Finalizes the structure, computing roots, heights and metadata.
    ///
    /// # Errors
    ///
    /// Returns [`StructureError::Empty`] if no nodes were added.
    pub fn finish(self) -> Result<RecStructure, StructureError> {
        if self.children.is_empty() {
            return Err(StructureError::Empty);
        }
        let n = self.children.len();
        let roots: Vec<NodeId> = (0..n)
            .filter(|&i| self.parent_count[i] == 0)
            .map(|i| NodeId(i as u32))
            .collect();
        // Children precede parents in id order, so one forward pass
        // computes heights bottom-up.
        let mut heights = vec![0u32; n];
        let mut max_children = 0usize;
        for i in 0..n {
            max_children = max_children.max(self.children[i].len());
            for &c in &self.children[i] {
                heights[i] = heights[i].max(heights[c.index()] + 1);
            }
        }
        Ok(RecStructure {
            kind: self.kind,
            children: self.children,
            words: self.words,
            heights,
            roots,
            max_children,
        })
    }
}

/// A validated, immutable recursive structure.
///
/// Nodes are stored in builder order (children before parents). The
/// structure may be a forest: the evaluation batches multiple inputs by
/// merging their structures (see [`RecStructure::merge`]), exactly how
/// dynamic batching treats a batch as one big forest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecStructure {
    kind: StructureKind,
    children: Vec<Vec<NodeId>>,
    words: Vec<u32>,
    heights: Vec<u32>,
    roots: Vec<NodeId>,
    max_children: usize,
}

impl RecStructure {
    /// Builds a structure from **untrusted** raw parts — the wire shape a
    /// serving front receives — validating everything the builder
    /// enforces by construction plus the hazards only a raw encoding can
    /// express: out-of-range child ids, self-loops, and cycles.
    ///
    /// Nodes whose children all precede them keep their ids; otherwise
    /// the nodes are renumbered into a children-before-parents order (a
    /// deterministic smallest-id-first topological order), which is the
    /// invariant every consumer of a [`RecStructure`] relies on.
    ///
    /// # Errors
    ///
    /// [`StructureError::Empty`] for zero nodes,
    /// [`StructureError::LengthMismatch`] when the tables disagree,
    /// [`StructureError::UnknownChild`] for a child id `>= n`,
    /// [`StructureError::SelfLoop`] / [`StructureError::Cycle`] for
    /// cyclic child edges, and the builder's kind errors
    /// ([`StructureError::MultipleParents`],
    /// [`StructureError::SequenceFanOut`]).
    pub fn from_parts(
        kind: StructureKind,
        children: Vec<Vec<NodeId>>,
        words: Vec<u32>,
    ) -> Result<RecStructure, StructureError> {
        let n = children.len();
        if n == 0 {
            return Err(StructureError::Empty);
        }
        if words.len() != n {
            return Err(StructureError::LengthMismatch {
                children: n,
                words: words.len(),
            });
        }
        let mut parent_count = vec![0u32; n];
        for (i, kids) in children.iter().enumerate() {
            if kind == StructureKind::Sequence && kids.len() > 1 {
                return Err(StructureError::SequenceFanOut(NodeId(i as u32)));
            }
            for &c in kids {
                if c.index() >= n {
                    return Err(StructureError::UnknownChild(c));
                }
                if c.index() == i {
                    return Err(StructureError::SelfLoop(NodeId(i as u32)));
                }
                parent_count[c.index()] += 1;
                if kind != StructureKind::Dag && parent_count[c.index()] > 1 {
                    return Err(StructureError::MultipleParents { child: c, kind });
                }
            }
        }
        // Kahn's toposort over child→parent edges, draining ready nodes
        // smallest-id-first: deterministic, and a no-op renumbering when
        // the input already orders children before parents.
        let mut pending: Vec<u32> = children.iter().map(|k| k.len() as u32).collect();
        let mut ready: std::collections::BinaryHeap<std::cmp::Reverse<usize>> = (0..n)
            .filter(|&i| pending[i] == 0)
            .map(std::cmp::Reverse)
            .collect();
        let mut parents: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (i, kids) in children.iter().enumerate() {
            for &c in kids {
                parents[c.index()].push(i);
            }
        }
        let mut old_to_new = vec![u32::MAX; n];
        let mut order = Vec::with_capacity(n);
        while let Some(std::cmp::Reverse(i)) = ready.pop() {
            old_to_new[i] = order.len() as u32;
            order.push(i);
            for &p in &parents[i] {
                pending[p] -= 1;
                if pending[p] == 0 {
                    ready.push(std::cmp::Reverse(p));
                }
            }
        }
        if order.len() != n {
            let stuck = (0..n).find(|&i| pending[i] > 0).unwrap_or(0);
            return Err(StructureError::Cycle(NodeId(stuck as u32)));
        }
        let mut b = StructureBuilder::new(kind);
        for &old in &order {
            let kids: Vec<NodeId> = children[old]
                .iter()
                .map(|c| NodeId(old_to_new[c.index()]))
                .collect();
            if kids.is_empty() {
                b.leaf(words[old]);
            } else {
                b.internal_with_word(&kids, words[old])?;
            }
        }
        b.finish()
    }

    /// The declared (and verified) structure kind.
    pub fn kind(&self) -> StructureKind {
        self.kind
    }

    /// Total number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.children.len()
    }

    /// Number of leaves (nodes without children).
    pub fn num_leaves(&self) -> usize {
        self.children.iter().filter(|c| c.is_empty()).count()
    }

    /// Number of internal nodes.
    pub fn num_internal(&self) -> usize {
        self.num_nodes() - self.num_leaves()
    }

    /// Maximum number of children over all nodes.
    pub fn max_children(&self) -> usize {
        self.max_children
    }

    /// Root nodes (no parents), in id order.
    pub fn roots(&self) -> &[NodeId] {
        &self.roots
    }

    /// The children of `node`.
    pub fn children(&self, node: NodeId) -> &[NodeId] {
        &self.children[node.index()]
    }

    /// Whether `node` is a leaf.
    pub fn is_leaf(&self, node: NodeId) -> bool {
        self.children[node.index()].is_empty()
    }

    /// The word (input feature) id of `node`.
    pub fn word(&self, node: NodeId) -> u32 {
        self.words[node.index()]
    }

    /// Height of `node`: 0 for leaves, `1 + max(child heights)` otherwise.
    pub fn height(&self, node: NodeId) -> u32 {
        self.heights[node.index()]
    }

    /// Maximum node height in the structure.
    pub fn max_height(&self) -> u32 {
        self.heights.iter().copied().max().unwrap_or(0)
    }

    /// Iterator over all node ids in builder (children-first) order.
    pub fn iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.children.len() as u32).map(NodeId)
    }

    /// Merges several structures into one forest, renumbering nodes.
    ///
    /// This is how a batch of inputs is presented to the linearizer: batch
    /// size 10 in the paper's tables means a forest of 10 trees.
    ///
    /// # Panics
    ///
    /// Panics if `parts` is empty or the kinds disagree.
    pub fn merge(parts: &[&RecStructure]) -> RecStructure {
        match Self::try_merge(parts) {
            Ok(s) => s,
            Err(e) => panic!("merge: {e}"),
        }
    }

    /// Fallible [`merge`](RecStructure::merge).
    ///
    /// # Errors
    ///
    /// [`StructureError::Empty`] if `parts` is empty,
    /// [`StructureError::MixedKinds`] if the kinds disagree.
    fn try_merge(parts: &[&RecStructure]) -> Result<RecStructure, StructureError> {
        let first = match parts.first() {
            Some(f) => f,
            None => return Err(StructureError::Empty),
        };
        let kind = first.kind;
        if let Some(odd) = parts.iter().find(|p| p.kind != kind) {
            return Err(StructureError::MixedKinds {
                first: kind,
                other: odd.kind,
            });
        }
        let mut children = Vec::new();
        let mut words = Vec::new();
        let mut heights = Vec::new();
        let mut roots = Vec::new();
        let mut max_children = 0;
        let mut base = 0u32;
        for part in parts {
            for node in part.iter() {
                children.push(
                    part.children(node)
                        .iter()
                        .map(|c| NodeId(c.0 + base))
                        .collect::<Vec<_>>(),
                );
                words.push(part.word(node));
                heights.push(part.height(node));
            }
            roots.extend(part.roots().iter().map(|r| NodeId(r.0 + base)));
            max_children = max_children.max(part.max_children);
            base += part.num_nodes() as u32;
        }
        Ok(RecStructure {
            kind,
            children,
            words,
            heights,
            roots,
            max_children,
        })
    }

    /// Post-order traversal from the roots (children before parents).
    ///
    /// For DAGs each node appears exactly once (first visit wins). This is
    /// the execution order a non-batched (purely recursive) evaluation uses.
    pub fn post_order(&self) -> Vec<NodeId> {
        let mut visited = vec![false; self.num_nodes()];
        let mut order = Vec::with_capacity(self.num_nodes());
        // Iterative DFS with an explicit stack to survive deep sequences.
        for &root in &self.roots {
            if visited[root.index()] {
                continue;
            }
            let mut stack: Vec<(NodeId, usize)> = vec![(root, 0)];
            visited[root.index()] = true;
            while let Some(&(node, next_child)) = stack.last() {
                let kids = &self.children[node.index()];
                if next_child < kids.len() {
                    if let Some(top) = stack.last_mut() {
                        top.1 += 1;
                    }
                    let c = kids[next_child];
                    if !visited[c.index()] {
                        visited[c.index()] = true;
                        stack.push((c, 0));
                    }
                } else {
                    order.push(node);
                    stack.pop();
                }
            }
        }
        order
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_tree() -> RecStructure {
        let mut b = StructureBuilder::new(StructureKind::Tree);
        let l0 = b.leaf(5);
        let l1 = b.leaf(6);
        let l2 = b.leaf(7);
        let i0 = b.internal(&[l0, l1]).unwrap();
        let _root = b.internal(&[i0, l2]).unwrap();
        b.finish().unwrap()
    }

    #[test]
    fn tree_metadata() {
        let t = small_tree();
        assert_eq!(t.num_nodes(), 5);
        assert_eq!(t.num_leaves(), 3);
        assert_eq!(t.num_internal(), 2);
        assert_eq!(t.max_children(), 2);
        assert_eq!(t.roots().len(), 1);
        assert_eq!(t.max_height(), 2);
        assert_eq!(t.word(NodeId::new(2)), 7);
    }

    #[test]
    fn heights_bottom_up() {
        let t = small_tree();
        assert_eq!(t.height(NodeId::new(0)), 0);
        assert_eq!(t.height(NodeId::new(3)), 1);
        assert_eq!(t.height(NodeId::new(4)), 2);
    }

    #[test]
    fn tree_rejects_second_parent() {
        let mut b = StructureBuilder::new(StructureKind::Tree);
        let l = b.leaf(0);
        let l2 = b.leaf(1);
        b.internal(&[l, l2]).unwrap();
        assert!(matches!(
            b.internal(&[l]),
            Err(StructureError::MultipleParents { .. })
        ));
    }

    #[test]
    fn dag_allows_shared_children() {
        let mut b = StructureBuilder::new(StructureKind::Dag);
        let l = b.leaf(0);
        let p1 = b.internal(&[l]).unwrap();
        let p2 = b.internal(&[l]).unwrap();
        let _r = b.internal(&[p1, p2]).unwrap();
        let d = b.finish().unwrap();
        assert_eq!(d.roots().len(), 1);
        assert_eq!(d.num_nodes(), 4);
    }

    #[test]
    fn sequence_rejects_fan_out() {
        let mut b = StructureBuilder::new(StructureKind::Sequence);
        let a = b.leaf(0);
        let c = b.leaf(1);
        assert!(matches!(
            b.internal(&[a, c]),
            Err(StructureError::SequenceFanOut(_))
        ));
    }

    #[test]
    fn unknown_child_rejected() {
        let mut b = StructureBuilder::new(StructureKind::Tree);
        assert!(matches!(
            b.internal(&[NodeId::new(9)]),
            Err(StructureError::UnknownChild(_))
        ));
    }

    #[test]
    fn empty_structure_rejected() {
        let b = StructureBuilder::new(StructureKind::Tree);
        assert_eq!(b.finish().unwrap_err(), StructureError::Empty);
    }

    #[test]
    fn post_order_children_first() {
        let t = small_tree();
        let order = t.post_order();
        assert_eq!(order.len(), t.num_nodes());
        let pos: std::collections::HashMap<_, _> =
            order.iter().enumerate().map(|(i, &n)| (n, i)).collect();
        for n in t.iter() {
            for &c in t.children(n) {
                assert!(pos[&c] < pos[&n], "child {c} after parent {n}");
            }
        }
    }

    #[test]
    fn post_order_visits_dag_nodes_once() {
        let mut b = StructureBuilder::new(StructureKind::Dag);
        let l = b.leaf(0);
        let p1 = b.internal(&[l]).unwrap();
        let p2 = b.internal(&[l]).unwrap();
        b.internal(&[p1, p2]).unwrap();
        let d = b.finish().unwrap();
        let order = d.post_order();
        assert_eq!(order.len(), 4);
        let unique: std::collections::HashSet<_> = order.iter().collect();
        assert_eq!(unique.len(), 4);
    }

    #[test]
    fn merge_forms_forest() {
        let a = small_tree();
        let b = small_tree();
        let f = RecStructure::merge(&[&a, &b]);
        assert_eq!(f.num_nodes(), 10);
        assert_eq!(f.roots().len(), 2);
        assert_eq!(f.num_leaves(), 6);
        // Second copy's children offsets are shifted.
        let order = f.post_order();
        assert_eq!(order.len(), 10);
    }

    #[test]
    fn from_parts_accepts_topological_input_unchanged() {
        let t = small_tree();
        let children: Vec<Vec<NodeId>> = t.iter().map(|n| t.children(n).to_vec()).collect();
        let words: Vec<u32> = t.iter().map(|n| t.word(n)).collect();
        let rebuilt = RecStructure::from_parts(StructureKind::Tree, children, words).unwrap();
        assert_eq!(rebuilt, t);
    }

    #[test]
    fn from_parts_renumbers_parent_first_input() {
        // Root listed first: node 0 = root(1, 2), nodes 1 and 2 leaves.
        let children = vec![vec![NodeId::new(1), NodeId::new(2)], vec![], vec![]];
        let words = vec![9, 5, 6];
        let t = RecStructure::from_parts(StructureKind::Tree, children, words).unwrap();
        assert_eq!(t.num_nodes(), 3);
        assert_eq!(t.roots().len(), 1);
        assert_eq!(t.max_height(), 1);
        // Root must now come after its children and keep its word.
        let root = t.roots()[0];
        assert_eq!(t.word(root), 9);
        for &c in t.children(root) {
            assert!(c.index() < root.index());
        }
    }

    #[test]
    fn from_parts_rejects_self_loop() {
        let children = vec![vec![NodeId::new(0)]];
        let err = RecStructure::from_parts(StructureKind::Dag, children, vec![0]).unwrap_err();
        assert_eq!(err, StructureError::SelfLoop(NodeId::new(0)));
    }

    #[test]
    fn from_parts_rejects_cycle() {
        // 0 -> 1 -> 2 -> 0
        let children = vec![
            vec![NodeId::new(1)],
            vec![NodeId::new(2)],
            vec![NodeId::new(0)],
        ];
        let err =
            RecStructure::from_parts(StructureKind::Dag, children, vec![0, 0, 0]).unwrap_err();
        assert!(matches!(err, StructureError::Cycle(_)));
    }

    #[test]
    fn from_parts_rejects_out_of_range_child() {
        let children = vec![vec![NodeId::new(7)]];
        let err = RecStructure::from_parts(StructureKind::Tree, children, vec![0]).unwrap_err();
        assert_eq!(err, StructureError::UnknownChild(NodeId::new(7)));
    }

    #[test]
    fn from_parts_rejects_length_mismatch() {
        let children = vec![vec![], vec![]];
        let err = RecStructure::from_parts(StructureKind::Tree, children, vec![0]).unwrap_err();
        assert_eq!(
            err,
            StructureError::LengthMismatch {
                children: 2,
                words: 1
            }
        );
    }

    #[test]
    fn from_parts_rejects_empty() {
        let err = RecStructure::from_parts(StructureKind::Tree, vec![], vec![]).unwrap_err();
        assert_eq!(err, StructureError::Empty);
    }

    #[test]
    fn from_parts_enforces_kind_constraints() {
        // Shared child in a Tree.
        let children = vec![vec![], vec![NodeId::new(0)], vec![NodeId::new(0)]];
        let err = RecStructure::from_parts(StructureKind::Tree, children.clone(), vec![0, 0, 0])
            .unwrap_err();
        assert!(matches!(err, StructureError::MultipleParents { .. }));
        // Same shape is a valid DAG.
        RecStructure::from_parts(StructureKind::Dag, children, vec![0, 0, 0]).unwrap();
        // Fan-out in a Sequence.
        let children = vec![vec![], vec![], vec![NodeId::new(0), NodeId::new(1)]];
        let err =
            RecStructure::from_parts(StructureKind::Sequence, children, vec![0, 0, 0]).unwrap_err();
        assert!(matches!(err, StructureError::SequenceFanOut(_)));
    }

    #[test]
    fn try_merge_rejects_empty_and_mixed_kinds() {
        assert_eq!(
            RecStructure::try_merge(&[]).unwrap_err(),
            StructureError::Empty
        );
        let t = small_tree();
        let mut b = StructureBuilder::new(StructureKind::Sequence);
        let a = b.leaf(0);
        b.internal(&[a]).unwrap();
        let s = b.finish().unwrap();
        assert_eq!(
            RecStructure::try_merge(&[&t, &s]).unwrap_err(),
            StructureError::MixedKinds {
                first: StructureKind::Tree,
                other: StructureKind::Sequence
            }
        );
        // Agreement still merges.
        let f = RecStructure::try_merge(&[&t, &t]).unwrap();
        assert_eq!(f.num_nodes(), 10);
    }

    #[test]
    fn deep_sequence_post_order_does_not_overflow() {
        let mut b = StructureBuilder::new(StructureKind::Sequence);
        let mut prev = b.leaf(0);
        for i in 0..100_000 {
            prev = b.internal_with_word(&[prev], i % 100).unwrap();
        }
        let s = b.finish().unwrap();
        let order = s.post_order();
        assert_eq!(order.len(), 100_001);
        assert_eq!(order[0], NodeId::new(0));
    }
}
