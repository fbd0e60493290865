//! The Fast Succinct Trie: LOUDS-Dense upper levels + LOUDS-Sparse lower
//! levels (the LOUDS-DS encoding of Zhang et al., adopted by both SuRF and
//! the Proteus trie).
//!
//! The trie stores a sorted set of distinct byte-string *branches*. A branch
//! usually is a truncated key, so query semantics are prefix-aware: a branch
//! that is a proper prefix of a query bound may represent keys on either
//! side of the bound and must be treated as overlapping. [`Fst::visit_overlapping`]
//! implements exactly that contract and is the single primitive both SuRF
//! (range + point queries) and Proteus (trie-leaf enumeration) build on.

use crate::bitvec::BitVec;
use crate::codec::{ByteReader, CodecError, WireWrite};
use crate::cost;
use crate::louds_dense::LoudsDense;
use crate::louds_sparse::LoudsSparse;
use crate::values::ValueStore;

/// Flow control for [`Fst::visit_overlapping`] visitors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Visit {
    /// Keep visiting further branches.
    Continue,
    /// Stop the traversal early.
    Stop,
}

/// A node handle spanning the two encodings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum NodeRef {
    Dense(usize),
    Sparse(usize),
}

/// The assembled trie.
#[derive(Debug, Clone)]
pub struct Fst {
    dense: LoudsDense,
    sparse: LoudsSparse,
    values: ValueStore,
    /// Number of sparse nodes that are children of dense edges (1 when the
    /// root itself lives in the sparse part).
    sparse_entry_nodes: usize,
    dense_value_count: usize,
    n_branches: usize,
    height: usize,
}

impl Fst {
    /// Build from sorted, distinct branches with automatic (size-optimal)
    /// dense/sparse cutoff. Returns the trie and the slot→input-index map
    /// for attaching values.
    pub fn from_branches<S: AsRef<[u8]>>(branches: &[S]) -> (Fst, Vec<u32>) {
        FstBuilder::new().build(branches)
    }

    /// Attach per-terminal values (must be indexed by slot).
    pub fn set_values(&mut self, values: ValueStore) {
        self.values = values;
    }

    /// The per-terminal value store.
    pub fn values(&self) -> &ValueStore {
        &self.values
    }

    /// Number of stored branches.
    pub fn len(&self) -> usize {
        self.n_branches
    }

    /// True for a trie with no branches.
    pub fn is_empty(&self) -> bool {
        self.n_branches == 0
    }

    /// Maximum branch length in bytes.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Total memory of the structure in bits (including values).
    pub fn size_bits(&self) -> u64 {
        self.dense.size_bits() + self.sparse.size_bits() + self.values.size_bits()
    }

    /// Serialize the assembled trie (encodings + values). Rank/select
    /// directories and derived counters are rebuilt on decode.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        self.dense.encode_into(out);
        self.sparse.encode_into(out);
        self.values.encode_into(out);
        out.put_u64(self.n_branches as u64);
        out.put_u64(self.height as u64);
    }

    /// Decode a trie previously written by `encode_into`.
    pub fn decode_from(r: &mut ByteReader<'_>) -> Result<Fst, CodecError> {
        let dense = LoudsDense::decode_from(r)?;
        let sparse = LoudsSparse::decode_from(r)?;
        let values = ValueStore::decode_from(r)?;
        let n_branches =
            usize::try_from(r.u64()?).map_err(|_| CodecError::Invalid("fst branch count"))?;
        let height = usize::try_from(r.u64()?).map_err(|_| CodecError::Invalid("fst height"))?;
        // Derived layout counters: every dense node except the root is the
        // child of a dense edge, so the remaining dense child edges are the
        // sparse entry points.
        let sparse_entry_nodes = if dense.is_empty() {
            usize::from(!sparse.is_empty())
        } else {
            (dense.child_count() + 1)
                .checked_sub(dense.n_nodes())
                .ok_or(CodecError::Invalid("fst dense child deficit"))?
        };
        if sparse_entry_nodes > sparse.n_nodes() {
            return Err(CodecError::Invalid("fst sparse entry overflow"));
        }
        let dense_value_count = dense.value_count();
        if n_branches != dense_value_count + sparse.value_count() {
            return Err(CodecError::Invalid("fst branch/terminal mismatch"));
        }
        Ok(Fst { dense, sparse, values, sparse_entry_nodes, dense_value_count, n_branches, height })
    }

    fn root(&self) -> Option<NodeRef> {
        if !self.dense.is_empty() {
            Some(NodeRef::Dense(0))
        } else if !self.sparse.is_empty() {
            Some(NodeRef::Sparse(0))
        } else {
            None
        }
    }

    fn dense_child(&self, node: usize, label: u8) -> NodeRef {
        let ord = self.dense.child_ordinal(node, label);
        if ord < self.dense.n_nodes() {
            NodeRef::Dense(ord)
        } else {
            NodeRef::Sparse(ord - self.dense.n_nodes())
        }
    }

    fn sparse_child(&self, pos: usize) -> NodeRef {
        NodeRef::Sparse(self.sparse_entry_nodes + self.sparse.child_ordinal(pos) - 1)
    }

    fn node_prefix_key_slot(&self, node: NodeRef) -> Option<usize> {
        match node {
            NodeRef::Dense(i) => self.dense.is_prefix_key(i).then(|| self.dense.prefix_key_slot(i)),
            NodeRef::Sparse(s) => self
                .sparse
                .is_prefix_key(s)
                .then(|| self.dense_value_count + self.sparse.prefix_key_slot(s)),
        }
    }

    /// Exact lookup of a complete branch. Returns its value slot.
    pub fn lookup(&self, branch: &[u8]) -> Option<usize> {
        let mut node = self.root()?;
        for (d, &b) in branch.iter().enumerate() {
            let last = d + 1 == branch.len();
            match node {
                NodeRef::Dense(i) => {
                    if !self.dense.has_edge(i, b) {
                        return None;
                    }
                    if self.dense.edge_has_child(i, b) {
                        node = self.dense_child(i, b);
                    } else {
                        return last.then(|| self.dense.leaf_slot(i, b));
                    }
                }
                NodeRef::Sparse(s) => {
                    let pos = self.sparse.find_label(s, b)?;
                    if self.sparse.edge_has_child(pos) {
                        node = self.sparse_child(pos);
                    } else {
                        return last
                            .then(|| self.dense_value_count + self.sparse.leaf_slot(s, pos));
                    }
                }
            }
            if node == NodeRef::Dense(usize::MAX) {
                unreachable!()
            }
        }
        // Consumed the whole branch at an inner node: prefix-key terminal.
        self.node_prefix_key_slot(node)
    }

    /// Visit, in lexicographic order, every stored branch `b` that can
    /// overlap the closed range `[lo, hi]` under prefix-extension semantics:
    ///
    /// * `b ≥ lo` as byte strings, or `b` is a proper prefix of `lo`, and
    /// * `b ≤ hi` as byte strings, or `b` is a proper prefix of `hi`.
    ///
    /// (A branch that is a proper prefix of a bound is a truncated key whose
    /// extensions may land on either side, so a sound filter must consider
    /// it.) The visitor receives the branch bytes and its value slot;
    /// returning [`Visit::Stop`] aborts the walk. Returns `true` if the
    /// visitor stopped early.
    pub fn visit_overlapping<F>(&self, lo: &[u8], hi: &[u8], f: &mut F) -> bool
    where
        F: FnMut(&[u8], usize) -> Visit,
    {
        debug_assert!(lo <= hi, "range bounds out of order");
        let Some(root) = self.root() else {
            return false;
        };
        let mut path = Vec::with_capacity(self.height);
        self.visit_node(root, 0, true, true, lo, hi, &mut path, f) == Visit::Stop
    }

    /// Visit every stored branch in lexicographic order.
    pub fn visit_all<F>(&self, f: &mut F) -> bool
    where
        F: FnMut(&[u8], usize) -> Visit,
    {
        let Some(root) = self.root() else {
            return false;
        };
        let mut path = Vec::with_capacity(self.height);
        self.visit_node(root, 0, false, false, &[], &[], &mut path, f) == Visit::Stop
    }

    #[allow(clippy::too_many_arguments)]
    fn visit_node<F>(
        &self,
        node: NodeRef,
        depth: usize,
        tight_lo: bool,
        tight_hi: bool,
        lo: &[u8],
        hi: &[u8],
        path: &mut Vec<u8>,
        f: &mut F,
    ) -> Visit
    where
        F: FnMut(&[u8], usize) -> Visit,
    {
        // A prefix-key terminal at this node is always within the visited
        // region: under a tight lower bound it is a prefix of `lo`, under a
        // tight upper bound a prefix of `hi`, otherwise strictly inside.
        if let Some(slot) = self.node_prefix_key_slot(node) {
            if f(path, slot) == Visit::Stop {
                return Visit::Stop;
            }
        }

        // Label window for this node.
        let lo_label: u8 = if tight_lo && depth < lo.len() { lo[depth] } else { 0 };
        let hi_label: u8 = if tight_hi {
            if depth < hi.len() {
                hi[depth]
            } else {
                // path == hi exactly: any extension exceeds hi.
                return Visit::Continue;
            }
        } else {
            0xFF
        };
        if lo_label > hi_label {
            return Visit::Continue;
        }

        match node {
            NodeRef::Dense(i) => {
                let mut from = lo_label as u16;
                while let Some(label) = self.dense.next_label(i, from) {
                    if label > hi_label {
                        break;
                    }
                    let ctl = tight_lo && depth < lo.len() && label == lo[depth];
                    let cth = tight_hi && depth < hi.len() && label == hi[depth];
                    path.push(label);
                    let outcome = if self.dense.edge_has_child(i, label) {
                        self.visit_node(
                            self.dense_child(i, label),
                            depth + 1,
                            ctl,
                            cth,
                            lo,
                            hi,
                            path,
                            f,
                        )
                    } else {
                        f(path, self.dense.leaf_slot(i, label))
                    };
                    path.pop();
                    if outcome == Visit::Stop {
                        return Visit::Stop;
                    }
                    from = label as u16 + 1;
                }
            }
            NodeRef::Sparse(s) => {
                let Some(start) = self.sparse.lower_bound_label(s, lo_label) else {
                    return Visit::Continue;
                };
                let (_, end) = self.sparse.edge_range(s);
                for pos in start..end {
                    let label = self.sparse.label(pos);
                    if label > hi_label {
                        break;
                    }
                    let ctl = tight_lo && depth < lo.len() && label == lo[depth];
                    let cth = tight_hi && depth < hi.len() && label == hi[depth];
                    path.push(label);
                    let outcome = if self.sparse.edge_has_child(pos) {
                        self.visit_node(
                            self.sparse_child(pos),
                            depth + 1,
                            ctl,
                            cth,
                            lo,
                            hi,
                            path,
                            f,
                        )
                    } else {
                        f(path, self.dense_value_count + self.sparse.leaf_slot(s, pos))
                    };
                    path.pop();
                    if outcome == Visit::Stop {
                        return Visit::Stop;
                    }
                }
            }
        }
        Visit::Continue
    }
}

/// Streaming FST construction from sorted branches.
#[derive(Debug, Clone, Default)]
pub struct FstBuilder {
    /// Fixed number of dense levels; `None` chooses the size-optimal cutoff
    /// per [`cost::optimal_cutoff`].
    pub dense_levels: Option<usize>,
}

/// Per-level scratch produced by the BFS pass.
#[derive(Debug, Default)]
struct TempLevel {
    labels: Vec<u8>,
    has_child: Vec<bool>,
    louds: Vec<bool>,
    prefix_key: Vec<bool>,
    n_nodes: usize,
}

impl FstBuilder {
    /// A builder that picks the dense/sparse split automatically.
    pub fn new() -> Self {
        FstBuilder { dense_levels: None }
    }

    /// A builder forcing the top `levels` levels dense.
    pub fn with_dense_levels(levels: usize) -> Self {
        FstBuilder { dense_levels: Some(levels) }
    }

    /// Build the trie over `branches` (sorted, distinct). Returns the trie
    /// (with an empty [`ValueStore`]) and, per value slot, the index of the
    /// input branch that owns it.
    pub fn build<S: AsRef<[u8]>>(&self, branches: &[S]) -> (Fst, Vec<u32>) {
        for w in branches.windows(2) {
            debug_assert!(w[0].as_ref() < w[1].as_ref(), "branches must be sorted and distinct");
        }
        let mut levels: Vec<TempLevel> = Vec::new();
        let mut slot_to_key: Vec<u32> = Vec::with_capacity(branches.len());

        // BFS over (key range, depth) node descriptors.
        let mut current: Vec<(usize, usize)> =
            if branches.is_empty() { vec![] } else { vec![(0, branches.len())] };
        let mut depth = 0usize;
        while !current.is_empty() {
            let mut level = TempLevel::default();
            let mut next: Vec<(usize, usize)> = Vec::new();
            for &(mut lo, hi) in &current {
                level.n_nodes += 1;
                // Prefix-key terminal: the (unique) branch of exactly this depth.
                if branches[lo].as_ref().len() == depth {
                    level.prefix_key.push(true);
                    slot_to_key.push(lo as u32);
                    lo += 1;
                } else {
                    level.prefix_key.push(false);
                }
                // Group the remainder by the next byte.
                let mut first_edge = true;
                let mut a = lo;
                while a < hi {
                    let label = branches[a].as_ref()[depth];
                    let mut b = a + 1;
                    while b < hi && branches[b].as_ref()[depth] == label {
                        b += 1;
                    }
                    let is_leaf = b - a == 1 && branches[a].as_ref().len() == depth + 1;
                    level.labels.push(label);
                    level.has_child.push(!is_leaf);
                    level.louds.push(first_edge);
                    first_edge = false;
                    if is_leaf {
                        slot_to_key.push(a as u32);
                    } else {
                        next.push((a, b));
                    }
                    a = b;
                }
                debug_assert!(
                    !first_edge
                        || branches.len() == 1 && depth == 0
                        || level.prefix_key.last() == Some(&true),
                    "internal node without edges"
                );
            }
            levels.push(level);
            current = next;
            depth += 1;
        }

        // Leaf-slot ordering check: BFS emission above pushes, per node, the
        // prefix key first and then leaf edges in label order, matching the
        // rank arithmetic in LoudsDense/LoudsSparse.

        // Choose the dense/sparse cutoff.
        let stats: Vec<(u64, u64)> =
            levels.iter().map(|l| (l.n_nodes as u64, l.labels.len() as u64)).collect();
        let mut cutoff = match self.dense_levels {
            Some(n) => n.min(levels.len()),
            None => cost::optimal_cutoff(&stats).0,
        };
        // A root holding only the empty-string branch has no edges and
        // cannot be encoded sparsely.
        if !levels.is_empty() && levels[0].labels.is_empty() {
            cutoff = cutoff.max(1);
        }

        // Assemble dense part.
        let dense_nodes: usize = levels[..cutoff].iter().map(|l| l.n_nodes).sum();
        let mut d_labels = BitVec::zeros(dense_nodes * 256);
        let mut d_has_child = BitVec::zeros(dense_nodes * 256);
        let mut d_pk = BitVec::zeros(dense_nodes);
        {
            let mut node_base = 0usize;
            for level in &levels[..cutoff] {
                let mut node = node_base;
                for (e, &label) in level.labels.iter().enumerate() {
                    if level.louds[e] && e > 0 {
                        node += 1;
                    }
                    let pos = node * 256 + label as usize;
                    d_labels.set(pos);
                    if level.has_child[e] {
                        d_has_child.set(pos);
                    }
                }
                // Nodes with zero edges (empty-branch root) still advance by
                // node count.
                for (n, &pk) in level.prefix_key.iter().enumerate() {
                    if pk {
                        d_pk.set(node_base + n);
                    }
                }
                node_base += level.n_nodes;
            }
        }
        let dense = LoudsDense::new(d_labels, d_has_child, d_pk, dense_nodes);

        // Assemble sparse part.
        let mut s_labels = Vec::new();
        let mut s_has_child = BitVec::new();
        let mut s_louds = BitVec::new();
        let mut s_pk = BitVec::new();
        for level in &levels[cutoff..] {
            s_labels.extend_from_slice(&level.labels);
            for &h in &level.has_child {
                s_has_child.push(h);
            }
            for &l in &level.louds {
                s_louds.push(l);
            }
            for &p in &level.prefix_key {
                s_pk.push(p);
            }
        }
        let sparse = LoudsSparse::new(s_labels, s_has_child, s_louds, s_pk);

        let sparse_entry_nodes = if cutoff == 0 {
            usize::from(!levels.is_empty())
        } else if cutoff < levels.len() {
            levels[cutoff].n_nodes
        } else {
            0
        };

        let dense_value_count = dense.value_count();
        let height = levels
            .len()
            .saturating_sub(1)
            .max(branches.iter().map(|b| b.as_ref().len()).max().unwrap_or(0));

        let fst = Fst {
            dense,
            sparse,
            values: ValueStore::Empty,
            sparse_entry_nodes,
            dense_value_count,
            n_branches: branches.len(),
            height,
        };
        debug_assert_eq!(slot_to_key.len(), branches.len());
        (fst, slot_to_key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn is_prefix(p: &[u8], s: &[u8]) -> bool {
        p.len() < s.len() && &s[..p.len()] == p
    }

    /// Reference implementation of the overlap contract.
    fn reference_overlapping<'a>(branches: &'a [Vec<u8>], lo: &[u8], hi: &[u8]) -> Vec<&'a [u8]> {
        branches
            .iter()
            .map(|b| b.as_slice())
            .filter(|b| (*b >= lo || is_prefix(b, lo)) && (*b <= hi || is_prefix(b, hi)))
            .collect()
    }

    fn collect_overlapping(fst: &Fst, lo: &[u8], hi: &[u8]) -> Vec<Vec<u8>> {
        let mut out = Vec::new();
        fst.visit_overlapping(lo, hi, &mut |b, _| {
            out.push(b.to_vec());
            Visit::Continue
        });
        out
    }

    fn sample_branches() -> Vec<Vec<u8>> {
        let mut v: Vec<Vec<u8>> =
            [&b"apple"[..], b"app", b"apricot", b"banana", b"band", b"bandana", b"can", b"z"]
                .iter()
                .map(|s| s.to_vec())
                .collect();
        v.sort();
        v
    }

    #[test]
    fn build_and_lookup_all_cutoffs() {
        let branches = sample_branches();
        for dense_levels in [None, Some(0), Some(1), Some(2), Some(10)] {
            let builder = dense_levels.map_or_else(FstBuilder::new, FstBuilder::with_dense_levels);
            let (fst, slots) = builder.build(&branches);
            assert_eq!(fst.len(), branches.len());
            assert_eq!(slots.len(), branches.len());
            for (i, b) in branches.iter().enumerate() {
                let slot = fst
                    .lookup(b)
                    .unwrap_or_else(|| panic!("{b:?} missing (dense={dense_levels:?})"));
                assert_eq!(slots[slot] as usize, i, "slot map mismatch for {b:?}");
            }
            assert!(fst.lookup(b"ap").is_none());
            assert!(fst.lookup(b"apples").is_none());
            assert!(fst.lookup(b"").is_none());
            assert!(fst.lookup(b"bananaz").is_none());
        }
    }

    #[test]
    fn visit_all_yields_sorted_branches() {
        let branches = sample_branches();
        for dense_levels in [None, Some(0), Some(3)] {
            let builder = dense_levels.map_or_else(FstBuilder::new, FstBuilder::with_dense_levels);
            let (fst, _) = builder.build(&branches);
            let mut seen = Vec::new();
            fst.visit_all(&mut |b, _| {
                seen.push(b.to_vec());
                Visit::Continue
            });
            assert_eq!(seen, branches, "dense={dense_levels:?}");
        }
    }

    #[test]
    fn overlap_matches_reference_on_handpicked_ranges() {
        let branches = sample_branches();
        let (fst, _) = Fst::from_branches(&branches);
        let cases: Vec<(&[u8], &[u8])> = vec![
            (b"a", b"b"),
            (b"app", b"app"),
            (b"apple", b"apple"),
            (b"applf", b"bandanz"),
            (b"", b"zzz"),
            (b"bananaa", b"bananaa"), // "banana" is a proper prefix of both bounds
            (b"ba", b"bc"),
            (b"zz", b"zzz"),
            (b"aa", b"ab"),
        ];
        for (lo, hi) in cases {
            let got = collect_overlapping(&fst, lo, hi);
            let want: Vec<Vec<u8>> =
                reference_overlapping(&branches, lo, hi).into_iter().map(|b| b.to_vec()).collect();
            assert_eq!(got, want, "range {:?}..{:?}", lo, hi);
        }
    }

    #[test]
    fn prefix_key_terminal_counts_for_point_queries() {
        // "app" is stored and is a prefix of the point query "apple".
        let branches = sample_branches();
        let (fst, _) = Fst::from_branches(&branches);
        let mut hits = Vec::new();
        fst.visit_overlapping(b"applepie", b"applepie", &mut |b, _| {
            hits.push(b.to_vec());
            Visit::Continue
        });
        assert_eq!(hits, vec![b"app".to_vec(), b"apple".to_vec()]);
    }

    #[test]
    fn early_stop_works() {
        let branches = sample_branches();
        let (fst, _) = Fst::from_branches(&branches);
        let mut count = 0;
        let stopped = fst.visit_all(&mut |_, _| {
            count += 1;
            if count == 3 {
                Visit::Stop
            } else {
                Visit::Continue
            }
        });
        assert!(stopped);
        assert_eq!(count, 3);
    }

    #[test]
    fn empty_and_singleton_tries() {
        let (fst, slots) = Fst::from_branches::<&[u8]>(&[]);
        assert!(fst.is_empty());
        assert!(slots.is_empty());
        assert!(fst.lookup(b"x").is_none());
        assert!(!fst.visit_overlapping(b"a", b"z", &mut |_, _| Visit::Stop));

        let (fst, _) = Fst::from_branches(&[b"hello".to_vec()]);
        assert_eq!(fst.len(), 1);
        assert_eq!(fst.lookup(b"hello"), Some(0));
        assert!(fst.lookup(b"hell").is_none());
        let got = collect_overlapping(&fst, b"ha", b"hz");
        assert_eq!(got, vec![b"hello".to_vec()]);
    }

    #[test]
    fn empty_string_branch() {
        let branches: Vec<Vec<u8>> = vec![b"".to_vec(), b"a".to_vec(), b"ab".to_vec()];
        let (fst, slots) = Fst::from_branches(&branches);
        assert_eq!(fst.lookup(b""), Some(0));
        assert_eq!(slots[0], 0);
        // "" is a proper prefix of every bound: always overlaps.
        let got = collect_overlapping(&fst, b"x", b"y");
        assert_eq!(got, vec![b"".to_vec()]);
    }

    #[test]
    fn chain_branches() {
        // Single deep key produces a pure chain.
        let branches: Vec<Vec<u8>> = vec![b"abcdefghij".to_vec()];
        for dense in [Some(0), Some(5), None] {
            let builder = dense.map_or_else(FstBuilder::new, FstBuilder::with_dense_levels);
            let (fst, _) = builder.build(&branches);
            assert_eq!(fst.lookup(b"abcdefghij"), Some(0));
            assert!(fst.lookup(b"abcde").is_none());
        }
    }

    #[test]
    fn values_roundtrip_through_slots() {
        let branches = sample_branches();
        let (mut fst, slot_to_key) = Fst::from_branches(&branches);
        // Store each branch's reversed bytes as its value.
        let suffixes: Vec<Vec<u8>> = slot_to_key
            .iter()
            .map(|&k| branches[k as usize].iter().rev().copied().collect())
            .collect();
        fst.set_values(ValueStore::from_byte_suffixes(&suffixes));
        fst.visit_all(&mut |b, slot| {
            let want: Vec<u8> = b.iter().rev().copied().collect();
            assert_eq!(fst.values().bytes(slot), &want[..], "branch {b:?}");
            Visit::Continue
        });
    }

    #[test]
    fn size_bits_is_positive_and_grows() {
        let small = Fst::from_branches(&[b"ab".to_vec()]).0;
        let branches: Vec<Vec<u8>> = (0u32..1000).map(|i| i.to_be_bytes().to_vec()).collect();
        let big = Fst::from_branches(&branches).0;
        assert!(big.size_bits() > small.size_bits());
    }

    #[test]
    fn fst_codec_roundtrip_preserves_structure_and_values() {
        use crate::codec::ByteReader;
        let branches = sample_branches();
        for dense_levels in [None, Some(0), Some(2), Some(10)] {
            let builder = dense_levels.map_or_else(FstBuilder::new, FstBuilder::with_dense_levels);
            let (mut fst, slot_to_key) = builder.build(&branches);
            let suffixes: Vec<Vec<u8>> = slot_to_key
                .iter()
                .map(|&k| branches[k as usize].iter().rev().copied().collect())
                .collect();
            fst.set_values(ValueStore::from_byte_suffixes(&suffixes));
            let mut buf = Vec::new();
            fst.encode_into(&mut buf);
            let mut r = ByteReader::new(&buf);
            let back = Fst::decode_from(&mut r).unwrap();
            r.finish().unwrap();
            assert_eq!(back.len(), fst.len());
            assert_eq!(back.height(), fst.height());
            assert_eq!(back.size_bits(), fst.size_bits(), "dense={dense_levels:?}");
            let collect = |f: &Fst| {
                let mut seen = Vec::new();
                f.visit_all(&mut |b, slot| {
                    seen.push((b.to_vec(), f.values().bytes(slot).to_vec()));
                    Visit::Continue
                });
                seen
            };
            assert_eq!(collect(&back), collect(&fst), "dense={dense_levels:?}");
            for (lo, hi) in [(&b"a"[..], &b"b"[..]), (b"app", b"app"), (b"zz", b"zzz")] {
                assert_eq!(collect_overlapping(&back, lo, hi), collect_overlapping(&fst, lo, hi));
            }
        }
    }

    #[test]
    fn fst_decode_rejects_inconsistent_branch_count() {
        let (fst, _) = Fst::from_branches(&sample_branches());
        let mut buf = Vec::new();
        fst.encode_into(&mut buf);
        // n_branches is the second-to-last u64: bump it.
        let at = buf.len() - 16;
        let n = u64::from_le_bytes(buf[at..at + 8].try_into().unwrap());
        buf[at..at + 8].copy_from_slice(&(n + 1).to_le_bytes());
        let mut r = crate::codec::ByteReader::new(&buf);
        assert!(Fst::decode_from(&mut r).is_err());
    }

    #[test]
    fn randomized_against_reference() {
        // Deterministic pseudo-random key sets over a small alphabet to
        // force shared prefixes, chains and prefix-keys.
        let mut state = 0x0123_4567_89AB_CDEF_u64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for trial in 0..30 {
            let n = 1 + (rng() % 60) as usize;
            let mut branches: Vec<Vec<u8>> = (0..n)
                .map(|_| {
                    let len = (rng() % 6) as usize;
                    (0..len).map(|_| (rng() % 3) as u8 + b'a').collect()
                })
                .collect();
            branches.sort();
            branches.dedup();
            for dense in [Some(0), Some(1), None] {
                let builder = dense.map_or_else(FstBuilder::new, FstBuilder::with_dense_levels);
                let (fst, _) = builder.build(&branches);
                for _ in 0..20 {
                    let mut mk = || -> Vec<u8> {
                        let len = (rng() % 6) as usize;
                        (0..len).map(|_| (rng() % 3) as u8 + b'a').collect()
                    };
                    let (mut lo, mut hi) = (mk(), mk());
                    if lo > hi {
                        std::mem::swap(&mut lo, &mut hi);
                    }
                    let got = collect_overlapping(&fst, &lo, &hi);
                    let want: Vec<Vec<u8>> = reference_overlapping(&branches, &lo, &hi)
                        .into_iter()
                        .map(|b| b.to_vec())
                        .collect();
                    assert_eq!(got, want, "trial {trial} range {lo:?}..{hi:?} dense={dense:?}");
                }
            }
        }
    }
}
