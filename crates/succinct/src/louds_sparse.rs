//! LOUDS-Sparse: the edge-list trie encoding for the lower FST levels.
//!
//! Edges are stored in level (BFS) order as three parallel sequences: a byte
//! label per edge, a `has_child` bit per edge, and a `louds` bit per edge
//! set on the first edge of each node. Node `s`'s edges start at
//! `select1(louds, s)`; the child through edge `p` is the node whose ordinal
//! among sparse children is `rank1(has_child, p+1)` (Zhang et al., 2018).
//! A per-node `is_prefix_key` bit vector supports keys that are proper
//! prefixes of other keys (SuRF's `$`-label plays this role; a per-node bit
//! avoids reserving a byte value).

use crate::bitvec::BitVec;
use crate::codec::{ByteReader, CodecError, WireWrite};
use crate::rank::RankedBits;
use crate::select::SelectIndex;

#[derive(Debug, Clone)]
/// The LOUDS-Sparse encoding: byte labels plus unary degree bits
/// (one `louds` bit per edge marks each node's first edge).
pub struct LoudsSparse {
    labels: Vec<u8>,
    has_child: RankedBits,
    louds: RankedBits,
    louds_select: SelectIndex,
    is_prefix_key: RankedBits,
    n_nodes: usize,
}

impl LoudsSparse {
    /// Assemble from the raw label array and bit vectors, building the
    /// rank/select directories.
    pub fn new(labels: Vec<u8>, has_child: BitVec, louds: BitVec, is_prefix_key: BitVec) -> Self {
        assert_eq!(labels.len(), has_child.len());
        assert_eq!(labels.len(), louds.len());
        let louds = RankedBits::new(louds);
        let n_nodes = louds.count_ones();
        assert_eq!(is_prefix_key.len(), n_nodes);
        let louds_select = SelectIndex::new(&louds);
        LoudsSparse {
            labels,
            has_child: RankedBits::new(has_child),
            louds,
            louds_select,
            is_prefix_key: RankedBits::new(is_prefix_key),
            n_nodes,
        }
    }

    /// A sparse encoding with no nodes.
    pub fn empty() -> Self {
        LoudsSparse::new(Vec::new(), BitVec::new(), BitVec::new(), BitVec::new())
    }

    /// Number of nodes in the sparse levels.
    pub fn n_nodes(&self) -> usize {
        self.n_nodes
    }

    /// True when the sparse half encodes no nodes.
    pub fn is_empty(&self) -> bool {
        self.n_nodes == 0
    }

    /// Edge position range `[start, end)` of node `s`.
    #[inline]
    pub fn edge_range(&self, s: usize) -> (usize, usize) {
        debug_assert!(s < self.n_nodes);
        let start = self.louds_select.select1(&self.louds, s);
        let end = self.louds.next_set_bit(start + 1).unwrap_or(self.labels.len());
        (start, end)
    }

    /// The label of edge `pos`.
    #[inline]
    pub fn label(&self, pos: usize) -> u8 {
        self.labels[pos]
    }

    /// Does edge `pos` lead to a child node?
    #[inline]
    pub fn edge_has_child(&self, pos: usize) -> bool {
        self.has_child.get(pos)
    }

    /// Ordinal (1-based) of this child edge among all sparse child edges.
    /// The caller maps ordinals to node ids by adding the number of sparse
    /// entry nodes.
    #[inline]
    pub fn child_ordinal(&self, pos: usize) -> usize {
        self.has_child.rank1(pos + 1)
    }

    /// Does a key end exactly at node `s`?
    #[inline]
    pub fn is_prefix_key(&self, s: usize) -> bool {
        self.is_prefix_key.get(s)
    }

    /// Binary search within a node for the smallest edge with label ≥ `from`.
    /// Edge labels within a node are strictly increasing.
    pub fn lower_bound_label(&self, s: usize, from: u8) -> Option<usize> {
        let (start, end) = self.edge_range(s);
        let idx = self.labels[start..end].partition_point(|&l| l < from);
        (start + idx < end).then_some(start + idx)
    }

    /// Exact-match edge position for `label` in node `s`.
    pub fn find_label(&self, s: usize, label: u8) -> Option<usize> {
        let pos = self.lower_bound_label(s, label)?;
        (self.labels[pos] == label).then_some(pos)
    }

    /// Value slot (within the sparse value space) of the leaf edge `pos`
    /// belonging to node `s`.
    pub fn leaf_slot(&self, s: usize, pos: usize) -> usize {
        debug_assert!(!self.has_child.get(pos));
        self.is_prefix_key.rank1(s + 1) + (pos - self.has_child.rank1(pos))
    }

    /// Value slot (within the sparse value space) of node `s`'s prefix key.
    pub fn prefix_key_slot(&self, s: usize) -> usize {
        debug_assert!(self.is_prefix_key(s));
        let (start, _) = self.edge_range(s);
        self.is_prefix_key.rank1(s) + (start - self.has_child.rank1(start))
    }

    /// Total value slots owned by the sparse part.
    pub fn value_count(&self) -> usize {
        self.is_prefix_key.count_ones() + self.labels.len() - self.has_child.count_ones()
    }

    /// Encoded size of the structure, in bits.
    pub fn size_bits(&self) -> u64 {
        (self.labels.len() as u64) * 8
            + self.has_child.size_bits()
            + self.louds.size_bits()
            + self.louds_select.size_bits()
            + self.is_prefix_key.size_bits()
    }

    /// Serialize labels + raw bit vectors; rank and select directories are
    /// rebuilt on decode.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.put_bytes(&self.labels);
        self.has_child.bits().encode_into(out);
        self.louds.bits().encode_into(out);
        self.is_prefix_key.bits().encode_into(out);
    }

    /// Decode an encoding previously written by `encode_into`.
    pub fn decode_from(r: &mut ByteReader<'_>) -> Result<LoudsSparse, CodecError> {
        let labels = r.bytes()?.to_vec();
        let has_child = BitVec::decode_from(r)?;
        let louds = BitVec::decode_from(r)?;
        let is_prefix_key = BitVec::decode_from(r)?;
        if has_child.len() != labels.len() || louds.len() != labels.len() {
            return Err(CodecError::Invalid("sparse edge array lengths"));
        }
        if is_prefix_key.len() != louds.count_ones() {
            return Err(CodecError::Invalid("sparse prefix-key count"));
        }
        if !labels.is_empty() && !louds.get(0) {
            return Err(CodecError::Invalid("sparse louds missing first-edge bit"));
        }
        Ok(LoudsSparse::new(labels, has_child, louds, is_prefix_key))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Sparse encoding of the trie over {"ab", "ax", "b", "b?"} with the
    /// root in the sparse part:
    ///   node 0 (root): edges a(child), b(child)          louds 10
    ///   node 1 ("a"):  edges b(leaf), x(leaf)            louds 10
    ///   node 2 ("b"):  prefix-key, edge ?(leaf)          louds 1
    fn sample() -> LoudsSparse {
        let labels = vec![b'a', b'b', b'b', b'x', b'?'];
        let has_child: BitVec = [true, true, false, false, false].iter().copied().collect();
        let louds: BitVec = [true, false, true, false, true].iter().copied().collect();
        let pk: BitVec = [false, false, true].iter().copied().collect();
        LoudsSparse::new(labels, has_child, louds, pk)
    }

    #[test]
    fn structure_counts() {
        let s = sample();
        assert_eq!(s.n_nodes(), 3);
        assert_eq!(s.value_count(), 4); // 3 leaf edges + 1 prefix key
    }

    #[test]
    fn edge_ranges() {
        let s = sample();
        assert_eq!(s.edge_range(0), (0, 2));
        assert_eq!(s.edge_range(1), (2, 4));
        assert_eq!(s.edge_range(2), (4, 5));
    }

    #[test]
    fn child_ordinals() {
        let s = sample();
        // Edge 0 (root, 'a') is the 1st sparse child edge; with one entry
        // node (the root itself), its child is node 0 + 1 = node 1.
        assert!(s.edge_has_child(0));
        assert_eq!(s.child_ordinal(0), 1);
        assert_eq!(s.child_ordinal(1), 2);
    }

    #[test]
    fn label_searches() {
        let s = sample();
        assert_eq!(s.find_label(0, b'a'), Some(0));
        assert_eq!(s.find_label(0, b'c'), None);
        assert_eq!(s.lower_bound_label(1, b'a'), Some(2));
        assert_eq!(s.lower_bound_label(1, b'c'), Some(3));
        assert_eq!(s.lower_bound_label(1, b'y'), None);
    }

    #[test]
    fn value_slots_are_node_major() {
        let s = sample();
        // Order: node1 leaves "ab"(0), "ax"(1); node2 pk "b"(2), leaf "b?"(3).
        assert_eq!(s.leaf_slot(1, 2), 0);
        assert_eq!(s.leaf_slot(1, 3), 1);
        assert_eq!(s.prefix_key_slot(2), 2);
        assert_eq!(s.leaf_slot(2, 4), 3);
    }

    #[test]
    fn empty_sparse() {
        let s = LoudsSparse::empty();
        assert!(s.is_empty());
        assert_eq!(s.value_count(), 0);
    }
}
