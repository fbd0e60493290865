//! LOUDS-Dense: the bitmap trie encoding for the upper FST levels.
//!
//! Each node owns two 256-bit bitmaps — `labels` (an edge with this byte
//! exists) and `has_child` (that edge leads to an inner node rather than
//! terminating a key) — plus one `is_prefix_key` bit marking that a key ends
//! exactly at this node. Nodes are laid out in level (BFS) order, so the
//! child of the `has_child` edge at global bitmap position `p` is node
//! `rank1(has_child, p+1)` (Zhang et al., SIGMOD 2018).

use crate::bitvec::BitVec;
use crate::codec::{ByteReader, CodecError, WireWrite};
use crate::rank::RankedBits;

/// Builder-produced arrays for the dense part.
#[derive(Debug, Clone)]
pub struct LoudsDense {
    labels: RankedBits,
    has_child: RankedBits,
    is_prefix_key: RankedBits,
    n_nodes: usize,
}

impl LoudsDense {
    /// Assemble from raw bit vectors; `labels`/`has_child` must hold
    /// `n_nodes * 256` bits and `is_prefix_key` `n_nodes` bits.
    pub fn new(labels: BitVec, has_child: BitVec, is_prefix_key: BitVec, n_nodes: usize) -> Self {
        assert_eq!(labels.len(), n_nodes * 256);
        assert_eq!(has_child.len(), n_nodes * 256);
        assert_eq!(is_prefix_key.len(), n_nodes);
        LoudsDense {
            labels: RankedBits::new(labels),
            has_child: RankedBits::new(has_child),
            is_prefix_key: RankedBits::new(is_prefix_key),
            n_nodes,
        }
    }

    /// A dense encoding with no nodes.
    pub fn empty() -> Self {
        LoudsDense::new(BitVec::new(), BitVec::new(), BitVec::new(), 0)
    }

    /// Number of nodes in the dense levels.
    pub fn n_nodes(&self) -> usize {
        self.n_nodes
    }

    /// True when the dense half encodes no nodes.
    pub fn is_empty(&self) -> bool {
        self.n_nodes == 0
    }

    /// Does node `node` have an edge labeled `label`?
    #[inline]
    pub fn has_edge(&self, node: usize, label: u8) -> bool {
        self.labels.get(node * 256 + label as usize)
    }

    /// Does the edge `(node, label)` lead to a child (vs. terminate a key)?
    #[inline]
    pub fn edge_has_child(&self, node: usize, label: u8) -> bool {
        self.has_child.get(node * 256 + label as usize)
    }

    /// Does a key end exactly at this node?
    #[inline]
    pub fn is_prefix_key(&self, node: usize) -> bool {
        self.is_prefix_key.get(node)
    }

    /// BFS ordinal of the child reached through edge `(node, label)` among
    /// *all* dense child edges; ordinal 1 is the first child of the root.
    /// Callers translate ordinals ≥ `n_nodes` into sparse node ids.
    #[inline]
    pub fn child_ordinal(&self, node: usize, label: u8) -> usize {
        self.has_child.rank1(node * 256 + label as usize + 1)
    }

    /// Smallest existing edge label ≥ `from` in `node`.
    #[inline]
    pub fn next_label(&self, node: usize, from: u16) -> Option<u8> {
        if from > 255 {
            return None;
        }
        let base = node * 256;
        let pos = self.labels.next_set_bit(base + from as usize)?;
        (pos < base + 256).then(|| (pos - base) as u8)
    }

    /// Value slot of the prefix-key terminal of `node`.
    ///
    /// Slots are assigned node-major: within a node the prefix key precedes
    /// the leaf edges; leaf edges across nodes are counted by
    /// `rank1(labels) - rank1(has_child)`.
    pub fn prefix_key_slot(&self, node: usize) -> usize {
        debug_assert!(self.is_prefix_key(node));
        self.is_prefix_key.rank1(node)
            + (self.labels.rank1(node * 256) - self.has_child.rank1(node * 256))
    }

    /// Value slot of the leaf edge `(node, label)`.
    pub fn leaf_slot(&self, node: usize, label: u8) -> usize {
        let pos = node * 256 + label as usize;
        debug_assert!(self.labels.get(pos) && !self.has_child.get(pos));
        self.is_prefix_key.rank1(node + 1) + (self.labels.rank1(pos) - self.has_child.rank1(pos))
    }

    /// Total number of value slots owned by the dense part.
    pub fn value_count(&self) -> usize {
        self.is_prefix_key.count_ones() + self.labels.count_ones() - self.has_child.count_ones()
    }

    /// Total child edges in the dense part (= number of nodes fed to the
    /// next level, dense or sparse).
    pub fn child_count(&self) -> usize {
        self.has_child.count_ones()
    }

    /// Number of edges that lead to a child node.
    pub fn size_bits(&self) -> u64 {
        self.labels.size_bits() + self.has_child.size_bits() + self.is_prefix_key.size_bits()
    }

    /// Serialize the raw bit vectors; rank directories are rebuilt on
    /// decode (cheaper than shipping and checksumming redundant data).
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.put_u64(self.n_nodes as u64);
        self.labels.bits().encode_into(out);
        self.has_child.bits().encode_into(out);
        self.is_prefix_key.bits().encode_into(out);
    }

    /// Encoded size of the structure, in bits.
    pub fn decode_from(r: &mut ByteReader<'_>) -> Result<LoudsDense, CodecError> {
        let n_nodes =
            usize::try_from(r.u64()?).map_err(|_| CodecError::Invalid("dense node count"))?;
        let labels = BitVec::decode_from(r)?;
        let has_child = BitVec::decode_from(r)?;
        let is_prefix_key = BitVec::decode_from(r)?;
        let want = n_nodes.checked_mul(256).ok_or(CodecError::Invalid("dense node count"))?;
        if labels.len() != want || has_child.len() != want || is_prefix_key.len() != n_nodes {
            return Err(CodecError::Invalid("dense bitmap lengths"));
        }
        Ok(LoudsDense::new(labels, has_child, is_prefix_key, n_nodes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Hand-built two-level dense trie over keys {"ab", "ax", "b", "b?"}:
    ///   root(node 0): labels {a(child), b(child)}
    ///   node 1 = "a": labels {b(leaf), x(leaf)}
    ///   node 2 = "b": prefix-key ("b"), labels {?(leaf)}
    fn sample() -> LoudsDense {
        let n = 3;
        let mut labels = BitVec::zeros(n * 256);
        let mut has_child = BitVec::zeros(n * 256);
        let mut pk = BitVec::zeros(n);
        // root
        labels.set(b'a' as usize);
        has_child.set(b'a' as usize);
        labels.set(b'b' as usize);
        has_child.set(b'b' as usize);
        // node 1 ("a")
        labels.set(256 + b'b' as usize);
        labels.set(256 + b'x' as usize);
        // node 2 ("b")
        pk.set(2);
        labels.set(2 * 256 + b'?' as usize);
        LoudsDense::new(labels, has_child, pk, n)
    }

    #[test]
    fn navigation() {
        let d = sample();
        assert!(d.has_edge(0, b'a'));
        assert!(d.has_edge(0, b'b'));
        assert!(!d.has_edge(0, b'c'));
        assert!(d.edge_has_child(0, b'a'));
        assert_eq!(d.child_ordinal(0, b'a'), 1);
        assert_eq!(d.child_ordinal(0, b'b'), 2);
        assert!(!d.edge_has_child(1, b'b'));
        assert!(d.is_prefix_key(2));
        assert!(!d.is_prefix_key(0));
    }

    #[test]
    fn label_scans() {
        let d = sample();
        assert_eq!(d.next_label(0, 0), Some(b'a'));
        assert_eq!(d.next_label(0, b'a' as u16 + 1), Some(b'b'));
        assert_eq!(d.next_label(0, b'b' as u16 + 1), None);
        assert_eq!(d.next_label(1, b'c' as u16), Some(b'x'));
    }

    #[test]
    fn value_slots_are_node_major() {
        let d = sample();
        // Terminal order: node1 leaves "ab"(slot 0), "ax"(slot 1);
        // node2 prefix-key "b"(slot 2), leaf "b?"(slot 3).
        assert_eq!(d.leaf_slot(1, b'b'), 0);
        assert_eq!(d.leaf_slot(1, b'x'), 1);
        assert_eq!(d.prefix_key_slot(2), 2);
        assert_eq!(d.leaf_slot(2, b'?'), 3);
        assert_eq!(d.value_count(), 4);
        assert_eq!(d.child_count(), 2);
    }

    #[test]
    fn empty_dense() {
        let d = LoudsDense::empty();
        assert!(d.is_empty());
        assert_eq!(d.value_count(), 0);
        // Rank directories keep a sentinel entry even when empty.
        assert!(d.size_bits() < 256);
    }
}
