//! Fixed-capacity bitset of nodes: the representation of equivalence sets.
//!
//! Equivalence sets (paper Sec. 4.2) are sets of machines a job values
//! interchangeably. They are manipulated heavily during partition refinement
//! and availability queries, so they are stored as bitsets over the dense
//! node-id space.
//!
//! A set is a shared, copy-on-write value. Its words live in one
//! reference-counted slice, so a clone is a count bump: the cluster builds
//! its full set, each rack and each attribute's set once, and every option,
//! leaf and aggregate that names one of them holds the same storage. A write
//! copies the words first only while another set still shares them. Equality
//! and hashing are over the members, as for any value; equal sets built
//! apart compare equal, and sets that share storage compare equal without
//! reading it. [`NodeSet::shares_storage`] lets a caller do per-set work once
//! per distinct storage (partition refinement, the compiler's covers).

use crate::node::NodeId;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::rc::Rc;

/// A set of nodes over a fixed universe of `capacity` node ids.
#[derive(Clone, Eq)]
pub struct NodeSet {
    words: Rc<[u64]>,
    capacity: usize,
}

impl NodeSet {
    /// Creates an empty set over a universe of `capacity` nodes.
    pub fn empty(capacity: usize) -> Self {
        NodeSet {
            words: std::iter::repeat_n(0, capacity.div_ceil(64)).collect(),
            capacity,
        }
    }

    /// Creates the full set over a universe of `capacity` nodes.
    pub fn full(capacity: usize) -> Self {
        let n = capacity.div_ceil(64);
        let word = |i: usize| match capacity % 64 {
            tail @ 1.. if i + 1 == n => (1u64 << tail) - 1,
            _ => u64::MAX,
        };
        NodeSet {
            words: (0..n).map(word).collect(),
            capacity,
        }
    }

    /// Creates a set from an iterator of node ids.
    pub fn from_ids(capacity: usize, ids: impl IntoIterator<Item = NodeId>) -> Self {
        let mut s = Self::empty(capacity);
        for id in ids {
            s.insert(id);
        }
        s
    }

    /// Whether the two sets share their storage: one is a clone of the
    /// other, and neither has been written since. Shared sets are equal.
    pub fn shares_storage(&self, other: &NodeSet) -> bool {
        Rc::ptr_eq(&self.words, &other.words)
    }

    /// Universe size this set was created for.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Adds a node.
    ///
    /// # Panics
    ///
    /// Panics if the node id is outside the universe.
    #[expect(
        clippy::indexing_slicing,
        reason = "the assert above the store guarantees id.index() < capacity, and words holds \
                  ceil(capacity/64) entries"
    )]
    pub fn insert(&mut self, id: NodeId) {
        assert!(id.index() < self.capacity, "node id out of universe");
        self.words_mut()[id.index() / 64] |= 1u64 << (id.index() % 64);
    }

    /// Removes a node.
    #[expect(
        clippy::indexing_slicing,
        reason = "guarded by id.index() < capacity, and words holds ceil(capacity/64) entries"
    )]
    pub fn remove(&mut self, id: NodeId) {
        if id.index() < self.capacity {
            self.words_mut()[id.index() / 64] &= !(1u64 << (id.index() % 64));
        }
    }

    /// Membership test.
    #[expect(
        clippy::indexing_slicing,
        reason = "short-circuit id.index() < capacity guard precedes the word lookup; words holds \
                  ceil(capacity/64) entries"
    )]
    pub fn contains(&self, id: NodeId) -> bool {
        id.index() < self.capacity && self.words[id.index() / 64] & (1u64 << (id.index() % 64)) != 0
    }

    /// Number of nodes in the set.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Set intersection.
    pub fn and(&self, other: &NodeSet) -> NodeSet {
        self.zip_with(other, |a, b| a & b)
    }

    /// Set union.
    pub fn or(&self, other: &NodeSet) -> NodeSet {
        self.zip_with(other, |a, b| a | b)
    }

    /// Set difference (`self \ other`).
    pub fn minus(&self, other: &NodeSet) -> NodeSet {
        self.zip_with(other, |a, b| a & !b)
    }

    /// `|self ∩ other|`, without building the intersection.
    pub fn and_len(&self, other: &NodeSet) -> usize {
        self.assert_same_universe(other);
        let both = self.words.iter().zip(other.words.iter());
        both.map(|(&a, &b)| (a & b).count_ones() as usize).sum()
    }

    /// In-place union: `self = self ∪ other`.
    pub fn or_with(&mut self, other: &NodeSet) {
        self.assert_same_universe(other);
        for (a, &b) in self.words_mut().iter_mut().zip(other.words.iter()) {
            *a |= b;
        }
    }

    /// In-place intersection: `self = self ∩ other`.
    pub fn and_with(&mut self, other: &NodeSet) {
        self.assert_same_universe(other);
        for (a, &b) in self.words_mut().iter_mut().zip(other.words.iter()) {
            *a &= b;
        }
    }

    /// Whether `self` is a subset of `other`.
    pub fn is_subset(&self, other: &NodeSet) -> bool {
        self.assert_same_universe(other);
        let mut both = self.words.iter().zip(other.words.iter());
        both.all(|(&a, &b)| a & !b == 0)
    }

    /// Whether the two sets share no nodes.
    pub fn is_disjoint(&self, other: &NodeSet) -> bool {
        self.assert_same_universe(other);
        let mut both = self.words.iter().zip(other.words.iter());
        both.all(|(&a, &b)| a & b == 0)
    }

    /// Iterates node ids in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut bits = w;
            std::iter::from_fn(move || {
                if bits == 0 {
                    None
                } else {
                    let tz = bits.trailing_zeros();
                    bits &= bits - 1;
                    Some(NodeId((wi * 64) as u32 + tz))
                }
            })
        })
    }

    /// Takes up to `k` nodes from the set (lowest ids first); returns fewer
    /// when the set is smaller than `k`.
    pub fn take(&self, k: usize) -> Vec<NodeId> {
        self.iter().take(k).collect()
    }

    /// The words, for writing: copied first while another set shares them.
    fn words_mut(&mut self) -> &mut [u64] {
        Rc::make_mut(&mut self.words)
    }

    fn assert_same_universe(&self, other: &NodeSet) {
        assert_eq!(
            self.capacity, other.capacity,
            "node sets from different universes"
        );
    }

    fn zip_with(&self, other: &NodeSet, f: impl Fn(u64, u64) -> u64) -> NodeSet {
        self.assert_same_universe(other);
        NodeSet {
            words: self
                .words
                .iter()
                .zip(other.words.iter())
                .map(|(&a, &b)| f(a, b))
                .collect(),
            capacity: self.capacity,
        }
    }
}

impl PartialEq for NodeSet {
    /// Same members over the same universe; shared storage answers at once.
    fn eq(&self, other: &NodeSet) -> bool {
        self.capacity == other.capacity && (self.shares_storage(other) || self.words == other.words)
    }
}

impl Hash for NodeSet {
    /// Hashes the members and the universe, as equality compares them.
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.words.hash(state);
        self.capacity.hash(state);
    }
}

impl fmt::Display for NodeSet {
    /// Formats as `{M0, M3, M5}`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, id) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{id}")?;
        }
        write!(f, "}}")
    }
}

impl fmt::Debug for NodeSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl FromIterator<NodeId> for NodeSet {
    /// Builds a set sized to the largest id seen. Prefer
    /// [`NodeSet::from_ids`] when the universe size is known.
    fn from_iter<T: IntoIterator<Item = NodeId>>(iter: T) -> Self {
        let ids: Vec<NodeId> = iter.into_iter().collect();
        let cap = ids.iter().map(|i| i.index() + 1).max().unwrap_or(0);
        NodeSet::from_ids(cap, ids)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(v: &[u32]) -> Vec<NodeId> {
        v.iter().map(|&i| NodeId(i)).collect()
    }

    #[test]
    fn insert_contains_remove() {
        let mut s = NodeSet::empty(100);
        s.insert(NodeId(5));
        s.insert(NodeId(64));
        assert!(s.contains(NodeId(5)));
        assert!(s.contains(NodeId(64)));
        assert!(!s.contains(NodeId(6)));
        assert_eq!(s.len(), 2);
        s.remove(NodeId(5));
        assert!(!s.contains(NodeId(5)));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn set_operations() {
        let a = NodeSet::from_ids(10, ids(&[1, 2, 3]));
        let b = NodeSet::from_ids(10, ids(&[2, 3, 4]));
        assert_eq!(a.and(&b).take(10), ids(&[2, 3]));
        assert_eq!(a.or(&b).take(10), ids(&[1, 2, 3, 4]));
        assert_eq!(a.minus(&b).take(10), ids(&[1]));
    }

    #[test]
    fn subset_and_disjoint() {
        let a = NodeSet::from_ids(10, ids(&[1, 2]));
        let b = NodeSet::from_ids(10, ids(&[1, 2, 3]));
        let c = NodeSet::from_ids(10, ids(&[4, 5]));
        assert!(a.is_subset(&b));
        assert!(!b.is_subset(&a));
        assert!(a.is_disjoint(&c));
        assert!(!a.is_disjoint(&b));
    }

    #[test]
    fn full_and_iter_order() {
        let s = NodeSet::full(130);
        assert_eq!(s.len(), 130);
        let v: Vec<_> = s.iter().collect();
        assert_eq!(v[0], NodeId(0));
        assert_eq!(v[129], NodeId(129));
    }

    #[test]
    fn full_masks_the_tail_word() {
        for cap in [0, 1, 63, 64, 65, 128, 1000] {
            let ids = (0..cap as u32).map(NodeId);
            assert_eq!(NodeSet::full(cap), NodeSet::from_ids(cap, ids), "{cap}");
        }
    }

    #[test]
    fn in_place_kernels_match_the_allocating_ones() {
        let a = NodeSet::from_ids(130, ids(&[1, 64, 65, 129]));
        let b = NodeSet::from_ids(130, ids(&[1, 2, 65, 128]));
        assert_eq!(a.and_len(&b), a.and(&b).len());
        let mut c = a.clone();
        c.or_with(&b);
        assert_eq!(c, a.or(&b));
    }

    #[test]
    #[should_panic(expected = "different universes")]
    fn and_len_rejects_another_universe() {
        NodeSet::empty(4).and_len(&NodeSet::empty(5));
    }

    /// A 64-node set is one word, so without the check it would test as a
    /// subset of (or disjoint from) a 1 000-node set on that word alone.
    #[test]
    #[should_panic(expected = "different universes")]
    fn is_subset_rejects_another_universe() {
        NodeSet::empty(64).is_subset(&NodeSet::full(1000));
    }

    #[test]
    #[should_panic(expected = "different universes")]
    fn is_disjoint_rejects_another_universe() {
        NodeSet::full(64).is_disjoint(&NodeSet::empty(1000));
    }

    #[test]
    fn a_write_unshares_only_the_written_clone() {
        let a = NodeSet::from_ids(130, ids(&[1, 129]));
        let mut b = a.clone();
        assert!(b.shares_storage(&a) && b == a);
        b.insert(NodeId(2));
        assert!(!b.shares_storage(&a));
        assert_eq!(a.take(10), ids(&[1, 129]));
        assert_eq!(b.take(10), ids(&[1, 2, 129]));
        // Equal sets built apart are equal and share nothing.
        let c = NodeSet::from_ids(130, ids(&[1, 129]));
        assert!(c == a && !c.shares_storage(&a));
    }

    #[test]
    fn take_limits() {
        let s = NodeSet::from_ids(10, ids(&[7, 8, 9]));
        assert_eq!(s.take(2), ids(&[7, 8]));
        assert_eq!(s.take(5), ids(&[7, 8, 9]));
    }

    #[test]
    fn display_format() {
        let s = NodeSet::from_ids(10, ids(&[0, 3]));
        assert_eq!(format!("{s}"), "{M0, M3}");
    }

    #[test]
    #[should_panic(expected = "out of universe")]
    fn insert_out_of_universe_panics() {
        let mut s = NodeSet::empty(4);
        s.insert(NodeId(4));
    }
}
