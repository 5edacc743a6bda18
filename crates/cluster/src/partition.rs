//! Equivalence-set partition refinement.
//!
//! Given the equivalence sets referenced by a batch of pending jobs, compute
//! the coarsest partition of the cluster such that every referenced set is
//! an exact union of partition classes. The STRL compiler then creates one
//! integer "partition variable" per class per time slice instead of
//! per-node variables — the paper's most important MILP-size optimization
//! (Sec. 7.3, "dynamically partitioning cluster resources at the beginning
//! of each cycle to minimize the number of partition variables").

use crate::nodeset::NodeSet;

/// A partition of the node universe into disjoint classes.
#[derive(Debug, Clone)]
pub struct PartitionSet {
    classes: Vec<NodeSet>,
}

impl PartitionSet {
    /// Refines the universe against the given equivalence sets.
    ///
    /// Starts from the single class of all nodes and, for each set in turn,
    /// splits the classes that straddle it: such a class becomes its part
    /// inside the set, followed by its part outside. A class inside the set
    /// or disjoint from it is kept as it is, so a set that splits nothing
    /// allocates nothing. A set whose storage an earlier set shares is
    /// skipped: refining by the same set twice splits nothing, so the
    /// classes and their order are the same. The result is the coarsest
    /// partition in which every input set is a union of classes.
    #[expect(
        clippy::indexing_slicing,
        reason = "the loop guard keeps `i` below `classes.len()` where it indexes, and \
                  `sets[..at]` is a prefix of the slice `at` enumerates"
    )]
    pub fn refine(universe: usize, sets: &[NodeSet]) -> PartitionSet {
        // An empty universe has no classes once anything refines it.
        let mut classes = if universe == 0 && !sets.is_empty() {
            Vec::new()
        } else {
            vec![NodeSet::full(universe)]
        };
        for (at, s) in sets.iter().enumerate() {
            if sets[..at].iter().any(|done| done.shares_storage(s)) {
                continue;
            }
            let mut i = 0;
            while i < classes.len() {
                let c = &mut classes[i];
                if c.is_subset(s) || c.is_disjoint(s) {
                    i += 1;
                    continue;
                }
                let outside = c.minus(s);
                c.and_with(s);
                classes.insert(i + 1, outside);
                i += 2;
            }
        }
        PartitionSet { classes }
    }

    /// Number of classes.
    pub fn len(&self) -> usize {
        self.classes.len()
    }

    /// Whether the partition has no classes (empty universe).
    pub fn is_empty(&self) -> bool {
        self.classes.is_empty()
    }

    /// The classes, each a disjoint node set.
    pub fn classes(&self) -> &[NodeSet] {
        &self.classes
    }

    /// One class by index.
    #[expect(
        clippy::indexing_slicing,
        reason = "class indices are produced by this set's own covering()/classes() and stay in \
                  range for its lifetime"
    )]
    pub fn class(&self, ix: usize) -> &NodeSet {
        &self.classes[ix]
    }

    /// Indices of the classes whose union is exactly `set`.
    ///
    /// Every class is either contained in `set` or disjoint from it as long
    /// as `set` was among (or is a union of) the sets used for refinement;
    /// classes partially overlapping are reported via `Err` with the
    /// offending class index.
    pub fn cover(&self, set: &NodeSet) -> Result<Vec<usize>, usize> {
        self.covering(set).collect()
    }

    /// [`PartitionSet::cover`] one class at a time, in class order, without
    /// collecting: `Ok` for a class inside `set`, `Err` for one partially
    /// overlapping it.
    pub fn covering<'s>(
        &'s self,
        set: &'s NodeSet,
    ) -> impl Iterator<Item = Result<usize, usize>> + 's {
        self.classes.iter().enumerate().filter_map(|(i, c)| {
            if c.is_subset(set) {
                Some(Ok(i))
            } else if c.is_disjoint(set) {
                None
            } else {
                Some(Err(i))
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::NodeId;

    fn set(cap: usize, ids: &[u32]) -> NodeSet {
        NodeSet::from_ids(cap, ids.iter().map(|&i| NodeId(i)))
    }

    #[test]
    fn no_sets_gives_single_class() {
        let p = PartitionSet::refine(8, &[]);
        assert_eq!(p.len(), 1);
        assert_eq!(p.class(0).len(), 8);
    }

    #[test]
    fn single_set_splits_in_two() {
        let gpus = set(8, &[0, 1, 2]);
        let p = PartitionSet::refine(8, std::slice::from_ref(&gpus));
        assert_eq!(p.len(), 2);
        let cover = p.cover(&gpus).unwrap();
        assert_eq!(cover.len(), 1);
        assert_eq!(p.class(cover[0]), &gpus);
    }

    #[test]
    fn overlapping_sets_refine_to_atoms() {
        // {0,1,2,3} and {2,3,4,5} over 8 nodes -> classes
        // {0,1}, {2,3}, {4,5}, {6,7}.
        let a = set(8, &[0, 1, 2, 3]);
        let b = set(8, &[2, 3, 4, 5]);
        let p = PartitionSet::refine(8, &[a.clone(), b.clone()]);
        assert_eq!(p.len(), 4);
        assert_eq!(p.cover(&a).unwrap().len(), 2);
        assert_eq!(p.cover(&b).unwrap().len(), 2);
    }

    #[test]
    fn identical_sets_do_not_oversplit() {
        let a = set(8, &[0, 1]);
        let p = PartitionSet::refine(8, &[a.clone(), a.clone(), a.clone()]);
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn cover_detects_non_aligned_set() {
        let a = set(8, &[0, 1, 2, 3]);
        let p = PartitionSet::refine(8, &[a]);
        // {3, 4} straddles the class boundary.
        assert!(p.cover(&set(8, &[3, 4])).is_err());
    }

    #[test]
    fn classes_are_disjoint_and_exhaustive() {
        let sets = [
            set(16, &[0, 1, 2, 3, 4]),
            set(16, &[4, 5, 6]),
            set(16, &[10, 11, 12, 13]),
            set(16, &[0, 15]),
        ];
        let p = PartitionSet::refine(16, &sets);
        let mut seen = NodeSet::empty(16);
        for c in p.classes() {
            assert!(!c.is_empty());
            assert!(seen.is_disjoint(c));
            seen = seen.or(c);
        }
        assert_eq!(seen.len(), 16);
    }

    #[test]
    fn full_set_is_union_of_all_classes() {
        let sets = [set(8, &[1, 2]), set(8, &[5])];
        let p = PartitionSet::refine(8, &sets);
        let cover = p.cover(&NodeSet::full(8)).unwrap();
        assert_eq!(cover.len(), p.len());
    }
}
