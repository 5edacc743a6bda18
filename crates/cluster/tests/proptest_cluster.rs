//! Property tests for the cluster substrate: bitset algebra, partition
//! refinement laws, allocation-ledger conservation, and the availability
//! snapshot and claims against the ledger's per-query definition.

use proptest::prelude::*;
use tetrisched_cluster::{AllocHandle, Claims, Ledger, NodeId, NodeSet, PartitionSet, Time};

const UNIVERSE: usize = 48;

fn arb_set() -> impl Strategy<Value = NodeSet> {
    proptest::collection::btree_set(0u32..UNIVERSE as u32, 0..UNIVERSE)
        .prop_map(|ids| NodeSet::from_ids(UNIVERSE, ids.into_iter().map(NodeId)))
}

/// The oracle tests' universe: three words, the last one partial.
const WIDE: usize = 130;

fn wide_set(ids: impl IntoIterator<Item = u32>) -> NodeSet {
    NodeSet::from_ids(WIDE, ids.into_iter().map(NodeId))
}

fn arb_wide_set() -> impl Strategy<Value = NodeSet> {
    proptest::collection::btree_set(0u32..WIDE as u32, 0..WIDE).prop_map(wide_set)
}

/// Expected ends and window edges: few values, so they collide, and 0.
fn arb_end() -> impl Strategy<Value = Time> {
    prop_oneof![Just(0), 0u64..40]
}

/// Query times: on and off the ends above, 0 and the far end of time.
fn arb_query_time() -> impl Strategy<Value = Time> {
    prop_oneof![Just(0), Just(u64::MAX), 0u64..60]
}

/// What a random ledger is made from: allocations under handles 0, 1, …
/// (those that hit a busy node fail and stay out), handles to release, nodes
/// to mark down, announced windows as `(node, start, length)`, and one node
/// that gets two windows.
type LedgerParts = (
    Vec<(std::collections::BTreeSet<u32>, Time)>,
    Vec<u64>,
    Vec<u32>,
    Vec<(u32, Time, Time)>,
    (u32, Time, Time, Time),
);

fn arb_ledger_parts() -> impl Strategy<Value = LedgerParts> {
    (
        proptest::collection::vec(
            (
                proptest::collection::btree_set(0u32..WIDE as u32, 1..12),
                arb_end(),
            ),
            0..14,
        ),
        proptest::collection::vec(0u64..14, 0..4),
        proptest::collection::vec(0u32..WIDE as u32, 0..6),
        proptest::collection::vec((0u32..WIDE as u32, arb_end(), 0u64..30), 0..4),
        (0u32..WIDE as u32, arb_end(), 1u64..30, 0u64..30),
    )
}

fn build_ledger((allocs, released, down, windows, twice): &LedgerParts) -> Ledger {
    let mut ledger = Ledger::new(WIDE);
    for (i, (ids, end)) in allocs.iter().enumerate() {
        let _ = ledger.allocate(AllocHandle(i as u64), wide_set(ids.iter().copied()), *end);
    }
    for h in released {
        let _ = ledger.release(AllocHandle(*h));
    }
    for n in down {
        let _ = ledger.mark_down(NodeId(*n));
    }
    for &(n, start, len) in windows {
        ledger.announce(NodeId(n), start, start + len);
    }
    let (n, start, len, gap) = *twice;
    ledger.announce(NodeId(n), start, start + len);
    ledger.announce(NodeId(n), start + gap, start + gap + len);
    ledger
}

/// Refinement as first written: every class split at every set into its
/// inside and outside parts, in that order, empty parts dropped. The classes
/// and their order are the contract `PartitionSet::refine` keeps.
fn refine_splitting_every_class(universe: usize, sets: &[NodeSet]) -> Vec<NodeSet> {
    let mut classes = vec![NodeSet::full(universe)];
    for s in sets {
        let mut next = Vec::new();
        for c in classes {
            let (inside, outside) = (c.and(s), c.minus(s));
            if !inside.is_empty() {
                next.push(inside);
            }
            if !outside.is_empty() {
                next.push(outside);
            }
        }
        classes = next;
    }
    classes
}

/// Refining sets over `universe` nodes, each made from a strided run plus a
/// few scattered nodes and the sets before it: as it is, a duplicate of an
/// earlier set (a clone of it, or an equal set built node by node), nested
/// in one, disjoint from one, its complement, empty or full.
fn arb_refining_sets(universe: usize) -> impl Strategy<Value = Vec<NodeSet>> {
    let n = universe as u32;
    let shape = (
        0u8..8,
        0usize..64,
        (0u32..n, 0u32..n, 1u32..9),
        proptest::collection::btree_set(0u32..n, 0..8),
    );
    proptest::collection::vec(shape, 0..12).prop_map(move |shapes| {
        let full = NodeSet::full(universe);
        let mut sets: Vec<NodeSet> = Vec::new();
        for (kind, back, (a, b, step), scattered) in shapes {
            let run = (a.min(b)..a.max(b)).step_by(step as usize);
            let own = NodeSet::from_ids(universe, run.chain(scattered).map(NodeId));
            let earlier = match sets.len() {
                0 => full.clone(),
                len => sets[back % len].clone(),
            };
            sets.push(match kind {
                0 => own,
                1 => earlier,
                2 => earlier.and(&own),
                3 => own.minus(&earlier),
                4 => full.minus(&earlier),
                5 => NodeSet::empty(universe),
                6 => NodeSet::from_ids(universe, earlier.iter()),
                _ => full.clone(),
            });
        }
        sets
    })
}

/// Sets live in the aliasing programs' pool.
const POOL: usize = 4;

/// One step of an aliasing program: `(op, a, b, c, node)`.
type AliasStep = (u8, usize, usize, usize, u32);

/// Applies one step to the pool of sets and to its model, one `Vec<bool>`
/// per set: `a` takes a clone of `b`, gains or loses `node`, is unioned or
/// intersected with `b` in place, or `c` becomes `a ∩ b` or `a \ b`.
fn apply_alias_step(pool: &mut [NodeSet], model: &mut [Vec<bool>], step: AliasStep) {
    let (op, a, b, c, node) = step;
    let (id, ix) = (NodeId(node), node as usize);
    match op {
        0 => {
            pool[a] = pool[b].clone();
            model[a] = model[b].clone();
        }
        1 => {
            pool[a].insert(id);
            model[a][ix] = true;
        }
        2 => {
            pool[a].remove(id);
            model[a][ix] = false;
        }
        3 => {
            let other = pool[b].clone();
            pool[a].or_with(&other);
            model[a] = (0..WIDE).map(|i| model[a][i] || model[b][i]).collect();
        }
        4 => {
            let other = pool[b].clone();
            pool[a].and_with(&other);
            model[a] = (0..WIDE).map(|i| model[a][i] && model[b][i]).collect();
        }
        5 => {
            pool[c] = pool[a].and(&pool[b]);
            model[c] = (0..WIDE).map(|i| model[a][i] && model[b][i]).collect();
        }
        _ => {
            pool[c] = pool[a].minus(&pool[b]);
            model[c] = (0..WIDE).map(|i| model[a][i] && !model[b][i]).collect();
        }
    }
}

fn hash_of(set: &NodeSet) -> u64 {
    use std::hash::{DefaultHasher, Hash, Hasher};
    let mut h = DefaultHasher::new();
    set.hash(&mut h);
    h.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn set_algebra_laws(a in arb_set(), b in arb_set()) {
        // |A| + |B| = |A ∪ B| + |A ∩ B|.
        prop_assert_eq!(a.len() + b.len(), a.or(&b).len() + a.and(&b).len());
        // A \ B is disjoint from B and unions back to A ∪ B.
        let diff = a.minus(&b);
        prop_assert!(diff.is_disjoint(&b));
        prop_assert_eq!(diff.or(&b.and(&a)).len(), a.len());
        // Subset laws.
        prop_assert!(a.and(&b).is_subset(&a));
        prop_assert!(a.is_subset(&a.or(&b)));
    }

    #[test]
    fn refinement_laws(sets in proptest::collection::vec(arb_set(), 0..6)) {
        let p = PartitionSet::refine(UNIVERSE, &sets);
        // Classes are nonempty, disjoint, and exhaustive.
        let mut seen = NodeSet::empty(UNIVERSE);
        for c in p.classes() {
            prop_assert!(!c.is_empty());
            prop_assert!(seen.is_disjoint(c));
            seen = seen.or(c);
        }
        prop_assert_eq!(seen.len(), UNIVERSE);
        // Every input set is an exact union of classes.
        for s in &sets {
            let cover = p.cover(s).expect("refined set must be covered");
            let mut union = NodeSet::empty(UNIVERSE);
            for ix in cover {
                union = union.or(p.class(ix));
            }
            prop_assert_eq!(&union, s);
        }
        // Refinement is idempotent: refining again with class sets keeps
        // the class count.
        let again = PartitionSet::refine(
            UNIVERSE,
            p.classes(),
        );
        prop_assert_eq!(again.len(), p.len());
    }

    /// The classes and their order are what every caller indexes by, so a
    /// faster refinement must give exactly those of splitting every class:
    /// at one word (64 nodes) and at sixteen, the last one partial.
    #[test]
    fn refine_keeps_the_classes_and_order_of_splitting_every_class(
        narrow in arb_refining_sets(64),
        wide in arb_refining_sets(1000),
    ) {
        for (universe, sets) in [(64, &narrow), (1000, &wide)] {
            let p = PartitionSet::refine(universe, sets);
            prop_assert_eq!(p.classes(), refine_splitting_every_class(universe, sets).as_slice());
        }
    }

    /// Sets are values, however they share storage: over a pool that starts
    /// as two pairs of clones, every write to one set leaves the others as
    /// they were, and membership, size, subset and disjointness, `==` and
    /// `Hash` all agree with a `Vec<bool>` per set.
    #[test]
    fn aliased_sets_behave_as_values(
        program in proptest::collection::vec(
            (0u8..7, 0usize..POOL, 0usize..POOL, 0usize..POOL, 0u32..WIDE as u32),
            0..40,
        ),
    ) {
        let full = NodeSet::full(WIDE);
        let empty = NodeSet::empty(WIDE);
        let mut pool = vec![full.clone(), full, empty.clone(), empty];
        let mut model = vec![vec![true; WIDE], vec![true; WIDE], vec![false; WIDE], vec![false; WIDE]];
        for step in program {
            apply_alias_step(&mut pool, &mut model, step);
            for (set, bits) in pool.iter().zip(&model) {
                let ids: Vec<u32> = (0..WIDE as u32).filter(|&i| bits[i as usize]).collect();
                prop_assert_eq!(set.iter().map(|n| n.0).collect::<Vec<_>>(), ids.clone());
                prop_assert_eq!(set.len(), ids.len());
                prop_assert_eq!(set.is_empty(), ids.is_empty());
            }
            for i in 0..POOL {
                for j in 0..POOL {
                    let (a, b) = (&model[i], &model[j]);
                    let both = (0..WIDE).filter(|&x| a[x] && b[x]).count();
                    prop_assert_eq!(pool[i] == pool[j], a == b);
                    prop_assert_eq!(pool[i].is_subset(&pool[j]), (0..WIDE).all(|x| !a[x] || b[x]));
                    prop_assert_eq!(pool[i].is_disjoint(&pool[j]), both == 0);
                    prop_assert_eq!(pool[i].and_len(&pool[j]), both);
                    if a == b {
                        prop_assert_eq!(hash_of(&pool[i]), hash_of(&pool[j]));
                    }
                }
            }
        }
    }

    #[test]
    fn ledger_conserves_nodes(
        allocs in proptest::collection::vec(
            (proptest::collection::btree_set(0u32..UNIVERSE as u32, 1..8), 1u64..100),
            1..12,
        ),
    ) {
        let mut ledger = Ledger::new(UNIVERSE);
        let mut live: Vec<AllocHandle> = Vec::new();
        for (i, (ids, end)) in allocs.iter().enumerate() {
            let set = NodeSet::from_ids(UNIVERSE, ids.iter().map(|&x| NodeId(x)));
            let handle = AllocHandle(i as u64);
            let free_before = ledger.free_nodes().len();
            match ledger.allocate(handle, set.clone(), *end) {
                Ok(()) => {
                    live.push(handle);
                    prop_assert_eq!(ledger.free_nodes().len(), free_before - set.len());
                }
                Err(_) => {
                    // Failed allocations must not change state.
                    prop_assert_eq!(ledger.free_nodes().len(), free_before);
                }
            }
            // Conservation: free + busy == universe.
            prop_assert_eq!(ledger.free_nodes().len() + ledger.busy_count(), UNIVERSE);
        }
        // Availability is monotone in time.
        let all = NodeSet::full(UNIVERSE);
        let mut prev = 0;
        for t in (0..120).step_by(10) {
            let avail = ledger.avail_at(&all, t);
            prop_assert!(avail >= prev, "availability shrank over time");
            prev = avail;
        }
        // Releasing everything frees the universe.
        for h in live {
            ledger.release(h).expect("release live handle");
        }
        prop_assert_eq!(ledger.free_nodes().len(), UNIVERSE);
    }

    /// The contract of `allocation.rs`: a snapshot answers every query as
    /// the ledger would after `set_expected_end` on each revised pair —
    /// duplicates (the last wins), released and never-live handles (no-ops),
    /// ends equal to each other and to 0 included.
    #[test]
    fn availability_snapshot_equals_the_ledger_definition(
        parts in arb_ledger_parts(),
        revised in proptest::collection::vec((0u64..18, arb_end()), 0..8),
        queries in proptest::collection::vec((arb_wide_set(), arb_query_time()), 1..10),
    ) {
        let ledger = build_ledger(&parts);
        let revised: Vec<_> = revised.into_iter().map(|(h, end)| (AllocHandle(h), end)).collect();
        let mut applied = ledger.clone();
        for &(handle, end) in &revised {
            let live = applied.is_live(handle);
            prop_assert_eq!(applied.set_expected_end(handle, end).is_ok(), live);
        }
        let snapshot = ledger.availability(&revised);
        for (within, t) in &queries {
            prop_assert_eq!(snapshot.free_at(within, *t), applied.free_at(within, *t));
            prop_assert_eq!(snapshot.avail_at(within, *t), applied.avail_at(within, *t));
        }
    }

    /// Claims made the way a greedy cycle makes them — each drawn from the
    /// free set at its start minus the earlier claims it overlaps in time —
    /// answer as the list of `(held, start, end)` scanned per query did: the
    /// availability left for a set at `t`, and the nodes free to a gang over
    /// `[start, end)`. The first claim takes a node that a later announced
    /// window covers, the case where both over-subtract alike.
    #[test]
    fn claims_equal_the_commitment_list_scan(
        parts in arb_ledger_parts(),
        gangs in proptest::collection::vec((0u64..40, 1u64..25, 1usize..10), 0..12),
        queries in proptest::collection::vec((arb_wide_set(), arb_query_time()), 1..10),
        spans in proptest::collection::vec((0u64..50, 1u64..25), 1..6),
    ) {
        let mut ledger = build_ledger(&parts);
        let all = NodeSet::full(WIDE);
        let lowest_free = ledger.free_at(&all, 0).iter().next();
        if let Some(node) = lowest_free {
            ledger.announce(node, 10, 20);
        }
        let snapshot = ledger.availability(&[]);
        let free_over = |list: &[(NodeSet, Time, Time)], start: Time, end: Time| {
            let mut free = snapshot.free_at(&all, start);
            for (held, s, e) in list {
                if *s < end && start < *e {
                    free = free.minus(held);
                }
            }
            free
        };
        let mut list: Vec<(NodeSet, Time, Time)> = Vec::new();
        let mut claims = Claims::new(WIDE);
        for (start, dur, k) in std::iter::once((0, 15, 1)).chain(gangs) {
            let end = start + dur;
            let free = free_over(&list, start, end);
            prop_assert_eq!(&free, &snapshot.free_at(&all, start).minus(&claims.held_over(start, end)));
            let held = NodeSet::from_ids(WIDE, free.take(k));
            claims.claim(&held, start, end);
            list.push((held, start, end));
        }
        if let (Some(node), Some((held, ..))) = (lowest_free, list.first()) {
            prop_assert!(held.contains(node) && !snapshot.free_at(&all, 12).contains(node));
        }
        for (set, t) in &queries {
            let mut a = snapshot.avail_at(set, *t);
            for (held, start, end) in &list {
                if start <= t && t < end {
                    a = a.saturating_sub(held.and(set).len());
                }
            }
            let claimed = claims.held_at(*t).and_len(set);
            prop_assert_eq!(snapshot.avail_at(set, *t).saturating_sub(claimed), a);
        }
        for (start, dur) in spans {
            let held = claims.held_over(start, start + dur);
            let free = snapshot.free_at(&all, start).minus(&held);
            prop_assert_eq!(free, free_over(&list, start, start + dur));
        }
    }
}
