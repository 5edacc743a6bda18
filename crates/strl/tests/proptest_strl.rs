//! Property tests for STRL: display/parse round-trips on randomly
//! generated expression trees.

use proptest::prelude::*;
use tetrisched_cluster::{NodeId, NodeSet};
use tetrisched_strl::{parse, StrlExpr};

const UNIVERSE: usize = 16;

fn arb_nodeset() -> impl Strategy<Value = NodeSet> {
    proptest::collection::btree_set(0u32..UNIVERSE as u32, 0..6)
        .prop_map(|ids| NodeSet::from_ids(UNIVERSE, ids.into_iter().map(NodeId)))
}

fn arb_leaf() -> impl Strategy<Value = StrlExpr> {
    (
        arb_nodeset(),
        0u32..5,
        0u64..20,
        1u64..10,
        // Values with one decimal digit so Display/parse round-trips exactly.
        (0i64..100).prop_map(|v| v as f64 / 2.0),
        prop::bool::ANY,
    )
        .prop_map(|(set, k, s, dur, v, linear)| {
            if linear {
                StrlExpr::lnck(set, k, s, dur, v)
            } else {
                StrlExpr::nck(set, k, s, dur, v)
            }
        })
}

fn arb_expr() -> impl Strategy<Value = StrlExpr> {
    arb_leaf().prop_recursive(4, 64, 4, |inner| {
        prop_oneof![
            proptest::collection::vec(inner.clone(), 1..4).prop_map(StrlExpr::Max),
            proptest::collection::vec(inner.clone(), 1..4).prop_map(StrlExpr::Min),
            proptest::collection::vec(inner.clone(), 1..4).prop_map(StrlExpr::Sum),
            ((1i64..8).prop_map(|s| s as f64 / 2.0), inner.clone())
                .prop_map(|(f, c)| StrlExpr::scale(f, c)),
            ((0i64..20).prop_map(|v| v as f64 / 2.0), inner)
                .prop_map(|(v, c)| StrlExpr::barrier(v, c)),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn display_parse_roundtrip(e in arb_expr()) {
        let text = e.to_string();
        let parsed = parse(&text, UNIVERSE).unwrap();
        prop_assert_eq!(e, parsed);
    }
}
