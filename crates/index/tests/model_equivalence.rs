//! Every backend must answer byte-identically to a reference model
//! under randomized op interleavings.

use std::collections::BTreeMap;

use proptest::prelude::*;
use shhc_index::{AnyIndex, BackendKind, Collection, CollectionHandle};

#[derive(Debug, Clone)]
enum Op {
    Get(u64),
    Insert(u64, u64),
    InsertIfAbsent(u64, u64),
    Remove(u64),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // Keys drawn from a small domain so gets/removes hit often; the
    // vendored prop_oneof! picks uniformly among the arms.
    prop_oneof![
        (0u64..64).prop_map(Op::Get),
        ((0u64..64), any::<u64>()).prop_map(|(k, v)| Op::Insert(k, v)),
        ((0u64..64), any::<u64>()).prop_map(|(k, v)| Op::InsertIfAbsent(k, v)),
        (0u64..64).prop_map(Op::Remove),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Sequential interleavings: every backend returns exactly what the
    /// model map returns, op by op, and ends with identical contents.
    #[test]
    fn prop_backends_match_model(ops in proptest::collection::vec(op_strategy(), 1..300)) {
        for kind in BackendKind::ALL {
            let index: AnyIndex<u64, u64> = AnyIndex::with_stripes(kind, 0, 4);
            let mut handle = index.pin();
            let mut model: BTreeMap<u64, u64> = BTreeMap::new();
            for (i, op) in ops.iter().enumerate() {
                match op {
                    Op::Get(k) => {
                        prop_assert_eq!(
                            handle.get(k), model.get(k).copied(),
                            "{} get({}) diverged at op {}", kind, k, i
                        );
                    }
                    Op::Insert(k, v) => {
                        prop_assert_eq!(
                            handle.insert(*k, *v), model.insert(*k, *v),
                            "{} insert({}) diverged at op {}", kind, k, i
                        );
                    }
                    Op::InsertIfAbsent(k, v) => {
                        let expect = model.get(k).copied();
                        if expect.is_none() {
                            model.insert(*k, *v);
                        }
                        prop_assert_eq!(
                            handle.insert_if_absent(*k, *v), expect,
                            "{} insert_if_absent({}) diverged at op {}", kind, k, i
                        );
                    }
                    Op::Remove(k) => {
                        prop_assert_eq!(
                            handle.remove(k), model.remove(k),
                            "{} remove({}) diverged at op {}", kind, k, i
                        );
                    }
                }
            }
            prop_assert_eq!(index.len(), model.len(), "{} final len diverged", kind);
            let mut entries = index.snapshot_entries();
            entries.sort_unstable();
            let expected: Vec<(u64, u64)> = model.into_iter().collect();
            prop_assert_eq!(entries, expected, "{} final contents diverged", kind);
        }
    }

    /// A handle pinned before a burst of writes on another handle still
    /// reads the latest values.
    #[test]
    fn prop_stale_handles_read_fresh_data(
        writes in proptest::collection::vec(((0u64..64), any::<u64>()), 1..100),
    ) {
        for kind in BackendKind::ALL {
            let index: AnyIndex<u64, u64> = AnyIndex::with_stripes(kind, 0, 4);
            let mut stale = index.pin();
            let mut writer = index.pin();
            let mut model: BTreeMap<u64, u64> = BTreeMap::new();
            for (k, v) in &writes {
                writer.insert(*k, *v);
                model.insert(*k, *v);
            }
            for (k, expect) in &model {
                prop_assert_eq!(stale.get(k), Some(*expect), "{} stale read of {}", kind, k);
            }
        }
    }
}
