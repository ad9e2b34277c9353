//! Property-based tests (proptest) over the paper's path algebra: whatever
//! the path, the properties of §3 must hold. The tuple sets, forces and net
//! force they imply on real atoms are checked by the parity sweep
//! (`tests/parity.rs`).

use proptest::prelude::*;
use shift_collapse_md::geom::IVec3;
use shift_collapse_md::pattern::ucp::single_path_chains;
use shift_collapse_md::pattern::{r_collapse, Path, Pattern};

/// Strategy: a random origin-anchored neighbour walk of length n.
fn neighbor_walk(n: usize) -> impl Strategy<Value = Path> {
    proptest::collection::vec((-1i32..=1, -1i32..=1, -1i32..=1), n - 1).prop_map(|steps| {
        let mut v = vec![IVec3::ZERO];
        for (x, y, z) in steps {
            let last = *v.last().unwrap();
            v.push(last + IVec3::new(x, y, z));
        }
        Path::new(v)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Theorem 1 for arbitrary neighbour walks and arbitrary shifts.
    #[test]
    fn path_shift_invariance(p in neighbor_walk(3), dx in -5i32..5, dy in -5i32..5, dz in -5i32..5) {
        let dims = IVec3::splat(5);
        let shifted = p.shifted(IVec3::new(dx, dy, dz));
        prop_assert_eq!(
            single_path_chains(dims, &p),
            single_path_chains(dims, &shifted)
        );
    }

    /// Lemma 3/6 for arbitrary neighbour walks: the reflective twin exists,
    /// is origin-anchored, and generates the same chain set.
    #[test]
    fn reflective_twin_equivalence(p in neighbor_walk(4)) {
        let twin = p.reflective_twin();
        prop_assert_eq!(twin.offset(0), IVec3::ZERO);
        prop_assert_eq!(twin.sigma(), p.inverse().sigma());
        let dims = IVec3::splat(5);
        prop_assert_eq!(single_path_chains(dims, &p), single_path_chains(dims, &twin));
    }

    /// R-COLLAPSE is idempotent and never drops an equivalence class.
    #[test]
    fn r_collapse_idempotent(paths in proptest::collection::vec(neighbor_walk(3), 1..20)) {
        let pat = Pattern::new(paths);
        let once = r_collapse(&pat);
        let twice = r_collapse(&once);
        prop_assert_eq!(once.len(), twice.len());
        // Every original path still has an equivalent representative.
        for p in pat.iter() {
            prop_assert!(once.iter().any(|q| q.is_equivalent(p)));
        }
        // And no two retained paths are equivalent.
        for (i, p) in once.iter().enumerate() {
            for q in once.iter().skip(i + 1) {
                prop_assert!(!p.is_equivalent(q));
            }
        }
    }
}
