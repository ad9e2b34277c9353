//! Property-based tests (proptest) over the paper's invariants: whatever
//! the atom configuration, box, or path, the algebraic properties of §3
//! must hold on real data.

use proptest::prelude::*;
use shift_collapse_md::cell::{AtomStore, CellLattice, Species};
use shift_collapse_md::geom::{IVec3, SimulationBox, Vec3};
use shift_collapse_md::md::engine::{visit_pairs, visit_triplets, Dedup, PatternPlan};
use shift_collapse_md::md::reference;
use shift_collapse_md::pattern::ucp::single_path_chains;
use shift_collapse_md::pattern::{generate_fs, r_collapse, shift_collapse, Path, Pattern};
use std::collections::HashSet;

/// Strategy: a random atom store of 5–60 atoms in a box of edge 3–6 cutoffs.
fn atoms_in_box() -> impl Strategy<Value = (AtomStore, SimulationBox)> {
    (
        3.0f64..6.0,
        5usize..60,
        proptest::collection::vec((0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0), 60),
    )
        .prop_map(|(edge, n, coords)| {
            let bbox = SimulationBox::cubic(edge);
            let mut store = AtomStore::single_species();
            for (i, &(x, y, z)) in coords.iter().take(n).enumerate() {
                store.push(
                    i as u64,
                    Species::DEFAULT,
                    Vec3::new(x * edge, y * edge, z * edge),
                    Vec3::ZERO,
                );
            }
            (store, bbox)
        })
}

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

    /// Eq. 11 on real atoms: the SC pattern's filtered pair set equals the
    /// brute-force Γ*(2), for arbitrary configurations.
    #[test]
    fn sc_pairs_equal_brute_force((store, bbox) in atoms_in_box()) {
        let rcut = 1.0;
        let mut lat = CellLattice::new(bbox, rcut);
        lat.rebuild(&store);
        let plan = PatternPlan::new(&shift_collapse(2), Dedup::Collapsed);
        let mut found = HashSet::new();
        let mut dup = false;
        visit_pairs(&lat, &store, &plan, rcut, |i, j, _, _| {
            dup |= !found.insert((i.min(j), i.max(j)));
        });
        prop_assert!(!dup, "duplicate pair");
        let expect = reference::all_pairs(&store, &bbox, rcut);
        prop_assert_eq!(found, expect);
    }

    /// Same for triplets, against the brute-force Γ*(3).
    #[test]
    fn sc_triplets_equal_brute_force((store, bbox) in atoms_in_box()) {
        let rcut = 1.0;
        let mut lat = CellLattice::new(bbox, rcut);
        lat.rebuild(&store);
        let plan = PatternPlan::new(&shift_collapse(3), Dedup::Collapsed);
        let mut found = HashSet::new();
        let mut dup = false;
        visit_triplets(&lat, &store, &plan, rcut, |i, j, k, _, _| {
            dup |= !found.insert((i.min(k), j, i.max(k)));
        });
        prop_assert!(!dup, "duplicate triplet");
        let expect = reference::all_triplets(&store, &bbox, rcut);
        prop_assert_eq!(found, expect);
    }

    /// FS with the reflective guard visits exactly the same sets.
    #[test]
    fn fs_guarded_equals_sc((store, bbox) in atoms_in_box()) {
        let rcut = 1.0;
        let mut lat = CellLattice::new(bbox, rcut);
        lat.rebuild(&store);
        let fs = PatternPlan::new(&generate_fs(3), Dedup::Guarded);
        let sc = PatternPlan::new(&shift_collapse(3), Dedup::Collapsed);
        let collect = |plan: &PatternPlan| {
            let mut out = HashSet::new();
            visit_triplets(&lat, &store, plan, rcut, |i, j, k, _, _| {
                out.insert((i.min(k), j, i.max(k)));
            });
            out
        };
        prop_assert_eq!(collect(&fs), collect(&sc));
    }

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

    /// The distributed runtime reproduces serial forces for arbitrary atom
    /// configurations (2×2×2 ranks, soft pair potential).
    #[test]
    fn distributed_equals_serial_on_random_configs(
        coords in proptest::collection::vec((0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0), 8..40)
    ) {
        use shift_collapse_md::geom::IVec3;
        use shift_collapse_md::md::{Method, Simulation};
        use shift_collapse_md::parallel::rank::ForceField;
        use shift_collapse_md::potential::LennardJones;

        let edge = 12.0;
        let bbox = SimulationBox::cubic(edge);
        let mut store = AtomStore::single_species();
        for (i, &(x, y, z)) in coords.iter().enumerate() {
            store.push(i as u64, Species::DEFAULT, Vec3::new(x * edge, y * edge, z * edge), Vec3::ZERO);
        }
        // Soft, short-ranged pair potential keeps forces finite under
        // arbitrary overlaps.
        let pot = LennardJones::new(1e-3, 0.2, 2.5);
        let mut serial = Simulation::builder(store.clone(), bbox)
            .pair_potential(Box::new(pot))
            .method(Method::ShiftCollapse)
            .build()
            .unwrap();
        let s_serial = serial.compute_forces();
        let ff = ForceField {
            pair: Some(Box::new(pot)),
            triplet: None,
            quadruplet: None,
            method: Method::ShiftCollapse,
        };
        let mut dist = shift_collapse_md::parallel::DistributedSim::new(
            store, bbox, IVec3::splat(2), ff, 0.001,
        ).unwrap();
        let e_d = dist.total_energy();
        prop_assert!((e_d - s_serial.energy.total()).abs()
            < 1e-9 * s_serial.energy.total().abs().max(1e-12));
        prop_assert_eq!(dist.telemetry().tuples.pair.accepted, s_serial.tuples.pair.accepted);
    }

    /// Newton's third law holds for cell-enumerated LJ forces on arbitrary
    /// configurations.
    #[test]
    fn momentum_conservation((store, bbox) in atoms_in_box()) {
        use shift_collapse_md::md::{Method, Simulation};
        use shift_collapse_md::potential::LennardJones;
        let mut sim = Simulation::builder(store, bbox)
            .pair_potential(Box::new(LennardJones::new(1.0, 0.4, 1.0)))
            .method(Method::ShiftCollapse)
            .build()
            .unwrap();
        sim.compute_forces();
        let scale = sim
            .store()
            .forces()
            .iter()
            .map(|f| f.norm())
            .fold(1.0f64, f64::max);
        prop_assert!(sim.store().net_force().norm() < 1e-9 * scale);
    }
}
