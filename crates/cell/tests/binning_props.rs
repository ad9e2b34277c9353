//! Property-based tests of the cell data structures: binning must be a
//! partition, ghost lattices must respect their regions, and the store's
//! bulk observables must obey their algebraic identities.

use proptest::prelude::*;
use sc_cell::{AtomStore, CellLattice, GhostLattice, Species};
use sc_geom::{IVec3, SimulationBox, Vec3};

fn store_strategy() -> impl Strategy<Value = (AtomStore, SimulationBox)> {
    (
        4.0f64..12.0,
        proptest::collection::vec((0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0, -1.0f64..1.0), 1..80),
    )
        .prop_map(|(l, rows)| {
            let bbox = SimulationBox::cubic(l);
            let mut store = AtomStore::single_species();
            for (i, &(x, y, z, v)) in rows.iter().enumerate() {
                store.push(
                    i as u64,
                    Species::DEFAULT,
                    Vec3::new(x * l, y * l, z * l),
                    Vec3::new(v, -v, 0.5 * v),
                );
            }
            (store, bbox)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Binning is a partition: every atom in exactly one cell, and in the
    /// cell its position maps to.
    #[test]
    fn binning_is_a_partition((store, bbox) in store_strategy(), rcut in 1.0f64..2.5) {
        prop_assume!(bbox.lengths().x / rcut >= 3.0);
        let mut lat = CellLattice::new(bbox, rcut);
        lat.rebuild(&store);
        let mut seen = vec![0u32; store.len()];
        for q in lat.cells() {
            for &a in lat.cell_atoms(q) {
                seen[a as usize] += 1;
                prop_assert_eq!(lat.cell_of(store.positions()[a as usize]), q);
            }
        }
        prop_assert!(seen.iter().all(|&s| s == 1));
    }

    /// Rebuild is deterministic: two rebuilds give identical bins.
    #[test]
    fn rebuild_is_deterministic((store, bbox) in store_strategy()) {
        prop_assume!(bbox.lengths().x >= 3.0);
        let mut a = CellLattice::new(bbox, 1.0);
        let mut b = CellLattice::new(bbox, 1.0);
        a.rebuild(&store);
        b.rebuild(&store);
        for q in a.cells() {
            prop_assert_eq!(a.cell_atoms(q), b.cell_atoms(q));
        }
    }

    /// Kinetic energy and momentum identities: E_k ≥ 0, rescaling hits the
    /// target exactly, drift removal zeroes momentum and never raises E_k
    /// (removing the centre-of-mass motion only removes energy).
    #[test]
    fn store_observables((mut store, _bbox) in store_strategy(), t_target in 0.1f64..5.0) {
        prop_assume!(store.len() >= 2);
        let ek = store.kinetic_energy();
        prop_assert!(ek >= 0.0);
        let before = store.kinetic_energy();
        store.remove_drift();
        prop_assert!(store.net_momentum().norm() < 1e-9);
        prop_assert!(store.kinetic_energy() <= before + 1e-9);
        if store.kinetic_energy() > 0.0 {
            store.rescale_to_temperature(t_target);
            prop_assert!((store.temperature() - t_target).abs() < 1e-9);
        }
    }

    /// Ghost lattices only bin atoms inside their extended region, owned
    /// ones first.
    #[test]
    fn ghost_lattice_respects_region((store, _bbox) in store_strategy(), hi in 0i32..3) {
        let mut lat = GhostLattice::new(
            Vec3::splat(2.0),
            Vec3::splat(3.0),
            IVec3::splat(3),
            IVec3::ZERO,
            IVec3::splat(hi),
        );
        lat.rebuild(&store, store.len());
        let region = lat.extended_region();
        let mut binned = 0usize;
        for q in region.iter() {
            for &a in lat.cell_atoms(q) {
                binned += 1;
                prop_assert_eq!(lat.local_cell_of(store.positions()[a as usize]), q);
            }
        }
        // Exactly the atoms whose local cell is in the region are binned.
        let expect = store
            .positions()
            .iter()
            .filter(|&&r| region.contains(lat.local_cell_of(r)))
            .count();
        prop_assert_eq!(binned, expect);
        // Out-of-region queries are empty rather than panicking.
        prop_assert!(lat.cell_atoms_or_empty(IVec3::splat(-10)).is_empty());
    }
}
