//! Property-based tests of the Morton-ordered atom layout: re-sorting the
//! store along the Z-order curve is a *pure permutation* of slots. Every
//! physical observable — energies, per-species populations, net momentum —
//! and every tuple-enumeration counter must be unchanged, because the
//! filtered n-tuple force set is a set of atom *ids*, not slots.

use proptest::prelude::*;
use sc_cell::{AtomStore, CellLattice, Species};
use sc_geom::{IVec3, SimulationBox, Vec3};
use sc_md::{ForceField, Method};
use sc_parallel::DistributedSim;
use sc_potential::{LennardJones, StillingerWeber};

/// Random two-species gas in a cubic box large enough for the test cutoffs
/// (pair 1.6, triplet 0.9: the 3-cutoff minimum-image guard needs L ≥ 4.8).
fn store_strategy() -> impl Strategy<Value = (AtomStore, SimulationBox)> {
    (
        6.0f64..12.0,
        proptest::collection::vec(
            (0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0, -1.0f64..1.0, 0u8..2),
            8..64,
        ),
    )
        .prop_map(|(l, rows)| {
            let bbox = SimulationBox::cubic(l);
            let mut store = AtomStore::new(vec![1.0, 2.5]);
            for (i, &(x, y, z, v, s)) in rows.iter().enumerate() {
                store.push(
                    i as u64,
                    Species(s),
                    Vec3::new(x * l, y * l, z * l),
                    Vec3::new(v, -0.7 * v, 0.3 * v),
                );
            }
            (store, bbox)
        })
}

/// A serial run (one rank) over `store`. Forces are computed without a
/// step, so the engine never re-sorts behind the test's back.
fn build_sim(store: AtomStore, bbox: SimulationBox, method: Method) -> DistributedSim {
    let sw = {
        let mut s = StillingerWeber::silicon();
        let scale = 0.9 / (s.a * s.sigma);
        s.sigma *= scale;
        s
    };
    let ff = ForceField {
        pair: Some(Box::new(LennardJones::reduced(1.6))),
        triplet: Some(Box::new(sw)),
        quadruplet: None,
        method,
    };
    DistributedSim::new(store, bbox, IVec3::splat(1), ff, 0.001).unwrap()
}

fn species_counts(store: &AtomStore) -> [usize; 2] {
    let mut c = [0usize; 2];
    for s in store.species() {
        c[s.0 as usize] += 1;
    }
    c
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The permutation itself is pure: after `sort_by_cell` the store holds
    /// exactly the same (id, species, position, velocity) rows, bitwise,
    /// just in a different slot order — and sorting twice is a no-op.
    #[test]
    fn morton_sort_is_a_pure_permutation((store, bbox) in store_strategy()) {
        let mut sorted = store.clone();
        let lat = CellLattice::new(bbox, 1.6);
        sorted.sort_by_cell(&lat);
        prop_assert_eq!(sorted.len(), store.len());
        prop_assert_eq!(species_counts(&sorted), species_counts(&store));
        // Momentum is a sum over slots; permutation-invariance to 1e-12.
        prop_assert!((sorted.net_momentum() - store.net_momentum()).norm() < 1e-12);
        prop_assert!((sorted.kinetic_energy() - store.kinetic_energy()).abs() < 1e-12);
        // Undo through the id sort: rows must match the original bitwise.
        let mut back = sorted.clone();
        back.sort_by_id();
        let mut orig = store.clone();
        orig.sort_by_id();
        for i in 0..orig.len() {
            prop_assert_eq!(back.ids()[i], orig.ids()[i]);
            prop_assert_eq!(back.species()[i], orig.species()[i]);
            prop_assert_eq!(back.positions()[i].x.to_bits(), orig.positions()[i].x.to_bits());
            prop_assert_eq!(back.positions()[i].y.to_bits(), orig.positions()[i].y.to_bits());
            prop_assert_eq!(back.positions()[i].z.to_bits(), orig.positions()[i].z.to_bits());
            prop_assert_eq!(back.velocities()[i].x.to_bits(), orig.velocities()[i].x.to_bits());
        }
        // Idempotent: a second sort with the same lattice changes nothing.
        let mut twice = sorted.clone();
        twice.sort_by_cell(&lat);
        prop_assert_eq!(twice.ids(), sorted.ids());
    }

    /// Physics is layout-blind: a force computation on the Morton-sorted
    /// store visits exactly the same tuple set (identical `VisitStats`
    /// counters) and reproduces energies and net momentum to summation
    /// round-off, for every traversal method.
    #[test]
    fn resort_preserves_observables_and_tuple_counters(
        (store, bbox) in store_strategy(),
        method_ix in 0usize..3,
    ) {
        let method = Method::ALL[method_ix];
        let mut sorted_store = store.clone();
        sorted_store.sort_by_cell(&CellLattice::new(bbox, 1.6));

        let mut a = build_sim(store, bbox, method);
        let mut b = build_sim(sorted_store, bbox, method);
        a.total_energy();
        b.total_energy();
        let (sa, sb) = (a.telemetry(), b.telemetry());

        // Tuple enumeration counters are *exactly* identical: the filtered
        // n-tuple set is defined on atom ids and cutoffs, never on slots.
        prop_assert_eq!(sa.tuples.pair.candidates, sb.tuples.pair.candidates);
        prop_assert_eq!(sa.tuples.pair.accepted, sb.tuples.pair.accepted);
        prop_assert_eq!(sa.tuples.triplet.candidates, sb.tuples.triplet.candidates);
        prop_assert_eq!(sa.tuples.triplet.accepted, sb.tuples.triplet.accepted);
        prop_assert_eq!(sa.tuples.quadruplet.accepted, sb.tuples.quadruplet.accepted);

        // Scalars agree to accumulation-order round-off.
        let tol = 1e-12;
        prop_assert!((sa.energy.pair - sb.energy.pair).abs() <= tol * sa.energy.pair.abs().max(1.0));
        prop_assert!(
            (sa.energy.triplet - sb.energy.triplet).abs()
                <= tol * sa.energy.triplet.abs().max(1.0)
        );
        prop_assert!((sa.virial - sb.virial).abs() <= tol * sa.virial.abs().max(1.0));
        let (mut fa, mut fb) = (a.gather(), b.gather());
        prop_assert!((fa.net_momentum() - fb.net_momentum()).norm() < 1e-12);

        // Per-atom forces line up through the id → slot indirection. A
        // random gas has near-overlapping pairs with enormous r⁻¹³ forces,
        // so round-off tolerances must scale with the largest force in the
        // system, not with unity.
        fa.sort_by_id();
        fb.sort_by_id();
        let fmax = fa.forces().iter().map(|f| f.norm()).fold(1.0f64, f64::max);
        let n = fa.len() as f64;
        prop_assert!(
            (fa.net_force() - fb.net_force()).norm() <= 1e-12 * fmax * n
        );
        for i in 0..fa.len() {
            prop_assert_eq!(fa.ids()[i], fb.ids()[i]);
            let df = (fa.forces()[i] - fb.forces()[i]).norm();
            prop_assert!(df <= 1e-12 * fmax, "atom {} force mismatch {}", fa.ids()[i], df);
        }
    }
}
