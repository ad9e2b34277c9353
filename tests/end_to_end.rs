//! Cross-crate end-to-end tests: the full pipeline from pattern algebra
//! through serial MD (the one engine on a 1×1×1 grid) to larger rank
//! grids, exercised through the umbrella crate's public API exactly as a
//! downstream user would.

use shift_collapse_md::geom::IVec3;
use shift_collapse_md::md::Method;
use shift_collapse_md::potential::{PairPotential, QuadrupletPotential, TripletPotential};
use shift_collapse_md::prelude::*;

/// The silica force field with `pair` as its two-body term.
fn silica_ff(pair: Box<dyn PairPotential>, method: Method) -> ForceField {
    let triplet: Box<dyn TripletPotential> = Box::new(Vashishta::silica().triplet);
    ForceField { pair: Some(pair), triplet: Some(triplet), quadruplet: None, method }
}

/// A serial run: one rank.
fn serial((store, bbox): (AtomStore, SimulationBox), ff: ForceField, dt: f64) -> DistributedSim {
    DistributedSim::new(store, bbox, IVec3::splat(1), ff, dt).unwrap()
}

#[test]
fn silica_pipeline_end_to_end() {
    // The paper's benchmark app: pair + triplet silica, 20 NVE steps.
    let v = Vashishta::silica();
    let system = build_silica_like(3, 7.16, v.params().masses, 0.01, 99);
    let mut sim = serial(system, silica_ff(Box::new(v.pair), Method::ShiftCollapse), 0.0005);
    let e0 = sim.total_energy();
    sim.run(20);
    let e1 = sim.total_energy();
    assert!(((e1 - e0) / e0.abs()).abs() < 5e-4, "silica NVE drift over 20 steps: {e0} → {e1}");
    // Both tuple orders are being computed dynamically.
    let t = sim.telemetry().tuples;
    assert!(t.pair.accepted > 0 && t.triplet.accepted > 0);
    // Momentum conservation through many-body forces.
    assert!(sim.gather().net_force().norm() < 1e-7);
}

#[test]
fn serial_and_distributed_silica_agree_through_time() {
    let v = Vashishta::silica();
    let (store, bbox) = build_silica_like(4, 7.16, v.params().masses, 0.01, 5);
    let ff = || silica_ff(Box::new(v.pair.clone()), Method::ShiftCollapse);
    let mut serial = serial((store.clone(), bbox), ff(), 0.0005);
    let mut dist = DistributedSim::new(store, bbox, IVec3::new(2, 2, 1), ff(), 0.0005).unwrap();
    serial.run(5);
    dist.run(5);
    let gathered = dist.gather();
    // Both gathers are in id order, however each grid re-sorted its ranks.
    let snapshot = serial.gather();
    let sp = snapshot.positions();
    for (i, (&id, &r)) in gathered.ids().iter().zip(gathered.positions()).enumerate() {
        assert_eq!(id, i as u64);
        assert_eq!(snapshot.ids()[i], id);
        let dr = bbox.min_image(r, sp[i]).norm();
        assert!(dr < 1e-6, "atom {i} drifted {dr} between serial and distributed");
    }
}

#[test]
fn every_method_finds_the_same_physics_with_all_terms() {
    // LJ + SW-triplet + torsion on one system: n = 2, 3, 4 all active.
    let torsion = TorsionToy::new(0.02, 1.0, 0.3);
    let mut energies = vec![];
    for method in Method::ALL {
        let system = build_fcc_lattice(&LatticeSpec::cubic(6, 1.2), 0.05, 21);
        let quadruplet: Box<dyn QuadrupletPotential> = Box::new(torsion);
        let ff = ForceField {
            pair: Some(Box::new(LennardJones::reduced(1.2))),
            triplet: Some(Box::new(ScaledSw::new(0.9))),
            quadruplet: Some(quadruplet),
            method,
        };
        let mut sim = serial(system, ff, 0.001);
        sim.total_energy();
        let st = sim.telemetry();
        assert!(st.tuples.triplet.accepted > 0, "{}", method.name());
        assert!(st.tuples.quadruplet.accepted > 0, "{}", method.name());
        energies.push((st.energy.pair, st.energy.triplet, st.energy.quadruplet));
    }
    for e in &energies[1..] {
        assert!((e.0 - energies[0].0).abs() < 1e-8 * energies[0].0.abs().max(1.0));
        assert!((e.1 - energies[0].1).abs() < 1e-8 * energies[0].1.abs().max(1.0));
        assert!((e.2 - energies[0].2).abs() < 1e-8 * energies[0].2.abs().max(1.0));
    }
}

/// A Stillinger-Weber triplet term rescaled to a shorter cutoff so it fits
/// the reduced-unit LJ test box (the SW cutoff itself is 3.77 Å).
struct ScaledSw {
    inner: StillingerWeber,
    scale: f64,
}

impl ScaledSw {
    fn new(rcut: f64) -> Self {
        let mut inner = StillingerWeber::silicon();
        // Shrink σ so a·σ = rcut.
        let scale = rcut / (inner.a * inner.sigma);
        inner.sigma *= scale;
        ScaledSw { inner, scale }
    }
}

impl shift_collapse_md::potential::TripletPotential for ScaledSw {
    fn cutoff(&self) -> f64 {
        self.inner.a * self.inner.sigma
    }
    fn eval(
        &self,
        s0: Species,
        s1: Species,
        s2: Species,
        d10: shift_collapse_md::geom::Vec3,
        d12: shift_collapse_md::geom::Vec3,
    ) -> (
        f64,
        shift_collapse_md::geom::Vec3,
        shift_collapse_md::geom::Vec3,
        shift_collapse_md::geom::Vec3,
    ) {
        let _ = self.scale;
        shift_collapse_md::potential::TripletPotential::eval(&self.inner, s0, s1, s2, d10, d12)
    }
}

#[test]
fn tabulated_silica_pair_term_matches_analytic() {
    // Swap the Vashishta 2-body term for its cubic-Hermite table: energies
    // and trajectories must agree to interpolation accuracy.
    let v = Vashishta::silica();
    let masses = v.params().masses;
    let system = build_silica_like(3, 7.16, masses, 0.01, 31);
    let bbox = system.1;
    let tab = TabulatedPair::from_potential(&v.pair, 2, 1.0, 8000);
    let sc = Method::ShiftCollapse;
    let mut analytic = serial(system.clone(), silica_ff(Box::new(v.pair.clone()), sc), 0.0005);
    let mut tabulated = serial(system, silica_ff(Box::new(tab), sc), 0.0005);
    let pair_energy = |sim: &mut DistributedSim| {
        sim.total_energy();
        sim.telemetry().energy.pair
    };
    let (ea, et) = (pair_energy(&mut analytic), pair_energy(&mut tabulated));
    assert!(((ea - et) / ea).abs() < 1e-6, "tabulated pair energy {et} vs analytic {ea}");
    analytic.run(5);
    tabulated.run(5);
    let (a, b) = (analytic.gather(), tabulated.gather());
    for (a, b) in a.positions().iter().zip(b.positions()) {
        assert!(bbox.min_image(*a, *b).norm() < 1e-5);
    }
    // The table conserves its own energy as well as the analytic form.
    let e0 = tabulated.total_energy();
    tabulated.run(20);
    let e1 = tabulated.total_energy();
    assert!(((e1 - e0) / e0.abs()).abs() < 5e-4, "tabulated NVE drift {e0} → {e1}");
}

#[test]
fn pattern_theory_matches_construction_through_public_api() {
    use shift_collapse_md::pattern::theory;
    for n in 2..=4 {
        assert_eq!(generate_fs(n).len() as u64, theory::fs_path_count(n));
        assert_eq!(shift_collapse(n).len() as u64, theory::sc_path_count(n));
    }
    assert_eq!(half_shell().len(), 14);
    assert_eq!(eighth_shell().import_offsets().len(), 7);
}

/// Long NVE stability soak — run explicitly with
/// `cargo test --release -- --ignored long_nve`.
#[test]
#[ignore = "soak test: ~minutes in release"]
fn long_nve_silica_stability() {
    let v = Vashishta::silica();
    let system = build_silica_like(3, 7.16, v.params().masses, 0.01, 17);
    let mut sim = serial(system, silica_ff(Box::new(v.pair), Method::ShiftCollapse), 0.0005);
    let e0 = sim.total_energy();
    sim.run(2000);
    let e1 = sim.total_energy();
    assert!(((e1 - e0) / e0.abs()).abs() < 5e-3, "2000-step NVE drift: {e0} → {e1}");
}

/// Distributed soak: hot LJ gas on 8 ranks for many steps — migration,
/// ghost exchange, and reduction under sustained churn.
#[test]
#[ignore = "soak test: ~minutes in release"]
fn long_distributed_soak() {
    let (mut store, bbox) = build_fcc_lattice(&LatticeSpec::cubic(7, 1.5599), 1.0, 42);
    shift_collapse_md::md::thermalize(&mut store, 2.0, 9);
    let n0 = store.len();
    let ff = ForceField {
        pair: Some(Box::new(LennardJones::reduced(2.5))),
        triplet: None,
        quadruplet: None,
        method: Method::ShiftCollapse,
    };
    let mut d = DistributedSim::new(store, bbox, IVec3::splat(2), ff, 0.001).unwrap();
    let e0 = d.total_energy();
    d.run(500);
    let e1 = d.total_energy();
    assert_eq!(d.gather().len(), n0);
    assert!(((e1 - e0) / e0.abs()).abs() < 5e-3, "distributed drift {e0} → {e1}");
    assert!(d.comm_stats().atoms_migrated > 100, "hot gas must migrate plenty");
}

#[test]
fn cost_model_reproduces_figure_shapes() {
    use shift_collapse_md::netmodel::SilicaWorkload;
    for machine in [MachineProfile::xeon(), MachineProfile::bgq()] {
        let model = MdCostModel::new(SilicaWorkload::silica(), machine);
        // SC wins at the paper's finest grain…
        let sc = model.step_time(Method::ShiftCollapse, 24.0).total_s();
        let hy = model.step_time(Method::Hybrid, 24.0).total_s();
        assert!(hy / sc > 2.0);
        // …and Hybrid takes over at coarse grain.
        let x = model
            .crossover(Method::ShiftCollapse, Method::Hybrid, 24.0, 1e6)
            .expect("crossover exists");
        assert!(x > 100.0);
    }
}
