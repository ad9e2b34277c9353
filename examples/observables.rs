//! Physical observables over the SC tuple machinery: melt an LJ crystal and
//! watch the radial distribution function lose its crystalline peaks while
//! the mean-squared displacement turns diffusive — plus one energy of a
//! tabulated LJ against the analytic form it was built from.
//!
//! Run: `cargo run --release --example observables`

use shift_collapse_md::md::Method;
use shift_collapse_md::potential::PairPotential;
use shift_collapse_md::prelude::*;

fn main() {
    let lj = LennardJones::reduced(2.5);
    let (store, bbox) = build_fcc_lattice(&LatticeSpec::cubic(6, 1.5599), 0.1, 42);
    println!("melting a {}-atom LJ crystal (T* target 1.8)", store.len());

    let ff = |pair: Box<dyn PairPotential>| ForceField {
        pair: Some(pair),
        triplet: None,
        quadruplet: None,
        method: Method::ShiftCollapse,
    };
    let melt = EngineConfig { thermostat: Some((1.8, 0.05)), ..EngineConfig::default() };
    let mut sim =
        DistributedSim::build(store, bbox, IVec3::splat(1), ff(Box::new(lj)), 0.002, melt)
            .expect("valid simulation");
    let bbox = *sim.grid().bbox();

    let mut rdf_cold = RadialDistribution::new(2.5, 60);
    rdf_cold.accumulate(&sim.gather(), &bbox);
    let mut msd = MeanSquaredDisplacement::new(&sim.gather());

    for block in 0..6 {
        sim.run(150);
        let store = sim.gather();
        msd.record(&store, &bbox);
        println!(
            "step {:>4}: T* = {:.3}  P* = {:+.3}  MSD = {:.3}",
            (block + 1) * 150,
            store.temperature(),
            pair_virial_pressure(&store, &bbox, &LennardJones::reduced(2.5)),
            msd.value(),
        );
    }

    let mut rdf_hot = RadialDistribution::new(2.5, 60);
    rdf_hot.accumulate(&sim.gather(), &bbox);

    let peak = |rdf: &RadialDistribution| {
        rdf.normalized().into_iter().max_by(|a, b| a.1.partial_cmp(&b.1).unwrap()).unwrap()
    };
    let (rc, gc) = peak(&rdf_cold);
    let (rh, gh) = peak(&rdf_hot);
    println!();
    println!("g(r) peak, crystal: g({rc:.2}) = {gc:.1}   melt: g({rh:.2}) = {gh:.1}");
    println!("(the crystal's δ-like nearest-neighbour peak collapses into a liquid shell)");

    // Tabulated potential: same physics from a cubic-Hermite table.
    let tab = TabulatedPair::from_potential(&LennardJones::reduced(2.5), 1, 0.7, 4000);
    let (store2, bbox2) = build_fcc_lattice(&LatticeSpec::cubic(6, 1.5599), 0.1, 42);
    let one_rank =
        |(store, bbox), pair| DistributedSim::new(store, bbox, IVec3::splat(1), ff(pair), 0.002);
    let mut tab_sim = one_rank((store2, bbox2), Box::new(tab)).expect("valid simulation");
    let e_tab = tab_sim.total_energy();
    let system = build_fcc_lattice(&LatticeSpec::cubic(6, 1.5599), 0.1, 42);
    let mut ana_sim =
        one_rank(system, Box::new(LennardJones::reduced(2.5))).expect("valid simulation");
    let e_ana = ana_sim.total_energy();
    println!();
    println!(
        "tabulated vs analytic LJ total energy: {e_tab:.6} vs {e_ana:.6} (Δrel = {:.1e})",
        ((e_tab - e_ana) / e_ana).abs()
    );
}
