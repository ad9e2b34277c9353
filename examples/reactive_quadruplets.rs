//! Dynamic n = 4 tuple computation: the regime that motivates the paper
//! (reactive force fields evaluate explicit 4-body torsions over
//! dynamically discovered bonded chains, §1). A torsion-like quadruplet
//! potential runs on top of a Lennard-Jones liquid, with the SC(4) pattern
//! doing the chain search — 9 855 paths instead of full shell's 19 683
//! (Eq. 29), with the same force set.
//!
//! Run: `cargo run --release --example reactive_quadruplets`

use shift_collapse_md::md::Method;
use shift_collapse_md::pattern::theory;
use shift_collapse_md::prelude::*;

fn main() {
    println!(
        "SC(4): {} paths vs FS(4): {} paths (ratio {:.3})",
        theory::sc_path_count(4),
        theory::fs_path_count(4),
        theory::fs_over_sc_ratio(4)
    );
    let torsion = TorsionToy::new(0.05, 1.0, 0.3);
    let mut results = vec![];
    for method in Method::ALL {
        let (store, bbox) = build_fcc_lattice(&LatticeSpec::cubic(5, 1.2), 0.05, 13);
        let ff = ForceField {
            pair: Some(Box::new(LennardJones::reduced(1.2))),
            triplet: None,
            quadruplet: Some(Box::new(torsion)),
            method,
        };
        let mut sim =
            DistributedSim::new(store, bbox, IVec3::splat(1), ff, 0.001).expect("valid simulation");
        sim.total_energy();
        let stats = sim.telemetry();
        println!(
            "{:<10} E4 = {:>9.4} | quad chains found: {:>7} (searched {:>9} candidates)",
            method.name(),
            stats.energy.quadruplet,
            stats.tuples.quadruplet.accepted,
            stats.tuples.quadruplet.candidates,
        );
        results.push((stats.energy.quadruplet, stats.tuples.quadruplet.accepted));
        sim.run(10);
    }
    let (e0, n0) = results[0];
    assert!(results.iter().all(|&(e, n)| (e - e0).abs() < 1e-8 && n == n0));
    println!();
    println!("identical 4-body energies and chain counts under all three methods —");
    println!("the SC pattern finds every bonded chain exactly once (Theorem 2).");
}
