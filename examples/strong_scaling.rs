//! Distributed MD on the in-process message-passing runtime, plus the
//! calibrated machine model's strong-scaling projection — the workflow
//! behind Fig. 9.
//!
//! Run: `cargo run --release --example strong_scaling`

use shift_collapse_md::geom::IVec3;
use shift_collapse_md::md::Method;
use shift_collapse_md::parallel::rank::ForceField;
use shift_collapse_md::prelude::*;

fn main() {
    // Part 1: a real distributed run on 8 in-process ranks — every ghost
    // atom, halo message, and force reduction actually happens.
    let (store, bbox) = build_fcc_lattice(&LatticeSpec::cubic(7, 1.5599), 0.3, 42);
    println!("== 8-rank distributed LJ run (in-process message passing) ==");
    for method in [Method::ShiftCollapse, Method::FullShell] {
        let ff = ForceField {
            pair: Some(Box::new(LennardJones::reduced(2.5))),
            triplet: None,
            quadruplet: None,
            method,
        };
        let mut sim = DistributedSim::new(store.clone(), bbox, IVec3::splat(2), ff, 0.002)
            .expect("valid decomposition");
        sim.run(10);
        let stats = sim.comm_stats();
        println!(
            "{:<10} E_pot = {:>10.3} | {:>6} messages, {:>9} bytes, {:>6} ghosts/step-cycle",
            method.name(),
            sim.telemetry().energy.total(),
            stats.messages,
            stats.bytes,
            stats.ghosts_imported / 21, // 2 exchange cycles per step + priming
        );
    }

    // Part 2: project the paper's strong-scaling experiment with the
    // calibrated machine model.
    println!();
    println!("== Modeled strong scaling, 0.88M-atom silica on the Xeon profile ==");
    let model = MdCostModel::new(
        shift_collapse_md::netmodel::SilicaWorkload::silica(),
        MachineProfile::xeon(),
    );
    let cores = [12, 48, 192, 768];
    println!("{:>6} {:>10} {:>10} {:>10}", "cores", "SC eff", "FS eff", "Hybrid eff");
    let curves: Vec<_> =
        Method::ALL.iter().map(|&m| model.strong_scaling(m, 0.88e6, &cores, 12)).collect();
    for (i, &p) in cores.iter().enumerate() {
        println!(
            "{:>6} {:>9.1}% {:>9.1}% {:>9.1}%",
            p,
            curves[0][i].efficiency * 100.0,
            curves[1][i].efficiency * 100.0,
            curves[2][i].efficiency * 100.0
        );
    }
    println!();
    println!("paper (Fig. 9a) at 768 cores: SC 92.6%, FS 38.3%, Hybrid 26.8%");
}
