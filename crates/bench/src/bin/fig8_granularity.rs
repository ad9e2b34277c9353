//! **Fig. 8** — runtime per MD step vs granularity N/P for SC-MD, FS-MD, and
//! Hybrid-MD on (a) the Intel-Xeon profile (48 nodes) and (b) the BlueGene/Q
//! profile (64 nodes), using the calibrated machine model (see
//! `sc-netmodel` and DESIGN.md for the substitution rationale).
//!
//! Paper reference points: finest grain (N/P = 24) speedups of SC over
//! FS/Hybrid = 10.5×/9.7× on Xeon and 5.7×/5.1× on BG/Q; SC→Hybrid
//! crossovers at N/P ≈ 2095 (Xeon) and ≈ 425 (BG/Q).
//!
//! Run: `cargo run -p sc-bench --release --bin fig8_granularity -- xeon`
//!      `cargo run -p sc-bench --release --bin fig8_granularity -- bgq`
//!      `... -- xeon --sweep-ratio` (ablation over r_cut3/r_cut2)

use sc_bench::fmt_time;
use sc_md::Method;
use sc_netmodel::{MachineProfile, MdCostModel, SilicaWorkload};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let profile = match args.first().map(String::as_str) {
        Some("bgq") => MachineProfile::bgq(),
        _ => MachineProfile::xeon(),
    };
    let model = MdCostModel::new(SilicaWorkload::silica(), profile);
    if args.iter().any(|a| a == "--sweep-ratio") {
        sweep_ratio(&model);
        return;
    }
    if args.iter().any(|a| a == "--measured") {
        measured();
        return;
    }
    println!("Fig. 8 — runtime per MD step vs granularity on {} (modeled)", model.machine.name);
    println!(
        "{:>8}  {:>11}  {:>11}  {:>11}  {:>9}  {:>9}",
        "N/P", "SC-MD", "FS-MD", "Hybrid-MD", "FS/SC", "Hyb/SC"
    );
    let grains = [24.0, 50.0, 100.0, 200.0, 425.0, 800.0, 1500.0, 2095.0, 3000.0, 6000.0, 12000.0];
    for &n in &grains {
        let sc = model.step_time(Method::ShiftCollapse, n).total_s();
        let fs = model.step_time(Method::FullShell, n).total_s();
        let hy = model.step_time(Method::Hybrid, n).total_s();
        println!(
            "{:>8}  {}  {}  {}  {:>9.2}  {:>9.2}",
            n,
            fmt_time(sc),
            fmt_time(fs),
            fmt_time(hy),
            fs / sc,
            hy / sc
        );
    }
    println!();
    let fine = 24.0;
    let s_fs = model.step_time(Method::FullShell, fine).total_s()
        / model.step_time(Method::ShiftCollapse, fine).total_s();
    let s_hy = model.step_time(Method::Hybrid, fine).total_s()
        / model.step_time(Method::ShiftCollapse, fine).total_s();
    println!("finest grain (N/P = 24): SC speedup over FS = {s_fs:.1}×, over Hybrid = {s_hy:.1}×");
    match model.crossover(Method::ShiftCollapse, Method::Hybrid, 24.0, 1e6) {
        Some(x) => println!("SC → Hybrid crossover at N/P ≈ {x:.0}"),
        None => println!("no SC → Hybrid crossover below N/P = 10⁶"),
    }
    let paper = if model.machine.name.contains("Xeon") {
        "paper: 10.5× / 9.7× at N/P = 24, crossover ≈ 2095"
    } else {
        "paper: 5.7× / 5.1× at N/P = 24, crossover ≈ 425"
    };
    println!("{paper}");
}

/// Real single-core measurement grounding the model's compute side: actual
/// per-step force-computation times for silica on this host. Granularities
/// here are whole periodic systems (a serial box must span ≥ 3 pair
/// cutoffs, so the finest paper grains are unreachable serially — the
/// distributed runtime covers those in `sc-parallel`'s tests).
fn measured() {
    use sc_md::{build_silica_like, Simulation};
    use sc_obs::PhaseBreakdown;
    use sc_potential::Vashishta;
    let v = Vashishta::silica();
    let masses = v.params().masses;
    println!("Measured serial per-step force time, silica (this host, single core)");
    println!("{:>8}  {:>11}  {:>11}  {:>11}", "atoms", "SC-MD", "FS-MD", "Hybrid-MD");
    for cells in [3usize, 4] {
        let mut times = vec![];
        let mut atoms = 0;
        for method in Method::ALL {
            let (store, bbox) = build_silica_like(cells, 7.16, masses, 0.01, 7);
            atoms = store.len();
            let mut sim = Simulation::builder(store, bbox)
                .pair_potential(Box::new(v.pair.clone()))
                .triplet_potential(Box::new(v.triplet.clone()))
                .method(method)
                .build()
                .expect("valid simulation");
            sim.compute_forces(); // warm up
            let reps = 5;
            let t0 = std::time::Instant::now();
            for _ in 0..reps {
                sim.compute_forces();
            }
            times.push(t0.elapsed().as_secs_f64() / reps as f64);
        }
        println!(
            "{:>8}  {}  {}  {}",
            atoms,
            fmt_time(times[0]),
            fmt_time(times[1]),
            fmt_time(times[2])
        );
    }
    println!();
    println!("expected ordering at silica's cutoff ratio: Hybrid < SC < FS (coarse-grain");
    println!("regime of Fig. 8 — the search-cost side; import costs need the cluster).");

    // Step-phase breakdown: where a force computation actually spends its
    // time per method, from the timers the engines always run. enumerate is
    // summed per-lane seconds (search + evaluation); bin and reduce are wall
    // seconds on the driving thread.
    println!();
    println!("Per-phase breakdown, silica 4³ cells (mean of 5 steps)");
    println!("{:>10}  {:>11}  {:>11}  {:>11}", "method", "bin", "enumerate", "reduce");
    for method in Method::ALL {
        let (store, bbox) = build_silica_like(4, 7.16, masses, 0.01, 7);
        let mut sim = Simulation::builder(store, bbox)
            .pair_potential(Box::new(v.pair.clone()))
            .triplet_potential(Box::new(v.triplet.clone()))
            .method(method)
            .build()
            .expect("valid simulation");
        sim.compute_forces(); // warm up (first call allocates the scratch pool)
        let reps = 5u32;
        let mut phases = PhaseBreakdown::default();
        for _ in 0..reps {
            phases.accumulate(&sim.compute_forces().phases);
        }
        let r = f64::from(reps);
        println!(
            "{:>10}  {}  {}  {}",
            method.name(),
            fmt_time(phases.bin_s() / r),
            fmt_time(phases.enumerate_s() / r),
            fmt_time(phases.reduce_s() / r),
        );
    }
}

/// Ablation: how the SC→Hybrid crossover moves with the cutoff ratio
/// r_cut3/r_cut2. Hybrid's whole advantage is the short triplet cutoff; as
/// the ratio grows toward 1 the pair list stops paying off and SC wins at
/// every granularity.
fn sweep_ratio(base: &MdCostModel) {
    println!("Ablation — SC→Hybrid crossover vs r_cut3/r_cut2 on {}", base.machine.name);
    println!("{:>8} {:>10}", "ratio", "crossover");
    for ratio in [0.3, 0.4, 0.47, 0.6, 0.7, 0.8, 0.9] {
        let mut w = SilicaWorkload::silica();
        w.rcut3 = w.rcut2 * ratio;
        let model =
            MdCostModel { workload: w, machine: base.machine.clone(), consts: base.consts.clone() };
        match model.crossover(Method::ShiftCollapse, Method::Hybrid, 24.0, 1e7) {
            Some(x) => println!("{ratio:>8.2} {x:>10.0}"),
            None => println!("{ratio:>8.2} {:>10}", "none"),
        }
    }
}
