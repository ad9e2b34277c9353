//! **Fig. 7** — average number of triplets in the force set as a function of
//! domain size (number of cells), for FS-MD vs SC-MD at fixed average cell
//! density.
//!
//! The paper measures ≈ 2.13× more triplets in the FS force set than in the
//! SC force set; the theoretical path-count ratio is
//! `|Ψ_FS(3)| / |Ψ_SC(3)| = 729/378 ≈ 1.93`, approaching 2 for large n
//! (Eq. 29). FS's force set retains the reflective duplicate of every
//! non-self-reflective triplet; SC's contains each undirected triplet once.
//!
//! Run: `cargo run -p sc-bench --release --bin fig7_triplet_count`

use sc_bench::fixed_density_gas;
use sc_cell::CellLattice;
use sc_core::{generate_fs, shift_collapse, theory};
use sc_md::engine::{
    visit_pairs, visit_triplets, ChainSweep, Dedup, LinkRows, PatternPlan, PeriodicSource,
    VisitStats,
};

fn main() {
    if std::env::args().any(|a| a == "--orders") {
        all_orders();
        return;
    }
    // Silica-like triplet cell density: ρ_cell = ρ·r_cut3³ ≈ 1.16, boosted a
    // little so small domains still hold enough triplets to average well.
    let rho_cell = 2.0;
    let rcut3 = 1.0; // reduced units: cell edge = cutoff
    println!("Fig. 7 — triplets in the force set vs domain size (⟨ρ_cell⟩ = {rho_cell})");
    println!(
        "{:>8} {:>10} {:>14} {:>14} {:>8}",
        "cells", "atoms", "FS triplets", "SC triplets", "FS/SC"
    );
    // FS with only self-reflective guards = the raw FS force set (reflective
    // duplicates retained), matching what FS-MD stores before filtering.
    let fs_plan = PatternPlan::new(&generate_fs(3), Dedup::Collapsed);
    let sc_plan = PatternPlan::new(&shift_collapse(3), Dedup::Collapsed);
    let mut ratios = vec![];
    for l in [4usize, 5, 6, 8, 10, 12] {
        // Average over a few random configurations (the paper averages over
        // 10 000 MD steps).
        let (mut fs_total, mut sc_total, mut atoms) = (0u64, 0u64, 0usize);
        let samples = 3;
        for s in 0..samples {
            let (store, bbox) = fixed_density_gas(l, rcut3, rho_cell, 100 + s);
            let mut lat = CellLattice::new(bbox, rcut3);
            lat.rebuild(&store);
            fs_total += visit_triplets(&lat, &store, &fs_plan, rcut3, |_, _, _, _, _| {}).accepted;
            sc_total += visit_triplets(&lat, &store, &sc_plan, rcut3, |_, _, _, _, _| {}).accepted;
            atoms = store.len();
        }
        let fs = fs_total as f64 / samples as f64;
        let sc = sc_total as f64 / samples as f64;
        ratios.push(fs / sc);
        println!("{:>8} {:>10} {:>14.0} {:>14.0} {:>8.3}", l * l * l, atoms, fs, sc, fs / sc);
    }
    let mean = ratios.iter().sum::<f64>() / ratios.len() as f64;
    println!();
    println!("mean FS/SC force-set ratio: {mean:.3}");
    println!(
        "paper: ≈ 2.13 measured; path-count theory: {:.3} (Eq. 29), → 2 as n grows",
        theory::fs_over_sc_ratio(3)
    );
}

/// Extension of Fig. 7 across tuple orders: the FS/SC force-set ratio for
/// n = 2..4 on one domain, against the Eq. 29 path-count ratio.
fn all_orders() {
    let rho_cell = 2.0;
    let rcut = 1.0;
    let (store, bbox) = fixed_density_gas(6, rcut, rho_cell, 100);
    let mut lat = CellLattice::new(bbox, rcut);
    lat.rebuild(&store);
    let src = PeriodicSource::new(&lat, &store);
    println!("Fig. 7 extension — FS/SC force-set ratio by tuple order (6³ cells)");
    println!("{:>3} {:>14} {:>14} {:>8} {:>10}", "n", "FS tuples", "SC tuples", "FS/SC", "theory");
    for n in 2..=4usize {
        let count = |pat, dedup| {
            let plan = PatternPlan::new(&pat, dedup);
            let stats: VisitStats = match n {
                2 => visit_pairs(&lat, &store, &plan, rcut, |_, _, _, _| {}),
                _ => {
                    let mut rows = LinkRows::default();
                    let mut sweep = ChainSweep::new(&src, &plan, rcut, &mut rows);
                    lat.cells().map(|q| sweep.visit_cell(q, |_, _| {})).sum()
                }
            };
            stats.accepted
        };
        // FS with only self-reflective guards = its raw (duplicated) force
        // set; SC's is duplicate-free.
        let fs = count(generate_fs(n), Dedup::Collapsed);
        let sc = count(shift_collapse(n), Dedup::Collapsed);
        println!(
            "{:>3} {:>14} {:>14} {:>8.3} {:>10.3}",
            n,
            fs,
            sc,
            fs as f64 / sc as f64,
            theory::fs_over_sc_ratio(n)
        );
    }
}
