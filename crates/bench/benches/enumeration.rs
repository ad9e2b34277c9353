//! Criterion: real single-core triplet enumeration time, SC vs FS cell
//! sweeps vs the Hybrid pair-list prune — the measured counterpart of the
//! paper's search-cost analysis (§4.1, Fig. 7).

use criterion::{criterion_group, criterion_main, Criterion};
use sc_bench::fixed_density_gas;
use sc_cell::CellLattice;
use sc_core::{generate_fs, shift_collapse};
use sc_md::engine::{visit_triplets, Dedup, PatternPlan};
use sc_md::methods::{lattice_for_cutoff, NeighborList};
use sc_md::{build_silica_like, Method};
use sc_potential::{TripletPotential, Vashishta};
use std::hint::black_box;

fn bench_enumeration(c: &mut Criterion) {
    // Silica-like triplet density on an 8³-cell domain.
    let rcut3 = 1.0;
    let rcut2 = 2.12; // rcut3/rcut2 ≈ 0.47, as in the paper's benchmark app
    let (store, bbox) = fixed_density_gas(8, rcut3, 1.5, 42);
    let mut lat3 = CellLattice::new(bbox, rcut3);
    lat3.rebuild(&store);
    let mut lat2 = CellLattice::new(bbox, rcut2);
    lat2.rebuild(&store);

    let sc_plan = PatternPlan::new(&shift_collapse(3), Dedup::Collapsed);
    let fs_plan = PatternPlan::new(&generate_fs(3), Dedup::Guarded);

    let mut g = c.benchmark_group("triplet_enumeration");
    g.sample_size(20);
    g.bench_function("sc_cell_sweep", |b| {
        b.iter(|| {
            let mut count = 0u64;
            visit_triplets(&lat3, &store, &sc_plan, rcut3, |_, _, _, _, _| count += 1);
            black_box(count)
        })
    });
    g.bench_function("sc_cell_sweep_silica", |b| {
        // The traffic the silica workloads send through the chain visitor,
        // which the uniform gas above does not resemble: 6³ β-cristobalite
        // cells (5184 atoms), 4-coordinated Si and 2-coordinated O inside
        // r_cut3 = 2.6 Å, 1.27 atoms per cell with three cells in ten empty.
        let v = Vashishta::silica();
        let rcut3 = v.triplet.cutoff();
        let (silica, silica_box) = build_silica_like(6, 7.16, v.params().masses, 0.01, 7);
        let mut lat = lattice_for_cutoff(&silica_box, rcut3, 3);
        lat.rebuild(&silica);
        b.iter(|| {
            let mut count = 0u64;
            visit_triplets(&lat, &silica, &sc_plan, rcut3, |_, _, _, _, _| count += 1);
            black_box(count)
        })
    });
    g.bench_function("fs_cell_sweep", |b| {
        b.iter(|| {
            let mut count = 0u64;
            visit_triplets(&lat3, &store, &fs_plan, rcut3, |_, _, _, _, _| count += 1);
            black_box(count)
        })
    });
    g.bench_function("hybrid_list_prune", |b| {
        // List build + prune, the full Hybrid triplet path. The build
        // reads the plan's reach only — the rows hold both directions of
        // every pair whatever the paths — so there is no "built by another
        // pattern" variant to compare.
        let pair_plan = Method::Hybrid.plan_for(2);
        b.iter(|| {
            let (nl, _) = NeighborList::build(&lat2, &store, &pair_plan, rcut2);
            let mut count = 0u64;
            nl.visit_triplets(rcut3, |_, _, _, _, _| count += 1);
            black_box(count)
        })
    });
    g.finish();
}

criterion_group!(benches, bench_enumeration);
criterion_main!(benches);
