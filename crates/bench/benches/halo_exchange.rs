//! Criterion: full distributed MD steps on the 8-rank BSP runtime — halo
//! exchange, force computation, reverse reduction, migration. SC's
//! one-sided 3-hop halo moves measurably less data than FS's two-sided
//! 6-hop halo.

use criterion::{criterion_group, criterion_main, Criterion};
use sc_geom::IVec3;
use sc_md::{build_fcc_lattice, LatticeSpec, Method};
use sc_parallel::rank::ForceField;
use sc_parallel::DistributedSim;
use sc_potential::LennardJones;
use std::hint::black_box;

fn make_sim(method: Method) -> DistributedSim {
    let (store, bbox) = build_fcc_lattice(&LatticeSpec::cubic(7, 1.5599), 0.1, 42);
    let ff = ForceField {
        pair: Some(Box::new(LennardJones::reduced(2.5))),
        triplet: None,
        quadruplet: None,
        method,
    };
    DistributedSim::new(store, bbox, IVec3::splat(2), ff, 0.002).expect("valid decomposition")
}

fn bench_halo_exchange(c: &mut Criterion) {
    let mut g = c.benchmark_group("distributed_step_8ranks");
    g.sample_size(10);
    for method in [Method::ShiftCollapse, Method::FullShell] {
        let mut sim = make_sim(method);
        sim.step(); // prime forces so each iteration is a steady-state step
        g.bench_function(method.name(), |b| {
            b.iter(|| {
                sim.step();
                black_box(sim.telemetry().energy.total())
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_halo_exchange);
criterion_main!(benches);
