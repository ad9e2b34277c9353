//! Heap allocations per steady-state step of the fine-grain workload, under
//! a counting global allocator. The exchange schedule is static since
//! `decompose`, so its bookkeeping is planned once and payload vectors are
//! recycled; what is left per step is counted here so it cannot creep back.

use sc_geom::IVec3;
use sc_md::{build_fcc_lattice, thermalize, LatticeSpec, Method};
use sc_parallel::rank::ForceField;
use sc_parallel::DistributedSim;
use sc_potential::LennardJones;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts every allocation request (fresh or growing) on any thread.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` unchanged; the counter is a
// relaxed statistic that publishes no other data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const WARM_UP: usize = 16;
const STEPS: usize = 200;

/// Allocations per `step` call averaged over [`STEPS`] steps, after
/// [`WARM_UP`] steps have grown every reused buffer to its working size.
fn per_step(mut step: impl FnMut()) -> f64 {
    for _ in 0..WARM_UP {
        step();
    }
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for _ in 0..STEPS {
        step();
    }
    (ALLOCATIONS.load(Ordering::Relaxed) - before) as f64 / STEPS as f64
}

/// The `lj_bsp_fine` system: 256 thermalised LJ atoms (4³ fcc cells), SC-MD
/// at cut-off 1.5, 32 atoms a rank on a 2×2×2 grid. One test function, so
/// nothing else in this process allocates while a count is taken.
#[test]
fn steady_state_steps_stay_within_their_allocation_budget() {
    let (mut store, bbox) = build_fcc_lattice(&LatticeSpec::cubic(4, 1.5599), 0.0, 42);
    thermalize(&mut store, 1.0, 42);
    let ff = ForceField {
        pair: Some(Box::new(LennardJones::reduced(1.5))),
        triplet: None,
        quadruplet: None,
        method: Method::ShiftCollapse,
    };

    // Before PR 22 (per-step slot derivation, fresh payload and bookkeeping
    // vectors, an id map per force section): 1348 allocations per BSP step.
    // PR 22: 13.24, of which two per-step vectors of the staged import
    // (interior tasks, lent counters). Now 11.2: the staged import is gone
    // and what is left is the Morton re-sort every eighth step (≈ 90 a
    // re-sort); the exchange itself allocates nothing once its free lists
    // are warm. The budget leaves room for another host's pool, not for
    // per-phase bookkeeping to come back (72 rank-phases a step).
    let mut d = DistributedSim::new(store, bbox, IVec3::splat(2), ff, 0.002).unwrap();
    let allocs = per_step(|| d.try_step().unwrap());
    println!("allocations per step: {allocs}");
    assert!(allocs <= 24.0, "{allocs} allocations per step (budget 24)");
}
