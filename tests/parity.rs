//! The parity sweep: SC is correct only if every range-limited tuple is
//! found exactly once on any decomposition (Theorem 2, Lemma 6). One
//! constant list of cases spans executor × method × potential ×
//! subdivision × re-sort × thermostat × rebalance × transport fault ×
//! system shape, and every case is checked term by term against the
//! brute-force oracle (`sc_md::reference`) and against its siblings:
//!
//! - **step 0, against the oracle:** per-term energies, per-atom forces and
//!   net force, per-term accepted counts equal to the oracle's tuple
//!   counts, and the virial against the serial SC one-lane run's; for
//!   serial SC / FS the periodic cell sweep's pair and triplet *sets* equal
//!   `reference::all_*`, and a mismatch names the first missing or extra
//!   tuple;
//! - **after `STEPS` steps, against siblings:** the gathered state matches
//!   the serial SC one-lane run of the same system (a thermostatted case:
//!   its own 1×1×1 one-lane sibling), a fault case is bitwise equal to its
//!   fault-free twin, atom ids are exactly `0..N`, and net momentum is
//!   conserved (NVE cases);
//! - **no panics:** a refused combination comes back as a typed
//!   `SetupError`.
//!
//! Every case runs the one engine — `Serial(n)` is a 1×1×1 grid on `n`
//! lanes — and step-0 forces are read off one drift from rest: velocity
//! Verlet moves an atom at rest by `½·dt²·f/m`, and the probe's `dt` is
//! picked so the fastest atom moves [`PROBE_DRIFT`], where position
//! rounding costs ~1e-11 of force.
//!
//! A failure prints the case as one Rust literal; `sweep(&[that literal])`
//! in any test reruns it alone. `larger_sweep` (ignored; nightly CI) runs
//! every case under each method and subdivision.

use shift_collapse_md::cell::{AtomStore, Species};
use shift_collapse_md::geom::{IVec3, SimulationBox, Vec3};
use shift_collapse_md::md::engine::{visit_pairs, visit_triplets};
use shift_collapse_md::md::methods::lattice_for_cutoff_subdivided;
use shift_collapse_md::md::reference::{self, all_pairs, all_quadruplets, all_triplets};
use shift_collapse_md::md::supervisor::Recoverable;
use shift_collapse_md::md::{
    build_clustered_gas, build_fcc_lattice, build_silica_like, thermalize, ForceField, LatticeSpec,
};
use shift_collapse_md::obs::Tracer;
use shift_collapse_md::parallel::{
    DistributedSim, EngineConfig, Fault, FaultKind, FaultPlan, RankGrid, SetupError,
};
use shift_collapse_md::potential::{LennardJones, TorsionToy, Vashishta};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::fmt::Debug;
use std::hash::Hash;
use std::panic::{catch_unwind, AssertUnwindSafe};

// The case literals below, and the ones a failure prints, name these
// variants bare.
use shift_collapse_md::md::Method::{self, FullShell, Hybrid, ShiftCollapse};
use Exec::{Grid, Serial};
use Pot::{Lj, LjTorsion, Silica};
use Shape::{Clustered, Crystal, NonCubic, OnPlanes};

/// Where a case runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Exec {
    /// One rank (a 1×1×1 grid) on this many force lanes.
    Serial(usize),
    /// The distributed engine on this rank grid.
    Grid([i32; 3]),
}

/// The force field.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Pot {
    /// Lennard-Jones, cutoff 2.5.
    Lj,
    /// Vashishta silica: pair + triplet.
    Silica,
    /// Lennard-Jones (cutoff 1.2) + the n = 4 `TorsionToy`.
    LjTorsion,
}

/// The system, built for the case's potential.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Shape {
    /// The potential's crystal in a cubic box, shaken off its sites.
    Crystal,
    /// The same crystal cut to a box with unequal edges.
    NonCubic,
    /// A clustered gas (Lj only): three blobs, so some ranks hold a handful
    /// of atoms or none.
    Clustered,
    /// A crystal (Lj only) whose sites sit exactly on the cut planes of
    /// every grid of ≤ 3 ranks per axis, each atom shaken along one axis
    /// only, with some of the atoms at 0 moved to exactly L.
    OnPlanes,
}

/// One cell of the sweep.
#[derive(Debug, Clone, Copy)]
struct Case {
    exec: Exec,
    method: Method,
    pot: Pot,
    shape: Shape,
    subdivision: i32,
    resort_every: u64,
    /// A Berendsen thermostat ([`THERMOSTAT`]).
    thermostat: bool,
    /// Multi-rank grids only.
    rebalance_every: u64,
    /// Multi-rank grids only: a drop and a corrupted payload, both
    /// absorbed by the transport's retry.
    faults: bool,
}

const BASE: Case = Case {
    exec: Serial(1),
    method: ShiftCollapse,
    pot: Lj,
    shape: Crystal,
    subdivision: 1,
    resort_every: 8,
    thermostat: false,
    rebalance_every: 0,
    faults: false,
};

/// The tier-1 list. Every value of every axis appears at least once
/// (`coverage` checks and prints it).
const CASES: &[Case] = &[
    // Serial: every method on every potential, one and two lanes.
    Case { ..BASE },
    Case { method: FullShell, subdivision: 2, ..BASE },
    Case { method: Hybrid, ..BASE },
    Case { exec: Serial(2), method: FullShell, shape: NonCubic, ..BASE },
    Case { exec: Serial(2), method: Hybrid, resort_every: 0, ..BASE },
    Case { subdivision: 2, shape: OnPlanes, ..BASE },
    Case { method: Hybrid, shape: Clustered, ..BASE },
    Case { pot: Silica, ..BASE },
    Case { exec: Serial(2), pot: Silica, ..BASE },
    Case { exec: Serial(2), pot: Silica, method: FullShell, ..BASE },
    Case { pot: Silica, method: Hybrid, exec: Serial(2), ..BASE },
    Case { pot: Silica, method: Hybrid, thermostat: true, ..BASE },
    Case { exec: Serial(2), pot: Silica, thermostat: true, ..BASE },
    Case { pot: LjTorsion, ..BASE },
    Case { pot: LjTorsion, method: FullShell, ..BASE },
    Case { pot: LjTorsion, method: Hybrid, exec: Serial(2), ..BASE },
    // One rank: every exchange is a self-send.
    Case { exec: Grid([1, 1, 1]), ..BASE },
    Case { exec: Grid([1, 1, 1]), method: Hybrid, ..BASE },
    Case { exec: Grid([1, 1, 1]), method: FullShell, shape: OnPlanes, ..BASE },
    Case { exec: Grid([1, 1, 1]), pot: Silica, ..BASE },
    Case { exec: Grid([1, 1, 1]), pot: Silica, method: Hybrid, ..BASE },
    Case { exec: Grid([1, 1, 1]), pot: Silica, method: Hybrid, subdivision: 2, ..BASE },
    Case { exec: Grid([1, 1, 1]), pot: LjTorsion, method: Hybrid, ..BASE },
    // Two ranks on an axis: a rank meets one neighbour on both sides.
    Case { exec: Grid([2, 1, 1]), method: FullShell, subdivision: 2, ..BASE },
    Case { exec: Grid([2, 1, 1]), method: Hybrid, shape: NonCubic, faults: true, ..BASE },
    Case { exec: Grid([2, 1, 1]), shape: Clustered, rebalance_every: 3, ..BASE },
    Case { exec: Grid([2, 1, 1]), method: Hybrid, subdivision: 2, shape: OnPlanes, ..BASE },
    Case { exec: Grid([2, 1, 1]), method: FullShell, shape: OnPlanes, rebalance_every: 4, ..BASE },
    Case { exec: Grid([2, 1, 1]), method: Hybrid, pot: Silica, ..BASE },
    Case { exec: Grid([2, 1, 1]), pot: LjTorsion, method: Hybrid, ..BASE },
    Case { exec: Grid([1, 1, 2]), pot: Silica, resort_every: 0, ..BASE },
    Case { exec: Grid([1, 1, 2]), pot: LjTorsion, method: FullShell, faults: true, ..BASE },
    Case { exec: Grid([2, 2, 2]), ..BASE },
    Case { exec: Grid([2, 2, 2]), method: FullShell, ..BASE },
    Case { exec: Grid([2, 2, 2]), method: Hybrid, ..BASE },
    Case { exec: Grid([2, 2, 2]), shape: Clustered, faults: true, ..BASE },
    Case { exec: Grid([2, 2, 2]), method: FullShell, thermostat: true, ..BASE },
    Case { exec: Grid([2, 2, 2]), pot: Silica, subdivision: 2, ..BASE },
    Case { exec: Grid([2, 2, 2]), method: FullShell, pot: Silica, ..BASE },
    Case { exec: Grid([2, 2, 2]), method: Hybrid, pot: Silica, ..BASE },
    Case { exec: Grid([2, 2, 2]), pot: LjTorsion, ..BASE },
    Case { exec: Grid([2, 2, 2]), pot: LjTorsion, method: FullShell, ..BASE },
    Case { exec: Grid([2, 2, 2]), pot: LjTorsion, method: Hybrid, ..BASE },
    // Three ranks on an axis: single-cell-thick ranks on 3-cell axes.
    Case { exec: Grid([3, 1, 1]), ..BASE },
    Case { exec: Grid([3, 1, 1]), method: FullShell, shape: NonCubic, subdivision: 2, ..BASE },
    Case { exec: Grid([3, 1, 1]), method: Hybrid, shape: OnPlanes, ..BASE },
    Case { exec: Grid([3, 1, 1]), method: Hybrid, pot: Silica, ..BASE },
    Case { exec: Grid([1, 1, 2]), pot: Silica, thermostat: true, ..BASE },
    Case { exec: Grid([1, 3, 3]), method: FullShell, ..BASE },
    Case { exec: Grid([1, 3, 3]), method: Hybrid, shape: Clustered, ..BASE },
    Case { exec: Grid([1, 3, 3]), shape: OnPlanes, resort_every: 0, ..BASE },
    Case { exec: Grid([1, 3, 3]), pot: Silica, shape: NonCubic, rebalance_every: 3, ..BASE },
    Case { exec: Grid([3, 3, 3]), ..BASE },
    Case { exec: Grid([3, 3, 3]), method: FullShell, shape: Clustered, ..BASE },
    Case { exec: Grid([3, 3, 3]), pot: Silica, method: FullShell, faults: true, ..BASE },
];

/// Combinations every engine must refuse with a typed error: a 4-body
/// halo (three 1.05 cells) deeper than a 2.1-wide rank slab.
const REFUSED: &[Case] = &[
    Case { exec: Grid([3, 3, 3]), pot: LjTorsion, ..BASE },
    Case { exec: Grid([3, 1, 1]), pot: LjTorsion, method: Hybrid, ..BASE },
];

/// Steps every case runs before its state is compared: past one re-sort at
/// the default cadence and past rebalances at 3 and 4.
const STEPS: usize = 10;

/// How far the probe step moves the atom with the largest force.
const PROBE_DRIFT: f64 = 0.05;

/// Per-term energy, relative to the oracle's.
const ENERGY_TOL: f64 = 1e-12;
/// Per-atom force, absolute.
const FORCE_TOL: f64 = 1e-10;
/// Net force, absolute.
const NET_FORCE_TOL: f64 = 1e-9;
/// Positions (minimum image) and velocities after `STEPS`, absolute.
const STATE_TOL: f64 = 1e-9;
/// Net momentum after `STEPS` against step 0, absolute.
const MOMENTUM_TOL: f64 = 1e-10;
/// Virial against the serial sibling, relative to the total energy.
const VIRIAL_TOL: f64 = 1e-9;
/// The thermostat of a case that has one: `(target temperature, dt/τ)`,
/// strong enough to move every system's temperature within `STEPS`.
const THERMOSTAT: (f64, f64) = (0.5, 0.2);

#[test]
fn parity_sweep() {
    coverage(CASES);
    sweep(CASES);
}

#[test]
fn refused_combinations_return_typed_errors() {
    for case in REFUSED {
        let (store, bbox) = system(case.pot, case.shape);
        match catch_unwind(AssertUnwindSafe(|| build(case, store, bbox, 0.001).err())) {
            Ok(Some(refusal)) => println!("refused as expected: {refusal}"),
            Ok(None) => panic!("built, expected a refusal: {case:?}"),
            Err(_) => panic!("panicked instead of refusing: {case:?}"),
        }
    }
}

/// The tier-1 list with every case also run under each other method and
/// subdivision; a variant an engine refuses is left out.
#[test]
#[ignore = "nightly: ~300 cases"]
fn larger_sweep() {
    let variants = CASES.iter().flat_map(|c| {
        Method::ALL
            .into_iter()
            .flat_map(move |method| [1, 2].map(|subdivision| Case { method, subdivision, ..*c }))
    });
    let builds = |c: &Case| build(c, system(c.pot, c.shape).0, system(c.pot, c.shape).1, 1.0);
    let cases: Vec<Case> = variants.filter(|c| builds(c).is_ok()).collect();
    coverage(&cases);
    sweep(&cases);
}

/// Runs every case, collecting failures (a panic included) so one run
/// reports them all, each as a literal that reruns it alone. The systems'
/// truths are built first; both passes spread over the host's cores.
fn sweep(cases: &[Case]) {
    let mut systems: Vec<(Pot, Shape)> = cases.iter().map(|c| (c.pot, c.shape)).collect();
    systems.sort_by_key(|s| format!("{s:?}"));
    systems.dedup();
    let built = par_map(&systems, |&(pot, shape)| {
        catch_unwind(|| Truth::new(pot, shape)).map_err(|panic| panic_text(&panic))
    });
    let truth: HashMap<_, _> = systems.into_iter().zip(built).collect();
    let outcomes = par_map(cases, |case| match &truth[&(case.pot, case.shape)] {
        Ok(truth) => catch_unwind(AssertUnwindSafe(|| check(case, truth)))
            .unwrap_or_else(|panic| Err(panic_text(&panic))),
        Err(why) => Err(format!("the system's oracle or sibling {why}")),
    });
    let failures: Vec<String> = (cases.iter().zip(outcomes))
        .filter_map(|(case, out)| Some(format!("{}\n    rerun: sweep(&[{case:?}])", out.err()?)))
        .collect();
    let report = failures.join("\n");
    assert!(failures.is_empty(), "{} of {} cases failed:\n{report}", failures.len(), cases.len());
}

fn panic_text(panic: &Box<dyn std::any::Any + Send>) -> String {
    let text = panic.downcast_ref::<String>().map(String::as_str);
    format!("panicked: {}", text.or(panic.downcast_ref::<&str>().copied()).unwrap_or("?"))
}

/// `items.iter().map(f)`, each host core taking every n-th item.
fn par_map<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let n = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut out: Vec<(usize, R)> = std::thread::scope(|scope| {
        let strided = |w| items.iter().enumerate().skip(w).step_by(n).map(|(i, x)| (i, f(x)));
        let workers: Vec<_> =
            (0..n).map(|w| scope.spawn(move || strided(w).collect::<Vec<_>>())).collect();
        workers.into_iter().flat_map(|w| w.join().unwrap()).collect()
    });
    out.sort_by_key(|(i, _)| *i);
    out.into_iter().map(|(_, r)| r).collect()
}

impl Case {
    fn ranks(&self) -> IVec3 {
        match self.exec {
            Serial(_) => IVec3::splat(1),
            Grid([x, y, z]) => IVec3::new(x, y, z),
        }
    }
}

/// The one place a case becomes an engine. A refusal comes back as the
/// engine's typed error, named.
fn build(case: &Case, store: AtomStore, bbox: SimulationBox, dt: f64) -> Result<Engine, String> {
    let (ff, tracer) = (force_field(case.pot, case.method), Tracer::disabled());
    let (subdivision, resort_every) = (case.subdivision, case.resort_every);
    let pdims = case.ranks();
    // As a spec gives them: a grid's ranks are one task each, and a
    // one-rank grid gets one lane.
    let lanes = match case.exec {
        Serial(lanes) => lanes,
        Grid(_) => usize::from(pdims == IVec3::splat(1)),
    };
    let fault = |step, rank, kind| Fault { step, rank, channel: None, kind };
    let faults = match case.faults {
        false => FaultPlan::none(),
        true => FaultPlan::none()
            .with(fault(1, (pdims.x * pdims.y * pdims.z - 1) as usize, FaultKind::Drop))
            .with(fault(2, 0, FaultKind::Corrupt { header: false })),
    };
    let rebalance_every = case.rebalance_every;
    let thermostat = case.thermostat.then_some(THERMOSTAT);
    let cfg = EngineConfig {
        lanes,
        subdivision,
        resort_every,
        rebalance_every,
        faults,
        tracer,
        thermostat,
    };
    let sim = DistributedSim::build(store, bbox, pdims, ff, dt, cfg);
    sim.map_err(|e: SetupError| format!("SetupError: {e}"))
}

/// A built engine of any executor.
type Engine = DistributedSim;
/// A check's verdict: the first thing wrong, if any.
type Check = Result<(), String>;

fn force_field(pot: Pot, method: Method) -> ForceField {
    let mut ff = ForceField { pair: None, triplet: None, quadruplet: None, method };
    match pot {
        Lj => ff.pair = Some(Box::new(LennardJones::reduced(2.5))),
        Silica => {
            let v = Vashishta::silica();
            ff.pair = Some(Box::new(v.pair));
            ff.triplet = Some(Box::new(v.triplet));
        }
        LjTorsion => {
            ff.pair = Some(Box::new(LennardJones::reduced(1.2)));
            ff.quadruplet = Some(Box::new(TorsionToy::new(0.05, 1.0, 0.3)));
        }
    }
    ff
}

fn timestep(pot: Pot) -> f64 {
    [0.002, 0.0005, 0.001][pot as usize]
}

/// The case's system: ids `0..N` in slot order, positions in the box
/// (`OnPlanes` puts some exactly at L).
fn system(pot: Pot, shape: Shape) -> System {
    let silica = || {
        let masses = Vashishta::silica().params().masses;
        move |n| build_silica_like(n, 7.16, masses, 0.01, 7)
    };
    let fcc =
        |a, v_scale, seed| move |n| build_fcc_lattice(&LatticeSpec::cubic(n, a), v_scale, seed);
    match (pot, shape) {
        (Lj, Crystal) => crystal(fcc(1.5599, 0.1, 42), 1.5599, [7, 7, 7], shaken(0.05)),
        (Lj, NonCubic) => crystal(fcc(1.5599, 0.1, 42), 1.5599, [7, 7, 5], shaken(0.05)),
        (Silica, Crystal) => crystal(silica(), 7.16, [4, 4, 4], shaken(0.08)),
        (Silica, NonCubic) => crystal(silica(), 7.16, [4, 3, 3], shaken(0.08)),
        (LjTorsion, Crystal) => crystal(simple_cubic, 0.9, [7, 7, 7], shaken(0.03)),
        (LjTorsion, NonCubic) => crystal(simple_cubic, 0.9, [8, 7, 7], shaken(0.03)),
        (Lj, Clustered) => {
            let (mut store, bbox) = build_clustered_gas(400, 12.0, 3, 1.0, 11);
            thermalize(&mut store, 0.5, 11);
            (store, bbox)
        }
        // Box 12 × 9 × 9 with a = 1.5: every site coordinate is a multiple
        // of 0.75, so the cut planes of 2 ranks along x (6) and of 3 ranks
        // along any axis (4, 8; 3, 6) hold sites exactly. Each atom moves
        // along one axis only, and every other atom left at x = 0 moves to
        // exactly x = 12.
        (Lj, OnPlanes) => crystal(
            fcc(1.5, 0.1, 5),
            1.5,
            [8, 6, 6],
            Box::new(|i, r, l| {
                r[i % 3] = (r[i % 3] + 0.05 * (1.3 * i as f64).sin()).rem_euclid(l[i % 3]);
                if r.x == 0.0 && i % 2 == 0 {
                    r.x = l.x;
                }
            }),
        ),
        _ => unreachable!("{shape:?} is an Lj system"),
    }
}

/// The cubic crystal `build` makes, cut to `cells` unit cells of edge `a`
/// per axis, with atom `i` moved by `place(i, r, box lengths)`.
fn crystal(build: impl Fn(usize) -> System, a: f64, cells: [usize; 3], place: Place) -> System {
    let (store, _) = build(*cells.iter().max().unwrap());
    let lengths = Vec3::new(cells[0] as f64, cells[1] as f64, cells[2] as f64) * a;
    let inside = |r: Vec3| r.x < lengths.x && r.y < lengths.y && r.z < lengths.z;
    let mut out = AtomStore::new(store.species_masses().to_vec());
    for i in (0..store.len()).filter(|&i| inside(store.positions()[i])) {
        let mut r = store.positions()[i];
        place(out.len(), &mut r, lengths);
        out.push(out.len() as u64, store.species()[i], r, store.velocities()[i]);
    }
    (out, SimulationBox::new(lengths))
}

/// A simple cubic crystal of `n³` sites 0.9 apart, thermalized: six
/// bonds per atom at the torsion's 1.0 link cutoff, and an FCC's twelve would
/// make the 4-body term the sweep's cost.
fn simple_cubic(n: usize) -> System {
    let mut store = AtomStore::single_species();
    for c in 0..n * n * n {
        let site = Vec3::new((c / (n * n)) as f64, (c / n % n) as f64, (c % n) as f64);
        store.push(c as u64, Species::DEFAULT, site * 0.9, Vec3::ZERO);
    }
    thermalize(&mut store, 0.05, 13);
    (store, SimulationBox::cubic(n as f64 * 0.9))
}

/// Moves every atom off its site, where every force is zero by symmetry.
fn shaken(by: f64) -> Place {
    Box::new(move |i, r, l| {
        let t = i as f64;
        let kick = Vec3::new((1.3 * t).sin(), (2.1 * t + 1.0).sin(), (0.7 * t + 2.0).sin());
        *r = SimulationBox::new(l).wrap(*r + kick * by);
    })
}

/// An atom system and its periodic box.
type System = (AtomStore, SimulationBox);
/// Moves atom `i` from its site `r` in a box of edge lengths `l`.
type Place = Box<dyn Fn(usize, &mut Vec3, Vec3)>;

/// The brute-force oracle of one system, and the serial SC one-lane run of
/// it that every case's run must reach.
struct Truth {
    /// Per-term energies and tuple counts, n = 2, 3, 4.
    energy: [f64; 3],
    count: [u64; 3],
    forces: Vec<Vec3>,
    pairs: HashSet<(u32, u32)>,
    triplets: HashSet<(u32, u32, u32)>,
    /// The sibling's state after `STEPS`, and its step-0 virial and energy.
    state: AtomStore,
    virial: f64,
    scale: f64,
}

impl Truth {
    fn new(pot: Pot, shape: Shape) -> Truth {
        let (mut store, bbox) = system(pot, shape);
        let ff = force_field(pot, ShiftCollapse);
        let (mut energy, mut pairs, mut triplets) = ([0.0; 3], HashSet::new(), HashSet::new());
        let mut count = [0; 3];
        store.zero_forces();
        if let Some(p) = &ff.pair {
            energy[0] = reference::pair_forces(&mut store, &bbox, p.as_ref());
            pairs = all_pairs(&store, &bbox, p.cutoff());
        }
        if let Some(t) = &ff.triplet {
            energy[1] = reference::triplet_forces(&mut store, &bbox, t.as_ref());
            triplets = all_triplets(&store, &bbox, t.cutoff());
        }
        if let Some(q) = &ff.quadruplet {
            energy[2] = reference::quadruplet_forces(&mut store, &bbox, q.as_ref());
            count[2] = all_quadruplets(&store, &bbox, q.cutoff()).len() as u64;
        }
        (count[0], count[1]) = (pairs.len() as u64, triplets.len() as u64);
        for (n, _) in ff.terms() {
            assert!(energy[n - 2] != 0.0 && count[n - 2] > 0, "{pot:?} {shape:?}: n = {n} idle");
        }
        let forces = store.forces().to_vec();
        let built = build(&Case { pot, shape, ..BASE }, store, bbox, timestep(pot));
        let mut exec = built.unwrap_or_else(|r| panic!("the serial SC sibling is refused: {r}"));
        exec.total_energy();
        let t = exec.telemetry();
        let state = run(&mut exec).expect("the sibling steps");
        let (virial, scale) = (t.virial, t.energy.total().abs().max(1.0));
        Truth { energy, count, forces, pairs, triplets, state, virial, scale }
    }
}

/// Steps `STEPS` times and gathers the state in id order.
fn run(exec: &mut Engine) -> Result<AtomStore, String> {
    for step in 0..STEPS {
        exec.try_step().map_err(|e| format!("step {step} failed: {e:?}"))?;
    }
    if !exec.state_is_finite() {
        return Err(format!("state not finite after {STEPS} steps"));
    }
    let mut state = exec.gather();
    state.sort_by_id();
    Ok(state)
}

fn check(case: &Case, truth: &Truth) -> Check {
    let (store, bbox) = system(case.pot, case.shape);

    // Step 0: energies and counts, then forces off one drift from rest.
    let f_max = truth.forces.iter().map(|f| f.norm()).fold(0.0, f64::max);
    let m_min = store.species_masses().iter().copied().fold(f64::INFINITY, f64::min);
    let dt = (2.0 * PROBE_DRIFT * m_min / f_max).sqrt();
    let mut rest = store.clone();
    rest.velocities_mut().fill(Vec3::ZERO);
    let mut probe = build(case, rest.clone(), bbox, dt)?;
    probe.total_energy();
    let (t, want) = (probe.telemetry(), truth.energy);
    let got = [t.energy.pair, t.energy.triplet, t.energy.quadruplet];
    let accepted =
        [t.tuples.pair.accepted, t.tuples.triplet.accepted, t.tuples.quadruplet.accepted];
    for n in 0..3 {
        if (got[n] - want[n]).abs() > ENERGY_TOL * want[n].abs() {
            return Err(format!("n = {} energy {} vs oracle {}", n + 2, got[n], want[n]));
        }
        if accepted[n] != truth.count[n] {
            return Err(format!(
                "n = {} accepted {} vs oracle {}",
                n + 2,
                accepted[n],
                truth.count[n]
            ));
        }
    }
    if (t.virial - truth.virial).abs() > VIRIAL_TOL * truth.scale {
        return Err(format!("virial {} vs serial SC {}", t.virial, truth.virial));
    }
    probe.try_step().map_err(|e| format!("probe step failed: {e:?}"))?;
    let mut moved = probe.gather();
    moved.sort_by_id();
    let mut net = Vec3::ZERO;
    for (i, want) in truth.forces.iter().enumerate() {
        let drift = bbox.min_image(rest.positions()[i], moved.positions()[i]);
        let f = drift * (rest.mass(i as u32) / (0.5 * dt * dt));
        net += f;
        if (f - *want).norm() > FORCE_TOL {
            return Err(format!("atom {i}: force {f:?} vs oracle {want:?}"));
        }
    }
    if net.norm() > NET_FORCE_TOL {
        return Err(format!("net force {net:?}"));
    }
    if matches!(case.exec, Serial(_)) && case.method != Hybrid {
        check_tuple_sets(case, &(store.clone(), bbox), truth)?;
    }

    // After `STEPS`: the sibling's state, exact ids, conserved momentum. A
    // thermostat rescales momentum with the velocities, so a thermostatted
    // case is held to its own 1×1×1 one-lane sibling instead.
    let p0 = store.net_momentum();
    let sibling = match case.thermostat {
        false => None,
        true => {
            let one = Case { exec: Serial(1), ..*case };
            let mut exec = build(&one, store.clone(), bbox, timestep(case.pot))?;
            Some(run(&mut exec).map_err(|e| format!("the 1×1×1 sibling: {e}"))?)
        }
    };
    let want = sibling.as_ref().unwrap_or(&truth.state);
    let mut exec = build(case, store, bbox, timestep(case.pot))?;
    let state = run(&mut exec)?;
    let n = want.len();
    if !state.ids().iter().copied().eq(0..n as u64) {
        return Err(format!("gathered {} atoms, ids not 0..{n}", state.len()));
    }
    for i in 0..n {
        let dr = bbox.min_image(want.positions()[i], state.positions()[i]).norm();
        let dv = (state.velocities()[i] - want.velocities()[i]).norm();
        if dr > STATE_TOL || dv > STATE_TOL {
            return Err(format!("atom {i} after {STEPS} steps: |dr| {dr:e}, |dv| {dv:e}"));
        }
    }
    let dp = (state.net_momentum() - p0).norm();
    if !case.thermostat && dp > MOMENTUM_TOL {
        return Err(format!("net momentum moved by {dp:e}"));
    }
    if case.faults {
        let retries = exec.telemetry().comm.retries;
        let (store, bbox) = system(case.pot, case.shape);
        let mut twin = build(&Case { faults: false, ..*case }, store, bbox, timestep(case.pot))?;
        let twin_state = run(&mut twin)?;
        let bits = |s: &AtomStore, e: &Engine| {
            let rv = s.positions().iter().chain(s.velocities()).flat_map(|x| [x.x, x.y, x.z]);
            (rv.map(f64::to_bits).collect::<Vec<_>>(), e.telemetry().energy.total().to_bits())
        };
        if retries == 0 || bits(&state, &exec) != bits(&twin_state, &twin) {
            return Err(format!(
                "{retries} retries; the fault-free twin's bits differ or none fired"
            ));
        }
    }
    Ok(())
}

/// The serial cell sweep's pair and triplet sets equal the oracle's, each
/// tuple visited once.
fn check_tuple_sets(case: &Case, (store, bbox): &System, truth: &Truth) -> Check {
    let k = case.subdivision;
    for (n, rcut) in force_field(case.pot, case.method).terms().into_iter().filter(|t| t.0 <= 3) {
        let mut lat = lattice_for_cutoff_subdivided(bbox, rcut, n, k);
        lat.rebuild(store);
        let plan = case.method.plan_for_reach(n, k);
        if n == 2 {
            let mut seen = Vec::new();
            visit_pairs(&lat, store, &plan, rcut, |i, j, _, _| seen.push((i.min(j), i.max(j))));
            same_set("pair", seen, &truth.pairs)?;
        } else {
            let mut seen = Vec::new();
            visit_triplets(&lat, store, &plan, rcut, |i, j, k, _, _| {
                seen.push((i.min(k), j, i.max(k)))
            });
            same_set("triplet", seen, &truth.triplets)?;
        }
    }
    Ok(())
}

fn same_set<T: Ord + Hash + Copy + Debug>(what: &str, seen: Vec<T>, want: &HashSet<T>) -> Check {
    let mut set = BTreeSet::new();
    if let Some(dup) = seen.iter().find(|&&t| !set.insert(t)) {
        return Err(format!("{what} {dup:?} visited twice"));
    }
    if let Some(missing) = want.iter().filter(|t| !set.contains(t)).min() {
        return Err(format!("{what} {missing:?} missing"));
    }
    match set.iter().find(|t| !want.contains(t)) {
        Some(extra) => Err(format!("{what} {extra:?} is not in the oracle's set")),
        None => Ok(()),
    }
}

/// Checks and prints that every value of every axis appears. The shape
/// properties are measured on the built systems, not taken from names.
fn coverage(cases: &[Case]) {
    let mut seen: BTreeMap<&str, BTreeSet<String>> = BTreeMap::new();
    let mut systems = HashMap::new();
    for c in cases {
        let (store, bbox) =
            systems.entry((c.pot, c.shape)).or_insert_with(|| system(c.pot, c.shape));
        let (l, ranks) = (bbox.lengths(), c.ranks());
        let rcut = force_field(c.pot, c.method).terms().iter().map(|t| t.1).fold(0.0, f64::max);
        let grid = RankGrid::new(ranks, *bbox);
        let mut owned = vec![0usize; grid.len()];
        store.positions().iter().for_each(|&r| owned[grid.owner_of(r)] += 1);
        let on_cut =
            |r: Vec3, a: usize| (1..ranks[a]).any(|k| r[a] == l[a] * k as f64 / ranks[a] as f64);
        let shapes = [
            ("non-cubic box", l.x != l.y || l.y != l.z),
            (
                "3 ranks on a 3-cell axis",
                (0..3).any(|a| ranks[a] == 3 && (l[a] / rcut).floor() == 3.0),
            ),
            (
                "near-empty rank",
                grid.len() > 1 && owned.iter().any(|&n| n * 10 < store.len() / grid.len()),
            ),
            (
                "atoms on cut planes",
                store.positions().iter().any(|&r| (0..3).any(|a| on_cut(r, a))),
            ),
            (
                "atoms at 0 / L",
                store.positions().iter().any(|r| (0..3).any(|a| r[a] == 0.0 || r[a] == l[a])),
            ),
        ];
        let values = [
            ("executor", format!("{:?}", c.exec)),
            ("method", format!("{:?}", c.method)),
            ("potential", format!("{:?}", c.pot)),
            ("subdivision", c.subdivision.to_string()),
            ("resort_every", c.resort_every.to_string()),
            ("thermostat", c.thermostat.to_string()),
            ("rebalance_every > 0", (c.rebalance_every > 0).to_string()),
            ("faults", c.faults.to_string()),
        ];
        let shapes = shapes.into_iter().filter(|s| s.1).map(|s| ("shape", s.0.to_string()));
        for (axis, value) in values.into_iter().chain(shapes) {
            seen.entry(axis).or_default().insert(value);
        }
    }
    println!("parity sweep: {} cases", cases.len());
    for (axis, values) in &seen {
        println!("  {axis:<20} {}", values.iter().cloned().collect::<Vec<_>>().join(" | "));
    }
    let counts: Vec<usize> = seen.values().map(BTreeSet::len).collect();
    // Alphabetical: executor, faults, method, potential, rebalance,
    // resort, shape, subdivision, thermostat.
    assert_eq!(counts, [9, 2, 3, 3, 2, 2, 5, 2, 2], "an axis value is missing: {seen:?}");
}
