//! The fault sweep: the SC runtime imports ghosts through a small, fixed
//! message schedule (three migrate, three ghost and three force phases per
//! step), so the single transport faults of a small grid are few enough to
//! enumerate instead of sample. One constant list keys each case by
//! (system, grid, step, sending rank, channel, kind), the key `FaultPlan`
//! uses. Every case runs under a `Supervisor`, every scripted fault must
//! fire at its own step, the plan must end exhausted, every rollback must
//! be a transport fault's, and the run must end in exactly the outcome its
//! kinds call for, with that outcome's counters:
//!
//! - **absorbed in-step** (drop, delay, corrupt body or header, a stall of
//!   at most the retry budget): bitwise equal to the fault-free run, one
//!   detected fault and one retry per spoiled delivery attempt, no
//!   rollback;
//! - **rolled back** (a stall one past the retry budget): bitwise equal,
//!   `comm_faults == rollbacks ≥ 1`;
//! - **re-decomposed** (a crash): ids exact, state to 1e-12 and momentum to
//!   1e-9 of the fault-free run; one re-decomposition and one rank lost per
//!   crash, a watchdog death, `degraded()`, fewer ranks;
//! - **typed abort** (a crash past the re-decomposition budget): an error
//!   naming the rank and the budget.
//!
//! A failure prints the case as one Rust literal; `sweep(&[that literal])`
//! in any test reruns it alone. `every_single_fault_on_the_lj_grid`
//! (ignored; nightly CI) runs the whole single-fault space of the LJ grid.

use sc_cell::AtomStore;
use sc_geom::{IVec3, SimulationBox};
use sc_md::supervisor::{Recoverable, Supervisor, SupervisorConfig};
use sc_md::{
    build_fcc_lattice, build_silica_like, thermalize, LatticeSpec, Method, SnapshotLayout,
};
use sc_parallel::rank::{halo_width_for, ForceField};
use sc_parallel::transport::{force_phase, ghost_phase, migrate_phase};
use sc_parallel::{
    DistributedSim, EngineConfig, Fault, FaultEvent, FaultPlan, GhostPlan, RankGrid,
};
use sc_potential::{LennardJones, Vashishta};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};

// The case literals below, and the ones a failure prints, name these
// variants bare.
use sc_parallel::Channel::{self, Forces, Ghosts, Migrate};
use sc_parallel::FaultKind::{self, Corrupt, Crash, Delay, Drop, Stall};
use System::{Lj, Silica};

/// The system and force field a case runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum System {
    /// 1372-atom Lennard-Jones FCC crystal, cutoff 2.5, dt 0.002.
    Lj,
    /// 1536-atom Vashishta silica, pair + triplet, dt 0.0005.
    Silica,
}

/// One run: a scripted fault (and maybe a second) under supervision.
#[derive(Debug, Clone, Copy)]
struct Case {
    system: System,
    grid: [i32; 3],
    step: u64,
    /// The sending rank.
    rank: usize,
    channel: Channel,
    kind: FaultKind,
    /// A second fault in the same run.
    second: Option<Fault>,
    /// Re-decompositions the supervisor may spend.
    redecompositions: u32,
}

const BASE: Case = Case {
    system: Lj,
    grid: [2, 2, 1],
    step: 1,
    rank: 0,
    channel: Ghosts { hop: 0 },
    kind: Drop,
    second: None,
    redecompositions: 2,
};

/// Supervised steps every case runs.
const STEPS: u64 = 4;
/// Steps between the supervisor's checkpoints: one at build time, one at
/// step 2, one at step 4.
const CHECKPOINT_EVERY: u64 = 2;
/// Rollbacks per checkpoint interval: a crash is declared dead after six
/// exhausted retry budgets, each of which costs one.
const MAX_ROLLBACKS: u32 = 16;
/// The engine's retry budget: a delivery gets `1 + RETRIES` attempts.
const RETRIES: u32 = 2;

/// Every kind, in order: four single-attempt faults, stalls of one
/// attempt, of the retry budget and one past it, and a crash.
const KINDS: [FaultKind; 8] = [
    Drop,
    Delay,
    Corrupt { header: false },
    Corrupt { header: true },
    Stall { attempts: 1 },
    Stall { attempts: RETRIES },
    Stall { attempts: RETRIES + 1 },
    Crash,
];

/// The nine channels a rank of these grids sends on: one migration slot
/// per axis (`Migrate` matches by axis only), one ghost and one force slot
/// per hop. `coverage` checks them against each rank's phase plan.
const CHANNELS: [Channel; 9] = [
    Migrate { axis: 0, dir: 1 },
    Migrate { axis: 1, dir: 1 },
    Migrate { axis: 2, dir: 1 },
    Ghosts { hop: 0 },
    Ghosts { hop: 1 },
    Ghosts { hop: 2 },
    Forces { hop: 0 },
    Forces { hop: 1 },
    Forces { hop: 2 },
];

/// Every (step, rank, channel, kind) of 2×2×1 LJ at `steps`.
const fn lj_space<const S: usize, const N: usize>(steps: [u64; S]) -> [Case; N] {
    let per_rank = CHANNELS.len() * KINDS.len();
    assert!(N == S * 4 * per_rank);
    let mut out = [BASE; N];
    let mut i = 0;
    while i < N {
        let (step, rank) = (steps[i / (4 * per_rank)], i / per_rank % 4);
        let (channel, kind) = (i / KINDS.len() % CHANNELS.len(), i % KINDS.len());
        out[i] = Case { step, rank, channel: CHANNELS[channel], kind: KINDS[kind], ..BASE };
        i += 1;
    }
    out
}

/// The LJ grid's whole single-fault space one step before and one after
/// the step-2 checkpoint, so rollbacks land on both the build-time and a
/// mid-run snapshot.
static LJ_AROUND_A_CHECKPOINT: [Case; 576] = lj_space([1, 3]);

/// Silica on 2×1×1: every kind on one ghost channel of rank 1, after the
/// step-2 checkpoint. A crash leaves one survivor, so the run shrinks to
/// 1×1×1.
const SILICA: [Case; 8] =
    every_kind(Case { system: Silica, grid: [2, 1, 1], step: 3, rank: 1, ..BASE });

/// `base` under every kind.
const fn every_kind(base: Case) -> [Case; 8] {
    let (mut out, mut k) = ([base; 8], 0);
    while k < KINDS.len() {
        out[k].kind = KINDS[k];
        k += 1;
    }
    out
}

/// A second fault in a run.
const fn and(step: u64, rank: usize, channel: Channel, kind: FaultKind) -> Option<Fault> {
    Some(Fault { step, rank, channel: Some(channel), kind })
}

/// Two faults in one run: in-budget faults on one delivery (its retry is
/// corrupted too), on distinct steps, and from two ranks on one step are
/// absorbed; one past the budget still rolls back; a crash still
/// re-decomposes with an absorbed fault after it; crashes past the
/// re-decomposition budget abort; and a silica crash before a checkpoint.
const MORE: &[Case] = &[
    Case {
        step: 2,
        rank: 1,
        second: and(2, 1, Ghosts { hop: 0 }, Corrupt { header: false }),
        ..BASE
    },
    Case {
        step: 0,
        kind: Stall { attempts: 2 },
        second: and(2, 3, Forces { hop: 0 }, Delay),
        ..BASE
    },
    Case {
        step: 2,
        kind: Delay,
        second: and(2, 2, Ghosts { hop: 2 }, Corrupt { header: true }),
        ..BASE
    },
    Case {
        kind: Corrupt { header: true },
        second: and(3, 2, Forces { hop: 2 }, Stall { attempts: 3 }),
        ..BASE
    },
    Case { rank: 3, kind: Crash, second: and(3, 0, Migrate { axis: 1, dir: 1 }, Drop), ..BASE },
    Case { rank: 3, kind: Crash, redecompositions: 0, ..BASE },
    Case { step: 3, rank: 2, channel: Forces { hop: 1 }, kind: Crash, redecompositions: 0, ..BASE },
    Case {
        rank: 3,
        kind: Crash,
        second: and(3, 0, Ghosts { hop: 1 }, Crash),
        redecompositions: 1,
        ..BASE
    },
    Case { system: Silica, grid: [2, 1, 1], channel: Forces { hop: 0 }, kind: Crash, ..BASE },
];

/// Position and velocity, absolute, after a re-decomposition.
const STATE_TOL: f64 = 1e-12;
/// Net momentum against the fault-free run, absolute.
const MOMENTUM_TOL: f64 = 1e-9;

#[test]
fn fault_sweep() {
    let cases: Vec<Case> = [&LJ_AROUND_A_CHECKPOINT[..], &SILICA, MORE].concat();
    coverage(&cases, &[1, 3]);
    sweep(&cases);
}

#[test]
#[ignore = "nightly: 1152 faults"]
fn every_single_fault_on_the_lj_grid() {
    static ALL: [Case; 1152] = lj_space([0, 1, 2, 3]);
    coverage(&ALL, &[0, 1, 2, 3]);
    sweep(&ALL);
}

/// How a supervised run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Outcome {
    Absorbed,
    RolledBack,
    Redecomposed,
    Aborted,
}

impl Case {
    /// The scripted faults, in order.
    fn faults(&self) -> Vec<Fault> {
        let (step, rank, channel, kind) = (self.step, self.rank, Some(self.channel), self.kind);
        std::iter::once(Fault { step, rank, channel, kind }).chain(self.second).collect()
    }

    fn ranks(&self) -> u64 {
        self.grid.iter().product::<i32>() as u64
    }

    /// The outcome the kinds call for.
    fn expected(&self) -> Outcome {
        let faults = self.faults();
        let crashes = faults.iter().filter(|f| f.kind == Crash).count() as u32;
        let past_budget = |f: &Fault| matches!(f.kind, Stall { attempts } if attempts > RETRIES);
        match crashes {
            0 if faults.iter().any(past_budget) => Outcome::RolledBack,
            0 => Outcome::Absorbed,
            n if n > self.redecompositions => Outcome::Aborted,
            _ => Outcome::Redecomposed,
        }
    }
}

fn force_field(system: System) -> ForceField {
    let method = Method::ShiftCollapse;
    let mut ff = ForceField { pair: None, triplet: None, quadruplet: None, method };
    match system {
        Lj => ff.pair = Some(Box::new(LennardJones::reduced(2.5))),
        Silica => {
            let v = Vashishta::silica();
            ff.pair = Some(Box::new(v.pair));
            ff.triplet = Some(Box::new(v.triplet));
        }
    }
    ff
}

fn atoms(system: System) -> (AtomStore, SimulationBox) {
    match system {
        Lj => build_fcc_lattice(&LatticeSpec::cubic(7, 1.5599), 0.1, 42),
        Silica => {
            let masses = Vashishta::silica().params().masses;
            let (mut store, bbox) = build_silica_like(4, 7.16, masses, 0.0, 42);
            thermalize(&mut store, 0.05, 42);
            (store, bbox)
        }
    }
}

/// The distributed engine of `system` on `grid`, configured with `faults`
/// only.
fn build(system: System, grid: [i32; 3], faults: FaultPlan) -> DistributedSim {
    let (store, bbox) = atoms(system);
    let (pdims, dt) = (IVec3::new(grid[0], grid[1], grid[2]), [0.002, 0.0005][system as usize]);
    let cfg = EngineConfig { faults, ..Default::default() };
    DistributedSim::build(store, bbox, pdims, force_field(system), dt, cfg).unwrap()
}

fn supervisor(redecompositions: u32) -> Supervisor {
    Supervisor::new(SupervisorConfig {
        checkpoint_every: CHECKPOINT_EVERY,
        max_rollbacks: MAX_ROLLBACKS,
        max_redecompositions: redecompositions,
        ..SupervisorConfig::default()
    })
}

/// The gathered ids, position and velocity bits, and the last potential
/// energy's bits: what "bitwise equal" compares.
fn bits(sim: &DistributedSim) -> Vec<u64> {
    let mut bits = words(&sim.gather());
    bits.push(sim.telemetry().energy.total().to_bits());
    bits
}

/// A store's ids, position bits and velocity bits.
fn words(s: &AtomStore) -> Vec<u64> {
    let r = s.positions().iter().chain(s.velocities()).flat_map(|v| [v.x, v.y, v.z]);
    s.ids().iter().copied().chain(r.map(f64::to_bits)).collect()
}

/// The fault-free run of one system on one grid, its gathered state and
/// bits. Supervised with an empty plan it retries and rolls back nothing,
/// and it is bitwise a bare run with the default configuration.
fn truth(system: System, grid: [i32; 3]) -> Result<(AtomStore, Vec<u64>), String> {
    let mut sim = build(system, grid, FaultPlan::none());
    let mut sup = supervisor(0);
    sup.run(&mut sim, STEPS).map_err(|e| format!("the fault-free run failed: {e}"))?;
    let (comm, stats) = (sim.comm_stats(), sup.stats());
    if comm.retries + comm.faults_detected + stats.rollbacks != 0 {
        return Err(format!("the fault-free run recovered from something: {comm:?} {stats:?}"));
    }
    let ((store, bbox), pdims) = (atoms(system), IVec3::new(grid[0], grid[1], grid[2]));
    let dt = Recoverable::checkpoint(&sim).dt;
    let mut bare = DistributedSim::new(store, bbox, pdims, force_field(system), dt).unwrap();
    bare.run(STEPS as usize);
    match bits(&bare) == bits(&sim) {
        true => Ok((sim.gather(), bits(&sim))),
        false => Err("supervision with an empty plan changed the bits".to_string()),
    }
}

/// Runs every case, collecting failures (a panic included) so one run
/// reports them all, each as a literal that reruns it alone, and prints the
/// run count per outcome.
fn sweep(cases: &[Case]) {
    let mut runs: Vec<(System, [i32; 3])> = cases.iter().map(|c| (c.system, c.grid)).collect();
    runs.sort_by_key(|r| format!("{r:?}"));
    runs.dedup();
    let built = par_map(&runs, |&(system, grid)| {
        catch_unwind(|| truth(system, grid)).unwrap_or_else(|panic| Err(panic_text(&panic)))
    });
    let truth: HashMap<_, _> = runs.into_iter().zip(built).collect();
    let outcomes = par_map(cases, |case| match &truth[&(case.system, case.grid)] {
        Ok(truth) => catch_unwind(AssertUnwindSafe(|| check(case, truth)))
            .unwrap_or_else(|panic| Err(panic_text(&panic))),
        Err(why) => Err(why.clone()),
    });
    let mut counts: BTreeMap<Outcome, usize> = BTreeMap::new();
    let mut failures = Vec::new();
    for (case, out) in cases.iter().zip(outcomes) {
        match out {
            Ok(outcome) => *counts.entry(outcome).or_default() += 1,
            Err(why) => failures.push(format!("{why}\n    rerun: sweep(&[{case:?}])")),
        }
    }
    println!("fault sweep: {} runs, {counts:?}", cases.len());
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

/// Runs one case and checks it ended in the outcome its kinds call for,
/// with that outcome's counters and state.
fn check(case: &Case, (state, want): &(AtomStore, Vec<u64>)) -> Result<Outcome, String> {
    let faults = case.faults();
    let plan = faults.iter().fold(FaultPlan::none(), |plan, &f| plan.with(f));
    let (mut sim, mut sup) =
        (build(case.system, case.grid, plan), supervisor(case.redecompositions));
    let result = sup.run(&mut sim, STEPS);
    let (plan, kind) = (sim.fault_plan(), |k| std::mem::discriminant(&k));
    let at = |f: &Fault, e: &FaultEvent| {
        (e.step, e.rank, kind(e.kind)) == (f.step, f.rank, kind(f.kind))
    };
    if let Some(f) = faults.iter().find(|&f| !plan.events().iter().any(|e| at(f, e))) {
        return Err(format!("{f:?} did not fire at its step; fired: {:?}", plan.events()));
    }
    if !plan.is_exhausted() {
        return Err(format!("faults left pending: {:?}", plan.pending()));
    }
    let (stats, comm, deaths) = (sup.stats(), sim.comm_stats(), sim.health().counters().deaths);
    let outcome = match (&result, stats.redecompositions, stats.rollbacks) {
        (Err(_), ..) => Outcome::Aborted,
        (Ok(()), 0, 0) => Outcome::Absorbed,
        (Ok(()), 0, _) => Outcome::RolledBack,
        (Ok(()), ..) => Outcome::Redecomposed,
    };
    if outcome != case.expected() {
        return Err(format!("ended {outcome:?}, not {:?}: {result:?} {stats:?}", case.expected()));
    }
    // Each in-budget fault spoils one delivery attempt, a stall `attempts`
    // of them, and each spoiled attempt is detected and retried.
    let spoiled = |f: &Fault| if let Stall { attempts } = f.kind { attempts as u64 } else { 1 };
    let failed: u64 = faults.iter().map(spoiled).sum();
    let crashes: Vec<&Fault> = faults.iter().filter(|f| f.kind == Crash).collect();
    let (n, survivors) = (crashes.len() as u64, sim.grid().len() as u64);
    let why = result.err().map(|e| e.to_string()).unwrap_or_default();
    // The crash that finds the re-decomposition budget spent is the one named.
    let named = crashes.get(case.redecompositions as usize).map(|f| format!("rank {} ", f.rank));
    let must = match outcome {
        Outcome::Absorbed => vec![
            (
                (comm.retries, comm.faults_detected) == (failed, failed),
                "a detected fault and a retry per spoiled attempt",
            ),
            (bits(&sim) == *want, "bitwise the fault-free run"),
        ],
        Outcome::RolledBack => vec![(bits(&sim) == *want, "bitwise the fault-free run")],
        Outcome::Redecomposed => vec![
            (
                (stats.redecompositions, stats.ranks_lost) == (n, n),
                "one re-decomposition and one rank lost per crash",
            ),
            (deaths > 0 && sim.degraded(), "a watchdog death and a degraded run"),
            (survivors + n <= case.ranks() && (case.system == Lj || survivors == 1), "fewer ranks"),
        ],
        Outcome::Aborted => vec![(
            named.is_some_and(|r| why.contains(&r)) && why.contains("budget"),
            "an error naming the rank and the budget",
        )],
    };
    let every = [(stats.comm_faults == stats.rollbacks, "every rollback a transport fault's")];
    if let Some((_, what)) = every.into_iter().chain(must).find(|(holds, _)| !holds) {
        let counters = format!("{} retries, {} detected", comm.retries, comm.faults_detected);
        return Err(format!(
            "{outcome:?}, but not {what}: {counters}, {deaths} deaths, {stats:?} {why}"
        ));
    }
    if outcome == Outcome::Redecomposed {
        same_state(&sim.gather(), state, sim.grid().bbox(), STATE_TOL)?;
    }
    Ok(outcome)
}

/// Same ids, positions (minimum image) and velocities to `tol`, and net
/// momentum to `MOMENTUM_TOL`.
fn same_state(a: &AtomStore, b: &AtomStore, bbox: &SimulationBox, tol: f64) -> Result<(), String> {
    if a.ids() != b.ids() {
        return Err(format!("{} atoms gathered, ids differ from the fault-free run", a.len()));
    }
    for i in 0..a.len() {
        let dr = bbox.min_image(a.positions()[i], b.positions()[i]).norm();
        let dv = (a.velocities()[i] - b.velocities()[i]).norm();
        if dr > tol || dv > tol {
            return Err(format!("atom {i}: |dr| {dr:e}, |dv| {dv:e}"));
        }
    }
    let dp = (a.net_momentum() - b.net_momentum()).norm();
    match dp > MOMENTUM_TOL {
        true => Err(format!("net momentum off by {dp:e}")),
        false => Ok(()),
    }
}

/// Checks and prints that `cases` hold, as single faults, every (rank, sent
/// channel, kind) of 2×2×1 LJ at each of `steps`, where the channels a rank
/// sends on are read off its phase plans (migration slots matched by axis,
/// as the receiver matches them).
fn coverage(cases: &[Case], steps: &[u64]) {
    let (ff, (_, bbox)) = (force_field(Lj), atoms(Lj));
    let grid = RankGrid::new(IVec3::new(2, 2, 1), bbox);
    let plan = GhostPlan::for_method(ff.method, halo_width_for(&ff, &grid)).unwrap();
    let hops: Vec<usize> = (0..plan.hop_count()).collect();
    for rank in 0..grid.len() {
        let migrate = (0..3).flat_map(|axis| migrate_phase(&grid, rank, axis).0);
        let halo =
            [ghost_phase(&grid, &plan, rank, &hops).0, force_phase(&grid, &plan, rank, &hops).0];
        let mut sent: Vec<Channel> = migrate.chain(halo.concat()).map(|s| s.channel).collect();
        sent.dedup_by(|a, b| a.matches(*b));
        let listed = |c: &Channel| CHANNELS.iter().any(|k| k.matches(*c));
        assert!(
            sent.len() == CHANNELS.len() && sent.iter().all(listed),
            "rank {rank} sends {sent:?}"
        );
    }
    let listed: HashSet<String> = cases.iter().map(|c| format!("{c:?}")).collect();
    let want = steps.iter().flat_map(|&step| {
        let on = move |(rank, channel)| every_kind(Case { step, rank, channel, ..BASE });
        (0..4).flat_map(move |rank| CHANNELS.map(|c| (rank, c))).flat_map(on)
    });
    let missing: Vec<Case> = want.filter(|c| !listed.contains(&format!("{c:?}"))).collect();
    assert!(missing.is_empty(), "not covered: {missing:?}");
    println!("fault sweep: every (rank, sent channel, kind) of 2×2×1 LJ at steps {steps:?}");
}

/// A grid checkpoint restores onto any topology: shrinking to 1×1×1,
/// reshaping, and returning to the original grid all land on the
/// checkpointed point bitwise, the run continued on the original grid is
/// bitwise the uninterrupted run, and one step from the same checkpoint on
/// two grids accepts the same tuples (the paper's
/// decomposition-independence invariant).
#[test]
fn checkpoint_restores_across_topologies_bitwise() {
    let mut sim = build(Lj, [2, 2, 2], FaultPlan::none());
    sim.run(3);
    let cp = Recoverable::checkpoint(&sim);
    assert_eq!(cp.layout, SnapshotLayout::Grid { pdims: [2, 2, 2] });
    cp.require_layout(SnapshotLayout::Grid { pdims: [2, 2, 2] }).unwrap();
    assert!(cp.require_layout(SnapshotLayout::Serial).is_err(), "layout provenance must match");
    sim.run(3);
    let (uninterrupted, tuples) = (bits(&sim), sim.telemetry().tuples);

    let mut snapshot = cp.to_store();
    snapshot.sort_by_id();
    for pdims in [IVec3::new(1, 1, 1), IVec3::new(1, 2, 2), IVec3::splat(2)] {
        sim.restore_onto(&cp, pdims).unwrap();
        assert_eq!(sim.steps_done(), 3);
        assert!(words(&sim.gather()) == words(&snapshot), "restore onto {pdims:?}");
    }
    sim.run(3);
    assert!(bits(&sim) == uninterrupted, "the same-grid round trip must replay bitwise");
    assert_eq!(sim.telemetry().tuples, tuples);

    // The summation order inside a rank differs between grids, so one step
    // is exact physics but not bitwise.
    let mut a = build(Lj, [2, 2, 2], FaultPlan::none());
    let mut b = build(Lj, [2, 2, 2], FaultPlan::none());
    a.restore_onto(&cp, IVec3::new(1, 1, 1)).unwrap();
    b.restore_onto(&cp, IVec3::new(2, 2, 1)).unwrap();
    a.run(1);
    b.run(1);
    let (ta, tb) = (a.telemetry().tuples, b.telemetry().tuples);
    assert_eq!(ta.pair.accepted, tb.pair.accepted, "pair acceptance is grid-independent");
    assert_eq!(ta.triplet.accepted, tb.triplet.accepted);
    assert_eq!(same_state(&a.gather(), &b.gather(), &cp.bbox(), 1e-10), Ok(()));
}
