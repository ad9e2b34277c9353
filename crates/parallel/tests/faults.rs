//! The fault sweep, the one fault oracle. The runtime imports ghosts
//! through a small, fixed message schedule (a rank sends on three migration
//! channels and one ghost and one force channel per routing hop: three hops
//! under SC, six under FS and Hybrid), so the transport faults of a small
//! grid are few enough to enumerate instead of sample. A case is a list of
//! faults, each keyed by (step, sending rank, channel, kind) as
//! `FaultPlan` keys it, run under a `Supervisor`. Its expected outcome and
//! counters follow from its single faults by one composition law
//! ([`Case::expected`]):
//!
//! - the faults that land on one delivery (one step, rank and channel) add
//!   up their spoiled attempts: a stall spoils `attempts`, every other
//!   transient kind one;
//! - a delivery spoiled past the retry budget escalates to a **rollback**,
//!   which replays bitwise, and every rollback is a transport fault's;
//! - a copy a `Delay` withheld among the attempts of a delivery that rolls
//!   back outlives the restore: the replay releases it and the receiver
//!   refuses it by its phase stamp, one more spoiled attempt;
//! - each crash costs one **re-decomposition** and one rank: ids exact,
//!   state to 1e-12, momentum to 1e-9 and accepted tuples exact against
//!   the fault-free run, a watchdog death, `degraded()`, and the survivors'
//!   best grid. A crashed rank never sends again, so a fault scripted for
//!   it after its crash, or for a rank index the survivors' grid does not
//!   reach, never fires;
//! - a crash past the re-decomposition budget, or of the last rank, is a
//!   **typed abort** naming the rank and the budget or that no rank
//!   survives;
//! - otherwise the faults are **absorbed**: bitwise equal to the
//!   fault-free run, with one retry and one detected fault per spoiled
//!   attempt.
//!
//! Every fault the law fires must fire at its own step and be logged on the
//! channel it was scripted on (one event, a stall one per attempt), every
//! other fault must end pending or retired with its rank, and no copy a
//! `Delay` withheld from a rank the run's grid reaches may be left:
//! withheld copies are keyed by rank index, as pending faults are, so one
//! from an index the survivors' grid does not reach is never released.
//!
//! The cases, all SC unless named: every single fault of 2×2×1 LJ one step
//! before and one after a checkpoint, every kind on a silica grid, five
//! recovered stalls of one rank, every ordered pair of kinds in four shapes
//! on 2×1×1 LJ (two faults on one delivery, two ranks on one step, one rank
//! on two steps, two ranks on two steps), every single fault of one rank
//! and the pairs on one delivery of 2×1×1 LJ under FS and under Hybrid, and
//! the pinned storms `FaultPlan::storm(seed, 3, 10, 8, 2, ShiftCollapse)`
//! for seeds 1000–1031 on 2×2×2 LJ and silica. A failure prints the case as
//! one Rust literal; `sweep(&[that literal])` in any test reruns it alone.
//! The ignored tests (nightly CI) run the whole SC single-fault and pair
//! spaces of 2×2×1 LJ.

use sc_cell::AtomStore;
use sc_geom::{IVec3, SimulationBox};
use sc_md::supervisor::{Recoverable, Supervisor, SupervisorConfig};
use sc_md::{
    build_fcc_lattice, build_silica_like, thermalize, LatticeSpec, Method, SnapshotLayout,
};
use sc_parallel::rank::{best_grid_for, halo_width_for, ForceField};
use sc_parallel::transport::{
    force_phase, force_phase_groups, ghost_phase, ghost_phase_groups, migrate_phase, Slot,
};
use sc_parallel::{
    DistributedSim, EngineConfig, Fault, FaultEvent, FaultPlan, GhostPlan, RankGrid,
};
use sc_potential::{LennardJones, Vashishta};
use std::collections::{BTreeMap, HashMap};
use std::panic::{catch_unwind, AssertUnwindSafe};

// The case literals below, and the ones a failure prints, name these
// variants bare.
use sc_parallel::Channel::{self, Forces, Ghosts, Migrate};
use sc_parallel::FaultKind::{self, Corrupt, Crash, Delay, Drop, Stall};
use Method::{FullShell, Hybrid, ShiftCollapse};
use System::{Lj, Silica};

/// The system and force field a case runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum System {
    /// 1372-atom Lennard-Jones FCC crystal, cutoff 2.5, dt 0.002.
    Lj,
    /// 1536-atom Vashishta silica, pair + triplet, dt 0.0005.
    Silica,
}

/// One supervised run and the faults scripted into it.
#[derive(Debug, Clone)]
struct Case {
    system: System,
    method: Method,
    grid: [i32; 3],
    /// Supervised steps.
    steps: u64,
    /// The scripted faults, in plan order.
    faults: Vec<Fault>,
    /// Re-decompositions the supervisor may spend.
    redecompositions: u32,
}

/// Supervised steps of every case but a storm.
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

/// A fault on `channel`.
const fn at(step: u64, rank: usize, channel: Channel, kind: FaultKind) -> Fault {
    Fault { step, rank, channel: Some(channel), kind }
}

/// `faults` on 2×2×1 SC LJ, under the default re-decomposition budget.
fn lj(faults: &[Fault]) -> Case {
    let (system, method, grid, steps) = (Lj, ShiftCollapse, [2, 2, 1], STEPS);
    Case { system, method, grid, steps, faults: faults.to_vec(), redecompositions: 2 }
}

/// Every single (step, rank, channel, kind) of `case`'s run at `steps` from
/// `ranks`, on every channel the run sends on.
fn singles(case: &Case, steps: &[u64], ranks: &[usize]) -> Vec<Case> {
    let channels = channels(case.system, case.method, case.grid);
    let sent = cross(steps, ranks, &channels);
    let every_kind =
        sent.into_iter().flat_map(|(step, rank, c)| KINDS.map(|k| at(step, rank, c, k)));
    every_kind.map(|f| Case { faults: vec![f], ..case.clone() }).collect()
}

/// `case` with each ordered pair of kinds put on its two faults by
/// `place`.
fn every_pair(case: &Case, place: impl Fn(FaultKind, FaultKind) -> [Fault; 2]) -> Vec<Case> {
    let pairs = KINDS.iter().flat_map(|&a| KINDS.map(|b| (a, b)));
    pairs.map(|(a, b)| Case { faults: place(a, b).to_vec(), ..case.clone() }).collect()
}

/// Every `(a, b, c)` of the three lists.
fn cross<A: Copy, B: Copy>(a: &[A], b: &[B], c: &[Channel]) -> Vec<(A, B, Channel)> {
    a.iter().flat_map(|&a| b.iter().flat_map(move |&b| c.iter().map(move |&c| (a, b, c)))).collect()
}

/// Every `(x[i], x[j])` with `i < j`.
fn two_of<T: Copy>(x: &[T]) -> Vec<(T, T)> {
    x.iter().enumerate().flat_map(|(i, &a)| x[i + 1..].iter().map(move |&b| (a, b))).collect()
}

/// Every `(x[i], x[j])` with `i != j`.
fn either_way<T: Copy>(x: &[T]) -> Vec<(T, T)> {
    two_of(x).into_iter().flat_map(|(a, b)| [(a, b), (b, a)]).collect()
}

/// Two faults on one delivery, at each step, rank and channel.
fn one_delivery(case: &Case, steps: &[u64], ranks: &[usize], channels: &[Channel]) -> Vec<Case> {
    let pairs = |(s, r, c)| every_pair(case, |a, b| [at(s, r, c, a), at(s, r, c, b)]);
    cross(steps, ranks, channels).into_iter().flat_map(pairs).collect()
}

/// Two ranks on one step, the first kind from the lower rank, for each
/// two of `ranks`.
fn two_ranks(case: &Case, steps: &[u64], ranks: &[usize], channels: &[Channel]) -> Vec<Case> {
    let pairs = |(s, (r, q), c)| every_pair(case, |a, b| [at(s, r, c, a), at(s, q, c, b)]);
    cross(steps, &two_of(ranks), channels).into_iter().flat_map(pairs).collect()
}

/// One rank on two steps, the first kind at the earlier step, for each two
/// of `steps`.
fn two_steps(case: &Case, steps: &[u64], ranks: &[usize], channels: &[Channel]) -> Vec<Case> {
    let pairs = |((s, t), r, c)| every_pair(case, |a, b| [at(s, r, c, a), at(t, r, c, b)]);
    cross(&two_of(steps), ranks, channels).into_iter().flat_map(pairs).collect()
}

/// Two ranks on two steps, the first kind from the first rank at the
/// earlier step, for each two of `steps` and each two of `ranks` either way
/// round (a crash may renumber the survivors under the second fault).
fn two_ranks_two_steps(
    case: &Case,
    steps: &[u64],
    ranks: &[usize],
    channels: &[Channel],
) -> Vec<Case> {
    let pairs = |((s, t), (r, q), c)| every_pair(case, |a, b| [at(s, r, c, a), at(t, q, c, b)]);
    cross(&two_of(steps), &either_way(ranks), channels).into_iter().flat_map(pairs).collect()
}

/// The pinned storms: `FaultPlan::storm(seed, 3, 10, 8, 2, ShiftCollapse)`
/// for seeds 1000–1031, each on 2×2×2 LJ and silica for ten steps.
fn storms() -> Vec<Case> {
    let storm = |seed| FaultPlan::storm(seed, 3, 10, 8, 2, ShiftCollapse).pending().to_vec();
    let on = |system| (1000..1032).map(move |seed| Case { system, faults: storm(seed), ..STORM });
    on(Lj).chain(on(Silica)).collect()
}

/// A storm's run, before its faults.
const STORM: Case = Case {
    system: Lj,
    method: ShiftCollapse,
    grid: [2, 2, 2],
    steps: 10,
    faults: Vec::new(),
    redecompositions: 2,
};

/// The re-decomposition budget, which the pair slice's two ranks never
/// exhaust: crashes past it abort (on the first crash, and on the second
/// after the first re-decomposed), two crashes within it re-decompose
/// twice; a silica crash before a checkpoint; and pairs of faults on the
/// four ranks that differ in rank, step and channel: a Drop and a Delay on
/// a survivor after a crash renumbered the grid, and a rollback after an
/// absorbed fault; and five stalls past the retry budget on one rank of
/// 2×1×1 LJ, one a step, each recovered by a rollback: a link that fails and
/// then delivers is never declared dead.
fn budgets() -> Vec<Case> {
    let stalls: Vec<Fault> =
        (1..6).map(|step| at(step, 0, Ghosts { hop: 0 }, Stall { attempts: 3 })).collect();
    let aborted = |faults: &[Fault], redecompositions| Case { redecompositions, ..lj(faults) };
    vec![
        aborted(&[at(1, 3, Ghosts { hop: 0 }, Crash)], 0),
        aborted(&[at(3, 2, Forces { hop: 1 }, Crash)], 0),
        aborted(&[at(1, 3, Ghosts { hop: 0 }, Crash), at(3, 0, Ghosts { hop: 1 }, Crash)], 1),
        lj(&[at(1, 3, Ghosts { hop: 0 }, Crash), at(3, 0, Ghosts { hop: 1 }, Crash)]),
        Case { system: Silica, grid: [2, 1, 1], ..lj(&[at(1, 0, Forces { hop: 0 }, Crash)]) },
        lj(&[at(1, 3, Ghosts { hop: 0 }, Crash), at(3, 0, Migrate { axis: 1, dir: 1 }, Drop)]),
        lj(&[at(1, 1, Ghosts { hop: 0 }, Crash), at(3, 2, Forces { hop: 2 }, Delay)]),
        lj(&[
            at(1, 0, Ghosts { hop: 1 }, Corrupt { header: false }),
            at(3, 2, Forces { hop: 1 }, Stall { attempts: 3 }),
        ]),
        Case { grid: [2, 1, 1], steps: 6, ..lj(&stalls) },
    ]
}

#[test]
fn fault_sweep() {
    let silica = Case { system: Silica, grid: [2, 1, 1], ..lj(&[]) };
    let silica =
        KINDS.map(|k| Case { faults: vec![at(3, 1, Ghosts { hop: 0 }, k)], ..silica.clone() });
    sweep(&[singles(&lj(&[]), &[1, 3], &[0, 1, 2, 3]), silica.to_vec(), budgets()].concat());
}

/// Every ordered pair of kinds in each shape on 2×1×1 LJ: one delivery on
/// a channel of each class (the halo ones at the step-2 checkpoint, whose
/// epoch a rollback replays), two ranks at step 1 on two channels, one
/// rank on both sides of the checkpoint, once from the priming import of
/// step 0, and each rank then the other across the checkpoint.
#[test]
fn fault_pairs() {
    let case = Case { grid: [2, 1, 1], ..lj(&[]) };
    let cases = [
        one_delivery(&case, &[1], &[1], &[Migrate { axis: 0, dir: 1 }]),
        one_delivery(&case, &[2], &[1], &[Ghosts { hop: 1 }, Forces { hop: 2 }]),
        two_ranks(&case, &[1], &[0, 1], &[Ghosts { hop: 0 }, Migrate { axis: 2, dir: 1 }]),
        two_steps(&case, &[1, 3], &[0], &[Forces { hop: 0 }]),
        two_steps(&case, &[0, 3], &[1], &[Ghosts { hop: 2 }]),
        two_ranks_two_steps(&case, &[1, 3], &[0, 1], &[Migrate { axis: 1, dir: 1 }]),
    ];
    sweep(&cases.concat());
}

/// FS and Hybrid route ghosts and forces over six hops, fifteen channels a
/// rank: on 2×1×1 LJ, every kind on every channel of rank 1 past the step-2
/// checkpoint, and every ordered pair of kinds on one delivery of a hop SC
/// does not route (FS the −x ghost band, Hybrid the −z force return) at the
/// checkpoint's own step.
#[test]
fn six_hop_methods() {
    let cases = [(FullShell, Ghosts { hop: 1 }), (Hybrid, Forces { hop: 5 })].map(|(method, c)| {
        let case = Case { method, grid: [2, 1, 1], ..lj(&[]) };
        [singles(&case, &[3], &[1]), one_delivery(&case, &[2], &[1], &[c])].concat()
    });
    sweep(&cases.concat());
}

#[test]
fn pinned_storms() {
    sweep(&storms());
}

#[test]
#[ignore = "nightly: 1152 faults"]
fn every_single_fault_on_the_lj_grid() {
    sweep(&singles(&lj(&[]), &[0, 1, 2, 3], &[0, 1, 2, 3]));
}

#[test]
#[ignore = "nightly: 78 336 fault pairs"]
fn every_fault_pair_on_the_lj_grid() {
    let (case, steps, ranks) = (lj(&[]), [0, 1, 2, 3], [0, 1, 2, 3]);
    let channels = channels(case.system, case.method, case.grid);
    let shapes = [one_delivery, two_ranks, two_steps, two_ranks_two_steps];
    let cases = shapes.map(|shape| shape(&case, &steps, &ranks, &channels)).concat();
    assert_eq!(cases.len(), 78_336);
    sweep(&cases);
}

/// How a supervised run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Outcome {
    Absorbed,
    RolledBack,
    Redecomposed,
    Aborted,
}

/// What the composition law calls for.
#[derive(Debug)]
struct Expected {
    outcome: Outcome,
    /// Spoiled delivery attempts over the run.
    spoiled: u64,
    /// Crashes recovered by re-decomposition.
    redecompositions: u64,
    /// The rank count the run ends on.
    ranks: usize,
    /// The rank whose crash aborts the run, and what the error names beside
    /// it: the spent re-decomposition budget, or the grid of no survivors.
    aborted_by: Option<(usize, &'static str)>,
    /// Whether each fault fires, in plan order.
    fires: Vec<bool>,
    /// The faults left pending at the end: unfired, and not retired with a
    /// crashed rank.
    pending: Vec<Fault>,
}

/// Delivery attempts a fault spoils: a stall `attempts`, any other kind
/// one.
fn spoils(kind: FaultKind) -> u32 {
    if let Stall { attempts } = kind {
        attempts
    } else {
        1
    }
}

/// The channels a rank of `method` on `grid` sends on in a step, read off
/// rank 0's phase plans: one migration slot per axis (`Migrate` matches by
/// axis only), one ghost and one force slot per hop — nine under SC,
/// fifteen under FS and Hybrid. `sent_channels` checks that every rank of
/// the grid sends on the same.
fn channels(system: System, method: Method, grid: [i32; 3]) -> Vec<Channel> {
    let mut listed: Vec<Channel> = Vec::new();
    for c in phases(system, method, grid, 0, 1).concat() {
        if !listed.iter().any(|k| k.matches(c)) {
            listed.push(c);
        }
    }
    listed
}

/// The channels `rank` of `system` under `method` on `grid` sends in each
/// exchange phase of one step, in the engine's order, read off the rank's
/// phase plans: the three migrations, then a cycle (the ghost groups, then
/// the force groups). Step 0 first primes its forces with a cycle of its
/// own.
fn phases(
    system: System,
    method: Method,
    grid: [i32; 3],
    rank: usize,
    step: u64,
) -> Vec<Vec<Channel>> {
    let (ff, (_, bbox)) = (force_field(system, method), atoms(system));
    let grid = RankGrid::new(IVec3::new(grid[0], grid[1], grid[2]), bbox);
    let plan = GhostPlan::for_method(ff.method, halo_width_for(&ff, &grid)).unwrap();
    let sent = |(sends, _): (Vec<Slot>, Vec<Slot>)| sends.iter().map(|s| s.channel).collect();
    let migrate = (0..3).map(|axis| sent(migrate_phase(&grid, rank, axis)));
    let ghosts = ghost_phase_groups(&plan).into_iter().map(|g| ghost_phase(&grid, &plan, rank, &g));
    let forces = force_phase_groups(&plan).into_iter().map(|g| force_phase(&grid, &plan, rank, &g));
    let cycle: Vec<Vec<Channel>> = ghosts.chain(forces).map(sent).collect();
    let prime = if step == 0 { cycle.clone() } else { Vec::new() };
    prime.into_iter().chain(migrate).chain(cycle).collect()
}

impl Case {
    /// The one-line literal that reruns this case in `sweep(&[…])`.
    fn literal(&self) -> String {
        format!("{self:?}").replacen("faults: [", "faults: vec![", 1)
    }

    /// The composition law (module docs): the faults in firing order (by
    /// step, then by the phase that first sends the fault's channel, then
    /// by rank, as ranks send in order within a phase), each firing unless
    /// its rank was retired by a crash, is not on the survivors' grid, or
    /// the run has aborted.
    fn expected(&self) -> Expected {
        let schedule = [0, 1].map(|step| phases(self.system, self.method, self.grid, 0, step));
        let channels = channels(self.system, self.method, self.grid);
        // The index of a fault's channel (migration slots match by axis).
        let slot = |f: &Fault| {
            let channel = f.channel.expect("a sweep fault names its channel");
            channels.iter().position(|c| c.matches(channel)).expect("a channel every rank sends on")
        };
        let phase = |f: &Fault| {
            let channel = f.channel.expect("a sweep fault names its channel");
            let sends = |p: &Vec<Channel>| p.iter().any(|c| c.matches(channel));
            schedule[usize::from(f.step > 0)].iter().position(sends)
        };
        let mut order: Vec<usize> = (0..self.faults.len()).collect();
        order.sort_by_key(|&i| {
            (self.faults[i].step, phase(&self.faults[i]), self.faults[i].rank, i)
        });
        let mut ranks = self.grid.iter().product::<i32>() as usize;
        let (mut retired, mut aborted_by) = (Vec::new(), None);
        let mut fires = vec![false; self.faults.len()];
        let mut deliveries: HashMap<(u64, usize, usize), u32> = HashMap::new();
        // Delays with the attempts spoiled before each on its delivery.
        let mut delays = Vec::new();
        for i in order {
            let f = self.faults[i];
            if aborted_by.is_some() || retired.contains(&f.rank) || f.rank >= ranks {
                continue;
            }
            fires[i] = true;
            match f.kind {
                Crash if retired.len() == self.redecompositions as usize => {
                    aborted_by = Some((f.rank, "budget"))
                }
                Crash if ranks == 1 => aborted_by = Some((f.rank, "no surviving rank")),
                Crash => {
                    retired.push(f.rank);
                    let (ff, bbox) = (force_field(self.system, self.method), atoms(self.system).1);
                    ranks = best_grid_for(&ff, bbox, ranks - 1).map_or(0, |g| g.product() as usize);
                }
                kind => {
                    let delivery = (f.step, f.rank, slot(&f));
                    let spoiled = deliveries.entry(delivery).or_default();
                    if kind == Delay {
                        delays.push((delivery, *spoiled));
                    }
                    *spoiled += spoils(kind);
                }
            }
        }
        // A Delay among the attempts of a delivery that rolls back leaves
        // its copy withheld across the restore; the replay refuses it.
        let stale =
            delays.iter().filter(|(d, before)| *before <= RETRIES && deliveries[d] > RETRIES);
        let outcome = match (aborted_by, retired.len()) {
            (Some(_), _) => Outcome::Aborted,
            (None, 0) if deliveries.values().any(|&n| n > RETRIES) => Outcome::RolledBack,
            (None, 0) => Outcome::Absorbed,
            (None, _) => Outcome::Redecomposed,
        };
        let unfired = self
            .faults
            .iter()
            .zip(&fires)
            .filter(|&(f, &fired)| !fired && !retired.contains(&f.rank));
        Expected {
            outcome,
            spoiled: deliveries.values().map(|&n| n as u64).sum::<u64>() + stale.count() as u64,
            redecompositions: retired.len() as u64,
            ranks,
            aborted_by,
            pending: unfired.map(|(f, _)| *f).collect(),
            fires,
        }
    }
}

fn force_field(system: System, method: Method) -> ForceField {
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

/// The distributed engine of `system` under `method` on `grid`, configured
/// with `faults` only.
fn build(system: System, method: Method, grid: [i32; 3], faults: FaultPlan) -> DistributedSim {
    let (store, bbox) = atoms(system);
    let (pdims, dt) = (IVec3::new(grid[0], grid[1], grid[2]), [0.002, 0.0005][system as usize]);
    let cfg = EngineConfig { faults, ..Default::default() };
    DistributedSim::build(store, bbox, pdims, force_field(system, method), dt, cfg).unwrap()
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

/// The last step's accepted pairs, triplets and quadruplets.
fn accepted(sim: &DistributedSim) -> [u64; 3] {
    let t = sim.telemetry().tuples;
    [t.pair.accepted, t.triplet.accepted, t.quadruplet.accepted]
}

/// A fault-free run: its gathered state, its bits and its accepted tuples.
struct Truth {
    state: AtomStore,
    bits: Vec<u64>,
    accepted: [u64; 3],
}

/// A run's key: its system, method, grid and supervised steps.
type Run = (System, Method, [i32; 3], u64);

/// The fault-free run of one system under one method on one grid.
/// Supervised with an empty plan it retries and rolls back nothing, and it
/// is bitwise a bare run with the default configuration.
fn truth((system, method, grid, steps): Run) -> Result<Truth, String> {
    let mut sim = build(system, method, grid, FaultPlan::none());
    let mut sup = supervisor(0);
    sup.run(&mut sim, steps).map_err(|e| format!("the fault-free run failed: {e}"))?;
    let (comm, stats) = (sim.comm_stats(), sup.stats());
    if comm.retries + comm.faults_detected + stats.rollbacks != 0 {
        return Err(format!("the fault-free run recovered from something: {comm:?} {stats:?}"));
    }
    let ((store, bbox), pdims) = (atoms(system), IVec3::new(grid[0], grid[1], grid[2]));
    let dt = Recoverable::checkpoint(&sim).dt;
    let mut bare =
        DistributedSim::new(store, bbox, pdims, force_field(system, method), dt).unwrap();
    bare.run(steps as usize);
    match bits(&bare) == bits(&sim) {
        true => Ok(Truth { state: sim.gather(), bits: bits(&sim), accepted: accepted(&sim) }),
        false => Err("supervision with an empty plan changed the bits".to_string()),
    }
}

/// Runs every case, collecting failures (a panic included) so one run
/// reports them all, each as a literal that reruns it alone, and prints the
/// run count per outcome and the fired faults per channel.
fn sweep(cases: &[Case]) {
    let mut runs: Vec<Run> = cases.iter().map(|c| (c.system, c.method, c.grid, c.steps)).collect();
    runs.sort_by_key(|r| format!("{r:?}"));
    runs.dedup();
    runs.iter().for_each(|&(system, method, grid, _)| sent_channels(system, method, grid));
    let built = par_map(&runs, |&run| {
        catch_unwind(|| truth(run)).unwrap_or_else(|panic| Err(panic_text(&panic)))
    });
    let truth: HashMap<_, _> = runs.into_iter().zip(built).collect();
    let outcomes =
        par_map(cases, |case| match &truth[&(case.system, case.method, case.grid, case.steps)] {
            Ok(truth) => catch_unwind(AssertUnwindSafe(|| check(case, truth)))
                .unwrap_or_else(|panic| Err(panic_text(&panic))),
            Err(why) => Err(why.clone()),
        });
    let mut counts: BTreeMap<Outcome, usize> = BTreeMap::new();
    let mut fired: BTreeMap<String, usize> = BTreeMap::new();
    let mut failures = Vec::new();
    for (case, out) in cases.iter().zip(outcomes) {
        match out {
            Ok((outcome, events)) => {
                *counts.entry(outcome).or_default() += 1;
                for e in events {
                    *fired.entry(format!("{:?}", e.channel)).or_default() += 1;
                }
            }
            Err(why) => failures.push(format!("{why}\n    rerun: sweep(&[{}])", case.literal())),
        }
    }
    println!(
        "fault sweep: {} runs, {counts:?}\n  fault events per channel: {fired:?}",
        cases.len()
    );
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

/// `(step, rank, channel, kind)` with a stall's attempts left out, as one
/// sortable line.
fn event_key(step: u64, rank: usize, channel: Option<Channel>, kind: FaultKind) -> String {
    let kind = if let Stall { .. } = kind { Stall { attempts: 0 } } else { kind };
    format!("{step} {rank} {channel:?} {kind:?}")
}

/// Runs one case and checks it ended as the composition law calls for:
/// what fired and what is left, the outcome, its counters and its state.
fn check(case: &Case, truth: &Truth) -> Result<(Outcome, Vec<FaultEvent>), String> {
    let want = case.expected();
    let plan = case.faults.iter().fold(FaultPlan::none(), |plan, &f| plan.with(f));
    let (mut sim, mut sup) =
        (build(case.system, case.method, case.grid, plan), supervisor(case.redecompositions));
    let result = sup.run(&mut sim, case.steps);
    let plan = sim.fault_plan();
    let fired = case.faults.iter().zip(&want.fires).filter(|&(_, &fires)| fires);
    // Each event names the channel its fault was scripted on.
    let each = |(f, _): (&Fault, _)| {
        vec![event_key(f.step, f.rank, f.channel, f.kind); spoils(f.kind) as usize]
    };
    let mut expected: Vec<String> = fired.flat_map(each).collect();
    let mut events: Vec<String> =
        plan.events().iter().map(|e| event_key(e.step, e.rank, Some(e.channel), e.kind)).collect();
    expected.sort();
    events.sort();
    if events != expected {
        return Err(format!("fired {events:?}, not {expected:?} (a line per event)"));
    }
    let sorted = |faults: &[Fault]| {
        let mut lines: Vec<String> = faults.iter().map(|f| format!("{f:?}")).collect();
        lines.sort();
        lines
    };
    if sorted(plan.pending()) != sorted(&want.pending) {
        return Err(format!("pending {:?}, not {:?}", plan.pending(), want.pending));
    }
    let withheld = plan.withheld().filter(|&rank| rank < sim.grid().len()).count();
    if withheld != 0 {
        return Err(format!("{withheld} delayed copies withheld at the end"));
    }
    let (stats, comm, deaths) = (sup.stats(), sim.comm_stats(), sim.health().counters().deaths);
    let outcome = match (&result, stats.redecompositions, stats.rollbacks) {
        (Err(_), ..) => Outcome::Aborted,
        (Ok(()), 0, 0) => Outcome::Absorbed,
        (Ok(()), 0, _) => Outcome::RolledBack,
        (Ok(()), ..) => Outcome::Redecomposed,
    };
    if outcome != want.outcome {
        return Err(format!("ended {outcome:?}, not {:?}: {result:?} {stats:?}", want.outcome));
    }
    let why = result.err().map(|e| e.to_string()).unwrap_or_default();
    let n = want.redecompositions;
    let must = match outcome {
        Outcome::Absorbed => vec![
            (
                (comm.retries, comm.faults_detected) == (want.spoiled, want.spoiled),
                "a detected fault and a retry per spoiled attempt",
            ),
            (bits(&sim) == truth.bits, "bitwise the fault-free run"),
        ],
        Outcome::RolledBack => vec![(bits(&sim) == truth.bits, "bitwise the fault-free run")],
        Outcome::Redecomposed => vec![
            (
                (stats.redecompositions, stats.ranks_lost) == (n, n),
                "one re-decomposition and one rank lost per crash",
            ),
            (deaths > 0 && sim.degraded(), "a watchdog death and a degraded run"),
            (sim.grid().len() == want.ranks, "the survivors' best grid"),
            (accepted(&sim) == truth.accepted, "the fault-free run's accepted tuples"),
        ],
        Outcome::Aborted => vec![(
            want.aborted_by.is_some_and(|(r, reason)| {
                why.contains(&format!("rank {r} ")) && why.contains(reason)
            }),
            "an error naming the rank and why it cannot re-decompose",
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
        same_state(&sim.gather(), &truth.state, sim.grid().bbox(), STATE_TOL)?;
    }
    Ok((outcome, plan.events().to_vec()))
}

/// Position and velocity, absolute, after a re-decomposition.
const STATE_TOL: f64 = 1e-12;
/// Net momentum against the fault-free run, absolute.
const MOMENTUM_TOL: f64 = 1e-9;

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

/// Checks that every rank of `grid` sends in a step on exactly the
/// [`channels`] rank 0 does, each once, read off its phase plans (migration
/// slots matched by axis, as the receiver matches them).
fn sent_channels(system: System, method: Method, grid: [i32; 3]) {
    let listed = channels(system, method, grid);
    for rank in 0..grid.iter().product::<i32>() as usize {
        let mut sent = phases(system, method, grid, rank, 1).concat();
        sent.dedup_by(|a, b| a.matches(*b));
        let known = |c: &Channel| listed.iter().any(|k| k.matches(*c));
        assert!(sent.len() == listed.len() && sent.iter().all(known), "rank {rank} sends {sent:?}");
    }
}

/// A grid checkpoint restores onto any topology: shrinking to 1×1×1,
/// reshaping, and returning to the original grid all land on the
/// checkpointed point bitwise, the run continued on the original grid is
/// bitwise the uninterrupted run, and one step from the same checkpoint on
/// two grids accepts the same tuples (the paper's
/// decomposition-independence invariant).
#[test]
fn checkpoint_restores_across_topologies_bitwise() {
    let mut sim = build(Lj, ShiftCollapse, [2, 2, 2], FaultPlan::none());
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
    let mut a = build(Lj, ShiftCollapse, [2, 2, 2], FaultPlan::none());
    let mut b = build(Lj, ShiftCollapse, [2, 2, 2], FaultPlan::none());
    a.restore_onto(&cp, IVec3::new(1, 1, 1)).unwrap();
    b.restore_onto(&cp, IVec3::new(2, 2, 1)).unwrap();
    a.run(1);
    b.run(1);
    let (ta, tb) = (a.telemetry().tuples, b.telemetry().tuples);
    assert_eq!(ta.pair.accepted, tb.pair.accepted, "pair acceptance is grid-independent");
    assert_eq!(ta.triplet.accepted, tb.triplet.accepted);
    assert_eq!(same_state(&a.gather(), &b.gather(), &cp.bbox(), 1e-10), Ok(()));
}
