//! The user-facing simulation driver.

use crate::apply::{hybrid_forces, ForceField, Term};
use crate::checkpoint::Checkpoint;
use crate::engine::{PatternPlan, PeriodicSource, VisitStats};
use crate::error::BuildError;
use crate::integrate::{berendsen_rescale, velocity_verlet_finish, velocity_verlet_start};
use crate::methods::{lattice_for_cutoff_subdivided, Method, NeighborList};
use crate::par::{ForceAccumulator, ThreadPool};
use crate::stats::{EnergyBreakdown, TupleCounts};
use crate::telemetry::Telemetry;
use sc_cell::{AtomStore, CellLattice};
use sc_geom::{IVec3, SimulationBox, Vec3};
use sc_obs::{CommCounters, HealthCounters, Phase, PhaseBreakdown, TraceSink, Tracer};
use sc_potential::{PairPotential, QuadrupletPotential, TripletPotential};
use std::time::Instant;

/// Runtime/observability configuration of a [`Simulation`], passed to
/// [`SimulationBuilder::build`] via [`SimulationBuilder::runtime`].
///
/// Scalar fields are validated by `build()`; a rejected value comes back as
/// [`BuildError::Config`] naming the field.
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// Parallel force-evaluation lanes. `0` (default) sizes the pool to the
    /// host's available parallelism; `1` runs inline with no workers.
    pub threads: usize,
    /// Verlet-list skin for Hybrid-MD (ignored by the cell-sweep methods):
    /// the pair list is built with cutoff `r_cut2 + skin` and reused until
    /// an atom moves more than `skin/2`. Zero (default) rebuilds every
    /// step — the fully dynamic mode the paper benchmarks. Must be finite
    /// and ≥ 0.
    pub verlet_skin: f64,
    /// Morton re-sort cadence: every `resort_every`-th step the atom store
    /// is permuted along the Z-order curve of a canonical cell lattice (max
    /// term cutoff, no skin, no subdivision), so cell neighbours stay memory
    /// neighbours for the batched distance kernels. `0` disables re-sorting.
    /// The cadence trades permutation cost against gather locality; once
    /// sorted, atoms drift across cells slowly, so a small power of two
    /// (default 8) keeps the layout tight at negligible cost.
    pub resort_every: u64,
    /// The event tracer phase intervals and markers flow into. Defaults to
    /// [`Tracer::disabled`], which is allocation-free and never reads the
    /// clock in the hot path.
    pub tracer: Tracer,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig { threads: 0, verlet_skin: 0.0, resort_every: 8, tracer: Tracer::disabled() }
    }
}

/// Builder for [`Simulation`]. Obtained from [`Simulation::builder`].
pub struct SimulationBuilder {
    store: AtomStore,
    bbox: SimulationBox,
    ff: ForceField,
    dt: f64,
    thermostat: Option<(f64, f64)>,
    subdivision: i32,
    runtime: RuntimeConfig,
}

impl SimulationBuilder {
    /// Sets the pair (n = 2) potential term.
    pub fn pair_potential(mut self, p: Box<dyn PairPotential>) -> Self {
        self.ff.pair = Some(p);
        self
    }

    /// Sets the triplet (n = 3) potential term.
    pub fn triplet_potential(mut self, p: Box<dyn TripletPotential>) -> Self {
        self.ff.triplet = Some(p);
        self
    }

    /// Sets the quadruplet (n = 4) potential term.
    pub fn quadruplet_potential(mut self, p: Box<dyn QuadrupletPotential>) -> Self {
        self.ff.quadruplet = Some(p);
        self
    }

    /// Sets every potential term and the method at once.
    pub fn force_field(mut self, ff: ForceField) -> Self {
        self.ff = ff;
        self
    }

    /// Selects the n-tuple computation method (default:
    /// [`Method::ShiftCollapse`]).
    pub fn method(mut self, m: Method) -> Self {
        self.ff.method = m;
        self
    }

    /// Sets the integration timestep (default 0.001). Validated by
    /// [`SimulationBuilder::build`]: a non-positive or non-finite value is
    /// rejected as [`BuildError::Config`] with `field = "timestep"`.
    pub fn timestep(mut self, dt: f64) -> Self {
        self.dt = dt;
        self
    }

    /// Enables a Berendsen thermostat with target temperature and coupling
    /// ratio `dt/τ ∈ (0, 1]`.
    pub fn thermostat(mut self, target: f64, dt_over_tau: f64) -> Self {
        assert!(target >= 0.0 && (0.0..=1.0).contains(&dt_over_tau));
        self.thermostat = Some((target, dt_over_tau));
        self
    }

    /// Sets the runtime/observability configuration: threads, the Verlet
    /// skin, the re-sort cadence and the tracer.
    /// Scalars are validated by [`SimulationBuilder::build`].
    pub fn runtime(mut self, runtime: RuntimeConfig) -> Self {
        self.runtime = runtime;
        self
    }

    /// Subdivides cells `k`-fold (edge ≥ `r_cut/k`) and uses reach-k
    /// patterns — the §6 generalization toward the midpoint method. Smaller
    /// cells prune the candidate space faster than the pattern grows
    /// (`reach_theory::search_volume_ratio`), at the cost of more cells.
    /// Default 1 (the paper's main setting).
    pub fn cell_subdivision(mut self, k: i32) -> Self {
        assert!((1..=3).contains(&k), "supported subdivisions: 1..=3");
        self.subdivision = k;
        self
    }

    /// Validates the configuration and builds the simulation.
    ///
    /// # Errors
    /// See [`BuildError`] — no terms, Hybrid without a pair term, cutoff
    /// ordering violations, a box too small for some term's lattice, a
    /// degenerate scalar configuration value ([`BuildError::Config`] names
    /// the field), or non-finite initial positions/velocities.
    pub fn build(self) -> Result<Simulation, BuildError> {
        let SimulationBuilder { store, bbox, ff, dt, thermostat, subdivision: k, runtime } = self;
        let terms = ff.terms();
        if terms.is_empty() {
            return Err(BuildError::NoTerms);
        }
        if !(dt > 0.0 && dt.is_finite()) {
            return Err(BuildError::Config { field: "timestep", value: dt });
        }
        let skin = runtime.verlet_skin;
        if !(skin >= 0.0 && skin.is_finite()) {
            return Err(BuildError::Config { field: "verlet_skin", value: skin });
        }
        for i in 0..store.len() {
            if !store.positions()[i].is_finite() {
                return Err(BuildError::NonFiniteAtom { index: i, what: "position" });
            }
            if !store.velocities()[i].is_finite() {
                return Err(BuildError::NonFiniteAtom { index: i, what: "velocity" });
            }
        }
        let hybrid = ff.method == Method::Hybrid;
        if hybrid {
            let rcut2 = ff.pair.as_ref().ok_or(BuildError::HybridNeedsPair)?.cutoff();
            if let Some(&(n, rcut_n)) = terms.iter().find(|&&(_, rcut_n)| rcut_n > rcut2) {
                return Err(BuildError::CutoffOrder { n, rcut_n, rcut2 });
            }
        }
        // The radius a term's search resolves images at: its cutoff, plus
        // the skin for the pair search that feeds Hybrid's Verlet list (its
        // cells must hold the skin shell too, or the 27-cell sweep would
        // miss it).
        let reach = |n: usize, rcut: f64| if hybrid && n == 2 { rcut + skin } else { rcut };
        // A cutoff beyond half the shortest box edge makes the minimum-image
        // convention ambiguous: atom j and its periodic image can both fall
        // inside the cutoff, and a single-image sweep double-counts (or picks
        // the wrong copy of) such pairs. The k = 1 lattices reject this
        // implicitly (they need 3 cells of edge ≥ r_cut per axis), but
        // subdivided lattices (cell edge r_cut/k) would let it through.
        let l = bbox.lengths();
        let min_edge = l.x.min(l.y).min(l.z);
        for &(n, rcut) in &terms {
            if reach(n, rcut) > 0.5 * min_edge {
                return Err(BuildError::BoxTooSmall { n, rcut: reach(n, rcut), subdivision: k });
            }
        }
        let mut searches = Vec::new();
        for &(n, rcut) in &terms {
            if hybrid && n > 2 {
                // Hybrid prunes n ≥ 3 tuples from the pair list: no lattice.
                continue;
            }
            let reach = reach(n, rcut);
            let lat =
                std::panic::catch_unwind(|| lattice_for_cutoff_subdivided(&bbox, reach, n, k))
                    .map_err(|_| BuildError::BoxTooSmall { n, rcut: reach, subdivision: k })?;
            // Plans are built only for the terms actually present — a
            // reach-k quadruplet pattern can run to millions of paths.
            searches.push(TermSearch { n, reach, plan: ff.method.plan_for_reach(n, k), lat });
        }
        // Canonical Morton sort lattice: largest *raw* term cutoff, no skin,
        // no subdivision — deliberately independent of method/runtime knobs,
        // so every method applied to the same system re-sorts identically
        // (cross-method trajectory comparisons stay elementwise valid). The
        // max-cutoff term's own lattice already required ≥ 3 cells per axis
        // at this edge, so this construction cannot fail.
        let sort_cutoff = terms.iter().map(|&(_, rcut)| rcut).fold(f64::NEG_INFINITY, f64::max);
        let sort_lat = CellLattice::new(bbox, sort_cutoff);
        let pool = match runtime.threads {
            0 => ThreadPool::auto(),
            threads => ThreadPool::new(threads),
        };
        Ok(Simulation {
            store,
            bbox,
            ff,
            dt,
            searches,
            thermostat,
            skin,
            subdivision: k,
            resort_every: runtime.resort_every,
            sort_cutoff,
            sort_lat,
            last_sort_step: None,
            hybrid: HybridCache::default(),
            hybrid_builds: 0,
            lanes: (0..pool.lanes()).map(|_| ForceAccumulator::default()).collect(),
            pool,
            tsink: runtime.tracer.sink(0, 0),
            tracer: runtime.tracer,
            total_phases: PhaseBreakdown::new(),
            step_start: PhaseBreakdown::new(),
            last_stats: LastComputation::default(),
            steps_done: 0,
        })
    }
}

/// A complete MD simulation: atoms + box + potential terms + an n-tuple
/// computation method, integrating NVE (optionally thermostatted) with
/// velocity Verlet and recomputing the dynamic tuple sets every step.
pub struct Simulation {
    store: AtomStore,
    bbox: SimulationBox,
    ff: ForceField,
    dt: f64,
    /// The cell searches the method runs, in ascending n: one per term for
    /// SC-MD / FS-MD, the pair search alone (feeding the Verlet list) for
    /// Hybrid-MD.
    searches: Vec<TermSearch>,
    thermostat: Option<(f64, f64)>,
    skin: f64,
    subdivision: i32,
    /// Morton re-sort cadence ([`RuntimeConfig::resort_every`]; 0 = never).
    resort_every: u64,
    /// Largest raw term cutoff — the canonical sort lattice's cell edge.
    sort_cutoff: f64,
    /// Canonical lattice whose Z-order curve defines the data-sorted layout.
    sort_lat: CellLattice,
    /// Step index of the last applied re-sort, so repeated force
    /// computations within one step (or explicit [`Simulation::compute_forces`]
    /// calls between steps) permute at most once per step.
    last_sort_step: Option<u64>,
    hybrid: HybridCache,
    /// Monotonic count of Verlet-list builds — lives outside the cache so
    /// that cache invalidations (re-sort, geometry change) don't reset it.
    hybrid_builds: u64,
    /// The persistent worker pool the cell sweeps fan out on.
    pool: ThreadPool,
    /// One force accumulator per pool lane, owned for the simulation's
    /// lifetime; Hybrid-MD uses lane 0's.
    lanes: Vec<ForceAccumulator>,
    tracer: Tracer,
    /// The engine's own event sink (rank 0, lane 0); inert when tracing is
    /// disabled.
    tsink: TraceSink,
    total_phases: PhaseBreakdown,
    /// The cumulative phase breakdown as it stood when the most recent step
    /// began, so telemetry can report that step (and any force computation
    /// since) alone.
    step_start: PhaseBreakdown,
    last_stats: LastComputation,
    steps_done: u64,
}

/// One term's cell search: the compiled pattern and the lattice it sweeps.
struct TermSearch {
    n: usize,
    /// The radius the lattice's cells are sized to resolve.
    reach: f64,
    plan: PatternPlan,
    lat: CellLattice,
}

/// The physics of the most recent force computation, surfaced through
/// [`Simulation::telemetry`].
#[derive(Debug, Clone, Copy, Default)]
struct LastComputation {
    energy: EnergyBreakdown,
    tuples: TupleCounts,
    /// Scalar virial `W = Σ_tuples Σ_k f_k · (r_k − r_ref)` over all terms —
    /// the potential part of the pressure `P = (N k_B T + W/3) / V`.
    virial: f64,
}

/// The Hybrid-MD Verlet list, rebuilt in place so its buffers are reused,
/// and what deciding whether a skinned list is still good needs.
#[derive(Default)]
struct HybridCache {
    list: NeighborList,
    /// Positions at the last build; kept only with a skin.
    ref_positions: Vec<Vec3>,
    build_stats: VisitStats,
    /// The [`AtomStore::generation`] the list was built against, `None`
    /// while there is no list for the current geometry: the list is
    /// slot-indexed, so any structural change (re-sort, push, removal)
    /// retires it.
    generation: Option<u64>,
    /// Builds that grew a buffer — the list's share of
    /// [`Simulation::scratch_allocation_events`].
    alloc_events: u64,
}

impl Simulation {
    /// Starts building a simulation over `store` in `bbox`.
    pub fn builder(store: AtomStore, bbox: SimulationBox) -> SimulationBuilder {
        SimulationBuilder {
            store,
            bbox,
            ff: ForceField {
                pair: None,
                triplet: None,
                quadruplet: None,
                method: Method::ShiftCollapse,
            },
            dt: 0.001,
            thermostat: None,
            subdivision: 1,
            runtime: RuntimeConfig::default(),
        }
    }

    /// The atoms.
    pub fn store(&self) -> &AtomStore {
        &self.store
    }

    /// Mutable atom access (e.g. to perturb positions in tests).
    pub fn store_mut(&mut self) -> &mut AtomStore {
        &mut self.store
    }

    /// The periodic box.
    pub fn bbox(&self) -> &SimulationBox {
        &self.bbox
    }

    /// The configured method.
    pub fn method(&self) -> Method {
        self.ff.method
    }

    /// The unified telemetry snapshot: physics of the most recent force
    /// computation, per-phase timings (since the most recent step began,
    /// and cumulative), and allocation accounting. Communication and health
    /// fields are empty for the shared-memory engine.
    pub fn telemetry(&self) -> Telemetry {
        Telemetry {
            step: self.steps_done,
            energy: self.last_stats.energy,
            tuples: self.last_stats.tuples,
            virial: self.last_stats.virial,
            phases: self.total_phases.since(&self.step_start),
            total_phases: self.total_phases,
            comm: CommCounters::default(),
            per_rank: Vec::new(),
            health: HealthCounters::default(),
            alloc_events: self.scratch_allocation_events(),
            degraded: false,
        }
    }

    /// The event tracer this simulation emits into (disabled unless one was
    /// supplied via [`RuntimeConfig::tracer`]). Collect with
    /// [`Tracer::events`] after a run.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Number of completed steps.
    pub fn steps_done(&self) -> u64 {
        self.steps_done
    }

    /// Recomputes all forces and energies from the current positions —
    /// rebinning the cell lattices (dynamic tuple computation), running the
    /// per-term UCP searches, and accumulating forces. Returns the
    /// [`Telemetry`] snapshot as it stands after the computation, except
    /// that its `phases` cover this computation alone (where
    /// [`Simulation::telemetry`] reports everything since the step began).
    pub fn compute_forces(&mut self) -> Telemetry {
        // Tracing is branch-guarded: a disabled sink reads no clock here.
        let trace_t0 = if self.tsink.enabled() { self.tsink.now_ns() } else { 0 };
        let mut energy = EnergyBreakdown::default();
        let mut tuples = TupleCounts::default();
        let mut phases = PhaseBreakdown::new();
        let t_sort = Instant::now();
        if self.maybe_resort() {
            phases.add(Phase::Bin, t_sort.elapsed().as_secs_f64());
        }
        self.store.zero_forces();
        let mut virial = 0.0;
        if self.ff.method == Method::Hybrid {
            virial = self.compute_hybrid(&mut energy, &mut tuples, &mut phases);
        } else {
            for search in &mut self.searches {
                let term = self.ff.term(search.n).expect("one search per active term");
                let t_bin = Instant::now();
                search.lat.rebuild(&self.store);
                phases.add(Phase::Bin, t_bin.elapsed().as_secs_f64());
                let (e, w, s) = par_term_forces(
                    &self.pool,
                    &mut self.lanes,
                    &search.lat,
                    &mut self.store,
                    &search.plan,
                    term,
                    &mut phases,
                );
                *energy.term_mut(search.n) = e;
                virial += w;
                *tuples.term_mut(search.n) = s;
            }
        }
        self.last_stats = LastComputation { energy, tuples, virial };
        self.total_phases.accumulate(&phases);
        if self.tsink.enabled() {
            self.trace_computation(trace_t0, &phases);
        }
        Telemetry { phases, ..self.telemetry() }
    }

    /// Emits one trace event per [`Phase`] slot for the force computation
    /// that started at `t0` (tracer-relative nanoseconds): an aggregate
    /// `Compute` interval spanning the whole computation, then every other
    /// slot laid out cumulatively in canonical order with its measured
    /// duration (zero for phases this engine does not exercise, so a trace
    /// always carries the full taxonomy).
    fn trace_computation(&self, t0: u64, phases: &PhaseBreakdown) {
        let step = self.steps_done;
        let wall_ns = self.tsink.now_ns().saturating_sub(t0);
        self.tsink.phase(step, Phase::Compute, t0, wall_ns);
        let mut cursor = t0;
        for (phase, secs) in phases.iter() {
            if phase == Phase::Compute {
                continue;
            }
            let dur_ns = (secs * 1e9) as u64;
            self.tsink.phase(step, phase, cursor, dur_ns);
            cursor += dur_ns;
        }
    }

    /// Applies the Morton re-sort when the cadence says so: permutes the
    /// store along the Z-order curve of the canonical sort lattice, keyed on
    /// `steps_done` so the decision is a pure function of replayable state
    /// (checkpoint restore replays it bitwise). Returns whether a permutation
    /// was applied. The slot-indexed Hybrid Verlet list is keyed on the
    /// store generation the permutation bumps; re-binning of the term
    /// lattices happens immediately after in `compute_forces`, so no stale
    /// slot index survives.
    fn maybe_resort(&mut self) -> bool {
        if self.resort_every == 0
            || !self.steps_done.is_multiple_of(self.resort_every)
            || self.last_sort_step == Some(self.steps_done)
        {
            return false;
        }
        self.last_sort_step = Some(self.steps_done);
        self.store.sort_by_cell(&self.sort_lat);
        true
    }

    /// Number of allocation events (buffer growths) in the force scratch
    /// since construction: the lanes' accumulators plus the Hybrid-MD list.
    /// Flat across steps once warm — the observable behind the
    /// zero-allocation steady-state guarantee.
    pub fn scratch_allocation_events(&self) -> u64 {
        self.lanes.iter().map(ForceAccumulator::allocation_events).sum::<u64>()
            + self.hybrid.alloc_events
    }

    /// Number of parallel force-evaluation lanes in use.
    pub fn force_lanes(&self) -> usize {
        self.pool.lanes()
    }

    /// Hybrid-MD force computation. With `verlet_skin > 0` the pair list is
    /// built with cutoff `r_cut2 + skin` and reused across steps until some
    /// atom has moved more than `skin/2` since the build (the classical
    /// Verlet-list reuse criterion) or the store's slot layout changes; a
    /// reused list has its displacements refreshed from the current
    /// positions, so reuse changes cost, never physics.
    fn compute_hybrid(
        &mut self,
        energy: &mut EnergyBreakdown,
        tuples: &mut TupleCounts,
        phases: &mut PhaseBreakdown,
    ) -> f64 {
        let (positions, bbox) = (self.store.positions(), self.bbox);
        let generation = self.store.generation();
        let half_skin_sq = 0.25 * self.skin * self.skin;
        let cache = &mut self.hybrid;
        let reusable = self.skin > 0.0
            && cache.generation == Some(generation)
            && cache
                .ref_positions
                .iter()
                .zip(positions)
                .all(|(r0, r1)| bbox.dist_sq(*r0, *r1) <= half_skin_sq);
        if !reusable {
            // Binning under Hybrid covers both the cell rebuild and the
            // Verlet-list construction it feeds.
            let t_bin = Instant::now();
            let search = &mut self.searches[0];
            search.lat.rebuild(&self.store);
            let src = PeriodicSource::new(&search.lat, &self.store);
            cache.build_stats = cache.list.build_from_cells(
                &src,
                search.lat.cells(),
                self.store.len(),
                &search.plan,
                search.reach,
            );
            let held = cache.ref_positions.capacity();
            if self.skin > 0.0 {
                cache.ref_positions.clear();
                cache.ref_positions.extend_from_slice(positions);
            }
            cache.generation = Some(generation);
            let grew = cache.list.settle() | (cache.ref_positions.capacity() > held);
            cache.alloc_events += u64::from(grew);
            self.hybrid_builds += 1;
            phases.add(Phase::Bin, t_bin.elapsed().as_secs_f64());
        }
        let t_enum = Instant::now();
        if reusable {
            cache.list.refresh(|i, j| bbox.min_image(positions[i as usize], positions[j as usize]));
        }
        tuples.pair = cache.build_stats;
        let acc = &mut self.lanes[0];
        acc.begin(self.store.len());
        // One rank owns every atom: each undirected pair / centre bond is
        // taken from its lower-slot row.
        let owns_bond = |i: u32, j: u32| j > i;
        hybrid_forces(&self.ff, &cache.list, owns_bond, self.store.species(), acc, energy, tuples);
        acc.merge_into(self.store.forces_mut());
        let virial = acc.virial;
        phases.add(Phase::Enumerate, t_enum.elapsed().as_secs_f64());
        virial
    }

    /// Number of Verlet-list builds performed so far (Hybrid only) — the
    /// observable the skin optimisation improves.
    pub fn hybrid_list_builds(&self) -> u64 {
        self.hybrid_builds
    }

    /// Advances one velocity-Verlet step (with thermostat, if configured).
    /// Returns the step's [`Telemetry`] snapshot, whose phases cover the
    /// whole step: its force computations and both integrate halves.
    pub fn step(&mut self) -> Telemetry {
        self.step_start = self.total_phases;
        if self.steps_done == 0 {
            // Prime forces so the first half-kick uses real accelerations.
            self.compute_forces();
        }
        let t = Instant::now();
        velocity_verlet_start(&mut self.store, &self.bbox, self.dt);
        self.integrated(t);
        self.compute_forces();
        let t = Instant::now();
        velocity_verlet_finish(&mut self.store, self.dt);
        if let Some((target, c)) = self.thermostat {
            berendsen_rescale(&mut self.store, target, c);
        }
        self.integrated(t);
        self.steps_done += 1;
        self.telemetry()
    }

    /// Books an integrate half begun at `t` in the cumulative breakdown
    /// and traces it as an interval that ends now (as the distributed
    /// engine books its wall-clock phases).
    fn integrated(&mut self, t: Instant) {
        let secs = t.elapsed().as_secs_f64();
        self.total_phases.add(Phase::Integrate, secs);
        self.tsink.phase_ended(self.steps_done + 1, Phase::Integrate, secs);
    }

    /// Rebuilds every term's cell lattice for the current box and drops the
    /// cached Verlet list. Called by checkpoint restore, which replaces the
    /// box and the store.
    fn rebuild_lattices(&mut self) {
        for search in &mut self.searches {
            search.lat =
                lattice_for_cutoff_subdivided(&self.bbox, search.reach, search.n, self.subdivision);
        }
        // The canonical sort lattice tracks the box geometry too.
        self.sort_lat = CellLattice::new(self.bbox, self.sort_cutoff);
        // A geometry change invalidates any cached Verlet list.
        self.hybrid.generation = None;
    }

    /// Runs `n` steps, returning the last step's telemetry.
    pub fn run(&mut self, n: usize) -> Telemetry {
        for _ in 0..n {
            self.step();
        }
        self.telemetry()
    }

    /// Total (kinetic + potential) energy at the current positions.
    /// Recomputes forces as a side effect.
    pub fn total_energy(&mut self) -> f64 {
        let stats = self.compute_forces();
        stats.energy.total() + self.store.kinetic_energy()
    }

    /// The integration timestep.
    pub fn timestep(&self) -> f64 {
        self.dt
    }

    /// Overrides the integration timestep mid-run (used by the
    /// [`crate::supervisor::Supervisor`] for timestep backoff after
    /// physics-invariant rollbacks).
    pub fn set_timestep(&mut self, dt: f64) {
        assert!(dt > 0.0 && dt.is_finite(), "timestep {dt} must be positive and finite");
        self.dt = dt;
    }
}

impl crate::supervisor::Recoverable for Simulation {
    /// Serial stepping has no communication layer, so it never returns a
    /// fault — only physics-invariant violations (caught by the
    /// supervisor's own checks) can trigger rollback.
    fn try_step(&mut self) -> Result<(), crate::supervisor::StepFault> {
        self.step();
        Ok(())
    }

    fn checkpoint(&self) -> Checkpoint {
        Checkpoint::from_store(self.steps_done, self.dt, &self.bbox, &self.store)
    }

    fn restore(&mut self, cp: &Checkpoint) {
        self.store = cp.to_store();
        self.bbox = cp.bbox();
        self.dt = cp.dt;
        self.steps_done = cp.step;
        self.last_stats = LastComputation::default();
        self.step_start = self.total_phases;
        // The resort cadence is keyed on `steps_done`, which the checkpoint
        // restores; clearing the latch lets the replayed run re-sort at
        // exactly the steps the original run did (checkpoints preserve slot
        // order, so the permutations — and hence the trajectory — replay
        // bitwise).
        self.last_sort_step = None;
        // Restored forces came from the checkpoint, so a step-0 restore must
        // not re-prime over them — except a checkpoint taken before any force
        // computation, whose forces are identically zero and whose re-priming
        // reproduces them.
        self.rebuild_lattices();
    }

    fn atom_count(&self) -> usize {
        self.store.len()
    }

    /// Potential energy comes from the most recent force computation (zero
    /// until the first step primes forces), so with the energy guardrail
    /// enabled the simulation should take at least one step — or call
    /// [`Simulation::total_energy`] — before supervision starts.
    fn total_energy_estimate(&self) -> f64 {
        self.last_stats.energy.total() + self.store.kinetic_energy()
    }

    fn state_is_finite(&self) -> bool {
        let n = self.store.len();
        (0..n).all(|i| {
            self.store.positions()[i].is_finite()
                && self.store.velocities()[i].is_finite()
                && self.store.forces()[i].is_finite()
        })
    }

    fn timestep(&self) -> f64 {
        self.dt
    }

    fn set_timestep(&mut self, dt: f64) {
        Simulation::set_timestep(self, dt);
    }

    fn steps_done(&self) -> u64 {
        self.steps_done
    }
}

/// Decodes a flat cell index into lattice coordinates (x fastest).
#[inline]
fn decode_cell(dims: IVec3, c: usize) -> IVec3 {
    let dx = dims.x as usize;
    let dy = dims.y as usize;
    IVec3::new((c % dx) as i32, ((c / dx) % dy) as i32, (c / (dx * dy)) as i32)
}

/// The parallel n-tuple force kernel for one term.
///
/// The cell range is split into one contiguous span per used lane (at most
/// one per cell); lane `t` begins a use of accumulator `t` and sweeps its span
/// with [`Term::sweep`]. Afterwards the driving thread merges the dirty slots
/// of every used accumulator into the store's force array in lane order, so
/// results are deterministic for a fixed lane count. Steady-state
/// invocations perform no heap allocation: the accumulators and the pool's
/// dispatch are reused (see [`Simulation::scratch_allocation_events`]).
/// Returns the term's `(energy, virial, search statistics)`.
fn par_term_forces(
    pool: &ThreadPool,
    accs: &mut [ForceAccumulator],
    lat: &CellLattice,
    store: &mut AtomStore,
    plan: &PatternPlan,
    term: Term<'_>,
    phases: &mut PhaseBreakdown,
) -> (f64, f64, VisitStats) {
    let n = store.len();
    let dims = lat.dims();
    let ncells = (dims.x as usize) * (dims.y as usize) * (dims.z as usize);
    let used = &mut accs[..pool.lanes().min(ncells.max(1))];
    let lanes = used.len();
    let src = PeriodicSource::new(lat, store);
    let species = store.species();
    pool.for_each_mut(used, |t, acc| {
        acc.begin(n);
        let t_lane = Instant::now();
        let span = t * ncells / lanes..(t + 1) * ncells / lanes;
        term.sweep(&src, plan, span.map(|c| decode_cell(dims, c)), species, acc);
        acc.lane_s += t_lane.elapsed().as_secs_f64();
    });
    let t_reduce = Instant::now();
    let forces = store.forces_mut();
    let mut energy = 0.0;
    let mut virial = 0.0;
    let mut stats = VisitStats::default();
    for acc in used.iter_mut() {
        acc.merge_into(forces);
        energy += acc.energy;
        virial += acc.virial;
        stats.merge(acc.stats);
        phases.add(Phase::Enumerate, acc.lane_s);
    }
    phases.add(Phase::Reduce, t_reduce.elapsed().as_secs_f64());
    (energy, virial, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{build_fcc_lattice, random_gas, LatticeSpec};
    use crate::{reference, Method};
    use sc_obs::Registry;
    use sc_potential::{LennardJones, StillingerWeber, TorsionToy, Vashishta};

    fn lj_sim(method: Method) -> Simulation {
        let (store, bbox) = build_fcc_lattice(&LatticeSpec::cubic(6, 1.5599), 0.1, 42);
        Simulation::builder(store, bbox)
            .pair_potential(Box::new(LennardJones::reduced(2.5)))
            .method(method)
            .timestep(0.002)
            .build()
            .unwrap()
    }

    #[test]
    fn builder_rejects_empty_potentials() {
        let (store, bbox) = random_gas(10, 8.0, 1);
        assert!(Simulation::builder(store, bbox).build().is_err());
    }

    #[test]
    fn hybrid_requires_pair_term() {
        let (store, bbox) = random_gas(10, 8.0, 1);
        let err = match Simulation::builder(store, bbox)
            .triplet_potential(Box::new(StillingerWeber::silicon()))
            .method(Method::Hybrid)
            .build()
        {
            Err(e) => e,
            Ok(_) => panic!("hybrid without pair term should fail"),
        };
        assert_eq!(err, crate::BuildError::HybridNeedsPair);
    }

    #[test]
    fn all_methods_agree_on_lj_forces() {
        let mut sims: Vec<Simulation> = Method::ALL.iter().map(|&m| lj_sim(m)).collect();
        let energies: Vec<f64> = sims.iter_mut().map(|s| s.compute_forces().energy.pair).collect();
        let tol = 1e-11 * energies[0].abs();
        for e in &energies[1..] {
            assert!((e - energies[0]).abs() < tol, "pair energies differ: {energies:?}");
        }
        let f0: Vec<Vec3> = sims[0].store().forces().to_vec();
        for sim in &sims[1..] {
            for (a, b) in f0.iter().zip(sim.store().forces()) {
                assert!((*a - *b).norm() < 1e-8);
            }
        }
        // And they agree with the brute-force reference.
        let mut store = sims[0].store().clone();
        store.zero_forces();
        let e_ref = reference::pair_forces(&mut store, sims[0].bbox(), &LennardJones::reduced(2.5));
        assert!((e_ref - energies[0]).abs() < tol);
        for (a, b) in f0.iter().zip(store.forces()) {
            assert!((*a - *b).norm() < 1e-8);
        }
    }

    #[test]
    fn net_force_vanishes_for_every_method() {
        for &m in &Method::ALL {
            let mut sim = lj_sim(m);
            sim.compute_forces();
            assert!(
                sim.store().net_force().norm() < 1e-9,
                "{} net force {:?}",
                m.name(),
                sim.store().net_force()
            );
        }
    }

    #[test]
    fn lj_nve_conserves_energy() {
        let mut sim = lj_sim(Method::ShiftCollapse);
        let e0 = sim.total_energy();
        sim.run(50);
        let e1 = sim.total_energy();
        assert!(((e1 - e0) / e0.abs()).abs() < 1e-3, "NVE drift over 50 steps: {e0} → {e1}");
    }

    #[test]
    fn methods_produce_identical_trajectories() {
        // Same initial conditions, same forces ⇒ same trajectory (up to
        // floating-point addition order; LJ with f64 stays bit-stable for
        // tens of steps at this tolerance).
        let mut sims: Vec<Simulation> = Method::ALL.iter().map(|&m| lj_sim(m)).collect();
        for _ in 0..10 {
            for sim in &mut sims {
                sim.step();
            }
        }
        let p0 = sims[0].store().positions();
        for sim in &sims[1..] {
            for (a, b) in p0.iter().zip(sim.store().positions()) {
                assert!((*a - *b).norm() < 1e-7, "{} diverged from SC-MD", sim.method().name());
            }
        }
    }

    fn silica_sim(method: Method) -> Simulation {
        let v = Vashishta::silica();
        let masses = v.params().masses;
        let (store, bbox) = crate::workload::build_silica_like(3, 7.16, masses, 0.01, 7);
        Simulation::builder(store, bbox)
            .pair_potential(Box::new(v.pair.clone()))
            .triplet_potential(Box::new(v.triplet.clone()))
            .method(method)
            .timestep(0.0005)
            .build()
            .unwrap()
    }

    #[test]
    fn silica_methods_agree_with_reference() {
        let v = Vashishta::silica();
        let mut sims: Vec<Simulation> = Method::ALL.iter().map(|&m| silica_sim(m)).collect();
        let stats: Vec<_> = sims.iter_mut().map(|s| s.compute_forces()).collect();
        // Reference forces.
        let mut store = sims[0].store().clone();
        store.zero_forces();
        let e2 = reference::pair_forces(&mut store, sims[0].bbox(), &v.pair);
        let e3 = reference::triplet_forces(&mut store, sims[0].bbox(), &v.triplet);
        for (sim, st) in sims.iter().zip(&stats) {
            assert!(
                (st.energy.pair - e2).abs() < 1e-7 * e2.abs().max(1.0),
                "{} pair energy {} vs reference {e2}",
                sim.method().name(),
                st.energy.pair
            );
            assert!(
                (st.energy.triplet - e3).abs() < 1e-7 * e3.abs().max(1.0),
                "{} triplet energy {} vs reference {e3}",
                sim.method().name(),
                st.energy.triplet
            );
            for (a, b) in store.forces().iter().zip(sim.store().forces()) {
                assert!((*a - *b).norm() < 1e-7, "{} forces differ", sim.method().name());
            }
        }
        // Triplet term is genuinely active in this configuration.
        assert!(stats[0].tuples.triplet.accepted > 0);
    }

    #[test]
    fn hybrid_silica_terms_match_the_brute_force_reference() {
        // The list's row order is the force-summation order, so this pins
        // Hybrid-MD term by term: energies to rounding, tuple counts exactly.
        let v = Vashishta::silica();
        let mut sim = silica_sim(Method::Hybrid);
        let stats = sim.compute_forces();
        let (mut store, bbox) = (sim.store().clone(), *sim.bbox());
        store.zero_forces();
        let e2 = reference::pair_forces(&mut store, &bbox, &v.pair);
        let e3 = reference::triplet_forces(&mut store, &bbox, &v.triplet);
        assert!((stats.energy.pair - e2).abs() <= 1e-12 * e2.abs(), "pair {e2}");
        assert!((stats.energy.triplet - e3).abs() <= 1e-12 * e3.abs(), "triplet {e3}");
        let pairs = reference::all_pairs(&store, &bbox, v.pair.cutoff()).len() as u64;
        let triplets = reference::all_triplets(&store, &bbox, v.triplet.cutoff()).len() as u64;
        assert!(pairs > 0 && triplets > 0);
        assert_eq!(stats.tuples.pair.accepted, pairs);
        assert_eq!(stats.tuples.triplet.accepted, triplets);
        for (a, b) in store.forces().iter().zip(sim.store().forces()) {
            assert!((*a - *b).norm() < 1e-10, "forces differ: {a:?} vs {b:?}");
        }
    }

    #[test]
    fn sc_searches_fewer_candidates_than_fs() {
        let mut sc = silica_sim(Method::ShiftCollapse);
        let mut fs = silica_sim(Method::FullShell);
        let s_sc = sc.compute_forces();
        let s_fs = fs.compute_forces();
        let ratio = s_fs.tuples.triplet.candidates as f64 / s_sc.tuples.triplet.candidates as f64;
        assert!(ratio > 1.7, "FS/SC triplet candidate ratio {ratio}");
        // Identical accepted tuple counts: same force set.
        assert_eq!(s_fs.tuples.triplet.accepted, s_sc.tuples.triplet.accepted);
    }

    #[test]
    fn quadruplet_term_runs_under_all_methods() {
        let torsion = TorsionToy::new(0.05, 1.0, 0.3);
        let build = |m: Method| {
            // FCC with nearest-neighbour distance a/√2 ≈ 0.85 < rcut4 = 1.0,
            // so bonded chains exist; the crystal keeps pair forces bounded.
            let (store, bbox) = build_fcc_lattice(&LatticeSpec::cubic(4, 1.2), 0.02, 13);
            Simulation::builder(store, bbox)
                .pair_potential(Box::new(LennardJones::reduced(1.2)))
                .quadruplet_potential(Box::new(torsion))
                .method(m)
                .build()
                .unwrap()
        };
        let mut energies = vec![];
        let mut forces = vec![];
        for &m in &Method::ALL {
            let mut sim = build(m);
            let st = sim.compute_forces();
            energies.push(st.energy.quadruplet);
            forces.push(sim.store().forces().to_vec());
            assert!(st.tuples.quadruplet.accepted > 0, "{} found no quads", m.name());
            // The brute-force oracle: each method must match it, not just
            // the others (they could all be wrong the same way).
            let (mut store, bbox) = (sim.store().clone(), *sim.bbox());
            store.zero_forces();
            reference::pair_forces(&mut store, &bbox, &LennardJones::reduced(1.2));
            let e4 = reference::quadruplet_forces(&mut store, &bbox, &torsion);
            assert!((st.energy.quadruplet - e4).abs() < 1e-8, "{}: reference {e4}", m.name());
            for (a, b) in store.forces().iter().zip(sim.store().forces()) {
                assert!((*a - *b).norm() < 1e-8, "{} forces differ from reference", m.name());
            }
        }
        for e in &energies[1..] {
            assert!((e - energies[0]).abs() < 1e-8, "quad energies {energies:?}");
        }
        for f in &forces[1..] {
            for (a, b) in forces[0].iter().zip(f) {
                assert!((*a - *b).norm() < 1e-8);
            }
        }
    }

    #[test]
    fn subdivided_cells_reproduce_forces_exactly() {
        // §6 extension: reach-2 patterns on half-size cells find the same
        // force set, hence identical energies and forces.
        let build = |k: i32, method: Method| {
            let (store, bbox) = build_fcc_lattice(&LatticeSpec::cubic(6, 1.5599), 0.1, 42);
            Simulation::builder(store, bbox)
                .pair_potential(Box::new(LennardJones::reduced(2.5)))
                .method(method)
                .cell_subdivision(k)
                .build()
                .unwrap()
        };
        for method in [Method::ShiftCollapse, Method::FullShell] {
            let mut base = build(1, method);
            let mut sub = build(2, method);
            let e1 = base.compute_forces();
            let e2 = sub.compute_forces();
            assert!(
                (e1.energy.pair - e2.energy.pair).abs() < 1e-10 * e1.energy.pair.abs(),
                "{}: k=1 energy {} vs k=2 {}",
                method.name(),
                e1.energy.pair,
                e2.energy.pair
            );
            // Identical accepted pair sets.
            assert_eq!(e1.tuples.pair.accepted, e2.tuples.pair.accepted);
            for (a, b) in base.store().forces().iter().zip(sub.store().forces()) {
                assert!((*a - *b).norm() < 1e-9);
            }
        }
    }

    #[test]
    fn subdivided_triplet_search_examines_fewer_candidates() {
        // The §6 trade-off: at silica-like density, reach-2 cells prune the
        // triplet candidate space (reach_theory::search_volume_ratio < 1).
        let v = Vashishta::silica();
        let masses = v.params().masses;
        let build = |k: i32| {
            let (store, bbox) = crate::workload::build_silica_like(3, 7.16, masses, 0.01, 7);
            Simulation::builder(store, bbox)
                .pair_potential(Box::new(v.pair.clone()))
                .triplet_potential(Box::new(v.triplet.clone()))
                .method(Method::ShiftCollapse)
                .cell_subdivision(k)
                .build()
                .unwrap()
        };
        let s1 = build(1).compute_forces();
        let s2 = build(2).compute_forces();
        assert_eq!(s1.tuples.triplet.accepted, s2.tuples.triplet.accepted);
        assert!(
            s2.tuples.triplet.candidates < s1.tuples.triplet.candidates,
            "k=2 candidates {} should be below k=1 candidates {}",
            s2.tuples.triplet.candidates,
            s1.tuples.triplet.candidates
        );
        assert!(
            (s1.energy.triplet - s2.energy.triplet).abs() < 1e-9 * s1.energy.triplet.abs().max(1.0)
        );
    }

    /// Potential energy of a uniformly dilated copy of a simulation's
    /// system: positions and box scaled by λ.
    fn dilated_energy(
        base_store: &sc_cell::AtomStore,
        base_box: &SimulationBox,
        lambda: f64,
        build: impl Fn(sc_cell::AtomStore, SimulationBox) -> Simulation,
    ) -> f64 {
        let mut store = base_store.clone();
        for r in store.positions_mut() {
            *r *= lambda;
        }
        let bbox = SimulationBox::new(base_box.lengths() * lambda);
        let mut sim = build(store, bbox);
        sim.compute_forces().energy.total()
    }

    #[test]
    fn many_body_virial_matches_dilation_derivative() {
        // W = −dU/dλ at λ = 1 under uniform dilation — checks the pair,
        // triplet, and quadruplet virial formulas at once.
        let torsion = TorsionToy::new(0.05, 1.0, 0.3);
        let sw = {
            let mut s = StillingerWeber::silicon();
            let scale = 0.9 / (s.a * s.sigma);
            s.sigma *= scale;
            s
        };
        // a = 1.25 keeps every FCC neighbour shell comfortably away from
        // the LJ cutoff (1.2): nearest 0.884, second 1.25. A shell sitting
        // exactly on the cutoff would put the dilation derivative on a
        // tuple-set knife edge.
        let (store, bbox) = build_fcc_lattice(&LatticeSpec::cubic(5, 1.25), 0.02, 23);
        let build = |st: sc_cell::AtomStore, bb: SimulationBox| {
            Simulation::builder(st, bb)
                .pair_potential(Box::new(LennardJones::reduced(1.2)))
                .triplet_potential(Box::new(sw))
                .quadruplet_potential(Box::new(torsion))
                .method(Method::ShiftCollapse)
                .build()
                .unwrap()
        };
        let mut sim = build(store.clone(), bbox);
        let w = sim.compute_forces().virial;
        let h = 1e-6;
        let up = dilated_energy(&store, &bbox, 1.0 + h, build);
        let um = dilated_energy(&store, &bbox, 1.0 - h, build);
        let dudl = (up - um) / (2.0 * h);
        assert!((w + dudl).abs() < 1e-4 * w.abs().max(1.0), "virial {w} vs -dU/dlambda {}", -dudl);
    }

    #[test]
    fn hybrid_virial_matches_cell_methods() {
        let v = Vashishta::silica();
        let masses = v.params().masses;
        let mut virials = vec![];
        for method in Method::ALL {
            let (store, bbox) = crate::workload::build_silica_like(3, 7.16, masses, 0.01, 7);
            let mut sim = Simulation::builder(store, bbox)
                .pair_potential(Box::new(v.pair.clone()))
                .triplet_potential(Box::new(v.triplet.clone()))
                .method(method)
                .build()
                .unwrap();
            virials.push(sim.compute_forces().virial);
        }
        for w in &virials[1..] {
            assert!(
                (w - virials[0]).abs() < 1e-7 * virials[0].abs().max(1.0),
                "virials differ: {virials:?}"
            );
        }
    }

    #[test]
    fn verlet_skin_preserves_physics_and_saves_rebuilds() {
        let v = Vashishta::silica();
        let masses = v.params().masses;
        let build = |skin: f64| {
            let (store, bbox) = crate::workload::build_silica_like(3, 7.16, masses, 0.05, 7);
            Simulation::builder(store, bbox)
                .pair_potential(Box::new(v.pair.clone()))
                .triplet_potential(Box::new(v.triplet.clone()))
                .method(Method::Hybrid)
                .runtime(RuntimeConfig { verlet_skin: skin, ..RuntimeConfig::default() })
                .timestep(0.0005)
                .build()
                .unwrap()
        };
        let mut fresh = build(0.0);
        let mut skinned = build(0.5);
        for _ in 0..100 {
            fresh.step();
            skinned.step();
        }
        // Identical trajectories (reuse changes cost, not physics). Not
        // bitwise: the skinned list is built over wider cells, so its rows
        // sum the same forces in another order.
        for (a, b) in fresh.store().positions().iter().zip(skinned.store().positions()) {
            assert!((*a - *b).norm() < 1e-9);
        }
        let e_f = fresh.telemetry().energy;
        let e_s = skinned.telemetry().energy;
        assert!((e_f.pair - e_s.pair).abs() < 1e-9 * e_f.pair.abs().max(1.0));
        assert!((e_f.triplet - e_s.triplet).abs() < 1e-9 * e_f.triplet.abs().max(1.0));
        // And the skin actually avoids rebuilds.
        assert!(
            skinned.hybrid_list_builds() < fresh.hybrid_list_builds(),
            "skin rebuilds {} should be below fresh rebuilds {}",
            skinned.hybrid_list_builds(),
            fresh.hybrid_list_builds()
        );
        assert!(skinned.hybrid_list_builds() >= 1);
    }

    #[test]
    fn thermostat_drives_temperature() {
        let (store, bbox) = build_fcc_lattice(&LatticeSpec::cubic(5, 1.7), 0.5, 3);
        let mut sim = Simulation::builder(store, bbox)
            .pair_potential(Box::new(LennardJones::reduced(2.5)))
            .thermostat(0.7, 0.1)
            .timestep(0.002)
            .build()
            .unwrap();
        sim.run(200);
        let t = sim.store().temperature();
        assert!((t - 0.7).abs() < 0.2, "temperature {t} should approach 0.7");
    }

    /// Builds the same silica system with an explicit lane count through
    /// the [`RuntimeConfig`] path.
    fn silica_sim_threads(method: Method, threads: usize) -> Simulation {
        let v = Vashishta::silica();
        let masses = v.params().masses;
        let (store, bbox) = crate::workload::build_silica_like(3, 7.16, masses, 0.01, 7);
        Simulation::builder(store, bbox)
            .pair_potential(Box::new(v.pair.clone()))
            .triplet_potential(Box::new(v.triplet.clone()))
            .method(method)
            .runtime(RuntimeConfig { threads, ..RuntimeConfig::default() })
            .timestep(0.0005)
            .build()
            .unwrap()
    }

    #[test]
    fn parallel_forces_match_serial_pairs_and_triplets() {
        // The unified kernel must give the same physics regardless of lane
        // count — one lane runs inline, four lanes exercise the pool and the
        // per-lane accumulator merge. Floating-point summation order differs
        // across lane counts, so a tight (but not bitwise) tolerance.
        for method in [Method::ShiftCollapse, Method::FullShell] {
            let mut serial = silica_sim_threads(method, 1);
            let mut par = silica_sim_threads(method, 4);
            assert_eq!(par.force_lanes(), 4);
            let s = serial.compute_forces();
            let p = par.compute_forces();
            assert!(s.tuples.pair.accepted > 0 && s.tuples.triplet.accepted > 0);
            assert_eq!(s.tuples, p.tuples, "{method:?}: tuple counts must match exactly");
            let scale = s.energy.total().abs().max(1.0);
            assert!(
                (s.energy.pair - p.energy.pair).abs() < 1e-10 * scale,
                "{method:?}: pair energy {} vs {}",
                s.energy.pair,
                p.energy.pair
            );
            assert!(
                (s.energy.triplet - p.energy.triplet).abs() < 1e-10 * scale,
                "{method:?}: triplet energy {} vs {}",
                s.energy.triplet,
                p.energy.triplet
            );
            assert!((s.virial - p.virial).abs() < 1e-9 * scale);
            for (a, b) in serial.store().forces().iter().zip(par.store().forces()) {
                assert!((*a - *b).norm() < 1e-9, "{method:?}: force {a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn parallel_forces_deterministic_for_fixed_lane_count() {
        // Same lane count ⇒ same task → lane partition ⇒ bitwise-identical
        // forces across runs (merges happen in lane order).
        let forces = |_: usize| {
            let mut sim = silica_sim_threads(Method::ShiftCollapse, 3);
            sim.compute_forces();
            sim.store().forces().to_vec()
        };
        let a = forces(0);
        let b = forces(1);
        assert_eq!(a, b, "fixed lane count must be bitwise deterministic");
    }

    #[test]
    fn steady_state_hybrid_steps_do_not_allocate_scratch() {
        // The Verlet list is rebuilt in place: its rows, the fill's gather
        // buffers and (with a skin) the reference positions are all counted,
        // and none grows once the first builds have sized them.
        for skin in [0.0, 0.5] {
            let runtime = RuntimeConfig { verlet_skin: skin, threads: 1, ..Default::default() };
            let v = Vashishta::silica();
            let (store, bbox) =
                crate::workload::build_silica_like(3, 7.16, v.params().masses, 0.05, 7);
            let mut sim = Simulation::builder(store, bbox)
                .pair_potential(Box::new(v.pair.clone()))
                .triplet_potential(Box::new(v.triplet.clone()))
                .method(Method::Hybrid)
                .runtime(runtime)
                .timestep(0.0005)
                .build()
                .unwrap();
            sim.run(2);
            let warm = sim.scratch_allocation_events();
            assert!(warm >= 2, "skin {skin}: the accumulator and the list were sized");
            sim.run(14);
            assert_eq!(sim.scratch_allocation_events(), warm, "skin {skin}");
            assert!(sim.hybrid_list_builds() >= if skin > 0.0 { 1 } else { 16 });
        }
    }

    #[test]
    fn steady_state_steps_do_not_allocate_scratch() {
        // Regression for the zero-allocation guarantee: steady state must
        // add no allocations per step anywhere — neither in the lanes'
        // force scratch nor in the (inert) tracer.
        let mut sim = silica_sim_threads(Method::ShiftCollapse, 2);
        sim.run(2); // warm up: every lane sizes its accumulator
        let warm = sim.scratch_allocation_events();
        // One event per lane sizes its accumulator; the triplet sweeps'
        // link-row buffers, kept with the accumulators, account for the
        // rest — so the flat-line assertions below cover them too.
        assert!(warm > sim.force_lanes() as u64, "warm-up must have grown the link rows");
        let warm_total = sim.telemetry().alloc_events;
        sim.run(5);
        assert_eq!(
            sim.scratch_allocation_events(),
            warm,
            "steady-state steps must reuse the lanes' accumulators, not allocate"
        );
        assert_eq!(
            sim.telemetry().alloc_events,
            warm_total,
            "telemetry's combined allocation observable must stay flat"
        );
        // The default tracer is the inert one: no rings, no events, and
        // (asserted in sc-obs) no clock reads on any emit path.
        assert!(!sim.tracer().enabled());
        assert!(sim.tracer().events().is_empty());
        assert_eq!(sim.tracer().dropped(), 0);
    }

    #[test]
    fn tracing_emits_every_phase_and_integrate_spans() {
        let tracer = sc_obs::Tracer::new();
        let v = Vashishta::silica();
        let masses = v.params().masses;
        let (store, bbox) = crate::workload::build_silica_like(3, 7.16, masses, 0.01, 7);
        let mut sim = Simulation::builder(store, bbox)
            .pair_potential(Box::new(v.pair.clone()))
            .triplet_potential(Box::new(v.triplet.clone()))
            .runtime(RuntimeConfig { tracer: tracer.clone(), ..RuntimeConfig::default() })
            .timestep(0.0005)
            .build()
            .unwrap();
        sim.run(2);
        assert!(sim.tracer().enabled());
        let events = tracer.events();
        // Every slot of the taxonomy appears at least once, including the
        // comm phases the serial engine never exercises (zero-duration).
        for phase in Phase::ALL {
            assert!(
                events.iter().any(|e| e.kind == sc_obs::EventKind::Phase(phase)),
                "no trace event for phase {phase:?}"
            );
        }
        // The aggregate Compute interval and the Integrate spans carry real
        // durations; events are step-stamped.
        let compute_ns: u64 = events
            .iter()
            .filter(|e| e.kind == sc_obs::EventKind::Phase(Phase::Compute))
            .map(|e| e.dur_ns)
            .sum();
        let integrate_ns: u64 = events
            .iter()
            .filter(|e| e.kind == sc_obs::EventKind::Phase(Phase::Integrate))
            .map(|e| e.dur_ns)
            .sum();
        assert!(compute_ns > 0);
        assert!(integrate_ns > 0);
        assert!(events.iter().any(|e| e.step == 2));
        assert_eq!(tracer.dropped(), 0);
        // Merged events arrive sorted by (step, rank, t_ns, lane).
        let keys: Vec<_> = events.iter().map(|e| (e.step, e.rank, e.t_ns, e.lane)).collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(keys, sorted);
    }

    #[test]
    fn registry_counters_sum_exactly_across_pool_lanes() {
        // Worker lanes of the simulation's own thread pool hammer one
        // counter; the total must be exact (atomicity under the pool).
        let reg = Registry::new();
        let c = reg.counter("lane.work");
        let pool = ThreadPool::new(4);
        let mut lanes = [(); 4];
        for _ in 0..50 {
            pool.for_each_mut(&mut lanes, |_, _| {
                for _ in 0..1000 {
                    c.inc();
                }
            });
        }
        assert_eq!(c.get(), 200_000);
    }

    #[test]
    fn step_phases_are_recorded() {
        let mut sim = silica_sim_threads(Method::ShiftCollapse, 2);
        let stats = sim.compute_forces();
        assert!(stats.phases.bin_s() > 0.0, "binning was timed");
        assert!(stats.phases.enumerate_s() > 0.0, "enumeration was timed");
        assert!(stats.phases.reduce_s() > 0.0, "reduction was timed");
        assert_eq!(stats.phases.exchange_s(), 0.0, "no ghost exchange in shared memory");
        assert_eq!(stats.phases.eval_s(), 0.0, "evaluation is timed inside enumerate");
        assert!(stats.phases.total_s() > 0.0);
        assert_eq!(stats.phases, stats.total_phases);
        // A second computation with no step between: it reports its own
        // breakdown, not the running total since the step began, which
        // the step-level view still spans.
        let second = sim.compute_forces();
        for (phase, secs) in second.phases.iter() {
            let own = second.total_phases.get(phase) - stats.total_phases.get(phase);
            assert!((secs - own).abs() < 1e-12, "{}: {secs} s, own {own} s", phase.name());
        }
        assert!(second.phases.enumerate_s() < second.total_phases.enumerate_s());
        assert_eq!(sim.telemetry().phases, second.total_phases);
    }

    #[test]
    fn build_rejects_bad_scalars_with_field_names() {
        let build = |dt: f64, skin: f64| {
            let (store, bbox) = random_gas(10, 8.0, 1);
            Simulation::builder(store, bbox)
                .pair_potential(Box::new(LennardJones::reduced(2.5)))
                .timestep(dt)
                .runtime(RuntimeConfig { verlet_skin: skin, ..RuntimeConfig::default() })
                .build()
        };
        match build(-0.5, 0.0).map(|_| ()) {
            Err(crate::BuildError::Config { field: "timestep", value }) => assert_eq!(value, -0.5),
            other => panic!("expected timestep Config error, got {other:?}"),
        }
        match build(0.001, f64::NAN).map(|_| ()) {
            Err(crate::BuildError::Config { field: "verlet_skin", .. }) => {}
            other => panic!("expected verlet_skin Config error, got {other:?}"),
        }
        assert!(build(0.001, 0.3).is_ok());
    }

    #[test]
    fn build_rejects_cutoffs_beyond_half_the_box() {
        // Subdivided cells (edge r_cut/k) would happily build a lattice for
        // a cutoff beyond half the shortest box edge, where the
        // minimum-image convention becomes ambiguous and single-image sweeps
        // double-count pairs; the builder must reject the box itself.
        let build = |rcut: f64| {
            let (store, bbox) = random_gas(10, 8.0, 1);
            Simulation::builder(store, bbox)
                .pair_potential(Box::new(LennardJones::reduced(rcut)))
                .cell_subdivision(2)
                .build()
        };
        // Exactly half the shortest edge is the boundary value: it passes
        // the half-box check (only *strictly* larger cutoffs are ambiguous)
        // and instead trips the stricter 3-cutoff minimum-image guard
        // downstream. Either way the box is too small for the cutoff, and
        // the error says so rather than blaming the cutoff's value.
        match build(4.0).map(|_| ()) {
            Err(crate::BuildError::BoxTooSmall { n: 2, .. }) => {}
            other => panic!("expected BoxTooSmall at the boundary, got {other:?}"),
        }
        match build(4.0 + 1e-9) {
            Err(e @ crate::BuildError::BoxTooSmall { n: 2, rcut, subdivision: 2 }) => {
                assert!(rcut > 4.0);
                let msg = e.to_string();
                assert!(!msg.contains("positive and finite"), "{msg}");
                assert!(msg.contains("box too small"), "{msg}");
            }
            other => {
                panic!("expected BoxTooSmall beyond half the box, got {:?}", other.map(|_| ()))
            }
        }
        // Comfortably inside the limit still builds.
        assert!(build(2.5).is_ok());
    }

    #[test]
    fn removal_then_step_stays_finite_and_conserves_momentum() {
        let mut sim = lj_sim(Method::ShiftCollapse);
        sim.run(2); // warm lattices, store already Morton-sorted
        let n0 = sim.store().len();
        sim.store_mut().swap_remove(3);
        assert_eq!(sim.store().len(), n0 - 1);
        // swap_remove moved the last atom into slot 3; every lattice binned
        // before the removal is stale (the generation counter marks it), and
        // the next force computation must rebuild before enumerating.
        sim.step();
        for i in 0..sim.store().len() {
            assert!(sim.store().positions()[i].is_finite());
            assert!(sim.store().velocities()[i].is_finite());
            assert!(sim.store().forces()[i].is_finite());
        }
        // Newton's third law over the surviving atoms.
        assert!(sim.store().net_force().norm() < 1e-7, "net force {:?}", sim.store().net_force());
    }

    #[test]
    fn skinned_hybrid_list_is_retired_by_a_removal() {
        // The cached Verlet list is slot-indexed: removing the last slot
        // leaves entries naming a slot that no longer exists, removing a
        // middle one re-homes the last atom under a stale row. Either way
        // the store's generation moves and the next step must rebuild.
        for middle in [false, true] {
            let (store, bbox) = build_fcc_lattice(&LatticeSpec::cubic(6, 1.5599), 0.1, 42);
            let mut sim = Simulation::builder(store, bbox)
                .pair_potential(Box::new(LennardJones::reduced(2.5)))
                .method(Method::Hybrid)
                .runtime(RuntimeConfig { verlet_skin: 0.3, ..RuntimeConfig::default() })
                .timestep(0.002)
                .build()
                .unwrap();
            sim.run(2);
            assert_eq!(sim.hybrid_list_builds(), 1, "the skin keeps the first list alive");
            let last = sim.store().len() as u32 - 1;
            sim.store_mut().swap_remove(if middle { 3 } else { last });
            sim.step();
            assert_eq!(sim.hybrid_list_builds(), 2, "middle = {middle}: removal forces a rebuild");
            assert!(crate::supervisor::Recoverable::state_is_finite(&sim));
            assert!(
                sim.store().net_force().norm() < 1e-7,
                "net force {:?}",
                sim.store().net_force()
            );
            // The rebuilt list gives the forces a fresh build would.
            let forces = sim.store().forces().to_vec();
            let mut fresh = Simulation::builder(sim.store().clone(), *sim.bbox())
                .pair_potential(Box::new(LennardJones::reduced(2.5)))
                .method(Method::Hybrid)
                .runtime(RuntimeConfig { resort_every: 0, ..RuntimeConfig::default() })
                .build()
                .unwrap();
            fresh.compute_forces();
            for (a, b) in forces.iter().zip(fresh.store().forces()) {
                assert!((*a - *b).norm() < 1e-9, "middle = {middle}: {a:?} vs {b:?}");
            }
        }
    }
}
