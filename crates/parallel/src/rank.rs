//! Per-rank state and the message-level algorithms: band collection, ghost
//! absorption, local force computation, and ghost-force reduction.

use crate::comm::{CommCounters, GhostPlan};
use crate::error::RuntimeError;
use crate::grid::RankGrid;
use crate::msg::{AtomMsg, ForceMsg, GhostMsg};
use sc_cell::{AtomStore, GhostLattice};
use sc_geom::{CellRegion, IVec3, Vec3};
use sc_md::apply::hybrid_forces;
use sc_md::engine::{PatternPlan, TupleSource};
use sc_md::methods::NeighborList;
use sc_md::{EnergyBreakdown, ForceAccumulator, Method, ThreadPool, TupleCounts};
use sc_obs::{Phase, PhaseBreakdown};
use std::ops::Range;
use std::time::Instant;

/// Default Morton re-sort cadence (steps between owned-atom re-sorts).
pub const DEFAULT_RESORT_EVERY: u64 = 8;

/// The shared, immutable force-field configuration every rank evaluates.
pub use sc_md::ForceField;

/// One term's rank-local search structure and the base cells it sweeps, in
/// one list, once per rank step, after every ghost has arrived.
///
/// SC-MD and FS-MD hold one per term and sweep the owned cells. Hybrid-MD
/// holds the pair term's alone and fills the Verlet rows of the owned
/// cells, which are the rows it walks; with a quadruplet term it also fills
/// the ghost cells an owned row can link to, because a centre bond ending
/// on a ghost reads that ghost's row.
struct TermLattice {
    n: usize,
    plan: PatternPlan,
    lat: GhostLattice,
    cells: Vec<IVec3>,
}

/// [`TupleSource`] over a rank-local ghost lattice: displacements are plain
/// differences because ghosts are image-shifted into the local frame.
struct LocalSource<'a> {
    lat: &'a GhostLattice,
    store: &'a AtomStore,
}

impl<'a> LocalSource<'a> {
    /// Wraps a lattice + store, asserting (debug builds) that the bins were
    /// built against the store's current slot layout — migration's
    /// `swap_remove`, ghost import, and Morton re-sorts all move atoms
    /// between slots, and enumerating through stale bins reads the wrong
    /// atoms (see [`GhostLattice::is_current`]).
    fn new(lat: &'a GhostLattice, store: &'a AtomStore) -> Self {
        debug_assert!(
            lat.is_current(store),
            "ghost lattice is stale: the store's slot layout changed since the last rebuild"
        );
        LocalSource { lat, store }
    }
}

impl TupleSource for LocalSource<'_> {
    #[inline]
    fn slots(&self) -> usize {
        self.store.len()
    }
    #[inline]
    fn atoms_in(&self, q: IVec3) -> &[u32] {
        self.lat.cell_atoms_or_empty(q)
    }
    #[inline]
    fn pos(&self, i: u32) -> Vec3 {
        self.store.positions()[i as usize]
    }
    #[inline]
    fn gid(&self, i: u32) -> u64 {
        self.store.ids()[i as usize]
    }
    #[inline]
    fn disp(&self, i: u32, j: u32) -> Vec3 {
        self.pos(j) - self.pos(i)
    }
}

/// One force-evaluation lane of a rank: its accumulator and what its span
/// of the base cells contributed to each term.
#[derive(Default)]
struct Lane {
    acc: ForceAccumulator,
    energy: EnergyBreakdown,
    tuples: TupleCounts,
}

/// The full state of one rank: owned atoms (slots `0..owned`), ghosts
/// appended behind them, per-term search lattices, and communication
/// accounting.
pub struct RankState {
    /// This rank's id.
    pub rank: usize,
    grid: RankGrid,
    store: AtomStore,
    owned: usize,
    /// The store span each absorbed band occupies, `(hop, slots)` in absorb
    /// order (ascending hop).
    ghost_spans: Vec<(usize, Range<usize>)>,
    /// Per routing hop, the store slot each entry of the band this rank
    /// exported was read from, in band order: the route a returned force
    /// retraces.
    band_slots: Vec<Vec<u32>>,
    terms: Vec<TermLattice>,
    /// Persistent force scratch, one per lane the rank's cells were last
    /// split over, reused (and grown, never shrunk) across steps so the
    /// steady state allocates no per-step force buffer.
    lanes: Vec<Lane>,
    /// Hybrid-MD's Verlet list, rebuilt in place every step.
    list: NeighborList,
    /// The most recent force computation's energies, tuple counts and
    /// step-phase breakdown (binning / enumeration / scratch reduction).
    pub(crate) computed: (EnergyBreakdown, TupleCounts, PhaseBreakdown),
    /// The most recent force computation's scalar virial
    /// `Σ_tuples Σ_k f_k · (r_k − r_ref)`.
    pub(crate) virial: f64,
    /// Communication statistics, cumulative since this rank state was
    /// built.
    pub stats: CommCounters,
}

impl RankState {
    /// Creates the rank state, claiming from `all` the atoms whose wrapped
    /// position this rank owns, with `k`-fold subdivided cells and reach-k
    /// patterns (paper §6; `k = 1` is the paper's main setting) for the
    /// cell-sweep methods.
    pub fn new(rank: usize, grid: RankGrid, all: &AtomStore, ff: &ForceField, k: i32) -> Self {
        assert!((1..=3).contains(&k));
        let mut store = AtomStore::new(all.species_masses().to_vec());
        for i in 0..all.len() {
            let r = grid.bbox().wrap(all.positions()[i]);
            if grid.owner_of(r) == rank {
                store.push(all.ids()[i], all.species()[i], r, all.velocities()[i]);
            }
        }
        let owned = store.len();
        let origin = grid.origin_of(rank);
        let sub = grid.rank_box_lengths();
        let hybrid = ff.method == Method::Hybrid;
        let mut terms = Vec::new();
        for (n, rcut) in ff.terms() {
            if hybrid && n > 2 {
                continue;
            }
            // Local cells: the largest grid with edge ≥ rcut/k.
            let edge = rcut / k as f64;
            let ext = IVec3::new(
                ((sub.x / edge).floor() as i32).max(1),
                ((sub.y / edge).floor() as i32).max(1),
                ((sub.z / edge).floor() as i32).max(1),
            );
            let cell = Vec3::new(sub.x / ext.x as f64, sub.y / ext.y as f64, sub.z / ext.z as f64);
            let m = IVec3::splat(k * ((n as i32) - 1));
            let (lo, hi) = match ff.method {
                Method::ShiftCollapse => (IVec3::ZERO, m),
                Method::FullShell => (m, m),
                Method::Hybrid => {
                    // Hybrid bins everything into the pair lattice; margins
                    // must hold the full halo width.
                    let width = halo_width_for(ff, &grid);
                    let mc = IVec3::new(
                        (width / cell.x).ceil() as i32,
                        (width / cell.y).ceil() as i32,
                        (width / cell.z).ceil() as i32,
                    );
                    (mc, mc)
                }
            };
            let lat = GhostLattice::new(origin, sub, ext, lo, hi);
            let plan = ff.method.plan_for_reach(n, k);
            let mut base = CellRegion::new(IVec3::ZERO, ext);
            if hybrid && ff.quadruplet.is_some() {
                // The rows an owned row links to: one plan reach of ghost
                // cells around the owned ones.
                let shell = base.grown(plan.reach(), plan.reach());
                base = shell.intersect(&lat.extended_region()).unwrap_or(base);
            }
            let cells = base.iter().collect();
            terms.push(TermLattice { n, plan, lat, cells });
        }
        RankState {
            rank,
            grid,
            store,
            owned,
            ghost_spans: Vec::new(),
            band_slots: Vec::new(),
            terms,
            lanes: vec![Lane::default()],
            list: NeighborList::default(),
            computed: Default::default(),
            virial: 0.0,
            stats: CommCounters::default(),
        }
    }

    /// Owned-atom count.
    pub fn owned(&self) -> usize {
        self.owned
    }

    /// Growths of this rank's force scratch since it was built.
    pub(crate) fn scratch_allocation_events(&self) -> u64 {
        self.lanes.iter().map(|lane| lane.acc.allocation_events()).sum()
    }

    /// The atom store (owned atoms first, then ghosts).
    pub fn store(&self) -> &AtomStore {
        &self.store
    }

    /// Drops all ghosts and the recorded band routes with them (start of a
    /// new exchange cycle).
    pub fn drop_ghosts(&mut self) {
        self.store.truncate(self.owned);
        self.ghost_spans.clear();
        self.band_slots.iter_mut().for_each(Vec::clear);
    }

    /// First velocity-Verlet half-step (half-kick + drift) on owned atoms.
    /// Positions are *not* wrapped — migration moves boundary-crossers to
    /// their new owner, which re-expresses them in its frame.
    pub fn vv_start(&mut self, dt: f64) {
        for i in 0..self.owned {
            let m = self.store.mass(i as u32);
            let a = self.store.forces()[i] / m;
            self.store.velocities_mut()[i] += a * (0.5 * dt);
            let v = self.store.velocities()[i];
            self.store.positions_mut()[i] += v * dt;
        }
    }

    /// Second velocity-Verlet half-kick on owned atoms.
    pub fn vv_finish(&mut self, dt: f64) {
        for i in 0..self.owned {
            let m = self.store.mass(i as u32);
            let a = self.store.forces()[i] / m;
            self.store.velocities_mut()[i] += a * (0.5 * dt);
        }
    }

    /// Permutes this rank's owned atoms into the Morton order of its first
    /// term lattice, so that atoms binned into
    /// neighbouring cells sit in neighbouring slots for the batched distance
    /// kernels. Must be called while the store is ghost-free — ghost spans
    /// and band routes are slot-indexed — i.e. after
    /// [`RankState::drop_ghosts`] and before migration/exchange. All term
    /// lattices are rebuilt on the next force computation, so no binned slot
    /// index survives the permutation.
    pub fn resort_owned(&mut self) {
        debug_assert_eq!(self.store.len(), self.owned, "re-sort with ghosts present");
        if let Some(term) = self.terms.first() {
            let perm = term.lat.morton_permutation(&self.store, self.owned);
            self.store.apply_permutation(&perm);
        }
    }

    /// Multiplies every owned velocity by `scale` (a thermostat's rescale).
    pub(crate) fn scale_velocities(&mut self, scale: f64) {
        self.store.velocities_mut()[..self.owned].iter_mut().for_each(|v| *v *= scale);
    }

    /// Kinetic energy of owned atoms.
    pub fn kinetic_energy(&self) -> f64 {
        (0..self.owned)
            .map(|i| 0.5 * self.store.mass(i as u32) * self.store.velocities()[i].norm_sq())
            .sum()
    }

    /// Whether every owned atom's position, velocity, and force is finite
    /// (the supervisor's divergence guardrail).
    pub fn is_finite(&self) -> bool {
        let s = &self.store;
        (0..self.owned).all(|i| {
            s.positions()[i].is_finite()
                && s.velocities()[i].is_finite()
                && s.forces()[i].is_finite()
        })
    }

    /// Collects atoms that left the owned box along `axis` into the (emptied)
    /// `to_minus` / `to_plus` message lists, positions shifted into the
    /// receivers' frames. The atoms are removed from this rank.
    ///
    /// Each removal is an [`AtomStore::swap_remove`], which moves the last
    /// atom into the vacated slot — every lattice binned before this call is
    /// stale afterwards (its bins still point the moved atom at its old
    /// slot). The store's generation counter records this: all term lattices
    /// report `!is_current` until their rebuild at the next force
    /// computation, and the `LocalSource` constructor asserts on it.
    pub fn collect_migrants(
        &mut self,
        axis: usize,
        to_minus: &mut Vec<AtomMsg>,
        to_plus: &mut Vec<AtomMsg>,
    ) {
        debug_assert_eq!(self.store.len(), self.owned, "migrate with ghosts present");
        to_minus.clear();
        to_plus.clear();
        let origin = self.grid.origin_of(self.rank);
        let sub = self.grid.rank_box_lengths();
        let lo = origin[axis];
        let hi = origin[axis] + sub[axis];
        let mut i = 0;
        while i < self.store.len() {
            let x = self.store.positions()[i][axis];
            let dir = if x < lo {
                -1
            } else if x >= hi {
                1
            } else {
                i += 1;
                continue;
            };
            let (id, sp, mut r, v) = self.store.swap_remove(i as u32);
            r += self.grid.send_shift(self.rank, axis, dir);
            let msg = AtomMsg { id, species: sp, position: r, velocity: v };
            if dir < 0 {
                to_minus.push(msg);
            } else {
                to_plus.push(msg);
            }
            self.stats.atoms_migrated += 1;
        }
        self.owned = self.store.len();
    }

    /// Absorbs migrated atoms as owned.
    pub fn absorb_migrants(&mut self, atoms: &[AtomMsg]) {
        debug_assert_eq!(self.store.len(), self.owned);
        for a in atoms {
            self.store.push(a.id, a.species, a.position, a.velocity);
        }
        self.owned = self.store.len();
    }

    /// Collects the boundary band for routing hop `hop` into the (emptied)
    /// `band`: the atoms this rank must send to its `-recv_dir` neighbour,
    /// positions shifted into that neighbour's frame. The store slot each
    /// entry was read from is recorded, in band order, as the route the
    /// returned forces retrace ([`RankState::absorb_ghost_forces`]).
    ///
    /// Forwarded routing includes previously received ghosts — but only
    /// those that arrived on a *strictly earlier axis*. Forwarding a ghost
    /// back along the axis it arrived on would bounce it to its sender as a
    /// coincident duplicate of an owned atom.
    pub fn collect_ghost_band(&mut self, plan: &GhostPlan, hop: usize, band: &mut Vec<GhostMsg>) {
        let (axis, recv_dir) = plan.hops[hop];
        let origin = self.grid.origin_of(self.rank);
        let sub = self.grid.rank_box_lengths();
        let shift = self.grid.send_shift(self.rank, axis, -recv_dir);
        let in_band = |x: f64| {
            if recv_dir > 0 {
                // Receiver needs my low band (its upper ghost region).
                x < origin[axis] + plan.hi_width
            } else {
                // Receiver needs my high band (its lower ghost region).
                x >= origin[axis] + sub[axis] - plan.lo_width
            }
        };
        if self.band_slots.len() <= hop {
            self.band_slots.resize_with(hop + 1, Vec::new);
        }
        let RankState { store, owned, ghost_spans, band_slots, .. } = self;
        let slots = &mut band_slots[hop];
        band.clear();
        slots.clear();
        let mut take = |i: usize| {
            if in_band(store.positions()[i][axis]) {
                band.push(GhostMsg {
                    id: store.ids()[i],
                    species: store.species()[i],
                    position: store.positions()[i] + shift,
                });
                slots.push(i as u32);
            }
        };
        (0..*owned).for_each(&mut take);
        for (h, span) in ghost_spans.iter() {
            if plan.hops[*h].0 < axis {
                span.clone().for_each(&mut take);
            }
        }
    }

    /// Absorbs ghosts received in routing hop `hop`.
    pub fn absorb_ghosts(&mut self, hop: usize, ghosts: &[GhostMsg]) {
        let first = self.store.len();
        for g in ghosts {
            self.store.push(g.id, g.species, g.position, Vec3::ZERO);
        }
        self.ghost_spans.push((hop, first..self.store.len()));
        self.stats.ghosts_imported += ghosts.len() as u64;
    }

    /// Collects into the (emptied) `out` the accumulated forces of the
    /// ghosts that arrived in `hop`, in the order they arrived — the band
    /// order of the rank they came from. No ghosts is an empty section,
    /// which is still sent so message counts stay fixed.
    pub fn collect_ghost_forces(&self, hop: usize, out: &mut Vec<ForceMsg>) {
        out.clear();
        let spans = self.ghost_spans.iter().filter(|(h, _)| *h == hop);
        for slot in spans.flat_map(|(_, span)| span.clone()) {
            out.push(ForceMsg { id: self.store.ids()[slot], force: self.store.forces()[slot] });
        }
    }

    /// Accumulates the forces returned for the band this rank exported in
    /// `hop`: `forces[k]` lands on the slot band entry `k` was read from —
    /// an owned atom, or an earlier-hop ghost whose own reduction hop (hops
    /// reduce in reverse order) forwards it onward. The exact reverse of the
    /// forwarded route, whatever other images of the atom this rank holds.
    ///
    /// # Errors
    /// [`RuntimeError::UnknownForceTarget`] when the section is not the
    /// recorded band entry for entry — a different length, or an id that is
    /// not the one at the recorded slot: the exchange delivered inconsistent
    /// routing data. Nothing is accumulated then.
    pub fn absorb_ghost_forces(
        &mut self,
        hop: usize,
        forces: &[ForceMsg],
    ) -> Result<(), RuntimeError> {
        let slots = self.band_slots.get(hop).map_or(&[][..], Vec::as_slice);
        let ids = self.store.ids();
        let swapped = forces.iter().zip(slots).find(|(f, &s)| ids[s as usize] != f.id);
        let stray = swapped
            .map(|(f, _)| f.id)
            .or_else(|| forces.get(slots.len()).map(|f| f.id))
            .or_else(|| slots.get(forces.len()).map(|&s| ids[s as usize]));
        if let Some(id) = stray {
            return Err(RuntimeError::UnknownForceTarget { rank: self.rank, id });
        }
        let out = self.store.forces_mut();
        for (f, &slot) in forces.iter().zip(slots) {
            out[slot as usize] += f.force;
        }
        Ok(())
    }

    /// Rebuilds the per-term lattices over owned atoms and ghosts and
    /// computes forces: one sweep of each term's cells (SC-MD / FS-MD), or
    /// the Verlet list build and walk (Hybrid-MD). Forces accumulate on
    /// owned *and ghost* slots; the reverse reduction ships the ghost parts
    /// home.
    ///
    /// With a `pool`, the cell sweeps split each term's base cells into one
    /// contiguous span per lane, each lane with its own accumulator, and the
    /// lanes merge in span order — so the bits depend on the lane count.
    /// Hybrid-MD walks its list on one lane either way.
    ///
    /// Keeps the energies, tuple counts, virial and step-phase breakdown on
    /// the rank and folds the breakdown into [`CommCounters::phases`].
    pub fn compute_forces(&mut self, ff: &ForceField, pool: Option<&ThreadPool>) {
        let mut phases = PhaseBreakdown::default();
        self.store.zero_forces();
        let RankState { terms, store, owned, list, lanes, .. } = self;
        for term in terms.iter_mut() {
            let t_bin = Instant::now();
            term.lat.rebuild(store, *owned);
            phases.add(Phase::Bin, t_bin.elapsed().as_secs_f64());
        }
        let hybrid = ff.method == Method::Hybrid;
        let split = pool.filter(|p| p.lanes() > 1 && !hybrid);
        let used = split.map_or(1, ThreadPool::lanes);
        if lanes.len() < used {
            lanes.resize_with(used, Lane::default);
        }
        let used = &mut lanes[..used];
        let slots = store.len();
        if hybrid {
            let Lane { acc, energy, tuples } = &mut used[0];
            acc.begin(slots);
            (*energy, *tuples) = Default::default();
            let pair = &terms[0];
            let t_bin = Instant::now();
            let src = LocalSource::new(&pair.lat, store);
            let rcut = ff.pair.as_ref().expect("a built Hybrid run has a pair term").cutoff();
            let cells = pair.cells.iter().copied();
            let pair_stats = list.build_from_cells(&src, cells, *owned, &pair.plan, rcut);
            phases.add(Phase::Bin, t_bin.elapsed().as_secs_f64());
            tuples.pair.merge(pair_stats);
            let t_enum = Instant::now();
            // Every global tuple is computed by exactly one rank: a triplet
            // by its vertex's owner (the walked rows are the owned ones), a
            // pair or a quadruplet's centre bond by the owner of its
            // smaller-gid atom, from that atom's row. (A ghost with the same
            // gid is a periodic self-image; both ends own that bond.)
            let (ids, owned) = (store.ids(), *owned as u32);
            let owns_bond = |i: u32, j: u32| {
                let (gid_i, gid_j) = (ids[i as usize], ids[j as usize]);
                gid_j > gid_i || (gid_j == gid_i && j >= owned)
            };
            hybrid_forces(ff, list, owns_bond, store.species(), acc, energy, tuples);
            phases.add(Phase::Enumerate, t_enum.elapsed().as_secs_f64());
        } else {
            let t_enum = Instant::now();
            let spans = used.len();
            let store = &*store;
            let sweep = |t: usize, lane: &mut Lane| {
                lane.acc.begin(slots);
                (lane.energy, lane.tuples) = Default::default();
                for term in terms.iter() {
                    let src = LocalSource::new(&term.lat, store);
                    let potential = ff.term(term.n).expect("a lattice per active term");
                    let nc = term.cells.len();
                    let span = &term.cells[t * nc / spans..(t + 1) * nc / spans];
                    let acc = &mut lane.acc;
                    potential.sweep(&src, &term.plan, span.iter().copied(), store.species(), acc);
                    *lane.energy.term_mut(term.n) += std::mem::take(&mut acc.energy);
                    lane.tuples.term_mut(term.n).merge(std::mem::take(&mut acc.stats));
                }
            };
            match split {
                Some(pool) => pool.for_each_mut(used, sweep),
                None => sweep(0, &mut used[0]),
            }
            phases.add(Phase::Enumerate, t_enum.elapsed().as_secs_f64());
        }
        let t_reduce = Instant::now();
        let (mut energy, mut tuples) = (EnergyBreakdown::default(), TupleCounts::default());
        let mut virial = 0.0;
        for Lane { acc, energy: e, tuples: c } in used.iter_mut() {
            acc.merge_into(store.forces_mut());
            energy.pair += e.pair;
            energy.triplet += e.triplet;
            energy.quadruplet += e.quadruplet;
            tuples.pair.merge(c.pair);
            tuples.triplet.merge(c.triplet);
            tuples.quadruplet.merge(c.quadruplet);
            virial += acc.virial;
        }
        phases.add(Phase::Reduce, t_reduce.elapsed().as_secs_f64());
        self.stats.phases.accumulate(&phases);
        self.stats.tuples_accepted = tuples.total_accepted();
        self.computed = (energy, tuples, phases);
        self.virial = virial;
    }

    /// Gathers this rank's owned atoms (positions wrapped into the global
    /// box) for result collection.
    pub fn owned_atoms(&self) -> Vec<AtomMsg> {
        (0..self.owned)
            .map(|i| AtomMsg {
                id: self.store.ids()[i],
                species: self.store.species()[i],
                position: self.grid.bbox().wrap(self.store.positions()[i]),
                velocity: self.store.velocities()[i],
            })
            .collect()
    }
}

/// The real-space halo depth a force field needs: `max_n (n−1)·cell_edge_n`
/// over the active terms, with each term's local cell edge computed from
/// the rank sub-box exactly as [`RankState::new`] does.
pub fn halo_width_for(ff: &ForceField, grid: &RankGrid) -> f64 {
    let sub = grid.rank_box_lengths();
    let mut w: f64 = 0.0;
    for (n, rcut) in ff.terms() {
        for axis in 0..3 {
            let ext = ((sub[axis] / rcut).floor() as i32).max(1);
            let cell = sub[axis] / ext as f64;
            w = w.max((n as f64 - 1.0) * cell);
        }
    }
    w
}

/// Checks that `grid` can host `ff` under forwarded routing: the halo no
/// deeper than one rank sub-box, every sub-box at least one cutoff wide, and
/// the union of rank lattices large enough that pattern offsets do not alias
/// through the periodic wrap. Returns the halo width on success. This is the
/// same gate `DistributedSim::new` applies at construction, factored out so
/// crash recovery can test candidate grids before committing.
pub fn validate_decomposition(
    ff: &ForceField,
    grid: &RankGrid,
) -> Result<f64, crate::error::SetupError> {
    use crate::error::SetupError;
    let width = halo_width_for(ff, grid);
    let sub = grid.rank_box_lengths();
    for a in 0..3 {
        if width > sub[a] + 1e-12 {
            return Err(SetupError::HaloTooDeep { halo: width, sub_box: sub[a], axis: a });
        }
    }
    for (n, rcut) in ff.terms() {
        for a in 0..3 {
            if sub[a] < rcut {
                return Err(SetupError::SubBoxBelowCutoff { rcut, sub_box: sub[a], axis: a });
            }
            let global = grid.pdims()[a] * ((sub[a] / rcut).floor() as i32).max(1);
            if global < (n as i32).max(3) {
                return Err(SetupError::LatticeTooSmall {
                    global_cells: global,
                    needed: (n as i32).max(3),
                    axis: a,
                });
            }
        }
    }
    Ok(width)
}

/// The largest feasible rank grid using at most `max_ranks` ranks for `ff`
/// over `bbox`: among all factorizations `px·py·pz ≤ max_ranks` that pass
/// [`validate_decomposition`], prefers more ranks, then the most cubic
/// split, then the lexicographically smallest dims — a deterministic choice
/// so re-decomposition after a rank death is reproducible. `None` when even
/// 1×1×1 is infeasible.
pub fn best_grid_for(
    ff: &ForceField,
    bbox: sc_geom::SimulationBox,
    max_ranks: usize,
) -> Option<IVec3> {
    let max_ranks = max_ranks.max(1) as i32;
    let mut best: Option<(i32, i32, IVec3)> = None; // (ranks, spread, dims)
    for px in 1..=max_ranks {
        for py in 1..=max_ranks / px {
            for pz in 1..=max_ranks / (px * py) {
                let dims = IVec3::new(px, py, pz);
                let ranks = px * py * pz;
                let spread = px.max(py).max(pz) - px.min(py).min(pz);
                let better = match best {
                    None => true,
                    Some((r, s, d)) => {
                        (ranks, -spread, [-dims.x, -dims.y, -dims.z]) > (r, -s, [-d.x, -d.y, -d.z])
                    }
                };
                if !better {
                    continue;
                }
                let Ok(grid) = RankGrid::try_new(dims, bbox) else { continue };
                if validate_decomposition(ff, &grid).is_ok() {
                    best = Some((ranks, spread, dims));
                }
            }
        }
    }
    best.map(|(_, _, dims)| dims)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sc_md::{build_fcc_lattice, LatticeSpec};
    use sc_potential::LennardJones;

    /// Rank 0 of a 2×1×1 SC decomposition after it collected the band of
    /// hop 0, with that band.
    fn rank_with_recorded_band() -> (RankState, Vec<GhostMsg>) {
        let (store, bbox) = build_fcc_lattice(&LatticeSpec::cubic(7, 1.5599), 0.1, 42);
        let ff = ForceField {
            pair: Some(Box::new(LennardJones::reduced(2.5))),
            triplet: None,
            quadruplet: None,
            method: Method::ShiftCollapse,
        };
        let grid = RankGrid::new(IVec3::new(2, 1, 1), bbox);
        let plan = GhostPlan::for_method(ff.method, halo_width_for(&ff, &grid)).unwrap();
        let mut rank = RankState::new(0, grid, &store, &ff, 1);
        let mut band = Vec::new();
        rank.collect_ghost_band(&plan, 0, &mut band);
        (rank, band)
    }

    /// A returned force section must be the recorded band entry for entry:
    /// one entry short, one entry long, or an id out of place is the typed
    /// error naming this rank and the offending id, and adds nothing.
    #[test]
    fn a_force_section_that_is_not_the_recorded_band_is_refused_untouched() {
        let (mut rank, band) = rank_with_recorded_band();
        assert!(band.len() > 2, "the band has entries to tamper with");
        let push = Vec3::new(1.0, -2.0, 0.5);
        let forces: Vec<ForceMsg> =
            band.iter().map(|g| ForceMsg { id: g.id, force: push }).collect();
        let before = rank.store().forces().to_vec();
        let refused = |rank: &mut RankState, hop: usize, section: &[ForceMsg], id: u64| {
            let verdict = rank.absorb_ghost_forces(hop, section);
            assert_eq!(verdict, Err(RuntimeError::UnknownForceTarget { rank: 0, id }));
            assert_eq!(rank.store().forces(), &before[..]);
        };
        // Short: names the band entry left without a force.
        refused(&mut rank, 0, &forces[..forces.len() - 1], band[band.len() - 1].id);
        // Long: names the entry past the band's end.
        let stray = ForceMsg { id: 999_999, force: push };
        refused(&mut rank, 0, &[&forces[..], &[stray]].concat(), stray.id);
        // Swapped: names the first id that is not the one at its slot.
        let mut swapped = forces.clone();
        swapped.swap(0, 1);
        refused(&mut rank, 0, &swapped, band[1].id);
        // A hop this rank exported nothing for takes only the empty section.
        refused(&mut rank, 1, &forces[..1], band[0].id);
        assert_eq!(rank.absorb_ghost_forces(1, &[]), Ok(()));

        // The band itself lands entry for entry on the recorded slots.
        assert_eq!(rank.absorb_ghost_forces(0, &forces), Ok(()));
        let slots = rank.band_slots[0].clone();
        assert_eq!(slots.len(), band.len());
        for (i, (now, was)) in rank.store().forces().iter().zip(&before).enumerate() {
            let hit = slots.contains(&(i as u32));
            assert_eq!(*now, if hit { *was + push } else { *was }, "slot {i}");
        }
    }
}
