//! Structure-of-arrays atom storage.

use crate::{CellLattice, Species};
use sc_geom::Vec3;
use serde::{Deserialize, Serialize};

/// Structure-of-arrays storage for an N-atom system.
///
/// Positions, velocities, forces, species, and stable global ids live in
/// parallel arrays; the enumeration and force loops index them by the `u32`
/// slot index the cell bins hand out. Global ids survive migration between
/// ranks and let distributed and serial trajectories be compared atom by
/// atom.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct AtomStore {
    ids: Vec<u64>,
    species: Vec<Species>,
    positions: Vec<Vec3>,
    velocities: Vec<Vec3>,
    forces: Vec<Vec3>,
    /// Mass per species index.
    species_masses: Vec<f64>,
    /// Structural generation: bumped whenever slot↔atom assignments change
    /// (push, swap_remove, truncate, permutation). Cell lattices record the
    /// generation they were built against so stale slot indices are caught
    /// instead of silently pointing at the wrong atom.
    generation: u64,
}

impl AtomStore {
    /// Creates an empty store with the given per-species masses
    /// (`species_masses[s]` is the mass of species `s`).
    pub fn new(species_masses: Vec<f64>) -> Self {
        assert!(!species_masses.is_empty(), "need at least one species mass");
        assert!(
            species_masses.iter().all(|&m| m > 0.0 && m.is_finite()),
            "species masses must be positive and finite"
        );
        AtomStore { species_masses, ..Default::default() }
    }

    /// Creates an empty single-species store with unit mass (reduced units).
    pub fn single_species() -> Self {
        AtomStore::new(vec![1.0])
    }

    /// Adds an atom; returns its slot index.
    pub fn push(&mut self, id: u64, species: Species, position: Vec3, velocity: Vec3) -> u32 {
        assert!(
            species.index() < self.species_masses.len(),
            "species {species:?} has no mass entry"
        );
        let idx = self.ids.len() as u32;
        self.ids.push(id);
        self.species.push(species);
        self.positions.push(position);
        self.velocities.push(velocity);
        self.forces.push(Vec3::ZERO);
        self.generation += 1;
        idx
    }

    /// Structural generation counter. Any operation that changes which atom
    /// occupies which slot (push, [`AtomStore::swap_remove`],
    /// [`AtomStore::truncate`], [`AtomStore::apply_permutation`]) bumps it;
    /// lattices record the generation they were built against (see
    /// [`CellLattice::is_current`]) so stale slot indices can be detected.
    #[inline]
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Number of atoms.
    #[inline]
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the store holds no atoms.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Stable global ids.
    #[inline]
    pub fn ids(&self) -> &[u64] {
        &self.ids
    }

    /// Species per atom.
    #[inline]
    pub fn species(&self) -> &[Species] {
        &self.species
    }

    /// Positions.
    #[inline]
    pub fn positions(&self) -> &[Vec3] {
        &self.positions
    }

    /// Mutable positions.
    #[inline]
    pub fn positions_mut(&mut self) -> &mut [Vec3] {
        &mut self.positions
    }

    /// Velocities.
    #[inline]
    pub fn velocities(&self) -> &[Vec3] {
        &self.velocities
    }

    /// Mutable velocities.
    #[inline]
    pub fn velocities_mut(&mut self) -> &mut [Vec3] {
        &mut self.velocities
    }

    /// Forces accumulated for the current step.
    #[inline]
    pub fn forces(&self) -> &[Vec3] {
        &self.forces
    }

    /// Mutable forces.
    #[inline]
    pub fn forces_mut(&mut self) -> &mut [Vec3] {
        &mut self.forces
    }

    /// Mass of atom `i`.
    #[inline]
    pub fn mass(&self, i: u32) -> f64 {
        self.species_masses[self.species[i as usize].index()]
    }

    /// The per-species mass table.
    #[inline]
    pub fn species_masses(&self) -> &[f64] {
        &self.species_masses
    }

    /// Zeroes the force accumulators (start of every step).
    pub fn zero_forces(&mut self) {
        self.forces.iter_mut().for_each(|f| *f = Vec3::ZERO);
    }

    /// Total kinetic energy `Σ ½ m v²`.
    pub fn kinetic_energy(&self) -> f64 {
        self.velocities
            .iter()
            .zip(&self.species)
            .map(|(v, s)| 0.5 * self.species_masses[s.index()] * v.norm_sq())
            .sum()
    }

    /// Instantaneous temperature in energy units (k_B = 1):
    /// `T = 2 E_kin / (3 N)`.
    pub fn temperature(&self) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        2.0 * self.kinetic_energy() / (3.0 * self.len() as f64)
    }

    /// Net momentum `Σ m v` — conserved by Newton's-third-law-respecting
    /// force evaluation, hence a cheap correctness probe.
    pub fn net_momentum(&self) -> Vec3 {
        self.velocities
            .iter()
            .zip(&self.species)
            .map(|(v, s)| *v * self.species_masses[s.index()])
            .sum()
    }

    /// Net force `Σ f` — must vanish for any translation-invariant potential.
    pub fn net_force(&self) -> Vec3 {
        self.forces.iter().copied().sum()
    }

    /// Removes the centre-of-mass velocity so the system has zero net
    /// momentum (standard MD initialization hygiene).
    pub fn remove_drift(&mut self) {
        if self.is_empty() {
            return;
        }
        let total_mass: f64 = self.species.iter().map(|s| self.species_masses[s.index()]).sum();
        let v_cm = self.net_momentum() / total_mass;
        for v in &mut self.velocities {
            *v -= v_cm;
        }
    }

    /// Rescales velocities to the target temperature (velocity-rescaling
    /// thermostat / initialization).
    pub fn rescale_to_temperature(&mut self, target: f64) {
        let t = self.temperature();
        if t <= 0.0 {
            return;
        }
        let s = (target / t).sqrt();
        for v in &mut self.velocities {
            *v *= s;
        }
    }

    /// Removes atom at slot `i` by swap-remove, returning its
    /// `(id, species, position, velocity)`. Used by migration. The last
    /// atom takes slot `i`; bins must be rebuilt afterwards.
    pub fn swap_remove(&mut self, i: u32) -> (u64, Species, Vec3, Vec3) {
        let i = i as usize;
        let id = self.ids.swap_remove(i);
        let sp = self.species.swap_remove(i);
        let r = self.positions.swap_remove(i);
        let v = self.velocities.swap_remove(i);
        self.forces.swap_remove(i);
        self.generation += 1;
        (id, sp, r, v)
    }

    /// Truncates the store to `n` atoms — used to drop ghost atoms appended
    /// after the owned ones.
    pub fn truncate(&mut self, n: usize) {
        if n >= self.len() {
            return;
        }
        self.ids.truncate(n);
        self.species.truncate(n);
        self.positions.truncate(n);
        self.velocities.truncate(n);
        self.forces.truncate(n);
        self.generation += 1;
    }

    /// Reorders all per-atom arrays so that new slot `k` holds the atom that
    /// was at slot `perm[k]`. `perm` must be a permutation of `0..len`.
    ///
    /// Ids travel with their atoms, so anything keyed by *id* (checkpoints,
    /// telemetry, ghost import) is unaffected; anything holding *slot*
    /// indices (cell bins, neighbor caches) must be rebuilt — the generation
    /// bump makes that detectable.
    pub fn apply_permutation(&mut self, perm: &[u32]) {
        let n = self.len();
        assert_eq!(perm.len(), n, "permutation length {} != atom count {n}", perm.len());
        debug_assert!(
            {
                let mut seen = vec![false; n];
                perm.iter().all(|&p| {
                    let fresh = (p as usize) < n && !seen[p as usize];
                    if fresh {
                        seen[p as usize] = true;
                    }
                    fresh
                })
            },
            "perm is not a permutation of 0..{n}"
        );
        fn permute<T: Copy>(dst: &mut Vec<T>, perm: &[u32], scratch: &mut Vec<T>) {
            scratch.clear();
            scratch.extend(perm.iter().map(|&p| dst[p as usize]));
            std::mem::swap(dst, scratch);
        }
        let mut scratch_v = Vec::with_capacity(n);
        permute(&mut self.positions, perm, &mut scratch_v);
        permute(&mut self.velocities, perm, &mut scratch_v);
        permute(&mut self.forces, perm, &mut scratch_v);
        let mut scratch_id = Vec::with_capacity(n);
        permute(&mut self.ids, perm, &mut scratch_id);
        let mut scratch_sp = Vec::with_capacity(n);
        permute(&mut self.species, perm, &mut scratch_sp);
        self.generation += 1;
    }

    /// Sorts the atoms along the Morton (Z-order) curve of `lat`'s cells and
    /// returns the applied permutation (`perm[new_slot] = old_slot`).
    ///
    /// Atoms within the same cell keep their relative order (the sort is
    /// stable), so repeating the sort on unchanged positions is the identity
    /// permutation. The lattice does **not** need to be rebuilt beforehand —
    /// only its geometry is used — but every lattice must be rebuilt *after*
    /// the sort, since slot indices change.
    pub fn sort_by_cell(&mut self, lat: &CellLattice) -> Vec<u32> {
        let perm = lat.morton_permutation(self);
        self.apply_permutation(&perm);
        perm
    }

    /// Sorts atoms by ascending global id and returns the applied
    /// permutation. Restores the canonical order gathered snapshots and
    /// cross-run comparisons use.
    pub fn sort_by_id(&mut self) -> Vec<u32> {
        let mut perm: Vec<u32> = (0..self.len() as u32).collect();
        perm.sort_by_key(|&i| self.ids[i as usize]);
        self.apply_permutation(&perm);
        perm
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sc_geom::SimulationBox;

    fn two_atom_store() -> AtomStore {
        let mut s = AtomStore::new(vec![1.0, 16.0]);
        s.push(0, Species(0), Vec3::new(0.0, 0.0, 0.0), Vec3::new(1.0, 0.0, 0.0));
        s.push(1, Species(1), Vec3::new(1.0, 1.0, 1.0), Vec3::new(0.0, -1.0, 0.0));
        s
    }

    #[test]
    fn push_and_access() {
        let s = two_atom_store();
        assert_eq!(s.len(), 2);
        assert_eq!(s.ids(), &[0, 1]);
        assert_eq!(s.mass(0), 1.0);
        assert_eq!(s.mass(1), 16.0);
    }

    #[test]
    fn kinetic_energy_and_temperature() {
        let s = two_atom_store();
        // ½·1·1 + ½·16·1 = 8.5
        assert!((s.kinetic_energy() - 8.5).abs() < 1e-12);
        assert!((s.temperature() - 2.0 * 8.5 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn momentum_and_drift_removal() {
        let mut s = two_atom_store();
        let p = s.net_momentum();
        assert!((p - Vec3::new(1.0, -16.0, 0.0)).norm() < 1e-12);
        s.remove_drift();
        assert!(s.net_momentum().norm() < 1e-12);
    }

    #[test]
    fn rescale_hits_target_temperature() {
        let mut s = two_atom_store();
        s.rescale_to_temperature(1.5);
        assert!((s.temperature() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn zero_forces() {
        let mut s = two_atom_store();
        s.forces_mut()[0] = Vec3::new(1.0, 2.0, 3.0);
        s.zero_forces();
        assert_eq!(s.forces()[0], Vec3::ZERO);
    }

    #[test]
    fn swap_remove_and_truncate() {
        let mut s = two_atom_store();
        s.push(2, Species(0), Vec3::splat(2.0), Vec3::ZERO);
        let (id, ..) = s.swap_remove(0);
        assert_eq!(id, 0);
        assert_eq!(s.len(), 2);
        assert_eq!(s.ids()[0], 2); // last atom swapped into slot 0
        s.truncate(1);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn wrap_positions() {
        let mut s = AtomStore::single_species();
        s.push(0, Species::DEFAULT, Vec3::new(-0.5, 10.5, 3.0), Vec3::ZERO);
        let r = SimulationBox::cubic(10.0).wrap(s.positions()[0]);
        assert!((r.x - 9.5).abs() < 1e-12);
        assert!((r.y - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic]
    fn unknown_species_rejected() {
        let mut s = AtomStore::single_species();
        s.push(0, Species(5), Vec3::ZERO, Vec3::ZERO);
    }

    #[test]
    fn wrap_positions_clamps_boundary_straddlers() {
        let mut s = AtomStore::single_species();
        // Each of these wraps to exactly L without the [0, L) clamp.
        s.push(0, Species::DEFAULT, Vec3::new(-1e-17, 0.0, 0.0), Vec3::ZERO);
        s.push(1, Species::DEFAULT, Vec3::new(20.0f64.next_down(), -1e-300, 10.0), Vec3::ZERO);
        let bbox = SimulationBox::cubic(10.0);
        for r in s.positions_mut() {
            *r = bbox.wrap(*r);
        }
        for &r in s.positions() {
            assert!(bbox.contains(r), "wrapped position {r:?} escaped [0, L)");
        }
        // And the binning guard downstream: slot into a valid cell.
        let mut lat = CellLattice::new(bbox, 2.5);
        lat.rebuild(&s);
        assert!(lat.is_current(&s));
    }

    #[test]
    fn generation_tracks_structural_changes() {
        let mut s = two_atom_store();
        let g0 = s.generation();
        s.zero_forces();
        s.positions_mut()[0] = Vec3::splat(0.5);
        assert_eq!(s.generation(), g0, "non-structural ops must not bump");
        s.push(7, Species(0), Vec3::ZERO, Vec3::ZERO);
        assert!(s.generation() > g0);
        let g1 = s.generation();
        s.swap_remove(0);
        assert!(s.generation() > g1);
        let g2 = s.generation();
        s.truncate(s.len()); // no-op truncate
        assert_eq!(s.generation(), g2);
        s.truncate(1);
        assert!(s.generation() > g2);
    }

    #[test]
    fn apply_permutation_carries_all_arrays() {
        let mut s = two_atom_store();
        s.forces_mut()[0] = Vec3::new(1.0, 2.0, 3.0);
        s.apply_permutation(&[1, 0]);
        assert_eq!(s.ids(), &[1, 0]);
        assert_eq!(s.species()[0], Species(1));
        assert_eq!(s.positions()[0], Vec3::splat(1.0));
        assert_eq!(s.velocities()[0], Vec3::new(0.0, -1.0, 0.0));
        assert_eq!(s.forces()[1], Vec3::new(1.0, 2.0, 3.0));
        assert_eq!(s.mass(0), 16.0);
    }

    #[test]
    #[should_panic]
    fn apply_permutation_rejects_wrong_length() {
        let mut s = two_atom_store();
        s.apply_permutation(&[0]);
    }

    #[test]
    fn sort_by_cell_is_stable_and_idempotent() {
        let bbox = SimulationBox::cubic(12.0);
        let lat = CellLattice::new(bbox, 3.0);
        let mut s = AtomStore::single_species();
        // Two atoms in cell (2,2,2), two in (0,0,0), insertion order mixed.
        s.push(10, Species::DEFAULT, Vec3::splat(7.0), Vec3::ZERO);
        s.push(11, Species::DEFAULT, Vec3::splat(0.5), Vec3::ZERO);
        s.push(12, Species::DEFAULT, Vec3::splat(7.5), Vec3::ZERO);
        s.push(13, Species::DEFAULT, Vec3::splat(0.6), Vec3::ZERO);
        let perm = s.sort_by_cell(&lat);
        assert_eq!(perm, vec![1, 3, 0, 2]);
        // Cell (0,0,0) first, insertion order preserved within each cell.
        assert_eq!(s.ids(), &[11, 13, 10, 12]);
        // Re-sorting sorted data is the identity.
        let perm2 = s.sort_by_cell(&lat);
        assert_eq!(perm2, vec![0, 1, 2, 3]);
    }

    #[test]
    fn sort_by_id_restores_canonical_order() {
        let mut s = two_atom_store();
        s.push(5, Species(0), Vec3::splat(2.0), Vec3::ZERO);
        s.apply_permutation(&[2, 0, 1]);
        assert_eq!(s.ids(), &[5, 0, 1]);
        s.sort_by_id();
        assert_eq!(s.ids(), &[0, 1, 5]);
    }
}
