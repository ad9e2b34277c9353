//! Rank-local cell lattice with ghost margins.

use crate::{morton_key, AtomStore};
use sc_geom::{CellRegion, IVec3, Vec3};

/// A rank-local cell lattice: an owned region of cells plus ghost margins
/// holding atoms imported from neighbour ranks.
///
/// Unlike [`crate::CellLattice`], indexing here is **non-periodic**: local
/// cell coordinates run over `[-lo_margin, owned_extent + hi_margin)` per
/// axis, and positions are expressed in the rank's contiguous local frame
/// (the communication layer shifts periodic images *before* handing ghosts
/// over, so geometry near the global boundary stays continuous).
///
/// Which margins are non-zero encodes the communication scheme:
/// * shift-collapse / eighth-shell: `lo = 0`, `hi = n−1` (first-octant
///   import, Eq. 33);
/// * full shell: `lo = hi = n−1`;
/// * half shell: mixed, per §4.3.2.
#[derive(Debug, Clone)]
pub struct GhostLattice {
    origin: Vec3,
    /// `origin + lengths`: the owned region's high corner.
    top: Vec3,
    cell: Vec3,
    inv_cell: Vec3,
    owned_extent: IVec3,
    lo_margin: IVec3,
    hi_margin: IVec3,
    starts: Vec<u32>,
    order: Vec<u32>,
    /// Rebuild scratch, kept so steady-state rebuilds allocate nothing: each
    /// atom's cell ([`UNBINNED`] outside the extended region), and the
    /// counting sort's per-cell write cursor.
    atom_cell: Vec<u32>,
    cursor: Vec<u32>,
    owned_atoms: usize,
    /// `(store.generation(), store.len())` at the last rebuild (see
    /// [`crate::CellLattice::is_current`]).
    built: Option<(u64, usize)>,
}

/// [`GhostLattice::atom_cell`] entry of an atom outside the extended region.
const UNBINNED: u32 = u32::MAX;

impl GhostLattice {
    /// Creates a local lattice.
    ///
    /// * `origin` — real-space coordinate of the owned region's low corner.
    /// * `lengths` — edge lengths of the owned region, split into
    ///   `owned_extent` cells per axis (each edge ≥ cutoff).
    /// * `owned_extent` — owned cells per axis (≥ 1).
    /// * `lo_margin`, `hi_margin` — ghost cells below/above per axis (≥ 0).
    pub fn new(
        origin: Vec3,
        lengths: Vec3,
        owned_extent: IVec3,
        lo_margin: IVec3,
        hi_margin: IVec3,
    ) -> Self {
        assert!(owned_extent.x >= 1 && owned_extent.y >= 1 && owned_extent.z >= 1);
        assert!(lo_margin.in_first_octant() && hi_margin.in_first_octant());
        assert!(lengths.x > 0.0 && lengths.y > 0.0 && lengths.z > 0.0);
        let cell = Vec3::new(
            lengths.x / owned_extent.x as f64,
            lengths.y / owned_extent.y as f64,
            lengths.z / owned_extent.z as f64,
        );
        let total = owned_extent + lo_margin + hi_margin;
        let ncell = total.product() as usize;
        assert!(ncell < UNBINNED as usize, "local lattice {total} has more cells than u32 indexes");
        GhostLattice {
            origin,
            top: origin + lengths,
            cell,
            inv_cell: Vec3::new(1.0 / cell.x, 1.0 / cell.y, 1.0 / cell.z),
            owned_extent,
            lo_margin,
            hi_margin,
            starts: vec![0; ncell + 1],
            order: Vec::new(),
            atom_cell: Vec::new(),
            cursor: Vec::new(),
            owned_atoms: 0,
            built: None,
        }
    }

    /// The extended local region `[-lo_margin, owned_extent + hi_margin)`.
    pub fn extended_region(&self) -> CellRegion {
        CellRegion::new(-self.lo_margin, self.owned_extent + self.hi_margin)
    }

    /// Owned cells per axis.
    #[inline]
    pub fn owned_extent(&self) -> IVec3 {
        self.owned_extent
    }

    /// Cell edge lengths.
    #[inline]
    pub fn cell_edges(&self) -> Vec3 {
        self.cell
    }

    /// Real-space low corner of the owned region.
    #[inline]
    pub fn origin(&self) -> Vec3 {
        self.origin
    }

    /// Number of atoms binned as owned (slots `0..owned_atoms`).
    #[inline]
    pub fn owned_atoms(&self) -> usize {
        self.owned_atoms
    }

    /// The local cell containing a local-frame position (may be a ghost
    /// cell, or out of range for an atom that needs migration).
    #[inline]
    pub fn local_cell_of(&self, r: Vec3) -> IVec3 {
        let d = r - self.origin;
        IVec3::new(
            (d.x * self.inv_cell.x).floor() as i32,
            (d.y * self.inv_cell.y).floor() as i32,
            (d.z * self.inv_cell.z).floor() as i32,
        )
    }

    /// Linear index of a local cell coordinate.
    ///
    /// # Panics
    /// Panics if `q` is outside the extended region (no periphery wrapping —
    /// ghosts must have been imported).
    #[inline]
    pub fn cell_index(&self, q: IVec3) -> usize {
        let t = q + self.lo_margin;
        let total = self.owned_extent + self.lo_margin + self.hi_margin;
        assert!(
            t.in_first_octant() && t.x < total.x && t.y < total.y && t.z < total.z,
            "local cell {q} outside extended region"
        );
        ((t.x * total.y + t.y) * total.z + t.z) as usize
    }

    /// The cell [`GhostLattice::rebuild`] bins an atom in: its
    /// [`GhostLattice::local_cell_of`], kept on the side of each owned-region
    /// face that the position compares to, `origin ≤ r < origin + lengths`,
    /// the test migration decides ownership by. Rounding in the cell
    /// division could otherwise bin an atom on a face on the wrong side of
    /// it: an atom at 0 imported as a ghost at exactly L would land in an
    /// owned cell, one cell off from its images, and the tuples around it
    /// would be computed twice.
    fn bin(&self, r: Vec3) -> IVec3 {
        let mut q = self.local_cell_of(r);
        for a in 0..3 {
            q[a] = if r[a] < self.origin[a] {
                q[a].min(-1)
            } else if r[a] >= self.top[a] {
                q[a].max(self.owned_extent[a])
            } else {
                q[a].clamp(0, self.owned_extent[a] - 1)
            };
        }
        q
    }

    /// Rebuilds the bins. Atoms `0..owned_count` of the store are owned;
    /// the rest are ghosts. Atoms whose cell falls outside the extended
    /// region are skipped (they are awaiting migration).
    pub fn rebuild(&mut self, store: &AtomStore, owned_count: usize) {
        self.owned_atoms = owned_count;
        let ncell = self.starts.len() - 1;
        self.starts.clear();
        self.starts.resize(ncell + 1, 0);
        let region = self.extended_region();
        let mut atom_cell = std::mem::take(&mut self.atom_cell);
        atom_cell.clear();
        atom_cell.extend(store.positions().iter().map(|&r| {
            let q = self.bin(r);
            if region.contains(q) {
                self.cell_index(q) as u32
            } else {
                UNBINNED
            }
        }));
        for &c in atom_cell.iter().filter(|&&c| c != UNBINNED) {
            self.starts[c as usize + 1] += 1;
        }
        for i in 0..ncell {
            self.starts[i + 1] += self.starts[i];
        }
        self.order.clear();
        self.order.resize(self.starts[ncell] as usize, 0);
        self.cursor.clear();
        self.cursor.extend_from_slice(&self.starts[..ncell]);
        for (i, &c) in atom_cell.iter().enumerate() {
            if c != UNBINNED {
                let slot = &mut self.cursor[c as usize];
                self.order[*slot as usize] = i as u32;
                *slot += 1;
            }
        }
        self.atom_cell = atom_cell;
        self.built = Some((store.generation(), store.len()));
    }

    /// Whether the bins were built against the store's current slot layout
    /// (see [`crate::CellLattice::is_current`]).
    #[inline]
    pub fn is_current(&self, store: &AtomStore) -> bool {
        self.built == Some((store.generation(), store.len()))
    }

    /// Morton-order permutation of the store's first `owned` atoms, keyed by
    /// the Z-order of their local cells: `perm[new] = old`, stable within a
    /// cell. Atoms outside the extended region (awaiting migration) are
    /// clamped onto its boundary for key purposes — the sort only needs a
    /// locality heuristic for them, not an exact bin.
    ///
    /// Must be applied while the store is ghost-free (`store.len() == owned`);
    /// permuting the owned prefix under appended ghosts would desynchronize
    /// ghost provenance tables.
    pub fn morton_permutation(&self, store: &AtomStore, owned: usize) -> Vec<u32> {
        let total = self.owned_extent + self.lo_margin + self.hi_margin;
        let keys: Vec<u64> = store.positions()[..owned]
            .iter()
            .map(|&r| {
                let q = self.local_cell_of(r) + self.lo_margin;
                let clamped = q.max(IVec3::ZERO).min(total - IVec3::splat(1));
                morton_key(clamped)
            })
            .collect();
        let mut perm: Vec<u32> = (0..owned as u32).collect();
        perm.sort_by_key(|&i| keys[i as usize]);
        perm
    }

    /// The atom slots binned into local cell `q`.
    #[inline]
    pub fn cell_atoms(&self, q: IVec3) -> &[u32] {
        let c = self.cell_index(q);
        &self.order[self.starts[c] as usize..self.starts[c + 1] as usize]
    }

    /// Like [`GhostLattice::cell_atoms`] but returns an empty slice for
    /// cells outside the extended region — enumeration sweeps may step off
    /// the local lattice, where there are simply no local atoms.
    #[inline]
    pub fn cell_atoms_or_empty(&self, q: IVec3) -> &[u32] {
        if self.extended_region().contains(q) {
            self.cell_atoms(q)
        } else {
            &[]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Species;

    fn lat() -> GhostLattice {
        // Owned region: 2×2×2 cells of edge 3 starting at (6, 6, 6),
        // SC-style margins: none below, two above.
        GhostLattice::new(
            Vec3::splat(6.0),
            Vec3::splat(6.0),
            IVec3::splat(2),
            IVec3::ZERO,
            IVec3::splat(2),
        )
    }

    #[test]
    fn regions() {
        let l = lat();
        assert_eq!(l.extended_region(), CellRegion::new(IVec3::ZERO, IVec3::splat(4)));
        assert_eq!(l.extended_region().cell_count(), 64);
    }

    #[test]
    fn local_cells_and_ownership() {
        let l = lat();
        assert_eq!(l.local_cell_of(Vec3::splat(6.5)), IVec3::ZERO);
        assert_eq!(l.local_cell_of(Vec3::splat(11.9)), IVec3::splat(1));
        // Ghost region above.
        assert_eq!(l.local_cell_of(Vec3::splat(12.1)), IVec3::splat(2));
        // Below the owned region → negative local cell.
        assert_eq!(l.local_cell_of(Vec3::splat(5.9)).x, -1);
    }

    #[test]
    fn rebuild_separates_owned_and_ghosts() {
        let l0 = lat();
        let mut store = AtomStore::single_species();
        store.push(0, Species::DEFAULT, Vec3::splat(6.5), Vec3::ZERO); // owned
        store.push(1, Species::DEFAULT, Vec3::splat(9.5), Vec3::ZERO); // owned
        store.push(2, Species::DEFAULT, Vec3::splat(12.5), Vec3::ZERO); // ghost
        let mut l = l0.clone();
        l.rebuild(&store, 2);
        assert_eq!(l.owned_atoms(), 2);
        assert_eq!(l.cell_atoms(IVec3::ZERO), &[0]);
        assert_eq!(l.cell_atoms(IVec3::splat(1)), &[1]);
        assert_eq!(l.cell_atoms(IVec3::splat(2)), &[2]);
    }

    /// The second rank of a 6.3-wide box split in two, three cells of 1.05:
    /// the division puts its top face, 6.3, in owned cell 2. An atom at 0
    /// imported there is binned across the face, as its images are.
    #[test]
    fn an_atom_on_the_top_face_is_binned_above_it() {
        let (sub, ext) = (Vec3::splat(3.15), IVec3::splat(3));
        let mut l = GhostLattice::new(sub, sub, ext, IVec3::ZERO, ext);
        let on_face = Vec3::new(6.3, 4.0, 4.0);
        assert_eq!(l.local_cell_of(on_face).x, 2, "rounding inside");
        let mut store = AtomStore::single_species();
        store.push(0, Species::DEFAULT, on_face, Vec3::ZERO); // a ghost
        l.rebuild(&store, 0);
        assert_eq!(l.cell_atoms(IVec3::new(3, 0, 0)), &[0]);
    }

    #[test]
    fn out_of_range_atoms_are_skipped() {
        let mut store = AtomStore::single_species();
        store.push(0, Species::DEFAULT, Vec3::splat(0.0), Vec3::ZERO); // far below
        store.push(1, Species::DEFAULT, Vec3::splat(7.0), Vec3::ZERO); // owned
        let mut l = lat();
        l.rebuild(&store, 2);
        // Atom 0 is not binned anywhere; atom 1 is.
        let total: usize = l.extended_region().iter().map(|q| l.cell_atoms(q).len()).sum();
        assert_eq!(total, 1);
    }

    #[test]
    #[should_panic]
    fn out_of_region_cell_index_panics() {
        let l = lat();
        let _ = l.cell_index(IVec3::splat(4));
    }
}
