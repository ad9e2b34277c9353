//! The global periodic cell lattice with CSR binning.

use crate::{morton_key, AtomStore};
use sc_geom::{IVec3, SimulationBox, Vec3};

/// A periodic cell lattice over a [`SimulationBox`] with compressed
/// sparse-row (CSR) atom bins.
///
/// The lattice chooses the largest cell grid whose cell edges are all
/// ≥ `min_cell_edge` (the n-body cutoff `r_cut-n`), guaranteeing that any two
/// atoms closer than the cutoff sit in the same or nearest-neighbour cells —
/// the induction step of the paper's completeness proof (Lemma 1).
///
/// [`CellLattice::rebuild`] re-bins all atoms in O(N); this is the dynamic
/// part of *dynamic* n-tuple computation — the cell domain Ω is
/// reconstructed every MD step as atoms move (paper §3.1.1).
#[derive(Debug, Clone)]
pub struct CellLattice {
    bbox: SimulationBox,
    dims: IVec3,
    inv_cell: Vec3,
    /// Per axis, the wrapped value of every cell coordinate in
    /// `[-dims, 2·dims)`: entry `q + dims` holds `q mod dims`. Pattern sweeps
    /// step at most one lattice width off either side, so their lookups are
    /// three loads instead of three divisions; anything further out falls
    /// back to `rem_euclid`.
    wrap: [Vec<i32>; 3],
    /// CSR offsets, length `num_cells + 1`.
    starts: Vec<u32>,
    /// Atom slot indices ordered by cell, length N.
    order: Vec<u32>,
    /// Rebuild scratch, kept so steady-state rebuilds allocate nothing: each
    /// atom's cell, and the counting sort's per-cell write cursor.
    atom_cell: Vec<u32>,
    cursor: Vec<u32>,
    /// `(store.generation(), store.len())` at the last rebuild, or `None` if
    /// never built. Slot indices in `order` are only meaningful against that
    /// exact store state.
    built: Option<(u64, usize)>,
}

impl CellLattice {
    /// Creates a lattice for `bbox` with cell edges ≥ `min_cell_edge`.
    ///
    /// # Panics
    /// Panics unless every axis fits at least 3 cells — fewer would let a
    /// cutoff sphere wrap onto itself and break the minimum-image
    /// convention the enumeration relies on.
    pub fn new(bbox: SimulationBox, min_cell_edge: f64) -> Self {
        assert!(min_cell_edge > 0.0, "cell edge must be positive");
        let l = bbox.lengths();
        let dims = IVec3::new(
            (l.x / min_cell_edge).floor() as i32,
            (l.y / min_cell_edge).floor() as i32,
            (l.z / min_cell_edge).floor() as i32,
        );
        assert!(
            dims.x >= 3 && dims.y >= 3 && dims.z >= 3,
            "box {l:?} with cell edge {min_cell_edge} gives lattice {dims}; need ≥ 3 cells per axis"
        );
        let cell = Vec3::new(l.x / dims.x as f64, l.y / dims.y as f64, l.z / dims.z as f64);
        let inv_cell = Vec3::new(1.0 / cell.x, 1.0 / cell.y, 1.0 / cell.z);
        let ncell = dims.product() as usize;
        assert!(u32::try_from(ncell).is_ok(), "lattice {dims} has more cells than u32 indexes");
        let wrap =
            [0, 1, 2].map(|a| (-dims[a]..2 * dims[a]).map(|q| q.rem_euclid(dims[a])).collect());
        CellLattice {
            bbox,
            dims,
            inv_cell,
            wrap,
            starts: vec![0; ncell + 1],
            order: Vec::new(),
            atom_cell: Vec::new(),
            cursor: Vec::new(),
            built: None,
        }
    }

    /// Cell coordinate `q` along axis `a`, wrapped into `[0, dims)`.
    #[inline]
    fn wrap_axis(&self, a: usize, q: i32) -> i32 {
        let d = self.dims[a];
        // A coordinate below `-d` casts to a huge index and misses the table.
        match self.wrap[a].get(q.wrapping_add(d) as usize) {
            Some(&w) => w,
            None => q.rem_euclid(d),
        }
    }

    /// Lattice dimensions (cells per axis) — the paper's `(Lx, Ly, Lz)`.
    #[inline]
    pub fn dims(&self) -> IVec3 {
        self.dims
    }

    /// Total number of cells `|L|`.
    #[inline]
    pub fn num_cells(&self) -> usize {
        self.dims.product() as usize
    }

    /// The simulation box the lattice covers.
    #[inline]
    pub fn bbox(&self) -> &SimulationBox {
        &self.bbox
    }

    /// Cell edge lengths (each ≥ the `min_cell_edge` the lattice was built
    /// with).
    pub fn cell_edges(&self) -> Vec3 {
        let l = self.bbox.lengths();
        Vec3::new(l.x / self.dims.x as f64, l.y / self.dims.y as f64, l.z / self.dims.z as f64)
    }

    /// The cell containing a (wrapped) position.
    #[inline]
    pub fn cell_of(&self, r: Vec3) -> IVec3 {
        let r = self.bbox.wrap(r);
        let q = IVec3::new(
            (r.x * self.inv_cell.x) as i32,
            (r.y * self.inv_cell.y) as i32,
            (r.z * self.inv_cell.z) as i32,
        );
        // Guard against r.x == Lx after floating-point wrap.
        q.min(self.dims - IVec3::splat(1))
    }

    /// Linearized index of a (possibly unwrapped) cell coordinate, applying
    /// the periodic cell-offset operation `q' = q % L`.
    #[inline]
    pub fn cell_index(&self, q: IVec3) -> usize {
        let (x, y, z) = (self.wrap_axis(0, q.x), self.wrap_axis(1, q.y), self.wrap_axis(2, q.z));
        ((x * self.dims.y + y) * self.dims.z + z) as usize
    }

    /// Rebuilds the bins from the store's current positions (counting sort,
    /// O(N + |L|)).
    pub fn rebuild(&mut self, store: &AtomStore) {
        let n = store.len();
        let ncell = self.num_cells();
        self.starts.clear();
        self.starts.resize(ncell + 1, 0);
        let mut atom_cell = std::mem::take(&mut self.atom_cell);
        atom_cell.clear();
        atom_cell
            .extend(store.positions().iter().map(|&r| self.cell_index(self.cell_of(r)) as u32));
        for &c in &atom_cell {
            self.starts[c as usize + 1] += 1;
        }
        for i in 0..ncell {
            self.starts[i + 1] += self.starts[i];
        }
        self.order.clear();
        self.order.resize(n, 0);
        self.cursor.clear();
        self.cursor.extend_from_slice(&self.starts[..ncell]);
        for (i, &c) in atom_cell.iter().enumerate() {
            let slot = &mut self.cursor[c as usize];
            self.order[*slot as usize] = i as u32;
            *slot += 1;
        }
        self.atom_cell = atom_cell;
        self.built = Some((store.generation(), n));
    }

    /// Whether the bins were built against the store's current slot layout.
    ///
    /// `false` after any structural change — push, swap-remove, truncate, or
    /// a Morton re-sort — at which point the `u32` slots handed out by
    /// [`CellLattice::cell_atoms`] point at the wrong atoms and the lattice
    /// must be rebuilt before use.
    #[inline]
    pub fn is_current(&self, store: &AtomStore) -> bool {
        self.built == Some((store.generation(), store.len()))
    }

    /// The Morton-order permutation of the store's atoms: `perm[new] = old`,
    /// sorted by the Z-order key of each atom's cell, ties broken by the old
    /// slot (stable). Uses only the lattice geometry — the bins need not be
    /// current.
    pub fn morton_permutation(&self, store: &AtomStore) -> Vec<u32> {
        let keys: Vec<u64> =
            store.positions().iter().map(|&r| morton_key(self.cell_of(r))).collect();
        let mut perm: Vec<u32> = (0..store.len() as u32).collect();
        perm.sort_by_key(|&i| keys[i as usize]);
        perm
    }

    /// The atom slots binned into cell `q` (periodic indexing).
    #[inline]
    pub fn cell_atoms(&self, q: IVec3) -> &[u32] {
        let c = self.cell_index(q);
        &self.order[self.starts[c] as usize..self.starts[c + 1] as usize]
    }

    /// Average atoms per cell `⟨ρ_cell⟩` — the density parameter of the
    /// paper's search-cost analysis (Lemma 5).
    pub fn mean_cell_density(&self) -> f64 {
        self.order.len() as f64 / self.num_cells() as f64
    }

    /// Iterates over all cell coordinates of the lattice.
    pub fn cells(&self) -> impl Iterator<Item = IVec3> {
        IVec3::box_iter(IVec3::ZERO, self.dims - IVec3::splat(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Species;

    fn store_with(positions: &[[f64; 3]]) -> AtomStore {
        let mut s = AtomStore::single_species();
        for (i, &p) in positions.iter().enumerate() {
            s.push(i as u64, Species::DEFAULT, Vec3::from_array(p), Vec3::ZERO);
        }
        s
    }

    #[test]
    fn dims_respect_min_edge() {
        let lat = CellLattice::new(SimulationBox::cubic(10.0), 2.5);
        assert_eq!(lat.dims(), IVec3::splat(4));
        let e = lat.cell_edges();
        assert!(e.x >= 2.5 && e.y >= 2.5 && e.z >= 2.5);
        // 10/2.6 = 3.8… → 3 cells of edge 3.33.
        let lat2 = CellLattice::new(SimulationBox::cubic(10.0), 2.6);
        assert_eq!(lat2.dims(), IVec3::splat(3));
        assert!(lat2.cell_edges().x >= 2.6);
    }

    #[test]
    #[should_panic]
    fn too_small_box_rejected() {
        let _ = CellLattice::new(SimulationBox::cubic(5.0), 2.5);
    }

    #[test]
    fn cell_of_maps_positions() {
        let lat = CellLattice::new(SimulationBox::cubic(12.0), 3.0);
        assert_eq!(lat.cell_of(Vec3::new(0.1, 0.1, 0.1)), IVec3::ZERO);
        assert_eq!(lat.cell_of(Vec3::new(11.9, 0.0, 6.0)), IVec3::new(3, 0, 2));
        // Positions outside the box wrap first.
        assert_eq!(lat.cell_of(Vec3::new(-0.1, 12.1, 0.0)), IVec3::new(3, 0, 0));
    }

    #[test]
    fn cell_index_wraps_periodically() {
        let lat = CellLattice::new(SimulationBox::cubic(12.0), 3.0);
        assert_eq!(lat.cell_index(IVec3::new(-1, 0, 0)), lat.cell_index(IVec3::new(3, 0, 0)));
        assert_eq!(lat.cell_index(IVec3::new(4, 4, 4)), lat.cell_index(IVec3::ZERO));
        // Inside the wrap tables, at their edges, and far beyond them.
        let dims = lat.dims();
        for q in [-9, -5, -4, -1, 0, 3, 4, 7, 8, 13, 400, i32::MIN, i32::MAX] {
            let w = q.rem_euclid(4);
            assert_eq!(lat.cell_index(IVec3::new(q, 0, 0)), (w * dims.y * dims.z) as usize);
            assert_eq!(lat.cell_index(IVec3::new(0, q, 0)), (w * dims.z) as usize);
            assert_eq!(lat.cell_index(IVec3::new(0, 0, q)), w as usize);
        }
    }

    #[test]
    fn rebuild_bins_every_atom_once() {
        let mut lat = CellLattice::new(SimulationBox::cubic(12.0), 3.0);
        let store = store_with(&[
            [0.5, 0.5, 0.5],
            [0.6, 0.7, 0.8], // same cell as atom 0
            [11.0, 11.0, 11.0],
            [6.0, 6.0, 6.0],
        ]);
        lat.rebuild(&store);
        let mut seen = vec![false; store.len()];
        for q in lat.cells() {
            for &a in lat.cell_atoms(q) {
                assert!(!seen[a as usize], "atom {a} binned twice");
                seen[a as usize] = true;
                // Atom really is in this cell.
                assert_eq!(lat.cell_of(store.positions()[a as usize]), q);
            }
        }
        assert!(seen.iter().all(|&s| s));
        assert_eq!(lat.cell_atoms(IVec3::ZERO), &[0, 1]);
    }

    #[test]
    fn rebuild_is_repeatable_and_dynamic() {
        let mut lat = CellLattice::new(SimulationBox::cubic(12.0), 3.0);
        let mut store = store_with(&[[0.5, 0.5, 0.5]]);
        lat.rebuild(&store);
        assert_eq!(lat.cell_atoms(IVec3::ZERO).len(), 1);
        // Atom moves to another cell; rebuild tracks it.
        store.positions_mut()[0] = Vec3::new(6.0, 6.0, 6.0);
        lat.rebuild(&store);
        assert_eq!(lat.cell_atoms(IVec3::ZERO).len(), 0);
        assert_eq!(lat.cell_atoms(IVec3::splat(2)).len(), 1);
    }

    #[test]
    fn mean_density() {
        let mut lat = CellLattice::new(SimulationBox::cubic(12.0), 3.0);
        let store = store_with([[0.0; 3]; 5].as_slice());
        lat.rebuild(&store);
        assert!((lat.mean_cell_density() - 5.0 / 64.0).abs() < 1e-12);
    }

    #[test]
    fn boundary_position_does_not_overflow() {
        let lat = CellLattice::new(SimulationBox::cubic(9.0), 3.0);
        // A position that wraps to exactly 0.0 or lands on the box edge must
        // still map to a valid cell.
        let q = lat.cell_of(Vec3::new(9.0 - 1e-16, 0.0, 0.0));
        assert!(q.x < 3);
    }
}
