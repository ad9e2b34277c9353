//! The three n-tuple computation methods the paper benchmarks (§5).

use crate::engine::{self, Dedup, LinkRows, PatternPlan, VisitStats};
use sc_cell::{AtomStore, CellLattice};
use sc_geom::{IVec3, SimulationBox, Vec3};
use serde::{Deserialize, Serialize};

/// Which n-tuple search strategy a simulation uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Method {
    /// FS-MD: full-shell patterns for every n, reflective duplicates
    /// filtered during enumeration, widest import volume.
    FullShell,
    /// SC-MD: shift-collapse patterns for every n — the paper's algorithm.
    ShiftCollapse,
    /// Hybrid-MD: the production baseline of the paper — cell-based
    /// full-shell pair search feeding a Verlet pair list; n ≥ 3 terms are
    /// pruned from the pair list rather than the cell structure.
    Hybrid,
}

impl Method {
    /// All methods, in the order the paper's figures list them.
    pub const ALL: [Method; 3] = [Method::ShiftCollapse, Method::FullShell, Method::Hybrid];

    /// Display name matching the paper.
    pub fn name(self) -> &'static str {
        match self {
            Method::FullShell => "FS-MD",
            Method::ShiftCollapse => "SC-MD",
            Method::Hybrid => "Hybrid-MD",
        }
    }

    /// The cell pattern, compiled with this method's dedup mode, for tuple
    /// order `n` — Hybrid uses the cell structure only for pairs (n = 2).
    pub fn plan_for(self, n: usize) -> PatternPlan {
        self.plan_for_reach(n, 1)
    }

    /// [`Method::plan_for`] with the reach-`k` pattern that `k`-fold
    /// subdivided cells need (paper §6); `k = 1` is the paper's main
    /// setting.
    pub fn plan_for_reach(self, n: usize, k: i32) -> PatternPlan {
        match self {
            Method::FullShell | Method::Hybrid => {
                PatternPlan::new(&sc_core::generate_fs_reach(n, k), Dedup::Guarded)
            }
            Method::ShiftCollapse => {
                PatternPlan::new(&sc_core::shift_collapse_reach(n, k), Dedup::Collapsed)
            }
        }
    }
}

/// A Verlet pair neighbour list: for every atom, the neighbours within the
/// list cutoff, each with the displacement to it. It is a view of
/// [`engine::LinkRows`] filled eagerly at the pair cutoff — an atom's
/// neighbours are its whole link row, so the list owns no search of its own.
/// Hybrid-MD prunes every term's tuples from it with the `visit_*` walkers —
/// the one Hybrid search, run by every rank and, over a periodic lattice,
/// by [`NeighborList::build`].
///
/// The walkers visit the leading rows named at build time. A rank's list
/// covers owned atoms and ghosts but walks only the owned rows: a triplet is
/// computed by the rank owning its vertex, a pair or quadruplet by the rank
/// its `owns_bond` predicate assigns the (centre) bond to.
#[derive(Debug, Default)]
pub struct NeighborList {
    rows: LinkRows,
    walked: u32,
}

impl NeighborList {
    /// Builds the symmetric neighbour list (each pair appears in both rows)
    /// over the global periodic lattice; every row is walked. Of `plan`,
    /// the build reads the reach alone. The returned statistics account
    /// Hybrid's pair-search cost like the other methods'.
    pub fn build(
        lat: &CellLattice,
        store: &AtomStore,
        plan: &PatternPlan,
        rcut: f64,
    ) -> (NeighborList, VisitStats) {
        let mut list = NeighborList::default();
        let src = engine::PeriodicSource::new(lat, store);
        let stats = list.build_from_cells(&src, lat.cells(), store.len(), plan, rcut);
        (list, stats)
    }

    /// Rebuilds the list in place, reusing its buffers, from an arbitrary
    /// [`engine::TupleSource`]: the rows of every atom of `cells`, to be
    /// walked over the first `walked` atoms — the distributed runtime's
    /// list covers a rank-local ghost lattice and walks the owned atoms.
    pub fn build_from_cells(
        &mut self,
        src: &impl engine::TupleSource,
        cells: impl IntoIterator<Item = IVec3>,
        walked: usize,
        plan: &PatternPlan,
        rcut: f64,
    ) -> VisitStats {
        self.walked = walked as u32;
        self.rows.build(src, plan, rcut, cells)
    }

    /// Neighbours of atom `i`: `(j, d_ij)` with `d_ij = r_j − r_i`.
    #[inline]
    pub fn neighbors(&self, i: u32) -> &[(u32, Vec3)] {
        self.rows.row(i)
    }

    /// Total number of directed neighbour entries (2× the pair count).
    pub fn entry_count(&self) -> usize {
        self.rows.link_count()
    }

    /// Visits every pair shorter than `rcut` once: of a pair's two directed
    /// entries, the one `(i, j)` in a walked row `i` with `owns_bond(i, j)`.
    /// A periodic list passes `j > i`; a rank passes the global-id rule
    /// that also names one owner for a pair straddling two ranks. The
    /// callback receives `(i, j, d_ij, r)`.
    pub fn visit_pairs(
        &self,
        rcut: f64,
        owns_bond: impl Fn(u32, u32) -> bool,
        mut f: impl FnMut(u32, u32, Vec3, f64),
    ) -> VisitStats {
        let rc2 = rcut * rcut;
        let mut stats = VisitStats::default();
        for i in 0..self.walked {
            for &(j, d) in self.neighbors(i) {
                stats.candidates += 1;
                if !owns_bond(i, j) {
                    continue;
                }
                // A list built with a skin holds pairs beyond the cutoff.
                let r2 = d.norm_sq();
                if r2 < rc2 {
                    stats.accepted += 1;
                    f(i, j, d, r2.sqrt());
                }
            }
        }
        stats
    }

    /// Visits every undirected triplet `(i, j, k)` with vertex `j` in a
    /// walked row and both legs shorter than `rcut3` — the Hybrid-MD triplet
    /// search. The callback receives the engine's chain convention
    /// `(i0, i1, i2, d01, d12)`.
    ///
    /// `r_cut-3` keeps a tenth of a pair row (≈ 5 of 52 legs in silica), so
    /// each row's short legs are collected once and paired among themselves;
    /// `candidates` still counts every `(short leg, later entry)` the plain
    /// double loop would test.
    pub fn visit_triplets(
        &self,
        rcut3: f64,
        mut f: impl FnMut(u32, u32, u32, Vec3, Vec3),
    ) -> VisitStats {
        let rc2 = rcut3 * rcut3;
        let mut stats = VisitStats::default();
        let mut short = Vec::new();
        for j in 0..self.walked {
            let nbrs = self.neighbors(j);
            short_legs(nbrs, rc2, &mut short);
            for (s, &(a, i, d_ji)) in short.iter().enumerate() {
                stats.candidates += (nbrs.len() - a - 1) as u64;
                for &(_, k, d_jk) in &short[s + 1..] {
                    stats.accepted += 1;
                    // Chain convention: (i, j, k) with d01 = r_j − r_i = −d_ji.
                    f(i, j, k, -d_ji, d_jk);
                }
            }
        }
        stats
    }

    /// Visits every undirected bonded chain `(i, j, k, l)` with all three
    /// links shorter than `rcut4` — the Hybrid-MD quadruplet search. Each
    /// centre bond `j–k` is expanded once, from the directed entry that
    /// `owns_bond(j, k)` selects (see [`NeighborList::visit_pairs`]). The
    /// callback receives `(ids, d01, d12, d23)` in chain convention.
    ///
    /// Short legs are collected once per row end, as in
    /// [`NeighborList::visit_triplets`]; `candidates` counts every entry of
    /// `k`'s row per `(i, j, k)`.
    pub fn visit_quadruplets(
        &self,
        rcut4: f64,
        owns_bond: impl Fn(u32, u32) -> bool,
        mut f: impl FnMut([u32; 4], Vec3, Vec3, Vec3),
    ) -> VisitStats {
        let rc2 = rcut4 * rcut4;
        let mut stats = VisitStats::default();
        let (mut legs_j, mut legs_k) = (Vec::new(), Vec::new());
        for j in 0..self.walked {
            short_legs(self.neighbors(j), rc2, &mut legs_j);
            for &(_, k, d_jk) in legs_j.iter().filter(|&&(_, k, _)| owns_bond(j, k)) {
                let row_k = self.neighbors(k);
                short_legs(row_k, rc2, &mut legs_k);
                for &(_, i, d_ji) in legs_j.iter().filter(|&&(_, i, _)| i != k) {
                    stats.candidates += row_k.len() as u64;
                    for &(_, l, d_kl) in legs_k.iter().filter(|&&(_, l, _)| l != j && l != i) {
                        stats.accepted += 1;
                        f([i, j, k, l], -d_ji, d_jk, d_kl);
                    }
                }
            }
        }
        stats
    }
}

/// Collects into `short` the entries of `row` shorter than the cutoff, in
/// row order, each with its position in the row.
fn short_legs(row: &[(u32, Vec3)], rc2: f64, short: &mut Vec<(usize, u32, Vec3)>) {
    short.clear();
    let legs = row.iter().enumerate().filter(|(_, (_, d))| d.norm_sq() < rc2);
    short.extend(legs.map(|(a, &(j, d))| (a, j, d)));
}

/// Builds a cell lattice for one n-body term: cell edge = the term's cutoff
/// (SC-MD and FS-MD size the cell structure to each `r_cut-n`; Hybrid only
/// ever builds the pair lattice).
pub fn lattice_for_cutoff(bbox: &SimulationBox, rcut: f64, n: usize) -> CellLattice {
    lattice_for_cutoff_subdivided(bbox, rcut, n, 1)
}

/// Like [`lattice_for_cutoff`] but with cells subdivided `k`-fold
/// (edge ≥ `rcut/k`), for reach-k patterns (paper §6 / the midpoint-method
/// regime). Rejects lattices where reach-k pattern offsets (up to
/// `k·(n−1)`) would alias through the periodic wrap, or boxes below 3
/// cutoffs where the minimum-image convention would break.
pub fn lattice_for_cutoff_subdivided(
    bbox: &SimulationBox,
    rcut: f64,
    n: usize,
    k: i32,
) -> CellLattice {
    assert!(k >= 1, "subdivision must be ≥ 1");
    let l = bbox.lengths();
    assert!(
        l.x >= 3.0 * rcut && l.y >= 3.0 * rcut && l.z >= 3.0 * rcut,
        "box {l:?} below 3 cutoffs ({rcut}); minimum-image breaks"
    );
    let lat = CellLattice::new(*bbox, rcut / k as f64);
    let dims = lat.dims();
    let min_dim = dims.x.min(dims.y).min(dims.z);
    let span = k * (n as i32 - 1);
    assert!(
        min_dim > span,
        "lattice {dims} too small for reach-{k} n = {n} tuples (offset span {span}): \
         pattern offsets would alias through the periodic wrap"
    );
    lat
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::random_gas;
    use std::collections::HashSet;

    #[test]
    fn method_metadata() {
        assert_eq!(Method::ShiftCollapse.name(), "SC-MD");
        assert_eq!(Method::FullShell.plan_for(2).len(), 27);
        assert_eq!(Method::ShiftCollapse.plan_for(2).len(), 14);
        assert_eq!(Method::ShiftCollapse.plan_for(3).len(), 378);
        assert_eq!(Method::Hybrid.plan_for(2).len(), 27);
    }

    fn setup(n_atoms: usize, box_l: f64, rcut: f64) -> (CellLattice, AtomStore) {
        let (store, bbox) = random_gas(n_atoms, box_l, 11);
        let mut lat = CellLattice::new(bbox, rcut);
        lat.rebuild(&store);
        (lat, store)
    }

    /// The plain double loop [`NeighborList::visit_triplets`] replaced,
    /// kept as the semantic reference: every later entry re-tested per
    /// short leg, one candidate each.
    fn plain_triplets(
        list: &NeighborList,
        rcut3: f64,
        mut f: impl FnMut(u32, u32, u32, Vec3, Vec3),
    ) -> VisitStats {
        let rc2 = rcut3 * rcut3;
        let mut stats = VisitStats::default();
        for j in 0..list.walked {
            let nbrs = list.neighbors(j);
            for (a, &(i, d_ji)) in nbrs.iter().enumerate() {
                if d_ji.norm_sq() >= rc2 {
                    continue;
                }
                for &(k, d_jk) in &nbrs[a + 1..] {
                    stats.candidates += 1;
                    if d_jk.norm_sq() >= rc2 {
                        continue;
                    }
                    stats.accepted += 1;
                    f(i, j, k, -d_ji, d_jk);
                }
            }
        }
        stats
    }

    /// Likewise for [`NeighborList::visit_quadruplets`].
    fn plain_quadruplets(
        list: &NeighborList,
        rcut4: f64,
        owns_bond: impl Fn(u32, u32) -> bool,
        mut f: impl FnMut([u32; 4], Vec3, Vec3, Vec3),
    ) -> VisitStats {
        let rc2 = rcut4 * rcut4;
        let mut stats = VisitStats::default();
        for j in 0..list.walked {
            for &(k, d_jk) in list.neighbors(j) {
                if !owns_bond(j, k) || d_jk.norm_sq() >= rc2 {
                    continue;
                }
                for &(i, d_ji) in list.neighbors(j) {
                    if i == k || d_ji.norm_sq() >= rc2 {
                        continue;
                    }
                    for &(l, d_kl) in list.neighbors(k) {
                        stats.candidates += 1;
                        if l == j || l == i || d_kl.norm_sq() >= rc2 {
                            continue;
                        }
                        stats.accepted += 1;
                        f([i, j, k, l], -d_ji, d_jk, d_kl);
                    }
                }
            }
        }
        stats
    }

    #[test]
    fn short_leg_walks_report_what_the_plain_loops_do_in_the_same_order() {
        let (rcut2, rcut3, rcut4) = (1.2, 0.6, 0.9);
        let (lat, store) = setup(150, 4.0, rcut2);
        let (nl, _) = NeighborList::build(&lat, &store, &Method::Hybrid.plan_for(2), rcut2);
        let bits = |d: &[Vec3]| d.iter().flat_map(|d| d.to_array().map(f64::to_bits)).collect();
        type Seq = Vec<(Vec<u32>, Vec<u64>)>;
        let (mut seen, mut expect): (Seq, Seq) = (vec![], vec![]);
        let stats =
            nl.visit_triplets(rcut3, |i, j, k, a, b| seen.push((vec![i, j, k], bits(&[a, b]))));
        let plain =
            plain_triplets(&nl, rcut3, |i, j, k, a, b| expect.push((vec![i, j, k], bits(&[a, b]))));
        assert!(stats.accepted > 50 && stats.candidates > stats.accepted);
        assert_eq!((stats, &seen), (plain, &expect), "triplets");
        let (mut seen, mut expect): (Seq, Seq) = (vec![], vec![]);
        let owns = |j: u32, k: u32| k > j;
        let stats = nl.visit_quadruplets(rcut4, owns, |ids, a, b, c| {
            seen.push((ids.to_vec(), bits(&[a, b, c])))
        });
        let plain = plain_quadruplets(&nl, rcut4, owns, |ids, a, b, c| {
            expect.push((ids.to_vec(), bits(&[a, b, c])))
        });
        assert!(stats.accepted > 50 && stats.candidates > stats.accepted);
        assert_eq!((stats, &seen), (plain, &expect), "quadruplets");
    }

    #[test]
    fn hybrid_triplets_match_cell_triplets() {
        // The Hybrid Verlet-list triplet search must produce exactly the
        // same undirected triplet set as the SC cell search with rcut3.
        let rcut2 = 1.2;
        let rcut3 = 0.6; // ≈ half, like the silica benchmark
        let (lat, store) = setup(150, 4.0, rcut2);
        let (nl, _) = NeighborList::build(&lat, &store, &Method::Hybrid.plan_for(2), rcut2);
        let mut hybrid = HashSet::new();
        nl.visit_triplets(rcut3, |i, j, k, _, _| {
            let key = (i.min(k), j, i.max(k));
            assert!(hybrid.insert(key), "duplicate hybrid triplet {key:?}");
        });
        // SC cell-based search with a lattice sized to rcut3.
        let mut lat3 = CellLattice::new(*lat.bbox(), rcut3);
        lat3.rebuild(&store);
        let plan3 = Method::ShiftCollapse.plan_for(3);
        let mut sc = HashSet::new();
        engine::visit_triplets(&lat3, &store, &plan3, rcut3, |i, j, k, _, _| {
            let key = (i.min(k), j, i.max(k));
            assert!(sc.insert(key), "duplicate SC triplet {key:?}");
        });
        assert_eq!(hybrid, sc);
        assert!(!sc.is_empty());
    }

    #[test]
    fn hybrid_quadruplets_match_reference() {
        let rcut2 = 1.2;
        let rcut4 = 0.9;
        let (lat, store) = setup(60, 4.0, rcut2);
        let (nl, _) = NeighborList::build(&lat, &store, &Method::Hybrid.plan_for(2), rcut2);
        let mut hybrid = HashSet::new();
        nl.visit_quadruplets(
            rcut4,
            |j, k| k > j,
            |ids, _, _, _| {
                let rev = [ids[3], ids[2], ids[1], ids[0]];
                assert!(hybrid.insert(ids.min(rev)), "duplicate hybrid quad {ids:?}");
            },
        );
        let expect = crate::reference::all_quadruplets(&store, lat.bbox(), rcut4);
        assert_eq!(hybrid, expect);
        assert!(!expect.is_empty());
    }

    #[test]
    fn pair_walk_visits_each_list_pair_once_and_refresh_tracks_motion() {
        let rcut = 1.2;
        let (lat, store) = setup(100, 4.0, rcut);
        let (nl, stats) = NeighborList::build(&lat, &store, &Method::Hybrid.plan_for(2), rcut);
        let mut pairs = HashSet::new();
        let walked = nl.visit_pairs(
            rcut,
            |i, j| j > i,
            |i, j, d, r| {
                assert!(pairs.insert((i, j)), "pair ({i}, {j}) visited twice");
                assert_eq!(
                    d,
                    lat.bbox()
                        .min_image(store.positions()[i as usize], store.positions()[j as usize])
                );
                assert_eq!(r, d.norm());
            },
        );
        assert_eq!(pairs, crate::reference::all_pairs(&store, lat.bbox(), rcut));
        assert_eq!(walked.accepted, stats.accepted);
        // A shorter cutoff prunes the same list (the Verlet-skin case).
        let mut short = 0;
        nl.visit_pairs(
            0.8,
            |i, j| j > i,
            |_, _, _, r| {
                assert!(r < 0.8);
                short += 1;
            },
        );
        assert_eq!(short, crate::reference::all_pairs(&store, lat.bbox(), 0.8).len());
    }

    #[test]
    fn hybrid_triplet_search_is_cheaper_with_short_cutoff() {
        // The Hybrid advantage the paper describes: with rcut3 ≈ 0.47·rcut2
        // the Verlet-list triplet search examines far fewer candidates than
        // the rcut2-cell search would, and fewer even than the rcut3-cell
        // SC search (pair lists localize better than cells).
        let rcut2 = 1.5;
        let rcut3 = 0.7;
        let (lat, store) = setup(250, 4.5, rcut2);
        let (nl, _) = NeighborList::build(&lat, &store, &Method::Hybrid.plan_for(2), rcut2);
        let h = nl.visit_triplets(rcut3, |_, _, _, _, _| {});
        let mut lat3 = CellLattice::new(*lat.bbox(), rcut3);
        lat3.rebuild(&store);
        let s = engine::visit_triplets(
            &lat3,
            &store,
            &Method::ShiftCollapse.plan_for(3),
            rcut3,
            |_, _, _, _, _| {},
        );
        assert!(
            h.candidates < s.candidates,
            "hybrid triplet candidates {} ≥ SC cell candidates {}",
            h.candidates,
            s.candidates
        );
        assert_eq!(h.accepted, s.accepted);
    }

    #[test]
    #[should_panic(expected = "too small")]
    fn aliasing_lattice_rejected() {
        let bbox = SimulationBox::cubic(3.0);
        let _ = lattice_for_cutoff(&bbox, 1.0, 4);
    }
}
