//! Physical observables computed over the same tuple machinery the forces
//! use: radial distribution function, mean-squared displacement, and the
//! pair-virial pressure.

use crate::engine::{visit_pairs, Dedup, PatternPlan};
use sc_cell::{AtomStore, CellLattice, Species};
use sc_core::shift_collapse;
use sc_geom::{SimulationBox, Vec3};
use sc_potential::PairPotential;

/// A radial distribution function g(r) accumulated over snapshots.
///
/// Uses the SC pair pattern to enumerate each pair once — the same
/// redundancy-free search that computes forces, reused for analysis.
#[derive(Debug, Clone)]
pub struct RadialDistribution {
    rmax: f64,
    bins: Vec<f64>,
    snapshots: u32,
    /// Count of atoms whose pairs are tallied (species-a atoms), and of the
    /// partner species, for partial-g(r) normalization.
    n_a: usize,
    n_b: usize,
    volume: f64,
    filter: Option<(Species, Species)>,
}

impl RadialDistribution {
    /// Creates an accumulator with `nbins` bins up to `rmax` over all pairs.
    pub fn new(rmax: f64, nbins: usize) -> Self {
        assert!(rmax > 0.0 && nbins > 0);
        RadialDistribution {
            rmax,
            bins: vec![0.0; nbins],
            snapshots: 0,
            n_a: 0,
            n_b: 0,
            volume: 0.0,
            filter: None,
        }
    }

    /// Restricts to the partial g_ab(r) between two species (unordered) —
    /// the Si-O / O-O / Si-Si decomposition silica structure work uses.
    pub fn partial(mut self, a: Species, b: Species) -> Self {
        self.filter = Some((a, b));
        self
    }

    /// Accumulates one snapshot.
    pub fn accumulate(&mut self, store: &AtomStore, bbox: &SimulationBox) {
        let mut lat = CellLattice::new(*bbox, self.rmax);
        lat.rebuild(store);
        let plan = PatternPlan::new(&shift_collapse(2), Dedup::Collapsed);
        let nb = self.bins.len() as f64;
        let rmax = self.rmax;
        let bins = &mut self.bins;
        let filter = self.filter;
        let species = store.species();
        visit_pairs(&lat, store, &plan, rmax, |i, j, _, r| {
            if let Some((a, b)) = filter {
                let (si, sj) = (species[i as usize], species[j as usize]);
                if !((si, sj) == (a, b) || (si, sj) == (b, a)) {
                    return;
                }
            }
            let bin = (r / rmax * nb) as usize;
            if bin < bins.len() {
                bins[bin] += 2.0; // each undirected pair counts for both atoms
            }
        });
        self.snapshots += 1;
        match self.filter {
            None => {
                self.n_a = store.len();
                self.n_b = store.len();
            }
            Some((a, b)) => {
                self.n_a = store.species().iter().filter(|s| **s == a).count();
                self.n_b = store.species().iter().filter(|s| **s == b).count();
            }
        }
        self.volume = bbox.volume();
    }

    /// The normalized g(r): `(r_mid, g)` per bin, ideal-gas normalized so a
    /// structureless fluid gives g ≈ 1 at large r.
    ///
    /// The bins hold *directed* counts (each undirected pair tallied twice).
    /// The ideal-gas directed count in a shell of volume `s` is
    /// `C·s/V` with `C = N_a·N_b` for unlike partials, `N_a²` for like
    /// partials, and `N²` unfiltered — so one division normalizes all
    /// three cases.
    pub fn normalized(&self) -> Vec<(f64, f64)> {
        let c = match self.filter {
            None => (self.n_a * self.n_a) as f64,
            Some((a, b)) if a == b => (self.n_a * self.n_a) as f64,
            Some(_) => 2.0 * (self.n_a * self.n_b) as f64,
        };
        let dr = self.rmax / self.bins.len() as f64;
        self.bins
            .iter()
            .enumerate()
            .map(|(i, &count)| {
                let r_lo = i as f64 * dr;
                let r_hi = r_lo + dr;
                let shell = 4.0 / 3.0 * std::f64::consts::PI * (r_hi.powi(3) - r_lo.powi(3));
                let ideal = c * shell / self.volume * self.snapshots.max(1) as f64;
                (r_lo + 0.5 * dr, if ideal > 0.0 { count / ideal } else { 0.0 })
            })
            .collect()
    }
}

/// Mean-squared displacement tracker against a reference snapshot, following
/// atoms through periodic wrapping by accumulating per-step minimum-image
/// displacements.
#[derive(Debug, Clone)]
pub struct MeanSquaredDisplacement {
    unwrapped: Vec<Vec3>,
    reference: Vec<Vec3>,
    last_wrapped: Vec<Vec3>,
}

impl MeanSquaredDisplacement {
    /// Starts tracking from the store's current positions.
    pub fn new(store: &AtomStore) -> Self {
        let p = store.positions().to_vec();
        MeanSquaredDisplacement { unwrapped: p.clone(), reference: p.clone(), last_wrapped: p }
    }

    /// Records the current positions (call once per step or sampling
    /// interval; atoms must not move more than half a box per call).
    pub fn record(&mut self, store: &AtomStore, bbox: &SimulationBox) {
        for i in 0..store.len() {
            let step = bbox.min_image(self.last_wrapped[i], store.positions()[i]);
            self.unwrapped[i] += step;
            self.last_wrapped[i] = store.positions()[i];
        }
    }

    /// The current MSD `⟨|r(t) − r(0)|²⟩`.
    pub fn value(&self) -> f64 {
        if self.unwrapped.is_empty() {
            return 0.0;
        }
        self.unwrapped.iter().zip(&self.reference).map(|(u, r)| (*u - *r).norm_sq()).sum::<f64>()
            / self.unwrapped.len() as f64
    }
}

/// Instantaneous pair-virial pressure
/// `P = (N k_B T + ⅓ Σ_pairs r·f) / V` (k_B = 1). Many-body virial terms are
/// not included; for the pair-dominated systems in this repository the pair
/// virial is the leading contribution.
pub fn pair_virial_pressure(
    store: &AtomStore,
    bbox: &SimulationBox,
    pot: &dyn PairPotential,
) -> f64 {
    let mut lat = CellLattice::new(*bbox, pot.cutoff());
    lat.rebuild(store);
    let plan = PatternPlan::new(&shift_collapse(2), Dedup::Collapsed);
    let mut virial = 0.0;
    visit_pairs(&lat, store, &plan, pot.cutoff(), |i, j, d, r| {
        let (si, sj) = (store.species()[i as usize], store.species()[j as usize]);
        if !pot.applies(si, sj) {
            return;
        }
        let (_, du) = pot.eval(si, sj, r);
        // r · f(pair) = −r·du/dr for a central force along d.
        virial += -du * r;
        let _ = d;
    });
    let n = store.len() as f64;
    (n * store.temperature() + virial / 3.0) / bbox.volume()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{build_fcc_lattice, random_gas, LatticeSpec};
    use sc_cell::Species;
    use sc_potential::LennardJones;

    #[test]
    fn rdf_of_ideal_gas_is_flat() {
        let (store, bbox) = random_gas(4000, 12.0, 3);
        let mut rdf = RadialDistribution::new(3.0, 30);
        rdf.accumulate(&store, &bbox);
        let g = rdf.normalized();
        // Skip the first bins (few counts); the rest must hover near 1.
        for &(r, v) in g.iter().filter(|(r, _)| *r > 0.5) {
            assert!((v - 1.0).abs() < 0.25, "g({r:.2}) = {v}");
        }
    }

    #[test]
    fn rdf_of_crystal_peaks_at_nearest_neighbor_distance() {
        let a = 1.6;
        let (store, bbox) = build_fcc_lattice(&LatticeSpec::cubic(5, a), 0.0, 1);
        let mut rdf = RadialDistribution::new(2.0, 100);
        rdf.accumulate(&store, &bbox);
        let g = rdf.normalized();
        let nn = a / 2f64.sqrt(); // FCC nearest-neighbour distance
        let peak = g.iter().max_by(|x, y| x.1.partial_cmp(&y.1).unwrap()).unwrap();
        assert!(
            (peak.0 - nn).abs() < 0.05,
            "peak at {} but nearest-neighbour distance is {nn}",
            peak.0
        );
        assert!(peak.1 > 10.0, "crystal peak should tower over ideal gas");
    }

    #[test]
    fn msd_zero_for_static_system_grows_for_moving() {
        let (store, bbox) = random_gas(50, 5.0, 2);
        let mut msd = MeanSquaredDisplacement::new(&store);
        msd.record(&store, &bbox);
        assert!(msd.value() < 1e-30);
        // Move every atom by (0.1, 0, 0), wrapped.
        let mut moved = store.clone();
        for p in moved.positions_mut() {
            *p = bbox.wrap(*p + Vec3::new(0.1, 0.0, 0.0));
        }
        msd.record(&moved, &bbox);
        assert!((msd.value() - 0.01).abs() < 1e-12);
    }

    #[test]
    fn msd_tracks_through_periodic_wrap() {
        let bbox = SimulationBox::cubic(4.0);
        let mut store = AtomStore::single_species();
        store.push(0, Species::DEFAULT, Vec3::new(3.9, 2.0, 2.0), Vec3::ZERO);
        let mut msd = MeanSquaredDisplacement::new(&store);
        // Cross the boundary in small steps; total displacement 1.0 in x.
        for k in 1..=10 {
            store.positions_mut()[0] = bbox.wrap(Vec3::new(3.9 + 0.1 * k as f64, 2.0, 2.0));
            msd.record(&store, &bbox);
        }
        assert!((msd.value() - 1.0).abs() < 1e-12, "MSD {} should be 1.0", msd.value());
    }

    #[test]
    fn partial_rdfs_decompose_the_total() {
        // Random two-species gas: every partial must be ≈ 1 (ideal), and
        // the species-weighted sum of partials must recover the total.
        let (mut store0, bbox) = random_gas(3000, 10.0, 4);
        // Make a two-species store: alternate species.
        let mut store = sc_cell::AtomStore::new(vec![1.0, 2.0]);
        for i in 0..store0.len() {
            store.push(i as u64, Species((i % 2) as u8), store0.positions()[i], Vec3::ZERO);
        }
        store0.zero_forces();
        let mut total = RadialDistribution::new(2.5, 20);
        total.accumulate(&store, &bbox);
        let mut parts = vec![
            RadialDistribution::new(2.5, 20).partial(Species(0), Species(0)),
            RadialDistribution::new(2.5, 20).partial(Species(0), Species(1)),
            RadialDistribution::new(2.5, 20).partial(Species(1), Species(1)),
        ];
        for p in &mut parts {
            p.accumulate(&store, &bbox);
        }
        let g_t = total.normalized();
        let gs: Vec<_> = parts.iter().map(|p| p.normalized()).collect();
        // Weights: x_a x_b (×2 off-diagonal) with x = 1/2 each:
        // g = ¼ g00 + ½ g01 + ¼ g11.
        for i in 0..g_t.len() {
            if g_t[i].0 < 0.5 {
                continue; // sparse inner bins
            }
            let mix = 0.25 * gs[0][i].1 + 0.5 * gs[1][i].1 + 0.25 * gs[2][i].1;
            assert!(
                (mix - g_t[i].1).abs() < 0.05,
                "at r = {}: mix {mix} vs total {}",
                g_t[i].0,
                g_t[i].1
            );
            assert!((g_t[i].1 - 1.0).abs() < 0.25, "ideal gas g ≈ 1");
        }
    }

    #[test]
    fn silica_partial_rdf_peaks_at_bond_length() {
        let a = 7.16;
        let (store, bbox) = crate::workload::build_silica_like(2, a, [28.0855, 15.999], 0.0, 3);
        let mut sio = RadialDistribution::new(4.0, 80).partial(Species::SI, Species::O);
        sio.accumulate(&store, &bbox);
        let bond = a * 0.25 * 3f64.sqrt() * 0.5; // ≈ 1.55 Å
        let peak =
            sio.normalized().into_iter().max_by(|x, y| x.1.partial_cmp(&y.1).unwrap()).unwrap();
        assert!((peak.0 - bond).abs() < 0.1, "Si-O peak at {} Å, bond length {bond} Å", peak.0);
    }

    #[test]
    fn virial_pressure_matches_brute_force() {
        let (mut store, bbox) = random_gas(80, 8.0, 5);
        for v in store.velocities_mut() {
            *v = Vec3::new(0.5, -0.2, 0.3);
        }
        store.remove_drift();
        store.rescale_to_temperature(1.0);
        let lj = LennardJones::reduced(2.5);
        let p = pair_virial_pressure(&store, &bbox, &lj);
        // Brute-force virial over all cutoff pairs.
        let mut virial = 0.0;
        for (i, j) in crate::reference::all_pairs(&store, &bbox, 2.5) {
            let r =
                bbox.min_image(store.positions()[i as usize], store.positions()[j as usize]).norm();
            let (_, du) = sc_potential::PairPotential::eval(&lj, Species(0), Species(0), r);
            virial += -du * r;
        }
        let expect = (store.len() as f64 * store.temperature() + virial / 3.0) / bbox.volume();
        assert!(
            (p - expect).abs() < 1e-9 * expect.abs().max(1.0),
            "P = {p}, brute force = {expect}"
        );
    }

    #[test]
    fn compressed_lj_crystal_has_positive_pressure() {
        // FCC at a lattice constant well below equilibrium: strongly
        // repulsive, large positive virial.
        let (store, bbox) = build_fcc_lattice(&LatticeSpec::cubic(6, 1.3), 0.0, 1);
        let lj = LennardJones::reduced(2.5);
        let p = pair_virial_pressure(&store, &bbox, &lj);
        assert!(p > 1.0, "compressed crystal pressure {p}");
    }
}
