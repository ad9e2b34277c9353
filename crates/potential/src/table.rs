//! Tabulated pair potentials: cubic-Hermite interpolation of an arbitrary
//! pair potential, the standard production trick for expensive functional
//! forms (the Vashishta 2-body term costs a division, an integer power and
//! two `exp`s per pair; a table lookup costs a few flops).

use crate::PairPotential;
use sc_cell::Species;

/// Sampled `(u, du/dr)` knots of one species pair.
type KnotTable = Vec<(f64, f64)>;

/// A pair potential tabulated on a uniform grid with cubic Hermite
/// interpolation.
///
/// Each species pair gets its own `(u, du/dr)` table sampled from the source
/// potential; evaluation interpolates the energy with the matching analytic
/// derivative of the interpolant, so the returned force is *exactly* the
/// derivative of the returned energy — tabulated simulations conserve
/// energy just like analytic ones, merely of a slightly different (and
/// smooth) potential.
pub struct TabulatedPair {
    rcut: f64,
    r_min: f64,
    dr: f64,
    n_species: usize,
    /// `tables[i][j]` = sampled `(u, du)` knots, or `None` when the species
    /// pair does not interact.
    tables: Vec<Vec<Option<KnotTable>>>,
}

impl TabulatedPair {
    /// Tabulates `source` for `n_species` species with `n_points` knots per
    /// pair on `[r_min, cutoff]`. `r_min` guards the hard-core divergence —
    /// pairs closer than `r_min` evaluate at `r_min` (with its repulsive
    /// slope), which production codes likewise clamp.
    pub fn from_potential(
        source: &dyn PairPotential,
        n_species: usize,
        r_min: f64,
        n_points: usize,
    ) -> Self {
        assert!(n_species >= 1 && n_points >= 4);
        let rcut = source.cutoff();
        assert!(r_min > 0.0 && r_min < rcut);
        let dr = (rcut - r_min) / (n_points - 1) as f64;
        let mut tables = vec![vec![None; n_species]; n_species];
        // Index loops keep the (i, j) species-pair symmetry readable.
        #[allow(clippy::needless_range_loop)]
        for i in 0..n_species {
            for j in 0..n_species {
                let (si, sj) = (Species(i as u8), Species(j as u8));
                if !source.applies(si, sj) {
                    continue;
                }
                let knots: KnotTable =
                    (0..n_points).map(|k| source.eval(si, sj, r_min + k as f64 * dr)).collect();
                tables[i][j] = Some(knots);
            }
        }
        TabulatedPair { rcut, r_min, dr, n_species, tables }
    }

    /// Number of knots per table.
    pub fn knots(&self) -> usize {
        self.tables.iter().flatten().flatten().map(Vec::len).next().unwrap_or(0)
    }

    /// Cubic Hermite on segment `[r_k, r_{k+1}]` with knot values and
    /// slopes; returns the interpolated `(u, du)`.
    fn hermite(knots: &[(f64, f64)], r_min: f64, dr: f64, r: f64) -> (f64, f64) {
        let x = (r - r_min) / dr;
        let k = (x.floor() as usize).min(knots.len() - 2);
        let t = x - k as f64;
        let (u0, m0) = knots[k];
        let (u1, m1) = knots[k + 1];
        // Hermite basis (slopes scaled by segment length dr).
        let (m0, m1) = (m0 * dr, m1 * dr);
        let t2 = t * t;
        let t3 = t2 * t;
        let h00 = 2.0 * t3 - 3.0 * t2 + 1.0;
        let h10 = t3 - 2.0 * t2 + t;
        let h01 = -2.0 * t3 + 3.0 * t2;
        let h11 = t3 - t2;
        let u = h00 * u0 + h10 * m0 + h01 * u1 + h11 * m1;
        // d/dt of the basis, then /dr for d/dr.
        let dh00 = 6.0 * t2 - 6.0 * t;
        let dh10 = 3.0 * t2 - 4.0 * t + 1.0;
        let dh01 = -6.0 * t2 + 6.0 * t;
        let dh11 = 3.0 * t2 - 2.0 * t;
        let du = (dh00 * u0 + dh10 * m0 + dh01 * u1 + dh11 * m1) / dr;
        (u, du)
    }
}

impl PairPotential for TabulatedPair {
    fn cutoff(&self) -> f64 {
        self.rcut
    }

    fn eval(&self, si: Species, sj: Species, r: f64) -> (f64, f64) {
        let knots = self.tables[si.index()][sj.index()]
            .as_ref()
            .expect("eval called for non-interacting species pair");
        let r = r.max(self.r_min);
        Self::hermite(knots, self.r_min, self.dr, r)
    }

    fn applies(&self, si: Species, sj: Species) -> bool {
        si.index() < self.n_species
            && sj.index() < self.n_species
            && self.tables[si.index()][sj.index()].is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LennardJones, Vashishta};

    const S: Species = Species(0);

    #[test]
    fn tabulated_lj_tracks_analytic() {
        let lj = LennardJones::reduced(2.5);
        let tab = TabulatedPair::from_potential(&lj, 1, 0.8, 2000);
        for k in 0..200 {
            let r = 0.85 + k as f64 * (2.45 - 0.85) / 200.0;
            let (ua, da) = lj.eval(S, S, r);
            let (ut, dt) = tab.eval(S, S, r);
            assert!((ua - ut).abs() < 1e-6 * ua.abs().max(1.0), "u at r={r}: {ua} vs {ut}");
            assert!((da - dt).abs() < 1e-4 * da.abs().max(1.0), "du at r={r}: {da} vs {dt}");
        }
    }

    #[test]
    fn interpolant_is_exact_at_knots() {
        let lj = LennardJones::reduced(2.5);
        let tab = TabulatedPair::from_potential(&lj, 1, 0.9, 100);
        let dr = (2.5 - 0.9) / 99.0;
        for k in [0usize, 10, 50, 98] {
            let r = 0.9 + k as f64 * dr;
            let (ua, da) = lj.eval(S, S, r);
            let (ut, dt) = tab.eval(S, S, r);
            assert!((ua - ut).abs() < 1e-12);
            assert!((da - dt).abs() < 1e-9);
        }
    }

    #[test]
    fn force_is_derivative_of_interpolated_energy() {
        // The FD of the *interpolant* must match its own du — energy
        // conservation depends on this, not on agreement with the source.
        let lj = LennardJones::reduced(2.5);
        let tab = TabulatedPair::from_potential(&lj, 1, 0.8, 50); // deliberately coarse
        let h = 1e-6;
        for r in [1.0, 1.3, 1.7, 2.2] {
            let (_, du) = tab.eval(S, S, r);
            let (up, _) = tab.eval(S, S, r + h);
            let (um, _) = tab.eval(S, S, r - h);
            let fd = (up - um) / (2.0 * h);
            assert!((du - fd).abs() < 1e-5 * du.abs().max(1.0), "r={r}: {du} vs FD {fd}");
        }
    }

    #[test]
    fn clamps_below_r_min() {
        let lj = LennardJones::reduced(2.5);
        let tab = TabulatedPair::from_potential(&lj, 1, 0.9, 100);
        let (u_clamped, du_clamped) = tab.eval(S, S, 0.5);
        let (u_min, du_min) = tab.eval(S, S, 0.9);
        assert_eq!(u_clamped, u_min);
        assert_eq!(du_clamped, du_min);
        assert!(du_clamped < 0.0, "clamped slope must stay repulsive");
    }

    #[test]
    fn species_pairs_tabulated_independently() {
        let v = Vashishta::silica();
        let tab = TabulatedPair::from_potential(&v.pair, 2, 1.0, 1500);
        for (a, b) in
            [(Species::SI, Species::SI), (Species::SI, Species::O), (Species::O, Species::O)]
        {
            assert!(tab.applies(a, b));
            for r in [1.6, 2.5, 4.0, 5.0] {
                let (ua, _) = v.pair.eval(a, b, r);
                let (ut, _) = tab.eval(a, b, r);
                assert!(
                    (ua - ut).abs() < 1e-5 * ua.abs().max(1.0),
                    "{a:?}-{b:?} at r={r}: {ua} vs {ut}"
                );
            }
        }
    }
}
