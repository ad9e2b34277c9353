//! Vashishta-form silica potential: the paper's benchmark application.
//!
//! The SC'13 performance study (§5) runs MD of silica (SiO₂) with the
//! Vashishta interaction [Vashishta, Kalia, Rino, Ebbsjö, PRB 41, 12197
//! (1990)]: a 2-body term (steric repulsion, screened Coulomb,
//! charge–dipole) plus a 3-body bond-bending term, with the triplet cutoff
//! roughly 0.47× the pair cutoff. That cutoff ratio is the property the
//! Hybrid-MD baseline exploits, so we keep it exactly:
//! `r_cut-3 / r_cut-2 = 2.6 Å / 5.5 Å ≈ 0.4727`.
//!
//! **Substitution note (see DESIGN.md):** the parameter *values* below are
//! representative — same functional form, same cutoffs, same species
//! structure, magnitudes chosen to give a stable ionic liquid — not the
//! published silica fit. The enumeration/communication behaviour the paper
//! benchmarks depends only on the cutoffs and densities, which we preserve;
//! force correctness is established against finite differences of this
//! energy, whatever the constants.

use crate::{PairPotential, TripletPotential};
use sc_cell::Species;
use sc_geom::Vec3;
use serde::{Deserialize, Serialize};

/// Parameters of the Vashishta-form potential for a two-species (Si, O)
/// system. Pair matrices are symmetric, indexed `[species_i][species_j]`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct VashishtaParams {
    /// Pair cutoff `r_cut-2` (Å).
    pub rcut2: f64,
    /// Triplet cutoff `r_cut-3` (Å); also the screening pole `r0` of the
    /// 3-body term, so the term vanishes smoothly at the cutoff.
    pub rcut3: f64,
    /// Effective charges Z (e) per species.
    pub z: [f64; 2],
    /// Coulomb constant (eV·Å·e⁻²).
    pub coulomb_k: f64,
    /// Debye screening length λ (Å) of the Coulomb term.
    pub lambda: f64,
    /// Screening length ξ (Å) of the charge–dipole term.
    pub xi: f64,
    /// Steric repulsion strengths H (eV·Å^η).
    pub h: [[f64; 2]; 2],
    /// Steric repulsion exponents η (integers, so `r^-η` is a product of
    /// powers of `1/r`).
    pub eta: [[i32; 2]; 2],
    /// Charge–dipole strengths D (eV·Å⁴).
    pub d: [[f64; 2]; 2],
    /// Van der Waals strengths W (eV·Å⁶).
    pub w: [[f64; 2]; 2],
    /// Bond-bending strengths B (eV), indexed `[leg0][vertex][leg2]`;
    /// zero = no interaction for that species combination.
    pub b: [[[f64; 2]; 2]; 2],
    /// Preferred cosines cos θ̄ per `[leg0][vertex][leg2]`.
    pub cos0: [[[f64; 2]; 2]; 2],
    /// Screening strength γ (Å) of the 3-body radial factors.
    pub gamma: f64,
    /// Masses per species (amu) — convenience for building stores.
    pub masses: [f64; 2],
}

impl VashishtaParams {
    /// Representative silica-like parameters with the paper's cutoff ratio.
    pub fn silica() -> Self {
        let si = Species::SI.index();
        let o = Species::O.index();
        let mut b = [[[0.0; 2]; 2]; 2];
        let mut cos0 = [[[0.0; 2]; 2]; 2];
        // O–Si–O bending: tetrahedral angle.
        b[o][si][o] = 4.993;
        cos0[o][si][o] = -1.0 / 3.0;
        // Si–O–Si bending: ~141°.
        b[si][o][si] = 19.972;
        cos0[si][o][si] = (141.0f64).to_radians().cos();
        VashishtaParams {
            rcut2: 5.5,
            rcut3: 2.6,
            z: [1.2, -0.6],
            coulomb_k: 14.399645,
            lambda: 4.43,
            xi: 2.5,
            h: [[23.0, 160.0], [160.0, 350.0]],
            eta: [[11, 9], [9, 7]],
            d: [[0.0, 3.456], [3.456, 1.728]],
            w: [[0.0; 2]; 2],
            b,
            cos0,
            gamma: 1.0,
            masses: [28.0855, 15.999],
        }
    }
}

/// The 2-body part of the Vashishta potential, truncated and shifted at
/// `rcut2`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct VashishtaPair {
    params: VashishtaParams,
    /// Coulomb prefactors `k·Z_i·Z_j`.
    qq: [[f64; 2]; 2],
    /// `1/λ` and `1/ξ`.
    inv_lambda: f64,
    inv_xi: f64,
    shift: [[f64; 2]; 2],
}

impl VashishtaPair {
    /// Builds the pair term, precomputing the Coulomb prefactors, the
    /// inverse screening lengths and the energy shifts at the cutoff.
    pub fn new(params: VashishtaParams) -> Self {
        let z = params.z;
        let qq = [0, 1].map(|i| [0, 1].map(|j| params.coulomb_k * z[i] * z[j]));
        let (inv_lambda, inv_xi) = (1.0 / params.lambda, 1.0 / params.xi);
        let mut pair = VashishtaPair { params, qq, inv_lambda, inv_xi, shift: [[0.0; 2]; 2] };
        for i in 0..2 {
            for j in 0..2 {
                pair.shift[i][j] = pair.raw(i, j, pair.params.rcut2).0;
            }
        }
        pair
    }

    /// Unshifted `(u, du/dr)` in one pass: one division for `1/r`, integer
    /// powers of it and the two screening exponentials, each term's
    /// derivative written as the term times a factor in `1/r`.
    #[inline]
    fn raw(&self, i: usize, j: usize, r: f64) -> (f64, f64) {
        let p = &self.params;
        let inv = 1.0 / r;
        let inv2 = inv * inv;
        let inv4 = inv2 * inv2;
        let steric = p.h[i][j] * inv.powi(p.eta[i][j]);
        let coulomb = self.qq[i][j] * (-r * self.inv_lambda).exp() * inv;
        let dipole = p.d[i][j] * (-r * self.inv_xi).exp() * inv4;
        let vdw = p.w[i][j] * inv4 * inv2;
        let u = steric + coulomb - dipole - vdw;
        let du = -f64::from(p.eta[i][j]) * steric * inv - coulomb * (self.inv_lambda + inv)
            + dipole * (self.inv_xi + 4.0 * inv)
            + 6.0 * vdw * inv;
        (u, du)
    }
}

impl PairPotential for VashishtaPair {
    fn cutoff(&self) -> f64 {
        self.params.rcut2
    }

    fn eval(&self, si: Species, sj: Species, r: f64) -> (f64, f64) {
        let (i, j) = (si.index(), sj.index());
        debug_assert!(i < 2 && j < 2, "Vashishta is a two-species potential");
        let (u, du) = self.raw(i, j, r);
        (u - self.shift[i][j], du)
    }
}

/// The 3-body bond-bending part of the Vashishta potential:
/// `U = B · ζ(r_a) ζ(r_b) · (cos θ − cos θ̄)²` with the screening factor
/// `ζ(r) = exp(γ / (r − r0))` for `r < r0` (and 0 beyond), so both the
/// energy and forces vanish smoothly at the triplet cutoff.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct VashishtaTriplet {
    params: VashishtaParams,
}

impl VashishtaTriplet {
    /// Builds the triplet term.
    pub fn new(params: VashishtaParams) -> Self {
        VashishtaTriplet { params }
    }
}

/// Shared bond-bending evaluation: vertex atom at index 1 of the chain,
/// legs `d10 = r0 − r1`, `d12 = r2 − r1`. Returns `(u, f0, f1, f2)`.
///
/// `screen(r) → (ζ, dζ/dr)` must be zero at and beyond the cutoff.
pub(crate) fn bond_bend_eval(
    prefactor: f64,
    cos0: f64,
    d10: Vec3,
    d12: Vec3,
    mut screen: impl FnMut(f64) -> (f64, f64),
) -> (f64, Vec3, Vec3, Vec3) {
    let ra = d10.norm();
    let rb = d12.norm();
    let (za, dza) = screen(ra);
    let (zb, dzb) = screen(rb);
    if za == 0.0 || zb == 0.0 {
        return (0.0, Vec3::ZERO, Vec3::ZERO, Vec3::ZERO);
    }
    let cos_t = d10.dot(d12) / (ra * rb);
    let delta = cos_t - cos0;
    let g = delta * delta;
    let dg = 2.0 * delta;
    let u = prefactor * za * zb * g;
    // ∂U/∂ra, ∂U/∂rb, ∂U/∂cosθ
    let du_ra = prefactor * dza * zb * g;
    let du_rb = prefactor * za * dzb * g;
    let du_cos = prefactor * za * zb * dg;
    // Gradients of cosθ wrt the two endpoint atoms.
    let grad0_cos = d12 / (ra * rb) - d10 * (cos_t / (ra * ra));
    let grad2_cos = d10 / (ra * rb) - d12 * (cos_t / (rb * rb));
    let f0 = -(d10 * (du_ra / ra) + grad0_cos * du_cos);
    let f2 = -(d12 * (du_rb / rb) + grad2_cos * du_cos);
    let f1 = -(f0 + f2);
    (u, f0, f1, f2)
}

impl TripletPotential for VashishtaTriplet {
    fn cutoff(&self) -> f64 {
        self.params.rcut3
    }

    fn eval(
        &self,
        s0: Species,
        s1: Species,
        s2: Species,
        d10: Vec3,
        d12: Vec3,
    ) -> (f64, Vec3, Vec3, Vec3) {
        let (a, v, b) = (s0.index(), s1.index(), s2.index());
        let bb = self.params.b[a][v][b];
        if bb == 0.0 {
            return (0.0, Vec3::ZERO, Vec3::ZERO, Vec3::ZERO);
        }
        let cos0 = self.params.cos0[a][v][b];
        let gamma = self.params.gamma;
        let r0 = self.params.rcut3;
        bond_bend_eval(bb, cos0, d10, d12, |r| {
            if r >= r0 {
                (0.0, 0.0)
            } else {
                let z = (gamma / (r - r0)).exp();
                (z, -gamma / ((r - r0) * (r - r0)) * z)
            }
        })
    }

    fn applies(&self, s0: Species, s1: Species, s2: Species) -> bool {
        self.params.b[s0.index()][s1.index()][s2.index()] != 0.0
    }
}

/// The combined Vashishta potential: pair + triplet terms sharing one
/// parameter set.
#[derive(Debug, Clone)]
pub struct Vashishta {
    /// The 2-body term.
    pub pair: VashishtaPair,
    /// The 3-body term.
    pub triplet: VashishtaTriplet,
}

impl Vashishta {
    /// Builds the combined potential from parameters.
    pub fn new(params: VashishtaParams) -> Self {
        Vashishta {
            pair: VashishtaPair::new(params.clone()),
            triplet: VashishtaTriplet::new(params),
        }
    }

    /// The representative silica-like system of the paper's benchmarks.
    pub fn silica() -> Self {
        Vashishta::new(VashishtaParams::silica())
    }

    /// The parameters (shared by both terms).
    pub fn params(&self) -> &VashishtaParams {
        &self.triplet.params
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fd::assert_forces_match;

    const SI: Species = Species::SI;
    const O: Species = Species::O;

    #[test]
    fn cutoff_ratio_matches_paper() {
        let p = VashishtaParams::silica();
        let ratio = p.rcut3 / p.rcut2;
        assert!((ratio - 0.47).abs() < 0.01, "rcut3/rcut2 = {ratio}, paper says ≈ 0.47");
    }

    #[test]
    fn pair_energy_shifted_to_zero_at_cutoff() {
        let v = Vashishta::silica();
        for (a, b) in [(SI, SI), (SI, O), (O, O)] {
            let (u, _) = v.pair.eval(a, b, v.pair.cutoff() - 1e-9);
            assert!(u.abs() < 1e-6, "{a:?}-{b:?} pair energy at cutoff: {u}");
        }
    }

    #[test]
    fn si_o_pair_is_binding() {
        let v = Vashishta::silica();
        // Somewhere in the bonding range the Si–O pair energy must be
        // negative (Coulomb attraction beats steric repulsion).
        let found = (80..300).map(|i| i as f64 * 0.01).any(|r| v.pair.eval(SI, O, r).0 < -0.5);
        assert!(found, "Si-O pair never binds — parameters are broken");
        // While O–O is repulsive at short range.
        assert!(v.pair.eval(O, O, 1.5).0 > 0.0);
    }

    /// The textbook form of the unshifted pair term, `powf` and four `exp`s:
    /// the reference the one-pass evaluation is held to. Returns the four
    /// terms of u and of du/dr apart, so a test can scale its tolerance by
    /// the terms a sum cancels.
    fn textbook(p: &VashishtaParams, i: usize, j: usize, r: f64) -> ([f64; 4], [f64; 4]) {
        let qq = p.coulomb_k * p.z[i] * p.z[j];
        let eta = f64::from(p.eta[i][j]);
        let u = [
            p.h[i][j] / r.powf(eta),
            qq * (-r / p.lambda).exp() / r,
            -p.d[i][j] * (-r / p.xi).exp() / r.powi(4),
            -p.w[i][j] / r.powi(6),
        ];
        let du = [
            -eta * p.h[i][j] / r.powf(eta + 1.0),
            qq * (-r / p.lambda).exp() * (-1.0 / (p.lambda * r) - 1.0 / (r * r)),
            p.d[i][j] * (-r / p.xi).exp() * (1.0 / (p.xi * r.powi(4)) + 4.0 / r.powi(5)),
            6.0 * p.w[i][j] / r.powi(7),
        ];
        (u, du)
    }

    #[test]
    fn one_pass_pair_matches_the_textbook_formula() {
        let v = Vashishta::silica();
        let p = v.params();
        // Relative to the magnitudes summed: u and du/dr each cross zero
        // where repulsion and attraction cancel, and there no formula is
        // closer to the exact sum than the terms' own rounding.
        let check = |what: &str, a: Species, b: Species, r: f64, got: f64, terms: [f64; 4]| {
            let want: f64 = terms.iter().sum();
            let rel = (got - want).abs() / terms.iter().map(|t| t.abs()).sum::<f64>();
            assert!(rel <= 1e-13, "{a:?}-{b:?} {what} at r={r}: {got} vs {want} ({rel:.1e})");
        };
        let n = 20_000;
        for (a, b) in [(SI, SI), (SI, O), (O, SI), (O, O)] {
            let (i, j) = (a.index(), b.index());
            for k in 0..=n {
                let r = 0.8 + (p.rcut2 - 0.8) * k as f64 / n as f64;
                let (u, du) = v.pair.raw(i, j, r);
                let (u_ref, du_ref) = textbook(p, i, j, r);
                check("u", a, b, r, u, u_ref);
                check("du/dr", a, b, r, du, du_ref);
            }
        }
    }

    #[test]
    fn pair_forces_match_finite_differences() {
        let v = Vashishta::silica();
        for (a, b) in [(SI, SI), (SI, O), (O, O)] {
            for r in [1.4, 1.62, 2.0, 3.0, 4.5] {
                let pos = vec![sc_geom::Vec3::ZERO, sc_geom::Vec3::new(r, 0.0, 0.0)];
                let d = pos[1] - pos[0];
                let (_, du) = v.pair.eval(a, b, d.norm());
                let f1 = -(du / d.norm()) * d;
                assert_forces_match(&pos, &[-f1, f1], 1e-6, 1e-5, |p| {
                    v.pair.eval(a, b, (p[1] - p[0]).norm()).0
                });
            }
        }
    }

    #[test]
    fn triplet_applies_only_to_bonded_combinations() {
        let v = Vashishta::silica();
        assert!(v.triplet.applies(O, SI, O));
        assert!(v.triplet.applies(SI, O, SI));
        assert!(!v.triplet.applies(SI, SI, SI));
        assert!(!v.triplet.applies(O, O, O));
        assert!(!v.triplet.applies(SI, SI, O));
    }

    #[test]
    fn triplet_energy_zero_at_preferred_angle() {
        let v = Vashishta::silica();
        // O-Si-O at exactly the tetrahedral angle: cosθ = −1/3 ⇒ U = 0,
        // and the angular force component vanishes.
        let ra = 1.6;
        let cos0: f64 = -1.0 / 3.0;
        let sin0 = (1.0 - cos0 * cos0).sqrt();
        let d10 = sc_geom::Vec3::new(ra, 0.0, 0.0);
        let d12 = sc_geom::Vec3::new(ra * cos0, ra * sin0, 0.0);
        let (u, f0, f1, f2) = v.triplet.eval(O, SI, O, d10, d12);
        assert!(u.abs() < 1e-12);
        assert!(f0.norm() < 1e-12 && f1.norm() < 1e-12 && f2.norm() < 1e-12);
    }

    #[test]
    fn triplet_vanishes_at_cutoff() {
        let v = Vashishta::silica();
        let d10 = sc_geom::Vec3::new(2.61, 0.0, 0.0); // beyond rcut3
        let d12 = sc_geom::Vec3::new(0.0, 1.6, 0.0);
        let (u, f0, ..) = v.triplet.eval(O, SI, O, d10, d12);
        assert_eq!(u, 0.0);
        assert_eq!(f0, sc_geom::Vec3::ZERO);
    }

    #[test]
    fn triplet_forces_match_finite_differences() {
        let v = Vashishta::silica();
        // A bent O-Si-O triplet away from the preferred angle.
        let r1 = sc_geom::Vec3::new(0.0, 0.0, 0.0); // Si vertex
        let r0 = sc_geom::Vec3::new(1.55, 0.1, -0.2); // O
        let r2 = sc_geom::Vec3::new(-0.4, 1.5, 0.3); // O
        let pos = vec![r0, r1, r2];
        let (_, f0, f1, f2) = v.triplet.eval(O, SI, O, r0 - r1, r2 - r1);
        assert_forces_match(&pos, &[f0, f1, f2], 1e-6, 1e-5, |p| {
            v.triplet.eval(O, SI, O, p[0] - p[1], p[2] - p[1]).0
        });
    }

    #[test]
    fn triplet_forces_sum_to_zero() {
        let v = Vashishta::silica();
        let d10 = sc_geom::Vec3::new(1.5, 0.3, -0.1);
        let d12 = sc_geom::Vec3::new(-0.2, 1.4, 0.5);
        let (_, f0, f1, f2) = v.triplet.eval(O, SI, O, d10, d12);
        assert!((f0 + f1 + f2).norm() < 1e-12);
    }

    #[test]
    fn combined_accessors() {
        let v = Vashishta::silica();
        assert_eq!(v.params().masses.len(), 2);
        assert!(v.pair.cutoff() > v.triplet.cutoff());
    }
}
