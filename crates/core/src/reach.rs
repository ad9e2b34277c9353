//! Generalized patterns for cells smaller than the cutoff (paper §6).
//!
//! The body of the paper assumes cell edges ≥ `r_cut-n`, so consecutive
//! tuple atoms always sit in 27-neighbourhood cells. The conclusion notes
//! that "it is straightforward to generalize the SC algorithm to a cell
//! size less than r_cut-n as was done, e.g., in the midpoint method — in
//! this case, the SC algorithm improves the midpoint method by further
//! eliminating redundant searches." This module is that generalization:
//!
//! With cell edge ≥ `r_cut / k`, two atoms within the cutoff are at most
//! `k` cells apart per axis, so the full-shell walk steps through the
//! `(2k+1)³`-cell **reach-k neighbourhood** instead of the 27-cell one.
//! `OC-SHIFT` and `R-COLLAPSE` apply verbatim — they never look at the step
//! length — so the whole SC pipeline, its completeness proof, and its
//! `≈ ½` collapse factor carry over.
//!
//! Why bother: per-cell density scales as `ρ·(r_cut/k)³`, so a reach-k
//! triplet search examines `|Ψ(k)|·(ρ_cell)³ ∝ (2k+1)⁶ / k⁹` candidates per
//! atom — smaller cells prune the search volume faster than the pattern
//! grows, at the price of more cells and more pattern paths. The
//! `cell_subdivision` benchmark quantifies the trade-off.

use crate::{oc_shift, r_collapse, Path, Pattern};
use sc_geom::IVec3;

/// `GENERATE-FS(n, k)`: every walk `(v0…v_{n-1})` with `v0 = 0` and
/// `‖v_{i+1} − v_i‖_∞ ≤ k` — the reach-k full shell, n-complete for cell
/// edges ≥ `r_cut-n / k` by the same induction as Lemma 1.
///
/// `generate_fs_reach(n, 1)` ≡ `generate_fs(n)`.
///
/// # Panics
/// Panics for `n < 2`, `k < 1`, or pattern sizes beyond practical memory
/// (`(2k+1)^{3(n-1)} > 10⁷`).
pub fn generate_fs_reach(n: usize, k: i32) -> Pattern {
    assert!(n >= 2, "need n ≥ 2, got {n}");
    assert!(k >= 1, "need reach ≥ 1, got {k}");
    let step_count = (2 * k + 1).pow(3) as u64;
    let total = step_count.pow(n as u32 - 1);
    assert!(
        total <= 10_000_000,
        "reach-{k} FS({n}) would have {total} paths; that is beyond practical use"
    );
    let steps: Vec<IVec3> = IVec3::box_iter(IVec3::splat(-k), IVec3::splat(k)).collect();
    let mut walks: Vec<Vec<IVec3>> = vec![vec![IVec3::ZERO]];
    for _ in 1..n {
        let mut next = Vec::with_capacity(walks.len() * steps.len());
        for w in &walks {
            let last = *w.last().expect("walks are non-empty");
            for &d in &steps {
                let mut w2 = w.clone();
                w2.push(last + d);
                next.push(w2);
            }
        }
        walks = next;
    }
    Pattern::new(walks.into_iter().map(Path::new).collect())
}

/// The reach-k shift-collapse pattern: `R-COLLAPSE(OC-SHIFT(FS(n, k)))`.
/// Complete for cell edges ≥ `r_cut-n / k`, first-octant coverage within
/// `[0, k(n-1)]³`, and ≈ half the search cost of the reach-k full shell.
pub fn shift_collapse_reach(n: usize, k: i32) -> Pattern {
    r_collapse(&oc_shift(&generate_fs_reach(n, k)))
}

/// Closed-form counts for reach-k patterns — the Eq. 25/27/29 family with
/// 27 replaced by `(2k+1)³`.
pub mod reach_theory {
    /// `|Ψ_FS(n, k)| = ((2k+1)³)^{n-1}`.
    pub fn fs_path_count(n: usize, k: u32) -> u64 {
        assert!(n >= 2 && k >= 1);
        let b = (2 * k as u64 + 1).pow(3);
        b.pow(n as u32 - 1)
    }

    /// Self-reflective walk count: `((2k+1)³)^{⌊(n-1)/2⌋}`.
    pub fn self_reflective_count(n: usize, k: u32) -> u64 {
        assert!(n >= 2 && k >= 1);
        let b = (2 * k as u64 + 1).pow(3);
        b.pow(((n - 1) / 2) as u32)
    }

    /// `|Ψ_SC(n, k)| = (|Ψ_FS| + s)/2`.
    pub fn sc_path_count(n: usize, k: u32) -> u64 {
        (fs_path_count(n, k) + self_reflective_count(n, k)) / 2
    }

    /// Reach-k SC import volume for a cubic domain of `l` cells:
    /// `(l + k(n−1))³ − l³` — Eq. 33 with the octant depth scaled by k.
    pub fn sc_import_volume(l: u64, n: usize, k: u64) -> u64 {
        assert!(n >= 2 && k >= 1);
        let d = k * (n as u64 - 1);
        (l + d).pow(3) - l.pow(3)
    }

    /// Relative candidate volume of a reach-k n-tuple cell search versus
    /// reach-1, at equal atom density: `(|Ψ(k)|/|Ψ(1)|)·(ρ_cell(k)/ρ_cell(1))ⁿ
    /// · (cells(k)/cells(1)) = (2k+1)^{3(n-1)} / k^{3n} · k³ /
    /// 27^{n-1}` — the §6 trade-off in one number (< 1 means the smaller
    /// cells win).
    pub fn search_volume_ratio(n: usize, k: u32) -> f64 {
        let k = k as f64;
        let num = (2.0 * k + 1.0).powi(3 * (n as i32 - 1));
        let den = 27f64.powi(n as i32 - 1);
        // cells scale as k³, per-cell density as k⁻³, candidates per cell
        // as ρ_cellⁿ → net k^{3 - 3n}.
        (num / den) * k.powi(3 - 3 * n as i32)
    }
}

#[cfg(test)]
mod tests {
    use super::reach_theory as rt;
    use super::*;
    use crate::{chain_complete_reach, theory};

    #[test]
    fn reach1_reduces_to_classic() {
        // Reach 1 is the paper's 27-neighbour walk: the Eq. 25/27/29 counts.
        for n in 2..=4 {
            let (fs, sc) = (generate_fs_reach(n, 1), shift_collapse_reach(n, 1));
            assert_eq!(fs.len() as u64, theory::fs_path_count(n), "FS n={n}");
            assert_eq!(sc.len() as u64, theory::sc_path_count(n), "SC n={n}");
            assert_eq!(sc.self_reflective_count() as u64, theory::self_reflective_count(n));
        }
    }

    #[test]
    fn counts_match_reach_theory() {
        for (n, k) in [(2usize, 1u32), (2, 2), (2, 3), (3, 1), (3, 2)] {
            let fs = generate_fs_reach(n, k as i32);
            let sc = shift_collapse_reach(n, k as i32);
            assert_eq!(fs.len() as u64, rt::fs_path_count(n, k), "FS n={n} k={k}");
            assert_eq!(sc.len() as u64, rt::sc_path_count(n, k), "SC n={n} k={k}");
            assert_eq!(
                sc.self_reflective_count() as u64,
                rt::self_reflective_count(n, k),
                "self-reflective n={n} k={k}"
            );
        }
    }

    #[test]
    fn reach2_pair_counts() {
        // (2·2+1)³ = 125 steps: FS 125 paths, SC (125+1)/2 = 63.
        assert_eq!(generate_fs_reach(2, 2).len(), 125);
        assert_eq!(shift_collapse_reach(2, 2).len(), 63);
    }

    #[test]
    fn reach_k_sc_is_first_octant_with_scaled_coverage() {
        let sc = shift_collapse_reach(3, 2);
        assert!(sc.is_first_octant());
        let (lo, hi) = sc.coverage_bounds();
        assert_eq!(lo, IVec3::ZERO);
        // Coverage within [0, k(n−1)]³ = [0, 4]³.
        assert!(hi.linf_norm() <= 4);
    }

    #[test]
    fn reach_import_volume_matches_formula() {
        use crate::import_volume_cubic;
        for k in 1..=2u32 {
            let sc = shift_collapse_reach(2, k as i32);
            for l in 1..=4 {
                assert_eq!(
                    import_volume_cubic(l, &sc),
                    rt::sc_import_volume(l as u64, 2, k as u64),
                    "l={l}, k={k}"
                );
            }
        }
    }

    #[test]
    fn reach_k_patterns_are_chain_complete() {
        // Completeness at the reach-k chain level: every walk whose steps
        // have L∞ ≤ k must be generated.
        for (n, k) in [(2usize, 2i32), (3, 2)] {
            let sc = shift_collapse_reach(n, k);
            let dims = IVec3::splat(((n as i32 - 1) * k + 1).max(5));
            assert!(chain_complete_reach(dims, &sc, k), "n={n}, k={k}");
        }
    }

    #[test]
    fn search_volume_ratio_favors_subdivision_for_triplets() {
        // For n = 3, k = 2: (125/27)² · 2⁻⁶ = 21.4/64 ≈ 0.335 — smaller
        // cells cut the triplet candidate volume by ~3×.
        let r = rt::search_volume_ratio(3, 2);
        assert!((r - (125.0f64 / 27.0).powi(2) / 64.0).abs() < 1e-12);
        assert!(r < 0.5);
        // For pairs the win is milder: 125/27 / 8 ≈ 0.58.
        let r2 = rt::search_volume_ratio(2, 2);
        assert!((0.5..0.7).contains(&r2));
    }

    #[test]
    #[should_panic]
    fn oversized_reach_rejected() {
        let _ = generate_fs_reach(4, 4);
    }
}
