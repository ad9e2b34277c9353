//! The shift-collapse algorithm and the classical shell patterns.
//!
//! `SC(n) = R-COLLAPSE(OC-SHIFT(GENERATE-FS(n)))` (paper Tables 2–5), plus
//! the pair-computation special cases of §4.3: full shell (27 paths), half
//! shell (14), and eighth shell (14 paths compressed into the first octant).

use crate::{Path, Pattern};
use sc_geom::IVec3;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// `GENERATE-FS(n)` (paper Table 3): the full-shell pattern — every walk
/// `(v0, …, v_{n-1})` with `v0 = 0` and `v_{k+1}` a (26+self)-neighbour of
/// `v_k`. Contains exactly `27^{n-1}` paths and is n-complete by construction
/// (Lemma 1). It is the reach-1 case of [`crate::generate_fs_reach`].
///
/// # Panics
/// Panics if `n < 2` or if `27^{n-1}` would overflow practical memory
/// (`n > 5`).
pub fn generate_fs(n: usize) -> Pattern {
    crate::generate_fs_reach(n, 1)
}

/// `OC-SHIFT` (paper Table 4): octant compression. Every path is translated
/// so its bounding-box minimum corner sits at the origin; by path-shift
/// invariance (Theorem 1) the generated force set is unchanged, but the
/// pattern's cell coverage collapses into the first octant `[0, n-1]³`,
/// which is what reduces the parallel import volume to Eq. 33.
pub fn oc_shift(pattern: &Pattern) -> Pattern {
    Pattern::new(pattern.iter().map(Path::octant_compressed).collect())
}

/// `R-COLLAPSE` (paper Table 5): removes one path of every reflective twin
/// pair `σ(p') = σ(p⁻¹)` (Lemma 3 proves twins generate identical force
/// sets; Lemma 6 proves each path has exactly one twin). Self-reflective
/// paths (`p` its own twin, Corollary 1) are kept.
///
/// The published pseudocode is the O(|Ψ|²) doubly-nested loop; we key a hash
/// map by the lexicographic minimum of `{σ(p), σ(p⁻¹)}`, which is the same
/// collapse in O(|Ψ|). Within each twin pair we keep the path whose σ is the
/// lexicographic *maximum* — for pairs this retains the upper (positive)
/// half-shell directions, matching the classical half-shell convention and
/// the paper's Fig. 6(b). Which twin is kept does not affect the force set
/// (Lemma 3) or any count; it only fixes a convention.
pub fn r_collapse(pattern: &Pattern) -> Pattern {
    // Index of the kept path per equivalence class, replaced when a path
    // with the canonical (σ = max) orientation shows up.
    let mut by_class: HashMap<Vec<IVec3>, usize> = HashMap::with_capacity(pattern.len());
    let mut kept: Vec<Path> = Vec::with_capacity(pattern.len() / 2 + 1);
    for p in pattern.iter() {
        let s = p.sigma();
        let r = p.inverse().sigma();
        let canonical = s >= r;
        let key = if s <= r { s } else { r };
        match by_class.get(&key) {
            None => {
                by_class.insert(key, kept.len());
                kept.push(p.clone());
            }
            Some(&i) => {
                if canonical {
                    kept[i] = p.clone();
                }
            }
        }
    }
    Pattern::new(kept)
}

/// The shift-collapse pattern `Ψ_SC(n)` (paper Table 2): full-shell
/// generation, octant compression, reflective collapse. n-complete
/// (Theorem 2), first-octant coverage, and roughly half the search cost of
/// full shell (Eq. 29).
pub fn shift_collapse(n: usize) -> Pattern {
    r_collapse(&oc_shift(&generate_fs(n)))
}

/// The full-shell pair pattern `Ψ_FS(2)` — 27 paths (paper §4.3.1). Alias of
/// `generate_fs(2)` for discoverability next to [`half_shell`] and
/// [`eighth_shell`].
pub fn full_shell() -> Pattern {
    generate_fs(2)
}

/// The half-shell pair pattern `Ψ_HS = R-COLLAPSE(Ψ_FS(2))` — 14 paths
/// (paper §4.3.2). Exploits Newton's third law to halve the pair search.
pub fn half_shell() -> Pattern {
    r_collapse(&generate_fs(2))
}

/// The eighth-shell pair pattern `Ψ_ES = OC-SHIFT(Ψ_HS)` — 14 paths whose
/// coverage is the 8-cell first octant (7 imported neighbour cells), the
/// minimum-import pair method of Bowers et al. (paper §4.3.3). Identical
/// force set to [`shift_collapse`]`(2)`.
pub fn eighth_shell() -> Pattern {
    oc_shift(&half_shell())
}

/// The cell-method family a simulation driver can pick from; maps each name
/// to its constructive pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PatternKind {
    /// Full shell: complete, redundant, widest import.
    FullShell,
    /// Half shell: pair-only classical redundancy removal (for n > 2 this is
    /// `R-COLLAPSE(FS(n))` without octant compression).
    HalfShell,
    /// Eighth shell / shift-collapse: redundancy-free, first-octant imports.
    ShiftCollapse,
}

impl PatternKind {
    /// Builds the pattern of this kind for tuple order n.
    pub fn build(self, n: usize) -> Pattern {
        match self {
            PatternKind::FullShell => generate_fs(n),
            PatternKind::HalfShell => r_collapse(&generate_fs(n)),
            PatternKind::ShiftCollapse => shift_collapse(n),
        }
    }

    /// Human-readable name matching the paper's terminology.
    pub fn name(self) -> &'static str {
        match self {
            PatternKind::FullShell => "FS",
            PatternKind::HalfShell => "HS",
            PatternKind::ShiftCollapse => "SC",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::theory;

    #[test]
    fn fs_counts_match_eq25() {
        for n in 2..=5 {
            let fs = generate_fs(n);
            assert_eq!(fs.len() as u64, theory::fs_path_count(n), "n={n}");
            assert_eq!(fs.n(), n);
            // Every FS path is an origin-anchored neighbour walk.
            assert!(fs.iter().all(|p| p.offset(0) == IVec3::ZERO && p.is_neighbor_walk()));
        }
    }

    #[test]
    fn fs_paths_are_distinct() {
        let fs = generate_fs(3);
        let set: std::collections::HashSet<_> = fs.iter().cloned().collect();
        assert_eq!(set.len(), fs.len());
    }

    #[test]
    fn oc_shift_preserves_sigma_and_count() {
        let fs = generate_fs(3);
        let oc = oc_shift(&fs);
        assert_eq!(oc.len(), fs.len());
        assert!(oc.is_first_octant());
        // Coverage fits inside [0, n-1]³ (paper §4.2).
        let (lo, hi) = oc.coverage_bounds();
        assert_eq!(lo, IVec3::ZERO);
        assert!(hi.linf_norm() <= 2);
        // σ preserved path-by-path.
        for (a, b) in fs.iter().zip(oc.iter()) {
            assert_eq!(a.sigma(), b.sigma());
        }
    }

    #[test]
    fn r_collapse_counts_match_eq29() {
        for n in 2..=5 {
            let sc = shift_collapse(n);
            assert_eq!(sc.len() as u64, theory::sc_path_count(n), "n={n}");
            // Self-reflective (non-collapsible) path count matches Eq. 27
            // (corrected exponent — see crate docs).
            assert_eq!(
                sc.self_reflective_count() as u64,
                theory::self_reflective_count(n),
                "n={n}"
            );
        }
    }

    #[test]
    fn r_collapse_leaves_no_twins() {
        for n in 2..=3 {
            let sc = shift_collapse(n);
            for (i, p) in sc.iter().enumerate() {
                for (j, q) in sc.iter().enumerate() {
                    if i < j {
                        assert!(
                            !p.is_equivalent(q),
                            "paths {i} and {j} of SC({n}) are equivalent: {p} ~ {q}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn sc_covers_every_fs_equivalence_class() {
        // Every FS path must be equivalent to some retained SC path —
        // otherwise R-COLLAPSE dropped a class and completeness would break.
        for n in 2..=3 {
            let fs = generate_fs(n);
            let sc = shift_collapse(n);
            for p in fs.iter() {
                assert!(sc.iter().any(|q| q.is_equivalent(p)), "FS({n}) path {p} lost by SC");
            }
        }
    }

    #[test]
    fn classical_shell_sizes() {
        assert_eq!(full_shell().len(), 27);
        assert_eq!(half_shell().len(), 14);
        let es = eighth_shell();
        assert_eq!(es.len(), 14);
        assert!(es.is_first_octant());
        // ES coverage is the 8-cell first octant; 7 cells are imports.
        assert_eq!(es.footprint(), 8);
        assert_eq!(es.import_offsets().len(), 7);
    }

    #[test]
    fn es_equals_sc2_up_to_path_translation() {
        // §4.3.3: ES is the SC algorithm specialised to n = 2. The two
        // constructions may anchor paths differently, but the multiset of
        // equivalence classes must coincide.
        let es = eighth_shell().canonicalized();
        let sc2 = shift_collapse(2).canonicalized();
        assert_eq!(es.len(), sc2.len());
        for p in es.iter() {
            assert!(sc2.iter().any(|q| q.is_equivalent(p)));
        }
    }

    #[test]
    fn pattern_kind_roundtrip() {
        assert_eq!(PatternKind::FullShell.build(2).len(), 27);
        assert_eq!(PatternKind::HalfShell.build(2).len(), 14);
        assert_eq!(PatternKind::ShiftCollapse.build(2).len(), 14);
        assert_eq!(PatternKind::ShiftCollapse.name(), "SC");
    }

    #[test]
    fn hs_is_not_octant_compressed_but_es_is() {
        assert!(!half_shell().is_first_octant());
        assert!(eighth_shell().is_first_octant());
    }

    #[test]
    #[should_panic]
    fn n_below_2_rejected() {
        let _ = generate_fs(1);
    }
}
