//! Shared helpers for the sc-bench harness: workload builders and table
//! formatting used by the per-figure binaries.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use sc_cell::{AtomStore, Species};
use sc_geom::{SimulationBox, Vec3};

/// Builds a uniform random gas with an exact average cell density: a cubic
/// lattice of `cells_per_axis³` cells of edge `cell_edge`, holding
/// `round(rho_cell · cells³)` atoms — the workload of the paper's Fig. 7
/// ("the average cell density ⟨ρcell⟩ is fixed for each measurement").
pub fn fixed_density_gas(
    cells_per_axis: usize,
    cell_edge: f64,
    rho_cell: f64,
    seed: u64,
) -> (AtomStore, SimulationBox) {
    assert!(cells_per_axis >= 3);
    let box_l = cells_per_axis as f64 * cell_edge;
    let n = (rho_cell * (cells_per_axis as f64).powi(3)).round() as usize;
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let bbox = SimulationBox::cubic(box_l);
    let mut store = AtomStore::single_species();
    for id in 0..n {
        let r = Vec3::new(
            rng.gen_range(0.0..box_l),
            rng.gen_range(0.0..box_l),
            rng.gen_range(0.0..box_l),
        );
        store.push(id as u64, Species::DEFAULT, r, Vec3::ZERO);
    }
    (store, bbox)
}

/// Formats a duration in engineering units for the report tables.
pub fn fmt_time(seconds: f64) -> String {
    if seconds < 1e-3 {
        format!("{:8.1} µs", seconds * 1e6)
    } else if seconds < 1.0 {
        format!("{:8.2} ms", seconds * 1e3)
    } else {
        format!("{:8.3} s ", seconds)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_density_gas_hits_target_density() {
        let (store, bbox) = fixed_density_gas(6, 1.0, 2.5, 3);
        assert_eq!(store.len(), (2.5f64 * 216.0).round() as usize);
        assert!((bbox.lengths().x - 6.0).abs() < 1e-12);
    }

    #[test]
    fn time_formatting() {
        assert!(fmt_time(5e-5).contains("µs"));
        assert!(fmt_time(5e-3).contains("ms"));
        assert!(fmt_time(2.0).contains("s"));
    }
}
