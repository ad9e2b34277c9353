//! The Berendsen thermostat's velocity scale factor. Ranks integrate
//! velocity Verlet themselves (`sc-parallel`'s `RankState::vv_start` /
//! `vv_finish`), and the engine rescales every rank by this factor of the
//! global temperature.

/// The Berendsen velocity scale factor `λ = √(1 + (dt/τ)·(T₀/T − 1))` that
/// moves temperature `t` toward `t_target`; 1 for a system at rest.
pub fn berendsen_factor(t: f64, t_target: f64, dt_over_tau: f64) -> f64 {
    if t <= 0.0 {
        return 1.0;
    }
    (1.0 + dt_over_tau * (t_target / t - 1.0)).max(0.0).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sc_cell::{AtomStore, Species};
    use sc_geom::Vec3;

    fn rescale(store: &mut AtomStore, target: f64, dt_over_tau: f64) {
        let lambda = berendsen_factor(store.temperature(), target, dt_over_tau);
        store.velocities_mut().iter_mut().for_each(|v| *v *= lambda);
    }

    #[test]
    fn berendsen_moves_temperature_toward_target() {
        let mut store = AtomStore::single_species();
        let mut push = |i: u64, v: Vec3| store.push(i, Species::DEFAULT, Vec3::ZERO, v);
        push(0, Vec3::new(1.0, 0.0, 0.0));
        push(1, Vec3::new(-1.0, 2.0, 0.0));
        push(2, Vec3::new(0.0, -2.0, 3.0));
        push(3, Vec3::new(0.0, 0.0, -3.0));
        let t0 = store.temperature();
        let target = t0 * 4.0;
        rescale(&mut store, target, 0.5);
        let t1 = store.temperature();
        assert!(t1 > t0 && t1 < target, "t0={t0}, t1={t1}, target={target}");
        // Full coupling reaches the target exactly.
        rescale(&mut store, target, 1.0);
        assert!((store.temperature() - target).abs() < 1e-10);
    }
}
