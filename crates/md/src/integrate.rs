//! Time integration: velocity Verlet and a Berendsen-style thermostat.

use sc_cell::AtomStore;
use sc_geom::SimulationBox;

/// One velocity-Verlet step, split for force recomputation in the middle:
///
/// this function performs the **first half** — half-kick + drift — leaving
/// the caller to recompute forces at the new positions and then call
/// [`velocity_verlet_finish`] for the second half-kick. Positions are
/// wrapped back into the periodic box after the drift.
pub fn velocity_verlet_start(store: &mut AtomStore, bbox: &SimulationBox, dt: f64) {
    let n = store.len();
    for i in 0..n {
        let m = store.mass(i as u32);
        let a = store.forces()[i] / m;
        store.velocities_mut()[i] += a * (0.5 * dt);
        let v = store.velocities()[i];
        store.positions_mut()[i] += v * dt;
    }
    store.wrap_positions(bbox);
}

/// The second velocity-Verlet half-kick, using the freshly computed forces.
pub fn velocity_verlet_finish(store: &mut AtomStore, dt: f64) {
    let n = store.len();
    for i in 0..n {
        let m = store.mass(i as u32);
        let a = store.forces()[i] / m;
        store.velocities_mut()[i] += a * (0.5 * dt);
    }
}

/// A convenience whole step for callers that recompute forces via a closure:
/// half-kick, drift, `recompute_forces`, half-kick.
pub fn velocity_verlet_step(
    store: &mut AtomStore,
    bbox: &SimulationBox,
    dt: f64,
    recompute_forces: impl FnOnce(&mut AtomStore),
) {
    velocity_verlet_start(store, bbox, dt);
    store.zero_forces();
    recompute_forces(store);
    velocity_verlet_finish(store, dt);
}

/// Berendsen weak-coupling velocity rescale toward `t_target` with coupling
/// ratio `dt / tau` (0 = no coupling, 1 = instantaneous rescale).
pub fn berendsen_rescale(store: &mut AtomStore, t_target: f64, dt_over_tau: f64) {
    let lambda = berendsen_factor(store.temperature(), t_target, dt_over_tau);
    for v in store.velocities_mut() {
        *v *= lambda;
    }
}

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
    use sc_cell::Species;
    use sc_geom::Vec3;

    /// Harmonic oscillator via a force closure: a particle tethered to the
    /// box centre. Velocity Verlet must conserve energy to O(dt²).
    #[test]
    fn verlet_conserves_harmonic_energy() {
        let bbox = SimulationBox::cubic(100.0);
        let centre = Vec3::splat(50.0);
        let k = 1.0;
        let mut store = AtomStore::single_species();
        store.push(0, Species::DEFAULT, centre + Vec3::new(1.0, 0.0, 0.0), Vec3::ZERO);
        let spring = |s: &mut AtomStore| {
            let d = s.positions()[0] - centre;
            s.forces_mut()[0] = -d * k;
        };
        // Prime forces.
        spring(&mut store);
        let energy =
            |s: &AtomStore| s.kinetic_energy() + 0.5 * k * (s.positions()[0] - centre).norm_sq();
        let e0 = energy(&store);
        let dt = 0.01;
        for _ in 0..10_000 {
            velocity_verlet_step(&mut store, &bbox, dt, spring);
        }
        let e1 = energy(&store);
        assert!(((e1 - e0) / e0).abs() < 1e-4, "harmonic energy drift: {e0} → {e1}");
        // And the oscillator actually oscillates (period 2π, 100 s ≈ 15.9 periods).
        assert!((store.positions()[0] - centre).norm() <= 1.0 + 1e-6);
    }

    #[test]
    fn free_particle_moves_ballistically() {
        let bbox = SimulationBox::cubic(10.0);
        let mut store = AtomStore::single_species();
        store.push(0, Species::DEFAULT, Vec3::splat(5.0), Vec3::new(1.0, 0.0, 0.0));
        for _ in 0..100 {
            velocity_verlet_step(&mut store, &bbox, 0.01, |_| {});
        }
        // Travelled 1.0 in x.
        assert!((store.positions()[0].x - 6.0).abs() < 1e-9);
    }

    #[test]
    fn drift_wraps_positions() {
        let bbox = SimulationBox::cubic(10.0);
        let mut store = AtomStore::single_species();
        store.push(0, Species::DEFAULT, Vec3::new(9.95, 5.0, 5.0), Vec3::new(10.0, 0.0, 0.0));
        velocity_verlet_step(&mut store, &bbox, 0.01, |_| {});
        assert!(bbox.contains(store.positions()[0]));
        assert!(store.positions()[0].x < 1.0);
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
        berendsen_rescale(&mut store, target, 0.5);
        let t1 = store.temperature();
        assert!(t1 > t0 && t1 < target, "t0={t0}, t1={t1}, target={target}");
        // Full coupling reaches the target exactly.
        berendsen_rescale(&mut store, target, 1.0);
        assert!((store.temperature() - target).abs() < 1e-10);
    }
}
