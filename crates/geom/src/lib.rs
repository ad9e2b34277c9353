//! Geometry substrate for the shift-collapse MD stack.
//!
//! This crate provides the small, dependency-free building blocks every other
//! crate in the workspace leans on:
//!
//! * [`Vec3`] — a 3-component `f64` vector with the usual arithmetic,
//!   dot/cross products, and norms. Atom positions, velocities, and forces
//!   are all `Vec3`s.
//! * [`IVec3`] — a 3-component `i32` vector used for *cell indices* and
//!   *cell offsets*. The computation-pattern algebra of the paper
//!   (Kunaseth et al., SC'13) is entirely integer-vector arithmetic over the
//!   cell lattice `L`, so `IVec3` is the atom of that algebra.
//! * [`SimulationBox`] — an orthorhombic periodic simulation volume with
//!   position wrapping and minimum-image displacement.
//! * [`CellRegion`] — a half-open axis-aligned box of integer cell indices,
//!   used for domain decomposition and import-volume bookkeeping.
//!
//! # Conventions
//!
//! * Cartesian axes are indexed `0 = x`, `1 = y`, `2 = z` everywhere.
//! * Periodic wrapping follows the paper's cell-offset operation
//!   `q'_α = (q_α + Δ_α) % L_α` (Euclidean modulo, always non-negative).

#![warn(missing_docs)]

mod ivec3;
mod pbc;
mod region;
mod vec3;

pub use ivec3::IVec3;
pub use pbc::SimulationBox;
pub use region::CellRegion;
pub use vec3::Vec3;
