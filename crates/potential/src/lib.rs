//! # sc-potential — many-body interatomic potentials
//!
//! The force fields that drive the n-tuple computation benchmarks:
//!
//! * [`LennardJones`] — the classic pair (n = 2) potential, used by the
//!   LJ scenarios and the pair-only correctness tests.
//! * [`Vashishta`] — a Vashishta-*form* silica (SiO₂) potential with 2-body
//!   (steric repulsion + screened Coulomb + charge–dipole) and 3-body
//!   (bond-bending) terms. This is the paper's benchmark application (§5):
//!   dynamic pair **and** triplet computation with `r_cut3/r_cut2 ≈ 0.47`.
//!   Parameters are representative, not a silica fit — see
//!   [`VashishtaParams`] for the substitution note.
//! * [`StillingerWeber`] — the standard Si potential (2- + 3-body), a second
//!   independent many-body force field.
//! * [`TorsionToy`] — a smooth 4-body chain-alignment potential exercising
//!   the n = 4 enumeration path that reactive force fields (ReaxFF, §1)
//!   motivate.
//!
//! ## Conventions
//!
//! Potentials are pure functions of *minimum-image displacement vectors*
//! supplied by the caller (the MD engine), so they know nothing about
//! periodic boxes or cell lattices. Every `eval` returns the tuple energy
//! together with the analytic force on each participating atom; the test
//! suite verifies each force against central finite differences of the
//! energy, and verifies that each tuple's forces sum to zero (Newton's third
//! law at tuple granularity — the property that makes undirected tuple
//! enumeration valid, paper §2.1).

#![warn(missing_docs)]

mod lj;
mod sw;
mod table;
mod torsion;
mod traits;
mod vashishta;

pub mod fd;

pub use lj::LennardJones;
pub use sw::StillingerWeber;
pub use table::TabulatedPair;
pub use torsion::TorsionToy;
pub use traits::{NBodyTerm, PairPotential, QuadrupletPotential, TripletPotential};
pub use vashishta::{Vashishta, VashishtaPair, VashishtaParams, VashishtaTriplet};
