//! Apply: from a found tuple to energy, virial and forces.
//!
//! The force engine is three steps. *Search* finds the tuples — the cell
//! visitors of [`engine`] for SC-MD / FS-MD, the [`NeighborList`] walkers
//! for Hybrid-MD. *Apply* — this module — looks up the species, evaluates
//! the potential and accumulates the result, once per tuple order, into a
//! [`ForceAccumulator`]. A [`Term`] joins the two: [`Term::sweep`] runs a
//! cell search and [`Term::walk`] a list walk, each applying every tuple it
//! finds. The ranks of `sc-parallel`'s one engine drive their force
//! computation through these.

use crate::engine::{self, ChainSweep, PatternPlan, TupleSource, VisitStats};
use crate::methods::{Method, NeighborList};
use crate::par::ForceAccumulator;
use crate::stats::{EnergyBreakdown, TupleCounts};
use sc_cell::Species;
use sc_geom::{IVec3, Vec3};
use sc_potential::{PairPotential, QuadrupletPotential, TripletPotential};

/// The force-field configuration of a run: its potential terms and the
/// n-tuple search method. Immutable during a run; every rank of a
/// distributed run evaluates the same one.
pub struct ForceField {
    /// Pair term.
    pub pair: Option<Box<dyn PairPotential>>,
    /// Triplet term.
    pub triplet: Option<Box<dyn TripletPotential>>,
    /// Quadruplet term.
    pub quadruplet: Option<Box<dyn QuadrupletPotential>>,
    /// n-tuple search method.
    pub method: Method,
}

impl ForceField {
    /// The active terms, in ascending n.
    pub fn active(&self) -> impl Iterator<Item = Term<'_>> {
        (2..=4).filter_map(|n| self.term(n))
    }

    /// Active `(n, cutoff)` pairs, in ascending n.
    pub fn terms(&self) -> Vec<(usize, f64)> {
        self.active().map(|t| (t.n(), t.cutoff())).collect()
    }

    /// The order-`n` term, if the force field has one.
    pub fn term(&self, n: usize) -> Option<Term<'_>> {
        match n {
            2 => self.pair.as_deref().map(Term::Pair),
            3 => self.triplet.as_deref().map(Term::Triplet),
            4 => self.quadruplet.as_deref().map(Term::Quadruplet),
            _ => None,
        }
    }
}

/// One n-body term of a force field.
#[derive(Clone, Copy)]
pub enum Term<'a> {
    /// n = 2.
    Pair(&'a dyn PairPotential),
    /// n = 3.
    Triplet(&'a dyn TripletPotential),
    /// n = 4.
    Quadruplet(&'a dyn QuadrupletPotential),
}

impl Term<'_> {
    /// The tuple order n.
    pub fn n(&self) -> usize {
        match self {
            Term::Pair(_) => 2,
            Term::Triplet(_) => 3,
            Term::Quadruplet(_) => 4,
        }
    }

    /// The chain cutoff `r_cut-n`.
    pub fn cutoff(&self) -> f64 {
        match self {
            Term::Pair(p) => p.cutoff(),
            Term::Triplet(t) => t.cutoff(),
            Term::Quadruplet(q) => q.cutoff(),
        }
    }

    /// Cell search + apply: enumerates this term's tuples from every base
    /// cell of `cells` (in order) with the order-n `plan` and accumulates
    /// them into `acc`, search statistics included.
    pub fn sweep(
        self,
        src: &impl TupleSource,
        plan: &PatternPlan,
        cells: impl IntoIterator<Item = IVec3>,
        species: &[Species],
        acc: &mut ForceAccumulator,
    ) {
        let rcut = self.cutoff();
        match self {
            Term::Pair(pot) => {
                for q in cells {
                    let stats =
                        engine::visit_pairs_in_cell_src(src, plan, rcut, q, |i, j, d, r| {
                            apply_pair(pot, species, acc, i, j, d, r)
                        });
                    acc.stats.merge(stats);
                }
            }
            Term::Triplet(pot) => sweep_chains(src, plan, rcut, cells, acc, |acc, ids, d| {
                apply_triplet(pot, species, acc, [ids[0], ids[1], ids[2]], d[0], d[1])
            }),
            Term::Quadruplet(pot) => sweep_chains(src, plan, rcut, cells, acc, |acc, ids, d| {
                let ids = [ids[0], ids[1], ids[2], ids[3]];
                apply_quadruplet(pot, species, acc, ids, d[0], d[1], d[2])
            }),
        }
    }

    /// List walk + apply: prunes this term's tuples out of the pair `list`
    /// and accumulates them into `acc`. `owns_bond` settles which directed
    /// entry of a pair (n = 2) or centre bond (n = 4) computes it; see
    /// [`NeighborList::visit_pairs`]. Returns the walk's search statistics.
    pub fn walk(
        self,
        list: &NeighborList,
        owns_bond: impl Fn(u32, u32) -> bool,
        species: &[Species],
        acc: &mut ForceAccumulator,
    ) -> VisitStats {
        let rcut = self.cutoff();
        match self {
            Term::Pair(pot) => list.visit_pairs(rcut, owns_bond, |i, j, d, r| {
                apply_pair(pot, species, acc, i, j, d, r)
            }),
            Term::Triplet(pot) => list.visit_triplets(rcut, |i0, i1, i2, d01, d12| {
                apply_triplet(pot, species, acc, [i0, i1, i2], d01, d12)
            }),
            Term::Quadruplet(pot) => {
                list.visit_quadruplets(rcut, owns_bond, |ids, d01, d12, d23| {
                    apply_quadruplet(pot, species, acc, ids, d01, d12, d23)
                })
            }
        }
    }
}

/// One [`ChainSweep`] over `cells`, its link rows borrowed from `acc` — the
/// accumulator the chains are applied to — for the length of the call.
fn sweep_chains(
    src: &impl TupleSource,
    plan: &PatternPlan,
    rcut: f64,
    cells: impl IntoIterator<Item = IVec3>,
    acc: &mut ForceAccumulator,
    mut apply: impl FnMut(&mut ForceAccumulator, &[u32], &[Vec3]),
) {
    let mut rows = std::mem::take(&mut acc.links);
    let mut sweep = ChainSweep::new(src, plan, rcut, &mut rows);
    for q in cells {
        let stats = sweep.visit_cell(q, |ids, d| apply(acc, ids, d));
        acc.stats.merge(stats);
    }
    acc.links = rows;
}

/// Applies one pair `(i, j)` with displacement `d = r_j − r_i`, `r = |d|`.
#[inline]
pub fn apply_pair(
    pot: &dyn PairPotential,
    species: &[Species],
    acc: &mut ForceAccumulator,
    i: u32,
    j: u32,
    d: Vec3,
    r: f64,
) {
    let (si, sj) = (species[i as usize], species[j as usize]);
    if !pot.applies(si, sj) {
        return;
    }
    let (u, du) = pot.eval(si, sj, r);
    acc.energy += u;
    let fj = d * (-(du / r));
    // Pair virial: d · f_j = −du·r.
    acc.virial += d.dot(fj);
    acc.add(j, fj);
    acc.sub(i, fj);
}

/// Applies one chain triplet `(i0, i1, i2)` (vertex `i1`) with link
/// displacements `d01 = r1 − r0`, `d12 = r2 − r1`.
#[inline]
pub fn apply_triplet(
    pot: &dyn TripletPotential,
    species: &[Species],
    acc: &mut ForceAccumulator,
    ids: [u32; 3],
    d01: Vec3,
    d12: Vec3,
) {
    let [s0, s1, s2] = ids.map(|i| species[i as usize]);
    if !pot.applies(s0, s1, s2) {
        return;
    }
    let (u, f0, f1, f2) = pot.eval(s0, s1, s2, -d01, d12);
    acc.energy += u;
    // Tuple virial about the vertex: Σ_k f_k·(r_k − r1).
    acc.virial += f0.dot(-d01) + f2.dot(d12);
    acc.add(ids[0], f0);
    acc.add(ids[1], f1);
    acc.add(ids[2], f2);
}

/// Applies one chain quadruplet with link displacements `d01`, `d12`,
/// `d23`.
#[inline]
pub fn apply_quadruplet(
    pot: &dyn QuadrupletPotential,
    species: &[Species],
    acc: &mut ForceAccumulator,
    ids: [u32; 4],
    d01: Vec3,
    d12: Vec3,
    d23: Vec3,
) {
    let sp = ids.map(|i| species[i as usize]);
    if !pot.applies(sp) {
        return;
    }
    let (u, forces) = pot.eval(sp, d01, d12, d23);
    acc.energy += u;
    // Virial about atom 1: r0−r1 = −d01, r2−r1 = d12, r3−r1 = d12 + d23.
    acc.virial += forces[0].dot(-d01) + forces[2].dot(d12) + forces[3].dot(d12 + d23);
    for (slot, force) in ids.into_iter().zip(forces) {
        acc.add(slot, force);
    }
}

/// The Hybrid-MD force pass: every term of `ff` walked out of one pair
/// `list` into one accumulator, in ascending n. Per-term energies and
/// accepted tuples are folded into `energy` / `tuples`, and so are the
/// n ≥ 3 candidates; the pair candidates stay the list build's search
/// statistics, which the caller holds (a list spans ghost–ghost and skin
/// pairs, so only the walk knows which pairs this pass computed). Forces
/// and the virial stay in `acc` for the caller to merge.
pub fn hybrid_forces(
    ff: &ForceField,
    list: &NeighborList,
    owns_bond: impl Fn(u32, u32) -> bool + Copy,
    species: &[Species],
    acc: &mut ForceAccumulator,
    energy: &mut EnergyBreakdown,
    tuples: &mut TupleCounts,
) {
    for term in ff.active() {
        let stats = term.walk(list, owns_bond, species, acc);
        *energy.term_mut(term.n()) += std::mem::take(&mut acc.energy);
        let counts = tuples.term_mut(term.n());
        if term.n() == 2 {
            counts.accepted = stats.accepted;
        } else {
            counts.merge(stats);
        }
    }
}
