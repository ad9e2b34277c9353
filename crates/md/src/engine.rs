//! Cell-based n-tuple enumeration: the executable form of the paper's UCP
//! algorithm (Table 1) with chain-cutoff filtering.
//!
//! For each cell `c(q)` of the lattice and each path `p = (v0…v_{n-1})` of
//! the computation pattern, the visitor enumerates candidate tuples with the
//! k-th atom drawn from `c(q + v_k)`, filters them by the chain-cutoff
//! condition `r_{k,k+1} < r_cut-n` (Eq. 6), rejects repeated atoms, and
//! applies the reflective-duplicate guard so that **every undirected tuple
//! is visited exactly once** regardless of the pattern's redundancy:
//!
//! * [`Dedup::Collapsed`] — for R-COLLAPSE'd patterns (SC, HS): only
//!   *self-reflective* paths generate each tuple twice (once per direction),
//!   so only those paths carry the canonical-order guard.
//! * [`Dedup::Guarded`] — for redundant patterns (FS): every undirected
//!   tuple is generated twice (by a path and its reflective twin), so the
//!   guard applies to every path. This is exactly the "filtering out the
//!   unnecessary tuples" whose cost Eq. 12 charges to FS-MD.
//!
//! The guard compares **global atom ids**, not local slots, so the same
//! rule stays consistent when tuples straddle rank boundaries in the
//! distributed runtime: for a pair owned by two different ranks, exactly one
//! rank's directed generation passes the guard.
//!
//! Enumeration is generic over [`TupleSource`] — the engine's ranks run it
//! on a rank-local ghost lattice (plain differences, since ghosts are
//! image-shifted into the local frame); [`visit_pairs`] and
//! [`visit_triplets`] run it on a periodic [`CellLattice`] (minimum-image
//! displacements) as an oracle-side search for tests and probes.
//!
//! There are two visitors. [`visit_pairs_in_cell_src`] carries a batched
//! lane leaf (DESIGN.md §5d); [`ChainSweep`] serves every n ≥ 3 by walking
//! the pattern's prefix trie over per-atom [`LinkRows`]: the chain cutoff
//! depends only on the two atoms of a link, so each atom's links are found
//! once per sweep and every path through the atom reads them back. Both
//! charge `candidates` with the full product `Σ_paths Π_k |c(q + v_k)|` —
//! the searched space `S_cell` of Eq. 12, a function of the cell populations
//! alone. [`LinkRows`] is also the Hybrid-MD Verlet list: the same row fill,
//! run eagerly over a cell set at the pair cutoff.

use sc_cell::{AtomStore, CellLattice};
use sc_core::Pattern;
use sc_geom::{IVec3, Vec3};
use std::collections::HashMap;
use std::ops::Range;

/// How reflective tuple duplicates are suppressed during enumeration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dedup {
    /// The pattern has been R-COLLAPSE'd: guard only self-reflective paths.
    Collapsed,
    /// The pattern retains reflective twins (e.g. full shell): guard every
    /// path with the canonical-order test.
    Guarded,
}

/// One node of a compiled pattern's prefix trie: the cell offset the atom at
/// this chain position is drawn from. Paths sharing a prefix share its
/// nodes, so the prefix's cell lookups and cutoff checks run once for all of
/// them — SC(3) folds 378 paths under 63 first links, FS(3) 729 under 27.
#[derive(Debug, Clone)]
struct TrieNode {
    offset: IVec3,
    /// Index of `offset` in [`PatternPlan::coverage`].
    cell: usize,
    /// The [`LinkRows`] bucket of the cell step `offset − parent.offset`
    /// (see [`bucket_of`]); unused on depth-0 nodes.
    step: usize,
    /// The path's reflective-duplicate guard; meaningful on leaves.
    guard: bool,
    /// Next chain position's nodes (siblings are contiguous); empty on
    /// leaves.
    children: Range<usize>,
}

/// A pattern compiled for enumeration: the prefix trie of its paths, each
/// leaf carrying its path's reflective-duplicate guard flag.
#[derive(Debug, Clone)]
pub struct PatternPlan {
    n: usize,
    len: usize,
    /// `nodes[..roots]` are the depth-0 nodes, one per distinct first link.
    roots: usize,
    nodes: Vec<TrieNode>,
    /// The distinct cell offsets the paths touch — the pattern's cell
    /// coverage `Π(Ψ)`.
    coverage: Vec<IVec3>,
    /// The longest cell step between consecutive chain positions, per axis
    /// (1 for the paper's patterns, k for k-fold subdivided cells).
    reach: i32,
}

/// Index of cell step `step` among the `(2·reach + 1)³` steps of a link row,
/// z fastest — the order [`IVec3::box_iter`] walks them in.
#[inline]
fn bucket_of(step: IVec3, reach: i32) -> usize {
    let w = 2 * reach + 1;
    let s = step + IVec3::splat(reach);
    ((s.x * w + s.y) * w + s.z) as usize
}

/// The offsets of a path from some chain position on, and the path's guard.
type Suffix<'p> = (&'p [IVec3], bool);

/// Appends the trie level holding `paths`' first offsets to `nodes` and
/// recurses into each node's remaining suffixes. Siblings keep first-seen
/// order and members path order, so the trie is a pure regrouping of the
/// path list and enumeration stays deterministic.
///
/// Depth-0 nodes are keyed on the first *link* `(v0, v1)`, not on `v0`
/// alone: merging on `v0` would hoist the `i0` loop above the `v1` loop and
/// change the visit order that force sums are pinned to bitwise. Each
/// therefore has exactly one child. Leaves are never merged.
fn compile(nodes: &mut Vec<TrieNode>, paths: &[Suffix], depth: usize) -> Range<usize> {
    let first = nodes.len();
    // Per sibling pushed at this level: its member paths' suffixes below it.
    let mut members: Vec<Vec<Suffix>> = Vec::new();
    let mut sibling_of: HashMap<(IVec3, IVec3), usize> = HashMap::new();
    for &(offsets, guard) in paths {
        let key = (offsets[0], offsets[if depth == 0 { 1 } else { 0 }]);
        let fresh = members.len();
        let k = if offsets.len() == 1 { fresh } else { *sibling_of.entry(key).or_insert(fresh) };
        if k == fresh {
            nodes.push(TrieNode { offset: offsets[0], cell: 0, step: 0, guard, children: 0..0 });
            members.push(Vec::new());
        }
        members[k].push((&offsets[1..], guard));
    }
    for (k, below) in members.iter().enumerate() {
        if !below[0].0.is_empty() {
            nodes[first + k].children = compile(nodes, below, depth + 1);
        }
    }
    first..first + members.len()
}

impl PatternPlan {
    /// Compiles `pattern` for the given dedup mode.
    pub fn new(pattern: &Pattern, dedup: Dedup) -> Self {
        let paths: Vec<Suffix> = pattern
            .iter()
            .map(|p| {
                let guard = match dedup {
                    Dedup::Guarded => true,
                    Dedup::Collapsed => p.is_self_reflective(),
                };
                (p.offsets(), guard)
            })
            .collect();
        let mut nodes = Vec::new();
        let roots = compile(&mut nodes, &paths, 0).len();
        let mut coverage: Vec<IVec3> = Vec::new();
        let mut cell_of: HashMap<IVec3, usize> = HashMap::new();
        for node in &mut nodes {
            node.cell = *cell_of.entry(node.offset).or_insert_with(|| {
                coverage.push(node.offset);
                coverage.len() - 1
            });
        }
        let steps: Vec<(usize, IVec3)> = nodes
            .iter()
            .flat_map(|node| node.children.clone().map(|c| (c, nodes[c].offset - node.offset)))
            .collect();
        let reach = steps.iter().map(|(_, step)| step.linf_norm()).max().unwrap_or(0);
        for (child, step) in steps {
            nodes[child].step = bucket_of(step, reach);
        }
        PatternPlan { n: pattern.n(), len: paths.len(), roots, nodes, coverage, reach }
    }

    /// The tuple order n.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of paths.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the plan has no paths.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The longest cell step between consecutive chain positions, per axis:
    /// how many cells away from its own an atom's links can lie.
    pub fn reach(&self) -> i32 {
        self.reach
    }
}

/// Enumeration statistics: the search-cost observables of the paper's
/// Lemma 5 / Fig. 7.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VisitStats {
    /// Candidate tuples examined (the size of the searched space `S_cell`).
    pub candidates: u64,
    /// Tuples that passed cutoff, distinctness, and guard — i.e. members of
    /// the filtered force set handed to the potential.
    pub accepted: u64,
}

impl VisitStats {
    /// Accumulates another stats record.
    pub fn merge(&mut self, o: VisitStats) {
        self.candidates += o.candidates;
        self.accepted += o.accepted;
    }
}

impl std::iter::Sum for VisitStats {
    fn sum<I: Iterator<Item = VisitStats>>(iter: I) -> Self {
        iter.fold(VisitStats::default(), |mut total, s| {
            total.merge(s);
            total
        })
    }
}

/// What tuple enumeration needs from the world: cell bins, positions,
/// global ids, and a displacement rule.
pub trait TupleSource {
    /// Number of atom slots the source addresses (every binned slot is
    /// below it).
    fn slots(&self) -> usize;
    /// Atom slots binned into cell `q` (indexing convention is the
    /// implementor's — periodic for the global lattice, bounded-local for
    /// ghost lattices).
    fn atoms_in(&self, q: IVec3) -> &[u32];
    /// Position of slot `i`.
    fn pos(&self, i: u32) -> Vec3;
    /// Stable global id of slot `i` (guards compare these).
    fn gid(&self, i: u32) -> u64;
    /// Displacement `r_j − r_i` under this source's geometry.
    fn disp(&self, i: u32, j: u32) -> Vec3;
    /// Box edge lengths if displacements are minimum-image, `None` if they
    /// are plain differences (rank-local frames with image-shifted ghosts).
    /// The batched pair kernel uses this to apply the same displacement rule
    /// as [`TupleSource::disp`] across a whole lane block at once.
    fn pbc_lengths(&self) -> Option<Vec3> {
        None
    }
}

/// [`TupleSource`] over the global periodic lattice: minimum-image
/// displacements.
pub struct PeriodicSource<'a> {
    lat: &'a CellLattice,
    store: &'a AtomStore,
}

impl<'a> PeriodicSource<'a> {
    /// Wraps a lattice + store.
    ///
    /// Debug builds assert the lattice's bins were built against the store's
    /// current slot layout ([`CellLattice::is_current`]): any structural
    /// mutation — `push`, `swap_remove` (which moves the last atom into the
    /// vacated slot while its old lattice entry still points there), a
    /// Morton re-sort — silently invalidates every binned slot index, and
    /// enumerating through stale bins reads the wrong atoms.
    pub fn new(lat: &'a CellLattice, store: &'a AtomStore) -> Self {
        debug_assert!(
            lat.is_current(store),
            "cell lattice is stale: the store's slot layout changed since the last rebuild"
        );
        PeriodicSource { lat, store }
    }
}

impl TupleSource for PeriodicSource<'_> {
    #[inline]
    fn slots(&self) -> usize {
        self.store.len()
    }
    #[inline]
    fn atoms_in(&self, q: IVec3) -> &[u32] {
        self.lat.cell_atoms(q)
    }
    #[inline]
    fn pos(&self, i: u32) -> Vec3 {
        self.store.positions()[i as usize]
    }
    #[inline]
    fn gid(&self, i: u32) -> u64 {
        self.store.ids()[i as usize]
    }
    #[inline]
    fn disp(&self, i: u32, j: u32) -> Vec3 {
        self.lat.bbox().min_image(self.pos(i), self.pos(j))
    }
    #[inline]
    fn pbc_lengths(&self) -> Option<Vec3> {
        Some(self.lat.bbox().lengths())
    }
}

/// Block size of the pair visitor's gathered cell: coordinates are processed
/// in fixed-size blocks held on the stack. 32 atoms cover a typical cell's
/// population (ρ_cell ≈ 5–20 for the paper's benchmark systems) in a single
/// block.
const BATCH: usize = 32;

/// Below this many candidates in the gathered cell, the pair visitor takes
/// the plain scalar inner loop: filling lanes for a near-empty cell costs
/// more than it saves. Both paths produce bitwise-identical calls in
/// identical order — a cell below `BATCH` is a single chunk, so the batched
/// loop degenerates to the same iteration order the scalar loop uses.
const BATCH_MIN: usize = 16;

/// A gathered block of candidate atoms: SoA coordinates plus the global ids
/// the reflective-duplicate guard compares. Filling it from a Morton-sorted
/// store is a near-contiguous copy, which is what makes the lane loops pay.
struct Gather {
    x: [f64; BATCH],
    y: [f64; BATCH],
    z: [f64; BATCH],
    gid: [u64; BATCH],
}

impl Gather {
    #[inline]
    fn new() -> Self {
        Gather { x: [0.0; BATCH], y: [0.0; BATCH], z: [0.0; BATCH], gid: [0; BATCH] }
    }

    /// Loads `chunk` (≤ `BATCH` slots) from the source.
    #[inline]
    fn load(&mut self, src: &impl TupleSource, chunk: &[u32]) {
        for (k, &j) in chunk.iter().enumerate() {
            let p = src.pos(j);
            self.x[k] = p.x;
            self.y[k] = p.y;
            self.z[k] = p.z;
            self.gid[k] = src.gid(j);
        }
    }
}

/// Per-axis displacement rule for the lane loops: minimum-image when the
/// source is periodic, plain difference otherwise (encoded as `l = 0`,
/// `half = ∞`, which makes both corrections dead).
///
/// Bitwise identical to [`sc_geom::SimulationBox::min_image`]: the two
/// corrections can never both fire for wrapped positions (|d| < L, so after
/// `d -= L` the result is > −L/2), and the untaken arms add `0.0` / `−0.0`,
/// which preserve every `f64` — including signed zeros — exactly.
#[derive(Clone, Copy)]
struct DispRule {
    l: Vec3,
    half: Vec3,
}

impl DispRule {
    #[inline]
    fn of(src: &impl TupleSource) -> Self {
        match src.pbc_lengths() {
            Some(l) => DispRule { l, half: l * 0.5 },
            None => DispRule { l: Vec3::ZERO, half: Vec3::splat(f64::INFINITY) },
        }
    }
}

#[inline]
fn min_image1(mut d: f64, l: f64, half: f64) -> f64 {
    d -= if d > half { l } else { 0.0 };
    d += if d < -half { l } else { -0.0 };
    d
}

/// Granularity of the lane kernel: it works on whole blocks of this many
/// lanes — four 128-bit vectors of f64, two 256-bit, one 512-bit — so no
/// vector width needs a remainder loop. Callers pad their buffers up to a
/// block.
const LANE_BLOCK: usize = 8;

/// The lane kernel: displacements `(dx, dy, dz)` and squared distances `r²`
/// from `origin` to every atom of the SoA coordinates `at = [x, y, z]`,
/// written to `out = [dx, dy, dz, r²]`. All seven slices have the same
/// length, a multiple of [`LANE_BLOCK`]; lanes past the caller's last atom
/// hold whatever finite coordinates its padding left there.
///
/// The block loop is branch-free straight-line f64 arithmetic with a
/// constant trip count — exactly the shape LLVM turns into packed lanes
/// with select-based masking. Always inlined: a plain-difference source's
/// rule is a constant (`l = 0`, `half = ∞`), which folds both corrections
/// away in that source's copy of the loop.
#[inline(always)]
fn lane_loop(origin: Vec3, rule: DispRule, at: [&[f64]; 3], out: [&mut [f64]; 4]) {
    let [x, y, z] = at.map(|lane| lane.as_chunks::<LANE_BLOCK>().0);
    let [dx, dy, dz, r2] = out.map(|lane| lane.as_chunks_mut::<LANE_BLOCK>().0);
    let n = x.len();
    let (y, z) = (&y[..n], &z[..n]);
    let (dx, dy, dz, r2) = (&mut dx[..n], &mut dy[..n], &mut dz[..n], &mut r2[..n]);
    for b in 0..n {
        // One block through locals, so the compiler sees seven arrays that
        // cannot alias and keeps each in vector registers.
        let (xb, yb, zb) = (x[b], y[b], z[b]);
        let mut block = [[0.0; LANE_BLOCK]; 4];
        for k in 0..LANE_BLOCK {
            let dxk = min_image1(xb[k] - origin.x, rule.l.x, rule.half.x);
            let dyk = min_image1(yb[k] - origin.y, rule.l.y, rule.half.y);
            let dzk = min_image1(zb[k] - origin.z, rule.l.z, rule.half.z);
            block[0][k] = dxk;
            block[1][k] = dyk;
            block[2][k] = dzk;
            block[3][k] = dxk * dxk + dyk * dyk + dzk * dzk;
        }
        [dx[b], dy[b], dz[b], r2[b]] = block;
    }
}

/// Displacements and squared distances from an origin to the first `m` lanes
/// of a [`Gather`].
struct Lanes {
    dx: [f64; BATCH],
    dy: [f64; BATCH],
    dz: [f64; BATCH],
    r2: [f64; BATCH],
}

impl Lanes {
    #[inline]
    fn new() -> Self {
        Lanes { dx: [0.0; BATCH], dy: [0.0; BATCH], dz: [0.0; BATCH], r2: [0.0; BATCH] }
    }

    #[inline]
    fn compute(&mut self, origin: Vec3, g: &Gather, m: usize, rule: DispRule) {
        // Whole blocks: the lanes past `m` hold an earlier chunk's atoms
        // (or the initial zeros) and are never read back.
        let m = m.next_multiple_of(LANE_BLOCK);
        lane_loop(
            origin,
            rule,
            [&g.x[..m], &g.y[..m], &g.z[..m]],
            [&mut self.dx[..m], &mut self.dy[..m], &mut self.dz[..m], &mut self.r2[..m]],
        );
    }

    #[inline]
    fn disp(&self, k: usize) -> Vec3 {
        Vec3::new(self.dx[k], self.dy[k], self.dz[k])
    }
}

/// Visits every undirected pair generated by `plan` at base cell `q`.
///
/// The callback receives `(i, j, d_ij, r)` with `d_ij` the displacement
/// `r_j − r_i` and `r = |d_ij| < rcut`.
pub fn visit_pairs_in_cell_src(
    src: &impl TupleSource,
    plan: &PatternPlan,
    rcut: f64,
    q: IVec3,
    mut f: impl FnMut(u32, u32, Vec3, f64),
) -> VisitStats {
    debug_assert_eq!(plan.n, 2);
    let rc2 = rcut * rcut;
    let rule = DispRule::of(src);
    let mut stats = VisitStats::default();
    let mut g = Gather::new();
    let mut lanes = Lanes::new();
    // Every pair path is its own first link: a root and its one leaf.
    for first in &plan.nodes[..plan.roots] {
        let second = &plan.nodes[first.children.start];
        let cell_i = src.atoms_in(q + first.offset);
        let cell_j = src.atoms_in(q + second.offset);
        let guard = second.guard;
        if cell_i.is_empty() {
            continue;
        }
        if cell_j.len() < BATCH_MIN {
            for &i in cell_i {
                let gi = src.gid(i);
                stats.candidates += cell_j.len() as u64;
                for &j in cell_j {
                    if i == j || (guard && gi > src.gid(j)) {
                        continue;
                    }
                    let d = src.disp(i, j);
                    let r2 = d.norm_sq();
                    if r2 < rc2 {
                        stats.accepted += 1;
                        f(i, j, d, r2.sqrt());
                    }
                }
            }
            continue;
        }
        for chunk in cell_j.chunks(BATCH) {
            let m = chunk.len();
            g.load(src, chunk);
            for &i in cell_i {
                let pi = src.pos(i);
                let gi = src.gid(i);
                stats.candidates += m as u64;
                lanes.compute(pi, &g, m, rule);
                for (k, &j) in chunk.iter().enumerate() {
                    if i == j || (guard && gi > g.gid[k]) {
                        continue;
                    }
                    let r2 = lanes.r2[k];
                    if r2 < rc2 {
                        stats.accepted += 1;
                        f(i, j, lanes.disp(k), r2.sqrt());
                    }
                }
            }
        }
    }
    stats
}

/// Largest tuple order the chain visitor walks (`GENERATE-FS` stops at 7).
const MAX_ORDER: usize = 8;

/// The range-limited adjacency: for every atom of the cells filled so far,
/// its *link row* — every atom within the cutoff in the `(2·reach + 1)³`
/// cells around its own, bucketed by cell step, each bucket in cell order
/// with the displacement [`TupleSource::disp`] gives. Rows are filled a cell
/// at a time by `LinkRows::fill`, the one range search behind both n ≥ 3
/// paths:
///
/// * **Lazily, per chain sweep.** The chain cutoff `r_{k,k+1} < r_cut-n`
///   (Eq. 6) depends only on the two atoms of a link, not on the path or
///   base cell that proposed them, so a cell's rows are filled the first
///   time a [`ChainSweep`] draws one of its atoms as a non-final chain
///   member and read by every trie node below such an atom afterwards:
///   level k of the walk is `for (i, d) in bucket(prev, node.step)`. The
///   cell steps keep the pattern, not the row, in charge of which base cell
///   computes which tuple.
/// * **Eagerly, as the Hybrid-MD Verlet list.** `LinkRows::build` fills
///   every cell of a cell set at the pair cutoff; an atom's whole row, all
///   buckets together, is its neighbour list
///   ([`NeighborList`](crate::methods::NeighborList) is that view).
///
/// Rows are valid until the next `LinkRows::begin` — for a chain sweep,
/// the sweep itself, which borrows its source, so atoms and bins cannot
/// move under a row. A sweep cut into cell subsets (a pool lane's span)
/// visits what the whole sweep visits. The buffers are kept, so a
/// steady-state sweep or build allocates nothing (see
/// `LinkRows::settle`).
#[derive(Debug, Default)]
pub struct LinkRows {
    /// Per atom slot, where its row is.
    of_atom: Vec<RowRef>,
    epoch: u32,
    /// The cell steps a row spans per axis: `(2·reach + 1)³` buckets a row.
    reach: i32,
    /// `links[bounds[r + b]..bounds[r + b + 1]]` is bucket `b` of the row at
    /// `r`. Rows are filled back to back, so each one's last bound is the
    /// next one's first.
    bounds: Vec<u32>,
    links: Vec<(u32, Vec3)>,
    /// Populations of the current base cell's coverage cells.
    pops: Vec<u32>,
    near: Neighbourhood,
    /// Buffer capacity [`LinkRows::settle`] last saw.
    settled: usize,
}

/// An atom's entry in [`LinkRows`], meaningful while `stamp` is the table's
/// epoch.
#[derive(Debug, Clone, Copy, Default)]
struct RowRef {
    stamp: u32,
    /// Index into `bounds` of the row's first bucket.
    start: u32,
}

/// The atoms of the `(2·reach + 1)³` cells around the cell being filled,
/// gathered once per cell into SoA lanes, and the lane kernel's output for
/// the atom whose row is being written. The buffers only grow: the first
/// `len` entries are the current gather, and the lanes past it hold an
/// earlier gather's atoms (or zeros), which the lane kernel computes up to
/// a whole block and the compaction never reads.
#[derive(Debug, Default)]
struct Neighbourhood {
    slot: Vec<u32>,
    /// Atoms gathered for the current cell.
    len: usize,
    /// Per cell step, in [`bucket_of`] order, where its atoms end in `slot`.
    ends: Vec<u32>,
    at: [Vec<f64>; 3],
    out: [Vec<f64>; 4],
    /// Positions in `slot` of the current atom's links (sized for all).
    hits: Vec<u32>,
}

impl Neighbourhood {
    /// Gathers the cells around `cell`, one bucket per cell step, in one
    /// pass: each cell's atoms are written by index behind the previous
    /// cell's, growing the buffers only when a gather outgrows them.
    fn gather(&mut self, src: &impl TupleSource, reach: i32, cell: IVec3) {
        self.ends.clear();
        let mut len = 0;
        for step in IVec3::box_iter(IVec3::splat(-reach), IVec3::splat(reach)) {
            let atoms = src.atoms_in(cell + step);
            let end = len + atoms.len();
            // Whole lane blocks, so the kernel never runs past a buffer.
            let padded = end.next_multiple_of(LANE_BLOCK);
            if self.slot.len() < padded {
                self.slot.resize(padded, 0);
                self.hits.resize(padded, 0);
                self.at.iter_mut().chain(&mut self.out).for_each(|lane| lane.resize(padded, 0.0));
            }
            let [x, y, z] = self.at.each_mut().map(|lane| &mut lane[len..end]);
            for (k, (&j, s)) in atoms.iter().zip(&mut self.slot[len..end]).enumerate() {
                let p = src.pos(j);
                *s = j;
                (x[k], y[k], z[k]) = (p.x, p.y, p.z);
            }
            len = end;
            self.ends.push(len as u32);
        }
        self.len = len;
    }

    fn capacity(&self) -> usize {
        let lanes = self.at.iter().chain(&self.out).map(Vec::capacity).sum::<usize>();
        self.slot.capacity() + self.ends.capacity() + self.hits.capacity() + lanes
    }
}

impl LinkRows {
    /// Forgets every row and sizes the table for `slots` atoms and rows
    /// spanning `reach` cell steps per axis.
    fn begin(&mut self, slots: usize, reach: i32) {
        if self.epoch == u32::MAX {
            self.of_atom.fill(RowRef::default());
            self.epoch = 0;
        }
        self.epoch += 1;
        if self.of_atom.len() < slots {
            self.of_atom.resize(slots, RowRef::default());
        }
        self.reach = reach;
        self.bounds.clear();
        self.bounds.push(0);
        self.links.clear();
    }

    /// Fills the row of every atom binned in `cell`, in cell order: the
    /// cell's neighbourhood is gathered once, the lane kernel runs once per
    /// atom over all of it, and the links under `rc2` are appended bucket by
    /// bucket. Returns the number of ordered pairs examined,
    /// `|c(cell)| · Σ_v |c(cell + v)|`.
    fn fill(&mut self, src: &impl TupleSource, rc2: f64, cell: IVec3) -> u64 {
        const OUTGROWN: &str = "link rows outgrew their u32 offsets";
        let atoms = src.atoms_in(cell);
        if atoms.is_empty() {
            return 0;
        }
        let reach = self.reach;
        let LinkRows { of_atom, epoch, bounds, links, near, .. } = self;
        near.gather(src, reach, cell);
        let rule = DispRule::of(src);
        // Local slices of the gathered lanes, so the compaction's stores
        // cannot alias the buffers' lengths and pointers.
        let Neighbourhood { slot, len, ends, at, out, hits } = near;
        let (len, padded) = (*len, len.next_multiple_of(LANE_BLOCK));
        let (slot, hits) = (&slot[..len], &mut hits[..len]);
        for &i in atoms {
            let start = u32::try_from(bounds.len() - 1).expect(OUTGROWN);
            let lanes = out.each_mut().map(|lane| &mut lane[..padded]);
            lane_loop(src.pos(i), rule, at.each_ref().map(|lane| &lane[..padded]), lanes);
            let [dx, dy, dz, r2] = out.each_ref().map(|lane| &lane[..len]);
            // Branch-free compaction: every lane writes its index, a hit
            // keeps it. One link in eight is a hit, at no predictable place.
            let first = links.len();
            let (mut from, mut n) = (0, 0);
            for &end in ends.iter() {
                let end = end as usize;
                for (k, (&r, &j)) in (from..end).zip(r2[from..end].iter().zip(&slot[from..end])) {
                    hits[n] = k as u32;
                    n += usize::from((r < rc2) & (j != i));
                }
                from = end;
                bounds.push(u32::try_from(first + n).expect(OUTGROWN));
            }
            let found = hits[..n].iter().map(|&k| k as usize);
            links.extend(found.map(|k| (slot[k], Vec3::new(dx[k], dy[k], dz[k]))));
            of_atom[i as usize] = RowRef { stamp: *epoch, start };
        }
        atoms.len() as u64 * len as u64
    }

    /// Forgets every row, then fills the rows of every atom of `cells` at
    /// cutoff `rcut`, spanning `plan`'s reach — the eager build behind the
    /// Hybrid-MD Verlet list. Only the reach is read from the plan: a row
    /// holds both directions of every pair whatever the plan's paths are.
    /// The statistics account the build like a full-shell pair search:
    /// `candidates = Σ_q Σ_v |c(q)|·|c(q + v)|`, `accepted` the undirected
    /// pairs found.
    pub(crate) fn build(
        &mut self,
        src: &impl TupleSource,
        plan: &PatternPlan,
        rcut: f64,
        cells: impl IntoIterator<Item = IVec3>,
    ) -> VisitStats {
        self.begin(src.slots(), plan.reach);
        let rc2 = rcut * rcut;
        let candidates = cells.into_iter().map(|q| self.fill(src, rc2, q)).sum();
        VisitStats { candidates, accepted: self.links.len() as u64 / 2 }
    }

    /// Atom `i`'s whole row — every bucket, in bucket order; empty if its
    /// cell has not been filled.
    #[inline]
    pub(crate) fn row(&self, i: u32) -> &[(u32, Vec3)] {
        &self.links[self.row_range(i)]
    }

    #[inline]
    fn row_range(&self, i: u32) -> Range<usize> {
        let row = self.of_atom[i as usize];
        if row.stamp != self.epoch {
            return 0..0;
        }
        let (start, buckets) = (row.start as usize, (2 * self.reach as usize + 1).pow(3));
        self.bounds[start] as usize..self.bounds[start + buckets] as usize
    }

    /// Total number of links in the filled rows.
    pub(crate) fn link_count(&self) -> usize {
        self.links.len()
    }

    /// Whether the buffers have grown since the last call — the allocation
    /// observable [`ForceAccumulator::allocation_events`](crate::ForceAccumulator::allocation_events)
    /// counts for the accumulator that keeps these rows.
    pub(crate) fn settle(&mut self) -> bool {
        let capacity = self.of_atom.capacity()
            + self.bounds.capacity()
            + self.links.capacity()
            + self.pops.capacity()
            + self.near.capacity();
        let grew = capacity > self.settled;
        self.settled = capacity;
        grew
    }
}

/// One sweep of the chain visitor (n ≥ 3) over any set of base cells of one
/// source: the paper's UCP search for arbitrary n (ReaxFF-style force fields
/// reach n = 6 through chain-rule terms, §1). Holds the sweep's
/// [`LinkRows`], which it resets on construction, so the source's atoms and
/// bins must not change while it lives (the borrow of `src` sees to that).
pub struct ChainSweep<'a, S> {
    src: &'a S,
    plan: &'a PatternPlan,
    rc2: f64,
    rows: &'a mut LinkRows,
}

impl<'a, S: TupleSource> ChainSweep<'a, S> {
    /// Starts a sweep with `plan` and chain cutoff `rcut`, reusing `rows`'
    /// buffers.
    pub fn new(src: &'a S, plan: &'a PatternPlan, rcut: f64, rows: &'a mut LinkRows) -> Self {
        assert!((3..=MAX_ORDER).contains(&plan.n), "chain visitor serves 3 ≤ n ≤ {MAX_ORDER}");
        rows.begin(src.slots(), plan.reach);
        ChainSweep { src, plan, rc2: rcut * rcut, rows }
    }

    /// Visits every undirected chain n-tuple generated by the plan at base
    /// cell `q` with every link shorter than the cutoff.
    ///
    /// The callback receives the chain's atom slots `(i0 … i_{n-1})` and its
    /// n − 1 link displacements `d_k = r_{k+1} − r_k`.
    pub fn visit_cell(&mut self, q: IVec3, f: impl FnMut(&[u32], &[Vec3])) -> VisitStats {
        let (src, plan) = (self.src, self.plan);
        // Each coverage cell is looked up once per base cell, however many
        // trie nodes draw from it.
        self.rows.pops.clear();
        self.rows.pops.extend(plan.coverage.iter().map(|&v| src.atoms_in(q + v).len() as u32));
        let mut walk = ChainWalk {
            src,
            plan,
            rc2: self.rc2,
            rows: &mut *self.rows,
            q,
            ids: [0; MAX_ORDER],
            links: [Vec3::ZERO; MAX_ORDER],
            accepted: 0,
            f,
        };
        let mut candidates = 0;
        for root in &plan.nodes[..plan.roots] {
            let here = walk.rows.pops[root.cell] as u64;
            let below = if here == 0 { 0 } else { walk.candidates(root.children.clone()) };
            if below == 0 {
                continue;
            }
            candidates += here * below;
            for &i0 in src.atoms_in(q + root.offset) {
                walk.ids[0] = i0;
                walk.extend(root, 1);
            }
        }
        VisitStats { candidates, accepted: walk.accepted }
    }
}

/// The chain visitor's state for one base cell.
struct ChainWalk<'a, S, F> {
    src: &'a S,
    plan: &'a PatternPlan,
    rc2: f64,
    rows: &'a mut LinkRows,
    q: IVec3,
    ids: [u32; MAX_ORDER],
    links: [Vec3; MAX_ORDER],
    accepted: u64,
    f: F,
}

impl<S: TupleSource, F: FnMut(&[u32], &[Vec3])> ChainWalk<'_, S, F> {
    /// The full-product candidate count `Σ_paths Π_k |c(q + v_k)|` of the
    /// sibling nodes `level`, over the chain positions from theirs down.
    fn candidates(&self, level: Range<usize>) -> u64 {
        let (plan, pops) = (self.plan, &self.rows.pops);
        let mut product_sum = 0;
        for node in &plan.nodes[level] {
            let here = pops[node.cell] as u64;
            if here == 0 {
                continue;
            }
            let below = &plan.nodes[node.children.clone()];
            product_sum += here
                * match below.first() {
                    None => 1,
                    // Siblings share a chain position: leaves together.
                    Some(leaf) if leaf.children.is_empty() => {
                        below.iter().map(|leaf| pops[leaf.cell] as u64).sum()
                    }
                    Some(_) => self.candidates(node.children.clone()),
                };
        }
        product_sum
    }

    /// Extends the accepted chain prefix `ids[..depth]`, whose last atom was
    /// drawn at trie node `parent`, through `parent`'s children, reporting
    /// the chains that complete.
    fn extend(&mut self, parent: &TrieNode, depth: usize) {
        let plan = self.plan;
        let last = depth + 1 == plan.n;
        let prev = self.ids[depth - 1];
        let g0 = if last { self.src.gid(self.ids[0]) } else { 0 };
        if self.rows.of_atom[prev as usize].stamp != self.rows.epoch {
            self.rows.fill(self.src, self.rc2, self.q + parent.offset);
        }
        let start = self.rows.of_atom[prev as usize].start as usize;
        for node in &plan.nodes[parent.children.clone()] {
            let at = start + node.step;
            let bucket = self.rows.bounds[at]..self.rows.bounds[at + 1];
            // By index: rows filled further down the chain grow `links`.
            for e in bucket {
                let (i, d) = self.rows.links[e as usize];
                // `prev` is not in its own row, so only the atoms before it
                // can repeat.
                if self.ids[..depth - 1].contains(&i)
                    || (last && node.guard && g0 > self.src.gid(i))
                {
                    continue;
                }
                self.ids[depth] = i;
                self.links[depth - 1] = d;
                if last {
                    self.accepted += 1;
                    (self.f)(&self.ids[..=depth], &self.links[..depth]);
                } else {
                    self.extend(node, depth + 1);
                }
            }
        }
    }
}

/// Runs the pair visitor over every cell of the global periodic lattice
/// (serial).
pub fn visit_pairs(
    lat: &CellLattice,
    store: &AtomStore,
    plan: &PatternPlan,
    rcut: f64,
    mut f: impl FnMut(u32, u32, Vec3, f64),
) -> VisitStats {
    let src = PeriodicSource::new(lat, store);
    lat.cells().map(|q| visit_pairs_in_cell_src(&src, plan, rcut, q, &mut f)).sum()
}

/// Runs the chain visitor with a triplet plan over every cell of the global
/// periodic lattice (serial). The callback receives
/// `(i0, i1, i2, d01, d12)` where `d01 = r1 − r0` and `d12 = r2 − r1`.
pub fn visit_triplets(
    lat: &CellLattice,
    store: &AtomStore,
    plan: &PatternPlan,
    rcut: f64,
    mut f: impl FnMut(u32, u32, u32, Vec3, Vec3),
) -> VisitStats {
    debug_assert_eq!(plan.n, 3);
    let src = PeriodicSource::new(lat, store);
    let mut rows = LinkRows::default();
    let mut sweep = ChainSweep::new(&src, plan, rcut, &mut rows);
    let mut each = |ids: &[u32], d: &[Vec3]| f(ids[0], ids[1], ids[2], d[0], d[1]);
    lat.cells().map(|q| sweep.visit_cell(q, &mut each)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use crate::workload::random_gas;
    use sc_cell::GhostLattice;
    use sc_core::{generate_fs, shift_collapse};
    use sc_geom::SimulationBox;
    use std::collections::HashSet;

    fn setup(n_atoms: usize, box_l: f64, rcut: f64) -> (CellLattice, AtomStore) {
        let (store, bbox) = random_gas(n_atoms, box_l, 7);
        let mut lat = CellLattice::new(bbox, rcut);
        lat.rebuild(&store);
        (lat, store)
    }

    #[test]
    fn fs_examines_about_twice_the_candidates_of_sc() {
        // The search-cost halving of Eq. 29, observed on real data (Fig. 7).
        let rcut = 1.0;
        let (lat, store) = setup(200, 4.0, rcut);
        let fs = PatternPlan::new(&generate_fs(3), Dedup::Guarded);
        let sc = PatternPlan::new(&shift_collapse(3), Dedup::Collapsed);
        let s_fs = visit_triplets(&lat, &store, &fs, rcut, |_, _, _, _, _| {});
        let s_sc = visit_triplets(&lat, &store, &sc, rcut, |_, _, _, _, _| {});
        let ratio = s_fs.candidates as f64 / s_sc.candidates as f64;
        assert!(
            (1.7..2.2).contains(&ratio),
            "FS/SC candidate ratio {ratio}, expected ≈ 729/378 = 1.93"
        );
        // Both accept the same number of (undirected) tuples.
        assert_eq!(s_fs.accepted, s_sc.accepted);
    }

    #[test]
    fn accepted_pairs_respect_cutoff() {
        let rcut = 0.8;
        let (lat, store) = setup(100, 4.0, rcut);
        let sc = PatternPlan::new(&shift_collapse(2), Dedup::Collapsed);
        visit_pairs(&lat, &store, &sc, rcut, |i, j, d, r| {
            assert!(r < rcut);
            assert!(i != j);
            assert!((d.norm() - r).abs() < 1e-12);
            // d is the minimum-image displacement.
            let expect =
                lat.bbox().min_image(store.positions()[i as usize], store.positions()[j as usize]);
            assert!((d - expect).norm() < 1e-12);
        });
    }

    /// A bounded, non-periodic source — the shape of a rank-local frame:
    /// plain-difference displacements, nothing outside the ghost margins.
    struct Plain<'a> {
        lat: &'a GhostLattice,
        store: &'a AtomStore,
    }
    impl TupleSource for Plain<'_> {
        fn slots(&self) -> usize {
            self.store.len()
        }
        fn atoms_in(&self, q: IVec3) -> &[u32] {
            self.lat.cell_atoms_or_empty(q)
        }
        fn pos(&self, i: u32) -> Vec3 {
            self.store.positions()[i as usize]
        }
        fn gid(&self, i: u32) -> u64 {
            self.store.ids()[i as usize]
        }
        fn disp(&self, i: u32, j: u32) -> Vec3 {
            self.pos(j) - self.pos(i)
        }
    }

    /// The distance-testing chain walker the link rows replaced, kept as the
    /// semantic reference: it tests `disp(prev, i)` against the cutoff for
    /// every atom of every trie node's cell. The memoised walker must report
    /// the same chains in the same order with the same displacement bits,
    /// and the same statistics.
    struct DistanceWalk<'a, S, F> {
        src: &'a S,
        plan: &'a PatternPlan,
        rc2: f64,
        q: IVec3,
        ids: Vec<u32>,
        links: Vec<Vec3>,
        accepted: u64,
        f: F,
    }

    impl<S: TupleSource, F: FnMut(&[u32], &[Vec3])> DistanceWalk<'_, S, F> {
        fn candidates(&self, level: Range<usize>) -> u64 {
            let per_node = self.plan.nodes[level].iter().map(|node| {
                let here = self.src.atoms_in(self.q + node.offset).len() as u64;
                let leaf = here == 0 || node.children.is_empty();
                here * if leaf { 1 } else { self.candidates(node.children.clone()) }
            });
            per_node.sum()
        }

        fn extend(&mut self, level: Range<usize>) {
            let plan = self.plan;
            let last = self.ids.len() + 1 == plan.n;
            let prev = *self.ids.last().unwrap();
            for node in &plan.nodes[level] {
                for &i in self.src.atoms_in(self.q + node.offset) {
                    let guarded = last && node.guard && self.src.gid(self.ids[0]) > self.src.gid(i);
                    let d = self.src.disp(prev, i);
                    if self.ids.contains(&i) || guarded || d.norm_sq() >= self.rc2 {
                        continue;
                    }
                    self.ids.push(i);
                    self.links.push(d);
                    if last {
                        self.accepted += 1;
                        (self.f)(&self.ids, &self.links);
                    } else {
                        self.extend(node.children.clone());
                    }
                    self.ids.pop();
                    self.links.pop();
                }
            }
        }
    }

    fn distance_walk(
        src: &impl TupleSource,
        plan: &PatternPlan,
        rcut: f64,
        q: IVec3,
        f: impl FnMut(&[u32], &[Vec3]),
    ) -> VisitStats {
        let (ids, links) = (Vec::new(), Vec::new());
        let mut walk = DistanceWalk { src, plan, rc2: rcut * rcut, q, ids, links, accepted: 0, f };
        let mut candidates = 0;
        for root in &plan.nodes[..plan.roots] {
            let cell_0 = src.atoms_in(q + root.offset);
            let below = if cell_0.is_empty() { 0 } else { walk.candidates(root.children.clone()) };
            if below == 0 {
                continue;
            }
            candidates += cell_0.len() as u64 * below;
            for &i0 in cell_0 {
                walk.ids.push(i0);
                walk.extend(root.children.clone());
                walk.ids.pop();
            }
        }
        VisitStats { candidates, accepted: walk.accepted }
    }

    /// One visited chain, exactly: slots and link displacement bits.
    type Visit = (Vec<u32>, Vec<[u64; 3]>);

    fn visit_of(ids: &[u32], links: &[Vec3]) -> Visit {
        (ids.to_vec(), links.iter().map(|d| [d.x, d.y, d.z].map(f64::to_bits)).collect())
    }

    /// The chains one sweep of the visitor reports from `cells`, in order,
    /// plus each cell's statistics — every cell checked against
    /// [`distance_walk`].
    fn sweep_sequence(
        src: &impl TupleSource,
        plan: &PatternPlan,
        rcut: f64,
        cells: impl Iterator<Item = IVec3>,
        rows: &mut LinkRows,
    ) -> (Vec<Visit>, VisitStats) {
        let mut sweep = ChainSweep::new(src, plan, rcut, rows);
        let mut seq = Vec::new();
        let mut total = VisitStats::default();
        for q in cells {
            let from = seq.len();
            let stats = sweep.visit_cell(q, |ids, links| seq.push(visit_of(ids, links)));
            let mut expect = Vec::new();
            let expect_stats =
                distance_walk(src, plan, rcut, q, |ids, links| expect.push(visit_of(ids, links)));
            assert_eq!(seq[from..], expect[..], "visit sequence at base cell {q}");
            assert_eq!(stats, expect_stats, "statistics at base cell {q}");
            total.merge(stats);
        }
        (seq, total)
    }

    /// The chains the visitor reports from `cells`, each stored in its
    /// lexicographically smaller direction and asserted to be visited once,
    /// plus the summed statistics.
    fn chain_set(
        src: &impl TupleSource,
        plan: &PatternPlan,
        rcut: f64,
        cells: impl Iterator<Item = IVec3>,
    ) -> (HashSet<Vec<u32>>, VisitStats) {
        let (seq, stats) = sweep_sequence(src, plan, rcut, cells, &mut LinkRows::default());
        let mut out = HashSet::new();
        for (ids, links) in seq {
            assert_eq!(links.len() + 1, ids.len());
            for (k, d) in links.iter().enumerate() {
                let expect = src.disp(ids[k], ids[k + 1]);
                assert_eq!(*d, [expect.x, expect.y, expect.z].map(f64::to_bits), "link {k}");
                assert!(expect.norm() < rcut);
            }
            let rev: Vec<u32> = ids.iter().rev().copied().collect();
            let key = ids.clone().min(rev);
            assert!(out.insert(key), "chain {ids:?} visited twice");
        }
        (out, stats)
    }

    /// `Σ_q Σ_paths Π_k |c(q + v_k)|` straight from the pattern's path list.
    fn full_product(
        src: &impl TupleSource,
        pattern: &Pattern,
        cells: impl Iterator<Item = IVec3>,
    ) -> u64 {
        cells
            .map(|q| {
                let per_path = pattern.iter().map(|p| {
                    p.offsets().iter().map(|&v| src.atoms_in(q + v).len() as u64).product::<u64>()
                });
                per_path.sum::<u64>()
            })
            .sum()
    }

    /// `Γ*(n)` from the brute-force reference, in `chain_set`'s key form.
    fn reference_chains(
        store: &AtomStore,
        bbox: &SimulationBox,
        rcut: f64,
        n: usize,
    ) -> HashSet<Vec<u32>> {
        match n {
            3 => reference::all_triplets(store, bbox, rcut)
                .into_iter()
                .map(|(i, j, k)| vec![i, j, k])
                .collect(),
            4 => reference::all_quadruplets(store, bbox, rcut).into_iter().map(Vec::from).collect(),
            n => unreachable!("no reference for n = {n}"),
        }
    }

    #[test]
    fn chain_visitor_finds_the_reference_set_once_with_full_product_candidates() {
        let rcut = 1.0;
        // (n, subdivision k, atoms, cloud edge in cutoffs). The reach-2
        // quadruplet patterns run to 10⁶ paths, so that case is a dense
        // one-cutoff cloud on the bounded source only (8 base cells).
        for (n, k, atoms, cloud) in [(3, 1, 60, 4), (3, 2, 60, 4), (4, 1, 40, 4), (4, 2, 9, 1)] {
            let edge = rcut / k as f64;
            let patterns = [
                (sc_core::shift_collapse_reach(n, k), Dedup::Collapsed),
                (sc_core::generate_fs_reach(n, k), Dedup::Guarded),
            ];
            let (store, bbox) = random_gas(atoms, cloud as f64, 7);
            // Plain differences: the cloud moved to the middle of a box so
            // wide that no minimum image wraps, binned into a bounded
            // lattice with full margins on every side.
            let wide = SimulationBox::cubic(16.0);
            let mut moved = store.clone();
            for r in moved.positions_mut() {
                *r += Vec3::splat(6.0);
            }
            let (ext, margin) = (IVec3::splat(cloud * k), IVec3::splat(k * (n as i32 - 1)));
            let lengths = Vec3::splat(edge * ext.x as f64);
            let mut local = GhostLattice::new(Vec3::splat(6.0), lengths, ext, margin, margin);
            local.rebuild(&moved, moved.len());
            let plain = Plain { lat: &local, store: &moved };
            let expect_plain = reference_chains(&moved, &wide, rcut, n);
            assert!(!expect_plain.is_empty(), "n = {n}, k = {k}: empty reference set");
            let owned = || sc_geom::CellRegion::new(IVec3::ZERO, ext).iter();
            for (pattern, dedup) in &patterns {
                let plan = PatternPlan::new(pattern, *dedup);
                assert_eq!(plan.len(), pattern.len());
                let (found, stats) = chain_set(&plain, &plan, rcut, owned());
                assert_eq!(found, expect_plain, "plain n = {n}, k = {k}, {dedup:?}");
                assert_eq!(stats.accepted, expect_plain.len() as u64);
                assert_eq!(stats.candidates, full_product(&plain, pattern, owned()));
                if cloud < 4 {
                    continue;
                }
                // Periodic: a 4-cutoff box holds every reach-k, n ≤ 4
                // offset span without aliasing.
                let mut lat = CellLattice::new(bbox, edge);
                lat.rebuild(&store);
                let periodic = PeriodicSource::new(&lat, &store);
                let expect = reference_chains(&store, &bbox, rcut, n);
                let (found, stats) = chain_set(&periodic, &plan, rcut, lat.cells());
                assert_eq!(found, expect, "periodic n = {n}, k = {k}, {dedup:?}");
                assert_eq!(stats.accepted, expect.len() as u64);
                assert_eq!(stats.candidates, full_product(&periodic, pattern, lat.cells()));
            }
        }
    }

    #[test]
    fn chain_visitor_reaches_n5() {
        // n = 5 chains (ReaxFF-regime statistics): SC(5) and FS(5) must
        // find the same undirected chain set.
        let rcut = 1.0;
        let (store, bbox) = random_gas(14, 5.0, 3);
        let mut lat = CellLattice::new(bbox, rcut);
        lat.rebuild(&store);
        let src = PeriodicSource::new(&lat, &store);
        let sc = PatternPlan::new(&shift_collapse(5), Dedup::Collapsed);
        let fs = PatternPlan::new(&generate_fs(5), Dedup::Guarded);
        let (sc_set, _) = chain_set(&src, &sc, rcut, lat.cells());
        let (fs_set, _) = chain_set(&src, &fs, rcut, lat.cells());
        assert_eq!(sc_set, fs_set);
    }

    #[test]
    fn three_cell_lattice_where_two_steps_name_one_cell() {
        // Three cells per axis: offsets +1 and −2 (FS) and the wrap of +2
        // (SC) land on the same cell, and every row's 27 buckets cover the
        // whole lattice.
        let rcut = 1.0;
        let (lat, store) = setup(45, 3.0, rcut);
        assert_eq!(lat.dims(), IVec3::splat(3));
        let src = PeriodicSource::new(&lat, &store);
        let expect = reference_chains(&store, lat.bbox(), rcut, 3);
        assert!(!expect.is_empty());
        for (pattern, dedup) in
            [(shift_collapse(3), Dedup::Collapsed), (generate_fs(3), Dedup::Guarded)]
        {
            let plan = PatternPlan::new(&pattern, dedup);
            let (found, stats) = chain_set(&src, &plan, rcut, lat.cells());
            assert_eq!(found, expect, "{dedup:?}");
            assert_eq!(stats.candidates, full_product(&src, &pattern, lat.cells()));
        }
    }

    #[test]
    fn split_sweeps_equal_one_whole_sweep() {
        let rcut = 1.0;
        // A rank-shaped frame: 4³ owned cells, SC margins of two ghost cells
        // on the high sides; owned atoms first, ghosts appended behind them.
        let (ext, margin) = (IVec3::splat(4), IVec3::splat(2));
        let (gas, _) = random_gas(330, 6.0, 11);
        let is_owned = |r: &Vec3| r.x < 4.0 && r.y < 4.0 && r.z < 4.0;
        let by_ownership = gas
            .positions()
            .iter()
            .filter(|r| is_owned(r))
            .chain(gas.positions().iter().filter(|r| !is_owned(r)));
        let mut all = AtomStore::single_species();
        for (id, &r) in by_ownership.enumerate() {
            all.push(id as u64, sc_cell::Species::DEFAULT, r, Vec3::ZERO);
        }
        let owned = gas.positions().iter().filter(|r| is_owned(r)).count();
        assert!(owned > 50 && all.len() > owned + 50);
        let lengths = Vec3::new(ext.x as f64, ext.y as f64, ext.z as f64);
        let mut lat = GhostLattice::new(Vec3::ZERO, lengths, ext, IVec3::ZERO, margin);
        let order: Vec<IVec3> = sc_geom::CellRegion::new(IVec3::ZERO, ext).iter().collect();
        let plan = PatternPlan::new(&shift_collapse(3), Dedup::Collapsed);

        lat.rebuild(&all, owned);
        let src = Plain { lat: &lat, store: &all };
        let (whole, whole_stats) =
            sweep_sequence(&src, &plan, rcut, order.iter().copied(), &mut LinkRows::default());
        assert!(whole_stats.accepted > 100);

        // Arbitrary subsets — what a pool lane sweeps — each its own sweep
        // over the same buffers.
        let mut rows = LinkRows::default();
        let mut pieces = Vec::new();
        let mut pieces_stats = VisitStats::default();
        for chunk in [&order[..1], &order[1..9], &order[9..10], &order[10..40], &order[40..]] {
            let (seq, stats) = sweep_sequence(&src, &plan, rcut, chunk.iter().copied(), &mut rows);
            pieces.extend(seq);
            pieces_stats.merge(stats);
        }
        assert_eq!(pieces, whole);
        assert_eq!(pieces_stats, whole_stats);
    }

    #[test]
    fn rows_and_buckets_longer_than_a_byte_do_not_wrap() {
        // 260 atoms within a tenth of a cutoff of each other, in one cell:
        // every row holds 259 links, all in the zero-step bucket. Offsets
        // narrower than the row would wrap; the count is closed-form.
        let rcut = 1.0;
        let bbox = SimulationBox::cubic(4.0);
        let mut store = AtomStore::single_species();
        let (cloud, _) = random_gas(260, 0.05, 5);
        for (id, &r) in cloud.positions().iter().enumerate() {
            store.push(id as u64, sc_cell::Species::DEFAULT, r + Vec3::splat(1.5), Vec3::ZERO);
        }
        let mut lat = CellLattice::new(bbox, rcut);
        lat.rebuild(&store);
        assert_eq!(lat.cell_atoms(IVec3::splat(1)).len(), 260);
        let plan = PatternPlan::new(&shift_collapse(3), Dedup::Collapsed);
        let src = PeriodicSource::new(&lat, &store);
        // Order-sensitive digest of the visit sequence, for both walkers.
        let digest = |h: &mut u64, ids: &[u32], links: &[Vec3]| {
            for word in ids.iter().map(|&i| i as u64).chain(links.iter().map(|d| d.x.to_bits())) {
                *h = (*h ^ word).wrapping_mul(0x100_0000_01b3);
            }
        };
        let (mut seen, mut expect) = (0u64, 0u64);
        let mut rows = LinkRows::default();
        let mut sweep = ChainSweep::new(&src, &plan, rcut, &mut rows);
        let mut stats = VisitStats::default();
        let mut expect_stats = VisitStats::default();
        for q in lat.cells() {
            stats.merge(sweep.visit_cell(q, |ids, links| digest(&mut seen, ids, links)));
            expect_stats.merge(distance_walk(&src, &plan, rcut, q, |ids, links| {
                digest(&mut expect, ids, links)
            }));
        }
        assert_eq!(stats.accepted, 260 * 259 * 258 / 2);
        assert_eq!(stats, expect_stats);
        assert_eq!(seen, expect);
        let at = rows.of_atom[0].start as usize + bucket_of(IVec3::ZERO, 1);
        assert_eq!(rows.bounds[at + 1] - rows.bounds[at], 259);
    }

    #[test]
    fn triplet_trie_keeps_the_first_link_grouping_and_path_order() {
        // The trie is a pure regrouping of the path list: flattening it in
        // walk order gives every path back, first links in first-seen order
        // and the paths under one first link in path order — the order the
        // n = 3 force sums are pinned to.
        for (pattern, dedup) in [
            (shift_collapse(3), Dedup::Collapsed),
            (generate_fs(3), Dedup::Guarded),
            (sc_core::shift_collapse_reach(3, 2), Dedup::Collapsed),
        ] {
            let plan = PatternPlan::new(&pattern, dedup);
            let mut first_links: Vec<[IVec3; 2]> = Vec::new();
            for p in pattern.iter() {
                let link = [p.offset(0), p.offset(1)];
                if !first_links.contains(&link) {
                    first_links.push(link);
                }
            }
            let mut expect: Vec<(Vec<IVec3>, bool)> = Vec::new();
            for link in &first_links {
                for p in pattern.iter().filter(|p| [p.offset(0), p.offset(1)] == *link) {
                    let guard = dedup == Dedup::Guarded || p.is_self_reflective();
                    expect.push((p.offsets().to_vec(), guard));
                }
            }
            let mut walked: Vec<(Vec<IVec3>, bool)> = Vec::new();
            for root in &plan.nodes[..plan.roots] {
                for second in &plan.nodes[root.children.clone()] {
                    for leaf in &plan.nodes[second.children.clone()] {
                        assert!(leaf.children.is_empty());
                        walked.push((vec![root.offset, second.offset, leaf.offset], leaf.guard));
                    }
                }
            }
            assert_eq!(plan.roots, first_links.len());
            assert_eq!(walked, expect);
            for node in &plan.nodes {
                assert_eq!(plan.coverage[node.cell], node.offset);
            }
        }
    }

    #[test]
    fn guard_uses_global_ids_not_slots() {
        // Two atoms whose slot order and id order disagree: the pair must
        // still be visited exactly once under the Guarded mode.
        let bbox = sc_geom::SimulationBox::cubic(4.0);
        let mut store = AtomStore::single_species();
        store.push(100, sc_cell::Species::DEFAULT, Vec3::new(1.0, 1.0, 1.0), Vec3::ZERO);
        store.push(5, sc_cell::Species::DEFAULT, Vec3::new(1.4, 1.0, 1.0), Vec3::ZERO);
        let mut lat = CellLattice::new(bbox, 1.0);
        lat.rebuild(&store);
        let fs = PatternPlan::new(&generate_fs(2), Dedup::Guarded);
        let mut hits = vec![];
        visit_pairs(&lat, &store, &fs, 1.0, |i, j, _, _| hits.push((i, j)));
        assert_eq!(hits.len(), 1);
        // The accepted direction runs from the smaller gid (atom slot 1).
        assert_eq!(hits[0], (1, 0));
    }

    #[test]
    fn plan_metadata() {
        let p = PatternPlan::new(&shift_collapse(2), Dedup::Collapsed);
        assert_eq!(p.n(), 2);
        assert_eq!(p.len(), 14);
        assert!(!p.is_empty());
    }

    /// The scalar pair loop the batched kernel replaced, kept as the
    /// semantic reference: identical candidate/accepted counters and
    /// bitwise-identical displacements are the contract.
    fn scalar_pairs(
        src: &impl TupleSource,
        pattern: &Pattern,
        dedup: Dedup,
        rcut: f64,
        q: IVec3,
        f: &mut impl FnMut(u32, u32, Vec3, f64),
    ) -> VisitStats {
        let rc2 = rcut * rcut;
        let mut stats = VisitStats::default();
        for path in pattern.iter() {
            let guard = dedup == Dedup::Guarded || path.is_self_reflective();
            let cell_i = src.atoms_in(q + path.offset(0));
            let cell_j = src.atoms_in(q + path.offset(1));
            for &i in cell_i {
                for &j in cell_j {
                    stats.candidates += 1;
                    if i == j || (guard && src.gid(i) > src.gid(j)) {
                        continue;
                    }
                    let d = src.disp(i, j);
                    let r2 = d.norm_sq();
                    if r2 < rc2 {
                        stats.accepted += 1;
                        f(i, j, d, r2.sqrt());
                    }
                }
            }
        }
        stats
    }

    #[test]
    fn batched_pairs_match_scalar_reference_bitwise() {
        let rcut = 1.1;
        let (lat, store) = setup(300, 4.0, rcut); // ρ_cell high enough to span chunks
        let src = PeriodicSource::new(&lat, &store);
        for (pattern, dedup) in
            [(shift_collapse(2), Dedup::Collapsed), (generate_fs(2), Dedup::Guarded)]
        {
            let plan = PatternPlan::new(&pattern, dedup);
            let mut batched: Vec<(u32, u32, [u64; 3], u64)> = vec![];
            let mut scalar: Vec<(u32, u32, [u64; 3], u64)> = vec![];
            let mut total_b = VisitStats::default();
            let mut total_s = VisitStats::default();
            for q in lat.cells() {
                total_b.merge(visit_pairs_in_cell_src(&src, &plan, rcut, q, |i, j, d, r| {
                    batched.push((
                        i,
                        j,
                        [d.x.to_bits(), d.y.to_bits(), d.z.to_bits()],
                        r.to_bits(),
                    ));
                }));
                total_s.merge(scalar_pairs(&src, &pattern, dedup, rcut, q, &mut |i, j, d, r| {
                    scalar.push((i, j, [d.x.to_bits(), d.y.to_bits(), d.z.to_bits()], r.to_bits()));
                }));
            }
            assert_eq!(total_b, total_s, "counters must match the scalar loop exactly");
            // Chunking may reorder visits within a cell; the visited
            // multiset with bitwise displacements must be identical.
            batched.sort_unstable();
            scalar.sort_unstable();
            assert_eq!(batched, scalar);
        }
    }

    /// Runs the lane kernel over `at` (any length; padded here the way the
    /// kernel's callers pad) and returns `[dx, dy, dz, r²]` per atom as bits.
    fn kernel_bits(origin: Vec3, rule: DispRule, at: &[Vec3]) -> Vec<[u64; 4]> {
        let padded = at.len().next_multiple_of(LANE_BLOCK);
        let lane = |axis: usize| {
            let mut lane: Vec<f64> = at.iter().map(|p| p[axis]).collect();
            lane.resize(padded, 0.0);
            lane
        };
        let (x, y, z) = (lane(0), lane(1), lane(2));
        let mut out = [(); 4].map(|()| vec![f64::NAN; padded]);
        let [dx, dy, dz, r2] = &mut out;
        lane_loop(origin, rule, [&x, &y, &z], [dx, dy, dz, r2]);
        (0..at.len()).map(|k| [dx[k], dy[k], dz[k], r2[k]].map(f64::to_bits)).collect()
    }

    #[test]
    fn lane_kernel_matches_scalar_min_image_bitwise() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(11);
        let bbox = SimulationBox::new(Vec3::new(4.0, 5.5, 7.25));
        let l = bbox.lengths();
        let periodic = DispRule { l, half: l * 0.5 };
        let plain = DispRule { l: Vec3::ZERO, half: Vec3::splat(f64::INFINITY) };
        let origin = Vec3::new(1.0, 0.0, 3.5);
        // The edges: d = ±L/2 exactly (kept), one ulp beyond (wrapped), the
        // origin itself, and a −0.0 coordinate against the origin's +0.0.
        let edges = [
            origin + Vec3::new(2.0, 2.75, 3.625),
            origin - Vec3::new(2.0, 2.75, 3.625),
            origin + Vec3::new(2.0000000000000004, 2.7500000000000004, 3.6250000000000004),
            origin - Vec3::new(2.0000000000000004, 2.7500000000000004, 3.6250000000000004),
            origin,
            Vec3::new(1.0, -0.0, 3.5),
        ];
        // One atom, one short of / exactly / one past four blocks, and many.
        for m in [1, 31, 32, 33, 200] {
            let mut at: Vec<Vec3> = (0..m)
                .map(|_| {
                    Vec3::new(
                        rng.gen_range(0.0..l.x),
                        rng.gen_range(0.0..l.y),
                        rng.gen_range(0.0..l.z),
                    )
                })
                .collect();
            for (slot, &edge) in at.iter_mut().rev().zip(&edges) {
                *slot = edge;
            }
            let scalar = |d: Vec3| [d.x, d.y, d.z, d.norm_sq()].map(f64::to_bits);
            let wrapped: Vec<_> = at.iter().map(|&p| scalar(bbox.min_image(origin, p))).collect();
            assert_eq!(kernel_bits(origin, periodic, &at), wrapped, "min-image, {m} lanes");
            let differences: Vec<_> = at.iter().map(|&p| scalar(p - origin)).collect();
            assert_eq!(kernel_bits(origin, plain, &at), differences, "plain, {m} lanes");
        }
        // The −0.0 edge did produce a −0.0 displacement under the plain rule.
        assert_eq!(kernel_bits(origin, plain, &edges)[5][1], (-0.0f64).to_bits());
    }

    /// Builds the Verlet list over `cells` of `src` and checks it against
    /// `pairs`, the brute-force pair set: every row exactly the atoms in
    /// range of its atom — buckets in [`bucket_of`] order, each in cell
    /// order, [`TupleSource::disp`]'s bits — so every directed pair is there
    /// once, with its reverse's displacement negated; the rows of a cell
    /// back to back in cell order, cells in fill order; and the build
    /// statistics those of a full-shell pair search.
    fn check_row_table(
        src: &impl TupleSource,
        plan: &PatternPlan,
        rcut: f64,
        cells: &[IVec3],
        pairs: &HashSet<(u32, u32)>,
    ) {
        use crate::methods::NeighborList;
        let mut list = NeighborList::default();
        let stats = list.build_from_cells(src, cells.iter().copied(), src.slots(), plan, rcut);
        let steps = || IVec3::box_iter(IVec3::splat(-plan.reach), IVec3::splat(plan.reach));
        let mut directed = HashSet::new();
        let mut candidates = 0;
        let mut filled_to = None;
        for &q in cells {
            let around: usize = steps().map(|v| src.atoms_in(q + v).len()).sum();
            candidates += (src.atoms_in(q).len() * around) as u64;
            for &i in src.atoms_in(q) {
                let expect: Vec<(u32, Vec3)> = steps()
                    .flat_map(|v| src.atoms_in(q + v))
                    .filter(|&&j| j != i && src.disp(i, j).norm_sq() < rcut * rcut)
                    .map(|&j| (j, src.disp(i, j)))
                    .collect();
                let row = list.neighbors(i);
                assert_eq!(row.len(), expect.len(), "row of atom {i} in cell {q}");
                for (&(j, d), &(want_j, want_d)) in row.iter().zip(&expect) {
                    assert_eq!(j, want_j, "row order of atom {i} in cell {q}");
                    assert_eq!(visit_of(&[], &[d]), visit_of(&[], &[want_d]));
                    assert!(directed.insert((i, j)), "entry ({i}, {j}) twice");
                    let back = list.neighbors(j).iter().find(|&&(k, _)| k == i);
                    let back = back.unwrap_or_else(|| panic!("no entry ({j}, {i})")).1;
                    assert_eq!(visit_of(&[], &[back]), visit_of(&[], &[-d]), "d_ji = −d_ij");
                }
                let at = row.as_ptr_range();
                assert_eq!(filled_to.unwrap_or(at.start), at.start, "row of atom {i} is next");
                filled_to = Some(at.end);
            }
        }
        let both_ways: HashSet<(u32, u32)> =
            pairs.iter().flat_map(|&(i, j)| [(i, j), (j, i)]).collect();
        assert_eq!(directed, both_ways);
        assert_eq!(list.entry_count(), both_ways.len());
        assert_eq!(stats, VisitStats { candidates, accepted: pairs.len() as u64 });
    }

    #[test]
    fn row_table_list_is_the_reference_pair_set_in_cell_order() {
        let rcut = 1.0;
        // A 3-cutoff box: three cells per axis at subdivision 1, so every
        // row's 27 buckets cover the whole lattice. One cell is emptied and
        // one holds more atoms than a lane block (and than a pair batch).
        let bbox = SimulationBox::cubic(3.0);
        let (gas, _) = random_gas(120, 3.0, 9);
        let (crowd, _) = random_gas(BATCH + 5, 0.9, 5);
        let in_emptied = |r: &Vec3| r.x >= 2.0 && r.y >= 2.0 && r.z < 1.0;
        let in_crowded = |r: &Vec3| r.x < 1.0 && r.y < 1.0 && r.z < 1.0;
        let kept = gas.positions().iter().filter(|r| !in_emptied(r) && !in_crowded(r));
        let mut store = AtomStore::single_species();
        for (id, &r) in kept.chain(crowd.positions()).enumerate() {
            store.push(id as u64, sc_cell::Species::DEFAULT, r, Vec3::ZERO);
        }
        let pairs = reference::all_pairs(&store, &bbox, rcut);
        assert!(pairs.len() > 100);
        // The same cloud under plain differences: moved to the middle of a
        // box so wide that no minimum image wraps.
        let mut moved = store.clone();
        for r in moved.positions_mut() {
            *r += Vec3::splat(6.0);
        }
        let plain_pairs = reference::all_pairs(&moved, &SimulationBox::cubic(16.0), rcut);
        for k in [1, 2] {
            let plan = PatternPlan::new(&sc_core::generate_fs_reach(2, k), Dedup::Guarded);
            let mut lat = CellLattice::new(bbox, rcut / k as f64);
            lat.rebuild(&store);
            assert_eq!(lat.dims(), IVec3::splat(3 * k));
            assert!(lat.cells().any(|q| lat.cell_atoms(q).is_empty()));
            assert!(k > 1 || lat.cells().any(|q| lat.cell_atoms(q).len() > BATCH));
            let cells: Vec<IVec3> = lat.cells().collect();
            check_row_table(&PeriodicSource::new(&lat, &store), &plan, rcut, &cells, &pairs);

            // A bounded lattice with margins on every side, all of it swept
            // — a rank's list covers its ghost cells too.
            let (ext, margin) = (IVec3::splat(3 * k), IVec3::splat(k));
            let lengths = Vec3::splat(3.0 * rcut);
            let mut local = GhostLattice::new(Vec3::splat(6.0), lengths, ext, margin, margin);
            local.rebuild(&moved, moved.len());
            let cells: Vec<IVec3> = local.extended_region().iter().collect();
            check_row_table(
                &Plain { lat: &local, store: &moved },
                &plan,
                rcut,
                &cells,
                &plain_pairs,
            );
        }
    }

    #[test]
    fn grown_rows_fill_a_sparse_neighbourhood_like_fresh_rows() {
        // One table fills a dense cloud, then the same cloud thinned. In a
        // 3-cutoff box every gather is the whole cloud, so the lanes past
        // each sparse gather hold dense atoms of the same box, many within
        // range of a sparse atom, and none of them may become a link.
        let rcut = 1.0;
        let (dense, bbox) = random_gas(200, 3.0, 7);
        let mut sparse = AtomStore::single_species();
        for (id, &r) in dense.positions().iter().enumerate().step_by(10) {
            sparse.push(id as u64, sc_cell::Species::DEFAULT, r, Vec3::ZERO);
        }
        let plan = PatternPlan::new(&generate_fs(2), Dedup::Guarded);
        let bits = |rows: &LinkRows| -> Vec<(u32, [u64; 3])> {
            rows.links.iter().map(|&(j, d)| (j, [d.x, d.y, d.z].map(f64::to_bits))).collect()
        };
        let mut grown = LinkRows::default();
        for store in [&dense, &sparse] {
            let mut lat = CellLattice::new(bbox, rcut);
            lat.rebuild(store);
            let src = PeriodicSource::new(&lat, store);
            let mut fresh = LinkRows::default();
            let stats = grown.build(&src, &plan, rcut, lat.cells());
            assert_eq!(stats, fresh.build(&src, &plan, rcut, lat.cells()));
            assert_eq!(grown.bounds, fresh.bounds, "{} atoms: bucket bounds", store.len());
            assert_eq!(bits(&grown), bits(&fresh), "{} atoms: links", store.len());
            for i in 0..store.len() as u32 {
                assert_eq!(grown.row_range(i), fresh.row_range(i), "row of atom {i}");
            }
            let in_range = |&(j, d): &(u32, Vec3)| (j as usize) < store.len() && d.norm() < rcut;
            assert!(grown.links.iter().all(in_range));
        }
        assert!(grown.near.len < grown.near.slot.len(), "the sparse gathers left no stale lane");
    }

    #[test]
    fn batched_kernels_are_exact_on_local_frames() {
        // A plain-difference (no-PBC) source exercises the dead-correction
        // encoding of the displacement rule: l = 0, half = ∞ must be a
        // bitwise no-op, never NaN.
        let rcut = 1.0;
        let (store, _) = random_gas(1200, 4.0, 7); // ≥ BATCH_MIN atoms per cell
        let mut lat = GhostLattice::new(
            Vec3::ZERO,
            Vec3::splat(4.0),
            IVec3::splat(4),
            IVec3::ZERO,
            IVec3::ZERO,
        );
        lat.rebuild(&store, store.len());
        let src = Plain { lat: &lat, store: &store };
        let plan = PatternPlan::new(&shift_collapse(2), Dedup::Collapsed);
        let mut seen = 0u64;
        for q in sc_geom::CellRegion::new(IVec3::ZERO, IVec3::splat(4)).iter() {
            visit_pairs_in_cell_src(&src, &plan, rcut, q, |i, j, d, r| {
                seen += 1;
                let expect = src.disp(i, j);
                assert_eq!(d.x.to_bits(), expect.x.to_bits());
                assert_eq!(d.y.to_bits(), expect.y.to_bits());
                assert_eq!(d.z.to_bits(), expect.z.to_bits());
                assert!(r.is_finite());
            });
        }
        assert!(seen > 0);
    }
}
