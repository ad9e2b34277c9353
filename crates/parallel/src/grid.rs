//! Spatial decomposition of the periodic box over a grid of ranks.

use crate::error::SetupError;
use sc_geom::{IVec3, SimulationBox, Vec3};
use serde::{Deserialize, Serialize};

/// A `px × py × pz` grid of ranks, each owning an equal rectangular
/// sub-volume (`L/p` per axis) of the periodic simulation box: the paper's
/// uniform spatial decomposition (§1/§3.1.3).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RankGrid {
    pdims: IVec3,
    bbox: SimulationBox,
}

impl RankGrid {
    /// Creates a rank grid over `bbox`.
    ///
    /// # Panics
    /// Panics if any `pdims` component is < 1; [`RankGrid::try_new`] is the
    /// non-panicking form.
    pub fn new(pdims: IVec3, bbox: SimulationBox) -> Self {
        Self::try_new(pdims, bbox).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Creates a rank grid over `bbox`, rejecting degenerate dimensions.
    ///
    /// # Errors
    /// [`SetupError::BadRankGrid`] if any `pdims` component is < 1.
    pub fn try_new(pdims: IVec3, bbox: SimulationBox) -> Result<Self, SetupError> {
        if pdims.x < 1 || pdims.y < 1 || pdims.z < 1 {
            return Err(SetupError::BadRankGrid { pdims: [pdims.x, pdims.y, pdims.z] });
        }
        Ok(RankGrid { pdims, bbox })
    }

    /// Ranks per axis.
    #[inline]
    pub fn pdims(&self) -> IVec3 {
        self.pdims
    }

    /// Total rank count P.
    #[inline]
    pub fn len(&self) -> usize {
        self.pdims.product() as usize
    }

    /// Whether the grid is trivial (never: P ≥ 1 by construction).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The global periodic box.
    #[inline]
    pub fn bbox(&self) -> &SimulationBox {
        &self.bbox
    }

    /// Edge lengths of every rank's sub-box (`L/p` per axis).
    pub fn rank_box_lengths(&self) -> Vec3 {
        let l = self.bbox.lengths();
        Vec3::new(l.x / self.pdims.x as f64, l.y / self.pdims.y as f64, l.z / self.pdims.z as f64)
    }

    /// Linear rank id of grid block `b` (periodically wrapped).
    #[inline]
    pub fn rank_of_block(&self, b: IVec3) -> usize {
        let b = b.rem_euclid(self.pdims);
        ((b.x * self.pdims.y + b.y) * self.pdims.z + b.z) as usize
    }

    /// Grid block of linear rank id.
    #[inline]
    pub fn block_of_rank(&self, rank: usize) -> IVec3 {
        let r = rank as i32;
        let z = r % self.pdims.z;
        let y = (r / self.pdims.z) % self.pdims.y;
        let x = r / (self.pdims.z * self.pdims.y);
        IVec3::new(x, y, z)
    }

    /// The rank owning a (wrapped) global position.
    pub fn owner_of(&self, r: Vec3) -> usize {
        let r = self.bbox.wrap(r);
        let sub = self.rank_box_lengths();
        let b = IVec3::new((r.x / sub.x) as i32, (r.y / sub.y) as i32, (r.z / sub.z) as i32)
            .min(self.pdims - IVec3::splat(1));
        self.rank_of_block(b)
    }

    /// Real-space low corner of a rank's sub-box.
    pub fn origin_of(&self, rank: usize) -> Vec3 {
        let b = self.block_of_rank(rank);
        let sub = self.rank_box_lengths();
        Vec3::new(b.x as f64 * sub.x, b.y as f64 * sub.y, b.z as f64 * sub.z)
    }

    /// The neighbour rank one step along `axis` in direction `dir` (±1),
    /// with periodic wrap. `P = 1` per axis makes a rank its own neighbour —
    /// ghost exchange then produces the rank's own periodic images, exactly
    /// as a periodic serial code would.
    pub fn neighbor(&self, rank: usize, axis: usize, dir: i32) -> usize {
        debug_assert!(dir == 1 || dir == -1);
        let mut b = self.block_of_rank(rank);
        b[axis] += dir;
        self.rank_of_block(b)
    }

    /// Whether stepping from `rank` along `axis` in `dir` crosses the
    /// periodic boundary — the sender must then shift the coordinates it
    /// sends by ∓L along that axis so they land in the receiver's frame.
    pub fn crosses_wrap(&self, rank: usize, axis: usize, dir: i32) -> bool {
        let b = self.block_of_rank(rank);
        let t = b[axis] + dir;
        t < 0 || t >= self.pdims[axis]
    }

    /// The coordinate shift to apply to positions sent from `rank` along
    /// `axis` in `dir` (zero unless the hop crosses the wrap).
    pub fn send_shift(&self, rank: usize, axis: usize, dir: i32) -> Vec3 {
        let mut s = Vec3::ZERO;
        if self.crosses_wrap(rank, axis, dir) {
            s[axis] = -(dir as f64) * self.bbox.lengths()[axis];
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid223() -> RankGrid {
        RankGrid::new(IVec3::new(2, 2, 3), SimulationBox::new(Vec3::new(8.0, 8.0, 12.0)))
    }

    #[test]
    fn rank_block_roundtrip() {
        let g = grid223();
        assert_eq!(g.len(), 12);
        for r in 0..g.len() {
            assert_eq!(g.rank_of_block(g.block_of_rank(r)), r);
        }
    }

    #[test]
    fn owner_of_positions() {
        let g = grid223();
        assert_eq!(g.owner_of(Vec3::new(0.1, 0.1, 0.1)), 0);
        // Sub-box is 4×4×4; (5, 1, 1) is block (1,0,0).
        assert_eq!(g.owner_of(Vec3::new(5.0, 1.0, 1.0)), g.rank_of_block(IVec3::new(1, 0, 0)));
        // Positions wrap first.
        assert_eq!(g.owner_of(Vec3::new(-0.5, 0.0, 0.0)), g.rank_of_block(IVec3::new(1, 0, 0)));
        // Every owner's box actually contains the wrapped point.
        let sub = g.rank_box_lengths();
        for p in [Vec3::new(7.9, 3.9, 11.9), Vec3::new(4.0, 4.0, 8.0), Vec3::new(2.2, 6.6, 5.5)] {
            let r = g.owner_of(p);
            let o = g.origin_of(r);
            let w = g.bbox().wrap(p);
            for a in 0..3 {
                assert!(w[a] >= o[a] - 1e-12 && w[a] < o[a] + sub[a] + 1e-12);
            }
        }
    }

    #[test]
    fn neighbors_wrap() {
        let g = grid223();
        let r0 = 0; // block (0,0,0)
        let rx = g.neighbor(r0, 0, -1);
        assert_eq!(g.block_of_rank(rx), IVec3::new(1, 0, 0)); // wrapped
        assert!(g.crosses_wrap(r0, 0, -1));
        assert!(!g.crosses_wrap(r0, 0, 1));
        // Crossing −x adds +Lx to sent coordinates.
        let s = g.send_shift(r0, 0, -1);
        assert_eq!(s, Vec3::new(8.0, 0.0, 0.0));
        assert_eq!(g.send_shift(r0, 0, 1), Vec3::ZERO);
    }

    #[test]
    fn degenerate_grid_is_rejected_typed() {
        let bbox = SimulationBox::cubic(5.0);
        let err = RankGrid::try_new(IVec3::new(0, 1, 1), bbox).unwrap_err();
        assert!(matches!(err, SetupError::BadRankGrid { pdims: [0, 1, 1] }));
        assert!(RankGrid::try_new(IVec3::splat(2), bbox).is_ok());
    }

    #[test]
    fn single_rank_is_its_own_neighbor() {
        let g = RankGrid::new(IVec3::splat(1), SimulationBox::cubic(5.0));
        assert_eq!(g.neighbor(0, 0, 1), 0);
        assert!(g.crosses_wrap(0, 2, -1));
        assert_eq!(g.send_shift(0, 2, -1).z, 5.0);
    }

    #[test]
    fn origins_tile_the_box() {
        let g = grid223();
        let sub = g.rank_box_lengths();
        assert_eq!(sub, Vec3::new(4.0, 4.0, 4.0));
        let mut origins: Vec<_> = (0..g.len()).map(|r| g.origin_of(r).to_array()).collect();
        origins.sort_by(|a, b| a.partial_cmp(b).unwrap());
        origins.dedup_by(|a, b| a == b);
        assert_eq!(origins.len(), 12);
    }
}
