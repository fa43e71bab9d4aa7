//! Intersectional group layouts: map tuples of protected attributes to
//! the flat cell ids the stream stack monitors.
//!
//! The engines are deliberately **axis-agnostic**: they monitor `K` flat
//! group cells ([`StreamConfig::groups`](crate::StreamConfig::groups)) and
//! never ask where a cell id came from. `GroupLayout` is the deployment-
//! side companion that gives those ids intersectional meaning — it fixes
//! an ordered list of protected axes (say `sex × race`, sizes `[2, 4]`)
//! and flattens each attribute combination into one cell id, row-major:
//! `cell = ((a_0 * n_1) + a_1) * n_2 + a_2 …`. Feed the flattened id into
//! [`StreamTuple::group`](crate::StreamTuple::group) and every per-cell
//! structure — counters, conformance profiles, Page–Hinkley detectors,
//! worst-pair DI* — monitors the *intersection* cells, which is exactly
//! the reading Salazar et al.'s subgroup-drift setting shows pairwise
//! monitoring of any single collapsed axis cannot produce.
//!
//! Because the windowed counters are additive, a parent axis's marginal
//! cells are recovered exactly by summation ([`GroupLayout::marginal`]):
//! the intersection cells of a layout always sum to their parents, with
//! no second pass over the stream.

use crate::{Result, StreamError};
use cf_telemetry::WindowCounters;

/// An ordered product of protected axes flattened into `0..K` cell ids
/// (row-major, last axis fastest).
///
/// ```
/// use cf_stream::GroupLayout;
///
/// // sex (2) × race (4) → K = 8 intersection cells.
/// let layout = GroupLayout::new(vec![2, 4])?;
/// assert_eq!(layout.cells(), 8);
/// assert_eq!(layout.cell_of(&[1, 2])?, 6);
/// assert_eq!(layout.coords_of(6), vec![1, 2]);
/// # Ok::<(), cf_stream::StreamError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupLayout {
    axes: Vec<usize>,
    cells: usize,
}

impl GroupLayout {
    /// Build a layout from the per-axis cardinalities. The product of the
    /// sizes is the `K` to configure the engine with
    /// ([`StreamConfig::groups`](crate::StreamConfig::groups)).
    ///
    /// # Errors
    /// [`StreamError::Schema`] when there are no axes, an axis is empty,
    /// or the product exceeds 256 (cell ids travel as `u8`).
    pub fn new(axes: Vec<usize>) -> Result<Self> {
        if axes.is_empty() {
            return Err(StreamError::Schema(
                "a group layout needs at least one axis".into(),
            ));
        }
        let mut cells: usize = 1;
        for (i, &n) in axes.iter().enumerate() {
            if n == 0 {
                return Err(StreamError::Schema(format!(
                    "axis {i} of the group layout has zero cells"
                )));
            }
            cells = cells.saturating_mul(n);
            if cells > 256 {
                return Err(StreamError::Schema(format!(
                    "the axis product exceeds 256 cells (group ids are u8); \
                     got {:?}",
                    axes
                )));
            }
        }
        Ok(GroupLayout { axes, cells })
    }

    /// The flattened cell count `K` — the value for
    /// [`StreamConfig::groups`](crate::StreamConfig::groups).
    pub fn cells(&self) -> usize {
        self.cells
    }

    /// The per-axis cardinalities this layout was built from.
    pub fn axes(&self) -> &[usize] {
        &self.axes
    }

    /// Flatten one combination of per-axis attribute values into its cell
    /// id (row-major, last axis fastest).
    ///
    /// # Errors
    /// [`StreamError::Schema`] when the coordinate count disagrees with
    /// the axis count or any coordinate is out of its axis's range.
    pub fn cell_of(&self, coords: &[usize]) -> Result<u8> {
        if coords.len() != self.axes.len() {
            return Err(StreamError::Schema(format!(
                "{} coordinates for a {}-axis layout",
                coords.len(),
                self.axes.len()
            )));
        }
        let mut cell = 0usize;
        for (i, (&c, &n)) in coords.iter().zip(&self.axes).enumerate() {
            if c >= n {
                return Err(StreamError::Schema(format!(
                    "coordinate {c} is outside axis {i}'s 0..{n} range"
                )));
            }
            cell = cell * n + c;
        }
        Ok(cell as u8)
    }

    /// Recover the per-axis coordinates of a flattened cell id (the
    /// inverse of [`GroupLayout::cell_of`]; ids are taken modulo `K`).
    pub fn coords_of(&self, cell: u8) -> Vec<usize> {
        let mut rest = usize::from(cell) % self.cells;
        let mut coords = vec![0usize; self.axes.len()];
        for (slot, &n) in coords.iter_mut().zip(&self.axes).rev() {
            *slot = rest % n;
            rest /= n;
        }
        coords
    }

    /// Collapse per-cell windowed counters onto one axis: entry `a` of the
    /// result sums every intersection cell whose coordinate on `axis` is
    /// `a`. Exact, because every [`WindowCounters`] field is additive — the
    /// marginal a binary deployment would have monitored directly is
    /// recomputed from the intersection cells with no second pass.
    ///
    /// # Errors
    /// [`StreamError::Schema`] when `axis` is out of range or the counter
    /// slice does not have one entry per cell.
    pub fn marginal(&self, counts: &[WindowCounters], axis: usize) -> Result<Vec<WindowCounters>> {
        if axis >= self.axes.len() {
            return Err(StreamError::Schema(format!(
                "axis {axis} is outside the {}-axis layout",
                self.axes.len()
            )));
        }
        if counts.len() != self.cells {
            return Err(StreamError::Schema(format!(
                "{} counter cells for a {}-cell layout",
                counts.len(),
                self.cells
            )));
        }
        let mut merged = vec![WindowCounters::default(); self.axes[axis]];
        for (cell, c) in counts.iter().enumerate() {
            merged[self.coords_of(cell as u8)[axis]].merge(c);
        }
        Ok(merged)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flatten_and_unflatten_are_inverse() {
        let layout = GroupLayout::new(vec![2, 3, 2]).unwrap();
        assert_eq!(layout.cells(), 12);
        for cell in 0..12u8 {
            let coords = layout.coords_of(cell);
            assert_eq!(layout.cell_of(&coords).unwrap(), cell);
        }
        // Row-major, last axis fastest.
        assert_eq!(layout.cell_of(&[0, 0, 1]).unwrap(), 1);
        assert_eq!(layout.cell_of(&[0, 1, 0]).unwrap(), 2);
        assert_eq!(layout.cell_of(&[1, 0, 0]).unwrap(), 6);
    }

    #[test]
    fn bad_layouts_and_coords_are_typed_errors() {
        assert!(GroupLayout::new(vec![]).is_err());
        assert!(GroupLayout::new(vec![4, 0]).is_err());
        assert!(GroupLayout::new(vec![32, 16]).is_err(), "512 > 256 cells");
        let layout = GroupLayout::new(vec![2, 4]).unwrap();
        assert!(layout.cell_of(&[1]).is_err());
        assert!(layout.cell_of(&[1, 4]).is_err());
    }

    #[test]
    fn marginals_sum_the_intersection_cells_exactly() {
        let layout = GroupLayout::new(vec![2, 3]).unwrap();
        let counts: Vec<WindowCounters> = (0..6)
            .map(|i| WindowCounters {
                total: 10 + i,
                selected: i,
                violations: i / 2,
                labeled: 5 + i,
                label_positive: 2 + i,
                true_positive: 1 + i,
                false_positive: i,
            })
            .collect();
        let sex = layout.marginal(&counts, 0).unwrap();
        assert_eq!(sex.len(), 2);
        assert_eq!(sex[0].total, 10 + 11 + 12);
        assert_eq!(sex[1].total, 13 + 14 + 15);
        let race = layout.marginal(&counts, 1).unwrap();
        assert_eq!(race.len(), 3);
        assert_eq!(race[1].selected, 1 + 4);
        assert_eq!(race[2].labeled, (5 + 2) + (5 + 5));
        // Every marginal's grand total equals the intersection total.
        let grand: u64 = counts.iter().map(|c| c.total).sum();
        assert_eq!(sex.iter().map(|c| c.total).sum::<u64>(), grand);
        assert_eq!(race.iter().map(|c| c.total).sum::<u64>(), grand);
        assert!(layout.marginal(&counts, 2).is_err());
        assert!(layout.marginal(&counts[..5], 0).is_err());
    }
}
