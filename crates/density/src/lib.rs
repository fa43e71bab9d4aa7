//! # cf-density
//!
//! Kernel density estimation and the paper's Algorithm 3.
//!
//! §III-C of the paper strengthens conformance constraints by filtering each
//! (group, label) partition down to its densest tuples before profiling:
//! a tree-based non-parametric KDE scores every tuple, the partition is
//! sorted by density, and the top-k survive. This crate provides
//!
//! * [`Kde`] — exact Gaussian-kernel density estimation with Scott's-rule
//!   bandwidth on standardised attributes;
//! * [`KdTree`] + [`TreeKde`] — a k-d tree with truncated-kernel range
//!   pruning, the `O(m log n)`-flavoured path the paper cites for higher
//!   dimensions;
//! * [`density_filter`] — **Algorithm 3** itself, returning the retained
//!   tuple indices per cell;
//! * [`densest_in_cell`] — Algorithm 3 for one (group, label) cell, so a
//!   caller that profiles only some cells (ConFair boosts at most two of
//!   the four) pays only for those. `density_filter` is this function
//!   mapped over [`cf_data::CellIndex::binary_cells`].
//!
//! Cells below [`FilterConfig::tree_threshold`] rows take the exact
//! `O(n²)` path, [`Kde::self_densities`]. The Gaussian kernel is
//! symmetric, so that path makes one pass over unordered pairs `i < j`
//! and adds each kernel value to both points' sums: half the `exp` calls
//! of a per-point loop, with every sum still accumulated in ascending
//! partner order, so the densities are bit-identical to
//! [`Kde::densities`] evaluated on the training matrix.

pub mod filter;
pub mod kde;
pub mod kdtree;

pub use filter::{densest_in_cell, density_filter, density_filter_dataset, FilterConfig};
pub use kde::Kde;
pub use kdtree::{KdTree, TreeKde};
