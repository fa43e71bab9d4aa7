//! **Algorithm 3** — density filtering for stronger conformance constraints.
//!
//! For each class `i` of the target attribute, the majority subset `Wᵢ` and
//! minority subset `Uᵢ` are scored with a KDE over their numeric attributes,
//! sorted in descending density, and the densest `k` tuples of each are kept.
//! The output `D′ ⊂ D` is what the profiling step (conformance-constraint
//! discovery) runs on; training data is untouched — the intervention stays
//! non-invasive.

use crate::{kde::Kde, kdtree::TreeKde};
use cf_data::{CellIndex, Dataset};

/// Configuration for [`density_filter`].
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct FilterConfig {
    /// Fraction of each (group, label) cell to keep. The paper uses
    /// `k = 0.2·n` for every dataset (§IV "Algorithm parameters").
    pub keep_fraction: f64,
    /// Use the k-d-tree-accelerated KDE above this cell size; below it the
    /// exact estimator is cheaper (no tree build cost).
    pub tree_threshold: usize,
}

impl Default for FilterConfig {
    fn default() -> Self {
        Self {
            keep_fraction: 0.2,
            tree_threshold: 512,
        }
    }
}

impl FilterConfig {
    /// The paper's configuration (keep the densest 20% of every cell).
    pub fn paper_default() -> Self {
        Self::default()
    }

    /// Keep a different fraction.
    pub fn with_fraction(keep_fraction: f64) -> Self {
        assert!(
            keep_fraction > 0.0 && keep_fraction <= 1.0,
            "keep fraction must be in (0, 1]"
        );
        Self {
            keep_fraction,
            ..Self::default()
        }
    }
}

/// Run Algorithm 3, returning the retained tuple indices (into `ds`),
/// grouped per (group, label) cell in [`CellIndex::binary_cells`] order.
pub fn density_filter(ds: &Dataset, config: FilterConfig) -> Vec<(CellIndex, Vec<usize>)> {
    CellIndex::binary_cells()
        .into_iter()
        .map(|cell| (cell, densest_in_cell(ds, cell, config)))
        .collect()
}

/// Algorithm 3 for one (group, label) cell: the indices (into `ds`,
/// ascending) of the cell's densest `⌈keep_fraction·n⌉` members. An empty
/// cell yields an empty vector. Callers that profile only some cells
/// (ConFair boosts at most two) call this per cell instead of paying for
/// all four through [`density_filter`].
///
/// # Panics
/// Panics on non-finite feature values in the cell (the density sort
/// has no order for NaN); interventions reject such training sets first.
pub fn densest_in_cell(ds: &Dataset, cell: CellIndex, config: FilterConfig) -> Vec<usize> {
    let members = ds.cell_indices(cell);
    if members.is_empty() {
        return members;
    }
    let k = ((members.len() as f64) * config.keep_fraction).ceil() as usize;
    let k = k.clamp(1, members.len());
    if k == members.len() {
        return members;
    }
    let x = ds.numeric_matrix(Some(&members));
    let densities = if members.len() >= config.tree_threshold {
        TreeKde::fit(&x).self_densities()
    } else {
        Kde::fit(&x).self_densities()
    };
    // Sort cell members by descending density; ties broken by original
    // index for determinism.
    let mut ranked: Vec<usize> = (0..members.len()).collect();
    ranked.sort_by(|&a, &b| {
        densities[b]
            .partial_cmp(&densities[a])
            .expect("NaN density")
            .then(members[a].cmp(&members[b]))
    });
    let mut chosen: Vec<usize> = ranked[..k].iter().map(|&r| members[r]).collect();
    chosen.sort_unstable();
    chosen
}

/// Algorithm 3 as a dataset transform: `D′ ⊂ D` with all cells concatenated.
pub fn density_filter_dataset(ds: &Dataset, config: FilterConfig) -> Dataset {
    let mut indices: Vec<usize> = density_filter(ds, config)
        .into_iter()
        .flat_map(|(_, idx)| idx)
        .collect();
    indices.sort_unstable();
    ds.subset(&indices)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cf_data::Column;

    /// Two groups × two labels; each cell has a tight cluster plus outliers.
    fn clustered_dataset() -> Dataset {
        let mut x1 = Vec::new();
        let mut x2 = Vec::new();
        let mut labels = Vec::new();
        let mut groups = Vec::new();
        let centers = [
            (0u8, 0u8, 0.0, 0.0),
            (0u8, 1u8, 5.0, 0.0),
            (1u8, 0u8, 0.0, 5.0),
            (1u8, 1u8, 5.0, 5.0),
        ];
        for &(g, y, cx, cy) in &centers {
            // 8 core points very close to the center…
            for i in 0..8 {
                x1.push(cx + 0.01 * i as f64);
                x2.push(cy + 0.01 * i as f64);
                labels.push(y);
                groups.push(g);
            }
            // …and 2 outliers far away.
            for i in 0..2 {
                x1.push(cx + 30.0 + i as f64 * 10.0);
                x2.push(cy - 30.0);
                labels.push(y);
                groups.push(g);
            }
        }
        Dataset::new(
            "clustered",
            vec!["x1".into(), "x2".into()],
            vec![Column::Numeric(x1), Column::Numeric(x2)],
            labels,
            groups,
        )
        .unwrap()
    }

    #[test]
    fn filter_keeps_core_drops_outliers() {
        let ds = clustered_dataset();
        // Keep 50% of each 10-member cell → 5 tuples, all from the core 8.
        let kept = density_filter(&ds, FilterConfig::with_fraction(0.5));
        for (cell, idx) in &kept {
            assert_eq!(idx.len(), 5, "cell {cell:?}");
            let x = ds.numeric_matrix(Some(idx));
            // All retained points are core points (|x1| coordinate near its center).
            for row in x.iter_rows() {
                assert!(row[0] < 10.0, "outlier survived the filter: {row:?}");
            }
        }
    }

    #[test]
    fn filter_respects_fraction_per_cell() {
        let ds = clustered_dataset();
        let kept = density_filter(&ds, FilterConfig::with_fraction(0.2));
        for (_, idx) in &kept {
            assert_eq!(idx.len(), 2); // ceil(0.2 * 10)
        }
    }

    #[test]
    fn full_fraction_keeps_everything() {
        let ds = clustered_dataset();
        let filtered = density_filter_dataset(&ds, FilterConfig::with_fraction(1.0));
        assert_eq!(filtered.len(), ds.len());
    }

    #[test]
    fn filtered_dataset_is_subset_with_cell_structure() {
        let ds = clustered_dataset();
        let filtered = density_filter_dataset(&ds, FilterConfig::paper_default());
        assert_eq!(filtered.len(), 8); // 4 cells × ceil(0.2·10)
        for cell in CellIndex::binary_cells() {
            assert_eq!(filtered.cell_count(cell), 2);
        }
    }

    #[test]
    fn empty_cells_are_tolerated() {
        let ds = Dataset::new(
            "tiny",
            vec!["x".into()],
            vec![Column::Numeric(vec![1.0, 2.0])],
            vec![1, 1],
            vec![0, 0],
        )
        .unwrap();
        let kept = density_filter(&ds, FilterConfig::paper_default());
        let total: usize = kept.iter().map(|(_, v)| v.len()).sum();
        assert_eq!(total, 1); // only cell (0,1) is non-empty: ceil(0.2·2) = 1
    }

    #[test]
    fn deterministic_across_runs() {
        let ds = clustered_dataset();
        let a = density_filter(&ds, FilterConfig::paper_default());
        let b = density_filter(&ds, FilterConfig::paper_default());
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic]
    fn zero_fraction_rejected() {
        let _ = FilterConfig::with_fraction(0.0);
    }
}
