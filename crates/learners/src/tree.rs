//! The regression tree used inside gradient boosting.
//!
//! Implements XGBoost's exact greedy algorithm: at every node, each feature's
//! values are scanned once in ascending order, accumulating gradient/hessian
//! sums to score candidate splits with the second-order gain
//!
//! ```text
//! gain = ½ [ G_L²/(H_L+λ) + G_R²/(H_R+λ) − G²/(H+λ) ] − γ
//! ```
//!
//! Leaf weights are `−G/(H+λ)`; shrinkage is applied by the ensemble.
//!
//! The ascending orders come from one presort per ensemble fit
//! ([`PresortedFit`]): every feature's row order is sorted once, and each
//! split stable-partitions its node's segment of those orders instead of
//! re-sorting. A stable partition of a stably sorted order is the stable
//! sort of the subset, so every node scans exactly the order a per-node
//! stable sort would produce — ascending value, ties in row-index order —
//! and the fitted tree keeps every bit of [`RegressionTree::fit_reference`],
//! the per-node-sort builder kept as the executable specification.

use cf_linalg::Matrix;

/// Split-search hyperparameters (a subset of [`crate::GbtConfig`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TreeParams {
    /// Maximum tree depth (0 = a single leaf).
    pub max_depth: usize,
    /// L2 regularisation `λ` on leaf weights.
    pub lambda: f64,
    /// Minimum gain `γ` required to keep a split.
    pub gamma: f64,
    /// Minimum hessian sum per child (`min_child_weight`).
    pub min_child_weight: f64,
}

impl Default for TreeParams {
    fn default() -> Self {
        Self {
            max_depth: 4,
            lambda: 1.0,
            gamma: 0.0,
            min_child_weight: 1.0,
        }
    }
}

#[derive(Debug, Clone)]
enum TreeNode {
    Leaf {
        weight: f64,
    },
    Split {
        feature: usize,
        /// Go left when `x[feature] < threshold`.
        threshold: f64,
        left: usize,
        right: usize,
    },
}

/// A fitted regression tree mapping feature rows to leaf weights.
#[derive(Debug, Clone)]
pub struct RegressionTree {
    nodes: Vec<TreeNode>,
    root: usize,
}

impl RegressionTree {
    /// Fit to gradients/hessians on the rows of `x`, presorting `x` for
    /// this one tree. An ensemble fitting many trees on the same rows
    /// presorts once instead, through [`PresortedFit`].
    ///
    /// # Panics
    /// Panics if buffer lengths disagree (callers validate upstream) or if
    /// `x` holds a NaN.
    pub fn fit(x: &Matrix, grad: &[f64], hess: &[f64], params: &TreeParams) -> Self {
        PresortedFit::new(x).fit(grad, hess, params)
    }

    /// The per-node-sort builder: every node copies its rows once per
    /// feature and stable-sorts them. Bit-identical to [`Self::fit`] and
    /// kept as its test oracle and bench reference.
    ///
    /// # Panics
    /// As [`Self::fit`].
    #[doc(hidden)]
    pub fn fit_reference(x: &Matrix, grad: &[f64], hess: &[f64], params: &TreeParams) -> Self {
        assert_eq!(x.rows(), grad.len());
        assert_eq!(x.rows(), hess.len());
        let mut nodes = Vec::new();
        let rows: Vec<usize> = (0..x.rows()).collect();
        let root = build_reference(x, grad, hess, rows, params.max_depth, params, &mut nodes);
        Self { nodes, root }
    }

    /// The raw leaf weight for one feature row.
    pub fn predict_row(&self, row: &[f64]) -> f64 {
        let mut node = self.root;
        loop {
            match &self.nodes[node] {
                TreeNode::Leaf { weight } => return *weight,
                TreeNode::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    node = if row[*feature] < *threshold {
                        *left
                    } else {
                        *right
                    };
                }
            }
        }
    }

    /// Leaf weights for every row of `x`.
    pub fn predict(&self, x: &Matrix) -> Vec<f64> {
        x.iter_rows().map(|row| self.predict_row(row)).collect()
    }

    /// Number of nodes (leaves + splits) — used to gauge model complexity.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Validate that every split's children are in-bounds and the node
    /// graph reachable from `root` is a tree (no index cycles), so a
    /// corrupted serialised tree fails loudly at deserialisation time
    /// instead of looping or panicking inside `predict_row`.
    fn validate(&self) -> Result<(), String> {
        if self.root >= self.nodes.len() {
            return Err(format!(
                "tree root {} out of bounds for {} nodes",
                self.root,
                self.nodes.len()
            ));
        }
        let mut visited = vec![false; self.nodes.len()];
        let mut stack = vec![self.root];
        while let Some(i) = stack.pop() {
            if visited[i] {
                return Err(format!("tree node {i} is reachable twice (cycle)"));
            }
            visited[i] = true;
            if let TreeNode::Split { left, right, .. } = &self.nodes[i] {
                for &child in [left, right] {
                    if child >= self.nodes.len() {
                        return Err(format!(
                            "tree child {child} out of bounds for {} nodes",
                            self.nodes.len()
                        ));
                    }
                    stack.push(child);
                }
            }
        }
        Ok(())
    }

    /// The largest feature index any split consults (`None` for a
    /// single-leaf tree). Deserialised ensembles check this against their
    /// declared feature count so a corrupted tree cannot index past a
    /// prediction row.
    pub fn max_feature_index(&self) -> Option<usize> {
        self.nodes
            .iter()
            .filter_map(|n| match n {
                TreeNode::Leaf { .. } => None,
                TreeNode::Split { feature, .. } => Some(*feature),
            })
            .max()
    }

    /// Depth of the deepest leaf.
    pub fn depth(&self) -> usize {
        fn rec(nodes: &[TreeNode], i: usize) -> usize {
            match &nodes[i] {
                TreeNode::Leaf { .. } => 0,
                TreeNode::Split { left, right, .. } => {
                    1 + rec(nodes, *left).max(rec(nodes, *right))
                }
            }
        }
        rec(&self.nodes, self.root)
    }

    /// Compile into the perfect-heap [`FlatTree`] the batch kernel sweeps,
    /// or `None` when the tree is deeper than `HEAP_DEPTH_MAX` (10). Fitted
    /// trees are that deep only under a `max_depth` above it; such a tree
    /// scores through [`Self::predict_row`] instead.
    ///
    /// The heap is the tree padded to a perfect binary tree of height
    /// `depth` in level order. Leaves shallower than `depth` are copied
    /// down both virtual branches (feature 0, threshold 0.0 — the
    /// comparison result is irrelevant when both children are the same
    /// copy), so a cursor descending exactly `depth` levels always lands
    /// on the right leaf's weight in the bottom level.
    pub fn flatten(&self) -> Option<FlatTree> {
        let depth = self.depth() as u32;
        if depth > HEAP_DEPTH_MAX {
            return None;
        }
        let mut feature = vec![0u32; (1usize << depth) - 1];
        let mut value = vec![0.0f64; (1usize << (depth + 1)) - 1];
        self.fill_heap(self.root, 0, 0, depth, &mut feature, &mut value);
        Some(FlatTree {
            feature,
            value,
            depth,
            min_width: self.max_feature_index().map_or(0, |f| f as u32 + 1),
        })
    }

    fn fill_heap(
        &self,
        node: usize,
        heap: usize,
        level: u32,
        depth: u32,
        hf: &mut [u32],
        hv: &mut [f64],
    ) {
        if level == depth {
            // `depth` is the deepest leaf, so every path has terminated by
            // here: `node` is a leaf (possibly a shallower leaf copied
            // down), and the bottom level stores its weight.
            match &self.nodes[node] {
                TreeNode::Leaf { weight } => hv[heap] = *weight,
                TreeNode::Split { .. } => unreachable!("split below the deepest leaf"),
            }
            return;
        }
        let (left, right) = match &self.nodes[node] {
            TreeNode::Leaf { .. } => (node, node),
            TreeNode::Split {
                feature,
                threshold,
                left,
                right,
            } => {
                hf[heap] = *feature as u32;
                hv[heap] = *threshold;
                (*left, *right)
            }
        };
        self.fill_heap(left, 2 * heap + 1, level + 1, depth, hf, hv);
        self.fill_heap(right, 2 * heap + 2, level + 1, depth, hf, hv);
    }
}

/// A fitted regression tree compiled to the perfect-heap form the batch
/// scoring kernel sweeps.
///
/// The recursive [`RegressionTree`] stores an enum per node: every descent
/// step is a discriminant match plus a pointer-sized jump the branch
/// predictor cannot learn (the path depends on data). The heap form stores
/// the tree completed to a perfect binary tree of height `depth`, in level
/// order, as two arrays. Descent is then pure index arithmetic with no
/// leaf-vs-split branch and no child-pointer load:
///
/// ```text
/// n = 2n + 1 + (row[feature[n]] < value[n] is false)
/// ```
///
/// and exactly `depth` steps land every cursor in the bottom level, which
/// holds the leaf weights. A step is three loads (feature, threshold, row
/// gather), one compare and one address computation; the kernel is
/// issue-width bound, so fewer µops per step is directly more throughput.
/// Built by [`RegressionTree::flatten`] at fit/deserialise time and never
/// serialised — the wire format stays the v4 node-enum document.
#[derive(Debug, Clone)]
pub struct FlatTree {
    /// Split feature per *internal* slot: `2^depth − 1` slots in level
    /// order. Padding slots (under a shallow leaf) keep feature 0 —
    /// in-bounds, result irrelevant.
    feature: Vec<u32>,
    /// `2^(depth+1) − 1` slots in level order: split thresholds on the
    /// internal slots, leaf weights across the whole bottom level (shallow
    /// leaves copied down both virtual branches).
    value: Vec<f64>,
    /// Depth of the deepest leaf: after this many descent steps every
    /// cursor sits in the bottom level.
    depth: u32,
    /// `max_feature_index + 1` (0 for a single-leaf tree): the narrowest
    /// row this tree can score. The batch kernel asserts rows are at
    /// least this wide once per call, which makes every per-step feature
    /// lookup provably in-bounds.
    min_width: u32,
}

/// How many descent chains `accumulate_margins` keeps in flight. Each
/// chain is latency-bound (load feature → load row value → compare →
/// next slot), so sixteen independent chains give the out-of-order core
/// enough work to hide each chain's serial latency.
pub(crate) const CHAINS: usize = 16;

/// Deepest tree [`RegressionTree::flatten`] compiles: padding doubles per
/// level, so height 10 costs at most `2^11 − 1` slots (~16 KiB of
/// thresholds/weights — still comfortably L1-resident next to a row
/// block). Fitted trees are far shallower (`GbtConfig` depth defaults to
/// 4).
pub(crate) const HEAP_DEPTH_MAX: u32 = 10;

impl FlatTree {
    /// The raw leaf weight for one feature row — bit-identical to
    /// [`RegressionTree::predict_row`] on the source tree.
    #[inline]
    pub fn predict_row(&self, row: &[f64]) -> f64 {
        let mut n = 0;
        for _ in 0..self.depth {
            // The recursive walker's own `row[feature] < threshold` as a
            // *boolean* (never rewritten to `>=`, which would flip the NaN
            // cases): true descends to the left child `2n + 1`, false —
            // including NaN on either side — to the right child `2n + 2`.
            n = 2 * n + 2 - usize::from(row[self.feature[n] as usize] < self.value[n]);
        }
        self.value[n]
    }

    /// Accumulate `eta * leaf_weight(row)` into `out` for every row of
    /// the row-major block `rows` (stride `d`): one tree over all rows,
    /// so this tree's arrays stay in L1 while rows stream past.
    /// `CHAINS` rows are kept in flight so the independent descent
    /// chains overlap; the remainder rows walk the heap one at a time.
    /// Callers that score many rows should hand this L1-sized row blocks
    /// (see `Gbt::predict_margin_rows`): the win of tree-outer iteration
    /// is node locality, and it only compounds when the row block also
    /// stays cache-resident across trees.
    ///
    /// # Panics
    /// Panics if `rows.len() != out.len() * d` or if `d` is narrower than
    /// the widest feature index this tree consults (callers size the
    /// margin buffer and the rows against the fitted width).
    pub fn accumulate_margins(&self, rows: &[f64], d: usize, eta: f64, out: &mut [f64]) {
        assert_eq!(rows.len(), out.len() * d);
        assert!(
            d >= self.min_width as usize,
            "rows of width {d} for a tree consulting feature {}",
            self.min_width.saturating_sub(1),
        );
        let tail = self.sweep(rows, d, eta, out);
        for (j, o) in out.iter_mut().enumerate().skip(tail) {
            *o += eta * self.predict_row(&rows[j * d..(j + 1) * d]);
        }
    }

    /// The chained sweep: [`CHAINS`] descent cursors in flight, every load
    /// unchecked. Each chain's step is a serial dependence (slot load →
    /// row gather → compare → next slot), so throughput comes from the
    /// chains overlapping in the out-of-order window; per-step bounds
    /// checks would both lengthen that chain and burn the issue slots the
    /// overlap needs. Returns the index of the first row left for the
    /// remainder loop.
    fn sweep(&self, rows: &[f64], d: usize, eta: f64, out: &mut [f64]) -> usize {
        let feature = self.feature.as_slice();
        let value = self.value.as_slice();
        let depth = self.depth as usize;
        let mut i = 0;
        while i + CHAINS <= out.len() {
            let base = i * d;
            let mut ns = [0usize; CHAINS];
            for _ in 0..depth {
                for (j, n) in ns.iter_mut().enumerate() {
                    // SAFETY: after `s < depth` descent steps
                    // `*n < 2^(s+1) − 1 <= 2^depth − 1 == feature.len()`.
                    let f = unsafe { *feature.get_unchecked(*n) } as usize;
                    // SAFETY: `value.len() == 2^(depth+1) − 1 > feature.len()`.
                    let v = unsafe { *value.get_unchecked(*n) };
                    // SAFETY: `f < min_width <= d` (padding slots keep
                    // feature 0, real ones are fitted/validated split
                    // indices), and `base + j*d + f < (i + j + 1) * d <=
                    // out.len() * d == rows.len()` — both asserted by
                    // `accumulate_margins`.
                    let x = unsafe { *rows.get_unchecked(base + j * d + f) };
                    // `<` as a boolean, exactly as in `predict_row`.
                    *n = 2 * *n + 2 - usize::from(x < v);
                }
            }
            for j in 0..CHAINS {
                // SAFETY: `ns[j] < 2^(depth+1) − 1 == value.len()`.
                out[i + j] += eta * unsafe { *value.get_unchecked(ns[j]) };
            }
            i += CHAINS;
        }
        i
    }
}

// Manual serde impls: `TreeNode` is an enum, beyond the derive shim. Leaves
// serialise as `{"weight": w}`, splits as
// `{"feature": j, "threshold": t, "left": l, "right": r}`; thresholds and
// weights round-trip bit-exactly, so a restored tree routes and scores every
// row identically.
impl serde::Serialize for TreeNode {
    fn serialize(&self, w: &mut serde::Writer) {
        w.object(|w| match self {
            TreeNode::Leaf { weight } => w.field(b"\"weight\":", weight),
            TreeNode::Split {
                feature,
                threshold,
                left,
                right,
            } => {
                w.field(b"\"feature\":", feature);
                w.field(b"\"threshold\":", threshold);
                w.field(b"\"left\":", left);
                w.field(b"\"right\":", right);
            }
        });
    }
}

impl serde::Deserialize for TreeNode {
    fn from_value(v: &serde::Value) -> std::result::Result<Self, serde::Error> {
        if let Some(w) = v.get("weight") {
            return Ok(TreeNode::Leaf {
                weight: serde::Deserialize::from_value(w)?,
            });
        }
        Ok(TreeNode::Split {
            feature: serde::Deserialize::from_value(v.get_or_err("feature")?)?,
            threshold: serde::Deserialize::from_value(v.get_or_err("threshold")?)?,
            left: serde::Deserialize::from_value(v.get_or_err("left")?)?,
            right: serde::Deserialize::from_value(v.get_or_err("right")?)?,
        })
    }
}

impl serde::Serialize for RegressionTree {
    fn serialize(&self, w: &mut serde::Writer) {
        w.object(|w| {
            w.field(b"\"nodes\":", &self.nodes);
            w.field(b"\"root\":", &self.root);
        });
    }
}

impl serde::Deserialize for RegressionTree {
    fn from_value(v: &serde::Value) -> std::result::Result<Self, serde::Error> {
        let tree = RegressionTree {
            nodes: serde::Deserialize::from_value(v.get_or_err("nodes")?)?,
            root: serde::Deserialize::from_value(v.get_or_err("root")?)?,
        };
        if tree.nodes.is_empty() {
            return Err(serde::Error::msg("a regression tree needs nodes"));
        }
        tree.validate().map_err(serde::Error::msg)?;
        Ok(tree)
    }
}

fn leaf_weight(g: f64, h: f64, lambda: f64) -> f64 {
    -g / (h + lambda)
}

/// The second-order gain of splitting a node with totals `g_total`/`h_total`
/// into a left child with sums `g_left`/`h_left` and the remainder, or
/// `None` when either child's hessian sum is below `min_child_weight`.
#[inline(always)]
fn split_gain(
    g_left: f64,
    h_left: f64,
    g_total: f64,
    h_total: f64,
    parent_score: f64,
    params: &TreeParams,
) -> Option<f64> {
    let h_right = h_total - h_left;
    if h_left < params.min_child_weight || h_right < params.min_child_weight {
        return None;
    }
    let g_right = g_total - g_left;
    Some(
        0.5 * (g_left * g_left / (h_left + params.lambda)
            + g_right * g_right / (h_right + params.lambda)
            - parent_score)
            - params.gamma,
    )
}

/// A training matrix presorted once, reused by every tree an ensemble
/// grows on it.
///
/// Holds every feature's row order, stably sorted by value with
/// `partial_cmp` — so −0.0 and +0.0 tie and keep row-index order, exactly
/// as the per-node sort of [`RegressionTree::fit_reference`] orders them
/// (`total_cmp` would put −0.0 first and reorder the gradient sums).
/// Growing a tree copies these orders into a working buffer; a node owns
/// the same segment of every order, and a split stable-partitions that
/// segment in place with the `x[feature] < threshold` test
/// [`RegressionTree::predict_row`] routes by. Each node therefore scans
/// its rows in the order a per-node stable sort would produce, and every
/// sum, gain, threshold and leaf weight keeps its bits.
#[derive(Debug)]
pub struct PresortedFit {
    n: usize,
    d: usize,
    /// `x` transposed: feature `f`'s values at `values[f * n..(f + 1) * n]`,
    /// so a split scan gathers from one column instead of striding rows.
    values: Vec<f64>,
    /// The presort: feature `f`'s ascending row order at
    /// `sorted[f * n..(f + 1) * n]`, in one contiguous buffer.
    sorted: Vec<u32>,
    /// The working copy of `sorted` a tree partitions, followed by one more
    /// order: the node's rows in row-index order, which the gradient totals
    /// are summed in (a feature's order would change their bits).
    work: Vec<u32>,
    /// The right-hand rows of a stable partition, parked while the left-hand
    /// rows are compacted.
    spill: Vec<u32>,
    /// Which side of the current split each row (by index) goes to.
    goes_left: Vec<bool>,
    /// Leaf weight per row of the last tree grown.
    deltas: Vec<f64>,
}

impl PresortedFit {
    /// Presort every feature of `x`.
    ///
    /// # Panics
    /// Panics if `x` holds a NaN (callers validate upstream) or has more
    /// rows than a `u32` can index.
    pub fn new(x: &Matrix) -> Self {
        let (n, d) = (x.rows(), x.cols());
        let rows = u32::try_from(n).expect("a presorted fit indexes rows as u32");
        let mut values = vec![0.0; n * d];
        for (i, row) in x.iter_rows().enumerate() {
            for (f, &v) in row.iter().enumerate() {
                values[f * n + i] = v;
            }
        }
        let mut sorted = Vec::with_capacity(n * d);
        for f in 0..d {
            let col = &values[f * n..(f + 1) * n];
            let start = sorted.len();
            sorted.extend(0..rows);
            // Stable, so ties keep row-index order.
            sorted[start..].sort_by(|&a: &u32, &b: &u32| {
                col[a as usize]
                    .partial_cmp(&col[b as usize])
                    .expect("NaN feature value")
            });
        }
        Self {
            n,
            d,
            values,
            sorted,
            work: vec![0; (d + 1) * n],
            spill: vec![0; n],
            goes_left: vec![false; n],
            deltas: vec![0.0; n],
        }
    }

    /// Grow one tree on per-row gradients/hessians — bit-identical to
    /// [`RegressionTree::fit_reference`] on the presorted matrix — and
    /// leave its leaf weight for every row in [`Self::deltas`].
    ///
    /// # Panics
    /// Panics if `grad` or `hess` is not one entry per presorted row.
    pub fn fit(&mut self, grad: &[f64], hess: &[f64], params: &TreeParams) -> RegressionTree {
        let (n, d) = (self.n, self.d);
        assert_eq!(n, grad.len());
        assert_eq!(n, hess.len());
        self.work[..d * n].copy_from_slice(&self.sorted);
        for (slot, i) in self.work[d * n..].iter_mut().zip(0u32..) {
            *slot = i;
        }
        let mut nodes = Vec::new();
        let root = self.build(grad, hess, 0, n, params.max_depth, params, &mut nodes);
        RegressionTree { nodes, root }
    }

    /// The last grown tree's leaf weight for every row, in row order —
    /// bitwise what `tree.predict(x)` returns, without a second descent.
    pub fn deltas(&self) -> &[f64] {
        &self.deltas
    }

    /// Grow the subtree over the rows in segment `lo..hi` of every order.
    #[allow(clippy::too_many_arguments)]
    fn build(
        &mut self,
        grad: &[f64],
        hess: &[f64],
        lo: usize,
        hi: usize,
        depth_left: usize,
        params: &TreeParams,
        nodes: &mut Vec<TreeNode>,
    ) -> usize {
        let (n, d) = (self.n, self.d);
        let rows = &self.work[d * n + lo..d * n + hi];
        let g_total: f64 = rows.iter().map(|&i| grad[i as usize]).sum();
        let h_total: f64 = rows.iter().map(|&i| hess[i as usize]).sum();

        let mut best: Option<(f64, usize, f64)> = None; // (gain, feature, threshold)
        if depth_left > 0 && rows.len() >= 2 {
            let parent_score = g_total * g_total / (h_total + params.lambda);
            for feature in 0..d {
                let col = &self.values[feature * n..(feature + 1) * n];
                let order = &self.work[feature * n + lo..feature * n + hi];
                let mut g_left = 0.0;
                let mut h_left = 0.0;
                for pair in order.windows(2) {
                    let (i, next) = (pair[0] as usize, pair[1] as usize);
                    g_left += grad[i];
                    h_left += hess[i];
                    let (value, next_value) = (col[i], col[next]);
                    // Can't split between equal values.
                    if value == next_value {
                        continue;
                    }
                    let Some(gain) =
                        split_gain(g_left, h_left, g_total, h_total, parent_score, params)
                    else {
                        continue;
                    };
                    if gain > best.map_or(0.0, |b| b.0) {
                        best = Some((gain, feature, split_threshold(value, next_value)));
                    }
                }
            }
        }

        let Some((_, feature, threshold)) = best else {
            let weight = leaf_weight(g_total, h_total, params.lambda);
            for &i in &self.work[d * n + lo..d * n + hi] {
                self.deltas[i as usize] = weight;
            }
            nodes.push(TreeNode::Leaf { weight });
            return nodes.len() - 1;
        };

        let mid = lo + self.partition(lo, hi, feature, threshold);
        debug_assert!(lo < mid && mid < hi);
        let left = self.build(grad, hess, lo, mid, depth_left - 1, params, nodes);
        let right = self.build(grad, hess, mid, hi, depth_left - 1, params, nodes);
        nodes.push(TreeNode::Split {
            feature,
            threshold,
            left,
            right,
        });
        nodes.len() - 1
    }

    /// Stable-partition segment `lo..hi` of every order by
    /// `x[feature] < threshold`; returns how many rows go left.
    fn partition(&mut self, lo: usize, hi: usize, feature: usize, threshold: f64) -> usize {
        let (n, d) = (self.n, self.d);
        let col = &self.values[feature * n..(feature + 1) * n];
        let mut n_left = 0;
        for &i in &self.work[d * n + lo..d * n + hi] {
            let left = col[i as usize] < threshold;
            self.goes_left[i as usize] = left;
            n_left += usize::from(left);
        }
        for order in 0..=d {
            // Ascending in the split feature itself, so its left rows
            // already form a prefix.
            if order == feature {
                continue;
            }
            let segment = &mut self.work[order * n + lo..order * n + hi];
            let (mut kept, mut spilled) = (0, 0);
            for k in 0..segment.len() {
                let i = segment[k];
                if self.goes_left[i as usize] {
                    segment[kept] = i;
                    kept += 1;
                } else {
                    self.spill[spilled] = i;
                    spilled += 1;
                }
            }
            segment[kept..].copy_from_slice(&self.spill[..spilled]);
        }
        n_left
    }
}

/// Where a split between adjacent sorted values `value < next_value`
/// goes: their midpoint, unless rounding puts it outside `(value,
/// next_value]` — it overflows to `±∞` for values beyond ~8.99e307, and
/// rounds down to `value` for adjacent floats — in which case
/// `next_value` itself. Either way `x < threshold` sends `value` left and
/// `next_value` right, so both children are non-empty.
fn split_threshold(value: f64, next_value: f64) -> f64 {
    let mid = 0.5 * (value + next_value);
    if value < mid && mid <= next_value {
        mid
    } else {
        next_value
    }
}

fn build_reference(
    x: &Matrix,
    grad: &[f64],
    hess: &[f64],
    rows: Vec<usize>,
    depth_left: usize,
    params: &TreeParams,
    nodes: &mut Vec<TreeNode>,
) -> usize {
    let g_total: f64 = rows.iter().map(|&i| grad[i]).sum();
    let h_total: f64 = rows.iter().map(|&i| hess[i]).sum();

    let make_leaf = |nodes: &mut Vec<TreeNode>| {
        nodes.push(TreeNode::Leaf {
            weight: leaf_weight(g_total, h_total, params.lambda),
        });
        nodes.len() - 1
    };

    if depth_left == 0 || rows.len() < 2 {
        return make_leaf(nodes);
    }

    // Exact greedy: scan every feature's sorted values for the best split.
    let parent_score = g_total * g_total / (h_total + params.lambda);
    let mut best: Option<(f64, usize, f64)> = None; // (gain, feature, threshold)
    let mut sorted: Vec<(f64, f64, f64)> = Vec::with_capacity(rows.len());
    for feature in 0..x.cols() {
        sorted.clear();
        sorted.extend(rows.iter().map(|&i| (x[(i, feature)], grad[i], hess[i])));
        sorted.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("NaN feature value"));

        let mut g_left = 0.0;
        let mut h_left = 0.0;
        for k in 0..sorted.len() - 1 {
            g_left += sorted[k].1;
            h_left += sorted[k].2;
            // Can't split between equal values.
            if sorted[k].0 == sorted[k + 1].0 {
                continue;
            }
            let Some(gain) = split_gain(g_left, h_left, g_total, h_total, parent_score, params)
            else {
                continue;
            };
            if gain > best.map_or(0.0, |b| b.0) {
                let threshold = split_threshold(sorted[k].0, sorted[k + 1].0);
                best = Some((gain, feature, threshold));
            }
        }
    }

    let Some((_, feature, threshold)) = best else {
        return make_leaf(nodes);
    };

    let (left_rows, right_rows): (Vec<usize>, Vec<usize>) =
        rows.into_iter().partition(|&i| x[(i, feature)] < threshold);
    debug_assert!(!left_rows.is_empty() && !right_rows.is_empty());

    let left = build_reference(x, grad, hess, left_rows, depth_left - 1, params, nodes);
    let right = build_reference(x, grad, hess, right_rows, depth_left - 1, params, nodes);
    nodes.push(TreeNode::Split {
        feature,
        threshold,
        left,
        right,
    });
    nodes.len() - 1
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Squared-error boosting reduction: g = pred − y with pred = 0, h = 1.
    fn regression_setup(xs: &[f64], ys: &[f64]) -> (Matrix, Vec<f64>, Vec<f64>) {
        let x = Matrix::from_rows(&xs.iter().map(|&v| vec![v]).collect::<Vec<_>>());
        let grad: Vec<f64> = ys.iter().map(|&y| -y).collect();
        let hess = vec![1.0; ys.len()];
        (x, grad, hess)
    }

    #[test]
    fn fits_a_step_function() {
        let xs = [0.0, 1.0, 2.0, 3.0, 10.0, 11.0, 12.0, 13.0];
        let ys = [0.0, 0.0, 0.0, 0.0, 4.0, 4.0, 4.0, 4.0];
        let (x, g, h) = regression_setup(&xs, &ys);
        let tree = RegressionTree::fit(
            &x,
            &g,
            &h,
            &TreeParams {
                lambda: 0.0,
                min_child_weight: 0.0,
                ..TreeParams::default()
            },
        );
        // Predictions approximate the two plateaus.
        for (i, &xv) in xs.iter().enumerate() {
            let p = tree.predict_row(&[xv]);
            assert!((p - ys[i]).abs() < 1e-9, "x={xv} p={p}");
        }
    }

    #[test]
    fn depth_zero_is_single_leaf() {
        let xs = [0.0, 1.0, 2.0, 3.0];
        let ys = [0.0, 0.0, 1.0, 1.0];
        let (x, g, h) = regression_setup(&xs, &ys);
        let tree = RegressionTree::fit(
            &x,
            &g,
            &h,
            &TreeParams {
                max_depth: 0,
                lambda: 0.0,
                ..TreeParams::default()
            },
        );
        assert_eq!(tree.node_count(), 1);
        assert_eq!(tree.depth(), 0);
        // Single leaf = mean of y (with λ=0, h=1 each): −(−2)/4 = 0.5.
        assert!((tree.predict_row(&[0.0]) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn gamma_prunes_weak_splits() {
        let xs = [0.0, 1.0, 2.0, 3.0];
        let ys = [0.0, 0.1, 0.0, 0.1]; // nearly constant target
        let (x, g, h) = regression_setup(&xs, &ys);
        let no_gamma = RegressionTree::fit(
            &x,
            &g,
            &h,
            &TreeParams {
                gamma: 0.0,
                lambda: 0.0,
                min_child_weight: 0.0,
                ..TreeParams::default()
            },
        );
        let with_gamma = RegressionTree::fit(
            &x,
            &g,
            &h,
            &TreeParams {
                gamma: 10.0,
                lambda: 0.0,
                min_child_weight: 0.0,
                ..TreeParams::default()
            },
        );
        assert!(with_gamma.node_count() <= no_gamma.node_count());
        assert_eq!(with_gamma.node_count(), 1, "large gamma forces a stump");
    }

    #[test]
    fn min_child_weight_blocks_tiny_children() {
        let xs = [0.0, 1.0, 2.0, 3.0];
        let ys = [0.0, 0.0, 0.0, 5.0];
        let (x, g, h) = regression_setup(&xs, &ys);
        let tree = RegressionTree::fit(
            &x,
            &g,
            &h,
            &TreeParams {
                min_child_weight: 2.0, // each child needs ≥ 2 rows (h = 1 each)
                lambda: 0.0,
                ..TreeParams::default()
            },
        );
        // The only useful split (isolating x=3) would leave a child with
        // hessian 1 < 2, so it must be rejected: best remaining split is 2/2.
        let p0 = tree.predict_row(&[0.5]);
        let p3 = tree.predict_row(&[3.0]);
        assert!((p0 - 0.0).abs() < 1e-9);
        assert!((p3 - 2.5).abs() < 1e-9, "x≥2 leaf averages 0 and 5");
    }

    #[test]
    fn constant_features_yield_single_leaf() {
        let x = Matrix::from_rows(&[vec![1.0], vec![1.0], vec![1.0]]);
        let g = vec![-1.0, 0.0, 1.0];
        let h = vec![1.0; 3];
        let tree = RegressionTree::fit(&x, &g, &h, &TreeParams::default());
        assert_eq!(tree.node_count(), 1);
    }

    #[test]
    fn respects_max_depth() {
        let xs: Vec<f64> = (0..64).map(|i| i as f64).collect();
        let ys: Vec<f64> = (0..64).map(|i| (i % 2) as f64).collect();
        let (x, g, h) = regression_setup(&xs, &ys);
        let tree = RegressionTree::fit(
            &x,
            &g,
            &h,
            &TreeParams {
                max_depth: 3,
                lambda: 0.0,
                min_child_weight: 0.0,
                ..TreeParams::default()
            },
        );
        assert!(tree.depth() <= 3);
    }

    #[test]
    fn flat_form_matches_recursive_walker_on_fitted_trees() {
        let xs: Vec<f64> = (0..64).map(|i| (i * 37 % 64) as f64).collect();
        let ys: Vec<f64> = (0..64).map(|i| ((i * 13) % 5) as f64).collect();
        let (x, g, h) = regression_setup(&xs, &ys);
        let tree = RegressionTree::fit(
            &x,
            &g,
            &h,
            &TreeParams {
                lambda: 0.0,
                min_child_weight: 0.0,
                ..TreeParams::default()
            },
        );
        let flat = tree.flatten().expect("a depth-4 tree has a heap form");
        for row in x.iter_rows() {
            assert_eq!(
                flat.predict_row(row).to_bits(),
                tree.predict_row(row).to_bits()
            );
        }
        // Batch accumulation over all rows (tile + remainder lanes).
        let mut margins = vec![0.25; x.rows()];
        flat.accumulate_margins(x.as_slice(), x.cols(), 0.3, &mut margins);
        for (i, row) in x.iter_rows().enumerate() {
            let expected = 0.25 + 0.3 * tree.predict_row(row);
            assert_eq!(margins[i].to_bits(), expected.to_bits());
        }
    }

    #[test]
    fn flat_single_leaf_tree_is_a_one_slot_heap() {
        let tree = RegressionTree {
            nodes: vec![TreeNode::Leaf { weight: -1.5 }],
            root: 0,
        };
        let flat = tree.flatten().expect("a single leaf has a heap form");
        assert_eq!(flat.depth, 0);
        assert!(flat.feature.is_empty());
        assert_eq!(flat.value, vec![-1.5]);
        assert_eq!(flat.predict_row(&[]).to_bits(), (-1.5f64).to_bits());
        let x = Matrix::from_rows(&[vec![9.0], vec![-9.0], vec![0.0]]);
        let mut margins = vec![0.0; 3];
        flat.accumulate_margins(x.as_slice(), x.cols(), 1.0, &mut margins);
        assert!(margins.iter().all(|m| m.to_bits() == (-1.5f64).to_bits()));
    }

    #[test]
    fn wide_feature_tree_sweeps_like_the_recursive_walker() {
        // A split consulting feature 2¹⁶ stresses the `min_width` bound
        // that licenses the kernel's unchecked row gathers — the batch
        // sweep must agree with the recursive walker on both the chained
        // and remainder rows even when rows are this wide.
        const WIDE: usize = 1 << 16;
        let tree = RegressionTree {
            nodes: vec![
                TreeNode::Leaf { weight: -3.0 },
                TreeNode::Leaf { weight: 4.0 },
                TreeNode::Split {
                    feature: WIDE,
                    threshold: 0.5,
                    left: 0,
                    right: 1,
                },
            ],
            root: 2,
        };
        let flat = tree.flatten().expect("a depth-1 tree has a heap form");
        assert_eq!(flat.min_width as usize, WIDE + 1);
        let rows = CHAINS + 3; // chained groups plus remainder lanes
        let mut data = vec![0.0f64; rows * (WIDE + 1)];
        for (i, row) in data.chunks_mut(WIDE + 1).enumerate() {
            row[WIDE] = i as f64 - 8.0;
        }
        let mut margins = vec![0.0f64; rows];
        flat.accumulate_margins(&data, WIDE + 1, 0.5, &mut margins);
        for (i, row) in data.chunks(WIDE + 1).enumerate() {
            let expected = 0.5 * tree.predict_row(row);
            assert_eq!(margins[i].to_bits(), expected.to_bits());
        }
    }

    #[test]
    fn deep_tree_beyond_heap_limit_has_no_flat_form() {
        // A comb of HEAP_DEPTH_MAX + 1 splits exceeds the perfect-heap
        // padding limit, so `flatten` declines it and the ensemble scores
        // it with the recursive walker (pinned bit-identical at the `Gbt`
        // level); one level shallower still compiles.
        let comb = |deep: usize| {
            let mut nodes = Vec::new();
            for k in 0..deep {
                // Split k: `x < k` drops to leaf −k, otherwise on to split
                // k+1 (the last split's right child is the terminal leaf).
                let right = if k + 1 < deep { k + 1 } else { 2 * deep };
                nodes.push(TreeNode::Split {
                    feature: 0,
                    threshold: k as f64,
                    left: deep + k,
                    right,
                });
            }
            for k in 0..deep {
                nodes.push(TreeNode::Leaf {
                    weight: -(k as f64),
                });
            }
            nodes.push(TreeNode::Leaf { weight: 99.0 });
            RegressionTree { nodes, root: 0 }
        };
        let limit = HEAP_DEPTH_MAX as usize;
        let deep = comb(limit + 1);
        assert_eq!(deep.depth(), limit + 1);
        assert!(deep.flatten().is_none());
        let shallow = comb(limit);
        let flat = shallow.flatten().expect("a depth-10 tree has a heap form");
        for x in [-1.0, 0.0, 4.5, 9.0, 10.0, f64::NAN] {
            assert_eq!(
                flat.predict_row(&[x]).to_bits(),
                shallow.predict_row(&[x]).to_bits()
            );
        }
    }

    #[test]
    fn nan_threshold_routes_right_in_both_walkers() {
        // Fitted trees cannot carry NaN thresholds (fit sorts would panic,
        // and the JSON wire format cannot encode NaN), but the kernel
        // contract is defined for any tree the type can represent: with a
        // NaN threshold `row[f] < NaN` is false for every value, so both
        // walkers must send everything right. Same for NaN *feature
        // values* against a finite threshold.
        let tree = RegressionTree {
            nodes: vec![
                TreeNode::Leaf { weight: 1.0 },
                TreeNode::Leaf { weight: 2.0 },
                TreeNode::Split {
                    feature: 0,
                    threshold: f64::NAN,
                    left: 0,
                    right: 1,
                },
            ],
            root: 2,
        };
        let flat = tree.flatten().expect("a depth-1 tree has a heap form");
        for v in [-1e300, -1.0, 0.0, 1.0, 1e300, f64::NAN] {
            assert_eq!(tree.predict_row(&[v]), 2.0);
            assert_eq!(flat.predict_row(&[v]), 2.0);
        }
        let finite = RegressionTree {
            nodes: vec![
                TreeNode::Leaf { weight: 1.0 },
                TreeNode::Leaf { weight: 2.0 },
                TreeNode::Split {
                    feature: 0,
                    threshold: 0.5,
                    left: 0,
                    right: 1,
                },
            ],
            root: 2,
        };
        let finite_flat = finite.flatten().expect("a depth-1 tree has a heap form");
        assert_eq!(finite.predict_row(&[f64::NAN]), 2.0);
        assert_eq!(finite_flat.predict_row(&[f64::NAN]), 2.0);
    }

    #[test]
    fn multi_feature_split_picks_informative_feature() {
        // Feature 0 is noise; feature 1 perfectly separates.
        let x = Matrix::from_rows(&[
            vec![0.3, 0.0],
            vec![0.9, 0.0],
            vec![0.1, 1.0],
            vec![0.7, 1.0],
        ]);
        let g = vec![0.0, 0.0, -1.0, -1.0];
        let h = vec![1.0; 4];
        let tree = RegressionTree::fit(
            &x,
            &g,
            &h,
            &TreeParams {
                max_depth: 1,
                lambda: 0.0,
                min_child_weight: 0.0,
                ..TreeParams::default()
            },
        );
        // Predict by feature 1 regardless of feature 0.
        assert!(tree.predict_row(&[0.5, 0.0]) < tree.predict_row(&[0.5, 1.0]));
    }

    /// Fit one depth-1 tree with both builders, check they agree bit for
    /// bit, and return its root threshold after checking the split sends
    /// `xs[..split]` left and the rest right.
    fn fitted_threshold(xs: &[f64], ys: &[f64], split: usize) -> f64 {
        let (x, g, h) = regression_setup(xs, ys);
        let params = TreeParams {
            max_depth: 1,
            lambda: 0.0,
            min_child_weight: 0.0,
            ..TreeParams::default()
        };
        let presorted = RegressionTree::fit(&x, &g, &h, &params);
        let reference = RegressionTree::fit_reference(&x, &g, &h, &params);
        // `Debug` prints every float in round-trip form.
        assert_eq!(format!("{presorted:?}"), format!("{reference:?}"));
        let TreeNode::Split { threshold, .. } = presorted.nodes[presorted.root] else {
            panic!("expected a root split, got {presorted:?}");
        };
        let left = xs.iter().filter(|&&v| v < threshold).count();
        assert_eq!(left, split, "threshold {threshold:e} splits {xs:?}");
        threshold
    }

    #[test]
    fn split_between_huge_values_does_not_overflow() {
        // 1.2e308 + 1.5e308 overflows, so the midpoint would be +∞.
        let xs = [1e308, 1.2e308, 1.5e308, 1.7e308];
        let threshold = fitted_threshold(&xs, &[0.0, 0.0, 1.0, 1.0], 2);
        assert_eq!(threshold, 1.5e308);
        let negated: Vec<f64> = xs.iter().rev().map(|v| -v).collect();
        let threshold = fitted_threshold(&negated, &[0.0, 0.0, 1.0, 1.0], 2);
        assert_eq!(threshold, -1.2e308);
    }

    #[test]
    fn split_between_adjacent_floats_is_not_degenerate() {
        // 0.5 * (1.0 + next_up(1.0)) rounds down to 1.0.
        let next = f64::from_bits(1.0f64.to_bits() + 1);
        let threshold = fitted_threshold(&[0.5, 1.0, next, 2.0], &[0.0, 0.0, 1.0, 1.0], 2);
        assert_eq!(threshold.to_bits(), next.to_bits());
        // An ordinary midpoint is kept.
        assert_eq!(fitted_threshold(&[1.0, 2.0], &[0.0, 1.0], 1), 1.5);
    }
}
