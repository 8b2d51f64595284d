//! Multi-resolution k-d tree.
//!
//! Each node tracks the number of points in its region and a tight
//! axis-aligned bounding box (the "multi-resolution" features of Deng &
//! Moore that tKDC builds on). The split axis cycles through the
//! dimensions by depth; the split value defaults to the paper's
//! trimmed-midpoint rule `(x⁽¹⁰⁾ + x⁽⁹⁰⁾)/2` (§3.7), with median splits
//! available for the ablation study.
//!
//! Storage layout: nodes live in a flat arena with `u32` child links,
//! bounding boxes in two contiguous `Vec<f64>` side arrays (`d` values per
//! node), and the training points are reordered so every node owns a
//! contiguous range — leaf scans are sequential memory reads.

use crate::bbox;
use tkdc_common::error::{invalid_param, Error, Result};
use tkdc_common::order::quickselect;
use tkdc_common::Matrix;

/// How a node picks its split value along the chosen axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SplitRule {
    /// The paper's rule: midpoint of the 10th and 90th percentile
    /// (fast to identify tightly constrained regions under kernels with
    /// rapid falloff).
    TrimmedMidpoint,
    /// Classic balanced k-d tree median split (ablation comparator).
    Median,
}

const NO_CHILD: u32 = u32::MAX;

/// Flat serialized form of a [`KdTree`] for model persistence.
#[derive(Debug, Clone, PartialEq)]
pub struct KdTreeRaw {
    /// Dataset dimensionality.
    pub dim: usize,
    /// Leaf capacity the tree was built with.
    pub leaf_size: usize,
    /// Reordered row-major points.
    pub points: Vec<f64>,
    /// Per-node `(start, end, left, right)`; `u32::MAX` marks a leaf.
    pub nodes: Vec<[u32; 4]>,
    /// Bounding-box minima, `dim` values per node.
    pub node_lo: Vec<f64>,
    /// Bounding-box maxima, `dim` values per node.
    pub node_hi: Vec<f64>,
    /// Per-point weights in the tree's reordered row order; empty means
    /// every point carries unit weight (the pre-coreset format).
    pub weights: Vec<f64>,
}

#[derive(Debug, Clone, Copy)]
struct Node {
    /// Start of this node's point range (row index into `points`).
    start: u32,
    /// One past the end of the point range.
    end: u32,
    /// Left child arena index, or `NO_CHILD` for leaves.
    left: u32,
    /// Right child arena index, or `NO_CHILD` for leaves.
    right: u32,
}

/// A k-d tree over an owned, reordered copy of the training points.
#[derive(Debug, Clone)]
pub struct KdTree {
    dim: usize,
    leaf_size: usize,
    /// Row-major reordered points; each node owns rows `[start, end)`.
    points: Vec<f64>,
    n_points: usize,
    nodes: Vec<Node>,
    /// Bounding-box minima, `dim` values per node.
    node_lo: Vec<f64>,
    /// Bounding-box maxima, `dim` values per node.
    node_hi: Vec<f64>,
    /// Per-point weights in reordered row order; empty for unweighted
    /// trees (every point counts once).
    weights: Vec<f64>,
    /// Per-node total mass `Σ w_i` over the node's range; empty for
    /// unweighted trees (mass is then the point count).
    masses: Vec<f64>,
    /// Dimension-major (SoA) copies of every leaf's point block,
    /// concatenated: leaf with `soa_off[id] = o` and `r` rows stores
    /// coordinate `j` of its point `i` at `soa[o + j·r + i]`. Derived
    /// state (rebuilt on load, never serialized); doubles point storage
    /// but gives `Kernel::sum_block_soa` stride-1 columns at any `d`.
    soa: Vec<f64>,
    /// Per-node offset into `soa`; `usize::MAX` for internal nodes.
    soa_off: Vec<usize>,
}

impl KdTree {
    /// Builds a tree over the dataset.
    ///
    /// `leaf_size` caps how many points a leaf may hold before splitting;
    /// the tKDC prototype uses small leaves so index bounds stay tight.
    ///
    /// # Errors
    /// Fails on an empty dataset or `leaf_size == 0`.
    pub fn build(data: &Matrix, leaf_size: usize, rule: SplitRule) -> Result<Self> {
        Self::build_impl(data, Vec::new(), leaf_size, rule)
    }

    /// Builds a tree over *weighted* points: row `i` of `data` carries
    /// mass `weights[i]` (the number of original points a coreset point
    /// stands in for). Node masses replace node counts in every density
    /// bound computed over the tree; the weights are reordered alongside
    /// the points so `node_weights` stays aligned with `node_block`.
    ///
    /// # Errors
    /// Fails on the same conditions as [`Self::build`], on a length
    /// mismatch, or on non-finite / non-positive weights.
    pub fn build_weighted(
        data: &Matrix,
        weights: &[f64],
        leaf_size: usize,
        rule: SplitRule,
    ) -> Result<Self> {
        if weights.len() != data.rows() {
            return Err(invalid_param(
                "weights",
                format!(
                    "length {} does not match {} data rows",
                    weights.len(),
                    data.rows()
                ),
            ));
        }
        for &w in weights {
            if !w.is_finite() || w <= 0.0 {
                return Err(invalid_param(
                    "weights",
                    format!("weights must be positive and finite, got {w}"),
                ));
            }
        }
        Self::build_impl(data, weights.to_vec(), leaf_size, rule)
    }

    fn build_impl(
        data: &Matrix,
        weights: Vec<f64>,
        leaf_size: usize,
        rule: SplitRule,
    ) -> Result<Self> {
        if data.rows() == 0 {
            return Err(Error::EmptyInput("kd-tree training data"));
        }
        if leaf_size == 0 {
            return Err(invalid_param("leaf_size", "must be at least 1"));
        }
        let dim = data.cols();
        let n = data.rows();
        let mut tree = KdTree {
            dim,
            leaf_size,
            points: data.as_slice().to_vec(),
            n_points: n,
            nodes: Vec::with_capacity(2 * n / leaf_size.max(1) + 1),
            node_lo: Vec::new(),
            node_hi: Vec::new(),
            weights,
            masses: Vec::new(),
            soa: Vec::new(),
            soa_off: Vec::new(),
        };
        // Scratch buffer reused by split-value selection at every level.
        let mut scratch: Vec<f64> = Vec::with_capacity(n);
        tree.build_node(0, n, 0, rule, &mut scratch);
        // Node masses are computed in a post-pass over the *final* point
        // order (not during the recursion, where later partitions would
        // still permute the range): summation order is then identical to
        // `from_raw_parts`' recomputation, keeping built and reloaded
        // trees bit-for-bit equal.
        if !tree.weights.is_empty() {
            tree.masses = tree
                .nodes
                .iter()
                .map(|nd| {
                    // CAST: u32 offsets widen to usize
                    tree.weights[nd.start as usize..nd.end as usize]
                        .iter()
                        .sum()
                })
                .collect();
        }
        tree.build_soa();
        Ok(tree)
    }

    /// Builds the dimension-major leaf cache. Leaves partition the row
    /// range exactly (internal nodes always cover both children), so
    /// the cache is one `n·d` buffer with per-leaf offsets.
    fn build_soa(&mut self) {
        let d = self.dim;
        // Size by the actual leaf rows (equal to `n` for any tree the
        // builder produces; sized defensively so a shallowly-validated
        // raw load can never index out of bounds here).
        let total_rows: usize = self
            .nodes
            .iter()
            .filter(|n| n.left == NO_CHILD)
            .map(|n| (n.end - n.start) as usize) // CAST: u32 range widens to usize
            .sum();
        let mut soa = vec![0.0; total_rows * d];
        let mut soa_off = vec![usize::MAX; self.nodes.len()];
        let mut at = 0usize;
        for id in 0..self.nodes.len() {
            if self.nodes[id].left != NO_CHILD {
                continue;
            }
            // CAST: u32 offsets widen to usize
            let (start, end) = (self.nodes[id].start as usize, self.nodes[id].end as usize);
            let rows = end - start;
            soa_off[id] = at;
            for i in 0..rows {
                let row = &self.points[(start + i) * d..(start + i + 1) * d];
                for (j, &v) in row.iter().enumerate() {
                    soa[at + j * rows + i] = v;
                }
            }
            at += rows * d;
        }
        self.soa = soa;
        self.soa_off = soa_off;
    }

    /// Recursively builds the subtree over rows `[start, end)` at `depth`.
    /// Returns the arena index of the created node.
    fn build_node(
        &mut self,
        start: usize,
        end: usize,
        depth: usize,
        rule: SplitRule,
        scratch: &mut Vec<f64>,
    ) -> u32 {
        let idx = self.nodes.len() as u32; // CAST: node arena stays far below 2^32 entries
        self.nodes.push(Node {
            start: start as u32, // CAST: point indices fit u32
            end: end as u32,     // CAST: point indices fit u32
            left: NO_CHILD,
            right: NO_CHILD,
        });
        // Tight bounding box over the node's points.
        let (lo_off, _hi_off) = (self.node_lo.len(), self.node_hi.len());
        self.node_lo
            .extend(std::iter::repeat_n(f64::INFINITY, self.dim));
        self.node_hi
            .extend(std::iter::repeat_n(f64::NEG_INFINITY, self.dim));
        for r in start..end {
            let row = &self.points[r * self.dim..(r + 1) * self.dim];
            for c in 0..self.dim {
                if row[c] < self.node_lo[lo_off + c] {
                    self.node_lo[lo_off + c] = row[c];
                }
                if row[c] > self.node_hi[lo_off + c] {
                    self.node_hi[lo_off + c] = row[c];
                }
            }
        }
        if end - start <= self.leaf_size {
            return idx;
        }

        // Pick a split axis (cycling) and value; skip axes where all
        // coordinates coincide. After `dim` failures the points are all
        // identical and the node stays a leaf.
        let mut split: Option<(usize, f64)> = None;
        for probe in 0..self.dim {
            let axis = (depth + probe) % self.dim;
            let lo = self.node_lo[lo_off + axis];
            let hi = self.node_hi[lo_off + axis];
            if hi <= lo {
                continue;
            }
            let value = self.split_value(start, end, axis, rule, scratch);
            // Clamp into the open interval so both sides are non-empty
            // whenever the axis has spread.
            if value > lo && value <= hi {
                split = Some((axis, value));
                break;
            }
            // Degenerate split value (e.g. heavily skewed data): fall back
            // to the box midpoint of this axis.
            let mid = 0.5 * (lo + hi);
            if mid > lo && mid <= hi {
                split = Some((axis, mid));
                break;
            }
        }
        let Some((axis, value)) = split else {
            return idx; // all points identical
        };

        let mid = self.partition(start, end, axis, value);
        // A valid split must separate; the clamping above guarantees at
        // least one point strictly below `value`, but guard anyway.
        if mid == start || mid == end {
            return idx;
        }
        let left = self.build_node(start, mid, depth + 1, rule, scratch);
        let right = self.build_node(mid, end, depth + 1, rule, scratch);
        self.nodes[idx as usize].left = left; // CAST: u32 id widens to usize
        self.nodes[idx as usize].right = right; // CAST: u32 id widens to usize
        idx
    }

    /// Split value along `axis` for rows `[start, end)`.
    fn split_value(
        &self,
        start: usize,
        end: usize,
        axis: usize,
        rule: SplitRule,
        scratch: &mut Vec<f64>,
    ) -> f64 {
        scratch.clear();
        for r in start..end {
            scratch.push(self.points[r * self.dim + axis]);
        }
        let n = scratch.len();
        match rule {
            SplitRule::TrimmedMidpoint => {
                // (x^(10) + x^(90)) / 2 with 1-based ceil ranks.
                let r10 = ((n as f64 * 0.10).ceil() as usize).clamp(1, n) - 1; // CAST: rank in [0, n] after clamp
                let r90 = ((n as f64 * 0.90).ceil() as usize).clamp(1, n) - 1; // CAST: rank in [0, n] after clamp
                let p10 = quickselect(scratch, r10);
                let p90 = quickselect(scratch, r90);
                0.5 * (p10 + p90)
            }
            SplitRule::Median => {
                let rank = n / 2;
                quickselect(scratch, rank)
            }
        }
    }

    /// Hoare-style partition of rows `[start, end)` by `coord < value`;
    /// returns the first index of the right side.
    fn partition(&mut self, start: usize, end: usize, axis: usize, value: f64) -> usize {
        let d = self.dim;
        let mut i = start;
        let mut j = end;
        while i < j {
            if self.points[i * d + axis] < value {
                i += 1;
            } else {
                j -= 1;
                // Swap whole rows i and j (and their weights, so the
                // weight vector stays row-aligned through every split).
                for c in 0..d {
                    self.points.swap(i * d + c, j * d + c);
                }
                if !self.weights.is_empty() {
                    self.weights.swap(i, j);
                }
            }
        }
        i
    }

    /// Dataset dimensionality.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Total number of indexed points.
    #[inline]
    pub fn len(&self) -> usize {
        self.n_points
    }

    /// True when the tree indexes no points (never constructed — `build`
    /// rejects empty input — but required by convention).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n_points == 0
    }

    /// Maximum points per leaf the tree was built with.
    #[inline]
    pub fn leaf_size(&self) -> usize {
        self.leaf_size
    }

    /// Number of arena nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Arena index of the root node.
    #[inline]
    pub fn root(&self) -> u32 {
        0
    }

    /// Number of points under node `id`.
    #[inline]
    pub fn count(&self, id: u32) -> usize {
        let n = &self.nodes[id as usize]; // CAST: u32 id widens to usize
        (n.end - n.start) as usize // CAST: u32 range widens to usize
    }

    /// True when the tree carries per-point weights.
    #[inline]
    pub fn is_weighted(&self) -> bool {
        !self.weights.is_empty()
    }

    /// Total mass under node `id`: `Σ w_i` over the node's points for a
    /// weighted tree, the plain point count otherwise. For unweighted
    /// trees this is bit-identical to `count(id) as f64`, so density
    /// bounds phrased in masses reproduce the count-based bounds exactly.
    #[inline]
    pub fn node_mass(&self, id: u32) -> f64 {
        if self.masses.is_empty() {
            self.count(id) as f64 // CAST: point counts are far below 2^53
        } else {
            self.masses[id as usize] // CAST: u32 id widens to usize
        }
    }

    /// Total mass of the whole tree (`node_mass` of the root): the
    /// weighted stand-in for `len()` in density normalization.
    #[inline]
    pub fn total_mass(&self) -> f64 {
        self.node_mass(self.root())
    }

    /// Per-point weights under node `id`, aligned row-for-row with
    /// [`Self::node_block`]; `None` for unweighted trees.
    #[inline]
    pub fn node_weights(&self, id: u32) -> Option<&[f64]> {
        if self.weights.is_empty() {
            return None;
        }
        let n = &self.nodes[id as usize]; // CAST: u32 id widens to usize
        Some(&self.weights[n.start as usize..n.end as usize]) // CAST: u32 offsets widen to usize
    }

    /// All per-point weights in reordered row order; `None` for
    /// unweighted trees. Exposed for model persistence.
    #[inline]
    pub fn weights(&self) -> Option<&[f64]> {
        if self.weights.is_empty() {
            None
        } else {
            Some(&self.weights)
        }
    }

    /// `(start, end)` row range this node owns within the tree's
    /// reordered point order (`node_points` yields exactly these rows).
    #[inline]
    pub fn node_range(&self, id: u32) -> (usize, usize) {
        let n = &self.nodes[id as usize]; // CAST: u32 id widens to usize
        (n.start as usize, n.end as usize) // CAST: u32 offsets widen to usize
    }

    /// `(left, right)` child ids, or `None` for a leaf.
    #[inline]
    pub fn children(&self, id: u32) -> Option<(u32, u32)> {
        let n = &self.nodes[id as usize]; // CAST: u32 id widens to usize
        if n.left == NO_CHILD {
            None
        } else {
            Some((n.left, n.right))
        }
    }

    /// True when node `id` is a leaf.
    #[inline]
    pub fn is_leaf(&self, id: u32) -> bool {
        self.nodes[id as usize].left == NO_CHILD // CAST: u32 id widens to usize
    }

    /// Bounding-box minima of node `id`.
    #[inline]
    pub fn box_lo(&self, id: u32) -> &[f64] {
        let off = id as usize * self.dim; // CAST: u32 id widens to usize
        &self.node_lo[off..off + self.dim]
    }

    /// Bounding-box maxima of node `id`.
    #[inline]
    pub fn box_hi(&self, id: u32) -> &[f64] {
        let off = id as usize * self.dim; // CAST: u32 id widens to usize
        &self.node_hi[off..off + self.dim]
    }

    /// Scaled squared distance bounds `(u_min, u_max)` from `x` to the
    /// bounding box of node `id` (Eq. 6's distance vectors).
    ///
    /// This is the hot layer of `BoundDensity` at d ≥ 8, not the leaf
    /// sum: a held-out d = 8 query costs 544 bound evaluations against
    /// 58 kernel evaluations (`kernel.share` 0.031), and the bootstrap
    /// runs about 17 million of them. Hence one fused, branch-free pass
    /// over the box ([`bbox::scaled_sq_dist_bounds`]), bit-identical to
    /// the two single-sided distances.
    #[inline]
    pub fn scaled_sq_dist_bounds(&self, id: u32, x: &[f64], inv_h: &[f64]) -> (f64, f64) {
        bbox::scaled_sq_dist_bounds(x, self.box_lo(id), self.box_hi(id), inv_h)
    }

    /// Contiguous row-major coordinate block of the points under node
    /// `id` (`count(id) · dim` values). The arena layout guarantees every
    /// node owns a contiguous row range, so this is a single slice — the
    /// input shape the blocked kernel fast path (`Kernel::sum_block`)
    /// consumes without per-point iterator overhead.
    #[inline]
    pub fn node_block(&self, id: u32) -> &[f64] {
        let n = &self.nodes[id as usize]; // CAST: u32 id widens to usize
        &self.points[(n.start as usize) * self.dim..(n.end as usize) * self.dim]
        // CAST: u32 offsets widen to usize
    }

    /// Dimension-major (SoA) coordinate block of the points under *leaf*
    /// node `id`: coordinate `j` of the leaf's point `i` sits at index
    /// `j · count(id) + i` of the returned slice (`count(id) · dim`
    /// values). This is the layout `Kernel::sum_block_soa` consumes
    /// with stride-1 inner loops; the row-major [`Self::node_block`]
    /// remains the oracle layout.
    ///
    /// # Panics
    /// Debug-asserts that `id` is a leaf — internal nodes have no SoA
    /// block (the traversal only scans leaves).
    #[inline]
    pub fn node_block_soa(&self, id: u32) -> &[f64] {
        let off = self.soa_off[id as usize]; // CAST: u32 id widens to usize
        debug_assert_ne!(off, usize::MAX, "SoA blocks exist only for leaves");
        &self.soa[off..off + self.count(id) * self.dim]
    }

    /// Row `i` of the tree's *reordered* point order (the order
    /// [`Self::node_points`] of the root yields). Lets batch drivers
    /// walk the training points without copying them out of the tree.
    #[inline]
    pub fn point(&self, i: usize) -> &[f64] {
        &self.points[i * self.dim..(i + 1) * self.dim]
    }

    /// Iterator over the point rows stored under node `id`.
    pub fn node_points(&self, id: u32) -> impl ExactSizeIterator<Item = &[f64]> + '_ {
        self.node_block(id).chunks_exact(self.dim)
    }

    /// Maps each row of the tree's *reordered* point order back to a row
    /// index of `original` (the matrix the tree was built from), by
    /// pairing both sides in lexicographic row order. Duplicate rows are
    /// interchangeable, so any stable pairing among them is valid.
    ///
    /// Used by batch drivers (dual-tree classification, DBSCAN) that
    /// compute results in tree order and must scatter them back to the
    /// caller's order. Uses `total_cmp`, so NaN coordinates order
    /// deterministically instead of corrupting the permutation.
    ///
    /// # Panics
    /// Panics when `original` has a different row count than the tree.
    pub fn reorder_permutation(&self, original: &Matrix) -> Vec<usize> {
        assert_eq!(original.rows(), self.len(), "row count mismatch");
        let d = self.dim;
        let reordered: Vec<&[f64]> = self.node_points(self.root()).collect();
        let cmp = |a: &[f64], b: &[f64]| -> std::cmp::Ordering {
            for c in 0..d {
                match a[c].total_cmp(&b[c]) {
                    std::cmp::Ordering::Equal => continue,
                    other => return other,
                }
            }
            std::cmp::Ordering::Equal
        };
        let mut orig_idx: Vec<usize> = (0..original.rows()).collect();
        orig_idx.sort_by(|&a, &b| cmp(original.row(a), original.row(b)));
        let mut tree_idx: Vec<usize> = (0..reordered.len()).collect();
        tree_idx.sort_by(|&a, &b| cmp(reordered[a], reordered[b]));
        let mut perm = vec![0usize; original.rows()];
        for (t, o) in tree_idx.into_iter().zip(orig_idx) {
            perm[t] = o;
        }
        perm
    }

    /// Serializes the tree into flat buffers for model persistence:
    /// `(dim, leaf_size, points, node_tuples, node_lo, node_hi)` where
    /// each node tuple is `(start, end, left, right)`.
    pub fn to_raw_parts(&self) -> KdTreeRaw {
        KdTreeRaw {
            dim: self.dim,
            leaf_size: self.leaf_size,
            points: self.points.clone(),
            nodes: self
                .nodes
                .iter()
                .map(|n| [n.start, n.end, n.left, n.right])
                .collect(),
            node_lo: self.node_lo.clone(),
            node_hi: self.node_hi.clone(),
            weights: self.weights.clone(),
        }
    }

    /// Reconstructs a tree from [`Self::to_raw_parts`] output.
    ///
    /// # Errors
    /// Fails when buffer lengths are inconsistent; node-level structural
    /// validity (ranges, child links) is checked shallowly.
    pub fn from_raw_parts(raw: KdTreeRaw) -> Result<Self> {
        let d = raw.dim;
        if d == 0 || raw.leaf_size == 0 {
            return Err(invalid_param("raw", "dim and leaf_size must be positive"));
        }
        if !raw.points.len().is_multiple_of(d) {
            return Err(invalid_param("raw", "points length not divisible by dim"));
        }
        let n = raw.points.len() / d;
        if raw.nodes.is_empty()
            || raw.node_lo.len() != raw.nodes.len() * d
            || raw.node_hi.len() != raw.nodes.len() * d
        {
            return Err(invalid_param("raw", "node buffers inconsistent"));
        }
        if !raw.weights.is_empty() {
            if raw.weights.len() != n {
                return Err(invalid_param("raw", "weights length does not match points"));
            }
            for &w in &raw.weights {
                if !w.is_finite() || w <= 0.0 {
                    return Err(invalid_param("raw", "weights must be positive and finite"));
                }
            }
        }
        let node_count = raw.nodes.len() as u32; // CAST: >= 2^32 nodes are unaddressable by u32 links anyway
        let mut nodes = Vec::with_capacity(raw.nodes.len());
        for (id, t) in raw.nodes.iter().enumerate() {
            let [start, end, left, right] = *t;
            // CAST: u32 end widens to usize
            if start > end || end as usize > n {
                return Err(invalid_param("raw", "node range out of bounds"));
            }
            // Children must point strictly forward in the arena (the
            // builder pushes children after their parent), which rules out
            // self-references and cycles that would hang traversal on a
            // corrupted model file.
            let valid_child = |c: u32| c == NO_CHILD || (c < node_count && c as usize > id); // CAST: u32 child id widens to usize
            if !valid_child(left) || !valid_child(right) {
                return Err(invalid_param(
                    "raw",
                    "child link out of bounds or non-forward",
                ));
            }
            if (left == NO_CHILD) != (right == NO_CHILD) {
                return Err(invalid_param("raw", "node must have zero or two children"));
            }
            nodes.push(Node {
                start,
                end,
                left,
                right,
            });
        }
        // Node masses are derived state: recompute from the ranges in
        // arena order so a loaded weighted tree matches a freshly built
        // one bit-for-bit.
        let masses = if raw.weights.is_empty() {
            Vec::new()
        } else {
            nodes
                .iter()
                .map(|nd| raw.weights[nd.start as usize..nd.end as usize].iter().sum()) // CAST: u32 offsets widen to usize
                .collect()
        };
        let mut tree = Self {
            dim: d,
            leaf_size: raw.leaf_size,
            points: raw.points,
            n_points: n,
            nodes,
            node_lo: raw.node_lo,
            node_hi: raw.node_hi,
            weights: raw.weights,
            masses,
            soa: Vec::new(),
            soa_off: Vec::new(),
        };
        // The SoA leaf cache is derived state, rebuilt on load like the
        // node masses.
        tree.build_soa();
        Ok(tree)
    }

    /// Visits every point within scaled distance `radius` of `x` (i.e.
    /// scaled squared distance ≤ `radius²`), pruning subtrees whose boxes
    /// lie entirely outside. Used by the radial (`rkde`) baseline.
    ///
    /// Returns the number of bounding-box distance computations performed
    /// (a proxy for traversal cost).
    pub fn for_each_in_scaled_radius(
        &self,
        x: &[f64],
        inv_h: &[f64],
        radius: f64,
        mut visit: impl FnMut(&[f64]),
    ) -> usize {
        self.for_each_in_scaled_radius_indexed(x, inv_h, radius, |_, p| visit(p))
    }

    /// Like [`Self::for_each_in_scaled_radius`], but the visitor also
    /// receives the point's row index in the tree's reordered order —
    /// what graph-building consumers (e.g. DBSCAN) need.
    pub fn for_each_in_scaled_radius_indexed(
        &self,
        x: &[f64],
        inv_h: &[f64],
        radius: f64,
        mut visit: impl FnMut(usize, &[f64]),
    ) -> usize {
        let r2 = radius * radius;
        let mut stack = vec![self.root()];
        let mut box_checks = 0usize;
        while let Some(id) = stack.pop() {
            box_checks += 1;
            let lo = self.box_lo(id);
            let hi = self.box_hi(id);
            if bbox::min_scaled_sq_dist(x, lo, hi, inv_h) > r2 {
                continue;
            }
            match self.children(id) {
                Some((l, r)) => {
                    stack.push(l);
                    stack.push(r);
                }
                None => {
                    let (start, _) = self.node_range(id);
                    for (offset, p) in self.node_points(id).enumerate() {
                        let mut acc = 0.0;
                        for i in 0..self.dim {
                            let z = (x[i] - p[i]) * inv_h[i];
                            acc += z * z;
                        }
                        if acc <= r2 {
                            visit(start + offset, p);
                        }
                    }
                }
            }
        }
        box_checks
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tkdc_common::Rng;

    fn random_matrix(n: usize, d: usize, seed: u64) -> Matrix {
        let mut rng = Rng::seed_from(seed);
        let mut m = Matrix::with_cols(d);
        let mut row = vec![0.0; d];
        for _ in 0..n {
            for v in &mut row {
                *v = rng.normal(0.0, 2.0);
            }
            m.push_row(&row).unwrap();
        }
        m
    }

    /// Recursively verify structural invariants; returns total leaf points.
    fn check_invariants(tree: &KdTree, id: u32) -> usize {
        let count = tree.count(id);
        let lo = tree.box_lo(id);
        let hi = tree.box_hi(id);
        // Every point in range must lie inside the node's box.
        for p in tree.node_points(id) {
            for c in 0..tree.dim() {
                assert!(p[c] >= lo[c] && p[c] <= hi[c], "point escapes box");
            }
        }
        match tree.children(id) {
            None => {
                // Leaf point count matches range length.
                assert_eq!(tree.node_points(id).len(), count);
                count
            }
            Some((l, r)) => {
                let cl = check_invariants(tree, l);
                let cr = check_invariants(tree, r);
                assert_eq!(cl + cr, count, "child counts must sum to parent");
                assert!(cl > 0 && cr > 0, "children must be non-empty");
                // Child boxes nest inside the parent box.
                for child in [l, r] {
                    let clo = tree.box_lo(child);
                    let chi = tree.box_hi(child);
                    for c in 0..tree.dim() {
                        assert!(clo[c] >= lo[c] - 1e-12);
                        assert!(chi[c] <= hi[c] + 1e-12);
                    }
                }
                cl + cr
            }
        }
    }

    #[test]
    fn build_preserves_all_points() {
        for rule in [SplitRule::TrimmedMidpoint, SplitRule::Median] {
            let data = random_matrix(500, 3, 42);
            let tree = KdTree::build(&data, 16, rule).unwrap();
            assert_eq!(tree.len(), 500);
            let total = check_invariants(&tree, tree.root());
            assert_eq!(total, 500, "{rule:?}");
            // The multiset of points must be preserved: compare sums.
            let orig_sum: f64 = data.as_slice().iter().sum();
            let tree_sum: f64 = tree
                .node_points(tree.root())
                .flat_map(|r| r.iter().copied())
                .sum();
            assert!((orig_sum - tree_sum).abs() < 1e-9);
        }
    }

    #[test]
    fn leaves_respect_leaf_size_when_splittable() {
        let data = random_matrix(1000, 2, 7);
        let tree = KdTree::build(&data, 8, SplitRule::TrimmedMidpoint).unwrap();
        fn max_leaf(tree: &KdTree, id: u32) -> usize {
            match tree.children(id) {
                None => tree.count(id),
                Some((l, r)) => max_leaf(tree, l).max(max_leaf(tree, r)),
            }
        }
        // Continuous data: every oversized node is splittable.
        assert!(max_leaf(&tree, tree.root()) <= 8);
    }

    #[test]
    fn identical_points_make_single_leaf() {
        let data = Matrix::from_rows(&vec![vec![1.0, 2.0]; 50]).unwrap();
        let tree = KdTree::build(&data, 4, SplitRule::TrimmedMidpoint).unwrap();
        assert!(tree.is_leaf(tree.root()));
        assert_eq!(tree.count(tree.root()), 50);
    }

    #[test]
    fn duplicate_heavy_data_still_partitions() {
        // Half the mass at one point, half spread out: the quantile split
        // degenerates and the box-midpoint fallback must kick in.
        let mut rows: Vec<Vec<f64>> = vec![vec![0.0]; 100];
        for i in 0..100 {
            rows.push(vec![10.0 + i as f64 * 0.01]);
        }
        let data = Matrix::from_rows(&rows).unwrap();
        let tree = KdTree::build(&data, 4, SplitRule::TrimmedMidpoint).unwrap();
        assert_eq!(check_invariants(&tree, tree.root()), 200);
        assert!(tree.node_count() > 1);
    }

    #[test]
    fn rejects_bad_inputs() {
        let empty = Matrix::with_cols(2);
        assert!(KdTree::build(&empty, 8, SplitRule::Median).is_err());
        let data = random_matrix(10, 2, 3);
        assert!(KdTree::build(&data, 0, SplitRule::Median).is_err());
    }

    #[test]
    fn single_point_tree() {
        let data = Matrix::from_rows(&[vec![3.0, 4.0]]).unwrap();
        let tree = KdTree::build(&data, 8, SplitRule::TrimmedMidpoint).unwrap();
        assert_eq!(tree.len(), 1);
        assert!(tree.is_leaf(tree.root()));
        assert_eq!(tree.box_lo(tree.root()), &[3.0, 4.0]);
        assert_eq!(tree.box_hi(tree.root()), &[3.0, 4.0]);
    }

    #[test]
    fn node_block_agrees_with_node_points() {
        let data = random_matrix(300, 3, 19);
        let tree = KdTree::build(&data, 16, SplitRule::TrimmedMidpoint).unwrap();
        for id in 0..tree.node_count() as u32 {
            let block = tree.node_block(id);
            assert_eq!(block.len(), tree.count(id) * tree.dim());
            let flat: Vec<f64> = tree
                .node_points(id)
                .flat_map(|r| r.iter().copied())
                .collect();
            assert_eq!(block, flat.as_slice());
        }
    }

    #[test]
    fn node_block_soa_is_the_transpose_of_node_block() {
        for d in [1usize, 2, 3, 7] {
            let data = random_matrix(300, d, 19 + d as u64);
            let tree = KdTree::build(&data, 16, SplitRule::TrimmedMidpoint).unwrap();
            for id in 0..tree.node_count() as u32 {
                if !tree.is_leaf(id) {
                    continue;
                }
                let rows = tree.count(id);
                let block = tree.node_block(id);
                let soa = tree.node_block_soa(id);
                assert_eq!(soa.len(), rows * d);
                for i in 0..rows {
                    for j in 0..d {
                        assert_eq!(
                            soa[j * rows + i].to_bits(),
                            block[i * d + j].to_bits(),
                            "id={id} i={i} j={j}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn soa_cache_survives_raw_roundtrip() {
        let data = random_matrix(250, 3, 47);
        let tree = KdTree::build(&data, 8, SplitRule::TrimmedMidpoint).unwrap();
        let back = KdTree::from_raw_parts(tree.to_raw_parts()).unwrap();
        for id in 0..tree.node_count() as u32 {
            if tree.is_leaf(id) {
                assert_eq!(tree.node_block_soa(id), back.node_block_soa(id));
            }
        }
    }

    #[test]
    fn point_accessor_matches_reordered_rows() {
        let data = random_matrix(120, 2, 3);
        let tree = KdTree::build(&data, 8, SplitRule::TrimmedMidpoint).unwrap();
        for (i, row) in tree.node_points(tree.root()).enumerate() {
            assert_eq!(tree.point(i), row);
        }
    }

    #[test]
    fn dist_bounds_sandwich_point_distances() {
        let data = random_matrix(300, 2, 11);
        let tree = KdTree::build(&data, 16, SplitRule::TrimmedMidpoint).unwrap();
        let inv_h = [1.0, 1.0];
        let q = [0.5, -0.25];
        // Check every node: all contained points must respect the bounds.
        for id in 0..tree.node_count() as u32 {
            let (umin, umax) = tree.scaled_sq_dist_bounds(id, &q, &inv_h);
            for p in tree.node_points(id) {
                let dx = q[0] - p[0];
                let dy = q[1] - p[1];
                let u = dx * dx + dy * dy;
                assert!(u >= umin - 1e-12 && u <= umax + 1e-12);
            }
        }
    }

    #[test]
    fn radius_query_matches_linear_scan() {
        let data = random_matrix(400, 3, 17);
        let tree = KdTree::build(&data, 8, SplitRule::TrimmedMidpoint).unwrap();
        let inv_h = [1.0, 0.5, 2.0];
        let q = [0.1, 0.2, -0.3];
        let radius = 2.0;
        let mut found = 0usize;
        let mut sum = 0.0;
        tree.for_each_in_scaled_radius(&q, &inv_h, radius, |p| {
            found += 1;
            sum += p[0];
        });
        let mut expected = 0usize;
        let mut expected_sum = 0.0;
        for row in data.iter_rows() {
            let mut acc = 0.0;
            for i in 0..3 {
                let z = (q[i] - row[i]) * inv_h[i];
                acc += z * z;
            }
            if acc <= radius * radius {
                expected += 1;
                expected_sum += row[0];
            }
        }
        assert_eq!(found, expected);
        assert!((sum - expected_sum).abs() < 1e-9);
        assert!(expected > 0, "test should cover non-empty result");
    }

    #[test]
    fn weighted_build_keeps_weights_row_aligned() {
        let data = random_matrix(400, 3, 31);
        // Encode each row's identity into its weight so any misalignment
        // after partition swaps is detectable: w = 1 + first coordinate
        // shifted into a positive range.
        let weights: Vec<f64> = data.iter_rows().map(|r| 20.0 + r[0]).collect();
        let tree = KdTree::build_weighted(&data, &weights, 8, SplitRule::TrimmedMidpoint).unwrap();
        assert!(tree.is_weighted());
        let w = tree.node_weights(tree.root()).unwrap();
        for (row, &wi) in tree.node_points(tree.root()).zip(w) {
            assert!(
                (wi - (20.0 + row[0])).abs() < 1e-12,
                "weight detached from its row"
            );
        }
        // Masses: children sum to parent, root mass = Σ w.
        let total: f64 = weights.iter().sum();
        assert!((tree.total_mass() - total).abs() < 1e-9);
        for id in 0..tree.node_count() as u32 {
            if let Some((l, r)) = tree.children(id) {
                assert!(
                    (tree.node_mass(l) + tree.node_mass(r) - tree.node_mass(id)).abs()
                        < 1e-9 * tree.node_mass(id).max(1.0)
                );
            }
            let node_sum: f64 = tree.node_weights(id).unwrap().iter().sum();
            assert!((node_sum - tree.node_mass(id)).abs() < 1e-9);
        }
    }

    #[test]
    fn unweighted_mass_equals_count_bitwise() {
        let data = random_matrix(200, 2, 5);
        let tree = KdTree::build(&data, 8, SplitRule::TrimmedMidpoint).unwrap();
        assert!(!tree.is_weighted());
        assert!(tree.node_weights(tree.root()).is_none());
        assert!(tree.weights().is_none());
        for id in 0..tree.node_count() as u32 {
            assert_eq!(
                tree.node_mass(id).to_bits(),
                (tree.count(id) as f64).to_bits()
            );
        }
        assert_eq!(tree.total_mass().to_bits(), (200.0f64).to_bits());
    }

    #[test]
    fn weighted_raw_roundtrip_is_bit_identical() {
        let data = random_matrix(300, 2, 13);
        let weights: Vec<f64> = (0..300).map(|i| 1.0 + (i % 9) as f64 * 0.5).collect();
        let tree = KdTree::build_weighted(&data, &weights, 16, SplitRule::TrimmedMidpoint).unwrap();
        let raw = tree.to_raw_parts();
        let back = KdTree::from_raw_parts(raw).unwrap();
        for id in 0..tree.node_count() as u32 {
            assert_eq!(tree.node_mass(id).to_bits(), back.node_mass(id).to_bits());
        }
        assert_eq!(tree.node_weights(0), back.node_weights(0));
    }

    #[test]
    fn weighted_build_rejects_bad_weights() {
        let data = random_matrix(10, 2, 3);
        assert!(KdTree::build_weighted(&data, &[1.0; 9], 4, SplitRule::Median).is_err());
        let mut w = vec![1.0; 10];
        w[3] = 0.0;
        assert!(KdTree::build_weighted(&data, &w, 4, SplitRule::Median).is_err());
        w[3] = f64::NAN;
        assert!(KdTree::build_weighted(&data, &w, 4, SplitRule::Median).is_err());
        w[3] = -2.0;
        assert!(KdTree::build_weighted(&data, &w, 4, SplitRule::Median).is_err());
        w[3] = f64::INFINITY;
        assert!(KdTree::build_weighted(&data, &w, 4, SplitRule::Median).is_err());
    }

    #[test]
    fn median_split_is_more_balanced() {
        // Skewed data: median split should produce a shallower tree than
        // trimmed-midpoint on pathological skew, but both must be valid.
        let mut rng = Rng::seed_from(23);
        let mut m = Matrix::with_cols(1);
        for _ in 0..1000 {
            let v: f64 = rng.next_f64();
            m.push_row(&[v * v * v * 100.0]).unwrap();
        }
        let t1 = KdTree::build(&m, 8, SplitRule::Median).unwrap();
        let t2 = KdTree::build(&m, 8, SplitRule::TrimmedMidpoint).unwrap();
        assert_eq!(check_invariants(&t1, t1.root()), 1000);
        assert_eq!(check_invariants(&t2, t2.root()), 1000);
    }
}
