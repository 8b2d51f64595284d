//! DBSCAN density-based clustering (Ester, Kriegel, Sander & Xu, KDD 1996
//! — reference [22] of the tKDC paper).
//!
//! Points with at least `min_pts` neighbors within `eps` are core points;
//! clusters grow by density reachability; everything unreachable is
//! noise. The noise set doubles as an outlier list, but — as §5 notes —
//! DBSCAN emits *labels only*: no scores, no densities, no statistical
//! interpretation, and results hinge on the `eps`/`min_pts` knobs.

use tkdc_common::error::{invalid_param, Error, Result};
use tkdc_common::Matrix;
use tkdc_index::{KdTree, SplitRule};

/// Cluster assignment for one point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DbscanLabel {
    /// Member of cluster `id` (0-based).
    Cluster(u32),
    /// Density-unreachable noise (outlier).
    Noise,
}

/// DBSCAN parameters.
#[derive(Debug, Clone, Copy)]
pub struct DbscanParams {
    /// Neighborhood radius in scaled space.
    pub eps: f64,
    /// Minimum neighborhood size (self included) to be a core point.
    pub min_pts: usize,
}

/// Runs DBSCAN over the dataset; returns per-row labels (input order)
/// and the number of clusters found.
///
/// Distances are scaled by per-column standard deviations like the other
/// detectors in this crate.
///
/// # Errors
/// Fails on empty input or non-positive parameters.
pub fn dbscan(data: &Matrix, params: &DbscanParams) -> Result<(Vec<DbscanLabel>, usize)> {
    if data.rows() == 0 {
        return Err(Error::EmptyInput("dbscan input"));
    }
    if !params.eps.is_finite() || params.eps <= 0.0 {
        return Err(invalid_param("eps", "must be positive"));
    }
    if params.min_pts == 0 {
        return Err(invalid_param("min_pts", "must be positive"));
    }
    let n = data.rows();
    let stds = tkdc_common::stats::column_stds(data);
    let inv_h = crate::util::inv_scales_from_stds(&stds);
    let tree = KdTree::build(data, 16, SplitRule::Median)?;

    // The tree reorders rows; build the neighbor lists in *input* order by
    // querying with input rows and translating hits back via the
    // reorder permutation (content-stable pairing).
    // Simpler and exact here: query the tree with each input row and
    // collect neighbor *positions in input order* by matching against a
    // content index is fragile with duplicates — instead run the whole
    // algorithm in tree order and unpermute the labels at the end.
    let points: Vec<&[f64]> = tree.node_points(tree.root()).collect();

    // Neighbor lists in tree order (indices are tree rows).
    let mut neighbor_lists: Vec<Vec<u32>> = Vec::with_capacity(n);
    for p in &points {
        let mut hits: Vec<u32> = Vec::new();
        tree.for_each_in_scaled_radius_indexed(p, &inv_h, params.eps, |row, _| {
            hits.push(row as u32) // CAST: row < n, and point counts are far below u32::MAX
        });
        neighbor_lists.push(hits);
    }

    const UNVISITED: u32 = u32::MAX;
    const NOISE: u32 = u32::MAX - 1;
    let mut labels = vec![UNVISITED; n];
    let mut cluster = 0u32;
    let mut stack: Vec<u32> = Vec::new();
    for row in 0..n {
        if labels[row] != UNVISITED {
            continue;
        }
        if neighbor_lists[row].len() < params.min_pts {
            labels[row] = NOISE;
            continue;
        }
        // Grow a new cluster from this core point.
        labels[row] = cluster;
        stack.clear();
        stack.extend(&neighbor_lists[row]);
        while let Some(q) = stack.pop() {
            let q = q as usize; // CAST: u32 -> usize is lossless on 64-bit targets
            if labels[q] == NOISE {
                labels[q] = cluster; // border point adopted by the cluster
            }
            if labels[q] != UNVISITED {
                continue;
            }
            labels[q] = cluster;
            if neighbor_lists[q].len() >= params.min_pts {
                stack.extend(&neighbor_lists[q]);
            }
        }
        cluster += 1;
    }

    // Unpermute to input order.
    let perm = tree.reorder_permutation(data);
    let mut out = vec![DbscanLabel::Noise; n];
    for (tree_row, &input_row) in perm.iter().enumerate() {
        out[input_row] = match labels[tree_row] {
            NOISE => DbscanLabel::Noise,
            c => DbscanLabel::Cluster(c),
        };
    }
    Ok((out, cluster as usize)) // CAST: u32 -> usize is lossless on 64-bit targets
}

#[cfg(test)]
mod tests {
    use super::*;
    use tkdc_common::Rng;

    fn two_blobs_and_noise(seed: u64) -> Matrix {
        let mut rng = Rng::seed_from(seed);
        let mut m = Matrix::with_cols(2);
        for _ in 0..150 {
            m.push_row(&[rng.normal(0.0, 0.3), rng.normal(0.0, 0.3)])
                .unwrap();
        }
        for _ in 0..150 {
            m.push_row(&[rng.normal(8.0, 0.3), rng.normal(8.0, 0.3)])
                .unwrap();
        }
        m.push_row(&[4.0, 4.0]).unwrap(); // isolated noise
        m
    }

    #[test]
    fn finds_two_clusters_and_noise() {
        let data = two_blobs_and_noise(1);
        let (labels, clusters) = dbscan(
            &data,
            &DbscanParams {
                eps: 0.3,
                min_pts: 5,
            },
        )
        .unwrap();
        assert_eq!(clusters, 2, "expected two clusters");
        // The planted point (last row) is noise.
        assert_eq!(labels[300], DbscanLabel::Noise);
        // The two blobs land in different clusters.
        let first = labels[0];
        let second = labels[200];
        assert_ne!(first, second);
        assert!(matches!(first, DbscanLabel::Cluster(_)));
        assert!(matches!(second, DbscanLabel::Cluster(_)));
        // Same-blob points share a label.
        assert_eq!(labels[0], labels[50]);
        assert_eq!(labels[200], labels[250]);
    }

    #[test]
    fn tiny_eps_marks_everything_noise() {
        let data = two_blobs_and_noise(3);
        let (labels, clusters) = dbscan(
            &data,
            &DbscanParams {
                eps: 1e-6,
                min_pts: 3,
            },
        )
        .unwrap();
        assert_eq!(clusters, 0);
        assert!(labels.iter().all(|&l| l == DbscanLabel::Noise));
    }

    #[test]
    fn huge_eps_single_cluster() {
        let data = two_blobs_and_noise(5);
        let (labels, clusters) = dbscan(
            &data,
            &DbscanParams {
                eps: 100.0,
                min_pts: 3,
            },
        )
        .unwrap();
        assert_eq!(clusters, 1);
        assert!(labels.iter().all(|&l| l == DbscanLabel::Cluster(0)));
    }

    #[test]
    fn rejects_bad_params() {
        let data = two_blobs_and_noise(7);
        assert!(dbscan(
            &data,
            &DbscanParams {
                eps: 0.0,
                min_pts: 3
            }
        )
        .is_err());
        assert!(dbscan(
            &data,
            &DbscanParams {
                eps: 1.0,
                min_pts: 0
            }
        )
        .is_err());
        let empty = Matrix::with_cols(2);
        assert!(dbscan(
            &empty,
            &DbscanParams {
                eps: 1.0,
                min_pts: 3
            }
        )
        .is_err());
    }
}
