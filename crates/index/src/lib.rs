#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! # tkdc-index
//!
//! Spatial substrate for tKDC: a multi-resolution k-d tree whose nodes
//! track point counts and tight bounding boxes (following Gray & Moore's
//! density-bound construction and Deng & Moore's multi-resolution trees),
//! plus the bandwidth-aligned hypergrid cache of §3.7 of the paper.
//!
//! The tree is stored as a flat arena (`Vec` of nodes with `u32` child
//! links and bounding boxes in contiguous side arrays) so traversal stays
//! cache-friendly; training points are reordered into node-contiguous
//! ranges so leaf scans are sequential reads.

pub mod bbox;
pub mod grid;
pub mod kdtree;
pub mod knn;

pub use bbox::min_scaled_sq_dist;
pub use grid::{BandwidthGrid, GridRaw, MAX_GRID_DIM};
pub use kdtree::{KdTree, KdTreeRaw, SplitRule};
pub use knn::{k_nearest, Neighbor};
