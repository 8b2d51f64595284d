//! The one seeded input generator every workload uses. Training rows and
//! queries come from disjoint streams derived from the run's seed, so a
//! query is never a training row and the classifier can be wrong.

use crate::adapter::{self, Matrix, Rng};

/// Query classes; the index is the position in `QuerySet::counts`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// Fresh draws from the training distribution.
    Heldout = 0,
    /// Points planted far out in the tail; every one should be LOW.
    Outlier = 1,
    /// Points on the shell where the density crosses the fitted
    /// threshold: the queries whose bounds straddle `t` longest.
    Shell = 2,
}

pub const CLASS_NAMES: [&str; 3] = ["heldout", "outlier", "shell"];

/// splitmix64 finaliser: distinct `stream` values give unrelated seeds.
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

const TRAIN_STREAM: u64 = 1;
const QUERY_STREAM: u64 = 2;

/// `n` rows of a standard Gaussian in `d` dimensions: the training set.
pub fn training_rows(n: usize, d: usize, seed: u64) -> Matrix {
    gaussian(n, d, &mut adapter::rng(derive_seed(seed, TRAIN_STREAM)))
}

fn gaussian(n: usize, d: usize, rng: &mut Rng) -> Matrix {
    let data = (0..n * d).map(|_| rng.normal(0.0, 1.0)).collect();
    adapter::matrix_from_vec(data, n, d).expect("n*d values fill an n x d matrix")
}

/// A point at distance `r` from the origin in a uniformly random
/// direction.
fn on_sphere(d: usize, r: f64, rng: &mut Rng) -> Vec<f64> {
    loop {
        let v: Vec<f64> = (0..d).map(|_| rng.normal(0.0, 1.0)).collect();
        let norm = v.iter().map(|x| x * x).sum::<f64>().sqrt();
        if norm > 1e-9 {
            return v.into_iter().map(|x| x * r / norm).collect();
        }
    }
}

/// What a workload asks of the generator.
#[derive(Debug, Clone, Copy)]
pub struct Mix {
    pub total: usize,
    pub outlier_share: f64,
    pub outlier_radius: f64,
    /// Share of near-threshold shell points; only used at d = 2, where
    /// the shell radius follows from the standard Gaussian density.
    pub shell_share: f64,
}

pub struct QuerySet {
    pub points: Matrix,
    pub class: Vec<Class>,
    pub counts: [usize; 3],
    pub seed: u64,
}

impl QuerySet {
    /// Generates `mix.total` queries in shuffled class order.
    /// `threshold` is the fitted `t`, which places the d = 2 shell: a
    /// 2-d standard Gaussian has density `exp(-r²/2)/2π`, so the
    /// threshold circle sits at `r² = -2·ln(2π·t)`.
    pub fn generate(d: usize, mix: Mix, threshold: f64, seed: u64) -> Self {
        let qseed = derive_seed(seed, QUERY_STREAM);
        let mut rng = adapter::rng(qseed);
        let n_out = (mix.total as f64 * mix.outlier_share).round() as usize;
        let n_shell = if d == 2 {
            (mix.total as f64 * mix.shell_share).round() as usize
        } else {
            0
        };
        let n_held = mix.total - n_out - n_shell;
        let mut class: Vec<Class> = std::iter::repeat_n(Class::Heldout, n_held)
            .chain(std::iter::repeat_n(Class::Outlier, n_out))
            .chain(std::iter::repeat_n(Class::Shell, n_shell))
            .collect();
        rng.shuffle(&mut class);
        let r_shell = (-2.0 * (2.0 * std::f64::consts::PI * threshold).ln())
            .max(0.25)
            .sqrt();
        let mut data = Vec::with_capacity(mix.total * d);
        for c in &class {
            match c {
                Class::Heldout => data.extend((0..d).map(|_| rng.normal(0.0, 1.0))),
                Class::Outlier => data.extend(on_sphere(d, mix.outlier_radius, &mut rng)),
                Class::Shell => {
                    let r = r_shell + rng.normal(0.0, 0.05);
                    data.extend(on_sphere(d, r, &mut rng));
                }
            }
        }
        let points =
            adapter::matrix_from_vec(data, mix.total, d).expect("generator fills the matrix");
        Self {
            points,
            class,
            counts: [n_held, n_out, n_shell],
            seed: qseed,
        }
    }

    pub fn len(&self) -> usize {
        self.class.len()
    }

    /// Row-aligned chunks of `size` queries (the last may be shorter).
    pub fn chunks(&self, size: usize) -> Vec<std::ops::Range<usize>> {
        (0..self.len())
            .step_by(size)
            .map(|a| a..(a + size).min(self.len()))
            .collect()
    }

    /// A copy of rows `r` as their own matrix.
    pub fn rows(&self, r: std::ops::Range<usize>) -> Matrix {
        let d = self.points.cols();
        let data = self.points.as_slice()[r.start * d..r.end * d].to_vec();
        adapter::matrix_from_vec(data, r.len(), d).expect("slice of whole rows")
    }

    /// Indices of the first `per_class` queries of every class: the
    /// fixed sample the answer checks look at.
    pub fn sample(&self, per_class: usize) -> Vec<usize> {
        let mut taken = [0usize; 3];
        let mut out = Vec::new();
        for (i, c) in self.class.iter().enumerate() {
            let k = *c as usize;
            if taken[k] < per_class {
                taken[k] += 1;
                out.push(i);
            }
        }
        out
    }
}
