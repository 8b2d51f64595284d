//! Answer checks. Each one can fail the run: a failed check sets
//! `correct` to false, counts toward `failed` and `error_rate`, and
//! makes the benchmark exit non-zero.

use crate::adapter::Label;

/// Whether a label agrees with the exact density it claims to certify.
/// A HIGH must not sit below `t` by more than `ε·t`, a LOW must not sit
/// above it by more than `ε·t` (the paper's tolerance rule labels by the
/// interval midpoint once the interval is narrower than `ε·t`).
/// UNKNOWN certifies nothing, so it passes only where the model may
/// answer it: coreset models do, full-data models never do.
pub fn label_holds(label: Label, density: f64, t: f64, eps: f64, unknown_ok: bool) -> bool {
    match label {
        Label::High => density >= t * (1.0 - eps),
        Label::Low => density <= t * (1.0 + eps),
        Label::Unknown => unknown_ok,
    }
}

/// Positions of the `labels` that `label_holds` rejects against
/// `densities` (a NaN density rejects its label).
pub fn wrong_labels(
    labels: &[Label],
    densities: &[f64],
    t: f64,
    eps: f64,
    unknown_ok: bool,
) -> Vec<usize> {
    labels
        .iter()
        .zip(densities)
        .enumerate()
        .filter(|&(_, (&l, &f))| f.is_nan() || !label_holds(l, f, t, eps, unknown_ok))
        .map(|(i, _)| i)
        .collect()
}

/// Served labels that differ from the in-process labels for the same
/// points (a length mismatch counts every missing label).
pub fn mismatches(served: &[Label], local: &[Label]) -> usize {
    let common = served.iter().zip(local).filter(|(a, b)| a != b).count();
    common + served.len().abs_diff(local.len())
}

/// A model whose threshold is not a positive density labels nothing LOW.
pub fn threshold_positive(t: f64) -> bool {
    t.is_finite() && t > 0.0
}

/// A constant label vector on a mix of held-out points and planted
/// outliers means the classifier is not classifying.
pub fn not_constant(labels: &[Label]) -> bool {
    labels.windows(2).any(|w| w[0] != w[1])
}

/// The checks made in one run, with how many answers each looked at and
/// how many it rejected.
#[derive(Debug, Default)]
pub struct Ledger {
    items: Vec<(&'static str, usize, usize)>,
}

impl Ledger {
    pub fn add(&mut self, name: &'static str, checked: usize, failed: usize) {
        self.items.push((name, checked, failed));
    }

    pub fn add_bool(&mut self, name: &'static str, ok: bool) {
        self.add(name, 1, usize::from(!ok));
    }

    pub fn failed(&self) -> usize {
        self.items.iter().map(|i| i.2).sum()
    }

    pub fn ok(&self) -> bool {
        self.failed() == 0
    }

    pub fn json(&self) -> String {
        let parts: Vec<String> = self
            .items
            .iter()
            .map(|(n, c, f)| format!("\"{n}\":{{\"checked\":{c},\"failed\":{f}}}"))
            .collect();
        format!("{{{}}}", parts.join(","))
    }
}

#[cfg(test)]
mod tests {
    //! Each check must fire on a corrupted answer from a real model.
    use super::*;
    use crate::adapter;
    use crate::queries::{training_rows, Mix, QuerySet};

    const MIX: Mix = Mix {
        total: 400,
        outlier_share: 0.1,
        outlier_radius: 6.0,
        shell_share: 0.1,
    };

    fn flip(l: Label) -> Label {
        match l {
            Label::High => Label::Low,
            _ => Label::High,
        }
    }

    /// Index of the certified label whose density is farthest from `t`,
    /// so flipping it is wrong by any tolerance.
    fn clearest(labels: &[Label], dens: &[f64], t: f64) -> usize {
        (0..labels.len())
            .filter(|&i| labels[i] != Label::Unknown)
            .max_by(|&a, &b| (dens[a] - t).abs().total_cmp(&(dens[b] - t).abs()))
            .expect("some certified label")
    }

    #[test]
    fn full_data_check_fires_on_a_flipped_label() {
        let train = training_rows(3000, 2, 7);
        let clf = adapter::fit(&train, &adapter::params(true), adapter::serial()).unwrap();
        let t = adapter::threshold(&clf);
        let qs = QuerySet::generate(2, MIX, t, 7);
        let (labels, _) =
            adapter::classify_batch(&clf, qs.points.clone().into(), adapter::serial()).unwrap();
        let dens: Vec<f64> = (0..qs.len())
            .map(|i| adapter::exact_density(&clf, qs.points.row(i)).unwrap())
            .collect();
        let eps = adapter::epsilon(&clf);
        assert!(wrong_labels(&labels, &dens, t, eps, false).is_empty());
        let mut bad = labels.clone();
        let i = clearest(&bad, &dens, t);
        bad[i] = flip(bad[i]);
        assert_eq!(wrong_labels(&bad, &dens, t, eps, false), vec![i]);
        bad[i] = Label::Unknown;
        assert_eq!(wrong_labels(&bad, &dens, t, eps, false), vec![i]);
    }

    #[test]
    fn coreset_check_fires_on_a_flipped_label() {
        let train = training_rows(20_000, 2, 11);
        let cs = adapter::compact(&train, 0.01).unwrap();
        let clf = adapter::fit_weighted(&cs, &adapter::params(false), adapter::serial()).unwrap();
        let t = adapter::threshold(&clf);
        let qs = QuerySet::generate(2, MIX, t, 11);
        let (labels, _) =
            adapter::classify_batch(&clf, qs.points.clone().into(), adapter::serial()).unwrap();
        let n = train.rows() as f64;
        let kernel = adapter::kernel(&clf);
        let dens: Vec<f64> = (0..qs.len())
            .map(|i| adapter::kernel_sum_rows(kernel, qs.points.row(i), &train) / n)
            .collect();
        let eps = adapter::epsilon(&clf);
        assert!(wrong_labels(&labels, &dens, t, eps, true).is_empty());
        let mut bad = labels.clone();
        let i = clearest(&bad, &dens, t);
        bad[i] = flip(bad[i]);
        assert_eq!(wrong_labels(&bad, &dens, t, eps, true), vec![i]);
    }

    #[test]
    fn served_label_check_fires_on_one_changed_label() {
        let local = vec![Label::High, Label::Low, Label::High];
        assert_eq!(mismatches(&local, &local), 0);
        assert_eq!(
            mismatches(&[Label::High, Label::High, Label::High], &local),
            1
        );
        assert_eq!(mismatches(&local[..2], &local), 1);
    }

    #[test]
    fn threshold_and_constant_checks_fire() {
        assert!(threshold_positive(1e-9));
        assert!(!threshold_positive(0.0));
        assert!(!threshold_positive(f64::NAN));
        assert!(not_constant(&[Label::High, Label::Low]));
        assert!(!not_constant(&[Label::High; 5]));
    }
}
