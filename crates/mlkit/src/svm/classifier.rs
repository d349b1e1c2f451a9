//! Binary kernel SVM classifier trained with dual coordinate descent.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use super::{ClassWeight, GramMatrix, SupportVectors};
use crate::error::MlError;
use crate::kernel::Kernel;
use crate::Result;

/// Hyper-parameters of the binary [`SvmClassifier`].
#[derive(Debug, Clone, PartialEq)]
pub struct SvmParams {
    /// Kernel function.
    pub kernel: Kernel,
    /// Soft-margin cost parameter `C > 0`.
    pub c: f64,
    /// Class weighting applied to `C` per class.
    pub class_weight: ClassWeight,
    /// Maximum number of full passes over the training set.
    pub max_epochs: usize,
    /// Convergence tolerance on the largest alpha change within one epoch.
    pub tolerance: f64,
    /// Seed for the coordinate-order shuffling.
    pub seed: u64,
}

impl Default for SvmParams {
    fn default() -> Self {
        SvmParams {
            kernel: Kernel::default(),
            c: 1.0,
            class_weight: ClassWeight::Balanced,
            max_epochs: 200,
            tolerance: 1e-4,
            seed: 0x5eed,
        }
    }
}

/// A trained binary SVM.
///
/// Only examples with non-zero dual coefficient (the support vectors) are
/// retained for prediction, each with `alpha_i * y_i` as its coefficient.
#[derive(Debug, Clone)]
pub struct SvmClassifier {
    support: SupportVectors,
    epochs_run: usize,
    converged: bool,
}

impl SvmClassifier {
    /// Trains a binary SVM on dense feature vectors `xs` with labels `ys`
    /// (`true` = positive class).
    ///
    /// Errors when the input is empty, inconsistent, lacks one of the two
    /// classes, or when a hyper-parameter is invalid.
    pub fn train(xs: &[Vec<f64>], ys: &[bool], params: &SvmParams) -> Result<Self> {
        validate_inputs(xs, ys)?;
        if params.c <= 0.0 || !params.c.is_finite() {
            return Err(MlError::InvalidParameter(format!(
                "C must be positive, got {}",
                params.c
            )));
        }
        if params.max_epochs == 0 {
            return Err(MlError::InvalidParameter("max_epochs must be >= 1".into()));
        }

        let n = xs.len();
        let y: Vec<f64> = ys.iter().map(|&b| if b { 1.0 } else { -1.0 }).collect();
        let n_pos = ys.iter().filter(|&&b| b).count();
        let n_neg = n - n_pos;
        if n_pos == 0 {
            return Err(MlError::MissingClass { positive: true });
        }
        if n_neg == 0 {
            return Err(MlError::MissingClass { positive: false });
        }

        // Per-example cost: balanced weighting scales C by n / (2 * n_class),
        // the usual "inverse class frequency" heuristic.
        let (c_pos, c_neg) = match params.class_weight {
            ClassWeight::None => (params.c, params.c),
            ClassWeight::Balanced => (
                params.c * n as f64 / (2.0 * n_pos as f64),
                params.c * n as f64 / (2.0 * n_neg as f64),
            ),
        };
        let cost: Vec<f64> = ys.iter().map(|&b| if b { c_pos } else { c_neg }).collect();

        let gram = GramMatrix::compute(xs, &params.kernel);

        // Dual coordinate descent on
        //   min_a  1/2 Σ a_i a_j y_i y_j K'_ij − Σ a_i,  0 ≤ a_i ≤ C_i
        // maintaining f_i = Σ_j a_j y_j K'_ij incrementally.
        let mut alpha = vec![0.0f64; n];
        let mut f = vec![0.0f64; n];
        let mut order: Vec<usize> = (0..n).collect();
        let mut rng = StdRng::seed_from_u64(params.seed);

        let mut epochs_run = 0;
        let mut converged = false;
        for _epoch in 0..params.max_epochs {
            epochs_run += 1;
            order.shuffle(&mut rng);
            let mut max_delta: f64 = 0.0;
            for &i in &order {
                let kii = gram.diag(i);
                if kii <= 0.0 {
                    continue;
                }
                // Gradient of the dual w.r.t. a_i is y_i f_i − 1.
                let grad = y[i] * f[i] - 1.0;
                let mut new_alpha = alpha[i] - grad / kii;
                new_alpha = new_alpha.clamp(0.0, cost[i]);
                let delta = new_alpha - alpha[i];
                if delta.abs() < 1e-15 {
                    continue;
                }
                alpha[i] = new_alpha;
                max_delta = max_delta.max(delta.abs());
                let row = gram.row(i);
                let dy = delta * y[i];
                for (fj, &kij) in f.iter_mut().zip(row.iter()) {
                    *fj += dy * kij as f64;
                }
            }
            if max_delta < params.tolerance {
                converged = true;
                break;
            }
        }

        // Retain support vectors only.
        let support: Vec<(&[f64], f64)> = (0..n)
            .filter(|&i| alpha[i] > 1e-12)
            .map(|i| (xs[i].as_slice(), alpha[i] * y[i]))
            .collect();
        if support.is_empty() {
            return Err(MlError::Numerical(
                "training produced no support vectors".into(),
            ));
        }

        Ok(SvmClassifier {
            support: SupportVectors::new(params.kernel, &support),
            epochs_run,
            converged,
        })
    }

    /// Signed decision value for `x`; positive means the positive class.
    pub fn decision_value(&self, x: &[f64]) -> f64 {
        self.support.decision_value(x)
    }

    /// Predicted label for `x`.
    pub fn predict(&self, x: &[f64]) -> bool {
        self.decision_value(x) >= 0.0
    }

    /// Predicts labels for a batch of feature vectors.
    pub fn predict_batch(&self, xs: &[Vec<f64>]) -> Vec<bool> {
        let mut labels = Vec::with_capacity(xs.len());
        self.support.decision_values(xs, |v| labels.push(v >= 0.0));
        labels
    }

    /// Number of retained support vectors.
    pub fn n_support_vectors(&self) -> usize {
        self.support.len()
    }

    /// Number of coordinate-descent epochs that were run.
    pub fn epochs_run(&self) -> usize {
        self.epochs_run
    }

    /// Whether the tolerance criterion was met before `max_epochs`.
    pub fn converged(&self) -> bool {
        self.converged
    }
}

pub(crate) fn validate_inputs(xs: &[Vec<f64>], ys: &[bool]) -> Result<()> {
    if xs.len() != ys.len() {
        return Err(MlError::InvalidInput(format!(
            "{} feature vectors but {} labels",
            xs.len(),
            ys.len()
        )));
    }
    validate_features(xs)
}

pub(crate) fn validate_inputs_regression(xs: &[Vec<f64>], ys: &[f64]) -> Result<()> {
    if xs.len() != ys.len() {
        return Err(MlError::InvalidInput(format!(
            "{} feature vectors but {} targets",
            xs.len(),
            ys.len()
        )));
    }
    if ys.iter().any(|y| !y.is_finite()) {
        return Err(MlError::InvalidInput(
            "targets contain non-finite values".into(),
        ));
    }
    validate_features(xs)
}

fn validate_features(xs: &[Vec<f64>]) -> Result<()> {
    if xs.is_empty() {
        return Err(MlError::InvalidInput("training set is empty".into()));
    }
    let dim = xs[0].len();
    if dim == 0 {
        return Err(MlError::InvalidInput(
            "feature vectors must be non-empty".into(),
        ));
    }
    if xs.iter().any(|x| x.len() != dim) {
        return Err(MlError::InvalidInput(
            "feature vectors have inconsistent dimensionality".into(),
        ));
    }
    if xs.iter().any(|x| x.iter().any(|v| !v.is_finite())) {
        return Err(MlError::InvalidInput(
            "feature vectors contain non-finite values".into(),
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    fn linearly_separable(n: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<bool>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for _ in 0..n {
            let pos: bool = rng.gen();
            let offset = if pos { 2.0 } else { -2.0 };
            xs.push(vec![offset + rng.gen::<f64>(), offset + rng.gen::<f64>()]);
            ys.push(pos);
        }
        (xs, ys)
    }

    #[test]
    fn trains_on_linearly_separable_data() {
        let (xs, ys) = linearly_separable(60, 1);
        let params = SvmParams {
            kernel: Kernel::Linear,
            c: 10.0,
            ..Default::default()
        };
        let model = SvmClassifier::train(&xs, &ys, &params).unwrap();
        let preds = model.predict_batch(&xs);
        let correct = preds.iter().zip(ys.iter()).filter(|(a, b)| a == b).count();
        assert!(
            correct as f64 / xs.len() as f64 > 0.95,
            "train accuracy too low"
        );
        assert!(model.n_support_vectors() > 0);
        assert!(model.n_support_vectors() <= xs.len());
    }

    #[test]
    fn rbf_solves_xor() {
        // XOR is not linearly separable; RBF must handle it.
        let xs = vec![
            vec![0.0, 0.0],
            vec![1.0, 1.0],
            vec![0.0, 1.0],
            vec![1.0, 0.0],
            vec![0.1, 0.1],
            vec![0.9, 0.9],
            vec![0.1, 0.9],
            vec![0.9, 0.1],
        ];
        let ys = vec![false, false, true, true, false, false, true, true];
        let params = SvmParams {
            kernel: Kernel::Rbf { gamma: 4.0 },
            c: 50.0,
            max_epochs: 500,
            ..Default::default()
        };
        let model = SvmClassifier::train(&xs, &ys, &params).unwrap();
        for (x, &y) in xs.iter().zip(ys.iter()) {
            assert_eq!(model.predict(x), y, "misclassified {x:?}");
        }
    }

    #[test]
    fn generalizes_to_unseen_points() {
        let (xs, ys) = linearly_separable(200, 2);
        let (test_xs, test_ys) = linearly_separable(100, 3);
        let params = SvmParams {
            kernel: Kernel::Rbf { gamma: 0.5 },
            c: 5.0,
            ..Default::default()
        };
        let model = SvmClassifier::train(&xs, &ys, &params).unwrap();
        let preds = model.predict_batch(&test_xs);
        let correct = preds
            .iter()
            .zip(test_ys.iter())
            .filter(|(a, b)| a == b)
            .count();
        assert!(correct as f64 / test_xs.len() as f64 > 0.9);
    }

    #[test]
    fn balanced_weighting_helps_imbalanced_data() {
        // 10 positives vs 190 negatives, slight overlap.
        let mut rng = StdRng::seed_from_u64(9);
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for i in 0..200 {
            let pos = i < 10;
            let offset = if pos { 1.2 } else { -1.2 };
            xs.push(vec![offset + rng.gen::<f64>(), offset + rng.gen::<f64>()]);
            ys.push(pos);
        }
        let balanced = SvmClassifier::train(
            &xs,
            &ys,
            &SvmParams {
                kernel: Kernel::Linear,
                c: 1.0,
                class_weight: ClassWeight::Balanced,
                ..Default::default()
            },
        )
        .unwrap();
        let preds = balanced.predict_batch(&xs);
        let conf = crate::metrics::BinaryConfusion::from_predictions(&preds, &ys);
        assert!(
            conf.sensitivity() > 0.8,
            "balanced SVM should not ignore the rare class"
        );
    }

    #[test]
    fn rejects_degenerate_inputs() {
        let params = SvmParams::default();
        assert!(matches!(
            SvmClassifier::train(&[], &[], &params),
            Err(MlError::InvalidInput(_))
        ));
        assert!(matches!(
            SvmClassifier::train(&[vec![1.0]], &[true, false], &params),
            Err(MlError::InvalidInput(_))
        ));
        assert!(matches!(
            SvmClassifier::train(&[vec![1.0], vec![1.0, 2.0]], &[true, false], &params),
            Err(MlError::InvalidInput(_))
        ));
        assert!(matches!(
            SvmClassifier::train(&[vec![1.0], vec![2.0]], &[true, true], &params),
            Err(MlError::MissingClass { positive: false })
        ));
        assert!(matches!(
            SvmClassifier::train(&[vec![1.0], vec![2.0]], &[false, false], &params),
            Err(MlError::MissingClass { positive: true })
        ));
        assert!(matches!(
            SvmClassifier::train(&[vec![f64::NAN], vec![2.0]], &[true, false], &params),
            Err(MlError::InvalidInput(_))
        ));
    }

    #[test]
    fn rejects_bad_parameters() {
        let xs = vec![vec![0.0], vec![1.0]];
        let ys = vec![false, true];
        assert!(matches!(
            SvmClassifier::train(
                &xs,
                &ys,
                &SvmParams {
                    c: 0.0,
                    ..Default::default()
                }
            ),
            Err(MlError::InvalidParameter(_))
        ));
        assert!(matches!(
            SvmClassifier::train(
                &xs,
                &ys,
                &SvmParams {
                    c: -1.0,
                    ..Default::default()
                }
            ),
            Err(MlError::InvalidParameter(_))
        ));
        assert!(matches!(
            SvmClassifier::train(
                &xs,
                &ys,
                &SvmParams {
                    max_epochs: 0,
                    ..Default::default()
                }
            ),
            Err(MlError::InvalidParameter(_))
        ));
    }

    #[test]
    fn training_is_deterministic_for_a_fixed_seed() {
        let (xs, ys) = linearly_separable(80, 11);
        let params = SvmParams {
            kernel: Kernel::Rbf { gamma: 0.3 },
            c: 2.0,
            ..Default::default()
        };
        let a = SvmClassifier::train(&xs, &ys, &params).unwrap();
        let b = SvmClassifier::train(&xs, &ys, &params).unwrap();
        let probe = vec![0.3, -0.7];
        assert_eq!(a.decision_value(&probe), b.decision_value(&probe));
        assert_eq!(a.n_support_vectors(), b.n_support_vectors());
    }

    #[test]
    fn converges_and_reports_epochs() {
        let (xs, ys) = linearly_separable(40, 5);
        let params = SvmParams {
            kernel: Kernel::Linear,
            c: 1.0,
            max_epochs: 1000,
            ..Default::default()
        };
        let model = SvmClassifier::train(&xs, &ys, &params).unwrap();
        assert!(model.converged());
        assert!(model.epochs_run() <= 1000);
        assert!(model.epochs_run() >= 1);
    }
}
