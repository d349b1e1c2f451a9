//! ε-insensitive support-vector regression.
//!
//! Used by the schema-expansion pipeline when the new perceptual attribute is
//! numeric (e.g. `humor` on a 1–10 scale) rather than binary.  The dual is
//! solved with the same bias-absorbed coordinate-descent strategy as the
//! classifier: each coefficient `β_i = α_i − α_i*` lives in `[-C, C]` and is
//! updated with a closed-form soft-thresholded step.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use super::classifier::validate_inputs_regression;
use super::{GramMatrix, SupportVectors};
use crate::error::MlError;
use crate::kernel::Kernel;
use crate::Result;

/// Hyper-parameters of the [`SvrRegressor`].
#[derive(Debug, Clone, PartialEq)]
pub struct SvrParams {
    /// Kernel function.
    pub kernel: Kernel,
    /// Cost parameter `C > 0` bounding each dual coefficient.
    pub c: f64,
    /// Width of the ε-insensitive tube; residuals smaller than this are not
    /// penalized.
    pub epsilon: f64,
    /// Maximum number of coordinate-descent epochs.
    pub max_epochs: usize,
    /// Convergence tolerance on the largest coefficient change per epoch.
    pub tolerance: f64,
    /// Seed for the coordinate-order shuffling.
    pub seed: u64,
}

impl Default for SvrParams {
    fn default() -> Self {
        SvrParams {
            kernel: Kernel::default(),
            c: 1.0,
            epsilon: 0.1,
            max_epochs: 300,
            tolerance: 1e-4,
            seed: 0x5eed,
        }
    }
}

/// A trained ε-SVR model.
#[derive(Debug, Clone)]
pub struct SvrRegressor {
    support: SupportVectors,
    epochs_run: usize,
    converged: bool,
}

impl SvrRegressor {
    /// Trains an ε-SVR on dense feature vectors `xs` with real targets `ys`.
    pub fn train(xs: &[Vec<f64>], ys: &[f64], params: &SvrParams) -> Result<Self> {
        validate_inputs_regression(xs, ys)?;
        if params.c <= 0.0 || !params.c.is_finite() {
            return Err(MlError::InvalidParameter(format!(
                "C must be positive, got {}",
                params.c
            )));
        }
        if params.epsilon < 0.0 {
            return Err(MlError::InvalidParameter("epsilon must be >= 0".into()));
        }
        if params.max_epochs == 0 {
            return Err(MlError::InvalidParameter("max_epochs must be >= 1".into()));
        }

        let n = xs.len();
        let gram = GramMatrix::compute(xs, &params.kernel);

        // beta_i = alpha_i - alpha_i^* in [-C, C].
        // Objective: 1/2 β'K'β − β'y + ε Σ|β_i|.
        // Coordinate update with prediction cache f_i = Σ_j β_j K'_ij.
        let mut beta = vec![0.0f64; n];
        let mut f = vec![0.0f64; n];
        let mut order: Vec<usize> = (0..n).collect();
        let mut rng = StdRng::seed_from_u64(params.seed);

        let mut epochs_run = 0;
        let mut converged = false;
        for _ in 0..params.max_epochs {
            epochs_run += 1;
            order.shuffle(&mut rng);
            let mut max_delta: f64 = 0.0;
            for &i in &order {
                let kii = gram.diag(i);
                if kii <= 0.0 {
                    continue;
                }
                // Unregularized minimizer of the quadratic part w.r.t. β_i.
                let residual = ys[i] - (f[i] - beta[i] * kii);
                // Soft-threshold by ε, then clamp to [-C, C].
                let raw = residual;
                let new_beta = if raw > params.epsilon {
                    ((raw - params.epsilon) / kii).min(params.c)
                } else if raw < -params.epsilon {
                    ((raw + params.epsilon) / kii).max(-params.c)
                } else {
                    0.0
                };
                let delta = new_beta - beta[i];
                if delta.abs() < 1e-15 {
                    continue;
                }
                beta[i] = new_beta;
                max_delta = max_delta.max(delta.abs());
                let row = gram.row(i);
                for (fj, &kij) in f.iter_mut().zip(row.iter()) {
                    *fj += delta * kij as f64;
                }
            }
            if max_delta < params.tolerance {
                converged = true;
                break;
            }
        }

        let mut support: Vec<(&[f64], f64)> = (0..n)
            .filter(|&i| beta[i].abs() > 1e-12)
            .map(|i| (xs[i].as_slice(), beta[i]))
            .collect();
        if support.is_empty() {
            // All targets fit inside the ε-tube around zero — a constant-zero
            // model.  Keep a single zero coefficient so prediction works.
            support.push((&xs[0], 0.0));
        }

        Ok(SvrRegressor {
            support: SupportVectors::new(params.kernel, &support),
            epochs_run,
            converged,
        })
    }

    /// Predicted value for `x`.
    pub fn predict(&self, x: &[f64]) -> f64 {
        self.support.decision_value(x)
    }

    /// Predicts values for a batch of feature vectors.
    pub fn predict_batch(&self, xs: &[Vec<f64>]) -> Vec<f64> {
        let mut values = Vec::with_capacity(xs.len());
        self.support.decision_values(xs, |v| values.push(v));
        values
    }

    /// Number of support vectors retained.
    pub fn n_support_vectors(&self) -> usize {
        self.support.len()
    }

    /// Number of epochs run during training.
    pub fn epochs_run(&self) -> usize {
        self.epochs_run
    }

    /// Whether the tolerance criterion was met before `max_epochs`.
    pub fn converged(&self) -> bool {
        self.converged
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::rmse;
    use rand::Rng;

    #[test]
    fn fits_a_linear_function() {
        let xs: Vec<Vec<f64>> = (0..40).map(|i| vec![i as f64 / 10.0]).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 2.0 * x[0] + 1.0).collect();
        let params = SvrParams {
            kernel: Kernel::Linear,
            c: 100.0,
            epsilon: 0.01,
            max_epochs: 2000,
            ..Default::default()
        };
        let model = SvrRegressor::train(&xs, &ys, &params).unwrap();
        let preds = model.predict_batch(&xs);
        assert!(rmse(&preds, &ys) < 0.1, "rmse {}", rmse(&preds, &ys));
    }

    #[test]
    fn fits_a_nonlinear_function_with_rbf() {
        let mut rng = StdRng::seed_from_u64(4);
        let xs: Vec<Vec<f64>> = (0..120)
            .map(|_| vec![rng.gen::<f64>() * 6.0 - 3.0])
            .collect();
        let ys: Vec<f64> = xs.iter().map(|x| x[0].sin()).collect();
        let params = SvrParams {
            kernel: Kernel::Rbf { gamma: 1.0 },
            c: 50.0,
            epsilon: 0.02,
            max_epochs: 2000,
            ..Default::default()
        };
        let model = SvrRegressor::train(&xs, &ys, &params).unwrap();
        let probe: Vec<Vec<f64>> = (0..30).map(|i| vec![-2.5 + i as f64 * 0.15]).collect();
        let expected: Vec<f64> = probe.iter().map(|x| x[0].sin()).collect();
        let preds = model.predict_batch(&probe);
        assert!(
            rmse(&preds, &expected) < 0.15,
            "rmse {}",
            rmse(&preds, &expected)
        );
    }

    #[test]
    fn constant_targets_inside_tube_give_constant_model() {
        let xs: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64]).collect();
        let ys = vec![0.0; 10];
        let params = SvrParams {
            kernel: Kernel::Linear,
            epsilon: 0.5,
            ..Default::default()
        };
        let model = SvrRegressor::train(&xs, &ys, &params).unwrap();
        assert!(model.predict(&[3.0]).abs() < 1e-9);
        assert_eq!(model.n_support_vectors(), 1);
    }

    #[test]
    fn epsilon_controls_sparsity() {
        let xs: Vec<Vec<f64>> = (0..60).map(|i| vec![i as f64 / 6.0]).collect();
        let ys: Vec<f64> = xs.iter().map(|x| x[0] * 0.5).collect();
        let tight = SvrRegressor::train(
            &xs,
            &ys,
            &SvrParams {
                kernel: Kernel::Linear,
                epsilon: 0.001,
                c: 10.0,
                ..Default::default()
            },
        )
        .unwrap();
        let loose = SvrRegressor::train(
            &xs,
            &ys,
            &SvrParams {
                kernel: Kernel::Linear,
                epsilon: 1.0,
                c: 10.0,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(loose.n_support_vectors() <= tight.n_support_vectors());
    }

    #[test]
    fn rejects_invalid_inputs_and_parameters() {
        let xs = vec![vec![1.0], vec![2.0]];
        let ys = vec![1.0, 2.0];
        assert!(SvrRegressor::train(&[], &[], &SvrParams::default()).is_err());
        assert!(SvrRegressor::train(&xs, &[1.0], &SvrParams::default()).is_err());
        assert!(SvrRegressor::train(&xs, &[1.0, f64::NAN], &SvrParams::default()).is_err());
        assert!(SvrRegressor::train(
            &xs,
            &ys,
            &SvrParams {
                c: 0.0,
                ..Default::default()
            }
        )
        .is_err());
        assert!(SvrRegressor::train(
            &xs,
            &ys,
            &SvrParams {
                epsilon: -0.1,
                ..Default::default()
            }
        )
        .is_err());
        assert!(SvrRegressor::train(
            &xs,
            &ys,
            &SvrParams {
                max_epochs: 0,
                ..Default::default()
            }
        )
        .is_err());
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let xs: Vec<Vec<f64>> = (0..30)
            .map(|i| vec![(i as f64).cos(), (i as f64).sin()])
            .collect();
        let ys: Vec<f64> = (0..30).map(|i| (i as f64 * 0.3).cos()).collect();
        let p = SvrParams::default();
        let a = SvrRegressor::train(&xs, &ys, &p).unwrap();
        let b = SvrRegressor::train(&xs, &ys, &p).unwrap();
        assert_eq!(a.predict(&[0.5, 0.5]), b.predict(&[0.5, 0.5]));
    }
}
