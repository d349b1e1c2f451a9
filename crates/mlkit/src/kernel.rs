//! Kernel functions shared by the SVM family.
//!
//! The paper reports that a non-linear Radial Basis Function kernel works
//! well for extracting perceptual attributes from the space (Section 4.2),
//! with a linear kernel as the natural cheap alternative.

use serde::{Deserialize, Serialize};

use crate::linalg::{dot, squared_distance};

/// A positive-definite kernel over dense feature vectors.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Kernel {
    /// The plain dot product `⟨x, y⟩`.
    Linear,
    /// The Gaussian RBF kernel `exp(-γ ‖x − y‖²)`.
    Rbf {
        /// Kernel width γ; larger values make the kernel more local.
        gamma: f64,
    },
    /// Polynomial kernel `(γ ⟨x, y⟩ + c)^degree`.
    Polynomial {
        /// Scale applied to the dot product.
        gamma: f64,
        /// Additive constant.
        coef0: f64,
        /// Polynomial degree (≥ 1).
        degree: u32,
    },
}

impl Default for Kernel {
    fn default() -> Self {
        Kernel::Rbf { gamma: 0.1 }
    }
}

impl Kernel {
    /// Evaluates the kernel on a pair of vectors.
    ///
    /// Both vectors must have the same length; this is only checked by a
    /// debug assertion on the hot path.
    #[inline]
    pub fn eval(&self, x: &[f64], y: &[f64]) -> f64 {
        debug_assert_eq!(x.len(), y.len());
        if self.is_distance_based() {
            self.finish(squared_distance(x, y))
        } else {
            self.finish(dot(x, y))
        }
    }

    /// True when the kernel is a function of the squared distance
    /// `‖x − y‖²`; otherwise it is a function of the dot product `⟨x, y⟩`.
    #[inline]
    pub(crate) fn is_distance_based(&self) -> bool {
        matches!(self, Kernel::Rbf { .. })
    }

    /// The kernel value given the squared distance (distance-based kernels)
    /// or the dot product (the others) of the two vectors.
    #[inline]
    pub(crate) fn finish(&self, sum: f64) -> f64 {
        match *self {
            Kernel::Linear => sum,
            Kernel::Rbf { gamma } => (-gamma * sum).exp(),
            Kernel::Polynomial {
                gamma,
                coef0,
                degree,
            } => (gamma * sum + coef0).powi(degree as i32),
        }
    }

    /// A reasonable default RBF bandwidth for `dim`-dimensional inputs,
    /// mirroring the common `1 / dim` heuristic.
    pub fn rbf_for_dim(dim: usize) -> Kernel {
        Kernel::Rbf {
            gamma: 1.0 / (dim.max(1) as f64),
        }
    }

    /// Returns true when the kernel is guaranteed to produce values in
    /// `[0, 1]` (useful for sanity checks in tests).
    pub fn is_bounded_unit(&self) -> bool {
        matches!(self, Kernel::Rbf { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_kernel_is_dot_product() {
        let k = Kernel::Linear;
        assert_eq!(k.eval(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
    }

    #[test]
    fn rbf_kernel_properties() {
        let k = Kernel::Rbf { gamma: 0.5 };
        // Identical points → 1.
        assert!((k.eval(&[1.0, -2.0], &[1.0, -2.0]) - 1.0).abs() < 1e-12);
        // Symmetric.
        let a = [0.0, 1.0];
        let b = [2.0, -1.0];
        assert!((k.eval(&a, &b) - k.eval(&b, &a)).abs() < 1e-15);
        // Decreases with distance and stays in (0, 1].
        let near = k.eval(&[0.0, 0.0], &[0.1, 0.0]);
        let far = k.eval(&[0.0, 0.0], &[3.0, 0.0]);
        assert!(near > far);
        assert!(far > 0.0 && near <= 1.0);
        assert!(k.is_bounded_unit());
        assert!(!Kernel::Linear.is_bounded_unit());
    }

    #[test]
    fn polynomial_kernel_matches_formula() {
        let k = Kernel::Polynomial {
            gamma: 1.0,
            coef0: 1.0,
            degree: 2,
        };
        // (1*2 + 1)^2 = 9 for x=[1,1], y=[1,1].
        assert_eq!(k.eval(&[1.0, 1.0], &[1.0, 1.0]), 9.0);
    }

    #[test]
    fn rbf_for_dim_heuristic() {
        match Kernel::rbf_for_dim(100) {
            Kernel::Rbf { gamma } => assert!((gamma - 0.01).abs() < 1e-12),
            _ => panic!("expected RBF"),
        }
        // Zero dimension falls back to 1.0 rather than dividing by zero.
        match Kernel::rbf_for_dim(0) {
            Kernel::Rbf { gamma } => assert_eq!(gamma, 1.0),
            _ => panic!("expected RBF"),
        }
    }

    #[test]
    fn default_kernel_is_rbf() {
        assert!(matches!(Kernel::default(), Kernel::Rbf { .. }));
    }
}
