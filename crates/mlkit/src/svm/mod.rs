//! Support-vector machines.
//!
//! The paper extracts perceptual attributes from the space with a kernel SVM
//! (binary attributes such as `is_comedy`) or a support-vector regression
//! machine (numeric judgments such as `humor ≥ 8`), and evaluates a
//! transductive SVM as a semi-supervised extension (Section 5).
//!
//! All three variants here are trained with **kernelized dual coordinate
//! descent**: the bias term is absorbed into the kernel
//! (`K'(x, y) = K(x, y) + 1`), which removes the equality constraint of the
//! classic SMO dual and
//! lets every coordinate be optimized independently with a closed-form
//! clipped update.  This is simple, dependency-free, and robust for the
//! training-set sizes that occur in the paper's experiments (tens of gold
//! examples up to a few thousand crowd labels).

mod classifier;
mod svr;
mod tsvm;

pub use classifier::{SvmClassifier, SvmParams};
pub use svr::{SvrParams, SvrRegressor};
pub use tsvm::{TsvmClassifier, TsvmParams};

use crate::kernel::Kernel;

/// Precomputed kernel matrix with the bias term absorbed (`K + 1`).
///
/// Stored as `f32` to halve memory for the larger training sets used by the
/// HIT-auditing experiment (Table 4).
pub(crate) struct GramMatrix {
    n: usize,
    data: Vec<f32>,
}

impl GramMatrix {
    /// Computes the full `n × n` Gram matrix for `points` under `kernel`,
    /// adding 1.0 to every entry to absorb the bias term.
    pub(crate) fn compute(points: &[Vec<f64>], kernel: &Kernel) -> GramMatrix {
        let n = points.len();
        let mut data = vec![0.0f32; n * n];
        for i in 0..n {
            for j in i..n {
                let v = (kernel.eval(&points[i], &points[j]) + 1.0) as f32;
                data[i * n + j] = v;
                data[j * n + i] = v;
            }
        }
        GramMatrix { n, data }
    }

    #[inline]
    pub(crate) fn row(&self, i: usize) -> &[f32] {
        &self.data[i * self.n..(i + 1) * self.n]
    }

    #[inline]
    pub(crate) fn diag(&self, i: usize) -> f64 {
        self.data[i * self.n + i] as f64
    }
}

/// Support vectors processed per pass of the prediction kernel: one pass
/// accumulates this many kernel sums in a stack buffer.
const SV_CHUNK: usize = 64;

/// The support vectors of a trained model and their coefficients, laid out
/// for batch prediction.
///
/// Coordinates are stored dimension-major in one `dim × len` buffer
/// (coordinate `k` of vector `j` at `k * len + j`), so a point's squared
/// distances or dot products to every vector accumulate one dimension at a
/// time across contiguous runs of vectors.  Each accumulation runs in
/// dimension order from `-0.0`, exactly as `Iterator::sum` runs the
/// per-pair [`Kernel::eval`], and the decision sum then runs in
/// support-vector order: a point's decision value is bit-identical to the
/// one-vector-at-a-time formula `Σ_j c_j (K(sv_j, x) + 1)`.
#[derive(Debug, Clone)]
pub(crate) struct SupportVectors {
    kernel: Kernel,
    dim: usize,
    coords: Vec<f64>,
    coefficients: Vec<f64>,
}

impl SupportVectors {
    /// Stores `vectors`, each a support vector and its coefficient.  All
    /// vectors must share one dimensionality.
    pub(crate) fn new(kernel: Kernel, vectors: &[(&[f64], f64)]) -> SupportVectors {
        let len = vectors.len();
        let dim = vectors.first().map_or(0, |(v, _)| v.len());
        let mut coords = vec![0.0; dim * len];
        for (j, (vector, _)) in vectors.iter().enumerate() {
            for (k, &value) in vector.iter().enumerate() {
                coords[k * len + j] = value;
            }
        }
        SupportVectors {
            kernel,
            dim,
            coords,
            coefficients: vectors.iter().map(|&(_, c)| c).collect(),
        }
    }

    /// Number of support vectors.
    pub(crate) fn len(&self) -> usize {
        self.coefficients.len()
    }

    /// The decision value of `x`: a batch of one.
    pub(crate) fn decision_value(&self, x: &[f64]) -> f64 {
        let mut value = 0.0;
        self.decision_values(&[x], |v| value = v);
        value
    }

    /// Hands `emit` the decision value of every point, in order.
    pub(crate) fn decision_values<P: AsRef<[f64]>>(&self, points: &[P], mut emit: impl FnMut(f64)) {
        let len = self.len();
        let distance = self.kernel.is_distance_based();
        let mut sums = [0.0f64; SV_CHUNK];
        for point in points {
            let point = point.as_ref();
            let mut total = -0.0;
            for start in (0..len).step_by(SV_CHUNK) {
                let end = (start + SV_CHUNK).min(len);
                let sums = &mut sums[..end - start];
                sums.fill(-0.0);
                for (k, &x) in point.iter().take(self.dim).enumerate() {
                    let row = &self.coords[k * len + start..k * len + end];
                    if distance {
                        for (sum, &v) in sums.iter_mut().zip(row) {
                            let d = v - x;
                            *sum += d * d;
                        }
                    } else {
                        for (sum, &v) in sums.iter_mut().zip(row) {
                            *sum += v * x;
                        }
                    }
                }
                for (&sum, &c) in sums.iter().zip(&self.coefficients[start..end]) {
                    total += c * (self.kernel.finish(sum) + 1.0);
                }
            }
            emit(total);
        }
    }
}

/// Class weighting strategies for imbalanced training sets.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum ClassWeight {
    /// Both classes use the same cost `C`.
    #[default]
    None,
    /// The cost of each class is scaled inversely proportional to its
    /// frequency, so that rare classes are not ignored.
    Balanced,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gram_matrix_is_symmetric_with_bias() {
        let pts = vec![vec![0.0, 0.0], vec![1.0, 0.0], vec![0.0, 2.0]];
        let g = GramMatrix::compute(&pts, &Kernel::Linear);
        // Diagonal = <x,x> + 1.
        assert_eq!(g.diag(0), 1.0);
        assert_eq!(g.diag(1), 2.0);
        assert_eq!(g.diag(2), 5.0);
        // Symmetry.
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(g.row(i)[j], g.row(j)[i]);
            }
        }
    }

    #[test]
    fn class_weight_default_is_none() {
        assert_eq!(ClassWeight::default(), ClassWeight::None);
    }
}
