//! Attribute extraction from a perceptual space (Section 3.4).
//!
//! Given a small crowd-sourced *gold sample* of items with known attribute
//! values, an SVM (binary attributes) or SVR (numeric attributes) is trained
//! on the items' coordinates in the perceptual space and then applied to
//! every item of the database — the step that turns a handful of HITs into a
//! complete new column.

use mlkit::{Kernel, SvmClassifier, SvmParams, SvrParams, SvrRegressor};
use perceptual::{ItemId, PerceptualSpace};

use crate::error::CrowdDbError;
use crate::Result;

/// Configuration of the extraction step.
#[derive(Debug, Clone, PartialEq)]
pub struct ExtractionConfig {
    /// RBF kernel width; `None` selects the bandwidth from the training data
    /// with the mean-distance heuristic (see
    /// `ExtractionConfig::resolve_kernel`).
    pub gamma: Option<f64>,
    /// Soft-margin cost.
    pub c: f64,
    /// ε-tube width for numeric extraction.
    pub epsilon: f64,
    /// Maximum training epochs for the underlying solvers.
    pub max_epochs: usize,
    /// Seed for the solvers.
    pub seed: u64,
}

impl Default for ExtractionConfig {
    fn default() -> Self {
        ExtractionConfig {
            gamma: None,
            c: 10.0,
            epsilon: 0.1,
            max_epochs: 300,
            seed: 0xc0ffee,
        }
    }
}

impl ExtractionConfig {
    /// Resolves the RBF kernel to use: an explicit `gamma` wins; otherwise
    /// the bandwidth is set from the data with the *mean-distance heuristic*
    /// `γ = 1 / mean‖x_i − x_j‖²` over the training points, which adapts the
    /// kernel to the scale of the perceptual space at hand (spaces produced
    /// by different factor-model runs differ in scale).
    pub(crate) fn resolve_kernel(&self, features: &[Vec<f64>]) -> Kernel {
        if let Some(gamma) = self.gamma {
            return Kernel::Rbf { gamma };
        }
        let n = features.len();
        if n < 2 {
            return Kernel::rbf_for_dim(features.first().map_or(1, |f| f.len()));
        }
        // Subsample pairs for large training sets to keep this O(n)-ish.
        let step = (n / 64).max(1);
        let mut total = 0.0;
        let mut count = 0usize;
        for i in (0..n).step_by(step) {
            for j in ((i + 1)..n).step_by(step) {
                total += mlkit::linalg::squared_distance(&features[i], &features[j]);
                count += 1;
            }
        }
        let mean_sq = if count == 0 {
            1.0
        } else {
            (total / count as f64).max(1e-9)
        };
        Kernel::Rbf {
            gamma: 1.0 / mean_sq,
        }
    }
}

/// Trains a binary extractor on `labeled` = `(item, value)` pairs and
/// returns the predicted attribute value for **every** item of the space
/// (indexable by item id).
///
/// This is the operation behind "a numeric judgment … can be extracted from
/// the perceptual space for all two million movies without additional user
/// interaction" — here for boolean attributes such as `is_comedy`.
pub fn extract_binary_attribute(
    space: &PerceptualSpace,
    labeled: &[(ItemId, bool)],
    config: &ExtractionConfig,
) -> Result<Vec<bool>> {
    if labeled.is_empty() {
        return Err(CrowdDbError::Configuration(
            "binary extraction needs at least one labeled item".into(),
        ));
    }
    let items: Vec<ItemId> = labeled.iter().map(|(i, _)| *i).collect();
    let features = space.feature_matrix(&items)?;
    let labels: Vec<bool> = labeled.iter().map(|(_, l)| *l).collect();
    let params = SvmParams {
        kernel: config.resolve_kernel(&features),
        c: config.c,
        max_epochs: config.max_epochs,
        seed: config.seed,
        ..Default::default()
    };
    let model = SvmClassifier::train(&features, &labels, &params)?;
    Ok(model.predict_batch(space.all_coordinates()))
}

/// Trains a numeric extractor (support-vector regression) on `labeled` =
/// `(item, value)` pairs and returns the predicted value for every item of
/// the space.
pub fn extract_numeric_attribute(
    space: &PerceptualSpace,
    labeled: &[(ItemId, f64)],
    config: &ExtractionConfig,
) -> Result<Vec<f64>> {
    if labeled.is_empty() {
        return Err(CrowdDbError::Configuration(
            "numeric extraction needs at least one labeled item".into(),
        ));
    }
    let items: Vec<ItemId> = labeled.iter().map(|(i, _)| *i).collect();
    let features = space.feature_matrix(&items)?;
    let targets: Vec<f64> = labeled.iter().map(|(_, v)| *v).collect();
    let params = SvrParams {
        kernel: config.resolve_kernel(&features),
        c: config.c,
        epsilon: config.epsilon,
        max_epochs: config.max_epochs,
        seed: config.seed,
        ..Default::default()
    };
    let model = SvrRegressor::train(&features, &targets, &params)?;
    Ok(model.predict_batch(space.all_coordinates()))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A space with two well-separated clusters: items < 50 around the
    /// origin, items >= 50 around (3, 3, …).
    fn clustered_space(n: usize, dims: usize) -> (PerceptualSpace, Vec<bool>) {
        let coords: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                let offset = if i < n / 2 { 0.0 } else { 3.0 };
                (0..dims)
                    .map(|d| offset + 0.3 * ((i * dims + d) as f64).sin())
                    .collect()
            })
            .collect();
        let labels: Vec<bool> = (0..n).map(|i| i >= n / 2).collect();
        (PerceptualSpace::new(coords).unwrap(), labels)
    }

    #[test]
    fn binary_extraction_generalizes_from_few_labels() {
        let (space, truth) = clustered_space(200, 6);
        // Label only 10 items per class — the paper's small-gold-sample
        // setting.
        let mut labeled = Vec::new();
        for i in 0..10u32 {
            labeled.push((i, false));
            labeled.push((100 + i, true));
        }
        let predicted =
            extract_binary_attribute(&space, &labeled, &ExtractionConfig::default()).unwrap();
        assert_eq!(predicted.len(), 200);
        let correct = predicted
            .iter()
            .zip(truth.iter())
            .filter(|(a, b)| a == b)
            .count();
        assert!(correct >= 190, "only {correct}/200 correct");
    }

    #[test]
    fn numeric_extraction_recovers_a_smooth_attribute() {
        // Attribute = first coordinate (a "humor score" increasing along one
        // axis of the space).
        let coords: Vec<Vec<f64>> = (0..150)
            .map(|i| vec![i as f64 / 15.0, ((i * 7) % 13) as f64 / 13.0])
            .collect();
        let space = PerceptualSpace::new(coords.clone()).unwrap();
        let labeled: Vec<(ItemId, f64)> = (0..150)
            .step_by(10)
            .map(|i| (i as u32, coords[i][0]))
            .collect();
        let predicted =
            extract_numeric_attribute(&space, &labeled, &ExtractionConfig::default()).unwrap();
        assert_eq!(predicted.len(), 150);
        let rmse = (predicted
            .iter()
            .zip(coords.iter())
            .map(|(p, c)| (p - c[0]).powi(2))
            .sum::<f64>()
            / 150.0)
            .sqrt();
        assert!(rmse < 1.0, "rmse {rmse}");
    }

    #[test]
    fn extraction_requires_labels_and_known_items() {
        let (space, _) = clustered_space(20, 3);
        assert!(extract_binary_attribute(&space, &[], &ExtractionConfig::default()).is_err());
        assert!(extract_numeric_attribute(&space, &[], &ExtractionConfig::default()).is_err());
        // Unknown item ids are reported.
        assert!(extract_binary_attribute(
            &space,
            &[(999, true), (0, false)],
            &ExtractionConfig::default()
        )
        .is_err());
    }

    #[test]
    fn explicit_gamma_is_honored() {
        let (space, _) = clustered_space(40, 4);
        let labeled: Vec<(ItemId, bool)> = (0..40).map(|i| (i as u32, i >= 20)).collect();
        let config = ExtractionConfig {
            gamma: Some(0.5),
            ..Default::default()
        };
        let predicted = extract_binary_attribute(&space, &labeled, &config).unwrap();
        assert_eq!(predicted.len(), 40);
        // Training data itself must be classified almost perfectly.
        let correct = predicted
            .iter()
            .enumerate()
            .filter(|(i, &p)| p == (*i >= 20))
            .count();
        assert!(correct >= 38);
    }

    #[test]
    fn single_class_training_set_is_rejected() {
        let (space, _) = clustered_space(30, 3);
        let labeled: Vec<(ItemId, bool)> = (0..10).map(|i| (i as u32, true)).collect();
        let err = extract_binary_attribute(&space, &labeled, &ExtractionConfig::default());
        assert!(matches!(err, Err(CrowdDbError::Learning(_))));
    }
}
