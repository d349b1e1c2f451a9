//! Automatic identification of questionable HIT responses (Section 4.4).
//!
//! Given a (largely correct) crowd labeling of every item and the perceptual
//! space, an SVM is trained on *all* labels and every item whose crowd label
//! contradicts the model's prediction is flagged.  Flagged items are exactly
//! the ones a crowd-enabled database should re-submit to the crowd for
//! verification — data quality improves while only a small fraction of the
//! HITs is repeated.

use mlkit::{SvmClassifier, SvmParams};
use perceptual::{ItemId, PerceptualSpace};

use crate::error::CrowdDbError;
use crate::extraction::ExtractionConfig;
use crate::Result;

/// The outcome of auditing a crowd labeling against the perceptual space.
#[derive(Debug, Clone, PartialEq)]
pub struct AuditOutcome {
    /// Items whose crowd label disagrees with the space-based prediction,
    /// i.e. the responses that should be re-crowd-sourced.
    pub flagged: Vec<ItemId>,
    /// The model's predicted label for every item (indexable by item id).
    pub predicted: Vec<bool>,
}

impl AuditOutcome {
    /// Precision and recall of the flagging decision with respect to a known
    /// set of corrupted items (used by the Table 4 harness, where label
    /// corruption is injected synthetically).
    pub fn precision_recall(&self, truly_corrupted: &[ItemId]) -> (f64, f64) {
        use std::collections::HashSet;
        let corrupted: HashSet<ItemId> = truly_corrupted.iter().copied().collect();
        let flagged: HashSet<ItemId> = self.flagged.iter().copied().collect();
        let true_positives = flagged.intersection(&corrupted).count();
        let precision = if flagged.is_empty() {
            0.0
        } else {
            true_positives as f64 / flagged.len() as f64
        };
        let recall = if corrupted.is_empty() {
            0.0
        } else {
            true_positives as f64 / corrupted.len() as f64
        };
        (precision, recall)
    }
}

/// Audits a complete binary labeling: `labels[item]` is the crowd-provided
/// value for `item`.  Returns the flagged items and the model predictions.
pub fn audit_binary_labels(
    space: &PerceptualSpace,
    labels: &[bool],
    config: &ExtractionConfig,
) -> Result<AuditOutcome> {
    if labels.len() != space.len() {
        return Err(CrowdDbError::Configuration(format!(
            "{} labels given but the space contains {} items",
            labels.len(),
            space.len()
        )));
    }
    let features = space.all_coordinates();
    // Auditing needs a *smoother* model than extraction: the model must not
    // be able to memorize isolated wrong labels, otherwise nothing is ever
    // flagged.  The cost is therefore scaled down and the kernel widened
    // relative to the extraction defaults.
    let kernel = match config.resolve_kernel(features) {
        mlkit::Kernel::Rbf { gamma } => mlkit::Kernel::Rbf { gamma: gamma * 0.5 },
        other => other,
    };
    let params = SvmParams {
        kernel,
        c: (config.c * 0.1).max(0.05),
        max_epochs: config.max_epochs,
        seed: config.seed,
        ..Default::default()
    };
    let model = SvmClassifier::train(features, labels, &params)?;
    let predicted = model.predict_batch(features);
    let flagged: Vec<ItemId> = predicted
        .iter()
        .zip(labels.iter())
        .enumerate()
        .filter_map(|(i, (p, l))| (p != l).then_some(i as ItemId))
        .collect();
    Ok(AuditOutcome { flagged, predicted })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::SeedableRng;

    /// Two Gaussian-ish clusters whose membership is the ground truth.
    fn clustered(n: usize) -> (PerceptualSpace, Vec<bool>) {
        let coords: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                let offset = if i % 2 == 0 { 0.0 } else { 3.0 };
                vec![
                    offset + 0.4 * ((i * 31 % 17) as f64 / 17.0 - 0.5),
                    offset + 0.4 * ((i * 13 % 11) as f64 / 11.0 - 0.5),
                    0.3 * ((i * 7 % 5) as f64),
                ]
            })
            .collect();
        let truth: Vec<bool> = (0..n).map(|i| i % 2 == 1).collect();
        (PerceptualSpace::new(coords).unwrap(), truth)
    }

    fn corrupt(truth: &[bool], fraction: f64, seed: u64) -> (Vec<bool>, Vec<ItemId>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut indices: Vec<usize> = (0..truth.len()).collect();
        indices.shuffle(&mut rng);
        let n = (truth.len() as f64 * fraction).round() as usize;
        let swapped: Vec<ItemId> = indices.into_iter().take(n).map(|i| i as ItemId).collect();
        let mut labels = truth.to_vec();
        for &i in &swapped {
            labels[i as usize] = !labels[i as usize];
        }
        (labels, swapped)
    }

    #[test]
    fn audit_flags_most_corrupted_labels() {
        let (space, truth) = clustered(300);
        let (labels, swapped) = corrupt(&truth, 0.10, 1);
        let outcome = audit_binary_labels(&space, &labels, &ExtractionConfig::default()).unwrap();
        let (precision, recall) = outcome.precision_recall(&swapped);
        assert!(recall > 0.8, "recall {recall}");
        assert!(precision > 0.4, "precision {precision}");
        assert_eq!(outcome.predicted.len(), 300);
    }

    #[test]
    fn precision_rises_with_corruption_level() {
        // With more corrupted labels, a larger share of the flagged items is
        // genuinely wrong — the trend visible across the columns of Table 4.
        let (space, truth) = clustered(300);
        let (labels_low, swapped_low) = corrupt(&truth, 0.05, 2);
        let (labels_high, swapped_high) = corrupt(&truth, 0.20, 3);
        let config = ExtractionConfig::default();
        let low = audit_binary_labels(&space, &labels_low, &config).unwrap();
        let high = audit_binary_labels(&space, &labels_high, &config).unwrap();
        let (p_low, r_low) = low.precision_recall(&swapped_low);
        let (p_high, r_high) = high.precision_recall(&swapped_high);
        assert!(p_high >= p_low, "precision low {p_low} vs high {p_high}");
        assert!(
            r_low > 0.8 && r_high > 0.8,
            "recall low {r_low}, high {r_high}"
        );
    }

    #[test]
    fn clean_labels_produce_few_flags() {
        let (space, truth) = clustered(200);
        let outcome = audit_binary_labels(&space, &truth, &ExtractionConfig::default()).unwrap();
        assert!(
            outcome.flagged.len() < 20,
            "{} of 200 clean labels flagged",
            outcome.flagged.len()
        );
    }

    #[test]
    fn mismatched_label_count_is_rejected() {
        let (space, truth) = clustered(50);
        assert!(audit_binary_labels(&space, &truth[..40], &ExtractionConfig::default()).is_err());
    }

    #[test]
    fn precision_recall_edge_cases() {
        let outcome = AuditOutcome {
            flagged: vec![],
            predicted: vec![true, false],
        };
        assert_eq!(outcome.precision_recall(&[0]), (0.0, 0.0));
        let outcome = AuditOutcome {
            flagged: vec![0, 1],
            predicted: vec![true, false],
        };
        assert_eq!(outcome.precision_recall(&[]), (0.0, 0.0));
        let (p, r) = outcome.precision_recall(&[0]);
        assert!((p - 0.5).abs() < 1e-12);
        assert!((r - 1.0).abs() < 1e-12);
    }
}
