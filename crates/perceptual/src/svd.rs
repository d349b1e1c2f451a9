//! The dot-product ("SVD") factor model.
//!
//! Section 3.3 of the paper introduces the SVD model as the most elementary
//! factor model: `r̂_{m,u} = ⟨a_m, b_u⟩` with mean-squared-error loss and L2
//! regularization.  It is highly effective for collaborative filtering, but —
//! as the paper argues — it is unclear how a meaningful item–item similarity
//! could be derived from it.  It is retained here as the baseline for the
//! design-choice ablation benches.

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::error::PerceptualError;
use crate::ratings::RatingDataset;
use crate::sgd;
use crate::space::PerceptualSpace;
use crate::{ItemId, Result, UserId};

/// Hyper-parameters of the [`SvdModel`].
#[derive(Debug, Clone, PartialEq)]
pub struct SvdConfig {
    /// Number of latent factors.
    pub dimensions: usize,
    /// L2 regularization constant.
    pub lambda: f64,
    /// Initial SGD learning rate.
    pub learning_rate: f64,
    /// Multiplicative learning-rate decay per epoch.
    pub learning_rate_decay: f64,
    /// Number of SGD epochs.
    pub epochs: usize,
    /// Scale of random initialization.
    pub init_scale: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SvdConfig {
    fn default() -> Self {
        SvdConfig {
            dimensions: 100,
            lambda: 0.02,
            learning_rate: 0.01,
            learning_rate_decay: 0.95,
            epochs: 30,
            init_scale: 0.1,
            seed: 0x51d5eed,
        }
    }
}

impl SvdConfig {
    fn validate(&self) -> Result<()> {
        if self.dimensions == 0 {
            return Err(PerceptualError::InvalidConfig(
                "dimensions must be >= 1".into(),
            ));
        }
        if self.lambda < 0.0 {
            return Err(PerceptualError::InvalidConfig(
                "lambda must be non-negative".into(),
            ));
        }
        if self.learning_rate <= 0.0 {
            return Err(PerceptualError::InvalidConfig(
                "learning_rate must be positive".into(),
            ));
        }
        if self.epochs == 0 {
            return Err(PerceptualError::InvalidConfig("epochs must be >= 1".into()));
        }
        Ok(())
    }
}

/// A trained dot-product factor model.
#[derive(Debug, Clone)]
pub struct SvdModel {
    dimensions: usize,
    global_mean: f64,
    /// `n_items × dimensions`, row-major.
    item_factors: Vec<f64>,
    /// `n_users × dimensions`, row-major.
    user_factors: Vec<f64>,
    train_rmse: Vec<f64>,
}

impl SvdModel {
    /// Trains the model with plain SGD on `r ≈ μ + ⟨a_m, b_u⟩` (the global
    /// mean is subtracted so factors model deviations only).
    pub fn train(dataset: &RatingDataset, config: &SvdConfig) -> Result<Self> {
        config.validate()?;
        let d = config.dimensions;
        let mu = dataset.global_mean();
        let mut rng = StdRng::seed_from_u64(config.seed);

        let mut item_factors =
            sgd::init_coordinates(&mut rng, dataset.n_items(), d, config.init_scale);
        let mut user_factors =
            sgd::init_coordinates(&mut rng, dataset.n_users(), d, config.init_scale);

        let train_rmse = sgd::shuffled_epochs(
            dataset,
            &mut rng,
            config.epochs,
            config.learning_rate,
            config.learning_rate_decay,
            |r, lr| {
                let (m, u) = (r.item as usize, r.user as usize);
                let a = &mut item_factors[m * d..(m + 1) * d];
                let b = &mut user_factors[u * d..(u + 1) * d];
                let err = r.score - (mu + a.iter().zip(b.iter()).map(|(x, y)| x * y).sum::<f64>());
                for (x, y) in a.iter_mut().zip(b.iter_mut()) {
                    let (ak, bk) = (*x, *y);
                    *x += lr * (err * bk - config.lambda * ak);
                    *y += lr * (err * ak - config.lambda * bk);
                }
                err
            },
        )?;

        Ok(SvdModel {
            dimensions: d,
            global_mean: mu,
            item_factors,
            user_factors,
            train_rmse,
        })
    }

    /// Number of latent factors.
    pub fn dimensions(&self) -> usize {
        self.dimensions
    }

    /// Predicted rating of `item` by `user`.
    pub fn predict(&self, item: ItemId, user: UserId) -> Result<f64> {
        let a = self.item_vector(item)?;
        let b = sgd::row(&self.user_factors, self.dimensions, user)
            .ok_or_else(|| PerceptualError::UnknownId(format!("user {user}")))?;
        Ok(self.global_mean + a.iter().zip(b.iter()).map(|(x, y)| x * y).sum::<f64>())
    }

    /// Latent factors of an item.
    pub fn item_vector(&self, item: ItemId) -> Result<&[f64]> {
        sgd::row(&self.item_factors, self.dimensions, item)
            .ok_or_else(|| PerceptualError::UnknownId(format!("item {item}")))
    }

    /// RMSE on an arbitrary rating set.
    pub fn rmse(&self, dataset: &RatingDataset) -> Result<f64> {
        let mut sse = 0.0;
        for r in dataset.ratings() {
            let pred = self.predict(r.item, r.user)?;
            sse += (r.score - pred) * (r.score - pred);
        }
        Ok((sse / dataset.len() as f64).sqrt())
    }

    /// Per-epoch training RMSE.
    pub fn train_rmse(&self) -> &[f64] {
        &self.train_rmse
    }

    /// Item factors exported as a [`PerceptualSpace`] (used by the ablation
    /// bench comparing SVD and Euclidean embeddings for classification).
    pub fn to_space(&self) -> PerceptualSpace {
        PerceptualSpace::new(sgd::rows(&self.item_factors, self.dimensions))
            .expect("item factors of a trained model are always consistent")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ratings::Rating;
    use rand::Rng;

    fn preference_dataset(seed: u64) -> RatingDataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let n_items = 30;
        let n_users = 50;
        let mut ratings = Vec::new();
        for u in 0..n_users {
            for m in 0..n_items {
                if rng.gen::<f64>() > 0.5 {
                    continue;
                }
                let affinity = ((u % 3) == (m % 3)) as u8 as f64;
                let score = (2.0 + 2.5 * affinity + rng.gen::<f64>() * 0.5).clamp(1.0, 5.0);
                ratings.push(Rating::new(m as ItemId, u as UserId, score));
            }
        }
        RatingDataset::from_ratings(n_items, n_users, ratings).unwrap()
    }

    fn quick_config() -> SvdConfig {
        SvdConfig {
            dimensions: 6,
            epochs: 50,
            learning_rate: 0.02,
            ..Default::default()
        }
    }

    #[test]
    fn config_is_validated() {
        let d = preference_dataset(1);
        assert!(SvdModel::train(
            &d,
            &SvdConfig {
                dimensions: 0,
                ..quick_config()
            }
        )
        .is_err());
        assert!(SvdModel::train(
            &d,
            &SvdConfig {
                lambda: -0.1,
                ..quick_config()
            }
        )
        .is_err());
        assert!(SvdModel::train(
            &d,
            &SvdConfig {
                learning_rate: 0.0,
                ..quick_config()
            }
        )
        .is_err());
        assert!(SvdModel::train(
            &d,
            &SvdConfig {
                epochs: 0,
                ..quick_config()
            }
        )
        .is_err());
    }

    #[test]
    fn training_reduces_rmse() {
        let d = preference_dataset(2);
        let model = SvdModel::train(&d, &quick_config()).unwrap();
        let trace = model.train_rmse();
        assert!(trace.last().unwrap() < trace.first().unwrap());
        assert!(trace.last().unwrap() < &0.9);
    }

    #[test]
    fn predictions_follow_affinity_structure() {
        let d = preference_dataset(3);
        let model = SvdModel::train(&d, &quick_config()).unwrap();
        // User 0 (group 0) prefers items ≡ 0 mod 3.
        let liked = model.predict(0, 0).unwrap();
        let disliked = model.predict(1, 0).unwrap();
        assert!(liked > disliked);
    }

    #[test]
    fn unknown_ids_are_rejected() {
        let d = preference_dataset(4);
        let model = SvdModel::train(&d, &quick_config()).unwrap();
        assert!(model.predict(1000, 0).is_err());
        assert!(model.predict(0, 1000).is_err());
        assert!(model.item_vector(1000).is_err());
    }

    #[test]
    fn space_export_matches_dimensions() {
        let d = preference_dataset(5);
        let model = SvdModel::train(&d, &quick_config()).unwrap();
        let space = model.to_space();
        assert_eq!(space.len(), 30);
        assert_eq!(space.dimensions(), model.dimensions());
    }

    #[test]
    fn holdout_rmse_beats_mean_baseline() {
        let d = preference_dataset(6);
        let (train, holdout) = d.split(0.2, 7).unwrap();
        let model = SvdModel::train(&train, &quick_config()).unwrap();
        // Baseline: always predict the global mean.
        let mu = train.global_mean();
        let baseline = (holdout
            .ratings()
            .iter()
            .map(|r| (r.score - mu) * (r.score - mu))
            .sum::<f64>()
            / holdout.len() as f64)
            .sqrt();
        let model_rmse = model.rmse(&holdout).unwrap();
        assert!(
            model_rmse < baseline,
            "model {model_rmse} vs baseline {baseline}"
        );
    }
}
