//! Sparse rating datasets.
//!
//! A [`RatingDataset`] stores the `⟨item, user, score⟩` triples the paper
//! obtains from the Social Web (Netflix-style star ratings, Yelp restaurant
//! ratings, BoardGameGeek ratings, …) together with per-item and per-user
//! indexes.  Typical densities are 1–2 % of the full item × user matrix
//! (Section 3.3), so only the observed triples are stored.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use crate::error::PerceptualError;
use crate::{ItemId, Result, UserId};

/// The numeric scale ratings are expressed on (e.g. 1–5 Netflix stars or the
/// 1–10 IMDb scale).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RatingScale {
    /// Smallest expressible rating.
    pub min: f64,
    /// Largest expressible rating.
    pub max: f64,
}

impl RatingScale {
    /// The 1–5 star scale used by Netflix and Yelp.
    pub const FIVE_STAR: RatingScale = RatingScale { min: 1.0, max: 5.0 };
    /// The 1–10 scale used by IMDb and BoardGameGeek.
    pub const TEN_POINT: RatingScale = RatingScale {
        min: 1.0,
        max: 10.0,
    };

    /// Clamps a raw score onto the scale.
    pub fn clamp(&self, score: f64) -> f64 {
        score.clamp(self.min, self.max)
    }

    /// Width of the scale.
    pub fn range(&self) -> f64 {
        self.max - self.min
    }
}

impl Default for RatingScale {
    fn default() -> Self {
        RatingScale::FIVE_STAR
    }
}

/// One observed rating: user `user` gave item `item` the score `score`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Rating {
    /// The rated item.
    pub item: ItemId,
    /// The rating user.
    pub user: UserId,
    /// The numeric score.
    pub score: f64,
}

impl Rating {
    /// Convenience constructor.
    pub fn new(item: ItemId, user: UserId, score: f64) -> Self {
        Rating { item, user, score }
    }
}

/// A sparse collection of ratings over `n_items` items and `n_users` users.
#[derive(Debug, Clone)]
pub struct RatingDataset {
    n_items: usize,
    n_users: usize,
    ratings: Vec<Rating>,
    /// Indices into `ratings`, grouped by item.
    by_item: Vec<Vec<u32>>,
    /// Indices into `ratings`, grouped by user.
    by_user: Vec<Vec<u32>>,
    global_mean: f64,
}

impl RatingDataset {
    /// Builds a dataset from raw triples.
    ///
    /// Errors when `ratings` is empty, when an id is out of range, or when a
    /// score is non-finite.
    pub fn from_ratings(n_items: usize, n_users: usize, ratings: Vec<Rating>) -> Result<Self> {
        if ratings.is_empty() {
            return Err(PerceptualError::InvalidRatings(
                "the rating collection is empty".into(),
            ));
        }
        // The per-entity indexes and the training order hold rating
        // indices as `u32`.
        if ratings.len() > u32::MAX as usize {
            return Err(PerceptualError::InvalidRatings(format!(
                "{} ratings exceed the limit of {}",
                ratings.len(),
                u32::MAX
            )));
        }
        if n_items == 0 || n_users == 0 {
            return Err(PerceptualError::InvalidRatings(
                "the dataset must declare at least one item and one user".into(),
            ));
        }
        let mut by_item = vec![Vec::new(); n_items];
        let mut by_user = vec![Vec::new(); n_users];
        let mut sum = 0.0;
        for (idx, r) in ratings.iter().enumerate() {
            if (r.item as usize) >= n_items {
                return Err(PerceptualError::InvalidRatings(format!(
                    "rating #{idx} references item {} but only {n_items} items were declared",
                    r.item
                )));
            }
            if (r.user as usize) >= n_users {
                return Err(PerceptualError::InvalidRatings(format!(
                    "rating #{idx} references user {} but only {n_users} users were declared",
                    r.user
                )));
            }
            if !r.score.is_finite() {
                return Err(PerceptualError::InvalidRatings(format!(
                    "rating #{idx} has a non-finite score"
                )));
            }
            by_item[r.item as usize].push(idx as u32);
            by_user[r.user as usize].push(idx as u32);
            sum += r.score;
        }
        let global_mean = sum / ratings.len() as f64;
        Ok(RatingDataset {
            n_items,
            n_users,
            ratings,
            by_item,
            by_user,
            global_mean,
        })
    }

    /// Number of items declared.
    pub fn n_items(&self) -> usize {
        self.n_items
    }

    /// Number of users declared.
    pub fn n_users(&self) -> usize {
        self.n_users
    }

    /// Number of observed ratings.
    pub fn len(&self) -> usize {
        self.ratings.len()
    }

    /// True when the dataset holds no ratings (cannot occur after
    /// construction, but useful for generic code).
    pub fn is_empty(&self) -> bool {
        self.ratings.is_empty()
    }

    /// All observed ratings.
    pub fn ratings(&self) -> &[Rating] {
        &self.ratings
    }

    /// Mean of all observed scores (the `μ` of the factor models).
    pub fn global_mean(&self) -> f64 {
        self.global_mean
    }

    /// Fraction of the full item × user matrix that is observed.
    pub fn density(&self) -> f64 {
        self.ratings.len() as f64 / (self.n_items as f64 * self.n_users as f64)
    }

    /// Ratings given to `item`.
    pub fn ratings_of_item(&self, item: ItemId) -> Result<impl Iterator<Item = &Rating>> {
        let idx = item as usize;
        if idx >= self.n_items {
            return Err(PerceptualError::UnknownId(format!("item {item}")));
        }
        Ok(self.by_item[idx]
            .iter()
            .map(move |&i| &self.ratings[i as usize]))
    }

    /// Ratings given by `user`.
    pub fn ratings_of_user(&self, user: UserId) -> Result<impl Iterator<Item = &Rating>> {
        let idx = user as usize;
        if idx >= self.n_users {
            return Err(PerceptualError::UnknownId(format!("user {user}")));
        }
        Ok(self.by_user[idx]
            .iter()
            .map(move |&i| &self.ratings[i as usize]))
    }

    /// Number of ratings per item.
    pub fn item_rating_count(&self, item: ItemId) -> usize {
        self.by_item.get(item as usize).map_or(0, |v| v.len())
    }

    /// Number of ratings per user.
    pub fn user_rating_count(&self, user: UserId) -> usize {
        self.by_user.get(user as usize).map_or(0, |v| v.len())
    }

    /// Mean score of an item; falls back to the global mean when the item has
    /// no ratings.
    pub fn item_mean(&self, item: ItemId) -> f64 {
        let idxs = match self.by_item.get(item as usize) {
            Some(v) if !v.is_empty() => v,
            _ => return self.global_mean,
        };
        idxs.iter()
            .map(|&i| self.ratings[i as usize].score)
            .sum::<f64>()
            / idxs.len() as f64
    }

    /// Mean score of a user; falls back to the global mean when the user has
    /// no ratings.
    pub fn user_mean(&self, user: UserId) -> f64 {
        let idxs = match self.by_user.get(user as usize) {
            Some(v) if !v.is_empty() => v,
            _ => return self.global_mean,
        };
        idxs.iter()
            .map(|&i| self.ratings[i as usize].score)
            .sum::<f64>()
            / idxs.len() as f64
    }

    /// Splits the ratings into a training and a held-out validation set.
    ///
    /// `holdout_fraction` of the ratings (rounded, at least one and at most
    /// `len() - 1`) become validation data.  Item/user universes are shared
    /// between the two datasets.
    pub fn split(
        &self,
        holdout_fraction: f64,
        seed: u64,
    ) -> Result<(RatingDataset, RatingDataset)> {
        if !(0.0..1.0).contains(&holdout_fraction) {
            return Err(PerceptualError::InvalidConfig(
                "holdout_fraction must lie in [0, 1)".into(),
            ));
        }
        if self.ratings.len() < 2 {
            return Err(PerceptualError::InvalidRatings(
                "need at least two ratings to split".into(),
            ));
        }
        let mut indices: Vec<usize> = (0..self.ratings.len()).collect();
        let mut rng = StdRng::seed_from_u64(seed);
        indices.shuffle(&mut rng);
        let n_holdout = ((self.ratings.len() as f64) * holdout_fraction)
            .round()
            .clamp(1.0, (self.ratings.len() - 1) as f64) as usize;
        let (holdout_idx, train_idx) = indices.split_at(n_holdout);
        let train: Vec<Rating> = train_idx.iter().map(|&i| self.ratings[i]).collect();
        let holdout: Vec<Rating> = holdout_idx.iter().map(|&i| self.ratings[i]).collect();
        Ok((
            RatingDataset::from_ratings(self.n_items, self.n_users, train)?,
            RatingDataset::from_ratings(self.n_items, self.n_users, holdout)?,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> RatingDataset {
        RatingDataset::from_ratings(
            3,
            4,
            vec![
                Rating::new(0, 0, 5.0),
                Rating::new(0, 1, 4.0),
                Rating::new(1, 1, 2.0),
                Rating::new(1, 2, 1.0),
                Rating::new(2, 3, 3.0),
                Rating::new(2, 0, 3.0),
            ],
        )
        .unwrap()
    }

    #[test]
    fn construction_validates_inputs() {
        assert!(RatingDataset::from_ratings(2, 2, vec![]).is_err());
        assert!(RatingDataset::from_ratings(0, 2, vec![Rating::new(0, 0, 1.0)]).is_err());
        assert!(RatingDataset::from_ratings(2, 0, vec![Rating::new(0, 0, 1.0)]).is_err());
        assert!(RatingDataset::from_ratings(2, 2, vec![Rating::new(2, 0, 1.0)]).is_err());
        assert!(RatingDataset::from_ratings(2, 2, vec![Rating::new(0, 2, 1.0)]).is_err());
        assert!(RatingDataset::from_ratings(2, 2, vec![Rating::new(0, 0, f64::NAN)]).is_err());
    }

    #[test]
    fn basic_statistics() {
        let d = small();
        assert_eq!(d.n_items(), 3);
        assert_eq!(d.n_users(), 4);
        assert_eq!(d.len(), 6);
        assert!(!d.is_empty());
        assert!((d.global_mean() - 3.0).abs() < 1e-12);
        assert!((d.density() - 0.5).abs() < 1e-12);
        assert_eq!(d.item_rating_count(0), 2);
        assert_eq!(d.user_rating_count(1), 2);
        assert_eq!(d.item_rating_count(99), 0);
        assert_eq!(d.user_rating_count(99), 0);
    }

    #[test]
    fn per_entity_means() {
        let d = small();
        assert!((d.item_mean(0) - 4.5).abs() < 1e-12);
        assert!((d.item_mean(1) - 1.5).abs() < 1e-12);
        assert!((d.user_mean(0) - 4.0).abs() < 1e-12);
        // Unknown ids fall back to the global mean.
        assert!((d.item_mean(77) - 3.0).abs() < 1e-12);
        assert!((d.user_mean(77) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn per_entity_iterators() {
        let d = small();
        let item0: Vec<f64> = d.ratings_of_item(0).unwrap().map(|r| r.score).collect();
        assert_eq!(item0, vec![5.0, 4.0]);
        let user1: Vec<f64> = d.ratings_of_user(1).unwrap().map(|r| r.score).collect();
        assert_eq!(user1, vec![4.0, 2.0]);
        assert!(d.ratings_of_item(3).is_err());
        assert!(d.ratings_of_user(4).is_err());
    }

    #[test]
    fn split_partitions_ratings() {
        let d = small();
        let (train, holdout) = d.split(0.33, 42).unwrap();
        assert_eq!(train.len() + holdout.len(), d.len());
        assert_eq!(holdout.len(), 2);
        assert_eq!(train.n_items(), d.n_items());
        assert_eq!(train.n_users(), d.n_users());
        assert!(d.split(1.0, 1).is_err());
        assert!(d.split(-0.1, 1).is_err());
    }

    #[test]
    fn rating_scales() {
        assert_eq!(RatingScale::FIVE_STAR.clamp(7.0), 5.0);
        assert_eq!(RatingScale::FIVE_STAR.clamp(0.0), 1.0);
        assert_eq!(RatingScale::TEN_POINT.range(), 9.0);
        assert_eq!(RatingScale::default(), RatingScale::FIVE_STAR);
    }
}
