//! # perceptual — perceptual spaces built from Social-Web rating data
//!
//! This crate implements Section 3 of *"Pushing the Boundaries of
//! Crowd-enabled Databases with Query-driven Schema Expansion"* (VLDB 2012):
//! turning a large collection of `⟨item, user, score⟩` ratings into a
//! d-dimensional **perceptual space** in which each item's coordinates
//! summarize how the crowd of the Social Web perceives it.
//!
//! Two factor models are provided:
//!
//! * [`EuclideanEmbeddingModel`] — the paper's model of choice: the predicted
//!   rating is `μ + δ_item + δ_user − ‖a_item − b_user‖²`, trained by
//!   stochastic gradient descent on the regularized squared error
//!   (regularizing `d⁴` and the biases, exactly as in Section 3.3).
//! * [`SvdModel`] — the classic dot-product ("SVD") factor model used as a
//!   baseline; highly effective for rating prediction but without a
//!   meaningful item–item distance.
//!
//! The item coordinates of a trained model form a [`PerceptualSpace`] which
//! supports nearest-neighbour queries (Table 2), export of per-item feature
//! vectors for downstream classifiers, and correlation analysis against a
//! reference similarity (the Pearson 0.52 result of Section 4.2).
//!
//! ```
//! use perceptual::{RatingDataset, Rating, EuclideanEmbeddingConfig, EuclideanEmbeddingModel};
//!
//! let ratings = vec![
//!     Rating::new(0, 0, 5.0), Rating::new(0, 1, 4.0),
//!     Rating::new(1, 0, 1.0), Rating::new(1, 1, 2.0),
//!     Rating::new(2, 2, 3.0),
//! ];
//! let dataset = RatingDataset::from_ratings(3, 3, ratings).unwrap();
//! let config = EuclideanEmbeddingConfig { dimensions: 2, epochs: 30, ..Default::default() };
//! let model = EuclideanEmbeddingModel::train(&dataset, &config).unwrap();
//! let space = model.to_space();
//! assert_eq!(space.len(), 3);
//! assert_eq!(space.dimensions(), 2);
//! ```

#![warn(missing_docs)]

pub mod cross_validation;
pub mod error;
pub mod euclidean;
pub mod ratings;
mod sgd;
pub mod space;
pub mod svd;

pub use cross_validation::{cross_validate_euclidean, CrossValidationReport, FoldResult};
pub use error::PerceptualError;
pub use euclidean::{EuclideanEmbeddingConfig, EuclideanEmbeddingModel, TrainingTrace};
pub use ratings::{Rating, RatingDataset, RatingScale};
pub use space::{Neighbor, PerceptualSpace};
pub use svd::{SvdConfig, SvdModel};

/// Result alias used across the crate.
pub type Result<T> = std::result::Result<T, PerceptualError>;

/// Identifier of an item (movie, restaurant, board game, …) inside a
/// [`RatingDataset`]; dense indices in `0..n_items`.
pub type ItemId = u32;

/// Identifier of a user inside a [`RatingDataset`]; dense indices in
/// `0..n_users`.
pub type UserId = u32;
