//! The shuffled-epoch SGD driver both factor models train with.
//!
//! A model keeps its item and user coordinates as flat `n × d` matrices
//! ([`init_coordinates`], [`row`]) and hands [`shuffled_epochs`] one
//! update closure; the driver owns everything else: the per-epoch shuffle,
//! the learning-rate decay, the RMSE trace and the divergence check.
//!
//! Each epoch visits every rating once in a fresh random order.  Rather
//! than reading the ratings in that order one by one, the driver walks the
//! shuffled order in blocks of [`BLOCK`] ratings, gathers each block into
//! one reused buffer (independent loads the CPU overlaps), then runs the
//! updates sequentially over the buffer.  The updates see the ratings in
//! exactly the shuffled order, so the trained model is bit-identical to a
//! rating-at-a-time loop over the same permutation.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;

use crate::error::PerceptualError;
use crate::ratings::{Rating, RatingDataset};
use crate::Result;

/// Ratings gathered per block: 64 KiB of ratings, small enough to stay in
/// cache while the updates read them.
const BLOCK: usize = 4096;

/// `n` rows of `d` coordinates each, drawn uniformly from
/// `[-scale/2, scale/2)`, row by row.
pub(crate) fn init_coordinates(rng: &mut StdRng, n: usize, d: usize, scale: f64) -> Vec<f64> {
    (0..n * d)
        .map(|_| (rng.gen::<f64>() - 0.5) * scale)
        .collect()
}

/// Row `index` of a flat matrix with `d` columns, if there is one.
pub(crate) fn row(coords: &[f64], d: usize, index: u32) -> Option<&[f64]> {
    let start = index as usize * d;
    coords.get(start..start + d)
}

/// A flat matrix with `d` columns as one vector per row.
pub(crate) fn rows(coords: &[f64], d: usize) -> Vec<Vec<f64>> {
    coords.chunks(d).map(<[f64]>::to_vec).collect()
}

/// Runs `epochs` SGD passes over `dataset`, each in a fresh order drawn
/// from `rng`.  `update(rating, learning_rate)` applies one step and
/// returns the rating's prediction error; the learning rate is multiplied
/// by `decay` after each epoch.  Returns the training RMSE of each epoch,
/// or [`PerceptualError::Numerical`] as soon as one is non-finite.
pub(crate) fn shuffled_epochs(
    dataset: &RatingDataset,
    rng: &mut StdRng,
    epochs: usize,
    learning_rate: f64,
    decay: f64,
    mut update: impl FnMut(&Rating, f64) -> f64,
) -> Result<Vec<f64>> {
    let ratings = dataset.ratings();
    // `RatingDataset::from_ratings` admits at most `u32::MAX` ratings.
    let mut order: Vec<u32> = (0..ratings.len() as u32).collect();
    let mut block: Vec<Rating> = Vec::with_capacity(BLOCK.min(ratings.len()));
    let mut lr = learning_rate;
    let mut train_rmse = Vec::with_capacity(epochs);
    for _ in 0..epochs {
        order.shuffle(rng);
        let mut sse = 0.0;
        for chunk in order.chunks(BLOCK) {
            block.clear();
            block.extend(chunk.iter().map(|&idx| ratings[idx as usize]));
            for rating in &block {
                let err = update(rating, lr);
                sse += err * err;
            }
        }
        let rmse = (sse / ratings.len() as f64).sqrt();
        if !rmse.is_finite() {
            return Err(PerceptualError::Numerical(
                "SGD diverged: non-finite training error (reduce the learning rate)".into(),
            ));
        }
        train_rmse.push(rmse);
        lr *= decay;
    }
    Ok(train_rmse)
}
