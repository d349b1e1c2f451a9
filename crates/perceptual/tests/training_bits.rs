//! Pins the exact bits both factor models train to for a fixed seed.
//!
//! The SGD epoch loops may be restructured for speed, but never at the cost
//! of their output: for a given dataset and seed, every item coordinate and
//! every per-epoch training RMSE must stay bit-identical.  Two generated
//! datasets cover the loop's shapes: one smaller than a block of ratings,
//! and one that spans several blocks plus a remainder.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use perceptual::{
    EuclideanEmbeddingConfig, EuclideanEmbeddingModel, Rating, RatingDataset, SvdConfig, SvdModel,
};

/// A small generated rating domain: items and users fall into three taste
/// groups, a user rates an item with probability `density`, and a rating is
/// high when the two share a group.
fn domain(n_items: usize, n_users: usize, density: f64, seed: u64) -> RatingDataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ratings = Vec::new();
    for user in 0..n_users {
        for item in 0..n_items {
            if rng.gen::<f64>() >= density {
                continue;
            }
            let affinity = f64::from(u8::from(item % 3 == user % 3));
            let score = (2.0 + 2.5 * affinity + rng.gen::<f64>()).clamp(1.0, 5.0);
            ratings.push(Rating::new(item as u32, user as u32, score));
        }
    }
    RatingDataset::from_ratings(n_items, n_users, ratings).unwrap()
}

/// FNV-1a over the bit patterns of `values`, in order.
fn digest(values: impl IntoIterator<Item = f64>) -> u64 {
    values
        .into_iter()
        .flat_map(|v| v.to_bits().to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
            (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3)
        })
}

/// `(ratings, item-coordinate digest, train-RMSE digest, last RMSE bits)`
/// of a Euclidean embedding trained on `data`.
fn euclidean_bits(data: &RatingDataset) -> (usize, u64, u64, u64) {
    let config = EuclideanEmbeddingConfig {
        dimensions: 8,
        epochs: 6,
        learning_rate: 0.02,
        ..Default::default()
    };
    let model = EuclideanEmbeddingModel::train(data, &config).unwrap();
    let coords = (0..data.n_items() as u32)
        .flat_map(|item| model.item_vector(item).unwrap().to_vec())
        .collect::<Vec<_>>();
    let rmse = &model.trace().train_rmse;
    (
        data.len(),
        digest(coords),
        digest(rmse.iter().copied()),
        rmse.last().unwrap().to_bits(),
    )
}

/// The same fingerprint for an SVD model trained on `data`.
fn svd_bits(data: &RatingDataset) -> (usize, u64, u64, u64) {
    let config = SvdConfig {
        dimensions: 6,
        epochs: 6,
        learning_rate: 0.02,
        ..Default::default()
    };
    let model = SvdModel::train(data, &config).unwrap();
    let coords = (0..data.n_items() as u32)
        .flat_map(|item| model.item_vector(item).unwrap().to_vec())
        .collect::<Vec<_>>();
    let rmse = model.train_rmse();
    (
        data.len(),
        digest(coords),
        digest(rmse.iter().copied()),
        rmse.last().unwrap().to_bits(),
    )
}

#[test]
fn euclidean_training_bits_are_pinned_below_one_block() {
    let data = domain(40, 60, 0.5, 11);
    assert_eq!(
        euclidean_bits(&data),
        (
            1202,
            0x5c5aa3e3afa68fe0,
            0xddf4d27f8a7c5951,
            0x3fda98cf70e59b81
        )
    );
}

#[test]
fn euclidean_training_bits_are_pinned_across_blocks() {
    let data = domain(150, 200, 0.45, 12);
    assert_eq!(
        euclidean_bits(&data),
        (
            13527,
            0x2631b4bae4c233be,
            0x01a043c9045629ed,
            0x3fd3a41390d2289a
        )
    );
}

#[test]
fn svd_training_bits_are_pinned_below_one_block() {
    let data = domain(40, 60, 0.5, 11);
    assert_eq!(
        svd_bits(&data),
        (
            1202,
            0x4799a4b82d086dcb,
            0xd7e6674c9954cfba,
            0x3ff23ab264cf8c81
        )
    );
}

#[test]
fn svd_training_bits_are_pinned_across_blocks() {
    let data = domain(150, 200, 0.45, 12);
    assert_eq!(
        svd_bits(&data),
        (
            13527,
            0xa7b8167f11d0d3be,
            0x1b33f1c8ed92f9ff,
            0x3fdfe31965b277db
        )
    );
}
