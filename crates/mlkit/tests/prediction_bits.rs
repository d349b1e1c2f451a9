//! Pins the exact bits the support-vector models predict.
//!
//! Prediction may be restructured for speed, but never at the cost of its
//! output: for a given training set and seed, every decision value of an
//! `SvmClassifier` (under each kernel) and every `SvrRegressor` prediction
//! must stay bit-identical, and so must the labels
//! `extract_binary_attribute` gives the 2,000-item movie domain.  A
//! property checks that a batch predicts exactly what its points predict
//! one at a time.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crowddb_core::{build_space_for_domain, extract_binary_attribute, ExtractionConfig};
use datagen::{DomainConfig, SyntheticDomain};
use mlkit::{Kernel, SvmClassifier, SvmParams, SvrParams, SvrRegressor};

/// FNV-1a over `bytes`, in order.
fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// FNV-1a over the bit patterns of `values`, in order.
fn digest(values: impl IntoIterator<Item = f64>) -> u64 {
    fnv1a(values.into_iter().flat_map(|v| v.to_bits().to_le_bytes()))
}

/// `n` points in `dim` dimensions, uniform in `[-2, 2)`.
fn points(n: usize, dim: usize, rng: &mut StdRng) -> Vec<Vec<f64>> {
    (0..n)
        .map(|_| (0..dim).map(|_| rng.gen_range(-2.0..2.0)).collect())
        .collect()
}

/// A noisy non-linear concept: positive inside a tilted ellipse.
fn label(x: &[f64]) -> bool {
    let r: f64 = x
        .iter()
        .enumerate()
        .map(|(i, v)| v * v / (1.0 + i as f64))
        .sum();
    r + 0.3 * x[0] < 1.2
}

/// `(training points, labels, probe points)` of seed `seed`.
fn problem(seed: u64, dim: usize) -> (Vec<Vec<f64>>, Vec<bool>, Vec<Vec<f64>>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let xs = points(120, dim, &mut rng);
    let ys = xs
        .iter()
        .map(|x| label(x) != (rng.gen::<f64>() < 0.1))
        .collect();
    let probes = points(500, dim, &mut rng);
    (xs, ys, probes)
}

fn kernels() -> [Kernel; 3] {
    [
        Kernel::Rbf { gamma: 0.3 },
        Kernel::Linear,
        Kernel::Polynomial {
            gamma: 0.5,
            coef0: 1.0,
            degree: 3,
        },
    ]
}

/// `(support vectors, decision-value digest)` of a classifier trained
/// under `kernel`.
fn classifier_bits(kernel: Kernel) -> (usize, u64) {
    let (xs, ys, probes) = problem(21, 5);
    let params = SvmParams {
        kernel,
        c: 2.0,
        max_epochs: 200,
        ..Default::default()
    };
    let model = SvmClassifier::train(&xs, &ys, &params).unwrap();
    let values = probes.iter().map(|x| model.decision_value(x));
    (model.n_support_vectors(), digest(values))
}

#[test]
fn classifier_decision_values_are_pinned_per_kernel() {
    let [rbf, linear, polynomial] = kernels();
    assert_eq!(classifier_bits(rbf), (96, 8372419635275925892));
    assert_eq!(classifier_bits(linear), (106, 3095297945872957017));
    assert_eq!(classifier_bits(polynomial), (61, 3053341196142232355));
}

#[test]
fn regressor_predictions_are_pinned() {
    let (xs, _, probes) = problem(22, 4);
    let ys: Vec<f64> = xs.iter().map(|x| x[0].sin() + 0.5 * x[1] * x[2]).collect();
    let params = SvrParams {
        kernel: Kernel::Rbf { gamma: 0.4 },
        c: 5.0,
        epsilon: 0.05,
        ..Default::default()
    };
    let model = SvrRegressor::train(&xs, &ys, &params).unwrap();
    let one_by_one = digest(probes.iter().map(|x| model.predict(x)));
    let batch = digest(model.predict_batch(&probes));
    assert_eq!(
        (model.n_support_vectors(), one_by_one),
        (80, 2210093470752494502)
    );
    assert_eq!(batch, one_by_one);
}

/// The movie domain of seed 1 in an 8-dimensional space trained for 10
/// epochs, with a 100-item gold sample of its first category: the
/// extracted labels, and the decision values of a classifier trained on
/// the same gold items, over all 2,000 items.
#[test]
fn movie_domain_extraction_is_pinned() {
    let domain = SyntheticDomain::generate(&DomainConfig::movies(), 1).unwrap();
    let space = build_space_for_domain(&domain, 8, 10).unwrap();
    assert_eq!(space.len(), 2_000);
    let truth = domain.labels_for_category(0);
    let mut items: Vec<u32> = (0..space.len() as u32).collect();
    items.shuffle(&mut StdRng::seed_from_u64(1));
    let mut gold: Vec<(u32, bool)> = items[..100]
        .iter()
        .map(|&item| (item, truth[item as usize]))
        .collect();
    gold.sort_unstable();

    let labels = extract_binary_attribute(&space, &gold, &ExtractionConfig::default()).unwrap();
    let positives = labels.iter().filter(|&&l| l).count();
    let label_digest = fnv1a(labels.iter().map(|&l| u8::from(l)));
    assert_eq!(
        (labels.len(), positives, label_digest),
        (2_000, 589, 2991694267081256148)
    );

    let features: Vec<Vec<f64>> = gold
        .iter()
        .map(|&(item, _)| space.coordinates(item).unwrap().to_vec())
        .collect();
    let targets: Vec<bool> = gold.iter().map(|&(_, l)| l).collect();
    let params = SvmParams {
        kernel: Kernel::rbf_for_dim(8),
        c: 10.0,
        ..Default::default()
    };
    let model = SvmClassifier::train(&features, &targets, &params).unwrap();
    let values = space
        .all_coordinates()
        .iter()
        .map(|x| model.decision_value(x));
    assert_eq!(
        (model.n_support_vectors(), digest(values)),
        (44, 11647608099772449192)
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    // A batch of any size predicts, point for point and bit for bit, what
    // each of its points predicts alone.
    #[test]
    fn a_batch_predicts_what_its_points_predict_alone(
        seed in 0u64..10_000,
        kernel in 0usize..3,
        dim in 1usize..7,
        batch in 0usize..40,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let xs = points(30, dim, &mut rng);
        let mut ys: Vec<bool> = xs.iter().map(|x| label(x)).collect();
        ys[0] = true;
        ys[1] = false;
        let probes = points(batch, dim, &mut rng);
        let kernel = kernels()[kernel];

        let params = SvmParams { kernel, c: 1.5, max_epochs: 50, ..Default::default() };
        let model = SvmClassifier::train(&xs, &ys, &params).unwrap();
        let predicted = model.predict_batch(&probes);
        prop_assert_eq!(predicted.len(), batch);
        for (x, &p) in probes.iter().zip(&predicted) {
            prop_assert_eq!(p, model.decision_value(x) >= 0.0);
            prop_assert_eq!(p, model.predict(x));
        }

        let targets: Vec<f64> = xs.iter().map(|x| x.iter().sum::<f64>().tanh()).collect();
        let params = SvrParams { kernel, c: 1.5, max_epochs: 50, ..Default::default() };
        let model = SvrRegressor::train(&xs, &targets, &params).unwrap();
        let predicted = model.predict_batch(&probes);
        prop_assert_eq!(predicted.len(), batch);
        for (x, p) in probes.iter().zip(&predicted) {
            prop_assert_eq!(p.to_bits(), model.predict(x).to_bits());
        }
    }
}
