//! Criterion bench: the plan → acquire → materialize expansion pipeline.
//!
//! Compares cold execution of a two-attribute query (one planning round,
//! one batched crowd dispatch, two extractor trainings) against cache-warm
//! re-expansion (every judgment served by the `JudgmentCache`, zero crowd
//! dispatch), so future PRs have a perf baseline for the hot path.
//! `perceptual_2000_cached` is the `expand` workload's typical operation
//! in process: one perceptual attribute over the full 2,000-item movie
//! domain, its gold judgments served by the cache — extractor training,
//! prediction for every item, and materialize.

use criterion::{criterion_group, criterion_main, Criterion};
use crowddb_core::{
    build_space_for_domain, CrowdDb, CrowdDbConfig, ExpansionStrategy, ExtractionConfig,
    SimulatedCrowd,
};
use crowdsim::ExperimentRegime;
use datagen::{DomainConfig, SyntheticDomain};
use perceptual::PerceptualSpace;

const QUERY: &str = "SELECT item_id FROM movies WHERE is_comedy = true AND is_other = false";

/// A movie database bound to `space` whose perceptual attributes train on
/// `gold` crowd-judged items, with `is_comedy` registered.
fn perceptual_db(domain: &SyntheticDomain, space: PerceptualSpace, gold: usize) -> CrowdDb {
    let crowd = SimulatedCrowd::new(domain, ExperimentRegime::TrustedWorkers, 17);
    let db = CrowdDb::new(CrowdDbConfig {
        strategy: ExpansionStrategy::PerceptualSpace {
            gold_sample_size: gold,
            extraction: ExtractionConfig::default(),
        },
        ..Default::default()
    });
    db.load_domain("movies", domain, space, Box::new(crowd))
        .unwrap();
    db.register_attribute("movies", "is_comedy", "Comedy")
        .unwrap();
    db
}

fn make_db(domain: &SyntheticDomain, space: PerceptualSpace, second: &str) -> CrowdDb {
    let db = perceptual_db(domain, space, 60);
    db.register_attribute("movies", "is_other", second).unwrap();
    db
}

fn bench_expansion_pipeline(c: &mut Criterion) {
    let domain = SyntheticDomain::generate(&DomainConfig::movies().scaled(0.1), 6).unwrap();
    let space = build_space_for_domain(&domain, 16, 12).unwrap();
    let second = domain.category_names()[1].clone();

    let mut group = c.benchmark_group("expansion_pipeline");
    group.sample_size(10);

    // Cold: plan, one batched crowd round, extraction, materialization.
    group.bench_function("two_attribute_query_cold", |b| {
        b.iter(|| {
            let db = make_db(&domain, space.clone(), &second);
            db.execute(QUERY).unwrap()
        })
    });

    // Cache-warm: the same two attributes re-expanded with every judgment
    // served from the cache — no crowd dispatch, extraction only.
    group.bench_function("two_attribute_reexpansion_warm", |b| {
        let db = make_db(&domain, space.clone(), &second);
        db.execute(QUERY).unwrap();
        b.iter(|| {
            let reports = db
                .expand_columns("movies", &["is_comedy".into(), "is_other".into()])
                .unwrap();
            assert_eq!(
                reports.iter().map(|r| r.judgments_collected).sum::<usize>(),
                0
            );
            reports
        })
    });

    // Steady state: the columns exist, the query is a plain scan — the
    // pipeline must add zero overhead to factual execution.
    group.bench_function("materialized_query_steady_state", |b| {
        let db = make_db(&domain, space.clone(), &second);
        db.execute(QUERY).unwrap();
        b.iter(|| db.execute(QUERY).unwrap())
    });

    // The `expand` workload's perceptual operation, cache-served: the full
    // 2,000-item movie domain in an 8-dimensional space, a 100-item gold
    // sample paid for once, then re-expanded from the cache.
    group.bench_function("perceptual_2000_cached", |b| {
        let domain = SyntheticDomain::generate(&DomainConfig::movies(), 1).unwrap();
        let space = build_space_for_domain(&domain, 8, 10).unwrap();
        let db = perceptual_db(&domain, space, 100);
        db.expand_columns("movies", &["is_comedy".into()]).unwrap();
        b.iter(|| {
            let reports = db.expand_columns("movies", &["is_comedy".into()]).unwrap();
            assert_eq!(reports[0].judgments_collected, 0);
            assert_eq!(reports[0].rows_filled, 2_000);
            reports
        })
    });

    group.finish();
}

criterion_group!(benches, bench_expansion_pipeline);
criterion_main!(benches);
