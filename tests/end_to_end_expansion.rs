//! Integration tests: end-to-end query-driven schema expansion across all
//! workspace crates (datagen → perceptual → crowdsim → mlkit → relational →
//! crowddb-core).

use crowddb::prelude::*;

fn movie_setup(scale: f64, seed: u64) -> (SyntheticDomain, PerceptualSpace) {
    let domain = SyntheticDomain::generate(&DomainConfig::movies().scaled(scale), seed).unwrap();
    let space = build_space_for_domain(&domain, 12, 18).unwrap();
    (domain, space)
}

#[test]
fn perceptual_expansion_answers_the_papers_running_example() {
    // "SELECT * FROM movies WHERE is_comedy = true" with no is_comedy column.
    let (domain, space) = movie_setup(0.1, 100);
    let crowd = SimulatedCrowd::new(&domain, ExperimentRegime::TrustedWorkers, 1);
    let db = CrowdDb::new(CrowdDbConfig {
        strategy: ExpansionStrategy::PerceptualSpace {
            gold_sample_size: 80,
            extraction: ExtractionConfig::default(),
        },
        ..Default::default()
    });
    db.load_domain("movies", &domain, space, Box::new(crowd))
        .unwrap();
    db.register_attribute("movies", "is_comedy", "Comedy")
        .unwrap();

    let before = db.catalog().table("movies").unwrap().schema().len();
    let result = db
        .execute("SELECT * FROM movies WHERE is_comedy = true")
        .unwrap();
    let after_schema = db.catalog().table("movies").unwrap().schema().clone();

    // Schema grew by exactly the new column and the result exposes it.
    assert_eq!(after_schema.len(), before + 1);
    assert!(after_schema.contains("is_comedy"));
    assert!(result.columns.contains(&"is_comedy".to_string()));
    assert!(!result.rows.is_empty());

    // Every returned row really has is_comedy = true.
    let col = result
        .columns
        .iter()
        .position(|c| c == "is_comedy")
        .unwrap();
    assert!(result.rows.iter().all(|r| r[col] == Value::Boolean(true)));

    // The number of returned comedies is in the right ballpark of the
    // planted prevalence (30 %).
    let fraction = result.rows.len() as f64 / domain.items().len() as f64;
    assert!(
        (0.1..=0.6).contains(&fraction),
        "returned comedy fraction {fraction} is implausible"
    );

    // The expansion used far fewer judgments than direct crowd-sourcing
    // would need (10 per movie).
    let events = db.expansion_events();
    let report = &events[0].report;
    assert!(report.judgments_collected < domain.items().len() * 10);
    assert!(report.training_set_size > 10);
}

#[test]
fn expanded_column_quality_beats_untrusted_direct_crowdsourcing() {
    // Experiments 1 vs 5 in miniature: a spam-heavy direct crowd vs a
    // trusted gold sample + perceptual extraction.
    let (domain, space) = movie_setup(0.1, 200);
    let truth = domain.labels_for_category(domain.category_index("Comedy").unwrap());

    let accuracy = |db: &CrowdDb| {
        let catalog = db.catalog();
        let table = catalog.table("movies").unwrap();
        let col = table.schema().index_of("is_comedy").unwrap();
        let id = table.schema().index_of("item_id").unwrap();
        let mut correct = 0;
        for row in table.rows() {
            let item = match row[id] {
                Value::Integer(i) => i as usize,
                _ => continue,
            };
            let predicted = match row[col] {
                Value::Boolean(b) => b,
                _ => !truth[item], // unfilled counts as wrong
            };
            if predicted == truth[item] {
                correct += 1;
            }
        }
        correct as f64 / table.len() as f64
    };

    let direct = CrowdDb::new(CrowdDbConfig {
        strategy: ExpansionStrategy::DirectCrowd,
        ..Default::default()
    });
    direct
        .load_domain(
            "movies",
            &domain,
            space.clone(),
            Box::new(SimulatedCrowd::new(
                &domain,
                ExperimentRegime::AllWorkers,
                3,
            )),
        )
        .unwrap();
    direct
        .register_attribute("movies", "is_comedy", "Comedy")
        .unwrap();
    direct
        .execute("SELECT item_id FROM movies WHERE is_comedy = true")
        .unwrap();

    let boosted = CrowdDb::new(CrowdDbConfig {
        strategy: ExpansionStrategy::PerceptualSpace {
            gold_sample_size: 80,
            extraction: ExtractionConfig::default(),
        },
        ..Default::default()
    });
    boosted
        .load_domain(
            "movies",
            &domain,
            space,
            Box::new(SimulatedCrowd::new(
                &domain,
                ExperimentRegime::TrustedWorkers,
                4,
            )),
        )
        .unwrap();
    boosted
        .register_attribute("movies", "is_comedy", "Comedy")
        .unwrap();
    boosted
        .execute("SELECT item_id FROM movies WHERE is_comedy = true")
        .unwrap();

    let direct_acc = accuracy(&direct);
    let boosted_acc = accuracy(&boosted);
    assert!(
        boosted_acc > direct_acc,
        "perceptual expansion ({boosted_acc}) must beat spam-heavy direct crowd ({direct_acc})"
    );
    // And it is cheaper.
    let direct_cost = direct.expansion_events()[0].report.crowd_cost;
    let boosted_cost = boosted.expansion_events()[0].report.crowd_cost;
    assert!(boosted_cost < direct_cost);
}

#[test]
fn multiple_attributes_expand_independently() {
    let (domain, space) = movie_setup(0.1, 300);
    let crowd = SimulatedCrowd::new(&domain, ExperimentRegime::TrustedWorkers, 5);
    let db = CrowdDb::new(CrowdDbConfig {
        strategy: ExpansionStrategy::PerceptualSpace {
            gold_sample_size: 60,
            extraction: ExtractionConfig::default(),
        },
        ..Default::default()
    });
    db.load_domain("movies", &domain, space, Box::new(crowd))
        .unwrap();
    db.register_attribute("movies", "is_comedy", "Comedy")
        .unwrap();
    db.register_attribute("movies", "is_horror", "Horror")
        .unwrap();

    // One query referencing both missing attributes triggers two expansions.
    let result = db
        .execute("SELECT name FROM movies WHERE is_comedy = true AND is_horror = false")
        .unwrap();
    assert!(!result.rows.is_empty());
    assert_eq!(db.expansion_events().len(), 2);
    let events = db.expansion_events();
    let columns: Vec<&str> = events.iter().map(|e| e.report.column.as_str()).collect();
    assert!(columns.contains(&"is_comedy"));
    assert!(columns.contains(&"is_horror"));

    // Both columns are now part of the schema; further queries reuse them.
    let schema = db.catalog().table("movies").unwrap().schema().clone();
    assert!(schema.contains("is_comedy"));
    assert!(schema.contains("is_horror"));
    db.execute("SELECT name FROM movies WHERE is_horror = true")
        .unwrap();
    assert_eq!(db.expansion_events().len(), 2);
}

#[test]
fn factual_sql_still_behaves_like_a_normal_database() {
    let (domain, space) = movie_setup(0.05, 400);
    let crowd = SimulatedCrowd::new(&domain, ExperimentRegime::TrustedWorkers, 6);
    let db = CrowdDb::new(CrowdDbConfig::default());
    db.load_domain("movies", &domain, space, Box::new(crowd))
        .unwrap();

    // Plain projections, ordering, limits.
    let all = db
        .execute("SELECT item_id, name, year FROM movies")
        .unwrap();
    assert_eq!(all.rows.len(), domain.items().len());
    let limited = db
        .execute("SELECT name FROM movies ORDER BY year DESC LIMIT 7")
        .unwrap();
    assert_eq!(limited.rows.len(), 7);
    // Creating and querying an unrelated table works through the same API.
    db.execute("CREATE TABLE genres (id INTEGER, label TEXT)")
        .unwrap();
    db.execute("INSERT INTO genres (id, label) VALUES (1, 'comedy'), (2, 'drama')")
        .unwrap();
    let genres = db.execute("SELECT label FROM genres ORDER BY id").unwrap();
    assert_eq!(genres.rows.len(), 2);
    assert_eq!(genres.rows[0][0], Value::Text("comedy".into()));
    // No expansion events were produced by factual queries.
    assert!(db.expansion_events().is_empty());
}

#[test]
fn hit_audit_pipeline_flags_planted_corruption() {
    let (domain, space) = movie_setup(0.1, 500);
    let category = domain.category_index("Comedy").unwrap();
    let truth = domain.labels_for_category(category);
    // Corrupt 10 % of the labels.
    let n = truth.len() / 10;
    let mut labels = truth.clone();
    let corrupted: Vec<u32> = (0..n as u32).map(|i| i * 7 % truth.len() as u32).collect();
    let mut unique = corrupted.clone();
    unique.sort_unstable();
    unique.dedup();
    for &i in &unique {
        labels[i as usize] = !labels[i as usize];
    }
    let outcome = audit_binary_labels(&space, &labels, &ExtractionConfig::default()).unwrap();
    let (precision, recall) = outcome.precision_recall(&unique);
    // At this deliberately tiny scale (a couple of hundred movies, a
    // 12-dimensional space) the audit is much weaker than at the paper's
    // scale; the integration test only checks that it catches a meaningful
    // share of the planted errors at reasonable precision.
    assert!(recall > 0.2, "recall {recall}");
    assert!(precision > 0.15, "precision {precision}");
    assert!(!outcome.flagged.is_empty());
    // Flag count is far below the corpus size (cheap re-crowd-sourcing).
    assert!(outcome.flagged.len() < truth.len() / 2);
}

#[test]
fn gold_cells_hold_their_cached_verdicts() {
    // A gold item's cell carries the crowd's tag (`CrowdDerived`, or
    // `CacheHit` when reused), so it must hold the crowd's verdict — not
    // the extractor's prediction, which disagrees on some gold items.
    let domain = SyntheticDomain::generate(&DomainConfig::movies().scaled(0.5), 1).unwrap();
    let space = build_space_for_domain(&domain, 8, 10).unwrap();
    let crowd = SimulatedCrowd::new(&domain, ExperimentRegime::TrustedWorkers, 1_001);
    let db = CrowdDb::new(CrowdDbConfig {
        strategy: ExpansionStrategy::perceptual_default(),
        seed: 1,
        ..Default::default()
    });
    db.load_domain("movies", &domain, space, Box::new(crowd))
        .unwrap();
    let mut checked = 0;
    for concept in domain.category_names() {
        let column = format!("is_{}", concept.to_lowercase());
        db.register_attribute("movies", &column, &concept).unwrap();
        // Twice: the second query serves the same cells as cache hits.
        for _ in 0..2 {
            let outcome = db
                .query(format!("SELECT item_id, {column} FROM movies"))
                .run()
                .unwrap();
            let rows = outcome.rows().unwrap();
            for (row, tags) in rows.rows.iter().zip(&rows.provenance) {
                if !matches!(
                    tags[1],
                    CellProvenance::CrowdDerived { .. } | CellProvenance::CacheHit { .. }
                ) {
                    continue;
                }
                let Value::Integer(item) = row[0] else {
                    panic!("item ids are integers, got {:?}", row[0])
                };
                let cached = db
                    .judgment_cache()
                    .peek("movies", &concept, item as u32)
                    .expect("a crowd-tagged cell has a cached judgment");
                let verdict = cached.verdict.map_or(Value::Null, Value::Boolean);
                assert_eq!(row[1], verdict, "{column} of item {item}: {:?}", tags[1]);
                checked += 1;
            }
        }
    }
    assert!(checked > 200, "only {checked} crowd-tagged cells checked");
}
