//! End-to-end tests of the anytime query API: a drained `QueryStream` is
//! bit-identical to a blocking `run()` under the same seed, events arrive
//! in the documented order with honest completeness/cost estimates, budget
//! exhaustion is reported on the stream rather than silently truncating,
//! and `EXPLAIN EXPANSION` is provably free on the crowd platform's own
//! meter.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use crowddb::prelude::*;
use crowdsim::{BatchCrowdRun, CrowdRun};

/// Wraps a [`SimulatedCrowd`], counting rounds and accumulating the
/// dollars the platform really charged — the meter the assertions are
/// held to, independent of the database's own bookkeeping.
struct MeteredCrowd {
    inner: SimulatedCrowd,
    batch_calls: Arc<AtomicUsize>,
    dollars_charged: Arc<Mutex<f64>>,
}

impl CrowdSource for MeteredCrowd {
    fn collect(
        &mut self,
        items: &[u32],
        attribute: &str,
        seed: u64,
    ) -> Result<CrowdRun, CrowdDbError> {
        self.inner.collect(items, attribute, seed)
    }

    fn collect_batch(
        &mut self,
        requests: &[AttributeRequest],
        seed: u64,
    ) -> Result<BatchCrowdRun, CrowdDbError> {
        self.batch_calls.fetch_add(1, Ordering::SeqCst);
        let batch = self.inner.collect_batch(requests, seed)?;
        *self.dollars_charged.lock().unwrap() += batch.total_cost;
        Ok(batch)
    }

    fn estimate_cost(&self, n_items: usize) -> Option<f64> {
        self.inner.estimate_cost(n_items)
    }

    fn estimate_outstanding(&self, attribute: &str, items: &[u32]) -> Option<OutstandingEstimate> {
        self.inner.estimate_outstanding(attribute, items)
    }

    fn describe(&self) -> String {
        self.inner.describe()
    }
}

struct Setup {
    db: CrowdDb,
    batch_calls: Arc<AtomicUsize>,
    dollars_charged: Arc<Mutex<f64>>,
    n_items: usize,
}

/// A fresh database over the same domain/space/crowd seeds every time, so
/// two setups are bit-identical replicas of each other.
fn setup(strategy: ExpansionStrategy) -> Setup {
    let domain = SyntheticDomain::generate(&DomainConfig::movies().scaled(0.05), 404).unwrap();
    let space = build_space_for_domain(&domain, 8, 10).unwrap();
    let n_items = domain.items().len();
    let batch_calls = Arc::new(AtomicUsize::new(0));
    let dollars_charged = Arc::new(Mutex::new(0.0));
    let crowd = MeteredCrowd {
        inner: SimulatedCrowd::new(&domain, ExperimentRegime::TrustedWorkers, 31),
        batch_calls: batch_calls.clone(),
        dollars_charged: dollars_charged.clone(),
    };
    let db = CrowdDb::new(CrowdDbConfig {
        strategy,
        ..Default::default()
    });
    db.load_domain("movies", &domain, space, Box::new(crowd))
        .unwrap();
    db.register_attribute("movies", "is_comedy", "Comedy")
        .unwrap();
    Setup {
        db,
        batch_calls,
        dollars_charged,
        n_items,
    }
}

fn charged(s: &Setup) -> f64 {
    *s.dollars_charged.lock().unwrap()
}

const QUERY: &str = "SELECT item_id, is_comedy FROM movies";

/// The acceptance scenario: a fully drained `QueryStream` yields the same
/// rows, per-cell provenance, and dollars charged as a blocking `run()` on
/// a fresh identical database — and its events arrive in the documented
/// order with the snapshot first and completion last.
#[test]
fn drained_stream_is_bit_identical_to_blocking_run() {
    // Two replicas of the same world, same seeds everywhere.
    let blocking = setup(ExpansionStrategy::DirectCrowd);
    let streaming = setup(ExpansionStrategy::DirectCrowd);

    let run_outcome = blocking.db.query(QUERY).run().unwrap();

    let mut stream = streaming.db.query(QUERY).stream();
    let events: Vec<QueryEvent> = stream.by_ref().collect();
    let stream_outcome = stream.wait().unwrap();

    // Bit-identical outcomes: rows, provenance, reports, policy, dollars.
    assert_eq!(stream_outcome, run_outcome);
    assert!(
        (charged(&streaming) - charged(&blocking)).abs() < 1e-12,
        "the platform charged the two paths differently"
    );
    assert_eq!(
        streaming.batch_calls.load(Ordering::SeqCst),
        blocking.batch_calls.load(Ordering::SeqCst),
    );

    // Event order: Snapshot first, Completed last, Progress and Delta in
    // between.
    assert!(
        events.len() >= 4,
        "expected a full event sequence: {events:?}"
    );
    let snapshot = match &events[0] {
        QueryEvent::Snapshot(rows) => rows,
        other => panic!("the first event must be the snapshot, got {other:?}"),
    };
    // The snapshot has the final answer's shape, with the unexpanded
    // column all-NULL under NotExpanded provenance.
    assert_eq!(snapshot.columns, vec!["item_id", "is_comedy"]);
    assert_eq!(snapshot.rows.len(), streaming.n_items);
    for (row, provenance) in snapshot.rows.iter().zip(&snapshot.provenance) {
        assert_eq!(row[1], Value::Null);
        assert_eq!(provenance[0], CellProvenance::Stored);
        assert_eq!(
            provenance[1],
            CellProvenance::Missing {
                reason: MissingReason::NotExpanded
            }
        );
    }
    assert!(
        matches!(events.last(), Some(QueryEvent::Completed(outcome)) if **outcome == run_outcome),
        "the last event must be Completed with the run() outcome"
    );

    // Progress: an initial 0-resolved report, and estimates within range.
    let progress: Vec<_> = events
        .iter()
        .filter_map(|event| match event {
            QueryEvent::Progress {
                concept,
                items_resolved,
                items_outstanding,
                estimated_completeness,
                estimated_remaining_cost,
                ..
            } => Some((
                concept.clone(),
                *items_resolved,
                *items_outstanding,
                *estimated_completeness,
                *estimated_remaining_cost,
            )),
            _ => None,
        })
        .collect();
    assert!(!progress.is_empty());
    assert!(progress.iter().all(|(concept, ..)| concept == "Comedy"));
    let (_, resolved0, outstanding0, completeness0, remaining0) = &progress[0];
    assert_eq!(*resolved0, 0, "nothing cached on a cold database");
    assert_eq!(*outstanding0, streaming.n_items);
    assert!(*completeness0 < 0.05, "cold completeness near zero");
    // The simulated crowd prices exactly: the initial remaining-cost
    // estimate equals what the platform then really charged.
    assert!((remaining0 - charged(&streaming)).abs() < 1e-9);
    let (_, resolved_last, outstanding_last, completeness_last, remaining_last) =
        progress.last().unwrap();
    assert_eq!(*outstanding_last, 0);
    assert_eq!(*resolved_last, streaming.n_items);
    assert_eq!(*completeness_last, 1.0);
    assert_eq!(*remaining_last, 0.0);

    // Deltas: this query's own rounds, costs matching the meter, verdicts
    // agreeing with the completed answer.
    let deltas: Vec<_> = events
        .iter()
        .filter_map(|event| match event {
            QueryEvent::Delta {
                rows,
                concept,
                round,
                cost_so_far,
                ..
            } => Some((rows, concept.clone(), *round, *cost_so_far)),
            _ => None,
        })
        .collect();
    assert!(!deltas.is_empty());
    assert_eq!(deltas[0].2, 0, "rounds are 0-indexed");
    let (_, _, _, final_cost) = deltas.last().unwrap();
    assert!((final_cost - charged(&streaming)).abs() < 1e-9);
    let final_rows = stream_outcome.rows().unwrap();
    for (rows, _, _, _) in &deltas {
        assert_eq!(rows.columns, vec!["item_id", "comedy"]);
        for (row, provenance) in rows.rows.iter().zip(&rows.provenance) {
            // Every delta verdict survives into the completed answer.
            let item = match row[0] {
                Value::Integer(id) => id,
                ref other => panic!("unexpected id {other:?}"),
            };
            let position = final_rows
                .rows
                .iter()
                .position(|r| r[0] == Value::Integer(item))
                .expect("delta item missing from the final answer");
            assert_eq!(final_rows.rows[position][1], row[1]);
            assert!(matches!(
                provenance[1],
                CellProvenance::CrowdDerived { cost_share, .. } if cost_share > 0.0
            ));
        }
    }
}

/// Mid-stream budget exhaustion is reported, not silent: the stream emits
/// a `Progress` carrying the `BudgetExhausted` remainder (with the crowd's
/// own price for it), and the completed outcome marks exactly those cells.
#[test]
fn budget_exhaustion_is_reported_on_the_stream() {
    let s = setup(ExpansionStrategy::DirectCrowd);
    // Trusted-worker pricing: $0.40 buys exactly 20 of the items.
    let budget = 0.4;
    let pricing = ExperimentRegime::TrustedWorkers.hit_config(0);
    let affordable = pricing.max_items_within_budget(budget);
    assert_eq!(affordable, 20);
    let remainder = s.n_items - affordable;

    let mut stream = s.db.query(QUERY).budget(budget).stream();
    let events: Vec<QueryEvent> = stream.by_ref().collect();
    let outcome = stream.wait().unwrap();

    // The budget stop, per the platform's meter.
    assert!(charged(&s) <= budget + 1e-9);
    assert!((outcome.crowd_cost - charged(&s)).abs() < 1e-9);

    // The stream said so: a Progress with the exact remainder and the
    // crowd's price for acquiring it.
    let exhausted = events
        .iter()
        .find_map(|event| match event {
            QueryEvent::Progress {
                items_resolved,
                items_outstanding,
                estimated_completeness,
                estimated_remaining_cost,
                ..
            } if *items_outstanding == remainder => Some((
                *items_resolved,
                *estimated_completeness,
                *estimated_remaining_cost,
            )),
            _ => None,
        })
        .expect("no Progress carried the BudgetExhausted remainder");
    let (resolved, completeness, remaining_cost) = exhausted;
    assert_eq!(resolved, affordable);
    assert!(completeness < 1.0);
    assert!(
        (remaining_cost - pricing.total_cost(remainder)).abs() < 1e-9,
        "the remainder's price must come from the crowd's own estimate"
    );

    // The outcome agrees cell by cell.
    let denied = outcome
        .rows()
        .unwrap()
        .provenance
        .iter()
        .filter(|row| {
            matches!(
                row[1],
                CellProvenance::Missing {
                    reason: MissingReason::BudgetExhausted
                }
            )
        })
        .count();
    assert_eq!(denied, remainder);
}

/// `EXPLAIN EXPANSION` prices the plan without dispatching any of it:
/// zero `collect_batch` calls on the platform's own meter, zero dollars,
/// no expansion events — and the preview matches what the real query then
/// actually pays.
#[test]
fn explain_expansion_is_free_and_accurate() {
    let s = setup(ExpansionStrategy::DirectCrowd);

    let explain =
        s.db.query("EXPLAIN EXPANSION SELECT item_id, is_comedy FROM movies")
            .run()
            .unwrap();
    // Provably free, per the platform's meter — not the db's bookkeeping.
    assert_eq!(s.batch_calls.load(Ordering::SeqCst), 0, "zero crowd rounds");
    assert_eq!(charged(&s), 0.0);
    assert_eq!(explain.crowd_cost, 0.0);
    assert!(explain.reports.is_empty());
    assert!(s.db.expansion_events().is_empty());
    assert_eq!(s.db.inflight_stats().owned, 0, "no in-flight claim either");

    // One row for the one planned concept, priced by estimate_cost.
    let rows = explain.rows().unwrap();
    assert_eq!(
        rows.columns,
        vec![
            "concept",
            "column",
            "strategy",
            "items",
            "cache_hits",
            "items_to_crowd",
            "estimated_cost"
        ]
    );
    assert_eq!(rows.rows.len(), 1);
    let row = &rows.rows[0];
    assert_eq!(row[0], Value::Text("Comedy".into()));
    assert_eq!(row[1], Value::Text("is_comedy".into()));
    assert_eq!(row[3], Value::Integer(s.n_items as i64));
    assert_eq!(row[4], Value::Integer(0), "cold cache");
    assert_eq!(row[5], Value::Integer(s.n_items as i64));
    let predicted = match row[6] {
        Value::Float(dollars) => dollars,
        ref other => panic!("unexpected cost cell {other:?}"),
    };

    // The preview is exact for the deterministic simulator: running the
    // real query charges precisely the predicted dollars.
    let outcome = s.db.query(QUERY).run().unwrap();
    assert!((outcome.crowd_cost - predicted).abs() < 1e-9);
    assert!((charged(&s) - predicted).abs() < 1e-9);

    // A fully materialized column needs nothing: the explain empties out
    // (and still dispatches nothing).
    let rounds = s.batch_calls.load(Ordering::SeqCst);
    let explain =
        s.db.query("EXPLAIN EXPANSION SELECT item_id, is_comedy FROM movies")
            .run()
            .unwrap();
    assert!(explain.rows().unwrap().rows.is_empty());
    assert_eq!(s.batch_calls.load(Ordering::SeqCst), rounds);
}

/// After a partial (budgeted) purchase, `EXPLAIN EXPANSION` sees the
/// incomplete column, credits the cache for the purchased part, and prices
/// only the remainder.
#[test]
fn explain_expansion_prices_only_the_unpurchased_remainder() {
    let s = setup(ExpansionStrategy::DirectCrowd);
    let budget = 0.4;
    let affordable = ExperimentRegime::TrustedWorkers
        .hit_config(0)
        .max_items_within_budget(budget);
    s.db.query(QUERY).budget(budget).run().unwrap();
    let spent = charged(&s);
    let rounds = s.batch_calls.load(Ordering::SeqCst);

    let explain =
        s.db.query("EXPLAIN EXPANSION SELECT item_id, is_comedy FROM movies")
            .run()
            .unwrap();
    assert_eq!(s.batch_calls.load(Ordering::SeqCst), rounds);
    assert_eq!(charged(&s), spent, "explaining costs nothing");
    let rows = explain.rows().unwrap();
    assert_eq!(rows.rows.len(), 1, "the incomplete column is re-planned");
    let row = &rows.rows[0];
    assert_eq!(row[4], Value::Integer(affordable as i64));
    assert_eq!(row[5], Value::Integer((s.n_items - affordable) as i64));
    let predicted = match row[6] {
        Value::Float(dollars) => dollars,
        ref other => panic!("unexpected cost cell {other:?}"),
    };
    // Completing the column then costs exactly the preview.
    let completion = s.db.query(QUERY).run().unwrap();
    assert!((completion.crowd_cost - predicted).abs() < 1e-9);
}

/// The `events_since` cursor hands each poller every event exactly once —
/// no history re-copying, no gaps, interoperating with the legacy
/// full-clone accessor.
#[test]
fn events_since_cursor_never_recopies_history() {
    let s = setup(ExpansionStrategy::DirectCrowd);
    let (events, cursor) = s.db.events_since(0);
    assert!(events.is_empty());
    assert_eq!(cursor, 0);

    s.db.query(QUERY).run().unwrap();
    let (events, cursor) = s.db.events_since(cursor);
    assert_eq!(events.len(), 1);
    assert_eq!(events[0].report.column, "is_comedy");

    // Nothing new → nothing returned, cursor stable.
    let (events, cursor2) = s.db.events_since(cursor);
    assert!(events.is_empty());
    assert_eq!(cursor2, cursor);

    // A later expansion shows up exactly once, and the full accessor still
    // sees everything.
    s.db.invalidate_judgments("movies", "Comedy").unwrap();
    s.db.expand_attribute("movies", "is_comedy").unwrap();
    // expand_attribute is not a query: it records no event, so force one
    // through a query over a second registered attribute.
    s.db.register_attribute("movies", "comedy_too", "Comedy")
        .unwrap();
    s.db.query("SELECT item_id, comedy_too FROM movies")
        .run()
        .unwrap();
    let (events, cursor3) = s.db.events_since(cursor2);
    assert_eq!(events.len(), 1);
    assert_eq!(events[0].report.column, "comedy_too");
    assert_eq!(cursor3 as usize, s.db.expansion_events().len());

    // An out-of-range cursor clamps instead of panicking.
    let (events, _) = s.db.events_since(u64::MAX);
    assert!(events.is_empty());
}
