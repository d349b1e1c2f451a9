//! Pins the acquisition pipeline's observable behaviour call for call.
//!
//! A recording [`CrowdSource`] wraps [`SimulatedCrowd`] and logs every
//! dispatch (method, seed, per-question attribute and item count, the
//! assignment count of adaptive rounds, and whether the round was routed).
//! Five cases drive a two-concept query (`is_comedy` on `Comedy`, perceptual;
//! `is_horror` on `Horror`, direct crowd) through every acquisition shape:
//!
//! 1. unbudgeted flat — one batched round for both concepts;
//! 2. `BestEffort` with a budget that runs out inside the second concept;
//! 3. adaptive on the `LookupWithGold` crowd;
//! 4. adaptive under a budget that cuts off items it already paid for and
//!    denies items it never touched;
//! 5. `repair_attribute` after a flat expansion.
//!
//! Each case asserts the crowd call log, the full stream event sequence,
//! the final outcome, the judgment-cache counters and a digest of every
//! WAL record the persistent database wrote, all against literals.  Any change
//! to seeds, round sizing, aggregation, events or WAL records shows up
//! here as a diff.

use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use crowddb::prelude::*;
use crowddb::storage::{segment_file_name, Wal, WalRecord};
use crowdsim::{BatchCrowdRun, WorkerId};

/// A [`SimulatedCrowd`] that appends one line per dispatch to a shared log
/// and forwards every trait method, so pricing and estimates are the
/// simulator's own.
struct RecordingCrowd {
    inner: SimulatedCrowd,
    log: Arc<Mutex<Vec<String>>>,
}

fn questions(requests: &[AttributeRequest]) -> String {
    requests
        .iter()
        .map(|r| format!("{}:{}", r.attribute, r.items.len()))
        .collect::<Vec<_>>()
        .join(",")
}

impl RecordingCrowd {
    fn record(&self, line: String) {
        self.log.lock().unwrap().push(line);
    }
}

impl CrowdSource for RecordingCrowd {
    fn collect(
        &mut self,
        items: &[u32],
        attribute: &str,
        seed: u64,
    ) -> Result<CrowdRun, CrowdDbError> {
        self.record(format!("collect seed={seed} [{attribute}:{}]", items.len()));
        self.inner.collect(items, attribute, seed)
    }

    fn collect_batch(
        &mut self,
        requests: &[AttributeRequest],
        seed: u64,
    ) -> Result<BatchCrowdRun, CrowdDbError> {
        self.record(format!(
            "collect_batch seed={seed} [{}]",
            questions(requests)
        ));
        self.inner.collect_batch(requests, seed)
    }

    fn collect_adaptive(
        &mut self,
        requests: &[AttributeRequest],
        seed: u64,
        judgments_per_item: usize,
        preferred_workers: Option<&HashSet<WorkerId>>,
    ) -> Result<BatchCrowdRun, CrowdDbError> {
        self.record(format!(
            "collect_adaptive seed={seed} [{}] k={judgments_per_item} routed={}",
            questions(requests),
            preferred_workers.is_some()
        ));
        self.inner
            .collect_adaptive(requests, seed, judgments_per_item, preferred_workers)
    }

    fn adaptive_round_cost(&self, n_items: usize, judgments_per_item: usize) -> Option<f64> {
        self.inner.adaptive_round_cost(n_items, judgments_per_item)
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

const QUERY: &str = "SELECT item_id, is_comedy, is_horror FROM movies";

struct Fixture {
    db: CrowdDb,
    log: Arc<Mutex<Vec<String>>>,
    dir: PathBuf,
}

impl Drop for Fixture {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// A persistent database over a 200-movie domain whose crowd runs `regime`
/// behind the recorder.  `is_comedy` uses the default perceptual strategy
/// (gold sample + extractor); `is_horror` is pinned to direct crowd.
fn fixture(tag: &str, regime: ExperimentRegime) -> Fixture {
    let dir = std::env::temp_dir().join(format!(
        "crowddb-acquisition-trace-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let domain = SyntheticDomain::generate(&DomainConfig::movies().scaled(0.1), 12).unwrap();
    let space = build_space_for_domain(&domain, 8, 10).unwrap();
    let log = Arc::new(Mutex::new(Vec::new()));
    let crowd = RecordingCrowd {
        inner: SimulatedCrowd::new(&domain, regime, 5),
        log: log.clone(),
    };
    let db = CrowdDb::builder().persistent(&dir).open().unwrap();
    db.load_domain("movies", &domain, space, Box::new(crowd))
        .unwrap();
    db.register_attribute("movies", "is_comedy", "Comedy")
        .unwrap();
    db.register_attribute_with_strategy(
        "movies",
        "is_horror",
        "Horror",
        ExpansionStrategy::DirectCrowd,
    )
    .unwrap();
    Fixture { db, log, dir }
}

fn event_line(event: &QueryEvent) -> String {
    match event {
        QueryEvent::Snapshot(rows) => format!("snapshot rows={}", rows.rows.len()),
        QueryEvent::Delta {
            rows,
            concept,
            round,
            cost_so_far,
            ..
        } => format!(
            "delta {concept} round={round} rows={} cost_so_far={cost_so_far:?}",
            rows.rows.len()
        ),
        QueryEvent::Progress {
            concept,
            items_resolved,
            items_outstanding,
            estimated_completeness,
            estimated_remaining_cost,
            ..
        } => format!(
            "progress {concept} resolved={items_resolved} outstanding={items_outstanding} \
             completeness={estimated_completeness:?} remaining={estimated_remaining_cost:?}"
        ),
        QueryEvent::Completed(_) => "completed".to_string(),
        other => format!("unexpected {other:?}"),
    }
}

/// FNV-1a, enough to pin a long rendering to one literal.
fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn outcome_lines(outcome: &QueryOutcome) -> Vec<String> {
    let mut lines = vec![format!("crowd_cost={:?}", outcome.crowd_cost)];
    for r in &outcome.reports {
        lines.push(format!(
            "report {} attribute={} sourced={} judgments={} filled={} unfilled={} cost={:?} \
             minutes={:?} hits={} misses={} coalesced={} dropped={}",
            r.column,
            r.attribute,
            r.items_crowd_sourced,
            r.judgments_collected,
            r.rows_filled,
            r.rows_unfilled,
            r.crowd_cost,
            r.crowd_minutes,
            r.cache_hits,
            r.cache_misses,
            r.items_coalesced,
            r.items_dropped
        ));
    }
    lines.push(format!(
        "digest={:016x}",
        fnv(format!("{outcome:?}").as_bytes())
    ));
    lines
}

/// The movies table's WAL segment, decoded: record count plus a digest of
/// every record's encoded bytes in log order.  (The raw file is not
/// digested: its header carries a clock-derived generation id.)
fn wal_digest(dir: &Path) -> String {
    let (_, records) = Wal::open(dir.join("wal").join(segment_file_name("movies", 0))).unwrap();
    format!(
        "wal records={} digest={:016x}",
        records.len(),
        fnv(&records
            .iter()
            .flat_map(WalRecord::encode)
            .collect::<Vec<u8>>())
    )
}

fn cache_line(db: &CrowdDb) -> String {
    let stats = db.cache_stats();
    format!(
        "cache entries={} hits={} misses={} saved={:?}",
        stats.entries, stats.hits, stats.misses, stats.cost_saved
    )
}

/// Streams `QUERY` under `configure` and returns the trace: crowd calls,
/// then events, then the outcome, cache counters and WAL digest.
fn trace_query(
    fixture: &Fixture,
    configure: impl FnOnce(QueryBuilder<'_>) -> QueryBuilder<'_>,
) -> Vec<String> {
    let mut stream = configure(fixture.db.query(QUERY)).stream();
    let events: Vec<String> = stream.by_ref().map(|e| event_line(&e)).collect();
    let outcome = stream.wait().unwrap();
    let mut trace: Vec<String> = fixture.log.lock().unwrap().clone();
    trace.extend(events);
    trace.extend(outcome_lines(&outcome));
    trace.push(cache_line(&fixture.db));
    trace.push(wal_digest(&fixture.dir));
    trace
}

/// Compares line by line; on mismatch prints the actual trace as a Rust
/// literal so an intended change can be reviewed and pasted.
fn assert_trace(case: &str, actual: &[String], expected: &[&str]) {
    if actual
        .iter()
        .map(String::as_str)
        .ne(expected.iter().copied())
    {
        let literal: Vec<String> = actual.iter().map(|l| format!("        {l:?},")).collect();
        panic!(
            "{case}: trace differs from the pinned one; actual:\n    &[\n{}\n    ]",
            literal.join("\n")
        );
    }
}

#[test]
fn unbudgeted_flat_batches_both_concepts_in_one_round() {
    let f = fixture("flat", ExperimentRegime::AllWorkers);
    let trace = trace_query(&f, |q| q.mode(ExpansionMode::Full));
    assert_trace(
        "flat",
        &trace,
        &[
            "collect_batch seed=219 [Comedy:100,Horror:200]",
            "snapshot rows=200",
            "progress Comedy resolved=0 outstanding=100 completeness=0.0 remaining=2.0",
            "progress Horror resolved=0 outstanding=200 completeness=0.0 remaining=4.0",
            "delta Comedy round=0 rows=82 cost_so_far=5.99999999999996",
            "progress Comedy resolved=100 outstanding=0 completeness=1.0 remaining=0.0",
            "delta Horror round=0 rows=171 cost_so_far=5.99999999999996",
            "progress Horror resolved=200 outstanding=0 completeness=1.0 remaining=0.0",
            "completed",
            "crowd_cost=5.99999999999996",
            "report is_comedy attribute=Comedy sourced=100 judgments=1000 filled=200 unfilled=0 cost=1.9999999999999867 minutes=32.896709830088135 hits=0 misses=100 coalesced=0 dropped=0",
            "report is_horror attribute=Horror sourced=200 judgments=2000 filled=171 unfilled=29 cost=3.9999999999999734 minutes=32.896709830088135 hits=0 misses=200 coalesced=0 dropped=0",
            "digest=804beaf353ae9fbb",
            "cache entries=300 hits=0 misses=300 saved=0.0",
            "wal records=6 digest=ba6c5d16187e2369",
        ],
    );
}

#[test]
fn budget_runs_out_inside_the_second_concept() {
    let f = fixture("budgeted", ExperimentRegime::AllWorkers);
    let trace = trace_query(&f, |q| q.mode(ExpansionMode::BestEffort).budget(3.0));
    assert_trace(
        "budgeted",
        &trace,
        &[
            "collect_batch seed=219 [Comedy:100]",
            "collect_batch seed=220 [Horror:50]",
            "snapshot rows=200",
            "progress Comedy resolved=0 outstanding=100 completeness=0.0 remaining=2.0",
            "progress Horror resolved=0 outstanding=200 completeness=0.0 remaining=4.0",
            "delta Comedy round=0 rows=83 cost_so_far=2.0000000000000013",
            "progress Comedy resolved=100 outstanding=0 completeness=1.0 remaining=0.0",
            "delta Horror round=1 rows=48 cost_so_far=3.0000000000000018",
            "progress Horror resolved=50 outstanding=150 completeness=0.30659710312566857 remaining=3.0",
            "completed",
            "crowd_cost=3.0000000000000018",
            "report is_comedy attribute=Comedy sourced=100 judgments=1000 filled=200 unfilled=0 cost=2.0000000000000013 minutes=13.925133429654583 hits=0 misses=100 coalesced=0 dropped=0",
            "report is_horror attribute=Horror sourced=50 judgments=500 filled=48 unfilled=152 cost=1.0000000000000004 minutes=12.890732051220025 hits=0 misses=200 coalesced=0 dropped=150",
            "digest=6a9c3b55984a064b",
            "cache entries=150 hits=0 misses=300 saved=0.0",
            "wal records=6 digest=997b0a823a7dd9dd",
        ],
    );
}

#[test]
fn adaptive_on_the_lookup_crowd() {
    let f = fixture("adaptive", ExperimentRegime::LookupWithGold);
    let trace = trace_query(&f, |q| q.mode(ExpansionMode::Full).adaptive(true));
    assert_trace(
        "adaptive",
        &trace,
        &[
            "collect_adaptive seed=219 [Comedy:100] k=3 routed=false",
            "collect_adaptive seed=220 [Comedy:100] k=2 routed=true",
            "collect_adaptive seed=221 [Comedy:26] k=2 routed=true",
            "collect_adaptive seed=222 [Comedy:5] k=3 routed=true",
            "collect_adaptive seed=223 [Horror:200] k=3 routed=false",
            "collect_adaptive seed=224 [Horror:200] k=2 routed=true",
            "collect_adaptive seed=225 [Horror:29] k=2 routed=true",
            "collect_adaptive seed=226 [Horror:17] k=3 routed=true",
            "snapshot rows=200",
            "progress Comedy resolved=0 outstanding=100 completeness=0.0 remaining=3.3",
            "progress Horror resolved=0 outstanding=200 completeness=0.0 remaining=6.6",
            "delta Comedy round=0 rows=0 cost_so_far=0.9900000000000007",
            "progress Comedy resolved=0 outstanding=100 completeness=0.0 remaining=0.0",
            "delta Comedy round=1 rows=74 cost_so_far=1.650000000000001",
            "progress Comedy resolved=74 outstanding=26 completeness=0.74 remaining=0.0",
            "delta Comedy round=2 rows=21 cost_so_far=1.830000000000001",
            "progress Comedy resolved=95 outstanding=5 completeness=0.95 remaining=0.0",
            "delta Comedy round=3 rows=5 cost_so_far=1.920000000000001",
            "progress Comedy resolved=100 outstanding=0 completeness=1.0 remaining=0.0",
            "progress Comedy resolved=100 outstanding=0 completeness=1.0 remaining=0.0",
            "delta Horror round=4 rows=0 cost_so_far=3.9000000000000026",
            "progress Horror resolved=0 outstanding=200 completeness=0.0 remaining=0.0",
            "delta Horror round=5 rows=171 cost_so_far=5.220000000000003",
            "progress Horror resolved=171 outstanding=29 completeness=0.855 remaining=0.0",
            "delta Horror round=6 rows=12 cost_so_far=5.4600000000000035",
            "progress Horror resolved=183 outstanding=17 completeness=0.915 remaining=0.0",
            "delta Horror round=7 rows=14 cost_so_far=5.640000000000003",
            "progress Horror resolved=200 outstanding=0 completeness=1.0 remaining=0.0",
            "progress Horror resolved=200 outstanding=0 completeness=1.0 remaining=0.0",
            "completed",
            "crowd_cost=5.640000000000004",
            "report is_comedy attribute=Comedy sourced=100 judgments=567 filled=200 unfilled=0 cost=1.920000000000001 minutes=151.53095843117597 hits=0 misses=100 coalesced=0 dropped=0",
            "report is_horror attribute=Horror sourced=200 judgments=1109 filled=197 unfilled=3 cost=3.720000000000003 minutes=159.34080049222484 hits=0 misses=200 coalesced=0 dropped=0",
            "digest=b074ab3ae3466a73",
            "cache entries=300 hits=0 misses=300 saved=0.0",
            "wal records=10 digest=d7287634b87e60fb",
        ],
    );
}

#[test]
fn adaptive_budget_cuts_off_paid_items_and_denies_untouched_ones() {
    let f = fixture("adaptive-budget", ExperimentRegime::LookupWithGold);
    let trace = trace_query(&f, |q| {
        q.mode(ExpansionMode::BestEffort)
            .budget(1.75)
            .adaptive(true)
    });
    assert_trace(
        "adaptive-budget",
        &trace,
        &[
            "collect_adaptive seed=219 [Comedy:100] k=3 routed=false",
            "collect_adaptive seed=220 [Comedy:100] k=2 routed=true",
            "collect_adaptive seed=221 [Comedy:9] k=2 routed=true",
            "snapshot rows=200",
            "progress Comedy resolved=0 outstanding=100 completeness=0.0 remaining=3.3",
            "progress Horror resolved=0 outstanding=200 completeness=0.0 remaining=6.6",
            "delta Comedy round=0 rows=0 cost_so_far=0.9900000000000007",
            "progress Comedy resolved=0 outstanding=100 completeness=0.0 remaining=0.0",
            "delta Comedy round=1 rows=74 cost_so_far=1.650000000000001",
            "progress Comedy resolved=74 outstanding=26 completeness=0.74 remaining=0.0",
            "delta Comedy round=2 rows=7 cost_so_far=1.710000000000001",
            "progress Comedy resolved=81 outstanding=19 completeness=0.81 remaining=0.0",
            "progress Comedy resolved=100 outstanding=0 completeness=1.0 remaining=0.0",
            "progress Horror resolved=0 outstanding=200 completeness=0.0 remaining=6.6",
            "completed",
            "crowd_cost=1.710000000000001",
            "report is_comedy attribute=Comedy sourced=100 judgments=518 filled=200 unfilled=0 cost=1.710000000000001 minutes=115.10884995173075 hits=0 misses=100 coalesced=0 dropped=0",
            "report is_horror attribute=Horror sourced=0 judgments=0 filled=0 unfilled=200 cost=0.0 minutes=0.0 hits=0 misses=200 coalesced=0 dropped=200",
            "digest=a43761ba248ce95d",
            "cache entries=100 hits=0 misses=300 saved=0.0",
            "wal records=7 digest=cadfda5cfa4757dc",
        ],
    );
}

#[test]
fn repair_re_sources_flagged_items_once() {
    let f = fixture("repair", ExperimentRegime::AllWorkers);
    f.db.query(QUERY).mode(ExpansionMode::Full).run().unwrap();
    f.log.lock().unwrap().clear();
    let outcome =
        f.db.repair_attribute("movies", "is_comedy", &ExtractionConfig::default())
            .unwrap();
    let mut trace: Vec<String> = f.log.lock().unwrap().clone();
    trace.push(format!(
        "repair flagged={} changed={} cost={:?} minutes={:?} digest={:016x}",
        outcome.flagged.len(),
        outcome.labels_changed,
        outcome.repair_cost,
        outcome.repair_minutes,
        fnv(format!("{outcome:?}").as_bytes())
    ));
    trace.push(cache_line(&f.db));
    trace.push(wal_digest(&f.dir));
    assert_trace(
        "repair",
        &trace,
        &[
            "collect seed=220 [Comedy:47]",
            "repair flagged=47 changed=21 cost=1.0000000000000004 minutes=10.986684715279077 digest=b3768a8fb6511706",
            "cache entries=315 hits=0 misses=300 saved=0.0",
            "wal records=8 digest=025449e53d8b5adf",
        ],
    );
}
