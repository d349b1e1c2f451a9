//! `expand`: one client expanding the 2,000-item movie domain.
//!
//! Every operation is `SELECT item_id, <attr> FROM movies` drained through
//! `stream()`, on a column the database has never filled.  The mix is the
//! paper's pipeline plus all three acquisition branches and the cache:
//! about 60% perceptual-space extraction (100-item gold sample plus SVM),
//! 15% direct crowd-sourcing under a half-coverage `BestEffort` budget,
//! 10% adaptive direct crowd-sourcing on the lookup crowd, and 15% a new
//! column on an already-paid concept, answered by the judgment cache.
//!
//! One client, because a database draws each crowd round's seed from a
//! counter: with two clients, dollars and accuracy would depend on thread
//! scheduling.  Operations run in a fixed cycle of 20 over freshly built
//! databases (built untimed, dropped when the cycle ends), so every cycle
//! repeats the first exactly and nothing accumulates over the run.

use std::sync::Arc;
use std::time::Instant;

use crowddb_core::{
    extract_binary_attribute, CrowdDb, CrowdDbConfig, CrowdSource, ExpansionStrategy,
    ExtractionConfig, QueryOutcome, SimulatedCrowd,
};
use crowdsim::{em_aggregate, majority_vote, EmConfig, ExperimentRegime, WorkerAccuracyStore};
use datagen::SyntheticDomain;
use perceptual::PerceptualSpace;
use relational::Value;

use crate::crowd::{CrowdTap, TracedCrowd};
use crate::fixtures::{movie_domain, MOVIES as TABLE};
use crate::harness::{
    drain, end_to_end_metrics, kind_percentiles, metric, percentile, phase_detail, repeated_setup,
    run_clients, Args, Cells, Client, Metric, Outcome, Phase,
};
use crate::layers::{
    count_layers, provenance_counts, standalone_copy, time_read_path, traced_outcome, LayerCounts,
};
use crate::trace::{unattributed_us, Span, SpanTotals, Tracer};

/// One cycle of operations: P perceptual, D direct under budget,
/// A adaptive, C cache-served.  12 P, 3 D, 2 A, 3 C, interleaved so every
/// tenth of a run sees the same mix.
const CYCLE: &[u8] = b"PCPDPAPPCPDPPAPCPDPP";

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Kind {
    Perceptual,
    Direct,
    Adaptive,
    Cached,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Perceptual => "perceptual",
            Kind::Direct => "direct",
            Kind::Adaptive => "adaptive",
            Kind::Cached => "cache",
        }
    }
}

/// Which of a cycle's databases an operation runs on: one of the
/// trusted-worker databases, or the lookup-crowd database.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Slot {
    Trusted(usize),
    Lookup,
}

struct PlannedOp {
    kind: Kind,
    slot: Slot,
    concept: usize,
    column: String,
}

/// Lays out one cycle: each perceptual or direct operation takes the next
/// unpaid concept of the current trusted database (a new database once
/// all concepts are paid), a cache operation adds a column on the concept
/// the latest perceptual operation paid for, and adaptive operations take
/// the lookup database's concepts in turn.
fn plan_cycle(concepts: usize) -> Vec<PlannedOp> {
    let (mut cold, mut adaptive) = (0, 0);
    let mut last_paid = None;
    CYCLE
        .iter()
        .enumerate()
        .map(|(pos, &code)| {
            let (kind, slot, concept) = match code {
                b'P' | b'D' => {
                    let slot = Slot::Trusted(cold / concepts);
                    let concept = cold % concepts;
                    cold += 1;
                    if code == b'P' {
                        last_paid = Some((slot, concept));
                        (Kind::Perceptual, slot, concept)
                    } else {
                        (Kind::Direct, slot, concept)
                    }
                }
                b'C' => {
                    let (slot, concept) =
                        last_paid.expect("a cache operation follows a perceptual one");
                    (Kind::Cached, slot, concept)
                }
                _ => {
                    adaptive += 1;
                    (Kind::Adaptive, Slot::Lookup, (adaptive - 1) % concepts)
                }
            };
            PlannedOp {
                kind,
                slot,
                concept,
                column: format!("{}_{pos}", kind.name()),
            }
        })
        .collect()
}

struct Shared {
    seed: u64,
    domain: SyntheticDomain,
    space: PerceptualSpace,
    concepts: Vec<String>,
    truth: Vec<Vec<bool>>,
    items: Vec<u32>,
    /// The `BestEffort` budget of direct operations: half the items at
    /// trusted-worker pricing.
    budget: f64,
    space_build_s: f64,
}

fn setup(seed: u64) -> Result<Shared, String> {
    let (domain, space, space_build_s) = movie_domain(seed)?;
    let concepts = domain.category_names();
    let truth = (0..concepts.len())
        .map(|c| domain.labels_for_category(c))
        .collect();
    let items: Vec<u32> = (0..domain.items().len() as u32).collect();
    let half = items.len() / 2;
    let budget = ExperimentRegime::TrustedWorkers
        .hit_config(half)
        .total_cost(half);
    Ok(Shared {
        seed,
        domain,
        space,
        concepts,
        truth,
        items,
        budget,
        space_build_s,
    })
}

fn make_db(shared: &Shared, slot: Slot, tap: Option<&Arc<CrowdTap>>) -> Result<CrowdDb, String> {
    let (regime, index) = match slot {
        Slot::Trusted(i) => (ExperimentRegime::TrustedWorkers, i as u64),
        Slot::Lookup => (ExperimentRegime::LookupWithGold, 100),
    };
    let simulated = SimulatedCrowd::new(
        &shared.domain,
        regime,
        shared.seed.wrapping_add(1_000 + index),
    );
    let crowd: Box<dyn CrowdSource> = match tap {
        Some(tap) => Box::new(TracedCrowd::new(simulated, Arc::clone(tap))),
        None => Box::new(simulated),
    };
    let db = CrowdDb::new(CrowdDbConfig {
        strategy: ExpansionStrategy::perceptual_default(),
        seed: shared.seed.wrapping_add(index),
        ..Default::default()
    });
    db.load_domain(TABLE, &shared.domain, shared.space.clone(), crowd)
        .map_err(|e| e.to_string())?;
    Ok(db)
}

/// The outcome of one operation that must repeat exactly in every cycle
/// and in the traced run.
#[derive(Clone, Copy, Debug, PartialEq, Default)]
struct OpFacts {
    dollars: f64,
    cells: Cells,
    /// true positives, false positives, true negatives, false negatives.
    confusion: [u64; 4],
}

impl OpFacts {
    fn gmean(&self) -> f64 {
        let [tp, fp, tn, fneg] = self.confusion.map(|n| n as f64);
        let tpr = tp / (tp + fneg).max(1.0);
        let tnr = tn / (tn + fp).max(1.0);
        (tpr * tnr).sqrt()
    }
}

struct ExpandState<'a> {
    plan: Vec<PlannedOp>,
    pos: usize,
    cycle: usize,
    trusted: Vec<Option<CrowdDb>>,
    lookup: Option<CrowdDb>,
    /// The facts of the first cycle; every later operation must match.
    first_cycle: Vec<OpFacts>,
    /// The untraced run's first cycle, which the traced run must match.
    reference: Option<&'a [OpFacts]>,
    layers: LayerCounts,
}

/// What the operations of the traced phase are handed: the tracer, and
/// the tap of the crowd wrapper every database of the phase is built with.
struct CrowdTrace<'a> {
    tracer: &'a Tracer,
    tap: Arc<CrowdTap>,
}

fn facts_of(shared: &Shared, concept: usize, outcome: &QueryOutcome) -> Result<OpFacts, String> {
    let rows = outcome.rows().ok_or("the expansion returned no rows")?;
    if rows.rows.len() != shared.items.len() {
        return Err(format!(
            "{} rows returned, expected {}",
            rows.rows.len(),
            shared.items.len()
        ));
    }
    let mut facts = OpFacts {
        dollars: outcome.crowd_cost,
        ..Default::default()
    };
    let mut seen = vec![false; shared.items.len()];
    for row in &rows.rows {
        let item = match row.first() {
            Some(Value::Integer(id)) if (0..seen.len() as i64).contains(id) => *id as usize,
            other => return Err(format!("unexpected item id {other:?}")),
        };
        if std::mem::replace(&mut seen[item], true) {
            return Err(format!("item {item} returned twice"));
        }
        facts.cells.total += 1;
        match row.get(1) {
            Some(Value::Boolean(label)) => {
                let truth = shared.truth[concept][item];
                facts.cells.answered += 1;
                facts.cells.correct += u64::from(*label == truth);
                let slot = match (*label, truth) {
                    (true, true) => 0,
                    (true, false) => 1,
                    (false, false) => 2,
                    (false, true) => 3,
                };
                facts.confusion[slot] += 1;
            }
            Some(Value::Null) => {}
            other => return Err(format!("unexpected cell {other:?} for item {item}")),
        }
    }
    Ok(facts)
}

/// Times the layers of one expansion from outside the engine: the
/// relational path on the materialized table, the cache peek, majority
/// and EM aggregation of the judgments the crowd returned, and the SVM on
/// the gold verdicts.
fn time_layers(
    trace: &crate::trace::OpTrace<'_>,
    shared: &Shared,
    db: &CrowdDb,
    op: &PlannedOp,
    sql: &str,
    ledger: &crate::crowd::Ledger,
    layers: &mut LayerCounts,
) -> Result<(), String> {
    let standalone = standalone_copy(db, TABLE)?;
    layers.view_rows += time_read_path(trace, sql, db, TABLE, &standalone)? as u64;
    layers.views += 1;
    let concept = &shared.concepts[op.concept];
    let (cached, _) = trace.time("cache.peek", || {
        db.judgment_cache()
            .partition_peek(TABLE, concept, &shared.items)
    });
    let mut adaptive_judgments = Vec::new();
    let mut adaptive_items = Vec::new();
    for question in &ledger.questions {
        if question.adaptive {
            adaptive_judgments.extend_from_slice(&question.judgments);
            adaptive_items.extend_from_slice(&question.items);
        } else {
            trace.time("aggregate.majority", || {
                majority_vote(&question.judgments, &question.items)
            });
        }
    }
    if !adaptive_judgments.is_empty() {
        adaptive_items.sort_unstable();
        adaptive_items.dedup();
        trace.time("aggregate.em", || {
            em_aggregate(
                &adaptive_judgments,
                &adaptive_items,
                &WorkerAccuracyStore::new(),
                &EmConfig::default(),
            )
        });
    }
    if matches!(op.kind, Kind::Perceptual | Kind::Cached) {
        let mut gold: Vec<(u32, bool)> = cached
            .iter()
            .filter_map(|(&item, judgment)| judgment.verdict.map(|v| (item, v)))
            .collect();
        gold.sort_unstable();
        trace
            .time("extraction.svm", || {
                extract_binary_attribute(&shared.space, &gold, &ExtractionConfig::default())
            })
            .map_err(|e| format!("extraction: {e}"))?;
    }
    Ok(())
}

fn one_op(
    client: &mut Client,
    state: &mut ExpandState<'_>,
    shared: &Shared,
    traced: Option<&CrowdTrace<'_>>,
) {
    let pos = state.pos;
    let (kind, slot, concept) = {
        let op = &state.plan[pos];
        (op.kind, op.slot, op.concept)
    };
    let tap = traced.map(|t| &t.tap);
    let prepared = client.untimed(|| -> Result<(), String> {
        let db = match slot {
            Slot::Trusted(i) => &mut state.trusted[i],
            Slot::Lookup => &mut state.lookup,
        };
        if db.is_none() {
            *db = Some(make_db(shared, slot, tap)?);
        }
        let db = db.as_ref().expect("built above");
        let strategy = match kind {
            Kind::Direct | Kind::Adaptive => ExpansionStrategy::DirectCrowd,
            Kind::Perceptual | Kind::Cached => ExpansionStrategy::perceptual_default(),
        };
        db.register_attribute_with_strategy(
            TABLE,
            &state.plan[pos].column,
            &shared.concepts[concept],
            strategy,
        )
        .map_err(|e| e.to_string())
    });
    if let Err(error) = prepared {
        client.fail(error);
        advance(client, state);
        return;
    }
    let db = match slot {
        Slot::Trusted(i) => state.trusted[i].as_ref(),
        Slot::Lookup => state.lookup.as_ref(),
    }
    .expect("prepared above");
    let sql = format!("SELECT item_id, {} FROM {TABLE}", state.plan[pos].column);
    let cache_before = db.cache_stats();
    let overflow_before = db.scheduler_stats().overflow_spawned;
    let builder = db.query(sql.as_str());
    let builder = match kind {
        Kind::Direct => builder.budget(shared.budget),
        Kind::Adaptive => builder.adaptive(true),
        Kind::Perceptual | Kind::Cached => builder,
    };
    let trace = traced.map(|t| t.tracer.begin_op());
    if let (Some(trace), Some(traced)) = (&trace, traced) {
        traced.tap.begin(trace.op, trace.engine);
    }
    let started = Instant::now();
    let result = drain(builder.stream(), started);
    if let Some(trace) = &trace {
        trace.engine_done(started);
    }
    let (outcome, first_rows) = match result {
        Ok(done) => done,
        Err(error) => {
            client.fail(error);
            advance(client, state);
            return;
        }
    };
    client.record(kind.name(), started, Some(first_rows));

    match facts_of(shared, concept, &outcome) {
        Ok(facts) => {
            match kind {
                Kind::Direct => client.check(facts.dollars <= shared.budget + 1e-9, || {
                    format!(
                        "direct op {pos} spent ${} over its ${} budget",
                        facts.dollars, shared.budget
                    )
                }),
                Kind::Cached => client.check(facts.dollars == 0.0, || {
                    format!("cache op {pos} paid ${}", facts.dollars)
                }),
                _ => {}
            }
            let expected = state
                .reference
                .or((state.cycle > 0).then_some(state.first_cycle.as_slice()))
                .and_then(|facts| facts.get(pos));
            match expected {
                Some(expected) => client.check(*expected == facts, || {
                    format!(
                        "op {pos} of cycle {} gave {facts:?}, the first cycle {expected:?}",
                        state.cycle
                    )
                }),
                None => state.first_cycle.push(facts),
            }
        }
        Err(error) => client.check(false, || format!("op {pos}: {error}")),
    }

    if let (Some(trace), Some(traced)) = (trace, traced) {
        let ledger = traced.tap.take();
        client.check((ledger.invoice - outcome.crowd_cost).abs() < 1e-9, || {
            format!(
                "op {pos}: the crowd invoiced ${} but the query reports ${}",
                ledger.invoice, outcome.crowd_cost
            )
        });
        let layers = &mut state.layers;
        if let Err(error) = time_layers(&trace, shared, db, &state.plan[pos], &sql, &ledger, layers)
        {
            client.check(false, || format!("op {pos}: {error}"));
        }
        let cache_after = db.cache_stats();
        layers.cache_hits += cache_after.hits - cache_before.hits;
        layers.cache_lookups +=
            cache_after.hits + cache_after.misses - cache_before.hits - cache_before.misses;
        layers.cache_entries_added += (cache_after.entries - cache_before.entries) as u64;
        layers.crowd_rounds += ledger.rounds;
        layers.crowd_judgments += ledger.judgments;
        layers.crowd_decisive += ledger.decisive;
        layers.crowd_invoice += ledger.invoice;
        if let Some(rows) = outcome.rows() {
            layers.add_provenance(provenance_counts(rows));
        }
        layers.op_done(db);
        layers.overflow_spawned += db.scheduler_stats().overflow_spawned - overflow_before;
        trace.finish();
    }
    advance(client, state);
}

/// Moves to the next operation; at the end of a cycle the cycle's
/// databases are dropped (untimed) and the next cycle starts fresh.
fn advance(client: &mut Client, state: &mut ExpandState<'_>) {
    state.pos += 1;
    if state.pos == state.plan.len() {
        state.pos = 0;
        state.cycle += 1;
        client.untimed(|| {
            state.trusted.iter_mut().for_each(|db| *db = None);
            state.lookup = None;
        });
    }
}

fn measure<'a>(
    shared: &Shared,
    seed: u64,
    seconds: f64,
    reference: Option<&'a [OpFacts]>,
    traced: Option<&CrowdTrace<'_>>,
) -> (Phase, ExpandState<'a>) {
    let plan = plan_cycle(shared.concepts.len());
    let trusted_dbs = plan
        .iter()
        .filter_map(|op| match op.slot {
            Slot::Trusted(i) => Some(i + 1),
            Slot::Lookup => None,
        })
        .max()
        .unwrap_or(0);
    let state = ExpandState {
        plan,
        pos: 0,
        cycle: 0,
        trusted: (0..trusted_dbs).map(|_| None).collect(),
        lookup: None,
        first_cycle: Vec::new(),
        reference,
        layers: LayerCounts::default(),
    };
    let (phase, mut states) = run_clients(seed, seconds, vec![state], |client, state| {
        one_op(client, state, shared, traced)
    });
    (phase, states.pop().expect("one client"))
}

fn quality_detail(detail: &mut Vec<Metric>, facts: &[OpFacts]) {
    let ops = facts.len().max(1) as f64;
    let mut cells = Cells::default();
    facts.iter().for_each(|f| cells.add(f.cells));
    detail.push(metric(
        "dollars_per_query",
        facts.iter().map(|f| f.dollars).sum::<f64>() / ops,
        "USD",
    ));
    detail.push(metric(
        "accuracy_gmean",
        facts.iter().map(OpFacts::gmean).sum::<f64>() / ops,
        "ratio",
    ));
    detail.push(metric(
        "missing_cell_ratio",
        1.0 - cells.answered_ratio(),
        "ratio",
    ));
}

fn span_detail(detail: &mut Vec<Metric>, spans: &[Span]) {
    let totals = SpanTotals::of(spans);
    for (name, span) in [
        ("crowd.dispatch_us", "crowd.dispatch"),
        ("crowd.estimate_us", "crowd.estimate"),
        ("aggregate.em_us", "aggregate.em"),
        ("aggregate.majority_us", "aggregate.majority"),
        ("extraction.svm_us", "extraction.svm"),
        ("cache.peek_us", "cache.peek"),
    ] {
        detail.push(metric(name, totals.mean_us(span), "us"));
    }
    detail.push(metric(
        "engine.expand_residual_us",
        unattributed_us(
            spans,
            "engine.query",
            &[
                "crowd.dispatch",
                "crowd.estimate",
                "aggregate.em",
                "aggregate.majority",
                "extraction.svm",
            ],
        ),
        "us",
    ));
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let (shared, setup_s) = repeated_setup(|| setup(args.seed))?;
    if !args.trace {
        let (phase, state) = measure(&shared, args.seed, args.seconds, None, None);
        let mut cells = Cells::default();
        state.first_cycle.iter().for_each(|f| cells.add(f.cells));
        let mut detail = Vec::new();
        kind_percentiles(
            &mut detail,
            &phase,
            &[],
            "expand_p50_ms",
            Some("expand_p99_ms"),
            "expand_samples",
        );
        for (kind, name) in [
            (Kind::Perceptual, "perceptual_p50_ms"),
            (Kind::Direct, "direct_p50_ms"),
            (Kind::Adaptive, "adaptive_p50_ms"),
            (Kind::Cached, "cache_p50_ms"),
        ] {
            let ms = phase.latencies_ms(&[kind.name()]);
            detail.push(metric(name, percentile(&ms, 0.5), "ms"));
        }
        detail.push(metric(
            "first_row_p50_ms",
            percentile(&phase.first_rows_ms(), 0.5),
            "ms",
        ));
        quality_detail(&mut detail, &state.first_cycle);
        detail.push(metric("cycles", state.cycle as f64, "count"));
        phase_detail(&mut detail, &phase);
        return Ok(Outcome {
            attempted: phase.attempted(),
            failed: phase.failed,
            metrics: end_to_end_metrics(&phase, setup_s, cells),
            problems: phase.problems,
            detail,
        });
    }
    let (untraced, reference) = measure(&shared, args.seed, args.seconds / 2.0, None, None);
    let tracer = Arc::new(Tracer::new());
    let traced_with = CrowdTrace {
        tracer: &tracer,
        tap: CrowdTap::new(Arc::clone(&tracer)),
    };
    // Every cycle builds new databases, so the operations count their
    // overflow spawns themselves.
    let (traced, _, counts) = count_layers(
        || {
            let (phase, state) = measure(
                &shared,
                args.seed,
                args.seconds / 2.0,
                Some(&reference.first_cycle),
                Some(&traced_with),
            );
            (phase, vec![state])
        },
        |state| std::mem::take(&mut state.layers),
    );
    let spans = tracer.spans();
    let mut detail = Vec::new();
    span_detail(&mut detail, &spans);
    detail.push(metric(
        "engine.first_event_us",
        percentile(&traced.first_rows_ms(), 0.5) * 1e3,
        "us",
    ));
    detail.push(metric(
        "perceptual.space_build_s",
        shared.space_build_s,
        "s",
    ));
    Ok(traced_outcome(
        args, untraced, traced, counts, &tracer, detail,
    ))
}
