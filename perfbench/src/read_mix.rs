//! `read_mix`: two clients reading one 65,536-row `Hash{4}` table.
//!
//! 95% of the operations are point SELECTs by id on uniform ids, run to
//! completion; 5% are a filtered `ORDER BY … LIMIT 10` drained through
//! `stream()`.  No crowd and no storage: the workload isolates the read
//! path (per-row `index_of`, the partition merge-clone, the double SELECT
//! of a drained stream) and the engine's fixed per-query overhead.

use std::time::Instant;

use crowddb_core::{CrowdDb, CrowdDbConfig, QueryOutcome};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use relational::Value;

use crate::fixtures::{create_items, item_row, ITEMS as TABLE};
use crate::harness::{
    drain, end_to_end_metrics, kind_percentiles, phase_detail, repeated_setup, run_clients, Args,
    Cells, Client, Outcome, Phase,
};
use crate::layers::{
    measure_traced, provenance_counts, time_read_path, traced_outcome, LayerCounts, Traced,
};

const ROWS: usize = 65_536;
const CLIENTS: usize = 2;
const SCAN_SHARE: f64 = 0.05;
/// Distinct scan filters; their answers are computed once at set-up.
const SCAN_VARIANTS: usize = 16;
/// In the traced phase, every n-th operation of a client also times the
/// relational layers and the catalog view (each repeats work the engine
/// call already did, so timing every operation would double the load).
const LAYERS_EVERY: u64 = 4;

struct Row {
    id: i64,
    label: String,
    score: i64,
    weight: f64,
}

impl Row {
    fn values(&self) -> Vec<Value> {
        item_row(self.id, self.label.clone(), self.score, self.weight)
    }
}

struct Scan {
    sql: String,
    expected: Vec<Vec<Value>>,
}

struct Data {
    rows: Vec<Row>,
    scans: Vec<Scan>,
}

/// The table's rows and the scans' expected answers, all from `seed`.
/// Scores are a permutation, so `ORDER BY score` has no ties.
fn generate(seed: u64) -> Data {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut scores: Vec<i64> = (0..ROWS as i64).collect();
    scores.shuffle(&mut rng);
    let rows: Vec<Row> = scores
        .into_iter()
        .enumerate()
        .map(|(id, score)| Row {
            id: id as i64,
            label: format!("item-{:08x}", rng.gen::<u32>()),
            score,
            weight: rng.gen::<f64>(),
        })
        .collect();
    let mut by_score: Vec<&Row> = rows.iter().collect();
    by_score.sort_by_key(|r| r.score);
    let scans = (0..SCAN_VARIANTS)
        .map(|v| {
            let bound = format!("{:.3}", (v + 1) as f64 / (SCAN_VARIANTS + 1) as f64);
            let limit: f64 = bound.parse().expect("a formatted float parses");
            Scan {
                sql: format!(
                    "SELECT item_id, score FROM {TABLE} WHERE weight < {bound} ORDER BY score LIMIT 10"
                ),
                expected: by_score
                    .iter()
                    .filter(|r| r.weight < limit)
                    .take(10)
                    .map(|r| vec![Value::Integer(r.id), Value::Integer(r.score)])
                    .collect(),
            }
        })
        .collect();
    Data { rows, scans }
}

fn build(seed: u64) -> Result<(Data, CrowdDb), String> {
    let data = generate(seed);
    let db = CrowdDb::new(CrowdDbConfig {
        seed,
        ..Default::default()
    });
    create_items(&db, data.rows.iter().map(Row::values))?;
    Ok((data, db))
}

#[derive(Default)]
struct ClientState {
    cells: Cells,
    ops: u64,
    layers: LayerCounts,
}

/// Compares returned rows with the expected ones and tallies the cells.
fn check_rows(
    client: &mut Client,
    state: &mut ClientState,
    outcome: &QueryOutcome,
    expected: &[Vec<Value>],
    what: &str,
) {
    let Some(rows) = outcome.rows() else {
        client.check(false, || format!("{what}: no rows returned"));
        return;
    };
    for (got, want) in rows.rows.iter().zip(expected) {
        for (g, w) in got.iter().zip(want) {
            state.cells.total += 1;
            state.cells.answered += u64::from(*g != Value::Null);
            state.cells.correct += u64::from(g == w);
        }
    }
    client.check(rows.rows == expected, || {
        format!("{what}: got {:?}, expected {:?}", rows.rows, expected)
    });
}

fn one_op(
    client: &mut Client,
    state: &mut ClientState,
    data: &Data,
    db: &CrowdDb,
    traced: Option<&Traced<'_>>,
) {
    let scan = client.rng.gen_bool(SCAN_SHARE);
    let (sql, expected, kind) = if scan {
        let s = &data.scans[client.rng.gen_range(0..SCAN_VARIANTS)];
        (s.sql.clone(), s.expected.clone(), "scan")
    } else {
        let row = &data.rows[client.rng.gen_range(0..ROWS)];
        (
            format!(
                "SELECT item_id, label, score, weight FROM {TABLE} WHERE item_id = {}",
                row.id
            ),
            vec![row.values()],
            "read",
        )
    };
    let trace = traced.map(|t| t.tracer.begin_op());
    let started = Instant::now();
    let result = if scan {
        drain(db.query(sql.as_str()).stream(), started).map(|(outcome, _)| outcome)
    } else {
        db.query(sql.as_str()).run()
    };
    if let Some(trace) = &trace {
        trace.engine_done(started);
    }
    match result {
        Ok(outcome) => {
            client.record(kind, started, None);
            check_rows(client, state, &outcome, &expected, kind);
            if let Some(rows) = outcome.rows() {
                state.layers.add_provenance(provenance_counts(rows));
            }
        }
        Err(error) => client.fail(error),
    }
    state.ops += 1;
    if let (Some(trace), Some(traced)) = (trace, traced) {
        if state.ops.is_multiple_of(LAYERS_EVERY) {
            match time_read_path(&trace, &sql, db, TABLE, traced.standalone) {
                Ok(rows) => {
                    state.layers.views += 1;
                    state.layers.view_rows += rows as u64;
                }
                Err(error) => client.check(false, || error),
            }
        }
        state.layers.op_done(db);
        trace.finish();
    }
}

fn measure(
    data: &Data,
    db: &CrowdDb,
    seed: u64,
    seconds: f64,
    traced: Option<&Traced<'_>>,
) -> (Phase, Vec<ClientState>) {
    let states = (0..CLIENTS).map(|_| ClientState::default()).collect();
    run_clients(seed, seconds, states, |client, state| {
        one_op(client, state, data, db, traced)
    })
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let ((data, db), setup_s) = repeated_setup(|| build(args.seed))?;
    if !args.trace {
        let (phase, states) = measure(&data, &db, args.seed, args.seconds, None);
        let mut cells = Cells::default();
        states.iter().for_each(|s| cells.add(s.cells));
        let mut detail = Vec::new();
        kind_percentiles(
            &mut detail,
            &phase,
            &["read"],
            "read_p50_ms",
            Some("read_p99_ms"),
            "read_samples",
        );
        kind_percentiles(
            &mut detail,
            &phase,
            &["scan"],
            "scan_p50_ms",
            None,
            "scan_samples",
        );
        phase_detail(&mut detail, &phase);
        return Ok(Outcome {
            attempted: phase.attempted(),
            failed: phase.failed,
            metrics: end_to_end_metrics(&phase, setup_s, cells),
            problems: phase.problems,
            detail,
        });
    }
    let (untraced, _) = measure(&data, &db, args.seed, args.seconds / 2.0, None);
    let traced = measure_traced(
        &db,
        TABLE,
        |traced| measure(&data, &db, args.seed, args.seconds / 2.0, Some(traced)),
        |state| std::mem::take(&mut state.layers),
    )?;
    Ok(traced_outcome(
        args,
        untraced,
        traced.phase,
        traced.counts,
        &traced.tracer,
        Vec::new(),
    ))
}
