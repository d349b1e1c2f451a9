//! `write_mix`: two clients writing one persistent 16,384-row `Hash{4}`
//! table under the engine's own fsync-per-commit policy.
//!
//! 40% of the operations INSERT one row with a fresh id, 30% UPDATE a row
//! by id and 30% SELECT a row by id.  Each client checkpoints one
//! partition every `CHECKPOINT_EVERY` of its commits (recorded as a
//! `checkpoint` operation), and deletes its
//! freshly inserted rows in one statement every `TRIM_EVERY` inserts so the
//! table, and with it the cost of an UPDATE or SELECT, stays the same size
//! however fast the inserts run.  After the timed phase the database is
//! reopened: recovery is timed, and every acknowledged commit must be
//! there and nothing else.  It is the only workload that exercises the
//! WAL, checkpoints and recovery, and it puts writes beside the reads of
//! `read_mix` on the same partitioned layout.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use crowddb_core::{CheckpointOptions, CrowdDb, CrowdDbConfig};
use rand::Rng;
use relational::Value;

use crate::fixtures::{create_items, item_row, ITEMS as TABLE, ITEM_PARTITIONS as PARTITIONS};
use crate::harness::{
    end_to_end_metrics, kind_percentiles, median, metric, phase_detail, repeated_setup,
    run_clients, Args, Cells, Client, Metric, Outcome, Phase,
};
use crate::layers::{measure_traced, time_read_path, traced_outcome, LayerCounts, Traced};
use crate::trace::{OpTrace, SpanTotals};

const ROWS: i64 = 16_384;
const CLIENTS: usize = 2;
/// INSERTs are under half of all operations, so the median operation is
/// an UPDATE or SELECT: an INSERT's fsync follows the host's disk, which
/// slowed by half for minutes at a time.
const INSERT_SHARE: f64 = 0.4;
const UPDATE_SHARE: f64 = 0.3;
/// Commits of one client between two of its partition checkpoints.
const CHECKPOINT_EVERY: u64 = 200;
/// Inserts of one client between two deletes of its inserted rows.
const TRIM_EVERY: i64 = 256;
/// Reopens timed after the run; `recovery_ms` is their median.
const RECOVERIES: usize = 5;
/// Fresh ids of client `c` start at `(c + 1) * ID_BLOCK`, far above the
/// preloaded ids, so a client's deletes never touch another's rows.
const ID_BLOCK: i64 = 1 << 40;

/// A weight that prints and parses back exactly.  It is written to SQL
/// with `{:?}`, which keeps the decimal point: an integer literal would be
/// stored as an integer in the float column.
fn weight(n: i64) -> f64 {
    (n % 4096) as f64 / 8.0
}

fn preloaded(id: i64) -> Vec<Value> {
    item_row(id, format!("row-{id}"), id * 7 % ROWS, weight(id))
}

fn open(dir: &Path, seed: u64) -> Result<CrowdDb, String> {
    CrowdDb::builder()
        .config(CrowdDbConfig {
            seed,
            ..Default::default()
        })
        .persistent(dir)
        .open()
        .map_err(|e| format!("open {}: {e}", dir.display()))
}

fn build(dir: &Path, seed: u64) -> Result<CrowdDb, String> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let db = open(dir, seed)?;
    create_items(&db, (0..ROWS).map(preloaded))?;
    db.checkpoint_full().map_err(|e| e.to_string())?;
    Ok(db)
}

/// What one client has committed: its rows by id.
struct ClientState {
    id: usize,
    rows: BTreeMap<i64, Vec<Value>>,
    /// Preloaded ids this client updates and reads.
    owned: Vec<i64>,
    next_fresh: i64,
    untrimmed_from: i64,
    commits: u64,
    checkpoint_turn: usize,
    cells: Cells,
    /// Counted in the traced phase only.
    layers: LayerCounts,
}

impl ClientState {
    fn new(id: usize) -> ClientState {
        let owned: Vec<i64> = (0..ROWS)
            .filter(|k| k % CLIENTS as i64 == id as i64)
            .collect();
        let rows = owned.iter().map(|&k| (k, preloaded(k))).collect();
        let base = (id as i64 + 1) * ID_BLOCK;
        ClientState {
            id,
            rows,
            owned,
            next_fresh: base,
            untrimmed_from: base,
            commits: 0,
            checkpoint_turn: 0,
            cells: Cells::default(),
            layers: LayerCounts::default(),
        }
    }
}

fn one_op(client: &mut Client, state: &mut ClientState, db: &CrowdDb, traced: Option<&Traced<'_>>) {
    let draw: f64 = client.rng.gen();
    let trim = state.next_fresh - state.untrimmed_from >= TRIM_EVERY;
    let (kind, sql, expect) = if trim {
        let (lo, hi) = (state.untrimmed_from, state.next_fresh - 1);
        (
            "trim",
            format!("DELETE FROM {TABLE} WHERE item_id >= {lo} AND item_id <= {hi}"),
            None,
        )
    } else if draw < INSERT_SHARE {
        let id = state.next_fresh;
        let values = item_row(id, format!("w{}-{id}", state.id), id % 1000, weight(id));
        (
            "insert",
            format!(
                "INSERT INTO {TABLE} (item_id, label, score, weight) VALUES ({id}, 'w{}-{id}', {}, {:?})",
                state.id,
                id % 1000,
                weight(id)
            ),
            Some(values),
        )
    } else {
        let k = state.owned[client.rng.gen_range(0..state.owned.len())];
        if draw < INSERT_SHARE + UPDATE_SHARE {
            let score: i64 = client.rng.gen_range(0..1_000_000i64);
            let mut values = state.rows[&k].clone();
            values[2] = Value::Integer(score);
            (
                "update",
                format!("UPDATE {TABLE} SET score = {score} WHERE item_id = {k}"),
                Some(values),
            )
        } else {
            (
                "select",
                format!("SELECT item_id, label, score, weight FROM {TABLE} WHERE item_id = {k}"),
                Some(state.rows[&k].clone()),
            )
        }
    };
    let trace = traced.map(|t| t.tracer.begin_op());
    let started = Instant::now();
    let result = db.query(sql.as_str()).run();
    if let Some(trace) = &trace {
        trace.engine_done(started);
    }
    let outcome = match result {
        Ok(outcome) => outcome,
        Err(error) => {
            client.fail(error);
            return;
        }
    };
    client.record(kind, started, None);
    match (kind, expect) {
        ("select", Some(values)) => {
            let got = outcome.rows().map(|r| r.rows.clone()).unwrap_or_default();
            if let Some(first) = got.first() {
                for (g, w) in first.iter().zip(&values) {
                    state.cells.total += 1;
                    state.cells.answered += u64::from(*g != Value::Null);
                    state.cells.correct += u64::from(g == w);
                }
            }
            client.check(got == [values.clone()], || {
                format!("{sql}: got {got:?}, expected {values:?}")
            });
        }
        ("trim", _) => {
            let n = (state.next_fresh - state.untrimmed_from) as usize;
            client.check(outcome.rows_affected() == Some(n), || {
                format!(
                    "{sql}: {:?} rows deleted, expected {n}",
                    outcome.rows_affected()
                )
            });
            state.rows.retain(|&id, _| id < state.untrimmed_from);
            state.untrimmed_from = state.next_fresh;
        }
        (_, Some(values)) => {
            client.check(outcome.rows_affected() == Some(1), || {
                format!(
                    "{sql}: {:?} rows affected, expected 1",
                    outcome.rows_affected()
                )
            });
            let id = match values[0] {
                Value::Integer(id) => id,
                _ => unreachable!("every row starts with its integer id"),
            };
            if kind == "insert" {
                state.next_fresh += 1;
            }
            state.rows.insert(id, values);
        }
        _ => {}
    }
    if kind != "select" {
        state.commits += 1;
        if state.commits.is_multiple_of(CHECKPOINT_EVERY) {
            checkpoint(client, state, db, trace.as_ref());
        }
    }
    if let (Some(trace), Some(traced)) = (trace, traced) {
        state.layers.commits += u64::from(kind != "select");
        if kind == "select" {
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

/// Checkpoints the client's next partition, recorded as an operation of
/// its own: the client waits for it as for its commits.  Each client
/// compacts its own half of the partitions in turn.
fn checkpoint(
    client: &mut Client,
    state: &mut ClientState,
    db: &CrowdDb,
    trace: Option<&OpTrace<'_>>,
) {
    let k = (state.id * PARTITIONS / CLIENTS + state.checkpoint_turn) % PARTITIONS;
    state.checkpoint_turn = (state.checkpoint_turn + 1) % (PARTITIONS / CLIENTS);
    let started = Instant::now();
    let call = || db.checkpoint_with(CheckpointOptions::partition(TABLE, k));
    let report = match trace {
        Some(trace) => trace.time("storage.checkpoint", call),
        None => call(),
    };
    match report {
        Ok(report) => {
            client.record("checkpoint", started, None);
            if trace.is_some() {
                state.layers.checkpoints += 1;
                state.layers.checkpoint_reclaimed += report.bytes_reclaimed;
            }
        }
        Err(error) => client.fail(error),
    }
}

fn measure(
    db: &CrowdDb,
    states: Vec<ClientState>,
    seed: u64,
    seconds: f64,
    traced: Option<&Traced<'_>>,
) -> (Phase, Vec<ClientState>) {
    run_clients(seed, seconds, states, |client, state| {
        one_op(client, state, db, traced)
    })
}

/// Reopens the directory `RECOVERIES` times; the first reopened database
/// must hold exactly the committed rows.  Returns the median reopen time
/// in milliseconds.
fn recover(
    dir: &Path,
    seed: u64,
    states: &[ClientState],
    problems: &mut Vec<String>,
) -> Result<f64, String> {
    let expected: Vec<Vec<Value>> = {
        let mut all: BTreeMap<i64, &Vec<Value>> = BTreeMap::new();
        for state in states {
            all.extend(state.rows.iter().map(|(&id, values)| (id, values)));
        }
        all.into_values().cloned().collect()
    };
    let mut times = Vec::with_capacity(RECOVERIES);
    for attempt in 0..RECOVERIES {
        let started = Instant::now();
        let db = open(dir, seed)?;
        times.push(started.elapsed().as_secs_f64() * 1e3);
        if attempt == 0 {
            let outcome = db
                .query(format!("SELECT item_id, label, score, weight FROM {TABLE}"))
                .run()
                .map_err(|e| format!("scan after reopen: {e}"))?;
            let mut rows = outcome.rows().map(|r| r.rows.clone()).unwrap_or_default();
            rows.sort_by_key(|r| match r.first() {
                Some(Value::Integer(id)) => *id,
                _ => i64::MIN,
            });
            if rows != expected {
                let differing: Vec<_> = expected
                    .iter()
                    .zip(&rows)
                    .filter(|(want, got)| want != got)
                    .collect();
                problems.push(format!(
                    "after reopen: {} rows, expected {}; {} differ, first {:?}",
                    rows.len(),
                    expected.len(),
                    differing.len(),
                    differing.first()
                ));
            }
        }
    }
    Ok(median(&times))
}

fn storage_totals(db: &CrowdDb) -> (u64, u64) {
    let stats = db.storage_stats();
    let snapshot = stats.tables.iter().map(|t| t.snapshot_bytes()).sum();
    (stats.wal_bytes_total(), snapshot)
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let dir: PathBuf = Path::new(crate::OUT_DIR).join(format!("write_mix-{}", std::process::id()));
    let result = run_in(args, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    result
}

fn run_in(args: &Args, dir: &Path) -> Result<Outcome, String> {
    let (db, setup_s) = repeated_setup(|| build(dir, args.seed))?;
    let states: Vec<ClientState> = (0..CLIENTS).map(ClientState::new).collect();
    let mut detail: Vec<Metric> = Vec::new();
    let outcome = if !args.trace {
        let (phase, states) = measure(&db, states, args.seed, args.seconds, None);
        drop(db);
        let mut problems = phase.problems.clone();
        let recovery_ms = recover(dir, args.seed, &states, &mut problems)?;
        let mut cells = Cells::default();
        states.iter().for_each(|s| cells.add(s.cells));
        kind_percentiles(
            &mut detail,
            &phase,
            &["select"],
            "read_p50_ms",
            Some("read_p99_ms"),
            "read_samples",
        );
        kind_percentiles(
            &mut detail,
            &phase,
            &["insert", "update", "trim"],
            "commit_p50_ms",
            Some("commit_p99_ms"),
            "commit_samples",
        );
        kind_percentiles(
            &mut detail,
            &phase,
            &["insert"],
            "insert_p50_ms",
            None,
            "insert_samples",
        );
        kind_percentiles(
            &mut detail,
            &phase,
            &["update"],
            "update_p50_ms",
            None,
            "update_samples",
        );
        kind_percentiles(
            &mut detail,
            &phase,
            &["checkpoint"],
            "checkpoint_p50_ms",
            None,
            "checkpoint_samples",
        );
        detail.push(metric("recovery_ms", recovery_ms, "ms"));
        phase_detail(&mut detail, &phase);
        Outcome {
            attempted: phase.attempted(),
            failed: phase.failed,
            metrics: end_to_end_metrics(&phase, setup_s, cells),
            problems,
            detail,
        }
    } else {
        let (untraced, states) = measure(&db, states, args.seed, args.seconds / 2.0, None);
        let (wal_before, _) = storage_totals(&db);
        let mut traced = measure_traced(
            &db,
            TABLE,
            |traced| measure(&db, states, args.seed, args.seconds / 2.0, Some(traced)),
            |state| std::mem::take(&mut state.layers),
        )?;
        let (wal_after, snapshot_bytes) = storage_totals(&db);
        drop(db);
        let counts = &mut traced.counts;
        // Bytes appended to the WAL: what the checkpoints reclaimed plus
        // the growth of the live segments.
        counts.wal_bytes = (counts.checkpoint_reclaimed + wal_after).saturating_sub(wal_before);
        counts.snapshot_bytes = snapshot_bytes;
        let mut problems = Vec::new();
        recover(dir, args.seed, &traced.states, &mut problems)?;
        detail.push(metric(
            "storage.checkpoint_ms",
            SpanTotals::of(&traced.tracer.spans()).mean_us("storage.checkpoint") / 1e3,
            "ms",
        ));
        let mut outcome = traced_outcome(
            args,
            untraced,
            traced.phase,
            traced.counts,
            &traced.tracer,
            detail,
        );
        outcome.problems.extend(problems);
        outcome
    };
    Ok(outcome)
}
