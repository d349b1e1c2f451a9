//! `remote_read`: two `RemoteCrowdDb` connections to an in-process
//! `CrowdDbServer` on loopback.
//!
//! The movie table has three crowd attributes materialized during set-up
//! (one by direct crowd-sourcing, two by perceptual-space extraction).
//! Every operation selects the same ~800-row id range projecting them, so
//! every response carries the same crowd-derived, extracted and missing
//! cells.  It is the only workload through the server, the wire codec and
//! the client, and the one whose answers are dominated by the provenance
//! join.  Every response must equal the in-process answer, rows and
//! provenance alike.

use std::sync::Arc;
use std::time::Instant;

use crowddb_client::RemoteCrowdDb;
use crowddb_core::{CrowdDb, CrowdDbConfig, ExpansionStrategy, RowSet, SimulatedCrowd};
use crowddb_server::{CrowdDbServer, ServerConfig};
use crowdsim::ExperimentRegime;
use datagen::SyntheticDomain;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use relational::Value;

use crate::fixtures::{movie_domain, MOVIES as TABLE};
use crate::harness::{
    end_to_end_metrics, kind_percentiles, metric, phase_detail, repeated_setup, run_clients, Args,
    Cells, Client, Outcome, Phase,
};
use crate::layers::{
    measure_traced, provenance_counts, time_read_path, traced_outcome, LayerCounts, Traced,
};
use crate::trace::SpanTotals;

const CLIENTS: usize = 2;
const RANGE_ROWS: i64 = 800;
/// The three materialized columns: name, concept index, strategy.
const ATTRIBUTES: [(&str, usize, bool); 3] = [
    ("is_direct", 0, false),
    ("is_extracted_a", 2, true),
    ("is_extracted_b", 4, true),
];
/// In the traced phase, every n-th operation of a client also runs the
/// same SQL in-process, pings, and times the relational layers.
const LAYERS_EVERY: u64 = 4;

struct Served {
    db: Arc<CrowdDb>,
    server: CrowdDbServer,
    sql: String,
    /// The in-process answer every remote response must equal.
    expected: RowSet,
    cells: Cells,
    space_build_s: f64,
}

/// Tallies the crowd-backed cells of the answer against the domain labels.
fn tally(domain: &SyntheticDomain, rows: &RowSet) -> Cells {
    let mut cells = Cells::default();
    for row in &rows.rows {
        let Some(Value::Integer(item)) = row.first() else {
            continue;
        };
        for (column, &(_, concept, _)) in ATTRIBUTES.iter().enumerate() {
            cells.total += 1;
            if let Some(Value::Boolean(label)) = row.get(column + 1) {
                cells.answered += 1;
                let truth = domain.labels_for_category(concept)[*item as usize];
                cells.correct += u64::from(*label == truth);
            }
        }
    }
    cells
}

fn setup(seed: u64) -> Result<Served, String> {
    let (domain, space, space_build_s) = movie_domain(seed)?;
    let crowd = SimulatedCrowd::new(&domain, ExperimentRegime::TrustedWorkers, seed ^ 0x5eed);
    let db = CrowdDb::new(CrowdDbConfig {
        seed,
        ..Default::default()
    });
    db.load_domain(TABLE, &domain, space, Box::new(crowd))
        .map_err(|e| e.to_string())?;
    let concepts = domain.category_names();
    let columns: Vec<&str> = ATTRIBUTES.iter().map(|a| a.0).collect();
    for &(column, concept, perceptual) in &ATTRIBUTES {
        let strategy = if perceptual {
            ExpansionStrategy::perceptual_default()
        } else {
            ExpansionStrategy::DirectCrowd
        };
        db.register_attribute_with_strategy(TABLE, column, &concepts[concept], strategy)
            .map_err(|e| e.to_string())?;
    }
    db.query(format!(
        "SELECT item_id, {} FROM {TABLE}",
        columns.join(", ")
    ))
    .run()
    .map_err(|e| format!("materializing: {e}"))?;
    let items = domain.items().len() as i64;
    let lo = StdRng::seed_from_u64(seed).gen_range(0..items - RANGE_ROWS);
    let sql = format!(
        "SELECT item_id, {} FROM {TABLE} WHERE item_id >= {lo} AND item_id < {}",
        columns.join(", "),
        lo + RANGE_ROWS
    );
    let expected = db
        .query(sql.as_str())
        .run()
        .map_err(|e| e.to_string())?
        .rows()
        .cloned()
        .ok_or("the range query returned no rows")?;
    let cells = tally(&domain, &expected);
    let db = Arc::new(db);
    let server = CrowdDbServer::bind(Arc::clone(&db), "127.0.0.1:0", ServerConfig::default())
        .map_err(|e| format!("bind: {e}"))?;
    Ok(Served {
        db,
        server,
        sql,
        expected,
        cells,
        space_build_s,
    })
}

struct ClientState {
    remote: RemoteCrowdDb,
    ops: u64,
    layers: LayerCounts,
}

fn one_op(
    client: &mut Client,
    state: &mut ClientState,
    served: &Served,
    traced: Option<&Traced<'_>>,
) {
    let trace = traced.map(|t| t.tracer.begin_op());
    let started = Instant::now();
    let run = || state.remote.query(served.sql.as_str()).run();
    let result = match &trace {
        Some(trace) => trace.time("wire.remote_query", run),
        None => run(),
    };
    let outcome = match result {
        Ok(outcome) => outcome,
        Err(error) => {
            client.fail(error);
            return;
        }
    };
    client.record("remote", started, None);
    let rows = outcome.rows();
    client.check(rows == Some(&served.expected), || {
        format!(
            "remote answer differs from the in-process one ({} rows vs {})",
            rows.map_or(0, |r| r.rows.len()),
            served.expected.rows.len()
        )
    });
    state.ops += 1;
    if let (Some(trace), Some(traced)) = (trace, traced) {
        if let Some(rows) = rows {
            state.layers.add_provenance(provenance_counts(rows));
        }
        if state.ops.is_multiple_of(LAYERS_EVERY) {
            if let Err(error) = trace.time("wire.ping", || state.remote.ping()) {
                client.fail(error);
            }
            let local_started = Instant::now();
            let local = served.db.query(served.sql.as_str()).run();
            trace.engine_done(local_started);
            client.check(
                local.as_ref().ok().and_then(|o| o.rows()) == Some(&served.expected),
                || "the in-process answer changed".into(),
            );
            match time_read_path(&trace, &served.sql, &served.db, TABLE, traced.standalone) {
                Ok(rows) => {
                    state.layers.views += 1;
                    state.layers.view_rows += rows as u64;
                }
                Err(error) => client.check(false, || error),
            }
        }
        state.layers.op_done(&served.db);
        trace.finish();
    }
}

fn measure(
    served: &Served,
    states: Vec<ClientState>,
    seed: u64,
    seconds: f64,
    traced: Option<&Traced<'_>>,
) -> (Phase, Vec<ClientState>) {
    run_clients(seed, seconds, states, |client, state| {
        one_op(client, state, served, traced)
    })
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let (mut served, setup_s) = repeated_setup(|| setup(args.seed))?;
    let addr = served.server.local_addr();
    let states = (0..CLIENTS)
        .map(|_| {
            Ok(ClientState {
                remote: RemoteCrowdDb::connect(addr).map_err(|e| format!("connect: {e}"))?,
                ops: 0,
                layers: LayerCounts::default(),
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    let outcome = if !args.trace {
        let (phase, states) = measure(&served, states, args.seed, args.seconds, None);
        close(states);
        let mut detail = Vec::new();
        kind_percentiles(
            &mut detail,
            &phase,
            &["remote"],
            "read_p50_ms",
            Some("read_p99_ms"),
            "read_samples",
        );
        detail.push(metric(
            "rows_per_response",
            served.expected.rows.len() as f64,
            "rows",
        ));
        phase_detail(&mut detail, &phase);
        Outcome {
            attempted: phase.attempted(),
            failed: phase.failed,
            metrics: end_to_end_metrics(&phase, setup_s, served.cells),
            problems: phase.problems,
            detail,
        }
    } else {
        let (untraced, states) = measure(&served, states, args.seed, args.seconds / 2.0, None);
        let traced = measure_traced(
            &served.db,
            TABLE,
            |traced| measure(&served, states, args.seed, args.seconds / 2.0, Some(traced)),
            |state| std::mem::take(&mut state.layers),
        )?;
        close(traced.states);
        let totals = SpanTotals::of(&traced.tracer.spans());
        let remote_us = totals.mean_us("wire.remote_query");
        let local_us = totals.mean_us("engine.query");
        let detail = vec![
            metric("wire.ping_us", totals.mean_us("wire.ping"), "us"),
            metric("engine.local_query_us", local_us, "us"),
            metric("wire.remote_query_us", remote_us, "us"),
            metric("wire.overhead_us", remote_us - local_us, "us"),
            metric("perceptual.space_build_s", served.space_build_s, "s"),
        ];
        traced_outcome(
            args,
            untraced,
            traced.phase,
            traced.counts,
            &traced.tracer,
            detail,
        )
    };
    served.server.shutdown();
    Ok(outcome)
}

fn close(states: Vec<ClientState>) {
    for state in states {
        if let Err(error) = state.remote.close() {
            eprintln!("closing a connection: {error}");
        }
    }
}
