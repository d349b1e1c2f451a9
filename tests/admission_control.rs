//! End-to-end tests of admission control and the observability surface
//! over the network service layer: per-tenant load shedding at the
//! scheduler mouth, graceful degradation with typed provenance, connection
//! caps at the handshake, and the stats / metrics / monitor wire requests.
//!
//! The headline property: soft pressure **degrades** (the query still
//! succeeds, carrying an [`ExpansionStage::Degraded`] mark in its
//! expansion reports), only the hard concurrency cap **sheds** (the typed
//! [`CrowdDbError::Overloaded`]), and an unthrottled bystander on the same
//! server never notices either.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use crowddb::prelude::*;
use crowddb_core::expansion::ExpansionStage;
use crowdsim::{BatchCrowdRun, CrowdRun};

/// A gate the test holds closed while queries pile up behind the crowd
/// dispatch, making overload deterministic instead of timing-based.
#[derive(Default)]
struct Gate {
    open: Mutex<bool>,
    signal: Condvar,
}

impl Gate {
    fn open(&self) {
        *self.open.lock().unwrap() = true;
        self.signal.notify_all();
    }

    fn wait_open(&self) {
        let mut open = self.open.lock().unwrap();
        while !*open {
            open = self.signal.wait(open).unwrap();
        }
    }
}

/// Wraps a [`SimulatedCrowd`], counting rounds, optionally parking each
/// dispatch on a [`Gate`].
struct InstrumentedCrowd {
    inner: SimulatedCrowd,
    batch_calls: Arc<AtomicUsize>,
    gate: Option<Arc<Gate>>,
}

impl CrowdSource for InstrumentedCrowd {
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
        if let Some(gate) = &self.gate {
            gate.wait_open();
        }
        self.inner.collect_batch(requests, seed)
    }

    fn describe(&self) -> String {
        self.inner.describe()
    }
}

/// The tenant table every test serves under: `meter` is dollar-rate
/// limited (a one-hour window no test outlives), `flood` has a hard
/// concurrency cap of 1, `solo` may hold one connection.  The `default`
/// tenant (tokenless clients) is configured nowhere — an unthrottled
/// bystander.
fn limiter() -> Arc<Limiter> {
    Limiter::new(
        LimiterConfig::new()
            .tenant(
                "meter",
                TenantLimits::unlimited().dollar_rate(0.01, Duration::from_secs(3600)),
            )
            .tenant("flood", TenantLimits::unlimited().max_concurrent(1))
            .tenant("solo", TenantLimits::unlimited().max_connections(1)),
    )
}

struct Setup {
    db: Arc<CrowdDb>,
    server: CrowdDbServer,
    batch_calls: Arc<AtomicUsize>,
}

impl Setup {
    fn addr(&self) -> std::net::SocketAddr {
        self.server.local_addr()
    }
}

fn serve(gate: Option<Arc<Gate>>) -> Setup {
    let domain = SyntheticDomain::generate(&DomainConfig::movies().scaled(0.1), 777).unwrap();
    let space = build_space_for_domain(&domain, 10, 15).unwrap();
    let batch_calls = Arc::new(AtomicUsize::new(0));
    let crowd = InstrumentedCrowd {
        inner: SimulatedCrowd::new(&domain, ExperimentRegime::TrustedWorkers, 23),
        batch_calls: batch_calls.clone(),
        gate,
    };
    let db = Arc::new(CrowdDb::new(CrowdDbConfig {
        strategy: ExpansionStrategy::DirectCrowd,
        ..Default::default()
    }));
    db.load_domain("movies", &domain, space, Box::new(crowd))
        .unwrap();
    db.register_attribute("movies", "is_comedy", "Comedy")
        .unwrap();
    db.register_attribute("movies", "is_horror", "Horror")
        .unwrap();
    db.set_limiter(limiter());
    let server =
        CrowdDbServer::bind(Arc::clone(&db), "127.0.0.1:0", ServerConfig::default()).unwrap();
    Setup {
        db,
        server,
        batch_calls,
    }
}

fn connect_as(addr: std::net::SocketAddr, tenant: &str) -> RemoteCrowdDb {
    RemoteCrowdDb::connect_with(
        addr,
        ClientConfig {
            auth_token: Some(tenant.into()),
        },
    )
    .unwrap()
}

const COMEDY: &str = "SELECT item_id, is_comedy FROM movies WHERE is_comedy = true";
const HORROR: &str = "SELECT item_id, is_horror FROM movies WHERE is_horror = true";

/// Soft pressure degrades with provenance, never errors: once the `meter`
/// tenant's first query blows its dollar window, its next query runs at
/// `BestEffort` with a zero budget cap — succeeding from stored cells,
/// dispatching no crowd round, and carrying a typed
/// [`ExpansionStage::Degraded`] mark naming the dollar window.  An
/// unthrottled bystander on the same server still expands at full
/// fidelity.
#[test]
fn over_rate_tenant_degrades_with_provenance_bystander_unaffected() {
    let s = serve(None);
    let meter = connect_as(s.addr(), "meter");

    // First query: the window is empty, full fidelity, real crowd spend.
    let first = meter.query(COMEDY).run().unwrap();
    assert!(first.crowd_cost > 0.01, "cost {}", first.crowd_cost);
    assert_eq!(s.batch_calls.load(Ordering::SeqCst), 1);
    assert!(first.reports.iter().all(|r| !r
        .stages
        .iter()
        .any(|st| matches!(st, ExpansionStage::Degraded { .. }))));

    // Second query: the window is blown.  Degraded, not rejected.
    let second = meter.query(HORROR).run().unwrap();
    assert_eq!(second.policy.mode, ExpansionMode::BestEffort);
    assert_eq!(second.crowd_cost, 0.0);
    assert_eq!(s.batch_calls.load(Ordering::SeqCst), 1, "no second round");
    let report = &second.reports[0];
    match &report.stages[0] {
        ExpansionStage::Degraded { from, to, reason } => {
            assert_eq!(*from, ExpansionMode::Full);
            assert_eq!(*to, ExpansionMode::BestEffort);
            assert_eq!(*reason, DegradeReason::DollarRateExceeded);
        }
        other => panic!("expected a Degraded mark first, got {other:?}"),
    }

    // The tokenless bystander is unthrottled: same server, same moment,
    // full-fidelity expansion with its own crowd round.
    let bystander = RemoteCrowdDb::connect(s.addr()).unwrap();
    let outcome = bystander.query(HORROR).run().unwrap();
    assert_eq!(outcome.policy.mode, ExpansionMode::Full);
    assert!(outcome.crowd_cost > 0.0);
    assert_eq!(s.batch_calls.load(Ordering::SeqCst), 2);
    assert!(outcome.reports.iter().all(|r| !r
        .stages
        .iter()
        .any(|st| matches!(st, ExpansionStage::Degraded { .. }))));

    let stats = s.db.limiter().unwrap().stats();
    assert_eq!(stats.degraded, 1);
    assert_eq!(stats.shed, 0);

    bystander.close().unwrap();
    meter.close().unwrap();
}

/// Only the hard cap sheds: with the `flood` tenant's single slot pinned
/// inside a gated crowd round, its second query is rejected with the typed
/// [`CrowdDbError::Overloaded`] — round-tripped over the wire, not
/// stringified — while a bystander's stored-only query sails through.
/// Releasing the slot reopens admission.
#[test]
fn hard_cap_sheds_with_typed_overloaded_error() {
    let gate = Arc::new(Gate::default());
    let s = serve(Some(gate.clone()));
    let flood = connect_as(s.addr(), "flood");

    // Pin the tenant's one slot: the query holds its ticket while the
    // crowd round is parked on the gate.
    let pinned = flood.query(COMEDY).stream();
    let deadline = Instant::now() + Duration::from_secs(30);
    while s.batch_calls.load(Ordering::SeqCst) == 0 {
        assert!(Instant::now() < deadline, "round never started");
        std::thread::sleep(Duration::from_millis(2));
    }

    // The same tenant's next query is shed with the typed error.
    let err = flood.query(HORROR).run().unwrap_err();
    match &err {
        CrowdDbError::Overloaded { tenant, reason } => {
            assert_eq!(tenant, "flood");
            assert!(reason.contains("hard cap 1"), "reason: {reason}");
        }
        other => panic!("expected Overloaded, got {other:?}"),
    }

    // The bystander is untouched while the flood tenant is at cap: a
    // stored-only query needs no crowd and completes immediately.
    let bystander = RemoteCrowdDb::connect(s.addr()).unwrap();
    let rows = bystander
        .query("SELECT name FROM movies LIMIT 3")
        .run()
        .unwrap();
    assert!(!rows.rows().unwrap().rows.is_empty());
    bystander.close().unwrap();

    // Release the slot; admission reopens and the pinned query finishes.
    gate.open();
    let outcome = pinned.wait().unwrap();
    assert!(outcome.crowd_cost > 0.0);
    // The ticket is released before the final event is sent.
    let limiter = s.db.limiter().unwrap();
    assert_eq!(limiter.concurrent("flood"), 0);
    let follow_up = flood.query(HORROR).run().unwrap();
    assert_eq!(follow_up.policy.mode, ExpansionMode::Full);

    let stats = s.db.limiter().unwrap().stats();
    assert_eq!(stats.shed, 1);
    flood.close().unwrap();
}

/// A query's slot is free by the time its caller sees the outcome, on
/// both entry points: a tenant at a hard cap of one that issues each query
/// the moment the previous one answered is never shed.
#[test]
fn back_to_back_queries_at_cap_one_are_never_shed() {
    let s = serve(None);
    const PAIRS: usize = 2000;
    const READ: &str = "SELECT name FROM movies WHERE item_id = 1";
    let shed = |result: Result<QueryOutcome, CrowdDbError>| match result {
        Ok(_) => 0,
        Err(CrowdDbError::Overloaded { .. }) => 1,
        Err(other) => panic!("unexpected error {other:?}"),
    };
    let (mut shed_run, mut shed_stream) = (0, 0);
    for _ in 0..PAIRS {
        shed_run += shed(s.db.query(READ).tenant("flood").run());
        shed_stream += shed(s.db.query(READ).tenant("flood").stream().wait());
    }
    assert_eq!(
        (shed_run, shed_stream),
        (0, 0),
        "queries shed (run, stream) out of {PAIRS} pairs"
    );
    assert_eq!(s.db.limiter().unwrap().stats().shed, 0);
}

/// Connection caps enforce at the handshake: the `solo` tenant's second
/// concurrent connection is rejected with the limiter's reason, and the
/// slot frees on disconnect.
#[test]
fn connection_cap_rejects_second_handshake_until_release() {
    let s = serve(None);

    let first = connect_as(s.addr(), "solo");
    let err = RemoteCrowdDb::connect_with(
        s.addr(),
        ClientConfig {
            auth_token: Some("solo".into()),
        },
    )
    .unwrap_err();
    assert!(
        matches!(err, CrowdDbError::Protocol { ref message, .. } if message.contains("hard cap 1")),
        "wrong error: {err:?}"
    );

    // An unknown token is still an auth failure, not a tenant.
    let err = RemoteCrowdDb::connect_with(
        s.addr(),
        ClientConfig {
            auth_token: Some("intruder".into()),
        },
    )
    .unwrap_err();
    assert!(
        matches!(err, CrowdDbError::Protocol { ref message, .. } if message.contains("auth token")),
        "wrong error: {err:?}"
    );

    first.close().unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match RemoteCrowdDb::connect_with(
            s.addr(),
            ClientConfig {
                auth_token: Some("solo".into()),
            },
        ) {
            Ok(client) => {
                client.ping().unwrap();
                client.close().unwrap();
                break;
            }
            // The server may still be tearing the first connection down.
            Err(_) => {
                assert!(Instant::now() < deadline, "slot never released");
                std::thread::sleep(Duration::from_millis(2));
            }
        }
    }
}

/// The observability surface round-trips the wire: server counters via
/// `server_stats()`, the Prometheus scrape via `metrics()` (parsed by the
/// strict parser, ≥ 10 engine families, values matching what the queries
/// just did), and the live monitor tree via `monitor()` (this very
/// session's node, tagged with its tenant).
#[test]
fn stats_metrics_and_monitor_round_trip_remotely() {
    let s = serve(None);
    let client = connect_as(s.addr(), "meter");

    let outcome = client.query(COMEDY).run().unwrap();
    assert!(outcome.crowd_cost > 0.0);

    // Typed server counters.
    let stats = client.server_stats().unwrap();
    assert_eq!(stats.queries_started, 1);
    assert_eq!(stats.queries_completed, 1);
    assert_eq!(stats.connections_active, 1);

    // The Prometheus scrape parses strictly and carries the engine's
    // catalog.
    let text = client.metrics().unwrap();
    let parsed = parse_text(&text).unwrap();
    assert!(
        parsed.family_count() >= 10,
        "only {} families",
        parsed.family_count()
    );
    assert_eq!(
        parsed.value("crowddb_queries_completed_total", &[("mode", "full")]),
        Some(1.0)
    );
    assert_eq!(
        parsed.value("crowddb_server_queries_completed_total", &[]),
        Some(1.0)
    );
    let spent = parsed
        .value("crowddb_crowd_cost_dollars_total", &[])
        .unwrap();
    assert!((spent - outcome.crowd_cost).abs() < 1e-9);

    // The monitor tree shows this very connection, tagged with its
    // tenant.
    let tree = client.monitor().unwrap();
    assert_eq!(tree.name, "crowddb");
    let server_node = tree.find("server").expect("server branch");
    let session = server_node
        .children
        .iter()
        .find(|c| c.name.starts_with("session-"))
        .expect("live session node");
    assert_eq!(session.value("tenant"), Some("meter"));

    client.close().unwrap();
}
