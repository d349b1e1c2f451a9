//! Where a query runs.  A blocking `run()` executes on its caller's
//! thread and submits no scheduler job; a `stream()` is exactly one job.
//! Over the network a `run()` costs one job (the server's pump runs the
//! query itself) and a `stream()` two (the pump and the query's own job).
//! And a query that panics inside its crowd round fails with a typed error
//! on either entry point, leaking neither its admission slot nor its
//! in-flight claim.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use crowddb::prelude::*;
use crowdsim::{BatchCrowdRun, CrowdRun};

const COMEDY: &str = "SELECT item_id, is_comedy FROM movies WHERE is_comedy = true";
const POINT_READ: &str = "SELECT name FROM movies WHERE item_id = 1";

/// A simulated crowd whose first `panics` batch dispatches panic, as a
/// crowd-platform client with a bug would.
struct PanickingCrowd {
    inner: SimulatedCrowd,
    panics: Arc<AtomicUsize>,
}

impl CrowdSource for PanickingCrowd {
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
        let armed = self
            .panics
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
            .is_ok();
        if armed {
            panic!("the crowd platform client crashed");
        }
        self.inner.collect_batch(requests, seed)
    }

    fn describe(&self) -> String {
        self.inner.describe()
    }
}

/// A movie database on the direct-crowd strategy, whose crowd panics on
/// its first `panics` rounds.
fn database(panics: usize) -> Arc<CrowdDb> {
    let domain = SyntheticDomain::generate(&DomainConfig::movies().scaled(0.1), 777).unwrap();
    let space = build_space_for_domain(&domain, 10, 15).unwrap();
    let crowd = PanickingCrowd {
        inner: SimulatedCrowd::new(&domain, ExperimentRegime::TrustedWorkers, 23),
        panics: Arc::new(AtomicUsize::new(panics)),
    };
    let db = Arc::new(CrowdDb::new(CrowdDbConfig {
        strategy: ExpansionStrategy::DirectCrowd,
        ..Default::default()
    }));
    db.load_domain("movies", &domain, space, Box::new(crowd))
        .unwrap();
    db.register_attribute("movies", "is_comedy", "Comedy")
        .unwrap();
    db
}

fn jobs_submitted(db: &CrowdDb) -> u64 {
    db.scheduler_stats().jobs_submitted
}

/// Blocking queries submit no scheduler job — a point read, an UPDATE and
/// a cold expansion alike — while a stream is one job, a remote `run()`
/// one, and a remote `stream()` two.  The Prometheus scrape exports the
/// same count.
#[test]
fn scheduler_jobs_per_entry_point() {
    let db = database(0);

    let before = jobs_submitted(&db);
    let read = db.query(POINT_READ).run().unwrap();
    assert_eq!(read.rows().unwrap().rows.len(), 1);
    let update = db
        .query("UPDATE movies SET name = 'renamed' WHERE item_id = 1")
        .run()
        .unwrap();
    assert_eq!(update.rows_affected(), Some(1));
    let cold = db.query(COMEDY).run().unwrap();
    assert!(cold.crowd_cost > 0.0, "the expansion bought a crowd round");
    assert_eq!(jobs_submitted(&db), before, "blocking queries ran inline");

    let streamed = db.query(POINT_READ).stream().wait().unwrap();
    assert_eq!(streamed.rows().unwrap().rows.len(), 1);
    assert_eq!(jobs_submitted(&db), before + 1, "one job per stream");

    let scraped = parse_text(&db.metrics_snapshot().render()).unwrap();
    assert_eq!(
        scraped.value("crowddb_scheduler_jobs_submitted_total", &[]),
        Some(jobs_submitted(&db) as f64)
    );

    let server =
        CrowdDbServer::bind(Arc::clone(&db), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let client = RemoteCrowdDb::connect(server.local_addr()).unwrap();
    // The connection's reader and writer jobs exist once a ping has been
    // answered; count from there.
    client.ping().unwrap();

    let before = jobs_submitted(&db);
    client.query(POINT_READ).run().unwrap();
    assert_eq!(jobs_submitted(&db), before + 1, "a remote run is its pump");

    let before = jobs_submitted(&db);
    client.query(POINT_READ).stream().wait().unwrap();
    assert_eq!(
        jobs_submitted(&db),
        before + 2,
        "a remote stream is its pump plus the query's job"
    );
    client.close().unwrap();
}

/// A panic inside the crowd round reaches neither caller as an unwind:
/// `run()` and `stream().wait()` both fail with `Contention`.  The
/// tenant's slot is free afterwards (its cap of one would shed the next
/// query otherwise), the in-flight claim is released so the next query on
/// the same concept buys its round and completes, and stored reads still
/// answer.
#[test]
fn a_panicking_crowd_round_fails_the_query_and_leaks_nothing() {
    let db = database(2);
    db.set_limiter(Limiter::new(
        LimiterConfig::new().tenant("capped", TenantLimits::unlimited().max_concurrent(1)),
    ));
    let limiter = db.limiter().unwrap();

    let blocking = db.query(COMEDY).tenant("capped").run();
    assert!(
        matches!(blocking, Err(CrowdDbError::Contention(_))),
        "run() gave {blocking:?}"
    );
    assert_eq!(limiter.concurrent("capped"), 0);

    let streamed = db.query(COMEDY).tenant("capped").stream().wait();
    assert!(
        matches!(streamed, Err(CrowdDbError::Contention(_))),
        "stream().wait() gave {streamed:?}"
    );
    assert_eq!(limiter.concurrent("capped"), 0);

    let retried = db.query(COMEDY).tenant("capped").run().unwrap();
    assert!(retried.crowd_cost > 0.0, "the retry bought its own round");
    assert!(!retried.rows().unwrap().rows.is_empty());
    assert_eq!(limiter.stats().shed, 0);

    let stored = db.query("SELECT name FROM movies LIMIT 3").run().unwrap();
    assert_eq!(stored.rows().unwrap().rows.len(), 3);
}
