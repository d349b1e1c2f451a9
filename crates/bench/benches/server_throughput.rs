//! Criterion bench: the network service layer under concurrent clients —
//! cold coalesced expansion, warm cache-served queries, and ping
//! round-trips, all over real TCP sockets.
//!
//! The service layer's headline is that N clients racing the same
//! expansion buy **one** crowd round.  Besides the criterion timings, the
//! run emits `BENCH_server.json` at the workspace root whose deterministic
//! fields — client count, item count, metered crowd rounds, cold and warm
//! dollars, the scheduler jobs one warm remote `run()` submits (1: the
//! server's pump runs the query itself), and the frame bytes the server
//! writes for one (its single `Completed` frame) — are guarded by
//! `check_bench_regression` against
//! `ci/BENCH_server.baseline.json`.  The wall-clock fields (`*_ms`,
//! `*_per_s`) are narration only.
//!
//! Run with `cargo bench -p bench --bench server_throughput`; pass
//! `-- --test` for the CI smoke mode (one sample per benchmark, same
//! JSON).

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use criterion::Criterion;
use crowddb_client::RemoteCrowdDb;
use crowddb_core::{
    build_space_for_domain, AttributeRequest, CrowdDb, CrowdDbConfig, CrowdDbError, CrowdSource,
    ExpansionStrategy, SimulatedCrowd,
};
use crowddb_server::{CrowdDbServer, ServerConfig};
use crowdsim::{BatchCrowdRun, CrowdRun, ExperimentRegime};
use datagen::{DomainConfig, SyntheticDomain};

const QUERY: &str = "SELECT item_id, is_comedy FROM movies WHERE is_comedy = true";
const CLIENTS: usize = 4;
/// Warm remote `run()`s the scheduler-job and frame-byte counts are
/// averaged over.
const WARM_RUNS: usize = 20;

/// Wraps the simulated crowd, metering rounds and dollars the way the
/// crowdsourcing platform's own invoice would.
struct MeteredCrowd {
    inner: SimulatedCrowd,
    rounds: Arc<AtomicUsize>,
    dollars: Arc<Mutex<f64>>,
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
        self.rounds.fetch_add(1, Ordering::SeqCst);
        let batch = self.inner.collect_batch(requests, seed)?;
        *self.dollars.lock().unwrap() += batch.total_cost;
        Ok(batch)
    }

    fn describe(&self) -> String {
        self.inner.describe()
    }
}

struct Served {
    db: Arc<CrowdDb>,
    server: CrowdDbServer,
    items: usize,
    rounds: Arc<AtomicUsize>,
    dollars: Arc<Mutex<f64>>,
}

fn serve() -> Served {
    let domain = SyntheticDomain::generate(&DomainConfig::movies().scaled(0.2), 91).unwrap();
    let space = build_space_for_domain(&domain, 8, 12).unwrap();
    let rounds = Arc::new(AtomicUsize::new(0));
    let dollars = Arc::new(Mutex::new(0.0));
    let crowd = MeteredCrowd {
        inner: SimulatedCrowd::new(&domain, ExperimentRegime::TrustedWorkers, 29),
        rounds: rounds.clone(),
        dollars: dollars.clone(),
    };
    let items = domain.items().len();
    let db = Arc::new(CrowdDb::new(CrowdDbConfig {
        strategy: ExpansionStrategy::DirectCrowd,
        ..Default::default()
    }));
    db.load_domain("movies", &domain, space, Box::new(crowd))
        .unwrap();
    db.register_attribute("movies", "is_comedy", "Comedy")
        .unwrap();
    let server =
        CrowdDbServer::bind(Arc::clone(&db), "127.0.0.1:0", ServerConfig::default()).unwrap();
    Served {
        db,
        server,
        items,
        rounds,
        dollars,
    }
}

struct ServerRun {
    items: usize,
    cold_wall_ms: f64,
    cold_cost_dollars: f64,
    crowd_rounds: usize,
    warm_wall_ms: f64,
    warm_cost_dollars: f64,
    jobs_per_warm_query: f64,
    ping_per_s: f64,
}

/// One full service-layer pass against a fresh server: N concurrent cold
/// clients (one coalesced round), then a warm rerun (cache, free), then
/// more warm reruns on the same connection counting the scheduler jobs
/// each submits, then a burst of pings for the frame round-trip rate.
fn measure() -> ServerRun {
    let s = serve();
    let addr = s.server.local_addr();

    let start = Instant::now();
    let cold_cost_dollars: f64 = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                scope.spawn(move || {
                    let client = RemoteCrowdDb::connect(addr).unwrap();
                    let outcome = client.query(QUERY).run().unwrap();
                    client.close().unwrap();
                    outcome.crowd_cost
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).sum()
    });
    let cold_wall_ms = start.elapsed().as_secs_f64() * 1e3;
    let crowd_rounds = s.rounds.load(Ordering::SeqCst);
    let invoiced = *s.dollars.lock().unwrap();
    assert!(
        (cold_cost_dollars - invoiced).abs() < 1e-9,
        "owner-pays accounting drifted: clients saw ${cold_cost_dollars}, crowd invoiced ${invoiced}"
    );

    let client = RemoteCrowdDb::connect(addr).unwrap();
    let start = Instant::now();
    let warm = client.query(QUERY).run().unwrap();
    let warm_wall_ms = start.elapsed().as_secs_f64() * 1e3;

    let jobs_before = s.db.scheduler_stats().jobs_submitted;
    for _ in 0..WARM_RUNS {
        client.query(QUERY).run().unwrap();
    }
    let jobs = s.db.scheduler_stats().jobs_submitted - jobs_before;
    let jobs_per_warm_query = jobs as f64 / WARM_RUNS as f64;

    const PINGS: usize = 200;
    let start = Instant::now();
    for _ in 0..PINGS {
        client.ping().unwrap();
    }
    let ping_per_s = PINGS as f64 / start.elapsed().as_secs_f64();
    client.close().unwrap();

    ServerRun {
        items: s.items,
        cold_wall_ms,
        cold_cost_dollars,
        crowd_rounds,
        warm_wall_ms,
        warm_cost_dollars: warm.crowd_cost,
        jobs_per_warm_query,
        ping_per_s,
    }
}

/// The frame bytes the server writes per warm remote `run()` of `QUERY`,
/// on a fresh server whose column one blocking query filled.  Not measured
/// after `measure`'s concurrent cold clients: which of the coalesced
/// queries' tags the column keeps there depends on thread scheduling
/// (`CrowdDerived` or `CacheHit`, 8 bytes a cell apart on the wire).
fn frame_bytes_per_warm_query() -> f64 {
    let s = serve();
    let client = RemoteCrowdDb::connect(s.server.local_addr()).unwrap();
    client.query(QUERY).run().unwrap();
    let before = s.server.frame_bytes_written();
    for _ in 0..WARM_RUNS {
        client.query(QUERY).run().unwrap();
    }
    let bytes = s.server.frame_bytes_written() - before;
    client.close().unwrap();
    bytes as f64 / WARM_RUNS as f64
}

fn write_report(run: &ServerRun, frame_bytes_per_warm_query: f64) {
    // CARGO_MANIFEST_DIR is crates/bench; the report belongs at the
    // workspace root regardless of where cargo runs the bench binary.
    let mut path = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    path.pop();
    path.pop();
    path.push("BENCH_server.json");
    // Key names are globally unique (not nested-scoped) so the flat field
    // extraction in check_bench_regression stays unambiguous.
    let json = format!(
        "{{\n  \"bench\": \"server_throughput\",\n  \"clients\": {CLIENTS},\n  \
         \"items\": {},\n  \"server_crowd_rounds\": {},\n  \
         \"server_cold_cost_dollars\": {:.4},\n  \"server_warm_cost_dollars\": {:.4},\n  \
         \"server_scheduler_jobs_per_warm_query\": {:.4},\n  \
         \"server_frame_bytes_per_warm_query\": {:.1},\n  \
         \"cold_wall_ms\": {:.3},\n  \"warm_wall_ms\": {:.3},\n  \"ping_per_s\": {:.1}\n}}\n",
        run.items,
        run.crowd_rounds,
        run.cold_cost_dollars,
        run.warm_cost_dollars,
        run.jobs_per_warm_query,
        frame_bytes_per_warm_query,
        run.cold_wall_ms,
        run.warm_wall_ms,
        run.ping_per_s,
    );
    std::fs::write(&path, json).expect("write BENCH_server.json");
    println!("wrote {}", path.display());
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--test");

    let run = measure();
    // The acceptance bar, enforced on the real meter: four clients, one
    // crowd round, and the warm rerun answered from cache for free.
    assert_eq!(run.crowd_rounds, 1, "cold clients did not coalesce");
    assert_eq!(run.warm_cost_dollars, 0.0, "warm rerun was not free");
    write_report(&run, frame_bytes_per_warm_query());

    let mut criterion = Criterion::default();
    let mut group = criterion.benchmark_group(if smoke {
        "server_throughput_smoke"
    } else {
        "server_throughput"
    });
    group.sample_size(10);
    if smoke {
        // CI smoke mode: the measured pass above already exercised the
        // whole service layer; one ping round-trip keeps criterion happy.
        group.bench_function("ping", |b| {
            let s = serve();
            let client = RemoteCrowdDb::connect(s.server.local_addr()).unwrap();
            b.iter(|| client.ping().unwrap());
        });
        group.finish();
        return;
    }

    // Full mode: end-to-end cold coalescing pass per iteration (fresh
    // server, fresh cache), plus warm-path and ping-path timings.
    group.bench_function("cold_coalesced_4_clients", |b| b.iter(measure));
    group.bench_function("warm_remote_query", |b| {
        let s = serve();
        let client = RemoteCrowdDb::connect(s.server.local_addr()).unwrap();
        client.query(QUERY).run().unwrap();
        b.iter(|| client.query(QUERY).run().unwrap());
    });
    group.finish();
}
