//! End-to-end tests of the network service layer: a real [`CrowdDbServer`]
//! on a real TCP socket, driven by real [`RemoteCrowdDb`] clients, over an
//! instrumented crowd that meters every round and every dollar.
//!
//! The headline property: N clients on separate connections asking for the
//! same expansion buy **exactly one** crowd round — the in-flight registry
//! coalesces across the network boundary exactly as it does across
//! threads, one query pays, and every client gets identical rows.  Plus
//! the ugly paths: clients vanishing mid-stream, malformed frames, bad
//! handshakes — none of which may wedge the server or leak a claim.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use crowddb::prelude::*;
use crowddb_server::wire;
use crowdsim::{BatchCrowdRun, CrowdRun};
use storage::crc32;

/// A gate the test holds closed while clients pile up on the same
/// acquisition, making contention deterministic instead of timing-based.
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

/// Wraps a [`SimulatedCrowd`], counting rounds and dollars, optionally
/// parking each dispatch on a [`Gate`].
struct InstrumentedCrowd {
    inner: SimulatedCrowd,
    batch_calls: Arc<AtomicUsize>,
    dollars_charged: Arc<Mutex<f64>>,
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
        let batch = self.inner.collect_batch(requests, seed)?;
        *self.dollars_charged.lock().unwrap() += batch.total_cost;
        Ok(batch)
    }

    fn describe(&self) -> String {
        self.inner.describe()
    }
}

struct Setup {
    db: Arc<CrowdDb>,
    server: CrowdDbServer,
    batch_calls: Arc<AtomicUsize>,
    dollars_charged: Arc<Mutex<f64>>,
}

impl Setup {
    fn addr(&self) -> std::net::SocketAddr {
        self.server.local_addr()
    }
}

fn make_db(gate: Option<Arc<Gate>>) -> (Arc<CrowdDb>, Arc<AtomicUsize>, Arc<Mutex<f64>>) {
    let domain = SyntheticDomain::generate(&DomainConfig::movies().scaled(0.1), 777).unwrap();
    let space = build_space_for_domain(&domain, 10, 15).unwrap();
    let batch_calls = Arc::new(AtomicUsize::new(0));
    let dollars_charged = Arc::new(Mutex::new(0.0));
    let crowd = InstrumentedCrowd {
        inner: SimulatedCrowd::new(&domain, ExperimentRegime::TrustedWorkers, 23),
        batch_calls: batch_calls.clone(),
        dollars_charged: dollars_charged.clone(),
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
    (db, batch_calls, dollars_charged)
}

fn serve(gate: Option<Arc<Gate>>, config: ServerConfig) -> Setup {
    let (db, batch_calls, dollars_charged) = make_db(gate);
    let server = CrowdDbServer::bind(Arc::clone(&db), "127.0.0.1:0", config).unwrap();
    Setup {
        db,
        server,
        batch_calls,
        dollars_charged,
    }
}

const QUERY: &str = "SELECT item_id, is_comedy FROM movies WHERE is_comedy = true";

/// The acceptance scenario: three clients on three separate TCP
/// connections race the same expansion and the platform meter shows
/// **one** crowd round.  Owner-pays accounting holds across the network
/// boundary, every client's rows are bit-identical, and the provenance
/// tells the story cell by cell: the paying query's expanded cells are
/// [`CellProvenance::CrowdDerived`] (carrying its cost share) while the
/// coalesced clients see [`CellProvenance::CacheHit`] at the very same
/// confidence.
#[test]
fn three_remote_clients_same_expansion_share_one_metered_round() {
    const N: usize = 3;
    let gate = Arc::new(Gate::default());
    let s = serve(Some(gate.clone()), ServerConfig::default());

    let outcomes: Vec<QueryOutcome> = std::thread::scope(|scope| {
        let addr = s.addr();
        let handles: Vec<_> = (0..N)
            .map(|_| {
                scope.spawn(move || {
                    let client = RemoteCrowdDb::connect(addr).unwrap();
                    let outcome = client.query(QUERY).run().unwrap();
                    client.close().unwrap();
                    outcome
                })
            })
            .collect();

        // Hold the crowd round until the other clients' queries have
        // verifiably coalesced onto the in-flight acquisition.
        let deadline = Instant::now() + Duration::from_secs(30);
        while s.db.inflight_stats().coalesced < (N - 1) as u64 {
            assert!(
                Instant::now() < deadline,
                "remote queries never coalesced: {:?}",
                s.db.inflight_stats()
            );
            std::thread::sleep(Duration::from_millis(2));
        }
        gate.open();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    // The platform meter: exactly one crowd round across all clients.
    assert_eq!(s.batch_calls.load(Ordering::SeqCst), 1);
    let stats = s.db.inflight_stats();
    assert_eq!(stats.owned, 1);
    assert_eq!(stats.coalesced, (N - 1) as u64);

    // Owner-pays: the per-client costs sum to what the crowd really
    // charged, and exactly one client paid it.
    let total: f64 = outcomes.iter().map(|o| o.crowd_cost).sum();
    assert!((total - *s.dollars_charged.lock().unwrap()).abs() < 1e-9);
    assert_eq!(outcomes.iter().filter(|o| o.crowd_cost > 0.0).count(), 1);

    // Every client got bit-identical rows, and provenance distinguishes
    // the payer (crowd-derived cells with a cost share) from the
    // coalesced clients (cache hits at the same confidence).
    let payer = outcomes.iter().position(|o| o.crowd_cost > 0.0).unwrap();
    let payer_rows = outcomes[payer].rows().unwrap();
    assert!(!payer_rows.rows.is_empty());
    for (i, outcome) in outcomes.iter().enumerate() {
        let rows = outcome.rows().unwrap();
        assert_eq!(rows.columns, payer_rows.columns);
        assert_eq!(rows.rows, payer_rows.rows);
        for (theirs, ours) in payer_rows.provenance.iter().zip(&rows.provenance) {
            for (paid, seen) in theirs.iter().zip(ours) {
                match (paid, seen) {
                    (
                        CellProvenance::CrowdDerived { confidence: a, .. },
                        CellProvenance::CacheHit { confidence: b },
                    ) if i != payer => assert_eq!(a, b),
                    _ => assert_eq!(paid, seen),
                }
            }
        }
    }

    // Three connections came and went; nothing is leaked.
    let server_stats = s.server.stats();
    assert_eq!(server_stats.connections_accepted, N as u64);
    assert_eq!(server_stats.queries_started, N as u64);
    assert_eq!(server_stats.queries_completed, N as u64);
}

/// A client killed mid-stream (round in flight, frames already flowing)
/// must not leak its in-flight claim: the orphaned expansion completes
/// server-side, and a follow-up query gets the answer from cache — no
/// deadlock, no second round, no double charge.
#[test]
fn client_killed_mid_stream_releases_claim_and_follow_up_completes() {
    let gate = Arc::new(Gate::default());
    let s = serve(Some(gate.clone()), ServerConfig::default());
    let addr = s.addr();

    {
        let doomed = RemoteCrowdDb::connect(addr).unwrap();
        let mut stream = doomed.query(QUERY).stream();
        // The snapshot frame proves the stream is live end-to-end before
        // the kill.
        match stream.next() {
            Some(QueryEvent::Snapshot(_)) => {}
            other => panic!("expected a snapshot first, got {other:?}"),
        }
        // Wait until the crowd round is verifiably in flight…
        let deadline = Instant::now() + Duration::from_secs(30);
        while s.batch_calls.load(Ordering::SeqCst) == 0 {
            assert!(Instant::now() < deadline, "round never started");
            std::thread::sleep(Duration::from_millis(2));
        }
        // …and kill the client, stream and connection and all.
    }

    // Let the orphaned round finish.  The server completes the query with
    // nobody listening.
    gate.open();
    let deadline = Instant::now() + Duration::from_secs(30);
    while s.server.stats().queries_completed < 1 {
        assert!(
            Instant::now() < deadline,
            "orphaned query never completed: {:?}",
            s.server.stats()
        );
        std::thread::sleep(Duration::from_millis(2));
    }

    // Follow-up from a fresh client: completes (claim was released),
    // pays nothing (judgments are cached), dispatches no second round.
    let client = RemoteCrowdDb::connect(addr).unwrap();
    let outcome = client.query(QUERY).run().unwrap();
    assert_eq!(outcome.crowd_cost, 0.0);
    assert!(!outcome.rows().unwrap().rows.is_empty());
    assert_eq!(s.batch_calls.load(Ordering::SeqCst), 1, "no second round");
    // The crowd charged exactly once, to the query whose client died.
    let charged = *s.dollars_charged.lock().unwrap();
    assert!(charged > 0.0);
    client.close().unwrap();
}

/// The remote anytime stream carries the same events as the in-process
/// one: same types, same payloads, same order, byte-for-byte through the
/// codec — on two identically-seeded databases.
#[test]
fn remote_stream_is_event_for_event_identical_to_in_process_stream() {
    let (local_db, _, _) = make_db(None);
    let in_process: Vec<QueryEvent> = local_db.query(QUERY).stream().collect();

    let s = serve(None, ServerConfig::default());
    let client = RemoteCrowdDb::connect(s.addr()).unwrap();
    let remote: Vec<QueryEvent> = client.query(QUERY).stream().collect();
    client.close().unwrap();

    assert!(!remote.is_empty());
    assert!(matches!(remote.last(), Some(QueryEvent::Completed(_))));
    assert_eq!(remote, in_process);
}

/// One connection multiplexes concurrent queries: two streams started
/// back-to-back over the same socket both complete, demultiplexed by
/// request id, and coalesce onto one crowd round like any other pair.
#[test]
fn one_connection_multiplexes_concurrent_queries() {
    let s = serve(None, ServerConfig::default());
    let client = RemoteCrowdDb::connect(s.addr()).unwrap();

    let first = client.query(QUERY).stream();
    let second = client.query(QUERY).stream();
    let second_outcome = second.wait().unwrap();
    let first_outcome = first.wait().unwrap();

    assert_eq!(
        first_outcome.rows().unwrap().rows,
        second_outcome.rows().unwrap().rows
    );
    assert_eq!(s.batch_calls.load(Ordering::SeqCst), 1);
    client.close().unwrap();
}

/// Failures arrive as the same typed [`CrowdDbError`] variants in-process
/// callers get — round-tripped through the codec, not stringified.
#[test]
fn remote_errors_are_typed() {
    let s = serve(None, ServerConfig::default());
    let client = RemoteCrowdDb::connect(s.addr()).unwrap();

    let err = client.query("SELECT * FROM nonexistent").run().unwrap_err();
    assert!(
        matches!(
            err,
            CrowdDbError::Relational(relational::RelationalError::UnknownTable(ref t)) if t == "nonexistent"
        ),
        "wrong error: {err:?}"
    );

    let err = client.query("SELEC nonsense").run().unwrap_err();
    assert!(
        matches!(
            err,
            CrowdDbError::Relational(relational::RelationalError::Parse(_))
        ),
        "wrong error: {err:?}"
    );
    client.close().unwrap();
}

/// Per-connection session defaults: `set_defaults(cache_only)` applies to
/// subsequent policy-less queries on that connection (no crowd round),
/// while queries carrying their own policy override it.
#[test]
fn session_defaults_apply_to_policyless_queries() {
    let s = serve(None, ServerConfig::default());
    let client = RemoteCrowdDb::connect(s.addr()).unwrap();

    client.set_defaults(ExpansionPolicy::cache_only()).unwrap();
    let outcome = client.query(QUERY).run().unwrap();
    assert_eq!(
        s.batch_calls.load(Ordering::SeqCst),
        0,
        "cache-only defaults must not crowd"
    );
    assert_eq!(outcome.crowd_cost, 0.0);

    // An explicit policy on the query overrides the session defaults.
    let outcome = client
        .query(QUERY)
        .policy(ExpansionPolicy::full())
        .run()
        .unwrap();
    assert_eq!(s.batch_calls.load(Ordering::SeqCst), 1);
    assert!(!outcome.rows().unwrap().rows.is_empty());
    client.close().unwrap();
}

/// Handshake enforcement: a wrong auth token and a wrong protocol version
/// are both rejected with the server's reason, and a correct handshake
/// still works afterwards.
#[test]
fn handshake_rejects_bad_token_and_bad_version() {
    let s = serve(
        None,
        ServerConfig {
            auth_token: Some("sesame".into()),
            ..Default::default()
        },
    );
    let addr = s.addr();

    // No token where one is required.
    let err = RemoteCrowdDb::connect(addr).unwrap_err();
    assert!(
        matches!(err, CrowdDbError::Protocol { ref message, .. } if message.contains("auth token")),
        "wrong error: {err:?}"
    );

    // Wrong protocol version, spoken raw.
    let mut sock = std::net::TcpStream::connect(addr).unwrap();
    let hello = wire::ClientHello {
        protocol_version: wire::PROTOCOL_VERSION + 41,
        auth_token: Some("sesame".into()),
    };
    wire::write_frame(&mut sock, &hello.to_payload()).unwrap();
    let payload = wire::read_frame(&mut sock).unwrap().unwrap();
    match wire::HandshakeReply::from_payload(&payload).unwrap() {
        wire::HandshakeReply::Rejected { reason } => {
            assert!(reason.contains("version"), "reason: {reason}");
        }
        other => panic!("expected rejection, got {other:?}"),
    }
    drop(sock);

    // The right token still gets in.
    let client = RemoteCrowdDb::connect_with(
        addr,
        ClientConfig {
            auth_token: Some("sesame".into()),
        },
    )
    .unwrap();
    client.ping().unwrap();
    client.close().unwrap();

    let deadline = Instant::now() + Duration::from_secs(10);
    while s.server.stats().handshakes_rejected < 2 {
        assert!(Instant::now() < deadline, "rejections not counted");
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Malformed frames — bad checksum, oversize length prefix, truncation —
/// cost their sender the connection and *nothing else*: each is counted
/// as a protocol error, and an established client on another connection
/// keeps working throughout.
#[test]
fn malformed_frames_drop_the_connection_but_not_the_server() {
    let s = serve(None, ServerConfig::default());
    let addr = s.addr();

    // A well-behaved bystander, connected the whole time.
    let bystander = RemoteCrowdDb::connect(addr).unwrap();
    bystander.ping().unwrap();

    let handshake = |sock: &mut std::net::TcpStream| {
        let hello = wire::ClientHello {
            protocol_version: wire::PROTOCOL_VERSION,
            auth_token: None,
        };
        wire::write_frame(sock, &hello.to_payload()).unwrap();
        let payload = wire::read_frame(sock).unwrap().unwrap();
        assert!(matches!(
            wire::HandshakeReply::from_payload(&payload).unwrap(),
            wire::HandshakeReply::Accepted { .. }
        ));
    };

    // 1. Bad CRC: a frame whose checksum does not match its payload.
    let mut sock = std::net::TcpStream::connect(addr).unwrap();
    handshake(&mut sock);
    let payload = wire::Request::Ping { id: 1 }.to_payload();
    let mut frame = Vec::new();
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&(crc32(&payload) ^ 0xDEAD_BEEF).to_le_bytes());
    frame.extend_from_slice(&payload);
    use std::io::Write;
    sock.write_all(&frame).unwrap();
    // The server drops the connection: EOF (or reset) on our side.
    assert!(matches!(wire::read_frame(&mut sock), Ok(None) | Err(_)));

    // 2. Oversize length prefix.
    let mut sock = std::net::TcpStream::connect(addr).unwrap();
    handshake(&mut sock);
    let mut frame = Vec::new();
    frame.extend_from_slice(&(wire::MAX_FRAME_LEN + 1).to_le_bytes());
    frame.extend_from_slice(&0u32.to_le_bytes());
    sock.write_all(&frame).unwrap();
    assert!(matches!(wire::read_frame(&mut sock), Ok(None) | Err(_)));

    // 3. Truncated frame: half a header, then a hard close.
    let mut sock = std::net::TcpStream::connect(addr).unwrap();
    handshake(&mut sock);
    sock.write_all(&[7, 0, 0]).unwrap();
    drop(sock);

    // 4. A frame that passes the checksum but decodes to no known request.
    let mut sock = std::net::TcpStream::connect(addr).unwrap();
    handshake(&mut sock);
    wire::write_frame(&mut sock, &[250, 1, 2, 3]).unwrap();
    assert!(matches!(wire::read_frame(&mut sock), Ok(None) | Err(_)));

    // Every abuse was counted, every abusive connection torn down…
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let stats = s.server.stats();
        if stats.protocol_errors >= 3 && stats.connections_active == 1 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "teardown incomplete: {:?}",
            s.server.stats()
        );
        std::thread::sleep(Duration::from_millis(2));
    }

    // …and the server is fine: the bystander still pings and queries.
    bystander.ping().unwrap();
    let outcome = bystander.query(QUERY).run().unwrap();
    assert!(!outcome.rows().unwrap().rows.is_empty());
    bystander.close().unwrap();
}

/// The server counts every frame byte it writes: a ping costs exactly its
/// `Ack` frame, a query exactly its `Completed` frame, and the metrics
/// scrape exports the count as rendered just before its own reply.
#[test]
fn server_counts_frame_bytes_written() {
    let s = serve(None, ServerConfig::default());
    let client = RemoteCrowdDb::connect(s.addr()).unwrap();
    let frame_len = |response: wire::Response| {
        (wire::FRAME_HEADER_LEN + response.to_payload().unwrap().len()) as u64
    };
    // The handshake reply is counted too.
    assert!(s.server.frame_bytes_written() > 0);

    let before = s.server.frame_bytes_written();
    client.ping().unwrap();
    let after = s.server.frame_bytes_written();
    assert_eq!(after - before, frame_len(wire::Response::Ack { id: 0 }));

    let before = after;
    let outcome = client.query(QUERY).run().unwrap();
    let after = s.server.frame_bytes_written();
    // A request id is a fixed-width u64, so any id encodes to this length.
    let completed = wire::Response::Event {
        id: 0,
        event: QueryEvent::Completed(outcome.into()),
    };
    assert_eq!(after - before, frame_len(completed));

    let scraped = parse_text(&client.metrics().unwrap()).unwrap();
    assert_eq!(
        scraped.value("crowddb_server_frame_bytes_written_total", &[]),
        Some(after as f64)
    );
    client.close().unwrap();
}

/// A remote `run()` ends on exactly one terminal message.  Completion and
/// typed failures are covered above against a real server; the other two
/// ends need a misbehaving one, so a scripted peer speaks the wire here:
/// it answers one query with a control reply, and drops the connection
/// after one progress event of the next.  Both surface as typed protocol
/// errors, not a hang and not a panic.
#[test]
fn remote_run_ends_on_wrong_reply_kind_and_on_lost_connection() {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let peer = std::thread::spawn(move || {
        let (mut sock, _) = listener.accept().unwrap();
        let hello = wire::read_frame(&mut sock).unwrap().unwrap();
        wire::ClientHello::from_payload(&hello).unwrap();
        let accepted = wire::HandshakeReply::Accepted {
            protocol_version: wire::PROTOCOL_VERSION,
            session_id: 1,
        };
        wire::write_frame(&mut sock, &accepted.to_payload()).unwrap();
        let next_query_id = |sock: &mut std::net::TcpStream| {
            let payload = wire::read_frame(sock).unwrap().unwrap();
            match wire::Request::from_payload(&payload).unwrap() {
                wire::Request::Query { id, events, .. } => {
                    assert!(!events, "run() must not ask for events");
                    id
                }
                other => panic!("expected a query, got {other:?}"),
            }
        };
        let reply = |sock: &mut std::net::TcpStream, response: wire::Response| {
            wire::write_frame(sock, &response.to_payload().unwrap()).unwrap();
        };

        let id = next_query_id(&mut sock);
        reply(&mut sock, wire::Response::Ack { id });

        let id = next_query_id(&mut sock);
        let event = QueryEvent::progress("Comedy", 1, 2, 0.5, 0.25);
        reply(&mut sock, wire::Response::Event { id, event });
        sock.shutdown(std::net::Shutdown::Both).unwrap();
    });

    let client = RemoteCrowdDb::connect(addr).unwrap();
    let err = client.query(QUERY).run().unwrap_err();
    assert!(
        matches!(err, CrowdDbError::Protocol { ref message, .. } if message.contains("non-query reply")),
        "wrong error: {err:?}"
    );
    let err = client.query(QUERY).run().unwrap_err();
    assert!(
        matches!(err, CrowdDbError::Protocol { ref message, .. } if message.contains("connection lost")),
        "wrong error: {err:?}"
    );
    peer.join().unwrap();
}

/// Clean shutdown: dropping the server severs live connections without
/// hanging, and clients see a typed connection-lost error, not a wedge.
#[test]
fn server_shutdown_severs_clients_cleanly() {
    let mut s = serve(None, ServerConfig::default());
    let client = RemoteCrowdDb::connect(s.addr()).unwrap();
    client.ping().unwrap();

    s.server.shutdown();
    assert_eq!(s.server.stats().connections_active, 0);

    let err = client.ping().unwrap_err();
    assert!(
        matches!(err, CrowdDbError::Protocol { .. }),
        "wrong error: {err:?}"
    );
}
