//! The multi-client TCP server wrapping a [`CrowdDb`].
//!
//! [`CrowdDbServer::bind`] takes a shared database and a listen address and
//! serves the wire protocol of [`crate::wire`].  One dedicated thread
//! accepts connections; everything else — per-connection reader loops, the
//! single writer serializing each connection's outbound frames, and one
//! pump per in-flight query — runs as jobs on the database's own elastic
//! scheduler pool, so a pile-up of slow clients grows overflow workers
//! instead of starving the expansion pipeline.  A pump runs a blocking
//! query itself, on its own job; for a streamed query it forwards the
//! [`QueryEvent`]s of the engine's scheduler job as they arrive.
//!
//! Because every connection talks to the *same* [`CrowdDb`], the engine's
//! cross-query machinery works across clients for free: two clients asking
//! for the same missing attribute coalesce onto one in-flight crowd round
//! (the first pays, the joiner rides along), and a judgment crowdsourced
//! for one client is a cache hit for the next.
//!
//! A client that vanishes mid-stream costs nothing but its notifications:
//! its pump's next send fails, the pump drops its [`QueryStream`] and
//! exits, and the dispatched expansion completes on the scheduler —
//! releasing its in-flight claim and populating the judgment cache so a
//! follow-up query (from anyone) finishes from cache.
//!
//! [`QueryEvent`]: crowddb_core::QueryEvent
//! [`QueryStream`]: crowddb_core::QueryStream

use crate::wire::{
    frame, read_frame, write_whole_frame, ClientHello, HandshakeReply, Request, Response,
    PROTOCOL_VERSION,
};
use crowddb_core::{CrowdDb, CrowdDbError, ExpansionPolicy, QueryEvent, Result, TableOptions};
use relational::PartitionSpec;
use std::collections::HashMap;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::Duration;
use telemetry::StateMonitor;

/// Tuning knobs for a [`CrowdDbServer`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Shared-secret token every [`ClientHello`] must present.  `None`
    /// accepts tokenless clients (and rejects ones that do send a token).
    pub auth_token: Option<String>,
    /// Cap on how long one outbound frame may take to write before the
    /// connection is declared dead.  `None` blocks indefinitely.
    pub write_timeout: Option<Duration>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            auth_token: None,
            write_timeout: Some(Duration::from_secs(30)),
        }
    }
}

/// A point-in-time snapshot of the server's counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServerStats {
    /// Connections accepted over the server's lifetime.
    pub connections_accepted: u64,
    /// Connections currently live (post-accept, pre-teardown).
    pub connections_active: u64,
    /// Handshakes refused (version mismatch, bad token, bad magic).
    pub handshakes_rejected: u64,
    /// Malformed frames / undecodable requests; each one cost its sender
    /// the connection, and nothing else.
    pub protocol_errors: u64,
    /// Queries started on behalf of remote clients.
    pub queries_started: u64,
    /// Of those, queries that ran to a terminal event (success or typed
    /// failure) — including ones whose client had already vanished.
    pub queries_completed: u64,
}

#[derive(Default)]
struct Counters {
    connections_accepted: AtomicU64,
    connections_active: AtomicU64,
    handshakes_rejected: AtomicU64,
    protocol_errors: AtomicU64,
    queries_started: AtomicU64,
    queries_completed: AtomicU64,
    // Exported in the metrics scrape only: a `ServerStats` field would
    // change the stats frame.
    frame_bytes_written: AtomicU64,
}

struct Shared {
    db: Arc<CrowdDb>,
    config: ServerConfig,
    shutting_down: AtomicBool,
    counters: Counters,
    next_session_id: AtomicU64,
    // One try-cloned handle per live connection, so shutdown can sever
    // every socket and unblock the reader jobs parked in read_frame.
    connections: Mutex<HashMap<u64, TcpStream>>,
    // The server's branch of the database's state-monitor tree; each live
    // connection hangs a child under it for the lifetime of its session.
    monitor: StateMonitor,
}

impl Shared {
    /// Writes one whole frame to a client.  Its bytes, header included,
    /// are counted before the write begins, so a client that has read a
    /// frame also finds it counted.
    fn write_frame(&self, sock: &mut TcpStream, frame: &[u8]) -> Result<()> {
        self.counters
            .frame_bytes_written
            .fetch_add(frame.len() as u64, Ordering::SeqCst);
        write_whole_frame(sock, frame)
    }
}

/// A running CrowdDb network server.  Dropping it shuts it down: the
/// listener closes, every live connection is severed, and the accept
/// thread is joined.
pub struct CrowdDbServer {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    accept_thread: Option<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for CrowdDbServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CrowdDbServer")
            .field("local_addr", &self.local_addr)
            .finish_non_exhaustive()
    }
}

impl CrowdDbServer {
    /// Binds a listener and starts serving `db` at `addr` (pass port 0 to
    /// let the OS pick; [`local_addr`](CrowdDbServer::local_addr) reports
    /// the result).
    pub fn bind(db: Arc<CrowdDb>, addr: impl ToSocketAddrs, config: ServerConfig) -> Result<Self> {
        let listener = TcpListener::bind(addr)
            .map_err(|e| CrowdDbError::protocol(format!("bind failed: {e}")))?;
        let local_addr = listener
            .local_addr()
            .map_err(|e| CrowdDbError::protocol(format!("local_addr failed: {e}")))?;
        let monitor = db.state_monitor().make_child("server");
        let shared = Arc::new(Shared {
            db,
            config,
            shutting_down: AtomicBool::new(false),
            counters: Counters::default(),
            next_session_id: AtomicU64::new(1),
            connections: Mutex::new(HashMap::new()),
            monitor,
        });
        let accept_shared = Arc::clone(&shared);
        let accept_thread = std::thread::Builder::new()
            .name("crowddb-accept".into())
            .spawn(move || accept_loop(listener, accept_shared))
            .map_err(|e| CrowdDbError::protocol(format!("accept thread spawn failed: {e}")))?;
        Ok(CrowdDbServer {
            shared,
            local_addr,
            accept_thread: Some(accept_thread),
        })
    }

    /// The address the server is actually listening on.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Snapshots the server's counters.
    pub fn stats(&self) -> ServerStats {
        snapshot_counters(&self.shared.counters)
    }

    /// Bytes of frames (header and payload) written to clients over the
    /// server's lifetime, handshake replies included; exported as
    /// `crowddb_server_frame_bytes_written_total`.
    pub fn frame_bytes_written(&self) -> u64 {
        self.shared
            .counters
            .frame_bytes_written
            .load(Ordering::SeqCst)
    }

    /// Stops accepting, severs every live connection, and joins the accept
    /// thread.  Queries already dispatched to the crowd complete on the
    /// database's scheduler (their judgments land in the cache); only
    /// their notifications are lost.  Idempotent.
    pub fn shutdown(&mut self) {
        if self.shared.shutting_down.swap(true, Ordering::SeqCst) {
            return;
        }
        // Wake the acceptor: it checks the flag after every accept, so a
        // throwaway self-connection gets it past the blocking call.
        let _ = TcpStream::connect(self.local_addr);
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
        // Sever live connections; their reader jobs unblock with an error,
        // tear themselves down, and decrement the active count.
        for (_, sock) in self.shared.connections.lock().unwrap().drain() {
            let _ = sock.shutdown(Shutdown::Both);
        }
        // Bounded wait for teardown so the CrowdDb's scheduler isn't
        // dropped while connection jobs still hold sockets.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while self
            .shared
            .counters
            .connections_active
            .load(Ordering::SeqCst)
            > 0
            && std::time::Instant::now() < deadline
        {
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}

impl Drop for CrowdDbServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn snapshot_counters(c: &Counters) -> ServerStats {
    ServerStats {
        connections_accepted: c.connections_accepted.load(Ordering::SeqCst),
        connections_active: c.connections_active.load(Ordering::SeqCst),
        handshakes_rejected: c.handshakes_rejected.load(Ordering::SeqCst),
        protocol_errors: c.protocol_errors.load(Ordering::SeqCst),
        queries_started: c.queries_started.load(Ordering::SeqCst),
        queries_completed: c.queries_completed.load(Ordering::SeqCst),
    }
}

/// The engine's metric catalog plus the server's own counter families,
/// rendered as one Prometheus scrape body.
fn metrics_text(shared: &Shared) -> String {
    let mut snap = shared.db.metrics_snapshot();
    let stats = snapshot_counters(&shared.counters);
    snap.push_counter(
        "crowddb_server_connections_accepted_total",
        "Connections accepted over the server's lifetime",
        stats.connections_accepted as f64,
    );
    snap.push_gauge(
        "crowddb_server_connections_active",
        "Connections currently live",
        stats.connections_active as f64,
    );
    snap.push_counter(
        "crowddb_server_handshakes_rejected_total",
        "Handshakes refused (version mismatch, bad token, connection cap)",
        stats.handshakes_rejected as f64,
    );
    snap.push_counter(
        "crowddb_server_protocol_errors_total",
        "Malformed frames or undecodable requests",
        stats.protocol_errors as f64,
    );
    snap.push_counter(
        "crowddb_server_queries_started_total",
        "Queries started on behalf of remote clients",
        stats.queries_started as f64,
    );
    snap.push_counter(
        "crowddb_server_queries_completed_total",
        "Remote queries that ran to a terminal event",
        stats.queries_completed as f64,
    );
    snap.push_counter(
        "crowddb_server_frame_bytes_written_total",
        "Bytes of frames (header and payload) written to clients",
        shared.counters.frame_bytes_written.load(Ordering::SeqCst) as f64,
    );
    snap.sorted().render()
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    for incoming in listener.incoming() {
        if shared.shutting_down.load(Ordering::SeqCst) {
            break;
        }
        let sock = match incoming {
            Ok(sock) => sock,
            Err(_) => continue,
        };
        let session_id = shared.next_session_id.fetch_add(1, Ordering::SeqCst);
        shared
            .counters
            .connections_accepted
            .fetch_add(1, Ordering::SeqCst);
        shared
            .counters
            .connections_active
            .fetch_add(1, Ordering::SeqCst);
        if let Ok(handle) = sock.try_clone() {
            shared
                .connections
                .lock()
                .unwrap()
                .insert(session_id, handle);
        }
        let conn_shared = Arc::clone(&shared);
        let db = Arc::clone(&shared.db);
        db.spawn_background(move || {
            handle_connection(conn_shared, sock, session_id);
        });
    }
}

/// Runs one connection start to finish: handshake, reader loop, teardown.
fn handle_connection(shared: Arc<Shared>, mut sock: TcpStream, session_id: u64) {
    let _ = sock.set_nodelay(true);
    if let Ok(tenant) = handshake(&shared, &mut sock, session_id) {
        serve_requests(&shared, &mut sock, session_id, &tenant);
        if let Some(limiter) = shared.db.limiter() {
            limiter.release_connection(&tenant);
        }
    }
    let _ = sock.shutdown(Shutdown::Both);
    shared.connections.lock().unwrap().remove(&session_id);
    shared
        .counters
        .connections_active
        .fetch_sub(1, Ordering::SeqCst);
}

/// Runs the handshake; on success returns the tenant identity the
/// connection authenticated as (the admission controller's accounting
/// key).  The shared-secret token of [`ServerConfig::auth_token`] maps to
/// the `"default"` tenant; a token naming a tenant configured on the
/// database's [`Limiter`](crowddb_core::Limiter) authenticates as that
/// tenant and claims one of its connection slots.
fn handshake(shared: &Arc<Shared>, sock: &mut TcpStream, session_id: u64) -> Result<String> {
    let hello = match read_frame(sock)? {
        Some(payload) => ClientHello::from_payload(&payload),
        None => return Err(CrowdDbError::protocol("closed before hello")),
    };
    let reject = |sock: &mut TcpStream, reason: String| {
        shared
            .counters
            .handshakes_rejected
            .fetch_add(1, Ordering::SeqCst);
        let reply = HandshakeReply::Rejected {
            reason: reason.clone(),
        };
        let _ = shared.write_frame(sock, &frame(&reply.to_payload()));
        Err(CrowdDbError::protocol(reason))
    };
    let hello = match hello {
        Ok(hello) => hello,
        Err(e) => {
            shared
                .counters
                .protocol_errors
                .fetch_add(1, Ordering::SeqCst);
            log_protocol_error(session_id, &e);
            return reject(sock, e.to_string());
        }
    };
    if hello.protocol_version != PROTOCOL_VERSION {
        return reject(
            sock,
            format!(
                "protocol version mismatch: client speaks {}, server speaks {PROTOCOL_VERSION}",
                hello.protocol_version
            ),
        );
    }
    let limiter = shared.db.limiter();
    let tenant = if hello.auth_token == shared.config.auth_token {
        "default".to_string()
    } else {
        match hello.auth_token.as_deref() {
            Some(token) if limiter.as_ref().is_some_and(|l| l.has_tenant(token)) => {
                token.to_string()
            }
            _ => return reject(sock, "auth token rejected".into()),
        }
    };
    if let Some(limiter) = &limiter {
        if let Err(reason) = limiter.admit_connection(&tenant) {
            return reject(sock, format!("connection rejected: {reason}"));
        }
    }
    let reply = HandshakeReply::Accepted {
        protocol_version: PROTOCOL_VERSION,
        session_id,
    };
    shared.write_frame(sock, &frame(&reply.to_payload()))?;
    Ok(tenant)
}

/// The post-handshake reader loop.  Decodes requests and dispatches each
/// query to its own pump job; returns when the client says goodbye, the
/// connection drops, or a malformed frame arrives.
fn serve_requests(shared: &Arc<Shared>, sock: &mut TcpStream, session_id: u64, tenant: &str) {
    // All outbound traffic funnels through one writer job so concurrent
    // pumps never interleave partial frames.
    let (tx, rx) = mpsc::channel::<Vec<u8>>();
    let writer_sock = match sock.try_clone() {
        Ok(clone) => clone,
        Err(_) => return,
    };
    let _ = writer_sock.set_write_timeout(shared.config.write_timeout);
    let writer_shared = Arc::clone(shared);
    shared
        .db
        .spawn_background(move || writer_loop(&writer_shared, rx, writer_sock));

    // The connection's node in the state-monitor tree, live until this
    // function returns.
    let conn_monitor = shared.monitor.make_child(format!("session-{session_id}"));
    conn_monitor.insert("tenant", tenant);
    if let Ok(peer) = sock.peer_addr() {
        conn_monitor.insert("peer", peer);
    }

    // Per-connection session state: defaults applied to queries that do
    // not carry their own policy.
    let defaults: Arc<Mutex<Option<ExpansionPolicy>>> = Arc::new(Mutex::new(None));

    loop {
        let payload = match read_frame(sock) {
            Ok(Some(payload)) => payload,
            // Clean EOF at a frame boundary: client is gone; its in-flight
            // queries keep running server-side.
            Ok(None) => break,
            Err(e) => {
                shared
                    .counters
                    .protocol_errors
                    .fetch_add(1, Ordering::SeqCst);
                log_protocol_error(session_id, &e);
                break;
            }
        };
        match Request::from_payload(&payload) {
            Ok(Request::Query {
                id,
                sql,
                policy,
                events,
            }) => {
                shared
                    .counters
                    .queries_started
                    .fetch_add(1, Ordering::SeqCst);
                let db = Arc::clone(&shared.db);
                let pump_shared = Arc::clone(shared);
                let pump_tx = tx.clone();
                let pump_defaults = Arc::clone(&defaults);
                let pump_tenant = tenant.to_string();
                shared.db.spawn_background(move || {
                    pump_query(
                        db,
                        pump_shared,
                        pump_tx,
                        pump_defaults,
                        pump_tenant,
                        id,
                        sql,
                        policy,
                        events,
                    );
                });
            }
            Ok(Request::SetDefaults { id, policy }) => {
                *defaults.lock().unwrap() = Some(policy);
                send_response(&tx, &Response::Ack { id });
            }
            Ok(Request::Ping { id }) => {
                send_response(&tx, &Response::Ack { id });
            }
            Ok(Request::Stats { id }) => {
                let stats = snapshot_counters(&shared.counters);
                send_response(&tx, &Response::Stats { id, stats });
            }
            Ok(Request::Metrics { id }) => {
                let text = metrics_text(shared);
                send_response(&tx, &Response::Metrics { id, text });
            }
            Ok(Request::Monitor { id }) => {
                let tree = shared.db.state_monitor().to_tree();
                send_response(&tx, &Response::Monitor { id, tree });
            }
            Ok(Request::CreateTable {
                id,
                sql,
                partitions,
            }) => {
                let response = match create_remote_table(&shared.db, &sql, partitions) {
                    Ok(()) => Response::Ack { id },
                    Err(error) => Response::QueryFailed { id, error },
                };
                send_response(&tx, &response);
            }
            Ok(Request::Goodbye) => break,
            Err(e) => {
                shared
                    .counters
                    .protocol_errors
                    .fetch_add(1, Ordering::SeqCst);
                log_protocol_error(session_id, &e);
                break;
            }
        }
    }
    // Sever the socket: the writer's next write fails and it exits, which
    // disconnects the channel, which makes orphaned pumps' sends fail, so
    // they drop their streams and bail.  The queries themselves finish on
    // the scheduler regardless — releasing in-flight claims and filling
    // the judgment cache.
    let _ = sock.shutdown(Shutdown::Both);
    drop(tx);
}

fn writer_loop(shared: &Shared, rx: mpsc::Receiver<Vec<u8>>, mut sock: TcpStream) {
    while let Ok(frame) = rx.recv() {
        if shared.write_frame(&mut sock, &frame).is_err() {
            break;
        }
    }
    let _ = sock.shutdown(Shutdown::Both);
}

fn send_response(tx: &mpsc::Sender<Vec<u8>>, response: &Response) -> bool {
    match response.to_frame() {
        Ok(frame) => tx.send(frame).is_ok(),
        Err(_) => true, // inexpressible event: skip it, keep the connection
    }
}

/// One in-flight query, tagged with its request id.  A client's blocking
/// `run()` (`events == false`) executes right here on the pump's own job
/// and sends only the terminal frame; a `stream()` runs as the engine's
/// scheduler job and the pump forwards its events to the connection's
/// writer as they arrive.
#[allow(clippy::too_many_arguments)]
fn pump_query(
    db: Arc<CrowdDb>,
    shared: Arc<Shared>,
    tx: mpsc::Sender<Vec<u8>>,
    defaults: Arc<Mutex<Option<ExpansionPolicy>>>,
    tenant: String,
    id: u64,
    sql: String,
    policy: Option<ExpansionPolicy>,
    events: bool,
) {
    let mut builder = db.query(sql).tenant(tenant);
    let effective = policy.or_else(|| defaults.lock().unwrap().clone());
    if let Some(policy) = effective {
        builder = builder.policy(policy);
    }
    // A query is counted before its terminal frame is sent, so a client
    // that has seen its query finish also sees it in `server_stats()`.
    let count = || {
        shared
            .counters
            .queries_completed
            .fetch_add(1, Ordering::SeqCst);
    };
    if events {
        let mut stream = builder.stream();
        let mut counted = false;
        // A failed send means the client disconnected mid-stream: drop the
        // stream and exit.  The dispatched expansion still completes on
        // the scheduler, so its in-flight claim is released and its
        // judgments are cached for whoever asks next.
        let delivered = stream.all(|event| {
            if matches!(event, QueryEvent::Completed(_)) {
                count();
                counted = true;
            }
            send_response(&tx, &Response::Event { id, event })
        });
        if !counted {
            count();
        }
        if delivered {
            if let Err(error) = stream.wait() {
                send_response(&tx, &Response::QueryFailed { id, error });
            }
        }
    } else {
        let response = match builder.run() {
            Ok(outcome) => Response::Event {
                id,
                event: QueryEvent::Completed(Arc::new(outcome)),
            },
            Err(error) => Response::QueryFailed { id, error },
        };
        count();
        send_response(&tx, &response);
    }
}

/// Executes a remote `CREATE TABLE` DDL against a scratch catalog and
/// installs the result with the requested partition layout — the server
/// half of [`Request::CreateTable`].  Anything but a `CREATE TABLE`
/// statement is refused before touching the engine.
fn create_remote_table(db: &CrowdDb, sql: &str, partitions: PartitionSpec) -> Result<()> {
    let statement = relational::sql::parse(sql)?;
    if !matches!(statement, relational::sql::Statement::CreateTable { .. }) {
        return Err(CrowdDbError::Configuration(
            "a CreateTable request must carry a CREATE TABLE statement".into(),
        ));
    }
    let mut scratch = relational::Catalog::new();
    relational::executor::execute(&statement, &mut scratch)?;
    let name = scratch
        .table_names()
        .pop()
        .expect("CREATE TABLE created a table");
    let table = scratch.table(&name).expect("listed table exists").clone();
    let options = TableOptions::new(table.name(), &db.config().id_column).partitions(partitions);
    db.create_table_with(options, table)
}

fn log_protocol_error(session_id: u64, error: &CrowdDbError) {
    eprintln!("crowddb-server: dropping connection {session_id}: {error}");
}
