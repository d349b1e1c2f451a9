//! Blocking remote client for the CrowdDb network service layer.
//!
//! [`RemoteCrowdDb`] speaks the framed, checksummed wire protocol of
//! [`crowddb_server::wire`] to a [`CrowdDbServer`] and mirrors the
//! in-process query surface: [`query`](RemoteCrowdDb::query) returns a
//! [`RemoteQueryBuilder`] with the same `budget` / `mode` /
//! `quality_floor` / `adaptive` knobs, [`run`](RemoteQueryBuilder::run)
//! blocks for the final [`QueryOutcome`], and
//! [`stream`](RemoteQueryBuilder::stream) yields the same typed
//! [`QueryEvent`]s — snapshot, progress, deltas, completion — the
//! in-process [`QueryStream`](crowddb_core::QueryStream) would, as the
//! server forwards them.  Failures arrive as typed [`CrowdDbError`]s
//! round-tripped through the codec, not strings.
//!
//! One connection multiplexes any number of concurrent queries: a
//! background demux thread reads frames and routes each response to its
//! query's stream by request id.  Dropping a stream abandons only the
//! notifications — the server-side expansion completes, pays its owner's
//! share, and leaves its judgments in the shared cache.
//!
//! [`CrowdDbServer`]: crowddb_server::CrowdDbServer

#![warn(missing_docs)]

use crowddb_core::{
    CrowdDbError, ExpansionMode, ExpansionPolicy, PartitionSpec, QueryEvent, QueryOutcome, Result,
};
use crowddb_server::wire::{
    read_frame, write_frame, ClientHello, HandshakeReply, Request, Response, PROTOCOL_VERSION,
};
use std::collections::HashMap;
use std::net::{Shutdown, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};

pub use crowddb_server::ServerStats;
pub use telemetry::MonitorTree;

/// Connection options for [`RemoteCrowdDb::connect_with`].
#[derive(Debug, Clone, Default)]
pub struct ClientConfig {
    /// Auth token presented in the handshake; must match the server's.
    pub auth_token: Option<String>,
}

/// What the demux thread forwards to one query's stream.
enum Incoming {
    Event(QueryEvent),
    Failed(CrowdDbError),
    Ack,
    Stats(ServerStats),
    Metrics(String),
    Monitor(MonitorTree),
}

struct ClientInner {
    writer: Mutex<TcpStream>,
    /// Reply channels by request id; `None` once the demux thread has
    /// exited and no reply can come.
    pending: Mutex<Option<HashMap<u64, mpsc::Sender<Incoming>>>>,
    next_id: AtomicU64,
    session_id: u64,
}

impl ClientInner {
    fn send(&self, request: &Request) -> Result<()> {
        let mut writer = self.writer.lock().unwrap();
        write_frame(&mut *writer, &request.to_payload())
    }

    fn register(&self, id: u64) -> mpsc::Receiver<Incoming> {
        let (tx, rx) = mpsc::channel();
        // On a dead connection the sender is dropped at once, so the
        // receiver reports the lost connection instead of waiting forever.
        if let Some(pending) = self.pending.lock().unwrap().as_mut() {
            pending.insert(id, tx);
        }
        rx
    }

    fn deregister(&self, id: u64) {
        if let Some(pending) = self.pending.lock().unwrap().as_mut() {
            pending.remove(&id);
        }
    }
}

/// A blocking connection to a remote CrowdDb, mirroring the in-process
/// [`CrowdDb`](crowddb_core::CrowdDb) query API.
pub struct RemoteCrowdDb {
    inner: Arc<ClientInner>,
    demux: Option<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for RemoteCrowdDb {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RemoteCrowdDb")
            .field("session_id", &self.inner.session_id)
            .finish_non_exhaustive()
    }
}

impl RemoteCrowdDb {
    /// Connects and handshakes with no auth token.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<RemoteCrowdDb> {
        RemoteCrowdDb::connect_with(addr, ClientConfig::default())
    }

    /// Connects, handshakes (protocol version + auth token), and starts
    /// the demux thread.  A rejected handshake is a typed
    /// [`CrowdDbError::Protocol`] carrying the server's reason.
    pub fn connect_with(addr: impl ToSocketAddrs, config: ClientConfig) -> Result<RemoteCrowdDb> {
        let mut sock = TcpStream::connect(addr)
            .map_err(|e| CrowdDbError::protocol(format!("connect failed: {e}")))?;
        let _ = sock.set_nodelay(true);
        let hello = ClientHello {
            protocol_version: PROTOCOL_VERSION,
            auth_token: config.auth_token,
        };
        write_frame(&mut sock, &hello.to_payload())?;
        let session_id = match read_frame(&mut sock)? {
            Some(payload) => match HandshakeReply::from_payload(&payload)? {
                HandshakeReply::Accepted { session_id, .. } => session_id,
                HandshakeReply::Rejected { reason } => {
                    return Err(CrowdDbError::protocol(format!(
                        "handshake rejected: {reason}"
                    )))
                }
            },
            None => {
                return Err(CrowdDbError::protocol(
                    "server closed the connection during the handshake",
                ))
            }
        };
        let reader = sock
            .try_clone()
            .map_err(|e| CrowdDbError::protocol(format!("socket clone failed: {e}")))?;
        let inner = Arc::new(ClientInner {
            writer: Mutex::new(sock),
            pending: Mutex::new(Some(HashMap::new())),
            next_id: AtomicU64::new(1),
            session_id,
        });
        let demux_inner = Arc::clone(&inner);
        let demux = std::thread::Builder::new()
            .name("crowddb-client-demux".into())
            .spawn(move || demux_loop(reader, demux_inner))
            .map_err(|e| CrowdDbError::protocol(format!("demux thread spawn failed: {e}")))?;
        Ok(RemoteCrowdDb {
            inner,
            demux: Some(demux),
        })
    }

    /// The server-assigned id of this connection's session.
    pub fn session_id(&self) -> u64 {
        self.inner.session_id
    }

    /// Starts building a remote query — same knobs, same semantics as the
    /// in-process [`QueryBuilder`](crowddb_core::QueryBuilder).
    pub fn query(&self, sql: impl Into<String>) -> RemoteQueryBuilder<'_> {
        RemoteQueryBuilder {
            client: self,
            sql: sql.into(),
            policy: ExpansionPolicy::full(),
            mode_explicit: false,
            customized: false,
        }
    }

    /// Round-trips a liveness check through the server.
    pub fn ping(&self) -> Result<()> {
        self.request_ack(|id| Request::Ping { id })
    }

    /// Replaces this connection's server-side default
    /// [`ExpansionPolicy`], applied to queries that do not set their own.
    pub fn set_defaults(&self, policy: ExpansionPolicy) -> Result<()> {
        self.request_ack(|id| Request::SetDefaults { id, policy })
    }

    /// Creates a table on the remote database from `CREATE TABLE` DDL
    /// with an explicit storage [`PartitionSpec`] — the remote twin of
    /// the in-process
    /// [`create_table_with`](crowddb_core::CrowdDb::create_table_with) /
    /// [`TableOptions`](crowddb_core::TableOptions) builder.  Plain SQL
    /// `CREATE TABLE` sent through [`query`](RemoteCrowdDb::query) stays
    /// single-partition.  Errors (bad DDL, duplicate table, a layout the
    /// engine refuses) come back as the same typed [`CrowdDbError`] the
    /// in-process call would return.
    pub fn create_table(&self, sql: impl Into<String>, partitions: PartitionSpec) -> Result<()> {
        let sql = sql.into();
        self.request_ack(move |id| Request::CreateTable {
            id,
            sql,
            partitions,
        })
    }

    /// Snapshots the server's connection and query counters.
    pub fn server_stats(&self) -> Result<ServerStats> {
        match self.request_reply(|id| Request::Stats { id })? {
            Incoming::Stats(stats) => Ok(stats),
            Incoming::Failed(error) => Err(error),
            _ => Err(CrowdDbError::protocol(
                "server answered a stats request with the wrong reply",
            )),
        }
    }

    /// Scrapes the server's full metric catalog — engine and server
    /// families — as Prometheus text exposition.  Parse it with
    /// [`telemetry::parse_text`].
    pub fn metrics(&self) -> Result<String> {
        match self.request_reply(|id| Request::Metrics { id })? {
            Incoming::Metrics(text) => Ok(text),
            Incoming::Failed(error) => Err(error),
            _ => Err(CrowdDbError::protocol(
                "server answered a metrics request with the wrong reply",
            )),
        }
    }

    /// Snapshots the server's live state-monitor tree — active sessions,
    /// running queries, in-flight expansions with cost-so-far.
    pub fn monitor(&self) -> Result<MonitorTree> {
        match self.request_reply(|id| Request::Monitor { id })? {
            Incoming::Monitor(tree) => Ok(tree),
            Incoming::Failed(error) => Err(error),
            _ => Err(CrowdDbError::protocol(
                "server answered a monitor request with the wrong reply",
            )),
        }
    }

    fn request_ack(&self, make: impl FnOnce(u64) -> Request) -> Result<()> {
        match self.request_reply(make)? {
            Incoming::Ack => Ok(()),
            Incoming::Failed(error) => Err(error),
            _ => Err(CrowdDbError::protocol(
                "server answered a control request with the wrong reply",
            )),
        }
    }

    /// Sends one request and blocks for its single reply, routed back by
    /// request id.
    fn request_reply(&self, make: impl FnOnce(u64) -> Request) -> Result<Incoming> {
        let id = self.inner.next_id.fetch_add(1, Ordering::SeqCst);
        let rx = self.inner.register(id);
        if let Err(e) = self.inner.send(&make(id)) {
            self.inner.deregister(id);
            return Err(e);
        }
        let result = rx
            .recv()
            .map_err(|_| CrowdDbError::protocol("connection lost awaiting a reply"));
        self.inner.deregister(id);
        result
    }

    /// Sends a clean goodbye and closes the connection.  In-flight
    /// server-side work completes and is cached; only notifications stop.
    /// Dropping the client without calling this closes the socket the
    /// abrupt way — the server handles both identically.
    pub fn close(mut self) -> Result<()> {
        let result = self.inner.send(&Request::Goodbye);
        self.teardown();
        result
    }

    fn teardown(&mut self) {
        if let Ok(writer) = self.inner.writer.lock() {
            let _ = writer.shutdown(Shutdown::Both);
        }
        if let Some(handle) = self.demux.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for RemoteCrowdDb {
    fn drop(&mut self) {
        self.teardown();
    }
}

/// Reads every frame off the connection and routes responses to their
/// queries by request id.  Exits (dropping all pending senders, which
/// surfaces a connection-lost error on every waiting stream, and refusing
/// later requests the same way) when the server closes the connection or
/// a frame fails to parse.
fn demux_loop(mut sock: TcpStream, inner: Arc<ClientInner>) {
    while let Ok(Some(payload)) = read_frame(&mut sock) {
        let response = match Response::from_payload(&payload) {
            Ok(response) => response,
            Err(_) => break,
        };
        let (id, incoming) = match response {
            Response::Event { id, event } => (id, Incoming::Event(event)),
            Response::QueryFailed { id, error } => (id, Incoming::Failed(error)),
            Response::Ack { id } => (id, Incoming::Ack),
            Response::Stats { id, stats } => (id, Incoming::Stats(stats)),
            Response::Metrics { id, text } => (id, Incoming::Metrics(text)),
            Response::Monitor { id, tree } => (id, Incoming::Monitor(tree)),
        };
        // An unknown id is a dropped stream's late event: discard.
        if let Some(tx) = inner
            .pending
            .lock()
            .unwrap()
            .as_ref()
            .and_then(|p| p.get(&id))
        {
            let _ = tx.send(incoming);
        }
    }
    *inner.pending.lock().unwrap() = None;
}

/// A remote query under construction — the wire twin of the in-process
/// [`QueryBuilder`](crowddb_core::QueryBuilder), with identical knobs and
/// identical implied-mode semantics.
#[must_use = "a query builder does nothing until .run() is called"]
pub struct RemoteQueryBuilder<'client> {
    client: &'client RemoteCrowdDb,
    sql: String,
    policy: ExpansionPolicy,
    mode_explicit: bool,
    // Untouched builders send no policy, so the connection's server-side
    // session defaults apply — touched ones always send their own.
    customized: bool,
}

impl std::fmt::Debug for RemoteQueryBuilder<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RemoteQueryBuilder")
            .field("sql", &self.sql)
            .field("policy", &self.policy)
            .finish_non_exhaustive()
    }
}

impl RemoteQueryBuilder<'_> {
    /// Caps this query's crowd spend at `dollars`; implies
    /// [`ExpansionMode::BestEffort`] unless a mode was set explicitly.
    pub fn budget(mut self, dollars: f64) -> Self {
        self.policy.budget = Some(dollars);
        if !self.mode_explicit {
            self.policy.mode = ExpansionMode::BestEffort;
        }
        self.customized = true;
        self
    }

    /// Sets the expansion mode.
    pub fn mode(mut self, mode: ExpansionMode) -> Self {
        self.policy.mode = mode;
        self.mode_explicit = true;
        self.customized = true;
        self
    }

    /// Requires at least `floor` inter-worker agreement for a crowd
    /// verdict to appear in this query's results.
    pub fn quality_floor(mut self, floor: f64) -> Self {
        self.policy.quality_floor = Some(floor);
        self.customized = true;
        self
    }

    /// Enables adaptive judgment acquisition for this query.
    pub fn adaptive(mut self, enabled: bool) -> Self {
        self.policy.adaptive = enabled;
        self.customized = true;
        self
    }

    /// Replaces the whole policy at once.
    pub fn policy(mut self, policy: ExpansionPolicy) -> Self {
        self.mode_explicit = policy.mode != ExpansionMode::Full;
        self.policy = policy;
        self.customized = true;
        self
    }

    /// Runs the query to completion and returns the final
    /// [`QueryOutcome`] — the same outcome [`stream`](Self::stream) ends
    /// with.  The server runs the query as a blocking `run` and sends only
    /// the terminal frame; no intermediate events are built.
    pub fn run(self) -> Result<QueryOutcome> {
        self.launch(false).wait()
    }

    /// Starts the query as an **anytime** query: returns immediately with
    /// a blocking [`RemoteQueryStream`] yielding the same typed
    /// [`QueryEvent`]s the in-process stream would, as the server forwards
    /// them.  Dropping the stream does not cancel the server-side
    /// expansion — dispatched crowd work completes and is paid for; only
    /// the notifications stop.
    pub fn stream(self) -> RemoteQueryStream {
        self.launch(true)
    }

    fn launch(self, events: bool) -> RemoteQueryStream {
        let inner = Arc::clone(&self.client.inner);
        let id = inner.next_id.fetch_add(1, Ordering::SeqCst);
        let rx = inner.register(id);
        let request = Request::Query {
            id,
            sql: self.sql,
            policy: self.customized.then_some(self.policy),
            events,
        };
        let outcome = match inner.send(&request) {
            Ok(()) => None,
            Err(error) => {
                inner.deregister(id);
                Some(Err(error))
            }
        };
        RemoteQueryStream {
            inner,
            id,
            rx,
            outcome,
            done: false,
        }
    }
}

/// A blocking stream of [`QueryEvent`]s from one remote anytime query —
/// iterate for events, then [`wait`](RemoteQueryStream::wait) for the
/// final [`QueryOutcome`], exactly like the in-process
/// [`QueryStream`](crowddb_core::QueryStream).
#[must_use = "a query stream does nothing until iterated or waited on"]
pub struct RemoteQueryStream {
    inner: Arc<ClientInner>,
    id: u64,
    rx: mpsc::Receiver<Incoming>,
    outcome: Option<Result<Arc<QueryOutcome>>>,
    done: bool,
}

impl std::fmt::Debug for RemoteQueryStream {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RemoteQueryStream")
            .field("id", &self.id)
            .field("done", &self.done)
            .finish_non_exhaustive()
    }
}

impl RemoteQueryStream {
    /// Drains the remaining events and returns the final outcome.  The
    /// `Completed` outcome is moved out of its event, not cloned, unless
    /// the caller still holds that event.
    pub fn wait(mut self) -> Result<QueryOutcome> {
        if let Some(outcome) = self.outcome.take() {
            return outcome.map(Arc::unwrap_or_clone);
        }
        loop {
            if let QueryEvent::Completed(outcome) = self.recv_event()? {
                return Ok(Arc::unwrap_or_clone(outcome));
            }
        }
    }

    /// The final outcome, once the stream has ended (`None` while events
    /// are still pending).
    pub fn outcome(&self) -> Option<std::result::Result<&QueryOutcome, &CrowdDbError>> {
        let outcome = self.outcome.as_ref()?;
        Some(outcome.as_ref().map(|outcome| &**outcome))
    }

    /// Blocks for this query's next message: an event, or the error that
    /// ends the query — its typed failure, a reply of the wrong kind, or
    /// the connection lost before the terminal message.
    fn recv_event(&self) -> Result<QueryEvent> {
        match self.rx.recv() {
            Ok(Incoming::Event(event)) => Ok(event),
            Ok(Incoming::Failed(error)) => Err(error),
            Ok(_) => Err(CrowdDbError::protocol(
                "server answered a query with a non-query reply",
            )),
            Err(mpsc::RecvError) => Err(CrowdDbError::protocol(
                "connection lost before the query completed",
            )),
        }
    }
}

impl Iterator for RemoteQueryStream {
    type Item = QueryEvent;

    fn next(&mut self) -> Option<QueryEvent> {
        if self.done {
            return None;
        }
        if self.outcome.is_some() {
            // The request never made it onto the wire.
            self.done = true;
            return None;
        }
        match self.recv_event() {
            Ok(event) => {
                if let QueryEvent::Completed(outcome) = &event {
                    self.outcome = Some(Ok(Arc::clone(outcome)));
                    self.done = true;
                }
                Some(event)
            }
            Err(error) => {
                self.outcome = Some(Err(error));
                self.done = true;
                None
            }
        }
    }
}

impl Drop for RemoteQueryStream {
    fn drop(&mut self) {
        self.inner.deregister(self.id);
    }
}
