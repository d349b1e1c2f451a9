//! The wire protocol: framing, handshake, and message codecs.
//!
//! Everything on the socket is a **frame**: an 8-byte header — payload
//! length (`u32`, little-endian) followed by the payload's CRC-32
//! ([`storage::crc32`], the same polynomial the WAL uses) — and then the
//! payload itself.  The codec discipline is [`storage`]'s: explicit
//! little-endian primitives through [`Encoder`] / [`Decoder`], one tag byte
//! per enum variant, length-prefixed strings and sequences, so the wire
//! format is an auditable versioned contract rather than an accident of
//! struct layout.  The domain values storage also persists are encoded by
//! storage's own codecs, not by copies here: [`encode_value`] for a cell,
//! [`encode_tag_column`] for a column of provenance marks,
//! [`encode_partition_spec`] for a table's layout.  A cell therefore has
//! the same bytes on the socket as in the log, and a storage decode
//! failure is mapped to [`CrowdDbError::Protocol`] at this boundary.  A
//! row set travels column-major: one row count, each column's values in a
//! run, then each column's provenance with repeated payload-free marks
//! run-length encoded.  A frame that is truncated,
//! oversize ([`MAX_FRAME_LEN`]), or fails its checksum is a
//! [`CrowdDbError::Protocol`] — the connection carrying it is torn down,
//! the server stays up.
//!
//! A connection opens with a **handshake**: the client sends
//! [`ClientHello`] (magic, [`PROTOCOL_VERSION`], optional auth token), the
//! server answers [`HandshakeReply`] — accepted with a session id, or
//! rejected with a reason — and only then do [`Request`] / [`Response`]
//! frames flow.  Requests carry a client-chosen `id` so one connection can
//! run many queries at once; every response names the request it belongs
//! to, and a streamed query's events arrive interleaved with other
//! requests' traffic, demultiplexed by that id.
//!
//! The payload types of the query surface — [`QueryEvent`],
//! [`QueryOutcome`], [`ExpansionPolicy`], [`ExpansionReport`], per-cell
//! [`CellProvenance`], and the full [`CrowdDbError`] enum including every
//! nested engine error — round-trip
//! the codec exactly: a remote caller sees the same typed events and typed
//! errors an in-process caller does.

use crate::server::ServerStats;
use crowddb_core::expansion::ExpansionStage;
use crowddb_core::{
    CrowdDbError, DegradeReason, ExpansionMode, ExpansionPolicy, ExpansionReport, QueryEvent,
    QueryOutcome, Result, RowSet, StatementResult,
};
use relational::{CellProvenance, Grid, PartitionSpec};
use std::io::{Read, Write};
use std::sync::Arc;
use storage::{
    crc32, decode_partition_spec, decode_tag_column, decode_value, encode_partition_spec,
    encode_tag_column, encode_value, skip_value, Decoder, Encoder,
};
use telemetry::MonitorTree;

/// Version of the wire protocol; bumped on any incompatible change.  The
/// handshake rejects a client whose version differs.  Version 2 added the
/// observability surface (stats / metrics / monitor requests, the
/// `Degraded` expansion stage, and the `Overloaded` error).  Version 3
/// added intra-table partitioning: the [`Request::CreateTable`] message
/// and its length-prefixed [`PartitionSpec`] payload field (a spec variant
/// this build does not know decodes as single-partition instead of
/// dropping the connection).  Version 4 sends row sets column-major: one
/// row count instead of a length per row, and provenance through
/// storage's run-length tag-column codec.
pub const PROTOCOL_VERSION: u32 = 4;

/// Ceiling on [`MonitorTree`] nesting the codec will decode.  The live
/// monitor hierarchy is a few levels deep; anything past this bound is a
/// malformed (or hostile) frame, rejected before the recursion can become
/// a stack overflow.
pub const MAX_MONITOR_DEPTH: usize = 64;

/// The four magic bytes opening a [`ClientHello`] — lets the server reject
/// a non-CrowdDb client on the first frame instead of misparsing it.
pub const MAGIC: [u8; 4] = *b"CRWD";

/// Upper bound on a frame's payload length.  A length prefix beyond this is
/// treated as corruption (or hostility) and drops the connection before any
/// allocation happens.
pub const MAX_FRAME_LEN: u32 = 64 * 1024 * 1024;

/// Bytes of a frame's header: the payload length and its CRC-32.
pub const FRAME_HEADER_LEN: usize = 8;

fn protocol_err(message: impl Into<String>) -> CrowdDbError {
    CrowdDbError::protocol(message)
}

fn io_err(context: &str, e: std::io::Error) -> CrowdDbError {
    protocol_err(format!("{context}: {e}"))
}

// Decoder failures (ran off the end of the payload, bad UTF-8, oversize
// sequence, an unknown value or provenance tag) arrive as
// `CrowdDbError::Storage` via the blanket From impl; on the wire they are
// protocol errors — the frame was malformed.
fn as_protocol(e: CrowdDbError) -> CrowdDbError {
    match e {
        CrowdDbError::Storage(m) => protocol_err(format!("malformed message: {m}")),
        other => other,
    }
}

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

/// Writes one frame (header + payload) and flushes the writer.  The frame
/// goes out in a single `write_all` — one segment on a `nodelay` socket,
/// not a header segment and a payload segment.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> Result<()> {
    write_whole_frame(w, &frame(payload))
}

/// A whole frame, header and then a copy of `payload`.
/// [`Response::to_frame`] builds a response's frame without the copy.
pub fn frame(payload: &[u8]) -> Vec<u8> {
    let mut frame = Vec::with_capacity(FRAME_HEADER_LEN + payload.len());
    frame.extend_from_slice(&[0; FRAME_HEADER_LEN]);
    frame.extend_from_slice(payload);
    seal_frame(frame)
}

/// Writes a whole frame ([`frame`], [`Response::to_frame`]) with a single
/// `write_all`, then flushes the writer.  A payload past
/// [`MAX_FRAME_LEN`] is refused before any byte is written.
pub fn write_whole_frame(w: &mut impl Write, frame: &[u8]) -> Result<()> {
    let len = frame.len().saturating_sub(FRAME_HEADER_LEN);
    if len > MAX_FRAME_LEN as usize {
        return Err(protocol_err(format!(
            "frame payload of {len} bytes exceeds the {MAX_FRAME_LEN}-byte limit"
        )));
    }
    w.write_all(frame).map_err(|e| io_err("frame write", e))?;
    w.flush().map_err(|e| io_err("frame flush", e))
}

/// Fills in the header of `frame`, whose first [`FRAME_HEADER_LEN`] bytes
/// were reserved for it: the payload's length and CRC-32.  (A payload
/// too long for the length field is refused by [`write_whole_frame`].)
fn seal_frame(mut frame: Vec<u8>) -> Vec<u8> {
    let len = (frame.len() - FRAME_HEADER_LEN) as u32;
    let crc = crc32(&frame[FRAME_HEADER_LEN..]);
    frame[..4].copy_from_slice(&len.to_le_bytes());
    frame[4..FRAME_HEADER_LEN].copy_from_slice(&crc.to_le_bytes());
    frame
}

/// Reads one frame's payload, verifying length bound and checksum.
///
/// Returns `Ok(None)` on a clean end-of-stream (the peer closed the
/// connection *between* frames); end-of-stream in the middle of a frame,
/// an oversize length prefix, and a checksum mismatch are all
/// [`CrowdDbError::Protocol`] errors.
pub fn read_frame(r: &mut impl Read) -> Result<Option<Vec<u8>>> {
    let mut header = [0u8; FRAME_HEADER_LEN];
    let mut read = 0;
    while read < header.len() {
        match r.read(&mut header[read..]) {
            Ok(0) if read == 0 => return Ok(None),
            Ok(0) => {
                return Err(protocol_err(format!(
                    "connection closed mid-frame-header ({read} of 8 bytes)"
                )))
            }
            Ok(n) => read += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(io_err("frame header read", e)),
        }
    }
    let len = u32::from_le_bytes(header[..4].try_into().unwrap());
    let want_crc = u32::from_le_bytes(header[4..].try_into().unwrap());
    if len > MAX_FRAME_LEN {
        return Err(protocol_err(format!(
            "frame length {len} exceeds the {MAX_FRAME_LEN}-byte limit"
        )));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)
        .map_err(|e| io_err("frame payload read", e))?;
    let got_crc = crc32(&payload);
    if got_crc != want_crc {
        return Err(protocol_err(format!(
            "frame checksum mismatch: header says {want_crc:#010x}, payload hashes to {got_crc:#010x}"
        )));
    }
    Ok(Some(payload))
}

// ---------------------------------------------------------------------------
// Handshake
// ---------------------------------------------------------------------------

/// The first frame of a connection, client → server.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClientHello {
    /// The client's [`PROTOCOL_VERSION`]; the server rejects a mismatch.
    pub protocol_version: u32,
    /// Shared-secret auth token; must match the server's configured token
    /// (`None` ⇔ the server requires none).
    pub auth_token: Option<String>,
}

impl ClientHello {
    /// Encodes the hello into a frame payload.
    pub fn to_payload(&self) -> Vec<u8> {
        let mut e = Encoder::new();
        for byte in MAGIC {
            e.u8(byte);
        }
        e.u32(self.protocol_version);
        encode_opt_str(&mut e, self.auth_token.as_deref());
        e.into_bytes()
    }

    /// Decodes a hello, verifying the magic bytes first.
    pub fn from_payload(bytes: &[u8]) -> Result<ClientHello> {
        ClientHello::from_payload_inner(bytes).map_err(as_protocol)
    }

    fn from_payload_inner(bytes: &[u8]) -> Result<ClientHello> {
        let mut d = Decoder::new(bytes);
        let mut magic = [0u8; 4];
        for slot in &mut magic {
            *slot = d.u8()?;
        }
        if magic != MAGIC {
            return Err(protocol_err(format!(
                "bad magic {magic:02x?}: not a CrowdDb client"
            )));
        }
        let hello = ClientHello {
            protocol_version: d.u32()?,
            auth_token: decode_opt_str(&mut d)?,
        };
        expect_exhausted(&d)?;
        Ok(hello)
    }
}

/// The server's answer to a [`ClientHello`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HandshakeReply {
    /// The connection is live; requests may flow.
    Accepted {
        /// The server's [`PROTOCOL_VERSION`] (equal to the client's).
        protocol_version: u32,
        /// Server-assigned id of this connection's session.
        session_id: u64,
    },
    /// The connection is refused; the server closes it after this frame.
    Rejected {
        /// Why (version mismatch, bad token, shutdown, …).
        reason: String,
    },
}

impl HandshakeReply {
    /// Encodes the reply into a frame payload.
    pub fn to_payload(&self) -> Vec<u8> {
        let mut e = Encoder::new();
        match self {
            HandshakeReply::Accepted {
                protocol_version,
                session_id,
            } => {
                e.u8(0);
                e.u32(*protocol_version);
                e.u64(*session_id);
            }
            HandshakeReply::Rejected { reason } => {
                e.u8(1);
                e.str(reason);
            }
        }
        e.into_bytes()
    }

    /// Decodes a reply.
    pub fn from_payload(bytes: &[u8]) -> Result<HandshakeReply> {
        HandshakeReply::from_payload_inner(bytes).map_err(as_protocol)
    }

    fn from_payload_inner(bytes: &[u8]) -> Result<HandshakeReply> {
        let mut d = Decoder::new(bytes);
        let reply = match d.u8()? {
            0 => HandshakeReply::Accepted {
                protocol_version: d.u32()?,
                session_id: d.u64()?,
            },
            1 => HandshakeReply::Rejected { reason: d.str()? },
            tag => return Err(protocol_err(format!("unknown handshake reply tag {tag}"))),
        };
        expect_exhausted(&d)?;
        Ok(reply)
    }
}

// ---------------------------------------------------------------------------
// Requests and responses
// ---------------------------------------------------------------------------

/// One client → server message (after the handshake).
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Start a query.  With `events`, the server streams every
    /// [`QueryEvent`] as it is produced (the remote anytime path); without,
    /// only the terminal `Completed` (or failure) comes back — the remote
    /// equivalent of a blocking `run()`.
    Query {
        /// Client-chosen id all of this query's responses carry.
        id: u64,
        /// The SQL text (a `WITH EXPANSION` clause works as in-process).
        sql: String,
        /// Explicit per-query policy; `None` applies the connection's
        /// session defaults ([`Request::SetDefaults`]).
        policy: Option<ExpansionPolicy>,
        /// Whether intermediate events (snapshot, progress, deltas) are
        /// wanted.
        events: bool,
    },
    /// Replace the connection's session-default [`ExpansionPolicy`]
    /// (answered with [`Response::Ack`]).
    SetDefaults {
        /// Id echoed on the acknowledgement.
        id: u64,
        /// The new defaults.
        policy: ExpansionPolicy,
    },
    /// Liveness check (answered with [`Response::Ack`]).
    Ping {
        /// Id echoed on the acknowledgement.
        id: u64,
    },
    /// Snapshot the server's connection/query counters (answered with
    /// [`Response::Stats`]).
    Stats {
        /// Id echoed on the reply.
        id: u64,
    },
    /// Scrape the engine's full metric catalog as Prometheus text
    /// (answered with [`Response::Metrics`]).
    Metrics {
        /// Id echoed on the reply.
        id: u64,
    },
    /// Snapshot the engine's live state-monitor tree (answered with
    /// [`Response::Monitor`]).
    Monitor {
        /// Id echoed on the reply.
        id: u64,
    },
    /// Create a table with an explicit storage partition layout (answered
    /// with [`Response::Ack`], or [`Response::QueryFailed`] carrying the
    /// typed error).  Plain SQL `CREATE TABLE` through
    /// [`Request::Query`] stays single-partition; this message is the
    /// remote twin of the in-process
    /// [`TableOptions`](crowddb_core::TableOptions) builder.  Added in
    /// protocol version 3.
    CreateTable {
        /// Id echoed on the acknowledgement.
        id: u64,
        /// The `CREATE TABLE` DDL defining the table's name and schema.
        sql: String,
        /// Partition layout of the new table's storage.
        partitions: PartitionSpec,
    },
    /// Clean shutdown: the server tears the connection down.  In-flight
    /// queries keep running server-side (their crowd work completes and is
    /// cached); only the notifications stop.
    Goodbye,
}

/// Encodes a [`PartitionSpec`] as a *versioned payload field*: the spec's
/// own codec ([`encode_partition_spec`]) wrapped in a length prefix, so a
/// decoder that does not understand the variant inside can still consume
/// exactly the right number of bytes and keep the frame parseable.
fn encode_spec_field(e: &mut Encoder, spec: &PartitionSpec) {
    let mut sub = Encoder::new();
    encode_partition_spec(&mut sub, spec);
    let bytes = sub.into_bytes();
    e.seq_len(bytes.len());
    for byte in bytes {
        e.u8(byte);
    }
}

/// Decodes a [`PartitionSpec`] field written by [`encode_spec_field`].
/// An unknown spec variant (a newer peer's layout) decodes as
/// [`PartitionSpec::Single`] — the universally valid fallback — instead of
/// failing the frame; the length prefix keeps the decoder aligned either
/// way.
fn decode_spec_field(d: &mut Decoder<'_>) -> Result<PartitionSpec> {
    let len = d.seq_len()?;
    let mut bytes = Vec::with_capacity(len);
    for _ in 0..len {
        bytes.push(d.u8()?);
    }
    let mut sub = Decoder::new(&bytes);
    match decode_partition_spec(&mut sub) {
        Ok(spec) if sub.is_exhausted() => Ok(spec),
        _ => Ok(PartitionSpec::Single),
    }
}

impl Request {
    /// Encodes the request into a frame payload.
    pub fn to_payload(&self) -> Vec<u8> {
        let mut e = Encoder::new();
        match self {
            Request::Query {
                id,
                sql,
                policy,
                events,
            } => {
                e.u8(0);
                e.u64(*id);
                e.str(sql);
                match policy {
                    Some(policy) => {
                        e.bool(true);
                        encode_policy(&mut e, policy);
                    }
                    None => e.bool(false),
                }
                e.bool(*events);
            }
            Request::SetDefaults { id, policy } => {
                e.u8(1);
                e.u64(*id);
                encode_policy(&mut e, policy);
            }
            Request::Ping { id } => {
                e.u8(2);
                e.u64(*id);
            }
            Request::Goodbye => e.u8(3),
            Request::Stats { id } => {
                e.u8(4);
                e.u64(*id);
            }
            Request::Metrics { id } => {
                e.u8(5);
                e.u64(*id);
            }
            Request::Monitor { id } => {
                e.u8(6);
                e.u64(*id);
            }
            Request::CreateTable {
                id,
                sql,
                partitions,
            } => {
                e.u8(7);
                e.u64(*id);
                e.str(sql);
                encode_spec_field(&mut e, partitions);
            }
        }
        e.into_bytes()
    }

    /// Decodes a request.
    pub fn from_payload(bytes: &[u8]) -> Result<Request> {
        Request::from_payload_inner(bytes).map_err(as_protocol)
    }

    fn from_payload_inner(bytes: &[u8]) -> Result<Request> {
        let mut d = Decoder::new(bytes);
        let request = match d.u8()? {
            0 => {
                let id = d.u64()?;
                let sql = d.str()?;
                let policy = if d.bool()? {
                    Some(decode_policy(&mut d)?)
                } else {
                    None
                };
                Request::Query {
                    id,
                    sql,
                    policy,
                    events: d.bool()?,
                }
            }
            1 => Request::SetDefaults {
                id: d.u64()?,
                policy: decode_policy(&mut d)?,
            },
            2 => Request::Ping { id: d.u64()? },
            3 => Request::Goodbye,
            4 => Request::Stats { id: d.u64()? },
            5 => Request::Metrics { id: d.u64()? },
            6 => Request::Monitor { id: d.u64()? },
            7 => Request::CreateTable {
                id: d.u64()?,
                sql: d.str()?,
                partitions: decode_spec_field(&mut d)?,
            },
            tag => return Err(protocol_err(format!("unknown request tag {tag}"))),
        };
        expect_exhausted(&d)?;
        Ok(request)
    }
}

/// One server → client message, tagged with the request it answers.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// One event of a streamed query.  `Completed` is always the final
    /// event of a successful query, exactly as in-process.
    Event {
        /// The query's request id.
        id: u64,
        /// The event, bit-identical to the in-process stream's.
        event: QueryEvent,
    },
    /// The query failed; this is its terminal message.
    QueryFailed {
        /// The query's request id.
        id: u64,
        /// The typed error, round-tripped through the codec.
        error: CrowdDbError,
    },
    /// Acknowledges a [`Request::SetDefaults`] or [`Request::Ping`].
    Ack {
        /// The acknowledged request's id.
        id: u64,
    },
    /// Answers a [`Request::Stats`] with the server's counters.
    Stats {
        /// The answered request's id.
        id: u64,
        /// The counter snapshot.
        stats: ServerStats,
    },
    /// Answers a [`Request::Metrics`] with the engine's metric catalog
    /// rendered as Prometheus text exposition.
    Metrics {
        /// The answered request's id.
        id: u64,
        /// The scrape body; parse it with [`telemetry::parse_text`].
        text: String,
    },
    /// Answers a [`Request::Monitor`] with a snapshot of the engine's
    /// live state-monitor tree.
    Monitor {
        /// The answered request's id.
        id: u64,
        /// The monitor tree at snapshot time.
        tree: MonitorTree,
    },
}

impl Response {
    /// Encodes the response into a frame payload.  Fails only on a
    /// [`QueryEvent`] variant this protocol version cannot express.
    pub fn to_payload(&self) -> Result<Vec<u8>> {
        let mut e = Encoder::new();
        self.encode(&mut e)?;
        Ok(e.into_bytes())
    }

    /// Encodes the response as a whole frame, header included, for
    /// [`write_whole_frame`]: the header's room is reserved ahead of the
    /// payload and filled in once the payload is encoded, so the payload
    /// is never copied.  Fails as [`Response::to_payload`] does.
    pub fn to_frame(&self) -> Result<Vec<u8>> {
        let mut e = Encoder::new();
        e.u64(0); // the header's room: FRAME_HEADER_LEN bytes
        self.encode(&mut e)?;
        Ok(seal_frame(e.into_bytes()))
    }

    fn encode(&self, e: &mut Encoder) -> Result<()> {
        match self {
            Response::Event { id, event } => {
                e.u8(0);
                e.u64(*id);
                encode_event(e, event)?;
            }
            Response::QueryFailed { id, error } => {
                e.u8(1);
                e.u64(*id);
                encode_error(e, error);
            }
            Response::Ack { id } => {
                e.u8(2);
                e.u64(*id);
            }
            Response::Stats { id, stats } => {
                e.u8(3);
                e.u64(*id);
                encode_server_stats(e, stats);
            }
            Response::Metrics { id, text } => {
                e.u8(4);
                e.u64(*id);
                e.str(text);
            }
            Response::Monitor { id, tree } => {
                e.u8(5);
                e.u64(*id);
                encode_monitor_tree(e, tree);
            }
        }
        Ok(())
    }

    /// Decodes a response.
    pub fn from_payload(bytes: &[u8]) -> Result<Response> {
        Response::from_payload_inner(bytes).map_err(as_protocol)
    }

    fn from_payload_inner(bytes: &[u8]) -> Result<Response> {
        let mut d = Decoder::new(bytes);
        let response = match d.u8()? {
            0 => Response::Event {
                id: d.u64()?,
                event: decode_event(&mut d)?,
            },
            1 => Response::QueryFailed {
                id: d.u64()?,
                error: decode_error(&mut d)?,
            },
            2 => Response::Ack { id: d.u64()? },
            3 => Response::Stats {
                id: d.u64()?,
                stats: decode_server_stats(&mut d)?,
            },
            4 => Response::Metrics {
                id: d.u64()?,
                text: d.str()?,
            },
            5 => Response::Monitor {
                id: d.u64()?,
                tree: decode_monitor_tree(&mut d)?,
            },
            tag => return Err(protocol_err(format!("unknown response tag {tag}"))),
        };
        expect_exhausted(&d)?;
        Ok(response)
    }
}

// ---------------------------------------------------------------------------
// Payload codecs
// ---------------------------------------------------------------------------

fn expect_exhausted(d: &Decoder<'_>) -> Result<()> {
    if d.is_exhausted() {
        Ok(())
    } else {
        Err(protocol_err("trailing bytes after a well-formed message"))
    }
}

fn encode_opt_str(e: &mut Encoder, v: Option<&str>) {
    match v {
        Some(s) => {
            e.bool(true);
            e.str(s);
        }
        None => e.bool(false),
    }
}

fn decode_opt_str(d: &mut Decoder<'_>) -> Result<Option<String>> {
    Ok(if d.bool()? { Some(d.str()?) } else { None })
}

fn encode_opt_f64(e: &mut Encoder, v: Option<f64>) {
    match v {
        Some(x) => {
            e.bool(true);
            e.f64(x);
        }
        None => e.bool(false),
    }
}

fn decode_opt_f64(d: &mut Decoder<'_>) -> Result<Option<f64>> {
    Ok(if d.bool()? { Some(d.f64()?) } else { None })
}

fn encode_mode(e: &mut Encoder, mode: ExpansionMode) {
    e.u8(match mode {
        ExpansionMode::Deny => 0,
        ExpansionMode::CacheOnly => 1,
        ExpansionMode::BestEffort => 2,
        ExpansionMode::Full => 3,
        // `ExpansionMode` is #[non_exhaustive]; a future mode this protocol
        // version cannot name degrades to Full, the engine default.
        _ => 3,
    });
}

fn decode_mode(d: &mut Decoder<'_>) -> Result<ExpansionMode> {
    Ok(match d.u8()? {
        0 => ExpansionMode::Deny,
        1 => ExpansionMode::CacheOnly,
        2 => ExpansionMode::BestEffort,
        3 => ExpansionMode::Full,
        tag => return Err(protocol_err(format!("unknown expansion mode tag {tag}"))),
    })
}

/// Encodes an [`ExpansionPolicy`] (mode, budget, quality floor, adaptive).
pub fn encode_policy(e: &mut Encoder, policy: &ExpansionPolicy) {
    encode_mode(e, policy.mode);
    encode_opt_f64(e, policy.budget);
    encode_opt_f64(e, policy.quality_floor);
    e.bool(policy.adaptive);
}

/// Decodes an [`ExpansionPolicy`].
pub fn decode_policy(d: &mut Decoder<'_>) -> Result<ExpansionPolicy> {
    decode_policy_inner(d).map_err(as_protocol)
}

fn decode_policy_inner(d: &mut Decoder<'_>) -> Result<ExpansionPolicy> {
    let mut policy = ExpansionPolicy::full();
    policy.mode = decode_mode(d)?;
    policy.budget = decode_opt_f64(d)?;
    policy.quality_floor = decode_opt_f64(d)?;
    policy.adaptive = d.bool()?;
    Ok(policy)
}

/// Encodes a row set column-major: the column names, one row count, each
/// column's values in a run (each with its tag byte), then each column's
/// provenance as a run-length tag column ([`encode_tag_column`]).
fn encode_rowset(e: &mut Encoder, rows: &RowSet) {
    debug_assert!(rows.rows.is_empty() || rows.rows.width() == rows.columns.len());
    debug_assert_eq!(rows.provenance.len(), rows.rows.len());
    e.seq_len(rows.columns.len());
    for column in &rows.columns {
        e.str(column);
    }
    e.u64(rows.rows.len() as u64);
    for column in 0..rows.rows.width() {
        for value in rows.rows.column(column) {
            encode_value(e, value);
        }
    }
    for column in 0..rows.provenance.width() {
        encode_tag_column(e, rows.provenance.column(column));
    }
}

/// Decodes a row set written by [`encode_rowset`] straight into its two
/// grids: the values row by row, through one cursor per column, the
/// provenance column by column.  Neither takes a per-column vector or a
/// transpose pass.
fn decode_rowset(d: &mut Decoder<'_>) -> Result<RowSet> {
    let n_columns = d.seq_len()?;
    let mut columns = Vec::with_capacity(n_columns);
    for _ in 0..n_columns {
        columns.push(d.str()?);
    }
    let n_rows = d.u64()?;
    // Every value takes at least its tag byte, so the bytes left bound the
    // cells before anything is reserved.  (Provenance cells need not: a
    // run covers many.)  Rows of no column would take no byte, so nothing
    // could bound their count; the engine's only row sets of no column
    // are those of DDL and DML statements, which have no rows.
    let cells = usize::try_from(n_rows)
        .ok()
        .and_then(|n_rows| n_rows.checked_mul(n_columns));
    let (n_rows, n_cells) = match cells {
        Some(cells) if cells <= d.remaining() && (n_columns > 0 || n_rows == 0) => {
            (n_rows as usize, cells)
        }
        _ => {
            return Err(protocol_err(format!(
                "a row set of {n_rows} rows of {n_columns} columns in {} bytes",
                d.remaining()
            )))
        }
    };
    // One cursor per column: each column's values start where the
    // previous column's end, so stepping over all but the last column
    // finds every start.  The rows are then decoded in order, a value
    // from each cursor, and the last cursor ends where provenance begins.
    let mut cursors = Vec::with_capacity(n_columns);
    let mut start = d.clone();
    for column in 0..n_columns {
        cursors.push(start.clone());
        if column + 1 < n_columns {
            for _ in 0..n_rows {
                skip_value(&mut start)?;
            }
        }
    }
    let mut cells = Vec::with_capacity(n_cells);
    while cells.len() < n_cells {
        for cursor in &mut cursors {
            cells.push(decode_value(cursor)?);
        }
    }
    let rows = Grid::from_cells(n_columns, n_rows, cells);
    if let Some(last) = cursors.pop() {
        *d = last;
    }
    let mut provenance = Grid::filled(n_columns, n_rows, CellProvenance::Stored);
    for column in 0..n_columns {
        decode_tag_column(d, provenance.column_mut(column))?;
    }
    Ok(RowSet {
        columns,
        rows,
        provenance,
    })
}

fn encode_degrade_reason(e: &mut Encoder, reason: DegradeReason) {
    e.u8(match reason {
        DegradeReason::ConcurrencyPressure => 0,
        DegradeReason::DollarRateExceeded => 1,
        DegradeReason::QueuePressure => 2,
    });
}

fn decode_degrade_reason(d: &mut Decoder<'_>) -> Result<DegradeReason> {
    Ok(match d.u8()? {
        0 => DegradeReason::ConcurrencyPressure,
        1 => DegradeReason::DollarRateExceeded,
        2 => DegradeReason::QueuePressure,
        tag => return Err(protocol_err(format!("unknown degrade reason tag {tag}"))),
    })
}

fn encode_stage(e: &mut Encoder, stage: &ExpansionStage) {
    match stage {
        ExpansionStage::MissingAttributeDetected => e.u8(0),
        ExpansionStage::ExpansionPlanned => e.u8(1),
        ExpansionStage::JudgmentsReused => e.u8(2),
        ExpansionStage::JoinedInflightRound => e.u8(3),
        ExpansionStage::BudgetExhausted => e.u8(4),
        ExpansionStage::ColumnAdded => e.u8(5),
        ExpansionStage::CrowdSourcingStarted => e.u8(6),
        ExpansionStage::JudgmentsAggregated => e.u8(7),
        ExpansionStage::ExtractorTrained => e.u8(8),
        ExpansionStage::ColumnMaterialized => e.u8(9),
        ExpansionStage::QueryReExecuted => e.u8(10),
        ExpansionStage::Degraded { from, to, reason } => {
            e.u8(11);
            encode_mode(e, *from);
            encode_mode(e, *to);
            encode_degrade_reason(e, *reason);
        }
    }
}

fn decode_stage(d: &mut Decoder<'_>) -> Result<ExpansionStage> {
    Ok(match d.u8()? {
        0 => ExpansionStage::MissingAttributeDetected,
        1 => ExpansionStage::ExpansionPlanned,
        2 => ExpansionStage::JudgmentsReused,
        3 => ExpansionStage::JoinedInflightRound,
        4 => ExpansionStage::BudgetExhausted,
        5 => ExpansionStage::ColumnAdded,
        6 => ExpansionStage::CrowdSourcingStarted,
        7 => ExpansionStage::JudgmentsAggregated,
        8 => ExpansionStage::ExtractorTrained,
        9 => ExpansionStage::ColumnMaterialized,
        10 => ExpansionStage::QueryReExecuted,
        11 => ExpansionStage::Degraded {
            from: decode_mode(d)?,
            to: decode_mode(d)?,
            reason: decode_degrade_reason(d)?,
        },
        tag => return Err(protocol_err(format!("unknown expansion stage tag {tag}"))),
    })
}

/// Encodes a [`ServerStats`] counter snapshot.
pub fn encode_server_stats(e: &mut Encoder, stats: &ServerStats) {
    e.u64(stats.connections_accepted);
    e.u64(stats.connections_active);
    e.u64(stats.handshakes_rejected);
    e.u64(stats.protocol_errors);
    e.u64(stats.queries_started);
    e.u64(stats.queries_completed);
}

/// Decodes a [`ServerStats`] counter snapshot.
pub fn decode_server_stats(d: &mut Decoder<'_>) -> Result<ServerStats> {
    decode_server_stats_inner(d).map_err(as_protocol)
}

fn decode_server_stats_inner(d: &mut Decoder<'_>) -> Result<ServerStats> {
    Ok(ServerStats {
        connections_accepted: d.u64()?,
        connections_active: d.u64()?,
        handshakes_rejected: d.u64()?,
        protocol_errors: d.u64()?,
        queries_started: d.u64()?,
        queries_completed: d.u64()?,
    })
}

/// Encodes a [`MonitorTree`] snapshot: name, sorted values, children,
/// recursively.
pub fn encode_monitor_tree(e: &mut Encoder, tree: &MonitorTree) {
    e.str(&tree.name);
    e.seq_len(tree.values.len());
    for (key, value) in &tree.values {
        e.str(key);
        e.str(value);
    }
    e.seq_len(tree.children.len());
    for child in &tree.children {
        encode_monitor_tree(e, child);
    }
}

/// Decodes a [`MonitorTree`], rejecting nesting past [`MAX_MONITOR_DEPTH`].
pub fn decode_monitor_tree(d: &mut Decoder<'_>) -> Result<MonitorTree> {
    decode_monitor_tree_at(d, 0).map_err(as_protocol)
}

fn decode_monitor_tree_at(d: &mut Decoder<'_>, depth: usize) -> Result<MonitorTree> {
    if depth > MAX_MONITOR_DEPTH {
        return Err(protocol_err(format!(
            "monitor tree nests deeper than {MAX_MONITOR_DEPTH} levels"
        )));
    }
    let name = d.str()?;
    let n_values = d.seq_len()?;
    let mut values = Vec::with_capacity(n_values);
    for _ in 0..n_values {
        let key = d.str()?;
        let value = d.str()?;
        values.push((key, value));
    }
    let n_children = d.seq_len()?;
    let mut children = Vec::with_capacity(n_children);
    for _ in 0..n_children {
        children.push(decode_monitor_tree_at(d, depth + 1)?);
    }
    Ok(MonitorTree {
        name,
        values,
        children,
    })
}

fn encode_report(e: &mut Encoder, report: &ExpansionReport) {
    e.str(&report.table);
    e.str(&report.column);
    e.str(&report.attribute);
    e.str(&report.strategy);
    e.seq_len(report.stages.len());
    for stage in &report.stages {
        encode_stage(e, stage);
    }
    e.u64(report.items_crowd_sourced as u64);
    e.u64(report.judgments_collected as u64);
    e.u64(report.rows_filled as u64);
    e.u64(report.rows_unfilled as u64);
    e.f64(report.crowd_cost);
    e.f64(report.crowd_minutes);
    e.u64(report.training_set_size as u64);
    e.u64(report.cache_hits as u64);
    e.u64(report.cache_misses as u64);
    e.f64(report.cost_saved);
    e.u64(report.items_unmapped as u64);
    e.u64(report.items_coalesced as u64);
    e.u64(report.items_dropped as u64);
}

fn decode_report(d: &mut Decoder<'_>) -> Result<ExpansionReport> {
    let table = d.str()?;
    let column = d.str()?;
    let attribute = d.str()?;
    let strategy = d.str()?;
    let n_stages = d.seq_len()?;
    let mut stages = Vec::with_capacity(n_stages);
    for _ in 0..n_stages {
        stages.push(decode_stage(d)?);
    }
    Ok(ExpansionReport {
        table,
        column,
        attribute,
        strategy,
        stages,
        items_crowd_sourced: d.u64()? as usize,
        judgments_collected: d.u64()? as usize,
        rows_filled: d.u64()? as usize,
        rows_unfilled: d.u64()? as usize,
        crowd_cost: d.f64()?,
        crowd_minutes: d.f64()?,
        training_set_size: d.u64()? as usize,
        cache_hits: d.u64()? as usize,
        cache_misses: d.u64()? as usize,
        cost_saved: d.f64()?,
        items_unmapped: d.u64()? as usize,
        items_coalesced: d.u64()? as usize,
        items_dropped: d.u64()? as usize,
    })
}

/// Encodes a [`QueryOutcome`] (policy, result, reports, cost).
pub fn encode_outcome(e: &mut Encoder, outcome: &QueryOutcome) {
    encode_policy(e, &outcome.policy);
    match &outcome.result {
        StatementResult::Rows(rows) => {
            e.u8(0);
            encode_rowset(e, rows);
        }
        StatementResult::Mutation { rows_affected } => {
            e.u8(1);
            e.u64(*rows_affected as u64);
        }
        // #[non_exhaustive]: a future statement shape degrades to an empty
        // mutation rather than a lie about rows.
        _ => {
            e.u8(1);
            e.u64(0);
        }
    }
    e.seq_len(outcome.reports.len());
    for report in &outcome.reports {
        encode_report(e, report);
    }
    e.f64(outcome.crowd_cost);
}

/// Decodes a [`QueryOutcome`].
pub fn decode_outcome(d: &mut Decoder<'_>) -> Result<QueryOutcome> {
    decode_outcome_inner(d).map_err(as_protocol)
}

fn decode_outcome_inner(d: &mut Decoder<'_>) -> Result<QueryOutcome> {
    let policy = decode_policy(d)?;
    let result = match d.u8()? {
        0 => StatementResult::Rows(decode_rowset(d)?),
        1 => StatementResult::Mutation {
            rows_affected: d.u64()? as usize,
        },
        tag => return Err(protocol_err(format!("unknown statement result tag {tag}"))),
    };
    let n_reports = d.seq_len()?;
    let mut reports = Vec::with_capacity(n_reports);
    for _ in 0..n_reports {
        reports.push(decode_report(d)?);
    }
    let crowd_cost = d.f64()?;
    Ok(QueryOutcome::new(policy, result, reports, crowd_cost))
}

/// Encodes a [`QueryEvent`].  Fails on an event variant this protocol
/// version cannot express (`QueryEvent` is `#[non_exhaustive]`): the
/// server skips such events rather than sending garbage.
pub fn encode_event(e: &mut Encoder, event: &QueryEvent) -> Result<()> {
    match event {
        QueryEvent::Snapshot(rows) => {
            e.u8(0);
            encode_rowset(e, rows);
        }
        QueryEvent::Delta {
            rows,
            concept,
            round,
            cost_so_far,
            ..
        } => {
            e.u8(1);
            encode_rowset(e, rows);
            e.str(concept);
            e.u64(*round as u64);
            e.f64(*cost_so_far);
        }
        QueryEvent::Progress {
            concept,
            items_resolved,
            items_outstanding,
            estimated_completeness,
            estimated_remaining_cost,
            ..
        } => {
            e.u8(2);
            e.str(concept);
            e.u64(*items_resolved as u64);
            e.u64(*items_outstanding as u64);
            e.f64(*estimated_completeness);
            e.f64(*estimated_remaining_cost);
        }
        QueryEvent::Completed(outcome) => {
            e.u8(3);
            encode_outcome(e, outcome);
        }
        other => {
            return Err(protocol_err(format!(
                "query event {other:?} is not expressible in protocol version {PROTOCOL_VERSION}"
            )))
        }
    }
    Ok(())
}

/// Decodes a [`QueryEvent`].
pub fn decode_event(d: &mut Decoder<'_>) -> Result<QueryEvent> {
    decode_event_inner(d).map_err(as_protocol)
}

fn decode_event_inner(d: &mut Decoder<'_>) -> Result<QueryEvent> {
    Ok(match d.u8()? {
        0 => QueryEvent::Snapshot(decode_rowset(d)?),
        1 => {
            let rows = decode_rowset(d)?;
            let concept = d.str()?;
            let round = d.u64()? as usize;
            let cost_so_far = d.f64()?;
            QueryEvent::delta(rows, concept, round, cost_so_far)
        }
        2 => {
            let concept = d.str()?;
            let items_resolved = d.u64()? as usize;
            let items_outstanding = d.u64()? as usize;
            let estimated_completeness = d.f64()?;
            let estimated_remaining_cost = d.f64()?;
            QueryEvent::progress(
                concept,
                items_resolved,
                items_outstanding,
                estimated_completeness,
                estimated_remaining_cost,
            )
        }
        3 => QueryEvent::Completed(Arc::new(decode_outcome(d)?)),
        tag => return Err(protocol_err(format!("unknown query event tag {tag}"))),
    })
}

/// Encodes a [`CrowdDbError`], preserving the exact variant — including
/// every nested engine error — so remote callers match on typed errors,
/// never on strings.
pub fn encode_error(e: &mut Encoder, error: &CrowdDbError) {
    match error {
        CrowdDbError::Relational(sub) => {
            e.u8(0);
            match sub {
                relational::RelationalError::Parse(m) => {
                    e.u8(0);
                    e.str(m);
                }
                relational::RelationalError::UnknownTable(m) => {
                    e.u8(1);
                    e.str(m);
                }
                relational::RelationalError::UnknownColumn { table, column } => {
                    e.u8(2);
                    e.str(table);
                    e.str(column);
                }
                relational::RelationalError::TableExists(m) => {
                    e.u8(3);
                    e.str(m);
                }
                relational::RelationalError::ColumnExists(m) => {
                    e.u8(4);
                    e.str(m);
                }
                relational::RelationalError::TypeMismatch(m) => {
                    e.u8(5);
                    e.str(m);
                }
                relational::RelationalError::InvalidStatement(m) => {
                    e.u8(6);
                    e.str(m);
                }
                relational::RelationalError::Evaluation(m) => {
                    e.u8(7);
                    e.str(m);
                }
            }
        }
        CrowdDbError::Perceptual(sub) => {
            e.u8(1);
            match sub {
                perceptual::PerceptualError::InvalidRatings(m) => {
                    e.u8(0);
                    e.str(m);
                }
                perceptual::PerceptualError::InvalidConfig(m) => {
                    e.u8(1);
                    e.str(m);
                }
                perceptual::PerceptualError::UnknownId(m) => {
                    e.u8(2);
                    e.str(m);
                }
                perceptual::PerceptualError::Numerical(m) => {
                    e.u8(3);
                    e.str(m);
                }
            }
        }
        CrowdDbError::Learning(sub) => {
            e.u8(2);
            match sub {
                mlkit::MlError::InvalidInput(m) => {
                    e.u8(0);
                    e.str(m);
                }
                mlkit::MlError::InvalidParameter(m) => {
                    e.u8(1);
                    e.str(m);
                }
                mlkit::MlError::MissingClass { positive } => {
                    e.u8(2);
                    e.bool(*positive);
                }
                mlkit::MlError::Numerical(m) => {
                    e.u8(3);
                    e.str(m);
                }
            }
        }
        CrowdDbError::Crowd(sub) => {
            e.u8(3);
            match sub {
                crowdsim::CrowdError::InvalidConfig(m) => {
                    e.u8(0);
                    e.str(m);
                }
                crowdsim::CrowdError::UnknownId(m) => {
                    e.u8(1);
                    e.str(m);
                }
            }
        }
        CrowdDbError::UnknownAttribute { table, attribute } => {
            e.u8(4);
            e.str(table);
            e.str(attribute);
        }
        CrowdDbError::Configuration(m) => {
            e.u8(5);
            e.str(m);
        }
        CrowdDbError::Contention(m) => {
            e.u8(6);
            e.str(m);
        }
        CrowdDbError::Storage(m) => {
            e.u8(7);
            e.str(m);
        }
        CrowdDbError::ExpansionDenied { table, columns } => {
            e.u8(8);
            e.str(table);
            e.seq_len(columns.len());
            for column in columns {
                e.str(column);
            }
        }
        CrowdDbError::Protocol { message, .. } => {
            e.u8(9);
            e.str(message);
        }
        CrowdDbError::Overloaded { tenant, reason } => {
            e.u8(10);
            e.str(tenant);
            e.str(reason);
        }
        // `CrowdDbError` is #[non_exhaustive]; an error variant this
        // protocol version cannot name crosses the wire as a Protocol
        // error carrying its rendered message — typed-ness degrades, the
        // diagnosis survives.
        other => {
            e.u8(9);
            e.str(&other.to_string());
        }
    }
}

/// Decodes a [`CrowdDbError`].
pub fn decode_error(d: &mut Decoder<'_>) -> Result<CrowdDbError> {
    decode_error_inner(d).map_err(as_protocol)
}

fn decode_error_inner(d: &mut Decoder<'_>) -> Result<CrowdDbError> {
    Ok(match d.u8()? {
        0 => CrowdDbError::Relational(match d.u8()? {
            0 => relational::RelationalError::Parse(d.str()?),
            1 => relational::RelationalError::UnknownTable(d.str()?),
            2 => relational::RelationalError::UnknownColumn {
                table: d.str()?,
                column: d.str()?,
            },
            3 => relational::RelationalError::TableExists(d.str()?),
            4 => relational::RelationalError::ColumnExists(d.str()?),
            5 => relational::RelationalError::TypeMismatch(d.str()?),
            6 => relational::RelationalError::InvalidStatement(d.str()?),
            7 => relational::RelationalError::Evaluation(d.str()?),
            tag => return Err(protocol_err(format!("unknown relational error tag {tag}"))),
        }),
        1 => CrowdDbError::Perceptual(match d.u8()? {
            0 => perceptual::PerceptualError::InvalidRatings(d.str()?),
            1 => perceptual::PerceptualError::InvalidConfig(d.str()?),
            2 => perceptual::PerceptualError::UnknownId(d.str()?),
            3 => perceptual::PerceptualError::Numerical(d.str()?),
            tag => return Err(protocol_err(format!("unknown perceptual error tag {tag}"))),
        }),
        2 => CrowdDbError::Learning(match d.u8()? {
            0 => mlkit::MlError::InvalidInput(d.str()?),
            1 => mlkit::MlError::InvalidParameter(d.str()?),
            2 => mlkit::MlError::MissingClass {
                positive: d.bool()?,
            },
            3 => mlkit::MlError::Numerical(d.str()?),
            tag => return Err(protocol_err(format!("unknown learning error tag {tag}"))),
        }),
        3 => CrowdDbError::Crowd(match d.u8()? {
            0 => crowdsim::CrowdError::InvalidConfig(d.str()?),
            1 => crowdsim::CrowdError::UnknownId(d.str()?),
            tag => return Err(protocol_err(format!("unknown crowd error tag {tag}"))),
        }),
        4 => CrowdDbError::UnknownAttribute {
            table: d.str()?,
            attribute: d.str()?,
        },
        5 => CrowdDbError::Configuration(d.str()?),
        6 => CrowdDbError::Contention(d.str()?),
        7 => CrowdDbError::Storage(d.str()?),
        8 => {
            let table = d.str()?;
            let n_columns = d.seq_len()?;
            let mut columns = Vec::with_capacity(n_columns);
            for _ in 0..n_columns {
                columns.push(d.str()?);
            }
            CrowdDbError::ExpansionDenied { table, columns }
        }
        9 => CrowdDbError::protocol(d.str()?),
        10 => CrowdDbError::Overloaded {
            tenant: d.str()?,
            reason: d.str()?,
        },
        tag => return Err(protocol_err(format!("unknown error tag {tag}"))),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowddb_core::expansion::ExpansionStage;
    use crowddb_core::MissingReason;
    use proptest::prelude::*;
    use relational::Value;

    fn frame_round_trip(payload: &[u8]) -> Vec<u8> {
        let mut buf = Vec::new();
        write_frame(&mut buf, payload).unwrap();
        let mut cursor = &buf[..];
        read_frame(&mut cursor).unwrap().unwrap()
    }

    #[test]
    fn frames_round_trip_and_detect_damage() {
        assert_eq!(frame_round_trip(b"hello"), b"hello");
        assert_eq!(frame_round_trip(b""), b"");

        // Clean EOF between frames.
        let mut empty: &[u8] = &[];
        assert!(read_frame(&mut empty).unwrap().is_none());

        // Truncated header.
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        let mut cursor = &buf[..3];
        assert!(matches!(
            read_frame(&mut cursor),
            Err(CrowdDbError::Protocol { .. })
        ));

        // Truncated payload.
        let mut cursor = &buf[..buf.len() - 2];
        assert!(matches!(
            read_frame(&mut cursor),
            Err(CrowdDbError::Protocol { .. })
        ));

        // Flipped payload byte fails the checksum.
        let mut corrupt = buf.clone();
        let last = corrupt.len() - 1;
        corrupt[last] ^= 0x40;
        let mut cursor = &corrupt[..];
        let err = read_frame(&mut cursor).unwrap_err();
        assert!(err.to_string().contains("checksum"), "{err}");

        // An oversize length prefix is rejected before any allocation.
        let mut oversize = Vec::new();
        oversize.extend_from_slice(&(MAX_FRAME_LEN + 1).to_le_bytes());
        oversize.extend_from_slice(&0u32.to_le_bytes());
        let mut cursor = &oversize[..];
        let err = read_frame(&mut cursor).unwrap_err();
        assert!(err.to_string().contains("exceeds"), "{err}");
    }

    /// A writer that records each `write` call it gets.
    #[derive(Default)]
    struct CountingWriter {
        bytes: Vec<u8>,
        writes: usize,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// A frame goes to the writer in one `write` call — one segment on a
    /// `nodelay` socket — with the header its reader expects, whichever
    /// way it was built.
    #[test]
    fn a_frame_is_one_write() {
        let response = Response::Event {
            id: 3,
            event: QueryEvent::Snapshot(sample_rowset()),
        };
        let payload = response.to_payload().unwrap();
        let mut header = (payload.len() as u32).to_le_bytes().to_vec();
        header.extend_from_slice(&crc32(&payload).to_le_bytes());

        let mut w = CountingWriter::default();
        write_frame(&mut w, &payload).unwrap();
        assert_eq!(w.writes, 1);
        assert_eq!(w.bytes[..FRAME_HEADER_LEN], header[..]);
        assert_eq!(w.bytes[FRAME_HEADER_LEN..], payload[..]);

        let whole = response.to_frame().unwrap();
        assert_eq!(whole, w.bytes);
        let mut w = CountingWriter::default();
        write_whole_frame(&mut w, &whole).unwrap();
        assert_eq!(w.writes, 1);
        assert_eq!(read_frame(&mut &w.bytes[..]).unwrap().unwrap(), payload);
    }

    #[test]
    fn handshake_round_trips_and_rejects_bad_magic() {
        for hello in [
            ClientHello {
                protocol_version: PROTOCOL_VERSION,
                auth_token: None,
            },
            ClientHello {
                protocol_version: 7,
                auth_token: Some("sesame".into()),
            },
        ] {
            let decoded = ClientHello::from_payload(&hello.to_payload()).unwrap();
            assert_eq!(decoded, hello);
        }
        let mut bad = ClientHello {
            protocol_version: PROTOCOL_VERSION,
            auth_token: None,
        }
        .to_payload();
        bad[0] = b'X';
        let err = ClientHello::from_payload(&bad).unwrap_err();
        assert!(err.to_string().contains("magic"), "{err}");

        for reply in [
            HandshakeReply::Accepted {
                protocol_version: PROTOCOL_VERSION,
                session_id: 42,
            },
            HandshakeReply::Rejected {
                reason: "bad token".into(),
            },
        ] {
            let decoded = HandshakeReply::from_payload(&reply.to_payload()).unwrap();
            assert_eq!(decoded, reply);
        }
    }

    #[test]
    fn requests_round_trip() {
        let requests = [
            Request::Query {
                id: 9,
                sql: "SELECT name FROM movies WHERE is_comedy = true".into(),
                policy: Some(ExpansionPolicy::best_effort(12.5).with_quality_floor(0.8)),
                events: true,
            },
            Request::Query {
                id: 10,
                sql: "SELECT 1".into(),
                policy: None,
                events: false,
            },
            Request::SetDefaults {
                id: 11,
                policy: ExpansionPolicy::cache_only(),
            },
            Request::Ping { id: 12 },
            Request::Stats { id: 13 },
            Request::Metrics { id: 14 },
            Request::Monitor { id: 15 },
            Request::CreateTable {
                id: 16,
                sql: "CREATE TABLE things (item_id INTEGER, name TEXT)".into(),
                partitions: PartitionSpec::Hash { n: 4 },
            },
            Request::CreateTable {
                id: 17,
                sql: "CREATE TABLE ranged (item_id INTEGER)".into(),
                partitions: PartitionSpec::Range {
                    bounds: vec![100, 2000],
                },
            },
            Request::CreateTable {
                id: 18,
                sql: "CREATE TABLE plain (item_id INTEGER)".into(),
                partitions: PartitionSpec::Single,
            },
            Request::Goodbye,
        ];
        for request in requests {
            let decoded = Request::from_payload(&request.to_payload()).unwrap();
            assert_eq!(decoded, request);
        }
        assert!(Request::from_payload(&[250]).is_err());
        // Trailing garbage after a well-formed request is a protocol error.
        let mut payload = Request::Ping { id: 1 }.to_payload();
        payload.push(0);
        assert!(Request::from_payload(&payload).is_err());
    }

    #[test]
    fn unknown_partition_spec_variant_falls_back_to_single() {
        // Hand-build a CreateTable frame whose spec field carries a variant
        // tag this build has never heard of.  The length prefix keeps the
        // decoder aligned, so the frame still parses — as single-partition —
        // instead of killing the connection.
        let mut e = Encoder::new();
        e.u8(7);
        e.u64(42);
        e.str("CREATE TABLE future (item_id INTEGER)");
        e.seq_len(5); // spec field: 5 payload bytes
        e.u8(250); // unknown spec variant tag
        for byte in [1, 2, 3, 4] {
            e.u8(byte); // opaque variant payload, skipped via the prefix
        }
        let decoded = Request::from_payload(&e.into_bytes()).unwrap();
        assert_eq!(
            decoded,
            Request::CreateTable {
                id: 42,
                sql: "CREATE TABLE future (item_id INTEGER)".into(),
                partitions: PartitionSpec::Single,
            }
        );
    }

    fn sample_rowset() -> RowSet {
        RowSet {
            columns: vec!["name".into(), "is_comedy".into()],
            rows: Grid::from(vec![
                vec![Value::Text("Rocky".into()), Value::Boolean(false)],
                vec![Value::Text("Grease".into()), Value::Null],
                vec![Value::Integer(3), Value::Float(0.25)],
            ]),
            provenance: Grid::from(vec![
                vec![
                    CellProvenance::Stored,
                    CellProvenance::CrowdDerived {
                        confidence: 0.9,
                        cost_share: 0.02,
                    },
                ],
                vec![
                    CellProvenance::Stored,
                    CellProvenance::Missing {
                        reason: MissingReason::BudgetExhausted,
                    },
                ],
                vec![
                    CellProvenance::CacheHit { confidence: 0.75 },
                    CellProvenance::Extracted,
                ],
            ]),
        }
    }

    /// The wire bytes of a row set are a contract with every deployed
    /// client: one cell of each value variant and of each provenance mark,
    /// every missing reason included, must encode to exactly these bytes
    /// and decode back from them.  Protocol version 4: the column names,
    /// the row count, the column's values, then its tag column (a run
    /// length after each payload-free mark).
    #[test]
    fn rowset_encodes_to_golden_bytes() {
        let reasons = [
            MissingReason::BudgetExhausted,
            MissingReason::NoCachedJudgment,
            MissingReason::BelowQualityFloor,
            MissingReason::NoMajority,
            MissingReason::OutOfSpace,
            MissingReason::NotExpanded,
            MissingReason::NoItemId,
        ];
        let mut rows = vec![
            vec![Value::Text("a".into())],
            vec![Value::Boolean(true)],
            vec![Value::Integer(-2)],
            vec![Value::Float(0.5)],
        ];
        let mut provenance = vec![
            vec![CellProvenance::Stored],
            vec![CellProvenance::CrowdDerived {
                confidence: 0.75,
                cost_share: 0.5,
            }],
            vec![CellProvenance::CacheHit { confidence: 0.25 }],
            vec![CellProvenance::Extracted],
        ];
        for reason in reasons {
            rows.push(vec![Value::Null]);
            provenance.push(vec![CellProvenance::Missing { reason }]);
        }
        let rowset = RowSet {
            columns: vec!["c".into()],
            rows: Grid::from(rows),
            provenance: Grid::from(provenance),
        };
        let mut e = Encoder::new();
        encode_rowset(&mut e, &rowset);
        let bytes = e.into_bytes();
        let hex: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
        const ROWSET: &str = "01000000000000000100000000000000630b0000000000000003010000000000000061040101feffffffffffffff02000000000000e03f00000000000000000101000000000000e83f000000000000e03f02000000000000d03f0301040001040101040201040301040401040501040601";
        assert_eq!(hex, ROWSET);
        let mut d = Decoder::new(&bytes);
        assert_eq!(decode_rowset(&mut d).unwrap(), rowset);
        assert!(d.is_exhausted());
    }

    /// A row set holds exactly its row count of cells in each column, as
    /// values and as provenance, and a provenance column's runs cover its
    /// cells exactly.  A payload breaking either is malformed, decoded to a
    /// protocol error rather than to a ragged result.
    #[test]
    fn ragged_rowsets_are_protocol_errors() {
        // Two columns of `rows` rows: `values` gives each column's value
        // count, `runs` each column's runs of `Stored`.
        let payload = |rows: u64, values: [usize; 2], runs: [&[u64]; 2]| {
            let mut e = Encoder::new();
            e.u8(0); // an Event response
            e.u64(7);
            e.u8(0); // a Snapshot event
            e.seq_len(2);
            e.str("item_id");
            e.str("is_comedy");
            e.u64(rows);
            for count in values {
                (0..count).for_each(|_| encode_value(&mut e, &Value::Integer(1)));
            }
            for column in runs {
                for &run in column {
                    storage::encode_provenance(&mut e, &CellProvenance::Stored);
                    e.varint(run);
                }
            }
            e.into_bytes()
        };
        assert!(Response::from_payload(&payload(2, [2, 2], [&[2], &[1, 1]])).is_ok());
        // Rows of no column take no byte, so no payload bounds their count:
        // a row set of no column decodes only without rows.
        let no_columns = |rows: u64| {
            let mut e = Encoder::new();
            e.u8(0);
            e.seq_len(0);
            e.u64(rows);
            decode_event(&mut Decoder::new(&e.into_bytes()))
        };
        match no_columns(0) {
            Ok(QueryEvent::Snapshot(rows)) => assert!(rows.rows.is_empty()),
            other => panic!("an empty row set decoded to {other:?}"),
        }
        for rows in [1, u64::MAX] {
            match no_columns(rows) {
                Err(CrowdDbError::Protocol { .. }) => {}
                other => panic!("{rows} rows of no column decoded to {other:?}"),
            }
        }
        let malformed = [
            ("a short value column", payload(2, [2, 1], [&[2], &[2]])),
            ("a long value column", payload(2, [3, 2], [&[2], &[2]])),
            (
                "a short provenance column",
                payload(2, [2, 2], [&[2], &[1]]),
            ),
            (
                "a long provenance column",
                payload(2, [2, 2], [&[2], &[2, 1]]),
            ),
            ("a zero-length run", payload(2, [2, 2], [&[0, 2], &[2]])),
            ("a run past the row count", payload(2, [2, 2], [&[3], &[2]])),
            ("runs that sum short", payload(2, [2, 2], [&[1], &[1]])),
            (
                "a row count past the value bytes",
                payload(1 << 40, [2, 2], [&[2], &[2]]),
            ),
            (
                "a row count overflowing the cell count",
                payload(u64::MAX, [2, 2], [&[2], &[2]]),
            ),
        ];
        for (what, bytes) in malformed {
            match Response::from_payload(&bytes) {
                Err(CrowdDbError::Protocol { .. }) => {}
                other => panic!("{what} decoded to {other:?}"),
            }
        }
    }

    fn sample_report() -> ExpansionReport {
        ExpansionReport {
            table: "movies".into(),
            column: "is_comedy".into(),
            attribute: "Comedy".into(),
            strategy: "perceptual-space extraction".into(),
            stages: vec![
                ExpansionStage::MissingAttributeDetected,
                ExpansionStage::Degraded {
                    from: ExpansionMode::Full,
                    to: ExpansionMode::BestEffort,
                    reason: crowddb_core::DegradeReason::DollarRateExceeded,
                },
                ExpansionStage::ExpansionPlanned,
                ExpansionStage::JudgmentsReused,
                ExpansionStage::JoinedInflightRound,
                ExpansionStage::BudgetExhausted,
                ExpansionStage::ColumnAdded,
                ExpansionStage::CrowdSourcingStarted,
                ExpansionStage::JudgmentsAggregated,
                ExpansionStage::ExtractorTrained,
                ExpansionStage::ColumnMaterialized,
                ExpansionStage::QueryReExecuted,
            ],
            items_crowd_sourced: 100,
            judgments_collected: 1000,
            rows_filled: 900,
            rows_unfilled: 100,
            crowd_cost: 2.0,
            crowd_minutes: 15.0,
            training_set_size: 80,
            cache_hits: 7,
            cache_misses: 93,
            cost_saved: 0.14,
            items_unmapped: 3,
            items_coalesced: 5,
            items_dropped: 2,
        }
    }

    #[test]
    fn events_and_outcomes_round_trip() {
        let outcome = QueryOutcome::new(
            ExpansionPolicy::best_effort(4.0).with_quality_floor(0.7),
            StatementResult::Rows(sample_rowset()),
            vec![sample_report()],
            1.25,
        );
        let events = [
            QueryEvent::Snapshot(sample_rowset()),
            QueryEvent::delta(sample_rowset(), "Comedy", 2, 0.75),
            QueryEvent::progress("Comedy", 30, 70, 0.3, 1.4),
            QueryEvent::Completed(Arc::new(outcome.clone())),
        ];
        for event in &events {
            let mut e = Encoder::new();
            encode_event(&mut e, event).unwrap();
            let bytes = e.into_bytes();
            let mut d = Decoder::new(&bytes);
            let decoded = decode_event(&mut d).unwrap();
            assert!(d.is_exhausted());
            assert_eq!(&decoded, event);
        }
        // Outcomes with a mutation result round-trip too.
        let mutation = QueryOutcome::new(
            ExpansionPolicy::full(),
            StatementResult::Mutation { rows_affected: 17 },
            Vec::new(),
            0.0,
        );
        let mut e = Encoder::new();
        encode_outcome(&mut e, &mutation);
        let bytes = e.into_bytes();
        let decoded = decode_outcome(&mut Decoder::new(&bytes)).unwrap();
        assert_eq!(decoded, mutation);
    }

    /// The satellite contract: **every** existing [`CrowdDbError`] variant
    /// — including each nested engine error variant — survives the codec
    /// exactly, so remote callers never fall back to stringly-typed errors.
    #[test]
    fn every_error_variant_round_trips_exactly() {
        let errors: Vec<CrowdDbError> = vec![
            CrowdDbError::Relational(relational::RelationalError::Parse("bad token".into())),
            CrowdDbError::Relational(relational::RelationalError::UnknownTable("movies".into())),
            CrowdDbError::Relational(relational::RelationalError::UnknownColumn {
                table: "movies".into(),
                column: "is_comedy".into(),
            }),
            CrowdDbError::Relational(relational::RelationalError::TableExists("movies".into())),
            CrowdDbError::Relational(relational::RelationalError::ColumnExists("name".into())),
            CrowdDbError::Relational(relational::RelationalError::TypeMismatch("int/bool".into())),
            CrowdDbError::Relational(relational::RelationalError::InvalidStatement(
                "arity".into(),
            )),
            CrowdDbError::Relational(relational::RelationalError::Evaluation("div 0".into())),
            CrowdDbError::Perceptual(perceptual::PerceptualError::InvalidRatings("empty".into())),
            CrowdDbError::Perceptual(perceptual::PerceptualError::InvalidConfig("d = 0".into())),
            CrowdDbError::Perceptual(perceptual::PerceptualError::UnknownId("item 7".into())),
            CrowdDbError::Perceptual(perceptual::PerceptualError::Numerical("NaN".into())),
            CrowdDbError::Learning(mlkit::MlError::InvalidInput("no rows".into())),
            CrowdDbError::Learning(mlkit::MlError::InvalidParameter("C < 0".into())),
            CrowdDbError::Learning(mlkit::MlError::MissingClass { positive: true }),
            CrowdDbError::Learning(mlkit::MlError::MissingClass { positive: false }),
            CrowdDbError::Learning(mlkit::MlError::Numerical("diverged".into())),
            CrowdDbError::Crowd(crowdsim::CrowdError::InvalidConfig("no items".into())),
            CrowdDbError::Crowd(crowdsim::CrowdError::UnknownId("worker 9".into())),
            CrowdDbError::UnknownAttribute {
                table: "movies".into(),
                attribute: "humor".into(),
            },
            CrowdDbError::Configuration("no crowd source".into()),
            CrowdDbError::Contention("kept aborting".into()),
            CrowdDbError::Storage("torn record".into()),
            CrowdDbError::ExpansionDenied {
                table: "movies".into(),
                columns: vec!["is_comedy".into(), "is_horror".into()],
            },
            CrowdDbError::protocol("handshake rejected"),
            CrowdDbError::Overloaded {
                tenant: "acme".into(),
                reason: "5 concurrent queries at cap 5".into(),
            },
        ];
        for error in &errors {
            let mut e = Encoder::new();
            encode_error(&mut e, error);
            let bytes = e.into_bytes();
            let mut d = Decoder::new(&bytes);
            let decoded = decode_error(&mut d).unwrap();
            assert!(d.is_exhausted());
            assert_eq!(&decoded, error, "variant {error:?} did not round-trip");
        }
    }

    #[test]
    fn responses_round_trip() {
        let responses = [
            Response::Event {
                id: 3,
                event: QueryEvent::Snapshot(sample_rowset()),
            },
            Response::QueryFailed {
                id: 4,
                error: CrowdDbError::ExpansionDenied {
                    table: "movies".into(),
                    columns: vec!["is_comedy".into()],
                },
            },
            Response::Ack { id: 5 },
            Response::QueryFailed {
                id: 6,
                error: CrowdDbError::Overloaded {
                    tenant: "acme".into(),
                    reason: "hard cap".into(),
                },
            },
            Response::Stats {
                id: 7,
                stats: ServerStats {
                    connections_accepted: 12,
                    connections_active: 3,
                    handshakes_rejected: 2,
                    protocol_errors: 1,
                    queries_started: 40,
                    queries_completed: 39,
                },
            },
            Response::Metrics {
                id: 8,
                text:
                    "# TYPE crowddb_queries_failed_total counter\ncrowddb_queries_failed_total 0\n"
                        .into(),
            },
            Response::Monitor {
                id: 9,
                tree: MonitorTree {
                    name: "crowddb".into(),
                    values: vec![],
                    children: vec![MonitorTree {
                        name: "expansions".into(),
                        values: vec![("cost_so_far".into(), "2.50".into())],
                        children: vec![],
                    }],
                },
            },
        ];
        for response in responses {
            let payload = response.to_payload().unwrap();
            let decoded = Response::from_payload(&payload).unwrap();
            assert_eq!(decoded, response);
        }
        assert!(Response::from_payload(&[9]).is_err());
    }

    #[test]
    fn monitor_tree_depth_limit_is_enforced() {
        let mut tree = MonitorTree {
            name: "leaf".into(),
            values: vec![],
            children: vec![],
        };
        for i in 0..=MAX_MONITOR_DEPTH {
            tree = MonitorTree {
                name: format!("n{i}"),
                values: vec![],
                children: vec![tree],
            };
        }
        let mut e = Encoder::new();
        encode_monitor_tree(&mut e, &tree);
        let bytes = e.into_bytes();
        let err = decode_monitor_tree(&mut Decoder::new(&bytes)).unwrap_err();
        assert!(err.to_string().contains("nests deeper"), "{err}");
    }

    /// A value of every variant, chosen by `kind`, varied by `bits`.
    fn any_value(kind: u8, bits: u64) -> Value {
        match kind % 5 {
            0 => Value::Null,
            1 => Value::Integer(bits as i64),
            2 => Value::Float((bits as i64) as f64 / 1024.0),
            3 => Value::Text("é".repeat((bits % 4) as usize) + &format!("{:x}", bits >> 48)),
            _ => Value::Boolean(bits & 1 == 1),
        }
    }

    /// A mark of every variant and missing reason, chosen by `kind`.
    fn any_mark(kind: u8, bits: u64) -> CellProvenance {
        let fraction = (bits % 1000) as f64 / 1000.0;
        match kind % 11 {
            0 => CellProvenance::Stored,
            1 => CellProvenance::CrowdDerived {
                confidence: fraction,
                cost_share: fraction / 8.0,
            },
            2 => CellProvenance::CacheHit {
                confidence: fraction,
            },
            3 => CellProvenance::Extracted,
            reason => CellProvenance::Missing {
                reason: [
                    MissingReason::BudgetExhausted,
                    MissingReason::NoCachedJudgment,
                    MissingReason::BelowQualityFloor,
                    MissingReason::NoMajority,
                    MissingReason::OutOfSpace,
                    MissingReason::NotExpanded,
                    MissingReason::NoItemId,
                ][reason as usize - 4],
            },
        }
    }

    /// A `width × rows` row set: values from `values`, and each column's
    /// provenance laid out as runs drawn from `runs` (a run repeats one
    /// mark, so long runs of every kind occur).
    fn shaped_rowset(
        width: usize,
        rows: usize,
        values: &[(u8, u64)],
        runs: &[(u8, usize, u64)],
    ) -> RowSet {
        let mut grid = Grid::with_capacity(width, rows);
        let mut cells = values.iter().cycle();
        for _ in 0..rows {
            grid.push_row((0..width).map(|_| {
                let &(kind, bits) = cells.next().unwrap();
                any_value(kind, bits)
            }));
        }
        let mut provenance = Grid::filled(width, rows, CellProvenance::Stored);
        let mut runs = runs.iter().cycle();
        for column in 0..width {
            let mut cells = provenance.column_mut(column);
            while cells.len() > 0 {
                let &(kind, run, bits) = runs.next().unwrap();
                let mark = any_mark(kind, bits);
                cells.by_ref().take(run).for_each(|cell| *cell = mark);
            }
        }
        RowSet {
            columns: (0..width).map(|c| format!("c{c}")).collect(),
            rows: grid,
            provenance,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn random_rowsets_round_trip_exactly(
            width in 0usize..=5,
            rows in 0usize..=300,
            values in prop::collection::vec((0u8..5, any::<u64>()), 1..64),
            runs in prop::collection::vec((0u8..11, 1usize..=400, any::<u64>()), 1..32),
        ) {
            // A row set of no column has no rows (the decoder refuses any).
            let rows = if width == 0 { 0 } else { rows };
            let rowset = shaped_rowset(width, rows, &values, &runs);
            let response = Response::Event {
                id: 1,
                event: QueryEvent::Snapshot(rowset),
            };
            let payload = response.to_payload().unwrap();
            prop_assert_eq!(Response::from_payload(&payload).unwrap(), response);
        }

        #[test]
        fn arbitrary_bytes_never_panic_the_decoder(
            bytes in prop::collection::vec(0u8..=255, 0..=256),
        ) {
            // Half the cases start as a `Completed` event response, so the
            // row set decoder sees them.
            let mut payload = vec![0, 1, 0, 0, 0, 0, 0, 0, 0, 3];
            if bytes.first().is_some_and(|b| b & 1 == 0) {
                payload.clear();
            }
            payload.extend_from_slice(&bytes);
            let _ = Response::from_payload(&payload);
        }

        #[test]
        fn mutated_completed_payloads_never_panic_the_decoder(
            at in any::<u64>(),
            byte in 0u8..=255,
            values in prop::collection::vec((0u8..5, any::<u64>()), 1..16),
            runs in prop::collection::vec((0u8..11, 1usize..=8, any::<u64>()), 1..16),
        ) {
            let rowset = shaped_rowset(3, 12, &values, &runs);
            let outcome = QueryOutcome::new(
                ExpansionPolicy::full(),
                StatementResult::Rows(rowset),
                vec![sample_report()],
                0.5,
            );
            let response = Response::Event {
                id: 2,
                event: QueryEvent::Completed(outcome.into()),
            };
            let mut payload = response.to_payload().unwrap();
            let at = (at % payload.len() as u64) as usize;
            payload[at] = byte;
            let _ = Response::from_payload(&payload);
        }
    }

    #[test]
    fn garbage_payloads_are_typed_protocol_errors_not_panics() {
        for garbage in [&[][..], &[42u8][..], &[0, 0, 0][..], &[1, 255, 255][..]] {
            match Request::from_payload(garbage) {
                Err(CrowdDbError::Protocol { .. }) => {}
                other => panic!("garbage {garbage:?} produced {other:?}"),
            }
        }
        let mut d = Decoder::new(&[200]);
        assert!(matches!(
            decode_event(&mut d),
            Err(CrowdDbError::Protocol { .. })
        ));
        // A stats payload cut short after two of its six counters.
        let mut e = Encoder::new();
        encode_server_stats(&mut e, &ServerStats::default());
        let bytes = e.into_bytes();
        assert!(matches!(
            decode_server_stats(&mut Decoder::new(&bytes[..16])),
            Err(CrowdDbError::Protocol { .. })
        ));
    }
}
