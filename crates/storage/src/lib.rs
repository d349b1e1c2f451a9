//! # storage — durable persistence for the crowd-enabled database
//!
//! Crowd judgments are the single most expensive resource of a
//! crowd-enabled database: every materialized cell and every
//! [`judgment-cache`](crate::records::CachedJudgment) entry represents real
//! dollars paid to real workers.  A purely in-memory engine throws that
//! investment away on every restart.  This crate is the storage engine that
//! keeps it:
//!
//! * [`wal`] — an append-only **write-ahead log** of length-prefixed,
//!   CRC32-checksummed records, fsynced on every commit: one segment per
//!   partition of every table (a table of one partition has one).  Recovery
//!   truncates a torn tail (a crash mid-append) and *rejects* a log whose
//!   interior records fail their checksum.
//! * [`snapshot`] — a point-in-time image of one partition of a table,
//!   every cell's provenance tag included, written atomically
//!   (temp file + fsync + rename) so a crash during checkpointing can
//!   never destroy the previous snapshot.
//! * [`manifest`] — the root of a database directory: the on-disk
//!   [`FORMAT_VERSION`], the live tables with their partition specs, and
//!   the few global counters, swapped atomically on every checkpoint.  A
//!   directory of any other format version is refused with
//!   [`StorageError::UnsupportedFormat`]; nothing is migrated.
//! * [`records`] — the durable record schema: catalog DDL, row mutations,
//!   materialized crowd cells (with confidence and cost share), judgment
//!   cache entries, and the snapshot image tying them together.
//! * [`codec`] — the little-endian binary encoding the records are framed
//!   in, including the [`crc32`] every checksummed frame uses:
//!   WAL, snapshot, manifest, and the network wire.
//!
//! The crate is deliberately independent of `crowddb_core`: it knows the
//! relational vocabulary ([`relational::Value`], [`relational::Schema`])
//! and owns the one type of a bought judgment ([`CachedJudgment`], which
//! the engine's cache re-exports), but not the engine that produces them.
//! Its value and provenance codecs ([`encode_value`],
//! [`encode_provenance`], the run-length [`encode_tag_column`] and their
//! decoders) are the only ones in the workspace: the network wire
//! protocol encodes cells and provenance columns through them too.
//! `crowddb_core::CrowdDb::open` drives recovery and appends records as
//! queries commit.

#![warn(missing_docs)]

pub mod codec;
pub mod manifest;
pub mod records;
pub mod snapshot;
pub mod wal;

pub use codec::{crc32, Decoder, Encoder};
pub use manifest::{
    read_manifest, scan_segments, segment_file_name, snapshot_file_name, write_manifest, Manifest,
    FORMAT_VERSION, MANIFEST_FILE, SNAP_DIR, WAL_DIR,
};
pub use records::{
    decode_partition_spec, decode_provenance, decode_tag_column, decode_value,
    encode_partition_spec, encode_provenance, encode_tag_column, encode_value, skip_value,
    slice_records, CacheGroup, CachedJudgment, SnapshotImage, TableImage, WalRecord,
};
pub use snapshot::{read_snapshot_file, write_snapshot_file};
pub use wal::Wal;

use std::fmt;

/// Errors produced by the storage engine.
#[non_exhaustive]
#[derive(Debug)]
pub enum StorageError {
    /// An operating-system I/O failure (open, write, fsync, rename, …).
    Io(std::io::Error),
    /// A record or snapshot failed its integrity check: a checksum
    /// mismatch, an impossible length, an unknown record tag, or a
    /// truncated payload in a position recovery is not allowed to repair.
    Corrupt(String),
    /// The directory was written in another on-disk format version than
    /// the one this build reads (see [`manifest`]).
    UnsupportedFormat {
        /// The version found: 0 for files without a manifest, 1 for a
        /// manifest from before the version field.
        found: u32,
        /// The one version this build reads, [`FORMAT_VERSION`].
        expected: u32,
    },
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::Io(e) => write!(f, "storage i/o error: {e}"),
            StorageError::Corrupt(msg) => write!(f, "corrupt storage: {msg}"),
            StorageError::UnsupportedFormat { found, expected } => write!(
                f,
                "unsupported storage format version {found}: this build reads version \
                 {expected} only"
            ),
        }
    }
}

impl std::error::Error for StorageError {}

impl From<std::io::Error> for StorageError {
    fn from(e: std::io::Error) -> Self {
        StorageError::Io(e)
    }
}

/// Result alias used across the crate.
pub type Result<T> = std::result::Result<T, StorageError>;
