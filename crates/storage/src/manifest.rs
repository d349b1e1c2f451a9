//! The manifest: the root of a database directory.
//!
//! The durable state is split by table, and by partition *within* a
//! table:
//!
//! ```text
//! <dir>/
//!   manifest.db            <- this file: format version + the live tables
//!   wal/<table>.p<k>.log   <- one WAL segment per partition k of a table
//!                             (format: crate::wal)
//!   snap/<table>.p<k>.snap <- one snapshot per partition
//! ```
//!
//! A table of one partition (`PartitionSpec::Single`) owns exactly the
//! files `<table>.p0.log` and `<table>.p0.snap`.  Sanitized stems never
//! contain `.` (it is `%2e`-escaped), so `<stem>.p<k>` parses
//! unambiguously.
//!
//! # Format version
//!
//! The manifest is the one versioned file: after its magic it carries
//! the `u32` [`FORMAT_VERSION`] every file of the directory is written
//! in, and [`read_manifest`] accepts that version only.  Anything else
//! fails with [`StorageError::UnsupportedFormat`] before any other file is
//! read: a manifest from before the version field reads as version 1, and
//! a directory holding files but no manifest (the single-file layout) as
//! version 0.  Nothing is migrated, deleted, or rewritten on the way.
//!
//! # Contents
//!
//! The manifest lists every live table with its [`PartitionSpec`], and
//! carries the few pieces of state that are global rather than
//! per-table — the judgment-cache effectiveness counters, the
//! crowd-round counter, and the configured id column — which are
//! checkpoint-granular.  File names follow from the table name and its
//! spec, so the manifest names no files.
//!
//! # Atomicity
//!
//! The manifest is rewritten with the same tmp + fsync + rename + dir-fsync
//! pattern as snapshots: a crash mid-checkpoint leaves either the old
//! manifest or the new one.  Per-table snapshot/segment files of the
//! tables a manifest lists are always durably on disk *before* the
//! manifest is swapped in, and recovery additionally unions in any `wal/`
//! segment the manifest does not know about (a table created after the
//! last checkpoint), so no committed record is ever orphaned.
//!
//! # File names
//!
//! Table names are lower-cased identifiers in practice, but the manifest
//! does not trust that: names are sanitized reversibly (`[a-z0-9_-]`
//! passes through, every other byte becomes `%xx`) so any table name maps
//! to a unique, portable file name and recovery can map an orphan segment
//! file back to its table.

use std::fs;
use std::path::{Path, PathBuf};

use relational::PartitionSpec;

use crate::codec::{Decoder, Encoder};
use crate::records::{decode_partition_spec, encode_partition_spec};
use crate::snapshot::{checked_payload, read_file, tmp_path, write_framed};
use crate::{Result, StorageError};

/// File name of the manifest inside a database directory.
pub const MANIFEST_FILE: &str = "manifest.db";

/// Subdirectory holding per-table WAL segments.
pub const WAL_DIR: &str = "wal";

/// Subdirectory holding per-table snapshots.
pub const SNAP_DIR: &str = "snap";

/// The on-disk format version this build writes, and the only one it
/// reads.
pub const FORMAT_VERSION: u32 = 3;

const MAGIC: &[u8; 8] = b"CDBMANIV";

/// The magic of the manifests written before the format carried a
/// version: format 1.
const UNVERSIONED_MAGIC: &[u8; 8] = b"CDBMANI1";

/// The manifest: live tables plus the global (non-per-table) counters.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Manifest {
    /// The id-column name the writing database was configured with;
    /// recovery rejects an open under a different configuration.
    pub id_column: String,
    /// Judgment-cache lookups answered from the cache (checkpoint-granular).
    pub cache_hits: u64,
    /// Judgment-cache lookups that went to the crowd (checkpoint-granular).
    pub cache_misses: u64,
    /// Dollars not re-spent thanks to cache hits (checkpoint-granular).
    pub cache_cost_saved: f64,
    /// The crowd-round counter at the last manifest write; recovery takes
    /// the maximum of this and every replayed `CachePut` round stamp.
    pub crowd_rounds: u64,
    /// Live tables and their partition specs, sorted by name.
    pub tables: Vec<(String, PartitionSpec)>,
}

impl Manifest {
    fn encode(&self) -> Vec<u8> {
        let mut e = Encoder::new();
        e.str(&self.id_column);
        e.u64(self.cache_hits);
        e.u64(self.cache_misses);
        e.f64(self.cache_cost_saved);
        e.u64(self.crowd_rounds);
        e.seq_len(self.tables.len());
        for (table, spec) in &self.tables {
            e.str(table);
            encode_partition_spec(&mut e, spec);
        }
        e.into_bytes()
    }

    fn decode(bytes: &[u8]) -> Result<Self> {
        let mut d = Decoder::new(bytes);
        let id_column = d.str()?;
        let cache_hits = d.u64()?;
        let cache_misses = d.u64()?;
        let cache_cost_saved = d.f64()?;
        let crowd_rounds = d.u64()?;
        let n = d.seq_len()?;
        let mut tables = Vec::with_capacity(n);
        for _ in 0..n {
            tables.push((d.str()?, decode_partition_spec(&mut d)?));
        }
        if !d.is_exhausted() {
            return Err(StorageError::Corrupt(
                "trailing bytes after manifest".into(),
            ));
        }
        Ok(Manifest {
            id_column,
            cache_hits,
            cache_misses,
            cache_cost_saved,
            crowd_rounds,
            tables,
        })
    }
}

/// Durably writes `manifest`, atomically replacing any previous one.
pub fn write_manifest(dir: &Path, manifest: &Manifest) -> Result<()> {
    let mut header = MAGIC.to_vec();
    header.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    write_framed(&dir.join(MANIFEST_FILE), &header, &manifest.encode())
}

/// Reads the directory's manifest, verifying magic, format version,
/// length, and checksum.  Returns `Ok(None)` for a new database: an empty
/// directory (or one holding only the temporary file of a first manifest
/// write that never landed).  A directory of any other format fails with
/// [`StorageError::UnsupportedFormat`] (see the module docs).
pub fn read_manifest(dir: &Path) -> Result<Option<Manifest>> {
    let path = dir.join(MANIFEST_FILE);
    let unsupported = |found| StorageError::UnsupportedFormat {
        found,
        expected: FORMAT_VERSION,
    };
    let Some(bytes) = read_file(&path)? else {
        let tmp = tmp_path(&path);
        for entry in fs::read_dir(dir)? {
            if entry?.path() != tmp {
                return Err(unsupported(0));
            }
        }
        return Ok(None);
    };
    if bytes.starts_with(UNVERSIONED_MAGIC) {
        return Err(unsupported(1));
    }
    let versioned = bytes.strip_prefix(MAGIC).ok_or_else(|| {
        StorageError::Corrupt(format!(
            "{} is not a crowddb manifest (bad magic)",
            path.display()
        ))
    })?;
    let version = Decoder::new(versioned).u32()?;
    if version != FORMAT_VERSION {
        return Err(unsupported(version));
    }
    Manifest::decode(checked_payload(&versioned[4..], "manifest")?).map(Some)
}

/// The `wal/` segment directory of a database directory.
pub fn wal_dir(dir: &Path) -> PathBuf {
    dir.join(WAL_DIR)
}

/// The `snap/` snapshot directory of a database directory.
pub fn snap_dir(dir: &Path) -> PathBuf {
    dir.join(SNAP_DIR)
}

/// Reversibly sanitizes a table name into a file-name stem: bytes in
/// `[a-z0-9_-]` pass through, everything else becomes `%xx` (lowercase
/// hex).  Distinct table names always map to distinct stems.
pub fn sanitize_table_name(table: &str) -> String {
    let mut out = String::with_capacity(table.len());
    for b in table.bytes() {
        match b {
            b'a'..=b'z' | b'0'..=b'9' | b'_' | b'-' => out.push(b as char),
            _ => out.push_str(&format!("%{b:02x}")),
        }
    }
    out
}

/// Reverses [`sanitize_table_name`].  Returns `None` for a stem that is
/// not a valid sanitized name (truncated or non-hex escape).
pub fn desanitize_table_name(stem: &str) -> Option<String> {
    let bytes = stem.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'%' => {
                let hex = bytes.get(i + 1..i + 3)?;
                let hex = std::str::from_utf8(hex).ok()?;
                out.push(u8::from_str_radix(hex, 16).ok()?);
                i += 3;
            }
            b @ (b'a'..=b'z' | b'0'..=b'9' | b'_' | b'-') => {
                out.push(b);
                i += 1;
            }
            _ => return None,
        }
    }
    String::from_utf8(out).ok()
}

/// The segment file name (inside [`WAL_DIR`]) of partition `k` of
/// `table`.  Sanitized stems never contain `.`, so the name parses back
/// unambiguously.
pub fn segment_file_name(table: &str, k: usize) -> String {
    format!("{}.p{k}.log", sanitize_table_name(table))
}

/// The snapshot file name (inside [`SNAP_DIR`]) of partition `k` of
/// `table`.
pub fn snapshot_file_name(table: &str, k: usize) -> String {
    format!("{}.p{k}.snap", sanitize_table_name(table))
}

/// Splits a segment file name into its table and partition index:
/// `movies.p3.log` → `("movies", 3)`.  `None` for any other name.
fn parse_segment_file_name(file_name: &str) -> Option<(String, usize)> {
    let (stem, digits) = file_name.strip_suffix(".log")?.rsplit_once(".p")?;
    if !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    Some((desanitize_table_name(stem)?, digits.parse().ok()?))
}

/// Lists every segment file currently present in `wal/`, as
/// `(table, partition)` pairs sorted by table then partition.  Files that
/// do not parse as `<sanitized table>.p<k>.log` are ignored (editor
/// droppings, tmp files, suffix-free names of older formats).  Returns an
/// empty list when the directory does not exist.
pub fn scan_segments(dir: &Path) -> Result<Vec<(String, usize)>> {
    let wal = wal_dir(dir);
    let entries = match fs::read_dir(&wal) {
        Ok(entries) => entries,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(e.into()),
    };
    let mut segments = Vec::new();
    for entry in entries {
        let file_name = entry?.file_name();
        if let Some(segment) = file_name.to_str().and_then(parse_segment_file_name) {
            segments.push(segment);
        }
    }
    segments.sort();
    Ok(segments)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("crowddb-mani-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample() -> Manifest {
        Manifest {
            id_column: "item_id".into(),
            cache_hits: 4,
            cache_misses: 9,
            cache_cost_saved: 0.36,
            crowd_rounds: 11,
            tables: vec![
                ("books".into(), PartitionSpec::Single),
                ("events".into(), PartitionSpec::Hash { n: 4 }),
                (
                    "readings".into(),
                    PartitionSpec::Range {
                        bounds: vec![100, 200],
                    },
                ),
            ],
        }
    }

    #[test]
    fn write_read_round_trips_and_replaces() {
        let dir = tmp_dir("rw");
        assert_eq!(read_manifest(&dir).unwrap(), None);
        write_manifest(&dir, &sample()).unwrap();
        assert_eq!(read_manifest(&dir).unwrap(), Some(sample()));
        let mut newer = sample();
        newer.crowd_rounds = 12;
        write_manifest(&dir, &newer).unwrap();
        assert_eq!(read_manifest(&dir).unwrap().unwrap().crowd_rounds, 12);
        assert!(!tmp_path(&dir.join(MANIFEST_FILE)).exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_manifest_is_rejected() {
        let dir = tmp_dir("corrupt");
        write_manifest(&dir, &sample()).unwrap();
        let path = dir.join(MANIFEST_FILE);
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(read_manifest(&dir), Err(StorageError::Corrupt(_))));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn table_names_sanitize_reversibly() {
        for name in ["movies", "a_b-c9", "Movies 2!", "tbl.%", "ünïcode"] {
            let stem = sanitize_table_name(name);
            assert!(stem
                .bytes()
                .all(|b| matches!(b, b'a'..=b'z' | b'0'..=b'9' | b'_' | b'-' | b'%')));
            assert_eq!(desanitize_table_name(&stem).as_deref(), Some(name));
        }
        // Distinct names never collide, even when one contains escapes.
        assert_ne!(sanitize_table_name("a%62"), sanitize_table_name("ab"));
        assert_eq!(desanitize_table_name("%zz"), None);
        assert_eq!(desanitize_table_name("%6"), None);
    }

    #[test]
    fn segment_scan_lists_only_parseable_segments() {
        let dir = tmp_dir("scan");
        let wal = wal_dir(&dir);
        std::fs::create_dir_all(&wal).unwrap();
        std::fs::write(wal.join(segment_file_name("movies", 0)), b"").unwrap();
        std::fs::write(wal.join(segment_file_name("über", 0)), b"").unwrap();
        std::fs::write(wal.join(segment_file_name("events", 2)), b"").unwrap();
        std::fs::write(wal.join(segment_file_name("events", 0)), b"").unwrap();
        std::fs::write(wal.join("README.txt"), b"").unwrap();
        std::fs::write(wal.join("Upper.p0.log"), b"").unwrap();
        // The suffix-free name of an older format is not a segment.
        std::fs::write(wal.join("movies.log"), b"").unwrap();
        std::fs::write(wal.join("movies.p.log"), b"").unwrap();
        std::fs::write(wal.join("movies.p+1.log"), b"").unwrap();
        let segments = scan_segments(&dir).unwrap();
        assert_eq!(
            segments,
            vec![
                ("events".to_string(), 0),
                ("events".to_string(), 2),
                ("movies".to_string(), 0),
                ("über".to_string(), 0),
            ]
        );
        assert!(scan_segments(&tmp_dir("scan-empty")).unwrap().is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn partition_file_names_parse_back() {
        assert_eq!(segment_file_name("events", 3), "events.p3.log");
        assert_eq!(snapshot_file_name("events", 3), "events.p3.snap");
        assert_eq!(
            parse_segment_file_name("events.p3.log"),
            Some(("events".to_string(), 3))
        );
        // A table whose *name* contains a dot sanitizes it away, so the
        // partition suffix can never collide with user data.
        assert_eq!(sanitize_table_name("a.p3"), "a%2ep3");
        assert_eq!(
            parse_segment_file_name(&segment_file_name("a.p3", 1)),
            Some(("a.p3".to_string(), 1))
        );
        assert_eq!(parse_segment_file_name("a%2ep3.log"), None);
    }

    fn unsupported(dir: &Path) -> Option<(u32, u32)> {
        match read_manifest(dir) {
            Err(StorageError::UnsupportedFormat { found, expected }) => Some((found, expected)),
            _ => None,
        }
    }

    #[test]
    fn only_the_current_format_version_is_read() {
        let dir = tmp_dir("version");
        write_manifest(&dir, &sample()).unwrap();
        let path = dir.join(MANIFEST_FILE);
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(&bytes[..MAGIC.len()], MAGIC);
        assert_eq!(
            bytes[MAGIC.len()..MAGIC.len() + 4],
            FORMAT_VERSION.to_le_bytes()
        );
        // Another version number, with an intact payload: every earlier
        // one, the next one and the largest.
        let others = (0..FORMAT_VERSION).chain([FORMAT_VERSION + 1, u32::MAX]);
        for version in others {
            let mut other = bytes.clone();
            other[MAGIC.len()..MAGIC.len() + 4].copy_from_slice(&version.to_le_bytes());
            std::fs::write(&path, &other).unwrap();
            assert_eq!(unsupported(&dir), Some((version, FORMAT_VERSION)));
        }
        // A manifest from before the version field: format 1.
        let mut unversioned = UNVERSIONED_MAGIC.to_vec();
        unversioned.extend_from_slice(&bytes[MAGIC.len() + 4..]);
        std::fs::write(&path, &unversioned).unwrap();
        assert_eq!(unsupported(&dir), Some((1, FORMAT_VERSION)));
        // Files without a manifest: format 0.  A leftover temporary file of
        // a first manifest write alone still reads as a new directory.
        std::fs::remove_file(&path).unwrap();
        std::fs::write(tmp_path(&path), b"torn").unwrap();
        assert_eq!(read_manifest(&dir).unwrap(), None);
        std::fs::write(dir.join("wal.log"), b"").unwrap();
        assert_eq!(unsupported(&dir), Some((0, FORMAT_VERSION)));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncated_headers_are_corrupt() {
        let dir = tmp_dir("truncated");
        write_manifest(&dir, &sample()).unwrap();
        let path = dir.join(MANIFEST_FILE);
        let bytes = std::fs::read(&path).unwrap();
        // Every cut inside the magic, the version, the length, and the
        // checksum.
        for cut in 0..MAGIC.len() + 16 {
            std::fs::write(&path, &bytes[..cut]).unwrap();
            assert!(
                matches!(read_manifest(&dir), Err(StorageError::Corrupt(_))),
                "a manifest cut at byte {cut} decoded"
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
