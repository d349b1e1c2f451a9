//! The append-only write-ahead log.
//!
//! # File format
//!
//! ```text
//! +--------------------+
//! | magic  "CDBWAL01"  |  8 bytes
//! | generation: u64 LE |  8 bytes — a fresh unique id per (re)created log
//! +--------------------+
//! | frame 0            |
//! | frame 1            |
//! | ...                |
//! +--------------------+
//!
//! frame := [len: u32 LE] [crc32(payload): u32 LE] [payload: len bytes]
//! ```
//!
//! The **generation** ties a log to the snapshot that supersedes its
//! prefix: a checkpoint stamps the current `(generation, record count)`
//! into the snapshot it writes, and recovery skips exactly that many
//! leading records **iff** the log's generation still matches — so a
//! crash *between* the snapshot rename and the log truncation (new
//! snapshot + complete old log on disk) cannot double-apply
//! non-idempotent records.  [`Wal::reset`] gives the truncated log a new
//! generation, after which the stale skip-count in an older snapshot can
//! never match.
//!
//! Every appended record is framed with its length and the CRC-32 of its
//! payload, then flushed **and fsynced** before [`Wal::append`] returns —
//! that fsync is the commit point: once a query's materialization and
//! cache records are appended, a crash cannot un-pay the crowd.
//!
//! # Recovery semantics
//!
//! [`Wal::open`] replays the log front to back:
//!
//! * A **torn tail** — the file ends mid-frame because the process died
//!   mid-append — is expected after a crash.  The partial frame is
//!   truncated away and the log opens with every record up to it.
//! * A **checksum mismatch** on a fully present frame is *not* a crash
//!   artifact (appends never rewrite earlier bytes): it means the file was
//!   corrupted at rest, and recovery rejects the log with
//!   [`StorageError::Corrupt`] rather than silently dropping paid-for
//!   judgments.

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use crate::codec::crc32;
use crate::records::WalRecord;
use crate::{Result, StorageError};

const MAGIC: &[u8; 8] = b"CDBWAL01";

/// Frames larger than this are treated as corruption rather than honored
/// with a giant allocation (no legitimate record comes close).
const MAX_FRAME_LEN: u32 = 1 << 28;

/// Length of the file header: magic plus generation.
const HEADER_LEN: usize = 16;

/// A practically unique generation id for a fresh or reset log.  Only
/// *inequality* with stale snapshot stamps matters (no ordering), so
/// wall-clock nanoseconds are exactly enough — and the one clock source
/// the standard library offers everywhere.
fn fresh_generation() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(1)
        .max(1)
}

/// An open write-ahead log, positioned for appending.
#[derive(Debug)]
pub struct Wal {
    file: File,
    path: PathBuf,
    generation: u64,
    records: u64,
}

impl Wal {
    /// Opens (creating if absent) the log at `path`, replays every intact
    /// record, truncates a torn tail, and returns the records together
    /// with the log positioned for appending.
    ///
    /// A full-frame checksum mismatch rejects the log (see the module
    /// docs for why the two failures are treated differently).
    pub fn open(path: impl Into<PathBuf>) -> Result<(Wal, Vec<WalRecord>)> {
        let path = path.into();
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;

        // A file shorter than the header — or one that reads back as all
        // zeros (power loss under delayed allocation) — can only be a
        // brand-new log or a torn header write (creation and reset both
        // write the header before any record exists), so there is nothing
        // to lose: rewrite a fresh header.  Anything else with wrong
        // magic is a foreign file and is rejected.
        let all_zero = bytes.iter().all(|&b| b == 0);
        if bytes.len() < HEADER_LEN || (all_zero && !bytes.is_empty()) {
            let head = bytes.len().min(MAGIC.len());
            if !all_zero && bytes[..head] != MAGIC[..head] {
                return Err(StorageError::Corrupt(format!(
                    "{} is not a crowddb WAL (bad magic)",
                    path.display()
                )));
            }
            let generation = fresh_generation();
            file.set_len(0)?;
            file.seek(SeekFrom::Start(0))?;
            file.write_all(MAGIC)?;
            file.write_all(&generation.to_le_bytes())?;
            file.sync_all()?;
            return Ok((
                Wal {
                    file,
                    path,
                    generation,
                    records: 0,
                },
                Vec::new(),
            ));
        }
        if &bytes[..MAGIC.len()] != MAGIC {
            return Err(StorageError::Corrupt(format!(
                "{} is not a crowddb WAL (bad magic)",
                path.display()
            )));
        }
        let generation = u64::from_le_bytes(bytes[MAGIC.len()..HEADER_LEN].try_into().unwrap());

        let mut records = Vec::new();
        let mut offset = HEADER_LEN;
        while offset < bytes.len() {
            let remaining = &bytes[offset..];
            if remaining.len() < 8 {
                break; // torn frame header
            }
            let len = u32::from_le_bytes(remaining[..4].try_into().unwrap());
            let checksum = u32::from_le_bytes(remaining[4..8].try_into().unwrap());
            if len > MAX_FRAME_LEN {
                return Err(StorageError::Corrupt(format!(
                    "WAL frame at offset {offset} claims impossible length {len}"
                )));
            }
            let len = len as usize;
            if remaining.len() < 8 + len {
                break; // torn payload
            }
            let payload = &remaining[8..8 + len];
            // Power loss can expose the unwritten tail as *zeros* rather
            // than a short file (delayed allocation): a zero frame header
            // parses as len=0/crc=0 and crc32("")==0, so the zero check —
            // not just the checksum — decides torn-tail vs corruption.
            // Anything non-zero that fails validation is damage to data
            // that was once written, and is rejected.
            let zero_filled_tail = |bytes: &[u8]| bytes[offset..].iter().all(|&b| b == 0);
            if crc32(payload) != checksum {
                if zero_filled_tail(&bytes) {
                    break;
                }
                return Err(StorageError::Corrupt(format!(
                    "WAL frame at offset {offset} fails its checksum"
                )));
            }
            match WalRecord::decode(payload) {
                Ok(record) => records.push(record),
                Err(_) if zero_filled_tail(&bytes) => break,
                Err(e) => return Err(e),
            }
            offset += 8 + len;
        }
        if offset < bytes.len() {
            // Drop the torn tail so the next append starts on a clean
            // frame boundary.
            file.set_len(offset as u64)?;
            file.sync_all()?;
        }
        file.seek(SeekFrom::Start(offset as u64))?;
        let record_count = records.len() as u64;
        Ok((
            Wal {
                file,
                path,
                generation,
                records: record_count,
            },
            records,
        ))
    }

    /// Appends one record and fsyncs — the durability commit point.
    pub fn append(&mut self, record: &WalRecord) -> Result<()> {
        self.append_all(std::slice::from_ref(record))
    }

    /// Appends several records with **one** fsync: the group commits (or
    /// fails) together, and a query that logs a few records per crowd round
    /// pays one disk flush, not one per record.
    pub fn append_all(&mut self, records: &[WalRecord]) -> Result<()> {
        if records.is_empty() {
            return Ok(());
        }
        let mut frames = Vec::new();
        for record in records {
            let payload = record.encode();
            frames.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            frames.extend_from_slice(&crc32(&payload).to_le_bytes());
            frames.extend_from_slice(&payload);
        }
        self.file.write_all(&frames)?;
        self.file.sync_all()?;
        self.records += records.len() as u64;
        Ok(())
    }

    /// Empties the log back to a bare header under a **new generation** —
    /// called by checkpointing right after the snapshot that supersedes
    /// the logged records has been durably written.  The generation change
    /// is what invalidates the skip-count stamped into *older* snapshots
    /// (see the module docs).
    pub fn reset(&mut self) -> Result<()> {
        // Strictly above the old generation even if the wall clock
        // stepped backwards (NTP, VM restore): a collision would let a
        // snapshot stamped for the old log skip committed records of the
        // new one.
        let generation = fresh_generation().max(self.generation + 1);
        self.file.set_len(0)?;
        self.file.seek(SeekFrom::Start(0))?;
        self.file.write_all(MAGIC)?;
        self.file.write_all(&generation.to_le_bytes())?;
        self.file.sync_all()?;
        self.generation = generation;
        self.records = 0;
        Ok(())
    }

    /// The log's generation id (changes on every [`reset`](Wal::reset)).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Number of records currently in the log.
    pub fn record_count(&self) -> u64 {
        self.records
    }

    /// The log's file path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const WAL_FILE: &str = "wal.log";
    use relational::Value;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("crowddb-wal-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn mutation(i: usize) -> WalRecord {
        WalRecord::Mutation {
            sql: format!("INSERT INTO t (id) VALUES ({i})"),
        }
    }

    #[test]
    fn append_and_reopen_round_trips() {
        let dir = tmp_dir("roundtrip");
        let path = dir.join(WAL_FILE);
        {
            let (mut wal, existing) = Wal::open(&path).unwrap();
            assert!(existing.is_empty());
            wal.append(&mutation(0)).unwrap();
            wal.append_all(&[mutation(1), mutation(2)]).unwrap();
        }
        let (mut wal, records) = Wal::open(&path).unwrap();
        assert_eq!(records, vec![mutation(0), mutation(1), mutation(2)]);
        // Appending after reopen keeps extending the same log.
        wal.append(&mutation(3)).unwrap();
        drop(wal);
        let (_, records) = Wal::open(&path).unwrap();
        assert_eq!(records.len(), 4);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated() {
        let dir = tmp_dir("torn");
        let path = dir.join(WAL_FILE);
        {
            let (mut wal, _) = Wal::open(&path).unwrap();
            wal.append(&mutation(0)).unwrap();
            wal.append(&mutation(1)).unwrap();
        }
        // Chop bytes off the final frame, as a crash mid-append would.
        let len = std::fs::metadata(&path).unwrap().len();
        let file = OpenOptions::new().write(true).open(&path).unwrap();
        file.set_len(len - 3).unwrap();
        drop(file);

        let (mut wal, records) = Wal::open(&path).unwrap();
        assert_eq!(records, vec![mutation(0)]);
        // The tail was physically truncated: a fresh append lands on a
        // clean frame boundary and both records survive the next reopen.
        wal.append(&mutation(9)).unwrap();
        drop(wal);
        let (_, records) = Wal::open(&path).unwrap();
        assert_eq!(records, vec![mutation(0), mutation(9)]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checksum_mismatch_is_rejected() {
        let dir = tmp_dir("crc");
        let path = dir.join(WAL_FILE);
        {
            let (mut wal, _) = Wal::open(&path).unwrap();
            wal.append(&mutation(0)).unwrap();
        }
        // Flip one payload byte of the (fully present) frame.
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();

        match Wal::open(&path) {
            Err(StorageError::Corrupt(msg)) => assert!(msg.contains("checksum")),
            other => panic!("expected corruption, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reset_empties_the_log() {
        let dir = tmp_dir("reset");
        let path = dir.join(WAL_FILE);
        let (mut wal, _) = Wal::open(&path).unwrap();
        wal.append(&WalRecord::SetCells {
            table: "t".into(),
            column: "c".into(),
            values: vec![(1, Value::Boolean(true))],
        })
        .unwrap();
        wal.reset().unwrap();
        wal.append(&mutation(7)).unwrap();
        drop(wal);
        let (_, records) = Wal::open(&path).unwrap();
        assert_eq!(records, vec![mutation(7)]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reset_changes_the_generation_and_reopen_preserves_it() {
        let dir = tmp_dir("generation");
        let path = dir.join(WAL_FILE);
        let (mut wal, _) = Wal::open(&path).unwrap();
        let first = wal.generation();
        assert!(first > 0);
        wal.append(&mutation(0)).unwrap();
        assert_eq!(wal.record_count(), 1);
        wal.reset().unwrap();
        assert_ne!(
            wal.generation(),
            first,
            "a reset log must never match a snapshot stamped for the old one"
        );
        assert_eq!(wal.record_count(), 0);
        let second = wal.generation();
        drop(wal);
        let (wal, records) = Wal::open(&path).unwrap();
        assert_eq!(
            wal.generation(),
            second,
            "reopen reads the stored generation"
        );
        assert!(records.is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_header_is_recreated_empty() {
        let dir = tmp_dir("torn-header");
        let path = dir.join(WAL_FILE);
        // A crash during creation/reset can leave a partial header; the
        // log reopens empty under a fresh generation.
        std::fs::write(&path, &MAGIC[..5]).unwrap();
        let (wal, records) = Wal::open(&path).unwrap();
        assert!(records.is_empty());
        assert!(wal.generation() > 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn zero_filled_header_is_recreated_empty() {
        let dir = tmp_dir("zero-header");
        let path = dir.join(WAL_FILE);
        // Power loss during creation under delayed allocation: the whole
        // file reads back as zeros (longer than a header).  Nothing was
        // ever committed, so the log is recreated, not rejected.
        std::fs::write(&path, [0u8; 48]).unwrap();
        let (mut wal, records) = Wal::open(&path).unwrap();
        assert!(records.is_empty());
        wal.append(&mutation(1)).unwrap();
        drop(wal);
        let (_, records) = Wal::open(&path).unwrap();
        assert_eq!(records, vec![mutation(1)]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reset_generation_is_strictly_increasing() {
        let dir = tmp_dir("gen-monotonic");
        let path = dir.join(WAL_FILE);
        let (mut wal, _) = Wal::open(&path).unwrap();
        let mut previous = wal.generation();
        // Back-to-back resets inside one clock tick must still move the
        // generation (a collision would let a stale snapshot stamp skip
        // committed records of the new log).
        for _ in 0..5 {
            wal.reset().unwrap();
            assert!(wal.generation() > previous);
            previous = wal.generation();
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn zero_filled_tail_is_truncated_like_a_torn_one() {
        let dir = tmp_dir("zero-tail");
        let path = dir.join(WAL_FILE);
        {
            let (mut wal, _) = Wal::open(&path).unwrap();
            wal.append(&mutation(0)).unwrap();
        }
        // Power loss with delayed allocation: the tail reads back as
        // zeros instead of a short file.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(&[0u8; 64]);
        std::fs::write(&path, &bytes).unwrap();

        let (mut wal, records) = Wal::open(&path).unwrap();
        assert_eq!(records, vec![mutation(0)]);
        wal.append(&mutation(1)).unwrap();
        drop(wal);
        let (_, records) = Wal::open(&path).unwrap();
        assert_eq!(records, vec![mutation(0), mutation(1)]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn non_wal_file_is_rejected() {
        let dir = tmp_dir("magic");
        let path = dir.join(WAL_FILE);
        std::fs::write(&path, b"definitely not a WAL").unwrap();
        assert!(matches!(Wal::open(&path), Err(StorageError::Corrupt(_))));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
