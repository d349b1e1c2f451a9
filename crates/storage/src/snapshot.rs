//! Snapshot files: point-in-time images of one partition of a table.
//!
//! # File format
//!
//! ```text
//! +--------------------+
//! | magic "CDBSNAP1"   |  8 bytes
//! | len: u64 LE        |  payload length
//! | crc32(payload): u32|  payload checksum
//! | payload            |  SnapshotImage::encode
//! +--------------------+
//! ```
//!
//! The manifest writes the same frame after its own magic and format
//! version ([`crate::manifest`]).
//!
//! # Atomicity
//!
//! A snapshot supersedes the WAL records folded into it, so a half-written
//! snapshot must never be able to shadow a good one.
//! [`write_snapshot_file`] therefore writes to a `.tmp` sibling, fsyncs
//! it, renames it over the target (atomic on POSIX), and fsyncs the
//! directory so the rename itself is durable.  A crash at any point leaves
//! either the old snapshot or the new one — never a torn hybrid — and
//! [`read_snapshot_file`] verifies the checksum before trusting a byte of
//! it.

use std::fs::{self, File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

use crate::codec::{crc32, Decoder};
use crate::records::SnapshotImage;
use crate::{Result, StorageError};

const MAGIC: &[u8; 8] = b"CDBSNAP1";

/// The temporary sibling a file is written to before it is renamed over
/// `path`.
pub(crate) fn tmp_path(path: &Path) -> PathBuf {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    PathBuf::from(tmp)
}

/// Durably writes `header`, then the length and CRC-32 of `payload`, then
/// `payload` to `path`, atomically replacing any previous file there:
/// tmp file + fsync + rename + directory fsync.
pub(crate) fn write_framed(path: &Path, header: &[u8], payload: &[u8]) -> Result<()> {
    let tmp = tmp_path(path);
    {
        let mut file = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(&tmp)?;
        file.write_all(header)?;
        file.write_all(&(payload.len() as u64).to_le_bytes())?;
        file.write_all(&crc32(payload).to_le_bytes())?;
        file.write_all(payload)?;
        file.sync_all()?;
    }
    fs::rename(&tmp, path)?;
    // Make the rename durable: fsync the directory entry.  Directories
    // cannot be fsynced everywhere (e.g. Windows); failing to is not
    // fatal — the data file itself is already synced.
    if let Some(parent) = path.parent() {
        if let Ok(dir_handle) = File::open(parent) {
            let _ = dir_handle.sync_all();
        }
    }
    Ok(())
}

/// The whole file at `path`, or `None` when it does not exist.
pub(crate) fn read_file(path: &Path) -> Result<Option<Vec<u8>>> {
    match fs::read(path) {
        Ok(bytes) => Ok(Some(bytes)),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(e.into()),
    }
}

/// The payload of a frame written after a header by [`write_framed`]:
/// `frame` starts at the length, which must match the payload, and the
/// payload must pass its checksum.
pub(crate) fn checked_payload<'a>(frame: &'a [u8], what: &str) -> Result<&'a [u8]> {
    let mut d = Decoder::new(frame);
    let len = d.u64()?;
    let checksum = d.u32()?;
    let payload = &frame[12..];
    if payload.len() as u64 != len {
        return Err(StorageError::Corrupt(format!(
            "{what} payload is {} bytes but the header declares {len}",
            payload.len()
        )));
    }
    if crc32(payload) != checksum {
        return Err(StorageError::Corrupt(format!("{what} fails its checksum")));
    }
    Ok(payload)
}

/// Durably writes `image` to `path`, atomically replacing any previous
/// file there.
pub fn write_snapshot_file(path: &Path, image: &SnapshotImage) -> Result<()> {
    write_framed(path, MAGIC, &image.encode())
}

/// Reads the snapshot at `path`, verifying magic, length, and checksum.
/// Returns `Ok(None)` when the file does not exist.
pub fn read_snapshot_file(path: &Path) -> Result<Option<SnapshotImage>> {
    let Some(bytes) = read_file(path)? else {
        return Ok(None);
    };
    let frame = bytes.strip_prefix(MAGIC).ok_or_else(|| {
        StorageError::Corrupt(format!(
            "{} is not a crowddb snapshot (bad magic)",
            path.display()
        ))
    })?;
    SnapshotImage::decode(checked_payload(frame, "snapshot")?).map(Some)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::records::{CachedJudgment, SnapshotImage, TableImage};
    use relational::{Column, DataType, Schema, Table};

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("crowddb-snap-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample() -> SnapshotImage {
        let schema = Schema::new(vec![Column::new("item_id", DataType::Integer)]).unwrap();
        SnapshotImage {
            table: TableImage::of(&Table::new("movies", schema)),
            cache: vec![(
                "movies".into(),
                "comedy".into(),
                vec![(
                    3,
                    CachedJudgment {
                        verdict: Some(true),
                        judgments: 10,
                        cost: 0.02,
                        confidence: 1.0,
                    },
                )],
            )],
            crowd_rounds: 5,
            id_column: "item_id".into(),
            wal_generation: 1,
            wal_records_applied: 1,
        }
    }

    #[test]
    fn write_read_round_trips_and_replaces() {
        let dir = tmp_dir("rw");
        let path = dir.join("movies.snap");
        assert_eq!(read_snapshot_file(&path).unwrap(), None);
        write_snapshot_file(&path, &sample()).unwrap();
        assert_eq!(read_snapshot_file(&path).unwrap(), Some(sample()));
        // A second checkpoint atomically replaces the first.
        let mut newer = sample();
        newer.crowd_rounds = 6;
        write_snapshot_file(&path, &newer).unwrap();
        assert_eq!(read_snapshot_file(&path).unwrap().unwrap().crowd_rounds, 6);
        assert!(!tmp_path(&path).exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_snapshot_is_rejected() {
        let dir = tmp_dir("corrupt");
        let path = dir.join("movies.snap");
        write_snapshot_file(&path, &sample()).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            read_snapshot_file(&path),
            Err(StorageError::Corrupt(_))
        ));
        // A header cut short is corruption too, not a panic.
        std::fs::write(&path, &bytes[..MAGIC.len() + 5]).unwrap();
        assert!(matches!(
            read_snapshot_file(&path),
            Err(StorageError::Corrupt(_))
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
