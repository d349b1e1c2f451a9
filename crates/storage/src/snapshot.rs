//! Snapshot files: point-in-time images of the whole database.
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
//! # Atomicity
//!
//! A snapshot supersedes the WAL records folded into it, so a half-written
//! snapshot must never be able to shadow a good one.  [`write_snapshot`]
//! therefore writes to `snapshot.tmp`, fsyncs it, renames it over
//! [`SNAPSHOT_FILE`] (atomic on POSIX), and fsyncs the directory so the
//! rename itself is durable.  A crash at any point leaves either the old
//! snapshot or the new one — never a torn hybrid — and [`read_snapshot`]
//! verifies the checksum before trusting a byte of it.

use std::fs::{self, File, OpenOptions};
use std::io::{Read, Write};
use std::path::Path;

use crate::codec::crc32;
use crate::records::SnapshotImage;
use crate::{Result, StorageError};

/// File name of the snapshot inside a database directory.
pub const SNAPSHOT_FILE: &str = "snapshot.db";

const TMP_FILE: &str = "snapshot.tmp";

const MAGIC: &[u8; 8] = b"CDBSNAP1";

/// Durably writes `image` to `path`, atomically replacing any previous
/// file there.  Used for both the legacy whole-database snapshot and the
/// per-table snapshots of the segmented layout.
pub fn write_snapshot_file(path: &Path, image: &SnapshotImage) -> Result<()> {
    let payload = image.encode();
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = std::path::PathBuf::from(tmp);
    {
        let mut file = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(&tmp)?;
        file.write_all(MAGIC)?;
        file.write_all(&(payload.len() as u64).to_le_bytes())?;
        file.write_all(&crc32(&payload).to_le_bytes())?;
        file.write_all(&payload)?;
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

/// Durably writes `image` as the directory's snapshot, atomically
/// replacing any previous one (the legacy single-file layout).
pub fn write_snapshot(dir: &Path, image: &SnapshotImage) -> Result<()> {
    // The historical tmp name is kept so a crash mid-upgrade under an old
    // binary and a new one clean up the same dropping.
    let _ = fs::remove_file(dir.join(TMP_FILE));
    write_snapshot_file(&dir.join(SNAPSHOT_FILE), image)
}

/// Reads the snapshot at `path`, verifying magic, length, and checksum.
/// Returns `Ok(None)` when the file does not exist.
pub fn read_snapshot_file(path: &Path) -> Result<Option<SnapshotImage>> {
    let mut file = match File::open(path) {
        Ok(file) => file,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e.into()),
    };
    let mut bytes = Vec::new();
    file.read_to_end(&mut bytes)?;
    if bytes.len() < MAGIC.len() + 12 || &bytes[..MAGIC.len()] != MAGIC {
        return Err(StorageError::Corrupt(format!(
            "{} is not a crowddb snapshot (bad magic or truncated header)",
            path.display()
        )));
    }
    let len = u64::from_le_bytes(bytes[8..16].try_into().unwrap()) as usize;
    let checksum = u32::from_le_bytes(bytes[16..20].try_into().unwrap());
    let payload = &bytes[20..];
    if payload.len() != len {
        return Err(StorageError::Corrupt(format!(
            "snapshot payload is {} bytes but the header declares {len}",
            payload.len()
        )));
    }
    if crc32(payload) != checksum {
        return Err(StorageError::Corrupt("snapshot fails its checksum".into()));
    }
    Ok(Some(SnapshotImage::decode(payload)?))
}

/// Reads the directory's snapshot (the legacy single-file layout),
/// verifying magic, length, and checksum.  Returns `Ok(None)` when no
/// snapshot exists (a database that has never checkpointed).
pub fn read_snapshot(dir: &Path) -> Result<Option<SnapshotImage>> {
    read_snapshot_file(&dir.join(SNAPSHOT_FILE))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::records::{CacheImage, CachedJudgment, SnapshotImage};
    use std::path::PathBuf;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("crowddb-snap-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample() -> SnapshotImage {
        SnapshotImage {
            cache: CacheImage {
                groups: vec![(
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
                hits: 1,
                misses: 2,
                cost_saved: 0.02,
            },
            crowd_rounds: 5,
            ..Default::default()
        }
    }

    #[test]
    fn write_read_round_trips_and_replaces() {
        let dir = tmp_dir("rw");
        assert_eq!(read_snapshot(&dir).unwrap(), None);
        write_snapshot(&dir, &sample()).unwrap();
        assert_eq!(read_snapshot(&dir).unwrap(), Some(sample()));
        // A second checkpoint atomically replaces the first.
        let mut newer = sample();
        newer.crowd_rounds = 6;
        write_snapshot(&dir, &newer).unwrap();
        assert_eq!(read_snapshot(&dir).unwrap().unwrap().crowd_rounds, 6);
        assert!(!dir.join(TMP_FILE).exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_snapshot_is_rejected() {
        let dir = tmp_dir("corrupt");
        write_snapshot(&dir, &sample()).unwrap();
        let path = dir.join(SNAPSHOT_FILE);
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(read_snapshot(&dir), Err(StorageError::Corrupt(_))));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
