//! The durable record schema.
//!
//! Two kinds of payloads travel through the storage engine:
//!
//! * [`WalRecord`] — one committed change: catalog DDL, a row mutation,
//!   a materialized crowd column (per-item values plus one
//!   [`CellProvenance`] mark per item, confidence and cost share
//!   included), judgment cache writes, and cache invalidation.
//! * [`SnapshotImage`] — the image a checkpoint writes of one partition
//!   of a table: the partition's [`Table`] with the tag of every cell of
//!   every provenance-tracked column, one per row, the partition's
//!   judgment-cache entries, and the crowd round counter (so reopened
//!   databases keep drawing fresh round seeds instead of replaying old
//!   ones).
//!
//! Every type encodes itself explicitly through [`Encoder`] / [`Decoder`]
//! (see [`crate::codec`] for why), with one tag byte per enum variant.
//! These bytes are format version 3 ([`crate::manifest::FORMAT_VERSION`]):
//! the manifest stamps the version of a whole directory, and a directory
//! of any other version is refused before a record is read.
//!
//! Each domain value has one type and one codec, owned here: a judgment
//! is a [`CachedJudgment`] (the engine's cache re-exports this type),
//! and [`encode_value`] / [`encode_provenance`] (with their decoders) are
//! the only encodings of a [`Value`] and a [`CellProvenance`] — the
//! network wire protocol calls them too, so a cell's bytes are the same
//! on disk and on the socket.

use std::borrow::Cow;

use relational::{
    CellProvenance, Column, DataType, MissingReason, PartitionSpec, Schema, Table, Value,
};

use crate::codec::{Decoder, Encoder};
use crate::{Result, StorageError};

/// A perceptual-space item id (mirrors `perceptual::ItemId` without the
/// dependency).
pub type ItemId = u32;

fn corrupt(what: &str, tag: u8) -> StorageError {
    StorageError::Corrupt(format!("unknown {what} tag {tag:#04x}"))
}

/// Encodes a [`Value`] with one tag byte per variant — shared by every
/// storage record and by the network wire protocol.
#[inline]
pub fn encode_value(e: &mut Encoder, value: &Value) {
    match value {
        Value::Null => e.u8(0),
        Value::Integer(i) => {
            e.u8(1);
            e.i64(*i);
        }
        Value::Float(f) => {
            e.u8(2);
            e.f64(*f);
        }
        Value::Text(s) => {
            e.u8(3);
            e.str(s);
        }
        Value::Boolean(b) => {
            e.u8(4);
            e.bool(*b);
        }
    }
}

/// Decodes a [`Value`] written by [`encode_value`].
#[inline]
pub fn decode_value(d: &mut Decoder<'_>) -> Result<Value> {
    Ok(match d.u8()? {
        0 => Value::Null,
        1 => Value::Integer(d.i64()?),
        2 => Value::Float(d.f64()?),
        3 => Value::Text(d.str()?),
        4 => Value::Boolean(d.bool()?),
        tag => return Err(corrupt("value", tag)),
    })
}

/// Steps over one value written by [`encode_value`] without building it,
/// checking only its tag and length: how a reader of column-major values
/// finds where the next column starts.
#[inline]
pub fn skip_value(d: &mut Decoder<'_>) -> Result<()> {
    let len = match d.u8()? {
        0 => 0,
        1 | 2 => 8,
        3 => d.seq_len()?,
        4 => 1,
        tag => return Err(corrupt("value", tag)),
    };
    d.skip(len)
}

/// Encodes a [`PartitionSpec`] with one tag byte per variant — shared by
/// the manifest's table list and the `MetaPartition` WAL record, so the
/// two can never drift apart.
pub fn encode_partition_spec(e: &mut Encoder, spec: &PartitionSpec) {
    match spec {
        PartitionSpec::Single => e.u8(0),
        PartitionSpec::Hash { n } => {
            e.u8(1);
            e.u32(*n as u32);
        }
        PartitionSpec::Range { bounds } => {
            e.u8(2);
            e.seq_len(bounds.len());
            for bound in bounds {
                e.i64(*bound);
            }
        }
    }
}

/// Decodes a [`PartitionSpec`] written by [`encode_partition_spec`].
pub fn decode_partition_spec(d: &mut Decoder<'_>) -> Result<PartitionSpec> {
    Ok(match d.u8()? {
        0 => PartitionSpec::Single,
        1 => PartitionSpec::Hash {
            n: d.u32()? as usize,
        },
        2 => {
            let n = d.seq_len()?;
            let mut bounds = Vec::with_capacity(n);
            for _ in 0..n {
                bounds.push(d.i64()?);
            }
            PartitionSpec::Range { bounds }
        }
        tag => return Err(corrupt("partition spec", tag)),
    })
}

fn encode_data_type(e: &mut Encoder, ty: DataType) {
    e.u8(match ty {
        DataType::Integer => 0,
        DataType::Float => 1,
        DataType::Text => 2,
        DataType::Boolean => 3,
    });
}

fn decode_data_type(d: &mut Decoder<'_>) -> Result<DataType> {
    Ok(match d.u8()? {
        0 => DataType::Integer,
        1 => DataType::Float,
        2 => DataType::Text,
        3 => DataType::Boolean,
        tag => return Err(corrupt("data type", tag)),
    })
}

fn encode_schema(e: &mut Encoder, schema: &Schema) {
    e.seq_len(schema.len());
    for column in schema.columns() {
        e.str(&column.name);
        encode_data_type(e, column.data_type);
        e.bool(column.nullable);
    }
}

fn decode_schema(d: &mut Decoder<'_>) -> Result<Schema> {
    let n = d.seq_len()?;
    let mut columns = Vec::with_capacity(n);
    for _ in 0..n {
        let name = d.str()?;
        let data_type = decode_data_type(d)?;
        let nullable = d.bool()?;
        let column = if nullable {
            Column::new(name, data_type)
        } else {
            Column::not_null(name, data_type)
        };
        columns.push(column);
    }
    Schema::new(columns)
        .map_err(|e| StorageError::Corrupt(format!("invalid schema in record: {e}")))
}

/// Encodes a full table — name, schema, rows, and the provenance of its
/// tracked columns — as snapshots and `CreateTable` WAL records store it:
/// the rows in table order, then each provenance-tracked column's schema
/// position and the tag of each of its cells, in position order.
fn encode_table(e: &mut Encoder, table: &Table) {
    e.str(table.name());
    encode_schema(e, table.schema());
    e.seq_len(table.len());
    for row in table.rows() {
        e.seq_len(row.len());
        for value in row {
            encode_value(e, value);
        }
    }
    let tracked =
        (0..table.schema().len()).filter_map(|column| Some((column, table.tags(column)?)));
    e.seq_len(tracked.clone().count());
    for (column, tags) in tracked {
        e.u32(column as u32);
        encode_tag_column(e, tags);
    }
}

/// Decodes a table written by [`encode_table`], every cell with the tag
/// it was written with.
fn decode_table(d: &mut Decoder<'_>) -> Result<Table> {
    let name = d.str()?;
    let mut table = Table::new(name, decode_schema(d)?);
    let n_rows = d.seq_len()?;
    for _ in 0..n_rows {
        let n_cells = d.seq_len()?;
        let mut row = Vec::with_capacity(n_cells);
        for _ in 0..n_cells {
            row.push(decode_value(d)?);
        }
        table.insert_row(row).map_err(|e| {
            StorageError::Corrupt(format!("invalid row in table {}: {e}", table.name()))
        })?;
    }
    let n_tracked = d.seq_len()?;
    let mut last = None;
    for _ in 0..n_tracked {
        let column = d.u32()? as usize;
        if column >= table.schema().len() || last.is_some_and(|last| last >= column) {
            return Err(StorageError::Corrupt(format!(
                "tags of column {column} out of order or past the {} columns of table {}",
                table.schema().len(),
                table.name()
            )));
        }
        last = Some(column);
        let mut cells = vec![CellProvenance::Stored; n_rows];
        decode_tag_column(d, cells.iter_mut())?;
        table
            .restore_tags(column, cells)
            .map_err(|e| StorageError::Corrupt(e.to_string()))?;
    }
    Ok(table)
}

/// The aggregated crowd knowledge about one `(table, attribute, item)`:
/// one judgment-cache entry, in memory and on disk.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CachedJudgment {
    /// The majority verdict (`None` when the crowd produced no majority —
    /// also worth caching: asking again would cost the same and likely tie
    /// again).
    pub verdict: Option<bool>,
    /// Number of raw judgments aggregated into the verdict.
    pub judgments: usize,
    /// Dollars paid to obtain those judgments.
    pub cost: f64,
    /// Inter-worker agreement behind the verdict (fraction of decisive
    /// judgments agreeing with the majority; 0 when no decisive judgment
    /// was collected).  Stored so quality-floor policies and per-cell
    /// provenance apply to reused judgments exactly as to fresh ones.
    pub confidence: f64,
}

impl CachedJudgment {
    fn encode(&self, e: &mut Encoder) {
        match self.verdict {
            None => e.u8(0),
            Some(false) => e.u8(1),
            Some(true) => e.u8(2),
        }
        e.u64(self.judgments as u64);
        e.f64(self.cost);
        e.f64(self.confidence);
    }

    fn decode(d: &mut Decoder<'_>) -> Result<Self> {
        let verdict = match d.u8()? {
            0 => None,
            1 => Some(false),
            2 => Some(true),
            tag => return Err(corrupt("verdict", tag)),
        };
        Ok(CachedJudgment {
            verdict,
            judgments: d.u64()? as usize,
            cost: d.f64()?,
            confidence: d.f64()?,
        })
    }
}

/// Encodes one cell's provenance mark — confidence and cost share
/// included, so a reopened database (or a remote client) reports
/// identical provenance for answers bought before the restart.
#[inline]
pub fn encode_provenance(e: &mut Encoder, provenance: &CellProvenance) {
    match provenance {
        CellProvenance::Stored => e.u8(0),
        CellProvenance::CrowdDerived {
            confidence,
            cost_share,
        } => {
            e.u8(1);
            e.f64(*confidence);
            e.f64(*cost_share);
        }
        CellProvenance::CacheHit { confidence } => {
            e.u8(2);
            e.f64(*confidence);
        }
        CellProvenance::Extracted => e.u8(3),
        CellProvenance::Missing { reason } => {
            e.u8(4);
            e.u8(match reason {
                MissingReason::BudgetExhausted => 0,
                MissingReason::NoCachedJudgment => 1,
                MissingReason::BelowQualityFloor => 2,
                MissingReason::NoMajority => 3,
                MissingReason::OutOfSpace => 4,
                MissingReason::NotExpanded => 5,
                MissingReason::NoItemId => 6,
                _ => unreachable!("every missing reason has a storage tag"),
            });
        }
        _ => unreachable!("every provenance variant has a storage tag"),
    }
}

/// Decodes a provenance mark written by [`encode_provenance`].
#[inline]
pub fn decode_provenance(d: &mut Decoder<'_>) -> Result<CellProvenance> {
    Ok(match d.u8()? {
        0 => CellProvenance::Stored,
        1 => CellProvenance::CrowdDerived {
            confidence: d.f64()?,
            cost_share: d.f64()?,
        },
        2 => CellProvenance::CacheHit {
            confidence: d.f64()?,
        },
        3 => CellProvenance::Extracted,
        4 => CellProvenance::Missing {
            reason: match d.u8()? {
                0 => MissingReason::BudgetExhausted,
                1 => MissingReason::NoCachedJudgment,
                2 => MissingReason::BelowQualityFloor,
                3 => MissingReason::NoMajority,
                4 => MissingReason::OutOfSpace,
                5 => MissingReason::NotExpanded,
                6 => MissingReason::NoItemId,
                tag => return Err(corrupt("missing reason", tag)),
            },
        },
        tag => return Err(corrupt("cell mark", tag)),
    })
}

/// True for the marks that carry no payload — `Stored`, `Extracted` and
/// `Missing` — the ones a tag column run-length encodes.
fn is_payload_free(mark: &CellProvenance) -> bool {
    matches!(
        mark,
        CellProvenance::Stored | CellProvenance::Extracted | CellProvenance::Missing { .. }
    )
}

/// Encodes one column of provenance marks, top to bottom, in a column's
/// worth of bytes rather than a byte per cell where the marks repeat.
///
/// Each mark is written by [`encode_provenance`].  A payload-free mark
/// (`Stored`, `Extracted`, `Missing` with its reason) is followed by the
/// length of its run — how many consecutive cells carry that same mark —
/// as a varint of at least 1.  A mark with a payload (`CrowdDerived`,
/// `CacheHit`) covers one cell.  The cell count is not written: the
/// reader knows it from context, as a row set's row count.
pub fn encode_tag_column<'a>(e: &mut Encoder, marks: impl IntoIterator<Item = &'a CellProvenance>) {
    let mut marks = marks.into_iter().peekable();
    while let Some(mark) = marks.next() {
        encode_provenance(e, mark);
        if is_payload_free(mark) {
            let mut run = 1u64;
            while marks.next_if(|next| *next == mark).is_some() {
                run += 1;
            }
            e.varint(run);
        }
    }
}

/// Decodes a column written by [`encode_tag_column`] into `cells`, which
/// yields exactly as many cells as the column holds.  A run of length 0,
/// or one reaching past the last cell, is corruption; so is a column whose
/// marks end early (the next mark read is then the wrong bytes or none).
pub fn decode_tag_column<'a>(
    d: &mut Decoder<'_>,
    cells: impl ExactSizeIterator<Item = &'a mut CellProvenance>,
) -> Result<()> {
    let mut cells = cells;
    let mut left = cells.len();
    while left > 0 {
        let mark = decode_provenance(d)?;
        let run = if is_payload_free(&mark) {
            d.varint()?
        } else {
            1
        };
        if run == 0 || run > left as u64 {
            return Err(StorageError::Corrupt(format!(
                "a provenance run of {run} cells where {left} are left"
            )));
        }
        for cell in cells.by_ref().take(run as usize) {
            *cell = mark;
        }
        left -= run as usize;
    }
    Ok(())
}

fn encode_items<T>(e: &mut Encoder, items: &[(ItemId, T)], encode: impl Fn(&mut Encoder, &T)) {
    e.seq_len(items.len());
    for (item, payload) in items {
        e.u32(*item);
        encode(e, payload);
    }
}

fn decode_items<T>(
    d: &mut Decoder<'_>,
    decode: impl Fn(&mut Decoder<'_>) -> Result<T>,
) -> Result<Vec<(ItemId, T)>> {
    let n = d.seq_len()?;
    let mut items = Vec::with_capacity(n);
    for _ in 0..n {
        let item = d.u32()?;
        items.push((item, decode(d)?));
    }
    Ok(items)
}

/// One committed change, as framed into the write-ahead log.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// A table registered with the catalog (DDL), rows and their
    /// provenance included — covers both `CrowdDb::create_table_with` and
    /// domain loading.
    CreateTable(Table),
    /// A relational mutation (`INSERT` / `UPDATE` / `DELETE` / DDL issued
    /// as SQL), replayed by re-executing the statement text: mutations
    /// never dispatch crowd work, so re-execution against the recovered
    /// catalog state is deterministic.
    Mutation {
        /// The statement text, exactly as executed.
        sql: String,
    },
    /// One materialized (expanded) column: every item's value and its
    /// provenance mark.
    MaterializeColumn {
        /// The table (lower-cased).
        table: String,
        /// The column (lower-cased).
        column: String,
        /// The column's declared type.
        data_type: DataType,
        /// Per-item values, sorted by item id.
        values: Vec<(ItemId, Value)>,
        /// One provenance mark per item — the tag its rows receive —
        /// sorted by item id.
        ledger: Vec<(ItemId, CellProvenance)>,
    },
    /// Direct cell overwrites of an existing column, keyed by item id
    /// (repair rounds).
    SetCells {
        /// The table (lower-cased).
        table: String,
        /// The column (lower-cased).
        column: String,
        /// Per-item replacement values, sorted by item id.
        values: Vec<(ItemId, Value)>,
    },
    /// A batch of judgment-cache writes (one crowd question's ingest, or a
    /// repair round's refresh).
    CachePut {
        /// The table key (lower-cased).
        table: String,
        /// The attribute concept key (lower-cased).
        attribute: String,
        /// The entries, sorted by item id.
        entries: Vec<(ItemId, CachedJudgment)>,
        /// The database's crowd-round counter after the write — replay
        /// takes the maximum, so a reopened database keeps drawing fresh
        /// round seeds instead of repeating pre-crash ones.
        rounds: u64,
    },
    /// All cached judgments of one `(table, attribute)` dropped.
    CacheInvalidate {
        /// The table key (lower-cased).
        table: String,
        /// The attribute concept key (lower-cased).
        attribute: String,
    },
    /// The first record of every segment: the configuration the replayer
    /// depends on, and which partition of which spec the segment belongs
    /// to (partition 0 of `Single` for a table of one partition).
    /// Recovery rejects a directory whose recorded `id_column` differs
    /// from the opening configuration — item-keyed records would otherwise
    /// be routed through the wrong id → row mapping — and re-routes a
    /// multi-partition statement's rows to this segment's slice even when
    /// the manifest has not recorded the table yet (a table created after
    /// the last checkpoint).  Tag 6, the partition-free meta record of
    /// format version 2, is retired and decodes as corrupt.
    MetaPartition {
        /// The id-column name the writing database was configured with.
        id_column: String,
        /// The partition index this segment holds.
        partition: u32,
        /// The table's partitioning spec.
        spec: PartitionSpec,
    },
}

impl WalRecord {
    /// Encodes the record to its framed payload bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Encoder::new();
        match self {
            WalRecord::CreateTable(table) => {
                e.u8(0);
                encode_table(&mut e, table);
            }
            WalRecord::Mutation { sql } => {
                e.u8(1);
                e.str(sql);
            }
            WalRecord::MaterializeColumn {
                table,
                column,
                data_type,
                values,
                ledger,
            } => {
                e.u8(2);
                e.str(table);
                e.str(column);
                encode_data_type(&mut e, *data_type);
                encode_items(&mut e, values, encode_value);
                encode_items(&mut e, ledger, encode_provenance);
            }
            WalRecord::SetCells {
                table,
                column,
                values,
            } => {
                e.u8(3);
                e.str(table);
                e.str(column);
                encode_items(&mut e, values, encode_value);
            }
            WalRecord::CachePut {
                table,
                attribute,
                entries,
                rounds,
            } => {
                e.u8(4);
                e.str(table);
                e.str(attribute);
                encode_items(&mut e, entries, |e, j| j.encode(e));
                e.u64(*rounds);
            }
            WalRecord::CacheInvalidate { table, attribute } => {
                e.u8(5);
                e.str(table);
                e.str(attribute);
            }
            WalRecord::MetaPartition {
                id_column,
                partition,
                spec,
            } => {
                e.u8(7);
                e.str(id_column);
                e.u32(*partition);
                encode_partition_spec(&mut e, spec);
            }
        }
        e.into_bytes()
    }

    /// Decodes one record from its payload bytes, rejecting trailing
    /// garbage.
    pub fn decode(bytes: &[u8]) -> Result<Self> {
        let mut d = Decoder::new(bytes);
        let record = match d.u8()? {
            0 => WalRecord::CreateTable(decode_table(&mut d)?),
            1 => WalRecord::Mutation { sql: d.str()? },
            2 => WalRecord::MaterializeColumn {
                table: d.str()?,
                column: d.str()?,
                data_type: decode_data_type(&mut d)?,
                values: decode_items(&mut d, decode_value)?,
                ledger: decode_items(&mut d, decode_provenance)?,
            },
            3 => WalRecord::SetCells {
                table: d.str()?,
                column: d.str()?,
                values: decode_items(&mut d, decode_value)?,
            },
            4 => WalRecord::CachePut {
                table: d.str()?,
                attribute: d.str()?,
                entries: decode_items(&mut d, CachedJudgment::decode)?,
                rounds: d.u64()?,
            },
            5 => WalRecord::CacheInvalidate {
                table: d.str()?,
                attribute: d.str()?,
            },
            7 => WalRecord::MetaPartition {
                id_column: d.str()?,
                partition: d.u32()?,
                spec: decode_partition_spec(&mut d)?,
            },
            tag => return Err(corrupt("WAL record", tag)),
        };
        if !d.is_exhausted() {
            return Err(StorageError::Corrupt(
                "trailing bytes after WAL record".into(),
            ));
        }
        Ok(record)
    }
}

/// Splits `records` among the partitions of a table partitioned by
/// `spec`, in `k` order: the one place that decides which records, and
/// which of their items, each partition's segment receives.
///
/// An item-keyed record keeps in partition `k` only the entries whose
/// item routes to `k`, in their order.  A [`WalRecord::MaterializeColumn`]
/// reaches every partition even when its slice is empty, since it carries
/// a schema change every partition must replay.  An empty
/// [`WalRecord::SetCells`] or [`WalRecord::CachePut`] slice is dropped,
/// since it changes nothing.  Any other record reaches every partition.
/// A single-partition table receives `records` unchanged.
pub fn slice_records(spec: &PartitionSpec, records: Vec<WalRecord>) -> Vec<Vec<WalRecord>> {
    if spec.is_single() {
        return vec![records];
    }
    let slice = |k: usize, record: &WalRecord| {
        let mut slice = record.clone();
        let keep = |item: ItemId| spec.route_item(item) == k;
        match &mut slice {
            WalRecord::MaterializeColumn { values, ledger, .. } => {
                values.retain(|pair| keep(pair.0));
                ledger.retain(|pair| keep(pair.0));
            }
            WalRecord::SetCells { values, .. } => values.retain(|pair| keep(pair.0)),
            WalRecord::CachePut { entries, .. } => entries.retain(|pair| keep(pair.0)),
            _ => {}
        }
        match &slice {
            WalRecord::SetCells { values, .. } if values.is_empty() => None,
            WalRecord::CachePut { entries, .. } if entries.is_empty() => None,
            _ => Some(slice),
        }
    };
    (0..spec.partition_count())
        .map(|k| {
            records
                .iter()
                .filter_map(|record| slice(k, record))
                .collect()
        })
        .collect()
}

/// One judgment-cache group — the `(table, attribute)` key and its
/// entries, sorted by item id — as a snapshot stores it and the engine's
/// cache exports it.
pub type CacheGroup = (String, String, Vec<(ItemId, CachedJudgment)>);

/// The point-in-time image of one partition of a table that a checkpoint
/// writes.  The judgment cache's effectiveness counters are not here:
/// they are global, and the manifest carries them.
///
/// A checkpoint encodes the live partition in place, through a borrowed
/// table; a decoded image owns the table it read.
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotImage<'a> {
    /// The partition's slice of the table, tags included.
    pub table: Cow<'a, Table>,
    /// The table's judgment-cache groups, each holding the entries of the
    /// items routed to the partition, sorted by attribute.
    pub cache: Vec<CacheGroup>,
    /// The crowd-round counter at checkpoint time.
    pub crowd_rounds: u64,
    /// The id-column name the writing database was configured with;
    /// recovery rejects an open under a different configuration.
    pub id_column: String,
    /// Generation of the WAL this snapshot supersedes a prefix of.
    pub wal_generation: u64,
    /// How many leading records of that generation's log are already
    /// folded into this snapshot.  Replay skips them **iff** the log still
    /// carries `wal_generation` — the crash window between snapshot
    /// rename and log truncation must not double-apply non-idempotent
    /// records.
    pub wal_records_applied: u64,
}

impl SnapshotImage<'_> {
    /// Encodes the image to its payload bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Encoder::new();
        encode_table(&mut e, &self.table);
        e.seq_len(self.cache.len());
        for (table, attribute, entries) in &self.cache {
            e.str(table);
            e.str(attribute);
            encode_items(&mut e, entries, |e, j| j.encode(e));
        }
        e.u64(self.crowd_rounds);
        e.str(&self.id_column);
        e.u64(self.wal_generation);
        e.u64(self.wal_records_applied);
        e.into_bytes()
    }

    /// Decodes an image from its payload bytes, rejecting trailing garbage.
    pub fn decode(bytes: &[u8]) -> Result<SnapshotImage<'static>> {
        let mut d = Decoder::new(bytes);
        let table = decode_table(&mut d)?;
        let n_groups = d.seq_len()?;
        let mut cache = Vec::with_capacity(n_groups);
        for _ in 0..n_groups {
            let table = d.str()?;
            let attribute = d.str()?;
            cache.push((
                table,
                attribute,
                decode_items(&mut d, CachedJudgment::decode)?,
            ));
        }
        let image = SnapshotImage {
            table: Cow::Owned(table),
            cache,
            crowd_rounds: d.u64()?,
            id_column: d.str()?,
            wal_generation: d.u64()?,
            wal_records_applied: d.u64()?,
        };
        if !d.is_exhausted() {
            return Err(StorageError::Corrupt(
                "trailing bytes after snapshot image".into(),
            ));
        }
        Ok(image)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample_table() -> Table {
        let schema = Schema::new(vec![
            Column::not_null("item_id", DataType::Integer),
            Column::new("name", DataType::Text),
            Column::new("is_comedy", DataType::Boolean),
        ])
        .unwrap();
        let mut table = Table::new("movies", schema);
        table
            .insert_row(vec![
                Value::Integer(1),
                Value::Text("Rocky".into()),
                Value::Null,
            ])
            .unwrap();
        table
            .insert_row(vec![
                Value::Integer(2),
                Value::Text("Airplane!".into()),
                Value::Boolean(true),
            ])
            .unwrap();
        table
    }

    #[test]
    fn wal_records_round_trip() {
        let records = vec![
            WalRecord::CreateTable(sample_table()),
            WalRecord::Mutation {
                sql: "INSERT INTO movies (item_id, name) VALUES (3, 'Alien')".into(),
            },
            WalRecord::MaterializeColumn {
                table: "movies".into(),
                column: "is_comedy".into(),
                data_type: DataType::Boolean,
                values: vec![(1, Value::Boolean(false)), (2, Value::Boolean(true))],
                ledger: vec![
                    (
                        1,
                        CellProvenance::CrowdDerived {
                            confidence: 0.9,
                            cost_share: 0.02,
                        },
                    ),
                    (2, CellProvenance::CacheHit { confidence: 0.8 }),
                    (
                        3,
                        CellProvenance::Missing {
                            reason: MissingReason::BudgetExhausted,
                        },
                    ),
                ],
            },
            WalRecord::SetCells {
                table: "movies".into(),
                column: "is_comedy".into(),
                values: vec![(2, Value::Boolean(false))],
            },
            WalRecord::CachePut {
                table: "movies".into(),
                attribute: "comedy".into(),
                entries: vec![(
                    7,
                    CachedJudgment {
                        verdict: Some(true),
                        judgments: 10,
                        cost: 0.02,
                        confidence: 0.95,
                    },
                )],
                rounds: 4,
            },
            WalRecord::CacheInvalidate {
                table: "movies".into(),
                attribute: "comedy".into(),
            },
            WalRecord::MetaPartition {
                id_column: "item_id".into(),
                partition: 0,
                spec: PartitionSpec::Single,
            },
            WalRecord::MetaPartition {
                id_column: "item_id".into(),
                partition: 3,
                spec: PartitionSpec::Hash { n: 4 },
            },
            WalRecord::MetaPartition {
                id_column: "item_id".into(),
                partition: 0,
                spec: PartitionSpec::Range {
                    bounds: vec![-5, 1000],
                },
            },
        ];
        for record in records {
            let bytes = record.encode();
            assert_eq!(WalRecord::decode(&bytes).unwrap(), record);
        }
        // Tag 6, format version 2's partition-free meta record, is retired.
        let mut retired = Encoder::new();
        retired.u8(6);
        retired.str("item_id");
        assert!(matches!(
            WalRecord::decode(&retired.into_bytes()),
            Err(StorageError::Corrupt(_))
        ));
    }

    #[test]
    fn snapshot_image_round_trips() {
        let mut table = sample_table();
        table
            .set_cell(
                0,
                "is_comedy",
                Value::Null,
                MissingReason::NoMajority.into(),
            )
            .unwrap();
        let image = SnapshotImage {
            table: Cow::Borrowed(&table),
            cache: vec![(
                "movies".into(),
                "comedy".into(),
                vec![(
                    1,
                    CachedJudgment {
                        verdict: None,
                        judgments: 8,
                        cost: 0.01,
                        confidence: 0.0,
                    },
                )],
            )],
            crowd_rounds: 9,
            id_column: "item_id".into(),
            wal_generation: 0xABCD,
            wal_records_applied: 17,
        };
        let decoded = SnapshotImage::decode(&image.encode()).unwrap();
        assert_eq!(decoded, image);
        assert!(matches!(decoded.table, Cow::Owned(_)));
        assert_eq!(*decoded.table, table);
    }

    /// One mark of every provenance variant, every missing reason included.
    fn every_mark() -> Vec<(ItemId, CellProvenance)> {
        let reasons = [
            MissingReason::BudgetExhausted,
            MissingReason::NoCachedJudgment,
            MissingReason::BelowQualityFloor,
            MissingReason::NoMajority,
            MissingReason::OutOfSpace,
            MissingReason::NotExpanded,
            MissingReason::NoItemId,
        ];
        let mut marks = vec![
            (0, CellProvenance::Stored),
            (
                1,
                CellProvenance::CrowdDerived {
                    confidence: 0.75,
                    cost_share: 0.5,
                },
            ),
            (2, CellProvenance::CacheHit { confidence: 0.25 }),
            (3, CellProvenance::Extracted),
        ];
        for (item, reason) in (4..).zip(reasons) {
            marks.push((item, CellProvenance::Missing { reason }));
        }
        marks
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// The on-disk bytes of provenance marks are a contract with every
    /// database directory of format version 2: these images must encode to
    /// exactly these bytes, and decode back from them.
    #[test]
    fn provenance_marks_encode_to_golden_bytes() {
        let record = WalRecord::MaterializeColumn {
            table: "m".into(),
            column: "c".into(),
            data_type: DataType::Boolean,
            values: vec![(1, Value::Boolean(true))],
            ledger: every_mark(),
        };
        const RECORD: &str = "0201000000000000006d0100000000000000630301000000000000000100000004010b0000000000000000000000000100000001000000000000e83f000000000000e03f0200000002000000000000d03f03000000030400000004000500000004010600000004020700000004030800000004040900000004050a0000000406";
        assert_eq!(hex(&record.encode()), RECORD);
        assert_eq!(WalRecord::decode(&record.encode()).unwrap(), record);

        // One row per mark, each row's cell tagged with its mark.
        let schema = Schema::new(vec![Column::new("c", DataType::Boolean)]).unwrap();
        let mut table = Table::new("m", schema);
        table.track_provenance("c").unwrap();
        for (row, (_, mark)) in every_mark().into_iter().enumerate() {
            table.insert_row(vec![Value::Null]).unwrap();
            table.set_cell(row, "c", Value::Null, mark).unwrap();
        }
        let image = SnapshotImage {
            table: Cow::Borrowed(&table),
            cache: Vec::new(),
            crowd_rounds: 0,
            id_column: "id".into(),
            wal_generation: 0,
            wal_records_applied: 0,
        };
        const IMAGE: &str = "01000000000000006d010000000000000001000000000000006303010b00000000000000010000000000000000010000000000000000010000000000000000010000000000000000010000000000000000010000000000000000010000000000000000010000000000000000010000000000000000010000000000000000010000000000000000010000000000000000000000000101000000000000e83f000000000000e03f02000000000000d03f0301040001040101040201040301040401040501040601000000000000000000000000000000000200000000000000696400000000000000000000000000000000";
        assert_eq!(hex(&image.encode()), IMAGE);
        assert_eq!(SnapshotImage::decode(&image.encode()).unwrap(), image);
    }

    /// A tag column's bytes: a run per repeated payload-free mark, a cell
    /// per mark with a payload, every mark kind included.
    #[test]
    fn tag_columns_encode_to_golden_bytes_and_back() {
        let crowd = CellProvenance::CrowdDerived {
            confidence: 0.75,
            cost_share: 0.5,
        };
        let missing = CellProvenance::Missing {
            reason: MissingReason::NoMajority,
        };
        let mut column = vec![CellProvenance::Stored; 3];
        column.extend([crowd, crowd, CellProvenance::CacheHit { confidence: 0.25 }]);
        column.extend(vec![CellProvenance::Extracted; 200]);
        column.extend([missing, CellProvenance::Stored]);
        // One `Missing` cell of each reason.
        column.extend(every_mark().into_iter().skip(4).map(|(_, mark)| mark));
        let mut e = Encoder::new();
        encode_tag_column(&mut e, &column);
        let bytes = e.into_bytes();
        const COLUMN: &str = "000301000000000000e83f000000000000e03f01000000000000e83f000000000000e03f02000000000000d03f03c8010403010001040001040101040201040301040401040501040601";
        assert_eq!(hex(&bytes), COLUMN);
        let mut decoded = vec![CellProvenance::Extracted; column.len()];
        let mut d = Decoder::new(&bytes);
        decode_tag_column(&mut d, decoded.iter_mut()).unwrap();
        assert!(d.is_exhausted());
        assert_eq!(decoded, column);
    }

    #[test]
    fn tag_column_runs_must_fill_the_column_exactly() {
        let decode = |bytes: &[u8], cells: usize| {
            let mut column = vec![CellProvenance::Stored; cells];
            decode_tag_column(&mut Decoder::new(bytes), column.iter_mut())
        };
        // Three `Extracted` cells: a run of 3.
        assert!(decode(&[3, 3], 3).is_ok());
        // An empty column reads no byte.
        assert!(decode(&[], 0).is_ok());
        for (what, bytes) in [
            ("a zero-length run", &[3, 0, 3, 3][..]),
            ("a run past the cell count", &[3, 4][..]),
            ("runs that sum short", &[3, 2][..]),
            ("a run cut short", &[3][..]),
        ] {
            assert!(
                matches!(decode(bytes, 3), Err(StorageError::Corrupt(_))),
                "{what} decoded"
            );
        }
    }

    #[test]
    fn decode_rejects_bad_tags_and_trailing_bytes() {
        assert!(matches!(
            WalRecord::decode(&[0xFF]),
            Err(StorageError::Corrupt(_))
        ));
        let mut bytes = WalRecord::Mutation { sql: "x".into() }.encode();
        bytes.push(0);
        assert!(matches!(
            WalRecord::decode(&bytes),
            Err(StorageError::Corrupt(_))
        ));
    }

    #[test]
    fn create_table_records_rebuild_the_table() {
        let table = sample_table();
        let record = WalRecord::CreateTable(table.clone());
        let WalRecord::CreateTable(decoded) = WalRecord::decode(&record.encode()).unwrap() else {
            panic!("a CreateTable record decoded as another kind");
        };
        assert_eq!(decoded.name(), "movies");
        assert_eq!(decoded.len(), 2);
        assert_eq!(decoded, table);
    }

    /// The bytes of a `CreateTable` record of `table`'s name, schema and
    /// rows with the tag columns `tags` — written here through the
    /// [`Encoder`], since a [`Table`] cannot hold a column of the wrong
    /// length, out of order or past its schema.
    fn create_table_bytes(table: &Table, tags: &[(usize, Vec<CellProvenance>)]) -> Vec<u8> {
        let mut e = Encoder::new();
        e.u8(0);
        e.str(table.name());
        encode_schema(&mut e, table.schema());
        e.seq_len(table.len());
        for row in table.rows() {
            e.seq_len(row.len());
            for value in row {
                encode_value(&mut e, value);
            }
        }
        e.seq_len(tags.len());
        for (column, tags) in tags {
            e.u32(*column as u32);
            encode_tag_column(&mut e, tags);
        }
        e.into_bytes()
    }

    /// The two-row sample's `is_comedy` tags: `Extracted, CacheHit`.
    fn sample_tags() -> Vec<(usize, Vec<CellProvenance>)> {
        vec![(
            2,
            vec![
                CellProvenance::Extracted,
                CellProvenance::CacheHit { confidence: 0.5 },
            ],
        )]
    }

    #[test]
    fn tag_columns_must_match_the_row_count() {
        let mut tagged = sample_table();
        for (row, &mark) in sample_tags()[0].1.iter().enumerate() {
            let value = tagged.value(row, "is_comedy").unwrap().clone();
            tagged.set_cell(row, "is_comedy", value, mark).unwrap();
        }
        let bytes = create_table_bytes(&sample_table(), &sample_tags());
        assert_eq!(bytes, WalRecord::CreateTable(tagged.clone()).encode());
        assert_eq!(
            WalRecord::decode(&bytes).unwrap(),
            WalRecord::CreateTable(tagged)
        );
        // A tag column one cell short and one cell long, encoded for a row
        // count it does not match: the column ends early (the decoder runs
        // out of bytes) or leaves bytes behind.
        let mut short = sample_tags();
        short[0].1.pop();
        let mut long = sample_tags();
        long[0]
            .1
            .push(CellProvenance::CacheHit { confidence: 0.25 });
        for (what, tags) in [("short", short), ("long", long)] {
            assert!(
                matches!(
                    WalRecord::decode(&create_table_bytes(&sample_table(), &tags)),
                    Err(StorageError::Corrupt(_))
                ),
                "a {what} tag column decoded"
            );
        }
        // A run of payload-free marks reaching past the last row, and one
        // falling short of it.
        for run in [1, 3] {
            let runs = vec![(2, vec![CellProvenance::Extracted; run])];
            assert!(
                matches!(
                    WalRecord::decode(&create_table_bytes(&sample_table(), &runs)),
                    Err(StorageError::Corrupt(_))
                ),
                "a run of {run} over two rows decoded"
            );
        }
    }

    #[test]
    fn tag_columns_past_the_schema_or_out_of_order_are_corrupt() {
        for tags in [
            // Position 3 of a three-column table.
            vec![(3, vec![CellProvenance::Extracted; 2])],
            vec![(usize::MAX >> 32, vec![CellProvenance::Extracted; 2])],
            // The same column twice, and two columns in reverse order.
            vec![
                (1, vec![CellProvenance::Extracted; 2]),
                (1, vec![CellProvenance::Extracted; 2]),
            ],
            vec![
                (2, vec![CellProvenance::Extracted; 2]),
                (0, vec![CellProvenance::Extracted; 2]),
            ],
        ] {
            assert!(
                matches!(
                    WalRecord::decode(&create_table_bytes(&sample_table(), &tags)),
                    Err(StorageError::Corrupt(_))
                ),
                "tags {tags:?} decoded"
            );
        }
    }

    /// A value of `data_type`, or `NULL`, varied by `bits`.
    fn typed_value(data_type: DataType, bits: u64) -> Value {
        if bits.is_multiple_of(5) {
            return Value::Null;
        }
        match data_type {
            DataType::Integer => Value::Integer(bits as i64),
            DataType::Float => Value::Float((bits as i64) as f64 / 1024.0),
            DataType::Text => Value::Text(format!("t{:x}", bits >> 40)),
            DataType::Boolean => Value::Boolean(bits & 2 == 2),
        }
    }

    /// A mark of every variant and missing reason, chosen by `kind`.
    fn any_mark(kind: u8, bits: u64) -> CellProvenance {
        let marks = every_mark();
        match marks[kind as usize % marks.len()].1 {
            CellProvenance::CrowdDerived { .. } => CellProvenance::CrowdDerived {
                confidence: (bits % 1000) as f64 / 1000.0,
                cost_share: (bits % 7) as f64 / 8.0,
            },
            CellProvenance::CacheHit { .. } => CellProvenance::CacheHit {
                confidence: (bits % 1000) as f64 / 1000.0,
            },
            mark => mark,
        }
    }

    /// A table of `types.len()` nullable columns and `rows` rows, values
    /// from `values`; the columns flagged in `tracked` track provenance,
    /// their tags laid out as runs drawn from `runs`.
    fn random_table(
        types: &[(u8, bool)],
        rows: usize,
        values: &[u64],
        runs: &[(u8, usize, u64)],
    ) -> Table {
        const TYPES: [DataType; 4] = [
            DataType::Integer,
            DataType::Float,
            DataType::Text,
            DataType::Boolean,
        ];
        let columns = (types.iter().enumerate())
            .map(|(at, &(ty, _))| Column::new(format!("c{at}"), TYPES[ty as usize % 4]))
            .collect();
        let mut table = Table::new("t", Schema::new(columns).unwrap());
        let mut values = values.iter().cycle();
        for _ in 0..rows {
            let row = (types.iter())
                .map(|&(ty, _)| typed_value(TYPES[ty as usize % 4], *values.next().unwrap()))
                .collect();
            table.insert_row(row).unwrap();
        }
        let mut runs = runs.iter().cycle();
        for (at, _) in types
            .iter()
            .enumerate()
            .filter(|(_, &(_, tracked))| tracked)
        {
            let column = format!("c{at}");
            table.track_provenance(&column).unwrap();
            let mut row = 0;
            while row < rows {
                let &(kind, run, bits) = runs.next().unwrap();
                let mark = any_mark(kind, bits);
                for row in row..(row + run).min(rows) {
                    let value = table.value(row, &column).unwrap().clone();
                    table.set_cell(row, &column, value, mark).unwrap();
                }
                row += run;
            }
        }
        table
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn random_tagged_tables_round_trip_exactly(
            types in prop::collection::vec((0u8..4, any::<bool>()), 1..=5),
            rows in 0usize..=200,
            values in prop::collection::vec(any::<u64>(), 1..32),
            runs in prop::collection::vec((0u8..11, 1usize..=300, any::<u64>()), 1..16),
        ) {
            let table = random_table(&types, rows, &values, &runs);
            prop_assert_eq!(
                (0..types.len()).filter(|&column| table.tags(column).is_some()).count(),
                types.iter().filter(|&&(_, tracked)| tracked).count()
            );
            let record = WalRecord::CreateTable(table.clone());
            prop_assert_eq!(&WalRecord::decode(&record.encode()).unwrap(), &record);
            let snapshot = SnapshotImage {
                table: Cow::Borrowed(&table),
                cache: Vec::new(),
                crowd_rounds: rows as u64,
                id_column: "c0".into(),
                wal_generation: 7,
                wal_records_applied: 3,
            };
            let decoded = SnapshotImage::decode(&snapshot.encode()).unwrap();
            prop_assert_eq!(&decoded, &snapshot);
            prop_assert_eq!(&*decoded.table, &table);
        }

        #[test]
        fn mutated_snapshot_images_never_panic_the_decoder(
            at in any::<u64>(),
            byte in 0u8..=255,
            cut in any::<u64>(),
            runs in prop::collection::vec((0u8..11, 1usize..=4, any::<u64>()), 1..8),
        ) {
            let table = random_table(&[(0, true), (2, false), (3, true)], 12, &[1, 6, 9], &runs);
            let snapshot = SnapshotImage {
                table: Cow::Borrowed(&table),
                cache: Vec::new(),
                crowd_rounds: 0,
                id_column: "c0".into(),
                wal_generation: 0,
                wal_records_applied: 0,
            };
            let mut bytes = snapshot.encode();
            let at = (at % bytes.len() as u64) as usize;
            bytes[at] = byte;
            let _ = SnapshotImage::decode(&bytes);
            bytes.truncate((cut % bytes.len() as u64) as usize);
            prop_assert!(SnapshotImage::decode(&bytes).is_err());
        }
    }

    #[test]
    fn slicing_routes_items_and_keeps_schema_changes_everywhere() {
        let spec = PartitionSpec::Hash { n: 4 };
        // Items 0..8 and the partition each routes to.
        let home: Vec<usize> = (0..8).map(|item| spec.route_item(item)).collect();
        let only = home[0];
        let on_only: Vec<ItemId> = (0..8).filter(|&i| home[i as usize] == only).collect();
        let materialize = WalRecord::MaterializeColumn {
            table: "t".into(),
            column: "c".into(),
            data_type: DataType::Boolean,
            values: on_only.iter().map(|&i| (i, Value::Boolean(true))).collect(),
            ledger: (0..8).map(|i| (i, CellProvenance::Extracted)).collect(),
        };
        let set = WalRecord::SetCells {
            table: "t".into(),
            column: "c".into(),
            values: on_only
                .iter()
                .map(|&i| (i, Value::Boolean(false)))
                .collect(),
        };
        let put = WalRecord::CachePut {
            table: "t".into(),
            attribute: "a".into(),
            entries: on_only
                .iter()
                .map(|&i| {
                    let judgment = CachedJudgment {
                        verdict: Some(true),
                        judgments: 3,
                        cost: 0.03,
                        confidence: 1.0,
                    };
                    (i, judgment)
                })
                .collect(),
            rounds: 2,
        };
        let invalidate = WalRecord::CacheInvalidate {
            table: "t".into(),
            attribute: "a".into(),
        };
        let records = vec![materialize, set, put, invalidate.clone()];
        let sliced = slice_records(&spec, records.clone());
        assert_eq!(sliced.len(), 4);
        for (k, slice) in sliced.iter().enumerate() {
            let kinds: Vec<u8> = slice.iter().map(|r| r.encode()[0]).collect();
            if k == only {
                assert_eq!(kinds, [2, 3, 4, 5], "partition {k}");
            } else {
                // Only the schema change and the invalidation reach it.
                assert_eq!(kinds, [2, 5], "partition {k}");
            }
            match &slice[0] {
                WalRecord::MaterializeColumn { values, ledger, .. } => {
                    assert!(ledger.iter().all(|&(i, _)| home[i as usize] == k));
                    assert_eq!(ledger.len(), home.iter().filter(|&&h| h == k).count());
                    assert_eq!(values.is_empty(), k != only);
                }
                other => panic!("partition {k} starts with {other:?}"),
            }
            assert_eq!(slice.last(), Some(&invalidate));
        }
        // A single-partition table receives every record unchanged, even
        // one without items.
        let empty = WalRecord::SetCells {
            table: "t".into(),
            column: "c".into(),
            values: Vec::new(),
        };
        let mut single = records;
        single.push(empty);
        assert_eq!(
            slice_records(&PartitionSpec::Single, single.clone()),
            [single]
        );
    }
}
