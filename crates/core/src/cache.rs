//! The judgment cache: never pay the crowd twice for the same answer.
//!
//! Crowd judgments are the expensive resource of a crowd-enabled database —
//! every `(table, attribute, item)` triple a worker has judged represents
//! real money and real minutes.  The seed implementation threw that work
//! away after each expansion; this cache keeps the aggregated verdicts so
//! that repeated expansion rounds — forced re-expansions
//! (`CrowdDb::expand_attribute` on an already-materialized column), plans
//! overlapping earlier ones, and queries that coalesced onto another
//! query's in-flight round ([`crate::inflight`]) — reuse them instead of
//! re-dispatching HITs.  A repair round that distrusts the stored answers
//! evicts them via `CrowdDb::invalidate_judgments`; the standalone
//! [`crate::boost`] and [`crate::repair`] helpers operate on raw judgment
//! streams and do not consult the cache.
//!
//! The cache stores *aggregated* per-item verdicts (majority vote plus the
//! judgment count and dollar cost behind it), not raw judgment streams: the
//! planner needs answers, and the cost figure is what the hit/miss counters
//! convert into the money-saved metric surfaced on
//! [`crate::ExpansionReport`].
//!
//! # Sharding
//!
//! Entries are partitioned **by table**, mirroring the engine's per-table
//! catalog shards and WAL segments: each table's entries live behind their
//! own [`RwLock`], found through a table-map lock that is held only long
//! enough to clone the partition handle.  Concurrent expansions on
//! different tables therefore never contend on cache state, and a per-table
//! incremental checkpoint can export exactly one partition
//! ([`JudgmentCache::export_table`]).  The hit/miss/cost-saved counters are
//! global (they describe the whole cache's effectiveness) and live behind a
//! separate small mutex, always acquired *after* any partition lock.
//!
//! All methods take `&self`, so a cache shared by N concurrently executing
//! queries needs no external synchronization.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, RwLock};

use perceptual::ItemId;

use crate::sync::{mlock, rlock, wlock};

/// A cache entry is storage's judgment type, so the cache exports and
/// restores exactly what snapshots and the log hold.
pub use storage::{CacheGroup, CachedJudgment};

/// Counters describing cache effectiveness.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that found no cached verdict.  The items behind them went to
    /// the crowd — either in this query's own round or, when the
    /// acquisition coalesced onto a concurrent query's in-flight round, in
    /// that round.
    pub misses: u64,
    /// Dollars *not* re-spent thanks to cache hits (the cost originally paid
    /// for the reused judgments).
    pub cost_saved: f64,
    /// Number of cached `(table, attribute, item)` entries.
    pub entries: usize,
}

/// One table's share of the cache: attribute → item → judgment.
#[derive(Debug, Default)]
struct Partition {
    entries: HashMap<String, HashMap<ItemId, CachedJudgment>>,
}

impl Partition {
    fn len(&self) -> usize {
        self.entries.values().map(HashMap::len).sum()
    }
}

/// Global effectiveness counters, kept together under one mutex so the
/// dollars-saved figure always moves with the hit count that earned it.
#[derive(Debug, Default)]
struct Counters {
    hits: u64,
    misses: u64,
    cost_saved: f64,
}

/// A concurrency-safe cache of aggregated crowd judgments keyed by
/// `(table, attribute, item)`, partitioned by table.
#[derive(Debug, Default)]
pub struct JudgmentCache {
    /// Table (lowercased) → that table's partition.  The map lock guards
    /// only the membership; entry state lives behind each partition's own
    /// lock so distinct tables never contend.
    partitions: RwLock<HashMap<String, Arc<RwLock<Partition>>>>,
    counters: Mutex<Counters>,
}

impl JudgmentCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        JudgmentCache::default()
    }

    /// Looks up the partition for `table`, if one exists.  The table-map
    /// lock is released before the handle is returned.
    fn partition_of(&self, table: &str) -> Option<Arc<RwLock<Partition>>> {
        rlock(&self.partitions).get(&table.to_lowercase()).cloned()
    }

    /// Looks up or creates the partition for `table`.
    fn partition_or_create(&self, table: &str) -> Arc<RwLock<Partition>> {
        let key = table.to_lowercase();
        if let Some(partition) = rlock(&self.partitions).get(&key) {
            return Arc::clone(partition);
        }
        Arc::clone(wlock(&self.partitions).entry(key).or_default())
    }

    /// Splits `items` into cached judgments and items that must be sent to
    /// the crowd, updating the hit/miss/cost-saved counters.
    ///
    /// This is the planner's bulk entry point: one call per attribute of an
    /// expansion plan.
    pub fn partition(
        &self,
        table: &str,
        attribute: &str,
        items: &[ItemId],
    ) -> (HashMap<ItemId, CachedJudgment>, Vec<ItemId>) {
        let (cached, uncached) = self.partition_peek(table, attribute, items);
        let mut counters = mlock(&self.counters);
        counters.hits += cached.len() as u64;
        counters.misses += uncached.len() as u64;
        counters.cost_saved += cached.values().map(|j| j.cost).sum::<f64>();
        drop(counters);
        (cached, uncached)
    }

    /// Like [`partition`], but without touching the hit/miss/cost-saved
    /// counters — for sibling columns that share one concept's judgments
    /// inside a single plan (so the concept's reuse is counted once), and
    /// for waiters reading the verdicts an in-flight owner just published.
    ///
    /// [`partition`]: JudgmentCache::partition
    pub fn partition_peek(
        &self,
        table: &str,
        attribute: &str,
        items: &[ItemId],
    ) -> (HashMap<ItemId, CachedJudgment>, Vec<ItemId>) {
        let mut cached = HashMap::new();
        let mut uncached = Vec::new();
        match self.partition_of(table) {
            Some(partition) => {
                let partition = rlock(&partition);
                let per_item = partition.entries.get(&attribute.to_lowercase());
                for &item in items {
                    match per_item.and_then(|m| m.get(&item)) {
                        Some(&judgment) => {
                            cached.insert(item, judgment);
                        }
                        None => uncached.push(item),
                    }
                }
            }
            None => uncached.extend_from_slice(items),
        }
        (cached, uncached)
    }

    /// Reads one entry without touching the counters.
    pub fn peek(&self, table: &str, attribute: &str, item: ItemId) -> Option<CachedJudgment> {
        let partition = self.partition_of(table)?;
        let partition = rlock(&partition);
        partition
            .entries
            .get(&attribute.to_lowercase())
            .and_then(|m| m.get(&item))
            .copied()
    }

    /// Stores one aggregated judgment.
    pub fn insert(&self, table: &str, attribute: &str, item: ItemId, judgment: CachedJudgment) {
        let partition = self.partition_or_create(table);
        wlock(&partition)
            .entries
            .entry(attribute.to_lowercase())
            .or_default()
            .insert(item, judgment);
    }

    /// Drops every entry of one `(table, attribute)` — used when fresh
    /// judgments must be forced, e.g. after a repair round found the old
    /// ones questionable.
    pub fn invalidate(&self, table: &str, attribute: &str) {
        if let Some(partition) = self.partition_of(table) {
            wlock(&partition).entries.remove(&attribute.to_lowercase());
        }
    }

    /// Current effectiveness counters.
    pub fn stats(&self) -> CacheStats {
        let entries = self.len();
        let counters = mlock(&self.counters);
        CacheStats {
            hits: counters.hits,
            misses: counters.misses,
            cost_saved: counters.cost_saved,
            entries,
        }
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        let partitions: Vec<_> = rlock(&self.partitions).values().cloned().collect();
        partitions.iter().map(|p| rlock(p).len()).sum()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Every cached entry of one table, grouped by attribute and sorted
    /// (both the groups and each group's items) so the export is
    /// deterministic — the judgment half of a per-table incremental
    /// checkpoint.
    pub fn export_table(&self, table: &str) -> Vec<CacheGroup> {
        let key = table.to_lowercase();
        let Some(partition) = self.partition_of(&key) else {
            return Vec::new();
        };
        let partition = rlock(&partition);
        let mut groups: Vec<CacheGroup> = partition
            .entries
            .iter()
            .map(|(attribute, per_item)| {
                let mut items: Vec<(ItemId, CachedJudgment)> =
                    per_item.iter().map(|(&item, &j)| (item, j)).collect();
                items.sort_unstable_by_key(|(item, _)| *item);
                (key.clone(), attribute.clone(), items)
            })
            .collect();
        groups.sort_unstable_by(|a, b| a.1.cmp(&b.1));
        groups
    }

    /// Every cached entry, grouped by `(table, attribute)` and sorted (both
    /// the groups and each group's items) so the export is deterministic —
    /// the judgment half of a durable snapshot, together with
    /// [`stats`](JudgmentCache::stats).
    pub fn export(&self) -> (Vec<CacheGroup>, CacheStats) {
        let mut tables: Vec<String> = rlock(&self.partitions).keys().cloned().collect();
        tables.sort_unstable();
        let mut groups = Vec::new();
        for table in tables {
            groups.extend(self.export_table(&table));
        }
        (groups, self.stats())
    }

    /// Rebuilds a cache from exported groups and counters — the recovery
    /// side of [`export`](JudgmentCache::export).  The `entries` field of
    /// `stats` is ignored (it is derived from the groups).
    pub fn restore(groups: Vec<CacheGroup>, stats: CacheStats) -> Self {
        let cache = JudgmentCache::new();
        cache.absorb(groups);
        cache.set_stats(stats);
        cache
    }

    /// Bulk-inserts exported groups (recovery of one or more tables).
    /// Group keys are normalized (lowercased) exactly like live inserts.
    pub fn absorb(&self, groups: Vec<CacheGroup>) {
        for (table, attribute, items) in groups {
            let partition = self.partition_or_create(&table);
            wlock(&partition)
                .entries
                .entry(attribute.to_lowercase())
                .or_default()
                .extend(items);
        }
    }

    /// Overwrites the global effectiveness counters (recovery only; the
    /// `entries` field is ignored).
    pub fn set_stats(&self, stats: CacheStats) {
        let mut counters = mlock(&self.counters);
        counters.hits = stats.hits;
        counters.misses = stats.misses;
        counters.cost_saved = stats.cost_saved;
    }

    /// Clears entries and counters.
    pub fn clear(&self) {
        wlock(&self.partitions).clear();
        let mut counters = mlock(&self.counters);
        counters.hits = 0;
        counters.misses = 0;
        counters.cost_saved = 0.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn judgment(verdict: Option<bool>, cost: f64) -> CachedJudgment {
        CachedJudgment {
            verdict,
            judgments: 10,
            cost,
            confidence: 0.9,
        }
    }

    #[test]
    fn partition_splits_cached_and_uncached() {
        let cache = JudgmentCache::new();
        cache.insert("movies", "Comedy", 1, judgment(Some(true), 0.02));
        cache.insert("movies", "Comedy", 3, judgment(None, 0.02));

        let (cached, uncached) = cache.partition("movies", "Comedy", &[1, 2, 3, 4]);
        assert_eq!(cached.len(), 2);
        assert_eq!(cached[&1].verdict, Some(true));
        assert_eq!(cached[&3].verdict, None);
        assert_eq!(uncached, vec![2, 4]);

        let stats = cache.stats();
        assert_eq!(stats.hits, 2);
        assert_eq!(stats.misses, 2);
        assert!((stats.cost_saved - 0.04).abs() < 1e-12);
        assert_eq!(stats.entries, 2);
    }

    #[test]
    fn keys_are_case_insensitive_and_scoped() {
        let cache = JudgmentCache::new();
        cache.insert("Movies", "Comedy", 7, judgment(Some(false), 0.01));
        assert!(cache.peek("movies", "comedy", 7).is_some());
        // Different attribute or table → different entry.
        assert!(cache.peek("movies", "Horror", 7).is_none());
        assert!(cache.peek("books", "comedy", 7).is_none());
        // peek does not move the counters.
        assert_eq!(cache.stats().hits, 0);
        assert_eq!(cache.stats().misses, 0);
    }

    #[test]
    fn invalidate_and_clear() {
        let cache = JudgmentCache::new();
        cache.insert("movies", "Comedy", 1, judgment(Some(true), 0.02));
        cache.insert("movies", "Horror", 1, judgment(Some(true), 0.02));
        assert_eq!(cache.len(), 2);
        cache.invalidate("movies", "comedy");
        assert_eq!(cache.len(), 1);
        assert!(cache.peek("movies", "Horror", 1).is_some());
        let _ = cache.partition("movies", "Horror", &[1]);
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.stats(), CacheStats::default());
    }

    #[test]
    fn export_table_scopes_to_one_partition() {
        let cache = JudgmentCache::new();
        cache.insert("movies", "Comedy", 2, judgment(Some(true), 0.02));
        cache.insert("movies", "Comedy", 1, judgment(Some(false), 0.02));
        cache.insert("books", "Sci-Fi", 9, judgment(Some(true), 0.03));

        let movies = cache.export_table("Movies");
        assert_eq!(movies.len(), 1);
        assert_eq!(movies[0].0, "movies");
        assert_eq!(movies[0].1, "comedy");
        // Items sorted by id for determinism.
        assert_eq!(
            movies[0].2.iter().map(|(i, _)| *i).collect::<Vec<_>>(),
            vec![1, 2]
        );
        assert!(cache.export_table("music").is_empty());
        // The full export covers both tables, sorted by table then attribute.
        let (groups, _) = cache.export();
        assert_eq!(
            groups
                .iter()
                .map(|(t, a, _)| (t.as_str(), a.as_str()))
                .collect::<Vec<_>>(),
            vec![("books", "sci-fi"), ("movies", "comedy")]
        );
    }

    #[test]
    fn concurrent_inserts_and_partitions_stay_consistent() {
        use std::sync::Arc;
        use std::thread;

        let cache = Arc::new(JudgmentCache::new());
        let threads: Vec<_> = (0..8u32)
            .map(|t| {
                let cache = Arc::clone(&cache);
                thread::spawn(move || {
                    for item in 0..50u32 {
                        cache.insert("movies", "Comedy", item, judgment(Some(true), 0.01));
                        let (cached, _) =
                            cache.partition_peek("movies", "Comedy", &[item, item + t]);
                        assert!(cached.contains_key(&item));
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        // 50 distinct items, inserted idempotently by 8 threads.
        assert_eq!(cache.len(), 50);
        let (cached, uncached) =
            cache.partition("movies", "Comedy", &(0..60u32).collect::<Vec<_>>());
        assert_eq!(cached.len(), 50);
        assert_eq!(uncached, (50..60u32).collect::<Vec<_>>());
        let stats = cache.stats();
        assert_eq!(stats.hits, 50);
        assert_eq!(stats.misses, 10);
    }
}
