//! Per-cell provenance: where every returned value came from.
//!
//! A crowd-enabled database mixes values of very different pedigree in one
//! result set: stored facts, judgments a crowd was paid for, cached answers
//! bought by earlier queries, extractor extrapolations, and holes a policy
//! left open.  Untyped rows erase that distinction; crowd schema-matching
//! work (Zhang et al., *Reducing Uncertainty of Schema Matching via
//! Crowdsourcing with Accuracy Rates*) shows why per-answer confidence must
//! survive to the consumer.  [`CellProvenance`] is that record: a
//! [`Table`](crate::Table) keeps one beside every cell of the columns it
//! tracks provenance for, written together with the cell's value, and
//! query results carry it on every returned cell.

/// Why a cell of an expanded column has no value.
#[non_exhaustive]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MissingReason {
    /// The query's crowd budget ran out before the item was acquired (a
    /// best-effort query); a later query with budget left can fill the
    /// hole.
    BudgetExhausted,
    /// The query was cache-only and no earlier query had purchased a
    /// judgment for the item.
    NoCachedJudgment,
    /// A verdict exists but its inter-worker agreement lies below the
    /// query's quality floor.
    BelowQualityFloor,
    /// The crowd judged the item but produced no majority (a tie).
    NoMajority,
    /// The item has no coordinates in the bound perceptual space, so the
    /// extractor cannot extrapolate a value for it.
    OutOfSpace,
    /// The row's item was never part of an expansion of this column: an
    /// `INSERT` left the cell `NULL`, or the item was not planned when the
    /// column was materialized.
    NotExpanded,
    /// The row's id column holds no usable item id (`NULL`, non-integer,
    /// negative, or beyond `u32`), so no crowd value can ever be routed to
    /// it.
    NoItemId,
}

impl MissingReason {
    /// True for holes a later query can still fill by paying the crowd
    /// (budget-denied and cache-only-missed items): a column holding one
    /// is *incomplete*, and queries reading it re-run its expansion.
    pub fn is_recoverable(&self) -> bool {
        matches!(
            self,
            MissingReason::BudgetExhausted | MissingReason::NoCachedJudgment
        )
    }

    /// A short human-readable description.
    pub fn describe(&self) -> &'static str {
        match self {
            MissingReason::BudgetExhausted => "crowd budget exhausted",
            MissingReason::NoCachedJudgment => "no cached judgment (cache-only query)",
            MissingReason::BelowQualityFloor => "verdict below the quality floor",
            MissingReason::NoMajority => "no crowd majority",
            MissingReason::OutOfSpace => "item outside the perceptual space",
            MissingReason::NotExpanded => "row not covered by any expansion",
            MissingReason::NoItemId => "row has no usable item id",
        }
    }
}

/// The pedigree of one result cell.
#[non_exhaustive]
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CellProvenance {
    /// A stored value: factual data, or a value SQL wrote (`INSERT`,
    /// `UPDATE`).
    Stored,
    /// The value is a crowd majority verdict this query dispatched and
    /// paid for.
    CrowdDerived {
        /// Inter-worker agreement behind the verdict (fraction of decisive
        /// judgments that agree with the majority, in `(0.5, 1.0]`).
        confidence: f64,
        /// The dollars of this query's crowd spend attributable to the
        /// item, under the owner-pays accounting of batched rounds.
        cost_share: f64,
    },
    /// The value was served by the judgment cache — paid for by an earlier
    /// query, or by a concurrent query whose in-flight round
    /// this query coalesced onto.  Zero cost for this query either way.
    CacheHit {
        /// Inter-worker agreement behind the reused verdict, as stored
        /// with it — so quality floors apply to cached values exactly as
        /// to fresh ones.
        confidence: f64,
    },
    /// The value is an extractor (SVM) extrapolation over the perceptual
    /// space, trained on the crowd-judged gold sample rather than judged
    /// directly.
    Extracted,
    /// The cell is `NULL`; `reason` says why.
    Missing {
        /// Why the value is absent.
        reason: MissingReason,
    },
}

impl From<MissingReason> for CellProvenance {
    fn from(reason: MissingReason) -> Self {
        CellProvenance::Missing { reason }
    }
}

impl CellProvenance {
    /// True for a [`MissingReason::is_recoverable`] hole.
    pub fn is_recoverable(&self) -> bool {
        matches!(self, CellProvenance::Missing { reason } if reason.is_recoverable())
    }

    /// True when the cell has no value.
    pub fn is_missing(&self) -> bool {
        matches!(self, CellProvenance::Missing { .. })
    }

    /// True when the value (directly or via cache/extraction) goes back to
    /// paid crowd work rather than stored data.
    pub fn is_crowd_backed(&self) -> bool {
        matches!(
            self,
            CellProvenance::CrowdDerived { .. }
                | CellProvenance::CacheHit { .. }
                | CellProvenance::Extracted
        )
    }

    /// The inter-worker agreement behind the cell, when the value is a
    /// directly judged verdict (fresh or cached).  `None` for stored,
    /// extracted, and missing cells.
    pub fn confidence(&self) -> Option<f64> {
        match self {
            CellProvenance::CrowdDerived { confidence, .. }
            | CellProvenance::CacheHit { confidence } => Some(*confidence),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_helpers() {
        assert!(!CellProvenance::Stored.is_missing());
        assert!(!CellProvenance::Stored.is_crowd_backed());
        let hit = CellProvenance::CacheHit { confidence: 0.8 };
        assert!(hit.is_crowd_backed());
        assert_eq!(hit.confidence(), Some(0.8));
        assert!(CellProvenance::Extracted.is_crowd_backed());
        assert_eq!(CellProvenance::Extracted.confidence(), None);
        let derived = CellProvenance::CrowdDerived {
            confidence: 0.9,
            cost_share: 0.002,
        };
        assert!(derived.is_crowd_backed());
        assert_eq!(derived.confidence(), Some(0.9));
        let missing = CellProvenance::Missing {
            reason: MissingReason::BudgetExhausted,
        };
        assert!(missing.is_missing());
        assert!(!missing.is_crowd_backed());
        assert!(missing.is_recoverable());
        assert!(!CellProvenance::Extracted.is_recoverable());
        assert!(!CellProvenance::Missing {
            reason: MissingReason::NoMajority
        }
        .is_recoverable());
        assert!(MissingReason::BudgetExhausted.describe().contains("budget"));
        assert!(MissingReason::NoItemId.describe().contains("item id"));
    }
}
