//! Per-query expansion policies: how much crowd work a query may trigger.
//!
//! The paper frames query-driven schema expansion as an explicit trade-off
//! between crowd cost, answer quality, and latency (Sections 3 and 4), but a
//! bare `execute(sql)` hides it: every query implicitly pays for full
//! expansion.  An [`ExpansionPolicy`] makes the trade-off a per-query
//! decision — "answer cheaply from cache", "spend at most X dollars",
//! "give me partial results now" — in the spirit of the per-query cost
//! budgets of Deco/CrowdQ-style engines (Trushkowsky et al., *Getting It
//! All from the Crowd*).
//!
//! Policies enter the system in two equivalent ways:
//!
//! * programmatically, via the [`crate::Session`]/[`crate::QueryBuilder`]
//!   API: `db.query(sql).budget(12.0).mode(ExpansionMode::BestEffort).run()`;
//! * in SQL itself, via the `WITH EXPANSION (budget = 12.0,
//!   mode = best_effort, quality >= 0.8)` suffix clause parsed by the
//!   relational layer — settings given in SQL override the builder's.

use relational::{ExpansionClause, ExpansionClauseMode};

use crate::error::CrowdDbError;
use crate::Result;

/// How missing perceptual attributes referenced by a query are handled.
#[non_exhaustive]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExpansionMode {
    /// Error out ([`CrowdDbError::ExpansionDenied`]) instead of expanding.
    /// For callers that must never trigger crowd spending.
    Deny,
    /// Serve already-purchased judgments from the [`crate::JudgmentCache`];
    /// items without a cached verdict stay `NULL` with
    /// [`Missing`](crate::CellProvenance::Missing) provenance.  Never
    /// dispatches crowd work and never waits on other queries' rounds.
    CacheOnly,
    /// Expand until the budget is exhausted, then return partial columns:
    /// acquired items carry values, the rest stay `NULL` with
    /// `Missing { reason: BudgetExhausted }` provenance.  Work another
    /// query's in-flight round finishes for free is *not* charged against
    /// the budget (the cross-query owner-pays rule).
    BestEffort,
    /// Expand everything regardless of cost — the pre-policy behavior and
    /// the default, which is what [`crate::CrowdDb::execute`] uses.
    #[default]
    Full,
}

impl ExpansionMode {
    /// A short name for reports and messages — the SQL spelling, straight
    /// from the parser's mode table ([`ExpansionClauseMode::as_str`]) so
    /// the two surfaces cannot drift.
    pub fn name(&self) -> &'static str {
        ExpansionClauseMode::from(*self).as_str()
    }
}

impl std::fmt::Display for ExpansionMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for ExpansionMode {
    type Err = CrowdDbError;

    /// Parses the SQL spelling of a mode (`deny`, `cache_only`,
    /// `best_effort`, `full`), case-insensitively — by delegating to the
    /// parser's own [`ExpansionClauseMode`] table, so benches, examples,
    /// and the `WITH EXPANSION` clause accept exactly the same strings.
    ///
    /// ```
    /// use crowddb_core::ExpansionMode;
    ///
    /// let mode: ExpansionMode = "best_effort".parse().unwrap();
    /// assert_eq!(mode, ExpansionMode::BestEffort);
    /// assert_eq!(mode.to_string(), "best_effort");
    /// assert!("cheap".parse::<ExpansionMode>().is_err());
    /// ```
    fn from_str(s: &str) -> Result<Self> {
        s.parse::<ExpansionClauseMode>()
            .map(ExpansionMode::from)
            .map_err(CrowdDbError::Relational)
    }
}

impl From<ExpansionClauseMode> for ExpansionMode {
    fn from(mode: ExpansionClauseMode) -> Self {
        match mode {
            ExpansionClauseMode::Deny => ExpansionMode::Deny,
            ExpansionClauseMode::CacheOnly => ExpansionMode::CacheOnly,
            ExpansionClauseMode::BestEffort => ExpansionMode::BestEffort,
            ExpansionClauseMode::Full => ExpansionMode::Full,
        }
    }
}

impl From<ExpansionMode> for ExpansionClauseMode {
    fn from(mode: ExpansionMode) -> Self {
        match mode {
            ExpansionMode::Deny => ExpansionClauseMode::Deny,
            ExpansionMode::CacheOnly => ExpansionClauseMode::CacheOnly,
            ExpansionMode::BestEffort => ExpansionClauseMode::BestEffort,
            ExpansionMode::Full => ExpansionClauseMode::Full,
        }
    }
}

/// The complete per-query expansion policy.
///
/// Construct via the provided constructors and `with_*` builders (the
/// struct is `#[non_exhaustive]`, so future knobs are not breaking):
///
/// ```
/// use crowddb_core::{ExpansionMode, ExpansionPolicy};
///
/// let policy = ExpansionPolicy::best_effort(12.0).with_quality_floor(0.8);
/// assert_eq!(policy.mode, ExpansionMode::BestEffort);
/// assert_eq!(policy.budget, Some(12.0));
/// ```
#[non_exhaustive]
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ExpansionPolicy {
    /// How missing attributes are handled.
    pub mode: ExpansionMode,
    /// The most this query may spend on crowd work, in dollars.  Only
    /// meaningful with [`ExpansionMode::BestEffort`]; enforced *mid-plan* —
    /// acquisition stops dispatching crowd rounds once the spend reaches
    /// the budget.
    pub budget: Option<f64>,
    /// Minimum inter-worker agreement a crowd verdict needs to appear in
    /// *this query's* results; lower-agreement cells are masked to `NULL`
    /// with `Missing { reason: BelowQualityFloor }` provenance.  A view
    /// filter only: the shared table (values and their provenance tags)
    /// and the cache keep the verdicts for less strict queries.
    pub quality_floor: Option<f64>,
    /// Acquire judgments adaptively: collect them round-at-a-time per item,
    /// aggregate with the EM worker-accuracy model, and stop buying for an
    /// item once its calibrated posterior clears the quality floor (or
    /// [`DEFAULT_ADAPTIVE_TARGET`](Self::DEFAULT_ADAPTIVE_TARGET) when no
    /// floor is set).  Easy items cost 2–3 assignments instead of the flat
    /// per-item count, and still-uncertain items are routed to workers with
    /// high estimated accuracy.  Off by default: the flat majority-vote
    /// path stays byte-identical for existing queries.
    pub adaptive: bool,
}

impl ExpansionPolicy {
    /// The default policy: expand everything ([`ExpansionMode::Full`]).
    pub fn full() -> Self {
        ExpansionPolicy::default()
    }

    /// Error on missing attributes instead of expanding.
    pub fn deny() -> Self {
        ExpansionPolicy {
            mode: ExpansionMode::Deny,
            ..Default::default()
        }
    }

    /// Serve cached judgments only; never dispatch crowd work.
    pub fn cache_only() -> Self {
        ExpansionPolicy {
            mode: ExpansionMode::CacheOnly,
            ..Default::default()
        }
    }

    /// Expand until `budget` dollars are spent, then return partials.
    pub fn best_effort(budget: f64) -> Self {
        ExpansionPolicy {
            mode: ExpansionMode::BestEffort,
            budget: Some(budget),
            ..Default::default()
        }
    }

    /// Replaces the mode.
    pub fn with_mode(mut self, mode: ExpansionMode) -> Self {
        self.mode = mode;
        self
    }

    /// Replaces the budget.
    pub fn with_budget(mut self, budget: f64) -> Self {
        self.budget = Some(budget);
        self
    }

    /// Replaces the quality floor.
    pub fn with_quality_floor(mut self, floor: f64) -> Self {
        self.quality_floor = Some(floor);
        self
    }

    /// Posterior confidence adaptive acquisition aims for when the query
    /// sets no explicit quality floor.
    pub const DEFAULT_ADAPTIVE_TARGET: f64 = 0.9;

    /// Enables or disables adaptive (early-stopping) judgment acquisition.
    pub fn with_adaptive(mut self, adaptive: bool) -> Self {
        self.adaptive = adaptive;
        self
    }

    /// The posterior confidence adaptive acquisition stops buying at: the
    /// query's quality floor when set, otherwise
    /// [`DEFAULT_ADAPTIVE_TARGET`](Self::DEFAULT_ADAPTIVE_TARGET).
    pub fn adaptive_target(&self) -> f64 {
        self.quality_floor.unwrap_or(Self::DEFAULT_ADAPTIVE_TARGET)
    }

    /// Overlays the settings of a SQL `WITH EXPANSION (…)` clause: anything
    /// the query spells out in SQL wins over the builder/session defaults.
    ///
    /// A clause budget without a clause mode implies
    /// [`ExpansionMode::BestEffort`] — the only mode a budget is meaningful
    /// for — even over an explicit builder mode (the SQL is the more
    /// specific instruction).  Conversely, a clause mode other than
    /// best-effort drops an *inherited* budget instead of leaving a
    /// contradictory policy behind; a contradiction spelled out in the SQL
    /// itself (`budget = 5, mode = full`) still fails validation.
    pub(crate) fn merged_with_clause(mut self, clause: &ExpansionClause) -> Self {
        if let Some(budget) = clause.budget {
            self.budget = Some(budget);
        }
        if let Some(mode) = clause.mode {
            self.mode = mode.into();
            if self.mode != ExpansionMode::BestEffort && clause.budget.is_none() {
                self.budget = None;
            }
        } else if clause.budget.is_some() {
            self.mode = ExpansionMode::BestEffort;
        }
        if let Some(floor) = clause.quality_floor {
            self.quality_floor = Some(floor);
        }
        self
    }

    /// True when the policy tolerates partial columns (so e.g. an extractor
    /// that cannot train on a budget-truncated gold sample degrades to
    /// direct materialization instead of failing the query).
    pub(crate) fn tolerates_partial_columns(&self) -> bool {
        matches!(
            self.mode,
            ExpansionMode::CacheOnly | ExpansionMode::BestEffort
        )
    }

    /// Validates the policy, rejecting contradictory or out-of-range
    /// settings with a [`CrowdDbError::Configuration`].
    pub fn validate(&self) -> Result<()> {
        if let Some(budget) = self.budget {
            if !budget.is_finite() || budget < 0.0 {
                return Err(CrowdDbError::Configuration(format!(
                    "expansion budget must be a non-negative number, got {budget}"
                )));
            }
            if self.mode != ExpansionMode::BestEffort {
                return Err(CrowdDbError::Configuration(format!(
                    "a crowd budget only applies to mode = best_effort \
                     (got mode = {})",
                    self.mode.name()
                )));
            }
        }
        if let Some(floor) = self.quality_floor {
            if !floor.is_finite() || !(0.0..=1.0).contains(&floor) {
                return Err(CrowdDbError::Configuration(format!(
                    "quality floor must lie in [0, 1], got {floor}"
                )));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_and_builders() {
        assert_eq!(ExpansionPolicy::full().mode, ExpansionMode::Full);
        assert_eq!(ExpansionPolicy::deny().mode, ExpansionMode::Deny);
        assert_eq!(ExpansionPolicy::cache_only().mode, ExpansionMode::CacheOnly);
        let p = ExpansionPolicy::best_effort(3.5).with_quality_floor(0.9);
        assert_eq!(p.mode, ExpansionMode::BestEffort);
        assert_eq!(p.budget, Some(3.5));
        assert_eq!(p.quality_floor, Some(0.9));
        assert!(p.validate().is_ok());
        assert_eq!(ExpansionMode::default(), ExpansionMode::Full);
        assert_eq!(ExpansionMode::BestEffort.name(), "best_effort");
    }

    #[test]
    fn mode_spellings_round_trip_through_the_parsers_table() {
        // Display → FromStr round-trips for every mode, and both sides
        // agree with the SQL parser's ExpansionClauseMode table — the
        // single source of accepted spellings.
        for clause_mode in ExpansionClauseMode::ALL {
            let mode = ExpansionMode::from(clause_mode);
            let rendered = mode.to_string();
            assert_eq!(rendered, clause_mode.as_str());
            assert_eq!(rendered.parse::<ExpansionMode>().unwrap(), mode);
            // Case-insensitive, like SQL keywords.
            assert_eq!(
                rendered.to_uppercase().parse::<ExpansionMode>().unwrap(),
                mode
            );
            // The round-trip through the clause type is the identity too.
            assert_eq!(ExpansionClauseMode::from(mode), clause_mode);
        }
        let err = "cheap".parse::<ExpansionMode>().unwrap_err();
        assert!(err.to_string().contains("unknown expansion mode"), "{err}");
    }

    #[test]
    fn validation_rejects_contradictions() {
        assert!(ExpansionPolicy::best_effort(-1.0).validate().is_err());
        assert!(ExpansionPolicy::best_effort(f64::NAN).validate().is_err());
        assert!(ExpansionPolicy::full().with_budget(2.0).validate().is_err());
        assert!(ExpansionPolicy::cache_only()
            .with_budget(2.0)
            .validate()
            .is_err());
        assert!(ExpansionPolicy::full()
            .with_quality_floor(1.2)
            .validate()
            .is_err());
        assert!(ExpansionPolicy::full()
            .with_quality_floor(-0.1)
            .validate()
            .is_err());
    }

    #[test]
    fn sql_clause_overrides_builder_defaults() {
        let clause = ExpansionClause {
            budget: Some(5.0),
            mode: None,
            quality_floor: Some(0.7),
        };
        // A budget in SQL without a mode implies best-effort — even over an
        // explicitly set builder mode, because the SQL is the more specific
        // per-query instruction and a budget is meaningless elsewhere.
        let merged = ExpansionPolicy::full().merged_with_clause(&clause);
        assert_eq!(merged.mode, ExpansionMode::BestEffort);
        assert_eq!(merged.budget, Some(5.0));
        assert_eq!(merged.quality_floor, Some(0.7));
        let merged = ExpansionPolicy::cache_only().merged_with_clause(&clause);
        assert_eq!(merged.mode, ExpansionMode::BestEffort);
        assert!(merged.validate().is_ok());
        // An explicit SQL mode always wins…
        let clause = ExpansionClause {
            budget: None,
            mode: Some(ExpansionClauseMode::Deny),
            quality_floor: None,
        };
        let merged = ExpansionPolicy::full().merged_with_clause(&clause);
        assert_eq!(merged.mode, ExpansionMode::Deny);
        // …and switching the mode away from best-effort drops an inherited
        // budget instead of leaving a contradictory (invalid) policy.
        let clause = ExpansionClause {
            budget: None,
            mode: Some(ExpansionClauseMode::Full),
            quality_floor: None,
        };
        let merged = ExpansionPolicy::best_effort(10.0).merged_with_clause(&clause);
        assert_eq!(merged.mode, ExpansionMode::Full);
        assert_eq!(merged.budget, None);
        assert!(merged.validate().is_ok());
        // A contradiction spelled out in the SQL itself stays an error.
        let clause = ExpansionClause {
            budget: Some(5.0),
            mode: Some(ExpansionClauseMode::Full),
            quality_floor: None,
        };
        let merged = ExpansionPolicy::full().merged_with_clause(&clause);
        assert!(merged.validate().is_err());
    }
}
