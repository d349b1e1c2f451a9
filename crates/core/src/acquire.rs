//! The **acquire** stage: judgment cache first, then the in-flight
//! registry (coalescing with concurrent queries), then crowd rounds for
//! everything still unanswered, with fresh verdicts published back to the
//! cache.
//!
//! One round loop serves every policy.  A [`RoundPlan`], chosen once per
//! plan, decides which items of which owned concepts a round sends, how
//! many assignments each gets, and which items it finalizes; the loop does
//! the rest once: seed draw, budget charge, per-concept accounting,
//! publishing verdicts (cache insert plus `CachePut` WAL record), one
//! fsynced WAL group per round, `Delta`/`Progress` events including the
//! `BudgetExhausted` remainder, and claim completion.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::Ordering;

use crowdsim::{
    em_aggregate, majority_vote, EmConfig, EmOutcome, ItemPosterior, Judgment, WorkerId,
};
use perceptual::ItemId;
use relational::{Grid, Value};
use storage::WalRecord;
use telemetry::StateMonitor;

use super::{DbInner, TableBinding};
use crate::cache::{CachedJudgment, JudgmentCache};
use crate::crowd_source::{AttributeRequest, OutstandingEstimate};
use crate::error::CrowdDbError;
use crate::inflight::{Claim, OwnerToken};
use crate::persist;
use crate::planner::ExpansionPlan;
use crate::policy::{ExpansionMode, ExpansionPolicy};
use crate::provenance::{CellProvenance, MissingReason};
use crate::session::RowSet;
use crate::stream::{EventSink, QueryEvent};
use crate::sync::{mlock, try_mlock};
use crate::Result;

/// Items dispatched per budgeted round when the crowd source cannot price
/// its work up front ([`CrowdSource::estimate_cost`] returns `None`): the
/// acquirer checks the real charge after each round, so a small round bounds
/// the possible budget overshoot.
///
/// [`CrowdSource::estimate_cost`]: crate::CrowdSource::estimate_cost
const FALLBACK_BUDGET_CHUNK: usize = 10;

/// Assignments per item bought in each adaptive acquisition round.  The
/// cumulative sum equals the paper's flat 10 assignments per item, so an
/// item the posterior never settles on costs exactly what the flat path
/// would have paid — adaptive stopping can only save, never overspend.
const ADAPTIVE_ROUND_SCHEDULE: &[usize] = &[3, 2, 2, 3];

/// The posterior an item must clear to stop buying before the schedule is
/// exhausted.  Deliberately above the default quality floor: a short vote
/// streak (3–5 judgments) reaches ~0.93 posterior even for items the model
/// suspects are ambiguous, and stopping there trades real accuracy for
/// pennies.  The effective stop bar is the *larger* of this and the query's
/// floor, so a stricter floor tightens stopping too.
const ADAPTIVE_STOP_CONFIDENCE: f64 = 0.97;

/// Early stopping also demands this many decisive (non-abstaining) votes.
/// Without it a 3-vote streak from workers the EM model has learned to
/// trust clears the confidence bar, and among 3-0 streaks the share of
/// genuinely ambiguous items (whose next votes are coin flips) is several
/// times higher than among longer streaks.  Kept below the second round's
/// cumulative assignment count because abstentions ("don't know") are
/// common and do not count as decisive.
const ADAPTIVE_STOP_MIN_DECISIVE: usize = 4;

/// Decisive votes a finalized item needs before its verdict is
/// materialized at all.  A couple of unopposed votes from trusted workers
/// (or a 2-1 split whose dissenter the model has learned to discount)
/// already clear a 0.9 posterior floor, but a label resting on so few
/// opinions is exactly the thin evidence the adaptive layer exists to
/// avoid.
const ADAPTIVE_VERDICT_MIN_DECISIVE: usize = 4;

/// Routing floors: a worker is offered still-uncertain items only once the
/// EM model credits them with this much accuracy, backed by at least this
/// much evidence weight (prior pseudo-counts included).
const ADAPTIVE_ROUTING_MIN_ACCURACY: f64 = 0.8;
const ADAPTIVE_ROUTING_MIN_WEIGHT: f64 = 6.0;

/// Routing needs enough reliable workers to serve whole HITs; below this
/// pool size the adaptive rounds stay unrouted rather than starve.  The
/// bar is well above one item's total assignment count on purpose: each
/// round draws independently from the preferred pool, a worker's repeat
/// answer deduplicates to nothing, so a pool close to the per-item
/// assignment count would pay for judgments that carry no new evidence.
const ADAPTIVE_ROUTING_MIN_POOL: usize = 24;

/// The acquisition state of one planned attribute while a plan runs.
#[derive(Default)]
pub(super) struct Acquisition {
    /// Judgments answered by the cache.
    pub(super) cache_hits: usize,
    /// Items that had to go to the crowd (directly or via a coalesced
    /// in-flight round).
    pub(super) uncached: Vec<ItemId>,
    /// Index into the plan's concepts (`None` while no column about this
    /// attribute's concept has uncached items).
    concept: Option<usize>,
    /// Whether this is the first column asking about its concept: it moves
    /// the cache counters, carries `cost_saved`, and reports the concept's
    /// initial `Progress` and `EXPLAIN` row.
    first_for_concept: bool,
    /// Whether this attribute created the concept's question (and therefore
    /// carries the full cost/judgment accounting) or merged into a sibling
    /// column's question about the same concept.
    owns_question: bool,
    /// Dollars saved by the cache hits.
    pub(super) cost_saved: f64,
    /// Merged verdicts (cache + fresh round + coalesced round), each with
    /// where it came from: `CacheHit` for the cache and concurrent queries'
    /// rounds (free to this query), `CrowdDerived` with the item's cost
    /// share for this query's own rounds.
    pub(super) verdicts: HashMap<ItemId, (bool, CellProvenance)>,
    /// Items the policy left unacquired, with the reason their cells stay
    /// `NULL` (budget, cache-only, or quality floor).
    pub(super) dropped: Vec<(ItemId, MissingReason)>,
    /// Distinct items this attribute's report charges to the crowd: the
    /// owner carries the whole question (including sibling-merged items),
    /// siblings and fully-cached attributes charge none.
    pub(super) items_charged: usize,
    /// Fresh judgments collected for this attribute.
    pub(super) judgments_collected: usize,
    /// Cost share of this attribute in the round.
    pub(super) crowd_cost: f64,
    /// Wall-clock minutes of the round (0 when fully cached).
    pub(super) crowd_minutes: f64,
    /// Items served by a concurrent query's in-flight crowd round.
    pub(super) items_coalesced: usize,
    /// Whether this acquisition's concept saw a round dispatched by *this*
    /// query (drives the `CrowdSourcingStarted` stage).
    pub(super) fresh_round: bool,
}

/// One domain concept of a plan: the crowd work it needs (sibling columns
/// registered to the same concept merge here), what resolved it, and the
/// state of this query's own rounds for it.
#[derive(Default)]
struct Concept {
    /// The domain concept, in registration casing.
    name: String,
    /// Distinct unresolved items, in first-demand order; while this query's
    /// rounds run, the items they have not finalized yet.
    pending: Vec<ItemId>,
    /// Items the cache had already answered when the need was formed — the
    /// baseline the streaming `Progress` events count resolved items from.
    already_resolved: usize,
    /// Every item resolved since the need was formed, with its verdict
    /// (`None` for ties and abstentions) and where it came from:
    /// `CrowdDerived` for this query's rounds, `CacheHit` for a concurrent
    /// query's round this one coalesced onto.
    judged: HashMap<ItemId, (Option<bool>, CellProvenance)>,
    /// Items served by concurrent queries' rounds.
    items_coalesced: usize,
    /// Items the budget never reached.
    denied: Vec<ItemId>,
    /// Items the budget cut off after judgments were bought for them —
    /// finalized at their latest posterior when the rounds finish instead
    /// of being thrown away half-paid.
    cut_off: Vec<ItemId>,
    /// The items this query's rounds started from — the EM item universe.
    universe: Vec<ItemId>,
    /// Rounds this query dispatched for the concept, the judgments they
    /// bought, their dollars, and their summed wall-clock minutes.
    rounds: usize,
    judgments: usize,
    cost: f64,
    minutes: f64,
    /// Every judgment bought so far, kept by adaptive plans: EM aggregates
    /// the full stream, not just the latest round.
    stream: Vec<Judgment>,
    judgment_counts: HashMap<ItemId, usize>,
    /// Each bought item's accumulated share of its rounds' cost — one
    /// entry per distinct item paid for.
    cost_share: HashMap<ItemId, f64>,
    /// The latest EM aggregation (adaptive plans only).
    latest: Option<EmOutcome>,
}

impl Concept {
    /// Items resolved so far, from this query's view: cache baseline +
    /// fresh judgments + coalesced foreign rounds.
    fn resolved(&self) -> usize {
        self.already_resolved + self.judged.len()
    }

    /// Serves pending items from verdicts another query published to the
    /// cache, returning how many: coalesced items are free for this query
    /// (cross-query owner-pays) but still carry their confidence for
    /// quality floors and provenance.
    fn absorb_cached(&mut self, cache: &JudgmentCache, table: &str) -> usize {
        let (cached, uncached) = cache.partition_peek(table, &self.name, &self.pending);
        let absorbed = cached.len();
        self.items_coalesced += absorbed;
        for (item, judgment) in cached {
            let confidence = judgment.confidence;
            let provenance = CellProvenance::CacheHit { confidence };
            self.judged.insert(item, (judgment.verdict, provenance));
        }
        self.pending = uncached;
        absorbed
    }

    /// Books what one round bought for this concept: the `items` sent,
    /// their `judgments`, and the concept's `cost` of the round.
    fn charge(&mut self, items: &[ItemId], judgments: &[Judgment], cost: f64, minutes: f64) {
        self.judgments += judgments.len();
        self.cost += cost;
        // Sequential rounds: their wall-clock adds up.
        self.minutes += minutes;
        let share = cost / items.len() as f64;
        for &item in items {
            *self.cost_share.entry(item).or_insert(0.0) += share;
        }
        for judgment in judgments {
            *self.judgment_counts.entry(judgment.item).or_insert(0) += 1;
        }
    }

    /// Drops every pending item past the first `keep`: items already paid
    /// for are cut off, untouched ones denied.
    fn cut(&mut self, keep: usize) {
        if keep >= self.pending.len() {
            return;
        }
        for item in self.pending.split_off(keep) {
            if self.cost_share.contains_key(&item) {
                self.cut_off.push(item);
            } else {
                self.denied.push(item);
            }
        }
    }

    /// The cache entry finalizing `item`: its verdict and confidence, the
    /// judgments this query bought for it, and its accumulated cost share.
    fn cache_entry(
        &self,
        item: ItemId,
        verdict: Option<bool>,
        confidence: f64,
    ) -> (ItemId, CachedJudgment) {
        let judgment = CachedJudgment {
            verdict,
            judgments: self.judgment_counts.get(&item).copied().unwrap_or(0),
            cost: self.cost_share.get(&item).copied().unwrap_or(0.0),
            confidence,
        };
        (item, judgment)
    }

    /// An adaptively finalized item: verdict from the EM model, confidence
    /// = calibrated posterior.
    fn posterior_entry(&self, posterior: &ItemPosterior, target: f64) -> (ItemId, CachedJudgment) {
        // An item whose posterior never cleared the floor — or whose
        // evidence is thinner than the decisive-vote minimum — stays
        // unclassified (the flat path's tie behaviour): caching such a
        // verdict would hand later queries a label the model itself does
        // not trust.
        let decisive = posterior.tally.positive + posterior.tally.negative;
        let verdict = posterior
            .verdict
            .filter(|_| posterior.posterior >= target && decisive >= ADAPTIVE_VERDICT_MIN_DECISIVE);
        self.cache_entry(posterior.item, verdict, posterior.posterior)
    }

    /// Records finalized verdicts of this query's own rounds; they leave
    /// the pending set.
    fn record_fresh(&mut self, verdicts: &[(ItemId, CachedJudgment)]) {
        for &(item, judgment) in verdicts {
            let provenance = CellProvenance::CrowdDerived {
                confidence: judgment.confidence,
                cost_share: judgment.cost,
            };
            self.judged.insert(item, (judgment.verdict, provenance));
        }
        let done: HashSet<ItemId> = verdicts.iter().map(|&(item, _)| item).collect();
        self.pending.retain(|item| !done.contains(item));
    }
}

/// How crowd rounds are shaped, chosen once per plan from the policy.
#[derive(Clone, Copy, PartialEq)]
enum RoundPlan {
    /// One round batching every owned concept at the source's flat
    /// assignment count; majority vote finalizes every item sent.
    Flat,
    /// Flat rounds one concept at a time, each sized to what the remaining
    /// budget can pay; items no round can reach are denied.
    Budgeted,
    /// Per concept, the small rounds of [`ADAPTIVE_ROUND_SCHEDULE`],
    /// aggregated with the EM worker-accuracy model (Zhang et al.,
    /// accuracy rates); an item is finalized once its posterior clears
    /// `target` or the schedule ends.  Budgets cut rounds short.
    Adaptive { target: f64 },
}

impl RoundPlan {
    fn of(policy: &ExpansionPolicy) -> Self {
        if policy.adaptive {
            RoundPlan::Adaptive {
                target: policy.adaptive_target(),
            }
        } else if policy.budget.is_some() {
            RoundPlan::Budgeted
        } else {
            RoundPlan::Flat
        }
    }

    /// Assignments per item in a concept's `round`-th round: `None` is the
    /// source's flat count (`collect_batch`), `Some(k)` a shrunken adaptive
    /// round (`collect_adaptive`).
    fn assignments(self, round: usize) -> Option<usize> {
        match self {
            RoundPlan::Adaptive { .. } => Some(ADAPTIVE_ROUND_SCHEDULE[round]),
            RoundPlan::Flat | RoundPlan::Budgeted => None,
        }
    }
}

/// What every round of one plan shares.
struct Rounds<'a> {
    plan: &'a ExpansionPlan,
    binding: &'a TableBinding,
    concepts: Vec<Concept>,
    round_plan: RoundPlan,
    /// The budget (`None` = no cap) and the dollars charged so far, shared
    /// across every concept and round so the budget holds *mid-plan*.
    budget: Option<f64>,
    spent: f64,
    sink: &'a EventSink,
    /// 0-based index of the next crowd round *this query* dispatches — the
    /// `round` field of its streaming Delta events.
    round_index: usize,
}

impl DbInner {
    /// The **acquire** stage: cache first, then the in-flight registry
    /// (coalescing with concurrent queries), then the crowd rounds of the
    /// policy's [`RoundPlan`] for everything still unanswered, with fresh
    /// verdicts written back.
    ///
    /// Columns registered to the same domain concept share one crowd
    /// question — asking the crowd twice about `Comedy` for two columns
    /// would pay double for identical judgments.  The same rule extends
    /// across queries: a concept another query is currently acquiring is
    /// *waited for*, not re-dispatched.
    pub(super) fn acquire(
        &self,
        plan: &ExpansionPlan,
        binding: &TableBinding,
        policy: &ExpansionPolicy,
        sink: &EventSink,
    ) -> Result<Vec<Acquisition>> {
        let (mut acquisitions, concepts) = self.form_concepts(plan, true);

        // Initial Progress per concept: what the cache resolved, what is
        // outstanding, and the crowd source's own completeness / cost
        // estimate for the remainder.  For cache-only queries this is also
        // the *final* word — the outstanding items are the remainder the
        // policy will not acquire, reported rather than silently dropped.
        if sink.is_live() {
            for (attribute, acquisition) in plan.attributes.iter().zip(&acquisitions) {
                if acquisition.first_for_concept {
                    // A need holds the merged item union when sibling
                    // columns share the concept — report that, not one
                    // column's slice.
                    let outstanding = acquisition
                        .concept
                        .map_or(&[][..], |q| &concepts[q].pending);
                    let resolved = acquisition.cache_hits;
                    sink.emit(self.progress(binding, &attribute.attribute, resolved, outstanding));
                }
            }
        }

        if policy.mode == ExpansionMode::CacheOnly {
            // Cache-only queries never dispatch crowd work and never wait
            // on other queries' rounds: every uncached item stays NULL.
            for acquisition in acquisitions.iter_mut() {
                for item in std::mem::take(&mut acquisition.uncached) {
                    acquisition
                        .dropped
                        .push((item, MissingReason::NoCachedJudgment));
                }
            }
            return Ok(acquisitions);
        }

        if concepts.is_empty() {
            return Ok(acquisitions);
        }
        // Live visibility: each in-flight concept hangs a node off
        // `crowddb/expansions` for the duration of its crowd rounds (the
        // slow part of any query).  The nodes detach when this guard drops.
        let inflight_nodes: Vec<StateMonitor> = concepts
            .iter()
            .map(|concept| {
                let node = self
                    .expansions_monitor
                    .make_child(format!("{}/{}", plan.table, concept.name));
                node.insert("items_outstanding", concept.pending.len());
                node.insert("already_resolved", concept.already_resolved);
                node.insert("cost_so_far", "0.00");
                node
            })
            .collect();
        let mut rounds = Rounds {
            plan,
            binding,
            concepts,
            round_plan: RoundPlan::of(policy),
            budget: policy.budget,
            spent: 0.0,
            sink,
            round_index: 0,
        };
        self.resolve_concepts(&mut rounds)?;
        drop(inflight_nodes);

        // Route the resolved verdicts and accounting back to the plan's
        // attributes.  Every sharer (owner included) reads its own items'
        // verdicts; the owner carries the full cost accounting.
        for acquisition in acquisitions.iter_mut() {
            let concept = match acquisition.concept {
                Some(q) if !acquisition.uncached.is_empty() => &rounds.concepts[q],
                _ => continue,
            };
            acquisition.crowd_minutes = concept.minutes;
            acquisition.fresh_round = concept.judgments > 0;
            if acquisition.owns_question {
                // The question's owner carries the full accounting; sibling
                // columns that merged into it report zero collection.
                acquisition.judgments_collected = concept.judgments;
                acquisition.crowd_cost = concept.cost;
                acquisition.items_charged = concept.cost_share.len();
                acquisition.items_coalesced = concept.items_coalesced;
            }
            let denied: HashSet<ItemId> = concept.denied.iter().copied().collect();
            for &item in &acquisition.uncached {
                if denied.contains(&item) {
                    acquisition
                        .dropped
                        .push((item, MissingReason::BudgetExhausted));
                }
                if let Some(&(Some(label), provenance)) = concept.judged.get(&item) {
                    acquisition.verdicts.insert(item, (label, provenance));
                }
            }
        }
        Ok(acquisitions)
    }

    /// Consults the cache per attribute and deduplicates crowd questions by
    /// attribute concept.  The first column with uncached items about a
    /// concept owns its question; sibling columns merge their items into it
    /// and report zero collection (summing reports then matches what the
    /// round really collected and cost).  `count` moves the cache counters,
    /// once per concept; `EXPLAIN EXPANSION` only peeks.
    fn form_concepts(&self, plan: &ExpansionPlan, count: bool) -> (Vec<Acquisition>, Vec<Concept>) {
        let mut acquisitions: Vec<Acquisition> = Vec::with_capacity(plan.attributes.len());
        let mut concepts: Vec<Concept> = Vec::new();
        // Every concept seen so far, with its question once it has one.
        let mut concept_of: HashMap<String, Option<usize>> = HashMap::new();
        for (index, attribute) in plan.attributes.iter().enumerate() {
            let targets = plan.crowd_items_for(index);
            let key = attribute.attribute.to_lowercase();
            let first_for_concept = !concept_of.contains_key(&key);
            let question = concept_of.entry(key).or_default();
            let (cached, uncached) = if first_for_concept && count {
                self.cache
                    .partition(&plan.table, &attribute.attribute, targets)
            } else {
                self.cache
                    .partition_peek(&plan.table, &attribute.attribute, targets)
            };
            let owns_question = question.is_none() && !uncached.is_empty();
            if owns_question {
                concepts.push(Concept {
                    name: attribute.attribute.clone(),
                    already_resolved: cached.len(),
                    ..Concept::default()
                });
                *question = Some(concepts.len() - 1);
            }
            // Merge this column's items into the shared need.
            if let Some(q) = *question {
                concepts[q].pending.extend_from_slice(&uncached);
            }
            let verdicts = cached
                .iter()
                .filter_map(|(&item, judgment)| {
                    let provenance = CellProvenance::CacheHit {
                        confidence: judgment.confidence,
                    };
                    Some((item, (judgment.verdict?, provenance)))
                })
                .collect();
            acquisitions.push(Acquisition {
                cache_hits: cached.len(),
                cost_saved: match first_for_concept {
                    true => cached.values().map(|j| j.cost).sum(),
                    false => 0.0,
                },
                uncached,
                first_for_concept,
                owns_question,
                verdicts,
                ..Acquisition::default()
            });
        }
        for concept in &mut concepts {
            let mut seen = HashSet::new();
            concept.pending.retain(|&item| seen.insert(item));
        }
        for (acquisition, attribute) in acquisitions.iter_mut().zip(&plan.attributes) {
            acquisition.concept = concept_of[&attribute.attribute.to_lowercase()];
        }
        (acquisitions, concepts)
    }

    /// The rows of `EXPLAIN EXPANSION` for a plan, one per planned column:
    /// concept, column, strategy, items, cache hits, items to crowd and the
    /// estimated cost.  Only the concept's first column carries its merged
    /// question's size and price (owner-pays), so summing the cost column
    /// previews what the live plan would charge.
    pub(super) fn explain_rows(&self, plan: &ExpansionPlan, binding: &TableBinding) -> Grid<Value> {
        let (acquisitions, concepts) = self.form_concepts(plan, false);
        let mut rows = Grid::with_capacity(7, plan.attributes.len());
        let planned = plan.attributes.iter().enumerate().zip(&acquisitions);
        for ((index, attribute), acquisition) in planned {
            let to_crowd = match acquisition.concept {
                Some(q) if acquisition.first_for_concept => concepts[q].pending.len(),
                _ => 0,
            };
            let estimated_cost = match to_crowd {
                0 => Some(0.0),
                n => mlock(&binding.crowd).estimate_cost(n),
            };
            rows.push_row([
                Value::Text(attribute.attribute.clone()),
                Value::Text(attribute.column.clone()),
                Value::Text(attribute.strategy.name().to_string()),
                Value::Integer(plan.crowd_items_for(index).len() as i64),
                Value::Integer(acquisition.cache_hits as i64),
                Value::Integer(to_crowd as i64),
                estimated_cost.map_or(Value::Null, Value::Float),
            ]);
        }
        rows
    }

    /// Resolves every concept of a plan: claim each concept in the
    /// in-flight registry, run the crowd rounds for the concepts this query
    /// owns, and wait for (then reuse) the rounds other queries have in
    /// flight.
    ///
    /// Deadlock freedom: all claims of an iteration are taken before any
    /// wait, and every owned claim is completed by the dispatch step of the
    /// same iteration — no thread holds an uncompleted claim while
    /// blocking on another thread's claim.
    fn resolve_concepts(&self, rounds: &mut Rounds<'_>) -> Result<()> {
        let plan = rounds.plan;
        let table = &plan.table;
        // In the common case this loop runs once (everything owned) or
        // twice (wait, then serve from cache).  More iterations only happen
        // when an in-flight owner aborts or acquired a different item set;
        // the bound turns a pathological livelock into a hard error.
        for _ in 0..64 {
            if rounds.concepts.iter().all(|c| c.pending.is_empty()) {
                return Ok(());
            }

            // Claim phase: every unresolved concept, before any waiting.
            let mut owned: Vec<(usize, OwnerToken)> = Vec::new();
            let mut waiting: Vec<(usize, crate::inflight::WaitHandle)> = Vec::new();
            for (q, concept) in rounds.concepts.iter().enumerate() {
                if concept.pending.is_empty() {
                    continue;
                }
                match self.inflight.claim(table, &concept.name) {
                    Claim::Owner(token) => owned.push((q, token)),
                    Claim::Waiter(handle) => waiting.push((q, handle)),
                }
            }

            // Ownership makes the cache state stable for a concept: no
            // other query can start a round for it while we hold the
            // claim.  Re-check it before paying — a round that completed
            // between our first cache look and our claim (read skew) has
            // already published exactly the verdicts we were about to buy
            // again.
            let mut runs: Vec<(usize, OwnerToken)> = Vec::new();
            for (q, token) in owned {
                let concept = &mut rounds.concepts[q];
                concept.absorb_cached(&self.cache, table);
                if concept.pending.is_empty() {
                    token.complete();
                } else {
                    concept.universe = concept.pending.clone();
                    runs.push((q, token));
                }
            }

            // Dispatch phase: a flat plan shares its rounds among every
            // owned concept; the other plans run one concept after another.
            // An error drops the remaining tokens, which aborts the claims
            // and wakes any waiters into a retry.
            if rounds.round_plan == RoundPlan::Flat {
                self.run_rounds(rounds, runs)?;
            } else {
                for run in runs {
                    self.run_rounds(rounds, vec![run])?;
                }
            }

            // Wait phase: block on foreign in-flight rounds, then serve
            // this concept from the verdicts their owners published to the
            // cache.  Whatever the round did not cover (abort, diverging
            // item sets) stays pending and is re-claimed next iteration.
            for (q, handle) in waiting {
                let _ = handle.wait();
                let concept = &mut rounds.concepts[q];
                // A foreign round resolved items for free: report the jump
                // (there is no Delta — it was not this query's round).
                if concept.absorb_cached(&self.cache, table) > 0 && rounds.sink.is_live() {
                    let concept = &rounds.concepts[q];
                    rounds.sink.emit(self.progress(
                        rounds.binding,
                        &concept.name,
                        concept.resolved(),
                        &concept.pending,
                    ));
                }
            }
        }
        Err(CrowdDbError::Contention(format!(
            "acquisition of table {table} did not converge: concurrent crowd rounds \
             kept aborting or resolving disjoint item sets"
        )))
    }

    /// The round loop: drives the owned concepts `runs` — concepts that
    /// share their rounds — until each has finished.  Every round is sized
    /// to the budget, dispatched as one crowd call, charged, aggregated and
    /// published per concept, logged as one fsynced WAL group, and only
    /// then reported as one `Delta` per concept.
    fn run_rounds(
        &self,
        rounds: &mut Rounds<'_>,
        mut runs: Vec<(usize, OwnerToken)>,
    ) -> Result<()> {
        while !runs.is_empty() {
            // Size the round; a concept left with nothing to send is done.
            // Adaptive rounds re-ask every pending item, so one the budget
            // cannot cover now is out for good; flat rounds ask each item
            // once, so the rest waits for the next round — unless nothing
            // fits at all.
            let mut round: Vec<(usize, OwnerToken, usize)> = Vec::with_capacity(runs.len());
            for (q, token) in std::mem::take(&mut runs) {
                let concept = &mut rounds.concepts[q];
                let assignments = rounds.round_plan.assignments(concept.rounds);
                let remaining = rounds.budget.map(|budget| (budget - rounds.spent).max(0.0));
                let send = self.affordable(
                    rounds.binding,
                    remaining,
                    concept.pending.len(),
                    assignments,
                );
                if send == 0 || assignments.is_some() {
                    concept.cut(send);
                }
                if concept.pending.is_empty() {
                    self.finish_rounds(rounds, q, token)?;
                } else {
                    round.push((q, token, send));
                }
            }
            let Some(&(first, _, _)) = round.first() else {
                continue;
            };

            let concept_round = rounds.concepts[first].rounds;
            let assignments = rounds.round_plan.assignments(concept_round);
            let requests: Vec<AttributeRequest> = round
                .iter()
                .map(|&(q, _, send)| AttributeRequest {
                    attribute: rounds.concepts[q].name.clone(),
                    items: rounds.concepts[q].pending[..send].to_vec(),
                })
                .collect();
            // The first adaptive round has no evidence to route on; later
            // rounds (the uncertain tail) go to proven workers when enough
            // exist.
            let preferred = match assignments {
                Some(_) if concept_round > 0 => self.preferred_workers(),
                _ => None,
            };
            let batch = {
                let mut crowd = mlock(&rounds.binding.crowd);
                let seed = self.next_round_seed();
                match assignments {
                    None => crowd.collect_batch(&requests, seed)?,
                    Some(k) => crowd.collect_adaptive(&requests, seed, k, preferred.as_ref())?,
                }
            };
            rounds.spent += batch.total_cost;

            // The round's cache write-back — one CachePut per concept —
            // commits as one fsynced group on the table's segment before
            // anything reports it.
            let mut wal_pending: Vec<WalRecord> = Vec::new();
            let mut published = Vec::with_capacity(round.len());
            for (question, (request, (q, token, _))) in requests.iter().zip(round).enumerate() {
                let judgments = &batch.question_judgments[question];
                // A flat round may batch several concepts; it splits its
                // cost by their share of the judgments.
                let cost = if rounds.round_plan == RoundPlan::Flat {
                    batch.question_cost(question)
                } else {
                    batch.total_cost
                };
                let concept = &mut rounds.concepts[q];
                concept.charge(&request.items, judgments, cost, batch.total_minutes);
                let verdicts = self.finalize(rounds.round_plan, concept, request, judgments);
                concept.rounds += 1;
                wal_pending.extend(self.publish_verdicts(
                    &rounds.plan.table,
                    &concept.name,
                    &verdicts,
                ));
                concept.record_fresh(&verdicts);
                published.push((q, token, verdicts));
            }
            self.log(&rounds.plan.table, wal_pending)?;

            for (q, token, verdicts) in published {
                let concept = &rounds.concepts[q];
                if rounds.sink.is_live() {
                    rounds.sink.emit(delta_event(
                        &self.config.id_column,
                        &concept.name,
                        rounds.round_index,
                        rounds.spent,
                        &verdicts,
                    ));
                    if assignments.is_some() {
                        let outstanding =
                            concept.pending.len() + concept.cut_off.len() + concept.denied.len();
                        let resolved = concept.resolved();
                        let progress = progress_event(&concept.name, resolved, outstanding, None);
                        rounds.sink.emit(progress);
                    }
                }
                if concept.pending.is_empty() {
                    self.finish_rounds(rounds, q, token)?;
                } else {
                    runs.push((q, token));
                }
            }
            rounds.round_index += 1;
        }
        Ok(())
    }

    /// The items one concept's share of a round finalizes, as cache
    /// entries.
    ///
    /// Flat rounds finalize every item sent by majority vote, with the
    /// tallies' agreement as confidence (ties included — asking again would
    /// cost the same and likely tie again).  Adaptive rounds aggregate the
    /// full judgment stream with the EM worker-accuracy model, fold the
    /// refreshed worker profiles back into the shared store (so later
    /// rounds and queries route on them), and finalize an item once its
    /// posterior clears the stop bar or the schedule is exhausted.
    fn finalize(
        &self,
        round_plan: RoundPlan,
        concept: &mut Concept,
        request: &AttributeRequest,
        judgments: &[Judgment],
    ) -> Vec<(ItemId, CachedJudgment)> {
        let RoundPlan::Adaptive { target } = round_plan else {
            return majority_vote(judgments, &request.items)
                .iter()
                .map(|v| concept.cache_entry(v.item, v.verdict, v.tally.agreement()))
                .collect();
        };
        concept.stream.extend_from_slice(judgments);
        let outcome = {
            let mut store = mlock(&self.accuracy);
            let outcome = em_aggregate(
                &concept.stream,
                &concept.universe,
                &store,
                &EmConfig::default(),
            );
            store.absorb(&outcome);
            outcome
        };
        // Items whose judgments are still *all* abstentions after two
        // rounds are abandoned unclassified: the crowd does not know them,
        // and the flat path would burn its whole assignment count learning
        // the same thing.
        let last_round = concept.rounds + 1 == ADAPTIVE_ROUND_SCHEDULE.len();
        let stop_bar = target.max(ADAPTIVE_STOP_CONFIDENCE);
        let verdicts = request
            .items
            .iter()
            .map(|&item| {
                outcome
                    .posterior_of(item)
                    .expect("EM aggregates every item of the concept")
            })
            .filter(|posterior| {
                let decisive = posterior.tally.positive + posterior.tally.negative;
                let unknowable = concept.rounds >= 1 && decisive == 0;
                let settled =
                    decisive >= ADAPTIVE_STOP_MIN_DECISIVE && posterior.posterior >= stop_bar;
                last_round || unknowable || settled
            })
            .map(|posterior| concept.posterior_entry(posterior, target))
            .collect();
        concept.latest = Some(outcome);
        verdicts
    }

    /// Finishes the rounds of a concept with nothing left pending:
    /// publishes (and logs) its budget-cut items at their latest posterior,
    /// reports the closing `Progress`, and completes the claim.
    fn finish_rounds(&self, rounds: &mut Rounds<'_>, q: usize, token: OwnerToken) -> Result<()> {
        let concept = &mut rounds.concepts[q];
        if let (RoundPlan::Adaptive { target }, Some(outcome)) =
            (rounds.round_plan, &concept.latest)
        {
            let verdicts: Vec<(ItemId, CachedJudgment)> = concept
                .cut_off
                .iter()
                .filter_map(|&item| outcome.posterior_of(item))
                .map(|posterior| concept.posterior_entry(posterior, target))
                .collect();
            let record = self.publish_verdicts(&rounds.plan.table, &concept.name, &verdicts);
            self.log(&rounds.plan.table, Vec::from_iter(record))?;
            concept.record_fresh(&verdicts);
        }
        // Mid-stream budget exhaustion is *reported*, never silent: the
        // closing Progress carries the BudgetExhausted remainder and what
        // acquiring it would have cost.
        if rounds.sink.is_live() {
            rounds.sink.emit(self.progress(
                rounds.binding,
                &concept.name,
                concept.resolved(),
                &concept.denied,
            ));
        }
        // The claim is complete either way: what the budget refused is
        // final for this query, and a waiter is free to claim the concept
        // and pay for the remainder itself.
        token.complete();
        Ok(())
    }

    /// Publishes verdicts: each goes into the judgment cache, and on a
    /// persistent database the batch's `CachePut` record is returned for
    /// the caller to log — for crowd rounds as one fsynced group per round,
    /// so judgments just paid for survive a crash even if the query never
    /// reaches materialization.
    pub(super) fn publish_verdicts(
        &self,
        table: &str,
        concept: &str,
        verdicts: &[(ItemId, CachedJudgment)],
    ) -> Option<WalRecord> {
        for &(item, judgment) in verdicts {
            self.cache.insert(table, concept, item, judgment);
        }
        (self.durability.is_some() && !verdicts.is_empty()).then(|| {
            let rounds = self.crowd_rounds.load(Ordering::Relaxed);
            persist::cache_put_record(table, concept, verdicts.iter().copied(), rounds)
        })
    }

    /// A fresh seed for one crowd round (see the `crowd_rounds` field).
    pub(super) fn next_round_seed(&self) -> u64 {
        self.config
            .seed
            .wrapping_add(self.crowd_rounds.fetch_add(1, Ordering::Relaxed))
    }

    /// The workers adaptive rounds may be routed to: those whose stored
    /// accuracy estimate clears the routing floors.  `None` (route nothing)
    /// until enough reliable workers are known to serve whole HITs.
    fn preferred_workers(&self) -> Option<HashSet<WorkerId>> {
        let store = mlock(&self.accuracy);
        let reliable =
            store.reliable_workers(ADAPTIVE_ROUTING_MIN_ACCURACY, ADAPTIVE_ROUTING_MIN_WEIGHT);
        if reliable.len() >= ADAPTIVE_ROUTING_MIN_POOL {
            Some(reliable.into_iter().collect())
        } else {
            None
        }
    }

    /// How many of `available` items the next round may send with
    /// `remaining` dollars left (`None` = no budget: all of them).
    ///
    /// With a pricing source this is the largest count whose estimated
    /// round cost fits (found by bisection — the estimate is monotonic in
    /// the item count); the spend then never crosses the budget.  Adaptive
    /// rounds of `assignments` per item are priced with
    /// [`CrowdSource::adaptive_round_cost`] when the source offers it, else
    /// with the flat [`CrowdSource::estimate_cost`] — conservative, since
    /// such a source's `collect_adaptive` default dispatches flat rounds.
    /// Without any estimate a small fixed round is dispatched and the real
    /// charge is checked afterwards, bounding any overshoot to one round.
    ///
    /// The bisection is the source-generic counterpart of
    /// `crowdsim::HitConfig::max_items_within_budget`: for a source whose
    /// estimate is `HitConfig::total_cost` (like [`SimulatedCrowd`]) the
    /// two agree exactly, which `tests/policy_expansion.rs` pins down.
    ///
    /// [`CrowdSource::adaptive_round_cost`]: crate::CrowdSource::adaptive_round_cost
    /// [`CrowdSource::estimate_cost`]: crate::CrowdSource::estimate_cost
    /// [`SimulatedCrowd`]: crate::SimulatedCrowd
    fn affordable(
        &self,
        binding: &TableBinding,
        remaining: Option<f64>,
        available: usize,
        assignments: Option<usize>,
    ) -> usize {
        let remaining = match remaining {
            Some(remaining) => remaining,
            None => return available,
        };
        if remaining <= 1e-12 {
            return 0;
        }
        let crowd = mlock(&binding.crowd);
        let adaptive = assignments.filter(|&k| crowd.adaptive_round_cost(1, k).is_some());
        let price = |n: usize| match adaptive {
            Some(k) => crowd.adaptive_round_cost(n, k),
            None => crowd.estimate_cost(n),
        };
        match price(1) {
            None => available.min(FALLBACK_BUDGET_CHUNK),
            Some(single) if single > remaining + 1e-9 => 0,
            Some(_) => {
                let fits = |n: usize| price(n).is_some_and(|cost| cost <= remaining + 1e-9);
                let (mut lo, mut hi) = (1usize, available);
                while lo < hi {
                    let mid = (lo + hi).div_ceil(2);
                    if fits(mid) {
                        lo = mid;
                    } else {
                        hi = mid - 1;
                    }
                }
                lo
            }
        }
    }

    /// A concept's streaming `Progress` with `outstanding` items left,
    /// priced by the crowd source's estimate of that remainder: the full
    /// [`CrowdSource::estimate_outstanding`] hook, else plain
    /// [`CrowdSource::estimate_cost`] pricing (with every item assumed
    /// resolvable), else no estimate.
    ///
    /// Never blocks on the binding's crowd mutex: while another query's
    /// crowd round is in flight the source is locked for the whole round,
    /// and an estimate that parked behind it would stall the *caller* —
    /// in particular an event-streaming query computing its initial
    /// progress estimate before it has even registered with the inflight
    /// table, which must stay free to coalesce onto that very round.  The
    /// estimate is only advisory, so under contention we simply report
    /// none.
    ///
    /// [`CrowdSource::estimate_outstanding`]: crate::CrowdSource::estimate_outstanding
    /// [`CrowdSource::estimate_cost`]: crate::CrowdSource::estimate_cost
    fn progress(
        &self,
        binding: &TableBinding,
        concept: &str,
        resolved: usize,
        outstanding: &[ItemId],
    ) -> QueryEvent {
        let estimate = match try_mlock(&binding.crowd) {
            Some(crowd) if !outstanding.is_empty() => crowd
                .estimate_outstanding(concept, outstanding)
                .or_else(|| {
                    crowd
                        .estimate_cost(outstanding.len())
                        .map(|estimated_cost| OutstandingEstimate {
                            expected_resolvable: outstanding.len() as f64,
                            estimated_cost,
                        })
                }),
            _ => None,
        };
        progress_event(concept, resolved, outstanding.len(), estimate)
    }
}

/// Builds one streaming [`QueryEvent::Progress`] for a concept.
///
/// The completeness estimate divides what is resolved by what is resolved
/// plus what the crowd source *expects to be resolvable* of the
/// outstanding items — items nobody in the worker population knows do not
/// count against completeness (Trushkowsky et al.'s "get it all" is about
/// the reachable all).  Without an estimate every outstanding item is
/// assumed resolvable and the remaining cost reads 0 (unknown).
fn progress_event(
    concept: &str,
    items_resolved: usize,
    items_outstanding: usize,
    estimate: Option<OutstandingEstimate>,
) -> QueryEvent {
    let (expected_resolvable, estimated_remaining_cost) = match estimate {
        Some(estimate) => (
            estimate
                .expected_resolvable
                .clamp(0.0, items_outstanding as f64),
            estimate.estimated_cost.max(0.0),
        ),
        None => (items_outstanding as f64, 0.0),
    };
    let denominator = items_resolved as f64 + expected_resolvable;
    let estimated_completeness = if denominator <= 0.0 {
        1.0
    } else {
        (items_resolved as f64 / denominator).clamp(0.0, 1.0)
    };
    QueryEvent::Progress {
        concept: concept.to_string(),
        items_resolved,
        items_outstanding,
        estimated_completeness,
        estimated_remaining_cost,
    }
}

/// Builds one streaming [`QueryEvent::Delta`]: the round's decisive fresh
/// verdicts as `(id column, concept)` rows with `CrowdDerived` provenance.
fn delta_event(
    id_column: &str,
    concept: &str,
    round: usize,
    cost_so_far: f64,
    verdicts: &[(ItemId, CachedJudgment)],
) -> QueryEvent {
    let mut rows = Grid::with_capacity(2, verdicts.len());
    let mut provenance = Grid::with_capacity(2, verdicts.len());
    for &(item, judgment) in verdicts {
        let Some(verdict) = judgment.verdict else {
            continue;
        };
        rows.push_row([Value::Integer(item as i64), Value::Boolean(verdict)]);
        provenance.push_row([
            CellProvenance::Stored,
            CellProvenance::CrowdDerived {
                confidence: judgment.confidence,
                cost_share: judgment.cost,
            },
        ]);
    }
    QueryEvent::Delta {
        rows: RowSet {
            columns: vec![id_column.to_string(), concept.to_lowercase()],
            rows,
            provenance,
        },
        concept: concept.to_string(),
        round,
        cost_so_far,
    }
}
