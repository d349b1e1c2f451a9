//! Anytime answers: the streaming query API.
//!
//! `run()` hides minutes of simulated crowd latency behind an
//! all-or-nothing [`QueryOutcome`].  Trushkowsky et al. (*Getting It All
//! from the Crowd*, PAPERS.md) argue that crowd-powered queries should
//! instead surface partial answers plus a principled completeness estimate
//! while acquisition continues.  [`QueryStream`] is that surface: a
//! blocking [`Iterator`] of [`QueryEvent`]s fed over an
//! [`std::sync::mpsc`] channel by the expansion work running as one job
//! on the database's [`scheduler`](crate::scheduler) threads.
//!
//! The event order for one query is:
//!
//! 1. [`QueryEvent::Snapshot`] — the rows answerable *right now* from
//!    stored and previously purchased cells (missing attributes behave as
//!    all-`NULL` columns), delivered before any crowd work starts;
//! 2. interleaved [`QueryEvent::Progress`] and [`QueryEvent::Delta`]
//!    events, one stream per concept, as cache hits, coalesced rounds, and
//!    this query's own crowd rounds resolve items;
//! 3. exactly one final [`QueryEvent::Completed`] carrying the same
//!    [`QueryOutcome`] a blocking [`run`](crate::QueryBuilder::run) would
//!    have produced under the same seed and policy — `run` executes the
//!    same engine path on the caller's thread with the events switched
//!    off, so there is exactly one execution path.
//!
//! Dropping a stream early does **not** cancel the query: the crowd work
//! already dispatched completes, is paid for, and lands in the judgment
//! cache and catalog as usual — only the notifications stop.

use std::sync::{mpsc, Arc};

use crate::error::CrowdDbError;
use crate::session::{QueryOutcome, RowSet};
use crate::Result;

/// One incremental notification from an in-flight anytime query.
///
/// The enum (and its struct variants) are `#[non_exhaustive]`: future
/// event kinds and per-event fields can appear without breaking matches —
/// always include a wildcard arm and `..` rest patterns.
#[non_exhaustive]
#[derive(Debug, Clone, PartialEq)]
pub enum QueryEvent {
    /// The rows answerable immediately from stored and already-purchased
    /// cells, with per-cell provenance, in the same shape as the eventual
    /// full answer.  Referenced attributes that are not materialized yet
    /// behave as all-`NULL` columns: their cells carry
    /// [`Missing`](crate::CellProvenance::Missing) provenance and
    /// predicates over them reject rows, exactly as over an
    /// existing-but-unfilled column.  Emitted once, before any crowd work.
    Snapshot(RowSet),
    /// Fresh verdicts one of this query's own crowd rounds brought in.
    #[non_exhaustive]
    Delta {
        /// The newly judged items as `(id column, concept)` rows — the raw
        /// per-item verdicts of the round with `CrowdDerived` provenance,
        /// keyed by the configured id column.  Filtering, projection, and
        /// extractor extrapolation happen once at completion; this is the
        /// acquisition as it lands.
        rows: RowSet,
        /// The domain concept the round asked about.
        concept: String,
        /// 0-based index of the crowd round *this query* dispatched
        /// (coalesced foreign rounds surface as [`QueryEvent::Progress`]
        /// jumps instead — they are not this query's rounds).
        round: usize,
        /// Dollars this query has been charged so far, across all concepts.
        cost_so_far: f64,
    },
    /// The acquisition state of one concept.
    #[non_exhaustive]
    Progress {
        /// The domain concept being acquired.
        concept: String,
        /// Items with an answer so far (cached, coalesced, or freshly
        /// judged — ties included: the crowd was asked and answered).
        items_resolved: usize,
        /// Items still without an answer.  After a budget ran out
        /// mid-plan this is the `BudgetExhausted` remainder the query
        /// will *not* acquire — reported explicitly rather than the
        /// stream silently stopping short.
        items_outstanding: usize,
        /// Estimated fraction of the *achievable* answer already resolved,
        /// in `[0, 1]`.  The denominator comes from the crowd source's own
        /// [`estimate_outstanding`](crate::CrowdSource::estimate_outstanding)
        /// hook when it offers one: items the crowd is never expected to
        /// resolve (nobody knows them) do not count against completeness,
        /// in the spirit of Trushkowsky et al.'s estimators.
        estimated_completeness: f64,
        /// Predicted dollars to acquire the outstanding items (0 when
        /// nothing is outstanding or the source cannot price its work).
        estimated_remaining_cost: f64,
    },
    /// The query finished.  The payload is exactly what
    /// [`run`](crate::QueryBuilder::run) would have returned — same rows,
    /// same per-cell provenance, same dollars — because both run the same
    /// engine path; only where it runs differs.  Always the final event.
    ///
    /// The outcome is shared with the stream that yielded the event, not
    /// copied: once the event is dropped, [`QueryStream::wait`] hands the
    /// outcome over without copying a cell.
    Completed(Arc<QueryOutcome>),
}

impl QueryEvent {
    /// Builds a [`Delta`](QueryEvent::Delta) event.  The struct variant is
    /// `#[non_exhaustive]`, so out-of-crate producers — above all the
    /// network service layer decoding events off the wire — construct it
    /// through this entry point.
    pub fn delta(rows: RowSet, concept: impl Into<String>, round: usize, cost_so_far: f64) -> Self {
        QueryEvent::Delta {
            rows,
            concept: concept.into(),
            round,
            cost_so_far,
        }
    }

    /// Builds a [`Progress`](QueryEvent::Progress) event (the wire-decoding
    /// counterpart of [`QueryEvent::delta`]).
    pub fn progress(
        concept: impl Into<String>,
        items_resolved: usize,
        items_outstanding: usize,
        estimated_completeness: f64,
        estimated_remaining_cost: f64,
    ) -> Self {
        QueryEvent::Progress {
            concept: concept.into(),
            items_resolved,
            items_outstanding,
            estimated_completeness,
            estimated_remaining_cost,
        }
    }
}

/// What the worker sends over the channel: events, or the query's failure.
pub(crate) enum StreamMessage {
    Event(QueryEvent),
    Failed(CrowdDbError),
}

/// The worker-side half of a stream: emits events into the channel,
/// silently dropping them once the consumer has gone away (an abandoned
/// stream must not fail the expansion that other queries may be coalescing
/// onto).  [`EventSink::null`] is the sink of a blocking
/// [`run`](crate::QueryBuilder::run) and of non-query entry points like
/// [`CrowdDb::expand_columns`](crate::CrowdDb::expand_columns) — same
/// pipeline, nobody listening.
pub(crate) struct EventSink {
    sender: Option<mpsc::Sender<StreamMessage>>,
}

impl EventSink {
    /// A connected sink plus the receiver its [`QueryStream`] reads.
    pub(crate) fn channel() -> (EventSink, mpsc::Receiver<StreamMessage>) {
        let (sender, receiver) = mpsc::channel();
        (
            EventSink {
                sender: Some(sender),
            },
            receiver,
        )
    }

    /// A sink that discards everything.
    pub(crate) fn null() -> EventSink {
        EventSink { sender: None }
    }

    /// True when somebody may be listening — lets the pipeline skip
    /// building events (snapshots, estimates) nobody would see.
    pub(crate) fn is_live(&self) -> bool {
        self.sender.is_some()
    }

    pub(crate) fn emit(&self, event: QueryEvent) {
        if let Some(sender) = &self.sender {
            let _ = sender.send(StreamMessage::Event(event));
        }
    }

    /// Terminal success: emits the final [`QueryEvent::Completed`].
    pub(crate) fn complete(&self, outcome: QueryOutcome) {
        if let Some(sender) = &self.sender {
            let completed = QueryEvent::Completed(Arc::new(outcome));
            let _ = sender.send(StreamMessage::Event(completed));
        }
    }

    /// Terminal failure: the stream ends and [`QueryStream::wait`] returns
    /// the error.
    pub(crate) fn fail(&self, error: CrowdDbError) {
        if let Some(sender) = &self.sender {
            let _ = sender.send(StreamMessage::Failed(error));
        }
    }
}

/// The error of a query whose execution died (panicked) before it
/// reached a terminal outcome — on a scheduler worker for a stream, on the
/// caller's thread for a blocking [`run`](crate::QueryBuilder::run).
pub(crate) fn worker_died() -> CrowdDbError {
    CrowdDbError::Contention(
        "the query's execution ended without an outcome (it panicked, or the database shut down)"
            .into(),
    )
}

/// A blocking stream of [`QueryEvent`]s from one anytime query.
///
/// Obtained from [`QueryBuilder::stream`](crate::QueryBuilder::stream).
/// Iterate to consume events as the background expansion produces them;
/// iteration ends after [`QueryEvent::Completed`] (or on failure).  Call
/// [`wait`](QueryStream::wait) to drain the remainder and get the final
/// [`QueryOutcome`] — the same outcome a blocking
/// [`run`](crate::QueryBuilder::run) returns.
///
/// ```no_run
/// # use crowddb_core::{CrowdDb, CrowdDbConfig, QueryEvent};
/// # let db = CrowdDb::new(CrowdDbConfig::default());
/// let mut stream = db
///     .query("SELECT name FROM movies WHERE is_comedy = true")
///     .stream();
/// for event in &mut stream {
///     match event {
///         QueryEvent::Snapshot(rows) => println!("{} rows right now", rows.rows.len()),
///         QueryEvent::Progress { concept, estimated_completeness, .. } => {
///             println!("{concept}: {:.0} % complete", estimated_completeness * 100.0);
///         }
///         QueryEvent::Completed(outcome) => println!("paid ${:.2}", outcome.crowd_cost),
///         _ => {}
///     }
/// }
/// let outcome = stream.wait()?;
/// # Ok::<(), crowddb_core::CrowdDbError>(())
/// ```
#[must_use = "a query stream does nothing until iterated or waited on"]
pub struct QueryStream {
    receiver: mpsc::Receiver<StreamMessage>,
    outcome: Option<Result<Arc<QueryOutcome>>>,
    done: bool,
}

impl std::fmt::Debug for QueryStream {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryStream")
            .field("done", &self.done)
            .finish_non_exhaustive()
    }
}

impl QueryStream {
    pub(crate) fn new(receiver: mpsc::Receiver<StreamMessage>) -> Self {
        QueryStream {
            receiver,
            outcome: None,
            done: false,
        }
    }

    /// Drains the remaining events and returns the final outcome — the
    /// blocking view of the stream.  It equals what
    /// [`QueryBuilder::run`] returns, but costs a scheduler job and the
    /// events; a caller that wants only the outcome should call `run`.
    /// The outcome is moved out of the stream, not copied, unless the
    /// caller still holds the [`QueryEvent::Completed`] event sharing it.
    ///
    /// [`QueryBuilder::run`]: crate::QueryBuilder::run
    pub fn wait(mut self) -> Result<QueryOutcome> {
        while self.next().is_some() {}
        let outcome = self.outcome.unwrap_or_else(|| Err(worker_died()))?;
        Ok(Arc::unwrap_or_clone(outcome))
    }

    /// The final outcome, once the stream has ended (`None` while events
    /// are still pending).
    pub fn outcome(&self) -> Option<std::result::Result<&QueryOutcome, &CrowdDbError>> {
        let outcome = self.outcome.as_ref()?;
        Some(outcome.as_ref().map(|outcome| &**outcome))
    }
}

impl Iterator for QueryStream {
    type Item = QueryEvent;

    fn next(&mut self) -> Option<QueryEvent> {
        if self.done {
            return None;
        }
        match self.receiver.recv() {
            Ok(StreamMessage::Event(event)) => {
                if let QueryEvent::Completed(outcome) = &event {
                    self.outcome = Some(Ok(Arc::clone(outcome)));
                    self.done = true;
                }
                Some(event)
            }
            Ok(StreamMessage::Failed(error)) => {
                self.outcome = Some(Err(error));
                self.done = true;
                None
            }
            // The worker died (panic) without a terminal message.
            Err(mpsc::RecvError) => {
                self.done = true;
                if self.outcome.is_none() {
                    self.outcome = Some(Err(worker_died()));
                }
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::ExpansionPolicy;
    use crate::session::StatementResult;
    use relational::Grid;

    fn outcome() -> QueryOutcome {
        QueryOutcome {
            policy: ExpansionPolicy::full(),
            result: StatementResult::Mutation { rows_affected: 0 },
            reports: Vec::new(),
            crowd_cost: 0.0,
        }
    }

    #[test]
    fn stream_yields_events_then_completes() {
        let (sink, receiver) = EventSink::channel();
        assert!(sink.is_live());
        sink.emit(QueryEvent::Progress {
            concept: "Comedy".into(),
            items_resolved: 3,
            items_outstanding: 7,
            estimated_completeness: 0.3,
            estimated_remaining_cost: 1.4,
        });
        sink.complete(outcome());
        let mut stream = QueryStream::new(receiver);
        assert!(matches!(
            stream.next(),
            Some(QueryEvent::Progress {
                items_resolved: 3,
                ..
            })
        ));
        assert!(matches!(stream.next(), Some(QueryEvent::Completed(_))));
        assert!(stream.next().is_none(), "Completed ends the stream");
        assert!(matches!(stream.outcome(), Some(Ok(_))));
        assert!(stream.wait().is_ok());
    }

    #[test]
    fn failure_ends_the_stream_with_the_error() {
        let (sink, receiver) = EventSink::channel();
        sink.fail(CrowdDbError::Configuration("boom".into()));
        let mut stream = QueryStream::new(receiver);
        assert!(stream.next().is_none());
        assert!(matches!(
            stream.wait(),
            Err(CrowdDbError::Configuration(msg)) if msg == "boom"
        ));
    }

    #[test]
    fn a_dead_worker_surfaces_as_an_error_not_a_hang() {
        let (sink, receiver) = EventSink::channel();
        drop(sink); // the worker vanished without a terminal message
        let stream = QueryStream::new(receiver);
        assert!(matches!(stream.wait(), Err(CrowdDbError::Contention(_))));
    }

    #[test]
    fn null_sink_discards_everything() {
        let sink = EventSink::null();
        assert!(!sink.is_live());
        sink.emit(QueryEvent::Snapshot(RowSet {
            columns: vec![],
            rows: Grid::default(),
            provenance: Grid::default(),
        }));
        sink.complete(outcome());
        sink.fail(CrowdDbError::Configuration("nobody hears this".into()));
    }
}
