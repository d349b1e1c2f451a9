//! The traced run's crowd: a `CrowdSource` wrapper around `SimulatedCrowd`
//! that times every call and keeps the platform's own invoice.
//!
//! Every trait method is forwarded.  A method left to its default would
//! silently switch the engine onto a fallback path (sequential rounds,
//! flat adaptive rounds, unpriced budgets) and the traced run would
//! measure a different program.

use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crowddb_core::{
    AttributeRequest, CrowdDbError, CrowdSource, OutstandingEstimate, SimulatedCrowd,
};
use crowdsim::{BatchCrowdRun, CrowdRun, Judgment, JudgmentResponse, WorkerId};

use crate::trace::Tracer;

/// The judgments of one question of one round, with the items asked about.
pub struct Question {
    pub judgments: Vec<Judgment>,
    pub items: Vec<u32>,
    pub adaptive: bool,
}

/// What the crowd was asked and paid since the last `take`.
#[derive(Default)]
pub struct Ledger {
    pub invoice: f64,
    pub rounds: u64,
    pub judgments: u64,
    /// Judgments that answered yes or no rather than "don't know".
    pub decisive: u64,
    pub questions: Vec<Question>,
}

/// State shared between the wrapper, which runs on the engine's worker
/// threads, and the client that issued the operation.
pub struct CrowdTap {
    tracer: Arc<Tracer>,
    /// The operation and engine-call span the next crowd calls belong to.
    op: AtomicU64,
    parent: AtomicU64,
    ledger: Mutex<Ledger>,
}

impl CrowdTap {
    pub fn new(tracer: Arc<Tracer>) -> Arc<CrowdTap> {
        Arc::new(CrowdTap {
            tracer,
            op: AtomicU64::new(0),
            parent: AtomicU64::new(0),
            ledger: Mutex::new(Ledger::default()),
        })
    }

    /// Attributes the crowd calls that follow to operation `op`, under
    /// the engine span `parent`.  Only valid with one client at a time.
    pub fn begin(&self, op: u64, parent: u64) {
        self.op.store(op, Ordering::SeqCst);
        self.parent.store(parent, Ordering::SeqCst);
    }

    pub fn take(&self) -> Ledger {
        std::mem::take(&mut *self.ledger.lock().expect("crowd ledger poisoned"))
    }

    fn time<R>(&self, name: &'static str, call: impl FnOnce() -> R) -> R {
        let (op, parent) = (
            self.op.load(Ordering::SeqCst),
            self.parent.load(Ordering::SeqCst),
        );
        self.tracer.time(name, op, parent, call)
    }

    fn book(&self, cost: f64, questions: impl Iterator<Item = Question>) {
        let mut ledger = self.ledger.lock().expect("crowd ledger poisoned");
        ledger.invoice += cost;
        ledger.rounds += 1;
        for question in questions {
            ledger.judgments += question.judgments.len() as u64;
            ledger.decisive += question
                .judgments
                .iter()
                .filter(|j| j.response != JudgmentResponse::Unknown)
                .count() as u64;
            ledger.questions.push(question);
        }
    }

    fn book_batch(&self, requests: &[AttributeRequest], batch: &BatchCrowdRun, adaptive: bool) {
        self.book(
            batch.total_cost,
            requests
                .iter()
                .zip(&batch.question_judgments)
                .map(|(request, judgments)| Question {
                    judgments: judgments.clone(),
                    items: request.items.clone(),
                    adaptive,
                }),
        );
    }
}

pub struct TracedCrowd {
    inner: SimulatedCrowd,
    tap: Arc<CrowdTap>,
}

impl TracedCrowd {
    pub fn new(inner: SimulatedCrowd, tap: Arc<CrowdTap>) -> TracedCrowd {
        TracedCrowd { inner, tap }
    }
}

impl CrowdSource for TracedCrowd {
    fn collect(
        &mut self,
        items: &[u32],
        attribute: &str,
        seed: u64,
    ) -> Result<CrowdRun, CrowdDbError> {
        let inner = &mut self.inner;
        let run = self
            .tap
            .time("crowd.dispatch", || inner.collect(items, attribute, seed))?;
        let payload = run
            .judgments
            .iter()
            .filter(|j| !j.is_gold)
            .copied()
            .collect();
        self.tap.book(
            run.total_cost,
            std::iter::once(Question {
                judgments: payload,
                items: items.to_vec(),
                adaptive: false,
            }),
        );
        Ok(run)
    }

    fn collect_batch(
        &mut self,
        requests: &[AttributeRequest],
        seed: u64,
    ) -> Result<BatchCrowdRun, CrowdDbError> {
        let inner = &mut self.inner;
        let batch = self
            .tap
            .time("crowd.dispatch", || inner.collect_batch(requests, seed))?;
        self.tap.book_batch(requests, &batch, false);
        Ok(batch)
    }

    fn collect_adaptive(
        &mut self,
        requests: &[AttributeRequest],
        seed: u64,
        judgments_per_item: usize,
        preferred_workers: Option<&HashSet<WorkerId>>,
    ) -> Result<BatchCrowdRun, CrowdDbError> {
        let inner = &mut self.inner;
        let batch = self.tap.time("crowd.dispatch", || {
            inner.collect_adaptive(requests, seed, judgments_per_item, preferred_workers)
        })?;
        self.tap.book_batch(requests, &batch, true);
        Ok(batch)
    }

    fn adaptive_round_cost(&self, n_items: usize, judgments_per_item: usize) -> Option<f64> {
        self.tap.time("crowd.estimate", || {
            self.inner.adaptive_round_cost(n_items, judgments_per_item)
        })
    }

    fn estimate_cost(&self, n_items: usize) -> Option<f64> {
        self.tap
            .time("crowd.estimate", || self.inner.estimate_cost(n_items))
    }

    fn estimate_outstanding(&self, attribute: &str, items: &[u32]) -> Option<OutstandingEstimate> {
        self.tap.time("crowd.estimate", || {
            self.inner.estimate_outstanding(attribute, items)
        })
    }

    fn describe(&self) -> String {
        self.inner.describe()
    }
}
