//! Per-tenant admission control: concurrent-query caps, sliding-window
//! dollar budgets, and graceful load shedding.
//!
//! The [`Limiter`] sits at the mouth of the engine: every policy query
//! asks it for a ticket before any work — before a streamed query's job is
//! enqueued, before a blocking query starts on its caller's thread
//! ([`QueryBuilder::tenant`](crate::QueryBuilder::tenant) names the
//! tenant) — and the network server consults it at handshake time (the
//! authentication token doubles as the tenant name).  Three pressures,
//! three responses, in increasing severity:
//!
//! 1. **No pressure** — the query runs exactly as requested.
//! 2. **Soft pressure** (tenant over its soft concurrency threshold, over
//!    its dollar-rate window, or the scheduler queue backed up) — the
//!    query is *degraded*, never rejected: its expansion mode steps down
//!    the ladder `Full → BestEffort → CacheOnly`, a dollar-rate breach
//!    additionally caps the budget at the window's remaining allowance,
//!    and the demotion is recorded in every expansion report as a typed
//!    [`ExpansionStage::Degraded`](crate::ExpansionStage::Degraded)
//!    provenance mark.  Degradation never
//!    reaches `Deny`: a degraded query still answers from stored and
//!    cached cells.
//! 3. **Hard cap** (tenant at its concurrent-query ceiling) — the query is
//!    rejected with the typed [`CrowdDbError::Overloaded`], the only
//!    admission outcome that is an error.
//!
//! Tenants without configured limits are untouched bystanders: they get a
//! ticket (so occupancy is observable) but are never degraded or shed.
//!
//! Dollar windows are *post-paid*: a query's spend is charged when it
//! completes ([`AdmissionTicket::charge`]), so a single query may overshoot
//! the window — the window then degrades every subsequent query until
//! enough spend ages out.  Time is injectable
//! ([`Limiter::with_manual_clock`]) so window expiry is testable without
//! sleeping.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::error::CrowdDbError;
use crate::expansion::DegradeReason;
use crate::policy::ExpansionMode;
use crate::sync::mlock;
use crate::Result;

/// The limits applied to one tenant.  Constructed with the builder
/// methods; every limit defaults to "unlimited".
#[non_exhaustive]
#[derive(Debug, Clone, PartialEq)]
pub struct TenantLimits {
    /// Hard cap on concurrently running queries; at the cap further
    /// queries are rejected with [`CrowdDbError::Overloaded`].
    pub max_concurrent: Option<usize>,
    /// Soft concurrency threshold: at or above this many running queries,
    /// new queries degrade one mode step instead of running at full
    /// fidelity.
    pub degrade_concurrent: Option<usize>,
    /// Crowd-dollar budget per sliding window; once the window's spend
    /// reaches it, new queries degrade and their budget is capped at the
    /// window's remaining allowance.
    pub dollar_rate: Option<f64>,
    /// Length of the sliding dollar window.
    pub window: Duration,
    /// Hard cap on concurrent server connections (enforced at handshake).
    pub max_connections: Option<usize>,
}

impl Default for TenantLimits {
    fn default() -> Self {
        TenantLimits {
            max_concurrent: None,
            degrade_concurrent: None,
            dollar_rate: None,
            window: Duration::from_secs(60),
            max_connections: None,
        }
    }
}

impl TenantLimits {
    /// No limits at all (the explicit spelling of the default).
    pub fn unlimited() -> Self {
        TenantLimits::default()
    }

    /// Sets the hard concurrent-query cap.
    pub fn max_concurrent(mut self, cap: usize) -> Self {
        self.max_concurrent = Some(cap);
        self
    }

    /// Sets the soft concurrency threshold at which queries degrade.
    pub fn degrade_concurrent(mut self, threshold: usize) -> Self {
        self.degrade_concurrent = Some(threshold);
        self
    }

    /// Sets the dollar budget per sliding `window`.
    pub fn dollar_rate(mut self, dollars: f64, window: Duration) -> Self {
        self.dollar_rate = Some(dollars);
        self.window = window;
        self
    }

    /// Sets the hard concurrent-connection cap.
    pub fn max_connections(mut self, cap: usize) -> Self {
        self.max_connections = Some(cap);
        self
    }
}

/// Limiter-wide configuration: the tenant table plus global pressure
/// signals.
#[non_exhaustive]
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LimiterConfig {
    /// Per-tenant limits, keyed by tenant name (= auth token on the
    /// server).  Tenants not in the table are unthrottled.
    pub tenants: BTreeMap<String, TenantLimits>,
    /// Scheduler queue depth at which *every throttled tenant's* queries
    /// degrade one step — global back-pressure, independent of any single
    /// tenant's behavior.  Unthrottled tenants stay exempt.  Blocking
    /// queries run on their callers' threads and never queue, so the depth
    /// counts streamed queries and the network server's jobs only; a
    /// blocking query is still degraded by it when it is admitted.
    pub queue_pressure: Option<usize>,
}

impl LimiterConfig {
    /// An empty configuration (everything unthrottled).
    pub fn new() -> Self {
        LimiterConfig::default()
    }

    /// Adds (or replaces) one tenant's limits.
    pub fn tenant(mut self, name: impl Into<String>, limits: TenantLimits) -> Self {
        self.tenants.insert(name.into(), limits);
        self
    }

    /// Sets the global scheduler-queue pressure threshold.
    pub fn queue_pressure(mut self, depth: usize) -> Self {
        self.queue_pressure = Some(depth);
        self
    }
}

/// Aggregate admission counters (see [`Limiter::stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LimiterStats {
    /// Queries admitted at full fidelity.
    pub admitted: u64,
    /// Queries admitted with a degraded expansion mode.
    pub degraded: u64,
    /// Queries rejected with [`CrowdDbError::Overloaded`].
    pub shed: u64,
    /// Total dollars charged into the sliding windows.
    pub dollars_charged: f64,
}

#[derive(Debug, Default)]
struct TenantState {
    concurrent: usize,
    connections: usize,
    /// (charge time, dollars), oldest first; pruned against the window.
    charges: VecDeque<(Duration, f64)>,
}

#[derive(Debug, Default)]
struct LimiterState {
    tenants: HashMap<String, TenantState>,
    stats: LimiterStats,
}

/// The clock the sliding windows run on.  Production uses monotonic time;
/// tests inject a manual clock and advance it explicitly.
#[derive(Debug)]
enum Clock {
    Real(Instant),
    Manual(AtomicU64),
}

impl Clock {
    fn now(&self) -> Duration {
        match self {
            Clock::Real(epoch) => epoch.elapsed(),
            Clock::Manual(millis) => Duration::from_millis(millis.load(Ordering::SeqCst)),
        }
    }
}

/// What the limiter decided about one query (both outcomes carry the
/// ticket that holds the tenant's concurrency slot).
#[derive(Debug)]
pub enum Admission {
    /// Run exactly as requested.
    Admitted(AdmissionTicket),
    /// Run, but with the expansion mode stepped down.
    Degraded {
        /// The concurrency slot; drop when the query finishes.
        ticket: AdmissionTicket,
        /// How far and why to degrade.
        directive: DegradeDirective,
    },
}

impl Admission {
    /// The ticket, whichever outcome this is.
    pub fn into_parts(self) -> (AdmissionTicket, Option<DegradeDirective>) {
        match self {
            Admission::Admitted(ticket) => (ticket, None),
            Admission::Degraded { ticket, directive } => (ticket, Some(directive)),
        }
    }
}

/// A degradation order attached to an admitted query.  Applied *after* the
/// SQL `WITH EXPANSION` clause merges, so a clause cannot un-degrade a
/// throttled query.
#[derive(Debug, Clone, PartialEq)]
pub struct DegradeDirective {
    /// How many ladder steps to demote the effective mode
    /// (`Full → BestEffort → CacheOnly`; `CacheOnly` is the floor).
    pub steps: usize,
    /// When the dollar window drove the degrade: the remaining allowance,
    /// which caps the query's budget (0 when the window is exhausted).
    pub budget_cap: Option<f64>,
    /// The dominant pressure, for the provenance mark.
    pub reason: DegradeReason,
}

/// Demotes a mode `steps` rungs down the degradation ladder.  `CacheOnly`
/// is the floor — admission control never turns a query into an error —
/// and `Deny` never moves (the caller already asked for no crowd work).
pub fn demote(mode: ExpansionMode, steps: usize) -> ExpansionMode {
    let mut mode = mode;
    for _ in 0..steps {
        mode = match mode {
            ExpansionMode::Full => ExpansionMode::BestEffort,
            ExpansionMode::BestEffort => ExpansionMode::CacheOnly,
            other => other,
        };
    }
    mode
}

/// The admission controller (see the [module docs](self)).
///
/// Shared behind an [`Arc`]: attach the same limiter to a
/// [`CrowdDb`](crate::CrowdDb) (via
/// [`set_limiter`](crate::CrowdDb::set_limiter)) and it governs both
/// in-process and remote queries.
#[derive(Debug)]
pub struct Limiter {
    config: LimiterConfig,
    state: Mutex<LimiterState>,
    clock: Clock,
}

impl Limiter {
    /// Builds a limiter on the monotonic clock.
    pub fn new(config: LimiterConfig) -> Arc<Self> {
        Arc::new(Limiter {
            config,
            state: Mutex::new(LimiterState::default()),
            clock: Clock::Real(Instant::now()),
        })
    }

    /// Builds a limiter whose clock only moves via [`Limiter::advance`] —
    /// for deterministic window tests.
    pub fn with_manual_clock(config: LimiterConfig) -> Arc<Self> {
        Arc::new(Limiter {
            config,
            state: Mutex::new(LimiterState::default()),
            clock: Clock::Manual(AtomicU64::new(0)),
        })
    }

    /// Advances a manual clock (no-op on the monotonic clock).
    pub fn advance(&self, by: Duration) {
        if let Clock::Manual(millis) = &self.clock {
            millis.fetch_add(by.as_millis() as u64, Ordering::SeqCst);
        }
    }

    /// Whether `tenant` has an entry in the limit table — the server's
    /// handshake uses this to accept tenant tokens.
    pub fn has_tenant(&self, tenant: &str) -> bool {
        self.config.tenants.contains_key(tenant)
    }

    /// The configured tenant names, for monitoring.
    pub fn tenant_names(&self) -> Vec<String> {
        self.config.tenants.keys().cloned().collect()
    }

    /// Admission counters so far.
    pub fn stats(&self) -> LimiterStats {
        mlock(&self.state).stats
    }

    /// Number of queries `tenant` has running right now.
    pub fn concurrent(&self, tenant: &str) -> usize {
        mlock(&self.state)
            .tenants
            .get(tenant)
            .map_or(0, |t| t.concurrent)
    }

    /// Dollars currently inside `tenant`'s sliding window.
    pub fn window_spend(&self, tenant: &str) -> f64 {
        let now = self.clock.now();
        let window = self
            .config
            .tenants
            .get(tenant)
            .map_or(Duration::from_secs(60), |l| l.window);
        let mut state = mlock(&self.state);
        let tenant_state = state.tenants.entry(tenant.to_string()).or_default();
        prune(&mut tenant_state.charges, now, window);
        tenant_state.charges.iter().map(|(_, d)| d).sum()
    }

    /// Decides admission for one query of `tenant`, given the scheduler's
    /// current queue depth.  On `Ok` the returned [`Admission`] carries the
    /// concurrency slot; dropping its ticket releases the slot.
    pub fn admit(self: &Arc<Self>, tenant: &str, queue_depth: usize) -> Result<Admission> {
        let limits = self.config.tenants.get(tenant);
        let now = self.clock.now();
        let mut guard = mlock(&self.state);
        let state = &mut *guard;
        let tenant_state = state.tenants.entry(tenant.to_string()).or_default();

        let directive = match limits {
            None => None,
            Some(limits) => {
                if let Some(hard) = limits.max_concurrent {
                    if tenant_state.concurrent >= hard {
                        state.stats.shed += 1;
                        return Err(CrowdDbError::Overloaded {
                            tenant: tenant.to_string(),
                            reason: format!(
                                "{} concurrent queries at hard cap {hard}",
                                tenant_state.concurrent
                            ),
                        });
                    }
                }
                prune(&mut tenant_state.charges, now, limits.window);
                let mut steps = 0;
                let mut budget_cap = None;
                let mut reason = None;
                if let Some(soft) = limits.degrade_concurrent {
                    if tenant_state.concurrent >= soft {
                        steps += 1;
                        reason = Some(DegradeReason::ConcurrencyPressure);
                    }
                }
                if let Some(pressure) = self.config.queue_pressure {
                    if queue_depth >= pressure {
                        steps += 1;
                        reason.get_or_insert(DegradeReason::QueuePressure);
                    }
                }
                if let Some(rate) = limits.dollar_rate {
                    let spent: f64 = tenant_state.charges.iter().map(|(_, d)| d).sum();
                    if spent >= rate {
                        steps += 1;
                        budget_cap = Some((rate - spent).max(0.0));
                        // The dollar window is the most specific signal;
                        // it names the provenance mark even when other
                        // pressures stack on top.
                        reason = Some(DegradeReason::DollarRateExceeded);
                    }
                }
                reason.map(|reason| DegradeDirective {
                    steps,
                    budget_cap,
                    reason,
                })
            }
        };

        tenant_state.concurrent += 1;
        let ticket = AdmissionTicket {
            limiter: Arc::clone(self),
            tenant: tenant.to_string(),
            released: false,
        };
        match directive {
            None => {
                state.stats.admitted += 1;
                Ok(Admission::Admitted(ticket))
            }
            Some(directive) => {
                state.stats.degraded += 1;
                Ok(Admission::Degraded { ticket, directive })
            }
        }
    }

    /// Claims a connection slot for `tenant`, or explains why not.  The
    /// server calls this during the handshake;
    /// [`Limiter::release_connection`] must balance it at teardown.
    pub fn admit_connection(&self, tenant: &str) -> std::result::Result<(), String> {
        let mut state = mlock(&self.state);
        let tenant_state = state.tenants.entry(tenant.to_string()).or_default();
        if let Some(cap) = self
            .config
            .tenants
            .get(tenant)
            .and_then(|l| l.max_connections)
        {
            if tenant_state.connections >= cap {
                return Err(format!(
                    "tenant {tenant}: {} connections at hard cap {cap}",
                    tenant_state.connections
                ));
            }
        }
        tenant_state.connections += 1;
        Ok(())
    }

    /// Releases a connection slot claimed by
    /// [`Limiter::admit_connection`].
    pub fn release_connection(&self, tenant: &str) {
        let mut state = mlock(&self.state);
        if let Some(tenant_state) = state.tenants.get_mut(tenant) {
            tenant_state.connections = tenant_state.connections.saturating_sub(1);
        }
    }

    fn charge(&self, tenant: &str, dollars: f64) {
        if dollars <= 0.0 {
            return;
        }
        let now = self.clock.now();
        let window = self
            .config
            .tenants
            .get(tenant)
            .map_or(Duration::from_secs(60), |l| l.window);
        let mut state = mlock(&self.state);
        state.stats.dollars_charged += dollars;
        let tenant_state = state.tenants.entry(tenant.to_string()).or_default();
        tenant_state.charges.push_back((now, dollars));
        prune(&mut tenant_state.charges, now, window);
    }

    fn release(&self, tenant: &str) {
        let mut state = mlock(&self.state);
        if let Some(tenant_state) = state.tenants.get_mut(tenant) {
            tenant_state.concurrent = tenant_state.concurrent.saturating_sub(1);
        }
    }
}

fn prune(charges: &mut VecDeque<(Duration, f64)>, now: Duration, window: Duration) {
    let horizon = now.saturating_sub(window);
    while charges.front().is_some_and(|(at, _)| *at < horizon) {
        charges.pop_front();
    }
}

/// One tenant's concurrency slot for one query.  Dropping it releases the
/// slot; [`charge`](AdmissionTicket::charge) books the query's crowd spend
/// into the tenant's sliding window when the query completes.
#[derive(Debug)]
pub struct AdmissionTicket {
    limiter: Arc<Limiter>,
    tenant: String,
    released: bool,
}

impl AdmissionTicket {
    /// Books `dollars` of crowd spend against the tenant's window.
    pub fn charge(&self, dollars: f64) {
        self.limiter.charge(&self.tenant, dollars);
    }

    /// The tenant this ticket belongs to.
    pub fn tenant(&self) -> &str {
        &self.tenant
    }
}

impl Drop for AdmissionTicket {
    fn drop(&mut self) {
        if !self.released {
            self.released = true;
            self.limiter.release(&self.tenant);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn throttled() -> Arc<Limiter> {
        Limiter::with_manual_clock(
            LimiterConfig::new().tenant(
                "acme",
                TenantLimits::unlimited()
                    .max_concurrent(2)
                    .degrade_concurrent(1)
                    .dollar_rate(5.0, Duration::from_secs(60)),
            ),
        )
    }

    #[test]
    fn unthrottled_tenants_are_never_degraded_or_shed() {
        let limiter = throttled();
        let mut tickets = Vec::new();
        for _ in 0..10 {
            match limiter.admit("bystander", 0).unwrap() {
                Admission::Admitted(t) => tickets.push(t),
                Admission::Degraded { .. } => panic!("bystander degraded"),
            }
        }
        assert_eq!(limiter.concurrent("bystander"), 10);
        drop(tickets);
        assert_eq!(limiter.concurrent("bystander"), 0);
        assert_eq!(limiter.stats().admitted, 10);
    }

    #[test]
    fn soft_concurrency_degrades_hard_cap_sheds() {
        let limiter = throttled();
        // First query: below the soft threshold, full fidelity.
        let first = match limiter.admit("acme", 0).unwrap() {
            Admission::Admitted(t) => t,
            Admission::Degraded { .. } => panic!("first query degraded"),
        };
        // Second: at soft threshold 1 → degraded one step.
        let (second, directive) = limiter.admit("acme", 0).unwrap().into_parts();
        let directive = directive.expect("second query degrades");
        assert_eq!(directive.steps, 1);
        assert_eq!(directive.reason, DegradeReason::ConcurrencyPressure);
        assert_eq!(directive.budget_cap, None);
        // Third: at hard cap 2 → typed rejection.
        match limiter.admit("acme", 0) {
            Err(CrowdDbError::Overloaded { tenant, .. }) => assert_eq!(tenant, "acme"),
            other => panic!("expected Overloaded, got {other:?}"),
        }
        let stats = limiter.stats();
        assert_eq!((stats.admitted, stats.degraded, stats.shed), (1, 1, 1));
        // Releasing a slot reopens admission.
        drop(first);
        assert!(limiter.admit("acme", 0).is_ok());
        drop(second);
    }

    #[test]
    fn dollar_window_degrades_with_budget_cap_and_ages_out() {
        let limiter = throttled();
        let (ticket, directive) = limiter.admit("acme", 0).unwrap().into_parts();
        assert!(directive.is_none());
        ticket.charge(7.5); // over the $5 window
        drop(ticket);
        assert!((limiter.window_spend("acme") - 7.5).abs() < 1e-9);
        let (ticket, directive) = limiter.admit("acme", 0).unwrap().into_parts();
        let directive = directive.expect("over-rate tenant degrades");
        assert_eq!(directive.reason, DegradeReason::DollarRateExceeded);
        assert_eq!(directive.budget_cap, Some(0.0));
        drop(ticket);
        // The window slides: after 61 simulated seconds the spend ages out
        // and full fidelity returns.
        limiter.advance(Duration::from_secs(61));
        assert_eq!(limiter.window_spend("acme"), 0.0);
        let (ticket, directive) = limiter.admit("acme", 0).unwrap().into_parts();
        assert!(directive.is_none(), "aged-out window still degrading");
        drop(ticket);
    }

    #[test]
    fn queue_pressure_degrades_throttled_tenants_only() {
        let limiter = Limiter::with_manual_clock(
            LimiterConfig::new()
                .tenant("acme", TenantLimits::unlimited().max_concurrent(10))
                .queue_pressure(4),
        );
        let (_t1, directive) = limiter.admit("acme", 3).unwrap().into_parts();
        assert!(directive.is_none());
        let (_t2, directive) = limiter.admit("acme", 4).unwrap().into_parts();
        assert_eq!(
            directive.expect("backed-up queue degrades").reason,
            DegradeReason::QueuePressure
        );
        // The bystander sails through the same queue depth untouched.
        let (_t3, directive) = limiter.admit("bystander", 100).unwrap().into_parts();
        assert!(directive.is_none());
    }

    #[test]
    fn pressures_stack_and_the_ladder_has_a_floor() {
        assert_eq!(demote(ExpansionMode::Full, 1), ExpansionMode::BestEffort);
        assert_eq!(demote(ExpansionMode::Full, 2), ExpansionMode::CacheOnly);
        assert_eq!(demote(ExpansionMode::Full, 9), ExpansionMode::CacheOnly);
        assert_eq!(demote(ExpansionMode::Deny, 3), ExpansionMode::Deny);

        let limiter = throttled();
        let (t1, _) = limiter.admit("acme", 0).unwrap().into_parts();
        t1.charge(99.0);
        // Concurrency (1 >= soft 1) and dollars both press: two steps,
        // dollar reason wins the provenance mark.
        let (_t2, directive) = limiter.admit("acme", 0).unwrap().into_parts();
        let directive = directive.unwrap();
        assert_eq!(directive.steps, 2);
        assert_eq!(directive.reason, DegradeReason::DollarRateExceeded);
    }

    #[test]
    fn connection_caps_enforce_at_handshake() {
        let limiter = Limiter::new(
            LimiterConfig::new().tenant("acme", TenantLimits::unlimited().max_connections(1)),
        );
        limiter.admit_connection("acme").unwrap();
        let refusal = limiter.admit_connection("acme").unwrap_err();
        assert!(refusal.contains("hard cap 1"));
        limiter.release_connection("acme");
        limiter.admit_connection("acme").unwrap();
        // Unknown tenants have no cap.
        for _ in 0..5 {
            limiter.admit_connection("guest").unwrap();
        }
    }
}
