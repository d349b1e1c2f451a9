//! Shared plumbing of the workloads: arguments, the closed-loop client
//! runner, latency statistics, process counters, and the result lines.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use crowddb_core::{CrowdDbError, QueryEvent, QueryOutcome, QueryStream};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Each workload builds its set-up at least `MIN_SETUPS` times, and
/// keeps building until `SETUP_SECONDS` have passed (at most `MAX_SETUPS`
/// times), so a set-up of a few milliseconds still gives a steady median.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 30;
const SETUP_SECONDS: f64 = 1.0;

/// Unrecorded operations before each measured phase.
const WARMUP_SECONDS: f64 = 1.0;

/// The command line: `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    pub fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = args.next() {
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => workload = Some(value),
                "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
                "--seconds" => {
                    let s = value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?;
                    if !(s > 0.0 && s.is_finite()) {
                        return Err(format!("--seconds must be positive, got {value}"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                    })
                }
                other => return Err(format!("unknown flag {other}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.unwrap_or(false),
        })
    }
}

/// One named measurement with its unit.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// What a workload hands back to `main`.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Wrong answers; any entry makes the run incorrect.
    pub problems: Vec<String>,
    /// The gated metrics: end-to-end (untraced) or per-layer (traced).
    pub metrics: Vec<Metric>,
    /// Everything else worth reading, printed on the line before the result.
    pub detail: Vec<Metric>,
}

/// One completed operation.
#[derive(Clone, Copy)]
pub struct Sample {
    pub kind: &'static str,
    /// Completion time since the phase began, untimed preparation excluded.
    pub done: Duration,
    pub latency: Duration,
    /// For a drained stream, the time to its `Snapshot` event.
    pub first_rows: Option<Duration>,
}

/// One closed-loop client: it issues its next operation only after the
/// previous one returned.
pub struct Client {
    pub id: usize,
    pub rng: StdRng,
    pub samples: Vec<Sample>,
    pub failed: u64,
    pub problems: Vec<String>,
    epoch: Instant,
    deadline: Instant,
    paused: Duration,
}

impl Client {
    pub fn running(&self) -> bool {
        Instant::now() < self.deadline
    }

    /// Records a successful operation that began at `started`.
    pub fn record(&mut self, kind: &'static str, started: Instant, first_rows: Option<Duration>) {
        let now = Instant::now();
        self.samples.push(Sample {
            kind,
            done: now - self.epoch - self.paused,
            latency: now - started,
            first_rows,
        });
    }

    /// Counts an operation the engine refused or failed.
    pub fn fail(&mut self, error: impl std::fmt::Display) {
        if self.failed < 5 {
            eprintln!("client {}: operation failed: {error}", self.id);
        }
        self.failed += 1;
    }

    /// Records a wrong answer when `ok` is false.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok && self.problems.len() < 20 {
            self.problems
                .push(format!("client {}: {}", self.id, what()));
        }
    }

    /// Runs preparation that is not part of the measured work; the
    /// deadline moves by the time it took, so the client still measures
    /// for the full run length.
    pub fn untimed<R>(&mut self, prepare: impl FnOnce() -> R) -> R {
        let started = Instant::now();
        let result = prepare();
        let spent = started.elapsed();
        self.paused += spent;
        self.deadline += spent;
        result
    }
}

/// The merged samples of one measured phase.
pub struct Phase {
    /// Samples of all clients, in completion order.
    pub samples: Vec<Sample>,
    /// Measured seconds (the longest client's, preparation excluded).
    pub seconds: f64,
    pub failed: u64,
    pub problems: Vec<String>,
}

/// Runs one closed-loop client per `state`; each calls `op` for a short
/// unrecorded warm-up and then for `seconds`.  Client `i` draws its
/// choices from a generator seeded with `seed` and `i`.  Failures and
/// wrong answers count in the warm-up too.
pub fn run_clients<S: Send>(
    seed: u64,
    seconds: f64,
    states: Vec<S>,
    op: impl Fn(&mut Client, &mut S) + Sync,
) -> (Phase, Vec<S>) {
    let op = &op;
    let epoch = Instant::now();
    let deadline = epoch + Duration::from_secs_f64(WARMUP_SECONDS);
    let finished: Vec<(Client, S, Duration)> = std::thread::scope(|scope| {
        let handles: Vec<_> = states
            .into_iter()
            .enumerate()
            .map(|(id, mut state)| {
                scope.spawn(move || {
                    let mut client = Client {
                        id,
                        rng: StdRng::seed_from_u64(
                            seed ^ (0x9e37_79b9_7f4a_7c15u64.wrapping_mul(id as u64 + 1)),
                        ),
                        samples: Vec::new(),
                        failed: 0,
                        problems: Vec::new(),
                        epoch,
                        deadline,
                        paused: Duration::ZERO,
                    };
                    // Warm up first: allocator, page cache and scheduler
                    // threads settle before anything is recorded.
                    while client.running() {
                        op(&mut client, &mut state);
                    }
                    client.samples.clear();
                    client.epoch = Instant::now();
                    client.deadline = client.epoch + Duration::from_secs_f64(seconds);
                    client.paused = Duration::ZERO;
                    while client.running() {
                        op(&mut client, &mut state);
                    }
                    let measured = client.epoch.elapsed() - client.paused;
                    (client, state, measured)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a benchmark client panicked"))
            .collect()
    });
    let mut phase = Phase {
        samples: Vec::new(),
        seconds: 0.0,
        failed: 0,
        problems: Vec::new(),
    };
    let mut states = Vec::new();
    for (client, state, measured) in finished {
        phase.samples.extend(client.samples);
        phase.seconds = phase.seconds.max(measured.as_secs_f64());
        phase.failed += client.failed;
        phase.problems.extend(client.problems);
        states.push(state);
    }
    phase.samples.sort_by_key(|s| s.done);
    (phase, states)
}

impl Phase {
    pub fn attempted(&self) -> u64 {
        self.samples.len() as u64 + self.failed
    }

    pub fn throughput(&self) -> f64 {
        self.samples.len() as f64 / self.seconds.max(1e-9)
    }

    /// Sorted latencies in milliseconds of the given kinds (all when empty).
    pub fn latencies_ms(&self, kinds: &[&str]) -> Vec<f64> {
        let mut ms: Vec<f64> = self
            .samples
            .iter()
            .filter(|s| kinds.is_empty() || kinds.contains(&s.kind))
            .map(|s| s.latency.as_secs_f64() * 1e3)
            .collect();
        ms.sort_by(f64::total_cmp);
        ms
    }

    /// Sorted times to the first rows, in milliseconds, of the drained
    /// streams among the samples.
    pub fn first_rows_ms(&self) -> Vec<f64> {
        let mut ms: Vec<f64> = self
            .samples
            .iter()
            .filter_map(|s| s.first_rows)
            .map(|d| d.as_secs_f64() * 1e3)
            .collect();
        ms.sort_by(f64::total_cmp);
        ms
    }

    /// Median latency of the last tenth of the operations against the
    /// first tenth, in percent: a stationary workload stays near zero.
    pub fn drift_pct(&self) -> f64 {
        let tenth = self.samples.len() / 10;
        if tenth == 0 {
            return 0.0;
        }
        let decile = |part: &[Sample]| {
            let mut ms: Vec<f64> = part.iter().map(|s| s.latency.as_secs_f64()).collect();
            ms.sort_by(f64::total_cmp);
            percentile(&ms, 0.5)
        };
        let first = decile(&self.samples[..tenth]);
        let last = decile(&self.samples[self.samples.len() - tenth..]);
        100.0 * (last - first) / first
    }
}

/// Drains a query stream; returns the outcome and the time from `started`
/// to the `Snapshot` event, the first rows in the caller's hands.
pub fn drain(
    mut stream: QueryStream,
    started: Instant,
) -> Result<(QueryOutcome, Duration), CrowdDbError> {
    let mut first_rows = None;
    for event in &mut stream {
        if first_rows.is_none() && matches!(event, QueryEvent::Snapshot(_)) {
            first_rows = Some(started.elapsed());
        }
    }
    let outcome = stream.wait()?;
    Ok((outcome, first_rows.unwrap_or_else(|| started.elapsed())))
}

/// Nearest-rank percentile of sorted values (`q` in `(0, 1]`); 0 when empty.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Builds the set-up repeatedly (see `MIN_SETUPS`), dropping each before
/// building the next, and returns the last one with the median build time
/// in seconds.
pub fn repeated_setup<T>(mut build: impl FnMut() -> Result<T, String>) -> Result<(T, f64), String> {
    let mut kept = None;
    let mut seconds: Vec<f64> = Vec::new();
    while seconds.len() < MIN_SETUPS
        || (seconds.iter().sum::<f64>() < SETUP_SECONDS && seconds.len() < MAX_SETUPS)
    {
        drop(kept.take());
        let started = Instant::now();
        kept = Some(build()?);
        seconds.push(started.elapsed().as_secs_f64());
    }
    Ok((kept.expect("built at least once"), median(&seconds)))
}

/// Process-wide counters read from `/proc/self`.
#[derive(Clone, Copy, Default)]
pub struct ProcessCounters {
    /// User plus system CPU time of every thread.
    pub cpu: Duration,
    /// Bytes handed to `write`-family system calls.
    pub write_bytes: u64,
    /// `write`-family system calls.
    pub write_calls: u64,
}

impl ProcessCounters {
    pub fn read() -> ProcessCounters {
        let mut counters = ProcessCounters::default();
        if let Ok(stat) = std::fs::read_to_string("/proc/self/stat") {
            // Fields after the parenthesised command name; utime and stime
            // are fields 14 and 15 of the whole line, in clock ticks.
            if let Some(rest) = stat.rsplit_once(')').map(|(_, rest)| rest) {
                let fields: Vec<&str> = rest.split_whitespace().collect();
                let ticks: u64 = fields
                    .get(11..13)
                    .map(|f| f.iter().filter_map(|v| v.parse::<u64>().ok()).sum())
                    .unwrap_or(0);
                // Linux reports these in USER_HZ, which is 100 on every
                // mainstream configuration.
                counters.cpu = Duration::from_millis(ticks * 10);
            }
        }
        if let Ok(io) = std::fs::read_to_string("/proc/self/io") {
            for line in io.lines() {
                let mut parts = line.split(':');
                let (key, value) = (parts.next(), parts.next().map(str::trim));
                let value = value.and_then(|v| v.parse::<u64>().ok()).unwrap_or(0);
                match key {
                    Some("wchar") => counters.write_bytes = value,
                    Some("syscw") => counters.write_calls = value,
                    _ => {}
                }
            }
        }
        counters
    }

    pub fn since(self, earlier: ProcessCounters) -> ProcessCounters {
        ProcessCounters {
            cpu: self.cpu.saturating_sub(earlier.cpu),
            write_bytes: self.write_bytes.saturating_sub(earlier.write_bytes),
            write_calls: self.write_calls.saturating_sub(earlier.write_calls),
        }
    }
}

/// Peak resident set size of the process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                let kb = line.strip_prefix("VmHWM:")?.trim().strip_suffix("kB")?;
                kb.trim().parse::<f64>().ok()
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Tallies of the answer cells a workload checked against its ground
/// truth: the benchmark's own generated rows, or the domain's labels for
/// crowd-backed columns.
#[derive(Clone, Copy, Default, Debug, PartialEq)]
pub struct Cells {
    pub total: u64,
    /// Cells holding a value.
    pub answered: u64,
    /// Answered cells equal to the ground truth.
    pub correct: u64,
}

impl Cells {
    pub fn add(&mut self, other: Cells) {
        self.total += other.total;
        self.answered += other.answered;
        self.correct += other.correct;
    }

    pub fn answered_ratio(&self) -> f64 {
        self.answered as f64 / self.total.max(1) as f64
    }

    pub fn accuracy(&self) -> f64 {
        self.correct as f64 / self.answered.max(1) as f64
    }
}

/// The end-to-end metrics every workload reports, from its untraced phase.
pub fn end_to_end_metrics(phase: &Phase, setup_s: f64, cells: Cells) -> Vec<Metric> {
    let all = phase.latencies_ms(&[]);
    vec![
        metric("setup_s", setup_s, "s"),
        metric("p50_ms", percentile(&all, 0.50), "ms"),
        metric("answered_cell_ratio", cells.answered_ratio(), "ratio"),
        metric("cell_accuracy", cells.accuracy(), "ratio"),
        metric("peak_rss_mb", peak_rss_mb(), "MiB"),
    ]
}

/// Median and 99th percentile of some op kinds, plus their sample count,
/// pushed onto a workload's detail line.
pub fn kind_percentiles(
    detail: &mut Vec<Metric>,
    phase: &Phase,
    kinds: &[&str],
    p50: &'static str,
    p99: Option<&'static str>,
    samples: &'static str,
) {
    let ms = phase.latencies_ms(kinds);
    detail.push(metric(p50, percentile(&ms, 0.50), "ms"));
    if let Some(p99) = p99 {
        detail.push(metric(p99, percentile(&ms, 0.99), "ms"));
    }
    detail.push(metric(samples, ms.len() as f64, "count"));
}

/// The detail metrics every untraced phase adds.
pub fn phase_detail(detail: &mut Vec<Metric>, phase: &Phase) {
    detail.push(metric(
        "error_rate",
        phase.failed as f64 / phase.attempted().max(1) as f64,
        "ratio",
    ));
    detail.push(metric("ops", phase.samples.len() as f64, "count"));
    detail.push(metric("throughput_ops_s", phase.throughput(), "1/s"));
    detail.push(metric(
        "p99_ms",
        percentile(&phase.latencies_ms(&[]), 0.99),
        "ms",
    ));
    detail.push(metric("drift_pct", phase.drift_pct(), "%"));
}

fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        eprintln!("non-finite metric value {value}; reported as 0");
        "0".into()
    }
}

fn json_metrics(metrics: &[Metric]) -> String {
    let mut out = String::from("{");
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            json_number(m.value),
            m.unit
        );
    }
    out.push('}');
    out
}

/// Prints the detail line, then the result line the harness reads last.
pub fn print_result(workload: &str, outcome: &Outcome) {
    for problem in &outcome.problems {
        eprintln!("wrong answer: {problem}");
    }
    println!(
        "{{\"workload\": \"{workload}\", \"detail\": {}}}",
        json_metrics(&outcome.detail)
    );
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.problems.is_empty(),
        outcome.attempted,
        outcome.failed,
        json_metrics(&outcome.metrics)
    );
}
