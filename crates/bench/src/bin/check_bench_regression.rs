//! Bench-regression guard: compares the deterministic *cost* fields of the
//! smoke-bench reports (`BENCH_policy.json`, `BENCH_stream.json`,
//! `BENCH_shard.json`, `BENCH_server.json`, `BENCH_overload.json`)
//! against the baselines committed under `ci/`, and fails on any drift.
//!
//! The guarded fields are the seeded, machine-independent outputs of the
//! policy engine — crowd dollars per mode and missing-cell counts — which
//! is exactly the paper's cost model: an accidental change that makes a
//! query pay the crowd more (or leave more holes) than the committed
//! baseline is a regression even when every test still passes.  The flaky
//! wall-clock fields (`*_ms`) are deliberately ignored.
//!
//! Run after the smoke benches, from the workspace root:
//!
//! ```text
//! cargo bench -p bench --bench policy_modes -- --test
//! cargo bench -p bench --bench stream_latency -- --test
//! cargo run -p bench --bin check_bench_regression
//! ```
//!
//! To bless an intentional cost change, copy the fresh reports over the
//! baselines (the failure message prints the exact command).

use std::path::PathBuf;
use std::process::ExitCode;

/// The deterministic fields guarded per report file.
const POLICY_FIELDS: &[&str] = &[
    "items",
    "full_cost_dollars",
    "full_accuracy",
    "adaptive_cost_dollars",
    "adaptive_accuracy",
    "adaptive_classified_cells",
    "adaptive_flat_cost_dollars",
    "adaptive_flat_accuracy",
    "adaptive_flat_classified_cells",
    "best_effort_budget_dollars",
    "best_effort_cost_dollars",
    "best_effort_missing_cells",
    "cache_only_warm_cost_dollars",
];
const STREAM_FIELDS: &[&str] = &[
    "items",
    "budget_dollars",
    "full_cost_dollars",
    "full_missing_cells",
    "best_effort_cost_dollars",
    "best_effort_missing_cells",
];
const SERVER_FIELDS: &[&str] = &[
    "clients",
    "items",
    "server_crowd_rounds",
    "server_cold_cost_dollars",
    "server_warm_cost_dollars",
    "server_scheduler_jobs_per_warm_query",
    "server_frame_bytes_per_warm_query",
];
const OVERLOAD_FIELDS: &[&str] = &[
    "items",
    "overload_admitted",
    "overload_degraded",
    "overload_shed",
    "overload_dollars_charged",
    "overload_full_cost_dollars",
    "overload_degraded_cost_dollars",
];
const SHARD_FIELDS: &[&str] = &[
    "threads",
    "tables",
    "rows_written",
    "archive_rows_per_table",
    "expansion_items_per_table",
    "expansion_cost_dollars",
    "expansion_missing_cells",
    "count_partition",
    "giant_rows_partition",
    "rows_written_partition",
    "point_read_rows_scanned_partition",
];

/// Numeric comparisons use an epsilon: the reports print floats with fixed
/// precision, so equality up to rounding noise is the contract.
const EPSILON: f64 = 1e-6;

/// Extracts the numeric value of `"key": <number>` from a (flat, trusted,
/// self-emitted) JSON report.  A full JSON parser would be overkill for
/// the two files this binary audits — both are written by our own benches
/// with unique key names.
fn field(json: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\"");
    let at = json.find(&needle)?;
    let rest = &json[at + needle.len()..];
    let rest = rest.trim_start().strip_prefix(':')?.trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == '+' || c == 'e'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn workspace_root() -> PathBuf {
    // CARGO_MANIFEST_DIR is crates/bench; the reports and baselines live
    // relative to the workspace root, two levels up.
    let mut root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    root.pop();
    root.pop();
    root
}

fn compare(report: &str, baseline: &str, fields: &[&str]) -> Result<(), Vec<String>> {
    let root = workspace_root();
    let report_path = root.join(report);
    let baseline_path = root.join("ci").join(baseline);
    let fresh = match std::fs::read_to_string(&report_path) {
        Ok(s) => s,
        Err(e) => return Err(vec![format!("cannot read {}: {e}", report_path.display())]),
    };
    let committed = match std::fs::read_to_string(&baseline_path) {
        Ok(s) => s,
        Err(e) => {
            return Err(vec![format!(
                "cannot read baseline {}: {e}",
                baseline_path.display()
            )])
        }
    };
    let mut drifts = Vec::new();
    for key in fields {
        match (field(&committed, key), field(&fresh, key)) {
            (Some(want), Some(got)) if (want - got).abs() <= EPSILON => {}
            (Some(want), Some(got)) => drifts.push(format!(
                "{report}: {key} drifted from baseline {want} to {got}"
            )),
            (None, _) => drifts.push(format!("{baseline}: baseline is missing field {key}")),
            (_, None) => drifts.push(format!("{report}: report is missing field {key}")),
        }
    }
    if drifts.is_empty() {
        Ok(())
    } else {
        Err(drifts)
    }
}

fn main() -> ExitCode {
    let checks = [
        (
            "BENCH_policy.json",
            "BENCH_policy.baseline.json",
            POLICY_FIELDS,
        ),
        (
            "BENCH_stream.json",
            "BENCH_stream.baseline.json",
            STREAM_FIELDS,
        ),
        (
            "BENCH_shard.json",
            "BENCH_shard.baseline.json",
            SHARD_FIELDS,
        ),
        (
            "BENCH_server.json",
            "BENCH_server.baseline.json",
            SERVER_FIELDS,
        ),
        (
            "BENCH_overload.json",
            "BENCH_overload.baseline.json",
            OVERLOAD_FIELDS,
        ),
    ];
    let mut failed = false;
    for (report, baseline, fields) in checks {
        match compare(report, baseline, fields) {
            Ok(()) => println!("ok: {report} matches ci/{baseline} on {fields:?}"),
            Err(drifts) => {
                failed = true;
                for drift in drifts {
                    eprintln!("bench regression: {drift}");
                }
                eprintln!(
                    "  if the cost change is intentional, re-bless with:\n  cp {report} ci/{baseline}"
                );
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::field;

    #[test]
    fn extracts_flat_and_nested_numbers() {
        let json = r#"{ "items": 100, "full_cost_dollars": 2.0000,
                        "best_effort": { "budget_dollars": 20.0000, "first_row_ms": 0.2 } }"#;
        assert_eq!(field(json, "items"), Some(100.0));
        assert_eq!(field(json, "full_cost_dollars"), Some(2.0));
        assert_eq!(field(json, "budget_dollars"), Some(20.0));
        assert_eq!(field(json, "missing"), None);
    }
}
