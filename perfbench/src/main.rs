//! The repository benchmark: four closed-loop workloads driven through the
//! public `CrowdDb` / `RemoteCrowdDb` API from one process.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <read_mix|expand|write_mix|remote_read> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Inputs come only from `--seed`.  With `--trace 0` the run measures for
//! `--seconds` and reports the end-to-end metrics; with `--trace 1` it
//! measures half the time untraced and half traced, and reports the
//! per-layer metrics and the tracing overhead.  Every answer is checked;
//! a wrong one makes the run incorrect.  The last line of standard output
//! is the result object; the line before it holds the workload's detail
//! metrics.  See `perfbench/README.md` for the workloads and metrics.

mod crowd;
mod expand;
mod fixtures;
mod harness;
mod layers;
mod read_mix;
mod remote_read;
mod trace;
mod write_mix;

use std::process::ExitCode;

use harness::{print_result, Args};

/// Where runs write their temporary databases and span dumps, relative to
/// the directory the benchmark runs from.
pub const OUT_DIR: &str = ".bench_out";

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(error) => {
            eprintln!("perfbench: {error}");
            return ExitCode::from(2);
        }
    };
    let outcome = match args.workload.as_str() {
        "read_mix" => read_mix::run(&args),
        "expand" => expand::run(&args),
        "write_mix" => write_mix::run(&args),
        "remote_read" => remote_read::run(&args),
        other => Err(format!("unknown workload {other}")),
    };
    match outcome {
        Ok(outcome) if outcome.attempted > 0 => {
            print_result(&args.workload, &outcome);
            ExitCode::SUCCESS
        }
        Ok(_) => {
            eprintln!("perfbench: {} attempted no operation", args.workload);
            ExitCode::FAILURE
        }
        Err(error) => {
            eprintln!("perfbench: {}: {error}", args.workload);
            ExitCode::FAILURE
        }
    }
}
