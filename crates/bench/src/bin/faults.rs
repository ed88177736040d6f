//! Fault-injection benchmark: sweeps crash counts × partition durations
//! over one swarm, gates on the recovery invariants and writes
//! `BENCH_faults.json`.
//!
//! ```text
//! cargo run --release -p dapes-bench --bin faults            # dense
//! cargo run --release -p dapes-bench --bin faults -- --quick # CI smoke
//! cargo run ... -- --out BENCH_faults.json --seed 9
//! cargo run ... -- --prom-out BENCH_faults.prom   # Prometheus dump
//! ```
//!
//! The gate (exit 1 on first violation): every transfer completes after
//! the heal, resumed downloaders re-fetch zero held segments, the fault
//! counters account exactly for each cell's plan, every cell's double run
//! is bit-identical, and the sweep exercises each recovery mechanism
//! (salvage resume, partition drops, backoff give-ups) at least once.

use dapes_bench::check::Report;
use dapes_bench::cli::{usage, Args};
use dapes_bench::faults::{run_all, FaultParams};
use dapes_bench::host::HostFacts;

fn main() {
    let args = Args::from_env(&["--out", "--prom-out", "--seed"], &["--quick"]);
    let mut params = if args.has("--quick") {
        FaultParams::smoke()
    } else {
        FaultParams::dense()
    };
    if let Some(seed) = args.parsed("--seed").unwrap_or_else(|e| usage(&e)) {
        params.seed = seed;
    }
    eprintln!(
        "faults: seed {}, {} files x {} B, crash at {:.1} s, cut at {:.1} s",
        params.seed,
        params.files,
        params.file_size,
        params.crash_at_us as f64 / 1e6,
        params.cut_at_us as f64 / 1e6,
    );
    let (seed, files, size) = (params.seed, params.files, params.file_size);
    let report = Report::new(HostFacts::probe(), seed, files, size, run_all(&params));
    // The last cell sweeps the most faults (max crashes + longest
    // partition), so its counters are the richest dump.
    let richest = report
        .cells
        .last()
        .expect("the sweep ran at least one cell");
    report.publish(&args, &richest.prometheus());
}
