//! Adversarial benchmark: runs the benign control cell plus the four
//! attack cells (spoof / tamper / replay / flood), gates on the defense
//! invariants and writes `BENCH_adversarial.json` plus a Prometheus
//! text-format dump of the benign cell's counters (the simulator's and the
//! summed peer counters).
//!
//! ```text
//! cargo run --release -p dapes-bench --bin adversarial            # dense
//! cargo run --release -p dapes-bench --bin adversarial -- --quick # CI smoke
//! cargo run ... -- --out BENCH_adversarial.json --prom-out BENCH_adversarial.prom
//! ```
//!
//! The gate (exit 1 on first violation): every cell completes its
//! transfer, every attack cell's rejection counters equal the hostile
//! frames actually delivered, no attack slows completion beyond
//! [`MAX_SLOWDOWN`]× benign, the stale-peer sweep fires everywhere, and
//! the benign cell shows zero hostile traffic and zero rejections.
//!
//! [`MAX_SLOWDOWN`]: dapes_bench::adversarial::MAX_SLOWDOWN

use dapes_bench::adversarial::{run_all, AdversarialParams};
use dapes_bench::check::Report;
use dapes_bench::cli::{usage, Args};
use dapes_bench::host::HostFacts;

fn main() {
    let args = Args::from_env(&["--out", "--prom-out", "--seed"], &["--quick"]);
    let mut params = if args.has("--quick") {
        AdversarialParams::smoke()
    } else {
        AdversarialParams::dense()
    };
    if let Some(seed) = args.parsed("--seed").unwrap_or_else(|e| usage(&e)) {
        params.seed = seed;
    }
    eprintln!(
        "adversarial: seed {}, {} files x {} B, {} s horizon",
        params.seed, params.files, params.file_size, params.run_secs
    );
    let (seed, files, size) = (params.seed, params.files, params.file_size);
    let report = Report::new(HostFacts::probe(), seed, files, size, run_all(&params));
    // The first cell is the benign control.
    report.publish(&args, &report.cells[0].prometheus());
}
