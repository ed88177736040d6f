//! Runs one scenario and emits its counters — the simulator's plus the
//! summed peer counters — as a Prometheus text-format dump, the
//! scrape-friendly observability surface next to the JSON reports.
//!
//! ```text
//! cargo run --release -p dapes-bench --bin metrics                 # stdout
//! cargo run ... --bin metrics -- --attack tamper --out run.prom    # file
//! cargo run ... --bin metrics -- --seed 9 --secs 120
//! ```
//!
//! `--attack` selects a cell of the adversarial benchmark (`benign`,
//! `spoof`, `tamper`, `replay`, `flood`); the default is the benign cell,
//! and any other value exits 2, naming the five.
//! The dump is `checkjson`-compatible (`checkjson file.prom`).

use dapes_bench::adversarial::{run_mode, AdversarialParams, AttackMode};
use dapes_bench::cli::{usage, Args};

fn main() {
    let args = Args::from_env(&["--attack", "--seed", "--secs", "--out"], &[]);
    let mode = AttackMode::from_label(args.value("--attack").unwrap_or("benign"))
        .unwrap_or_else(|msg| usage(&format!("--attack: {msg}")));
    let mut params = AdversarialParams::smoke();
    if let Some(seed) = args.parsed("--seed").unwrap_or_else(|e| usage(&e)) {
        params.seed = seed;
    }
    if let Some(secs) = args.parsed("--secs").unwrap_or_else(|e| usage(&e)) {
        params.run_secs = secs;
    }
    let outcome = run_mode(&params, mode);
    eprintln!(
        "metrics: {} cell, completed={}, {} frames on the air",
        outcome.mode.label(),
        outcome.completed,
        outcome.stats.tx_frames
    );
    let dump = outcome.prometheus();
    match args.value("--out") {
        Some(path) => {
            std::fs::write(path, dump).expect("write metrics dump");
            eprintln!("wrote {path}");
        }
        None => print!("{dump}"),
    }
}
