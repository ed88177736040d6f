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

use dapes_bench::cli::Args;
use dapes_bench::faults::{gate, render_report, run_all, FaultParams};
use dapes_bench::host::HostFacts;

fn main() {
    let args = Args::from_env(&["--out", "--prom-out", "--seed"], &["--quick"]);
    let out = args.value("--out").unwrap_or("BENCH_faults.json");
    let mut params = if args.has("--quick") {
        FaultParams::smoke()
    } else {
        FaultParams::dense()
    };
    if let Some(s) = args.value("--seed") {
        params.seed = s.parse().expect("--seed");
    }
    eprintln!(
        "faults: seed {}, {} files x {} B, crash at {:.1} s, cut at {:.1} s",
        params.seed,
        params.files,
        params.file_size,
        params.crash_at_us as f64 / 1e6,
        params.cut_at_us as f64 / 1e6,
    );

    let outcomes = run_all(&params);
    for o in &outcomes {
        eprintln!(
            "  {:<13}: done={} at {:>6.2} s, {:>5} frames, crashes {}/{} restarts, \
             {:>4} part-drops, retx {:>3} (gave up {:>2}), resumed-skip {:>3}, \
             refetch {}, stale {}, deterministic={}",
            o.label,
            o.completed,
            o.completion_secs,
            o.stats.tx_frames,
            o.stats.node_crashes,
            o.stats.node_restarts,
            o.stats.partition_drops,
            o.peers.retransmissions,
            o.peers.retx_give_ups,
            o.peers.resumed_segments_skipped,
            o.peers.resumed_refetch,
            o.stats.stale_events_suppressed,
            o.deterministic,
        );
    }

    let json = render_report(&HostFacts::probe(), &params, &outcomes);
    std::fs::write(out, &json).expect("write BENCH_faults.json");
    eprintln!("wrote {out}");
    if let Some(path) = args.value("--prom-out") {
        // The last cell sweeps the most faults (max crashes + longest
        // partition), so its counters are the richest dump.
        let cell = outcomes.last().expect("the sweep ran at least one cell");
        std::fs::write(path, cell.prometheus()).expect("write prometheus dump");
        eprintln!("wrote {path} ({} cell)", cell.label);
    }

    if let Err(msg) = gate(&outcomes) {
        eprintln!("GATE VIOLATION: {msg}");
        std::process::exit(1);
    }
    eprintln!("gate: all recovery invariants hold");
}
