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

use dapes_bench::adversarial::{render_report, run_all, AdversarialParams, AttackMode};
use dapes_bench::cli::Args;
use dapes_bench::host::HostFacts;

fn main() {
    let args = Args::from_env(&["--out", "--prom-out", "--seed"], &["--quick"]);
    let out = args.value("--out").unwrap_or("BENCH_adversarial.json");
    let mut params = if args.has("--quick") {
        AdversarialParams::smoke()
    } else {
        AdversarialParams::dense()
    };
    if let Some(s) = args.value("--seed") {
        params.seed = s.parse().expect("--seed");
    }
    eprintln!(
        "adversarial: seed {}, {} files x {} B, {} s horizon",
        params.seed, params.files, params.file_size, params.run_secs
    );

    let outcomes = run_all(&params);
    for o in &outcomes {
        eprintln!(
            "  {:<7}: done={} at {:>6.2} s, {:>5} frames ({:>4.1}% overhead), \
             hostile {:>4} delivered / {:>4} sent, rejected bad-sig {} replay {}/{} \
             tamper {} flood {}, expired {}, exact={}",
            o.mode.label(),
            o.completed,
            o.completion_secs,
            o.stats.tx_frames,
            o.overhead_ratio * 100.0,
            o.hostile_delivered_total(),
            o.hostile_sent,
            o.peers.adverts_rejected_bad_sig,
            o.peers.adverts_rejected_replay,
            o.peers.interests_rejected_replay,
            o.peers.segments_rejected_tamper,
            o.peers.flood_frames_dropped,
            o.peers.peers_expired,
            o.exact_accounting,
        );
    }

    let json = render_report(&HostFacts::probe(), &params, &outcomes);
    std::fs::write(out, &json).expect("write BENCH_adversarial.json");
    eprintln!("wrote {out}");
    if let Some(prom) = args.value("--prom-out") {
        let benign = outcomes
            .iter()
            .find(|o| o.mode == AttackMode::Benign)
            .expect("benign cell always runs");
        std::fs::write(prom, benign.prometheus()).expect("write prometheus dump");
        eprintln!("wrote {prom}");
    }

    if let Err(msg) = dapes_bench::adversarial::gate(&outcomes) {
        eprintln!("GATE VIOLATION: {msg}");
        std::process::exit(1);
    }
    eprintln!("gate: all defense invariants hold");
}
