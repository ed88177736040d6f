//! Scheduler throughput benchmark: runs the timer-heavy advert swarm on the
//! engine and writes `BENCH_sched.json`, host facts included.
//!
//! ```text
//! cargo run --release -p dapes-bench --bin sched            # dense (2,400 nodes)
//! cargo run --release -p dapes-bench --bin sched -- --quick # CI smoke
//! cargo run ... -- --out path/to/BENCH_sched.json
//! cargo run ... -- --nodes 100000 --field 5810 # scale the swarm (same density)
//! cargo run ... -- --prom-out BENCH_sched.prom # Prometheus dump
//! ```
//!
//! Any other argument exits 2, naming the accepted flags.

use dapes_bench::cli::Args;
use dapes_bench::host::HostFacts;
use dapes_bench::sched::{render_report, run_sched, SchedParams};
use dapes_core::stats::PeerStats;

fn main() {
    let args = Args::from_env(
        &[
            "--out",
            "--prom-out",
            "--nodes",
            "--field",
            "--rounds",
            "--period-ms",
            "--tick-ms",
        ],
        &["--quick"],
    );
    let quick = args.has("--quick");
    let out = args.value("--out").unwrap_or("BENCH_sched.json");
    let mut params = if quick {
        SchedParams::smoke()
    } else {
        SchedParams::dense()
    };
    if let Some(n) = args.value("--nodes") {
        params.nodes = n.parse().expect("--nodes");
    }
    if let Some(f) = args.value("--field") {
        params.field = f.parse().expect("--field");
    }
    if let Some(r) = args.value("--rounds") {
        params.rounds = r.parse().expect("--rounds");
    }
    if let Some(p) = args.value("--period-ms") {
        params.advert_period_ms = p.parse().expect("--period-ms");
    }
    if let Some(t) = args.value("--tick-ms") {
        params.tick_ms = t.parse().expect("--tick-ms");
    }
    let host = HostFacts::probe();
    eprintln!(
        "perf_sched: {} nodes, {} rounds each, field {} m, range {} m, tick {} ms on {}",
        params.nodes, params.rounds, params.field, params.range, params.tick_ms, host.cpu_model,
    );

    // Warm up at small scale so the timed runs pay no first-touch costs,
    // then take the best repetition.
    let warmup = SchedParams {
        nodes: params.nodes.min(60),
        rounds: 2,
        field: params.field.min(300.0),
        ..params
    };
    let _ = run_sched(&warmup);
    let reps = if params.nodes > 20_000 {
        1
    } else if quick {
        2
    } else {
        3
    };
    let best = (0..reps)
        .map(|_| run_sched(&params))
        .reduce(|a, b| if a.wall_secs <= b.wall_secs { a } else { b })
        .expect("at least one repetition");
    eprintln!(
        "  {:>9.0} events/s  ({:.2} s wall, {} popped / {} sim events, {} peeked \
         ({} fib-drop, {} cbp-hit, {} relay-patched) / {} decoded, pool {}h/{}m)",
        best.events_per_sec,
        best.wall_secs,
        best.stats.event_dispatches,
        best.sim_events,
        best.frames_peek_resolved,
        best.peek_fib_drops,
        best.peek_prefix_hits,
        best.frames_relay_patched,
        best.full_decodes,
        best.stats.cmd_pool_hits,
        best.stats.cmd_pool_misses,
    );

    std::fs::write(out, render_report(&host, &params, &best)).expect("write BENCH_sched.json");
    eprintln!("wrote {out}");
    if let Some(path) = args.value("--prom-out") {
        // The advert swarm runs bench stacks, not DAPES peers, so the peer
        // section reports zeros.
        let dump = dapes_bench::prom::export(&best.stats, &PeerStats::default());
        std::fs::write(path, dump).expect("write prometheus dump");
        eprintln!("wrote {path}");
    }
}
