//! Scheduler throughput benchmark: runs the timer-heavy advert swarm on the
//! engine's one control-plane profile at each requested core count and
//! writes `BENCH_sched.json`, host facts included.
//!
//! ```text
//! cargo run --release -p dapes-bench --bin sched            # dense (2,400 nodes)
//! cargo run --release -p dapes-bench --bin sched -- --quick # CI smoke
//! cargo run ... -- --out path/to/BENCH_sched.json
//! cargo run ... -- --cores 1,2                 # core counts to run
//! cargo run ... -- --nodes 100000 --field 5810 # scale the swarm (same density)
//! cargo run ... -- --min-shard-speedup 0.3     # gate the sharded speedup
//! cargo run ... -- --prom-out BENCH_sched.prom # Prometheus dump
//! ```
//!
//! The first core count is always `1`, the sequential reference. Without
//! `--cores` the axis is the powers of two up to the host's logical cores:
//! a shard count beyond that measures oversubscription, and `checkjson`
//! rejects a report that contains one.

use dapes_bench::host::HostFacts;
use dapes_bench::sched::{render_report, run_sched, shard_speedup, SchedParams, SchedResult};
use dapes_core::stats::PeerStats;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let arg = |flag: &str| args.windows(2).find(|w| w[0] == flag).map(|w| w[1].clone());
    let out = arg("--out").unwrap_or_else(|| "BENCH_sched.json".to_owned());
    let mut params = if quick {
        SchedParams::smoke()
    } else {
        SchedParams::dense()
    };
    if let Some(n) = arg("--nodes") {
        params.nodes = n.parse().expect("--nodes");
    }
    if let Some(f) = arg("--field") {
        params.field = f.parse().expect("--field");
    }
    if let Some(r) = arg("--rounds") {
        params.rounds = r.parse().expect("--rounds");
    }
    if let Some(p) = arg("--period-ms") {
        params.advert_period_ms = p.parse().expect("--period-ms");
    }
    if let Some(t) = arg("--tick-ms") {
        params.tick_ms = t.parse().expect("--tick-ms");
    }
    let host = HostFacts::probe();
    let cores_list: Vec<usize> = match arg("--cores") {
        Some(v) => v
            .split(',')
            .map(|c| c.trim().parse().expect("--cores"))
            .collect(),
        None => std::iter::successors(Some(1usize), |c| Some(c * 2))
            .take_while(|&c| c <= host.logical_cores)
            .collect(),
    };
    assert_eq!(
        cores_list.first(),
        Some(&1),
        "--cores must start at 1 (the sequential reference run)"
    );
    let min_shard_speedup: Option<f64> =
        arg("--min-shard-speedup").map(|v| v.parse().expect("--min-shard-speedup"));
    eprintln!(
        "perf_sched: {} nodes, {} rounds each, field {} m, range {} m, tick {} ms, cores {:?} \
         on {} logical ({})",
        params.nodes,
        params.rounds,
        params.field,
        params.range,
        params.tick_ms,
        cores_list,
        host.logical_cores,
        host.cpu_model,
    );

    // Warm up at small scale so no timed run pays first-touch costs, then
    // take each core count's best repetition.
    let warmup = SchedParams {
        nodes: params.nodes.min(60),
        rounds: 2,
        field: params.field.min(300.0),
        ..params
    };
    let _ = run_sched(&warmup, 1);
    let reps = if params.nodes > 20_000 {
        1
    } else if quick {
        2
    } else {
        3
    };
    let mut axis: Vec<SchedResult> = Vec::new();
    for &cores in &cores_list {
        let best = (0..reps)
            .map(|_| run_sched(&params, cores))
            .reduce(|a, b| if a.wall_secs <= b.wall_secs { a } else { b })
            .expect("at least one repetition");
        eprintln!(
            "  cores {:<2}: {:>9.0} events/s  ({:.2} s wall, {} popped / {} sim events, {} peeked \
             ({} fib-drop, {} cbp-hit, {} relay-patched) / {} decoded, pool {}h/{}m, \
             {} border-exported / {} injected, {} windows)",
            best.cores,
            best.events_per_sec,
            best.wall_secs,
            best.events,
            best.sim_events,
            best.frames_peek_resolved,
            best.peek_fib_drops,
            best.peek_prefix_hits,
            best.frames_relay_patched,
            best.full_decodes,
            best.cmd_pool_hits,
            best.cmd_pool_misses,
            best.border_tx_exported,
            best.border_rx_injected,
            best.sync_windows,
        );
        axis.push(best);
    }
    let speedup = shard_speedup(&axis);
    if axis.len() > 1 {
        eprintln!("  shard speedup: {speedup:.2}x events/s over the sequential run");
    }

    std::fs::write(&out, render_report(&host, &params, &axis)).expect("write BENCH_sched.json");
    eprintln!("wrote {out}");
    if let Some(path) = arg("--prom-out") {
        // The deepest sharded run. The advert swarm runs bench stacks, not
        // DAPES peers, so the peer section reports zeros.
        let r = axis.last().expect("at least one run");
        let dump = dapes_bench::prom::export(&r.stats, &PeerStats::default());
        std::fs::write(&path, dump).expect("write prometheus dump");
        eprintln!("wrote {path} (cores {})", r.cores);
    }

    if let Some(min) = min_shard_speedup {
        if speedup < min {
            eprintln!(
                "REGRESSION: shard speedup {speedup:.2}x events/s is below the \
                 required {min:.2}x over the sequential run"
            );
            std::process::exit(1);
        }
    }
}
