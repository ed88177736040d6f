//! Content Store benchmark binary: sweeps eviction policy × memory
//! budget over a chunked-file corpus under Zipf Interest load, gates on
//! the determinism and accounting invariants and writes `BENCH_cs.json`.
//!
//! ```text
//! cargo run --release -p dapes-bench --bin cs            # dense (1.2M objects)
//! cargo run --release -p dapes-bench --bin cs -- --quick # CI smoke
//! cargo run ... -- --out BENCH_cs.json --seed 42
//! cargo run ... -- --prom-out BENCH_cs.prom   # Prometheus dump
//! ```
//!
//! The gate (exit 1 on first violation): the FIFO wire-arena trace is
//! bit-identical to the legacy-table trace, every cell reproduces itself
//! on a second run, every store passes its exact-accounting audit, hit
//! and miss counters decompose lookups, and a full-size budget serves
//! every Interest from cache.

use dapes_bench::cli::Args;
use dapes_bench::cs::{gate, render_report, run_all, CsParams};

fn main() {
    let args = Args::from_env(&["--out", "--prom-out", "--seed"], &["--quick"]);
    let out = args.value("--out").unwrap_or("BENCH_cs.json");
    let mut params = if args.has("--quick") {
        CsParams::smoke()
    } else {
        CsParams::dense()
    };
    if let Some(s) = args.value("--seed") {
        params.seed = s.parse().expect("--seed");
    }
    eprintln!(
        "cs: seed {}, {} files x {} chunks x {} B = {} objects, {} Zipf({}) Interests",
        params.seed,
        params.files,
        params.chunks_per_file,
        params.chunk_size,
        params.objects(),
        params.interests,
        params.zipf_s,
    );

    let run = run_all(&params);
    eprintln!(
        "  trace equivalence: wire {:#018x} vs legacy {:#018x} ({})",
        run.trace_fnv_wire,
        run.trace_fnv_legacy,
        if run.fifo_trace_match() {
            "match"
        } else {
            "DIVERGED"
        },
    );
    for c in &run.cells {
        eprintln!(
            "  {:<5} @ {:>5.1}% ({:>11} B): hit rate {:.4}, {:>8} hits / {:>8} misses, \
             {:>8} evictions, {:>7} resident ({} B), fnv {:#018x}, det={} audit={}",
            c.policy.label(),
            c.budget_frac * 100.0,
            c.budget_bytes,
            c.hit_rate,
            c.stats.hits,
            c.stats.misses,
            c.stats.evictions,
            c.resident_entries,
            c.resident_bytes,
            c.trace_fnv,
            c.deterministic,
            c.audit_clean,
        );
    }

    let json = render_report(&params, &run);
    std::fs::write(out, &json).expect("write BENCH_cs.json");
    eprintln!("wrote {out}");
    if let Some(path) = args.value("--prom-out") {
        // The store microbench has no simulated world or DAPES peers, so
        // the shared sections report zeros; the labeled `dapes_cs_*`
        // samples carry the sweep.
        let dump = format!(
            "{}{}",
            dapes_bench::prom::export(
                &dapes_netsim::stats::Stats::new(0),
                &dapes_core::stats::PeerStats::default(),
            ),
            dapes_bench::prom::cs_section(&run)
        );
        std::fs::write(path, dump).expect("write prometheus dump");
        eprintln!("wrote {path}");
    }

    if let Err(msg) = gate(&run) {
        eprintln!("GATE VIOLATION: {msg}");
        std::process::exit(1);
    }
    eprintln!("gate: trace equivalence, determinism and accounting hold");
}
