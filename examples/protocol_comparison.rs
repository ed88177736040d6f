//! A miniature Fig. 10: DAPES vs Bithoc vs Ekta on the same mobile swarm.
//!
//! Runs one seeded trial of each protocol on a scaled-down version of the
//! paper's 44-node scenario and prints download time and transmission
//! counts. For the full sweeps use the bench driver
//! (`cargo run --release -p dapes-bench --bin all -- --only fig10a`).
//!
//! Run with `cargo run --release --example protocol_comparison`.

use dapes_bench::{run_trial, Profile, Protocol};

fn main() {
    // The paper's full 44-node topology with the quick-profile workload
    // (one seeded trial per protocol; `all --only fig10a|fig10b` runs the
    // sweeps).
    let mut params = Profile::Quick.base_params();
    params.range = 60.0;
    params.seed = 21;
    println!(
        "{} nodes, collection = {} x {} B, range {} m\n",
        params.total_nodes(),
        params.n_files,
        params.file_size,
        params.range
    );
    println!(
        "{:<8} {:>10} {:>12} {:>10} {:>9}",
        "protocol", "time(s)", "complete", "frames", "fwd-acc"
    );
    for (name, protocol) in [
        ("DAPES", Protocol::Dapes(Box::default())),
        ("Bithoc", Protocol::Bithoc),
        ("Ekta", Protocol::Ekta),
    ] {
        let r = run_trial(&protocol, &params);
        println!(
            "{:<8} {:>10.1} {:>9}/{:<2} {:>10} {:>9}",
            name,
            r.avg_download_time_s,
            r.completed,
            r.downloaders,
            r.transmissions,
            r.forward_accuracy
                .map(|a| format!("{:.0}%", a * 100.0))
                .unwrap_or_else(|| "-".into()),
        );
    }
    println!("\npaper: DAPES downloads 15-33% faster with 50-71% fewer transmissions");
}
