//! Runs the figures and table of the paper's evaluation in paper order.
//!
//! ```text
//! cargo run --release -p dapes-bench --bin all                      # every experiment, quick
//! cargo run --release -p dapes-bench --bin all -- --only fig9a      # one experiment
//! cargo run --release -p dapes-bench --bin all -- --profile paper   # the paper's workload
//! ```
//!
//! An unknown argument, profile or experiment name exits 2, naming what is
//! accepted.
fn main() {
    let (profile, experiments) = dapes_bench::figures::select(std::env::args().skip(1))
        .unwrap_or_else(|msg| {
            eprintln!("{msg}");
            std::process::exit(2);
        });
    for (name, run) in experiments {
        println!("\n########## {name} ##########");
        run(profile);
    }
}
