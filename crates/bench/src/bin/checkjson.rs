//! Checks committed/generated `BENCH_*.json` reports: each is decoded into
//! the outcomes of the bin that wrote it and held to that bin's own gate,
//! and `--summary` prints its step-summary table. Files ending in `.prom`
//! are validated as Prometheus text-format metric dumps instead.
//!
//! ```text
//! cargo run -p dapes-bench --bin checkjson -- BENCH_adversarial.json BENCH_adversarial.prom
//! cargo run -p dapes-bench --bin checkjson -- --summary BENCH_faults.json
//! ```
//!
//! The actual checks live in [`dapes_bench::check`] (unit-tested there);
//! this binary only does argument handling and exit codes. Exits non-zero
//! on the first violation, so a malformed or hand-mangled report fails CI.

use dapes_bench::check::{summary, validate_prometheus};
use dapes_bench::json::parse;

fn fail(file: &str, msg: &str) -> ! {
    eprintln!("checkjson: {file}: {msg}");
    std::process::exit(1);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let want_summary = args.iter().any(|a| a == "--summary");
    if let Some(flag) = args
        .iter()
        .find(|a| a.starts_with("--") && *a != "--summary")
    {
        eprintln!("unknown argument {flag:?} (accepted: --summary)");
        std::process::exit(2);
    }
    let files: Vec<&String> = args.iter().filter(|a| !a.starts_with("--")).collect();
    if files.is_empty() {
        eprintln!("usage: checkjson [--summary] <BENCH_*.json>...");
        std::process::exit(2);
    }
    for file in files {
        let text = std::fs::read_to_string(file)
            .unwrap_or_else(|e| fail(file, &format!("unreadable: {e}")));
        if file.ends_with(".prom") {
            if let Err(e) = validate_prometheus(&text) {
                fail(file, &e);
            }
            eprintln!("checkjson: {file}: OK (prometheus)");
            continue;
        }
        let doc = parse(&text).unwrap_or_else(|e| fail(file, &format!("invalid JSON: {e}")));
        let table = summary(&doc).unwrap_or_else(|e| fail(file, &e));
        if want_summary {
            println!("{table}");
        } else {
            eprintln!("checkjson: {file}: OK");
        }
    }
}
