//! Command line of the repo benchmark.
//!
//! ```text
//! dapes-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! dapes-benchmark all [--seed <n>] [--reps <n>] [--quick] [--out <report.json>] [--trace-dir <dir>]
//! dapes-benchmark compare <a.json> <b.json>     (exit 0 all ok, 1 worse, 3 unresolved)
//! ```
//!
//! The first form is what `BENCHMARK.json` runs: one workload, repeated in
//! child processes for `--seconds`, every metric printed by name and unit,
//! the result object last. An unknown workload, flag or value is an error,
//! never a silent default.

use dapes_benchmark::compare::{compare, Verdict};
use dapes_benchmark::host;
use dapes_benchmark::json::{self, Value};
use dapes_benchmark::metrics::{END_TO_END, PER_LAYER};
use dapes_benchmark::report::Report;
use dapes_benchmark::run::{measure, Plan, Rep, WorkloadResult};
use dapes_benchmark::workloads::{run_rep, Scale, Workload};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

const USAGE: &str = "usage:
  dapes-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--quick]
  dapes-benchmark all [--seed <n>] [--reps <n>] [--quick] [--out <report.json>] [--trace-dir <dir>]
  dapes-benchmark compare <a.json> <b.json>
workloads: paper-dense, paper-sparse, paper-baselines, relay-swarm";

/// Exit code for a refused command line or a refused comparison.
const EXIT_USAGE: u8 = 2;
/// Exit code of `compare` when nothing is worse but host noise left some
/// rows unresolved.
const EXIT_UNRESOLVED: u8 = 3;

/// Flags of the form `--name value` plus bare switches, each allowed once.
struct Flags {
    values: Vec<(String, String)>,
    switches: Vec<String>,
}

impl Flags {
    fn parse(args: &[String], valued: &[&str], switches: &[&str]) -> Result<Flags, String> {
        let mut flags = Flags {
            values: Vec::new(),
            switches: Vec::new(),
        };
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            if flags.values.iter().any(|(k, _)| k == arg) || flags.switches.contains(arg) {
                return Err(format!("{arg} given twice"));
            }
            if valued.contains(&arg.as_str()) {
                let value = it.next().ok_or_else(|| format!("{arg} needs a value"))?;
                flags.values.push((arg.clone(), value.clone()));
            } else if switches.contains(&arg.as_str()) {
                flags.switches.push(arg.clone());
            } else {
                return Err(format!("unknown argument {arg:?}"));
            }
        }
        Ok(flags)
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.values
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    fn required(&self, name: &str) -> Result<&str, String> {
        self.get(name).ok_or_else(|| format!("{name} is required"))
    }

    fn has(&self, name: &str) -> bool {
        self.switches.iter().any(|s| s == name)
    }

    fn workload(&self) -> Result<Workload, String> {
        let name = self.required("--workload")?;
        Workload::from_name(name).ok_or_else(|| format!("unknown workload {name:?}"))
    }

    /// Seeds stay below 2^53 so a JSON report holds them exactly.
    fn seed(&self, default: Option<u64>) -> Result<u64, String> {
        let text = match (self.get("--seed"), default) {
            (Some(text), _) => text,
            (None, Some(seed)) => return Ok(seed),
            (None, None) => return Err("--seed is required".into()),
        };
        text.parse::<u64>()
            .ok()
            .filter(|&s| s < 1 << 53)
            .ok_or_else(|| format!("--seed {text:?} is not a whole number below 2^53"))
    }

    fn trace(&self) -> Result<bool, String> {
        match self.required("--trace")? {
            "0" => Ok(false),
            "1" => Ok(true),
            other => Err(format!("--trace {other:?} is neither 0 nor 1")),
        }
    }

    fn scale(&self) -> Scale {
        if self.has("--quick") {
            Scale::Quick
        } else {
            Scale::Full
        }
    }
}

fn print_metric(name: &str, value: f64, unit: &str) {
    println!("{name:<34} {value:>18.6} {unit}");
}

fn print_result(result: &WorkloadResult, traced: bool) {
    println!(
        "# {} — {} untraced repetition(s){}",
        result.name,
        result.untraced.len(),
        if result.traced.is_some() {
            " + 1 traced"
        } else {
            ""
        }
    );
    if traced {
        for ((name, value), m) in result.per_layer().iter().zip(&PER_LAYER) {
            print_metric(name, *value, m.1);
        }
    } else {
        for m in &END_TO_END {
            print_metric(m.name, result.value(m.name), m.unit);
        }
    }
    println!(
        "{:<34} {:>18} (attempted {}, failed {})",
        "sim_fingerprint",
        result.sim_fingerprint(),
        result.attempted(),
        result.failed()
    );
}

/// `--workload … --seed … --seconds … --trace …`: the `BENCHMARK.json` form.
fn drive(args: &[String]) -> Result<ExitCode, String> {
    let flags = Flags::parse(
        args,
        &["--workload", "--seed", "--seconds", "--trace"],
        &["--quick"],
    )?;
    let workload = flags.workload()?;
    let seed = flags.seed(None)?;
    let traced = flags.trace()?;
    let seconds_text = flags.required("--seconds")?;
    let seconds = seconds_text
        .parse::<u32>()
        .ok()
        .filter(|s| (1..=60).contains(s))
        .ok_or_else(|| format!("--seconds {seconds_text:?} is not a whole number from 1 to 60"))?;
    host::check_release_profile()?;

    // A traced run still needs untraced repetitions: the overhead of
    // tracing is the traced wall against their median.
    let plan = Plan {
        min_untraced: if traced { 2 } else { 3 },
        seconds: f64::from(seconds),
        traced,
    };
    let result = measure(workload, flags.scale(), seed, plan, None)?;
    print_result(&result, traced);
    let failures = result.gate_failures();
    for failure in &failures {
        eprintln!("correctness gate: {failure}");
    }
    let metrics: Vec<(String, Value)> = if traced {
        result
            .per_layer()
            .into_iter()
            .zip(&PER_LAYER)
            .map(|((name, value), m)| (name, metric_value(value, m.1)))
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|m| {
                (
                    m.name.to_owned(),
                    metric_value(result.value(m.name), m.unit),
                )
            })
            .collect()
    };
    let line = Value::obj([
        ("correct", Value::from(failures.is_empty())),
        ("attempted", Value::from(result.attempted())),
        ("failed", Value::from(result.failed())),
        ("metrics", Value::Obj(metrics)),
    ]);
    println!("{}", line.to_compact());
    Ok(if failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn metric_value(value: f64, unit: &str) -> Value {
    Value::obj([("value", Value::Num(value)), ("unit", Value::from(unit))])
}

/// `all`: every workload, a report with host facts.
fn all(args: &[String]) -> Result<ExitCode, String> {
    let flags = Flags::parse(
        args,
        &["--seed", "--reps", "--out", "--trace-dir"],
        &["--quick"],
    )?;
    let seed = flags.seed(Some(1))?;
    let reps = match flags.get("--reps") {
        None => 3,
        Some(text) => text
            .parse::<usize>()
            .ok()
            .filter(|&r| r >= 3)
            .ok_or_else(|| format!("--reps {text:?} is not a whole number of at least 3"))?,
    };
    let profile = host::check_release_profile()?;
    let scale = flags.scale();
    let trace_dir = flags.get("--trace-dir").map(PathBuf::from);
    if let Some(dir) = &trace_dir {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    let plan = Plan {
        min_untraced: reps,
        seconds: 0.0,
        traced: true,
    };
    let mut results = Vec::new();
    for workload in Workload::ALL {
        let trace_out = trace_dir
            .as_ref()
            .map(|d| d.join(format!("trace-{}.json", workload.name())));
        let result = measure(workload, scale, seed, plan, trace_out.as_deref())?;
        print_result(&result, false);
        print_result(&result, true);
        for failure in result.gate_failures() {
            eprintln!("correctness gate: {}: {failure}", result.name);
        }
        results.push(result);
    }
    let report = Report::new(scale, seed, host::facts(&profile), results);
    if let Some(out) = flags.get("--out") {
        std::fs::write(out, report.to_json().to_pretty())
            .map_err(|e| format!("cannot write {out}: {e}"))?;
        println!("report written to {out}");
    }
    Ok(if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn read_report(path: &str) -> Result<Report, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    Report::from_json(&json::parse(&text).map_err(|e| format!("{path}: {e}"))?)
        .map_err(|e| format!("{path}: {e}"))
}

/// `compare <a.json> <b.json>`.
fn compare_reports(args: &[String]) -> Result<ExitCode, String> {
    let [a, b] = args else {
        return Err("compare takes exactly two report paths".into());
    };
    let (table, worst) = compare(&read_report(a)?, &read_report(b)?)?;
    print!("{table}");
    Ok(match worst {
        Verdict::Ok => ExitCode::SUCCESS,
        Verdict::Worse => ExitCode::FAILURE,
        Verdict::Unresolved => ExitCode::from(EXIT_UNRESOLVED),
    })
}

/// `rep`: one repetition, in this process. Started by `run::spawn_rep`.
fn rep(args: &[String], process_start: Instant) -> Result<ExitCode, String> {
    let flags = Flags::parse(
        args,
        &[
            "--workload",
            "--seed",
            "--trace",
            "--spawned-at-ns",
            "--trace-out",
        ],
        &["--quick"],
    )?;
    let workload = flags.workload()?;
    let seed = flags.seed(None)?;
    let traced = flags.trace()?;
    // Set-up is counted from when the parent started this process, which
    // `Instant` cannot carry across; the wall clock can, over milliseconds.
    let setup_from = match flags.get("--spawned-at-ns") {
        None => process_start,
        Some(text) => {
            let spawned = text
                .parse::<u64>()
                .map_err(|_| format!("--spawned-at-ns {text:?} is not a whole number"))?;
            let now = SystemTime::now()
                .duration_since(UNIX_EPOCH)
                .map_err(|e| format!("clock is before 1970: {e}"))?;
            let since_spawn = now.saturating_sub(Duration::from_nanos(spawned));
            Instant::now()
                .checked_sub(since_spawn)
                .unwrap_or(process_start)
        }
    };
    let out = run_rep(workload, flags.scale(), seed, traced, setup_from);
    if let (Some(path), Some(trace)) = (flags.get("--trace-out"), out.chrome_trace()) {
        std::fs::write(Path::new(path), trace).map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    println!("{}", Rep::from_output(&out, traced).to_json().to_compact());
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        None => Err("no arguments".to_owned()),
        Some("all") => all(&args[1..]),
        Some("compare") => compare_reports(&args[1..]),
        Some("rep") => rep(&args[1..], process_start),
        Some(_) => drive(&args),
    };
    outcome.unwrap_or_else(|message| {
        eprintln!("dapes-benchmark: {message}\n{USAGE}");
        ExitCode::from(EXIT_USAGE)
    })
}
