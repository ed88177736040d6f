//! Self-tests of the benchmark at `--quick` scale: same structure as the
//! full workloads, about a second each.

use dapes_benchmark::compare::{compare, Verdict};
use dapes_benchmark::json::{self, Value};
use dapes_benchmark::metrics::{END_TO_END, PER_LAYER};
use dapes_benchmark::report::Report;
use dapes_benchmark::run::{Rep, WorkloadResult};
use dapes_benchmark::trace::{Boundary, Traced, Tracer};
use dapes_benchmark::workloads::{run_rep, Scale, Workload};
use dapes_netsim::prelude::*;
use std::any::Any;
use std::path::PathBuf;
use std::process::Command;
use std::time::Instant;

fn quick_rep(workload: Workload, seed: u64, traced: bool) -> Rep {
    let out = run_rep(workload, Scale::Quick, seed, traced, Instant::now());
    assert_eq!(
        out.gate_failures,
        Vec::<String>::new(),
        "{} seed {seed}: correctness gate",
        workload.name()
    );
    Rep::from_output(&out, traced)
}

fn simulated(rep: &Rep) -> Vec<(String, u64)> {
    rep.end_to_end
        .iter()
        .filter(|(name, _)| END_TO_END.iter().any(|m| m.name == name && m.simulated))
        .map(|(name, value)| (name.clone(), value.to_bits()))
        .collect()
}

#[test]
fn same_seed_repeats_exactly_traced_or_not_and_another_seed_does_not() {
    for workload in Workload::ALL {
        let a = quick_rep(workload, 1, false);
        let b = quick_rep(workload, 1, false);
        let traced = quick_rep(workload, 1, true);
        let other = quick_rep(workload, 2, false);
        assert_eq!(a.sim_fingerprint, b.sim_fingerprint, "{}", workload.name());
        assert_eq!(simulated(&a), simulated(&b), "{}", workload.name());
        assert_eq!(
            a.sim_fingerprint,
            traced.sim_fingerprint,
            "{}: the wrapper must be trace-neutral",
            workload.name()
        );
        assert_eq!(simulated(&a), simulated(&traced), "{}", workload.name());
        assert_ne!(
            a.sim_fingerprint,
            other.sim_fingerprint,
            "{}: another seed must give another run",
            workload.name()
        );
        assert_eq!(a.failed, 0, "{}: no operation may fail", workload.name());
        assert!(a.attempted > 0);
    }
}

#[test]
fn every_workload_reports_every_metric_exactly_once_and_no_end_to_end_metric_is_zero() {
    for workload in Workload::ALL {
        let traced = quick_rep(workload, 3, true);
        let names: Vec<&str> = traced.end_to_end.iter().map(|(n, _)| n.as_str()).collect();
        let expected: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        assert_eq!(names, expected, "{}", workload.name());
        for (name, value) in &traced.end_to_end {
            assert!(
                value.is_finite() && *value > 0.0,
                "{} {name} = {value}",
                workload.name()
            );
        }
        let names: Vec<&str> = traced.per_layer.iter().map(|(n, _)| n.as_str()).collect();
        let expected: Vec<&str> = PER_LAYER.iter().map(|m| m.0).collect();
        assert_eq!(names, expected, "{}", workload.name());
        assert!(traced.per_layer.iter().all(|(_, v)| v.is_finite()));

        let layer = |name: &str| {
            traced
                .per_layer
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| *v)
                .unwrap_or_else(|| panic!("{name} missing"))
        };
        // The control: a layer a workload does not run reports nothing.
        let core_s = layer("core.on_frame_s") + layer("core.on_timer_s");
        let runs_core = matches!(workload, Workload::PaperDense | Workload::PaperSparse);
        assert_eq!(core_s > 0.0, runs_core, "{}", workload.name());
        assert_eq!(
            layer("crypto.sha256_mb_per_s") > 0.0,
            runs_core,
            "{}",
            workload.name()
        );
        assert_eq!(
            layer("baselines.ekta.wall_s") > 0.0,
            workload == Workload::PaperBaselines
        );
        assert_eq!(
            layer("ndn.forwarder_calls") > 0.0,
            workload == Workload::RelaySwarm
        );
        assert!(layer("netsim.self_s") > 0.0, "{}", workload.name());
        assert!(layer("trace.spans") > 0.0, "{}", workload.name());
    }
    let mut unique: Vec<&str> = PER_LAYER.iter().map(|m| m.0).collect();
    unique.sort_unstable();
    unique.dedup();
    assert_eq!(
        unique.len(),
        PER_LAYER.len(),
        "a per-layer name is used twice"
    );
}

fn quick_report(seed: u64) -> Report {
    let workloads = Workload::ALL
        .into_iter()
        .map(|w| WorkloadResult {
            name: w.name().to_owned(),
            untraced: (0..3).map(|_| quick_rep(w, seed, false)).collect(),
            traced: Some(quick_rep(w, seed, true)),
        })
        .collect();
    Report::new(Scale::Quick, seed, Value::Null, workloads)
}

#[test]
fn report_round_trips_and_compare_accepts_only_comparable_reports() {
    let report = quick_report(5);
    assert!(report.correct());
    let doc = report.to_json();
    assert_eq!(doc.get("scale").and_then(Value::as_str), Some("quick"));
    let back = Report::from_json(&json::parse(&doc.to_pretty()).expect("parses")).expect("reads");
    assert_eq!(back, report);

    // Every metric appears once per workload in the rendered document too.
    for w in doc.get("workloads").and_then(Value::as_arr).expect("array") {
        let keys = |member: &str| -> Vec<String> {
            w.get(member)
                .and_then(Value::as_obj)
                .expect("object")
                .iter()
                .map(|(k, _)| k.clone())
                .collect()
        };
        assert_eq!(
            keys("end_to_end"),
            END_TO_END.iter().map(|m| m.name).collect::<Vec<_>>()
        );
        assert_eq!(
            keys("per_layer"),
            PER_LAYER.iter().map(|m| m.0).collect::<Vec<_>>()
        );
    }

    // The simulated rows of a report against itself are always ok; host
    // times at quick scale are too short to be steady, so only they may be
    // unresolved.
    let (table, _) = compare(&report, &back).expect("comparable");
    assert!(
        !table.lines().any(|l| l.ends_with("worse")),
        "a report is worse than itself:\n{table}"
    );

    let mut other_seed = report.clone();
    other_seed.seed = 6;
    assert!(compare(&report, &other_seed).is_err(), "seeds differ");
    let mut full = report.clone();
    full.scale = "full".to_owned();
    assert!(compare(&report, &full).is_err(), "quick against full");
    let mut fewer = report.clone();
    fewer.workloads.pop();
    assert!(compare(&report, &fewer).is_err(), "workload sets differ");

    // A simulated metric that moved is caught.
    let mut moved = report.clone();
    for rep in &mut moved.workloads[0].untraced {
        for (name, value) in &mut rep.end_to_end {
            if name == "tx_frames" {
                *value *= 1.02;
            }
        }
    }
    let (table, worst) = compare(&report, &moved).expect("comparable");
    assert_eq!(worst, Verdict::Worse);
    assert!(
        table
            .lines()
            .any(|l| l.contains("tx_frames") && l.ends_with("worse")),
        "{table}"
    );
}

/// A stack that only exists to be found again through the wrapper.
struct Marker {
    bytes: usize,
    frames: u64,
}

impl NetStack for Marker {
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
        ctx.send_frame(vec![7u8; 32], FrameKind(9), 0, SimDuration::ZERO);
    }

    fn on_frame(&mut self, _ctx: &mut NodeCtx<'_>, _frame: &Frame) {
        self.frames += 1;
    }

    fn on_timer(&mut self, _ctx: &mut NodeCtx<'_>, _token: u64) {}

    fn live_state_bytes(&self) -> usize {
        self.bytes
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[test]
fn traced_forwards_as_any_and_live_state_bytes_and_counts_frames() {
    for enabled in [false, true] {
        let tracer = Tracer::new(enabled, true);
        let mut world = World::new(WorldConfig::default());
        let mut ids = Vec::new();
        for (i, bytes) in [100usize, 23].into_iter().enumerate() {
            let stack = Marker { bytes, frames: 0 };
            ids.push(world.add_node(
                Box::new(Stationary::new(Point::new(10.0 + i as f64, 10.0))),
                Traced::boxed(stack, &tracer),
            ));
        }
        let span = tracer.begin(Boundary::RunUntil);
        world.run_until(SimTime::from_secs(1));
        tracer.end(span, Boundary::RunUntil, FrameKind(0));

        assert_eq!(world.live_state_bytes(), 123);
        let heard: u64 = ids
            .iter()
            .map(|&id| {
                world
                    .stack::<Marker>(id)
                    .expect("as_any reaches Marker")
                    .frames
            })
            .sum();
        assert_eq!(heard, world.stats().delivered);
        assert_eq!(tracer.on_frame_calls(), world.stats().delivered);
        world.stack_mut::<Marker>(ids[0]).expect("as_any_mut").bytes = 1;
        assert_eq!(world.live_state_bytes(), 24);

        assert_eq!(tracer.total(Boundary::OnStart).calls, 2);
        assert_eq!(tracer.total(Boundary::RunUntil).secs > 0.0, enabled);
        assert_eq!(tracer.span_count() > 0, enabled);
        if enabled {
            let trace = json::parse(&tracer.chrome_trace("marker")).expect("valid JSON");
            let events = trace
                .get("traceEvents")
                .and_then(Value::as_arr)
                .expect("events");
            assert!(events.len() > 1);
        }
    }
}

fn bench() -> Command {
    Command::new(env!("CARGO_BIN_EXE_dapes-benchmark"))
}

fn tmp(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name)
}

#[test]
fn command_line_prints_the_contract_object_last_and_refuses_what_it_does_not_know() {
    let out = bench()
        .args(["--workload", "relay-swarm", "--seed", "4", "--seconds", "1"])
        .args(["--trace", "0", "--quick"])
        .output()
        .expect("runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).expect("utf-8");
    let last = json::parse(text.lines().last().expect("output")).expect("last line is JSON");
    let keys: Vec<&str> = last
        .as_obj()
        .expect("object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(last.get("correct").and_then(Value::as_bool), Some(true));
    assert_eq!(last.get("failed").and_then(Value::as_f64), Some(0.0));
    let metrics = last
        .get("metrics")
        .and_then(Value::as_obj)
        .expect("metrics");
    assert_eq!(
        metrics.iter().map(|(k, _)| k.as_str()).collect::<Vec<_>>(),
        END_TO_END.iter().map(|m| m.name).collect::<Vec<_>>()
    );
    for m in &END_TO_END {
        assert!(text.contains(m.name) && text.contains(m.unit));
    }

    let traced = bench()
        .args([
            "--workload",
            "paper-sparse",
            "--seed",
            "4",
            "--seconds",
            "1",
        ])
        .args(["--trace", "1", "--quick"])
        .output()
        .expect("runs");
    assert!(traced.status.success());
    let text = String::from_utf8(traced.stdout).expect("utf-8");
    let last = json::parse(text.lines().last().expect("output")).expect("last line is JSON");
    let metrics = last
        .get("metrics")
        .and_then(Value::as_obj)
        .expect("metrics");
    assert_eq!(
        metrics.iter().map(|(k, _)| k.as_str()).collect::<Vec<_>>(),
        PER_LAYER.iter().map(|m| m.0).collect::<Vec<_>>()
    );

    for bad in [
        vec![
            "--workload",
            "paper-dens",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ],
        vec![
            "--workload",
            "paper-dense",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "yes",
        ],
        vec![
            "--workload",
            "paper-dense",
            "--seed",
            "x",
            "--seconds",
            "1",
            "--trace",
            "0",
        ],
        vec![
            "--workload",
            "paper-dense",
            "--seed",
            "1",
            "--seconds",
            "0",
            "--trace",
            "0",
        ],
        vec!["--workload", "paper-dense", "--seed", "1", "--seconds", "1"],
        vec![
            "--workload",
            "paper-dense",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
            "--profile",
            "paper",
        ],
        vec![
            "--workload",
            "paper-dense",
            "--seed",
            "1",
            "--seed",
            "2",
            "--seconds",
            "1",
            "--trace",
            "0",
        ],
        vec!["all", "--reps", "2", "--quick"],
        vec!["compare", "only-one.json"],
        vec![],
    ] {
        let out = bench().args(&bad).output().expect("runs");
        assert!(!out.status.success(), "{bad:?} must be refused");
        assert!(out.stdout.is_empty(), "{bad:?} must not print a result");
    }
}

#[test]
fn all_writes_a_report_with_host_facts_that_compare_reads_back() {
    let report = tmp("quick-report.json");
    let traces = tmp("quick-traces");
    let out = bench()
        .args(["all", "--quick", "--seed", "7", "--out"])
        .arg(&report)
        .arg("--trace-dir")
        .arg(&traces)
        .output()
        .expect("runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let doc = json::parse(&std::fs::read_to_string(&report).expect("written")).expect("JSON");
    assert_eq!(doc.get("scale").and_then(Value::as_str), Some("quick"));
    assert_eq!(doc.get("seed").and_then(Value::as_f64), Some(7.0));
    assert_eq!(doc.get("repetitions").and_then(Value::as_f64), Some(3.0));
    let host = doc.get("host").expect("host facts");
    for fact in [
        "logical_cores",
        "cpu_model",
        "rustc",
        "git_rev",
        "git_dirty",
        "release_profile",
    ] {
        assert!(host.get(fact).is_some(), "host fact {fact}");
    }
    for w in Workload::ALL {
        let trace = traces.join(format!("trace-{}.json", w.name()));
        let text = std::fs::read_to_string(&trace).expect("trace written");
        assert!(
            json::parse(&text).is_ok(),
            "{} is Chrome-trace JSON",
            trace.display()
        );
    }

    // compare runs on the written file; whether quick-scale host times
    // resolve is not asserted, that it reads and prints every row is.
    let out = bench()
        .arg("compare")
        .arg(&report)
        .arg(&report)
        .output()
        .expect("runs");
    let table = String::from_utf8(out.stdout).expect("utf-8");
    assert_eq!(
        table.lines().count(),
        1 + Workload::ALL.len() * (END_TO_END.len() + 1),
        "{table}"
    );
    assert!(!table.contains("worse"), "{table}");
}

#[test]
fn benchmark_json_names_the_tables_the_runner_uses() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("JSON");
    let text = |v: &Value, key: &str| v.get(key).and_then(Value::as_str).map(str::to_owned);
    let list = |key: &str| doc.get(key).and_then(Value::as_arr).expect(key).to_vec();
    let better = |higher: bool| Some(if higher { "higher" } else { "lower" }.to_owned());

    let workloads = list("workloads");
    assert_eq!(workloads.len(), Workload::ALL.len());
    for (entry, w) in workloads.iter().zip(Workload::ALL) {
        assert_eq!(text(entry, "name").as_deref(), Some(w.name()));
        assert_eq!(text(entry, "why").as_deref(), Some(w.why()));
        assert!(w.why().len() <= 200);
    }
    let end_to_end = list("end_to_end");
    assert_eq!(end_to_end.len(), END_TO_END.len());
    for (entry, m) in end_to_end.iter().zip(&END_TO_END) {
        assert_eq!(text(entry, "name").as_deref(), Some(m.name));
        assert_eq!(text(entry, "unit").as_deref(), Some(m.unit));
        assert_eq!(text(entry, "better"), better(m.higher_is_better));
        assert_eq!(entry.get("bound").and_then(Value::as_f64), Some(m.bound));
        assert!(m.bound <= 0.25);
    }
    let per_layer = list("per_layer");
    assert_eq!(per_layer.len(), PER_LAYER.len());
    for (entry, m) in per_layer.iter().zip(&PER_LAYER) {
        assert_eq!(text(entry, "name").as_deref(), Some(m.0));
        assert_eq!(text(entry, "unit").as_deref(), Some(m.1));
        assert_eq!(text(entry, "better"), better(m.2));
    }
    assert_eq!(
        doc.get("paths").and_then(Value::as_arr).map(<[Value]>::len),
        Some(1)
    );
}
