//! Runs repetitions as child processes and folds them into one result per
//! workload.
//!
//! Every repetition is its own process, so `VmHWM` is that repetition's
//! peak and no repetition inherits a warmed allocator from the one before.
//! Timings are reported as the median of the untraced repetitions; the
//! simulated metrics and the fingerprint must be identical in every
//! repetition of a seed, traced or not, or the run is not correct.

use crate::json::{self, Value};
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::workloads::{RepOutput, Scale, Workload};
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// One repetition, as its process reported it.
#[derive(Clone, Debug, PartialEq)]
pub struct Rep {
    /// Whether the wrappers recorded spans.
    pub traced: bool,
    /// End-to-end metrics, in table order.
    pub end_to_end: Vec<(String, f64)>,
    /// Per-layer metrics, in table order; empty when untraced.
    pub per_layer: Vec<(String, f64)>,
    /// FNV-1a over the simulated statistics, as hex.
    pub sim_fingerprint: String,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// Correctness-gate failures.
    pub gate_failures: Vec<String>,
}

impl Rep {
    /// From the in-process result.
    pub fn from_output(out: &RepOutput, traced: bool) -> Rep {
        let own = |m: &[(&'static str, f64)]| m.iter().map(|&(n, v)| (n.to_owned(), v)).collect();
        Rep {
            traced,
            end_to_end: own(&out.end_to_end),
            per_layer: own(&out.per_layer),
            sim_fingerprint: format!("{:016x}", out.sim_fingerprint),
            attempted: out.attempted,
            failed: out.failed,
            gate_failures: out.gate_failures.clone(),
        }
    }

    /// The line a repetition process prints.
    pub fn to_json(&self) -> Value {
        let metrics =
            |m: &[(String, f64)]| Value::obj(m.iter().map(|(n, v)| (n.clone(), Value::Num(*v))));
        Value::obj([
            ("traced", Value::from(self.traced)),
            ("sim_fingerprint", Value::from(self.sim_fingerprint.clone())),
            ("attempted", Value::from(self.attempted)),
            ("failed", Value::from(self.failed)),
            (
                "gate_failures",
                Value::Arr(
                    self.gate_failures
                        .iter()
                        .cloned()
                        .map(Value::from)
                        .collect(),
                ),
            ),
            ("end_to_end", metrics(&self.end_to_end)),
            ("per_layer", metrics(&self.per_layer)),
        ])
    }

    /// Parses what [`Rep::to_json`] wrote.
    pub fn from_json(v: &Value) -> Result<Rep, String> {
        let metrics = |key: &str| -> Result<Vec<(String, f64)>, String> {
            v.get(key)
                .and_then(Value::as_obj)
                .ok_or_else(|| format!("repetition has no {key} object"))?
                .iter()
                .map(|(n, x)| {
                    x.as_f64()
                        .map(|x| (n.clone(), x))
                        .ok_or_else(|| format!("{key}.{n} is not a number"))
                })
                .collect()
        };
        let count = |key: &str| {
            v.get(key)
                .and_then(Value::as_f64)
                .map(|n| n as u64)
                .ok_or_else(|| format!("repetition has no {key} count"))
        };
        Ok(Rep {
            traced: v
                .get("traced")
                .and_then(Value::as_bool)
                .ok_or("repetition has no traced flag")?,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
            sim_fingerprint: v
                .get("sim_fingerprint")
                .and_then(Value::as_str)
                .ok_or("repetition has no sim_fingerprint")?
                .to_owned(),
            attempted: count("attempted")?,
            failed: count("failed")?,
            gate_failures: v
                .get("gate_failures")
                .and_then(Value::as_arr)
                .ok_or("repetition has no gate_failures")?
                .iter()
                .filter_map(|g| g.as_str().map(str::to_owned))
                .collect(),
        })
    }

    fn metric(&self, name: &str) -> Option<f64> {
        self.end_to_end
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }
}

/// A repetition may not outlive this; the contract allows a run 180 s.
const REP_TIMEOUT: Duration = Duration::from_secs(150);

/// Runs one repetition in a process of its own and waits for it.
pub fn spawn_rep(
    workload: Workload,
    scale: Scale,
    seed: u64,
    traced: bool,
    trace_out: Option<&Path>,
) -> Result<Rep, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let spawned_at = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_err(|e| format!("clock is before 1970: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.arg("rep")
        .args(["--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .args(["--spawned-at-ns", &spawned_at.as_nanos().to_string()]);
    if scale == Scale::Quick {
        cmd.arg("--quick");
    }
    if let Some(path) = trace_out {
        cmd.arg("--trace-out").arg(path);
    }
    let mut child = cmd
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("cannot start a repetition: {e}"))?;
    // The child prints one line at the very end, so waiting before reading
    // cannot fill the pipe; polling lets a hung child be stopped.
    let started = Instant::now();
    let status = loop {
        match child.try_wait() {
            Ok(Some(status)) => break status,
            Ok(None) if started.elapsed() > REP_TIMEOUT => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!(
                    "{} repetition exceeded {REP_TIMEOUT:?} and was stopped",
                    workload.name()
                ));
            }
            Ok(None) => std::thread::sleep(Duration::from_millis(5)),
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("cannot wait for a repetition: {e}"));
            }
        }
    };
    let mut text = String::new();
    if let Some(mut out) = child.stdout.take() {
        use std::io::Read as _;
        out.read_to_string(&mut text)
            .map_err(|e| format!("cannot read a repetition's output: {e}"))?;
    }
    if !status.success() {
        return Err(format!(
            "{} repetition exited with {status}",
            workload.name()
        ));
    }
    let line = text.lines().last().ok_or("repetition printed nothing")?;
    Rep::from_json(&json::parse(line)?)
}

/// How many repetitions to run.
#[derive(Clone, Copy, Debug)]
pub struct Plan {
    /// Untraced repetitions that always run.
    pub min_untraced: usize,
    /// Keep adding untraced repetitions while the next one is expected to
    /// end within this many seconds of the start.
    pub seconds: f64,
    /// Also run one traced repetition (after the first untraced one, so the
    /// budget covers it).
    pub traced: bool,
}

/// Median of a non-empty list.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("metrics are never NaN"));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Everything measured for one workload.
#[derive(Clone, Debug, PartialEq)]
pub struct WorkloadResult {
    /// The workload's name.
    pub name: String,
    /// The untraced repetitions.
    pub untraced: Vec<Rep>,
    /// The traced repetition, when one ran.
    pub traced: Option<Rep>,
}

impl WorkloadResult {
    /// The values of one end-to-end metric over the untraced repetitions.
    pub fn runs(&self, metric: &str) -> Vec<f64> {
        self.untraced
            .iter()
            .filter_map(|r| r.metric(metric))
            .collect()
    }

    /// Median of one end-to-end metric over the untraced repetitions.
    pub fn value(&self, metric: &str) -> f64 {
        median(&self.runs(metric))
    }

    /// The fingerprint of the first untraced repetition.
    pub fn sim_fingerprint(&self) -> &str {
        &self.untraced[0].sim_fingerprint
    }

    /// Operations attempted in one repetition.
    pub fn attempted(&self) -> u64 {
        self.untraced[0].attempted
    }

    /// Operations failed in one repetition.
    pub fn failed(&self) -> u64 {
        self.untraced[0].failed
    }

    /// The traced repetition's per-layer metrics, with
    /// `trace.overhead_pct` filled in against the untraced median.
    pub fn per_layer(&self) -> Vec<(String, f64)> {
        let Some(traced) = &self.traced else {
            return Vec::new();
        };
        let untraced_wall = self.value("wall_s");
        let traced_wall = traced.metric("wall_s").unwrap_or(0.0);
        traced
            .per_layer
            .iter()
            .map(|(name, value)| {
                if name == "trace.overhead_pct" && untraced_wall > 0.0 {
                    (name.clone(), (traced_wall / untraced_wall - 1.0) * 100.0)
                } else {
                    (name.clone(), *value)
                }
            })
            .collect()
    }

    /// Every reason the result is not correct: each repetition's own gate,
    /// then the checks only several repetitions allow — every metric present
    /// once, simulated metrics and fingerprint equal across repetitions.
    pub fn gate_failures(&self) -> Vec<String> {
        let mut failures = Vec::new();
        let all = || self.untraced.iter().chain(&self.traced);
        for rep in all() {
            failures.extend(rep.gate_failures.iter().cloned());
            let names: Vec<&str> = rep.end_to_end.iter().map(|(n, _)| n.as_str()).collect();
            let expected: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
            if names != expected {
                failures.push(format!(
                    "end-to-end metrics are {names:?}, not {expected:?}"
                ));
            }
            if rep.traced {
                let names: Vec<&str> = rep.per_layer.iter().map(|(n, _)| n.as_str()).collect();
                let expected: Vec<&str> = PER_LAYER.iter().map(|m| m.0).collect();
                if names != expected {
                    failures.push("per-layer metrics do not match the table".to_owned());
                }
            }
        }
        let first = &self.untraced[0];
        for rep in all().skip(1) {
            if rep.sim_fingerprint != first.sim_fingerprint {
                failures.push(format!(
                    "sim_fingerprint {} ({}) differs from {} for the same seed",
                    rep.sim_fingerprint,
                    if rep.traced { "traced" } else { "untraced" },
                    first.sim_fingerprint
                ));
            }
            for m in END_TO_END.iter().filter(|m| m.simulated) {
                if rep.metric(m.name).map(f64::to_bits) != first.metric(m.name).map(f64::to_bits) {
                    failures.push(format!(
                        "{} did not repeat: {:?} then {:?}",
                        m.name,
                        first.metric(m.name),
                        rep.metric(m.name)
                    ));
                }
            }
        }
        failures
    }
}

/// Measures one workload according to `plan`.
pub fn measure(
    workload: Workload,
    scale: Scale,
    seed: u64,
    plan: Plan,
    trace_out: Option<&Path>,
) -> Result<WorkloadResult, String> {
    let started = Instant::now();
    let mut untraced = Vec::new();
    let mut traced = None;
    loop {
        let before = started.elapsed().as_secs_f64();
        untraced.push(spawn_rep(workload, scale, seed, false, None)?);
        let after = started.elapsed().as_secs_f64();
        // The traced repetition goes second: the first process of a
        // workload tends to run slow, and tracing overhead is the traced
        // wall against the untraced median.
        if plan.traced && traced.is_none() {
            traced = Some(spawn_rep(workload, scale, seed, true, trace_out)?);
        }
        let spent = started.elapsed().as_secs_f64();
        if untraced.len() >= plan.min_untraced && spent + (after - before) > plan.seconds {
            break;
        }
    }
    Ok(WorkloadResult {
        name: workload.name().to_owned(),
        untraced,
        traced,
    })
}
