//! The report `all` writes and `compare` reads.

use crate::json::Value;
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::run::{Rep, WorkloadResult};
use crate::workloads::{Scale, Workload};

/// A complete set of runs: every workload, one seed, one scale.
#[derive(Clone, Debug, PartialEq)]
pub struct Report {
    /// `"full"` or `"quick"`.
    pub scale: String,
    /// The seed every workload ran on.
    pub seed: u64,
    /// Host facts (see `host::facts`).
    pub host: Value,
    /// One result per workload, in `Workload::ALL` order.
    pub workloads: Vec<WorkloadResult>,
}

impl Report {
    /// Assembles a report.
    pub fn new(scale: Scale, seed: u64, host: Value, workloads: Vec<WorkloadResult>) -> Self {
        Report {
            scale: scale.label().to_owned(),
            seed,
            host,
            workloads,
        }
    }

    /// Whether every workload passed its correctness gate.
    pub fn correct(&self) -> bool {
        self.workloads.iter().all(|w| w.gate_failures().is_empty())
    }

    /// The JSON document.
    pub fn to_json(&self) -> Value {
        let workloads = self.workloads.iter().map(|w| {
            let why = Workload::from_name(&w.name).map_or("", Workload::why);
            let end_to_end = END_TO_END.iter().map(|m| {
                let runs = w.runs(m.name);
                let (min, max) = runs
                    .iter()
                    .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
                        (lo.min(v), hi.max(v))
                    });
                (
                    m.name,
                    Value::obj([
                        ("value", Value::Num(w.value(m.name))),
                        ("unit", Value::from(m.unit)),
                        ("min", Value::Num(min)),
                        ("max", Value::Num(max)),
                        ("count", Value::from(runs.len() as u64)),
                    ]),
                )
            });
            let per_layer = w.per_layer().into_iter().map(|(name, value)| {
                let unit = PER_LAYER.iter().find(|m| m.0 == name).map_or("", |m| m.1);
                (
                    name,
                    Value::obj([("value", Value::Num(value)), ("unit", Value::from(unit))]),
                )
            });
            let reps = |reps: &[Rep]| Value::Arr(reps.iter().map(Rep::to_json).collect());
            Value::obj([
                ("name", Value::from(w.name.clone())),
                ("why", Value::from(why)),
                ("correct", Value::from(w.gate_failures().is_empty())),
                (
                    "gate_failures",
                    Value::Arr(w.gate_failures().into_iter().map(Value::from).collect()),
                ),
                ("sim_fingerprint", Value::from(w.sim_fingerprint())),
                ("attempted", Value::from(w.attempted())),
                ("failed", Value::from(w.failed())),
                ("end_to_end", Value::obj(end_to_end)),
                ("per_layer", Value::obj(per_layer)),
                ("untraced_runs", reps(&w.untraced)),
                ("traced_run", reps(w.traced.as_slice())),
            ])
        });
        Value::obj([
            ("benchmark", Value::from("dapes-benchmark")),
            ("scale", Value::from(self.scale.clone())),
            ("seed", Value::from(self.seed)),
            (
                "repetitions",
                Value::from(
                    self.workloads
                        .first()
                        .map_or(0, |w| w.untraced.len() as u64),
                ),
            ),
            ("host", self.host.clone()),
            ("workloads", Value::Arr(workloads.collect())),
        ])
    }

    /// Reads a report back. The derived members (`end_to_end`,
    /// `per_layer`, `correct`) are recomputed from the repetitions, not
    /// trusted.
    pub fn from_json(v: &Value) -> Result<Report, String> {
        if v.get("benchmark").and_then(Value::as_str) != Some("dapes-benchmark") {
            return Err("not a dapes-benchmark report".into());
        }
        let workloads = v
            .get("workloads")
            .and_then(Value::as_arr)
            .ok_or("report has no workloads")?
            .iter()
            .map(|w| {
                let name = w
                    .get("name")
                    .and_then(Value::as_str)
                    .ok_or("workload has no name")?
                    .to_owned();
                let reps = |key: &str| -> Result<Vec<Rep>, String> {
                    w.get(key)
                        .and_then(Value::as_arr)
                        .ok_or_else(|| format!("{name} has no {key}"))?
                        .iter()
                        .map(Rep::from_json)
                        .collect()
                };
                let untraced = reps("untraced_runs")?;
                if untraced.is_empty() {
                    return Err(format!("{name} has no untraced runs"));
                }
                let traced = reps("traced_run")?.into_iter().next();
                Ok(WorkloadResult {
                    name,
                    untraced,
                    traced,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(Report {
            scale: v
                .get("scale")
                .and_then(Value::as_str)
                .ok_or("report has no scale")?
                .to_owned(),
            seed: v
                .get("seed")
                .and_then(Value::as_f64)
                .ok_or("report has no seed")? as u64,
            host: v.get("host").cloned().unwrap_or(Value::Null),
            workloads,
        })
    }
}
