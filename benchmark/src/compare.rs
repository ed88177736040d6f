//! `compare <a.json> <b.json>`: does report `b` agree with report `a`?
//!
//! Both reports must be of the same seed, scale and workload set, so the
//! simulated metrics are expected to repeat exactly and only host time and
//! memory can differ. Per workload × end-to-end metric it prints both
//! values, the ratio with its base, and a verdict by the metric's
//! same-seed bound:
//!
//! * `ok` — `b`'s median is no worse than `a`'s by more than the bound;
//! * `worse` — it is;
//! * `unresolved` — the spread between a report's own runs is wider than the
//!   bound, so the medians cannot tell, unless every run of `b` reads better
//!   than every run of `a`.

use crate::metrics::{EndToEnd, END_TO_END};
use crate::report::Report;
use crate::run::{median, WorkloadResult};
use std::fmt::Write as _;

/// The verdict on one workload × metric.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound.
    Ok,
    /// Worse by more than the bound.
    Worse,
    /// Run-to-run spread is wider than the bound.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// How much worse `b` is than `a` as a share of `a` (negative is better).
fn worsening(m: &EndToEnd, a: f64, b: f64) -> f64 {
    let delta = if m.higher_is_better { a - b } else { b - a };
    if a == 0.0 {
        if delta > 0.0 {
            f64::INFINITY
        } else {
            0.0
        }
    } else {
        delta / a.abs()
    }
}

fn spread(runs: &[f64]) -> f64 {
    let (lo, hi) = runs
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
            (lo.min(v), hi.max(v))
        });
    let mid = median(runs);
    if mid == 0.0 {
        0.0
    } else {
        (hi - lo) / mid.abs()
    }
}

/// The verdict on metric `m` between the runs of `a` and of `b`.
pub fn verdict(m: &EndToEnd, a: &[f64], b: &[f64]) -> Verdict {
    let (ma, mb) = (median(a), median(b));
    let worse = worsening(m, ma, mb) > m.same_seed_bound;
    if m.simulated {
        // Simulated metrics repeat exactly; there is no spread to hide in.
        return if worse { Verdict::Worse } else { Verdict::Ok };
    }
    if (mb - ma).abs() <= m.same_seed_slack {
        return Verdict::Ok;
    }
    if spread(a).max(spread(b)) > m.same_seed_bound {
        let b_always_better = a
            .iter()
            .all(|&x| b.iter().all(|&y| worsening(m, x, y) < 0.0));
        return if b_always_better {
            Verdict::Ok
        } else {
            Verdict::Unresolved
        };
    }
    if worse {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

/// Refuses reports that cannot be compared.
fn comparable(a: &Report, b: &Report) -> Result<(), String> {
    if a.scale != b.scale {
        return Err(format!(
            "reports are of different scale: {} and {}",
            a.scale, b.scale
        ));
    }
    if a.seed != b.seed {
        return Err(format!(
            "reports are of different seeds: {} and {}",
            a.seed, b.seed
        ));
    }
    let names = |r: &Report| {
        r.workloads
            .iter()
            .map(|w| w.name.clone())
            .collect::<Vec<_>>()
    };
    if names(a) != names(b) {
        return Err(format!(
            "reports hold different workloads: {:?} and {:?}",
            names(a),
            names(b)
        ));
    }
    Ok(())
}

fn row(out: &mut String, wa: &WorkloadResult, wb: &WorkloadResult, m: &EndToEnd) -> Verdict {
    let (a, b) = (wa.runs(m.name), wb.runs(m.name));
    let v = verdict(m, &a, &b);
    let (ma, mb) = (median(&a), median(&b));
    let _ = writeln!(
        out,
        "{:<16} {:<17} {:>14.6} {:>14.6} {:>8.4} of a  {:<5} {}",
        wa.name,
        m.name,
        ma,
        mb,
        if ma == 0.0 { f64::NAN } else { mb / ma },
        m.unit,
        v.label()
    );
    v
}

/// Compares two reports. `Ok` carries the table and the worst verdict in
/// it; `Err` is a refusal.
pub fn compare(a: &Report, b: &Report) -> Result<(String, Verdict), String> {
    comparable(a, b)?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<16} {:<17} {:>14} {:>14} {:>8}       {:<5} verdict",
        "workload", "metric", "a", "b", "b/a", "unit"
    );
    let mut worst = Verdict::Ok;
    let mut note = |v: Verdict| {
        if v == Verdict::Worse || worst == Verdict::Ok {
            worst = v;
        }
    };
    for (wa, wb) in a.workloads.iter().zip(&b.workloads) {
        for m in &END_TO_END {
            note(row(&mut out, wa, wb, m));
        }
        let same = wa.sim_fingerprint() == wb.sim_fingerprint();
        if !same {
            note(Verdict::Worse);
        }
        let _ = writeln!(
            out,
            "{:<16} {:<17} {:>14} {:>14} {:>8}       {:<5} {}",
            wa.name,
            "sim_fingerprint",
            wa.sim_fingerprint(),
            wb.sim_fingerprint(),
            "",
            "",
            if same { "ok" } else { "worse" }
        );
        for (label, w) in [("a", wa), ("b", wb)] {
            for failure in w.gate_failures() {
                note(Verdict::Worse);
                let _ = writeln!(
                    out,
                    "{:<16} report {label} is not correct: {failure}",
                    w.name
                );
            }
        }
    }
    Ok((out, worst))
}
