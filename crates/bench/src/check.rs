//! The gate reports: one [`Report`] type the `adversarial` and `faults`
//! bins write, and `checkjson` reads back and gates — the library behind
//! the `checkjson` binary.
//!
//! A report is its `host` block, the workload header and one outcome per
//! cell, every key listed once by a [`Fields`] visitor (the cell counters
//! under their declared `Stats` / `PeerStats` names). Checking a committed
//! report decodes it into the bin's own outcome type — every number finite,
//! every counter a non-negative integer, each failure naming its key — and
//! runs that bin's own [`Sweep::gate`] on it. A document of neither shape is
//! an error: a report in a retired shape must not be half-read.

use crate::adversarial::AttackOutcome;
use crate::cli::Args;
use crate::faults::FaultOutcome;
use crate::host::HostFacts;
use crate::json::{self, Fields, Slot, Value, Visit};
use dapes_netsim::stats::Stats;

/// An outcome type whose cells make up one report shape.
pub trait Sweep: Fields + Default + Clone {
    /// The report's `scenario`.
    const SCENARIO: &'static str;
    /// The key of the cell array.
    const CELLS: &'static str;
    /// Visits the header members this shape states beyond the common ones.
    fn header(_f: &mut Visit<'_>) {}
    /// The bin's gate: the first violation across the sweep.
    fn gate(cells: &[Self]) -> Result<(), String>;
}

/// Visits what every cell states after its label: whether and when its
/// transfers completed, then `tx_frames` and the named `stats` counters.
/// Named counters, here and in each cell's peer list, come in declaration
/// order.
pub fn visit_run(
    completed: &mut bool,
    completion_secs: &mut f64,
    stats: &mut Stats,
    counters: &[&str],
    f: &mut Visit<'_>,
) {
    f("completed", Slot::Flag(completed));
    f("completion_secs", Slot::Num(completion_secs, 3));
    stats.visit_mut(|name, n| {
        if name == "tx_frames" || counters.contains(&name) {
            f(name, Slot::Int(n));
        }
    });
}

/// A gate report, as its bin writes it and `checkjson` reads it back.
#[derive(Clone, Debug, Default)]
pub struct Report<T> {
    /// Where it ran.
    pub host: HostFacts,
    /// Nodes in every cell.
    pub nodes: u64,
    /// World seed.
    pub seed: u64,
    /// Files in the shared collection.
    pub files: u64,
    /// Bytes per file.
    pub file_size: u64,
    /// One outcome per cell, in sweep order.
    pub cells: Vec<T>,
}

impl<T: Sweep> Report<T> {
    /// A report of `cells`, each laid out on three nodes.
    pub fn new(host: HostFacts, seed: u64, files: usize, file_size: usize, cells: Vec<T>) -> Self {
        Report {
            host,
            nodes: 3,
            seed,
            files: files as u64,
            file_size: file_size as u64,
            cells,
        }
    }

    /// Decodes a parsed report of this shape.
    pub fn decode(doc: &Value) -> Result<Self, String> {
        let mut report = Report::default();
        json::read(doc, &mut report)?;
        Ok(report)
    }

    /// The `BENCH_*.json` document.
    pub fn render(&self) -> String {
        json::write(&mut self.clone())
    }

    /// The markdown summary: one row per cell, one column per key.
    pub fn summary(&self) -> String {
        format!(
            "### `{}` ({} nodes, seed {})\n\n{}",
            T::SCENARIO,
            self.nodes,
            self.seed,
            json::table(&mut self.cells.clone())
        )
    }

    /// The tail of a gate bin: prints the table, writes the report to
    /// `--out` (default `BENCH_<scenario>.json`) and `dump` to `--prom-out`,
    /// and exits 1 on the first violation of the gate.
    pub fn publish(&self, args: &Args, dump: &str) {
        eprintln!("{}", self.summary());
        let out = args.value("--out").map(str::to_owned);
        let out = out.unwrap_or_else(|| format!("BENCH_{}.json", T::SCENARIO));
        std::fs::write(&out, self.render()).expect("write the report");
        eprintln!("wrote {out}");
        if let Some(path) = args.value("--prom-out") {
            std::fs::write(path, dump).expect("write the prometheus dump");
            eprintln!("wrote {path}");
        }
        if let Err(msg) = T::gate(&self.cells) {
            eprintln!("GATE VIOLATION: {msg}");
            std::process::exit(1);
        }
        eprintln!("gate: every {} invariant holds", T::SCENARIO);
    }
}

impl<T: Sweep> Fields for Report<T> {
    fn fields(&mut self, f: &mut Visit<'_>) {
        let mut scenario = T::SCENARIO;
        f("scenario", Slot::Choice(&mut scenario, &[T::SCENARIO]));
        f("host", Slot::Object(&mut self.host));
        f("nodes", Slot::Pos(&mut self.nodes));
        f("seed", Slot::Int(&mut self.seed));
        f("files", Slot::Int(&mut self.files));
        f("file_size", Slot::Int(&mut self.file_size));
        T::header(f);
        f(T::CELLS, Slot::Rows(&mut self.cells));
    }
}

/// Validates a Prometheus text-format metrics dump: every non-empty line is
/// a `# HELP`/`# TYPE` comment or a `name[{labels}] value` sample with a
/// finite, non-negative value and a `dapes_`-prefixed metric name.
pub fn validate_prometheus(text: &str) -> Result<(), String> {
    let mut samples = 0usize;
    for (i, line) in text.lines().enumerate() {
        let line = line.trim_end();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# ") {
            if !(rest.starts_with("HELP dapes_") || rest.starts_with("TYPE dapes_")) {
                return Err(format!("line {}: malformed comment {line:?}", i + 1));
            }
            continue;
        }
        let (name_part, value_part) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("line {}: no value in sample {line:?}", i + 1))?;
        let name = name_part.split('{').next().unwrap_or(name_part);
        if !name.starts_with("dapes_")
            || !name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '{' || c == '}')
        {
            return Err(format!("line {}: bad metric name {name:?}", i + 1));
        }
        let value: f64 = value_part
            .parse()
            .map_err(|_| format!("line {}: non-numeric value {value_part:?}", i + 1))?;
        if !value.is_finite() || value < 0.0 {
            return Err(format!(
                "line {}: metric {name} has invalid value {value}",
                i + 1
            ));
        }
        samples += 1;
    }
    if samples == 0 {
        return Err("no samples in the metrics dump".into());
    }
    Ok(())
}

/// Checks one parsed report: decoded into its bin's outcomes, it must pass
/// that bin's gate.
pub fn validate(doc: &Value) -> Result<(), String> {
    summary(doc).map(drop)
}

/// Checks one parsed report — decoded as the shape its cell array names,
/// it must pass that shape's gate — and renders its markdown summary.
pub fn summary(doc: &Value) -> Result<String, String> {
    fn gated<T: Sweep>(doc: &Value) -> Result<String, String> {
        let report = Report::<T>::decode(doc)?;
        T::gate(&report.cells).map_err(|e| format!("gate violated: {e}"))?;
        Ok(report.summary())
    }
    match (doc.get(AttackOutcome::CELLS), doc.get(FaultOutcome::CELLS)) {
        (Some(_), _) => gated::<AttackOutcome>(doc),
        (_, Some(_)) => gated::<FaultOutcome>(doc),
        _ => Err(format!(
            "neither an adversarial report ({:?}) nor a fault-injection report ({:?}), \
             the two shapes checkjson knows",
            AttackOutcome::CELLS,
            FaultOutcome::CELLS
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    const HOST: &str = "\"host\": {\"logical_cores\": 4, \"cpu_model\": \"cpu\", \
                        \"rustc\": \"rustc 1.0\", \"git_rev\": \"abc1234\", \
                        \"sha256_kernel\": \"sha-ni\"}";

    const ADV: &str = include_str!("../../../BENCH_adversarial.json");
    const FAULTS: &str = include_str!("../../../BENCH_faults.json");

    /// Both report shapes, well formed: the committed adversarial report
    /// and a hand-built fault sweep.
    fn both_docs() -> [String; 2] {
        [ADV.to_owned(), full_faults_doc()]
    }

    /// `text` with the value of its `nth` (0-based) `"key"` member replaced
    /// by `value`.
    fn set(text: &str, key: &str, nth: usize, value: &str) -> String {
        let pat = format!("\"{key}\": ");
        let (at, _) = text.match_indices(&pat).nth(nth).expect("key present");
        let start = at + pat.len();
        let end = start + text[start..].find([',', '\n', '}']).expect("value ends");
        format!("{}{value}{}", &text[..start], &text[end..])
    }

    /// `text` parsed, with `edit` applied to its cell array.
    fn with_rows(text: &str, edit: impl FnOnce(&mut Vec<Value>)) -> Value {
        let mut doc = parse(text).expect("parses");
        let Value::Object(members) = &mut doc else {
            panic!("not an object")
        };
        let rows = members.values_mut().find_map(|v| match v {
            Value::Array(rows) => Some(rows),
            _ => None,
        });
        edit(rows.expect("a cell array"));
        doc
    }

    fn invalid(text: &str) -> String {
        validate(&parse(text).expect("parses")).expect_err("must be rejected")
    }

    /// The committed reports pass, and their summary tables render.
    #[test]
    fn accepts_a_well_formed_report() {
        for text in [
            include_str!("../../../BENCH_adversarial.json"),
            include_str!("../../../BENCH_faults.json"),
        ] {
            let doc = parse(text).expect("parses");
            assert_eq!(validate(&doc), Ok(()));
            let table = summary(&doc).expect("summary renders");
            assert!(table.contains("| yes |"), "{table}");
        }
    }

    /// The scheduler report this crate wrote until its advert swarm moved to
    /// `benchmark/`'s `relay-swarm`, as last committed.
    const RETIRED_SCHED_REPORT: &str = r#"{
  "scenario": "perf_sched",
  "host": {
    "logical_cores": 2,
    "cpu_model": "Intel(R) Xeon(R) Processor",
    "rustc": "rustc 1.95.0 (59807616e 2026-04-14)",
    "git_rev": "ed18cae-dirty",
    "sha256_kernel": "sha-ni"
  },
  "nodes": 2400,
  "field_m": 900,
  "range_m": 60,
  "rounds_per_node": 3,
  "advert_period_ms": 1000,
  "tick_ms": 16,
  "reply_bytes": 256,
  "seed": 1,
  "run": {
    "wall_secs": 9.6440,
    "events_popped": 4068945,
    "sim_events": 11679613,
    "events_per_sec": 1211072,
    "tx_frames": 642574,
    "delivered": 7610668,
    "arrival_events": 642574,
    "cmd_pool_hits": 1304365,
    "cmd_pool_misses": 1,
    "frames_peek_resolved": 7098596,
    "peek_fib_drops": 90344,
    "peek_prefix_hits": 57276,
    "frames_relay_patched": 315333,
    "full_decodes": 512072,
    "pit_arena_live": 159139,
    "cs_arena_live": 2400,
    "timer_slots_allocated": 644992
  }
}
"#;

    /// A report in a retired shape fails until it is regenerated, naming
    /// the two shapes that remain; nothing falls through to a default.
    #[test]
    fn rejects_a_report_of_neither_shape() {
        let doc = parse(RETIRED_SCHED_REPORT).expect("parses");
        for err in [
            validate(&doc).expect_err("retired shape"),
            summary(&doc).expect_err("retired shape"),
        ] {
            assert!(
                err.contains("\"attacks\"") && err.contains("\"cells\""),
                "{err}"
            );
        }
    }

    #[test]
    fn rejects_missing_host_facts() {
        for doc in both_docs() {
            let err = invalid(&doc.replacen("\"host\":", "\"hoist\":", 1));
            assert!(err.contains("missing \"host\""), "{err}");
        }
    }

    #[test]
    fn rejects_host_facts_without_a_known_sha256_kernel() {
        for doc in both_docs() {
            let missing = doc.replacen("\"sha256_kernel\":", "\"sha256_kernal\":", 1);
            let err = invalid(&missing);
            assert!(err.contains("missing \"sha256_kernel\""), "{err}");
            let err = invalid(&set(&doc, "sha256_kernel", 0, "\"avx512\""));
            assert!(err.contains("sha256_kernel"), "{err}");
        }
    }

    /// Keeps the name it had when the only integer counters were the
    /// sharded engine's; it now holds `tx_frames` of both shapes to a
    /// non-negative integer.
    #[test]
    fn rejects_fractional_border_counters() {
        for doc in both_docs() {
            for bad in ["4.5", "-5"] {
                let err = invalid(&set(&doc, "tx_frames", 0, bad));
                assert!(err.contains("\"tx_frames\" must be"), "{err}");
            }
        }
    }

    /// The name dates from the speedup ratios an earlier report carried;
    /// `overhead_ratio` is the ratio left.
    #[test]
    fn rejects_nan_and_infinite_speedups() {
        // A writer formatting a float with {:.4} renders NaN and infinities
        // as bare words — exactly what a zero-denominator division would
        // commit. The parser reads them as nulls/errors; either way
        // validation must name the field.
        for bad in ["null", "\"NaN\"", "\"inf\"", "1e999"] {
            let Ok(doc) = parse(&set(ADV, "overhead_ratio", 0, bad)) else {
                continue; // unparseable is an even earlier failure
            };
            let err = validate(&doc).expect_err(&format!("ratio {bad} must fail"));
            assert!(
                err.contains("overhead_ratio"),
                "error must name the field: {err}"
            );
        }
    }

    /// The one field that must be strictly positive is now the adversarial
    /// report's replay window.
    #[test]
    fn rejects_zero_and_negative_speedups() {
        for bad in ["0", "-3.5"] {
            let err = invalid(&set(ADV, "replay_window_ms", 0, bad));
            assert!(err.contains("must be positive"), "{err}");
        }
    }

    /// A report that measured nothing must not pass the gate.
    #[test]
    fn rejects_an_empty_modes_array() {
        let err = validate(&with_rows(ADV, Vec::clear)).expect_err("empty attacks array");
        assert!(err.contains("missing required attack mode"), "{err}");
    }

    #[test]
    fn rejects_non_finite_mode_fields() {
        let err = invalid(&set(ADV, "completion_secs", 0, "1e999"));
        assert!(
            err.contains("mode \"benign\": \"completion_secs\""),
            "{err}"
        );
    }

    #[test]
    fn accepts_a_well_formed_adversarial_report() {
        let doc = parse(ADV).expect("parses");
        assert_eq!(validate(&doc), Ok(()));
        let table = summary(&doc).expect("summary renders");
        assert!(
            table.contains("`flood`") && table.contains("yes"),
            "{table}"
        );
    }

    #[test]
    fn rejects_adversarial_report_missing_an_attack_mode() {
        let doc = with_rows(ADV, |rows| {
            rows.pop();
        });
        let err = validate(&doc).expect_err("missing flood");
        assert!(err.contains("\"flood\""), "{err}");
    }

    #[test]
    fn rejects_negative_and_fractional_defense_counters() {
        for bad in ["-1", "0.5"] {
            let err = invalid(&set(ADV, "flood_frames_dropped", 4, bad));
            assert!(
                err.contains("mode \"flood\": \"flood_frames_dropped\""),
                "{err}"
            );
        }
    }

    #[test]
    fn rejects_failed_accounting_and_incomplete_transfers() {
        for key in ["exact_accounting", "completed"] {
            let err = invalid(&set(ADV, key, 4, "false"));
            assert!(err.contains("gate violated: [flood]"), "{err}");
        }
    }

    #[test]
    fn rejects_duplicate_attack_modes() {
        let doc = with_rows(ADV, |rows| rows.push(rows[1].clone()));
        let err = validate(&doc).expect_err("duplicate spoof");
        assert!(err.contains("duplicate attack mode \"spoof\""), "{err}");
    }

    /// What the bins' gates reject and a schema check alone let through:
    /// each committed report with one value mutated.
    #[test]
    fn rejects_what_the_bin_gates_reject() {
        for (text, want) in [
            (
                set(FAULTS, "node_crashes", 0, "1"),
                "[crash0-part0] fault accounting",
            ),
            (
                set(ADV, "flood_frames_dropped", 0, "1"),
                "[benign] hostile traffic",
            ),
            (
                set(ADV, "completion_secs", 1, "99.000"),
                "[spoof] completed in 99.00s",
            ),
            (
                set(FAULTS, "label", 1, "\"crash0-part0\""),
                "duplicate cell \"crash0-part0\"",
            ),
        ] {
            let err = invalid(&text);
            assert!(err.contains(&format!("gate violated: {want}")), "{err}");
        }
    }

    /// Decoding a committed report and writing it again reproduces the
    /// file byte for byte, `host` included.
    #[test]
    fn committed_reports_round_trip_byte_for_byte() {
        let adv = Report::<AttackOutcome>::decode(&parse(ADV).expect("parses")).expect("decodes");
        assert_eq!(adv.render(), ADV);
        let faults =
            Report::<FaultOutcome>::decode(&parse(FAULTS).expect("parses")).expect("decodes");
        assert_eq!(faults.render(), FAULTS);
    }

    fn fault_cell(label: &str, extra_counters: (u64, u64, u64)) -> String {
        let (drops, give_ups, skipped) = extra_counters;
        format!(
            "{{\"label\": \"{label}\", \"crashes\": 1, \"partition_secs\": 8, \
              \"completed\": true, \"completion_secs\": 12.5, \"tx_frames\": 300, \
              \"node_crashes\": 1, \"node_restarts\": 1, \
              \"partitions_cut\": 1, \"partitions_healed\": 1, \
              \"partition_drops\": {drops}, \"stale_events_suppressed\": 2, \
              \"retransmissions\": 9, \"retx_give_ups\": {give_ups}, \
              \"resumed_segments_skipped\": {skipped}, \"resumed_refetch\": 0, \
              \"deterministic\": true}}"
        )
    }

    fn faults_doc(cells: &[String]) -> String {
        format!(
            "{{\"scenario\": \"faults\", {HOST}, \"nodes\": 3, \"seed\": 9, \
             \"files\": 2, \"file_size\": 16384, \"cells\": [{}]}}",
            cells.join(", ")
        )
    }

    fn full_faults_doc() -> String {
        faults_doc(&[
            fault_cell("crash1-part8", (11, 0, 20)),
            fault_cell("crash1-part30", (40, 3, 0)),
        ])
    }

    #[test]
    fn accepts_a_well_formed_faults_report() {
        let doc = parse(&full_faults_doc()).expect("parses");
        assert_eq!(validate(&doc), Ok(()));
        let table = summary(&doc).expect("summary renders");
        assert!(
            table.contains("`crash1-part30`") && table.contains("yes"),
            "{table}"
        );
    }

    #[test]
    fn rejects_faults_gate_flag_violations() {
        for key in ["completed", "deterministic"] {
            let text = full_faults_doc().replacen(
                &format!("\"{key}\": true"),
                &format!("\"{key}\": false"),
                1,
            );
            let doc = parse(&text).expect("parses");
            let err = validate(&doc).expect_err("false gate flag");
            assert!(err.contains("gate violated"), "{err}");
        }
    }

    #[test]
    fn rejects_any_resumed_refetch() {
        let text =
            full_faults_doc().replacen("\"resumed_refetch\": 0", "\"resumed_refetch\": 3", 1);
        let doc = parse(&text).expect("parses");
        let err = validate(&doc).expect_err("non-zero refetch");
        assert!(err.contains("resumed_refetch"), "{err}");
    }

    #[test]
    fn rejects_faults_sweep_missing_a_recovery_mechanism() {
        for (cells, want) in [
            (
                vec![fault_cell("a", (5, 1, 0)), fault_cell("b", (2, 2, 0))],
                "resumed a transfer",
            ),
            (
                vec![fault_cell("a", (0, 1, 9)), fault_cell("b", (0, 2, 1))],
                "cut link",
            ),
            (
                vec![fault_cell("a", (5, 0, 9)), fault_cell("b", (2, 0, 1))],
                "backoff ladder",
            ),
        ] {
            let doc = parse(&faults_doc(&cells)).expect("parses");
            let err = validate(&doc).expect_err("uncovered mechanism");
            assert!(err.contains(want), "{err}");
        }
    }

    #[test]
    fn rejects_faults_bad_counters_and_duplicates() {
        let text =
            full_faults_doc().replacen("\"partition_drops\": 11", "\"partition_drops\": -1", 1);
        let err = validate(&parse(&text).expect("parses")).expect_err("negative counter");
        assert!(err.contains("partition_drops"), "{err}");
        let dup = faults_doc(&[fault_cell("a", (1, 1, 1)), fault_cell("a", (1, 1, 1))]);
        let err = validate(&parse(&dup).expect("parses")).expect_err("duplicate cell");
        assert!(err.contains("duplicate"), "{err}");
        let empty = faults_doc(&[]);
        let err = validate(&parse(&empty).expect("parses")).expect_err("empty cells");
        assert!(err.contains("measured nothing"), "{err}");
    }

    #[test]
    fn prometheus_validator_accepts_well_formed_dumps() {
        let text = "# HELP dapes_tx_frames Frames transmitted.\n\
                    # TYPE dapes_tx_frames counter\n\
                    dapes_tx_frames 42\n\
                    dapes_delivered_by_kind{kind=\"1\"} 7\n";
        assert_eq!(validate_prometheus(text), Ok(()));
    }

    #[test]
    fn prometheus_validator_rejects_bad_lines() {
        for (text, why) in [
            ("", "empty dump"),
            ("# HELP other_metric x\nother_metric 1\n", "foreign prefix"),
            ("dapes_tx_frames -1\n", "negative value"),
            ("dapes_tx_frames NaN\n", "non-finite value"),
            ("dapes_tx_frames\n", "no value"),
        ] {
            assert!(validate_prometheus(text).is_err(), "must reject: {why}");
        }
    }
}
