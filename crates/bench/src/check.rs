//! Schema validation and step-summary rendering for the committed
//! `BENCH_*.json` reports — the library behind the `checkjson` binary.
//!
//! Two shapes exist, the adversarial report (an `attacks` array) and the
//! fault-injection report (a `cells` array). Both carry a string
//! `scenario`, numeric `nodes` and `seed`, and their `host` (logical cores,
//! CPU model, rustc, git revision, SHA-256 kernel); every number must be
//! *finite* (NaN and ±Inf are rejected, not round-tripped into CI) and
//! every counter a non-negative integer. A document of neither shape is an
//! error: a report in a retired shape must not be half-read.

use crate::json::Value;

/// Pulls a required *finite* numeric field out of an object.
fn require_num(v: &Value, key: &str) -> Result<f64, String> {
    match v.get(key).map(|f| (f, f.as_f64())) {
        Some((_, Some(n))) if n.is_finite() => Ok(n),
        Some((f, _)) => Err(format!("\"{key}\" must be a finite number, got {f:?}")),
        None => Err(format!("missing \"{key}\"")),
    }
}

fn require_str<'a>(v: &'a Value, key: &str) -> Result<&'a str, String> {
    v.get(key)
        .and_then(Value::as_str)
        .ok_or_else(|| format!("missing or non-string \"{key}\""))
}

/// Validates a report's `host` block.
fn validate_host(doc: &Value) -> Result<(), String> {
    let host = doc.get("host").ok_or("missing \"host\"")?;
    for key in ["cpu_model", "rustc", "git_rev"] {
        require_str(host, key).map_err(|e| format!("host: {e}"))?;
    }
    let kernel = require_str(host, "sha256_kernel").map_err(|e| format!("host: {e}"))?;
    if !["sha-ni", "portable"].contains(&kernel) {
        return Err(format!(
            "host: \"sha256_kernel\" must be \"sha-ni\" or \"portable\", got \"{kernel}\""
        ));
    }
    let logical_cores = require_num(host, "logical_cores").map_err(|e| format!("host: {e}"))?;
    if logical_cores < 1.0 || logical_cores.fract() != 0.0 {
        return Err(format!(
            "host: \"logical_cores\" must be a positive integer, got {logical_cores}"
        ));
    }
    Ok(())
}

/// The attack modes an adversarial report must cover, exactly once each.
pub const REQUIRED_ATTACK_MODES: [&str; 5] = ["benign", "spoof", "tamper", "replay", "flood"];

/// Per-attack-entry counters (frames on the air, then the defense
/// counters); all must be present, non-negative integers.
const ATTACK_COUNTERS: [&str; 9] = [
    "tx_frames",
    "adverts_rejected_bad_sig",
    "adverts_rejected_replay",
    "peers_expired",
    "segments_rejected_tamper",
    "interests_rejected_replay",
    "flood_frames_dropped",
    "hostile_delivered",
    "hostile_sent",
];

/// Validates the adversarial report shape: host facts, header fields, one entry per
/// required attack mode, non-negative counters, boolean `completed` and
/// `exact_accounting` flags that are both `true`.
fn validate_adversarial(doc: &Value) -> Result<(), String> {
    validate_host(doc)?;
    require_num(doc, "nodes")?;
    require_num(doc, "seed")?;
    let window = require_num(doc, "replay_window_ms")?;
    if window <= 0.0 {
        return Err(format!(
            "\"replay_window_ms\" must be positive, got {window}"
        ));
    }
    let attacks = doc
        .get("attacks")
        .and_then(Value::as_array)
        .ok_or("\"attacks\" must be an array")?;
    let mut seen = Vec::new();
    for entry in attacks {
        let mode = require_str(entry, "mode")?;
        if seen.contains(&mode.to_string()) {
            return Err(format!("duplicate attack mode \"{mode}\""));
        }
        seen.push(mode.to_string());
        for key in ["completed", "exact_accounting"] {
            match entry.get(key) {
                Some(Value::Bool(true)) => {}
                Some(Value::Bool(false)) => {
                    return Err(format!(
                        "mode \"{mode}\": \"{key}\" is false — gate violated"
                    ))
                }
                _ => return Err(format!("mode \"{mode}\": missing or non-bool \"{key}\"")),
            }
        }
        for key in ["completion_secs", "overhead_ratio"] {
            let n = require_num(entry, key).map_err(|e| format!("mode \"{mode}\": {e}"))?;
            if n < 0.0 {
                return Err(format!("mode \"{mode}\": \"{key}\" is negative ({n})"));
            }
        }
        for key in ATTACK_COUNTERS {
            let n = require_num(entry, key).map_err(|e| format!("mode \"{mode}\": {e}"))?;
            if n < 0.0 || n.fract() != 0.0 {
                return Err(format!(
                    "mode \"{mode}\": counter \"{key}\" must be a non-negative integer, got {n}"
                ));
            }
        }
    }
    for required in REQUIRED_ATTACK_MODES {
        if !seen.iter().any(|m| m == required) {
            return Err(format!("missing required attack mode \"{required}\""));
        }
    }
    Ok(())
}

/// Per-cell counters of the fault-injection report; all must be present,
/// non-negative integers.
const FAULT_COUNTERS: [&str; 12] = [
    "tx_frames",
    "crashes",
    "partition_secs",
    "node_crashes",
    "node_restarts",
    "partitions_cut",
    "partitions_healed",
    "partition_drops",
    "stale_events_suppressed",
    "retransmissions",
    "retx_give_ups",
    "resumed_segments_skipped",
];

/// Validates the fault-injection report shape: host facts, header fields,
/// per-cell entries with true `completed`/`deterministic` gate flags,
/// non-negative integer counters, a `resumed_refetch` that is exactly zero
/// (any resumed re-fetch is a recovery bug), and sweep-level coverage: at
/// least one cell each with resume skips, partition drops and backoff
/// give-ups.
fn validate_faults(doc: &Value) -> Result<(), String> {
    validate_host(doc)?;
    require_num(doc, "nodes")?;
    require_num(doc, "seed")?;
    let cells = doc
        .get("cells")
        .and_then(Value::as_array)
        .ok_or("\"cells\" must be an array")?;
    if cells.is_empty() {
        return Err("\"cells\" array is empty — the sweep measured nothing".into());
    }
    let mut seen = Vec::new();
    let mut any_resume = false;
    let mut any_drop = false;
    let mut any_give_up = false;
    for entry in cells {
        let label = require_str(entry, "label")?;
        if seen.contains(&label.to_string()) {
            return Err(format!("duplicate cell \"{label}\""));
        }
        seen.push(label.to_string());
        for key in ["completed", "deterministic"] {
            match entry.get(key) {
                Some(Value::Bool(true)) => {}
                Some(Value::Bool(false)) => {
                    return Err(format!(
                        "cell \"{label}\": \"{key}\" is false — gate violated"
                    ))
                }
                _ => return Err(format!("cell \"{label}\": missing or non-bool \"{key}\"")),
            }
        }
        let secs =
            require_num(entry, "completion_secs").map_err(|e| format!("cell \"{label}\": {e}"))?;
        if secs < 0.0 {
            return Err(format!(
                "cell \"{label}\": \"completion_secs\" is negative ({secs})"
            ));
        }
        for key in FAULT_COUNTERS {
            let n = require_num(entry, key).map_err(|e| format!("cell \"{label}\": {e}"))?;
            if n < 0.0 || n.fract() != 0.0 {
                return Err(format!(
                    "cell \"{label}\": counter \"{key}\" must be a non-negative integer, got {n}"
                ));
            }
        }
        let refetch =
            require_num(entry, "resumed_refetch").map_err(|e| format!("cell \"{label}\": {e}"))?;
        if refetch != 0.0 {
            return Err(format!(
                "cell \"{label}\": \"resumed_refetch\" is {refetch} — a resumed \
                 downloader re-fetched held segments"
            ));
        }
        let get = |key: &str| entry.get(key).and_then(Value::as_f64).unwrap_or(0.0);
        any_resume |= get("resumed_segments_skipped") > 0.0;
        any_drop |= get("partition_drops") > 0.0;
        any_give_up |= get("retx_give_ups") > 0.0;
    }
    if !any_resume {
        return Err("no cell resumed a transfer from salvage".into());
    }
    if !any_drop {
        return Err("no cell dropped frames on a cut link".into());
    }
    if !any_give_up {
        return Err("no cell exhausted the backoff ladder".into());
    }
    Ok(())
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

/// What a document that is neither report shape is told.
const UNKNOWN_SHAPE: &str = "neither an adversarial report (\"attacks\") nor a \
                             fault-injection report (\"cells\"), the two shapes checkjson knows";

/// Validates one parsed report document against the CI schema. Documents
/// carrying an `attacks` key use the adversarial shape, documents with a
/// `cells` array the fault-injection shape; anything else is an error.
pub fn validate(doc: &Value) -> Result<(), String> {
    require_str(doc, "scenario")?;
    if doc.get("attacks").is_some() {
        return validate_adversarial(doc);
    }
    if doc.get("cells").is_some() {
        return validate_faults(doc);
    }
    Err(UNKNOWN_SHAPE.into())
}

/// Renders the GitHub-flavoured markdown summary table for one report.
pub fn summary(doc: &Value) -> Result<String, String> {
    let scenario = require_str(doc, "scenario")?;
    let nodes = require_num(doc, "nodes")?;
    if let Some(attacks) = doc.get("attacks").and_then(Value::as_array) {
        let mut out = format!(
            "### `{scenario}` ({nodes} nodes) — defenses vs attack modes\n\n\
             | mode | done (s) | overhead | hostile rx | rejected | exact |\n\
             | --- | ---: | ---: | ---: | ---: | --- |\n"
        );
        for entry in attacks {
            let mode = require_str(entry, "mode")?;
            let rejected: f64 = [
                "adverts_rejected_bad_sig",
                "adverts_rejected_replay",
                "segments_rejected_tamper",
                "interests_rejected_replay",
                "flood_frames_dropped",
            ]
            .iter()
            .map(|k| entry.get(k).and_then(Value::as_f64).unwrap_or(0.0))
            .sum();
            out.push_str(&format!(
                "| `{mode}` | {:.2} | {:.1}% | {:.0} | {rejected:.0} | {} |\n",
                require_num(entry, "completion_secs")?,
                require_num(entry, "overhead_ratio")? * 100.0,
                require_num(entry, "hostile_delivered")?,
                if matches!(entry.get("exact_accounting"), Some(Value::Bool(true))) {
                    "yes"
                } else {
                    "NO"
                },
            ));
        }
        return Ok(out);
    }
    if let Some(cells) = doc.get("cells").and_then(Value::as_array) {
        let mut out = format!(
            "### `{scenario}` ({nodes} nodes) — recovery under crash × partition sweeps\n\n\
             | cell | done (s) | part drops | retx (gave up) | resumed skip | refetch | det |\n\
             | --- | ---: | ---: | ---: | ---: | ---: | --- |\n"
        );
        for entry in cells {
            let label = require_str(entry, "label")?;
            out.push_str(&format!(
                "| `{label}` | {:.2} | {:.0} | {:.0} ({:.0}) | {:.0} | {:.0} | {} |\n",
                require_num(entry, "completion_secs")?,
                require_num(entry, "partition_drops")?,
                require_num(entry, "retransmissions")?,
                require_num(entry, "retx_give_ups")?,
                require_num(entry, "resumed_segments_skipped")?,
                require_num(entry, "resumed_refetch")?,
                if matches!(entry.get("deterministic"), Some(Value::Bool(true))) {
                    "yes"
                } else {
                    "NO"
                },
            ));
        }
        return Ok(out);
    }
    Err(UNKNOWN_SHAPE.into())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    const HOST: &str = "\"host\": {\"logical_cores\": 4, \"cpu_model\": \"cpu\", \
                        \"rustc\": \"rustc 1.0\", \"git_rev\": \"abc1234\", \
                        \"sha256_kernel\": \"sha-ni\"}";

    /// Both report shapes, well formed.
    fn both_docs() -> [String; 2] {
        [full_adversarial_doc(), full_faults_doc()]
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
            let no_host = doc.replace(&format!("{HOST}, "), "");
            let err = validate(&parse(&no_host).expect("parses")).expect_err("no host facts");
            assert!(err.contains("host"), "{err}");
        }
    }

    #[test]
    fn rejects_host_facts_without_a_known_sha256_kernel() {
        for doc in both_docs() {
            let missing = doc.replace(", \"sha256_kernel\": \"sha-ni\"", "");
            let err = validate(&parse(&missing).expect("parses")).expect_err("no kernel");
            assert!(err.contains("sha256_kernel"), "{err}");
            let unknown = doc.replace("\"sha-ni\"", "\"avx512\"");
            let err = validate(&parse(&unknown).expect("parses")).expect_err("unknown kernel");
            assert!(err.contains("sha256_kernel"), "{err}");
        }
    }

    /// Keeps the name it had when the only integer counters were the
    /// sharded engine's; it now holds `tx_frames` of both shapes to a
    /// non-negative integer.
    #[test]
    fn rejects_fractional_border_counters() {
        for (doc, frames) in [
            (full_adversarial_doc(), "\"tx_frames\": 120"),
            (full_faults_doc(), "\"tx_frames\": 300"),
        ] {
            for bad in ["4.5", "-5"] {
                let text = doc.replacen(frames, &format!("\"tx_frames\": {bad}"), 1);
                let err = validate(&parse(&text).expect("parses")).expect_err("bad counter");
                assert!(err.contains("tx_frames"), "{err}");
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
            let text = full_adversarial_doc().replacen(
                "\"overhead_ratio\": 0.4",
                &format!("\"overhead_ratio\": {bad}"),
                1,
            );
            let Ok(doc) = parse(&text) else {
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
            let text = full_adversarial_doc().replace(
                "\"replay_window_ms\": 5000",
                &format!("\"replay_window_ms\": {bad}"),
            );
            let err = validate(&parse(&text).expect("parses")).expect_err("non-positive window");
            assert!(err.contains("must be positive"), "{err}");
        }
    }

    /// A report that measured nothing must not pass the gate.
    #[test]
    fn rejects_an_empty_modes_array() {
        let doc = parse(&adversarial_doc(&[])).expect("parses");
        let err = validate(&doc).expect_err("empty attacks array");
        assert!(err.contains("missing required attack mode"), "{err}");
    }

    #[test]
    fn rejects_non_finite_mode_fields() {
        let text = full_adversarial_doc().replacen(
            "\"completion_secs\": 9.5",
            "\"completion_secs\": 1e999",
            1,
        );
        let err = validate(&parse(&text).expect("parses")).expect_err("infinite completion_secs");
        assert!(
            err.contains("mode \"benign\": \"completion_secs\""),
            "{err}"
        );
    }

    fn attack_entry(mode: &str, extra: &str) -> String {
        format!(
            "{{\"mode\": \"{mode}\", \"completed\": true, \"completion_secs\": 9.5, \
              \"tx_frames\": 120, \"overhead_ratio\": 0.4, \
              \"adverts_rejected_bad_sig\": 0, \"adverts_rejected_replay\": 0, \
              \"peers_expired\": 1, \"segments_rejected_tamper\": 0, \
              \"interests_rejected_replay\": 0, \"flood_frames_dropped\": 0, \
              \"hostile_delivered\": 0, \"hostile_sent\": 0, \
              \"exact_accounting\": true{extra}}}"
        )
    }

    fn adversarial_doc(entries: &[String]) -> String {
        format!(
            "{{\"scenario\": \"adversarial\", {HOST}, \"nodes\": 3, \"seed\": 7, \
             \"replay_window_ms\": 5000, \"attacks\": [{}]}}",
            entries.join(", ")
        )
    }

    fn full_adversarial_doc() -> String {
        let entries: Vec<String> = REQUIRED_ATTACK_MODES
            .iter()
            .map(|m| attack_entry(m, ""))
            .collect();
        adversarial_doc(&entries)
    }

    #[test]
    fn accepts_a_well_formed_adversarial_report() {
        let doc = parse(&full_adversarial_doc()).expect("parses");
        assert_eq!(validate(&doc), Ok(()));
        let table = summary(&doc).expect("summary renders");
        assert!(
            table.contains("`flood`") && table.contains("yes"),
            "{table}"
        );
    }

    #[test]
    fn rejects_adversarial_report_missing_an_attack_mode() {
        let entries: Vec<String> = ["benign", "spoof", "tamper", "replay"]
            .iter()
            .map(|m| attack_entry(m, ""))
            .collect();
        let doc = parse(&adversarial_doc(&entries)).expect("parses");
        let err = validate(&doc).expect_err("missing flood");
        assert!(err.contains("\"flood\""), "{err}");
    }

    #[test]
    fn rejects_negative_and_fractional_defense_counters() {
        for bad in ["-1", "0.5"] {
            let mut entries: Vec<String> = ["benign", "spoof", "tamper", "replay"]
                .iter()
                .map(|m| attack_entry(m, ""))
                .collect();
            entries.push(attack_entry("flood", "").replace(
                "\"flood_frames_dropped\": 0",
                &format!("\"flood_frames_dropped\": {bad}"),
            ));
            let doc = parse(&adversarial_doc(&entries)).expect("parses");
            let err = validate(&doc).expect_err("bad counter");
            assert!(err.contains("flood_frames_dropped"), "{err}");
        }
    }

    #[test]
    fn rejects_failed_accounting_and_incomplete_transfers() {
        for (key, want) in [
            ("exact_accounting", "gate violated"),
            ("completed", "gate violated"),
        ] {
            let mut entries: Vec<String> = ["benign", "spoof", "tamper", "replay"]
                .iter()
                .map(|m| attack_entry(m, ""))
                .collect();
            entries.push(
                attack_entry("flood", "")
                    .replace(&format!("\"{key}\": true"), &format!("\"{key}\": false")),
            );
            let doc = parse(&adversarial_doc(&entries)).expect("parses");
            let err = validate(&doc).expect_err("false gate flag");
            assert!(err.contains(want), "{err}");
        }
    }

    #[test]
    fn rejects_duplicate_attack_modes() {
        let mut entries: Vec<String> = REQUIRED_ATTACK_MODES
            .iter()
            .map(|m| attack_entry(m, ""))
            .collect();
        entries.push(attack_entry("spoof", ""));
        let doc = parse(&adversarial_doc(&entries)).expect("parses");
        let err = validate(&doc).expect_err("duplicate spoof");
        assert!(err.contains("duplicate"), "{err}");
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
