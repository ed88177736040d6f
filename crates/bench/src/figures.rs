//! One reproduction function per figure of the paper's evaluation (§VI).
//!
//! Each function sweeps the figure's x-axis, runs seeded trials per point,
//! and prints the series the figure plots, next to the paper's qualitative
//! expectation. ROADMAP.md's "Measured at this re-anchor" table compares
//! the quick profile with the paper; its item 7 plans a checked artifact.

use crate::cli::Args;
use crate::profile::Profile;
use crate::report::{kilo, pct, secs, Table};
use crate::scenario::run_trials;
use dapes_core::prelude::*;
use dapes_testutil::Protocol;

fn dapes(cfg: DapesConfig) -> Protocol {
    Protocol::Dapes(Box::new(cfg))
}

fn cfg_with(f: impl FnOnce(&mut DapesConfig)) -> DapesConfig {
    let mut c = DapesConfig::default();
    f(&mut c);
    c
}

/// Fig. 9a — download time vs Wi-Fi range for the RPF flavours × start
/// packet policies (bitmaps-first exchange, as in the paper's caption).
pub fn fig9a(profile: Profile) {
    println!("{}", profile.describe());
    let (encounter, local) = (RpfVariant::EncounterBased, RpfVariant::LocalNeighborhood);
    let (same, random) = (StartPacket::Same, StartPacket::Random);
    let series: Vec<(&str, DapesConfig)> = [
        ("same+encounter", encounter, same),
        ("rand+encounter", encounter, random),
        ("same+local", local, same),
        ("rand+local", local, random),
    ]
    .map(|(label, rpf, start)| {
        let schedule = AdvertSchedule::BitmapsFirst(BitmapBudget::All);
        (
            label,
            cfg_with(|c| (c.rpf, c.start, c.schedule) = (rpf, start, schedule)),
        )
    })
    .into();
    sweep_ranges(
        profile,
        "Fig 9a: download time (s) by RPF strategy / start packet",
        &series,
        Metric::Time,
    );
    println!("paper expectation: local beats encounter by ~12-14%; random start beats same by ~11-15%; time falls with range\n");
}

/// Fig. 9b — transmissions vs Wi-Fi range, with and without PEBA.
pub fn fig9b(profile: Profile) {
    println!("{}", profile.describe());
    let (encounter, local) = (RpfVariant::EncounterBased, RpfVariant::LocalNeighborhood);
    let series: Vec<(&str, DapesConfig)> = [
        ("encounter w/o PEBA", encounter, false),
        ("local w/o PEBA", local, false),
        ("encounter PEBA", encounter, true),
        ("local PEBA", local, true),
    ]
    .map(|(label, rpf, peba)| (label, cfg_with(|c| (c.rpf, c.peba) = (rpf, peba))))
    .into();
    sweep_ranges(
        profile,
        "Fig 9b: transmissions (x1000) by RPF / PEBA",
        &series,
        Metric::Transmissions,
    );
    println!("paper expectation: PEBA cuts transmissions 22-28%; counts grow with range\n");
}

/// Fig. 9c — download time when peers fetch b bitmaps *before* data.
pub fn fig9c(profile: Profile) {
    println!("{}", profile.describe());
    let series = bitmap_budget_series(AdvertSchedule::BitmapsFirst);
    sweep_ranges(
        profile,
        "Fig 9c: download time (s), bitmaps exchanged before data",
        &series,
        Metric::Time,
    );
    println!("paper expectation: 2-3 bitmaps best at short ranges, 4 at long; 'all' wastes encounter time\n");
}

/// Fig. 9d — download time when bitmap and data exchanges interleave.
pub fn fig9d(profile: Profile) {
    println!("{}", profile.describe());
    let series = bitmap_budget_series(AdvertSchedule::Interleaved);
    sweep_ranges(
        profile,
        "Fig 9d: download time (s), interleaved bitmap/data exchange",
        &series,
        Metric::Time,
    );
    println!("paper expectation: interleaving beats bitmaps-first by 16-23%\n");
}

fn bitmap_budget_series(
    make: impl Fn(BitmapBudget) -> AdvertSchedule,
) -> Vec<(&'static str, DapesConfig)> {
    let budgets: Vec<(&str, BitmapBudget)> = vec![
        ("1 bitmap", BitmapBudget::Count(1)),
        ("2 bitmaps", BitmapBudget::Count(2)),
        ("3 bitmaps", BitmapBudget::Count(3)),
        ("4 bitmaps", BitmapBudget::Count(4)),
        ("all bitmaps", BitmapBudget::All),
    ];
    budgets
        .into_iter()
        .map(|(label, b)| {
            let schedule = make(b);
            (label, cfg_with(|c| c.schedule = schedule))
        })
        .collect()
}

/// Fig. 9e — download time for a varying number of files (1 MB each).
pub fn fig9e(profile: Profile) {
    println!("{}", profile.describe());
    let mut table = Table::new(
        "Fig 9e: download time (s) by number of files (range sweep)",
        header_with_ranges(profile, "files"),
    );
    for count in profile.file_counts() {
        let mut cells = vec![count.to_string()];
        for range in profile.ranges() {
            let mut p = profile.base_params();
            p.range = range;
            p.n_files = count;
            let s = run_trials(&dapes(DapesConfig::default()), &p, profile.trials());
            cells.push(secs(s.p90_download_time_s));
        }
        table.row(cells);
    }
    table.print();
    println!("paper expectation: time grows with collection size; curve shapes persist\n");
}

/// Fig. 9f — download time for varying file sizes (ten files).
pub fn fig9f(profile: Profile) {
    println!("{}", profile.describe());
    let mut table = Table::new(
        "Fig 9f: download time (s) by file size (range sweep)",
        header_with_ranges(profile, "file size"),
    );
    for size in profile.file_sizes() {
        let mut cells = vec![format!("{}KB", size / 1024)];
        for range in profile.ranges() {
            let mut p = profile.base_params();
            p.range = range;
            p.file_size = size;
            let s = run_trials(&dapes(DapesConfig::default()), &p, profile.trials());
            cells.push(secs(s.p90_download_time_s));
        }
        table.row(cells);
    }
    table.print();
    println!("paper expectation: time grows with total bytes; properties hold as size grows\n");
}

/// Fig. 9g — download time: single-hop vs multi-hop forwarding probability.
pub fn fig9g(profile: Profile) {
    println!("{}", profile.describe());
    let series = forwarding_series();
    sweep_ranges(
        profile,
        "Fig 9g: download time (s) by forwarding probability",
        &series,
        Metric::Time,
    );
    println!("paper expectation: 20-60% forwarding cuts time 12-23% vs single-hop\n");
}

/// Fig. 9h — transmissions: single-hop vs multi-hop forwarding probability.
pub fn fig9h(profile: Profile) {
    println!("{}", profile.describe());
    let series = forwarding_series();
    sweep_ranges(
        profile,
        "Fig 9h: transmissions (x1000) by forwarding probability",
        &series,
        Metric::Transmissions,
    );
    println!("paper expectation: multi-hop adds 14-38% transmissions over single-hop\n");
}

fn forwarding_series() -> Vec<(&'static str, DapesConfig)> {
    vec![
        ("single-hop", DapesConfig::single_hop()),
        ("multi-hop p=20%", cfg_with(|c| c.forward_prob = 0.20)),
        ("multi-hop p=40%", cfg_with(|c| c.forward_prob = 0.40)),
        ("multi-hop p=60%", cfg_with(|c| c.forward_prob = 0.60)),
    ]
}

/// Fig. 10a — download time: DAPES vs Bithoc vs Ekta.
pub fn fig10a(profile: Profile) {
    println!("{}", profile.describe());
    compare_protocols(profile, "Fig 10a: download time (s)", Metric::Time);
    println!("paper expectation: DAPES 15-27% faster than Bithoc, 19-33% faster than Ekta\n");
}

/// Fig. 10b — transmissions: DAPES vs Bithoc vs Ekta.
pub fn fig10b(profile: Profile) {
    println!("{}", profile.describe());
    compare_protocols(
        profile,
        "Fig 10b: transmissions (x1000)",
        Metric::Transmissions,
    );
    println!("paper expectation: DAPES 62-71% fewer tx than Bithoc, 50-59% fewer than Ekta; ~83% of forwarded Interests return data\n");
}

enum Metric {
    Time,
    Transmissions,
}

fn header_with_ranges(profile: Profile, first: &str) -> Vec<String> {
    let ranges = profile.ranges().into_iter().map(|r| format!("{r:.0}m"));
    std::iter::once(first.to_owned()).chain(ranges).collect()
}

fn sweep_ranges(profile: Profile, title: &str, series: &[(&str, DapesConfig)], metric: Metric) {
    let mut table = Table::new(title, header_with_ranges(profile, "series"));
    for (label, cfg) in series {
        let mut cells = vec![label.to_string()];
        for range in profile.ranges() {
            let mut p = profile.base_params();
            p.range = range;
            let s = run_trials(&dapes(cfg.clone()), &p, profile.trials());
            cells.push(match metric {
                Metric::Time => secs(s.p90_download_time_s),
                Metric::Transmissions => kilo(s.p90_transmissions),
            });
        }
        table.row(cells);
    }
    table.print();
}

fn compare_protocols(profile: Profile, title: &str, metric: Metric) {
    let mut table = Table::new(title, header_with_ranges(profile, "protocol"));
    let protocols: Vec<(&str, Protocol)> = vec![
        ("DAPES", Protocol::Dapes(Box::default())),
        ("Bithoc", Protocol::Bithoc),
        ("Ekta", Protocol::Ekta),
    ];
    let mut dapes_accuracy: Option<f64> = None;
    for (label, protocol) in &protocols {
        let mut cells = vec![label.to_string()];
        for range in profile.ranges() {
            let mut p = profile.base_params();
            p.range = range;
            let s = run_trials(protocol, &p, profile.trials());
            if matches!(protocol, Protocol::Dapes(_)) {
                dapes_accuracy = dapes_accuracy.or(s.forward_accuracy);
            }
            cells.push(match metric {
                Metric::Time => secs(s.p90_download_time_s),
                Metric::Transmissions => kilo(s.p90_transmissions),
            });
        }
        table.row(cells);
    }
    table.print();
    println!(
        "DAPES forwarded-Interest accuracy: {} (paper: 83%)",
        pct(dapes_accuracy)
    );
}

/// One experiment: its name and the function that reproduces it.
pub type Experiment = (&'static str, fn(Profile));

/// Every experiment of the evaluation, in paper order.
pub const ALL_EXPERIMENTS: [Experiment; 11] = [
    ("fig9a", fig9a),
    ("fig9b", fig9b),
    ("fig9c", fig9c),
    ("fig9d", fig9d),
    ("fig9e", fig9e),
    ("fig9f", fig9f),
    ("fig9g", fig9g),
    ("fig9h", fig9h),
    ("fig10a", fig10a),
    ("fig10b", fig10b),
    ("table1", crate::table1::table1),
];

/// The experiment called `name`; an unknown name is an error naming every
/// entry of [`ALL_EXPERIMENTS`].
pub fn experiment(name: &str) -> Result<Experiment, String> {
    ALL_EXPERIMENTS
        .into_iter()
        .find(|(n, _)| *n == name)
        .ok_or_else(|| {
            let names: Vec<&str> = ALL_EXPERIMENTS.iter().map(|(n, _)| *n).collect();
            format!(
                "unknown experiment {name:?}: expected one of {}",
                names.join("|")
            )
        })
}

/// What the `all` binary runs, read from its command line
/// `[--profile quick|paper] [--only <experiment>]`: the quick profile and
/// every experiment unless told otherwise. Any other argument, profile or
/// experiment name is an error naming what is accepted.
pub fn select<I: IntoIterator<Item = String>>(
    argv: I,
) -> Result<(Profile, Vec<Experiment>), String> {
    let args = Args::parse(argv, &["--profile", "--only"], &[])?;
    let profile = args
        .value("--profile")
        .map_or(Ok(Profile::Quick), Profile::parse)?;
    let experiments = match args.value("--only") {
        Some(name) => vec![experiment(name)?],
        None => ALL_EXPERIMENTS.to_vec(),
    };
    Ok((profile, experiments))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn select_from(argv: &[&str]) -> Result<(Profile, Vec<&'static str>), String> {
        let (profile, experiments) = select(argv.iter().map(|a| a.to_string()))?;
        Ok((profile, experiments.iter().map(|(n, _)| *n).collect()))
    }

    #[test]
    fn every_experiment_is_found_by_name_and_an_unknown_one_names_them_all() {
        for (name, _) in ALL_EXPERIMENTS {
            assert_eq!(experiment(name).map(|(n, _)| n), Ok(name));
        }
        let err = experiment("fig9z").expect_err("no such experiment");
        assert!(err.contains("\"fig9z\""), "{err}");
        for (name, _) in ALL_EXPERIMENTS {
            assert!(err.contains(name), "{err}");
        }
    }

    #[test]
    fn the_all_command_line_selects_a_profile_and_experiments_or_fails() {
        let everything: Vec<&str> = ALL_EXPERIMENTS.iter().map(|(n, _)| *n).collect();
        assert_eq!(select_from(&[]), Ok((Profile::Quick, everything)));
        assert_eq!(
            select_from(&["--only", "fig10a", "--profile", "paper"]),
            Ok((Profile::Paper, vec!["fig10a"]))
        );
        // A mistyped flag, profile or experiment fails instead of running
        // the quick profile or nothing.
        for (argv, want) in [
            (&["--prfile", "paper"][..], "\"--prfile\""),
            (&["--profile", "papr"], "quick|paper"),
            (&["--only", "fig11"], "table1"),
        ] {
            let err = select_from(argv).expect_err("bad argv");
            assert!(err.contains(want), "{argv:?}: {err}");
        }
    }
}
