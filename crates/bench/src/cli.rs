//! Strict argv parsing for the bench binaries: a binary states the flags it
//! takes, and anything else on the command line is an error — a stale or
//! mistyped flag must fail the invocation, not be silently ignored.

/// One binary's parsed command line.
#[derive(Debug)]
pub struct Args {
    values: Vec<(String, String)>,
    switches: Vec<String>,
}

impl Args {
    /// Parses the process arguments against the flags that take a value
    /// (`--out path`) and the bare switches (`--quick`). Anything else is
    /// reported on stderr, naming the accepted flags, and exits with
    /// status 2.
    pub fn from_env(value_flags: &[&str], switches: &[&str]) -> Args {
        Self::parse(std::env::args().skip(1), value_flags, switches).unwrap_or_else(|e| usage(&e))
    }

    pub(crate) fn parse<I: IntoIterator<Item = String>>(
        argv: I,
        value_flags: &[&str],
        switches: &[&str],
    ) -> Result<Args, String> {
        let accepted = || {
            let values = value_flags.iter().map(|f| format!("{f} <value>"));
            let all: Vec<String> = values
                .chain(switches.iter().map(|s| s.to_string()))
                .collect();
            all.join(", ")
        };
        let mut args = Args {
            values: Vec::new(),
            switches: Vec::new(),
        };
        let mut argv = argv.into_iter();
        while let Some(arg) = argv.next() {
            if value_flags.contains(&arg.as_str()) {
                let value = argv
                    .next()
                    .ok_or_else(|| format!("{arg} needs a value (accepted: {})", accepted()))?;
                args.values.push((arg, value));
            } else if switches.contains(&arg.as_str()) {
                args.switches.push(arg);
            } else {
                return Err(format!(
                    "unknown argument {arg:?} (accepted: {})",
                    accepted()
                ));
            }
        }
        Ok(args)
    }

    /// The value given for `flag` (the first, if it was repeated).
    pub fn value(&self, flag: &str) -> Option<&str> {
        self.values
            .iter()
            .find(|(f, _)| f == flag)
            .map(|(_, v)| v.as_str())
    }

    /// The value given for `flag`, parsed as a `T`; a value that does not
    /// parse is an error naming the flag and the value.
    pub fn parsed<T: std::str::FromStr>(&self, flag: &str) -> Result<Option<T>, String> {
        let parse = |v: &str| v.parse().map_err(|_| format!("{flag}: cannot parse {v:?}"));
        self.value(flag).map(parse).transpose()
    }

    /// Whether the bare switch `flag` was given.
    pub fn has(&self, flag: &str) -> bool {
        self.switches.iter().any(|s| s == flag)
    }
}

/// Reports a command-line error on stderr and exits with status 2.
pub fn usage(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2);
}

#[cfg(test)]
mod tests {
    use super::*;

    const VALUES: [&str; 3] = ["--out", "--nodes", "--prom-out"];
    const SWITCHES: [&str; 1] = ["--quick"];

    fn parse(argv: &[&str]) -> Result<Args, String> {
        Args::parse(argv.iter().map(|a| a.to_string()), &VALUES, &SWITCHES)
    }

    #[test]
    fn known_flags_parse_in_any_order() {
        let a = parse(&["--quick", "--out", "x.json", "--nodes", "60"]).expect("parses");
        let b = parse(&["--nodes", "60", "--out", "x.json", "--quick"]).expect("parses");
        for args in [a, b] {
            assert!(args.has("--quick"));
            assert_eq!(args.value("--out"), Some("x.json"));
            assert_eq!(args.value("--nodes"), Some("60"));
            assert_eq!(args.value("--prom-out"), None);
        }
        assert!(!parse(&[]).expect("empty argv parses").has("--quick"));
    }

    #[test]
    fn an_unknown_flag_is_an_error_naming_it_and_the_accepted_ones() {
        let err = parse(&["--quick", "--cores", "1,2"]).expect_err("stale flag");
        assert!(err.contains("\"--cores\""), "{err}");
        assert!(
            err.contains("--out <value>") && err.contains("--quick"),
            "{err}"
        );
    }

    #[test]
    fn a_value_that_does_not_parse_is_an_error_naming_the_flag() {
        let args = parse(&["--nodes", "abc", "--out", "7"]).expect("parses");
        let err = args.parsed::<u64>("--nodes").expect_err("not a number");
        assert!(err.contains("--nodes") && err.contains("\"abc\""), "{err}");
        assert_eq!(args.parsed::<u64>("--out"), Ok(Some(7)));
        assert_eq!(args.parsed::<u64>("--prom-out"), Ok(None));
    }

    #[test]
    fn a_value_flag_at_the_end_of_argv_is_an_error() {
        let err = parse(&["--quick", "--out"]).expect_err("no value");
        assert!(err.contains("--out needs a value"), "{err}");
    }
}
