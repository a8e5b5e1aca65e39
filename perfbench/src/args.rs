//! Command-line arguments. Every malformed invocation is a typed error
//! that `main` turns into the usage text and exit code 2.

use std::fmt;
use std::time::Duration;

/// The workloads, in the order `--workload all` runs them.
pub const WORKLOADS: [&str; 4] = ["analyze", "execute-hot", "execute-tiny", "revalidate"];

/// Usage text printed with every argument error.
pub const USAGE: &str = "\
usage: perfbench --workload <names> [--seed <n>] [--seconds <s>] [--trace <0|1>]

  --workload <names>  one of analyze, execute-hot, execute-tiny, revalidate,
                      a comma-separated subset of them, or `all`
  --seed <n>          unsigned 64-bit seed for the generated inputs (default 1)
  --seconds <s>       measurement window per workload, in seconds (default 10)
  --trace <0|1>       0: end-to-end metrics; 1: per-layer metrics from a
                      traced replay (default 0)

Each workload prints its metrics and ends with one JSON result line.";

/// A checked invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// Workloads to run, in order, each named in [`WORKLOADS`].
    pub workloads: Vec<&'static str>,
    /// Seed every generated input derives from.
    pub seed: u64,
    /// Length of the measurement window.
    pub window: Duration,
    /// Whether to run the traced replay instead of the plain run.
    pub trace: bool,
}

/// Why the command line was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgError {
    /// `--help` was asked for (not an error, but no run either).
    Help,
    /// A flag this program does not know.
    Unknown(String),
    /// A flag given without its value.
    MissingValue(&'static str),
    /// A flag given twice.
    Repeated(&'static str),
    /// A value that does not parse or is out of range.
    BadValue {
        /// The flag.
        flag: &'static str,
        /// What was given.
        value: String,
        /// What is accepted.
        expected: &'static str,
    },
    /// `--workload` was not given.
    NoWorkload,
}

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArgError::Help => write!(f, "help requested"),
            ArgError::Unknown(a) => write!(f, "unknown argument `{a}`"),
            ArgError::MissingValue(flag) => write!(f, "{flag} needs a value"),
            ArgError::Repeated(flag) => write!(f, "{flag} given more than once"),
            ArgError::BadValue {
                flag,
                value,
                expected,
            } => write!(f, "bad value `{value}` for {flag}: expected {expected}"),
            ArgError::NoWorkload => write!(f, "--workload is required"),
        }
    }
}

const MAX_SECONDS: f64 = 600.0;

fn parse_workloads(value: &str) -> Result<Vec<&'static str>, ArgError> {
    let bad = || ArgError::BadValue {
        flag: "--workload",
        value: value.to_string(),
        expected: "analyze, execute-hot, execute-tiny, revalidate, a comma list, or all",
    };
    if value == "all" {
        return Ok(WORKLOADS.to_vec());
    }
    let mut out = Vec::new();
    for name in value.split(',') {
        let known = WORKLOADS.iter().find(|w| **w == name).ok_or_else(bad)?;
        if out.contains(known) {
            return Err(bad());
        }
        out.push(*known);
    }
    Ok(out)
}

/// Parses the arguments after the program name.
pub fn parse(argv: &[String]) -> Result<Args, ArgError> {
    let mut workloads = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let flag: &'static str = match arg.as_str() {
            "-h" | "--help" => return Err(ArgError::Help),
            "--workload" => "--workload",
            "--seed" => "--seed",
            "--seconds" => "--seconds",
            "--trace" => "--trace",
            other => return Err(ArgError::Unknown(other.to_string())),
        };
        let value = it.next().ok_or(ArgError::MissingValue(flag))?;
        let bad = |expected| ArgError::BadValue {
            flag,
            value: value.clone(),
            expected,
        };
        let repeated = match flag {
            "--workload" => workloads.replace(parse_workloads(value)?).is_some(),
            "--seed" => seed
                .replace(
                    value
                        .parse::<u64>()
                        .map_err(|_| bad("an unsigned integer"))?,
                )
                .is_some(),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0 && *s <= MAX_SECONDS)
                    .ok_or_else(|| bad("a number of seconds in (0, 600]"))?;
                seconds.replace(s).is_some()
            }
            _ => {
                let t = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                };
                trace.replace(t).is_some()
            }
        };
        if repeated {
            return Err(ArgError::Repeated(flag));
        }
    }
    Ok(Args {
        workloads: workloads.ok_or(ArgError::NoWorkload)?,
        seed: seed.unwrap_or(1),
        window: Duration::from_secs_f64(seconds.unwrap_or(10.0)),
        trace: trace.unwrap_or(false),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn full_invocation_parses() {
        let a = parse(&argv(
            "--workload execute-hot --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workloads, vec!["execute-hot"]);
        assert_eq!(a.seed, 7);
        assert_eq!(a.window, Duration::from_secs(10));
        assert!(a.trace);
    }

    #[test]
    fn subsets_and_all() {
        let a = parse(&argv("--workload revalidate,analyze")).unwrap();
        assert_eq!(a.workloads, vec!["revalidate", "analyze"]);
        assert_eq!(parse(&argv("--workload all")).unwrap().workloads.len(), 4);
    }

    #[test]
    fn bad_arguments_are_typed_errors() {
        for (line, want) in [
            ("--workload nope", "--workload"),
            ("--workload analyze,analyze", "--workload"),
            ("--workload analyze --seed -3", "--seed"),
            ("--workload analyze --seconds 0", "--seconds"),
            ("--workload analyze --seconds nan", "--seconds"),
            ("--workload analyze --trace 2", "--trace"),
        ] {
            match parse(&argv(line)) {
                Err(ArgError::BadValue { flag, .. }) => assert_eq!(flag, want, "{line}"),
                other => panic!("{line}: {other:?}"),
            }
        }
        assert_eq!(
            parse(&argv("--workload analyze --frobnicate")),
            Err(ArgError::Unknown("--frobnicate".into()))
        );
        assert_eq!(
            parse(&argv("--workload")),
            Err(ArgError::MissingValue("--workload"))
        );
        assert_eq!(
            parse(&argv("--workload analyze --seed 1 --seed 2")),
            Err(ArgError::Repeated("--seed"))
        );
        assert_eq!(parse(&argv("--seed 1")), Err(ArgError::NoWorkload));
        assert_eq!(parse(&argv("--help")), Err(ArgError::Help));
    }
}
