//! The argument parser the measurement binaries share (`trace`,
//! `perfgate`, `forkjoin_calibrate`): `--help` prints the usage text
//! and exits 0; an unknown flag, a missing value or a malformed value
//! prints the problem and the usage text to stderr and exits 2.

use std::fmt::Display;
use std::process;
use std::str::FromStr;

/// The remaining command-line arguments of one binary.
pub struct Args {
    name: &'static str,
    usage: &'static str,
    rest: std::vec::IntoIter<String>,
}

impl Args {
    /// The process arguments (after the program name) of binary `name`,
    /// whose usage text is `usage`.
    pub fn from_env(name: &'static str, usage: &'static str) -> Args {
        Args {
            name,
            usage,
            rest: std::env::args().skip(1).collect::<Vec<_>>().into_iter(),
        }
    }

    /// The next flag; `--help` / `-h` print the usage and exit 0.
    pub fn next_flag(&mut self) -> Option<String> {
        let flag = self.rest.next()?;
        if flag == "--help" || flag == "-h" {
            println!("{}", self.usage);
            process::exit(0);
        }
        Some(flag)
    }

    /// The value following `flag`.
    pub fn value(&mut self, flag: &str) -> String {
        match self.rest.next() {
            Some(v) => v,
            None => self.fail(format!("{flag} needs a value")),
        }
    }

    /// The value following `flag`, parsed as a `T`.
    pub fn parsed<T: FromStr>(&mut self, flag: &str) -> T
    where
        T::Err: Display,
    {
        let raw = self.value(flag);
        raw.parse()
            .unwrap_or_else(|e| self.fail(format!("{flag} {raw:?}: {e}")))
    }

    /// Rejects `flag` as unknown.
    pub fn unknown(&self, flag: &str) -> ! {
        self.fail(format!("unknown argument {flag:?}"))
    }

    /// Prints `problem` and the usage text to stderr and exits 2.
    pub fn fail(&self, problem: impl Display) -> ! {
        eprintln!("{}: {problem}\n{}", self.name, self.usage);
        process::exit(2)
    }
}
