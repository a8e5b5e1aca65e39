//! `perfbench --workload <names> [--seed <n>] [--seconds <s>] [--trace <0|1>]`
//!
//! Runs each named workload and prints its metrics, its stamp, and a
//! final JSON result line. Bad arguments print the usage text and exit
//! with code 2; a workload that cannot be set up exits with code 1.

use std::process::ExitCode;
use std::time::Instant;
use subsub_perfbench::args::{self, ArgError, USAGE};
use subsub_perfbench::run_workload;

fn main() -> ExitCode {
    let process_start = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let a = match args::parse(&argv) {
        Ok(a) => a,
        Err(ArgError::Help) => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("perfbench: {e}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    for (i, name) in a.workloads.iter().enumerate() {
        let start = (i == 0).then_some(process_start);
        match run_workload(name, a.seed, a.window, a.trace, start) {
            Ok(r) => {
                println!("{}", r.report());
                println!("{}", r.to_json());
            }
            Err(e) => {
                eprintln!("perfbench: {name}: setup failed: {e}");
                return ExitCode::from(1);
            }
        }
    }
    ExitCode::SUCCESS
}
