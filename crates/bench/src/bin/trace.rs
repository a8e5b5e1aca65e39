//! Capture a Chrome-trace of one guarded kernel run, or validate an
//! existing trace file.
//!
//! ```text
//! trace [--kernel NAME] [--dataset NAME] [--threads N]
//!       [--out PATH] [--snapshot PATH]
//! trace --validate PATH
//! ```
//!
//! Capture mode arms the flight recorder, runs the kernel twice under
//! the full guarded pipeline (plus one synthetic guarded decision whose
//! admitted variant opens a fork-join region, so analysis-serial kernels
//! still exercise fork-join and the guard),
//! writes the Chrome `trace_event` JSON and the `subsub-telemetry/v1`
//! metrics snapshot, and self-validates the emitted trace — exiting
//! nonzero if it is malformed or missing a required span family. Load
//! the output at `chrome://tracing` or <https://ui.perfetto.dev>.

use std::process;
use subsub_bench::cli::Args;
use subsub_bench::trace::{capture_trace, counter_lines, summarize, validate_trace_file};

const USAGE: &str = "usage: trace [--kernel NAME] [--dataset NAME] [--threads N] \
                     [--out PATH] [--snapshot PATH]\n       trace --validate PATH";

fn main() {
    let mut kernel = "AMGmk".to_string();
    let mut dataset: Option<String> = None;
    let mut threads = 4usize;
    let mut out = "target/BENCH_trace.json".to_string();
    let mut snapshot = "target/BENCH_telemetry.json".to_string();
    let mut validate: Option<String> = None;

    let mut args = Args::from_env("trace", USAGE);
    while let Some(flag) = args.next_flag() {
        match flag.as_str() {
            "--kernel" => kernel = args.value(&flag),
            "--dataset" => dataset = Some(args.value(&flag)),
            "--threads" => threads = args.parsed(&flag),
            "--out" => out = args.value(&flag),
            "--snapshot" => snapshot = args.value(&flag),
            "--validate" => validate = Some(args.value(&flag)),
            other => args.unknown(other),
        }
    }

    if let Some(path) = validate {
        let doc = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            eprintln!("trace: cannot read {path}: {e}");
            process::exit(1);
        });
        match validate_trace_file(&doc) {
            Ok(summary) => {
                println!(
                    "{path}: valid Chrome trace ({} spans, {} instants, {} threads)",
                    summary.spans, summary.instants, summary.threads
                );
            }
            Err(e) => {
                eprintln!("trace: {path}: INVALID: {e}");
                process::exit(1);
            }
        }
        return;
    }

    let art = match capture_trace(&kernel, dataset.as_deref(), threads) {
        Ok(art) => art,
        Err(e) => {
            eprintln!("trace: capture failed: {e}");
            process::exit(1);
        }
    };
    if let Some(dir) = std::path::Path::new(&out).parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    if let Some(dir) = std::path::Path::new(&snapshot).parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    if let Err(e) = std::fs::write(&out, &art.chrome_json) {
        eprintln!("trace: cannot write {out}: {e}");
        process::exit(1);
    }
    if let Err(e) = std::fs::write(&snapshot, &art.snapshot_json) {
        eprintln!("trace: cannot write {snapshot}: {e}");
        process::exit(1);
    }

    println!("kernel {kernel} on {threads} threads");
    println!("{}", summarize(&art.summary, art.events));
    for line in counter_lines() {
        println!("  {line}");
    }
    println!("chrome trace  -> {out}");
    println!("metrics snap  -> {snapshot}");
}
