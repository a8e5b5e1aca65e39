//! Perf-regression CI gate.
//!
//! ```text
//! perfgate [--baseline PATH] [--tolerance FRAC]   # compare, exit 1 on regression
//! perfgate --update [--baseline PATH]             # (re)write the baseline
//! ```
//!
//! Runs the pinned micro-suite (fork-join latency, inspector
//! throughput, three representative serial kernels) and compares each
//! median against the committed `BENCH_baseline.json`. A median beyond
//! baseline × (1 + tolerance) fails the gate; one beyond the band in
//! the fast direction only warns, with a suggestion to refresh the
//! baseline. Run with `--update` after an intentional perf change and
//! commit the new baseline alongside it.

use std::process;
use subsub_bench::cli::Args;
use subsub_bench::perfgate::{
    baseline_json, compare, parse_baseline, passes, run_suite, GateStatus, DEFAULT_TOLERANCE,
};

const USAGE: &str = "usage: perfgate [--baseline PATH] [--tolerance FRAC]\n       \
                     perfgate --update [--baseline PATH]";

fn main() {
    let mut baseline_path = "BENCH_baseline.json".to_string();
    let mut tolerance = DEFAULT_TOLERANCE;
    let mut update = false;

    let mut args = Args::from_env("perfgate", USAGE);
    while let Some(flag) = args.next_flag() {
        match flag.as_str() {
            "--baseline" => baseline_path = args.value(&flag),
            "--tolerance" => tolerance = args.parsed(&flag),
            "--update" => update = true,
            other => args.unknown(other),
        }
    }
    if !(tolerance > 0.0 && tolerance < 1.0) {
        args.fail(format!("--tolerance {tolerance} is not in (0, 1)"));
    }

    let results = run_suite();

    if update {
        let doc = baseline_json(&results);
        if let Err(e) = std::fs::write(&baseline_path, format!("{doc}\n")) {
            eprintln!("perfgate: cannot write {baseline_path}: {e}");
            process::exit(1);
        }
        println!(
            "perfgate: wrote {} entries to {baseline_path}",
            results.len()
        );
        return;
    }

    let doc = std::fs::read_to_string(&baseline_path).unwrap_or_else(|e| {
        eprintln!("perfgate: cannot read {baseline_path}: {e} (run `perfgate --update` once)");
        process::exit(1);
    });
    let baseline = parse_baseline(&doc).unwrap_or_else(|e| {
        eprintln!("perfgate: {baseline_path}: {e}");
        process::exit(1);
    });

    let rows = compare(&results, &baseline, tolerance);
    println!();
    println!(
        "perfgate vs {baseline_path} (tolerance ±{:.0}%)",
        tolerance * 100.0
    );
    for row in &rows {
        let ratio = row
            .ratio()
            .map(|r| format!("{r:>6.2}x"))
            .unwrap_or_else(|| "     —".to_string());
        let base = row
            .baseline_ns
            .map(|b| b.to_string())
            .unwrap_or_else(|| "—".to_string());
        let tag = match row.status {
            GateStatus::Ok => "ok",
            GateStatus::Improved => "IMPROVED (refresh baseline?)",
            GateStatus::Regressed => "REGRESSED",
            GateStatus::Missing => "MISSING FROM BASELINE",
        };
        println!(
            "  {:<28} base {:>12} ns  now {:>12} ns  {ratio}  {tag}",
            row.name, base, row.current_ns
        );
    }
    if passes(&rows) {
        println!("perfgate: PASS ({} entries)", rows.len());
    } else {
        eprintln!("perfgate: FAIL — regression or stale baseline (see rows above)");
        process::exit(1);
    }
}
