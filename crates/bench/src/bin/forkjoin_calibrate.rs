//! Measures the machine's real fork-join constants and emits
//! `BENCH_forkjoin.json`, the calibration file `omprt::sim` loads.
//!
//! Two quantities are measured, both against live pools:
//!
//! * **fork-join latency** — median over 7 samples of back-to-back empty
//!   regions of the claim-based [`ThreadPool`], at each requested thread
//!   count.
//! * **dynamic dispatch overhead** — the extra cost of `dynamic(1)`
//!   self-scheduling over `static` for the same trivial loop, divided by
//!   the number of batched claims the dynamic schedule actually issues.
//!
//! Usage:
//!
//! ```text
//! forkjoin_calibrate [--quick] [--out PATH] [--threads 1,2,4]
//! forkjoin_calibrate --validate PATH
//! ```
//!
//! `--validate` re-parses an emitted file through the strict JSON parser
//! *and* the same `MachineCalibration` scanner the simulator uses, and
//! fails loudly if the constants are missing, non-finite, or
//! non-positive — this is the CI smoke check. When `--threads` is given
//! alongside `--validate`, the file's measured `series` must match those
//! thread counts exactly (with the calibration point at the last of
//! them), so a stale file measured at the wrong team sizes cannot pass.

use std::time::Instant;
use subsub_bench::calibration::validate_calibration_doc;
use subsub_bench::cli;
use subsub_omprt::schedule::dynamic_batch;
use subsub_omprt::{MachineCalibration, Schedule, ThreadPool};

/// Measured samples per statistic (the acceptance criterion requires a
/// median of at least 7).
const SAMPLES: usize = 7;

struct Args {
    quick: bool,
    out: String,
    validate: Option<String>,
    threads: Vec<usize>,
    /// Whether `--threads` was given on the command line (an explicit
    /// list makes `--validate` enforce the series thread counts; the
    /// default list does not, so plain `--validate PATH` keeps working
    /// on files measured with any counts).
    threads_explicit: bool,
}

const USAGE: &str = "usage: forkjoin_calibrate [--quick] [--out PATH] [--threads 1,2,4]\n       \
                     forkjoin_calibrate --validate PATH [--threads 1,2,4]";

fn parse_args() -> Args {
    let mut args = Args {
        quick: false,
        out: "BENCH_forkjoin.json".to_string(),
        validate: None,
        threads: vec![1, 2, 4],
        threads_explicit: false,
    };
    let mut cli = cli::Args::from_env("forkjoin_calibrate", USAGE);
    while let Some(flag) = cli.next_flag() {
        match flag.as_str() {
            "--quick" => args.quick = true,
            "--out" => args.out = cli.value(&flag),
            "--validate" => args.validate = Some(cli.value(&flag)),
            "--threads" => {
                let list = cli.value(&flag);
                args.threads = list
                    .split(',')
                    .map(|s| s.trim().parse().ok().filter(|&t: &usize| t > 0))
                    .collect::<Option<_>>()
                    .unwrap_or_else(|| {
                        cli.fail(format!("--threads {list:?}: expected positive integers"))
                    });
                args.threads_explicit = true;
            }
            other => cli.unknown(other),
        }
    }
    args
}

/// Median of `SAMPLES` timings of `regions` calls to `f`, in ns/call.
fn median_ns(regions: u32, mut f: impl FnMut()) -> f64 {
    let mut v: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..regions {
                f();
            }
            t0.elapsed().as_nanos() as f64 / regions as f64
        })
        .collect();
    v.sort_by(f64::total_cmp);
    v[SAMPLES / 2]
}

/// Per-claim overhead of dynamic self-scheduling: time the same trivial
/// loop under `static` and `dynamic(1)` and attribute the difference to
/// the dynamic claims.
fn dispatch_overhead_ns(pool: &ThreadPool, quick: bool) -> f64 {
    let n: usize = if quick { 50_000 } else { 200_000 };
    let reps: u32 = if quick { 3 } else { 10 };
    let body = |i: usize| {
        std::hint::black_box(i);
    };
    let t_static = median_ns(reps, || {
        pool.parallel_for(n, Schedule::static_default(), body)
    });
    let t_dyn = median_ns(reps, || {
        pool.parallel_for(n, Schedule::Dynamic { chunk: 1 }, body)
    });
    let claim = dynamic_batch(n, pool.threads(), 1);
    let claims = n.div_ceil(claim) as f64;
    // A noisy machine can time dynamic faster than static; clamp to a
    // token positive value so the calibration file stays valid.
    ((t_dyn - t_static) / claims).max(0.1)
}

fn validate(path: &str, requested: Option<&[usize]>) -> Result<(), String> {
    let doc = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let s = validate_calibration_doc(&doc, requested).map_err(|e| format!("{path}: {e}"))?;
    println!(
        "{path}: OK (fork_join_ns={:.1}, dispatch_ns={:.2}, cal_threads={}, series={:?})",
        s.fork_join_ns, s.dispatch_ns, s.cal_threads, s.series_threads
    );
    Ok(())
}

fn main() {
    let args = parse_args();
    if let Some(path) = &args.validate {
        let requested = args.threads_explicit.then_some(args.threads.as_slice());
        if let Err(e) = validate(path, requested) {
            eprintln!("forkjoin_calibrate: {e}");
            std::process::exit(1);
        }
        return;
    }

    let regions: u32 = if args.quick { 60 } else { 300 };
    println!(
        "fork-join calibration: {SAMPLES} samples x {regions} regions per point{}",
        if args.quick { " (quick)" } else { "" }
    );
    println!("{:>8} {:>14}", "threads", "fork-join (ns)");

    let mut series = Vec::new();
    for &t in &args.threads {
        let pool = ThreadPool::new(t);
        for _ in 0..regions {
            pool.run(|_| {});
        }
        let ns = median_ns(regions, || pool.run(|_| {}));
        println!("{t:>8} {ns:>14.1}");
        series.push((t, ns));
    }

    // Calibration point: the largest requested team (the paper's tables
    // quote 4 threads by default).
    let &(cal_threads, fork_join_ns) = series.last().expect("at least one thread count");
    let dispatch_ns = {
        let pool = ThreadPool::new(cal_threads);
        dispatch_overhead_ns(&pool, args.quick)
    };
    println!("dispatch overhead at {cal_threads} threads: {dispatch_ns:.2} ns/claim");

    let series_json = series
        .iter()
        .map(|(t, n)| format!("{{\"threads\":{t},\"ns\":{n:.1}}}"))
        .collect::<Vec<_>>()
        .join(",");
    let doc = format!(
        "{{\n  \"schema\": \"subsub-forkjoin/v2\",\n  \"quick\": {},\n  \"cal_threads\": {},\n  \
         \"fork_join_ns\": {:.1},\n  \"dispatch_ns\": {:.2},\n  \"series\": [{}]\n}}\n",
        args.quick, cal_threads, fork_join_ns, dispatch_ns, series_json
    );
    // Dogfood: the emitted document must round-trip through the parser
    // the simulator will use.
    assert!(
        MachineCalibration::parse_json(&doc).is_some(),
        "emitted JSON failed self-validation"
    );
    std::fs::write(&args.out, &doc).expect("write calibration file");
    println!("wrote {}", args.out);
}
