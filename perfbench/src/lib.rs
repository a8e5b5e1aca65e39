//! Seeded closed-loop benchmark of the subscripted-subscript analysis
//! service and its layers.
//!
//! One command runs named workloads from a seed, checks every reply
//! against a reference that does not come from the code under test, and
//! prints each metric by name with its unit, ending with one JSON result
//! line. The plain run (`--trace 0`) reports the end-to-end metrics; the
//! traced run (`--trace 1`) replays the same operation stream with spans
//! recorded around every public layer call (`service`, `cfront`, `ir`,
//! `core`, `rtcheck`, `kernels`, `omprt`) and reports per-layer metrics.
//! Nothing is traced inside the program itself.

pub mod args;
pub mod expect;
pub mod host;
pub mod stats;
pub mod trace;
pub mod workload;

use std::path::PathBuf;
use std::time::{Duration, Instant};
use subsub_omprt::{Schedule, ThreadPool};

use host::{process_cpu, Rng, Stamp};
use stats::{median, Latency};
use trace::Trace;
use workload::{Step, WarmUp, Workload};

/// Nominal length of one epoch of a plain run. Each epoch sets the
/// workload up from scratch (a fresh service, fresh threads) and
/// measures an equal share of the window; timings are medians over
/// epochs. On a shared host the speed of the same work moves by 10 to
/// 20% from one second to the next, so many short epochs let the
/// median step over the slow seconds that a few long epochs would
/// average in.
pub const EPOCH: Duration = Duration::from_secs(1);

/// Fewest epochs of a plain run, for windows shorter than ten epochs.
pub const MIN_EPOCHS: u32 = 10;

/// Epochs of a plain run over `window`.
pub fn epochs(window: Duration) -> u32 {
    ((window.as_secs_f64() / EPOCH.as_secs_f64()).round() as u32).max(MIN_EPOCHS)
}

/// Latency samples kept per phase. Beyond this many operations the
/// samples are a uniform reservoir draw. The buffer is written in full
/// before timing starts, so the benchmark's own sample memory is the
/// same in every run and `peak_rss_mib` moves only with the program.
pub const RESERVOIR: usize = 1 << 18;

/// Operations the traced half records at most, which bounds the spans
/// kept in memory and written out (about 10 to 15 per operation).
pub const TRACE_MAX_OPS: u64 = 10_000;

/// One named, unit-carrying measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Sample count, base of a ratio, or other context.
    pub note: String,
}

fn metric(name: &'static str, value: f64, unit: &'static str, note: String) -> Metric {
    Metric {
        name,
        // `+ 0.0` turns the -0.0 of an empty float sum into 0.0.
        value: if value.is_finite() { value + 0.0 } else { 0.0 },
        unit,
        note,
    }
}

/// What one workload run produced.
#[derive(Debug, Clone)]
pub struct RunResult {
    pub stamp: Stamp,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl RunResult {
    /// The result line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// Human-readable metric lines, then the stamp line.
    pub fn report(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            out.push_str(&format!(
                "metric {:<34} {:>16.4} {:<10} {}\n",
                m.name, m.value, m.unit, m.note
            ));
        }
        out.push_str(&self.stamp.to_json());
        out
    }
}

/// Counts and timings of one measurement phase.
struct Phase {
    wall: Duration,
    cpu: Duration,
    /// Reservoir of latency samples of correct operations.
    latencies: Vec<f64>,
    /// Correct operations whose latency was offered to the reservoir.
    sampled: u64,
    attempted: u64,
    failed: u64,
    parallel: u64,
    regions: u64,
    aborted: u64,
    shed: u64,
    cache: (u64, u64),
}

impl Phase {
    fn ok(&self) -> u64 {
        self.attempted - self.failed
    }

    fn throughput(&self) -> f64 {
        self.ok() as f64 / self.wall.as_secs_f64()
    }
}

/// (reused verdict lookups, all lookups, requests shed) so far.
fn service_counts(w: &dyn Workload) -> (u64, u64, u64) {
    w.service().map_or((0, 0, 0), |s| {
        let st = s.stats();
        let c = st.cache;
        let reused = c.hits + c.warm_hits + c.coalesced;
        (reused, reused + c.misses, st.total_shed())
    })
}

/// Runs the closed loop for `window`, or until `max_ops` operations,
/// over operation stream `stream` of `seed`.
fn measure(
    w: &mut dyn Workload,
    seed: u64,
    stream: u64,
    window: Duration,
    max_ops: u64,
    mut trace: Option<&mut Trace>,
) -> Phase {
    let mut rng = Rng::new(seed, 0x0b5 + stream);
    let (health0, svc0, cpu0) = (w.pool_health(), service_counts(w), process_cpu());
    let mut reservoir_rng = Rng::new(seed, 0x7e5);
    let mut latencies = vec![f64::NAN; RESERVOIR];
    latencies.clear();
    let mut p = Phase {
        wall: Duration::ZERO,
        cpu: Duration::ZERO,
        latencies,
        sampled: 0,
        attempted: 0,
        failed: 0,
        parallel: 0,
        regions: 0,
        aborted: 0,
        shed: 0,
        cache: (0, 0),
    };
    let start = Instant::now();
    while start.elapsed() < window && p.attempted < max_ops {
        let Step {
            latency_us,
            outcome,
        } = w.step(&mut rng, p.attempted, trace.as_deref_mut());
        p.attempted += 1;
        match outcome {
            Ok(parallel) => {
                if p.latencies.len() < RESERVOIR {
                    p.latencies.push(latency_us);
                } else {
                    let j = reservoir_rng.below(p.sampled as usize + 1);
                    if j < RESERVOIR {
                        p.latencies[j] = latency_us;
                    }
                }
                p.sampled += 1;
                p.parallel += u64::from(parallel);
            }
            Err(e) => {
                p.failed += 1;
                if p.failed <= 5 {
                    eprintln!("perfbench: op {} failed: {e}", p.attempted - 1);
                }
            }
        }
    }
    p.wall = start.elapsed();
    p.cpu = process_cpu().saturating_sub(cpu0);
    if let Err(e) = w.end_phase() {
        p.attempted += 1;
        p.failed += 1;
        eprintln!("perfbench: end of phase check failed: {e}");
    }
    let health = w.pool_health();
    p.regions = health.regions - health0.regions;
    p.aborted = health.aborted_regions - health0.aborted_regions;
    let svc = service_counts(w);
    p.cache = (svc.0 - svc0.0, svc.1 - svc0.1);
    p.shed = svc.2 - svc0.2;
    p
}

/// Median wall time of an empty fork-join region, in nanoseconds.
fn empty_region_ns(pool: &ThreadPool) -> f64 {
    let samples: Vec<f64> = (0..2000)
        .map(|_| {
            let t = Instant::now();
            pool.parallel_for(pool.threads(), Schedule::Static { chunk: None }, |_| {});
            t.elapsed().as_nanos() as f64
        })
        .collect();
    median(&samples)
}

/// Where the traced run writes its spans.
pub fn trace_path(workload: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("trace-{workload}.jsonl"))
}

fn end_to_end(
    setups: &[f64],
    epochs: &mut [Phase],
    peak_rss_mib: f64,
    parallel_base: &str,
) -> Vec<Metric> {
    let lat: Vec<Latency> = epochs
        .iter_mut()
        .map(|p| Latency::of(&mut p.latencies))
        .collect();
    let of_epochs =
        |f: &dyn Fn(usize) -> f64| median(&(0..epochs.len()).map(f).collect::<Vec<_>>());
    let total = |f: fn(&Phase) -> u64| epochs.iter().map(f).sum::<u64>();
    let (attempted, failed, parallel) = (
        total(|p| p.attempted),
        total(|p| p.failed),
        total(|p| p.parallel),
    );
    let ok = attempted - failed;
    let samples = format!(
        "median of {} epochs; samples per epoch {}..{}",
        epochs.len(),
        lat.iter().map(|l| l.n).min().unwrap_or(0),
        lat.iter().map(|l| l.n).max().unwrap_or(0),
    );
    let tail = lat.iter().map(|l| l.above_p99).min().unwrap_or(0);
    if tail < 10 {
        eprintln!("perfbench: an epoch left only {tail} samples above p99; lengthen --seconds");
    }
    vec![
        metric(
            "setup_s",
            median(setups),
            "s",
            format!("median of {} setups", setups.len()),
        ),
        metric(
            "throughput_rps",
            of_epochs(&|e| epochs[e].throughput()),
            "1/s",
            format!("median of {} epochs; {ok} correct ops", epochs.len()),
        ),
        metric(
            "latency_p50_us",
            of_epochs(&|e| lat[e].p50),
            "us",
            samples.clone(),
        ),
        metric(
            "latency_p99_us",
            of_epochs(&|e| lat[e].p99),
            "us",
            format!("{samples}; at least {tail} samples above p99"),
        ),
        metric(
            "error_rate",
            stats::wilson_upper(failed, attempted),
            "ratio",
            format!("95% upper bound; observed {failed}/{attempted} failed"),
        ),
        metric(
            "parallel_frac",
            parallel as f64 / ok.max(1) as f64,
            "ratio",
            format!("{parallel} of {ok} {parallel_base}"),
        ),
        metric(
            "cpu_us_per_op",
            of_epochs(&|e| epochs[e].cpu.as_secs_f64() * 1e6 / epochs[e].attempted.max(1) as f64),
            "us",
            format!("user+sys, median of {} epochs", epochs.len()),
        ),
        metric(
            "peak_rss_mib",
            peak_rss_mib,
            "MiB",
            "VmHWM at the end of the first epoch".into(),
        ),
    ]
}

fn per_layer(tr: &Trace, plain: &Phase, traced: &Phase, probe_ns: f64) -> Vec<Metric> {
    let dur = tr.durations_by_name();
    let st = tr.self_times_by_name();
    let empty = Vec::new();
    let d = |n: &str| dur.get(n).unwrap_or(&empty);
    let s = |n: &str| st.get(n).unwrap_or(&empty);
    let p50 = |v: &Vec<f64>| median(v);
    let busy = |n: &str| s(n).iter().sum::<f64>() / 1e6;
    let count_note = |n: &str| format!("n={}", d(n).len());
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let unattributed = tr.unattributed_us();
    let run_us: f64 = s("kernels.run").iter().sum();
    let lex_calls = d("cfront.lex").len() as f64;
    let lower_calls = d("ir.lower").len() as f64;
    let decide_calls = d("core.decide_loop").len() as f64;
    let guard_calls = tr.counted("rtcheck.guard.calls");
    let verify_elems = tr.counted("rtcheck.verify.elems");
    vec![
        metric(
            "service.request.p50_us",
            p50(d("service.request")),
            "us",
            count_note("service.request"),
        ),
        metric(
            "service.queued.p50_us",
            p50(d("service.queued")),
            "us",
            count_note("service.queued"),
        ),
        metric(
            "service.worker.p50_us",
            p50(d("service.worker")),
            "us",
            count_note("service.worker"),
        ),
        metric(
            "trace.unattributed.p50_us",
            median(&unattributed),
            "us",
            format!(
                "worker (or op) minus replayed layer self times, n={}",
                unattributed.len()
            ),
        ),
        metric(
            "service.handoff.p50_us",
            p50(s("service.request")),
            "us",
            "request - queued - worker".into(),
        ),
        metric(
            "service.cache.hit_ratio",
            ratio(traced.cache.0 as f64, traced.cache.1 as f64),
            "ratio",
            format!("(hits+warm_hits+coalesced) / {} lookups", traced.cache.1),
        ),
        metric(
            "service.shed.count",
            (plain.shed + traced.shed) as f64,
            "count",
            "requests shed at admission, both phases".into(),
        ),
        metric(
            "cfront.lex.p50_us",
            p50(d("cfront.lex")),
            "us",
            "separate probe, not in the sum".into(),
        ),
        metric(
            "cfront.lex.tokens",
            ratio(tr.counted("cfront.lex.tokens"), lex_calls),
            "tokens/call",
            format!("over {lex_calls} lex calls"),
        ),
        metric(
            "cfront.parse.p50_us",
            p50(s("cfront.parse")),
            "us",
            "includes lexing".into(),
        ),
        metric(
            "cfront.parse.busy_s",
            busy("cfront.parse"),
            "s",
            count_note("cfront.parse"),
        ),
        metric(
            "ir.lower.p50_us",
            p50(s("ir.lower")),
            "us",
            count_note("ir.lower"),
        ),
        metric(
            "ir.lower.busy_s",
            busy("ir.lower"),
            "s",
            count_note("ir.lower"),
        ),
        metric(
            "ir.lower.loops",
            ratio(tr.counted("ir.lower.loops"), lower_calls),
            "loops/call",
            format!("over {lower_calls} lowered functions"),
        ),
        metric(
            "core.analyze_function.p50_us",
            p50(s("core.analyze_function")),
            "us",
            count_note("core.analyze_function"),
        ),
        metric(
            "core.analyze_function.busy_s",
            busy("core.analyze_function"),
            "s",
            count_note("core.analyze_function"),
        ),
        metric(
            "core.decide_loop.calls",
            decide_calls,
            "count",
            String::new(),
        ),
        metric(
            "core.decide_loop.busy_s",
            busy("core.decide_loop"),
            "s",
            String::new(),
        ),
        metric(
            "core.decide_loop.parallel_ratio",
            ratio(tr.counted("core.decide_loop.parallel"), decide_calls),
            "ratio",
            format!("parallel decisions / {decide_calls} calls"),
        ),
        metric(
            "rtcheck.verify.p50_us",
            p50(s("rtcheck.verify")),
            "us",
            count_note("rtcheck.verify"),
        ),
        metric(
            "rtcheck.verify.busy_s",
            busy("rtcheck.verify"),
            "s",
            count_note("rtcheck.verify"),
        ),
        metric(
            "rtcheck.verify.ns_per_elem",
            ratio(busy("rtcheck.verify") * 1e9, verify_elems),
            "ns/elem",
            format!("over {verify_elems} elements"),
        ),
        metric(
            "rtcheck.mutate_range.p50_us",
            p50(s("rtcheck.mutate_range")),
            "us",
            count_note("rtcheck.mutate_range"),
        ),
        metric(
            "rtcheck.mutate_range.busy_s",
            busy("rtcheck.mutate_range"),
            "s",
            count_note("rtcheck.mutate_range"),
        ),
        metric(
            "rtcheck.summary_verdict.p50_us",
            p50(s("rtcheck.summary_verdict")),
            "us",
            count_note("rtcheck.summary_verdict"),
        ),
        metric(
            "rtcheck.guard.p50_us",
            p50(s("rtcheck.guard")),
            "us",
            count_note("rtcheck.guard"),
        ),
        metric(
            "rtcheck.guard.admit_ratio",
            ratio(tr.counted("rtcheck.guard.admitted"), guard_calls),
            "ratio",
            format!("parallel verdicts / {guard_calls} decide_recoverable calls"),
        ),
        metric(
            "rtcheck.ingest.busy_s",
            busy("rtcheck.ingest"),
            "s",
            "setup".into(),
        ),
        metric(
            "kernels.run.p50_us",
            p50(s("kernels.run")),
            "us",
            count_note("kernels.run"),
        ),
        metric(
            "kernels.run.busy_s",
            busy("kernels.run"),
            "s",
            count_note("kernels.run"),
        ),
        metric(
            "kernels.run_serial.busy_s",
            busy("kernels.run_serial"),
            "s",
            "setup goldens".into(),
        ),
        metric(
            "kernels.run.speedup",
            ratio(tr.counted("kernels.run.serial_equiv_us"), run_us),
            "ratio",
            "setup serial time of each replayed op's kernel / replayed run time".into(),
        ),
        metric(
            "kernels.reset.busy_s",
            busy("kernels.reset"),
            "s",
            count_note("kernels.reset"),
        ),
        metric(
            "kernels.checksum.busy_s",
            busy("kernels.checksum"),
            "s",
            count_note("kernels.checksum"),
        ),
        metric(
            "kernels.prepare.busy_s",
            busy("kernels.prepare"),
            "s",
            "setup".into(),
        ),
        metric(
            "omprt.regions.per_op",
            ratio(plain.regions as f64, plain.attempted as f64),
            "regions/op",
            format!(
                "{} regions over {} untraced ops",
                plain.regions, plain.attempted
            ),
        ),
        metric(
            "omprt.empty_region.p50_ns",
            probe_ns,
            "ns",
            "2000 empty parallel_for regions".into(),
        ),
        metric(
            "omprt.aborted_regions.count",
            (plain.aborted + traced.aborted) as f64,
            "count",
            String::new(),
        ),
        metric(
            "trace.overhead_ratio",
            ratio(plain.throughput(), traced.throughput()),
            "ratio",
            format!(
                "untraced {:.1} / traced {:.1} ops/s, replay included",
                plain.throughput(),
                traced.throughput()
            ),
        ),
    ]
}

/// Runs one workload. A plain run is [`epochs`] epochs of setup then
/// timed closed loop; a traced run sets up once, then runs an untraced
/// half and a traced replay half over the same operation stream.
pub fn run_workload(
    name: &str,
    seed: u64,
    window: Duration,
    traced: bool,
    process_start: Option<Instant>,
) -> Result<RunResult, String> {
    let mut warm = WarmUp::default();
    let mut setups = Vec::new();
    let mut phases = Vec::new();
    let mut config = String::new();
    let mut peak_rss = 0.0;
    let restore = host::RestoreCpus(host::allowed_cpus());
    let pin = workload::pins_to_one_cpu(name) && restore.0.len() > 1;
    let metrics = if traced {
        let mut trace = Trace::new();
        if pin {
            host::set_cpus(&restore.0[..1])?;
        }
        let mut w = workload::setup(name, seed, &mut trace, &mut warm)?;
        config = w.config();
        let half = window / 2;
        phases.push(measure(w.as_mut(), seed, 0, half, u64::MAX, None));
        phases.push(measure(
            w.as_mut(),
            seed,
            0,
            half,
            TRACE_MAX_OPS,
            Some(&mut trace),
        ));
        let probe_ns = match w.service() {
            Some(svc) => empty_region_ns(svc.pool()),
            None => empty_region_ns(&ThreadPool::new(2)),
        };
        if let Err(e) = trace.write_jsonl(&trace_path(name)) {
            eprintln!("perfbench: could not write the trace: {e}");
        }
        per_layer(&trace, &phases[0], &phases[1], probe_ns)
    } else {
        let epochs = epochs(window);
        for epoch in 0..epochs {
            let start = match (epoch, process_start) {
                (0, Some(t)) => t,
                _ => Instant::now(),
            };
            // Threads started from here on, the service's among them,
            // inherit the CPU set; epochs take the allowed CPUs in turn.
            if pin {
                host::set_cpus(&[restore.0[epoch as usize % restore.0.len()]])?;
            }
            let mut w = workload::setup(name, seed, &mut Trace::new(), &mut warm)?;
            setups.push(start.elapsed().as_secs_f64());
            config = w.config();
            let slice = window / epochs;
            phases.push(measure(
                w.as_mut(),
                seed,
                epoch as u64,
                slice,
                u64::MAX,
                None,
            ));
            // Later epochs run on an allocator that already served and
            // freed earlier services, whose leftover arenas would make
            // the high-water mark vary from run to run.
            if epoch == 0 {
                peak_rss = host::peak_rss_mib();
            }
        }
        let base = match name {
            "analyze" => "reports with a parallel loop",
            "revalidate" => "verdicts admitting strict monotonicity",
            _ => "Execute replies on GuardPath::Parallel",
        };
        end_to_end(&setups, &mut phases, peak_rss, base)
    };
    if pin {
        config.push_str(&format!(
            "; each epoch pinned to one of CPUs {:?}",
            restore.0
        ));
    }
    drop(restore);
    let attempted = warm.attempted + phases.iter().map(|p| p.attempted).sum::<u64>();
    let failed = warm.failed + phases.iter().map(|p| p.failed).sum::<u64>();
    Ok(RunResult {
        stamp: Stamp::new(name, seed, window, traced, config),
        correct: failed == 0,
        attempted,
        failed,
        metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_epoch_per_second_and_at_least_the_minimum() {
        assert_eq!(epochs(Duration::from_secs(40)), 40);
        assert_eq!(epochs(Duration::from_secs(2)), MIN_EPOCHS);
        assert_eq!(epochs(Duration::from_millis(12_400)), 12);
    }
}
