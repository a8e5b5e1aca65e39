//! Short runs of every workload, the metric names `BENCHMARK.json`
//! promises, the command-line contract, and negative cases: a tampered
//! reference must fail its check.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::process::Command;
use std::time::Duration;
use subsub_core::{analyze_program, AlgorithmLevel};
use subsub_perfbench::args::WORKLOADS;
use subsub_perfbench::expect::{
    check_analyzed, check_executed, check_verdict, Decision, DecisionTable,
};
use subsub_perfbench::{run_workload, trace_path};
use subsub_rtcheck::{GuardPath, MonotoneVerdict};
use subsub_service::Outcome;
use subsub_telemetry::json::{parse, Json};

fn benchmark_json() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
        .expect("BENCHMARK.json parses")
}

/// Name → unit of every entry of a `BENCHMARK.json` section (the unit
/// is empty for workloads).
fn declared(section: &str) -> BTreeMap<String, String> {
    benchmark_json()
        .get(section)
        .and_then(Json::as_array)
        .expect("section is an array")
        .iter()
        .map(|m| {
            let field = |k| m.get(k).and_then(Json::as_str).unwrap_or("").to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn reported(metrics: &[subsub_perfbench::Metric]) -> BTreeMap<String, String> {
    metrics
        .iter()
        .map(|m| (m.name.to_string(), m.unit.to_string()))
        .collect()
}

fn result_line(stdout: &str) -> Json {
    parse(stdout.lines().last().expect("some output")).expect("last line is JSON")
}

#[test]
fn declared_workloads_are_ones_the_binary_runs() {
    let declared: BTreeSet<String> = declared("workloads").into_keys().collect();
    let runnable: BTreeSet<String> = WORKLOADS.iter().map(|w| w.to_string()).collect();
    assert!(declared.len() >= 2);
    assert!(declared.is_subset(&runnable), "{declared:?}");
}

#[test]
fn every_workload_runs_correctly_and_reports_every_end_to_end_metric() {
    let want = declared("end_to_end");
    for (i, name) in WORKLOADS.iter().enumerate() {
        let r = run_workload(name, 11 + i as u64, Duration::from_millis(300), false, None)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(r.correct, "{name}: {} of {} failed", r.failed, r.attempted);
        assert!(r.attempted > 0);
        assert_eq!(reported(&r.metrics), want, "{name}");
        for m in &r.metrics {
            assert!(m.value.is_finite() && m.value > 0.0, "{name}: {m:?}");
        }
        let line = parse(&r.to_json()).unwrap();
        let keys: Vec<&String> = line.as_object().unwrap().keys().collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(r.stamp.workload, *name);
    }
}

#[test]
fn a_traced_run_emits_every_per_layer_metric() {
    let want = declared("per_layer");
    for name in WORKLOADS {
        let r = run_workload(name, 3, Duration::from_millis(400), true, None)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(r.correct, "{name}");
        assert_eq!(reported(&r.metrics), want, "{name}");
        let spans = std::fs::read_to_string(trace_path(name)).expect("trace written");
        assert!(spans.lines().count() > 0, "{name}");
        let find = |n: &str| r.metrics.iter().find(|m| m.name == n).unwrap().value;
        assert!(find("trace.overhead_ratio") > 0.0, "{name}");
        assert!(find("omprt.empty_region.p50_ns") > 0.0, "{name}");
        match name {
            "analyze" => assert!(find("cfront.parse.p50_us") > 0.0),
            "revalidate" => assert!(find("rtcheck.mutate_range.p50_us") > 0.0),
            _ => {
                assert!(find("service.worker.p50_us") > 0.0, "{name}");
                assert!(find("kernels.run.p50_us") > 0.0, "{name}");
                assert_eq!(find("rtcheck.guard.admit_ratio"), 1.0, "{name}");
            }
        }
    }
}

#[test]
fn a_tampered_decision_fails_the_check() {
    let k = subsub_kernels::kernel_by_name("AMGmk").unwrap();
    let report = analyze_program(k.source(), AlgorithmLevel::New).unwrap();
    let outcome = Outcome::Analyzed(report);
    let want = DecisionTable::shipped()
        .get("AMGmk", AlgorithmLevel::New)
        .unwrap()
        .clone();
    assert_eq!(check_analyzed(&outcome, k.func_name(), &want), Ok(true));
    let other_check = Decision {
        check: Some("num_rownnz <= irownnz_max".into()),
        ..want.clone()
    };
    assert!(check_analyzed(&outcome, k.func_name(), &other_check).is_err());
    let other_depth = Decision {
        depth: Some(1),
        ..want
    };
    assert!(check_analyzed(&outcome, k.func_name(), &other_depth).is_err());
}

#[test]
fn a_tampered_checksum_or_path_fails_the_check() {
    let outcome = Outcome::Executed {
        path: GuardPath::Parallel,
        checksum: 58744.5,
        degraded: None,
    };
    assert_eq!(
        check_executed(&outcome, 58744.5, GuardPath::Parallel),
        Ok(true)
    );
    assert!(check_executed(&outcome, 58744.5 + 1.0, GuardPath::Parallel).is_err());
    assert!(check_executed(&outcome, 58744.5, GuardPath::Serial).is_err());
}

#[test]
fn a_tampered_verdict_fails_the_check() {
    let good = MonotoneVerdict {
        nonstrict: true,
        strict: true,
        first_violation: None,
        len: 8,
    };
    assert!(check_verdict(&good, &good).is_ok());
    let tampered = MonotoneVerdict {
        first_violation: Some(3),
        nonstrict: false,
        strict: false,
        ..good
    };
    assert!(check_verdict(&good, &tampered).is_err());
}

fn perfbench(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_subsub-perfbench"))
        .args(args)
        .output()
        .expect("the benchmark binary runs")
}

#[test]
fn bad_arguments_exit_2_with_usage() {
    for args in [
        &["--workload", "nope"][..],
        &["--workload", "analyze", "--seed", "x"],
        &["--workload", "analyze", "--trace", "2"],
        &["--workload", "analyze", "--bogus", "1"],
        &["--seed", "3"],
        &[],
    ] {
        let out = perfbench(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("usage:"),
            "{args:?}"
        );
        assert!(out.stdout.is_empty(), "{args:?}");
    }
    let help = perfbench(&["--help"]);
    assert_eq!(help.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&help.stdout).contains("usage:"));
}

#[test]
fn the_binary_ends_with_the_result_line() {
    let out = perfbench(&[
        "--workload",
        "revalidate",
        "--seed",
        "4",
        "--seconds",
        "0.2",
        "--trace",
        "0",
    ]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8(out.stdout).unwrap();
    let line = result_line(&stdout);
    assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
    let metrics: BTreeMap<String, String> = line
        .get("metrics")
        .and_then(Json::as_object)
        .unwrap()
        .iter()
        .map(|(name, m)| {
            let unit = m.get("unit").and_then(Json::as_str).unwrap();
            (name.clone(), unit.to_string())
        })
        .collect();
    assert_eq!(metrics, declared("end_to_end"));
    assert!(stdout.contains("\"stamp\""), "results are stamped");
}
