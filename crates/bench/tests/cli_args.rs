//! The measurement binaries reject bad arguments with a usage message
//! and exit code 2 instead of a panic, and `--help` succeeds.

use std::process::{Command, Output};

const BINS: [(&str, &str); 3] = [
    ("trace", env!("CARGO_BIN_EXE_trace")),
    ("perfgate", env!("CARGO_BIN_EXE_perfgate")),
    (
        "forkjoin_calibrate",
        env!("CARGO_BIN_EXE_forkjoin_calibrate"),
    ),
];

fn run(exe: &str, args: &[&str]) -> Output {
    Command::new(exe).args(args).output().expect("binary runs")
}

#[test]
fn unknown_flag_prints_usage_and_exits_2() {
    for (name, exe) in BINS {
        let out = run(exe, &["--bogus"]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{name}: {stderr}");
        assert!(stderr.contains("--bogus"), "{name}: {stderr}");
        assert!(stderr.contains("usage:"), "{name}: {stderr}");
        assert!(!stderr.contains("panicked"), "{name}: {stderr}");
    }
}

#[test]
fn help_prints_usage_and_exits_0() {
    for (name, exe) in BINS {
        let out = run(exe, &["--help"]);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(out.status.code(), Some(0), "{name}");
        assert!(stdout.starts_with("usage:"), "{name}: {stdout}");
    }
}

#[test]
fn missing_or_malformed_value_exits_2() {
    for (name, exe, args) in [
        ("trace", BINS[0].1, &["--threads", "many"][..]),
        ("perfgate", BINS[1].1, &["--baseline"][..]),
        ("perfgate", BINS[1].1, &["--tolerance", "2"][..]),
        ("forkjoin_calibrate", BINS[2].1, &["--threads", "1,x"][..]),
    ] {
        let out = run(exe, args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{name} {args:?}: {stderr}");
        assert!(stderr.contains("usage:"), "{name} {args:?}: {stderr}");
    }
}
