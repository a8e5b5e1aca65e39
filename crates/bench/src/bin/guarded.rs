//! Demonstrates guarded execution end to end: the compiled runtime check,
//! the verified index arrays and their summary verdicts, repeated runs,
//! and graceful degradation to serial when an index array is corrupted.
//!
//! Usage: `cargo run -p subsub-bench --bin guarded [kernel-name]`

use subsub_bench::GuardedHarness;
use subsub_core::AlgorithmLevel;
use subsub_kernels::kernel_by_name;
use subsub_omprt::{Schedule, ThreadPool};

fn main() {
    let filter = std::env::args().nth(1);
    let pool = ThreadPool::new(4);
    let demos = ["AMGmk", "SDDMM", "UA(transf)", "CSRoCSR", "GuardedPrefix"];
    let mut matched = false;
    for name in demos {
        if let Some(f) = &filter {
            if name != f {
                continue;
            }
        }
        matched = true;
        let k = kernel_by_name(name).unwrap();
        let harness = GuardedHarness::new(k.as_ref(), AlgorithmLevel::New);
        println!("=== {name} ===");
        println!("decision:       {}", harness.variant());
        match harness.check() {
            Some(c) => println!("runtime check:  {c}"),
            None => println!("runtime check:  (none — unconditionally parallel)"),
        }

        let mut inst = k.prepare(k.datasets()[0]);
        for run in 1..=2 {
            let out = harness.run(inst.as_mut(), &pool, Schedule::dynamic_default());
            println!(
                "run {run}:          {} (checksum {:.6})",
                match out.reason {
                    Some(ref r) => format!("{} — {r}", out.executed),
                    None => out.executed.to_string(),
                },
                out.checksum
            );
            inst.reset();
        }

        if inst.tamper_index_arrays() {
            let out = harness.run(inst.as_mut(), &pool, Schedule::dynamic_default());
            println!(
                "tampered run:   {} — {}",
                out.executed,
                out.reason
                    .map(|r| r.to_string())
                    .unwrap_or_else(|| "(admitted)".into())
            );
        }

        let s = harness.stats();
        println!(
            "guard stats:    {} parallel, {} serial fallback ({} inspection, {} validation)",
            s.parallel_runs, s.serial_fallbacks, s.inspection_failures, s.validation_rejections
        );
        println!();
    }
    if !matched {
        eprintln!(
            "no kernel named {:?}; available: {}",
            filter.as_deref().unwrap_or(""),
            demos.join(", ")
        );
        std::process::exit(2);
    }
}
