//! Differential fuzzing CLI: runs seeded adversarial campaigns over the
//! inspect/guard/dispatch trust boundary and replays the committed
//! regression corpus.
//!
//! Usage:
//!   fuzz [SEED...] [--no-kernels] [--arrays N] [--predicates N]
//!        [--sources N] [--corpus DIR | --no-corpus] [--replay-only]
//!
//! With no seeds given, the CI-pinned trio 7, 31337, 271828 runs.
//! `--replay-only` skips the campaigns and only replays the committed
//! corpus (the quick-tier CI leg). The `SUBSUB_FUZZ_CASES` environment
//! variable scales campaign volume without touching the script: `N`
//! sets predicates to `N`, sources to `4N/5` and arrays-per-shape to
//! `N/25` (so `N=200` reproduces the defaults); explicit CLI flags win
//! over the environment. Exits non-zero on ANY divergence or corpus
//! regression, printing every minimized counterexample so it can be
//! promoted into the corpus.

use std::path::PathBuf;
use std::process::ExitCode;
use subsub_oracle::{load_dir, replay_all, run_campaign, FuzzConfig};

const PINNED_SEEDS: [u64; 3] = [7, 31337, 271828];

struct Args {
    seeds: Vec<u64>,
    arrays_per_shape: usize,
    predicates: usize,
    sources: usize,
    kernels: bool,
    corpus: Option<PathBuf>,
    replay_only: bool,
}

fn default_corpus_dir() -> Option<PathBuf> {
    // bench and oracle are sibling crates; resolve relative to this
    // crate's manifest so the binary works from any cwd inside the repo.
    let here = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let dir = here.parent()?.join("oracle").join("corpus");
    dir.is_dir().then_some(dir)
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        seeds: Vec::new(),
        arrays_per_shape: 8,
        predicates: 200,
        sources: 160,
        kernels: true,
        corpus: default_corpus_dir(),
        replay_only: false,
    };
    // Environment-scaled campaign volume; CLI flags below override it.
    if let Ok(cases) = std::env::var("SUBSUB_FUZZ_CASES") {
        let n: usize = cases
            .parse()
            .map_err(|e| format!("SUBSUB_FUZZ_CASES: {e}"))?;
        if n == 0 {
            return Err("SUBSUB_FUZZ_CASES must be >= 1".into());
        }
        args.predicates = n;
        args.sources = n * 4 / 5;
        args.arrays_per_shape = (n / 25).max(1);
    }
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut grab = |what: &str| it.next().ok_or_else(|| format!("{what} requires a value"));
        match a.as_str() {
            "--no-kernels" => args.kernels = false,
            "--no-corpus" => args.corpus = None,
            "--replay-only" => args.replay_only = true,
            "--arrays" => {
                args.arrays_per_shape = grab("--arrays")?
                    .parse()
                    .map_err(|e| format!("--arrays: {e}"))?
            }
            "--predicates" => {
                args.predicates = grab("--predicates")?
                    .parse()
                    .map_err(|e| format!("--predicates: {e}"))?
            }
            "--sources" => {
                args.sources = grab("--sources")?
                    .parse()
                    .map_err(|e| format!("--sources: {e}"))?
            }
            "--corpus" => args.corpus = Some(PathBuf::from(grab("--corpus")?)),
            "--help" | "-h" => {
                return Err(
                    "usage: fuzz [SEED...] [--no-kernels] [--arrays N] [--predicates N] \
                     [--sources N] [--corpus DIR | --no-corpus] [--replay-only]"
                        .into(),
                )
            }
            s => {
                let seed: u64 = s
                    .parse()
                    .map_err(|_| format!("unrecognized argument `{s}` (expected a seed)"))?;
                args.seeds.push(seed);
            }
        }
    }
    if args.seeds.is_empty() {
        args.seeds = PINNED_SEEDS.to_vec();
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };

    let mut failed = false;

    if args.replay_only {
        if args.corpus.is_none() {
            eprintln!("--replay-only with --no-corpus leaves nothing to run");
            return ExitCode::from(2);
        }
    } else {
        for &seed in &args.seeds {
            let cfg = FuzzConfig {
                seed,
                arrays_per_shape: args.arrays_per_shape,
                predicates: args.predicates,
                sources: args.sources,
                kernels: args.kernels,
            };
            let report = run_campaign(&cfg);
            println!("{report}");
            if !report.is_clean() {
                failed = true;
            }
        }
    }

    if let Some(dir) = &args.corpus {
        match load_dir(dir) {
            Ok(entries) => {
                let regressions = replay_all(&entries);
                println!(
                    "corpus replay: {} entries from {}, {} regression(s)",
                    entries.len(),
                    dir.display(),
                    regressions.len()
                );
                for r in &regressions {
                    eprintln!("corpus regression: {r}");
                }
                if !regressions.is_empty() {
                    failed = true;
                }
            }
            Err(e) => {
                eprintln!("corpus load failed: {e}");
                failed = true;
            }
        }
    }

    if failed {
        eprintln!("FUZZ: divergences found");
        ExitCode::FAILURE
    } else {
        println!("FUZZ: all campaigns clean");
        ExitCode::SUCCESS
    }
}
