#!/usr/bin/env bash
# CI gate, in two tiers. Everything runs offline — the workspace has
# zero external dependencies.
#
#   ./ci.sh quick   fmt, clippy, debug build, unit tests, benchmark tests,
#                   corpus replay
#                   (the edit-compile loop: fast, no release artifacts)
#   ./ci.sh full    everything in quick, plus the release build, chaos
#                   sweep, differential fuzz, the AST round-trip
#                   conformance harness, the incremental re-inspection
#                   gate, fork-join calibration smoke, telemetry trace
#                   smoke, the service workload + lifecycle chaos
#                   storms, and the perf gate
#                   (the merge gate; the default)
#
# Every `==` step is wall-clock timed and appended to ci-report.json
# (schema subsub-ci-report/v1): one row per step with its tier, elapsed
# seconds and pass/fail. The report is flushed even when a step fails,
# and the failure summary names the failing step.
#
# Knobs (environment):
#   SUBSUB_FUZZ_CASES    scales fuzz campaign volume (default 200-ish;
#                        see `fuzz --help`)
#   SUBSUB_CHAOS_SEEDS   comma/space-separated seeds for the chaos
#                        sweep (defaults to the pinned trio)
set -euo pipefail
cd "$(dirname "$0")"

MODE="${1:-full}"
case "$MODE" in
  quick|full) ;;
  *) echo "usage: $0 [quick|full]" >&2; exit 2 ;;
esac

REPORT="ci-report.json"
STEPS_JSON=""
SUITE_T0=$(date +%s%N)

elapsed_s() { # elapsed_s T0_NANOS -> seconds with ms precision
  awk "BEGIN{printf \"%.3f\", ($(date +%s%N) - $1) / 1e9}"
}

flush_report() { # flush_report pass|fail
  printf '{"schema":"subsub-ci-report/v1","mode":"%s","result":"%s","total_seconds":%s,"steps":[%s]}\n' \
    "$MODE" "$1" "$(elapsed_s "$SUITE_T0")" "$STEPS_JSON" > "$REPORT"
}

run_step() { # run_step TIER NAME CMD...
  local tier="$1" name="$2"
  shift 2
  echo "== $name =="
  local t0 rc=0
  t0=$(date +%s%N)
  "$@" || rc=$?
  local secs pass
  secs=$(elapsed_s "$t0")
  if [ "$rc" -eq 0 ]; then pass=true; else pass=false; fi
  [ -n "$STEPS_JSON" ] && STEPS_JSON+=","
  STEPS_JSON+=$(printf '{"step":"%s","tier":"%s","seconds":%s,"pass":%s}' \
    "$name" "$tier" "$secs" "$pass")
  if [ "$rc" -ne 0 ]; then
    flush_report fail
    echo "CI FAILED at step: $name (after ${secs}s; report in $REPORT)" >&2
    exit "$rc"
  fi
  echo "   (${secs}s)"
}

run_step quick "cargo fmt --check" cargo fmt --all -- --check

run_step quick "cargo clippy (deny warnings)" \
  cargo clippy --workspace --all-targets -- -D warnings

# The runtime's recovery story depends on lock/channel results never
# being unwrapped on the execution path, and the frontend + analysis
# driver sit on the service's untrusted-input boundary where a panic
# would read as a worker fault; keep the lint as a gate on all four.
run_step quick "cargo clippy (no unwrap in omprt/rtcheck/cfront/core hot paths)" \
  cargo clippy -q -p subsub-omprt -p subsub-rtcheck -p subsub-cfront -p subsub-core -- \
  -D warnings -D clippy::unwrap_used

run_step quick "debug build" cargo build --workspace

run_step quick "test suite" cargo test --workspace -q

# The benchmark (perfbench/) is its own workspace over this one's public
# API; build and test it here so an API change that breaks it fails in
# the edit-compile loop instead of at merge.
run_step quick "benchmark build + tests" \
  cargo test -q --offline --manifest-path perfbench/Cargo.toml

# Replay the committed adversarial corpus (arrays, predicates, kernels,
# reinspect plans, composed chains, frontend sources) without the
# seeded campaigns: cheap enough for the edit-compile loop, and the
# corpus is exactly the set of cases that once broke something.
run_step quick "corpus replay (committed regressions, no campaigns)" \
  cargo run -q -p subsub-bench --bin fuzz -- --replay-only

if [ "$MODE" = "quick" ]; then
  flush_report pass
  echo "CI gate passed (quick tier; run './ci.sh full' before merging). Report: $REPORT"
  exit 0
fi

run_step full "release build" cargo build --release --workspace

# Seeded failpoint schedules over the full kernel registry: every run
# must complete parallel matching the serial golden or degrade serially
# with a classified error and bit-identical output (see DESIGN.md 5c).
# SUBSUB_CHAOS_SEEDS (env) overrides the pinned seed trio.
run_step full "chaos sweep (seeded fault injection, pinned seeds)" \
  cargo run --release -q -p subsub-bench --bin chaos -- ${SUBSUB_CHAOS_SEEDS:-17 4242 900913}

# Adversarial campaigns over the inspect/guard/dispatch trust boundary:
# inspector vs brute-force reference (whole-array, block-monotone and
# composed two-level flavours), incremental re-inspection vs full-scan
# rebuild, compiled predicate vs checked-i128 evaluator, mutated C
# sources vs the frontend's no-panic/deterministic-rejection/round-trip
# contract, guarded parallel kernels vs serial goldens — then a full
# replay of the committed regression corpus. Any divergence fails CI
# (see DESIGN.md 5d and 9). SUBSUB_FUZZ_CASES (env) scales volume.
run_step full "differential fuzz (pinned seeds + corpus replay)" \
  cargo run --release -q -p subsub-bench --bin fuzz -- 7 31337 271828

# The frontend's canonical contract: for every accepted source,
# parse -> canonicalize -> print -> reparse is a structural identity,
# the printed form is a printer fixpoint, and the subsub-ast/v1 JSON
# serialization is deterministic. Runs over all registry kernel sources
# plus crates/bench/corpus/conform/*.c (see DESIGN.md 9).
run_step full "AST round-trip conformance (kernel registry + committed corpus)" \
  cargo run --release -q -p subsub-bench --bin conform

# The 1 Mi-element mutate-then-reinspect workload: a single-element
# mutate_range (block rescan + O(blocks) verdict/checksum recombine)
# must agree with the full re-ingest + full-scan reference at every
# checkpoint and beat it by at least the 20x acceptance floor.
run_step full "incremental re-inspection gate (O(delta) vs full re-scan)" \
  cargo run --release -q -p subsub-bench --bin reinspect

# A quick real measurement of fork-join latency on this machine; the
# --validate pass re-parses the emitted JSON through the strict parser
# and the simulator's own MachineCalibration scanner, and — because
# --threads is passed — rejects a file whose measured series does not
# match the requested thread counts.
run_step full "fork-join smoke (calibrate)" \
  cargo run --release -q -p subsub-bench --bin forkjoin_calibrate -- \
  --quick --threads 1,4 --out target/BENCH_forkjoin_ci.json
run_step full "fork-join smoke (validate)" \
  cargo run --release -q -p subsub-bench --bin forkjoin_calibrate -- \
  --validate target/BENCH_forkjoin_ci.json --threads 1,4

# Arms the flight recorder, runs one registry kernel through the full
# guarded pipeline, and validates the emitted Chrome trace with the
# strict parser: balanced B/E pairs, per-thread monotone timestamps,
# and every required span family present (region/inspect/guard/
# dispatch; see DESIGN.md 5e). Malformed output fails CI.
run_step full "telemetry trace smoke (capture)" \
  cargo run --release -q -p subsub-bench --bin trace -- \
  --kernel AMGmk --threads 4 \
  --out target/BENCH_trace_ci.json --snapshot target/BENCH_telemetry_ci.json
run_step full "telemetry trace smoke (validate)" \
  cargo run --release -q -p subsub-bench --bin trace -- \
  --validate target/BENCH_trace_ci.json

# Closed-loop clients over the long-lived service front door, cold and
# warm cache phases, with a mid-run worker kill: every completion must
# match the serial golden checksum (zero incorrect dispatches), no
# ticket may wedge, the warm phase must hit the shard cache >= 90% of
# the time, and >= 8 requests must be observed in flight at once
# (see DESIGN.md 6). The pinned default seed keeps the run replayable.
run_step full "analysis service smoke (seeded multi-client workload + chaos)" \
  cargo run --release -q -p subsub-bench --bin serve

# Service-layer chaos: seeded failpoint schedules over the multi-client
# workload with deadlines and abandoned tickets in the mix — admission
# faults, worker dispatch deaths, single-flight leader panics, snapshot
# save/rotate/load faults. Every request must settle in a typed terminal
# state within bounds: zero divergence on Ok responses, no wedged
# ticket, no post-storm lockout (quarantined identities re-admit via
# their serial probe), and recovery from the snapshot directory must
# find a verified generation or start cold (see DESIGN.md 8).
run_step full "chaos-serve (seeded lifecycle storms over the service, pinned seeds)" \
  cargo run --release -q -p subsub-bench --bin chaos_serve -- 29 8181 424243

# Persistence drill for the verdict cache: a snapshot with any single
# byte flipped must be rejected wholesale (digest mismatch), a rejected
# load must leave the cache empty for a clean rebuild, and an intact
# snapshot must warm-start a fresh service into a hit on the first
# repeated request.
run_step full "snapshot round-trip (write -> corrupt -> reject -> rebuild)" \
  cargo run --release -q -p subsub-bench --bin serve -- --roundtrip

# The pinned micro-suite (fork-join latency, inspector throughput —
# including the composed two-level verdict — and representative serial
# kernels) against BENCH_baseline.json. A median beyond the band fails;
# refresh with 'perfgate --update' alongside an intentional perf change.
run_step full "perf gate (medians vs committed baseline, +/-25%)" \
  cargo run --release -q -p subsub-bench --bin perfgate

flush_report pass
echo "CI gate passed (full tier). Report: $REPORT"
