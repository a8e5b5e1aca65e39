//! The four workloads. Each is a closed loop with one client: the next
//! operation is sent only after the previous reply arrived. Setup
//! builds every reference the replies are checked against; a step times
//! one operation, checks its reply outside the timed interval and, when
//! tracing, replays the operation's layer calls on benchmark-owned
//! state.

use std::time::Instant;
use subsub_cfront::{lex_with, parse_program_with, ParseBudget};
use subsub_core::{
    analyze_function, decide_loop, AlgorithmLevel, FunctionReport, LoopReport, ProgramReport,
    PropertyDb,
};
use subsub_ir::{lower_function, IrStmt, LoopIr};
use subsub_kernels::{all_kernels, kernel_by_name, KernelInstance, Variant};
use subsub_omprt::{PoolHealth, Schedule, ThreadPool};
use subsub_rtcheck::{
    Bindings, GuardPath, GuardedExecutor, MonotoneReq, MonotoneVerdict, Provenance,
    ValidatedIndexArray,
};
use subsub_service::{
    AnalysisService, Payload, Request, RequestTelemetry, Response, ServiceConfig,
};
use subsub_symbolic::RangeEnv;

use crate::expect::{
    check_analyzed, check_checksum, check_executed, check_verdict, decision_of, eval_check,
    is_monotone, DecisionTable, LEVELS,
};
use crate::host::Rng;
use crate::trace::{after, Trace};

/// The service configuration every service workload runs: one worker
/// and a two-thread pool, sized to a two-core host.
pub fn service_config() -> ServiceConfig {
    ServiceConfig {
        workers: 1,
        pool_threads: 2,
        ..ServiceConfig::default()
    }
}

/// Whether `name` runs each epoch on a single CPU. `analyze` does: its
/// client and its one worker take turns and never run at once, and on
/// a virtual machine whose idle CPUs halt, a wake-up sent to the other
/// CPU waits until the hypervisor runs it again, which put the host's
/// scheduling into the tail latency. Consecutive epochs take the
/// allowed CPUs in turn, so the median over epochs sees each of them.
/// The execute workloads need both CPUs for their fork-join regions,
/// and `revalidate` runs on one thread.
pub fn pins_to_one_cpu(name: &str) -> bool {
    name == "analyze"
}

/// The five index-array kernels of the execute workloads, with their
/// paper-default datasets. CHOLMOD is left out: at about 30 ms per
/// request it would take most of the wall time of a uniform mix.
pub const EXECUTE_KERNELS: [(&str, &str); 5] = [
    ("AMGmk", "MATRIX2"),
    ("SDDMM", "dielFilterV2clx"),
    ("CSRoCSR", "rows64k"),
    ("StridedScatter", "n256k"),
    ("GuardedPrefix", "seg96k"),
];

/// The result of one timed operation.
#[derive(Debug)]
pub struct Step {
    /// Client-observed latency in microseconds.
    pub latency_us: f64,
    /// `Ok(parallel)` for a correct reply (whether it took or admitted
    /// the parallel path), `Err` with the reason otherwise.
    pub outcome: Result<bool, String>,
}

/// A workload after setup.
pub trait Workload {
    /// Runs operation `op`, drawing its inputs from `rng`.
    fn step(&mut self, rng: &mut Rng, op: u64, trace: Option<&mut Trace>) -> Step;

    /// Brings the workload back to its post-setup state between phases.
    fn end_phase(&mut self) -> Result<(), String> {
        Ok(())
    }

    /// The service, for service workloads.
    fn service(&self) -> Option<&AnalysisService> {
        None
    }

    /// Pool health of the service's shared pool.
    fn pool_health(&self) -> PoolHealth {
        self.service()
            .map_or_else(PoolHealth::default, |s| s.pool().health())
    }

    /// The configuration results are stamped with.
    fn config(&self) -> String {
        format!("{:?}", service_config())
    }
}

/// Replies checked during setup, before timing starts.
#[derive(Debug, Default, Clone, Copy)]
pub struct WarmUp {
    /// Replies checked.
    pub attempted: u64,
    /// Replies that failed their check.
    pub failed: u64,
}

impl WarmUp {
    fn note(&mut self, what: &str, r: Result<bool, String>) {
        self.attempted += 1;
        if let Err(e) = r {
            self.failed += 1;
            eprintln!("perfbench: setup check failed: {what}: {e}");
        }
    }
}

/// Builds `name` from `seed`, recording setup spans into `trace`.
pub fn setup(
    name: &str,
    seed: u64,
    trace: &mut Trace,
    warm: &mut WarmUp,
) -> Result<Box<dyn Workload>, String> {
    match name {
        "analyze" => Ok(Box::new(Analyze::setup(warm)?)),
        "execute-hot" => Ok(Box::new(Execute::setup(false, trace, warm)?)),
        "execute-tiny" => Ok(Box::new(Execute::setup(true, trace, warm)?)),
        "revalidate" => Ok(Box::new(Revalidate::setup(seed, trace))),
        other => Err(format!("unknown workload {other}")),
    }
}

fn submit(svc: &AnalysisService, payload: Payload) -> (f64, Instant, Result<Response, String>) {
    let t0 = Instant::now();
    let reply = svc
        .submit(Request::new("perfbench", payload))
        .map(|ticket| ticket.wait())
        .map_err(|shed| format!("shed: {shed}"));
    let t1 = Instant::now();
    ((t1 - t0).as_secs_f64() * 1e6, t0, reply)
}

/// Records the request span and its queued and worker children, taken
/// from the reply's own telemetry; returns the worker span id.
fn service_spans(trace: &mut Trace, t0: Instant, latency_us: f64, tel: &RequestTelemetry) -> u32 {
    let t1 = after(t0, std::time::Duration::from_secs_f64(latency_us / 1e6));
    let req = trace.record("service.request", None, t0, t1);
    let dequeued = after(t0, tel.queued);
    trace.record("service.queued", Some(req), t0, dequeued);
    trace.record(
        "service.worker",
        Some(req),
        dequeued,
        after(dequeued, tel.service),
    )
}

fn collect_loops<'a>(body: &'a [IrStmt], depth: usize, out: &mut Vec<(&'a LoopIr, usize)>) {
    for s in body {
        match s {
            IrStmt::Loop(l) => {
                out.push((l, depth));
                collect_loops(&l.body, depth + 1, out);
            }
            IrStmt::If { then_s, else_s, .. } => {
                collect_loops(then_s, depth, out);
                collect_loops(else_s, depth, out);
            }
            _ => {}
        }
    }
}

/// Replays the analysis pipeline layer by layer, as the service's
/// `AnalyzeSource` path runs it: a separate lex probe, then parse →
/// lower → `analyze_function` → `decide_loop` per loop.
pub fn replay_analysis(
    src: &str,
    level: AlgorithmLevel,
    trace: &mut Trace,
    parent: Option<u32>,
) -> Result<ProgramReport, String> {
    let budget = ParseBudget::DEFAULT;
    let tokens = trace
        .time("cfront.lex", parent, || lex_with(src, &budget))
        .map_err(|d| d.to_string())?;
    trace.count("cfront.lex.tokens", tokens.len() as f64);
    let prog = trace
        .time("cfront.parse", parent, || parse_program_with(src, &budget))
        .map_err(|d| d.to_string())?;
    let mut functions = Vec::new();
    for func in &prog.funcs {
        let lowered = trace
            .time("ir.lower", parent, || lower_function(func, &prog.globals))
            .map_err(|e| e.to_string())?;
        let env = RangeEnv::new();
        let properties = if level.analyzes_arrays() {
            trace
                .time("core.analyze_function", parent, || {
                    analyze_function(&lowered, level, &env)
                })
                .properties
        } else {
            PropertyDb::new()
        };
        let mut loops = Vec::new();
        collect_loops(&lowered.body, 0, &mut loops);
        trace.count("ir.lower.loops", loops.len() as f64);
        let mut reports = Vec::new();
        for (l, depth) in loops {
            let decision = trace.time("core.decide_loop", parent, || {
                decide_loop(l, &lowered.types, &lowered.conds, &properties, level, &env)
            });
            trace.count(
                "core.decide_loop.parallel",
                f64::from(u8::from(decision.is_parallel())),
            );
            reports.push(LoopReport {
                id: l.id,
                index_var: l.original_index.clone(),
                depth,
                decision,
            });
        }
        functions.push(FunctionReport {
            name: lowered.name.clone(),
            loops: reports,
            properties: properties.iter().map(|p| p.to_string()).collect(),
        });
    }
    Ok(ProgramReport { level, functions })
}

struct Cell {
    kernel: &'static str,
    func: &'static str,
    source: &'static str,
    level: AlgorithmLevel,
    want: crate::expect::Decision,
}

/// `AnalyzeSource` over the 48 (registry kernel × level) cells, drawn
/// uniformly. Every text carries a unique trailing comment, so no two
/// requests are byte-identical.
pub struct Analyze {
    svc: AnalysisService,
    cells: Vec<Cell>,
    next_req: u64,
}

impl Analyze {
    fn setup(warm: &mut WarmUp) -> Result<Analyze, String> {
        let table = DecisionTable::shipped();
        let mut cells = Vec::new();
        for k in all_kernels() {
            for level in LEVELS {
                let want = table
                    .get(k.name(), level)
                    .ok_or_else(|| format!("no expected decision for {} {level}", k.name()))?
                    .clone();
                cells.push(Cell {
                    kernel: k.name(),
                    func: k.func_name(),
                    source: k.source(),
                    level,
                    want,
                });
            }
        }
        let mut w = Analyze {
            svc: AnalysisService::start(service_config()),
            cells,
            next_req: 0,
        };
        for i in 0..w.cells.len() {
            let r = w.request(i).1;
            warm.note(w.cells[i].kernel, r);
        }
        Ok(w)
    }

    /// Sends cell `i` with a fresh request number; returns the latency,
    /// the check result, and (for the traced replay) the text and reply.
    fn request(
        &mut self,
        i: usize,
    ) -> (f64, Result<bool, String>, String, Instant, Option<Response>) {
        let cell = &self.cells[i];
        let text = format!("{}\n/* req {} */\n", cell.source, self.next_req);
        self.next_req += 1;
        let payload = Payload::AnalyzeSource {
            source: text.clone(),
            level: cell.level,
        };
        let (latency_us, t0, reply) = submit(&self.svc, payload);
        let checked = reply.as_ref().map_err(String::clone).and_then(|r| {
            let outcome = r.result.as_ref().map_err(|e| e.to_string())?;
            check_analyzed(outcome, cell.func, &cell.want)
        });
        (latency_us, checked, text, t0, reply.ok())
    }
}

impl Workload for Analyze {
    fn step(&mut self, rng: &mut Rng, op: u64, trace: Option<&mut Trace>) -> Step {
        let i = rng.below(self.cells.len());
        let (latency_us, outcome, text, t0, reply) = self.request(i);
        if let (Some(trace), Some(reply)) = (trace, reply) {
            trace.set_op(op);
            let worker = service_spans(trace, t0, latency_us, &reply.telemetry);
            let replay = trace.open("replay", Some(worker));
            // The replay's own result is not checked: the reply was.
            let _ = replay_analysis(&text, self.cells[i].level, trace, Some(replay));
            trace.close(replay);
        }
        Step {
            latency_us,
            outcome,
        }
    }

    fn service(&self) -> Option<&AnalysisService> {
        Some(&self.svc)
    }
}

/// One kernel of an execute workload, with the benchmark's own replay
/// instance and references.
struct ExecKernel {
    name: &'static str,
    dataset: &'static str,
    inst: Box<dyn KernelInstance>,
    ingested: Vec<(ValidatedIndexArray, MonotoneReq)>,
    executor: GuardedExecutor,
    variant: Variant,
    bindings: Bindings,
    golden: f64,
    serial_us: f64,
    want: GuardPath,
}

impl ExecKernel {
    fn setup(
        name: &'static str,
        dataset: &'static str,
        trace: &mut Trace,
    ) -> Result<ExecKernel, String> {
        let table = DecisionTable::shipped();
        let kernel = kernel_by_name(name).ok_or_else(|| format!("no kernel {name}"))?;
        let mut inst = trace.time("kernels.prepare", None, || kernel.prepare(dataset));
        let t = Instant::now();
        trace.time("kernels.run_serial", None, || inst.run_serial());
        let serial_us = t.elapsed().as_secs_f64() * 1e6;
        let golden = inst.checksum();
        inst.reset();
        let report = replay_analysis(kernel.source(), AlgorithmLevel::New, trace, None)?;
        let want = table
            .get(name, AlgorithmLevel::New)
            .ok_or_else(|| format!("no expected decision for {name}"))?;
        let got = decision_of(&report, kernel.func_name())?;
        if &got != want {
            return Err(format!("{name}: decision {got:?}, expected {want:?}"));
        }
        let plan_check = report
            .function(kernel.func_name())
            .and_then(|f| f.last_nest_parallel())
            .and_then(|l| l.decision.plan())
            .and_then(|p| p.runtime_check.clone());
        let executor = GuardedExecutor::new(plan_check.as_ref()).map_err(|e| e.to_string())?;
        let variant = match want.depth {
            None => Variant::Serial,
            Some(0) => Variant::OuterParallel,
            Some(_) => Variant::InnerParallel,
        };
        let bindings = inst.runtime_bindings();
        let mut ingested = Vec::new();
        let mut admits = want.depth == Some(0);
        for view in inst.index_arrays() {
            admits &= is_monotone(view.data, view.required);
            let arr = trace
                .time("rtcheck.ingest", None, || {
                    ValidatedIndexArray::ingest(
                        view.name,
                        view.data.to_vec(),
                        usize::MAX,
                        Provenance::Dataset {
                            name: format!("{name}:{dataset}"),
                        },
                    )
                })
                .map_err(|e| e.to_string())?;
            ingested.push((arr, view.required));
        }
        if let Some(check) = &want.check {
            admits &= eval_check(check, &bindings)?;
        }
        Ok(ExecKernel {
            name,
            dataset,
            inst,
            ingested,
            executor,
            variant,
            bindings,
            golden,
            serial_us,
            want: if admits {
                GuardPath::Parallel
            } else {
                GuardPath::Serial
            },
        })
    }

    /// Replays the service's execute path on the benchmark's instance:
    /// reset → verify and summary verdict per ingested copy → guard →
    /// run → checksum. Checks the replay's own results too.
    fn replay(&mut self, pool: &ThreadPool, trace: &mut Trace, parent: u32) -> Result<(), String> {
        let p = Some(parent);
        let inst = &mut self.inst;
        trace.time("kernels.reset", p, || inst.reset());
        let mut admitted = true;
        for (arr, req) in &self.ingested {
            trace
                .time("rtcheck.verify", p, || arr.verify())
                .map_err(|e| e.to_string())?;
            trace.count("rtcheck.verify.elems", arr.len() as f64);
            let v = trace.time("rtcheck.summary_verdict", p, || arr.summary_verdict());
            admitted &= v.satisfies(*req);
        }
        let decision = trace.time("rtcheck.guard", p, || {
            self.executor
                .decide_recoverable(self.name, &self.bindings, &[], Some(pool))
        });
        trace.count("rtcheck.guard.calls", 1.0);
        let guard_ok = decision.verdict.path == GuardPath::Parallel;
        trace.count("rtcheck.guard.admitted", f64::from(u8::from(guard_ok)));
        if (admitted && guard_ok) != (self.want == GuardPath::Parallel) {
            return Err(format!(
                "{}: replayed guard disagrees with {:?}",
                self.name, self.want
            ));
        }
        let variant = if admitted && guard_ok {
            self.variant
        } else {
            Variant::Serial
        };
        let inst = &mut self.inst;
        trace.time("kernels.run", p, || {
            inst.run(variant, pool, Schedule::Static { chunk: None })
        });
        trace.count("kernels.run.serial_equiv_us", self.serial_us);
        let cs = trace.time("kernels.checksum", p, || inst.checksum());
        check_checksum(cs, self.golden)
    }
}

/// `Execute` over the five index-array kernels, uniformly mixed, with a
/// warm verdict cache. `tiny` selects their small `test` datasets, where
/// the service's queue handoff and fork-join dominate.
pub struct Execute {
    svc: AnalysisService,
    kernels: Vec<ExecKernel>,
}

impl Execute {
    fn setup(tiny: bool, trace: &mut Trace, warm: &mut WarmUp) -> Result<Execute, String> {
        let svc = AnalysisService::start(service_config());
        let mut kernels = Vec::new();
        for (name, dataset) in EXECUTE_KERNELS {
            let dataset = if tiny { "test" } else { dataset };
            kernels.push(ExecKernel::setup(name, dataset, trace)?);
        }
        let w = Execute { svc, kernels };
        // Two rounds: the first builds the service's registry entries and
        // fills the verdict cache, the second runs on the warm cache.
        for _ in 0..2 {
            for i in 0..w.kernels.len() {
                let r = w.request(i).1;
                warm.note(w.kernels[i].name, r);
            }
        }
        Ok(w)
    }

    fn request(&self, i: usize) -> (f64, Result<bool, String>, Instant, Option<Response>) {
        let k = &self.kernels[i];
        let payload = Payload::Execute {
            kernel: k.name.to_string(),
            dataset: k.dataset.to_string(),
        };
        let (latency_us, t0, reply) = submit(&self.svc, payload);
        let checked = reply.as_ref().map_err(String::clone).and_then(|r| {
            let outcome = r.result.as_ref().map_err(|e| e.to_string())?;
            check_executed(outcome, k.golden, k.want)
        });
        (latency_us, checked, t0, reply.ok())
    }
}

impl Workload for Execute {
    fn step(&mut self, rng: &mut Rng, op: u64, trace: Option<&mut Trace>) -> Step {
        let i = rng.below(self.kernels.len());
        let (latency_us, mut outcome, t0, reply) = self.request(i);
        if let (Some(trace), Some(reply)) = (trace, reply) {
            trace.set_op(op);
            let worker = service_spans(trace, t0, latency_us, &reply.telemetry);
            let replay = trace.open("replay", Some(worker));
            let pool = std::sync::Arc::clone(self.svc.pool());
            let replayed = self.kernels[i].replay(&pool, trace, replay);
            trace.close(replay);
            outcome = outcome.and_then(|p| replayed.map(|()| p));
        }
        Step {
            latency_us,
            outcome,
        }
    }

    fn service(&self) -> Option<&AnalysisService> {
        Some(&self.svc)
    }
}

/// Elements in the revalidate array (1 Mi).
const REVALIDATE_LEN: usize = 1 << 20;
/// Entry `i` holds `i * SPACING + c` with `0 <= c < SPACING`, which is
/// strictly increasing whatever the `c`s are.
const SPACING: usize = 4;
/// Window sizes a write draws from.
const DELTAS: [usize; 3] = [1, 64, 4096];

/// Library-level `rtcheck` with no service: seven `mutate_range` writes
/// for every `verify` read over a strictly monotone 1 Mi array. One
/// write in 32 breaks monotonicity and the next write restores it.
pub struct Revalidate {
    arr: ValidatedIndexArray,
    /// Index of the one entry a breaking write left below its
    /// predecessor, until the next write restores it.
    broken: Option<usize>,
    writes: u64,
    read_slot: u64,
}

impl Revalidate {
    fn setup(seed: u64, trace: &mut Trace) -> Revalidate {
        let mut rng = Rng::new(seed, 0x5e70);
        let data: Vec<usize> = (0..REVALIDATE_LEN)
            .map(|i| i * SPACING + rng.below(SPACING))
            .collect();
        let arr = trace
            .time("rtcheck.ingest", None, || {
                ValidatedIndexArray::ingest(
                    "keys",
                    data,
                    REVALIDATE_LEN * SPACING,
                    Provenance::Generated { seed },
                )
            })
            .expect("generated entries stay below the domain");
        Revalidate {
            arr,
            broken: None,
            writes: 0,
            read_slot: 0,
        }
    }

    /// The verdict the array must have, from what was written.
    fn expected(&self) -> MonotoneVerdict {
        MonotoneVerdict {
            nonstrict: self.broken.is_none(),
            strict: self.broken.is_none(),
            first_violation: self.broken,
            len: REVALIDATE_LEN,
        }
    }

    fn write(&mut self, rng: &mut Rng, trace: Option<(&mut Trace, u32)>) -> Result<bool, String> {
        let delta = DELTAS[rng.below(DELTAS.len())];
        let lo = match self.broken {
            // The restoring write covers the broken entry.
            Some(j) => j
                .saturating_sub(rng.below(delta))
                .min(REVALIDATE_LEN - delta),
            // Start at 2 or later, so a broken entry always has a
            // predecessor at least SPACING above zero.
            None => 2 + rng.below(REVALIDATE_LEN - delta - 1),
        };
        self.writes += 1;
        let breaks = self.broken.is_none() && self.writes.is_multiple_of(32);
        let j = lo + rng.below(delta);
        let base = rng.below(SPACING);
        let fill = |w: &mut [usize]| {
            for (t, x) in w.iter_mut().enumerate() {
                *x = (lo + t) * SPACING + (base + t) % SPACING;
            }
            if breaks {
                w[j - lo] = 0;
            }
        };
        let (written, verdict) = match trace {
            Some((tr, p)) => (
                tr.time("rtcheck.mutate_range", Some(p), || {
                    self.arr.mutate_range(lo..lo + delta, fill)
                }),
                tr.time("rtcheck.summary_verdict", Some(p), || {
                    self.arr.summary_verdict()
                }),
            ),
            None => (
                self.arr.mutate_range(lo..lo + delta, fill),
                self.arr.summary_verdict(),
            ),
        };
        written.map_err(|e| e.to_string())?;
        self.broken = breaks.then_some(j);
        check_verdict(&verdict, &self.expected())?;
        Ok(verdict.strict)
    }

    fn read(&mut self, trace: Option<(&mut Trace, u32)>) -> Result<bool, String> {
        let (verified, verdict) = match trace {
            Some((tr, p)) => {
                tr.count("rtcheck.verify.elems", self.arr.len() as f64);
                (
                    tr.time("rtcheck.verify", Some(p), || self.arr.verify()),
                    tr.time("rtcheck.summary_verdict", Some(p), || {
                        self.arr.summary_verdict()
                    }),
                )
            }
            None => (self.arr.verify(), self.arr.summary_verdict()),
        };
        verified.map_err(|e| e.to_string())?;
        check_verdict(&verdict, &self.expected())?;
        Ok(verdict.strict)
    }
}

impl Workload for Revalidate {
    fn step(&mut self, rng: &mut Rng, op: u64, trace: Option<&mut Trace>) -> Step {
        if op.is_multiple_of(8) {
            self.read_slot = rng.below(8) as u64;
        }
        let is_read = op % 8 == self.read_slot;
        let t0 = Instant::now();
        let outcome = match trace {
            Some(tr) => {
                tr.set_op(op);
                let root = tr.open("op", None);
                let r = if is_read {
                    self.read(Some((&mut *tr, root)))
                } else {
                    self.write(rng, Some((&mut *tr, root)))
                };
                tr.close(root);
                r
            }
            None if is_read => self.read(None),
            None => self.write(rng, None),
        };
        Step {
            latency_us: t0.elapsed().as_secs_f64() * 1e6,
            outcome,
        }
    }

    fn end_phase(&mut self) -> Result<(), String> {
        if let Some(j) = self.broken.take() {
            self.arr
                .mutate_range(j..j + 1, |w| w[0] = j * SPACING)
                .map_err(|e| e.to_string())?;
        }
        check_verdict(&self.arr.summary_verdict(), &self.expected())
    }

    fn config(&self) -> String {
        format!("none (library-level rtcheck, {REVALIDATE_LEN} entries)")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replayed_analysis_matches_the_decision_table() {
        let table = DecisionTable::shipped();
        let mut trace = Trace::new();
        for k in all_kernels() {
            for level in LEVELS {
                let report = replay_analysis(k.source(), level, &mut trace, None).unwrap();
                let got = decision_of(&report, k.func_name()).unwrap();
                assert_eq!(
                    Some(&got),
                    table.get(k.name(), level),
                    "{} {level}",
                    k.name()
                );
            }
        }
    }

    #[test]
    fn revalidate_tracks_breaks_and_restores() {
        let mut trace = Trace::new();
        let mut w = Revalidate::setup(5, &mut trace);
        let mut rng = Rng::new(5, 1);
        let mut saw_broken = false;
        for op in 0..200 {
            let s = w.step(&mut rng, op, None);
            assert!(s.outcome.is_ok(), "op {op}: {:?}", s.outcome);
            saw_broken |= w.broken.is_some();
        }
        assert!(saw_broken);
        w.end_phase().unwrap();
        assert!(w.broken.is_none());
    }

    #[test]
    fn revalidate_check_fails_on_a_tampered_expectation() {
        let mut trace = Trace::new();
        let mut w = Revalidate::setup(6, &mut trace);
        // Pretend the benchmark wrote a break it never wrote.
        w.broken = Some(10);
        assert!(w.read(None).is_err());
    }
}
