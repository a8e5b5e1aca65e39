//! In-memory span recorder for the traced replay. Spans are kept in a
//! vector while the run lasts and written out once when it ends.

use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Operation the span belongs to.
    pub op: u64,
    /// Parent span id, if any.
    pub parent: Option<u32>,
    /// `<layer>.<call>` for layer calls; `service.*`, `replay` and `op`
    /// for the frames around them.
    pub name: &'static str,
    /// Offsets from the trace epoch, in nanoseconds.
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Spans whose self time counts as replayed layer work. `cfront.lex` is
/// a separate probe whose work `cfront.parse` repeats, so it is left out.
pub fn is_layer_work(name: &str) -> bool {
    ["cfront.", "ir.", "core.", "rtcheck.", "kernels."]
        .iter()
        .any(|p| name.starts_with(p))
        && name != "cfront.lex"
}

/// The recorder. Span ids are indices into the span vector.
#[derive(Debug)]
pub struct Trace {
    epoch: Instant,
    op: u64,
    spans: Vec<Span>,
    counts: HashMap<&'static str, f64>,
}

impl Default for Trace {
    fn default() -> Trace {
        Trace::new()
    }
}

impl Trace {
    /// An empty trace whose epoch is now.
    pub fn new() -> Trace {
        Trace {
            epoch: Instant::now(),
            op: 0,
            spans: Vec::new(),
            counts: HashMap::new(),
        }
    }

    /// Adds `v` to the named counter (work done, useful outcomes).
    pub fn count(&mut self, name: &'static str, v: f64) {
        *self.counts.entry(name).or_default() += v;
    }

    /// A counter's total (0 when never counted).
    pub fn counted(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0.0)
    }

    /// Sets the operation id stamped on spans recorded from now on.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    fn offset(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a finished interval; returns its id.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<u32>,
        start: Instant,
        end: Instant,
    ) -> u32 {
        let span = Span {
            op: self.op,
            parent,
            name,
            start_ns: self.offset(start),
            end_ns: self.offset(end),
        };
        self.spans.push(span);
        (self.spans.len() - 1) as u32
    }

    /// Opens a span now; children may be recorded before [`Trace::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<u32>) -> u32 {
        let now = Instant::now();
        self.record(name, parent, now, now)
    }

    /// Closes a span opened with [`Trace::open`].
    pub fn close(&mut self, id: u32) {
        let end = self.offset(Instant::now());
        self.spans[id as usize].end_ns = end;
    }

    /// Runs `f` inside a leaf span.
    pub fn time<T>(&mut self, name: &'static str, parent: Option<u32>, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.record(name, parent, start, Instant::now());
        out
    }

    /// Self time of every span in microseconds: its duration minus the
    /// part of it that its children's intervals cover.
    pub fn self_times_us(&self) -> Vec<f64> {
        let mut children: HashMap<u32, Vec<(u64, u64)>> = HashMap::new();
        for s in &self.spans {
            if let Some(p) = s.parent {
                children.entry(p).or_default().push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                let mut kids = children.remove(&(id as u32)).unwrap_or_default();
                kids.sort_unstable();
                let (mut covered, mut reach) = (0u64, s.start_ns);
                for (a, b) in kids {
                    let (a, b) = (a.max(reach), b.min(s.end_ns));
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                (s.end_ns - s.start_ns).saturating_sub(covered) as f64 / 1e3
            })
            .collect()
    }

    /// Durations grouped by span name, in microseconds.
    pub fn durations_by_name(&self) -> HashMap<&'static str, Vec<f64>> {
        let mut out: HashMap<&'static str, Vec<f64>> = HashMap::new();
        for s in &self.spans {
            out.entry(s.name)
                .or_default()
                .push((s.end_ns - s.start_ns) as f64 / 1e3);
        }
        out
    }

    /// Self times grouped by span name.
    pub fn self_times_by_name(&self) -> HashMap<&'static str, Vec<f64>> {
        let mut out: HashMap<&'static str, Vec<f64>> = HashMap::new();
        for (s, t) in self.spans.iter().zip(self.self_times_us()) {
            out.entry(s.name).or_default().push(t);
        }
        out
    }

    /// Per operation: the time the work took where it ran (the
    /// `service.worker` span, or the `op` span for library workloads)
    /// minus the replayed layer self times, in microseconds.
    pub fn unattributed_us(&self) -> Vec<f64> {
        let mut basis: HashMap<u64, f64> = HashMap::new();
        let mut layers: HashMap<u64, f64> = HashMap::new();
        for (s, t) in self.spans.iter().zip(self.self_times_us()) {
            let dur = (s.end_ns - s.start_ns) as f64 / 1e3;
            match s.name {
                "service.worker" => {
                    basis.insert(s.op, dur);
                }
                "op" => {
                    basis.entry(s.op).or_insert(dur);
                }
                n if is_layer_work(n) => *layers.entry(s.op).or_default() += t,
                _ => {}
            }
        }
        let mut ops: Vec<_> = basis.into_iter().collect();
        ops.sort_unstable_by_key(|(op, _)| *op);
        ops.into_iter()
            .map(|(op, b)| b - layers.get(&op).copied().unwrap_or(0.0))
            .collect()
    }

    /// Writes one JSON object per span, one per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"op\": {}, \"id\": {id}, \"parent\": {parent}, \"name\": \"{}\", \
                 \"start_ns\": {}, \"end_ns\": {}}}",
                s.op, s.name, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}

/// Adds a duration to an instant without overflow panics.
pub fn after(t: Instant, d: Duration) -> Instant {
    t.checked_add(d).unwrap_or(t)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_covered_child_intervals() {
        let mut tr = Trace::new();
        let t0 = Instant::now();
        let us = |n| after(t0, Duration::from_micros(n));
        tr.set_op(4);
        let req = tr.record("service.request", None, us(0), us(100));
        tr.record("service.queued", Some(req), us(0), us(20));
        let worker = tr.record("service.worker", Some(req), us(25), us(95));
        // Replayed layer calls hang off the worker but run after it.
        let replay = tr.record("replay", Some(worker), us(200), us(260));
        tr.record("cfront.lex", Some(replay), us(200), us(205));
        tr.record("cfront.parse", Some(replay), us(205), us(230));
        tr.record("core.decide_loop", Some(replay), us(230), us(250));
        let st = tr.self_times_us();
        assert_eq!(
            st[req as usize], 10.0,
            "handoff = request - queued - worker"
        );
        assert_eq!(
            st[worker as usize], 70.0,
            "children outside it cover nothing"
        );
        assert_eq!(st[replay as usize], 10.0);
        assert_eq!(tr.unattributed_us(), vec![70.0 - 25.0 - 20.0]);
        let by = tr.self_times_by_name();
        assert_eq!(by["cfront.parse"], vec![25.0]);
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let path = dir.join("trace-unit-test.jsonl");
        tr.write_jsonl(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(text.lines().count(), 7);
        for line in text.lines() {
            subsub_telemetry::json::parse(line).unwrap();
        }
    }

    #[test]
    fn overlapping_children_count_once() {
        let mut tr = Trace::new();
        let t0 = Instant::now();
        let us = |n| after(t0, Duration::from_micros(n));
        let p = tr.record("op", None, us(0), us(50));
        tr.record("rtcheck.verify", Some(p), us(10), us(30));
        tr.record("rtcheck.summary_verdict", Some(p), us(20), us(40));
        assert_eq!(tr.self_times_us()[p as usize], 20.0);
    }
}
