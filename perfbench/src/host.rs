//! What the benchmark learns about the process and the machine: CPU
//! time, peak memory, and the identity every result is stamped with.

use std::path::Path;
use std::time::Duration;

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` from `<sys/resource.h>` on 64-bit Linux.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    rest: [i64; 14],
}

/// `cpu_set_t` from `<sched.h>`: a 1024-bit mask.
type CpuSet = [u64; 16];

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

const RUSAGE_SELF: i32 = 0;

/// User plus system CPU time of the whole process so far.
pub fn process_cpu() -> Duration {
    let mut u = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        rest: [0; 14],
    };
    // SAFETY: `u` is a live, writable `struct rusage` of the size and
    // layout the C library writes for RUSAGE_SELF on 64-bit Linux.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut u) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail");
    let us = |t: &Timeval| t.sec as f64 * 1e6 + t.usec as f64;
    Duration::from_secs_f64((us(&u.utime) + us(&u.stime)) / 1e6)
}

/// The CPUs the calling thread may run on, ascending.
pub fn allowed_cpus() -> Vec<usize> {
    let mut mask: CpuSet = [0; 16];
    // SAFETY: `mask` is a live, writable `cpu_set_t` of the size passed.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut mask) };
    if rc != 0 {
        return Vec::new();
    }
    (0..1024)
        .filter(|&c| mask[c / 64] & (1 << (c % 64)) != 0)
        .collect()
}

/// Restricts the calling thread, and every thread it starts from now
/// on, to the CPUs in `cpus`.
pub fn set_cpus(cpus: &[usize]) -> Result<(), String> {
    let mut mask: CpuSet = [0; 16];
    for &c in cpus.iter().filter(|&&c| c < 1024) {
        mask[c / 64] |= 1 << (c % 64);
    }
    // SAFETY: `mask` is a live `cpu_set_t` of the size passed.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &mask) };
    if rc == 0 {
        Ok(())
    } else {
        Err(format!("sched_setaffinity({cpus:?}) failed"))
    }
}

/// Gives the calling thread its CPU set back when dropped.
pub struct RestoreCpus(pub Vec<usize>);

impl Drop for RestoreCpus {
    fn drop(&mut self) {
        if let Err(e) = set_cpus(&self.0) {
            eprintln!("perfbench: {e}");
        }
    }
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .and_then(|l| l.split_once(':'))
        .map_or_else(|| "unknown".to_string(), |(_, m)| m.trim().to_string())
}

/// The commit checked out in `root`, read from `.git` directly so the
/// lookup never leaves the checkout; `none` outside a git work tree.
fn git_rev(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "none".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_suffix(reference).map(|r| r.trim().to_string()))
        .unwrap_or_else(|| "unknown".to_string())
}

/// FNV-1a over the path and bytes of every file under `dir`, in sorted
/// path order: identifies the code under test even without git.
fn tree_digest(dir: &Path) -> u64 {
    fn walk(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else {
                out.push(p);
            }
        }
    }
    let mut files = Vec::new();
    walk(dir, &mut files);
    files.sort();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for b in bytes {
            h = (h ^ u64::from(*b)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    for f in files {
        eat(f
            .strip_prefix(dir)
            .unwrap_or(&f)
            .to_string_lossy()
            .as_bytes());
        eat(&std::fs::read(&f).unwrap_or_default());
    }
    h
}

/// Identity of one result: where, from what, and how it was measured.
/// Two results are comparable only if their `comparable` keys match.
#[derive(Debug, Clone)]
pub struct Stamp {
    pub workload: String,
    pub seed: u64,
    pub window_s: f64,
    pub trace: bool,
    pub cpu_model: String,
    pub nproc: usize,
    pub rustflags: String,
    pub git_rev: String,
    pub source_digest: String,
    pub service_config: String,
}

impl Stamp {
    /// Stamps a run of `workload` in the checkout rooted at `root`.
    pub fn new(workload: &str, seed: u64, window: Duration, trace: bool, config: String) -> Stamp {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .expect("the benchmark package sits inside the repository");
        Stamp {
            workload: workload.to_string(),
            seed,
            window_s: window.as_secs_f64(),
            trace,
            cpu_model: cpu_model(),
            nproc: std::thread::available_parallelism().map_or(0, |n| n.get()),
            rustflags: env!("PERFBENCH_RUSTFLAGS").to_string(),
            git_rev: git_rev(root),
            source_digest: format!("{:016x}", tree_digest(&root.join("crates"))),
            service_config: config,
        }
    }

    /// Everything that must match for two results to be compared: host,
    /// build flags, workload, window and service configuration (not the
    /// seed, and not the code under test — that is what gets compared).
    pub fn comparable(&self) -> String {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let key = format!(
            "{}|{}|{}|{}|{}|{}|{}",
            self.cpu_model,
            self.nproc,
            self.rustflags,
            self.workload,
            self.window_s,
            self.trace,
            self.service_config
        );
        for b in key.as_bytes() {
            h = (h ^ u64::from(*b)).wrapping_mul(0x0100_0000_01b3);
        }
        format!("{h:016x}")
    }

    /// One JSON object line.
    pub fn to_json(&self) -> String {
        use subsub_telemetry::json::escape;
        format!(
            "{{\"stamp\": {{\"workload\": \"{}\", \"seed\": {}, \"window_s\": {}, \"trace\": {}, \
             \"cpu_model\": \"{}\", \"nproc\": {}, \"rustflags\": \"{}\", \"git_rev\": \"{}\", \
             \"source_digest\": \"{}\", \"service_config\": \"{}\", \"comparable\": \"{}\"}}}}",
            escape(&self.workload),
            self.seed,
            self.window_s,
            self.trace,
            escape(&self.cpu_model),
            self.nproc,
            escape(&self.rustflags),
            escape(&self.git_rev),
            self.source_digest,
            escape(&self.service_config),
            self.comparable()
        )
    }
}

/// SplitMix64: the benchmark's own generator for everything the seed
/// drives, so the inputs do not depend on the code under test.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xd1b5_4a32_d192_ed03))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform draw from `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn process_probes_read_sane_values() {
        let spin: u64 = (0..2_000_000u64).map(std::hint::black_box).sum();
        assert!(spin > 0);
        assert!(process_cpu() > Duration::ZERO);
        assert!(peak_rss_mib() > 1.0);
    }

    #[test]
    fn cpu_set_round_trips_and_restores() {
        let all = allowed_cpus();
        assert!(!all.is_empty());
        {
            let _restore = RestoreCpus(all.clone());
            set_cpus(&all[..1]).unwrap();
            assert_eq!(allowed_cpus(), all[..1]);
        }
        assert_eq!(allowed_cpus(), all);
    }

    #[test]
    fn stamp_names_the_host_and_keys_on_settings() {
        let a = Stamp::new("analyze", 1, Duration::from_secs(10), false, "cfg".into());
        let b = Stamp::new("analyze", 2, Duration::from_secs(10), false, "cfg".into());
        let c = Stamp::new("analyze", 1, Duration::from_secs(10), false, "other".into());
        assert!(a.nproc >= 1);
        assert_ne!(a.cpu_model, "");
        assert_eq!(
            a.comparable(),
            b.comparable(),
            "the seed is not part of the key"
        );
        assert_ne!(a.comparable(), c.comparable(), "the config is");
        let parsed = subsub_telemetry::json::parse(&a.to_json()).unwrap();
        assert_eq!(
            parsed
                .get("stamp")
                .and_then(|s| s.get("seed"))
                .and_then(|s| s.as_u64()),
            Some(1)
        );
    }

    #[test]
    fn rng_is_seeded() {
        let draw = |seed| {
            let mut r = Rng::new(seed, 3);
            (0..4).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(9), draw(9));
        assert_ne!(draw(9), draw(10));
    }
}
