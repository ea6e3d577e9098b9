//! Sample statistics, process memory and the run environment.

use std::time::{Duration, Instant};

/// Median of `xs` (mean of the two middle values for an even count);
/// 0 for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank percentile `pct` (1..=100) of an ascending slice.
fn nearest_rank(sorted: &[f64], pct: usize) -> f64 {
    let rank = (pct * sorted.len()).div_ceil(100).max(1);
    sorted[rank - 1]
}

/// Median and tail of a set of sample latencies.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencySummary {
    /// Number of samples.
    pub count: usize,
    /// Median latency.
    pub p50: f64,
    /// The highest percentile with at least ten samples beyond it. When
    /// the run is too short for any percentile above the median, no tail
    /// can be resolved and this is the median.
    pub tail: f64,
    /// Which percentile `tail` is (50 when it fell back to the median).
    pub tail_pct: usize,
}

/// Summarises `xs`: the median, and as the tail the highest integer
/// percentile above 50 that leaves at least ten samples strictly beyond
/// it (nearest rank). A run too short for one reports the median as its
/// tail: the maximum of a handful of samples would only measure noise.
pub fn summarize(xs: &[f64]) -> LatencySummary {
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let p50 = median(&sorted);
    let tail_pct = (51..=99)
        .rev()
        .find(|&p| n >= 10 && (p * n).div_ceil(100) <= n - 10);
    LatencySummary {
        count: n,
        p50,
        tail: tail_pct.map_or(p50, |p| nearest_rank(&sorted, p)),
        tail_pct: tail_pct.unwrap_or(50),
    }
}

/// Nearest-rank percentile of unsorted durations, in microseconds.
pub fn percentile_us(xs: &[Duration], pct: usize) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v: Vec<f64> = xs.iter().map(|d| d.as_secs_f64() * 1e6).collect();
    v.sort_by(f64::total_cmp);
    nearest_rank(&v, pct)
}

/// Milliseconds in `d`.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Runs `f`, returning its result and how long it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// A `kB` field of `/proc/self/status`, in MiB; 0 where the platform has
/// no procfs.
fn status_mib(field: &str) -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|line| line.strip_prefix(field))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Resident set size now, in MiB.
pub fn rss_mib() -> f64 {
    status_mib("VmRSS:")
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    status_mib("VmHWM:")
}

/// Pins the calling thread, and every thread it spawns afterwards, to
/// the lowest-numbered CPU it may run on. Returns that CPU; `None`
/// where the platform cannot pin.
#[cfg(target_os = "linux")]
pub fn pin_to_one_cpu() -> Option<usize> {
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    nproc();
    let mut mask = [0u64; 16];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a writable buffer of `size` bytes, and pid 0 is
    // the calling thread.
    if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
        return None;
    }
    let (word, bits) = mask.iter().enumerate().find(|(_, w)| **w != 0)?;
    let cpu = word * 64 + bits.trailing_zeros() as usize;
    let mut one = [0u64; 16];
    one[word] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable buffer of `size` bytes.
    (unsafe { sched_setaffinity(0, size, one.as_ptr()) } == 0).then_some(cpu)
}

/// Pins the calling thread, and every thread it spawns afterwards, to
/// the lowest-numbered CPU it may run on. Returns that CPU; `None`
/// where the platform cannot pin.
#[cfg(not(target_os = "linux"))]
pub fn pin_to_one_cpu() -> Option<usize> {
    None
}

/// Cores this process may run on, as first read: before
/// [`pin_to_one_cpu`] narrows them.
pub fn nproc() -> usize {
    static NPROC: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *NPROC
        .get_or_init(|| std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get))
}

/// The build profile of this binary.
pub fn profile() -> &'static str {
    if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    }
}

/// The commit of the checkout the benchmark runs in, read from `.git`
/// without spawning git; `unknown` outside a git checkout.
pub fn commit() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(id) = read(&format!(".git/{reference}")) {
        return id.trim().to_string();
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed.lines().find_map(|line| {
                let (id, name) = line.split_once(' ')?;
                (name == reference).then(|| id.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let s = summarize(&xs);
        assert_eq!((s.count, s.tail_pct, s.tail), (100, 90, 90.0));
        assert_eq!(s.p50, 50.5);
        let short: Vec<f64> = (1..=8).map(f64::from).collect();
        let s = summarize(&short);
        assert_eq!((s.tail_pct, s.tail), (50, 4.5));
        // Twenty samples leave ten beyond the median only.
        let twenty: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(summarize(&twenty).tail_pct, 50);
        let s = summarize(&(1..=21).map(f64::from).collect::<Vec<_>>());
        assert_eq!((s.tail_pct, s.tail), (52, 11.0));
    }
}
