//! Order statistics over latency samples, process memory, and the
//! seeded permutations that order each run's requests.

/// The `p`-th percentile (0–100) of `sorted` by the nearest-rank rule.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Number of samples strictly above the `p`-th percentile.
pub fn beyond(sorted: &[f64], p: f64) -> usize {
    let v = percentile(sorted, p);
    sorted.len() - sorted.partition_point(|&x| x <= v)
}

/// The median of `values` (any order).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of no values");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

extern "C" {
    /// glibc: returns free heap memory of every arena to the system.
    fn malloc_trim(pad: usize) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// A `cpu_set_t`: one bit per CPU, 1024 CPUs.
type CpuSet = [u64; 16];

/// The CPUs the calling thread may run on.
pub fn allowed_cpus() -> Vec<usize> {
    let mut set: CpuSet = [0; 16];
    // SAFETY: `set` is a writable buffer of the size passed.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), set.as_mut_ptr()) };
    if rc != 0 {
        return Vec::new();
    }
    (0..1024)
        .filter(|&c| set[c / 64] >> (c % 64) & 1 == 1)
        .collect()
}

/// Moves the calling thread onto `cpus` (all of them when empty).
pub fn run_on(cpus: &[usize]) {
    let mut set: CpuSet = [0; 16];
    for &c in cpus {
        set[c / 64] |= 1 << (c % 64);
    }
    // SAFETY: `set` is a readable buffer of the size passed. A failure
    // leaves the thread where it was, which only costs steadiness.
    unsafe {
        sched_setaffinity(0, std::mem::size_of::<CpuSet>(), set.as_ptr());
    }
}

/// Runs `work` (the timed window) and returns its result with this
/// process's peak resident size (`VmHWM`) over the window, in MiB.
/// Before the window, free heap memory left by set-up is handed back
/// and the peak count restarts from the current resident size; nothing
/// is trimmed or reset inside the window, so the peak counts whatever
/// the window itself holds, keeps in the allocator, or briefly touches.
pub fn peak_rss_during<T>(work: impl FnOnce() -> T) -> Result<(T, f64), String> {
    // SAFETY: malloc_trim has no preconditions; it only walks glibc's
    // own arenas under their locks.
    unsafe {
        malloc_trim(0);
    }
    std::fs::write("/proc/self/clear_refs", "5").map_err(|e| format!("reset peak RSS: {e}"))?;
    let out = work();
    Ok((out, peak_rss_mb()))
}

/// Peak resident set size of this process (`VmHWM`) in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Shuffles `items` with a Fisher–Yates pass driven by `seed`.
pub fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut rng = wet_bench::BenchRng::new(mix(seed));
    for i in (1..items.len()).rev() {
        let j = rng.next_below(i as u64 + 1) as usize;
        items.swap(i, j);
    }
}

/// SplitMix64 finalizer: spreads nearby seeds over the whole range.
pub fn mix(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// FNV-1a over a stream of integers: the answer digest both sides of
/// the correctness check compute.
#[derive(Clone, Copy)]
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn push(&mut self, x: i64) {
        for b in x.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(beyond(&v, 90.0), 10);
        assert_eq!(median(&[3.0, 1.0, 2.0, 4.0]), 2.5);
    }

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let mut a: Vec<u32> = (0..50).collect();
        let mut b = a.clone();
        shuffle(&mut a, 7);
        shuffle(&mut b, 7);
        assert_eq!(a, b);
        let mut c = a.clone();
        c.sort_unstable();
        assert_eq!(c, (0..50).collect::<Vec<_>>());
    }
}
