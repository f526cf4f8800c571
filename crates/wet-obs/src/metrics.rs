//! The metrics registry: counters, gauges, and fixed-bucket histograms
//! keyed by `(name, label)`.
//!
//! The registry is *live*: every instrument is an atomic cell behind an
//! `RwLock<HashMap>` index, so updates are a shared-read lock plus one
//! relaxed atomic RMW (no allocation once a key exists) and a snapshot
//! can be taken at any moment — which is what lets a long-running
//! `wet serve` answer `stats` ops and `GET /metrics` scrapes without
//! ever stopping. The write lock is taken only the first time a
//! `(name, label)` pair is seen. Snapshots collect into `BTreeMap`s so
//! every sink iterates in a stable order.
//!
//! Hot paths that cannot afford even the index lookup (per-request
//! counters in the serve dispatch loop) intern a handle once —
//! [`counter_handle`], [`gauge_handle`], [`hist_handle`] — and then
//! update through a single `Arc<Atomic*>` deref: one relaxed atomic per
//! site, unconditionally live (handles are for always-on operational
//! metrics, so they bypass the `enabled()` profiling gate).

use std::borrow::Cow;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, LazyLock, RwLock, RwLockReadGuard, RwLockWriteGuard};

use crate::capture;
use crate::span::enabled;

/// Number of histogram buckets: bucket `i` counts values `<= 2^i`, and
/// the last bucket is the overflow (`+Inf`) bucket.
pub const HIST_BUCKETS: usize = 32;

/// A point-in-time copy of one power-of-two-bucket histogram. Bucket
/// upper bounds are 1, 2, 4, … 2^30, +Inf — wide enough for group
/// sizes, fan-outs, byte counts, and microsecond latencies without any
/// per-histogram configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hist {
    pub buckets: [u64; HIST_BUCKETS],
    pub count: u64,
    pub sum: u64,
}

impl Hist {
    pub(crate) fn new() -> Self {
        Hist { buckets: [0; HIST_BUCKETS], count: 0, sum: 0 }
    }

    #[cfg(test)]
    fn record(&mut self, value: u64) {
        self.buckets[Self::bucket_for(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
    }

    /// Index of the smallest bucket whose bound covers `value`.
    pub fn bucket_for(value: u64) -> usize {
        if value <= 1 {
            0
        } else {
            // ceil(log2(value)) = bit length of value-1.
            let bits = (64 - (value - 1).leading_zeros()) as usize;
            bits.min(HIST_BUCKETS - 1)
        }
    }

    /// Upper bound of bucket `i` as a string ("+Inf" for the last).
    pub fn bound_label(i: usize) -> String {
        if i + 1 == HIST_BUCKETS {
            "+Inf".to_string()
        } else {
            (1u64 << i).to_string()
        }
    }

    /// Upper bound of bucket `i` as a value (`u64::MAX` for the +Inf
    /// bucket). Inverse of [`Hist::bucket_for`] up to bucket rounding.
    pub fn bound_value(i: usize) -> u64 {
        if i + 1 == HIST_BUCKETS {
            u64::MAX
        } else {
            1u64 << i
        }
    }

    /// Arithmetic mean of recorded values (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The `p`-th percentile (`0.0 ..= 100.0`) as the upper bound of
    /// the bucket holding the rank-⌈p/100·count⌉ observation — an
    /// overestimate by at most one power of two, which is the
    /// resolution this histogram trades for fixed size. Returns 0 on an
    /// empty histogram and `u64::MAX` when the rank falls in +Inf.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((p.clamp(0.0, 100.0) / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut cum = 0u64;
        for (i, &b) in self.buckets.iter().enumerate() {
            cum = cum.saturating_add(b);
            if cum >= rank {
                return Self::bound_value(i);
            }
        }
        u64::MAX
    }
}

/// The live form of [`Hist`]: per-bucket relaxed atomics, recordable
/// from any thread with no lock and readable at any time. `count` is
/// bumped *last* so a concurrent [`LiveHist::load`] never reports a
/// count larger than the buckets it sees.
#[derive(Debug, Default)]
pub struct AtomicHist {
    buckets: [AtomicU64; HIST_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl AtomicHist {
    fn record(&self, value: u64) {
        self.buckets[Hist::bucket_for(value)].fetch_add(1, Relaxed);
        self.sum.fetch_add(value, Relaxed);
        self.count.fetch_add(1, Relaxed);
    }

    fn load(&self) -> Hist {
        let mut h = Hist::new();
        h.count = self.count.load(Relaxed);
        h.sum = self.sum.load(Relaxed);
        for (dst, src) in h.buckets.iter_mut().zip(&self.buckets) {
            *dst = src.load(Relaxed);
        }
        h
    }

    fn clear(&self) {
        for b in &self.buckets {
            b.store(0, Relaxed);
        }
        self.count.store(0, Relaxed);
        self.sum.store(0, Relaxed);
    }
}

type Family<T> = HashMap<String, HashMap<String, Arc<T>>>;

#[derive(Default)]
struct Registry {
    counters: Family<AtomicU64>,
    gauges: Family<AtomicI64>,
    hists: Family<AtomicHist>,
}

static REGISTRY: LazyLock<RwLock<Registry>> = LazyLock::new(|| RwLock::new(Registry::default()));

fn read_reg() -> RwLockReadGuard<'static, Registry> {
    REGISTRY.read().unwrap_or_else(|e| e.into_inner())
}

fn write_reg() -> RwLockWriteGuard<'static, Registry> {
    REGISTRY.write().unwrap_or_else(|e| e.into_inner())
}

/// Fetch-or-intern the cell for `family[name][label]`: shared-read fast
/// path (no allocation), write-lock + `String` allocation only on first
/// sight of the pair.
fn cell<T: Default>(pick: fn(&Registry) -> &Family<T>, pick_mut: fn(&mut Registry) -> &mut Family<T>, name: &str, label: &str) -> Arc<T> {
    {
        let reg = read_reg();
        if let Some(c) = pick(&reg).get(name).and_then(|m| m.get(label)) {
            return Arc::clone(c);
        }
    }
    let mut reg = write_reg();
    Arc::clone(
        pick_mut(&mut reg)
            .entry(name.to_string())
            .or_default()
            .entry(label.to_string())
            .or_default(),
    )
}

/// Update the cell for `family[name][label]` without cloning the `Arc`:
/// one shared-read lock + the relaxed RMW inside `f` on the fast path.
fn update<T: Default>(pick: fn(&Registry) -> &Family<T>, pick_mut: fn(&mut Registry) -> &mut Family<T>, name: &str, label: &str, f: impl Fn(&T)) {
    {
        let reg = read_reg();
        if let Some(c) = pick(&reg).get(name).and_then(|m| m.get(label)) {
            f(c);
            return;
        }
    }
    f(&cell(pick, pick_mut, name, label));
}

/// Add `delta` to the counter `name{label}`. A live capture keeps the
/// increment; the registry gets it only when profiling is enabled on
/// this thread. Use `""` for unlabeled counters.
pub fn counter_add(name: &str, label: &str, delta: u64) {
    if delta == 0 {
        return;
    }
    capture::record(|| Cow::Owned(name.to_owned()), delta, None);
    if !enabled() {
        return;
    }
    update(|r| &r.counters, |r| &mut r.counters, name, label, |c| {
        c.fetch_add(delta, Relaxed);
    });
}

/// Set the gauge `name{label}` to `value` (last write wins). No-op when
/// profiling is disabled on this thread.
pub fn gauge_set(name: &str, label: &str, value: i64) {
    if !enabled() {
        return;
    }
    update(|r| &r.gauges, |r| &mut r.gauges, name, label, |g| {
        g.store(value, Relaxed);
    });
}

/// Raise the gauge `name{label}` to `value` if `value` is higher —
/// i.e. record a peak (high-water mark). Unlike [`gauge_set`], this is
/// order-independent, so concurrent workers can publish their local
/// peaks and the registry keeps the maximum. No-op when profiling is
/// disabled on this thread.
pub fn gauge_max(name: &str, label: &str, value: i64) {
    if !enabled() {
        return;
    }
    update(|r| &r.gauges, |r| &mut r.gauges, name, label, |g| {
        g.fetch_max(value, Relaxed);
    });
}

/// Record one observation into the histogram `name{label}`. A live
/// capture keeps it; the registry gets it only when profiling is
/// enabled on this thread.
pub fn hist_record(name: &str, label: &str, value: u64) {
    capture::record(|| Cow::Owned(name.to_owned()), value, None);
    if !enabled() {
        return;
    }
    update(|r| &r.hists, |r| &mut r.hists, name, label, |h| h.record(value));
}

/// A pre-interned counter cell: one relaxed `fetch_add` per update, no
/// registry lookup, no `enabled()` gate. For always-on operational
/// metrics (the serve request path). Snapshots keep seeing the handle's
/// updates; after a [`crate::reset`] the handle keeps working but its
/// cell is re-interned on the next registry update, so long-lived
/// daemons should intern handles once at startup and never reset.
#[derive(Clone, Debug)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    pub fn add(&self, delta: u64) {
        self.0.fetch_add(delta, Relaxed);
    }

    pub fn inc(&self) {
        self.add(1);
    }

    pub fn get(&self) -> u64 {
        self.0.load(Relaxed)
    }
}

/// Intern (or fetch) the live counter `name{label}`.
pub fn counter_handle(name: &str, label: &str) -> Counter {
    Counter(cell(|r| &r.counters, |r| &mut r.counters, name, label))
}

/// A pre-interned gauge cell (see [`Counter`] for the contract).
#[derive(Clone, Debug)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    pub fn set(&self, value: i64) {
        self.0.store(value, Relaxed);
    }

    pub fn add(&self, delta: i64) {
        self.0.fetch_add(delta, Relaxed);
    }

    pub fn raise(&self, value: i64) {
        self.0.fetch_max(value, Relaxed);
    }

    pub fn get(&self) -> i64 {
        self.0.load(Relaxed)
    }
}

/// Intern (or fetch) the live gauge `name{label}`.
pub fn gauge_handle(name: &str, label: &str) -> Gauge {
    Gauge(cell(|r| &r.gauges, |r| &mut r.gauges, name, label))
}

/// A pre-interned histogram cell (see [`Counter`] for the contract).
#[derive(Clone, Debug)]
pub struct LiveHist(Arc<AtomicHist>);

impl LiveHist {
    pub fn record(&self, value: u64) {
        self.0.record(value);
    }

    /// Point-in-time copy for percentile extraction.
    pub fn load(&self) -> Hist {
        self.0.load()
    }
}

/// Intern (or fetch) the live histogram `name{label}`.
pub fn hist_handle(name: &str, label: &str) -> LiveHist {
    LiveHist(cell(|r| &r.hists, |r| &mut r.hists, name, label))
}

type Key = (String, String);

pub(crate) type MetricsSnapshot = (BTreeMap<Key, u64>, BTreeMap<Key, i64>, BTreeMap<Key, Hist>);

pub(crate) fn snapshot_metrics() -> MetricsSnapshot {
    let reg = read_reg();
    let mut counters = BTreeMap::new();
    for (name, by_label) in &reg.counters {
        for (label, c) in by_label {
            let v = c.load(Relaxed);
            if v != 0 {
                counters.insert((name.clone(), label.clone()), v);
            }
        }
    }
    let mut gauges = BTreeMap::new();
    for (name, by_label) in &reg.gauges {
        for (label, g) in by_label {
            gauges.insert((name.clone(), label.clone()), g.load(Relaxed));
        }
    }
    let mut hists = BTreeMap::new();
    for (name, by_label) in &reg.hists {
        for (label, h) in by_label {
            let snap = h.load();
            if snap.count != 0 {
                hists.insert((name.clone(), label.clone()), snap);
            }
        }
    }
    (counters, gauges, hists)
}

pub(crate) fn reset_metrics() {
    // Clear in place rather than dropping the maps: interned handles
    // keep their cells, and zeroed cells re-attach naturally. Cells
    // whose entries are removed would silently detach from snapshots.
    let reg = write_reg();
    for by_label in reg.counters.values() {
        for c in by_label.values() {
            c.store(0, Relaxed);
        }
    }
    for by_label in reg.gauges.values() {
        for g in by_label.values() {
            g.store(0, Relaxed);
        }
    }
    for by_label in reg.hists.values() {
        for h in by_label.values() {
            h.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_for_boundaries() {
        // 0 and 1 land in bucket 0 (bound 1).
        assert_eq!(Hist::bucket_for(0), 0);
        assert_eq!(Hist::bucket_for(1), 0);
        // Every power of two 2^k sits exactly at its bound: bucket k.
        // 2^k - 1 also fits under bound 2^(k-1)·2 = 2^k? No: 2^k - 1
        // needs the smallest bound >= it, which is 2^k only when
        // 2^(k-1) < 2^k - 1, i.e. k >= 2.
        for k in 1..=30usize {
            let v = 1u64 << k;
            assert_eq!(Hist::bucket_for(v), k, "2^{k} belongs to bucket {k} (bound 2^{k})");
            assert_eq!(Hist::bucket_for(v + 1), k + 1, "2^{k}+1 overflows to the next bucket");
            if k >= 2 {
                assert_eq!(Hist::bucket_for(v - 1), k, "2^{k}-1 needs bound 2^{k}");
            }
        }
        // 2^1 - 1 = 1 is the bucket-0 edge case.
        assert_eq!(Hist::bucket_for((1 << 1) - 1), 0);
        // Everything past 2^30 collapses into the +Inf bucket.
        assert_eq!(Hist::bucket_for((1u64 << 30) + 1), HIST_BUCKETS - 1);
        assert_eq!(Hist::bucket_for(1u64 << 31), HIST_BUCKETS - 1);
        assert_eq!(Hist::bucket_for(u64::MAX), HIST_BUCKETS - 1);
    }

    #[test]
    fn bucket_bounds_cover_their_values() {
        // Every recorded value must be <= its bucket's bound, and >
        // the previous bucket's bound — the cumulative-bucket contract
        // the Prometheus sink depends on.
        for v in [0u64, 1, 2, 3, 4, 5, 7, 8, 9, 1023, 1024, 1025, (1 << 30) - 1, 1 << 30] {
            let b = Hist::bucket_for(v);
            assert!(v <= Hist::bound_value(b), "value {v} exceeds bound of its bucket {b}");
            if b > 0 {
                assert!(v > Hist::bound_value(b - 1), "value {v} should not fit bucket {}", b - 1);
            }
        }
        assert_eq!(Hist::bound_value(HIST_BUCKETS - 1), u64::MAX);
        assert_eq!(Hist::bound_label(HIST_BUCKETS - 1), "+Inf");
        assert_eq!(Hist::bound_label(0), "1");
    }

    #[test]
    fn percentile_boundaries() {
        let mut h = Hist::new();
        assert_eq!(h.percentile(50.0), 0, "empty histogram");
        h.record(1);
        assert_eq!(h.percentile(0.0), 1, "p0 is the first occupied bound");
        assert_eq!(h.percentile(100.0), 1);
        // 99 ones and a single huge value: p50 stays at the low bound,
        // p99 still rounds to the low bound (rank 99 of 100), p100
        // finds the outlier.
        for _ in 0..98 {
            h.record(1);
        }
        h.record(1 << 20);
        assert_eq!(h.count, 100);
        assert_eq!(h.percentile(50.0), 1);
        assert_eq!(h.percentile(99.0), 1);
        assert_eq!(h.percentile(99.5), 1 << 20);
        assert_eq!(h.percentile(100.0), 1 << 20);
    }

    #[test]
    fn percentile_inf_bucket_saturates() {
        let mut h = Hist::new();
        h.record(u64::MAX);
        h.record((1 << 30) + 1);
        assert_eq!(h.percentile(50.0), u64::MAX);
        assert_eq!(h.percentile(100.0), u64::MAX);
        // Sum saturates instead of wrapping.
        assert_eq!(h.sum, u64::MAX);
    }

    #[test]
    fn percentile_picks_bucket_bounds() {
        let mut h = Hist::new();
        for v in [3u64, 5, 9, 17, 33] {
            h.record(v); // buckets 2, 3, 4, 5, 6
        }
        assert_eq!(h.percentile(20.0), 4, "rank 1 → bucket 2 bound");
        assert_eq!(h.percentile(40.0), 8);
        assert_eq!(h.percentile(60.0), 16);
        assert_eq!(h.percentile(80.0), 32);
        assert_eq!(h.percentile(100.0), 64);
        // A percentile strictly between ranks rounds up (ceil).
        assert_eq!(h.percentile(50.0), 16, "rank ceil(2.5)=3 → bucket 4");
    }

    #[test]
    fn handles_are_live_and_shared() {
        let c1 = counter_handle("test.metrics.handle", "a");
        let c2 = counter_handle("test.metrics.handle", "a");
        let before = c1.get();
        c1.add(3);
        c2.add(4);
        assert_eq!(c1.get(), before + 7, "both handles hit one cell");

        let g = gauge_handle("test.metrics.gauge", "");
        g.set(5);
        g.raise(3);
        assert_eq!(g.get(), 5);
        g.raise(9);
        assert_eq!(g.get(), 9);
        g.add(-2);
        assert_eq!(g.get(), 7);

        let h = hist_handle("test.metrics.hist", "");
        let base = h.load().count;
        h.record(3);
        h.record(300);
        let snap = h.load();
        assert_eq!(snap.count, base + 2);
    }

    #[test]
    fn live_snapshot_sees_handle_updates_without_flush() {
        let c = counter_handle("test.metrics.live", "x");
        c.add(11);
        let (counters, _, _) = snapshot_metrics();
        let got = counters.get(&("test.metrics.live".to_string(), "x".to_string())).copied().unwrap_or(0);
        assert!(got >= 11, "snapshot must observe handle updates immediately, got {got}");
    }
}
