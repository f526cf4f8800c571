//! # wet-obs — zero-dependency observability for the WET pipeline
//!
//! The paper's evaluation is quantitative — bits per instruction per
//! tier, per-predictor hit rates, compression and query times — so the
//! pipeline needs to *see itself*: where a run's wall clock went, how
//! many bytes each stream class produced, which predictor variants hit.
//! This crate provides that with nothing but `std` (the build
//! environment is offline, so `tracing`/`metrics` are not options; see
//! DESIGN.md §4 decision 7):
//!
//! * **Spans** ([`span!`], [`SpanGuard`]) — hierarchical wall-clock
//!   regions with monotonic timing, a dense thread id, and parent
//!   linkage. Finished spans are buffered in a thread-local `Vec` (no
//!   lock on the hot path) and merged into the global collector when
//!   the thread's [`AttachGuard`] drops — for `wet-core::par` workers,
//!   that is pool join.
//! * **Metrics** ([`counter_add`], [`gauge_set`], [`hist_record`]) — a
//!   global registry of counters, gauges, and fixed power-of-two-bucket
//!   histograms, keyed by `(name, label)`.
//! * **Sinks** ([`Report`]) — a consistent snapshot renderable as a
//!   human-readable phase tree + metrics table ([`Report::render_pretty`]),
//!   JSON ([`Report::render_json`], validated by [`json`]), or
//!   Prometheus text exposition format ([`Report::render_prometheus`]).
//! * **Capture** ([`capture`]) — a per-request sink: while its guard is
//!   live, every span, counter increment and histogram observation made
//!   on the thread (and on workers it hands off to) is also kept as an
//!   [`Event`], up to [`CAPTURE_CAP`], whether or not profiling is
//!   enabled. `wet-serve`'s access and slow-query logs read it.
//!
//! ## Enablement and overhead
//!
//! Everything is off by default. [`enable`] switches the whole process
//! on (the CLI's `--profile` flag); [`scoped_enable`] switches on only
//! the current thread *and the worker threads it hands off to* — which
//! is what keeps concurrently running tests from polluting each other's
//! registries. When disabled and no capture is live, every
//! instrumentation site reduces to one relaxed atomic load plus two
//! thread-local reads; no allocation, no locking, no timestamping. The
//! `compress_scaling` bench runs with profiling disabled and must not
//! measurably regress.
//!
//! ## Determinism
//!
//! Byte- and count-valued metrics recorded by the pipeline are
//! commutative sums over per-item contributions, so they are identical
//! for every worker-thread count (asserted by
//! `tests/parallel_determinism.rs`). Timings and per-worker cache
//! hit/miss metrics are execution-dependent and excluded from that
//! invariant.
//!
//! # Example
//!
//! ```
//! let _scope = wet_obs::scoped_enable();
//! {
//!     let _outer = wet_obs::span!("compress");
//!     let _inner = wet_obs::span!("compress.tier2");
//!     wet_obs::counter_add("tier2.bytes_out", "ts", 128);
//!     wet_obs::hist_record("tier1.group_size", "", 3);
//! }
//! let report = wet_obs::snapshot();
//! assert_eq!(report.counter("tier2.bytes_out", "ts"), 128);
//! let text = report.render_pretty();
//! assert!(text.contains("compress.tier2"));
//! wet_obs::json::validate(&report.render_json()).expect("valid JSON");
//! wet_obs::reset();
//! ```

mod capture;
pub mod json;
mod metrics;
mod report;
mod span;

pub use metrics::{
    counter_add, counter_handle, gauge_handle, gauge_max, gauge_set, hist_handle, hist_record, Counter, Gauge, Hist,
    LiveHist, HIST_BUCKETS,
};
pub use capture::{capture, Capture, Event, CAPTURE_CAP};
pub use report::Report;
pub use span::{
    attach, disable, enable, enabled, handoff, reset, scoped_enable, snapshot, span_dynamic, span_named,
    AttachGuard, Handoff, ScopedEnable, SpanGuard, SpanRec,
};

/// Opens a span: `span!("tier2.compress")` for static names, or
/// `span!("workload.{}", name)` to format one (the format runs only
/// when profiling is enabled). The span closes — records its duration —
/// when the returned guard drops.
#[macro_export]
macro_rules! span {
    ($name:literal) => {
        $crate::span_named(::std::borrow::Cow::Borrowed($name))
    };
    ($($arg:tt)*) => {
        $crate::span_dynamic(|| ::std::format!($($arg)*))
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::recording;

    /// The global registry is shared: every test in this module runs
    /// under the same lock-step reset discipline, and all but the
    /// capture tests under a scoped enable.
    fn locked<R>(f: impl FnOnce() -> R) -> R {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        let _l = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        reset();
        let r = f();
        reset();
        r
    }

    fn isolated<R>(f: impl FnOnce() -> R) -> R {
        let _s = scoped_enable();
        locked(f)
    }

    fn names(cap: &Capture) -> Vec<String> {
        cap.events().0.iter().map(|e| e.name.to_string()).collect()
    }

    #[test]
    fn spans_nest_and_record_parents() {
        isolated(|| {
            {
                let _a = span!("a");
                let _b = span!("b");
                let _c = span!("leaf.{}", 3);
            }
            let r = snapshot();
            assert_eq!(r.spans.len(), 3);
            let by_name = |n: &str| r.spans.iter().find(|s| s.name == n).unwrap();
            let (a, b, c) = (by_name("a"), by_name("b"), by_name("leaf.3"));
            assert_eq!(b.parent, a.id);
            assert_eq!(c.parent, b.id);
            assert_eq!(a.parent, 0);
            // Guards drop innermost-first, so durations nest.
            assert!(a.dur_ns >= b.dur_ns && b.dur_ns >= c.dur_ns);
        });
    }

    #[test]
    fn disabled_sites_record_nothing() {
        // No scoped enable, global off: everything is inert.
        let before = snapshot();
        {
            let _a = span!("ghost");
            counter_add("ghost.counter", "x", 1);
            hist_record("ghost.hist", "", 5);
            gauge_set("ghost.gauge", "", 7);
        }
        let after = snapshot();
        assert_eq!(after.counters.len(), before.counters.len());
        assert!(!after.spans.iter().any(|s| s.name == "ghost"));
    }

    #[test]
    fn handoff_carries_parent_and_enablement_to_workers() {
        isolated(|| {
            let outer = span!("pool");
            let h = handoff();
            let t = std::thread::spawn(move || {
                // A plain spawned thread: not enabled until attached.
                assert!(!enabled());
                let _g = attach(&h);
                assert!(enabled());
                let _w = span!("worker");
                counter_add("work.items", "", 4);
            });
            t.join().unwrap();
            drop(outer);
            let r = snapshot();
            let pool = r.spans.iter().find(|s| s.name == "pool").unwrap();
            let worker = r.spans.iter().find(|s| s.name == "worker").unwrap();
            assert_eq!(worker.parent, pool.id, "worker span links to the spawning span");
            assert_ne!(worker.thread, pool.thread, "distinct dense thread ids");
            assert_eq!(r.counter("work.items", ""), 4);
        });
    }

    #[test]
    fn counters_gauges_histograms_accumulate() {
        isolated(|| {
            counter_add("c", "l", 3);
            counter_add("c", "l", 4);
            counter_add("c", "other", 1);
            gauge_set("g", "", -2);
            gauge_set("g", "", 9);
            for v in [0u64, 1, 1, 2, 3, 100] {
                hist_record("h", "", v);
            }
            let r = snapshot();
            assert_eq!(r.counter("c", "l"), 7);
            assert_eq!(r.counter("c", "other"), 1);
            assert_eq!(r.gauges.get(&("g".to_string(), String::new())).copied(), Some(9));
            let h = r.hists.get(&("h".to_string(), String::new())).unwrap();
            assert_eq!(h.count, 6);
            assert_eq!(h.sum, 107);
            assert_eq!(h.buckets[0], 3, "values <= 1 (0, 1, 1)");
        });
    }

    #[test]
    fn gauge_max_keeps_the_peak() {
        isolated(|| {
            gauge_max("p", "", 5);
            gauge_max("p", "", 3);
            gauge_max("p", "", 9);
            gauge_max("p", "", 7);
            let r = snapshot();
            assert_eq!(r.gauges.get(&("p".to_string(), String::new())).copied(), Some(9));
        });
    }

    #[test]
    fn renderers_produce_valid_output() {
        isolated(|| {
            {
                let _a = span!("phase.one");
                let _b = span!("phase.two");
                counter_add("stream.predictor_hits", "fcm1", 90);
                counter_add("stream.predictor_misses", "fcm1", 10);
                hist_record("tier1.group_size", "", 4);
                gauge_set("tier1.bytes", "ts", 800);
            }
            let r = snapshot();
            let pretty = r.render_pretty();
            assert!(pretty.contains("phase.one"));
            assert!(pretty.contains("fcm1"));
            assert!(pretty.contains("90.0%"), "hit rate table:\n{pretty}");
            json::validate(&r.render_json()).expect("render_json must be valid JSON");
            let prom = r.render_prometheus();
            assert!(prom.contains("wet_stream_predictor_hits_total{label=\"fcm1\"} 90"), "{prom}");
            assert!(prom.contains("# TYPE"));
            assert!(prom.contains("wet_tier1_group_size_bucket"));
        });
    }

    #[test]
    fn reset_clears_everything() {
        isolated(|| {
            let _ = span!("x");
            counter_add("x", "", 1);
            reset();
            let r = snapshot();
            assert!(r.spans.is_empty());
            assert!(r.counters.is_empty());
        });
    }

    #[test]
    fn capture_records_with_profiling_off() {
        locked(|| {
            let cap = capture();
            assert!(!enabled() && recording());
            {
                let _a = span!("cap.phase");
                counter_add("cap.counter", "x", 3);
                hist_record("cap.hist", "", 5);
            }
            let (events, dropped) = cap.events();
            let got: Vec<_> = events.iter().map(|e| (e.name.as_ref(), e.n, e.dur_us.is_some())).collect();
            assert_eq!(got, [("cap.counter", 3, false), ("cap.hist", 5, false), ("cap.phase", 0, true)]);
            assert_eq!(dropped, 0);
            let r = snapshot();
            assert!(r.spans.is_empty() && r.counter("cap.counter", "x") == 0, "the collector stays empty");
            assert!(!r.hists.keys().any(|(n, _)| n == "cap.hist"));
            drop(cap);
            assert!(!recording());
        });
    }

    #[test]
    fn captures_on_two_threads_do_not_mix() {
        let run = |tag: &'static str| {
            std::thread::spawn(move || {
                let cap = capture();
                for _ in 0..50 {
                    let _s = span_dynamic(|| tag.to_string());
                    counter_add(tag, "", 1);
                }
                names(&cap)
            })
        };
        let (a, b) = (run("cap.a"), run("cap.b"));
        assert_eq!(a.join().unwrap(), vec!["cap.a"; 100]);
        assert_eq!(b.join().unwrap(), vec!["cap.b"; 100]);
    }

    #[test]
    fn handoff_carries_the_capture_to_workers() {
        let cap = capture();
        let h = handoff();
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    assert!(!recording(), "a plain spawned thread captures nothing");
                    let _g = attach(&h);
                    let _w = span!("cap.worker");
                    counter_add("cap.items", "", 4);
                });
            }
        });
        counter_add("cap.after", "", 1);
        let mut got = names(&cap);
        got.sort();
        assert_eq!(got, ["cap.after", "cap.items", "cap.items", "cap.worker", "cap.worker"]);
    }

    #[test]
    fn capture_counts_events_past_the_cap() {
        let cap = capture();
        for i in 0..(CAPTURE_CAP + 10) {
            hist_record("cap.e", "", i as u64);
        }
        let (events, dropped) = cap.events();
        assert_eq!((events.len(), dropped), (CAPTURE_CAP, 10));
        assert_eq!(events.last().map(|e| e.n), Some(CAPTURE_CAP as u64 - 1), "the first events are kept");
    }
}
