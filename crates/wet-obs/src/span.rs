//! Hierarchical tracing spans and the global collector.
//!
//! Finished spans are buffered in a thread-local `Vec` — the hot path
//! never takes a lock — and merged into the process-wide collector
//! either when the thread's buffer is dropped (thread exit, which for
//! `wet-core::par` workers happens before the pool joins) or when the
//! profiling thread calls [`snapshot`].
//!
//! Enablement is two-layered: [`enable`] flips a process-global flag
//! (used by `wet-cli --profile`), while [`scoped_enable`] flips only a
//! thread-local flag that [`Handoff`]/[`attach`] propagate to worker
//! threads. Tests use the scoped form so concurrently running tests in
//! one binary don't record into each other's snapshots. A live
//! [`crate::capture`] also keeps every finished span, enabled or not.

use std::borrow::Cow;
use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use crate::capture::{self, Sink, SINK};
use crate::metrics;
use crate::report::Report;

/// One finished span: a named wall-clock region on one thread.
///
/// `parent == 0` means the span had no enclosing span. `thread` is a
/// dense per-process id (assigned in first-use order), not the OS tid,
/// so reports are stable to read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRec {
    pub id: u64,
    pub parent: u64,
    pub name: Cow<'static, str>,
    pub thread: u32,
    pub start_ns: u64,
    pub dur_ns: u64,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
/// Span ids start at 1; 0 is the "no parent" sentinel.
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_THREAD_ID: AtomicU32 = AtomicU32::new(0);
static SPANS: Mutex<Vec<SpanRec>> = Mutex::new(Vec::new());
static EPOCH: OnceLock<Instant> = OnceLock::new();

fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Thread-local buffer of finished spans, flushed to [`SPANS`] on drop
/// (thread exit) so a pool join observes every worker's spans.
struct Buf {
    recs: Vec<SpanRec>,
}

impl Drop for Buf {
    fn drop(&mut self) {
        flush_vec(&mut self.recs);
    }
}

/// Cap on retained finished spans. A daemon that stays enabled for
/// weeks must not grow the collector without bound: past the cap,
/// flushed spans are counted (`obs.spans_dropped`) and discarded —
/// metrics, which are fixed-size, keep accumulating regardless.
const MAX_SPANS: usize = 1 << 16;

fn flush_vec(recs: &mut Vec<SpanRec>) {
    if recs.is_empty() {
        return;
    }
    let mut g = SPANS.lock().unwrap_or_else(|e| e.into_inner());
    let room = MAX_SPANS.saturating_sub(g.len());
    let dropped = recs.len().saturating_sub(room) as u64;
    recs.truncate(room);
    g.append(recs);
    drop(g);
    metrics::counter_add("obs.spans_dropped", "", dropped);
}

thread_local! {
    /// Thread-scoped enablement (see module docs).
    static SCOPED: Cell<bool> = const { Cell::new(false) };
    /// Innermost open span on this thread; parent for the next one.
    static CURRENT: Cell<u64> = const { Cell::new(0) };
    /// Dense thread id, assigned lazily.
    static THREAD: Cell<u32> = const { Cell::new(u32::MAX) };
    static BUF: RefCell<Buf> = const { RefCell::new(Buf { recs: Vec::new() }) };
}

/// True when this thread's spans and metrics reach the global collector.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed) || SCOPED.with(|c| c.get())
}

/// True when a record made on this thread goes anywhere: profiling is
/// enabled or a [`crate::capture`] is live.
#[inline]
pub(crate) fn recording() -> bool {
    enabled() || capture::active()
}

/// Turn profiling on for the whole process (every thread records).
pub fn enable() {
    ENABLED.store(true, Ordering::Relaxed);
}

/// Turn process-wide profiling off (scoped enables are unaffected).
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// Enable recording on the current thread only, until the guard drops.
/// Worker threads it hands off to via [`handoff`]/[`attach`] record too.
#[must_use = "recording stops when the guard drops"]
pub fn scoped_enable() -> ScopedEnable {
    let prev = SCOPED.with(|c| c.replace(true));
    ScopedEnable { prev }
}

/// Guard for [`scoped_enable`]; restores the previous thread state and
/// flushes this thread's span buffer on drop.
pub struct ScopedEnable {
    prev: bool,
}

impl Drop for ScopedEnable {
    fn drop(&mut self) {
        SCOPED.with(|c| c.set(self.prev));
        BUF.with(|b| flush_vec(&mut b.borrow_mut().recs));
    }
}

fn thread_id() -> u32 {
    THREAD.with(|t| {
        let mut id = t.get();
        if id == u32::MAX {
            id = NEXT_THREAD_ID.fetch_add(1, Ordering::Relaxed);
            t.set(id);
        }
        id
    })
}

/// Open a span with a pre-built name. Prefer the [`span!`](crate::span!)
/// macro, which skips name construction when nothing records.
#[must_use = "the span closes (records its duration) when the guard drops"]
pub fn span_named(name: Cow<'static, str>) -> SpanGuard {
    let global = enabled();
    if !global && !capture::active() {
        return SpanGuard { state: None };
    }
    let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
    let parent = CURRENT.with(|c| c.replace(id));
    SpanGuard { state: Some(SpanState { id, parent, name, start_ns: now_ns(), global }) }
}

/// Open a span whose name is built lazily — `f` runs only when
/// something records. Used by `span!` with format arguments.
#[must_use = "the span closes (records its duration) when the guard drops"]
pub fn span_dynamic(f: impl FnOnce() -> String) -> SpanGuard {
    if !recording() {
        return SpanGuard { state: None };
    }
    span_named(Cow::Owned(f()))
}

struct SpanState {
    id: u64,
    parent: u64,
    name: Cow<'static, str>,
    start_ns: u64,
    /// Whether the span goes to the global collector too.
    global: bool,
}

/// An open span; on drop, records its duration into the live capture
/// and, when profiling is enabled, the thread-local buffer. Inert (a
/// single `None`) when nothing records.
pub struct SpanGuard {
    state: Option<SpanState>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(s) = self.state.take() {
            let dur_ns = now_ns().saturating_sub(s.start_ns);
            CURRENT.with(|c| c.set(s.parent));
            capture::record(|| s.name.clone(), 0, Some(dur_ns / 1000));
            if !s.global {
                return;
            }
            BUF.with(|b| {
                b.borrow_mut().recs.push(SpanRec {
                    id: s.id,
                    parent: s.parent,
                    name: s.name,
                    thread: thread_id(),
                    start_ns: s.start_ns,
                    dur_ns,
                });
            });
        }
    }
}

/// Recording context to carry onto a worker thread: whether the
/// spawning thread records, its innermost open span (so worker spans
/// link into the right place in the tree), and its live capture. One
/// handoff, shared by reference, seeds every worker of a pool.
#[derive(Debug)]
pub struct Handoff {
    enabled: bool,
    parent: u64,
    capture: Option<Arc<Sink>>,
}

/// Capture the current thread's recording context for a worker thread.
pub fn handoff() -> Handoff {
    Handoff { enabled: enabled(), parent: CURRENT.get(), capture: SINK.with_borrow(Clone::clone) }
}

/// Adopt a [`Handoff`] on this thread until the guard drops: inherit
/// the spawner's enablement, parent span and capture. Cheap no-op
/// handoffs are fine — a disabled handoff only clears the inherited
/// parent.
#[must_use = "the handoff is detached when the guard drops"]
pub fn attach(h: &Handoff) -> AttachGuard {
    let prev_scoped = SCOPED.with(|c| c.replace(h.enabled));
    let prev_parent = CURRENT.with(|c| c.replace(h.parent));
    let prev_capture = SINK.replace(h.capture.clone());
    AttachGuard { prev_scoped, prev_parent, prev_capture }
}

/// Guard for [`attach`]; flushes this thread's buffered spans and
/// restores its previous recording context on drop.
pub struct AttachGuard {
    prev_scoped: bool,
    prev_parent: u64,
    prev_capture: Option<Arc<Sink>>,
}

impl Drop for AttachGuard {
    fn drop(&mut self) {
        SCOPED.with(|c| c.set(self.prev_scoped));
        CURRENT.with(|c| c.set(self.prev_parent));
        SINK.set(self.prev_capture.take());
        BUF.with(|b| flush_vec(&mut b.borrow_mut().recs));
    }
}

/// Take a consistent snapshot of everything recorded so far (the
/// current thread's buffer is flushed first; worker buffers were
/// flushed when their threads exited). Recording continues unaffected.
pub fn snapshot() -> Report {
    BUF.with(|b| flush_vec(&mut b.borrow_mut().recs));
    let spans = SPANS.lock().unwrap_or_else(|e| e.into_inner()).clone();
    let (counters, gauges, hists) = metrics::snapshot_metrics();
    Report { spans, counters, gauges, hists }
}

/// Discard all recorded spans and metrics (enablement is untouched).
/// Span ids keep growing across resets so stale parents can't collide.
pub fn reset() {
    BUF.with(|b| b.borrow_mut().recs.clear());
    SPANS.lock().unwrap_or_else(|e| e.into_inner()).clear();
    metrics::reset_metrics();
}
