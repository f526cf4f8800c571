//! Per-request capture: a second destination for the spans, counter
//! increments and histogram observations made on a thread, kept
//! whether or not profiling is enabled (the global collector still
//! sees a record only when it is). [`crate::handoff`]/[`crate::attach`]
//! carry a capture onto worker threads, so a query fanned out over a
//! `wet-core::par` pool reports into the one request. Records are
//! coarse (never per trace step), so one `Mutex` per capture suffices.

use std::borrow::Cow;
use std::cell::RefCell;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Cap on the events one capture keeps: a pathological request must
/// not turn its own record into an allocation amplifier. Past the cap,
/// events are counted as dropped.
pub const CAPTURE_CAP: usize = 4096;

/// One captured record: a finished span (`dur_us` set, `n == 0`), a
/// counter increment (`n` is the delta) or a histogram observation
/// (`n` is the value). `t_us` is microseconds since the capture opened.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    pub t_us: u64,
    pub name: Cow<'static, str>,
    pub n: u64,
    pub dur_us: Option<u64>,
}

/// A capture's buffer: when it opened, its events, and how many
/// events the cap dropped.
#[derive(Debug)]
pub(crate) struct Sink(Instant, Mutex<(Vec<Event>, u64)>);

thread_local! {
    /// This thread's live capture, if any.
    pub(crate) static SINK: RefCell<Option<Arc<Sink>>> = const { RefCell::new(None) };
}

/// True when a capture is live on this thread.
#[inline]
pub(crate) fn active() -> bool {
    SINK.with_borrow(Option::is_some)
}

/// Keeps one event in this thread's capture, if there is one; `name`
/// runs only then.
#[inline]
pub(crate) fn record(name: impl FnOnce() -> Cow<'static, str>, n: u64, dur_us: Option<u64>) {
    SINK.with_borrow(|sink| {
        let Some(Sink(start, buf)) = sink.as_deref() else { return };
        let t_us = start.elapsed().as_micros() as u64;
        let (events, dropped) = &mut *buf.lock().unwrap_or_else(|e| e.into_inner());
        if events.len() < CAPTURE_CAP {
            events.push(Event { t_us, name: name(), n, dur_us });
        } else {
            *dropped += 1;
        }
    });
}

/// Start capturing this thread's records (and those of the workers it
/// hands off to) until the guard drops.
#[must_use = "capturing stops when the guard drops"]
pub fn capture() -> Capture {
    let sink = Arc::new(Sink(Instant::now(), Mutex::default()));
    let prev = SINK.replace(Some(Arc::clone(&sink)));
    Capture { sink, prev }
}

/// Guard for [`capture`]; restores the thread's previous capture on drop.
pub struct Capture {
    sink: Arc<Sink>,
    prev: Option<Arc<Sink>>,
}

impl Capture {
    /// The events kept so far, in recording order, and how many were
    /// dropped past [`CAPTURE_CAP`].
    pub fn events(&self) -> (Vec<Event>, u64) {
        self.sink.1.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }
}

impl Drop for Capture {
    fn drop(&mut self) {
        SINK.set(self.prev.take());
    }
}
