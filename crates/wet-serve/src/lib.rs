//! wet-serve: a fault-tolerant concurrent query daemon over whole
//! execution traces.
//!
//! The WET of the paper (Zhang & Gupta, MICRO 2004) is built once and
//! queried many times; this crate makes the "queried many times" half a
//! long-running service instead of a per-query CLI process. The design
//! budget is the same as the rest of the repo — standard library only —
//! and the robustness contract is explicit:
//!
//! * **Every request terminates** with an answer or a typed error
//!   (`deadline`, `cancelled`, `shed`, `corrupt`, `bad_request`,
//!   `panic`, `unavailable`). Cancellation is cooperative: the query
//!   loops in `wet-core` poll a [`wet_core::query::Ctl`] every few
//!   thousand steps, so a cancel or an expired deadline stops work in
//!   bounded time without poisoning shared state.
//! * **Overload browns out before it sheds**: a [`pressure`]
//!   controller fed by live signals (queue-delay EWMA, store
//!   residency, op latency p99) steps Nominal → Elevated → Critical.
//!   At Elevated, budget-less queries get a default byte budget and
//!   answer partially (gap-annotated, never fabricated); at Critical
//!   the queue drops deadline-dead requests and sheds fairly across
//!   tenants. Every retriable rejection carries a `retry_after_ms`
//!   hint and the client honors it as its backoff floor.
//! * **A panicking request costs one response, not the server**: each
//!   request runs under `catch_unwind`, and every lock acquisition
//!   recovers from poisoning.
//! * **SIGTERM drains gracefully**: in-flight requests finish and get
//!   their responses; new work is shed; then the process exits.
//!
//! Module map: [`json`] (deterministic document model), [`proto`]
//! (length-prefixed framing), [`server`] (daemon), [`pressure`]
//! (adaptive overload controller), [`client`] (retrying client),
//! [`drill`] (misbehaving-client fault harness), [`access`] (rotating
//! structured request logs), [`flight`] (lock-free in-memory flight
//! recorder), [`http`] (metrics/health scrape endpoint).

pub mod access;
pub mod client;
pub mod drill;
pub mod flight;
pub mod http;
pub mod json;
pub mod pressure;
pub mod proto;
pub mod server;

pub use access::{AccessRecord, RotatingLog, DEFAULT_LOG_MAX_BYTES};
pub use client::{Client, Reply};
pub use drill::{run_drill, run_idle_storm, DrillReport, IdleStormReport};
pub use flight::{Flight, FlightEvent, FlightKind, FLIGHT_SLOTS};
pub use pressure::{Pressure, PressureLevel, PressureOptions, Signals};
pub use http::{bind_metrics, http_get, http_get_with, is_timeout, spawn_metrics};
pub use server::{bind, completed, connect, Listener, Server, ServeOptions, Stream, DEFAULT_TRACE, OUTCOMES};
