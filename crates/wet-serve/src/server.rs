//! The query daemon: admission control, per-request panic isolation,
//! cooperative cancellation, and graceful drain.
//!
//! One [`Server`] owns a [`TraceStore`] serving one or many traces.
//! Each trace sits behind its own `RwLock<Wet>`, which every query
//! takes shared: a query reads the stored streams through its own
//! [`wet_core::Cursor`] and never moves them, so any number of queries
//! run on one trace at once. Only the store takes the lock exclusively,
//! to fill or evict a lazy section. Queries route by the request's
//! `trace` id (default `"default"`, the single-trace compatibility
//! path); before a query runs, the store makes the sections it needs
//! resident and pins them ([`TraceStore::ensure`]) so eviction never
//! pulls data out from under an executing query. Every request runs
//! under a [`Ctl`] carrying its deadline and a per-request cancel
//! token, inside `catch_unwind` — a malformed query or an unexpected
//! panic poisons at worst one lock acquisition, which every lock site
//! here recovers from (`unwrap_or_else(PoisonError::into_inner)`, the
//! `par` pattern), and the client gets a typed `panic` error instead
//! of a dead server.
//!
//! Multi-tenant control plane: `open` (path-traversal-guarded against
//! the configured store root, rejected *before* admission with a typed
//! non-retriable `forbidden` error), `close`, and `list`. Per-tenant
//! admission quotas layer on `--max-active`: a tenant at its cap gets
//! an immediate retriable shed without consuming queue capacity.

use crate::access::{AccessRecord, RotatingLog};
use crate::flight::{Flight, FlightKind};
use crate::json::{self, Value};
use crate::pressure::{Pressure, PressureLevel, PressureOptions, Signals};
use crate::proto::{self, FrameReader, Poll};
use std::collections::{BTreeMap, HashMap};
use std::io::{self, Read, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError, RwLock};
use std::time::{Duration, Instant};
use wet_core::query::{self, Budget, Ctl, QueryErr};
use wet_core::store::{
    resolve_under, sections_for_address_trace, sections_for_op, StoreErr, StoreOptions, StoredTrace, TraceStore,
};
use wet_core::Wet;
use wet_ir::{Program, StmtId};

/// Socket read-timeout tick; bounds drain reaction latency.
const READ_TIMEOUT: Duration = Duration::from_millis(25);

/// Slow-sender budget: a connection stalled *mid-frame* longer than
/// this is dropped (the slow-loris guard).
const STALL_TIMEOUT: Duration = Duration::from_millis(5_000);

/// Tuning knobs for the daemon. All runtime-only; nothing here is ever
/// serialized into a trace container.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Concurrent queries actually executing (admission limit).
    pub max_active: usize,
    /// Queued (admitted-but-waiting) requests beyond which new ones are
    /// shed with a retriable error.
    pub queue_watermark: usize,
    /// Worker threads for the parallel query engine (0 = all cores).
    /// Responses are byte-identical for every value.
    pub threads: usize,
    /// Directory `open` paths resolve under; `None` disables the `open`
    /// op entirely (single-trace mode stays closed by default).
    pub store_root: Option<PathBuf>,
    /// Byte budget for lazily-decoded sections across all open traces
    /// (0 = unlimited); shared with the engine's stream cache.
    pub store_budget: u64,
    /// Per-tenant concurrent-query cap layered on `max_active`
    /// (0 = no per-tenant limit). A tenant at its cap is shed
    /// immediately with a retriable error.
    pub tenant_active: usize,
    /// Structured access log (one JSON line per completed request);
    /// `None` disables it.
    pub access_log: Option<PathBuf>,
    /// Size-based rotation threshold for the access and slow logs.
    pub access_log_max_bytes: u64,
    /// Slow-query log (full span tree for requests over `slow_ms`);
    /// `None` disables it.
    pub slow_log: Option<PathBuf>,
    /// Requests whose end-to-end time exceeds this many milliseconds
    /// go to the slow log. `None` disables the slow path entirely.
    pub slow_ms: Option<u64>,
    /// Where flight-recorder dumps land (on panic, SIGUSR1, or a
    /// `dump-flight` op). `None` keeps dumps response-only.
    pub flight_dump: Option<PathBuf>,
    /// Enables fault-injection ops (`debug_panic`) for drills and
    /// tests. Never enable on a production daemon.
    pub debug_ops: bool,
    /// Overload-controller tuning: when the daemon browns out, when it
    /// starts dropping deadline-dead queue entries, and how long calm
    /// signals must hold before pressure steps back down.
    pub pressure: PressureOptions,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            max_active: 4,
            queue_watermark: 8,
            threads: 1,
            store_root: None,
            store_budget: 0,
            tenant_active: 0,
            access_log: None,
            access_log_max_bytes: crate::access::DEFAULT_LOG_MAX_BYTES,
            slow_log: None,
            slow_ms: None,
            flight_dump: None,
            debug_ops: false,
            pressure: PressureOptions::default(),
        }
    }
}

/// The seven-way partition of completed requests: each row is a
/// `stats` key and the wet-obs counter it is mirrored to when profiling
/// is enabled. Every completed request counts in exactly one row.
pub const OUTCOMES: [(&str, &str); 7] = [
    ("ok", "serve.requests_ok"),
    ("shed", "serve.requests_shed"),
    ("cancelled", "serve.requests_cancelled"),
    ("deadline", "serve.requests_deadline"),
    ("panic", "serve.requests_panic"),
    ("corrupt", "serve.requests_corrupt"),
    ("bad_request", "serve.requests_bad"),
];

/// Completed requests in a `stats` reply: the sum over [`OUTCOMES`].
pub fn completed(stats: &Value) -> i64 {
    OUTCOMES.iter().map(|(k, _)| stats.get(k).and_then(Value::as_i64).unwrap_or(0)).sum()
}

/// Request outcome counters, one per [`OUTCOMES`] row.
#[derive(Debug, Default)]
struct Counters([AtomicU64; OUTCOMES.len()]);

impl Counters {
    fn bump(&self, kind: &str) {
        // Repair-in-progress is accounted as shed: transient, retriable,
        // not the client's fault. Any kind outside the table is a bad
        // request, so the partition stays seven-way.
        let kind = if kind == "repairing" { "shed" } else { kind };
        let row = OUTCOMES.iter().position(|&(k, _)| k == kind).unwrap_or(OUTCOMES.len() - 1);
        self.0[row].fetch_add(1, Ordering::Relaxed);
        wet_obs::counter_add(OUTCOMES[row].1, "", 1);
    }
}

/// The ops the daemon tracks latency for, individually. Anything else
/// (unknown ops, unparseable frames) lands in the `other` bucket.
const OPS: [&str; 13] = [
    "ping",
    "stats",
    "shutdown",
    "open",
    "close",
    "list",
    "dump-flight",
    "cf_trace",
    "value_trace",
    "address_trace",
    "slice",
    "debug_panic",
    "other",
];

/// Per-op latency histograms, interned once at construction so the
/// per-request cost is one atomic histogram record. The handles live
/// in the wet-obs registry, so the same numbers surface in `stats`,
/// `wet top`, and the Prometheus scrape without a second bookkeeping
/// path.
struct OpLat {
    hists: Vec<(&'static str, wet_obs::LiveHist)>,
}

impl OpLat {
    fn new() -> OpLat {
        OpLat {
            hists: OPS.iter().map(|&o| (o, wet_obs::hist_handle("serve.op_latency_us", o))).collect(),
        }
    }

    fn get(&self, op: &str) -> &wet_obs::LiveHist {
        let i = OPS.iter().position(|&o| o == op).unwrap_or(OPS.len() - 1);
        &self.hists[i].1
    }
}

/// Admission state: executing and queued request counts, plus
/// per-tenant executing counts when quotas are on and per-tenant
/// queued counts for fair shedding at Critical pressure.
#[derive(Debug, Default)]
struct AdmState {
    active: usize,
    queued: usize,
    per_tenant: HashMap<String, usize>,
    queued_tenant: HashMap<String, usize>,
}

/// Removes one waiter from the queue accounting (every exit path from
/// the wait loop goes through here so `queued_tenant` cannot leak).
fn dequeue(st: &mut AdmState, tenant: &str) {
    st.queued -= 1;
    wet_obs::gauge_set("serve.queue_depth", "", st.queued as i64);
    if let Some(n) = st.queued_tenant.get_mut(tenant) {
        *n = n.saturating_sub(1);
        if *n == 0 {
            st.queued_tenant.remove(tenant);
        }
    }
}

#[derive(Debug, Default)]
struct Admission {
    st: Mutex<AdmState>,
    cv: Condvar,
}

struct Shared {
    store: TraceStore,
    opts: ServeOptions,
    adm: Admission,
    draining: AtomicBool,
    counters: Counters,
    start: Instant,
    flight: Flight,
    access: Option<RotatingLog>,
    slow: Option<RotatingLog>,
    oplat: OpLat,
    /// Completed data-plane requests per tenant (the anonymous tenant
    /// shows as `-`). Control-plane ops don't count — `wet top` shows
    /// who is *querying*, not who is pinging.
    tenants: Mutex<BTreeMap<String, u64>>,
    /// The overload controller: pressure level, queue-delay EWMA,
    /// brownout count, retry hints.
    pressure: Pressure,
    /// Shed rejections per tenant — the fairness evidence `stats` and
    /// `wet top` surface next to each tenant's request count.
    sheds: Mutex<BTreeMap<String, u64>>,
}

/// SIGTERM latch, set asynchronously by the signal handler.
static TERM: AtomicBool = AtomicBool::new(false);

/// SIGUSR1 latch: an operator asked for a flight-recorder dump.
static USR1: AtomicBool = AtomicBool::new(false);

/// Installs a SIGTERM handler that requests a graceful drain. Uses the
/// C `signal(2)` entry point directly — std links libc anyway and the
/// crate stays dependency-free.
#[cfg(unix)]
fn install_sigterm() {
    extern "C" fn on_term(_sig: std::os::raw::c_int) {
        TERM.store(true, Ordering::SeqCst);
    }
    extern "C" {
        fn signal(signum: std::os::raw::c_int, handler: usize) -> usize;
    }
    const SIGTERM: std::os::raw::c_int = 15;
    unsafe {
        signal(SIGTERM, on_term as extern "C" fn(std::os::raw::c_int) as usize);
    }
}

#[cfg(not(unix))]
fn install_sigterm() {}

/// Installs a SIGUSR1 handler that requests a flight-recorder dump on
/// the next accept-loop tick (the handler itself only flips a latch —
/// nothing async-signal-unsafe runs in signal context).
#[cfg(unix)]
fn install_sigusr1() {
    extern "C" fn on_usr1(_sig: std::os::raw::c_int) {
        USR1.store(true, Ordering::SeqCst);
    }
    extern "C" {
        fn signal(signum: std::os::raw::c_int, handler: usize) -> usize;
    }
    const SIGUSR1: std::os::raw::c_int = 10;
    unsafe {
        signal(SIGUSR1, on_usr1 as extern "C" fn(std::os::raw::c_int) as usize);
    }
}

#[cfg(not(unix))]
fn install_sigusr1() {}

/// The query daemon. Cheap to clone (shared state behind an `Arc`);
/// [`handle_frame`](Server::handle_frame) is the in-process loopback
/// transport the benches use, [`serve`](Server::serve) the socket one.
#[derive(Clone)]
pub struct Server {
    shared: Arc<Shared>,
}

fn lock_read(wet: &RwLock<Wet>) -> std::sync::RwLockReadGuard<'_, Wet> {
    wet.read().unwrap_or_else(PoisonError::into_inner)
}

/// The trace id requests that name no `trace` route to (the
/// single-trace compatibility path).
pub const DEFAULT_TRACE: &str = "default";

/// Per-request operational state threaded through the pipeline: the
/// access-log record being assembled, the optional request capture,
/// and whether the request panicked.
struct ReqMeta {
    rec: AccessRecord,
    capture: Option<wet_obs::Capture>,
    panicked: bool,
}

impl ReqMeta {
    fn new(bytes_in: u64) -> ReqMeta {
        ReqMeta {
            rec: AccessRecord { op: "?".into(), bytes_in, ..Default::default() },
            capture: None,
            panicked: false,
        }
    }

    /// Sets the request outcome — the single source for both the
    /// counter bump and the access-log `outcome` field.
    fn outcome(&mut self, kind: &str) {
        self.rec.outcome = kind.to_owned();
    }
}

/// An error return that also stamps the outcome on the request record.
fn fail(meta: &mut ReqMeta, id: u64, kind: &str, retriable: bool, msg: &str) -> Vec<u8> {
    meta.outcome(kind);
    proto::err_response(id, kind, retriable, msg)
}

impl Server {
    /// Builds a server over one eagerly-loaded WET, stored as the
    /// [`DEFAULT_TRACE`]. `program` enables the program-dependent
    /// queries (address traces, slices); without it they answer with a
    /// typed `unavailable` error.
    pub fn new(wet: Wet, program: Option<Program>, opts: ServeOptions) -> Server {
        let srv = Server::with_store(opts);
        srv.shared
            .store
            .insert_resident(DEFAULT_TRACE, "", wet, program)
            .expect("empty store cannot conflict");
        srv
    }

    /// Builds a server over an empty [`TraceStore`]; traces arrive via
    /// the `open` op (when `store_root` is configured) or
    /// [`store`](Server::store) inserts.
    pub fn with_store(opts: ServeOptions) -> Server {
        wet_obs::gauge_set("serve.queue_depth", "", 0);
        let store = TraceStore::new(StoreOptions {
            budget_bytes: opts.store_budget,
            use_mmap: true,
        });
        // A serving store heals itself: corruption quarantines the
        // trace and a background worker repairs it while queries get
        // retriable errors, instead of the embedded store's sticky
        // `corrupt` answers.
        store.set_self_heal(true);
        // Log files that fail to open disable that log rather than
        // refuse to serve; the CLI pre-validates the paths so an
        // operator typo still fails fast with an I/O exit code.
        let access = opts
            .access_log
            .as_deref()
            .and_then(|p| RotatingLog::open(p, opts.access_log_max_bytes).ok());
        let slow = opts
            .slow_log
            .as_deref()
            .and_then(|p| RotatingLog::open(p, opts.access_log_max_bytes).ok());
        let pressure = Pressure::new(opts.pressure.clone());
        Server {
            shared: Arc::new(Shared {
                store,
                opts,
                adm: Admission::default(),
                draining: AtomicBool::new(false),
                counters: Counters::default(),
                start: Instant::now(),
                flight: Flight::new(),
                access,
                slow,
                oplat: OpLat::new(),
                tenants: Mutex::new(BTreeMap::new()),
                pressure,
                sheds: Mutex::new(BTreeMap::new()),
            }),
        }
    }

    /// The overload controller (read-only view for `wet top`, tests,
    /// and the health endpoint).
    pub fn pressure(&self) -> &Pressure {
        &self.shared.pressure
    }

    /// Gathers the live signals and reassesses the pressure level.
    /// Called on every data-plane request, on `stats`, on `/readyz`,
    /// and on idle accept-loop ticks — so pressure both rises under
    /// load and decays back to Nominal on a quiet daemon.
    pub fn pressure_now(&self) -> PressureLevel {
        let sh = &*self.shared;
        let queued = sh.adm.st.lock().unwrap_or_else(PoisonError::into_inner).queued;
        let resident_pct = sh
            .store
            .resident_bytes()
            .saturating_mul(100)
            .checked_div(sh.opts.store_budget)
            .unwrap_or(0);
        let p99_us = if sh.opts.pressure.elevated_p99_us > 0 {
            ["cf_trace", "value_trace", "address_trace", "slice"]
                .iter()
                .map(|op| sh.oplat.get(op).load().percentile(99.0))
                .max()
                .unwrap_or(0)
        } else {
            0
        };
        sh.pressure.reassess(Signals {
            queued,
            queue_watermark: sh.opts.queue_watermark,
            resident_pct,
            p99_us,
        })
    }

    /// Accounts one shed against `tenant` for the fairness ledger.
    fn note_shed(&self, tenant: &str) {
        let mut sheds = self.shared.sheds.lock().unwrap_or_else(PoisonError::into_inner);
        let name = if tenant.is_empty() { "-" } else { tenant };
        *sheds.entry(name.to_owned()).or_insert(0) += 1;
    }

    /// The underlying trace store (for in-process embedding and tests).
    pub fn store(&self) -> &TraceStore {
        &self.shared.store
    }

    /// Starts a graceful drain: stop admitting, finish in-flight work.
    pub fn begin_drain(&self) {
        if !self.shared.draining.swap(true, Ordering::SeqCst) {
            self.shared.flight.record(FlightKind::Drain, 0, "drain", 0);
        }
        self.shared.adm.cv.notify_all();
    }

    /// True once a drain (SIGTERM or `shutdown` request) has begun.
    pub fn draining(&self) -> bool {
        self.shared.draining.load(Ordering::SeqCst) || TERM.load(Ordering::SeqCst)
    }

    /// In-process transport: one request frame in, one response frame
    /// payload out — the exact pipeline the socket path runs (parse,
    /// admission, deadline, panic isolation), minus the socket.
    pub fn handle_frame(&self, payload: &[u8]) -> Vec<u8> {
        let cancel = Arc::new(AtomicBool::new(false));
        self.process(payload, &cancel)
    }

    /// Parses and executes one request, producing the response payload.
    ///
    /// This wrapper owns the request's operational record: timing, the
    /// single outcome bump, flight-recorder events, per-op latency,
    /// the access-log line, and the slow-query log. The invariant the
    /// drill harness asserts lives here — **every call produces
    /// exactly one outcome bump and (when logging is on) exactly one
    /// access-log line**, no matter which path the request takes.
    fn process(&self, payload: &[u8], cancel: &Arc<AtomicBool>) -> Vec<u8> {
        let sh = &*self.shared;
        let t0 = Instant::now();
        let mut meta = ReqMeta::new(payload.len() as u64);
        let resp = self.process_inner(payload, cancel, &mut meta);
        let captured = meta.capture.take().map(|c| c.events());
        meta.rec.total_us = t0.elapsed().as_micros() as u64;
        meta.rec.bytes_out = resp.len() as u64;
        meta.rec.pressure = sh.pressure.level().name().to_owned();
        sh.counters.bump(&meta.rec.outcome);
        sh.oplat.get(&meta.rec.op).record(meta.rec.total_us);
        sh.flight.record(
            if meta.panicked { FlightKind::ReqPanic } else { FlightKind::ReqDone },
            meta.rec.id,
            &meta.rec.outcome,
            meta.rec.total_us,
        );
        if let Some((events, dropped)) = captured {
            for e in &events {
                match e.name.as_ref() {
                    "query.cache.hits" => meta.rec.cache_hits += e.n,
                    "query.cache.misses" => meta.rec.cache_misses += e.n,
                    _ => {}
                }
            }
            if let (Some(slow), Some(ms)) = (&sh.slow, sh.opts.slow_ms) {
                if meta.rec.total_us >= ms.saturating_mul(1000) {
                    let _ = slow.write_line(&meta.rec.to_slow_value(&events, dropped).render());
                }
            }
        }
        if let Some(access) = &sh.access {
            let _ = access.write_line(&meta.rec.to_value().render());
        }
        if meta.panicked {
            self.dump_flight("panic");
        }
        resp
    }

    /// The request pipeline proper. Every return path sets the
    /// outcome on `meta` exactly once (via [`ReqMeta::outcome`] or
    /// [`fail`]); the wrapper above turns that into the counter bump
    /// and the log line.
    fn process_inner(&self, payload: &[u8], cancel: &Arc<AtomicBool>, meta: &mut ReqMeta) -> Vec<u8> {
        let sh = &*self.shared;
        let text = match std::str::from_utf8(payload) {
            Ok(t) => t,
            Err(_) => {
                meta.outcome("bad_request");
                return proto::err_response(0, "bad_request", false, "frame is not UTF-8");
            }
        };
        let req = match json::parse(text) {
            Ok(v) => v,
            Err(e) => {
                meta.outcome("bad_request");
                return proto::err_response(0, "bad_request", false, &format!("bad JSON: {e}"));
            }
        };
        let id = req.get("id").and_then(Value::as_u64).unwrap_or(0);
        meta.rec.id = id;
        let Some(op) = req.get("op").and_then(Value::as_str).map(str::to_owned) else {
            meta.outcome("bad_request");
            return proto::err_response(id, "bad_request", false, "missing `op`");
        };
        meta.rec.op = op.clone();
        sh.flight.record(FlightKind::ReqStart, id, &op, 0);

        // Control-plane ops answer without admission: health stays
        // observable under full load and during drain. `open` runs its
        // path-traversal guard here, *before* any admission or I/O —
        // a hostile path never reaches the queue.
        match op.as_str() {
            "ping" => {
                meta.outcome("ok");
                return proto::ok_response(id, Value::Str("pong".into()));
            }
            "stats" => {
                meta.outcome("ok");
                return proto::ok_response(id, self.stats_value());
            }
            "shutdown" => {
                self.begin_drain();
                meta.outcome("ok");
                return proto::ok_response(id, Value::Str("draining".into()));
            }
            "dump-flight" => {
                meta.outcome("ok");
                return proto::ok_response(id, self.dump_flight("op"));
            }
            "open" => return self.op_open(id, &req, meta),
            "close" => return self.op_close(id, &req, meta),
            "list" => return self.op_list(id, meta),
            _ => {}
        }

        let deadline = req
            .get("deadline_ms")
            .and_then(Value::as_u64)
            .map(|ms| Instant::now() + Duration::from_millis(ms));
        let mut ctl = Ctl::with_cancel(cancel.clone(), deadline);
        // Request capture: only paid for when a log wants it.
        if sh.access.is_some() || sh.slow.is_some() {
            meta.capture = Some(wet_obs::capture());
        }
        let tenant = req.get("tenant").and_then(Value::as_str).unwrap_or("").to_owned();
        meta.rec.tenant = tenant.clone();
        {
            let mut tn = sh.tenants.lock().unwrap_or_else(PoisonError::into_inner);
            let name = if tenant.is_empty() { "-" } else { tenant.as_str() };
            *tn.entry(name.to_owned()).or_insert(0) += 1;
        }

        // Reassess pressure on the way in so admission sees the live
        // level (Critical switches it to deadline-aware drop and fair
        // shedding).
        self.pressure_now();
        let tq = Instant::now();
        let admitted = self.admit(deadline, &tenant, &op);
        meta.rec.queue_us = tq.elapsed().as_micros() as u64;
        // Feed the controller's EWMA from delays the queue actually
        // imposed: granted requests, and rejections that waited.
        // Instant sheds contribute nothing — a storm of zero-delay
        // rejections must not mask the overload that causes them.
        if admitted.is_ok() || meta.rec.queue_us > 1_000 {
            sh.pressure.observe_queue_delay(meta.rec.queue_us);
        }
        if let Err(e) = admitted {
            meta.outcome(e.kind());
            if matches!(e, QueryErr::Shed) {
                self.note_shed(&tenant);
            }
            let msg = if self.draining() { "server draining".to_string() } else { e.to_string() };
            let hint = e.is_retriable().then(|| sh.pressure.retry_after_ms());
            return proto::err_response_hint(id, e.kind(), e.is_retriable(), &msg, hint);
        }

        // Budget: explicit from the request, or — at Elevated pressure
        // and above — the brownout default auto-applied to budget-less
        // budget-capable queries, so they answer partial-but-fast
        // instead of deepening the overload.
        let mut budget = match (
            req.get("budget_bytes").and_then(Value::as_u64),
            req.get("budget_ms").and_then(Value::as_u64),
        ) {
            (None, None) => None,
            (bytes, ms) => Some(Budget {
                max_bytes: bytes.unwrap_or(u64::MAX),
                max_wall: ms.map(Duration::from_millis),
            }),
        };
        let budget_capable = matches!(op.as_str(), "value_trace" | "address_trace")
            || (op == "cf_trace"
                && req.get("dir").and_then(Value::as_str).unwrap_or("forward") == "forward");
        if budget.is_none()
            && budget_capable
            && sh.opts.pressure.brownout_budget_bytes > 0
            && sh.pressure.level() >= PressureLevel::Elevated
        {
            budget = Some(Budget::bytes(sh.opts.pressure.brownout_budget_bytes));
            sh.pressure.note_brownout();
        }
        if let Some(b) = budget {
            ctl = ctl.with_budget(b);
        }
        // A request that sat out its whole deadline in the queue fails
        // fast instead of starting doomed work.
        let te = Instant::now();
        let outcome = match ctl.check() {
            Err(e) => Ok(Err(Wire::Query(e))),
            Ok(()) => catch_unwind(AssertUnwindSafe(|| self.run_query(&op, &req, &ctl, meta))),
        };
        self.release(&tenant);
        meta.rec.engine_us = te.elapsed().as_micros() as u64;
        match outcome {
            Ok(Ok(result)) => {
                meta.outcome("ok");
                meta.rec.quality =
                    result.get("quality").and_then(Value::as_str).unwrap_or("").to_owned();
                proto::ok_response(id, result)
            }
            Ok(Err(Wire::Query(e))) => {
                meta.outcome(e.kind());
                let hint = e.is_retriable().then(|| sh.pressure.retry_after_ms());
                proto::err_response_hint(id, e.kind(), e.is_retriable(), &e.to_string(), hint)
            }
            Ok(Err(Wire::BadRequest(msg))) => {
                meta.outcome("bad_request");
                proto::err_response(id, "bad_request", false, &msg)
            }
            Ok(Err(Wire::Unavailable(msg))) => {
                meta.outcome("unavailable");
                proto::err_response(id, "unavailable", false, &msg)
            }
            Ok(Err(Wire::Store(e))) => {
                meta.outcome(e.kind());
                let hint = e.is_retriable().then(|| sh.pressure.retry_after_ms());
                proto::err_response_hint(id, e.kind(), e.is_retriable(), &e.to_string(), hint)
            }
            Err(panic) => {
                meta.outcome("panic");
                meta.panicked = true;
                let msg = panic
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| panic.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "query panicked".into());
                proto::err_response(id, "panic", false, &msg)
            }
        }
    }

    /// Dumps the flight ring: returns the JSON document and, when
    /// `--flight-dump` is configured, also writes it there.
    fn dump_flight(&self, trigger: &str) -> Value {
        let sh = &*self.shared;
        sh.flight.record(FlightKind::Dump, 0, trigger, 0);
        let v = sh.flight.dump_value(trigger);
        if let Some(p) = &sh.opts.flight_dump {
            let _ = std::fs::write(p, v.render() + "\n");
        }
        v
    }

    /// A rejection that never reaches [`process`](Server::process)
    /// (the duplicate-id guard) still owes the operational ledger its
    /// counter bump, flight event, and access-log line — otherwise
    /// "outcome counters == access-log lines" would drift.
    fn reject_unprocessed(&self, id: u64, op: &str, kind: &str, msg: &str) -> Vec<u8> {
        let sh = &*self.shared;
        sh.counters.bump(kind);
        sh.flight.record(FlightKind::ReqDone, id, kind, 0);
        if let Some(access) = &sh.access {
            let rec = AccessRecord { id, op: op.into(), outcome: kind.into(), ..Default::default() };
            let _ = access.write_line(&rec.to_value().render());
        }
        proto::err_response(id, kind, false, msg)
    }

    /// `open`: resolve the path under the store root (traversal guard),
    /// lazily open the trace, answer with its shape.
    fn op_open(&self, id: u64, req: &Value, meta: &mut ReqMeta) -> Vec<u8> {
        let sh = &*self.shared;
        let Some(root) = sh.opts.store_root.as_deref() else {
            return fail(meta, id, "forbidden", false, "no store root configured (serve with --store-root)");
        };
        let Some(rel) = req.get("path").and_then(Value::as_str) else {
            return fail(meta, id, "bad_request", false, "open needs `path`");
        };
        let path = match resolve_under(root, rel) {
            Ok(p) => p,
            Err(e) => return fail(meta, id, e.kind(), false, &e.to_string()),
        };
        let trace_id = req
            .get("trace")
            .and_then(Value::as_str)
            .map(str::to_owned)
            .or_else(|| Some(path.file_stem()?.to_string_lossy().into_owned()))
            .unwrap_or_else(|| rel.to_owned());
        let tenant = req.get("tenant").and_then(Value::as_str).unwrap_or("");
        meta.rec.tenant = tenant.to_owned();
        match sh.store.open(&trace_id, tenant, &path, None) {
            Ok(t) => {
                meta.outcome("ok");
                meta.rec.trace = trace_id.clone();
                let wet = lock_read(t.wet());
                proto::ok_response(
                    id,
                    json::obj(vec![
                        ("trace", Value::Str(trace_id)),
                        ("nodes", Value::Int(wet.nodes().len() as i64)),
                        ("tier2", Value::Bool(wet.is_tier2())),
                    ]),
                )
            }
            Err(e) => fail(meta, id, e.kind(), e.is_retriable(), &e.to_string()),
        }
    }

    /// `close`: drop a trace from the store; in-flight queries finish.
    fn op_close(&self, id: u64, req: &Value, meta: &mut ReqMeta) -> Vec<u8> {
        let sh = &*self.shared;
        let Some(trace_id) = req.get("trace").and_then(Value::as_str) else {
            return fail(meta, id, "bad_request", false, "close needs `trace`");
        };
        meta.rec.trace = trace_id.to_owned();
        match sh.store.close(trace_id) {
            Ok(()) => {
                meta.outcome("ok");
                proto::ok_response(id, Value::Str("closed".into()))
            }
            Err(e) => fail(meta, id, e.kind(), false, &e.to_string()),
        }
    }

    /// `list`: every open trace with residency detail, sorted by id.
    fn op_list(&self, id: u64, meta: &mut ReqMeta) -> Vec<u8> {
        let sh = &*self.shared;
        meta.outcome("ok");
        let rows = sh
            .store
            .list()
            .into_iter()
            .map(|t| {
                json::obj(vec![
                    ("trace", Value::Str(t.id)),
                    ("tenant", Value::Str(t.tenant)),
                    ("lazy", Value::Bool(t.lazy)),
                    ("mmap", Value::Bool(t.mmap)),
                    (
                        "resident",
                        Value::Arr(t.resident.iter().map(|&r| Value::Bool(r)).collect()),
                    ),
                    ("resident_bytes", Value::Int(t.resident_bytes as i64)),
                    ("pinned_bytes", Value::Int(t.pinned_bytes as i64)),
                    ("health", Value::Str(t.health.name().into())),
                ])
            })
            .collect();
        proto::ok_response(id, Value::Arr(rows))
    }

    /// Admission: run now, wait in the bounded queue, or shed. A tenant
    /// at its per-tenant cap is shed immediately (retriable) without
    /// consuming queue capacity — one tenant's burst cannot starve the
    /// shared queue.
    ///
    /// At **Critical** pressure two extra policies engage:
    ///
    /// * *Deadline-aware drop*: a request whose remaining deadline is
    ///   below the predicted service time (the live p99 for its op) is
    ///   shed instead of queued or served dead-on-arrival. Waiters
    ///   re-check on every wake-up, so the oldest entries — the ones
    ///   with the least deadline left — drop first.
    /// * *Per-tenant fair shed*: a tenant already holding at least its
    ///   fair share of the queue (`watermark / distinct waiting
    ///   tenants`) is shed on entry, so one aggressive tenant cannot
    ///   occupy the whole queue and starve the rest.
    fn admit(&self, deadline: Option<Instant>, tenant: &str, op: &str) -> Result<(), QueryErr> {
        let sh = &*self.shared;
        if self.draining() {
            return Err(QueryErr::Shed);
        }
        let cap = sh.opts.tenant_active;
        // Predicted service time for deadline-aware drop; only sampled
        // when the daemon is actually Critical.
        let critical = sh.pressure.level() == PressureLevel::Critical;
        let predicted = if critical {
            Duration::from_micros(sh.oplat.get(op).load().percentile(99.0))
        } else {
            Duration::ZERO
        };
        let doomed = |d: Option<Instant>| {
            d.is_some_and(|d| d.checked_duration_since(Instant::now()).unwrap_or_default() < predicted)
        };
        let mut st = sh.adm.st.lock().unwrap_or_else(PoisonError::into_inner);
        if cap > 0 && st.per_tenant.get(tenant).copied().unwrap_or(0) >= cap {
            return Err(QueryErr::Shed);
        }
        if st.active < sh.opts.max_active {
            st.active += 1;
            if cap > 0 {
                *st.per_tenant.entry(tenant.to_owned()).or_insert(0) += 1;
            }
            return Ok(());
        }
        if st.queued >= sh.opts.queue_watermark {
            return Err(QueryErr::Shed);
        }
        if critical {
            if doomed(deadline) {
                return Err(QueryErr::Shed);
            }
            let waiting_tenants = st.queued_tenant.len().max(1);
            let fair = (sh.opts.queue_watermark / waiting_tenants).max(1);
            if st.queued_tenant.get(tenant).copied().unwrap_or(0) >= fair {
                return Err(QueryErr::Shed);
            }
        }
        st.queued += 1;
        *st.queued_tenant.entry(tenant.to_owned()).or_insert(0) += 1;
        wet_obs::gauge_set("serve.queue_depth", "", st.queued as i64);
        wet_obs::gauge_max("serve.queue_depth_peak", "", st.queued as i64);
        loop {
            if self.draining() {
                dequeue(&mut st, tenant);
                return Err(QueryErr::Shed);
            }
            if sh.pressure.level() == PressureLevel::Critical && doomed(deadline) {
                dequeue(&mut st, tenant);
                return Err(QueryErr::Shed);
            }
            if st.active < sh.opts.max_active
                && (cap == 0 || st.per_tenant.get(tenant).copied().unwrap_or(0) < cap)
            {
                st.active += 1;
                if cap > 0 {
                    *st.per_tenant.entry(tenant.to_owned()).or_insert(0) += 1;
                }
                dequeue(&mut st, tenant);
                return Ok(());
            }
            let wait = match deadline {
                Some(d) => {
                    let now = Instant::now();
                    if now >= d {
                        dequeue(&mut st, tenant);
                        return Err(QueryErr::DeadlineExceeded);
                    }
                    (d - now).min(Duration::from_millis(100))
                }
                None => Duration::from_millis(100),
            };
            let (g, _) = sh.adm.cv.wait_timeout(st, wait).unwrap_or_else(PoisonError::into_inner);
            st = g;
        }
    }

    fn release(&self, tenant: &str) {
        let sh = &*self.shared;
        let mut st = sh.adm.st.lock().unwrap_or_else(PoisonError::into_inner);
        st.active = st.active.saturating_sub(1);
        if sh.opts.tenant_active > 0 {
            if let Some(n) = st.per_tenant.get_mut(tenant) {
                *n = n.saturating_sub(1);
                if *n == 0 {
                    st.per_tenant.remove(tenant);
                }
            }
        }
        drop(st);
        sh.adm.cv.notify_one();
    }

    /// Executes one data-plane query. Validation errors come back as
    /// `bad_request` — never as panics (the `catch_unwind` above is the
    /// last line of defense, not the error path).
    fn run_query(&self, op: &str, req: &Value, ctl: &Ctl, meta: &mut ReqMeta) -> Result<Value, Wire> {
        let sh = &*self.shared;
        // Fault injection for drills: a real panic on a real worker,
        // caught by the same catch_unwind that guards queries. Gated
        // so a production daemon never exposes it.
        if op == "debug_panic" {
            if sh.opts.debug_ops {
                panic!("debug_panic requested by client");
            }
            return Err(Wire::BadRequest("unknown op `debug_panic`".into()));
        }
        let threads = sh.opts.threads;
        let strict = req.get("strict").and_then(Value::as_bool).unwrap_or(true);
        let trace_id = req.get("trace").and_then(Value::as_str).unwrap_or(DEFAULT_TRACE);
        meta.rec.trace = trace_id.to_owned();
        let trace = sh
            .store
            .get(trace_id)
            .ok_or_else(|| Wire::Store(StoreErr::NotFound(trace_id.to_owned())))?;
        // Make the sections this op touches resident and pin them for
        // the query's lifetime. A CRC-bad lazy section surfaces here as
        // a typed corrupt error on first touch — except for degraded
        // queries, which by contract answer from whatever survives.
        let needs = match (op, stmt_of(req), trace.program()) {
            ("address_trace", Ok(stmt), Some(program)) => {
                sections_for_address_trace(&lock_read(trace.wet()), program, stmt)
            }
            _ => sections_for_op(op),
        };
        meta.rec.store_hit = trace.sections_resident(needs);
        let _pin = match sh.store.ensure(&trace, needs) {
            Ok(p) => Some(p),
            Err(StoreErr::Corrupt(_)) if !strict => None,
            Err(e) => return Err(Wire::Store(e)),
        };
        match op {
            "cf_trace" => {
                let forward = match req.get("dir").and_then(Value::as_str).unwrap_or("forward") {
                    "forward" => true,
                    "backward" => false,
                    other => return Err(Wire::BadRequest(format!("unknown dir `{other}`"))),
                };
                if !strict || ctl.has_budget() {
                    // Partial: answer what the surviving sections and the
                    // byte/wall budget cover, gap-annotate the rest.
                    if !forward {
                        let what = if ctl.has_budget() { "budgeted" } else { "degraded" };
                        return Err(Wire::BadRequest(format!("{what} cf_trace is forward-only")));
                    }
                    let wet = lock_read(trace.wet());
                    let (steps, deg) = query::cf_trace_forward_partial(&wet, ctl)?;
                    Ok(steps_value(&steps, Some(&deg), ctl.bytes_spent()))
                } else {
                    let wet = lock_read(trace.wet());
                    let steps = if forward {
                        query::cf_trace_forward_ctl(&wet, ctl)?
                    } else {
                        query::cf_trace_backward_ctl(&wet, ctl)?
                    };
                    Ok(steps_value(&steps, None, 0))
                }
            }
            "value_trace" => {
                let stmt = stmt_of(req)?;
                let wet = lock_read(trace.wet());
                if !strict || ctl.has_budget() {
                    let (pairs, deg) = query::value_trace_partial(&wet, stmt, threads, ctl)?;
                    Ok(pairs_value(&pairs, |&(ts, v)| (ts as i64, v), Some(&deg), ctl.bytes_spent()))
                } else {
                    let pairs = query::value_trace_ctl(&wet, stmt, threads, ctl)?;
                    Ok(pairs_value(&pairs, |&(ts, v)| (ts as i64, v), None, 0))
                }
            }
            "address_trace" => {
                let stmt = stmt_of(req)?;
                let program = program_of(&trace)?;
                let wet = lock_read(trace.wet());
                if !strict || ctl.has_budget() {
                    let (pairs, deg) = query::address_trace_partial(&wet, program, stmt, threads, ctl)?;
                    Ok(pairs_value(&pairs, |&(ts, a)| (ts as i64, a as i64), Some(&deg), ctl.bytes_spent()))
                } else {
                    let pairs = query::address_trace_ctl(&wet, program, stmt, threads, ctl)?;
                    Ok(pairs_value(&pairs, |&(ts, a)| (ts as i64, a as i64), None, 0))
                }
            }
            "slice" => {
                if ctl.has_budget() {
                    // Slices chase dependence chains; truncating one
                    // mid-chain silently changes its meaning, so slices
                    // don't take budgets (use strict=false for the
                    // availability-degraded variant instead).
                    return Err(Wire::BadRequest(
                        "budget is not supported for slice (use strict=false for a degraded slice)"
                            .into(),
                    ));
                }
                let stmt = stmt_of(req)?;
                let program = program_of(&trace)?;
                let node = req
                    .get("node")
                    .and_then(Value::as_u64)
                    .ok_or_else(|| Wire::BadRequest("slice needs `node`".into()))?;
                let k = req.get("k").and_then(Value::as_u64).unwrap_or(0) as u32;
                let control = req.get("control").and_then(Value::as_bool).unwrap_or(true);
                let wet = lock_read(trace.wet());
                if node as usize >= wet.nodes().len() {
                    return Err(Wire::BadRequest(format!("node {node} out of range")));
                }
                let node = wet_core::NodeId(node as u32);
                if wet.node(node).stmt_pos(stmt).is_none() {
                    return Err(Wire::BadRequest(format!("{stmt} not in node {}", node.0)));
                }
                if k >= wet.node(node).n_execs {
                    return Err(Wire::BadRequest(format!(
                        "execution {k} out of range (node ran {} times)",
                        wet.node(node).n_execs
                    )));
                }
                let spec = query::SliceSpec { data: true, control };
                let criterion = query::WetSliceElem { node, stmt, k };
                if strict {
                    let slice = query::backward_slice_ctl(&wet, program, criterion, spec, ctl)?;
                    Ok(slice_value(&slice, None))
                } else {
                    let (slice, deg) = query::backward_slice_partial(&wet, program, criterion, spec, ctl)?;
                    Ok(slice_value(&slice, Some(&deg)))
                }
            }
            other => Err(Wire::BadRequest(format!("unknown op `{other}`"))),
        }
    }

    /// The `stats` response: request counters, admission state, store
    /// residency, and — when the [`DEFAULT_TRACE`] is open — its shape
    /// (the single-trace fields existing dashboards read).
    pub fn stats_value(&self) -> Value {
        let sh = &*self.shared;
        // Polling stats drives the controller too: a daemon that went
        // quiet after a storm steps back toward Nominal as soon as
        // anyone looks at it.
        let level = self.pressure_now();
        let st = sh.adm.st.lock().unwrap_or_else(PoisonError::into_inner);
        let (active, queued) = (st.active, st.queued);
        drop(st);
        let mut pairs: Vec<(&str, Value)> = OUTCOMES
            .iter()
            .zip(&sh.counters.0)
            .map(|(&(k, _), c)| (k, Value::Int(c.load(Ordering::Relaxed) as i64)))
            .collect();
        pairs.extend([
            ("active", Value::Int(active as i64)),
            ("queued", Value::Int(queued as i64)),
            ("draining", Value::Bool(self.draining())),
            ("uptime_ms", Value::Int(sh.start.elapsed().as_millis() as i64)),
            ("pressure", Value::Str(level.name().into())),
            ("brownouts", Value::Int(sh.pressure.brownouts().min(i64::MAX as u64) as i64)),
            (
                "queue_delay_p99_us",
                Value::Int(sh.pressure.queue_delay_p99_us().min(i64::MAX as u64) as i64),
            ),
            ("retry_after_ms", Value::Int(sh.pressure.retry_after_ms() as i64)),
        ]);
        let mut ops = Vec::new();
        for (name, h) in &sh.oplat.hists {
            let hist = h.load();
            if hist.count == 0 {
                continue;
            }
            ops.push(json::obj(vec![
                ("op", Value::Str((*name).into())),
                ("count", Value::Int(hist.count.min(i64::MAX as u64) as i64)),
                ("p50_us", Value::Int(hist.percentile(50.0).min(i64::MAX as u64) as i64)),
                ("p99_us", Value::Int(hist.percentile(99.0).min(i64::MAX as u64) as i64)),
            ]));
        }
        pairs.push(("ops", Value::Arr(ops)));
        {
            let tn = sh.tenants.lock().unwrap_or_else(PoisonError::into_inner);
            let sheds = sh.sheds.lock().unwrap_or_else(PoisonError::into_inner);
            pairs.push((
                "tenants",
                Value::Arr(
                    tn.iter()
                        .map(|(t, n)| {
                            json::obj(vec![
                                ("tenant", Value::Str(t.clone())),
                                ("requests", Value::Int((*n).min(i64::MAX as u64) as i64)),
                                (
                                    "shed",
                                    Value::Int(
                                        sheds.get(t).copied().unwrap_or(0).min(i64::MAX as u64) as i64,
                                    ),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ));
        }
        if let Some(t) = sh.store.get(DEFAULT_TRACE) {
            let wet = lock_read(t.wet());
            pairs.push(("nodes", Value::Int(wet.nodes().len() as i64)));
            pairs.push(("paths_executed", Value::Int(wet.stats().paths_executed as i64)));
            pairs.push(("tier2", Value::Bool(wet.is_tier2())));
            pairs.push(("unavailable_seqs", Value::Int(wet.unavailable_seqs() as i64)));
        }
        pairs.push((
            "store",
            json::obj(vec![
                ("traces", Value::Int(sh.store.len() as i64)),
                ("resident_bytes", Value::Int(sh.store.resident_bytes() as i64)),
                ("pinned_bytes", Value::Int(sh.store.pinned_bytes() as i64)),
                ("cold_opens", Value::Int(sh.store.cold_opens() as i64)),
                ("lazy_decodes", Value::Int(sh.store.lazy_decodes() as i64)),
                ("evictions", Value::Int(sh.store.evictions() as i64)),
                ("quarantines", Value::Int(sh.store.quarantines() as i64)),
                ("repairs_ok", Value::Int(sh.store.repairs_ok() as i64)),
                ("repairs_failed", Value::Int(sh.store.repairs_failed() as i64)),
            ]),
        ));
        json::obj(pairs)
    }

    /// Accept loop: serves until SIGTERM or a `shutdown` request, then
    /// drains — in-flight requests finish and get their responses, new
    /// ones are shed, idle connections close — and returns.
    pub fn serve(&self, listener: Listener) -> io::Result<()> {
        install_sigterm();
        install_sigusr1();
        listener.set_nonblocking(true)?;
        let mut conns: Vec<std::thread::JoinHandle<()>> = Vec::new();
        while !self.draining() {
            if USR1.swap(false, Ordering::SeqCst) {
                self.dump_flight("sigusr1");
            }
            match listener.accept() {
                Ok(stream) => {
                    let srv = self.clone();
                    conns.push(std::thread::spawn(move || srv.handle_conn(stream)));
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    // Idle tick: let pressure decay toward Nominal even
                    // when nobody is polling stats or /readyz.
                    self.pressure_now();
                    std::thread::sleep(Duration::from_millis(20));
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
            conns.retain(|h| !h.is_finished());
        }
        self.begin_drain();
        for h in conns {
            let _ = h.join();
        }
        wet_obs::gauge_set("serve.queue_depth", "", 0);
        Ok(())
    }

    /// One connection: reads frames on a timeout tick, runs each
    /// request on its own worker thread (so a later `cancel` frame can
    /// reach an in-flight query), and multiplexes responses back under
    /// a write lock. Exits on peer close, protocol violation, stall
    /// (slow-loris), or drain completion.
    fn handle_conn(&self, stream: Stream) {
        let _ = stream.set_read_timeout(READ_TIMEOUT);
        let writer: Arc<Mutex<Stream>> = match stream.try_clone() {
            Ok(w) => Arc::new(Mutex::new(w)),
            Err(_) => return,
        };
        let inflight: Arc<Mutex<HashMap<u64, Arc<AtomicBool>>>> = Arc::new(Mutex::new(HashMap::new()));
        let mut workers: Vec<std::thread::JoinHandle<()>> = Vec::new();
        let mut reader = FrameReader::new();
        let mut stream = stream;
        let mut stall_started: Option<Instant> = None;
        loop {
            match reader.poll(&mut stream) {
                Ok(Poll::Frame(payload)) => {
                    stall_started = None;
                    self.dispatch_frame(payload, &writer, &inflight, &mut workers);
                }
                Ok(Poll::Pending) => {
                    if reader.mid_frame() {
                        let started = *stall_started.get_or_insert_with(Instant::now);
                        if started.elapsed() > STALL_TIMEOUT {
                            wet_obs::counter_add("serve.conns_dropped_slow", "", 1);
                            self.shared.flight.record(FlightKind::ConnDrop, 0, "slow", 0);
                            break;
                        }
                    } else {
                        stall_started = None;
                        let idle = inflight.lock().unwrap_or_else(PoisonError::into_inner).is_empty();
                        if self.draining() && idle {
                            break;
                        }
                    }
                }
                Ok(Poll::Eof) => break,
                Err(_) => break, // mid-frame cut, hostile length, transport error
            }
        }
        // The peer is gone (or we are dropping it): cancel whatever it
        // still has in flight, then let the workers finish cleanly.
        for flag in inflight.lock().unwrap_or_else(PoisonError::into_inner).values() {
            flag.store(true, Ordering::Relaxed);
        }
        for h in workers {
            let _ = h.join();
        }
        let _ = stream.shutdown();
    }

    /// Routes one decoded frame: `cancel` acts immediately on the
    /// connection's in-flight table; everything else gets a worker.
    fn dispatch_frame(
        &self,
        payload: Vec<u8>,
        writer: &Arc<Mutex<Stream>>,
        inflight: &Arc<Mutex<HashMap<u64, Arc<AtomicBool>>>>,
        workers: &mut Vec<std::thread::JoinHandle<()>>,
    ) {
        // Peek for the cancel op without spawning.
        if let Ok(text) = std::str::from_utf8(&payload) {
            if let Ok(req) = json::parse(text) {
                if req.get("op").and_then(Value::as_str) == Some("cancel") {
                    let id = req.get("id").and_then(Value::as_u64).unwrap_or(0);
                    let target = req.get("target").and_then(Value::as_u64).unwrap_or(0);
                    let found = inflight
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .get(&target)
                        .map(|f| f.store(true, Ordering::Relaxed))
                        .is_some();
                    let resp = proto::ok_response(
                        id,
                        Value::Str(if found { "cancel delivered" } else { "no such request" }.into()),
                    );
                    write_response(writer, &resp);
                    return;
                }
                let id = req.get("id").and_then(Value::as_u64).unwrap_or(0);
                let cancel = Arc::new(AtomicBool::new(false));
                {
                    let mut inf = inflight.lock().unwrap_or_else(PoisonError::into_inner);
                    if inf.contains_key(&id) {
                        drop(inf);
                        let op = req.get("op").and_then(Value::as_str).unwrap_or("?");
                        let resp = self.reject_unprocessed(id, op, "bad_request", "duplicate in-flight id");
                        write_response(writer, &resp);
                        return;
                    }
                    inf.insert(id, cancel.clone());
                }
                let srv = self.clone();
                let writer = writer.clone();
                let inflight = inflight.clone();
                workers.push(std::thread::spawn(move || {
                    let resp = srv.process(&payload, &cancel);
                    // Free the id before the reply goes out: a client may
                    // reuse it as soon as it reads the reply.
                    inflight.lock().unwrap_or_else(PoisonError::into_inner).remove(&id);
                    write_response(&writer, &resp);
                }));
                workers.retain(|h| !h.is_finished());
                return;
            }
        }
        // Unparseable frame: answer inline (process() will classify).
        let cancel = Arc::new(AtomicBool::new(false));
        let resp = self.process(&payload, &cancel);
        write_response(writer, &resp);
    }
}

fn write_response(writer: &Arc<Mutex<Stream>>, payload: &[u8]) {
    let mut w = writer.lock().unwrap_or_else(PoisonError::into_inner);
    // The peer may already be gone; a failed response write is its
    // problem, not the server's.
    let _ = proto::write_frame(&mut *w, payload);
}

/// Internal error channel for [`Server::run_query`].
enum Wire {
    Query(QueryErr),
    BadRequest(String),
    Unavailable(String),
    Store(StoreErr),
}

impl From<QueryErr> for Wire {
    fn from(e: QueryErr) -> Wire {
        Wire::Query(e)
    }
}

fn program_of(trace: &StoredTrace) -> Result<&Program, Wire> {
    trace
        .program()
        .ok_or_else(|| Wire::Unavailable("no program loaded (serve a capture dir or pass --program)".into()))
}

fn stmt_of(req: &Value) -> Result<StmtId, Wire> {
    req.get("stmt")
        .and_then(Value::as_u64)
        .map(|s| StmtId(s as u32))
        .ok_or_else(|| Wire::BadRequest("missing `stmt`".into()))
}

fn degraded_value(deg: &query::Degraded, bytes_spent: u64) -> Value {
    json::obj(vec![
        ("nodes_skipped", Value::Int(deg.nodes_skipped as i64)),
        ("gaps", Value::Int(deg.gaps as i64)),
        ("steps_missing", Value::Int(deg.steps_missing as i64)),
        ("seqs_unavailable", Value::Int(deg.seqs_unavailable as i64)),
        ("bytes_spent", Value::Int(bytes_spent.min(i64::MAX as u64) as i64)),
    ])
}

/// The `quality` field every data-plane response carries: `"full"`
/// when the answer equals the strict query's, `"degraded"` when parts
/// were dropped (budget exhausted or sections unavailable) — in which
/// case a `degraded` object itemizes the holes.
fn quality_pairs(
    pairs: &mut Vec<(&'static str, Value)>,
    deg: Option<&query::Degraded>,
    bytes_spent: u64,
) {
    let degraded = deg.is_some_and(|d| !d.is_complete());
    pairs.push(("quality", Value::Str(if degraded { "degraded" } else { "full" }.into())));
    if let Some(d) = deg {
        if !d.is_complete() {
            pairs.push(("degraded", degraded_value(d, bytes_spent)));
        }
    }
}

fn steps_value(steps: &[query::CfStep], deg: Option<&query::Degraded>, bytes_spent: u64) -> Value {
    let arr = json::int_rows(steps.iter().map(|s| [s.node.0 as i64, s.k as i64, s.ts as i64]));
    let mut pairs = vec![("count", Value::Int(steps.len() as i64)), ("steps", arr)];
    quality_pairs(&mut pairs, deg, bytes_spent);
    json::obj(pairs)
}

fn pairs_value<T>(
    items: &[T],
    f: impl Fn(&T) -> (i64, i64),
    deg: Option<&query::Degraded>,
    bytes_spent: u64,
) -> Value {
    let arr = json::int_rows(items.iter().map(|t| {
        let (a, b) = f(t);
        [a, b]
    }));
    let mut pairs = vec![("count", Value::Int(items.len() as i64)), ("pairs", arr)];
    quality_pairs(&mut pairs, deg, bytes_spent);
    json::obj(pairs)
}

fn slice_value(slice: &query::WetSlice, deg: Option<&query::Degraded>) -> Value {
    let stamped = json::int_rows(slice.stamped.iter().map(|&(s, ts)| [s.0 as i64, ts as i64]));
    let statics = Value::Arr(slice.static_stmts().iter().map(|s| Value::Int(s.0 as i64)).collect());
    let mut pairs = vec![
        ("count", Value::Int(slice.len() as i64)),
        ("static_stmts", statics),
        ("stamped", stamped),
    ];
    quality_pairs(&mut pairs, deg, 0);
    json::obj(pairs)
}

/// A bound listening socket (unix or TCP).
pub enum Listener {
    #[cfg(unix)]
    Unix(std::os::unix::net::UnixListener),
    Tcp(std::net::TcpListener),
}

/// Binds `addr`: anything containing `:` is a TCP address, everything
/// else a unix-socket path (a stale socket file is replaced).
pub fn bind(addr: &str) -> io::Result<Listener> {
    if addr.contains(':') {
        return Ok(Listener::Tcp(std::net::TcpListener::bind(addr)?));
    }
    #[cfg(unix)]
    {
        let path = std::path::Path::new(addr);
        if path.exists() {
            std::fs::remove_file(path)?;
        }
        Ok(Listener::Unix(std::os::unix::net::UnixListener::bind(path)?))
    }
    #[cfg(not(unix))]
    Err(io::Error::new(io::ErrorKind::Unsupported, "unix sockets need a unix platform"))
}

impl Listener {
    fn set_nonblocking(&self, on: bool) -> io::Result<()> {
        match self {
            #[cfg(unix)]
            Listener::Unix(l) => l.set_nonblocking(on),
            Listener::Tcp(l) => l.set_nonblocking(on),
        }
    }

    fn accept(&self) -> io::Result<Stream> {
        match self {
            #[cfg(unix)]
            Listener::Unix(l) => {
                let (s, _) = l.accept()?;
                s.set_nonblocking(false)?;
                Ok(Stream::Unix(s))
            }
            Listener::Tcp(l) => {
                let (s, _) = l.accept()?;
                s.set_nonblocking(false)?;
                Ok(Stream::Tcp(s))
            }
        }
    }
}

/// A connected socket (unix or TCP), unified for the framing layer.
pub enum Stream {
    #[cfg(unix)]
    Unix(std::os::unix::net::UnixStream),
    Tcp(std::net::TcpStream),
}

/// Connects to `addr` using the same `:`-means-TCP rule as [`bind`].
pub fn connect(addr: &str) -> io::Result<Stream> {
    if addr.contains(':') {
        return Ok(Stream::Tcp(std::net::TcpStream::connect(addr)?));
    }
    #[cfg(unix)]
    {
        Ok(Stream::Unix(std::os::unix::net::UnixStream::connect(addr)?))
    }
    #[cfg(not(unix))]
    Err(io::Error::new(io::ErrorKind::Unsupported, "unix sockets need a unix platform"))
}

impl Stream {
    pub fn set_read_timeout(&self, dur: Duration) -> io::Result<()> {
        match self {
            #[cfg(unix)]
            Stream::Unix(s) => s.set_read_timeout(Some(dur)),
            Stream::Tcp(s) => s.set_read_timeout(Some(dur)),
        }
    }

    pub fn try_clone(&self) -> io::Result<Stream> {
        match self {
            #[cfg(unix)]
            Stream::Unix(s) => s.try_clone().map(Stream::Unix),
            Stream::Tcp(s) => s.try_clone().map(Stream::Tcp),
        }
    }

    pub fn shutdown(&self) -> io::Result<()> {
        match self {
            #[cfg(unix)]
            Stream::Unix(s) => s.shutdown(std::net::Shutdown::Both),
            Stream::Tcp(s) => s.shutdown(std::net::Shutdown::Both),
        }
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            #[cfg(unix)]
            Stream::Unix(s) => s.read(buf),
            Stream::Tcp(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            #[cfg(unix)]
            Stream::Unix(s) => s.write(buf),
            Stream::Tcp(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            #[cfg(unix)]
            Stream::Unix(s) => s.flush(),
            Stream::Tcp(s) => s.flush(),
        }
    }
}
