//! `query-scan` and `query-walk`: two closed-loop clients in this
//! process send requests over a Unix socket to a `wet-serve` server
//! that runs on its own thread (`max_active` 2, engine threads 1).
//!
//! Set-up builds the traces, seals them to `.wetz`, opens them lazily
//! through `Server::store().open(.., Some(program))` and warms up. The
//! request list is fixed by the workload; the seed orders it, afresh
//! for every pass, so each run averages over many pairings of
//! concurrent requests. The clients take entries of that schedule in
//! turn until the run's time is up.
//!
//! Between set-up and the window, untimed, each list entry is answered
//! from the in-memory tier-1 WET, which is then freed; after the window
//! every answer the server gave is compared with that one.
//!
//! The traced run traces every other pass over the list and then
//! replays the list once from a single caller, timing each layer's
//! public call on its own: `TraceStore::ensure`, the query engine
//! function, `Server::handle_frame`, and `Client::call`. A traced pass
//! only wraps each `Client::call` in a span, so `trace.overhead` here
//! (the latency gap between traced and untraced passes) is the cost of
//! that one span per request; the layer spans exist only in the replay,
//! which has no untraced twin.

use crate::spans::Spans;
use crate::stats::{self, beyond, median, percentile, Digest};
use crate::{time_setups, write_container, Args, Report, WorkDir, SETUPS_AFTER, SETUPS_BEFORE};
use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{PoisonError, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use wet_core::query::{self, engine, Ctl, SliceSpec, WetSliceElem};
use wet_core::{sections_for_op, Wet, WetConfig};
use wet_ir::{Program, StmtId};
use wet_serve::json::{self, Value};
use wet_serve::{Client, PressureOptions, Reply, ServeOptions, Server};
use wet_workloads::Kind;

/// Executed-statement target of each query-scan trace.
const SCAN_TARGET: u64 = 100_000;
/// Query-scan store budget: about half the traces' lazy payload.
const SCAN_BUDGET: u64 = 8 << 20;
/// Statement target of the query-walk trace (vortex-like runs ≈140k).
const WALK_TARGET: u64 = 100_000;
/// Slice criteria on the query-walk trace (as in the paper's Table 9).
const WALK_SLICES: usize = 25;
/// Closed-loop clients.
const CLIENTS: usize = 2;
/// Query-scan warm-up requests before the timed window.
const SCAN_WARMUP: usize = 60;
/// Orders the warm-up requests, so every seed's set-up does the same work.
const WARMUP_SEED: u64 = 0;
/// Requests in a run's schedule before it repeats.
const SCHEDULE_MIN: usize = 40_000;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Scan,
    Walk,
}

impl Workload {
    fn traces(self) -> Vec<(Kind, u64)> {
        match self {
            Workload::Scan => Kind::all().into_iter().map(|k| (k, SCAN_TARGET)).collect(),
            Workload::Walk => vec![(Kind::Vortex, WALK_TARGET)],
        }
    }

    fn budget(self) -> u64 {
        match self {
            Workload::Scan => SCAN_BUDGET,
            Workload::Walk => 0,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::Scan => "query-scan",
            Workload::Walk => "query-walk",
        }
    }
}

/// One request of the list; `trace` indexes the served traces.
#[derive(Clone, Copy)]
enum Req {
    Value { trace: usize, stmt: StmtId },
    Address { trace: usize, stmt: StmtId },
    Cf { trace: usize, forward: bool },
    Slice { trace: usize, at: WetSliceElem },
}

impl Req {
    fn trace(self) -> usize {
        match self {
            Req::Value { trace, .. }
            | Req::Address { trace, .. }
            | Req::Cf { trace, .. }
            | Req::Slice { trace, .. } => trace,
        }
    }

    /// The wire op.
    fn op(self) -> &'static str {
        match self {
            Req::Value { .. } => "value_trace",
            Req::Address { .. } => "address_trace",
            Req::Cf { .. } => "cf_trace",
            Req::Slice { .. } => "slice",
        }
    }

    /// The query-engine layer the request lands in (span and metric name).
    fn layer(self) -> &'static str {
        match self {
            Req::Value { .. } => "query.value_trace",
            Req::Address { .. } => "query.address_trace",
            Req::Cf { forward: true, .. } => "query.cf_trace_forward",
            Req::Cf { forward: false, .. } => "query.cf_trace_backward",
            Req::Slice { .. } => "query.backward_slice",
        }
    }

    /// The request's fields (the client adds the `id`).
    fn pairs(self, traces: &[Served]) -> Vec<(&'static str, Value)> {
        let mut p = vec![
            ("op", Value::Str(self.op().into())),
            ("trace", Value::Str(traces[self.trace()].id.clone())),
        ];
        match self {
            Req::Value { stmt, .. } | Req::Address { stmt, .. } => {
                p.push(("stmt", Value::Int(stmt.0.into())))
            }
            Req::Cf { forward, .. } => p.push((
                "dir",
                Value::Str(if forward { "forward" } else { "backward" }.into()),
            )),
            Req::Slice { at, .. } => {
                p.push(("stmt", Value::Int(at.stmt.0.into())));
                p.push(("node", Value::Int(at.node.0.into())));
                p.push(("k", Value::Int(at.k.into())));
            }
        }
        p
    }
}

/// An answer reduced to its row count and a digest of its integers.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct Answer {
    rows: u64,
    digest: u64,
}

fn answer_of<R: IntoIterator<Item = i64>>(rows: impl Iterator<Item = R>) -> Answer {
    let mut d = Digest::new();
    let mut n = 0;
    for row in rows {
        n += 1;
        row.into_iter().for_each(|x| d.push(x));
    }
    Answer {
        rows: n,
        digest: d.finish(),
    }
}

/// Reduces a server reply; `Err` holds the error kind.
fn answer_of_reply(req: Req, reply: &Reply) -> Result<Answer, String> {
    let v = match reply {
        Reply::Ok(v) => v,
        Reply::Err { kind, message, .. } => return Err(format!("{kind}: {message}")),
    };
    let field = match req {
        Req::Value { .. } | Req::Address { .. } => "pairs",
        Req::Cf { .. } => "steps",
        Req::Slice { .. } => "stamped",
    };
    let rows = v
        .get(field)
        .and_then(Value::as_arr)
        .ok_or_else(|| format!("reply has no `{field}`"))?;
    let mut d = Digest::new();
    for x in rows.iter().flat_map(|row| row.as_arr().unwrap_or(&[])) {
        d.push(x.as_i64().unwrap_or(i64::MIN));
    }
    Ok(Answer {
        rows: rows.len() as u64,
        digest: d.finish(),
    })
}

/// The answer the in-memory tier-1 WET gives.
fn reference(req: Req, wet: &mut Wet, program: &Program) -> Result<Answer, String> {
    let err = |e: query::QueryErr| e.to_string();
    Ok(match req {
        Req::Value { stmt, .. } => answer_of(
            engine::value_trace(wet, stmt, 1)
                .map_err(err)?
                .into_iter()
                .map(|(ts, v)| [ts as i64, v]),
        ),
        Req::Address { stmt, .. } => answer_of(
            engine::address_trace(wet, program, stmt, 1)
                .map_err(err)?
                .into_iter()
                .map(|(ts, a)| [ts as i64, a as i64]),
        ),
        Req::Cf { forward, .. } => {
            let steps = if forward {
                query::cf_trace_forward(wet)
            } else {
                query::cf_trace_backward(wet)
            };
            answer_of(
                steps
                    .map_err(err)?
                    .into_iter()
                    .map(|s| [s.node.0.into(), s.k.into(), s.ts as i64]),
            )
        }
        Req::Slice { at, .. } => {
            let slice = query::backward_slice(
                wet,
                program,
                at,
                SliceSpec {
                    data: true,
                    control: true,
                },
            );
            answer_of(
                slice
                    .map_err(err)?
                    .stamped
                    .into_iter()
                    .map(|(s, ts)| [s.0.into(), ts as i64]),
            )
        }
    })
}

/// One served trace.
struct Served {
    id: String,
    program: Program,
    stmts: u64,
    bytes: u64,
    path: PathBuf,
}

/// A running server with its clients; dropping it drains the server,
/// joins its thread, and removes the trace files.
struct Env {
    server: Server,
    serving: Option<JoinHandle<std::io::Result<()>>>,
    clients: Vec<Client>,
    traces: Vec<Served>,
    list: Vec<Req>,
    /// List indexes in the order the clients send them.
    schedule: Vec<u32>,
    /// The reference answer for each list entry.
    expected: Vec<Result<Answer, String>>,
    open_secs: f64,
}

impl Drop for Env {
    fn drop(&mut self) {
        self.clients.clear();
        self.server.begin_drain();
        if let Some(h) = self.serving.take() {
            let _ = h.join();
        }
        for t in &self.traces {
            let _ = std::fs::remove_file(&t.path);
        }
    }
}

/// Traces one program to tier-1 and seals the tier-2 WET to `path`;
/// returns the tier-1 WET too, as the reference for answers.
fn build_trace(kind: Kind, target: u64, path: PathBuf) -> Result<(Served, Wet), String> {
    let built = wet_bench::build_wet(kind, target, WetConfig::default());
    let reference = built.wet.clone();
    let mut wet = built.wet;
    wet.compress();
    let bytes =
        write_container(&wet, &path).map_err(|e| format!("write {}: {e}", path.display()))?;
    let served = Served {
        id: kind.name().to_owned(),
        program: built.program,
        stmts: built.run.stmts_executed,
        bytes,
        path,
    };
    Ok((served, reference))
}

/// The workload's request list (fixed; the seed only orders it).
fn request_list(workload: Workload, traces: &[Served], refs: &[Wet]) -> Vec<Req> {
    let mut list = Vec::new();
    match workload {
        Workload::Scan => {
            for (trace, t) in traces.iter().enumerate() {
                let mut stmts = BTreeSet::new();
                for n in refs[trace].nodes().iter().filter(|n| n.n_execs > 0) {
                    stmts.extend(n.stmts.iter().map(|s| (s.id, s.has_def)));
                }
                for (stmt, has_def) in stmts {
                    if has_def {
                        list.push(Req::Value { trace, stmt });
                    }
                    if t.program.stmt_ref(stmt).is_mem() {
                        list.push(Req::Address { trace, stmt });
                    }
                }
            }
        }
        Workload::Walk => {
            let criteria =
                wet_bench::pick_slice_criteria(&refs[0], WALK_SLICES, 0x5eed + Kind::Vortex as u64);
            for at in criteria {
                list.push(Req::Slice { trace: 0, at });
                list.push(Req::Cf {
                    trace: 0,
                    forward: true,
                });
                list.push(Req::Cf {
                    trace: 0,
                    forward: false,
                });
            }
        }
    }
    list
}

/// Passes over the list, each in its own seeded order, totalling at
/// least [`SCHEDULE_MIN`] requests.
fn schedule(len: usize, seed: u64) -> Vec<u32> {
    let passes = SCHEDULE_MIN.div_ceil(len);
    let mut out = Vec::with_capacity(passes * len);
    for pass in 0..passes {
        let mut order: Vec<u32> = (0..len as u32).collect();
        stats::shuffle(
            &mut order,
            seed.wrapping_mul(0x1_0000_0001).wrapping_add(pass as u64),
        );
        out.extend(order);
    }
    out
}

/// Builds, seals and opens the traces, starts the server and its
/// clients, and warms up in a fixed order; returns the tier-1 reference
/// WETs too.
fn setup(workload: Workload, work: &WorkDir, n: usize) -> Result<(Env, Vec<Wet>), String> {
    let (mut traces, mut refs) = (Vec::new(), Vec::new());
    for (kind, target) in workload.traces() {
        let path = work.path(&format!("s{n}-{}.wetz", kind.name()));
        let (served, reference) = build_trace(kind, target, path)?;
        traces.push(served);
        refs.push(reference);
    }
    let list = request_list(workload, &traces, &refs);
    let server = Server::with_store(ServeOptions {
        max_active: CLIENTS,
        threads: 1,
        store_budget: workload.budget(),
        // No brownout: a store filled to its budget is the steady state
        // of query-scan, not overload, and every answer must be whole.
        pressure: PressureOptions {
            brownout_budget_bytes: 0,
            ..PressureOptions::default()
        },
        ..ServeOptions::default()
    });
    let mut open_secs = 0.0;
    for t in &traces {
        let start = Instant::now();
        server
            .store()
            .open(&t.id, "", &t.path, Some(t.program.clone()))
            .map_err(|e| format!("open {}: {e}", t.id))?;
        open_secs += start.elapsed().as_secs_f64();
    }
    let addr = work
        .path(&format!("s{n}.sock"))
        .to_string_lossy()
        .into_owned();
    let listener = wet_serve::bind(&addr).map_err(|e| format!("bind {addr}: {e}"))?;
    let srv = server.clone();
    let serving = Some(std::thread::spawn(move || srv.serve(listener)));
    let mut env = Env {
        server,
        serving,
        clients: Vec::new(),
        traces,
        list,
        schedule: Vec::new(),
        expected: Vec::new(),
        open_secs,
    };
    for _ in 0..CLIENTS {
        env.clients
            .push(Client::connect(&addr).map_err(|e| format!("connect {addr}: {e}"))?);
    }
    // Warm-up: one client sends the first requests of a fixed order, so
    // the decodes and evictions it causes are the same in every set-up.
    // Its answers are not checked (the timed ones are), but a dead
    // transport ends the run.
    let count = match workload {
        Workload::Scan => SCAN_WARMUP,
        Workload::Walk => env.list.len(),
    };
    let client = &mut env.clients[0];
    for &item in schedule(env.list.len(), WARMUP_SEED).iter().take(count) {
        let pairs = env.list[item as usize].pairs(&env.traces);
        client
            .call(pairs)
            .map_err(|e| format!("warm-up: transport: {e}"))?;
    }
    Ok((env, refs))
}

/// The answer the in-memory tier-1 WET gives for every list entry.
fn expected_answers(env: &Env, mut refs: Vec<Wet>) -> Vec<Result<Answer, String>> {
    env.list
        .iter()
        .map(|&req| {
            reference(
                req,
                &mut refs[req.trace()],
                &env.traces[req.trace()].program,
            )
        })
        .collect()
}

/// One timed request of a load phase.
struct Sample {
    item: usize,
    /// Recorded under a span (traced run only).
    traced: bool,
    secs: f64,
    /// Completion time, in seconds since the phase began.
    end: f64,
    answer: Result<Answer, String>,
}

/// Completions per second over each run of `n` consecutive completions
/// (a pass's worth of requests), from the completion times `ends`.
fn pass_rates(ends: &mut [f64], n: usize) -> Vec<f64> {
    ends.sort_by(f64::total_cmp);
    let mut prev = 0.0;
    ends.chunks_exact(n)
        .map(|c| {
            let rate = n as f64 / (c[n - 1] - prev);
            prev = c[n - 1];
            rate
        })
        .collect()
}

/// Runs the clients closed-loop over the schedule, from its start, for
/// `window`; returns the samples, the phase's wall time, and — when
/// traced (`spans_origin` is the time base) — a span per `Client::call`
/// of every other pass over the list.
fn load(
    env: &mut Env,
    window: Duration,
    spans_origin: Option<Instant>,
) -> (Vec<Sample>, f64, Spans) {
    let start = Instant::now();
    let origin = spans_origin.unwrap_or(start);
    let traced = spans_origin.is_some();
    let (list, schedule, traces) = (&env.list, &env.schedule, &env.traces);
    let deadline = start + window;
    // Next schedule position (wraps), shared by the clients.
    let next = &AtomicUsize::new(0);
    let mut spans = Spans::new(origin);
    let parts: Vec<(Vec<Sample>, Spans)> = std::thread::scope(|scope| {
        let handles: Vec<_> = env
            .clients
            .iter_mut()
            .map(|client| {
                scope.spawn(move || {
                    let mut out = Vec::new();
                    let mut spans = Spans::new(origin);
                    while Instant::now() < deadline {
                        let i = next.fetch_add(1, Ordering::SeqCst);
                        let item = schedule[i % schedule.len()] as usize;
                        let req = list[item];
                        let pairs = req.pairs(traces);
                        let on = traced && (i / list.len()) % 2 == 1;
                        let span = on.then(|| spans.open("serve.client.call", i as u64, None));
                        let t = Instant::now();
                        let reply = client.call(pairs);
                        let secs = t.elapsed().as_secs_f64();
                        let end = start.elapsed().as_secs_f64();
                        if let Some(s) = span {
                            spans.close(s);
                        }
                        let answer = match &reply {
                            Ok(r) => answer_of_reply(req, r),
                            Err(e) => Err(format!("transport: {e}")),
                        };
                        let broken = reply.is_err();
                        out.push(Sample {
                            item,
                            traced: on,
                            secs,
                            end,
                            answer,
                        });
                        if broken {
                            break;
                        }
                    }
                    (out, spans)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let elapsed = start.elapsed().as_secs_f64();
    let mut samples = Vec::new();
    for (s, sp) in parts {
        samples.extend(s);
        spans.absorb(sp);
    }
    (samples, elapsed, spans)
}

/// Checks every sample against the reference answer and sets the
/// report's counts: `attempted` is the list entries sent at least once,
/// `failed` those with at least one error or wrong answer. Logs the
/// failed samples by kind.
fn check(env: &Env, samples: &[Sample], report: &mut Report) {
    let (mut failed, mut unchecked) = (0, 0);
    let (mut sent, mut bad) = (BTreeSet::new(), BTreeSet::new());
    // Failures by (op, trace, what went wrong), for the log.
    let mut tally: BTreeMap<String, u64> = BTreeMap::new();
    for s in samples {
        let req = env.list[s.item];
        sent.insert(s.item);
        let problem = match (&s.answer, &env.expected[s.item]) {
            (_, Err(e)) => {
                unchecked += 1;
                Some(format!("no reference answer: {e}"))
            }
            (Err(e), _) => {
                failed += 1;
                Some(e.clone())
            }
            (Ok(got), Ok(want)) if got != want => {
                failed += 1;
                Some("wrong answer".to_owned())
            }
            _ => None,
        };
        if let Some(p) = problem {
            bad.insert(s.item);
            let what = p.split(':').next().unwrap_or_default();
            let key = format!("{} {} -> {what}", req.op(), env.traces[req.trace()].id);
            *tally.entry(key).or_default() += 1;
        }
    }
    for (key, n) in tally {
        report.note(format!("failed: {n} x {key}"));
    }
    report.note(format!(
        "failed {failed} of {} requests sent: {} of {} list entries",
        samples.len(),
        bad.len(),
        sent.len()
    ));
    report.attempted = sent.len() as u64;
    report.failed = bad.len() as u64;
    report.unchecked = unchecked;
}

fn lock_read(w: &RwLock<Wet>) -> std::sync::RwLockReadGuard<'_, Wet> {
    w.read().unwrap_or_else(PoisonError::into_inner)
}

fn lock_write(w: &RwLock<Wet>) -> std::sync::RwLockWriteGuard<'_, Wet> {
    w.write().unwrap_or_else(PoisonError::into_inner)
}

/// Calls the query engine directly on the store's trace, as the server
/// would; returns the rows produced.
fn engine_call(req: Req, wet: &RwLock<Wet>, program: &Program) -> Result<u64, query::QueryErr> {
    let ctl = Ctl::unbounded();
    Ok(match req {
        Req::Value { stmt, .. } => engine::value_trace_ctl(&lock_read(wet), stmt, 1, &ctl)?.len(),
        Req::Address { stmt, .. } => {
            engine::address_trace_ctl(&lock_read(wet), program, stmt, 1, &ctl)?.len()
        }
        Req::Cf { forward: true, .. } => {
            query::cf_trace_forward_ctl(&mut lock_write(wet), &ctl)?.len()
        }
        Req::Cf { forward: false, .. } => {
            query::cf_trace_backward_ctl(&mut lock_write(wet), &ctl)?.len()
        }
        Req::Slice { at, .. } => {
            let spec = SliceSpec {
                data: true,
                control: true,
            };
            query::backward_slice_ctl(&mut lock_write(wet), program, at, spec, &ctl)?.len()
        }
    } as u64)
}

/// Per-request solo times from the single-caller replay.
#[derive(Default, Clone, Copy)]
struct Solo {
    ensure: f64,
    hit: bool,
    query: f64,
    frame_self: f64,
    socket: f64,
    call: f64,
}

impl Solo {
    /// The request's time through the socket with nobody else running,
    /// including the section decode it needed from the replay's cache
    /// state (the call itself ran after `ensure` made them resident).
    fn alone(&self) -> f64 {
        self.ensure + self.call
    }
}

/// Replays the list once (in its first pass's order) from one caller,
/// timing each layer's call.
fn replay(env: &mut Env, spans: &mut Spans, report: &mut Report) -> Result<Vec<Solo>, String> {
    let store = env.server.store();
    // Reopen every trace so the replay starts from a cold store whatever
    // the concurrent load left resident: its decode and eviction counts
    // then repeat exactly for a seed.
    for t in &env.traces {
        store
            .close(&t.id)
            .and_then(|()| store.open(&t.id, "", &t.path, Some(t.program.clone())))
            .map_err(|e| format!("reopen {}: {e}", t.id))?;
    }
    let (decodes0, evictions0) = (store.lazy_decodes(), store.evictions());
    let mut solos = vec![Solo::default(); env.list.len()];
    let mut rows = 0u64;
    for &item in &env.schedule[..env.list.len()] {
        let (item, req) = (item as usize, env.list[item as usize]);
        let id = spans.new_req();
        let root = spans.open("solo.request", id, None);
        let served = &env.traces[req.trace()];
        let trace = store.get(&served.id).expect("served trace is open");
        let needs = sections_for_op(req.op());
        let hit = trace.sections_resident(needs);
        let (pin, ensure) = spans.time("store.ensure", id, Some(root), || {
            store.ensure(&trace, needs)
        });
        let (_, resident) = spans.time("store.ensure.resident", id, Some(root), || {
            store.ensure(&trace, needs)
        });
        let program = trace.program().expect("traces open with their program");
        let (n, query) = spans.time(req.layer(), id, Some(root), || {
            engine_call(req, trace.wet(), program)
        });
        rows += n.unwrap_or(0);
        drop(pin);
        let frame = json::obj(
            [
                vec![("id", Value::Int(item as i64))],
                req.pairs(&env.traces),
            ]
            .concat(),
        )
        .render()
        .into_bytes();
        let (_, hf) = spans.time("serve.handle_frame", id, Some(root), || {
            env.server.handle_frame(&frame)
        });
        let pairs = req.pairs(&env.traces);
        let client = &mut env.clients[0];
        let (_, call) = spans.time("serve.client.call", id, Some(root), || client.call(pairs));
        spans.close(root);
        solos[item] = Solo {
            ensure,
            hit,
            query,
            frame_self: (hf - query - resident).max(0.0),
            socket: (call - hf).max(0.0),
            call,
        };
    }
    let store = env.server.store();
    report.set("store.ensure.calls", solos.len() as f64);
    report.set(
        "store.lazy_decodes",
        (store.lazy_decodes() - decodes0) as f64,
    );
    report.set("store.evictions", (store.evictions() - evictions0) as f64);
    report.set("query.rows", rows as f64);
    Ok(solos)
}

fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = values.fold((0.0, 0u64), |(s, n), v| (s + v, n + 1));
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

pub fn run(workload: Workload, args: &Args, work: &WorkDir) -> Result<Report, String> {
    let mut report = Report::default();
    // The first set-up is the one measured; the others only time set-up
    // again. They run after it, before or after the window, and each is
    // freed straight away, so the window's peak memory holds one set-up.
    let (mut env, refs) = setup(workload, work, 0)?;
    let mut setup_secs = vec![args.origin.elapsed().as_secs_f64()];
    let mut open_secs = vec![env.open_secs];
    setup_secs.extend(time_setups(1..SETUPS_BEFORE, |n| {
        let built = setup(workload, work, n)?;
        open_secs.push(built.0.open_secs);
        Ok(built)
    })?);
    // Untimed: answer every list entry from the in-memory WETs, then
    // free them so the timed window holds only what serving needs.
    env.expected = expected_answers(&env, refs);
    env.schedule = schedule(env.list.len(), args.seed);
    let (stmts, bytes) = env
        .traces
        .iter()
        .fold((0, 0), |(s, b), t| (s + t.stmts, b + t.bytes));
    report.note(format!(
        "{}: {} trace(s), {stmts} stmts, {bytes} container bytes, {} requests in the list, {CLIENTS} clients, store budget {} B, seed {}",
        workload.name(),
        env.traces.len(),
        env.list.len(),
        workload.budget(),
        args.seed
    ));
    if args.trace {
        traced(&mut env, args, &mut report, median(&open_secs))?;
        return Ok(report);
    }
    let ((samples, elapsed, _), rss) =
        stats::peak_rss_during(|| load(&mut env, args.seconds, None))?;
    report.set("peak_rss_mb", rss);
    let after = SETUPS_BEFORE..SETUPS_BEFORE + SETUPS_AFTER;
    setup_secs.extend(time_setups(after, |n| setup(workload, work, n))?);
    check(&env, &samples, &mut report);
    let mut lat: Vec<f64> = samples.iter().map(|s| s.secs * 1e3).collect();
    lat.sort_by(f64::total_cmp);
    if lat.is_empty() {
        return Err("no request completed".into());
    }
    report.set("setup_s", median(&setup_secs));
    // The median over passes' worth of completions, so a slow spell of
    // the host that covers less than half the window does not move it.
    let mut ends: Vec<f64> = samples.iter().map(|s| s.end).collect();
    let rates = pass_rates(&mut ends, env.list.len());
    if rates.is_empty() {
        return Err(format!(
            "the window completed less than one pass of {} requests",
            env.list.len()
        ));
    }
    report.set("req_per_s", median(&rates));
    report.set("p50_ms", percentile(&lat, 50.0));
    report.set("p90_ms", percentile(&lat, 90.0));
    report.set("wetz_bytes_per_stmt", bytes as f64 / stmts as f64);
    report.note(format!(
        "requests {} in {elapsed:.3} s ({:.1} req/s over the window); p50 {:.3} ms (n={}), p90 {:.3} ms ({} beyond), p99 {:.3} ms ({} beyond); setup runs {:?}",
        samples.len(),
        samples.len() as f64 / elapsed,
        percentile(&lat, 50.0),
        lat.len(),
        percentile(&lat, 90.0),
        beyond(&lat, 90.0),
        percentile(&lat, 99.0),
        beyond(&lat, 99.0),
        setup_secs
    ));
    Ok(report)
}

/// The traced run: every other pass traced, then the solo replay.
fn traced(env: &mut Env, args: &Args, report: &mut Report, open_secs: f64) -> Result<(), String> {
    let (samples, _, mut spans) = load(env, args.seconds, Some(args.origin));
    let solos = replay(env, &mut spans, report)?;
    check(env, &samples, report);
    let layer_mean = |layer: &str| {
        mean(
            env.list
                .iter()
                .zip(&solos)
                .filter(|(r, _)| r.layer() == layer)
                .map(|(_, s)| s.query),
        )
    };
    report.set("store.open.secs", open_secs);
    report.set("store.ensure.secs", mean(solos.iter().map(|s| s.ensure)));
    report.set(
        "store.hit_ratio",
        solos.iter().filter(|s| s.hit).count() as f64 / solos.len().max(1) as f64,
    );
    for (layer, metric) in [
        ("query.value_trace", "query.value_trace.secs"),
        ("query.address_trace", "query.address_trace.secs"),
        ("query.cf_trace_forward", "query.cf_trace_forward.secs"),
        ("query.cf_trace_backward", "query.cf_trace_backward.secs"),
        ("query.backward_slice", "query.backward_slice.secs"),
    ] {
        report.set(metric, layer_mean(layer));
    }
    report.set(
        "serve.handle_frame.secs",
        mean(solos.iter().map(|s| s.frame_self)),
    );
    report.set("serve.socket.secs", mean(solos.iter().map(|s| s.socket)));
    report.set(
        "serve.wait.secs",
        mean(
            samples
                .iter()
                .filter(|s| s.traced)
                .map(|s| s.secs - solos[s.item].alone()),
        ),
    );
    // Traced and untraced passes alternate; compare each request's mean
    // latency under both, so the request mix cancels out.
    let mut by_item = vec![[(0.0, 0u32); 2]; env.list.len()];
    for s in &samples {
        let slot = &mut by_item[s.item][usize::from(s.traced)];
        *slot = (slot.0 + s.secs, slot.1 + 1);
    }
    let (mut plain, mut traced) = (0.0, 0.0);
    for [(p, np), (t, nt)] in by_item.into_iter().filter(|[p, t]| p.1 > 0 && t.1 > 0) {
        plain += p / f64::from(np);
        traced += t / f64::from(nt);
    }
    // A run too short to repeat a request traced and untraced shows none.
    let overhead = if traced > 0.0 {
        1.0 - plain / traced
    } else {
        0.0
    };
    report.set("trace.overhead", overhead);
    report.note(format!(
        "{} requests, half of the passes traced; solo replay of {} requests",
        samples.len(),
        solos.len()
    ));
    match crate::save_spans(args, &spans) {
        Ok(p) => report.note(format!("spans: {}", p.display())),
        Err(e) => report.note(format!("spans not written: {e}")),
    }
    Ok(())
}
