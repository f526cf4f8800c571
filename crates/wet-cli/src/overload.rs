//! `wet drill --overload` — a seeded brownout storm against an
//! in-process daemon with deliberately tiny capacity: four competing
//! tenants offer 4× the server's sustained capacity for the storm
//! window (a rejected request is re-offered after sub-millisecond
//! seeded jitter, so the offered load does not slacken as the server
//! sheds — the storm is open-loop in effect).
//!
//! The drill asserts the overload contract end to end:
//!
//! 1. the process never panics and every rejection is *typed*,
//!    retriable, and carries a `retry_after_ms` backoff hint,
//! 2. pressure climbs through Elevated (brownout: budget-less queries
//!    get an automatic byte budget and come back partial, not errors)
//!    to Critical (deadline-aware drop + per-tenant fair shedding),
//! 3. accepted requests keep bounded latency and every tenant gets
//!    goodput — no tenant is starved by a noisier neighbour,
//! 4. after the storm the controller decays back to Nominal through
//!    hysteresis,
//! 5. a budget-degraded answer is gap-annotated and byte-deterministic
//!    (two identical budgeted queries return identical frames),
//! 6. the access-log ledger stays exact: one line per completed
//!    request, now carrying `quality` and `pressure` fields.
//!
//! Everything is derived from `--seed`, so a failing storm replays.

use crate::cli::{fail, Flags, EXIT_DIVERGENCE, EXIT_UNAVAILABLE};
use std::error::Error;
use std::path::PathBuf;
use std::time::{Duration, Instant};
use wet_core::fault::FaultRng;
use wet_core::{WetBuilder, WetConfig};
use wet_interp::{Interp, InterpConfig};
use wet_ir::ballarus::BallLarus;
use wet_serve::json::{self, Value};
use wet_serve::{PressureOptions, ServeOptions, Server};

type Result<T> = std::result::Result<T, Box<dyn Error>>;

macro_rules! say {
    ($($arg:tt)*) => { crate::cli::say_line(format_args!($($arg)*)) };
}

/// Statement target for the storm workload: big enough that an
/// unbudgeted forward trace costs real work (and a small byte budget
/// genuinely truncates it), small enough that the drill stays fast.
const TARGET_STMTS: u64 = 6_000;

/// The server's whole capacity: two engine slots and a four-deep
/// queue. Tiny on purpose — overload must be reachable from a handful
/// of client threads, not a cluster.
const MAX_ACTIVE: usize = 2;
const QUEUE_WATERMARK: usize = 4;

/// Four tenants × two workers each = 8 concurrent offers against
/// [`MAX_ACTIVE`] = 2 slots: 4× sustained capacity.
const TENANTS: usize = 4;
const WORKERS_PER_TENANT: usize = 2;

/// How long the storm holds the 4× offered load.
const STORM: Duration = Duration::from_millis(1_500);

/// Per-request deadline during the storm. Accepted requests must
/// complete near this bound; the slack covers one engine cancellation
/// poll past an expired deadline.
const REQ_DEADLINE_MS: u64 = 500;
const P99_SLACK: Duration = Duration::from_millis(250);

/// How long the controller gets to decay back to Nominal after the
/// storm (EWMA idle halvings plus one hysteresis window per level).
const RECOVERY_DEADLINE: Duration = Duration::from_secs(8);

/// Byte budget for brownout and the post-storm determinism probe: the
/// workload's full forward trace costs ~2.8 KB (Ball-Larus paths
/// compress 6 000 statements to ~350 node executions at 8 bytes
/// each), so 512 bytes is certainly partial.
const PROBE_BUDGET_BYTES: u64 = 512;

/// What one storm worker saw.
#[derive(Default)]
struct WorkerStats {
    ok_full: u64,
    ok_degraded: u64,
    rejected: u64,
    /// Typed-error or missing-hint contract violations (details said
    /// inline as they happen).
    violations: u64,
    /// Latencies of accepted (ok) requests, µs.
    lat_us: Vec<u64>,
}

/// Entry point for `wet drill --overload`.
pub(crate) fn cmd_overload(flags: &Flags) -> Result<()> {
    let seed = flags.seed;
    let log_path = tmp_log(seed);
    let _ = std::fs::remove_file(&log_path);
    let _ = std::fs::remove_file(format!("{}.1", log_path.display()));

    let w = wet_workloads::build(wet_workloads::Kind::Li, TARGET_STMTS);
    let bl = BallLarus::new(&w.program);
    let mut b = WetBuilder::new(&w.program, &bl, WetConfig::default());
    Interp::new(&w.program, &bl, InterpConfig::default())
        .run(&w.inputs, &mut b)
        .map_err(|e| fail(EXIT_UNAVAILABLE, format!("storm workload failed: {e}")))?;
    let wet = b.finish();

    let opts = ServeOptions {
        max_active: MAX_ACTIVE,
        queue_watermark: QUEUE_WATERMARK,
        threads: 1,
        access_log: Some(log_path.clone()),
        pressure: PressureOptions {
            // Aggressive thresholds so the tiny storm drives the full
            // Nominal → Elevated → Critical → Nominal arc in seconds.
            elevated_queue_us: 500,
            critical_queue_us: 5_000,
            hysteresis: Duration::from_millis(300),
            brownout_budget_bytes: PROBE_BUDGET_BYTES,
            ..PressureOptions::default()
        },
        ..ServeOptions::default()
    };
    let server = Server::new(wet, Some(w.program.clone()), opts);

    let (per_tenant, max_level) = storm(&server, seed);

    let total_ok: u64 = per_tenant.iter().map(|s| s.ok_full + s.ok_degraded).sum();
    let total_degraded: u64 = per_tenant.iter().map(|s| s.ok_degraded).sum();
    let total_rejected: u64 = per_tenant.iter().map(|s| s.rejected).sum();
    let violations: u64 = per_tenant.iter().map(|s| s.violations).sum();
    let mut lat: Vec<u64> = per_tenant.iter().flat_map(|s| s.lat_us.iter().copied()).collect();
    lat.sort_unstable();
    let p99_us = percentile(&lat, 99.0);

    let stats = server.stats_value();
    let stat = |k: &str| stats.get(k).and_then(Value::as_i64).unwrap_or(0);
    say!(
        "overload: storm (seed {seed}): {TENANTS} tenants x {WORKERS_PER_TENANT} workers vs \
         {MAX_ACTIVE} slots for {} ms: {total_ok} ok ({total_degraded} browned out), \
         {total_rejected} rejected, peak pressure {max_level}, accepted p99 {p99_us} us",
        STORM.as_millis()
    );

    if violations > 0 {
        return Err(fail(
            EXIT_UNAVAILABLE,
            format!("overload: {violations} responses broke the typed-rejection contract"),
        ));
    }
    if stat("panic") != 0 {
        return Err(fail(EXIT_UNAVAILABLE, format!("overload: {} requests panicked", stat("panic"))));
    }
    if total_rejected == 0 || max_level != "critical" {
        return Err(fail(
            EXIT_UNAVAILABLE,
            format!(
                "overload: the storm never overloaded the server \
                 ({total_rejected} rejections, peak pressure {max_level})"
            ),
        ));
    }
    if stat("brownouts") == 0 || total_degraded == 0 {
        return Err(fail(
            EXIT_UNAVAILABLE,
            format!(
                "overload: brownout never fired ({} server brownouts, \
                 {total_degraded} degraded answers)",
                stat("brownouts")
            ),
        ));
    }
    for (i, s) in per_tenant.iter().enumerate() {
        if s.ok_full + s.ok_degraded == 0 {
            return Err(fail(
                EXIT_UNAVAILABLE,
                format!("overload: tenant t{i} was starved (0 accepted requests)"),
            ));
        }
    }
    let bound = Duration::from_millis(REQ_DEADLINE_MS) + P99_SLACK;
    if Duration::from_micros(p99_us) > bound {
        return Err(fail(
            EXIT_UNAVAILABLE,
            format!(
                "overload: accepted p99 {p99_us} us exceeds the {} ms deadline (+slack)",
                REQ_DEADLINE_MS
            ),
        ));
    }
    say!("overload: zero panics, every rejection typed + hinted, no tenant starved");

    recovery(&server)?;
    say!("overload: pressure recovered to nominal after the storm");

    determinism_probe(&server)?;
    say!("overload: budget-degraded answer is gap-annotated and byte-deterministic");

    audit_ledger(&server, &log_path)?;

    wet_obs::counter_add("drill.overload_runs", "total", 1);
    wet_obs::counter_add("drill.overload_rejections", "total", total_rejected);
    wet_obs::counter_add("drill.overload_browned", "total", total_degraded);
    let _ = std::fs::remove_file(&log_path);
    let _ = std::fs::remove_file(format!("{}.1", log_path.display()));
    say!("overload drill passed");
    Ok(())
}

fn tmp_log(seed: u64) -> PathBuf {
    std::env::temp_dir().join(format!("wet-overload-{seed}-{}.log", std::process::id()))
}

/// Runs the storm: 8 closed-position workers (re-offering instantly on
/// rejection) plus a monitor thread recording the peak pressure level
/// the server reports. Returns per-tenant stats and that peak.
fn storm(server: &Server, seed: u64) -> (Vec<WorkerStats>, String) {
    let stop_at = Instant::now() + STORM;
    let mut per_tenant: Vec<WorkerStats> = (0..TENANTS).map(|_| WorkerStats::default()).collect();
    let mut max_level = String::from("nominal");
    std::thread::scope(|scope| {
        let monitor = scope.spawn(|| {
            let mut peak = 0u8;
            while Instant::now() < stop_at {
                let stats = server.stats_value();
                let level = stats.get("pressure").and_then(Value::as_str).unwrap_or("nominal");
                peak = peak.max(match level {
                    "critical" => 2,
                    "elevated" => 1,
                    _ => 0,
                });
                std::thread::sleep(Duration::from_millis(10));
            }
            ["nominal", "elevated", "critical"][peak as usize].to_owned()
        });
        let workers: Vec<_> = (0..TENANTS * WORKERS_PER_TENANT)
            .map(|wi| {
                let srv = server.clone();
                scope.spawn(move || worker(&srv, wi, seed ^ (wi as u64).wrapping_mul(0x9e37), stop_at))
            })
            .collect();
        for (wi, h) in workers.into_iter().enumerate() {
            let st = h.join().expect("storm worker panicked");
            let t = &mut per_tenant[wi % TENANTS];
            t.ok_full += st.ok_full;
            t.ok_degraded += st.ok_degraded;
            t.rejected += st.rejected;
            t.violations += st.violations;
            t.lat_us.extend(st.lat_us);
        }
        max_level = monitor.join().expect("storm monitor panicked");
    });
    (per_tenant, max_level)
}

/// One storm worker: offer budget-less forward traces for its tenant
/// back to back until the storm window closes, classifying every
/// response against the overload contract.
fn worker(server: &Server, wi: usize, seed: u64, stop_at: Instant) -> WorkerStats {
    let mut rng = FaultRng::new(seed);
    let mut st = WorkerStats::default();
    let tenant = format!("t{}", wi % TENANTS);
    let mut id = (wi as u64 + 1) * 1_000_000;
    while Instant::now() < stop_at {
        id += 1;
        let req = json::obj(vec![
            ("id", Value::Int(id as i64)),
            ("op", Value::Str("cf_trace".into())),
            ("tenant", Value::Str(tenant.clone())),
            ("deadline_ms", Value::Int(REQ_DEADLINE_MS as i64)),
        ])
        .render()
        .into_bytes();
        let t0 = Instant::now();
        let resp = server.handle_frame(&req);
        let us = t0.elapsed().as_micros() as u64;
        let Some(v) = std::str::from_utf8(&resp).ok().and_then(|t| json::parse(t).ok()) else {
            st.violations += 1;
            continue;
        };
        if v.get("ok").and_then(Value::as_bool) == Some(true) {
            st.lat_us.push(us);
            let quality = v
                .get("result")
                .and_then(|r| r.get("quality"))
                .and_then(Value::as_str)
                .unwrap_or("");
            match quality {
                "full" => st.ok_full += 1,
                "degraded" => st.ok_degraded += 1,
                _ => st.violations += 1, // every data-plane answer must say
            }
        } else {
            st.rejected += 1;
            let err = v.get("error");
            let retriable =
                err.and_then(|e| e.get("retriable")).and_then(Value::as_bool).unwrap_or(false);
            let hinted =
                err.and_then(|e| e.get("retry_after_ms")).and_then(Value::as_u64).is_some();
            // Under a pure overload storm every rejection must be a
            // retriable shed/deadline carrying a backoff hint.
            if !retriable || !hinted {
                st.violations += 1;
            }
            // Sub-millisecond seeded jitter before the re-offer keeps
            // the load open-loop without a busy-spin.
            std::thread::sleep(Duration::from_micros(200 + rng.below(800)));
        }
    }
    st
}

/// Polls `stats` (each poll reassesses pressure, so the idle decay and
/// hysteresis actually run) until the controller reports Nominal.
fn recovery(server: &Server) -> Result<()> {
    let deadline = Instant::now() + RECOVERY_DEADLINE;
    loop {
        let stats = server.stats_value();
        if stats.get("pressure").and_then(Value::as_str) == Some("nominal") {
            return Ok(());
        }
        if Instant::now() > deadline {
            return Err(fail(
                EXIT_UNAVAILABLE,
                format!(
                    "overload: pressure stuck at {} {} ms after the storm",
                    stats.get("pressure").and_then(Value::as_str).unwrap_or("?"),
                    RECOVERY_DEADLINE.as_millis()
                ),
            ));
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Two identical budgeted queries after the storm: both must come back
/// gap-annotated (`quality: degraded` with a non-empty gap report) and
/// the response frames must be byte-identical — budget-degraded
/// answers are planned, not raced.
fn determinism_probe(server: &Server) -> Result<()> {
    let req = json::obj(vec![
        ("id", Value::Int(777)),
        ("op", Value::Str("cf_trace".into())),
        ("tenant", Value::Str("probe".into())),
        ("budget_bytes", Value::Int(PROBE_BUDGET_BYTES as i64)),
    ])
    .render()
    .into_bytes();
    let a = server.handle_frame(&req);
    let b = server.handle_frame(&req);
    if a != b {
        return Err(fail(
            EXIT_DIVERGENCE,
            "overload: two identical budgeted queries returned different bytes",
        ));
    }
    let v = json::parse(std::str::from_utf8(&a).map_err(|_| fail(EXIT_UNAVAILABLE, "non-UTF-8 probe response"))?)
        .map_err(|e| fail(EXIT_UNAVAILABLE, format!("bad probe response JSON: {e}")))?;
    let result = v.get("result").cloned().unwrap_or(Value::Null);
    if result.get("quality").and_then(Value::as_str) != Some("degraded") {
        return Err(fail(
            EXIT_UNAVAILABLE,
            format!(
                "overload: a {PROBE_BUDGET_BYTES}-byte budget did not degrade the answer: {}",
                result.render()
            ),
        ));
    }
    let gaps = result
        .get("degraded")
        .and_then(|d| d.get("gaps"))
        .and_then(Value::as_i64)
        .unwrap_or(0);
    if gaps < 1 {
        return Err(fail(
            EXIT_UNAVAILABLE,
            "overload: degraded answer carries no gap annotation",
        ));
    }
    Ok(())
}

/// The exactly-once ledger, in-process edition: access-log lines must
/// equal the sum of outcome counters, and every line must carry the
/// `quality` and `pressure` fields the brownout path stamps.
fn audit_ledger(server: &Server, log: &std::path::Path) -> Result<()> {
    // Let the final log writes land (workers are joined, but give the
    // rotating log a beat, mirroring the remote drill's audit).
    std::thread::sleep(Duration::from_millis(100));
    let read = |p: &std::path::Path| -> Result<String> {
        match std::fs::read_to_string(p) {
            Ok(t) => Ok(t),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(String::new()),
            Err(e) => Err(crate::cli::io_fail(&format!("cannot read drill log {}", p.display()), &e)),
        }
    };
    let text = read(log)? + &read(&log.with_extension("log.1"))?;
    let lines = text.lines().count() as i64;
    let stats = server.stats_value();
    let completed = wet_serve::completed(&stats);
    if lines != completed {
        return Err(fail(
            EXIT_UNAVAILABLE,
            format!("overload: ledger mismatch: {lines} log lines vs {completed} completed requests"),
        ));
    }
    let stamped = text
        .lines()
        .filter(|l| l.contains("\"quality\"") && l.contains("\"pressure\""))
        .count() as i64;
    if stamped != lines {
        return Err(fail(
            EXIT_UNAVAILABLE,
            format!("overload: only {stamped}/{lines} log lines carry quality + pressure fields"),
        ));
    }
    say!("overload: access log: {lines} lines == {completed} completed requests (exactly once)");
    Ok(())
}

/// Nearest-rank percentile over sorted `v`, 0 when empty.
fn percentile(v: &[u64], p: f64) -> u64 {
    if v.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * v.len() as f64).ceil().max(1.0) as usize;
    v[rank.min(v.len()) - 1]
}
