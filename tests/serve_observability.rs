//! Integration tests for the wet-serve observability layer:
//!
//! 1. **Tracing changes no response byte**: the same query pool
//!    answered with the access log (and therefore request-scoped span
//!    tracing) enabled is byte-identical across 1/2/4/8 engine threads
//!    to an untraced single-threaded baseline.
//! 2. **Counters are live and monotonic**: four concurrent clients
//!    hammering the server while a fifth polls `stats` never observe
//!    the completed-request sum decrease, and the final sum accounts
//!    for every request sent.
//! 3. **The flight recorder survives a panic**: a `debug_panic`
//!    request leaves a `wet-flight/1` dump on disk containing that
//!    request's events.
//! 4. **The scrape endpoint answers**: `/metrics`, `/healthz`,
//!    `/readyz` (503 once draining), and 404 for anything else.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use wet::prelude::*;
use wet::workloads::Kind;
use wet_core::Wet;
use wet_ir::program::StmtRef;
use wet_ir::stmt::{Operand, StmtKind};
use wet_ir::StmtId;
use wet_serve::json::{self, Value};
use wet_serve::{Server, ServeOptions};

const TARGET: u64 = 6_000;

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("wet-obs-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn build_trace(kind: Kind) -> (Vec<u8>, wet_ir::Program, Vec<StmtId>) {
    let w = wet::workloads::build(kind, TARGET);
    let bl = BallLarus::new(&w.program);
    let mut builder = WetBuilder::new(&w.program, &bl, WetConfig::default());
    Interp::new(&w.program, &bl, InterpConfig::default())
        .run(&w.inputs, &mut builder)
        .unwrap_or_else(|e| panic!("{}: {e}", kind.name()));
    let mut wet = builder.finish();
    wet.compress();
    let mut bytes = Vec::new();
    wet.write_to(&mut bytes).expect("serialize");
    let mut stmts: Vec<StmtId> =
        wet.nodes().iter().flat_map(|n| n.stmts.iter().map(|s| s.id)).collect();
    stmts.sort_unstable();
    stmts.dedup();
    (bytes, w.program, stmts)
}

fn server_from(bytes: &[u8], program: &wet_ir::Program, opts: ServeOptions) -> Server {
    let wet = Wet::read_from(&mut &bytes[..]).expect("cached trace reads");
    Server::new(wet, Some(program.clone()), opts)
}

fn frame(id: u64, pairs: Vec<(&str, Value)>) -> Vec<u8> {
    let mut all: Vec<(&str, Value)> = vec![("id", Value::Int(id as i64))];
    all.extend(pairs);
    json::obj(all).render().into_bytes()
}

/// The `query.*` span the engine records for a pool request: the one
/// `--profile` prints and the slow log carries.
fn engine_span(req: &[(&str, Value)]) -> String {
    let field = |k: &str| req.iter().find(|(f, _)| *f == k).map(|(_, v)| v);
    let base = match field("op").and_then(|v| v.as_str()) {
        Some("cf_trace") if field("dir").and_then(|v| v.as_str()) == Some("backward") => "cf_trace_backward",
        Some("cf_trace") => "cf_trace_forward",
        Some("slice") => "backward_slice",
        Some(op) => op,
        None => panic!("pool request without an op"),
    };
    let partial = field("strict").and_then(|v| v.as_bool()) == Some(false);
    format!("query.{base}{}", if partial { "_partial" } else { "" })
}

/// Load/store statements whose address comes from a register and that
/// run in two or more nodes, so their address traces fan out over the
/// engine's worker pool and read producer values through its caches.
fn register_address_stmts(wet: &Wet, program: &wet_ir::Program) -> Vec<StmtId> {
    let mut stmts: Vec<StmtId> = wet.nodes().iter().flat_map(|n| n.stmts.iter().map(|s| s.id)).collect();
    stmts.sort_unstable();
    stmts.dedup();
    stmts.retain(|&s| {
        let reg_addr = matches!(
            program.stmt_ref(s),
            StmtRef::Stmt(st) if matches!(
                st.kind,
                StmtKind::Load { addr: Operand::Reg(_), .. } | StmtKind::Store { addr: Operand::Reg(_), .. }
            )
        );
        reg_addr && wet.nodes().iter().filter(|n| n.stmt_pos(s).is_some()).count() >= 2
    });
    stmts
}

#[test]
fn tracing_does_not_change_any_response_byte() {
    let d = tmpdir("determinism");
    let (bytes, program, stmts) = build_trace(Kind::Gcc);
    let wet = Wet::read_from(&mut &bytes[..]).expect("trace reads");
    let reg_addr = register_address_stmts(&wet, &program);
    assert!(!reg_addr.is_empty(), "gcc-like has no register-address statement in two nodes");
    let pool: Vec<Vec<(&str, Value)>> = {
        let mut p: Vec<Vec<(&str, Value)>> = vec![
            vec![("op", Value::Str("cf_trace".into()))],
            vec![("op", Value::Str("cf_trace".into())), ("dir", Value::Str("backward".into()))],
        ];
        for &s in stmts.iter().take(3) {
            p.push(vec![("op", Value::Str("value_trace".into())), ("stmt", Value::Int(s.0 as i64))]);
            p.push(vec![
                ("op", Value::Str("address_trace".into())),
                ("stmt", Value::Int(s.0 as i64)),
            ]);
        }
        for &s in reg_addr.iter().take(3) {
            p.push(vec![
                ("op", Value::Str("address_trace".into())),
                ("stmt", Value::Int(s.0 as i64)),
            ]);
        }
        let s = reg_addr[0];
        p.push(vec![
            ("op", Value::Str("address_trace".into())),
            ("stmt", Value::Int(s.0 as i64)),
            ("strict", Value::Bool(false)),
        ]);
        let (last, _) = wet.last();
        let n = wet.node(last);
        p.push(vec![
            ("op", Value::Str("slice".into())),
            ("node", Value::Int(i64::from(last.0))),
            ("stmt", Value::Int(i64::from(n.stmts[0].id.0))),
            ("k", Value::Int(i64::from(n.n_execs - 1))),
        ]);
        p
    };
    let is_reg_addr = |req: &[(&str, Value)]| {
        engine_span(req) == "query.address_trace"
            && req.iter().any(|(f, v)| *f == "stmt" && reg_addr.iter().any(|s| v.as_u64() == Some(u64::from(s.0))))
    };
    let baseline: Vec<Vec<u8>> = {
        let server = server_from(
            &bytes,
            &program,
            ServeOptions { threads: 1, ..ServeOptions::default() },
        );
        pool.iter()
            .map(|req| {
                // Profiling records the same span names the slow log shows.
                let _obs = wet_obs::scoped_enable();
                let got = server.handle_frame(&frame(1, req.clone()));
                let name = engine_span(req);
                assert!(
                    wet_obs::snapshot().spans.iter().any(|s| s.name == name),
                    "--profile lacks {name} for {}",
                    json::obj(req.clone()).render()
                );
                got
            })
            .collect()
    };
    for (req, reply) in pool.iter().zip(&baseline) {
        let text = String::from_utf8_lossy(reply);
        assert!(text.contains("\"ok\":true"), "baseline failed {}: {text}", json::obj(req.clone()).render());
    }
    for threads in [1usize, 2, 4, 8] {
        let server = server_from(
            &bytes,
            &program,
            ServeOptions {
                threads,
                access_log: Some(d.join(format!("access-{threads}.log"))),
                slow_log: Some(d.join(format!("slow-{threads}.log"))),
                slow_ms: Some(0),
                ..ServeOptions::default()
            },
        );
        for (req, expect) in pool.iter().zip(&baseline) {
            let got = server.handle_frame(&frame(1, req.clone()));
            assert_eq!(
                got,
                *expect,
                "tracing changed bytes at {threads} threads for {}",
                json::obj(req.clone()).render()
            );
        }
        // Every request really went through the traced path, and the
        // access and slow lines come in pool order.
        let log = std::fs::read_to_string(d.join(format!("access-{threads}.log"))).unwrap();
        assert_eq!(log.lines().count(), pool.len(), "one access line per request");
        // --slow-ms 0 makes every traced data-plane request slow.
        let slow = std::fs::read_to_string(d.join(format!("slow-{threads}.log"))).unwrap();
        assert_eq!(slow.lines().count(), pool.len(), "one slow line per data-plane request");
        for ((req, access), slow) in pool.iter().zip(log.lines()).zip(slow.lines()) {
            let v = json::parse(slow).expect("slow line parses");
            assert_eq!(v.get("schema").and_then(|s| s.as_str()), Some("wet-slow/1"));
            // Each request's engine phase is on its slow line, under the
            // name --profile prints, with a duration.
            let name = engine_span(req);
            let events = v.get("events").and_then(|e| e.as_arr()).expect("slow line has events");
            let phases: Vec<_> =
                events.iter().filter(|e| e.get("name").and_then(|n| n.as_str()) == Some(name.as_str())).collect();
            assert_eq!(phases.len(), 1, "{name} recorded once on the slow line: {slow}");
            assert!(phases[0].get("dur_us").and_then(|d| d.as_u64()).is_some(), "{name} lacks dur_us: {slow}");
            // Caches on par workers report into the request's capture.
            let a = json::parse(access).expect("access line parses");
            let cache = |k: &str| a.get(k).and_then(|n| n.as_u64()).expect("cache field");
            if threads >= 2 && is_reg_addr(req) {
                assert!(cache("cache_hits") + cache("cache_misses") > 0, "no cache records at {threads} threads: {access}");
            }
        }
    }
    let _ = std::fs::remove_dir_all(&d);
}

#[test]
fn stats_counters_are_live_and_monotonic_under_concurrency() {
    let (bytes, program, _) = build_trace(Kind::Gzip);
    let server = server_from(
        &bytes,
        &program,
        ServeOptions { threads: 2, max_active: 8, queue_watermark: 16, ..ServeOptions::default() },
    );
    const CLIENTS: usize = 4;
    const PER_CLIENT: usize = 200;
    let completed_sum = |resp: &[u8]| -> i64 {
        let v = json::parse(std::str::from_utf8(resp).unwrap()).unwrap();
        let r = v.get("result").expect("stats result");
        ["ok", "shed", "cancelled", "deadline", "panic", "corrupt", "bad_request"]
            .iter()
            .map(|k| r.get(k).and_then(|x| x.as_i64()).unwrap_or(0))
            .sum()
    };
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let server = &server;
        let stop = &stop;
        // The poller: the completed sum must never move backwards.
        let poller = scope.spawn(move || {
            let mut last = 0i64;
            let mut polls = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let resp = server.handle_frame(&frame(999, vec![("op", Value::Str("stats".into()))]));
                let sum = completed_sum(&resp);
                assert!(sum >= last, "completed sum went backwards: {last} -> {sum}");
                last = sum;
                polls += 1;
            }
            polls
        });
        let workers: Vec<_> = (0..CLIENTS)
            .map(|c| {
                scope.spawn(move || {
                    for i in 0..PER_CLIENT {
                        let id = (c * PER_CLIENT + i + 1) as u64;
                        let resp =
                            server.handle_frame(&frame(id, vec![("op", Value::Str("ping".into()))]));
                        assert!(String::from_utf8_lossy(&resp).contains("\"ok\":true"));
                    }
                })
            })
            .collect();
        for w in workers {
            w.join().expect("worker");
        }
        stop.store(true, Ordering::Relaxed);
        assert!(poller.join().expect("poller") > 0, "poller never ran");
    });
    // Final ledger: everything sent is accounted for (the pings, plus
    // the stats polls themselves, which are also completed requests).
    let resp = server.handle_frame(&frame(1000, vec![("op", Value::Str("stats".into()))]));
    assert!(completed_sum(&resp) >= (CLIENTS * PER_CLIENT) as i64);
}

#[test]
fn flight_recorder_dump_contains_the_panicking_request() {
    let d = tmpdir("flight");
    let dump = d.join("flight.json");
    let (bytes, program, _) = build_trace(Kind::Li);
    let server = server_from(
        &bytes,
        &program,
        ServeOptions {
            threads: 1,
            debug_ops: true,
            flight_dump: Some(dump.clone()),
            ..ServeOptions::default()
        },
    );
    // Some normal traffic first, so the dump has context around the
    // panicking request.
    for id in 1..=5u64 {
        server.handle_frame(&frame(id, vec![("op", Value::Str("ping".into()))]));
    }
    let resp = server.handle_frame(&frame(77, vec![("op", Value::Str("debug_panic".into()))]));
    assert!(
        String::from_utf8_lossy(&resp).contains("\"kind\":\"panic\""),
        "debug_panic must answer a typed panic error"
    );
    let body = std::fs::read_to_string(&dump).expect("panic wrote a flight dump");
    let line = body.lines().next().expect("one dump line");
    let v = json::parse(line).expect("dump parses");
    assert_eq!(v.get("schema").and_then(|s| s.as_str()), Some("wet-flight/1"));
    assert_eq!(v.get("trigger").and_then(|s| s.as_str()), Some("panic"));
    let events = v.get("events").and_then(|e| e.as_arr()).expect("events array");
    let of_77: Vec<_> =
        events.iter().filter(|e| e.get("id").and_then(|i| i.as_u64()) == Some(77)).collect();
    assert!(
        of_77.iter().any(|e| e.get("kind").and_then(|k| k.as_str()) == Some("req_start")),
        "dump missing the panicking request's start event"
    );
    assert!(
        of_77.iter().any(|e| e.get("kind").and_then(|k| k.as_str()) == Some("req_panic")),
        "dump missing the panic event"
    );
    // Without --debug-ops the op must not exist.
    let plain = server_from(&bytes, &program, ServeOptions::default());
    let resp = plain.handle_frame(&frame(1, vec![("op", Value::Str("debug_panic".into()))]));
    assert!(String::from_utf8_lossy(&resp).contains("\"kind\":\"bad_request\""));
    let _ = std::fs::remove_dir_all(&d);
}

#[test]
fn scrape_endpoint_answers_metrics_health_and_readiness() {
    wet_obs::enable();
    let (bytes, program, _) = build_trace(Kind::Go);
    let server = server_from(&bytes, &program, ServeOptions::default());
    // A little traffic so /metrics has request counters to show.
    for id in 1..=3u64 {
        server.handle_frame(&frame(id, vec![("op", Value::Str("ping".into()))]));
    }
    let listener = wet_serve::bind_metrics("127.0.0.1:0").expect("bind metrics");
    let addr = listener.local_addr().expect("local addr").to_string();
    let stop = Arc::new(AtomicBool::new(false));
    let handle = wet_serve::spawn_metrics(server.clone(), listener, stop.clone());

    let (status, body) = wet_serve::http_get(&addr, "/healthz").expect("healthz");
    assert_eq!((status, body.as_str()), (200, "ok\n"));
    let (status, body) = wet_serve::http_get(&addr, "/readyz").expect("readyz");
    assert_eq!((status, body.as_str()), (200, "ready\n"));
    let (status, body) = wet_serve::http_get(&addr, "/metrics").expect("metrics");
    assert_eq!(status, 200);
    assert!(body.contains("# TYPE"), "not Prometheus text: {body:?}");
    assert!(body.contains("serve_op_latency_us"), "missing op latency family: {body:?}");
    let (status, _) = wet_serve::http_get(&addr, "/nope").expect("404 path");
    assert_eq!(status, 404);

    server.begin_drain();
    let (status, body) = wet_serve::http_get(&addr, "/readyz").expect("readyz draining");
    assert_eq!((status, body.as_str()), (503, "draining\n"));
    let (status, _) = wet_serve::http_get(&addr, "/healthz").expect("healthz draining");
    assert_eq!(status, 200, "liveness stays green through a drain");

    stop.store(true, Ordering::SeqCst);
    handle.join().expect("metrics thread");
}
