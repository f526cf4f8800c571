//! Resilience proptest for the `wet serve` daemon.
//!
//! Four contracts, over the bundled workloads:
//!
//! 1. **Every request terminates cleanly**: N concurrent clients firing
//!    queries with random deadlines, cancels, and mid-request
//!    disconnects ("kill points") each get either a complete response
//!    or a typed error — never a hang, never a dead server.
//! 2. **Completed responses are byte-deterministic**: the same query
//!    answered by servers running 1, 2, 4, and 8 engine threads yields
//!    identical bytes, and a query that was cancelled or shed leaves no
//!    partial state behind — re-asking on the same server matches a
//!    fresh server byte for byte.
//! 3. **Strict queries share a trace**: strict CF traces and slices
//!    run at once on one trace, from two threads or two clients, and
//!    answer exactly what one caller gets alone.
//! 4. **The server survives the full drill**: the seeded
//!    misbehaving-client schedule (slow-loris, mid-frame cuts, garbage
//!    frames, hostile lengths, deadline storms, cancel races) runs
//!    against a live socket server, after which it still answers.

use proptest::prelude::*;
use std::sync::{Barrier, OnceLock};
use wet::prelude::*;
use wet::workloads::Kind;
use wet_core::fault::FaultRng;
use wet_core::Wet;
use wet_ir::StmtId;
use wet_serve::json::{self, Value};
use wet_serve::{Client, Reply, Server, ServeOptions};

const TARGET: u64 = 8_000;

/// Serialized traces per workload, built once: servers are cheap to
/// restart from bytes, and "fresh server" comparisons need restarts.
type CachedTrace = (Vec<u8>, wet_ir::Program, Vec<StmtId>);

fn trace_bytes(kind: Kind) -> &'static CachedTrace {
    static CACHE: OnceLock<Vec<OnceLock<CachedTrace>>> = OnceLock::new();
    let slots = CACHE.get_or_init(|| (0..Kind::all().len()).map(|_| OnceLock::new()).collect());
    let idx = Kind::all().iter().position(|k| *k == kind).expect("known kind");
    slots[idx].get_or_init(|| {
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
    })
}

fn server_for(kind: Kind, threads: usize) -> Server {
    let (bytes, program, _) = trace_bytes(kind);
    let wet = Wet::read_from(&mut &bytes[..]).expect("cached trace reads");
    Server::new(
        wet,
        Some(program.clone()),
        ServeOptions { threads, max_active: 3, queue_watermark: 4, ..ServeOptions::default() },
    )
}

/// A pool of representative data-plane requests for a workload. The
/// rendered request (sans id) doubles as the determinism key.
fn request_pool(kind: Kind) -> Vec<Vec<(&'static str, Value)>> {
    let (_, _, stmts) = trace_bytes(kind);
    let mut pool: Vec<Vec<(&'static str, Value)>> = vec![
        vec![("op", Value::Str("cf_trace".into()))],
        vec![("op", Value::Str("cf_trace".into())), ("dir", Value::Str("backward".into()))],
        vec![("op", Value::Str("cf_trace".into())), ("strict", Value::Bool(false))],
    ];
    for &s in stmts.iter().take(4) {
        pool.push(vec![("op", Value::Str("value_trace".into())), ("stmt", Value::Int(s.0 as i64))]);
        pool.push(vec![("op", Value::Str("address_trace".into())), ("stmt", Value::Int(s.0 as i64))]);
    }
    pool
}

fn frame_for(id: u64, pairs: &[(&str, Value)]) -> Vec<u8> {
    let mut all: Vec<(&str, Value)> = vec![("id", Value::Int(id as i64))];
    all.extend(pairs.iter().map(|(k, v)| (*k, v.clone())));
    json::obj(all).render().into_bytes()
}

#[test]
fn completed_responses_are_byte_identical_across_thread_counts() {
    for kind in [Kind::Go, Kind::Gcc, Kind::Twolf] {
        let pool = request_pool(kind);
        let baseline: Vec<Vec<u8>> = {
            let server = server_for(kind, 1);
            pool.iter().map(|req| server.handle_frame(&frame_for(1, req))).collect()
        };
        assert!(
            baseline.iter().any(|r| String::from_utf8_lossy(r).contains("\"ok\":true")),
            "{}: baseline answered nothing",
            kind.name()
        );
        for threads in [2usize, 4, 8] {
            let server = server_for(kind, threads);
            for (req, expect) in pool.iter().zip(&baseline) {
                let got = server.handle_frame(&frame_for(1, req));
                assert_eq!(
                    got,
                    *expect,
                    "{}: {} differs between 1 and {threads} threads",
                    kind.name(),
                    json::obj(req.clone()).render()
                );
            }
        }
    }
}

/// Cancelled, shed, and deadline-failed queries must leave no partial
/// state: the next identical query answers byte-identically to a fresh
/// server.
#[test]
fn failed_queries_leave_no_partial_state() {
    let kind = Kind::Gzip;
    let pool = request_pool(kind);
    let server = server_for(kind, 2);
    // Poison attempts: the same queries under an immediate deadline.
    for req in &pool {
        let mut with_deadline = req.clone();
        with_deadline.push(("deadline_ms", Value::Int(0)));
        let resp = server.handle_frame(&frame_for(7, &with_deadline));
        let text = String::from_utf8(resp).expect("utf-8 response");
        assert!(
            text.contains("\"ok\":true") || text.contains("\"kind\":\"deadline\""),
            "unexpected outcome: {text}"
        );
    }
    // The very same server must now agree with a never-poisoned one.
    let fresh = server_for(kind, 2);
    for req in &pool {
        let frame = frame_for(9, req);
        assert_eq!(
            server.handle_frame(&frame),
            fresh.handle_frame(&frame),
            "state leaked into {}",
            json::obj(req.clone()).render()
        );
    }
}

/// `strict:false` asks every trace op for the salvage answer. Over a
/// container whose value section was lost, an address trace that
/// strictly answers `corrupt` instead answers `quality: degraded`,
/// reporting the nodes whose producer values are gone.
#[test]
fn degraded_address_trace_answers_around_lost_values() {
    let kind = Kind::Gzip;
    let (bytes, program, stmts) = trace_bytes(kind);
    let vals = *wet_core::section_spans(bytes)
        .expect("spans")
        .iter()
        .find(|s| &s.tag == b"VALS")
        .expect("VALS span");
    let mut damaged = bytes.clone();
    damaged[vals.payload_start + vals.payload_len / 2] ^= 0x10;
    let (wet, report) = Wet::read_salvaging(&mut &damaged[..]).expect("salvageable");
    assert!(report.seqs_lost > 0, "VALS damage loses sequences");
    let server = Server::new(wet, Some(program.clone()), ServeOptions::default());
    let mut degraded_seen = 0;
    for (i, &s) in stmts.iter().enumerate() {
        let req = vec![("op", Value::Str("address_trace".into())), ("stmt", Value::Int(s.0 as i64))];
        let strict = String::from_utf8(server.handle_frame(&frame_for(i as u64, &req))).expect("utf-8");
        let mut partial_req = req.clone();
        partial_req.push(("strict", Value::Bool(false)));
        let partial = server.handle_frame(&frame_for(i as u64, &partial_req));
        let v = json::parse(std::str::from_utf8(&partial).expect("utf-8")).expect("reply parses");
        let result =
            v.get("result").unwrap_or_else(|| panic!("s{}: partial answer failed: {}", s.0, v.render()));
        if !strict.contains("\"kind\":\"corrupt\"") {
            continue;
        }
        assert_eq!(result.get("quality").and_then(|q| q.as_str()), Some("degraded"), "s{}", s.0);
        let skipped = result.get("degraded").and_then(|d| d.get("nodes_skipped")).and_then(|n| n.as_i64());
        assert!(skipped.is_some_and(|n| n > 0), "s{}: no skipped nodes reported", s.0);
        degraded_seen += 1;
    }
    assert!(degraded_seen > 0, "no address trace reached the lost values");
}

/// A few backward-slice criteria spread over a trace: the last
/// statement of each of the first executed nodes, mid-run.
fn slice_criteria(wet: &Wet) -> Vec<query::WetSliceElem> {
    wet.nodes()
        .iter()
        .enumerate()
        .filter(|(_, n)| n.n_execs > 0 && !n.stmts.is_empty())
        .take(4)
        .map(|(i, n)| query::WetSliceElem {
            node: wet_core::NodeId(i as u32),
            stmt: n.stmts[n.stmts.len() - 1].id,
            k: n.n_execs / 2,
        })
        .collect()
}

#[derive(Debug, PartialEq)]
enum Answer {
    Steps(Vec<query::CfStep>),
    Slice(std::collections::BTreeSet<(StmtId, u64)>),
}

/// Strict CF walks and slices from two threads over one shared `&Wet`
/// (each query reads through its own cursor) answer exactly what one
/// thread answers alone, whatever order the two run them in.
#[test]
fn strict_queries_share_one_trace_across_threads() {
    let (bytes, program, _) = trace_bytes(Kind::Go);
    let wet = Wet::read_from(&mut &bytes[..]).expect("cached trace reads");
    let criteria = slice_criteria(&wet);
    let run = |i: usize| match i {
        0 => Answer::Steps(query::cf_trace_forward(&wet).expect("forward")),
        1 => Answer::Steps(query::cf_trace_backward(&wet).expect("backward")),
        i => Answer::Slice(
            query::backward_slice(&wet, program, criteria[i - 2], Default::default()).expect("slice").stamped,
        ),
    };
    let n = criteria.len() + 2;
    let sequential: Vec<Answer> = (0..n).map(run).collect();
    let start = Barrier::new(2);
    let (ahead, behind) = std::thread::scope(|scope| {
        let ahead = scope.spawn(|| {
            start.wait();
            (0..n).map(|i| (i, run(i))).collect::<Vec<_>>()
        });
        let behind = scope.spawn(|| {
            start.wait();
            (0..n).rev().map(|i| (i, run(i))).collect::<Vec<_>>()
        });
        (ahead.join().expect("first thread"), behind.join().expect("second thread"))
    });
    for (i, got) in ahead.into_iter().chain(behind) {
        assert_eq!(got, sequential[i], "query {i} differs under concurrency");
    }
}

/// Sends the requests in `order` one at a time over one connection and
/// returns each raw reply frame with its request index.
fn raw_replies(addr: &str, requests: &[Vec<u8>], order: impl Iterator<Item = usize>) -> Vec<(usize, Vec<u8>)> {
    let mut stream = wet_serve::connect(addr).expect("connect");
    let mut reader = wet_serve::proto::FrameReader::new();
    order
        .map(|i| {
            wet_serve::proto::write_frame(&mut stream, &requests[i]).expect("send");
            loop {
                match reader.poll(&mut stream).expect("read") {
                    wet_serve::proto::Poll::Frame(reply) => break (i, reply),
                    wet_serve::proto::Poll::Pending => continue,
                    other => panic!("connection ended: {other:?}"),
                }
            }
        })
        .collect()
}

/// Two clients asking one served trace for strict CF traces and slices
/// at the same time (both admitted: `max_active` 2) get byte for byte
/// the replies one client gets alone.
#[test]
fn concurrent_strict_clients_get_the_single_client_bytes() {
    let kind = Kind::Go;
    let (bytes, program, _) = trace_bytes(kind);
    let wet = Wet::read_from(&mut &bytes[..]).expect("cached trace reads");
    let mut requests: Vec<Vec<(&str, Value)>> = vec![
        vec![("op", Value::Str("cf_trace".into()))],
        vec![("op", Value::Str("cf_trace".into())), ("dir", Value::Str("backward".into()))],
    ];
    for c in slice_criteria(&wet) {
        requests.push(vec![
            ("op", Value::Str("slice".into())),
            ("node", Value::Int(i64::from(c.node.0))),
            ("stmt", Value::Int(i64::from(c.stmt.0))),
            ("k", Value::Int(i64::from(c.k))),
        ]);
    }
    // In-flight ids are unique per server: each request of each client
    // has its own.
    let frames = |base: u64| requests.iter().zip(base..).map(|(r, id)| frame_for(id, r)).collect::<Vec<_>>();
    let (frames_a, frames_b) = (frames(1000), frames(2000));
    let server = Server::new(
        wet,
        Some(program.clone()),
        ServeOptions { threads: 2, max_active: 2, ..ServeOptions::default() },
    );
    let path = sock_path("strict-pair");
    let _ = std::fs::remove_file(&path);
    let listener = wet_serve::bind(path.to_str().expect("utf-8 path")).expect("bind");
    let srv = server.clone();
    let accept = std::thread::spawn(move || srv.serve(listener));
    let addr = path.to_str().expect("utf-8 path");

    let n = requests.len();
    let alone_a = raw_replies(addr, &frames_a, 0..n);
    let alone_b = raw_replies(addr, &frames_b, 0..n);
    for (i, reply) in &alone_a {
        let text = String::from_utf8_lossy(reply);
        assert!(text.contains("\"ok\":true"), "request {i} failed alone: {text}");
    }
    let start = Barrier::new(2);
    let (ahead, behind) = std::thread::scope(|scope| {
        let ahead = scope.spawn(|| {
            start.wait();
            raw_replies(addr, &frames_a, 0..n)
        });
        let behind = scope.spawn(|| {
            start.wait();
            raw_replies(addr, &frames_b, (0..n).rev())
        });
        (ahead.join().expect("first client"), behind.join().expect("second client"))
    });
    for (got, alone) in [(ahead, &alone_a), (behind, &alone_b)] {
        for (i, reply) in got {
            assert!(reply == alone[i].1, "request {i}: concurrent reply differs from the single-client one");
        }
    }
    server.begin_drain();
    accept.join().expect("accept thread").expect("serve loop");
    let _ = std::fs::remove_file(&path);
}

/// A client that reuses one request id as soon as its reply arrives is
/// never told the id is still in flight: the server frees the id
/// before it writes the reply.
#[test]
fn reused_id_is_free_once_its_reply_arrives() {
    let server = server_for(Kind::Li, 2);
    let path = sock_path("same-id");
    let _ = std::fs::remove_file(&path);
    let listener = wet_serve::bind(path.to_str().expect("utf-8 path")).expect("bind");
    let srv = server.clone();
    let accept = std::thread::spawn(move || srv.serve(listener));
    let ping = [frame_for(7, &[("op", Value::Str("ping".into()))])];
    let replies = raw_replies(path.to_str().expect("utf-8 path"), &ping, std::iter::repeat_n(0, 200));
    assert_eq!(replies.len(), 200);
    for (n, (_, reply)) in replies.iter().enumerate() {
        let text = String::from_utf8_lossy(reply);
        assert!(text.contains("\"ok\":true"), "request {n} with reused id 7 failed: {text}");
    }
    server.begin_drain();
    accept.join().expect("accept thread").expect("serve loop");
    let _ = std::fs::remove_file(&path);
}

/// One client's random session against a live socket server: every
/// reply is complete or a clean typed error.
fn run_session(addr: &str, kind: Kind, seed: u64) -> Result<(), String> {
    let pool = request_pool(kind);
    let mut rng = FaultRng::new(seed);
    let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let n_reqs = 1 + rng.below(4);
    for _ in 0..n_reqs {
        let req = &pool[rng.below(pool.len() as u64) as usize];
        let mut pairs: Vec<(&str, Value)> = req.clone();
        match rng.below(4) {
            0 => pairs.push(("deadline_ms", Value::Int(rng.below(3) as i64))),
            1 => pairs.push(("deadline_ms", Value::Int(50))),
            _ => {}
        }
        match rng.below(5) {
            // Kill point: send the request, then vanish mid-session.
            0 => {
                client.send(pairs).map_err(|e| format!("send: {e}"))?;
                return Ok(());
            }
            // Cancel race.
            1 => {
                let id = client.send(pairs).map_err(|e| format!("send: {e}"))?;
                client.cancel(id).map_err(|e| format!("cancel: {e}"))?;
                match client.wait(id) {
                    Ok(_) => {}
                    Err(e) => return Err(format!("wait after cancel: {e}")),
                }
            }
            _ => {
                let reply =
                    client.call_with_retries(pairs, 2).map_err(|e| format!("call: {e}"))?;
                if let Reply::Err { kind: k, message, .. } = &reply {
                    let typed =
                        ["deadline", "cancelled", "shed", "corrupt", "bad_request", "unavailable", "panic"];
                    if !typed.contains(&k.as_str()) {
                        return Err(format!("untyped error kind `{k}`: {message}"));
                    }
                }
            }
        }
    }
    Ok(())
}

fn sock_path(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("wet-rsl-{}-{tag}.sock", std::process::id()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(9))]

    /// N concurrent clients with random cancel/deadline/kill points,
    /// across all nine workloads: the server answers everything it owes
    /// and survives everything else.
    #[test]
    fn concurrent_clients_always_get_an_answer_or_a_typed_error(
        kind_idx in 0usize..9,
        seed in any::<u64>(),
        n_clients in 2usize..6,
    ) {
        let kind = Kind::all()[kind_idx];
        let server = server_for(kind, 2);
        let path = sock_path(&format!("p{kind_idx}-{}", seed % 1000));
        let _ = std::fs::remove_file(&path);
        let listener = wet_serve::bind(path.to_str().expect("utf-8 path")).expect("bind");
        let srv = server.clone();
        let accept = std::thread::spawn(move || srv.serve(listener));

        let errors: Vec<String> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..n_clients)
                .map(|c| {
                    let addr = path.to_str().expect("utf-8 path").to_string();
                    scope.spawn(move || run_session(&addr, kind, seed ^ (c as u64) << 32))
                })
                .collect();
            handles
                .into_iter()
                .filter_map(|h| h.join().expect("client thread").err())
                .collect()
        });
        prop_assert!(errors.is_empty(), "client sessions failed: {errors:?}");

        // The server still answers, then drains cleanly.
        let mut probe = Client::connect(path.to_str().expect("utf-8 path")).expect("reconnect");
        let reply = probe.call(vec![("op", Value::Str("ping".into()))]).expect("ping");
        prop_assert!(reply.is_ok(), "server unhealthy after sessions: {reply:?}");
        server.begin_drain();
        accept.join().expect("accept thread").expect("serve loop");
        let _ = std::fs::remove_file(&path);
    }
}

#[test]
fn server_survives_the_full_drill() {
    let server = server_for(Kind::Mcf, 2);
    let path = sock_path("drill");
    let _ = std::fs::remove_file(&path);
    let listener = wet_serve::bind(path.to_str().expect("utf-8 path")).expect("bind");
    let srv = server.clone();
    let accept = std::thread::spawn(move || srv.serve(listener));

    let report = wet_serve::run_drill(path.to_str().expect("utf-8 path"), 0xD1211, 24);
    assert!(report.survived, "server died under drill: {report:?}");
    assert!(report.terminated() > 0, "drill never completed a request: {report:?}");

    server.begin_drain();
    accept.join().expect("accept thread").expect("serve loop");
    let _ = std::fs::remove_file(&path);
}
