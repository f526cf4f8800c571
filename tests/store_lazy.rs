//! Lazy trace store contracts, over all nine bundled workloads:
//!
//! 1. **Store-served queries are byte-identical to eager ones**: a
//!    server that opened its trace lazily through the multi-tenant
//!    store (CONF+BIND decoded, data sections mmap/pread-backed until
//!    first touch) answers every query with exactly the bytes an eager
//!    `Wet::read` server produces, across engine thread counts
//!    {1, 2, 4, 8} — the byte-determinism invariant extends to the
//!    store path.
//! 2. **Damage stays typed**: a CRC-flipped lazy section opens fine
//!    (the damage is not in CONF/BIND) and surfaces a typed `corrupt`
//!    error on first touch — never a panic, never a dead server — while
//!    undamaged sections keep serving.
//! 3. **The traversal guard holds**: `open` paths that escape the store
//!    root are rejected with a typed, non-retriable `forbidden` error
//!    before any admission or I/O.
//! 4. **The budget holds**: four traces answering queries under a small
//!    `--store-budget` never exceed it (LRU section eviction), and the
//!    evicted sections refill transparently with identical answers.

use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::OnceLock;
use wet::prelude::*;
use wet::workloads::Kind;
use wet_ir::StmtId;
use wet_serve::json::{self, Value};
use wet_serve::{PressureOptions, Server, ServeOptions};

const TARGET: u64 = 6_000;

/// Serialized traces per workload, built once.
type CachedTrace = (Vec<u8>, Vec<StmtId>);

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
        (bytes, stmts)
    })
}

/// A store root holding every workload's trace as `<name>.wetz`.
fn store_root() -> &'static PathBuf {
    static ROOT: OnceLock<PathBuf> = OnceLock::new();
    ROOT.get_or_init(|| {
        let dir = std::env::temp_dir().join(format!("wet-store-lazy-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("store root");
        for kind in Kind::all() {
            let (bytes, _) = trace_bytes(kind);
            std::fs::write(dir.join(format!("{}.wetz", kind.name())), bytes).expect("write trace");
        }
        dir
    })
}

fn frame_for(id: u64, pairs: &[(&str, Value)]) -> Vec<u8> {
    let mut all: Vec<(&str, Value)> = vec![("id", Value::Int(id as i64))];
    all.extend(pairs.iter().map(|(k, v)| (*k, v.clone())));
    json::obj(all).render().into_bytes()
}

/// An eager single-trace server (the reference).
fn eager_server(kind: Kind, threads: usize) -> Server {
    let (bytes, _) = trace_bytes(kind);
    let wet = Wet::read_from(&mut &bytes[..]).expect("cached trace reads");
    Server::new(wet, None, ServeOptions { threads, ..ServeOptions::default() })
}

/// A store server with `kind`'s trace lazily opened as id `t`.
fn store_server(kind: Kind, threads: usize, budget: u64) -> Server {
    let server = Server::with_store(ServeOptions {
        threads,
        store_root: Some(store_root().clone()),
        store_budget: budget,
        ..ServeOptions::default()
    });
    let resp = server.handle_frame(&frame_for(
        900,
        &[
            ("op", Value::Str("open".into())),
            ("path", Value::Str(format!("{}.wetz", kind.name()))),
            ("trace", Value::Str("t".into())),
        ],
    ));
    let text = String::from_utf8_lossy(&resp);
    assert!(text.contains("\"ok\":true"), "{}: open failed: {text}", kind.name());
    server
}

/// Representative data-plane requests. The store variant adds the
/// `trace` route; both render to the same response bytes for the same
/// request id.
fn request_pool(kind: Kind) -> Vec<Vec<(&'static str, Value)>> {
    let (_, stmts) = trace_bytes(kind);
    let mut pool: Vec<Vec<(&'static str, Value)>> = vec![
        vec![("op", Value::Str("cf_trace".into()))],
        vec![("op", Value::Str("cf_trace".into())), ("dir", Value::Str("backward".into()))],
        vec![("op", Value::Str("cf_trace".into())), ("strict", Value::Bool(false))],
    ];
    for &s in stmts.iter().take(3) {
        pool.push(vec![("op", Value::Str("value_trace".into())), ("stmt", Value::Int(s.0 as i64))]);
        pool.push(vec![
            ("op", Value::Str("value_trace".into())),
            ("stmt", Value::Int(s.0 as i64)),
            ("strict", Value::Bool(false)),
        ]);
    }
    pool
}

fn with_trace(req: &[(&'static str, Value)]) -> Vec<(&'static str, Value)> {
    let mut r = req.to_vec();
    r.push(("trace", Value::Str("t".into())));
    r
}

#[test]
fn store_served_queries_match_eager_across_workloads_and_threads() {
    for kind in Kind::all() {
        let pool = request_pool(kind);
        let baseline: Vec<Vec<u8>> = {
            let server = eager_server(kind, 1);
            pool.iter().map(|req| server.handle_frame(&frame_for(1, req))).collect()
        };
        assert!(
            baseline.iter().any(|r| String::from_utf8_lossy(r).contains("\"ok\":true")),
            "{}: baseline answered nothing",
            kind.name()
        );
        for threads in [1usize, 2, 4, 8] {
            let server = store_server(kind, threads, 0);
            for (req, expect) in pool.iter().zip(&baseline) {
                let got = server.handle_frame(&frame_for(1, &with_trace(req)));
                assert_eq!(
                    got,
                    *expect,
                    "{}: {} differs store({threads} threads) vs eager",
                    kind.name(),
                    json::obj(req.clone()).render()
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random (workload, threads, query) triples agree between the
    /// store path and the eager path — same contract as the exhaustive
    /// sweep, sampled across the full product space with varied
    /// request ids.
    #[test]
    fn store_matches_eager_on_random_queries(
        kind_idx in 0usize..9,
        threads_idx in 0usize..4,
        req_idx in 0usize..9,
        id in 1u64..1000,
    ) {
        let kind = Kind::all()[kind_idx];
        let threads = [1usize, 2, 4, 8][threads_idx];
        let pool = request_pool(kind);
        let req = &pool[req_idx % pool.len()];
        let expect = eager_server(kind, 1).handle_frame(&frame_for(id, req));
        let got = store_server(kind, threads, 0).handle_frame(&frame_for(id, &with_trace(req)));
        prop_assert_eq!(got, expect);
    }
}

#[test]
fn crc_bad_lazy_section_quarantines_then_serves_degraded_never_a_panic() {
    let kind = Kind::Gzip;
    let (bytes, stmts) = trace_bytes(kind);
    let mut damaged = bytes.clone();
    let spans = wet_core::section_spans(&damaged).expect("spans");
    let vals = spans.iter().find(|s| &s.tag == b"VALS").expect("VALS span");
    damaged[vals.payload_start + 3] ^= 0x10;
    let root = store_root();
    std::fs::write(root.join("crc-bad.wetz"), &damaged).expect("write damaged");

    let server = Server::with_store(ServeOptions {
        store_root: Some(root.clone()),
        ..ServeOptions::default()
    });
    // Open succeeds: CONF+BIND verify; the damage sits in a lazy section.
    let resp = server.handle_frame(&frame_for(
        1,
        &[
            ("op", Value::Str("open".into())),
            ("path", Value::Str("crc-bad.wetz".into())),
            ("trace", Value::Str("bad".into())),
        ],
    ));
    assert!(String::from_utf8_lossy(&resp).contains("\"ok\":true"), "open must succeed");

    // First touch of VALS: a *serving* store quarantines the trace and
    // answers the typed retriable `repairing` error — not a panic, and
    // not the embedded store's sticky corrupt verdict.
    let stmt = stmts[0].0 as i64;
    let req = vec![
        ("op", Value::Str("value_trace".into())),
        ("stmt", Value::Int(stmt)),
        ("trace", Value::Str("bad".into())),
    ];
    let text = String::from_utf8(server.handle_frame(&frame_for(2, &req))).expect("utf-8");
    assert!(text.contains("\"kind\":\"repairing\""), "expected repairing, got: {text}");
    assert!(text.contains("\"retriable\":true"), "repairing must be retriable: {text}");

    // The file on disk never heals, so the repair worker's final
    // attempt installs the salvage as a degraded resident copy and
    // re-admits the trace rather than refusing forever.
    use wet_core::store::TraceHealth;
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    loop {
        match server.store().health("bad") {
            TraceHealth::Ok => break,
            TraceHealth::Failed => panic!("circuit breaker tripped on a salvageable container"),
            h if std::time::Instant::now() >= deadline => panic!("repair never settled: {h:?}"),
            _ => std::thread::sleep(std::time::Duration::from_millis(20)),
        }
    }

    // Strict value queries on the degraded copy surface the damage as
    // sticky typed corrupt on every touch...
    let text = String::from_utf8(server.handle_frame(&frame_for(3, &req))).expect("utf-8");
    assert!(text.contains("\"kind\":\"corrupt\""), "degraded VALS must stay typed: {text}");
    let text = String::from_utf8(server.handle_frame(&frame_for(4, &req))).expect("utf-8");
    assert!(text.contains("\"kind\":\"corrupt\""), "second touch: {text}");

    // ...the undamaged TSEQ section still serves strict queries...
    let cf = vec![("op", Value::Str("cf_trace".into())), ("trace", Value::Str("bad".into()))];
    let text = String::from_utf8(server.handle_frame(&frame_for(5, &cf))).expect("utf-8");
    assert!(text.contains("\"ok\":true"), "cf_trace must survive VALS damage: {text}");
    // ...and the server itself is alive and well.
    let ping = server.handle_frame(&frame_for(6, &[("op", Value::Str("ping".into()))]));
    assert!(String::from_utf8_lossy(&ping).contains("pong"));
}

#[test]
fn open_outside_store_root_is_typed_forbidden() {
    let server = Server::with_store(ServeOptions {
        store_root: Some(store_root().clone()),
        ..ServeOptions::default()
    });
    for bad in ["../escape.wetz", "a/../../b.wetz", "/etc/passwd", ""] {
        let resp = server.handle_frame(&frame_for(
            1,
            &[("op", Value::Str("open".into())), ("path", Value::Str(bad.into()))],
        ));
        let text = String::from_utf8(resp).expect("utf-8");
        assert!(
            text.contains("\"kind\":\"forbidden\"") && text.contains("\"retriable\":false"),
            "path `{bad}`: {text}"
        );
    }
    // Without a configured root, open is off entirely.
    let closed = Server::with_store(ServeOptions::default());
    let resp = closed.handle_frame(&frame_for(
        1,
        &[("op", Value::Str("open".into())), ("path", Value::Str("x.wetz".into()))],
    ));
    assert!(String::from_utf8_lossy(&resp).contains("\"kind\":\"forbidden\""));
}

/// Four traces answering queries under a budget sized for roughly one:
/// resident lazy bytes never exceed the budget, evictions happen, and
/// every response still matches the eager reference byte for byte.
#[test]
fn budget_holds_with_four_open_traces() {
    let kinds = [Kind::Go, Kind::Gzip, Kind::Mcf, Kind::Twolf];
    // Budget: 1.5× the largest single trace's TSEQ+VALS bytes — the
    // sections this query mix touches — so serving all four forces
    // eviction.
    let budget = kinds
        .iter()
        .map(|&k| {
            let (bytes, _) = trace_bytes(k);
            wet_core::section_spans(bytes)
                .expect("spans")
                .iter()
                .filter(|s| [*b"TSEQ", *b"VALS"].contains(&s.tag))
                .map(|s| s.payload_len as u64)
                .sum::<u64>()
        })
        .max()
        .unwrap()
        * 3
        / 2;
    let server = Server::with_store(ServeOptions {
        store_root: Some(store_root().clone()),
        store_budget: budget,
        ..ServeOptions::default()
    });
    for kind in kinds {
        let resp = server.handle_frame(&frame_for(
            1,
            &[
                ("op", Value::Str("open".into())),
                ("path", Value::Str(format!("{}.wetz", kind.name()))),
                ("trace", Value::Str(kind.name().into())),
            ],
        ));
        assert!(String::from_utf8_lossy(&resp).contains("\"ok\":true"));
    }
    assert_eq!(server.store().len(), 4);

    for round in 0..2 {
        for kind in kinds {
            let baseline = eager_server(kind, 1);
            for (i, req) in request_pool(kind).iter().enumerate() {
                let mut routed = req.clone();
                routed.push(("trace", Value::Str(kind.name().into())));
                let got = server.handle_frame(&frame_for(i as u64 + 10, &routed));
                let expect = baseline.handle_frame(&frame_for(i as u64 + 10, req));
                assert_eq!(got, expect, "round {round}, {}: answers diverge under eviction", kind.name());
                assert!(
                    server.store().resident_bytes() <= budget,
                    "round {round}: resident {} > budget {budget}",
                    server.store().resident_bytes()
                );
            }
        }
    }
    assert!(server.store().evictions() > 0, "a one-trace budget over four traces must evict");

    // close returns bytes to the ledger; the id really is gone.
    let resp = server.handle_frame(&frame_for(
        99,
        &[("op", Value::Str("close".into())), ("trace", Value::Str(kinds[0].name().into()))],
    ));
    assert!(String::from_utf8_lossy(&resp).contains("\"ok\":true"));
    let resp = server.handle_frame(&frame_for(
        100,
        &[
            ("op", Value::Str("cf_trace".into())),
            ("trace", Value::Str(kinds[0].name().into())),
        ],
    ));
    assert!(String::from_utf8_lossy(&resp).contains("\"kind\":\"not_found\""));
}

/// `list` reports every open trace sorted by id with residency detail;
/// tenants propagate from `open`.
#[test]
fn list_reports_open_traces_with_residency() {
    let server = Server::with_store(ServeOptions {
        store_root: Some(store_root().clone()),
        ..ServeOptions::default()
    });
    for (kind, tenant) in [(Kind::Go, "alice"), (Kind::Li, "bob")] {
        let resp = server.handle_frame(&frame_for(
            1,
            &[
                ("op", Value::Str("open".into())),
                ("path", Value::Str(format!("{}.wetz", kind.name()))),
                ("trace", Value::Str(kind.name().into())),
                ("tenant", Value::Str(tenant.into())),
            ],
        ));
        assert!(String::from_utf8_lossy(&resp).contains("\"ok\":true"));
    }
    let text = String::from_utf8(server.handle_frame(&frame_for(2, &[("op", Value::Str("list".into()))])))
        .expect("utf-8");
    assert!(text.contains("\"trace\":\"go-like\"") && text.contains("\"trace\":\"li-like\""), "{text}");
    assert!(text.contains("\"tenant\":\"alice\"") && text.contains("\"tenant\":\"bob\""), "{text}");
    assert!(text.contains("\"lazy\":true"), "{text}");
    // Nothing queried yet: no lazy section is resident.
    assert!(!text.contains("\"resident\":[true"), "{text}");
}

/// Address traces on a lazily opened trace read the edge-label pools
/// whenever a load/store's address producer sits behind a labelled
/// edge, so the store must make `EDGL` resident for those statements.
/// Every load/store of a li-like trace, served from a store under a
/// budget, answers exactly what the in-memory WET answers.
#[test]
fn lazy_address_traces_match_in_memory_for_every_memory_stmt() {
    let kind = Kind::Li;
    let (bytes, _) = trace_bytes(kind);
    let program = wet::workloads::build(kind, TARGET).program;
    let eager = Server::new(
        Wet::read_from(&mut &bytes[..]).expect("cached trace reads"),
        Some(program.clone()),
        ServeOptions::default(),
    );
    // About half the container: sections evict and refill between
    // statements that need the label pools and statements that don't.
    let budget = bytes.len() as u64 / 2;
    let store = Server::with_store(ServeOptions {
        store_budget: budget,
        // No brownout: a store filled to its budget is the steady state
        // here, not overload, and every answer must be whole.
        pressure: PressureOptions { brownout_budget_bytes: 0, ..PressureOptions::default() },
        ..ServeOptions::default()
    });
    store
        .store()
        .open("t", "", &store_root().join(format!("{}.wetz", kind.name())), Some(program.clone()))
        .expect("lazy open");
    let mem_stmts: Vec<StmtId> = (0..program.stmt_count() as u32)
        .map(StmtId)
        .filter(|&s| {
            matches!(
                program.stmt_ref(s),
                wet_ir::program::StmtRef::Stmt(st)
                    if matches!(st.kind, wet_ir::stmt::StmtKind::Load { .. } | wet_ir::stmt::StmtKind::Store { .. })
            )
        })
        .collect();
    assert!(!mem_stmts.is_empty(), "li-like has loads and stores");
    for (i, s) in mem_stmts.into_iter().enumerate() {
        let req = vec![("op", Value::Str("address_trace".into())), ("stmt", Value::Int(s.0 as i64))];
        let expect = eager.handle_frame(&frame_for(i as u64, &req));
        assert!(String::from_utf8_lossy(&expect).contains("\"ok\":true"), "eager s{}", s.0);
        let got = store.handle_frame(&frame_for(i as u64, &with_trace(&req)));
        assert_eq!(
            String::from_utf8_lossy(&got),
            String::from_utf8_lossy(&expect),
            "s{}: lazily served address trace differs",
            s.0
        );
    }
}
