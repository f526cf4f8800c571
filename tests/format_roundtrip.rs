//! Container round-trip properties.
//!
//! Every bundled workload, at both tiers and several thread counts,
//! must survive serialization: reading a `.wetz` v2 image back and
//! re-serializing it reproduces the bytes exactly, and the reloaded
//! WET answers queries identically to the in-memory original. The
//! legacy v1 format must round-trip through the compatibility path
//! into the same v2 image, and the checked-in v1 fixtures (written by
//! the pre-v2 serializer) must still load with their recorded stats.

use proptest::prelude::*;
use wet_core::{query, Wet, WetBuilder, WetConfig};
use wet_interp::{Interp, InterpConfig};
use wet_ir::ballarus::BallLarus;
use wet_ir::StmtId;
use wet_workloads::Kind;

fn build(kind: Kind, target: u64, tier2: bool, threads: usize) -> (wet_ir::Program, Wet) {
    let w = wet_workloads::build(kind, target);
    let bl = BallLarus::new(&w.program);
    let mut config = WetConfig::default();
    config.stream.num_threads = threads;
    let mut builder = WetBuilder::new(&w.program, &bl, config);
    Interp::new(&w.program, &bl, InterpConfig::default())
        .run(&w.inputs, &mut builder)
        .unwrap_or_else(|e| panic!("{} failed: {e}", kind.name()));
    let mut wet = builder.finish();
    if tier2 {
        wet.compress();
    }
    (w.program, wet)
}

fn v2_bytes(wet: &Wet) -> Vec<u8> {
    let mut out = Vec::new();
    wet.write_to(&mut out).expect("v2 serialize");
    out
}

/// Strict-reads `bytes` and checks it re-serializes byte-identically
/// and answers queries exactly like `original`.
fn check_reload(original: &Wet, bytes: &[u8], ctx: &str) {
    let reread = Wet::read_from(&mut &bytes[..]).unwrap_or_else(|e| panic!("{ctx}: read: {e}"));
    assert_eq!(&v2_bytes(&reread), bytes, "{ctx}: re-serialization is not byte-identical");
    assert_eq!(reread.stats(), original.stats(), "{ctx}: stats differ");
    assert_eq!(reread.is_tier2(), original.is_tier2(), "{ctx}: tier differs");
    assert_eq!(
        query::cf_trace_forward(&reread).unwrap(),
        query::cf_trace_forward(original).unwrap(),
        "{ctx}: CF trace differs"
    );
    for sid in 0..16 {
        let stmt = StmtId(sid);
        assert_eq!(
            query::value_trace(&reread, stmt, 1).unwrap(),
            query::value_trace(original, stmt, 1).unwrap(),
            "{ctx}: value trace of {stmt} differs"
        );
    }
}

#[test]
fn v2_and_v1_roundtrip_all_workloads_both_tiers() {
    for kind in Kind::all() {
        for tier2 in [false, true] {
            for threads in [1usize, 4] {
                let ctx = format!("{} tier2={tier2} threads={threads}", kind.name());
                let (_p, wet) = build(kind, 5_000, tier2, threads);
                let v2 = v2_bytes(&wet);
                let mut v1 = Vec::new();
                wet.write_to_v1(&mut v1).expect("v1 serialize");

                // v1 → v2: the legacy writer + compatibility reader
                // land on the same WET, hence the same v2 image.
                let from_v1 = Wet::read_from(&mut &v1[..])
                    .unwrap_or_else(|e| panic!("{ctx}: v1 read: {e}"));
                assert_eq!(v2_bytes(&from_v1), v2, "{ctx}: v1 round-trip changes the v2 image");

                check_reload(&wet, &v2, &ctx);
            }
        }
    }
}

/// Runs one of every strict walk, slice, dump and mining query.
fn run_queries(wet: &Wet, program: &wet_ir::Program) {
    let fwd = query::cf_trace_forward(wet).unwrap();
    query::cf_trace_backward(wet).unwrap();
    let mid = fwd[fwd.len() / 2];
    assert_eq!(query::locate_ts(wet, mid.ts), Some(mid));
    query::cf_trace_from(wet, mid.ts, 50, false).unwrap();
    let node = wet.node(mid.node);
    let criterion = query::WetSliceElem { node: mid.node, stmt: node.stmts[node.stmts.len() - 1].id, k: mid.k };
    query::backward_slice(wet, program, criterion, Default::default()).unwrap();
    let (first, _) = wet.first();
    let start = query::WetSliceElem { node: first, stmt: wet.node(first).stmts[0].id, k: 0 };
    query::forward_slice(wet, program, start, Default::default()).unwrap();
    wet_core::dump::dump_node(wet, program, mid.node, 8);
    for s in &node.stmts {
        query::mine::value_locality(wet, s.id);
    }
}

/// The stored streams never move: a WET writes the same bytes before
/// and after any queries, and a file read back, queried and written
/// again gives the file's own bytes.
#[test]
fn queries_leave_container_bytes_unchanged() {
    for kind in Kind::all() {
        let (program, wet) = build(kind, 3_000, true, 1);
        let before = v2_bytes(&wet);
        run_queries(&wet, &program);
        assert!(v2_bytes(&wet) == before, "{}: queries changed the written bytes", kind.name());
        let reread = Wet::read_from(&mut &before[..]).unwrap();
        run_queries(&reread, &program);
        assert!(v2_bytes(&reread) == before, "{}: queries on a read file changed its bytes", kind.name());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Random (workload, tier, threads, length): strict reload is
    /// byte- and query-identical, through both container versions.
    #[test]
    fn reload_is_identity(
        kind_i in 0usize..9,
        tier2 in any::<bool>(),
        threads in prop_oneof![Just(1usize), Just(4usize)],
        target in 1_000u64..10_000,
    ) {
        let kind = Kind::all()[kind_i];
        let ctx = format!("{} tier2={tier2} threads={threads} target={target}", kind.name());
        let (_p, wet) = build(kind, target, tier2, threads);
        let v2 = v2_bytes(&wet);
        let mut v1 = Vec::new();
        wet.write_to_v1(&mut v1).expect("v1 serialize");
        let from_v1 = Wet::read_from(&mut &v1[..]).expect("v1 read");
        prop_assert!(v2_bytes(&from_v1) == v2, "{}: v1 round-trip diverged", ctx);
        check_reload(&wet, &v2, &ctx);
    }
}

/// The checked-in fixtures were written by the pre-v2 binary; loading
/// them exercises the compatibility reader against real legacy bytes,
/// not bytes our own `write_to_v1` produced.
#[test]
fn v1_fixtures_still_load() {
    for (name, tier2) in [("v1-collatz-t1.wetz", false), ("v1-collatz-t2.wetz", true)] {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name);
        let bytes = std::fs::read(&path).unwrap_or_else(|e| panic!("{name}: {e}"));
        let wet = Wet::read_from(&mut &bytes[..]).unwrap_or_else(|e| panic!("{name}: {e}"));
        wet.validate().unwrap_or_else(|e| panic!("{name}: validate: {e}"));
        let s = wet.stats().clone();
        assert_eq!(
            (s.stmts_executed, s.paths_executed, s.nodes, s.edges, s.inferred_edges),
            (936, 112, 4, 35, 25),
            "{name}: recorded stats"
        );
        assert_eq!(wet.is_tier2(), tier2, "{name}: tier");
        if tier2 {
            let methods: Vec<(String, u64)> =
                s.methods.iter().map(|(m, n)| (m.clone(), *n)).collect();
            assert_eq!(
                methods,
                [("dfcm1", 2u64), ("fcm1", 23), ("stride4", 8), ("stride8", 2)]
                    .map(|(m, n)| (m.to_string(), n)),
                "{name}: tier-2 method mix"
            );
        }
        // The fixture must also round-trip into a clean v2 image.
        let v2 = v2_bytes(&wet);
        let reread = Wet::read_from(&mut &v2[..]).unwrap_or_else(|e| panic!("{name}: v2: {e}"));
        assert_eq!(
            query::cf_trace_forward(&wet).unwrap(),
            query::cf_trace_forward(&reread).unwrap(),
            "{name}: CF trace survives migration"
        );
    }
}

/// The sealed tier-2 image of every bundled program is pinned by its
/// length and CRC-32. The golden replay corpus covers three traces;
/// this covers every predictor family on all nine programs, so a
/// codec or container change that moves a single byte fails here.
#[test]
fn sealed_tier2_bytes_are_pinned() {
    let pinned: [(&str, usize, u32); 9] = [
        ("go-like", 2_021_451, 0x0EED_7491),
        ("gcc-like", 868_341, 0xAB17_31B9),
        ("li-like", 149_944, 0x48C5_1E6D),
        ("gzip-like", 4_886_851, 0x045D_74DB),
        ("mcf-like", 3_776_449, 0x6796_4175),
        ("parser-like", 1_494_723, 0x9F3B_2920),
        ("vortex-like", 1_308_473, 0x4E9A_A113),
        ("bzip2-like", 1_959_856, 0xF1B4_0D57),
        ("twolf-like", 819_526, 0xCB48_F2B4),
    ];
    let mut got = Vec::new();
    for kind in Kind::all() {
        let (_p, wet) = build(kind, 20_000, true, 1);
        let bytes = v2_bytes(&wet);
        got.push((kind.name(), bytes.len(), wet_core::crc::crc32(&bytes)));
    }
    for ((name, len, crc), (want_name, want_len, want_crc)) in got.iter().zip(pinned) {
        assert_eq!(
            (*name, *len, *crc),
            (want_name, want_len, want_crc),
            "{name}: sealed tier-2 bytes changed (all: {got:x?})"
        );
    }
}
