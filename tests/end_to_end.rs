//! Workspace-level end-to-end tests: every bundled workload, traced
//! into a WET, must reproduce the recorder's ground truth through the
//! compressed representation — control flow, values, addresses — and
//! WET slices must match the reference slicer.

use wet::prelude::*;
use wet::workloads::Kind;
use wet_core::query;

fn build(kind: Kind, target: u64) -> (Program, wet_core::Wet, Recorder) {
    let w = wet::workloads::build(kind, target);
    let bl = BallLarus::new(&w.program);
    let mut builder = WetBuilder::new(&w.program, &bl, WetConfig::default());
    let mut rec = Recorder::new();
    let mut sink = (&mut builder, &mut rec);
    Interp::new(&w.program, &bl, InterpConfig::default())
        .run(&w.inputs, &mut sink)
        .unwrap_or_else(|e| panic!("{}: {e}", kind.name()));
    let mut wet = builder.finish();
    wet.compress();
    (w.program, wet, rec)
}

#[test]
fn cf_traces_match_for_all_workloads() {
    for kind in Kind::all() {
        let (_p, wet, rec) = build(kind, 20_000);
        let fwd = query::cf_trace_forward(&wet).unwrap();
        let blocks = query::expand_blocks(&wet, &fwd);
        assert_eq!(blocks, rec.block_trace(), "{}: forward CF trace", kind.name());
        let mut bwd = query::cf_trace_backward(&wet).unwrap();
        bwd.reverse();
        assert_eq!(bwd, fwd, "{}: backward CF trace", kind.name());
    }
}

#[test]
fn value_traces_match_for_all_workloads() {
    for kind in Kind::all() {
        let (p, wet, rec) = build(kind, 15_000);
        for sid in 0..p.stmt_count() as u32 {
            let stmt = StmtId(sid);
            let expected = rec.values_of(stmt);
            let got: Vec<i64> = query::value_trace(&wet, stmt, 1).unwrap().into_iter().map(|(_, v)| v).collect();
            assert_eq!(got, expected, "{}: value trace of {stmt}", kind.name());
        }
    }
}

#[test]
fn address_traces_match_for_all_workloads() {
    for kind in Kind::all() {
        let (p, wet, rec) = build(kind, 15_000);
        for sid in 0..p.stmt_count() as u32 {
            let stmt = StmtId(sid);
            let expected = rec.addresses_of(stmt);
            let got: Vec<u64> =
                query::address_trace(&wet, &p, stmt, 1).unwrap().into_iter().map(|(_, a)| a).collect();
            assert_eq!(got, expected, "{}: address trace of {stmt}", kind.name());
        }
    }
}

#[test]
fn slices_match_reference_for_sampled_criteria() {
    use std::collections::BTreeSet;
    use wet_interp::{RefSlicer, SliceElem, SliceKinds};
    for kind in Kind::all() {
        let (p, wet, rec) = build(kind, 8_000);
        let slicer = RefSlicer::new(&rec);
        let idx = rec.stmt_index();
        // Sample a handful of instances across the trace.
        let step = (rec.stmts.len() / 5).max(1);
        for r in rec.stmts.iter().step_by(step) {
            let expect: BTreeSet<(StmtId, u64)> = slicer
                .backward(SliceElem { stmt: r.ev.stmt, instance: r.ev.instance }, SliceKinds::default())
                .elems
                .iter()
                .map(|e| {
                    let i = idx[&(e.stmt, e.instance)];
                    (e.stmt, rec.stmts[i].ev.ts)
                })
                .collect();
            // Locate the criterion in the WET.
            let pr = rec.paths.iter().find(|q| q.ts == r.ev.ts).expect("path");
            let node = wet.node_for_path(pr.func, pr.path_id).expect("node");
            let k = rec
                .paths
                .iter()
                .filter(|q| q.func == pr.func && q.path_id == pr.path_id && q.ts < r.ev.ts)
                .count() as u32;
            let got = query::backward_slice(
                &wet,
                &p,
                query::WetSliceElem { node, stmt: r.ev.stmt, k },
                query::SliceSpec::default(),
            ).unwrap();
            assert_eq!(got.stamped, expect, "{}: slice at {}#{}", kind.name(), r.ev.stmt, r.ev.instance);
        }
    }
}

#[test]
fn sizes_shrink_per_tier_for_all_workloads() {
    // Tier-2 carries a small fixed per-stream overhead (header +
    // window), so the comparison needs streams long enough to amortize
    // it — hence the larger scale here.
    for kind in Kind::all() {
        let (_p, wet, _rec) = build(kind, 150_000);
        let s = wet.sizes();
        assert!(s.t1_total() < s.orig_total(), "{}: tier-1 must shrink", kind.name());
        assert!(s.t2_total() < s.t1_total(), "{}: tier-2 must shrink further", kind.name());
        assert!(s.ratio() > 2.0, "{}: overall ratio {:.2} too low", kind.name(), s.ratio());
    }
}

#[test]
fn architecture_bits_cover_all_events() {
    use wet::arch::{ArchConfig, ArchSink};
    for kind in [Kind::Go, Kind::Mcf] {
        let w = wet::workloads::build(kind, 20_000);
        let bl = BallLarus::new(&w.program);
        let mut arch = ArchSink::new(ArchConfig::default());
        let mut rec = Recorder::new();
        let mut sink = (&mut arch, &mut rec);
        Interp::new(&w.program, &bl, InterpConfig::default()).run(&w.inputs, &mut sink).unwrap();
        let h = arch.histories();
        let branches = rec.stmts.iter().filter(|s| s.ev.branch_taken.is_some()).count();
        let loads = rec.stmts.iter().filter(|s| s.ev.mem.map(|m| !m.is_store) == Some(true)).count();
        let stores = rec.stmts.iter().filter(|s| s.ev.mem.map(|m| m.is_store) == Some(true)).count();
        assert_eq!(h.branch_bits.len(), branches, "{}", kind.name());
        assert_eq!(h.load_bits.len(), loads, "{}", kind.name());
        assert_eq!(h.store_bits.len(), stores, "{}", kind.name());
        // 1 bit per event, as Table 4 accounts it.
        assert_eq!(h.total_bytes(), (branches.div_ceil(8) + loads.div_ceil(8) + stores.div_ceil(8)) as u64);
    }
}

#[test]
fn block_granularity_mode_stays_correct() {
    use wet_ir::ballarus::{BallLarusConfig, NodeGranularity};
    let w = wet::workloads::build(Kind::Parser, 10_000);
    let bl = wet_ir::ballarus::BallLarus::with_config(
        &w.program,
        BallLarusConfig { granularity: NodeGranularity::Block, max_paths: u64::MAX },
    );
    let mut builder = WetBuilder::new(&w.program, &bl, WetConfig::default());
    let mut rec = Recorder::new();
    let mut sink = (&mut builder, &mut rec);
    Interp::new(&w.program, &bl, InterpConfig::default()).run(&w.inputs, &mut sink).unwrap();
    let mut wet = builder.finish();
    wet.compress();
    // One timestamp per block execution in this mode.
    assert_eq!(wet.stats().paths_executed, wet.stats().blocks_executed);
    let fwd = query::cf_trace_forward(&wet).unwrap();
    let blocks = query::expand_blocks(&wet, &fwd);
    assert_eq!(blocks, rec.block_trace());
}

#[test]
fn global_ts_mode_matches_local_mode_semantics() {
    let kind = Kind::Li;
    let (p, local, _) = build(kind, 10_000);
    let w = wet::workloads::build(kind, 10_000);
    let bl = BallLarus::new(&w.program);
    let mut builder =
        WetBuilder::new(&w.program, &bl, WetConfig { ts_mode: TsMode::Global, ..Default::default() });
    Interp::new(&w.program, &bl, InterpConfig::default()).run(&w.inputs, &mut builder).unwrap();
    let mut global = builder.finish();
    global.compress();
    for sid in (0..p.stmt_count() as u32).step_by(3) {
        let stmt = StmtId(sid);
        assert_eq!(
            query::value_trace(&local, stmt, 1).unwrap(),
            query::value_trace(&global, stmt, 1).unwrap(),
            "value traces agree across modes for {stmt}"
        );
    }
}
