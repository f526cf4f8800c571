//! WET slices vs the reference dynamic slicer, element by element.
//!
//! For every statement instance of several programs, the backward (and
//! for a subset, forward) WET slice computed over the *compressed*
//! representation must equal the slice computed by direct traversal of
//! the uncompressed recorded trace. Slices are compared as sets of
//! `(stmt, timestamp)` pairs, which identify dynamic instances
//! uniquely.

use std::collections::BTreeSet;
use wet_core::query::{backward_slice, forward_slice, SliceSpec, WetSliceElem};
use wet_core::{NodeId, TsMode, Wet, WetBuilder, WetConfig};
use wet_interp::{Interp, InterpConfig, Recorder, RefSlicer, SliceElem, SliceKinds};
use wet_ir::ballarus::BallLarus;
use wet_ir::builder::ProgramBuilder;
use wet_ir::stmt::{BinOp, Operand};
use wet_ir::{Program, StmtId};

fn build(p: &Program, inputs: &[i64], config: WetConfig, tier2: bool) -> (Wet, Recorder) {
    let bl = BallLarus::new(p);
    let mut builder = WetBuilder::new(p, &bl, config);
    let mut rec = Recorder::new();
    let mut sink = (&mut builder, &mut rec);
    Interp::new(p, &bl, InterpConfig::default()).run(inputs, &mut sink).expect("run");
    let mut wet = builder.finish();
    if tier2 {
        wet.compress();
    }
    (wet, rec)
}

/// Reference slice as (stmt, ts) pairs.
fn ref_slice(rec: &Recorder, stmt: StmtId, instance: u64, forward: bool) -> BTreeSet<(StmtId, u64)> {
    let slicer = RefSlicer::new(rec);
    let idx = rec.stmt_index();
    let elem = SliceElem { stmt, instance };
    let s = if forward {
        slicer.forward(elem, SliceKinds::default())
    } else {
        slicer.backward(elem, SliceKinds::default())
    };
    s.elems
        .iter()
        .map(|e| {
            let i = idx[&(e.stmt, e.instance)];
            (e.stmt, rec.stmts[i].ev.ts)
        })
        .collect()
}

/// Maps a recorded instance to its WET address `(node, k)`.
fn wet_elem(wet: &Wet, rec: &Recorder, stmt: StmtId, instance: u64) -> WetSliceElem {
    let idx = rec.stmt_index();
    let ts = rec.stmts[idx[&(stmt, instance)]].ev.ts;
    // Find the path record with this ts, then its node and k.
    let pr = rec.paths.iter().find(|p| p.ts == ts).expect("path covering ts");
    let node = wet.node_for_path(pr.func, pr.path_id).expect("node");
    // k = how many earlier executions of this node have smaller ts.
    let k = rec
        .paths
        .iter()
        .filter(|q| q.func == pr.func && q.path_id == pr.path_id && q.ts < ts)
        .count() as u32;
    WetSliceElem { node, stmt, k }
}

fn check_all_backward_slices(p: &Program, inputs: &[i64], config: WetConfig, tier2: bool) {
    let (wet, rec) = build(p, inputs, config, tier2);
    for (i, r) in rec.stmts.iter().enumerate() {
        // Sample to keep runtime sane: every 7th instance.
        if i % 7 != 0 {
            continue;
        }
        let expect = ref_slice(&rec, r.ev.stmt, r.ev.instance, false);
        let elem = wet_elem(&wet, &rec, r.ev.stmt, r.ev.instance);
        let got = backward_slice(&wet, p, elem, SliceSpec::default()).unwrap();
        assert_eq!(
            got.stamped, expect,
            "backward slice mismatch at {}#{} (ts {})",
            r.ev.stmt, r.ev.instance, r.ev.ts
        );
    }
}

/// Program with branches, a loop, memory, and a helper call.
fn mixed_program() -> Program {
    let mut pb = ProgramBuilder::new();

    let mut g = pb.function("clamp", 2);
    let ge = g.entry_block();
    let (gt, gf, gj) = (g.new_block(), g.new_block(), g.new_block());
    let (a, b, c, r) = (g.param(0), g.param(1), g.reg(), g.reg());
    g.block(ge).bin(BinOp::Gt, c, a, b);
    g.block(ge).branch(c, gt, gf);
    g.block(gt).mov(r, b);
    g.block(gt).jump(gj);
    g.block(gf).mov(r, a);
    g.block(gf).jump(gj);
    g.block(gj).ret(Some(Operand::Reg(r)));
    let clamp = g.finish();

    let mut f = pb.function("main", 0);
    let (e, h, body, cont, x) = (f.entry_block(), f.new_block(), f.new_block(), f.new_block(), f.new_block());
    let (n, i, s, c, t, u) = (f.reg(), f.reg(), f.reg(), f.reg(), f.reg(), f.reg());
    f.block(e).input(n);
    f.block(e).movi(i, 0);
    f.block(e).movi(s, 0);
    f.block(e).store(50i64, 1000i64);
    f.block(e).jump(h);
    f.block(h).bin(BinOp::Lt, c, i, n);
    f.block(h).branch(c, body, x);
    f.block(body).bin(BinOp::Mul, t, i, i);
    f.block(body).call(clamp, vec![Operand::Reg(t), Operand::Imm(20)], Some(u), cont);
    f.block(cont).bin(BinOp::Add, s, s, u);
    f.block(cont).store(i, s);
    f.block(cont).bin(BinOp::Add, i, i, 1i64);
    f.block(cont).jump(h);
    f.block(x).load(t, 3i64);
    f.block(x).out(t);
    f.block(x).out(s);
    f.block(x).ret(Some(Operand::Reg(s)));
    let main = f.finish();
    pb.finish(main).unwrap()
}

#[test]
fn backward_slices_match_reference_tier1() {
    check_all_backward_slices(&mixed_program(), &[9], WetConfig::default(), false);
}

#[test]
fn backward_slices_match_reference_tier2() {
    check_all_backward_slices(&mixed_program(), &[9], WetConfig::default(), true);
}

#[test]
fn backward_slices_match_reference_global_mode() {
    let cfg = WetConfig { ts_mode: TsMode::Global, ..Default::default() };
    check_all_backward_slices(&mixed_program(), &[9], cfg, true);
}

#[test]
fn backward_slices_match_without_tier1_optimizations() {
    let cfg = WetConfig {
        group_values: false,
        infer_local_edges: false,
        share_edge_labels: false,
        ..Default::default()
    };
    check_all_backward_slices(&mixed_program(), &[7], cfg, true);
}

#[test]
fn forward_slices_match_reference() {
    let p = mixed_program();
    let (wet, rec) = build(&p, &[6], WetConfig::default(), true);
    for (i, r) in rec.stmts.iter().enumerate() {
        if i % 11 != 0 {
            continue;
        }
        let expect = ref_slice(&rec, r.ev.stmt, r.ev.instance, true);
        let elem = wet_elem(&wet, &rec, r.ev.stmt, r.ev.instance);
        let got = forward_slice(&wet, &p, elem, SliceSpec::default()).unwrap();
        assert_eq!(
            got.stamped, expect,
            "forward slice mismatch at {}#{} (ts {})",
            r.ev.stmt, r.ev.instance, r.ev.ts
        );
    }
}

#[test]
fn data_only_slices_are_subsets() {
    let p = mixed_program();
    let (wet, rec) = build(&p, &[8], WetConfig::default(), true);
    let r = &rec.stmts[rec.stmts.len() - 3];
    let elem = wet_elem(&wet, &rec, r.ev.stmt, r.ev.instance);
    let full = backward_slice(&wet, &p, elem, SliceSpec::default()).unwrap();
    let data_only = backward_slice(&wet, &p, elem, SliceSpec { data: true, control: false }).unwrap();
    assert!(data_only.stamped.is_subset(&full.stamped));
    assert!(data_only.len() < full.len(), "control deps add elements");
}

#[test]
fn slice_of_first_instruction_is_singleton() {
    let p = mixed_program();
    let (wet, rec) = build(&p, &[3], WetConfig::default(), true);
    // The very first `input` has no producers and no control parent.
    let first = &rec.stmts[0];
    let elem = wet_elem(&wet, &rec, first.ev.stmt, first.ev.instance);
    let s = backward_slice(&wet, &p, elem, SliceSpec::default()).unwrap();
    assert_eq!(s.len(), 1);
    let node0 = NodeId(0);
    assert!(wet.node(node0).stmt_pos(first.ev.stmt).is_some());
}

#[test]
fn partial_traces_from_any_point_match_full_trace() {
    use wet_core::query::{cf_trace_forward, cf_trace_from, locate_ts};
    let p = mixed_program();
    let (wet, _rec) = build(&p, &[7], WetConfig::default(), true);
    let full = cf_trace_forward(&wet).unwrap();
    let last_ts = full.last().unwrap().ts;
    // From several interior points, forward and backward windows must
    // be exact sub-slices of the full trace.
    for &start in &[1u64, last_ts / 3, last_ts / 2, last_ts - 1, last_ts] {
        let fwd = cf_trace_from(&wet, start, 10, true).unwrap();
        let idx = (start - 1) as usize;
        let expect: Vec<_> = full[idx..(idx + 10).min(full.len())].to_vec();
        assert_eq!(fwd, expect, "forward from ts {start}");
        let bwd = cf_trace_from(&wet, start, 10, false).unwrap();
        let lo = idx.saturating_sub(9);
        let mut expect: Vec<_> = full[lo..=idx].to_vec();
        expect.reverse();
        assert_eq!(bwd, expect, "backward from ts {start}");
    }
    // Out-of-range timestamps locate nothing.
    assert!(locate_ts(&wet, last_ts + 5).is_none());
    assert!(cf_trace_from(&wet, 0, 5, true).unwrap().is_empty());
}
