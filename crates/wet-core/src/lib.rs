//! # wet-core — the Whole Execution Trace
//!
//! This crate implements the primary contribution of Zhang & Gupta's
//! MICRO 2004 paper: a **unified representation of complete program
//! profiles** — control flow, values, addresses, and data/control
//! dependences — as a static program graph labeled with dynamic
//! information, compressed in two tiers, and traversable in both
//! directions.
//!
//! * [`WetBuilder`] consumes the interpreter's event stream
//!   ([`wet_interp::TraceSink`]) and produces a tier-1 [`Wet`]: nodes
//!   are Ball–Larus paths whose executions share one timestamp (§3.1),
//!   node values are grouped with shared patterns (§3.2), and
//!   dependence labels local to a node are inferred away while
//!   identical non-local label sequences are stored once (§3.3).
//! * [`Wet::compress`] applies tier-2: every remaining label sequence
//!   becomes a bidirectional predictor-compressed stream
//!   ([`wet_stream`]).
//! * [`query`] answers the paper's profile queries — control-flow
//!   traces in either direction, per-instruction value and address
//!   traces, and backward/forward WET slices — against either tier.
//!
//! # Example
//!
//! ```
//! use wet_core::{query, WetBuilder, WetConfig};
//! use wet_interp::{Interp, InterpConfig};
//! use wet_ir::ballarus::BallLarus;
//! use wet_ir::builder::ProgramBuilder;
//! use wet_ir::stmt::{BinOp, Operand};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Build a small looping program.
//! let mut pb = ProgramBuilder::new();
//! let mut f = pb.function("main", 0);
//! let (e, h, b, x) = (f.entry_block(), f.new_block(), f.new_block(), f.new_block());
//! let (i, c) = (f.reg(), f.reg());
//! f.block(e).movi(i, 0);
//! f.block(e).jump(h);
//! f.block(h).bin(BinOp::Lt, c, i, 50i64);
//! f.block(h).branch(c, b, x);
//! f.block(b).bin(BinOp::Add, i, i, 1i64);
//! f.block(b).jump(h);
//! f.block(x).out(i);
//! f.block(x).ret(None);
//! let main = f.finish();
//! let program = pb.finish(main)?;
//!
//! // Trace it into a WET and compress both tiers.
//! let bl = BallLarus::new(&program);
//! let mut builder = WetBuilder::new(&program, &bl, WetConfig::default());
//! Interp::new(&program, &bl, InterpConfig::default()).run(&[], &mut builder)?;
//! let mut wet = builder.finish();
//! wet.compress();
//!
//! // The whole control-flow trace is recoverable from the compressed form.
//! let trace = query::cf_trace_forward(&wet).unwrap();
//! assert_eq!(trace.len() as u64, wet.stats().paths_executed);
//! assert!(wet.sizes().ratio() > 1.0);
//! # Ok(())
//! # }
//! ```

pub mod capture;
pub mod crc;
pub mod dump;
pub mod fault;
pub mod par;
pub mod query;
pub mod salvage;
pub mod serial;
pub mod store;

mod build;
mod graph;
mod seq;
mod sizes;

pub use build::WetBuilder;
pub use capture::{Capture, CaptureFsck, CaptureSummary};
pub use graph::{
    CaptureConfig, Edge, Group, IntraEdge, LabelSeq, NdetRec, Node, NodeId, NodeStmt, TsMode, Wet, WetConfig,
    SLOT_CD, SLOT_MEM, SLOT_OP0, SLOT_OP1,
};
pub use salvage::{FsckReport, SectionReport, SectionStatus};
pub use seq::{Cursor, Seq};
pub use serial::{section_spans, SectionSpan};
pub use store::{
    resolve_under, sections_for_address_trace, sections_for_op, LazySection, PinGuard, StoreErr, StoreOptions,
    StoredTrace, TraceInfo, TraceStore, LAZY_SECTIONS,
};
pub use sizes::{ratio, CompressStats, StreamClass, WetSizes, WetStats};

#[cfg(test)]
mod tests {
    use super::*;
    use wet_interp::{Interp, InterpConfig, Recorder};
    use wet_ir::ballarus::BallLarus;
    use wet_ir::builder::ProgramBuilder;
    use wet_ir::stmt::{BinOp, Operand};
    use wet_ir::Program;

    /// Loop with repetitive values and memory traffic: a small constant
    /// table is loaded cyclically, so loads and their consumers repeat
    /// with period 4 (exercising §3.2 patterns), while stores write a
    /// disjoint region (exercising memory dependences).
    pub(crate) fn looping_program() -> Program {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.function("main", 0);
        let (e, h, b, x) = (f.entry_block(), f.new_block(), f.new_block(), f.new_block());
        let (n, i, c, a, w, y, t) = (f.reg(), f.reg(), f.reg(), f.reg(), f.reg(), f.reg(), f.reg());
        f.block(e).input(n);
        f.block(e).store(0i64, 7i64);
        f.block(e).store(1i64, 11i64);
        f.block(e).store(2i64, 13i64);
        f.block(e).store(3i64, 17i64);
        f.block(e).movi(i, 0);
        f.block(e).jump(h);
        f.block(h).bin(BinOp::Lt, c, i, n);
        f.block(h).branch(c, b, x);
        f.block(b).bin(BinOp::Rem, a, i, 4i64);
        f.block(b).load(w, a);
        f.block(b).bin(BinOp::Mul, y, w, 3i64);
        f.block(b).bin(BinOp::Add, t, a, 10i64);
        f.block(b).store(t, y);
        f.block(b).bin(BinOp::Add, i, i, 1i64);
        f.block(b).jump(h);
        f.block(x).out(i);
        f.block(x).ret(Some(Operand::Reg(i)));
        let main = f.finish();
        pb.finish(main).unwrap()
    }

    pub(crate) fn build_wet(p: &Program, inputs: &[i64], config: WetConfig) -> (Wet, Recorder) {
        let bl = BallLarus::new(p);
        let mut builder = WetBuilder::new(p, &bl, config);
        let mut rec = Recorder::new();
        let mut sink = (&mut builder, &mut rec);
        Interp::new(p, &bl, InterpConfig::default()).run(inputs, &mut sink).expect("run");
        (builder.finish(), rec)
    }

    #[test]
    fn sizes_are_consistent() {
        let p = looping_program();
        let (mut wet, _) = build_wet(&p, &[200], WetConfig::default());
        let s = *wet.sizes();
        assert!(s.orig_ts > 0 && s.orig_vals > 0 && s.orig_edges > 0);
        assert!(s.t1_ts < s.orig_ts, "path timestamps beat per-stmt timestamps");
        assert!(s.t1_vals < s.orig_vals, "patterns + uvals beat raw values");
        assert!(s.t1_edges < s.orig_edges, "inference + sharing beat raw pairs");
        assert_eq!(s.t2_total(), 0, "tier-2 sizes unset before compress");
        wet.compress();
        let s2 = *wet.sizes();
        assert!(s2.t2_ts > 0);
        assert!(s2.t2_total() < s2.t1_total(), "tier-2 compresses further");
        assert!(s2.ratio() > 4.0, "overall ratio {} too low", s2.ratio());
    }

    #[test]
    fn timestamps_reconstruct_exactly() {
        let p = looping_program();
        let (mut wet, rec) = build_wet(&p, &[64], WetConfig::default());
        wet.compress();
        // Each node's ts stream must equal the recorded path timestamps.
        for pr in &rec.paths {
            let node = wet.node_for_path(pr.func, pr.path_id).expect("node exists");
            let ts = wet.node(node).ts.to_vec_snapshot();
            assert!(ts.contains(&pr.ts));
        }
        let total: usize = wet.nodes().iter().map(|n| n.n_execs as usize).sum();
        assert_eq!(total, rec.paths.len());
    }

    #[test]
    fn values_reconstruct_exactly() {
        let p = looping_program();
        for group in [true, false] {
            let cfg = WetConfig { group_values: group, ..Default::default() };
            let (mut wet, rec) = build_wet(&p, &[100], cfg);
            wet.compress();
            for stmt_id in 0..p.stmt_count() as u32 {
                let stmt = wet_ir::StmtId(stmt_id);
                let expected: Vec<i64> = rec.values_of(stmt);
                let got: Vec<i64> =
                    query::value_trace(&wet, stmt, 1).unwrap().into_iter().map(|(_, v)| v).collect();
                assert_eq!(got, expected, "value trace mismatch for {stmt} (group={group})");
            }
        }
    }

    #[test]
    fn cf_trace_matches_recorder_both_directions() {
        let p = looping_program();
        for tier2 in [false, true] {
            let (mut wet, rec) = build_wet(&p, &[80], WetConfig::default());
            if tier2 {
                wet.compress();
            }
            let fwd = query::cf_trace_forward(&wet).unwrap();
            let blocks = query::expand_blocks(&wet, &fwd);
            assert_eq!(blocks, rec.block_trace(), "tier2={tier2}");
            let mut bwd = query::cf_trace_backward(&wet).unwrap();
            bwd.reverse();
            assert_eq!(bwd, fwd, "backward trace must mirror forward (tier2={tier2})");
        }
    }

    #[test]
    fn address_traces_match_recorder() {
        let p = looping_program();
        for tier2 in [false, true] {
            let (mut wet, rec) = build_wet(&p, &[60], WetConfig::default());
            if tier2 {
                wet.compress();
            }
            for stmt_id in 0..p.stmt_count() as u32 {
                let stmt = wet_ir::StmtId(stmt_id);
                let expected = rec.addresses_of(stmt);
                let got: Vec<u64> =
                    query::address_trace(&wet, &p, stmt, 1).unwrap().into_iter().map(|(_, a)| a).collect();
                assert_eq!(got, expected, "address trace mismatch for {stmt} (tier2={tier2})");
            }
        }
    }

    #[test]
    fn global_timestamp_mode_is_equivalent() {
        let p = looping_program();
        let cfg = WetConfig { ts_mode: TsMode::Global, ..Default::default() };
        let (mut wet, rec) = build_wet(&p, &[60], cfg);
        wet.compress();
        let fwd = query::cf_trace_forward(&wet).unwrap();
        assert_eq!(query::expand_blocks(&wet, &fwd), rec.block_trace());
        for stmt_id in 0..p.stmt_count() as u32 {
            let stmt = wet_ir::StmtId(stmt_id);
            let got: Vec<u64> = query::address_trace(&wet, &p, stmt, 1).unwrap().into_iter().map(|(_, a)| a).collect();
            assert_eq!(got, rec.addresses_of(stmt), "{stmt}");
        }
    }

    #[test]
    fn wets_validate_in_both_tiers() {
        let p = looping_program();
        let (mut wet, _) = build_wet(&p, &[60], WetConfig::default());
        wet.validate().expect("tier-1 valid");
        wet.compress();
        wet.validate().expect("tier-2 valid");
    }

    #[test]
    fn degraded_queries_match_strict_on_clean_wets() {
        let p = looping_program();
        let (mut wet, _) = build_wet(&p, &[60], WetConfig::default());
        wet.compress();
        let strict = query::cf_trace_forward(&wet).unwrap();
        let (deg_steps, deg) = query::cf_trace_forward_partial(&wet, &query::Ctl::unbounded()).unwrap();
        assert_eq!(deg_steps, strict);
        assert!(deg.is_complete());
        for stmt_id in 0..p.stmt_count() as u32 {
            let stmt = wet_ir::StmtId(stmt_id);
            let (vals, dv) = query::value_trace_partial(&wet, stmt, 1, &query::Ctl::unbounded()).unwrap();
            assert_eq!(vals, query::value_trace(&wet, stmt, 1).unwrap(), "{stmt}");
            assert!(dv.is_complete());
        }
    }

    #[test]
    fn degraded_queries_report_salvage_losses() {
        let p = looping_program();
        let (mut wet, _) = build_wet(&p, &[60], WetConfig::default());
        wet.compress();
        let mut bytes = Vec::new();
        wet.write_to(&mut bytes).unwrap();

        // Damage the value section: control flow survives, values are
        // reported lost rather than wrong.
        let spans = serial::section_spans(&bytes).unwrap();
        let vals = spans.iter().find(|s| s.tag == serial::TAG_VALS).unwrap();
        let mut m = bytes.clone();
        m[vals.payload_start + 3] ^= 0x10;
        let (salvaged, report) = Wet::read_salvaging(&mut m.as_slice()).unwrap();
        assert!(report.seqs_lost > 0);
        let (steps, cf_deg) = query::cf_trace_forward_partial(&salvaged, &query::Ctl::unbounded()).unwrap();
        assert_eq!(steps, query::cf_trace_forward(&wet).unwrap(), "cf trace fully recovered");
        assert!(cf_deg.is_complete());
        let stmt = wet_ir::StmtId(0);
        let (vals_deg, dv) = query::value_trace_partial(&salvaged, stmt, 1, &query::Ctl::unbounded()).unwrap();
        assert!(vals_deg.is_empty());
        assert!(dv.nodes_skipped > 0);

        // Damage the timestamp section: the cf trace degrades to the
        // recoverable portion (none, at section granularity) and the
        // gap accounting covers the whole execution.
        let tseq = spans.iter().find(|s| s.tag == serial::TAG_TSEQ).unwrap();
        let mut m2 = bytes.clone();
        m2[tseq.payload_start + 1] ^= 0x02;
        let (salvaged2, _) = Wet::read_salvaging(&mut m2.as_slice()).unwrap();
        let (steps2, deg2) = query::cf_trace_forward_partial(&salvaged2, &query::Ctl::unbounded()).unwrap();
        assert!(steps2.is_empty());
        assert!(deg2.gaps > 0);
        let (_, first_ts) = salvaged2.first();
        let (_, last_ts) = salvaged2.last();
        assert_eq!(deg2.steps_missing, last_ts - first_ts + 1);
    }

    #[test]
    fn degraded_cf_trace_resyncs_across_one_lost_node() {
        let p = looping_program();
        let (mut wet, _) = build_wet(&p, &[60], WetConfig::default());
        let strict = query::cf_trace_forward(&wet).unwrap();
        // Knock out a single node's timestamp stream in place —
        // finer-grained loss than section salvage produces, to prove
        // the resync logic recovers everything else.
        let lost = NodeId(1);
        let lost_execs = wet.node(lost).n_execs as u64;
        assert!(lost_execs > 0, "test node must execute");
        wet.nodes[lost.index()].ts = Seq::Unavailable(lost_execs);
        let (steps, deg) = query::cf_trace_forward_partial(&wet, &query::Ctl::unbounded()).unwrap();
        assert_eq!(deg.nodes_skipped, 1);
        assert_eq!(deg.steps_missing, lost_execs);
        assert!(deg.gaps >= 1);
        let kept: Vec<_> = strict.iter().filter(|s| s.node != lost).copied().collect();
        assert_eq!(steps, kept, "every step outside the lost node survives");
    }

    #[test]
    fn degraded_backward_slice_counts_lost_deps() {
        let p = looping_program();
        let (mut wet, _) = build_wet(&p, &[40], WetConfig::default());
        wet.compress();
        // Criterion on the destination of a labeled (non-local) edge,
        // so the slice must consult the label pool.
        let criterion = {
            let e = wet.edges()[0];
            query::WetSliceElem { node: e.dst_node, stmt: e.dst_stmt, k: 0 }
        };
        let strict = query::backward_slice(&wet, &p, criterion, Default::default()).unwrap();
        let ctl = query::Ctl::unbounded();
        let (same, deg) = query::backward_slice_partial(&wet, &p, criterion, Default::default(), &ctl).unwrap();
        assert_eq!(same.stamped, strict.stamped);
        assert!(deg.is_complete());
        // Lose every edge label: the slice shrinks, the report says so.
        let mut bytes = Vec::new();
        wet.write_to(&mut bytes).unwrap();
        let spans = serial::section_spans(&bytes).unwrap();
        let edgl = spans.iter().find(|s| s.tag == serial::TAG_EDGL).unwrap();
        let mut m = bytes.clone();
        m[edgl.payload_start] ^= 0x01;
        let (salvaged, _) = Wet::read_salvaging(&mut m.as_slice()).unwrap();
        let (partial, deg2) =
            query::backward_slice_partial(&salvaged, &p, criterion, Default::default(), &ctl).unwrap();
        assert!(partial.stamped.len() <= strict.stamped.len());
        assert!(deg2.seqs_unavailable > 0);
        // Lose only the def side of the edge's label pool, and let the
        // loss arrive through a file: the partial slice counts it where
        // the lookup needs it, the strict slice reports corruption.
        let e = wet.edges()[0];
        let mut lost_src = wet.clone();
        let lab = &mut lost_src.labels[e.labels as usize];
        let at = query::WetSliceElem { node: e.dst_node, stmt: e.dst_stmt, k: lab.dst.to_vec_snapshot()[0] as u32 };
        lab.src = Seq::Unavailable(u64::from(lab.len));
        let mut file = Vec::new();
        lost_src.write_to(&mut file).unwrap();
        let from_file = Wet::read_from(&mut file.as_slice()).unwrap();
        let (_, deg3) = query::backward_slice_partial(&from_file, &p, at, Default::default(), &ctl).unwrap();
        assert!(deg3.seqs_unavailable > 0);
        let strict3 = query::backward_slice(&from_file, &p, at, Default::default());
        assert!(matches!(strict3, Err(query::QueryErr::Corrupt(_))), "{strict3:?}");
    }

    #[test]
    fn inference_drops_most_intra_edges() {
        let p = looping_program();
        let (wet, _) = build_wet(&p, &[100], WetConfig::default());
        assert!(wet.stats().inferred_edges > 0, "loop body deps are intra-path and complete");
    }

    #[test]
    fn ablation_flags_affect_sizes() {
        let p = looping_program();
        let (mut on, _) = build_wet(&p, &[150], WetConfig::default());
        let cfg_off = WetConfig {
            group_values: false,
            infer_local_edges: false,
            share_edge_labels: false,
            ..Default::default()
        };
        let (mut off, _) = build_wet(&p, &[150], cfg_off);
        assert!(on.sizes().t1_edges < off.sizes().t1_edges, "inference + sharing must reduce edge bytes");
        // Value bytes never exceed the raw form thanks to the pattern
        // cost guard (grouping itself can go either way per workload).
        assert!(on.sizes().t1_vals <= on.sizes().orig_vals);
        assert!(off.sizes().t1_vals <= off.sizes().orig_vals);
        // Queries stay correct without the optimizations.
        on.compress();
        off.compress();
        let a = query::cf_trace_forward(&on).unwrap();
        let b = query::cf_trace_forward(&off).unwrap();
        assert_eq!(a.len(), b.len());
    }
}
