//! The experiment implementations, one function per table/figure.
//!
//! Each function prints a text table echoing the paper's layout and is
//! callable from the per-experiment binaries or the `all` runner.
//!
//! Parallelism policy (`WET_THREADS`, default all cores): the
//! size/structure experiments (Tables 1–4, Figs. 2/8/9, ablations)
//! fan their nine workloads across the worker pool via
//! [`crate::per_workload`] and print the collected rows in workload
//! order, so output is identical to the sequential run. The *timing*
//! experiments (Tables 5–9) keep the workload loop sequential —
//! concurrent workloads would contend for cores and distort the very
//! times being measured — and instead hand the worker pool to the
//! phase being timed: Table 5 compresses each WET on all workers,
//! Tables 7–8 extract whole traces through the parallel query engine.

use crate::{build_wet, build_wet_with, mb, millions, per_workload, pick_slice_criteria, rule, timed, Scale};
use wet_arch::{ArchConfig, ArchSink};
use wet_core::query::{
    address_trace, backward_slice, cf_trace_backward, cf_trace_forward, trace_bytes, value_trace, SliceSpec,
};
use wet_core::{TsMode, WetConfig};
use wet_interp::{Interp, InterpConfig};
use wet_ir::ballarus::{BallLarusConfig, NodeGranularity};
use wet_ir::program::StmtRef;
use wet_ir::stmt::StmtKind;
use wet_ir::StmtId;
use wet_stream::{sequitur, CompressedStream, StreamConfig};
use wet_workloads::Kind;

/// Collects the load (and optionally store) statement ids of a program.
fn mem_stmts(program: &wet_ir::Program, include_stores: bool) -> Vec<StmtId> {
    (0..program.stmt_count() as u32)
        .map(StmtId)
        .filter(|&s| match program.stmt_ref(s) {
            StmtRef::Stmt(st) => match st.kind {
                StmtKind::Load { .. } => true,
                StmtKind::Store { .. } => include_stores,
                _ => false,
            },
            StmtRef::Term(_) => false,
        })
        .collect()
}

/// Table 1: WET sizes.
pub fn table1(scale: &Scale) {
    println!("Table 1. WET sizes.");
    println!(
        "{:<14} {:>12} {:>12} {:>12} {:>10}",
        "Benchmark", "Stmts (M)", "Orig (MB)", "Comp (MB)", "Orig/Comp"
    );
    rule(64);
    let rows = per_workload(scale, |kind| {
        let mut b = build_wet(kind, scale.table_stmts, WetConfig::default());
        b.wet.compress();
        let s = *b.wet.sizes();
        (millions(b.run.stmts_executed), mb(s.orig_total()), mb(s.t2_total()), s.ratio())
    });
    let mut sum = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
    for (kind, (stmts, orig, comp, ratio)) in rows {
        println!("{:<14} {:>12.2} {:>12.2} {:>12.2} {:>10.2}", kind.name(), stmts, orig, comp, ratio);
        sum.0 += stmts;
        sum.1 += orig;
        sum.2 += comp;
        sum.3 += ratio;
    }
    rule(64);
    println!(
        "{:<14} {:>12.2} {:>12.2} {:>12.2} {:>10.2}",
        "Avg.",
        sum.0 / 9.0,
        sum.1 / 9.0,
        sum.2 / 9.0,
        sum.3 / 9.0
    );
    println!();
}

/// Tables 2 and 3: node and edge label compression by tier.
pub fn table2_and_3(scale: &Scale) {
    println!("Table 2. Effect of compression on node labels.");
    println!(
        "{:<14} {:>10} {:>9} {:>9} | {:>10} {:>9} {:>9}",
        "Benchmark", "ts (MB)", "O/T1", "O/T2", "vals (MB)", "O/T1", "O/T2"
    );
    rule(80);
    let sizes = per_workload(scale, |kind| {
        let mut b = build_wet(kind, scale.table_stmts, WetConfig::default());
        b.wet.compress();
        *b.wet.sizes()
    });
    let mut edge_rows = Vec::new();
    let mut avg = [0.0f64; 6];
    let mut avg_e = [0.0f64; 3];
    for (kind, s) in sizes {
        let r = |a: u64, b: u64| wet_core::ratio(a, b);
        println!(
            "{:<14} {:>10.2} {:>9.2} {:>9.2} | {:>10.2} {:>9.2} {:>9.2}",
            kind.name(),
            mb(s.orig_ts),
            r(s.orig_ts, s.t1_ts),
            r(s.orig_ts, s.t2_ts),
            mb(s.orig_vals),
            r(s.orig_vals, s.t1_vals),
            r(s.orig_vals, s.t2_vals),
        );
        avg[0] += mb(s.orig_ts);
        avg[1] += r(s.orig_ts, s.t1_ts);
        avg[2] += r(s.orig_ts, s.t2_ts);
        avg[3] += mb(s.orig_vals);
        avg[4] += r(s.orig_vals, s.t1_vals);
        avg[5] += r(s.orig_vals, s.t2_vals);
        edge_rows.push((kind, mb(s.orig_edges), r(s.orig_edges, s.t1_edges), r(s.orig_edges, s.t2_edges)));
        avg_e[0] += mb(s.orig_edges);
        avg_e[1] += r(s.orig_edges, s.t1_edges);
        avg_e[2] += r(s.orig_edges, s.t2_edges);
    }
    rule(80);
    println!(
        "{:<14} {:>10.2} {:>9.2} {:>9.2} | {:>10.2} {:>9.2} {:>9.2}",
        "Avg.",
        avg[0] / 9.0,
        avg[1] / 9.0,
        avg[2] / 9.0,
        avg[3] / 9.0,
        avg[4] / 9.0,
        avg[5] / 9.0
    );
    println!();
    println!("Table 3. Effect of compression on edge labels.");
    println!("{:<14} {:>12} {:>10} {:>10}", "Benchmark", "Orig (MB)", "Orig/T1", "Orig/T2");
    rule(50);
    for (kind, o, r1, r2) in edge_rows {
        println!("{:<14} {:>12.2} {:>10.2} {:>10.2}", kind.name(), o, r1, r2);
    }
    rule(50);
    println!("{:<14} {:>12.2} {:>10.2} {:>10.2}", "Avg.", avg_e[0] / 9.0, avg_e[1] / 9.0, avg_e[2] / 9.0);
    println!();
}

/// Table 4: architecture-specific bit histories.
pub fn table4(scale: &Scale) {
    println!("Table 4. Architecture specific information (uncompressed bits).");
    println!(
        "{:<14} {:>12} {:>12} {:>12} {:>10} {:>10}",
        "Benchmark", "Branch (MB)", "Load (MB)", "Store (MB)", "mispred%", "miss%"
    );
    rule(76);
    let rows = per_workload(scale, |kind| {
        let w = wet_workloads::build(kind, scale.table_stmts);
        let bl = wet_ir::ballarus::BallLarus::new(&w.program);
        let mut arch = ArchSink::new(ArchConfig::default());
        Interp::new(&w.program, &bl, InterpConfig::default()).run(&w.inputs, &mut arch).expect("run");
        let h = arch.histories();
        let mispred = 100.0 * h.branch_bits.ones() as f64 / h.branch_bits.len().max(1) as f64;
        let miss = 100.0
            * (h.load_bits.ones() + h.store_bits.ones()) as f64
            / (h.load_bits.len() + h.store_bits.len()).max(1) as f64;
        (mb(h.branch_bits.bytes()), mb(h.load_bits.bytes()), mb(h.store_bits.bytes()), mispred, miss)
    });
    for (kind, (branch, load, store, mispred, miss)) in rows {
        println!(
            "{:<14} {:>12.3} {:>12.3} {:>12.3} {:>10.2} {:>10.2}",
            kind.name(),
            branch,
            load,
            store,
            mispred,
            miss
        );
    }
    println!();
}

/// Table 5: WET construction times.
///
/// Workloads run one at a time (this is a timing table); tier-2
/// compression inside each workload uses the scale's worker pool, so
/// the Tier-2 column shows the parallel speedup directly. Output
/// `.wetz` bytes are identical for every thread count.
pub fn table5(scale: &Scale) {
    println!(
        "Table 5. WET construction times (trace + tier-1 + tier-2; {} thread(s)).",
        scale.effective_threads()
    );
    println!(
        "{:<14} {:>12} {:>14} {:>14}",
        "Benchmark", "Stmts (M)", "Constr. (s)", "Tier-2 (s)"
    );
    rule(58);
    for kind in Kind::all() {
        let mut b = build_wet(kind, scale.timing_stmts, scale.wet_config());
        let (_, compress_secs) = timed(|| b.wet.compress());
        println!(
            "{:<14} {:>12.2} {:>14.2} {:>14.2}",
            kind.name(),
            millions(b.run.stmts_executed),
            b.build_secs,
            compress_secs
        );
    }
    println!();
}

/// Table 6: control-flow trace extraction, both directions and tiers.
pub fn table6(scale: &Scale) {
    println!("Table 6. Response times for control flow traces.");
    println!(
        "{:<14} {:>9} | {:>8} {:>8} {:>8} {:>8} | {:>8} {:>8} {:>8} {:>8}",
        "Benchmark", "CF (MB)", "T1 fwd", "MB/s", "T2 fwd", "MB/s", "T1 bwd", "MB/s", "T2 bwd", "MB/s"
    );
    rule(108);
    for kind in Kind::all() {
        let mut b = build_wet(kind, scale.timing_stmts, WetConfig::default());
        let (steps, t1f) = timed(|| cf_trace_forward(&b.wet).unwrap());
        let bytes = trace_bytes(&b.wet, &steps);
        let (_, t1b) = timed(|| cf_trace_backward(&b.wet).unwrap());
        b.wet.compress();
        let (_, t2f) = timed(|| cf_trace_forward(&b.wet).unwrap());
        let (_, t2b) = timed(|| cf_trace_backward(&b.wet).unwrap());
        let m = mb(bytes);
        println!(
            "{:<14} {:>9.2} | {:>8.3} {:>8.1} {:>8.3} {:>8.1} | {:>8.3} {:>8.1} {:>8.3} {:>8.1}",
            kind.name(),
            m,
            t1f,
            m / t1f.max(1e-9),
            t2f,
            m / t2f.max(1e-9),
            t1b,
            m / t1b.max(1e-9),
            t2b,
            m / t2b.max(1e-9),
        );
    }
    println!();
}

/// Table 7: per-instruction load value traces.
pub fn table7(scale: &Scale) {
    println!("Table 7. Response times for per instruction load value traces.");
    println!(
        "{:<14} {:>10} | {:>9} {:>8} | {:>9} {:>8}",
        "Benchmark", "Ld (MB)", "T1 (s)", "MB/s", "T2 (s)", "MB/s"
    );
    rule(70);
    for kind in Kind::all() {
        let mut b = build_wet(kind, scale.timing_stmts, scale.wet_config());
        let loads = mem_stmts(&b.program, false);
        let threads = b.wet.config().stream.num_threads;
        let (n_vals, t1) = timed(|| {
            let mut n = 0u64;
            for &s in &loads {
                n += value_trace(&b.wet, s, threads).unwrap().len() as u64;
            }
            n
        });
        b.wet.compress();
        let (_, t2) = timed(|| {
            for &s in &loads {
                value_trace(&b.wet, s, threads).unwrap();
            }
        });
        let m = mb(8 * n_vals);
        println!(
            "{:<14} {:>10.2} | {:>9.3} {:>8.1} | {:>9.3} {:>8.1}",
            kind.name(),
            m,
            t1,
            m / t1.max(1e-9),
            t2,
            m / t2.max(1e-9)
        );
    }
    println!();
}

/// Table 8: per-instruction load/store address traces.
pub fn table8(scale: &Scale) {
    println!("Table 8. Response times for per instruction load/store address traces.");
    println!(
        "{:<14} {:>10} | {:>9} {:>8} | {:>9} {:>8}",
        "Benchmark", "Addr (MB)", "T1 (s)", "MB/s", "T2 (s)", "MB/s"
    );
    rule(70);
    for kind in Kind::all() {
        let mut b = build_wet(kind, scale.timing_stmts, scale.wet_config());
        let stmts = mem_stmts(&b.program, true);
        let threads = b.wet.config().stream.num_threads;
        let (n_addrs, t1) = timed(|| {
            let mut n = 0u64;
            for &s in &stmts {
                n += address_trace(&b.wet, &b.program, s, threads).unwrap().len() as u64;
            }
            n
        });
        b.wet.compress();
        let (_, t2) = timed(|| {
            for &s in &stmts {
                address_trace(&b.wet, &b.program, s, threads).unwrap();
            }
        });
        let m = mb(8 * n_addrs);
        println!(
            "{:<14} {:>10.2} | {:>9.3} {:>8.1} | {:>9.3} {:>8.1}",
            kind.name(),
            m,
            t1,
            m / t1.max(1e-9),
            t2,
            m / t2.max(1e-9)
        );
    }
    println!();
}

/// Table 9: WET slices, averaged over 25 criteria.
pub fn table9(scale: &Scale) {
    println!("Table 9. WET slices (avg. over 25 slices).");
    println!(
        "{:<14} {:>10} {:>10} {:>9} {:>12}",
        "Benchmark", "T1 (s)", "T2 (s)", "T2/T1", "avg |slice|"
    );
    rule(60);
    for kind in Kind::all() {
        let mut b = build_wet(kind, scale.timing_stmts, WetConfig::default());
        let criteria = pick_slice_criteria(&b.wet, 25, 0x5eed + kind as u64);
        let (sizes, t1) = timed(|| {
            criteria
                .iter()
                .map(|&c| backward_slice(&b.wet, &b.program, c, SliceSpec::default()).unwrap().len() as u64)
                .sum::<u64>()
        });
        b.wet.compress();
        let (_, t2) = timed(|| {
            for &c in &criteria {
                backward_slice(&b.wet, &b.program, c, SliceSpec::default()).unwrap();
            }
        });
        let n = criteria.len().max(1) as f64;
        println!(
            "{:<14} {:>10.3} {:>10.3} {:>9.2} {:>12.0}",
            kind.name(),
            t1 / n,
            t2 / n,
            t2 / t1.max(1e-9),
            sizes as f64 / n
        );
    }
    println!();
}

/// Fig. 2: timestamp reduction from Ball–Larus path nodes.
pub fn fig2(scale: &Scale) {
    println!("Figure 2. Reducing the number of timestamps (blocks vs BL paths).");
    println!(
        "{:<14} {:>14} {:>14} {:>10} {:>12}",
        "Benchmark", "Blocks (M)", "Paths (M)", "Reduction", "WET nodes"
    );
    rule(70);
    let rows = per_workload(scale, |kind| {
        let b = build_wet(kind, scale.timing_stmts, WetConfig::default());
        let blocks = b.wet.stats().blocks_executed;
        let paths = b.wet.stats().paths_executed;
        (blocks, paths, b.wet.stats().nodes)
    });
    for (kind, (blocks, paths, nodes)) in rows {
        println!(
            "{:<14} {:>14.2} {:>14.2} {:>10.2} {:>12}",
            kind.name(),
            millions(blocks),
            millions(paths),
            blocks as f64 / paths.max(1) as f64,
            nodes
        );
    }
    println!();
}

/// Fig. 8: relative sizes of WET components per tier.
pub fn fig8(scale: &Scale) {
    println!("Figure 8. Relative sizes of WET components (% of total).");
    println!(
        "{:<14} | {:>6} {:>6} {:>6} | {:>6} {:>6} {:>6} | {:>6} {:>6} {:>6}",
        "Benchmark", "O.ts", "O.val", "O.edg", "1.ts", "1.val", "1.edg", "2.ts", "2.val", "2.edg"
    );
    rule(92);
    let mut avg = [0.0f64; 9];
    let rows = per_workload(scale, |kind| {
        let mut b = build_wet(kind, scale.table_stmts, WetConfig::default());
        b.wet.compress();
        let s = *b.wet.sizes();
        let pct = |x: u64, tot: u64| 100.0 * x as f64 / tot.max(1) as f64;
        [
            pct(s.orig_ts, s.orig_total()),
            pct(s.orig_vals, s.orig_total()),
            pct(s.orig_edges, s.orig_total()),
            pct(s.t1_ts, s.t1_total()),
            pct(s.t1_vals, s.t1_total()),
            pct(s.t1_edges, s.t1_total()),
            pct(s.t2_ts, s.t2_total()),
            pct(s.t2_vals, s.t2_total()),
            pct(s.t2_edges, s.t2_total()),
        ]
    });
    for (kind, row) in rows {
        println!(
            "{:<14} | {:>6.1} {:>6.1} {:>6.1} | {:>6.1} {:>6.1} {:>6.1} | {:>6.1} {:>6.1} {:>6.1}",
            kind.name(),
            row[0],
            row[1],
            row[2],
            row[3],
            row[4],
            row[5],
            row[6],
            row[7],
            row[8]
        );
        for (a, r) in avg.iter_mut().zip(row) {
            *a += r / 9.0;
        }
    }
    rule(92);
    println!(
        "{:<14} | {:>6.1} {:>6.1} {:>6.1} | {:>6.1} {:>6.1} {:>6.1} | {:>6.1} {:>6.1} {:>6.1}",
        "Avg.", avg[0], avg[1], avg[2], avg[3], avg[4], avg[5], avg[6], avg[7], avg[8]
    );
    println!();
}

/// Fig. 9: compression ratio vs execution length.
pub fn fig9(scale: &Scale) {
    println!("Figure 9. Scalability of compression ratio with run length.");
    let lens: Vec<u64> = (0..4).map(|i| scale.fig9_base << i).collect();
    print!("{:<14}", "Benchmark");
    for l in &lens {
        print!(" {:>12}", format!("{:.1}M", millions(*l)));
    }
    println!();
    rule(14 + 13 * lens.len());
    let rows = per_workload(scale, |kind| {
        lens.iter()
            .map(|&l| {
                let mut b = build_wet(kind, l, WetConfig::default());
                b.wet.compress();
                b.wet.sizes().ratio()
            })
            .collect::<Vec<f64>>()
    });
    for (kind, ratios) in rows {
        print!("{:<14}", kind.name());
        for r in ratios {
            print!(" {:>12.2}", r);
        }
        println!();
    }
    println!();
}

/// Ablations over the design choices DESIGN.md calls out.
pub fn ablation(scale: &Scale) {
    let target = scale.timing_stmts;

    println!("Ablation A. Edge-label timestamp mode (local vs global).");
    println!("{:<14} {:>16} {:>16} {:>8}", "Benchmark", "local T2 (MB)", "global T2 (MB)", "gain");
    rule(60);
    let rows = per_workload(scale, |kind| {
        let mut local = build_wet(kind, target, WetConfig { ts_mode: TsMode::Local, ..Default::default() });
        local.wet.compress();
        let mut global = build_wet(kind, target, WetConfig { ts_mode: TsMode::Global, ..Default::default() });
        global.wet.compress();
        (local.wet.sizes().t2_edges, global.wet.sizes().t2_edges)
    });
    for (kind, (l, g)) in rows {
        println!(
            "{:<14} {:>16.2} {:>16.2} {:>8.2}",
            kind.name(),
            mb(l),
            mb(g),
            g as f64 / l.max(1) as f64
        );
    }
    println!();

    println!("Ablation B. Value grouping (patterns) on vs off.");
    println!(
        "{:<14} {:>14} {:>14} {:>14} {:>14}",
        "Benchmark", "on T1 (MB)", "off T1 (MB)", "on T2 (MB)", "off T2 (MB)"
    );
    rule(76);
    let rows = per_workload(scale, |kind| {
        let mut on = build_wet(kind, target, WetConfig::default());
        on.wet.compress();
        let mut off = build_wet(kind, target, WetConfig { group_values: false, ..Default::default() });
        off.wet.compress();
        (*on.wet.sizes(), *off.wet.sizes())
    });
    for (kind, (on, off)) in rows {
        println!(
            "{:<14} {:>14.2} {:>14.2} {:>14.2} {:>14.2}",
            kind.name(),
            mb(on.t1_vals),
            mb(off.t1_vals),
            mb(on.t2_vals),
            mb(off.t2_vals)
        );
    }
    println!();

    println!("Ablation C. Local-edge inference and label sharing on vs off.");
    println!(
        "{:<14} {:>14} {:>14} {:>10} {:>12}",
        "Benchmark", "on T1 (MB)", "off T1 (MB)", "inferred", "shared seqs"
    );
    rule(70);
    let rows = per_workload(scale, |kind| {
        let on = build_wet(kind, target, WetConfig::default());
        let off = build_wet(
            kind,
            target,
            WetConfig { infer_local_edges: false, share_edge_labels: false, ..Default::default() },
        );
        (
            on.wet.sizes().t1_edges,
            off.wet.sizes().t1_edges,
            on.wet.stats().inferred_edges,
            on.wet.stats().shared_label_seqs,
        )
    });
    for (kind, (on_e, off_e, inferred, shared)) in rows {
        println!(
            "{:<14} {:>14.2} {:>14.2} {:>10} {:>12}",
            kind.name(),
            mb(on_e),
            mb(off_e),
            inferred,
            shared
        );
    }
    println!();

    println!("Ablation D. Node granularity: Ball-Larus paths vs basic blocks.");
    println!(
        "{:<14} {:>14} {:>14} {:>12} {:>12}",
        "Benchmark", "BL ts T2 (MB)", "Blk ts T2 (MB)", "BL ratio", "Blk ratio"
    );
    rule(72);
    let rows = per_workload(scale, |kind| {
        let mut blp = build_wet(kind, target, WetConfig::default());
        blp.wet.compress();
        let mut blk = build_wet_with(
            kind,
            target,
            WetConfig::default(),
            BallLarusConfig { granularity: NodeGranularity::Block, max_paths: u64::MAX },
        );
        blk.wet.compress();
        (*blp.wet.sizes(), *blk.wet.sizes())
    });
    for (kind, (blp, blk)) in rows {
        println!(
            "{:<14} {:>14.3} {:>14.3} {:>12.2} {:>12.2}",
            kind.name(),
            mb(blp.t2_ts),
            mb(blk.t2_ts),
            blp.ratio(),
            blk.ratio()
        );
    }
    println!();

    println!("Ablation E. Bidirectional predictors vs Sequitur on WET streams.");
    println!(
        "{:<14} {:>16} {:>16} {:>16} {:>16}",
        "Stream", "raw (KB)", "predictor (KB)", "sequitur (KB)", "pred. method"
    );
    rule(84);
    // Sample one timestamp stream and one value stream from a workload.
    let b = build_wet(Kind::Gcc, target.min(500_000), WetConfig::default());
    let wet = b.wet;
    let big = (0..wet.nodes().len())
        .max_by_key(|&i| wet.nodes()[i].n_execs)
        .expect("nodes exist");
    let node = wet_core::NodeId(big as u32);
    let ts = wet.node(node).ts.to_vec_snapshot();
    let val = {
        let n = wet.node(node);
        let stmt = n.stmts.iter().find(|s| s.has_def).expect("def stmt").id;
        let mut cur = wet_core::Cursor::new(&wet);
        (0..n.n_execs as usize).map(|k| cur.value_at(node, stmt, k).unwrap_or(0) as u64).collect::<Vec<u64>>()
    };
    for (name, stream) in [("timestamps", ts), ("values", val)] {
        let cfg = StreamConfig::default();
        let cs = CompressedStream::compress_auto(&stream, &cfg);
        let sq = sequitur::compress(&stream);
        println!(
            "{:<14} {:>16.2} {:>16.2} {:>16.2} {:>16}",
            name,
            stream.len() as f64 * 8.0 / 1024.0,
            cs.compressed_bits() as f64 / 8.0 / 1024.0,
            sq.compressed_bits() as f64 / 8.0 / 1024.0,
            cs.method().name()
        );
    }
    println!();

    println!("Ablation F. Bidirectional vs unidirectional backward traversal.");
    println!("(reading a 20k-value timestamp stream back to front)");
    println!("{:<16} {:>12} {:>12} {:>12}", "scheme", "bits", "bwd (ms)", "restarts");
    rule(56);
    {
        let data: Vec<u64> = {
            let mut t = 0u64;
            (0..20_000).map(|i| {
                t += [1u64, 1, 3, 1, 7][i % 5];
                t
            }).collect()
        };
        let cfg = StreamConfig::default();
        let mut bidi = CompressedStream::compress_auto(&data, &cfg);
        let (_, t_bidi) = timed(|| {
            for i in (0..data.len()).rev() {
                std::hint::black_box(bidi.get(i));
            }
        });
        let mut uni = wet_stream::unidir::UnidirStream::compress(&data, 14);
        let (_, t_uni) = timed(|| {
            for i in (0..data.len()).rev() {
                std::hint::black_box(uni.get(i));
            }
        });
        println!("{:<16} {:>12} {:>12.2} {:>12}", "bidirectional", bidi.compressed_bits(), t_bidi * 1e3, 0);
        println!(
            "{:<16} {:>12} {:>12.2} {:>12}",
            "unidirectional",
            uni.compressed_bits(),
            t_uni * 1e3,
            uni.restarts()
        );
    }
    println!();

    println!("Stream method selection histogram (gcc-like, tier-2):");
    let mut b = build_wet(Kind::Gcc, target.min(500_000), WetConfig::default());
    b.wet.compress();
    for (m, n) in &b.wet.stats().methods {
        println!("  {:<10} {:>8}", m, n);
    }
    println!();
}
