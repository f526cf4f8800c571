//! Explore how the two compression tiers behave across workloads and
//! stream-compression methods.
//!
//! For each bundled workload this prints the per-component sizes at
//! each tier and the histogram of tier-2 methods the per-stream
//! selection chose — showing *why* timestamp streams compress so much
//! better than value streams (the paper's central size observation).
//!
//! ```sh
//! cargo run --release --example compression_explorer
//! ```

use wet::prelude::*;
use wet::workloads::Kind;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let target = 300_000;
    println!(
        "{:<13} {:>9} {:>9} {:>9} | {:>8} {:>8} {:>8} | {:>7}",
        "workload", "orig KB", "t1 KB", "t2 KB", "ts x", "vals x", "edges x", "ratio"
    );
    println!("{}", "-".repeat(92));
    for kind in Kind::all() {
        let w = wet::workloads::build(kind, target);
        let bl = BallLarus::new(&w.program);
        let mut builder = WetBuilder::new(&w.program, &bl, WetConfig::default());
        Interp::new(&w.program, &bl, InterpConfig::default()).run(&w.inputs, &mut builder)?;
        let mut wet = builder.finish();
        wet.compress();
        let s = wet.sizes();
        let kb = |b: u64| b as f64 / 1024.0;
        let x = |a: u64, b: u64| wet::core::ratio(a, b);
        println!(
            "{:<13} {:>9.0} {:>9.0} {:>9.0} | {:>8.1} {:>8.1} {:>8.1} | {:>7.1}",
            kind.name(),
            kb(s.orig_total()),
            kb(s.t1_total()),
            kb(s.t2_total()),
            x(s.orig_ts, s.t2_ts),
            x(s.orig_vals, s.t2_vals),
            x(s.orig_edges, s.t2_edges),
            s.ratio()
        );
    }

    // Method histogram for one workload: which predictor won per stream?
    let w = wet::workloads::build(Kind::Bzip2, target);
    let bl = BallLarus::new(&w.program);
    let mut builder = WetBuilder::new(&w.program, &bl, WetConfig::default());
    Interp::new(&w.program, &bl, InterpConfig::default()).run(&w.inputs, &mut builder)?;
    let mut wet = builder.finish();
    wet.compress();
    println!("\ntier-2 method selection for {} ({} streams):", w.kind.name(), {
        let total: u64 = wet.stats().methods.values().sum();
        total
    });
    for (method, count) in &wet.stats().methods {
        println!("  {:<10} {:>7}", method, count);
    }

    // Bidirectionality demo: read a stream both ways at equal cost.
    println!("\nbidirectional traversal sanity (timestamp stream of the biggest node):");
    let big_idx = (0..wet.nodes().len()).max_by_key(|&i| wet.nodes()[i].n_execs).expect("nodes");
    let big = wet::core::NodeId(big_idx as u32);
    let ts = &wet.node(big).ts;
    let n_execs = ts.len();
    let mut cur = wet::core::Cursor::new(&wet);
    let t0 = std::time::Instant::now();
    let _fwd: Vec<u64> = (0..n_execs).map(|k| cur.get(ts, k)).collect();
    let fwd_t = t0.elapsed();
    let t0 = std::time::Instant::now();
    let _bwd: Vec<u64> = (0..n_execs).rev().map(|k| cur.get(ts, k)).collect();
    let bwd_t = t0.elapsed();
    println!("  {} executions: forward {:?}, backward {:?}", n_execs, fwd_t, bwd_t);
    Ok(())
}
