//! Value and address profiling from a compressed WET.
//!
//! Extracts per-instruction load value traces (the paper's motivating
//! use case for value predictors) and load/store address traces (for
//! prefetcher design) from a workload's WET, then reports value
//! locality and stride statistics — all computed from the *compressed*
//! representation.
//!
//! ```sh
//! cargo run --release --example value_profiling
//! ```

use std::collections::HashMap;
use wet::prelude::*;
use wet::workloads::Kind;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let w = wet::workloads::build(Kind::Gzip, 400_000);
    let bl = BallLarus::new(&w.program);
    let mut builder = WetBuilder::new(&w.program, &bl, WetConfig::default());
    Interp::new(&w.program, &bl, InterpConfig::default()).run(&w.inputs, &mut builder)?;
    let mut wet = builder.finish();
    wet.compress();
    println!(
        "workload {}: ratio {:.1}, {} nodes\n",
        w.kind.name(),
        wet.sizes().ratio(),
        wet.stats().nodes
    );

    // All load statements of the program.
    let loads: Vec<StmtId> = (0..w.program.stmt_count() as u32)
        .map(StmtId)
        .filter(|&s| {
            matches!(
                w.program.stmt_ref(s),
                wet::ir::program::StmtRef::Stmt(st)
                    if matches!(st.kind, wet::ir::stmt::StmtKind::Load { .. })
            )
        })
        .collect();
    println!("{} static load statements\n", loads.len());

    println!(
        "{:>6} {:>10} {:>10} {:>9} {:>9} {:>10}",
        "load", "dyn execs", "distinct", "top1 %", "last hit%", "top value"
    );
    for &s in loads.iter().take(10) {
        let trace = query::value_trace(&wet, s, 1).unwrap();
        if trace.is_empty() {
            continue;
        }
        let mut freq: HashMap<i64, u64> = HashMap::new();
        let mut last_hits = 0u64;
        let mut prev: Option<i64> = None;
        for &(_, v) in &trace {
            *freq.entry(v).or_default() += 1;
            if prev == Some(v) {
                last_hits += 1;
            }
            prev = Some(v);
        }
        let (top_v, top_n) = freq.iter().max_by_key(|(_, &n)| n).map(|(&v, &n)| (v, n)).expect("nonempty");
        println!(
            "{:>6} {:>10} {:>10} {:>9.1} {:>9.1} {:>10}",
            s.to_string(),
            trace.len(),
            freq.len(),
            100.0 * top_n as f64 / trace.len() as f64,
            100.0 * last_hits as f64 / trace.len() as f64,
            top_v
        );
    }

    // Address traces: stride profile of the most-executed load.
    let busiest = loads
        .iter()
        .copied()
        .max_by_key(|&s| query::value_trace(&wet, s, 1).unwrap().len())
        .expect("loads exist");
    let addrs = query::address_trace(&wet, &w.program, busiest, 1).unwrap();
    let mut strides: HashMap<i64, u64> = HashMap::new();
    for pair in addrs.windows(2) {
        strides.entry(pair[1].1 as i64 - pair[0].1 as i64).and_modify(|n| *n += 1).or_insert(1);
    }
    let mut top: Vec<(i64, u64)> = strides.into_iter().collect();
    top.sort_by_key(|&(_, n)| std::cmp::Reverse(n));
    println!("\naddress stride profile of {busiest} ({} accesses):", addrs.len());
    for (stride, n) in top.into_iter().take(5) {
        println!("  stride {:>6}: {:>8} ({:.1}%)", stride, n, 100.0 * n as f64 / (addrs.len() - 1) as f64);
    }
    Ok(())
}
