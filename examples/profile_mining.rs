//! Profile mining over a WET: hot paths, value locality, and
//! isomorphic statements — the compiler/architecture-facing analyses
//! the paper's introduction says a unified profile representation
//! should enable.
//!
//! ```sh
//! cargo run --release --example profile_mining
//! ```

use wet::prelude::*;
use wet::workloads::Kind;
use wet_core::query::{mine, phases};

/// Runs interval/phase analysis; returns (interval count,
/// per-phase (representative, size) pairs).
fn mine_phases(wet: &mut wet_core::Wet) -> (usize, Vec<(usize, usize)>) {
    let vectors = phases::interval_vectors(wet, 500).unwrap();
    let n = vectors.len();
    let ph = phases::cluster_phases(&vectors, 4);
    (n, ph.representatives.iter().copied().zip(ph.sizes.iter().copied()).collect())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let w = wet::workloads::build(Kind::Li, 300_000);
    let bl = BallLarus::new(&w.program);
    let mut builder = WetBuilder::new(&w.program, &bl, WetConfig::default());
    Interp::new(&w.program, &bl, InterpConfig::default()).run(&w.inputs, &mut builder)?;
    let mut wet = builder.finish();
    wet.compress();

    println!("=== hot paths of {} (for path-sensitive optimization) ===", w.kind.name());
    let total: u64 = wet.nodes().iter().map(|n| n.n_execs as u64).sum();
    for h in mine::hot_paths(&wet, 5) {
        println!(
            "  n{:<3} f{} blocks {:?}  {:>8} execs ({:.1}%)",
            h.node.0,
            h.func.0,
            h.blocks.iter().map(|b| b.0).collect::<Vec<_>>(),
            h.count,
            100.0 * h.count as f64 / total as f64
        );
    }

    println!("\n=== value locality (candidates for value prediction/specialization) ===");
    println!(
        "{:>6} {:>9} {:>9} {:>8} {:>9} {:>10}",
        "stmt", "execs", "distinct", "top %", "last %", "top value"
    );
    let mut rows: Vec<(StmtId, mine::ValueLocality)> = (0..w.program.stmt_count() as u32)
        .map(StmtId)
        .filter_map(|s| mine::value_locality(&wet, s).map(|l| (s, l)))
        .filter(|(_, l)| l.execs >= 100)
        .collect();
    rows.sort_by(|a, b| b.1.top_share.partial_cmp(&a.1.top_share).unwrap());
    for (s, l) in rows.iter().take(8) {
        println!(
            "{:>6} {:>9} {:>9} {:>8.1} {:>9.1} {:>10}",
            s.to_string(),
            l.execs,
            l.distinct,
            100.0 * l.top_share,
            100.0 * l.last_value_rate,
            l.top_value
        );
    }

    println!("\n=== phase analysis (SimPoint-style, over the compressed WET) ===");
    let vectors = mine_phases(&mut wet);
    println!("  intervals: {}", vectors.0);
    for (c, (rep, size)) in vectors.1.iter().enumerate() {
        println!("  phase {c}: {size} intervals, simulate interval #{rep}");
    }

    println!("\n=== isomorphic statements (always produce identical values) ===");
    let all: Vec<StmtId> = (0..w.program.stmt_count() as u32).map(StmtId).collect();
    let groups = mine::isomorphic_statements(&wet, &all, 50);
    if groups.is_empty() {
        println!("  none at this scale");
    }
    for g in groups.iter().take(5) {
        println!("  {:?} compute identical dynamic value sequences", g.iter().map(|s| s.0).collect::<Vec<_>>());
    }
    Ok(())
}
