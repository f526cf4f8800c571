//! # wet-bench — experiment harness for the WET paper reproduction
//!
//! One binary per table/figure of the paper's evaluation (§5):
//!
//! | Binary | Reproduces |
//! |---|---|
//! | `table1` | WET sizes and compression ratios |
//! | `table2` | Node label (timestamps, values) compression by tier |
//! | `table3` | Edge label compression by tier |
//! | `table4` | Architecture-specific bit histories |
//! | `table5` | WET construction times |
//! | `table6` | Control-flow trace extraction (fwd/bwd, tier-1/tier-2) |
//! | `table7` | Per-instruction load value traces |
//! | `table8` | Per-instruction load/store address traces |
//! | `table9` | WET slices (avg over 25 criteria) |
//! | `fig2` | Timestamp reduction: blocks vs Ball–Larus paths |
//! | `fig8` | Relative sizes of WET components per tier |
//! | `fig9` | Compression-ratio scalability with run length |
//! | `ablation` | Design-choice ablations + Sequitur comparison |
//! | `all` | Everything above, in EXPERIMENTS.md order (no arguments) |
//!
//! The criterion benches (`streams`, `construction`, `queries`,
//! `compress_scaling`, `capture`) time single layers in isolation.
//! End-to-end and per-layer performance (ingest, store, queries over
//! the socket) is measured by the standalone `perfbench` package at the
//! repository root, not here.
//!
//! Scales are configurable through environment variables:
//! `WET_TABLE_STMTS` (size experiments, default 4,000,000),
//! `WET_TIMING_STMTS` (query-time experiments, default 2,000,000),
//! `WET_FIG9_BASE` (scalability sweep base, default 1,000,000), and
//! `WET_THREADS` (worker threads, default 0 = all available cores;
//! results are byte-identical across thread counts).

use std::time::Instant;
use wet_core::{Wet, WetBuilder, WetConfig};
use wet_interp::{Interp, InterpConfig, RunResult};
use wet_ir::ballarus::{BallLarus, BallLarusConfig};
use wet_ir::Program;
use wet_workloads::Kind;

/// Experiment scales, from the environment or defaults.
#[derive(Debug, Clone)]
pub struct Scale {
    /// Target executed statements for size experiments (Tables 1–4).
    pub table_stmts: u64,
    /// Target executed statements for timing experiments (Tables 5–9).
    pub timing_stmts: u64,
    /// Base length for the Fig. 9 sweep (runs at 1x, 2x, 4x, 8x).
    pub fig9_base: u64,
    /// Worker threads for workload fan-out and parallel compression
    /// (`0` = all available cores).
    pub threads: usize,
}

impl Default for Scale {
    fn default() -> Self {
        Scale { table_stmts: 4_000_000, timing_stmts: 2_000_000, fig9_base: 1_000_000, threads: 0 }
    }
}

impl Scale {
    /// Reads scales from `WET_*` environment variables.
    pub fn from_env() -> Self {
        let get = |k: &str, d: u64| {
            std::env::var(k).ok().and_then(|v| v.parse().ok()).unwrap_or(d)
        };
        let d = Scale::default();
        Scale {
            table_stmts: get("WET_TABLE_STMTS", d.table_stmts),
            timing_stmts: get("WET_TIMING_STMTS", d.timing_stmts),
            fig9_base: get("WET_FIG9_BASE", d.fig9_base),
            threads: get("WET_THREADS", d.threads as u64) as usize,
        }
    }

    /// The resolved worker count (`threads`, with `0` meaning all
    /// available cores).
    pub fn effective_threads(&self) -> usize {
        wet_core::par::effective_threads(self.threads)
    }

    /// A [`WetConfig`] whose compression/extraction phases use this
    /// scale's worker count.
    pub fn wet_config(&self) -> WetConfig {
        let mut config = WetConfig::default();
        config.stream.num_threads = self.threads;
        config
    }
}

/// Runs `f` once per workload on this scale's worker pool, returning
/// the results in [`Kind::all`] order — the harness's workload
/// fan-out. Each result is computed exactly as the sequential loop
/// would compute it; only wall-clock changes with thread count.
pub fn per_workload<R: Send>(scale: &Scale, f: impl Fn(Kind) -> R + Sync) -> Vec<(Kind, R)> {
    let kinds = Kind::all();
    let out = wet_core::par::map(scale.effective_threads(), &kinds, |_, &k| f(k));
    kinds.into_iter().zip(out).collect()
}

/// A workload traced into a (tier-1) WET, with timings.
pub struct BuiltWet {
    /// Which workload.
    pub kind: Kind,
    /// The program (queries need static statement info).
    pub program: Program,
    /// Path numbering.
    pub bl: BallLarus,
    /// Interpreter results.
    pub run: RunResult,
    /// The tier-1 WET (call `wet.compress()` for tier-2).
    pub wet: Wet,
    /// Wall-clock seconds for trace + tier-1 construction.
    pub build_secs: f64,
}

/// Traces one workload into a WET.
pub fn build_wet(kind: Kind, target_stmts: u64, config: WetConfig) -> BuiltWet {
    build_wet_with(kind, target_stmts, config, BallLarusConfig::default())
}

/// Traces one workload with explicit Ball–Larus configuration (for the
/// node-granularity ablation).
pub fn build_wet_with(kind: Kind, target_stmts: u64, config: WetConfig, blc: BallLarusConfig) -> BuiltWet {
    let w = wet_workloads::build(kind, target_stmts);
    let bl = BallLarus::with_config(&w.program, blc);
    let t0 = Instant::now();
    let mut builder = WetBuilder::new(&w.program, &bl, config);
    let run = Interp::new(&w.program, &bl, InterpConfig::default())
        .run(&w.inputs, &mut builder)
        .unwrap_or_else(|e| panic!("{} failed: {e}", kind.name()));
    let wet = builder.finish();
    let build_secs = t0.elapsed().as_secs_f64();
    BuiltWet { kind, program: w.program, bl, run, wet, build_secs }
}

/// Bytes to binary megabytes.
pub fn mb(bytes: u64) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}

/// Statement count in millions.
pub fn millions(n: u64) -> f64 {
    n as f64 / 1.0e6
}

/// Times a closure, returning `(result, seconds)`.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let r = f();
    (r, t0.elapsed().as_secs_f64())
}

/// Prints a rule line sized for the preceding header.
pub fn rule(width: usize) {
    println!("{}", "-".repeat(width));
}

/// A tiny deterministic RNG for criterion selection (not for workload
/// data — those use in-IR LCGs).
#[derive(Debug, Clone)]
pub struct BenchRng(u64);

impl BenchRng {
    /// Seeded constructor.
    pub fn new(seed: u64) -> Self {
        BenchRng(seed.max(1))
    }

    /// Next value in `[0, bound)`.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0 % bound.max(1)
    }
}

/// Picks `count` slice criteria spread over a WET: `(node, stmt, k)`
/// triples of def-bearing statements.
pub fn pick_slice_criteria(wet: &Wet, count: usize, seed: u64) -> Vec<wet_core::query::WetSliceElem> {
    let mut rng = BenchRng::new(seed);
    let mut out = Vec::with_capacity(count);
    let n_nodes = wet.nodes().len() as u64;
    let mut guard = 0;
    while out.len() < count && guard < count * 100 {
        guard += 1;
        let node = wet_core::NodeId(rng.next_below(n_nodes) as u32);
        let n = wet.node(node);
        if n.n_execs == 0 || n.stmts.is_empty() {
            continue;
        }
        let si = rng.next_below(n.stmts.len() as u64) as usize;
        let ns = n.stmts[si];
        if !ns.has_def {
            continue;
        }
        let k = rng.next_below(n.n_execs as u64) as u32;
        out.push(wet_core::query::WetSliceElem { node, stmt: ns.id, k });
    }
    out
}
pub mod experiments;

#[cfg(test)]
mod tests {
    use super::*;
    use wet_core::WetConfig;
    use wet_workloads::Kind;

    #[test]
    fn build_wet_produces_consistent_stats() {
        let b = build_wet(Kind::Gcc, 20_000, WetConfig::default());
        assert_eq!(b.run.paths_executed, b.wet.stats().paths_executed);
        assert_eq!(b.run.stmts_executed, b.wet.stats().stmts_executed);
        assert!(b.build_secs >= 0.0);
    }

    #[test]
    fn slice_criteria_are_valid_and_deterministic() {
        let b = build_wet(Kind::Parser, 20_000, WetConfig::default());
        let a = pick_slice_criteria(&b.wet, 10, 7);
        let c = pick_slice_criteria(&b.wet, 10, 7);
        assert_eq!(a.len(), 10);
        assert_eq!(a, c, "same seed, same criteria");
        for e in &a {
            let n = b.wet.node(e.node);
            assert!(n.stmt_pos(e.stmt).is_some());
            assert!(e.k < n.n_execs);
        }
        let d = pick_slice_criteria(&b.wet, 10, 8);
        assert_ne!(a, d, "different seed, different criteria");
    }

    #[test]
    fn scale_env_overrides() {
        // Defaults when unset.
        let s = Scale::default();
        assert!(s.table_stmts > s.timing_stmts / 10);
        let m = mb(1024 * 1024);
        assert!((m - 1.0).abs() < 1e-12);
        assert!((millions(2_500_000) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn bench_rng_bounds() {
        let mut r = BenchRng::new(0); // zero seed is fixed up internally
        for _ in 0..100 {
            assert!(r.next_below(7) < 7);
        }
        assert_eq!(BenchRng::new(5).next_below(0), 0, "zero bound is safe");
    }
}
