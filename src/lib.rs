//! # wet — Whole Execution Traces
//!
//! A complete, from-scratch Rust implementation of **"Whole Execution
//! Traces"** (Xiangyu Zhang and Rajiv Gupta, MICRO 2004): a unified
//! representation of *all* the dynamic profile information of a program
//! run — control flow, values, addresses, and data/control dependences
//! — compressed in two tiers yet traversable in both directions.
//!
//! This facade crate re-exports the subsystem crates:
//!
//! * [`ir`] — the intermediate language, CFG analyses (dominators,
//!   control dependence) and Ball–Larus path profiling;
//! * [`interp`] — the tracing interpreter (the "simulator" substrate);
//! * [`arch`] — branch predictor and cache simulators for
//!   architecture-specific bit histories;
//! * [`stream`] — bidirectional predictor-based stream compression
//!   (tier 2) plus the Sequitur baseline;
//! * [`core`] — the WET itself: construction, tier-1 customized
//!   compression, and the profile queries;
//! * [`workloads`] — nine synthetic SPEC-like benchmark programs.
//!
//! # Quickstart
//!
//! ```
//! use wet::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // 1. Get a program (here: a bundled workload at a tiny scale).
//! let w = wet::workloads::build(wet::workloads::Kind::Gcc, 20_000);
//!
//! // 2. Trace it into a WET and compress both tiers.
//! let bl = BallLarus::new(&w.program);
//! let mut builder = WetBuilder::new(&w.program, &bl, WetConfig::default());
//! Interp::new(&w.program, &bl, InterpConfig::default()).run(&w.inputs, &mut builder)?;
//! let mut wet = builder.finish();
//! wet.compress();
//!
//! // 3. Query it: full control-flow trace, value traces, slices...
//! let trace = query::cf_trace_forward(&wet).unwrap();
//! assert_eq!(trace.len() as u64, wet.stats().paths_executed);
//! println!("compression ratio: {:.1}", wet.sizes().ratio());
//! # Ok(())
//! # }
//! ```

pub use wet_arch as arch;
pub use wet_core as core;
pub use wet_interp as interp;
pub use wet_ir as ir;
pub use wet_serve as serve;
pub use wet_stream as stream;
pub use wet_workloads as workloads;

/// The most common imports for building and querying WETs.
pub mod prelude {
    pub use wet_core::query;
    pub use wet_core::{TsMode, Wet, WetBuilder, WetConfig};
    pub use wet_interp::{Interp, InterpConfig, Recorder, TraceSink};
    pub use wet_ir::ballarus::BallLarus;
    pub use wet_ir::builder::ProgramBuilder;
    pub use wet_ir::stmt::{BinOp, Operand, UnOp};
    pub use wet_ir::{Program, StmtId};
}
