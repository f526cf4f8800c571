//! Queries over the compressed WET (paper §2 "Queries" and §5.2).
//!
//! Each query works identically against the tier-1 and tier-2 forms of
//! a [`crate::Wet`]; the paper's Tables 6–9 compare their response
//! times.
//!
//! Every query has a strict form, which answers in full or fails with
//! [`QueryErr::Corrupt`], and the forward CF trace, the value and
//! address traces and the backward slice also have a partial form
//! (`*_partial`), which answers what the surviving data and the
//! request's [`Budget`] cover plus a [`Degraded`] report of the rest.
//! A partial form with no budget attached is the salvage answer.

pub mod cftrace;
pub mod ctl;
pub mod engine;
pub mod mine;
pub mod phases;
pub mod slice;

pub use cftrace::{
    cf_trace_backward, cf_trace_backward_ctl, cf_trace_forward, cf_trace_forward_ctl, cf_trace_forward_partial,
    cf_trace_from, expand_blocks, locate_ts, trace_bytes, CfStep,
};
pub use ctl::{Budget, Ctl, QueryErr, CHECK_INTERVAL};
pub use engine::{
    address_trace, address_trace_ctl, address_trace_partial, value_trace, value_trace_ctl, value_trace_partial,
};
pub use mine::{hot_paths, isomorphic_statements, value_locality, HotPath, ValueLocality};
pub use phases::{cluster_phases, interval_vectors, IntervalVector, Phases};
pub use slice::{
    backward_slice, backward_slice_ctl, backward_slice_partial, forward_slice, SliceSpec, WetSlice, WetSliceElem,
};

/// What a partial query could *not* answer. After
/// [`crate::Wet::read_salvaging`] recovers a damaged container, label
/// sequences lost with their section are [`crate::Seq::Unavailable`],
/// and a [`Budget`] may stop a query before it covers everything; the
/// `*_partial` query functions return every part of the answer the
/// surviving sequences and the budget support, plus this report of the
/// holes. A default (all-zero) report means the result is complete — on
/// a cleanly loaded WET with no budget the partial functions agree
/// exactly with their strict counterparts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Degraded {
    /// Nodes whose contribution was dropped because a backing sequence
    /// (timestamps, pattern, unique values) was unavailable.
    pub nodes_skipped: u64,
    /// Contiguous timestamp ranges missing from a control-flow trace.
    pub gaps: u64,
    /// Node executions lost inside those gaps.
    pub steps_missing: u64,
    /// Unavailable sequences encountered while resolving dependences —
    /// each one is a producer edge the slice may be missing.
    pub seqs_unavailable: u64,
}

impl Degraded {
    /// True when nothing was lost: the result equals the strict query's.
    pub fn is_complete(&self) -> bool {
        *self == Degraded::default()
    }

    /// Accumulates another report (for queries composed of sub-queries).
    pub fn absorb(&mut self, other: &Degraded) {
        self.nodes_skipped += other.nodes_skipped;
        self.gaps += other.gaps;
        self.steps_missing += other.steps_missing;
        self.seqs_unavailable += other.seqs_unavailable;
    }
}
