//! Control-flow trace extraction (paper §2: "If a node is labeled with
//! `<t, −>`, the node that is executed next must be labeled with
//! `<t + 1, −>`").
//!
//! The trace is recovered by combining the unlabeled static CF edges
//! with the timestamp sequences: from the node execution at time `t`,
//! the successor is the unique CF-successor node whose timestamp stream
//! contains `t + 1`. The query's [`Cursor`] keeps one window per node
//! stream, and each advances monotonically, so a full extraction costs
//! time linear in the trace in either direction — the property Table 6
//! measures.
//!
//! Every extraction loop here is a cooperative cancel point (see
//! [`crate::query::ctl`]): the `*_ctl` entry points honor deadlines and
//! cancel tokens, and a timestamp no surviving sequence can account for
//! becomes a typed [`QueryErr::Corrupt`] instead of a panic.

use crate::graph::{NodeId, Wet};
use crate::query::ctl::{Ctl, QueryErr};
use crate::query::Degraded;
use crate::seq::Cursor;
use wet_ir::{BlockId, FuncId};

/// One step of the node-level control-flow trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CfStep {
    /// The executed node (path).
    pub node: NodeId,
    /// Its execution index.
    pub k: u32,
    /// The timestamp.
    pub ts: u64,
}

/// Extracts the full control-flow trace front to back.
pub fn cf_trace_forward(wet: &Wet) -> Result<Vec<CfStep>, QueryErr> {
    cf_trace_forward_ctl(wet, &Ctl::unbounded())
}

/// [`cf_trace_forward`] with cooperative cancellation: checks `ctl`
/// once per [`crate::query::CHECK_INTERVAL`] steps.
pub fn cf_trace_forward_ctl(wet: &Wet, ctl: &Ctl) -> Result<Vec<CfStep>, QueryErr> {
    let _span = wet_obs::span!("query.cf_trace_forward");
    cf_trace_whole(wet, true, ctl)
}

/// Extracts the full control-flow trace back to front. The returned
/// steps are in reverse execution order (last first).
pub fn cf_trace_backward(wet: &Wet) -> Result<Vec<CfStep>, QueryErr> {
    cf_trace_backward_ctl(wet, &Ctl::unbounded())
}

/// [`cf_trace_backward`] with cooperative cancellation.
pub fn cf_trace_backward_ctl(wet: &Wet, ctl: &Ctl) -> Result<Vec<CfStep>, QueryErr> {
    let _span = wet_obs::span!("query.cf_trace_backward");
    cf_trace_whole(wet, false, ctl)
}

/// The whole trace from the first (or last) execution.
fn cf_trace_whole(wet: &Wet, forward: bool, ctl: &Ctl) -> Result<Vec<CfStep>, QueryErr> {
    let (end, (node, ts)) = if forward { ("first", wet.first()) } else { ("last", wet.last()) };
    let mut cur = Cursor::new(wet);
    let k = cur
        .find_sorted(&wet.node(node).ts, ts)
        .ok_or_else(|| QueryErr::Corrupt(format!("{end} node does not hold ts {ts}")))?;
    cf_walk(&mut cur, CfStep { node, k: k as u32, ts }, forward, usize::MAX, ctl)
}

/// Walks up to `count` steps (at least `start` itself) from `start`
/// towards the end of the execution in the given direction, recording
/// the step count as a `query.rows` observation and the cursor's work
/// as `query.cursor_*` ones.
fn cf_walk(
    cur: &mut Cursor<'_>,
    start: CfStep,
    forward: bool,
    count: usize,
    ctl: &Ctl,
) -> Result<Vec<CfStep>, QueryErr> {
    let wet = cur.wet();
    let (_, first_ts) = wet.first();
    let (_, last_ts) = wet.last();
    let span = if forward { last_ts.saturating_sub(start.ts) } else { start.ts.saturating_sub(first_ts) };
    let mut steps = Vec::with_capacity(span.min(count as u64) as usize + 1);
    steps.push(start);
    let mut at = start;
    while steps.len() < count && if forward { at.ts < last_ts } else { at.ts > first_ts } {
        ctl.check_every(steps.len())?;
        at = cf_step(cur, at, forward)?;
        steps.push(at);
    }
    let kind = if forward { "cf_trace_forward" } else { "cf_trace_backward" };
    wet_obs::hist_record("query.rows", kind, steps.len() as u64);
    cur.record(kind);
    Ok(steps)
}

/// The execution adjacent to `from`: the CF successor (or predecessor)
/// node whose timestamp stream holds `from.ts ± 1`.
fn cf_step(cur: &mut Cursor<'_>, from: CfStep, forward: bool) -> Result<CfStep, QueryErr> {
    let ts = if forward { from.ts + 1 } else { from.ts - 1 };
    let wet = cur.wet();
    let n = wet.node(from.node);
    for &nb in if forward { &n.cf_succs } else { &n.cf_preds } {
        // Range skip: a neighbour whose timestamp interval excludes the
        // target needs no stream probe at all.
        let n = wet.node(nb);
        if ts < n.ts_first || ts > n.ts_last {
            continue;
        }
        if let Some(k) = cur.find_sorted(&n.ts, ts) {
            return Ok(CfStep { node: nb, k: k as u32, ts });
        }
    }
    let side = if forward { "successor" } else { "predecessor" };
    Err(QueryErr::Corrupt(format!("no {side} node holds ts {ts}")))
}

/// The partial forward control-flow trace: every step the surviving
/// timestamp streams and the [`crate::query::Budget`] attached to `ctl`
/// allow, in execution order, plus a [`Degraded`] report of the holes.
///
/// Nodes are covered in index order while the budget admits their
/// decoded timestamp bytes (8 per execution, decided from decode-free
/// stream lengths *before* any decompression); a node the budget cannot
/// afford, or whose timestamp stream was lost to salvage, is skipped
/// and counted, and the missing timestamp ranges are reported as gaps.
/// Exhaustion is never an error, and a pure byte budget is
/// byte-deterministic: the same budget on the same trace always yields
/// the same steps and gaps. A soft wall budget additionally stops
/// coverage when time runs out; that cutoff is timing-dependent.
///
/// With no budget attached this is the salvage answer: where
/// [`cf_trace_forward`] returns [`QueryErr::Corrupt`] for a timestamp
/// it cannot locate, this resynchronizes past the missing range. On a
/// cleanly loaded WET it equals the strict trace with a complete report.
pub fn cf_trace_forward_partial(wet: &Wet, ctl: &Ctl) -> Result<(Vec<CfStep>, Degraded), QueryErr> {
    let _span = wet_obs::span!("query.cf_trace_forward_partial");
    let mut deg = Degraded::default();
    let mut steps = Vec::new();
    for (i, n) in wet.nodes().iter().enumerate() {
        ctl.check_every(i)?;
        if ctl.wall_exhausted() || !ctl.try_charge(8 * n.ts.len() as u64) {
            deg.nodes_skipped += 1;
            continue;
        }
        match n.ts.try_to_vec_snapshot() {
            Some(ts) => {
                for (k, &t) in ts.iter().enumerate() {
                    steps.push(CfStep { node: NodeId(i as u32), k: k as u32, ts: t });
                }
            }
            None => deg.nodes_skipped += 1,
        }
    }
    ctl.check()?;
    // Timestamps partition the execution across nodes, so sorting by
    // ts reproduces exactly the successor-chasing order of the strict
    // extraction — for the steps that survived.
    steps.sort_unstable_by_key(|s| s.ts);
    let (_, first_ts) = wet.first();
    let (_, last_ts) = wet.last();
    let mut expected = first_ts;
    for s in &steps {
        if s.ts > expected {
            deg.gaps += 1;
            deg.steps_missing += s.ts - expected;
        }
        expected = s.ts + 1;
    }
    if expected <= last_ts {
        deg.gaps += 1;
        deg.steps_missing += last_ts - expected + 1;
    }
    wet_obs::hist_record("query.rows", "cf_trace_forward_partial", steps.len() as u64);
    Ok((steps, deg))
}

/// Locates the node execution holding timestamp `ts` by checking node
/// timestamp ranges and probing candidates' streams.
pub fn locate_ts(wet: &Wet, ts: u64) -> Option<CfStep> {
    let mut cur = Cursor::new(wet);
    wet.nodes()
        .iter()
        .enumerate()
        .filter(|(_, n)| n.n_execs > 0 && n.ts_first <= ts && ts <= n.ts_last)
        .find_map(|(i, n)| Some(CfStep { node: NodeId(i as u32), k: cur.find_sorted(&n.ts, ts)? as u32, ts }))
}

/// Extracts up to `count` trace steps starting *at any execution
/// point* (paper §5.2: "Such a request can be made with respect to any
/// point either along the execution flow (forward) or in the reverse
/// direction"). `forward` selects the direction; the step at `ts`
/// itself is included.
///
/// Returns an empty vector when `ts` is outside the execution.
pub fn cf_trace_from(wet: &Wet, ts: u64, count: usize, forward: bool) -> Result<Vec<CfStep>, QueryErr> {
    let _span = wet_obs::span!("query.cf_trace_from");
    let Some(start) = locate_ts(wet, ts) else { return Ok(Vec::new()) };
    cf_walk(&mut Cursor::new(wet), start, forward, count, &Ctl::unbounded())
}

/// Expands a node-level trace into the basic-block trace.
pub fn expand_blocks(wet: &Wet, steps: &[CfStep]) -> Vec<(FuncId, BlockId)> {
    let mut out = Vec::new();
    for s in steps {
        let n = wet.node(s.node);
        out.extend(n.blocks.iter().map(|&b| (n.func, b)));
    }
    out
}

/// Size of the block-level trace in bytes (4 bytes per executed block,
/// the unit Table 6 reports trace sizes in).
pub fn trace_bytes(wet: &Wet, steps: &[CfStep]) -> u64 {
    steps.iter().map(|s| 4 * wet.node(s.node).blocks.len() as u64).sum()
}
