//! WET slices (paper §2 and §5.2, Table 9).
//!
//! A backward WET slice of a statement instance is the subgraph of the
//! WET reachable backward over data and control dependence edges — the
//! complete profile history that led to the value. A forward slice
//! follows the edges the other way. Both traversals run directly on
//! the (tier-1 or tier-2) compressed representation, through one
//! [`Cursor`] per query.

use crate::graph::{LabelSeq, NodeId, TsMode, Wet, SLOT_CD, SLOT_MEM, SLOT_OP0, SLOT_OP1};
use crate::query::ctl::{Ctl, QueryErr};
use crate::query::Degraded;
use crate::seq::Cursor;
use std::collections::{BTreeSet, HashMap};
use wet_ir::{Program, StmtId};

/// A dynamic statement instance addressed WET-style.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WetSliceElem {
    /// Containing node.
    pub node: NodeId,
    /// The statement.
    pub stmt: StmtId,
    /// Node execution index.
    pub k: u32,
}

/// Which dependence kinds a slice follows.
#[derive(Debug, Clone, Copy)]
pub struct SliceSpec {
    /// Follow data dependences.
    pub data: bool,
    /// Follow control dependences.
    pub control: bool,
}

impl Default for SliceSpec {
    fn default() -> Self {
        SliceSpec { data: true, control: true }
    }
}

/// A computed WET slice.
#[derive(Debug, Clone)]
pub struct WetSlice {
    /// The slice as `(stmt, ts)` pairs — the stable identity used to
    /// compare against reference slicers.
    pub stamped: BTreeSet<(StmtId, u64)>,
}

impl WetSlice {
    /// Number of dynamic instances in the slice.
    pub fn len(&self) -> usize {
        self.stamped.len()
    }

    /// True for an empty slice (never, for a valid criterion).
    pub fn is_empty(&self) -> bool {
        self.stamped.is_empty()
    }

    /// Distinct static statements in the slice.
    pub fn static_stmts(&self) -> BTreeSet<StmtId> {
        self.stamped.iter().map(|&(s, _)| s).collect()
    }
}

/// The CD anchor (block terminator) for a statement occurrence.
fn cd_anchor(wet: &Wet, program: &Program, node: NodeId, stmt: StmtId) -> Option<StmtId> {
    let n = wet.node(node);
    let pos = n.stmt_pos(stmt)?;
    let block = n.blocks[n.stmts[pos].block_idx as usize];
    Some(program.function(n.func).block(block).term().id)
}

/// Computes the backward WET slice from `criterion`. Returns
/// [`QueryErr::Corrupt`] when the traversal reaches a sequence lost to
/// salvage (use [`backward_slice_partial`] for partial answers).
///
/// # Panics
/// Panics if the criterion statement is not part of the criterion node.
pub fn backward_slice(
    wet: &Wet,
    program: &Program,
    criterion: WetSliceElem,
    spec: SliceSpec,
) -> Result<WetSlice, QueryErr> {
    backward_slice_ctl(wet, program, criterion, spec, &Ctl::unbounded())
}

/// [`backward_slice`] with cooperative cancellation (one check per
/// visited instance).
pub fn backward_slice_ctl(
    wet: &Wet,
    program: &Program,
    criterion: WetSliceElem,
    spec: SliceSpec,
    ctl: &Ctl,
) -> Result<WetSlice, QueryErr> {
    let _span = wet_obs::span!("query.backward_slice");
    assert!(
        wet.node(criterion.node).stmt_pos(criterion.stmt).is_some(),
        "criterion statement not in node"
    );
    backward_walk(wet, program, criterion, spec, ctl, None)
}

/// The partial [`backward_slice_ctl`]: follows every dependence the
/// surviving sequences can resolve and reports what it could not
/// reach. Instances whose node timestamp stream was lost stay in the
/// traversal (their `k` is still exact) but cannot be stamped with a
/// timestamp, so they are absent from `stamped`; every unavailable
/// sequence consulted while resolving a producer is counted — each is
/// a dependence edge the slice may be missing. Lost data stays a
/// *report*, never an error; only cancellation or the deadline aborts
/// the traversal. On a fully available WET the result and report
/// match the strict slice exactly. Slices take no budget: truncating a
/// dependence chain would change what the slice means.
pub fn backward_slice_partial(
    wet: &Wet,
    program: &Program,
    criterion: WetSliceElem,
    spec: SliceSpec,
    ctl: &Ctl,
) -> Result<(WetSlice, Degraded), QueryErr> {
    let _span = wet_obs::span!("query.backward_slice_partial");
    let mut deg = Degraded::default();
    if wet.node(criterion.node).stmt_pos(criterion.stmt).is_none() {
        return Ok((WetSlice { stamped: BTreeSet::new() }, deg));
    }
    let slice = backward_walk(wet, program, criterion, spec, ctl, Some(&mut deg))?;
    Ok((slice, deg))
}

/// The backward worklist traversal behind both slice forms. With a
/// report (`deg`), lost sequences are counted; without one, they are
/// [`QueryErr::Corrupt`].
fn backward_walk(
    wet: &Wet,
    program: &Program,
    criterion: WetSliceElem,
    spec: SliceSpec,
    ctl: &Ctl,
    mut deg: Option<&mut Degraded>,
) -> Result<WetSlice, QueryErr> {
    let mut cur = Cursor::new(wet);
    let mut visited = Visited::new(wet);
    let mut stamped = BTreeSet::new();
    let mut work = vec![criterion];
    while let Some(e) = work.pop() {
        match visited.insert(wet, e) {
            Some(true) => {}
            Some(false) => continue,
            None => {
                lost(deg.as_deref_mut(), not_an_instance(e))?;
                continue;
            }
        }
        ctl.check_every(visited.len)?;
        let ts = &wet.node(e.node).ts;
        if ts.is_available() {
            stamped.insert((e.stmt, cur.get(ts, e.k as usize)));
        } else {
            lost(deg.as_deref_mut(), ts_lost(e.node))?;
        }
        let data = [SLOT_OP0, SLOT_OP1, SLOT_MEM].map(|slot| spec.data.then_some((e.stmt, slot)));
        let control = spec
            .control
            .then(|| cd_anchor(wet, program, e.node, e.stmt).map(|anchor| (anchor, SLOT_CD)))
            .flatten();
        for (stmt, slot) in data.into_iter().chain([control]).flatten() {
            if let Some((pn, ps, pk)) = resolve_producer(&mut cur, e.node, stmt, slot, e.k, deg.as_deref_mut())? {
                work.push(WetSliceElem { node: pn, stmt: ps, k: pk });
            }
        }
    }
    wet_obs::hist_record("query.rows", "backward_slice", visited.len as u64);
    cur.record("backward_slice");
    Ok(WetSlice { stamped })
}

/// The instances a slice has visited: per node, one bit for each
/// (statement position, k), allocated on the node's first visit. All
/// the bitsets together take at most one bit per executed statement.
struct Visited {
    nodes: Vec<Vec<u64>>,
    len: usize,
}

impl Visited {
    fn new(wet: &Wet) -> Visited {
        Visited { nodes: vec![Vec::new(); wet.nodes().len()], len: 0 }
    }

    /// Marks `e` visited: `Some(false)` when it already was, `None` when
    /// it names no instance of its node (a corrupt dependence).
    fn insert(&mut self, wet: &Wet, e: WetSliceElem) -> Option<bool> {
        let n = wet.node(e.node);
        let pos = n.stmt_pos(e.stmt)?;
        if e.k >= n.n_execs {
            return None;
        }
        let bits = &mut self.nodes[e.node.index()];
        if bits.is_empty() {
            *bits = vec![0; (n.stmts.len() * n.n_execs as usize).div_ceil(64)];
        }
        let i = e.k as usize * n.stmts.len() + pos;
        let (word, bit) = (&mut bits[i / 64], 1u64 << (i % 64));
        let fresh = *word & bit == 0;
        *word |= bit;
        self.len += usize::from(fresh);
        Some(fresh)
    }
}

fn not_an_instance(e: WetSliceElem) -> String {
    format!("dependence reaches {} at execution {} of node {}, which it does not hold", e.stmt, e.k, e.node.0)
}

/// A lost sequence on a slice's path: counted on a partial slice's
/// report, [`QueryErr::Corrupt`] for a strict one.
fn lost(deg: Option<&mut Degraded>, what: String) -> Result<(), QueryErr> {
    match deg {
        Some(d) => {
            d.seqs_unavailable += 1;
            Ok(())
        }
        None => Err(QueryErr::Corrupt(what)),
    }
}

fn ts_lost(node: NodeId) -> String {
    format!("timestamp sequence unavailable in node {}", node.0)
}

/// Resolves the producer of dependence slot `slot` of `dst_stmt` at
/// execution `k` of `node`: first by intra-node inference, then by
/// searching the labeled incoming edges. Returns the producing
/// `(node, stmt, execution)` triple.
///
/// Every unavailable sequence on the lookup path is [`lost`]. A partial
/// lookup counts the lost intra-edge coverage sets and label pools up
/// front — each is a producer edge the slice may be missing — and then
/// searches the ones that survive.
fn resolve_producer(
    cur: &mut Cursor<'_>,
    node: NodeId,
    dst_stmt: StmtId,
    slot: u8,
    k: u32,
    mut deg: Option<&mut Degraded>,
) -> Result<Option<(NodeId, StmtId, u32)>, QueryErr> {
    let wet = cur.wet();
    let ies = wet.node(node).intra.get(&(dst_stmt, slot)).map_or(&[][..], Vec::as_slice);
    let edges = wet.in_edges(node, dst_stmt, slot);
    let pool_available = |ei: u32| {
        let lab = &wet.labels()[wet.edges()[ei as usize].labels as usize];
        lab.dst.is_available() && lab.src.is_available()
    };
    if let Some(d) = deg.as_deref_mut() {
        let lost_ks = ies.iter().filter(|ie| ie.ks.as_ref().is_some_and(|ks| !ks.is_available())).count();
        let lost_pools = edges.iter().filter(|&&ei| !pool_available(ei)).count();
        d.seqs_unavailable += (lost_ks + lost_pools) as u64;
    }
    let strict = deg.is_none();
    for ie in ies {
        if ie.complete {
            return Ok(Some((node, ie.src, k)));
        }
        let Some(ks) = &ie.ks else { continue };
        if !ks.is_available() {
            if strict {
                return Err(QueryErr::Corrupt(format!("intra-edge label sequence unavailable in node {}", node.0)));
            }
        } else if cur.find_sorted(ks, k as u64).is_some() {
            return Ok(Some((node, ie.src, k)));
        }
    }
    let key = match wet.config().ts_mode {
        TsMode::Local => k as u64,
        TsMode::Global => {
            let ts = &wet.node(node).ts;
            if !ts.is_available() {
                lost(deg, ts_lost(node))?;
                return Ok(None);
            }
            cur.get(ts, k as usize)
        }
    };
    for &ei in edges {
        let e = wet.edges()[ei as usize];
        if !pool_available(ei) {
            if strict {
                return Err(QueryErr::Corrupt(format!("edge label pool {} unavailable", e.labels)));
            }
            continue;
        }
        let lab = &wet.labels()[e.labels as usize];
        let Some(p) = cur.find_sorted(&lab.dst, key) else { continue };
        let srcv = cur.get(&lab.src, p);
        let k_src = match wet.config().ts_mode {
            TsMode::Local => srcv as u32,
            TsMode::Global => {
                let ts = &wet.node(e.src_node).ts;
                if !ts.is_available() {
                    lost(deg, ts_lost(e.src_node))?;
                    return Ok(None);
                }
                match cur.find_sorted(ts, srcv) {
                    Some(p) => p as u32,
                    None => return Ok(None),
                }
            }
        };
        return Ok(Some((e.src_node, e.src_stmt, k_src)));
    }
    Ok(None)
}

/// Computes the forward WET slice from `criterion`: every instance
/// whose computation (or execution) the criterion influenced. Returns
/// [`QueryErr::Corrupt`] when the traversal reaches a sequence lost to
/// salvage.
///
/// Forward traversal finds an instance's non-local consumers in a view
/// of each outgoing label pool sorted by source, built once per query,
/// and expands control dependences to every statement of the dependent
/// block, mirroring the dynamic CD semantics.
///
/// # Panics
/// Panics if the criterion statement is not part of the criterion node.
pub fn forward_slice(
    wet: &Wet,
    program: &Program,
    criterion: WetSliceElem,
    spec: SliceSpec,
) -> Result<WetSlice, QueryErr> {
    let _span = wet_obs::span!("query.forward_slice");
    assert!(
        wet.node(criterion.node).stmt_pos(criterion.stmt).is_some(),
        "criterion statement not in node"
    );
    let mut cur = Cursor::new(wet);
    let mut visited = Visited::new(wet);
    let mut by_src: HashMap<u32, Vec<(u64, u64)>> = HashMap::new();
    let mut stamped = BTreeSet::new();
    let mut work = vec![criterion];
    while let Some(e) = work.pop() {
        match visited.insert(wet, e) {
            Some(true) => {}
            Some(false) => continue,
            None => return Err(QueryErr::Corrupt(not_an_instance(e))),
        }
        let node_ts = &wet.node(e.node).ts;
        if !node_ts.is_available() {
            return Err(QueryErr::Corrupt(ts_lost(e.node)));
        }
        let ts = cur.get(node_ts, e.k as usize);
        stamped.insert((e.stmt, ts));

        // Intra-node consumers.
        let node = e.node;
        for (&(dst_stmt, slot), ies) in &wet.node(node).intra {
            for ie in ies.iter().filter(|ie| ie.src == e.stmt) {
                let covered = match &ie.ks {
                    Some(ks) if !ks.is_available() => {
                        return Err(QueryErr::Corrupt(format!(
                            "intra-edge label sequence unavailable in node {}",
                            node.0
                        )));
                    }
                    _ if ie.complete => true,
                    Some(ks) => cur.find_sorted(ks, e.k as u64).is_some(),
                    None => false,
                };
                if covered {
                    push_consumers(wet, program, node, dst_stmt, slot, e.k, spec, &mut work);
                }
            }
        }

        // Non-local consumers: the pairs of each outgoing pool whose
        // source is this instance.
        let key = match wet.config().ts_mode {
            TsMode::Local => e.k as u64,
            TsMode::Global => ts,
        };
        for &ei in wet.out_edges(e.node, e.stmt) {
            let edge = wet.edges()[ei as usize];
            let lab = &wet.labels()[edge.labels as usize];
            if !lab.dst.is_available() || !lab.src.is_available() {
                return Err(QueryErr::Corrupt(format!("edge label pool {} unavailable", edge.labels)));
            }
            let pairs = by_src.entry(edge.labels).or_insert_with(|| pool_by_src(&mut cur, lab));
            let from = pairs.partition_point(|&(sv, _)| sv < key);
            for &(_, dv) in pairs[from..].iter().take_while(|&&(sv, _)| sv == key) {
                let k_dst = match wet.config().ts_mode {
                    TsMode::Local => dv as u32,
                    TsMode::Global => {
                        let dst_ts = &wet.node(edge.dst_node).ts;
                        if !dst_ts.is_available() {
                            return Err(QueryErr::Corrupt(ts_lost(edge.dst_node)));
                        }
                        match cur.find_sorted(dst_ts, dv) {
                            Some(k) => k as u32,
                            None => continue,
                        }
                    }
                };
                push_consumers(wet, program, edge.dst_node, edge.dst_stmt, edge.slot, k_dst, spec, &mut work);
            }
        }
    }
    cur.record("forward_slice");
    Ok(WetSlice { stamped })
}

/// A label pool's `(src, dst)` pairs sorted by source, read once
/// through the query's cursor, so a forward slice finds the consumers
/// of an instance by binary search instead of a scan of the pool.
fn pool_by_src<'w>(cur: &mut Cursor<'w>, lab: &'w LabelSeq) -> Vec<(u64, u64)> {
    let mut pairs: Vec<(u64, u64)> =
        (0..lab.len as usize).map(|p| (cur.get(&lab.src, p), cur.get(&lab.dst, p))).collect();
    pairs.sort_unstable();
    pairs
}

/// Pushes the consuming instances of a dependence hit onto the
/// worklist: the statement itself for data slots, or every statement of
/// the dependent block for control dependences.
#[allow(clippy::too_many_arguments)] // mirrors the dependence-edge tuple
fn push_consumers(
    wet: &Wet,
    program: &Program,
    node: NodeId,
    dst_stmt: StmtId,
    slot: u8,
    k: u32,
    spec: SliceSpec,
    work: &mut Vec<WetSliceElem>,
) {
    if slot == SLOT_CD {
        if !spec.control {
            return;
        }
        // dst_stmt anchors the block; all statements of that block at
        // execution k are control dependent.
        let loc = program.stmt_loc(dst_stmt);
        let n = wet.node(node);
        let bi = n.blocks.iter().position(|&b| b == loc.block).expect("anchor block in node");
        for ns in &n.stmts {
            if ns.block_idx as usize == bi {
                work.push(WetSliceElem { node, stmt: ns.id, k });
            }
        }
    } else {
        if !spec.data {
            return;
        }
        work.push(WetSliceElem { node, stmt: dst_stmt, k });
    }
}
