//! Parallel whole-trace extraction over a shared, read-only WET.
//!
//! The per-instruction trace queries (paper §5.2, Tables 7–8) fan out
//! naturally: every `(statement, node)` pair contributes an
//! independent slice of the trace, backed by streams that decompress
//! without reference to any other stream. The CF walks and slices read
//! element by element through a per-query [`crate::Cursor`]; this
//! module instead decodes whole streams through **snapshots**
//! ([`crate::seq::Seq::try_to_vec_snapshot`] decodes a stored stream
//! in place without moving its window), so any number of workers can
//! extract from one `&Wet` concurrently.
//!
//! Every lookup here replicates the slice resolver's semantics exactly —
//! same intra-edge preference order, same incoming-edge order, same
//! sorted-search outcomes (all searched sequences are strictly
//! sorted) — so for any thread count the extracted traces are
//! identical to the sequential cursor results. Per-worker
//! [`EngineCache`]s memoize decompressed label pools, node timestamp
//! sequences, and producer value sequences; the caches accelerate but
//! never change results, which is what makes the fan-out safe.
//!
//! ## Memory budget
//!
//! Each worker's cache is a byte-accounted LRU bounded by
//! `WetConfig.serve.cache_budget_bytes` (0 = unlimited, the library
//! default). On insert the cache first evicts least-recently-used
//! entries to make room, so the accounted bytes never exceed the
//! budget — not even transiently; a single stream larger than the
//! whole budget is decompressed into a transient scratch slot and
//! never cached at all. Eviction counters and the peak-bytes
//! high-water mark are published to wet-obs when the cache drops.
//!
//! ## Strict and partial answers
//!
//! Each trace has a strict and a partial entry point. The strict ones
//! ([`value_trace_ctl`], [`address_trace_ctl`]) return
//! [`QueryErr::Corrupt`] when a walk reaches a
//! [`crate::Seq::Unavailable`] placeholder left by salvage. The partial
//! ones ([`value_trace_partial`], [`address_trace_partial`]) skip and
//! count what the surviving sequences and the request's
//! [`crate::query::Budget`] cannot cover; with no budget attached they
//! give the salvage answer. Every extraction loop is a cooperative
//! cancel point (see [`crate::query::ctl`]).

use crate::graph::{NodeId, TsMode, Wet, SLOT_OP0};
use crate::par;
use crate::query::ctl::{Ctl, QueryErr};
use crate::query::Degraded;
use crate::seq::Seq;
use std::collections::{BTreeMap, HashMap};
use wet_ir::program::StmtRef;
use wet_ir::stmt::{Operand, StmtKind};
use wet_ir::{Program, StmtId};

/// Decompresses a snapshot of `seq`, or reports it as corrupt data.
fn snap(seq: &Seq, what: impl FnOnce() -> String) -> Result<Vec<u64>, QueryErr> {
    seq.try_to_vec_snapshot().ok_or_else(|| QueryErr::Corrupt(what()))
}

/// What a cache entry holds. One payload enum (rather than one map per
/// kind) lets a single recency index order all entries for LRU
/// eviction under one byte budget.
#[derive(Debug)]
enum CacheData {
    /// A label pool's parallel `(dst, src)` pair streams.
    Pairs(Vec<u64>, Vec<u64>),
    /// A node timestamp or intra-edge `ks` sequence.
    U64s(Vec<u64>),
    /// A producer's `(ts, value)` sequence.
    Values(Vec<(u64, i64)>),
}

impl CacheData {
    /// Accounted payload size: element bytes of the decompressed
    /// vectors (the dominant cost; map/index overhead is not charged).
    fn bytes(&self) -> u64 {
        match self {
            CacheData::Pairs(d, s) => 8 * (d.len() + s.len()) as u64,
            CacheData::U64s(v) => 8 * v.len() as u64,
            CacheData::Values(v) => 16 * v.len() as u64,
        }
    }
}

/// Cache key — one variant per memoized sequence kind.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
enum CacheKey {
    /// Label pool by pool index.
    Labels(u32),
    /// Node timestamp sequence.
    NodeTs(u32),
    /// Intra-edge `ks` sequence by `(node, dst stmt, slot, edge pos)`.
    IntraKs(u32, StmtId, u8, u32),
    /// Producer values by `(node, stmt)`.
    Values(u32, StmtId),
}

/// Which [`EngineCache`] entry kind a metric belongs to.
#[derive(Clone, Copy)]
enum CacheKind {
    Labels = 0,
    NodeTs = 1,
    IntraKs = 2,
    Values = 3,
}

const CACHE_KIND_NAMES: [&str; 4] = ["labels", "node_ts", "intra_ks", "values"];

impl CacheKey {
    fn kind(&self) -> CacheKind {
        match self {
            CacheKey::Labels(_) => CacheKind::Labels,
            CacheKey::NodeTs(_) => CacheKind::NodeTs,
            CacheKey::IntraKs(..) => CacheKind::IntraKs,
            CacheKey::Values(..) => CacheKind::Values,
        }
    }
}

struct Entry {
    data: CacheData,
    bytes: u64,
    tick: u64,
}

/// Plain per-worker counters — buffered locally (no registry traffic
/// on the query hot path) and published when the cache drops, i.e. at
/// worker end. Hit/miss/eviction totals depend on how items were
/// distributed across workers, so these metrics are *not* thread-count
/// deterministic (the determinism test excludes `query.cache.*`).
#[derive(Default)]
struct CacheStats {
    hits: [u64; 4],
    misses: [u64; 4],
    evictions: [u64; 4],
    oversize: [u64; 4],
    peak_bytes: u64,
}

impl CacheStats {
    #[inline]
    fn touch(&mut self, kind: CacheKind, hit: bool) {
        if hit {
            self.hits[kind as usize] += 1;
        } else {
            self.misses[kind as usize] += 1;
        }
    }
}

/// Per-worker memoization of decompressed sequences: a byte-budgeted
/// LRU over every kind of sequence the engine decompresses.
pub struct EngineCache {
    entries: HashMap<CacheKey, Entry>,
    /// Recency index: tick → key, lowest tick = least recently used.
    /// Ticks are unique (bumped on every touch), so this is a total
    /// order and eviction is O(log n).
    recency: BTreeMap<u64, CacheKey>,
    tick: u64,
    /// Accounted bytes currently held. Invariant: `budget == 0` or
    /// `bytes <= budget`, maintained by evicting *before* inserting.
    bytes: u64,
    /// Byte budget; `0` = unlimited.
    budget: u64,
    /// Transient home for an entry too large to cache — kept alive so
    /// [`EngineCache::fetch`] can hand out a reference, replaced on the
    /// next oversized miss.
    scratch: Option<CacheData>,
    stats: CacheStats,
}

impl Default for EngineCache {
    /// An unlimited cache (the pre-budget library behavior).
    fn default() -> Self {
        EngineCache::with_budget(0)
    }
}

impl Drop for EngineCache {
    fn drop(&mut self) {
        for (i, kind) in CACHE_KIND_NAMES.iter().enumerate() {
            wet_obs::counter_add("query.cache.hits", kind, self.stats.hits[i]);
            wet_obs::counter_add("query.cache.misses", kind, self.stats.misses[i]);
            wet_obs::counter_add("query.cache.evictions", kind, self.stats.evictions[i]);
            wet_obs::counter_add("query.cache.oversize", kind, self.stats.oversize[i]);
        }
        // Max across workers: the largest any one cache ever held.
        wet_obs::gauge_max("query.cache.peak_bytes", "", self.stats.peak_bytes as i64);
    }
}

impl EngineCache {
    /// A cache bounded by `budget` accounted bytes (`0` = unlimited).
    pub fn with_budget(budget: u64) -> EngineCache {
        EngineCache {
            entries: HashMap::new(),
            recency: BTreeMap::new(),
            tick: 0,
            bytes: 0,
            budget,
            scratch: None,
            stats: CacheStats::default(),
        }
    }

    /// A cache honoring the WET's `serve.cache_budget_bytes` knob.
    pub fn for_wet(wet: &Wet) -> EngineCache {
        EngineCache::with_budget(wet.config().serve.cache_budget_bytes)
    }

    /// Accounted bytes currently held (always ≤ the budget when one is
    /// set).
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// High-water mark of accounted bytes over this cache's lifetime.
    pub fn peak_bytes(&self) -> u64 {
        self.stats.peak_bytes
    }

    /// Looks up `key`, building and (budget permitting) caching the
    /// entry on a miss. The returned reference is valid until the next
    /// `fetch`.
    fn fetch(
        &mut self,
        key: CacheKey,
        build: impl FnOnce() -> Result<CacheData, QueryErr>,
    ) -> Result<&CacheData, QueryErr> {
        let kind = key.kind();
        if let Some(e) = self.entries.get_mut(&key) {
            self.stats.touch(kind, true);
            self.tick += 1;
            self.recency.remove(&e.tick);
            e.tick = self.tick;
            self.recency.insert(self.tick, key);
            return Ok(&self.entries[&key].data);
        }
        self.stats.touch(kind, false);
        let data = build()?;
        let bytes = data.bytes();
        if self.budget != 0 && bytes > self.budget {
            // Larger than the whole budget: never cached, so the
            // accounted-bytes invariant holds at all times.
            self.stats.oversize[kind as usize] += 1;
            return Ok(self.scratch.insert(data));
        }
        if self.budget != 0 {
            // Make room *first*: bytes never exceeds the budget, not
            // even between insert and eviction.
            while self.bytes + bytes > self.budget {
                let (&t, &victim) = self.recency.iter().next().expect("bytes accounted ⇒ recency non-empty");
                self.recency.remove(&t);
                let evicted = self.entries.remove(&victim).expect("recency index consistent");
                self.bytes -= evicted.bytes;
                self.stats.evictions[victim.kind() as usize] += 1;
            }
        }
        self.tick += 1;
        self.bytes += bytes;
        if self.bytes > self.stats.peak_bytes {
            self.stats.peak_bytes = self.bytes;
        }
        self.recency.insert(self.tick, key);
        self.entries.insert(key, Entry { data, bytes, tick: self.tick });
        Ok(&self.entries[&key].data)
    }

    /// The node's decompressed timestamp sequence.
    fn node_ts(&mut self, wet: &Wet, node: NodeId) -> Result<&[u64], QueryErr> {
        let data = self.fetch(CacheKey::NodeTs(node.0), || {
            Ok(CacheData::U64s(snap(&wet.node(node).ts, || {
                format!("timestamp sequence unavailable in node {}", node.0)
            })?))
        })?;
        match data {
            CacheData::U64s(v) => Ok(v),
            _ => unreachable!("NodeTs key holds U64s"),
        }
    }

    /// The value the producer `(node, stmt)` computed at execution `k`.
    fn value_at(&mut self, wet: &Wet, node: NodeId, stmt: StmtId, k: u32) -> Result<Option<i64>, QueryErr> {
        let data = self.fetch(CacheKey::Values(node.0, stmt), || {
            Ok(CacheData::Values(values_in_node_snapshot(wet, node, stmt)?))
        })?;
        match data {
            CacheData::Values(v) => Ok(v.get(k as usize).map(|&(_, v)| v)),
            _ => unreachable!("Values key holds Values"),
        }
    }
}

/// The ids of nodes containing `stmt`.
pub(crate) fn nodes_with_stmt(wet: &Wet, stmt: StmtId) -> Vec<NodeId> {
    wet.nodes()
        .iter()
        .enumerate()
        .filter(|(_, n)| n.stmt_pos(stmt).is_some())
        .map(|(i, _)| NodeId(i as u32))
        .collect()
}

/// Returns the address operand of a load/store statement, or `None` if
/// `stmt` does not access memory.
pub(crate) fn addr_operand(program: &Program, stmt: StmtId) -> Option<Operand> {
    match program.stmt_ref(stmt) {
        StmtRef::Stmt(s) => match s.kind {
            StmtKind::Load { addr, .. } | StmtKind::Store { addr, .. } => Some(addr),
            _ => None,
        },
        StmtRef::Term(_) => None,
    }
}

/// The value sequence of `stmt` within one node as `(ts, value)` pairs,
/// read through snapshots so it works from shared references. Returns
/// an empty vector when the statement has no def port or is not in the
/// node, and [`QueryErr::Corrupt`] when a backing sequence was lost to
/// salvage.
fn values_in_node_snapshot(wet: &Wet, node: NodeId, stmt: StmtId) -> Result<Vec<(u64, i64)>, QueryErr> {
    let n = wet.node(node);
    let Some(pos) = n.stmt_pos(stmt) else { return Ok(Vec::new()) };
    let ns = n.stmts[pos];
    if !ns.has_def {
        return Ok(Vec::new());
    }
    let ts = snap(&n.ts, || format!("timestamp sequence unavailable in node {}", node.0))?;
    let g = &n.groups[ns.group as usize];
    let uvals = snap(&g.uvals[ns.member as usize], || {
        format!("value sequence unavailable in node {}", node.0)
    })?;
    match &g.pattern {
        None => Ok(ts.into_iter().zip(uvals.into_iter().map(|v| v as i64)).collect()),
        Some(p) => {
            let pattern = snap(p, || format!("pattern sequence unavailable in node {}", node.0))?;
            Ok(ts.into_iter().zip(pattern).map(|(t, idx)| (t, uvals[idx as usize] as i64)).collect())
        }
    }
}

/// The slice resolver's producer lookup with identical lookup order
/// and outcomes, but through snapshot/binary searches on cached
/// decompressions instead of cursor walks. (All searched sequences —
/// intra `ks`, label `dst`, node `ts` — are strictly increasing, so a
/// binary search finds exactly the position the cursor walk finds.)
fn resolve_producer_snapshot(
    wet: &Wet,
    cache: &mut EngineCache,
    node: NodeId,
    dst_stmt: StmtId,
    slot: u8,
    k: u32,
) -> Result<Option<(NodeId, StmtId, u32)>, QueryErr> {
    // Intra-node edges first, in stored order.
    let n = wet.node(node);
    if let Some(ies) = n.intra.get(&(dst_stmt, slot)) {
        for (ei, ie) in ies.iter().enumerate() {
            if ie.complete {
                return Ok(Some((node, ie.src, k)));
            }
            if let Some(ks) = &ie.ks {
                let covered = {
                    let data = cache.fetch(CacheKey::IntraKs(node.0, dst_stmt, slot, ei as u32), || {
                        Ok(CacheData::U64s(snap(ks, || {
                            format!("intra-edge label sequence unavailable in node {}", node.0)
                        })?))
                    })?;
                    match data {
                        CacheData::U64s(v) => v.binary_search(&(k as u64)).is_ok(),
                        _ => unreachable!("IntraKs key holds U64s"),
                    }
                };
                if covered {
                    return Ok(Some((node, ie.src, k)));
                }
            }
        }
    }
    // Non-local labeled edges, in incoming-edge order.
    let key = match wet.config().ts_mode {
        TsMode::Local => k as u64,
        TsMode::Global => cache.node_ts(wet, node)?[k as usize],
    };
    for &ei in wet.in_edges(node, dst_stmt, slot) {
        let e = wet.edges()[ei as usize];
        let found = {
            let data = cache.fetch(CacheKey::Labels(e.labels), || {
                let lab = &wet.labels()[e.labels as usize];
                Ok(CacheData::Pairs(
                    snap(&lab.dst, || format!("edge label pool {} unavailable", e.labels))?,
                    snap(&lab.src, || format!("edge label pool {} unavailable", e.labels))?,
                ))
            })?;
            match data {
                CacheData::Pairs(dst_v, src_v) => dst_v.binary_search(&key).ok().map(|p| src_v[p]),
                _ => unreachable!("Labels key holds Pairs"),
            }
        };
        if let Some(srcv) = found {
            let k_src = match wet.config().ts_mode {
                TsMode::Local => srcv as u32,
                TsMode::Global => match cache.node_ts(wet, e.src_node)?.binary_search(&srcv) {
                    Ok(p) => p as u32,
                    Err(_) => return Ok(None),
                },
            };
            return Ok(Some((e.src_node, e.src_stmt, k_src)));
        }
    }
    Ok(None)
}

/// The slice of `stmt`'s address trace contributed by one node, with a
/// cancel point per execution.
fn addresses_in_node(
    wet: &Wet,
    cache: &mut EngineCache,
    ctl: &Ctl,
    node: NodeId,
    stmt: StmtId,
    op: Operand,
) -> Result<Vec<(u64, u64)>, QueryErr> {
    let n_execs = wet.node(node).n_execs;
    let ts = snap(&wet.node(node).ts, || format!("timestamp sequence unavailable in node {}", node.0))?;
    match op {
        Operand::Imm(v) => Ok(ts.into_iter().map(|t| (t, v as u64)).collect()),
        Operand::Reg(_) => {
            let mut out = Vec::with_capacity(n_execs as usize);
            for k in 0..n_execs {
                ctl.check_every(k as usize)?;
                let a = match resolve_producer_snapshot(wet, cache, node, stmt, SLOT_OP0, k)? {
                    Some((pn, ps, pk)) => cache.value_at(wet, pn, ps, pk)?.unwrap_or(0) as u64,
                    // Never-written register: reads as zero.
                    None => 0,
                };
                out.push((ts[k as usize], a));
            }
            Ok(out)
        }
    }
}

/// The complete per-instruction value trace of `stmt` (paper §5.2:
/// "requests for load values on per instruction basis"), extracted on
/// up to `num_threads` workers (one per containing node): `(ts, value)`
/// pairs sorted by timestamp, identical for every thread count.
///
/// Each involved stream is decompressed *once*, front to back, rather
/// than through the random-access cursor: the
/// `Values[k] = UVals[Pattern[k]]` indirection makes unique-value
/// lookups non-monotonic, which a sliding-window cursor would pay for
/// quadratically.
pub fn value_trace(wet: &Wet, stmt: StmtId, num_threads: usize) -> Result<Vec<(u64, i64)>, QueryErr> {
    value_trace_ctl(wet, stmt, num_threads, &Ctl::unbounded())
}

/// [`value_trace`] with cooperative cancellation (one check per
/// extracted node).
pub fn value_trace_ctl(
    wet: &Wet,
    stmt: StmtId,
    num_threads: usize,
    ctl: &Ctl,
) -> Result<Vec<(u64, i64)>, QueryErr> {
    let _span = wet_obs::span!("query.value_trace");
    let nodes = nodes_with_stmt(wet, stmt);
    wet_obs::hist_record("query.node_fanout", "value_trace", nodes.len() as u64);
    let threads = par::effective_threads(num_threads);
    let parts = par::map(threads, &nodes, |_, &node| {
        ctl.check()?;
        values_in_node_snapshot(wet, node, stmt)
    });
    let parts: Vec<Vec<(u64, i64)>> = parts.into_iter().collect::<Result<_, _>>()?;
    let mut out: Vec<(u64, i64)> = parts.into_iter().flatten().collect();
    out.sort_unstable_by_key(|&(ts, _)| ts);
    wet_obs::hist_record("query.rows", "value_trace", out.len() as u64);
    Ok(out)
}

/// Decode-free cost of extracting `stmt`'s value trace from one node:
/// the bytes the extraction will materialize (8 per timestamp, unique
/// value and pattern entry), computed from stream lengths without
/// touching any stream — which is what lets a budget plan coverage
/// deterministically before decompressing anything.
fn value_cost(wet: &Wet, node: NodeId, stmt: StmtId) -> u64 {
    let n = wet.node(node);
    let Some(pos) = n.stmt_pos(stmt) else { return 0 };
    let ns = n.stmts[pos];
    if !ns.has_def {
        return 0;
    }
    let g = &n.groups[ns.group as usize];
    let pattern = g.pattern.as_ref().map_or(0, Seq::len);
    8 * (n.ts.len() + g.uvals[ns.member as usize].len() + pattern) as u64
}

/// The partial [`value_trace_ctl`]: the part of the trace that the
/// surviving sequences and the [`crate::query::Budget`] attached to
/// `ctl` cover, plus a [`Degraded`] report of the nodes left out.
///
/// Node coverage is planned *sequentially in node order* (first-fit on
/// decode-free costs, see [`value_cost`]); nodes whose timestamps,
/// pattern or unique values were lost to salvage, and nodes the budget
/// cannot afford, are skipped and counted. Only the covered nodes are
/// extracted, on up to `num_threads` workers — never an error for lost
/// data, never fabricated data. Because the plan happens before
/// extraction, a pure byte budget yields byte-identical results and
/// byte counts for every thread count; a soft wall budget additionally
/// converts not-yet-extracted nodes into skips when time runs out
/// (inherently timing-dependent). With no budget attached this is the
/// salvage answer, and on a cleanly loaded WET it equals the strict
/// trace with a complete report.
pub fn value_trace_partial(
    wet: &Wet,
    stmt: StmtId,
    num_threads: usize,
    ctl: &Ctl,
) -> Result<(Vec<(u64, i64)>, Degraded), QueryErr> {
    let _span = wet_obs::span!("query.value_trace_partial");
    let mut deg = Degraded::default();
    let mut covered: Vec<NodeId> = Vec::new();
    for n in nodes_with_stmt(wet, stmt) {
        if !wet.node(n).values_available() {
            deg.nodes_skipped += 1;
            continue;
        }
        if ctl.wall_exhausted() || !ctl.try_charge(value_cost(wet, n, stmt)) {
            deg.nodes_skipped += 1;
            continue;
        }
        covered.push(n);
    }
    wet_obs::hist_record("query.node_fanout", "value_trace_partial", covered.len() as u64);
    let threads = par::effective_threads(num_threads);
    let parts = par::map(threads, &covered, |_, &node| {
        ctl.check()?;
        if ctl.wall_exhausted() {
            return Ok(None);
        }
        values_in_node_snapshot(wet, node, stmt).map(Some)
    });
    let mut out: Vec<(u64, i64)> = Vec::new();
    for part in parts {
        match part {
            Ok(Some(v)) => out.extend(v),
            // Wall allowance ran out mid-extraction: the planned node
            // becomes a reported gap, not an error.
            Ok(None) => deg.nodes_skipped += 1,
            Err(QueryErr::Corrupt(_)) => deg.nodes_skipped += 1,
            Err(e) => return Err(e),
        }
    }
    out.sort_unstable_by_key(|&(ts, _)| ts);
    wet_obs::hist_record("query.rows", "value_trace_partial", out.len() as u64);
    Ok((out, deg))
}

/// The partial [`address_trace_ctl`]: same coverage discipline as
/// [`value_trace_partial`] — plan in node order against decode-free
/// costs (8 bytes per timestamp plus, for register operands, 16 per
/// resolved `(ts, address)` pair the walk materializes) and extract
/// only what the budget covered. Nodes the budget cannot afford, and
/// nodes whose walk reaches a sequence lost to salvage, are reported
/// as skipped.
pub fn address_trace_partial(
    wet: &Wet,
    program: &Program,
    stmt: StmtId,
    num_threads: usize,
    ctl: &Ctl,
) -> Result<(Vec<(u64, u64)>, Degraded), QueryErr> {
    let _span = wet_obs::span!("query.address_trace_partial");
    let mut deg = Degraded::default();
    let Some(op) = addr_operand(program, stmt) else {
        return Ok((Vec::new(), deg));
    };
    let mut covered: Vec<NodeId> = Vec::new();
    for n in nodes_with_stmt(wet, stmt) {
        let node = wet.node(n);
        let cost = match op {
            Operand::Imm(_) => 8 * node.ts.len() as u64,
            Operand::Reg(_) => 8 * node.ts.len() as u64 + 16 * node.n_execs as u64,
        };
        if ctl.wall_exhausted() || !ctl.try_charge(cost) {
            deg.nodes_skipped += 1;
            continue;
        }
        covered.push(n);
    }
    wet_obs::hist_record("query.node_fanout", "address_trace_partial", covered.len() as u64);
    let threads = par::effective_threads(num_threads);
    let parts = par::map_ctx(threads, &covered, || EngineCache::for_wet(wet), |cache, _, &node| {
        ctl.check()?;
        if ctl.wall_exhausted() {
            return Ok(None);
        }
        addresses_in_node(wet, cache, ctl, node, stmt, op).map(Some)
    });
    let mut out: Vec<(u64, u64)> = Vec::new();
    for part in parts {
        match part {
            Ok(Some(v)) => out.extend(v),
            Ok(None) => deg.nodes_skipped += 1,
            Err(QueryErr::Corrupt(_)) => deg.nodes_skipped += 1,
            Err(e) => return Err(e),
        }
    }
    out.sort_unstable_by_key(|&(ts, _)| ts);
    wet_obs::hist_record("query.rows", "address_trace_partial", out.len() as u64);
    Ok((out, deg))
}

/// The complete per-instruction address trace of a load/store
/// statement (paper §5.2), extracted on up to `num_threads` workers:
/// `(ts, address)` pairs sorted by timestamp, identical for every
/// thread count; empty for statements that do not access memory.
///
/// WET stores no separate address streams: "addresses are simply part
/// of values in WET representation". The address of a load/store
/// instance is the value produced by the producer of its address
/// operand, reached through the dependence edges — or the operand's
/// immediate constant when the address is static. Each worker caches
/// producers' decompressed value sequences, since the dependence
/// labels index producers non-monotonically (the effect the paper
/// reports as higher tier-2 address-trace times in Table 8).
pub fn address_trace(
    wet: &Wet,
    program: &Program,
    stmt: StmtId,
    num_threads: usize,
) -> Result<Vec<(u64, u64)>, QueryErr> {
    address_trace_ctl(wet, program, stmt, num_threads, &Ctl::unbounded())
}

/// [`address_trace`] with cooperative cancellation (checks inside each
/// node's per-execution resolution loop).
pub fn address_trace_ctl(
    wet: &Wet,
    program: &Program,
    stmt: StmtId,
    num_threads: usize,
    ctl: &Ctl,
) -> Result<Vec<(u64, u64)>, QueryErr> {
    let _span = wet_obs::span!("query.address_trace");
    let Some(op) = addr_operand(program, stmt) else {
        return Ok(Vec::new());
    };
    let nodes = nodes_with_stmt(wet, stmt);
    wet_obs::hist_record("query.node_fanout", "address_trace", nodes.len() as u64);
    let threads = par::effective_threads(num_threads);
    let parts = par::map_ctx(threads, &nodes, || EngineCache::for_wet(wet), |cache, _, &node| {
        ctl.check()?;
        addresses_in_node(wet, cache, ctl, node, stmt, op)
    });
    let parts: Vec<Vec<(u64, u64)>> = parts.into_iter().collect::<Result<_, _>>()?;
    let mut out: Vec<(u64, u64)> = parts.into_iter().flatten().collect();
    out.sort_unstable_by_key(|&(ts, _)| ts);
    wet_obs::hist_record("query.rows", "address_trace", out.len() as u64);
    Ok(out)
}

/// Whole-trace address extraction for many statements at once over
/// `(statement, node)` work units with per-worker caches.
pub fn address_traces(
    wet: &Wet,
    program: &Program,
    stmts: &[StmtId],
    num_threads: usize,
) -> Result<Vec<Vec<(u64, u64)>>, QueryErr> {
    let _span = wet_obs::span!("query.address_traces");
    let ctl = Ctl::unbounded();
    let units: Vec<(usize, NodeId, Operand)> = stmts
        .iter()
        .enumerate()
        .filter_map(|(si, &s)| addr_operand(program, s).map(|op| (si, s, op)))
        .flat_map(|(si, s, op)| nodes_with_stmt(wet, s).into_iter().map(move |n| (si, n, op)))
        .collect();
    wet_obs::hist_record("query.node_fanout", "address_traces", units.len() as u64);
    let threads = par::effective_threads(num_threads);
    let parts = par::map_ctx(threads, &units, || EngineCache::for_wet(wet), |cache, _, &(si, node, op)| {
        addresses_in_node(wet, cache, &ctl, node, stmts[si], op)
    });
    let mut out: Vec<Vec<(u64, u64)>> = vec![Vec::new(); stmts.len()];
    for (&(si, _, _), part) in units.iter().zip(parts) {
        out[si].extend(part?);
    }
    for trace in &mut out {
        trace.sort_unstable_by_key(|&(ts, _)| ts);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn u64s(n: usize) -> CacheData {
        CacheData::U64s(vec![0; n])
    }

    #[test]
    fn lru_evicts_oldest_and_respects_budget_at_all_times() {
        // Budget of 4 u64 entries (32 bytes); each entry is 8 bytes.
        let mut c = EngineCache::with_budget(32);
        for i in 0..4u32 {
            c.fetch(CacheKey::NodeTs(i), || Ok(u64s(1))).unwrap();
            assert!(c.bytes() <= 32);
        }
        assert_eq!(c.bytes(), 32);
        // Touch 0 so 1 becomes the LRU victim.
        c.fetch(CacheKey::NodeTs(0), || panic!("must be a hit")).unwrap();
        c.fetch(CacheKey::NodeTs(4), || Ok(u64s(1))).unwrap();
        assert_eq!(c.bytes(), 32, "evicted exactly one entry to fit");
        assert_eq!(c.stats.evictions[CacheKind::NodeTs as usize], 1);
        // 1 was evicted (LRU), 0 survived (recently touched).
        c.fetch(CacheKey::NodeTs(0), || panic!("0 must still be cached")).unwrap();
        let mut rebuilt = false;
        c.fetch(CacheKey::NodeTs(1), || {
            rebuilt = true;
            Ok(u64s(1))
        })
        .unwrap();
        assert!(rebuilt, "1 was the eviction victim");
        assert!(c.peak_bytes() <= 32, "never exceeded the budget");
    }

    #[test]
    fn oversized_entries_use_the_scratch_slot() {
        let mut c = EngineCache::with_budget(16);
        // 3 u64s = 24 bytes > 16: served, not cached.
        let data = c.fetch(CacheKey::NodeTs(0), || Ok(u64s(3))).unwrap();
        assert!(matches!(data, CacheData::U64s(v) if v.len() == 3));
        assert_eq!(c.bytes(), 0, "oversized entry never accounted");
        assert_eq!(c.stats.oversize[CacheKind::NodeTs as usize], 1);
        // A second fetch rebuilds (still a miss — scratch is transient).
        let mut rebuilt = false;
        c.fetch(CacheKey::NodeTs(0), || {
            rebuilt = true;
            Ok(u64s(3))
        })
        .unwrap();
        assert!(rebuilt);
        assert_eq!(c.peak_bytes(), 0);
    }

    #[test]
    fn unlimited_budget_never_evicts() {
        let mut c = EngineCache::default();
        for i in 0..100u32 {
            c.fetch(CacheKey::NodeTs(i), || Ok(u64s(10))).unwrap();
        }
        assert_eq!(c.bytes(), 100 * 80);
        assert_eq!(c.peak_bytes(), 100 * 80);
        assert_eq!(c.stats.evictions, [0; 4]);
    }

    #[test]
    fn fetch_propagates_build_errors_without_caching() {
        let mut c = EngineCache::with_budget(0);
        let err = c
            .fetch(CacheKey::Labels(7), || Err(QueryErr::Corrupt("lost".into())))
            .unwrap_err();
        assert_eq!(err, QueryErr::Corrupt("lost".into()));
        assert_eq!(c.bytes(), 0);
        // The failed build is not cached: the next fetch retries.
        let mut rebuilt = false;
        c.fetch(CacheKey::Labels(7), || {
            rebuilt = true;
            Ok(CacheData::Pairs(vec![1], vec![2]))
        })
        .unwrap();
        assert!(rebuilt);
    }
}
