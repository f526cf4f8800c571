//! The Whole Execution Trace as a labeled graph (paper §2).
//!
//! Nodes correspond to Ball–Larus paths (§3.1); each node carries its
//! timestamp sequence and, through value groups (§3.2), the value
//! sequences of its def-port statements. Dependence edges (`DD` and
//! `CD`) carry timestamp-pair label sequences, pooled and shared
//! (§3.3); control-flow edges (`CF`) are unlabeled. All label sequences
//! are [`Seq`]s, so one `Wet` serves queries in tier-1 or tier-2 form.

use crate::seq::Seq;
use crate::sizes::{CompressStats, StreamClass, WetSizes, WetStats};
use std::collections::HashMap;
use wet_interp::NdetKind;
use wet_stream::StreamConfig;
use wet_ir::{BlockId, FuncId, StmtId};

/// Dense identifier of a WET node (one distinct executed path).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The id as a `usize` index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Dependence slot: first operand.
pub const SLOT_OP0: u8 = 0;
/// Dependence slot: second operand.
pub const SLOT_OP1: u8 = 1;
/// Dependence slot: memory (load ← reaching store).
pub const SLOT_MEM: u8 = 2;
/// Dependence slot: control dependence (block ← predicate/call).
pub const SLOT_CD: u8 = 3;

/// Whether dependence-edge labels use global or local timestamps.
///
/// The paper's §5: "instead of using global timestamps to identify
/// statement instances, we use local timestamps for each statement
/// because this approach yields greater levels of compression". Local
/// labels are node-execution indexes; global labels are the shared
/// time counter values.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TsMode {
    /// Edge labels are `(ts_use, ts_def)` global timestamps.
    Global,
    /// Edge labels are `(k_use, k_def)` node-execution indexes (the
    /// default, matching the paper's implementation).
    #[default]
    Local,
}

/// Crash-safe segmented capture knobs ([`crate::capture`]).
///
/// Like `stream.num_threads`, these are execution knobs, not data: they
/// are never serialized into `.wetz` containers (sealed output must be
/// byte-identical regardless of how the capture was segmented), but
/// they *are* recorded in a capture directory's manifest so a resumed
/// capture replays the exact same flush/shed schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CaptureConfig {
    /// Soft memory budget for the in-progress trace, in bytes.
    /// `0` means unlimited. The capture flushes a segment once roughly
    /// half the budget is buffered, and starts shedding value-profile
    /// detail (sticky) when the unflushable carry-over state alone
    /// approaches the budget.
    pub budget_bytes: u64,
    /// Seal a segment at least every this many timestamps.
    pub segment_interval: u64,
}

impl Default for CaptureConfig {
    fn default() -> Self {
        CaptureConfig { budget_bytes: 0, segment_interval: 1 << 16 }
    }
}

/// Query-serving knobs ([`crate::query::engine`] and `wet-serve`).
///
/// Like `stream.num_threads`, these are execution knobs, not data:
/// they are never serialized into `.wetz` containers — two servers
/// with different budgets answer queries over byte-identical traces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServeConfig {
    /// Byte budget for each query worker's decompression cache
    /// ([`crate::query::engine::EngineCache`]). `0` means unlimited
    /// (the library default). When set, the cache evicts
    /// least-recently-used entries so accounted bytes never exceed the
    /// budget; streams larger than the whole budget are decompressed
    /// into a transient scratch slot and never cached.
    pub cache_budget_bytes: u64,
}

/// WET construction options.
#[derive(Debug, Clone)]
pub struct WetConfig {
    /// Edge label timestamp mode.
    pub ts_mode: TsMode,
    /// Tier-2 stream compression settings.
    pub stream: StreamConfig,
    /// Enable §3.2 value grouping (disable for ablation: every def
    /// statement becomes its own group).
    pub group_values: bool,
    /// Enable §3.3 local-edge label inference.
    pub infer_local_edges: bool,
    /// Enable §3.3 label-sequence sharing.
    pub share_edge_labels: bool,
    /// Segmented-capture policy (only consulted by [`crate::capture`];
    /// never serialized into `.wetz` files).
    pub capture: CaptureConfig,
    /// Query-serving policy (only consulted by the query engine and
    /// `wet-serve`; never serialized into `.wetz` files).
    pub serve: ServeConfig,
}

impl Default for WetConfig {
    fn default() -> Self {
        WetConfig {
            ts_mode: TsMode::Local,
            stream: StreamConfig::default(),
            group_values: true,
            infer_local_edges: true,
            share_edge_labels: true,
            capture: CaptureConfig::default(),
            serve: ServeConfig::default(),
        }
    }
}

/// One statement occurrence inside a node.
#[derive(Debug, Clone, Copy)]
pub struct NodeStmt {
    /// The statement.
    pub id: StmtId,
    /// Index into the node's block list.
    pub block_idx: u16,
    /// True if the statement has a def port (carries values).
    pub has_def: bool,
    /// Value group index (meaningful when `has_def`).
    pub group: u32,
    /// Member index within the group.
    pub member: u32,
}

/// A value group (§3.2): statements sharing one pattern.
#[derive(Debug, Clone)]
pub struct Group {
    /// Pattern sequence mapping execution index to unique-value index;
    /// `None` means the identity pattern (all tuples distinct).
    pub pattern: Option<Seq>,
    /// Unique-value sequences, one per member statement.
    pub uvals: Vec<Seq>,
    /// Number of unique value tuples.
    pub n_uvals: u32,
}

/// An intra-node dependence edge (src and use in the same node
/// execution). Labels are implied: every instance pairs execution `k`
/// with execution `k`.
#[derive(Debug, Clone)]
pub struct IntraEdge {
    /// Producing statement (same node).
    pub src: StmtId,
    /// True when the edge covers every execution of the node — its
    /// labels are then fully inferred and nothing is stored (§3.3).
    pub complete: bool,
    /// Execution indexes covered, when not complete.
    pub ks: Option<Seq>,
}

/// A WET node: one Ball–Larus path with its labels.
#[derive(Debug, Clone)]
pub struct Node {
    /// Containing function.
    pub func: FuncId,
    /// Ball–Larus path id within the function.
    pub path_id: u64,
    /// The path's block sequence.
    pub blocks: Vec<BlockId>,
    /// Statement occurrences in execution order.
    pub stmts: Vec<NodeStmt>,
    /// Executions of this node so far.
    pub n_execs: u32,
    /// Timestamp sequence (strictly increasing).
    pub ts: Seq,
    /// First timestamp (uncompressed metadata; enables range-skipping
    /// during control-flow traversal without touching the stream).
    pub ts_first: u64,
    /// Last timestamp.
    pub ts_last: u64,
    /// Value groups.
    pub groups: Vec<Group>,
    /// Observed control-flow successor nodes (unlabeled CF edges).
    pub cf_succs: Vec<NodeId>,
    /// Observed control-flow predecessor nodes.
    pub cf_preds: Vec<NodeId>,
    /// Intra-node dependence edges, keyed by `(use stmt, slot)`.
    pub intra: HashMap<(StmtId, u8), Vec<IntraEdge>>,
    pub(crate) stmt_pos: HashMap<StmtId, u32>,
}

impl Node {
    /// Position of a statement within the node, if present.
    pub fn stmt_pos(&self, s: StmtId) -> Option<usize> {
        self.stmt_pos.get(&s).map(|&i| i as usize)
    }

    /// True when every sequence needed to answer value queries against
    /// this node survived (always true outside salvage).
    pub fn values_available(&self) -> bool {
        self.ts.is_available()
            && self.groups.iter().all(|g| {
                g.pattern.as_ref().map(Seq::is_available).unwrap_or(true)
                    && g.uvals.iter().all(Seq::is_available)
            })
    }
}

/// A non-local dependence edge between statement occurrences.
#[derive(Debug, Clone, Copy)]
pub struct Edge {
    /// Producing node.
    pub src_node: NodeId,
    /// Producing statement.
    pub src_stmt: StmtId,
    /// Consuming node.
    pub dst_node: NodeId,
    /// Consuming statement (the block terminator for `SLOT_CD`).
    pub dst_stmt: StmtId,
    /// Dependence slot.
    pub slot: u8,
    /// Index of the (possibly shared) label sequence in the pool.
    pub labels: u32,
}

/// A pooled edge-label sequence: parallel `dst`/`src` streams of pairs.
#[derive(Debug, Clone)]
pub struct LabelSeq {
    /// Pair count.
    pub len: u32,
    /// Use-side labels (sorted ascending).
    pub dst: Seq,
    /// Def-side labels, parallel to `dst`.
    pub src: Seq,
}

/// One recorded nondeterministic value: the replay contract. The NDET
/// stream is the complete list of these in consumption order; feeding
/// them back through a replay source reproduces the run bit for bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NdetRec {
    /// Which nondeterministic source produced the value.
    pub kind: NdetKind,
    /// Global timestamp of the path execution that consumed it.
    pub ts: u64,
    /// The value delivered to the program.
    pub value: i64,
}

/// The Whole Execution Trace.
#[derive(Debug, Clone)]
pub struct Wet {
    pub(crate) config: WetConfig,
    pub(crate) nodes: Vec<Node>,
    pub(crate) node_index: HashMap<(FuncId, u64), NodeId>,
    pub(crate) edges: Vec<Edge>,
    pub(crate) labels: Vec<LabelSeq>,
    /// Incoming labeled edges per `(dst node, dst stmt, slot)`.
    pub(crate) in_edges: HashMap<(NodeId, StmtId, u8), Vec<u32>>,
    /// Outgoing labeled edges per `(src node, src stmt)`.
    pub(crate) out_edges: HashMap<(NodeId, StmtId), Vec<u32>>,
    /// First executed node and its timestamp (always ts 1).
    pub(crate) first: (NodeId, u64),
    /// Last executed node and its timestamp.
    pub(crate) last: (NodeId, u64),
    pub(crate) sizes: WetSizes,
    pub(crate) stats: WetStats,
    pub(crate) tier2: bool,
    /// The recorded NDET stream in consumption order. `Some(vec)` even
    /// when empty (the program had no nondeterministic reads);
    /// `None` only when a salvaging read lost the section — replay is
    /// then impossible and reports the stream as unavailable. Unlike
    /// value detail, NDET records are never shed under budget pressure:
    /// they are the replay contract.
    pub(crate) ndet: Option<Vec<NdetRec>>,
    /// Byte extents of the container sections this WET was loaded from
    /// (v2 reads only; `None` for built or v1-loaded WETs). Runtime
    /// provenance, never serialized: the lazy trace store and fsck
    /// tooling read it instead of re-walking the frame table.
    pub(crate) section_index: Option<Vec<crate::serial::SectionSpan>>,
}

impl Wet {
    /// The construction configuration.
    pub fn config(&self) -> &WetConfig {
        &self.config
    }

    /// Mutable access to the configuration — for the runtime-only knobs
    /// that are never serialized (worker threads, the serve cache
    /// budget), which a loader may want to adjust after `read_from`.
    pub fn config_mut(&mut self) -> &mut WetConfig {
        &mut self.config
    }

    /// All nodes, indexed by [`NodeId`].
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// A node by id.
    ///
    /// # Panics
    /// Panics if out of range.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// Looks up the node for `(func, path_id)`.
    pub fn node_for_path(&self, func: FuncId, path_id: u64) -> Option<NodeId> {
        self.node_index.get(&(func, path_id)).copied()
    }

    /// All non-local edges.
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// The pooled label sequences.
    pub fn labels(&self) -> &[LabelSeq] {
        &self.labels
    }

    /// Labeled edges into `(node, stmt, slot)`.
    pub fn in_edges(&self, node: NodeId, stmt: StmtId, slot: u8) -> &[u32] {
        self.in_edges.get(&(node, stmt, slot)).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Labeled edges out of `(node, stmt)` (any slot).
    pub fn out_edges(&self, node: NodeId, stmt: StmtId) -> &[u32] {
        self.out_edges.get(&(node, stmt)).map(Vec::as_slice).unwrap_or(&[])
    }

    /// The first executed node and its timestamp (1).
    pub fn first(&self) -> (NodeId, u64) {
        self.first
    }

    /// The last executed node and its timestamp.
    pub fn last(&self) -> (NodeId, u64) {
        self.last
    }

    /// Size accounting across tiers.
    pub fn sizes(&self) -> &WetSizes {
        &self.sizes
    }

    /// Construction statistics.
    pub fn stats(&self) -> &WetStats {
        &self.stats
    }

    /// True once [`compress`](Self::compress) has run.
    pub fn is_tier2(&self) -> bool {
        self.tier2
    }

    /// The recorded NDET stream in consumption order, or `None` when a
    /// salvaging read lost it (replay is then impossible).
    pub fn ndet(&self) -> Option<&[NdetRec]> {
        self.ndet.as_deref()
    }

    /// Section extents of the v2 container this WET was read from, if
    /// it came from one — the scan `read_from` already performed, so
    /// callers (the trace store, fsck tooling, the fault harness) never
    /// need to re-read the file to find section boundaries.
    pub fn section_index(&self) -> Option<&[crate::serial::SectionSpan]> {
        self.section_index.as_deref()
    }

    /// Applies tier-2 compression: every label sequence becomes a
    /// bidirectional compressed stream, and the `t2_*` size fields are
    /// filled in. Queries keep working through the same interface (at
    /// the tier-2 response times the paper's Tables 6–9 report).
    ///
    /// Streams compress independently on up to
    /// `config.stream.num_threads` workers ([`crate::par`]); because no
    /// compression state crosses streams and the accounting is a
    /// commutative [`CompressStats`] reduction, the result — payload
    /// bytes, sizes, stats, and any serialized `.wetz` — is
    /// byte-identical for every thread count.
    ///
    /// Re-entering after compression (e.g. on a deserialized tier-2
    /// WET) recomputes the accounting from the existing streams rather
    /// than re-accumulating it, so `compress` is idempotent.
    pub fn compress(&mut self) {
        let _span = wet_obs::span!("compress.tier2");
        if self.tier2 {
            let _span = wet_obs::span!("compress.tier2.recount");
            self.recount_tier2();
            return;
        }
        let cfg = self.config.stream.clone();
        let threads = crate::par::effective_threads(cfg.num_threads);
        let mut units = {
            let _span = wet_obs::span!("compress.tier2.node_streams");
            self.stream_units()
        };
        wet_obs::gauge_set("tier2.streams", "", units.len() as i64);
        let per_unit = crate::par::map_mut(threads, &mut units, |_, (class, seq)| {
            let raw_bytes = seq.len() as u64 * 8;
            seq.compress(&cfg);
            let mut cs = CompressStats::default();
            cs.note(*class, seq);
            wet_obs::counter_add("tier2.bytes_in", class.label(), raw_bytes);
            cs
        });
        let mut total = CompressStats::default();
        for cs in per_unit {
            total.merge(cs);
        }
        wet_obs::counter_add("tier2.bytes_out", StreamClass::Ts.label(), total.t2_ts);
        wet_obs::counter_add("tier2.bytes_out", StreamClass::Vals.label(), total.t2_vals);
        wet_obs::counter_add("tier2.bytes_out", StreamClass::Edges.label(), total.t2_edges);
        #[cfg(debug_assertions)]
        let reduced = total.clone();
        total.apply(&mut self.sizes, &mut self.stats);
        self.tier2 = true;
        // The sequential recount over the finished streams must agree
        // with the parallel per-stream reduction; stats drift between
        // the two accounting paths is caught here, not in benches.
        #[cfg(debug_assertions)]
        {
            let mut recount = CompressStats::default();
            for (class, seq) in self.stream_units() {
                recount.note(class, seq);
            }
            assert_eq!(
                recount, reduced,
                "recount_tier2 accounting disagrees with the parallel CompressStats reduction"
            );
        }
    }

    /// Every label sequence in the WET, tagged with its size class.
    /// One entry per independent tier-2 stream — the unit of parallel
    /// work in [`compress`](Self::compress).
    fn stream_units(&mut self) -> Vec<(StreamClass, &mut Seq)> {
        let mut units: Vec<(StreamClass, &mut Seq)> = Vec::new();
        for n in &mut self.nodes {
            units.push((StreamClass::Ts, &mut n.ts));
            for g in &mut n.groups {
                if let Some(p) = &mut g.pattern {
                    units.push((StreamClass::Vals, p));
                }
                for u in &mut g.uvals {
                    units.push((StreamClass::Vals, u));
                }
            }
            for ies in n.intra.values_mut() {
                for ie in ies {
                    if let Some(ks) = &mut ie.ks {
                        units.push((StreamClass::Edges, ks));
                    }
                }
            }
        }
        for l in &mut self.labels {
            units.push((StreamClass::Edges, &mut l.dst));
            units.push((StreamClass::Edges, &mut l.src));
        }
        units
    }

    /// Recomputes tier-2 sizes and method stats from the
    /// already-compressed streams (no compression work), replacing the
    /// stored accounting.
    fn recount_tier2(&mut self) {
        let mut total = CompressStats::default();
        for (class, seq) in self.stream_units() {
            total.note(class, seq);
        }
        total.apply(&mut self.sizes, &mut self.stats);
    }

    /// Checks integrity in two passes. The **structural** pass verifies
    /// sequence lengths against execution counts, edge/label/group
    /// references in range, and CF edge symmetry. The **stream** pass
    /// decodes every available sequence once through the checked
    /// (panic-free) traversal path and verifies the properties queries
    /// rely on: timestamp sequences strictly increasing and agreeing
    /// with the `ts_first`/`ts_last` metadata, `Pattern` indices `<
    /// n_uvals`, intra-edge coverage sets sorted and in execution
    /// range, label `dst` streams sorted, and — for tier-2 — every
    /// compressed stream's cursor and payload internally consistent
    /// (claimed length decodable from the stored bit stacks).
    ///
    /// Sequences marked [`Seq::Unavailable`] by salvage are length-
    /// checked only. Used after deserialization and in tests; a `Wet`
    /// that validates cannot make queries panic through out-of-range
    /// label indices or stream underflow.
    ///
    /// # Errors
    /// Returns a description of the first violation found.
    pub fn validate(&self) -> Result<(), String> {
        self.validate_structure()?;
        self.validate_streams()
    }

    fn validate_structure(&self) -> Result<(), String> {
        for (ni, n) in self.nodes.iter().enumerate() {
            if n.ts.len() != n.n_execs as usize {
                return Err(format!("node {ni}: ts length {} != n_execs {}", n.ts.len(), n.n_execs));
            }
            for (gi, g) in n.groups.iter().enumerate() {
                if let Some(p) = &g.pattern {
                    if p.len() != n.n_execs as usize {
                        return Err(format!("node {ni} group {gi}: pattern length mismatch"));
                    }
                }
                for (ui, u) in g.uvals.iter().enumerate() {
                    if u.len() != g.n_uvals as usize {
                        return Err(format!("node {ni} group {gi} member {ui}: uvals length mismatch"));
                    }
                }
            }
            for s in &n.stmts {
                if s.has_def {
                    let g = n.groups.get(s.group as usize).ok_or_else(|| {
                        format!("node {ni}: stmt {} references missing group {}", s.id, s.group)
                    })?;
                    if s.member as usize >= g.uvals.len() {
                        return Err(format!("node {ni}: stmt {} member out of range", s.id));
                    }
                }
                if s.block_idx as usize >= n.blocks.len() {
                    return Err(format!("node {ni}: stmt {} block index out of range", s.id));
                }
            }
            for &s in &n.cf_succs {
                if s.index() >= self.nodes.len() {
                    return Err(format!("node {ni}: CF successor out of range"));
                }
                if !self.nodes[s.index()].cf_preds.contains(&NodeId(ni as u32)) {
                    return Err(format!("node {ni}: CF edge to n{} not mirrored", s.0));
                }
            }
        }
        for (ei, e) in self.edges.iter().enumerate() {
            if e.src_node.index() >= self.nodes.len() || e.dst_node.index() >= self.nodes.len() {
                return Err(format!("edge {ei}: node reference out of range"));
            }
            let lab = self.labels.get(e.labels as usize).ok_or_else(|| format!("edge {ei}: missing label"))?;
            if lab.dst.len() != lab.len as usize || lab.src.len() != lab.len as usize {
                return Err(format!("edge {ei}: label length mismatch"));
            }
        }
        if self.first.0.index() >= self.nodes.len() || self.last.0.index() >= self.nodes.len() {
            return Err("first/last node out of range".to_string());
        }
        Ok(())
    }

    /// Decodes one sequence through the checked path, or reports why it
    /// cannot be decoded. `None` (skip) for unavailable sequences.
    fn decode_checked(seq: &Seq, what: &str) -> Result<Option<Vec<u64>>, String> {
        if !seq.is_available() {
            return Ok(None);
        }
        if let Seq::Compressed(s) = seq {
            let lo = -(s.method().window() as isize);
            if s.window_start() < lo || s.window_start() > s.len() as isize {
                return Err(format!("{what}: stream cursor out of range"));
            }
        }
        seq.try_to_vec_snapshot().map(Some).ok_or_else(|| format!("{what}: compressed stream payload inconsistent"))
    }

    fn validate_streams(&self) -> Result<(), String> {
        for (ni, n) in self.nodes.iter().enumerate() {
            if let Some(ts) = Self::decode_checked(&n.ts, &format!("node {ni} ts"))? {
                if !ts.windows(2).all(|w| w[0] < w[1]) {
                    return Err(format!("node {ni}: timestamps not strictly increasing"));
                }
                if let (Some(&first), Some(&last)) = (ts.first(), ts.last()) {
                    if first != n.ts_first || last != n.ts_last {
                        return Err(format!("node {ni}: ts_first/ts_last disagree with ts stream"));
                    }
                }
            }
            for (gi, g) in n.groups.iter().enumerate() {
                if let Some(p) = &g.pattern {
                    if let Some(pv) = Self::decode_checked(p, &format!("node {ni} group {gi} pattern"))? {
                        if pv.iter().any(|&idx| idx >= g.n_uvals as u64) {
                            return Err(format!("node {ni} group {gi}: pattern index out of range"));
                        }
                    }
                }
                for (ui, u) in g.uvals.iter().enumerate() {
                    Self::decode_checked(u, &format!("node {ni} group {gi} member {ui} uvals"))?;
                }
            }
            for ((dst, slot), ies) in &n.intra {
                for ie in ies {
                    if let Some(ks) = &ie.ks {
                        let what = format!("node {ni} intra ({dst}, slot {slot})");
                        if let Some(kv) = Self::decode_checked(ks, &what)? {
                            if !kv.windows(2).all(|w| w[0] < w[1]) {
                                return Err(format!("{what}: coverage set not sorted"));
                            }
                            if kv.last().is_some_and(|&k| k >= n.n_execs as u64) {
                                return Err(format!("{what}: coverage index out of range"));
                            }
                        }
                    }
                }
            }
        }
        for (li, l) in self.labels.iter().enumerate() {
            if let Some(dst) = Self::decode_checked(&l.dst, &format!("label {li} dst"))? {
                if !dst.windows(2).all(|w| w[0] < w[1]) {
                    return Err(format!("label {li}: dst labels not sorted"));
                }
            }
            Self::decode_checked(&l.src, &format!("label {li} src"))?;
        }
        Ok(())
    }

    /// Number of label sequences lost to salvage (zero for a cleanly
    /// loaded or freshly built WET).
    pub fn unavailable_seqs(&self) -> u64 {
        let mut n = 0u64;
        for node in &self.nodes {
            n += u64::from(!node.ts.is_available());
            for g in &node.groups {
                n += u64::from(g.pattern.as_ref().is_some_and(|p| !p.is_available()));
                n += g.uvals.iter().filter(|u| !u.is_available()).count() as u64;
            }
            for ies in node.intra.values() {
                n += ies.iter().filter(|ie| ie.ks.as_ref().is_some_and(|k| !k.is_available())).count() as u64;
            }
        }
        for l in &self.labels {
            n += u64::from(!l.dst.is_available()) + u64::from(!l.src.is_available());
        }
        n
    }
}
