//! Binary serialization of whole WETs — the `.wetz` file format.
//!
//! # Container layout (version 2)
//!
//! ```text
//! "WETZ" | version u8 = 2
//! then, per section:  tag [u8;4] | len u64 LE | payload | crc32 u32 LE
//! CONF  compression/build configuration + tier flag
//! BIND  all *structure*: nodes, statements, group shapes, CF + value
//!       edges, intra-edge metadata, label-pool lengths, first/last
//! TSEQ  node timestamp sequences
//! VALS  value patterns + unique-value sequences
//! EDGL  intra-edge coverage sets and edge label streams
//! STAT  size/statistics bookkeeping
//! ENDW  trailer: number of preceding sections (u64)
//! ```
//!
//! Each CRC-32 (computed in-repo, [`crate::crc`]) covers tag, length
//! and payload, so a flipped bit anywhere — including an inflated
//! length prefix — is detected. Sections exist so damage can be
//! *contained*: structure lives entirely in `BIND`, label data is split
//! across three sections, and [`Wet::read_salvaging`] recovers every
//! section whose checksum verifies, replacing lost sequences with
//! [`Seq::Unavailable`] placeholders (lengths come from the intact
//! `BIND`, so validation and accounting still line up).
//!
//! The decoder is hardened against untrusted input: section payloads
//! are read in bounded chunks so allocation tracks bytes actually
//! present, every in-payload length prefix is checked against the
//! remaining input before any reservation, and the assembled WET must
//! pass [`Wet::validate`] — including checked (panic-free) decode of
//! every compressed stream — before it is returned.
//!
//! Version 1 files (no sections, no checksums) still load through a
//! compatibility path; [`Wet::write_to_v1`] keeps the old writer
//! available for tests and fixtures.

use crate::crc::Crc32;
use crate::fault::Io;
use crate::graph::{Edge, Group, IntraEdge, LabelSeq, NdetRec, Node, NodeId, NodeStmt, TsMode, Wet, WetConfig};
use crate::salvage::{FsckReport, SectionReport, SectionStatus};
use crate::seq::Seq;
use crate::sizes::{WetSizes, WetStats};
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::path::Path;
use wet_ir::{BlockId, FuncId, StmtId};
use wet_stream::serial::{r_u32, r_u64, r_u64s, r_u8, w_u32, w_u64, w_u64s, w_u8};
use wet_stream::{CompressedStream, Method, StreamConfig};

pub(crate) const MAGIC: &[u8; 4] = b"WETZ";
pub(crate) const V1: u8 = 1;
pub(crate) const V2: u8 = 2;

/// Configuration section tag.
pub const TAG_CONF: [u8; 4] = *b"CONF";
/// Structure (binding) section tag.
pub const TAG_BIND: [u8; 4] = *b"BIND";
/// Timestamp-sequence section tag.
pub const TAG_TSEQ: [u8; 4] = *b"TSEQ";
/// Value-sequence section tag.
pub const TAG_VALS: [u8; 4] = *b"VALS";
/// Edge-label section tag.
pub const TAG_EDGL: [u8; 4] = *b"EDGL";
/// Nondeterminism-record section tag (the replay contract).
pub const TAG_NDET: [u8; 4] = *b"NDET";
/// Statistics section tag.
pub const TAG_STAT: [u8; 4] = *b"STAT";
/// End-of-file trailer tag.
pub const TAG_ENDW: [u8; 4] = *b"ENDW";

/// Canonical section order (without the trailer).
pub(crate) const CANONICAL: [[u8; 4]; 7] =
    [TAG_CONF, TAG_BIND, TAG_TSEQ, TAG_VALS, TAG_EDGL, TAG_NDET, TAG_STAT];

/// Largest section any real WET produces, with margin. Length prefixes
/// beyond this are rejected before a single payload byte is read.
const MAX_SECTION: u64 = 1 << 34;

/// Payloads are read in chunks of this size, so a forged length prefix
/// can never make the decoder allocate more than the bytes actually in
/// the file (plus one chunk).
const CHUNK: usize = 64 * 1024;

pub(crate) fn corrupt(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

/// Checks an element count read off the wire against the bytes left in
/// the section, given a lower bound on the encoded size of one element.
/// Every `Vec::with_capacity` in the parser goes through this, so no
/// allocation is attacker-controlled.
pub(crate) fn cap_count(n: usize, remaining: usize, min_bytes: usize, what: &str) -> io::Result<usize> {
    if n > remaining / min_bytes {
        return Err(corrupt(&format!("{what} count exceeds remaining input")));
    }
    Ok(n)
}

fn w_seq(w: &mut impl Write, s: &Seq) -> io::Result<()> {
    match s {
        Seq::Raw(v) => {
            w_u8(w, 0)?;
            w_u64s(w, v)
        }
        Seq::Compressed(c) => {
            w_u8(w, 1)?;
            c.write_to(w)
        }
        Seq::Unavailable(n) => {
            w_u8(w, 2)?;
            w_u64(w, *n)
        }
    }
}

fn r_seq(r: &mut impl Read) -> io::Result<Seq> {
    Ok(match r_u8(r)? {
        0 => Seq::Raw(r_u64s(r)?),
        1 => Seq::Compressed(CompressedStream::read_from(r)?),
        2 => Seq::Unavailable(r_u64(r)?),
        _ => return Err(corrupt("bad seq tag")),
    })
}

fn w_opt_seq(w: &mut impl Write, s: &Option<Seq>) -> io::Result<()> {
    match s {
        None => w_u8(w, 0),
        Some(s) => {
            w_u8(w, 1)?;
            w_seq(w, s)
        }
    }
}

fn r_opt_seq(r: &mut impl Read) -> io::Result<Option<Seq>> {
    Ok(match r_u8(r)? {
        0 => None,
        1 => Some(r_seq(r)?),
        _ => return Err(corrupt("bad option tag")),
    })
}

fn w_method(w: &mut impl Write, m: Method) -> io::Result<()> {
    let (tag, arg) = match m {
        Method::Fcm { order } => (0u8, order),
        Method::Dfcm { order } => (1, order),
        Method::LastN { n } => (2, n),
        Method::LastNStride { n } => (3, n),
    };
    w_u8(w, tag)?;
    w_u32(w, arg)
}

fn r_method(r: &mut impl Read) -> io::Result<Method> {
    let tag = r_u8(r)?;
    let arg = r_u32(r)?;
    Method::checked(tag, arg).map_err(corrupt)
}

fn w_string(w: &mut impl Write, s: &str) -> io::Result<()> {
    w_u32(w, s.len() as u32)?;
    w.write_all(s.as_bytes())
}

fn r_string(r: &mut impl Read) -> io::Result<String> {
    let n = r_u32(r)? as usize;
    if n > 1 << 20 {
        return Err(corrupt("string too long"));
    }
    let mut b = vec![0u8; n];
    r.read_exact(&mut b)?;
    String::from_utf8(b).map_err(|_| corrupt("invalid utf-8"))
}

// ---------------------------------------------------------------------
// Section framing.
// ---------------------------------------------------------------------

pub(crate) fn w_section(w: &mut impl Write, tag: [u8; 4], payload: &[u8]) -> io::Result<()> {
    let len = (payload.len() as u64).to_le_bytes();
    let mut c = Crc32::new();
    c.update(&tag);
    c.update(&len);
    c.update(payload);
    w.write_all(&tag)?;
    w.write_all(&len)?;
    w.write_all(payload)?;
    w_u32(w, c.finish())
}

/// Reads until `buf` is full or the source is exhausted; returns the
/// number of bytes obtained (a short count means EOF, not an error).
fn read_full(r: &mut impl Read, buf: &mut [u8]) -> io::Result<usize> {
    let mut n = 0;
    while n < buf.len() {
        match r.read(&mut buf[n..]) {
            Ok(0) => break,
            Ok(k) => n += k,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(n)
}

pub(crate) struct ScanEntry {
    pub(crate) tag: [u8; 4],
    pub(crate) len: u64,
    pub(crate) status: SectionStatus,
    /// File offset of the tag's first byte (the container header's 5
    /// bytes included), recorded so one scan yields both payloads and
    /// [`SectionSpan`]s — the store and `fsck` share this walk.
    pub(crate) start: u64,
}

pub(crate) struct Scan {
    pub(crate) entries: Vec<ScanEntry>,
    /// CRC-verified payloads, first occurrence per tag.
    pub(crate) payloads: HashMap<[u8; 4], Vec<u8>>,
    /// Section count from a verified `ENDW` trailer.
    pub(crate) trailer: Option<u64>,
    pub(crate) saw_trailer: bool,
    pub(crate) trailing_garbage: bool,
}

impl Scan {
    /// True when every section verified, the trailer is present and
    /// agrees with the section count, and nothing follows it — the
    /// "this file was completely and durably written" test the capture
    /// segment log applies to each sealed segment.
    pub(crate) fn is_intact(&self) -> bool {
        self.saw_trailer
            && !self.trailing_garbage
            && self.entries.iter().all(|e| e.status.is_ok())
            && self.trailer == Some(self.entries.len() as u64 - 1)
    }

    /// Byte extents of every fully-framed section (damaged payloads
    /// included — a CRC failure still has known extents; truncation and
    /// malformed length prefixes do not).
    pub(crate) fn spans(&self) -> Vec<SectionSpan> {
        self.entries
            .iter()
            .filter(|e| matches!(e.status, SectionStatus::Ok | SectionStatus::BadCrc))
            .map(|e| SectionSpan {
                tag: e.tag,
                start: e.start as usize,
                len_start: e.start as usize + 4,
                payload_start: e.start as usize + 12,
                payload_len: e.len as usize,
                end: e.start as usize + 12 + e.len as usize + 4,
            })
            .collect()
    }
}

/// Walks the section stream after the version byte. Never allocates
/// more than the input actually provides: payloads are read in
/// [`CHUNK`]-sized steps and implausible length prefixes stop the scan
/// before any payload read. I/O errors other than EOF propagate; damage
/// is recorded per section instead of failing the scan.
pub(crate) fn scan_sections(r: &mut impl Read) -> io::Result<Scan> {
    let mut scan = Scan {
        entries: Vec::new(),
        payloads: HashMap::new(),
        trailer: None,
        saw_trailer: false,
        trailing_garbage: false,
    };
    // The reader sits just past the 5-byte container header.
    let mut at = 5u64;
    loop {
        let start = at;
        let mut tag = [0u8; 4];
        let got = read_full(r, &mut tag)?;
        if got == 0 {
            break; // Clean EOF between sections (trailer missing is judged later).
        }
        if got < 4 {
            scan.entries.push(ScanEntry { tag: *b"????", len: 0, status: SectionStatus::Truncated, start });
            break;
        }
        let mut lenb = [0u8; 8];
        if read_full(r, &mut lenb)? < 8 {
            scan.entries.push(ScanEntry { tag, len: 0, status: SectionStatus::Truncated, start });
            break;
        }
        let len = u64::from_le_bytes(lenb);
        if len > MAX_SECTION {
            scan.entries.push(ScanEntry {
                tag,
                len,
                status: SectionStatus::Malformed("length prefix implausibly large".into()),
                start,
            });
            break;
        }
        let mut payload = Vec::with_capacity((len as usize).min(CHUNK));
        let mut short = false;
        while (payload.len() as u64) < len {
            let take = ((len - payload.len() as u64) as usize).min(CHUNK);
            let old = payload.len();
            payload.resize(old + take, 0);
            let got = read_full(r, &mut payload[old..])?;
            if got < take {
                payload.truncate(old + got);
                short = true;
                break;
            }
        }
        if short {
            scan.entries.push(ScanEntry { tag, len, status: SectionStatus::Truncated, start });
            break;
        }
        let mut crcb = [0u8; 4];
        if read_full(r, &mut crcb)? < 4 {
            scan.entries.push(ScanEntry { tag, len, status: SectionStatus::Truncated, start });
            break;
        }
        at = start + 12 + len + 4;
        let mut c = Crc32::new();
        c.update(&tag);
        c.update(&lenb);
        c.update(&payload);
        let crc_ok = c.finish() == u32::from_le_bytes(crcb);
        let status = if crc_ok { SectionStatus::Ok } else { SectionStatus::BadCrc };
        if tag == TAG_ENDW {
            scan.saw_trailer = true;
            if crc_ok && payload.len() == 8 {
                scan.trailer = Some(u64::from_le_bytes(payload[..8].try_into().unwrap()));
            }
            scan.entries.push(ScanEntry { tag, len, status, start });
            let mut one = [0u8; 1];
            if read_full(r, &mut one)? > 0 {
                scan.trailing_garbage = true;
            }
            break;
        }
        if crc_ok {
            scan.payloads.entry(tag).or_insert(payload);
        }
        scan.entries.push(ScanEntry { tag, len, status, start });
    }
    Ok(scan)
}

/// Byte extents of one section inside a v2 container image — the handle
/// the fault-injection harness uses to aim mutations at boundaries,
/// length prefixes and payloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SectionSpan {
    /// Section tag.
    pub tag: [u8; 4],
    /// Offset of the tag's first byte.
    pub start: usize,
    /// Offset of the length prefix.
    pub len_start: usize,
    /// Offset of the payload's first byte.
    pub payload_start: usize,
    /// Payload length in bytes.
    pub payload_len: usize,
    /// Offset one past the trailing CRC (start of the next section).
    pub end: usize,
}

/// Walks a v2 container's section frame table by seeking: only the
/// 5-byte header and each 12-byte section header are read; payloads are
/// skipped. This is the O(#sections) scan the store's lazy open and
/// [`section_spans`] both use — one frame-table walk, shared.
///
/// # Errors
/// Fails on bad magic, a non-v2 version, or malformed framing (a
/// truncated header/payload or an implausible length prefix). CRCs are
/// *not* verified — extents are still well-defined over a bit-flipped
/// payload; checksums are the payload readers' job.
pub(crate) fn scan_spans(r: &mut (impl Read + io::Seek)) -> io::Result<Vec<SectionSpan>> {
    let total = r.seek(io::SeekFrom::End(0))?;
    r.seek(io::SeekFrom::Start(0))?;
    let mut head = [0u8; 5];
    if read_full(r, &mut head)? < 5 || &head[..4] != MAGIC {
        return Err(corrupt("not a WETZ file"));
    }
    if head[4] != V2 {
        return Err(corrupt("section spans need a v2 container"));
    }
    let mut spans = Vec::new();
    let mut at = 5u64;
    while at < total {
        if total - at < 12 {
            return Err(corrupt("truncated section header"));
        }
        r.seek(io::SeekFrom::Start(at))?;
        let mut hdr = [0u8; 12];
        if read_full(r, &mut hdr)? < 12 {
            return Err(corrupt("truncated section header"));
        }
        let tag: [u8; 4] = hdr[..4].try_into().unwrap();
        let len = u64::from_le_bytes(hdr[4..12].try_into().unwrap());
        if len > MAX_SECTION {
            return Err(corrupt("length prefix implausibly large"));
        }
        let payload_start = at + 12;
        if total - payload_start < len + 4 {
            return Err(corrupt("truncated section payload"));
        }
        let end = payload_start + len + 4;
        spans.push(SectionSpan {
            tag,
            start: at as usize,
            len_start: at as usize + 4,
            payload_start: payload_start as usize,
            payload_len: len as usize,
            end: end as usize,
        });
        at = end;
        if tag == TAG_ENDW {
            break;
        }
    }
    Ok(spans)
}

/// Maps a well-formed v2 container image to its section extents.
///
/// # Errors
/// Fails on bad magic, a non-v2 version, or malformed framing — this is
/// a tool for dissecting *pristine* files before mutating them, not a
/// hardened parser.
pub fn section_spans(bytes: &[u8]) -> io::Result<Vec<SectionSpan>> {
    scan_spans(&mut io::Cursor::new(bytes))
}

// ---------------------------------------------------------------------
// Section payload codecs.
// ---------------------------------------------------------------------

/// Serializes a build configuration + tier flag in the `CONF` payload
/// layout. Shared with the capture manifest writer, which records the
/// capturing configuration so resumed runs and `seal` reconstruct the
/// exact same WET.
pub(crate) fn write_conf_parts(config: &WetConfig, tier2: bool) -> io::Result<Vec<u8>> {
    let mut w = Vec::new();
    w_u8(&mut w, matches!(config.ts_mode, TsMode::Global) as u8)?;
    w_u32(&mut w, config.stream.table_bits_max)?;
    w_u64(&mut w, config.stream.trial_len as u64)?;
    w_u32(&mut w, config.stream.candidates.len() as u32)?;
    for &m in &config.stream.candidates {
        w_method(&mut w, m)?;
    }
    w_u8(&mut w, config.group_values as u8)?;
    w_u8(&mut w, config.infer_local_edges as u8)?;
    w_u8(&mut w, config.share_edge_labels as u8)?;
    w_u8(&mut w, tier2 as u8)?;
    Ok(w)
}

fn write_conf(wet: &Wet) -> io::Result<Vec<u8>> {
    write_conf_parts(&wet.config, wet.tier2)
}

pub(crate) fn parse_conf(p: &[u8]) -> io::Result<(WetConfig, bool)> {
    let r = &mut &*p;
    let ts_mode = if r_u8(r)? == 1 { TsMode::Global } else { TsMode::Local };
    let table_bits_max = r_u32(r)?;
    let trial_len = r_u64(r)? as usize;
    let n_cand = cap_count(r_u32(r)? as usize, r.len(), 5, "candidate method")?;
    let mut candidates = Vec::with_capacity(n_cand);
    for _ in 0..n_cand {
        candidates.push(r_method(r)?);
    }
    let group_values = r_u8(r)? == 1;
    let infer_local_edges = r_u8(r)? == 1;
    let share_edge_labels = r_u8(r)? == 1;
    let tier2 = r_u8(r)? == 1;
    if !r.is_empty() {
        return Err(corrupt("trailing bytes in CONF"));
    }
    // `num_threads` and the capture policy are execution knobs, not
    // data: they are deliberately not part of the format (files must be
    // byte-identical across thread counts and capture segmentations),
    // so reading resets them to the defaults.
    let config = WetConfig {
        ts_mode,
        stream: StreamConfig { table_bits_max, trial_len, candidates, ..Default::default() },
        group_values,
        infer_local_edges,
        share_edge_labels,
        capture: Default::default(),
        serve: Default::default(),
    };
    Ok((config, tier2))
}

fn write_bind(wet: &Wet) -> io::Result<Vec<u8>> {
    let mut w = Vec::new();
    w_u64(&mut w, wet.nodes.len() as u64)?;
    for n in &wet.nodes {
        w_u32(&mut w, n.func.0)?;
        w_u64(&mut w, n.path_id)?;
        w_u64s(&mut w, &n.blocks.iter().map(|b| b.0 as u64).collect::<Vec<_>>())?;
        w_u64(&mut w, n.stmts.len() as u64)?;
        for s in &n.stmts {
            w_u32(&mut w, s.id.0)?;
            w_u32(&mut w, s.block_idx as u32)?;
            w_u8(&mut w, s.has_def as u8)?;
            w_u32(&mut w, s.group)?;
            w_u32(&mut w, s.member)?;
        }
        w_u32(&mut w, n.n_execs)?;
        w_u64(&mut w, n.ts_first)?;
        w_u64(&mut w, n.ts_last)?;
        w_u64(&mut w, n.groups.len() as u64)?;
        for g in &n.groups {
            w_u8(&mut w, g.pattern.is_some() as u8)?;
            w_u32(&mut w, g.n_uvals)?;
            w_u64(&mut w, g.uvals.len() as u64)?;
        }
        w_u64s(&mut w, &n.cf_succs.iter().map(|p| p.0 as u64).collect::<Vec<_>>())?;
        w_u64s(&mut w, &n.cf_preds.iter().map(|p| p.0 as u64).collect::<Vec<_>>())?;
        // Intra edges, sorted for deterministic output.
        let mut keys: Vec<(StmtId, u8)> = n.intra.keys().copied().collect();
        keys.sort();
        w_u64(&mut w, keys.len() as u64)?;
        for key in keys {
            w_u32(&mut w, key.0 .0)?;
            w_u8(&mut w, key.1)?;
            let ies = &n.intra[&key];
            w_u64(&mut w, ies.len() as u64)?;
            for ie in ies {
                w_u32(&mut w, ie.src.0)?;
                w_u8(&mut w, ie.complete as u8)?;
                match &ie.ks {
                    None => w_u8(&mut w, 0)?,
                    Some(ks) => {
                        w_u8(&mut w, 1)?;
                        w_u64(&mut w, ks.len() as u64)?;
                    }
                }
            }
        }
    }
    w_u64(&mut w, wet.edges.len() as u64)?;
    for e in &wet.edges {
        w_u32(&mut w, e.src_node.0)?;
        w_u32(&mut w, e.src_stmt.0)?;
        w_u32(&mut w, e.dst_node.0)?;
        w_u32(&mut w, e.dst_stmt.0)?;
        w_u8(&mut w, e.slot)?;
        w_u32(&mut w, e.labels)?;
    }
    w_u64(&mut w, wet.labels.len() as u64)?;
    for l in &wet.labels {
        w_u32(&mut w, l.len)?;
    }
    w_u32(&mut w, wet.first.0 .0)?;
    w_u64(&mut w, wet.first.1)?;
    w_u32(&mut w, wet.last.0 .0)?;
    w_u64(&mut w, wet.last.1)?;
    Ok(w)
}

/// Structure decoded from `BIND`: a complete WET skeleton whose every
/// sequence is an [`Seq::Unavailable`] placeholder of the right length,
/// waiting for the data sections to fill it in.
pub(crate) struct Bound {
    pub(crate) nodes: Vec<Node>,
    pub(crate) node_index: HashMap<(FuncId, u64), NodeId>,
    pub(crate) edges: Vec<Edge>,
    pub(crate) labels: Vec<LabelSeq>,
    pub(crate) in_edges: HashMap<(NodeId, StmtId, u8), Vec<u32>>,
    pub(crate) out_edges: HashMap<(NodeId, StmtId), Vec<u32>>,
    pub(crate) first: (NodeId, u64),
    pub(crate) last: (NodeId, u64),
    /// Total sequence slots (for recovered/lost accounting).
    pub(crate) total_seqs: u64,
}

pub(crate) fn parse_bind(p: &[u8]) -> io::Result<Bound> {
    let r = &mut &*p;
    let n_nodes = cap_count(r_u64(r)? as usize, r.len(), 64, "node")?;
    let mut nodes = Vec::with_capacity(n_nodes);
    let mut node_index = HashMap::new();
    let mut total_seqs = 0u64;
    for ni in 0..n_nodes {
        let func = FuncId(r_u32(r)?);
        let path_id = r_u64(r)?;
        let blocks: Vec<BlockId> = r_u64s(r)?.into_iter().map(|b| BlockId(b as u32)).collect();
        let n_stmts = cap_count(r_u64(r)? as usize, r.len(), 17, "statement")?;
        let mut stmts = Vec::with_capacity(n_stmts);
        let mut stmt_pos = HashMap::new();
        for si in 0..n_stmts {
            let id = StmtId(r_u32(r)?);
            let block_idx = r_u32(r)? as u16;
            let has_def = r_u8(r)? == 1;
            let group = r_u32(r)?;
            let member = r_u32(r)?;
            stmt_pos.insert(id, si as u32);
            stmts.push(NodeStmt { id, block_idx, has_def, group, member });
        }
        let n_execs = r_u32(r)?;
        let ts_first = r_u64(r)?;
        let ts_last = r_u64(r)?;
        let n_groups = cap_count(r_u64(r)? as usize, r.len(), 13, "group")?;
        if n_groups > n_stmts + 1 {
            return Err(corrupt("group count too large"));
        }
        let mut groups = Vec::with_capacity(n_groups);
        for _ in 0..n_groups {
            let has_pattern = match r_u8(r)? {
                0 => false,
                1 => true,
                _ => return Err(corrupt("bad pattern flag")),
            };
            let n_uvals = r_u32(r)?;
            let n_members = r_u64(r)? as usize;
            if n_members > n_stmts {
                return Err(corrupt("member count too large"));
            }
            let pattern = has_pattern.then_some(Seq::Unavailable(n_execs as u64));
            let uvals = (0..n_members).map(|_| Seq::Unavailable(n_uvals as u64)).collect::<Vec<_>>();
            total_seqs += has_pattern as u64 + n_members as u64;
            groups.push(Group { pattern, uvals, n_uvals });
        }
        let cf_succs: Vec<NodeId> = r_u64s(r)?.into_iter().map(|p| NodeId(p as u32)).collect();
        let cf_preds: Vec<NodeId> = r_u64s(r)?.into_iter().map(|p| NodeId(p as u32)).collect();
        let n_intra = cap_count(r_u64(r)? as usize, r.len(), 13, "intra key")?;
        let mut intra = HashMap::with_capacity(n_intra);
        for _ in 0..n_intra {
            let dst = StmtId(r_u32(r)?);
            let slot = r_u8(r)?;
            let n_ies = cap_count(r_u64(r)? as usize, r.len(), 6, "intra edge")?;
            let mut ies = Vec::with_capacity(n_ies);
            for _ in 0..n_ies {
                let src = StmtId(r_u32(r)?);
                let complete = r_u8(r)? == 1;
                let ks = match r_u8(r)? {
                    0 => None,
                    1 => Some(Seq::Unavailable(r_u64(r)?)),
                    _ => return Err(corrupt("bad coverage flag")),
                };
                total_seqs += ks.is_some() as u64;
                ies.push(IntraEdge { src, complete, ks });
            }
            intra.insert((dst, slot), ies);
        }
        node_index.insert((func, path_id), NodeId(ni as u32));
        total_seqs += 1; // ts
        nodes.push(Node {
            func,
            path_id,
            blocks,
            stmts,
            n_execs,
            ts: Seq::Unavailable(n_execs as u64),
            ts_first,
            ts_last,
            groups,
            cf_succs,
            cf_preds,
            intra,
            stmt_pos,
        });
    }

    let n_edges = cap_count(r_u64(r)? as usize, r.len(), 21, "edge")?;
    let mut edges = Vec::with_capacity(n_edges);
    for _ in 0..n_edges {
        edges.push(Edge {
            src_node: NodeId(r_u32(r)?),
            src_stmt: StmtId(r_u32(r)?),
            dst_node: NodeId(r_u32(r)?),
            dst_stmt: StmtId(r_u32(r)?),
            slot: r_u8(r)?,
            labels: r_u32(r)?,
        });
    }
    let n_labels = cap_count(r_u64(r)? as usize, r.len(), 4, "label")?;
    let mut labels = Vec::with_capacity(n_labels);
    for _ in 0..n_labels {
        let len = r_u32(r)?;
        labels.push(LabelSeq {
            len,
            dst: Seq::Unavailable(len as u64),
            src: Seq::Unavailable(len as u64),
        });
        total_seqs += 2;
    }
    for e in &edges {
        if e.labels as usize >= labels.len()
            || e.src_node.index() >= nodes.len()
            || e.dst_node.index() >= nodes.len()
        {
            return Err(corrupt("edge references out of range"));
        }
    }
    let mut in_edges: HashMap<(NodeId, StmtId, u8), Vec<u32>> = HashMap::new();
    let mut out_edges: HashMap<(NodeId, StmtId), Vec<u32>> = HashMap::new();
    for (i, e) in edges.iter().enumerate() {
        in_edges.entry((e.dst_node, e.dst_stmt, e.slot)).or_default().push(i as u32);
        out_edges.entry((e.src_node, e.src_stmt)).or_default().push(i as u32);
    }
    let first = (NodeId(r_u32(r)?), r_u64(r)?);
    let last = (NodeId(r_u32(r)?), r_u64(r)?);
    if !r.is_empty() {
        return Err(corrupt("trailing bytes in BIND"));
    }
    // Timestamps number the node executions consecutively, so the
    // first/last span must account for exactly the executions the nodes
    // record. A forged span would otherwise size trace buffers.
    let execs: u64 = nodes.iter().map(|n| n.n_execs as u64).sum();
    if first.1 > last.1 || (last.1 - first.1).checked_add(1) != Some(execs) {
        return Err(corrupt("BIND timestamp span disagrees with execution counts"));
    }
    Ok(Bound { nodes, node_index, edges, labels, in_edges, out_edges, first, last, total_seqs })
}

/// Sorted intra-edge keys of one node — writer and reader must walk the
/// coverage sets in the same order.
fn intra_keys(n: &Node) -> Vec<(StmtId, u8)> {
    let mut keys: Vec<(StmtId, u8)> = n.intra.keys().copied().collect();
    keys.sort();
    keys
}

fn write_tseq(wet: &Wet) -> io::Result<Vec<u8>> {
    let mut w = Vec::new();
    for n in &wet.nodes {
        w_seq(&mut w, &n.ts)?;
    }
    Ok(w)
}

pub(crate) fn fill_tseq(nodes: &mut [Node], p: &[u8]) -> io::Result<()> {
    let r = &mut &*p;
    for (ni, n) in nodes.iter_mut().enumerate() {
        let s = r_seq(r)?;
        if s.len() != n.n_execs as usize {
            return Err(corrupt(&format!("node {ni}: ts length mismatch")));
        }
        n.ts = s;
    }
    if !r.is_empty() {
        return Err(corrupt("trailing bytes in TSEQ"));
    }
    Ok(())
}

pub(crate) fn mark_tseq_lost(nodes: &mut [Node]) {
    for n in nodes {
        n.ts = Seq::Unavailable(n.ts.len() as u64);
    }
}

fn write_vals(wet: &Wet) -> io::Result<Vec<u8>> {
    let mut w = Vec::new();
    for n in &wet.nodes {
        for g in &n.groups {
            if let Some(p) = &g.pattern {
                w_seq(&mut w, p)?;
            }
            for u in &g.uvals {
                w_seq(&mut w, u)?;
            }
        }
    }
    Ok(w)
}

pub(crate) fn fill_vals(nodes: &mut [Node], p: &[u8]) -> io::Result<()> {
    let r = &mut &*p;
    for n in nodes.iter_mut() {
        for g in &mut n.groups {
            if let Some(pat) = &mut g.pattern {
                let s = r_seq(r)?;
                if s.len() != n.n_execs as usize {
                    return Err(corrupt("pattern length mismatch"));
                }
                *pat = s;
            }
            for u in &mut g.uvals {
                let s = r_seq(r)?;
                if s.len() != g.n_uvals as usize {
                    return Err(corrupt("uvals length mismatch"));
                }
                *u = s;
            }
        }
    }
    if !r.is_empty() {
        return Err(corrupt("trailing bytes in VALS"));
    }
    Ok(())
}

pub(crate) fn mark_vals_lost(nodes: &mut [Node]) {
    for n in nodes {
        for g in &mut n.groups {
            if let Some(p) = &mut g.pattern {
                *p = Seq::Unavailable(p.len() as u64);
            }
            for u in &mut g.uvals {
                *u = Seq::Unavailable(u.len() as u64);
            }
        }
    }
}

fn write_edgl(wet: &Wet) -> io::Result<Vec<u8>> {
    let mut w = Vec::new();
    for n in &wet.nodes {
        for key in intra_keys(n) {
            for ie in &n.intra[&key] {
                if let Some(ks) = &ie.ks {
                    w_seq(&mut w, ks)?;
                }
            }
        }
    }
    for l in &wet.labels {
        w_seq(&mut w, &l.dst)?;
        w_seq(&mut w, &l.src)?;
    }
    Ok(w)
}

pub(crate) fn fill_edgl(nodes: &mut [Node], labels: &mut [LabelSeq], p: &[u8]) -> io::Result<()> {
    let r = &mut &*p;
    for n in nodes.iter_mut() {
        for key in intra_keys(n) {
            for ie in n.intra.get_mut(&key).unwrap() {
                if let Some(ks) = &mut ie.ks {
                    let s = r_seq(r)?;
                    if s.len() != ks.len() {
                        return Err(corrupt("coverage set length mismatch"));
                    }
                    *ks = s;
                }
            }
        }
    }
    for l in labels.iter_mut() {
        let dst = r_seq(r)?;
        let src = r_seq(r)?;
        if dst.len() != l.len as usize || src.len() != l.len as usize {
            return Err(corrupt("label stream length mismatch"));
        }
        l.dst = dst;
        l.src = src;
    }
    if !r.is_empty() {
        return Err(corrupt("trailing bytes in EDGL"));
    }
    Ok(())
}

pub(crate) fn mark_edgl_lost(nodes: &mut [Node], labels: &mut [LabelSeq]) {
    for n in nodes {
        for ies in n.intra.values_mut() {
            for ie in ies {
                if let Some(ks) = &mut ie.ks {
                    *ks = Seq::Unavailable(ks.len() as u64);
                }
            }
        }
    }
    for l in labels {
        l.dst = Seq::Unavailable(l.len as u64);
        l.src = Seq::Unavailable(l.len as u64);
    }
}

/// Encodes the NDET stream: a presence flag (`0` = unavailable, the
/// salvage placeholder; `1` = recorded) then, when present, the record
/// count and `kind u8 | ts u64 | value u64` triples in consumption
/// order. The flag lets a rewritten salvaged file round-trip "the
/// recording was lost" instead of silently claiming "there was none".
fn write_ndet(wet: &Wet) -> io::Result<Vec<u8>> {
    let mut w = Vec::new();
    match &wet.ndet {
        None => w_u8(&mut w, 0)?,
        Some(recs) => {
            w_u8(&mut w, 1)?;
            w_u64(&mut w, recs.len() as u64)?;
            for rec in recs {
                w_u8(&mut w, rec.kind as u8)?;
                w_u64(&mut w, rec.ts)?;
                w_u64(&mut w, rec.value as u64)?;
            }
        }
    }
    Ok(w)
}

/// Decodes an NDET payload. A kind byte outside the known set fails
/// closed (a newer writer's records must not replay through the wrong
/// source); `Ok(None)` means the section says the stream is lost.
pub(crate) fn parse_ndet(p: &[u8]) -> io::Result<Option<Vec<NdetRec>>> {
    let r = &mut &*p;
    let present = match r_u8(r)? {
        0 => false,
        1 => true,
        t => return Err(corrupt(&format!("bad NDET presence flag {t}"))),
    };
    let recs = if present {
        let n = cap_count(r_u64(r)? as usize, r.len(), 17, "ndet record")?;
        let mut recs = Vec::with_capacity(n);
        for _ in 0..n {
            let kb = r_u8(r)?;
            let kind = wet_interp::NdetKind::from_byte(kb)
                .ok_or_else(|| corrupt(&format!("unknown NDET record kind {kb}")))?;
            let ts = r_u64(r)?;
            let value = r_u64(r)? as i64;
            recs.push(NdetRec { kind, ts, value });
        }
        Some(recs)
    } else {
        None
    };
    if !r.is_empty() {
        return Err(corrupt("trailing bytes in NDET"));
    }
    Ok(recs)
}

fn write_stat(wet: &Wet) -> io::Result<Vec<u8>> {
    let mut w = Vec::new();
    let s = &wet.sizes;
    for v in [s.orig_ts, s.orig_vals, s.orig_edges, s.t1_ts, s.t1_vals, s.t1_edges, s.t2_ts, s.t2_vals, s.t2_edges] {
        w_u64(&mut w, v)?;
    }
    let st = &wet.stats;
    for v in [
        st.stmts_executed,
        st.paths_executed,
        st.blocks_executed,
        st.nodes,
        st.edges,
        st.inferred_edges,
        st.shared_label_seqs,
        st.dynamic_deps,
    ] {
        w_u64(&mut w, v)?;
    }
    w_u64(&mut w, st.methods.len() as u64)?;
    for (k, v) in &st.methods {
        w_string(&mut w, k)?;
        w_u64(&mut w, *v)?;
    }
    Ok(w)
}

pub(crate) fn parse_stat(p: &[u8]) -> io::Result<(WetSizes, WetStats)> {
    let r = &mut &*p;
    let mut sv = [0u64; 9];
    for v in &mut sv {
        *v = r_u64(r)?;
    }
    let sizes = WetSizes {
        orig_ts: sv[0],
        orig_vals: sv[1],
        orig_edges: sv[2],
        t1_ts: sv[3],
        t1_vals: sv[4],
        t1_edges: sv[5],
        t2_ts: sv[6],
        t2_vals: sv[7],
        t2_edges: sv[8],
    };
    let mut tv = [0u64; 8];
    for v in &mut tv {
        *v = r_u64(r)?;
    }
    let n_methods = cap_count(r_u64(r)? as usize, r.len(), 12, "method histogram entry")?;
    let mut methods = std::collections::BTreeMap::new();
    for _ in 0..n_methods {
        let k = r_string(r)?;
        let v = r_u64(r)?;
        methods.insert(k, v);
    }
    if !r.is_empty() {
        return Err(corrupt("trailing bytes in STAT"));
    }
    let stats = WetStats {
        stmts_executed: tv[0],
        paths_executed: tv[1],
        blocks_executed: tv[2],
        nodes: tv[3],
        edges: tv[4],
        inferred_edges: tv[5],
        shared_label_seqs: tv[6],
        dynamic_deps: tv[7],
        methods,
    };
    Ok((sizes, stats))
}

// ---------------------------------------------------------------------
// Whole-container read/write.
// ---------------------------------------------------------------------

/// Assembles a WET from a scanned v2 container, salvaging what it can.
/// Returns `(None, report)` when nothing usable survives (the `BIND`
/// structure section is required); otherwise the report records what
/// was recovered and what the strict reader would object to.
fn read_v2(r: &mut impl Read) -> io::Result<(Option<Wet>, FsckReport)> {
    let mut scan = scan_sections(r)?;
    // One scan serves both consumers: the payloads feed the decoder
    // below, the extents ride along on the loaded WET so fsck tooling
    // and the lazy trace store never re-walk the frame table.
    let spans = scan.spans();
    let mut report = FsckReport { version: V2, ..Default::default() };

    // Per-section statuses, then Missing entries for absent required
    // sections, so `sections_checked` always counts the full format.
    let mut seen: Vec<[u8; 4]> = Vec::new();
    for e in &scan.entries {
        seen.push(e.tag);
        report.sections.push(SectionReport {
            tag: String::from_utf8_lossy(&e.tag).into_owned(),
            len: e.len,
            status: e.status.clone(),
        });
    }
    for tag in CANONICAL.iter().chain([&TAG_ENDW]) {
        if !seen.contains(tag) {
            report.sections.push(SectionReport {
                tag: String::from_utf8_lossy(tag).into_owned(),
                len: 0,
                status: SectionStatus::Missing,
            });
        }
    }

    // File-level structure problems the strict reader rejects.
    let canonical_full: Vec<[u8; 4]> = CANONICAL.iter().chain([&TAG_ENDW]).copied().collect();
    if scan.trailing_garbage {
        report.structure_error = Some("trailing bytes after ENDW trailer".into());
    } else if seen == canonical_full {
        if scan.trailer != Some(CANONICAL.len() as u64) {
            report.structure_error = Some("trailer section count mismatch".into());
        }
    } else if report.sections.iter().all(|s| s.status.is_ok()) {
        // Only complain about ordering when no per-section damage
        // already explains the deviation.
        report.structure_error = Some("sections missing, duplicated, or out of order".into());
    }

    // Structure first: without BIND there is nothing to salvage onto.
    let bound = match scan.payloads.remove(&TAG_BIND).map(|p| parse_bind(&p)) {
        Some(Ok(b)) => b,
        Some(Err(e)) => {
            mark_section(&mut report, TAG_BIND, SectionStatus::Malformed(e.to_string()));
            report.fatal = Some(format!("structure section unusable: {e}"));
            return Ok((None, report));
        }
        None => {
            report.fatal = Some("structure section unusable: BIND lost".into());
            return Ok((None, report));
        }
    };
    let Bound { mut nodes, node_index, edges, mut labels, in_edges, out_edges, first, last, total_seqs } = bound;

    let conf = match scan.payloads.remove(&TAG_CONF).map(|p| parse_conf(&p)) {
        Some(Ok(c)) => Some(c),
        Some(Err(e)) => {
            mark_section(&mut report, TAG_CONF, SectionStatus::Malformed(e.to_string()));
            None
        }
        None => None,
    };

    match scan.payloads.remove(&TAG_TSEQ).map(|p| fill_tseq(&mut nodes, &p)) {
        Some(Ok(())) => {}
        Some(Err(e)) => {
            mark_section(&mut report, TAG_TSEQ, SectionStatus::Malformed(e.to_string()));
            mark_tseq_lost(&mut nodes);
        }
        None => {}
    }
    match scan.payloads.remove(&TAG_VALS).map(|p| fill_vals(&mut nodes, &p)) {
        Some(Ok(())) => {}
        Some(Err(e)) => {
            mark_section(&mut report, TAG_VALS, SectionStatus::Malformed(e.to_string()));
            mark_vals_lost(&mut nodes);
        }
        None => {}
    }
    match scan.payloads.remove(&TAG_EDGL).map(|p| fill_edgl(&mut nodes, &mut labels, &p)) {
        Some(Ok(())) => {}
        Some(Err(e)) => {
            mark_section(&mut report, TAG_EDGL, SectionStatus::Malformed(e.to_string()));
            mark_edgl_lost(&mut nodes, &mut labels);
        }
        None => {}
    }
    let ndet = match scan.payloads.remove(&TAG_NDET).map(|p| parse_ndet(&p)) {
        Some(Ok(v)) => v,
        Some(Err(e)) => {
            // Includes unknown record kinds from a newer writer: the
            // stream is unusable for replay, fail closed to "lost".
            mark_section(&mut report, TAG_NDET, SectionStatus::Malformed(e.to_string()));
            None
        }
        None => None,
    };
    let (sizes, stats) = match scan.payloads.remove(&TAG_STAT).map(|p| parse_stat(&p)) {
        Some(Ok(ss)) => ss,
        Some(Err(e)) => {
            mark_section(&mut report, TAG_STAT, SectionStatus::Malformed(e.to_string()));
            Default::default()
        }
        None => Default::default(),
    };

    let (config, tier2) = match conf {
        Some((c, t2)) => (c, t2),
        // CONF lost: default configuration; the tier is recoverable
        // from the sequences themselves.
        None => {
            let t2 = nodes.iter().any(|n| matches!(n.ts, Seq::Compressed(_)))
                || labels.iter().any(|l| matches!(l.dst, Seq::Compressed(_)));
            (WetConfig::default(), t2)
        }
    };

    let wet = Wet {
        config,
        nodes,
        node_index,
        edges,
        labels,
        in_edges,
        out_edges,
        first,
        last,
        sizes,
        stats,
        tier2,
        ndet,
        section_index: Some(spans),
    };
    if let Err(e) = wet.validate() {
        // The skeleton itself is inconsistent — not recoverable.
        report.fatal = Some(format!("validation failed: {e}"));
        return Ok((None, report));
    }
    report.seqs_lost = wet.unavailable_seqs();
    report.seqs_recovered = total_seqs - report.seqs_lost;
    Ok((Some(wet), report))
}

fn mark_section(report: &mut FsckReport, tag: [u8; 4], status: SectionStatus) {
    let name = String::from_utf8_lossy(&tag).into_owned();
    if let Some(s) = report.sections.iter_mut().find(|s| s.tag == name) {
        s.status = status;
    }
}

impl Wet {
    /// Serializes the WET as a v2 sectioned container.
    ///
    /// # Errors
    /// Propagates writer errors.
    pub fn write_to(&self, w: &mut impl Write) -> io::Result<()> {
        w.write_all(MAGIC)?;
        w_u8(w, V2)?;
        w_section(w, TAG_CONF, &write_conf(self)?)?;
        w_section(w, TAG_BIND, &write_bind(self)?)?;
        w_section(w, TAG_TSEQ, &write_tseq(self)?)?;
        w_section(w, TAG_VALS, &write_vals(self)?)?;
        w_section(w, TAG_EDGL, &write_edgl(self)?)?;
        w_section(w, TAG_NDET, &write_ndet(self)?)?;
        w_section(w, TAG_STAT, &write_stat(self)?)?;
        let mut trailer = Vec::new();
        w_u64(&mut trailer, CANONICAL.len() as u64)?;
        w_section(w, TAG_ENDW, &trailer)
    }

    /// Deserializes a WET written by [`write_to`](Self::write_to) (v2)
    /// or by the legacy v1 writer ([`write_to_v1`](Self::write_to_v1)).
    /// Strict: any damage — a failed checksum, missing or reordered
    /// section, trailing bytes, or structural inconsistency — is an
    /// error. Use [`read_salvaging`](Self::read_salvaging) to recover
    /// what survives from a damaged file.
    ///
    /// # Errors
    /// Fails on bad magic, unsupported version, or malformed input.
    pub fn read_from(r: &mut impl Read) -> io::Result<Self> {
        match read_header(r)? {
            V1 => read_v1(r),
            _ => {
                let (wet, report) = read_v2(r)?;
                match wet {
                    Some(w) if report.is_clean() => Ok(w),
                    _ => Err(corrupt(
                        &report.first_problem().unwrap_or_else(|| "damaged container".into()),
                    )),
                }
            }
        }
    }

    /// Reads a damaged v2 container, recovering every section whose
    /// checksum verifies. Lost label sequences become
    /// [`Seq::Unavailable`] placeholders (the degraded query paths
    /// report them instead of failing); lost configuration or
    /// statistics fall back to defaults. The report says exactly what
    /// was kept. v1 files have no checksums to salvage by, so they
    /// either load cleanly or fail.
    ///
    /// # Errors
    /// Fails when no usable WET remains — the structure (`BIND`)
    /// section is unrecoverable or inconsistent.
    pub fn read_salvaging(r: &mut impl Read) -> io::Result<(Self, FsckReport)> {
        match read_header(r)? {
            V1 => {
                let wet = read_v1(r)?;
                Ok((wet, FsckReport { version: V1, ..Default::default() }))
            }
            _ => {
                let (wet, report) = read_v2(r)?;
                match wet {
                    Some(w) => Ok((w, report)),
                    None => Err(corrupt(
                        &report.fatal.clone().unwrap_or_else(|| "damaged container".into()),
                    )),
                }
            }
        }
    }

    /// Integrity-checks a `.wetz` file without requiring it to be
    /// loadable: every section is scanned and checksummed, the
    /// recoverable parts are assembled and validated, and the report
    /// records section statuses and sequence recovery counts. For v1
    /// files (no checksums) this is a strict parse: clean or fatal.
    ///
    /// # Errors
    /// Only on genuine I/O failure; damage is reported, not raised.
    pub fn fsck(r: &mut impl Read) -> io::Result<FsckReport> {
        let version = match read_header(r) {
            Ok(v) => v,
            Err(e) if e.kind() == io::ErrorKind::InvalidData || e.kind() == io::ErrorKind::UnexpectedEof => {
                return Ok(FsckReport { fatal: Some(e.to_string()), ..Default::default() });
            }
            Err(e) => return Err(e),
        };
        if version == V1 {
            let mut report = FsckReport { version: V1, ..Default::default() };
            if let Err(e) = read_v1(r) {
                if e.kind() == io::ErrorKind::InvalidData || e.kind() == io::ErrorKind::UnexpectedEof {
                    report.fatal = Some(e.to_string());
                } else {
                    return Err(e);
                }
            }
            return Ok(report);
        }
        let (_, report) = read_v2(r)?;
        Ok(report)
    }

    /// Strictly reads a container from `path` through the
    /// fault-injectable I/O layer — the path-level counterpart of
    /// [`read_from`](Self::read_from) that CLI and repair code use so
    /// a `WET_FAULT_*` plan can intercept the read.
    ///
    /// # Errors
    /// I/O failures (including injected ones) and container damage.
    pub fn read_from_path(path: &Path, io_layer: &dyn Io) -> io::Result<Self> {
        let bytes = io_layer.read(path)?;
        Self::read_from(&mut bytes.as_slice())
    }

    /// Salvage-reads a container from `path` through the I/O layer;
    /// see [`read_salvaging`](Self::read_salvaging).
    ///
    /// # Errors
    /// I/O failures and fatally-damaged containers.
    pub fn read_salvaging_path(path: &Path, io_layer: &dyn Io) -> io::Result<(Self, FsckReport)> {
        let bytes = io_layer.read(path)?;
        Self::read_salvaging(&mut bytes.as_slice())
    }

    /// Durably writes the container at `path` through the I/O layer:
    /// sibling temp file, fsync, then atomic rename — a fault mid-write
    /// leaves the old file (or no file) under the final name, never a
    /// torn container.
    ///
    /// # Errors
    /// Serialization and I/O failures (including injected ones); on
    /// error the temp file is cleaned up best-effort.
    pub fn write_to_path(&self, path: &Path, io_layer: &dyn Io) -> io::Result<()> {
        let mut bytes = Vec::new();
        self.write_to(&mut bytes)?;
        let mut tmp_name = path.as_os_str().to_os_string();
        tmp_name.push(".tmp");
        let tmp = std::path::PathBuf::from(tmp_name);
        let write = || -> io::Result<()> {
            let mut f = io_layer.create(&tmp)?;
            io_layer.write(&mut f, &bytes)?;
            io_layer.fsync(&f)?;
            io_layer.rename(&tmp, path)
        };
        write().inspect_err(|_| {
            let _ = std::fs::remove_file(&tmp);
        })
    }

    /// Serializes the WET in the legacy v1 layout (no sections, no
    /// checksums). Kept so tests can produce v1 inputs and verify the
    /// compatibility path; new files should use
    /// [`write_to`](Self::write_to).
    ///
    /// # Errors
    /// Propagates writer errors; v1 cannot represent salvage
    /// placeholders, so writing an unavailable sequence fails.
    pub fn write_to_v1(&self, w: &mut impl Write) -> io::Result<()> {
        if self.unavailable_seqs() > 0 || self.ndet.is_none() {
            return Err(corrupt("v1 cannot represent unavailable (salvaged) sequences"));
        }
        if self.ndet.as_ref().is_some_and(|v| !v.is_empty()) {
            return Err(corrupt("v1 cannot represent NDET records"));
        }
        w.write_all(MAGIC)?;
        w_u8(w, V1)?;
        w_u8(w, matches!(self.config.ts_mode, TsMode::Global) as u8)?;
        w_u32(w, self.config.stream.table_bits_max)?;
        w_u64(w, self.config.stream.trial_len as u64)?;
        w_u32(w, self.config.stream.candidates.len() as u32)?;
        for &m in &self.config.stream.candidates {
            w_method(w, m)?;
        }
        w_u8(w, self.config.group_values as u8)?;
        w_u8(w, self.config.infer_local_edges as u8)?;
        w_u8(w, self.config.share_edge_labels as u8)?;
        w_u8(w, self.tier2 as u8)?;
        w_u64(w, self.nodes.len() as u64)?;
        for n in &self.nodes {
            w_u32(w, n.func.0)?;
            w_u64(w, n.path_id)?;
            w_u64s(w, &n.blocks.iter().map(|b| b.0 as u64).collect::<Vec<_>>())?;
            w_u64(w, n.stmts.len() as u64)?;
            for s in &n.stmts {
                w_u32(w, s.id.0)?;
                w_u32(w, s.block_idx as u32)?;
                w_u8(w, s.has_def as u8)?;
                w_u32(w, s.group)?;
                w_u32(w, s.member)?;
            }
            w_u32(w, n.n_execs)?;
            w_seq(w, &n.ts)?;
            w_u64(w, n.ts_first)?;
            w_u64(w, n.ts_last)?;
            w_u64(w, n.groups.len() as u64)?;
            for g in &n.groups {
                w_opt_seq(w, &g.pattern)?;
                w_u32(w, g.n_uvals)?;
                w_u64(w, g.uvals.len() as u64)?;
                for u in &g.uvals {
                    w_seq(w, u)?;
                }
            }
            w_u64s(w, &n.cf_succs.iter().map(|p| p.0 as u64).collect::<Vec<_>>())?;
            w_u64s(w, &n.cf_preds.iter().map(|p| p.0 as u64).collect::<Vec<_>>())?;
            let keys = intra_keys(n);
            w_u64(w, keys.len() as u64)?;
            for key in keys {
                w_u32(w, key.0 .0)?;
                w_u8(w, key.1)?;
                let ies = &n.intra[&key];
                w_u64(w, ies.len() as u64)?;
                for ie in ies {
                    w_u32(w, ie.src.0)?;
                    w_u8(w, ie.complete as u8)?;
                    w_opt_seq(w, &ie.ks)?;
                }
            }
        }
        w_u64(w, self.edges.len() as u64)?;
        for e in &self.edges {
            w_u32(w, e.src_node.0)?;
            w_u32(w, e.src_stmt.0)?;
            w_u32(w, e.dst_node.0)?;
            w_u32(w, e.dst_stmt.0)?;
            w_u8(w, e.slot)?;
            w_u32(w, e.labels)?;
        }
        w_u64(w, self.labels.len() as u64)?;
        for l in &self.labels {
            w_u32(w, l.len)?;
            w_seq(w, &l.dst)?;
            w_seq(w, &l.src)?;
        }
        w_u32(w, self.first.0 .0)?;
        w_u64(w, self.first.1)?;
        w_u32(w, self.last.0 .0)?;
        w_u64(w, self.last.1)?;
        let s = &self.sizes;
        for v in [s.orig_ts, s.orig_vals, s.orig_edges, s.t1_ts, s.t1_vals, s.t1_edges, s.t2_ts, s.t2_vals, s.t2_edges]
        {
            w_u64(w, v)?;
        }
        let st = &self.stats;
        for v in [
            st.stmts_executed,
            st.paths_executed,
            st.blocks_executed,
            st.nodes,
            st.edges,
            st.inferred_edges,
            st.shared_label_seqs,
            st.dynamic_deps,
        ] {
            w_u64(w, v)?;
        }
        w_u64(w, st.methods.len() as u64)?;
        for (k, v) in &st.methods {
            w_string(w, k)?;
            w_u64(w, *v)?;
        }
        Ok(())
    }
}

fn read_header(r: &mut impl Read) -> io::Result<u8> {
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(corrupt("not a WETZ file"));
    }
    let version = r_u8(r)?;
    if version != V1 && version != V2 {
        return Err(corrupt("unsupported WETZ version"));
    }
    Ok(version)
}

/// Legacy v1 reader (header already consumed). No checksums: damage is
/// detected only where it breaks parsing or validation.
fn read_v1(r: &mut impl Read) -> io::Result<Wet> {
    let ts_mode = if r_u8(r)? == 1 { TsMode::Global } else { TsMode::Local };
    let table_bits_max = r_u32(r)?;
    let trial_len = r_u64(r)? as usize;
    let n_cand = r_u32(r)? as usize;
    if n_cand > 1024 {
        return Err(corrupt("too many candidate methods"));
    }
    let mut candidates = Vec::with_capacity(n_cand);
    for _ in 0..n_cand {
        candidates.push(r_method(r)?);
    }
    let group_values = r_u8(r)? == 1;
    let infer_local_edges = r_u8(r)? == 1;
    let share_edge_labels = r_u8(r)? == 1;
    let tier2 = r_u8(r)? == 1;
    let config = WetConfig {
        ts_mode,
        stream: StreamConfig { table_bits_max, trial_len, candidates, ..Default::default() },
        group_values,
        infer_local_edges,
        share_edge_labels,
        capture: Default::default(),
        serve: Default::default(),
    };

    let n_nodes = r_u64(r)? as usize;
    if n_nodes > 1 << 28 {
        return Err(corrupt("node count too large"));
    }
    let mut nodes = Vec::with_capacity(n_nodes.min(1 << 16));
    let mut node_index = HashMap::new();
    for ni in 0..n_nodes {
        let func = FuncId(r_u32(r)?);
        let path_id = r_u64(r)?;
        let blocks: Vec<BlockId> = r_u64s(r)?.into_iter().map(|b| BlockId(b as u32)).collect();
        let n_stmts = r_u64(r)? as usize;
        if n_stmts > 1 << 24 {
            return Err(corrupt("statement count too large"));
        }
        let mut stmts = Vec::with_capacity(n_stmts.min(1 << 16));
        let mut stmt_pos = HashMap::new();
        for si in 0..n_stmts {
            let id = StmtId(r_u32(r)?);
            let block_idx = r_u32(r)? as u16;
            let has_def = r_u8(r)? == 1;
            let group = r_u32(r)?;
            let member = r_u32(r)?;
            stmt_pos.insert(id, si as u32);
            stmts.push(NodeStmt { id, block_idx, has_def, group, member });
        }
        let n_execs = r_u32(r)?;
        let ts = r_seq(r)?;
        let ts_first = r_u64(r)?;
        let ts_last = r_u64(r)?;
        let n_groups = r_u64(r)? as usize;
        if n_groups > n_stmts + 1 {
            return Err(corrupt("group count too large"));
        }
        let mut groups = Vec::with_capacity(n_groups);
        for _ in 0..n_groups {
            let pattern = r_opt_seq(r)?;
            let n_uvals = r_u32(r)?;
            let n_members = r_u64(r)? as usize;
            if n_members > n_stmts {
                return Err(corrupt("member count too large"));
            }
            let mut uvals = Vec::with_capacity(n_members);
            for _ in 0..n_members {
                uvals.push(r_seq(r)?);
            }
            groups.push(Group { pattern, uvals, n_uvals });
        }
        let cf_succs: Vec<NodeId> = r_u64s(r)?.into_iter().map(|p| NodeId(p as u32)).collect();
        let cf_preds: Vec<NodeId> = r_u64s(r)?.into_iter().map(|p| NodeId(p as u32)).collect();
        let n_intra = r_u64(r)? as usize;
        if n_intra > 1 << 24 {
            return Err(corrupt("intra count too large"));
        }
        let mut intra = HashMap::with_capacity(n_intra.min(1 << 16));
        for _ in 0..n_intra {
            let dst = StmtId(r_u32(r)?);
            let slot = r_u8(r)?;
            let n_ies = r_u64(r)? as usize;
            if n_ies > 1 << 20 {
                return Err(corrupt("intra edge list too large"));
            }
            let mut ies = Vec::with_capacity(n_ies.min(1 << 16));
            for _ in 0..n_ies {
                let src = StmtId(r_u32(r)?);
                let complete = r_u8(r)? == 1;
                let ks = r_opt_seq(r)?;
                ies.push(IntraEdge { src, complete, ks });
            }
            intra.insert((dst, slot), ies);
        }
        node_index.insert((func, path_id), NodeId(ni as u32));
        nodes.push(Node {
            func,
            path_id,
            blocks,
            stmts,
            n_execs,
            ts,
            ts_first,
            ts_last,
            groups,
            cf_succs,
            cf_preds,
            intra,
            stmt_pos,
        });
    }

    let n_edges = r_u64(r)? as usize;
    if n_edges > 1 << 28 {
        return Err(corrupt("edge count too large"));
    }
    let mut edges = Vec::with_capacity(n_edges.min(1 << 16));
    for _ in 0..n_edges {
        edges.push(Edge {
            src_node: NodeId(r_u32(r)?),
            src_stmt: StmtId(r_u32(r)?),
            dst_node: NodeId(r_u32(r)?),
            dst_stmt: StmtId(r_u32(r)?),
            slot: r_u8(r)?,
            labels: r_u32(r)?,
        });
    }
    let n_labels = r_u64(r)? as usize;
    if n_labels > 1 << 28 {
        return Err(corrupt("label count too large"));
    }
    let mut labels = Vec::with_capacity(n_labels.min(1 << 16));
    for _ in 0..n_labels {
        let len = r_u32(r)?;
        let dst = r_seq(r)?;
        let src = r_seq(r)?;
        labels.push(LabelSeq { len, dst, src });
    }
    for e in &edges {
        if e.labels as usize >= labels.len()
            || e.src_node.index() >= nodes.len()
            || e.dst_node.index() >= nodes.len()
        {
            return Err(corrupt("edge references out of range"));
        }
    }
    let mut in_edges: HashMap<(NodeId, StmtId, u8), Vec<u32>> = HashMap::new();
    let mut out_edges: HashMap<(NodeId, StmtId), Vec<u32>> = HashMap::new();
    for (i, e) in edges.iter().enumerate() {
        in_edges.entry((e.dst_node, e.dst_stmt, e.slot)).or_default().push(i as u32);
        out_edges.entry((e.src_node, e.src_stmt)).or_default().push(i as u32);
    }

    let first = (NodeId(r_u32(r)?), r_u64(r)?);
    let last = (NodeId(r_u32(r)?), r_u64(r)?);
    let mut sv = [0u64; 9];
    for v in &mut sv {
        *v = r_u64(r)?;
    }
    let sizes = WetSizes {
        orig_ts: sv[0],
        orig_vals: sv[1],
        orig_edges: sv[2],
        t1_ts: sv[3],
        t1_vals: sv[4],
        t1_edges: sv[5],
        t2_ts: sv[6],
        t2_vals: sv[7],
        t2_edges: sv[8],
    };
    let mut tv = [0u64; 8];
    for v in &mut tv {
        *v = r_u64(r)?;
    }
    let n_methods = r_u64(r)? as usize;
    if n_methods > 1 << 10 {
        return Err(corrupt("method histogram too large"));
    }
    let mut methods = std::collections::BTreeMap::new();
    for _ in 0..n_methods {
        let k = r_string(r)?;
        let v = r_u64(r)?;
        methods.insert(k, v);
    }
    let stats = WetStats {
        stmts_executed: tv[0],
        paths_executed: tv[1],
        blocks_executed: tv[2],
        nodes: tv[3],
        edges: tv[4],
        inferred_edges: tv[5],
        shared_label_seqs: tv[6],
        dynamic_deps: tv[7],
        methods,
    };

    let wet = Wet {
        config,
        nodes,
        node_index,
        edges,
        labels,
        in_edges,
        out_edges,
        first,
        last,
        sizes,
        stats,
        tier2,
        // v1 predates nondeterminism capture; such traces recorded no
        // ndet reads, so the stream is present and empty.
        ndet: Some(Vec::new()),
        section_index: None,
    };
    wet.validate().map_err(|e| corrupt(&e))?;
    Ok(wet)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query;
    use crate::WetBuilder;
    use wet_interp::{Interp, InterpConfig};
    use wet_ir::ballarus::BallLarus;

    fn sample_wet(tier2: bool) -> (wet_ir::Program, Wet) {
        let p = crate::tests::looping_program();
        let (mut wet, _) = crate::tests::build_wet(&p, &[70], WetConfig::default());
        if tier2 {
            wet.compress();
        }
        (p, wet)
    }

    #[test]
    fn roundtrip_preserves_queries_both_tiers() {
        for tier2 in [false, true] {
            let (p, wet) = sample_wet(tier2);
            let mut bytes = Vec::new();
            wet.write_to(&mut bytes).unwrap();
            let back = Wet::read_from(&mut bytes.as_slice()).unwrap();
            assert_eq!(back.is_tier2(), tier2);
            assert_eq!(back.nodes().len(), wet.nodes().len());
            assert_eq!(back.sizes(), wet.sizes());
            let a = query::cf_trace_forward(&wet).unwrap();
            let b = query::cf_trace_forward(&back).unwrap();
            assert_eq!(a, b, "tier2={tier2}");
            for sid in 0..p.stmt_count() as u32 {
                let s = StmtId(sid);
                assert_eq!(
                    query::value_trace(&wet, s, 1).unwrap(),
                    query::value_trace(&back, s, 1).unwrap(),
                    "values of {s} (tier2={tier2})"
                );
                assert_eq!(
                    query::address_trace(&wet, &p, s, 1).unwrap(),
                    query::address_trace(&back, &p, s, 1).unwrap(),
                    "addresses of {s} (tier2={tier2})"
                );
            }
        }
    }

    #[test]
    fn v1_compat_roundtrip() {
        for tier2 in [false, true] {
            let (_p, wet) = sample_wet(tier2);
            let mut bytes = Vec::new();
            wet.write_to_v1(&mut bytes).unwrap();
            let back = Wet::read_from(&mut bytes.as_slice()).unwrap();
            assert_eq!(back.is_tier2(), tier2);
            let a = query::cf_trace_forward(&wet).unwrap();
            let b = query::cf_trace_forward(&back).unwrap();
            assert_eq!(a, b, "v1 tier2={tier2}");
        }
    }

    #[test]
    fn v2_serialization_is_deterministic() {
        let (_p, wet) = sample_wet(true);
        let mut a = Vec::new();
        let mut b = Vec::new();
        wet.write_to(&mut a).unwrap();
        wet.write_to(&mut b).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn section_spans_cover_the_file() {
        let (_p, wet) = sample_wet(true);
        let mut bytes = Vec::new();
        wet.write_to(&mut bytes).unwrap();
        let spans = section_spans(&bytes).unwrap();
        let tags: Vec<[u8; 4]> = spans.iter().map(|s| s.tag).collect();
        assert_eq!(tags, vec![TAG_CONF, TAG_BIND, TAG_TSEQ, TAG_VALS, TAG_EDGL, TAG_NDET, TAG_STAT, TAG_ENDW]);
        assert_eq!(spans[0].start, 5);
        for w in spans.windows(2) {
            assert_eq!(w[0].end, w[1].start);
        }
        assert_eq!(spans.last().unwrap().end, bytes.len());
    }

    #[test]
    fn bad_magic_rejected() {
        let bytes = b"NOPE....".to_vec();
        assert!(Wet::read_from(&mut bytes.as_slice()).is_err());
    }

    #[test]
    fn truncation_rejected() {
        let (_p, wet) = sample_wet(true);
        let mut bytes = Vec::new();
        wet.write_to(&mut bytes).unwrap();
        for cut in [4, 16, bytes.len() / 3, bytes.len() - 1] {
            assert!(Wet::read_from(&mut &bytes[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn single_bit_flip_detected_everywhere() {
        let (_p, wet) = sample_wet(false);
        let mut bytes = Vec::new();
        wet.write_to(&mut bytes).unwrap();
        // Every byte position, first bit: strict read must fail (the
        // flip lands in a checksummed section, its CRC, or the header).
        for i in 0..bytes.len() {
            let mut m = bytes.clone();
            m[i] ^= 1;
            assert!(Wet::read_from(&mut m.as_slice()).is_err(), "flip at byte {i} undetected");
        }
    }

    #[test]
    fn salvage_recovers_structure_when_values_damaged() {
        let (_p, wet) = sample_wet(true);
        let mut bytes = Vec::new();
        wet.write_to(&mut bytes).unwrap();
        let spans = section_spans(&bytes).unwrap();
        let vals = spans.iter().find(|s| s.tag == TAG_VALS).unwrap();
        let mut m = bytes.clone();
        m[vals.payload_start + vals.payload_len / 2] ^= 0x40;
        assert!(Wet::read_from(&mut m.as_slice()).is_err());
        let (back, report) = Wet::read_salvaging(&mut m.as_slice()).unwrap();
        assert!(!report.is_clean());
        assert!(report.seqs_lost > 0);
        assert!(report.seqs_recovered > 0);
        assert_eq!(report.seqs_lost, back.unavailable_seqs());
        // Structure and control flow survive intact.
        let a = query::cf_trace_forward(&wet).unwrap();
        let b = query::cf_trace_forward(&back).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn repair_roundtrip_is_clean() {
        let (_p, wet) = sample_wet(true);
        let mut bytes = Vec::new();
        wet.write_to(&mut bytes).unwrap();
        let spans = section_spans(&bytes).unwrap();
        let tseq = spans.iter().find(|s| s.tag == TAG_TSEQ).unwrap();
        let mut m = bytes.clone();
        m[tseq.payload_start] ^= 0xFF;
        let (salvaged, report) = Wet::read_salvaging(&mut m.as_slice()).unwrap();
        assert!(report.seqs_lost > 0);
        // Re-serializing the salvaged WET produces a container that is
        // itself clean (Unavailable placeholders round-trip).
        let mut repaired = Vec::new();
        salvaged.write_to(&mut repaired).unwrap();
        let report2 = Wet::fsck(&mut repaired.as_slice()).unwrap();
        assert!(report2.is_clean(), "{:?}", report2.first_problem());
        assert_eq!(report2.seqs_lost, report.seqs_lost);
        let back = Wet::read_from(&mut repaired.as_slice()).unwrap();
        assert_eq!(back.unavailable_seqs(), report.seqs_lost);
    }

    #[test]
    fn fsck_reports_clean_file() {
        let (_p, wet) = sample_wet(false);
        let mut bytes = Vec::new();
        wet.write_to(&mut bytes).unwrap();
        let report = Wet::fsck(&mut bytes.as_slice()).unwrap();
        assert!(report.is_clean());
        assert_eq!(report.sections_checked(), 8);
        assert_eq!(report.sections_corrupt(), 0);
        assert_eq!(report.seqs_lost, 0);
        assert!(report.seqs_recovered > 0);
    }

    #[test]
    fn ndet_section_roundtrips_and_fails_closed() {
        let (_p, mut wet) = sample_wet(false);
        wet.ndet = Some(vec![
            NdetRec { kind: wet_interp::NdetKind::Env, ts: 1, value: 42 },
            NdetRec { kind: wet_interp::NdetKind::Clock, ts: 2, value: -7 },
            NdetRec { kind: wet_interp::NdetKind::Input, ts: 2, value: i64::MIN },
        ]);
        let mut bytes = Vec::new();
        wet.write_to(&mut bytes).unwrap();
        let back = Wet::read_from(&mut bytes.as_slice()).unwrap();
        assert_eq!(back.ndet(), wet.ndet());

        // An unknown kind byte (a newer writer) is a typed corrupt
        // error on the strict path, never a silent mis-replay.
        let spans = section_spans(&bytes).unwrap();
        let nd = spans.iter().find(|s| s.tag == TAG_NDET).unwrap();
        let mut m = bytes.clone();
        let kind_off = nd.payload_start + 9; // flag u8 + count u64
        assert!(wet_interp::NdetKind::from_byte(m[kind_off]).is_some(), "offset must hit a kind byte");
        m[kind_off] = 250;
        // Restore the section CRC so only the kind byte is "wrong".
        let crc = {
            let mut c = crate::crc::Crc32::new();
            c.update(&m[nd.start..nd.payload_start + nd.payload_len]);
            c.finish()
        };
        m[nd.payload_start + nd.payload_len..nd.payload_start + nd.payload_len + 4]
            .copy_from_slice(&crc.to_le_bytes());
        let err = Wet::read_from(&mut m.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("unknown NDET record kind"), "{err}");
        // Salvage keeps the rest but reports the stream lost.
        let (salvaged, report) = Wet::read_salvaging(&mut m.as_slice()).unwrap();
        assert!(salvaged.ndet().is_none());
        assert!(!report.is_clean());
        // The lost stream round-trips as lost, not as "none recorded".
        let mut repaired = Vec::new();
        salvaged.write_to(&mut repaired).unwrap();
        let back = Wet::read_from(&mut repaired.as_slice()).unwrap();
        assert!(back.ndet().is_none());
        // v1 can represent neither a lost stream nor records.
        assert!(salvaged.write_to_v1(&mut Vec::new()).is_err());
        assert!(wet.write_to_v1(&mut Vec::new()).is_err());
    }

    #[test]
    fn file_roundtrip_through_disk() {
        let p = crate::tests::looping_program();
        let bl = BallLarus::new(&p);
        let mut builder = WetBuilder::new(&p, &bl, WetConfig::default());
        Interp::new(&p, &bl, InterpConfig::default()).run(&[40], &mut builder).unwrap();
        let mut wet = builder.finish();
        wet.compress();
        let dir = std::env::temp_dir().join("wet-serial-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.wetz");
        {
            let mut f = std::io::BufWriter::new(std::fs::File::create(&path).unwrap());
            wet.write_to(&mut f).unwrap();
        }
        let mut f = std::io::BufReader::new(std::fs::File::open(&path).unwrap());
        let back = Wet::read_from(&mut f).unwrap();
        assert_eq!(query::cf_trace_forward(&back).unwrap().len() as u64, wet.stats().paths_executed);
    }
}
