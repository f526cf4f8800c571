//! Crash-consistent segmented trace capture.
//!
//! The plain pipeline ([`WetBuilder`] fed by `wet-interp`) holds the
//! whole execution in RAM until `finish`; a crash, OOM kill, or power
//! loss mid-trace loses everything. This module bounds both failure
//! modes: [`Capture`] wraps the builder as a [`TraceSink`] and flushes
//! the accumulated state to an append-only **segment log** every
//! `segment_interval` timestamps or when the configured memory budget
//! fills, so at most one segment's worth of trace is ever at risk.
//!
//! # Directory layout (`<name>.wetz.seg/`)
//!
//! ```text
//! capture.conf    immutable: WetConfig + capture policy (written
//!                 durably once, before any tracing)
//! seg-00000.seg   sealed segments: "WSEG" | version | CRC'd sections
//! seg-00001.seg   (same framing as .wetz v2 — tag|len|payload|crc32)
//! ...
//! MANIFEST        checkpoint: sealed-segment list + finished flag,
//!                 replaced via write-temp + fsync + rename
//! ```
//!
//! # Crash-consistency rules
//!
//! * A segment is **sealed** once its file is written and fsynced; the
//!   manifest replacement that follows records it. Every mutation of
//!   the log is one of these two *durable writes*, numbered from 1 —
//!   the unit the crash harness ([`crate::fault::CrashPlan`]) targets.
//! * [`Capture::resume`] trusts files over the manifest: it keeps the
//!   longest prefix of segments that are CRC-intact *and* chain
//!   contiguously (index and timestamp), deletes everything after it
//!   (a torn tail is indistinguishable from never-written data), and
//!   rewrites the manifest to match. A torn manifest therefore loses
//!   nothing: sealed segments are self-describing.
//! * Re-execution is deterministic, so resume replays the program from
//!   the start while [`TraceSink::fast_forward_until`] suppresses
//!   event delivery up to the last sealed timestamp; the builder
//!   frontier (node registry, execution counts, timestamp spine, CF
//!   sets, intra-edge watermarks) is rebuilt from the segment deltas,
//!   making the continued capture byte-identical to an uninterrupted
//!   one.
//!
//! # Budget degradation
//!
//! Flushing releases the buffered labels but not the carry-over spine
//! (node skeletons + one entry per timestamp). When carry-over alone
//! reaches a quarter of `budget_bytes`, the capture **sheds value
//! detail** — timestamps and dependence edges keep flowing, and the
//! affected nodes are sealed with [`Seq::Unavailable`] value streams,
//! the same first-class placeholder the salvage path produces, so
//! degraded queries and `fsck` accounting apply end-to-end. Shedding
//! is sticky and decided only at flush boundaries, keeping it a pure
//! function of the event stream (crash/resume reproduces it exactly).
//!
//! [`Seq::Unavailable`]: crate::Seq::Unavailable

use crate::build::{EdgeKey, IntraKey, SegmentDelta, WetBuilder};
use crate::crc::Crc32;
use crate::fault::{is_disk_full, CrashMode, CrashPlan, FaultRng, Io, Vfs};
use crate::graph::{NdetRec, NodeId, Wet, WetConfig};
use crate::serial::{cap_count, corrupt, parse_conf, scan_sections, w_section, write_conf_parts, TAG_ENDW};
use std::fs::{self, File};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;
use wet_interp::{BlockEvent, NdetEvent, NdetKind, StmtEvent, TraceSink};
use wet_ir::ballarus::BallLarus;
use wet_ir::{FuncId, Program, StmtId};
use wet_stream::serial::{r_u32, r_u64, r_u64s, r_u8, w_u32, w_u64, w_u64s, w_u8};

const SEG_MAGIC: &[u8; 4] = b"WSEG";
const MAN_MAGIC: &[u8; 4] = b"WMAN";
const CONF_MAGIC: &[u8; 4] = b"WCNF";
/// Log format version. v2 added the SNDT (nondeterminism record)
/// segment section; v1 logs are refused rather than silently replayed
/// without their nondeterminism.
const VERSION: u8 = 2;

/// Segment header: index, timestamp range, shed flag, counter deltas.
const TAG_SGHD: [u8; 4] = *b"SGHD";
/// Nodes first executed in the segment, in creation order.
const TAG_SNOD: [u8; 4] = *b"SNOD";
/// Executed node per timestamp.
const TAG_STSQ: [u8; 4] = *b"STSQ";
/// Per-node per-def value suffixes.
const TAG_SVAL: [u8; 4] = *b"SVAL";
/// Intra-node edge instances.
const TAG_SINT: [u8; 4] = *b"SINT";
/// Non-local edge label pairs.
const TAG_SNLE: [u8; 4] = *b"SNLE";
/// Control-flow pairs first observed in the segment.
const TAG_SCFE: [u8; 4] = *b"SCFE";
/// Nondeterministic values consumed in the segment (never shed).
const TAG_SNDT: [u8; 4] = *b"SNDT";
/// Manifest body.
const TAG_MANI: [u8; 4] = *b"MANI";
/// Capture configuration body.
const TAG_CCFG: [u8; 4] = *b"CCFG";

const CONF_FILE: &str = "capture.conf";
const MANIFEST_FILE: &str = "MANIFEST";
/// Durable marker left beside the log when a capture stops on disk
/// pressure (`ENOSPC` during a segment flush). Purely informational —
/// resume removes it once it runs with space available again.
pub const PRESSURE_FILE: &str = "capture.pressure";

fn seg_path(dir: &Path, index: u64) -> PathBuf {
    dir.join(format!("seg-{index:05}.seg"))
}

fn crc_of(bytes: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(bytes);
    c.finish()
}

/// Best-effort directory fsync so renames and new files survive a
/// crash; ignored on platforms where directories can't be synced.
fn fsync_dir(dir: &Path) {
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all();
    }
}

fn simulated_crash() -> io::Error {
    io::Error::other("simulated crash (fault-injection plan)")
}

// ---------------------------------------------------------------------
// Segment encode / decode.
// ---------------------------------------------------------------------

struct SegHead {
    index: u64,
    start_ts: u64,
    end_ts: u64,
    shed: bool,
    stats: [u64; 8],
}

fn encode_segment(index: u64, d: &SegmentDelta) -> io::Result<Vec<u8>> {
    debug_assert!(!d.node_by_ts.is_empty());
    let end_ts = d.start_ts + d.node_by_ts.len() as u64 - 1;
    let mut out = Vec::new();
    out.extend_from_slice(SEG_MAGIC);
    w_u8(&mut out, VERSION)?;

    let mut p = Vec::new();
    w_u64(&mut p, index)?;
    w_u64(&mut p, d.start_ts)?;
    w_u64(&mut p, end_ts)?;
    w_u8(&mut p, d.shed as u8)?;
    for s in d.stats {
        w_u64(&mut p, s)?;
    }
    w_section(&mut out, TAG_SGHD, &p)?;

    p.clear();
    w_u32(&mut p, d.new_nodes.len() as u32)?;
    for &(func, path_id) in &d.new_nodes {
        w_u32(&mut p, func.0)?;
        w_u64(&mut p, path_id)?;
    }
    w_section(&mut out, TAG_SNOD, &p)?;

    p.clear();
    let ids: Vec<u64> = d.node_by_ts.iter().map(|&n| u64::from(n)).collect();
    w_u64s(&mut p, &ids)?;
    w_section(&mut out, TAG_STSQ, &p)?;

    p.clear();
    w_u32(&mut p, d.values.len() as u32)?;
    for (node, defs) in &d.values {
        w_u32(&mut p, *node)?;
        w_u32(&mut p, defs.len() as u32)?;
        for v in defs {
            w_u64s(&mut p, v)?;
        }
    }
    w_section(&mut out, TAG_SVAL, &p)?;

    p.clear();
    w_u32(&mut p, d.intra.len() as u32)?;
    for ((node, dst, slot, src), ks) in &d.intra {
        w_u32(&mut p, node.0)?;
        w_u32(&mut p, dst.0)?;
        w_u8(&mut p, *slot)?;
        w_u32(&mut p, src.0)?;
        let ks64: Vec<u64> = ks.iter().map(|&k| u64::from(k)).collect();
        w_u64s(&mut p, &ks64)?;
    }
    w_section(&mut out, TAG_SINT, &p)?;

    p.clear();
    w_u32(&mut p, d.nonlocal.len() as u32)?;
    for ((sn, ss, dn, ds, slot), pairs) in &d.nonlocal {
        w_u32(&mut p, sn.0)?;
        w_u32(&mut p, ss.0)?;
        w_u32(&mut p, dn.0)?;
        w_u32(&mut p, ds.0)?;
        w_u8(&mut p, *slot)?;
        let dsts: Vec<u64> = pairs.iter().map(|p| p.0).collect();
        let srcs: Vec<u64> = pairs.iter().map(|p| p.1).collect();
        w_u64s(&mut p, &dsts)?;
        w_u64s(&mut p, &srcs)?;
    }
    w_section(&mut out, TAG_SNLE, &p)?;

    p.clear();
    w_u32(&mut p, d.cf.len() as u32)?;
    for &(a, b) in &d.cf {
        w_u32(&mut p, a.0)?;
        w_u32(&mut p, b.0)?;
    }
    w_section(&mut out, TAG_SCFE, &p)?;

    p.clear();
    w_u32(&mut p, d.ndet.len() as u32)?;
    for rec in &d.ndet {
        w_u8(&mut p, rec.kind as u8)?;
        w_u64(&mut p, rec.ts)?;
        w_u64(&mut p, rec.value as u64)?;
    }
    w_section(&mut out, TAG_SNDT, &p)?;

    p.clear();
    w_u64(&mut p, 8)?;
    w_section(&mut out, TAG_ENDW, &p)?;
    Ok(out)
}

fn u32_of(v: u64, what: &str) -> io::Result<u32> {
    u32::try_from(v).map_err(|_| corrupt(&format!("{what} out of range")))
}

fn decode_segment(bytes: &[u8]) -> io::Result<(SegHead, SegmentDelta)> {
    if bytes.len() < 5 || &bytes[..4] != SEG_MAGIC {
        return Err(corrupt("not a capture segment"));
    }
    if bytes[4] != VERSION {
        return Err(corrupt("unsupported segment version"));
    }
    let scan = scan_sections(&mut &bytes[5..])?;
    if !scan.is_intact() {
        return Err(corrupt("segment damaged (torn or corrupt section)"));
    }
    let expect = [TAG_SGHD, TAG_SNOD, TAG_STSQ, TAG_SVAL, TAG_SINT, TAG_SNLE, TAG_SCFE, TAG_SNDT, TAG_ENDW];
    if scan.entries.len() != expect.len() || scan.entries.iter().zip(expect).any(|(e, t)| e.tag != t) {
        return Err(corrupt("segment sections out of order"));
    }
    let payload = |tag: [u8; 4]| scan.payloads.get(&tag).ok_or_else(|| corrupt("segment section missing"));

    let head = {
        let mut r = payload(TAG_SGHD)?.as_slice();
        let index = r_u64(&mut r)?;
        let start_ts = r_u64(&mut r)?;
        let end_ts = r_u64(&mut r)?;
        let shed = r_u8(&mut r)? != 0;
        let mut stats = [0u64; 8];
        for s in &mut stats {
            *s = r_u64(&mut r)?;
        }
        SegHead { index, start_ts, end_ts, shed, stats }
    };
    if head.start_ts == 0 || head.end_ts < head.start_ts {
        return Err(corrupt("segment timestamp range malformed"));
    }

    let new_nodes = {
        let p = payload(TAG_SNOD)?;
        let mut r = p.as_slice();
        let n = cap_count(r_u32(&mut r)? as usize, r.len(), 12, "segment node")?;
        let mut v = Vec::with_capacity(n);
        for _ in 0..n {
            let func = FuncId(r_u32(&mut r)?);
            let path_id = r_u64(&mut r)?;
            v.push((func, path_id));
        }
        v
    };

    let node_by_ts: Vec<u32> = {
        let mut r = payload(TAG_STSQ)?.as_slice();
        let ids = r_u64s(&mut r)?;
        if ids.len() as u64 != head.end_ts - head.start_ts + 1 {
            return Err(corrupt("segment timestamp count mismatch"));
        }
        ids.into_iter().map(|v| u32_of(v, "node id")).collect::<io::Result<_>>()?
    };

    let values = {
        let p = payload(TAG_SVAL)?;
        let mut r = p.as_slice();
        let n = cap_count(r_u32(&mut r)? as usize, r.len(), 8, "segment value node")?;
        let mut v: Vec<(u32, Vec<Vec<u64>>)> = Vec::with_capacity(n);
        for _ in 0..n {
            let node = r_u32(&mut r)?;
            let n_defs = cap_count(r_u32(&mut r)? as usize, r.len(), 8, "segment def")?;
            let mut defs = Vec::with_capacity(n_defs);
            for _ in 0..n_defs {
                defs.push(r_u64s(&mut r)?);
            }
            v.push((node, defs));
        }
        v
    };

    let intra = {
        let p = payload(TAG_SINT)?;
        let mut r = p.as_slice();
        let n = cap_count(r_u32(&mut r)? as usize, r.len(), 21, "segment intra edge")?;
        let mut v: Vec<(IntraKey, Vec<u32>)> = Vec::with_capacity(n);
        for _ in 0..n {
            let node = NodeId(r_u32(&mut r)?);
            let dst = StmtId(r_u32(&mut r)?);
            let slot = r_u8(&mut r)?;
            let src = StmtId(r_u32(&mut r)?);
            let ks = r_u64s(&mut r)?
                .into_iter()
                .map(|k| u32_of(k, "intra instance"))
                .collect::<io::Result<_>>()?;
            v.push(((node, dst, slot, src), ks));
        }
        v
    };

    let nonlocal = {
        let p = payload(TAG_SNLE)?;
        let mut r = p.as_slice();
        let n = cap_count(r_u32(&mut r)? as usize, r.len(), 33, "segment edge")?;
        let mut v: Vec<(EdgeKey, Vec<(u64, u64)>)> = Vec::with_capacity(n);
        for _ in 0..n {
            let sn = NodeId(r_u32(&mut r)?);
            let ss = StmtId(r_u32(&mut r)?);
            let dn = NodeId(r_u32(&mut r)?);
            let ds = StmtId(r_u32(&mut r)?);
            let slot = r_u8(&mut r)?;
            let dsts = r_u64s(&mut r)?;
            let srcs = r_u64s(&mut r)?;
            if dsts.len() != srcs.len() {
                return Err(corrupt("segment edge label halves disagree"));
            }
            v.push(((sn, ss, dn, ds, slot), dsts.into_iter().zip(srcs).collect()));
        }
        v
    };

    let cf = {
        let p = payload(TAG_SCFE)?;
        let mut r = p.as_slice();
        let n = cap_count(r_u32(&mut r)? as usize, r.len(), 8, "segment cf pair")?;
        let mut v = Vec::with_capacity(n);
        for _ in 0..n {
            let a = NodeId(r_u32(&mut r)?);
            let b = NodeId(r_u32(&mut r)?);
            v.push((a, b));
        }
        v
    };

    let ndet = {
        let p = payload(TAG_SNDT)?;
        let mut r = p.as_slice();
        let n = cap_count(r_u32(&mut r)? as usize, r.len(), 17, "segment ndet record")?;
        let mut v = Vec::with_capacity(n);
        for _ in 0..n {
            let kb = r_u8(&mut r)?;
            // Fail closed on a newer writer's record kinds: replaying a
            // value through the wrong source would silently diverge.
            let kind = NdetKind::from_byte(kb)
                .ok_or_else(|| corrupt(&format!("unknown NDET record kind {kb}")))?;
            let ts = r_u64(&mut r)?;
            let value = r_u64(&mut r)? as i64;
            v.push(NdetRec { kind, ts, value });
        }
        v
    };

    let delta = SegmentDelta {
        start_ts: head.start_ts,
        shed: head.shed,
        node_by_ts,
        new_nodes,
        values,
        intra,
        nonlocal,
        cf,
        ndet,
        stats: head.stats,
    };
    Ok((head, delta))
}

// ---------------------------------------------------------------------
// Config file and manifest.
// ---------------------------------------------------------------------

fn encode_conf(config: &WetConfig) -> io::Result<Vec<u8>> {
    let mut out = Vec::new();
    out.extend_from_slice(CONF_MAGIC);
    w_u8(&mut out, VERSION)?;
    let blob = write_conf_parts(config, false)?;
    let mut p = Vec::new();
    w_u32(&mut p, blob.len() as u32)?;
    p.extend_from_slice(&blob);
    w_u64(&mut p, config.capture.budget_bytes)?;
    w_u64(&mut p, config.capture.segment_interval)?;
    w_section(&mut out, TAG_CCFG, &p)?;
    let mut t = Vec::new();
    w_u64(&mut t, 1)?;
    w_section(&mut out, TAG_ENDW, &t)?;
    Ok(out)
}

/// Reads the immutable capture configuration written by
/// [`Capture::create`]. The `num_threads` execution knob is not part
/// of it; callers set that on the returned config as needed.
pub fn read_config(dir: &Path) -> io::Result<WetConfig> {
    read_config_with(dir, &Vfs::from_env())
}

/// [`read_config`] through an explicit [`Io`] layer (fault drills).
pub fn read_config_with(dir: &Path, io: &dyn Io) -> io::Result<WetConfig> {
    let bytes = io.read(&dir.join(CONF_FILE))?;
    if bytes.len() < 5 || &bytes[..4] != CONF_MAGIC || bytes[4] != VERSION {
        return Err(corrupt("not a capture config file"));
    }
    let scan = scan_sections(&mut &bytes[5..])?;
    if !scan.is_intact() {
        return Err(corrupt("capture config damaged"));
    }
    let p = scan.payloads.get(&TAG_CCFG).ok_or_else(|| corrupt("capture config section missing"))?;
    let mut r = p.as_slice();
    let n = cap_count(r_u32(&mut r)? as usize, r.len(), 1, "config blob")?;
    let (blob, rest) = r.split_at(n);
    let (mut config, _tier2) = parse_conf(blob)?;
    let mut r = rest;
    config.capture.budget_bytes = r_u64(&mut r)?;
    config.capture.segment_interval = r_u64(&mut r)?;
    Ok(config)
}

/// One sealed segment as recorded in the manifest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegMeta {
    /// Segment index (also its filename).
    pub index: u64,
    /// First timestamp covered.
    pub start_ts: u64,
    /// Last timestamp covered.
    pub end_ts: u64,
    /// Value detail was shed for this segment.
    pub shed: bool,
    /// Exact file length, for quick verification.
    pub file_len: u64,
    /// CRC-32 of the whole file, for quick verification.
    pub file_crc: u32,
}

/// The parsed checkpoint manifest.
#[derive(Debug, Clone)]
pub struct Manifest {
    /// The capture ran to program completion.
    pub finished: bool,
    /// Sealed segments, in order.
    pub segments: Vec<SegMeta>,
}

fn encode_manifest(finished: bool, segments: &[SegMeta]) -> io::Result<Vec<u8>> {
    let mut out = Vec::new();
    out.extend_from_slice(MAN_MAGIC);
    w_u8(&mut out, VERSION)?;
    let mut p = Vec::new();
    w_u8(&mut p, finished as u8)?;
    w_u64(&mut p, segments.len() as u64)?;
    for s in segments {
        w_u64(&mut p, s.index)?;
        w_u64(&mut p, s.start_ts)?;
        w_u64(&mut p, s.end_ts)?;
        w_u8(&mut p, s.shed as u8)?;
        w_u64(&mut p, s.file_len)?;
        w_u32(&mut p, s.file_crc)?;
    }
    w_section(&mut out, TAG_MANI, &p)?;
    let mut t = Vec::new();
    w_u64(&mut t, 1)?;
    w_section(&mut out, TAG_ENDW, &t)?;
    Ok(out)
}

/// Reads and verifies the checkpoint manifest.
pub fn read_manifest(dir: &Path) -> io::Result<Manifest> {
    read_manifest_with(dir, &Vfs::from_env())
}

/// [`read_manifest`] through an explicit [`Io`] layer (fault drills).
pub fn read_manifest_with(dir: &Path, io: &dyn Io) -> io::Result<Manifest> {
    let bytes = io.read(&dir.join(MANIFEST_FILE))?;
    if bytes.len() < 5 || &bytes[..4] != MAN_MAGIC || bytes[4] != VERSION {
        return Err(corrupt("not a capture manifest"));
    }
    let scan = scan_sections(&mut &bytes[5..])?;
    if !scan.is_intact() {
        return Err(corrupt("capture manifest damaged"));
    }
    let p = scan.payloads.get(&TAG_MANI).ok_or_else(|| corrupt("manifest section missing"))?;
    let mut r = p.as_slice();
    let finished = r_u8(&mut r)? != 0;
    let n = cap_count(r_u64(&mut r)? as usize, r.len(), 29, "manifest segment")?;
    let mut segments = Vec::with_capacity(n);
    for _ in 0..n {
        segments.push(SegMeta {
            index: r_u64(&mut r)?,
            start_ts: r_u64(&mut r)?,
            end_ts: r_u64(&mut r)?,
            shed: r_u8(&mut r)? != 0,
            file_len: r_u64(&mut r)?,
            file_crc: r_u32(&mut r)?,
        });
    }
    Ok(Manifest { finished, segments })
}

// ---------------------------------------------------------------------
// The capture sink.
// ---------------------------------------------------------------------

/// Outcome of a completed capture.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CaptureSummary {
    /// Sealed segments in the log.
    pub segments: u64,
    /// Durable writes performed this process (crash-point universe).
    pub ops_done: u64,
    /// Peak estimated builder memory (buffered + carry-over) observed.
    pub peak_bytes: u64,
    /// Value detail was shed at some point.
    pub shed: bool,
    /// Timestamp this run resumed from (0 for a fresh capture).
    pub resumed_from: u64,
}

/// A crash-safe segmented capture: a [`TraceSink`] that spools the
/// trace into a segment-log directory. See the module docs for the
/// layout and recovery rules.
pub struct Capture<'p> {
    builder: WetBuilder<'p>,
    dir: PathBuf,
    config: WetConfig,
    metas: Vec<SegMeta>,
    /// End of the last sealed segment (0 before the first).
    last_end_ts: u64,
    /// Last timestamp delivered by the interpreter.
    cur_ts: u64,
    /// Timestamps at or before this were recorded by a previous run.
    resume_ts: u64,
    shed: bool,
    /// First I/O (or simulated-crash) failure; the sink goes inert.
    dead: Option<io::Error>,
    crash: Option<CrashPlan>,
    /// The I/O layer every filesystem call goes through; a plain
    /// passthrough unless a `WET_FAULT_*` plan (or a drill) armed it.
    vfs: Arc<Vfs>,
    ops_done: u64,
    peak_bytes: u64,
    /// NDET records recovered from sealed segments on resume, in
    /// consumption order — the values the re-executed prefix must be
    /// fed (via a replay source) so it reproduces the recording.
    recovered_ndet: Vec<NdetRec>,
}

impl<'p> Capture<'p> {
    /// Starts a fresh capture in `dir` (created if absent). Fails if
    /// the directory already holds a capture — resume or remove it.
    pub fn create(program: &'p Program, bl: &'p BallLarus, config: WetConfig, dir: &Path) -> io::Result<Self> {
        Capture::create_with(program, bl, config, dir, Arc::new(Vfs::from_env()))
    }

    /// [`Capture::create`] through an explicit [`Io`] layer, so fault
    /// drills can target the very first durable writes.
    pub fn create_with(
        program: &'p Program,
        bl: &'p BallLarus,
        config: WetConfig,
        dir: &Path,
        vfs: Arc<Vfs>,
    ) -> io::Result<Self> {
        fs::create_dir_all(dir)?;
        if dir.join(CONF_FILE).exists() || dir.join(MANIFEST_FILE).exists() {
            return Err(corrupt("capture directory already in use (resume it or remove it)"));
        }
        // The config is immutable once written, so a later crash can
        // never tear it; a crash *during* this write leaves no valid
        // capture and `resume` fails cleanly.
        let bytes = encode_conf(&config)?;
        let tmp = dir.join("capture.conf.tmp");
        let mut f = vfs.create(&tmp)?;
        vfs.write(&mut f, &bytes)?;
        vfs.fsync(&f)?;
        drop(f);
        vfs.rename(&tmp, &dir.join(CONF_FILE))?;
        fsync_dir(dir);
        Ok(Capture {
            builder: WetBuilder::new(program, bl, config.clone()),
            dir: dir.to_path_buf(),
            config,
            metas: Vec::new(),
            last_end_ts: 0,
            cur_ts: 0,
            resume_ts: 0,
            shed: false,
            dead: None,
            crash: None,
            vfs,
            ops_done: 0,
            peak_bytes: 0,
            recovered_ndet: Vec::new(),
        })
    }

    /// Recovers a capture after a crash: keeps the longest intact,
    /// contiguous segment prefix, deletes any torn tail or stray
    /// files, rewrites the manifest to match, and rebuilds the builder
    /// frontier. Re-run the interpreter with the returned sink — event
    /// delivery fast-forwards past everything already sealed.
    pub fn resume(program: &'p Program, bl: &'p BallLarus, dir: &Path) -> io::Result<Self> {
        Capture::resume_with(program, bl, dir, Arc::new(Vfs::from_env()))
    }

    /// [`Capture::resume`] through an explicit [`Io`] layer.
    pub fn resume_with(
        program: &'p Program,
        bl: &'p BallLarus,
        dir: &Path,
        vfs: Arc<Vfs>,
    ) -> io::Result<Self> {
        let config = read_config_with(dir, vfs.as_ref())?;
        if let Ok(man) = read_manifest_with(dir, vfs.as_ref()) {
            if man.finished {
                return Err(corrupt("capture already finished; seal it instead"));
            }
        }
        let mut builder = WetBuilder::new(program, bl, config.clone());
        let mut metas: Vec<SegMeta> = Vec::new();
        let mut recovered_ndet: Vec<NdetRec> = Vec::new();
        let mut last_end = 0u64;
        let mut last_shed = false;
        loop {
            let index = metas.len() as u64;
            // A missing file ends the chain (never-written tail); any
            // other read failure is a live disk error and must surface
            // typed rather than silently truncate the recovered prefix
            // (remove_strays below would then delete good segments).
            let bytes = match vfs.read(&seg_path(dir, index)) {
                Ok(b) => b,
                Err(e) if e.kind() == io::ErrorKind::NotFound => break,
                Err(e) => return Err(e),
            };
            let Ok((head, delta)) = decode_segment(&bytes) else { break };
            if head.index != index || head.start_ts != last_end + 1 {
                break;
            }
            recovered_ndet.extend_from_slice(&delta.ndet);
            builder.absorb_delta(&delta, false);
            last_end = head.end_ts;
            last_shed = head.shed;
            metas.push(SegMeta {
                index,
                start_ts: head.start_ts,
                end_ts: head.end_ts,
                shed: head.shed,
                file_len: bytes.len() as u64,
                file_crc: crc_of(&bytes),
            });
        }
        remove_strays_with(dir, metas.len() as u64, vfs.as_ref())?;
        // A previous run may have stopped on disk pressure; running at
        // all means the operator chose to try again, so clear the
        // marker (it is re-created if pressure persists).
        if dir.join(PRESSURE_FILE).exists() {
            let _ = fs::remove_file(dir.join(PRESSURE_FILE));
            wet_obs::counter_add("capture.pressure_resumes", "", 1);
        }
        let mut cap = Capture {
            builder,
            dir: dir.to_path_buf(),
            config,
            last_end_ts: last_end,
            cur_ts: last_end,
            resume_ts: last_end,
            metas,
            shed: false,
            dead: None,
            crash: None,
            vfs,
            ops_done: 0,
            peak_bytes: 0,
            recovered_ndet,
        };
        if last_shed {
            cap.shed = true;
            cap.builder.set_record_values(false);
        }
        // Re-derive the sticky shed decision the crashed run may have
        // made after its last flush (pure function of carry-over).
        cap.maybe_shed();
        // Durably record the recovered state before continuing.
        cap.write_manifest(false)?;
        Ok(cap)
    }

    /// Arms a simulated crash for the fault harness.
    pub fn set_crash_plan(&mut self, plan: CrashPlan) {
        self.crash = Some(plan);
    }

    /// The I/O layer this capture runs through (drills inspect its
    /// injected-fault count).
    pub fn vfs(&self) -> &Arc<Vfs> {
        &self.vfs
    }

    /// Timestamp up to which this capture was recovered (0 if fresh).
    pub fn resume_ts(&self) -> u64 {
        self.resume_ts
    }

    /// NDET records recovered from sealed segments (empty if fresh), in
    /// consumption order. Feed them to the re-executed prefix through a
    /// [`wet_interp::PrefixSource`] so resume reproduces the original
    /// nondeterminism exactly.
    pub fn recovered_ndet(&self) -> &[NdetRec] {
        &self.recovered_ndet
    }

    /// Sealed segments so far.
    pub fn segments(&self) -> u64 {
        self.metas.len() as u64
    }

    /// Flushes the tail, writes the `finished` checkpoint, and returns
    /// the capture summary.
    ///
    /// # Errors
    /// Returns the first I/O failure, including any simulated crash —
    /// the segment log is left exactly as the crash left it.
    pub fn finish(mut self) -> io::Result<CaptureSummary> {
        if let Some(e) = self.dead.take() {
            return Err(e);
        }
        if let Err(e) = self.flush(true) {
            return Err(self.degrade_on_pressure(e));
        }
        wet_obs::gauge_set("capture.peak_bytes", "", self.peak_bytes as i64);
        wet_obs::gauge_set("capture.segments", "", self.metas.len() as i64);
        Ok(CaptureSummary {
            segments: self.metas.len() as u64,
            ops_done: self.ops_done,
            peak_bytes: self.peak_bytes,
            shed: self.shed,
            resumed_from: self.resume_ts,
        })
    }

    fn maybe_shed(&mut self) {
        let budget = self.config.capture.budget_bytes;
        if budget > 0 && !self.shed && self.builder.carry_bytes() >= budget / 4 {
            self.shed = true;
            self.builder.set_record_values(false);
            wet_obs::counter_add("capture.budget_sheds", "", 1);
        }
    }

    /// Seals the accumulated delta into a segment file, if it covers at
    /// least one timestamp. Returns whether a segment was written.
    fn seal_delta(&mut self) -> io::Result<bool> {
        wet_obs::gauge_set("capture.buffered_bytes", "", self.builder.buffered_bytes() as i64);
        let delta = self.builder.take_delta();
        if delta.node_by_ts.is_empty() {
            return Ok(false);
        }
        let index = self.metas.len() as u64;
        let bytes = encode_segment(index, &delta)?;
        self.durable_write(&seg_path(&self.dir, index), &bytes, false)?;
        self.metas.push(SegMeta {
            index,
            start_ts: delta.start_ts,
            end_ts: delta.start_ts + delta.node_by_ts.len() as u64 - 1,
            shed: delta.shed,
            file_len: bytes.len() as u64,
            file_crc: crc_of(&bytes),
        });
        self.last_end_ts = self.metas.last().expect("just pushed").end_ts;
        wet_obs::counter_add("capture.segments_sealed", "", 1);
        wet_obs::counter_add("capture.bytes_flushed", "", bytes.len() as u64);
        Ok(true)
    }

    /// Seals the accumulated delta (if any) and replaces the manifest.
    fn flush(&mut self, finished: bool) -> io::Result<()> {
        let sealed = self.seal_delta()?;
        if !sealed && !finished {
            return Ok(());
        }
        self.write_manifest(finished)?;
        if !finished {
            self.maybe_shed();
        }
        Ok(())
    }

    /// Flushes the tail and durably checkpoints the manifest *without*
    /// marking the capture finished: the interrupted-capture path
    /// (SIGINT). The directory is left exactly as if the process had
    /// crashed right after a clean flush, so [`Capture::resume`] picks
    /// up where the interrupt landed.
    pub fn suspend(mut self) -> io::Result<CaptureSummary> {
        if let Some(e) = self.dead.take() {
            return Err(e);
        }
        if let Err(e) = self.seal_delta().and_then(|_| self.write_manifest(false)) {
            return Err(self.degrade_on_pressure(e));
        }
        wet_obs::gauge_set("capture.peak_bytes", "", self.peak_bytes as i64);
        wet_obs::gauge_set("capture.segments", "", self.metas.len() as i64);
        Ok(CaptureSummary {
            segments: self.metas.len() as u64,
            ops_done: self.ops_done,
            peak_bytes: self.peak_bytes,
            shed: self.shed,
            resumed_from: self.resume_ts,
        })
    }

    fn write_manifest(&mut self, finished: bool) -> io::Result<()> {
        let bytes = encode_manifest(finished, &self.metas)?;
        self.durable_write(&self.dir.join(MANIFEST_FILE), &bytes, true)
    }

    /// One durable write: the crash-plan unit. `replace` selects the
    /// write-temp + fsync + rename protocol (manifest); segments are
    /// written in place — a torn segment is caught by the CRC scan.
    fn durable_write(&mut self, path: &Path, bytes: &[u8], replace: bool) -> io::Result<()> {
        self.ops_done += 1;
        if let Some(plan) = self.crash {
            if self.ops_done == plan.at_op {
                if let CrashMode::Torn { seed } = plan.mode {
                    // A seeded prefix lands; nothing is fsynced. For a
                    // replacement the torn temp still renames into
                    // place — the worst case an unfsynced rename
                    // permits after power loss.
                    let mut rng = FaultRng::new(seed ^ self.ops_done);
                    let cut = 1 + rng.below(bytes.len().max(2) as u64 - 1) as usize;
                    let torn = &bytes[..cut.min(bytes.len())];
                    if replace {
                        let tmp = path.with_extension("tmp");
                        fs::write(&tmp, torn)?;
                        fs::rename(&tmp, path)?;
                    } else {
                        fs::write(path, torn)?;
                    }
                }
                return Err(simulated_crash());
            }
        }
        let t0 = Instant::now();
        if replace {
            let tmp = path.with_extension("tmp");
            let mut f = self.vfs.create(&tmp)?;
            self.vfs.write(&mut f, bytes)?;
            self.vfs.fsync(&f)?;
            drop(f);
            self.vfs.rename(&tmp, path)?;
        } else {
            let mut f = self.vfs.create(path)?;
            self.vfs.write(&mut f, bytes)?;
            self.vfs.fsync(&f)?;
        }
        fsync_dir(&self.dir);
        wet_obs::hist_record("capture.fsync_micros", "", t0.elapsed().as_micros() as u64);
        Ok(())
    }

    /// Disk-pressure off-ramp: when a flush fails with `ENOSPC` the
    /// capture degrades instead of dying anonymously — value detail is
    /// shed (bounding what a retry would need), a durable
    /// `capture.pressure` marker is left beside the log, and the
    /// returned error says exactly how to proceed. Nothing of the
    /// failed flush landed sealed, so a later resume + seal is
    /// byte-identical to a run that never hit pressure.
    fn degrade_on_pressure(&mut self, e: io::Error) -> io::Error {
        if !is_disk_full(&e) {
            return e;
        }
        if !self.shed {
            self.shed = true;
            self.builder.set_record_values(false);
            wet_obs::counter_add("capture.budget_sheds", "", 1);
        }
        wet_obs::counter_add("capture.pressure_stops", "", 1);
        // Direct fs, not the vfs: the marker must not re-enter the
        // fault plan, and it is best-effort by design (a disk too full
        // for 40 bytes still gets the typed error below).
        let marker = self.dir.join(PRESSURE_FILE);
        let line = format!("enospc at ts={} after {} sealed segments\n", self.cur_ts, self.metas.len());
        if fs::write(&marker, line.as_bytes()).is_ok() {
            if let Ok(f) = File::open(&marker) {
                let _ = f.sync_all();
            }
            fsync_dir(&self.dir);
        }
        io::Error::new(
            io::ErrorKind::StorageFull,
            format!(
                "disk full during segment flush ({} segments sealed, checkpoint intact): \
                 free space and `wet capture --resume` to continue ({e})",
                self.metas.len()
            ),
        )
    }
}

impl TraceSink for Capture<'_> {
    fn on_path_start(&mut self, ts: u64) {
        if self.dead.is_none() {
            self.builder.on_path_start(ts);
        }
    }

    fn on_block(&mut self, ev: &BlockEvent) {
        if self.dead.is_none() {
            self.builder.on_block(ev);
        }
    }

    fn on_stmt(&mut self, ev: &StmtEvent) {
        if self.dead.is_none() {
            self.builder.on_stmt(ev);
        }
    }

    fn on_ndet(&mut self, ev: &NdetEvent) {
        if self.dead.is_none() {
            self.builder.on_ndet(ev);
        }
    }

    fn on_path_end(&mut self, func: FuncId, path_id: u64, ts: u64) {
        if self.dead.is_some() {
            return;
        }
        self.builder.on_path_end(func, path_id, ts);
        self.cur_ts = ts;
        let mem = self.builder.buffered_bytes() + self.builder.carry_bytes();
        self.peak_bytes = self.peak_bytes.max(mem);
        let cc = self.config.capture;
        // Flush at half the budget so the estimate peaks below it even
        // with one more path's worth of growth before the next check.
        let due = ts - self.last_end_ts >= cc.segment_interval.max(1)
            || (cc.budget_bytes > 0 && mem >= cc.budget_bytes / 2);
        if due {
            if let Err(e) = self.flush(false) {
                self.dead = Some(self.degrade_on_pressure(e));
            }
        }
    }

    fn fast_forward_until(&self) -> u64 {
        self.resume_ts
    }
}

/// Deletes segment files at or beyond `keep` (the recovered prefix
/// length) plus any leftover temp files.
fn remove_strays_with(dir: &Path, keep: u64, io: &dyn Io) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let stray = match name.strip_prefix("seg-").and_then(|s| s.strip_suffix(".seg")) {
            Some(num) => num.parse::<u64>().map(|i| i >= keep).unwrap_or(true),
            None => name.ends_with(".tmp"),
        };
        if stray {
            io.remove_file(&entry.path())?;
        }
    }
    fsync_dir(dir);
    Ok(())
}

// ---------------------------------------------------------------------
// Seal and fsck.
// ---------------------------------------------------------------------

/// Merges a *finished* capture into a normal in-memory [`Wet`] —
/// byte-identical (once written) to the WET an uninterrupted,
/// non-segmented run of the same configuration would produce, except
/// that value streams shed under budget pressure appear as
/// `Seq::Unavailable`. `num_threads` overrides the worker-pool knob
/// for the tier-1 finish (0 = all cores); it never changes the bytes.
///
/// # Errors
/// Fails if the capture is unfinished, the manifest is missing or
/// damaged, or any sealed segment fails verification.
pub fn seal(program: &Program, bl: &BallLarus, dir: &Path, num_threads: usize) -> io::Result<Wet> {
    seal_with(program, bl, dir, num_threads, &Vfs::from_env())
}

/// [`seal`] through an explicit [`Io`] layer (fault drills).
pub fn seal_with(
    program: &Program,
    bl: &BallLarus,
    dir: &Path,
    num_threads: usize,
    io: &dyn Io,
) -> io::Result<Wet> {
    let mut config = read_config_with(dir, io)?;
    config.stream.num_threads = num_threads;
    let man = read_manifest_with(dir, io)?;
    if !man.finished {
        return Err(corrupt("capture not finished; resume it to completion before sealing"));
    }
    let mut builder = WetBuilder::new(program, bl, config);
    let mut last_end = 0u64;
    for (i, m) in man.segments.iter().enumerate() {
        let bytes = io.read(&seg_path(dir, i as u64))?;
        if bytes.len() as u64 != m.file_len || crc_of(&bytes) != m.file_crc {
            return Err(corrupt("sealed segment does not match the manifest"));
        }
        let (head, delta) = decode_segment(&bytes)?;
        if head.index != i as u64 || head.start_ts != last_end + 1 {
            return Err(corrupt("segment chain broken"));
        }
        builder.absorb_delta(&delta, true);
        last_end = head.end_ts;
    }
    Ok(builder.finish())
}

/// Integrity report for a capture directory.
#[derive(Debug, Clone)]
pub struct CaptureFsck {
    /// `capture.conf` present and verified.
    pub conf_ok: bool,
    /// `MANIFEST` present and verified.
    pub manifest_ok: bool,
    /// The manifest records a finished capture.
    pub finished: bool,
    /// Segments verified intact and correctly chained.
    pub segments_ok: u64,
    /// Problems found, one line each.
    pub problems: Vec<String>,
}

impl CaptureFsck {
    /// No damage anywhere: config, manifest, and every listed segment
    /// verified.
    pub fn is_clean(&self) -> bool {
        self.conf_ok && self.manifest_ok && self.problems.is_empty()
    }
}

/// Verifies every file of a capture directory: config, manifest, and
/// each sealed segment's CRC'd sections and chain continuity.
pub fn fsck_dir(dir: &Path) -> io::Result<CaptureFsck> {
    fsck_dir_with(dir, &Vfs::from_env())
}

/// [`fsck_dir`] through an explicit [`Io`] layer (fault drills).
pub fn fsck_dir_with(dir: &Path, io: &dyn Io) -> io::Result<CaptureFsck> {
    let mut report = CaptureFsck {
        conf_ok: false,
        manifest_ok: false,
        finished: false,
        segments_ok: 0,
        problems: Vec::new(),
    };
    match read_config_with(dir, io) {
        Ok(_) => report.conf_ok = true,
        Err(e) => report.problems.push(format!("{CONF_FILE}: {e}")),
    }
    let man = match read_manifest_with(dir, io) {
        Ok(m) => {
            report.manifest_ok = true;
            report.finished = m.finished;
            Some(m)
        }
        Err(e) => {
            report.problems.push(format!("{MANIFEST_FILE}: {e}"));
            None
        }
    };
    let mut last_end = 0u64;
    let mut index = 0u64;
    loop {
        let path = seg_path(dir, index);
        let bytes = match io.read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == io::ErrorKind::NotFound => break,
            Err(e) => return Err(e),
        };
        match decode_segment(&bytes) {
            Ok((head, _)) if head.index == index && head.start_ts == last_end + 1 => {
                if let Some(m) = man.as_ref().and_then(|m| m.segments.get(index as usize)) {
                    if m.file_len != bytes.len() as u64 || m.file_crc != crc_of(&bytes) {
                        report.problems.push(format!("seg-{index:05}.seg: does not match the manifest"));
                    }
                }
                last_end = head.end_ts;
                report.segments_ok += 1;
            }
            Ok(_) => {
                report.problems.push(format!("seg-{index:05}.seg: chain broken"));
                break;
            }
            Err(e) => {
                report.problems.push(format!("seg-{index:05}.seg: {e}"));
                break;
            }
        }
        index += 1;
    }
    if let Some(m) = &man {
        if (m.segments.len() as u64) > report.segments_ok {
            report.problems.push(format!(
                "manifest lists {} segments, only {} verified",
                m.segments.len(),
                report.segments_ok
            ));
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{query, Seq};
    use wet_interp::{Interp, InterpConfig};

    fn fresh_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("wet-capture-tests").join(name);
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn plain_bytes(p: &Program, inputs: &[i64], config: &WetConfig) -> Vec<u8> {
        let bl = BallLarus::new(p);
        let mut b = WetBuilder::new(p, &bl, config.clone());
        Interp::new(p, &bl, InterpConfig::default()).run(inputs, &mut b).unwrap();
        let mut out = Vec::new();
        b.finish().write_to(&mut out).unwrap();
        out
    }

    #[test]
    fn segmented_seal_is_byte_identical() {
        let p = crate::tests::looping_program();
        let mut config = WetConfig::default();
        config.capture.segment_interval = 16;
        let reference = plain_bytes(&p, &[200], &config);
        let dir = fresh_dir("seal-identical");
        let bl = BallLarus::new(&p);
        let mut cap = Capture::create(&p, &bl, config.clone(), &dir).unwrap();
        Interp::new(&p, &bl, InterpConfig::default()).run(&[200], &mut cap).unwrap();
        let summary = cap.finish().unwrap();
        assert!(summary.segments > 3, "interval must actually split: {summary:?}");
        assert!(!summary.shed);
        let report = fsck_dir(&dir).unwrap();
        assert!(report.is_clean() && report.finished, "{report:?}");
        let wet = seal(&p, &bl, &dir, 1).unwrap();
        let mut out = Vec::new();
        wet.write_to(&mut out).unwrap();
        assert_eq!(out, reference, "sealed capture must match an uninterrupted run");
    }

    #[test]
    fn resume_after_crash_at_every_op_is_byte_identical() {
        let p = crate::tests::looping_program();
        let mut config = WetConfig::default();
        config.capture.segment_interval = 8;
        let inputs = [120i64];
        let bl = BallLarus::new(&p);
        let reference = plain_bytes(&p, &inputs, &config);

        // Count the durable writes of an uninterrupted capture: the
        // crash-point universe.
        let dir = fresh_dir("crash-count");
        let mut cap = Capture::create(&p, &bl, config.clone(), &dir).unwrap();
        Interp::new(&p, &bl, InterpConfig::default()).run(&inputs, &mut cap).unwrap();
        let total_ops = cap.finish().unwrap().ops_done;
        assert!(total_ops >= 4, "need several crash points, got {total_ops}");

        for at_op in 1..=total_ops {
            for (mi, mode) in [CrashMode::Kill, CrashMode::Torn { seed: 0xC0FFEE ^ at_op }]
                .into_iter()
                .enumerate()
            {
                let dir = fresh_dir(&format!("crash-{at_op}-{mi}"));
                let mut cap = Capture::create(&p, &bl, config.clone(), &dir).unwrap();
                cap.set_crash_plan(CrashPlan { at_op, mode });
                Interp::new(&p, &bl, InterpConfig::default()).run(&inputs, &mut cap).unwrap();
                let err = cap.finish().expect_err("the armed crash must surface");
                assert!(err.to_string().contains("simulated crash"), "{err}");

                let mut cap = Capture::resume(&p, &bl, &dir).unwrap();
                Interp::new(&p, &bl, InterpConfig::default()).run(&inputs, &mut cap).unwrap();
                cap.finish().unwrap();
                let report = fsck_dir(&dir).unwrap();
                assert!(report.is_clean() && report.finished, "at_op={at_op}: {report:?}");
                let wet = seal(&p, &bl, &dir, 1).unwrap();
                let mut out = Vec::new();
                wet.write_to(&mut out).unwrap();
                assert_eq!(out, reference, "at_op={at_op} mode={mode:?}");
            }
        }
    }

    #[test]
    fn resume_of_unfinished_capture_without_crash_plan() {
        // A capture that simply stopped (no finish call at all) must
        // also resume: only the unflushed tail is re-traced.
        let p = crate::tests::looping_program();
        let mut config = WetConfig::default();
        config.capture.segment_interval = 8;
        let bl = BallLarus::new(&p);
        let reference = plain_bytes(&p, &[90], &config);
        let dir = fresh_dir("abandoned");
        let mut cap = Capture::create(&p, &bl, config.clone(), &dir).unwrap();
        Interp::new(&p, &bl, InterpConfig::default()).run(&[90], &mut cap).unwrap();
        drop(cap); // process dies without finish(): manifest says unfinished
        let mut cap = Capture::resume(&p, &bl, &dir).unwrap();
        assert!(cap.resume_ts() > 0, "sealed segments must be recovered");
        Interp::new(&p, &bl, InterpConfig::default()).run(&[90], &mut cap).unwrap();
        cap.finish().unwrap();
        let wet = seal(&p, &bl, &dir, 1).unwrap();
        let mut out = Vec::new();
        wet.write_to(&mut out).unwrap();
        assert_eq!(out, reference);
    }

    #[test]
    fn budget_pressure_sheds_value_detail() {
        let p = crate::tests::looping_program();
        let mut config = WetConfig::default();
        config.capture.budget_bytes = 8192;
        let bl = BallLarus::new(&p);
        let dir = fresh_dir("shed");
        let mut cap = Capture::create(&p, &bl, config.clone(), &dir).unwrap();
        Interp::new(&p, &bl, InterpConfig::default()).run(&[400], &mut cap).unwrap();
        let summary = cap.finish().unwrap();
        assert!(summary.shed, "budget must force shedding: {summary:?}");
        assert!(
            summary.peak_bytes <= config.capture.budget_bytes,
            "peak {} exceeds budget {}",
            summary.peak_bytes,
            config.capture.budget_bytes
        );
        let mut wet = seal(&p, &bl, &dir, 1).unwrap();
        // Timestamps and control flow survive in full; shed values are
        // first-class Unavailable placeholders, so the degraded-query
        // and fsck accounting paths apply end-to-end.
        let lost = wet
            .nodes()
            .iter()
            .flat_map(|n| n.groups.iter())
            .flat_map(|g| g.uvals.iter())
            .filter(|s| matches!(s, Seq::Unavailable(_)))
            .count();
        assert!(lost > 0, "shed nodes must surface Unavailable value streams");
        assert_eq!(query::cf_trace_forward(&wet).unwrap().len() as u64, wet.stats().paths_executed);
        wet.compress();
        let mut out = Vec::new();
        wet.write_to(&mut out).unwrap();
        let report = Wet::fsck(&mut out.as_slice()).unwrap();
        assert!(report.is_clean(), "{report:?}");
        assert!(report.seqs_lost > 0, "fsck must account the shed streams");
    }

    #[test]
    fn enospc_on_flush_degrades_checkpoints_and_resumes_byte_identical() {
        use crate::fault::{FaultKind, FaultPlan};
        let p = crate::tests::looping_program();
        let mut config = WetConfig::default();
        config.capture.segment_interval = 8;
        let bl = BallLarus::new(&p);
        let reference = plain_bytes(&p, &[120], &config);

        // Writes are numbered per class: the conf write is 1, the
        // first segment flush is 2 — the disk "fills" right there.
        let dir = fresh_dir("enospc");
        let vfs = Arc::new(Vfs::with_plan(FaultPlan { at_op: 2, kind: FaultKind::Enospc, seed: 7 }));
        let mut cap = Capture::create_with(&p, &bl, config.clone(), &dir, vfs.clone()).unwrap();
        Interp::new(&p, &bl, InterpConfig::default()).run(&[120], &mut cap).unwrap();
        let err = cap.finish().expect_err("the planned ENOSPC must surface");
        assert!(is_disk_full(&err), "typed disk-full error, got {err}");
        assert!(err.to_string().contains("resume"), "error must say how to proceed: {err}");
        assert_eq!(vfs.faults_injected(), 1);
        assert!(dir.join(PRESSURE_FILE).exists(), "durable pressure marker");

        // Space comes back: resume (clears the marker), finish, seal —
        // byte-identical to a run that never saw pressure.
        let mut cap = Capture::resume(&p, &bl, &dir).unwrap();
        assert!(!dir.join(PRESSURE_FILE).exists(), "resume clears the marker");
        Interp::new(&p, &bl, InterpConfig::default()).run(&[120], &mut cap).unwrap();
        cap.finish().unwrap();
        let report = fsck_dir(&dir).unwrap();
        assert!(report.is_clean() && report.finished, "{report:?}");
        let wet = seal(&p, &bl, &dir, 1).unwrap();
        let mut out = Vec::new();
        wet.write_to(&mut out).unwrap();
        assert_eq!(out, reference, "post-pressure seal must match a fault-free run");
    }

    #[test]
    fn short_write_on_manifest_is_typed_and_recoverable() {
        use crate::fault::{FaultKind, FaultPlan};
        let p = crate::tests::looping_program();
        let mut config = WetConfig::default();
        config.capture.segment_interval = 8;
        let bl = BallLarus::new(&p);
        let reference = plain_bytes(&p, &[120], &config);
        let dir = fresh_dir("short-manifest");
        // Write 3 is the first manifest replacement: a short write
        // tears the temp file; the rename never happens, so the torn
        // bytes stay invisible behind the replace protocol.
        let vfs = Arc::new(Vfs::with_plan(FaultPlan { at_op: 3, kind: FaultKind::ShortWrite, seed: 11 }));
        let mut cap = Capture::create_with(&p, &bl, config.clone(), &dir, vfs).unwrap();
        Interp::new(&p, &bl, InterpConfig::default()).run(&[120], &mut cap).unwrap();
        let err = cap.finish().expect_err("the planned short write must surface");
        assert!(is_disk_full(&err), "short writes end in ENOSPC: {err}");
        let mut cap = Capture::resume(&p, &bl, &dir).unwrap();
        Interp::new(&p, &bl, InterpConfig::default()).run(&[120], &mut cap).unwrap();
        cap.finish().unwrap();
        let wet = seal(&p, &bl, &dir, 1).unwrap();
        let mut out = Vec::new();
        wet.write_to(&mut out).unwrap();
        assert_eq!(out, reference);
    }

    #[test]
    fn sealing_an_unfinished_capture_is_refused() {
        let p = crate::tests::looping_program();
        let bl = BallLarus::new(&p);
        let dir = fresh_dir("unfinished-seal");
        let mut cap = Capture::create(&p, &bl, WetConfig::default(), &dir).unwrap();
        Interp::new(&p, &bl, InterpConfig::default()).run(&[30], &mut cap).unwrap();
        drop(cap);
        assert!(seal(&p, &bl, &dir, 1).is_err());
        // create() refuses a directory already in use.
        assert!(Capture::create(&p, &bl, WetConfig::default(), &dir).is_err());
    }
}
