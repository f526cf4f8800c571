//! A sharded, multi-tenant trace store with lazy section decode.
//!
//! One `wet serve` process can hold many traces, but eagerly decoding
//! every `.wetz` into RAM makes resident cost proportional to the
//! *corpus*; the paper's premise is that compressed traces stay
//! queryable without wholesale decompression, and the same discipline
//! should govern loading. [`TraceStore`] opens a trace by walking only
//! the section frame table ([`crate::serial::section_spans`]'s scan,
//! shared with `fsck`) and decoding just `CONF` + `BIND` (+ the tiny
//! `STAT`): a complete WET skeleton whose sequences are
//! [`Seq::Unavailable`](crate::Seq) placeholders — cold-open cost is
//! O(BIND), not O(trace).
//!
//! The three data sections (`TSEQ`, `VALS`, `EDGL`) stay as byte ranges
//! against the file — mmap-backed where the platform provides it, plain
//! `pread` otherwise — and are CRC-verified, decoded, and spliced into
//! the skeleton on first touch ([`TraceStore::ensure`]). Decoding a
//! section materializes its tier-2 [`Seq::Compressed`] streams *without
//! decompressing them*; per-stream decompression stays lazy in the
//! query engine, whose `EngineCache` shares the same byte budget (each
//! opened trace inherits the store budget as its
//! `serve.cache_budget_bytes` unless it already set one).
//!
//! Resident sections are evicted least-recently-touched under a global
//! byte budget: eviction resets a section to `Seq::Unavailable`
//! placeholders (the salvage pattern — lengths survive, so validation
//! and degraded accounting stay exact) and a later touch refills it
//! from the file. Sections a query currently relies on are pinned and
//! never evicted mid-query. A CRC-bad or undecodable lazy section
//! surfaces as a typed [`StoreErr::Corrupt`] (and stays sticky), never
//! a panic.
//!
//! Lock discipline: trace lookup uses sharded maps (read-mostly); all
//! residency bookkeeping — section states, byte ledger, eviction,
//! pin-up — happens under one global ledger mutex, with per-trace
//! section states only ever locked *under* the ledger (so eviction can
//! walk every trace without ordering hazards). Section payload decode
//! takes the trace's `RwLock<Wet>` write lock *outside* the ledger
//! (reserved via a `filling` claim), so a slow decode never stalls
//! other traces. Pin-down is a plain atomic decrement, touching no
//! lock, so a query thread holding a `Wet` read guard can release its
//! pins without lock-order risk. Metrics go to wet-obs as
//! `store.{resident_bytes,pinned_bytes,cold_opens,lazy_decodes,evictions}`.
//! See DESIGN.md §4 decision 11.

use crate::fault::{Io, Vfs};
use crate::graph::SLOT_OP0;
use crate::query::QueryErr;
use crate::serial::{
    self, SectionSpan, TAG_BIND, TAG_CONF, TAG_EDGL, TAG_ENDW, TAG_NDET, TAG_STAT, TAG_TSEQ, TAG_VALS,
};
use crate::Wet;
use std::collections::HashMap;
use std::fmt;
use std::fs::File;
use std::io::{self, Read, Seek};
use std::path::{Component, Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError, RwLock, Weak};
use std::time::Duration;
use wet_ir::stmt::Operand;
use wet_ir::{Program, StmtId};

/// Shard count for the id → trace maps. Small and fixed: contention is
/// on lookups, and lookups are cheap.
const N_SHARDS: usize = 8;

/// Store tuning. Runtime-only, like [`crate::graph::ServeConfig`].
#[derive(Debug, Clone)]
pub struct StoreOptions {
    /// Global byte budget for lazily-decoded section payloads across
    /// all open traces (0 = unlimited). `CONF`/`BIND`/`STAT` bytes are
    /// structural and pinned; they are accounted separately as
    /// `store.pinned_bytes`.
    pub budget_bytes: u64,
    /// Prefer mmap-backed section ranges; falls back to `pread`
    /// automatically when mapping fails or is unsupported.
    pub use_mmap: bool,
}

impl Default for StoreOptions {
    fn default() -> Self {
        StoreOptions { budget_bytes: 0, use_mmap: true }
    }
}

/// Typed store errors; [`kind`](StoreErr::kind) is the stable wire
/// identifier the serve layer forwards.
#[derive(Debug)]
pub enum StoreErr {
    /// Path escapes the configured store root (traversal guard).
    Forbidden(String),
    /// No open trace under that id.
    NotFound(String),
    /// Id already open, or a quota refuses the open.
    Conflict(String),
    /// Container damage: bad framing, CRC failure, undecodable section.
    Corrupt(String),
    /// The trace is quarantined while a background repair runs; safe
    /// to retry after a backoff (`wet query --retries` rides through).
    Repairing(String),
    /// Genuine I/O failure.
    Io(io::Error),
}

impl StoreErr {
    /// Stable wire identifier (`forbidden`, `not_found`, `conflict`,
    /// `corrupt`, `repairing`, `io`).
    pub fn kind(&self) -> &'static str {
        match self {
            StoreErr::Forbidden(_) => "forbidden",
            StoreErr::NotFound(_) => "not_found",
            StoreErr::Conflict(_) => "conflict",
            StoreErr::Corrupt(_) => "corrupt",
            StoreErr::Repairing(_) => "repairing",
            StoreErr::Io(_) => "io",
        }
    }

    /// True when the condition is transient and a client retry is the
    /// right move (currently only [`StoreErr::Repairing`]).
    pub fn is_retriable(&self) -> bool {
        matches!(self, StoreErr::Repairing(_))
    }
}

impl fmt::Display for StoreErr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreErr::Forbidden(m) => write!(f, "forbidden: {m}"),
            StoreErr::NotFound(m) => write!(f, "no such trace: {m}"),
            StoreErr::Conflict(m) => write!(f, "conflict: {m}"),
            StoreErr::Corrupt(m) => write!(f, "corrupt trace: {m}"),
            StoreErr::Repairing(m) => write!(f, "repairing: {m}"),
            StoreErr::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl From<StoreErr> for QueryErr {
    fn from(e: StoreErr) -> QueryErr {
        match e {
            // Repair-in-progress is overload-shaped: transient, typed,
            // retriable — exactly the Shed contract.
            StoreErr::Repairing(_) => QueryErr::Shed,
            other => QueryErr::Corrupt(other.to_string()),
        }
    }
}

/// Per-trace health as reported by the `list` op: `ok` unless a decode
/// failure quarantined the trace, `repairing` while the background
/// worker is actively rebuilding it, `failed` once the circuit breaker
/// gave up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceHealth {
    /// Serving normally.
    Ok,
    /// Corruption detected; queued for the repair worker.
    Quarantined,
    /// The repair worker is actively rebuilding it.
    Repairing,
    /// Repair attempts exhausted; the trace stays corrupt until closed
    /// and re-opened (or the file is replaced).
    Failed,
}

impl TraceHealth {
    /// Stable wire string (`ok`, `quarantined`, `repairing`, `failed`).
    pub fn name(self) -> &'static str {
        match self {
            TraceHealth::Ok => "ok",
            TraceHealth::Quarantined => "quarantined",
            TraceHealth::Repairing => "repairing",
            TraceHealth::Failed => "failed",
        }
    }
}

/// Resolves `rel` strictly under `root`: relative, no `..`, no root or
/// prefix components. The serve layer calls this *before* admission so
/// a traversal attempt is rejected early with a typed error.
///
/// # Errors
/// [`StoreErr::Forbidden`] when the path would escape the root.
pub fn resolve_under(root: &Path, rel: &str) -> Result<PathBuf, StoreErr> {
    let p = Path::new(rel);
    if p.as_os_str().is_empty() {
        return Err(StoreErr::Forbidden("empty path".into()));
    }
    for c in p.components() {
        match c {
            Component::Normal(_) | Component::CurDir => {}
            Component::ParentDir => {
                return Err(StoreErr::Forbidden(format!("path `{rel}` escapes the store root")))
            }
            Component::RootDir | Component::Prefix(_) => {
                return Err(StoreErr::Forbidden(format!("absolute path `{rel}` refused")))
            }
        }
    }
    Ok(root.join(p))
}

/// The three lazily-decoded data sections.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LazySection {
    /// Node timestamp sequences (`TSEQ`).
    Tseq,
    /// Value patterns + unique values (`VALS`).
    Vals,
    /// Coverage sets + edge label streams (`EDGL`).
    Edgl,
}

/// All lazy sections, index order.
pub const LAZY_SECTIONS: [LazySection; 3] = [LazySection::Tseq, LazySection::Vals, LazySection::Edgl];

impl LazySection {
    fn idx(self) -> usize {
        match self {
            LazySection::Tseq => 0,
            LazySection::Vals => 1,
            LazySection::Edgl => 2,
        }
    }

    /// Section tag name, for messages and the `list` op.
    pub fn name(self) -> &'static str {
        match self {
            LazySection::Tseq => "TSEQ",
            LazySection::Vals => "VALS",
            LazySection::Edgl => "EDGL",
        }
    }

    fn tag(self) -> [u8; 4] {
        match self {
            LazySection::Tseq => TAG_TSEQ,
            LazySection::Vals => TAG_VALS,
            LazySection::Edgl => TAG_EDGL,
        }
    }
}

// ---------------------------------------------------------------------
// Byte-range backing: mmap where available, pread otherwise.
// ---------------------------------------------------------------------

#[cfg(unix)]
mod map {
    use std::fs::File;
    use std::os::raw::{c_int, c_void};
    use std::os::unix::io::AsRawFd;

    extern "C" {
        fn mmap(addr: *mut c_void, len: usize, prot: c_int, flags: c_int, fd: c_int, off: i64) -> *mut c_void;
        fn munmap(addr: *mut c_void, len: usize) -> c_int;
    }
    const PROT_READ: c_int = 1;
    const MAP_PRIVATE: c_int = 2;

    /// A read-only private mapping of a whole file. Same zero-dependency
    /// FFI budget as the serve SIGTERM handler: std links libc anyway.
    pub struct Map {
        ptr: *mut u8,
        len: usize,
    }

    // The mapping is immutable shared memory; the raw pointer is only a
    // window onto it.
    unsafe impl Send for Map {}
    unsafe impl Sync for Map {}

    impl Map {
        pub fn of(file: &File) -> Option<Map> {
            let len = file.metadata().ok()?.len();
            let len = usize::try_from(len).ok().filter(|&n| n > 0)?;
            let ptr = unsafe {
                mmap(std::ptr::null_mut(), len, PROT_READ, MAP_PRIVATE, file.as_raw_fd(), 0)
            };
            if ptr as isize == -1 {
                return None;
            }
            Some(Map { ptr: ptr as *mut u8, len })
        }

        pub fn bytes(&self) -> &[u8] {
            unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
        }
    }

    impl Drop for Map {
        fn drop(&mut self) {
            unsafe {
                munmap(self.ptr as *mut c_void, self.len);
            }
        }
    }
}

/// How lazy section bytes are fetched.
enum Backing {
    /// Whole-file read-only mapping; range reads are zero-copy.
    #[cfg(unix)]
    Mmap(map::Map),
    /// Positioned reads against the open file (the portable fallback).
    Pread(File),
}

impl Backing {
    fn open(file: File, prefer_mmap: bool) -> Backing {
        #[cfg(unix)]
        if prefer_mmap {
            if let Some(m) = map::Map::of(&file) {
                return Backing::Mmap(m);
            }
        }
        #[cfg(not(unix))]
        let _ = prefer_mmap;
        Backing::Pread(file)
    }

    /// True when the mmap path is active (reported by `list`).
    fn is_mmap(&self) -> bool {
        match self {
            #[cfg(unix)]
            Backing::Mmap(_) => true,
            Backing::Pread(_) => false,
        }
    }

    /// Bytes `[off, off+len)`, borrowed from the mapping or read into
    /// `scratch`.
    fn range<'a>(&'a self, off: usize, len: usize, scratch: &'a mut Vec<u8>) -> io::Result<&'a [u8]> {
        match self {
            #[cfg(unix)]
            Backing::Mmap(m) => {
                let b = m.bytes();
                if off + len > b.len() {
                    return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "section range past EOF"));
                }
                Ok(&b[off..off + len])
            }
            Backing::Pread(f) => {
                scratch.clear();
                scratch.resize(len, 0);
                #[cfg(unix)]
                {
                    use std::os::unix::fs::FileExt;
                    f.read_exact_at(scratch, off as u64)?;
                }
                #[cfg(not(unix))]
                {
                    let mut f = f;
                    f.seek(io::SeekFrom::Start(off as u64))?;
                    f.read_exact(scratch)?;
                }
                Ok(&scratch[..])
            }
        }
    }
}

// ---------------------------------------------------------------------
// Per-trace state.
// ---------------------------------------------------------------------

/// Residency state of one lazy section. Only ever locked under the
/// store ledger.
#[derive(Debug, Default)]
struct SectState {
    /// Byte extents in the container; `None` for eagerly-resident
    /// traces (no backing file).
    span: Option<SectionSpan>,
    resident: bool,
    /// Claimed by a thread currently decoding it (bytes reserved).
    filling: bool,
    /// Sticky first-touch failure: CRC mismatch or undecodable payload.
    broken: Option<String>,
    last_touch: u64,
}

/// One open trace: the WET skeleton behind its query lock, the backing
/// file for lazy refills, and the program (if any) for address/slice
/// queries.
pub struct StoredTrace {
    id: String,
    tenant: String,
    wet: RwLock<Wet>,
    program: Option<Program>,
    backing: Option<Backing>,
    /// Source container path, kept so the repair worker can re-read
    /// the file; `None` for eagerly-inserted traces.
    path: Option<PathBuf>,
    /// Pin counts per lazy section: >0 means a query between
    /// [`TraceStore::ensure`] and completion relies on it. Pin-down is
    /// lock-free (see module docs).
    pins: [AtomicU32; 3],
    lazy: Mutex<[SectState; 3]>,
    /// Pinned structural payload bytes (CONF + BIND + STAT).
    pinned_bytes: u64,
}

impl StoredTrace {
    /// The trace id queries route by.
    pub fn id(&self) -> &str {
        &self.id
    }

    /// The owning tenant (admission quotas key on this).
    pub fn tenant(&self) -> &str {
        &self.tenant
    }

    /// The query lock. Queries take it shared, after pinning the
    /// sections they need via [`TraceStore::ensure`]; only the store
    /// takes it exclusively, to fill or evict a section.
    pub fn wet(&self) -> &RwLock<Wet> {
        &self.wet
    }

    /// The program for program-dependent queries, when one was given.
    pub fn program(&self) -> Option<&Program> {
        self.program.as_ref()
    }

    /// True when every section in `needs` is already decoded — the
    /// serve access log's store-hit bit: a query whose sections are
    /// all resident up front will do no container I/O.
    pub fn sections_resident(&self, needs: &[LazySection]) -> bool {
        let lz = lock(&self.lazy);
        needs.iter().all(|s| lz[s.idx()].resident)
    }
}

/// Pins held by an in-flight query; dropping releases them. Keep the
/// guard alive for as long as the query touches the pinned sections.
pub struct PinGuard {
    trace: Arc<StoredTrace>,
    mask: [bool; 3],
}

impl fmt::Debug for PinGuard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PinGuard").field("trace", &self.trace.id).field("mask", &self.mask).finish()
    }
}

impl Drop for PinGuard {
    fn drop(&mut self) {
        for (i, &held) in self.mask.iter().enumerate() {
            if held {
                self.trace.pins[i].fetch_sub(1, Ordering::SeqCst);
            }
        }
    }
}

/// One row of [`TraceStore::list`].
#[derive(Debug, Clone)]
pub struct TraceInfo {
    pub id: String,
    pub tenant: String,
    /// True when served lazily from a backing file (false = eager).
    pub lazy: bool,
    /// True when the lazy byte ranges are mmap-backed.
    pub mmap: bool,
    /// Residency per [`LAZY_SECTIONS`] order.
    pub resident: [bool; 3],
    /// Resident lazy payload bytes charged to the budget.
    pub resident_bytes: u64,
    /// Pinned structural bytes (CONF + BIND + STAT).
    pub pinned_bytes: u64,
    /// Health: `Ok` unless quarantined/repairing/failed.
    pub health: TraceHealth,
}

/// Global residency ledger. Single mutex: every byte-accounting or
/// section-state transition happens here, which is what makes the
/// budget a hard bound and eviction race-free.
#[derive(Default)]
struct Ledger {
    /// Resident lazy payload bytes across all traces.
    resident: u64,
    /// Pinned structural bytes across all traces.
    pinned: u64,
    /// LRU clock.
    tick: u64,
    /// Every open trace, for eviction walks. Weak: `close` prunes, and
    /// a straggler entry upgrades to `None` harmlessly.
    traces: Vec<Weak<StoredTrace>>,
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Bookkeeping for one unhealthy trace (keyed by id in the healing
/// map). Present = not `Ok`; removed on successful repair or close.
struct HealEntry {
    state: TraceHealth,
    attempts: u32,
}

/// The store: sharded id → trace maps plus the residency ledger. Cheap
/// to clone-share internally: the self-healing repair worker runs on
/// background threads that hold the same inner state.
pub struct TraceStore {
    inner: Arc<StoreInner>,
}

struct StoreInner {
    opts: StoreOptions,
    shards: [RwLock<HashMap<String, Arc<StoredTrace>>>; N_SHARDS],
    ledger: Mutex<Ledger>,
    cold_opens: AtomicU64,
    lazy_decodes: AtomicU64,
    evictions: AtomicU64,
    /// Self-healing switch: when set, a corrupt lazy decode
    /// quarantines the trace and kicks a background repair instead of
    /// answering sticky `Corrupt` forever. Off by default so embedded
    /// stores keep the strict typed-error contract.
    self_heal: AtomicBool,
    /// Unhealthy traces by id. Empty in the happy path; the
    /// `healing_n` mirror makes the per-query check one atomic load.
    healing: Mutex<HashMap<String, HealEntry>>,
    healing_n: AtomicU64,
    quarantines: AtomicU64,
    repairs_ok: AtomicU64,
    repairs_failed: AtomicU64,
    /// The I/O layer container reads go through; a passthrough unless
    /// a `WET_FAULT_*` plan (or a drill via `set_vfs`) armed it.
    vfs: Mutex<Arc<Vfs>>,
}

fn shard_of(id: &str) -> usize {
    // FNV-1a over the id; only distribution matters.
    let mut h: u64 = 0xcbf29ce484222325;
    for b in id.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    (h as usize) % N_SHARDS
}

impl StoreInner {
    fn new(opts: StoreOptions) -> StoreInner {
        wet_obs::gauge_set("store.resident_bytes", "", 0);
        wet_obs::gauge_set("store.pinned_bytes", "", 0);
        StoreInner {
            opts,
            shards: std::array::from_fn(|_| RwLock::new(HashMap::new())),
            ledger: Mutex::new(Ledger::default()),
            cold_opens: AtomicU64::new(0),
            lazy_decodes: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            self_heal: AtomicBool::new(false),
            healing: Mutex::new(HashMap::new()),
            healing_n: AtomicU64::new(0),
            quarantines: AtomicU64::new(0),
            repairs_ok: AtomicU64::new(0),
            repairs_failed: AtomicU64::new(0),
            vfs: Mutex::new(Arc::new(Vfs::from_env())),
        }
    }

    fn io(&self) -> Arc<Vfs> {
        lock(&self.vfs).clone()
    }

    /// The configured options.
    pub fn options(&self) -> &StoreOptions {
        &self.opts
    }

    /// Resident lazy payload bytes currently charged to the budget.
    pub fn resident_bytes(&self) -> u64 {
        lock(&self.ledger).resident
    }

    /// Pinned structural bytes (CONF + BIND + STAT of lazy traces).
    pub fn pinned_bytes(&self) -> u64 {
        lock(&self.ledger).pinned
    }

    /// Cold opens served so far.
    pub fn cold_opens(&self) -> u64 {
        self.cold_opens.load(Ordering::Relaxed)
    }

    /// Lazy section decodes performed so far.
    pub fn lazy_decodes(&self) -> u64 {
        self.lazy_decodes.load(Ordering::Relaxed)
    }

    /// Sections evicted under budget pressure so far.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Looks up an open trace by id.
    pub fn get(&self, id: &str) -> Option<Arc<StoredTrace>> {
        self.shards[shard_of(id)]
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(id)
            .cloned()
    }

    /// Number of open traces.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.read().unwrap_or_else(PoisonError::into_inner).len()).sum()
    }

    /// True when no trace is open.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Inserts an already-loaded WET as a fully-resident trace (the
    /// single-trace `wet serve` compatibility path; also the fallback
    /// for v1 containers, which have no section frames to serve
    /// lazily). Its bytes are not charged to the lazy budget.
    ///
    /// # Errors
    /// [`StoreErr::Conflict`] when the id is already open.
    fn insert_resident(
        &self,
        id: &str,
        tenant: &str,
        wet: Wet,
        program: Option<Program>,
    ) -> Result<Arc<StoredTrace>, StoreErr> {
        self.register(self.build_resident(id, tenant, wet, program, None))
    }

    /// Builds a fully-resident trace without registering it (the
    /// repair worker swaps one in atomically instead).
    fn build_resident(
        &self,
        id: &str,
        tenant: &str,
        mut wet: Wet,
        program: Option<Program>,
        path: Option<PathBuf>,
    ) -> Arc<StoredTrace> {
        if self.opts.budget_bytes > 0 && wet.config().serve.cache_budget_bytes == 0 {
            wet.config_mut().serve.cache_budget_bytes = self.opts.budget_bytes;
        }
        Arc::new(StoredTrace {
            id: id.to_string(),
            tenant: tenant.to_string(),
            wet: RwLock::new(wet),
            program,
            backing: None,
            path,
            pins: Default::default(),
            lazy: Mutex::new(std::array::from_fn(|_| SectState {
                span: None,
                resident: true,
                filling: false,
                broken: None,
                last_touch: 0,
            })),
            pinned_bytes: 0,
        })
    }

    /// Opens a `.wetz` lazily: walks the section frame table, decodes
    /// `CONF` + `BIND` + `STAT` (CRC-verified), and leaves
    /// `TSEQ`/`VALS`/`EDGL` as byte ranges against the file. Cost is
    /// O(BIND), independent of trace data volume. v1 containers (no
    /// sections) fall back to an eager load.
    ///
    /// # Errors
    /// [`StoreErr::Conflict`] on a duplicate id, [`StoreErr::Corrupt`]
    /// on container damage in the eagerly-decoded parts,
    /// [`StoreErr::Io`] on file-system failure.
    fn open(
        &self,
        id: &str,
        tenant: &str,
        path: &Path,
        program: Option<Program>,
    ) -> Result<Arc<StoredTrace>, StoreErr> {
        let trace = self.load_lazy(id, tenant, path, program)?;
        self.register(trace)
    }

    /// The body of [`TraceStore::open`] minus registration: builds the
    /// trace without publishing it, so the repair worker can construct
    /// a replacement and swap it in atomically.
    fn load_lazy(
        &self,
        id: &str,
        tenant: &str,
        path: &Path,
        program: Option<Program>,
    ) -> Result<Arc<StoredTrace>, StoreErr> {
        let io = self.io();
        let mut file = io.open(path).map_err(StoreErr::Io)?;
        let mut head = [0u8; 5];
        file.read_exact(&mut head).map_err(|_| StoreErr::Corrupt("file too short".into()))?;
        if &head[..4] != serial::MAGIC {
            return Err(StoreErr::Corrupt("not a WETZ file".into()));
        }
        if head[4] == serial::V1 {
            // No section frames to serve lazily; load it whole.
            file.seek(io::SeekFrom::Start(0)).map_err(StoreErr::Io)?;
            let wet = Wet::read_from(&mut io::BufReader::new(file)).map_err(io_or_corrupt)?;
            self.cold_opens.fetch_add(1, Ordering::Relaxed);
            wet_obs::counter_add("store.cold_opens", "", 1);
            return Ok(self.build_resident(id, tenant, wet, program, Some(path.to_path_buf())));
        }

        let spans = serial::scan_spans(&mut file).map_err(io_or_corrupt)?;
        let tags: Vec<[u8; 4]> = spans.iter().map(|s| s.tag).collect();
        let canonical: Vec<[u8; 4]> = serial::CANONICAL.iter().chain([&TAG_ENDW]).copied().collect();
        if tags != canonical {
            return Err(StoreErr::Corrupt("sections missing, duplicated, or out of order".into()));
        }
        let span_list = spans.clone();
        let span_of = move |tag: [u8; 4]| *span_list.iter().find(|s| s.tag == tag).unwrap();

        let backing = Backing::open(file, self.opts.use_mmap);
        let mut scratch = Vec::new();
        let conf = read_verified(&backing, span_of(TAG_CONF), &mut scratch, &io)?.to_vec();
        let bind = read_verified(&backing, span_of(TAG_BIND), &mut scratch, &io)?.to_vec();
        let ndet_bytes = read_verified(&backing, span_of(TAG_NDET), &mut scratch, &io)?.to_vec();
        let stat = read_verified(&backing, span_of(TAG_STAT), &mut scratch, &io)?.to_vec();

        let (config, tier2) = serial::parse_conf(&conf).map_err(io_or_corrupt)?;
        let bound = serial::parse_bind(&bind).map_err(io_or_corrupt)?;
        // NDET is small (one record per nondeterministic read) and is
        // the replay contract, so it stays resident rather than lazy.
        let ndet = serial::parse_ndet(&ndet_bytes).map_err(io_or_corrupt)?;
        let (sizes, stats) = serial::parse_stat(&stat).map_err(io_or_corrupt)?;
        let pinned_bytes = (span_of(TAG_CONF).payload_len
            + span_of(TAG_BIND).payload_len
            + span_of(TAG_NDET).payload_len
            + span_of(TAG_STAT).payload_len) as u64;

        let mut wet = Wet {
            config,
            nodes: bound.nodes,
            node_index: bound.node_index,
            edges: bound.edges,
            labels: bound.labels,
            in_edges: bound.in_edges,
            out_edges: bound.out_edges,
            first: bound.first,
            last: bound.last,
            sizes,
            stats,
            tier2,
            ndet,
            section_index: Some(spans),
        };
        wet.validate().map_err(StoreErr::Corrupt)?;
        if self.opts.budget_bytes > 0 && wet.config().serve.cache_budget_bytes == 0 {
            // One pool, two layers: the engine's stream cache honors the
            // same budget the store evicts sections under.
            wet.config_mut().serve.cache_budget_bytes = self.opts.budget_bytes;
        }

        let trace = Arc::new(StoredTrace {
            id: id.to_string(),
            tenant: tenant.to_string(),
            wet: RwLock::new(wet),
            program,
            backing: Some(backing),
            path: Some(path.to_path_buf()),
            pins: Default::default(),
            lazy: Mutex::new(std::array::from_fn(|i| SectState {
                span: Some(span_of(LAZY_SECTIONS[i].tag())),
                resident: false,
                filling: false,
                broken: None,
                last_touch: 0,
            })),
            pinned_bytes,
        });
        self.cold_opens.fetch_add(1, Ordering::Relaxed);
        wet_obs::counter_add("store.cold_opens", "", 1);
        Ok(trace)
    }

    fn register(&self, trace: Arc<StoredTrace>) -> Result<Arc<StoredTrace>, StoreErr> {
        let shard = &self.shards[shard_of(&trace.id)];
        {
            let mut m = shard.write().unwrap_or_else(PoisonError::into_inner);
            if m.contains_key(&trace.id) {
                return Err(StoreErr::Conflict(format!("trace `{}` already open", trace.id)));
            }
            m.insert(trace.id.clone(), trace.clone());
        }
        let mut led = lock(&self.ledger);
        led.pinned += trace.pinned_bytes;
        led.traces.push(Arc::downgrade(&trace));
        publish(&led);
        Ok(trace)
    }

    /// Closes a trace: removes it from the store and returns its bytes
    /// to the ledger. In-flight queries holding the `Arc` finish
    /// normally; the memory goes when the last reference drops.
    pub fn close(&self, id: &str) -> Result<(), StoreErr> {
        let trace = {
            let mut m = self.shards[shard_of(id)].write().unwrap_or_else(PoisonError::into_inner);
            m.remove(id).ok_or_else(|| StoreErr::NotFound(id.to_string()))?
        };
        let mut led = lock(&self.ledger);
        let lz = lock(&trace.lazy);
        for st in lz.iter() {
            if let (true, Some(span)) = (st.resident, &st.span) {
                led.resident -= span.payload_len as u64;
            }
        }
        drop(lz);
        led.pinned -= trace.pinned_bytes;
        led.traces.retain(|w| w.upgrade().map(|t| !Arc::ptr_eq(&t, &trace)).unwrap_or(false));
        publish(&led);
        drop(led);
        // Closing an unhealthy trace abandons its repair: the worker
        // sees the entry gone and exits.
        self.clear_heal(id);
        Ok(())
    }

    /// Every open trace, sorted by id (deterministic `list` responses).
    pub fn list(&self) -> Vec<TraceInfo> {
        let mut traces: Vec<Arc<StoredTrace>> = Vec::new();
        for shard in &self.shards {
            traces.extend(shard.read().unwrap_or_else(PoisonError::into_inner).values().cloned());
        }
        traces.sort_by(|a, b| a.id.cmp(&b.id));
        let health: HashMap<String, TraceHealth> = {
            let heal = lock(&self.healing);
            heal.iter().map(|(id, e)| (id.clone(), e.state)).collect()
        };
        let led = lock(&self.ledger);
        let infos = traces
            .iter()
            .map(|t| {
                let lz = lock(&t.lazy);
                let mut resident = [false; 3];
                let mut bytes = 0u64;
                for (i, st) in lz.iter().enumerate() {
                    resident[i] = st.resident;
                    if st.resident {
                        if let Some(sp) = &st.span {
                            bytes += sp.payload_len as u64;
                        }
                    }
                }
                TraceInfo {
                    id: t.id.clone(),
                    tenant: t.tenant.clone(),
                    lazy: t.backing.is_some(),
                    mmap: t.backing.as_ref().map(Backing::is_mmap).unwrap_or(false),
                    resident,
                    resident_bytes: bytes,
                    pinned_bytes: t.pinned_bytes,
                    health: health.get(&t.id).copied().unwrap_or(TraceHealth::Ok),
                }
            })
            .collect();
        drop(led);
        infos
    }

    /// Makes `needs` resident and pins them for the returned guard's
    /// lifetime. Filling happens at section granularity (CRC check +
    /// decode into the skeleton); evicting the least-recently-touched
    /// unpinned sections first keeps resident bytes under the budget.
    ///
    /// # Errors
    /// [`StoreErr::Corrupt`] when a needed section fails its CRC or
    /// decode (sticky — later touches fail the same way without
    /// re-reading). With self-healing enabled, corruption instead
    /// quarantines the trace and every touch until repair completes
    /// gets the retriable [`StoreErr::Repairing`].
    fn ensure(
        self: &Arc<Self>,
        trace: &Arc<StoredTrace>,
        needs: &[LazySection],
    ) -> Result<PinGuard, StoreErr> {
        self.heal_gate(&trace.id)?;
        let mut guard = PinGuard { trace: trace.clone(), mask: [false; 3] };
        enum Step {
            Done,
            Wait,
            Fill(LazySection, SectionSpan),
        }
        loop {
            let step = {
                let mut led = lock(&self.ledger);
                let mut step = Step::Done;
                {
                    let mut lz = lock(&trace.lazy);
                    for &s in needs {
                        let st = &mut lz[s.idx()];
                        if let Some(msg) = &st.broken {
                            return Err(self.corrupt_section(trace, s, msg.clone()));
                        }
                        if st.resident {
                            st.last_touch = led.tick;
                            led.tick += 1;
                            if !guard.mask[s.idx()] {
                                trace.pins[s.idx()].fetch_add(1, Ordering::SeqCst);
                                guard.mask[s.idx()] = true;
                            }
                            continue;
                        }
                        if st.filling {
                            step = Step::Wait;
                            break;
                        }
                        let Some(span) = st.span else {
                            return Err(StoreErr::Corrupt(format!(
                                "{}: {} section absent",
                                trace.id,
                                s.name()
                            )));
                        };
                        st.filling = true;
                        step = Step::Fill(s, span);
                        break;
                    }
                }
                if let Step::Fill(_, span) = &step {
                    // Reserve the bytes before decoding, evicting LRU
                    // victims first so the budget holds at all times.
                    self.evict_for(&mut led, span.payload_len as u64);
                    led.resident += span.payload_len as u64;
                    publish(&led);
                }
                step
            };
            match step {
                Step::Done => return Ok(guard),
                Step::Wait => {
                    // Another thread is decoding a section we need; its
                    // finish transitions the state under the ledger.
                    std::thread::sleep(Duration::from_micros(200));
                }
                Step::Fill(s, span) => {
                    let filled = self.decode_section(trace, s, span);
                    let mut led = lock(&self.ledger);
                    let mut lz = lock(&trace.lazy);
                    let st = &mut lz[s.idx()];
                    st.filling = false;
                    match filled {
                        Ok(()) => {
                            st.resident = true;
                            st.last_touch = led.tick;
                            led.tick += 1;
                            if !guard.mask[s.idx()] {
                                trace.pins[s.idx()].fetch_add(1, Ordering::SeqCst);
                                guard.mask[s.idx()] = true;
                            }
                            self.lazy_decodes.fetch_add(1, Ordering::Relaxed);
                            wet_obs::counter_add("store.lazy_decodes", "", 1);
                            publish(&led);
                        }
                        Err(e) => {
                            let msg = e.to_string();
                            st.broken = Some(msg.clone());
                            led.resident -= span.payload_len as u64;
                            publish(&led);
                            return Err(self.corrupt_section(trace, s, msg));
                        }
                    }
                }
            }
        }
    }

    /// Reads, CRC-checks, and decodes one section into the trace's WET.
    /// Runs *outside* the ledger; the `filling` claim keeps eviction and
    /// concurrent fills away.
    fn decode_section(&self, trace: &StoredTrace, s: LazySection, span: SectionSpan) -> io::Result<()> {
        let backing = trace
            .backing
            .as_ref()
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no backing file"))?;
        let mut scratch = Vec::new();
        let payload = read_verified(backing, span, &mut scratch, &self.io()).map_err(|e| match e {
            StoreErr::Io(e) => e,
            other => io::Error::new(io::ErrorKind::InvalidData, other.to_string()),
        })?;
        let mut wet = trace.wet.write().unwrap_or_else(PoisonError::into_inner);
        let wet = &mut *wet;
        match s {
            LazySection::Tseq => serial::fill_tseq(&mut wet.nodes, payload),
            LazySection::Vals => serial::fill_vals(&mut wet.nodes, payload),
            LazySection::Edgl => serial::fill_edgl(&mut wet.nodes, &mut wet.labels, payload),
        }
    }

    /// Evicts least-recently-touched unpinned sections until `need`
    /// more bytes fit under the budget. Called under the ledger. When
    /// nothing is evictable (everything pinned), the budget overshoots
    /// rather than deadlocking a query against its own pins.
    fn evict_for(&self, led: &mut Ledger, need: u64) {
        let budget = self.opts.budget_bytes;
        if budget == 0 {
            return;
        }
        while led.resident + need > budget {
            let mut victim: Option<(Arc<StoredTrace>, usize, u64)> = None;
            for w in &led.traces {
                let Some(t) = w.upgrade() else { continue };
                if t.backing.is_none() {
                    continue; // eager traces cannot be refilled
                }
                let lz = lock(&t.lazy);
                for (i, st) in lz.iter().enumerate() {
                    if st.resident
                        && !st.filling
                        && t.pins[i].load(Ordering::SeqCst) == 0
                        && victim.as_ref().map(|&(_, _, tt)| st.last_touch < tt).unwrap_or(true)
                    {
                        victim = Some((t.clone(), i, st.last_touch));
                    }
                }
            }
            let Some((t, i, touch)) = victim else { break };
            // The query lock may be held briefly by a concurrent fill
            // on another section of the same trace; skip rather than
            // block the whole ledger on it.
            let Ok(mut wet) = t.wet.try_write() else { break };
            let mut lz = lock(&t.lazy);
            let st = &mut lz[i];
            // Re-check under the locks: the state may have moved.
            if !(st.resident && !st.filling && t.pins[i].load(Ordering::SeqCst) == 0 && st.last_touch == touch)
            {
                continue;
            }
            let wet = &mut *wet;
            match LAZY_SECTIONS[i] {
                LazySection::Tseq => serial::mark_tseq_lost(&mut wet.nodes),
                LazySection::Vals => serial::mark_vals_lost(&mut wet.nodes),
                LazySection::Edgl => serial::mark_edgl_lost(&mut wet.nodes, &mut wet.labels),
            }
            st.resident = false;
            led.resident -= st.span.as_ref().map(|sp| sp.payload_len as u64).unwrap_or(0);
            self.evictions.fetch_add(1, Ordering::Relaxed);
            wet_obs::counter_add("store.evictions", "", 1);
        }
        publish(led);
    }

    // -----------------------------------------------------------------
    // Self-healing: quarantine → background repair → re-admission.
    // -----------------------------------------------------------------

    /// Per-query health check. One atomic load in the happy path; a
    /// map lookup only while at least one trace is unhealthy.
    fn heal_gate(&self, id: &str) -> Result<(), StoreErr> {
        if self.healing_n.load(Ordering::Acquire) == 0 {
            return Ok(());
        }
        let heal = lock(&self.healing);
        match heal.get(id).map(|e| e.state) {
            None | Some(TraceHealth::Ok) => Ok(()),
            Some(TraceHealth::Quarantined) | Some(TraceHealth::Repairing) => {
                Err(StoreErr::Repairing(format!(
                    "trace `{id}` is quarantined while a repair runs; retry shortly"
                )))
            }
            Some(TraceHealth::Failed) => Err(StoreErr::Corrupt(format!(
                "trace `{id}`: repair attempts exhausted; close and re-open after replacing the file"
            ))),
        }
    }

    /// Shapes a section-corruption error. Without self-healing this is
    /// the sticky typed `Corrupt` of PR 6; with it, the trace is
    /// quarantined and callers (including the one that tripped the
    /// corruption) get the retriable `Repairing` so `--retries` rides
    /// through the repair window. Called with the ledger held — touches
    /// only the healing lock.
    fn corrupt_section(
        self: &Arc<Self>,
        trace: &Arc<StoredTrace>,
        s: LazySection,
        msg: String,
    ) -> StoreErr {
        if self.self_heal.load(Ordering::Acquire) && trace.path.is_some() {
            self.quarantine(trace);
            return StoreErr::Repairing(format!(
                "trace `{}`: {} section corrupt ({msg}); quarantined for repair, retry shortly",
                trace.id,
                s.name()
            ));
        }
        StoreErr::Corrupt(format!("{}: {} section: {msg}", trace.id, s.name()))
    }

    /// Marks the trace unhealthy and kicks a background repair worker.
    /// Idempotent: a trace already queued (or parked as `Failed`) is
    /// left alone. Safe to call with the ledger held — takes only the
    /// healing lock, and the worker thread starts by sleeping.
    fn quarantine(self: &Arc<Self>, trace: &Arc<StoredTrace>) {
        let id = trace.id.clone();
        {
            let mut heal = lock(&self.healing);
            if heal.contains_key(&id) {
                return;
            }
            heal.insert(id.clone(), HealEntry { state: TraceHealth::Quarantined, attempts: 0 });
            self.healing_n.store(heal.len() as u64, Ordering::Release);
        }
        self.quarantines.fetch_add(1, Ordering::Relaxed);
        wet_obs::counter_add("store.quarantines", "", 1);
        let inner = self.clone();
        std::thread::spawn(move || inner.repair_worker(&id));
    }

    /// Removes a healing entry (repair finished or trace closed).
    fn clear_heal(&self, id: &str) {
        let mut heal = lock(&self.healing);
        heal.remove(id);
        self.healing_n.store(heal.len() as u64, Ordering::Release);
    }

    /// Background repair loop: re-reads the container through the
    /// salvaging decoder under capped exponential backoff and swaps a
    /// fresh trace in atomically. The attempt cap is the per-trace
    /// circuit breaker — exhausting it parks the trace as `Failed`
    /// (terminal until `close`). On the final attempt an unclean
    /// salvage is still installed as a degraded resident trace, so the
    /// store answers (with `Unavailable` placeholders) rather than
    /// refusing forever.
    fn repair_worker(self: Arc<Self>, id: &str) {
        const MAX_ATTEMPTS: u32 = 6;
        let mut delay = Duration::from_millis(10);
        for attempt in 1..=MAX_ATTEMPTS {
            std::thread::sleep(delay);
            delay = (delay * 2).min(Duration::from_millis(400));
            {
                let mut heal = lock(&self.healing);
                let Some(entry) = heal.get_mut(id) else {
                    return; // closed meanwhile — repair abandoned
                };
                entry.state = TraceHealth::Repairing;
                entry.attempts = attempt;
            }
            let Some(old) = self.get(id) else {
                self.clear_heal(id);
                return;
            };
            let Some(path) = old.path.clone() else {
                break; // eagerly-inserted: nothing on disk to re-read
            };
            if self.try_repair(&old, &path, attempt == MAX_ATTEMPTS) {
                self.clear_heal(id);
                self.repairs_ok.fetch_add(1, Ordering::Relaxed);
                wet_obs::counter_add("store.repairs_ok", "", 1);
                return;
            }
        }
        let mut heal = lock(&self.healing);
        if let Some(entry) = heal.get_mut(id) {
            entry.state = TraceHealth::Failed;
        }
        drop(heal);
        self.repairs_failed.fetch_add(1, Ordering::Relaxed);
        wet_obs::counter_add("store.repairs_failed", "", 1);
    }

    /// One repair attempt. True when a replacement trace was installed:
    /// a clean container re-opens lazily exactly like `open`; on the
    /// final attempt an unclean salvage installs the degraded WET
    /// (damaged sections as `Unavailable`) as a resident trace. The
    /// file itself is never rewritten in-process — that stays the
    /// operator's `wet fsck --repair` call (DESIGN.md §4 decision 14).
    fn try_repair(self: &Arc<Self>, old: &Arc<StoredTrace>, path: &Path, last: bool) -> bool {
        let io = self.io();
        let Ok((wet, report)) = Wet::read_salvaging_path(path, io.as_ref()) else {
            return false;
        };
        if report.is_clean() {
            match self.load_lazy(&old.id, &old.tenant, path, old.program.clone()) {
                Ok(fresh) => return self.swap_in(old, fresh),
                Err(_) => return false,
            }
        }
        if last {
            let fresh =
                self.build_resident(&old.id, &old.tenant, wet, old.program.clone(), Some(path.to_path_buf()));
            return self.swap_in(old, fresh);
        }
        false
    }

    /// Atomically replaces `old` with `fresh` in the shard map and
    /// rebalances the ledger (close + register, without the window
    /// where the id is absent). False when `old` is no longer the
    /// published entry — someone closed or replaced it concurrently,
    /// and the repair result is discarded.
    fn swap_in(&self, old: &Arc<StoredTrace>, fresh: Arc<StoredTrace>) -> bool {
        let shard = &self.shards[shard_of(&old.id)];
        {
            let mut m = shard.write().unwrap_or_else(PoisonError::into_inner);
            match m.get(&old.id) {
                Some(cur) if Arc::ptr_eq(cur, old) => {}
                _ => return false,
            }
            m.insert(old.id.clone(), fresh.clone());
        }
        let mut led = lock(&self.ledger);
        let lz = lock(&old.lazy);
        for st in lz.iter() {
            if let (true, Some(span)) = (st.resident, &st.span) {
                led.resident -= span.payload_len as u64;
            }
        }
        drop(lz);
        led.pinned -= old.pinned_bytes;
        led.traces.retain(|w| w.upgrade().map(|t| !Arc::ptr_eq(&t, old)).unwrap_or(false));
        led.pinned += fresh.pinned_bytes;
        led.traces.push(Arc::downgrade(&fresh));
        publish(&led);
        true
    }
}

impl TraceStore {
    /// An empty store with the given options.
    pub fn new(opts: StoreOptions) -> TraceStore {
        TraceStore { inner: Arc::new(StoreInner::new(opts)) }
    }

    /// Turns self-healing on or off. Off (the default) keeps PR 6's
    /// strict contract: corruption is a sticky typed `Corrupt`. On —
    /// what `wet serve` runs with — corruption quarantines the trace,
    /// a background worker repairs it, and queries meanwhile get the
    /// retriable [`StoreErr::Repairing`].
    pub fn set_self_heal(&self, on: bool) {
        self.inner.self_heal.store(on, Ordering::Release);
    }

    /// Replaces the I/O layer (fault-injection drills).
    pub fn set_vfs(&self, vfs: Arc<Vfs>) {
        *lock(&self.inner.vfs) = vfs;
    }

    /// The configured options.
    pub fn options(&self) -> &StoreOptions {
        self.inner.options()
    }

    /// Resident lazy payload bytes currently charged to the budget.
    pub fn resident_bytes(&self) -> u64 {
        self.inner.resident_bytes()
    }

    /// Pinned structural bytes (CONF + BIND + STAT of lazy traces).
    pub fn pinned_bytes(&self) -> u64 {
        self.inner.pinned_bytes()
    }

    /// Cold opens served so far.
    pub fn cold_opens(&self) -> u64 {
        self.inner.cold_opens()
    }

    /// Lazy section decodes performed so far.
    pub fn lazy_decodes(&self) -> u64 {
        self.inner.lazy_decodes()
    }

    /// Sections evicted under budget pressure so far.
    pub fn evictions(&self) -> u64 {
        self.inner.evictions()
    }

    /// Traces quarantined so far.
    pub fn quarantines(&self) -> u64 {
        self.inner.quarantines.load(Ordering::Relaxed)
    }

    /// Background repairs that re-admitted a trace.
    pub fn repairs_ok(&self) -> u64 {
        self.inner.repairs_ok.load(Ordering::Relaxed)
    }

    /// Repairs whose circuit breaker tripped (trace parked `Failed`).
    pub fn repairs_failed(&self) -> u64 {
        self.inner.repairs_failed.load(Ordering::Relaxed)
    }

    /// Current health of a trace (`Ok` when not in the healing map).
    pub fn health(&self, id: &str) -> TraceHealth {
        let heal = lock(&self.inner.healing);
        heal.get(id).map(|e| e.state).unwrap_or(TraceHealth::Ok)
    }

    /// Looks up an open trace by id.
    pub fn get(&self, id: &str) -> Option<Arc<StoredTrace>> {
        self.inner.get(id)
    }

    /// Number of open traces.
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// True when no trace is open.
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    /// Inserts an already-loaded WET as a fully-resident trace (the
    /// single-trace `wet serve` compatibility path; also the fallback
    /// for v1 containers, which have no section frames to serve
    /// lazily). Its bytes are not charged to the lazy budget.
    ///
    /// # Errors
    /// [`StoreErr::Conflict`] when the id is already open.
    pub fn insert_resident(
        &self,
        id: &str,
        tenant: &str,
        wet: Wet,
        program: Option<Program>,
    ) -> Result<Arc<StoredTrace>, StoreErr> {
        self.inner.insert_resident(id, tenant, wet, program)
    }

    /// Opens a `.wetz` lazily; see [`StoreInner::load_lazy`]'s cost
    /// model (O(BIND), independent of trace data volume).
    ///
    /// # Errors
    /// [`StoreErr::Conflict`] on a duplicate id, [`StoreErr::Corrupt`]
    /// on container damage in the eagerly-decoded parts,
    /// [`StoreErr::Io`] on file-system failure.
    pub fn open(
        &self,
        id: &str,
        tenant: &str,
        path: &Path,
        program: Option<Program>,
    ) -> Result<Arc<StoredTrace>, StoreErr> {
        self.inner.open(id, tenant, path, program)
    }

    /// Closes a trace: removes it from the store and returns its bytes
    /// to the ledger. In-flight queries holding the `Arc` finish
    /// normally; the memory goes when the last reference drops.
    pub fn close(&self, id: &str) -> Result<(), StoreErr> {
        self.inner.close(id)
    }

    /// Every open trace, sorted by id (deterministic `list` responses).
    pub fn list(&self) -> Vec<TraceInfo> {
        self.inner.list()
    }

    /// Makes `needs` resident and pins them for the returned guard's
    /// lifetime; see [`StoreInner::ensure`].
    ///
    /// # Errors
    /// [`StoreErr::Corrupt`] on section corruption (sticky), or — with
    /// self-healing on — the retriable [`StoreErr::Repairing`] while
    /// the background worker rebuilds the trace.
    pub fn ensure(
        &self,
        trace: &Arc<StoredTrace>,
        needs: &[LazySection],
    ) -> Result<PinGuard, StoreErr> {
        self.inner.ensure(trace, needs)
    }
}

/// Pushes ledger totals to wet-obs (current + running peak).
fn publish(led: &Ledger) {
    wet_obs::gauge_set("store.resident_bytes", "", led.resident as i64);
    wet_obs::gauge_max("store.resident_bytes", "peak", led.resident as i64);
    wet_obs::gauge_set("store.pinned_bytes", "", led.pinned as i64);
}

/// Reads one section's payload and verifies its CRC (which covers tag +
/// length prefix + payload, recomputed from the span metadata).
fn read_verified<'a>(
    backing: &'a Backing,
    span: SectionSpan,
    scratch: &'a mut Vec<u8>,
    io: &Vfs,
) -> Result<&'a [u8], StoreErr> {
    // The mmap path never issues a read syscall, so the fault plan
    // gates here: every section fetch counts as one read op no matter
    // which backing serves it.
    io.read_gate().map_err(StoreErr::Io)?;
    let whole = backing
        .range(span.payload_start, span.payload_len + 4, scratch)
        .map_err(StoreErr::Io)?;
    let (payload, crcb) = whole.split_at(span.payload_len);
    let mut c = crate::crc::Crc32::new();
    c.update(&span.tag);
    c.update(&(span.payload_len as u64).to_le_bytes());
    c.update(payload);
    if c.finish() != u32::from_le_bytes(crcb.try_into().unwrap()) {
        return Err(StoreErr::Corrupt(format!(
            "{} checksum mismatch",
            String::from_utf8_lossy(&span.tag)
        )));
    }
    Ok(payload)
}

/// Real I/O failures stay [`StoreErr::Io`]; decode problems become
/// [`StoreErr::Corrupt`].
fn io_or_corrupt(e: io::Error) -> StoreErr {
    match e.kind() {
        io::ErrorKind::InvalidData | io::ErrorKind::UnexpectedEof => StoreErr::Corrupt(e.to_string()),
        _ => StoreErr::Io(e),
    }
}

/// The sections a serve op touches — the contract between the protocol
/// layer and the store. Control-flow traces need timestamps; value and
/// address traces additionally read value streams; slices chase
/// dependence labels too.
pub fn sections_for_op(op: &str) -> &'static [LazySection] {
    match op {
        "cf_trace" => &[LazySection::Tseq],
        "value_trace" | "address_trace" => &[LazySection::Tseq, LazySection::Vals],
        "slice" => &LAZY_SECTIONS,
        _ => &[],
    }
}

/// The sections an `address_trace` of `stmt` touches: those of
/// [`sections_for_op`], plus `EDGL` when a node holding `stmt` may
/// resolve its register address operand through stored labels — a
/// non-complete intra edge with a coverage set, or an incoming labelled
/// edge. Decided from `BIND` structure alone, which is always resident,
/// so the label pools load only for the statements that read them.
pub fn sections_for_address_trace(wet: &Wet, program: &Program, stmt: StmtId) -> &'static [LazySection] {
    // Nodes first: a statement no node holds (possibly one the program
    // does not have) needs no operand lookup at all.
    let reads_labels = crate::query::engine::nodes_with_stmt(wet, stmt).into_iter().any(|node| {
        let intra = wet.node(node).intra.get(&(stmt, SLOT_OP0));
        intra.is_some_and(|ies| ies.iter().any(|ie| !ie.complete && ie.ks.is_some()))
            || !wet.in_edges(node, stmt, SLOT_OP0).is_empty()
    }) && matches!(crate::query::engine::addr_operand(program, stmt), Some(Operand::Reg(_)));
    if reads_labels {
        &LAZY_SECTIONS
    } else {
        sections_for_op("address_trace")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query;
    use crate::WetConfig;

    fn saved_trace(dir: &Path, name: &str, input: i64) -> PathBuf {
        let p = crate::tests::looping_program();
        let (mut wet, _) = crate::tests::build_wet(&p, &[input], WetConfig::default());
        wet.compress();
        let mut bytes = Vec::new();
        wet.write_to(&mut bytes).unwrap();
        let path = dir.join(name);
        std::fs::write(&path, &bytes).unwrap();
        path
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("wet-store-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn lazy_open_matches_eager_queries() {
        let dir = tmpdir("lazy");
        let path = saved_trace(&dir, "a.wetz", 70);

        let bytes = std::fs::read(&path).unwrap();
        let eager = Wet::read_from(&mut bytes.as_slice()).unwrap();
        let expect_cf = query::cf_trace_forward(&eager).unwrap();

        let store = TraceStore::new(StoreOptions::default());
        let t = store.open("a", "ten", &path, None).unwrap();
        assert_eq!(store.resident_bytes(), 0, "no lazy bytes before first touch");
        let _pin = store.ensure(&t, &[LazySection::Tseq]).unwrap();
        assert!(store.resident_bytes() > 0);
        let wet = t.wet().read().unwrap();
        let got = query::cf_trace_forward(&wet).unwrap();
        assert_eq!(got, expect_cf);
        assert_eq!(store.lazy_decodes(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn eviction_keeps_resident_bytes_under_budget() {
        let dir = tmpdir("evict");
        let mut paths = Vec::new();
        for i in 0..4 {
            paths.push(saved_trace(&dir, &format!("t{i}.wetz"), 60 + i as i64 * 7));
        }
        // Budget fits roughly one trace's lazy sections at a time.
        let one = {
            let bytes = std::fs::read(&paths[0]).unwrap();
            let spans = crate::section_spans(&bytes).unwrap();
            spans
                .iter()
                .filter(|s| [TAG_TSEQ, TAG_VALS, TAG_EDGL].contains(&s.tag))
                .map(|s| s.payload_len as u64)
                .sum::<u64>()
        };
        let budget = one + one / 2;
        let store = TraceStore::new(StoreOptions { budget_bytes: budget, use_mmap: true });
        let mut traces = Vec::new();
        for (i, p) in paths.iter().enumerate() {
            traces.push(store.open(&format!("t{i}"), "ten", p, None).unwrap());
        }
        for round in 0..2 {
            for t in &traces {
                let pin = store.ensure(t, &[LazySection::Tseq, LazySection::Vals]).unwrap();
                assert!(
                    store.resident_bytes() <= budget,
                    "round {round}: resident {} > budget {budget}",
                    store.resident_bytes()
                );
                let wet = t.wet().read().unwrap();
                let stmt = wet_ir::StmtId(0);
                let _ = query::engine::value_trace(&wet, stmt, 1).unwrap();
                drop(wet);
                drop(pin);
            }
        }
        assert!(store.evictions() > 0, "budget pressure must evict");
        assert!(store.len() == 4);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn crc_bad_lazy_section_is_typed_corrupt_on_first_touch() {
        let dir = tmpdir("crc");
        let path = saved_trace(&dir, "bad.wetz", 70);
        let mut bytes = std::fs::read(&path).unwrap();
        let spans = crate::section_spans(&bytes).unwrap();
        let vals = spans.iter().find(|s| s.tag == TAG_VALS).unwrap();
        bytes[vals.payload_start + 3] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();

        let store = TraceStore::new(StoreOptions::default());
        // Open succeeds: CONF/BIND are intact, damage is in a lazy section.
        let t = store.open("bad", "ten", &path, None).unwrap();
        let err = store.ensure(&t, &[LazySection::Vals]).unwrap_err();
        assert!(matches!(err, StoreErr::Corrupt(_)), "{err}");
        // Sticky: the second touch fails identically without re-reading.
        let err2 = store.ensure(&t, &[LazySection::Vals]).unwrap_err();
        assert!(matches!(err2, StoreErr::Corrupt(_)));
        // Undamaged sections still serve.
        let _pin = store.ensure(&t, &[LazySection::Tseq]).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn traversal_guard_rejects_escapes() {
        let root = Path::new("/srv/traces");
        assert!(resolve_under(root, "a.wetz").is_ok());
        assert!(resolve_under(root, "sub/dir/a.wetz").is_ok());
        for bad in ["../a.wetz", "a/../../b", "/etc/passwd", ""] {
            let e = resolve_under(root, bad).unwrap_err();
            assert!(matches!(e, StoreErr::Forbidden(_)), "{bad}");
        }
    }

    #[test]
    fn pread_fallback_matches_mmap() {
        let dir = tmpdir("pread");
        let path = saved_trace(&dir, "p.wetz", 50);
        let a = TraceStore::new(StoreOptions { budget_bytes: 0, use_mmap: true });
        let b = TraceStore::new(StoreOptions { budget_bytes: 0, use_mmap: false });
        let ta = a.open("p", "", &path, None).unwrap();
        let tb = b.open("p", "", &path, None).unwrap();
        let _pa = a.ensure(&ta, &LAZY_SECTIONS).unwrap();
        let _pb = b.ensure(&tb, &LAZY_SECTIONS).unwrap();
        let wa = ta.wet().read().unwrap();
        let wb = tb.wet().read().unwrap();
        assert_eq!(
            query::cf_trace_forward(&wa).unwrap(),
            query::cf_trace_forward(&wb).unwrap()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn wait_health(store: &TraceStore, id: &str, want: TraceHealth) -> bool {
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while std::time::Instant::now() < deadline {
            if store.health(id) == want {
                return true;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        false
    }

    #[test]
    fn self_heal_quarantines_repairs_and_readmits() {
        let dir = tmpdir("heal");
        let path = saved_trace(&dir, "h.wetz", 70);
        let good = std::fs::read(&path).unwrap();
        let mut bytes = good.clone();
        let spans = crate::section_spans(&bytes).unwrap();
        let vals = spans.iter().find(|s| s.tag == TAG_VALS).unwrap();
        bytes[vals.payload_start + 3] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();

        let store = TraceStore::new(StoreOptions::default());
        store.set_self_heal(true);
        let t = store.open("h", "ten", &path, None).unwrap();
        // The corrupting touch itself gets the retriable error...
        let err = store.ensure(&t, &[LazySection::Vals]).unwrap_err();
        assert!(matches!(err, StoreErr::Repairing(_)), "{err}");
        assert!(err.is_retriable());
        // ...and so does every touch during the repair window (not the
        // sticky Corrupt of the non-healing store).
        let err2 = store.ensure(&t, &[LazySection::Tseq]).unwrap_err();
        assert!(matches!(err2, StoreErr::Repairing(_)), "{err2}");
        let row = &store.list()[0];
        assert!(
            matches!(row.health, TraceHealth::Quarantined | TraceHealth::Repairing),
            "{:?}",
            row.health
        );
        assert_eq!(store.quarantines(), 1);

        // Restore the container; the background worker re-admits.
        std::fs::write(&path, &good).unwrap();
        assert!(wait_health(&store, "h", TraceHealth::Ok), "repair never completed");
        assert_eq!(store.repairs_ok(), 1);
        let t = store.get("h").unwrap();
        let _pin = store.ensure(&t, &LAZY_SECTIONS).unwrap();
        let wet = t.wet().read().unwrap();
        let repaired = query::cf_trace_forward(&wet).unwrap();
        drop(wet);

        // Byte-identical to a store that never saw the fault.
        let clean = TraceStore::new(StoreOptions::default());
        let tc = clean.open("h", "ten", &path, None).unwrap();
        let _pc = clean.ensure(&tc, &LAZY_SECTIONS).unwrap();
        let wc = tc.wet().read().unwrap();
        assert_eq!(repaired, query::cf_trace_forward(&wc).unwrap());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn self_heal_circuit_breaker_parks_failed() {
        let dir = tmpdir("breaker");
        let path = saved_trace(&dir, "f.wetz", 70);
        let mut bytes = std::fs::read(&path).unwrap();
        let spans = crate::section_spans(&bytes).unwrap();
        let vals = spans.iter().find(|s| s.tag == TAG_VALS).unwrap();
        bytes[vals.payload_start + 3] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();

        let store = TraceStore::new(StoreOptions::default());
        store.set_self_heal(true);
        let t = store.open("f", "ten", &path, None).unwrap();
        let err = store.ensure(&t, &[LazySection::Vals]).unwrap_err();
        assert!(matches!(err, StoreErr::Repairing(_)), "{err}");
        // Make every repair attempt fail outright: not even salvage can
        // assemble a WET from a destroyed container.
        std::fs::write(&path, b"not a wetz file at all").unwrap();
        assert!(wait_health(&store, "f", TraceHealth::Failed), "breaker never tripped");
        assert_eq!(store.repairs_failed(), 1);
        // Failed is terminal and non-retriable.
        let err = store.ensure(&t, &[LazySection::Vals]).unwrap_err();
        assert!(matches!(err, StoreErr::Corrupt(_)), "{err}");
        assert!(!err.is_retriable());
        assert_eq!(store.list()[0].health, TraceHealth::Failed);
        // Close clears the breaker; the id is reusable.
        store.close("f").unwrap();
        assert_eq!(store.health("f"), TraceHealth::Ok);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn self_heal_persistent_corruption_installs_degraded_trace() {
        let dir = tmpdir("degraded");
        let path = saved_trace(&dir, "d.wetz", 70);
        let mut bytes = std::fs::read(&path).unwrap();
        let spans = crate::section_spans(&bytes).unwrap();
        let vals = spans.iter().find(|s| s.tag == TAG_VALS).unwrap();
        bytes[vals.payload_start + 3] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();

        let store = TraceStore::new(StoreOptions::default());
        store.set_self_heal(true);
        let t = store.open("d", "ten", &path, None).unwrap();
        let err = store.ensure(&t, &[LazySection::Vals]).unwrap_err();
        assert!(matches!(err, StoreErr::Repairing(_)), "{err}");
        // The corruption never clears; the final attempt installs the
        // salvaged WET (damaged section as Unavailable) so the trace
        // serves degraded instead of refusing forever.
        assert!(wait_health(&store, "d", TraceHealth::Ok), "degraded install never happened");
        assert_eq!(store.repairs_ok(), 1);
        let fresh = store.get("d").unwrap();
        assert!(!Arc::ptr_eq(&fresh, &t), "expected a replacement trace");
        // The degraded replacement is eagerly resident; ensure is a
        // no-op success and TSEQ-only queries still answer.
        let _pin = store.ensure(&fresh, &LAZY_SECTIONS).unwrap();
        let wet = fresh.wet().read().unwrap();
        assert!(query::cf_trace_forward(&wet).is_ok());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
