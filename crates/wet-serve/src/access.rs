//! Structured per-request logs: the access log (one JSON line per
//! completed request) and the slow-query log (one JSON line per
//! request that exceeded `--slow-ms`, carrying its full span tree).
//!
//! Both are backed by [`RotatingLog`]: an append-only file with
//! size-based rotation (current file renamed to `<path>.1`, new file
//! started). Lines are written with a single unbuffered `write_all`
//! under a mutex, so a line is fully on disk (or at least handed to
//! the kernel) before the response goes back on the wire — the drill
//! harness asserts the ledger "every completed request appears exactly
//! once" against a live daemon, which a write-behind buffer would
//! break.

use crate::json::{self, Value};
use std::fs::{File, OpenOptions};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{SystemTime, UNIX_EPOCH};
use wet_core::fault::{Io, Vfs};

/// Default rotation threshold: 64 MiB per file, two files on disk.
pub const DEFAULT_LOG_MAX_BYTES: u64 = 64 * 1024 * 1024;

struct Inner {
    file: File,
    written: u64,
}

/// An append-only JSON-lines file that rotates once to `<path>.1` when
/// it exceeds `max_bytes`.
pub struct RotatingLog {
    path: PathBuf,
    max_bytes: u64,
    vfs: Arc<Vfs>,
    inner: Mutex<Inner>,
}

impl RotatingLog {
    /// Opens (creating or appending to) the log at `path`, honoring a
    /// `WET_FAULT_*` plan if one is set.
    pub fn open(path: &Path, max_bytes: u64) -> io::Result<RotatingLog> {
        Self::open_with_vfs(path, max_bytes, Arc::new(Vfs::from_env()))
    }

    /// Opens the log with an explicit I/O layer (fault drills).
    pub fn open_with_vfs(path: &Path, max_bytes: u64, vfs: Arc<Vfs>) -> io::Result<RotatingLog> {
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        let written = file.metadata()?.len();
        Ok(RotatingLog {
            path: path.to_path_buf(),
            max_bytes: max_bytes.max(1),
            vfs,
            inner: Mutex::new(Inner { file, written }),
        })
    }

    /// Appends one line (a newline is added). Rotates first if the
    /// file is already past the threshold.
    pub fn write_line(&self, line: &str) -> io::Result<()> {
        let mut g = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        if g.written >= self.max_bytes {
            // Rename current → .1 (clobbering any previous .1) and
            // start fresh. On rename failure keep writing to the old
            // file rather than losing lines. The outgoing file is
            // fsynced before the rename and the parent directory after
            // it: without the directory sync the rename itself is not
            // durable, and a crash could surface an empty (or stale)
            // `.1` next to a truncated current file — the audited
            // "exactly once" ledger would lose lines it already
            // acknowledged.
            let mut rotated = self.path.clone().into_os_string();
            rotated.push(".1");
            let rotated = PathBuf::from(rotated);
            self.vfs.fsync(&g.file)?;
            if self.vfs.rename(&self.path, &rotated).is_ok() {
                g.file = OpenOptions::new().create(true).append(true).open(&self.path)?;
                g.written = 0;
                if let Some(parent) = self.path.parent() {
                    if let Ok(d) = File::open(parent) {
                        let _ = d.sync_all();
                    }
                }
            } else if !self.path.exists() {
                // A torn rename can unlink the source while failing:
                // the old handle still works but points at an orphaned
                // inode. Reopen at the path so every later line is
                // durable across a restart — degraded (the rotation is
                // incomplete) but never wedged or panicking.
                g.file = OpenOptions::new().create(true).append(true).open(&self.path)?;
                g.written = 0;
            }
        }
        let mut buf = Vec::with_capacity(line.len() + 1);
        buf.extend_from_slice(line.as_bytes());
        buf.push(b'\n');
        self.vfs.write(&mut g.file, &buf)?;
        g.written += buf.len() as u64;
        Ok(())
    }
}

/// Everything the access log records about one completed request.
/// Collected incrementally as the request moves through the server;
/// rendered once at completion.
#[derive(Debug, Default, Clone)]
pub struct AccessRecord {
    /// Request id from the wire (0 when the frame never parsed).
    pub id: u64,
    /// Op name ("?" when the frame never parsed far enough).
    pub op: String,
    pub tenant: String,
    pub trace: String,
    /// Outcome kind: "ok" or the typed error kind.
    pub outcome: String,
    /// Microseconds spent waiting for an admission slot.
    pub queue_us: u64,
    /// Microseconds inside the query engine (0 for control-plane ops).
    pub engine_us: u64,
    /// End-to-end microseconds inside `process`.
    pub total_us: u64,
    pub bytes_in: u64,
    pub bytes_out: u64,
    /// True when every lazy section the op needed was already decoded.
    pub store_hit: bool,
    pub cache_hits: u64,
    pub cache_misses: u64,
    /// Answer quality for successful data-plane queries: "full" or
    /// "degraded" (budget-truncated or sections unavailable); empty for
    /// control-plane ops and errors. Lets the exactly-once ledger audit
    /// account degraded answers separately from full ones.
    pub quality: String,
    /// The daemon's pressure level when the request completed.
    pub pressure: String,
}

/// Milliseconds since the Unix epoch, for log timestamps.
pub fn now_ms() -> u64 {
    SystemTime::now().duration_since(UNIX_EPOCH).map(|d| d.as_millis() as u64).unwrap_or(0)
}

impl AccessRecord {
    /// The record as one `wet-access/1` JSON document.
    pub fn to_value(&self) -> Value {
        json::obj(vec![
            ("schema", Value::Str("wet-access/1".into())),
            ("ts_ms", Value::Int(now_ms() as i64)),
            ("id", Value::Int(self.id as i64)),
            ("op", Value::Str(self.op.clone())),
            ("tenant", Value::Str(self.tenant.clone())),
            ("trace", Value::Str(self.trace.clone())),
            ("outcome", Value::Str(self.outcome.clone())),
            ("queue_us", Value::Int(self.queue_us as i64)),
            ("engine_us", Value::Int(self.engine_us as i64)),
            ("total_us", Value::Int(self.total_us as i64)),
            ("bytes_in", Value::Int(self.bytes_in as i64)),
            ("bytes_out", Value::Int(self.bytes_out as i64)),
            ("store_hit", Value::Bool(self.store_hit)),
            ("cache_hits", Value::Int(self.cache_hits as i64)),
            ("cache_misses", Value::Int(self.cache_misses as i64)),
            ("quality", Value::Str(self.quality.clone())),
            ("pressure", Value::Str(self.pressure.clone())),
        ])
    }

    /// The slow-query variant: the access fields plus the request's
    /// captured spans and metric records (`events`) and how many events
    /// the capture cap discarded.
    pub fn to_slow_value(&self, events: &[wet_obs::Event], dropped: u64) -> Value {
        let evs = events
            .iter()
            .map(|e| {
                let mut fields = vec![
                    ("t_us", Value::Int(e.t_us as i64)),
                    ("name", Value::Str(e.name.to_string())),
                    ("n", Value::Int(e.n as i64)),
                ];
                if let Some(d) = e.dur_us {
                    fields.push(("dur_us", Value::Int(d as i64)));
                }
                json::obj(fields)
            })
            .collect();
        let Value::Obj(mut pairs) = self.to_value() else { unreachable!() };
        pairs[0].1 = Value::Str("wet-slow/1".into());
        pairs.push(("events".into(), Value::Arr(evs)));
        pairs.push(("events_dropped".into(), Value::Int(dropped as i64)));
        Value::Obj(pairs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("wet-access-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn lines_append_and_rotate_once() {
        let d = tmpdir("rotate");
        let p = d.join("access.log");
        // Each line is 36 bytes; the threshold admits three before the
        // fourth write rotates — exactly one rotation in this run, so
        // no line is lost to a `.1` clobber.
        let log = RotatingLog::open(&p, 100).unwrap();
        for i in 0..4 {
            log.write_line(&format!("{{\"i\": {i}, \"pad\": \"xxxxxxxxxxxxxxxx\"}}")).unwrap();
        }
        let cur = std::fs::read_to_string(&p).unwrap();
        let old = std::fs::read_to_string(d.join("access.log.1")).unwrap();
        assert_eq!(old.lines().count(), 3, "first three lines rotated out together");
        assert_eq!(cur.lines().count(), 1, "the write that crossed the threshold starts fresh");
        for l in cur.lines().chain(old.lines()) {
            json::parse(l).unwrap();
        }
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn rotation_survives_simulated_crash_states() {
        use wet_core::fault::{truncate_random, FaultRng};
        // The rotation protocol is sync-file → rename → reopen →
        // fsync-dir. Drill the two crash states it can leave behind: a
        // kill between the rename and the reopen, and a torn un-synced
        // tail on the current file (the only bytes the protocol leaves
        // unsynced). Acknowledged-and-rotated lines must survive both.
        let d = tmpdir("crash");
        let p = d.join("access.log");
        let line = |i: usize| format!("{{\"i\": {i}, \"pad\": \"xxxxxxxxxxxxxxxx\"}}");

        // Kill right after the rename published `.1`, before the new
        // current file exists.
        let log = RotatingLog::open(&p, 100).unwrap();
        for i in 0..3 {
            log.write_line(&line(i)).unwrap();
        }
        drop(log);
        let mut rotated = p.clone().into_os_string();
        rotated.push(".1");
        std::fs::rename(&p, &rotated).unwrap();
        let log = RotatingLog::open(&p, 100).unwrap();
        log.write_line(&line(3)).unwrap();
        let old = std::fs::read_to_string(&rotated).unwrap();
        let cur = std::fs::read_to_string(&p).unwrap();
        assert_eq!(old.lines().count(), 3, "every rotated line survived the kill");
        assert_eq!(cur.lines().count(), 1, "the reopened log starts fresh");
        for l in old.lines() {
            json::parse(l).unwrap();
        }

        // Torn tail on the current file: reopen must keep appending
        // whole lines after the tear, without a panic.
        let mut rng = FaultRng::new(0xacce55);
        let bytes = std::fs::read(&p).unwrap();
        let (_, torn) = truncate_random(&bytes, &mut rng);
        std::fs::write(&p, &torn).unwrap();
        let log = RotatingLog::open(&p, 1 << 20).unwrap();
        log.write_line(&line(4)).unwrap();
        let cur = std::fs::read_to_string(&p).unwrap();
        assert!(cur.ends_with(&format!("{}\n", line(4))), "appends stay line-atomic after a tear");
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn rotation_rides_through_injected_rename_fault() {
        use wet_core::fault::{FaultKind, FaultPlan};
        let d = tmpdir("fault");
        let p = d.join("access.log");
        let line = |i: usize| format!("{{\"i\": {i}, \"pad\": \"xxxxxxxxxxxxxxxx\"}}");
        let vfs =
            Arc::new(Vfs::with_plan(FaultPlan { at_op: 1, kind: FaultKind::TornRename, seed: 11 }));
        let log = RotatingLog::open_with_vfs(&p, 100, vfs.clone()).unwrap();
        for i in 0..3 {
            log.write_line(&line(i)).unwrap();
        }
        // The fourth line crosses the threshold; the injected torn
        // rename unlinks the current file while failing. write_line
        // must recover by reopening at the path — no panic, no wedge.
        log.write_line(&line(3)).unwrap();
        assert_eq!(vfs.faults_injected(), 1);
        let cur = std::fs::read_to_string(&p).unwrap();
        assert!(cur.ends_with(&format!("{}\n", line(3))), "post-fault line landed at the path");
        // The plan is spent: later writes and rotations are normal.
        for i in 4..8 {
            log.write_line(&line(i)).unwrap();
        }
        assert!(std::fs::read_to_string(&p).unwrap().ends_with(&format!("{}\n", line(7))));
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn reopen_appends_and_counts_existing_bytes() {
        let d = tmpdir("reopen");
        let p = d.join("access.log");
        {
            let log = RotatingLog::open(&p, 1 << 20).unwrap();
            log.write_line("{\"first\": 1}").unwrap();
        }
        let log = RotatingLog::open(&p, 1 << 20).unwrap();
        log.write_line("{\"second\": 2}").unwrap();
        let body = std::fs::read_to_string(&p).unwrap();
        assert_eq!(body.lines().count(), 2);
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn access_record_renders_valid_json() {
        let rec = AccessRecord {
            id: 42,
            op: "cf_trace".into(),
            tenant: "acme".into(),
            trace: "default".into(),
            outcome: "ok".into(),
            queue_us: 10,
            engine_us: 900,
            total_us: 950,
            bytes_in: 120,
            bytes_out: 4096,
            store_hit: true,
            cache_hits: 5,
            cache_misses: 1,
            quality: "full".into(),
            pressure: "nominal".into(),
        };
        let v = json::parse(&rec.to_value().render()).unwrap();
        assert_eq!(v.get("schema").and_then(|s| s.as_str()), Some("wet-access/1"));
        assert_eq!(v.get("id").and_then(|s| s.as_u64()), Some(42));
        assert_eq!(v.get("outcome").and_then(|s| s.as_str()), Some("ok"));
        assert_eq!(v.get("store_hit").and_then(|s| s.as_bool()), Some(true));
        assert_eq!(v.get("quality").and_then(|s| s.as_str()), Some("full"));
        assert_eq!(v.get("pressure").and_then(|s| s.as_str()), Some("nominal"));
        assert!(v.get("ts_ms").and_then(|s| s.as_u64()).unwrap() > 0);
    }

    #[test]
    fn slow_record_carries_span_events() {
        let cap = wet_obs::capture();
        wet_obs::hist_record("query.rows", "cf_trace_forward", 77);
        let (events, dropped) = cap.events();
        let rec = AccessRecord { op: "cf_trace".into(), outcome: "ok".into(), ..Default::default() };
        let v = json::parse(&rec.to_slow_value(&events, dropped).render()).unwrap();
        assert_eq!(v.get("schema").and_then(|s| s.as_str()), Some("wet-slow/1"));
        let evs = v.get("events").and_then(|e| e.as_arr()).unwrap();
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].get("name").and_then(|s| s.as_str()), Some("query.rows"));
        assert_eq!(evs[0].get("n").and_then(|s| s.as_u64()), Some(77));
        assert_eq!(v.get("events_dropped").and_then(|s| s.as_u64()), Some(0));
    }
}
