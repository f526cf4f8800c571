//! `wet drill --chaos` — a seeded, in-process chaos schedule over the
//! whole durability surface: every [`FaultKind`] is injected into a
//! live capture, a corrupted container is pushed through the store's
//! quarantine → repair → re-admit cycle, and the access log rides
//! through a torn rotation rename.
//!
//! The drill asserts the robustness contract end to end:
//!
//! 1. every injected fault surfaces as a *typed* error (the process
//!    never panics and never wedges),
//! 2. a faulted capture resumes and seals **byte-identical** to a
//!    fault-free run,
//! 3. a corrupt trace is quarantined, repaired in the background, and
//!    re-admitted, after which queries return the same answer a store
//!    that never saw the fault returns,
//! 4. the injected-fault and self-heal counters account for everything
//!    that happened.
//!
//! Everything is derived from `--seed`, so a failing schedule replays
//! exactly.

use crate::cli::{fail, Flags, EXIT_DIVERGENCE, EXIT_UNAVAILABLE};
use std::error::Error;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use wet_core::capture::Capture;
use wet_core::fault::{FaultKind, FaultPlan, FaultRng, Vfs};
use wet_core::query;
use wet_core::store::TraceHealth;
use wet_core::{LazySection, StoreErr, StoreOptions, TraceStore, WetConfig, LAZY_SECTIONS};
use wet_interp::{Interp, InterpConfig};
use wet_ir::ballarus::BallLarus;
use wet_ir::Program;

type Result<T> = std::result::Result<T, Box<dyn Error>>;

macro_rules! say {
    ($($arg:tt)*) => { crate::cli::say_line(format_args!($($arg)*)) };
}

/// Statement target for the drill workload: enough to seal several
/// segments (so every op class has eligible operations) while keeping
/// the whole schedule under a second.
const TARGET_STMTS: u64 = 6_000;

/// Segment interval for drill captures: small, so a single run
/// performs many segment writes, manifest replacements and fsyncs.
const SEGMENT_INTERVAL: u64 = 512;

/// How long the store leg waits for the background repair worker.
const REPAIR_DEADLINE: std::time::Duration = std::time::Duration::from_secs(10);

/// Every fault kind the VFS can inject, in schedule order.
const ALL_KINDS: [FaultKind; 5] = [
    FaultKind::Enospc,
    FaultKind::Eio,
    FaultKind::ShortWrite,
    FaultKind::FsyncFail,
    FaultKind::TornRename,
];

/// Entry point for `wet drill --chaos`.
pub(crate) fn cmd_chaos(flags: &Flags) -> Result<()> {
    let seed = flags.seed;
    let base = tmp_base(seed);
    let _ = std::fs::remove_dir_all(&base);
    std::fs::create_dir_all(&base).map_err(|e| crate::cli::io_fail("cannot create drill dir", &e))?;

    let w = wet_workloads::build(wet_workloads::Kind::Li, TARGET_STMTS);
    let bl = BallLarus::new(&w.program);

    // Fault-free reference: capture → seal, the bytes every faulted
    // leg must reproduce after recovery.
    let baseline_dir = base.join("baseline");
    run_capture(&w.program, &bl, &w.inputs, &baseline_dir, Arc::new(Vfs::real()))
        .map_err(|e| crate::cli::io_fail("baseline capture failed", &e))?;
    let baseline = seal_bytes(&w.program, &bl, &baseline_dir)?;

    let (faults, typed) = capture_leg(&w.program, &bl, &w.inputs, &base, seed, &baseline)?;
    say!(
        "chaos: capture schedule (seed {seed}): {} kinds, {faults} faults injected, \
         {typed} typed failures, every leg resealed byte-identical",
        ALL_KINDS.len()
    );

    let (quarantines, repairs) = store_leg(&base, &baseline, seed)?;
    say!(
        "chaos: store self-heal: {quarantines} quarantined, {repairs} repaired, \
         post-repair query identical to a fault-free store"
    );

    rotation_leg(&base, seed)?;
    say!("chaos: access-log rotation rode through a torn rename");

    wet_obs::counter_add("drill.chaos_runs", "total", 1);
    let _ = std::fs::remove_dir_all(&base);
    say!("chaos drill passed");
    Ok(())
}

fn tmp_base(seed: u64) -> PathBuf {
    std::env::temp_dir().join(format!("wet-chaos-{seed}-{}", std::process::id()))
}

/// One capture attempt through `vfs`: create (or resume, if the
/// directory already holds a capture), run the interpreter, finish.
fn run_capture(
    program: &Program,
    bl: &BallLarus,
    inputs: &[i64],
    dir: &Path,
    vfs: Arc<Vfs>,
) -> io::Result<u64> {
    let mut cap = if dir.join("capture.conf").exists() {
        Capture::resume_with(program, bl, dir, vfs)?
    } else {
        let mut config = WetConfig::default();
        config.capture.segment_interval = SEGMENT_INTERVAL;
        Capture::create_with(program, bl, config, dir, vfs)?
    };
    Interp::new(program, bl, InterpConfig::default())
        .run(inputs, &mut cap)
        .map_err(|e| io::Error::other(format!("interpreter failed: {e}")))?;
    cap.finish().map(|s| s.segments)
}

fn seal_bytes(program: &Program, bl: &BallLarus, dir: &Path) -> Result<Vec<u8>> {
    let wet = wet_core::capture::seal(program, bl, dir, 1)
        .map_err(|e| crate::cli::io_fail(&format!("cannot seal {}", dir.display()), &e))?;
    let mut bytes = Vec::new();
    wet.write_to(&mut bytes)
        .map_err(|e| crate::cli::io_fail("cannot serialize sealed trace", &e))?;
    Ok(bytes)
}

/// Injects every fault kind into its own capture at a seeded op index.
/// The capture must either complete or fail typed; either way, a clean
/// retry (resume where possible, fresh start where the fault destroyed
/// the very first durable write) must seal byte-identical to the
/// fault-free baseline. Returns (faults injected, typed failures).
fn capture_leg(
    program: &Program,
    bl: &BallLarus,
    inputs: &[i64],
    base: &Path,
    seed: u64,
    baseline: &[u8],
) -> Result<(u64, u64)> {
    let mut rng = FaultRng::new(seed ^ 0xc0a5);
    let mut faults = 0u64;
    let mut typed = 0u64;
    for kind in ALL_KINDS {
        // Writes are plentiful (segments + manifests); fsyncs and
        // renames happen once per flush — keep their index low so the
        // plan actually fires.
        let at_op = match kind {
            FaultKind::Enospc | FaultKind::Eio | FaultKind::ShortWrite => 1 + rng.below(5),
            FaultKind::FsyncFail | FaultKind::TornRename => 1 + rng.below(3),
        };
        let dir = base.join(kind.name());
        let vfs = Arc::new(Vfs::with_plan(FaultPlan { at_op, kind, seed }));
        match run_capture(program, bl, inputs, &dir, vfs.clone()) {
            Ok(_) => {}
            Err(_) => {
                // Typed by construction; now recover. Resume handles
                // every torn state except a destroyed config (the
                // fault hit the first durable write) — there a fresh
                // start is the documented operator move.
                typed += 1;
                if run_capture(program, bl, inputs, &dir, Arc::new(Vfs::real())).is_err() {
                    std::fs::remove_dir_all(&dir)
                        .map_err(|e| crate::cli::io_fail("cannot reset drill capture", &e))?;
                    run_capture(program, bl, inputs, &dir, Arc::new(Vfs::real()))
                        .map_err(|e| crate::cli::io_fail("clean retry failed", &e))?;
                }
            }
        }
        faults += vfs.faults_injected();
        let sealed = seal_bytes(program, bl, &dir)?;
        if sealed != baseline {
            return Err(fail(
                EXIT_DIVERGENCE,
                format!(
                    "chaos: capture recovered from {} (op {at_op}) is not byte-identical \
                     to the fault-free baseline",
                    kind.name()
                ),
            ));
        }
    }
    if faults == 0 {
        return Err(fail(
            EXIT_UNAVAILABLE,
            "chaos: no faults fired — the schedule exercised nothing",
        ));
    }
    Ok((faults, typed))
}

/// Corrupts a sealed container under a self-healing store: the first
/// touch must quarantine with a retriable error, the background worker
/// must re-admit once the bytes are good again, and the post-repair
/// query must match a store that never saw the fault. Returns
/// (quarantines, successful repairs).
fn store_leg(base: &Path, baseline: &[u8], seed: u64) -> Result<(u64, u64)> {
    let path = base.join("chaos.wetz");
    std::fs::write(&path, baseline).map_err(|e| crate::cli::io_fail("cannot write store leg", &e))?;

    // The fault-free answer, from a store that only ever saw good bytes.
    let clean = TraceStore::new(StoreOptions::default());
    let tc = clean
        .open("chaos", "drill", &path, None)
        .map_err(|e| fail(EXIT_UNAVAILABLE, format!("clean open failed: {e}")))?;
    let _pc = clean
        .ensure(&tc, &LAZY_SECTIONS)
        .map_err(|e| fail(EXIT_UNAVAILABLE, format!("clean decode failed: {e}")))?;
    let expect = query::cf_trace_forward(&tc.wet().read().unwrap())
        .map_err(|e| fail(EXIT_UNAVAILABLE, format!("clean query failed: {e}")))?;

    // Flip one payload byte in a lazily-decoded section, seeded.
    let mut bytes = baseline.to_vec();
    let spans = wet_core::section_spans(&bytes)
        .map_err(|e| crate::cli::io_fail("cannot scan baseline sections", &e))?;
    let vals = spans
        .iter()
        .find(|s| s.tag == wet_core::serial::TAG_VALS && s.payload_len > 8)
        .ok_or_else(|| fail(EXIT_UNAVAILABLE, "baseline has no VALS section to corrupt"))?;
    let mut rng = FaultRng::new(seed ^ 0x5707e);
    let off = vals.payload_start + 1 + rng.below(vals.payload_len as u64 - 1) as usize;
    bytes[off] ^= 1 << rng.below(8);
    std::fs::write(&path, &bytes).map_err(|e| crate::cli::io_fail("cannot corrupt store leg", &e))?;

    let store = TraceStore::new(StoreOptions::default());
    store.set_self_heal(true);
    let t = store
        .open("chaos", "drill", &path, None)
        .map_err(|e| fail(EXIT_UNAVAILABLE, format!("open of corrupt container failed typed but unexpectedly: {e}")))?;
    match store.ensure(&t, &[LazySection::Vals]) {
        Err(StoreErr::Repairing(_)) => {}
        Err(e) => {
            return Err(fail(
                EXIT_UNAVAILABLE,
                format!("chaos: corrupting touch got `{e}`, expected a retriable repairing error"),
            ))
        }
        Ok(_) => {
            return Err(fail(
                EXIT_UNAVAILABLE,
                "chaos: corrupt section decoded cleanly — nothing was injected",
            ))
        }
    }

    // Heal the disk; the worker should re-admit without intervention.
    std::fs::write(&path, baseline).map_err(|e| crate::cli::io_fail("cannot restore store leg", &e))?;
    let deadline = std::time::Instant::now() + REPAIR_DEADLINE;
    while store.health("chaos") != TraceHealth::Ok {
        if std::time::Instant::now() > deadline {
            return Err(fail(
                EXIT_UNAVAILABLE,
                format!("chaos: repair never completed (health {:?})", store.health("chaos")),
            ));
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
    }

    let t = store
        .get("chaos")
        .ok_or_else(|| fail(EXIT_UNAVAILABLE, "chaos: trace vanished after repair"))?;
    let _pin = store
        .ensure(&t, &LAZY_SECTIONS)
        .map_err(|e| fail(EXIT_UNAVAILABLE, format!("post-repair decode failed: {e}")))?;
    let got = query::cf_trace_forward(&t.wet().read().unwrap())
        .map_err(|e| fail(EXIT_UNAVAILABLE, format!("post-repair query failed: {e}")))?;
    if got != expect {
        return Err(fail(
            EXIT_DIVERGENCE,
            "chaos: post-repair query differs from the fault-free answer",
        ));
    }
    if store.quarantines() == 0 || store.repairs_ok() == 0 {
        return Err(fail(
            EXIT_UNAVAILABLE,
            format!(
                "chaos: self-heal counters did not move (quarantines {}, repairs_ok {})",
                store.quarantines(),
                store.repairs_ok()
            ),
        ));
    }
    Ok((store.quarantines(), store.repairs_ok()))
}

/// A torn rename during access-log rotation: the log must recover a
/// fresh file and keep accepting lines.
fn rotation_leg(base: &Path, seed: u64) -> Result<()> {
    let path = base.join("chaos-access.log");
    let vfs = Arc::new(Vfs::with_plan(FaultPlan {
        at_op: 1,
        kind: FaultKind::TornRename,
        seed,
    }));
    let log = wet_serve::RotatingLog::open_with_vfs(&path, 128, vfs.clone())
        .map_err(|e| crate::cli::io_fail("cannot open drill access log", &e))?;
    for i in 0..8 {
        log.write_line(&format!("chaos drill rotation probe line {i} {seed}"))
            .map_err(|e| crate::cli::io_fail("access log write failed after fault", &e))?;
    }
    if vfs.faults_injected() == 0 {
        return Err(fail(EXIT_UNAVAILABLE, "chaos: rotation fault never fired"));
    }
    if !path.exists() {
        return Err(fail(
            EXIT_UNAVAILABLE,
            "chaos: access log did not recover a live file after the torn rename",
        ));
    }
    Ok(())
}
