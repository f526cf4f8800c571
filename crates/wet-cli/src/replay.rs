//! `wet record` / `wet replay` — the deterministic record/replay
//! engine.
//!
//! `record` executes a program (or one of the nondeterministic
//! workloads) with a scripted external world, capturing the run through
//! the crash-safe segment log. The recording directory is
//! self-contained:
//!
//! ```text
//! DIR/
//!   program.wet   pretty-printed program (reparsed on replay/resume)
//!   inputs        regular `in` inputs, comma-separated
//!   script        the scripted world (wet-script/1): env, args,
//!                 input stream, synthetic clock
//!   capture/      crash-safe `.wetz.seg` segment log (holds the NDET
//!                 record stream — the replay contract)
//!   trace.wetz    sealed tier-2 container (written on completion)
//!   stdout        observable output: one `out` line per value + `ret`
//!   meta          wet-record/1 metadata
//! ```
//!
//! `replay` re-executes the program feeding the *recorded* NDET stream
//! back (never the script), then diffs the rebuilt trace bytes and the
//! observable output against the recording. Any mismatch is a typed
//! [`EXIT_DIVERGENCE`](crate::cli::EXIT_DIVERGENCE) error carrying the
//! first divergent timestamp — never a panic. `replay --check` runs a
//! whole golden corpus at engine thread counts {1, 2, 4, 8}.

use crate::cli::{
    crash_plan_from_env, fail, io_fail, load, Flags, EXIT_CORRUPT, EXIT_DIVERGENCE, EXIT_IO,
    EXIT_USAGE,
};
use std::error::Error;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use wet_core::capture::Capture;
use wet_core::{query, NdetRec, WetBuilder, WetConfig};
use wet_interp::{
    Interp, InterpConfig, InterpError, NdetKind, NdetSource, PrefixSource, ReplaySource,
    RunResult, ScriptedSource, TraceSink,
};
use wet_ir::ballarus::BallLarus;
use wet_ir::{parse::parse_program, pretty};
use wet_workloads::ndet::{NdetWorkload, ScriptSpec};

type Result<T> = std::result::Result<T, Box<dyn Error>>;

macro_rules! say {
    ($($arg:tt)*) => { crate::cli::say_line(format_args!($($arg)*)) };
}

/// Engine thread counts `replay --check` sweeps: the recorded bytes
/// must come back identical under every one.
const CHECK_THREADS: [usize; 4] = [1, 2, 4, 8];

/// SIGINT latch, set asynchronously by the signal handler.
static INT: AtomicBool = AtomicBool::new(false);

/// Installs a SIGINT handler that latches instead of killing the
/// process, so an interrupted record/capture seals a clean manifest
/// checkpoint and exits 0 (same raw `signal(2)` pattern as the serve
/// daemon's SIGTERM drain).
#[cfg(unix)]
fn install_sigint() {
    extern "C" fn on_int(_sig: std::os::raw::c_int) {
        INT.store(true, Ordering::SeqCst);
    }
    extern "C" {
        fn signal(signum: std::os::raw::c_int, handler: usize) -> usize;
    }
    const SIGINT: std::os::raw::c_int = 2;
    unsafe {
        signal(SIGINT, on_int as extern "C" fn(std::os::raw::c_int) as usize);
    }
}

#[cfg(not(unix))]
fn install_sigint() {}

/// A sink that only answers [`TraceSink::should_stop`] from the SIGINT
/// latch. Paired with a capture via the tuple impl; `u64::MAX` here
/// keeps the tuple's fast-forward horizon at the capture's own value.
pub(crate) struct SigintLatch;

impl TraceSink for SigintLatch {
    fn should_stop(&self) -> bool {
        INT.load(Ordering::SeqCst)
    }
    fn fast_forward_until(&self) -> u64 {
        u64::MAX
    }
}

/// Clears any stale latch and installs the handler: called once at the
/// start of every interruptible command (record and capture share the
/// latch within one process).
pub(crate) fn arm_sigint() {
    INT.store(false, Ordering::SeqCst);
    install_sigint();
}

// ---------------------------------------------------------------------
// The scripted world (wet-script/1)
// ---------------------------------------------------------------------

fn spec_to_string(s: &ScriptSpec) -> String {
    let mut out = String::from("wet-script/1\n");
    for (k, v) in &s.env {
        out.push_str(&format!("env {k} {v}\n"));
    }
    for v in &s.args {
        out.push_str(&format!("arg {v}\n"));
    }
    for v in &s.inputs {
        out.push_str(&format!("input {v}\n"));
    }
    out.push_str(&format!("clock {} {}\n", s.clock0, s.clock_step));
    out
}

fn spec_from_str(text: &str) -> Result<ScriptSpec> {
    let bad = |why: &str| fail(EXIT_CORRUPT, format!("malformed script file: {why}"));
    let mut lines = text.lines();
    if lines.next() != Some("wet-script/1") {
        return Err(bad("missing wet-script/1 header"));
    }
    let mut s = ScriptSpec { env: Vec::new(), args: Vec::new(), inputs: Vec::new(), clock0: 0, clock_step: 1 };
    for line in lines {
        let mut w = line.split_whitespace();
        let Some(key) = w.next() else { continue };
        let mut num = |what: &str| -> Result<i64> {
            w.next()
                .and_then(|t| t.parse::<i64>().ok())
                .ok_or_else(|| bad(&format!("`{key}` needs a numeric {what}")))
        };
        match key {
            "env" => {
                let k = num("key")?;
                let v = num("value")?;
                s.env.push((k, v));
            }
            "arg" => s.args.push(num("value")?),
            "input" => s.inputs.push(num("value")?),
            "clock" => {
                s.clock0 = num("start")?;
                s.clock_step = num("step")?;
            }
            other => return Err(bad(&format!("unknown directive `{other}`"))),
        }
    }
    Ok(s)
}

fn source_of(spec: &ScriptSpec) -> ScriptedSource {
    ScriptedSource::new(
        spec.env.iter().copied().collect(),
        spec.args.clone(),
        spec.inputs.clone(),
        spec.clock0,
        spec.clock_step,
    )
}

/// The observable output of a run, rendered to the exact text `replay`
/// diffs against the recorded `stdout` file.
fn render_run(run: &RunResult) -> String {
    let mut s = String::new();
    for v in &run.outputs {
        s.push_str(&format!("out {v}\n"));
    }
    match run.ret {
        Some(v) => s.push_str(&format!("ret {v}\n")),
        None => s.push_str("ret none\n"),
    }
    s
}

fn read_file(dir: &Path, name: &str) -> Result<String> {
    std::fs::read_to_string(dir.join(name))
        .map_err(|e| fail(EXIT_IO, format!("cannot read {}/{name}: {e}", dir.display())))
}

fn parse_inputs_csv(raw: &str) -> Result<Vec<i64>> {
    raw.split(',')
        .filter(|s| !s.trim().is_empty())
        .map(|s| s.trim().parse::<i64>())
        .collect::<std::result::Result<Vec<_>, _>>()
        .map_err(|e| fail(EXIT_CORRUPT, format!("stored inputs malformed: {e}")))
}

// ---------------------------------------------------------------------
// wet record
// ---------------------------------------------------------------------

/// `wet record <file.wet|ndet-workload> --dir DIR`: capture one run —
/// inputs, NDET stream, trace, and observable output — into a
/// self-contained, replayable directory. An interrupted or crashed
/// record is resumed by re-running the same command.
pub(crate) fn cmd_record(target: &str, dir: &Path, flags: &Flags) -> Result<()> {
    if dir.join("trace.wetz").exists() {
        return Err(fail(
            EXIT_USAGE,
            format!("{} already holds a finished recording", dir.display()),
        ));
    }
    let resuming = dir.join("capture").join("capture.conf").exists();
    let (text, spec, inputs) = if resuming {
        // Self-contained resume: program, script, and inputs all come
        // from the directory, so the continuation is the same run.
        let text = read_file(dir, "program.wet")?;
        let spec = spec_from_str(&read_file(dir, "script")?)?;
        let inputs = parse_inputs_csv(&read_file(dir, "inputs")?)?;
        (text, spec, inputs)
    } else {
        let (program, spec, inputs, kind) = match NdetWorkload::from_name(target) {
            Some(w) => (w.program(), w.script(flags.seed), Vec::new(), w.name()),
            None => {
                // A plain .wet file records with an empty scripted
                // world seeded only with a clock; regular inputs come
                // from --inputs as usual.
                let spec = ScriptSpec {
                    env: Vec::new(),
                    args: Vec::new(),
                    inputs: Vec::new(),
                    clock0: flags.seed as i64,
                    clock_step: 1,
                };
                (load(target)?, spec, flags.inputs.clone(), "program")
            }
        };
        // Pretty-print and reparse so record, resume, and replay all
        // trace the identical program text.
        let text = pretty::program_to_string(&program);
        std::fs::create_dir_all(dir)
            .map_err(|e| fail(EXIT_IO, format!("cannot create {}: {e}", dir.display())))?;
        let csv: Vec<String> = inputs.iter().map(|v| v.to_string()).collect();
        std::fs::write(dir.join("program.wet"), &text)
            .and_then(|()| std::fs::write(dir.join("inputs"), csv.join(",")))
            .and_then(|()| std::fs::write(dir.join("script"), spec_to_string(&spec)))
            .and_then(|()| {
                std::fs::write(
                    dir.join("meta"),
                    format!("wet-record/1\ntarget {kind}\nname {target}\nseed {}\n", flags.seed),
                )
            })
            .map_err(|e| fail(EXIT_IO, format!("cannot populate {}: {e}", dir.display())))?;
        (text, spec, inputs)
    };
    let program = parse_program(&text)?;
    let bl = BallLarus::new(&program);
    let cap_dir = dir.join("capture");
    let mut cap = if resuming {
        Capture::resume(&program, &bl, &cap_dir)
            .map_err(|e| io_fail(&format!("cannot resume {}", cap_dir.display()), &e))?
    } else {
        let mut config = WetConfig::default();
        config.capture.segment_interval = flags.interval;
        Capture::create(&program, &bl, config, &cap_dir)
            .map_err(|e| io_fail(&format!("cannot create capture in {}", cap_dir.display()), &e))?
    };
    if let Some(plan) = crash_plan_from_env()? {
        cap.set_crash_plan(plan);
    }
    // The live world for the tail. On resume, the durable prefix is fed
    // back verbatim (PrefixSource) while the script is fast-forwarded
    // past what the prefix already consumed — and cross-checked against
    // it, so a tampered script file is a typed corrupt error instead of
    // a silently forked recording.
    let mut live = source_of(&spec);
    let prefix: Vec<(NdetKind, i64)> =
        cap.recovered_ndet().iter().map(|r| (r.kind, r.value)).collect();
    for (i, r) in cap.recovered_ndet().iter().enumerate() {
        if matches!(r.kind, NdetKind::Clock | NdetKind::Input) {
            let v = live.read(r.kind, 0);
            if v != Some(r.value) {
                return Err(fail(
                    EXIT_CORRUPT,
                    format!(
                        "script does not match the recorded prefix at ndet record {i}: \
                         recorded {} {}, script yields {v:?}",
                        r.kind.name(),
                        r.value
                    ),
                ));
            }
        }
    }
    let mut source = PrefixSource::new(prefix, &mut live);
    if resuming && cap.resume_ts() > 0 {
        say!("resuming recording: {} segments, ts {}", cap.segments(), cap.resume_ts());
    }
    arm_sigint();
    let mut sink = (SigintLatch, &mut cap);
    let run = Interp::new(&program, &bl, InterpConfig::default()).run_with(&inputs, &mut source, &mut sink);
    match run {
        Ok(run) => {
            let sum = cap.finish().map_err(|e| io_fail("record capture failed", &e))?;
            let mut wet = wet_core::capture::seal(&program, &bl, &cap_dir, flags.threads)
                .map_err(|e| io_fail("cannot seal recording", &e))?;
            wet.compress();
            let out = dir.join("trace.wetz");
            let mut w = std::io::BufWriter::new(std::fs::File::create(&out).map_err(|e| {
                fail(EXIT_IO, format!("cannot create {}: {e}", out.display()))
            })?);
            wet.write_to(&mut w)
                .map_err(|e| fail(EXIT_IO, format!("cannot write {}: {e}", out.display())))?;
            std::fs::write(dir.join("stdout"), render_run(&run))
                .map_err(|e| fail(EXIT_IO, format!("cannot write stdout file: {e}")))?;
            let ndet_count = wet.ndet().map(<[NdetRec]>::len).unwrap_or(0);
            say!(
                "recorded {}: {} paths, {} ndet records, {} segments",
                dir.display(),
                run.paths_executed,
                ndet_count,
                sum.segments
            );
            say!("replay with: wet replay {}", dir.display());
            Ok(())
        }
        Err(InterpError::Interrupted { ts }) => {
            // SIGINT: seal what we have as a clean manifest checkpoint
            // and report success — rerunning the command resumes.
            let _ = cap.suspend().map_err(|e| io_fail("checkpoint failed", &e))?;
            say!("interrupted: checkpoint at ts {ts}; rerun the same command to resume");
            Ok(())
        }
        Err(e) => Err(e.into()),
    }
}

// ---------------------------------------------------------------------
// wet replay
// ---------------------------------------------------------------------

/// A replay that did not reproduce the recording. `ts` is the first
/// divergent timestamp where one is attributable.
struct Divergence {
    what: String,
    ts: Option<u64>,
}

impl Divergence {
    fn at(ts: u64, what: impl Into<String>) -> Divergence {
        Divergence { what: what.into(), ts: Some(ts) }
    }
    fn somewhere(what: impl Into<String>) -> Divergence {
        Divergence { what: what.into(), ts: None }
    }
    fn into_error(self, dir: &Path) -> Box<dyn Error> {
        let at = match self.ts {
            Some(ts) => format!(" at ts {ts}"),
            None => String::new(),
        };
        fail(EXIT_DIVERGENCE, format!("replay of {} diverged{at}: {}", dir.display(), self.what))
    }
}

/// `wet replay <DIR>`: re-execute the recording, feeding the recorded
/// NDET stream back, and byte-diff the rebuilt trace and the observable
/// output. `--flip-ndet I` xors recorded value `I` before replaying — a
/// divergence-injection drill that must produce a typed exit-6 error.
pub(crate) fn cmd_replay(dir: &Path, flags: &Flags) -> Result<()> {
    if flags.check {
        return cmd_replay_check(dir, flags);
    }
    let threads = flags.threads.max(1);
    match replay_one(dir, threads, flags.flip_ndet)? {
        Ok(summary) => {
            say!("{summary}");
            Ok(())
        }
        Err(d) => Err(d.into_error(dir)),
    }
}

/// Replays one recording at one engine thread count. The outer `Err` is
/// an environment failure (unreadable/corrupt recording — exit 3/4);
/// the inner `Err` is a divergence verdict (exit 6).
fn replay_one(
    dir: &Path,
    threads: usize,
    flip: Option<usize>,
) -> Result<std::result::Result<String, Divergence>> {
    let program = parse_program(&read_file(dir, "program.wet")?)?;
    let inputs = parse_inputs_csv(&read_file(dir, "inputs")?)?;
    let trace_path = dir.join("trace.wetz");
    let recorded_bytes = std::fs::read(&trace_path)
        .map_err(|e| fail(EXIT_IO, format!("cannot read {}: {e}", trace_path.display())))?;
    // Strict read: a mutated or truncated recording (including an NDET
    // record with an unknown kind byte) is a typed corrupt error here,
    // before any re-execution.
    let mut recorded = wet_core::Wet::read_from(&mut recorded_bytes.as_slice())
        .map_err(|e| io_fail(&format!("cannot read {}", trace_path.display()), &e))?;
    let expected_out = read_file(dir, "stdout")?;
    let Some(ndet) = recorded.ndet().map(<[NdetRec]>::to_vec) else {
        return Err(fail(
            EXIT_CORRUPT,
            format!("{}: recording lost its NDET stream; replay is impossible", trace_path.display()),
        ));
    };
    let mut recs: Vec<(NdetKind, i64)> = ndet.iter().map(|r| (r.kind, r.value)).collect();
    if let Some(i) = flip {
        let Some(r) = recs.get_mut(i) else {
            return Err(fail(
                EXIT_USAGE,
                format!("--flip-ndet {i} out of range (recording has {} records)", recs.len()),
            ));
        };
        r.1 ^= 1;
    }

    let bl = BallLarus::new(&program);
    let mut config = WetConfig::default();
    config.stream.num_threads = threads;
    let mut builder = WetBuilder::new(&program, &bl, config);
    let mut source = ReplaySource::new(recs);
    let run = Interp::new(&program, &bl, InterpConfig::default()).run_with(
        &inputs,
        &mut source,
        &mut builder,
    );
    let divergent_rec_ts = |at: usize| ndet.get(at).or(ndet.last()).map_or(0, |r| r.ts);
    let run = match run {
        Ok(run) => run,
        Err(e) => {
            // The recorded run completed; a replay that faults has
            // diverged. A latched source mismatch names the first
            // offending record, anything else the faulting operation.
            let d = match source.mismatch {
                Some(m) => {
                    let at = match m {
                        wet_interp::ReplayMismatch::Exhausted { at, .. }
                        | wet_interp::ReplayMismatch::Kind { at, .. } => at,
                    };
                    Divergence::at(divergent_rec_ts(at), format!("{m}"))
                }
                None => Divergence::somewhere(format!("replay faulted: {e}")),
            };
            return Ok(Err(d));
        }
    };
    if source.remaining() > 0 {
        let at = source.consumed();
        return Ok(Err(Divergence::at(
            divergent_rec_ts(at),
            format!("replay consumed {} of {} recorded ndet values", at, ndet.len()),
        )));
    }

    // Trace diff first (it owns timestamps), then the observable output.
    let mut replayed = builder.finish();
    replayed.compress();
    let mut replayed_bytes = Vec::new();
    replayed
        .write_to(&mut replayed_bytes)
        .map_err(|e| fail(EXIT_IO, format!("cannot serialize replayed trace: {e}")))?;
    if replayed_bytes != recorded_bytes {
        return Ok(Err(first_trace_divergence(&mut recorded, &mut replayed, &recorded_bytes, &replayed_bytes)));
    }
    let got_out = render_run(&run);
    if got_out != expected_out {
        let line = expected_out
            .lines()
            .zip(got_out.lines())
            .position(|(a, b)| a != b)
            .map_or_else(
                || expected_out.lines().count().min(got_out.lines().count()) + 1,
                |i| i + 1,
            );
        return Ok(Err(Divergence::somewhere(format!(
            "observable output differs from the recorded stdout at line {line}"
        ))));
    }
    Ok(Ok(format!(
        "replay ok: {} paths, {} ndet records, trace and stdout byte-identical (threads {threads})",
        run.paths_executed,
        ndet.len()
    )))
}

/// Pinpoints where a rebuilt trace left the recorded one: first the
/// control-flow spines are walked for the first differing step (that
/// step's timestamp is *the* divergence point); failing that, the diff
/// is attributed to the first differing container section.
fn first_trace_divergence(
    recorded: &mut wet_core::Wet,
    replayed: &mut wet_core::Wet,
    recorded_bytes: &[u8],
    replayed_bytes: &[u8],
) -> Divergence {
    if let (Ok(a), Ok(b)) = (query::cf_trace_forward(recorded), query::cf_trace_forward(replayed)) {
        if let Some(i) = (0..a.len().min(b.len())).find(|&i| a[i].node != b[i].node) {
            return Divergence::at(
                a[i].ts,
                format!(
                    "control flow forked: recorded node n{} vs replayed n{}",
                    a[i].node.0, b[i].node.0
                ),
            );
        }
        if a.len() != b.len() {
            let i = a.len().min(b.len());
            let ts = a.get(i).or(b.get(i)).map_or(0, |s| s.ts);
            return Divergence::at(
                ts,
                format!("trace lengths differ: {} recorded vs {} replayed paths", a.len(), b.len()),
            );
        }
    }
    // Same spine, different bytes: a value or edge stream changed.
    let off = recorded_bytes
        .iter()
        .zip(replayed_bytes.iter())
        .position(|(a, b)| a != b)
        .unwrap_or_else(|| recorded_bytes.len().min(replayed_bytes.len()));
    let section = wet_core::section_spans(recorded_bytes)
        .ok()
        .and_then(|spans| {
            spans.iter().find(|s| s.start <= off && off < s.end).map(|s| {
                String::from_utf8_lossy(&s.tag).into_owned()
            })
        })
        .unwrap_or_else(|| "?".into());
    Divergence::somewhere(format!(
        "trace bytes differ at offset {off} (section {section}) with an identical control-flow spine"
    ))
}

/// `wet replay --check <GOLDEN-ROOT>`: replay-and-diff every recording
/// under the root at engine thread counts {1, 2, 4, 8}. Any divergence
/// fails the whole gate with exit 6.
fn cmd_replay_check(root: &Path, flags: &Flags) -> Result<()> {
    let mut fixtures: Vec<std::path::PathBuf> = std::fs::read_dir(root)
        .map_err(|e| fail(EXIT_IO, format!("cannot read golden root {}: {e}", root.display())))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.join("trace.wetz").exists())
        .collect();
    fixtures.sort();
    if fixtures.is_empty() {
        return Err(fail(EXIT_USAGE, format!("{} holds no recordings", root.display())));
    }
    let flip = flags.flip_ndet;
    let mut failed = None;
    for dir in &fixtures {
        let name = dir.file_name().map(|n| n.to_string_lossy().into_owned()).unwrap_or_default();
        let mut verdicts = Vec::new();
        for &t in &CHECK_THREADS {
            match replay_one(dir, t, flip)? {
                Ok(_) => verdicts.push(format!("t{t} ok")),
                Err(d) => {
                    verdicts.push(format!("t{t} DIVERGED"));
                    if failed.is_none() {
                        failed = Some(d.into_error(dir));
                    }
                }
            }
        }
        say!("  {name:<12} {}", verdicts.join("  "));
    }
    match failed {
        Some(e) => Err(e),
        None => {
            say!(
                "golden corpus clean: {} recordings x {} thread counts",
                fixtures.len(),
                CHECK_THREADS.len()
            );
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cli::{dispatch, exit_code_of, tests::CRASH_ENV_LOCK};

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    fn fresh_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("wet-cli-replay-tests").join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(dir.parent().unwrap()).unwrap();
        dir
    }

    #[test]
    fn record_replay_roundtrip_all_ndet_workloads() {
        for w in NdetWorkload::all() {
            let dir = fresh_dir(&format!("rr-{}", w.name()));
            let d = dir.to_str().unwrap().to_string();
            dispatch(&s(&["record", w.name(), "--dir", &d, "--seed", "11"])).expect("record");
            dispatch(&s(&["replay", &d])).expect("replay");
            dispatch(&s(&["replay", &d, "--threads", "4"])).expect("replay t4");
            // A second record into the same dir is refused.
            let e = dispatch(&s(&["record", w.name(), "--dir", &d])).unwrap_err();
            assert_eq!(exit_code_of(e.as_ref()), EXIT_USAGE);
        }
    }

    #[test]
    fn flipped_ndet_value_is_a_typed_divergence() {
        let dir = fresh_dir("flip");
        let d = dir.to_str().unwrap().to_string();
        dispatch(&s(&["record", "stream", "--dir", &d, "--seed", "3"])).expect("record");
        let n = {
            let mut f = std::io::BufReader::new(std::fs::File::open(dir.join("trace.wetz")).unwrap());
            wet_core::Wet::read_from(&mut f).unwrap().ndet().unwrap().len()
        };
        assert!(n > 0);
        for i in [0, n / 2, n - 1] {
            let e = dispatch(&s(&["replay", &d, "--flip-ndet", &i.to_string()])).unwrap_err();
            assert_eq!(exit_code_of(e.as_ref()), EXIT_DIVERGENCE, "record {i}: {e}");
            assert!(e.to_string().contains("diverged"), "{e}");
        }
        let e = dispatch(&s(&["replay", &d, "--flip-ndet", &n.to_string()])).unwrap_err();
        assert_eq!(exit_code_of(e.as_ref()), EXIT_USAGE, "out-of-range flip is usage");
    }

    #[test]
    fn mutated_trace_file_is_typed_corrupt_not_panic() {
        let dir = fresh_dir("corrupt");
        let d = dir.to_str().unwrap().to_string();
        dispatch(&s(&["record", "argmix", "--dir", &d, "--seed", "5"])).expect("record");
        let trace = dir.join("trace.wetz");
        let mut bytes = std::fs::read(&trace).unwrap();
        let nd = *wet_core::section_spans(&bytes)
            .unwrap()
            .iter()
            .find(|sp| &sp.tag == b"NDET")
            .unwrap();
        bytes[nd.payload_start + 10] ^= 0xff; // inside the first record
        std::fs::write(&trace, &bytes).unwrap();
        let e = dispatch(&s(&["replay", &d])).unwrap_err();
        assert_eq!(exit_code_of(e.as_ref()), EXIT_CORRUPT);
        // Truncation is also typed corrupt.
        std::fs::write(&trace, &bytes[..bytes.len() / 2]).unwrap();
        let e = dispatch(&s(&["replay", &d])).unwrap_err();
        assert_eq!(exit_code_of(e.as_ref()), EXIT_CORRUPT);
    }

    #[test]
    fn mutated_stdout_is_a_divergence() {
        let dir = fresh_dir("stdout");
        let d = dir.to_str().unwrap().to_string();
        dispatch(&s(&["record", "envgate", "--dir", &d, "--seed", "9"])).expect("record");
        let out = dir.join("stdout");
        let text = std::fs::read_to_string(&out).unwrap().replace("out ", "out 9");
        std::fs::write(&out, text).unwrap();
        let e = dispatch(&s(&["replay", &d])).unwrap_err();
        assert_eq!(exit_code_of(e.as_ref()), EXIT_DIVERGENCE);
        assert!(e.to_string().contains("stdout"), "{e}");
    }

    #[test]
    fn replay_check_sweeps_a_corpus() {
        let root = fresh_dir("corpus");
        std::fs::create_dir_all(&root).unwrap();
        for w in [NdetWorkload::EnvGate, NdetWorkload::InputStream] {
            let d = root.join(w.name());
            dispatch(&s(&["record", w.name(), "--dir", d.to_str().unwrap(), "--seed", "21"]))
                .expect("record");
        }
        let r = root.to_str().unwrap().to_string();
        dispatch(&s(&["replay", &r, "--check"])).expect("corpus is clean");
        // The whole sweep fails typed on any injected divergence.
        let e = dispatch(&s(&["replay", &r, "--check", "--flip-ndet", "0"])).unwrap_err();
        assert_eq!(exit_code_of(e.as_ref()), EXIT_DIVERGENCE);
        // The checked-in corpus still reproduces at every thread count.
        let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../golden");
        dispatch(&s(&["replay", golden.to_str().unwrap(), "--check"])).expect("golden corpus is clean");
        let empty = fresh_dir("empty-corpus");
        std::fs::create_dir_all(&empty).unwrap();
        let e = dispatch(&s(&["replay", empty.to_str().unwrap(), "--check"])).unwrap_err();
        assert_eq!(exit_code_of(e.as_ref()), EXIT_USAGE);
    }

    #[test]
    fn torn_record_resumes_then_replays_clean() {
        let _g = CRASH_ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        // Reference recording, no crash.
        let refd = fresh_dir("torn-ref");
        let refd_s = refd.to_str().unwrap().to_string();
        dispatch(&s(&["record", "stream", "--dir", &refd_s, "--seed", "13", "--interval", "16"]))
            .expect("reference record");
        // Crash mid-record with a torn tail, then resume.
        let dir = fresh_dir("torn");
        let d = dir.to_str().unwrap().to_string();
        std::env::set_var("WET_CRASH_AT", "2");
        std::env::set_var("WET_CRASH_MODE", "torn:7");
        let e = dispatch(&s(&["record", "stream", "--dir", &d, "--seed", "13", "--interval", "16"]))
            .unwrap_err();
        std::env::remove_var("WET_CRASH_AT");
        std::env::remove_var("WET_CRASH_MODE");
        assert_eq!(exit_code_of(e.as_ref()), EXIT_IO, "simulated crash is an I/O failure");
        assert!(dispatch(&s(&["replay", &d])).is_err(), "an unfinished recording cannot replay");
        dispatch(&s(&["record", "stream", "--dir", &d, "--seed", "13", "--interval", "16"]))
            .expect("resume");
        dispatch(&s(&["replay", &d, "--threads", "2"])).expect("resumed recording replays");
        assert_eq!(
            std::fs::read(dir.join("trace.wetz")).unwrap(),
            std::fs::read(refd.join("trace.wetz")).unwrap(),
            "resumed recording seals byte-identical to the uninterrupted one"
        );
        // A tampered script must not silently fork the recording.
        let dir2 = fresh_dir("torn-tamper");
        let d2 = dir2.to_str().unwrap().to_string();
        std::env::set_var("WET_CRASH_AT", "2");
        std::env::set_var("WET_CRASH_MODE", "kill");
        let _ = dispatch(&s(&["record", "stream", "--dir", &d2, "--seed", "13", "--interval", "16"]))
            .unwrap_err();
        std::env::remove_var("WET_CRASH_AT");
        std::env::remove_var("WET_CRASH_MODE");
        let script = dir2.join("script");
        let text = std::fs::read_to_string(&script).unwrap().replace("clock ", "clock 9");
        std::fs::write(&script, text).unwrap();
        let e = dispatch(&s(&["record", "stream", "--dir", &d2, "--seed", "13", "--interval", "16"]))
            .unwrap_err();
        assert_eq!(exit_code_of(e.as_ref()), EXIT_CORRUPT, "tampered script fails closed: {e}");
    }

    #[test]
    fn record_works_for_plain_programs_too() {
        let dir = fresh_dir("plainprog");
        let src = dir.with_extension("wet");
        std::fs::write(
            &src,
            "func f0 main(params: 0, regs: 3) {\n  b0:\n    r0 = in\n    r1 = readclock\n    r2 = add r0, r1\n    out r2\n    ret r2\n}\n",
        )
        .unwrap();
        let d = dir.to_str().unwrap().to_string();
        dispatch(&s(&["record", src.to_str().unwrap(), "--dir", &d, "--inputs", "5", "--seed", "100"]))
            .expect("record .wet file");
        dispatch(&s(&["replay", &d])).expect("replay .wet file");
        let e = dispatch(&s(&["replay", &d, "--flip-ndet", "0"])).unwrap_err();
        assert_eq!(exit_code_of(e.as_ref()), EXIT_DIVERGENCE);
    }
}
