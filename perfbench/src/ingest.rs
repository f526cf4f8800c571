//! `ingest`: the nine workload programs sealed one after another, each
//! through interp → tier-1 build → tier-2 compression → `.wetz` write.
//!
//! One op seals one program on one thread. The run measures whole
//! passes over the nine programs until the ops' busy time reaches
//! `--seconds` (and at least [`MIN_PASSES`]), so every run does the
//! same mix. After each op, outside its timing, the container is read
//! back and checked (see [`Checker`]); a failure counts the op as failed.

use crate::spans::Spans;
use crate::stats::{self, beyond, median, percentile, Digest};
use crate::{time_setups, write_container, Args, Report, WorkDir, SETUPS_AFTER, SETUPS_BEFORE};
use std::collections::BTreeSet;
use std::path::Path;
use std::time::{Duration, Instant};
use wet_core::{Wet, WetBuilder, WetConfig};
use wet_interp::{Interp, InterpConfig, NullSink};
use wet_ir::ballarus::BallLarus;
use wet_ir::Program;
use wet_workloads::Kind;

/// Executed-statement target per program (≈3.45 M statements a pass).
const TARGET: u64 = 300_000;
/// The seed moves each program's target by up to ±3 %.
const JITTER: u64 = 9_000;
/// Statement target of each program's set-up warm-up seal.
const WARMUP_TARGET: u64 = TARGET / 3;
/// Fewest passes a run measures: 108 ops leave at least ten samples
/// beyond the p90.
const MIN_PASSES: usize = 12;

struct Prog {
    kind: Kind,
    program: Program,
    bl: BallLarus,
    inputs: Vec<i64>,
}

/// What one op produced.
#[derive(Clone, Copy)]
struct Sealed {
    stmts: u64,
    nodes: usize,
    bytes: u64,
    t1_bytes: u64,
    t2_bytes: u64,
}

/// Per-layer seconds of one traced op.
#[derive(Default, Clone, Copy)]
struct Layers {
    interp: f64,
    events: f64,
    finish: f64,
    tier2: f64,
    write: f64,
}

impl Layers {
    fn add(&mut self, o: &Layers) {
        self.interp += o.interp;
        self.events += o.events;
        self.finish += o.finish;
        self.tier2 += o.tier2;
        self.write += o.write;
    }
}

/// The nine programs in `Kind::all()` order, the fixed rotation; the
/// seed picks each program's statement target.
fn programs(seed: u64) -> Vec<Prog> {
    Kind::all()
        .into_iter()
        .map(|kind| {
            let jitter = stats::mix(seed ^ ((kind as u64 + 1) << 32)) % (2 * JITTER + 1);
            let program = kind.program();
            let bl = BallLarus::new(&program);
            let inputs = kind.inputs_for(TARGET - JITTER + jitter);
            Prog {
                kind,
                program,
                bl,
                inputs,
            }
        })
        .collect()
}

fn run_err(p: &Prog, e: impl std::fmt::Display) -> String {
    format!("{}: {e}", p.kind.name())
}

/// Seals `p` run on `inputs` into `path`: the untraced op.
fn seal(p: &Prog, inputs: &[i64], path: &Path) -> Result<Sealed, String> {
    let mut builder = WetBuilder::new(&p.program, &p.bl, WetConfig::default());
    let run = Interp::new(&p.program, &p.bl, InterpConfig::default())
        .run(inputs, &mut builder)
        .map_err(|e| run_err(p, e))?;
    let mut wet = builder.finish();
    wet.compress();
    let bytes = write_container(&wet, path).map_err(|e| run_err(p, e))?;
    Ok(sealed(&wet, run.stmts_executed, bytes))
}

/// [`seal`] with a span around each layer call. The interpreter is
/// first run alone into a `NullSink`, outside the op, so the build's
/// own share of event handling can be split from interpretation.
fn seal_traced(p: &Prog, path: &Path, spans: &mut Spans) -> Result<(Sealed, Layers, f64), String> {
    let req = spans.new_req();
    let interp = Interp::new(&p.program, &p.bl, InterpConfig::default());
    let (null, t_interp) = spans.time("interp.run", req, None, || {
        interp.run(&p.inputs, &mut NullSink)
    });
    null.map_err(|e| run_err(p, e))?;
    let op = spans.open("ingest.seal", req, None);
    let mut builder = WetBuilder::new(&p.program, &p.bl, WetConfig::default());
    let (run, t_run) = spans.time("build.events", req, Some(op), || {
        Interp::new(&p.program, &p.bl, InterpConfig::default()).run(&p.inputs, &mut builder)
    });
    let run = run.map_err(|e| run_err(p, e))?;
    let (mut wet, t_finish) = spans.time("build.finish", req, Some(op), || builder.finish());
    let ((), t_tier2) = spans.time("compress.tier2", req, Some(op), || wet.compress());
    let (bytes, t_write) = spans.time("serial.write", req, Some(op), || {
        write_container(&wet, path)
    });
    let bytes = bytes.map_err(|e| run_err(p, e))?;
    let t_op = spans.close(op);
    let layers = Layers {
        interp: t_interp,
        events: (t_run - t_interp).max(0.0),
        finish: t_finish,
        tier2: t_tier2,
        write: t_write,
    };
    Ok((sealed(&wet, run.stmts_executed, bytes), layers, t_op))
}

fn sealed(wet: &Wet, stmts: u64, bytes: u64) -> Sealed {
    let sizes = wet.sizes();
    Sealed {
        stmts,
        nodes: wet.nodes().len(),
        bytes,
        t1_bytes: sizes.t1_total(),
        t2_bytes: sizes.t2_total(),
    }
}

/// Read-back check. A container is decoded with `Wet::read_from`, its
/// statement and node counts are compared with what was sealed, and the
/// decoded WET is written out again and must give the same bytes, so
/// every section's contents are covered as well as the counts. A later
/// container of the same program whose bytes have the digest of one
/// that passed holds the same bytes, so it would decode the same way:
/// it passes without decoding again (sealing is deterministic, so that
/// is every pass after the first).
#[derive(Default)]
struct Checker {
    passed: Vec<Option<u64>>,
}

impl Checker {
    fn check(&mut self, slot: usize, path: &Path, s: &Sealed) -> Result<(), String> {
        let bytes = std::fs::read(path).map_err(|e| format!("read {}: {e}", path.display()))?;
        let mut d = Digest::new();
        bytes.chunks(8).for_each(|c| {
            let mut w = [0u8; 8];
            w[..c.len()].copy_from_slice(c);
            d.push(i64::from_le_bytes(w));
        });
        let digest = d.finish();
        if self.passed.get(slot).copied().flatten() == Some(digest) {
            return Ok(());
        }
        let wet = Wet::read_from(&mut bytes.as_slice()).map_err(|e| format!("read back: {e}"))?;
        if wet.stats().stmts_executed != s.stmts || wet.nodes().len() != s.nodes {
            return Err(format!(
                "read back {} stmts / {} nodes, sealed {} / {}",
                wet.stats().stmts_executed,
                wet.nodes().len(),
                s.stmts,
                s.nodes
            ));
        }
        let mut again = Vec::with_capacity(bytes.len());
        wet.write_to(&mut again)
            .map_err(|e| format!("write back: {e}"))?;
        if again != bytes {
            return Err(format!(
                "read back and written again: {} bytes, sealed {}",
                again.len(),
                bytes.len()
            ));
        }
        if self.passed.len() <= slot {
            self.passed.resize(slot + 1, None);
        }
        self.passed[slot] = Some(digest);
        Ok(())
    }
}

/// Builds the programs and warms up by sealing each once at
/// [`WARMUP_TARGET`] statements.
fn setup(seed: u64, work: &WorkDir) -> Result<Vec<Prog>, String> {
    let progs = programs(seed);
    let path = work.path("warmup.wetz");
    for p in &progs {
        seal(p, &p.kind.inputs_for(WARMUP_TARGET), &path)?;
    }
    Ok(progs)
}

/// Totals of a run of ops.
#[derive(Default)]
struct Tally {
    ops: u64,
    failed: u64,
    busy: f64,
    stmts: u64,
    bytes: u64,
    t1_bytes: u64,
    t2_bytes: u64,
    lat: Vec<f64>,
}

impl Tally {
    fn record(&mut self, outcome: &Result<(Sealed, f64), String>, log: &mut Vec<String>) {
        self.ops += 1;
        match outcome {
            Ok((s, secs)) => {
                self.busy += secs;
                self.lat.push(*secs);
                self.stmts += s.stmts;
                self.bytes += s.bytes;
                self.t1_bytes += s.t1_bytes;
                self.t2_bytes += s.t2_bytes;
            }
            Err(e) => {
                self.failed += 1;
                if log.len() < 20 {
                    log.push(format!("failed: {e}"));
                }
            }
        }
    }
}

/// What a phase of whole passes produced.
#[derive(Default)]
struct Phase {
    all: Tally,
    /// Programs (rotation slots) with at least one failed op.
    bad: BTreeSet<usize>,
    /// Ops completed per busy second, one entry per pass.
    rates: Vec<f64>,
    /// The first pass alone (its bytes and statements repeat exactly).
    first: Tally,
    /// Per-layer seconds of each traced pass.
    layers: Vec<Layers>,
}

/// Seals whole passes over `progs` — at least `min_passes`, and more
/// until the ops' busy time reaches `budget` — checking each container
/// after its op. With `spans`, each layer call is traced.
fn phase(
    progs: &[Prog],
    work: &WorkDir,
    (min_passes, budget): (usize, Duration),
    checker: &mut Checker,
    mut spans: Option<&mut Spans>,
    log: &mut Vec<String>,
) -> Phase {
    let mut out = Phase::default();
    let cpus = stats::allowed_cpus();
    let mut ops = 0;
    while out.layers.len() < min_passes || out.all.busy < budget.as_secs_f64() {
        let mut layers = Layers::default();
        let (done, busy) = (out.all.lat.len(), out.all.busy);
        for (i, p) in progs.iter().enumerate() {
            // Ops take turns on the allowed CPUs: each vCPU of a shared
            // host has slow spells of its own, and a lone thread would
            // otherwise sit on one of them for long stretches.
            if !cpus.is_empty() {
                stats::run_on(&[cpus[ops % cpus.len()]]);
            }
            ops += 1;
            let path = work.path(&format!("op{i}.wetz"));
            let sealed = match spans.as_deref_mut() {
                Some(spans) => seal_traced(p, &path, spans).map(|(s, l, secs)| {
                    layers.add(&l);
                    (s, secs)
                }),
                None => {
                    let t = Instant::now();
                    seal(p, &p.inputs, &path).map(|s| (s, t.elapsed().as_secs_f64()))
                }
            };
            let outcome =
                sealed.and_then(|(s, secs)| checker.check(i, &path, &s).map(|()| (s, secs)));
            if outcome.is_err() {
                out.bad.insert(i);
            }
            if out.layers.is_empty() {
                out.first.record(&outcome, &mut Vec::new());
            }
            out.all.record(&outcome, log);
        }
        out.layers.push(layers);
        if out.all.busy > busy {
            let rate = (out.all.lat.len() - done) as f64 / (out.all.busy - busy);
            out.rates.push(rate);
        }
    }
    stats::run_on(&cpus);
    out
}

pub fn run(args: &Args, work: &WorkDir) -> Result<Report, String> {
    let mut report = Report::default();
    // The first set-up is the one measured; the others, before and after
    // the window, only time set-up again.
    let progs = setup(args.seed, work)?;
    let mut setup_secs = vec![args.origin.elapsed().as_secs_f64()];
    setup_secs.extend(time_setups(1..SETUPS_BEFORE, |_| setup(args.seed, work))?);
    report.note(format!(
        "ingest: {} programs at ~{TARGET} stmts each (seed {}), 1 thread",
        progs.len(),
        args.seed
    ));
    if args.trace {
        traced(args, work, &progs, &mut report);
        return Ok(report);
    }
    let (run, rss) = stats::peak_rss_during(|| {
        phase(
            &progs,
            work,
            (MIN_PASSES, args.seconds),
            &mut Checker::default(),
            None,
            &mut report.log,
        )
    })?;
    report.set("peak_rss_mb", rss);
    let after = SETUPS_BEFORE..SETUPS_BEFORE + SETUPS_AFTER;
    setup_secs.extend(time_setups(after, |_| setup(args.seed, work))?);
    let (all, first) = (&run.all, &run.first);
    report.attempted = progs.len() as u64;
    report.failed = run.bad.len() as u64;
    if all.lat.is_empty() {
        return Err("no op succeeded".into());
    }
    let mut lat = all.lat.clone();
    lat.sort_by(f64::total_cmp);
    report.set("setup_s", median(&setup_secs));
    report.set("req_per_s", median(&run.rates));
    report.set("p50_ms", percentile(&lat, 50.0) * 1e3);
    report.set("p90_ms", percentile(&lat, 90.0) * 1e3);
    report.set(
        "wetz_bytes_per_stmt",
        first.bytes as f64 / first.stmts.max(1) as f64,
    );
    report.note(format!(
        "ops {} (n={}), failed {}, busy {:.3} s, {:.3} Mstmt/s, p50 {:.2} ms, p90 {:.2} ms ({} samples beyond), setup runs {:?}",
        all.ops,
        lat.len(),
        all.failed,
        all.busy,
        all.stmts as f64 / all.busy / 1e6,
        percentile(&lat, 50.0) * 1e3,
        percentile(&lat, 90.0) * 1e3,
        beyond(&lat, 90.0),
        setup_secs
    ));
    Ok(report)
}

/// The traced run: passes alternate untraced and traced (so a drift
/// over the run cancels out of `trace.overhead`) until each side has
/// half the busy time; per-layer seconds are medians over the traced
/// passes of each pass's total.
fn traced(args: &Args, work: &WorkDir, progs: &[Prog], report: &mut Report) {
    let half = (args.seconds / 2).as_secs_f64();
    let mut checker = Checker::default();
    let mut spans = Spans::new(args.origin);
    let (mut plain, mut traced) = (Tally::default(), Phase::default());
    let mut bad = BTreeSet::new();
    for on in [false, true].into_iter().cycle() {
        if plain.busy >= half && traced.all.busy >= half {
            break;
        }
        let spans = on.then_some(&mut spans);
        let p = phase(
            progs,
            work,
            (1, Duration::ZERO),
            &mut checker,
            spans,
            &mut report.log,
        );
        bad.extend(p.bad);
        let into = if on { &mut traced.all } else { &mut plain };
        into.busy += p.all.busy;
        into.stmts += p.all.stmts;
        if on {
            traced.first = p.first;
            traced.layers.extend(p.layers);
        }
    }
    report.attempted = progs.len() as u64;
    report.failed = bad.len() as u64;
    let med = |f: fn(&Layers) -> f64| median(&traced.layers.iter().map(f).collect::<Vec<_>>());
    report.set("interp.run.secs", med(|l| l.interp));
    report.set("build.events.secs", med(|l| l.events));
    report.set("build.finish.secs", med(|l| l.finish));
    report.set("compress.tier2.secs", med(|l| l.tier2));
    report.set("serial.write.secs", med(|l| l.write));
    let first = &traced.first;
    report.set(
        "compress.tier2.ratio",
        first.t1_bytes as f64 / first.t2_bytes.max(1) as f64,
    );
    report.set("serial.write.bytes", first.bytes as f64);
    let rate_plain = plain.stmts as f64 / plain.busy;
    let rate_traced = traced.all.stmts as f64 / traced.all.busy;
    report.set("trace.overhead", 1.0 - rate_traced / rate_plain);
    report.note(format!(
        "per pass of {} programs ({} stmts): seconds are medians over {} traced passes; untraced {:.3} Mstmt/s, traced {:.3} Mstmt/s",
        progs.len(),
        first.stmts,
        traced.layers.len(),
        rate_plain / 1e6,
        rate_traced / 1e6
    ));
    match crate::save_spans(args, &spans) {
        Ok(p) => report.note(format!("spans: {}", p.display())),
        Err(e) => report.note(format!("spans not written: {e}")),
    }
}
