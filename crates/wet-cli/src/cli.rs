//! Command implementations and argument handling.

use std::error::Error;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use wet_core::{dump, query, WetBuilder, WetConfig};
use wet_interp::{Interp, InterpConfig};
use wet_ir::ballarus::BallLarus;
use wet_ir::{parse::parse_program, pretty, Program, StmtId};

type Result<T> = std::result::Result<T, Box<dyn Error>>;

/// Exit code for bad arguments or unknown commands.
pub const EXIT_USAGE: u8 = 2;
/// Exit code for corrupt or unparseable input files.
pub const EXIT_CORRUPT: u8 = 3;
/// Exit code for I/O failures (file missing, unreadable, unwritable).
pub const EXIT_IO: u8 = 4;
/// Exit code for a query that could not complete (deadline, cancelled,
/// shed under overload).
pub const EXIT_UNAVAILABLE: u8 = 5;
/// Exit code for a replay that did not reproduce its recording (trace,
/// observable output, or NDET stream mismatch).
pub const EXIT_DIVERGENCE: u8 = 6;

/// An error carrying its documented exit code.
#[derive(Debug)]
pub struct CliError {
    /// One of [`EXIT_USAGE`], [`EXIT_CORRUPT`], [`EXIT_IO`].
    pub code: u8,
    msg: String,
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.msg)
    }
}

impl Error for CliError {}

pub(crate) fn fail(code: u8, msg: impl Into<String>) -> Box<dyn Error> {
    Box::new(CliError { code, msg: msg.into() })
}

/// Maps a query error to its documented exit code: corrupt trace data
/// is [`EXIT_CORRUPT`]; deadline/cancel/shed are [`EXIT_UNAVAILABLE`].
fn query_fail(e: query::QueryErr) -> Box<dyn Error> {
    let code = match e {
        query::QueryErr::Corrupt(_) => EXIT_CORRUPT,
        _ => EXIT_UNAVAILABLE,
    };
    fail(code, format!("query failed: {e}"))
}

/// Classifies a std I/O error: corrupt data vs. plumbing failure.
pub(crate) fn io_fail(context: &str, e: &std::io::Error) -> Box<dyn Error> {
    let code = match e.kind() {
        std::io::ErrorKind::InvalidData | std::io::ErrorKind::UnexpectedEof => EXIT_CORRUPT,
        _ => EXIT_IO,
    };
    fail(code, format!("{context}: {e}"))
}

/// Classifies a client-side network error: a timed-out connect or an
/// unanswered request is [`EXIT_UNAVAILABLE`] (retriable — the server
/// may come back), everything else falls through to [`io_fail`].
pub(crate) fn net_fail(context: &str, e: &std::io::Error) -> Box<dyn Error> {
    if wet_serve::is_timeout(e) {
        fail(EXIT_UNAVAILABLE, format!("{context}: timed out: {e}"))
    } else {
        io_fail(context, e)
    }
}

/// The exit code an error maps to (documented in `--help`).
pub fn exit_code_of(e: &(dyn Error + 'static)) -> u8 {
    if let Some(c) = e.downcast_ref::<CliError>() {
        return c.code;
    }
    if let Some(io) = e.downcast_ref::<std::io::Error>() {
        return match io.kind() {
            std::io::ErrorKind::InvalidData | std::io::ErrorKind::UnexpectedEof => EXIT_CORRUPT,
            _ => EXIT_IO,
        };
    }
    EXIT_USAGE
}

const USAGE: &str = "\
usage:
  wet disasm <file.wet>
  wet run <file.wet> [--inputs 1,2,3]
  wet trace <file.wet> [--inputs 1,2,3] [--tier1] [--threads N] [--save out.wetz]
  wet compress <file.wet> ...                    (alias of trace)
  wet dump <file.wet> --node N [--inputs 1,2,3] [--max M]
  wet slice <file.wet> --stmt N [--inputs 1,2,3] [--no-control]
  wet workload <name> [--target N] [--threads N] [--save out.wetz]
  wet info <file.wetz>
  wet capture <file.wet> --dir DIR [--inputs 1,2,3] [--budget N] [--interval N]
  wet seal <DIR> -o out.wetz [--threads N] [--tier1]
  wet record <file.wet|ndet-workload> --dir DIR [--inputs 1,2,3] [--seed N]
             [--interval N] [--threads N]
  wet replay <DIR> [--threads N] [--flip-ndet I]
  wet replay <GOLDEN-ROOT> --check [--threads N]
  wet fsck <file.wetz|DIR> [--repair out.wetz]
  wet serve [file.wetz|DIR] --listen ADDR [--program file.wet]
            [--max-active N] [--queue N] [--cache-budget N] [--threads N]
            [--store-root DIR] [--store-budget N] [--tenant-active N]
            [--metrics-listen ADDR] [--access-log PATH]
            [--access-log-max-bytes N] [--slow-ms N --slow-log PATH]
            [--flight-dump PATH] [--debug-ops]
  wet query <op> --remote ADDR [--stmt N] [--node N] [--k N] [--backward]
            [--degraded] [--no-control] [--deadline-ms N] [--retries N]
            [--budget-bytes N] [--budget-ms N]
            [--trace ID] [--tenant NAME] [--path REL]
  wet drill --remote ADDR [--seed N] [--count N] [--idle N] [--access-log PATH]
  wet drill --chaos [--seed N]
  wet drill --overload [--seed N]
  wet top --remote ADDR [--interval-ms N] [--iters N]
  wet scrape <host:port> [path]
      names: go-like gcc-like li-like gzip-like mcf-like parser-like
             vortex-like bzip2-like twolf-like
      ndet workloads (record): envgate argmix stream
      --threads N: worker threads for tier-2 compression
                   (default 1; 0 = all cores; output is identical)
      --profile[=pretty|json|prom]: record spans + metrics for the run.
                   pretty (default) prints a phase tree to stderr;
                   json prints a wet-obs/1 document to stdout and saves
                   results/METRICS_<cmd>.json; prom prints Prometheus
                   text exposition to stdout. With json/prom the human
                   report moves to stderr so stdout stays parseable.
      fsck: verify every container section checksum and the decoded
            structure; --repair writes a salvaged copy keeping every
            section that verifies (lost label sequences are preserved
            as explicit `unavailable` placeholders). On a capture DIR
            it instead verifies the segment log (config, manifest,
            per-segment checksums and chain continuity).
      capture: crash-safe segmented tracing into DIR (a `.wetz.seg`
            segment log; the program and inputs are stored inside it).
            If DIR already holds an unfinished capture it is resumed:
            sealed segments are recovered, any torn tail is discarded,
            and tracing continues from the last durable checkpoint.
            --interval N seals a segment every N timestamps (default
            65536); --budget N bounds builder memory at ~N bytes,
            shedding value detail (kept as `unavailable` streams)
            under pressure. WET_CRASH_AT=N with WET_CRASH_MODE=kill or
            torn:<seed> simulates a crash at the N-th durable write
            (exit 4) for recovery drills.
      seal: merge a finished capture DIR into a normal .wetz container
            — byte-identical to `wet trace --save` of an uninterrupted
            run (shed value streams excepted).
      record: capture one deterministic run — program, inputs, scripted
            external world, NDET record stream, sealed trace, and
            observable output — into a self-contained DIR. Targets are
            a .wet file or one of the ndet workloads (whose scripted
            world derives from --seed). SIGINT checkpoints cleanly
            (exit 0) and rerunning the command resumes; a crashed
            record resumes the same way.
      replay: re-execute a recording feeding the recorded NDET values
            back, then byte-diff the rebuilt trace and the observable
            output against the recording. Any mismatch is a typed
            divergence (exit 6) reporting the first divergent
            timestamp. --flip-ndet I xors recorded value I first (a
            divergence-injection drill). With --check the argument is
            a golden-corpus root: every recording under it is replayed
            at engine thread counts {1,2,4,8}.
      serve: long-running query daemon over a sealed trace (or a
            finished capture DIR, sealed in memory). ADDR with a `:` is
            TCP, otherwise a unix-socket path. --max-active bounds
            concurrent queries (default 4), --queue the wait line
            beyond it (default 8; past it requests are shed with a
            retriable error). --cache-budget N caps the decompressed-
            stream cache at ~N bytes (0 = unlimited). SIGTERM (or a
            `shutdown` request) drains gracefully: in-flight requests
            finish, new ones are shed, then the process exits 0.
            --store-root DIR turns the daemon multi-tenant: `open`
            requests resolve strictly under DIR (traversal attempts are
            rejected with a typed `forbidden` error), traces are opened
            lazily (only CONF+BIND decoded; data sections load on first
            touch) and the positional trace becomes optional. --store-
            budget N bounds lazily-resident section bytes across all
            open traces (LRU eviction; 0 = unlimited); --tenant-active
            N caps each tenant's concurrent queries under --max-active.
      query: one request against a running server. Ops: ping, stats,
            cf_trace, value_trace, address_trace, slice, shutdown,
            open, close, list, dump-flight. --trace ID routes to an
            open trace (default `default`); open takes --path REL
            (relative to the server's store root) and optional
            --trace/--tenant; close takes --trace. --deadline-ms
            bounds the query server-side; --retries N retries
            retriable errors (shed) with capped exponential backoff
            and jitter, honoring the server's retry_after_ms hint as
            the backoff floor. --budget-bytes N / --budget-ms N bound
            the query's decoded bytes / wall time server-side: on
            exhaustion the answer comes back partial (exit 0) with
            quality `degraded` and a gap report, never an error and
            never fabricated data (cf_trace forward, value_trace,
            address_trace; slices don't take budgets). --degraded
            asks for the salvage answer instead of a typed corrupt
            error: whatever the surviving sections support, with the
            same gap report (cf_trace forward, value_trace,
            address_trace, slice). Every query response carries
            `quality: full|degraded`. Prints the JSON result.
      drill: replay a seeded schedule of misbehaving clients
            (slow-loris, mid-frame cuts, garbage frames, deadline
            storms, cancel races) against a running server and verify
            it survives. With --access-log PATH (the server's access
            log on a shared filesystem) additionally audits that
            every completed request was logged exactly once.
            With --chaos (no server needed) runs the seeded syscall-
            fault schedule instead: every fault kind is injected into
            a live capture (must fail typed and reseal byte-identical
            after recovery), a corrupted container is driven through
            the store's quarantine → repair → re-admit cycle, and the
            access log survives a torn rotation rename.
            With --idle N additionally parks N accepted-but-silent
            connections and asserts live probes (ping + cf_trace)
            still answer within a 2 s budget while the storm holds.
            With --overload (no server needed) runs the seeded
            brownout storm instead: an in-process daemon with tiny
            capacity takes 4x sustained load from competing tenants;
            the drill asserts zero panics, typed retriable rejections
            carrying retry_after_ms, bounded latency for accepted
            requests, per-tenant goodput (no starvation), brownout
            answers that are gap-annotated and byte-deterministic,
            and pressure recovery to nominal after the storm.
      observability (serve): --metrics-listen ADDR answers plain-HTTP
            GET /metrics (Prometheus text), /healthz and /readyz
            (503 while draining) on a second listener. --access-log
            PATH appends one wet-access/1 JSON line per completed
            request, rotating to PATH.1 past --access-log-max-bytes
            (default 64 MiB). --slow-ms N with --slow-log PATH logs
            requests slower than N ms as wet-slow/1 lines carrying
            the request's span tree. --flight-dump PATH writes the
            in-memory flight recorder (last 2048 request events) as
            one wet-flight/1 JSON line on panic, SIGUSR1, or a
            dump-flight request. --debug-ops enables the fault-
            injection op debug_panic.
      top: poll a server's stats every --interval-ms (default 1000)
            and render req/s, per-op p50/p99, queue depth, store
            residency, pressure level (brownouts, queue-delay p99),
            and per-tenant activity with shed counts. --iters N stops
            after N polls (0 = run until interrupted).
      scrape: one HTTP GET against a --metrics-listen endpoint
            (default path /metrics); prints the body, exits 5 on a
            non-200 answer.
exit codes:
  0  success (fsck: file is clean)
  2  usage error (bad flags, unknown command; query: bad request)
  3  corrupt input (failed checksum, malformed or unparseable file;
     seal: unfinished capture or a segment failing verification;
     query: the server answered `corrupt`)
  4  I/O failure (missing, unreadable, or unwritable file; capture:
     a durable write failed or a simulated crash fired)
  5  query could not complete (deadline exceeded, cancelled, or shed
     under overload; drill: the server did not survive)
  6  replay diverged from its recording (trace, observable output, or
     ndet stream mismatch)";

/// In `--profile=json|prom` mode the profile document owns stdout and
/// the human-readable report moves to stderr.
static STDERR_REPORT: AtomicBool = AtomicBool::new(false);

fn stderr_report() -> bool {
    STDERR_REPORT.load(Ordering::Relaxed)
}

/// `println!` that respects [`STDERR_REPORT`].
macro_rules! say {
    ($($arg:tt)*) => {
        if stderr_report() { eprintln!($($arg)*) } else { println!($($arg)*) }
    };
}

/// One-line output respecting [`STDERR_REPORT`], for sibling modules
/// that cannot see the `say!` macro.
pub(crate) fn say_line(args: fmt::Arguments<'_>) {
    if stderr_report() {
        eprintln!("{args}");
    } else {
        println!("{args}");
    }
}

/// Multi-line (`print!`-style) counterpart of `say!`.
fn say_block(s: &str) {
    if stderr_report() {
        eprint!("{s}");
    } else {
        print!("{s}");
    }
}

/// Where `--profile` sends the recorded spans and metrics.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Profile {
    Pretty,
    Json,
    Prom,
}

/// Parsed common flags.
pub(crate) struct Flags {
    pub(crate) inputs: Vec<i64>,
    pub(crate) tier1: bool,
    pub(crate) node: Option<u32>,
    pub(crate) stmt: Option<u32>,
    pub(crate) target: u64,
    pub(crate) max: usize,
    pub(crate) no_control: bool,
    pub(crate) save: Option<String>,
    pub(crate) repair: Option<String>,
    pub(crate) threads: usize,
    pub(crate) dir: Option<String>,
    pub(crate) out: Option<String>,
    pub(crate) budget: u64,
    pub(crate) interval: u64,
    pub(crate) listen: Option<String>,
    pub(crate) remote: Option<String>,
    pub(crate) program: Option<String>,
    pub(crate) max_active: usize,
    pub(crate) queue: usize,
    pub(crate) cache_budget: u64,
    pub(crate) store_root: Option<String>,
    pub(crate) store_budget: u64,
    pub(crate) tenant_active: usize,
    pub(crate) trace: Option<String>,
    pub(crate) tenant: Option<String>,
    pub(crate) path: Option<String>,
    pub(crate) deadline_ms: Option<u64>,
    pub(crate) budget_bytes: Option<u64>,
    pub(crate) budget_ms: Option<u64>,
    pub(crate) retries: u32,
    pub(crate) k: Option<u32>,
    pub(crate) backward: bool,
    pub(crate) degraded: bool,
    pub(crate) seed: u64,
    pub(crate) count: usize,
    pub(crate) idle: usize,
    pub(crate) metrics_listen: Option<String>,
    pub(crate) access_log: Option<String>,
    pub(crate) access_log_max_bytes: u64,
    pub(crate) slow_ms: Option<u64>,
    pub(crate) slow_log: Option<String>,
    pub(crate) flight_dump: Option<String>,
    pub(crate) debug_ops: bool,
    pub(crate) interval_ms: u64,
    pub(crate) iters: usize,
    pub(crate) check: bool,
    pub(crate) flip_ndet: Option<usize>,
    pub(crate) chaos: bool,
    pub(crate) overload: bool,
}

fn parse_flags(args: &[String]) -> Result<Flags> {
    let mut f = Flags {
        inputs: Vec::new(),
        tier1: false,
        node: None,
        stmt: None,
        target: 200_000,
        max: 8,
        no_control: false,
        save: None,
        repair: None,
        threads: 1,
        dir: None,
        out: None,
        budget: 0,
        interval: wet_core::CaptureConfig::default().segment_interval,
        listen: None,
        remote: None,
        program: None,
        max_active: 4,
        queue: 8,
        cache_budget: 0,
        store_root: None,
        store_budget: 0,
        tenant_active: 0,
        trace: None,
        tenant: None,
        path: None,
        deadline_ms: None,
        budget_bytes: None,
        budget_ms: None,
        retries: 0,
        k: None,
        backward: false,
        degraded: false,
        seed: 0xd1211,
        count: 24,
        idle: 0,
        metrics_listen: None,
        access_log: None,
        access_log_max_bytes: wet_serve::DEFAULT_LOG_MAX_BYTES,
        slow_ms: None,
        slow_log: None,
        flight_dump: None,
        debug_ops: false,
        interval_ms: 1_000,
        iters: 0,
        check: false,
        flip_ndet: None,
        chaos: false,
        overload: false,
    };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--inputs" => {
                i += 1;
                let v = args.get(i).ok_or("--inputs needs a value")?;
                f.inputs = v
                    .split(',')
                    .filter(|s| !s.is_empty())
                    .map(|s| s.trim().parse::<i64>())
                    .collect::<std::result::Result<_, _>>()?;
            }
            "--tier1" => f.tier1 = true,
            "--no-control" => f.no_control = true,
            "--node" => {
                i += 1;
                f.node = Some(args.get(i).ok_or("--node needs a value")?.parse()?);
            }
            "--stmt" => {
                i += 1;
                f.stmt = Some(args.get(i).ok_or("--stmt needs a value")?.parse()?);
            }
            "--target" => {
                i += 1;
                f.target = args.get(i).ok_or("--target needs a value")?.parse()?;
            }
            "--max" => {
                i += 1;
                f.max = args.get(i).ok_or("--max needs a value")?.parse()?;
            }
            "--save" => {
                i += 1;
                f.save = Some(args.get(i).ok_or("--save needs a path")?.clone());
            }
            "--repair" => {
                i += 1;
                f.repair = Some(args.get(i).ok_or("--repair needs a path")?.clone());
            }
            "--threads" => {
                i += 1;
                f.threads = args.get(i).ok_or("--threads needs a value")?.parse()?;
            }
            "--dir" => {
                i += 1;
                f.dir = Some(args.get(i).ok_or("--dir needs a path")?.clone());
            }
            "-o" | "--out" => {
                i += 1;
                f.out = Some(args.get(i).ok_or("-o needs a path")?.clone());
            }
            "--budget" => {
                i += 1;
                f.budget = args.get(i).ok_or("--budget needs a value")?.parse()?;
            }
            "--interval" => {
                i += 1;
                f.interval = args.get(i).ok_or("--interval needs a value")?.parse()?;
            }
            "--listen" => {
                i += 1;
                f.listen = Some(args.get(i).ok_or("--listen needs an address")?.clone());
            }
            "--remote" => {
                i += 1;
                f.remote = Some(args.get(i).ok_or("--remote needs an address")?.clone());
            }
            "--program" => {
                i += 1;
                f.program = Some(args.get(i).ok_or("--program needs a path")?.clone());
            }
            "--max-active" => {
                i += 1;
                f.max_active = args.get(i).ok_or("--max-active needs a value")?.parse()?;
            }
            "--queue" => {
                i += 1;
                f.queue = args.get(i).ok_or("--queue needs a value")?.parse()?;
            }
            "--cache-budget" => {
                i += 1;
                f.cache_budget = args.get(i).ok_or("--cache-budget needs a value")?.parse()?;
            }
            "--store-root" => {
                i += 1;
                f.store_root = Some(args.get(i).ok_or("--store-root needs a path")?.clone());
            }
            "--store-budget" => {
                i += 1;
                f.store_budget = args.get(i).ok_or("--store-budget needs a value")?.parse()?;
            }
            "--tenant-active" => {
                i += 1;
                f.tenant_active = args.get(i).ok_or("--tenant-active needs a value")?.parse()?;
            }
            "--trace" => {
                i += 1;
                f.trace = Some(args.get(i).ok_or("--trace needs an id")?.clone());
            }
            "--tenant" => {
                i += 1;
                f.tenant = Some(args.get(i).ok_or("--tenant needs a name")?.clone());
            }
            "--path" => {
                i += 1;
                f.path = Some(args.get(i).ok_or("--path needs a value")?.clone());
            }
            "--deadline-ms" => {
                i += 1;
                f.deadline_ms = Some(args.get(i).ok_or("--deadline-ms needs a value")?.parse()?);
            }
            "--budget-bytes" => {
                i += 1;
                f.budget_bytes = Some(args.get(i).ok_or("--budget-bytes needs a value")?.parse()?);
            }
            "--budget-ms" => {
                i += 1;
                f.budget_ms = Some(args.get(i).ok_or("--budget-ms needs a value")?.parse()?);
            }
            "--retries" => {
                i += 1;
                f.retries = args.get(i).ok_or("--retries needs a value")?.parse()?;
            }
            "--k" => {
                i += 1;
                f.k = Some(args.get(i).ok_or("--k needs a value")?.parse()?);
            }
            "--backward" => f.backward = true,
            "--degraded" => f.degraded = true,
            "--seed" => {
                i += 1;
                f.seed = args.get(i).ok_or("--seed needs a value")?.parse()?;
            }
            "--count" => {
                i += 1;
                f.count = args.get(i).ok_or("--count needs a value")?.parse()?;
            }
            "--idle" => {
                i += 1;
                f.idle = args.get(i).ok_or("--idle needs a value")?.parse()?;
            }
            "--metrics-listen" => {
                i += 1;
                f.metrics_listen =
                    Some(args.get(i).ok_or("--metrics-listen needs an address")?.clone());
            }
            "--access-log" => {
                i += 1;
                f.access_log = Some(args.get(i).ok_or("--access-log needs a path")?.clone());
            }
            "--access-log-max-bytes" => {
                i += 1;
                f.access_log_max_bytes =
                    args.get(i).ok_or("--access-log-max-bytes needs a value")?.parse()?;
            }
            "--slow-ms" => {
                i += 1;
                f.slow_ms = Some(args.get(i).ok_or("--slow-ms needs a value")?.parse()?);
            }
            "--slow-log" => {
                i += 1;
                f.slow_log = Some(args.get(i).ok_or("--slow-log needs a path")?.clone());
            }
            "--flight-dump" => {
                i += 1;
                f.flight_dump = Some(args.get(i).ok_or("--flight-dump needs a path")?.clone());
            }
            "--debug-ops" => f.debug_ops = true,
            "--interval-ms" => {
                i += 1;
                f.interval_ms = args.get(i).ok_or("--interval-ms needs a value")?.parse()?;
            }
            "--iters" => {
                i += 1;
                f.iters = args.get(i).ok_or("--iters needs a value")?.parse()?;
            }
            "--check" => f.check = true,
            "--chaos" => f.chaos = true,
            "--overload" => f.overload = true,
            "--flip-ndet" => {
                i += 1;
                f.flip_ndet = Some(args.get(i).ok_or("--flip-ndet needs a record index")?.parse()?);
            }
            other => return Err(format!("unknown flag `{other}`").into()),
        }
        i += 1;
    }
    Ok(f)
}

pub(crate) fn load(path: &str) -> Result<Program> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    Ok(parse_program(&text)?)
}

/// Builds a WET (and run stats) for a program. `threads` is the worker
/// count for value grouping and tier-2 compression (0 = all cores);
/// the resulting WET is byte-identical for every thread count.
fn trace(
    program: &Program,
    inputs: &[i64],
    tier2: bool,
    threads: usize,
) -> Result<(wet_core::Wet, wet_interp::RunResult)> {
    let bl = BallLarus::new(program);
    let mut config = WetConfig::default();
    config.stream.num_threads = threads;
    let mut builder = WetBuilder::new(program, &bl, config);
    let run = Interp::new(program, &bl, InterpConfig::default()).run(inputs, &mut builder)?;
    let mut wet = builder.finish();
    if tier2 {
        wet.compress();
    }
    Ok((wet, run))
}

/// Reads the `WET_CRASH_AT` / `WET_CRASH_MODE` crash-drill hook.
pub(crate) fn crash_plan_from_env() -> Result<Option<wet_core::fault::CrashPlan>> {
    use wet_core::fault::{CrashMode, CrashPlan};
    let Ok(at) = std::env::var("WET_CRASH_AT") else {
        return Ok(None);
    };
    let at_op: u64 = at.parse().map_err(|_| "WET_CRASH_AT must be a positive integer")?;
    let mode = match std::env::var("WET_CRASH_MODE").ok().as_deref() {
        None | Some("kill") => CrashMode::Kill,
        Some(m) => match m.strip_prefix("torn:") {
            Some(seed) => CrashMode::Torn {
                seed: seed.parse().map_err(|_| "WET_CRASH_MODE torn seed must be an integer")?,
            },
            None => return Err(format!("unknown WET_CRASH_MODE `{m}` (kill | torn:<seed>)").into()),
        },
    };
    Ok(Some(CrashPlan { at_op, mode }))
}

/// `wet capture`: crash-safe segmented tracing into a `.wetz.seg`
/// directory, creating it or resuming an unfinished capture in place.
fn cmd_capture(src: &str, dir: &std::path::Path, flags: &Flags) -> Result<()> {
    use wet_core::capture::Capture;
    let resuming = dir.join("capture.conf").exists();
    let (text, inputs) = if resuming {
        // The directory is self-contained: program and inputs come
        // from the original `wet capture` invocation, so a resume
        // re-executes exactly the run that crashed.
        let text = std::fs::read_to_string(dir.join("program.wet"))
            .map_err(|e| fail(EXIT_IO, format!("cannot read stored program: {e}")))?;
        let raw = std::fs::read_to_string(dir.join("inputs"))
            .map_err(|e| fail(EXIT_IO, format!("cannot read stored inputs: {e}")))?;
        let inputs = raw
            .split(',')
            .filter(|s| !s.trim().is_empty())
            .map(|s| s.trim().parse::<i64>())
            .collect::<std::result::Result<Vec<_>, _>>()
            .map_err(|e| fail(EXIT_CORRUPT, format!("stored inputs malformed: {e}")))?;
        (text, inputs)
    } else {
        // Pretty-print and reparse even for a fresh capture so this
        // run and any future resume trace the identical program.
        let text = pretty::program_to_string(&load(src)?);
        std::fs::create_dir_all(dir).map_err(|e| fail(EXIT_IO, format!("cannot create {}: {e}", dir.display())))?;
        let csv: Vec<String> = flags.inputs.iter().map(|v| v.to_string()).collect();
        std::fs::write(dir.join("program.wet"), &text)
            .and_then(|()| std::fs::write(dir.join("inputs"), csv.join(",")))
            .map_err(|e| fail(EXIT_IO, format!("cannot populate {}: {e}", dir.display())))?;
        (text, flags.inputs.clone())
    };
    let program = parse_program(&text)?;
    let bl = BallLarus::new(&program);
    let mut cap = if resuming {
        Capture::resume(&program, &bl, dir)
            .map_err(|e| io_fail(&format!("cannot resume {}", dir.display()), &e))?
    } else {
        let mut config = WetConfig::default();
        config.capture.budget_bytes = flags.budget;
        config.capture.segment_interval = flags.interval;
        Capture::create(&program, &bl, config, dir)
            .map_err(|e| io_fail(&format!("cannot create capture in {}", dir.display()), &e))?
    };
    if let Some(plan) = crash_plan_from_env()? {
        cap.set_crash_plan(plan);
    }
    if resuming && cap.resume_ts() > 0 {
        say!("resuming from checkpoint: {} segments, ts {}", cap.segments(), cap.resume_ts());
    }
    crate::replay::arm_sigint();
    let mut sink = (crate::replay::SigintLatch, &mut cap);
    match Interp::new(&program, &bl, InterpConfig::default()).run(&inputs, &mut sink) {
        Ok(_) => {}
        Err(wet_interp::InterpError::Interrupted { ts }) => {
            // SIGINT: seal the tail and the manifest as a clean
            // checkpoint; rerunning the command resumes from it.
            cap.suspend().map_err(|e| io_fail("checkpoint failed", &e))?;
            say!("interrupted: checkpoint at ts {ts}; rerun the same command to resume");
            return Ok(());
        }
        Err(e) => return Err(e.into()),
    }
    let sum = cap.finish().map_err(|e| io_fail("capture failed", &e))?;
    say!(
        "captured: {} segments, peak ~{} B builder memory{}",
        sum.segments,
        sum.peak_bytes,
        if sum.shed { " (value detail shed under budget)" } else { "" }
    );
    say!("seal with: wet seal {} -o out.wetz", dir.display());
    Ok(())
}

/// `wet seal`: merge a finished capture directory into a `.wetz`.
fn cmd_seal(dir: &std::path::Path, out: &str, flags: &Flags) -> Result<()> {
    let text = std::fs::read_to_string(dir.join("program.wet"))
        .map_err(|e| fail(EXIT_IO, format!("cannot read stored program: {e}")))?;
    let program = parse_program(&text)?;
    let bl = BallLarus::new(&program);
    let mut wet = wet_core::capture::seal(&program, &bl, dir, flags.threads)
        .map_err(|e| io_fail(&format!("cannot seal {}", dir.display()), &e))?;
    if !flags.tier1 {
        wet.compress();
    }
    let mut w = std::io::BufWriter::new(
        std::fs::File::create(out).map_err(|e| fail(EXIT_IO, format!("cannot create {out}: {e}")))?,
    );
    wet.write_to(&mut w).map_err(|e| fail(EXIT_IO, format!("cannot write {out}: {e}")))?;
    say!("sealed {} into {out}", dir.display());
    Ok(())
}

/// `wet fsck` on a capture directory: verify the segment log.
fn fsck_capture_dir(path: &str) -> Result<()> {
    let report = wet_core::capture::fsck_dir(std::path::Path::new(path))
        .map_err(|e| io_fail(&format!("cannot fsck {path}"), &e))?;
    say!("fsck {path}: capture segment log");
    say!("  config   : {}", if report.conf_ok { "ok" } else { "damaged" });
    say!(
        "  manifest : {}{}",
        if report.manifest_ok { "ok" } else { "damaged" },
        if report.finished { " (finished)" } else { "" }
    );
    say!("  segments : {} verified", report.segments_ok);
    for p in &report.problems {
        say!("  problem  : {p}");
    }
    wet_obs::counter_add("fsck.capture_segments_ok", "total", report.segments_ok);
    wet_obs::counter_add("fsck.capture_problems", "total", report.problems.len() as u64);
    if report.is_clean() {
        say!("clean");
        Ok(())
    } else {
        let problem = report.problems.first().cloned().unwrap_or_else(|| "corrupt".into());
        Err(fail(EXIT_CORRUPT, format!("{path}: {problem}")))
    }
}

/// Strips the global `--profile[=sink]` flag (accepted anywhere on the
/// command line) from `args`.
fn extract_profile(args: &[String]) -> Result<(Vec<String>, Option<Profile>)> {
    let mut rest = Vec::with_capacity(args.len());
    let mut profile = None;
    for a in args {
        if a == "--profile" {
            profile = Some(Profile::Pretty);
        } else if let Some(sink) = a.strip_prefix("--profile=") {
            profile = Some(match sink {
                "pretty" => Profile::Pretty,
                "json" => Profile::Json,
                "prom" => Profile::Prom,
                other => return Err(format!("unknown profile sink `{other}` (pretty|json|prom)").into()),
            });
        } else {
            rest.push(a.clone());
        }
    }
    Ok((rest, profile))
}

/// Renders the recorded profile after a successful command. Pretty goes
/// to stderr (it accompanies the command's stdout); json and prom own
/// stdout. Json is additionally saved to `results/METRICS_<cmd>.json`.
fn render_profile(profile: Profile, cmd: &str) -> Result<()> {
    let report = wet_obs::snapshot();
    match profile {
        Profile::Pretty => eprint!("{}", report.render_pretty()),
        Profile::Json => {
            let doc = report.render_json();
            let dir = std::path::Path::new("results");
            if std::fs::create_dir_all(dir).is_ok() {
                let name: String =
                    cmd.chars().map(|c| if c.is_ascii_alphanumeric() { c } else { '_' }).collect();
                let path = dir.join(format!("METRICS_{name}.json"));
                if let Err(e) = std::fs::write(&path, &doc) {
                    eprintln!("warning: cannot write {}: {e}", path.display());
                }
            }
            print!("{doc}");
        }
        Profile::Prom => print!("{}", report.render_prometheus()),
    }
    Ok(())
}

/// Entry point used by `main` (and by the tests).
pub fn dispatch(args: &[String]) -> Result<()> {
    let (args, profile) = extract_profile(args)?;
    if let Some(p) = profile {
        wet_obs::enable();
        wet_obs::reset();
        if matches!(p, Profile::Json | Profile::Prom) {
            STDERR_REPORT.store(true, Ordering::Relaxed);
        }
    }
    let result = dispatch_cmd(&args);
    // A corrupt-input verdict (e.g. `fsck` on a damaged file) is a
    // completed analysis, not a crash — its metrics still render.
    let completed = result.is_ok()
        || result
            .as_ref()
            .err()
            .and_then(|e| e.downcast_ref::<CliError>())
            .is_some_and(|c| c.code == EXIT_CORRUPT || c.code == EXIT_DIVERGENCE);
    if let Some(p) = profile {
        if completed {
            render_profile(p, args.first().map(|s| s.as_str()).unwrap_or("none"))?;
        }
    }
    result
}

fn dispatch_cmd(args: &[String]) -> Result<()> {
    let Some(cmd) = args.first() else {
        return Err(USAGE.into());
    };
    let rest = &args[1..];
    match cmd.as_str() {
        "disasm" => {
            let path = rest.first().ok_or(USAGE)?;
            let p = load(path)?;
            say_block(&pretty::program_to_string(&p));
            Ok(())
        }
        "run" => {
            let path = rest.first().ok_or(USAGE)?;
            let flags = parse_flags(&rest[1..])?;
            let p = load(path)?;
            let bl = BallLarus::new(&p);
            let r = Interp::new(&p, &bl, InterpConfig::default()).run(&flags.inputs, &mut wet_interp::NullSink)?;
            say!("outputs: {:?}", r.outputs);
            say!("return : {:?}", r.ret);
            say!(
                "executed {} statements, {} blocks, {} paths",
                r.stmts_executed, r.blocks_executed, r.paths_executed
            );
            Ok(())
        }
        "trace" | "compress" => {
            let path = rest.first().ok_or(USAGE)?;
            let flags = parse_flags(&rest[1..])?;
            let p = load(path)?;
            let (wet, run) = trace(&p, &flags.inputs, !flags.tier1, flags.threads)?;
            print_wet_report(&wet, &run);
            save_if_requested(&wet, &flags)?;
            Ok(())
        }
        "dump" => {
            let path = rest.first().ok_or(USAGE)?;
            let flags = parse_flags(&rest[1..])?;
            let p = load(path)?;
            let (wet, _) = trace(&p, &flags.inputs, !flags.tier1, flags.threads)?;
            let node = flags.node.ok_or("dump requires --node N")?;
            if node as usize >= wet.nodes().len() {
                return Err(format!("node {node} out of range (0..{})", wet.nodes().len()).into());
            }
            say_block(&dump::dump_node(&wet, &p, wet_core::NodeId(node), flags.max));
            Ok(())
        }
        "slice" => {
            let path = rest.first().ok_or(USAGE)?;
            let flags = parse_flags(&rest[1..])?;
            let p = load(path)?;
            let (wet, _) = trace(&p, &flags.inputs, !flags.tier1, flags.threads)?;
            let stmt = StmtId(flags.stmt.ok_or("slice requires --stmt N")?);
            // Criterion: the last execution of the statement.
            let candidates: Vec<(wet_core::NodeId, u32)> = wet
                .nodes()
                .iter()
                .enumerate()
                .filter(|(_, n)| n.stmt_pos(stmt).is_some() && n.n_execs > 0)
                .map(|(i, n)| (wet_core::NodeId(i as u32), n.n_execs - 1))
                .collect();
            let Some(&(node, k)) = candidates.last() else {
                return Err(format!("statement s{} never executed", stmt.0).into());
            };
            let spec = query::SliceSpec { data: true, control: !flags.no_control };
            let slice = query::backward_slice(&wet, &p, query::WetSliceElem { node, stmt, k }, spec)
                .map_err(query_fail)?;
            say!(
                "backward slice of {stmt} (execution {k} of node n{}):",
                node.0
            );
            say!("  {} dynamic instances", slice.len());
            say!("  static statements: {:?}", slice.static_stmts().iter().map(|s| s.0).collect::<Vec<_>>());
            Ok(())
        }
        "workload" => {
            let name = rest.first().ok_or(USAGE)?;
            let flags = parse_flags(&rest[1..])?;
            let kind = wet_workloads::Kind::all()
                .into_iter()
                .find(|k| k.name() == name)
                .ok_or_else(|| format!("unknown workload `{name}`\n{USAGE}"))?;
            let w = wet_workloads::build(kind, flags.target);
            let (wet, run) = trace(&w.program, &w.inputs, !flags.tier1, flags.threads)?;
            print_wet_report(&wet, &run);
            save_if_requested(&wet, &flags)?;
            Ok(())
        }
        "capture" => {
            let path = rest.first().ok_or(USAGE)?;
            let flags = parse_flags(&rest[1..])?;
            let dir = flags.dir.clone().ok_or("capture requires --dir DIR")?;
            cmd_capture(path, std::path::Path::new(&dir), &flags)
        }
        "seal" => {
            let dir = rest.first().ok_or(USAGE)?;
            let flags = parse_flags(&rest[1..])?;
            let out = flags.out.clone().ok_or("seal requires -o out.wetz")?;
            cmd_seal(std::path::Path::new(dir), &out, &flags)
        }
        "record" => {
            let target = rest.first().ok_or(USAGE)?;
            let flags = parse_flags(&rest[1..])?;
            let dir = flags.dir.clone().ok_or("record requires --dir DIR")?;
            crate::replay::cmd_record(target, std::path::Path::new(&dir), &flags)
        }
        "replay" => {
            let dir = rest.first().ok_or(USAGE)?;
            let flags = parse_flags(&rest[1..])?;
            crate::replay::cmd_replay(std::path::Path::new(dir), &flags)
        }
        "info" => {
            let path = rest.first().ok_or(USAGE)?;
            let mut f = std::io::BufReader::new(
                std::fs::File::open(path)
                    .map_err(|e| fail(EXIT_IO, format!("cannot open {path}: {e}")))?,
            );
            let wet = wet_core::Wet::read_from(&mut f)
                .map_err(|e| io_fail(&format!("cannot read {path}"), &e))?;
            let run = wet_interp::RunResult {
                stmts_executed: wet.stats().stmts_executed,
                paths_executed: wet.stats().paths_executed,
                blocks_executed: wet.stats().blocks_executed,
                ..Default::default()
            };
            print_wet_report(&wet, &run);
            Ok(())
        }
        "fsck" => {
            let path = rest.first().ok_or(USAGE)?;
            let flags = parse_flags(&rest[1..])?;
            if std::path::Path::new(path).is_dir() {
                return fsck_capture_dir(path);
            }
            let open = || {
                std::fs::File::open(path)
                    .map(std::io::BufReader::new)
                    .map_err(|e| fail(EXIT_IO, format!("cannot open {path}: {e}")))
            };
            let report = wet_core::Wet::fsck(&mut open()?)
                .map_err(|e| io_fail(&format!("cannot read {path}"), &e))?;
            say!("fsck {path}: container v{}", report.version);
            for sec in &report.sections {
                say!("  {:<4} {:>10} B  {}", sec.tag, sec.len, sec.status);
            }
            if let Some(fatal) = &report.fatal {
                say!("  fatal    : {fatal}");
            }
            if let Some(err) = &report.structure_error {
                say!("  structure: {err}");
            }
            say!(
                "  sections : {} checked, {} corrupt",
                report.sections_checked(),
                report.sections_corrupt()
            );
            say!("  sequences: {} recovered, {} lost", report.seqs_recovered, report.seqs_lost);
            wet_obs::counter_add("fsck.sections_checked", "total", report.sections_checked());
            wet_obs::counter_add("fsck.sections_corrupt", "total", report.sections_corrupt());
            wet_obs::counter_add("salvage.seqs_recovered", "total", report.seqs_recovered);
            wet_obs::counter_add("salvage.seqs_lost", "total", report.seqs_lost);
            if let Some(out) = &flags.repair {
                // Salvage and write through the fault-injectable I/O
                // layer: the repaired copy lands via tmp+fsync+rename,
                // and a WET_FAULT_* plan exercises this path too.
                let vfs = wet_core::fault::Vfs::from_env();
                let (wet, _) = wet_core::Wet::read_salvaging_path(std::path::Path::new(path), &vfs)
                    .map_err(|e| io_fail(&format!("cannot salvage {path}"), &e))?;
                wet.write_to_path(std::path::Path::new(out), &vfs)
                    .map_err(|e| fail(EXIT_IO, format!("cannot write {out}: {e}")))?;
                say!("wrote salvaged copy to {out}");
            }
            if report.is_clean() {
                say!("clean");
                Ok(())
            } else {
                let problem = report.first_problem().unwrap_or_else(|| "corrupt".into());
                Err(fail(EXIT_CORRUPT, format!("{path}: {problem}")))
            }
        }
        "serve" => {
            // The positional trace is optional in store mode: a server
            // started with --store-root can begin empty and have traces
            // opened over the wire.
            let (path, flag_args) = match rest.first() {
                Some(p) if !p.starts_with("--") => (Some(p.as_str()), &rest[1..]),
                _ => (None, rest),
            };
            let flags = parse_flags(flag_args)?;
            cmd_serve(path, &flags)
        }
        "query" => {
            let op = rest.first().ok_or(USAGE)?;
            let flags = parse_flags(&rest[1..])?;
            cmd_query(op, &flags)
        }
        "drill" => {
            let flags = parse_flags(rest)?;
            cmd_drill(&flags)
        }
        "top" => {
            let flags = parse_flags(rest)?;
            cmd_top(&flags)
        }
        "scrape" => {
            let addr = rest.first().ok_or("scrape needs <host:port> [path]")?;
            let path = rest.get(1).map(|s| s.as_str()).unwrap_or("/metrics");
            // Bounded timeouts plus two retries: a scrape against a
            // hung or restarting endpoint exits 5 in seconds instead
            // of wedging the cron job that invoked it.
            let (status, body) =
                wet_serve::http_get_with(addr, path, std::time::Duration::from_secs(2), 2)
                    .map_err(|e| net_fail(&format!("cannot scrape {addr}{path}"), &e))?;
            say_block(&body);
            if status == 200 {
                Ok(())
            } else {
                Err(fail(EXIT_UNAVAILABLE, format!("{addr}{path} answered HTTP {status}")))
            }
        }
        "--help" | "-h" | "help" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command `{other}`\n{USAGE}").into()),
    }
}

/// Loads the trace (and, when available, the program) a server will
/// answer queries over: a sealed `.wetz`, or a finished capture
/// directory sealed in memory (whose stored program comes for free).
fn load_for_serve(path: &str, flags: &Flags) -> Result<(wet_core::Wet, Option<Program>)> {
    let p = std::path::Path::new(path);
    let (mut wet, mut program) = if p.is_dir() {
        let text = std::fs::read_to_string(p.join("program.wet"))
            .map_err(|e| fail(EXIT_IO, format!("cannot read stored program: {e}")))?;
        let program = parse_program(&text)?;
        let bl = BallLarus::new(&program);
        let mut wet = wet_core::capture::seal(&program, &bl, p, flags.threads)
            .map_err(|e| io_fail(&format!("cannot seal {path}"), &e))?;
        wet.compress();
        (wet, Some(program))
    } else {
        let mut f = std::io::BufReader::new(
            std::fs::File::open(path).map_err(|e| fail(EXIT_IO, format!("cannot open {path}: {e}")))?,
        );
        let wet = wet_core::Wet::read_from(&mut f)
            .map_err(|e| io_fail(&format!("cannot read {path}"), &e))?;
        (wet, None)
    };
    if let Some(src) = &flags.program {
        program = Some(load(src)?);
    }
    wet.config_mut().serve.cache_budget_bytes = flags.cache_budget;
    wet.config_mut().stream.num_threads = flags.threads;
    Ok((wet, program))
}

/// `wet serve`: run the query daemon until SIGTERM or `shutdown`. With
/// `--store-root` the daemon is multi-tenant: it may start empty and
/// serve `open`/`close`/`list` against the root; a positional trace (if
/// given) is preloaded as the default.
fn cmd_serve(path: Option<&str>, flags: &Flags) -> Result<()> {
    let listen = flags.listen.clone().ok_or("serve requires --listen ADDR")?;
    if flags.slow_ms.is_some() != flags.slow_log.is_some() {
        return Err(fail(EXIT_USAGE, "--slow-ms and --slow-log must be given together"));
    }
    // Pre-validate log paths so an operator typo is a crisp I/O
    // failure at startup, not a silently disabled log.
    for p in [&flags.access_log, &flags.slow_log, &flags.flight_dump].into_iter().flatten() {
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(p)
            .map_err(|e| fail(EXIT_IO, format!("cannot open log path {p}: {e}")))?;
    }
    let opts = wet_serve::ServeOptions {
        max_active: flags.max_active.max(1),
        queue_watermark: flags.queue,
        threads: flags.threads,
        store_root: flags.store_root.clone().map(std::path::PathBuf::from),
        store_budget: flags.store_budget,
        tenant_active: flags.tenant_active,
        access_log: flags.access_log.clone().map(std::path::PathBuf::from),
        access_log_max_bytes: flags.access_log_max_bytes.max(1),
        slow_log: flags.slow_log.clone().map(std::path::PathBuf::from),
        slow_ms: flags.slow_ms,
        flight_dump: flags.flight_dump.clone().map(std::path::PathBuf::from),
        debug_ops: flags.debug_ops,
        ..wet_serve::ServeOptions::default()
    };
    let server = match path {
        Some(p) => {
            let (wet, program) = load_for_serve(p, flags)?;
            wet_serve::Server::new(wet, program, opts)
        }
        None => {
            if flags.store_root.is_none() {
                return Err(fail(
                    EXIT_USAGE,
                    "serve needs a trace path, or --store-root for an empty multi-tenant store",
                ));
            }
            wet_serve::Server::with_store(opts)
        }
    };
    // The scrape endpoint reads the live wet-obs registry, so turn
    // recording on — the daemon's metrics exist to be scraped.
    let metrics = match &flags.metrics_listen {
        Some(addr) => {
            wet_obs::enable();
            let l = wet_serve::bind_metrics(addr)
                .map_err(|e| io_fail(&format!("cannot bind metrics listener {addr}"), &e))?;
            let stop = std::sync::Arc::new(AtomicBool::new(false));
            let handle = wet_serve::spawn_metrics(server.clone(), l, stop.clone());
            Some((handle, stop))
        }
        None => None,
    };
    let listener = wet_serve::bind(&listen).map_err(|e| io_fail(&format!("cannot bind {listen}"), &e))?;
    say!(
        "serving {} on {listen} (max-active {}, queue {}{}{})",
        path.unwrap_or("<store>"),
        flags.max_active.max(1),
        flags.queue,
        flags
            .store_root
            .as_deref()
            .map(|r| format!(", store-root {r}, store-budget {}", flags.store_budget))
            .unwrap_or_default(),
        flags
            .metrics_listen
            .as_deref()
            .map(|m| format!(", metrics on http://{m}"))
            .unwrap_or_default()
    );
    let served = server.serve(listener);
    if let Some((handle, stop)) = metrics {
        stop.store(true, Ordering::SeqCst);
        let _ = handle.join();
    }
    served.map_err(|e| io_fail("serve loop failed", &e))?;
    say!("drained: {}", server.stats_value().render());
    Ok(())
}

/// Maps a server error kind to this CLI's exit-code contract.
fn remote_fail(kind: &str, message: &str) -> Box<dyn Error> {
    let code = match kind {
        "corrupt" => EXIT_CORRUPT,
        "io" => EXIT_IO,
        "bad_request" | "forbidden" | "not_found" | "conflict" => EXIT_USAGE,
        _ => EXIT_UNAVAILABLE, // deadline, cancelled, shed, panic, unavailable
    };
    fail(code, format!("server answered {kind}: {message}"))
}

/// `wet query`: one request against a running server.
fn cmd_query(op: &str, flags: &Flags) -> Result<()> {
    use wet_serve::json::Value;
    let remote = flags.remote.clone().ok_or("query requires --remote ADDR")?;
    let known = [
        "ping", "stats", "cf_trace", "value_trace", "address_trace", "slice", "shutdown", "open",
        "close", "list", "dump-flight", "debug_panic",
    ];
    if !known.contains(&op) {
        return Err(format!("unknown op `{op}` (expected one of {})", known.join(", ")).into());
    }
    let mut pairs: Vec<(&str, Value)> = vec![("op", Value::Str(op.into()))];
    if let Some(trace) = &flags.trace {
        pairs.push(("trace", Value::Str(trace.clone())));
    }
    if let Some(tenant) = &flags.tenant {
        pairs.push(("tenant", Value::Str(tenant.clone())));
    }
    if let Some(path) = &flags.path {
        pairs.push(("path", Value::Str(path.clone())));
    }
    if let Some(stmt) = flags.stmt {
        pairs.push(("stmt", Value::Int(stmt as i64)));
    }
    if let Some(node) = flags.node {
        pairs.push(("node", Value::Int(node as i64)));
    }
    if let Some(k) = flags.k {
        pairs.push(("k", Value::Int(k as i64)));
    }
    if flags.backward {
        pairs.push(("dir", Value::Str("backward".into())));
    }
    if flags.degraded {
        pairs.push(("strict", Value::Bool(false)));
    }
    if flags.no_control {
        pairs.push(("control", Value::Bool(false)));
    }
    if let Some(ms) = flags.deadline_ms {
        pairs.push(("deadline_ms", Value::Int(ms as i64)));
    }
    if let Some(b) = flags.budget_bytes {
        pairs.push(("budget_bytes", Value::Int(b as i64)));
    }
    if let Some(ms) = flags.budget_ms {
        pairs.push(("budget_ms", Value::Int(ms as i64)));
    }
    let mut client = wet_serve::Client::connect(&remote)
        .map_err(|e| io_fail(&format!("cannot connect to {remote}"), &e))?;
    let reply = client
        .call_with_retries(pairs, flags.retries)
        .map_err(|e| io_fail("request failed", &e))?;
    match reply {
        wet_serve::Reply::Ok(result) => {
            say!("{}", result.render());
            Ok(())
        }
        wet_serve::Reply::Err { kind, message, .. } => Err(remote_fail(&kind, &message)),
    }
}

/// `wet drill`: replay misbehaving clients against a running server.
/// With `--access-log PATH` (pointing at the server's access log on a
/// shared filesystem) it additionally audits the ledger: every
/// completed request must appear in the log exactly once.
fn cmd_drill(flags: &Flags) -> Result<()> {
    if flags.chaos {
        return crate::chaos::cmd_chaos(flags);
    }
    if flags.overload {
        return crate::overload::cmd_overload(flags);
    }
    let remote = flags
        .remote
        .clone()
        .ok_or("drill requires --remote ADDR (or --chaos / --overload)")?;
    let report = wet_serve::run_drill(&remote, flags.seed, flags.count);
    say!(
        "drill: {} clients (seed {}): {} ok, {} deadline, {} cancelled, {} shed, {} other errors, {} conns dropped",
        report.clients, flags.seed, report.ok, report.deadline, report.cancelled,
        report.shed, report.other_errors, report.conns_dropped
    );
    say!("  {:<14} {:>5} {:>5} {:>6} {:>7}", "category", "sent", "ok", "typed", "killed");
    for (kind, row) in &report.by_kind {
        say!(
            "  {:<14} {:>5} {:>5} {:>6} {:>7}",
            kind, row.sent, row.ok, row.typed_error, row.killed
        );
    }
    wet_obs::counter_add("drill.requests_terminated", "total", report.terminated());
    wet_obs::counter_add("drill.conns_dropped", "total", report.conns_dropped);
    if !report.survived {
        return Err(fail(EXIT_UNAVAILABLE, "server did not answer after the drill"));
    }
    say!("server survived");
    if flags.idle > 0 {
        let storm = wet_serve::run_idle_storm(
            &remote,
            flags.idle,
            32,
            std::time::Duration::from_secs(2),
        );
        say!(
            "idle storm: {}/{} silent conns parked: {} probes ({} ok, {} typed, {} failed), worst {} us, {} missed the 2 s budget",
            storm.idle_connected, storm.idle_target, storm.probes, storm.probe_ok,
            storm.probe_typed, storm.probe_failed, storm.worst_us, storm.deadline_missed
        );
        wet_obs::counter_add("drill.idle_parked", "total", storm.idle_connected as u64);
        if !storm.clean() {
            return Err(fail(EXIT_UNAVAILABLE, "live requests missed deadlines under the idle storm"));
        }
        say!("live requests met deadlines under the idle storm");
    }
    if let Some(log) = &flags.access_log {
        audit_access_log(&remote, log)?;
    }
    Ok(())
}

/// The exactly-once audit: with the server quiescent, the number of
/// access-log lines (current file plus the rotated `.1`) must equal
/// the sum of all outcome counters. Lines are counted *before* the
/// `stats` probe, because a completed request writes its line before
/// its own bump can be observed by a later request — so at any quiet
/// point, lines-so-far equals completed-so-far.
fn audit_access_log(remote: &str, log: &str) -> Result<()> {
    use wet_serve::json::Value;
    // Let connection teardown finish server-side (workers for dropped
    // connections may still be completing their final requests).
    std::thread::sleep(std::time::Duration::from_millis(300));
    let count_lines = |p: &str| -> Result<i64> {
        match std::fs::read_to_string(p) {
            Ok(t) => Ok(t.lines().count() as i64),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(0),
            Err(e) => Err(io_fail(&format!("cannot read access log {p}"), &e)),
        }
    };
    let lines = count_lines(log)? + count_lines(&format!("{log}.1"))?;
    let mut client = wet_serve::Client::connect_with(
        remote,
        std::time::Duration::from_secs(2),
        std::time::Duration::from_secs(5),
    )
    .map_err(|e| net_fail(&format!("cannot connect to {remote}"), &e))?;
    let reply = client
        .call(vec![("op", Value::Str("stats".into()))])
        .map_err(|e| net_fail("stats request failed", &e))?;
    let stats = match reply {
        wet_serve::Reply::Ok(v) => v,
        wet_serve::Reply::Err { kind, message, .. } => return Err(remote_fail(&kind, &message)),
    };
    let completed = wet_serve::completed(&stats);
    if lines != completed {
        return Err(fail(
            EXIT_UNAVAILABLE,
            format!("access-log ledger mismatch: {lines} lines vs {completed} completed requests"),
        ));
    }
    say!("access log: {lines} lines == {completed} completed requests (exactly once)");
    Ok(())
}

/// `wet top`: poll a running daemon's `stats` op and render a live
/// operational view — request rate, per-op latency percentiles, queue
/// depth, store residency, and per-tenant activity.
fn cmd_top(flags: &Flags) -> Result<()> {
    use wet_serve::json::Value;
    let remote = flags.remote.clone().ok_or("top requires --remote ADDR")?;
    // A monitoring loop must not wedge on a hung daemon: bound the
    // connect, give every stats poll a reply budget, and retry a shed
    // poll a couple of times before exiting 5.
    let mut client = wet_serve::Client::connect_with(
        &remote,
        std::time::Duration::from_secs(2),
        std::time::Duration::from_secs(5),
    )
    .map_err(|e| net_fail(&format!("cannot connect to {remote}"), &e))?;
    let mut prev: Option<(std::time::Instant, i64)> = None;
    let mut i = 0usize;
    loop {
        if i > 0 {
            std::thread::sleep(std::time::Duration::from_millis(flags.interval_ms.max(50)));
        }
        let reply = client
            .call_with_retries(vec![("op", Value::Str("stats".into()))], 2)
            .map_err(|e| net_fail("stats request failed", &e))?;
        let stats = match reply {
            wet_serve::Reply::Ok(v) => v,
            wet_serve::Reply::Err { kind, message, .. } => return Err(remote_fail(&kind, &message)),
        };
        let now = std::time::Instant::now();
        let get = |k: &str| stats.get(k).and_then(Value::as_i64).unwrap_or(0);
        let total = wet_serve::completed(&stats);
        let rate = match prev {
            Some((t0, n0)) => {
                let dt = now.duration_since(t0).as_secs_f64();
                if dt > 0.0 { (total - n0) as f64 / dt } else { 0.0 }
            }
            None => 0.0,
        };
        prev = Some((now, total));
        say!(
            "wet top — {remote}  uptime {:.1}s  draining {}",
            get("uptime_ms") as f64 / 1000.0,
            stats.get("draining").and_then(Value::as_bool).unwrap_or(false),
        );
        let outcomes: Vec<String> = wet_serve::OUTCOMES.iter().map(|(k, _)| format!("{k} {}", get(k))).collect();
        say!("  req/s {rate:.1}   total {total}  ({})", outcomes.join(" "));
        say!("  active {}  queued {}", get("active"), get("queued"));
        say!(
            "  pressure {}  brownouts {}  queue-delay p99 {} us  retry-after {} ms",
            stats.get("pressure").and_then(Value::as_str).unwrap_or("?"),
            get("brownouts"),
            get("queue_delay_p99_us"),
            get("retry_after_ms")
        );
        if let Some(store) = stats.get("store") {
            let sg = |k: &str| store.get(k).and_then(Value::as_i64).unwrap_or(0);
            say!(
                "  store: {} traces  resident {} B  pinned {} B  lazy-decodes {}  evictions {}",
                sg("traces"), sg("resident_bytes"), sg("pinned_bytes"),
                sg("lazy_decodes"), sg("evictions")
            );
        }
        if let Some(ops) = stats.get("ops").and_then(Value::as_arr) {
            if !ops.is_empty() {
                say!("  {:<14} {:>8} {:>9} {:>9}", "op", "count", "p50_us", "p99_us");
                for row in ops {
                    let rg = |k: &str| row.get(k).and_then(Value::as_i64).unwrap_or(0);
                    say!(
                        "  {:<14} {:>8} {:>9} {:>9}",
                        row.get("op").and_then(Value::as_str).unwrap_or("?"),
                        rg("count"),
                        rg("p50_us"),
                        rg("p99_us")
                    );
                }
            }
        }
        if let Some(tenants) = stats.get("tenants").and_then(Value::as_arr) {
            if !tenants.is_empty() {
                let parts: Vec<String> = tenants
                    .iter()
                    .map(|t| {
                        // name:requests/shed — shed counts how many of
                        // this tenant's requests fairness turned away.
                        format!(
                            "{}:{}/{}",
                            t.get("tenant").and_then(Value::as_str).unwrap_or("?"),
                            t.get("requests").and_then(Value::as_i64).unwrap_or(0),
                            t.get("shed").and_then(Value::as_i64).unwrap_or(0)
                        )
                    })
                    .collect();
                say!("  tenants: {}", parts.join("  "));
            }
        }
        i += 1;
        if flags.iters > 0 && i >= flags.iters {
            break;
        }
    }
    Ok(())
}

fn save_if_requested(wet: &wet_core::Wet, flags: &Flags) -> Result<()> {
    if let Some(path) = &flags.save {
        let mut w = std::io::BufWriter::new(
            std::fs::File::create(path)
                .map_err(|e| fail(EXIT_IO, format!("cannot create {path}: {e}")))?,
        );
        wet.write_to(&mut w).map_err(|e| fail(EXIT_IO, format!("cannot write {path}: {e}")))?;
        say!("saved WET to {path}");
    }
    Ok(())
}

fn print_wet_report(wet: &wet_core::Wet, run: &wet_interp::RunResult) {
    let s = wet.sizes();
    say!("executed : {} statements, {} paths", run.stmts_executed, run.paths_executed);
    say!("nodes    : {}", wet.stats().nodes);
    say!("edges    : {} labeled (+{} inferred intra)", wet.stats().edges, wet.stats().inferred_edges);
    say!("orig     : {:>12} B  (ts {} / vals {} / edges {})", s.orig_total(), s.orig_ts, s.orig_vals, s.orig_edges);
    say!("tier-1   : {:>12} B  (ts {} / vals {} / edges {})", s.t1_total(), s.t1_ts, s.t1_vals, s.t1_edges);
    if wet.is_tier2() {
        say!("tier-2   : {:>12} B  (ts {} / vals {} / edges {})", s.t2_total(), s.t2_ts, s.t2_vals, s.t2_edges);
        say!("ratio    : {:.2}", s.ratio());
        if !wet.stats().methods.is_empty() {
            let mut parts: Vec<String> =
                wet.stats().methods.iter().map(|(m, n)| format!("{m}:{n}")).collect();
            parts.sort();
            say!("methods  : {}", parts.join(" "));
        }
    } else {
        say!("ratio t1 : {:.2}", s.ratio_t1());
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Serializes tests that mutate the process-global `WET_CRASH_AT`
    /// environment hook (shared with the replay module's tests).
    pub(crate) static CRASH_ENV_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn sample_file() -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("wet-cli-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sum.wet");
        std::fs::write(
            &path,
            "func f0 main(params: 0, regs: 4) {\n  b0:\n    r0 = in\n    r1 = #0\n    r2 = #0\n    jump b1\n  b1:\n    r3 = lt r1, r0\n    branch r3 ? b2 : b3\n  b2:\n    r1 = add r1, #1\n    r2 = add r2, r1\n    jump b1\n  b3:\n    out r2\n    ret r2\n}\n",
        )
        .unwrap();
        path
    }

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn run_and_trace_work() {
        let f = sample_file();
        let f = f.to_str().unwrap();
        dispatch(&s(&["run", f, "--inputs", "10"])).expect("run");
        dispatch(&s(&["trace", f, "--inputs", "10"])).expect("trace");
        dispatch(&s(&["disasm", f])).expect("disasm");
        dispatch(&s(&["dump", f, "--node", "0", "--inputs", "10"])).expect("dump");
        dispatch(&s(&["slice", f, "--stmt", "7", "--inputs", "10"])).expect("slice");
    }

    #[test]
    fn chaos_drill_passes_end_to_end() {
        // The full seeded schedule: every fault kind into a capture,
        // quarantine → repair → re-admit in the store, torn rotation
        // rename — all in-process, no server. Exit 0 is the assertion.
        dispatch(&s(&["drill", "--chaos", "--seed", "7"])).expect("chaos drill");
    }

    #[test]
    fn overload_drill_passes_end_to_end() {
        // The seeded brownout storm: 4× capacity across competing
        // tenants against an in-process daemon, asserting the whole
        // overload contract (typed + hinted rejections, brownout,
        // fairness, recovery, determinism). Exit 0 is the assertion.
        dispatch(&s(&["drill", "--overload", "--seed", "42"])).expect("overload drill");
    }

    #[test]
    fn workload_command_works() {
        dispatch(&s(&["workload", "gcc-like", "--target", "20000"])).expect("workload");
        dispatch(&s(&["workload", "gcc-like", "--target", "20000", "--threads", "2"]))
            .expect("workload --threads");
    }

    #[test]
    fn save_and_info_roundtrip() {
        let f = sample_file();
        let f = f.to_str().unwrap();
        let out = std::env::temp_dir().join("wet-cli-tests").join("saved.wetz");
        let out = out.to_str().unwrap().to_string();
        dispatch(&s(&["trace", f, "--inputs", "25", "--save", &out])).expect("trace --save");
        dispatch(&s(&["info", &out])).expect("info");
        assert!(dispatch(&s(&["info", f])).is_err(), "a .wet source is not a WETZ file");
    }

    #[test]
    fn profile_flag_and_compress_alias() {
        let f = sample_file();
        let f = f.to_str().unwrap();
        // `compress` is an alias of `trace`; --profile is accepted
        // anywhere on the line, in all three sink forms.
        dispatch(&s(&["compress", f, "--inputs", "10"])).expect("compress alias");
        dispatch(&s(&["--profile", "compress", f, "--inputs", "10"])).expect("--profile");
        dispatch(&s(&["trace", f, "--inputs", "10", "--profile=pretty"])).expect("profile=pretty");
        dispatch(&s(&["trace", f, "--inputs", "10", "--profile=prom"])).expect("profile=prom");
        assert!(dispatch(&s(&["trace", f, "--profile=bogus"])).is_err(), "unknown sink rejected");
        // The profiled run records compression spans and per-method
        // predictor counters.
        let report = wet_obs::snapshot();
        assert!(report.spans.iter().any(|sp| sp.name == "compress.tier2"), "span tree recorded");
        assert!(!report.predictor_rates().is_empty(), "per-method hit rates recorded");
        wet_obs::disable();
        wet_obs::reset();
    }

    #[test]
    fn fsck_detects_repairs_and_classifies_errors() {
        let f = sample_file();
        let f = f.to_str().unwrap();
        let dir = std::env::temp_dir().join("wet-cli-tests");
        let out = dir.join("fsck.wetz");
        let out_s = out.to_str().unwrap().to_string();
        dispatch(&s(&["trace", f, "--inputs", "25", "--save", &out_s])).expect("trace --save");
        dispatch(&s(&["fsck", &out_s])).expect("fsck on a fresh trace is clean");

        // Flip a bit inside the unique-values section: fsck must report
        // the file corrupt (exit code 3) but salvage must still work.
        let mut bytes = std::fs::read(&out).unwrap();
        let vals = *wet_core::section_spans(&bytes)
            .unwrap()
            .iter()
            .find(|sp| &sp.tag == b"VALS")
            .unwrap();
        bytes[vals.payload_start] ^= 1;
        let bad = dir.join("fsck-bad.wetz");
        std::fs::write(&bad, &bytes).unwrap();
        let bad_s = bad.to_str().unwrap().to_string();
        let e = dispatch(&s(&["fsck", &bad_s])).unwrap_err();
        assert_eq!(exit_code_of(e.as_ref()), EXIT_CORRUPT);

        // --repair still exits 3 on the damaged original, but its output
        // passes a second fsck cleanly.
        let fixed = dir.join("fsck-fixed.wetz");
        let fixed_s = fixed.to_str().unwrap().to_string();
        let e = dispatch(&s(&["fsck", &bad_s, "--repair", &fixed_s])).unwrap_err();
        assert_eq!(exit_code_of(e.as_ref()), EXIT_CORRUPT);
        dispatch(&s(&["fsck", &fixed_s])).expect("repaired copy is clean");

        // The remaining documented exit codes.
        let e = dispatch(&s(&["fsck", "/nonexistent.wetz"])).unwrap_err();
        assert_eq!(exit_code_of(e.as_ref()), EXIT_IO);
        let e = dispatch(&s(&["frobnicate"])).unwrap_err();
        assert_eq!(exit_code_of(e.as_ref()), EXIT_USAGE);
        let e = dispatch(&s(&["info", f])).unwrap_err();
        assert_eq!(exit_code_of(e.as_ref()), EXIT_CORRUPT, "a .wet source is corrupt input to info");
    }

    #[test]
    fn capture_seal_crash_resume_roundtrip() {
        let _g = CRASH_ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let f = sample_file();
        let f = f.to_str().unwrap();
        let dir = std::env::temp_dir().join("wet-cli-tests");
        let refz = dir.join("cap-ref.wetz");
        let refz_s = refz.to_str().unwrap().to_string();
        dispatch(&s(&["trace", f, "--inputs", "60", "--save", &refz_s])).expect("reference trace");

        // Uninterrupted capture: the sealed container must be
        // byte-identical to the plain `trace --save`.
        let cdir = dir.join("cap.wetz.seg");
        let _ = std::fs::remove_dir_all(&cdir);
        let cdir_s = cdir.to_str().unwrap().to_string();
        dispatch(&s(&["capture", f, "--dir", &cdir_s, "--inputs", "60", "--interval", "16"]))
            .expect("capture");
        dispatch(&s(&["fsck", &cdir_s])).expect("capture dir fsck is clean");
        let out = dir.join("cap-sealed.wetz");
        let out_s = out.to_str().unwrap().to_string();
        dispatch(&s(&["seal", &cdir_s, "-o", &out_s])).expect("seal");
        assert_eq!(std::fs::read(&out).unwrap(), std::fs::read(&refz).unwrap());
        dispatch(&s(&["fsck", &out_s])).expect("sealed container fsck is clean");

        // Crash drill via the env hook: the capture dies at the third
        // durable write with a torn tail, resumes, and re-seals to the
        // same bytes.
        let cdir2 = dir.join("cap-crash.wetz.seg");
        let _ = std::fs::remove_dir_all(&cdir2);
        let cdir2_s = cdir2.to_str().unwrap().to_string();
        std::env::set_var("WET_CRASH_AT", "3");
        std::env::set_var("WET_CRASH_MODE", "torn:99");
        let e = dispatch(&s(&["capture", f, "--dir", &cdir2_s, "--inputs", "60", "--interval", "16"]))
            .unwrap_err();
        std::env::remove_var("WET_CRASH_AT");
        std::env::remove_var("WET_CRASH_MODE");
        assert_eq!(exit_code_of(e.as_ref()), EXIT_IO, "simulated crash is an I/O failure");
        let e = dispatch(&s(&["seal", &cdir2_s, "-o", &out_s])).unwrap_err();
        assert_eq!(exit_code_of(e.as_ref()), EXIT_CORRUPT, "an unfinished capture must not seal");
        dispatch(&s(&["capture", f, "--dir", &cdir2_s])).expect("resume");
        dispatch(&s(&["seal", &cdir2_s, "-o", &out_s, "--threads", "2"])).expect("seal resumed");
        assert_eq!(
            std::fs::read(&out).unwrap(),
            std::fs::read(&refz).unwrap(),
            "resumed capture seals byte-identical to the uninterrupted run"
        );
    }

    #[test]
    fn errors_are_reported() {
        assert!(dispatch(&s(&["frobnicate"])).is_err());
        assert!(dispatch(&s(&["run", "/nonexistent.wet"])).is_err());
        assert!(dispatch(&s(&["workload", "nope"])).is_err());
        assert!(dispatch(&[]).is_err());
    }
}
