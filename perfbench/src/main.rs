//! End-to-end and per-layer benchmark of the WET pipeline.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <ingest|query-scan|query-walk> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. `--trace 0` measures the untraced
//! system and reports the end-to-end metrics; `--trace 1` wraps every
//! call into a layer's public API in an in-memory span and reports the
//! per-layer metrics (spans land in `.bench_build/perfbench-spans/`).
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. `BENCHMARK.json` at
//! the repository root documents each workload and metric.

mod ingest;
mod query;
mod spans;
mod stats;

use std::collections::BTreeMap;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use wet_core::Wet;

/// Set-ups timed before the timed window (the first from process
/// start) and, in an untraced run, after it; `setup_s` is the median of
/// all of them. Splitting them spreads the samples over the run, so one
/// slow spell of a shared host moves fewer of them.
pub const SETUPS_BEFORE: usize = 3;
pub const SETUPS_AFTER: usize = 2;

/// End-to-end metrics, reported by every workload with `--trace 0`.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("req_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("wetz_bytes_per_stmt", "B/stmt"),
];

/// Per-layer metrics, reported by every workload with `--trace 1`; a
/// layer the workload does not exercise reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("interp.run.secs", "s"),
    ("build.events.secs", "s"),
    ("build.finish.secs", "s"),
    ("compress.tier2.secs", "s"),
    ("compress.tier2.ratio", "ratio"),
    ("serial.write.secs", "s"),
    ("serial.write.bytes", "B"),
    ("store.open.secs", "s"),
    ("store.ensure.secs", "s"),
    ("store.ensure.calls", "count"),
    ("store.lazy_decodes", "count"),
    ("store.evictions", "count"),
    ("store.hit_ratio", "ratio"),
    ("query.value_trace.secs", "s"),
    ("query.address_trace.secs", "s"),
    ("query.rows", "count"),
    ("query.cf_trace_forward.secs", "s"),
    ("query.cf_trace_backward.secs", "s"),
    ("query.backward_slice.secs", "s"),
    ("serve.handle_frame.secs", "s"),
    ("serve.socket.secs", "s"),
    ("serve.wait.secs", "s"),
    ("trace.overhead", "ratio"),
];

/// Command-line arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
    /// Process start: the first set-up is timed from here.
    pub origin: Instant,
}

fn parse_args(origin: Instant) -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.unwrap_or(20.0);
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: Duration::from_secs_f64(seconds),
        trace: trace.unwrap_or(false),
        origin,
    })
}

/// What a workload hands back: op counts, metric values by name, and
/// human-readable lines printed ahead of the JSON result.
#[derive(Default)]
pub struct Report {
    /// Distinct operations of the workload's fixed list (a request, or
    /// the seal of one program) that ran in the window. Each runs many
    /// times; counting each once keeps the count the same from run to
    /// run whatever the throughput.
    pub attempted: u64,
    /// Of those, the operations that errored, were refused, or answered
    /// wrongly at least once. The log gives the count of every failed
    /// run of an operation, too.
    pub failed: u64,
    /// Answers the benchmark could not check; any makes `correct` false.
    pub unchecked: u64,
    pub metrics: BTreeMap<&'static str, f64>,
    pub log: Vec<String>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn note(&mut self, line: String) {
        self.log.push(line);
    }
}

/// Scratch directory for one run, removed when dropped.
pub struct WorkDir(PathBuf);

impl WorkDir {
    fn create() -> std::io::Result<WorkDir> {
        let dir = Path::new(".bench_build").join(format!("perfbench-run-{}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(WorkDir(dir))
    }

    pub fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Runs set-up `n` for each `n` in `ns`; returns each one's seconds.
/// What a set-up built is dropped after its timing ends.
pub fn time_setups<T>(
    ns: Range<usize>,
    mut setup: impl FnMut(usize) -> Result<T, String>,
) -> Result<Vec<f64>, String> {
    ns.map(|n| {
        let start = Instant::now();
        let built = setup(n)?;
        let secs = start.elapsed().as_secs_f64();
        drop(built);
        Ok(secs)
    })
    .collect()
}

/// Writes `wet` as a `.wetz` container without fsync; returns its size.
pub fn write_container(wet: &Wet, path: &Path) -> std::io::Result<u64> {
    let mut w = BufWriter::new(File::create(path)?);
    wet.write_to(&mut w)?;
    w.flush()?;
    Ok(w.get_ref().metadata()?.len())
}

/// Writes the traced run's spans to `.bench_build/perfbench-spans/`.
pub fn save_spans(args: &Args, spans: &spans::Spans) -> std::io::Result<PathBuf> {
    let dir = Path::new(".bench_build").join("perfbench-spans");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{}-seed{}.jsonl", args.workload, args.seed));
    let mut w = BufWriter::new(File::create(&path)?);
    spans.write_jsonl(&mut w)?;
    w.flush()?;
    Ok(path)
}

fn render(report: &Report, names: &[(&str, &str)], required: bool) -> Result<String, String> {
    if let Some(extra) = report
        .metrics
        .keys()
        .find(|k| !names.iter().any(|(n, _)| n == *k))
    {
        return Err(format!("metric {extra} is not in this run's list"));
    }
    let mut metrics = Vec::new();
    for &(name, unit) in names {
        let value = match report.metrics.get(name) {
            Some(&v) => v,
            None if !required => 0.0,
            None => return Err(format!("metric {name} was not measured")),
        };
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite"));
        }
        metrics.push(format!(
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        ));
    }
    let correct = report.unchecked == 0 && report.attempted > 0;
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted,
        report.failed,
        metrics.join(", ")
    ))
}

fn run(args: &Args) -> Result<String, String> {
    let work = WorkDir::create().map_err(|e| format!("work dir: {e}"))?;
    let report = match args.workload.as_str() {
        "ingest" => ingest::run(args, &work)?,
        "query-scan" => query::run(query::Workload::Scan, args, &work)?,
        "query-walk" => query::run(query::Workload::Walk, args, &work)?,
        other => {
            return Err(format!(
                "unknown workload `{other}` (ingest, query-scan, query-walk)"
            ))
        }
    };
    for line in &report.log {
        println!("{line}");
    }
    if args.trace {
        render(&report, PER_LAYER, false)
    } else {
        render(&report, END_TO_END, true)
    }
}

fn main() -> ExitCode {
    let origin = Instant::now();
    let args = match parse_args(origin) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(json) => {
            println!("{json}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::{END_TO_END, PER_LAYER};

    /// The metric lists here and in `BENCHMARK.json` must agree, in order.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
        let listed: Vec<(&str, &str)> = text
            .split("{\"name\": \"")
            .skip(1)
            .filter_map(|entry| {
                let (name, rest) = entry.split_once('"')?;
                let unit = rest.strip_prefix(", \"unit\": \"")?.split('"').next()?;
                Some((name, unit))
            })
            .collect();
        let ours: Vec<(&str, &str)> = END_TO_END.iter().chain(PER_LAYER).copied().collect();
        assert_eq!(listed, ours);
    }
}
