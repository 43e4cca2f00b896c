//! The repository's benchmark: one workload per run, end-to-end
//! metrics from an untraced run, per-layer metrics from a traced one.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload mem-read --seed 1 --seconds 40 --trace 0
//! ```
//!
//! Run it from the repository root. The human-readable report goes to
//! stderr. The last line of stdout is one JSON object: `correct`,
//! `attempted`, `failed` and `metrics` (every end-to-end metric with
//! `--trace 0`, every per-layer metric with `--trace 1`). The line
//! before it is the run's fingerprint: core count, compiler, build
//! profile, git commit and seed.
//!
//! A run measures `--seconds` in windows of [`WINDOW_SECS`];
//! `ops_per_s` and every percentile are medians over the windows. With
//! `--trace 1` the first half runs untraced and the second traced (see
//! [`trace`]), and the run reports the per-layer table.
//!
//! Workloads (all closed loop, [`WORKERS`] callers, each waiting for
//! its replies):
//!
//! * `mem-read` — in process, 90% GET / 7% PUT / 3% DEL, no WAL: the
//!   wait-free read path and the per-write decide + log append.
//! * `wal-write` — in process, 10% GET / 60% PUT / 30% DEL with the
//!   WAL on; set-up recovers a seeded WAL image.
//! * `tcp-batch` — a one-loop `NetServer` in this process, one
//!   generator thread keeping [`tcp::DEPTH`] BATCH frames of
//!   [`tcp::BATCH`] ops in flight on each of two connections.
//!
//! End-to-end metrics ([`END_TO_END`]): `frame_*` times one client
//! request — a single `Kv` call in process, one BATCH frame over TCP;
//! over TCP a GET or write is answered when its frame is, so `get_*`
//! and `write_*` there are the round trips of the frames carrying
//! them. Answers are checked against each caller's model; any wrong
//! answer or error makes the run incorrect (`error_rate`, printed on
//! stderr, is their share of the operations attempted).

mod check;
mod hist;
mod inproc;
mod layers;
mod tcp;
mod trace;

use ff_net::ServerConfig;
use ff_store::{Backend, StoreConfig};
use hist::Hist;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

// ---- Every store and server knob the benchmark sets ----------------

/// Shards per store.
pub const SHARDS: usize = 8;
/// Keys are drawn uniformly from `0..KEYS`.
pub const KEYS: usize = 4096;
/// Fault probability per CAS operation (kinds rotate across shards).
pub const FAULT_RATE: f64 = 0.2;
/// Log slots between checkpoints.
pub const CHECKPOINT_INTERVAL: usize = 64;
/// Callers per workload: worker threads in process, connections over
/// TCP.
pub const WORKERS: usize = 2;
/// `setup_s` is the median of at least this many set-ups per run…
const SETUP_MIN: usize = 9;
/// …and of as many more as fit this budget, up to [`SETUP_MAX`].
const SETUP_BUDGET: Duration = Duration::from_millis(500);
const SETUP_MAX: usize = 101;

/// Whether a run that has set up `done` times in `spent` sets up again.
pub fn set_up_again(done: usize, spent: Duration) -> bool {
    done < SETUP_MIN || (done < SETUP_MAX && spent < SETUP_BUDGET)
}

/// The store every workload runs: `backend` at [`FAULT_RATE`] with
/// rotating kinds, a combining store, and a WAL in `wal_dir` (default
/// group commit) when given.
pub fn store_config(seed: u64, backend: Backend, wal_dir: Option<&Path>) -> StoreConfig {
    let builder = StoreConfig::builder()
        .shards(SHARDS)
        .backend(backend)
        .fault_rate(FAULT_RATE)
        .rotate_kinds(true)
        .checkpoint_interval(CHECKPOINT_INTERVAL)
        .combining(true)
        .seed(seed);
    match wal_dir {
        Some(dir) => builder.data_dir(dir),
        None => builder,
    }
    .build()
    .expect("the benchmark's store configuration is valid")
}

/// The server `tcp-batch` runs.
pub fn server_config() -> ServerConfig {
    ServerConfig {
        loops: 1,
        ..Default::default()
    }
}

// ---- Metrics --------------------------------------------------------

/// End-to-end metrics, reported by untraced runs: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("ops_per_s", "ops/s"),
    ("get_p50_us", "us"),
    ("get_p99_us", "us"),
    ("write_p50_us", "us"),
    ("write_p99_us", "us"),
    ("frame_p50_us", "us"),
    ("frame_p99_us", "us"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// One reported number.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Nominal width of one measurement window. A phase's rate and
/// percentiles are medians over its windows, so a burst of
/// interference from outside the benchmark moves one window, not the
/// result.
pub const WINDOW_SECS: f64 = 1.0;

/// Latencies of one window, in ns.
#[derive(Default)]
pub struct Latencies {
    pub get: Hist,
    pub write: Hist,
    pub frame: Hist,
}

impl Latencies {
    pub fn merge(&self, other: &Latencies) {
        self.get.merge(&other.get);
        self.write.merge(&other.write);
        self.frame.merge(&other.frame);
    }
}

/// One caller's tallies, by the window its answers arrived in.
pub struct Tally {
    start: Instant,
    width_ns: u128,
    /// Operations completed per window.
    pub ops: Vec<u64>,
    pub lat: Vec<Latencies>,
}

impl Tally {
    /// `secs` from `start`, cut into equal windows of about
    /// [`WINDOW_SECS`].
    pub fn new(start: Instant, secs: f64) -> Self {
        let n = ((secs / WINDOW_SECS).round() as usize).max(1);
        Tally {
            start,
            width_ns: (secs * 1e9 / n as f64) as u128,
            ops: vec![0; n],
            lat: (0..n).map(|_| Latencies::default()).collect(),
        }
    }

    /// One window without end, for unmeasured work.
    pub fn unbounded() -> Self {
        Tally {
            start: Instant::now(),
            width_ns: u128::MAX,
            ops: vec![0],
            lat: vec![Latencies::default()],
        }
    }

    /// The window an answer at `t` falls in, if inside the measured
    /// span.
    pub fn window(&mut self, t: Instant) -> Option<usize> {
        let w = (t.saturating_duration_since(self.start).as_nanos() / self.width_ns) as usize;
        (w < self.ops.len()).then_some(w)
    }
}

/// What one measured phase produced.
pub struct Phase {
    width_secs: f64,
    /// Operations completed and their latencies, per window, summed
    /// over callers.
    windows: Vec<(u64, Latencies)>,
    /// PUTs and DELs issued.
    pub writes: u64,
    /// Operations issued, including any answered after the last
    /// window.
    pub attempted: u64,
    /// Wrong answers plus errors.
    pub failed: u64,
}

impl Phase {
    /// Sum the callers' tallies window by window.
    pub fn new(tallies: &[Tally]) -> Self {
        let n = tallies[0].ops.len();
        let windows: Vec<(u64, Latencies)> = (0..n)
            .map(|w| {
                let lat = Latencies::default();
                for t in tallies {
                    lat.merge(&t.lat[w]);
                }
                (tallies.iter().map(|t| t.ops[w]).sum(), lat)
            })
            .collect();
        Phase {
            width_secs: tallies[0].width_ns as f64 / 1e9,
            windows,
            writes: 0,
            attempted: 0,
            failed: 0,
        }
    }

    /// Median over windows of operations completed per second.
    pub fn ops_per_s(&self) -> f64 {
        median(
            self.windows
                .iter()
                .map(|(ops, _)| *ops as f64 / self.width_secs)
                .collect(),
        )
    }

    /// Median over windows of the `q`-quantile of `pick`, in µs.
    pub fn quantile_us(&self, pick: fn(&Latencies) -> &Hist, q: f64) -> f64 {
        median(
            self.windows
                .iter()
                .map(|(_, l)| pick(l))
                .filter(|h| h.count() > 0)
                .map(|h| h.quantile(q) / 1e3)
                .collect(),
        )
    }

    /// Every window's latencies together.
    pub fn total(&self) -> Latencies {
        let all = Latencies::default();
        for (_, l) in &self.windows {
            all.merge(l);
        }
        all
    }

    pub fn windows(&self) -> usize {
        self.windows.len()
    }
}

/// The outcome of a whole run.
#[derive(Default)]
pub struct Outcome {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    /// Why the run is incorrect, if it is.
    pub problems: Vec<String>,
    /// Extra report lines (sample counts, layer interactions).
    pub notes: Vec<String>,
}

impl Outcome {
    /// Fold a phase's answer tally into the run's.
    pub fn count(&mut self, phase: &Phase) {
        self.attempted += phase.attempted;
        self.failed += phase.failed;
    }

    pub fn problem(&mut self, p: impl Into<String>) {
        self.problems.push(p.into());
    }
}

fn get(l: &Latencies) -> &Hist {
    &l.get
}
fn write(l: &Latencies) -> &Hist {
    &l.write
}
fn frame(l: &Latencies) -> &Hist {
    &l.frame
}

/// The end-to-end metrics of an untraced phase.
pub fn end_to_end(phase: &Phase, setups: &[Duration], out: &mut Outcome) {
    let values = [
        phase.ops_per_s(),
        phase.quantile_us(get, 0.5),
        phase.quantile_us(get, 0.99),
        phase.quantile_us(write, 0.5),
        phase.quantile_us(write, 0.99),
        phase.quantile_us(frame, 0.5),
        phase.quantile_us(frame, 0.99),
        peak_rss_mb(),
        median(setups.iter().map(Duration::as_secs_f64).collect()),
    ];
    out.metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| Metric { name, value, unit })
        .collect();
    let total = phase.total();
    for (name, h) in [
        ("get", get(&total)),
        ("write", write(&total)),
        ("frame", frame(&total)),
    ] {
        out.notes.push(format!(
            "{name}: {} samples over {} windows, {} beyond the whole run's p99; whole-run p95 {:.2} us, p99 {:.2} us",
            h.count(),
            phase.windows(),
            h.beyond(0.99),
            h.quantile(0.95) / 1e3,
            h.quantile(0.99) / 1e3,
        ));
    }
    out.notes.push(format!(
        "ops_per_s by window (k): {:?}",
        phase
            .windows
            .iter()
            .map(|(ops, _)| (*ops as f64 / phase.width_secs / 1e3).round())
            .collect::<Vec<_>>()
    ));
    out.notes.push(format!(
        "frame p99 by window (us): {:?}",
        phase
            .windows
            .iter()
            .map(|(_, l)| (l.frame.quantile(0.99) / 1e3).round())
            .collect::<Vec<_>>()
    ));
    out.notes.push(format!(
        "setup_s: median of {} set-ups, {:.6}..{:.6} s",
        setups.len(),
        setups.iter().min().unwrap_or(&Duration::ZERO).as_secs_f64(),
        setups.iter().max().unwrap_or(&Duration::ZERO).as_secs_f64(),
    ));
}

/// Median of `v` (mean of the middle two for an even count).
pub fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// This process's peak resident set (VmHWM), in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

// ---- The command line -------------------------------------------------

/// Workload names, in `BENCHMARK.json` order.
pub const WORKLOADS: &[&str] = &["mem-read", "wal-write", "tcp-batch"];

/// A parsed invocation.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value) => workload = Some(value.to_string()),
            "--workload" => return Err(format!("unknown workload {value:?}")),
            "--seed" => {
                seed = Some(
                    match value.strip_prefix("0x") {
                        Some(hex) => u64::from_str_radix(hex, 16),
                        None => value.parse(),
                    }
                    .map_err(|e| format!("bad --seed {value:?}: {e}"))?,
                )
            }
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|e| format!("bad --seconds {value:?}: {e}"))?;
                if !(0.5..=120.0).contains(&s) {
                    return Err(format!("--seconds {s} outside 0.5..=120"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// Scratch space for WAL images and span files, under the directory
/// the benchmark runs from.
pub fn work_dir() -> PathBuf {
    PathBuf::from(".perfbench")
}

fn json_str(s: &str) -> String {
    let escaped: String = s
        .chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            c if c.is_control() => vec![' '],
            c => vec![c],
        })
        .collect();
    format!("\"{escaped}\"")
}

fn fingerprint(args: &Args) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    // Look for a repository here only: a checkout without `.git` must
    // not pick up the commit of some directory above it.
    let here = std::env::current_dir().unwrap_or_default();
    let commit = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .env("GIT_CEILING_DIRECTORIES", here.parent().unwrap_or(&here))
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    format!(
        "{{\"fingerprint\": {{\"nproc\": {nproc}, \"rustc\": {}, \"profile\": {}, \"commit\": {}, \
         \"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}}}}}",
        json_str(env!("PERFBENCH_RUSTC")),
        json_str(if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        }),
        json_str(&commit),
        json_str(&args.workload),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    )
}

fn result_line(out: &Outcome) -> String {
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "{}: {{\"value\": {v}, \"unit\": {}}}",
                json_str(m.name),
                json_str(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failed == 0 && out.problems.is_empty() && out.attempted > 0,
        out.attempted,
        out.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1]",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let out = match args.workload.as_str() {
        "mem-read" => inproc::run(&args, inproc::MEM_READ),
        "wal-write" => inproc::run(&args, inproc::WAL_WRITE),
        _ => tcp::run(&args),
    };
    eprintln!(
        "perfbench {} seed {} trace {}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    for m in &out.metrics {
        eprintln!("  {:<28} {:>16.4} {}", m.name, m.value, m.unit);
    }
    let error_rate = out.failed as f64 / out.attempted.max(1) as f64;
    eprintln!("  {:<28} {:>16.4} fraction", "error_rate", error_rate);
    for n in &out.notes {
        eprintln!("  # {n}");
    }
    for p in &out.problems {
        eprintln!("  ! {p}");
    }
    println!("{}", fingerprint(&args));
    println!("{}", result_line(&out));
    if out.failed == 0 && out.problems.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_lists_every_metric_with_its_unit() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let flat: String = json.split_whitespace().collect();
        for &(name, unit) in END_TO_END.iter().chain(layers::PER_LAYER) {
            let entry = format!("{{\"name\":\"{name}\",\"unit\":\"{unit}\"");
            assert!(flat.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for w in WORKLOADS {
            assert!(flat.contains(&format!("{{\"name\":\"{w}\",\"why\":")));
        }
        let names = flat.matches("\"name\":").count();
        assert_eq!(
            names,
            WORKLOADS.len() + END_TO_END.len() + layers::PER_LAYER.len()
        );
    }

    #[test]
    fn arguments_are_checked() {
        let argv = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
        let a = parse_args(&argv(
            "--workload tcp-batch --seed 0x10 --seconds 3 --trace 1",
        ))
        .expect("valid");
        assert_eq!((a.seed, a.seconds, a.trace), (16, 3.0, true));
        assert!(parse_args(&argv("--workload nope")).is_err());
        assert!(parse_args(&argv("--workload mem-read --trace 2")).is_err());
        assert!(parse_args(&argv("--seed 1")).is_err());
    }
}
