//! Closed-loop benchmark of the network path: `NetClient`s over
//! localhost TCP against the reactor `NetServer`.
//!
//! ```text
//! cargo run --release -p ff-bench --bin netbench -- \
//!     --connections 1000 --shards 4 --secs 5 --batch 8
//! cargo run --release -p ff-bench --bin netbench -- --sweep
//! ```
//!
//! Two arms, mirroring the store soak:
//!
//! * **robust** — measured arm: ops/s and p50/p95/p99 over localhost,
//!   faults firing at `--fault-rate`. Must stay consistent; the
//!   process exits 1 if any shard diverges or any client errors.
//! * **naive** — witness arm (skip with `--skip-naive`): short runs at
//!   a fault rate of at least 0.2, retried over seeds until flagged —
//!   a divergence error frame at a client or a failed post-drain
//!   verify. Exits 1 if it is *never* flagged.
//!
//! The robust arm is driven **multiplexed**: a handful of driver
//! threads each own a slice of the connection fleet and keep exactly
//! one BATCH frame in flight per connection via [`NetClient::send`] /
//! [`NetClient::collect`] — send on every lane, then collect on every
//! lane. That is how a 1-core box loads the reactor with thousands of
//! connections; a thread per connection stopped being an option the
//! moment `--connections` grew a third digit. The witness arm keeps
//! the thread-per-client [`drive_clients`] loop (clamped to at most 4
//! connections) so its divergence observation still flows through the
//! plain [`Kv`] path.
//!
//! `--sweep` replaces the single robust run with the connection-scaling
//! trajectory 100 → 1,000 → 10,000. Connections the OS refuses (fd
//! limits at the top point) are reported as `achieved_connections`, not
//! treated as failure. Every report embeds the retired
//! thread-per-connection baseline (3 connections, ~305k ops/s, p99
//! ≈ 262µs) so the JSON carries its own comparison.
//!
//! The full report lands in `BENCH_net.json` (`--json-out` overrides).

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ff_net::client::response_error;
use ff_net::wire::{Request, Response};
use ff_net::{NetClient, NetServer, ServerConfig};
use ff_store::{
    drive_clients, Backend, DurabilityConfig, KvOp, MetricsSnapshot, Store, StoreConfig,
    StoreError, StoreMetrics, WorkloadMix, KV_MAX,
};
use ff_workload::JsonValue;

/// The retired thread-per-connection server's best measured run (3
/// connections, `drive_clients`, batch 8, 1-core CI box) — the bar the
/// reactor has to clear while holding 100–10,000 connections.
///
/// **Historical**: that server was deleted when the reactor landed, so
/// this number can never be regenerated — the JSON marks it
/// `"historical": true` so downstream tooling doesn't mistake it for a
/// measured arm of the current run.
struct Baseline {
    connections: usize,
    ops_per_sec: f64,
    p99_us: f64,
}

const BASELINE: Baseline = Baseline {
    connections: 3,
    ops_per_sec: 305_000.0,
    p99_us: 262.0,
};

impl Baseline {
    fn to_json(&self) -> JsonValue {
        JsonValue::Object(vec![
            (
                "driver".into(),
                JsonValue::String("thread-per-connection".into()),
            ),
            ("historical".into(), JsonValue::Bool(true)),
            (
                "connections".into(),
                JsonValue::Number(self.connections as f64),
            ),
            ("ops_per_sec".into(), JsonValue::Number(self.ops_per_sec)),
            ("p99_us".into(), JsonValue::Number(self.p99_us)),
        ])
    }
}

/// The `--sweep` trajectory: two orders of magnitude past the old
/// server's practical ceiling.
const SWEEP_POINTS: [usize; 3] = [100, 1_000, 10_000];

struct BenchConfig {
    backend: Backend,
    connections: usize,
    shards: usize,
    secs: f64,
    batch: usize,
    read_pct: u32,
    keyspace: u32,
    fault_rate: f64,
    checkpoint_interval: usize,
    seed: u64,
    loops: usize,
    drivers: usize,
    combining: bool,
    sweep: bool,
    skip_naive: bool,
    data_dir: Option<String>,
    group_commit: usize,
    recover: bool,
    json_out: String,
}

impl Default for BenchConfig {
    fn default() -> Self {
        BenchConfig {
            backend: Backend::robust(),
            connections: 4,
            shards: 4,
            secs: 3.0,
            batch: 8,
            read_pct: 50,
            keyspace: 1024,
            fault_rate: 0.2,
            checkpoint_interval: 64,
            seed: 0xBE7,
            loops: 0,
            drivers: 0,
            combining: false,
            sweep: false,
            skip_naive: false,
            data_dir: None,
            group_commit: DurabilityConfig::default().group_commit,
            recover: false,
            json_out: "BENCH_net.json".to_string(),
        }
    }
}

struct ArmReport {
    backend: Backend,
    snapshot: MetricsSnapshot,
    ops_served: u64,
    connections_requested: usize,
    connections_achieved: usize,
    client_errors: Vec<String>,
    divergence_errors: usize,
    verify_consistent: bool,
    diverged_shards: Vec<usize>,
    shutdown_errors: Vec<String>,
}

impl ArmReport {
    fn flagged(&self) -> bool {
        self.divergence_errors > 0 || !self.verify_consistent
    }

    fn to_json(&self) -> JsonValue {
        JsonValue::Object(vec![
            (
                "backend".into(),
                JsonValue::String(self.backend.name().into()),
            ),
            (
                "connections".into(),
                JsonValue::Number(self.connections_requested as f64),
            ),
            (
                "achieved_connections".into(),
                JsonValue::Number(self.connections_achieved as f64),
            ),
            (
                "ops_served".into(),
                JsonValue::Number(self.ops_served as f64),
            ),
            (
                "ops_per_sec".into(),
                JsonValue::Number(self.snapshot.total_ops_per_sec()),
            ),
            (
                "speedup_vs_baseline".into(),
                JsonValue::Number(self.snapshot.total_ops_per_sec() / BASELINE.ops_per_sec),
            ),
            ("latency".into(), self.snapshot.to_json()),
            (
                "client_errors".into(),
                JsonValue::Array(
                    self.client_errors
                        .iter()
                        .map(|e| JsonValue::String(e.clone()))
                        .collect(),
                ),
            ),
            (
                "divergence_errors".into(),
                JsonValue::Number(self.divergence_errors as f64),
            ),
            (
                "verify_consistent".into(),
                JsonValue::Bool(self.verify_consistent),
            ),
            (
                "diverged_shards".into(),
                JsonValue::Array(
                    self.diverged_shards
                        .iter()
                        .map(|&s| JsonValue::Number(s as f64))
                        .collect(),
                ),
            ),
            (
                "shutdown_errors".into(),
                JsonValue::Array(
                    self.shutdown_errors
                        .iter()
                        .map(|e| JsonValue::String(e.clone()))
                        .collect(),
                ),
            ),
        ])
    }

    fn print_summary(&self, label: &str) {
        // Frame round-trip percentiles: every class records the same
        // frame samples, so read whichever class saw the most ops (the
        // thread-per-client witness arm still lands in `batches`).
        let s = &self.snapshot;
        let busiest = [&s.reads, &s.writes, &s.deletes, &s.batches]
            .into_iter()
            .max_by_key(|c| c.ops)
            .expect("four candidate classes");
        println!(
            "{label}: {}/{} connection(s), {} ops served, {:.0} ops/sec \
             (×{:.2} vs thread-per-connection baseline), \
             p50 {:.0}µs p95 {:.0}µs p99 {:.0}µs, consistent: {}",
            self.connections_achieved,
            self.connections_requested,
            self.ops_served,
            s.total_ops_per_sec(),
            s.total_ops_per_sec() / BASELINE.ops_per_sec,
            busiest.p50_ns as f64 / 1000.0,
            busiest.p95_ns as f64 / 1000.0,
            busiest.p99_ns as f64 / 1000.0,
            self.verify_consistent,
        );
    }
}

// ---------------------------------------------------------------------------
// Multiplexed driver
// ---------------------------------------------------------------------------

/// SplitMix64 — the same generator the soak workers use, so the two
/// drivers issue statistically identical workloads.
fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Mirrors the soak's operation mix: `read_pct` gets, the remainder
/// split 2:1 between puts and dels.
fn random_op(rng: &mut u64, keyspace: u32, read_pct: u32) -> KvOp {
    let r = mix(rng);
    let key = (r >> 32) as u32 % keyspace;
    let dice = (r % 100) as u32;
    if dice < read_pct {
        KvOp::Get(key)
    } else if dice < read_pct + (100 - read_pct) * 2 / 3 {
        KvOp::Put(key, (r as u32) & KV_MAX)
    } else {
        KvOp::Del(key)
    }
}

/// One driven connection: its client, its private workload stream, and
/// the first error that retired it (errors are sticky, like the soak's
/// workers — hammering a diverged shard teaches nothing).
struct Lane {
    client: NetClient,
    rng: u64,
    error: Option<StoreError>,
}

struct MuxOutcome {
    clients: Vec<NetClient>,
    errors: Vec<StoreError>,
}

/// Drive `clients` closed-loop until `deadline` from `drivers` threads,
/// each cycling send-on-every-lane → collect-on-every-lane so every
/// connection keeps exactly one BATCH frame in flight.
///
/// Latency is the full send→collect round trip, attributed **at
/// collect time to every operation class the frame carried** — the
/// driver knows what it put in each frame, so GETs land in `reads`,
/// PUTs in `writes`, DELs in `deletes`, each class getting the frame's
/// round trip as its batched-call sample (per-op latency inside one
/// frame is not independently observable). Op throughput is accounted
/// per class too, so `metrics.batches` intentionally stays empty for
/// this driver: recording the same operations there as well would
/// double-count them in `total_ops_per_sec`.
fn drive_multiplexed(
    clients: Vec<NetClient>,
    mix_cfg: &WorkloadMix,
    deadline: Instant,
    metrics: &StoreMetrics,
    drivers: usize,
) -> MuxOutcome {
    let drivers = drivers.clamp(1, clients.len().max(1));
    let mut groups: Vec<Vec<Lane>> = (0..drivers).map(|_| Vec::new()).collect();
    for (i, client) in clients.into_iter().enumerate() {
        groups[i % drivers].push(Lane {
            client,
            rng: mix_cfg.seed ^ (i as u64) << 32,
            error: None,
        });
    }
    let batch = mix_cfg.batch.max(1);
    let keyspace = mix_cfg.keyspace.max(1);
    let read_pct = mix_cfg.read_pct;

    let groups: Vec<Vec<Lane>> = std::thread::scope(|scope| {
        let workers: Vec<_> = groups
            .into_iter()
            .map(|mut lanes| {
                let metrics = &*metrics;
                scope.spawn(move || {
                    while Instant::now() < deadline {
                        // Send phase: one BATCH frame per live lane.
                        let mut round = Vec::with_capacity(lanes.len());
                        for (li, lane) in lanes.iter_mut().enumerate() {
                            if lane.error.is_some() {
                                continue;
                            }
                            let ops: Vec<KvOp> = (0..batch)
                                .map(|_| random_op(&mut lane.rng, keyspace, read_pct))
                                .collect();
                            let mut classes = [0u64; 3];
                            for op in &ops {
                                match op {
                                    KvOp::Get(_) => classes[0] += 1,
                                    KvOp::Put(..) => classes[1] += 1,
                                    KvOp::Del(_) => classes[2] += 1,
                                }
                            }
                            let start = Instant::now();
                            match lane.client.send(&[Request::Batch(ops)]) {
                                Ok(ticket) => round.push((li, ticket, start, classes)),
                                Err(e) => lane.error = Some(e),
                            }
                        }
                        if round.is_empty() {
                            break; // every lane is dead
                        }
                        // Collect phase: redeem in send order.
                        for (li, ticket, start, classes) in round {
                            let lane = &mut lanes[li];
                            match lane.client.collect(ticket) {
                                Ok(mut resps) => match resps.pop() {
                                    Some(Response::Batch(values)) if values.len() == batch => {
                                        let nanos = start.elapsed().as_nanos() as u64;
                                        let [gets, puts, dels] = classes;
                                        if gets > 0 {
                                            metrics.reads.record_many(nanos, gets);
                                        }
                                        if puts > 0 {
                                            metrics.writes.record_many(nanos, puts);
                                        }
                                        if dels > 0 {
                                            metrics.deletes.record_many(nanos, dels);
                                        }
                                    }
                                    Some(Response::Batch(values)) => {
                                        lane.error = Some(StoreError::Protocol(format!(
                                            "batch of {batch} ops answered with {} values",
                                            values.len()
                                        )));
                                    }
                                    Some(other) => lane.error = Some(response_error(other)),
                                    None => unreachable!("one frame per ticket"),
                                },
                                Err(e) => lane.error = Some(e),
                            }
                        }
                    }
                    lanes
                })
            })
            .collect();
        workers.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let mut clients = Vec::new();
    let mut errors = Vec::new();
    for lane in groups.into_iter().flatten() {
        clients.push(lane.client);
        errors.extend(lane.error);
    }
    MuxOutcome { clients, errors }
}

/// Socket timeout for the measured fleet. At the top of the sweep a
/// closed-loop round trip is seconds, not microseconds — the server
/// scans every connection per tick — so the default 10 s client
/// timeout would misreport tail latency as an I/O error.
const FLEET_TIMEOUT: Duration = Duration::from_secs(60);

/// The soft fd limit, from `/proc/self/limits` (None off Linux — then
/// the only guard is the connect loop's own failure handling).
fn fd_budget() -> Option<usize> {
    let limits = std::fs::read_to_string("/proc/self/limits").ok()?;
    let line = limits.lines().find(|l| l.starts_with("Max open files"))?;
    line.split_whitespace().nth(3)?.parse().ok()
}

/// Connect up to `want` clients, tolerating the OS running out of file
/// descriptors near the top of the sweep: the achieved fleet is driven
/// and reported instead of aborting the run.
///
/// Client and server share one process here, so every connection costs
/// **two** descriptors. Exhausting the table is asymmetric: the
/// client-side `connect` still succeeds through the listener backlog
/// while the server-side `accept` fails, leaving lanes that connected
/// but will never be served. Capping against the soft limit up front
/// keeps the whole achieved fleet answerable.
fn connect_fleet(addr: SocketAddr, want: usize) -> Vec<NetClient> {
    let want = match fd_budget() {
        Some(budget) => {
            let cap = budget.saturating_sub(256) / 2;
            if cap < want {
                eprintln!(
                    "netbench: fd limit {budget} caps the fleet at {cap} of {want} \
                     requested connection(s)"
                );
            }
            want.min(cap.max(1))
        }
        None => want,
    };
    let mut clients: Vec<NetClient> = Vec::with_capacity(want);
    while clients.len() < want {
        let mut attempts = 0;
        match loop {
            match NetClient::connect_with_timeout(addr, FLEET_TIMEOUT) {
                Ok(c) => break Some(c),
                Err(e) => {
                    attempts += 1;
                    if attempts >= 5 {
                        eprintln!(
                            "netbench: connected {}/{want} ({e}); driving the achieved fleet",
                            clients.len()
                        );
                        break None;
                    }
                    // Transient refusals (accept backlog) deserve a
                    // beat; fd exhaustion will fail all 5 and fall out.
                    std::thread::sleep(Duration::from_millis(10));
                }
            }
        } {
            Some(c) => clients.push(c),
            None => break,
        }
    }
    clients
}

/// One full arm: store + reactor server + closed-loop clients + drain +
/// verify over the server's retired replicas (one per event loop that
/// served).
fn run_arm(
    cfg: &BenchConfig,
    backend: Backend,
    fault_rate: f64,
    secs: f64,
    seed: u64,
    connections: usize,
    multiplexed: bool,
) -> ArmReport {
    let mut builder = StoreConfig::builder()
        .shards(cfg.shards)
        .backend(backend.clone())
        .fault_rate(if backend.injects_faults() {
            fault_rate
        } else {
            0.0
        })
        .rotate_kinds(backend.injects_faults())
        .checkpoint_interval(cfg.checkpoint_interval)
        .combining(cfg.combining)
        .seed(seed);
    if let Some(base) = &cfg.data_dir {
        // Arms run sequentially but must not replay each other's logs:
        // every (backend, connections) arm gets its own directory, so a
        // later --recover run finds exactly its own history.
        builder = builder
            .data_dir(format!("{base}/{}-c{}", backend.name(), connections))
            .group_commit(cfg.group_commit);
    }
    let store_config = builder.build().unwrap_or_else(|e| {
        eprintln!("invalid configuration: {e}");
        std::process::exit(2);
    });
    let store = if cfg.recover {
        let (store, report) = Store::recover(store_config).unwrap_or_else(|e| {
            eprintln!("RECOVERY REFUSED: {e}");
            std::process::exit(1);
        });
        eprintln!("{}", report.render());
        Arc::new(store)
    } else {
        Arc::new(Store::new(store_config))
    };
    let server = NetServer::start(
        Arc::clone(&store),
        "127.0.0.1:0",
        ServerConfig {
            max_connections: connections + 16,
            loops: cfg.loops,
            ..ServerConfig::default()
        },
    )
    .unwrap_or_else(|e| {
        eprintln!("failed to bind: {e}");
        std::process::exit(1);
    });
    let clients = connect_fleet(server.addr(), connections);
    if clients.is_empty() {
        eprintln!("no connection could be established");
        std::process::exit(1);
    }
    let achieved = clients.len();

    let metrics = StoreMetrics::default();
    let mix_cfg = WorkloadMix {
        read_pct: cfg.read_pct,
        keyspace: cfg.keyspace,
        seed,
        batch: cfg.batch,
    };
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(secs);
    let (driven_clients, errors) = if multiplexed {
        let drivers = if cfg.drivers > 0 {
            cfg.drivers
        } else {
            achieved.clamp(1, 4)
        };
        let outcome = drive_multiplexed(clients, &mix_cfg, deadline, &metrics, drivers);
        (outcome.clients, outcome.errors)
    } else {
        let outcome = drive_clients(clients, &mix_cfg, deadline, &metrics, || {});
        (outcome.clients, outcome.errors)
    };
    let elapsed = started.elapsed().as_secs_f64();
    let divergence_errors = errors
        .iter()
        .filter(|e| matches!(e, StoreError::Divergence { .. }))
        .count();
    let client_errors: Vec<String> = errors.iter().map(|e| e.to_string()).collect();
    for e in &errors {
        if !matches!(e, StoreError::Divergence { .. }) {
            eprintln!("client error: {e}");
        }
    }
    drop(driven_clients);
    let mut report = server.shutdown();
    for e in &report.shutdown_errors {
        eprintln!("shutdown error: {e}");
    }
    let verify = store.verify(&mut report.clients);
    ArmReport {
        backend,
        snapshot: metrics
            .snapshot(elapsed, store.shard_faults())
            .with_combining(store.combine_snapshot())
            .with_durability(store.durability_snapshot()),
        ops_served: report.ops_served,
        connections_requested: connections,
        connections_achieved: achieved,
        client_errors,
        divergence_errors,
        verify_consistent: verify.all_consistent(),
        diverged_shards: verify.diverged_shards(),
        shutdown_errors: report
            .shutdown_errors
            .iter()
            .map(|e| e.to_string())
            .collect(),
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: netbench [--connections N] [--shards N] [--secs S] [--batch N]\n\
         \x20              [--read-pct P] [--keyspace N] [--fault-rate R]\n\
         \x20              [--checkpoint-interval N] [--seed N] [--loops N]\n\
         \x20              [--drivers N] [--combining] [--backend NAME]\n\
         \x20              [--sweep] [--skip-naive] [--json-out PATH]\n\
         \x20              [--data-dir DIR] [--group-commit N] [--recover]"
    );
    std::process::exit(2);
}

/// Parse a seed in decimal or `0x` hex (matching the `dst` CLI).
fn parse_seed(s: &str) -> Option<u64> {
    if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        s.parse().ok()
    }
}

fn main() {
    let mut cfg = BenchConfig::default();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next().unwrap_or_else(|| {
                eprintln!("{flag} requires a value");
                usage();
            })
        };
        match arg.as_str() {
            "--backend" => {
                cfg.backend = value("--backend").parse().unwrap_or_else(|e| {
                    eprintln!("{e}");
                    usage();
                })
            }
            "--connections" => {
                cfg.connections = value("--connections").parse().unwrap_or_else(|_| usage())
            }
            "--shards" => cfg.shards = value("--shards").parse().unwrap_or_else(|_| usage()),
            "--secs" => cfg.secs = value("--secs").parse().unwrap_or_else(|_| usage()),
            "--batch" => cfg.batch = value("--batch").parse().unwrap_or_else(|_| usage()),
            "--read-pct" => cfg.read_pct = value("--read-pct").parse().unwrap_or_else(|_| usage()),
            "--keyspace" => cfg.keyspace = value("--keyspace").parse().unwrap_or_else(|_| usage()),
            "--fault-rate" => {
                cfg.fault_rate = value("--fault-rate").parse().unwrap_or_else(|_| usage())
            }
            "--checkpoint-interval" => {
                cfg.checkpoint_interval = value("--checkpoint-interval")
                    .parse()
                    .unwrap_or_else(|_| usage())
            }
            "--seed" => cfg.seed = parse_seed(&value("--seed")).unwrap_or_else(|| usage()),
            "--loops" => cfg.loops = value("--loops").parse().unwrap_or_else(|_| usage()),
            "--drivers" => cfg.drivers = value("--drivers").parse().unwrap_or_else(|_| usage()),
            "--combining" => cfg.combining = true,
            "--sweep" => cfg.sweep = true,
            "--skip-naive" => cfg.skip_naive = true,
            "--data-dir" => cfg.data_dir = Some(value("--data-dir")),
            "--group-commit" => {
                cfg.group_commit = value("--group-commit").parse().unwrap_or_else(|_| usage())
            }
            "--recover" => cfg.recover = true,
            "--json-out" => cfg.json_out = value("--json-out"),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown argument: {other}");
                usage();
            }
        }
    }

    // The measured robust arm(s): one multiplexed run at --connections,
    // or the full scaling trajectory under --sweep.
    let points: Vec<usize> = if cfg.sweep {
        SWEEP_POINTS.to_vec()
    } else {
        vec![cfg.connections]
    };
    let mut robust_arms: Vec<ArmReport> = Vec::new();
    for &p in &points {
        eprintln!(
            "netbench: {} arm, {} connection(s) x {} shard(s) over localhost TCP, \
             {}s, batch {}, fault rate {} …",
            cfg.backend, p, cfg.shards, cfg.secs, cfg.batch, cfg.fault_rate
        );
        let arm = run_arm(
            &cfg,
            cfg.backend.clone(),
            cfg.fault_rate,
            cfg.secs,
            cfg.seed ^ (p as u64) << 8,
            p,
            true,
        );
        println!("{}", arm.snapshot.render_tables());
        arm.print_summary(&format!("{} arm", cfg.backend));
        robust_arms.push(arm);
    }
    // A measured arm on a substrate that is *expected* to corrupt state
    // (the naive witness) cannot be held to verify-consistency.
    let expect_consistent = cfg.backend.expected_consistent();
    let robust_ok = robust_arms.iter().all(|a| {
        (a.verify_consistent || !expect_consistent)
            && (a.client_errors.is_empty()
                || (!expect_consistent && a.client_errors.len() == a.divergence_errors))
            && a.shutdown_errors.is_empty()
    });

    // The witness arm: short bursts at a meaningful fault rate until
    // the naive backend is caught — the violation is existential, so
    // retry over seeds with a cap, like E15/E16. A handful of
    // thread-per-client connections keeps the observation on the plain
    // Kv path.
    let naive_rate = cfg.fault_rate.max(0.2);
    let naive_connections = cfg.connections.clamp(1, 4);
    let mut naive: Option<ArmReport> = None;
    let mut naive_attempts = 0u32;
    if !cfg.skip_naive {
        for attempt in 0..12u64 {
            naive_attempts += 1;
            let arm = run_arm(
                &cfg,
                Backend::naive(),
                naive_rate,
                (cfg.secs / 4.0).clamp(0.2, 1.0),
                cfg.seed ^ (attempt.wrapping_add(1) << 32),
                naive_connections,
                false,
            );
            let flagged = arm.flagged();
            naive = Some(arm);
            if flagged {
                break;
            }
        }
        let n = naive.as_ref().expect("at least one attempt ran");
        println!(
            "naive arm (fault rate {naive_rate}): flagged after {naive_attempts} attempt(s): {} \
             ({} divergence error(s) at clients, verify consistent: {})",
            n.flagged(),
            n.divergence_errors,
            n.verify_consistent
        );
    }

    let verdict = robust_ok && naive.as_ref().is_none_or(|n| n.flagged());

    let mut doc = vec![
        (
            "config".to_string(),
            JsonValue::Object(vec![
                (
                    "connections".into(),
                    JsonValue::Number(cfg.connections as f64),
                ),
                ("shards".into(), JsonValue::Number(cfg.shards as f64)),
                ("secs".into(), JsonValue::Number(cfg.secs)),
                ("batch".into(), JsonValue::Number(cfg.batch as f64)),
                ("read_pct".into(), JsonValue::Number(cfg.read_pct as f64)),
                ("keyspace".into(), JsonValue::Number(cfg.keyspace as f64)),
                ("fault_rate".into(), JsonValue::Number(cfg.fault_rate)),
                ("seed".into(), JsonValue::Number(cfg.seed as f64)),
                ("loops".into(), JsonValue::Number(cfg.loops as f64)),
                ("combining".into(), JsonValue::Bool(cfg.combining)),
                ("sweep".into(), JsonValue::Bool(cfg.sweep)),
                (
                    "transport".into(),
                    JsonValue::String("tcp-localhost".into()),
                ),
                (
                    "driver".into(),
                    JsonValue::String("multiplexed-reactor".into()),
                ),
            ]),
        ),
        ("baseline".to_string(), BASELINE.to_json()),
    ];
    if cfg.sweep {
        doc.push((
            "sweep".to_string(),
            JsonValue::Array(robust_arms.iter().map(|a| a.to_json()).collect()),
        ));
    }
    // The headline robust entry: the largest completed sweep point, or
    // the single measured run.
    if let Some(headline) = robust_arms.last() {
        doc.push(("robust".to_string(), headline.to_json()));
    }
    if let Some(n) = &naive {
        doc.push(("naive".to_string(), n.to_json()));
        doc.push((
            "naive_attempts".to_string(),
            JsonValue::Number(naive_attempts as f64),
        ));
    }
    doc.push(("consistent_verdict".to_string(), JsonValue::Bool(verdict)));
    let json = JsonValue::Object(doc).render();
    std::fs::write(&cfg.json_out, json).unwrap_or_else(|e| {
        eprintln!("failed to write {}: {e}", cfg.json_out);
        std::process::exit(1);
    });
    eprintln!("wrote {}", cfg.json_out);

    if !robust_ok {
        eprintln!("DIVERGENCE in the robust arm — the construction failed its envelope");
        std::process::exit(1);
    }
    if let Some(n) = &naive {
        if !n.flagged() {
            eprintln!("naive arm was never flagged — the witness did not reproduce");
            std::process::exit(1);
        }
    }
}
