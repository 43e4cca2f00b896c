//! E16 — the soak of E15, pushed through the network path.
//!
//! Same claim as E15 — robust shards stay consistent under live
//! functional faults, naive shards diverge — but every operation now
//! crosses a real TCP connection, the server's burst batching, and a
//! per-loop replica set, while the fault knobs are **ramped
//! live** during the run. The workload loop is byte-for-byte the one
//! the in-process soak runs ([`drive_clients`] over [`Kv`]); only the
//! client type differs. Divergence additionally has to survive the
//! wire: the naive arm passes when the *remote* client observes it —
//! an error frame or a failed post-drain verify — instead of wrong
//! data.

use std::sync::Arc;
use std::time::{Duration, Instant};

use ff_store::{drive_clients, Backend, Store, StoreConfig, StoreMetrics, WorkloadMix};
use ff_workload::{Experiment, ExperimentResult, Table};

use crate::client::NetClient;
use crate::server::{NetServer, ServerConfig};

/// E16: network soak — the unified `Kv` workload over TCP, with live
/// fault-rate ramps; robust stays consistent, naive is flagged.
pub struct E16NetSoak;

/// The fault-rate ramp the `during` hook walks while workers hammer
/// the server: quiet → heavy → quiet, stepping every ~100 ms.
const RAMP: [f64; 6] = [0.0, 0.1, 0.3, 0.5, 0.2, 0.05];

struct ArmOutcome {
    ops: u64,
    client_errors: Vec<String>,
    divergence_seen_remotely: bool,
    verify_consistent: bool,
    diverged_shards: Vec<usize>,
}

/// One soak arm: store + server + `connections` TCP clients driven to
/// `deadline`, then a drain and a full verify over the server's
/// retired replicas (one per event loop that served).
fn run_arm(
    backend: Backend,
    secs: f64,
    seed: u64,
    connections: usize,
    server_config: ServerConfig,
) -> ArmOutcome {
    let store = Arc::new(Store::new(
        StoreConfig::builder()
            .shards(3)
            .backend(backend)
            .fault_rate(0.0) // the ramp owns the rate
            .rotate_kinds(true)
            .checkpoint_interval(16)
            .seed(seed)
            .build()
            .expect("arm config is valid"),
    ));
    let server = NetServer::start(Arc::clone(&store), "127.0.0.1:0", server_config)
        .expect("bind ephemeral port");
    let clients: Vec<NetClient> = (0..connections)
        .map(|_| NetClient::connect(server.addr()).expect("connect to own server"))
        .collect();

    let metrics = StoreMetrics::default();
    let mix = WorkloadMix {
        read_pct: 50,
        keyspace: 256,
        seed,
        batch: 4,
    };
    let deadline = Instant::now() + Duration::from_secs_f64(secs);
    let started = Instant::now();
    let knobs: Vec<_> = (0..store.shards()).map(|s| store.fault_knob(s)).collect();
    let outcome = drive_clients(clients, &mix, deadline, &metrics, || {
        let step = (started.elapsed().as_millis() / 100) as usize % RAMP.len();
        for knob in &knobs {
            knob.set_rate(RAMP[step]);
        }
    });
    // Freeze injection before the drain so verification measures what
    // the run did, not what the drain adds.
    for knob in &knobs {
        knob.set_rate(0.0);
    }
    let divergence_seen_remotely = outcome.divergence_errors() > 0;
    let client_errors: Vec<String> = outcome.errors.iter().map(|e| e.to_string()).collect();
    drop(outcome.clients); // hang up before the drain
    let mut report = server.shutdown();
    let consistency = store.verify(&mut report.clients);
    ArmOutcome {
        ops: report.ops_served,
        client_errors,
        divergence_seen_remotely,
        verify_consistent: consistency.all_consistent(),
        diverged_shards: consistency.diverged_shards(),
    }
}

impl Experiment for E16NetSoak {
    fn id(&self) -> &'static str {
        "e16"
    }

    fn title(&self) -> &'static str {
        "Network soak: the Kv workload over TCP under live fault ramps"
    }

    fn run(&self) -> ExperimentResult {
        let mut table = Table::new(
            "TCP soak (3 connections, 3 shards, ramped fault rate 0→0.5→0)",
            &[
                "backend",
                "ops served",
                "remote divergence",
                "verify consistent",
            ],
        );
        let mut notes = Vec::new();

        let robust = run_arm(Backend::robust(), 0.5, 0xE16, 3, ServerConfig::default());
        table.push_row(&[
            "robust".to_string(),
            robust.ops.to_string(),
            robust.divergence_seen_remotely.to_string(),
            robust.verify_consistent.to_string(),
        ]);
        let robust_ok = robust.verify_consistent && robust.client_errors.is_empty();
        if !robust_ok {
            for e in &robust.client_errors {
                notes.push(format!("robust arm client error: {e}"));
            }
        }

        // Like E15's naive arm, the violation is existential and the
        // junk word has to land observably — retry over seeds.
        let mut naive_flagged = false;
        let mut naive_ops = 0;
        for attempt in 0..12u64 {
            let naive = run_arm(
                Backend::naive(),
                0.2,
                0x16E ^ (attempt << 8),
                3,
                ServerConfig::default(),
            );
            naive_ops += naive.ops;
            let flagged = naive.divergence_seen_remotely || !naive.verify_consistent;
            if flagged {
                naive_flagged = true;
                table.push_row(&[
                    "naive".to_string(),
                    naive.ops.to_string(),
                    naive.divergence_seen_remotely.to_string(),
                    naive.verify_consistent.to_string(),
                ]);
                notes.push(format!(
                    "naive arm flagged at attempt {attempt}: {} (shards {:?})",
                    if naive.divergence_seen_remotely {
                        "client received a divergence error over the wire"
                    } else {
                        "post-drain verify found inconsistent shards"
                    },
                    naive.diverged_shards,
                ));
                break;
            }
        }
        if !naive_flagged {
            notes.push(format!(
                "naive arm stayed clean across 12 attempts ({naive_ops} ops) — violation not observed"
            ));
        }
        notes.push(
            "both arms run the identical drive_clients workload; only the Kv \
             implementation (NetClient vs StoreClient) differs"
                .to_string(),
        );

        ExperimentResult {
            id: "e16".into(),
            title: self.title().into(),
            paper_ref: "Sections 4–6 composed at system scale, across a transport".into(),
            tables: vec![table],
            notes,
            pass: robust_ok && naive_flagged,
        }
    }
}

/// E17: the E16 claim through the reactor's hard paths — more
/// connections than event loops, so operations from different clients
/// coalesce onto each loop's one replica while the fault knobs ramp
/// live.
pub struct E17ReactorSoak;

/// A server shape that forces every reactor mechanism at once: two
/// event loops (two replicas contending on every shard), more
/// connections than loops (every merged run crosses connections), and
/// the default backpressure bounds.
fn reactor_config() -> ServerConfig {
    ServerConfig {
        max_connections: 32,
        loops: 2,
        ..ServerConfig::default()
    }
}

/// Connections per E17 arm — four per event loop.
const E17_CONNECTIONS: usize = 8;

impl Experiment for E17ReactorSoak {
    fn id(&self) -> &'static str {
        "e17"
    }

    fn title(&self) -> &'static str {
        "Reactor soak: cross-connection batching on per-loop replicas under live fault ramps"
    }

    fn run(&self) -> ExperimentResult {
        let mut table = Table::new(
            "Reactor soak (8 connections, 2 loops, ramped fault rate 0→0.5→0)",
            &[
                "backend",
                "ops served",
                "remote divergence",
                "verify consistent",
            ],
        );
        let mut notes = Vec::new();

        let robust = run_arm(
            Backend::robust(),
            0.5,
            0xE17,
            E17_CONNECTIONS,
            reactor_config(),
        );
        table.push_row(&[
            "robust".to_string(),
            robust.ops.to_string(),
            robust.divergence_seen_remotely.to_string(),
            robust.verify_consistent.to_string(),
        ]);
        let robust_ok = robust.verify_consistent && robust.client_errors.is_empty();
        if !robust_ok {
            for e in &robust.client_errors {
                notes.push(format!("robust arm client error: {e}"));
            }
        }

        // Existential violation, like E15/E16: the junk decision has
        // to land observably — retry over seeds.
        let mut naive_flagged = false;
        let mut naive_ops = 0;
        for attempt in 0..12u64 {
            let naive = run_arm(
                Backend::naive(),
                0.2,
                0x17E ^ (attempt << 8),
                E17_CONNECTIONS,
                reactor_config(),
            );
            naive_ops += naive.ops;
            let flagged = naive.divergence_seen_remotely || !naive.verify_consistent;
            if flagged {
                naive_flagged = true;
                table.push_row(&[
                    "naive".to_string(),
                    naive.ops.to_string(),
                    naive.divergence_seen_remotely.to_string(),
                    naive.verify_consistent.to_string(),
                ]);
                notes.push(format!(
                    "naive arm flagged at attempt {attempt}: {} (shards {:?})",
                    if naive.divergence_seen_remotely {
                        "client received a divergence error over the wire"
                    } else {
                        "post-drain verify found inconsistent shards"
                    },
                    naive.diverged_shards,
                ));
                break;
            }
        }
        if !naive_flagged {
            notes.push(format!(
                "naive arm stayed clean across 12 attempts ({naive_ops} ops) — violation not observed"
            ));
        }
        notes.push(
            "8 connections share 2 per-loop replicas, so every merged run crosses \
             connection boundaries; divergence still arrives as a typed error frame, \
             never as data"
                .to_string(),
        );

        ExperimentResult {
            id: "e17".into(),
            title: self.title().into(),
            paper_ref: "Sections 4–6 at system scale, through the readiness-driven reactor".into(),
            tables: vec![table],
            notes,
            pass: robust_ok && naive_flagged,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e16_passes() {
        let result = E16NetSoak.run();
        assert!(result.pass, "E16 failed:\n{}", result.render());
    }

    #[test]
    fn e17_passes() {
        let result = E17ReactorSoak.run();
        assert!(result.pass, "E17 failed:\n{}", result.render());
    }
}
