//! End-to-end tests over real sockets: a server on an ephemeral port,
//! `NetClient`s talking to it, and — the one that matters — a naive
//! backend under heavy faults surfacing a **divergence error** at the
//! remote client instead of wrong data.

use std::sync::Arc;
use std::time::{Duration, Instant};

use ff_net::wire::{ErrorCode, Request, Response};
use ff_net::{NetClient, NetServer, ServerConfig};
use ff_store::{
    drive_clients, Backend, FaultConfig, Kv, KvOp, Store, StoreConfig, StoreError, StoreMetrics,
    WorkloadMix, KV_MAX,
};

fn serve(config: StoreConfig, server_config: ServerConfig) -> (Arc<Store>, NetServer) {
    let store = Arc::new(Store::new(config));
    let server = NetServer::start(Arc::clone(&store), "127.0.0.1:0", server_config)
        .expect("bind ephemeral port");
    (store, server)
}

fn reliable_config() -> StoreConfig {
    StoreConfig::builder()
        .shards(2)
        .backend(Backend::reliable())
        .build()
        .unwrap()
}

#[test]
fn kv_over_tcp_matches_in_process_semantics() {
    let (store, server) = serve(reliable_config(), ServerConfig::default());
    let mut c = NetClient::connect(server.addr()).unwrap();

    assert_eq!(c.get(7).unwrap(), None);
    assert_eq!(c.put(7, 99).unwrap(), None);
    assert_eq!(c.put(7, 100).unwrap(), Some(99));
    assert_eq!(c.get(7).unwrap(), Some(100));
    assert_eq!(c.del(7).unwrap(), Some(100));
    assert_eq!(c.get(7).unwrap(), None);

    // Validation errors cross the wire as typed errors, with the
    // offending key in the detail word — not as closed connections.
    assert_eq!(
        c.get(KV_MAX + 1),
        Err(StoreError::KeyOutOfRange { key: KV_MAX + 1 })
    );
    assert_eq!(
        c.put(1, KV_MAX + 1),
        Err(StoreError::ValueOutOfRange { value: KV_MAX + 1 })
    );
    // The connection survives the rejected requests.
    assert_eq!(c.put(1, 1).unwrap(), None);

    let stats = c.stats().unwrap();
    assert_eq!(stats.shards, 2);
    assert!(!stats.diverged);
    assert!(stats.ops_served > 0);
    // Coalescing observability: the serves above ran through merged
    // runs, and every answered frame was staged.
    assert!(stats.runs_executed > 0);
    assert!(stats.run_ops > 0);
    assert!(stats.max_run_ops >= 1);
    assert!(stats.frames_staged >= stats.runs_executed);
    // Not a combining store: the combiner counters stay zero.
    assert_eq!(stats.combine_passes, 0);
    assert_eq!(stats.combine_ops, 0);
    c.ping().unwrap();

    drop(c);
    let mut report = server.shutdown();
    assert!(store.verify(&mut report.clients).all_consistent());
}

/// A durable server killed (dropped without flushing everything it
/// could) and restarted over the same data dir serves the history it
/// fsynced — and both generations expose their WAL/recovery counters
/// over the STATS frame.
#[test]
fn durable_server_recovers_over_same_data_dir() {
    let dir = std::env::temp_dir().join(format!(
        "ff-net-durable-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let config = StoreConfig::builder()
        .shards(2)
        .backend(Backend::robust())
        .fault_rate(0.2)
        .checkpoint_interval(8)
        .data_dir(&dir)
        .group_commit(4)
        .rotate_cost(0)
        .build()
        .unwrap();

    let (store, server) = serve(config.clone(), ServerConfig::default());
    let mut c = NetClient::connect(server.addr()).unwrap();
    for k in 0..60u32 {
        c.put(k % 16, k + 500).unwrap();
    }
    let stats = c.stats().unwrap();
    assert!(stats.wal_records > 0, "durable server logged nothing");
    assert!(stats.wal_fsyncs > 0, "durable server never fsynced");
    assert_eq!(stats.recovered_records + stats.recovered_checkpoints, 0);
    drop(c);
    let report = server.shutdown();
    assert!(
        report.shutdown_errors.is_empty(),
        "{:?}",
        report.shutdown_errors
    );
    drop(store); // the kill: volatile state gone, the dir survives

    let (recovered, report) = Store::recover(config).expect("recovery");
    assert!(report.records_replayed() + report.checkpoints_loaded() > 0);
    let store = Arc::new(recovered);
    let server = NetServer::start(Arc::clone(&store), "127.0.0.1:0", ServerConfig::default())
        .expect("bind ephemeral port");
    let mut c = NetClient::connect(server.addr()).unwrap();
    for k in 0..16u32 {
        let want = (0..60u32).rfind(|i| i % 16 == k);
        assert_eq!(c.get(k).unwrap(), want.map(|v| v + 500), "key {k}");
    }
    let stats = c.stats().unwrap();
    assert_eq!(
        stats.recovered_records,
        report.records_replayed(),
        "STATS must echo the recovery replay count"
    );
    assert_eq!(stats.recovered_checkpoints, report.checkpoints_loaded());
    drop(c);
    let mut server_report = server.shutdown();
    assert!(server_report.shutdown_errors.is_empty());
    assert!(store.verify(&mut server_report.clients).all_consistent());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn batch_and_pipeline_answer_in_request_order() {
    let (_store, server) = serve(reliable_config(), ServerConfig::default());
    let mut c = NetClient::connect(server.addr()).unwrap();

    // One BATCH frame: per-key order holds within the batch.
    let values = c
        .batch(&[
            KvOp::Put(1, 10),
            KvOp::Put(2, 20),
            KvOp::Get(1),
            KvOp::Put(1, 11),
            KvOp::Del(2),
        ])
        .unwrap();
    assert_eq!(values, vec![None, None, Some(10), Some(10), Some(20)]);

    // A pipelined burst of single-op frames: the server coalesces them
    // into one log pass but must answer under the right ids, in order.
    let resps = c
        .pipeline(&[
            Request::Put { key: 5, value: 50 },
            Request::Get { key: 5 },
            Request::Ping,
            Request::Del { key: 5 },
            Request::Get { key: 5 },
        ])
        .unwrap();
    assert_eq!(
        resps,
        vec![
            Response::Value(None),
            Response::Value(Some(50)),
            Response::Pong,
            Response::Value(Some(50)),
            Response::Value(None),
        ]
    );
    server.shutdown();
}

/// The headline property: a naive-backend store under arbitrary faults
/// answers the remote client with a divergence error — never with data
/// replayed from a corrupted log.
#[test]
fn naive_backend_surfaces_divergence_error_not_wrong_data() {
    // Junk landing observably is probabilistic; retry over seeds like
    // E15 does. Full fault rate makes a handful of seeds plenty.
    for seed in 0..20u64 {
        let config = StoreConfig::builder()
            .shards(2)
            .backend(Backend::naive())
            .fault(FaultConfig {
                kind: ff_spec::FaultKind::Arbitrary,
                f: 1,
                t: ff_spec::Bound::Unbounded,
                rate: 1.0,
                ..FaultConfig::default()
            })
            .checkpoint_interval(8)
            .seed(0xD1E ^ seed)
            .build()
            .unwrap();
        // Junk decisions need contention to become observable, and
        // proposers contend only across event loops (each loop serves
        // through one client): pin two loops whatever the core count,
        // and drive three concurrent connections like the soak does.
        let (store, server) = serve(
            config,
            ServerConfig {
                loops: 2,
                ..ServerConfig::default()
            },
        );
        let clients: Vec<NetClient> = (0..3)
            .map(|_| NetClient::connect(server.addr()).unwrap())
            .collect();
        let metrics = StoreMetrics::default();
        let mix = WorkloadMix {
            read_pct: 40,
            keyspace: 32,
            seed,
            batch: 1,
        };
        let outcome = drive_clients(
            clients,
            &mix,
            Instant::now() + Duration::from_millis(200),
            &metrics,
            || {},
        );
        // The contract under test: a worker either gets correct-shaped
        // answers or a typed divergence error — never anything else.
        for e in &outcome.errors {
            assert!(
                matches!(e, StoreError::Divergence { .. }),
                "only divergence errors are expected, got {e}"
            );
        }
        let diverged: Vec<usize> = outcome
            .errors
            .iter()
            .filter_map(|e| match e {
                StoreError::Divergence { shard } => Some(*shard),
                _ => None,
            })
            .collect();
        drop(outcome.clients);
        let mut report = server.shutdown();
        let verify = store.verify(&mut report.clients);
        if let Some(&shard) = diverged.first() {
            // A client saw it online; the post-drain verify must agree
            // about that shard.
            assert!(
                verify.diverged_shards().contains(&shard),
                "client reported shard {shard} but verify found {:?}",
                verify.diverged_shards()
            );
            return;
        }
        // This seed's junk stayed invisible — try the next one.
    }
    panic!("no seed produced an observable divergence over the wire");
}

#[test]
fn connection_cap_refuses_with_overloaded_frame() {
    let (_store, server) = serve(
        reliable_config(),
        ServerConfig {
            max_connections: 2,
            ..ServerConfig::default()
        },
    );
    let mut a = NetClient::connect(server.addr()).unwrap();
    let mut b = NetClient::connect(server.addr()).unwrap();
    a.ping().unwrap();
    b.ping().unwrap();

    // The third connection gets one Overloaded error frame (id 0) and
    // is closed; NetClient maps that to a Server error on first use.
    let mut c = NetClient::connect(server.addr()).unwrap();
    let deadline = Instant::now() + Duration::from_secs(5);
    let err = loop {
        match c.ping() {
            Err(e) => break e,
            // Accept-loop race: the refusal may not have landed yet.
            Ok(()) => assert!(Instant::now() < deadline, "cap never enforced"),
        }
    };
    match err {
        StoreError::Server { code, .. } => assert_eq!(code, ErrorCode::Overloaded as u8),
        StoreError::Io(_) => {} // refusal frame lost to the close race
        other => panic!("expected overloaded/io error, got {other}"),
    }

    // Capacity frees when a connection closes.
    drop(a);
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let mut d = NetClient::connect(server.addr()).unwrap();
        if d.ping().is_ok() {
            break;
        }
        assert!(Instant::now() < deadline, "slot never freed after close");
        std::thread::sleep(Duration::from_millis(20));
    }
    server.shutdown();
}

/// Regression for the old shutdown path's `.expect("shutdown runs
/// once")` / `.expect("accept thread never panics")`: signaling
/// shutdown twice (or racing a signal with the draining join) must be
/// a no-op, and a clean shutdown must report zero [`ShutdownError`]s —
/// never abort the process.
#[test]
fn shutdown_is_idempotent_and_reports_typed_errors_instead_of_panicking() {
    let (_store, server) = serve(reliable_config(), ServerConfig::default());
    let mut c = NetClient::connect(server.addr()).unwrap();
    assert_eq!(c.put(1, 1).unwrap(), None);

    assert!(server.begin_shutdown(), "first signal flips the flag");
    assert!(!server.begin_shutdown(), "second signal is a no-op");
    assert!(!server.begin_shutdown(), "and so is every later one");

    // Shutdown after the flag is already set still drains and joins
    // cleanly — the in-flight connection retires its replica.
    let report = server.shutdown();
    assert!(
        report.shutdown_errors.is_empty(),
        "clean drain reported errors: {:?}",
        report.shutdown_errors
    );
    assert_eq!(report.clients.len(), 1);
    assert!(report.ops_served >= 1);
}

/// A flat-combining store behind the reactor: ops from several
/// connections drain through the shard cores' combine passes, STATS
/// surfaces the combiner counters, and the post-drain verify holds.
#[test]
fn combining_store_serves_and_reports_combiner_counters() {
    let (store, server) = serve(
        StoreConfig::builder()
            .shards(2)
            .backend(Backend::robust())
            .fault_rate(0.2)
            .rotate_kinds(true)
            .checkpoint_interval(16)
            .combining(true)
            .build()
            .unwrap(),
        ServerConfig::default(),
    );
    let clients: Vec<NetClient> = (0..3)
        .map(|_| NetClient::connect(server.addr()).unwrap())
        .collect();
    let metrics = StoreMetrics::default();
    let mix = WorkloadMix {
        read_pct: 60,
        keyspace: 64,
        seed: 0xC0B1,
        batch: 2,
    };
    let outcome = drive_clients(
        clients,
        &mix,
        Instant::now() + Duration::from_millis(300),
        &metrics,
        || {},
    );
    assert!(
        outcome.errors.is_empty(),
        "tolerated faults must stay silent: {:?}",
        outcome.errors
    );
    let mut probe = NetClient::connect(server.addr()).unwrap();
    let stats = probe.stats().unwrap();
    assert!(!stats.diverged);
    assert!(stats.runs_executed > 0);
    assert!(stats.frames_staged >= stats.runs_executed);
    assert!(
        stats.combine_passes > 0,
        "a combining store served over TCP must run combine passes: {stats:?}"
    );
    assert!(stats.combine_ops >= stats.combine_passes);
    drop(probe);
    drop(outcome.clients);
    let mut report = server.shutdown();
    assert!(store.verify(&mut report.clients).all_consistent());
}

#[test]
fn graceful_shutdown_retires_every_replica_for_verification() {
    let (store, server) = serve(
        StoreConfig::builder()
            .shards(3)
            .backend(Backend::robust())
            .fault_rate(0.3)
            .rotate_kinds(true)
            .checkpoint_interval(16)
            .build()
            .unwrap(),
        ServerConfig {
            loops: 1,
            ..ServerConfig::default()
        },
    );

    // Drive the server through the same generic loop the soak uses.
    let clients: Vec<NetClient> = (0..3)
        .map(|_| NetClient::connect(server.addr()).unwrap())
        .collect();
    let metrics = StoreMetrics::default();
    let mix = WorkloadMix {
        read_pct: 40,
        keyspace: 128,
        seed: 0x5151,
        batch: 3,
    };
    let outcome = drive_clients(
        clients,
        &mix,
        Instant::now() + Duration::from_millis(300),
        &metrics,
        || {},
    );
    assert!(
        outcome.errors.is_empty(),
        "robust backend must not error: {:?}",
        outcome.errors
    );
    let driven = metrics.batches.count();
    assert!(driven > 0);
    drop(outcome.clients);

    let mut report = server.shutdown();
    assert_eq!(
        report.clients.len(),
        1,
        "the one event loop retires its one client"
    );
    assert!(report.ops_served >= driven);
    assert!(store.verify(&mut report.clients).all_consistent());
}

/// Every replica the server holds has to advance, or it pins log
/// truncation: on an uncombined store a replica's watermark only moves
/// when that replica executes. A loop that serves every merged run on
/// its one client keeps the retained log within the checkpoint bound
/// however many connections feed it.
#[test]
fn uncombined_store_keeps_retained_log_bounded_under_several_connections() {
    const INTERVAL: usize = 64;
    let (store, server) = serve(
        StoreConfig::builder()
            .shards(2)
            .backend(Backend::robust())
            .fault_rate(0.2)
            .rotate_kinds(true)
            .checkpoint_interval(INTERVAL)
            .build()
            .unwrap(),
        ServerConfig {
            loops: 1,
            ..ServerConfig::default()
        },
    );
    let clients: Vec<NetClient> = (0..3)
        .map(|_| NetClient::connect(server.addr()).unwrap())
        .collect();
    let metrics = StoreMetrics::default();
    let mix = WorkloadMix {
        read_pct: 40,
        keyspace: 128,
        seed: 0x7E7A,
        batch: 4,
    };
    let mut peak = 0;
    let outcome = drive_clients(
        clients,
        &mix,
        Instant::now() + Duration::from_secs(1),
        &metrics,
        || peak = peak.max(store.max_retained_len()),
    );
    assert!(
        outcome.errors.is_empty(),
        "robust backend must not error: {:?}",
        outcome.errors
    );
    assert!(metrics.batches.count() > 0);
    drop(outcome.clients);
    let mut report = server.shutdown();
    assert!(
        peak <= 2 * INTERVAL,
        "retained log peaked at {peak} slots against a checkpoint interval of {INTERVAL}"
    );
    assert!(store.verify(&mut report.clients).all_consistent());
}
