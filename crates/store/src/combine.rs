//! Per-shard cores: one shared replica per shard, one critical
//! section per call, plus a wait-free read fast path.
//!
//! The universal construction pays a full log pass (one consensus
//! decision, one replay loop) per appended record. In combining mode a
//! store keeps **one shared replica per shard** instead of one per
//! client: every call takes that replica's write lock, drives the
//! caller's ops through the shard's [`UniversalLog`] as a single
//! batched append ([`Handle::invoke_many`] — one decided slot carrying
//! a multi-op record, decoded and applied op-by-op on replay, so
//! `Replicated` semantics, checkpoints and digests are unchanged), and
//! returns the responses. A [`Kv::batch`](crate::Kv::batch) call
//! therefore costs one decided slot per destination shard, and so does
//! every run the network reactor merges across connections.
//!
//! Calls from different clients are not merged: measured, such merging
//! batched about one op per pass, because the callers that issue many
//! ops already arrive grouped by shard (DESIGN.md §10). If the log
//! holds divergence evidence after the append, the call returns the
//! shard index (an error, never wrong data).
//!
//! # The read fast path
//!
//! Every call advances the shared core replica, so the replica is a
//! *versioned snapshot* `(applied_to, state)`. A GET first observes the
//! shard's tail (`slots_created`) and then answers from the core
//! replica **iff** `applied_to >= tail` — no log pass, no consensus
//! invocation, just a read lock and a map lookup. When freshness cannot
//! be proven (the replica lags the observed tail) the GET falls back to
//! the locked path and linearizes through the log like any other op.
//! The freshness rule is checked exhaustively by `ff-sim`'s combining
//! model.

use crate::map::KvMap;
use crate::metrics::Histogram;
use ff_universal::{Handle, UniversalLog};
use ff_workload::JsonValue;
use parking_lot::RwLock;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Live counters of the shard cores, shared by every core of one
/// store. Everything is a relaxed atomic increment — safe to leave on
/// during a soak.
#[derive(Debug, Default)]
pub struct CombineStats {
    passes: AtomicU64,
    combined_ops: AtomicU64,
    batch_sizes: Histogram,
    max_batch: AtomicU64,
    fastpath_hits: AtomicU64,
    fastpath_misses: AtomicU64,
}

impl CombineStats {
    fn record_pass(&self, ops: usize) {
        self.passes.fetch_add(1, Ordering::Relaxed);
        self.combined_ops.fetch_add(ops as u64, Ordering::Relaxed);
        self.batch_sizes.record(ops as u64);
        self.max_batch.fetch_max(ops as u64, Ordering::Relaxed);
    }

    fn record_fastpath(&self, hit: bool) {
        if hit {
            self.fastpath_hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.fastpath_misses.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Point-in-time snapshot.
    pub fn snapshot(&self) -> CombineSnapshot {
        let passes = self.passes.load(Ordering::Relaxed);
        let combined_ops = self.combined_ops.load(Ordering::Relaxed);
        let hits = self.fastpath_hits.load(Ordering::Relaxed);
        let misses = self.fastpath_misses.load(Ordering::Relaxed);
        CombineSnapshot {
            passes,
            combined_ops,
            mean_batch: if passes > 0 {
                combined_ops as f64 / passes as f64
            } else {
                0.0
            },
            p50_batch: self.batch_sizes.quantile(0.50),
            p95_batch: self.batch_sizes.quantile(0.95),
            max_batch: self.max_batch.load(Ordering::Relaxed),
            fastpath_hits: hits,
            fastpath_misses: misses,
        }
    }
}

/// Point-in-time summary of [`CombineStats`], ready for reports/JSON.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CombineSnapshot {
    /// Passes (batched log appends, one per core call).
    pub passes: u64,
    /// Operations those passes carried.
    pub combined_ops: u64,
    /// Mean ops per pass.
    pub mean_batch: f64,
    /// Median batch size (upper bucket bound).
    pub p50_batch: u64,
    /// 95th-percentile batch size (upper bucket bound).
    pub p95_batch: u64,
    /// Largest single pass.
    pub max_batch: u64,
    /// GETs answered from a fresh replica snapshot (no log pass).
    pub fastpath_hits: u64,
    /// GETs that fell back to the locked path (freshness unprovable).
    pub fastpath_misses: u64,
}

impl CombineSnapshot {
    /// Fraction of GETs the wait-free read path answered.
    pub fn hit_rate(&self) -> f64 {
        let total = self.fastpath_hits + self.fastpath_misses;
        if total == 0 {
            0.0
        } else {
            self.fastpath_hits as f64 / total as f64
        }
    }

    /// Serialize for bench JSON.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::Object(vec![
            ("passes".into(), JsonValue::Number(self.passes as f64)),
            (
                "combined_ops".into(),
                JsonValue::Number(self.combined_ops as f64),
            ),
            ("mean_batch".into(), JsonValue::Number(self.mean_batch)),
            ("p50_batch".into(), JsonValue::Number(self.p50_batch as f64)),
            ("p95_batch".into(), JsonValue::Number(self.p95_batch as f64)),
            ("max_batch".into(), JsonValue::Number(self.max_batch as f64)),
            (
                "fastpath_hits".into(),
                JsonValue::Number(self.fastpath_hits as f64),
            ),
            (
                "fastpath_misses".into(),
                JsonValue::Number(self.fastpath_misses as f64),
            ),
            (
                "fastpath_hit_rate".into(),
                JsonValue::Number(self.hit_rate()),
            ),
        ])
    }
}

/// One shard's core: the shared replica every call drives forward.
pub(crate) struct ShardCore {
    shard: usize,
    log: Arc<UniversalLog>,
    /// Write = a call executing; read = wait-free GET snapshot.
    replica: RwLock<Handle<KvMap>>,
    stats: Arc<CombineStats>,
}

impl ShardCore {
    pub(crate) fn new(
        shard: usize,
        log: Arc<UniversalLog>,
        pid: u16,
        stats: Arc<CombineStats>,
    ) -> Self {
        let replica = Handle::new(Arc::clone(&log), pid, KvMap::default());
        ShardCore {
            shard,
            log,
            replica: RwLock::new(replica),
            stats,
        }
    }

    /// Catch the core replica up to the end of the shard's log (used by
    /// verification). Returns the slots applied.
    pub(crate) fn catch_up(&self) -> usize {
        self.replica.write().catch_up()
    }

    /// Run `f` over the caught-up core replica (verification only).
    pub(crate) fn with_replica<R>(&self, f: impl FnOnce(&Handle<KvMap>) -> R) -> R {
        f(&self.replica.read())
    }

    /// The wait-free GET snapshot: observe the shard's tail, then
    /// answer from the core replica iff it has provably applied at
    /// least that far. Misses return `None` (the caller falls back to
    /// [`ShardCore::submit`]); divergence evidence surfaces as
    /// `Some(Err(shard))` so a corrupted shard refuses rather than
    /// answering from a broken log.
    pub(crate) fn fast_get(&self, key: u32) -> Option<Result<Option<u32>, usize>> {
        if self.log.divergence_detected() {
            return Some(Err(self.shard));
        }
        // `slots_created` counts every cell ever minted — a conservative
        // upper bound on the decided tail, so freshness proven against
        // it covers every operation that completed before this read
        // began (a completed op's slot is decided, hence created).
        let tail = self.log.slots_created();
        let replica = self.replica.read();
        if replica.applied_to() >= tail {
            self.stats.record_fastpath(true);
            Some(Ok(replica.state().peek(key)))
        } else {
            drop(replica);
            self.stats.record_fastpath(false);
            None
        }
    }

    /// Append `ops` as one batched log record under the replica's write
    /// lock and return one response word per op, or the shard index
    /// when the log holds divergence evidence.
    pub(crate) fn submit(&self, ops: &[u64]) -> Result<Vec<u64>, usize> {
        let resps = self.replica.write().invoke_many(ops);
        self.stats.record_pass(ops.len());
        if self.log.divergence_detected() {
            Err(self.shard)
        } else {
            Ok(resps)
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::{Backend, Kv, KvOp, Store, StoreConfig, StoreError};
    use std::collections::HashMap;

    fn combining_store(backend: Backend, shards: usize) -> Store {
        Store::new(
            StoreConfig::builder()
                .shards(shards)
                .backend(backend)
                .combining(true)
                .checkpoint_interval(16)
                .build()
                .unwrap(),
        )
    }

    #[test]
    fn combined_round_trip_and_verify() {
        let store = combining_store(Backend::reliable(), 4);
        let mut c = store.client();
        assert_eq!(c.put(1, 10).unwrap(), None);
        assert_eq!(c.put(1, 20).unwrap(), Some(10));
        assert_eq!(c.get(1).unwrap(), Some(20));
        assert_eq!(c.del(1).unwrap(), Some(20));
        assert_eq!(c.get(1).unwrap(), None);
        assert!(store.verify(&mut [c]).all_consistent());
        let stats = store.combine_snapshot().unwrap();
        assert!(stats.passes > 0, "no combine passes recorded");
    }

    #[test]
    fn read_fast_path_hits_when_replica_is_fresh() {
        let store = combining_store(Backend::reliable(), 1);
        let mut c = store.client();
        c.put(7, 70).unwrap();
        // The put's own combine pass advanced the core replica to the
        // tail, so this GET must be a snapshot hit, not a log pass.
        let slots_before = store.shard_log(0).slots_created();
        assert_eq!(c.get(7).unwrap(), Some(70));
        assert_eq!(
            store.shard_log(0).slots_created(),
            slots_before,
            "fast-path GET appended to the log"
        );
        let stats = store.combine_snapshot().unwrap();
        assert!(stats.fastpath_hits >= 1, "{stats:?}");
    }

    #[test]
    fn concurrent_combined_clients_stay_consistent_under_faults() {
        let store = std::sync::Arc::new(Store::new(
            StoreConfig::builder()
                .shards(4)
                .backend(Backend::robust())
                .rotate_kinds(true)
                .combining(true)
                .checkpoint_interval(16)
                .build()
                .unwrap(),
        ));
        let mut clients: Vec<_> = std::thread::scope(|scope| {
            (0..4u32)
                .map(|w| {
                    let store = std::sync::Arc::clone(&store);
                    scope.spawn(move || {
                        let mut c = store.client();
                        for i in 0..300u32 {
                            let key = (w * 1000 + i) % 97;
                            match i % 4 {
                                0 => {
                                    c.put(key, i).unwrap();
                                }
                                3 => {
                                    c.del(key).unwrap();
                                }
                                _ => {
                                    c.get(key).unwrap();
                                }
                            }
                        }
                        c
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect()
        });
        let report = store.verify(&mut clients);
        assert!(
            report.all_consistent(),
            "diverged: {:?}",
            report.diverged_shards()
        );
        let stats = store.combine_snapshot().unwrap();
        assert!(stats.combined_ops > 0);
    }

    #[test]
    fn every_op_applies_exactly_once_under_contention() {
        // Four threads hammer one shard core with writes to disjoint
        // keys, alternating single ops and multi-op batches. Each call
        // is one critical section, so the core must count exactly the
        // ops issued, and each thread's keys must end at that thread's
        // own sequential model.
        const THREADS: u32 = 4;
        const ROUNDS: u32 = 200;
        let store = std::sync::Arc::new(combining_store(Backend::reliable(), 1));
        let results: Vec<(u64, HashMap<u32, u32>)> = std::thread::scope(|scope| {
            (0..THREADS)
                .map(|t| {
                    let store = std::sync::Arc::clone(&store);
                    scope.spawn(move || {
                        let mut c = store.client();
                        let mut model = HashMap::new();
                        let mut issued = 0u64;
                        for i in 0..ROUNDS {
                            let key = t * 1000 + i % 23;
                            if i % 4 == 3 {
                                let ops = [
                                    KvOp::Put(key, i),
                                    KvOp::Del(key + 100),
                                    KvOp::Put(key + 100, i + 1),
                                ];
                                let expect: Vec<Option<u32>> = vec![
                                    model.insert(key, i),
                                    model.remove(&(key + 100)),
                                    model.insert(key + 100, i + 1),
                                ];
                                assert_eq!(c.batch(&ops).unwrap(), expect);
                                issued += ops.len() as u64;
                            } else if i % 4 == 2 {
                                assert_eq!(c.del(key).unwrap(), model.remove(&key));
                                issued += 1;
                            } else {
                                assert_eq!(c.put(key, i).unwrap(), model.insert(key, i));
                                issued += 1;
                            }
                        }
                        (issued, model)
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect()
        });
        let issued: u64 = results.iter().map(|(n, _)| n).sum();
        let stats = store.combine_snapshot().unwrap();
        assert_eq!(stats.combined_ops, issued, "{stats:?}");
        let mut c = store.client();
        for (t, (_, model)) in results.iter().enumerate() {
            for key in (0..23)
                .flat_map(|k| [k, k + 100])
                .map(|k| t as u32 * 1000 + k)
            {
                assert_eq!(c.get(key).unwrap(), model.get(&key).copied(), "key {key}");
            }
        }
        assert!(store.verify(&mut [c]).all_consistent());
    }

    #[test]
    fn combined_batch_matches_uncombined_batch_results() {
        // Deterministic cross-check (the proptest in lib.rs covers the
        // randomized version across backends).
        let ops: Vec<KvOp> = (0..40u32)
            .flat_map(|k| [KvOp::Put(k, k + 1), KvOp::Get(k), KvOp::Del(k)])
            .collect();
        let run = |combining: bool| -> Vec<Option<u32>> {
            let store = Store::new(
                StoreConfig::builder()
                    .shards(4)
                    .backend(Backend::reliable())
                    .combining(combining)
                    .build()
                    .unwrap(),
            );
            let mut c = store.client();
            let out = c.batch(&ops).unwrap();
            assert!(store.verify(&mut [c]).all_consistent());
            out
        };
        assert_eq!(run(true), run(false));
    }

    /// The acceptance claim, kind by kind: combining changes the
    /// submission path, not the tolerance envelope — under each fault
    /// kind the robust backend tolerates, concurrent combining clients
    /// end with every replica verified consistent.
    #[test]
    fn every_tolerated_fault_kind_verifies_with_combining() {
        for kind in [
            ff_spec::FaultKind::Overriding,
            ff_spec::FaultKind::Silent,
            ff_spec::FaultKind::Arbitrary,
        ] {
            let store = std::sync::Arc::new(Store::new(
                StoreConfig::builder()
                    .shards(2)
                    .backend(Backend::robust())
                    .fault(crate::FaultConfig {
                        kind,
                        rate: 0.3,
                        // Silent faults are only tolerable on a finite
                        // budget (unbounded silent = nontermination).
                        t: ff_spec::Bound::Finite(3),
                        ..crate::FaultConfig::default()
                    })
                    .combining(true)
                    .checkpoint_interval(16)
                    .build()
                    .unwrap(),
            ));
            let mut clients: Vec<_> = std::thread::scope(|scope| {
                (0..3u32)
                    .map(|w| {
                        let store = std::sync::Arc::clone(&store);
                        scope.spawn(move || {
                            let mut c = store.client();
                            for i in 0..150u32 {
                                let key = (w * 500 + i) % 61;
                                match i % 3 {
                                    0 => {
                                        c.put(key, i).unwrap();
                                    }
                                    1 => {
                                        c.get(key).unwrap();
                                    }
                                    _ => {
                                        c.del(key).unwrap();
                                    }
                                }
                            }
                            c
                        })
                    })
                    .collect::<Vec<_>>()
                    .into_iter()
                    .map(|h| h.join().unwrap())
                    .collect()
            });
            let report = store.verify(&mut clients);
            assert!(
                report.all_consistent(),
                "{kind:?}: diverged shards {:?}",
                report.diverged_shards()
            );
        }
    }

    #[test]
    fn corruption_is_detected_through_the_combined_path() {
        // Arbitrary-faulting naive cells corrupt the log even against a
        // single serialized proposer (combining funnels every propose
        // through the core replica, so overriding faults — which need
        // racing proposes — cannot fire here). Combining must never
        // hide the corruption: it surfaces mid-run as a `Divergence`
        // error (a decided cell resolves to junk with no announce
        // record) or at verification.
        let mut saw_detection = false;
        for seed in 0..20 {
            let store = std::sync::Arc::new(Store::new(
                StoreConfig::builder()
                    .shards(1)
                    .backend(Backend::naive())
                    .fault(crate::FaultConfig {
                        kind: ff_spec::FaultKind::Arbitrary,
                        rate: 1.0,
                        ..crate::FaultConfig::default()
                    })
                    .combining(true)
                    .checkpoint_interval(8)
                    .seed(seed)
                    .build()
                    .unwrap(),
            ));
            let errors: Vec<Option<StoreError>> = std::thread::scope(|scope| {
                (0..3u32)
                    .map(|w| {
                        let store = std::sync::Arc::clone(&store);
                        scope.spawn(move || {
                            let mut c = store.client();
                            for i in 0..40 {
                                if let Err(e) = c.put((w * 100 + i) % 50, i) {
                                    return Some(e);
                                }
                            }
                            None
                        })
                    })
                    .collect::<Vec<_>>()
                    .into_iter()
                    .map(|h| h.join().unwrap())
                    .collect()
            });
            let mid_run = errors
                .iter()
                .flatten()
                .any(|e| matches!(e, StoreError::Divergence { .. }));
            let at_verify = !store.verify(&mut []).all_consistent();
            if mid_run || at_verify {
                saw_detection = true;
                break;
            }
        }
        assert!(
            saw_detection,
            "naive cells at 100% fault rate were never detected via combining"
        );
    }

    #[test]
    fn verify_catches_junk_in_the_snapshot_boundary_cell() {
        // Exactly two checkpoint intervals of puts: the last checkpoint
        // truncates the whole log, so no replay reads the cells the
        // arbitrary faults wrote. Re-deciding the installed snapshot's
        // boundary cell is what exposes the junk.
        let store = Store::new(
            StoreConfig::builder()
                .shards(1)
                .backend(Backend::naive())
                .fault(crate::FaultConfig {
                    kind: ff_spec::FaultKind::Arbitrary,
                    rate: 1.0,
                    ..crate::FaultConfig::default()
                })
                .combining(true)
                .checkpoint_interval(8)
                .build()
                .unwrap(),
        );
        let mut c = store.client();
        for i in 0..16 {
            // Divergence may also surface mid-run; verify must flag it
            // either way.
            let _ = c.put(i, i);
        }
        assert!(
            !store.verify(&mut [c]).all_consistent(),
            "naive cells at 100% arbitrary faults verified consistent"
        );
    }
}
