//! E19/E20: the DST corpus and the durability story as registered
//! experiments.
//!
//! E19 runs every `(scenario, arm)` pair at a pinned seed, checks each
//! arm's contract ([`crate::scenario::arm_ok`]), and re-runs two
//! scenarios to prove bit-identical trace fingerprints — the
//! determinism claim, enforced in CI.
//!
//! E20 zooms into the `kill-recover` scenario: the robust/torn/naive
//! matrix with per-arm recovery counters at the pinned seed, plus
//! measured wall-clock recovery times over a real on-disk WAL.

use ff_workload::{Experiment, ExperimentResult, Table};

use crate::net::ScriptMode;
use crate::scenario::{arm_ok, arms, run_scenario, CORPUS};

/// Pinned seed for the CI corpus run (any seed works; this one is
/// fixed so the run is a regression test, not a lottery).
pub const E19_SEED: u64 = 0xDD57_0001;

/// The DST experiment: see module docs.
pub struct E19Dst;

impl Experiment for E19Dst {
    fn id(&self) -> &'static str {
        "e19"
    }

    fn title(&self) -> &'static str {
        "deterministic whole-system simulation: kills, partitions, replayable seeds"
    }

    fn run(&self) -> ExperimentResult {
        let mut table = Table::new(
            "scenario corpus @ pinned seed",
            &[
                "scenario",
                "arm",
                "events",
                "net decisions",
                "completed",
                "consistent",
                "flagged",
                "violations",
                "contract",
            ],
        );
        let mut pass = true;
        let mut notes = Vec::new();
        for def in CORPUS {
            for arm in def.arms {
                let r = run_scenario(def.name, arm, E19_SEED, ScriptMode::Record);
                let ok = arm_ok(&r);
                pass &= ok;
                if !ok {
                    notes.push(format!(
                        "{}/{arm} broke its contract: flagged={} violations={:?}",
                        def.name, r.flagged, r.violations
                    ));
                }
                table.row(&[
                    def.name.to_string(),
                    arm.to_string(),
                    r.events.to_string(),
                    r.decisions.to_string(),
                    r.completed.to_string(),
                    r.consistent.to_string(),
                    r.flagged.to_string(),
                    if r.violations.is_empty() {
                        "-".to_string()
                    } else {
                        r.violations.join("; ")
                    },
                    if ok { "ok" } else { "BROKEN" }.to_string(),
                ]);
            }
        }

        // Determinism: same scenario + seed => bit-identical trace.
        let mut det = Table::new(
            "determinism (two in-process runs)",
            &["scenario", "arm", "hash run 1", "hash run 2", "equal"],
        );
        for (scenario, arm) in [
            ("partition-ramp", "robust"),
            // The durable path: same seed must mean the same recovery.
            ("kill-recover", "torn"),
        ] {
            let a = run_scenario(scenario, arm, E19_SEED, ScriptMode::Record);
            let b = run_scenario(scenario, arm, E19_SEED, ScriptMode::Record);
            let equal = a.trace_hash == b.trace_hash && a.trace == b.trace;
            pass &= equal;
            if !equal {
                notes.push(format!("{scenario}/{arm} is nondeterministic"));
            }
            det.row(&[
                scenario.to_string(),
                arm.to_string(),
                format!("{:016x}", a.trace_hash),
                format!("{:016x}", b.trace_hash),
                equal.to_string(),
            ]);
        }

        notes.push(
            "robust/torn arms must end verify-consistent and live; naive must be flagged"
                .to_string(),
        );
        ExperimentResult {
            id: self.id().to_string(),
            title: self.title().to_string(),
            paper_ref: "whole-system validation of §4-§6 constructions under systemic faults"
                .to_string(),
            tables: vec![table, det],
            notes,
            pass,
        }
    }
}

/// The E20 durability experiment: see module docs.
pub struct E20Recovery;

impl Experiment for E20Recovery {
    fn id(&self) -> &'static str {
        "e20"
    }

    fn title(&self) -> &'static str {
        "durable kill-recover: WAL replay after kills, torn power-fail tails, refused naive replay"
    }

    fn run(&self) -> ExperimentResult {
        let mut pass = true;
        let mut notes = Vec::new();

        // The kill-recover matrix at the pinned seed: a durable server
        // killed mid-serve (torn arm: power-failed), its respawn
        // recovering from the machine's surviving WAL bytes.
        let mut matrix = Table::new(
            "kill-recover matrix @ pinned seed",
            &[
                "arm",
                "completed",
                "ckpts loaded",
                "records replayed",
                "torn tails",
                "recovery refused",
                "consistent",
                "flagged",
                "contract",
            ],
        );
        for arm in arms("kill-recover") {
            let r = run_scenario("kill-recover", arm, E19_SEED, ScriptMode::Record);
            let ok = arm_ok(&r);
            pass &= ok;
            if !ok {
                notes.push(format!(
                    "kill-recover/{arm} broke its contract: flagged={} violations={:?}",
                    r.flagged, r.violations
                ));
            }
            matrix.row(&[
                arm.to_string(),
                r.completed.to_string(),
                r.recovered_checkpoints.to_string(),
                r.recovered_records.to_string(),
                r.recovered_torn.to_string(),
                r.recovery_refused.to_string(),
                r.consistent.to_string(),
                r.flagged.to_string(),
                if ok { "ok" } else { "BROKEN" }.to_string(),
            ]);
        }

        // Recovery wall time over a real on-disk WAL: write n ops
        // through a durable store, drop it cold (the kill model — the
        // unsynced group-commit tail is lost), then time
        // `Store::recover` on the same dir.
        let mut timing = Table::new(
            "measured recovery time (FsMedia, robust backend, 2 shards)",
            &[
                "ops written",
                "ckpts loaded",
                "records replayed",
                "recover wall ms",
                "verify",
            ],
        );
        for &n in &[2_000u32, 20_000] {
            match timed_recovery(n) {
                Ok(row) => {
                    pass &= row.4;
                    timing.row(&[
                        n.to_string(),
                        row.0.to_string(),
                        row.1.to_string(),
                        format!("{:.1}", row.3),
                        row.4.to_string(),
                    ]);
                }
                Err(e) => {
                    pass = false;
                    notes.push(format!("timed recovery at n={n} failed: {e}"));
                }
            }
        }

        notes.push(
            "robust arm: kill drops the store, replay restores it verify-consistent; torn arm: \
             power loss tears the in-flight group commit and recovery lands on the last \
             completed fsync; naive arm: replay through faulty naive cells diverges from the \
             recorded digests and the respawn is refused — never served"
                .to_string(),
        );
        ExperimentResult {
            id: self.id().to_string(),
            title: self.title().to_string(),
            paper_ref: "crash-prone processes over surviving shared state (Golab; \
                        Lundström/Raynal/Schiller) layered on the paper's functional faults"
                .to_string(),
            tables: vec![matrix, timing],
            notes,
            pass,
        }
    }
}

/// Write `n` ops through a durable store on a real temp dir, drop it
/// cold, and time `Store::recover`. Returns
/// `(ckpts, records, skipped, wall_ms, verify_ok)`.
#[allow(clippy::type_complexity)]
fn timed_recovery(n: u32) -> Result<(u64, u64, u64, f64, bool), String> {
    use ff_store::{Backend, FaultConfig, Kv, KvOp, Store, StoreConfig};

    let dir = std::env::temp_dir().join(format!("ff-e20-{}-{n}", std::process::id(),));
    let config = StoreConfig::builder()
        .shards(2)
        .backend(Backend::robust())
        .fault(FaultConfig {
            rate: 0.05,
            ..FaultConfig::default()
        })
        .rotate_kinds(true)
        .checkpoint_interval(64)
        .seed(0xE20)
        .data_dir(&dir)
        .group_commit(64)
        .build()
        .map_err(|e| e.to_string())?;
    {
        let store = Store::new(config.clone());
        let mut client = store.client();
        for i in 0..n {
            let ops = [KvOp::Put(i % 512, i)];
            client.batch(&ops).map_err(|e| e.to_string())?;
        }
        // Dropped cold: no flush — the kill model.
    }
    let start = std::time::Instant::now();
    let (store, report) = Store::recover(config).map_err(|e| e.to_string())?;
    let wall_ms = start.elapsed().as_secs_f64() * 1_000.0;
    let ok = store.verify(&mut []).all_consistent();
    let out = (
        report.checkpoints_loaded(),
        report.records_replayed(),
        report.torn_tails(),
        wall_ms,
        ok,
    );
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
    Ok(out)
}
