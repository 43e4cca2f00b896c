//! Regenerate the experiment tables of EXPERIMENTS.md.
//!
//! ```text
//! cargo run --release -p ff-bench --bin report            # all experiments
//! cargo run --release -p ff-bench --bin report -- e3      # one experiment
//! cargo run --release -p ff-bench --bin report -- list    # list ids
//! cargo run --release -p ff-bench --bin report -- all --json out.json
//! cargo run --release -p ff-bench --bin report -- all --json-out BENCH_report.json
//! cargo run --release -p ff-bench --bin report -- all --threads 4
//! ```
//!
//! `--threads N` sets the explorer worker count for every exhaustive
//! scan (equivalent to `FF_EXPLORER_THREADS=N`; default: all cores).
//!
//! `--json` writes the full rendered tables; `--json-out` writes the
//! machine-readable run summary (per-experiment verdict + wall time,
//! plus an explorer throughput calibration) CI trends on.

use ff_workload::{find, registry, to_json, Experiment, ExperimentResult, JsonValue};
use std::time::Instant;

/// All experiments: the workload registry (E1–E14) plus the store-level
/// soak (E15, in `ff-store`), the network soaks (E16/E17, in `ff-net`),
/// the combining study (E18, in this crate's lib), the
/// deterministic whole-system simulation corpus and its durability
/// study (E19/E20, in `ff-dst`) and the consensus-substrate hierarchy
/// sweep (E21, in this crate's lib) — they depend on `ff-workload`, so
/// the registry itself cannot name them without a cycle.
fn full_registry() -> Vec<Box<dyn Experiment>> {
    let mut all = registry();
    all.push(Box::new(ff_store::E15StoreSoak));
    all.push(Box::new(ff_net::E16NetSoak));
    all.push(Box::new(ff_net::E17ReactorSoak));
    all.push(Box::new(ff_bench::E18Combining));
    all.push(Box::new(ff_dst::E19Dst));
    all.push(Box::new(ff_dst::E20Recovery));
    all.push(Box::new(ff_bench::E21Substrates));
    all
}

fn find_any(id: &str) -> Option<Box<dyn Experiment>> {
    find(id)
        .or_else(|| {
            id.eq_ignore_ascii_case("e15")
                .then(|| Box::new(ff_store::E15StoreSoak) as Box<dyn Experiment>)
        })
        .or_else(|| {
            id.eq_ignore_ascii_case("e16")
                .then(|| Box::new(ff_net::E16NetSoak) as Box<dyn Experiment>)
        })
        .or_else(|| {
            id.eq_ignore_ascii_case("e17")
                .then(|| Box::new(ff_net::E17ReactorSoak) as Box<dyn Experiment>)
        })
        .or_else(|| {
            id.eq_ignore_ascii_case("e18")
                .then(|| Box::new(ff_bench::E18Combining) as Box<dyn Experiment>)
        })
        .or_else(|| {
            id.eq_ignore_ascii_case("e19")
                .then(|| Box::new(ff_dst::E19Dst) as Box<dyn Experiment>)
        })
        .or_else(|| {
            id.eq_ignore_ascii_case("e20")
                .then(|| Box::new(ff_dst::E20Recovery) as Box<dyn Experiment>)
        })
        .or_else(|| {
            id.eq_ignore_ascii_case("e21")
                .then(|| Box::new(ff_bench::E21Substrates) as Box<dyn Experiment>)
        })
}

/// A fixed exhaustive scan (cascade, f = 1 faulty of 2 objects, n = 3
/// processes, unbounded overriding faults) timed to calibrate explorer
/// throughput on this machine — the denominator that makes wall times
/// comparable across hosts.
fn explorer_calibration() -> JsonValue {
    use ff_consensus::cascades;
    use ff_sim::{explore_parallel, ExplorerConfig, FaultPlan, Heap, SimState};
    use ff_spec::{Bound, Input};

    let inputs: Vec<Input> = (0..3).map(|i| Input(100 + i)).collect();
    let plan = FaultPlan::overriding(1, Bound::Unbounded);
    let state = SimState::new(cascades(&inputs, 1), Heap::new(2, 0), plan);
    let config = ExplorerConfig {
        threads: ff_sim::default_threads(),
        ..ExplorerConfig::default()
    };
    let start = Instant::now();
    let report = explore_parallel(state, config);
    let secs = start.elapsed().as_secs_f64();
    let states = report.states_expanded;
    JsonValue::Object(vec![
        (
            "scenario".into(),
            JsonValue::String("cascade f=1 n=3 overriding unbounded".into()),
        ),
        ("threads".into(), JsonValue::Number(config.threads as f64)),
        ("states_expanded".into(), JsonValue::Number(states as f64)),
        ("wall_secs".into(), JsonValue::Number(secs)),
        (
            "states_per_sec".into(),
            JsonValue::Number(if secs > 0.0 {
                states as f64 / secs
            } else {
                0.0
            }),
        ),
        ("verified".into(), JsonValue::Bool(report.verified())),
    ])
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut json_path: Option<String> = None;
    let mut json_out_path: Option<String> = None;
    let mut selectors: Vec<String> = Vec::new();
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--json" => {
                json_path = Some(it.next().unwrap_or_else(|| {
                    eprintln!("--json requires a path");
                    std::process::exit(2);
                }));
            }
            "--json-out" => {
                json_out_path = Some(it.next().unwrap_or_else(|| {
                    eprintln!("--json-out requires a path");
                    std::process::exit(2);
                }));
            }
            "--threads" => {
                let n = it
                    .next()
                    .and_then(|s| s.parse::<usize>().ok())
                    .filter(|&n| n > 0)
                    .unwrap_or_else(|| {
                        eprintln!("--threads requires a positive integer");
                        std::process::exit(2);
                    });
                // The experiments resolve their worker count through
                // ff_sim::default_threads(), which reads this variable.
                std::env::set_var("FF_EXPLORER_THREADS", n.to_string());
            }
            other => selectors.push(other.to_string()),
        }
    }

    if selectors.iter().any(|s| s == "list") {
        for e in full_registry() {
            println!("{:4}  {}", e.id(), e.title());
        }
        return;
    }

    let experiments: Vec<Box<dyn Experiment>> =
        if selectors.is_empty() || selectors.iter().any(|s| s == "all") {
            full_registry()
        } else {
            selectors
                .iter()
                .map(|s| {
                    find_any(s).unwrap_or_else(|| {
                        eprintln!("unknown experiment id: {s} (try `report list`)");
                        std::process::exit(2);
                    })
                })
                .collect()
        };

    let mut results: Vec<ExperimentResult> = Vec::new();
    let mut wall_secs: Vec<f64> = Vec::new();
    let mut all_pass = true;
    for e in experiments {
        eprintln!("running {} …", e.id());
        let start = Instant::now();
        let result = e.run();
        wall_secs.push(start.elapsed().as_secs_f64());
        println!("{}", result.render());
        all_pass &= result.pass;
        results.push(result);
    }

    println!(
        "\n==== {} experiment(s): {} ====",
        results.len(),
        if all_pass {
            "ALL PASS"
        } else {
            "FAILURES PRESENT"
        }
    );

    if let Some(path) = json_path {
        std::fs::write(&path, to_json(&results)).unwrap_or_else(|e| {
            eprintln!("failed to write {path}: {e}");
            std::process::exit(1);
        });
        eprintln!("wrote {path}");
    }

    if let Some(path) = json_out_path {
        eprintln!("calibrating explorer throughput …");
        let summary = JsonValue::Object(vec![
            (
                "experiments".into(),
                JsonValue::Array(
                    results
                        .iter()
                        .zip(&wall_secs)
                        .map(|(r, secs)| {
                            JsonValue::Object(vec![
                                ("id".into(), JsonValue::String(r.id.clone())),
                                ("title".into(), JsonValue::String(r.title.clone())),
                                ("pass".into(), JsonValue::Bool(r.pass)),
                                ("wall_secs".into(), JsonValue::Number(*secs)),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("all_pass".into(), JsonValue::Bool(all_pass)),
            (
                "total_wall_secs".into(),
                JsonValue::Number(wall_secs.iter().sum()),
            ),
            ("explorer_calibration".into(), explorer_calibration()),
        ]);
        std::fs::write(&path, summary.render()).unwrap_or_else(|e| {
            eprintln!("failed to write {path}: {e}");
            std::process::exit(1);
        });
        eprintln!("wrote {path}");
    }

    if !all_pass {
        std::process::exit(1);
    }
}
