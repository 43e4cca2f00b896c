//! `dst` — drive the deterministic simulator from the command line.
//!
//! ```text
//! dst run --scenario partition-ramp --arm naive --seed 0xDD570001
//! dst corpus [--seed N]
//! dst minimize --scenario partition-ramp --arm naive --seed N --out golden.json
//! dst replay --golden crates/dst/golden/partition-ramp-naive.json
//! ```
//!
//! `run` executes one `(scenario, arm, seed)` and prints the report;
//! exit status reflects the arm's contract. `corpus` runs every pair.
//! `minimize` records a failing run, shrinks its fault script to a
//! 1-minimal set with ddmin, and writes a golden-trace file. `replay`
//! re-executes a golden file and checks the violation still reproduces.

use ff_dst::net::ScriptMode;
use ff_dst::scenario::{arm_ok, arms, run_scenario, CORPUS};
use ff_dst::trace::{minimize, GoldenTrace};
use ff_dst::RunReport;
use ff_store::Backend;

fn usage() -> ! {
    eprintln!(
        "usage: dst <command> [options]\n\
         \x20 run      --scenario S --arm A [--seed N] [--trace]\n\
         \x20 corpus   [--seed N]\n\
         \x20 minimize --scenario S --arm A [--seed N] --out PATH\n\
         \x20 replay   --golden PATH\n\
         scenarios: partition-ramp kill-checkpoint restart-drain kill-recover"
    );
    std::process::exit(2);
}

#[derive(Default)]
struct Opts {
    scenario: Option<String>,
    arm: Option<String>,
    seed: u64,
    out: Option<String>,
    golden: Option<String>,
    show_trace: bool,
}

fn parse_seed(s: &str) -> Option<u64> {
    if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        s.parse().ok()
    }
}

fn parse(args: &[String]) -> Opts {
    let mut opts = Opts {
        seed: ff_dst::experiment::E19_SEED,
        ..Opts::default()
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next().cloned().unwrap_or_else(|| {
                eprintln!("{flag} requires a value");
                usage();
            })
        };
        match arg.as_str() {
            "--scenario" => opts.scenario = Some(value("--scenario")),
            "--arm" => opts.arm = Some(value("--arm")),
            "--seed" => {
                opts.seed = parse_seed(&value("--seed")).unwrap_or_else(|| usage());
            }
            "--out" => opts.out = Some(value("--out")),
            "--golden" => opts.golden = Some(value("--golden")),
            "--trace" => opts.show_trace = true,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown argument: {other}");
                usage();
            }
        }
    }
    opts
}

fn print_report(r: &RunReport, show_trace: bool) {
    println!(
        "dst: {}/{} seed={:#x} events={} net-decisions={} completed={} \
         consistent={} flagged={} trace-hash={:016x}",
        r.scenario,
        r.arm,
        r.seed,
        r.events,
        r.decisions,
        r.completed,
        r.consistent,
        r.flagged,
        r.trace_hash
    );
    for v in &r.violations {
        println!("dst:   violation: {v}");
    }
    if show_trace {
        for line in &r.trace {
            println!("{line}");
        }
    }
}

fn cmd_run(opts: Opts) -> i32 {
    let scenario = opts.scenario.unwrap_or_else(|| usage());
    let arm = opts.arm.unwrap_or_else(|| usage());
    let r = run_scenario(&scenario, &arm, opts.seed, ScriptMode::Record);
    print_report(&r, opts.show_trace);
    let ok = arm_ok(&r);
    println!(
        "dst: contract {}",
        if ok {
            "ok"
        } else {
            "BROKEN (this is the replayable failure)"
        }
    );
    i32::from(!ok)
}

fn cmd_corpus(opts: Opts) -> i32 {
    let mut failures = 0;
    for def in CORPUS {
        for arm in def.arms {
            let r = run_scenario(def.name, arm, opts.seed, ScriptMode::Record);
            let ok = arm_ok(&r);
            print_report(&r, false);
            println!("dst: contract {}", if ok { "ok" } else { "BROKEN" });
            failures += i32::from(!ok);
        }
    }
    println!(
        "dst: corpus {} at seed {:#x}",
        if failures == 0 { "clean" } else { "BROKEN" },
        opts.seed
    );
    failures.min(1)
}

/// The reproduction predicate a golden trace pins down: for the
/// catch-me `naive` arm the interesting event IS the flag (for a
/// durable naive arm, specifically the refused recovery), so that is
/// what minimization preserves; for well-behaved arms it is any
/// contract violation.
fn violation_of(r: &RunReport) -> Option<&'static str> {
    match r.arm.as_str() {
        "naive" if r.recovery_refused > 0 => Some("recovery-refused"),
        "naive" => r.flagged.then_some("flagged"),
        _ => (!arm_ok(r)).then_some("contract"),
    }
}

fn reproduces(r: &RunReport, violation: &str) -> bool {
    match violation {
        "flagged" => r.flagged,
        "recovery-refused" => r.recovery_refused > 0,
        _ => !arm_ok(r),
    }
}

fn cmd_minimize(opts: Opts) -> i32 {
    let scenario = opts.scenario.unwrap_or_else(|| usage());
    let arm = opts.arm.unwrap_or_else(|| usage());
    let out = opts.out.unwrap_or_else(|| usage());
    let recorded = run_scenario(&scenario, &arm, opts.seed, ScriptMode::Record);
    let Some(violation) = violation_of(&recorded) else {
        eprintln!(
            "dst: {scenario}/{arm} seed={:#x} does not fail; nothing to minimize",
            opts.seed
        );
        return 1;
    };
    println!(
        "dst: recorded failing run, {} scripted fault(s) over {} decisions; minimizing …",
        recorded.script.len(),
        recorded.decisions
    );
    let mut replays = 0u32;
    let minimal = minimize(&recorded.script, |candidate| {
        replays += 1;
        let r = run_scenario(
            &scenario,
            &arm,
            opts.seed,
            ScriptMode::Replay(candidate.clone()),
        );
        reproduces(&r, violation)
    });
    let confirm = run_scenario(
        &scenario,
        &arm,
        opts.seed,
        ScriptMode::Replay(minimal.clone()),
    );
    assert!(
        reproduces(&confirm, violation),
        "minimized script no longer reproduces"
    );
    let golden = GoldenTrace {
        scenario,
        arm,
        seed: opts.seed,
        violation: violation.to_string(),
        script: minimal,
        trace_hash: format!("{:016x}", confirm.trace_hash),
    };
    std::fs::write(&out, golden.to_json()).unwrap_or_else(|e| {
        eprintln!("dst: cannot write {out}: {e}");
        std::process::exit(1);
    });
    println!(
        "dst: minimized {} -> {} scripted fault(s) in {replays} replays; wrote {out}",
        recorded.script.len(),
        golden.script.len()
    );
    if golden.script.is_empty() {
        println!("dst: note: empty script — the violation needs no network faults at this seed");
    }
    0
}

fn cmd_replay(opts: Opts) -> i32 {
    let path = opts.golden.unwrap_or_else(|| usage());
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        eprintln!("dst: cannot read {path}: {e}");
        std::process::exit(1);
    });
    let golden = GoldenTrace::from_json(&text).unwrap_or_else(|| {
        eprintln!("dst: {path} is not a golden-trace file");
        std::process::exit(1);
    });
    let r = run_scenario(
        &golden.scenario,
        &golden.arm,
        golden.seed,
        ScriptMode::Replay(golden.script.clone()),
    );
    print_report(&r, opts.show_trace);
    if reproduces(&r, &golden.violation) {
        println!(
            "dst: golden {} reproduced ({} on {}/{})",
            path, golden.violation, golden.scenario, golden.arm
        );
        0
    } else {
        println!("dst: golden {path} DID NOT reproduce — regression in the failure itself");
        1
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        usage();
    };
    let opts = parse(rest);
    if let Some(s) = &opts.scenario {
        // Fail fast on typos (also validates the arm when present).
        // Every scenario accepts its declared arms plus *any*
        // registered substrate — `--arm kw-robust` on partition-ramp
        // resolves through the registry exactly like `--backend` on
        // the soak CLIs.
        let known = arms(s);
        if let Some(a) = &opts.arm {
            if !known.contains(&a.as_str()) && a.parse::<Backend>().is_err() {
                eprintln!(
                    "dst: scenario {s} has arms {known:?} (or any registered \
                     substrate: {}), not {a:?}",
                    ff_store::substrate_names().join(", ")
                );
                std::process::exit(2);
            }
        }
    }
    let code = match cmd.as_str() {
        "run" => cmd_run(opts),
        "corpus" => cmd_corpus(opts),
        "minimize" => cmd_minimize(opts),
        "replay" => cmd_replay(opts),
        _ => usage(),
    };
    std::process::exit(code);
}
