//! Exhaustive small-config model of ff-store's shard cores:
//! lock-serialised appends plus the wait-free read fast path.
//!
//! The protocol under check is the one `ff-store`'s `combine` module
//! implements: every write — and every read that cannot prove
//! freshness — takes the shard core's lock, appends one record to the
//! shard log, advances the shared replica, and releases the lock; a
//! read may instead complete wait-free from the shared replica when the
//! replica's applied index covers the tail the reader observed. The
//! model is deliberately small — a handful of clients, a register-shaped
//! log — but the *interleavings* are explored exhaustively, including
//! the one the live system cannot be steered into on demand: a lock
//! holder parked between its append and its replica apply while readers
//! sample the grown tail.
//!
//! Tolerated cell faults are abstracted as **bounded append stutters**:
//! an append step may fail and be retried up to the budget
//! ([`ff_spec::Bound::Finite`]), with the adversary choosing when. That
//! is what the robust log constructions reduce tolerated fault kinds to
//! — extra propose rounds and adversarial ordering, never a wrong
//! decision (the reduction itself is verified by the explorer's
//! consensus models; broken *un*tolerated cells are covered by
//! ff-store's divergence tests, not here).
//!
//! Two properties are checked on every reachable state:
//!
//! 1. **Freshness** — no read, fast-path or locked, returns a state
//!    staler than the shard's decided tail at the moment the read began.
//! 2. **Exactly once** — every run quiesces with every client finished
//!    and every write appended, and no op appears twice in the log.
//!
//! Setting [`CombineModelConfig::guarded`] to `false` removes the
//! freshness guard (reads answer from the replica unconditionally),
//! which must make the checker report stale reads — the standard
//! broken-variant sanity check that the model can see violations at
//! all.

use ff_spec::Bound;
use std::collections::HashSet;

/// One small configuration of the combining model.
#[derive(Clone, Copy, Debug)]
pub struct CombineModelConfig {
    /// Number of clients.
    pub clients: usize,
    /// Rounds per client; each round is one write followed by one read.
    pub rounds: usize,
    /// Tolerated append stutters for the whole run (the cell-fault
    /// abstraction). Must be [`Bound::Finite`] — unbounded stutter
    /// admits infinite runs, which is exactly the nontermination the
    /// paper's tolerated-fault budgets exclude.
    pub stutter_budget: Bound,
    /// Keep the read fast path's freshness guard. `false` checks the
    /// deliberately broken variant (reads answer unconditionally) and
    /// must produce stale-read violations.
    pub guarded: bool,
}

/// What exhaustive exploration of one configuration found.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CombineModelReport {
    /// Distinct states visited.
    pub states: usize,
    /// Distinct quiescent (terminal) states.
    pub terminals: usize,
    /// Reads that returned a state staler than the decided tail observed
    /// at read start (property 1 violations).
    pub stale_reads: usize,
    /// Terminal states where a client did not finish or a write never
    /// reached the log (property 2: lost).
    pub lost_ops: usize,
    /// States where an op appears more than once in the log
    /// (property 2: duplicated).
    pub duplicated_ops: usize,
}

impl CombineModelReport {
    /// No property was violated anywhere in the state space.
    pub fn clean(&self) -> bool {
        self.stale_reads == 0 && self.lost_ops == 0 && self.duplicated_ops == 0
    }
}

/// Per-client control state.
#[derive(Clone, PartialEq, Eq, Hash)]
enum Phase {
    /// Between operations.
    Ready,
    /// A read sampled the decided tail (`observed`) and is about to
    /// check the replica — the adversarial gap is between that sample
    /// and the replica check.
    FastCheck { observed: u8 },
    /// Waiting for the core lock.
    Locking,
    /// Holding the lock; the append is next (this is where stutters
    /// bite).
    Append,
    /// Holding the lock with the record appended at log length `pos`;
    /// the replica apply and the lock release are next. A reader
    /// scheduled here sees the tail grown but the replica lagging — the
    /// window the freshness guard exists for.
    Apply { pos: u8 },
}

/// One explorable state of the whole system.
#[derive(Clone, PartialEq, Eq, Hash)]
struct State {
    phase: Vec<Phase>,
    /// Next program index per client.
    pc: Vec<u8>,
    /// Decided log: one op per locked call.
    log: Vec<u8>,
    /// Records the shared replica has applied.
    applied: u8,
    /// Per client: the decided tail when its in-flight op began (for
    /// the freshness check on locked reads).
    dstart: Vec<u8>,
    /// Remaining tolerated append stutters.
    budget: u8,
}

/// Client `c`'s `k`-th operation id. Even ids are writes, odd are
/// reads (each round is write-then-read), and ids are globally unique.
fn op_id(c: usize, k: u8) -> u8 {
    (c as u8) << 4 | k
}

fn is_write(pc: u8) -> bool {
    pc.is_multiple_of(2)
}

fn explore(cfg: &CombineModelConfig) -> CombineModelReport {
    let n = cfg.clients;
    let prog_len = (cfg.rounds * 2) as u8;
    let budget = match cfg.stutter_budget {
        Bound::Finite(t) => u8::try_from(t).expect("stutter budget fits in u8"),
        _ => panic!("the combining model needs a finite stutter budget"),
    };
    assert!((1..=4).contains(&n), "small configs only (1..=4 clients)");

    let init = State {
        phase: vec![Phase::Ready; n],
        pc: vec![0; n],
        log: Vec::new(),
        applied: 0,
        dstart: vec![0; n],
        budget,
    };

    let mut report = CombineModelReport::default();
    let mut seen: HashSet<State> = HashSet::new();
    let mut stack = vec![init];
    while let Some(st) = stack.pop() {
        if seen.contains(&st) {
            continue;
        }
        report.states += 1;
        if st
            .log
            .iter()
            .any(|op| st.log.iter().filter(|&o| o == op).count() > 1)
        {
            report.duplicated_ops += 1;
        }
        let succs = successors(&st, cfg, prog_len);
        if succs.is_empty() {
            report.terminals += 1;
            // Quiescence: every client finished and every write is in
            // the log; a wedged run or a missing write is a lost op.
            let all_done = (0..n).all(|i| st.pc[i] == prog_len && st.phase[i] == Phase::Ready);
            let writes_present = (0..n).all(|c| {
                (0..prog_len)
                    .filter(|&k| is_write(k))
                    .all(|k| st.log.contains(&op_id(c, k)))
            });
            if !all_done || !writes_present {
                report.lost_ops += 1;
            }
        } else {
            for (succ, stale) in succs {
                if stale {
                    report.stale_reads += 1;
                }
                stack.push(succ);
            }
        }
        seen.insert(st);
    }
    report
}

/// All enabled transitions from `st`; the `bool` marks a completed read
/// that violated freshness (returned a prefix older than the decided
/// tail at read start).
fn successors(st: &State, cfg: &CombineModelConfig, prog_len: u8) -> Vec<(State, bool)> {
    let n = st.phase.len();
    let locked = st
        .phase
        .iter()
        .any(|p| matches!(p, Phase::Append | Phase::Apply { .. }));
    let mut out = Vec::new();
    for i in 0..n {
        match &st.phase[i] {
            Phase::Ready => {
                if st.pc[i] >= prog_len {
                    continue;
                }
                let started = st.log.len() as u8;
                let mut locking = st.clone();
                locking.dstart[i] = started;
                locking.phase[i] = Phase::Locking;
                out.push((locking, false));
                if !is_write(st.pc[i]) {
                    // A read may also try the fast path (sample the tail).
                    let mut fast = st.clone();
                    fast.phase[i] = Phase::FastCheck { observed: started };
                    out.push((fast, false));
                }
            }
            Phase::FastCheck { observed } => {
                let mut s = st.clone();
                if st.applied >= *observed || !cfg.guarded {
                    // Complete from the replica. Fresh iff the replica
                    // covers the decided tail at read start.
                    s.pc[i] += 1;
                    s.phase[i] = Phase::Ready;
                    out.push((s, st.applied < *observed));
                } else {
                    // Freshness unprovable: fall back to the locked path.
                    s.dstart[i] = *observed;
                    s.phase[i] = Phase::Locking;
                    out.push((s, false));
                }
            }
            Phase::Locking => {
                if !locked {
                    let mut s = st.clone();
                    s.phase[i] = Phase::Append;
                    out.push((s, false));
                }
            }
            Phase::Append => {
                let mut s = st.clone();
                s.log.push(op_id(i, st.pc[i]));
                s.phase[i] = Phase::Apply {
                    pos: s.log.len() as u8,
                };
                out.push((s, false));
                // Tolerated cell fault: the append stutters and must be
                // retried (adversary's choice, bounded by the budget).
                if st.budget > 0 {
                    let mut stut = st.clone();
                    stut.budget -= 1;
                    out.push((stut, false));
                }
            }
            Phase::Apply { pos } => {
                // The shared replica catches up to the whole log, the
                // lock is released, and the op completes. A locked read
                // linearizes at its record's log position, which must
                // cover the tail at read start.
                let mut s = st.clone();
                s.applied = s.log.len() as u8;
                s.pc[i] += 1;
                s.phase[i] = Phase::Ready;
                // The op is over; zero the bookkeeping so states
                // differing only in dead freshness marks merge.
                s.dstart[i] = 0;
                out.push((s, !is_write(st.pc[i]) && *pos < st.dstart[i]));
            }
        }
    }
    out
}

/// Exhaustively check one configuration.
pub fn check_combining(cfg: &CombineModelConfig) -> CombineModelReport {
    explore(cfg)
}

/// The small-config grid E18 runs: every configuration here must come
/// back [`CombineModelReport::clean`].
pub fn combining_grid() -> Vec<CombineModelConfig> {
    let mut grid: Vec<CombineModelConfig> = [(2usize, 0u64), (2, 1), (2, 2), (3, 0), (3, 1)]
        .iter()
        .map(|&(clients, stutters)| CombineModelConfig {
            clients,
            rounds: 1,
            stutter_budget: Bound::Finite(stutters),
            guarded: true,
        })
        .collect();
    grid.push(CombineModelConfig {
        clients: 2,
        rounds: 2,
        stutter_budget: Bound::Finite(1),
        guarded: true,
    });
    grid
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_grid_is_clean() {
        for cfg in combining_grid() {
            let t0 = std::time::Instant::now();
            let report = check_combining(&cfg);
            eprintln!("{cfg:?} -> {report:?} in {:?}", t0.elapsed());
            assert!(
                report.clean(),
                "violations in {cfg:?}: {report:?} (freshness or exactly-once broken)"
            );
            assert!(report.states > 10, "degenerate exploration: {report:?}");
            assert!(report.terminals > 0, "no quiescent state: {report:?}");
        }
    }

    #[test]
    fn unguarded_fast_reads_are_caught() {
        // Removing the freshness guard must surface stale reads — the
        // checker can actually see property-1 violations.
        let report = check_combining(&CombineModelConfig {
            clients: 2,
            rounds: 1,
            stutter_budget: Bound::Finite(1),
            guarded: false,
        });
        assert!(
            report.stale_reads > 0,
            "unguarded variant produced no stale reads: {report:?}"
        );
        assert_eq!(report.lost_ops, 0, "{report:?}");
        assert_eq!(report.duplicated_ops, 0, "{report:?}");
    }

    #[test]
    fn stutters_exercise_retries_without_losing_ops() {
        let none = check_combining(&CombineModelConfig {
            clients: 2,
            rounds: 1,
            stutter_budget: Bound::Finite(0),
            guarded: true,
        });
        let some = check_combining(&CombineModelConfig {
            clients: 2,
            rounds: 1,
            stutter_budget: Bound::Finite(2),
            guarded: true,
        });
        assert!(none.clean() && some.clean());
        assert!(
            some.states > none.states,
            "stutter branches added no states: {none:?} vs {some:?}"
        );
    }

    #[test]
    #[should_panic(expected = "finite stutter budget")]
    fn unbounded_stutter_is_refused() {
        check_combining(&CombineModelConfig {
            clients: 2,
            rounds: 1,
            stutter_budget: Bound::Unbounded,
            guarded: true,
        });
    }
}
