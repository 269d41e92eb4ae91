//! The linearizability gate for recorded single-key histories.
//!
//! The repo's Wing–Gong search (`workload::linearize::check_history`) is
//! exact but exponential in how many operations overlap: on `wan-paper`
//! (250 clients, a dozen hot-key operations in flight at any instant) it
//! exhausts a 4 M-state budget on a 5-second history. The histories here
//! write distinct values, so every read names its write, and for such
//! histories Gibbons and Korach ("Testing Shared Memories", 1997) give an
//! exact test that needs no search:
//!
//! Group each write with the reads that returned it. A linearization must
//! keep each group together, write first. Let a group's `first_end` be
//! the earliest response among its operations and `last_start` the latest
//! invocation. Group A can go before group B unless some operation of B
//! ended before some operation of A began, i.e. unless
//! `B.first_end < A.last_start`. The history is linearizable exactly when
//! no read ended before its own write began and every pair of groups can
//! be put in at least one order. (A cycle over three or more groups would
//! need `A.first_end < B.last_start <= C.first_end < ... < A.first_end`.)
//!
//! The unit tests hold this test against Wing–Gong on recorded histories
//! small enough for both.

use std::collections::BTreeMap;

use paxraft_workload::linearize::{Action, OpRecord};

/// A write and the reads that observed it. Times are shifted up by one
/// so that 0 can stand for "before everything" (the initial value).
struct Group {
    write_start: u64,
    first_end: u64,
    last_start: u64,
}

/// Checks one register's history.
///
/// # Errors
///
/// Returns a description of the first violation found.
pub fn check_register(history: &[OpRecord]) -> Result<(), String> {
    // `None` keys the initial value, whose "write" precedes everything.
    let mut groups: BTreeMap<Option<u64>, Group> = BTreeMap::new();
    groups.insert(
        None,
        Group {
            write_start: 0,
            first_end: 0,
            last_start: 0,
        },
    );
    for op in history {
        if op.respond_ns < op.invoke_ns {
            return Err(format!("operation responds before it is invoked: {op:?}"));
        }
        if let Action::Write(v) = op.action {
            let start = op.invoke_ns + 1;
            let clash = groups.insert(
                Some(v),
                Group {
                    write_start: start,
                    first_end: op.respond_ns.saturating_add(1),
                    last_start: start,
                },
            );
            if clash.is_some() {
                return Err(format!("value {v} written twice"));
            }
        }
    }
    for op in history {
        let Action::Read(v) = op.action else {
            continue;
        };
        let Some(g) = groups.get_mut(&v) else {
            return Err(format!("read of a value nobody wrote: {op:?}"));
        };
        let (start, end) = (op.invoke_ns + 1, op.respond_ns.saturating_add(1));
        if end < g.write_start {
            return Err(format!("read ended before its write began: {op:?}"));
        }
        g.first_end = g.first_end.min(end);
        g.last_start = g.last_start.max(start);
    }
    let groups: Vec<(Option<u64>, Group)> = groups.into_iter().collect();
    for (i, (va, a)) in groups.iter().enumerate() {
        for (vb, b) in &groups[i + 1..] {
            if b.first_end < a.last_start && a.first_end < b.last_start {
                return Err(format!(
                    "values {va:?} and {vb:?} can be ordered neither way: each has an \
                     operation that ended before one of the other's began"
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use paxraft_core::client::WorkloadClient;
    use paxraft_core::harness::{Cluster, ProtocolKind};
    use paxraft_sim::time::SimDuration;
    use paxraft_workload::generator::{WorkloadConfig, HOT_KEY};
    use paxraft_workload::linearize::{check_history, CheckError};

    fn op(action: Action, invoke_ns: u64, respond_ns: u64) -> OpRecord {
        OpRecord {
            client: 0,
            key: 0,
            action,
            invoke_ns,
            respond_ns,
        }
    }

    #[test]
    fn textbook_cases() {
        use Action::{Read, Write};
        // Stale read: 7 was overwritten by 8 before the read began.
        let stale = [
            op(Write(7), 0, 10),
            op(Write(8), 20, 30),
            op(Read(Some(7)), 40, 50),
        ];
        assert!(check_register(&stale).is_err());
        // The same read overlapping the second write is fine.
        let overlap = [
            op(Write(7), 0, 10),
            op(Write(8), 20, 60),
            op(Read(Some(7)), 40, 50),
        ];
        assert!(check_register(&overlap).is_ok());
        // Reading the future, the initial value after a completed write,
        // and two reads that disagree on the order of two writes.
        assert!(check_register(&[op(Read(Some(7)), 0, 10), op(Write(7), 20, 30)]).is_err());
        assert!(check_register(&[op(Write(7), 0, 10), op(Read(None), 20, 30)]).is_err());
        assert!(check_register(&[op(Write(7), 0, 30), op(Read(None), 10, 20)]).is_ok());
        let split_brain = [
            op(Write(1), 0, 100),
            op(Write(2), 0, 100),
            op(Read(Some(1)), 10, 20),
            op(Read(Some(2)), 30, 40),
            op(Read(Some(1)), 50, 60),
        ];
        assert!(check_register(&split_brain).is_err());
        assert!(check_register(&[op(Read(Some(9)), 0, 10)]).is_err());
        // A write still in flight when the run stopped may or may not
        // have taken effect.
        let open = [op(Write(7), 0, u64::MAX), op(Read(Some(7)), 10, 20)];
        assert!(check_register(&open).is_ok());
        for h in [&stale[..], &overlap[..], &split_brain[..], &open[..]] {
            assert_eq!(
                check_register(h).is_ok(),
                check_history(h, 1 << 20).is_ok(),
                "agrees with Wing-Gong on {h:?}"
            );
        }
    }

    /// A recorded history small enough for the exponential search, and
    /// corruptions of it: both checkers must give the same verdict.
    #[test]
    fn agrees_with_wing_gong_on_recorded_histories() {
        let mut cluster = Cluster::builder(ProtocolKind::Raft)
            .clients_per_region(2)
            .workload(WorkloadConfig {
                read_fraction: 0.6,
                conflict_rate: 0.5,
                ..WorkloadConfig::default()
            })
            .record_history_for(HOT_KEY)
            .seed(31)
            .build_sharded();
        cluster.elect_leaders();
        cluster.advance(SimDuration::from_secs(6));
        let mut history = Vec::new();
        for &c in cluster.clients() {
            history.extend(cluster.sim.actor::<WorkloadClient>(c).history_records());
        }
        assert!(history.len() > 100, "{} operations", history.len());
        assert_eq!(check_register(&history), Ok(()));
        assert!(check_history(&history, 1 << 18).is_ok());
        // Make every fifth read in turn return the value written 3 writes
        // earlier; most such corruptions are violations, some are not.
        let writes: Vec<u64> = history
            .iter()
            .filter_map(|o| match o.action {
                Action::Write(v) if o.respond_ns != u64::MAX => Some(v),
                _ => None,
            })
            .collect();
        let reads: Vec<usize> = (0..history.len())
            .filter(|&i| matches!(history[i].action, Action::Read(Some(_))))
            .collect();
        let mut violations = 0;
        for (n, &i) in reads.iter().enumerate().step_by(5) {
            let mut bad = history.clone();
            bad[i].action = Action::Read(Some(writes[n % writes.len()]));
            let mine = check_register(&bad).is_ok();
            let theirs = match check_history(&bad, 1 << 18) {
                Ok(()) => true,
                Err(CheckError::Violation { .. }) => false,
                Err(_) => continue, // the search gave up; nothing to compare
            };
            assert_eq!(mine, theirs, "corrupting read {i}");
            violations += usize::from(!mine);
        }
        assert!(violations > 5, "corruptions are caught: {violations}");
    }
}
