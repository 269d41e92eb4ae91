//! Randomized property tests on core data structures and protocol
//! invariants.
//!
//! These were originally written against `proptest`; the workspace is
//! dependency-free, so each property is exercised over many cases drawn
//! from the deterministic [`SimRng`] instead. Runs are reproducible by
//! construction, and assertion messages carry the failing case index.

use paxraft::core::engine::slots::Run;
use paxraft::core::engine::{PipelineConfig, PipelineWindow};
use paxraft::core::kv::{CmdId, Command, KvStore};
use paxraft::core::log::{Entry, Log};
use paxraft::core::types::{quorum, NodeId, Slot, Term};
use paxraft::sim::rng::SimRng;
use paxraft::sim::time::{SimDuration, SimTime};
use paxraft::workload::linearize::{check_register, Action, OpRecord};
use paxraft::workload::metrics::LatencyRecorder;

const CASES: u64 = 200;

fn entry(term: u64, key: u64) -> Entry {
    Entry {
        term: Term(term),
        bal: Term(term),
        cmd: Command::put(
            CmdId {
                client: 1,
                seq: key + 1,
            },
            key,
            vec![0; 8],
        ),
    }
}

/// Raft* `replace_suffix` never loses the prefix below `prev` and
/// always yields `prev + suffix.len()` entries.
#[test]
fn replace_suffix_preserves_prefix() {
    let mut rng = SimRng::new(0xA1);
    for case in 0..CASES {
        let base = rng.gen_range_inclusive(1, 19) as usize;
        let prev = (rng.gen_range(20) as usize).min(base);
        let add = rng.gen_range_inclusive(1, 19) as usize;
        let mut log = Log::new();
        for i in 0..base {
            log.append(entry(1, i as u64));
        }
        let suffix: Vec<Entry> = (0..add.max(base - prev))
            .map(|i| entry(2, 100 + i as u64))
            .collect();
        let before: Vec<_> = (1..=prev as u64)
            .map(|s| log.get(Slot(s)).cloned())
            .collect();
        let round: Run<Entry> = (1..).map(Slot).zip(suffix.iter().cloned()).collect();
        log.replace_suffix(Slot(prev as u64), &round, 0);
        assert_eq!(log.len(), prev + suffix.len(), "case {case}");
        for (i, old) in before.into_iter().enumerate() {
            assert_eq!(log.get(Slot(i as u64 + 1)).cloned(), old, "case {case}");
        }
    }
}

/// `set_bal_upto` rewrites exactly the covered prefix and never the
/// entry terms.
#[test]
fn bal_rewrite_covers_exactly_prefix() {
    let mut rng = SimRng::new(0xA2);
    for case in 0..CASES {
        let len = rng.gen_range_inclusive(1, 29) as usize;
        let upto = rng.gen_range(40);
        let t = rng.gen_range_inclusive(3, 8);
        let mut log = Log::new();
        for i in 0..len {
            log.append(entry(1 + (i as u64 % 2), i as u64));
        }
        let terms: Vec<_> = log.iter().map(|(_, _, e)| e.term).collect();
        log.set_bal_upto(Slot(upto), Term(t));
        for (s, bal, e) in log.iter() {
            assert_eq!(log.bal_at(s), Some(bal), "case {case}");
            if s.0 <= upto {
                assert_eq!(bal, Term(t), "case {case}");
            } else {
                assert!(bal != Term(t) || t <= 2, "case {case}");
            }
            assert_eq!(
                e.term,
                terms[s.0 as usize - 1],
                "terms untouched, case {case}"
            );
        }
    }
}

/// The quorum match (`PipelineWindow::kth_largest_match`) is monotone in
/// acknowledgements and never exceeds the max ack.
#[test]
fn quorum_match_is_sound() {
    let mut rng = SimRng::new(0xA3);
    for case in 0..CASES {
        let n_acks = rng.gen_range_inclusive(1, 39) as usize;
        let mut r = PipelineWindow::new(5, &PipelineConfig::default());
        let mut prev = Slot::NONE;
        for _ in 0..n_acks {
            let p = rng.gen_range_inclusive(1, 4) as u32;
            let idx = rng.gen_range_inclusive(1, 49);
            r.on_ack(NodeId(p), Slot(idx));
            let q = r.kth_largest_match(2, NodeId(0));
            assert!(q >= prev, "monotone, case {case}");
            prev = q;
            // Soundness: at least 2 followers acked >= q.
            let count = (1..5u32).filter(|&x| r.match_index(NodeId(x)) >= q).count();
            assert!(q == Slot::NONE || count >= 2, "case {case}");
        }
    }
}

/// Ballot encoding round-trips owner and round for any cluster size.
#[test]
fn ballot_encoding_roundtrip() {
    let mut rng = SimRng::new(0xA4);
    for case in 0..CASES {
        let n = rng.gen_range_inclusive(1, 7) as usize;
        let node = rng.gen_range(n as u64) as u32;
        let round = rng.gen_range(1000);
        let t = Term::encode(round, NodeId(node), n);
        assert_eq!(t.owner(n), NodeId(node), "case {case}");
        assert_eq!(t.round(n), round, "case {case}");
        let nx = t.next_for(NodeId(node), n);
        assert!(nx > t, "case {case}");
        assert_eq!(nx.owner(n), NodeId(node), "case {case}");
    }
}

/// Quorums of any odd cluster overlap: 2*quorum(n) > n.
#[test]
fn quorums_intersect() {
    for k in 0usize..10 {
        let n = 2 * k + 1;
        assert!(2 * quorum(n) > n);
    }
}

/// KV session dedup: replaying a command stream with duplicates
/// injected never changes the final state.
#[test]
fn kv_replay_is_idempotent() {
    let mut rng = SimRng::new(0xA5);
    for case in 0..CASES {
        let n_ops = rng.gen_range_inclusive(1, 29) as usize;
        let cmds: Vec<Command> = (0..n_ops)
            .map(|i| {
                let k = rng.gen_range(5);
                let c = rng.gen_range(3) as u32;
                Command::put(
                    CmdId {
                        client: c,
                        seq: i as u64 + 1,
                    },
                    k,
                    vec![0; 8],
                )
            })
            .collect();
        let mut kv1 = KvStore::new();
        for c in &cmds {
            kv1.apply(c);
        }
        // Replay with duplicates injected after every op.
        let mut kv2 = KvStore::new();
        for c in &cmds {
            kv2.apply(c);
            kv2.apply(c); // duplicate
        }
        for k in 0..5u64 {
            assert_eq!(kv1.read_local(k), kv2.read_local(k), "case {case}");
        }
    }
}

/// Sequential histories (each op completes before the next begins)
/// with correct read values are always linearizable.
#[test]
fn sequential_histories_linearizable() {
    let mut rng = SimRng::new(0xA6);
    for _ in 0..50 {
        let n_writes = rng.gen_range_inclusive(1, 39) as usize;
        let mut history = Vec::new();
        let mut t = 0u64;
        for i in 0..n_writes {
            let vid = i as u64 + 1;
            history.push(OpRecord {
                client: 0,
                key: 1,
                action: Action::Write(vid),
                invoke_ns: t,
                respond_ns: t + 1,
            });
            t += 2;
            history.push(OpRecord {
                client: 1,
                key: 1,
                action: Action::Read(Some(vid)),
                invoke_ns: t,
                respond_ns: t + 1,
            });
            t += 2;
        }
        assert!(check_register(&history, 1 << 20).is_ok());
    }
}

/// A read returning a never-written value is never linearizable.
#[test]
fn phantom_reads_rejected() {
    for n_writes in 1usize..10 {
        let mut history: Vec<OpRecord> = (0..n_writes)
            .map(|i| OpRecord {
                client: i,
                key: 1,
                action: Action::Write(i as u64 + 1),
                invoke_ns: (i * 2) as u64,
                respond_ns: (i * 2 + 1) as u64,
            })
            .collect();
        history.push(OpRecord {
            client: 99,
            key: 1,
            action: Action::Read(Some(777)),
            invoke_ns: 1000,
            respond_ns: 1001,
        });
        assert!(check_register(&history, 1 << 20).is_err());
    }
}

/// Latency percentiles are monotone in the percentile and bounded by
/// the extreme samples.
#[test]
fn percentiles_monotone() {
    let mut rng = SimRng::new(0xA7);
    for case in 0..CASES {
        let n = rng.gen_range_inclusive(1, 199) as usize;
        let samples: Vec<u64> = (0..n)
            .map(|_| rng.gen_range_inclusive(1, 999_999_999))
            .collect();
        let mut rec = LatencyRecorder::new();
        for &s in &samples {
            rec.record_ns(s);
        }
        let p50 = rec.percentile_ms(50.0).unwrap();
        let p90 = rec.percentile_ms(90.0).unwrap();
        let p99 = rec.percentile_ms(99.0).unwrap();
        assert!(p50 <= p90 && p90 <= p99, "case {case}");
        let min = *samples.iter().min().unwrap() as f64 / 1e6;
        let max = *samples.iter().max().unwrap() as f64 / 1e6;
        assert!(p50 >= min && p99 <= max, "case {case}");
    }
}

/// The deterministic RNG produces identical streams for equal seeds
/// and in-range values for gen_range.
#[test]
fn rng_deterministic_and_bounded() {
    let mut seeder = SimRng::new(0xA8);
    for _ in 0..CASES {
        let seed = seeder.next_u64();
        let bound = seeder.gen_range_inclusive(1, 999);
        let mut a = SimRng::new(seed);
        let mut b = SimRng::new(seed);
        for _ in 0..50 {
            let x = a.gen_range(bound);
            assert_eq!(x, b.gen_range(bound));
            assert!(x < bound);
        }
    }
}

/// Virtual-time arithmetic: since() inverts addition.
#[test]
fn time_arithmetic_roundtrip() {
    let mut rng = SimRng::new(0xA9);
    for _ in 0..CASES {
        let base = rng.gen_range(1_000_000_000);
        let d = rng.gen_range(1_000_000_000);
        let t = SimTime::from_nanos(base);
        let dur = SimDuration::from_nanos(d);
        assert_eq!((t + dur).since(t), dur);
    }
}
