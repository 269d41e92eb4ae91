//! Figure 6: the landscape of Paxos variants and optimizations.
//!
//! The paper classifies known Paxos relatives into (a) non-mutating
//! optimizations — candidates for the automatic porting method — and
//! (b) variants whose relationship to Paxos cannot be captured by
//! refinement mapping. This module encodes that classification as data,
//! and for the two case studies (PQL, Mencius) the classification is not
//! an assertion but a *theorem*: `OptDelta::check_non_mutating` verifies
//! it mechanically (see this module's tests).

use crate::specs::multipaxos::MpConfig;

/// How a protocol relates to canonical Paxos (Figure 6).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Relation {
    /// A non-mutating optimization of Paxos: portable by Section 4.3.
    NonMutating,
    /// Paxos refines it (a generalization, e.g. Flexible Paxos).
    GeneralizedByPaxos,
    /// A mutating variant: no refinement mapping in either direction.
    Mutating,
}

/// One entry of the Figure-6 landscape.
#[derive(Debug, Clone)]
pub struct ProtocolEntry {
    /// Protocol name as the paper lists it.
    pub name: &'static str,
    /// Classification.
    pub relation: Relation,
    /// Why (one line, following Section 4.4's discussion).
    pub why: &'static str,
    /// Whether this repository implements it.
    pub implemented_here: bool,
}

/// The Figure-6 table.
pub fn landscape() -> Vec<ProtocolEntry> {
    vec![
        ProtocolEntry {
            name: "Paxos Quorum Lease",
            relation: Relation::NonMutating,
            why: "adds lease state and holder checks; never writes Paxos state",
            implemented_here: true,
        },
        ProtocolEntry {
            name: "Mencius (Coordinated Paxos)",
            relation: Relation::NonMutating,
            why: "adds skip tags/executable set and proposal restrictions only",
            implemented_here: true,
        },
        ProtocolEntry {
            name: "Flexible Paxos",
            relation: Relation::GeneralizedByPaxos,
            why: "relaxes quorums; Paxos refines it, not the other way around",
            implemented_here: false,
        },
        ProtocolEntry {
            name: "WPaxos",
            relation: Relation::NonMutating,
            why: "non-mutating optimization over Flexible Paxos (object stealing)",
            implemented_here: false,
        },
        ProtocolEntry {
            name: "HT-Paxos",
            relation: Relation::NonMutating,
            why: "offloads ordering to added servers without touching acceptor state",
            implemented_here: false,
        },
        ProtocolEntry {
            name: "S-Paxos",
            relation: Relation::NonMutating,
            why: "separates dissemination from ordering; base state untouched",
            implemented_here: false,
        },
        ProtocolEntry {
            name: "Ring Paxos / Multi-Ring Paxos",
            relation: Relation::NonMutating,
            why: "reshapes communication topology, not acceptor state",
            implemented_here: false,
        },
        ProtocolEntry {
            name: "Fast Paxos",
            relation: Relation::Mutating,
            why: "super-majority quorums both add and remove transitions",
            implemented_here: false,
        },
        ProtocolEntry {
            name: "Multi-coordinated Paxos",
            relation: Relation::Mutating,
            why: "fast quorums as in Fast Paxos",
            implemented_here: false,
        },
        ProtocolEntry {
            name: "Generalized Paxos / EPaxos",
            relation: Relation::Mutating,
            why: "replaces the sequence structure with dependency graphs",
            implemented_here: false,
        },
        ProtocolEntry {
            name: "Cheap Paxos",
            relation: Relation::Mutating,
            why: "auxiliary acceptors change the acceptor state itself",
            implemented_here: false,
        },
        ProtocolEntry {
            name: "Vertical / Stoppable Paxos",
            relation: Relation::Mutating,
            why: "reconfiguration rewrites membership state",
            implemented_here: false,
        },
        ProtocolEntry {
            name: "Disk Paxos",
            relation: Relation::Mutating,
            why: "replaces acceptor processes with disks",
            implemented_here: false,
        },
        ProtocolEntry {
            name: "Speculative Paxos / NetPaxos",
            relation: Relation::Mutating,
            why: "relies on network ordering assumptions outside the state machine",
            implemented_here: false,
        },
    ]
}

/// Renders the landscape as an aligned text table (printed by
/// `examples/port_optimization.rs`).
pub fn render() -> String {
    let mut out = format!(
        "{:<32} {:<22} {:<10} {}\n",
        "protocol", "relation to Paxos", "in repo", "why"
    );
    for e in landscape() {
        let rel = match e.relation {
            Relation::NonMutating => "non-mutating opt",
            Relation::GeneralizedByPaxos => "generalization",
            Relation::Mutating => "mutating variant",
        };
        out.push_str(&format!(
            "{:<32} {:<22} {:<10} {}\n",
            e.name,
            rel,
            if e.implemented_here { "yes" } else { "-" },
            e.why
        ));
    }
    out
}

/// Mechanical verdicts for the implemented case studies: runs the
/// Section-4.2 non-mutating check on the actual deltas.
pub fn mechanical_verdicts() -> Vec<(String, bool)> {
    let mp_cfg = MpConfig::default();
    let mp = crate::specs::multipaxos::spec(&mp_cfg);
    let pql_ok = crate::specs::pql::delta(&mp_cfg)
        .check_non_mutating(&mp)
        .is_ok();
    let m_cfg = MpConfig {
        values: vec![1, crate::specs::mencius::NOOP],
        ..MpConfig::default()
    };
    let mp2 = crate::specs::multipaxos::spec(&m_cfg);
    let mencius_ok = crate::specs::mencius::delta(&m_cfg)
        .check_non_mutating(&mp2)
        .is_ok();
    vec![
        ("Paxos Quorum Lease".into(), pql_ok),
        ("Mencius (Coordinated Paxos)".into(), mencius_ok),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn case_studies_are_mechanically_non_mutating() {
        for (name, ok) in mechanical_verdicts() {
            assert!(ok, "{name} must pass the Section-4.2 check");
        }
    }

    #[test]
    fn landscape_matches_paper_counts() {
        let l = landscape();
        let non_mutating = l
            .iter()
            .filter(|e| e.relation == Relation::NonMutating)
            .count();
        // The paper: "6 protocols belong to the class of non-mutating
        // optimization on Paxos" (plus the two case studies).
        assert!(non_mutating >= 6);
        assert!(l.iter().any(|e| e.relation == Relation::GeneralizedByPaxos));
        assert!(
            l.iter()
                .filter(|e| e.relation == Relation::Mutating)
                .count()
                >= 5
        );
    }

    #[test]
    fn implemented_entries_exist() {
        let l = landscape();
        assert_eq!(l.iter().filter(|e| e.implemented_here).count(), 2);
    }

    #[test]
    fn render_is_tabular() {
        let r = render();
        assert!(r.contains("Paxos Quorum Lease"));
        assert!(r.contains("non-mutating opt"));
        assert!(r.lines().count() >= 15);
    }
}
