//! Tier-1 parity pin: the fixed-seed fingerprints of all six protocol
//! configurations at the default config must match `PARITY_pr13.txt`
//! byte for byte — every knob is inert by default, and the one cluster
//! build path has not drifted. (PR 13 re-pinned the three Raft*-Mencius
//! rows; the other fifteen date from PR 5.)

// The example's `main` has no caller here.
#[allow(dead_code)]
#[path = "../examples/parity_fingerprint.rs"]
mod parity_fingerprint;

#[test]
fn default_config_fingerprints_match_the_pinned_file() {
    let pinned: Vec<&str> = include_str!("../PARITY_pr13.txt").lines().collect();
    assert_eq!(parity_fingerprint::fingerprints(), pinned);
}
