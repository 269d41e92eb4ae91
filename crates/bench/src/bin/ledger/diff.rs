//! `ledger diff <a.json> <b.json>`: compares two result files written
//! with `--out`, `a` being the base.
//!
//! Per workload and end-to-end metric the verdict is `ok` (no worse than
//! the base by more than the tolerance), `worse`, or `unresolved` (either
//! file's repetition spread is wider than the tolerance, so the pair
//! cannot tell). The tolerance is the metric's bound, which is sized for
//! runs with different seeds, unless both files ran the same seed and the
//! metric repeats exactly there: then anything beyond [`SAME_SEED`] is a
//! change. A workload or metric the second file lacks is `worse`. Then
//! the per-layer rows that moved, which say where. Every ratio is printed
//! with its base.

use std::fmt::Write as _;

use crate::json::Value;

/// A per-layer row is listed when it moved by more than this share.
const MOVED: f64 = 0.01;

/// Tolerance for a metric that repeats exactly, between two runs of one
/// seed: the virtual metrics repeat bit for bit and the heap counts to
/// one part in a thousand (see `cell::Heap`).
const SAME_SEED: f64 = 1e-3;

fn field(v: &Value, key: &str) -> f64 {
    v.get(key).and_then(Value::as_f64).unwrap_or(0.0)
}

/// The move from `x` to `y` as a share of `x`. A base of 0 has no share:
/// any move away from it is unbounded.
fn share(x: f64, y: f64) -> f64 {
    if x != 0.0 {
        (y - x) / x.abs()
    } else if y == 0.0 {
        0.0
    } else {
        f64::INFINITY.copysign(y)
    }
}

/// Renders the comparison; the flag says whether any metric is `worse`.
///
/// # Errors
///
/// Returns a message when a file lacks the `workloads` object.
pub fn diff(a: &Value, b: &Value) -> Result<(String, bool), String> {
    let workloads = |v: &Value| {
        v.get("workloads")
            .and_then(Value::as_object)
            .cloned()
            .ok_or("not a ledger result file: no \"workloads\" object")
    };
    let (wa, wb) = (workloads(a)?, workloads(b)?);
    let seed = |v: &Value| v.get("seed").and_then(Value::as_f64);
    let same_seed = seed(a).is_some() && seed(a) == seed(b);
    let mut out = String::new();
    let mut any_worse = false;
    for (name, base) in &wa {
        let Some(new) = wb.get(name) else {
            let _ = writeln!(out, "== {name}: worse (missing from the second file)");
            any_worse = true;
            continue;
        };
        let _ = writeln!(out, "== {name}");
        let _ = writeln!(
            out,
            "   {:<16} {:>14} {:>14} {:>9} {:>7}  verdict",
            "end-to-end", "base", "new", "change", "allowed"
        );
        let e2e = |v: &Value| v.get("end_to_end").and_then(Value::as_object).cloned();
        let (ea, eb) = (e2e(base).unwrap_or_default(), e2e(new).unwrap_or_default());
        for (metric, va) in &ea {
            let x = field(va, "value");
            let Some(vb) = eb.get(metric) else {
                let _ = writeln!(out, "   {metric:<16} {x:>14.4} {:>14}  worse", "missing");
                any_worse = true;
                continue;
            };
            let y = field(vb, "value");
            let spread = field(va, "iqr_share").max(field(vb, "iqr_share"));
            let allowed = if same_seed && spread == 0.0 {
                SAME_SEED
            } else {
                field(va, "bound")
            };
            let change = share(x, y);
            let higher = va.get("better").and_then(Value::as_str) == Some("higher");
            let worse_by = if higher { -change } else { change };
            let verdict = if spread > allowed {
                "unresolved"
            } else if worse_by > allowed {
                any_worse = true;
                "worse"
            } else {
                "ok"
            };
            let _ = writeln!(
                out,
                "   {:<16} {:>14.4} {:>14.4} {:>+8.2}% {:>6.1}%  {verdict}{}",
                metric,
                x,
                y,
                change * 100.0,
                allowed * 100.0,
                if verdict == "unresolved" {
                    format!(" (spread {:.1}%)", spread * 100.0)
                } else {
                    String::new()
                }
            );
        }
        let layers = |v: &Value| v.get("per_layer").and_then(Value::as_object).cloned();
        let (la, lb) = (
            layers(base).unwrap_or_default(),
            layers(new).unwrap_or_default(),
        );
        let mut moved = 0;
        for (metric, va) in &la {
            let x = field(va, "value");
            let y = lb.get(metric).map_or(f64::NAN, |vb| field(vb, "value"));
            let change = share(x, y);
            // A row the second file lacks (NaN) is listed too.
            if change.is_nan() || change.abs() > MOVED {
                if moved == 0 {
                    let _ = writeln!(out, "   per-layer rows that moved by more than 1 %");
                }
                moved += 1;
                let _ = writeln!(
                    out,
                    "     {:<40} {:>14.4} -> {:>14.4} ({:+.1}% of base {:.4})",
                    metric,
                    x,
                    y,
                    change * 100.0,
                    x
                );
            }
        }
        if moved == 0 {
            let _ = writeln!(out, "   no per-layer row moved by more than 1 %");
        }
    }
    Ok((out, any_worse))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    fn file(seed: u64, goodput: f64, host: f64, host_spread: f64, events: f64) -> Value {
        parse(&format!(
            "{{\"seed\": {seed}, \"workloads\": {{\"w\": {{\"end_to_end\": {{\
             \"goodput_ops\": {{\"value\": {goodput}, \"better\": \"higher\", \"bound\": 0.1, \"iqr_share\": 0}},\
             \"host_s_norm\": {{\"value\": {host}, \"better\": \"lower\", \"bound\": 0.1, \"iqr_share\": {host_spread}}}}},\
             \"per_layer\": {{\"sim.events\": {{\"value\": {events}}}, \"sim.lost\": {{\"value\": 0}}}}}}}}}}"
        ))
        .expect("valid")
    }

    #[test]
    fn verdicts_follow_bound_and_spread() {
        let base = file(1, 1000.0, 2.0, 0.03, 500.0);
        let (text, worse) = diff(&base, &file(2, 950.0, 2.1, 0.03, 500.0)).expect("diff");
        assert!(!worse, "5 % is inside the cross-seed bound: {text}");
        assert!(text.contains("no per-layer row moved"));
        let (text, worse) = diff(&base, &file(2, 850.0, 2.5, 0.03, 600.0)).expect("diff");
        assert!(worse);
        assert_eq!(text.matches("worse").count(), 2, "{text}");
        assert!(text.contains("sim.events") && text.contains("+20.0% of base 500"));
        // A faster host time is never worse; a noisy one is unresolved.
        let (text, worse) = diff(&base, &file(2, 1000.0, 1.0, 0.25, 500.0)).expect("diff");
        assert!(!worse);
        assert!(text.contains("unresolved (spread 25.0%)"), "{text}");
        assert!(diff(&parse("{}").expect("valid"), &base).is_err());
    }

    #[test]
    fn one_seed_resolves_what_the_cross_seed_bound_hides() {
        let base = file(7, 1000.0, 2.0, 0.03, 500.0);
        let (text, worse) = diff(&base, &file(7, 991.0, 2.0, 0.03, 500.0)).expect("diff");
        assert!(worse, "0.9 % of goodput on one seed is a change: {text}");
        let (_, worse) = diff(&base, &file(7, 1000.0, 2.1, 0.03, 500.0)).expect("diff");
        assert!(!worse, "host time keeps its bound on one seed too");
        let (_, worse) = diff(&base, &file(7, 1009.0, 2.0, 0.03, 500.0)).expect("diff");
        assert!(!worse, "better is never worse");
    }

    #[test]
    fn missing_and_zero_based_values_are_worse() {
        let base = file(1, 1000.0, 0.0, 0.0, 500.0);
        let (text, worse) = diff(&base, &file(1, 1000.0, 0.004, 0.0, 500.0)).expect("diff");
        assert!(worse, "a lower-is-better metric left a base of 0: {text}");
        let (_, worse) = diff(&base, &file(1, 1000.0, 0.0, 0.0, 500.0)).expect("diff");
        assert!(!worse);
        let no_host = parse(
            "{\"seed\": 1, \"workloads\": {\"w\": {\"end_to_end\": {\
             \"goodput_ops\": {\"value\": 1000, \"better\": \"higher\", \"bound\": 0.1, \"iqr_share\": 0}},\
             \"per_layer\": {\"sim.lost\": {\"value\": 0}}}}}",
        )
        .expect("valid");
        let (text, worse) = diff(&base, &no_host).expect("diff");
        assert!(worse && text.contains("missing"), "{text}");
        assert!(
            text.contains("sim.events"),
            "a lost per-layer row is listed: {text}"
        );
        let none = parse("{\"seed\": 1, \"workloads\": {}}").expect("valid");
        let (text, worse) = diff(&base, &none).expect("diff");
        assert!(
            worse && text.contains("missing from the second file"),
            "{text}"
        );
    }
}
