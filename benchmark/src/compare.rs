//! `compare A.json B.json`: two `all` documents, metric by metric.
//!
//! For every workload and end-to-end metric: both values, how much worse
//! B is than A as a share of A, the metric's bound, and a verdict.
//! `within`: B is no worse than A by more than the bound. `worse`: it is,
//! and both documents' rounds were steadier than the bound. `unresolved`:
//! it is, but the spread between rounds of A or of B (interquartile range
//! over median) is itself wider than the bound, so one run each cannot
//! tell. The tool for the two-sets-agree criterion, and for a later
//! change's parent-versus-change runs.

use crate::json::Json;
use crate::metrics::{Better, END_TO_END};

/// A metric's verdict.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// No worse than the bound allows.
    Within,
    /// Worse than the bound allows.
    Worse,
    /// Worse, but the rounds are too unsteady to say so.
    Unresolved,
}

/// How much worse `b` is than `a`, as a share of `a`; negative when better.
pub fn worsening(better: Better, a: f64, b: f64) -> f64 {
    if a == 0.0 {
        return if b == 0.0 {
            0.0
        } else if (b > a) == (better == Better::Lower) {
            f64::INFINITY
        } else {
            f64::NEG_INFINITY
        };
    }
    match better {
        Better::Lower => (b - a) / a.abs(),
        Better::Higher => (a - b) / a.abs(),
    }
}

/// The verdict for one metric.
pub fn judge(worse_by: f64, bound: f64, spread_a: f64, spread_b: f64) -> Verdict {
    if worse_by <= bound {
        Verdict::Within
    } else if spread_a.max(spread_b) > bound {
        Verdict::Unresolved
    } else {
        Verdict::Worse
    }
}

fn field(metric: &Json, key: &str) -> f64 {
    metric.get(key).and_then(Json::as_f64).unwrap_or(0.0)
}

/// Prints the comparison table; `Ok(true)` when no metric is `worse`.
///
/// # Errors
/// A document that is not an `all` document, or a workload or metric
/// present in A and missing from B.
pub fn compare(a: &Json, b: &Json) -> Result<bool, String> {
    let workloads = a
        .get("workloads")
        .ok_or("A has no \"workloads\": not an `all` document")?;
    println!(
        "{:<15} {:<16} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "A", "B", "worse by", "bound"
    );
    let mut clean = true;
    for (name, wa) in workloads.members() {
        let wb = b
            .get("workloads")
            .and_then(|w| w.get(name))
            .ok_or_else(|| format!("B has no workload {name}"))?;
        for def in END_TO_END {
            let metric = |w: &Json, side: &str| {
                w.get("end_to_end")
                    .and_then(|m| m.get(def.name))
                    .cloned()
                    .ok_or_else(|| format!("{side}: {name} has no {}", def.name))
            };
            let (ma, mb) = (metric(wa, "A")?, metric(wb, "B")?);
            let (va, vb) = (field(&ma, "value"), field(&mb, "value"));
            let worse_by = worsening(def.better, va, vb);
            let Some(bound) = def.bound else {
                println!(
                    "{name:<15} {:<16} {va:>14.4} {vb:>14.4} {:>+8.1}% {:>7}  not bounded",
                    def.name,
                    worse_by * 100.0,
                    "-"
                );
                continue;
            };
            let verdict = judge(worse_by, bound, field(&ma, "spread"), field(&mb, "spread"));
            clean &= verdict != Verdict::Worse;
            println!(
                "{name:<15} {:<16} {va:>14.4} {vb:>14.4} {:>+8.1}% {:>6.0}%  {}",
                def.name,
                worse_by * 100.0,
                bound * 100.0,
                match verdict {
                    Verdict::Within => "within",
                    Verdict::Worse => "worse",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn direction_and_bounds() {
        assert!((worsening(Better::Lower, 100.0, 108.0) - 0.08).abs() < 1e-12);
        assert!((worsening(Better::Higher, 100.0, 92.0) - 0.08).abs() < 1e-12);
        assert!(worsening(Better::Higher, 100.0, 120.0) < 0.0);
        assert_eq!(worsening(Better::Lower, 0.0, 0.0), 0.0);
        assert_eq!(worsening(Better::Lower, 0.0, 0.001), f64::INFINITY);
        assert_eq!(judge(0.08, 0.10, 0.0, 0.0), Verdict::Within);
        assert_eq!(judge(0.12, 0.10, 0.02, 0.03), Verdict::Worse);
        assert_eq!(judge(0.12, 0.10, 0.02, 0.30), Verdict::Unresolved);
        // failed_ratio: bound 0, any increase is worse.
        assert_eq!(judge(f64::INFINITY, 0.0, 0.0, 0.0), Verdict::Worse);
    }
}
