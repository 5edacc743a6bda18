//! `tetribench compare A.json B.json`: two result files side by side, one
//! row per (workload, end-to-end metric), judged against the metric's bound.

use crate::json::{self, Json};
use crate::metrics::{Better, END_TO_END, PER_LAYER};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Exact metric, identical values.
    Same,
    /// Wall metric, within the bound.
    Ok,
    /// Exact metric, different values, not worse than the bound allows.
    Differs,
    /// Wall metric better by more than the bound: one pair of runs cannot
    /// show a gain (README, "Claiming a gain"), so this settles nothing.
    Unresolved,
    /// Worse by more than the bound.
    Regressed,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Ok => "ok",
            Verdict::Differs => "differs",
            Verdict::Unresolved => "unresolved",
            Verdict::Regressed => "regressed",
        }
    }
}

/// `b` relative to `a`, as a share of `a`.
fn change(a: f64, b: f64) -> f64 {
    if a == 0.0 {
        0.0
    } else {
        (b - a) / a.abs()
    }
}

/// How much worse `b` is than `a`, as a share of `a` (negative: better).
pub fn worsening(a: f64, b: f64, better: Better) -> f64 {
    let change = change(a, b);
    match better {
        Better::Lower => change,
        Better::Higher => -change,
    }
}

pub fn judge(a: f64, b: f64, better: Better, bound: f64, exact: bool) -> Verdict {
    let worse = worsening(a, b, better);
    if worse > bound {
        Verdict::Regressed
    } else if exact {
        if a == b {
            Verdict::Same
        } else {
            Verdict::Differs
        }
    } else if worse < -bound {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    }
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn value(doc: &Json, workload: &str, table: &str, metric: &str) -> Option<f64> {
    doc.get("workloads")?
        .get(workload)?
        .get(table)?
        .get(metric)?
        .get("value")?
        .as_f64()
}

/// Prints the comparison; `Ok(true)` when nothing regressed.
pub fn compare(path_a: &str, path_b: &str) -> Result<bool, String> {
    let (a, b) = (load(path_a)?, load(path_b)?);
    let workloads = a
        .get("workloads")
        .and_then(Json::as_obj)
        .ok_or_else(|| format!("{path_a}: no workloads"))?;
    let mut clean = true;
    println!(
        "{:<22} {:<22} {:>16} {:>16} {:>9} {:>7}  verdict",
        "workload", "metric", "A", "B", "delta", "bound"
    );
    for (name, _) in workloads {
        for m in END_TO_END {
            let (Some(va), Some(vb)) = (
                value(&a, name, "end_to_end", m.name),
                value(&b, name, "end_to_end", m.name),
            ) else {
                println!("{name:<22} {:<22} missing from one file", m.name);
                clean = false;
                continue;
            };
            let verdict = judge(va, vb, m.better, m.bound, m.exact);
            clean &= verdict != Verdict::Regressed;
            println!(
                "{name:<22} {:<22} {va:>16.6} {vb:>16.6} {:>+8.2}% {:>6.0}%  {}",
                m.name,
                100.0 * change(va, vb),
                100.0 * m.bound,
                verdict.as_str()
            );
        }
        // Counted per-layer values repeat exactly under one seed: any
        // difference is a real change of behaviour, so each one is shown.
        for m in PER_LAYER.iter().filter(|m| m.exact) {
            if let (Some(va), Some(vb)) = (
                value(&a, name, "per_layer", m.name),
                value(&b, name, "per_layer", m.name),
            ) {
                if va != vb {
                    let worse = worsening(va, vb, m.better) > 0.0;
                    println!(
                        "{name:<22} {:<22} {va:>16.6} {vb:>16.6} {:>+8.2}% {:>7}  differs ({})",
                        m.name,
                        100.0 * change(va, vb),
                        "-",
                        if worse { "worse" } else { "better" }
                    );
                }
            }
        }
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wall_metrics_are_judged_against_the_bound() {
        use Better::{Higher, Lower};
        assert_eq!(judge(100.0, 105.0, Lower, 0.10, false), Verdict::Ok);
        assert_eq!(judge(100.0, 111.0, Lower, 0.10, false), Verdict::Regressed);
        assert_eq!(judge(100.0, 85.0, Lower, 0.10, false), Verdict::Unresolved);
        assert_eq!(judge(100.0, 89.0, Higher, 0.10, false), Verdict::Regressed);
        assert_eq!(
            judge(100.0, 120.0, Higher, 0.10, false),
            Verdict::Unresolved
        );
    }

    #[test]
    fn exact_metrics_show_any_difference() {
        use Better::Higher;
        assert_eq!(judge(90.0, 90.0, Higher, 0.05, true), Verdict::Same);
        assert_eq!(judge(90.0, 89.9, Higher, 0.05, true), Verdict::Differs);
        assert_eq!(judge(90.0, 91.0, Higher, 0.05, true), Verdict::Differs);
        assert_eq!(judge(90.0, 80.0, Higher, 0.05, true), Verdict::Regressed);
    }
}
