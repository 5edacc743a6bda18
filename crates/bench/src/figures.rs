//! Per-figure experiment pipelines (Figs. 6–12, Tables 1–2).

use tetrisched_cluster::Cluster;
use tetrisched_core::TetriSchedConfig;
use tetrisched_workloads::Workload;

use crate::harness::{run_spec, RunSpec, SchedulerKind};
use crate::table::MetricsRow;

/// Experiment sizing. The paper runs on physical 256/80-node clusters for
/// hours; the simulation reproduces the pipelines at a size a single core
/// handles in minutes (`paper`) or seconds (`smoke`, for benches and CI).
#[derive(Debug, Clone)]
pub struct FigScale {
    /// Jobs per run.
    pub num_jobs: usize,
    /// Workload seed.
    pub seed: u64,
    /// Whether to use the full-size clusters.
    pub full_clusters: bool,
    /// Scheduler cycle period (paper: 4 s).
    pub cycle_period: u64,
    /// Number of seeds averaged per point (seed, seed+1, ...).
    pub replications: usize,
}

impl FigScale {
    /// Full-scale runs for the `fig*` binaries.
    pub fn paper() -> FigScale {
        FigScale {
            num_jobs: 80,
            seed: 42,
            full_clusters: true,
            cycle_period: 4,
            replications: 2,
        }
    }

    /// Builds a scale from process arguments: `--smoke` selects the smoke
    /// scale; `--jobs N` and `--seed S` override sizing.
    pub fn from_args() -> FigScale {
        let args: Vec<String> = std::env::args().collect();
        let mut scale = if args.iter().any(|a| a == "--smoke") {
            FigScale::smoke()
        } else {
            FigScale::paper()
        };
        let mut it = args.iter();
        while let Some(a) = it.next() {
            match a.as_str() {
                "--jobs" => {
                    if let Some(v) = it.next().and_then(|v| v.parse().ok()) {
                        scale.num_jobs = v;
                    }
                }
                "--seed" => {
                    if let Some(v) = it.next().and_then(|v| v.parse().ok()) {
                        scale.seed = v;
                    }
                }
                _ => {}
            }
        }
        scale
    }

    /// Small runs for `--smoke` and tests.
    pub fn smoke() -> FigScale {
        FigScale {
            num_jobs: 14,
            seed: 42,
            full_clusters: false,
            cycle_period: 4,
            replications: 1,
        }
    }

    /// The RC256 testbed (8 racks x 32, two GPU racks), or a 32-node
    /// smoke-scale equivalent with the same rack structure.
    pub fn rc256(&self) -> Cluster {
        if self.full_clusters {
            Cluster::rc256(2)
        } else {
            Cluster::uniform(4, 8, 1)
        }
    }

    /// The RC80 testbed (8 racks x 10), or a 20-node smoke-scale
    /// equivalent. Half the racks are GPU-labeled so the GS HET mixture's
    /// GPU demand roughly matches GPU supply — the regime where waiting
    /// for preferred resources (plan-ahead) can actually pay off.
    pub fn rc80(&self) -> Cluster {
        if self.full_clusters {
            Cluster::rc80(4)
        } else {
            Cluster::uniform(4, 5, 2)
        }
    }

    fn error_grid(&self, full: &[f64], smoke: &[f64]) -> Vec<f64> {
        if self.full_clusters {
            full.to_vec()
        } else {
            smoke.to_vec()
        }
    }
}

/// Default TetriSched configuration for the experiments (plan-ahead 96 s as
/// in the Fig. 11 knee, 10% gap, bounded solver time).
fn ts_config() -> TetriSchedConfig {
    TetriSchedConfig::default()
}

/// Sweeps estimate error for a set of schedulers on one workload/cluster.
fn error_sweep(
    scale: &FigScale,
    workload: Workload,
    cluster: Cluster,
    errors: &[f64],
    kinds: &[SchedulerKind],
    utilization: f64,
    slowdown: f64,
) -> Vec<MetricsRow> {
    let mut rows = Vec::new();
    for kind in kinds {
        for &err in errors {
            let reps: Vec<MetricsRow> = (0..scale.replications.max(1))
                .map(|r| {
                    let report = run_spec(&RunSpec {
                        estimate_error: err / 100.0,
                        cycle_period: scale.cycle_period,
                        utilization,
                        slowdown,
                        ..RunSpec::new(
                            workload,
                            cluster.clone(),
                            scale.num_jobs,
                            scale.seed + r as u64,
                            kind.clone(),
                        )
                    });
                    MetricsRow::from_report(kind.name(), err, &report)
                })
                .collect();
            rows.push(MetricsRow::averaged(&reps));
        }
    }
    rows
}

/// Fig. 6: GR MIX on RC256 — Rayon/TetriSched vs Rayon/CS across estimate
/// error; panels (a)–(d) of the paper.
pub fn fig6(scale: &FigScale) -> Vec<MetricsRow> {
    let errors = scale.error_grid(&[-50.0, -20.0, 0.0, 20.0, 50.0, 100.0], &[-20.0, 0.0, 50.0]);
    error_sweep(
        scale,
        Workload::GrMix,
        scale.rc256(),
        &errors,
        &[SchedulerKind::Tetri(ts_config()), SchedulerKind::RayonCs],
        1.25,
        1.5,
    )
}

/// Fig. 7: GR SLO (production-derived, SLO only) on RC256.
pub fn fig7(scale: &FigScale) -> Vec<MetricsRow> {
    let errors = scale.error_grid(&[-20.0, -10.0, 0.0, 10.0, 20.0], &[-10.0, 0.0, 10.0]);
    error_sweep(
        scale,
        Workload::GrSlo,
        scale.rc256(),
        &errors,
        &[SchedulerKind::Tetri(ts_config()), SchedulerKind::RayonCs],
        1.1,
        1.5,
    )
}

/// Fig. 8: GS MIX (synthetic homogeneous) on RC80.
pub fn fig8(scale: &FigScale) -> Vec<MetricsRow> {
    let errors = scale.error_grid(&[-50.0, -20.0, 0.0, 20.0, 50.0, 100.0], &[-20.0, 0.0, 50.0]);
    error_sweep(
        scale,
        Workload::GsMix,
        scale.rc80(),
        &errors,
        &[SchedulerKind::Tetri(ts_config()), SchedulerKind::RayonCs],
        1.15,
        1.5,
    )
}

/// Fig. 9: soft-constraint ablation — TetriSched vs TetriSched-NH vs
/// Rayon/CS on GS HET / RC80.
pub fn fig9(scale: &FigScale) -> Vec<MetricsRow> {
    let errors = scale.error_grid(&[-50.0, -20.0, 0.0, 20.0, 50.0], &[-20.0, 0.0, 20.0]);
    error_sweep(
        scale,
        Workload::GsHet,
        scale.rc80(),
        &errors,
        &[
            SchedulerKind::Tetri(ts_config()),
            SchedulerKind::Tetri(TetriSchedConfig::no_heterogeneity(ts_config().plan_ahead)),
            SchedulerKind::RayonCs,
        ],
        1.15,
        2.0,
    )
}

/// Fig. 10: global-scheduling ablation — TetriSched vs TetriSched-NG vs
/// Rayon/CS on GS HET / RC80.
pub fn fig10(scale: &FigScale) -> Vec<MetricsRow> {
    let errors = scale.error_grid(&[-50.0, -20.0, 0.0, 20.0, 50.0], &[-20.0, 0.0, 20.0]);
    error_sweep(
        scale,
        Workload::GsHet,
        scale.rc80(),
        &errors,
        &[
            SchedulerKind::Tetri(ts_config()),
            SchedulerKind::Tetri(TetriSchedConfig::no_global(ts_config().plan_ahead)),
            SchedulerKind::RayonCs,
        ],
        1.15,
        2.0,
    )
}

/// Figs. 11 & 12: plan-ahead sweep on GS HET / RC80 at zero estimate
/// error. Fig. 11 reads the SLO panels, Fig. 12 the latency panels, from
/// the same rows. Plan-ahead = 0 is the TetriSched-NP (alsched) point.
pub fn fig11(scale: &FigScale) -> Vec<MetricsRow> {
    let plan_aheads: Vec<u64> = if scale.full_clusters {
        vec![0, 44, 96, 120, 144]
    } else {
        vec![0, 16, 48]
    };
    let mut rows = Vec::new();
    for global in [true, false] {
        for &pa in &plan_aheads {
            let mut cfg = if global {
                TetriSchedConfig::full(pa)
            } else {
                TetriSchedConfig::no_global(pa)
            };
            // Keep the variant label stable across the sweep: the paper
            // plots "TetriSched" and "TetriSched-NG" as functions of
            // plan-ahead, with plan-ahead=0 being NP.
            cfg.plan_ahead = pa;
            let name = if global {
                "tetrisched"
            } else {
                "tetrisched-ng"
            };
            let reps: Vec<MetricsRow> = (0..scale.replications.max(1))
                .map(|r| {
                    let report = run_spec(&RunSpec {
                        cycle_period: scale.cycle_period,
                        utilization: 1.15,
                        slowdown: 2.0,
                        ..RunSpec::new(
                            Workload::GsHet,
                            scale.rc80(),
                            scale.num_jobs,
                            scale.seed + r as u64,
                            SchedulerKind::Tetri(cfg.clone()),
                        )
                    });
                    MetricsRow::from_report(name, pa as f64, &report)
                })
                .collect();
            rows.push(MetricsRow::averaged(&reps));
        }
    }
    // The Rayon/CS horizontal reference line.
    let reps: Vec<MetricsRow> = (0..scale.replications.max(1))
        .map(|r| {
            let report = run_spec(&RunSpec {
                cycle_period: scale.cycle_period,
                utilization: 1.15,
                slowdown: 2.0,
                ..RunSpec::new(
                    Workload::GsHet,
                    scale.rc80(),
                    scale.num_jobs,
                    scale.seed + r as u64,
                    SchedulerKind::RayonCs,
                )
            });
            MetricsRow::from_report("rayon-cs", 0.0, &report)
        })
        .collect();
    let cs = MetricsRow::averaged(&reps);
    for &pa in &plan_aheads {
        let mut row = cs.clone();
        row.x = pa as f64;
        rows.push(row);
    }
    rows
}

/// Fig. 12(c): cycle/solver latency CDFs at the largest plan-ahead, for
/// the global and greedy policies.
pub fn fig12_cdf(scale: &FigScale) -> Vec<(String, Vec<(f64, f64)>)> {
    let pa = if scale.full_clusters { 144 } else { 48 };
    let mut out = Vec::new();
    for (name, cfg) in [
        ("tetrisched", TetriSchedConfig::full(pa)),
        ("tetrisched-ng", TetriSchedConfig::no_global(pa)),
    ] {
        let report = run_spec(&RunSpec {
            cycle_period: scale.cycle_period,
            utilization: 1.15,
            slowdown: 2.0,
            ..RunSpec::new(
                Workload::GsHet,
                scale.rc80(),
                scale.num_jobs,
                scale.seed,
                SchedulerKind::Tetri(cfg),
            )
        });
        out.push((format!("{name} cycle"), report.metrics.cycle_latency.cdf()));
        out.push((
            format!("{name} solver"),
            report.metrics.solver_latency.cdf(),
        ));
    }
    out
}

/// Prints Tables 1 and 2 plus the Fig. 5 value-function constants.
pub fn print_tables() {
    println!("== Table 1: workload compositions ==");
    println!(
        "{:<10}{:>6}{:>6}{:>16}{:>6}{:>6}",
        "Workload", "SLO", "BE", "Unconstrained", "GPU", "MPI"
    );
    for w in [
        Workload::GrSlo,
        Workload::GrMix,
        Workload::GsMix,
        Workload::GsHet,
    ] {
        let c = w.composition();
        println!(
            "{:<10}{:>5.0}%{:>5.0}%{:>15.0}%{:>5.0}%{:>5.0}%",
            w.name(),
            c.slo * 100.0,
            c.be * 100.0,
            c.unconstrained * 100.0,
            c.gpu * 100.0,
            c.mpi * 100.0
        );
    }
    println!();
    println!("== Table 2: TetriSched configurations ==");
    for (name, desc) in [
        ("TetriSched", "all features"),
        (
            "TetriSched-NH",
            "no heterogeneity (soft constraint) awareness",
        ),
        (
            "TetriSched-NG",
            "no global scheduling (greedy, 3 priority FIFOs)",
        ),
        ("TetriSched-NP", "no plan-ahead (alsched-equivalent)"),
    ] {
        println!("{name:<16} {desc}");
    }
    println!();
    println!("== Fig. 5: internal value functions ==");
    println!(
        "accepted SLO: {}v until deadline; SLO w/o reservation: {}v; \
         best-effort: {}v linear decay",
        tetrisched_strl::SLO_ACCEPTED_FACTOR,
        tetrisched_strl::SLO_NO_RESERVATION_FACTOR,
        tetrisched_strl::BE_BASE_VALUE,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_fig11_has_all_series() {
        let rows = fig11(&FigScale {
            num_jobs: 8,
            ..FigScale::smoke()
        });
        let schedulers: std::collections::HashSet<_> =
            rows.iter().map(|r| r.scheduler.as_str()).collect();
        assert!(schedulers.contains("tetrisched"));
        assert!(schedulers.contains("tetrisched-ng"));
        assert!(schedulers.contains("rayon-cs"));
    }

    #[test]
    fn tables_print() {
        print_tables();
    }
}
