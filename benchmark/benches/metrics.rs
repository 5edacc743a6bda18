//! The benchmark's metrics by name. `BENCHMARK.json` at the repository root
//! lists the same names, units, directions and bounds; a unit test keeps
//! the two in step.

/// Which direction is good.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

#[cfg(test)]
impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// An end-to-end metric: measured by the untraced run, defined on every
/// workload, never 0.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
    /// Simulated or counted, not timed: repeats exactly under one seed, so
    /// `compare` reports any difference at all.
    pub exact: bool,
}

pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        exact: false,
    },
    EndToEnd {
        name: "cycle_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
        exact: false,
    },
    EndToEnd {
        name: "slo_attainment_pct",
        unit: "%",
        better: Better::Higher,
        bound: 0.2,
        exact: true,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.25,
        exact: false,
    },
];

/// A per-layer metric: measured by the traced run, no bound. The layer is
/// the part of the name before the first dot (a crate name, `quality` for
/// simulated results, or `host` for the process).
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Counted, not timed: repeats exactly under one seed.
    pub exact: bool,
}

const fn timed(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
        exact: false,
    }
}

const fn counted(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        exact: true,
    }
}

use Better::{Higher, Lower};

pub const PER_LAYER: &[PerLayer] = &[
    // workloads
    timed("workloads.generate_ms", "ms"),
    counted("workloads.jobs", "count", Higher),
    // sim (for rc80_replan_exact: the loop that replays the snapshots)
    timed("sim.run_s", "s"),
    timed("sim.self_s", "s"),
    timed("sim.self_us_per_cycle", "us"),
    PerLayer {
        name: "sim.cycles_per_s",
        unit: "1/s",
        better: Higher,
        exact: false,
    },
    counted("sim.cycles", "count", Higher),
    counted("sim.busy_cycles", "count", Higher),
    // service
    counted("service.admitted", "count", Higher),
    counted("service.shed", "count", Lower),
    counted("service.deferred", "count", Lower),
    timed("service.intake_ns_per_job", "ns"),
    // baseline
    counted("baseline.slo_attainment_pct", "%", Higher),
    timed("baseline.cycle_us_mean", "us"),
    // core
    timed("core.cycle_s", "s"),
    timed("core.self_s", "s"),
    timed("core.cycle_tail_ms", "ms"),
    counted("core.cycle_tail_pct", "%", Higher),
    timed("core.collect_share", "ratio"),
    timed("core.strl_gen_share", "ratio"),
    timed("core.compile_share", "ratio"),
    timed("core.decode_share", "ratio"),
    timed("core.greedy_share", "ratio"),
    counted("core.warm_start_hit_share", "ratio", Higher),
    counted("core.degraded_cycles", "count", Lower),
    // strl
    counted("strl.leaves_mean", "count", Lower),
    // cluster
    timed("cluster.refine_us", "us"),
    counted("cluster.partitions_mean", "count", Lower),
    // milp
    timed("milp.solve_s", "s"),
    timed("milp.solve_share", "ratio"),
    counted("milp.work_units", "count", Lower),
    counted("milp.bb_nodes", "count", Lower),
    counted("milp.bb_nodes_pruned", "count", Higher),
    counted("milp.lp_solves", "count", Lower),
    counted("milp.lp_iterations", "count", Lower),
    counted("milp.refactorizations", "count", Lower),
    timed("milp.us_per_lp_iter", "us"),
    counted("milp.iters_per_lp", "ratio", Lower),
    counted("milp.model_vars_mean", "count", Lower),
    counted("milp.model_rows_mean", "count", Lower),
    counted("milp.node_budget_hit_share", "ratio", Lower),
    timed("milp.presolve_us", "us"),
    counted("milp.presolve_reductions", "count", Higher),
    timed("milp.root_lp_us", "us"),
    counted("milp.root_lp_iters", "count", Lower),
    timed("milp.certify_us", "us"),
    // lint
    timed("lint.phase_share", "ratio"),
    timed("lint.certify_phase_share", "ratio"),
    counted("lint.certificates_verified", "count", Higher),
    timed("lint.model_lint_us", "us"),
    // telemetry
    timed("telemetry.export_ms", "ms"),
    counted("telemetry.spans", "count", Lower),
    // quality: results of a simulated run (closed or open loop), and of the
    // solves of a snapshot workload; each is 0 where it is not defined
    counted("quality.slo_attainment_pct", "%", Higher),
    counted("quality.be_latency_mean_s", "sim-s", Lower),
    counted("quality.utilization_pct", "%", Higher),
    counted("quality.objective_sum", "value", Higher),
    counted("quality.gap_closed_share", "ratio", Higher),
    counted("quality.shed_share", "ratio", Lower),
    counted("quality.failed_share", "ratio", Lower),
    // host
    timed("host.cpu_user_s", "s"),
    timed("host.cpu_sys_pct", "%"),
    timed("host.loadavg1", "load"),
    timed("host.trace_overhead_pct", "%"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Json};
    use crate::workloads::WORKLOADS;

    fn names(list: &Json) -> Vec<String> {
        list.as_arr()
            .expect("a list")
            .iter()
            .map(|m| {
                m.get("name")
                    .and_then(Json::as_str)
                    .expect("a name")
                    .to_string()
            })
            .collect()
    }

    /// `BENCHMARK.json` must describe what the program prints.
    #[test]
    fn benchmark_json_lists_the_same_metrics_and_workloads() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).unwrap();

        let listed = names(doc.get("workloads").unwrap());
        let ours: Vec<_> = WORKLOADS.iter().map(|w| w.name.to_string()).collect();
        assert_eq!(listed, ours);
        for (listed, ours) in doc
            .get("workloads")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .zip(WORKLOADS)
        {
            assert_eq!(listed.get("why").and_then(Json::as_str), Some(ours.why));
            assert!(ours.why.len() <= 200 && !ours.why.contains('\n'));
        }

        let e2e = doc.get("end_to_end").unwrap().as_arr().unwrap();
        assert_eq!(e2e.len(), END_TO_END.len());
        for (listed, ours) in e2e.iter().zip(END_TO_END) {
            assert_eq!(listed.get("name").and_then(Json::as_str), Some(ours.name));
            assert_eq!(listed.get("unit").and_then(Json::as_str), Some(ours.unit));
            assert_eq!(
                listed.get("better").and_then(Json::as_str),
                Some(ours.better.as_str())
            );
            assert_eq!(listed.get("bound").and_then(Json::as_f64), Some(ours.bound));
        }

        let layers = doc.get("per_layer").unwrap().as_arr().unwrap();
        assert_eq!(layers.len(), PER_LAYER.len());
        for (listed, ours) in layers.iter().zip(PER_LAYER) {
            assert_eq!(listed.get("name").and_then(Json::as_str), Some(ours.name));
            assert_eq!(listed.get("unit").and_then(Json::as_str), Some(ours.unit));
            assert_eq!(
                listed.get("better").and_then(Json::as_str),
                Some(ours.better.as_str())
            );
        }
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let ok_name = |s: &str| {
            s.len() <= 64
                && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let ok_unit = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
            .chain(WORKLOADS.iter().map(|w| (w.name, "count")))
        {
            assert!(ok_name(name), "{name}");
            assert!(ok_unit(unit), "{name}: {unit}");
            assert!(seen.insert(name), "{name} is used twice");
        }
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        assert!(END_TO_END.iter().all(|m| m.bound <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
    }
}
