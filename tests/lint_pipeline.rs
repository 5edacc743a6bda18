//! Property tests tying the lint engines to the generator/compiler/solver
//! pipeline:
//!
//! 1. Every STRL expression the generator emits for a random job — and the
//!    MILP model the compiler builds from it — is lint-clean at Error
//!    severity (the analyses encode real invariants of the emitters), and
//!    the model is feasible at x = 0.
//! 2. Lint-clean models never make the solver panic or error: Error-free
//!    analysis is a sufficient pre-flight check before `solve()`.
//! 3. End-to-end, a simulation with the `lint_models` knob enabled counts
//!    zero lint rejections.
//! 4. Over the audited corpus — three Table 1 workloads under four solve
//!    paths, `lint_models` and `certify_solves` both on — no model is
//!    rejected and every solve carries a certificate that verifies.

use proptest::prelude::*;
use tetrisched::cluster::{Cluster, NodeSet, PartitionSet};
use tetrisched::core::{compile, CompileInput, StrlGenerator, TetriSched, TetriSchedConfig};
use tetrisched::lint::{lint_expr, StrlLintContext};
use tetrisched::milp::lint::has_errors;
use tetrisched::milp::{lint_model, Model, Sense, SolverConfig, VarKind};
use tetrisched::sim::{JobId, JobSpec, JobType, PendingJob, SimConfig, Simulator};
use tetrisched::strl::{JobClass, StrlExpr};
use tetrisched::workloads::{GridmixConfig, Workload, WorkloadBuilder};

fn spec(i: u64, j: &MiniJob) -> JobSpec {
    JobSpec {
        id: JobId(i),
        submit: 0,
        job_type: match j.job_type {
            0 => JobType::Unconstrained,
            1 => JobType::Gpu,
            2 => JobType::Mpi,
            _ => JobType::Availability,
        },
        k: j.k,
        base_runtime: j.runtime,
        slowdown: if j.job_type == 0 { 1.0 } else { 1.5 },
        deadline: j.deadline_slack.map(|s| j.runtime * s as u64 / 4),
        estimate_error: 0.0,
    }
}

#[derive(Debug, Clone)]
struct MiniJob {
    k: u32,
    runtime: u64,
    deadline_slack: Option<u32>, // deadline = runtime * slack / 4
    job_type: u8,
    class: u8,
}

fn arb_job() -> impl Strategy<Value = MiniJob> {
    (
        1u32..6,
        5u64..80,
        prop::option::of(5u32..30),
        0u8..4,
        0u8..3,
    )
        .prop_map(|(k, runtime, deadline_slack, job_type, class)| MiniJob {
            k,
            runtime,
            deadline_slack,
            job_type,
            class,
        })
}

fn class_of(c: u8) -> JobClass {
    match c {
        0 => JobClass::SloAccepted,
        1 => JobClass::SloNoReservation,
        _ => JobClass::BestEffort,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Generator-emitted expressions and compiler-emitted models are
    /// lint-clean at Error severity for arbitrary jobs and cycle times.
    #[test]
    fn generated_requests_are_lint_clean(
        jobs in prop::collection::vec(arb_job(), 1..5),
        now_cycle in 0u64..8,
    ) {
        let cluster = Cluster::uniform(4, 3, 1);
        let config = TetriSchedConfig::full(16);
        let now = now_cycle * config.cycle_period;
        let generator = StrlGenerator::new(&config, &cluster);
        let ledger = tetrisched::cluster::Ledger::new(cluster.num_nodes());
        let rack_avail = |s: &NodeSet| ledger.avail_at(s, now);
        let lint_ctx = StrlLintContext {
            now,
            window_end: Some(now + config.n_slices() as u64 * config.cycle_period),
        };

        let mut exprs = Vec::new();
        for (i, j) in jobs.iter().enumerate() {
            let pending = PendingJob {
                spec: spec(i as u64, j),
                class: class_of(j.class),
                reservation: None,
                preemptions: 0,
                weight: 1.0,
            };
            // Jobs whose deadline already passed are culled by the
            // scheduler before linting; mirror that here.
            let req = generator.job_expr(&pending, now, &rack_avail);
            if !req.is_schedulable() {
                continue;
            }
            let diags = lint_expr(&req.expr, &lint_ctx);
            prop_assert!(
                !has_errors(&diags),
                "expr lint errors for job {i}: {}",
                tetrisched::lint::render_pretty(&diags)
            );
            exprs.push(req.expr);
        }
        if exprs.is_empty() {
            return Ok(()); // every job unschedulable; nothing to aggregate
        }

        let mut sets = Vec::new();
        for e in &exprs {
            e.visit(&mut |node| {
                if let StrlExpr::NCk { set, .. } | StrlExpr::LnCk { set, .. } = node {
                    sets.push(set.clone());
                }
            });
        }
        let partitions = PartitionSet::refine(cluster.num_nodes(), &sets);
        let aggregate = StrlExpr::sum(exprs);
        let input = CompileInput {
            expr: &aggregate,
            partitions: &partitions,
            now,
            quantum: config.cycle_period,
            n_slices: config.n_slices(),
        };
        let avail = |set: &NodeSet, t: u64| ledger.avail_at(set, t);
        let compiled = compile(&input, &avail);
        let Ok(compiled) = compiled else {
            return Ok(()); // compile-time culling emptied the model
        };
        let diags = lint_model(&compiled.model);
        prop_assert!(
            !has_errors(&diags),
            "model lint errors: {}",
            tetrisched::lint::render_pretty(&diags)
        );
        // Every compiled model is feasible at x = 0, so no sound
        // propagation can refute one.
        let n = compiled.model.num_vars();
        prop_assert!(
            compiled.model.is_feasible(&vec![0.0; n], 0.0),
            "x = 0 is infeasible for a compiled model"
        );
    }
}

#[derive(Debug, Clone)]
struct MiniModel {
    vars: Vec<(u8, f64, f64, f64)>, // (kind, lb, ub, obj)
    rows: Vec<(Vec<f64>, u8, f64)>, // (coeff per var, sense, rhs)
}

fn arb_model() -> impl Strategy<Value = MiniModel> {
    (1usize..4).prop_flat_map(|n| {
        let vars = prop::collection::vec((0u8..3, -4.0f64..4.0, 0.0f64..6.0, -2.0f64..2.0), n);
        let rows = prop::collection::vec(
            (prop::collection::vec(-3.0f64..3.0, n), 0u8..3, -6.0f64..6.0),
            0..4,
        );
        (vars, rows).prop_map(|(vars, rows)| MiniModel { vars, rows })
    })
}

fn build_model(m: &MiniModel) -> Model {
    let mut model = Model::maximize();
    let ids: Vec<_> = m
        .vars
        .iter()
        .enumerate()
        .map(|(j, &(kind, lb, ub_span, obj))| {
            let kind = match kind {
                0 => VarKind::Continuous,
                1 => VarKind::Integer,
                _ => VarKind::Binary,
            };
            model.add_var(format!("x{j}"), kind, lb, lb + ub_span, obj)
        })
        .collect();
    for (i, (coeffs, sense, rhs)) in m.rows.iter().enumerate() {
        let sense = match sense {
            0 => Sense::Le,
            1 => Sense::Ge,
            _ => Sense::Eq,
        };
        model.add_constraint(
            format!("r{i}"),
            ids.iter().copied().zip(coeffs.iter().copied()),
            sense,
            *rhs,
        );
    }
    model
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// A model with no Error-severity lint finding never makes the exact
    /// solver panic or return an error: it either solves or reports an
    /// honest Infeasible/Unbounded status.
    #[test]
    fn lint_clean_models_solve_without_panic(m in arb_model()) {
        let model = build_model(&m);
        let diags = lint_model(&model);
        if has_errors(&diags) {
            return Ok(()); // not lint-clean; out of scope for this property
        }
        let sol = model.solve(&SolverConfig::exact());
        prop_assert!(sol.is_ok(), "solver errored on a lint-clean model: {sol:?}");
    }

    /// Models the linter *certifies* infeasible are indeed reported as
    /// having no solution by the solver (certificates are not just
    /// machine-checkable, they agree with the ground truth).
    #[test]
    fn certified_models_are_truly_infeasible(m in arb_model()) {
        let model = build_model(&m);
        let diags = lint_model(&model);
        let certified = diags.iter().any(|d| d.certificate.is_some());
        if !certified {
            return Ok(()); // no certificate emitted; out of scope
        }
        for d in &diags {
            if let Some(cert) = &d.certificate {
                prop_assert!(cert.verify(&model).is_ok());
            }
        }
        // The solver agrees either by reporting an Infeasible status or by
        // rejecting the model outright (e.g. crossed bounds fail
        // `validate()` before any status can be computed). Both confirm no
        // feasible point exists; only a solution would refute the cert.
        if let Ok(sol) = model.solve(&SolverConfig::exact()) {
            prop_assert!(
                !sol.status.has_solution(),
                "certified-infeasible model produced a solution"
            );
        }
    }
}

/// End-to-end: the on-cycle linter stays silent over a real simulated run,
/// in both the global and greedy variants.
#[test]
fn e2e_lint_models_run_is_clean() {
    let jobs = vec![
        JobSpec {
            id: JobId(0),
            submit: 0,
            job_type: JobType::Gpu,
            k: 2,
            base_runtime: 30,
            slowdown: 2.0,
            deadline: Some(200),
            estimate_error: 0.0,
        },
        JobSpec {
            id: JobId(1),
            submit: 4,
            job_type: JobType::Unconstrained,
            k: 3,
            base_runtime: 25,
            slowdown: 1.0,
            deadline: None,
            estimate_error: 0.0,
        },
        JobSpec {
            id: JobId(2),
            submit: 8,
            job_type: JobType::Mpi,
            k: 3,
            base_runtime: 20,
            slowdown: 2.0,
            deadline: Some(300),
            estimate_error: 0.0,
        },
    ];
    for config in [TetriSchedConfig::full(16), TetriSchedConfig::no_global(16)] {
        let config = TetriSchedConfig {
            lint_models: true,
            ..config
        };
        let report = Simulator::new(
            Cluster::uniform(4, 2, 1),
            TetriSched::new(config),
            SimConfig::default(),
        )
        .run(jobs.clone());
        assert_eq!(report.metrics.lint_errors, 0);
        assert_eq!(report.metrics.incomplete, 0);
    }
}

/// The audited corpus: every generated workload under every solve path —
/// global branch-and-bound, greedy job-at-a-time, the LP-dive backend
/// (bound-only certificates) and a chaos-failed first solve, whose degraded
/// fallback must certify too — lints clean and certifies (primal re-check,
/// dual/bound-tree audit replay, STRL→MILP translation validation). The
/// Infeasible and Unbounded certificate paths, which compiled models never
/// reach (the root indicator is free), are `milp::certify`'s unit tests and
/// `proptest_certify`. The solver limit cannot bind.
#[test]
fn audited_corpus_is_clean() {
    let path = |name: &'static str, edit: fn(&mut TetriSchedConfig)| {
        let mut config = TetriSchedConfig {
            lint_models: true,
            certify_solves: true,
            ..TetriSchedConfig::full(16)
        };
        edit(&mut config);
        (name, config)
    };
    let paths = [
        path("global", |_| {}),
        path("greedy", |c| c.global = false),
        path("lp-dive", |c| c.solver_heuristic = true),
        path("chaos-fallback", |c| {
            c.chaos_global_solve_failures = vec![1]
        }),
    ];
    let mut cycles = 0;
    for workload in [Workload::GrMix, Workload::GsMix, Workload::GsHet] {
        for (path, config) in &paths {
            let cluster = Cluster::uniform(4, 6, 2);
            let jobs = WorkloadBuilder::new(GridmixConfig {
                seed: 1,
                num_jobs: 24,
                cluster_size: cluster.num_nodes(),
                ..GridmixConfig::default()
            })
            .generate(workload);
            let sim = SimConfig {
                horizon: Some(4000),
                ..SimConfig::default()
            };
            let report = Simulator::new(cluster, TetriSched::new(config.clone()), sim).run(jobs);
            let m = &report.metrics;
            let point = format!("{} / {path}", workload.name());
            assert_eq!(m.lint_errors, 0, "{point}: Error-severity lint findings");
            assert_eq!(m.certificate_failures, 0, "{point}: certificate failures");
            assert!(m.certificates_verified > 0, "{point}: no certificates");
            cycles += m.cycle_latency.count();
        }
    }
    assert!(cycles >= 50, "coverage shortfall: {cycles} cycles");
}
