//! Pins what `compile` builds and what `presolve` makes of it.
//!
//! A seeded corpus — one-job GS HET requests on the 1 000-node cluster of
//! the greedy benchmark workload, six-job aggregates on RC80, each over a
//! pre-filled ledger and through the public pipeline (`job_expr` →
//! `PartitionSet::refine` → `compile`) — is folded into three FNV-1a
//! digests: the compiled model (every variable's *rendered* name, kind and
//! bound / objective bits; every row's rendered name, sense, right-hand side
//! and terms), `presolve`'s output (counts, kept rows, tightened bounds), and
//! `Simplex::solve` on the raw and on the presolved model (objective, values,
//! duals, work counters). Row terms are sorted by variable (stably), merged
//! and stripped of exact zeros *by this test* before they are folded, so the
//! digest is defined on a row's canonical form and does not care whether the
//! model stores rows that way. The constants were captured on the parent of
//! the PR that made names lazy and rows canonical at insertion, and
//! re-captured once in PR 22, a behaviour change on model bytes: `compile`
//! emits the reduced model (`compile_oracle` holds it to Algorithm 1's).
//! They must hold in debug and in release.

use tetrisched::cluster::{AllocHandle, Cluster, Ledger, NodeId, NodeSet, PartitionSet, Time};
use tetrisched::core::{compile, CompileInput, StrlGenerator, TetriSchedConfig};
use tetrisched::milp::{
    lint_model, presolve, LpOutcome, Model, PresolveOutcome, Sense, Simplex, VarId, VarKind,
};
use tetrisched::sim::{JobSpec, PendingJob};
use tetrisched::strl::{JobClass, StrlExpr};
use tetrisched::workloads::{GridmixConfig, Workload, WorkloadBuilder};

const MODEL_DIGEST: u64 = 0x5718_e876_a012_8856;
const PRESOLVE_DIGEST: u64 = 0xe600_55a6_9973_0a7e;
const LP_DIGEST: u64 = 0xbd3c_076c_0e56_c5ff;

const ONE_JOB_MODELS: usize = 240;
const AGGREGATES: usize = 24;
const CYCLE_PERIOD: u64 = 4;

/// FNV-1a over the little-endian bytes of what is folded in.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }

    fn usize(&mut self, x: usize) {
        self.u64(x as u64);
    }

    /// A float by its bits, the two zeros as one.
    fn f64(&mut self, x: f64) {
        self.u64(if x == 0.0 { 0 } else { x.to_bits() });
    }

    fn f64s(&mut self, xs: &[f64]) {
        self.usize(xs.len());
        for &x in xs {
            self.f64(x);
        }
    }

    /// A label as the diagnostics would print it.
    fn label(&mut self, name: &dyn std::fmt::Display) {
        let text = name.to_string();
        self.usize(text.len());
        self.bytes(text.as_bytes());
    }
}

/// SplitMix64, for what the corpus draws itself.
struct SplitMix64(u64);

impl SplitMix64 {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) % n
    }
}

/// A ledger `fill_pct` % busy with gangs of 1 to 8 nodes ending over the
/// 300 s after `now`.
fn prefilled(n: usize, now: Time, fill_pct: usize, rng: &mut SplitMix64) -> Ledger {
    let mut ledger = Ledger::new(n);
    let target_busy = n * fill_pct / 100;
    let mut free: Vec<NodeId> = ledger.free_nodes().iter().collect();
    let mut gang = 0u64;
    while ledger.busy_count() < target_busy {
        let k = (1 + rng.below(8) as usize).min(target_busy - ledger.busy_count());
        let nodes: Vec<NodeId> = (0..k)
            .map(|_| free.swap_remove(rng.below(free.len() as u64) as usize))
            .collect();
        let end = now + 4 + rng.below(301);
        ledger
            .allocate(
                AllocHandle((1 << 40) + gang),
                NodeSet::from_ids(n, nodes),
                end,
            )
            .expect("pre-fill gangs take free nodes under fresh handles");
        gang += 1;
    }
    ledger
}

/// The jobs as pending at `now` (each submitted up to three cycles ago) and
/// compiled as one unit against `ledger`, the way the scheduler's pipeline
/// compiles a unit; `None` when no job is schedulable.
fn unit_model(
    cluster: &Cluster,
    ledger: &Ledger,
    jobs: &[&JobSpec],
    now: Time,
    rng: &mut SplitMix64,
) -> Option<Model> {
    let sched = TetriSchedConfig {
        cycle_period: CYCLE_PERIOD,
        ..TetriSchedConfig::default()
    };
    let generator = StrlGenerator::new(&sched, cluster);
    let rack_avail = |s: &NodeSet| ledger.avail_at(s, now);
    let mut exprs: Vec<StrlExpr> = Vec::new();
    for spec in jobs {
        let submit = now - CYCLE_PERIOD * rng.below(4);
        let class = match spec.deadline {
            None => JobClass::BestEffort,
            Some(_) if rng.below(4) == 0 => JobClass::SloNoReservation,
            Some(_) => JobClass::SloAccepted,
        };
        let pending = PendingJob {
            spec: JobSpec {
                submit,
                deadline: spec.deadline.map(|d| submit + (d - spec.submit)),
                ..(*spec).clone()
            },
            class,
            reservation: None,
            preemptions: 0,
            weight: 1.0,
        };
        let request = generator.job_expr(&pending, now, &rack_avail);
        if request.is_schedulable() {
            exprs.push(request.expr);
        }
    }
    let expr = match exprs.len() {
        0 => return None,
        // A greedy unit is the job's own expression, not a `sum` of one.
        1 if jobs.len() == 1 => exprs.swap_remove(0),
        _ => StrlExpr::Sum(exprs),
    };
    let mut leaf_sets = Vec::new();
    expr.visit(&mut |e| {
        if let StrlExpr::NCk { set, .. } | StrlExpr::LnCk { set, .. } = e {
            leaf_sets.push(set.clone());
        }
    });
    let partitions = PartitionSet::refine(cluster.num_nodes(), &leaf_sets);
    let input = CompileInput {
        expr: &expr,
        partitions: &partitions,
        now,
        quantum: sched.cycle_period,
        n_slices: sched.n_slices(),
    };
    let avail = |set: &NodeSet, t: Time| ledger.avail_at(set, t);
    Some(
        compile(&input, &avail)
            .expect("generated expressions compile")
            .model,
    )
}

fn gshet(cluster: &Cluster, seed: u64, num_jobs: usize) -> Vec<JobSpec> {
    WorkloadBuilder::new(GridmixConfig {
        seed,
        num_jobs,
        cluster_size: cluster.num_nodes(),
        target_utilization: 1.15,
        estimate_error: 0.0,
        error_jitter: 0.0,
        slowdown: 2.0,
    })
    .generate(Workload::GsHet)
}

fn corpus() -> Vec<Model> {
    let mut rng = SplitMix64(0x5EED_0000_601D_0016);
    let mut models = Vec::new();

    // One-job units on the greedy workload's cluster, ledger 60 to 90 % full.
    let cluster = Cluster::uniform(10, 100, 2);
    let stream = gshet(&cluster, 42, ONE_JOB_MODELS);
    for (i, spec) in stream.iter().enumerate() {
        let now: Time = spec.submit.div_ceil(CYCLE_PERIOD) * CYCLE_PERIOD + 4 * CYCLE_PERIOD;
        let ledger = prefilled(cluster.num_nodes(), now, [90, 60, 75, 85][i % 4], &mut rng);
        models.extend(unit_model(&cluster, &ledger, &[spec], now, &mut rng));
    }
    let one_job = models.len();
    assert!(one_job >= 200, "{one_job} one-job models");

    // Six-job aggregates on RC80, ledger 60 to 85 % full.
    let cluster = Cluster::rc80(2);
    let stream = gshet(&cluster, 42, 6 * AGGREGATES);
    for (w, window) in stream.chunks(6).enumerate() {
        let last_submit = window.iter().map(|j| j.submit).max().unwrap_or(0);
        let now: Time = last_submit.div_ceil(CYCLE_PERIOD) * CYCLE_PERIOD + 4 * CYCLE_PERIOD;
        let ledger = prefilled(cluster.num_nodes(), now, [85, 60, 75][w % 3], &mut rng);
        let jobs: Vec<&JobSpec> = window.iter().collect();
        models.extend(unit_model(&cluster, &ledger, &jobs, now, &mut rng));
    }
    let aggregates = models.len() - one_job;
    assert!(aggregates >= 20, "{aggregates} aggregates");
    models
}

/// A row's terms in canonical form: ascending variable order by stable sort,
/// duplicates summed in insertion order, exact zeros dropped.
fn canonical(terms: &[(VarId, f64)]) -> Vec<(VarId, f64)> {
    let mut sorted = terms.to_vec();
    sorted.sort_by_key(|&(v, _)| v);
    let mut out: Vec<(VarId, f64)> = Vec::with_capacity(sorted.len());
    for (v, c) in sorted {
        match out.last_mut() {
            Some((lv, lc)) if *lv == v => *lc += c,
            _ => out.push((v, c)),
        }
    }
    out.retain(|&(_, c)| c != 0.0);
    out
}

fn fold_model(h: &mut Fnv, model: &Model) {
    h.usize(model.num_vars());
    for v in model.vars() {
        h.label(&v.name);
        h.u64(match v.kind {
            VarKind::Continuous => 0,
            VarKind::Integer => 1,
            VarKind::Binary => 2,
        });
        h.f64(v.lb);
        h.f64(v.ub);
        h.f64(v.obj);
    }
    h.f64(model.objective_offset);
    h.usize(model.num_constraints());
    for c in model.constraints() {
        h.label(&c.name);
        h.u64(match c.sense {
            Sense::Le => 0,
            Sense::Ge => 1,
            Sense::Eq => 2,
        });
        h.f64(c.rhs);
        let terms = canonical(&c.terms);
        h.usize(terms.len());
        for (v, coeff) in terms {
            h.usize(v.index());
            h.f64(coeff);
        }
    }
}

fn fold_lp(h: &mut Fnv, model: &Model) {
    let simplex = Simplex::new(50_000);
    match simplex.solve(model) {
        Ok(LpOutcome::Optimal {
            objective,
            values,
            duals,
        }) => {
            h.u64(1);
            h.f64(objective);
            h.f64s(&values);
            h.f64s(&duals);
        }
        Ok(LpOutcome::Infeasible { farkas }) => {
            h.u64(2);
            h.f64s(&farkas.unwrap_or_default());
        }
        Ok(LpOutcome::Unbounded { ray }) => {
            h.u64(3);
            h.f64s(&ray.unwrap_or_default());
        }
        Err(_) => h.u64(4),
    }
    h.usize(simplex.iterations());
    h.usize(simplex.refactorizations());
}

#[test]
fn compiled_models_presolve_and_lps_are_pinned() {
    let (mut built, mut reduced, mut lps) = (Fnv::new(), Fnv::new(), Fnv::new());
    let (mut dropped, mut tightened) = (0, 0);
    for model in &corpus() {
        fold_model(&mut built, model);
        fold_lp(&mut lps, model);
        match presolve(model, 2) {
            PresolveOutcome::Reduced {
                model: kept,
                rows_dropped,
                bounds_tightened,
            } => {
                reduced.u64(1);
                reduced.usize(rows_dropped);
                reduced.usize(bounds_tightened);
                fold_model(&mut reduced, &kept);
                fold_lp(&mut lps, &kept);
                dropped += rows_dropped;
                tightened += bounds_tightened;
            }
            PresolveOutcome::Infeasible { certificate } => {
                reduced.u64(2);
                reduced.label(&certificate.map_or(String::new(), |c| c.to_string()));
            }
        }
    }
    // A corpus presolve does nothing to would pin nothing of it.
    assert!(
        dropped > 1000 && tightened == 0,
        "{dropped} rows, {tightened} bounds"
    );
    let got = (built.0, reduced.0, lps.0);
    assert_eq!(
        got,
        (MODEL_DIGEST, PRESOLVE_DIGEST, LP_DIGEST),
        "got {:#018x} {:#018x} {:#018x}",
        got.0,
        got.1,
        got.2
    );
}

/// `compile` emits one supply row per class and maximal user set: no row is
/// left that the model lint's `M003` (duplicate parallel rows) would name.
/// Algorithm 1's per-(class, slice) rows had some 70 a model on RC80.
#[test]
fn corpus_has_no_duplicate_rows() {
    for (i, model) in corpus().iter().enumerate() {
        let duplicates: Vec<String> = lint_model(model)
            .iter()
            .filter(|d| d.code == "M003")
            .map(|d| d.to_string())
            .collect();
        assert!(duplicates.is_empty(), "model {i}: {duplicates:?}");
    }
}
