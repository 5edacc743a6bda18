//! Fixed queue snapshots and the re-plan pipeline that runs on them.
//!
//! A snapshot is what one scheduling cycle sees: a time, a queue of pending
//! jobs and a ledger of running gangs. Snapshots are cut from a job stream
//! and do not depend on any earlier scheduling decision, so the work of
//! re-planning one is a function of the seed alone.

use std::collections::BTreeMap;
use std::time::Instant;

use tetrisched_cluster::{AllocHandle, Cluster, Ledger, NodeId, NodeSet, PartitionSet, Time};
use tetrisched_core::{compile, CompileInput, StrlGenerator, TetriSchedConfig};
use tetrisched_milp::{check_solution, MilpBackend, Model, SolveStatus, SolverStats};
use tetrisched_sim::{JobSpec, JobType, PendingJob};
use tetrisched_strl::{JobClass, StrlExpr};

use crate::timing::Tracer;

/// SplitMix64: the benchmark's own generator for everything it draws itself
/// (ledger pre-fill, queueing delays, classes), so that snapshots do not
/// change when the repository's vendored `rand` stand-in does.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`). The modulo bias is below 2^-50 for the
    /// small ranges drawn here.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Which snapshots to cut: one cell per (queue depth, ledger fill), and
/// `windows_per_cell` windows in each, every window the stream's next jobs
/// of each type in the numbers `window_mix` gives.
#[derive(Debug, Clone)]
pub struct SnapshotShape {
    pub depths: Vec<usize>,
    pub fills_pct: Vec<u32>,
    pub windows_per_cell: usize,
}

impl SnapshotShape {
    pub fn count(&self) -> usize {
        self.depths.len() * self.fills_pct.len() * self.windows_per_cell
    }

    /// Stream jobs to generate: every window takes fresh jobs, a fixed
    /// number of each type, so the stream is three times as long as the
    /// windows together, and a hundred more, and no type runs out (a window
    /// of six takes a third of each; a quarter of GS HET is best-effort).
    pub fn jobs_needed(&self) -> usize {
        3 * self.depths.iter().sum::<usize>() * self.fills_pct.len() * self.windows_per_cell + 100
    }
}

/// How many GPU, MPI and other jobs a window of `depth` holds: the GS HET
/// proportions (3/8, 3/8, 1/4), rounded down for the first two.
///
/// A window of the stream's next `depth` jobs, whatever they are, makes the
/// number of MPI jobs in it a matter of chance, and that number alone
/// explains two fifths of the variance of the logarithm of a dive's time
/// (rack affinity is what leaves an LP fractional). With the mix fixed, the
/// median over a few hundred windows moves less from seed to seed.
fn window_mix(depth: usize) -> [usize; 3] {
    let constrained = 3 * depth / 8;
    [constrained, constrained, depth - 2 * constrained]
}

#[derive(Debug, Clone)]
pub struct Snapshot {
    pub now: Time,
    pub pending: Vec<PendingJob>,
    pub ledger: Ledger,
}

/// Gangs pre-filling a ledger hold 1 to 8 nodes and end `now+4 ..= now+304`.
const MAX_FILL_GANG: u64 = 8;
const FILL_END_MIN: u64 = 4;
const FILL_END_SPAN: u64 = 301;
/// Handles of pre-fill gangs start here, clear of any job id of a stream.
const FILL_HANDLE_BASE: u64 = 1 << 40;

/// Cuts `shape.count()` snapshots from `stream` (which must hold at least
/// `shape.jobs_needed()` jobs, in submission order). Same cluster, stream,
/// seed and shape give identical snapshots.
pub fn generate(
    cluster: &Cluster,
    stream: &[JobSpec],
    seed: u64,
    shape: &SnapshotShape,
    cycle_period: u64,
) -> Vec<Snapshot> {
    assert!(
        stream.len() >= shape.jobs_needed(),
        "stream of {} jobs is too short for {} snapshot jobs",
        stream.len(),
        shape.jobs_needed()
    );
    let mut rng = SplitMix64::new(seed ^ 0x5EED_5A9C_0DE5_0001);
    // The stream by type, each in submission order.
    let mut by_type: [std::collections::VecDeque<&JobSpec>; 3] = Default::default();
    for job in stream {
        let class = match job.job_type {
            JobType::Gpu => 0,
            JobType::Mpi => 1,
            _ => 2,
        };
        by_type[class].push_back(job);
    }
    let mut out = Vec::with_capacity(shape.count());
    // Cells are interleaved along the stream so that each one samples all
    // of it, not one stretch.
    for _ in 0..shape.windows_per_cell {
        for &depth in &shape.depths {
            for &fill_pct in &shape.fills_pct {
                let mut window: Vec<JobSpec> = Vec::with_capacity(depth);
                for (queue, take) in by_type.iter_mut().zip(window_mix(depth)) {
                    assert!(queue.len() >= take, "the stream ran out of one job type");
                    window.extend(queue.drain(..take).cloned());
                }
                window.sort_by_key(|j| (j.submit, j.id));
                out.push(cut(cluster, &window, fill_pct, cycle_period, &mut rng));
            }
        }
    }
    out
}

fn cut(
    cluster: &Cluster,
    window: &[JobSpec],
    fill_pct: u32,
    cycle_period: u64,
    rng: &mut SplitMix64,
) -> Snapshot {
    let q = cycle_period.max(1);
    let last_submit = window.iter().map(|j| j.submit).max().unwrap_or(0);
    // Cycles tick at multiples of the period, after every job of the window
    // has arrived.
    let now = last_submit.div_ceil(q) * q + q;
    let pending = window
        .iter()
        .map(|spec| {
            // Each job has waited 0 to 3 cycles; its deadline keeps its
            // slack relative to submission.
            let submit = now - q * rng.below(4);
            let class = match spec.deadline {
                None => JobClass::BestEffort,
                Some(_) if rng.below(4) == 0 => JobClass::SloNoReservation,
                Some(_) => JobClass::SloAccepted,
            };
            PendingJob {
                spec: JobSpec {
                    submit,
                    deadline: spec.deadline.map(|d| submit + (d - spec.submit)),
                    ..spec.clone()
                },
                class,
                reservation: None,
                preemptions: 0,
                weight: 1.0,
            }
        })
        .collect();

    let n = cluster.num_nodes();
    let mut ledger = Ledger::new(n);
    let target_busy = n * fill_pct as usize / 100;
    let mut free: Vec<NodeId> = ledger.free_nodes().iter().collect();
    let mut gang = 0u64;
    while ledger.busy_count() < target_busy {
        let want = (1 + rng.below(MAX_FILL_GANG)) as usize;
        let k = want.min(target_busy - ledger.busy_count());
        let mut nodes = Vec::with_capacity(k);
        for _ in 0..k {
            let pick = rng.below(free.len() as u64) as usize;
            nodes.push(free.swap_remove(pick));
        }
        let end = now + FILL_END_MIN + rng.below(FILL_END_SPAN);
        ledger
            .allocate(
                AllocHandle(FILL_HANDLE_BASE + gang),
                NodeSet::from_ids(n, nodes),
                end,
            )
            .expect("pre-fill gangs take free nodes under fresh handles");
        gang += 1;
    }
    Snapshot {
        now,
        pending,
        ledger,
    }
}

/// One re-plan's result and the facts the checks and metrics need.
#[derive(Debug)]
pub struct Replan {
    /// Wall time of the pipeline, generator to decoded choice.
    pub wall_s: f64,
    pub status: SolveStatus,
    pub objective: f64,
    pub stats: SolverStats,
    pub vars: usize,
    pub rows: usize,
    pub leaves: usize,
    pub partitions: usize,
    /// SLO jobs in the queue, and how many of them the plan places.
    pub slo_jobs: usize,
    pub slo_planned: usize,
    /// Jobs the plan starts now.
    pub launches: usize,
    /// `Err` when the solution fails the primal check or its decoded node
    /// counts exceed what the snapshot's ledger has available.
    pub check: Result<(), String>,
}

/// Re-plans one snapshot through the public pipeline: `job_expr` for each
/// job, `PartitionSet::refine`, `compile`, `MilpBackend::solve`, `chosen`.
/// This is what `TetriSched::cycle_global` does, minus the state it carries
/// from cycle to cycle (warm starts, quarantine), which a fixed snapshot
/// has not.
pub fn replan(
    cluster: &Cluster,
    snap: &Snapshot,
    sched: &TetriSchedConfig,
    backend: &dyn MilpBackend,
    tracer: &mut Tracer,
) -> (Replan, Model) {
    let now = snap.now;
    let view = &snap.ledger;
    let t0 = Instant::now();
    let cycle_span = tracer.begin("core.cycle");

    let span = tracer.begin("core.strl_gen");
    let generator = StrlGenerator::new(sched, cluster);
    let rack_avail = |s: &NodeSet| view.avail_at(s, now);
    let requests: Vec<_> = snap
        .pending
        .iter()
        .map(|p| generator.job_expr(p, now, &rack_avail))
        .filter(|r| r.is_schedulable())
        .collect();
    let aggregate = StrlExpr::Sum(requests.iter().map(|r| r.expr.clone()).collect());
    tracer.end(span);

    let span = tracer.begin("cluster.refine");
    let mut leaf_sets = Vec::new();
    aggregate.visit(&mut |e| {
        if let StrlExpr::NCk { set, .. } | StrlExpr::LnCk { set, .. } = e {
            leaf_sets.push(set.clone());
        }
    });
    let partitions = PartitionSet::refine(cluster.num_nodes(), &leaf_sets);
    tracer.end(span);

    let span = tracer.begin("core.compile");
    let avail = |set: &NodeSet, t: Time| view.avail_at(set, t);
    let input = CompileInput {
        expr: &aggregate,
        partitions: &partitions,
        now,
        quantum: sched.cycle_period,
        n_slices: sched.n_slices(),
    };
    let compiled = compile(&input, &avail).expect("generated expressions compile");
    tracer.end(span);

    let span = tracer.begin("milp.solve");
    // The empty plan (every variable 0: schedule nothing) is feasible in
    // every compiled model and is handed to the solver as its starting
    // incumbent, as a scheduler with no previous plan to offer would: a
    // search that finds nothing inside its node budget then ends with a
    // worthless plan, not without one.
    let empty_plan = vec![0.0; compiled.model.num_vars()];
    let solution = backend
        .solve(&compiled.model, Some(&empty_plan))
        .expect("compiled models are well formed");
    tracer.end(span);

    let span = tracer.begin("core.decode");
    // A solve that ends without an incumbent carries no values to decode
    // (and fails the check below).
    let chosen = if solution.status.has_solution() {
        compiled.chosen(&solution)
    } else {
        Vec::new()
    };
    tracer.end(span);

    tracer.end(cycle_span);
    let wall_s = t0.elapsed().as_secs_f64();

    // Output checks, outside the timed region.
    let tags: Vec<_> = requests.iter().flat_map(|r| r.tags.iter()).collect();
    let mut check = if solution.status.has_solution() {
        check_solution(&compiled.model, &solution)
    } else {
        Err(format!("no solution: {:?}", solution.status))
    };
    let q = sched.cycle_period.max(1);
    let n_slices = sched.n_slices();
    let mut used: BTreeMap<(usize, usize), usize> = BTreeMap::new();
    let mut planned = std::collections::BTreeSet::new();
    let mut launching = std::collections::BTreeSet::new();
    for c in &chosen {
        let leaf = &compiled.leaves[c.leaf];
        let tag = tags[c.leaf];
        planned.insert(tag.job);
        if leaf.start == now {
            launching.insert(tag.job);
        }
        let rel = leaf.start - now;
        let first = (rel / q) as usize;
        let last = ((rel + leaf.dur).div_ceil(q) as usize).min(n_slices);
        for &(class, count) in &c.counts {
            for slice in first..last {
                *used.entry((class, slice)).or_default() += count as usize;
            }
        }
    }
    for (&(class, slice), &count) in &used {
        let t = now + slice as u64 * q;
        let cap = view.avail_at(partitions.class(class), t);
        if count > cap && check.is_ok() {
            check = Err(format!(
                "plan uses {count} nodes of class {class} at t={t}, ledger has {cap}"
            ));
        }
    }
    let slo: Vec<_> = snap
        .pending
        .iter()
        .filter(|p| p.spec.deadline.is_some())
        .map(|p| p.spec.id)
        .collect();

    let outcome = Replan {
        wall_s,
        status: solution.status,
        objective: solution.objective,
        stats: solution.stats,
        vars: compiled.model.num_vars(),
        rows: compiled.model.num_constraints(),
        leaves: aggregate.leaf_count(),
        partitions: partitions.len(),
        slo_jobs: slo.len(),
        slo_planned: slo.iter().filter(|j| planned.contains(j)).count(),
        launches: launching.len(),
        check,
    };
    // The model goes back to the caller, who times layer functions on it or
    // drops it: a pass keeps nothing of a solve but these few numbers, so
    // every solve meets the allocator in the same state.
    (outcome, compiled.model)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tetrisched_milp::{ExactBackend, SolverConfig};
    use tetrisched_workloads::{GridmixConfig, Workload, WorkloadBuilder};

    fn stream(seed: u64, n: usize) -> Vec<JobSpec> {
        WorkloadBuilder::new(GridmixConfig {
            seed,
            num_jobs: n,
            cluster_size: 80,
            target_utilization: 1.15,
            slowdown: 2.0,
            ..GridmixConfig::default()
        })
        .generate(Workload::GsHet)
    }

    fn shape() -> SnapshotShape {
        SnapshotShape {
            depths: vec![4, 6],
            fills_pct: vec![30, 85],
            windows_per_cell: 2,
        }
    }

    /// Everything a re-plan reads from a snapshot, as one comparable string.
    fn fingerprint(snaps: &[Snapshot]) -> String {
        let cluster = Cluster::rc80(2);
        let all = cluster.all_nodes();
        snaps
            .iter()
            .map(|s| {
                let jobs: Vec<String> = s
                    .pending
                    .iter()
                    .map(|p| format!("{:?}/{:?}", p.spec, p.class))
                    .collect();
                let ends: Vec<String> = s
                    .ledger
                    .handles()
                    .map(|h| format!("{:?}@{:?}", s.ledger.nodes_of(h), s.ledger.expected_end(h)))
                    .collect();
                format!(
                    "{} {} {jobs:?} {ends:?}\n",
                    s.now,
                    s.ledger.avail_at(&all, s.now)
                )
            })
            .collect()
    }

    #[test]
    fn same_seed_gives_identical_snapshots() {
        let cluster = Cluster::rc80(2);
        let n = shape().jobs_needed();
        let a = generate(&cluster, &stream(9, n), 9, &shape(), 4);
        let b = generate(&cluster, &stream(9, n), 9, &shape(), 4);
        assert_eq!(a.len(), shape().count());
        assert_eq!(fingerprint(&a), fingerprint(&b));
        let c = generate(&cluster, &stream(10, n), 10, &shape(), 4);
        assert_ne!(fingerprint(&a), fingerprint(&c), "the seed must matter");
    }

    #[test]
    fn snapshots_have_the_asked_shape() {
        let cluster = Cluster::rc80(2);
        let snaps = generate(&cluster, &stream(3, shape().jobs_needed()), 3, &shape(), 4);
        // Cells repeat in (depth, fill) order, once per window.
        let cells: Vec<(usize, usize)> = shape()
            .depths
            .iter()
            .flat_map(|&d| shape().fills_pct.into_iter().map(move |f| (d, f as usize)))
            .collect();
        for (s, &(depth, fill_pct)) in snaps.iter().zip(cells.iter().cycle()) {
            assert_eq!(s.pending.len(), depth);
            let of_type = |t| s.pending.iter().filter(|p| p.spec.job_type == t).count();
            assert_eq!(of_type(JobType::Gpu), 3 * depth / 8);
            assert_eq!(of_type(JobType::Mpi), 3 * depth / 8);
            assert_eq!(s.ledger.busy_count(), 80 * fill_pct / 100);
            assert!(s.ledger.validate().is_ok());
            assert_eq!(s.now % 4, 0);
            for p in &s.pending {
                assert!(p.spec.submit <= s.now);
                assert_eq!(p.spec.deadline.is_some(), p.class != JobClass::BestEffort);
            }
            for h in s.ledger.handles() {
                let end = s.ledger.expected_end(h).unwrap();
                assert!((s.now + 4..=s.now + 304).contains(&end));
                assert!((1..=8).contains(&s.ledger.nodes_of(h).unwrap().len()));
            }
        }
    }

    #[test]
    fn a_replan_passes_its_own_checks() {
        let cluster = Cluster::rc80(2);
        let snaps = generate(&cluster, &stream(5, shape().jobs_needed()), 5, &shape(), 4);
        let sched = TetriSchedConfig::default();
        let solver = SolverConfig::online(std::time::Duration::from_secs(3600)).with_node_limit(20);
        let backend = ExactBackend::new(solver);
        let (r, model) = replan(
            &cluster,
            &snaps[0],
            &sched,
            &backend,
            &mut Tracer::new(true),
        );
        assert_eq!(r.check, Ok(()));
        assert!(r.vars > 0 && r.rows > 0 && r.leaves > 0 && r.partitions > 0);
        assert_eq!(model.num_vars(), r.vars);
        assert!(r.slo_planned <= r.slo_jobs);
    }
}
