//! The STRL Generator: expanding jobs into space-time request expressions.
//!
//! Mirrors the paper's Sec. 3.1/4.3–4.4 pipeline: framework-type plugins
//! produce the *placement options* for a job (Unconstrained / GPU / MPI,
//! Sec. 6.2.1), and the generator replicates each option across every
//! candidate start time in the plan-ahead window, valuing each replica by
//! the job's class value function evaluated at its completion time (Fig. 5)
//! and culling replicas that cannot meet the deadline (Sec. 3.2.1).

use tetrisched_cluster::{Attr, Cluster, NodeSet, Time};
use tetrisched_sim::{JobId, JobType, PendingJob};
use tetrisched_strl::{StrlExpr, ValueFn};

use crate::config::TetriSchedConfig;

/// Stable identity of a placement option, used to match choices across
/// cycles for warm starting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OptionKey {
    /// Preferred placement anywhere (unconstrained jobs).
    Whole,
    /// Preferred placement on GPU nodes.
    Gpu,
    /// Preferred placement on one rack.
    Rack(u32),
    /// Preferred anti-affine placement, one task per distinct rack
    /// (availability jobs; compiled as a `min` over rack legs).
    Spread,
    /// Slowed fallback placement anywhere.
    Fallback,
}

/// One placement option for a job: an equivalence set plus whether it is
/// the preferred (fast) placement.
#[derive(Debug, Clone)]
pub struct PlacementOption {
    /// Stable identity.
    pub key: OptionKey,
    /// Equivalence set to draw the gang from.
    pub set: NodeSet,
    /// Whether this placement runs at the job's base speed.
    pub preferred: bool,
}

/// Metadata for one generated leaf, parallel (in depth-first order) to the
/// leaves of the expression returned by [`StrlGenerator::job_expr`].
#[derive(Debug, Clone)]
pub struct LeafTag {
    /// The job the leaf belongs to.
    pub job: JobId,
    /// The placement option behind the leaf.
    pub key: OptionKey,
    /// Absolute start time of the replica.
    pub start: Time,
    /// Estimated duration for this placement.
    pub dur: u64,
    /// Whether this placement is preferred.
    pub preferred: bool,
}

/// A job's generated request: the expression plus leaf metadata.
#[derive(Debug, Clone)]
pub struct JobRequest {
    /// The job.
    pub job: JobId,
    /// `max` over option × start replicas (empty when nothing is feasible).
    pub expr: StrlExpr,
    /// Leaf metadata in the expression's depth-first leaf order.
    pub tags: Vec<LeafTag>,
}

impl JobRequest {
    /// Whether the request has any satisfiable replica.
    pub fn is_schedulable(&self) -> bool {
        !self.tags.is_empty()
    }
}

/// Floor for best-effort value so fully decayed jobs still schedule.
const BE_VALUE_FLOOR: f64 = 0.01;
/// Horizon over which a best-effort job's value decays to the floor.
const BE_VALUE_HORIZON: u64 = 3600;
/// For MPI-style rack options, only this many of the highest-availability
/// racks are considered (generator culling).
const MAX_RACK_OPTIONS: usize = 4;

/// The STRL Generator.
pub struct StrlGenerator<'a> {
    config: &'a TetriSchedConfig,
    cluster: &'a Cluster,
}

impl<'a> StrlGenerator<'a> {
    /// Creates a generator over a cluster.
    pub fn new(config: &'a TetriSchedConfig, cluster: &'a Cluster) -> Self {
        StrlGenerator { config, cluster }
    }

    /// The placement options for a job — the plugin dispatch of Fig. 2.
    ///
    /// `rack_avail` ranks racks for MPI option culling (higher is better);
    /// pass the expected availability of each rack's node set.
    pub fn options(
        &self,
        job_type: JobType,
        k: u32,
        rack_avail: &dyn Fn(&NodeSet) -> usize,
    ) -> Vec<PlacementOption> {
        let whole = self.cluster.all_nodes();
        if !self.config.heterogeneity {
            // TetriSched-NH: a single conservative option over the whole
            // cluster, estimated with the slowdown applied.
            return vec![PlacementOption {
                key: OptionKey::Fallback,
                set: whole,
                preferred: false,
            }];
        }
        match job_type {
            JobType::Unconstrained => vec![PlacementOption {
                key: OptionKey::Whole,
                set: whole,
                preferred: true,
            }],
            JobType::Gpu => {
                let gpus = self.cluster.nodes_with_attr(&Attr::gpu());
                let mut opts = Vec::new();
                if gpus.len() >= k as usize {
                    opts.push(PlacementOption {
                        key: OptionKey::Gpu,
                        set: gpus,
                        preferred: true,
                    });
                }
                opts.push(PlacementOption {
                    key: OptionKey::Fallback,
                    set: whole,
                    preferred: false,
                });
                opts
            }
            // Availability jobs build `min` subtrees in `job_expr`; their
            // simple-option list is just the fallback.
            JobType::Availability => vec![PlacementOption {
                key: OptionKey::Fallback,
                set: whole,
                preferred: false,
            }],
            JobType::Mpi => {
                let mut racks: Vec<(usize, u32)> = (0..self.cluster.num_racks() as u32)
                    .filter_map(|r| {
                        let set = self.cluster.rack_nodes(tetrisched_cluster::RackId(r));
                        if set.len() >= k as usize {
                            Some((rack_avail(set), r))
                        } else {
                            None
                        }
                    })
                    .collect();
                // Highest availability first; rack id breaks ties.
                racks.sort_by_key(|&(avail, r)| (std::cmp::Reverse(avail), r));
                racks.truncate(MAX_RACK_OPTIONS);
                let mut opts: Vec<PlacementOption> = racks
                    .into_iter()
                    .map(|(_, r)| PlacementOption {
                        key: OptionKey::Rack(r),
                        set: self
                            .cluster
                            .rack_nodes(tetrisched_cluster::RackId(r))
                            .clone(),
                        preferred: true,
                    })
                    .collect();
                opts.push(PlacementOption {
                    key: OptionKey::Fallback,
                    set: whole,
                    preferred: false,
                });
                opts
            }
        }
    }

    /// Expands a pending job into its STRL request: a `max` over placement
    /// options × start times in the plan-ahead window.
    pub fn job_expr(
        &self,
        job: &PendingJob,
        now: Time,
        rack_avail: &dyn Fn(&NodeSet) -> usize,
    ) -> JobRequest {
        let spec = &job.spec;
        let value_fn = ValueFn::internal(
            job.class,
            spec.submit,
            spec.deadline.unwrap_or(Time::MAX),
            BE_VALUE_HORIZON,
        );
        let options = self.options(spec.job_type, spec.k, rack_avail);
        // The anti-affine legs of an availability job (chosen once; their
        // per-start replicas reuse the same racks).
        let spread_legs = self.availability_legs(spec.job_type, spec.k, rack_avail);
        let mut children = Vec::new();
        let mut tags = Vec::new();
        let quantum = self.config.cycle_period.max(1);
        for &offset in &self.config.start_offsets() {
            let start = now + offset;
            // The value of a replica completing at `completion`, with the
            // prefer-earlier-completion tie-break: flat SLO value functions
            // would otherwise leave the solver indifferent between
            // completing now and completing just-in-time, and between fast
            // preferred and slow fallback placements.
            let value_at = |dur: u64| -> Option<f64> {
                let completion = start + dur;
                let mut value = value_fn.at(completion);
                if spec.deadline.is_none() {
                    // Best-effort jobs keep a value floor so fully decayed
                    // jobs still get scheduled eventually.
                    value = value.max(BE_VALUE_FLOOR);
                } else if value <= 0.0 {
                    return None; // Deadline cull (Sec. 3.2.1).
                }
                let quanta = ((completion - now) / quantum) as f64;
                // Fair-share tenancy weight (service mode). Exactly 1.0
                // outside service mode, so the objective is unchanged:
                // `x * 1.0 == x` in IEEE arithmetic.
                Some(job.weight * value * (1.0 - self.config.defer_tiebreak * quanta).max(0.1))
            };
            // The `min`-encoded anti-affine option, when applicable.
            if let Some(legs) = &spread_legs {
                let dur = spec.estimated_runtime_for(true);
                if let Some(value) = value_at(dur) {
                    let leg_exprs: Vec<StrlExpr> = legs
                        .iter()
                        .map(|set| StrlExpr::nck(set.clone(), 1, start, dur, value))
                        .collect();
                    for _ in legs {
                        tags.push(LeafTag {
                            job: spec.id,
                            key: OptionKey::Spread,
                            start,
                            dur,
                            preferred: true,
                        });
                    }
                    children.push(StrlExpr::Min(leg_exprs));
                }
            }
            for opt in &options {
                let dur = spec.estimated_runtime_for(opt.preferred);
                let Some(value) = value_at(dur) else { continue };
                children.push(StrlExpr::nck(opt.set.clone(), spec.k, start, dur, value));
                tags.push(LeafTag {
                    job: spec.id,
                    key: opt.key,
                    start,
                    dur,
                    preferred: opt.preferred,
                });
            }
        }
        // Last-chance replica: when every deadline-valued replica was
        // culled (the estimate says the deadline is unreachable) but an
        // over-estimated runtime could still explain success, run the job
        // at a low value so it consumes only otherwise-spare capacity
        // rather than being dropped on the estimate's word alone.
        if children.is_empty() {
            if let Some(deadline) = spec.deadline {
                let opt = options
                    .iter()
                    .find(|o| o.preferred)
                    .or_else(|| options.first());
                if let Some(opt) = opt {
                    let dur = spec.estimated_runtime_for(opt.preferred);
                    if now + dur.div_ceil(2) <= deadline {
                        let value = job.weight * (BE_VALUE_FLOOR * 2.0).max(0.02);
                        children.push(StrlExpr::nck(opt.set.clone(), spec.k, now, dur, value));
                        tags.push(LeafTag {
                            job: spec.id,
                            key: opt.key,
                            start: now,
                            dur,
                            preferred: opt.preferred,
                        });
                    }
                }
            }
        }
        JobRequest {
            job: spec.id,
            expr: StrlExpr::Max(children),
            tags,
        }
    }

    /// For availability jobs with heterogeneity awareness enabled: the `k`
    /// highest-availability racks, one leg each. `None` for other types,
    /// under `NH`, or when fewer than `k` racks exist.
    fn availability_legs(
        &self,
        job_type: JobType,
        k: u32,
        rack_avail: &dyn Fn(&NodeSet) -> usize,
    ) -> Option<Vec<NodeSet>> {
        if job_type != JobType::Availability || !self.config.heterogeneity {
            return None;
        }
        if (self.cluster.num_racks() as u32) < k {
            return None;
        }
        let mut racks: Vec<(usize, u32)> = (0..self.cluster.num_racks() as u32)
            .map(|r| {
                (
                    rack_avail(self.cluster.rack_nodes(tetrisched_cluster::RackId(r))),
                    r,
                )
            })
            .collect();
        racks.sort_by_key(|&(avail, r)| (std::cmp::Reverse(avail), r));
        Some(
            racks
                .into_iter()
                .take(k as usize)
                .map(|(_, r)| {
                    self.cluster
                        .rack_nodes(tetrisched_cluster::RackId(r))
                        .clone()
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tetrisched_sim::JobSpec;
    use tetrisched_strl::JobClass;

    fn config(plan_ahead: u64) -> TetriSchedConfig {
        TetriSchedConfig {
            plan_ahead,
            cycle_period: 4,
            max_start_options: 4,
            ..TetriSchedConfig::default()
        }
    }

    fn pending(job_type: JobType, k: u32, deadline: Option<Time>, class: JobClass) -> PendingJob {
        PendingJob {
            spec: JobSpec {
                id: JobId(7),
                submit: 0,
                job_type,
                k,
                base_runtime: 20,
                slowdown: 1.5,
                deadline,
                estimate_error: 0.0,
            },
            class,
            reservation: None,
            preemptions: 0,
            weight: 1.0,
        }
    }

    #[test]
    fn unconstrained_has_single_option() {
        let cfg = config(12);
        let cluster = Cluster::uniform(2, 4, 1);
        let gen = StrlGenerator::new(&cfg, &cluster);
        let opts = gen.options(JobType::Unconstrained, 2, &|s| s.len());
        assert_eq!(opts.len(), 1);
        assert!(opts[0].preferred);
        assert_eq!(opts[0].set.len(), 8);
    }

    #[test]
    fn gpu_job_gets_gpu_and_fallback() {
        let cfg = config(12);
        let cluster = Cluster::uniform(2, 4, 1);
        let gen = StrlGenerator::new(&cfg, &cluster);
        let opts = gen.options(JobType::Gpu, 2, &|s| s.len());
        assert_eq!(opts.len(), 2);
        assert_eq!(opts[0].key, OptionKey::Gpu);
        assert_eq!(opts[0].set.len(), 4);
        assert_eq!(opts[1].key, OptionKey::Fallback);
    }

    #[test]
    fn gpu_option_dropped_when_too_few_gpus() {
        let cfg = config(12);
        let cluster = Cluster::uniform(2, 4, 1); // 4 GPU nodes
        let gen = StrlGenerator::new(&cfg, &cluster);
        let opts = gen.options(JobType::Gpu, 6, &|s| s.len());
        assert_eq!(opts.len(), 1);
        assert_eq!(opts[0].key, OptionKey::Fallback);
    }

    #[test]
    fn mpi_rack_options_ranked_and_capped() {
        let cfg = config(12);
        let cluster = Cluster::uniform(MAX_RACK_OPTIONS + 2, 4, 0);
        let gen = StrlGenerator::new(&cfg, &cluster);
        // Rank rack 2 highest, then rack 0; the rest tie.
        let avail = |s: &NodeSet| {
            if s.contains(tetrisched_cluster::NodeId(8)) {
                4
            } else if s.contains(tetrisched_cluster::NodeId(0)) {
                3
            } else {
                1
            }
        };
        let opts = gen.options(JobType::Mpi, 2, &avail);
        // The cap's worth of racks (ties by rack id) + fallback.
        let keys: Vec<OptionKey> = opts.iter().map(|o| o.key).collect();
        let racks = [2, 0, 1, 3].map(OptionKey::Rack);
        assert_eq!(keys, [&racks[..], &[OptionKey::Fallback]].concat());
    }

    #[test]
    fn mpi_skips_undersized_racks() {
        let cfg = config(12);
        let cluster = Cluster::uniform(2, 2, 0);
        let gen = StrlGenerator::new(&cfg, &cluster);
        let opts = gen.options(JobType::Mpi, 3, &|s| s.len());
        // No rack holds 3 nodes: only the fallback remains.
        assert_eq!(opts.len(), 1);
        assert_eq!(opts[0].key, OptionKey::Fallback);
    }

    #[test]
    fn nh_collapses_to_conservative_fallback() {
        let mut cfg = config(12);
        cfg.heterogeneity = false;
        let cluster = Cluster::uniform(2, 4, 1);
        let gen = StrlGenerator::new(&cfg, &cluster);
        for jt in [JobType::Unconstrained, JobType::Gpu, JobType::Mpi] {
            let opts = gen.options(jt, 2, &|s| s.len());
            assert_eq!(opts.len(), 1);
            assert_eq!(opts[0].key, OptionKey::Fallback);
            assert!(!opts[0].preferred);
        }
    }

    #[test]
    fn availability_job_builds_min_legs() {
        let cfg = config(8); // starts 0, 4, 8
        let cluster = Cluster::uniform(4, 2, 0);
        let gen = StrlGenerator::new(&cfg, &cluster);
        let job = pending(JobType::Availability, 3, Some(1000), JobClass::SloAccepted);
        let req = gen.job_expr(&job, 0, &|s| s.len());
        // Each start yields a Min over 3 rack legs plus the fallback leaf:
        // 3 starts x (3 + 1) = 12 leaves / tags.
        assert_eq!(req.tags.len(), 12);
        assert_eq!(req.expr.leaf_count(), 12);
        let StrlExpr::Max(children) = &req.expr else {
            panic!("max expected")
        };
        // Children alternate Min(spread) then fallback per start.
        assert!(matches!(&children[0], StrlExpr::Min(legs) if legs.len() == 3));
        assert!(matches!(&children[1], StrlExpr::NCk { .. }));
        // Spread tags are preferred; fallback tags are not.
        assert!(req.tags[0].preferred && req.tags[0].key == OptionKey::Spread);
        assert!(!req.tags[3].preferred && req.tags[3].key == OptionKey::Fallback);
    }

    #[test]
    fn availability_without_enough_racks_falls_back_only() {
        let cfg = config(8);
        let cluster = Cluster::uniform(2, 4, 0);
        let gen = StrlGenerator::new(&cfg, &cluster);
        let job = pending(JobType::Availability, 3, Some(1000), JobClass::SloAccepted);
        let req = gen.job_expr(&job, 0, &|s| s.len());
        assert!(req.tags.iter().all(|t| t.key == OptionKey::Fallback));
    }

    #[test]
    fn job_expr_replicates_over_starts() {
        let cfg = config(12); // offsets 0,4,8,12
        let cluster = Cluster::uniform(2, 4, 1);
        let gen = StrlGenerator::new(&cfg, &cluster);
        let job = pending(JobType::Gpu, 2, Some(1000), JobClass::SloAccepted);
        let req = gen.job_expr(&job, 100, &|s| s.len());
        // 4 starts x 2 options.
        assert_eq!(req.tags.len(), 8);
        assert_eq!(req.expr.leaf_count(), 8);
        assert_eq!(req.tags[0].start, 100);
        assert_eq!(req.tags.last().unwrap().start, 112);
        // Preferred option estimates 20s, fallback 30s.
        assert_eq!(req.tags[0].dur, 20);
        assert_eq!(req.tags[1].dur, 30);
    }

    #[test]
    fn deadline_culls_late_replicas() {
        let cfg = config(12);
        let cluster = Cluster::uniform(2, 4, 1);
        let gen = StrlGenerator::new(&cfg, &cluster);
        // Deadline at 126: start 100 fast (done 120) fits; start 100 slow
        // (130) does not; start 104 fast (124) fits; start 108 fast =
        // 128 does not.
        let job = pending(JobType::Gpu, 2, Some(126), JobClass::SloAccepted);
        let req = gen.job_expr(&job, 100, &|s| s.len());
        let starts: Vec<(Time, bool)> = req.tags.iter().map(|t| (t.start, t.preferred)).collect();
        assert_eq!(starts, vec![(100, true), (104, true)]);
    }

    #[test]
    fn hopeless_slo_job_yields_empty_request() {
        // Deadline 105 at now=100: even a 2x over-estimate (10 s true
        // runtime) cannot fit, so no replica at all.
        let cfg = config(12);
        let cluster = Cluster::uniform(2, 4, 1);
        let gen = StrlGenerator::new(&cfg, &cluster);
        let job = pending(JobType::Gpu, 2, Some(105), JobClass::SloAccepted);
        let req = gen.job_expr(&job, 100, &|s| s.len());
        assert!(!req.is_schedulable());
    }

    #[test]
    fn estimate_infeasible_job_gets_last_chance_replica() {
        // Deadline 112 at now=100 with estimate 20: the estimate says the
        // deadline is unreachable, but if the estimate is 2x inflated the
        // true 10 s runtime fits. A single low-value start-now replica on
        // the preferred placement survives.
        let cfg = config(12);
        let cluster = Cluster::uniform(2, 4, 1);
        let gen = StrlGenerator::new(&cfg, &cluster);
        let job = pending(JobType::Gpu, 2, Some(112), JobClass::SloAccepted);
        let req = gen.job_expr(&job, 100, &|s| s.len());
        assert_eq!(req.tags.len(), 1);
        let tag = &req.tags[0];
        assert_eq!(tag.start, 100);
        assert!(tag.preferred);
        // Its value is far below a live SLO replica's.
        assert!(req.expr.value_upper_bound() < 1.0);
    }

    #[test]
    fn best_effort_value_decays_but_never_zeroes() {
        let cfg = config(12);
        let cluster = Cluster::uniform(2, 4, 1);
        let gen = StrlGenerator::new(&cfg, &cluster);
        let job = pending(JobType::Unconstrained, 2, None, JobClass::BestEffort);
        // Far past the decay horizon.
        let req = gen.job_expr(&job, 10_000, &|s| s.len());
        assert!(req.is_schedulable());
        let values: Vec<f64> = req
            .expr
            .children()
            .iter()
            .map(|l| match l {
                StrlExpr::NCk { value, .. } => *value,
                _ => panic!("leaf expected"),
            })
            .collect();
        for v in values {
            assert!(v > 0.0 && v <= BE_VALUE_FLOOR);
        }
    }

    #[test]
    fn earlier_start_worth_slightly_more() {
        let cfg = config(12);
        let cluster = Cluster::uniform(2, 4, 1);
        let gen = StrlGenerator::new(&cfg, &cluster);
        let job = pending(
            JobType::Unconstrained,
            2,
            Some(10_000),
            JobClass::SloAccepted,
        );
        let req = gen.job_expr(&job, 0, &|s| s.len());
        let values: Vec<f64> = req
            .expr
            .children()
            .iter()
            .map(|l| match l {
                StrlExpr::NCk { value, .. } => *value,
                _ => panic!("leaf expected"),
            })
            .collect();
        for w in values.windows(2) {
            assert!(w[0] > w[1], "deferral must cost value: {w:?}");
        }
    }
}
