//! The model is the expression, checked from outside.
//!
//! `validate_translation` re-evaluates only the placement the solver chose,
//! and certificates show an answer is consistent with *the model*; nothing
//! else asks whether the model says what the expression says. Here small
//! seeded instances — up to four jobs of the GS HET shapes (GPU, MPI, plain,
//! rack anti-affine `min` legs, an elastic `LnCk`) with up to three options
//! and three starts each, on 12 or 16 nodes whose availability is not
//! monotone (gangs ending mid-window, claims that begin and end inside it,
//! an announced maintenance window on the GPU rack) — are solved twice:
//!
//! - by enumeration straight from the `StrlExpr`: every way to satisfy each
//!   job, every split of each leaf over its partition classes, supply
//!   counted per (class, slice) against the availability function;
//! - by `compile` + `ExactBackend` at gap 0.
//!
//! The best total value must agree, and the root dive on its own
//! (`HeuristicBackend`) must end on a plan worth most of it. A second test
//! rebuilds Algorithm 1's unreduced formulation from the compiled leaves —
//! one supply row per (class, slice), the bound `min(|class|, k)` — and holds
//! the emitted model to it row by row and bound by bound: every reference row
//! is implied by an emitted one (its users and more, right-hand side no
//! larger), every emitted row is one of the reference rows, and a tighter
//! bound or a leaf without variables is one the reference rows force. (That
//! the reduced model has no duplicate rows left on the larger corpus is
//! `model_build_golden`'s `corpus_has_no_duplicate_rows`, where that corpus
//! lives.)

use std::ops::Range;

use tetrisched::cluster::{
    AllocHandle, Availability, Claims, Ledger, NodeId, NodeSet, PartitionSet, Time,
};
use tetrisched::core::{compile, CompileInput, CompiledModel};
use tetrisched::milp::{
    ExactBackend, HeuristicBackend, MilpBackend, Sense, SolveStatus, SolverConfig, VarId,
};
use tetrisched::strl::StrlExpr;

const INSTANCES: u64 = 48;
const NOW: Time = 100;
const QUANTUM: u64 = 4;
const N_SLICES: usize = 8;
const RACK: u32 = 4;

/// SplitMix64, for what an instance draws.
struct SplitMix64(u64);

impl SplitMix64 {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) % n
    }

    fn pick<T: Copy>(&mut self, of: &[T]) -> T {
        of[self.below(of.len() as u64) as usize]
    }
}

/// What an instance's availability is made of; `avail` is what the greedy
/// pipeline hands `compile` (snapshot minus claims, saturating).
struct Supply {
    view: Availability,
    claims: Claims,
}

impl Supply {
    fn avail(&self, set: &NodeSet, t: Time) -> usize {
        self.view
            .avail_at(set, t)
            .saturating_sub(self.claims.held_at(t).and_len(set))
    }
}

struct Instance {
    nodes: usize,
    expr: StrlExpr,
    supply: Supply,
    has_lnck: bool,
}

fn rack(nodes: usize, r: u32) -> NodeSet {
    NodeSet::from_ids(nodes, (r * RACK..(r + 1) * RACK).map(NodeId))
}

/// Rack 0 is the GPU rack. One of its nodes is announced out for
/// `[NOW + 8, NOW + 20)`, two gangs end at times that are no slice boundary,
/// and two claims begin and end inside the window: the free count of a class
/// goes down and up again.
fn instance(seed: u64) -> Instance {
    let mut rng = SplitMix64(seed ^ 0x0C0F_FEE0_0AC1_E000);
    let racks = 3 + (seed % 2) as u32;
    let nodes = (racks * RACK) as usize;
    let (gpu, all) = (rack(nodes, 0), NodeSet::full(nodes));

    let mut ledger = Ledger::new(nodes);
    ledger
        .health_mut()
        .announce(NodeId(rng.below(4) as u32), NOW + 8, NOW + 20);
    // Gangs hold the last two nodes of racks 1 and 2 until mid-window.
    for (g, r) in [1u32, 2].into_iter().enumerate() {
        let held = NodeSet::from_ids(nodes, [NodeId(r * RACK + 2), NodeId(r * RACK + 3)]);
        let end = NOW + 3 + rng.below(18);
        ledger
            .allocate(AllocHandle(g as u64), held, end)
            .expect("gangs are disjoint and their handles fresh");
    }
    // Claims take the first node of rack 1 and of the last rack for a while.
    let mut claims = Claims::new(nodes);
    for r in [1, racks - 1] {
        let start = NOW + 4 * (1 + rng.below(3));
        let held = NodeSet::from_ids(nodes, [NodeId(r * RACK)]);
        claims.claim(&held, start, start + 4 * (1 + rng.below(3)));
    }

    let starts = [NOW, NOW + 4, NOW + 12];
    let mut has_lnck = false;
    let mut jobs = Vec::new();
    // Dead by construction: the whole GPU rack while one of it is out.
    jobs.push(StrlExpr::max([
        StrlExpr::nck(gpu.clone(), RACK, NOW + 8, 8, 100.0),
        StrlExpr::nck(all.clone(), 2, NOW + 4, 6, 3.0),
    ]));
    for _ in 0..1 + rng.below(3) {
        let n_starts = 1 + rng.below(3) as usize;
        let k = 1 + rng.below(3) as u32;
        let dur = rng.pick(&[6, 8, 10, 24]);
        let value = (4 + rng.below(8)) as f64;
        let mut options = Vec::new();
        for (i, &start) in starts.iter().take(n_starts).enumerate() {
            // A deferred start is worth a little less.
            let v = value - 0.25 * i as f64;
            match rng.below(5) {
                // GPU: fast on the GPU rack, slow anywhere.
                0 => {
                    options.push(StrlExpr::nck(gpu.clone(), k, start, dur, v + 2.0));
                    options.push(StrlExpr::nck(all.clone(), k, start, 2 * dur, v));
                }
                // MPI: fast inside one rack, slow anywhere.
                1 => {
                    for r in [1, 2] {
                        options.push(StrlExpr::nck(rack(nodes, r), k, start, dur, v + 1.0));
                    }
                    options.push(StrlExpr::nck(all.clone(), k, start, 2 * dur, v));
                }
                // Unconstrained.
                2 => options.push(StrlExpr::nck(all.clone(), k, start, dur, v)),
                // Availability: one node on each of two racks.
                3 => {
                    let other = 1 + rng.below(u64::from(racks) - 1) as u32;
                    options.push(StrlExpr::min([
                        StrlExpr::nck(rack(nodes, 0), 1, start, dur, v),
                        StrlExpr::nck(rack(nodes, other), 1, start, dur, v),
                    ]));
                }
                // Elastic: half a point per node, up to 2k of them.
                _ => {
                    has_lnck = true;
                    options.push(StrlExpr::lnck(all.clone(), 2 * k, start, dur, k as f64));
                }
            }
        }
        jobs.push(StrlExpr::max(options));
    }
    Instance {
        nodes,
        expr: StrlExpr::sum(jobs),
        supply: Supply {
            view: ledger.availability(&[]),
            claims,
        },
        has_lnck,
    }
}

fn partitions_of(inst: &Instance) -> PartitionSet {
    let mut leaf_sets = Vec::new();
    inst.expr.visit(&mut |e| {
        if let StrlExpr::NCk { set, .. } | StrlExpr::LnCk { set, .. } = e {
            leaf_sets.push(set.clone());
        }
    });
    PartitionSet::refine(inst.nodes, &leaf_sets)
}

fn compiled(inst: &Instance, partitions: &PartitionSet) -> CompiledModel {
    let input = CompileInput {
        expr: &inst.expr,
        partitions,
        now: NOW,
        quantum: QUANTUM,
        n_slices: N_SLICES,
    };
    compile(&input, &|set, t| inst.supply.avail(set, t)).expect("instances compile")
}

/// The slices `[start, start + dur)` touches, clipped to the window.
fn slices(start: Time, dur: u64) -> Range<usize> {
    let rel = start - NOW;
    (rel / QUANTUM) as usize..((rel + dur).div_ceil(QUANTUM) as usize).min(N_SLICES)
}

/// Expected free nodes per (class, slice), from the availability function.
fn free_table(inst: &Instance, partitions: &PartitionSet) -> Vec<Vec<usize>> {
    (0..partitions.len())
        .map(|c| {
            (0..N_SLICES)
                .map(|s| {
                    inst.supply
                        .avail(partitions.class(c), NOW + s as u64 * QUANTUM)
                })
                .collect()
        })
        .collect()
}

/// `count` nodes from any of `classes`, held over `slices`.
#[derive(Clone)]
struct Need {
    classes: Vec<usize>,
    count: u32,
    slices: Range<usize>,
}

/// One way to satisfy an expression: what it is worth and what it holds.
#[derive(Clone)]
struct Alt {
    value: f64,
    needs: Vec<Need>,
}

/// Every combination of one alternative per child, folded by `value`.
fn product(children: &[Vec<Alt>], value: impl Fn(&[f64]) -> f64) -> Vec<Alt> {
    let mut out = vec![(Vec::new(), Vec::new())];
    for alts in children {
        out = out
            .iter()
            .flat_map(|(values, needs): &(Vec<f64>, Vec<Need>)| {
                alts.iter().map(move |a| {
                    let (mut values, mut needs) = (values.clone(), needs.clone());
                    values.push(a.value);
                    needs.extend(a.needs.iter().cloned());
                    (values, needs)
                })
            })
            .collect();
    }
    out.into_iter()
        .map(|(values, needs)| Alt {
            value: value(&values),
            needs,
        })
        .collect()
}

/// The ways to satisfy `expr`, by the semantics of Sec. 4.1: an `nCk` leaf is
/// worth its value with `k` nodes and nothing with fewer, an `LnCk` leaf
/// `value * g / k` with `g <= k`, `max` picks one child, `min` and `sum`
/// take all of theirs.
fn alternatives(expr: &StrlExpr, partitions: &PartitionSet) -> Vec<Alt> {
    let need = |set: &NodeSet, count: u32, start: Time, dur: u64| Need {
        classes: partitions.cover(set).expect("sets are unions of classes"),
        count,
        slices: slices(start, dur),
    };
    let nothing = Alt {
        value: 0.0,
        needs: Vec::new(),
    };
    let children = |c: &[StrlExpr]| -> Vec<Vec<Alt>> {
        c.iter().map(|e| alternatives(e, partitions)).collect()
    };
    match expr {
        StrlExpr::NCk {
            set,
            k,
            start,
            dur,
            value,
        } => vec![
            nothing,
            Alt {
                value: *value,
                needs: vec![need(set, *k, *start, *dur)],
            },
        ],
        StrlExpr::LnCk {
            set,
            k,
            start,
            dur,
            value,
        } => std::iter::once(nothing)
            .chain((1..=*k).map(|g| Alt {
                value: value * f64::from(g) / f64::from(*k),
                needs: vec![need(set, g, *start, *dur)],
            }))
            .collect(),
        // A child that holds nodes for nothing is never the one to pick.
        StrlExpr::Max(c) => std::iter::once(nothing)
            .chain(children(c).into_iter().flatten().filter(|a| a.value > 0.0))
            .collect(),
        StrlExpr::Min(c) => product(&children(c), |v| {
            v.iter().copied().fold(f64::INFINITY, f64::min)
        }),
        StrlExpr::Sum(c) => product(&children(c), |v| v.iter().sum()),
        StrlExpr::Scale { factor, child } => alternatives(child, partitions)
            .into_iter()
            .map(|a| Alt {
                value: factor * a.value,
                ..a
            })
            .collect(),
        StrlExpr::Barrier { value, child } => alternatives(child, partitions)
            .into_iter()
            .map(|a| Alt {
                value: if a.value >= value - 1e-9 { *value } else { 0.0 },
                ..a
            })
            .collect(),
    }
}

/// Exhaustive search over one alternative per job and one split of every
/// need over its classes, against the free table.
struct Search<'a> {
    jobs: &'a [Vec<Alt>],
    /// Most the jobs from `j` on can be worth.
    rest: Vec<f64>,
    free: Vec<Vec<usize>>,
    best: f64,
}

impl Search<'_> {
    fn job(&mut self, j: usize, so_far: f64) {
        if so_far + self.rest[j] <= self.best {
            return;
        }
        let Some(alts) = self.jobs.get(j) else {
            self.best = so_far;
            return;
        };
        for alt in alts {
            self.place(j, &alt.needs, so_far + alt.value);
        }
    }

    /// Splits the first need over its classes every way the table allows.
    fn place(&mut self, j: usize, needs: &[Need], total: f64) {
        let Some((need, later)) = needs.split_first() else {
            return self.job(j + 1, total);
        };
        let Some((&class, other_classes)) = need.classes.split_first() else {
            if need.count == 0 {
                self.place(j, later, total);
            }
            return;
        };
        let room = need.slices.clone().map(|s| self.free[class][s]).min();
        let most = room.map_or(need.count, |r| need.count.min(r as u32));
        for take in 0..=most {
            for s in need.slices.clone() {
                self.free[class][s] -= take as usize;
            }
            let remainder = Need {
                classes: other_classes.to_vec(),
                count: need.count - take,
                slices: need.slices.clone(),
            };
            let mut needs = vec![remainder];
            needs.extend(later.iter().cloned());
            self.place(j, &needs, total);
            for s in need.slices.clone() {
                self.free[class][s] += take as usize;
            }
        }
    }
}

/// The best total value of a `sum` of jobs, by enumeration.
fn oracle(inst: &Instance, partitions: &PartitionSet) -> f64 {
    let StrlExpr::Sum(jobs) = &inst.expr else {
        panic!("an instance is a sum of jobs");
    };
    let jobs: Vec<Vec<Alt>> = jobs.iter().map(|j| alternatives(j, partitions)).collect();
    let mut rest = vec![0.0; jobs.len() + 1];
    for (j, alts) in jobs.iter().enumerate().rev() {
        rest[j] = rest[j + 1] + alts.iter().map(|a| a.value).fold(0.0, f64::max);
    }
    let mut search = Search {
        jobs: &jobs,
        rest,
        free: free_table(inst, partitions),
        best: -1.0,
    };
    search.job(0, 0.0);
    search.best
}

#[test]
fn compiled_optimum_is_the_enumerated_optimum() {
    let backend = ExactBackend::new(SolverConfig::exact().with_rel_gap(0.0));
    let dive = HeuristicBackend::new(SolverConfig::exact());
    let (mut dived, mut optimal) = (0.0, 0.0);
    let (mut dead, mut elastic, mut placed) = (0, 0, 0);
    for seed in 0..INSTANCES {
        let inst = instance(seed);
        let partitions = partitions_of(&inst);
        let model = compiled(&inst, &partitions);
        let sol = backend
            .solve(&model.model, None)
            .expect("compiled models are well formed");
        assert_eq!(sol.status, SolveStatus::Optimal, "seed {seed}");
        let best = oracle(&inst, &partitions);
        assert!(
            (sol.objective - best).abs() < 1e-6,
            "seed {seed}: the model's optimum is {}, the expression's {best}\n{:?}",
            sol.objective,
            inst.expr
        );

        // The root dive alone (the backend has no other incumbent) ends on a
        // plan, never on a better one than the optimum.
        let plan = dive
            .solve(&model.model, None)
            .expect("compiled models are well formed");
        assert!(
            plan.status.has_solution(),
            "seed {seed}: the dive dead-ended"
        );
        assert!(plan.objective <= best + 1e-6, "seed {seed}");
        dived += plan.objective;
        optimal += best;

        // The decoded plan is worth what the solver says, in STRL terms, and
        // fits the free table in every slice.
        let granted = model.granted(&sol);
        let decoded = inst.expr.placement_value(&granted);
        assert!(
            (decoded - best).abs() < 1e-6,
            "seed {seed}: decoded {decoded}"
        );
        let mut free = free_table(&inst, &partitions);
        for c in model.chosen(&sol) {
            let leaf = &model.leaves[c.leaf];
            for &(class, count) in &c.counts {
                for s in slices(leaf.start, leaf.dur) {
                    free[class][s] =
                        free[class][s]
                            .checked_sub(count as usize)
                            .unwrap_or_else(|| {
                                panic!("seed {seed}: class {class} slice {s} overdrawn")
                            });
                }
            }
            placed += 1;
        }
        assert!(model.leaves_dead >= 1, "seed {seed}: no dead leaf");
        dead += model.leaves_dead;
        elastic += usize::from(inst.has_lnck);
    }
    assert!(dead >= INSTANCES as usize && elastic >= 5 && placed >= 2 * INSTANCES as usize);
    // The dives read 0.9930 of the optima summed (0.9763 for the
    // most-fractional / nearest dive they replaced); the floor is 0.03 less.
    assert!(
        dived >= 0.963 * optimal,
        "the dives are worth {dived} of {optimal}"
    );
}

/// A supply row: `(class, terms, right-hand side)` of `terms <= rhs`.
type SupplyRow = (usize, Vec<(VarId, f64)>, f64);

/// Aggregated coefficient of `var` in canonical `terms`.
fn coeff(terms: &[(VarId, f64)], var: VarId) -> f64 {
    terms
        .iter()
        .filter(|&&(v, _)| v == var)
        .map(|&(_, c)| c)
        .sum()
}

#[test]
fn emitted_rows_and_bounds_are_algorithm_ones_reduced() {
    let mut dropped = 0;
    for seed in 0..INSTANCES {
        let inst = instance(seed);
        let partitions = partitions_of(&inst);
        let model = compiled(&inst, &partitions);
        let free = free_table(&inst, &partitions);
        let vars = model.model.vars();

        // Algorithm 1's supply rows: per (class, slice), every leaf holding
        // nodes of the class in that slice, at most what is free.
        let mut reference: Vec<SupplyRow> = Vec::new();
        for (class, free_of_class) in free.iter().enumerate() {
            for (slice, &free_here) in free_of_class.iter().enumerate() {
                let mut terms: Vec<(VarId, f64)> = Vec::new();
                for leaf in &model.leaves {
                    if !slices(leaf.start, leaf.dur).contains(&slice) {
                        continue;
                    }
                    for &(c, var, per) in &leaf.draws {
                        if c == class {
                            terms.push((var, f64::from(per)));
                        }
                    }
                }
                if !terms.is_empty() {
                    reference.push((class, terms, free_here as f64));
                }
            }
        }
        let emitted: Vec<SupplyRow> = model
            .model
            .constraints()
            .iter()
            .filter_map(|row| {
                let name = row.name.to_string();
                let class = name.strip_prefix("supply_c")?.split("_s").next()?;
                assert_eq!(row.sense, Sense::Le);
                Some((class.parse().ok()?, row.terms.clone(), row.rhs))
            })
            .collect();
        assert_eq!(
            reference.len() - emitted.len(),
            model.supply_rows_dropped,
            "seed {seed}"
        );
        dropped += model.supply_rows_dropped;
        for (class, terms, rhs) in &reference {
            let implied = emitted.iter().any(|(c, sup, sup_rhs)| {
                c == class
                    && sup_rhs <= rhs
                    && terms.iter().all(|&(v, _)| coeff(sup, v) >= coeff(terms, v))
            });
            assert!(
                implied,
                "seed {seed}: no emitted row implies class {class}: {terms:?} <= {rhs}"
            );
        }
        for (class, terms, rhs) in &emitted {
            let is_reference = reference.iter().any(|(c, of, of_rhs)| {
                c == class
                    && of_rhs == rhs
                    && of.iter().all(|&(v, _)| coeff(of, v) == coeff(terms, v))
                    && terms.iter().all(|&(v, _)| coeff(of, v) == coeff(terms, v))
            });
            assert!(
                is_reference,
                "seed {seed}: emitted row of class {class} is not one of Algorithm 1's: \
                 {terms:?} <= {rhs}"
            );
        }

        // Bounds and dead leaves: what the reference rows leave each class to
        // give a leaf, no tighter and no looser.
        let mut dead = 0;
        let mut leaf_ix = 0;
        inst.expr.visit(&mut |e| {
            let (StrlExpr::NCk { set, k, .. } | StrlExpr::LnCk { set, k, .. }) = e else {
                return;
            };
            let leaf = &model.leaves[leaf_ix];
            leaf_ix += 1;
            let caps: Vec<(usize, usize)> = partitions
                .cover(set)
                .expect("sets are unions of classes")
                .into_iter()
                .map(|c| {
                    let least = slices(leaf.start, leaf.dur).map(|s| free[c][s]).min();
                    let cap = partitions.class(c).len().min(*k as usize);
                    (c, cap.min(least.unwrap_or(usize::MAX)))
                })
                .filter(|&(_, cap)| cap > 0)
                .collect();
            let reachable: usize = caps.iter().map(|&(_, cap)| cap).sum();
            if !leaf.linear && reachable < *k as usize {
                dead += 1;
                assert!(leaf.draws.is_empty(), "seed {seed}: a dead leaf draws");
                assert_eq!(vars[leaf.indicator.index()].ub, 0.0, "seed {seed}");
                return;
            }
            let classes: Vec<usize> = leaf.draws.iter().map(|d| d.0).collect();
            assert_eq!(
                classes,
                caps.iter().map(|c| c.0).collect::<Vec<_>>(),
                "seed {seed}"
            );
            for (&(_, var, per), &(_, cap)) in leaf.draws.iter().zip(&caps) {
                if var == leaf.indicator {
                    // `P = k * I`: one class, and it can give all k.
                    assert!(!leaf.linear && caps.len() == 1 && cap == *k as usize && per == *k);
                } else {
                    assert_eq!((vars[var.index()].ub, per), (cap as f64, 1), "seed {seed}");
                }
            }
        });
        assert_eq!(dead, model.leaves_dead, "seed {seed}");
    }
    assert!(
        dropped >= 10 * INSTANCES as usize,
        "{dropped} rows dropped in all"
    );
}
