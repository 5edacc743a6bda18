//! STRL → MILP compilation (Algorithm 1 of the paper).
//!
//! The compiler walks a STRL expression tree with a single recursive
//! function `gen(expr, I)` where `I` is the binary *indicator variable*
//! stating whether the solver assigns resources to that subexpression. Three
//! ideas from the paper shape the output:
//!
//! 1. **indicator variables** per subexpression, with `max` constraining the
//!    sum of child indicators to at most its own (`or` semantics) and `sum`
//!    to at most `n` of them,
//! 2. the recursion **returns the objective expression** of the subtree; at
//!    the root it becomes the MILP objective, and inside `min`/`barrier`
//!    nodes it feeds constraints implementing `and`/threshold semantics,
//! 3. **equivalence sets** become integer *partition variables*: a leaf
//!    creates one `P_x` per partition class it draws from, demand
//!    constraints tie `sum(P_x) = k * I`, and per-(class, time-slice)
//!    supply constraints cap total use at expected availability.
//!
//! Time is discretized into `quantum`-sized slices across the plan-ahead
//! window; a leaf occupies every slice its `[start, start+dur)` interval
//! intersects.
//!
//! What is emitted is Algorithm 1's model reduced four ways, each keeping
//! the integer-feasible set and the objective (DESIGN §3.7 has the
//! arguments): a `P_x` is bounded by the least expected availability of its
//! class over the slices its leaf covers, and is not created when that is
//! zero; an `nCk` leaf whose bounds sum below `k` gets no partition
//! variables and its indicator fixed at zero; one left with a single class
//! draws through its indicator (`P_x = k * I`) and needs neither `P_x` nor
//! a demand constraint; and a class gets one supply row per maximal set of
//! users, not one per slice.
//!
//! One job's request needs no model at all: [`evaluate`] reads the same caps
//! and picks the option the solver would.

use std::fmt;
use std::ops::Range;

use tetrisched_cluster::{NodeSet, PartitionSet, Time};
use tetrisched_milp::{LinExpr, Model, Name, Sense, Solution, VarId, VarKind};
use tetrisched_strl::StrlExpr;

/// Compilation failure.
#[derive(Debug, Clone, PartialEq)]
pub enum CompileError {
    /// A leaf's equivalence set is not a union of partition classes; the
    /// partition set must be refined against every leaf set.
    UnalignedSet {
        /// Offending partition class index.
        class: usize,
    },
    /// A leaf starts before `now`.
    StartInPast {
        /// The leaf's start time.
        start: Time,
        /// The compile-time `now`.
        now: Time,
    },
    /// A leaf starts beyond the plan-ahead window.
    StartBeyondWindow {
        /// The leaf's start time.
        start: Time,
    },
    /// [`evaluate`] was given something other than one job's request: a
    /// root `max` over `nCk` leaves and non-empty `min`s of `nCk` legs on
    /// disjoint single classes.
    NotOneJob,
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::UnalignedSet { class } => {
                write!(f, "leaf set not aligned with partition class {class}")
            }
            CompileError::StartInPast { start, now } => {
                write!(f, "leaf start {start} is before now {now}")
            }
            CompileError::StartBeyondWindow { start } => {
                write!(f, "leaf start {start} is beyond the plan-ahead window")
            }
            CompileError::NotOneJob => {
                write!(f, "not one job's request: a max over nCk leaves and mins")
            }
        }
    }
}

impl std::error::Error for CompileError {}

/// Compilation parameters.
#[derive(Debug)]
pub struct CompileInput<'a> {
    /// The (usually aggregated) STRL expression.
    pub expr: &'a StrlExpr,
    /// Partition classes refined against every leaf equivalence set.
    pub partitions: &'a PartitionSet,
    /// Current time; all leaf starts must be `>= now`.
    pub now: Time,
    /// Time-slice width in seconds.
    pub quantum: u64,
    /// Number of slices in the plan-ahead window (>= 1).
    pub n_slices: usize,
}

/// Metadata for one compiled leaf, in depth-first order of the input
/// expression (callers rely on this order to map leaves back to jobs).
#[derive(Debug, Clone)]
pub struct LeafInfo {
    /// Leaf start time (absolute).
    pub start: Time,
    /// Leaf duration.
    pub dur: u64,
    /// Requested resource count.
    pub k: u32,
    /// Whether this is a linear (`LnCk`) leaf.
    pub linear: bool,
    /// The leaf's indicator variable.
    pub indicator: VarId,
    /// Where the leaf's nodes come from: `(class index, var, nodes per unit
    /// of var)`. A partition variable counts nodes one for one; an `nCk`
    /// leaf left with a single class takes all `k` from it exactly when its
    /// indicator is set, so the indicator stands in (`P = k * I`).
    pub draws: Vec<(usize, VarId, u32)>,
    /// Indicator chain from the root (exclusive) to the leaf's parent that
    /// must be set for the leaf to be active (used for warm starts).
    pub ancestors: Vec<VarId>,
}

/// One satisfied leaf extracted from a solution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChosenAlloc {
    /// Index into [`CompiledModel::leaves`].
    pub leaf: usize,
    /// Node counts drawn from each partition class.
    pub counts: Vec<(usize, u32)>,
}

/// The result of compilation: a MILP model plus the bookkeeping needed to
/// interpret its solutions.
#[derive(Debug)]
pub struct CompiledModel {
    /// The MILP to maximize.
    pub model: Model,
    /// Leaf metadata in depth-first input order.
    pub leaves: Vec<LeafInfo>,
    /// The root indicator (fixed to 1).
    pub root_indicator: VarId,
    /// `nCk` leaves given no variables: their classes can never supply `k`.
    pub leaves_dead: usize,
    /// Per-(class, slice) supply rows of Algorithm 1 not emitted because an
    /// emitted row of the class implies them.
    pub supply_rows_dropped: usize,
}

impl CompiledModel {
    /// Extracts the satisfied leaves and their per-class node counts.
    pub fn chosen(&self, sol: &Solution) -> Vec<ChosenAlloc> {
        let mut out = Vec::new();
        for (ix, leaf) in self.leaves.iter().enumerate() {
            if !sol.is_set(leaf.indicator) {
                continue;
            }
            let counts: Vec<(usize, u32)> = leaf
                .draws
                .iter()
                .map(|&(class, v, per)| (class, sol.int_value(v).max(0) as u32 * per))
                .filter(|&(_, c)| c > 0)
                .collect();
            let total: u32 = counts.iter().map(|&(_, c)| c).sum();
            if leaf.linear && total == 0 {
                continue; // A satisfied linear leaf with nothing allocated.
            }
            out.push(ChosenAlloc { leaf: ix, counts });
        }
        out
    }

    /// Decodes the solution back into STRL space: granted node count per
    /// leaf, in the same depth-first (pre-order) leaf order the expression
    /// uses, for translation validation via
    /// [`tetrisched_strl::StrlExpr::placement_value`]. An unchosen leaf is
    /// granted zero regardless of its partition variables (the demand
    /// constraints force them to zero anyway).
    pub fn granted(&self, sol: &Solution) -> Vec<u32> {
        self.leaves
            .iter()
            .map(|leaf| {
                if !sol.is_set(leaf.indicator) {
                    return 0;
                }
                leaf.draws
                    .iter()
                    .map(|&(_, v, per)| sol.int_value(v).max(0) as u32 * per)
                    .sum()
            })
            .collect()
    }

    /// Builds a candidate assignment activating the given leaf choices
    /// (with explicit per-class counts), for seeding the solver with the
    /// previous cycle's schedule. The result is *not* guaranteed feasible;
    /// the solver validates and silently discards bad warm starts.
    // srclint: checked-indexing: every VarId written here was minted by
    // this compiled model, and v is allocated with num_vars entries.
    pub fn warm_vector(&self, picks: &[(usize, Vec<(usize, u32)>)]) -> Vec<f64> {
        let mut v = vec![0.0; self.model.num_vars()];
        v[self.root_indicator.index()] = 1.0;
        for (leaf_ix, counts) in picks {
            let Some(leaf) = self.leaves.get(*leaf_ix) else {
                continue;
            };
            v[leaf.indicator.index()] = 1.0;
            for a in &leaf.ancestors {
                v[a.index()] = 1.0;
            }
            for (class, count) in counts {
                if let Some(&(_, var, per)) = leaf.draws.iter().find(|(c, _, _)| c == class) {
                    v[var.index()] = (*count / per) as f64;
                }
            }
        }
        v
    }
}

/// Compiles a STRL expression into a MILP (Algorithm 1).
///
/// `avail` reports how many nodes of a partition class are expected free at
/// an absolute time (plan-ahead's view of the ledger).
pub fn compile(
    input: &CompileInput<'_>,
    avail: &dyn Fn(&NodeSet, Time) -> usize,
) -> Result<CompiledModel, CompileError> {
    let supply = Supply::new(input, avail);
    let mut ctx = GenCtx {
        model: Model::maximize(),
        used: Vec::new(),
        cell_uses: vec![0; supply.free.len()],
        leaves: Vec::new(),
        leaves_dead: 0,
        stack: Vec::new(),
        caps: Vec::new(),
        supply,
    };

    // genAndSolve: a free binary root indicator. It must stay free (not
    // pinned to 1) so that unsatisfiable subtrees — a `min` with a dead leg,
    // a `barrier` whose threshold is unreachable — can settle at zero value
    // instead of making the whole model infeasible; maximization turns it
    // on whenever any value is obtainable.
    let root = ctx.model.add_var("I_root", VarKind::Binary, 0.0, 1.0, 0.0);
    let objective = ctx.gen(input.expr, root)?;
    ctx.model.add_objective_expr(&objective);
    let supply_rows_dropped = ctx.supply_rows();

    Ok(CompiledModel {
        model: ctx.model,
        leaves: ctx.leaves,
        root_indicator: root,
        leaves_dead: ctx.leaves_dead,
        supply_rows_dropped,
    })
}

/// What [`evaluate`] chose for one job's request.
#[derive(Debug, Clone, PartialEq)]
pub struct Evaluation {
    /// The winning child's leaves and per-class counts, as
    /// [`CompiledModel::chosen`] reads them off a solution; empty when no
    /// child can be placed.
    pub chosen: Vec<ChosenAlloc>,
    /// The winning child's value (0 when none can be placed).
    pub value: f64,
    /// `nCk` leaves whose classes can never supply `k`, as
    /// [`CompiledModel::leaves_dead`] counts them.
    pub leaves_dead: usize,
}

/// The simplex's reduced-cost tolerance (`COST_TOL` in `milp`'s simplex): a
/// column priced at or below it never enters.
const PRICE_TOL: f64 = 1e-7;

/// How an alive child of a job's `max` enters the simplex (see [`evaluate`]).
#[derive(Clone, Copy)]
enum Entry {
    /// A leaf left with one class: its indicator, priced at its value.
    Sole,
    /// A leaf drawing from several classes: its partition variables, priced
    /// at value × `1/k`.
    Multi { per_node: f64 },
    /// A `min`: its indicator, once its value variable has entered.
    Min { priced: bool },
}

/// An alive child of a job's `max`.
struct Child<'e> {
    /// The child's leaves: itself, or a `min`'s legs.
    legs: &'e [StrlExpr],
    /// Depth-first index of its first leaf.
    first_leaf: usize,
    value: f64,
    entry: Entry,
}

impl Child<'_> {
    /// The reduced cost at which the child first enters the choice row.
    fn price(&self) -> f64 {
        match self.entry {
            Entry::Sole => self.value,
            Entry::Multi { per_node } => self.value * per_node,
            Entry::Min { .. } => self.value.min(1.0),
        }
    }

    /// The reduced cost of the child's next pivot while `current` is the
    /// incumbent's value; `None` when it has none to make.
    fn gain(&self, current: f64) -> Option<f64> {
        match self.entry {
            Entry::Sole => None,
            Entry::Multi { per_node } => Some((self.value - current) * per_node),
            Entry::Min { priced: true } => Some(self.value - current),
            Entry::Min { priced: false } => Some(1.0),
        }
    }
}

/// Places one job's request without a model: what [`compile`] and the exact
/// backend choose, leaf for leaf and count for count.
///
/// The request has the generator's shape: a root `max` over `nCk` leaves
/// and non-empty `min`s of `nCk` legs on disjoint single classes. Anything
/// else is [`CompileError::NotOneJob`]. A leaf's caps come from the
/// function that bounds `compile`'s partition variables, so `evaluate` fails
/// where `compile` fails and finds the same leaves dead. A leaf is alive
/// when its caps reach `k`; a `min` is alive when every leg is, and is
/// worth its least leg. The winner's counts fill each leaf's classes in
/// `cover` order, each up to its cap.
///
/// Which alive child wins is the path the simplex takes on the compiled
/// model, since the LP relaxation of one job is integral at the root. Every
/// pivot is degenerate until one child's variable enters the `max_choice`
/// row. Dantzig pricing picks it: the largest reduced cost, the first
/// column among equals. A single-class leaf draws through its indicator
/// (`P = k·I`) and prices at its value `v`. A multi-class leaf's indicator
/// only enters its demand row, and its partition variables price at
/// `v × 1/k`. A `min`'s indicator prices at `v` once its value variable,
/// worth 1 a unit, has entered its leg rows, so it waits for price 1. The
/// child of highest price wins the row, the first among equals. From there
/// each pivot improves: a multi-class leaf or a `min` worth more than the
/// incumbent takes over when its gain, per node for a leaf, clears the
/// simplex's tolerance. So among children of exactly equal value, a
/// single-class leaf beats a multi-class one wherever it stands, and values
/// closer than the tolerance are a tie too.
// srclint: checked-indexing: `win` and `ix` only ever come from
// enumerating `alive`.
pub fn evaluate(
    input: &CompileInput<'_>,
    avail: &dyn Fn(&NodeSet, Time) -> usize,
) -> Result<Evaluation, CompileError> {
    let StrlExpr::Max(children) = input.expr else {
        return Err(CompileError::NotOneJob);
    };
    let mut supply = Supply::new(input, avail);
    let (mut caps, mut taken) = (Vec::new(), Vec::new());
    let mut leaves_dead = 0;
    let mut alive: Vec<Child> = Vec::with_capacity(children.len());
    let mut first_leaf = 0;
    for child in children {
        let (legs, is_min) = match child {
            StrlExpr::NCk { .. } => (std::slice::from_ref(child), false),
            StrlExpr::Min(legs) if !legs.is_empty() => (legs.as_slice(), true),
            _ => return Err(CompileError::NotOneJob),
        };
        let (mut dead, mut value, mut per_node) = (false, f64::INFINITY, 1.0);
        taken.clear();
        for leg in legs {
            let (leg_dead, v, k) = supply.nck(leg, &mut caps)?;
            leaves_dead += usize::from(leg_dead);
            dead |= leg_dead;
            value = value.min(v);
            per_node = 1.0 / f64::from(k);
            // A leg drawing from several classes prices like a multi-class
            // leaf, and legs sharing a class share its supply rows.
            let shared = caps.iter().any(|(class, _)| taken.contains(class));
            if is_min && (caps.len() > 1 || shared) {
                return Err(CompileError::NotOneJob);
            }
            taken.extend(caps.iter().map(|&(class, _)| class));
        }
        let entry = if is_min {
            Entry::Min { priced: false }
        } else if caps.len() > 1 {
            Entry::Multi { per_node }
        } else {
            Entry::Sole
        };
        if !dead {
            alive.push(Child {
                legs,
                first_leaf,
                value,
                entry,
            });
        }
        first_leaf += legs.len();
    }

    // The child whose variable enters the choice row.
    let mut winner: Option<(usize, f64)> = None;
    for (ix, child) in alive.iter().enumerate() {
        let p = child.price();
        if p > PRICE_TOL && winner.is_none_or(|(_, best)| p > best) {
            winner = Some((ix, p));
        }
    }
    let Some((mut win, entered_at)) = winner else {
        return Ok(Evaluation {
            chosen: Vec::new(),
            value: 0.0,
            leaves_dead,
        });
    };
    // Value variables priced at 1 entered before the winner did.
    for (ix, child) in alive.iter_mut().enumerate() {
        if let Entry::Min { priced } = &mut child.entry {
            *priced = ix == win || 1.0 > entered_at || (1.0 >= entered_at && ix < win);
        }
    }
    // Improving pivots: the largest reduced cost enters, the first among
    // equals; a `min`'s value variable enters at 1 before its indicator can.
    loop {
        let current = alive[win].value;
        let mut next: Option<(usize, f64)> = None;
        for (ix, child) in alive.iter().enumerate() {
            let Some(gain) = child.gain(current) else {
                continue;
            };
            if gain > PRICE_TOL && next.is_none_or(|(_, best)| gain > best) {
                next = Some((ix, gain));
            }
        }
        let Some((ix, _)) = next else { break };
        match &mut alive[ix].entry {
            Entry::Min { priced } if !*priced => *priced = true,
            _ => win = ix,
        }
    }

    let Child {
        legs,
        first_leaf,
        value,
        ..
    } = alive[win];
    let mut chosen = Vec::with_capacity(legs.len());
    for (leaf, leg) in (first_leaf..).zip(legs) {
        // The free table answers from its cells now.
        let (_, _, k) = supply.nck(leg, &mut caps)?;
        let mut left = k as usize;
        let mut counts = Vec::with_capacity(caps.len());
        for &(class, cap) in &caps {
            let take = cap.min(left);
            if take > 0 {
                counts.push((class, take as u32));
                left -= take;
            }
        }
        chosen.push(ChosenAlloc { leaf, counts });
    }
    Ok(Evaluation {
        chosen,
        value,
        leaves_dead,
    })
}

/// A cell of [`Supply::free`] not asked for yet (no class has this many nodes).
const UNASKED: usize = usize::MAX;

/// What the partition classes can give a leaf: the one reading of `avail`
/// that [`compile`]'s bounds and supply rows and [`evaluate`] share.
struct Supply<'a> {
    partitions: &'a PartitionSet,
    avail: &'a dyn Fn(&NodeSet, Time) -> usize,
    /// Expected free nodes of class `c` in slice `s` at `c * n_slices + s`,
    /// asked for once.
    free: Vec<usize>,
    now: Time,
    quantum: u64,
    n_slices: usize,
}

impl<'a> Supply<'a> {
    fn new(input: &CompileInput<'a>, avail: &'a dyn Fn(&NodeSet, Time) -> usize) -> Self {
        let n_slices = input.n_slices.max(1);
        Supply {
            partitions: input.partitions,
            avail,
            free: vec![UNASKED; input.partitions.len() * n_slices],
            now: input.now,
            quantum: input.quantum.max(1),
            n_slices,
        }
    }

    /// Expected free nodes of `class` in `slice`.
    // srclint: checked-indexing: `free` holds partitions.len() x n_slices
    // cells; class comes from partitions.cover and slice is below n_slices.
    fn free_at(&mut self, class: usize, slice: usize) -> usize {
        let cell = &mut self.free[class * self.n_slices + slice];
        if *cell == UNASKED {
            let t = self.now + slice as u64 * self.quantum;
            *cell = (self.avail)(self.partitions.class(class), t);
        }
        *cell
    }

    /// What each class of `set` can give a leaf wanting `k` nodes over
    /// `[start, start + dur)`, written to `caps` as `(class, cap)` in `cover`
    /// order: no more than the class's size, than `k`, or than it has free
    /// in any slice the leaf covers. Every supply row of the class over
    /// those slices implies the cap, and a class whose cap is 0 is left out.
    /// Returns the slices the leaf covers and whether it is dead: an `nCk`
    /// leaf whose caps sum below `k`, left with no caps.
    fn leaf(
        &mut self,
        set: &NodeSet,
        k: u32,
        start: Time,
        dur: u64,
        linear: bool,
        caps: &mut Vec<(usize, usize)>,
    ) -> Result<(Range<usize>, bool), CompileError> {
        if start < self.now {
            return Err(CompileError::StartInPast {
                start,
                now: self.now,
            });
        }
        let rel = start - self.now;
        let first_slice = (rel / self.quantum) as usize;
        if first_slice >= self.n_slices {
            return Err(CompileError::StartBeyondWindow { start });
        }
        let last_slice = ((rel + dur).div_ceil(self.quantum) as usize).min(self.n_slices);

        let classes = self
            .partitions
            .cover(set)
            .map_err(|class| CompileError::UnalignedSet { class })?;
        caps.clear();
        for class in classes {
            let mut cap = self.partitions.class(class).len().min(k as usize);
            for slice in first_slice..last_slice {
                if cap == 0 {
                    break;
                }
                cap = cap.min(self.free_at(class, slice));
            }
            if cap > 0 {
                caps.push((class, cap));
            }
        }
        let reachable: usize = caps.iter().map(|&(_, cap)| cap).sum();
        let dead = !linear && reachable < k as usize;
        if dead {
            caps.clear();
        }
        Ok((first_slice..last_slice, dead))
    }

    /// [`Supply::leaf`] for an `nCk` leaf of a job's request: whether it is
    /// dead, its value and its `k`.
    fn nck(
        &mut self,
        leaf: &StrlExpr,
        caps: &mut Vec<(usize, usize)>,
    ) -> Result<(bool, f64, u32), CompileError> {
        let StrlExpr::NCk {
            set,
            k,
            start,
            dur,
            value,
        } = leaf
        else {
            return Err(CompileError::NotOneJob);
        };
        let (_, dead) = self.leaf(set, *k, *start, *dur, false, caps)?;
        Ok((dead, *value, *k))
    }
}

/// One use of capacity: `per * var` nodes of `class` held in `slice`.
#[derive(Clone, Copy)]
struct Use {
    class: usize,
    slice: usize,
    var: VarId,
    per: u32,
}

/// `used` grouped by (class, slice) in ascending order, each group's uses in
/// the order they were made: a counting sort over the `class * n_slices +
/// slice` grid, whose per-cell counts `next` holds, stable like the
/// comparison sort it stands for.
// srclint: checked-indexing: `next` counts every use in its cell, so each
// cell is in range and the offsets run over exactly used.len() slots.
fn bucketed(used: &[Use], n_slices: usize, mut next: Vec<usize>) -> Vec<Use> {
    let Some(&first) = used.first() else {
        return Vec::new();
    };
    let cell = |u: &Use| u.class * n_slices + u.slice;
    let mut at = 0;
    for n in &mut next {
        (*n, at) = (at, at + *n);
    }
    let mut out = vec![first; used.len()];
    for u in used {
        let slot = &mut next[cell(u)];
        out[*slot] = *u;
        *slot += 1;
    }
    out
}

/// Whether every user of `sub` is one of `sup`. Both list a class's users in
/// leaf order, so this is a subsequence test.
fn covers(sup: &[Use], sub: &[Use]) -> bool {
    let mut sup = sup.iter();
    sub.iter()
        .all(|u| sup.any(|s| (s.var, s.per) == (u.var, u.per)))
}

struct GenCtx<'a> {
    model: Model,
    /// Who uses which capacity.
    used: Vec<Use>,
    /// How many of `used` fall in each `class * n_slices + slice` cell.
    cell_uses: Vec<usize>,
    leaves: Vec<LeafInfo>,
    leaves_dead: usize,
    /// Indicator chain from the root to the current node.
    stack: Vec<VarId>,
    /// `(class, bound)` of the leaf being generated: scratch of `gen_leaf`.
    caps: Vec<(usize, usize)>,
    /// The free table the partition bounds and the supply rows both read.
    supply: Supply<'a>,
}

impl GenCtx<'_> {
    /// Supply constraints: usage of a class at most its expected free nodes,
    /// one row per maximal set of users. Returns how many of Algorithm 1's
    /// per-(class, slice) rows that leaves out.
    ///
    /// [`bucketed`] groups the uses by (class, slice) in ascending order and
    /// leaves each group's variables in creation order. Consecutive
    /// slices with the same users are one row at the least of their free
    /// counts; a row is implied, and dropped, when another row of its class
    /// has every one of its users and no larger right-hand side (every use
    /// is non-negative), whatever shape the availability profile has.
    fn supply_rows(&mut self) -> usize {
        let cell_uses = std::mem::take(&mut self.cell_uses);
        let used = bucketed(&self.used, self.supply.n_slices, cell_uses);
        let (mut groups, mut emitted) = (0, 0);
        // `(users, free)` of the current class's merged rows.
        let mut rows: Vec<(&[Use], usize)> = Vec::new();
        for of_class in used.chunk_by(|a, b| a.class == b.class) {
            rows.clear();
            for users in of_class.chunk_by(|a, b| a.slice == b.slice) {
                let Some(&Use { class, slice, .. }) = users.first() else {
                    continue;
                };
                groups += 1;
                let free = self.supply.free_at(class, slice);
                match rows.last_mut() {
                    Some(last) if last.0.len() == users.len() && covers(last.0, users) => {
                        last.1 = last.1.min(free);
                    }
                    _ => rows.push((users, free)),
                }
            }
            for (i, &(users, free)) in rows.iter().enumerate() {
                let Some(first) = users.first() else {
                    continue;
                };
                // Of two rows that imply each other the earlier is kept.
                let implied = rows.iter().enumerate().any(|(j, &(sup, other))| {
                    j != i
                        && other <= free
                        && sup.len() >= users.len()
                        && (other < free || sup.len() > users.len() || j < i)
                        && covers(sup, users)
                });
                if !implied {
                    emitted += 1;
                    self.model.add_constraint(
                        Name::Idx2("supply_c", first.class as u64, "_s", first.slice as u64),
                        users.iter().map(|u| (u.var, u.per as f64)),
                        Sense::Le,
                        free as f64,
                    );
                }
            }
        }
        groups - emitted
    }

    /// Algorithm 1's `gen(expr, I)`: returns the subtree's objective.
    fn gen(&mut self, expr: &StrlExpr, indicator: VarId) -> Result<LinExpr, CompileError> {
        match expr {
            StrlExpr::NCk {
                set,
                k,
                start,
                dur,
                value,
            } => self.gen_leaf(set, *k, *start, *dur, *value, indicator, false),
            StrlExpr::LnCk {
                set,
                k,
                start,
                dur,
                value,
            } => self.gen_leaf(set, *k, *start, *dur, *value, indicator, true),
            StrlExpr::Max(children) => {
                let mut objective = LinExpr::new();
                let mut child_terms = Vec::with_capacity(children.len() + 1);
                for (i, child) in children.iter().enumerate() {
                    let ci = self.model.add_binary(Name::Idx("I_max", i as u64), 0.0);
                    child_terms.push((ci, 1.0));
                    self.stack.push(indicator);
                    let f = self.gen(child, ci)?;
                    self.stack.pop();
                    objective.add_expr(&f);
                }
                // At most one child is chosen (and none when I = 0).
                child_terms.push((indicator, -1.0));
                self.model
                    .add_constraint("max_choice", child_terms, Sense::Le, 0.0);
                Ok(objective)
            }
            StrlExpr::Sum(children) => {
                let mut objective = LinExpr::new();
                let mut child_terms = Vec::with_capacity(children.len() + 1);
                for (i, child) in children.iter().enumerate() {
                    let ci = self.model.add_binary(Name::Idx("I_sum", i as u64), 0.0);
                    child_terms.push((ci, 1.0));
                    self.stack.push(indicator);
                    let f = self.gen(child, ci)?;
                    self.stack.pop();
                    objective.add_expr(&f);
                }
                let n = children.len() as f64;
                child_terms.push((indicator, -n));
                self.model
                    .add_constraint("sum_gate", child_terms, Sense::Le, 0.0);
                Ok(objective)
            }
            StrlExpr::Min(children) => {
                if children.is_empty() {
                    // A vacuous `min` carries no value (and an unbounded V
                    // variable would make the model unbounded).
                    return Ok(LinExpr::new());
                }
                // V represents the minimum child objective; maximization
                // pushes it up to the true minimum.
                let v = self
                    .model
                    .add_var("V_min", VarKind::Continuous, 0.0, f64::INFINITY, 0.0);
                for child in children {
                    // Children share the parent's indicator (Algorithm 1).
                    let f = self.gen(child, indicator)?;
                    // V <= f  =>  V - f <= f.constant .. move constant right.
                    let mut terms = vec![(v, 1.0)];
                    for &(var, c) in &f.compact().terms {
                        terms.push((var, -c));
                    }
                    self.model
                        .add_constraint("min_bound", terms, Sense::Le, f.constant);
                }
                Ok(LinExpr::term(v, 1.0))
            }
            StrlExpr::Scale { factor, child } => Ok(self.gen(child, indicator)?.scaled(*factor)),
            StrlExpr::Barrier { value, child } => {
                let f = self.gen(child, indicator)?;
                // v * I <= f.
                let mut terms = vec![(indicator, *value)];
                for &(var, c) in &f.compact().terms {
                    terms.push((var, -c));
                }
                self.model
                    .add_constraint("barrier", terms, Sense::Le, f.constant);
                Ok(LinExpr::term(indicator, *value))
            }
        }
    }

    // srclint: checked-indexing: `cell_uses` has a cell per class and
    // slice, the caps' classes come from the partition, and the leaf's
    // slices stop below n_slices.
    #[allow(clippy::too_many_arguments)]
    fn gen_leaf(
        &mut self,
        set: &NodeSet,
        k: u32,
        start: Time,
        dur: u64,
        value: f64,
        indicator: VarId,
        linear: bool,
    ) -> Result<LinExpr, CompileError> {
        let (slices, dead) = self
            .supply
            .leaf(set, k, start, dur, linear, &mut self.caps)?;
        if dead {
            // `sum(P) = k * I` within the bounds leaves only I = 0, whoever
            // else shares the indicator. No variables, no value; the leaf
            // keeps its place so leaf indices still match the tags.
            self.model.set_bounds(indicator, 0.0, 0.0);
            self.leaves_dead += 1;
        }

        // The one class left to an `nCk` leaf gives all k or nothing.
        let sole = !linear && self.caps.len() == 1;
        let mut draws = Vec::with_capacity(self.caps.len());
        for &(class, cap) in &self.caps {
            let (var, per) = if sole {
                (indicator, k)
            } else {
                let p = self.model.add_var(
                    Name::Idx2("P_c", class as u64, "_t", start),
                    VarKind::Integer,
                    0.0,
                    cap as f64,
                    0.0,
                );
                (p, 1)
            };
            draws.push((class, var, per));
            for slice in slices.clone() {
                self.cell_uses[class * self.supply.n_slices + slice] += 1;
                self.used.push(Use {
                    class,
                    slice,
                    var,
                    per,
                });
            }
        }
        let demand = draws
            .iter()
            .map(|&(_, p, _)| (p, 1.0))
            .chain([(indicator, -(k as f64))]);

        let objective = if dead {
            LinExpr::new()
        } else if linear {
            // sum(P) <= k * I (nothing to say with no P); objective v/k per
            // node obtained.
            if !draws.is_empty() {
                self.model
                    .add_constraint("lnck_demand", demand, Sense::Le, 0.0);
            }
            let per_node = value / k as f64;
            LinExpr {
                terms: draws.iter().map(|&(_, p, _)| (p, per_node)).collect(),
                constant: 0.0,
            }
        } else {
            // sum(P) = k * I, which `sole` has substituted; objective v when
            // chosen.
            if !sole {
                self.model
                    .add_constraint("nck_demand", demand, Sense::Eq, 0.0);
            }
            LinExpr::term(indicator, value)
        };

        self.leaves.push(LeafInfo {
            start,
            dur,
            k,
            linear,
            indicator,
            draws,
            ancestors: self.stack.clone(),
        });
        Ok(objective)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tetrisched_cluster::{NodeId, PartitionSet};
    use tetrisched_milp::SolverConfig;

    fn set(cap: usize, ids: &[u32]) -> NodeSet {
        NodeSet::from_ids(cap, ids.iter().map(|&i| NodeId(i)))
    }

    /// Compiles and solves exactly, with constant availability.
    fn solve(
        expr: &StrlExpr,
        partitions: &PartitionSet,
        quantum: u64,
        n_slices: usize,
        cap: usize,
    ) -> (CompiledModel, Solution) {
        let input = CompileInput {
            expr,
            partitions,
            now: 0,
            quantum,
            n_slices,
        };
        let compiled = compile(&input, &move |_, _| cap).expect("compile");
        let sol = compiled.model.solve(&SolverConfig::exact()).expect("solve");
        (compiled, sol)
    }

    /// The paper's Sec. 5.1 example: three jobs, three machines, 10s
    /// quantum. The only schedule meeting all deadlines is job 1 at t=0,
    /// job 3 at t=10, job 2 at t=20 (Fig. 4).
    #[test]
    fn sec51_milp_example_reproduces_fig4() {
        let all = set(3, &[0, 1, 2]);
        let job1 = StrlExpr::nck(all.clone(), 2, 0, 10, 1.0);
        let job2 = StrlExpr::max([
            StrlExpr::nck(all.clone(), 1, 0, 20, 1.0),
            StrlExpr::nck(all.clone(), 1, 10, 20, 1.0),
            StrlExpr::nck(all.clone(), 1, 20, 20, 1.0),
        ]);
        let job3 = StrlExpr::max([
            StrlExpr::nck(all.clone(), 3, 0, 10, 1.0),
            StrlExpr::nck(all.clone(), 3, 10, 10, 1.0),
        ]);
        let expr = StrlExpr::sum([job1, job2, job3]);
        let partitions = PartitionSet::refine(3, &[all]);
        let (compiled, sol) = solve(&expr, &partitions, 10, 4, 3);

        assert!(
            (sol.objective - 3.0).abs() < 1e-6,
            "all three jobs scheduled"
        );
        let chosen = compiled.chosen(&sol);
        assert_eq!(chosen.len(), 3);
        // Leaf DFS order: job1@0; job2@{0,10,20}; job3@{0,10}.
        let starts: Vec<Time> = chosen
            .iter()
            .map(|c| compiled.leaves[c.leaf].start)
            .collect();
        assert_eq!(starts, vec![0, 20, 10], "job1@0, job2@20, job3@10");
    }

    #[test]
    fn gpu_soft_constraint_prefers_fast_option() {
        // Fig. 3: GPU option (v=4) vs anywhere (v=3); GPUs free => fast.
        let gpus = set(4, &[0, 1]);
        let all = set(4, &[0, 1, 2, 3]);
        let expr = StrlExpr::max([
            StrlExpr::nck(gpus.clone(), 2, 0, 2, 4.0),
            StrlExpr::nck(all.clone(), 2, 0, 3, 3.0),
        ]);
        let partitions = PartitionSet::refine(4, &[gpus, all]);
        let (compiled, sol) = solve(&expr, &partitions, 1, 5, 4);
        assert!((sol.objective - 4.0).abs() < 1e-6);
        let chosen = compiled.chosen(&sol);
        assert_eq!(chosen.len(), 1);
        assert_eq!(compiled.leaves[chosen[0].leaf].dur, 2);
    }

    #[test]
    fn gpu_soft_constraint_falls_back_when_gpus_busy() {
        let gpus = set(4, &[0, 1]);
        let all = set(4, &[0, 1, 2, 3]);
        let expr = StrlExpr::max([
            StrlExpr::nck(gpus.clone(), 2, 0, 2, 4.0),
            StrlExpr::nck(all.clone(), 2, 0, 3, 3.0),
        ]);
        let partitions = PartitionSet::refine(4, &[gpus.clone(), all]);
        // GPUs (class containing nodes 0,1) are busy: avail 0 there.
        let input = CompileInput {
            expr: &expr,
            partitions: &partitions,
            now: 0,
            quantum: 1,
            n_slices: 5,
        };
        let gpus_for_avail = gpus.clone();
        let compiled = compile(&input, &move |class: &NodeSet, _| {
            if class.is_subset(&gpus_for_avail) {
                0
            } else {
                class.len()
            }
        })
        .expect("expression is well-formed and inside the window; compile must succeed");
        let sol = compiled
            .model
            .solve(&SolverConfig::exact())
            .expect("compiled models are solver-valid");
        assert!((sol.objective - 3.0).abs() < 1e-6, "fallback option chosen");
        let chosen = compiled.chosen(&sol);
        // The fallback drew its 2 nodes from the non-GPU class only.
        for (class, count) in &chosen[0].counts {
            assert!(partitions.class(*class).is_disjoint(&gpus) || *count == 0);
        }
    }

    #[test]
    fn min_expresses_anti_affinity() {
        // Fig. 1's Availability job: one node on each rack.
        let rack1 = set(4, &[0, 1]);
        let rack2 = set(4, &[2, 3]);
        let expr = StrlExpr::min([
            StrlExpr::nck(rack1.clone(), 1, 0, 3, 2.0),
            StrlExpr::nck(rack2.clone(), 1, 0, 3, 2.0),
        ]);
        let partitions = PartitionSet::refine(4, &[rack1.clone(), rack2.clone()]);
        let (compiled, sol) = solve(&expr, &partitions, 1, 3, 2);
        assert!((sol.objective - 2.0).abs() < 1e-6);
        let chosen = compiled.chosen(&sol);
        assert_eq!(chosen.len(), 2, "both rack legs satisfied");
        let total: u32 = chosen
            .iter()
            .flat_map(|c| c.counts.iter().map(|&(_, n)| n))
            .sum();
        assert_eq!(total, 2);
    }

    #[test]
    fn min_unsatisfiable_leg_yields_zero() {
        let rack1 = set(4, &[0, 1]);
        let rack2 = set(4, &[2, 3]);
        let expr = StrlExpr::min([
            StrlExpr::nck(rack1.clone(), 1, 0, 3, 2.0),
            StrlExpr::nck(rack2.clone(), 1, 0, 3, 2.0),
        ]);
        let partitions = PartitionSet::refine(4, &[rack1.clone(), rack2.clone()]);
        let input = CompileInput {
            expr: &expr,
            partitions: &partitions,
            now: 0,
            quantum: 1,
            n_slices: 3,
        };
        // Rack 2 has no availability.
        let compiled = compile(&input, &move |class: &NodeSet, _| {
            if class.is_subset(&rack2) {
                0
            } else {
                class.len()
            }
        })
        .expect("expression is well-formed and inside the window; compile must succeed");
        let sol = compiled
            .model
            .solve(&SolverConfig::exact())
            .expect("compiled models are solver-valid");
        assert!(sol.objective.abs() < 1e-6, "min collapses to zero value");
    }

    #[test]
    fn supply_constraints_prevent_overcommit() {
        // Two jobs each wanting 2 of 3 machines at t=0: only one fits.
        let all = set(3, &[0, 1, 2]);
        let expr = StrlExpr::sum([
            StrlExpr::nck(all.clone(), 2, 0, 10, 1.0),
            StrlExpr::nck(all.clone(), 2, 0, 10, 1.0),
        ]);
        let partitions = PartitionSet::refine(3, &[all]);
        let (compiled, sol) = solve(&expr, &partitions, 10, 1, 3);
        assert!((sol.objective - 1.0).abs() < 1e-6);
        assert_eq!(compiled.chosen(&sol).len(), 1);
    }

    /// Free nodes of the one class by slice, for the reduction tests.
    fn compile_over(expr: &StrlExpr, free: &'static [usize]) -> CompiledModel {
        let all = set(4, &[0, 1, 2, 3]);
        let partitions = PartitionSet::refine(4, &[all]);
        let input = CompileInput {
            expr,
            partitions: &partitions,
            now: 0,
            quantum: 1,
            n_slices: free.len(),
        };
        compile(&input, &|_, t| free[t as usize])
            .expect("expression is well-formed and inside the window; compile must succeed")
    }

    fn supply_rows(compiled: &CompiledModel) -> Vec<(String, usize, f64)> {
        let rows = compiled.model.constraints().iter();
        rows.filter(|c| c.name.to_string().starts_with("supply"))
            .map(|c| (c.name.to_string(), c.terms.len(), c.rhs))
            .collect()
    }

    #[test]
    fn dead_leaf_gets_no_variables_and_a_fixed_indicator() {
        // Three of four nodes are free in slice 1 only: the leaf covering it
        // can never have four, the later one can.
        let all = set(4, &[0, 1, 2, 3]);
        let expr = StrlExpr::max([
            StrlExpr::nck(all.clone(), 4, 0, 3, 9.0),
            StrlExpr::nck(all, 4, 2, 2, 5.0),
        ]);
        let compiled = compile_over(&expr, &[4, 3, 4, 4]);
        assert_eq!(compiled.leaves_dead, 1);
        assert_eq!(compiled.leaves.len(), 2, "a dead leaf keeps its index");
        let dead = &compiled.leaves[0];
        assert!(dead.draws.is_empty());
        assert_eq!(compiled.model.var(dead.indicator).ub, 0.0);
        let sol = compiled
            .model
            .solve(&SolverConfig::exact())
            .expect("compiled models are solver-valid");
        assert!((sol.objective - 5.0).abs() < 1e-6);
        assert_eq!(compiled.granted(&sol), vec![0, 4]);
    }

    #[test]
    fn sole_class_leaf_draws_through_its_indicator() {
        let all = set(4, &[0, 1, 2, 3]);
        let expr = StrlExpr::nck(all, 3, 0, 2, 1.0);
        let compiled = compile_over(&expr, &[4, 4]);
        assert_eq!(compiled.model.num_vars(), 1, "no partition variable");
        assert_eq!(
            supply_rows(&compiled),
            vec![("supply_c0_s0".into(), 1, 4.0)]
        );
        let sol = compiled
            .model
            .solve(&SolverConfig::exact())
            .expect("compiled models are solver-valid");
        let chosen = compiled.chosen(&sol);
        assert_eq!(chosen[0].counts, vec![(0, 3)]);
        assert_eq!(compiled.granted(&sol), vec![3]);
    }

    #[test]
    fn supply_rows_are_one_per_maximal_user_set() {
        // Availability dips in slice 2 and recovers: not monotone. Users by
        // slice: {a} {a,b} {a,b} {b} {b,c} {c}.
        let all = set(4, &[0, 1, 2, 3]);
        let expr = StrlExpr::sum([
            StrlExpr::nck(all.clone(), 1, 0, 3, 1.0),
            StrlExpr::nck(all.clone(), 1, 1, 4, 1.0),
            StrlExpr::nck(all, 1, 4, 2, 1.0),
        ]);
        let compiled = compile_over(&expr, &[3, 4, 2, 2, 3, 1]);
        // {a} <= 3 and {b} <= 2 are implied by {a,b} <= 2 (slices 1 and 2
        // merged at the lesser); {c} <= 1 is not implied by {b,c} <= 3.
        assert_eq!(
            supply_rows(&compiled),
            vec![
                ("supply_c0_s1".into(), 2, 2.0),
                ("supply_c0_s4".into(), 2, 3.0),
                ("supply_c0_s5".into(), 1, 1.0),
            ]
        );
        assert_eq!(compiled.supply_rows_dropped, 3);
    }

    #[test]
    fn supply_rows_come_by_class_then_slice_with_users_in_leaf_order() {
        // Classes {0,1} {2,3} {4,5}. The first leaf draws from class 1 alone,
        // so uses arrive out of class order; single- and multi-class leaves
        // share classes over overlapping slices.
        let a = set(6, &[0, 1]);
        let b = set(6, &[2, 3]);
        let expr = StrlExpr::sum([
            StrlExpr::nck(b.clone(), 2, 2, 2, 1.0),
            StrlExpr::nck(NodeSet::full(6), 3, 0, 3, 1.0),
            StrlExpr::nck(a.clone(), 1, 1, 3, 1.0),
            StrlExpr::lnck(a.or(&b), 2, 3, 1, 1.0),
        ]);
        let partitions = PartitionSet::refine(6, &[a, b]);
        let input = CompileInput {
            expr: &expr,
            partitions: &partitions,
            now: 0,
            quantum: 1,
            n_slices: 5,
        };
        let compiled = compile(&input, &|_, _| 2)
            .expect("expression is well-formed and inside the window; compile must succeed");
        let leaf_of = |var: VarId| {
            let mut drawing = compiled.leaves.iter().enumerate();
            drawing
                .find(|(_, leaf)| leaf.draws.iter().any(|&(_, v, _)| v == var))
                .map(|(ix, _)| ix)
        };
        let rows: Vec<(String, Vec<Option<usize>>)> = compiled
            .model
            .constraints()
            .iter()
            .filter(|c| c.name.to_string().starts_with("supply"))
            .map(|c| {
                let users = c.terms.iter().map(|&(v, _)| leaf_of(v)).collect();
                (c.name.to_string(), users)
            })
            .collect();
        // Users by slice — class 0: {1} {1,2} {1,2} {2,3}; class 1: {1} {1}
        // {0,1} {0,3}; class 2: {1} {1} {1}. Each {1} row is implied.
        let expected = [
            ("supply_c0_s1", vec![1, 2]),
            ("supply_c0_s3", vec![2, 3]),
            ("supply_c1_s2", vec![0, 1]),
            ("supply_c1_s3", vec![0, 3]),
            ("supply_c2_s0", vec![1]),
        ];
        let expected: Vec<(String, Vec<Option<usize>>)> = expected
            .into_iter()
            .map(|(name, users)| (name.into(), users.into_iter().map(Some).collect()))
            .collect();
        assert_eq!(rows, expected);
        // Eleven (class, slice) groups, five rows.
        assert_eq!(compiled.supply_rows_dropped, 6);
    }

    /// Rows compare users across slices as subsequences, so the bucketing
    /// must keep each cell's uses in the order they were made.
    #[test]
    fn bucketing_is_a_stable_sort_by_class_then_slice() {
        let (n_classes, n_slices) = (5, 11);
        let var = Model::maximize().add_binary("x", 0.0);
        let uses: Vec<Use> = (0..300u32)
            .map(|i| Use {
                class: (i as usize * 7) % n_classes,
                slice: (i as usize * 3 + i as usize / 50) % n_slices,
                var,
                per: i,
            })
            .collect();
        let mut cell_uses = vec![0; n_classes * n_slices];
        for u in &uses {
            cell_uses[u.class * n_slices + u.slice] += 1;
        }
        let key = |u: &Use| (u.class, u.slice, u.per);
        let mut sorted = uses.clone();
        sorted.sort_by_key(|u| (u.class, u.slice));
        let bucketed = bucketed(&uses, n_slices, cell_uses);
        assert_eq!(
            bucketed.iter().map(key).collect::<Vec<_>>(),
            sorted.iter().map(key).collect::<Vec<_>>()
        );
    }

    #[test]
    fn partition_bound_is_the_least_free_count_the_leaf_covers() {
        let gpus = set(4, &[0, 1]);
        let all = set(4, &[0, 1, 2, 3]);
        let expr = StrlExpr::lnck(all.clone(), 4, 0, 3, 4.0);
        let partitions = PartitionSet::refine(4, &[gpus.clone(), all]);
        let input = CompileInput {
            expr: &expr,
            partitions: &partitions,
            now: 0,
            quantum: 1,
            n_slices: 3,
        };
        // The GPU class has one node free in slice 1 and none in slice 2;
        // the other class is always free.
        let compiled = compile(&input, &|class: &NodeSet, t| {
            if class.is_subset(&gpus) {
                [2, 1, 0][t as usize]
            } else {
                2
            }
        })
        .expect("expression is well-formed and inside the window; compile must succeed");
        let draws = &compiled.leaves[0].draws;
        assert_eq!(draws.len(), 1, "a class that can give nothing has no P");
        assert_eq!(compiled.model.var(draws[0].1).ub, 2.0);
        assert_eq!(compiled.leaves_dead, 0, "a linear leaf is never dead");
    }

    #[test]
    fn linear_leaf_takes_partial_allocation() {
        // LnCk over 3 machines asking for up to 4, value 4 (1 per node).
        let all = set(3, &[0, 1, 2]);
        let expr = StrlExpr::lnck(all.clone(), 4, 0, 10, 4.0);
        let partitions = PartitionSet::refine(3, &[all]);
        let (compiled, sol) = solve(&expr, &partitions, 10, 1, 3);
        assert!(
            (sol.objective - 3.0).abs() < 1e-6,
            "3 of 4 nodes => 3/4 of value"
        );
        let chosen = compiled.chosen(&sol);
        assert_eq!(chosen.len(), 1);
        let total: u32 = chosen[0].counts.iter().map(|&(_, c)| c).sum();
        assert_eq!(total, 3);
    }

    #[test]
    fn scale_amplifies_and_barrier_gates() {
        let all = set(2, &[0, 1]);
        let partitions = PartitionSet::refine(2, std::slice::from_ref(&all));
        // scale(3, leaf worth 2) = 6.
        let expr = StrlExpr::scale(3.0, StrlExpr::nck(all.clone(), 1, 0, 5, 2.0));
        let (_, sol) = solve(&expr, &partitions, 5, 1, 2);
        assert!((sol.objective - 6.0).abs() < 1e-6);

        // barrier(5, leaf worth 2): unreachable threshold => 0.
        let expr = StrlExpr::barrier(5.0, StrlExpr::nck(all.clone(), 1, 0, 5, 2.0));
        let (_, sol) = solve(&expr, &partitions, 5, 1, 2);
        assert!(sol.objective.abs() < 1e-6);

        // barrier(2, leaf worth 2): met => returns exactly 2.
        let expr = StrlExpr::barrier(2.0, StrlExpr::nck(all, 1, 0, 5, 2.0));
        let (_, sol) = solve(&expr, &partitions, 5, 1, 2);
        assert!((sol.objective - 2.0).abs() < 1e-6);
    }

    #[test]
    fn start_in_past_rejected() {
        let all = set(2, &[0, 1]);
        let partitions = PartitionSet::refine(2, std::slice::from_ref(&all));
        let expr = StrlExpr::nck(all, 1, 5, 5, 1.0);
        let input = CompileInput {
            expr: &expr,
            partitions: &partitions,
            now: 10,
            quantum: 5,
            n_slices: 4,
        };
        assert!(matches!(
            compile(&input, &|_, _| 2),
            Err(CompileError::StartInPast { .. })
        ));
    }

    #[test]
    fn start_beyond_window_rejected() {
        let all = set(2, &[0, 1]);
        let partitions = PartitionSet::refine(2, std::slice::from_ref(&all));
        let expr = StrlExpr::nck(all, 1, 100, 5, 1.0);
        let input = CompileInput {
            expr: &expr,
            partitions: &partitions,
            now: 0,
            quantum: 5,
            n_slices: 4,
        };
        assert!(matches!(
            compile(&input, &|_, _| 2),
            Err(CompileError::StartBeyondWindow { .. })
        ));
    }

    #[test]
    fn warm_vector_is_feasible_for_simple_choice() {
        let all = set(3, &[0, 1, 2]);
        let expr = StrlExpr::sum([StrlExpr::max([
            StrlExpr::nck(all.clone(), 2, 0, 10, 1.0),
            StrlExpr::nck(all.clone(), 2, 10, 10, 1.0),
        ])]);
        let partitions = PartitionSet::refine(3, &[all]);
        let input = CompileInput {
            expr: &expr,
            partitions: &partitions,
            now: 0,
            quantum: 10,
            n_slices: 2,
        };
        let compiled = compile(&input, &|_, _| 3)
            .expect("expression is well-formed and inside the window; compile must succeed");
        // Choose the second start with 2 nodes from class 0.
        let class = compiled.leaves[1].draws[0].0;
        let warm = compiled.warm_vector(&[(1, vec![(class, 2)])]);
        assert!(compiled.model.is_feasible(&warm, 1e-6));
        let sol = compiled
            .model
            .solve_warm(&SolverConfig::exact(), &warm)
            .expect("compiled models are solver-valid");
        assert!(sol.stats.warm_start_used);
    }

    #[test]
    fn leaf_order_is_depth_first() {
        let all = set(2, &[0, 1]);
        let expr = StrlExpr::sum([
            StrlExpr::max([
                StrlExpr::nck(all.clone(), 1, 0, 1, 1.0),
                StrlExpr::nck(all.clone(), 1, 1, 1, 1.0),
            ]),
            StrlExpr::nck(all.clone(), 1, 2, 1, 1.0),
        ]);
        let partitions = PartitionSet::refine(2, &[all]);
        let input = CompileInput {
            expr: &expr,
            partitions: &partitions,
            now: 0,
            quantum: 1,
            n_slices: 4,
        };
        let compiled = compile(&input, &|_, _| 2)
            .expect("expression is well-formed and inside the window; compile must succeed");
        let starts: Vec<Time> = compiled.leaves.iter().map(|l| l.start).collect();
        assert_eq!(starts, vec![0, 1, 2]);
        // Nested leaf has two ancestors (sum child, max child excluded —
        // ancestors are the chain above the leaf's own indicator).
        assert_eq!(compiled.leaves[0].ancestors.len(), 2);
        assert_eq!(compiled.leaves[2].ancestors.len(), 1);
    }
}
