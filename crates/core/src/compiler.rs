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
use std::rc::Rc;

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
    /// Where the leaf's nodes come from, as a range of the model's draws
    /// ([`CompiledModel::draws`]).
    pub draws: Range<usize>,
    /// Indicator chain from the root (exclusive) to the leaf's parent that
    /// must be set for the leaf to be active (used for warm starts); leaves
    /// made one after another under the same chain share it.
    pub ancestors: Rc<[VarId]>,
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
    /// Every leaf's draws, one leaf after another.
    draws: Vec<(usize, VarId, u32)>,
}

impl CompiledModel {
    /// Where `leaf`'s nodes come from: `(class index, var, nodes per unit
    /// of var)`. A partition variable counts nodes one for one; an `nCk`
    /// leaf left with a single class takes all `k` from it exactly when its
    /// indicator is set, so the indicator stands in (`P = k * I`).
    pub fn draws(&self, leaf: &LeafInfo) -> &[(usize, VarId, u32)] {
        self.draws.get(leaf.draws.clone()).unwrap_or_default()
    }

    /// Extracts the satisfied leaves and their per-class node counts.
    pub fn chosen(&self, sol: &Solution) -> Vec<ChosenAlloc> {
        let mut out = Vec::new();
        for (ix, leaf) in self.leaves.iter().enumerate() {
            if !sol.is_set(leaf.indicator) {
                continue;
            }
            let counts: Vec<(usize, u32)> = self
                .draws(leaf)
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
                self.draws(leaf)
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
    #[expect(
        clippy::indexing_slicing,
        reason = "every VarId written here was minted by this compiled model, and v is allocated \
                  with num_vars entries"
    )]
    pub fn warm_vector(&self, picks: &[(usize, Vec<(usize, u32)>)]) -> Vec<f64> {
        let mut v = vec![0.0; self.model.num_vars()];
        v[self.root_indicator.index()] = 1.0;
        for (leaf_ix, counts) in picks {
            let Some(leaf) = self.leaves.get(*leaf_ix) else {
                continue;
            };
            v[leaf.indicator.index()] = 1.0;
            for a in leaf.ancestors.iter() {
                v[a.index()] = 1.0;
            }
            let draws = self.draws(leaf);
            for (class, count) in counts {
                if let Some(&(_, var, per)) = draws.iter().find(|(c, _, _)| c == class) {
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
    // Sized once: a node makes at most one indicator and one row, a leaf
    // one `LeafInfo` and mostly one partition variable, demand row, span
    // and objective term.
    let (mut nodes, mut n_leaves) = (0, 0);
    input.expr.visit(&mut |e| {
        nodes += 1;
        n_leaves += usize::from(e.is_leaf());
    });
    let mut ctx = GenCtx {
        model: Model::maximize_with_capacity(1 + nodes + n_leaves, nodes + n_leaves),
        spans: Vec::with_capacity(n_leaves),
        leaves: Vec::with_capacity(n_leaves),
        draws: Vec::with_capacity(n_leaves),
        leaves_dead: 0,
        stack: Vec::new(),
        chain: None,
        caps: Vec::new(),
        supply: Supply::new(input, avail),
    };

    // genAndSolve: a free binary root indicator. It must stay free (not
    // pinned to 1) so that unsatisfiable subtrees — a `min` with a dead leg,
    // a `barrier` whose threshold is unreachable — can settle at zero value
    // instead of making the whole model infeasible; maximization turns it
    // on whenever any value is obtainable.
    let root = ctx.model.add_var("I_root", VarKind::Binary, 0.0, 1.0, 0.0);
    let mut terms = Vec::with_capacity(n_leaves);
    let constant = ctx.gen(input.expr, root, &mut terms)?;
    ctx.model.add_objective_expr(&LinExpr { terms, constant });
    let supply_rows_dropped = ctx.supply_rows();

    Ok(CompiledModel {
        model: ctx.model,
        leaves: ctx.leaves,
        root_indicator: root,
        leaves_dead: ctx.leaves_dead,
        supply_rows_dropped,
        draws: ctx.draws,
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
#[expect(
    clippy::indexing_slicing,
    reason = "`win` and `ix` only ever come from enumerating `alive`"
)]
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
    /// Each distinct leaf set met so far, keyed by a clone that shares the
    /// set's storage, and where its classes are in `classes`: leaves of one
    /// set cover once.
    covers: Vec<(NodeSet, Range<usize>)>,
    /// `(class, nodes in it)` of every cover, one cover after another.
    classes: Vec<(usize, usize)>,
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
            covers: Vec::new(),
            classes: Vec::new(),
            now: input.now,
            quantum: input.quantum.max(1),
            n_slices,
        }
    }

    /// The least expected free count of `class` over `slices`, and no more
    /// than `most`; once that is 0, no further cell is asked for.
    #[expect(
        clippy::indexing_slicing,
        reason = "`free` holds partitions.len() x n_slices cells; class comes from \
                  partitions.cover and slices stop below n_slices"
    )]
    fn least_free(&mut self, class: usize, slices: Range<usize>, mut most: usize) -> usize {
        let row = class * self.n_slices;
        for slice in slices {
            let cell = &mut self.free[row + slice];
            if *cell == UNASKED {
                if most == 0 {
                    break;
                }
                let t = self.now + slice as u64 * self.quantum;
                *cell = (self.avail)(self.partitions.class(class), t);
            }
            most = most.min(*cell);
        }
        most
    }

    /// Where in `classes` the classes covering `set` are: found by the
    /// set's storage, or covered now and kept.
    fn cover(&mut self, set: &NodeSet) -> Result<Range<usize>, CompileError> {
        if let Some((_, at)) = self.covers.iter().find(|(s, _)| s.shares_storage(set)) {
            return Ok(at.clone());
        }
        let from = self.classes.len();
        for class in self.partitions.covering(set) {
            let class = class.map_err(|class| CompileError::UnalignedSet { class })?;
            self.classes
                .push((class, self.partitions.class(class).len()));
        }
        let at = from..self.classes.len();
        self.covers.push((set.clone(), at.clone()));
        Ok(at)
    }

    /// What each class of `set` can give a leaf wanting `k` nodes over
    /// `[start, start + dur)`, written to `caps` as `(class, cap)` in `cover`
    /// order: no more than the class's size, than `k`, or than it has free
    /// in any slice the leaf covers. Every supply row of the class over
    /// those slices implies the cap, and a class whose cap is 0 is left out.
    /// Returns the slices the leaf covers and whether it is dead: an `nCk`
    /// leaf whose caps sum below `k`, left with no caps.
    #[expect(
        clippy::indexing_slicing,
        reason = "`cover` returns a range of `classes`"
    )]
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
        let slices = first_slice..last_slice;

        caps.clear();
        let mut reachable = 0;
        for ix in self.cover(set)? {
            let (class, size) = self.classes[ix];
            let cap = self.least_free(class, slices.clone(), size.min(k as usize));
            if cap > 0 {
                caps.push((class, cap));
                reachable += cap;
            }
        }
        let dead = !linear && reachable < k as usize;
        if dead {
            caps.clear();
        }
        Ok((slices, dead))
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

/// One leaf's use of one class: `per * var` nodes in every slice of
/// `from..to`.
#[derive(Clone, Copy)]
struct Span {
    class: usize,
    from: usize,
    to: usize,
    var: VarId,
    per: u32,
}

/// Whether every user of `sub` is one of `sup`. Both list a class's users in
/// leaf order, so this is a subsequence test.
fn covers(sup: &[(VarId, u32)], sub: &[(VarId, u32)]) -> bool {
    let mut sup = sup.iter();
    sub.iter().all(|u| sup.any(|s| s == u))
}

struct GenCtx<'a> {
    model: Model,
    /// Who uses which class over which slices, in leaf order.
    spans: Vec<Span>,
    leaves: Vec<LeafInfo>,
    /// The leaves' draws, one leaf after another.
    draws: Vec<(usize, VarId, u32)>,
    leaves_dead: usize,
    /// Indicator chain from the root to the current node.
    stack: Vec<VarId>,
    /// The last leaf's `ancestors`: the next leaf shares them while `stack`
    /// still reads the same.
    chain: Option<Rc<[VarId]>>,
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
    /// One sweep per class over the slices where its spans start or end:
    /// between two such slices the users do not change, so each interval
    /// is one group of Algorithm 1's rows, its users the spans covering it
    /// in leaf order. Consecutive intervals with the same users are one row
    /// at the least of their free counts; a row is implied, and dropped,
    /// when another row of its class has every one of its users and no
    /// larger right-hand side (every use is non-negative), whatever shape
    /// the availability profile has.
    #[expect(
        clippy::indexing_slicing,
        reason = "span ends are at most n_slices, so their bits are in `points`, and every row's \
                  range was cut from `users`"
    )]
    fn supply_rows(&mut self) -> usize {
        let GenCtx {
            model,
            spans,
            supply,
            ..
        } = self;
        // The slices where a span of the current class starts or ends, as
        // bits; the sweep clears them.
        let mut points = vec![0u64; (supply.n_slices + 1).div_ceil(64)];
        // The current class's spans, in leaf order.
        let mut mine: Vec<Span> = Vec::with_capacity(spans.len());
        // The class's merged rows, `(users, free, first slice)`, and their
        // users, one row after another. A class has fewer intervals than
        // twice its spans, so `rows` never regrows; `users` starts at a few
        // users a row.
        let mut rows: Vec<(Range<usize>, usize, usize)> = Vec::with_capacity(2 * spans.len());
        let mut users: Vec<(VarId, u32)> = Vec::with_capacity(4 * spans.len());
        let (mut groups, mut emitted) = (0, 0);
        for class in 0..supply.partitions.len() {
            mine.clear();
            mine.extend(spans.iter().filter(|s| s.class == class));
            if mine.is_empty() {
                continue;
            }
            for s in &mine {
                points[s.from / 64] |= 1 << (s.from % 64);
                points[s.to / 64] |= 1 << (s.to % 64);
            }
            rows.clear();
            users.clear();
            let mut last = None;
            for (w, word) in points.iter_mut().enumerate() {
                while *word != 0 {
                    let to = w * 64 + word.trailing_zeros() as usize;
                    *word &= *word - 1;
                    let Some(from) = last.replace(to) else {
                        continue;
                    };
                    // The interval's users, taken as a new row's.
                    let at = users.len();
                    let covering = mine.iter().filter(|s| s.from <= from && from < s.to);
                    users.extend(covering.map(|s| (s.var, s.per)));
                    if users.len() == at {
                        continue;
                    }
                    groups += to - from;
                    let free = supply.least_free(class, from..to, usize::MAX);
                    match rows.last_mut() {
                        Some((of, least, _)) if users[of.clone()] == users[at..] => {
                            *least = (*least).min(free);
                            users.truncate(at);
                        }
                        _ => rows.push((at..users.len(), free, from)),
                    }
                }
            }
            for (i, (of, free, slice)) in rows.iter().enumerate() {
                let mine = &users[of.clone()];
                // Of two rows that imply each other the earlier is kept.
                let implied = rows.iter().enumerate().any(|(j, (sup, other, _))| {
                    j != i
                        && other <= free
                        && sup.len() >= mine.len()
                        && (other < free || sup.len() > mine.len() || j < i)
                        && covers(&users[sup.clone()], mine)
                });
                if !implied {
                    emitted += 1;
                    model.add_constraint(
                        Name::Idx2("supply_c", class as u64, "_s", *slice as u64),
                        mine.iter().map(|&(var, per)| (var, per as f64)),
                        Sense::Le,
                        *free as f64,
                    );
                }
            }
        }
        groups - emitted
    }

    /// Algorithm 1's `gen(expr, I)`: appends the subtree's objective terms
    /// to `objective` and returns its constant.
    fn gen(
        &mut self,
        expr: &StrlExpr,
        indicator: VarId,
        objective: &mut Vec<(VarId, f64)>,
    ) -> Result<f64, CompileError> {
        match expr {
            StrlExpr::NCk {
                set,
                k,
                start,
                dur,
                value,
            } => self.gen_leaf(set, *k, *start, *dur, *value, indicator, false, objective),
            StrlExpr::LnCk {
                set,
                k,
                start,
                dur,
                value,
            } => self.gen_leaf(set, *k, *start, *dur, *value, indicator, true, objective),
            StrlExpr::Max(children) | StrlExpr::Sum(children) => {
                // At most one child of a `max` is chosen, at most all of a
                // `sum`'s, and none when I = 0.
                let (prefix, row, most) = match expr {
                    StrlExpr::Max(_) => ("I_max", "max_choice", 1.0),
                    _ => ("I_sum", "sum_gate", children.len() as f64),
                };
                let mut constant = 0.0;
                // The indicator is older than the children's, so the row is
                // made in variable order, the order the model keeps it in.
                let mut child_terms = Vec::with_capacity(children.len() + 1);
                child_terms.push((indicator, -most));
                for (i, child) in children.iter().enumerate() {
                    let ci = self.model.add_binary(Name::Idx(prefix, i as u64), 0.0);
                    child_terms.push((ci, 1.0));
                    self.stack.push(indicator);
                    constant += self.gen(child, ci, objective)?;
                    self.stack.pop();
                }
                self.model.add_constraint(row, child_terms, Sense::Le, 0.0);
                Ok(constant)
            }
            StrlExpr::Min(children) => {
                if children.is_empty() {
                    // A vacuous `min` carries no value (and an unbounded V
                    // variable would make the model unbounded).
                    return Ok(0.0);
                }
                // V represents the minimum child objective; maximization
                // pushes it up to the true minimum.
                let v = self
                    .model
                    .add_var("V_min", VarKind::Continuous, 0.0, f64::INFINITY, 0.0);
                for child in children {
                    // Children share the parent's indicator (Algorithm 1).
                    self.at_most("min_bound", (v, 1.0), child, indicator)?;
                }
                objective.push((v, 1.0));
                Ok(0.0)
            }
            StrlExpr::Scale { factor, child } => {
                let from = objective.len();
                let constant = self.gen(child, indicator, objective)?;
                for (_, c) in objective.iter_mut().skip(from) {
                    *c *= factor;
                }
                Ok(constant * factor)
            }
            StrlExpr::Barrier { value, child } => {
                self.at_most("barrier", (indicator, *value), child, indicator)?;
                objective.push((indicator, *value));
                Ok(0.0)
            }
        }
    }

    /// The row `coeff * var <= f`, where `f` is `child`'s objective under
    /// `indicator`, generated into an expression of its own.
    fn at_most(
        &mut self,
        name: &'static str,
        (var, coeff): (VarId, f64),
        child: &StrlExpr,
        indicator: VarId,
    ) -> Result<(), CompileError> {
        let mut f = LinExpr::new();
        f.constant = self.gen(child, indicator, &mut f.terms)?;
        // coeff * var - f <= f.constant: the constant moves right.
        let f = f.compact();
        let terms = f.terms.iter().map(|&(v, c)| (v, -c));
        self.model.add_constraint(
            name,
            std::iter::once((var, coeff)).chain(terms),
            Sense::Le,
            f.constant,
        );
        Ok(())
    }

    #[expect(
        clippy::indexing_slicing,
        reason = "`from` is the length of `draws` before this leaf's were pushed"
    )]
    #[allow(
        clippy::too_many_arguments,
        reason = "a leaf's five fields, its indicator, its kind and the objective, passed \
                  straight from `gen`'s match"
    )]
    fn gen_leaf(
        &mut self,
        set: &NodeSet,
        k: u32,
        start: Time,
        dur: u64,
        value: f64,
        indicator: VarId,
        linear: bool,
        objective: &mut Vec<(VarId, f64)>,
    ) -> Result<f64, CompileError> {
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
        let from = self.draws.len();
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
            self.draws.push((class, var, per));
            if !slices.is_empty() {
                self.spans.push(Span {
                    class,
                    from: slices.start,
                    to: slices.end,
                    var,
                    per,
                });
            }
        }
        let draws = &self.draws[from..];
        // In variable order, as for a `max`: the indicator is the older.
        let demand = std::iter::once((indicator, -(k as f64)))
            .chain(draws.iter().map(|&(_, p, _)| (p, 1.0)));

        if linear {
            // sum(P) <= k * I (nothing to say with no P); objective v/k per
            // node obtained.
            if !draws.is_empty() {
                self.model
                    .add_constraint("lnck_demand", demand, Sense::Le, 0.0);
            }
            let per_node = value / k as f64;
            objective.extend(draws.iter().map(|&(_, p, _)| (p, per_node)));
        } else if !dead {
            // sum(P) = k * I, which `sole` has substituted; objective v when
            // chosen.
            if !sole {
                self.model
                    .add_constraint("nck_demand", demand, Sense::Eq, 0.0);
            }
            objective.push((indicator, value));
        }

        let ancestors = match &self.chain {
            Some(chain) if **chain == *self.stack => Rc::clone(chain),
            _ => Rc::clone(self.chain.insert(self.stack.as_slice().into())),
        };
        self.leaves.push(LeafInfo {
            start,
            dur,
            k,
            linear,
            indicator,
            draws: from..self.draws.len(),
            ancestors,
        });
        Ok(0.0)
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
        assert!(compiled.draws(dead).is_empty());
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
                .find(|(_, leaf)| compiled.draws(leaf).iter().any(|&(_, v, _)| v == var))
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

    /// SplitMix64, for the differential test's own draws.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: u64) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) % n
        }

        fn pick(&mut self, of: &[NodeSet]) -> NodeSet {
            of[self.below(of.len() as u64) as usize].clone()
        }
    }

    /// A leaf over one of `sets`: a start anywhere in the window (quantum 4,
    /// six slices from 100), a duration that may be zero or run past the
    /// window's end, and `k` that may exceed what its set has.
    fn random_leaf(rng: &mut Rng, sets: &[NodeSet], linear: bool) -> StrlExpr {
        let set = rng.pick(sets);
        let k = 1 + rng.below(set.len() as u64) as u32 + u32::from(rng.below(8) == 0);
        let start = 100 + rng.below(24);
        let dur = [0, 1, 4, 7, 12, 40][rng.below(6) as usize];
        let value = 1.0 + rng.below(4) as f64;
        if linear {
            StrlExpr::lnck(set, k, start, dur, value)
        } else {
            StrlExpr::nck(set, k, start, dur, value)
        }
    }

    /// A job: a `max` over single leaves, `min`s whose legs share its
    /// indicator (and may share a class and `k`), `scale`s and `barrier`s.
    fn random_job(rng: &mut Rng, sets: &[NodeSet]) -> StrlExpr {
        let options = (0..1 + rng.below(4))
            .map(|_| match rng.below(6) {
                0 => random_leaf(rng, sets, true),
                1 | 2 => {
                    let legs = 2 + rng.below(2);
                    StrlExpr::min((0..legs).map(|_| random_leaf(rng, sets, false)))
                }
                3 => StrlExpr::scale(0.5 + rng.below(3) as f64, random_leaf(rng, sets, false)),
                4 => StrlExpr::barrier(
                    1.0 + rng.below(3) as f64,
                    StrlExpr::sum([random_leaf(rng, sets, false), random_leaf(rng, sets, true)]),
                ),
                _ => random_leaf(rng, sets, false),
            })
            .collect::<Vec<_>>();
        StrlExpr::max(options)
    }

    /// `(set, k, start, dur, linear)` of every leaf, in depth-first order.
    fn leaves_of(expr: &StrlExpr) -> Vec<(NodeSet, u32, Time, u64, bool)> {
        let mut out = Vec::new();
        expr.visit(&mut |e| match e {
            StrlExpr::NCk {
                set, k, start, dur, ..
            } => out.push((set.clone(), *k, *start, *dur, false)),
            StrlExpr::LnCk {
                set, k, start, dur, ..
            } => out.push((set.clone(), *k, *start, *dur, true)),
            _ => {}
        });
        out
    }

    /// A row's terms in canonical form: by variable, duplicates summed.
    fn canonical(terms: impl IntoIterator<Item = (VarId, f64)>) -> Vec<(VarId, f64)> {
        let mut terms: Vec<(VarId, f64)> = terms.into_iter().collect();
        terms.sort_by_key(|&(v, _)| v);
        let mut out: Vec<(VarId, f64)> = Vec::with_capacity(terms.len());
        for (v, c) in terms {
            match out.last_mut() {
                Some((lv, lc)) if *lv == v => *lc += c,
                _ => out.push((v, c)),
            }
        }
        out.retain(|&(_, c)| c != 0.0);
        out
    }

    /// A supply row as the model holds it: name, canonical terms, rhs.
    type Row = (String, Vec<(VarId, f64)>, f64);

    /// One use of capacity: `(class, slice, var, per)`.
    type Cell = (usize, usize, VarId, u32);

    /// The supply rows Algorithm 1's per-(class, slice) construction
    /// reduces to, built slice by slice from the compiled leaves' draws:
    /// every use in its (class, slice) cell, the cells in ascending order
    /// with each cell's uses in leaf order, consecutive cells with the same
    /// users merged at the least free count, and a row implied by another
    /// of its class dropped. Returns the rows as `(name, terms, rhs)` and
    /// how many cells were left without a row of their own.
    fn per_slice_rows(
        compiled: &CompiledModel,
        free: &[Vec<usize>],
        slices_of: impl Fn(&LeafInfo) -> Range<usize>,
    ) -> (Vec<Row>, usize) {
        // (class, slice, var, per) in the order the leaves make them.
        let mut uses = Vec::new();
        for leaf in &compiled.leaves {
            for &(class, var, per) in compiled.draws(leaf) {
                for slice in slices_of(leaf) {
                    uses.push((class, slice, var, per));
                }
            }
        }
        uses.sort_by_key(|&(class, slice, _, _)| (class, slice));
        let same = |a: &[Cell], b: &[Cell]| {
            a.len() == b.len() && a.iter().zip(b).all(|(x, y)| (x.2, x.3) == (y.2, y.3))
        };
        let covers = |sup: &[Cell], sub: &[Cell]| {
            let mut sup = sup.iter();
            sub.iter().all(|u| sup.any(|s| (s.2, s.3) == (u.2, u.3)))
        };
        let (mut out, mut cells) = (Vec::new(), 0);
        for of_class in uses.chunk_by(|a, b| a.0 == b.0) {
            let mut rows: Vec<(&[Cell], usize)> = Vec::new();
            for users in of_class.chunk_by(|a, b| a.1 == b.1) {
                cells += 1;
                let f = free[users[0].0][users[0].1];
                match rows.last_mut() {
                    Some(last) if same(last.0, users) => last.1 = last.1.min(f),
                    _ => rows.push((users, f)),
                }
            }
            for (i, &(users, f)) in rows.iter().enumerate() {
                let implied = rows.iter().enumerate().any(|(j, &(sup, other))| {
                    j != i
                        && other <= f
                        && sup.len() >= users.len()
                        && (other < f || sup.len() > users.len() || j < i)
                        && covers(sup, users)
                });
                if !implied {
                    let name = format!("supply_c{}_s{}", users[0].0, users[0].1);
                    let terms = canonical(users.iter().map(|u| (u.2, u.3 as f64)));
                    out.push((name, terms, f as f64));
                }
            }
        }
        let dropped = cells - out.len();
        (out, dropped)
    }

    /// `compile`'s supply rows and partition bounds against Algorithm 1's
    /// per-slice construction, over random requests and free tables with
    /// empty cells, `min` legs sharing an indicator and leaves that run past
    /// the window or cover no slice at all.
    #[test]
    fn supply_rows_and_bounds_match_the_per_slice_construction() {
        const NOW: Time = 100;
        const QUANTUM: u64 = 4;
        const N_SLICES: usize = 6;
        let racks: Vec<NodeSet> = (0..4).map(|r| set(8, &[2 * r, 2 * r + 1])).collect();
        let sets = [
            racks[0].clone(),
            racks[1].clone(),
            racks[2].clone(),
            racks[0].or(&racks[1]),
            racks[1].or(&racks[2]).or(&racks[3]),
            NodeSet::full(8),
        ];
        let slices_of = |start: Time, dur: u64| {
            let rel = start - NOW;
            let first = (rel / QUANTUM) as usize;
            first..((rel + dur).div_ceil(QUANTUM) as usize).min(N_SLICES)
        };
        let mut rng = Rng(0x5EED_0000_0000_0042);
        let (mut rows_seen, mut dropped_seen, mut dead_seen, mut shared_seen) = (0, 0, 0, 0);
        for _ in 0..400 {
            let jobs = 1 + rng.below(4);
            let expr = StrlExpr::sum((0..jobs).map(|_| random_job(&mut rng, &sets)));
            let leaves = leaves_of(&expr);
            let leaf_sets: Vec<NodeSet> = leaves.iter().map(|l| l.0.clone()).collect();
            let partitions = PartitionSet::refine(8, &leaf_sets);
            // Free nodes by class and slice; a fifth of the cells empty.
            let free: Vec<Vec<usize>> = (0..partitions.len())
                .map(|c| {
                    let size = partitions.class(c).len() as u64;
                    let mut cell = || match rng.below(5) {
                        0 => 0,
                        1 => rng.below(size + 1) as usize,
                        _ => size as usize,
                    };
                    (0..N_SLICES).map(|_| cell()).collect()
                })
                .collect();
            let input = CompileInput {
                expr: &expr,
                partitions: &partitions,
                now: NOW,
                quantum: QUANTUM,
                n_slices: N_SLICES,
            };
            let avail = |class: &NodeSet, t: Time| {
                let c = partitions.classes().iter().position(|p| p == class);
                free[c.expect("asked for a class")][((t - NOW) / QUANTUM) as usize]
            };
            let compiled = compile(&input, &avail).expect("random requests compile");

            // Partition bounds: the least free count over the leaf's slices.
            assert_eq!(compiled.leaves.len(), leaves.len());
            for (info, (set, k, start, dur, linear)) in compiled.leaves.iter().zip(&leaves) {
                let caps: Vec<(usize, usize)> = partitions
                    .cover(set)
                    .expect("refined against every leaf set")
                    .into_iter()
                    .map(|c| {
                        let least = slices_of(*start, *dur).map(|s| free[c][s]).min();
                        let size = partitions.class(c).len().min(*k as usize);
                        (c, least.map_or(size, |l| l.min(size)))
                    })
                    .filter(|&(_, cap)| cap > 0)
                    .collect();
                let dead = !linear && caps.iter().map(|&(_, cap)| cap).sum::<usize>() < *k as usize;
                dead_seen += usize::from(dead);
                if dead {
                    assert!(info.draws.is_empty());
                    assert_eq!(compiled.model.var(info.indicator).ub, 0.0);
                    continue;
                }
                let draws = compiled.draws(info);
                let classes: Vec<usize> = draws.iter().map(|d| d.0).collect();
                let want: Vec<usize> = caps.iter().map(|c| c.0).collect();
                assert_eq!(classes, want, "{expr}");
                let sole = !linear && caps.len() == 1;
                for (&(_, var, per), &(_, cap)) in draws.iter().zip(&caps) {
                    if sole {
                        assert_eq!((var, per), (info.indicator, *k));
                    } else {
                        assert_eq!(per, 1);
                        assert_eq!(compiled.model.var(var).ub, cap as f64, "{expr}");
                    }
                }
            }

            let (want, dropped) =
                per_slice_rows(&compiled, &free, |leaf| slices_of(leaf.start, leaf.dur));
            let got: Vec<Row> = compiled
                .model
                .constraints()
                .iter()
                .filter(|c| c.name.to_string().starts_with("supply"))
                .map(|c| (c.name.to_string(), c.terms.clone(), c.rhs))
                .collect();
            assert_eq!(got, want, "{expr}");
            assert_eq!(compiled.supply_rows_dropped, dropped, "{expr}");
            rows_seen += got.len();
            dropped_seen += dropped;
            for (i, a) in compiled.leaves.iter().enumerate() {
                shared_seen += compiled.leaves[i + 1..]
                    .iter()
                    .filter(|b| {
                        b.indicator == a.indicator
                            && compiled
                                .draws(b)
                                .iter()
                                .any(|d| compiled.draws(a).iter().any(|e| e.0 == d.0))
                    })
                    .count();
            }
        }
        assert!(
            rows_seen > 1500 && dropped_seen > 500 && dead_seen > 500 && shared_seen > 100,
            "{rows_seen} rows, {dropped_seen} dropped, {dead_seen} dead leaves, \
             {shared_seen} legs sharing a class and an indicator"
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
        let draws = compiled.draws(&compiled.leaves[0]);
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
        let class = compiled.draws(&compiled.leaves[1])[0].0;
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
