//! Integer feasibility: interval propagation, exclusion points, and branch &
//! bound over the exact simplex.
//!
//! This is the solver DART calls on every `solve_path_constraint` (Fig. 5 of
//! the paper). The theory is conjunctions of linear integer constraints over
//! boxed variables (program inputs are 32-bit words, §2.2). `!=` constraints
//! on a single variable become *excluded points*; multi-variable `!=` is
//! case-split. Everything else reduces to `<= 0` rows which are decided by
//! interval propagation plus branch & bound on the LP relaxation.

use crate::constraint::{Constraint, NormalForm};
use crate::linear::Var;
use crate::rational::{ArithError, Rat};
use crate::simplex::{feasible_point, Lp, LpResult, LpRow, LpSession};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Inclusive variable bounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Bounds {
    /// Inclusive lower bound.
    pub lo: i64,
    /// Inclusive upper bound.
    pub hi: i64,
}

impl Bounds {
    /// The 32-bit signed box used for DART program inputs.
    pub const I32: Bounds = Bounds {
        lo: i32::MIN as i64,
        hi: i32::MAX as i64,
    };

    /// Creates bounds, panicking if `lo > hi`.
    pub fn new(lo: i64, hi: i64) -> Bounds {
        assert!(lo <= hi, "empty bounds {lo}..={hi}");
        Bounds { lo, hi }
    }
}

impl Default for Bounds {
    fn default() -> Bounds {
        Bounds::I32
    }
}

/// A satisfying assignment: values for every variable the constraints
/// mention. Variables not mentioned are unconstrained and keep whatever value
/// the caller already had (the paper's `IM + IM'` update).
pub type Assignment = BTreeMap<Var, i64>;

/// Outcome of a solve.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SolveOutcome {
    /// A model was found.
    Sat(Assignment),
    /// The conjunction is unsatisfiable over the boxed integers.
    Unsat,
    /// The solver gave up (arithmetic overflow or resource cap). DART treats
    /// this like `Unsat` for search purposes but records it separately so a
    /// search that hit `Unknown` is never reported as *complete*.
    Unknown,
}

impl SolveOutcome {
    /// Whether this outcome carries a model.
    pub fn is_sat(&self) -> bool {
        matches!(self, SolveOutcome::Sat(_))
    }
}

/// Per-query diagnostics filled in by [`Solver::solve_with_hint_info`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolveInfo {
    /// Variable-connected components the query split into (0 when the
    /// query was settled before partitioning, 1 when it was connected).
    pub components: usize,
}

impl SolveInfo {
    /// Whether independence splitting actually partitioned the query.
    pub fn was_split(&self) -> bool {
        self.components > 1
    }
}

/// Per-session solver-internal counters, snapshot via
/// [`PrefixSession::stats`]: warm-LP engine activity plus portfolio race
/// outcomes. All four are scheduling-dependent diagnostics (they vary with
/// cache state, speculation and the portfolio toggle), never observables.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Dual-simplex pivots performed by the warm LP engine.
    pub warm_pivots: u64,
    /// Warm-engine dictionary builds/fallbacks to the cold two-phase
    /// simplex.
    pub cold_restarts: u64,
    /// Portfolio races settled decisively by the FD arm (a model).
    pub portfolio_fd_wins: u64,
    /// Portfolio races settled decisively by the LP arm (a refutation).
    pub portfolio_lp_wins: u64,
}

impl SessionStats {
    /// The counts added since the snapshot `earlier` of the same session:
    /// a long-lived session's counters only grow, so a caller that reports
    /// per-call activity takes this delta instead of the running totals.
    pub fn since(self, earlier: SessionStats) -> SessionStats {
        SessionStats {
            warm_pivots: self.warm_pivots - earlier.warm_pivots,
            cold_restarts: self.cold_restarts - earlier.cold_restarts,
            portfolio_fd_wins: self.portfolio_fd_wins - earlier.portfolio_fd_wins,
            portfolio_lp_wins: self.portfolio_lp_wins - earlier.portfolio_lp_wins,
        }
    }
}

/// Tunable solver limits.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolverConfig {
    /// Box applied to every variable (program inputs are 32-bit words).
    pub default_bounds: Bounds,
    /// Maximum branch & bound nodes per case-split leaf.
    pub max_bb_nodes: usize,
    /// Maximum assign-and-propagate nodes per case-split leaf (the
    /// hint-guided finite-domain search tried before LP branch & bound).
    pub max_fd_nodes: usize,
    /// Maximum feasibility checks per query (bounds the lazy case
    /// analysis over multi-variable `!=`).
    pub max_ne_leaves: usize,
    /// Maximum interval-propagation sweeps.
    pub max_propagation_rounds: usize,
    /// Wall-clock deadline per query. When set, a query that runs past it
    /// stops at the next search node and returns [`SolveOutcome::Unknown`]
    /// — sound degradation (DART records `Unknown` as incompleteness,
    /// never as `Unsat`). `None` (the default) means node budgets alone
    /// bound the query, with zero timing overhead.
    pub deadline: Option<Duration>,
    /// Race the hint-guided FD search against the shared-prefix LP screen
    /// on two threads per session query, first *decisive* verdict wins
    /// (see [`PrefixSession`]). The commit rule is deterministic, so
    /// outcomes — and report bytes — are identical to the sequential
    /// pipeline; only wall-clock time changes. Off by default.
    pub portfolio: bool,
    /// Warm-start the shared-prefix LP with a persistent dual-simplex
    /// dictionary ([`LpSession::with_warm`]). On by default; turning it
    /// off restores the cold re-solve engine for ablation. Verdicts are
    /// identical either way.
    pub lp_warm: bool,
}

impl Default for SolverConfig {
    fn default() -> SolverConfig {
        SolverConfig {
            default_bounds: Bounds::I32,
            max_bb_nodes: 20_000,
            max_fd_nodes: 4_000,
            max_ne_leaves: 512,
            max_propagation_rounds: 100,
            deadline: None,
            portfolio: false,
            lp_warm: true,
        }
    }
}

/// Why a search gave up: an arithmetic/budget failure, or the per-query
/// wall-clock deadline. Both surface as [`SolveOutcome::Unknown`].
#[derive(Debug)]
enum Stop {
    Arith(ArithError),
    Deadline,
}

impl From<ArithError> for Stop {
    fn from(e: ArithError) -> Stop {
        Stop::Arith(e)
    }
}

/// Per-query deadline clock, started when the query enters the solver.
/// With no deadline configured and no cancel token attached,
/// [`QueryClock::expired`] never touches the system clock.
#[derive(Debug, Clone, Copy)]
struct QueryClock<'a> {
    deadline: Option<Instant>,
    /// Cooperative cancel token, set by a racing portfolio arm's decisive
    /// finish; observed at every point the deadline is. Cancellation rides
    /// the same give-up paths as deadline expiry, so cancelled searches
    /// degrade to indecision, never to a wrong verdict.
    cancel: Option<&'a AtomicBool>,
}

impl QueryClock<'_> {
    fn start(deadline: Option<Duration>) -> QueryClock<'static> {
        QueryClock {
            deadline: deadline.map(|d| Instant::now() + d),
            cancel: None,
        }
    }

    /// The same deadline, additionally observing `cancel`.
    fn with_cancel<'a>(&self, cancel: &'a AtomicBool) -> QueryClock<'a> {
        QueryClock {
            deadline: self.deadline,
            cancel: Some(cancel),
        }
    }

    fn expired(&self) -> bool {
        self.cancel.is_some_and(|t| t.load(Ordering::Relaxed))
            || self.deadline.is_some_and(|d| Instant::now() >= d)
    }
}

/// Decision procedure for conjunctions of linear integer constraints over
/// boxed variables.
///
/// # Examples
///
/// ```
/// use dart_solver::{Constraint, LinExpr, RelOp, Solver, SolveOutcome, Var};
///
/// let solver = Solver::default();
/// // x0 == 10  and  x0 - x1 > 0
/// let cs = vec![
///     Constraint::new(LinExpr::var(Var(0)).offset(-10), RelOp::Eq),
///     Constraint::new(LinExpr::var(Var(0)).sub(&LinExpr::var(Var(1))), RelOp::Gt),
/// ];
/// match solver.solve(&cs) {
///     SolveOutcome::Sat(model) => {
///         assert_eq!(model[&Var(0)], 10);
///         assert!(model[&Var(1)] < 10);
///     }
///     other => panic!("expected sat, got {other:?}"),
/// }
/// ```
#[derive(Debug, Clone, Default)]
pub struct Solver {
    config: SolverConfig,
}

impl Solver {
    /// Creates a solver with the given limits.
    pub fn new(config: SolverConfig) -> Solver {
        Solver { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &SolverConfig {
        &self.config
    }

    /// Starts an incremental prefix session: push the path constraints of a
    /// run once, then answer each `negated_prefix(j)` query from the shared
    /// prefix state instead of rebuilding it (see [`PrefixSession`]).
    pub fn session(&self) -> PrefixSession {
        PrefixSession::new(self.clone())
    }

    /// Solves the conjunction of `constraints`.
    pub fn solve(&self, constraints: &[Constraint]) -> SolveOutcome {
        self.solve_with_hint(constraints, |_| None)
    }

    /// Solves the conjunction, preferring values from `hint` where possible
    /// (DART passes the previous run's input vector so solutions stay close
    /// to the already-explored execution).
    pub fn solve_with_hint<F>(&self, constraints: &[Constraint], hint: F) -> SolveOutcome
    where
        F: Fn(Var) -> Option<i64>,
    {
        let mut info = SolveInfo::default();
        self.solve_with_hint_info(constraints, hint, &mut info)
    }

    /// [`Solver::solve_with_hint`] that also reports per-query diagnostics
    /// (how many independent components the query split into).
    pub fn solve_with_hint_info<F>(
        &self,
        constraints: &[Constraint],
        hint: F,
        info: &mut SolveInfo,
    ) -> SolveOutcome
    where
        F: Fn(Var) -> Option<i64>,
    {
        // 1. Triviality screening.
        let mut live: Vec<&Constraint> = Vec::with_capacity(constraints.len());
        for c in constraints {
            match c.triviality() {
                Some(true) => {}
                Some(false) => return SolveOutcome::Unsat,
                None => live.push(c),
            }
        }

        // 2. GCD integrality test: `sum a_i x_i + k == 0` has no integer
        //    solution unless gcd(a_i) divides k. Detects integrality gaps
        //    that branch & bound would otherwise crawl over.
        for c in &live {
            if gcd_infeasible(c) {
                return SolveOutcome::Unsat;
            }
        }
        if live.is_empty() {
            return SolveOutcome::Sat(Assignment::new());
        }

        // 3. Constraint-independence splitting: partition the conjunction
        //    into variable-connected components and decide each one on its
        //    own. A DART `negated_prefix(j)` query only *changes* the
        //    component containing the negated constraint's variables — every
        //    other component is already satisfied by the previous run's
        //    input vector, so its per-component hint probe answers it
        //    without any search.
        let clock = QueryClock::start(self.config.deadline);
        let components = connected_components(&live);
        info.components = components.len();
        if components.len() == 1 {
            return self.solve_component(&live, &hint, &clock);
        }
        let mut model = Assignment::new();
        for comp in &components {
            let subset: Vec<&Constraint> = comp.iter().map(|&i| live[i]).collect();
            match self.solve_component(&subset, &hint, &clock) {
                SolveOutcome::Sat(part) => model.extend(part),
                SolveOutcome::Unsat => return SolveOutcome::Unsat,
                SolveOutcome::Unknown => return SolveOutcome::Unknown,
            }
        }
        SolveOutcome::Sat(model)
    }

    /// Decides one variable-connected conjunction of non-trivial
    /// constraints: cheap probes, normalization, then the lazy `!=` case
    /// analysis over interval propagation + branch & bound.
    fn solve_component<F>(&self, live: &[&Constraint], hint: &F, clock: &QueryClock) -> SolveOutcome
    where
        F: Fn(Var) -> Option<i64>,
    {
        // Dense variable numbering.
        let mut vars: Vec<Var> = Vec::new();
        let mut var_idx: HashMap<Var, usize> = HashMap::new();
        for c in live {
            for v in c.vars() {
                var_idx.entry(v).or_insert_with(|| {
                    vars.push(v);
                    vars.len() - 1
                });
            }
        }
        let n = vars.len();
        if n == 0 {
            return SolveOutcome::Sat(Assignment::new());
        }

        // Cheap probes against the *original* constraints: the hint
        // itself, then all-zeros clamped into range.
        let b = self.config.default_bounds;
        let probe_sat = |pick: &dyn Fn(Var) -> i64| -> Option<Assignment> {
            let ok = live
                .iter()
                .all(|c| c.satisfied_by(|v| Some(pick(v).clamp(b.lo, b.hi))));
            if ok {
                Some(
                    vars.iter()
                        .map(|&v| (v, pick(v).clamp(b.lo, b.hi)))
                        .collect(),
                )
            } else {
                None
            }
        };
        if let Some(m) = probe_sat(&|v| hint(v).unwrap_or(0)) {
            return SolveOutcome::Sat(m);
        }
        if let Some(m) = probe_sat(&|_| 0) {
            return SolveOutcome::Sat(m);
        }

        // Normalize. Single-variable `!=` becomes an excluded point;
        // multi-variable `!=` is case-split.
        let (mut rows, exclusions, mut splits) = normalize_live(live, &var_idx, n);

        // Lazy splitting over multi-variable `!=`: solve without them,
        // and only split on one that the found model violates. Unsat
        // without the disequalities settles the query in one step.
        let mut leaves_left = self.config.max_ne_leaves.max(1);
        let hint_vals: Vec<i64> = vars.iter().map(|&v| hint(v).unwrap_or(0)).collect();
        let boxes = vec![(b.lo as i128, b.hi as i128); n];
        let outcome = self.lazy_solve(
            &mut rows,
            &mut splits,
            &exclusions,
            &hint_vals,
            &boxes,
            &mut leaves_left,
            clock,
        );
        match outcome {
            Ok(Some(sol)) => {
                let model: Assignment = vars.iter().map(|&v| (v, sol[var_idx[&v]])).collect();
                // Defensive final check of the original constraints.
                if live
                    .iter()
                    .all(|c| c.satisfied_by(|v| model.get(&v).copied()))
                {
                    SolveOutcome::Sat(model)
                } else {
                    SolveOutcome::Unknown
                }
            }
            Ok(None) => SolveOutcome::Unsat,
            Err(Stop::Deadline) => {
                debug_log("query deadline expired");
                SolveOutcome::Unknown
            }
            Err(Stop::Arith(e)) => {
                debug_log(&format!("arithmetic/bb failure: {e:?}"));
                SolveOutcome::Unknown
            }
        }
    }

    /// Decides `rows ∧ exclusions` (no disequalities), using the
    /// hint-guided finite-domain search first and LP branch & bound as the
    /// complete fallback. Consumes one unit of `leaves_left`.
    #[allow(clippy::too_many_arguments)] // internal; mirrors the search state
    fn feasible(
        &self,
        rows: &[Row],
        exclusions: &[BTreeSet<i64>],
        hint: &[i64],
        init_boxes: &[(i128, i128)],
        leaves_left: &mut usize,
        clock: &QueryClock,
    ) -> Result<Option<Vec<i64>>, Stop> {
        if *leaves_left == 0 {
            return Err(ArithError::Overflow.into()); // budget: Unknown upstream
        }
        if clock.expired() {
            return Err(Stop::Deadline);
        }
        *leaves_left -= 1;
        let boxes = init_boxes.to_vec();
        let mut fd_budget = self.config.max_fd_nodes;
        if let Some(sol) =
            self.fd_search(rows, boxes.clone(), exclusions, hint, &mut fd_budget, clock)
        {
            return Ok(Some(sol));
        }
        let mut budget = self.config.max_bb_nodes;
        self.branch_bound(rows, boxes, exclusions, hint, &mut budget, clock)
    }

    /// Lazy case analysis over multi-variable `!=` constraints: solve the
    /// inequality/equality skeleton; if the model violates some
    /// disequality, branch on *that one* (hint-preferred side first) and
    /// recurse with the chosen side added as a row. Unsat skeletons prune
    /// whole subtrees, so the 2^k eager expansion never materializes.
    #[allow(clippy::too_many_arguments)] // internal; mirrors the search state
    fn lazy_solve(
        &self,
        rows: &mut Vec<Row>,
        splits: &mut Vec<NeSplit>,
        exclusions: &[BTreeSet<i64>],
        hint: &[i64],
        init_boxes: &[(i128, i128)],
        leaves_left: &mut usize,
        clock: &QueryClock,
    ) -> Result<Option<Vec<i64>>, Stop> {
        let sol = match self.feasible(rows, exclusions, hint, init_boxes, leaves_left, clock)? {
            Some(sol) => sol,
            None => return Ok(None),
        };
        let violated = splits.iter().position(|ne| ne.violated_by(&sol));
        let Some(i) = violated else {
            return Ok(Some(sol));
        };
        let ne = splits.swap_remove(i);
        // Prefer the side the hint already satisfies.
        let hint_ok = |r: &Row| r.eval(hint) <= r.rhs as i128;
        let order: [Row; 2] = if hint_ok(&ne.hi_side) && !hint_ok(&ne.lo_side) {
            [ne.hi_side.clone(), ne.lo_side.clone()]
        } else {
            [ne.lo_side.clone(), ne.hi_side.clone()]
        };
        let mut found = None;
        for side in order {
            rows.push(side);
            let res = self.lazy_solve(
                rows,
                splits,
                exclusions,
                hint,
                init_boxes,
                leaves_left,
                clock,
            );
            rows.pop();
            match res {
                Ok(Some(sol)) => {
                    found = Some(sol);
                    break;
                }
                Ok(None) => {}
                Err(e) => {
                    splits.push(ne);
                    return Err(e);
                }
            }
        }
        splits.push(ne);
        Ok(found)
    }

    /// One full FD strategy pass for a session query: hint-guided search
    /// from the warm boxes, then verification against the case splits and
    /// the original constraints. `None` is indecision (budget, deadline,
    /// cancellation, or an unverified candidate), never unsat — exactly
    /// the sequential pipeline's fall-through condition.
    #[allow(clippy::too_many_arguments)] // internal; mirrors the search state
    fn fd_strategy(
        &self,
        q_rows: &[Row],
        q_boxes: &[(i128, i128)],
        q_excl: &[BTreeSet<i64>],
        hint_vals: &[i64],
        q_splits: &[NeSplit],
        q_live: &[&Constraint],
        q_vars: &[Var],
        clock: &QueryClock,
    ) -> Option<Assignment> {
        let mut fd_budget = self.config.max_fd_nodes;
        let sol = self.fd_search(
            q_rows,
            q_boxes.to_vec(),
            q_excl,
            hint_vals,
            &mut fd_budget,
            clock,
        )?;
        if q_splits.iter().any(|ne| ne.violated_by(&sol)) {
            return None;
        }
        let model: Assignment = q_vars
            .iter()
            .enumerate()
            .map(|(i, &v)| (v, sol[i]))
            .collect();
        if q_live
            .iter()
            .all(|c| c.satisfied_by(|v| model.get(&v).copied()))
        {
            Some(model)
        } else {
            None
        }
    }

    /// Hint-guided assign-and-propagate search.
    ///
    /// Picks variables in order, tries a handful of candidate values per
    /// variable (the hint clamped into the current box, then the box edges,
    /// then hint±1), propagating intervals after each assignment and
    /// backtracking on wipe-out. This finds models near the previous input
    /// vector (DART's `IM + IM'` behaviour) on the small, mostly-unit
    /// systems path constraints produce. It is *incomplete*: `None` means
    /// "not found within budget", never "unsat".
    #[allow(clippy::too_many_arguments)] // internal; mirrors the search state
    fn fd_search(
        &self,
        rows: &[Row],
        mut boxes: Vec<(i128, i128)>,
        exclusions: &[BTreeSet<i64>],
        hint: &[i64],
        budget: &mut usize,
        clock: &QueryClock,
    ) -> Option<Vec<i64>> {
        if *budget == 0 || clock.expired() {
            return None;
        }
        *budget -= 1;
        if !self.propagate(rows, &mut boxes) {
            return None;
        }

        // Find the first unfixed variable.
        let next = boxes.iter().position(|&(lo, hi)| lo < hi);
        let Some(i) = next else {
            // All fixed: verify rows and exclusions.
            let cand: Vec<i64> = boxes.iter().map(|&(lo, _)| lo as i64).collect();
            let ok = rows.iter().all(|r| r.eval(&cand) <= r.rhs as i128)
                && cand
                    .iter()
                    .enumerate()
                    .all(|(j, v)| !exclusions[j].contains(v));
            return if ok { Some(cand) } else { None };
        };

        let (lo, hi) = boxes[i];
        let pref = (hint.get(i).copied().unwrap_or(0) as i128).clamp(lo, hi) as i64;
        let mut tried: Vec<i64> = Vec::with_capacity(5);
        let mut candidates: Vec<i64> = Vec::with_capacity(5);
        for raw in [
            Some(pref),
            pick_in_box(lo, hi, &exclusions[i], pref),
            Some(lo as i64),
            Some(hi as i64),
            pick_in_box(lo, hi, &exclusions[i], (lo + (hi - lo) / 2) as i64),
        ]
        .into_iter()
        .flatten()
        {
            if !tried.contains(&raw) && !exclusions[i].contains(&raw) {
                tried.push(raw);
                candidates.push(raw);
            }
        }
        for val in candidates {
            let mut sub = boxes.clone();
            sub[i] = (val as i128, val as i128);
            if let Some(sol) = self.fd_search(rows, sub, exclusions, hint, budget, clock) {
                return Some(sol);
            }
            if *budget == 0 {
                return None;
            }
        }
        None
    }

    /// Integer feasibility of `rows` within `boxes`, avoiding excluded
    /// points, by interval propagation + LP relaxation + branching.
    ///
    /// Iterative depth-first worklist (recursion here can reach thousands of
    /// nodes on 32-bit boxes, which would overflow the call stack).
    #[allow(clippy::too_many_arguments)] // internal; mirrors the search state
    fn branch_bound(
        &self,
        rows: &[Row],
        boxes: Vec<(i128, i128)>,
        exclusions: &[BTreeSet<i64>],
        hint: &[i64],
        budget: &mut usize,
        clock: &QueryClock,
    ) -> Result<Option<Vec<i64>>, Stop> {
        let mut work: Vec<Vec<(i128, i128)>> = vec![boxes];
        while let Some(mut boxes) = work.pop() {
            if clock.expired() {
                return Err(Stop::Deadline);
            }
            if *budget == 0 {
                return Err(ArithError::Overflow.into()); // treated as Unknown upstream
            }
            *budget -= 1;

            if !self.propagate(rows, &mut boxes) {
                continue;
            }

            // Integer probe: clamp the hint into the boxes, dodge
            // exclusions, then verify all rows.
            if let Some(cand) = probe_candidate(&boxes, exclusions, hint) {
                if rows.iter().all(|r| r.eval(&cand) <= r.rhs as i128) {
                    return Ok(Some(cand));
                }
            }

            // LP relaxation on shifted variables y = x - lo >= 0.
            let lp = build_lp(rows, &boxes)?;
            let point = match feasible_point(&lp)? {
                LpResult::Infeasible => continue,
                LpResult::Feasible(p) => p,
            };
            let xs: Vec<Rat> = point
                .iter()
                .zip(&boxes)
                .map(|(y, &(lo, _))| y.add(Rat::from_int(lo)))
                .collect::<Result<_, _>>()?;
            if (*budget).is_multiple_of(1000) {
                debug_log(&format!("bb budget={budget} vertex={xs:?} boxes={boxes:?}"));
            }

            // Rounding probes: snap the (possibly fractional) vertex to
            // nearby integer points and verify. Without this, vertices that
            // sit just off the integer grid make plain branching crawl one
            // unit per node across a 2^32-wide box.
            for mode in [Rounding::Nearest, Rounding::Floor, Rounding::Ceil] {
                let snapped: Vec<i64> = xs
                    .iter()
                    .zip(&boxes)
                    .map(|(v, &(lo, hi))| {
                        let raw = match mode {
                            Rounding::Nearest => v.round(),
                            Rounding::Floor => v.floor(),
                            Rounding::Ceil => v.ceil(),
                        };
                        raw.clamp(lo, hi) as i64
                    })
                    .collect();
                if let Some(cand) = adjust_for_exclusions(&snapped, &boxes, exclusions) {
                    if rows.iter().all(|r| r.eval(&cand) <= r.rhs as i128) {
                        return Ok(Some(cand));
                    }
                }
            }

            // All-integer vertex that avoids exclusions?
            if xs.iter().all(|v| v.is_integer()) {
                let cand: Vec<i64> = xs.iter().map(|v| v.numer() as i64).collect();
                if cand
                    .iter()
                    .enumerate()
                    .all(|(i, v)| !exclusions[i].contains(v))
                {
                    debug_assert!(rows.iter().all(|r| r.eval(&cand) <= r.rhs as i128));
                    return Ok(Some(cand));
                }
                // Integer vertex on an excluded point: split around it.
                let i = cand
                    .iter()
                    .enumerate()
                    .find(|(i, v)| exclusions[*i].contains(v))
                    .map(|(i, _)| i)
                    .expect("some excluded");
                let p = cand[i] as i128;
                push_child(&mut work, &boxes, i, Some(p + 1), None);
                push_child(&mut work, &boxes, i, None, Some(p - 1));
                continue;
            }

            // Fractional: branch on the first fractional variable. Push the
            // half containing the rounded value last so it is explored first.
            let (i, val) = xs
                .iter()
                .enumerate()
                .find(|(_, v)| !v.is_integer())
                .map(|(i, v)| (i, *v))
                .expect("some fractional");
            let floor = val.floor();
            let left_first = val.sub(Rat::from_int(floor))? <= Rat::new(1, 2)?;
            let (first, second) = if left_first {
                ((None, Some(floor)), (Some(floor + 1), None))
            } else {
                ((Some(floor + 1), None), (None, Some(floor)))
            };
            push_child(&mut work, &boxes, i, second.0, second.1);
            push_child(&mut work, &boxes, i, first.0, first.1);
        }
        Ok(None)
    }

    /// Iterated interval propagation. Returns `false` on emptiness.
    fn propagate(&self, rows: &[Row], boxes: &mut [(i128, i128)]) -> bool {
        for _ in 0..self.config.max_propagation_rounds {
            let mut changed = false;
            for row in rows {
                // Minimum achievable value of the row's lhs.
                let mut min_sum: i128 = 0;
                for &(j, a) in &row.coeffs {
                    let (lo, hi) = boxes[j];
                    min_sum += if a > 0 {
                        a as i128 * lo
                    } else {
                        a as i128 * hi
                    };
                }
                if row.coeffs.is_empty() {
                    if row.rhs < 0 {
                        return false;
                    }
                    continue;
                }
                if min_sum > row.rhs as i128 {
                    return false;
                }
                for &(j, a) in &row.coeffs {
                    let (lo, hi) = boxes[j];
                    let own_min = if a > 0 {
                        a as i128 * lo
                    } else {
                        a as i128 * hi
                    };
                    let rest_min = min_sum - own_min;
                    let slack = row.rhs as i128 - rest_min; // a*x <= slack
                    if a > 0 {
                        let new_hi = slack.div_euclid(a as i128);
                        if new_hi < hi {
                            boxes[j].1 = new_hi;
                            changed = true;
                        }
                    } else {
                        let na = (-a) as i128; // -a*x >= -slack => x >= ceil(-slack/ -a*... )
                        let new_lo = -(slack.div_euclid(na));
                        if new_lo > lo {
                            boxes[j].0 = new_lo;
                            changed = true;
                        }
                    }
                    if boxes[j].0 > boxes[j].1 {
                        return false;
                    }
                }
            }
            if !changed {
                break;
            }
        }
        true
    }
}

/// Per-push snapshot of a [`PrefixSession`]: the cumulative state after the
/// corresponding constraint was pushed.
#[derive(Debug, Clone)]
struct Frame {
    /// The constraint this frame pushed, trivial ones included (those
    /// leave no `live` entry), so [`PrefixSession::sync`] can find the
    /// longest common prefix with a new path.
    pushed: Constraint,
    live_len: usize,
    vars_len: usize,
    rows_len: usize,
    splits_len: usize,
    /// This push's contribution to the shared-prefix LP (already shifted to
    /// nonnegative variables), re-pushed lazily on out-of-order queries.
    lp_rows: Vec<LpRow>,
    /// Exclusion sets after this push (one per numbered variable).
    exclusions: Vec<BTreeSet<i64>>,
    /// Interval-propagated boxes for the whole prefix up to this push.
    boxes: Vec<(i128, i128)>,
    /// The prefix up to this push is known unsatisfiable (trivially false
    /// constraint, GCD integrality gap, or propagation wipe-out).
    infeasible: bool,
}

/// Incremental solving of the directed search's `negated_prefix(j)`
/// queries.
///
/// The directed search (paper Fig. 5) solves, for each candidate branch `j`
/// of a run, the query `c_0 ∧ … ∧ c_{j-1} ∧ ¬c_j`. A fresh
/// [`Solver::solve_with_hint`] per query re-screens, re-numbers,
/// re-normalizes and re-propagates the shared prefix from scratch — O(n²)
/// constraint work per run. A `PrefixSession` does that work once per
/// *pushed constraint* instead: [`PrefixSession::push`] extends the dense
/// numbering, the normalized rows and the interval-propagation fixpoint
/// incrementally, and [`PrefixSession::solve_query`] starts from the
/// snapshot at depth `j` — it also screens the query against a shared-prefix
/// LP ([`LpSession`]) whose tableau and last feasible vertex persist across
/// the whole query family.
///
/// Consecutive runs share all but the tail of their path constraints, so
/// one session serves a whole engine session: [`PrefixSession::sync`] pops
/// back to the longest common prefix and pushes only the new suffix. Every
/// frame is a function of the constraints pushed up to it, so a synced
/// session answers exactly like a freshly built one.
///
/// Outcomes are equisatisfiable with `solve_with_hint` on the same
/// conjunction; the concrete model may differ (the session's tighter warm
/// boxes can steer the search to a different — equally valid — solution).
///
/// # Examples
///
/// ```
/// use dart_solver::{Constraint, LinExpr, RelOp, Solver, Var};
///
/// let solver = Solver::default();
/// let mut sess = solver.session();
/// // Path: x0 == 1, then x0 != 5.
/// sess.push(&Constraint::new(LinExpr::var(Var(0)).offset(-1), RelOp::Eq));
/// sess.push(&Constraint::new(LinExpr::var(Var(0)).offset(-5), RelOp::Ne));
/// // Query j=1: x0 == 1 ∧ x0 == 5 — unsat.
/// let neg = Constraint::new(LinExpr::var(Var(0)).offset(-5), RelOp::Eq);
/// assert!(!sess.solve_query(1, &neg, |_| None).is_sat());
/// // Query j=0: x0 != 1 — sat.
/// let neg = Constraint::new(LinExpr::var(Var(0)).offset(-1), RelOp::Ne);
/// assert!(sess.solve_query(0, &neg, |_| None).is_sat());
/// ```
#[derive(Debug, Clone)]
pub struct PrefixSession {
    solver: Solver,
    /// Non-trivial pushed constraints, in push order.
    live: Vec<Constraint>,
    /// Dense variable numbering, append-only across pushes.
    vars: Vec<Var>,
    var_idx: HashMap<Var, usize>,
    /// Normalized `<= 0` rows of the live prefix.
    rows: Vec<Row>,
    /// Multi-variable `!=` case splits of the live prefix.
    splits: Vec<NeSplit>,
    /// Shared-prefix LP screen.
    lp: PrefixLp,
    frames: Vec<Frame>,
    /// Portfolio race outcomes (the LP counters live in `lp`).
    stats: SessionStats,
}

impl PrefixSession {
    fn new(solver: Solver) -> PrefixSession {
        let lp = LpSession::with_warm(0, solver.config.lp_warm);
        PrefixSession {
            solver,
            live: Vec::new(),
            vars: Vec::new(),
            var_idx: HashMap::new(),
            rows: Vec::new(),
            splits: Vec::new(),
            lp: PrefixLp { lp, synced: 0 },
            frames: Vec::new(),
            stats: SessionStats::default(),
        }
    }

    /// Number of pushed constraints.
    pub fn depth(&self) -> usize {
        self.frames.len()
    }

    /// Solver-internal counters accumulated over this session's lifetime:
    /// warm-LP pivots and restarts plus portfolio race wins. Use
    /// [`SessionStats::since`] for the activity of one stretch of queries.
    pub fn stats(&self) -> SessionStats {
        let lp = self.lp.lp.stats();
        SessionStats {
            warm_pivots: lp.warm_pivots,
            cold_restarts: lp.cold_restarts,
            ..self.stats
        }
    }

    /// The solver this session runs on.
    pub fn solver(&self) -> &Solver {
        &self.solver
    }

    /// Brings the session to exactly `prefix` on `solver`: pops back to the
    /// longest common prefix with what is pushed, then pushes the rest.
    /// A session built for a different solver configuration is rebuilt
    /// from scratch instead.
    pub fn sync(&mut self, solver: &Solver, prefix: &[Constraint]) {
        if self.solver.config != solver.config {
            *self = solver.session();
        }
        let common = self
            .frames
            .iter()
            .zip(prefix)
            .take_while(|(f, c)| f.pushed == **c)
            .count();
        self.truncate(common);
        for c in &prefix[common..] {
            self.push(c);
        }
    }

    /// Pushes the next path constraint, extending the numbering, the
    /// normalized rows and the propagated boxes incrementally.
    pub fn push(&mut self, c: &Constraint) {
        let b = self.solver.config.default_bounds;
        let prev = self.frames.last();
        let mut frame = Frame {
            pushed: c.clone(),
            live_len: prev.map_or(0, |f| f.live_len),
            vars_len: prev.map_or(0, |f| f.vars_len),
            rows_len: prev.map_or(0, |f| f.rows_len),
            splits_len: prev.map_or(0, |f| f.splits_len),
            lp_rows: Vec::new(),
            exclusions: prev.map(|f| f.exclusions.clone()).unwrap_or_default(),
            boxes: prev.map(|f| f.boxes.clone()).unwrap_or_default(),
            infeasible: prev.is_some_and(|f| f.infeasible),
        };
        let screened = match c.triviality() {
            Some(true) => None,
            Some(false) => {
                frame.infeasible = true;
                None
            }
            None if gcd_infeasible(c) => {
                frame.infeasible = true;
                None
            }
            None => Some(c),
        };
        if let Some(c) = screened.filter(|_| !frame.infeasible) {
            self.live.push(c.clone());
            frame.live_len += 1;
            let first_new_var = self.vars.len();
            for v in c.vars() {
                if let std::collections::hash_map::Entry::Vacant(e) = self.var_idx.entry(v) {
                    e.insert(self.vars.len());
                    self.vars.push(v);
                }
            }
            frame.vars_len = self.vars.len();
            frame.exclusions.resize_with(frame.vars_len, BTreeSet::new);
            frame
                .boxes
                .resize(frame.vars_len, (b.lo as i128, b.hi as i128));
            normalize_one(
                c,
                &self.var_idx,
                &mut self.rows,
                &mut frame.exclusions,
                &mut self.splits,
            );
            let new_rows = &self.rows[frame.rows_len..];
            frame.lp_rows = shift_lp_rows(new_rows, b, first_new_var, frame.vars_len);
            frame.rows_len = self.rows.len();
            frame.splits_len = self.splits.len();
            if !self
                .solver
                .propagate(&self.rows[..frame.rows_len], &mut frame.boxes)
            {
                frame.infeasible = true;
            }
        }
        self.frames.push(frame);
    }

    /// Removes the most recently pushed constraint.
    ///
    /// # Panics
    ///
    /// Panics if the session is empty.
    pub fn pop(&mut self) {
        let depth = self.depth();
        assert!(depth > 0, "pop on an empty PrefixSession");
        self.truncate(depth - 1);
    }

    /// Pops frames until at most `depth` remain.
    fn truncate(&mut self, depth: usize) {
        if depth >= self.frames.len() {
            return;
        }
        self.frames.truncate(depth);
        let (live_len, vars_len, rows_len, splits_len) = self
            .frames
            .last()
            .map(|f| (f.live_len, f.vars_len, f.rows_len, f.splits_len))
            .unwrap_or((0, 0, 0, 0));
        for v in self.vars.drain(vars_len..) {
            self.var_idx.remove(&v);
        }
        self.live.truncate(live_len);
        self.rows.truncate(rows_len);
        self.splits.truncate(splits_len);
        self.lp.truncate(depth);
    }

    /// Solves `pushed[0] ∧ … ∧ pushed[j-1] ∧ negated` — the directed
    /// search's `negated_prefix(j)` with the prefix taken from this
    /// session's snapshots.
    ///
    /// # Panics
    ///
    /// Panics if `j` exceeds [`PrefixSession::depth`].
    pub fn solve_query<F>(&mut self, j: usize, negated: &Constraint, hint: F) -> SolveOutcome
    where
        F: Fn(Var) -> Option<i64>,
    {
        let mut info = SolveInfo::default();
        self.solve_query_info(j, negated, hint, &mut info)
    }

    /// The live (non-trivial) prefix constraints visible to a depth-`j`
    /// query, in push order.
    pub fn prefix_live(&self, j: usize) -> &[Constraint] {
        let live_len = if j == 0 {
            0
        } else {
            self.frames[j - 1].live_len
        };
        &self.live[..live_len]
    }

    /// Like [`PrefixSession::solve_query`], additionally reporting how the
    /// query decomposed into independent components via `info`.
    pub fn solve_query_info<F>(
        &mut self,
        j: usize,
        negated: &Constraint,
        hint: F,
        info: &mut SolveInfo,
    ) -> SolveOutcome
    where
        F: Fn(Var) -> Option<i64>,
    {
        assert!(j <= self.frames.len(), "query depth {j} beyond session");
        let solver = &self.solver;
        let clock = QueryClock::start(solver.config.deadline);
        let b = solver.config.default_bounds;
        let (live_len, vars_len, rows_len, splits_len, infeasible) = if j == 0 {
            (0, 0, 0, 0, false)
        } else {
            let f = &self.frames[j - 1];
            (
                f.live_len,
                f.vars_len,
                f.rows_len,
                f.splits_len,
                f.infeasible,
            )
        };
        if infeasible {
            return SolveOutcome::Unsat;
        }

        // Screen the negated constraint.
        let neg_live = match negated.triviality() {
            Some(true) => None,
            Some(false) => return SolveOutcome::Unsat,
            None if gcd_infeasible(negated) => return SolveOutcome::Unsat,
            None => Some(negated),
        };
        let q_live: Vec<&Constraint> = self.live[..live_len].iter().chain(neg_live).collect();
        if q_live.is_empty() {
            return SolveOutcome::Sat(Assignment::new());
        }

        // Extend the prefix numbering with the negated constraint's new
        // variables (session vars numbered deeper than the prefix are
        // renumbered fresh for this query).
        let mut q_vars: Vec<Var> = self.vars[..vars_len].to_vec();
        let mut q_idx: HashMap<Var, usize> =
            q_vars.iter().enumerate().map(|(i, &v)| (v, i)).collect();
        if let Some(c) = neg_live {
            for v in c.vars() {
                if let std::collections::hash_map::Entry::Vacant(e) = q_idx.entry(v) {
                    e.insert(q_vars.len());
                    q_vars.push(v);
                }
            }
        }
        let n = q_vars.len();

        // Cheap probes: the hint, then all-zeros.
        if let Some(m) = probe_model(&q_live, &q_vars, b, &|v| hint(v).unwrap_or(0)) {
            return SolveOutcome::Sat(m);
        }
        if let Some(m) = probe_model(&q_live, &q_vars, b, &|_| 0) {
            return SolveOutcome::Sat(m);
        }

        // Constraint-independence splitting: when the negated constraint's
        // variable-connected component is independent of the rest of the
        // query, solve only that component and fill the other components
        // straight from the hint — they are the previous run's path
        // constraints, which that run's inputs satisfied by construction.
        let components = connected_components(&q_live);
        info.components = components.len();
        if neg_live.is_some() && components.len() > 1 {
            let neg_idx = q_live.len() - 1;
            let pick = |v: Var| hint(v).unwrap_or(0).clamp(b.lo, b.hi);
            let mut neg_comp: &[usize] = &[];
            let mut rest_ok = true;
            let mut fill = Assignment::new();
            for comp in &components {
                if comp.contains(&neg_idx) {
                    neg_comp = comp;
                    continue;
                }
                for &ci in comp {
                    if q_live[ci].satisfied_by(|v| Some(pick(v))) {
                        for v in q_live[ci].vars() {
                            fill.insert(v, pick(v));
                        }
                    } else {
                        rest_ok = false;
                        break;
                    }
                }
                if !rest_ok {
                    break;
                }
            }
            if rest_ok {
                let comp_live: Vec<&Constraint> = neg_comp.iter().map(|&i| q_live[i]).collect();
                match solver.solve_component(&comp_live, &hint, &clock) {
                    SolveOutcome::Sat(part) => {
                        fill.extend(part);
                        return SolveOutcome::Sat(fill);
                    }
                    SolveOutcome::Unsat => return SolveOutcome::Unsat,
                    // An unknown component verdict loses no information:
                    // fall through to the full warm-state solve below.
                    SolveOutcome::Unknown => {}
                }
            }
        }

        // Query state = prefix snapshots + the negated constraint.
        let mut q_rows = self.rows[..rows_len].to_vec();
        let mut q_splits = self.splits[..splits_len].to_vec();
        let (mut q_excl, mut q_boxes) = if j == 0 {
            (Vec::new(), Vec::new())
        } else {
            let f = &self.frames[j - 1];
            (f.exclusions.clone(), f.boxes.clone())
        };
        q_excl.resize_with(n, BTreeSet::new);
        q_boxes.resize(n, (b.lo as i128, b.hi as i128));
        let first_new_row = q_rows.len();
        if let Some(c) = neg_live {
            normalize_one(c, &q_idx, &mut q_rows, &mut q_excl, &mut q_splits);
        }

        // Warm-started interval propagation: the prefix part of `q_boxes`
        // is already at its fixpoint, so only the negated rows do work.
        if !solver.propagate(&q_rows, &mut q_boxes) {
            return SolveOutcome::Unsat;
        }

        // The two decisive strategies: the hint-guided finite-domain pass
        // (settles easy `Sat` queries — path constraints are mostly unit
        // systems) and the shared-prefix LP screen (an infeasible rational
        // relaxation ⇒ integer unsat, settling `Unsat` queries without any
        // branch & bound). The sequential pipeline runs FD first and the
        // LP only on a miss; the portfolio races them on two threads with
        // a deterministic first-decisive-verdict commit rule.
        let hint_vals: Vec<i64> = q_vars.iter().map(|&v| hint(v).unwrap_or(0)).collect();
        if solver.config.portfolio && self.lp.available(&self.frames, j, n) {
            let neg_lp = shift_lp_rows(&q_rows[first_new_row..], b, vars_len, n);
            if let Some(outcome) = self.lp.race(
                solver,
                &mut self.stats,
                &q_rows,
                &q_boxes,
                &q_excl,
                &hint_vals,
                &q_splits,
                &q_live,
                &q_vars,
                neg_lp,
                &clock,
            ) {
                return outcome;
            }
        } else {
            if let Some(model) = solver.fd_strategy(
                &q_rows, &q_boxes, &q_excl, &hint_vals, &q_splits, &q_live, &q_vars, &clock,
            ) {
                return SolveOutcome::Sat(model);
            }
            // The LP's cached vertex survives pops, so sibling queries
            // usually answer by point checks; on a miss the warm
            // dictionary repairs with a few dual pivots.
            if self.lp.available(&self.frames, j, n) {
                let neg_lp = shift_lp_rows(&q_rows[first_new_row..], b, vars_len, n);
                let lp = &mut self.lp.lp;
                let mark = lp.push_frame(neg_lp);
                let verdict = lp.feasible();
                lp.pop_to(mark);
                match verdict {
                    Ok(LpResult::Infeasible) => return SolveOutcome::Unsat,
                    Ok(LpResult::Feasible(_)) => {}
                    Err(_) => {} // no information; fall through to the full solve
                }
            }
        }

        // Full integer solve from the warm state.
        let mut leaves_left = solver.config.max_ne_leaves.max(1);
        let outcome = solver.lazy_solve(
            &mut q_rows,
            &mut q_splits,
            &q_excl,
            &hint_vals,
            &q_boxes,
            &mut leaves_left,
            &clock,
        );
        match outcome {
            Ok(Some(sol)) => {
                let model: Assignment = q_vars
                    .iter()
                    .enumerate()
                    .map(|(i, &v)| (v, sol[i]))
                    .collect();
                if q_live
                    .iter()
                    .all(|c| c.satisfied_by(|v| model.get(&v).copied()))
                {
                    SolveOutcome::Sat(model)
                } else {
                    SolveOutcome::Unknown
                }
            }
            Ok(None) => SolveOutcome::Unsat,
            Err(Stop::Deadline) => {
                debug_log("query deadline expired (session)");
                SolveOutcome::Unknown
            }
            Err(Stop::Arith(e)) => {
                debug_log(&format!("arithmetic/bb failure (session): {e:?}"));
                SolveOutcome::Unknown
            }
        }
    }
}

/// A [`PrefixSession`]'s shared-prefix LP. Its frame stack mirrors the
/// session's frames up to `synced`; queries at shallower depths pop it
/// lazily and deeper ones re-push the stored frame rows.
#[derive(Debug, Clone)]
struct PrefixLp {
    lp: LpSession,
    /// How many leading session frames the LP currently has pushed.
    synced: usize,
}

impl PrefixLp {
    /// Drops LP frames past session depth `depth` (the session popped).
    fn truncate(&mut self, depth: usize) {
        if self.synced > depth {
            self.lp.pop_to(depth);
            self.synced = depth;
        }
    }

    /// Brings the LP to exactly the first `j` session `frames`, popping or
    /// re-pushing stored frame rows as needed, and widens it to at least
    /// `n` columns (a deeper earlier query may already have widened it
    /// further; the extra zero columns don't change feasibility). `false`
    /// means the LP screen must be skipped for this query (a rejected width
    /// change — cannot happen with the monotone widths used here, but the
    /// screen degrades instead of aborting).
    fn available(&mut self, frames: &[Frame], j: usize, n: usize) -> bool {
        self.truncate(j);
        while self.synced < j {
            let f = &frames[self.synced];
            if self
                .lp
                .grow_vars(f.vars_len.max(self.lp.num_vars()))
                .is_err()
            {
                return false;
            }
            self.lp.push_frame(f.lp_rows.clone());
            self.synced += 1;
        }
        self.lp.grow_vars(n.max(self.lp.num_vars())).is_ok()
    }

    /// Races the FD and warm-LP strategies on two threads. Only a
    /// *decisive* arm — an FD model, or an LP refutation of the rational
    /// relaxation — cancels its peer and commits. Sound strategies cannot
    /// both be decisive on one query, each arm is deterministic given its
    /// inputs, and a cancelled arm was provably headed for indecision
    /// (the canceller's verdict forecloses its decisive outcome), so the
    /// committed verdict is independent of timing and thread count.
    /// `None` — both arms indecisive — falls through to the same complete
    /// solve the sequential pipeline uses.
    #[allow(clippy::too_many_arguments)] // internal; mirrors the search state
    fn race(
        &mut self,
        solver: &Solver,
        stats: &mut SessionStats,
        q_rows: &[Row],
        q_boxes: &[(i128, i128)],
        q_excl: &[BTreeSet<i64>],
        hint_vals: &[i64],
        q_splits: &[NeSplit],
        q_live: &[&Constraint],
        q_vars: &[Var],
        neg_lp: Vec<LpRow>,
        clock: &QueryClock,
    ) -> Option<SolveOutcome> {
        let lp = &mut self.lp;
        let fd_cancel = AtomicBool::new(false);
        let lp_cancel = AtomicBool::new(false);
        let (fd_model, lp_verdict) = std::thread::scope(|scope| {
            let fd_arm = scope.spawn(|| {
                let fd_clock = clock.with_cancel(&fd_cancel);
                let model = solver.fd_strategy(
                    q_rows, q_boxes, q_excl, hint_vals, q_splits, q_live, q_vars, &fd_clock,
                );
                if model.is_some() {
                    lp_cancel.store(true, Ordering::Relaxed);
                }
                model
            });
            // The LP arm runs on the calling thread.
            let mark = lp.push_frame(neg_lp);
            let verdict = lp.feasible_cancellable(Some(&lp_cancel));
            lp.pop_to(mark);
            if matches!(verdict, Ok(Some(LpResult::Infeasible))) {
                fd_cancel.store(true, Ordering::Relaxed);
            }
            let model = fd_arm.join().expect("fd strategy panicked");
            (model, verdict)
        });
        if let Ok(Some(LpResult::Infeasible)) = lp_verdict {
            debug_assert!(fd_model.is_none(), "sound strategies cannot disagree");
            stats.portfolio_lp_wins += 1;
            return Some(SolveOutcome::Unsat);
        }
        if let Some(model) = fd_model {
            stats.portfolio_fd_wins += 1;
            return Some(SolveOutcome::Sat(model));
        }
        None
    }
}

/// Normalizes one non-trivial constraint into rows / an exclusion point / a
/// case split, over the numbering `var_idx`.
fn normalize_one(
    c: &Constraint,
    var_idx: &HashMap<Var, usize>,
    rows: &mut Vec<Row>,
    exclusions: &mut [BTreeSet<i64>],
    splits: &mut Vec<NeSplit>,
) {
    let n = exclusions.len();
    match c.normalize() {
        NormalForm::Conj(list) => {
            for le in list {
                rows.push(Row::from_le(&le.expr, var_idx, n));
            }
        }
        NormalForm::Disj(a, bside) => {
            if c.expr.num_vars() == 1 {
                let (v, coeff) = c.expr.iter().next().expect("one var");
                let k = c.expr.constant();
                if (-k) % coeff == 0 {
                    exclusions[var_idx[&v]].insert((-k) / coeff);
                }
            } else {
                splits.push(NeSplit {
                    diff: Row::from_le(&c.expr, var_idx, n),
                    lo_side: Row::from_le(&a.expr, var_idx, n),
                    hi_side: Row::from_le(&bside.expr, var_idx, n),
                });
            }
        }
    }
}

/// Probes one concrete pick against the original constraints; returns the
/// model over `vars` (clamped into bounds) when every constraint holds.
fn probe_model(
    live: &[&Constraint],
    vars: &[Var],
    b: Bounds,
    pick: &dyn Fn(Var) -> i64,
) -> Option<Assignment> {
    let ok = live
        .iter()
        .all(|c| c.satisfied_by(|v| Some(pick(v).clamp(b.lo, b.hi))));
    if ok {
        Some(
            vars.iter()
                .map(|&v| (v, pick(v).clamp(b.lo, b.hi)))
                .collect(),
        )
    } else {
        None
    }
}

/// Shifts integer rows to the LP's nonnegative variables `y = x - lo`
/// (every variable uses the session-wide default box), and appends the
/// upper-bound rows `y_v <= hi - lo` for the variables numbered in
/// `first_new_var..n` (each variable's bound row is emitted exactly once,
/// by the frame that introduced it).
fn shift_lp_rows(rows: &[Row], b: Bounds, first_new_var: usize, n: usize) -> Vec<LpRow> {
    let lo = b.lo as i128;
    let width = b.hi as i128 - lo;
    let mut out = Vec::with_capacity(rows.len() + n - first_new_var);
    for row in rows {
        let mut coeffs = vec![Rat::ZERO; n];
        let mut shift: i128 = 0;
        for &(idx, a) in &row.coeffs {
            coeffs[idx] = Rat::from_int(a as i128);
            shift += a as i128 * lo;
        }
        out.push(LpRow {
            coeffs,
            rhs: Rat::from_int(row.rhs as i128 - shift),
        });
    }
    for v in first_new_var..n {
        let mut coeffs = vec![Rat::ZERO; n];
        coeffs[v] = Rat::ONE;
        out.push(LpRow {
            coeffs,
            rhs: Rat::from_int(width),
        });
    }
    out
}

/// Emits a diagnostic line when `DART_SOLVER_DEBUG` is set; `Unknown`
/// outcomes are otherwise silent by design.
fn debug_log(msg: &str) {
    if std::env::var_os("DART_SOLVER_DEBUG").is_some() {
        eprintln!("dart-solver: {msg}");
    }
}

/// Whether an equality constraint fails the GCD integrality test:
/// `sum a_i x_i + k == 0` has no integer solution unless gcd(a_i) | k.
fn gcd_infeasible(c: &Constraint) -> bool {
    if !matches!(c.op, crate::constraint::RelOp::Eq) {
        return false;
    }
    let g = c.expr.iter().fold(0i64, |acc, (_, a)| gcd_i64(acc, a));
    g != 0 && c.expr.constant() % g != 0
}

/// Partitions `live` into variable-connected components (union-find over
/// the constraints' variables). Components are returned in order of their
/// first constraint, each listing constraint indices in input order, so the
/// partition is deterministic.
fn connected_components(live: &[&Constraint]) -> Vec<Vec<usize>> {
    // Union-find over constraint indices, joined through shared variables.
    let mut parent: Vec<usize> = (0..live.len()).collect();
    fn find(parent: &mut [usize], i: usize) -> usize {
        let mut root = i;
        while parent[root] != root {
            root = parent[root];
        }
        let mut cur = i;
        while parent[cur] != root {
            let next = parent[cur];
            parent[cur] = root;
            cur = next;
        }
        root
    }
    let mut owner: HashMap<Var, usize> = HashMap::new();
    for (i, c) in live.iter().enumerate() {
        for v in c.vars() {
            match owner.entry(v) {
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(i);
                }
                std::collections::hash_map::Entry::Occupied(e) => {
                    let a = find(&mut parent, *e.get());
                    let b = find(&mut parent, i);
                    if a != b {
                        // Attach the later root under the earlier one.
                        let (lo, hi) = if a < b { (a, b) } else { (b, a) };
                        parent[hi] = lo;
                    }
                }
            }
        }
    }
    let mut groups: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for i in 0..live.len() {
        let root = find(&mut parent, i);
        groups.entry(root).or_default().push(i);
    }
    groups.into_values().collect()
}

/// Normalizes non-trivial constraints into `<= 0` rows, single-variable
/// exclusion points, and multi-variable `!=` case splits, over the dense
/// numbering `var_idx` (`n` variables).
fn normalize_live(
    live: &[&Constraint],
    var_idx: &HashMap<Var, usize>,
    n: usize,
) -> (Vec<Row>, Vec<BTreeSet<i64>>, Vec<NeSplit>) {
    let mut rows: Vec<Row> = Vec::new();
    let mut exclusions: Vec<BTreeSet<i64>> = vec![BTreeSet::new(); n];
    let mut splits: Vec<NeSplit> = Vec::new();
    for c in live {
        match c.normalize() {
            NormalForm::Conj(list) => {
                for le in list {
                    rows.push(Row::from_le(&le.expr, var_idx, n));
                }
            }
            NormalForm::Disj(a, bside) => {
                if c.expr.num_vars() == 1 {
                    // a*x + k != 0: excluded point when a | -k.
                    let (v, coeff) = c.expr.iter().next().expect("one var");
                    let k = c.expr.constant();
                    if (-k) % coeff == 0 {
                        exclusions[var_idx[&v]].insert((-k) / coeff);
                    }
                    // Otherwise trivially true: skip.
                } else {
                    splits.push(NeSplit {
                        diff: Row::from_le(&c.expr, var_idx, n),
                        lo_side: Row::from_le(&a.expr, var_idx, n),
                        hi_side: Row::from_le(&bside.expr, var_idx, n),
                    });
                }
            }
        }
    }
    (rows, exclusions, splits)
}

/// Greatest common divisor over `i64` (absolute values; `gcd(0, a) = |a|`).
fn gcd_i64(mut a: i64, mut b: i64) -> i64 {
    a = a.abs();
    b = b.abs();
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

/// Rounding mode used when snapping LP vertices to the integer grid.
#[derive(Debug, Clone, Copy)]
enum Rounding {
    Nearest,
    Floor,
    Ceil,
}

/// Nudges each coordinate off excluded points (staying inside its box);
/// returns `None` if some box is fully excluded.
fn adjust_for_exclusions(
    cand: &[i64],
    boxes: &[(i128, i128)],
    exclusions: &[BTreeSet<i64>],
) -> Option<Vec<i64>> {
    cand.iter()
        .zip(boxes)
        .zip(exclusions)
        .map(|((&v, &(lo, hi)), excl)| pick_in_box(lo, hi, excl, v))
        .collect()
}

/// Pushes a child box with variable `i` capped to `[lo_cap, hi_cap]` onto the
/// branch & bound worklist, skipping empty boxes.
fn push_child(
    work: &mut Vec<Vec<(i128, i128)>>,
    boxes: &[(i128, i128)],
    i: usize,
    lo_cap: Option<i128>,
    hi_cap: Option<i128>,
) {
    let mut sub = boxes.to_vec();
    if let Some(l) = lo_cap {
        sub[i].0 = sub[i].0.max(l);
    }
    if let Some(h) = hi_cap {
        sub[i].1 = sub[i].1.min(h);
    }
    if sub[i].0 <= sub[i].1 {
        work.push(sub);
    }
}

/// A multi-variable disequality `lin != 0`, kept for lazy case analysis:
/// `lo_side` is `lin <= -1`, `hi_side` is `lin >= 1` (as a `<=` row).
#[derive(Debug, Clone)]
struct NeSplit {
    /// `lin <= 0`-shaped row whose tightness identifies violation:
    /// the disequality is violated exactly when `lin == 0`.
    diff: Row,
    lo_side: Row,
    hi_side: Row,
}

impl NeSplit {
    fn violated_by(&self, sol: &[i64]) -> bool {
        self.diff.eval(sol) == self.diff.rhs as i128
    }
}

/// A normalized row `sum coeffs · x <= rhs` over dense variable indices.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Row {
    coeffs: Vec<(usize, i64)>,
    rhs: i64,
}

impl Row {
    /// From a `LeZero` expression `e <= 0`: `terms <= -constant`.
    fn from_le(expr: &crate::linear::LinExpr, var_idx: &HashMap<Var, usize>, _n: usize) -> Row {
        Row {
            coeffs: expr.iter().map(|(v, c)| (var_idx[&v], c)).collect(),
            rhs: -expr.constant(),
        }
    }

    fn eval(&self, xs: &[i64]) -> i128 {
        self.coeffs
            .iter()
            .map(|&(j, a)| a as i128 * xs[j] as i128)
            .sum()
    }
}

/// Builds the shifted LP: variables `y = x - lo >= 0`, rows plus upper-bound
/// rows `y_j <= hi_j - lo_j`.
fn build_lp(rows: &[Row], boxes: &[(i128, i128)]) -> Result<Lp, ArithError> {
    let n = boxes.len();
    let mut lp_rows = Vec::with_capacity(rows.len() + n);
    for row in rows {
        let mut coeffs = vec![Rat::ZERO; n];
        let mut shift: i128 = 0;
        for &(j, a) in &row.coeffs {
            coeffs[j] = coeffs[j].add(Rat::from_int(a as i128))?;
            shift += a as i128 * boxes[j].0;
        }
        lp_rows.push(LpRow {
            coeffs,
            rhs: Rat::from_int(row.rhs as i128 - shift),
        });
    }
    for (j, &(lo, hi)) in boxes.iter().enumerate() {
        let mut coeffs = vec![Rat::ZERO; n];
        coeffs[j] = Rat::ONE;
        lp_rows.push(LpRow {
            coeffs,
            rhs: Rat::from_int(hi - lo),
        });
    }
    Ok(Lp {
        num_vars: n,
        rows: lp_rows,
    })
}

/// Picks an integer point inside the boxes, near `hint`, avoiding excluded
/// values; returns `None` if some box is fully excluded.
fn probe_candidate(
    boxes: &[(i128, i128)],
    exclusions: &[BTreeSet<i64>],
    hint: &[i64],
) -> Option<Vec<i64>> {
    let mut out = Vec::with_capacity(boxes.len());
    for (j, &(lo, hi)) in boxes.iter().enumerate() {
        let preferred = (hint.get(j).copied().unwrap_or(0) as i128).clamp(lo, hi) as i64;
        out.push(pick_in_box(lo, hi, &exclusions[j], preferred)?);
    }
    Some(out)
}

/// Finds a value in `[lo, hi]` not in `excl`, as close to `preferred` as a
/// bounded scan allows.
fn pick_in_box(lo: i128, hi: i128, excl: &BTreeSet<i64>, preferred: i64) -> Option<i64> {
    let in_box = |v: i128| v >= lo && v <= hi;
    let ok = |v: i64| !excl.contains(&v);
    if in_box(preferred as i128) && ok(preferred) {
        return Some(preferred);
    }
    // Local scan around the preferred value.
    for d in 1..=(excl.len() as i128 + 2).min(256) {
        for v in [preferred as i128 + d, preferred as i128 - d] {
            if in_box(v) && ok(v as i64) {
                return Some(v as i64);
            }
        }
    }
    // Scan inward from the box edges; |excl| is finite so this terminates
    // with an answer whenever the box has more points than exclusions.
    let width = hi - lo + 1;
    let steps = (excl.len() as i128 + 1).min(width);
    for d in 0..steps {
        for v in [lo + d, hi - d] {
            if in_box(v) && ok(v as i64) {
                return Some(v as i64);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraint::RelOp;
    use crate::linear::LinExpr;

    fn v(i: u32) -> LinExpr {
        LinExpr::var(Var(i))
    }
    fn solver() -> Solver {
        Solver::default()
    }

    fn expect_model(cs: &[Constraint]) -> Assignment {
        match solver().solve(cs) {
            SolveOutcome::Sat(m) => {
                for c in cs {
                    assert!(
                        c.satisfied_by(|var| m.get(&var).copied()),
                        "model {m:?} violates {c}"
                    );
                }
                m
            }
            other => panic!("expected sat, got {other:?}"),
        }
    }

    #[test]
    fn empty_conjunction() {
        assert_eq!(solver().solve(&[]), SolveOutcome::Sat(Assignment::new()));
    }

    #[test]
    fn single_equality() {
        let m = expect_model(&[Constraint::new(v(0).offset(-10), RelOp::Eq)]);
        assert_eq!(m[&Var(0)], 10);
    }

    #[test]
    fn paper_example_h() {
        // Path constraint from §2.1: x != y, then force 2x == x + 10,
        // i.e. x - 10 == 0 with x != y.
        let cs = [
            Constraint::new(v(0).sub(&v(1)), RelOp::Ne),
            Constraint::new(v(0).offset(-10), RelOp::Eq),
        ];
        let m = expect_model(&cs);
        assert_eq!(m[&Var(0)], 10);
        assert_ne!(m[&Var(1)], 10);
    }

    #[test]
    fn paper_example_2_4_infeasible() {
        // (x == y) and (y == x + 10): infeasible.
        let cs = [
            Constraint::new(v(0).sub(&v(1)), RelOp::Eq),
            Constraint::new(v(1).sub(&v(0)).offset(-10), RelOp::Eq),
        ];
        assert_eq!(solver().solve(&cs), SolveOutcome::Unsat);
    }

    #[test]
    fn zero_deadline_degrades_to_unknown() {
        // An already-expired deadline must never panic or spin: every
        // query that reaches the search degrades to Unknown (treated as
        // incompleteness by the driver), and the same query still solves
        // once the deadline is lifted.
        let s = Solver::new(SolverConfig {
            deadline: Some(Duration::ZERO),
            ..SolverConfig::default()
        });
        let cs = [Constraint::new(v(0).offset(-10), RelOp::Eq)];
        assert_eq!(s.solve(&cs), SolveOutcome::Unknown);
        assert!(matches!(solver().solve(&cs), SolveOutcome::Sat(_)));
    }

    #[test]
    fn session_queries_in_decreasing_depth_shrink_the_query() {
        // Regression: the shared-prefix LP screen grows the LP session to
        // the query's variable count. A DFS walk issues deepest queries
        // first, so a *shallower* follow-up query has fewer variables —
        // growing the already-widened LP "down" must be a no-op, not a
        // panic. Budgets are pinned tiny so every query falls through the
        // probes and the finite-domain pass into the LP screen.
        let s = Solver::new(SolverConfig {
            max_fd_nodes: 1,
            max_bb_nodes: 4,
            max_ne_leaves: 4,
            ..SolverConfig::default()
        });
        let mut sess = s.session();
        // z == 0, then 2x - 2y + z != 1 (three variables at depth 2).
        sess.push(&Constraint::new(v(0), RelOp::Eq));
        sess.push(&Constraint::new(
            v(1).scaled(2).sub(&v(2).scaled(2)).add(&v(0)).offset(-1),
            RelOp::Ne,
        ));
        // Deepest flip first: parity-infeasible, reaches the LP screen
        // and widens the shared LP to all three variables.
        let deep = Constraint::new(
            v(1).scaled(2).sub(&v(2).scaled(2)).add(&v(0)).offset(-1),
            RelOp::Eq,
        );
        let out = sess.solve_query(1, &deep, |_| None);
        assert!(!out.is_sat(), "2x - 2y == 1 under z == 0 has no model");
        // Shallower flip second: a single-variable query against the
        // now-wider LP.
        let shallow = Constraint::new(v(0), RelOp::Ne);
        let out = sess.solve_query(0, &shallow, |_| None);
        match out {
            SolveOutcome::Sat(m) => assert_ne!(m[&Var(0)], 0),
            SolveOutcome::Unknown => {}
            SolveOutcome::Unsat => panic!("z != 0 alone is satisfiable"),
        }
    }

    #[test]
    fn sync_drops_the_old_prefix_from_the_lp_screen() {
        // With the FD pass capped at one node, both queries below reach
        // the shared-prefix LP. The first syncs the LP to `x + y <= 0`;
        // after the session moves to `x + y <= 200`, an LP still holding
        // the old row would refute `x + y >= 50`.
        let s = Solver::new(SolverConfig {
            max_fd_nodes: 1,
            ..SolverConfig::default()
        });
        let sum = v(0).add(&v(1));
        let mut sess = s.session();
        sess.sync(&s, &[Constraint::new(sum.clone(), RelOp::Le)]);
        let below = Constraint::new(sum.offset(50), RelOp::Le);
        assert!(sess.solve_query(1, &below, |_| None).is_sat());
        let prefix = [Constraint::new(sum.offset(-200), RelOp::Le)];
        sess.sync(&s, &prefix);
        let above = Constraint::new(sum.offset(-50), RelOp::Ge);
        let mut fresh = s.session();
        fresh.push(&prefix[0]);
        let out = sess.solve_query(1, &above, |_| None);
        assert!(out.is_sat(), "x + y == 50 satisfies both");
        assert_eq!(out, fresh.solve_query(1, &above, |_| None));
    }

    #[test]
    fn session_zero_deadline_degrades_to_unknown() {
        let s = Solver::new(SolverConfig {
            deadline: Some(Duration::ZERO),
            ..SolverConfig::default()
        });
        let mut sess = s.session();
        sess.push(&Constraint::new(v(0).offset(-3), RelOp::Ge));
        let negated = Constraint::new(v(0).offset(-10), RelOp::Eq);
        assert_eq!(
            sess.solve_query(1, &negated, |_| None),
            SolveOutcome::Unknown
        );
    }

    #[test]
    fn exclusion_points() {
        // x != 0, x != 1, x != 2, 0 <= x <= 3  =>  x == 3.
        let cs = [
            Constraint::new(v(0), RelOp::Ne),
            Constraint::new(v(0).offset(-1), RelOp::Ne),
            Constraint::new(v(0).offset(-2), RelOp::Ne),
            Constraint::new(v(0), RelOp::Ge),
            Constraint::new(v(0).offset(-3), RelOp::Le),
        ];
        let m = expect_model(&cs);
        assert_eq!(m[&Var(0)], 3);
    }

    #[test]
    fn fully_excluded_interval_unsat() {
        // 0 <= x <= 1, x != 0, x != 1.
        let cs = [
            Constraint::new(v(0), RelOp::Ge),
            Constraint::new(v(0).offset(-1), RelOp::Le),
            Constraint::new(v(0), RelOp::Ne),
            Constraint::new(v(0).offset(-1), RelOp::Ne),
        ];
        assert_eq!(solver().solve(&cs), SolveOutcome::Unsat);
    }

    #[test]
    fn multi_var_ne_split() {
        // x + y == 4 and x - y != 0 and 0 <= x,y <= 2: forces {x,y} = {0..2},
        // e.g. (1,3) out of range; valid: x=0,y=4 out; so x,y in {2,2} is the
        // only sum-4 point in the box but it violates !=, except (0,4)… the
        // box caps at 2, so the only candidates are (2,2): unsat.
        let cs = [
            Constraint::new(v(0).add(&v(1)).offset(-4), RelOp::Eq),
            Constraint::new(v(0).sub(&v(1)), RelOp::Ne),
            Constraint::new(v(0), RelOp::Ge),
            Constraint::new(v(1), RelOp::Ge),
            Constraint::new(v(0).offset(-2), RelOp::Le),
            Constraint::new(v(1).offset(-2), RelOp::Le),
        ];
        assert_eq!(solver().solve(&cs), SolveOutcome::Unsat);
    }

    #[test]
    fn multi_var_ne_split_sat() {
        // x + y == 4, x != y, 0 <= x,y <= 3.
        let cs = [
            Constraint::new(v(0).add(&v(1)).offset(-4), RelOp::Eq),
            Constraint::new(v(0).sub(&v(1)), RelOp::Ne),
            Constraint::new(v(0), RelOp::Ge),
            Constraint::new(v(1), RelOp::Ge),
            Constraint::new(v(0).offset(-3), RelOp::Le),
            Constraint::new(v(1).offset(-3), RelOp::Le),
        ];
        let m = expect_model(&cs);
        assert_eq!(m[&Var(0)] + m[&Var(1)], 4);
        assert_ne!(m[&Var(0)], m[&Var(1)]);
    }

    #[test]
    fn strict_inequalities_over_integers() {
        // 2x > 5 and 2x < 8  =>  x == 3.
        let cs = [
            Constraint::new(v(0).scaled(2).offset(-5), RelOp::Gt),
            Constraint::new(v(0).scaled(2).offset(-8), RelOp::Lt),
        ];
        let m = expect_model(&cs);
        assert_eq!(m[&Var(0)], 3);
    }

    #[test]
    fn integrality_gap_detected() {
        // 2x == 1 has a rational solution but no integer one.
        let cs = [Constraint::new(v(0).scaled(2).offset(-1), RelOp::Eq)];
        assert_eq!(solver().solve(&cs), SolveOutcome::Unsat);
    }

    #[test]
    fn hint_is_respected_when_consistent() {
        // x >= 5; hint says x = 100: expect exactly 100 back.
        let cs = [Constraint::new(v(0).offset(-5), RelOp::Ge)];
        let out = solver().solve_with_hint(&cs, |_| Some(100));
        match out {
            SolveOutcome::Sat(m) => assert_eq!(m[&Var(0)], 100),
            other => panic!("expected sat, got {other:?}"),
        }
    }

    #[test]
    fn hint_overridden_when_inconsistent() {
        let cs = [Constraint::new(v(0).offset(-5), RelOp::Ge)];
        let out = solver().solve_with_hint(&cs, |_| Some(3));
        match out {
            SolveOutcome::Sat(m) => assert!(m[&Var(0)] >= 5),
            other => panic!("expected sat, got {other:?}"),
        }
    }

    #[test]
    fn unmentioned_vars_absent_from_model() {
        let cs = [Constraint::new(v(7).offset(-1), RelOp::Eq)];
        let m = expect_model(&cs);
        assert_eq!(m.len(), 1);
        assert!(m.contains_key(&Var(7)));
    }

    #[test]
    fn bounds_are_enforced() {
        // x >= 2^31 is outside the 32-bit box.
        let cs = [Constraint::new(
            v(0).offset(-(i32::MAX as i64) - 1),
            RelOp::Ge,
        )];
        assert_eq!(solver().solve(&cs), SolveOutcome::Unsat);
    }

    #[test]
    fn boundary_values_reachable() {
        let cs = [Constraint::new(v(0).offset(-(i32::MAX as i64)), RelOp::Ge)];
        let m = expect_model(&cs);
        assert_eq!(m[&Var(0)], i32::MAX as i64);
        let cs = [Constraint::new(v(0).offset(-(i32::MIN as i64)), RelOp::Le)];
        let m = expect_model(&cs);
        assert_eq!(m[&Var(0)], i32::MIN as i64);
    }

    #[test]
    fn dense_system() {
        // x0 + x1 + x2 == 6, x0 == x1, x1 == x2  =>  all 2.
        let sum = v(0).add(&v(1)).add(&v(2)).offset(-6);
        let cs = [
            Constraint::new(sum, RelOp::Eq),
            Constraint::new(v(0).sub(&v(1)), RelOp::Eq),
            Constraint::new(v(1).sub(&v(2)), RelOp::Eq),
        ];
        let m = expect_model(&cs);
        assert_eq!(m[&Var(0)], 2);
        assert_eq!(m[&Var(1)], 2);
        assert_eq!(m[&Var(2)], 2);
    }

    #[test]
    fn needham_style_chain() {
        // A chain of equalities like nonce-matching constraints:
        // m1 == 100, m2 == m1 + 1, m3 == m2 + 1.
        let cs = [
            Constraint::new(v(0).offset(-100), RelOp::Eq),
            Constraint::new(v(1).sub(&v(0)).offset(-1), RelOp::Eq),
            Constraint::new(v(2).sub(&v(1)).offset(-1), RelOp::Eq),
        ];
        let m = expect_model(&cs);
        assert_eq!(m[&Var(2)], 102);
    }

    #[test]
    fn trivially_false_constant() {
        let cs = [Constraint::new(LinExpr::constant_expr(1), RelOp::Eq)];
        assert_eq!(solver().solve(&cs), SolveOutcome::Unsat);
    }

    #[test]
    fn trivially_true_constants_skipped() {
        let cs = [
            Constraint::new(LinExpr::constant_expr(0), RelOp::Eq),
            Constraint::new(v(0).offset(-2), RelOp::Eq),
        ];
        let m = expect_model(&cs);
        assert_eq!(m[&Var(0)], 2);
    }
}
