"""Centralized reference solver and optimality certification.

The market mechanism is decentralized; this module solves the same
allocation problem directly so tests can compare the two.  There is one
solve path: all pools are solved once, stacked, at share 1, by minimizing
the explicit convex dual of their concave program over edge prices with a
projected, Levenberg-damped Newton method (see _clearing_prices).  At share
1 the pools' duals are separable, so the stack is one pool with the pools'
incidences on its diagonal (_stack_pools), and one Newton solve per
instance minimizes their sum.  It solves on the rows no other row implies
(one-row dominance, a standard LP presolve step): an edge whose lines all
cross another edge of no larger capacity never binds alone, so it is left
unpriced.  That solver knows one demand law,
x = (scale / path price)**power: a valuation a*sqrt(x) is power 2 at scale
a/2, and a frozen bid w (solve_fixed_bids) is power 1 at scale w.  Newton
opens where the engine opens, at single_pool.cold_start's share-1 prices,
which it computes from the same two single_pool helpers
(_fair_split and _neck_prices), and stops on the engine's own overload and
complementarity terms (_clearing_terms), so each of these has one
definition, in single_pool.  Square-root valuations make a pool's
optimum at share f its share-1 optimum with frequencies scaled by f and
prices by f**-1/2, so its value is sqrt(f) times its value at share 1 and
the optimal split follows in closed form (see solve_full).  Both solvers
answer in one format, run_mechanism's OuterState of per-pool states on
the compiled views, so the optimum can warm-start a run.  kkt_report
certifies a point read as the engines hold one, per-pool arrays on those
views; _state_kkt reads a run's or solve_full's state on the views it was
computed on, and mechanism_kkt a state from elsewhere, once it has
compiled every pool and checked the state against those views.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate
from typing import Sequence

import numpy as np
from numpy.linalg import LinAlgError, _umath_linalg

from .network import InputMismatchError, Network, PoolSystem, PoolView, compile_pool
from .multi_pool import _TINY, OuterState, ProportionVector, _check_length, _check_warm, _mean, pool_cost
from .single_pool import PoolMarketState, _clearing_terms, _fair_split, _max_or_zero, _neck_prices, _positive
from .utility import UtilityTable

__all__ = [
    "KKTReport",
    "kkt_report",
    "mechanism_kkt",
    "solve_fixed_bids",
    "OracleSolution",
    "solve_full",
]

# solve_full claims convergence only when its own certificate reads at most
# this; exact answers read about 1e-11
_CERTIFIED = 1e-6


@dataclass
class _PoolSolve:
    prices: np.ndarray
    freqs: np.ndarray
    converged: bool
    iterations: int
    dual_evals: int   # dual values computed: the opening's and each trial step's


def _implied_rows(rows: np.ndarray, budget: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The edges the columns of `rows` cross, in presolve order, and each one's first cover.

    A cover of an edge crosses every line that edge crosses.  The edges are
    sorted by budget, ties broken by more lines crossed first and then by
    the rows themselves, so only equal rows at equal budgets keep the order
    they are listed in, and they stand for each other.  first[i] is the
    position of the first edge in that order that covers edge i; edge i
    covers itself, so first[i] <= i and the cover's budget is no larger.
    An edge whose first cover is another edge is implied: its load never
    exceeds the cover's, which never exceeds the cover's budget, so pricing
    it at zero loses no optimum (one-row dominance, a standard LP presolve
    step; Andersen & Andersen 1995).  A cover is its own first cover, as
    an edge covering it would cover edge i earlier, so it is kept.
    """
    edges = rows.any(axis=1).nonzero()[0]
    used = rows[edges]
    crossing = used.sum(axis=1)
    order = np.lexsort((*used.T, -crossing, budget[edges]))
    used, crossing = used[order], crossing[order]
    return edges[order], (used @ used.T == crossing[:, None]).argmax(axis=1)


def _raise_singular(err: str, flag: int) -> None:
    raise LinAlgError("Singular matrix")


@np.errstate(call=_raise_singular, invalid="call", over="ignore", divide="ignore", under="ignore")
def _newton_step(hess: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """np.linalg.solve(hess, rhs) for a float64 matrix and vector, bit for bit.

    It is the same LAPACK gufunc under the same error state, which raises
    LinAlgError on a singular matrix, without the wrapper's argument
    conversion and type checks, which cost more than solving the small
    systems the Newton steps pose.
    """
    return _umath_linalg.solve1(hess, rhs, signature="dd->d")


def _clearing_prices(
    incidence: np.ndarray,
    budget: np.ndarray,
    scale: np.ndarray,
    power: int,
    opening: np.ndarray,
    max_iters: int = 300,
    tol: float = 1e-11,
) -> _PoolSolve:
    """Edge prices clearing one pool at capacity budget `budget`.

    Every operator has one isoelastic demand law: at path price mu it runs
    x = (scale / mu)**power.  Power 2 with scale a/2 is the valuation
    a*sqrt(x); power 1 with scale w is a frozen bid w, the valuation
    w*log(x) of proportional fairness (Kelly, Maulloo & Tan 1998).  The
    dual term sup_x value(x) - mu*x is scale**2/mu for power 2 and
    scale*(log(scale/mu) - 1) for power 1.  An operator is active when its
    scale is positive and its line crosses no closed edge; the others run
    nothing.

    Minimizes the dual of  max sum(values) s.t. incidence @ x <= budget
    over nonnegative prices with a projected, Levenberg-damped Newton
    method.  The solve runs on a reduced system: the active operators'
    columns only, and of their rows the ones no other row implies.  An
    edge is implied when another edge of no larger budget crosses every
    active line it crosses, its cover (see _implied_rows): its load never
    exceeds its budget while the cover's holds, so it never binds alone and
    stays unpriced.  Dropping the implied rows, equal rows among them,
    removes flat directions that would otherwise make the Newton system
    singular.  An inactive operator never enters the system, so the solve
    is the one of the same pool with its column deleted; at the exit the
    prices are scattered onto the kept edges and the frequencies onto the
    active columns, every other entry zero.

    Newton opens at `opening`, the engine's fair-share opening prices
    (single_pool's neck charge), each implied edge's moved onto its first
    cover; every line crossing the implied edge crosses the cover, so no
    active path price falls and the dual value is finite from the start.
    The dual value blows up whenever an active operator's path turns free
    of charge, so descent steps keep every such path priced without
    explicit bookkeeping.  The stop test reads the engine's own
    overload and complementarity terms (single_pool._clearing_terms) at
    `tol` times the largest budget.  The Armijo test allows for the dual
    value's own rounding (a few ulps of it), else a step the rounding hides
    stalls the descent short of `tol`.  Each accepted step's path prices,
    demand and loads carry over to the next iteration and to the exit.  At
    the returned point every active operator sits on her demand curve,
    loads never exceed the budget beyond solver precision, and priced edges
    run at budget.  No argument is modified.
    """
    n_edges, n_lops = incidence.shape
    if n_lops and _positive(scale) and _positive(budget):
        # no edge is closed and every scale is positive: every operator is
        # active, and the active columns are all of them
        act = None
        rows, s = incidence, scale
    else:
        # an operator whose line crosses a closed edge can run nothing; left
        # active, it would price that edge without bound and stall the descent
        act = (scale > 0.0) & ~incidence[budget <= 0.0].any(axis=0)
        if not act.any():
            return _PoolSolve(np.zeros(n_edges), np.zeros(n_lops), True, 0, 0)
        rows, s = incidence[:, act], scale[act]

    # keep the edges no other edge implies; each implied edge's opening
    # price moves to its cover, which every line crossing it crosses
    edges, first = _implied_rows(rows, budget)
    keep = first == np.arange(len(first))
    reps = edges[keep]
    sub_inc = rows[reps]
    sub_budget = budget[reps]
    prices = np.bincount(first, weights=opening[edges], minlength=len(edges))[keep]
    scale_b = max(1.0, float(sub_budget.max()))
    s_sq = s ** 2
    evals = 0

    def dual_value(pr: np.ndarray) -> tuple[float, np.ndarray]:
        """The dual value at edge prices pr, and the path prices there, floored at _TINY.

        The demand and the Hessian read the path prices through the same
        floor, so it is taken once per accepted point.
        """
        nonlocal evals
        evals += 1
        mu = sub_inc.T @ pr
        m = np.maximum(mu, _TINY)
        if np.count_nonzero(mu <= 0.0):
            return np.inf, m
        value = s_sq / m if power == 2 else s * (np.log(s / m) - 1.0)
        return float(value.sum() + pr @ sub_budget), m

    cur, mu = dual_value(prices)
    x = (s / mu) ** power
    load = sub_inc @ x
    converged = False
    iters = 0
    for _ in range(max_iters):
        iters += 1
        gap = load - sub_budget
        if max(_clearing_terms(prices, gap)) <= tol * scale_b:
            converged = True
            break

        grad = -gap  # dual gradient: budget - load
        fset = ((prices > 0.0) | (grad < 0.0)).nonzero()[0]
        gf = grad[fset]
        sub = sub_inc[fset]
        hess = (sub * (power * x / mu)) @ sub.T
        lev = max(1e-14 * float(hess.trace()) / len(fset),
                  1e-8 * _max_or_zero(np.abs(gf)) / scale_b)
        hess.flat[:: len(fset) + 1] += lev
        try:
            newton = _newton_step(hess, -gf)
        except LinAlgError:
            newton = None

        accepted = False
        base = prices[fset]
        candidates = [newton, -gf] if newton is not None else [-gf]
        for step in candidates:
            if float(gf @ step) >= 0.0:
                continue
            t_step = 1.0
            for _ in range(60):
                moved_to = np.maximum(0.0, base + t_step * step)
                trial = prices.copy()
                trial[fset] = moved_to
                value, trial_mu = dual_value(trial)
                # Armijo, with room for the rounding of the dual value itself
                slack = 1e-4 * min(0.0, float(gf @ (moved_to - base))) + 4e-16 * abs(cur)
                if math.isfinite(value) and value <= cur + slack:
                    if not np.count_nonzero(moved_to != base):
                        break
                    prices, cur, mu = trial, value, trial_mu
                    accepted = True
                    break
                t_step *= 0.5
            if accepted:
                break
        if not accepted:
            break
        x = (s / mu) ** power
        load = sub_inc @ x

    over = load > sub_budget
    if over.any():
        # uniform shrink onto the feasible set; perturbation is at solver
        # precision when the descent converged
        ratio = float(np.max(load[over] / np.maximum(sub_budget[over], _TINY)))
        if ratio > 1.0:
            x = x / ratio
    out = np.zeros(n_edges)
    out[reps] = prices
    if act is None:
        freqs = x
    else:
        freqs = np.zeros(n_lops)
        freqs[act] = x
    return _PoolSolve(out, freqs, converged, iters, evals)

# ---------------------------------------------------------------------------
# Pool solves.

def _solve_one_pool(view: PoolView, coefficients: np.ndarray) -> _PoolSolve:
    """One pool's optimum at share 1, the only share the oracle solves at.

    solve_full hands it all of an instance's pools once, stacked into one
    pool (_stack_pools), or a one-pool instance's own view.  Newton opens
    at the engine's own share-1 opening, the prices of
    cold_start(view, coefficients, 1.0), computed here from the same two
    single_pool helpers without the opening frequencies, which Newton never
    reads; on a stack that is each pool's opening, block by block.  A
    valuation a*sqrt(x) demands x = (a / 2 mu)**2, scale a/2 at power 2,
    and opens at the bid a/2 * sqrt(fair ratio).

    solve_full reaches every other share by 1/2-homogeneity: frequencies
    scale by the share, prices by its inverse square root.
    """
    scale = 0.5 * coefficients
    fair_ratio, neck = _fair_split(view)
    opening = _neck_prices(neck, scale * np.sqrt(fair_ratio), view.capacity)
    return _clearing_prices(view.incidence, view.capacity, scale, 2, opening)


def _stack_pools(views: Sequence[PoolView], coefficients: Sequence[np.ndarray]) -> tuple[PoolView, np.ndarray]:
    """All pools as one pool at share 1, for one Newton solve of their duals.

    At share 1 the pools' duals are separable, so their sum is the dual of
    one pool: the pools' incidences on the diagonal, the capacity vector
    once per pool, the coefficient vectors concatenated, all in pool order.
    Row p*n_edges + e of the stack is edge e in pool p, and the columns are
    the pools' operators in turn, so the answer splits back at those
    offsets.  No two rows of different pools cross a common operator, so a
    row of one pool never implies a row of another in _clearing_prices,
    and each block's fair split and neck are its pool's.  A single view
    passes as it is.
    """
    if len(views) == 1:
        return views[0], coefficients[0]
    n_edges = views[0].n_edges
    inc = np.zeros((len(views) * n_edges, sum(view.n_lops for view in views)))
    col = 0
    for p, view in enumerate(views):
        inc[p * n_edges:(p + 1) * n_edges, col:col + view.n_lops] = view.incidence
        col += view.n_lops
    stacked = PoolView(
        pool_id="+".join(view.pool_id for view in views),
        edge_ids=views[0].edge_ids * len(views),
        capacity=np.concatenate([views[0].capacity] * len(views)),
        lop_ids=tuple(lop for view in views for lop in view.lop_ids),
        incidence=inc,
        bottleneck=np.concatenate([view.bottleneck for view in views]),
        own_edges=np.flatnonzero(inc.any(axis=1)),
    )
    return stacked, np.concatenate(coefficients)


def solve_fixed_bids(view: PoolView, bids: np.ndarray, share: float) -> np.ndarray:
    """Clearing prices of one pool under frozen bids.

    This is the stationary point of the frozen-bid price dynamics; the
    descent tests measure distance to it.  A bid w buys x = w / mu, scale w
    at power 1; a zero bid, or a line over a closed edge, gets nothing.
    Newton opens at the bids charged to each line's neck, as cold_start
    charges its own.
    """
    supply = view.capacity * share
    opening = _neck_prices(_fair_split(view)[1], bids, supply)
    sol = _clearing_prices(view.incidence, supply, bids, 1, opening)
    if not sol.converged:
        raise RuntimeError("frozen-bid clearing prices did not reach solver precision")
    return sol.prices


# ---------------------------------------------------------------------------
# Optimality certification.

def _worst(acc: float, term: float) -> float:
    """max(acc, term), except that a NaN on either side wins.

    Python's max keeps acc when term is NaN, which would certify a NaN
    residual as zero; otherwise this is max's answer, acc on a tie.
    """
    return acc if acc >= term or acc != acc else term


@dataclass(frozen=True)
class KKTReport:
    """Residuals of the clearing conditions, raw and scale-free.

    stationarity entries are None when no operator runs a positive
    frequency and none could (nothing to certify there).  An operator that
    runs nothing although its line has share-scaled capacity reads
    stationarity_rel 1: its marginal value at zero is unbounded, so no path
    price meets it; stationarity_raw covers running operators only.  Scaled
    values divide by the natural magnitude of the condition: path price for
    stationarity, cost level for the cost and complementarity rows,
    per-edge capacity for overloads.  A NaN residual makes max_scaled NaN,
    which no bound certifies.
    """

    stationarity_raw: float | None
    stationarity_rel: float | None
    cost_spread_raw: float
    cost_spread_rel: float
    complementarity_raw: float
    complementarity_rel: float
    split_comp_raw: float
    split_comp_rel: float
    overload_raw: float
    overload_rel: float
    split_excess: float
    negativity: float

    def max_scaled(self) -> float:
        vals = [
            self.stationarity_rel if self.stationarity_rel is not None else 0.0,
            self.cost_spread_rel,
            self.complementarity_rel,
            self.split_comp_rel,
            self.overload_rel,
            self.split_excess,
            self.negativity,
        ]
        return math.nan if any(map(math.isnan, vals)) else max(vals)


def kkt_report(
    views: Sequence[PoolView],
    coefficients: Sequence[np.ndarray],
    freqs: Sequence[np.ndarray],
    prices: Sequence[np.ndarray],
    shares: Sequence[float],
    cost_level: float,
) -> KKTReport:
    """Certify a candidate clearing point against the optimality conditions.

    The candidate is read as the engines hold a point: per pool, in pool
    order, its compiled view (compile_pool), its valuation coefficients in
    the view's operator order (UtilityTable.coefficients_for), its
    frequencies, one per operator of the view, and its edge prices, one per
    edge of the view; then one share per pool and the common cost level.
    Checks, per pool: marginal value equals path price on running lines
    and no line that could run stands idle,
    priced edges run at share-scaled capacity, loads within capacity, and,
    for a pool with a positive share, network cost at pool prices equals
    the common cost level; plus the split summing to one with complementary
    cost level, and nonnegativity all around.  Sequences whose count is not
    the number of views, or an array that is not one-dimensional of its
    view's length, raise InputMismatchError naming the pools; a negative
    entry is not rejected but reported in negativity.  mechanism_kkt and
    solve_full build these arguments from an instance they have validated
    and compiled.  A pool all of whose operators run, as at a cleared
    state, is read without the masks that select running operators; the
    masked reading gives the same bytes there.
    """
    pool_ids = [view.pool_id for view in views]
    for name, seq in (("coefficient vectors", coefficients), ("frequency arrays", freqs),
                      ("price arrays", prices), ("shares", shares)):
        if len(seq) != len(views):
            raise InputMismatchError(f"{len(seq)} {name} for the {len(views)} pools {pool_ids}")
    level_scale = max(abs(cost_level), _TINY)
    share_vec = np.asarray(shares, dtype=float)

    stat_raw: float | None = None
    stat_rel: float | None = None
    comp_raw = 0.0
    over_raw = 0.0
    over_rel = 0.0
    spread_raw = 0.0
    neg = _worst(0.0, -float(share_vec.min(initial=0.0)))

    for view, a, x, lam, share in zip(views, coefficients, freqs, prices, share_vec):
        a, x, lam = np.asarray(a, dtype=float), np.asarray(x, dtype=float), np.asarray(lam, dtype=float)
        for name, values, n in (("coefficients", a, view.n_lops), ("freqs", x, view.n_lops),
                                ("prices", lam, view.n_edges)):
            _check_length("candidate", view.pool_id, name, values, n)
        idle = False
        if x.size and _positive(x):
            # every operator runs: the masks below would select every entry,
            # no operator stands idle, and x adds nothing to negativity
            neg = _worst(neg, -float(lam.min(initial=0.0)))
            mu = view.incidence.T @ lam
            gap = np.abs(a / (2.0 * np.sqrt(x)) - mu)
        else:
            neg = _worst(_worst(neg, -float(x.min(initial=0.0))), -float(lam.min(initial=0.0)))
            run = x > 0.0
            mu = (view.incidence.T @ lam)[run]
            gap = np.abs(a[run] / (2.0 * np.sqrt(x[run])) - mu)
            idle = bool((~run & (view.bottleneck * share > 0.0)).any())
        if gap.size:
            stat_raw = _worst(stat_raw or 0.0, _max_or_zero(gap))
            stat_rel = _worst(stat_rel or 0.0, _max_or_zero(gap / np.maximum(mu, _TINY)))
        if idle:
            stat_rel = _worst(stat_rel or 0.0, 1.0)
        slack = view.incidence @ x - view.capacity * share
        comp_raw = _worst(comp_raw, _max_or_zero(np.abs(lam * slack)))
        over_raw = _worst(over_raw, _max_or_zero(slack))
        over_rel = _worst(over_rel, _max_or_zero(slack / np.maximum(view.capacity, _TINY)))
        if share > 0.0:
            # the split's condition binds only pools that hold capacity
            spread_raw = _worst(spread_raw, abs(float(view.capacity @ lam) - cost_level))

    total_share = float(share_vec.sum())
    split_excess = _worst(0.0, total_share - 1.0)
    split_comp_raw = abs(cost_level * (total_share - 1.0))

    return KKTReport(
        stationarity_raw=stat_raw,
        stationarity_rel=stat_rel,
        cost_spread_raw=spread_raw,
        cost_spread_rel=spread_raw / level_scale,
        complementarity_raw=comp_raw,
        complementarity_rel=comp_raw / level_scale,
        split_comp_raw=split_comp_raw,
        split_comp_rel=split_comp_raw / level_scale,
        overload_raw=over_raw,
        overload_rel=over_rel,
        split_excess=split_excess,
        negativity=neg,
    )


def mechanism_kkt(
    net: Network, pools: PoolSystem, utilities: UtilityTable, state: OuterState
) -> KKTReport:
    """kkt_report applied to a mechanism OuterState from anywhere.

    Like the engines, it rejects a valuation table that does not match the
    pool system (utilities.validate_against) and compiles each pool once.
    The state must fit the instance as a warm start must (multi_pool's
    _check_warm, on those views): its pools in order, per pool its edges
    and operators in order, and finite, nonnegative floating-point arrays
    of the instance's lengths, else InputMismatchError.  So a state of
    another instance is rejected, not certified at a huge residual.
    kkt_report reads the state's own arrays on the same views.  A run's
    own state needs none of this: _state_kkt(res.views, res.coefficients,
    res.state) certifies it on the views the run compiled, to the same
    report bit for bit.
    """
    utilities.validate_against(pools)
    views = [compile_pool(net, pools, k) for k in pools.pool_ids]
    _check_warm(state, dict(zip(pools.pool_ids, views)), what="state")
    return _state_kkt(views, [utilities.coefficients_for(view) for view in views], state)


def _state_kkt(views: Sequence[PoolView], coefficients: Sequence[np.ndarray], state: OuterState) -> KKTReport:
    """kkt_report on a state's arrays, pool by pool in the views' order.

    The state is not checked against the views: it must be one a run
    produced on them (a MechanismResult's state, views and coefficients)
    or one mechanism_kkt has checked.
    """
    states = [state.pool_states[view.pool_id] for view in views]
    return kkt_report(
        views,
        coefficients,
        [st.freqs for st in states],
        [st.prices for st in states],
        state.shares.values,
        state.cost_level,
    )


# ---------------------------------------------------------------------------
# Full problem: frequencies and the capacity split jointly.

@dataclass
class OracleSolution:
    """Reference optimum of the joint allocation-and-split problem.

    state is the optimum in run_mechanism's format: per pool, on its
    compiled view, prices, frequencies, share and bids x * (incidence.T @
    prices), the payments that buy those frequencies, which at the optimum
    are the best responses; then the split, the pool costs, the largest of
    them as cost level, and outer_iter 0.
    """

    state: OuterState
    cost_gap: float        # (max - mean) / max over pool costs, diagnostic
    objective: float
    kkt: KKTReport
    converged: bool


def solve_full(
    net: Network, pools: PoolSystem, utilities: UtilityTable
) -> OracleSolution:
    """Reference optimum over frequencies and the capacity split jointly.

    Every valuation is a*sqrt(x), so a pool's optimum at share f is its
    optimum at share 1 with frequencies scaled by f, edge prices by
    f**-0.5 and value V_k by sqrt(f).  Maximizing sum_k sqrt(f_k) V_k(1)
    over the split simplex then gives f_k = V_k(1)^2 / sum_j V_j(1)^2, at
    which every pool's network cost is the same (the envelope condition of
    primal decomposition).  So all pools are solved once, stacked, at share
    1: their share-1 duals are separable, so one Newton solve of the
    block-diagonal stack (_stack_pools) minimizes them all, and its prices
    and frequencies split back per pool at the views' offsets; a one-pool
    instance is solved on its own view.  A pool of value zero, such as one
    without operators, gets share zero; when every pool is worth zero the
    split is uniform.  The answer is an OuterState on the views compiled
    here, each pool compiled once per solve, and it is certified as a
    run's state is, by _state_kkt on those views and coefficient vectors;
    converged requires the solve to converge and that certificate to hold.
    """
    utilities.validate_against(pools)
    views = [compile_pool(net, pools, k) for k in pools.pool_ids]
    coeffs = [utilities.coefficients_for(view) for view in views]
    sol = _solve_one_pool(*_stack_pools(views, coeffs))
    # the answer splits back per pool at the views' offsets: each
    # elementwise step runs once over the stack, each sum over one block
    n_lops = [view.n_lops for view in views]
    bounds = [0, *accumulate(n_lops)]
    blocks = [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]
    roots = np.sqrt(np.maximum(sol.freqs, 0.0))
    values = np.array([a @ roots[block] for a, block in zip(coeffs, blocks)])
    weights = values ** 2
    total = float(weights.sum())
    split = weights / total if total > 0.0 else np.full(len(views), 1.0 / len(views))
    freqs = sol.freqs * split.repeat(n_lops)
    roots = np.sqrt(np.maximum(freqs, 0.0))

    states: dict[str, PoolMarketState] = {}
    costs: dict[str, float] = {}
    objective = 0.0
    for view, a, block, lam_1, share in zip(views, coeffs, blocks, sol.prices.reshape(len(views), -1), split):
        x = freqs[block]
        lam = lam_1 * share ** -0.5 if share > 0.0 else np.zeros_like(lam_1)
        bids = x * (view.incidence.T @ lam)
        states[view.pool_id] = PoolMarketState(view.pool_id, view.edge_ids, view.lop_ids, lam, bids, x, float(share))
        costs[view.pool_id] = pool_cost(view.capacity, lam)
        objective += float(a @ roots[block])

    level = max(costs.values())
    state = OuterState(ProportionVector(pools.pool_ids, split), states, costs, level, 0)
    report = _state_kkt(views, coeffs, state)
    return OracleSolution(
        state=state,
        cost_gap=(level - _mean(np.array(list(costs.values())))) / max(level, _TINY),
        objective=objective,
        kkt=report,
        converged=sol.converged and report.max_scaled() <= _CERTIFIED,
    )
