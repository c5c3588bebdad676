"""Centralized reference optimum and optimality certification.

The market mechanism is decentralized; this module solves the same
allocation problem directly so tests can compare the two, and certifies a
point against the optimality conditions.  Those are its two jobs.  The
exact clearing solver it calls (single_pool._clearing_prices) lives with
the engine, whose opening (_fair_split, _neck_prices) and stop terms
(_clearing_terms) it reads, and the certificate reads each pool's raw
terms through the stop test's own kernel (single_pool._pool_terms), so
each of these has one definition.

The reference optimum: solve_full solves all pools once, stacked, at
share 1.  There the pools' duals are separable, so the stack is one pool
with the pools' incidences on its diagonal (single_pool._stack_pools),
and one Newton solve per instance (_solve_one_pool) minimizes their sum,
opening where the engine opens, at cold_start's share-1 prices.
Square-root valuations make a pool's optimum at share f its share-1
optimum with frequencies scaled by f and prices by f**-1/2, so its value
is sqrt(f) times its value at share 1 and the optimal split follows in
closed form.  The optimum is answered in run_mechanism's format, an
OuterState of per-pool states on the compiled views, so it can
warm-start a run.

The certificate: kkt_report certifies a point read as the engines hold
one, per-pool arrays on those views; _state_kkt reads a run's or
solve_full's state on the views it was computed on, and mechanism_kkt a
state from elsewhere, once it has compiled every pool and checked the
state against those views.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate
from typing import Sequence

import numpy as np

from .network import InputMismatchError, Network, PoolSystem, PoolView, _check_length, _check_real, compile_pool
from .multi_pool import OuterState, ProportionVector, _check_warm, _mean, pool_cost
from .single_pool import (_TINY, PoolMarketState, _PoolSolve, _clearing_prices, _fair_split, _max_or_zero,
                          _neck_prices, _pool_terms, _stack_pools)
from .utility import UtilityTable

__all__ = [
    "KKTReport",
    "kkt_report",
    "mechanism_kkt",
    "OracleSolution",
    "solve_full",
]

# solve_full claims convergence only when its own certificate reads at most
# this; exact answers read about 1e-11
_CERTIFIED = 1e-6


# ---------------------------------------------------------------------------
# Pool solves.

def _solve_one_pool(incidence: np.ndarray, capacity: np.ndarray, coefficients: np.ndarray) -> _PoolSolve:
    """One pool's optimum at share 1, the only share the oracle solves at.

    solve_full hands it all of an instance's pools once, stacked into one
    pool's incidence, capacity and coefficients (_stack_pools).  Newton
    opens at the engine's own share-1 opening, the prices of
    cold_start(view, coefficients, 1.0), computed here from the same two
    single_pool helpers without the opening frequencies, which Newton never
    reads; on a stack that is each pool's opening, block by block.  A
    valuation a*sqrt(x) demands x = (a / 2 mu)**2, scale a/2 at power 2,
    and opens at the bid a/2 * sqrt(fair ratio).

    solve_full reaches every other share by 1/2-homogeneity: frequencies
    scale by the share, prices by its inverse square root.
    """
    scale = 0.5 * coefficients
    fair_ratio, neck = _fair_split(incidence, capacity)
    opening = _neck_prices(neck, scale * np.sqrt(fair_ratio), capacity)
    return _clearing_prices(incidence, capacity, scale, 2, opening)


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
    edge of the view; then one share per pool and the common cost level,
    a real number (a bool or a string such as "3" raises ValueError).
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
    and compiled.  Each pool's overload, complementarity and per-operator
    gaps between marginal value and path price come from the stop test's
    kernel (single_pool._pool_terms), so they are the stop test's raw terms
    bit for bit; this report scales them by capacity, cost level and the
    path price floored at _TINY.  The kernel reads a pool all of whose
    operators run without the mask that selects running operators.
    """
    pool_ids = [view.pool_id for view in views]
    for name, seq in (("coefficient vectors", coefficients), ("frequency arrays", freqs),
                      ("price arrays", prices), ("shares", shares)):
        if len(seq) != len(views):
            raise InputMismatchError(f"{len(seq)} {name} for the {len(views)} pools {pool_ids}")
    _check_real("cost_level", cost_level)
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
            _check_length(f"candidate of pool {view.pool_id!r}", name, values, n)
        slack = view.incidence @ x - view.capacity * share
        over, comp, gap, mu = _pool_terms(a, lam, x, view.incidence.T @ lam, slack)
        neg = _worst(_worst(neg, -float(x.min(initial=0.0))), -float(lam.min(initial=0.0)))
        # fewer gaps than operators: some operator runs nothing, and may stand idle
        idle = gap.size < x.size and bool((~(x > 0.0) & (view.bottleneck * share > 0.0)).any())
        if gap.size:
            stat_raw = _worst(stat_raw or 0.0, _max_or_zero(gap))
            stat_rel = _worst(stat_rel or 0.0, _max_or_zero(gap / np.maximum(mu, _TINY)))
        if idle:
            stat_rel = _worst(stat_rel or 0.0, 1.0)
        comp_raw = _worst(comp_raw, comp)
        over_raw = _worst(over_raw, over)
        over_rel = _worst(over_rel, _max_or_zero(slack / np.maximum(view.capacity, _TINY)))
        if share > 0.0:
            # the split's condition binds only pools that hold capacity
            spread_raw = _worst(spread_raw, abs(pool_cost(view.capacity, lam) - cost_level))

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
    pool system (utilities.validate_against) and reads each pool's view
    from compile_pool, the one a run or solve_full on the instance read.
    The state must fit the instance as a warm start must (multi_pool's
    _check_warm, on those views): its pools in order, per pool its edges
    and operators in order, finite, nonnegative floating-point arrays of
    the instance's lengths, a finite, nonnegative real share and a finite
    real cost level, else InputMismatchError.  So a state of another
    instance is rejected, not certified at a huge residual.
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
    are the best responses; then the split, the pool costs, the cost level
    as a run sets it, the mean cost of the pools holding a positive share,
    and outer_iter 0.  cost_gap is (largest - level) / largest over those
    same pools, a diagnostic that reads zero at an exactly balanced split.
    """

    state: OuterState
    cost_gap: float
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
    which every pool holding a share has the same network cost (the
    envelope condition of primal decomposition); its mean over those pools
    is the answer's cost level, as it is a run's.  So all pools are solved
    once, stacked, at share 1: their share-1 duals are separable, so one
    Newton solve of the block-diagonal stack (_stack_pools) minimizes them
    all, and its prices and frequencies split back per pool at the views'
    offsets.  A pool of value zero, such as one without operators, gets
    share zero; when every pool is worth zero the split is uniform.  The
    answer is an OuterState on compile_pool's views of the instance, shared
    with every run and certificate on it, and it is certified as a run's
    state is, by _state_kkt on those views and coefficient vectors;
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

    # the cost level as a run reads it: the mean cost of the pools that hold
    # capacity, of which the split always has one
    held = np.array(list(costs.values()))[split > 0.0]
    level = _mean(held)
    top = float(held.max())
    state = OuterState(ProportionVector(pools.pool_ids, split), states, costs, level, 0)
    report = _state_kkt(views, coeffs, state)
    return OracleSolution(
        state=state,
        cost_gap=(top - level) / max(top, _TINY),
        objective=objective,
        kkt=report,
        converged=sol.converged and report.max_scaled() <= _CERTIFIED,
    )
