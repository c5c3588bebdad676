"""Centralized reference optimum and optimality certification.

The market mechanism is decentralized; this module solves the same
allocation problem directly so tests can compare the two, and certifies a
point against the optimality conditions.  Those are its two jobs.  The
exact clearing solver it calls (single_pool._clearing_prices) lives with
the engine, whose fair-share opening (_fair_opening) and stop terms
(_clearing_terms) it reads, and the certificate reads each pool's raw
terms through the stop test's own kernel (single_pool._pool_terms), so
each of these has one definition.

The reference optimum: solve_full solves all pools once, stacked, at
share 1.  There the pools' duals are separable, so the stack is one pool
whose reduced system holds the views' presolved blocks on its diagonal
(PoolView.presolve), and one Newton solve per instance (_solve_one_pool)
minimizes their sum.  The stack reads no share and no valuation, so the
pool system files it once per network, beside the views
(network._filed_stack), and a repeated solve of an instance reuses it.
Square-root valuations make a pool's optimum at share f its share-1
optimum with frequencies scaled by f and prices by f**-1/2, so its value
is sqrt(f) times its value at share 1 and the optimal split follows in
closed form.  The optimum is answered in run_mechanism's format, an
OuterState of per-pool states on the compiled views, so it can
warm-start a run.

The certificate: kkt_report certifies a point read as the engines hold
one, per-pool arrays on those views.  mechanism_kkt certifies a state, a
run's or one from elsewhere: it reads each pool's view from compile_pool,
the shared one the run read, checks the state against those views and
hands the state's arrays to kkt_report.  solve_full hands kkt_report the
arrays it built.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .network import (InputMismatchError, Network, PoolSystem, PoolView, _build_stack, _check_array, _check_real,
                      _filed_stack, _Stack, compile_pool)
from .multi_pool import OuterState, ProportionVector, _check_warm, _mean, pool_cost
from .single_pool import (_TINY, _TINY_0D, _ZERO, PoolMarketState, _PoolSolve, _clearing_prices, _fair_opening,
                          _max_or_zero, _pool_terms)
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

def _solve_one_pool(views: Sequence[PoolView], coefficients: Sequence[np.ndarray]) -> _PoolSolve:
    """All of an instance's pools at share 1, the only share the oracle solves at, in one Newton solve.

    At share 1 the pools' duals are separable, so their sum is the dual of
    one pool: the capacity vector once per pool, the coefficient vectors
    concatenated, and, as its reduced system, the views' presolved blocks
    (PoolView.presolve) on the diagonal, the stack (network._Stack).  The
    answer splits back at the stack's offsets: row p*n_edges + e is edge e
    in pool p, and the columns are the pools' operators in turn.  views is
    solve_full's filed stack, which holds that system already; any other
    sequence of views has its stack built afresh (network._build_stack), to
    the same bytes.

    Newton opens at each pool's fair-share opening prices at share 1
    (_fair_opening), where cold_start opens a run; the opening reads the
    coefficients, so it is computed per call.  A valuation a*sqrt(x)
    demands x = (a / 2 mu)**2, scale a/2 at power 2.  solve_full reaches
    every other share by 1/2-homogeneity: frequencies scale by the share,
    prices by its inverse square root.
    """
    stack = views if isinstance(views, _Stack) else _build_stack(views)
    opening = np.concatenate([_fair_opening(view, a, 1.0)[1] for view, a in zip(views, coefficients)])
    return _clearing_prices(stack.presolve, stack.budget, 0.5 * np.concatenate(coefficients), 2, opening)


# ---------------------------------------------------------------------------
# Optimality certification.

def _worst(acc: float, term: float) -> float:
    """max(acc, term), except that a NaN on either side wins.

    Python's max keeps acc when term is NaN, which would certify a NaN
    residual as zero; otherwise this is max's answer, acc on a tie.
    """
    return acc if acc >= term or acc != acc else term


def _negativity(acc: float, x: np.ndarray) -> float:
    """_worst(acc, -float(x.min(initial=0.0))) for an acc of at least 0 or NaN, read through argmin.

    argmin points at the first NaN when there is one, so a NaN wins as it
    does under min; a least entry of at least 0 leaves acc, as the zero the
    reduction starts from would.
    """
    return _worst(acc, -float(x[x.argmin()])) if x.size else acc


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
    The cost level must be a real number by _check_real's rule, and the
    coefficients, frequencies, prices and shares are read as every array
    input is (network._check_array, with negative entries let through):
    an entry that is no real number raises ValueError naming the input, so
    a bool or a string such as "3" is refused, not read as 1 or 3, and an
    array of float or integer dtype passes on its dtype alone.
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
    operators run without the mask that selects running operators.  The
    products are ndarray.dot, the BLAS call the @ operator makes, at less
    dispatch cost.
    """
    for name, seq in (("coefficient vectors", coefficients), ("frequency arrays", freqs),
                      ("price arrays", prices), ("shares", shares)):
        if len(seq) != len(views):
            raise InputMismatchError(f"{len(seq)} {name} for the {len(views)} pools {[v.pool_id for v in views]}")
    _check_real("cost_level", cost_level)
    level_scale = max(abs(cost_level), _TINY)
    share_vec = _check_array("candidate", "shares", shares, len(views), nonnegative=False)

    stat_raw: float | None = None
    stat_rel: float | None = None
    comp_raw = 0.0
    over_raw = 0.0
    over_rel = 0.0
    spread_raw = 0.0
    neg = _negativity(0.0, share_vec)

    for view, a, x, lam, share in zip(views, coefficients, freqs, prices, share_vec):
        where = f"candidate of pool {view.pool_id!r}"
        a = _check_array(where, "coefficients", a, view.n_lops, nonnegative=False)
        x = _check_array(where, "freqs", x, view.n_lops, nonnegative=False)
        lam = _check_array(where, "prices", lam, view.n_edges, nonnegative=False)
        slack = view.incidence.dot(x) - view.capacity * share
        over, comp, gap, mu = _pool_terms(a, lam, x, view.incidence.T.dot(lam), slack)
        neg = _negativity(_negativity(neg, x), lam)
        # fewer gaps than operators: some operator runs nothing, and may stand idle
        idle = gap.size < x.size and bool((~(x > 0.0) & (view.bottleneck * share > 0.0)).any())
        if gap.size:
            stat_raw = _worst(stat_raw or 0.0, _max_or_zero(gap))
            stat_rel = _worst(stat_rel or 0.0, _max_or_zero(gap / np.maximum(mu, _TINY_0D)))
        if idle:
            stat_rel = _worst(stat_rel or 0.0, 1.0)
        comp_raw = _worst(comp_raw, comp)
        over_raw = _worst(over_raw, over)
        over_rel = _worst(over_rel, _max_or_zero(slack / np.maximum(view.capacity, _TINY_0D)))
        if share > 0.0:
            # the split's condition binds only pools that hold capacity
            spread_raw = _worst(spread_raw, abs(pool_cost(view.capacity, lam) - cost_level))

    total_share = float(np.add.reduce(share_vec))
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
    kkt_report reads the state's own arrays on the same views.  This is
    the one certificate of a state, a run's, solve_full's or one from
    elsewhere; the CLI and run_recovery_experiment certify each run by it.
    """
    utilities.validate_against(pools)
    views = [compile_pool(net, pools, k) for k in pools.pool_ids]
    _check_warm(state, dict(zip(pools.pool_ids, views)), what="state")
    states = [state.pool_states[k] for k in pools.pool_ids]
    return kkt_report(views, [utilities.coefficients_for(view) for view in views], [st.freqs for st in states],
                      [st.prices for st in states], state.shares.values, state.cost_level)


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
    Newton solve of the block-diagonal stack of the views' presolves
    (_solve_one_pool, on the stack filed for the network) minimizes them
    all, and its prices and frequencies split back per pool at the stack's
    offsets.  A pool of value zero, such
    as one without operators, gets share zero; when every pool is worth
    zero the split is uniform.  The
    answer is an OuterState on compile_pool's views of the instance, shared
    with every run and certificate on it, and kkt_report certifies the
    arrays it built on those views, to mechanism_kkt's report on the state
    bit for bit; converged requires the solve to converge and that
    certificate to hold.
    """
    utilities.validate_against(pools)
    views = _filed_stack(net, pools, [compile_pool(net, pools, k) for k in pools.pool_ids])
    coeffs = [utilities.coefficients_for(view) for view in views]
    sol = _solve_one_pool(views, coeffs)
    # the answer splits back per pool at the stack's offsets: each
    # elementwise step runs once over the stack, each sum over one block
    blocks = views.blocks
    roots = np.sqrt(np.maximum(sol.freqs, _ZERO))
    values = np.array([a.dot(roots[block]) for a, block in zip(coeffs, blocks)])
    weights = values ** 2
    total = float(np.add.reduce(weights))
    split = weights / total if total > 0.0 else np.full(len(views), 1.0 / len(views))
    freqs = sol.freqs * split.repeat([view.n_lops for view in views])
    roots = np.sqrt(np.maximum(freqs, _ZERO))

    states: dict[str, PoolMarketState] = {}
    costs: dict[str, float] = {}
    objective = 0.0
    for view, a, block, lam_1, share in zip(views, coeffs, blocks, sol.prices.reshape(len(views), -1), split):
        x = freqs[block]
        lam = lam_1 * share ** -0.5 if share > 0.0 else np.zeros_like(lam_1)
        bids = x * view.incidence.T.dot(lam)
        states[view.pool_id] = PoolMarketState(view.pool_id, view.edge_ids, view.lop_ids, lam, bids, x, float(share))
        costs[view.pool_id] = pool_cost(view.capacity, lam)
        objective += float(a.dot(roots[block]))

    # the cost level as a run reads it: the mean cost of the pools that hold
    # capacity, of which the split always has one
    held = np.array(list(costs.values()))[split > _ZERO]
    level = _mean(held)
    top = float(np.maximum.reduce(held))
    report = kkt_report(views, coeffs, [st.freqs for st in states.values()], [st.prices for st in states.values()],
                        split, level)
    return OracleSolution(
        state=OuterState(ProportionVector(pools.pool_ids, split), states, costs, level, 0),
        cost_gap=(top - level) / max(top, _TINY),
        objective=objective,
        kkt=report,
        converged=sol.converged and report.max_scaled() <= _CERTIFIED,
    )
