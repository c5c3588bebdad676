"""Centralized reference solver and optimality certification.

The market mechanism is decentralized; this module solves the same
allocation problem directly so tests can compare the two.  There is one
solve path: each pool is solved once, at share 1, by minimizing the explicit
convex dual of its concave program over edge prices with a projected,
Levenberg-damped Newton method (see _clearing_prices).  That solver knows
one demand law, x = (scale / path price)**power: a valuation a*sqrt(x) is
power 2 at scale a/2, and a frozen bid w (solve_fixed_bids) is power 1 at
scale w.  Newton opens where the engine opens, at single_pool.cold_start's
share-1 prices, which it computes from the same two single_pool helpers
(_fair_split and _neck_prices), and stops on the engine's own overload and
complementarity terms (_clearing_terms), so each of these has one
definition, in single_pool.  Square-root valuations make a pool's
optimum at share f its share-1 optimum with frequencies scaled by f and
prices by f**-1/2, so its value is sqrt(f) times its value at share 1 and
the optimal split follows in closed form (see solve_full).  kkt_report
certifies a candidate point from either solver; solve_full hands it the
views it compiled, so each pool is compiled once per solve.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .network import InputMismatchError, Network, PoolSystem, PoolView, compile_pool
from .multi_pool import OuterState
from .single_pool import _clearing_terms, _fair_split, _neck_prices
from .utility import UtilityTable

__all__ = [
    "KKTReport",
    "kkt_report",
    "mechanism_kkt",
    "solve_fixed_bids",
    "OracleSolution",
    "solve_full",
]

_TINY = 1e-30
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


def _row_groups(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First occurrences and group ids of equal rows of a 0/1 matrix.

    The answer of np.unique(rows, axis=0, return_index=True,
    return_inverse=True), without its structured-dtype sort: rows holding
    only 0.0 and 1.0 compare byte by byte as they compare by value, so one
    sort of each row's bytes, as one opaque item, orders them the same way.
    """
    keys = np.ascontiguousarray(rows).view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()
    _, first, group = np.unique(keys, return_index=True, return_inverse=True)
    return first, group


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
    columns only, and of their rows one per group.  Edges crossed by
    exactly the same set of active operators are collapsed by grouping
    their active incidence rows (see _row_groups): within such a group only
    the scarcest edge, its representative, can carry a positive price, and
    the collapse removes the flat directions that would otherwise make the
    Newton system singular.  An inactive operator never enters the system,
    so the solve is the one of the same pool with its column deleted; at
    the exit the prices are scattered onto the representatives and the
    frequencies onto the active columns, every other entry zero.

    Newton opens at `opening`, the engine's fair-share opening prices
    (single_pool's neck charge), summed onto each group's representative;
    the sum keeps every active path price, so the dual value is finite from
    the start.  The dual value blows up whenever an active operator's path
    turns free of charge, so descent steps keep every such path priced
    without explicit bookkeeping.  The stop test reads the engine's own
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
    # an operator whose line crosses a closed edge can run nothing; left
    # active, it would price that edge without bound and stall the descent
    act = (scale > 0.0) & ~incidence[budget <= 0.0].any(axis=0)
    if not act.any():
        return _PoolSolve(np.zeros(n_edges), np.zeros(n_lops), True, 0, 0)

    # group the edges active lines cross by their active rows, scarcest edge
    # first, so each group's first edge is its representative
    rows = incidence[:, act]
    edges = rows.any(axis=1).nonzero()[0]
    edges = edges[np.argsort(budget[edges], kind="stable")]
    first, group = _row_groups(rows[edges])
    reps = edges[first]
    sub_inc = rows[reps]
    sub_budget = budget[reps]
    prices = np.bincount(group, weights=opening[edges], minlength=len(reps))
    scale_b = max(1.0, float(sub_budget.max()))
    s = scale[act]
    s_sq = s ** 2
    evals = 0

    def demand(mu: np.ndarray) -> np.ndarray:
        return (s / np.maximum(mu, _TINY)) ** power

    def dual_value(pr: np.ndarray) -> tuple[float, np.ndarray]:
        """The dual value at edge prices pr, and the path prices there."""
        nonlocal evals
        evals += 1
        mu = sub_inc.T @ pr
        if (mu <= 0.0).any():
            return np.inf, mu
        m = np.maximum(mu, _TINY)
        value = s_sq / m if power == 2 else s * (np.log(s / m) - 1.0)
        return float(value.sum() + pr @ sub_budget), mu

    cur, mu = dual_value(prices)
    x = demand(mu)
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
        hess = (sub * (power * x / np.maximum(mu, _TINY))) @ sub.T
        lev = max(1e-14 * float(hess.trace()) / len(fset),
                  1e-8 * float(np.abs(gf).max()) / scale_b)
        hess.flat[:: len(fset) + 1] += lev
        try:
            newton = np.linalg.solve(hess, -gf)
        except np.linalg.LinAlgError:
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
                    if (moved_to == base).all():
                        break
                    prices, cur, mu = trial, value, trial_mu
                    accepted = True
                    break
                t_step *= 0.5
            if accepted:
                break
        if not accepted:
            break
        x = demand(mu)
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
    freqs = np.zeros(n_lops)
    freqs[act] = x
    return _PoolSolve(out, freqs, converged, iters, evals)

# ---------------------------------------------------------------------------
# Pool solves.

def _solve_one_pool(view: PoolView, coefficients: np.ndarray) -> _PoolSolve:
    """One pool's optimum at share 1, the only share the oracle solves at.

    Newton opens at the engine's own share-1 opening, the prices of
    cold_start(view, coefficients, 1.0), computed here from the same two
    single_pool helpers without the opening frequencies, which Newton never
    reads.  A valuation a*sqrt(x) demands x = (a / 2 mu)**2, scale a/2 at
    power 2, and opens at the bid a/2 * sqrt(fair ratio).

    solve_full reaches every other share by 1/2-homogeneity: frequencies
    scale by the share, prices by its inverse square root.
    """
    scale = 0.5 * coefficients
    fair_ratio, neck = _fair_split(view)
    opening = _neck_prices(neck, scale * np.sqrt(fair_ratio), view.capacity)
    return _clearing_prices(view.incidence, view.capacity, scale, 2, opening)


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
    per-edge capacity for overloads.
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
        return max(vals)


def kkt_report(
    net: Network,
    pools: PoolSystem,
    utilities: UtilityTable,
    freqs: Mapping[tuple[str, str], float],
    shares: Mapping[str, float],
    prices: Mapping[tuple[str, str], float],
    cost_level: float,
    *,
    views: Sequence[PoolView] | None = None,
) -> KKTReport:
    """Certify a candidate clearing point against the optimality conditions.

    Checks, per pool: marginal value equals path price on running lines
    and no line that could run stands idle,
    priced edges run at share-scaled capacity, loads within capacity, and,
    for a pool with a positive share, network cost at pool prices equals
    the common cost level; plus the split summing to one with complementary
    cost level, and nonnegativity all around.  Each pool is read through
    compile_pool, the view the engines run on, so a line or capacity they
    reject raises InputMismatchError here too.  A caller that holds the
    views already, as solve_full does, passes them in pools.pool_ids order
    and nothing is compiled twice.  An empty pool system, or shares keyed
    by other pools than the system lists, raises InputMismatchError.
    """
    if not pools.pool_ids:
        raise InputMismatchError("the pool system lists no pools")
    missing = [k for k in pools.pool_ids if k not in shares]
    extra = sorted(set(shares) - set(pools.pool_ids))
    if missing or extra:
        raise InputMismatchError(f"shares do not match the pools: missing={missing} extra={extra}")
    if views is None:
        views = [compile_pool(net, pools, k) for k in pools.pool_ids]
    elif [view.pool_id for view in views] != list(pools.pool_ids):
        raise InputMismatchError("views must be the pools' compiled views, in pool order")
    level_scale = max(abs(cost_level), _TINY)
    share_vec = np.array([float(shares[k]) for k in pools.pool_ids])

    stat_raw: float | None = None
    stat_rel: float | None = None
    comp_raw = 0.0
    over_raw = 0.0
    over_rel = 0.0
    spread_raw = 0.0
    neg = max(0.0, -float(share_vec.min(initial=0.0)))

    for k, view, share in zip(pools.pool_ids, views, share_vec):
        x = np.array([float(freqs.get((lop, k), 0.0)) for lop in view.lop_ids])
        lam = np.array([float(prices.get((eid, k), 0.0)) for eid in view.edge_ids])
        neg = max(neg, -float(x.min(initial=0.0)), -float(lam.min(initial=0.0)))
        run = x > 0.0
        if run.any():
            mu = (view.incidence.T @ lam)[run]
            gap = np.abs(utilities.coefficients_for(view)[run] / (2.0 * np.sqrt(x[run])) - mu)
            stat_raw = max(stat_raw or 0.0, float(gap.max()))
            stat_rel = max(stat_rel or 0.0, float((gap / np.maximum(mu, _TINY)).max()))
        if (~run & (view.bottleneck * share > 0.0)).any():
            stat_rel = max(stat_rel or 0.0, 1.0)
        slack = view.incidence @ x - view.capacity * share
        comp_raw = max(comp_raw, float(np.abs(lam * slack).max(initial=0.0)))
        over_raw = max(over_raw, float(slack.max(initial=0.0)))
        over_rel = max(over_rel, float((slack / np.maximum(view.capacity, _TINY)).max(initial=0.0)))
        if share > 0.0:
            # the split's condition binds only pools that hold capacity
            spread_raw = max(spread_raw, abs(float(view.capacity @ lam) - cost_level))

    total_share = float(share_vec.sum())
    split_excess = max(0.0, total_share - 1.0)
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
    """kkt_report applied to a mechanism OuterState."""
    freqs: dict[tuple[str, str], float] = {}
    prices: dict[tuple[str, str], float] = {}
    for k, st in state.pool_states.items():
        for lop, x in zip(st.lop_ids, st.freqs):
            freqs[(lop, k)] = float(x)
        for eid, lam in zip(st.edge_ids, st.prices):
            if lam != 0.0:
                prices[(eid, k)] = float(lam)
    return kkt_report(net, pools, utilities, freqs, state.shares.as_dict(), prices, state.cost_level)


# ---------------------------------------------------------------------------
# Full problem: frequencies and the capacity split jointly.

@dataclass
class OracleSolution:
    """Reference optimum of the joint allocation-and-split problem."""

    frequencies: dict[tuple[str, str], float]
    shares: dict[str, float]
    prices: dict[tuple[str, str], float]
    cost_level: float
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
    primal decomposition).  So each pool is solved once, at share 1.  A
    pool of value zero, such as one without operators, gets share zero;
    when every pool is worth zero the split is uniform.  converged requires
    every pool solve to converge and the certificate to hold; kkt_report
    certifies the answer on the views compiled here.  An empty pool system
    raises InputMismatchError.
    """
    if not pools.pool_ids:
        raise InputMismatchError("the pool system lists no pools")
    utilities.validate_against(pools)
    views = [compile_pool(net, pools, k) for k in pools.pool_ids]
    coeffs = [utilities.coefficients_for(view) for view in views]
    sols = [_solve_one_pool(view, a) for view, a in zip(views, coeffs)]
    values = np.array([float(a @ np.sqrt(np.maximum(sol.freqs, 0.0))) for a, sol in zip(coeffs, sols)])
    weights = values ** 2
    total = float(weights.sum())
    split = weights / total if total > 0.0 else np.full(len(views), 1.0 / len(views))

    freqs: dict[tuple[str, str], float] = {}
    prices: dict[tuple[str, str], float] = {}
    costs: list[float] = []
    objective = 0.0
    for k, view, a, sol, share in zip(pools.pool_ids, views, coeffs, sols, split):
        x_k = sol.freqs * share
        lam_k = sol.prices * share ** -0.5 if share > 0.0 else np.zeros_like(sol.prices)
        for lop, x in zip(view.lop_ids, x_k.tolist()):
            freqs[(lop, k)] = x
        for eid, lam in zip(view.edge_ids, lam_k.tolist()):
            if lam != 0.0:
                prices[(eid, k)] = lam
        costs.append(float(view.capacity @ lam_k))
        objective += float(a @ np.sqrt(np.maximum(x_k, 0.0)))

    cost_level = max(costs)
    cost_gap = (max(costs) - float(np.mean(costs))) / max(max(costs), _TINY)
    shares = {k: float(s) for k, s in zip(pools.pool_ids, split)}
    report = kkt_report(net, pools, utilities, freqs, shares, prices, cost_level, views=views)
    return OracleSolution(
        frequencies=freqs,
        shares=shares,
        prices=prices,
        cost_level=cost_level,
        cost_gap=cost_gap,
        objective=objective,
        kkt=report,
        converged=all(sol.converged for sol in sols) and report.max_scaled() <= _CERTIFIED,
    )
