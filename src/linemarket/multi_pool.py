"""Cross-pool capacity split driven by pool cost equalization.

Each pool clears its own market at the current capacity split; the split
then moves each share by the square of its pool's cost over the mean cost,
is renormalized onto the simplex, and the inner markets re-clear warm from
their last states rescaled to the new shares.  Square-root valuations make
a pool's cost at share f its cost at share 1 over sqrt(f), so with exactly
cleared pools one such step lands on the optimal split, however small a
share that split gives a pool: the step is multiplicative, so it needs no
lower bound on the shares.  A pool none of whose lines can run holds no
capacity: it keeps share zero, which the update leaves at zero, and stays
out of the equal-cost test.  At the joint fixed point every pool is
internally cleared and all pool costs agree, which is the optimality
certificate for the split.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .network import (InputMismatchError, Network, PoolSystem, PoolView, _check_length, _check_nonnegative,
                      _check_real, compile_pool)
from .single_pool import (
    DynamicsConfig,
    PoolMarketState,
    SinglePoolResult,
    _TINY,
    _run_pool,
)
from .utility import UtilityTable

__all__ = [
    "ProportionVector",
    "MechanismConfig",
    "OuterState",
    "MechanismResult",
    "pool_cost",
    "costs_equal",
    "update_proportions",
    "run_mechanism",
]

# The split updates one run_mechanism call may spend.  A run that spends
# them all returns converged=False with diagnostics; no configuration sets
# the budget.
_MAX_OUTER = 200


@dataclass(frozen=True)
class ProportionVector:
    """Capacity split across pools: one value per pool id, finite, nonnegative, sums to one.

    values is the split's own read-only copy of the array it was given, so
    no two splits, nor a split and its caller, share writable memory.  Each
    entry must be a real number (_real_values), else ValueError: a bool or
    a string such as "0.5" is no share, though float() would take it.
    """

    pool_ids: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.array(_real_values("proportion", self.values))
        values.flags.writeable = False
        object.__setattr__(self, "values", values)
        n = len(self.pool_ids)
        if values.shape != (n,):
            raise ValueError(f"proportions have shape {values.shape}; the {n} pool ids need ({n},)")
        if n:
            # argmin and argmax point at the first NaN when there is one, so
            # the smallest and largest entries decide what isfinite would
            low, high = values[values.argmin()], values[values.argmax()]
            if not -np.inf < low <= high < np.inf:
                raise ValueError(f"proportions must be finite, got {self.values}")
            if low < -1e-12:
                raise ValueError("proportions must be nonnegative")
        if abs(float(self.values.sum()) - 1.0) > 1e-9:
            raise ValueError(f"proportions must sum to 1, got {self.values.sum()}")

    @classmethod
    def uniform(cls, pool_ids: tuple[str, ...]) -> "ProportionVector":
        n = len(pool_ids)
        return cls(pool_ids, np.full(n, 1.0 / n))

    def share(self, pool_id: str) -> float:
        """The share of pool_id; a pool the split does not cover raises InputMismatchError."""
        try:
            return float(self.values[self.pool_ids.index(pool_id)])
        except ValueError:
            raise InputMismatchError(f"the split has no share for pool {pool_id!r}; it covers "
                                     f"{list(self.pool_ids)}") from None

    def as_dict(self) -> dict[str, float]:
        return {k: float(v) for k, v in zip(self.pool_ids, self.values)}


def _real_values(name: str, values) -> np.ndarray:
    """values as a float array whose every entry is a real number by _check_real's rule.

    np.asarray(values, dtype=float) would take "0.5" and True; here either
    raises ValueError naming name.  An array of floating-point or integer
    dtype passes on its dtype alone.
    """
    if getattr(getattr(values, "dtype", None), "kind", None) not in ("f", "i", "u"):
        for value in np.ravel(np.array(values, dtype=object)):
            _check_real(name, value)
    return np.asarray(values, dtype=float)


def _mean(x: np.ndarray) -> float:
    """float(x.mean()) of a nonempty float array, bit for bit.

    np.mean divides the same sum by the same count, behind a Python wrapper
    that costs more than the sum.
    """
    return float(x.sum() / len(x))


def pool_cost(capacity: np.ndarray, prices: np.ndarray) -> float:
    """Cost of the whole network at one pool's prices (capacity dot prices)."""
    return float(capacity @ prices)


def costs_equal(costs: np.ndarray, eps_cost: float) -> bool:
    """Relative spread test: (max - min) / mean within eps_cost.

    A single pool trivially passes.
    """
    if len(costs) <= 1:
        return True
    spread = float(costs.max() - costs.min())
    return spread / max(_mean(costs), _TINY) <= eps_cost


def update_proportions(shares: ProportionVector, costs: np.ndarray) -> ProportionVector:
    """One proportional-response step of the capacity split.

    Each share is multiplied by (cost_k / mean cost)**2 and the split is
    renormalized.  The step is multiplicative, so a positive share stays
    positive however small, and a zero share (a pool of cost zero, such as
    one that cannot run) stays zero.  A pool's cost at share f is its cost
    at share 1 over sqrt(f), so fed exactly cleared costs the step lands on
    the optimal split at once, however lopsided.  The warm states are
    rescaled to the new split by the pool runs, not overwritten here.  costs
    must hold one real number per pool of the split (_real_values), else
    ValueError, and each must be finite and nonnegative, else
    InputMismatchError.  A mean cost of zero makes the step undefined; the
    split is returned unchanged.
    """
    costs = _real_values("cost", costs)
    _check_length("split update", "costs", costs, len(shares.pool_ids))
    _check_nonnegative("split update", "costs", costs)
    level = _mean(costs)
    if not level > 0.0:
        return shares
    raw = shares.values * (costs / level) ** 2
    return ProportionVector(shares.pool_ids, raw / raw.sum())


@dataclass(frozen=True)
class MechanismConfig:
    """Outer-loop tuning: the inner dynamics and the equal-cost test.

    The split needs no lower bound: the split update keeps every positive
    share positive, so a pool may end at as small a share as the optimum
    gives it.  The split updates a run may spend are the module constant
    _MAX_OUTER, as a pool run's refresh passes are single_pool._MAX_PASSES.
    """

    inner: DynamicsConfig = field(default_factory=DynamicsConfig)
    eps_cost: float = 0.05

    def __post_init__(self) -> None:
        _check_real("eps_cost", self.eps_cost, "(0, inf)")


@dataclass
class OuterState:
    """Joint state of the mechanism between outer iterations.

    A run's end state and solve_full's optimum are both one of these, and
    the CLI writes both in one format (solve's state_seed*.json, oracle's
    oracle_seed*.json).  cost_level has one meaning for both: the mean
    cost over the pools that hold capacity, a run's live pools at its last
    measurement and the optimum's pools of positive share, 0 when there
    are none.
    """

    shares: ProportionVector
    pool_states: dict[str, PoolMarketState]
    pool_costs: dict[str, float]
    cost_level: float
    outer_iter: int


@dataclass
class MechanismResult:
    """A run's end state and its counts.

    It holds no wall-clock time, so every field is the same on a rerun; a
    caller that wants the time measures the call.  The state is certified
    as any state is, by oracle.mechanism_kkt on the instance, which reads
    the views the run read (compile_pool's shared ones).
    """

    state: OuterState
    converged: bool
    f_updates: int
    price_updates: dict[str, int]
    bid_updates: int
    objective: float
    outer_trace: list[dict]
    diagnostics: str = ""


def _check_warm(warm: OuterState, views: Mapping[str, PoolView], what: str = "warm state") -> None:
    """Reject a warm state that does not fit the instance or holds values no run can resume.

    Its pools, and per pool its edges and operators, must be the instance's
    in order.  Each pool state's prices must be a floating-point array of
    one entry per edge, its bids and freqs one of one entry per operator,
    none of them negative or non-finite, and its share a real number (not
    a bool), finite and at least 0.  The state's cost_level must be a
    finite real number too.
    what names the state in the error; the certifier checks the states it
    reads by the same rule (oracle.mechanism_kkt).
    """
    pool_ids = tuple(views)
    if tuple(warm.shares.pool_ids) != pool_ids or set(warm.pool_states) != set(pool_ids):
        raise InputMismatchError(
            f"{what} covers pools {sorted(warm.pool_states)} with split over "
            f"{list(warm.shares.pool_ids)}; the instance has {list(pool_ids)}"
        )
    for k, view in views.items():
        st = warm.pool_states[k]
        where = f"{what} of pool {k!r}"
        if tuple(st.edge_ids) != view.edge_ids or tuple(st.lop_ids) != view.lop_ids:
            raise InputMismatchError(f"{where} has other edges or operators than the instance")
        for name, n in (("prices", view.n_edges), ("bids", view.n_lops), ("freqs", view.n_lops)):
            values = getattr(st, name)
            _check_length(where, name, values, n)
            dtype = getattr(values, "dtype", None)
            # kind "f" is every floating-point dtype, as np.issubdtype(dtype, np.floating) reads it
            if getattr(dtype, "kind", None) != "f":
                raise InputMismatchError(f"{where}: {name} is not a floating-point array (dtype {dtype})")
            _check_nonnegative(where, name, values)
        _check_real(f"{where}: share", st.share, "[0, inf)", InputMismatchError)
    _check_real(f"{what}: cost_level", warm.cost_level, "(-inf, inf)", InputMismatchError)


def _live_split(shares: ProportionVector, live: np.ndarray) -> ProportionVector:
    """Move the split onto the pools that can run, keeping their proportions.

    A pool that can run but holds share zero, say one whose closed line has
    reopened, rejoins at the mean share of the others (evenly if none holds
    any), since the split update keeps a zero share at zero.  When no pool
    can run the split is uniform, as in solve_full.
    """
    if not live.any():
        return ProportionVector.uniform(shares.pool_ids)
    if not np.count_nonzero((shares.values > 0.0) != live):
        return shares
    values = np.where(live, shares.values, 0.0)
    kept = values > 0.0
    values[live & ~kept] = values[kept].mean() if kept.any() else 1.0
    return ProportionVector(shares.pool_ids, values / values.sum())


def run_mechanism(
    net: Network,
    pools: PoolSystem,
    utilities: UtilityTable,
    cfg: MechanismConfig | None = None,
    warm: OuterState | None = None,
) -> MechanismResult:
    """Run the full two-level mechanism to the equal-cost fixed point.

    Cold runs start from the uniform split with fresh pool markets; a warm
    OuterState resumes with its split, prices, and bids intact, each pool
    state rescaled if it cleared at another share.  Either way a pool none
    of whose lines can run holds share zero (see _live_split for how the
    split moves when that set changes).  Every pool runs through
    _run_pool, such a pool at share 0.0, where its cold start is an empty
    market (zero prices, bids and frequencies, share 0.0) that takes no
    update, also when no pool can run and the split is uniform.  A warm
    state must carry the
    instance's pools in order and, per pool, its edges and operators in
    order, with finite, nonnegative floating-point prices, bids and
    frequencies of the instance's lengths and a share that is a finite,
    nonnegative real number, and its cost level must be a finite real
    number (see _check_warm), else InputMismatchError.
    The warm state itself is left as it was, and the result holds its own
    copy of the split.  The result reports convergence honestly: a pool
    run that spends single_pool._MAX_PASSES refresh passes, or a run that
    spends _MAX_OUTER split updates, yields converged=False plus
    diagnostics, never an exception.
    """
    cfg = cfg or MechanismConfig()
    utilities.validate_against(pools)
    pool_ids = tuple(pools.pool_ids)
    views: dict[str, PoolView] = {k: compile_pool(net, pools, k) for k in pool_ids}
    coeffs = {k: utilities.coefficients_for(views[k]) for k in pool_ids}
    capacity = net.capacity_vector()

    if warm is not None:
        _check_warm(warm, views)
        shares = ProportionVector(pool_ids, warm.shares.values)  # a copy: the result's split is its own
        # _run_pool resumes a copy, so the caller's states are never written
        states: dict[str, PoolMarketState | None] = {k: warm.pool_states[k] for k in pool_ids}
    else:
        shares = ProportionVector.uniform(pool_ids)
        states = {k: None for k in pool_ids}
    # as in solve_full, a pool none of whose lines can run (it has none, or
    # each crosses a closed edge) holds no capacity: it runs at share zero,
    # where it cold-starts to an empty market of cost zero in no update, and
    # the split update keeps its share at zero; the equal-cost test sees
    # only the others
    live = np.array([views[k].runs.any() for k in pool_ids])
    shares = _live_split(shares, live)

    price_updates = {k: 0 for k in pool_ids}
    bid_updates = 0
    outer_trace: list[dict] = []
    diagnostics = ""
    converged = False

    # the loop runs at least once, and its first pass sets pool_costs and level
    for outer in range(_MAX_OUTER + 1):
        inner_ok = True
        for k, on in zip(pool_ids, live):
            res: SinglePoolResult = _run_pool(views[k], coeffs[k], shares.share(k) if on else 0.0, states[k], cfg.inner)
            states[k] = res.state
            price_updates[k] += res.iterations
            bid_updates += res.bid_updates
            if not res.converged:
                inner_ok = False
                diagnostics = (
                    f"pool {k} hit the iteration budget at outer step {outer} "
                    f"(residuals: excess={res.residuals.max_excess:.3g}, "
                    f"complementarity={res.residuals.max_complementarity:.3g}, "
                    f"stationarity={res.residuals.max_stationarity:.3g})"
                )
        pool_costs = {k: pool_cost(capacity, states[k].prices) for k in pool_ids}
        costs = np.array([pool_costs[k] for k in pool_ids])
        live_costs = costs[live]
        level = _mean(live_costs) if live.any() else 0.0
        outer_trace.append(
            {
                "outer_iter": outer,
                "shares": shares.as_dict(),
                "costs": dict(pool_costs),
                "cost_level": level,
                "price_updates": dict(price_updates),
            }
        )
        if not inner_ok:
            break
        if costs_equal(live_costs, cfg.eps_cost):
            converged = True
            break
        if outer == _MAX_OUTER:
            diagnostics = f"equal-cost test still failing after {_MAX_OUTER} split updates"
            break
        shares = update_proportions(shares, costs)

    return MechanismResult(
        state=OuterState(
            shares=shares,
            pool_states=states,
            pool_costs=pool_costs,
            cost_level=level,
            outer_iter=outer,
        ),
        converged=converged,
        f_updates=outer,  # one split update per outer step before the last
        price_updates=price_updates,
        bid_updates=bid_updates,
        objective=sum(float(coeffs[k] @ np.sqrt(np.maximum(states[k].freqs, 0.0))) for k in pool_ids),
        outer_trace=outer_trace,
        diagnostics=diagnostics,
    )
