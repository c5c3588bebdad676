"""Per-pool bidding market: price dynamics, allocations, bid refresh.

Inside one pool the frequency proportion is fixed and three coupled rules
interact:

* the network side nudges each edge price along the capacity excess and
  projects at zero (price_step),
* operators are allocated bid/price trains on their line (allocate_frequencies),
* every DynamicsConfig.bid_refresh_period price updates, a constant 10,
  operators re-bid optimally against current path prices (refresh_bids).

The fixed point of the three rules clears the pool: priced edges run at
capacity, unpriced edges have slack, and every allocation sits where the
operator's marginal value meets her path price.

A cold run opens at fair-share bids (cold_start): each operator bids what
the smallest even split of capacity along its line is worth to it, and
charges that bid to the edge or edges of its line that set the split, its
neck.  Each neck prices the bids charged to it over its share-scaled
capacity and every other edge opens unpriced, so a line opens at the path
price that buys its fair share, not at the sum of every edge's rationing
price.  That opening is the optimum on a lone edge and scales with the
share as the optimum does, so the loop only corrects what the even split
got wrong.

The loop runs on the pool's own edges only, the edges some line of the
pool uses (PoolView.own_edges).  No load ever reaches another edge, so its
price is zero at every clearing point and it adds nothing to the stop
test: the loop holds it at zero and never steps it.

The loop checks its stop test only at refresh boundaries, and computes the
full residuals (pool_residuals) only at a boundary whose worst overload and
worst price * |excess| already pass (_may_stop), or when the budget runs
out.  When every path is priced, allocate_frequencies and refresh_bids
skip their zero-price masks, and _bid_terms its zero-bid mask when every
line bids; the masked paths give the same numbers there.  Each step picks
its path with _positive, which decides as x.min(initial=inf) > 0 does,
NaN included, at a third of a reduction's cost.  Both conditions hold at
every call on the chain, two-pool grid and recovery benchmarks.  Where
they fail, as in a pool with a closed edge or a line that cannot run, the
steps take the masked paths.
"""
from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .network import PoolView
from .utility import best_response_bids

__all__ = [
    "DynamicsConfig",
    "PoolMarketState",
    "SinglePoolResult",
    "default_price_eta",
    "cold_start",
    "price_step",
    "allocate_frequencies",
    "refresh_bids",
    "pool_residuals",
    "run_price_dynamics",
]

# Allocations at a positive path price are truncated at this multiple of the
# line's physical ceiling.  Any factor above one keeps the excess signal
# alive while prices catch up, without letting loads blow up when bids and
# prices are still orders of magnitude apart; below one it would cut an
# unpriced bidder below its ceiling.
_OVERLOAD = 1.25

# The stop test's tolerances: a pool has cleared when neither its worst
# overload nor its worst price * |excess| exceeds _ABS_TOL and every active
# line's marginal value is within _REL_TOL of its path price, relatively.  A
# refresh that moves some bid by more than _REL_TOL counts as a bid update.
_ABS_TOL = 0.1
_REL_TOL = 0.1


@dataclass(frozen=True)
class DynamicsConfig:
    """Tuning knobs for the in-pool dynamics: the price step and the budget.

    price_eta of None means the capacity-scaled default: one percent of the
    smallest open edge capacity divided by the largest number of lines
    sharing an edge.  max_iters, the price updates one pool run may spend,
    is a whole number of at least 1, stored as a Python int.  Operators
    re-bid every bid_refresh_period price updates, a constant of the
    dynamics rather than a field.  The stop test's tolerances are the module
    constants _ABS_TOL and _REL_TOL.  No field describes the instance: what
    is legal input is decided once, by compile_pool, before any pool runs.
    """

    bid_refresh_period: ClassVar[int] = 10
    price_eta: float | None = None
    max_iters: int = 50_000

    def __post_init__(self) -> None:
        if self.price_eta is not None and not 0.0 < self.price_eta < np.inf:
            raise ValueError(f"price_eta must be positive and finite, got {self.price_eta}")
        object.__setattr__(self, "max_iters", _check_count("max_iters", self.max_iters))


def _check_count(name: str, value: object) -> int:
    """A budget as a Python int; reject one that is not a whole number of at least 1.

    Any integer type passes, numpy's included, and is stored as int, so the
    counts a budget bounds are Python ints too; bool, though an int, fails.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
        raise ValueError(f"{name} must be a whole number of at least 1, got {value!r}")
    return int(value)


def default_price_eta(view: PoolView) -> float:
    """Capacity-scaled price step: 0.01 * min open capacity / max lines per edge.

    A closed (zero-capacity) edge sets no scale: it would make the step zero
    and freeze every price.  When every edge is closed no load can move, so
    the step is irrelevant and the scale falls back to one.
    """
    crowd = view.lines_per_edge().max() if view.n_lops else 1.0
    open_caps = view.capacity[view.capacity > 0.0]
    scale = float(open_caps.min()) if open_caps.size else 1.0
    return 0.01 * scale / max(1.0, float(crowd))


@dataclass
class PoolMarketState:
    """Mutable market state of one pool: prices, bids, allocations, share."""

    pool_id: str
    edge_ids: tuple[str, ...]
    lop_ids: tuple[str, ...]
    prices: np.ndarray
    bids: np.ndarray
    freqs: np.ndarray
    share: float

    def price_map(self) -> dict[str, float]:
        return {eid: float(v) for eid, v in zip(self.edge_ids, self.prices)}

    def bid_map(self) -> dict[str, float]:
        return {lop: float(v) for lop, v in zip(self.lop_ids, self.bids)}

    def freq_map(self) -> dict[str, float]:
        return {lop: float(v) for lop, v in zip(self.lop_ids, self.freqs)}

    def copy(self) -> "PoolMarketState":
        return PoolMarketState(
            self.pool_id,
            self.edge_ids,
            self.lop_ids,
            self.prices.copy(),
            self.bids.copy(),
            self.freqs.copy(),
            self.share,
        )

    def to_json(self) -> dict:
        return {
            "pool": self.pool_id,
            "share": self.share,
            "prices": self.price_map(),
            "bids": self.bid_map(),
            "freqs": self.freq_map(),
        }


# the projection's zero as a 0-d array: numpy converts a Python float
# operand afresh on every call, an array it takes as it is
_ZERO = np.zeros(())


def price_step(
    prices: np.ndarray,
    loads: np.ndarray,
    supply: np.ndarray,
    eta: float | np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """One projected Euler step of the edge price dynamics.

    Each price moves along the capacity excess (load minus supply, the
    pool's share-scaled capacity) and is clipped at zero, so a zero-priced
    edge can only move up.  Returns the new prices and the excess vector
    that drove them.  eta may be a float or a 0-d array, which the price
    loop passes since numpy takes it without converting it.
    """
    excess = loads - supply
    new = eta * excess
    new += prices
    return np.maximum(_ZERO, new, out=new), excess


def _positive(x: np.ndarray) -> bool:
    """Whether every entry of x is positive, decided as x.min(initial=np.inf) > 0.0.

    argmin points at the first NaN when there is one, so a NaN fails here as
    it fails under min, and an empty x passes; reading one entry costs less
    than a ufunc reduction.
    """
    return x.size == 0 or x[x.argmin()] > 0.0


def _bid_terms(bids: np.ndarray, ceil: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The bid-dependent inputs of allocate_frequencies, once per bid vector.

    A line bids when its bid is positive.  offers is the bid where it bids
    and 0 elsewhere; free is the line's ceiling where it bids and 0
    elsewhere, the allocation at a zero path price.  When every line bids
    they are bids and ceil themselves, which the callers only read.
    """
    if _positive(bids):
        return bids, ceil
    bidding = bids > 0.0
    return np.where(bidding, bids, 0.0), np.where(bidding, ceil, 0.0)


def allocate_frequencies(
    path_prices: np.ndarray,
    offers: np.ndarray,
    free: np.ndarray,
    cap: np.ndarray,
) -> np.ndarray:
    """Frequencies bought by each bid at the current path prices.

    The nominal allocation is bid / path price.  Two physical guards apply:
    at a zero path price a positive bidder receives exactly its line's
    ceiling (smallest share-scaled capacity along the line, which keeps the
    excess finite and pushes prices up), and at positive prices the
    allocation is truncated at cap, _OVERLOAD times that ceiling (the
    factor is above one, so the ceiling itself stands).  A bid
    that is not positive buys nothing.  offers and free come from
    _bid_terms(bids, ceil); the caller holds them, and cap, for as long as
    the bids and the share stay fixed.  When every path is priced the
    division runs unmasked; any other input takes the masked division,
    which gives the same numbers where both apply.
    """
    if _positive(path_prices):
        return np.minimum(offers / path_prices, cap)
    freqs = free.copy()
    np.divide(offers, path_prices, out=freqs, where=path_prices > 0.0)
    return np.minimum(freqs, cap, out=freqs)


def refresh_bids(coefficients: np.ndarray, path_prices: np.ndarray, bids: np.ndarray) -> np.ndarray:
    """Re-bid optimally where the path price is positive; return the new bids.

    An entry with a zero path price keeps its old bid.  When every path is
    priced the best responses are returned unmasked.
    """
    if _positive(path_prices):
        return best_response_bids(coefficients, path_prices)
    skipped = ~(path_prices > 0.0)
    return np.where(skipped, bids, best_response_bids(coefficients, np.where(skipped, 1.0, path_prices)))


@dataclass(frozen=True)
class PoolResiduals:
    """Convergence diagnostics of one pool state."""

    max_excess: float        # worst capacity violation, signed
    max_complementarity: float   # worst price * |excess|
    max_stationarity: float  # worst relative gap between marginal value and path price
    converged: bool


def _clearing_terms(prices: np.ndarray, excess: np.ndarray) -> tuple[float, float]:
    """The stop test's absolute terms: worst overload and worst price * |excess|.

    A NaN in either input makes its term NaN, which no tolerance passes.
    """
    return float(excess.max(initial=0.0)), float((prices * np.abs(excess)).max(initial=0.0))


def _may_stop(prices: np.ndarray, excess: np.ndarray) -> bool:
    """Whether both absolute terms are within _ABS_TOL: the cheap half of the stop test.

    pool_residuals(...).converged implies it, so the price loop computes the
    full residuals only at a boundary that passes it.
    """
    feas, comp = _clearing_terms(prices, excess)
    return feas <= _ABS_TOL and comp <= _ABS_TOL


def pool_residuals(
    coefficients: np.ndarray,
    prices: np.ndarray,
    freqs: np.ndarray,
    path_prices: np.ndarray,
    excess: np.ndarray,
) -> PoolResiduals:
    """Clearing residuals of one pool state.

    path_prices (incidence.T @ prices) and excess (incidence @ freqs minus
    the share-scaled capacity) are the state's own, which the price loop
    already holds.  converged is the stop test at _ABS_TOL and _REL_TOL; an
    active line on an unpriced path fails it.  Its overload and
    complementarity terms come from _clearing_terms, as _may_stop's do.  The
    price loop calls this at a run's opening, at each refresh boundary that
    passes _may_stop, and on the exit that spends the budget.
    """
    feas, comp = _clearing_terms(prices, excess)

    active = freqs > 0.0
    sel = active & (path_prices > 0.0)
    priceless = np.count_nonzero(active) > np.count_nonzero(sel)  # an active path unpriced
    mu = path_prices[sel]
    marg = coefficients[sel] / (2.0 * np.sqrt(freqs[sel]))
    stat = float((np.abs(marg - mu) / mu).max(initial=0.0))

    ok = (
        not priceless
        and feas <= _ABS_TOL
        and comp <= _ABS_TOL
        and stat <= _REL_TOL
    )
    return PoolResiduals(feas, comp, stat, ok)


def _fair_split(view: PoolView) -> tuple[np.ndarray, np.ndarray]:
    """Each line's fair ratio and its neck, the one definition of both.

    The fair ratio of a line is the smallest even split of capacity along
    it, min over its edges of capacity / lines crossing; its neck (a boolean
    edges x lines mask) is the edge or edges where that minimum is reached.
    Both are share-free: at share f the fair share is f times the ratio and
    the neck is the same.
    """
    # capacity / lines crossing at each edge of each line (columns), inf off
    # the line
    ratio = np.where(view.incidence > 0.0, (view.capacity / np.maximum(view.lines_per_edge(), 1.0))[:, None], np.inf)
    fair_ratio = ratio.min(axis=0)
    return fair_ratio, ratio == fair_ratio


def _neck_prices(neck: np.ndarray, bids: np.ndarray, supply: np.ndarray) -> np.ndarray:
    """Edge prices at which each line's bid is charged only to its neck.

    A bid is split evenly over tied neck edges, so the prices do not depend
    on edge order; each edge prices the bids charged to it over its supply.
    An edge no line's neck includes, and a closed edge, stays unpriced.
    """
    mass = (neck / neck.sum(axis=0)).dot(bids)
    return np.divide(mass, supply, out=np.zeros(len(supply)), where=supply > 0.0)


def cold_start(view: PoolView, coefficients: np.ndarray, share: float) -> PoolMarketState:
    """Fair-share opening state: each operator bids what its even split is worth.

    An operator's fair share is share times its line's fair ratio (see
    _fair_split).  It opens at the bid (a/2)*sqrt(fair share), at which its
    marginal value meets the path price that allocates it exactly that
    share, and the bid is charged only to the line's neck (see
    _neck_prices), so each edge opens at the bids charged to it over its
    share-scaled capacity.  On one edge with one operator this is the
    optimum, and the state is 1/2-homogeneous in the share as the optimum
    is: bids scale by sqrt(share), prices by 1/sqrt(share).  A line through
    a closed edge opens at bid zero, so a closed edge carries no price.  The
    opening frequencies are allocated at those prices.  The oracle opens its
    Newton solve at this state's share-1 prices.
    """
    supply = view.capacity * share
    fair_ratio, neck = _fair_split(view)
    bids = 0.5 * coefficients * np.sqrt(share * fair_ratio)
    prices = _neck_prices(neck, bids, supply)
    ceil = view.bottleneck * share
    offers, free = _bid_terms(bids, ceil)
    freqs = allocate_frequencies(view.incidence.T.dot(prices), offers, free, _OVERLOAD * ceil)
    return PoolMarketState(view.pool_id, view.edge_ids, view.lop_ids, prices, bids, freqs, share)


@dataclass
class SinglePoolResult:
    state: PoolMarketState
    iterations: int          # number of price updates applied
    bid_updates: int         # refreshes that materially changed a bid
    converged: bool
    residuals: PoolResiduals


def _run_pool(
    view: PoolView,
    coefficients: np.ndarray,
    share: float,
    warm: PoolMarketState | None,
    cfg: DynamicsConfig,
    eta: float,
) -> SinglePoolResult:
    """Run one pool's market to its clearing point at a fixed share.

    A warm state is resumed from a copy, rescaled first when it cleared at
    another share, and is never modified; otherwise the pool cold-starts.
    eta is the price step, which run_mechanism resolves once per pool for
    all of that pool's runs.  Operators re-bid every
    DynamicsConfig.bid_refresh_period price updates.  A run that exhausts
    max_iters returns converged=False rather than raising.

    Every price step, product with the incidence, excess and stop test
    reads the pool's own edges only (view.own_edges).  Any other edge
    carries no load, which would drive its price to zero and hold it there,
    so the run opens it at zero, whatever a warm state held, and returns it
    at zero.

    The full residuals (pool_residuals) are computed at the opening, at
    each refresh boundary whose worst overload and worst price * |excess|
    are both within _ABS_TOL (_may_stop), and when the budget runs out;
    any other boundary cannot pass the stop test, so it is not checked.
    """
    eta = np.array(eta)  # as a 0-d array, which price_step's product takes as it is
    period = cfg.bid_refresh_period
    # fixed for the whole run: the step and the allocation read these, not
    # the view, on every price update
    own = view.own_edges
    inc = view.incidence[own]
    inc_t = inc.T
    supply = view.capacity[own] * share
    ceil = view.bottleneck * share
    cap = _OVERLOAD * ceil
    # a state cleared at share zero holds nothing to rescale, and a line
    # that can run but holds no bid would never bid again: its path may
    # stay unpriced, and an idle line passes the residual check
    cold = (
        warm is None
        or not warm.share > 0.0
        or bool(((warm.bids <= 0.0) & (view.bottleneck > 0.0)).any())
    )
    state = cold_start(view, coefficients, share) if cold else warm.copy()
    prices = state.prices[own]
    # a pool's optimum at share f is its share-1 optimum with prices scaled
    # by f**-1/2 and bids by f**1/2, so a warm state cleared at another share
    # is rescaled to it; the allocation below then scales the frequencies.
    # The rescaled state is a prediction, not a certificate: the run must
    # reach one refresh boundary at the new share before it may stop.
    rescaled = state.share != share and share > 0.0
    if rescaled:
        ratio = share / state.share
        prices *= ratio ** -0.5
        state.bids *= ratio ** 0.5
    state.share = share
    mu = inc_t.dot(prices)
    offers, free = _bid_terms(state.bids, ceil)
    if not cold:  # cold_start has allocated under these bids
        state.freqs = allocate_frequencies(mu, offers, free, cap)
    loads = inc.dot(state.freqs)

    bids, freqs = state.bids, state.freqs
    iters = 0
    bid_updates = 0
    res = pool_residuals(coefficients, prices, freqs, mu, loads - supply)
    # convergence is only declared at bid-consistent states, i.e. right after
    # a refresh, so every clearing condition holds at one coherent state.
    # Each pass of the loop runs one refresh period (or what is left of the
    # budget); its end is the only point where the stop test and the result
    # read the residuals.  A pass that ends on a boundary has run a whole
    # period, so only the opening check must hold a rescaled state back
    settled = res.converged and not rescaled
    while not settled and iters < cfg.max_iters:
        steps = min(period, cfg.max_iters - iters)
        for step in range(1, steps + 1):
            prices, _ = price_step(prices, loads, supply, eta)
            mu = inc_t.dot(prices)
            if step == period:
                new_bids = refresh_bids(coefficients, mu, bids)
                rel_change = np.abs(new_bids - bids) / np.maximum(bids, 1e-300)
                if float(rel_change.max(initial=0.0)) > _REL_TOL:
                    bid_updates += 1
                bids = new_bids
                offers, free = _bid_terms(bids, ceil)
            freqs = allocate_frequencies(mu, offers, free, cap)
            loads = inc.dot(freqs)
        iters += steps
        excess = loads - supply
        if iters >= cfg.max_iters or _may_stop(prices, excess):
            res = pool_residuals(coefficients, prices, freqs, mu, excess)
            settled = res.converged and steps == period

    state.prices = np.zeros(view.n_edges)
    state.prices[own] = prices
    state.bids, state.freqs = bids, freqs
    return SinglePoolResult(state, iters, bid_updates, settled, res)


def run_price_dynamics(
    view: PoolView,
    prices: np.ndarray,
    bids: np.ndarray,
    share: float,
    eta: float,
    steps: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Price trajectory under frozen bids.

    Returns (price history with steps+1 rows, excess history with steps
    rows).  This is the inner subsystem whose distance to the frozen-bid
    clearing prices is a descent function; tests exercise exactly that.
    """
    hist = np.zeros((steps + 1, view.n_edges))
    exc = np.zeros((steps, view.n_edges))
    supply = view.capacity * share
    ceil = view.bottleneck * share
    cap = _OVERLOAD * ceil
    offers, free = _bid_terms(bids, ceil)
    cur = prices.astype(float).copy()
    hist[0] = cur
    for t in range(steps):
        freqs = allocate_frequencies(view.incidence.T @ cur, offers, free, cap)
        cur, excess = price_step(cur, view.incidence @ freqs, supply, eta)
        hist[t + 1] = cur
        exc[t] = excess
    return hist, exc
