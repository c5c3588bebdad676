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

A cold run opens at the pool's fair-share opening (_fair_opening, read by
cold_start), the optimum on a lone edge, so the loop only corrects what the
even split got wrong.

The loop runs on the pool's own edges only, the edges some line of the
pool uses (PoolView.own_edges).  No load ever reaches another edge, so its
price is zero at every clearing point and it adds nothing to the stop
test: the loop holds it at zero and never steps it.

A run is made of whole refresh passes: each runs one refresh period of
price steps and ends with a re-bid, and the budget counts passes
(_MAX_PASSES), so a run's price updates are a multiple of the period.
A run's opening is its first boundary, and every boundary, the opening
included, takes one path: it charges any line waiting on an unpriced
path, allocates under the current bids, and tests the stop.  The loop
checks its stop test only there, and computes the full residuals
(pool_residuals) only where the worst overload and worst |price * excess|
already pass (_may_stop), or when the budget runs out; the opening of a
state rescaled to a new share, which may not stop there, computes none.
When every path is priced,
allocate_frequencies and refresh_bids skip their zero-price masks, and
_bid_terms its zero-bid mask when every line bids; the residual kernel
(_pool_terms) skips its selection of running lines when every line runs.
The masked paths give the same numbers there.
What the view determines is compiled with it, once per pool and network
(compile_pool): the own rows, their capacities and closed edges, the lines
that can run, the fair ratios and the neck, the default price step, and,
on first use, the exact solver's presolve.  A run reads them and derives
none.  What runs once per run or per opening (the closed-edge reset, the
silent-line test of a warm state, _neck_prices) has the masked path only:
a second path there would save a few microseconds per run.  The per-step
paths are picked with _positive, which decides as x.min(initial=inf) > 0
does, NaN included, at a third of a reduction's cost.  The allocation, which runs at every step, decides once per refresh
pass instead, on its mask and on its cap.  No load is negative, so one
price step lowers a price by at most eta * supply, and a pass of period
steps by at most period * eta * supply.  Rounding is monotone, so the
rounded steps keep that bound but for one rounding of the new price a
step; a path price, a sum over at most the pool's own edges, and an
allocation, a quotient, add one rounding a term.  A rounding in the normal
range moves a value by a relative 2**-53 at most, so margin = 4 * (own
edges + period) * 2**-52 covers all of them four times over.  An own edge
priced p above floor = period * eta * supply * (1 + margin) at a pass's
start thus stays priced at least (p - floor) * (1 - margin) through the
whole pass, its boundary included, and each line's path price at least
its lower, the sum of max(p - floor, 0) over its edges, times
(1 - margin) squared.  When every lower is positive the pass is
certified: its allocations and the re-bid at its boundary skip their own
checks (the priced flag of allocate_frequencies and refresh_bids).  When
every line's offer is below its lower times cap * (1 - margin) squared,
which needs every lower positive, no allocation of the pass's plain steps
can reach its cap either, and they skip the truncation too
(allocate_frequencies with cap None): the pass is uncapped.  The
allocation after the re-bid, under new offers, keeps its cap, and any
other pass checks at every step and at its re-bid.  Most plain steps run
certified, and many uncapped, since a pool nearing its clearing point
holds its prices well above floor; the "refresh-pass certificates" line
of the tier-1 suite's measurements section gives both shares on the 20
test chains and the 7x12 grids.  A pool with a closed edge or a line that
cannot run, or a price falling to zero, takes the masked paths where a
path is unpriced.  The stop test and the refresh read their maxima
through argmax (_max_or_zero), which gives what x.max(initial=0.0) gives,
bit for bit.

The stop test and the certifier read one kernel.  _pool_terms returns a
pool's raw clearing terms: the worst overload, the worst |price * excess|
(_clearing_terms), and each running line's gap between its marginal value
a / (2 sqrt(x)) and its path price, with that price.  pool_residuals
scales the gaps by the path price and rejects an active line on an
unpriced path; oracle.kkt_report scales them by the path price floored at
_TINY and the overload by capacity, and adds its own rows (idle lines,
negativity, the cost spread).  So the two agree, bit for bit, on the raw
terms, and on the scaled gaps wherever every running path is priced at
_TINY or more and no line that could run stands idle.

Exact clearing.  The module also computes the clearing point the dynamics
approach, in closed form up to one Newton solve: _clearing_prices
minimizes the pool's explicit convex dual over edge prices with a
projected, Levenberg-damped Newton method, on the rows no other row
implies, which its caller's presolve holds (network._presolve).  It knows
one demand law, x = (scale / path price)**power: a valuation a*sqrt(x) is
power 2 at scale a/2, and a frozen bid w is power 1 at scale w.
solve_fixed_bids is the fixed point of run_price_dynamics, on a presolve
of the lines that bid; the oracle solves all of an instance's pools in one
call, on the block-diagonal stack of their views' presolves.  Newton opens
at neck prices (PoolView.neck, _neck_prices) and stops on the price loop's
own overload and complementarity terms (_clearing_terms), so the engine
and the exact solver share one definition of each.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np
from numpy.linalg import LinAlgError, _umath_linalg

from .network import PoolView, _Presolve, _check_count, _check_length, _check_nonnegative, _check_real, _presolve
from .utility import best_response_bids

__all__ = [
    "DynamicsConfig",
    "PoolMarketState",
    "SinglePoolResult",
    "cold_start",
    "price_step",
    "allocate_frequencies",
    "refresh_bids",
    "pool_residuals",
    "run_price_dynamics",
    "solve_fixed_bids",
]

# the floor under a divisor or a path price that may be zero
_TINY = 1e-30

# Allocations at a positive path price are truncated at this multiple of the
# line's physical ceiling.  Any factor above one keeps the excess signal
# alive while prices catch up, without letting loads blow up when bids and
# prices are still orders of magnitude apart; below one it would cut an
# unpriced bidder below its ceiling.
_OVERLOAD = 1.25

# The stop test's tolerances: a pool has cleared when neither its worst
# overload nor its worst |price * excess| exceeds _ABS_TOL and every active
# line's marginal value is within _REL_TOL of its path price, relatively.  A
# refresh that moves some bid by more than _REL_TOL times that bid counts as
# a bid update.
_ABS_TOL = 0.1
_REL_TOL = 0.1

# The refresh passes one pool run may spend, each of
# DynamicsConfig.bid_refresh_period price updates: 50,000 price updates.  A
# run that spends them all returns converged=False; no configuration sets
# the budget.
_MAX_PASSES = 5_000

# The exact clearing solve (_clearing_prices) stops when its worst overload
# and worst |price * excess| are within _NEWTON_TOL times the largest
# budget, and spends at most _NEWTON_ITERS Newton iterations.  Its Armijo
# test leaves room for the dual value's rounding: _ROUNDING times the sum of
# the magnitudes of the value's terms.  No caller sets any of them.
_NEWTON_ITERS = 300
_NEWTON_TOL = 1e-11
_ROUNDING = 4e-16


@dataclass(frozen=True)
class DynamicsConfig:
    """The one tuning knob of the in-pool dynamics: the price step.

    price_eta of None means the view's step (PoolView.price_eta); a
    price_eta given must be a real number in (0, inf), else ValueError.
    Operators re-bid every bid_refresh_period price updates, a constant of
    the dynamics rather than a field.  The stop test's tolerances and the
    refresh passes one pool run may spend are the module constants
    _ABS_TOL, _REL_TOL and _MAX_PASSES, as the exact solve's are
    _NEWTON_TOL and _NEWTON_ITERS.  No field describes
    the instance: what is legal input is decided before any pool runs, by
    the network and pool system when built and by compile_pool.
    """

    bid_refresh_period: ClassVar[int] = 10
    price_eta: float | None = None

    def __post_init__(self) -> None:
        if self.price_eta is not None:
            _check_real("price_eta", self.price_eta, "(0, inf)")


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


def _max_or_zero(x: np.ndarray) -> float:
    """float(x.max(initial=0.0)), bit for bit, read through argmax.

    argmax points at the first NaN when there is one, so a NaN comes back as
    it does from max, and an empty x or one whose entries are all negative
    gives 0.0.  Only a zero maximum takes the reduction itself: whether it
    returns 0.0 or -0.0 then depends on the order it meets the zeros in.
    """
    if x.size == 0:
        return 0.0
    m = x[x.argmax()]
    if m < 0.0:
        return 0.0
    return float(m) if m != 0.0 else float(x.max(initial=0.0))


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
    cap: np.ndarray | None,
    priced: bool = False,
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
    which gives the same numbers where both apply.  priced=True tells the
    allocation that every path is priced, so it skips its own check; the
    price loop passes it on a pass its certificate covers, and a caller
    that cannot vouch for it leaves it False.  cap=None tells it that no
    allocation reaches its cap, so it skips the truncation: the price loop
    passes it, with priced=True, on the plain steps of an uncapped pass
    (see the module docstring), and any other caller passes the cap.
    """
    if priced or _positive(path_prices):
        freqs = offers / path_prices
    else:
        freqs = free.copy()
        np.divide(offers, path_prices, out=freqs, where=path_prices > 0.0)
    return freqs if cap is None else np.minimum(freqs, cap, out=freqs)


def _overflow_safe(path_prices: np.ndarray, offers: np.ndarray) -> np.ndarray:
    """A copy of path_prices in which a positive price below its offer over 2**1000 reads as that quotient.

    An allocation divides each offer by its path price, and an offer over a
    vanishing price may overflow there, far past its cap.  Divided by the
    quotient instead, the offer buys 2**1000, which the cap truncates as it
    would have truncated the overflow.  Zero prices stay zero, for the
    allocation's zero-price mask.
    """
    return np.maximum(path_prices, offers * 2.0 ** -1000, out=path_prices.copy(), where=path_prices > 0.0)


def refresh_bids(coefficients: np.ndarray, path_prices: np.ndarray, bids: np.ndarray, priced: bool = False) -> np.ndarray:
    """Re-bid optimally where the path price is positive; return the new bids.

    An entry with a zero path price keeps its old bid.  When every path is
    priced the best responses are returned unmasked.  priced=True tells the
    refresh that every path is priced, so it skips its own check, as
    allocate_frequencies' priced does: the price loop passes it at the
    boundary of a pass its certificate covers, and a caller that cannot
    vouch for it leaves it False.
    """
    if priced or _positive(path_prices):
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
    """The stop test's absolute terms: worst overload and worst |price * excess|.

    Each is the maximum with a zero floor, read through _max_or_zero.  A NaN
    in either input makes its term NaN, which no tolerance passes.  The
    complementarity is written as kkt_report reads it, for any sign of
    price; for prices of at least +0 it is price * |excess|, bit for bit.
    _pool_terms and the oracle's Newton stop read these two terms from
    here; _may_stop reads the same two, one at a time.
    """
    return _max_or_zero(excess), _max_or_zero(np.abs(prices * excess))


def _may_stop(prices: np.ndarray, excess: np.ndarray) -> bool:
    """Whether both absolute terms are within _ABS_TOL: the cheap half of the stop test.

    It decides as the two terms of _clearing_terms tested with <= do, NaN
    included, but it computes |price * excess| only once the worst overload
    has passed, and a pool still clearing fails on its overload at many
    checks, as the "refresh-pass certificates" line of the tier-1 suite's
    measurements section counts on the test chains and grids.
    pool_residuals(...).converged implies it, so the price loop computes the
    full residuals only at a boundary, its opening included, that passes it.
    """
    return _max_or_zero(excess) <= _ABS_TOL and _max_or_zero(np.abs(prices * excess)) <= _ABS_TOL


def _pool_terms(coefficients: np.ndarray, prices: np.ndarray, freqs: np.ndarray, path_prices: np.ndarray,
                excess: np.ndarray) -> tuple[float, float, np.ndarray, np.ndarray]:
    """A pool's raw clearing terms, the one reading of them the stop test and the certifier share.

    Returns the worst overload and the worst |price * excess|
    (_clearing_terms), then, for each running line (positive frequency), the
    gap |a / (2 sqrt(x)) - mu| between its marginal value and its path price
    mu, and that mu.  These are the first-order conditions of proportional
    fairness (Kelly, Maulloo & Tan 1998).  The terms are raw: pool_residuals
    and kkt_report each divide by their own scales.  When every line runs,
    the selection of running lines is skipped; it would take every entry.
    """
    overload, comp = _clearing_terms(prices, excess)
    if not _positive(freqs):
        run = freqs > 0.0
        coefficients, freqs, path_prices = coefficients[run], freqs[run], path_prices[run]
    return overload, comp, np.abs(coefficients / (2.0 * np.sqrt(freqs)) - path_prices), path_prices


def pool_residuals(
    coefficients: np.ndarray,
    prices: np.ndarray,
    freqs: np.ndarray,
    path_prices: np.ndarray,
    excess: np.ndarray,
) -> PoolResiduals:
    """Clearing residuals of one pool state: the stop test.

    path_prices (incidence.T @ prices) and excess (incidence @ freqs minus
    the share-scaled capacity) are the state's own, which the price loop
    already holds.  It reads the raw terms of _pool_terms, as kkt_report
    does, and scales the gap of each running line by its path price.
    converged is the stop test at _ABS_TOL and _REL_TOL; an active line on
    an unpriced path fails it, and only then are the unpriced entries
    dropped before the gaps are scaled.  The price loop calls this at each
    refresh boundary that passes _may_stop, but a rescaled opening, and at
    the boundary that spends the budget.
    """
    feas, comp, gap, mu = _pool_terms(coefficients, prices, freqs, path_prices, excess)
    priceless = not _positive(mu)  # an active line on an unpriced path
    if priceless:
        priced = mu > 0.0
        gap, mu = gap[priced], mu[priced]
    stat = _max_or_zero(gap / mu)
    return PoolResiduals(feas, comp, stat, not priceless and feas <= _ABS_TOL and comp <= _ABS_TOL and stat <= _REL_TOL)


def _neck_prices(neck: np.ndarray, bids: np.ndarray, supply: np.ndarray) -> np.ndarray:
    """Edge prices at which each line's bid is charged only to its neck.

    neck is a view's column-normalised neck (PoolView.neck, network's
    _fair_split), or its own rows: a bid is split evenly over tied neck
    edges, so the prices do not depend on edge order; each edge prices the
    bids charged to it over its supply.  An edge no line's neck includes,
    and a closed edge, stays unpriced.
    """
    return np.divide(neck.dot(bids), supply, out=np.zeros(len(supply)), where=supply > 0.0)


def _fair_opening(view: PoolView, coefficients: np.ndarray, share: float) -> tuple[np.ndarray, np.ndarray]:
    """A pool's fair-share opening at a share: its bids and their neck prices.

    An operator's fair share is share times its line's fair ratio (see
    PoolView.fair_ratio).  It bids (a/2)*sqrt(fair share), at which its
    marginal value meets the path price that allocates it exactly that
    share, and the bid is charged only to the line's neck (_neck_prices),
    so each edge opens at the bids charged to it over its share-scaled
    capacity.  On one edge with one operator this is the optimum, and the
    opening is 1/2-homogeneous in the share as the optimum is: bids scale
    by sqrt(share), prices by 1/sqrt(share).  A line through a closed edge
    has fair ratio zero, so it bids zero and a closed edge opens unpriced.
    cold_start opens a run here, and the oracle its Newton solve at share 1.
    """
    bids = 0.5 * coefficients * np.sqrt(share * view.fair_ratio)
    return bids, _neck_prices(view.neck, bids, view.capacity * share)


def cold_start(view: PoolView, coefficients: np.ndarray, share: float) -> PoolMarketState:
    """The pool's state at its fair-share opening (_fair_opening), frequencies allocated at its prices.

    The share must be a real number in [0, inf), else ValueError.
    """
    _check_real("share", share, "[0, inf)")
    bids, prices = _fair_opening(view, coefficients, share)
    ceil = view.bottleneck * share
    offers, free = _bid_terms(bids, ceil)
    freqs = allocate_frequencies(view.incidence.T.dot(prices), offers, free, _OVERLOAD * ceil)
    return PoolMarketState(view.pool_id, view.edge_ids, view.lop_ids, prices, bids, freqs, share)


def _reopen(prices: np.ndarray, loads: np.ndarray, supply: np.ndarray) -> None:
    """Re-price, in place, the edges whose supply moved under a warm state.

    loads are the warm state's loads at its own frequencies.  A state that
    passes _may_stop against supply was cleared on these capacities and is
    left alone.  Otherwise each open edge whose load misses its supply by
    more than _ABS_TOL has its price multiplied by sqrt(load / supply),
    once: a pool's optimum is 1/2-homogeneous in capacity (prices scale by
    c**-1/2), so a priced edge that cleared load at its old capacity opens
    at the price that capacity predicts for its new one, and an unpriced
    edge stays unpriced.  Every other price is kept.
    """
    excess = loads - supply
    if _may_stop(prices, excess):
        return
    moved = (np.abs(excess) > _ABS_TOL) & (supply > 0.0)
    prices[moved] *= np.sqrt(loads[moved] / supply[moved])


def _charge_waiting(prices: np.ndarray, mu: np.ndarray, bids: np.ndarray, view: PoolView,
                    supply: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Charge each waiting line's bid to its neck; return the new prices and path prices.

    prices and supply are the price loop's, on the view's own edges.  A
    line waits when it can run (view.runs), bids, and sits on an unpriced
    path.  Its bid is added to its neck's price (the view's neck on its own
    rows, _neck_prices), as the fair-share opening charges every bid.  With
    no line waiting the inputs come back as they are.  The callers call it
    only when some path is unpriced.
    """
    waiting = (bids > 0.0) & view.runs & ~(mu > 0.0)
    if not waiting.any():
        return prices, mu
    prices = prices + _neck_prices(view.neck[view.own_edges], np.where(waiting, bids, 0.0), supply)
    return prices, view.own_incidence.T.dot(prices)


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
) -> SinglePoolResult:
    """Run one pool's market to its clearing point at a fixed share.

    A warm state is resumed from a copy, rescaled first when it cleared at
    another share, and is never modified; otherwise the pool cold-starts.
    It cold-starts whenever the run's share or the warm state's is zero:
    at share zero that is the pool's empty market, zero prices, bids and
    frequencies, which passes the stop test at its opening, in no update.
    A warm state resumed at its own share that was not cleared on these
    capacities, such as one a disruption hit, re-opens each edge whose load
    at its frequencies misses the edge's supply at the price that supply
    predicts (_reopen); a cleared one opens as it is.  A line that cannot
    run (a closed edge on it, view.bottleneck 0) is valued at zero for the
    whole run, so each re-bid on its priced path sets its bid to 0: it
    never buys anything, and a bid it kept growing against a falling path
    price would be charged to its neck when its edge reopens.
    The run steps prices at cfg.price_eta, or at the view's step
    (PoolView.price_eta) when that is None, and operators re-bid every
    cfg.bid_refresh_period price updates.  The run is made of whole
    passes: each runs one refresh period and ends with a re-bid, so its
    price updates are always a multiple of the period.  A run that spends
    _MAX_PASSES passes returns converged=False rather than raising.

    Every price step, product with the incidence, excess and stop test
    reads the pool's own edges only (view.own_edges).  Any other edge
    carries no load, which would drive its price to zero and hold it there,
    so the run opens it at zero, whatever a warm state held, and returns it
    at zero.  A closed own edge carries no load and has no supply, so no
    step moves its price: the run opens it at zero too, as cold_start does,
    and returns it at zero.

    The run's opening is its first refresh boundary, and every boundary
    takes one path: charge, allocate, stop test.  A line that can run and
    bids may wait on a path no edge prices: a warm state leaves one where
    a closed edge opens again, since the run returned that edge at zero,
    and a step that overshoots to zero within a pass leaves one behind.
    Allocated its ceiling, such a line loads its neck exactly to supply
    when it runs there alone, so no price step would ever price its path,
    and the stop test rejects an active line on an unpriced path.  So a
    boundary not covered by a pass's certificate, the opening included,
    charges each such line's bid to its neck, on top of the neck's price
    (_charge_waiting); with every path priced it only pays the check, and a
    certified pass ends with every path priced.  The boundary then allocates under the current bids, but
    at a cold opening, which cold_start has allocated.  Outside a certified
    pass it reads a positive path price below the offer over 2**1000 as
    that quotient (_overflow_safe): the offer buys its cap either way, and
    divided by the price itself it could overflow.  Last, it computes the
    full residuals (pool_residuals) where the worst overload and worst
    |price * excess| are both within _ABS_TOL (_may_stop), or when the
    budget runs out, and stops when they pass; a boundary failing the
    pre-check cannot pass the stop test.  A rescaled opening is a
    prediction, not a certificate, and may not stop: it reads no residuals.
    The run returns the residuals of the boundary it stopped at.

    Each pass runs its steps but the last as plain steps and re-bids in
    its last step, so no step tests for the boundary.  Each pass is
    certified or not, and uncapped or not, at its start (see the module
    docstring): a certified pass tells each of its allocations, its re-bid
    and its boundary's allocation that every path is priced (the priced
    flag of allocate_frequencies and refresh_bids), an uncertified one lets
    each of them check; an uncapped pass also tells the allocations of its
    plain steps that none reaches its cap (cap None), and any other
    allocation truncates at the cap.  Loads are freqs.dot(inc_t), which
    numpy computes with the same BLAS call as inc.dot(freqs), on the same
    buffer, so the bits are those of the matrix-vector product, at less
    cost.  A copy of the incidence in another memory order would sum
    in another order and change them.
    """
    period = cfg.bid_refresh_period
    # the step as a 0-d array, which price_step's product takes as it is
    eta = np.array(view.price_eta if cfg.price_eta is None else cfg.price_eta)
    # the view's own rows, compiled once: the step and the allocation read
    # these, not the whole view, on every price update
    own = view.own_edges
    inc = view.own_incidence
    inc_t = inc.T
    supply = view.own_capacity * share
    ceil = view.bottleneck * share
    cap = _OVERLOAD * ceil
    # no load is negative, so a step lowers a price by at most eta * supply
    # and a pass by at most period times that; margin covers the pass's
    # roundings (see the module docstring)
    margin = 4 * (len(inc) + period) * math.ulp(1.0)
    floor = period * eta * supply * (1.0 + margin)
    below_cap = cap * (1.0 - margin) ** 2
    # a line that cannot run re-bids as if valued at zero, so its best
    # response is 0, not a bid against a path it never buys anything on
    coefficients = np.where(view.runs, coefficients, 0.0)
    # a state cleared at share zero holds nothing to rescale, a run at share
    # zero opens cleared at zero, and a line that can run but holds no bid
    # would never bid again: its path may stay unpriced, and an idle line
    # passes the residual check
    cold = (warm is None or not warm.share > 0.0 or not share > 0.0
            or bool(((warm.bids <= 0.0) & view.runs).any()))
    state = cold_start(view, coefficients, share) if cold else warm.copy()
    prices = state.prices[own]
    prices[view.own_closed] = 0.0
    # a pool's optimum at share f is its share-1 optimum with prices scaled
    # by f**-1/2 and bids by f**1/2, so a warm state cleared at another share
    # is rescaled to it; the allocation below then scales the frequencies.
    # The rescaled state is a prediction, not a certificate: the run must
    # reach one refresh boundary at the new share before it may stop.
    rescaled = state.share != share
    if rescaled:
        ratio = share / state.share
        prices *= ratio ** -0.5
        state.bids *= ratio ** 0.5
    elif not cold:  # at its own share, on capacities that may have moved
        _reopen(prices, state.freqs.dot(inc_t), supply)
    state.share = share
    mu = inc_t.dot(prices)
    bids, freqs = state.bids, state.freqs
    passes = bid_updates = 0
    priced = False  # no certificate covers the opening
    # each turn of the loop opens at a refresh boundary, the run's opening
    # the first, and runs one pass to the next; convergence is only declared
    # at a boundary, a bid-consistent state, so every clearing condition
    # holds at one coherent state
    while True:
        offers, free = _bid_terms(bids, ceil)
        if not priced and not _positive(mu):
            prices, mu = _charge_waiting(prices, mu, bids, view, supply)
        if passes or not cold:  # cold_start has allocated the opening
            freqs = allocate_frequencies(mu if priced else _overflow_safe(mu, offers), offers, free, cap, priced)
        loads = freqs.dot(inc_t)
        excess = loads - supply
        spent = passes == _MAX_PASSES
        # a rescaled opening may not stop, so it reads no residuals
        if spent or (passes or not rescaled) and _may_stop(prices, excess):
            res = pool_residuals(coefficients, prices, freqs, mu, excess)
            if spent or res.converged:
                break
        # each path price stays at least lower through the whole pass, its
        # boundary included: the pass is certified when every lower is
        # positive, and its plain steps skip the cap when no offer reaches
        # its lower times the cap, which needs every lower positive too
        lower = inc_t.dot(np.maximum(prices - floor, _ZERO))
        uncapped = _positive(below_cap * lower - offers)
        priced = uncapped or _positive(lower)
        step_cap = None if uncapped else cap
        for _ in range(period - 1):
            prices, _ = price_step(prices, loads, supply, eta)
            mu = inc_t.dot(prices)
            freqs = allocate_frequencies(mu, offers, free, step_cap, priced)
            loads = freqs.dot(inc_t)
        # the pass's last step, which ends on the refresh boundary
        prices, _ = price_step(prices, loads, supply, eta)
        mu = inc_t.dot(prices)
        new_bids = refresh_bids(coefficients, mu, bids, priced)
        if np.count_nonzero(np.abs(new_bids - bids) > _REL_TOL * bids):
            bid_updates += 1
        bids = new_bids
        passes += 1

    state.prices = np.zeros(view.n_edges)
    state.prices[own] = prices
    state.bids, state.freqs = bids, freqs
    return SinglePoolResult(state, passes * period, bid_updates, res.converged, res)


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
    The prices and bids are read as floats and must be one per edge and one
    per operator of the view, finite and nonnegative, else
    InputMismatchError; steps must be a whole number of at least 0, eta
    positive and finite, and the share a finite real of at least 0, else
    ValueError.  No argument is modified.
    """
    prices = np.asarray(prices, dtype=float)
    bids = np.asarray(bids, dtype=float)
    where = f"price dynamics of pool {view.pool_id!r}"
    for name, values, n in (("prices", prices, view.n_edges), ("bids", bids, view.n_lops)):
        _check_length(where, name, values, n)
        _check_nonnegative(where, name, values)
    steps = _check_count("steps", steps, least=0)
    _check_real("eta", eta, "(0, inf)")
    _check_real("share", share, "[0, inf)")
    hist = np.zeros((steps + 1, view.n_edges))
    exc = np.zeros((steps, view.n_edges))
    supply = view.capacity * share
    ceil = view.bottleneck * share
    cap = _OVERLOAD * ceil
    offers, free = _bid_terms(bids, ceil)
    # price_step returns new prices, so the caller's array is never written
    hist[0] = prices
    for t in range(steps):
        freqs = allocate_frequencies(_overflow_safe(view.incidence.T @ prices, offers), offers, free, cap)
        prices, exc[t] = price_step(prices, view.incidence @ freqs, supply, eta)
        hist[t + 1] = prices
    return hist, exc


# ---------------------------------------------------------------------------
# Exact clearing.

@dataclass
class _PoolSolve:
    prices: np.ndarray
    freqs: np.ndarray
    converged: bool
    iterations: int
    dual_evals: int   # dual values computed: the opening's and each trial step's


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
    presolve: _Presolve,
    budget: np.ndarray,
    scale: np.ndarray,
    power: int,
    opening: np.ndarray,
) -> _PoolSolve:
    """Edge prices clearing one pool at capacity budget `budget`.

    Every operator has one isoelastic demand law: at path price mu it runs
    x = (scale / mu)**power.  Power 2 with scale a/2 is the valuation
    a*sqrt(x); power 1 with scale w is a frozen bid w, the valuation
    w*log(x) of proportional fairness (Kelly, Maulloo & Tan 1998).  The
    dual term sup_x value(x) - mu*x is scale**2/mu for power 2 and
    scale*(log(scale/mu) - 1) for power 1.  The active operators, those of
    positive scale whose lines cross no closed edge, are the lines the
    presolve marks; the others run nothing.

    Minimizes the dual of  max sum(values) s.t. incidence @ x <= budget
    over nonnegative prices with a projected, Levenberg-damped Newton
    method.  The solve runs on the reduced system the caller's presolve
    holds (network._presolve): the active operators' columns only, and of
    their rows the ones no other row implies.  An edge is implied when
    another edge of no larger budget crosses every active line it crosses,
    its cover (see network._implied_rows): its load never exceeds its
    budget while the cover's holds, so it never binds alone and stays
    unpriced.  Dropping the implied rows, equal rows among them, removes
    flat directions that would otherwise make the Newton system singular.
    The order and covers are share-free, so the oracle passes each view's
    presolve (PoolView.presolve), computed once, its blocks on a stack's
    diagonal, and solve_fixed_bids one of its bidding lines, per call.  An
    inactive operator never enters the system, so the solve is the one of
    the same pool with its column deleted; at the exit the prices are
    scattered onto the kept edges and the frequencies onto the active
    columns, every other entry zero: budget and opening hold one entry per
    edge, scale one per operator.

    Newton opens at `opening`, each implied edge's price moved onto its
    first cover; every line crossing the implied edge crosses the cover, so
    no active path price falls and the dual value is finite from the start.
    The dual value blows up whenever an active operator's path turns free
    of charge, so descent steps keep every such path priced without
    explicit bookkeeping.  The stop test reads the engine's own
    overload and complementarity terms (_clearing_terms) at _NEWTON_TOL
    times the largest budget, and the solve spends at most _NEWTON_ITERS
    iterations; both are module constants, as a pool run's budget is.  The
    Armijo test allows for the dual value's rounding, _ROUNDING times the
    sum of its terms' magnitudes at the current point, else a step the
    rounding hides stalls the descent short of the tolerance: at power 1
    the terms take both signs, and that sum may far exceed the value.
    Each accepted step's path prices, demand and loads carry over to the
    next iteration and to the exit.  The iterations reported count each one
    begun, the one whose stop test
    passes included.  At the exit the frequencies shrink uniformly onto the
    feasible set when some kept row's load exceeds its budget: they are
    divided by the largest load-to-budget ratio over the kept rows, one
    reduction, as an active line crosses no closed edge and so every kept
    row's budget is positive.  At the returned point every active operator
    sits on her demand curve up to that shrink, which is at solver
    precision when the descent converged, loads never exceed the budget
    beyond a rounding, and priced edges run at budget.  No argument is modified.
    """
    n_edges, n_lops = len(budget), len(scale)
    act = presolve.lines
    if not act.any():
        return _PoolSolve(np.zeros(n_edges), np.zeros(n_lops), True, 0, 0)
    s = scale[act]

    # the edges no other edge implies; each implied edge's opening price
    # moves to its cover, which every line crossing it crosses
    edges, first, sub_inc = presolve.edges, presolve.first, presolve.block
    keep = first == np.arange(len(first))
    reps = edges[keep]
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
    for iters in range(1, _NEWTON_ITERS + 1):
        gap = load - sub_budget
        if max(_clearing_terms(prices, gap)) <= _NEWTON_TOL * scale_b:
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
        # hess is positive definite, sub W sub.T with W > 0 plus lev > 0 on
        # its diagonal, so LAPACK can meet a zero pivot only through
        # rounding; the gradient step then remains
        try:
            newton = _newton_step(hess, -gf)
        except LinAlgError:
            newton = None

        # the sum of the dual terms' magnitudes: the value itself at power 2,
        # whose terms are all nonnegative
        size = cur if power == 2 else float(np.abs(s * (np.log(s / mu) - 1.0)).sum() + prices @ sub_budget)
        accepted = False
        base = prices[fset]
        candidates = [newton, -gf] if newton is not None else [-gf]
        for step in candidates:
            # the Newton step descends, gf @ step = -gf hess^-1 gf < 0, and so
            # does -gf, as gf = 0 would have passed the stop test: only a step
            # rounding spoiled is passed over
            if float(gf @ step) >= 0.0:
                continue
            t_step = 1.0
            for _ in range(60):
                moved_to = np.maximum(0.0, base + t_step * step)
                trial = prices.copy()
                trial[fset] = moved_to
                value, trial_mu = dual_value(trial)
                # Armijo, with room for the dual value's rounding
                slack = 1e-4 * min(0.0, float(gf @ (moved_to - base))) + _ROUNDING * size
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

    # the uniform shrink onto the feasible set (see the docstring)
    ratio = float(np.max(load / sub_budget))
    if ratio > 1.0:
        x = x / ratio
    out = np.zeros(n_edges)
    out[reps] = prices
    freqs = np.zeros(n_lops)
    freqs[act] = x
    return _PoolSolve(out, freqs, converged, iters, evals)


def solve_fixed_bids(view: PoolView, bids: np.ndarray, share: float) -> np.ndarray:
    """Clearing prices of one pool under frozen bids.

    This is the stationary point of the frozen-bid price dynamics
    (run_price_dynamics); the descent tests measure distance to it.  A bid
    w buys x = w / mu, scale w at power 1; a zero bid, or a line over a
    closed edge, gets nothing, so the presolve (network._presolve) is of
    the lines that bid and cross no edge of zero budget, computed per call,
    since the bids choose those lines.  Newton opens at the bids charged to
    each line's neck, as cold_start charges its own.  The bids are read as
    floats and must be one per operator of the view, finite and
    nonnegative, else InputMismatchError; the share must be a finite real
    of at least 0, else ValueError.
    """
    bids = np.asarray(bids, dtype=float)
    where = f"frozen bids of pool {view.pool_id!r}"
    _check_length(where, "bids", bids, view.n_lops)
    _check_nonnegative(where, "bids", bids)
    _check_real("share", share, "[0, inf)")
    supply = view.capacity * share
    opening = _neck_prices(view.neck, bids, supply)
    # a line over a closed edge runs nothing; left active, it would price
    # that edge without bound and stall the descent
    act = (bids > 0.0) & ~view.incidence[supply <= 0.0].any(axis=0)
    sol = _clearing_prices(_presolve(view.incidence, supply, act), supply, bids, 1, opening)
    if not sol.converged:
        raise RuntimeError("frozen-bid clearing prices did not reach solver precision")
    return sol.prices
