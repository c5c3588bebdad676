"""In-pool dynamics: price steps, allocation, bid refresh, full runs."""
import itertools
import json
import math

import numpy as np
import pytest

import linemarket as lm
from linemarket import multi_pool, single_pool
from linemarket.single_pool import (
    _ABS_TOL, _REL_TOL, PoolResiduals, _bid_terms, _may_stop, _positive, _run_pool, pool_residuals
)

import instances


class TestPriceStep:
    def test_rises_on_excess(self):
        prices, excess = lm.price_step(
            np.array([0.0]), np.array([6.0]), np.array([4.0]) * 1.0, 0.1
        )
        np.testing.assert_allclose(prices, [0.2])
        np.testing.assert_allclose(excess, [2.0])

    def test_falls_on_slack(self):
        prices, _ = lm.price_step(
            np.array([0.5]), np.array([2.0]), np.array([4.0]) * 1.0, 0.1
        )
        np.testing.assert_allclose(prices, [0.3])

    def test_clamped_at_zero(self):
        prices, _ = lm.price_step(
            np.array([0.1]), np.array([0.0]), np.array([4.0]) * 1.0, 0.1
        )
        np.testing.assert_allclose(prices, [0.0])

    def test_share_scales_capacity(self):
        # same load, half the share: excess doubles relative to full share
        prices, excess = lm.price_step(
            np.array([0.0]), np.array([4.0]), np.array([4.0]) * 0.5, 0.1
        )
        np.testing.assert_allclose(excess, [2.0])
        np.testing.assert_allclose(prices, [0.2])


def allocate(view, prices, bids, share, overload_factor=1.25):
    """allocate_frequencies with its inputs built from a view, as the loop builds them."""
    ceil = view.bottleneck * share
    offers, free = _bid_terms(bids, ceil)
    mu = view.incidence.T @ prices
    return lm.allocate_frequencies(mu, offers, free, overload_factor * ceil), mu


def run_pool(view, coefficients, share, warm, cfg):
    """_run_pool at the price step run_mechanism resolves for the pool."""
    eta = lm.default_price_eta(view) if cfg.price_eta is None else cfg.price_eta
    return _run_pool(view, coefficients, share, warm, cfg, eta)


def run_one_pool(net, pools, pool_id, table, share, warm=None, cfg=None):
    """One pool's market at a fixed share, run as run_mechanism runs each pool."""
    view = lm.compile_pool(net, pools, pool_id)
    return run_pool(view, table.coefficients_for(view), share, warm, cfg or lm.DynamicsConfig())


def residuals_of(view, coefficients, state):
    """pool_residuals with the path prices and excess of a stored state."""
    mu = view.incidence.T @ state.prices
    excess = view.incidence @ state.freqs - view.capacity * state.share
    return pool_residuals(coefficients, state.prices, state.freqs, mu, excess)


class TestAllocation:
    def view(self, capacity=8.0):
        net = lm.Network(["u", "v"], [lm.Edge("e1", "u", "v", capacity)])
        pools = lm.PoolSystem(["k0"], {("lop0", "k0"): lm.Line(("e1",))})
        return lm.compile_pool(net, pools, "k0")

    def test_bid_over_price(self):
        freqs, mu = allocate(
            self.view(), np.array([2.0]), np.array([10.0]), 1.0
        )
        np.testing.assert_allclose(freqs, [5.0])
        np.testing.assert_allclose(mu, [2.0])

    def test_zero_bid_gets_nothing(self):
        freqs, _ = allocate(
            self.view(), np.array([3.0]), np.array([0.0]), 1.0
        )
        np.testing.assert_allclose(freqs, [0.0])

    def test_free_path_capped_at_line_ceiling(self):
        freqs, _ = allocate(
            self.view(capacity=4.0), np.array([0.0]), np.array([2.0]), 1.0
        )
        np.testing.assert_allclose(freqs, [4.0])

    def test_priced_path_truncated_at_overload_factor(self):
        freqs, _ = allocate(
            self.view(capacity=4.0), np.array([0.1]), np.array([100.0]), 1.0
        )
        np.testing.assert_allclose(freqs, [5.0])  # 1.25 * 4


class TestBidRefresh:
    def test_best_response_applied(self):
        coeffs = np.array([2.0, 2.0])
        bids = lm.refresh_bids(coeffs, np.array([1.0, 0.5]), np.array([9.0, 9.0]))
        np.testing.assert_allclose(bids, [1.0, 2.0])

    def test_zero_price_skipped(self):
        coeffs = np.array([2.0, 2.0])
        bids = lm.refresh_bids(coeffs, np.array([0.0, 0.5]), np.array([7.0, 7.0]))
        np.testing.assert_allclose(bids, [7.0, 2.0])


def test_single_edge_run_reaches_closed_form():
    """c=4, a=2 clears at x=4, price 0.5, bid 2 within the relative tolerance."""
    net, pools, table = instances.single_edge()
    res = run_one_pool(net, pools, "k0", table, 1.0)
    assert res.converged
    st = res.state
    assert abs(st.freqs[0] - 4.0) / 4.0 <= 0.1
    assert abs(st.prices[0] - 0.5) / 0.5 <= 0.1
    assert abs(st.bids[0] - 2.0) / 2.0 <= 0.1
    # priced-path allocations sit exactly on bid / path price
    view = lm.compile_pool(net, pools, "k0")
    mu = view.incidence.T @ st.prices
    np.testing.assert_allclose(st.freqs, st.bids / mu, rtol=1e-12)


def test_residual_invariants_at_convergence():
    net, pools, table = instances.two_lops_one_edge()
    res = run_one_pool(net, pools, "k0", table, 1.0)
    assert res.converged
    assert res.residuals.max_excess <= 0.1
    assert res.residuals.max_complementarity <= 0.1
    assert res.residuals.max_stationarity <= 0.1

    # recomputing the residuals from the final state gives the same verdict
    view = lm.compile_pool(net, pools, "k0")
    again = residuals_of(view, table.coefficients_for(view), res.state)
    assert again.converged


def test_warm_restart_at_fixed_point_is_free():
    net, pools, table = instances.single_edge()
    first = run_one_pool(net, pools, "k0", table, 1.0)
    warm = run_one_pool(net, pools, "k0", table, 1.0, warm=first.state)
    assert warm.converged
    assert warm.iterations <= 1
    assert warm.bid_updates == 0


def test_two_identical_operators_split_evenly():
    net, pools, table = instances.two_lops_one_edge()
    res = run_one_pool(net, pools, "k0", table, 1.0)
    assert res.converged
    for x in res.state.freqs:
        assert abs(x - 2.0) / 2.0 <= 0.1


def test_nonconvergence_is_reported_not_raised():
    # chain 0's pool k1 clears at share 0.5 in 360 updates, so 3 run out
    net, pools, table = instances.chain_instance(0)
    cfg = lm.DynamicsConfig(max_iters=3)
    res = run_one_pool(net, pools, "k1", table, 0.5, cfg=cfg)
    assert not res.converged
    assert res.iterations == 3
    assert res.residuals is not None


def test_config_validation():
    for eta in (-0.1, 0.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="price_eta"):
            lm.DynamicsConfig(price_eta=eta)
    # the refresh period is a constant of the dynamics, not a field
    assert lm.DynamicsConfig.bid_refresh_period == lm.DynamicsConfig().bid_refresh_period == 10
    with pytest.raises(TypeError):
        lm.DynamicsConfig(bid_refresh_period=10)


BAD_BUDGETS = [0, -3, 2.5, 10.0, math.inf, math.nan, True, False, "5", None]


@pytest.mark.parametrize("value", BAD_BUDGETS, ids=repr)
def test_budgets_are_whole_numbers(value):
    """max_iters and max_outer take an integer of at least 1, numpy's included, and no bool."""
    with pytest.raises(ValueError, match="max_iters must be a whole number of at least 1"):
        lm.DynamicsConfig(max_iters=value)
    with pytest.raises(ValueError, match="max_outer must be a whole number of at least 1"):
        lm.MechanismConfig(max_outer=value)


def test_numpy_integer_budgets_run():
    cfg = lm.MechanismConfig(inner=lm.DynamicsConfig(max_iters=np.int64(50_000)), max_outer=np.int32(200))
    res = lm.run_mechanism(*instances.chain_instance(0), cfg)
    want = lm.run_mechanism(*instances.chain_instance(0))
    assert res.converged and res.price_updates == want.price_updates and res.objective == want.objective
    # a budget that runs out leaves its own value in the counts, which stay Python ints
    short = lm.MechanismConfig(inner=lm.DynamicsConfig(max_iters=np.int64(37)), max_outer=np.int32(3))
    assert type(short.inner.max_iters) is int and type(short.max_outer) is int
    for res in (res, lm.run_mechanism(*instances.chain_instance(0), short)):
        json.dumps([res.price_updates, res.f_updates, res.bid_updates])
        assert all(type(v) is int for v in [*res.price_updates.values(), res.f_updates, res.bid_updates])


def test_default_step_scales_with_capacity_and_crowding():
    net1, pools1, _ = instances.single_edge()
    view1 = lm.compile_pool(net1, pools1, "k0")
    assert lm.default_price_eta(view1) == pytest.approx(0.04)  # 0.01 * 4 / 1

    net2, pools2, _ = instances.two_lops_one_edge()
    view2 = lm.compile_pool(net2, pools2, "k0")
    assert lm.default_price_eta(view2) == pytest.approx(0.02)  # 0.01 * 4 / 2



def test_default_step_reads_the_whole_view():
    """The step reads every edge's capacity, not only those of the pool's own edges.

    In chain 3 only pool k1's lines use e3, the narrowest edge (capacity
    2.75), yet it sets the step of both pools.  Pool k0's own narrowest edge
    has capacity 5.47, which a step taken from own edges would read.  Such a
    step is not a free change: taken alone it made the chain seeds need far
    more price updates, so the loop's restriction to own edges leaves the
    step as it is.
    """
    net, pools, _ = instances.chain_instance(3)
    k0, k1 = (lm.compile_pool(net, pools, k) for k in pools.pool_ids)
    assert 3 not in k0.own_edges and 3 in k1.own_edges
    assert k0.capacity[k0.own_edges].min() == pytest.approx(5.465, abs=1e-3)
    for view in (k0, k1):
        assert lm.default_price_eta(view) == pytest.approx(0.02753, abs=1e-5)
        assert lm.default_price_eta(view) == 0.01 * view.capacity[3]


def test_all_closed_edges_give_a_positive_step():
    net = lm.Network(["u", "v"], [lm.Edge("e1", "u", "v", 0.0)])
    pools = lm.PoolSystem(["k0"], {("lop0", "k0"): lm.Line(("e1",))})
    assert lm.default_price_eta(lm.compile_pool(net, pools, "k0")) == pytest.approx(0.01)


def _two_edge_pool(e3_capacity=None):
    """lop0 (a=2) on e1, e2 and lop1 (a=3) on e2, capacities 4 and 8.

    With e3_capacity, lop2 (a=1) runs on e3 alone and e3 has that capacity.
    """
    edges = [lm.Edge("e1", "u", "v", 4.0), lm.Edge("e2", "v", "w", 8.0)]
    lines = {("lop0", "k0"): lm.Line(("e1", "e2")), ("lop1", "k0"): lm.Line(("e2",))}
    coeffs = [2.0, 3.0]
    if e3_capacity is not None:
        edges.append(lm.Edge("e3", "w", "z", e3_capacity))
        lines[("lop2", "k0")] = lm.Line(("e3",))
        coeffs.append(1.0)
    net = lm.Network(["u", "v", "w", "z"], edges)
    return lm.compile_pool(net, lm.PoolSystem(["k0"], lines), "k0"), np.array(coeffs)


def test_cold_start_bids_at_fair_shares():
    """Each operator bids (a/2)*sqrt(fair share), charged to the edges that set it."""
    view, coeffs = _two_edge_pool()
    # ratios e1 4/1, e2 8/2: lop0 ties on both edges, lop1 sets e2; both
    # fair shares are 4, so each line bids a
    state = lm.cold_start(view, coeffs, 1.0)
    np.testing.assert_array_equal(state.bids, [2.0, 3.0])
    # lop0's bid splits evenly over its tie: e1 carries 1, e2 carries 1 + 3
    np.testing.assert_array_equal(state.prices, [1 / 4, (1 + 3) / 8])
    np.testing.assert_allclose(state.freqs, [2.0 / 0.75, 3.0 / 0.5], rtol=1e-15)
    # at share 1/4 both fair shares are 1: bids halve, prices double
    state = lm.cold_start(view, coeffs, 0.25)
    np.testing.assert_array_equal(state.bids, [1.0, 1.5])
    np.testing.assert_array_equal(state.prices, [0.5, 1.0])
    np.testing.assert_allclose(state.freqs, [1.0 / 1.5, 1.5 / 1.0], rtol=1e-15)


def _three_way_tie(order):
    """lop0 ties on e1, e2, e3 (ratio 3 each), lop1 on e2, e3, lop2 sets e3 against e4 (ratio 5)."""
    edges = [
        lm.Edge("e1", "n1", "n2", 3.0), lm.Edge("e2", "n2", "n3", 6.0),
        lm.Edge("e3", "n3", "n4", 9.0), lm.Edge("e4", "n4", "n5", 5.0),
    ]
    lines = {
        ("lop0", "k0"): lm.Line(("e1", "e2", "e3")),
        ("lop1", "k0"): lm.Line(("e2", "e3")),
        ("lop2", "k0"): lm.Line(("e3", "e4")),
    }
    net = lm.Network([f"n{i}" for i in range(1, 6)], [edges[i] for i in order])
    return lm.compile_pool(net, lm.PoolSystem(["k0"], lines), "k0"), np.array([2.0, 3.0, 5.0])


def test_opening_does_not_depend_on_edge_order():
    """Permuting the edge list moves no bid and no edge's opening price, ties included."""
    view, coeffs = _three_way_tie(range(4))
    base = lm.cold_start(view, coeffs, 0.6)
    # every fair share is 0.6 * 3
    np.testing.assert_allclose(base.bids, coeffs / 2 * np.sqrt(0.6 * 3.0), rtol=1e-15)
    # every tie splits evenly: e3 carries a third of lop0's bid, half of
    # lop1's and all of lop2's, e4 none
    b = base.bids
    np.testing.assert_allclose(
        base.prices, np.array([b[0] / 3, b[0] / 3 + b[1] / 2, b[0] / 3 + b[1] / 2 + b[2], 0.0])
        / (np.array([3.0, 6.0, 9.0, 5.0]) * 0.6), rtol=1e-15,
    )
    for order in itertools.permutations(range(4)):
        view, _ = _three_way_tie(order)
        state = lm.cold_start(view, coeffs, 0.6)
        assert state.bids.tobytes() == base.bids.tobytes(), order
        assert state.price_map() == base.price_map(), order
        assert state.freq_map() == base.freq_map(), order


def test_closed_edge_opens_unpriced():
    view, coeffs = _two_edge_pool(e3_capacity=0.0)
    state = lm.cold_start(view, coeffs, 0.5)
    assert state.bids[2] == 0.0 and state.prices[2] == 0.0 and state.freqs[2] == 0.0
    np.testing.assert_array_equal(state.bids[:2], [2.0 * 0.5 ** 0.5, 3.0 * 0.5 ** 0.5])


@pytest.mark.parametrize("share", [0.1, 0.3, 0.5, 0.7, 0.9])
def test_cold_start_is_half_homogeneous_in_the_share(share):
    """As the optimum: prices scale by share**-1/2, bids by share**1/2, frequencies by share."""
    cases = [_two_edge_pool(), _three_way_tie(range(4))]  # ties
    for seed in range(20):
        net, pools, table = instances.chain_instance(seed)
        views = (lm.compile_pool(net, pools, k) for k in pools.pool_ids)
        cases += [(view, table.coefficients_for(view)) for view in views]
    for view, coeffs in cases:
        full = lm.cold_start(view, coeffs, 1.0)
        part = lm.cold_start(view, coeffs, share)
        np.testing.assert_allclose(part.prices, full.prices * share ** -0.5, rtol=1e-14)
        np.testing.assert_allclose(part.bids, full.bids * share ** 0.5, rtol=1e-14)
        np.testing.assert_allclose(part.freqs, full.freqs * share, rtol=1e-14)


def test_one_edge_one_operator_opens_at_the_optimum():
    """c=4, a=2: the opening state is x=4, price 0.5, bid 2, so no update runs."""
    net, pools, table = instances.single_edge()
    res = run_one_pool(net, pools, "k0", table, 1.0)
    assert res.converged and res.iterations == 0
    assert (res.state.freqs[0], res.state.prices[0], res.state.bids[0]) == (4.0, 0.5, 2.0)
    assert res.residuals.max_stationarity == 0.0


def test_fixed_bid_descent_toward_clearing_prices():
    """Distance to the frozen-bid clearing point shrinks along the dynamics."""
    net, pools, _ = instances.two_lops_one_edge()
    view = lm.compile_pool(net, pools, "k0")
    bids = np.array([1.3, 0.7])
    target = lm.solve_fixed_bids(view, bids, 1.0)
    np.testing.assert_allclose(target, [0.5], atol=1e-9)  # (1.3 + 0.7) / 4

    eta = 0.05
    hist, exc = lm.run_price_dynamics(view, np.zeros(1), bids, 1.0, eta, 400)
    v = 0.5 * np.sum((hist - target) ** 2, axis=1)
    dv = np.diff(v)
    slack = 0.5 * eta**2 * np.sum(exc**2, axis=1)
    assert np.all(dv <= slack + 1e-12)
    assert v[-1] <= v[0] / 10.0


def test_empty_pool_converges_trivially():
    net = lm.Network(["u", "v"], [lm.Edge("e1", "u", "v", 4.0)])
    pools = lm.PoolSystem(["k0", "k1"], {("lop0", "k0"): lm.Line(("e1",))})
    table = lm.UtilityTable({("lop0", "k0"): lm.UtilitySpec(2.0)})
    res = run_one_pool(net, pools, "k1", table, 1.0)
    assert res.converged
    assert res.iterations == 0
    assert res.state.freqs.size == 0


# ---------------------------------------------------------------------------
# Reference implementations, written in plain numpy and calling no engine
# step: the allocation step with the line ceilings recomputed per call and
# an explicit infinite allocation on unpriced paths, the residual check as
# it reads a stored state, and the eager pool loop that checks residuals
# after every price update.  The engine must reproduce all three bit for
# bit.

def line_edges(view):
    """Each line's edge positions, read off the incidence column."""
    return [np.flatnonzero(view.incidence[:, p]) for p in range(view.n_lops)]


def reference_allocate(view, prices, bids, share, overload_factor=1.25):
    mu = view.incidence.T @ prices
    ceil = np.array([view.capacity[idx].min() for idx in line_edges(view)]) * share
    with np.errstate(divide="ignore", invalid="ignore"):
        nominal = np.where(mu > 0.0, bids / np.where(mu > 0.0, mu, 1.0), np.inf)
    freqs = np.minimum(nominal, overload_factor * ceil)
    freqs = np.where((mu <= 0.0) & (bids > 0.0), ceil, freqs)
    freqs = np.where(bids > 0.0, freqs, 0.0)
    return freqs, mu


def reference_residuals(view, coefficients, state, abs_tol=_ABS_TOL, rel_tol=_REL_TOL):
    loads = view.incidence @ state.freqs
    excess = loads - view.capacity * state.share
    mu = view.incidence.T @ state.prices

    feas = float(excess.max(initial=0.0))
    comp = float((state.prices * np.abs(excess)).max(initial=0.0))

    active = state.freqs > 0.0
    stat = 0.0
    priceless = bool(np.any(active & ~(mu > 0.0)))
    if np.any(active & (mu > 0.0)):
        sel = active & (mu > 0.0)
        marg = coefficients[sel] / (2.0 * np.sqrt(state.freqs[sel]))
        stat = float(np.max(np.abs(marg - mu[sel]) / mu[sel]))

    ok = not priceless and feas <= abs_tol and comp <= abs_tol and stat <= rel_tol
    return PoolResiduals(feas, comp, stat, ok)


def reference_run_pool(view, coefficients, share, cfg, warm=None):
    """Eager loop: residuals after every price update.

    A warm state cleared at another share starts from its prices times
    r**-1/2 and its bids times r**1/2, r the ratio of the shares, and may
    stop no earlier than the first refresh boundary.
    """
    if cfg.price_eta is not None:
        eta = cfg.price_eta
    else:
        open_caps = view.capacity[view.capacity > 0.0]
        scale = float(open_caps.min()) if open_caps.size else 1.0
        eta = 0.01 * scale / max(1.0, float(view.incidence.sum(axis=1).max()))
    period = cfg.bid_refresh_period
    if warm is None:
        # each line's bid is charged evenly to the edges of its line with the
        # smallest capacity / crowd; every other edge opens unpriced
        supply = view.capacity * share
        crowd = view.incidence.sum(axis=1)
        charge = np.zeros((view.n_edges, view.n_lops))
        fair = np.zeros(view.n_lops)
        for p, idx in enumerate(line_edges(view)):
            ratio = view.capacity[idx] / crowd[idx]
            fair[p] = ratio.min()
            neck = idx[ratio == fair[p]]
            charge[neck, p] = 1.0 / len(neck)
        bids = coefficients / 2.0 * np.sqrt(share * fair)
        mass = charge @ bids
        prices = np.where(mass > 0.0, mass / np.where(mass > 0.0, supply, 1.0), 0.0)
        first_stop = 0
    else:
        ratio = share / warm.share
        prices = warm.prices * ratio ** -0.5
        bids = warm.bids * ratio ** 0.5
        first_stop = period if ratio != 1.0 else 0
    freqs, mu = reference_allocate(view, prices, bids, share)
    st = lm.PoolMarketState(view.pool_id, view.edge_ids, view.lop_ids, prices, bids, freqs, share)
    iters = bid_updates = 0
    res = reference_residuals(view, coefficients, st)
    while not (res.converged and iters % period == 0 and iters >= first_stop) and iters < cfg.max_iters:
        excess = view.incidence @ st.freqs - view.capacity * share
        st.prices = np.maximum(0.0, st.prices + eta * excess)
        iters += 1
        st.freqs, mu = reference_allocate(view, st.prices, st.bids, share)
        if iters % period == 0:
            skip_mask = ~(mu > 0.0)
            best = coefficients ** 2 / (4.0 * np.where(skip_mask, 1.0, mu))
            new_bids = np.where(skip_mask, st.bids, best)
            rel_change = np.abs(new_bids - st.bids) / np.maximum(st.bids, 1e-300)
            if float(rel_change.max(initial=0.0)) > _REL_TOL:
                bid_updates += 1
            st.bids = new_bids
            st.freqs, mu = reference_allocate(view, st.prices, st.bids, share)
        res = reference_residuals(view, coefficients, st)
    converged = res.converged and iters % period == 0 and iters >= first_stop
    return st, iters, bid_updates, converged, res


def assert_same_run(view, coefficients, share, cfg, warm=None):
    got = run_pool(view, coefficients, share, warm, cfg)
    st, iters, bid_updates, converged, res = reference_run_pool(view, coefficients, share, cfg, warm)
    assert (got.iterations, got.bid_updates, got.converged) == (iters, bid_updates, converged)
    for name in ("prices", "bids", "freqs"):
        assert getattr(got.state, name).tobytes() == getattr(st, name).tobytes(), name
    assert got.residuals == res
    return got


@pytest.mark.parametrize("seed", range(20))
def test_pool_loop_matches_eager_reference_on_chains(seed):
    net, pools, table = instances.chain_instance(seed)
    for k in pools.pool_ids:
        view = lm.compile_pool(net, pools, k)
        assert_same_run(view, table.coefficients_for(view), 0.5, lm.DynamicsConfig())


def test_pool_loop_matches_eager_reference_on_grid():
    net, pools, table = instances.grid_instance(0, 2)
    view = lm.compile_pool(net, pools, pools.pool_ids[0])
    got = assert_same_run(view, table.coefficients_for(view), 0.5, instances.GRID_CFG.inner)
    assert got.converged and got.iterations > 100


@pytest.mark.parametrize("scale", [0.9, 1.1])
def test_warm_rescaled_loop_matches_eager_reference(scale):
    """Warm runs at 0.9x and 1.1x the share their state cleared at, bit for bit."""
    cases = [(instances.chain_instance(seed), lm.DynamicsConfig()) for seed in range(20)]
    cases.append((instances.grid_instance(0, 2), instances.GRID_CFG.inner))
    for (net, pools, table), cfg in cases:
        for k in pools.pool_ids:
            view = lm.compile_pool(net, pools, k)
            coeffs = table.coefficients_for(view)
            cleared = run_pool(view, coeffs, 0.5, None, cfg)
            assert cleared.converged
            got = assert_same_run(view, coeffs, 0.5 * scale, cfg, warm=cleared.state)
            assert got.converged and got.iterations >= cfg.bid_refresh_period
            assert cleared.state.share == 0.5  # the warm state itself is untouched


def test_moved_share_runs_to_a_refresh_boundary():
    """A rescaled state is a prediction: even one that passes the residual check re-clears."""
    net, pools, table = instances.two_lops_one_edge()
    view = lm.compile_pool(net, pools, "k0")
    coeffs = table.coefficients_for(view)
    cfg = lm.DynamicsConfig()
    cleared = run_pool(view, coeffs, 0.5, None, cfg).state
    assert run_pool(view, coeffs, 0.5, cleared, cfg).iterations == 0

    share = 0.5 * 1.001
    ratio = share / cleared.share
    rescaled = cleared.copy()
    rescaled.prices *= ratio ** -0.5
    rescaled.bids *= ratio ** 0.5
    rescaled.freqs, _ = allocate(view, rescaled.prices, rescaled.bids, share)
    rescaled.share = share
    assert residuals_of(view, coeffs, rescaled).converged
    moved = run_pool(view, coeffs, share, cleared, cfg)
    assert moved.converged
    assert moved.iterations >= cfg.bid_refresh_period


def test_warm_state_with_a_silent_line_cold_starts_the_pool():
    """A line that can run but holds no bid makes its pool start afresh."""
    net, pools, table = instances.chain_instance(3)
    view = lm.compile_pool(net, pools, "k0")
    coeffs = table.coefficients_for(view)
    cfg = lm.DynamicsConfig()
    cleared = run_pool(view, coeffs, 0.5, None, cfg)
    silent = cleared.state.copy()
    silent.bids[0] = 0.0
    got = run_pool(view, coeffs, 0.5, silent, cfg)
    assert got.iterations == cleared.iterations
    assert got.state.bids.tobytes() == cleared.state.bids.tobytes()


def test_budget_exit_off_a_refresh_boundary_reports_final_residuals():
    net, pools, table = instances.grid_instance(0, 2)
    view = lm.compile_pool(net, pools, pools.pool_ids[0])
    coeffs = table.coefficients_for(view)
    cfg = lm.DynamicsConfig(price_eta=1e-3, max_iters=37)
    got = assert_same_run(view, coeffs, 0.5, cfg)
    assert got.iterations == 37 and not got.converged
    assert got.residuals == residuals_of(view, coeffs, got.state)


def test_allocation_matches_reference_bitwise():
    rng = np.random.default_rng(2024)
    views = []
    for seed in range(5):
        net, pools, _ = instances.chain_instance(seed)
        views += [lm.compile_pool(net, pools, k) for k in pools.pool_ids]
    net, pools, _ = instances.grid_instance(0, 2)
    views.append(lm.compile_pool(net, pools, pools.pool_ids[0]))
    seen = {"unpriced bidder": 0, "zero bid": 0, "negative bid": 0, "truncated": 0, "every path priced": 0}
    for trial in range(2000):
        view = views[trial % len(views)]
        # zero prices on a random subset, so some paths are unpriced; zero
        # and negative bids on others
        prices = rng.uniform(0.0, 2.0, view.n_edges) * (rng.random(view.n_edges) < rng.random())
        bids = rng.uniform(-1.0, 3.0, view.n_lops) * (rng.random(view.n_lops) < 0.8)
        share = float(rng.uniform(0.01, 1.0))
        overload = float(rng.choice([1.0, 1.25, 3.0]))
        got = allocate(view, prices, bids, share, overload)
        want = reference_allocate(view, prices, bids, share, overload)
        assert got[0].tobytes() == want[0].tobytes() and got[1].tobytes() == want[1].tobytes(), trial
        mu = want[1]
        seen["unpriced bidder"] += int(np.sum((mu == 0.0) & (bids > 0.0)))
        seen["zero bid"] += int(np.sum(bids == 0.0))
        seen["negative bid"] += int(np.sum(bids < 0.0))
        nominal = bids / np.where(mu > 0.0, mu, 1.0)
        seen["truncated"] += int(np.sum((mu > 0.0) & (nominal > overload * view.bottleneck * share)))
        seen["every path priced"] += int(bool(np.all(mu > 0.0)))
    assert min(seen.values()) > 0, seen


def test_bid_refresh_and_bid_terms_match_reference_bitwise():
    """Both the unmasked and the masked paths give the reference formulas' bytes."""
    rng = np.random.default_rng(2025)
    seen = {"every path priced": 0, "unpriced path": 0, "every line bids": 0, "zero bid": 0, "negative bid": 0}
    for trial in range(2000):
        n = int(rng.integers(1, 12))
        coeffs = rng.uniform(0.5, 20.0, n)
        # some trials price every path and give every line a positive bid;
        # the others zero a random subset of path prices and of bids, and
        # make some bids negative
        mixed = trial % 2 == 1
        mu = rng.uniform(0.01, 3.0, n) * (rng.random(n) < (rng.random() if mixed else 2.0))
        bids = rng.uniform(-1.0 if mixed else 0.01, 3.0, n) * (rng.random(n) < (0.8 if mixed else 2.0))
        ceil = rng.uniform(0.1, 5.0, n)

        new_bids = lm.refresh_bids(coeffs, mu, bids)
        skipped = ~(mu > 0.0)
        want_bids = np.where(skipped, bids, coeffs ** 2 / (4.0 * np.where(skipped, 1.0, mu)))
        assert new_bids.tobytes() == want_bids.tobytes(), trial

        offers, free = _bid_terms(bids, ceil)
        assert offers.tobytes() == np.where(bids > 0.0, bids, 0.0).tobytes(), trial
        assert free.tobytes() == np.where(bids > 0.0, ceil, 0.0).tobytes(), trial

        seen["every path priced" if np.all(mu > 0.0) else "unpriced path"] += 1
        seen["every line bids"] += int(bool(np.all(bids > 0.0)))
        seen["zero bid"] += int(np.sum(bids == 0.0))
        seen["negative bid"] += int(np.sum(bids < 0.0))
    assert min(seen.values()) > 0, seen


POSITIVITY_CASES = {
    "empty": ([], True),
    "all positive": ([0.5, 2.0, 1e-300], True),
    "zero": ([1.0, 0.0, 2.0], False),
    "negative zero": ([1.0, -0.0, 2.0], False),
    "negative": ([1.0, -3.0, 2.0], False),
    "nan first": ([np.nan, 1.0, 2.0], False),
    "nan in the middle": ([1.0, np.nan, 2.0], False),
    "nan last": ([1.0, 2.0, np.nan], False),
    "nan after a zero": ([1.0, 0.0, np.nan], False),
    "+inf": ([np.inf, 1.0], True),
    "only +inf": ([np.inf], True),
    "-inf": ([1.0, -np.inf], False),
}


@pytest.mark.parametrize("case", list(POSITIVITY_CASES))
def test_positivity_check_decides_as_min(case):
    """_positive, which picks the steps' fast paths, decides as x.min(initial=inf) > 0."""
    values, positive = POSITIVITY_CASES[case]
    x = np.array(values, dtype=float)
    assert bool(x.min(initial=np.inf) > 0.0) is positive
    assert bool(_positive(x)) is positive


def _chain_with_unused_edge(first):
    """Chain 3 with one more edge of capacity 1.0, which no line uses, first or last."""
    net, pools, table = instances.chain_instance(3)
    spare = lm.Edge("spare", "s0", "s1", 1.0)
    edges = (spare, *net.edges) if first else (*net.edges, spare)
    return lm.Network(net.nodes | {"s0", "s1"}, edges), pools, table


@pytest.mark.parametrize("first", [True, False], ids=["first", "last"])
def test_unused_edge_costs_nothing_and_changes_nothing(first):
    """An edge no line uses leaves every run byte for byte as it is, at price 0.

    Each pool runs cold, then warm at a moved share.  Both networks take the
    step of the one without the edge, since default_price_eta reads the
    narrowest edge of the whole view.
    """
    net, pools, table = instances.chain_instance(3)
    wide, _, _ = _chain_with_unused_edge(first)
    spare = 0 if first else len(net.edges)
    shared = np.arange(len(wide.edges)) != spare
    cfg = lm.DynamicsConfig()
    for k in pools.pool_ids:
        view, wide_view = lm.compile_pool(net, pools, k), lm.compile_pool(wide, pools, k)
        assert spare not in wide_view.own_edges
        coeffs = table.coefficients_for(view)
        eta = lm.default_price_eta(view)
        want = got = None
        for share in (0.5, 0.45):
            want = _run_pool(view, coeffs, share, want.state if want else None, cfg, eta)
            got = _run_pool(wide_view, coeffs, share, got.state if got else None, cfg, eta)
            assert want.converged
            assert (got.iterations, got.bid_updates, got.converged, got.residuals) == (
                want.iterations, want.bid_updates, want.converged, want.residuals
            )
            assert got.state.prices[shared].tobytes() == want.state.prices.tobytes()
            assert got.state.bids.tobytes() == want.state.bids.tobytes()
            assert got.state.freqs.tobytes() == want.state.freqs.tobytes()
            assert got.state.prices[spare] == 0.0 and not np.signbit(got.state.prices[spare])
        assert want.iterations >= cfg.bid_refresh_period


@pytest.mark.parametrize("first", [True, False], ids=["first", "last"])
def test_warm_price_on_an_unused_edge_is_dropped(first):
    """A warm state's price on an edge no line uses opens, and ends, at zero."""
    net, pools, table = _chain_with_unused_edge(first)
    spare = 0 if first else len(net.edges) - 1
    cfg = lm.DynamicsConfig()
    for k in pools.pool_ids:
        view = lm.compile_pool(net, pools, k)
        coeffs = table.coefficients_for(view)
        cleared = run_pool(view, coeffs, 0.5, None, cfg)
        assert cleared.converged
        warm = cleared.state.copy()
        warm.prices[spare] = 3.0
        # at the share it cleared at, the state is the cleared one again
        same = run_pool(view, coeffs, 0.5, warm, cfg)
        assert same.converged and same.iterations == 0
        assert same.state.prices.tobytes() == cleared.state.prices.tobytes()
        moved = run_pool(view, coeffs, 0.45, warm, cfg)
        assert moved.converged and moved.state.prices[spare] == 0.0
        assert warm.prices[spare] == 3.0  # the warm state itself is untouched

    res = lm.run_mechanism(net, pools, table)
    assert res.converged
    for st in res.state.pool_states.values():
        st.prices[spare] = 3.0
    warm = lm.run_mechanism(net, pools, table, warm=res.state)
    assert warm.converged
    assert all(st.prices[spare] == 0.0 for st in warm.state.pool_states.values())
    assert lm.mechanism_kkt(net, pools, table, warm.state).max_scaled() <= 0.1


def test_residuals_match_reference_on_final_states():
    cases = [(instances.chain_instance(seed), lm.DynamicsConfig()) for seed in range(20)]
    cases.append((instances.grid_instance(0, 2), instances.GRID_CFG.inner))
    for (net, pools, table), cfg in cases:
        for k in pools.pool_ids:
            view = lm.compile_pool(net, pools, k)
            coeffs = table.coefficients_for(view)
            got = run_pool(view, coeffs, 0.5, None, cfg)
            want = reference_residuals(view, coeffs, got.state)
            assert got.residuals == want
            assert residuals_of(view, coeffs, got.state) == want


def test_residuals_match_reference_on_random_states(monkeypatch):
    rng = np.random.default_rng(77)
    views = []
    for seed in range(5):
        net, pools, table = instances.chain_instance(seed)
        views += [(v, table.coefficients_for(v)) for v in (lm.compile_pool(net, pools, k) for k in pools.pool_ids)]
    net, pools, table = instances.grid_instance(0, 2)
    view = lm.compile_pool(net, pools, pools.pool_ids[0])
    views.append((view, table.coefficients_for(view)))
    seen = {"active on unpriced path": 0, "zero frequency": 0, "converged": 0, "not converged": 0}
    for trial in range(2000):
        view, coeffs = views[trial % len(views)]
        prices = rng.uniform(0.0, 2.0, view.n_edges) * (rng.random(view.n_edges) < rng.random())
        freqs = rng.uniform(0.0, 5.0, view.n_lops) * (rng.random(view.n_lops) < 0.8)
        share = float(rng.uniform(0.01, 1.0))
        # the stop test's tolerances, or ones so loose that only an active
        # line on an unpriced path fails
        tol = float(rng.choice([0.1, 1e9]))
        monkeypatch.setattr(single_pool, "_ABS_TOL", tol)
        monkeypatch.setattr(single_pool, "_REL_TOL", tol)
        state = lm.PoolMarketState(view.pool_id, view.edge_ids, view.lop_ids, prices, np.ones(view.n_lops), freqs, share)
        got = residuals_of(view, coeffs, state)
        want = reference_residuals(view, coeffs, state, tol, tol)
        assert got == want, trial
        mu = view.incidence.T @ prices
        seen["active on unpriced path"] += int(np.sum((freqs > 0.0) & (mu == 0.0)))
        seen["zero frequency"] += int(np.sum(freqs == 0.0))
        seen["converged" if got.converged else "not converged"] += 1
    assert min(seen.values()) > 0, seen


def test_boundary_precheck_is_necessary_for_the_stop_test(monkeypatch):
    """Whenever pool_residuals converges, _may_stop holds; a NaN or an inf fails both."""
    rng = np.random.default_rng(78)
    views = []
    for seed in range(5):
        net, pools, table = instances.chain_instance(seed)
        views += [(v, table.coefficients_for(v)) for v in (lm.compile_pool(net, pools, k) for k in pools.pool_ids)]
    net, pools, table = instances.grid_instance(0, 2)
    view = lm.compile_pool(net, pools, pools.pool_ids[0])
    views.append((view, table.coefficients_for(view)))
    seen = {"converged": 0, "pre-check only": 0, "both fail": 0, "nan excess": 0, "inf excess": 0, "nan or inf price": 0}
    for trial in range(2000):
        view, coeffs = views[trial % len(views)]
        prices = rng.uniform(0.0, 2.0, view.n_edges) * (rng.random(view.n_edges) < rng.random())
        freqs = rng.uniform(0.0, 5.0, view.n_lops) * (rng.random(view.n_lops) < 0.8)
        share = float(rng.uniform(0.01, 1.0))
        tol = float(rng.choice([0.1, 1e9]))
        monkeypatch.setattr(single_pool, "_ABS_TOL", tol)
        monkeypatch.setattr(single_pool, "_REL_TOL", tol)
        mu = view.incidence.T @ prices
        excess = view.incidence @ freqs - view.capacity * share
        # every fifth trial puts a NaN or an inf into the prices or the excess
        bad = trial % 5
        where = int(rng.integers(view.n_edges))
        if bad == 1:
            excess[where] = np.nan
        elif bad == 2:
            excess[where] = rng.choice([np.inf, -np.inf])
        elif bad == 3:
            prices[where] = rng.choice([np.nan, np.inf])
            with np.errstate(invalid="ignore"):
                mu = view.incidence.T @ prices
        with np.errstate(invalid="ignore"):
            full = pool_residuals(coeffs, prices, freqs, mu, excess)
            cheap = _may_stop(prices, excess)
        assert cheap or not full.converged, trial
        if bad in (1, 2, 3):
            assert not cheap and not full.converged, trial
            seen[("nan excess", "inf excess", "nan or inf price")[bad - 1]] += 1
        if full.converged:
            seen["converged"] += 1
        else:
            seen["pre-check only" if cheap else "both fail"] += 1
    assert min(seen.values()) > 0, seen


def test_seams_run_once_per_use(monkeypatch):
    """Each step goes through its module-level seam, exactly as often as it is used."""
    calls = dict.fromkeys(("price_step", "allocate_frequencies", "refresh_bids", "pool_residuals"), 0)
    for name in calls:
        def counted(*args, _fn=getattr(single_pool, name), _name=name):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(single_pool, name, counted)
    checks = []  # each boundary pre-check's verdict

    def may_stop(prices, excess, _fn=single_pool._may_stop):
        checks.append(_fn(prices, excess))
        return checks[-1]

    monkeypatch.setattr(single_pool, "_may_stop", may_stop)
    runs = []
    moved = []

    def run_pool(view, coefficients, share, warm, cfg, eta):
        res = _run_pool(view, coefficients, share, warm, cfg, eta)
        runs.append((view.n_lops, res.iterations, res.iterations == cfg.max_iters))
        moved.append(warm is not None and warm.share != share)
        return res

    monkeypatch.setattr(multi_pool, "_run_pool", run_pool)
    res = lm.run_mechanism(*instances.chain_instance(3))
    period = lm.DynamicsConfig().bid_refresh_period
    assert all(n_lops for n_lops, _, _ in runs)
    # two cold runs, one split update, two warm runs rescaled to the new split
    assert res.f_updates == 1 and moved == [False, False, True, True]
    assert all(n >= period for (_, n, _), m in zip(runs, moved) if m)
    assert sum(n for _, n, _ in runs) == sum(res.price_updates.values())
    # chain 0 reaches boundaries whose overload or complementarity still
    # fails, and two grid runs spend their budget, off and on a boundary
    lm.run_mechanism(*instances.chain_instance(0))
    net, pools, table = instances.grid_instance(0, 2)
    view = lm.compile_pool(net, pools, pools.pool_ids[0])
    for max_iters in (37, 40):
        cfg = lm.DynamicsConfig(price_eta=1e-3, max_iters=max_iters)
        multi_pool._run_pool(view, table.coefficients_for(view), 0.5, None, cfg, 1e-3)
    updates = sum(n for _, n, _ in runs)
    boundaries = sum(n // period for _, n, _ in runs)
    budget_exits = sum(spent for _, _, spent in runs)
    assert budget_exits == 2
    assert calls["price_step"] == updates
    assert calls["refresh_bids"] == boundaries
    # each pass of a loop ends at a boundary or on the budget; the pass that
    # spends the budget skips the pre-check
    assert len(checks) == sum(-(-n // period) for _, n, _ in runs) - budget_exits
    assert not all(checks)
    # one full check before the first update of each run, moved or not, one
    # per boundary whose pre-check passes, one more on a budget exit
    assert calls["pool_residuals"] == len(runs) + sum(checks) + budget_exits
    # one allocation per price update, and one per run before the first
    assert calls["allocate_frequencies"] == updates + len(runs)
