"""In-pool dynamics: price steps, allocation, bid refresh, full runs."""
import copy
import dataclasses
import itertools
import json
import math
import re

import numpy as np
import pytest

import linemarket as lm
from linemarket import multi_pool, single_pool
from linemarket.oracle import kkt_report
from linemarket.single_pool import (
    _ABS_TOL, _REL_TOL, _TINY, PoolResiduals, _bid_terms, _clearing_terms, _max_or_zero, _may_stop, _neck_prices,
    _positive, _run_pool, pool_residuals,
)

import instances
import report


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


def run_one_pool(net, pools, pool_id, table, share, warm=None, cfg=None):
    """One pool's market at a fixed share, run as run_mechanism runs each pool."""
    view = lm.compile_pool(net, pools, pool_id)
    return _run_pool(view, table.coefficients_for(view), share, warm, cfg or lm.DynamicsConfig())


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


def test_nonconvergence_is_reported_not_raised(monkeypatch):
    # chain 0's pool k1 clears at share 0.5 in 360 updates, so 3 passes run out
    net, pools, table = instances.chain_instance(0)
    monkeypatch.setattr(single_pool, "_MAX_PASSES", 3)
    res = run_one_pool(net, pools, "k1", table, 0.5)
    assert not res.converged
    assert res.iterations == 3 * lm.DynamicsConfig.bid_refresh_period
    assert res.residuals is not None


def test_config_validation():
    for eta in (-0.1, 0.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="price_eta"):
            lm.DynamicsConfig(price_eta=eta)
    # the refresh period is a constant of the dynamics, not a field
    assert lm.DynamicsConfig.bid_refresh_period == lm.DynamicsConfig().bid_refresh_period == 10
    with pytest.raises(TypeError):
        lm.DynamicsConfig(bid_refresh_period=10)


@pytest.mark.parametrize("value", [True, False, "0.1", "1e-3"], ids=repr)
def test_price_step_must_be_a_real_number(value):
    """A bool or a string is rejected with ValueError, not read as 1.0 or left to fail a comparison."""
    with pytest.raises(ValueError, match="price_eta must be a real number"):
        lm.DynamicsConfig(price_eta=value)


BAD_BUDGETS = [0, -3, 2.5, 10.0, math.inf, math.nan, True, False, "5", None]


@pytest.mark.parametrize("value", BAD_BUDGETS, ids=repr)
def test_budgets_are_whole_numbers(value):
    """The run budgets are whole-number engine constants, and no config field sets them, whatever the value."""
    # a pool run spends whole refresh passes: 5,000 of 10 price updates each
    assert type(single_pool._MAX_PASSES) is int
    assert single_pool._MAX_PASSES * lm.DynamicsConfig.bid_refresh_period == 50_000
    assert type(multi_pool._MAX_OUTER) is int and multi_pool._MAX_OUTER == 200
    with pytest.raises(TypeError, match="max_iters"):
        lm.DynamicsConfig(max_iters=value)
    with pytest.raises(TypeError, match="max_outer"):
        lm.MechanismConfig(max_outer=value)


def test_budget_exit_counts_are_python_ints(monkeypatch):
    """A run that spends a budget leaves its value in the counts, which stay Python ints."""
    monkeypatch.setattr(single_pool, "_MAX_PASSES", 4)
    res = lm.run_mechanism(*instances.chain_instance(0))
    assert not res.converged and max(res.price_updates.values()) == 4 * lm.DynamicsConfig.bid_refresh_period
    json.dumps([res.price_updates, res.f_updates, res.bid_updates])
    assert all(type(v) is int for v in [*res.price_updates.values(), res.f_updates, res.bid_updates])


def test_default_step_scales_with_capacity_and_crowding():
    net1, pools1, _ = instances.single_edge()
    view1 = lm.compile_pool(net1, pools1, "k0")
    assert view1.price_eta == pytest.approx(0.04)  # 0.01 * 4 / 1

    net2, pools2, _ = instances.two_lops_one_edge()
    view2 = lm.compile_pool(net2, pools2, "k0")
    assert view2.price_eta == pytest.approx(0.02)  # 0.01 * 4 / 2



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
        assert view.price_eta == pytest.approx(0.02753, abs=1e-5)
        assert view.price_eta == 0.01 * view.capacity[3]


def test_all_closed_edges_give_a_positive_step():
    net = lm.Network(["u", "v"], [lm.Edge("e1", "u", "v", 0.0)])
    pools = lm.PoolSystem(["k0"], {("lop0", "k0"): lm.Line(("e1",))})
    assert lm.compile_pool(net, pools, "k0").price_eta == pytest.approx(0.01)


def test_run_steps_at_the_views_step_unless_the_config_sets_one(monkeypatch):
    """_run_pool steps at view.price_eta under DynamicsConfig() and at x under DynamicsConfig(price_eta=x).

    Every price step of a run receives that step, and the default run is the
    run at the view's step given explicitly, byte for byte.
    """
    steps = []

    def price_step(prices, loads, supply, eta, _fn=single_pool.price_step):
        steps.append(float(eta))
        return _fn(prices, loads, supply, eta)

    monkeypatch.setattr(single_pool, "price_step", price_step)
    net, pools, table = instances.chain_instance(0)  # both pools take steps at share 0.5
    for k in pools.pool_ids:
        view = lm.compile_pool(net, pools, k)
        coeffs = table.coefficients_for(view)
        runs = []
        for cfg, eta in ((lm.DynamicsConfig(), view.price_eta),
                         (lm.DynamicsConfig(price_eta=view.price_eta), view.price_eta),
                         (lm.DynamicsConfig(price_eta=0.5 * view.price_eta), 0.5 * view.price_eta)):
            steps.clear()
            runs.append(_run_pool(view, coeffs, 0.5, None, cfg))
            assert steps and set(steps) == {eta}
        default, explicit, _ = runs
        assert (default.iterations, default.bid_updates, default.converged, default.residuals) == (
            explicit.iterations, explicit.bid_updates, explicit.converged, explicit.residuals)
        for name in ("prices", "bids", "freqs"):
            assert getattr(default.state, name).tobytes() == getattr(explicit.state, name).tobytes(), name


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


@pytest.mark.parametrize("share", [-1.0, np.nan, np.inf, "0.5", True], ids=repr)
def test_cold_start_rejects_a_share_no_pool_holds(share):
    """A negative share failed inside sqrt with a RuntimeWarning, and NaN opened a state of NaNs."""
    view, coeffs = _two_edge_pool()
    with pytest.raises(ValueError, match=rf"share must be a real number in \[0, inf\), got {share!r}"):
        lm.cold_start(view, coeffs, share)


def _frozen_bid_view():
    net, pools, _ = instances.two_lops_one_edge()
    return lm.compile_pool(net, pools, "k0")


def test_price_dynamics_read_lists_as_floats():
    """Prices and bids pass as any sequence of reals; the caller's arrays are not written."""
    view = _frozen_bid_view()
    prices, bids = np.array([0.0]), np.array([1.0, 3.0])
    want = lm.run_price_dynamics(view, prices, bids, 1.0, 0.05, 5)
    got = lm.run_price_dynamics(view, [0], [1, 3], 1, 0.05, np.int64(5))
    assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want))
    assert prices.tolist() == [0.0] and bids.tolist() == [1.0, 3.0]
    hist, exc = lm.run_price_dynamics(view, prices, bids, 1.0, 0.05, 0)
    assert hist.tolist() == [[0.0]] and exc.shape == (0, 1)


@pytest.mark.parametrize("name, prices, bids", [
    ("bids", [0.0], [1.3]),  # one bid for two lines would broadcast
    ("bids", [0.0], [1.3, 0.7, 1.0]),
    ("bids", [0.0], [[1.3, 0.7]]),
    ("prices", [0.0, 0.0, 0.0], [1.3, 0.7]),
    ("prices", 0.0, [1.3, 0.7]),
])
def test_price_dynamics_reject_a_wrong_length(name, prices, bids):
    """One price per edge and one bid per operator of the view, else InputMismatchError, not numpy's error."""
    with pytest.raises(lm.InputMismatchError, match=rf"price dynamics of pool 'k0': {name} has shape"):
        lm.run_price_dynamics(_frozen_bid_view(), prices, bids, 1.0, 0.05, 5)


@pytest.mark.parametrize("bad", [np.nan, -1.0, np.inf])
@pytest.mark.parametrize("name", ["prices", "bids"])
def test_price_dynamics_reject_a_negative_or_non_finite_entry(name, bad):
    """A NaN, negative or infinite price or bid is bad input, not a run that returns zeros."""
    args = {"prices": np.array([0.0]), "bids": np.array([1.3, 0.7])}
    args[name][-1] = bad
    with pytest.raises(lm.InputMismatchError, match=rf"{name} holds a negative or non-finite entry"):
        lm.run_price_dynamics(_frozen_bid_view(), args["prices"], args["bids"], 1.0, 0.05, 5)


@pytest.mark.parametrize("name, value, message", [
    ("steps", -1, "steps must be a whole number of at least 0"),
    ("steps", 2.5, "steps must be a whole number of at least 0"),
    ("steps", True, "steps must be a whole number of at least 0"),
    ("eta", -0.05, "eta must be positive and finite"),
    ("eta", 0.0, "eta must be positive and finite"),
    ("eta", np.inf, "eta must be positive and finite"),
    ("eta", np.nan, "eta must be positive and finite"),
    ("eta", "0.05", "eta must be a real number"),
    ("share", -1.0, "share must be finite and nonnegative"),
    ("share", np.nan, "share must be finite and nonnegative"),
    ("share", np.inf, "share must be finite and nonnegative"),
    ("share", True, "share must be a real number"),
])
def test_price_dynamics_reject_a_bad_scalar(name, value, message):
    """steps is a whole number of at least 0, eta positive and finite, the share finite and at least 0.

    A bad eta or share raises one message for either fault, naming the input and its interval.
    """
    args = {"share": 1.0, "eta": 0.05, "steps": 5, name: value}
    if name != "steps":
        message = re.escape(f"{name} must be a real number in {'(0, inf)' if name == 'eta' else '[0, inf)'}, got {value!r}")
    with pytest.raises(ValueError, match=message):
        lm.run_price_dynamics(_frozen_bid_view(), np.zeros(1), np.array([1.3, 0.7]), **args)


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
    stop no earlier than the first refresh boundary.  A warm state at its
    own share that was not cleared on these capacities (its overload or
    price * |excess| at its own frequencies above _ABS_TOL) starts with each
    priced edge whose load misses its supply by more than _ABS_TOL at its
    price times sqrt(load / supply).  A warm state's closed edges start at
    zero.  Then each line of a warm state that can run and bids, on a path
    no edge prices, has its bid charged to its neck, as a cold start
    charges every bid, and so has each such line at every refresh boundary,
    after the re-bid.  A line that cannot run re-bids as if valued at zero.

    The loop runs on the view restricted to the pool's own rows, the edges
    some line uses, so it sums path prices and loads over those rows, as the
    engine does; every other edge is returned at price zero.
    """
    eta = view.price_eta if cfg.price_eta is None else cfg.price_eta
    full = view
    own = np.flatnonzero(view.incidence.any(axis=1))
    view = dataclasses.replace(view, edge_ids=tuple(view.edge_ids[e] for e in own), capacity=view.capacity[own],
                               incidence=view.incidence[own], own_edges=np.arange(len(own)))
    period = cfg.bid_refresh_period
    # each line's bid is charged evenly to the edges of its line with the
    # smallest capacity / crowd, its neck
    supply = view.capacity * share
    crowd = view.incidence.sum(axis=1)
    charge = np.zeros((view.n_edges, view.n_lops))
    fair = np.zeros(view.n_lops)
    for p, idx in enumerate(line_edges(view)):
        ratio = view.capacity[idx] / crowd[idx]
        fair[p] = ratio.min()
        neck = idx[ratio == fair[p]]
        charge[neck, p] = 1.0 / len(neck)
    coefficients = np.where(fair > 0.0, coefficients, 0.0)

    def charge_waiting(prices, bids):
        waiting = (bids > 0.0) & (fair > 0.0) & ~(view.incidence.T @ prices > 0.0)
        if not waiting.any():
            return prices
        mass = charge @ np.where(waiting, bids, 0.0)
        return prices + np.where(supply > 0.0, mass / np.where(supply > 0.0, supply, 1.0), 0.0)

    if warm is None:
        # every edge no neck includes opens unpriced
        bids = coefficients / 2.0 * np.sqrt(share * fair)
        mass = charge @ bids
        prices = np.where(mass > 0.0, mass / np.where(mass > 0.0, supply, 1.0), 0.0)
        first_stop = 0
    else:
        ratio = share / warm.share
        prices = warm.prices[own] * ratio ** -0.5
        prices[view.capacity == 0.0] = 0.0
        bids = warm.bids * ratio ** 0.5
        first_stop = period if ratio != 1.0 else 0
        if ratio == 1.0:
            loads = view.incidence @ warm.freqs
            excess = loads - supply
            if excess.max(initial=0.0) > _ABS_TOL or (prices * np.abs(excess)).max(initial=0.0) > _ABS_TOL:
                for e in range(view.n_edges):
                    if prices[e] > 0.0 and abs(excess[e]) > _ABS_TOL and supply[e] > 0.0:
                        prices[e] *= math.sqrt(loads[e] / supply[e])
        prices = charge_waiting(prices, bids)
    freqs, mu = reference_allocate(view, prices, bids, share)
    st = lm.PoolMarketState(view.pool_id, view.edge_ids, view.lop_ids, prices, bids, freqs, share)
    iters = bid_updates = 0
    res = reference_residuals(view, coefficients, st)
    budget = single_pool._MAX_PASSES * period
    while not (res.converged and iters % period == 0 and iters >= first_stop) and iters < budget:
        excess = view.incidence @ st.freqs - view.capacity * share
        st.prices = np.maximum(0.0, st.prices + eta * excess)
        iters += 1
        st.freqs, mu = reference_allocate(view, st.prices, st.bids, share)
        if iters % period == 0:
            skip_mask = ~(mu > 0.0)
            best = coefficients ** 2 / (4.0 * np.where(skip_mask, 1.0, mu))
            new_bids = np.where(skip_mask, st.bids, best)
            if np.any(np.abs(new_bids - st.bids) > _REL_TOL * st.bids):
                bid_updates += 1
            st.bids = new_bids
            st.prices = charge_waiting(st.prices, st.bids)
            st.freqs, mu = reference_allocate(view, st.prices, st.bids, share)
        res = reference_residuals(view, coefficients, st)
    converged = res.converged and iters % period == 0 and iters >= first_stop
    prices, st.edge_ids, st.prices = st.prices, full.edge_ids, np.zeros(full.n_edges)
    st.prices[own] = prices
    return st, iters, bid_updates, converged, res


def assert_same_run(view, coefficients, share, cfg, warm=None):
    got = _run_pool(view, coefficients, share, warm, cfg)
    st, iters, bid_updates, converged, res = reference_run_pool(view, coefficients, share, cfg, warm)
    assert (got.iterations, got.bid_updates, got.converged) == (iters, bid_updates, converged)
    for name in ("prices", "bids", "freqs"):
        assert getattr(got.state, name).tobytes() == getattr(st, name).tobytes(), name
    assert got.residuals == res
    return got


def test_tiny_warm_bid_counts_its_update_without_overflow():
    """A re-bid from a bid of 1e-200 counts as a bid update, and nothing overflows.

    Each edge is priced 1e-130 and cleared by the line running on it alone,
    so no step moves a price in the first pass, and the line of bid 1e-200
    crossing both re-bids 2**2 / (4 * 2e-130) = 5e129 at its boundary, about
    5e329 times its old bid, past the float range: the count compares the
    change with _REL_TOL times the old bid and divides by nothing.
    """
    net = lm.Network(["n0", "n1", "n2"], [lm.Edge("e0", "n0", "n1", 5.0), lm.Edge("e1", "n1", "n2", 5.0)])
    pools = lm.PoolSystem(["k0"], {("lop0", "k0"): lm.Line(("e0", "e1")), ("lop1", "k0"): lm.Line(("e0",)),
                                   ("lop2", "k0"): lm.Line(("e1",))})
    view = lm.compile_pool(net, pools, "k0")
    price = 1e-130
    bids = np.array([1e-200, 5.0 * price, 5.0 * price])
    warm = lm.PoolMarketState("k0", view.edge_ids, view.lop_ids, np.full(2, price), bids,
                              bids / view.incidence.T.dot(np.full(2, price)), 1.0)
    got = assert_same_run(view, np.array([2.0, 3.0, 3.0]), 1.0, lm.DynamicsConfig(), warm)
    assert got.converged and got.bid_updates >= 1


def _two_line_path():
    """The path a-b-c-d, capacities 4, 6 and 5, with lines (e0, e1) and (e1, e2) valued 2 and 3."""
    net = lm.Network(["a", "b", "c", "d"], [lm.Edge("e0", "a", "b", 4.0), lm.Edge("e1", "b", "c", 6.0),
                                            lm.Edge("e2", "c", "d", 5.0)])
    pools = lm.PoolSystem(["k0"], {("lop0", "k0"): lm.Line(("e0", "e1")), ("lop1", "k0"): lm.Line(("e1", "e2"))})
    table = lm.UtilityTable({("lop0", "k0"): lm.UtilitySpec(2.0), ("lop1", "k0"): lm.UtilitySpec(3.0)})
    return net, pools, table


def test_rebid_against_a_vanishing_path_price_allocates_without_overflow():
    """An uncertified re-bid against a path price near zero is allocated its cap, not an overflow.

    A warm state at its own share, every price 0 and both bids 1e-200, on a
    path a-b-c-d whose two lines share e1: the opening charges both bids to
    e1, so each path opens priced at about 3e-201, and the first pass's
    re-bid offers 3e200 and 6.75e200 against it.  Divided unguarded, that offer
    overflows (the suite fails on the warning); the quotient was clipped to
    the cap, so the run is unchanged: it converges in 120 price updates.
    """
    net, pools, table = _two_line_path()
    warm = copy.deepcopy(lm.run_mechanism(net, pools, table).state)
    st = warm.pool_states["k0"]
    st.prices[:] = 0.0
    st.bids[:] = 1e-200
    res = lm.run_mechanism(net, pools, table, warm=warm)
    assert res.converged and res.price_updates == {"k0": 120}
    assert lm.mechanism_kkt(net, pools, table, res.state).max_scaled() <= 0.1


def test_warm_opening_against_a_vanishing_path_price_allocates_without_overflow():
    """A warm opening allocates through the boundary's guard: offers of 1e200 over prices of 1e-200 buy their cap.

    The cleared state of the path a-b-c-d, every price set to 1e-200
    and both bids to 1e200, restarts warm at its own share.  The opening
    divides each offer by a path price of 2e-200; unguarded, that overflows
    (the suite fails on the warning), while the guard reads the price as
    the offer over 2**1000, so the offer buys its cap.  The run converges
    in 110 price updates and certifies.
    """
    net, pools, table = _two_line_path()
    warm = copy.deepcopy(lm.run_mechanism(net, pools, table).state)
    st = warm.pool_states["k0"]
    st.prices[:] = 1e-200
    st.bids[:] = 1e200
    res = lm.run_mechanism(net, pools, table, warm=warm)
    assert res.converged and res.price_updates == {"k0": 110}
    assert lm.mechanism_kkt(net, pools, table, res.state).max_scaled() <= 0.1


def _one_edge_view():
    """One edge of capacity 4 carrying one line."""
    net = lm.Network(["u", "v"], [lm.Edge("e1", "u", "v", 4.0)])
    return lm.compile_pool(net, lm.PoolSystem(["k0"], {("lop0", "k0"): lm.Line(("e1",))}), "k0")


def test_one_edge_warm_opening_at_a_vanishing_price_converges():
    """A lone edge priced 1e-300 under a bid of 1e10 opens at its cap and converges, with no overflow.

    The state is cleared at its own share (load 4 on supply 4), so it opens
    as it is, and 1e10 / 1e-300 would overflow at the opening allocation.
    """
    view = _one_edge_view()
    warm = lm.PoolMarketState("k0", view.edge_ids, view.lop_ids, np.array([1e-300]), np.array([1e10]),
                              np.array([4.0]), 1.0)
    got = _run_pool(view, np.array([2.0]), 1.0, warm, lm.DynamicsConfig(price_eta=0.01))
    assert got.converged and got.iterations == 50


def test_price_dynamics_against_a_vanishing_price_allocate_without_overflow():
    """run_price_dynamics reads its path prices through the pool run's guard.

    A lone edge of capacity 4 priced 1e-300 under a frozen bid of 1e10: the
    line buys its cap, 1.25 times the capacity, at both steps, so the excess
    is 1 and the price rises by eta a step, where 1e10 / 1e-300 would
    overflow.
    """
    hist, exc = lm.run_price_dynamics(_one_edge_view(), [1e-300], [1e10], 1.0, 0.01, 2)
    assert hist[:, 0].tolist() == [1e-300, 0.01, 0.02] and exc[:, 0].tolist() == [1.0, 1.0]


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
            cleared = _run_pool(view, coeffs, 0.5, None, cfg)
            assert cleared.converged
            got = assert_same_run(view, coeffs, 0.5 * scale, cfg, warm=cleared.state)
            assert got.converged and got.iterations >= cfg.bid_refresh_period
            assert cleared.state.share == 0.5  # the warm state itself is untouched


def _shocked_grid(k1_baseline, kind, seed=0):
    """A cleared one-pool 7x12 grid's baseline and the grid after a 50% `kind` shock on one priced edge."""
    net, pools, table, base = k1_baseline(seed)
    spec = lm.DisruptionSpec(kind, 1, 0.5, seed=seed * 7 + 1)
    return net, pools, table, base, lm.apply_disruption(net, spec, lm.congested_edges(base.state))


@pytest.mark.parametrize("kind", ["reduce", "increase"])
def test_warm_state_reopens_a_moved_edge_at_its_half_homogeneous_price(k1_baseline, monkeypatch, kind):
    """A warm state not cleared on these capacities opens the edge the shock moved at p * sqrt(load / supply),
    its load at the warm frequencies over its new supply, and every other edge at its warm price."""
    net, pools, table, base, shocked = _shocked_grid(k1_baseline, kind)
    (k,) = pools.pool_ids
    warm = base.state.pool_states[k]
    view = lm.compile_pool(shocked, pools, k)
    (moved,) = np.flatnonzero(view.capacity != net.capacity_vector())
    assert warm.prices[moved] > 0.0
    openings = []  # the own-edge prices each price step starts from; the first is the opening's

    def step(prices, *rest, _fn=single_pool.price_step):
        openings.append(prices.copy())
        return _fn(prices, *rest)

    monkeypatch.setattr(single_pool, "price_step", step)
    got = _run_pool(view, table.coefficients_for(view), warm.share, warm, instances.GRID_CFG.inner)
    assert got.converged and got.iterations > 0
    own = view.own_edges
    opening = np.zeros(view.n_edges)
    opening[own] = openings[0]
    loads = np.zeros(view.n_edges)
    loads[own] = view.incidence[own] @ warm.freqs
    supply = view.capacity * warm.share
    expected = warm.prices.copy()
    expected[moved] *= np.sqrt(loads[moved] / supply[moved])
    assert opening.tobytes() == expected.tobytes()
    # a cut raises the price, a rise lowers it, by the square root of the ratio
    assert (expected[moved] > warm.prices[moved]) == (kind == "reduce")
    assert expected[moved] / warm.prices[moved] == pytest.approx(1.0 / math.sqrt(view.capacity[moved] / net.capacity_vector()[moved]), rel=0.01)


def test_warm_restart_returns_a_closed_edge_at_price_zero():
    """A priced edge closed under a warm state has no supply to re-price against and no load to
    move its price: the restart opens and returns it at zero, as the cold run does, and the pool
    still clears."""
    net = lm.Network(["u", "v", "w"], [lm.Edge("e1", "u", "v", 4.0), lm.Edge("e2", "v", "w", 2.0)])
    pools = lm.PoolSystem(["k0"], {("lop0", "k0"): lm.Line(("e1", "e2")), ("lop1", "k0"): lm.Line(("e1",))})
    table = lm.UtilityTable({("lop0", "k0"): lm.UtilitySpec(3.0), ("lop1", "k0"): lm.UtilitySpec(1.0)})
    warm = lm.run_mechanism(net, pools, table).state
    assert warm.pool_states["k0"].price_map()["e2"] > 0.0
    closed = net.with_capacities({"e2": 0.0})
    res = lm.run_mechanism(closed, pools, table, warm=warm)
    assert res.converged
    assert res.state.pool_states["k0"].price_map()["e2"] == 0.0
    assert lm.run_mechanism(closed, pools, table).state.pool_states["k0"].price_map()["e2"] == 0.0
    view = lm.compile_pool(closed, pools, "k0")
    assert_same_run(view, table.coefficients_for(view), 1.0, lm.DynamicsConfig(), warm.pool_states["k0"])
    assert res.state.pool_states["k0"].freq_map()["lop0"] == 0.0
    assert lm.mechanism_kkt(closed, pools, table, res.state).max_scaled() <= 0.1
    # a line that cannot run is not a silent one: with lop0's bid zeroed the
    # restart still resumes the state warm, as the reference does, with no
    # update
    dead = res.state.pool_states["k0"].copy()
    dead.bids[dead.lop_ids.index("lop0")] = 0.0
    again = assert_same_run(view, table.coefficients_for(view), res.state.shares.share("k0"), lm.DynamicsConfig(), dead)
    assert again.converged and again.iterations == 0


@pytest.mark.parametrize("case", ["three edges", "chain 1 e0"])
def test_reopened_edge_charges_its_waiting_bids_to_their_necks(case):
    """A closed edge returns at price zero, and a line through it keeps its bid, so reopening the
    edge leaves that line bidding on an unpriced path.  Allocated its ceiling, a line alone on its
    neck loads it exactly to supply, and no price step would ever price its path.  The warm
    opening charges each such bid to its line's neck, as the cold start does: the restart clears
    and certifies, as the reference does, bit for bit.  In "three edges" lop0 runs over e1 and the
    wider e2, so its neck is e1 alone, and lop1 on e3 keeps the pool's share while e1 is closed."""
    if case == "three edges":
        net = lm.Network(["u", "v", "w", "x"], [
            lm.Edge("e1", "u", "v", 4.0), lm.Edge("e2", "v", "w", 8.0), lm.Edge("e3", "w", "x", 2.0)
        ])
        pools = lm.PoolSystem(["k0"], {("lop0", "k0"): lm.Line(("e1", "e2")), ("lop1", "k0"): lm.Line(("e3",))})
        table = lm.UtilityTable({("lop0", "k0"): lm.UtilitySpec(3.0), ("lop1", "k0"): lm.UtilitySpec(1.0)})
        edge = "e1"
    else:
        (net, pools, table), edge = instances.chain_instance(1), "e0"
    base = lm.run_mechanism(net, pools, table)
    closed = lm.run_mechanism(net.with_capacities({edge: 0.0}), pools, table, warm=base.state)
    assert closed.converged
    idle = 0
    for k in pools.pool_ids:
        view = lm.compile_pool(net, pools, k)
        st = closed.state.pool_states[k]
        mu = view.incidence.T @ st.prices
        idle += int(np.sum((st.bids > 0.0) & (view.bottleneck > 0.0) & (mu == 0.0)))
        got = assert_same_run(view, table.coefficients_for(view), closed.state.shares.share(k), lm.DynamicsConfig(), st)
        assert got.converged
    assert idle > 0
    reopened = lm.run_mechanism(net, pools, table, warm=closed.state)
    assert reopened.converged
    assert lm.mechanism_kkt(net, pools, table, reopened.state).max_scaled() <= 0.1


def test_a_line_that_cannot_run_bids_nothing():
    """A line through a closed edge buys nothing, so it re-bids as if valued at zero.  On chain 7
    with e0 closed, lop1 and lop2 of k0 cross e0 and e2, and e2's price decays while they wait; a
    re-bid against it would grow their bids without bound (to 252 and 274 at the closed run's
    end), and the reopened restart would charge those bids to e2 and spend k0's whole budget
    working the price down.  Their bids fall to 0 at the first re-bid instead, as the reference
    loop's do, bit for bit, and the reopened restart clears."""
    net, pools, table = instances.chain_instance(7)
    base = lm.run_mechanism(net, pools, table)
    shut = net.with_capacities({"e0": 0.0})
    closed = lm.run_mechanism(shut, pools, table, warm=base.state)
    assert closed.converged and closed.bid_updates == 1
    view = lm.compile_pool(shut, pools, "k0")
    dead = view.bottleneck == 0.0
    assert [view.lop_ids[p] for p in np.flatnonzero(dead)] == ["lop1", "lop2"]
    assert (closed.state.pool_states["k0"].bids[dead] == 0.0).all()
    warm = base.state.pool_states["k0"]
    got = assert_same_run(view, table.coefficients_for(view), warm.share, lm.DynamicsConfig(), warm)
    assert got.converged and (got.state.bids[dead] == 0.0).all()
    reopened = lm.run_mechanism(net, pools, table, warm=closed.state)
    assert reopened.converged
    assert lm.mechanism_kkt(net, pools, table, reopened.state).max_scaled() <= 0.1


def test_a_path_that_falls_unpriced_is_charged_at_the_next_boundary():
    """A price can fall to zero within a pass.  On a lone edge whose bid buys almost nothing, the
    price steps 0.2 -> 0.042 -> 0, and the line, allocated its ceiling, then loads the edge exactly
    to supply: no price step would ever price its path again, and the line keeps its bid there.
    The boundary charges that bid to the edge, as a warm opening does, so the run clears, as the
    reference loop does, bit for bit."""
    net, pools, _ = instances.single_edge()
    view = lm.compile_pool(net, pools, "k0")
    warm = lm.PoolMarketState("k0", view.edge_ids, view.lop_ids, np.array([0.2]), np.array([0.01]), np.array([4.0]), 1.0)
    got = assert_same_run(view, np.array([2.0]), 1.0, lm.DynamicsConfig(price_eta=0.04), warm)
    assert got.converged and got.state.prices[0] > 0.0


@pytest.mark.parametrize("kind", ["reduce", "increase"])
def test_reopened_warm_loop_matches_eager_reference(k1_baseline, kind):
    """The warm restart on a shocked grid, from its re-opened prices to its stop, bit for bit."""
    for seed in instances.GRID_SEEDS_K1[:2]:
        _, pools, table, base, shocked = _shocked_grid(k1_baseline, kind, seed)
        (k,) = pools.pool_ids
        view = lm.compile_pool(shocked, pools, k)
        got = assert_same_run(view, table.coefficients_for(view), 1.0, instances.GRID_CFG.inner, base.state.pool_states[k])
        assert got.converged and got.iterations > 0


@pytest.mark.parametrize("kind", ["reduce", "increase"])
def test_reopened_restart_does_not_depend_on_edge_or_line_order(k1_baseline, kind):
    """The same shocked instance and warm state, with edges and lines in another order, restart alike."""
    _, pools, table, base, shocked = _shocked_grid(k1_baseline, kind)
    rng = np.random.default_rng(11)
    order = rng.permutation(len(shocked.edges))
    keys = [list(pools.lines)[i] for i in rng.permutation(len(pools.lines))]
    p_net = lm.Network(shocked.nodes, [shocked.edges[i] for i in order])
    p_pools = lm.PoolSystem(pools.pool_ids, {key: pools.lines[key] for key in keys})
    p_warm = dataclasses.replace(base.state, pool_states={
        k: dataclasses.replace(st, edge_ids=p_net.edge_ids, prices=st.prices[order])
        for k, st in base.state.pool_states.items()
    })
    runs = [
        lm.run_mechanism(net, ps, table, instances.GRID_CFG, warm=warm)
        for net, ps, warm in ((shocked, pools, base.state), (p_net, p_pools, p_warm))
    ]
    counts = [(r.price_updates, r.bid_updates, r.f_updates, r.converged) for r in runs]
    assert counts[0] == counts[1]
    assert counts[0][3]
    assert 0 < sum(counts[0][0].values())


def test_moved_share_runs_to_a_refresh_boundary():
    """A rescaled state is a prediction: even one that passes the residual check re-clears."""
    net, pools, table = instances.two_lops_one_edge()
    view = lm.compile_pool(net, pools, "k0")
    coeffs = table.coefficients_for(view)
    cfg = lm.DynamicsConfig()
    cleared = _run_pool(view, coeffs, 0.5, None, cfg).state
    assert _run_pool(view, coeffs, 0.5, cleared, cfg).iterations == 0

    share = 0.5 * 1.001
    ratio = share / cleared.share
    rescaled = cleared.copy()
    rescaled.prices *= ratio ** -0.5
    rescaled.bids *= ratio ** 0.5
    rescaled.freqs, _ = allocate(view, rescaled.prices, rescaled.bids, share)
    rescaled.share = share
    assert residuals_of(view, coeffs, rescaled).converged
    moved = _run_pool(view, coeffs, share, cleared, cfg)
    assert moved.converged
    assert moved.iterations >= cfg.bid_refresh_period


def test_warm_state_with_a_silent_line_cold_starts_the_pool():
    """A line that can run but holds no bid makes its pool start afresh."""
    net, pools, table = instances.chain_instance(3)
    view = lm.compile_pool(net, pools, "k0")
    coeffs = table.coefficients_for(view)
    cfg = lm.DynamicsConfig()
    cleared = _run_pool(view, coeffs, 0.5, None, cfg)
    silent = cleared.state.copy()
    silent.bids[0] = 0.0
    got = _run_pool(view, coeffs, 0.5, silent, cfg)
    assert got.iterations == cleared.iterations
    assert got.state.bids.tobytes() == cleared.state.bids.tobytes()


def test_budget_exit_reports_final_residuals(monkeypatch):
    """A run that spends its passes stops on a refresh boundary, after its re-bid, and reports that state."""
    net, pools, table = instances.grid_instance(0, 2)
    view = lm.compile_pool(net, pools, pools.pool_ids[0])
    coeffs = table.coefficients_for(view)
    monkeypatch.setattr(single_pool, "_MAX_PASSES", 4)
    got = assert_same_run(view, coeffs, 0.5, lm.DynamicsConfig(price_eta=1e-3))
    assert got.iterations == 4 * lm.DynamicsConfig.bid_refresh_period and not got.converged
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
    """Both the unmasked and the masked paths give the reference formulas' bytes: the bid refresh,
    the bid terms and the neck charge, which divides unmasked when no edge is closed."""
    rng = np.random.default_rng(2025)
    seen = {"every path priced": 0, "unpriced path": 0, "every line bids": 0, "zero bid": 0, "negative bid": 0,
            "every edge open": 0, "closed edge": 0}
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
        if np.all(mu > 0.0):
            # a caller that vouches for every path priced gets the same bytes
            assert lm.refresh_bids(coeffs, mu, bids, True).tobytes() == want_bids.tobytes(), trial

        offers, free = _bid_terms(bids, ceil)
        assert offers.tobytes() == np.where(bids > 0.0, bids, 0.0).tobytes(), trial
        assert free.tobytes() == np.where(bids > 0.0, ceil, 0.0).tobytes(), trial

        # the neck charge: some trials close edges, whose supply is zero
        edges = int(rng.integers(1, 8))
        neck = rng.random((edges, n)) < 0.4
        neck[rng.integers(0, edges, n), np.arange(n)] = True
        supply = rng.uniform(0.1, 5.0, edges) * (rng.random(edges) < (0.7 if mixed else 2.0))
        mass = (neck / neck.sum(axis=0)).dot(ceil)
        want = np.where(supply > 0.0, mass / np.where(supply > 0.0, supply, 1.0), 0.0)
        assert _neck_prices(neck / neck.sum(axis=0), ceil, supply).tobytes() == want.tobytes(), trial

        seen["every path priced" if np.all(mu > 0.0) else "unpriced path"] += 1
        seen["every line bids"] += int(bool(np.all(bids > 0.0)))
        seen["zero bid"] += int(np.sum(bids == 0.0))
        seen["negative bid"] += int(np.sum(bids < 0.0))
        seen["every edge open" if np.all(supply > 0.0) else "closed edge"] += 1
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


MAXIMUM_CASES = {
    **{case: values for case, (values, _) in POSITIVITY_CASES.items()},
    "only -0.0": [-0.0],
    "-0.0 after 0.0": [0.0, -0.0],
    "0.0 after -0.0": [-0.0, 0.0],
    "-0.0 among negatives": [-2.0, -0.0, -1.0],
    "all negative": [-1.0, -3.0, -2.0],
    "only -inf": [-np.inf],
    "+inf and -inf": [-np.inf, np.inf],
}


@pytest.mark.parametrize("case", list(MAXIMUM_CASES))
def test_argmax_maximum_is_max_with_zero_initial(case):
    """_max_or_zero, which the stop test and the refresh read, is float(x.max(initial=0.0)) bit for bit."""
    x = np.array(MAXIMUM_CASES[case], dtype=float)
    got, want = _max_or_zero(x), float(x.max(initial=0.0))
    assert type(got) is float
    assert np.float64(got).tobytes() == np.float64(want).tobytes()


def _record_allocations(monkeypatch):
    """Patch the allocation seam to record each price-loop step.

    A step is recorded as (priced, uncapped, path prices, allocation, cap):
    its priced flag, whether it skipped the cap (cap=None), and the cap its
    run allocates under, the one the run's opening allocation passed.  The
    steps of a run come in passes of bid_refresh_period: its plain steps,
    then the allocation after its re-bid, which always passes the cap.
    Each allocation of a step follows a price step; the opening's, cold
    (cold_start's) or warm (the price loop's), follows none since the last
    allocation, so it is not recorded.
    """
    steps = []
    run_cap = [None]
    stepped = [False]  # whether a price step ran since the last allocation
    allocate_frequencies, price_step = single_pool.allocate_frequencies, single_pool.price_step

    def recorded(*args):
        freqs = allocate_frequencies(*args)
        if args[3] is not None:
            run_cap[0] = args[3]
        if stepped[0]:
            steps.append((args[4], args[3] is None, args[0].copy(), freqs.copy(), run_cap[0]))
        stepped[0] = False
        return freqs

    def stepping(*args):
        stepped[0] = True
        return price_step(*args)

    monkeypatch.setattr(single_pool, "allocate_frequencies", recorded)
    monkeypatch.setattr(single_pool, "price_step", stepping)
    return steps


def test_certified_passes_price_every_path(monkeypatch, k1_baseline, k2_baseline):
    """Every step and every re-bid of a pass the certificate covers sees every path priced, and
    every step of an uncapped pass allocates below its cap.

    The runs are the 20 chains, the 7x12 one- and two-pool grids at seeds 0
    to 2 cold, and their warm restarts after criterion 6's 10% shocks (the
    mixed shock only where two edges are congested).  The shares of plain
    steps that ran certified, and certified and uncapped, are printed in the
    terminal summary, so a change that narrows either certificate shows.
    """
    # the baselines first, so the steps recorded are the same whichever test
    # ran them before
    baselines = [baseline(seed) for baseline in (k1_baseline, k2_baseline) for seed in range(3)]
    steps = _record_allocations(monkeypatch)
    rebids = []  # each boundary re-bid's priced flag and path prices
    refresh_bids = single_pool.refresh_bids

    def recorded(*args):
        rebids.append((args[3], args[1].copy()))
        return refresh_bids(*args)

    monkeypatch.setattr(single_pool, "refresh_bids", recorded)
    overloads = []  # whether each stop pre-check, at an opening or a boundary, met an overload
    may_stop = single_pool._may_stop

    def checked(prices, excess):
        overloads.append(single_pool._max_or_zero(excess) > single_pool._ABS_TOL)
        return may_stop(prices, excess)

    monkeypatch.setattr(single_pool, "_may_stop", checked)
    for seed in range(20):
        lm.run_mechanism(*instances.chain_instance(seed))
    chain_steps, chain_checks = len(steps), len(overloads)
    for seed, (net, pools, table, base) in zip(itertools.cycle(range(3)), baselines):
        assert lm.run_mechanism(net, pools, table, instances.GRID_CFG).converged
        mixed = len(lm.congested_edges(base.state)) >= 2
        for kind in ("reduce", "increase", "mixed") if mixed else ("reduce", "increase"):
            spec = lm.DisruptionSpec(kind=kind, edge_count=1, magnitude=0.1, seed=seed * 7 + 1)
            rec = lm.run_recovery_experiment(
                net, pools, table, spec, instances.GRID_CFG, baseline=base, modes=("warm",)
            ).warm
            assert rec.status == "converged" and rec.total_price_updates > 0
    certified = [mu for priced, _, mu, _, _ in steps if priced]
    assert all(_positive(mu) for mu in certified)
    certified_rebids = [mu for priced, mu in rebids if priced]
    assert all(_positive(mu) for mu in certified_rebids)
    # a step skips the cap only in a certified pass, and its allocation stays
    # below the cap it skipped
    uncapped = [(priced, freqs, cap) for priced, skipped, _, freqs, cap in steps if skipped]
    assert all(priced and np.all(freqs < cap) for priced, freqs, cap in uncapped)
    # most steps and most re-bids of these runs are covered
    assert len(certified) > len(steps) / 2
    assert len(certified_rebids) > len(rebids) / 2
    assert uncapped

    period = lm.DynamicsConfig.bid_refresh_period
    shares, failed = [], []
    for name, part, checks in (("20 chains", steps[:chain_steps], overloads[:chain_checks]),
                               ("7x12 grids", steps[chain_steps:], overloads[chain_checks:])):
        plain = [(priced, skipped) for i, (priced, skipped, *_) in enumerate(part) if i % period != period - 1]
        shares.append(f"{name} {sum(p for p, _ in plain) / len(plain):.1%} / {sum(u for _, u in plain) / len(plain):.1%} "
                      f"of {len(plain):,}")
        failed.append(f"{name} {sum(checks):,} of {len(checks):,}")
    report.note(f"refresh-pass certificates, plain steps certified / uncapped: {', '.join(shares)}; "
                f"stop pre-checks failed by the overload: {', '.join(failed)} "
                "(grids at seeds 0-2, cold and warm after 10% shocks)")


def test_uncertified_pass_takes_the_masked_allocation(monkeypatch):
    """A pass the certificate cannot cover allocates with the zero-price mask, as the reference does.

    A warm state prices a lone edge at 5 with a bid that buys almost
    nothing, so the price falls by eta * supply = 0.16 a step.  The first
    three passes open at 5, 3.4 and 1.8, above floor = period * eta * supply
    = 1.6, and are certified; the fourth opens at 0.2 and its price reaches
    zero on its second step, where the line must get its ceiling, not the
    overload cap an unmasked division by zero would give.  At the pass's
    boundary the line, bidding on an unpriced path, is charged to its edge.
    """
    steps = _record_allocations(monkeypatch)
    net = lm.Network(["u", "v"], [lm.Edge("e1", "u", "v", 4.0)])
    pools = lm.PoolSystem(["k0"], {("lop0", "k0"): lm.Line(("e1",))})
    view = lm.compile_pool(net, pools, "k0")
    warm = lm.PoolMarketState("k0", view.edge_ids, view.lop_ids, np.array([5.0]), np.array([0.01]), np.array([4.0]), 1.0)
    monkeypatch.setattr(single_pool, "_MAX_PASSES", 4)
    got = assert_same_run(view, np.array([0.1]), 1.0, lm.DynamicsConfig(price_eta=0.04), warm)
    assert not got.converged and got.state.freqs[0] == 4.0
    period = lm.DynamicsConfig.bid_refresh_period
    passes = [steps[i][0] for i in range(0, len(steps), period)]
    seen = {
        "certified pass": passes.count(True),
        "uncertified pass": passes.count(False),
        "masked allocation": sum(not priced and not _positive(mu) for priced, _, mu, _, _ in steps),
    }
    assert passes == [True, True, True, False] and min(seen.values()) > 0, seen


def test_pass_certificates_hold_at_their_bounds(monkeypatch):
    """Passes that open at the bounds of either certificate run as the eager reference does, bit for bit.

    Each trial draws a pool on a path of 2 to 8 edges with 2 to 5 lines, each
    a run of consecutive edges, and a warm state cleared at a quarter of the
    share, so the run rescales it exactly (prices by 1/2, bids by 2) and
    runs at least one pass.  Each own edge opens within a relative 1e-12 of
    floor = period * eta * supply, or up to three times floor; each line's
    offer opens within a relative 1e-12 of cap * lower, lower being the sum
    of price minus floor over the line's edges priced above floor, or well
    below it.  So the first pass falls on either side of both certificates,
    and the run must still give the bytes of the reference loop, which
    masks and caps every allocation.
    """
    rng = np.random.default_rng(37)
    steps = _record_allocations(monkeypatch)
    monkeypatch.setattr(single_pool, "_MAX_PASSES", 2)
    period = lm.DynamicsConfig.bid_refresh_period
    share = 0.5
    seen = {"certified": 0, "uncertified": 0, "uncapped": 0, "certified and capped": 0,
            "certified by a line whose edges are all within 1e-12 of floor": 0,
            "uncapped with an offer within 1e-12 of cap * lower": 0}
    for trial in range(300):
        used = []
        while len(used) < 2:
            starts = rng.integers(0, 8, int(rng.integers(2, 6)))
            spans = [(int(i), int(rng.integers(i + 1, 9))) for i in starts]
            used = sorted(set().union(*(range(i, j) for i, j in spans)))
        net = lm.Network([f"n{t}" for t in range(9)],
                         [lm.Edge(f"e{t}", f"n{t}", f"n{t + 1}", float(rng.uniform(2.0, 10.0))) for t in range(8)])
        lines = {(f"lop{p}", "k0"): lm.Line(tuple(f"e{t}" for t in range(i, j))) for p, (i, j) in enumerate(spans)}
        view = lm.compile_pool(net, lm.PoolSystem(["k0"], lines), "k0")
        n_edges = view.n_edges
        eta = float(rng.uniform(0.005, 0.05))
        floor = period * eta * (view.capacity * share)
        # an edge opens within 1e-12 of floor, half of those within 256 ulps,
        # or at 1 to 3 times floor, or so far above it that a pass moves its
        # price by a relative 1e-10 or less
        kind = rng.integers(0, 4, n_edges)
        near = kind < 2
        prices = floor * np.choose(kind, [1.0 + rng.uniform(-1e-12, 1e-12, n_edges),
                                          1.0 + rng.integers(-256, 257, n_edges) * np.finfo(float).eps,
                                          rng.uniform(1.0, 3.0, n_edges), 10.0 ** rng.uniform(9.0, 13.0, n_edges)])
        lower = view.incidence.T @ np.maximum(prices - floor, 0.0)
        cap = 1.25 * view.bottleneck * share
        # a line offers within 1e-12 of cap * lower, or well below it, or a
        # trace of 1e-20, whose load no price step sees, so that its edges'
        # prices fall by the whole of period * eta * supply in a pass; a line
        # with no edge above floor offers the trace too, since a warm line
        # without a bid would cold-start the pool
        close = rng.random(view.n_lops) < 0.5
        offers = cap * lower * np.where(close, 1.0 + rng.uniform(-1e-12, 1e-12, view.n_lops),
                                        rng.uniform(0.2, 0.9, view.n_lops))
        offers = np.where((offers > 0.0) & (rng.random(view.n_lops) < 0.8), offers, 1e-20)
        warm = lm.PoolMarketState("k0", view.edge_ids, view.lop_ids, 2.0 * prices, 0.5 * offers,
                                  np.zeros(view.n_lops), share / 4)
        first = len(steps)
        assert_same_run(view, rng.uniform(2.0, 5.0, view.n_lops), share, lm.DynamicsConfig(price_eta=eta), warm)
        priced, uncapped = steps[first][:2]
        near_only = ~np.any((view.incidence > 0.0) & ~near[:, None], axis=0)
        seen["certified" if priced else "uncertified"] += 1
        seen["uncapped"] += int(uncapped)
        seen["certified and capped"] += int(priced and not uncapped)
        seen["certified by a line whose edges are all within 1e-12 of floor"] += int(priced and near_only.any())
        seen["uncapped with an offer within 1e-12 of cap * lower"] += int(uncapped and (close & (lower > 0.0)).any())
    assert min(seen.values()) > 0, seen


def test_pool_loop_matches_eager_reference_with_unused_edges(monkeypatch):
    """Pools with an edge no line uses before or among their own edges run as the eager reference does.

    Each trial draws a path of 3 to 9 edges, one of them, not the last,
    unused: every line is a run of consecutive edges on one side of it.
    The pool runs cold at share 0.5, then warm from that state at share
    0.4, for at most 30 refresh passes each.  The engine sums path prices
    and loads over the pool's own edges, and so does the reference, so
    the runs agree byte for byte however the unused edges lie.
    """
    rng = np.random.default_rng(38)
    monkeypatch.setattr(single_pool, "_MAX_PASSES", 30)
    seen = {"unused edge before the own edges": 0, "unused edge among the own edges": 0,
            "converged": 0, "not converged": 0}
    for trial in range(200):
        n = int(rng.integers(3, 10))
        gap = int(rng.integers(0, n - 1))
        sides = [side for side in ((0, gap), (gap + 1, n)) if side[1] > side[0]]
        spans = []
        for _ in range(int(rng.integers(2, 6))):
            lo, hi = sides[int(rng.integers(0, len(sides)))]
            i = int(rng.integers(lo, hi))
            spans.append((i, int(rng.integers(i + 1, hi + 1))))
        net = lm.Network([f"n{t}" for t in range(n + 1)],
                         [lm.Edge(f"e{t}", f"n{t}", f"n{t + 1}", float(rng.uniform(2.0, 10.0))) for t in range(n)])
        lines = {(f"lop{p}", "k0"): lm.Line(tuple(f"e{t}" for t in range(i, j))) for p, (i, j) in enumerate(spans)}
        view = lm.compile_pool(net, lm.PoolSystem(["k0"], lines), "k0")
        assert gap not in view.own_edges
        coeffs = rng.uniform(2.0, 5.0, view.n_lops)
        cfg = lm.DynamicsConfig(price_eta=float(rng.uniform(0.005, 0.05)))
        cold = assert_same_run(view, coeffs, 0.5, cfg)
        warm = assert_same_run(view, coeffs, 0.4, cfg, cold.state)
        seen["unused edge before the own edges" if gap < view.own_edges[0] else "unused edge among the own edges"] += 1
        for got in (cold, warm):
            seen["converged" if got.converged else "not converged"] += 1
    assert min(seen.values()) > 0, seen


def _chain_with_unused_edge(first):
    """Chain 3 with one more edge of capacity 1.0, which no line uses, first or last."""
    net, pools, table = instances.chain_instance(3)
    spare = lm.Edge("spare", "s0", "s1", 1.0)
    edges = (spare, *net.edges) if first else (*net.edges, spare)
    return lm.Network(net.nodes | {"s0", "s1"}, edges), pools, table


@pytest.mark.parametrize("first", [True, False], ids=["first", "last"])
def test_unused_edge_costs_nothing_and_changes_nothing(first):
    """An edge no line uses leaves every run byte for byte as it is, at price 0.

    Each pool runs cold, then warm at a moved share.  Both networks run at
    the step of the one without the edge, given explicitly: the spare edge
    is narrower than any other, so it sets the wide network's default step
    (PoolView.price_eta).
    """
    net, pools, table = instances.chain_instance(3)
    wide, _, _ = _chain_with_unused_edge(first)
    spare = 0 if first else len(net.edges)
    shared = np.arange(len(wide.edges)) != spare
    for k in pools.pool_ids:
        view, wide_view = lm.compile_pool(net, pools, k), lm.compile_pool(wide, pools, k)
        assert spare not in wide_view.own_edges and wide_view.price_eta < view.price_eta
        coeffs = table.coefficients_for(view)
        cfg = lm.DynamicsConfig(price_eta=view.price_eta)
        want = got = None
        for share in (0.5, 0.45):
            want = _run_pool(view, coeffs, share, want.state if want else None, cfg)
            got = _run_pool(wide_view, coeffs, share, got.state if got else None, cfg)
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
        cleared = _run_pool(view, coeffs, 0.5, None, cfg)
        assert cleared.converged
        warm = cleared.state.copy()
        warm.prices[spare] = 3.0
        # at the share it cleared at, the state is the cleared one again
        same = _run_pool(view, coeffs, 0.5, warm, cfg)
        assert same.converged and same.iterations == 0
        assert same.state.prices.tobytes() == cleared.state.prices.tobytes()
        moved = _run_pool(view, coeffs, 0.45, warm, cfg)
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
            got = _run_pool(view, coeffs, 0.5, None, cfg)
            want = reference_residuals(view, coeffs, got.state)
            assert got.residuals == want
            assert residuals_of(view, coeffs, got.state) == want


def test_residuals_match_reference_on_random_states(monkeypatch):
    """The stop test against its reference, and against the certificate on the same state.

    pool_residuals and kkt_report read one kernel (_pool_terms), so the stop
    test's overload and complementarity are the certificate's raw ones, bit
    for bit, and its stationarity is the certificate's scaled one whenever
    their scales agree: every running line's path price at least _TINY,
    and no line that could run idle.
    """
    rng = np.random.default_rng(77)
    views = []
    for seed in range(5):
        net, pools, table = instances.chain_instance(seed)
        views += [(v, table.coefficients_for(v)) for v in (lm.compile_pool(net, pools, k) for k in pools.pool_ids)]
    net, pools, table = instances.grid_instance(0, 2)
    view = lm.compile_pool(net, pools, pools.pool_ids[0])
    views.append((view, table.coefficients_for(view)))
    # lop1 and lop2 of chain 7's k0 cross e0: closed, it leaves them lines
    # that cannot run, so the certificate may compare a state in which some
    # line runs nothing
    net, pools, table = instances.chain_instance(7)
    view = lm.compile_pool(net.with_capacities({"e0": 0.0}), pools, "k0")
    views.append((view, table.coefficients_for(view)))
    seen = {"active on unpriced path": 0, "zero frequency": 0, "every line active and priced": 0,
            "converged": 0, "not converged": 0, "stationarity compared": 0,
            "stationarity compared with a line running nothing": 0}
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
        kkt = kkt_report([view], [coeffs], [freqs], [prices], [share], 1.0)
        assert repr(got.max_excess) == repr(kkt.overload_raw), trial
        assert repr(got.max_complementarity) == repr(kkt.complementarity_raw), trial
        run = freqs > 0.0
        if np.all(mu[run] >= _TINY) and not np.any(~run & (view.bottleneck * share > 0.0)):
            assert repr(got.max_stationarity) == repr(kkt.stationarity_rel), trial
            seen["stationarity compared"] += 1
            seen["stationarity compared with a line running nothing"] += int(not run.all())
        seen["active on unpriced path"] += int(np.sum((freqs > 0.0) & (mu == 0.0)))
        seen["zero frequency"] += int(np.sum(freqs == 0.0))
        # pool_residuals reads such a state without its masks
        seen["every line active and priced"] += int(bool(np.all(freqs > 0.0) and np.all(mu > 0.0)))
        seen["converged" if got.converged else "not converged"] += 1
    assert min(seen.values()) > 0, seen


def test_boundary_precheck_is_necessary_for_the_stop_test(monkeypatch):
    """Whenever pool_residuals converges, _may_stop holds; a NaN or an inf fails both.

    _may_stop decides as the two terms of _clearing_terms tested with <= do,
    though it skips the second term once the first fails.
    """
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
            feas, comp = _clearing_terms(prices, excess)
        assert cheap is (feas <= tol and comp <= tol), trial
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

    def run_pool(view, coefficients, share, warm, cfg):
        res = _run_pool(view, coefficients, share, warm, cfg)
        runs.append((view.n_lops, res.iterations, res.iterations == single_pool._MAX_PASSES * period))
        moved.append(warm is not None and warm.share != share)
        return res

    monkeypatch.setattr(multi_pool, "_run_pool", run_pool)
    period = lm.DynamicsConfig().bid_refresh_period
    res = lm.run_mechanism(*instances.chain_instance(3))
    assert all(n_lops for n_lops, _, _ in runs)
    # two cold runs, one split update, two warm runs rescaled to the new split
    assert res.f_updates == 1 and moved == [False, False, True, True]
    assert all(n >= period for (_, n, _), m in zip(runs, moved) if m)
    assert sum(n for _, n, _ in runs) == sum(res.price_updates.values())
    # chain 0 reaches boundaries whose overload or complementarity still
    # fails, and two grid runs spend their budgets of 3 and 4 passes
    lm.run_mechanism(*instances.chain_instance(0))
    net, pools, table = instances.grid_instance(0, 2)
    view = lm.compile_pool(net, pools, pools.pool_ids[0])
    for max_passes in (3, 4):
        monkeypatch.setattr(single_pool, "_MAX_PASSES", max_passes)
        multi_pool._run_pool(view, table.coefficients_for(view), 0.5, None, lm.DynamicsConfig(price_eta=1e-3))
    updates = sum(n for _, n, _ in runs)
    boundaries = sum(n // period for _, n, _ in runs)
    budget_exits = sum(spent for _, _, spent in runs)
    assert budget_exits == 2
    assert all(n % period == 0 for _, n, _ in runs)
    assert calls["price_step"] == updates
    assert calls["refresh_bids"] == boundaries
    # each pass of a loop ends at a boundary, and the pass that spends the
    # budget skips the pre-check; a run whose share did not move pre-checks
    # its opening too, and a rescaled run, which may not stop there, does not
    assert len(checks) == boundaries - budget_exits + moved.count(False)
    assert not all(checks)
    # one full check per pre-check that passes, one more on a budget exit
    assert calls["pool_residuals"] == sum(checks) + budget_exits
    # one allocation per price update, and one per run before the first
    assert calls["allocate_frequencies"] == updates + len(runs)
