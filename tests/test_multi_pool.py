"""Outer loop: pool costs, split updates, the equal-cost fixed point."""
import numpy as np
import pytest

import linemarket as lm

import instances


def shares2(a=0.5, b=0.5):
    return lm.ProportionVector(("k0", "k1"), np.array([a, b]))


class TestProportionVector:
    def test_uniform(self):
        pv = lm.ProportionVector.uniform(("k0", "k1", "k2"))
        np.testing.assert_allclose(pv.values, 1.0 / 3.0)
        assert pv.share("k1") == pytest.approx(1.0 / 3.0)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            lm.ProportionVector(("k0", "k1"), np.array([1.2, -0.2]))

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError):
            lm.ProportionVector(("k0", "k1"), np.array([0.5, 0.6]))

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            lm.ProportionVector(("k0",), np.array([0.5, 0.5]))

    def test_as_dict(self):
        assert shares2(0.3, 0.7).as_dict() == {"k0": 0.3, "k1": 0.7}


def test_pool_cost_is_capacity_dot_prices():
    caps = np.array([4.0, 2.0])
    assert lm.pool_cost(caps, np.array([0.5, 1.0])) == 4.0
    assert lm.pool_cost(caps, np.array([0.0, 0.0])) == 0.0
    assert lm.pool_cost(caps, np.array([0.0, 3.0])) == 6.0


def test_costs_equal_spread_test():
    assert lm.costs_equal(np.array([4.0, 4.0]), 0.1)
    assert not lm.costs_equal(np.array([6.0, 2.0]), 0.1)
    assert lm.costs_equal(np.array([4.0, 4.2]), 0.1)  # spread 0.2 / mean 4.1
    assert lm.costs_equal(np.array([123.0]), 1e-9)


class TestUpdateProportions:
    def test_costlier_pool_gains(self):
        out = lm.update_proportions(shares2(), np.array([6.0, 2.0]), 0.1, 1e-4)
        # drive (0.5, 0), pre-norm (0.55, 0.5), then renormalized
        np.testing.assert_allclose(out.values, [0.55 / 1.05, 0.5 / 1.05], atol=1e-12)

    def test_equal_costs_fixed_point(self):
        out = lm.update_proportions(shares2(), np.array([5.0, 5.0]), 0.1, 1e-4)
        np.testing.assert_allclose(out.values, [0.5, 0.5], atol=1e-15)

    def test_below_average_pool_not_pushed(self):
        out = lm.update_proportions(shares2(), np.array([0.0, 8.0]), 0.1, 1e-4)
        np.testing.assert_allclose(out.values, [0.5 / 1.1, 0.6 / 1.1], atol=1e-12)

    def test_zero_mean_cost_skips(self):
        start = shares2(0.4, 0.6)
        out = lm.update_proportions(start, np.array([0.0, 0.0]), 0.1, 1e-4)
        np.testing.assert_allclose(out.values, start.values)

    def test_floor_prevents_starvation(self):
        pv = shares2()
        for _ in range(40):
            pv = lm.update_proportions(pv, np.array([100.0, 0.0]), 1.0, 1e-4)
        assert pv.values.min() >= 1e-4 - 1e-15
        assert pv.values.sum() == pytest.approx(1.0, abs=1e-12)

    def test_ordering_follows_costs(self):
        out = lm.update_proportions(shares2(), np.array([6.0, 2.0]), 0.1, 1e-4)
        assert out.values[0] > 0.5 > out.values[1]


def test_config_validation():
    with pytest.raises(ValueError):
        lm.MechanismConfig(eta_f=0.0)
    with pytest.raises(ValueError):
        lm.MechanismConfig(eps_cost=0.0)
    with pytest.raises(ValueError):
        lm.MechanismConfig(f_floor=0.6)
    with pytest.raises(ValueError):
        lm.MechanismConfig(max_outer=0)


def test_symmetric_instance_needs_no_split_updates():
    net, pools, table = instances.symmetric_two_pool()
    res = lm.run_mechanism(net, pools, table)
    assert res.converged
    assert res.f_updates == 0
    f = res.state.shares.as_dict()
    assert f["k0"] == pytest.approx(0.5, abs=1e-12)
    assert f["k1"] == pytest.approx(0.5, abs=1e-12)


def test_single_pool_instance_is_trivial_outer():
    net, pools, table = instances.single_edge()
    res = lm.run_mechanism(net, pools, table)
    assert res.converged
    assert res.f_updates == 0
    assert res.state.shares.as_dict() == {"k0": 1.0}


def test_warm_resume_at_fixed_point_costs_nothing():
    net, pools, table = instances.symmetric_two_pool()
    first = lm.run_mechanism(net, pools, table)
    again = lm.run_mechanism(net, pools, table, warm=first.state)
    assert again.converged
    assert again.f_updates == 0
    assert sum(again.price_updates.values()) == 0


def test_objective_is_sum_of_valuations():
    net, pools, table = instances.symmetric_two_pool()
    res = lm.run_mechanism(net, pools, table)
    expect = sum(
        lm.utility(table.spec(lop, k), x) for (lop, k), x in res.frequencies().items()
    )
    assert res.objective == pytest.approx(expect, rel=1e-12)


def test_outer_budget_exhaustion_reports_diagnostics():
    net, pools, table = instances.shared_edge_two_pools(0.25)
    res = lm.run_mechanism(net, pools, table, lm.MechanismConfig(max_outer=2))
    assert not res.converged
    assert res.diagnostics != ""
    assert res.f_updates == 2


def test_shares_stay_on_the_simplex_throughout():
    net, pools, table = instances.shared_edge_two_pools(0.5)
    res = lm.run_mechanism(net, pools, table)
    assert res.converged
    for row in res.outer_trace:
        vals = np.array(list(row["shares"].values()))
        assert vals.sum() == pytest.approx(1.0, abs=1e-9)
        assert vals.min() >= 1e-4 - 1e-15


def test_equal_cost_certificate_at_termination():
    net, pools, table = instances.shared_edge_two_pools(0.5)
    res = lm.run_mechanism(net, pools, table)
    assert res.converged
    costs = np.array([res.state.pool_costs[k] for k in pools.pool_ids])
    assert lm.costs_equal(costs, 0.05)
    assert res.state.cost_level == pytest.approx(costs.mean(), rel=1e-12)


def test_line_repeating_an_edge_is_rejected():
    """The 0/1 incidence counts a repeated edge's load once, so engine and certifier refuse it."""
    net = lm.Network(["u", "v"], [lm.Edge("e1", "u", "v", 4.0)])
    pools = lm.PoolSystem(["k0"], {("lop0", "k0"): lm.Line(("e1", "e1"))})
    table = lm.UtilityTable({("lop0", "k0"): lm.UtilitySpec(2.0)})
    with pytest.raises(lm.InputMismatchError, match="repeats an edge"):
        lm.run_mechanism(net, pools, table)
    with pytest.raises(lm.InputMismatchError, match="repeats an edge"):
        lm.kkt_report(net, pools, table, {("lop0", "k0"): 1.0}, {"k0": 1.0}, {}, 0.0)


@pytest.mark.parametrize("capacity", [float("nan"), float("inf"), float("-inf"), -4.0])
@pytest.mark.parametrize("solve", [lm.run_mechanism, lm.solve_full], ids=["mechanism", "oracle"])
def test_nonfinite_capacity_is_rejected(solve, capacity):
    """A NaN or negative capacity would run the mechanism through its whole budget."""
    net, pools, table = instances.single_edge(capacity=capacity)
    with pytest.raises(lm.InputMismatchError, match="non-finite capacity"):
        solve(net, pools, table)


@pytest.mark.parametrize(
    "source, target",
    [
        (instances.chain_instance(0), instances.chain_instance(1)),  # other edges
        (instances.chain_instance(0), instances.chain_instance(2)),  # other operators
        (instances.single_edge(), instances.symmetric_two_pool()),   # other pools
    ],
)
def test_warm_state_from_another_instance_is_rejected(source, target):
    warm = lm.run_mechanism(*source).state
    with pytest.raises(lm.InputMismatchError, match="warm state"):
        lm.run_mechanism(*target, warm=warm)


def test_closed_edge_keeps_the_default_price_step():
    """A zero capacity sets no step scale; the mechanism still clears."""
    net, pools, table = instances.chain_instance(3)
    closed = net.with_capacities({"e5": 0.0})
    for k in pools.pool_ids:
        eta = lm.default_price_eta(lm.compile_pool(closed, pools, k))
        assert eta > 0.0
        assert eta == lm.default_price_eta(lm.compile_pool(net, pools, k))
    res = lm.run_mechanism(closed, pools, table)
    assert res.converged
    assert sum(res.price_updates.values()) < 5_000
    assert lm.mechanism_kkt(closed, pools, table, res.state).max_scaled() <= 0.1
