"""Reference solver: closed-form pool optima and split, KKT certification."""
import math
from functools import partial
from pathlib import Path

import numpy as np
import pytest

import linemarket as lm
from linemarket import cli, oracle

import instances

ROOT2 = float(np.sqrt(2.0))


def test_single_edge_closed_form():
    net, pools, table = instances.single_edge()
    sol = lm.solve_full(net, pools, table)
    assert sol.converged
    assert sol.frequencies[("lop0", "k0")] == pytest.approx(4.0, rel=1e-8)
    assert sol.prices[("e1", "k0")] == pytest.approx(0.5, rel=1e-8)
    assert sol.objective == pytest.approx(4.0, rel=1e-8)
    assert sol.cost_level == pytest.approx(2.0, rel=1e-8)


def test_two_identical_operators_closed_form():
    net, pools, table = instances.two_lops_one_edge()
    sol = lm.solve_full(net, pools, table)
    assert sol.frequencies[("lop0", "k0")] == pytest.approx(2.0, rel=1e-8)
    assert sol.frequencies[("lop1", "k0")] == pytest.approx(2.0, rel=1e-8)
    assert sol.objective == pytest.approx(4.0 * ROOT2, rel=1e-8)


def test_sqrt_utilities_always_saturate():
    """Even huge capacities bind at the optimum; x lands on c * f."""
    net, pools, table = instances.single_edge(capacity=1e9)
    sol = lm.solve_full(net, pools, table)
    assert sol.frequencies[("lop0", "k0")] == pytest.approx(1e9, rel=1e-6)
    assert sol.prices[("e1", "k0")] > 0.0


def test_bottleneck_edge_carries_the_price():
    """With equal operator support the scarce edge prices, the slack one stays free."""
    net = lm.Network(
        ["u", "v", "w"],
        [lm.Edge("e1", "u", "v", 4.0), lm.Edge("e2", "v", "w", 50.0)],
    )
    pools = lm.PoolSystem(["k0"], {("lop0", "k0"): lm.Line(("e1", "e2"))})
    table = lm.UtilityTable({("lop0", "k0"): lm.UtilitySpec(2.0)})
    sol = lm.solve_full(net, pools, table)
    assert sol.frequencies[("lop0", "k0")] == pytest.approx(4.0, rel=1e-8)
    assert sol.prices[("e1", "k0")] == pytest.approx(0.5, rel=1e-8)
    assert ("e2", "k0") not in sol.prices


def test_fixed_bids_single_edge():
    net, pools, _ = instances.two_lops_one_edge()
    view = lm.compile_pool(net, pools, "k0")
    prices = lm.solve_fixed_bids(view, np.array([1.3, 0.7]), 1.0)
    np.testing.assert_allclose(prices, [0.5], atol=1e-9)


@pytest.mark.parametrize("closed", [False, True], ids=["zero_bid", "closed_edge"])
def test_fixed_bids_idle_line_gets_nothing(closed):
    """A zero bid, or a bid on a line over a closed edge, buys nothing; the other line clears alone."""
    net = lm.Network(["u", "v", "w"], [lm.Edge("e1", "u", "v", 4.0), lm.Edge("e2", "v", "w", 0.0)])
    lines = {("lop0", "k0"): lm.Line(("e1",)), ("lop1", "k0"): lm.Line(("e1", "e2") if closed else ("e1",))}
    view = lm.compile_pool(net, lm.PoolSystem(["k0"], lines), "k0")
    assert view.edge_ids == ("e1", "e2") and view.lop_ids == ("lop0", "lop1")
    bids = np.array([1.3, 2.0 if closed else 0.0])
    np.testing.assert_allclose(lm.solve_fixed_bids(view, bids, 1.0), [1.3 / 4.0, 0.0], rtol=1e-12)
    # from an opening off the answer, the solver must still idle the line
    sol = oracle._clearing_prices(view.incidence, view.capacity, bids, 1, np.ones(2))
    assert sol.converged
    np.testing.assert_allclose(sol.prices, [1.3 / 4.0, 0.0], rtol=1e-12)
    np.testing.assert_allclose(sol.freqs, [4.0, 0.0], rtol=1e-12)


def test_fixed_bids_on_grid_pool():
    """Grid-scale frozen-bid clearing reaches solver precision."""
    net, ps, _ = instances.grid_instance(0, 1)
    view = lm.compile_pool(net, ps, "pool0")
    bids = np.ones(view.n_lops)
    prices = lm.solve_fixed_bids(view, bids, 1.0)
    assert np.all(prices >= 0.0)

    mu = view.incidence.T @ prices
    assert np.all(mu > 0.0)
    load = view.incidence @ (bids / mu)
    gap = load - view.capacity
    scale = float(view.capacity.max())
    assert gap.max() <= 1e-9 * scale
    assert float((prices * np.abs(gap)).max()) <= 1e-9 * scale


def test_kkt_clean_at_oracle_solution():
    net, pools, table = instances.single_edge()
    sol = lm.solve_full(net, pools, table)
    report = lm.kkt_report(
        net, pools, table, sol.frequencies, {"k0": 1.0}, sol.prices, sol.cost_level
    )
    assert report.max_scaled() < 1e-6


def test_kkt_sees_price_perturbation():
    """Shifting the binding edge price by +0.1 shows up as a 0.1 stationarity gap."""
    net, pools, table = instances.single_edge()
    sol = lm.solve_full(net, pools, table)
    bumped = {("e1", "k0"): sol.prices[("e1", "k0")] + 0.1}
    level = net.capacity("e1") * bumped[("e1", "k0")]
    report = lm.kkt_report(net, pools, table, sol.frequencies, {"k0": 1.0}, bumped, level)
    assert report.stationarity_raw == pytest.approx(0.1, rel=1e-6)


def test_kkt_zero_candidate():
    """An idle operator whose line has capacity is not a clearing point."""
    net, pools, table = instances.single_edge()
    report = lm.kkt_report(net, pools, table, {("lop0", "k0"): 0.0}, {"k0": 1.0}, {}, 0.0)
    assert report.stationarity_raw is None
    assert report.stationarity_rel == 1.0
    assert report.overload_raw == 0.0
    assert report.complementarity_raw == 0.0
    assert report.max_scaled() == 1.0


def test_kkt_idle_operator_without_capacity_certifies():
    """x=0 is the answer on a closed line or at share zero: nothing to flag there."""
    net, pools, table = instances.single_edge()
    report = lm.kkt_report(net, pools, table, {}, {"k0": 0.0}, {}, 0.0)
    assert report.stationarity_rel is None
    closed = net.with_capacities({"e1": 0.0})
    report = lm.kkt_report(closed, pools, table, {}, {"k0": 1.0}, {}, 0.0)
    assert report.stationarity_rel is None
    assert report.max_scaled() == 0.0


def test_full_search_single_pool_degenerates():
    """One pool takes all the capacity, and the answer is its share-1 pool solve."""
    net, pools, table = instances.single_edge()
    sol = lm.solve_full(net, pools, table)
    view = lm.compile_pool(net, pools, "k0")
    coeffs = table.coefficients_for(view)
    fixed = oracle._solve_one_pool(view, coeffs)
    assert sol.shares == {"k0": 1.0}
    assert sol.objective == pytest.approx(float(coeffs @ np.sqrt(fixed.freqs)), rel=1e-12)


def test_full_search_symmetric_split():
    net, pools, table = instances.symmetric_two_pool()
    sol = lm.solve_full(net, pools, table)
    assert sol.converged
    assert sol.shares["k0"] == pytest.approx(0.5, abs=1e-6)
    assert sol.objective == pytest.approx(4.0 * ROOT2, rel=1e-9)
    assert sol.cost_gap <= 1e-9


def test_full_search_asymmetric_splits():
    for ratio, target in ((0.5, 0.8), (0.25, 16.0 / 17.0)):
        net, pools, table = instances.shared_edge_two_pools(ratio)
        sol = lm.solve_full(net, pools, table)
        assert sol.converged
        assert abs(sol.shares["k0"] - target) <= 1e-6, (ratio, sol.shares)


def test_full_search_three_pools():
    net = lm.Network(["u", "v"], [lm.Edge("e1", "u", "v", 4.0)])
    pool_ids = ["k0", "k1", "k2"]
    pools = lm.PoolSystem(pool_ids, {("lop0", k): lm.Line(("e1",)) for k in pool_ids})
    table = lm.UtilityTable({("lop0", k): lm.UtilitySpec(2.0) for k in pool_ids})
    sol = lm.solve_full(net, pools, table)
    assert sol.converged
    for k in pool_ids:
        assert sol.shares[k] == pytest.approx(1.0 / 3.0, abs=1e-6)


def test_full_search_five_pools_closed_form():
    """Any number of pools: on one shared edge the shares are a_k^2 / sum_j a_j^2."""
    net = lm.Network(["u", "v"], [lm.Edge("e1", "u", "v", 4.0)])
    coeffs = {f"k{i}": 1.0 + 0.5 * i for i in range(5)}
    pools = lm.PoolSystem(list(coeffs), {("lop0", k): lm.Line(("e1",)) for k in coeffs})
    table = lm.UtilityTable({("lop0", k): lm.UtilitySpec(a) for k, a in coeffs.items()})
    sol = lm.solve_full(net, pools, table)
    assert sol.converged
    total = sum(a * a for a in coeffs.values())
    for k, a in coeffs.items():
        assert sol.shares[k] == pytest.approx(a * a / total, abs=1e-9)
    assert sol.cost_gap <= 1e-9


def test_full_search_pool_without_operators_gets_no_share():
    """A pool worth nothing at every share gets none; if all are, the split is even."""
    net = lm.Network(["u", "v"], [lm.Edge("e1", "u", "v", 4.0)])
    pools = lm.PoolSystem(["k0", "k1"], {("lop0", "k0"): lm.Line(("e1",))})
    table = lm.UtilityTable({("lop0", "k0"): lm.UtilitySpec(2.0)})
    sol = lm.solve_full(net, pools, table)
    assert sol.converged
    assert sol.shares == {"k0": 1.0, "k1": 0.0}
    assert sol.objective == pytest.approx(4.0, rel=1e-12)
    assert all(k == "k0" for _, k in sol.prices)
    # k1 holds no capacity, so its cost of 0 need not meet the level
    assert sol.kkt.max_scaled() <= 1e-8

    idle = lm.solve_full(net, lm.PoolSystem(["k0", "k1"], {}), lm.UtilityTable({}))
    assert idle.shares == {"k0": 0.5, "k1": 0.5}
    assert idle.objective == 0.0 and idle.prices == {}


def test_empty_pool_system_is_rejected():
    """No pools is an input error in every reader, not a division by zero deep inside."""
    net = lm.Network(["u", "v"], [lm.Edge("e1", "u", "v", 4.0)])
    pools, table = lm.PoolSystem([], {}), lm.UtilityTable({})
    for read in (
        lambda: lm.run_mechanism(net, pools, table),
        lambda: lm.solve_full(net, pools, table),
        lambda: lm.kkt_report(net, pools, table, {}, {}, {}, 0.0),
    ):
        with pytest.raises(lm.InputMismatchError, match="lists no pools"):
            read()


def ci_instance(pools: int, seed: int):
    """The CI scenario's 4x6 family at `pools` pools, built as the CLI builds it."""
    scn = {
        "grid": {"rows": 4, "cols": 6, "pools": pools, "lines_per_pool": 4},
        "utilities_gen": {"kind": "uniform", "low": 5, "high": 15},
    }
    return cli._build_instance(scn, seed, Path("."))


CERTIFY_CASES = (
    [(f"chain{seed}", partial(instances.chain_instance, seed)) for seed in range(20)]
    + [(f"grid{seed}_k{k}", partial(instances.grid_instance, seed, k)) for k in (1, 2) for seed in range(20)]
    + [(f"ci{seed}_k{k}", partial(ci_instance, k, seed)) for k in (3, 5) for seed in range(5)]
)


@pytest.mark.parametrize("make", [make for _, make in CERTIFY_CASES], ids=[name for name, _ in CERTIFY_CASES])
def test_full_search_certifies_at_solver_precision(make):
    sol = lm.solve_full(*make())
    assert sol.converged
    assert sol.kkt.max_scaled() <= 1e-8


def _pool_views(make):
    net, pools, table = make()
    for k in pools.pool_ids:
        view = lm.compile_pool(net, pools, k)
        yield view, table.coefficients_for(view)


def test_opening_is_cold_start_prices_bytewise(monkeypatch):
    """The share-1 opening, computed without cold_start's frequencies, is its prices byte for byte."""
    solve = oracle._clearing_prices
    openings = []

    def opened(incidence, budget, scale, power, opening):
        openings.append(opening.tobytes())
        return solve(incidence, budget, scale, power, opening, max_iters=0)

    monkeypatch.setattr(oracle, "_clearing_prices", opened)
    pools_seen = 0
    for name, make in CERTIFY_CASES:
        for view, coeffs in _pool_views(make):
            openings.clear()
            oracle._solve_one_pool(view, coeffs)
            assert openings == [lm.cold_start(view, coeffs, 1.0).prices.tobytes()], (name, view.pool_id)
            pools_seen += 1
    assert pools_seen == 40 + 60 + 40


def test_certificate_reuses_the_solve_views(monkeypatch):
    """solve_full compiles each pool once and certifies as a fresh kkt_report on its own point."""
    compiled = []
    compile_pool = oracle.compile_pool

    def counted(net, pools, k):
        compiled.append(k)
        return compile_pool(net, pools, k)

    monkeypatch.setattr(oracle, "compile_pool", counted)
    for name, make in CERTIFY_CASES:
        net, pools, table = make()
        compiled.clear()
        sol = lm.solve_full(net, pools, table)
        assert compiled == list(pools.pool_ids), name
        fresh = lm.kkt_report(net, pools, table, sol.frequencies, sol.shares, sol.prices, sol.cost_level)
        assert sol.kkt == fresh, name


def test_certificate_views_must_match_the_pools():
    net, pools, table = instances.chain_instance(3)
    views = [lm.compile_pool(net, pools, k) for k in reversed(pools.pool_ids)]
    with pytest.raises(lm.InputMismatchError, match="in pool order"):
        lm.kkt_report(net, pools, table, {}, {"k0": 0.5, "k1": 0.5}, {}, 1.0, views=views)


def test_kkt_shares_must_name_the_listed_pools():
    """A share missing for a pool, or filed under a pool the system lacks, is an input error."""
    net, pools, table = instances.chain_instance(3)
    with pytest.raises(lm.InputMismatchError, match=r"missing=\['k1'\] extra=\[\]"):
        lm.kkt_report(net, pools, table, {}, {"k0": 1.0}, {}, 1.0)
    with pytest.raises(lm.InputMismatchError, match=r"missing=\[\] extra=\['kX'\]"):
        lm.kkt_report(net, pools, table, {}, {"k0": 0.5, "k1": 0.5, "kX": 0.0}, {}, 1.0)


def _inactive_operator_cases():
    """Newton inputs of chain and 7x12 pools with operators made inactive, and the active mask.

    Two ways per pool: a zero bid at power 1 on every other line, and, at
    power 2, the lines over a closed edge (of the edges some line crosses,
    the one fewest lines cross).
    Each opens at the neck prices of its scales at full capacity.
    """
    makes = [partial(instances.chain_instance, seed) for seed in range(20)]
    makes += [partial(instances.grid_instance, seed, k) for k in (1, 2) for seed in range(5)]
    for make in makes:
        for view, coeffs in _pool_views(make):
            fair_ratio, neck = oracle._fair_split(view)
            bids = 0.5 * coeffs * np.sqrt(fair_ratio)
            bids[::2] = 0.0
            yield view.incidence, view.capacity, bids, 1, oracle._neck_prices(neck, bids, view.capacity), bids > 0.0
            crossing = view.incidence.sum(axis=1)
            closed = view.capacity.copy()
            closed[np.argmin(np.where(crossing > 0.0, crossing, np.inf))] = 0.0
            scale = 0.5 * coeffs
            opening = oracle._neck_prices(neck, scale * np.sqrt(fair_ratio), view.capacity)
            yield view.incidence, closed, scale, 2, opening, ~view.incidence[closed <= 0.0].any(axis=0)


def test_inactive_operator_is_invisible_to_the_newton_solve():
    """A solve with inactive operators is, bit for bit, the solve with their columns deleted."""
    partly = 0
    for incidence, budget, scale, power, opening, act in _inactive_operator_cases():
        full = oracle._clearing_prices(incidence, budget, scale, power, opening)
        cut = oracle._clearing_prices(incidence[:, act], budget, scale[act], power, opening)
        assert full.prices.tobytes() == cut.prices.tobytes()
        assert full.freqs[act].tobytes() == cut.freqs.tobytes()
        assert full.freqs[~act].tobytes() == np.zeros(np.count_nonzero(~act)).tobytes()
        assert (full.converged, full.iterations, full.dual_evals) == (cut.converged, cut.iterations, cut.dual_evals)
        assert full.converged
        partly += act.any() and not act.all()
    assert partly >= 100


def test_dual_evaluations_cover_every_iteration():
    """Each iteration evaluates at least its accepted trial; the opening is evaluated once."""
    for name, make in CERTIFY_CASES:
        for view, coeffs in _pool_views(make):
            sol = oracle._solve_one_pool(view, coeffs)
            assert sol.converged and sol.dual_evals >= sol.iterations >= 1, (name, view.pool_id)
    view, coeffs = next(_pool_views(partial(instances.chain_instance, 0)))
    opening = lm.cold_start(view, coeffs, 1.0).prices
    start = oracle._clearing_prices(view.incidence, view.capacity, 0.5 * coeffs, 2, opening, max_iters=0)
    assert (start.iterations, start.dual_evals) == (0, 1)
    idle = oracle._clearing_prices(view.incidence, view.capacity, 0.0 * coeffs, 2, opening)
    assert (idle.iterations, idle.dual_evals) == (0, 0)


def test_row_groups_match_unique_over_rows():
    """The byte-keyed grouping gives np.unique(axis=0)'s representatives and group ids."""
    rng = np.random.default_rng(16)
    mats = [
        np.array([[1.0, 0.0, 1.0]]),                     # a single row
        np.ones((5, 3)),                                 # all rows equal
        np.zeros((4, 2)),
        np.ones((6, 1)),
        np.tile([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], (7, 1)),  # many duplicates
    ]
    for trial in range(3000):
        m, k = int(rng.integers(1, 30)), int(rng.integers(1, 10))
        rows = (rng.random((m, k)) < rng.random()).astype(float)
        # every other matrix draws its rows from a few, so duplicates abound
        mats.append(rows[rng.integers(0, max(1, m // 4), size=m)] if trial % 2 else rows)
    for rows in mats:
        _, first, group = np.unique(rows, axis=0, return_index=True, return_inverse=True)
        got_first, got_group = oracle._row_groups(rows)
        np.testing.assert_array_equal(got_first, first)
        np.testing.assert_array_equal(got_group, group.ravel())


def test_oracle_opens_at_cold_start(monkeypatch):
    """Newton opens at cold_start's share-1 prices, summed onto each edge group.

    A group is the edges crossed by the same lines, represented by its
    scarcest edge; the grouping here is restated with a loop over edges.
    The 20 chains merge edges into groups, and the tied pair splits one
    line's opening bid over two edges of one group, which the sum rejoins.
    """
    tied = (
        lm.Network(["u", "v", "w"], [lm.Edge("e1", "u", "v", 4.0), lm.Edge("e2", "v", "w", 4.0)]),
        lm.PoolSystem(["k0"], {("lop0", "k0"): lm.Line(("e1", "e2"))}),
        lm.UtilityTable({("lop0", "k0"): lm.UtilitySpec(2.0)}),
    )
    monkeypatch.setattr(oracle, "_clearing_prices", partial(oracle._clearing_prices, max_iters=0))
    merged = summed = 0
    for net, pools, table in [instances.chain_instance(seed) for seed in range(20)] + [tied]:
        for k in pools.pool_ids:
            view = lm.compile_pool(net, pools, k)
            coeffs = table.coefficients_for(view)
            opening = lm.cold_start(view, coeffs, 1.0).prices
            groups: dict[tuple, list[int]] = {}
            for e in range(view.n_edges):
                if view.incidence[e].any():
                    groups.setdefault(tuple(view.incidence[e]), []).append(e)
            expected = np.zeros(view.n_edges)
            for members in groups.values():
                rep = min(members, key=lambda e: view.capacity[e])
                expected[rep] = sum(opening[e] for e in members)
                merged += len(members) > 1
                summed += sum(opening[e] > 0.0 for e in members) > 1
            sol = oracle._solve_one_pool(view, coeffs)
            assert sol.iterations == 0
            np.testing.assert_allclose(sol.prices, expected, rtol=1e-15, atol=0.0)
    assert merged > 1 and summed > 0


def test_closed_edge_is_certified_not_crashed():
    """A zero-capacity edge is legal input; the overload row scales by a floor."""
    net, pools, table = instances.chain_instance(3)
    closed = net.with_capacities({"e5": 0.0})
    cfg = lm.MechanismConfig(inner=lm.DynamicsConfig(max_iters=500))
    mech = lm.run_mechanism(closed, pools, table, cfg)
    for report in (lm.mechanism_kkt(closed, pools, table, mech.state), lm.solve_full(closed, pools, table).kkt):
        assert np.isfinite(report.max_scaled())


def test_closed_edge_oracle_is_certified():
    """An operator whose line crosses a closed edge runs nothing and leaves the edge unpriced."""
    net, pools, table = instances.chain_instance(3)
    closed = net.with_capacities({"e5": 0.0})
    sol = lm.solve_full(closed, pools, table)
    assert sol.converged
    assert sol.kkt.max_scaled() <= 1e-6
    for k in pools.pool_ids:
        for lop in pools.lops_in(k):
            if "e5" in pools.line(lop, k).edge_ids:
                assert sol.frequencies[(lop, k)] == 0.0
    assert not any(eid == "e5" for eid, _ in sol.prices)


def test_failed_certificate_is_not_converged(monkeypatch):
    """A pool solve that claims convergence at a wrong point fails the certificate."""
    solve = oracle._solve_one_pool

    def halved(view, coefficients):
        sol = solve(view, coefficients)
        sol.freqs = sol.freqs * 0.5
        return sol

    monkeypatch.setattr(oracle, "_solve_one_pool", halved)
    sol = lm.solve_full(*instances.chain_instance(3))
    assert sol.kkt.max_scaled() > 1e-6
    assert not sol.converged


def _dict_loop_kkt(net, pools, utilities, freqs, shares, prices, cost_level):
    """The certifier as it was before it read compiled views: Python loops over dicts."""
    level_scale = max(abs(cost_level), 1e-30)
    stat_raw = stat_rel = None
    comp_raw = over_raw = over_rel = spread_raw = neg = 0.0
    for k in pools.pool_ids:
        share = float(shares[k])
        neg = max(neg, -share)
        load = {eid: 0.0 for eid in net.edge_ids}
        for lop in pools.lops_in(k):
            x = float(freqs.get((lop, k), 0.0))
            neg = max(neg, -x)
            line = pools.line(lop, k)
            for eid in line.edge_ids:
                load[eid] += x
            if x > 0.0:
                mu = sum(float(prices.get((eid, k), 0.0)) for eid in line.edge_ids)
                gap = abs(utilities.spec(lop, k).coefficient / (2.0 * math.sqrt(x)) - mu)
                stat_raw = gap if stat_raw is None else max(stat_raw, gap)
                rel = gap / max(mu, 1e-30)
                stat_rel = rel if stat_rel is None else max(stat_rel, rel)
        cost_k = 0.0
        for e in net.edges:
            lam = float(prices.get((e.id, k), 0.0))
            neg = max(neg, -lam)
            cost_k += e.capacity * lam
            slack = load[e.id] - e.capacity * share
            comp_raw = max(comp_raw, abs(lam * slack))
            over_raw = max(over_raw, slack)
            over_rel = max(over_rel, slack / e.capacity)
        spread_raw = max(spread_raw, abs(cost_k - cost_level))
    total_share = sum(float(shares[k]) for k in pools.pool_ids)
    split_comp_raw = abs(cost_level * (total_share - 1.0))
    return lm.KKTReport(
        stationarity_raw=stat_raw,
        stationarity_rel=stat_rel,
        cost_spread_raw=spread_raw,
        cost_spread_rel=spread_raw / level_scale,
        complementarity_raw=comp_raw,
        complementarity_rel=comp_raw / level_scale,
        split_comp_raw=split_comp_raw,
        split_comp_rel=split_comp_raw / level_scale,
        overload_raw=max(0.0, over_raw),
        overload_rel=max(0.0, over_rel),
        split_excess=max(0.0, total_share - 1.0),
        negativity=max(0.0, neg),
    )


def _mechanism_point(state):
    freqs, prices = {}, {}
    for k, st in state.pool_states.items():
        freqs.update({(lop, k): float(x) for lop, x in zip(st.lop_ids, st.freqs)})
        prices.update({(eid, k): float(lam) for eid, lam in zip(st.edge_ids, st.prices) if lam != 0.0})
    return freqs, state.shares.as_dict(), prices, state.cost_level


def test_certifier_matches_dict_loop_reference(k1_baseline, k2_baseline):
    """Mechanism and oracle points of 20 chains and two grids certify as before."""
    cases = [(*instances.chain_instance(seed), None) for seed in range(20)]
    cases += [k1_baseline(0), k2_baseline(0)]
    for net, pools, table, mech in cases:
        mech = mech or lm.run_mechanism(net, pools, table)
        sol = lm.solve_full(net, pools, table)
        points = [_mechanism_point(mech.state), (sol.frequencies, sol.shares, sol.prices, sol.cost_level)]
        for point in points:
            new = lm.kkt_report(net, pools, table, *point)
            ref = _dict_loop_kkt(net, pools, table, *point)
            raw_tol = 1e-12 * max(1.0, abs(point[-1]))
            assert (new.stationarity_raw is None) == (ref.stationarity_raw is None)
            for name in lm.KKTReport.__dataclass_fields__:
                a, b = getattr(new, name), getattr(ref, name)
                if a is not None:
                    assert abs(a - b) <= (raw_tol if name.endswith("_raw") else 1e-12), name
            assert abs(new.max_scaled() - ref.max_scaled()) <= 1e-12


def test_cost_level_is_max_pool_cost():
    net, pools, table = instances.shared_edge_two_pools(0.5)
    sol = lm.solve_full(net, pools, table)
    by_pool = {k: 0.0 for k in pools.pool_ids}
    for (eid, k), lam in sol.prices.items():
        by_pool[k] += net.capacity(eid) * lam
    assert sol.cost_level == pytest.approx(max(by_pool.values()), rel=1e-12)


def _feasible_objective(net, pools, table, mech):
    """Mechanism objective after scaling each pool's flows into its budget."""
    caps = net.capacity_vector()
    total = 0.0
    for k, st in mech.state.pool_states.items():
        view = lm.compile_pool(net, pools, k)
        budget = caps * mech.state.shares.share(k)
        load = view.incidence @ st.freqs
        ratio = float(np.max(load / np.maximum(budget, 1e-300), initial=1.0))
        coeffs = table.coefficients_for(view)
        total += float(np.sum(coeffs * np.sqrt(np.maximum(st.freqs / ratio, 0.0))))
    return total


def test_oracle_dominates_feasible_mechanism_points():
    for seed in range(5):
        net, pools, table = instances.chain_instance(seed)
        mech = lm.run_mechanism(net, pools, table)
        sol = lm.solve_full(net, pools, table)
        assert mech.converged and sol.converged
        assert sol.objective >= _feasible_objective(net, pools, table, mech) - 1e-6
