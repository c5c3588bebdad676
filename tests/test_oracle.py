"""Reference solver: closed-form pool optima and split, KKT certification."""
import copy
import dataclasses
import math
from functools import partial

import numpy as np
import pytest

import linemarket as lm
from linemarket import cli, network, oracle, single_pool

import instances
import report

ROOT2 = float(np.sqrt(2.0))


def _clear(incidence, budget, scale, power, opening):
    """_clearing_prices on the presolve solve_fixed_bids builds: of the lines of positive scale crossing no closed edge."""
    act = (scale > 0.0) & ~incidence[budget <= 0.0].any(axis=0)
    return oracle._clearing_prices(network._presolve(incidence, budget, act), budget, scale, power, opening)


def test_single_edge_closed_form():
    net, pools, table = instances.single_edge()
    sol = lm.solve_full(net, pools, table)
    st = sol.state.pool_states["k0"]
    assert sol.converged
    assert st.freq_map()["lop0"] == pytest.approx(4.0, rel=1e-8)
    assert st.price_map()["e1"] == pytest.approx(0.5, rel=1e-8)
    assert sol.objective == pytest.approx(4.0, rel=1e-8)
    assert sol.state.cost_level == pytest.approx(2.0, rel=1e-8)


def test_two_identical_operators_closed_form():
    net, pools, table = instances.two_lops_one_edge()
    sol = lm.solve_full(net, pools, table)
    freqs = sol.state.pool_states["k0"].freq_map()
    assert freqs["lop0"] == pytest.approx(2.0, rel=1e-8)
    assert freqs["lop1"] == pytest.approx(2.0, rel=1e-8)
    assert sol.objective == pytest.approx(4.0 * ROOT2, rel=1e-8)


def test_sqrt_utilities_always_saturate():
    """Even huge capacities bind at the optimum; x lands on c * f."""
    net, pools, table = instances.single_edge(capacity=1e9)
    sol = lm.solve_full(net, pools, table)
    st = sol.state.pool_states["k0"]
    assert st.freq_map()["lop0"] == pytest.approx(1e9, rel=1e-6)
    assert st.price_map()["e1"] > 0.0


def test_bottleneck_edge_carries_the_price():
    """With equal operator support the scarce edge prices, the slack one stays free."""
    net = lm.Network(
        ["u", "v", "w"],
        [lm.Edge("e1", "u", "v", 4.0), lm.Edge("e2", "v", "w", 50.0)],
    )
    pools = lm.PoolSystem(["k0"], {("lop0", "k0"): lm.Line(("e1", "e2"))})
    table = lm.UtilityTable({("lop0", "k0"): lm.UtilitySpec(2.0)})
    sol = lm.solve_full(net, pools, table)
    st = sol.state.pool_states["k0"]
    assert st.freq_map()["lop0"] == pytest.approx(4.0, rel=1e-8)
    assert st.price_map()["e1"] == pytest.approx(0.5, rel=1e-8)
    assert st.price_map()["e2"] == 0.0


def test_fixed_bids_single_edge():
    net, pools, _ = instances.two_lops_one_edge()
    view = lm.compile_pool(net, pools, "k0")
    prices = lm.solve_fixed_bids(view, np.array([1.3, 0.7]), 1.0)
    np.testing.assert_allclose(prices, [0.5], atol=1e-9)


def test_fixed_bids_read_a_list_as_floats():
    """Bids pass as kkt_report reads its arrays: any sequence of reals, converted to floats."""
    net, pools, _ = instances.two_lops_one_edge()
    view = lm.compile_pool(net, pools, "k0")
    want = lm.solve_fixed_bids(view, np.array([1.0, 3.0]), 1.0).tobytes()
    assert lm.solve_fixed_bids(view, [1, 3], 1).tobytes() == want


def test_fixed_bids_reject_a_wrong_length():
    """One bid per operator of the view, else InputMismatchError naming the pool, not numpy's shape error."""
    net, pools, _ = instances.two_lops_one_edge()
    view = lm.compile_pool(net, pools, "k0")
    for bids in (np.array([1.3]), np.array([1.3, 0.7, 1.0]), np.array([[1.3, 0.7]]), np.float64(1.3)):
        with pytest.raises(lm.InputMismatchError, match=r"frozen bids of pool 'k0': bids has shape"):
            lm.solve_fixed_bids(view, bids, 1.0)


@pytest.mark.parametrize("bad", [np.nan, -1.0, np.inf])
def test_fixed_bids_reject_a_negative_or_non_finite_bid(bad):
    """A NaN, negative or infinite bid is bad input, not a free set emptied deep inside the solve."""
    net, pools, _ = instances.two_lops_one_edge()
    view = lm.compile_pool(net, pools, "k0")
    with pytest.raises(lm.InputMismatchError, match="negative or non-finite"):
        lm.solve_fixed_bids(view, np.array([1.3, bad]), 1.0)


@pytest.mark.parametrize("share", [np.nan, -1.0, np.inf, True, "1"])
def test_fixed_bids_reject_a_bad_share(share):
    """The share must be a finite real of at least 0; share 0 clears nothing and stays legal."""
    net, pools, _ = instances.two_lops_one_edge()
    view = lm.compile_pool(net, pools, "k0")
    with pytest.raises(ValueError, match="share"):
        lm.solve_fixed_bids(view, np.array([1.3, 0.7]), share)
    assert lm.solve_fixed_bids(view, np.array([1.3, 0.7]), 0.0).tolist() == [0.0]


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
    sol = _clear(view.incidence, view.capacity, bids, 1, np.ones(2))
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


def test_fixed_bids_clear_at_every_runs_end_state(monkeypatch):
    """solve_fixed_bids converges at each pool's end state, its bids and share, of every converged run.

    The runs are the 20 chains at the default step and, at the pin
    (GRID_CFG), the 7x12 k1 and k2 grids at seeds 0-4 and the hubs 0-9: 75
    pools.  The power-1 dual's terms take both signs, so the Armijo test's
    room for its rounding reads the sum of their magnitudes; read from the
    dual value alone, it stalled chain 15's pool k0 short of solver
    precision.  The measurements section gives the worst Newton iterations
    and dual evaluations.
    """
    solves = []
    clearing = single_pool._clearing_prices

    def spy(*args):
        solves.append(clearing(*args))
        return solves[-1]

    monkeypatch.setattr(single_pool, "_clearing_prices", spy)
    runs = ([(instances.chain_instance(seed), lm.MechanismConfig()) for seed in range(20)]
            + [(instances.grid_instance(seed, k), instances.GRID_CFG) for k in (1, 2) for seed in range(5)]
            + [(instances.hub_instance(seed), instances.GRID_CFG) for seed in range(10)])
    for (net, pools, table), cfg in runs:
        res = lm.run_mechanism(net, pools, table, cfg)
        assert res.converged
        for k, st in res.state.pool_states.items():
            lm.solve_fixed_bids(lm.compile_pool(net, pools, k), st.bids, st.share)
    assert len(solves) == 75 and all(sol.converged for sol in solves)
    report.note(f"frozen bids at the runs' end states: {len(solves)} pools cleared, worst "
                f"{max(sol.iterations for sol in solves)} Newton iterations / "
                f"{max(sol.dual_evals for sol in solves)} dual evaluations")


def _views(net, pools, table):
    """The views of an instance's pools, in pool order, and their coefficient vectors, as kkt_report reads them."""
    views = [lm.compile_pool(net, pools, k) for k in pools.pool_ids]
    return views, [table.coefficients_for(view) for view in views]


def test_kkt_clean_at_oracle_solution():
    net, pools, table = instances.single_edge()
    sol = lm.solve_full(net, pools, table)
    views, coeffs = _views(net, pools, table)
    st = sol.state.pool_states["k0"]
    report = lm.kkt_report(views, coeffs, [st.freqs], [st.prices], [1.0], sol.state.cost_level)
    assert report.max_scaled() < 1e-6


def test_kkt_sees_price_perturbation():
    """Shifting the binding edge price by +0.1 shows up as a 0.1 stationarity gap."""
    net, pools, table = instances.single_edge()
    sol = lm.solve_full(net, pools, table)
    views, coeffs = _views(net, pools, table)
    st = sol.state.pool_states["k0"]
    bumped = st.prices + 0.1
    level = net.capacity("e1") * float(bumped[0])
    report = lm.kkt_report(views, coeffs, [st.freqs], [bumped], [1.0], level)
    assert report.stationarity_raw == pytest.approx(0.1, rel=1e-6)


def test_kkt_zero_candidate():
    """An idle operator whose line has capacity is not a clearing point."""
    views, coeffs = _views(*instances.single_edge())
    report = lm.kkt_report(views, coeffs, [np.zeros(1)], [np.zeros(1)], [1.0], 0.0)
    assert report.stationarity_raw is None
    assert report.stationarity_rel == 1.0
    assert report.overload_raw == 0.0
    assert report.complementarity_raw == 0.0
    assert report.max_scaled() == 1.0


def test_kkt_idle_operator_without_capacity_certifies():
    """x=0 is the answer on a closed line or at share zero: nothing to flag there."""
    net, pools, table = instances.single_edge()
    views, coeffs = _views(net, pools, table)
    report = lm.kkt_report(views, coeffs, [np.zeros(1)], [np.zeros(1)], [0.0], 0.0)
    assert report.stationarity_rel is None
    views, coeffs = _views(net.with_capacities({"e1": 0.0}), pools, table)
    report = lm.kkt_report(views, coeffs, [np.zeros(1)], [np.zeros(1)], [1.0], 0.0)
    assert report.stationarity_rel is None
    assert report.max_scaled() == 0.0


def test_nan_is_never_certified():
    """A NaN in a candidate makes kkt_report's max_scaled NaN.

    Python's max keeps its running value when the next term is NaN, so each
    pool's NaN term and each NaN field must win where max would pass over
    it, in the first pool or a later one.
    """
    net, pools, table = instances.chain_instance(0)
    res = lm.run_mechanism(net, pools, table)
    views, coeffs = _views(net, pools, table)
    states = [res.state.pool_states[view.pool_id] for view in views]
    xs, lams = [st.freqs for st in states], [st.prices for st in states]
    shares, level = res.state.shares.values, res.state.cost_level

    def report(xs=xs, lams=lams, shares=shares, level=level):
        return lm.kkt_report(views, coeffs, xs, lams, shares, level)

    assert 0.0 < report().max_scaled() < 0.1
    for p in range(len(views)):
        for name, arrays, i in (("price", lams, 0), ("price", lams, -1), ("frequency", xs, 0)):
            edited = [a.copy() for a in arrays]
            edited[p][i] = np.nan
            got = report(**{"lams" if name == "price" else "xs": edited})
            assert math.isnan(got.max_scaled()), (p, name, i, got)
        some_idle = [x.copy() for x in xs]
        some_idle[p][0] = 0.0
        some_idle[p][-1] = np.nan
        assert math.isnan(report(xs=some_idle).max_scaled()), p
    assert math.isnan(report(shares=[np.nan, 0.5]).max_scaled())
    assert math.isnan(report(level=np.nan).max_scaled())
    fields = [f.name for f in dataclasses.fields(lm.KKTReport)]
    for name in (f for f in fields if not f.endswith("_raw")):  # the terms max_scaled reads
        assert math.isnan(lm.KKTReport(**{f: math.nan if f == name else 0.0 for f in fields}).max_scaled()), name


def test_full_search_single_pool_degenerates():
    """One pool takes all the capacity, and the answer is its share-1 pool solve."""
    net, pools, table = instances.single_edge()
    sol = lm.solve_full(net, pools, table)
    view = lm.compile_pool(net, pools, "k0")
    coeffs = table.coefficients_for(view)
    fixed = oracle._solve_one_pool([view], [coeffs])
    assert sol.state.shares.as_dict() == {"k0": 1.0}
    assert sol.objective == pytest.approx(float(coeffs @ np.sqrt(fixed.freqs)), rel=1e-12)


def test_full_search_symmetric_split():
    net, pools, table = instances.symmetric_two_pool()
    sol = lm.solve_full(net, pools, table)
    assert sol.converged
    assert sol.state.shares.share("k0") == pytest.approx(0.5, abs=1e-6)
    assert sol.objective == pytest.approx(4.0 * ROOT2, rel=1e-9)
    assert sol.cost_gap <= 1e-9


def test_full_search_asymmetric_splits():
    for ratio, target in ((0.5, 0.8), (0.25, 16.0 / 17.0)):
        net, pools, table = instances.shared_edge_two_pools(ratio)
        sol = lm.solve_full(net, pools, table)
        assert sol.converged
        assert abs(sol.state.shares.share("k0") - target) <= 1e-6, (ratio, sol.state.shares)


def test_full_search_three_pools():
    net = lm.Network(["u", "v"], [lm.Edge("e1", "u", "v", 4.0)])
    pool_ids = ["k0", "k1", "k2"]
    pools = lm.PoolSystem(pool_ids, {("lop0", k): lm.Line(("e1",)) for k in pool_ids})
    table = lm.UtilityTable({("lop0", k): lm.UtilitySpec(2.0) for k in pool_ids})
    sol = lm.solve_full(net, pools, table)
    assert sol.converged
    for k in pool_ids:
        assert sol.state.shares.share(k) == pytest.approx(1.0 / 3.0, abs=1e-6)


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
        assert sol.state.shares.share(k) == pytest.approx(a * a / total, abs=1e-9)
    assert sol.cost_gap <= 1e-9


def test_full_search_pool_without_operators_gets_no_share():
    """A pool worth nothing at every share gets none; if all are, the split is even."""
    net = lm.Network(["u", "v"], [lm.Edge("e1", "u", "v", 4.0)])
    pools = lm.PoolSystem(["k0", "k1"], {("lop0", "k0"): lm.Line(("e1",))})
    table = lm.UtilityTable({("lop0", "k0"): lm.UtilitySpec(2.0)})
    sol = lm.solve_full(net, pools, table)
    assert sol.converged
    assert sol.state.shares.as_dict() == {"k0": 1.0, "k1": 0.0}
    assert sol.objective == pytest.approx(4.0, rel=1e-12)
    assert not sol.state.pool_states["k1"].prices.any()
    # k1 holds no capacity, so its cost of 0 need not meet the level
    assert sol.kkt.max_scaled() <= 1e-8

    idle = lm.solve_full(net, lm.PoolSystem(["k0", "k1"], {}), lm.UtilityTable({}))
    assert idle.state.shares.as_dict() == {"k0": 0.5, "k1": 0.5}
    assert idle.objective == 0.0 and not any(st.prices.any() for st in idle.state.pool_states.values())


def test_cost_level_and_gap_read_only_pools_holding_capacity():
    """The optimum's cost level is a run's: the mean cost of the pools holding a share.

    k1's only line crosses the closed edge e2, so k1 holds no capacity and
    its cost of 0 is no imbalance: the gap at the exactly balanced optimum
    reads 0, and the level is k0's cost, as the run's is.
    """
    net = lm.Network(["u", "v", "w"], [lm.Edge("e1", "u", "v", 4.0), lm.Edge("e2", "v", "w", 0.0)])
    pools = lm.PoolSystem(["k0", "k1"], {("lop0", "k0"): lm.Line(("e1",)), ("lop0", "k1"): lm.Line(("e1", "e2"))})
    table = lm.UtilityTable({("lop0", "k0"): lm.UtilitySpec(2.0), ("lop0", "k1"): lm.UtilitySpec(2.0)})
    sol = lm.solve_full(net, pools, table)
    assert sol.converged
    assert sol.state.shares.as_dict() == {"k0": 1.0, "k1": 0.0}
    assert sol.state.pool_costs["k1"] == 0.0
    assert sol.cost_gap == 0.0
    assert sol.state.cost_level == sol.state.pool_costs["k0"] > 0.0
    res = lm.run_mechanism(net, pools, table)
    assert res.converged
    assert res.state.cost_level == pytest.approx(sol.state.cost_level, rel=1e-6)


def test_empty_pool_system_is_rejected():
    """No pools is an input error where the system is built, so no reader divides by zero deep inside."""
    doc = {"nodes": ["u", "v"], "edges": [{"id": "e1", "tail": "u", "head": "v", "capacity": 4.0}], "pools": []}
    for build in (lambda: lm.PoolSystem([], {}), lambda: lm.network_from_json(doc)):
        with pytest.raises(lm.InputMismatchError, match="lists no pools"):
            build()


def ci_instance(pools: int, seed: int):
    """The ci5 scenario's 4x6 family at `pools` pools, built as the CLI builds it."""
    scn = instances.scenario("ci5")
    scn["grid"]["pools"] = pools
    return cli._build_instance(scn, seed, instances.SCENARIOS)


def lopsided_instance(scales, seed: int):
    """The lopsided scenario's 4x6 family: pool k valued at 10 * scales[k], built as the CLI builds it."""
    scn = instances.scenario("lopsided")
    scn["grid"]["pools"] = len(scales)
    scn["utilities_gen"]["scales"] = scales
    return cli._build_instance(scn, seed, instances.SCENARIOS)


# the lopsided scenario as committed: a pool valued at 0.003 of the others
LOPSIDED = instances.scenario("lopsided")["utilities_gen"]["scales"]
CERTIFY_CASES = (
    [(f"chain{seed}", partial(instances.chain_instance, seed)) for seed in range(20)]
    + [(f"grid{seed}_k{k}", partial(instances.grid_instance, seed, k)) for k in (1, 2) for seed in range(20)]
    + [(f"ci{seed}_k{k}", partial(ci_instance, k, seed)) for k in (3, 5) for seed in range(5)]
    + [(f"hub{seed}", partial(instances.hub_instance, seed)) for seed in range(10)]
    + [(f"lopsided{LOPSIDED}_s{seed}", partial(lopsided_instance, LOPSIDED, seed)) for seed in range(3)]
)


@pytest.mark.parametrize("make", [make for _, make in CERTIFY_CASES], ids=[name for name, _ in CERTIFY_CASES])
def test_full_search_certifies_at_solver_precision(make):
    sol = lm.solve_full(*make())
    assert sol.converged
    assert sol.kkt.max_scaled() <= 1e-8


# the units family: (capacity factor, valuation factor)
UNITS = [(c, 1.0) for c in (1e-6, 1e-4, 1e-2, 1e4)] + [(1.0, u) for u in (1e-3, 1e3)]


@pytest.mark.parametrize("cap, val", UNITS, ids=[f"cap{c:g}-val{u:g}" for c, u in UNITS])
def test_oracle_reads_the_instance_in_its_own_units(cap, val):
    """solve_full on the 20 chains at capacities times c and valuations times u is the unscaled optimum, mapped.

    The problem is 1/2-homogeneous in the capacities and 1-homogeneous in
    the valuations, so each scaled solve must converge, certify at solver
    precision, and return the unscaled objective times u * sqrt(c).
    """
    for seed in range(20):
        net, pools, table = instances.chain_instance(seed)
        want = lm.solve_full(net, pools, table).objective * val * math.sqrt(cap)
        scaled_net = net.with_capacities({eid: net.capacity(eid) * cap for eid in net.edge_ids})
        scaled_table = lm.UtilityTable({key: lm.UtilitySpec(spec.coefficient * val)
                                        for key, spec in table.entries.items()})
        sol = lm.solve_full(scaled_net, pools, scaled_table)
        assert sol.converged and sol.kkt.max_scaled() <= 1e-6, seed
        assert sol.objective == pytest.approx(want, rel=1e-9, abs=0.0), seed


def _pool_views(make):
    net, pools, table = make()
    for k in pools.pool_ids:
        view = lm.compile_pool(net, pools, k)
        yield view, table.coefficients_for(view)


def test_opening_is_cold_start_prices_bytewise(monkeypatch):
    """The share-1 opening, computed without cold_start's frequencies, is its prices byte for byte."""
    solve = oracle._clearing_prices
    openings = []

    def opened(presolve, budget, scale, power, opening):
        openings.append(opening.tobytes())
        return solve(presolve, budget, scale, power, opening)

    monkeypatch.setattr(oracle, "_clearing_prices", opened)
    monkeypatch.setattr(single_pool, "_NEWTON_ITERS", 0)
    pools_seen = 0
    for name, make in CERTIFY_CASES:
        for view, coeffs in _pool_views(make):
            openings.clear()
            oracle._solve_one_pool([view], [coeffs])
            assert openings == [lm.cold_start(view, coeffs, 1.0).prices.tobytes()], (name, view.pool_id)
            pools_seen += 1
    assert pools_seen == 40 + 60 + 40 + 20 + 9


def test_certificate_reuses_the_solve_views(compiles):
    """solve_full compiles each pool once and certifies as a fresh kkt_report on its own point."""
    for name, make in CERTIFY_CASES:
        net, pools, table = make()
        compiles["oracle"].clear()
        sol = lm.solve_full(net, pools, table)
        assert compiles["oracle"] == list(pools.pool_ids), name
        views, coeffs = _views(net, pools, table)
        states = [sol.state.pool_states[k] for k in pools.pool_ids]
        xs, lams = [st.freqs for st in states], [st.prices for st in states]
        fresh = lm.kkt_report(views, coeffs, xs, lams, sol.state.shares.values, sol.state.cost_level)
        assert sol.kkt == fresh, name


STACK_CASES = CERTIFY_CASES + [
    (f"lopsided{scales}_s{seed}", partial(lopsided_instance, scales, seed))
    for scales in ([1, 0.01], [1, 1e-4, 1e4]) for seed in range(3)
]


@pytest.mark.parametrize("make", [make for _, make in STACK_CASES], ids=[name for name, _ in STACK_CASES])
def test_stacked_solve_is_the_pool_by_pool_solve(make, monkeypatch):
    """One Newton solve of all pools stacked gives each pool the optimum its own solve gives.

    solve_full calls _solve_one_pool once per instance.  Its objective,
    shares and share-1 prices and frequencies match separate solves of each
    pool's view, combined by the closed-form split, to 1e-9 relative, and it
    certifies.
    """
    net, pools, table = make()
    views, coeffs = _views(net, pools, table)
    own = [oracle._solve_one_pool([view], [a]) for view, a in zip(views, coeffs)]
    values = np.array([a @ np.sqrt(sol.freqs) for a, sol in zip(coeffs, own)])
    split = values ** 2 / (values ** 2).sum()

    solve = oracle._solve_one_pool
    stacked = []

    def recorded(views, coefficients):
        stacked.append(solve(views, coefficients))
        return stacked[-1]

    monkeypatch.setattr(oracle, "_solve_one_pool", recorded)
    sol = lm.solve_full(net, pools, table)
    assert len(stacked) == 1
    assert sol.converged and sol.kkt.max_scaled() <= 1e-6
    assert sol.objective == pytest.approx(float(np.sqrt(split) @ values), rel=1e-9)
    np.testing.assert_allclose(sol.state.shares.values, split, rtol=1e-9, atol=0.0)
    start = 0
    for p, (view, pool_sol) in enumerate(zip(views, own)):
        lam = stacked[0].prices[p * view.n_edges:(p + 1) * view.n_edges]
        x = stacked[0].freqs[start:start + view.n_lops]
        start += view.n_lops
        np.testing.assert_allclose(lam, pool_sol.prices, rtol=1e-9, atol=1e-9 * pool_sol.prices.max(initial=0.0))
        np.testing.assert_allclose(x, pool_sol.freqs, rtol=1e-9, atol=1e-9 * pool_sol.freqs.max(initial=0.0))
    assert start == len(stacked[0].freqs)


ONE_POOL_CASES = [instances.single_edge, instances.two_lops_one_edge] + [
    partial(instances.grid_instance, seed, 1) for seed in range(20)
]


def test_one_pool_instance_is_its_pool_solve_bit_for_bit(monkeypatch):
    """A one-pool instance is solved on its own view, and its answer is that solve's to the bit."""
    solve = oracle._solve_one_pool
    passed = []

    def recorded(views, coefficients):
        passed.append((views, coefficients))
        return solve(views, coefficients)

    monkeypatch.setattr(oracle, "_solve_one_pool", recorded)
    for make in ONE_POOL_CASES:
        net, pools, table = make()
        (view,), (a,) = _views(net, pools, table)
        passed.clear()
        sol = lm.solve_full(net, pools, table)
        (((seen_view,), (seen_a,)),) = passed
        assert seen_view is view and seen_a.tobytes() == a.tobytes()
        own = solve([view], [a])
        st = sol.state.pool_states[view.pool_id]
        assert sol.state.shares.as_dict() == {view.pool_id: 1.0}
        assert st.freqs.tolist() == own.freqs.tolist()
        assert st.prices.tolist() == own.prices.tolist()
        assert sol.objective == float(a @ np.sqrt(np.maximum(own.freqs, 0.0)))
        assert sol.converged == own.converged


def _stack(views):
    """The dense block-diagonal stack of an instance's pools at share 1: incidence and capacity, every column kept."""
    inc = np.zeros((len(views), views[0].n_edges, sum(view.n_lops for view in views)))
    col = 0
    for block, view in zip(inc, views):
        block[:, col:col + view.n_lops] = view.incidence
        col += view.n_lops
    return np.concatenate(inc), np.tile(views[0].capacity, len(views))


def test_stack_holds_each_pool_on_its_diagonal(monkeypatch):
    """The oracle's reduced stack holds each view's presolve on its diagonal, and nothing lies off it.

    Its budget is the capacity once per pool, its scales the halved
    coefficients in pool order, its lines, edges and covers each view's,
    offset by the pools before it, and its block the views' blocks.
    """
    solve = oracle._clearing_prices
    seen = []

    def recorded(presolve, budget, scale, power, opening):
        seen.append((presolve, budget, scale, power))
        return solve(presolve, budget, scale, power, opening)

    monkeypatch.setattr(oracle, "_clearing_prices", recorded)
    multi = 0
    for name, make in STACK_CASES:
        views, coeffs = _views(*make())
        seen.clear()
        oracle._solve_one_pool(views, coeffs)
        ((stack, budget, scale, power),) = seen
        multi += len(views) > 1
        n_edges = views[0].n_edges
        assert power == 2 and budget.tobytes() == np.tile(views[0].capacity, len(views)).tobytes(), name
        assert scale.tobytes() == np.concatenate([0.5 * a for a in coeffs]).tobytes(), name
        row = col = act = pos = 0
        for p, view in enumerate(views):
            own = view.presolve
            (height, width), n_edged = own.block.shape, len(own.edges)
            assert stack.lines[col:col + view.n_lops].tobytes() == own.lines.tobytes(), name
            assert stack.edges[pos:pos + n_edged].tolist() == (own.edges + p * n_edges).tolist(), name
            assert stack.first[pos:pos + n_edged].tolist() == (own.first + pos).tolist(), name
            assert stack.block[row:row + height, act:act + width].tobytes() == own.block.tobytes(), name
            assert stack.block[row:row + height].sum() == own.block.sum(), name
            row, col, act, pos = row + height, col + view.n_lops, act + width, pos + n_edged
        assert (row, act, col, pos) == (*stack.block.shape, len(stack.lines), len(stack.edges)), name
    assert multi == 20 + 20 + 10 + 10 + 9


@pytest.mark.parametrize("make", [make for _, make in CERTIFY_CASES], ids=[name for name, _ in CERTIFY_CASES])
def test_each_block_keeps_what_the_whole_stack_keeps(make):
    """One-row dominance block by block keeps, per pool, exactly the edges it keeps on the whole stack.

    The whole stack is every pool's incidence over its lines that can run,
    on the diagonal, at the capacity once per pool; its kept rows, read
    back as (pool, edge id) pairs, are the views' kept edges.
    """
    views, _ = _views(*make())
    inc, capacity = _stack(views)
    edges, first = network._implied_rows(inc[:, np.concatenate([view.runs for view in views])], capacity)
    n_edges = views[0].n_edges
    whole = {(int(e) // n_edges, views[0].edge_ids[int(e) % n_edges]) for e in edges[first == np.arange(len(first))]}
    blocks = set()
    for p, view in enumerate(views):
        own = view.presolve
        blocks |= {(p, view.edge_ids[e]) for e in own.edges[own.first == np.arange(len(own.first))]}
    assert blocks == whole


def test_large_grids_presolve_block_by_block(monkeypatch):
    """The 20x30 four-pool grids, seeds 0-2: solve_full certifies at solver precision.

    The measurements section reports, per seed, the rows each pool's block
    keeps, the Newton iterations and dual evaluations of the one solve, and
    the worst certificate, counts only.
    """
    solve = oracle._solve_one_pool
    counts = []

    def recorded(views, coefficients):
        sol = solve(views, coefficients)
        counts.append((sol.iterations, sol.dual_evals))
        return sol

    monkeypatch.setattr(oracle, "_solve_one_pool", recorded)
    kept, worst = [], 0.0
    for seed in range(3):
        spec = lm.GridSpec(rows=20, cols=30, pools=4, lines_per_pool=40, min_line_len=25, seed=seed)
        net, pools = lm.generate_grid(spec)
        sol = lm.solve_full(net, pools, lm.uniform_utilities(pools, 5.0, 15.0, seed=seed + 100))
        assert sol.converged and sol.kkt.max_scaled() <= 1e-8, seed
        kept.append("/".join(str(len(lm.compile_pool(net, pools, k).presolve.block)) for k in pools.pool_ids))
        worst = max(worst, sol.kkt.max_scaled())
    report.note(f"20x30 four-pool grids, seeds 0-2: kept rows per block {', '.join(kept)}; Newton iterations / "
                f"dual evaluations {', '.join(f'{i} / {e}' for i, e in counts)}; worst certificate {worst:.2g}")


def test_kkt_valuations_must_match_the_pools():
    """A valuation for a pair the system lacks fails the certificate as it fails run_mechanism and solve_full."""
    net, pools, table = instances.chain_instance(0)
    state = lm.run_mechanism(net, pools, table).state
    ghost = lm.UtilityTable({**table.entries, ("ghost", "k0"): lm.UtilitySpec(1.0)})
    for read in (
        lambda: lm.mechanism_kkt(net, pools, ghost, state),
        lambda: lm.run_mechanism(net, pools, ghost),
        lambda: lm.solve_full(net, pools, ghost),
    ):
        with pytest.raises(lm.InputMismatchError, match=r"extra=\[\('ghost', 'k0'\)\]"):
            read()


@pytest.mark.parametrize(
    "arg, pool, edit, named",
    [
        ("shares", None, lambda s: s[:1], r"1 shares for the 2 pools \['k0', 'k1'\]"),
        ("shares", None, lambda s: [*s, 0.0], r"3 shares for the 2 pools \['k0', 'k1'\]"),
        ("freqs", 1, lambda x: x[:-1], r"candidate of pool 'k1': freqs has shape \(\d+,\); the instance needs"),
        ("prices", 0, lambda lam: np.append(lam, 1.0), r"candidate of pool 'k0': prices has shape \(\d+,\)"),
        ("coefficients", 1, lambda a: a[:-1], r"candidate of pool 'k1': coefficients has shape \(\d+,\)"),
    ],
    ids=["missing-pool", "extra-share", "short-freqs", "long-prices", "short-coefficients"],
)
def test_kkt_rejects_a_candidate_that_does_not_fit_the_views(arg, pool, edit, named):
    """Per-pool sequences that miss a pool or hold one too many, or an array not of its view's
    length, are named at the boundary, not certified short or failed inside numpy."""
    net, pools, table = instances.chain_instance(3)
    state = lm.run_mechanism(net, pools, table).state
    views, coeffs = _views(net, pools, table)
    args = {
        "views": views,
        "coefficients": coeffs,
        "freqs": [state.pool_states[k].freqs for k in pools.pool_ids],
        "prices": [state.pool_states[k].prices for k in pools.pool_ids],
        "shares": list(state.shares.values),
        "cost_level": state.cost_level,
    }
    lm.kkt_report(**args)
    if pool is None:
        args[arg] = edit(args[arg])
    else:
        args[arg][pool] = edit(args[arg][pool])
    with pytest.raises(lm.InputMismatchError, match=named):
        lm.kkt_report(**args)


@pytest.mark.parametrize("level", ["3", True, None], ids=repr)
def test_kkt_cost_level_must_be_a_real_number(level):
    """A cost level that is no real number is named at the boundary, not failed inside abs or read as 1."""
    net, pools, table = instances.chain_instance(3)
    state = lm.run_mechanism(net, pools, table).state
    views, coeffs = _views(net, pools, table)
    with pytest.raises(ValueError, match=rf"cost_level must be a real number, got {level!r}"):
        lm.kkt_report(views, coeffs, [state.pool_states[k].freqs for k in pools.pool_ids],
                      [state.pool_states[k].prices for k in pools.pool_ids], list(state.shares.values), level)


def test_mechanism_state_of_another_chain_is_rejected():
    """Chain 0 runs operators and prices edges chain 1 lacks; its state is not chain 1's candidate."""
    other = lm.run_mechanism(*instances.chain_instance(0)).state
    with pytest.raises(lm.InputMismatchError, match="state of pool 'k0' has other edges or operators than the instance"):
        lm.mechanism_kkt(*instances.chain_instance(1), other)


def test_mechanism_certificate_checks_the_state_on_its_own_views(compiles):
    """mechanism_kkt compiles each pool once, for the state check and the certificate alike,
    and rejects a state no warm start would take instead of certifying it."""
    net, pools, table = instances.chain_instance(3)
    state = lm.run_mechanism(net, pools, table).state
    report = lm.mechanism_kkt(net, pools, table, state)
    assert compiles["oracle"] == list(pools.pool_ids)
    assert report.max_scaled() <= 0.1
    st = state.pool_states["k1"]
    for name, bad in (("prices", st.prices[:-1]), ("freqs", np.where(st.freqs > 0.0, np.nan, st.freqs))):
        broken = copy.deepcopy(state)
        setattr(broken.pool_states["k1"], name, bad)
        with pytest.raises(lm.InputMismatchError, match=rf"state of pool 'k1': {name} "):
            lm.mechanism_kkt(net, pools, table, broken)


def _same_arrays(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# the 20 chains and the README quick start (one edge of capacity 4, valuations 2 and 1)
RUN_CASES = [(f"chain{seed}", partial(instances.chain_instance, seed)) for seed in range(20)] + [
    ("readme", partial(instances.shared_edge_two_pools, 0.5))
]


@pytest.mark.parametrize("make", [make for _, make in RUN_CASES], ids=[name for name, _ in RUN_CASES])
def test_run_is_certified_on_its_own_views(make):
    """A run reads compile_pool's shared views, so mechanism_kkt, the one certificate of a run,
    reads the views the run ran on: its report is kkt_report's on the run's arrays bit for bit."""
    net, pools, table = make()
    res = lm.run_mechanism(net, pools, table)
    assert res.converged
    assert instances.certificate(net, pools, table, res.state).max_scaled() <= 0.1


# the lopsided 4x6 grids, at a pool_scale and a seed, whose runs spend a pool's budget at the default step
SPENT_LOPSIDED = (([1, 0.01], 0), ([1, 1, 0.003], 0), ([1, 1, 0.003], 1), ([1, 1, 0.003], 4))


@pytest.mark.parametrize("scales, seed", SPENT_LOPSIDED, ids=[f"{scales}-s{seed}" for scales, seed in SPENT_LOPSIDED])
def test_lopsided_run_that_spends_its_budget_is_certified_not_raised(scales, seed):
    """The one certification path reports on a run that spends its budget, and does not raise.

    The arbitrary-states family certifies its runs that spend theirs the same way.
    """
    net, pools, table = lopsided_instance(scales, seed)
    res = lm.run_mechanism(net, pools, table)
    assert not res.converged
    assert 0.1 < instances.certificate(net, pools, table, res.state).max_scaled() < math.inf


FIXED_POINT_CASES = [(f"chain{seed}", partial(instances.chain_instance, seed)) for seed in range(20)] + [
    (f"grid{seed}_k{k}", partial(instances.grid_instance, seed, k)) for k in (1, 2) for seed in range(5)
]


@pytest.mark.parametrize("make", [make for _, make in FIXED_POINT_CASES], ids=[name for name, _ in FIXED_POINT_CASES])
def test_optimum_is_the_mechanism_fixed_point(make):
    """The oracle answers as a run does, so its state is one the mechanism rests at.

    A run warm-started at solve_full's state stops at once, with no price or
    split update, and mechanism_kkt certifies that state to solve_full's own
    report bit for bit.  Its bids are the best responses to its path prices,
    to twice the certificate's stationarity bound.
    """
    net, pools, table = make()
    sol = lm.solve_full(net, pools, table)
    res = lm.run_mechanism(net, pools, table, warm=sol.state)
    assert res.converged, res.diagnostics
    assert (res.f_updates, sum(res.price_updates.values())) == (0, 0)
    assert repr(lm.mechanism_kkt(net, pools, table, sol.state)) == repr(sol.kkt)
    views, coeffs = _views(net, pools, table)
    for view, a in zip(views, coeffs):
        st = sol.state.pool_states[view.pool_id]
        run = st.freqs > 0.0
        mu = (view.incidence.T @ st.prices)[run]
        np.testing.assert_allclose(st.bids[run], lm.utility.best_response_bids(a[run], mu), rtol=2e-8, atol=0.0)


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
            fair_ratio, neck = network._fair_split(view.incidence, view.capacity)
            bids = 0.5 * coeffs * np.sqrt(fair_ratio)
            bids[::2] = 0.0
            yield view.incidence, view.capacity, bids, 1, single_pool._neck_prices(neck, bids, view.capacity), bids > 0.0
            crossing = view.incidence.sum(axis=1)
            closed = view.capacity.copy()
            closed[np.argmin(np.where(crossing > 0.0, crossing, np.inf))] = 0.0
            scale = 0.5 * coeffs
            opening = single_pool._neck_prices(neck, scale * np.sqrt(fair_ratio), view.capacity)
            yield view.incidence, closed, scale, 2, opening, ~view.incidence[closed <= 0.0].any(axis=0)


def test_inactive_operator_is_invisible_to_the_newton_solve():
    """A solve with inactive operators is, bit for bit, the solve with their columns deleted."""
    partly = 0
    for incidence, budget, scale, power, opening, act in _inactive_operator_cases():
        full = _clear(incidence, budget, scale, power, opening)
        cut = _clear(incidence[:, act], budget, scale[act], power, opening)
        assert full.prices.tobytes() == cut.prices.tobytes()
        assert full.freqs[act].tobytes() == cut.freqs.tobytes()
        assert full.freqs[~act].tobytes() == np.zeros(np.count_nonzero(~act)).tobytes()
        assert (full.converged, full.iterations, full.dual_evals) == (cut.converged, cut.iterations, cut.dual_evals)
        assert full.converged
        partly += act.any() and not act.all()
    assert partly >= 100


def test_dual_evaluations_cover_every_iteration(monkeypatch):
    """Each iteration evaluates at least its accepted trial; the opening is evaluated once."""
    for name, make in CERTIFY_CASES:
        for view, coeffs in _pool_views(make):
            sol = oracle._solve_one_pool([view], [coeffs])
            assert sol.converged and sol.dual_evals >= sol.iterations >= 1, (name, view.pool_id)
    view, coeffs = next(_pool_views(partial(instances.chain_instance, 0)))
    opening = lm.cold_start(view, coeffs, 1.0).prices
    with monkeypatch.context() as m:
        m.setattr(single_pool, "_NEWTON_ITERS", 0)
        start = oracle._clearing_prices(view.presolve, view.capacity, 0.5 * coeffs, 2, opening)
    assert (start.iterations, start.dual_evals) == (0, 1)
    idle = _clear(view.incidence, view.capacity, 0.0 * coeffs, 2, opening)
    assert (idle.iterations, idle.dual_evals) == (0, 0)


def _cover_cases():
    """(incidence, budget) pairs: every STACK_CASES stack, then random 0/1 matrices with tied budgets."""
    for _, make in STACK_CASES:
        yield _stack(_views(*make())[0])
    rng = np.random.default_rng(28)
    for trial in range(2000):
        m, k = int(rng.integers(1, 30)), int(rng.integers(1, 10))
        rows = (rng.random((m, k)) < rng.random()).astype(float)
        # every other matrix draws its rows from a few, so equal rows abound
        if trial % 2:
            rows = rows[rng.integers(0, max(1, m // 4), size=m)]
        rows[rng.integers(m), rng.integers(k)] = 1.0  # some edge is crossed
        yield rows, rng.integers(1, 4, size=m).astype(float)


def test_each_implied_row_keeps_a_cover():
    """Each dropped row's cover crosses all of its lines at no larger budget, and no kept row covers another.

    The first is what makes pricing the dropped row at zero lose no optimum;
    the second, that one-row dominance drops every row it can, whatever
    order the rows are listed in.
    """
    dropped = strict = 0
    for rows, budget in _cover_cases():
        edges, first = network._implied_rows(rows, budget)
        n = len(edges)
        np.testing.assert_array_equal(np.sort(edges), np.flatnonzero(rows.any(axis=1)))
        lines = rows[edges] > 0.0
        assert (first <= np.arange(n)).all()
        assert (first[first] == first).all()  # a cover is kept
        assert (lines[first] | ~lines).all()  # and crosses every line of the row it covers
        assert (budget[edges[first]] <= budget[edges]).all()
        kept = np.flatnonzero(first == np.arange(n))
        for i in kept:
            covers = (lines[kept] | ~lines[i]).all(axis=1) & (budget[edges[kept]] <= budget[edges[i]])
            assert np.flatnonzero(covers).tolist() == [np.searchsorted(kept, i)]
        dropped += n - len(kept)
        strict += int(np.count_nonzero(lines[first].sum(axis=1) > lines.sum(axis=1)))
    assert dropped > 0 and strict > 0


def test_newton_counts_do_not_read_the_edge_order(monkeypatch):
    """Listing a tied-capacity grid's edges and lines in another order leaves the Newton counts as they are.

    Each 7x12 grid's capacities are rounded up to multiples of 20, so
    edges tie in capacity while one crosses more lines than the other.
    The presolve must break such ties by the rows, not by the order the
    edges are listed in, else another order keeps other rows.
    """
    solve = oracle._solve_one_pool
    counts = []

    def recorded(views, coefficients):
        sol = solve(views, coefficients)
        counts.append((sol.iterations, sol.dual_evals))
        return sol

    monkeypatch.setattr(oracle, "_solve_one_pool", recorded)
    for k in (1, 2):
        for seed in range(20):
            net, pools, table = instances.grid_instance(seed, k)
            net = net.with_capacities({e.id: 20.0 * math.ceil(e.capacity / 20.0) for e in net.edges})
            rng = np.random.default_rng(seed)
            counts.clear()
            for trial in range(3):
                edges = [net.edges[i] for i in rng.permutation(len(net.edges))] if trial else net.edges
                keys = list(pools.lines)
                keys = [keys[i] for i in rng.permutation(len(keys))] if trial == 2 else keys
                reordered = lm.PoolSystem(pools.pool_ids, {key: pools.lines[key] for key in keys})
                assert lm.solve_full(lm.Network(net.nodes, edges), reordered, table).converged
            assert counts.count(counts[0]) == 3, (seed, k, counts)


def test_oracle_opens_at_cold_start(monkeypatch):
    """Newton opens at cold_start's share-1 prices, each implied edge's moved onto its first cover.

    The rule is restated with a loop over edges: the edges are ordered by
    capacity, more lines crossed first, then by their incidence rows read
    from the last operator, then as listed, and an edge's cover is the
    first edge in that order crossing all of its lines.  The chains give
    covers of several edges, the tied pair splits one line's opening bid
    over two equal rows, which the sum rejoins, and the nested pair and
    the grids drop edges whose lines are a strict subset of their cover's.
    """
    tied = (
        lm.Network(["u", "v", "w"], [lm.Edge("e1", "u", "v", 4.0), lm.Edge("e2", "v", "w", 4.0)]),
        lm.PoolSystem(["k0"], {("lop0", "k0"): lm.Line(("e1", "e2"))}),
        lm.UtilityTable({("lop0", "k0"): lm.UtilitySpec(2.0)}),
    )
    nested = (
        lm.Network(["u", "v", "w", "x"], [lm.Edge("e1", "u", "v", 5.0), lm.Edge("e2", "v", "w", 4.0),
                                          lm.Edge("e3", "w", "x", 4.0)]),
        lm.PoolSystem(["k0"], {("lop0", "k0"): lm.Line(("e1", "e2")), ("lop1", "k0"): lm.Line(("e2", "e3"))}),
        lm.UtilityTable({("lop0", "k0"): lm.UtilitySpec(2.0), ("lop1", "k0"): lm.UtilitySpec(1.0)}),
    )
    grids = [instances.grid_instance(seed, 1) for seed in range(2)]
    monkeypatch.setattr(single_pool, "_NEWTON_ITERS", 0)
    merged = summed = strict = 0
    for net, pools, table in [instances.chain_instance(seed) for seed in range(20)] + [tied, nested] + grids:
        for k in pools.pool_ids:
            view = lm.compile_pool(net, pools, k)
            coeffs = table.coefficients_for(view)
            opening = lm.cold_start(view, coeffs, 1.0).prices
            lines = {e: set(np.flatnonzero(view.incidence[e])) for e in range(view.n_edges) if view.incidence[e].any()}
            order = sorted(lines, key=lambda e: (view.capacity[e], -len(lines[e]), tuple(view.incidence[e][::-1]), e))
            members: dict[int, list[int]] = {}
            for e in order:
                cover = next(c for c in order if lines[c] >= lines[e])
                members.setdefault(cover, []).append(e)
                strict += lines[cover] > lines[e]
            expected = np.zeros(view.n_edges)
            for cover, group in members.items():
                expected[cover] = sum(opening[e] for e in group)
                merged += len(group) > 1
                summed += sum(opening[e] > 0.0 for e in group) > 1
            sol = oracle._solve_one_pool([view], [coeffs])
            assert sol.iterations == 0
            np.testing.assert_allclose(sol.prices, expected, rtol=1e-15, atol=0.0)
    assert merged > 1 and summed > 0 and strict > 0


def test_closed_edge_is_certified_not_crashed(monkeypatch):
    """A zero-capacity edge is legal input; the overload row scales by a floor."""
    net, pools, table = instances.chain_instance(3)
    closed = net.with_capacities({"e5": 0.0})
    monkeypatch.setattr(single_pool, "_MAX_PASSES", 50)
    mech = lm.run_mechanism(closed, pools, table)
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
                assert sol.state.pool_states[k].freq_map()[lop] == 0.0
    assert all(st.price_map()["e5"] == 0.0 for st in sol.state.pool_states.values())


def test_failed_certificate_is_not_converged(monkeypatch):
    """A pool solve that claims convergence at a wrong point fails the certificate."""
    solve = oracle._solve_one_pool

    def halved(views, coefficients):
        sol = solve(views, coefficients)
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


def _keyed_point(state):
    """A state's point keyed by (operator, pool) and (edge, pool), zero prices left out, as the reference reads it."""
    freqs, prices = {}, {}
    for k, st in state.pool_states.items():
        freqs.update({(lop, k): float(x) for lop, x in zip(st.lop_ids, st.freqs)})
        prices.update({(eid, k): float(lam) for eid, lam in zip(st.edge_ids, st.prices) if lam != 0.0})
    return freqs, state.shares.as_dict(), prices, state.cost_level


def test_certifier_matches_dict_loop_reference(k1_baseline, k2_baseline):
    """Mechanism and oracle points of 20 chains and two grids certify as before.

    Both points are states; the reference reads each keyed by (operator,
    pool) and (edge, pool), the certifier reads the state's own arrays."""
    cases = [(*instances.chain_instance(seed), None) for seed in range(20)]
    cases += [k1_baseline(0), k2_baseline(0)]
    for net, pools, table, mech in cases:
        mech = mech or lm.run_mechanism(net, pools, table)
        sol = lm.solve_full(net, pools, table)
        views, coeffs = _views(net, pools, table)
        for state in (mech.state, sol.state):
            states = [state.pool_states[k] for k in pools.pool_ids]
            xs, lams = [st.freqs for st in states], [st.prices for st in states]
            point = _keyed_point(state)
            new = lm.kkt_report(views, coeffs, xs, lams, state.shares.values, point[-1])
            ref = _dict_loop_kkt(net, pools, table, *point)
            raw_tol = 1e-12 * max(1.0, abs(point[-1]))
            assert (new.stationarity_raw is None) == (ref.stationarity_raw is None)
            for name in lm.KKTReport.__dataclass_fields__:
                a, b = getattr(new, name), getattr(ref, name)
                if a is not None:
                    assert abs(a - b) <= (raw_tol if name.endswith("_raw") else 1e-12), name
            assert abs(new.max_scaled() - ref.max_scaled()) <= 1e-12


def reference_kkt(views, coefficients, freqs, prices, shares, cost_level):
    """kkt_report as the masked formulas read it: every selection by mask, every maximum by max(initial=0.0)."""
    level_scale = max(abs(cost_level), 1e-30)
    share_vec = np.asarray(shares, dtype=float)
    stat_raw = stat_rel = None
    comp_raw = over_raw = over_rel = spread_raw = 0.0
    neg = max(0.0, -float(share_vec.min(initial=0.0)))
    for view, a, x, lam, share in zip(views, coefficients, freqs, prices, share_vec):
        neg = max(neg, -float(x.min(initial=0.0)), -float(lam.min(initial=0.0)))
        run = x > 0.0
        if run.any():
            mu = (view.incidence.T @ lam)[run]
            gap = np.abs(a[run] / (2.0 * np.sqrt(x[run])) - mu)
            stat_raw = max(stat_raw or 0.0, float(gap.max()))
            stat_rel = max(stat_rel or 0.0, float((gap / np.maximum(mu, 1e-30)).max()))
        if (~run & (view.bottleneck * share > 0.0)).any():
            stat_rel = max(stat_rel or 0.0, 1.0)
        slack = view.incidence @ x - view.capacity * share
        comp_raw = max(comp_raw, float(np.abs(lam * slack).max(initial=0.0)))
        over_raw = max(over_raw, float(slack.max(initial=0.0)))
        over_rel = max(over_rel, float((slack / np.maximum(view.capacity, 1e-30)).max(initial=0.0)))
        if share > 0.0:
            spread_raw = max(spread_raw, abs(float(view.capacity @ lam) - cost_level))
    total_share = float(share_vec.sum())
    split_comp_raw = abs(cost_level * (total_share - 1.0))
    return lm.KKTReport(
        stat_raw, stat_rel, spread_raw, spread_raw / level_scale, comp_raw, comp_raw / level_scale,
        split_comp_raw, split_comp_raw / level_scale, over_raw, over_rel, max(0.0, total_share - 1.0), neg,
    )


def test_certifier_matches_masked_reference_bitwise():
    """kkt_report gives the masked formulas' bytes, on points where every operator runs and on points where some do not.

    The points are random, on the views of five chains, of chain 3 with
    an edge closed and of a 7x12 two-pool grid: some give every operator a
    positive frequency, which kkt_report reads without its masks, and the
    others take the masked side, with zero frequencies, idle lines that
    could run, zero path prices and a line over the closed edge.  Every
    third point has negative entries, which only negativity reports.
    """
    rng = np.random.default_rng(27)
    cases = [instances.chain_instance(seed) for seed in range(5)]
    net, pools, table = instances.chain_instance(3)
    cases.append((net.with_capacities({"e5": 0.0}), pools, table))
    cases.append(instances.grid_instance(0, 2))
    instance_views = [_views(*case) for case in cases]
    seen = {"every operator runs": 0, "zero frequency": 0, "idle line that could run": 0,
            "zero path price": 0, "line over a closed edge": 0, "negative price": 0, "negative frequency": 0}
    for trial in range(1500):
        views, coeffs = instance_views[trial % len(instance_views)]
        running = trial % 2 == 0
        xs = [rng.uniform(0.01, 5.0, v.n_lops) * (1.0 if running else rng.random(v.n_lops) < 0.7) for v in views]
        lams = [rng.uniform(0.0, 2.0, v.n_edges) * (rng.random(v.n_edges) < rng.random()) for v in views]
        if trial % 3 == 0:
            lams = [lam * np.where(rng.random(len(lam)) < 0.2, -1.0, 1.0) for lam in lams]
            if not running:
                xs = [x * np.where(rng.random(len(x)) < 0.2, -1.0, 1.0) for x in xs]
        shares = rng.dirichlet(np.ones(len(views)))
        level = float(rng.uniform(0.5, 50.0))
        got = lm.kkt_report(views, coeffs, xs, lams, shares, level)
        assert repr(got) == repr(reference_kkt(views, coeffs, xs, lams, shares, level)), trial
        for view, x, lam, share in zip(views, xs, lams, shares):
            seen["every operator runs"] += int(bool(np.all(x > 0.0)))
            seen["zero frequency"] += int(np.sum(x == 0.0))
            seen["idle line that could run"] += int(np.sum((x == 0.0) & (view.bottleneck * share > 0.0)))
            seen["zero path price"] += int(np.sum(view.incidence.T @ lam == 0.0))
            seen["line over a closed edge"] += int(np.sum(view.bottleneck == 0.0))
            seen["negative price"] += int(np.sum(lam < 0.0))
            seen["negative frequency"] += int(np.sum(x < 0.0))
    assert min(seen.values()) > 0, seen


def test_newton_step_is_numpy_solve_bit_for_bit():
    """The Newton step solves as np.linalg.solve does, to the byte, and raises LinAlgError where it does."""
    rng = np.random.default_rng(382)
    for n in range(1, 9):
        for _ in range(50):
            rows = rng.random((n, n + 2)) < 0.6
            hess = (rows * rng.uniform(0.1, 5.0, n + 2)) @ rows.T.astype(float)
            hess.flat[:: n + 1] += 1e-9
            rhs = rng.normal(size=n)
            assert single_pool._newton_step(hess, rhs).tobytes() == np.linalg.solve(hess, rhs).tobytes()
    singular = np.array([[1.0, 2.0], [2.0, 4.0]])
    for solve in (np.linalg.solve, single_pool._newton_step):
        with pytest.raises(np.linalg.LinAlgError, match="Singular matrix"):
            solve(singular, np.array([1.0, 0.0]))


def _frozen_bid_pool(seed, pool):
    """A chain pool's incidence, capacity, frozen bids (half the coefficients) and cold-start prices."""
    net, pools, table = instances.chain_instance(seed)
    view = lm.compile_pool(net, pools, pool)
    coeffs = table.coefficients_for(view)
    return view.incidence, view.capacity, 0.5 * coeffs, lm.cold_start(view, coeffs, 1.0).prices


@pytest.mark.parametrize("seed, pool", [(7, "k0"), (15, "k1")])
def test_descent_stops_where_no_step_moves_the_prices(seed, pool, monkeypatch):
    """At a _NEWTON_TOL of 0 only exact clearing passes the stop test, which these two pools reach.

    Forced with no room for the dual value's rounding (_ROUNDING 0), the
    descent reaches a point where every trial step the Armijo test accepts
    leaves the prices as they are, so that trial is not taken (the
    zero-move break), no candidate is accepted, and the solve returns,
    unconverged, long before its iteration budget (the no-accept break),
    next to the point the default _NEWTON_TOL accepts.  Without either
    break it would repeat that point to the budget.
    """
    incidence, capacity, bids, opening = _frozen_bid_pool(seed, pool)
    cleared = _clear(incidence, capacity, bids, 1, opening)
    monkeypatch.setattr(single_pool, "_NEWTON_TOL", 0.0)
    assert _clear(incidence, capacity, bids, 1, opening).converged
    monkeypatch.setattr(single_pool, "_ROUNDING", 0.0)
    stuck = _clear(incidence, capacity, bids, 1, opening)
    assert cleared.converged and not stuck.converged
    assert cleared.iterations < stuck.iterations < single_pool._NEWTON_ITERS
    np.testing.assert_allclose(stuck.prices, cleared.prices, rtol=1e-9)


def test_newton_fallbacks_take_the_gradient(monkeypatch):
    """A Newton system LAPACK calls singular, and a Newton step that does not descend, both leave the
    iteration its projected gradient step.

    The damped system is positive definite, so neither happens but through
    rounding, and no solve of the suite meets either.  Forced at every
    iteration, both give the same gradient-only descent, bit for bit,
    which lowers chain 0's clearing terms from the opening's, though not
    to solver precision in 300 iterations.
    """
    incidence, capacity, scale, opening = _frozen_bid_pool(0, "k0")
    scale = 2.0 * scale  # the valuations' a / 2, at power 2

    def singular(hess, rhs):
        raise np.linalg.LinAlgError("Singular matrix")

    def ascent(hess, rhs):
        return -rhs

    newton = _clear(incidence, capacity, scale, 2, opening)
    runs = []
    for step in (singular, ascent):
        monkeypatch.setattr(single_pool, "_newton_step", step)
        runs.append(_clear(incidence, capacity, scale, 2, opening))
    assert newton.converged and newton.iterations < 10
    assert runs[0].prices.tobytes() == runs[1].prices.tobytes() and runs[0].freqs.tobytes() == runs[1].freqs.tobytes()
    assert (runs[0].converged, runs[0].iterations, runs[0].dual_evals) == (False, 300, runs[1].dual_evals)

    def terms(prices):
        mu = np.maximum(incidence.T @ prices, single_pool._TINY)
        return max(single_pool._clearing_terms(prices, incidence @ ((scale / mu) ** 2) - capacity))

    assert terms(runs[0].prices) < terms(opening)


def test_cost_level_is_mean_cost_of_pools_holding_a_share():
    """The oracle's cost level is a run's: the mean network cost over the pools of positive share, exactly."""
    cases = [instances.shared_edge_two_pools(0.5)] + [instances.chain_instance(seed) for seed in range(5)]
    for net, pools, table in cases:
        sol = lm.solve_full(net, pools, table)
        by_pool = {k: 0.0 for k in pools.pool_ids}
        for k, st in sol.state.pool_states.items():
            for eid, lam in st.price_map().items():
                by_pool[k] += net.capacity(eid) * lam
        assert sol.state.pool_costs == pytest.approx(by_pool, rel=1e-12)
        held = [sol.state.pool_costs[k] for k in pools.pool_ids if sol.state.shares.share(k) > 0.0]
        assert sol.state.cost_level == float(np.mean(held))


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
