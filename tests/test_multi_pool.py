"""Outer loop: pool costs, split updates, the equal-cost fixed point."""
import dataclasses
import math
import re
import warnings

import numpy as np
import pytest

import linemarket as lm
from linemarket import multi_pool

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

    def test_rejects_non_finite(self):
        # a non-finite entry is named before a negative one, NaN after a negative included
        for values in ([np.nan, np.nan], [np.inf, -np.inf], [np.nan, 1.0],
                       [1.0, -np.inf], [-0.5, np.nan], [np.inf, 1.0]):
            with pytest.raises(ValueError, match="finite"):
                lm.ProportionVector(("k0", "k1"), np.array(values))
        with pytest.raises(ValueError, match="nonnegative"):
            lm.ProportionVector(("k0", "k1"), np.array([-0.5, 1.5]))
        assert lm.ProportionVector(("k0", "k1"), np.array([-0.0, 1.0])).share("k1") == 1.0

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            lm.ProportionVector(("k0",), np.array([0.5, 0.5]))
        # one value per pool id, not one row: a column of the right length is refused
        with pytest.raises(lm.InputMismatchError, match=r"split: proportion has shape \(2, 1\); the instance needs \(2,\)"):
            lm.ProportionVector(("a", "b"), [[0.5], [0.5]])

    @pytest.mark.parametrize("values", [np.array(["0.5", "0.5"]), [True, False], np.array([True, False]),
                                        [0.5, "0.5"], [None, 1.0]], ids=repr)
    def test_rejects_entries_that_are_not_real(self, values):
        """A split is read by _check_real's rule: float() would take "0.5" and True, a split does not."""
        with pytest.raises(ValueError, match="proportion must be a real number"):
            lm.ProportionVector(("k0", "k1"), values)

    def test_rejects_a_string_of_pool_ids(self):
        """A str is no collection of pool ids: "ab" built a split over pools 'a' and 'b'."""
        with pytest.raises(ValueError, match="pool_ids must be a collection of names, not the string 'ab'"):
            lm.ProportionVector("ab", [0.5, 0.5])

    def test_takes_any_real_entries(self):
        for values in ([0.5, 0.5], (np.float32(0.25), 0.75), np.array([1, 0]), np.array([0.5, 0.5], dtype=object)):
            assert lm.ProportionVector(("k0", "k1"), values).values.dtype == np.float64

    def test_as_dict(self):
        assert shares2(0.3, 0.7).as_dict() == {"k0": 0.3, "k1": 0.7}

    def test_share_of_an_unknown_pool_is_named(self):
        """A pool the split does not cover is named, not left to tuple.index's bare error."""
        with pytest.raises(lm.InputMismatchError, match=r"no share for pool 'unknown'; it covers \['k0', 'k1'\]"):
            shares2().share("unknown")


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
        out = lm.update_proportions(shares2(), np.array([6.0, 2.0]))
        # mean cost 4: pre-norm (0.5 * 1.5^2, 0.5 * 0.5^2) = (1.125, 0.125)
        np.testing.assert_allclose(out.values, [0.9, 0.1], atol=1e-12)

    def test_equal_costs_fixed_point(self):
        out = lm.update_proportions(shares2(), np.array([5.0, 5.0]))
        np.testing.assert_allclose(out.values, [0.5, 0.5], atol=1e-15)

    def test_below_average_pool_not_pushed(self):
        # a pool of cost zero keeps none of its share
        out = lm.update_proportions(shares2(), np.array([0.0, 8.0]))
        np.testing.assert_array_equal(out.values, [0.0, 1.0])

    def test_zero_mean_cost_skips(self):
        start = shares2(0.4, 0.6)
        out = lm.update_proportions(start, np.array([0.0, 0.0]))
        np.testing.assert_allclose(out.values, start.values)

    def test_split_no_share_can_move_stays(self):
        """Every pool holding a share costs zero while the mean is positive: no share can move, so the
        split comes back as it was, not as 0 / 0 (a NaN split the suite's warning filter refuses)."""
        start = lm.ProportionVector(("a", "b"), [1.0, 0.0])
        assert lm.update_proportions(start, [0.0, 5.0]) is start

    def test_ordering_follows_costs(self):
        out = lm.update_proportions(shares2(), np.array([6.0, 2.0]))
        assert out.values[0] > 0.5 > out.values[1]

    def test_one_step_lands_on_the_optimal_split(self):
        """Fed the exact costs a_k / sqrt(f_k), one step from any split gives a_k^2 / sum a_j^2."""
        rng = np.random.default_rng(6)
        for trial in range(200):
            n = int(rng.integers(2, 6))
            values = rng.dirichlet(np.ones(n))
            start = lm.ProportionVector(tuple(f"k{i}" for i in range(n)), values)
            a = rng.uniform(1.0, 3.0, n)
            out = lm.update_proportions(start, a / np.sqrt(values))
            np.testing.assert_allclose(out.values, a**2 / np.sum(a**2), rtol=1e-12, err_msg=str(trial))

    @pytest.mark.parametrize("costs, named", [
        ([6.0, 2.0, 1.0], r"split update: costs has shape \(3,\); the instance needs \(2,\)"),
        ([np.nan, 2.0], "split update: costs holds a negative or non-finite entry"),
        ([-2.0, 2.0], "split update: costs holds a negative or non-finite entry"),
        ([np.inf, 2.0], "split update: costs holds a negative or non-finite entry"),
        (["6", "2"], "split update: costs must be a real number, got '6'"),
        ([True, False], "split update: costs must be a real number, got True"),
    ], ids=["wrong-length", "nan", "negative", "infinite", "strings", "bools"])
    def test_rejects_costs_no_pool_can_have(self, costs, named):
        """One finite, nonnegative real cost per pool: numpy's broadcast error, a NaN that left the split as
        it was, a -2 read as 2 and a "6" or a True read as 6 or 1 are all refused at the boundary, naming
        the costs."""
        with pytest.raises(ValueError, match=named):
            lm.update_proportions(shares2(), costs)


@pytest.mark.parametrize("value", [True, False, "0.05", None], ids=repr)
def test_equal_cost_tolerance_must_be_a_real_number(value):
    """A bool or a string is rejected with ValueError, not read as 1.0 or left to fail a comparison."""
    with pytest.raises(ValueError, match="eps_cost must be a real number"):
        lm.MechanismConfig(eps_cost=value)


@pytest.mark.parametrize("inner", [None, 0.1, {"price_eta": 0.1}], ids=repr)
def test_inner_dynamics_must_be_a_dynamics_config(inner):
    """Anything else constructed and failed inside the pool run with an AttributeError."""
    with pytest.raises(ValueError, match=rf"inner must be a DynamicsConfig, got {re.escape(repr(inner))}"):
        lm.MechanismConfig(inner=inner)


def test_config_validation():
    for eps in (0.0, -0.05, math.inf, math.nan):
        with pytest.raises(ValueError, match="eps_cost"):
            lm.MechanismConfig(eps_cost=eps)
    with pytest.raises(TypeError):
        lm.MechanismConfig(max_outer=200)  # the split budget is the engine constant _MAX_OUTER
    with pytest.raises(TypeError):
        lm.MechanismConfig(eta_f=0.1)  # the additive split step is retired
    with pytest.raises(TypeError):
        lm.MechanismConfig(f_floor=1e-4)  # the split update needs no lower bound


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
        table.spec(lop, k).coefficient * math.sqrt(x)
        for k, st in res.state.pool_states.items() for lop, x in st.freq_map().items()
    )
    assert res.objective == pytest.approx(expect, rel=1e-12)


def test_outer_budget_exhaustion_reports_diagnostics(monkeypatch):
    # at eps_cost 0.005 chain 6 needs two split updates, so a budget of one runs out
    net, pools, table = instances.chain_instance(6)
    monkeypatch.setattr(multi_pool, "_MAX_OUTER", 1)
    res = lm.run_mechanism(net, pools, table, lm.MechanismConfig(eps_cost=0.005))
    assert not res.converged
    assert res.diagnostics != ""
    assert res.f_updates == 1


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
    """The 0/1 incidence counts a repeated edge's load once, so engine and certifier refuse it;
    the certified state is the one the line without the repeat converges to."""
    net = lm.Network(["u", "v"], [lm.Edge("e1", "u", "v", 4.0)])
    pools = lm.PoolSystem(["k0"], {("lop0", "k0"): lm.Line(("e1", "e1"))})
    table = lm.UtilityTable({("lop0", "k0"): lm.UtilitySpec(2.0)})
    with pytest.raises(lm.InputMismatchError, match="repeats an edge"):
        lm.run_mechanism(net, pools, table)
    state = lm.run_mechanism(net, lm.PoolSystem(["k0"], {("lop0", "k0"): lm.Line(("e1",))}), table).state
    with pytest.raises(lm.InputMismatchError, match="repeats an edge"):
        lm.mechanism_kkt(net, pools, table, state)


def test_repeated_pool_id_is_rejected():
    """Two pools named k0 would read one set of lines and leave half the capacity unassigned."""
    with pytest.raises(lm.InputMismatchError, match=r"pool ids \['k0'\] are not unique"):
        lm.PoolSystem(["k0", "k0"], {("lop0", "k0"): lm.Line(("e1",)), ("lop1", "k0"): lm.Line(("e1",))})


def _one_edge_pools(n_live, n_dead):
    """n_live pools with one line on an open edge, n_dead with one on a closed edge."""
    net = lm.Network(["u", "v"], [lm.Edge("e1", "u", "v", 4.0), lm.Edge("e0", "u", "v", 0.0)])
    pool_ids = [f"k{i}" for i in range(n_live + n_dead)]
    lines = {("lop0", k): lm.Line(("e1" if i < n_live else "e0",)) for i, k in enumerate(pool_ids)}
    table = lm.UtilityTable({key: lm.UtilitySpec(2.0) for key in lines})
    return net, lm.PoolSystem(pool_ids, lines), table


def test_equal_live_pools_split_evenly_beside_dead_ones():
    """Two pools on a closed edge hold no share; three equal ones on the open edge split it evenly."""
    net, pools, table = _one_edge_pools(3, 2)
    res = lm.run_mechanism(net, pools, table)
    assert res.converged
    np.testing.assert_allclose(res.state.shares.values, [1 / 3, 1 / 3, 1 / 3, 0.0, 0.0], rtol=1e-12)


LOPSIDED_SCALES = [[1.0, 0.01], [1.0, 0.005], [1.0, 0.001], [1.0, 1.0, 0.003]]


@pytest.mark.parametrize("scales", LOPSIDED_SCALES, ids=[str(s) for s in LOPSIDED_SCALES])
def test_lopsided_pools_reach_the_oracle_split(scales):
    """A pool whose optimal share is tiny (2.5e-5 at scale 0.005) gets it in one split update.

    Pools valued base * scale_k on one shared edge split it in proportion to
    scale_k**2, however small that is.
    """
    net, pools, _ = _one_edge_pools(len(scales), 0)
    table = lm.pool_scaled_utilities(pools, 2.0, scales)
    oracle = lm.solve_full(net, pools, table)
    res = lm.run_mechanism(net, pools, table)
    assert res.converged, res.diagnostics
    assert res.f_updates == 1
    np.testing.assert_allclose(res.state.shares.values, oracle.state.shares.values, rtol=1e-9)
    assert lm.mechanism_kkt(net, pools, table, res.state).max_scaled() <= 1e-6


@pytest.mark.parametrize("capacity", [float("nan"), float("inf"), float("-inf"), -4.0])
@pytest.mark.parametrize("solve", [lm.run_mechanism, lm.solve_full], ids=["mechanism", "oracle"])
def test_nonfinite_capacity_is_rejected(solve, capacity):
    """A NaN or negative capacity would run the mechanism through its whole budget.

    No network holds one: building it fails, and so does an update that
    would set one, which leaves the network it was called on runnable.
    """
    with pytest.raises(lm.InputMismatchError, match="non-finite capacity"):
        instances.single_edge(capacity=capacity)
    net, pools, table = instances.single_edge()
    with pytest.raises(lm.InputMismatchError, match="non-finite capacity"):
        net.with_capacities({"e1": capacity})
    assert solve(net, pools, table).converged


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


def _with_entry(value, own_edge=False):
    """A copy of the array with its first entry, or that of the pool's first own edge, set to value."""
    def change(values, own):
        values = values.copy()
        values[own[0] if own_edge else 0] = value
        return values

    return change


# (attribute, change) per malformed warm state.  Past the boundary each
# fails deep in a pool run or misleads it: a short price array raises
# IndexError, a short bid array a broadcast ValueError or nothing at all; a
# NaN, inf or -5 price on an own edge can spend the whole inner budget; a
# NaN bid can return converged=True at a certificate of 1.0.  Of the
# non-float arrays, int64 prices fail at a rescale with numpy's
# UFuncTypeError, object bids with a bare TypeError, and bool freqs run.
MALFORMED_WARM = {
    "price array one short": ("prices", lambda values, own: values[:-1]),
    "bid array one short": ("bids", lambda values, own: values[:-1]),
    "freq array one long": ("freqs", lambda values, own: np.append(values, 1.0)),
    "NaN price": ("prices", _with_entry(np.nan, own_edge=True)),
    "inf price": ("prices", _with_entry(np.inf, own_edge=True)),
    "negative price": ("prices", _with_entry(-5.0, own_edge=True)),
    "NaN bid": ("bids", _with_entry(np.nan)),
    "negative bid": ("bids", _with_entry(-1.0)),
    "inf freq": ("freqs", _with_entry(np.inf)),
    "inf share": ("share", lambda value, own: np.inf),
    "NaN share": ("share", lambda value, own: np.nan),
    "int64 prices": ("prices", lambda values, own: values.astype(np.int64)),
    "object bids": ("bids", lambda values, own: values.astype(object)),
    "bool freqs": ("freqs", lambda values, own: values > 0.0),
    "-inf bid": ("bids", _with_entry(-np.inf)),
    "NaN price after a negative one": ("prices", lambda values, own: np.append(-1.0, np.append(values[1:-1], np.nan))),
}


def _warm_values_pass(values):
    """The warm check's rule for one array, as np.issubdtype and np.isfinite state it."""
    return np.issubdtype(values.dtype, np.floating) and bool((np.isfinite(values) & (values >= 0.0)).all())


@pytest.mark.parametrize("dtype", [np.float64, np.float32, np.float16, np.int64, np.bool_, object])
def test_warm_value_check_decides_as_isfinite(dtype):
    """_check_warm reads the dtype's kind and each array's least and largest entry; it passes and
    rejects what np.issubdtype(dtype, np.floating) and (np.isfinite(v) & (v >= 0)).all() pass and reject."""
    net, pools, table = instances.chain_instance(0)
    warm = lm.run_mechanism(net, pools, table).state
    rng = np.random.default_rng(9)
    specials = np.array([0.0, -0.0, 1.0, -1.0, np.inf, -np.inf, np.nan, 1e-300, 5.0])
    st = warm.pool_states["k1"]
    original = st.freqs
    verdicts = set()
    for _ in range(200):
        values = specials[rng.integers(0, len(specials), size=len(original))]
        if dtype is not object and not np.issubdtype(dtype, np.floating):
            values = np.nan_to_num(values, posinf=2.0, neginf=-2.0)
        st.freqs = values.astype(dtype)
        passes = _warm_values_pass(st.freqs)
        verdicts.add(passes)
        if passes:
            multi_pool._check_warm(warm, {k: lm.compile_pool(net, pools, k) for k in pools.pool_ids})
        else:
            with pytest.raises(lm.InputMismatchError, match="warm state of pool 'k1': freqs "):
                multi_pool._check_warm(warm, {k: lm.compile_pool(net, pools, k) for k in pools.pool_ids})
    assert verdicts == ({True, False} if np.issubdtype(dtype, np.floating) else {False})


def test_mean_is_numpy_mean_bit_for_bit():
    """The mean the split reads is np.mean's, to the byte."""
    rng = np.random.default_rng(5)
    for n in range(1, 40):
        for scale in (1e-300, 1.0, 1e300):
            x = rng.uniform(0.0, 1.0, n) * scale
            assert np.float64(multi_pool._mean(x)).tobytes() == np.float64(np.mean(x)).tobytes()
    for special in ([np.nan, 1.0], [np.inf, 1.0], [np.inf, -np.inf], [-0.0], [-0.0, -0.0]):
        x = np.array(special)
        with np.errstate(invalid="ignore"):
            assert np.float64(multi_pool._mean(x)).tobytes() == np.float64(np.mean(x)).tobytes()


@pytest.mark.parametrize("case", list(MALFORMED_WARM))
@pytest.mark.parametrize("pool", ["k0", "k1"])
@pytest.mark.parametrize("seed", [0, 3, 7])
def test_malformed_warm_pool_state_is_rejected(seed, pool, case):
    """A warm state of the wrong length or dtype, or with a negative or non-finite entry, fails at the boundary."""
    net, pools, table = instances.chain_instance(seed)
    warm = lm.run_mechanism(net, pools, table).state
    name, change = MALFORMED_WARM[case]
    st = warm.pool_states[pool]
    own = lm.compile_pool(net, pools, pool).own_edges
    setattr(st, name, change(getattr(st, name), own))
    with pytest.raises(lm.InputMismatchError, match=rf"warm state of pool '{pool}': {name} "):
        lm.run_mechanism(net, pools, table, warm=warm)


# shares no run can resume: each escaped as a bare TypeError from np.isfinite,
# crashed the run after the certifier passed it, or was taken as a share
BAD_SHARES = ["0.5", None, [0.5], True, -0.3]


@pytest.mark.parametrize("entry", ["run_mechanism", "mechanism_kkt"])
@pytest.mark.parametrize("share", BAD_SHARES, ids=repr)
def test_state_share_must_be_a_finite_nonnegative_real(share, entry):
    """A pool state's share is read as a real number, not a bool, finite and at least 0, at both entry points."""
    net, pools, table = instances.chain_instance(3)
    state = lm.run_mechanism(net, pools, table).state
    state.pool_states["k1"].share = share
    what = "warm state" if entry == "run_mechanism" else "state"
    with pytest.raises(lm.InputMismatchError, match=rf"^{what} of pool 'k1': share "):
        if entry == "run_mechanism":
            lm.run_mechanism(net, pools, table, warm=state)
        else:
            lm.mechanism_kkt(net, pools, table, state)


# cost levels no state holds: "3" escaped the certifier as a bare TypeError,
# True and the non-finite ones were taken, and NaN certified as NaN
BAD_COST_LEVELS = ["3", True, None, math.nan, math.inf, -math.inf]


@pytest.mark.parametrize("entry", ["run_mechanism", "mechanism_kkt"])
@pytest.mark.parametrize("level", BAD_COST_LEVELS, ids=repr)
def test_state_cost_level_must_be_a_finite_real(level, entry):
    """A state's cost level is read as a finite real number, not a bool, at both entry points."""
    net, pools, table = instances.chain_instance(3)
    state = lm.run_mechanism(net, pools, table).state
    state.cost_level = level
    what = "warm state" if entry == "run_mechanism" else "state"
    with pytest.raises(lm.InputMismatchError, match=rf"^{what}: cost_level "):
        if entry == "run_mechanism":
            lm.run_mechanism(net, pools, table, warm=state)
        else:
            lm.mechanism_kkt(net, pools, table, state)


@pytest.mark.parametrize("seed", [0, 3, 7])
def test_valid_warm_restart_returns_its_fixed_point_bit_for_bit(seed):
    """The boundary check passes a cleared state, which restarts at its own bytes with no update."""
    net, pools, table = instances.chain_instance(seed)
    first = lm.run_mechanism(net, pools, table)
    again = lm.run_mechanism(net, pools, table, warm=first.state)
    assert again.converged and again.f_updates == 0 and sum(again.price_updates.values()) == 0
    assert again.state.shares.values.tobytes() == first.state.shares.values.tobytes()
    for k, st in first.state.pool_states.items():
        for name in ("prices", "bids", "freqs"):
            assert getattr(again.state.pool_states[k], name).tobytes() == getattr(st, name).tobytes(), (k, name)


def _pool_arrays(state):
    arrays = {(k, name): getattr(st, name) for k, st in state.pool_states.items() for name in ("prices", "bids", "freqs")}
    return {**arrays, ("split", "values"): state.shares.values}


@pytest.mark.parametrize("seed", range(20))
@pytest.mark.parametrize("rescaled", [False, True], ids=["same-split", "rescaled"])
def test_warm_restart_leaves_the_warm_state_alone(seed, rescaled):
    """run_mechanism neither writes the caller's warm arrays and split nor hands them back in its result."""
    net, pools, table = instances.chain_instance(seed)
    warm = lm.run_mechanism(net, pools, table).state
    if rescaled:  # every pool state cleared at another share than it restarts at
        warm.shares = lm.ProportionVector(warm.shares.pool_ids, np.array([0.3, 0.7]))
    before = {key: values.tobytes() for key, values in _pool_arrays(warm).items()}
    shares = {k: st.share for k, st in warm.pool_states.items()}
    res = lm.run_mechanism(net, pools, table, warm=warm)
    assert res.converged
    if rescaled:
        assert sum(res.price_updates.values()) > 0
    assert {key: values.tobytes() for key, values in _pool_arrays(warm).items()} == before
    assert {k: st.share for k, st in warm.pool_states.items()} == shares
    held = list(_pool_arrays(warm).values())
    for got in _pool_arrays(res.state).values():
        assert not any(np.shares_memory(got, values) for values in held)


def test_closed_edge_keeps_the_default_price_step():
    """A zero capacity sets no step scale; the mechanism still clears."""
    net, pools, table = instances.chain_instance(3)
    closed = net.with_capacities({"e5": 0.0})
    for k in pools.pool_ids:
        eta = lm.compile_pool(closed, pools, k).price_eta
        assert eta > 0.0
        assert eta == lm.compile_pool(net, pools, k).price_eta
    res = lm.run_mechanism(closed, pools, table)
    assert res.converged
    assert sum(res.price_updates.values()) < 5_000
    assert lm.mechanism_kkt(closed, pools, table, res.state).max_scaled() <= 0.1


def test_closed_edge_reopens_to_the_optimum():
    """A closed edge opens unpriced, so a warm restart after it reopens clears.

    Pricing it at crowd / 1e-300 left a price the restart could never bring
    down; a line that kept no bid would stay idle and pass the pool's check.
    """
    net, pools, table = instances.chain_instance(3)
    closed = net.with_capacities({"e5": 0.0})
    first = lm.run_mechanism(closed, pools, table)
    assert first.converged
    for st in first.state.pool_states.values():
        assert st.price_map()["e5"] == 0.0
    res = lm.run_mechanism(net, pools, table, warm=first.state)
    assert res.converged
    assert sum(res.price_updates.values()) < 1_000
    assert lm.mechanism_kkt(net, pools, table, res.state).max_scaled() <= 0.1
    sol = lm.solve_full(net, pools, table)
    assert abs(res.objective - sol.objective) / sol.objective <= 0.02


def dead_pool_instances():
    """Two pools over edge e1; only k0's line can run in either instance.

    In the first k1 has no operators, in the second its one line also
    crosses the closed edge e2.  solve_full gives both splits {k0: 1, k1: 0}.
    """
    net = lm.Network(["u", "v", "w"], [lm.Edge("e1", "u", "v", 4.0), lm.Edge("e2", "v", "w", 0.0)])
    only_k0 = lm.PoolSystem(["k0", "k1"], {("lop0", "k0"): lm.Line(("e1",))})
    both = lm.PoolSystem(
        ["k0", "k1"], {("lop0", "k0"): lm.Line(("e1",)), ("lop0", "k1"): lm.Line(("e1", "e2"))}
    )
    one = lm.UtilityTable({("lop0", "k0"): lm.UtilitySpec(2.0)})
    two = lm.UtilityTable({("lop0", k): lm.UtilitySpec(2.0) for k in ("k0", "k1")})
    return [(net, only_k0, one), (net, both, two)]


def holding(state, values):
    """The warm state with its split replaced by values, pool states as they cleared."""
    return dataclasses.replace(state, shares=lm.ProportionVector(state.shares.pool_ids, np.array(values)))


@pytest.fixture
def pool_runs(monkeypatch):
    """(pool id, result) of every pool run while the test runs, through multi_pool's _run_pool binding."""
    seen = []
    run_pool = multi_pool._run_pool

    def spy(view, *args):
        res = run_pool(view, *args)
        seen.append((view.pool_id, res))
        return res

    monkeypatch.setattr(multi_pool, "_run_pool", spy)
    return seen


def assert_holds_nothing(res, k, pool_runs):
    """Pool k ends with the bytes of np.zeros for its prices, bids and freqs and the share 0.0,
    and adds no price or bid update to the run's counts."""
    st = res.state.pool_states[k]
    for name, n in (("prices", len(st.edge_ids)), ("bids", len(st.lop_ids)), ("freqs", len(st.lop_ids))):
        values = getattr(st, name)
        assert (values.dtype, values.shape, values.tobytes()) == (np.float64, (n,), np.zeros(n).tobytes()), name
    assert (type(st.share), repr(st.share)) == (float, "0.0")
    assert res.price_updates[k] == 0
    assert all(run.iterations == run.bid_updates == 0 for pool, run in pool_runs if pool == k)


# the share a pool that cannot run still holds in a warm state: what a
# lower bound on the split, as the engine once kept, would have left it, or none
DEAD_HELD = [1e-4, 0.0]


@pytest.mark.parametrize("held", DEAD_HELD)
@pytest.mark.parametrize("case", [0, 1], ids=["no-operators", "closed-line"])
def test_pool_whose_lines_cannot_run_holds_no_capacity(case, held, pool_runs):
    """Such a pool gets share 0 outright instead of 200 split updates toward it, cold or warm,
    and an empty market."""
    net, pools, table = dead_pool_instances()[case]
    assert lm.solve_full(net, pools, table).state.shares.as_dict() == {"k0": 1.0, "k1": 0.0}
    cold = lm.run_mechanism(net, pools, table)
    warm = lm.run_mechanism(net, pools, table, warm=holding(cold.state, [1.0 - held, held]))
    for res in (cold, warm):
        assert res.converged
        assert res.f_updates == 0
        assert res.state.shares.as_dict() == {"k0": 1.0, "k1": 0.0}
        assert_holds_nothing(res, "k1", pool_runs)
        assert lm.mechanism_kkt(net, pools, table, res.state).max_scaled() <= 0.1


def test_warm_restart_drops_a_pool_whose_lines_closed(pool_runs):
    """Closing the edge k1's only line crosses moves its whole share to k0 without split updates,
    and empties k1's market: nothing to re-clear at share 0."""
    closed, pools, table = dead_pool_instances()[1]
    base = lm.run_mechanism(closed.with_capacities({"e2": 4.0}), pools, table)
    assert base.converged and base.state.shares.share("k1") > 0.4
    pool_runs.clear()
    res = lm.run_mechanism(closed, pools, table, warm=base.state)
    assert res.converged
    assert res.f_updates == 0
    assert res.state.shares.as_dict() == {"k0": 1.0, "k1": 0.0}
    assert_holds_nothing(res, "k1", pool_runs)
    assert lm.mechanism_kkt(closed, pools, table, res.state).max_scaled() <= 0.1


def test_warm_restart_gives_a_reopened_pool_capacity_again():
    """A zero share would stay zero under the split update; a pool whose line reopens starts even."""
    closed, pools, table = dead_pool_instances()[1]
    base = lm.run_mechanism(closed, pools, table)
    assert base.state.shares.as_dict() == {"k0": 1.0, "k1": 0.0}
    reopened = closed.with_capacities({"e2": 4.0})
    res = lm.run_mechanism(reopened, pools, table, warm=base.state)
    assert res.converged
    assert res.outer_trace[0]["shares"] == {"k0": 0.5, "k1": 0.5}
    cold = lm.run_mechanism(reopened, pools, table)
    assert res.state.shares.share("k1") == pytest.approx(cold.state.shares.share("k1"), abs=0.02)
    assert res.objective == pytest.approx(cold.objective, rel=0.01)
    assert lm.mechanism_kkt(reopened, pools, table, res.state).max_scaled() <= 0.1


def three_pool_instance():
    """k0 and k1 run one line each over e1 (coefficients 2 and 3); k2's line also crosses e2.

    With e2 closed k2 cannot run and solve_full splits {4/13, 9/13, 0}.
    """
    net = lm.Network(["u", "v", "w"], [lm.Edge("e1", "u", "v", 4.0), lm.Edge("e2", "v", "w", 0.0)])
    pools = lm.PoolSystem(
        ["k0", "k1", "k2"],
        {
            ("lop0", "k0"): lm.Line(("e1",)),
            ("lop0", "k1"): lm.Line(("e1",)),
            ("lop0", "k2"): lm.Line(("e1", "e2")),
        },
    )
    table = lm.UtilityTable({("lop0", k): lm.UtilitySpec(a) for k, a in zip(pools.pool_ids, (2.0, 3.0, 2.0))})
    return net, pools, table


@pytest.mark.parametrize("held", DEAD_HELD)
def test_pool_that_cannot_run_leaves_the_split_update_to_the_others(held):
    """Two live pools of unequal cost beside one that cannot run: the split moves, stays finite and certifies.

    The warm run starts the live pools back at an even split while the dead
    one holds the share held.
    """
    net, pools, table = three_pool_instance()
    oracle = lm.solve_full(net, pools, table)
    np.testing.assert_allclose(oracle.state.shares.values, [4 / 13, 9 / 13, 0.0], atol=1e-9)
    cold = lm.run_mechanism(net, pools, table)
    even = (1.0 - held) / 2
    warm = lm.run_mechanism(net, pools, table, warm=holding(cold.state, [even, even, held]))
    assert warm.outer_trace[0]["shares"] == {"k0": 0.5, "k1": 0.5, "k2": 0.0}
    for res in (cold, warm):
        assert res.converged
        assert res.f_updates >= 1  # the unequal live pools force at least one split update
        shares = res.state.shares.values
        assert np.isfinite(shares).all() and shares.sum() == pytest.approx(1.0, abs=1e-12)
        assert res.state.shares.share("k2") == 0.0
        np.testing.assert_allclose(shares, oracle.state.shares.values, atol=0.02)
        assert res.price_updates["k2"] == 0
        dead = res.state.pool_states["k2"]  # pinned with an empty market, never priced at 1e300
        assert dead.share == 0.0 and not dead.prices.any() and not dead.freqs.any()
        assert res.state.pool_costs["k2"] == 0.0
        assert np.isfinite(res.objective)
        assert lm.mechanism_kkt(net, pools, table, res.state).max_scaled() <= 0.1


def test_no_pool_can_run_gives_the_uniform_split(pool_runs):
    """With every line closed nothing is priced or run, and the split is uniform as in solve_full,
    cold or warm; each pool's state holds share 0.0 all the same."""
    net, pools, table = instances.chain_instance(3)
    closed = net.with_capacities({e.id: 0.0 for e in net.edges})
    cleared = lm.run_mechanism(net, pools, table).state
    pool_runs.clear()
    cold = lm.run_mechanism(closed, pools, table)
    warm = lm.run_mechanism(closed, pools, table, warm=cleared)
    for res in (cold, warm):
        assert res.converged and res.f_updates == 0
        assert res.state.shares.as_dict() == lm.solve_full(closed, pools, table).state.shares.as_dict() == {"k0": 0.5, "k1": 0.5}
        for k in pools.pool_ids:
            assert_holds_nothing(res, k, pool_runs)


def test_warm_restart_keeps_the_surviving_proportions():
    """Losing or regaining a third pool rescales the other two shares together instead of resetting them."""
    closed, pools, table = three_pool_instance()
    reopened = closed.with_capacities({"e2": 4.0})
    for before, after in ((reopened, closed), (closed, reopened)):
        base = lm.run_mechanism(before, pools, table)
        assert base.converged
        res = lm.run_mechanism(after, pools, table, warm=base.state)
        assert res.converged
        old = base.state.shares.as_dict()
        start = res.outer_trace[0]["shares"]
        assert start["k0"] / start["k1"] == pytest.approx(old["k0"] / old["k1"], rel=1e-12)
        assert sum(start.values()) == pytest.approx(1.0, abs=1e-12)
        if after is closed:
            assert start["k2"] == 0.0
        else:  # k2 rejoins at the mean share of the pools that kept theirs
            assert start["k2"] == pytest.approx((start["k0"] + start["k1"]) / 2, rel=1e-12)
        cold = lm.run_mechanism(after, pools, table)
        np.testing.assert_allclose(
            res.state.shares.values, cold.state.shares.values, atol=0.02
        )
        assert lm.mechanism_kkt(after, pools, table, res.state).max_scaled() <= 0.1


def test_zero_floor_rescales_without_warnings():
    """Shares may reach zero; the rescale must stay finite and silent."""
    closed, pools, table = dead_pool_instances()[1]
    reopened = closed.with_capacities({"e2": 4.0})
    runs = [
        (closed, pools, table, lm.run_mechanism(reopened, pools, table).state),  # k1 to share 0
        (reopened, pools, table, lm.run_mechanism(closed, pools, table).state),  # k1 from share 0
    ]
    runs += [(*case, None) for case in dead_pool_instances()]
    runs.append((*three_pool_instance(), None))
    runs += [(*instances.chain_instance(seed), None) for seed in range(20)]
    for net, pools, table, warm in runs:
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            res = lm.run_mechanism(net, pools, table, warm=warm)
        assert res.converged
        for st in res.state.pool_states.values():
            assert all(np.isfinite(v).all() for v in (st.prices, st.bids, st.freqs))
