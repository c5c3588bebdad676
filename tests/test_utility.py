"""Valuations and the analytic bid response."""
import numpy as np
import pytest

import linemarket as lm
from linemarket.utility import best_response_bids

A = lm.UtilitySpec(2.0)


def test_utility_values():
    assert lm.utility.utility(lm.UtilitySpec(1e4), 4.0) == 2e4
    assert lm.utility.utility(A, 0.0) == 0.0
    assert lm.utility.utility(A, 1.0) == 2.0


def test_utility_negative_frequency_rejected():
    with pytest.raises(ValueError):
        lm.utility.utility(A, -0.1)


def test_best_response_values():
    assert lm.best_response_bid(A, 1.0) == 1.0
    assert lm.best_response_bid(A, 0.5) == 2.0
    assert lm.best_response_bid(lm.UtilitySpec(1e4), 50.0) == 5e5


def test_best_response_rejects_nonpositive_price():
    with pytest.raises(ValueError):
        lm.best_response_bid(A, 0.0)
    with pytest.raises(ValueError):
        lm.best_response_bid(A, -1.0)


def test_best_response_first_order_condition():
    """The implied frequency w/mu sits where marginal value equals mu."""
    for a in (0.5, 2.0, 31.0):
        spec = lm.UtilitySpec(a)
        for mu in (0.01, 0.7, 4.0, 250.0):
            w = lm.best_response_bid(spec, mu)
            assert a / (2.0 * np.sqrt(w / mu)) == pytest.approx(mu, rel=1e-9)


def test_best_response_monotonicity_and_scaling():
    mus = np.linspace(0.1, 5.0, 25)
    bids = [lm.best_response_bid(A, float(m)) for m in mus]
    assert all(hi > lo for hi, lo in zip(bids, bids[1:]))  # decreasing in price

    raised = [lm.best_response_bid(lm.UtilitySpec(a), 1.0) for a in np.linspace(1, 9, 9)]
    assert all(lo < hi for lo, hi in zip(raised, raised[1:]))  # increasing in a

    c = 3.0
    assert lm.best_response_bid(lm.UtilitySpec(c * 2.0), 0.7) == pytest.approx(
        c**2 * lm.best_response_bid(A, 0.7), rel=1e-12
    )


def test_vectorized_bids_match_scalar():
    coeffs = np.array([1.0, 2.0, 5.0])
    prices = np.array([0.5, 1.0, 2.5])
    expected = [lm.best_response_bid(lm.UtilitySpec(a), p) for a, p in zip(coeffs, prices)]
    np.testing.assert_allclose(best_response_bids(coeffs, prices), expected)


def test_spec_requires_positive_coefficient():
    with pytest.raises(ValueError):
        lm.UtilitySpec(0.0)
    with pytest.raises(ValueError):
        lm.UtilitySpec(-2.0)
    with pytest.raises(ValueError):
        lm.UtilitySpec(float("inf"))


def test_table_keying_is_exact():
    pools = lm.PoolSystem(
        ["k0"],
        {("lop0", "k0"): lm.Line(("e1",)), ("lop1", "k0"): lm.Line(("e1",))},
    )
    good = lm.UtilityTable({("lop0", "k0"): A, ("lop1", "k0"): A})
    good.validate_against(pools)

    with pytest.raises(lm.InputMismatchError):
        lm.UtilityTable({("lop0", "k0"): A}).validate_against(pools)
    with pytest.raises(lm.InputMismatchError):
        lm.UtilityTable(
            {("lop0", "k0"): A, ("lop1", "k0"): A, ("lop9", "k0"): A}
        ).validate_against(pools)
    with pytest.raises(lm.InputMismatchError):
        good.spec("ghost", "k0")
    # a bare coefficient is not a spec: refused when the table is built
    with pytest.raises(lm.InputMismatchError, match=r"valuations \[\('lop0', 'k0'\)\] are not UtilitySpec objects"):
        lm.UtilityTable({("lop0", "k0"): 2.0})


def test_coefficients_follow_view_order():
    net = lm.Network(["u", "v"], [lm.Edge("e1", "u", "v", 4.0)])
    pools = lm.PoolSystem(
        ["k0"],
        {("lop0", "k0"): lm.Line(("e1",)), ("lop1", "k0"): lm.Line(("e1",))},
    )
    table = lm.UtilityTable(
        {("lop0", "k0"): lm.UtilitySpec(2.0), ("lop1", "k0"): lm.UtilitySpec(7.0)}
    )
    view = lm.compile_pool(net, pools, "k0")
    np.testing.assert_array_equal(table.coefficients_for(view), [2.0, 7.0])


def test_table_json_round_trip(tmp_path):
    table = lm.UtilityTable(
        {("lop0", "k0"): lm.UtilitySpec(2.0), ("lop1", "k1"): lm.UtilitySpec(0.5)}
    )
    again = lm.UtilityTable.from_json(table.to_json())
    assert {k: v.coefficient for k, v in again.entries.items()} == {
        ("lop0", "k0"): 2.0,
        ("lop1", "k1"): 0.5,
    }
    path = tmp_path / "util.json"
    table.dump(path)
    assert lm.UtilityTable.load(path).to_json() == table.to_json()

    with pytest.raises(ValueError):
        lm.UtilityTable.from_json({"utilities": [{"lop": "a"}]})


@pytest.mark.parametrize("value", [True, False, "4", "2.0", None], ids=repr)
def test_coefficient_must_be_a_real_number(value):
    """float() would read True as 1.0 and "4" as 4.0; the spec rejects both with ValueError."""
    with pytest.raises(ValueError, match="valuation coefficient must be a real number"):
        lm.UtilitySpec(value)
