"""Valuations and the analytic bid response."""
import numpy as np
import pytest

import linemarket as lm
from linemarket.utility import best_response_bids

A = lm.UtilitySpec(2.0)


def test_best_response_values():
    bids = best_response_bids(np.array([2.0, 2.0, 1e4]), np.array([1.0, 0.5, 50.0]))
    assert bids.tolist() == [1.0, 2.0, 5e5]


def test_best_response_rejects_nonpositive_price():
    """No operator bids against a path price that is not positive: the re-bid keeps its old bid there."""
    coeffs = np.array([2.0, 2.0, 2.0])
    old = np.array([0.3, 0.4, 0.5])
    bids = lm.refresh_bids(coeffs, np.array([1.0, 0.0, -1.0]), old)
    assert bids.tolist() == [1.0, 0.4, 0.5]


def test_best_response_first_order_condition():
    """The implied frequency w/mu sits where marginal value equals mu."""
    a = np.repeat([0.5, 2.0, 31.0], 4)
    mu = np.tile([0.01, 0.7, 4.0, 250.0], 3)
    w = best_response_bids(a, mu)
    np.testing.assert_allclose(a / (2.0 * np.sqrt(w / mu)), mu, rtol=1e-9)


def test_best_response_monotonicity_and_scaling():
    mus = np.linspace(0.1, 5.0, 25)
    bids = best_response_bids(np.full(25, A.coefficient), mus)
    assert (np.diff(bids) < 0.0).all()  # decreasing in price

    raised = best_response_bids(np.linspace(1, 9, 9), np.ones(9))
    assert (np.diff(raised) > 0.0).all()  # increasing in a

    c = 3.0
    scaled, base = best_response_bids(np.array([c * 2.0, 2.0]), np.array([0.7, 0.7]))
    assert scaled == pytest.approx(c**2 * base, rel=1e-12)


def test_vectorized_bids_match_scalar():
    """Each operator's bid reads its own coefficient and price only: the vector is its one-entry bids."""
    coeffs = np.array([1.0, 2.0, 5.0])
    prices = np.array([0.5, 1.0, 2.5])
    expected = [best_response_bids(coeffs[i:i + 1], prices[i:i + 1])[0] for i in range(3)]
    assert best_response_bids(coeffs, prices).tolist() == expected


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
