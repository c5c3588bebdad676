"""End-to-end behavior gates, one verdict line per criterion.

Every test here exercises the public API the way a user would and checks
a fixed numeric bar.  Tolerances are written out literally instead of
being imported from the library, so a library change that moves behavior
shows up as a red line, not a silently adjusted test.
"""
import functools
import statistics
import time

import numpy as np
import pytest

import linemarket as lm

import instances
import report

DISRUPTION_KINDS = ("reduce", "increase", "mixed")


def criterion(num: int, name: str):
    """Tie a test to one verdict line; the body returns the PASS detail."""
    report.declare(num, name)

    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                detail = fn(*args, **kwargs)
            except BaseException as err:
                text = str(err).strip().splitlines()[0] if str(err).strip() else type(err).__name__
                report.record(num, name, False, text[:160])
                raise
            report.record(num, name, True, detail)
        return wrapper

    return deco


# ---------------------------------------------------------------------------
# Shared runs.  Module scope: several criteria read the same results.

@pytest.fixture(scope="module")
def chain_runs():
    runs = []
    for seed in range(20):
        net, pools, table = instances.chain_instance(seed)
        t0 = time.perf_counter()
        res = lm.run_mechanism(net, pools, table)
        elapsed = time.perf_counter() - t0
        sol = lm.solve_full(net, pools, table)
        kkt = lm.mechanism_kkt(net, pools, table, res.state)
        runs.append((seed, res, sol, kkt, elapsed))
    return runs


@pytest.fixture(scope="module")
def ratio_runs():
    out = {}
    for ratio in (1.0, 0.5, 0.25):
        net, pools, table = instances.shared_edge_two_pools(ratio)
        res = lm.run_mechanism(net, pools, table)
        out[ratio] = (res, lm.mechanism_kkt(net, pools, table, res.state))
    return out


@pytest.fixture(scope="module")
def k1_recovery(k1_restart):
    return [
        k1_restart(seed, kind, 0.1)
        for seed in instances.GRID_SEEDS_K1
        for kind in DISRUPTION_KINDS
    ]


@pytest.fixture(scope="module")
def k2_recovery(k2_restart):
    return {
        magnitude: [
            k2_restart(seed, kind, magnitude, modes=("warm",))
            for seed in instances.GRID_SEEDS_K2
            for kind in DISRUPTION_KINDS
        ]
        for magnitude in (0.1, 0.5)
    }


# ---------------------------------------------------------------------------
# Criteria.

@criterion(1, "objective within 2% of the centralized optimum on 20 chains")
def test_chain_objective_matches_reference(chain_runs):
    worst_gap = 0.0
    slowest = 0.0
    for seed, res, sol, _, elapsed in chain_runs:
        assert res.converged, f"seed {seed} did not converge"
        gap = abs(res.objective - sol.objective) / sol.objective
        worst_gap = max(worst_gap, gap)
        slowest = max(slowest, elapsed)
        assert gap <= 0.02, f"seed {seed}: relative gap {gap:.4f} exceeds 2%"
        assert elapsed < 10.0, f"seed {seed}: run took {elapsed:.1f}s"
    return f"worst gap {worst_gap:.3%}, slowest run {slowest:.2f}s"


@criterion(2, "scaled first-order residuals <= 0.1 on every converged run")
def test_converged_runs_certify(
    chain_runs, ratio_runs, k1_recovery, k2_recovery, k1_baseline, k2_baseline
):
    worst = 0.0
    count = 0

    def check(tag, value):
        nonlocal worst, count
        count += 1
        worst = max(worst, value)
        assert value <= 0.1, f"{tag}: scaled residual {value:.3f} exceeds 0.1"

    for seed, res, _, kkt, _ in chain_runs:
        if res.converged:
            check(f"chain-s{seed}", kkt.max_scaled())
    for ratio, (res, kkt) in ratio_runs.items():
        if res.converged:
            check(f"ratio-{ratio}", kkt.max_scaled())
    for getter, seeds in (
        (k1_baseline, instances.GRID_SEEDS_K1),
        (k2_baseline, instances.GRID_SEEDS_K2),
    ):
        for seed in seeds:
            net, pools, table, base = getter(seed)
            check(f"baseline-s{seed}", lm.mechanism_kkt(net, pools, table, base.state).max_scaled())
    for rr in k1_recovery:
        for rec in rr.records():
            if rec.status == "converged":
                check(f"{rec.instance}-{rec.mode}", rec.max_kkt)
    for runs in k2_recovery.values():
        for rr in runs:
            for rec in rr.records():
                if rec.status == "converged":
                    check(f"{rec.instance}-{rec.mode}", rec.max_kkt)
    return f"{count} converged runs, worst scaled residual {worst:.4f}"


@criterion(3, "symmetric pools settle at an even split with 0 share updates")
def test_symmetric_split(ratio_runs):
    res, _ = ratio_runs[1.0]
    assert res.converged
    shares = res.state.shares.as_dict()
    assert abs(shares["k0"] - 0.5) <= 0.02, f"share {shares['k0']:.3f} off 0.5"
    assert abs(shares["k1"] - 0.5) <= 0.02, f"share {shares['k1']:.3f} off 0.5"
    assert res.f_updates == 0, f"{res.f_updates} share updates on a symmetric instance"
    return f"shares ({shares['k0']:.3f}, {shares['k1']:.3f}), 0 share updates"


@criterion(4, "asymmetric pools earn squared-coefficient shares, monotone effort")
def test_asymmetric_split(ratio_runs):
    targets = {0.5: 0.8, 0.25: 16.0 / 17.0}
    got = {}
    for ratio, target in targets.items():
        res, _ = ratio_runs[ratio]
        assert res.converged, f"ratio {ratio} did not converge"
        share0 = res.state.shares.as_dict()["k0"]
        got[ratio] = share0
        assert abs(share0 - target) <= 0.02, (
            f"ratio {ratio}: share {share0:.3f} vs target {target:.3f}"
        )
    counts = [ratio_runs[r][0].f_updates for r in (1.0, 0.5, 0.25)]
    assert counts[0] <= counts[1] <= counts[2], f"update counts {counts} not monotone"
    return f"shares {got[0.5]:.3f} and {got[0.25]:.3f}, update counts {counts}"


@criterion(5, "fixed-bid price dynamics descend, 10x distance drop in 1000 steps")
def test_price_descent_with_frozen_bids():
    net, pools, table = instances.grid_instance(0, 1)
    view = lm.compile_pool(net, pools, "pool0")
    start = lm.cold_start(view, table.coefficients_for(view), 1.0)
    bids = np.ones(view.n_lops)
    target = lm.solve_fixed_bids(view, bids, 1.0)
    eta = 1e-3
    hist, exc = lm.run_price_dynamics(view, start.prices, bids, 1.0, eta, 1000)
    v = 0.5 * ((hist - target) ** 2).sum(axis=1)
    slack = 0.5 * eta * eta * (exc * exc).sum(axis=1)
    rise = np.diff(v) - slack
    assert rise.max() <= 1e-12, f"step {rise.argmax()}: rise {rise.max():.2e} beyond slack"
    assert v[-1] <= v[0] / 10.0, f"distance only fell {v[0] / max(v[-1], 1e-300):.2f}x"
    return f"distance {v[0]:.4g} -> {v[-1]:.4g}, no step above slack"


@criterion(6, "warm restarts reprice disrupted grids in fewer steps than cold")
def test_warm_restart_speedup(k1_recovery):
    cold_counts = []
    warm_counts = []
    for rr in k1_recovery:
        assert rr.cold.status == "converged", f"{rr.cold.instance} cold run failed"
        assert rr.warm.status == "converged", f"{rr.warm.instance} warm run failed"
        cold_counts.append(rr.cold.total_price_updates)
        warm_counts.append(rr.warm.total_price_updates)
    cold_med = statistics.median(cold_counts)
    warm_med = statistics.median(warm_counts)
    assert warm_med < cold_med, f"median warm {warm_med} not below median cold {cold_med}"
    return f"{len(cold_counts)} runs, median price updates warm {warm_med:.0f} vs cold {cold_med:.0f}"


@criterion(7, "warm restarts keep shares fixed at 10% shocks, bids near-fixed at 50%")
def test_warm_restart_stability(k2_recovery):
    for rr in k2_recovery[0.1]:
        rec = rr.warm
        assert rec.status == "converged", f"{rec.instance} warm run failed"
        assert rec.f_updates == 0, f"{rec.instance}: {rec.f_updates} share updates"
    worst_bids = 0
    for rr in k2_recovery[0.5]:
        rec = rr.warm
        assert rec.status == "converged", f"{rec.instance} warm run failed"
        worst_bids = max(worst_bids, rec.bid_updates)
        assert rec.bid_updates <= 3, f"{rec.instance}: {rec.bid_updates} bid updates"
    n = len(k2_recovery[0.1])
    return f"{n} mild shocks share-stable, heavy shocks max {worst_bids} bid updates"


@criterion(8, "reference solver matches exhaustive grid search on tiny instances")
def test_tiny_brute_force_equivalence():
    worst = 0.0
    for seed in range(8):
        net, pools, table = instances.tiny_instance(seed)
        sol = lm.solve_full(net, pools, table)
        brute = instances.brute_force_tiny(net, pools, table)
        gap = abs(sol.objective - brute)
        worst = max(worst, gap)
        assert gap <= 1e-2, f"seed {seed}: |{sol.objective:.5f} - {brute:.5f}| = {gap:.4f}"
    return f"8 instances, worst objective gap {worst:.2e}"
