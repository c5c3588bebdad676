import hashlib
from collections import Counter
from dataclasses import replace

import pytest

import linemarket as lm
from linemarket import multi_pool, network, oracle

import instances
import report


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    lines = report.summary_lines()
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
    if report.NOTES:
        terminalreporter.section("measurements")
        for line in report.NOTES:
            terminalreporter.write_line(line)


def _baseline_getter(pools: int):
    cache: dict[int, tuple] = {}

    def get(seed: int):
        if seed not in cache:
            net, ps, table = instances.grid_instance(seed, pools)
            base = lm.run_mechanism(net, ps, table, instances.GRID_BASE_CFG)
            assert base.converged, f"grid baseline seed={seed} pools={pools} did not converge"
            cache[seed] = (net, ps, table, base)
        return cache[seed]

    return get


def _restart_getter(pools: int, baseline):
    """Recovery runs per shock of the grid family, each mode run at most once a session.

    get(seed, kind, magnitude, modes) restarts baseline(seed) after a shock
    of edge_count 1 with shock seed seed*7+1 at GRID_CFG and returns a
    RecoveryResult holding only the modes asked for.  A mode an earlier call
    ran is reused, not run again; a restart depends only on its shock and
    mode, so a result is the same whichever call ran it.
    """
    cache: dict[tuple, lm.RecoveryResult] = {}
    modes_all = ("cold", "warm")

    def get(seed: int, kind: str, magnitude: float, modes=modes_all):
        key = (seed, kind, magnitude)
        held = cache.get(key)
        missing = tuple(m for m in modes if held is None or getattr(held, m) is None)
        if missing:
            net, ps, table, base = baseline(seed)
            spec = lm.DisruptionSpec(kind=kind, edge_count=1, magnitude=magnitude, seed=seed * 7 + 1)
            rr = lm.run_recovery_experiment(
                net, ps, table, spec, instances.GRID_CFG,
                instance=f"grid{pools}-s{seed}-{kind}-m{magnitude}", baseline=base, modes=missing,
            )
            if held is not None:
                rr = replace(rr, **{f: getattr(held, f) for m in modes_all if m not in missing for f in (m, f"{m}_result")})
            cache[key] = held = rr
        return replace(held, **{f: None for m in modes_all if m not in modes for f in (m, f"{m}_result")})

    return get


@pytest.fixture(scope="session")
def k1_baseline():
    """Memoized converged baselines for the single-pool grid family."""
    return _baseline_getter(1)


@pytest.fixture(scope="session")
def k2_baseline():
    """Memoized converged baselines for the two-pool grid family."""
    return _baseline_getter(2)


@pytest.fixture(scope="session")
def k1_restart(k1_baseline):
    """Memoized recovery runs for the single-pool grid family (see _restart_getter)."""
    return _restart_getter(1, k1_baseline)


@pytest.fixture(scope="session")
def k2_restart(k2_baseline):
    """Memoized recovery runs for the two-pool grid family (see _restart_getter)."""
    return _restart_getter(2, k2_baseline)


@pytest.fixture
def compiles(monkeypatch):
    """The pools asked for while the test runs, through multi_pool's and oracle's compile_pool bindings,
    whether compile_pool builds the view or returns the one it holds (builds counts the builds)."""
    calls: dict[str, list[str]] = {}
    for name, module in (("multi_pool", multi_pool), ("oracle", oracle)):
        calls[name] = []
        compile_pool = module.compile_pool

        def counted(net, pools, k, seen=calls[name], compile_pool=compile_pool):
            seen.append(k)
            return compile_pool(net, pools, k)

        monkeypatch.setattr(module, "compile_pool", counted)
    return calls


@pytest.fixture
def builds(monkeypatch):
    """The pools built while the test runs: compile_pool's cache misses, which compiles counts among its calls."""
    seen: list[str] = []
    build_view = network._build_view

    def counted(net, pools, k):
        seen.append(k)
        return build_view(net, pools, k)

    monkeypatch.setattr(network, "_build_view", counted)
    return seen


@pytest.fixture
def kernels(monkeypatch):
    """The compile kernels run while the test runs, per view: _fair_split and _implied_rows calls.

    Each kernel reads a view's rows and budgets, so each call is counted
    under a digest of those, which names the view it ran for: a kernel run
    twice on one view counts 2 under one key.  Two pools with the same
    lines on one network would share a key; no instance the tests count
    kernels on has such pools.
    """
    calls: dict[str, Counter] = {}
    for name in ("_fair_split", "_implied_rows"):
        seen = calls[name] = Counter()
        kernel = getattr(network, name)

        def counted(rows, budget, seen=seen, kernel=kernel):
            seen[hashlib.sha256(repr(rows.shape).encode() + rows.tobytes() + budget.tobytes()).hexdigest()] += 1
            return kernel(rows, budget)

        monkeypatch.setattr(network, name, counted)
    return calls
