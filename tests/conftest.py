import pytest

import linemarket as lm

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


@pytest.fixture(scope="session")
def k1_baseline():
    """Memoized converged baselines for the single-pool grid family."""
    return _baseline_getter(1)


@pytest.fixture(scope="session")
def k2_baseline():
    """Memoized converged baselines for the two-pool grid family."""
    return _baseline_getter(2)
