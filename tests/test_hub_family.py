"""The hub-and-spoke family: a radial network, where lines from every direction meet at one hub.

Every other family is a lattice or a path.  instances.hub_instance builds
6 spokes of 3 rings around one hub, 2 pools of 10 lines; each seed runs at
GRID_CFG's pinned price step, as the 7x12 grids do, and must converge,
certify at 0.1 and come within 2% of the oracle's objective, as criteria 1
and 2 read.  At the capacity-scaled default step the Euler loop fails on
most seeds of the family; that is recorded as an open finding, not tested
here.
"""
import pytest

import linemarket as lm

import instances


@pytest.mark.parametrize("seed", range(10))
def test_hub_family_converges_certifies_and_matches_the_oracle(seed):
    net, pools, table = instances.hub_instance(seed)
    res = lm.run_mechanism(net, pools, table, instances.GRID_CFG)
    assert res.converged, res.diagnostics
    kkt = lm.mechanism_kkt(net, pools, table, res.state).max_scaled()
    assert kkt <= 0.1, f"scaled residual {kkt:.3g}"
    ref = lm.solve_full(net, pools, table)
    assert ref.converged
    gap = abs(res.objective - ref.objective) / ref.objective
    assert gap <= 0.02, f"objective gap {gap:.2%}"


def test_hub_instance_shape():
    """37 nodes, 36 edges in 6 inbound and 6 outbound legs of 3, and every line crosses the hub."""
    net, pools, table = instances.hub_instance(0)
    assert len(net.nodes) == 37 and len(net.edge_ids) == 36
    assert pools.pool_ids == ("pool0", "pool1")
    for k in pools.pool_ids:
        lops = pools.lops_in(k)
        assert len(lops) == 10
        for lop in lops:
            path = pools.line(lop, k).edge_ids
            into = [e for e in path if e.startswith("in")]
            out = [e for e in path if e.startswith("out")]
            assert path == (*into, *out) and into and out
            assert into[-1].endswith("_1") and out[0].endswith("_1")  # through the hub
            assert into[0].split("_")[0][2:] != out[0].split("_")[0][3:]  # onto another spoke
    caps = net.capacity_vector()
    assert ((10.0 <= caps) & (caps <= 110.0)).all()
    coeffs = [table.spec(lop, k).coefficient for k in pools.pool_ids for lop in pools.lops_in(k)]
    assert all(5.0 <= a <= 15.0 for a in coeffs)
