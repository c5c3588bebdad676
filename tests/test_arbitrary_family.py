"""The arbitrary-states family: runs that open at random warm states.

The paper's experiments range from an arbitrary initial state (to be
solved) to small disruptions in a previously optimal solution (to be
recovered).  Every other test opens a run cold or at a converged state;
here each run resumes a random OuterState (instances.arbitrary_states):
5 per chain of instances.chain_instance(0) to (19) at the default step,
and 3 per hub of instances.hub_instance(0) to (4) at GRID_CFG's pinned
step, each family drawn from one np.random.default_rng(0).  Half of each
pool's edges open unpriced, so some lines open bidding on an unpriced
path, the zero-price fixed point that the warm opening's neck charge
removes.

No run may end with an active line on an unpriced path, and every run
that converges must certify at 0.1.  A run that spends its budget is the
default step's slow or divergent kind, an open finding for the step rule,
and is counted, not failed: the counts, and the certificates of those
runs, are printed in the terminal summary's measurements section.  Every
run, converged or not, is certified by mechanism_kkt, whose report must
be kkt_report's on the run's own arrays bit for bit
(instances.certificate).
"""
import numpy as np
import pytest

import linemarket as lm

import instances
import report

FAMILIES = {
    "chain": (instances.chain_instance, range(20), 5, None),
    "hub": (instances.hub_instance, range(5), 3, instances.GRID_CFG),
}


@pytest.mark.parametrize("family", FAMILIES)
def test_runs_from_arbitrary_states(family):
    build, seeds, count, cfg = FAMILIES[family]
    rng = np.random.default_rng(0)
    failures = []
    converged = runs = 0
    spent = []
    spent_kkt = []
    worst_kkt = 0.0
    for seed in seeds:
        net, pools, table = build(seed)
        for i, warm in enumerate(instances.arbitrary_states(net, pools, table, rng, count)):
            res = lm.run_mechanism(net, pools, table, cfg, warm=warm)
            run = f"{family} {seed} state {i}"
            runs += 1
            converged += res.converged
            unpriced = instances.unpriced_active(net, pools, res.state)
            if unpriced:
                failures.append(f"{run}: an active line on an unpriced path in {unpriced}")
            kkt = instances.certificate(net, pools, table, res.state).max_scaled()
            if res.converged:
                worst_kkt = max(worst_kkt, kkt)
                if not kkt <= 0.1:
                    failures.append(f"{run}: converged at scaled residual {kkt:.3g}")
            else:
                spent.append(f"({seed}, {i})")
                spent_kkt.append(kkt)
    report.note(
        f"arbitrary-states family, {family}: converged {converged} of {runs}, worst scaled residual "
        f"{worst_kkt:.4f}; not converged (seed, state): {', '.join(spent) or 'none'}"
        + (f", certified at {min(spent_kkt):.2f}-{max(spent_kkt):.2f}" if spent else "")
    )
    assert runs == len(seeds) * count
    assert not failures, "; ".join(failures)
