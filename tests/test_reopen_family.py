"""The close-and-reopen family: every edge of the 20 chains closed, then opened again.

For each of the 96 edges of instances.chain_instance(0) to (19), the
edge's capacity is set to 0 and the mechanism restarts warm, at the
default step, from the chain's cleared state; then the capacity is
restored and the mechanism restarts warm from the closed run's state.  A
run returns a closed edge at price zero while the lines through it keep
their bids, so the reopened restart opens with those lines bidding on an
unpriced path: the zero-price fixed point that the warm opening's neck
charge removes.

No run may end with an active line on an unpriced path, and every run
that converges must certify at 0.1.  A run that spends its budget is the
default step's slow or divergent kind, an open finding for the step rule,
and is counted, not failed: the counts are printed in the terminal
summary's measurements section.
"""
import linemarket as lm
from linemarket.single_pool import _MAX_PASSES

import instances
import report


def test_close_and_reopen_every_chain_edge():
    failures = []
    counts = {"closed": [0, 0], "reopened": [0, 0]}  # per restart: converged, runs
    spent = []
    worst_kkt = 0.0
    budget = _MAX_PASSES * lm.DynamicsConfig.bid_refresh_period
    for seed in range(20):
        net, pools, table = instances.chain_instance(seed)
        base = lm.run_mechanism(net, pools, table)
        assert base.converged, seed
        for eid in net.edge_ids:
            shut = net.with_capacities({eid: 0.0})
            closed = lm.run_mechanism(shut, pools, table, warm=base.state)
            reopened = lm.run_mechanism(net, pools, table, warm=closed.state)
            for name, res, on in (("closed", closed, shut), ("reopened", reopened, net)):
                run = f"chain {seed} {eid} {name}"
                counts[name][0] += res.converged
                counts[name][1] += 1
                unpriced = instances.unpriced_active(on, pools, res.state)
                if unpriced:
                    failures.append(f"{run}: an active line on an unpriced path in {unpriced}")
                if res.converged:
                    kkt = lm.mechanism_kkt(on, pools, table, res.state).max_scaled()
                    worst_kkt = max(worst_kkt, kkt)
                    if not kkt <= 0.1:
                        failures.append(f"{run}: converged at scaled residual {kkt:.3g}")
                else:
                    spent.append(f"{run} ({', '.join(k for k, n in res.price_updates.items() if n >= budget)})")
    report.note(
        f"close-and-reopen family: closed restarts converged {counts['closed'][0]} of {counts['closed'][1]}, "
        f"reopened {counts['reopened'][0]} of {counts['reopened'][1]}, worst scaled residual {worst_kkt:.4f}; "
        f"budget spent on {', '.join(spent) or 'none'}"
    )
    assert counts["closed"][1] == counts["reopened"][1] == 96
    assert not failures, "; ".join(failures)
