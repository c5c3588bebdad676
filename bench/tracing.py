"""Per-layer tracing from outside the program.

The tracer swaps the module-level function bindings that one layer calls
another through for timing wrappers, and puts the originals back on exit.
Nothing under src/ knows about it.  Each wrapper counts calls and adds up
the span's wall time and its self time (the span minus its wrapped
children).  Spans are aggregated as they close, so memory stays flat over
hundreds of thousands of calls.
"""
from __future__ import annotations

import time
from collections import defaultdict
from typing import Callable

from linemarket import cli, multi_pool, oracle, scenarios, single_pool


def _run_pool_stats(stats, args, kwargs, result) -> None:
    view = args[0] if args else kwargs["view"]
    cfg = args[4] if len(args) > 4 else kwargs["cfg"]
    n = result.iterations
    if view.n_lops:
        # residual checks the loop reads: every refresh boundary, and the exit
        period = cfg.bid_refresh_period
        stats["n:single_pool.residual_useful"] += n // period + 1 + (1 if n % period else 0)


def _mechanism_stats(stats, args, kwargs, result) -> None:
    stats["n:multi_pool.outer_steps"] += result.state.outer_iter + 1
    busiest = max(result.price_updates.values(), default=0)
    stats["max:single_pool.iters_max_pool"] = max(stats["max:single_pool.iters_max_pool"], busiest)


def _newton_iters(stats, args, kwargs, result) -> None:
    stats["n:oracle.newton_iters"] += result.iterations


# (span name, [(module, attribute), ...], hook reading the call's result)
BINDINGS: tuple[tuple[str, tuple[tuple[object, str], ...], Callable | None], ...] = (
    ("network.compile_pool", ((multi_pool, "compile_pool"), (oracle, "compile_pool")), None),
    ("utility.best_response_bids", ((single_pool, "best_response_bids"),), None),
    ("single_pool.run_pool", ((multi_pool, "_run_pool"),), _run_pool_stats),
    ("single_pool.cold_start", ((single_pool, "cold_start"),), None),
    ("single_pool.allocate_frequencies", ((single_pool, "allocate_frequencies"),), None),
    ("single_pool.price_step", ((single_pool, "price_step"),), None),
    ("single_pool.refresh_bids", ((single_pool, "refresh_bids"),), None),
    ("single_pool.pool_residuals", ((single_pool, "pool_residuals"),), None),
    ("multi_pool.update_proportions", ((multi_pool, "update_proportions"),), None),
    ("multi_pool.run_mechanism",
     ((multi_pool, "run_mechanism"), (scenarios, "run_mechanism"), (cli, "run_mechanism")), _mechanism_stats),
    ("oracle.pool_solve", ((oracle, "_solve_one_pool"),), _newton_iters),
    ("oracle.kkt_report", ((oracle, "kkt_report"),), None),
    ("oracle.solve_full", ((oracle, "solve_full"), (cli, "solve_full")), None),
    ("scenarios.generate_grid", ((scenarios, "generate_grid"), (cli, "generate_grid")), None),
    ("scenarios.apply_disruption", ((scenarios, "apply_disruption"),), None),
    ("scenarios.run_recovery_experiment", ((scenarios, "run_recovery_experiment"),), None),
    ("cli.run_cli", ((cli, "run_cli"),), None),
)


class Tracer:
    """Context manager that installs the wrappers; `take()` drains the counters.

    Counter keys: `calls:<span>`, `s:<span>` (wall seconds), `self:<span>`
    (seconds outside wrapped children), plus the `n:` and `max:` keys the
    hooks fill in.
    """

    def __init__(self) -> None:
        self.stats: defaultdict[str, float] = defaultdict(float)
        self._children: list[float] = []
        self._saved: list[tuple[object, str, Callable]] = []

    def _wrap(self, name: str, fn: Callable, hook: Callable | None) -> Callable:
        stats = self.stats
        children = self._children
        clock = time.perf_counter
        calls, total, own = f"calls:{name}", f"s:{name}", f"self:{name}"

        def traced(*args, **kwargs):
            children.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                inner = children.pop()
                if children:
                    children[-1] += dt
                stats[calls] += 1
                stats[total] += dt
                stats[own] += dt - inner
            if hook is not None:
                hook(stats, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def __enter__(self) -> "Tracer":
        for name, sites, hook in BINDINGS:
            for module, attr in sites:
                original = getattr(module, attr)
                self._saved.append((module, attr, original))
                setattr(module, attr, self._wrap(name, original, hook))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def take(self) -> dict[str, float]:
        """Counters since the last call, then reset."""
        out = dict(self.stats)
        self.stats.clear()
        return out
