"""Metric definitions: units, direction, and what each layer metric should move.

END_TO_END and PER_LAYER hold every metric the benchmark prints.  The ones
marked `gated` are the ones BENCHMARK.json lists: defined and nonzero on
every workload, as the contract of that file requires.  The others are
printed and recorded too, but only mean something on some workloads (an
oracle time on a workload with no oracle call reads 0).

Times are in reference seconds (see calibration.py): wall seconds scaled by
how fast a fixed kernel ran next to the timed work.  wall_clock_s is the
one uncalibrated total.

PER_LAYER's `moves` is the prediction written down before any optimisation:
which end-to-end metric a change in that layer metric should move, on which
workload.
"""
from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    gated: bool
    doc: str
    moves: tuple[str, ...] = ()   # "metric@workload", per-layer metrics only
    counter: str = ""             # tracer counter a per-layer metric reads directly


END_TO_END = (
    Metric("setup_s", "s", "lower", True, "import plus instance or scenario generation, median of 5 fresh processes"),
    Metric("solve_s", "s", "lower", True,
           "cold solves: run_mechanism (chain20, grid_recover baselines) or run_cli solve (grid2_cold)"),
    Metric("wall_s", "s", "lower", True, "every timed call of one pass: solves, oracle, restarts, certificates"),
    Metric("us_per_price_update", "us", "lower", True, "solve plus restart time per price update"),
    Metric("price_updates", "count", "lower", True, "price updates of one pass"),
    Metric("split_updates", "count", "lower", True, "capacity split updates of one pass"),
    Metric("kkt_max", "ratio", "lower", True, "worst mechanism_kkt(...).max_scaled() over converged runs"),
    Metric("peak_rss_mb", "MB", "lower", True, "peak resident set size of the benchmark process"),
    Metric("oracle_s", "s", "lower", False, "solve_full (chain20) or run_cli oracle (grid2_cold)"),
    Metric("warm_restart_s", "s", "lower", False, "run_recovery_experiment(modes=('warm',)) calls (grid_recover)"),
    Metric("cold_restart_s", "s", "lower", False, "run_recovery_experiment(modes=('cold',)) calls (grid_recover)"),
    Metric("warm_cold_update_ratio", "ratio", "lower", False, "warm over cold restart price updates (grid_recover)"),
    Metric("objective_gap_max", "ratio", "lower", False, "worst |mechanism - oracle| / oracle objective"),
    Metric("failed_frac", "ratio", "lower", False, "non-converged or raising operations over those attempted"),
    Metric("wall_clock_s", "s", "lower", False, "wall_s in wall seconds, uncalibrated"),
    Metric("machine_speed", "ratio", "higher", False, "median reference seconds per wall second over the runs"),
)

PER_LAYER = (
    Metric("network.compile_pool.calls", "count", "lower", True, "compile_pool via multi_pool and oracle",
           ("warm_restart_s@grid_recover",),
           counter="calls:network.compile_pool"),
    Metric("network.compile_pool_s", "s", "lower", True, "time in compile_pool",
           ("warm_restart_s@grid_recover",),
           counter="s:network.compile_pool"),
    Metric("utility.best_response_bids_s", "s", "lower", True, "time in best_response_bids via single_pool",
           ("solve_s@grid2_cold",),
           counter="s:utility.best_response_bids"),
    Metric("single_pool.run_pool.calls", "count", "lower", True, "multi_pool._run_pool calls, the layer seam",
           ("solve_s@chain20", "solve_s@grid2_cold"),
           counter="calls:single_pool.run_pool"),
    Metric("single_pool.run_pool_s", "s", "lower", True, "time in multi_pool._run_pool",
           ("solve_s@chain20", "solve_s@grid2_cold"),
           counter="s:single_pool.run_pool"),
    Metric("single_pool.allocate_frequencies_s", "s", "lower", True, "time in allocate_frequencies",
           ("us_per_price_update@grid2_cold", "solve_s@grid2_cold"),
           counter="s:single_pool.allocate_frequencies"),
    Metric("single_pool.pool_residuals.calls", "count", "lower", True, "pool_residuals calls",
           ("us_per_price_update@grid2_cold", "solve_s@grid2_cold"),
           counter="calls:single_pool.pool_residuals"),
    Metric("single_pool.pool_residuals_s", "s", "lower", True, "time in pool_residuals",
           ("us_per_price_update@grid2_cold", "solve_s@grid2_cold"),
           counter="s:single_pool.pool_residuals"),
    Metric("single_pool.price_step.calls", "count", "lower", True, "price_step calls; equals price updates",
           ("price_updates@chain20", "solve_s@chain20"),
           counter="calls:single_pool.price_step"),
    Metric("single_pool.iters_max_pool", "count", "lower", True,
           "most price updates of one pool over one run_mechanism call",
           ("price_updates@chain20", "solve_s@chain20"),
           counter="max:single_pool.iters_max_pool"),
    Metric("single_pool.refresh_bids_s", "s", "lower", True, "time in refresh_bids",
           ("us_per_price_update@grid2_cold",),
           counter="s:single_pool.refresh_bids"),
    Metric("single_pool.loop_self_s", "s", "lower", True, "run_pool time outside its wrapped steps",
           ("us_per_price_update@chain20",),
           counter="self:single_pool.run_pool"),
    Metric("single_pool.residual_useful_frac", "ratio", "higher", True,
           "residual checks made at a refresh boundary or loop exit, over all checks",
           ("us_per_price_update@grid2_cold",)),
    Metric("multi_pool.update_proportions.calls", "count", "lower", True, "split updates; equals f_updates",
           ("split_updates@chain20", "solve_s@chain20"),
           counter="calls:multi_pool.update_proportions"),
    Metric("multi_pool.outer_steps", "count", "lower", True, "outer iterations over all run_mechanism calls",
           ("split_updates@chain20", "solve_s@chain20"),
           counter="n:multi_pool.outer_steps"),
    Metric("multi_pool.self_s", "s", "lower", True, "run_mechanism time outside wrapped children",
           ("solve_s@chain20",),
           counter="self:multi_pool.run_mechanism"),
    Metric("oracle.pool_solves", "count", "lower", True, "oracle._solve_one_pool calls",
           ("oracle_s@chain20", "oracle_s@grid2_cold"),
           counter="calls:oracle.pool_solve"),
    Metric("oracle.newton_iters", "count", "lower", True, "Newton iterations summed over pool solves",
           ("oracle_s@chain20", "oracle_s@grid2_cold"),
           counter="n:oracle.newton_iters"),
    Metric("oracle.pool_solve_s", "s", "lower", False, "time in oracle._solve_one_pool",
           ("oracle_s@chain20", "oracle_s@grid2_cold"),
           counter="s:oracle.pool_solve"),
    Metric("oracle.split_search_self_s", "s", "lower", False, "solve_full time outside wrapped children",
           ("oracle_s@chain20", "oracle_s@grid2_cold"),
           counter="self:oracle.solve_full"),
    Metric("oracle.kkt_report.calls", "count", "lower", True, "certifier calls",
           ("wall_s@chain20", "warm_restart_s@grid_recover"),
           counter="calls:oracle.kkt_report"),
    Metric("oracle.kkt_report_s", "s", "lower", True, "time in the certifier",
           ("wall_s@chain20", "warm_restart_s@grid_recover"),
           counter="s:oracle.kkt_report"),
    Metric("scenarios.generate_grid_s", "s", "lower", False, "time in generate_grid, set-up included",
           ("setup_s@grid_recover", "solve_s@grid2_cold"),
           counter="s:scenarios.generate_grid"),
    Metric("scenarios.apply_disruption_s", "s", "lower", False, "time in apply_disruption",
           ("warm_restart_s@grid_recover", "cold_restart_s@grid_recover"),
           counter="s:scenarios.apply_disruption"),
    Metric("cli.run_cli_s", "s", "lower", False, "time in run_cli",
           ("solve_s@grid2_cold", "oracle_s@grid2_cold"),
           counter="s:cli.run_cli"),
    Metric("cli.self_s", "s", "lower", False, "run_cli time outside wrapped library calls",
           ("solve_s@grid2_cold", "oracle_s@grid2_cold"),
           counter="self:cli.run_cli"),
    Metric("trace_overhead_frac", "ratio", "lower", True, "traced over untraced wall time of one pass, minus 1"),
)


def end_to_end(times: dict, counts: dict, kkt_max: float, gap_max: float | None, setup_s: float,
               peak_rss_mb: float, ops: int, failed: int, wall_clock_s: float, speed: float) -> dict[str, float | None]:
    """End-to-end values from one pass's phase times and counts; None where undefined."""
    updates = counts.get("price_updates", 0)
    timed_updates = times.get("solve", 0.0) + times.get("warm", 0.0) + times.get("cold", 0.0)
    cold = counts.get("cold_updates", 0)
    return {
        "setup_s": setup_s,
        "solve_s": times.get("solve", 0.0),
        "wall_s": sum(times.values()),
        "us_per_price_update": 1e6 * timed_updates / updates if updates else None,
        "price_updates": int(updates),
        "split_updates": int(counts.get("split_updates", 0)),
        "kkt_max": kkt_max,
        "peak_rss_mb": peak_rss_mb,
        "oracle_s": times["oracle"] if "oracle" in times else None,
        "warm_restart_s": times["warm"] if "warm" in times else None,
        "cold_restart_s": times["cold"] if "cold" in times else None,
        "warm_cold_update_ratio": counts.get("warm_updates", 0) / cold if cold else None,
        "objective_gap_max": gap_max,
        "failed_frac": failed / ops if ops else None,
        "wall_clock_s": wall_clock_s,
        "machine_speed": speed,
    }


def per_layer(stats: dict, traced_wall: float, untraced_wall: float) -> dict[str, float | None]:
    """Per-layer values from one pass's tracer counters."""
    out: dict[str, float | None] = {}
    for m in PER_LAYER:
        if m.counter:
            value = stats.get(m.counter, 0)
            out[m.name] = int(value) if m.unit == "count" else float(value)
    checks = stats.get("calls:single_pool.pool_residuals", 0)
    out["single_pool.residual_useful_frac"] = stats.get("n:single_pool.residual_useful", 0) / checks if checks else None
    out["trace_overhead_frac"] = traced_wall / untraced_wall - 1.0
    return out
