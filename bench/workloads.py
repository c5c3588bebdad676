"""Inputs and item runners of the three benchmark workloads.

A workload is a fixed list of items; one pass runs every item once.  Each
item run calls the library (or the CLI) exactly as a user would, times each
call from outside, and returns a Sample with the wall times, the exact
iteration counts, the values that must repeat bit for bit, and any failed
correctness gate.

The workload seed changes how the fixed instance set is presented, never
which problems it holds: seed 0 is the canonical set (the test suite's
instances, in order, under their own names), and any other seed prefixes
every node, edge, operator and pool id with a seed tag and shuffles the
order of the items, the edge list and the line table (grid2_cold, whose
grids the CLI generates itself, only reorders its items and renames its
scenario).  Sorted id order is kept, so disruptions pick the same edges.
Price and split update counts are therefore the same at every seed, which
keeps the timed totals comparable across seeds, while the program still
receives byte-different inputs.
"""
from __future__ import annotations

import contextlib
import csv
import io
import json
import shutil
import sys
import tempfile
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable

import numpy as np

import linemarket as lm
from linemarket import cli, multi_pool, oracle, scenarios

KKT_LIMIT = 0.1     # every converged run: mechanism_kkt(...).max_scaled() <= this
GAP_LIMIT = 0.02    # chain20: |mechanism - oracle| / oracle <= this

# Grid family engine settings, as in the test suite: the capacity-scaled
# default price step overshoots on 7x12 lattices, so grids pin it.
GRID_CFG = lm.MechanismConfig(inner=lm.DynamicsConfig(price_eta=1e-3))
GRID_BASE_CFG = replace(GRID_CFG, eps_cost=0.02)

# grid_recover instances: the first qualifying seeds of the test suite's
# GRID_SEEDS_K1 / GRID_SEEDS_K2 lists.  Single-pool grids take every shock;
# the two-pool grid takes the README's shock only, because one two-pool
# cold restart costs as much as twelve single-pool restarts.
SHOCKS = tuple((kind, mag) for kind in ("reduce", "increase", "mixed") for mag in (0.1, 0.5))
RECOVER_GRIDS = ((1, 0, SHOCKS), (1, 1, SHOCKS), (1, 6, SHOCKS), (1, 7, SHOCKS), (2, 0, (("reduce", 0.1),)))

# grid2_cold: the README demo scenario, verbatim.
DEMO_SCENARIO = {
    "name": "demo",
    "grid": {
        "rows": 7, "cols": 12, "pools": 2, "lines_per_pool": 10,
        "capacity_range": [10, 110], "min_line_len": 10,
    },
    "utilities_gen": {"kind": "uniform", "low": 5, "high": 15},
    "disruption": {"kind": "reduce", "edge_count": 1, "magnitude": 0.1},
    "engine": {"eta_price": 0.001},
    "seeds": [0, 1, 2],
}
CLI_OUTPUTS = ("state_seed{s}.json", "outer_trace_seed{s}.csv", "records.csv", "oracle_seed{s}.json")


# ---------------------------------------------------------------------------
# Instance generation.

def chain_instance(index: int):
    """Random path network with 2 pools; the test suite's chain family, draw for draw."""
    rng = np.random.default_rng(index)
    n_edges = int(rng.integers(2, 7))
    n_lops = int(rng.integers(2, 4))
    caps = rng.uniform(2.0, 10.0, n_edges)
    nodes = [f"n{i}" for i in range(n_edges + 1)]
    edges = [lm.Edge(f"e{i}", f"n{i}", f"n{i+1}", float(caps[i])) for i in range(n_edges)]
    pool_ids = ["k0", "k1"]
    lines = {}
    for k in pool_ids:
        for p in range(n_lops):
            i = int(rng.integers(0, n_edges))
            j = int(rng.integers(i + 1, n_edges + 1))
            lines[(f"lop{p}", k)] = lm.Line(tuple(f"e{t}" for t in range(i, j)))
    entries = {}
    for k in pool_ids:
        for p in range(n_lops):
            entries[(f"lop{p}", k)] = lm.UtilitySpec(float(rng.uniform(2.0, 5.0)))
    return lm.Network(nodes, edges), lm.PoolSystem(pool_ids, lines), lm.UtilityTable(entries)


def grid_instance(seed: int, pools: int):
    """The 7x12 recovery family: 10 lines per pool, each at least 10 edges long."""
    spec = lm.GridSpec(
        rows=7, cols=12, pools=pools, lines_per_pool=10,
        capacity_range=(10.0, 110.0), min_line_len=10, seed=seed,
    )
    net, ps = scenarios.generate_grid(spec)
    return net, ps, lm.uniform_utilities(ps, 5.0, 15.0, seed=seed + 100)


def relabel(net, pools, table, rng: np.random.Generator, tag: str):
    """The same instance under tag-prefixed ids, with edges and lines reordered."""
    nodes = [tag + n for n in net.nodes]
    edges = [
        lm.Edge(tag + e.id, tag + e.tail, tag + e.head, e.capacity)
        for e in (net.edges[i] for i in rng.permutation(len(net.edges)))
    ]
    keys = list(pools.lines)
    keys = [keys[i] for i in rng.permutation(len(keys))]
    lines = {
        (tag + lop, tag + k): lm.Line(tuple(tag + e for e in pools.lines[(lop, k)].edge_ids))
        for lop, k in keys
    }
    entries = {(tag + lop, tag + k): table.spec(lop, k) for lop, k in keys}
    return lm.Network(nodes, edges), lm.PoolSystem([tag + k for k in pools.pool_ids], lines), lm.UtilityTable(entries)


def _presentation(seed: int) -> tuple[np.random.Generator, str]:
    return np.random.default_rng(seed), ("" if seed == 0 else f"w{seed}.")


def _ordered(items: list, rng: np.random.Generator, seed: int) -> list:
    return items if seed == 0 else [items[i] for i in rng.permutation(len(items))]


# ---------------------------------------------------------------------------
# One item run.

@dataclass
class Sample:
    """Outcome of one item run: phase times, exact counts, repeatable values."""

    times: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    counts: dict[str, int] = field(default_factory=lambda: defaultdict(int))
    values: dict[str, float] = field(default_factory=dict)
    ops: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    layers: dict[str, float] | None = None   # tracer counters of a traced run
    speed: float = 1.0   # reference seconds per wall second, from the calibration kernel

    def call(self, phase: str, fn: Callable, *args, **kwargs):
        """Time one operation; an exception is reported and counted as a failed operation."""
        self.ops += 1
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except Exception:
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return None
        finally:
            self.times[phase] += time.perf_counter() - t0

    def unreached(self, n: int) -> None:
        """Operations that could not run because one they depend on failed."""
        self.ops += n
        self.failed += n

    def certify(self, label: str, kkt: float) -> None:
        self.values[f"{label}.kkt"] = kkt
        if not kkt <= KKT_LIMIT:
            self.problems.append(f"{label}: scaled KKT residual {kkt:.4g} above {KKT_LIMIT}")


@dataclass
class Item:
    name: str
    run: Callable[[], Sample]


def _mechanism_counts(sample: Sample, res) -> None:
    sample.counts["price_updates"] += sum(res.price_updates.values())
    sample.counts["split_updates"] += res.f_updates


# ---------------------------------------------------------------------------
# chain20: cold mechanism, oracle and certificate on the 20 chain instances.

def _chain_run(label: str, net, pools, table) -> Sample:
    s = Sample()
    res = s.call("solve", multi_pool.run_mechanism, net, pools, table)
    sol = s.call("oracle", oracle.solve_full, net, pools, table)
    if res is None:
        s.unreached(1)
    else:
        _mechanism_counts(s, res)
        s.values[f"{label}.objective"] = res.objective
        if not res.converged:
            s.failed += 1
        report = s.call("certify", oracle.mechanism_kkt, net, pools, table, res.state)
        if report is not None and res.converged:
            s.certify(label, report.max_scaled())
    if sol is not None:
        s.values[f"{label}.oracle_objective"] = sol.objective
        if not sol.converged:
            s.failed += 1
        if res is not None:
            gap = abs(res.objective - sol.objective) / sol.objective
            s.values["gap"] = gap
            if not gap <= GAP_LIMIT:
                s.problems.append(f"{label}: objective gap {gap:.4%} above {GAP_LIMIT:.0%}")
    return s


def chain20(seed: int, workdir: Path) -> list[Item]:
    rng, tag = _presentation(seed)
    items = []
    for index in range(20):
        inputs = chain_instance(index)
        if tag:
            inputs = relabel(*inputs, rng, tag)
        label = f"chain{index}"
        items.append(Item(label, lambda label=label, inputs=inputs: _chain_run(label, *inputs)))
    return _ordered(items, rng, seed)


# ---------------------------------------------------------------------------
# grid2_cold: the README scenario through the CLI, solve then oracle.

class _CliSeed:
    """One scenario seed through `run_cli solve` and `run_cli oracle`.

    The first run keeps its output files; every later run must write the
    same bytes.
    """

    def __init__(self, scenario: Path, seed: int, workdir: Path) -> None:
        self.scenario = scenario
        self.seed = seed
        self.workdir = workdir
        self.reference: dict[str, bytes] | None = None

    def _cli(self, sample: Sample, phase: str, out: Path) -> None:
        argv = [phase, "--scenario", str(self.scenario), "--out", str(out), "--seeds", str(self.seed)]
        with contextlib.redirect_stdout(io.StringIO()):
            code = sample.call(phase, lambda: cli.run_cli(argv))
        if code not in (0, None):
            sample.failed += 1

    def __call__(self) -> Sample:
        s = Sample()
        label = f"demo{self.seed}"
        out = Path(tempfile.mkdtemp(prefix="cli-", dir=self.workdir))
        try:
            self._cli(s, "solve", out)
            self._cli(s, "oracle", out)
            files = {}
            for pattern in CLI_OUTPUTS:
                path = out / pattern.format(s=self.seed)
                if path.exists():
                    files[path.name] = path.read_bytes()
                else:
                    s.problems.append(f"{label}: {path.name} was not written")
        finally:
            shutil.rmtree(out, ignore_errors=True)

        state = json.loads(files.get(f"state_seed{self.seed}.json", b"null"))
        ref = json.loads(files.get(f"oracle_seed{self.seed}.json", b"null"))
        rows = list(csv.DictReader(io.StringIO(files.get("records.csv", b"").decode())))
        if state is not None:
            s.counts["price_updates"] += sum(state["price_updates"].values())
            s.counts["split_updates"] += state["f_updates"]
            s.values[f"{label}.objective"] = state["objective"]
        if rows and rows[0]["status"] == "converged":
            s.certify(label, float(rows[0]["max_kkt"]))
        if ref is not None:
            s.values[f"{label}.oracle_objective"] = ref["objective"]
            if state is not None:
                s.values["gap"] = abs(state["objective"] - ref["objective"]) / ref["objective"]

        if self.reference is None:
            self.reference = files
        elif files != self.reference:
            changed = sorted(k for k in set(files) | set(self.reference) if files.get(k) != self.reference.get(k))
            s.problems.append(f"{label}: outputs differ from the first pass: {', '.join(changed)}")
        return s


def _write_demo_scenario(seed: int, workdir: Path) -> Path:
    doc = dict(DEMO_SCENARIO)
    if seed:
        doc["name"] = f"demo-w{seed}"
    path = workdir / "scenario.json"
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return path


def grid2_cold(seed: int, workdir: Path) -> list[Item]:
    rng, _ = _presentation(seed)
    scenario = _write_demo_scenario(seed, workdir)
    items = [Item(f"demo{s}", _CliSeed(scenario, s, workdir)) for s in DEMO_SCENARIO["seeds"]]
    return _ordered(items, rng, seed)


# ---------------------------------------------------------------------------
# grid_recover: converged baseline, then warm and cold restarts per shock.
#
# A baseline and each shock are separate items, so that the short restarts
# are timed as short runs.  Shock items restart from the baseline of the
# first baseline run; every later baseline run must reproduce it exactly.

@dataclass
class _Grid:
    label: str
    seed: int
    inputs: tuple
    base: object = None   # converged baseline MechanismResult, once one ran


def _baseline_run(grid: _Grid) -> Sample:
    s = Sample()
    net, pools, table = grid.inputs
    base = s.call("solve", multi_pool.run_mechanism, net, pools, table, GRID_BASE_CFG)
    if base is None:
        s.unreached(1)
        return s
    _mechanism_counts(s, base)
    s.values[f"{grid.label}.objective"] = base.objective
    if not base.converged:
        s.failed += 1
    report = s.call("certify", oracle.mechanism_kkt, net, pools, table, base.state)
    if report is not None and base.converged:
        s.certify(grid.label, report.max_scaled())
        hot = scenarios.congested_edges(base.state)
        if len(hot) < 2:
            s.problems.append(f"{grid.label}: baseline has {len(hot)} congested edges, the family needs 2")
        if grid.base is None:
            grid.base = base
    return s


def _restart(s: Sample, label: str, mode: str, grid: _Grid, spec) -> None:
    out = s.call(mode, scenarios.run_recovery_experiment, *grid.inputs, spec, GRID_CFG,
                 instance=label, baseline=grid.base, modes=(mode,))
    if out is None:
        return
    rec = getattr(out, mode)
    s.counts["price_updates"] += rec.total_price_updates
    s.counts["split_updates"] += rec.f_updates
    s.counts[f"{mode}_updates"] += rec.total_price_updates
    s.values[f"{label}.{mode}.objective"] = getattr(out, f"{mode}_result").objective
    if rec.status == "converged":
        s.certify(f"{label}.{mode}", rec.max_kkt)
    else:
        s.failed += 1


def _shock_run(grid: _Grid, kind: str, magnitude: float) -> Sample:
    s = Sample()
    if grid.base is None:
        s.unreached(2)
        return s
    spec = lm.DisruptionSpec(kind=kind, edge_count=1, magnitude=magnitude, seed=grid.seed * 7 + 1)
    label = f"{grid.label}.{kind}{magnitude}"
    _restart(s, label, "warm", grid, spec)
    _restart(s, label, "cold", grid, spec)
    return s


def grid_recover(seed: int, workdir: Path) -> list[Item]:
    rng, tag = _presentation(seed)
    baselines, shocks = [], []
    for n_pools, grid_seed, grid_shocks in RECOVER_GRIDS:
        inputs = grid_instance(grid_seed, n_pools)
        if tag:
            inputs = relabel(*inputs, rng, tag)
        grid = _Grid(f"grid{n_pools}-s{grid_seed}", grid_seed, inputs)
        baselines.append(Item(grid.label, lambda grid=grid: _baseline_run(grid)))
        shocks += [Item(f"{grid.label}.{kind}{mag}", lambda grid=grid, kind=kind, mag=mag: _shock_run(grid, kind, mag))
                   for kind, mag in grid_shocks]
    # baselines first: the first pass is where shock items get their baseline
    return _ordered(baselines, rng, seed) + _ordered(shocks, rng, seed)


WORKLOADS: dict[str, Callable[[int, Path], list[Item]]] = {
    "chain20": chain20,
    "grid2_cold": grid2_cold,
    "grid_recover": grid_recover,
}
