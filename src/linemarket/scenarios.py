"""Reproducible experiment instances: grids, disruptions, recovery runs.

Instances live on rows x cols lattice digraphs with rightward and downward
edges.  Every line is a seeded monotone lattice path opening with a common
first edge, so pools compete hardest near the shared throat.  Disruptions
rescale capacities on already congested edges; recovery experiments measure
how much cheaper it is to restart the mechanism warm than cold after such a
hit.
"""
from __future__ import annotations

import zlib
from collections.abc import Sized
from dataclasses import dataclass, replace
from typing import Iterable, Sequence

import numpy as np

from .network import Edge, Line, Network, PoolSystem, _check_count, _check_real
from .multi_pool import MechanismConfig, MechanismResult, OuterState, run_mechanism
from .oracle import mechanism_kkt
from .utility import UtilitySpec, UtilityTable

__all__ = [
    "GridSpec",
    "generate_grid",
    "uniform_utilities",
    "pool_scaled_utilities",
    "DisruptionSpec",
    "congested_edges",
    "apply_disruption",
    "ExperimentRecord",
    "RecoveryResult",
    "run_recovery_experiment",
    "child_seed",
]


def child_seed(root: int, tag: str) -> int:
    """Deterministic per-component seed derived from one root seed."""
    return int(np.random.SeedSequence([root, zlib.crc32(tag.encode())]).generate_state(1)[0])


def _node(r: int, c: int) -> str:
    return f"{r},{c}"


def _edge_id(tail: str, head: str) -> str:
    return f"{tail}->{head}"


@dataclass(frozen=True)
class GridSpec:
    """Lattice instance recipe.

    Lines run from the head of shared_first_edge by rightward/downward moves
    to a random interior target, so every generated line starts with the
    same edge and has at least min_line_len edges.  Each field is checked
    here, as DisruptionSpec checks its own, so a bad one raises ValueError
    naming it rather than failing inside range or numpy when the grid is
    generated: rows, cols, pools, lines_per_pool and min_line_len must be
    whole numbers of at least 1, the capacity range two real numbers, the
    shared first edge's coordinates and the seed whole numbers of at least
    0; a bool passes for none of them.  A line can run at most
    (rows - 1 - r1) + (cols - 1 - c1) edges past the shared edge's head
    (r1, c1), so a min_line_len longer than that plus the shared edge is
    rejected here too, and generation never searches for a line that
    cannot exist.
    """

    rows: int
    cols: int
    pools: int
    lines_per_pool: int
    capacity_range: tuple[float, float] = (10.0, 110.0)
    shared_first_edge: tuple[tuple[int, int], tuple[int, int]] = ((0, 3), (1, 3))
    min_line_len: int = 3
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("rows", "cols", "pools", "lines_per_pool", "min_line_len"):
            _check_count(name, getattr(self, name))
        _check_count("seed", self.seed, 0)
        if self.rows < 2 or self.cols < 2:
            raise ValueError("grid needs at least 2 rows and 2 cols")
        lo, hi = (_check_real("capacity_range", v) for v in self.capacity_range)
        if not (0 < lo < hi < np.inf):
            raise ValueError(f"bad capacity range {self.capacity_range}")
        (r0, c0), (r1, c1) = self.shared_first_edge
        for coord in (r0, c0, r1, c1):
            _check_count("shared_first_edge", coord, 0)
        down = (r1 == r0 + 1 and c1 == c0)
        right = (r1 == r0 and c1 == c0 + 1)
        inside = 0 <= r0 < self.rows and 0 <= r1 < self.rows and 0 <= c0 < self.cols and 0 <= c1 < self.cols
        if not (inside and (down or right)):
            raise ValueError(f"shared first edge {self.shared_first_edge} is not a grid move")
        # the shared edge, then every move from its head to the far corner
        longest = 1 + (self.rows - 1 - r1) + (self.cols - 1 - c1)
        if not 2 <= self.min_line_len <= longest:
            raise ValueError(f"min_line_len {self.min_line_len} is unreachable: a line has at least 2 edges, and one "
                             f"from the shared first edge {self.shared_first_edge} at most {longest}")


def _grid_edges(rows: int, cols: int) -> list[tuple[str, str]]:
    out = []
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                out.append((_node(r, c), _node(r, c + 1)))
            if r + 1 < rows:
                out.append((_node(r, c), _node(r + 1, c)))
    return out


def _monotone_path(spec: GridSpec, rng: np.random.Generator) -> Line:
    """Random rightward/downward path opening with the shared first edge.

    Targets are drawn until one lies far enough from the shared edge's
    head; GridSpec has checked that the farthest corner does.
    """
    (r0, c0), (r1, c1) = spec.shared_first_edge
    first = _edge_id(_node(r0, c0), _node(r1, c1))
    need = spec.min_line_len - 1  # edges after the shared one
    while True:
        rt = int(rng.integers(r1, spec.rows))
        ct = int(rng.integers(c1, spec.cols))
        if (rt - r1) + (ct - c1) >= need:
            break
    moves = ["D"] * (rt - r1) + ["R"] * (ct - c1)
    perm = rng.permutation(len(moves))
    r, c = r1, c1
    edges = [first]
    for i in perm:
        if moves[i] == "D":
            nr, nc = r + 1, c
        else:
            nr, nc = r, c + 1
        edges.append(_edge_id(_node(r, c), _node(nr, nc)))
        r, c = nr, nc
    return Line(tuple(edges))


def generate_grid(spec: GridSpec) -> tuple[Network, PoolSystem]:
    """Seeded lattice instance: capacities then lines, in a fixed order."""
    rng = np.random.default_rng(spec.seed)
    nodes = [_node(r, c) for r in range(spec.rows) for c in range(spec.cols)]
    pairs = _grid_edges(spec.rows, spec.cols)
    lo, hi = spec.capacity_range
    caps = rng.uniform(lo, hi, size=len(pairs))
    edges = [Edge(_edge_id(t, h), t, h, float(cap)) for (t, h), cap in zip(pairs, caps)]

    lines: dict[tuple[str, str], Line] = {}
    pool_ids = [f"pool{k}" for k in range(spec.pools)]
    lop_ids = [f"lop{p}" for p in range(spec.lines_per_pool)]
    for k in pool_ids:
        for lop in lop_ids:
            lines[(lop, k)] = _monotone_path(spec, rng)
    return Network(nodes, edges), PoolSystem(pool_ids, lines)


# ---------------------------------------------------------------------------
# Valuation tables for experiments.

def uniform_utilities(
    pools: PoolSystem, low: float, high: float, seed: int
) -> UtilityTable:
    """Independent uniform coefficients per (operator, pool).

    low must be a real number in (0, inf), high one in [low, inf), and seed a
    whole number of at least 0; a bool passes for none of them, and a bad
    one raises ValueError naming it.
    """
    low = _check_real("low", low, "(0, inf)")
    high = _check_real("high", high, f"[{low!r}, inf)")
    rng = np.random.default_rng(_check_count("seed", seed, 0))
    entries = {
        key: UtilitySpec(float(rng.uniform(low, high)))
        for key in sorted(pools.lines)
    }
    return UtilityTable(entries)


def pool_scaled_utilities(
    pools: PoolSystem, base: float, scales: Sequence[float]
) -> UtilityTable:
    """One coefficient per pool: base times that pool's scale, same for all operators.

    base and each scale must be real numbers in (0, inf), and scales a
    sequence of one per pool; a bool or a string passes for none of them,
    and a bad one raises ValueError naming it.
    """
    base = _check_real("base", base, "(0, inf)")
    if isinstance(scales, str) or not isinstance(scales, Sized) or len(scales) != len(pools.pool_ids):
        raise ValueError(f"need exactly one scale per pool, got {scales!r}")
    by_pool = {k: _check_real(f"scale of pool {k!r}", scale, "(0, inf)") for k, scale in zip(pools.pool_ids, scales)}
    entries = {
        (lop, k): UtilitySpec(base * by_pool[k])
        for (lop, k) in sorted(pools.lines)
    }
    return UtilityTable(entries)


# ---------------------------------------------------------------------------
# Disruptions.

# An edge is congested, and a disruption may hit it, when some pool prices
# it above this
_CONGESTED = 0.1


@dataclass(frozen=True)
class DisruptionSpec:
    """Capacity shock recipe applied to already congested edges.

    kind "reduce" scales capacity by (1 - magnitude) on edge_count congested
    edges, "increase" by (1 + magnitude), and "mixed" does both on disjoint
    sets of edge_count edges each.  magnitude may be zero (a null shock used
    as a control).  Each field is checked here, so a bad one raises
    ValueError naming it rather than failing inside numpy when the shock is
    applied: edge_count must be a whole number of at least 1, magnitude a
    real number in [0, 1], seed a whole number of at least 0; a bool passes
    for none of them.
    """

    kind: str
    edge_count: int
    magnitude: float
    seed: int = 0

    _KINDS = ("reduce", "increase", "mixed")

    def __post_init__(self) -> None:
        if self.kind not in self._KINDS:
            raise ValueError(f"kind must be one of {self._KINDS}, got {self.kind!r}")
        _check_count("edge_count", self.edge_count)
        _check_real("magnitude", self.magnitude, "[0, 1]")
        _check_count("seed", self.seed, 0)


def congested_edges(state: OuterState) -> set[str]:
    """Edges priced above _CONGESTED in at least one pool.

    One comparison per pool finds its edges; a NaN price is not above it.
    """
    out: set[str] = set()
    for st in state.pool_states.values():
        out.update(st.edge_ids[i] for i in np.flatnonzero(np.asarray(st.prices) > _CONGESTED))
    return out


def apply_disruption(
    net: Network, spec: DisruptionSpec, congested: Iterable[str]
) -> Network:
    """Rescale capacities on seeded congested edges, untouched edges intact."""
    pool_of_edges = sorted(set(congested))
    need = 2 * spec.edge_count if spec.kind == "mixed" else spec.edge_count
    if len(pool_of_edges) < need:
        raise ValueError(
            f"disruption needs {need} congested edges, only {len(pool_of_edges)} available"
        )
    rng = np.random.default_rng(spec.seed)
    picked = rng.choice(len(pool_of_edges), size=need, replace=False)
    picked_ids = [pool_of_edges[int(i)] for i in picked]
    # the first edge_count picks of reduce and mixed shrink; every other pick grows
    cut = 0 if spec.kind == "increase" else spec.edge_count
    return net.with_capacities({
        eid: net.capacity(eid) * (1.0 - spec.magnitude if n < cut else 1.0 + spec.magnitude)
        for n, eid in enumerate(picked_ids)
    })


# ---------------------------------------------------------------------------
# Recovery experiments.

@dataclass
class ExperimentRecord:
    """One mechanism run in a recovery experiment, ready for the CSV sink."""

    instance: str
    mode: str                    # "cold" or "warm"
    f_updates: int
    price_updates: dict[str, int]
    bid_updates: int
    max_kkt: float
    status: str                  # "converged" or "nonconverged"

    @property
    def total_price_updates(self) -> int:
        return sum(self.price_updates.values())


@dataclass
class RecoveryResult:
    baseline: MechanismResult
    disrupted_net: Network
    cold: ExperimentRecord | None
    warm: ExperimentRecord | None
    cold_result: MechanismResult | None
    warm_result: MechanismResult | None

    def records(self) -> list[ExperimentRecord]:
        return [r for r in (self.cold, self.warm) if r is not None]


def _record(instance: str, mode: str, res: MechanismResult, max_kkt: float) -> ExperimentRecord:
    return ExperimentRecord(
        instance=instance,
        mode=mode,
        f_updates=res.f_updates,
        price_updates=dict(res.price_updates),
        bid_updates=res.bid_updates,
        max_kkt=max_kkt,
        status="converged" if res.converged else "nonconverged",
    )


def run_recovery_experiment(
    net: Network,
    pools: PoolSystem,
    utilities: UtilityTable,
    disruption: DisruptionSpec,
    cfg: MechanismConfig | None = None,
    instance: str = "instance",
    baseline: MechanismResult | None = None,
    modes: Iterable[str] = ("cold", "warm"),
) -> RecoveryResult:
    """Converge, disrupt, then restart on the shock in the requested modes.

    The baseline run must converge (it plays the role of the known optimum a
    disruption hits); it runs under a tighter equal-cost test than the
    recovery runs, eps_cost at most 0.02, so warm restarts measure the
    shock, not leftover slack in the baseline.  A precomputed converged
    `baseline` skips that solve, which matters when several disruptions hit
    the same instance.  The shock hits the edges congested_edges finds,
    those priced above _CONGESTED, and the shocked network keeps every
    other edge of net as it was (Network.with_capacities).  Each restart
    is certified by mechanism_kkt on the shocked network, which reads the
    views the restart read, so the shocked network builds each pool's view
    once.
    Non-convergence of a recovery run is recorded in its ExperimentRecord,
    not raised.
    """
    cfg = cfg or MechanismConfig()
    wanted = set(modes)
    if not wanted:
        raise ValueError("at least one of cold/warm must run")
    if not wanted <= {"cold", "warm"}:
        raise ValueError(f"unknown recovery modes: {sorted(wanted - {'cold', 'warm'})}")
    if baseline is None:
        baseline = run_mechanism(net, pools, utilities, replace(cfg, eps_cost=min(cfg.eps_cost, 0.02)))
    if not baseline.converged:
        raise RuntimeError(f"baseline run failed to converge: {baseline.diagnostics}")

    shocked = apply_disruption(net, disruption, congested_edges(baseline.state))

    runs: dict[str, MechanismResult] = {}
    records: dict[str, ExperimentRecord] = {}
    for mode, warm in (("warm", baseline.state), ("cold", None)):
        if mode in wanted:
            res = runs[mode] = run_mechanism(shocked, pools, utilities, cfg, warm=warm)
            kkt = mechanism_kkt(shocked, pools, utilities, res.state).max_scaled()
            records[mode] = _record(instance, mode, res, kkt)
    return RecoveryResult(
        baseline=baseline,
        disrupted_net=shocked,
        cold=records.get("cold"),
        warm=records.get("warm"),
        cold_result=runs.get("cold"),
        warm_result=runs.get("warm"),
    )
