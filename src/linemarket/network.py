"""Capacitated rail network, line pools, and routing incidence.

A network is a directed graph whose edges carry train capacities.  A line is
a directed path in that graph, and a pool system records which line each
operator runs inside each line pool.  All structures here are immutable
after construction, and each checks its own shape once, when it is built:
a Network that its edges are Edges and their ids, endpoints and
capacities, a Line that its edge ids are a tuple of strings, a PoolSystem
its pool ids, that each key is an (operator, pool) pair of strings, the
pools its lines are filed under and that each line is a Line, raising
InputMismatchError.
The engines, the reference solver, the certifier and the CLI compile them
into dense per-pool views (compile_pool), which checks how the lines lie
on the network: each line must be a path of its edges.  There is no other
reader of an instance, so every entry point accepts the same instances.
"""
from __future__ import annotations

import json
import numbers
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping

import numpy as np

__all__ = [
    "InputMismatchError",
    "Edge",
    "Network",
    "Line",
    "PoolSystem",
    "PoolView",
    "compile_pool",
    "network_from_json",
    "network_to_json",
    "load_network_file",
    "dump_network_file",
]


class InputMismatchError(ValueError):
    """An input is keyed inconsistently with the network or pool system."""


def _check_count(name: str, value: object, least: int = 1) -> int:
    """A budget as a Python int; reject one that is not a whole number of at least `least`.

    Any integer type passes, numpy's included, and is stored as int, so the
    counts a budget bounds are Python ints too; bool, though an int, fails.
    A seed or a lattice coordinate passes the same test at least 0.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise ValueError(f"{name} must be a whole number of at least {least}, got {value!r}")
    return int(value)


def _check_real(name: str, value: object) -> float:
    """A real number as a Python float; reject a bool or a non-number such as "4".

    float() would take both, True as 1.0 and "4" as 4.0, so every reader of
    a real-valued input checks it here first and raises ValueError naming
    the input.  Any real type passes, numpy's included; NaN and the
    infinities pass too, and the caller's range check decides on them.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # an integer beyond the float range
        raise ValueError(f"{name} is out of the float range") from None


def _check_length(what: str, k: str, name: str, values: np.ndarray, n: int) -> None:
    """Reject values unless it is one-dimensional with n entries, naming what, pool k and name."""
    if (values.shape if isinstance(values, np.ndarray) else np.shape(values)) != (n,):
        raise InputMismatchError(f"{what} of pool {k!r}: {name} has shape {np.shape(values)}; the instance needs ({n},)")


def _check_nonnegative(what: str, k: str, name: str, values: np.ndarray) -> None:
    """Reject a float array holding a negative or non-finite entry, naming what, pool k and name.

    argmin and argmax point at the first NaN when there is one, so the two
    reads reject what (np.isfinite(values) & (values >= 0.0)).all() rejects.
    """
    if values.size and not (values[values.argmin()] >= 0.0 and values[values.argmax()] < np.inf):
        raise InputMismatchError(f"{what} of pool {k!r}: {name} holds a negative or non-finite entry")


@dataclass(frozen=True)
class Edge:
    id: str
    tail: str
    head: str
    capacity: float


class Network:
    """Directed graph with per-edge capacities.

    Edge order is the construction order; every per-edge vector produced by
    this module is aligned with it.  The constructor rejects, with
    InputMismatchError, an entry of edges that is not an Edge (such as a
    bare tuple), a capacity that is not a real number (a string such
    as "4", or a bool), a negative or non-finite one (zero is legal and
    closes the edge), a repeated edge id, which would make a line's edge
    ambiguous, and an edge whose tail or head is not a listed node.  It
    builds the edge-id tuple, the id-to-position map and the read-only
    capacity vector once, and every pool compiled against the network
    shares them; with_capacities and network_from_json build through it,
    so they inherit the checks.
    """

    def __init__(self, nodes: Iterable[str], edges: Iterable[Edge]) -> None:
        self.nodes = frozenset(nodes)
        self.edges = tuple(edges)
        not_edges = [e for e in self.edges if not isinstance(e, Edge)]
        if not_edges:
            raise InputMismatchError(f"edges {not_edges} are not Edge objects")
        self.edge_ids = tuple(e.id for e in self.edges)
        # float() would take "4" and True; a capacity must be a number already.
        # A float passes at once: the ABC test is the slow half of the check
        unreal = [e.id for e in self.edges if type(e.capacity) is not float
                  and (isinstance(e.capacity, bool) or not isinstance(e.capacity, numbers.Real))]
        if unreal:
            raise InputMismatchError(f"edges {unreal} have a capacity that is not a real number")
        capacity = np.array([e.capacity for e in self.edges], dtype=float)
        valid = np.isfinite(capacity) & (capacity >= 0.0)
        if not valid.all():
            bad = [eid for eid, ok in zip(self.edge_ids, valid) if not ok]
            raise InputMismatchError(f"edges {bad} have a negative or non-finite capacity")
        self._pos = {eid: i for i, eid in enumerate(self.edge_ids)}
        if len(self._pos) != len(self.edge_ids):
            repeated = sorted({eid for eid in self.edge_ids if self.edge_ids.count(eid) > 1})
            raise InputMismatchError(f"edge ids {repeated} are not unique")
        stray = [e.id for e in self.edges if e.tail not in self.nodes or e.head not in self.nodes]
        if stray:
            raise InputMismatchError(f"edges {stray} end at a node the network does not list")
        capacity.flags.writeable = False
        self._capacity = capacity

    def edge(self, edge_id: str) -> Edge:
        try:
            return self.edges[self._pos[edge_id]]
        except KeyError:
            raise InputMismatchError(f"unknown edge {edge_id!r}") from None

    def capacity(self, edge_id: str) -> float:
        return self.edge(edge_id).capacity

    def capacity_vector(self) -> np.ndarray:
        """Capacities in edge order, one read-only array shared by every caller."""
        return self._capacity

    def with_capacities(self, new_caps: Mapping[str, float]) -> "Network":
        """Copy of the network with selected edge capacities replaced.

        Every edge new_caps does not name is the same frozen Edge object in
        the copy; only the named ones are rebuilt.  Their capacities pass
        to the constructor as given, so one that is not a real number (a
        string such as "4", a bool or None), or a negative or non-finite
        one, raises InputMismatchError as it would in Network(...), and so
        does an id the network lacks.
        """
        unknown = set(new_caps) - self._pos.keys()
        if unknown:
            raise InputMismatchError(f"unknown edges in capacity update: {sorted(unknown)}")
        edges = list(self.edges)
        for eid, capacity in new_caps.items():
            e = edges[self._pos[eid]]
            edges[self._pos[eid]] = Edge(e.id, e.tail, e.head, capacity)
        return Network(self.nodes, edges)

    def __repr__(self) -> str:
        return f"Network(nodes={len(self.nodes)}, edges={len(self.edges)})"


@dataclass(frozen=True)
class Line:
    """A directed path, stored as the ordered tuple of edge ids.

    edge_ids must be a tuple of strings, else InputMismatchError: a bare
    string such as "e1" would read as the edges "e" and "1".
    """

    edge_ids: tuple[str, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.edge_ids, tuple) or not all(isinstance(eid, str) for eid in self.edge_ids):
            raise InputMismatchError(f"a line's edge ids must be a tuple of strings, got {self.edge_ids!r}")

    def __len__(self) -> int:
        return len(self.edge_ids)


class PoolSystem:
    """Which line each operator runs in each pool.

    Keys are (operator id, pool id).  An operator participates in a pool iff
    the pair is present; participation with more than one line per pool is
    impossible by construction.  The constructor rejects, with
    InputMismatchError, an empty pool list, a key that is not an
    (operator, pool) pair of strings, a repeated pool id (two pools
    would read one set of lines under one split entry), a line filed
    under a pool the list does not name and a line that is not a Line,
    such as a bare tuple of edge ids.  A listed pool may hold no lines.
    """

    def __init__(self, pool_ids: Iterable[str], lines: Mapping[tuple[str, str], Line]) -> None:
        self.pool_ids = tuple(pool_ids)
        self.lines = dict(lines)
        if not self.pool_ids:
            raise InputMismatchError("the pool system lists no pools")
        bad_keys = [key for key in self.lines
                    if not (isinstance(key, tuple) and len(key) == 2 and all(isinstance(part, str) for part in key))]
        if bad_keys:
            raise InputMismatchError(f"line keys {bad_keys} are not (operator, pool) pairs of strings")
        listed = set(self.pool_ids)
        if len(listed) != len(self.pool_ids):
            repeated = sorted({k for k in self.pool_ids if self.pool_ids.count(k) > 1})
            raise InputMismatchError(f"pool ids {repeated} are not unique")
        unlisted = sorted(key for key in self.lines if key[1] not in listed)
        if unlisted:
            raise InputMismatchError(f"lines {unlisted} are filed under pools the system does not list")
        not_lines = sorted(key for key, line in self.lines.items() if not isinstance(line, Line))
        if not_lines:
            raise InputMismatchError(f"lines {not_lines} are not Line objects")

    def pairs(self) -> tuple[tuple[str, str], ...]:
        return tuple(sorted(self.lines))

    def lops_in(self, pool_id: str) -> tuple[str, ...]:
        return tuple(sorted(lop for lop, k in self.lines if k == pool_id))

    def line(self, lop: str, pool_id: str) -> Line:
        try:
            return self.lines[(lop, pool_id)]
        except KeyError:
            raise InputMismatchError(f"no line for operator {lop!r} in pool {pool_id!r}") from None

    def __repr__(self) -> str:
        return f"PoolSystem(pools={len(self.pool_ids)}, lines={len(self.lines)})"


# ---------------------------------------------------------------------------
# Compiled per-pool view used by the engines and the reference solver.

@dataclass(frozen=True)
class PoolView:
    """Dense numeric view of one pool against a fixed edge ordering.

    incidence[e, p] is 1.0 when operator p's line uses edge e.  bottleneck[p]
    is the smallest raw capacity along p's line (scale by the pool's capacity
    share to get the physical frequency ceiling).  own_edges holds, in edge
    order, the positions of the pool's own edges, those some line of the
    pool uses; no load ever reaches any other edge.  compile_pool computes
    both once, since every run of the pool's price loop reads them.
    """

    pool_id: str
    edge_ids: tuple[str, ...]
    capacity: np.ndarray
    lop_ids: tuple[str, ...]
    incidence: np.ndarray
    bottleneck: np.ndarray
    own_edges: np.ndarray

    @property
    def n_edges(self) -> int:
        return len(self.edge_ids)

    @property
    def n_lops(self) -> int:
        return len(self.lop_ids)

    def lines_per_edge(self) -> np.ndarray:
        return self.incidence.sum(axis=1)


def compile_pool(net: Network, pools: PoolSystem, pool_id: str) -> PoolView:
    """Build the dense incidence view of one pool.

    The engines, the reference solver and the certifier all read an
    instance through this view.  The network and the pool system have
    checked their own shapes when built, so this only lays the pool's lines
    onto the network's stored edge ids, positions and capacities, and
    checks what needs both, raising InputMismatchError: the pool must be
    one the system lists, and each line must be nonempty, use known edges
    only, not repeat an edge, which the 0/1 incidence cannot represent, and
    be a path, each edge starting where the one before it ends.
    """
    if pool_id not in pools.pool_ids:
        raise InputMismatchError(f"unknown pool {pool_id!r}")
    capacity = net.capacity_vector()
    lops = pools.lops_in(pool_id)
    pos, edges = net._pos, net.edges
    n = len(lops)
    # the edges the lines use, and the incidence's nonzero entries as flat
    # positions, set in one call
    rows: list[int] = []
    cells: list[int] = []
    for p, lop in enumerate(lops):
        ids = pools.lines[(lop, pool_id)].edge_ids
        if not ids or len(set(ids)) != len(ids):
            raise InputMismatchError(f"line ({lop}, {pool_id}) is empty or repeats an edge")
        try:
            idx = [pos[eid] for eid in ids]
        except KeyError as err:
            raise InputMismatchError(f"line ({lop}, {pool_id}) uses unknown edge {err}") from None
        for a, b in zip(idx, idx[1:]):
            if edges[a].head != edges[b].tail:
                raise InputMismatchError(
                    f"line ({lop}, {pool_id}) is not a path: "
                    f"{net.edge_ids[a]} does not end where {net.edge_ids[b]} starts"
                )
        rows += idx
        cells += [i * n + p for i in idx]
    inc = np.zeros((len(net.edge_ids), n))
    inc.put(cells, 1.0)
    return PoolView(
        pool_id=pool_id,
        edge_ids=net.edge_ids,
        capacity=capacity,
        lop_ids=lops,
        incidence=inc,
        bottleneck=np.where(inc > 0.0, capacity[:, None], np.inf).min(axis=0, initial=np.inf),
        own_edges=np.array(sorted(set(rows)), dtype=np.intp),
    )


# ---------------------------------------------------------------------------
# JSON round trip.

def network_from_json(doc: Mapping) -> tuple[Network, PoolSystem]:
    """Parse the network document format.

    A capacity must be a JSON number: a bool or a string raises ValueError
    naming the edge, and Network checks the rest.

    Expected shape::

        {"nodes": [...],
         "edges": [{"id", "tail", "head", "capacity"}, ...],
         "pools": [{"id", "lines": [{"lop", "edges": [...]}, ...]}, ...]}
    """
    try:
        nodes = [str(n) for n in doc["nodes"]]
        edges = [
            Edge(str(e["id"]), str(e["tail"]), str(e["head"]),
                 _check_real(f"capacity of edge {e['id']!r}", e["capacity"]))
            for e in doc["edges"]
        ]
        pool_ids = [str(p["id"]) for p in doc["pools"]]
        lines: dict[tuple[str, str], Line] = {}
        for p in doc["pools"]:
            for entry in p["lines"]:
                key = (str(entry["lop"]), str(p["id"]))
                if key in lines:
                    raise ValueError(f"duplicate line for {key}")
                lines[key] = Line(tuple(str(eid) for eid in entry["edges"]))
    except (KeyError, TypeError) as err:
        raise ValueError(f"malformed network document: missing or bad field {err}") from None
    return Network(nodes, edges), PoolSystem(pool_ids, lines)


def network_to_json(net: Network, pools: PoolSystem) -> dict:
    return {
        "nodes": sorted(net.nodes),
        "edges": [
            {"id": e.id, "tail": e.tail, "head": e.head, "capacity": e.capacity}
            for e in net.edges
        ],
        "pools": [
            {
                "id": k,
                "lines": [
                    {"lop": lop, "edges": list(pools.line(lop, k).edge_ids)}
                    for lop in pools.lops_in(k)
                ],
            }
            for k in pools.pool_ids
        ],
    }


def _write_json(path: str | Path, doc) -> None:
    """Write a JSON document as every file the package writes: indent 2, sorted keys, a final newline, UTF-8."""
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def load_network_file(path: str | Path) -> tuple[Network, PoolSystem]:
    with open(path, encoding="utf-8") as fh:
        return network_from_json(json.load(fh))


def dump_network_file(net: Network, pools: PoolSystem, path: str | Path) -> None:
    _write_json(path, network_to_json(net, pools))
