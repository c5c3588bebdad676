"""Capacitated rail network, line pools, and routing incidence.

A network is a directed graph whose edges carry train capacities.  A line is
a directed path in that graph, and a pool system records which line each
operator runs inside each line pool.  All structures here are immutable
after construction (a pool system's lines are a read-only mapping, and
every array a network or a view holds refuses writes), and each checks its
own shape once, when it is built:
a Network that its edges are Edges and their ids, endpoints and
capacities, a Line that its edge ids are a tuple of strings, a PoolSystem
its pool ids, that each key is an (operator, pool) pair of strings, the
pools its lines are filed under and that each line is a Line, raising
InputMismatchError.
The engines, the reference solver, the certifier and the CLI compile them
into dense per-pool views (compile_pool), which checks how the lines lie
on the network: each line must be a path of its edges.  There is no other
reader of an instance, so every entry point accepts the same instances.
A pool is compiled once per network it is read against: the pool system
keeps each view it has compiled, keyed weakly by the network, and every
later call, from any entry point, returns that same shared view.  So the
view also files what the engines, the oracle and the certifier would
otherwise derive from its incidence and capacities on every call: the
pool's own edges and their rows, the lines that can run, each line's fair
ratio and neck (_fair_split), the default price step, and, on first use,
the exact solver's one-row-dominance presolve (_implied_rows, _presolve).
"""
from __future__ import annotations

import json
import numbers
import weakref
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from types import MappingProxyType
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


def _check_real(name: str, value: object, interval: str | None = None,
                error: type[ValueError] = ValueError) -> float:
    """A real number as a Python float; reject a bool, a non-number such as "4", or one out of range.

    float() would take both, True as 1.0 and "4" as 4.0, so every reader of
    a real-valued input checks it here first.  Any real type passes, numpy's
    included.  interval is the range the value must lie in, written as the
    message states it, such as "(0, inf)" or "[0, 1]": a parenthesis leaves
    its end open, a bracket closes it.  NaN lies in no interval.  A value
    that is no real number, or lies outside the interval, raises one
    message, which names the input and the interval, as error, ValueError
    or a subclass such as InputMismatchError; without an interval NaN and
    the infinities pass, and the caller decides on them.
    """
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            x = float(value)
        except OverflowError:  # an integer beyond the float range
            raise error(f"{name} is out of the float range") from None
        if interval is None:
            return x
        low, high = (float(end) for end in interval[1:-1].split(","))
        if (low <= x if interval[0] == "[" else low < x) and (x <= high if interval[-1] == "]" else x < high):
            return x
    raise error(f"{name} must be a real number{'' if interval is None else ' in ' + interval}, got {value!r}")


def _check_length(where: str, name: str, values: np.ndarray, n: int) -> None:
    """Reject values unless it is one-dimensional with n entries, naming where it was read and name."""
    if (values.shape if isinstance(values, np.ndarray) else np.shape(values)) != (n,):
        raise InputMismatchError(f"{where}: {name} has shape {np.shape(values)}; the instance needs ({n},)")


def _check_nonnegative(where: str, name: str, values: np.ndarray) -> None:
    """Reject a float array holding a negative or non-finite entry, naming where it was read and name.

    argmin and argmax point at the first NaN when there is one, so the two
    reads reject what (np.isfinite(values) & (values >= 0.0)).all() rejects.
    """
    if values.size and not (values[values.argmin()] >= 0.0 and values[values.argmax()] < np.inf):
        raise InputMismatchError(f"{where}: {name} holds a negative or non-finite entry")


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
        # the network this one was copied from by with_capacities, whose
        # edges, order and endpoints it shares; None for an original
        self._original: Network | None = None

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
        does an id the network lacks.  The copy remembers the original it
        shares its layout with (the first network of a chain of copies), so
        compile_pool lays a pool's lines once for all of them.
        """
        unknown = set(new_caps) - self._pos.keys()
        if unknown:
            raise InputMismatchError(f"unknown edges in capacity update: {sorted(unknown)}")
        edges = list(self.edges)
        for eid, capacity in new_caps.items():
            e = edges[self._pos[eid]]
            edges[self._pos[eid]] = Edge(e.id, e.tail, e.head, capacity)
        copy = Network(self.nodes, edges)
        copy._original = self._original or self
        return copy

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

    lines is a read-only mapping over the system's own copy of the table.
    The system also holds the views compile_pool has built from it, per
    network, in a map keyed weakly by the network, so an entry goes with
    its network.
    """

    def __init__(self, pool_ids: Iterable[str], lines: Mapping[tuple[str, str], Line]) -> None:
        self.pool_ids = tuple(pool_ids)
        self.lines = MappingProxyType(dict(lines))
        self._views: weakref.WeakKeyDictionary[Network, dict[str, PoolView]] = weakref.WeakKeyDictionary()
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
class _Presolve:
    """The one-row-dominance presolve of a pool's rows over its active lines (_presolve).

    lines marks the active lines, the columns the reduced system keeps.
    edges are the edges those lines cross, in presolve order, and first[i]
    is the position in edges of edge i's first cover (_implied_rows).  block
    is the reduced incidence: the rows of the kept edges, each its own first
    cover, in presolve order, over the active lines.
    """

    lines: np.ndarray
    edges: np.ndarray
    first: np.ndarray
    block: np.ndarray


@dataclass(frozen=True)
class PoolView:
    """Dense numeric view of one pool against a fixed edge ordering.

    incidence[e, p] is 1.0 when operator p's line uses edge e.  bottleneck[p]
    is the smallest raw capacity along p's line (scale by the pool's capacity
    share to get the physical frequency ceiling).  own_edges holds, in edge
    order, the positions of the pool's own edges, those some line of the
    pool uses; no load ever reaches any other edge.  own_incidence and
    own_capacity are the incidence's rows and the capacities at those
    edges, and own_closed marks the closed ones among them (capacity 0).
    runs marks the lines that can run, those crossing no closed edge
    (bottleneck > 0).  fair_ratio and neck are each line's fair ratio and
    its column-normalised neck (_fair_split), and price_eta is the default
    price step (DynamicsConfig.price_eta None), 0.01 times the smallest
    open capacity of the network over the most lines sharing an edge: a
    closed edge sets no scale, as it would freeze every price, and when
    every edge is closed, where no load can move, the scale is 1.  None of
    these depends on a share or a valuation, so _build_view computes them
    once, with the view, and the price loop and its cold start read them
    on every run.

    presolve, the exact solver's one-row-dominance presolve of the lines
    that can run (_presolve), is the one array set filed lazily: the first
    read computes it and every later read returns the same object, so a
    run or a restart that never calls the oracle never pays for it.

    A view is shared: every caller that compiles the pool against the same
    network gets this one object, so its arrays, capacity included, refuse
    writes.
    """

    pool_id: str
    edge_ids: tuple[str, ...]
    capacity: np.ndarray
    lop_ids: tuple[str, ...]
    incidence: np.ndarray
    bottleneck: np.ndarray
    own_edges: np.ndarray
    own_incidence: np.ndarray
    own_capacity: np.ndarray
    own_closed: np.ndarray
    runs: np.ndarray
    fair_ratio: np.ndarray
    neck: np.ndarray
    price_eta: float

    @property
    def n_edges(self) -> int:
        return len(self.edge_ids)

    @property
    def n_lops(self) -> int:
        return len(self.lop_ids)

    @cached_property
    def presolve(self) -> _Presolve:
        """The presolve of the lines that can run at the pool's capacities, computed on first read."""
        return _presolve(self.incidence, self.capacity, self.runs)


def compile_pool(net: Network, pools: PoolSystem, pool_id: str) -> PoolView:
    """The dense incidence view of one pool, built on the first call and shared after it.

    The engines, the reference solver and the certifier all read an
    instance through this view.  The first call for a (network, pool)
    pair builds it (_build_view) and files it in the pool system's map
    for that network; every later call returns the same object, so a run,
    its reference optimum, its certificate and its warm restarts compile
    each pool once.  A build that fails is not filed, so the same call
    raises again.  The network and the pool system are immutable, so a
    filed view stays what a fresh build would give, array for array.
    """
    views = pools._views.get(net)
    if views is None:
        views = pools._views[net] = {}
    view = views.get(pool_id)
    if view is None:
        view = views[pool_id] = _build_view(net, pools, pool_id)
    return view


def _build_view(net: Network, pools: PoolSystem, pool_id: str) -> PoolView:
    """Build the dense incidence view of one pool, with read-only arrays.

    The pool's lines are laid on the network first (_lay_lines), unless
    the network is a copy made by with_capacities whose original already
    has the pool's view filed: a copy has its original's edge ids, order
    and endpoints, so the lines lie on it as on the original, and the
    build takes that view's operators, incidence and own rows as they are.

    Then it files every share- and valuation-free array the view's readers
    need that reads the capacities (see PoolView): the bottlenecks, the own
    edges' capacities and closed-edge mask, the lines that can run, the
    fair ratios and the normalised neck (_fair_split), and the default
    price step.  Each reads the own rows, which give what the whole
    incidence gives, as no other row carries a line.  The presolve is left
    to its first reader (PoolView.presolve).
    """
    if pool_id not in pools.pool_ids:
        raise InputMismatchError(f"unknown pool {pool_id!r}")
    base = None if net._original is None else pools._views.get(net._original, {}).get(pool_id)
    if base is None:
        lops, inc, own_edges, own_inc = _lay_lines(net, pools, pool_id)
    else:
        lops, inc, own_edges, own_inc = base.lop_ids, base.incidence, base.own_edges, base.own_incidence
    capacity = net.capacity_vector()
    own_caps = capacity[own_edges]
    bottleneck = np.where(own_inc > 0.0, own_caps[:, None], np.inf).min(axis=0, initial=np.inf)
    fair_ratio, own_neck = _fair_split(own_inc, own_caps)
    neck = np.zeros(inc.shape)
    neck[own_edges] = own_neck
    crowd = float(own_inc.sum(axis=1).max()) if len(lops) else 1.0
    open_caps = capacity[capacity > 0.0]
    price_eta = 0.01 * (float(open_caps.min()) if open_caps.size else 1.0) / max(1.0, crowd)
    arrays = dict(bottleneck=bottleneck, own_capacity=own_caps, own_closed=own_caps == 0.0, runs=bottleneck > 0.0,
                  fair_ratio=fair_ratio, neck=neck)
    for values in arrays.values():
        values.flags.writeable = False
    return PoolView(pool_id=pool_id, edge_ids=net.edge_ids, capacity=capacity, lop_ids=lops, incidence=inc,
                    own_edges=own_edges, own_incidence=own_inc, price_eta=price_eta, **arrays)


def _lay_lines(net: Network, pools: PoolSystem, pool_id: str) -> tuple[tuple[str, ...], np.ndarray, np.ndarray,
                                                                         np.ndarray]:
    """A listed pool's operators, incidence, own edges and own rows on the network, read-only.

    The network and the pool system have checked their own shapes when
    built, so this only lays the pool's lines onto the network's stored
    edge ids and positions, and checks what needs both, raising
    InputMismatchError: each line must be nonempty, use known edges only,
    not repeat an edge, which the 0/1 incidence cannot represent, and be a
    path, each edge starting where the one before it ends.  None of this
    reads a capacity.
    """
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
    own_edges = np.array(sorted(set(rows)), dtype=np.intp)
    own_inc = inc[own_edges]
    for values in (inc, own_edges, own_inc):
        values.flags.writeable = False
    return lops, inc, own_edges, own_inc


def _fair_split(incidence: np.ndarray, capacity: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each line's fair ratio and its column-normalised neck, the one definition of both.

    The fair ratio of a line is the smallest even split of capacity along
    it, min over its edges of capacity / lines crossing; its neck is the
    edge or edges where that minimum is reached, returned as an edges x
    lines array that holds 1 / (neck edges of the line) on them and 0
    elsewhere, so each line's column sums to one and a bid vector's product
    with it charges each bid evenly over its neck.  Both are share-free: at
    share f the fair share is f times the ratio and the neck is the same.
    _build_view computes both once per view, on the pool's own rows.
    """
    # capacity / lines crossing at each edge of each line (columns), inf off
    # the line
    ratio = np.where(incidence > 0.0, (capacity / np.maximum(incidence.sum(axis=1), 1.0))[:, None], np.inf)
    fair_ratio = ratio.min(axis=0, initial=np.inf)
    neck = ratio == fair_ratio
    return fair_ratio, neck / neck.sum(axis=0)


def _implied_rows(rows: np.ndarray, budget: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The edges the columns of `rows` cross, in presolve order, and each one's first cover.

    A cover of an edge crosses every line that edge crosses.  The edges are
    sorted by budget, ties broken by more lines crossed first and then by
    the rows themselves, so only equal rows at equal budgets keep the order
    they are listed in, and they stand for each other.  first[i] is the
    position of the first edge in that order that covers edge i; edge i
    covers itself, so first[i] <= i and the cover's budget is no larger.
    An edge whose first cover is another edge is implied: its load never
    exceeds the cover's, which never exceeds the cover's budget, so pricing
    it at zero loses no optimum (one-row dominance, a standard LP presolve
    step; Andersen & Andersen 1995).  A cover is its own first cover, as
    an edge covering it would cover edge i earlier, so it is kept.  Rows
    that cross nothing, such as a pool's whose lines cannot run, give two
    empty arrays.
    """
    edges = rows.any(axis=1).nonzero()[0]
    used = rows[edges]
    crossing = used.sum(axis=1)
    order = np.lexsort((*used.T, -crossing, budget[edges]))
    used, crossing = used[order], crossing[order]
    covers = used @ used.T == crossing[:, None]
    return edges[order], covers.argmax(axis=1) if covers.size else np.zeros(0, dtype=np.intp)


def _presolve(incidence: np.ndarray, budget: np.ndarray, lines: np.ndarray) -> _Presolve:
    """The one-row-dominance presolve of a pool's rows over the lines `lines` marks, with read-only arrays.

    It reads the incidence's columns of those lines; _implied_rows drops
    every row they leave empty before it forms its product of rows, then
    orders and covers the rest, and the kept rows make the block.  The exact
    solver (single_pool._clearing_prices) solves on what this returns: a
    view's presolve, of its lines that can run at its capacities, for the
    oracle, and one of the lines that bid, per call, for solve_fixed_bids.
    """
    rows = incidence[:, lines]
    edges, first = _implied_rows(rows, budget)
    presolve = _Presolve(lines, edges, first, rows[edges[first == np.arange(len(first))]])
    for values in (edges, first, presolve.block):
        values.flags.writeable = False
    return presolve


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
