"""Shared instance builders for the test suite.

Everything here is seeded and deterministic; the acceptance tests and the
unit tests draw from the same families so a failure reproduces from the
seed alone.
"""
from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

import numpy as np

import linemarket as lm

# The committed CLI scenarios, one file each: the README demo (demo), CI's
# 4x6 five-pool grid (ci5), and the lopsided, closing and mixed40 runs
SCENARIOS = Path(__file__).parent / "scenarios"


def scenario(name: str) -> dict:
    """A fresh copy of the committed CLI scenario SCENARIOS/<name>.json, as a document to edit."""
    return json.loads((SCENARIOS / f"{name}.json").read_text(encoding="utf-8"))


# Grid experiments run at an explicit small price step: the capacity-scaled
# default is tuned for desk-size chains and overshoots on 7x12 lattices.
GRID_CFG = lm.MechanismConfig(inner=lm.DynamicsConfig(price_eta=1e-3))
GRID_BASE_CFG = replace(GRID_CFG, eps_cost=0.02)

# Seeds whose converged baseline has at least two congested edges, so every
# disruption kind (including mixed) applies.  First ten qualifying seeds in
# order, per pool count.
GRID_SEEDS_K1 = (0, 1, 6, 7, 8, 9, 10, 14, 16, 17)
GRID_SEEDS_K2 = (0, 1, 5, 6, 7, 8, 9, 10, 14, 16)


def single_edge(capacity: float = 4.0, a: float = 2.0):
    """One edge, one pool, one operator: the closed-form workhorse."""
    net = lm.Network(["u", "v"], [lm.Edge("e1", "u", "v", capacity)])
    pools = lm.PoolSystem(["k0"], {("lop0", "k0"): lm.Line(("e1",))})
    table = lm.UtilityTable({("lop0", "k0"): lm.UtilitySpec(a)})
    return net, pools, table


def two_lops_one_edge(capacity: float = 4.0, a: float = 2.0):
    net = lm.Network(["u", "v"], [lm.Edge("e1", "u", "v", capacity)])
    pools = lm.PoolSystem(
        ["k0"],
        {("lop0", "k0"): lm.Line(("e1",)), ("lop1", "k0"): lm.Line(("e1",))},
    )
    table = lm.UtilityTable(
        {("lop0", "k0"): lm.UtilitySpec(a), ("lop1", "k0"): lm.UtilitySpec(a)}
    )
    return net, pools, table


def shared_edge_two_pools(ratio: float, capacity: float = 4.0, a: float = 2.0):
    """Both pools run one operator over the same single edge.

    Pool k1's coefficient is ratio times pool k0's; the optimal split is
    f_k proportional to the squared coefficient sums, (1, ratio^2)/(1+ratio^2).
    """
    net = lm.Network(["u", "v"], [lm.Edge("e1", "u", "v", capacity)])
    pools = lm.PoolSystem(
        ["k0", "k1"],
        {("lop0", "k0"): lm.Line(("e1",)), ("lop0", "k1"): lm.Line(("e1",))},
    )
    table = lm.UtilityTable(
        {("lop0", "k0"): lm.UtilitySpec(a), ("lop0", "k1"): lm.UtilitySpec(a * ratio)}
    )
    return net, pools, table


def symmetric_two_pool():
    """Two pools with identical lines and identical utilities."""
    return shared_edge_two_pools(1.0)


def chain_instance(seed: int):
    """Random path network, 2 pools, small enough for the full oracle grid.

    Draw order is frozen: edge count, operator count, capacities, then one
    coefficient per (pool, operator) with the pool loop outermost.
    """
    rng = np.random.default_rng(seed)
    n_edges = int(rng.integers(2, 7))
    n_lops = int(rng.integers(2, 4))
    caps = rng.uniform(2.0, 10.0, n_edges)

    nodes = [f"n{i}" for i in range(n_edges + 1)]
    edges = [
        lm.Edge(f"e{i}", f"n{i}", f"n{i+1}", float(caps[i])) for i in range(n_edges)
    ]
    net = lm.Network(nodes, edges)

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
    return net, lm.PoolSystem(pool_ids, lines), lm.UtilityTable(entries)


def tiny_instance(seed: int):
    """Instances small enough for exhaustive (x, f) grid search."""
    rng = np.random.default_rng(seed)
    n_edges = int(rng.integers(1, 3))
    n_pools = int(rng.integers(1, 3))
    n_lops = int(rng.integers(1, 3))
    caps = rng.uniform(2.0, 8.0, n_edges)

    nodes = [f"n{i}" for i in range(n_edges + 1)]
    edges = [
        lm.Edge(f"e{i}", f"n{i}", f"n{i+1}", float(caps[i])) for i in range(n_edges)
    ]
    net = lm.Network(nodes, edges)

    pool_ids = [f"k{k}" for k in range(n_pools)]
    lines = {}
    for k in pool_ids:
        for p in range(n_lops):
            i = int(rng.integers(0, n_edges))
            j = int(rng.integers(i + 1, n_edges + 1))
            lines[(f"lop{p}", k)] = lm.Line(tuple(f"e{t}" for t in range(i, j)))
    entries = {}
    for k in pool_ids:
        for p in range(n_lops):
            entries[(f"lop{p}", k)] = lm.UtilitySpec(float(rng.uniform(1.0, 2.0)))
    return net, lm.PoolSystem(pool_ids, lines), lm.UtilityTable(entries)


def grid_spec(seed: int, pools: int) -> lm.GridSpec:
    """The 7x12 recovery-experiment family.

    Ten lines of length >= 10 force overlap past the shared first edge, so
    converged baselines price more than one edge and every disruption kind
    has room to pick edges.
    """
    return lm.GridSpec(
        rows=7,
        cols=12,
        pools=pools,
        lines_per_pool=10,
        capacity_range=(10.0, 110.0),
        min_line_len=10,
        seed=seed,
    )


def grid_instance(seed: int, pools: int):
    net, ps = lm.generate_grid(grid_spec(seed, pools))
    table = lm.uniform_utilities(ps, 5.0, 15.0, seed=seed + 100)
    return net, ps, table


HUB_SPOKES, HUB_RINGS = 6, 3


def hub_instance(seed: int):
    """The hub-and-spoke family: 6 spokes of 3 rings around one hub, 2 pools of 10 lines.

    Each spoke has an inbound leg (ring 3 to 2 to 1 to the hub) and an
    outbound leg (the hub to ring 1 to 2 to 3), so the graph has 37 nodes
    and 36 edges and no cycle.  A line boards at a station of one spoke's
    inbound leg, runs through the hub and leaves along another spoke's
    outbound leg to one of its stations, so lines from every direction meet
    at the hub.  Capacities are U(10, 110) and valuations U(5, 15).  Draw
    order is frozen: the capacities, inbound legs first, then per pool and
    line its boarding spoke, boarding ring, leaving spoke and leaving ring;
    the valuations come from uniform_utilities at seed + 100.
    """
    rng = np.random.default_rng(seed)

    def station(leg: str, spoke: int, ring: int) -> str:
        return "hub" if ring == 0 else f"{leg}{spoke}_{ring}"

    legs = [(leg, s, r) for leg in ("in", "out") for s in range(HUB_SPOKES) for r in range(1, HUB_RINGS + 1)]
    caps = rng.uniform(10.0, 110.0, len(legs))
    edges = []
    for (leg, s, r), cap in zip(legs, caps):
        # edge (leg, s, r) joins rings r and r - 1 of spoke s; inbound edges point towards the hub
        outer, inner = station(leg, s, r), station(leg, s, r - 1)
        tail, head = (outer, inner) if leg == "in" else (inner, outer)
        edges.append(lm.Edge(f"{leg}{s}_{r}", tail, head, float(cap)))
    nodes = ["hub"] + [station(leg, s, r) for leg, s, r in legs]
    lines = {}
    for k in ("pool0", "pool1"):
        for p in range(10):
            board, board_ring = int(rng.integers(HUB_SPOKES)), int(rng.integers(1, HUB_RINGS + 1))
            leave = (board + int(rng.integers(1, HUB_SPOKES))) % HUB_SPOKES
            leave_ring = int(rng.integers(1, HUB_RINGS + 1))
            path = [f"in{board}_{r}" for r in range(board_ring, 0, -1)] + [f"out{leave}_{r}" for r in range(1, leave_ring + 1)]
            lines[(f"lop{p}", k)] = lm.Line(tuple(path))
    pools = lm.PoolSystem(["pool0", "pool1"], lines)
    return lm.Network(nodes, edges), pools, lm.uniform_utilities(pools, 5.0, 15.0, seed=seed + 100)


def arbitrary_states(net, pools, table, rng: np.random.Generator, count: int) -> list[lm.OuterState]:
    """count random warm states of an instance: the paper's "arbitrary initial state (to be solved)".

    Each state takes a Dirichlet(1) split and, per pool in order, on the
    pool's view: prices U(0, 2 x the pool's largest price in solve_full's
    optimum) on exactly half of the edges (the first n_edges // 2 of a
    random permutation) and 0 on the rest; bids the optimum's bids, floored
    at 1e-3, times exp(N(0, 1)); frequencies U(0, 1) times the line's
    share-scaled ceiling (bottleneck * share).  Draw order is frozen: per
    state the split, then per pool the permutation, the prices, the bid
    factors and the frequency factors.  A family draws its states from one
    generator, instance after instance.
    """
    opt = lm.solve_full(net, pools, table).state
    views = [lm.compile_pool(net, pools, k) for k in pools.pool_ids]
    states = []
    for _ in range(count):
        split = rng.dirichlet(np.ones(len(views)))
        pool_states = {}
        for view, share in zip(views, split):
            best = opt.pool_states[view.pool_id]
            prices = np.zeros(view.n_edges)
            priced = rng.permutation(view.n_edges)[: view.n_edges // 2]
            prices[priced] = rng.uniform(0.0, 2.0 * best.prices.max(), len(priced))
            bids = np.maximum(best.bids, 1e-3) * np.exp(rng.normal(0.0, 1.0, view.n_lops))
            freqs = rng.uniform(0.0, 1.0, view.n_lops) * view.bottleneck * share
            pool_states[view.pool_id] = lm.PoolMarketState(
                view.pool_id, view.edge_ids, view.lop_ids, prices, bids, freqs, float(share)
            )
        states.append(replace(opt, shares=lm.ProportionVector(pools.pool_ids, split), pool_states=pool_states))
    return states


def certificate(net, pools, table, state) -> lm.KKTReport:
    """mechanism_kkt's report on a state, once it is asserted to be kkt_report's on the state's own
    arrays and compile_pool's views, bit for bit."""
    views = [lm.compile_pool(net, pools, k) for k in pools.pool_ids]
    states = [state.pool_states[k] for k in pools.pool_ids]
    report = lm.mechanism_kkt(net, pools, table, state)
    direct = lm.kkt_report(views, [table.coefficients_for(view) for view in views], [st.freqs for st in states],
                           [st.prices for st in states], state.shares.values, state.cost_level)
    assert repr(report) == repr(direct)
    return report


def unpriced_active(net, pools, state) -> list[str]:
    """The pools of a state on an instance in which an active line's path carries no price."""
    out = []
    for k in pools.pool_ids:
        view, st = lm.compile_pool(net, pools, k), state.pool_states[k]
        if np.any((st.freqs > 0.0) & ~(view.incidence.T @ st.prices > 0.0)):
            out.append(k)
    return out


def brute_force_tiny(net, pools, table, res: float = 1e-3) -> float:
    """Exhaustive objective over (x, f) grids for tiny_instance outputs.

    For each split candidate the per-pool optimum is scanned directly: with
    one operator the best feasible frequency is the snapped-down capacity
    bound; with two, operator 0 sweeps the grid and operator 1 takes the
    snapped remainder.  Monotone utilities make the snap-down safe.
    """
    caps = net.capacity_vector()
    pos = {eid: i for i, eid in enumerate(net.edge_ids)}

    def pool_best(pool_id: str, share: float) -> float:
        lops = pools.lops_in(pool_id)
        budget = caps * share
        masks = []
        coef = []
        for lop in lops:
            row = np.zeros(len(caps))
            for eid in pools.line(lop, pool_id).edge_ids:
                row[pos[eid]] = 1.0
            masks.append(row)
            coef.append(table.spec(lop, pool_id).coefficient)

        def snap(v):
            return np.floor(v / res) * res

        if len(lops) == 1:
            cap = (budget[masks[0] > 0]).min()
            return float(coef[0] * np.sqrt(max(0.0, snap(cap))))
        # operator 0 sweeps its grid, operator 1 takes the snapped remainder
        cap0 = (budget[masks[0] > 0]).min()
        x0 = np.arange(0.0, snap(cap0) + res / 2, res)
        on1 = masks[1] > 0
        rest = budget[on1][None, :] - np.outer(x0, masks[0][on1])
        x1 = snap(np.maximum(rest.min(axis=1), 0.0))
        vals = coef[0] * np.sqrt(x0) + coef[1] * np.sqrt(x1)
        return float(vals.max())

    if len(pools.pool_ids) == 1:
        return pool_best(pools.pool_ids[0], 1.0)
    k0, k1 = pools.pool_ids
    best = 0.0
    for f0 in np.arange(res, 1.0, res):
        best = max(best, pool_best(k0, f0) + pool_best(k1, 1.0 - f0))
    return best
