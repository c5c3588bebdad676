"""Structure layer: networks, pools, loads, path prices, JSON round trip."""
import gc
import re
from functools import partial

import numpy as np
import pytest

import linemarket as lm
from linemarket.network import dump_network_file

import instances


def chain2():
    net = lm.Network(
        ["u", "v", "w"],
        [lm.Edge("e1", "u", "v", 4.0), lm.Edge("e2", "v", "w", 2.0)],
    )
    pools = lm.PoolSystem(["k0"], {("lop0", "k0"): lm.Line(("e1", "e2"))})
    return net, pools


BAD_CAPACITY = r"edges \['e1'\] have a negative or non-finite capacity"


def compile_error(net, pools):
    """compile_pool's InputMismatchError on the pool k0, as the engines would see it."""
    with pytest.raises(lm.InputMismatchError) as err:
        lm.compile_pool(net, pools, "k0")
    return str(err.value)


class TestValidation:
    """Network and PoolSystem reject their own defects when built, compile_pool a line's."""

    def test_well_formed(self):
        net, pools = chain2()
        view = lm.compile_pool(net, pools, "k0")
        assert view.incidence[:, 0].tolist() == [1.0, 1.0]

    def test_missing_edge_reference(self):
        net, _ = chain2()
        pools = lm.PoolSystem(["k0"], {("lop0", "k0"): lm.Line(("e1", "ghost"))})
        assert "unknown edge 'ghost'" in compile_error(net, pools)

    def test_nonpositive_capacity(self):
        # zero closes the edge and is legal; below zero is not, however the
        # network is built
        net = lm.Network(["u", "v"], [lm.Edge("e1", "u", "v", 0.0)])
        pools = lm.PoolSystem(["k0"], {("lop0", "k0"): lm.Line(("e1",))})
        assert lm.compile_pool(net, pools, "k0").capacity.tolist() == [0.0]
        with pytest.raises(lm.InputMismatchError, match=BAD_CAPACITY):
            net.with_capacities({"e1": -1.0})
        with pytest.raises(lm.InputMismatchError, match=BAD_CAPACITY):
            lm.Network(["u", "v"], [lm.Edge("e1", "u", "v", -1.0)])

    def test_infinite_capacity(self):
        for capacity in (float("inf"), float("nan")):
            with pytest.raises(lm.InputMismatchError, match=BAD_CAPACITY):
                lm.Network(["u", "v"], [lm.Edge("e1", "u", "v", capacity)])

    def test_capacity_that_is_not_a_number(self):
        """A numeric string or a bool is not a capacity, though float() would take either; an
        integer of any type is, and keeps its value for every later reader."""
        for capacity in ("4", True, np.bool_(True), None, [4.0]):
            with pytest.raises(lm.InputMismatchError, match=r"edges \['e2'\] have a capacity that is not a real number"):
                lm.Network(["u", "v", "w"], [lm.Edge("e1", "u", "v", 4.0), lm.Edge("e2", "v", "w", capacity)])
        net = lm.Network(["u", "v"], [lm.Edge("e1", "u", "v", np.int64(4))])
        assert net.capacity_vector().tolist() == [4.0]
        spec = lm.DisruptionSpec("reduce", 1, 0.5)
        assert lm.apply_disruption(net, spec, {"e1"}).capacity("e1") == 2.0

    def test_duplicate_edge_id(self):
        with pytest.raises(lm.InputMismatchError, match=r"edge ids \['e1'\] are not unique"):
            lm.Network(
                ["u", "v"],
                [lm.Edge("e1", "u", "v", 4.0), lm.Edge("e1", "v", "u", 2.0)],
            )

    def test_dangling_node(self):
        # an edge must end at listed nodes, at either end and however the
        # network is built; a listed pool may hold no lines, but a system
        # without pools is no system
        for tail, head in (("u", "nowhere"), ("nowhere", "u")):
            with pytest.raises(lm.InputMismatchError, match=r"edges \['e1'\] end at a node the network does not list"):
                lm.Network(["u"], [lm.Edge("e1", tail, head, 4.0)])
        doc = lm.network_to_json(*chain2())
        doc["nodes"].remove("w")
        with pytest.raises(lm.InputMismatchError, match=r"edges \['e2'\] end at a node"):
            lm.network_from_json(doc)
        net = lm.Network(["u", "v"], [lm.Edge("e1", "u", "v", 4.0)])
        assert lm.compile_pool(net, lm.PoolSystem(["k0"], {}), "k0").n_lops == 0
        with pytest.raises(lm.InputMismatchError, match="the pool system lists no pools"):
            lm.PoolSystem([], {})

    def test_broken_path(self):
        # e2 does not start where e1 ends once the middle node changes
        net = lm.Network(
            ["u", "v", "x", "w"],
            [lm.Edge("e1", "u", "v", 4.0), lm.Edge("e2", "x", "w", 2.0)],
        )
        pools = lm.PoolSystem(["k0"], {("lop0", "k0"): lm.Line(("e1", "e2"))})
        assert compile_error(net, pools) == "line (lop0, k0) is not a path: e1 does not end where e2 starts"
        # the same edges in the other order do not chain either
        pools = lm.PoolSystem(["k0"], {("lop0", "k0"): lm.Line(("e2", "e1"))})
        assert "e2 does not end where e1 starts" in compile_error(net, pools)

    def test_repeated_edge_and_empty_line(self):
        net, _ = chain2()
        for line in (lm.Line(("e1", "e1")), lm.Line(())):
            pools = lm.PoolSystem(["k0"], {("lop0", "k0"): line})
            assert "empty or repeats an edge" in compile_error(net, pools)

    def test_unknown_pool(self):
        with pytest.raises(lm.InputMismatchError, match=r"lines \[\('lop0', 'kX'\)\] are filed under pools"):
            lm.PoolSystem(["k0"], {("lop0", "kX"): lm.Line(("e1",))})

    def test_line_that_is_not_a_line(self):
        """A bare tuple of edge ids is not a Line: the system refuses it, not compile_pool later."""
        with pytest.raises(lm.InputMismatchError, match=r"lines \[\('lop0', 'k0'\)\] are not Line objects"):
            lm.PoolSystem(["k0"], {("lop0", "k0"): ("e1",)})

    def test_edge_that_is_not_an_edge(self):
        """A bare tuple is not an Edge: the network refuses it by name, not with an AttributeError."""
        with pytest.raises(lm.InputMismatchError, match=r"edges \[\('e1', 'u', 'v', 4.0\)\] are not Edge objects"):
            lm.Network(["u", "v"], [("e1", "u", "v", 4.0)])

    @pytest.mark.parametrize("edge_ids", ["e1", ["e1"], ("e1", 2), ("e1", None)])
    def test_line_edges_must_be_a_tuple_of_strings(self, edge_ids):
        """A bare string would read as the edges "e" and "1"; a line refuses it when built."""
        with pytest.raises(lm.InputMismatchError, match="a line's edge ids must be a tuple of strings"):
            lm.Line(edge_ids)

    @pytest.mark.parametrize("key", [("lop0", "k0", "x"), ("lop0",), ("lop0", 0), "lop0"])
    def test_line_key_must_be_an_operator_pool_pair(self, key):
        """A key of another shape fails when the system is built, not inside lops_in later."""
        with pytest.raises(lm.InputMismatchError, match=r"line keys \[.*\] are not \(operator, pool\) pairs"):
            lm.PoolSystem(["k0"], {key: lm.Line(("e1",))})


def test_repeated_edge_id_is_rejected_by_every_reader():
    """Two edges named e1 would leave every reader to pick one: no network holds them."""
    edges = [lm.Edge("e1", "u", "v", 4.0), lm.Edge("e1", "u", "v", 1.0)]
    doc = lm.network_to_json(*chain2())
    doc["edges"] = [{"id": e.id, "tail": e.tail, "head": e.head, "capacity": e.capacity} for e in edges]
    for build in (lambda: lm.Network(["u", "v"], edges), lambda: lm.network_from_json(doc)):
        with pytest.raises(lm.InputMismatchError, match=r"edge ids \['e1'\] are not unique"):
            build()


def test_every_entry_point_rejects_a_line_that_is_not_a_path():
    """Both engines and the mechanism certificate reject a line whose edges do not chain, as
    linemarket solve does; the certified state is the sound chain's, whose e2 starts where e1
    ends.  A network whose edge ends at an unlisted node is never built."""
    net, pools = chain2()
    table = lm.UtilityTable({("lop0", "k0"): lm.UtilitySpec(2.0)})
    state = lm.run_mechanism(net, pools, table).state
    broken = lm.Network(["u", "v", "x", "w"], [lm.Edge("e1", "u", "v", 4.0), lm.Edge("e2", "x", "w", 2.0)])
    calls = {
        "run_mechanism": lambda: lm.run_mechanism(broken, pools, table),
        "solve_full": lambda: lm.solve_full(broken, pools, table),
        "mechanism_kkt": lambda: lm.mechanism_kkt(broken, pools, table, state),
    }
    for call in calls.values():
        with pytest.raises(lm.InputMismatchError, match=r"line \(lop0, k0\) is not a path: e1 does not end where e2 starts"):
            call()
    with pytest.raises(lm.InputMismatchError, match=r"edges \['e2'\] end at a node the network does not list"):
        lm.Network(["u", "v"], [lm.Edge("e1", "u", "v", 4.0), lm.Edge("e2", "v", "w", 2.0)])


def test_line_under_an_unlisted_pool_is_rejected():
    """A line filed beside the listed pool's, under one the system does not list, is not dropped."""
    lines = {("lop0", "k0"): lm.Line(("e1",)), ("lop1", "kX"): lm.Line(("e1",))}
    with pytest.raises(lm.InputMismatchError, match=r"lines \[\('lop1', 'kX'\)\] are filed under pools"):
        lm.PoolSystem(["k0"], lines)


def test_views_share_the_networks_read_only_capacities():
    """The network builds its edge ids and capacity vector once; every compiled view reads those same objects."""
    net, pools, _ = instances.chain_instance(3)
    caps = net.capacity_vector()
    assert caps is net.capacity_vector() and not caps.flags.writeable
    views = [lm.compile_pool(net, pools, k) for k in pools.pool_ids]
    assert all(view.capacity is caps and view.edge_ids is net.edge_ids for view in views)
    with pytest.raises(ValueError):
        caps[0] = 1.0


def test_one_instance_builds_each_pool_once(compiles, builds):
    """A run, its oracle, the certificates of both and a warm restart share one view per pool:
    every call goes through compile_pool, and only the first per pool builds."""
    net, pools, table = instances.chain_instance(3)
    res = lm.run_mechanism(net, pools, table)
    sol = lm.solve_full(net, pools, table)
    for state in (res.state, sol.state):
        assert lm.mechanism_kkt(net, pools, table, state).max_scaled() <= 0.1
    again = lm.run_mechanism(net, pools, table, warm=res.state)
    ids = list(pools.pool_ids)
    assert builds == ids
    assert compiles == {"multi_pool": ids * 2, "oracle": ids * 3}
    for k, view, other in zip(ids, res.views, again.views):
        assert view is other is lm.compile_pool(net, pools, k)
    assert builds == ids


def test_views_and_lines_refuse_writes():
    """A view is shared by every caller, so none of its arrays takes a write, nor does the line table."""
    net, pools, _ = instances.chain_instance(3)
    view = lm.compile_pool(net, pools, "k0")
    for name in ("capacity", "incidence", "bottleneck", "own_edges"):
        values = getattr(view, name)
        assert not values.flags.writeable, name
        with pytest.raises(ValueError, match="read-only"):
            values[0] = 0
    key = next(iter(pools.lines))
    with pytest.raises(TypeError):
        pools.lines[key] = lm.Line(("e0",))
    with pytest.raises(TypeError):
        del pools.lines[key]


def test_line_table_is_the_systems_own_copy():
    """Editing the mapping a pool system was built from changes neither its lines nor its views."""
    net, _ = chain2()
    table = {("lop0", "k0"): lm.Line(("e1", "e2"))}
    pools = lm.PoolSystem(["k0"], table)
    before = lm.compile_pool(net, pools, "k0")
    table[("lop1", "k0")] = lm.Line(("e2",))
    assert list(pools.lines) == [("lop0", "k0")]
    assert lm.compile_pool(net, pools, "k0") is before and before.lop_ids == ("lop0",)


def test_with_capacities_network_gets_its_own_views(builds):
    """A shocked copy of a network is another network: its views are built at its own capacities,
    and the original's stay filed beside them."""
    net, pools, _ = instances.chain_instance(3)
    first = lm.compile_pool(net, pools, "k0")
    closed = net.with_capacities({net.edge_ids[0]: 0.0})
    shocked = lm.compile_pool(closed, pools, "k0")
    assert shocked is not first and builds == ["k0", "k0"]
    assert shocked.capacity is closed.capacity_vector() and shocked.capacity[0] == 0.0
    assert first.capacity is net.capacity_vector() and first.capacity[0] > 0.0
    on_first = first.incidence[0] > 0.0
    assert (shocked.bottleneck[on_first] == 0.0).all() and (first.bottleneck > 0.0).all()
    assert lm.compile_pool(net, pools, "k0") is first and lm.compile_pool(closed, pools, "k0") is shocked
    assert builds == ["k0", "k0"]


def test_failing_compile_raises_again(builds):
    """A compile that fails files nothing: the same call builds and raises again."""
    net, pools = chain2()
    broken = lm.PoolSystem(["k0"], {("lop0", "k0"): lm.Line(("e2", "e1"))})
    for _ in range(2):
        with pytest.raises(lm.InputMismatchError, match="is not a path"):
            lm.compile_pool(net, broken, "k0")
        with pytest.raises(lm.InputMismatchError, match="unknown pool 'k9'"):
            lm.compile_pool(net, pools, "k9")
    assert builds == ["k0", "k9"] * 2
    assert lm.compile_pool(net, pools, "k0").n_lops == 1


def test_views_go_with_their_network():
    """The pool system keys its views weakly by network: once the network is gone, so is its entry,
    while a view a caller still holds stays whole."""
    net, pools, _ = instances.chain_instance(3)
    shocked = net.with_capacities({net.edge_ids[0]: 1.0})
    views = [lm.compile_pool(other, pools, "k0") for other in (net, shocked)]
    assert len(pools._views) == 2
    del shocked
    gc.collect()
    assert list(pools._views.keys()) == [net]
    assert views[1].incidence.shape == views[0].incidence.shape and views[1].capacity[0] == 1.0
    del net
    gc.collect()
    assert len(pools._views) == 0


def test_compiled_view_matches_lines():
    """Column p of the incidence has exactly one entry per edge of line p."""
    net, pools, _ = instances.chain_instance(1)
    for k in pools.pool_ids:
        view = lm.compile_pool(net, pools, k)
        for p, lop in enumerate(view.lop_ids):
            line = pools.line(lop, k)
            assert view.incidence[:, p].sum() == len(line)
            assert view.bottleneck[p] == min(net.capacity(e) for e in line.edge_ids)
    with pytest.raises(lm.InputMismatchError):
        lm.compile_pool(net, pools, "k9")


def test_capacity_vector_follows_edge_order():
    net, _ = chain2()
    np.testing.assert_array_equal(net.capacity_vector(), [4.0, 2.0])
    assert net.edge_ids == ("e1", "e2")


def test_with_capacities():
    net, _ = chain2()
    bumped = net.with_capacities({"e2": 7.0})
    assert bumped.capacity("e2") == 7.0
    assert bumped.capacity("e1") == 4.0
    assert net.capacity("e2") == 2.0
    with pytest.raises(lm.InputMismatchError):
        net.with_capacities({"e9": 1.0})
    # the new capacity reaches the constructor as given: float() would take "4" and True
    for capacity in ("4", True, None):
        with pytest.raises(lm.InputMismatchError, match=r"edges \['e2'\] have a capacity that is not a real number"):
            net.with_capacities({"e2": capacity})
    for capacity in (-1.0, float("nan"), float("inf")):
        with pytest.raises(lm.InputMismatchError, match=r"edges \['e2'\] have a negative or non-finite capacity"):
            net.with_capacities({"e2": capacity})


def test_with_capacities_keeps_untouched_edges():
    """Only the named edges are rebuilt; every other one is the same frozen Edge object."""
    net, _, _ = instances.grid_instance(7, 1)
    moved = {net.edge_ids[3]: 1.5, net.edge_ids[40]: 0.0}
    bumped = net.with_capacities(moved)
    assert bumped.edge_ids == net.edge_ids and bumped.nodes == net.nodes
    for old, new in zip(net.edges, bumped.edges):
        if old.id in moved:
            assert new is not old and new.capacity == moved[old.id]
            assert (new.tail, new.head) == (old.tail, old.head)
        else:
            assert new is old
    expected = net.capacity_vector().copy()
    expected[[3, 40]] = [1.5, 0.0]
    assert bumped.capacity_vector().tolist() == expected.tolist()


def test_json_round_trip(tmp_path):
    net, pools, _ = instances.chain_instance(5)
    doc = lm.network_to_json(net, pools)
    net2, pools2 = lm.network_from_json(doc)
    assert net2.edge_ids == net.edge_ids
    np.testing.assert_array_equal(net2.capacity_vector(), net.capacity_vector())
    assert sorted(pools2.lines) == sorted(pools.lines)
    for key in pools.lines:
        assert pools2.lines[key] == pools.lines[key]

    path = tmp_path / "net.json"
    dump_network_file(net, pools, path)
    net3, pools3 = lm.load_network_file(path)
    assert lm.network_to_json(net3, pools3) == doc


def test_unknown_edge_and_line_are_named():
    net, pools, _ = instances.single_edge()
    for read in (net.edge, net.capacity):
        with pytest.raises(lm.InputMismatchError, match="unknown edge 'e9'"):
            read("e9")
    with pytest.raises(lm.InputMismatchError, match="no line for operator 'lop0' in pool 'k9'"):
        pools.line("lop0", "k9")


def test_document_that_repeats_a_line_is_rejected():
    doc = lm.network_to_json(*instances.single_edge()[:2])
    lines = doc["pools"][0]["lines"]
    lines.append(dict(lines[0]))
    with pytest.raises(ValueError, match=re.escape("duplicate line for ('lop0', 'k0')")):
        lm.network_from_json(doc)


def test_malformed_document_rejected():
    with pytest.raises(ValueError):
        lm.network_from_json({"nodes": ["u"], "edges": [{"id": "e1"}], "pools": []})
    with pytest.raises(ValueError):
        lm.network_from_json({"edges": [], "pools": []})


def _reversed_edges(net, pools, table):
    """The same instance with its edges listed in reverse order."""
    return lm.Network(net.nodes, net.edges[::-1]), pools, table


@pytest.mark.parametrize("make", [partial(instances.chain_instance, seed) for seed in range(20)]
                         + [partial(instances.grid_instance, seed, k) for seed, k in ((0, 1), (0, 2), (5, 2))])
@pytest.mark.parametrize("order", ["listed", "reversed"])
def test_compiled_view_matches_a_per_line_reference(make, order):
    """The incidence, own edges and bottlenecks, set from flat positions in one call, are the per-line loop's bytes."""
    net, pools, _ = make() if order == "listed" else _reversed_edges(*make())
    pos = {eid: i for i, eid in enumerate(net.edge_ids)}
    for k in pools.pool_ids:
        view = lm.compile_pool(net, pools, k)
        inc = np.zeros((len(net.edge_ids), view.n_lops))
        for p, lop in enumerate(view.lop_ids):
            inc[[pos[eid] for eid in pools.line(lop, k).edge_ids], p] = 1.0
        own = np.flatnonzero(inc.any(axis=1))
        bottleneck = np.where(inc > 0.0, net.capacity_vector()[:, None], np.inf).min(axis=0, initial=np.inf)
        assert view.incidence.tobytes() == inc.tobytes() and view.incidence.shape == inc.shape
        assert view.own_edges.dtype == own.dtype and view.own_edges.tobytes() == own.tobytes()
        assert view.bottleneck.tobytes() == bottleneck.tobytes()
