"""Instance generators, disruptions, and the recovery experiment driver."""
import numpy as np
import pytest

import linemarket as lm
from linemarket import scenarios, single_pool

import instances


class TestGridGeneration:
    def test_paper_scale_dimensions(self):
        spec = lm.GridSpec(rows=7, cols=120, pools=1, lines_per_pool=1, seed=0)
        net, _ = lm.generate_grid(spec)
        assert len(net.nodes) == 840
        assert len(net.edges) == 1553  # 7*119 horizontal + 6*120 vertical

    def test_smallest_grid(self):
        spec = lm.GridSpec(
            rows=2, cols=2, pools=1, lines_per_pool=1,
            shared_first_edge=((0, 0), (1, 0)), min_line_len=2, seed=0,
        )
        net, _ = lm.generate_grid(spec)
        assert len(net.nodes) == 4
        assert len(net.edges) == 4

    def test_deterministic_for_fixed_seed(self):
        spec = instances.grid_spec(3, 2)
        a = lm.network_to_json(*lm.generate_grid(spec))
        b = lm.network_to_json(*lm.generate_grid(spec))
        assert a == b

    def test_lines_share_first_edge_and_meet_min_length(self):
        spec = instances.grid_spec(1, 2)
        net, ps = lm.generate_grid(spec)
        for k in ps.pool_ids:
            lm.compile_pool(net, ps, k)  # every line is a path of the lattice
        first = "0,3->1,3"
        for key in ps.lines:
            line = ps.lines[key]
            assert line.edge_ids[0] == first
            assert len(line) >= spec.min_line_len

    def test_capacities_within_range(self):
        spec = instances.grid_spec(2, 1)
        net, _ = lm.generate_grid(spec)
        caps = net.capacity_vector()
        assert caps.min() >= 10.0 and caps.max() < 110.0

    def test_extra_pool_leaves_earlier_draws_alone(self):
        # capacities then pool0 lines are drawn before pool1 ever exists
        net1, ps1 = lm.generate_grid(instances.grid_spec(4, 1))
        net2, ps2 = lm.generate_grid(instances.grid_spec(4, 2))
        np.testing.assert_array_equal(net1.capacity_vector(), net2.capacity_vector())
        for lop in ps1.lops_in("pool0"):
            assert ps1.line(lop, "pool0") == ps2.line(lop, "pool0")

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            lm.GridSpec(rows=1, cols=5, pools=1, lines_per_pool=1)
        with pytest.raises(ValueError):
            lm.GridSpec(rows=3, cols=3, pools=1, lines_per_pool=1,
                        shared_first_edge=((0, 0), (2, 0)))
        with pytest.raises(ValueError):
            lm.GridSpec(rows=3, cols=3, pools=1, lines_per_pool=1,
                        capacity_range=(5.0, 5.0))


# (field, value) pairs a GridSpec must reject, naming the field, when built;
# each used to build, then fail inside range or numpy, or run as another number
BAD_GRID_FIELDS = [
    ("rows", 7.5),                      # range
    ("cols", "12"),
    ("pools", True),                    # built a one-pool grid
    ("lines_per_pool", 2.0),            # range
    ("lines_per_pool", 0),              # rejected without naming the field
    ("min_line_len", 10.5),
    ("seed", -1),                       # default_rng
    ("seed", 1.5),
    ("seed", True),                     # ran as seed 1
    ("capacity_range", ("10", 110.0)),  # a str/int TypeError
    ("capacity_range", (True, 110.0)),
    ("shared_first_edge", ((0, 3.0), (1, 3.0))),  # node names no edge has
    ("shared_first_edge", ((0, True), (1, True))),
]


@pytest.mark.parametrize("field, value", BAD_GRID_FIELDS, ids=[f"{f}={v!r}" for f, v in BAD_GRID_FIELDS])
def test_grid_spec_checks_its_fields_when_built(field, value):
    fields = {"rows": 7, "cols": 12, "pools": 2, "lines_per_pool": 10, "min_line_len": 10, "seed": 0, field: value}
    with pytest.raises(ValueError, match=field):
        lm.GridSpec(**fields)


def test_grid_spec_takes_numpy_numbers():
    """Any integer or real type passes, numpy's included, and the grid is the same."""
    spec = lm.GridSpec(rows=np.int64(7), cols=np.int32(12), pools=np.int64(2), lines_per_pool=np.int64(10),
                       capacity_range=(np.float64(10.0), np.int64(110)), shared_first_edge=((np.int64(0), 3), (1, 3)),
                       min_line_len=np.int64(10), seed=np.uint8(4))
    net, ps = lm.generate_grid(spec)
    ref_net, ref_ps = lm.generate_grid(instances.grid_spec(4, 2))
    assert net.capacity_vector().tolist() == ref_net.capacity_vector().tolist()
    assert ps.lines == ref_ps.lines


def test_grid_spec_rejects_an_unreachable_line_length():
    """A line from the shared edge's head (r1, c1) has at most 1 + (rows-1-r1) + (cols-1-c1) edges."""
    first = ((0, 0), (0, 1))
    for rows, cols, longest in ((3, 3, 4), (7, 12, 17)):
        assert lm.GridSpec(rows, cols, 1, 1, shared_first_edge=first, min_line_len=longest).min_line_len == longest
        for length in (longest + 1, 10 * longest):
            with pytest.raises(ValueError, match=f"min_line_len {length} is unreachable"):
                lm.GridSpec(rows, cols, 1, 1, shared_first_edge=first, min_line_len=length)


def test_longest_line_generates_on_every_seed():
    """A min_line_len only the far corner meets generates, however many draws it takes.

    On a 100x100 grid, 198 edges from ((0, 0), (0, 1)) leave one target of
    9,900; a cap of 10,000 draws rejected 11 of these 40 seeds.
    """
    for seed in range(40):
        spec = lm.GridSpec(100, 100, 1, 1, shared_first_edge=((0, 0), (0, 1)), min_line_len=198, seed=seed)
        _, ps = lm.generate_grid(spec)
        (line,) = ps.lines.values()
        assert len(line) == 198 and line.edge_ids[-1].endswith("->99,99")


def test_uniform_utilities():
    _, ps = lm.generate_grid(instances.grid_spec(0, 2))
    table = lm.uniform_utilities(ps, 5.0, 15.0, seed=42)
    table.validate_against(ps)
    coeffs = [s.coefficient for s in table.entries.values()]
    assert min(coeffs) >= 5.0 and max(coeffs) < 15.0
    again = lm.uniform_utilities(ps, 5.0, 15.0, seed=42)
    assert again.to_json() == table.to_json()
    with pytest.raises(ValueError):
        lm.uniform_utilities(ps, -1.0, 2.0, seed=0)


def test_pool_scaled_utilities():
    _, ps = lm.generate_grid(instances.grid_spec(0, 2))
    table = lm.pool_scaled_utilities(ps, 10.0, [1.0, 0.5])
    for lop in ps.lops_in("pool0"):
        assert table.spec(lop, "pool0").coefficient == 10.0
        assert table.spec(lop, "pool1").coefficient == 5.0
    with pytest.raises(ValueError):
        lm.pool_scaled_utilities(ps, 10.0, [1.0])


# (generator, its arguments after chain 0's pools, the error it must raise)
BAD_VALUATION_INPUTS = [
    ("pool_scaled_utilities", ("10", [1, 2]), "base must be a real number in (0, inf), got '10'"),
    ("pool_scaled_utilities", (10, ["1", "2"]), "scale of pool 'k0' must be a real number in (0, inf), got '1'"),
    ("pool_scaled_utilities", (True, [1, 2]), "base must be a real number in (0, inf), got True"),
    ("pool_scaled_utilities", (10, [1, True]), "scale of pool 'k1' must be a real number in (0, inf), got True"),
    ("pool_scaled_utilities", (10, "12"), "need exactly one scale per pool, got '12'"),
    ("pool_scaled_utilities", (10, 5), "need exactly one scale per pool, got 5"),
    ("pool_scaled_utilities", (-10, [-1, -2]), "base must be a real number in (0, inf), got -10"),
    ("uniform_utilities", ("5", 15, 0), "low must be a real number in (0, inf), got '5'"),
    ("uniform_utilities", (5, "15", 0), "high must be a real number in [5.0, inf), got '15'"),
    ("uniform_utilities", (True, 15, 0), "low must be a real number in (0, inf), got True"),
    ("uniform_utilities", (5, 15, -1), "seed must be a whole number of at least 0, got -1"),
    ("uniform_utilities", (5, 15, 1.5), "seed must be a whole number of at least 0, got 1.5"),
]


@pytest.mark.parametrize("generator, args, message", BAD_VALUATION_INPUTS,
                         ids=[f"{gen}{args!r}" for gen, args, _ in BAD_VALUATION_INPUTS])
def test_valuation_generators_check_their_inputs(generator, args, message):
    """Each input is checked by the rule the other readers use: no repeated string, bool or bare TypeError."""
    _, pools, _ = instances.chain_instance(0)
    with pytest.raises(ValueError) as err:
        getattr(lm, generator)(pools, *args)
    assert str(err.value) == message


def test_child_seed_is_stable_and_tag_sensitive():
    assert lm.scenarios.child_seed(7, "grid") == lm.scenarios.child_seed(7, "grid")
    assert lm.scenarios.child_seed(7, "grid") != lm.scenarios.child_seed(7, "disruption")
    assert lm.scenarios.child_seed(7, "grid") != lm.scenarios.child_seed(8, "grid")


def test_disruption_spec_validation():
    with pytest.raises(ValueError):
        lm.DisruptionSpec("explode", 1, 0.1)
    with pytest.raises(ValueError):
        lm.DisruptionSpec("reduce", 0, 0.1)
    with pytest.raises(ValueError):
        lm.DisruptionSpec("reduce", 1, 1.5)
    with pytest.raises(ValueError):
        lm.DisruptionSpec("reduce", 1, -0.1)


# (field, value) pairs a DisruptionSpec must reject when built; each used to
# build, then fail with a TypeError inside numpy or run as another number
BAD_DISRUPTION_FIELDS = [
    ("edge_count", 1.5),      # rng.choice
    ("edge_count", True),     # rng.choice
    ("edge_count", "1"),
    ("magnitude", "0.1"),     # a str/float TypeError
    ("magnitude", True),      # ran as 1.0
    ("magnitude", None),
    ("seed", 1.5),            # default_rng
    ("seed", True),
    ("seed", -1),
]


@pytest.mark.parametrize("field, value", BAD_DISRUPTION_FIELDS, ids=[f"{f}={v!r}" for f, v in BAD_DISRUPTION_FIELDS])
def test_disruption_spec_checks_its_fields_when_built(field, value):
    fields = {"kind": "reduce", "edge_count": 1, "magnitude": 0.1, "seed": 0, field: value}
    with pytest.raises(ValueError, match=field):
        lm.DisruptionSpec(**fields)


def test_disruption_spec_takes_numpy_numbers():
    """Any integer or real type passes, numpy's included, and the shock is the same."""
    net = lm.Network(["u", "v", "w"], [lm.Edge("e1", "u", "v", 4.0), lm.Edge("e2", "v", "w", 4.0)])
    spec = lm.DisruptionSpec("reduce", np.int64(1), np.float64(0.5), seed=np.int32(3))
    plain = lm.DisruptionSpec("reduce", 1, 0.5, seed=3)
    out, ref = (lm.apply_disruption(net, s, ["e1", "e2"]) for s in (spec, plain))
    assert out.capacity_vector().tolist() == ref.capacity_vector().tolist()


class TestCongestedEdges:
    def test_saturated_edge_is_congested(self):
        net, pools, table = instances.single_edge()
        res = lm.run_mechanism(net, pools, table)
        assert lm.congested_edges(res.state) == {"e1"}

    def test_threshold_filters_low_prices(self):
        state = lm.OuterState(
            shares=lm.ProportionVector(("k0",), np.array([1.0])),
            pool_states={
                "k0": lm.PoolMarketState(
                    "k0", ("e1", "e2"), ("lop0",),
                    np.array([0.1, np.nextafter(0.1, 1.0)]), np.array([1.0]), np.array([1.0]), 1.0,
                )
            },
            pool_costs={"k0": 0.0},
            cost_level=0.0,
            outer_iter=0,
        )
        # congested means priced above 0.1, strictly
        assert scenarios._CONGESTED == 0.1
        assert lm.congested_edges(state) == {"e2"}

    @pytest.mark.parametrize("pools, seed", [(1, seed) for seed in instances.GRID_SEEDS_K1[:4]]
                             + [(2, seed) for seed in instances.GRID_SEEDS_K2[:2]])
    def test_matches_the_edge_loop_on_grid_baselines(self, pools, seed, k1_baseline, k2_baseline):
        """One comparison per pool finds the set an edge-by-edge loop finds."""
        base = (k1_baseline if pools == 1 else k2_baseline)(seed)[3]
        loop = {eid for st in base.state.pool_states.values()
                for eid, lam in zip(st.edge_ids, st.prices) if lam > 0.1}
        assert lm.congested_edges(base.state) == loop
        assert len(loop) >= 2

    def test_only_the_bottleneck_prices(self):
        net = lm.Network(
            ["u", "v", "w"],
            [lm.Edge("e1", "u", "v", 4.0), lm.Edge("e2", "v", "w", 50.0)],
        )
        pools = lm.PoolSystem(["k0"], {("lop0", "k0"): lm.Line(("e1", "e2"))})
        table = lm.UtilityTable({("lop0", "k0"): lm.UtilitySpec(2.0)})
        res = lm.run_mechanism(net, pools, table)
        assert res.converged
        assert lm.congested_edges(res.state) == {"e1"}


class TestApplyDisruption:
    def net3(self):
        return lm.Network(
            ["a", "b", "c", "d"],
            [
                lm.Edge("e1", "a", "b", 10.0),
                lm.Edge("e2", "b", "c", 10.0),
                lm.Edge("e3", "c", "d", 7.0),
            ],
        )

    def test_reduce(self):
        out = lm.apply_disruption(self.net3(), lm.DisruptionSpec("reduce", 1, 0.1), ["e1"])
        assert out.capacity("e1") == pytest.approx(9.0)

    def test_increase(self):
        out = lm.apply_disruption(self.net3(), lm.DisruptionSpec("increase", 1, 0.5), ["e1"])
        assert out.capacity("e1") == pytest.approx(15.0)

    def test_mixed_hits_disjoint_edges(self):
        out = lm.apply_disruption(
            self.net3(), lm.DisruptionSpec("mixed", 1, 0.1), ["e1", "e2"]
        )
        caps = sorted([out.capacity("e1"), out.capacity("e2")])
        np.testing.assert_allclose(caps, [9.0, 11.0])

    def test_untouched_edges_keep_exact_capacity(self):
        net = self.net3()
        out = lm.apply_disruption(net, lm.DisruptionSpec("reduce", 1, 0.5, seed=3), ["e1", "e2"])
        changed = [e for e in ("e1", "e2") if out.capacity(e) != net.capacity(e)]
        assert len(changed) == 1
        assert out.capacity("e3") == net.capacity("e3")

    def test_insufficient_congestion_rejected(self):
        with pytest.raises(ValueError):
            lm.apply_disruption(self.net3(), lm.DisruptionSpec("mixed", 1, 0.1), ["e1"])

    def test_original_network_untouched(self):
        net = self.net3()
        lm.apply_disruption(net, lm.DisruptionSpec("reduce", 1, 0.9), ["e1"])
        assert net.capacity("e1") == 10.0

    def test_deterministic_choice(self):
        spec = lm.DisruptionSpec("reduce", 1, 0.5, seed=11)
        a = lm.apply_disruption(self.net3(), spec, ["e1", "e2", "e3"])
        b = lm.apply_disruption(self.net3(), spec, ["e1", "e2", "e3"])
        np.testing.assert_array_equal(a.capacity_vector(), b.capacity_vector())


def test_disruption_objective_monotonicity():
    """Growing capacity can only help the optimum, shrinking only hurt."""
    net, pools, table = instances.two_lops_one_edge()
    base = lm.solve_full(net, pools, table).objective
    up = lm.apply_disruption(net, lm.DisruptionSpec("increase", 1, 0.5), ["e1"])
    down = lm.apply_disruption(net, lm.DisruptionSpec("reduce", 1, 0.5), ["e1"])
    assert lm.solve_full(up, pools, table).objective >= base - 1e-9
    assert lm.solve_full(down, pools, table).objective <= base + 1e-9


class TestRecoveryExperiment:
    def test_null_disruption_keeps_warm_fixed_point(self):
        net, pools, table = instances.single_edge()
        dis = lm.DisruptionSpec("reduce", 1, 0.0, seed=2)
        out = lm.run_recovery_experiment(net, pools, table, dis, instance="null")
        assert out.warm.status == "converged"
        assert out.warm.f_updates == 0
        assert all(v <= 1 for v in out.warm.price_updates.values())
        assert out.warm.bid_updates == 0

    def test_mode_selection(self):
        net, pools, table = instances.single_edge()
        dis = lm.DisruptionSpec("reduce", 1, 0.1, seed=2)
        out = lm.run_recovery_experiment(net, pools, table, dis, modes=("warm",))
        assert out.cold is None and out.cold_result is None
        assert [r.mode for r in out.records()] == ["warm"]
        assert out.warm.instance == "instance"

    def test_mode_validation(self):
        net, pools, table = instances.single_edge()
        dis = lm.DisruptionSpec("reduce", 1, 0.1)
        with pytest.raises(ValueError):
            lm.run_recovery_experiment(net, pools, table, dis, modes=())
        with pytest.raises(ValueError):
            lm.run_recovery_experiment(net, pools, table, dis, modes=("tepid",))

    def test_a_string_of_modes_is_refused(self):
        """A str is no collection of modes: "warm" was read as the modes 'w', 'a', 'r' and 'm'."""
        net, pools, table = instances.single_edge()
        with pytest.raises(ValueError, match="modes must be a collection of names, not the string 'warm'"):
            lm.run_recovery_experiment(net, pools, table, lm.DisruptionSpec("reduce", 1, 0.1), modes="warm")

    def test_precomputed_baseline_is_reused(self):
        net, pools, table = instances.single_edge()
        base = lm.run_mechanism(net, pools, table)
        dis = lm.DisruptionSpec("reduce", 1, 0.2, seed=2)
        out = lm.run_recovery_experiment(
            net, pools, table, dis, baseline=base, modes=("warm",)
        )
        assert out.baseline is base
        assert out.warm.status == "converged"
        assert out.warm.total_price_updates == sum(out.warm.price_updates.values())

    def test_unconverged_baseline_is_refused(self, monkeypatch):
        """A baseline that did not converge is no state to restart from: the experiment raises."""
        net, pools, table = instances.chain_instance(0)
        monkeypatch.setattr(single_pool, "_MAX_PASSES", 3)  # chain 0's pool k1 needs 36 passes
        base = lm.run_mechanism(net, pools, table)
        assert not base.converged
        dis = lm.DisruptionSpec("reduce", 1, 0.1, seed=2)
        with pytest.raises(RuntimeError, match="baseline run failed to converge: pool k1 hit the iteration budget"):
            lm.run_recovery_experiment(net, pools, table, dis, baseline=base)

    def test_disrupted_capacity_recorded(self):
        net, pools, table = instances.single_edge()
        dis = lm.DisruptionSpec("reduce", 1, 0.5, seed=2)
        out = lm.run_recovery_experiment(net, pools, table, dis)
        assert out.disrupted_net.capacity("e1") == pytest.approx(2.0)
        assert net.capacity("e1") == 4.0

    def test_restart_compiles_its_pools_once(self, compiles, builds, kernels, k2_baseline):
        """The shocked network builds each pool once: both restarts and their certificates read those
        views, and the disrupted network keeps every untouched edge.  Each build runs its fair split
        once, and no restart calls the oracle, so none computes a presolve."""
        net, pools, table, base = k2_baseline(0)
        compiles["multi_pool"].clear()
        builds.clear()
        kernels["_fair_split"].clear()
        dis = lm.DisruptionSpec("increase", 1, 0.1, seed=1)
        out = lm.run_recovery_experiment(net, pools, table, dis, instances.GRID_CFG, baseline=base)
        ids = list(pools.pool_ids)
        assert builds == ids
        assert len(kernels["_fair_split"]) == len(ids) and set(kernels["_fair_split"].values()) == {1}
        assert not kernels["_implied_rows"]
        assert compiles == {"multi_pool": ids * 2, "oracle": ids * 2}
        assert sum(new is not old for old, new in zip(net.edges, out.disrupted_net.edges)) == 1
        for rec, res in ((out.warm, out.warm_result), (out.cold, out.cold_result)):
            assert rec.max_kkt == lm.mechanism_kkt(out.disrupted_net, pools, table, res.state).max_scaled()
