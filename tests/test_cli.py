"""Command line front end: commands, exit codes, deterministic outputs."""
import ast
import csv
import io
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import linemarket as lm
from linemarket import cli, single_pool
from linemarket.cli import emit_record, run_cli
from linemarket.network import dump_network_file
from linemarket.scenarios import ExperimentRecord

import instances


def write_single_edge_scenario(tmp_path, **extra):
    return write_instance_scenario(tmp_path, "single", *instances.single_edge(), **extra)


def write_instance_scenario(tmp_path, name, net, pools, table, **extra):
    dump_network_file(net, pools, tmp_path / "net.json")
    scn = {
        "name": name,
        "network_file": "net.json",
        "utilities": table.to_json(),
        "seeds": [0],
    }
    scn.update(extra)
    path = tmp_path / "scn.json"
    path.write_text(json.dumps(scn), encoding="utf-8")
    return path


# a 3x3 lattice scenario with every block the reader parses
GRID_SCENARIO = {
    "name": "g",
    "grid": {"rows": 3, "cols": 3, "pools": 1, "lines_per_pool": 2,
             "shared_first_edge": [[0, 1], [1, 1]], "min_line_len": 2},
    "utilities_gen": {"kind": "uniform", "low": 5, "high": 15},
    "disruption": {"kind": "reduce", "edge_count": 1, "magnitude": 0.1},
    "engine": {"eta_price": 0.001},
    "seeds": [0],
}
DROP = object()

# (block, None for the top level; key; value, DROP to delete the key; error)
BAD_SCENARIO_VALUES = [
    (None, "seeds", [[1]], "scenario field 'seeds' must be an integer, got [1]"),
    (None, "seeds", [1.5], "scenario field 'seeds' must be an integer, got 1.5"),
    (None, "seeds", 1, "scenario field 'seeds' must be a list, got 1"),
    (None, "engnie", {}, "unknown scenario fields: ['engnie']"),
    (None, "utilities_gen", [1], "utilities_gen must be a JSON object, got [1]"),
    (None, "mode", 5, "unknown scenario fields: ['mode']"),  # recover's --mode alone picks the restarts
    ("grid", "rows", "3", "grid field 'rows' must be an integer, got '3'"),
    ("grid", "rows", 3.7, "grid field 'rows' must be an integer, got 3.7"),
    ("grid", "rows", DROP, "missing grid fields: ['rows']"),
    ("grid", "shared_first_edge", [0, 1, 1, 1], "grid field 'shared_first_edge' must be a list, got 0"),
    ("grid", "capacity_range", [10, "110"], "grid field 'capacity_range' must be a number, got '110'"),
    ("grid", "capacity_range", [10, float("inf")], "bad capacity range (10.0, inf)"),
    ("utilities_gen", "low", DROP, "missing utilities_gen fields: ['low']"),
    ("utilities_gen", "low", "5", "utilities_gen field 'low' must be a number, got '5'"),
    ("utilities_gen", "lo", 5, "unknown utilities_gen fields: ['lo']"),
    ("utilities_gen", "base", 5, "unknown utilities_gen fields: ['base']"),  # another kind's key
    ("utilities_gen", "kind", DROP, "missing utilities_gen fields: ['kind']"),
    ("utilities_gen", "kind", "normal", "unknown utilities_gen kind 'normal'"),
    ("utilities_gen", "high", float("inf"), "high must be a real number in [5.0, inf), got inf"),
    ("disruption", "edge_count", [1], "disruption field 'edge_count' must be an integer, got [1]"),
    ("disruption", "edge_count", 1.9, "disruption field 'edge_count' must be an integer, got 1.9"),
    ("disruption", "kind", DROP, "missing disruption fields: ['kind']"),
    ("disruption", "seed", True, "disruption field 'seed' must be an integer, got True"),
    ("engine", "max_inner", 2.5, "unknown engine fields: ['max_inner']"),  # the run budgets are engine constants
]


def read_records(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def test_solve_single_edge(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    scn = write_single_edge_scenario(tmp_path)
    assert run_cli(["solve", "--scenario", str(scn), "--out", "out"]) == 0

    line = capsys.readouterr().out.strip().splitlines()[-1]
    assert line.startswith("seed=0 status=converged f_updates=0 ")

    rows = read_records(tmp_path / "out" / "records.csv")
    assert len(rows) == 1
    row = rows[0]
    assert row["instance"] == "single-s0"
    assert row["mode"] == "cold"
    assert row["status"] == "converged"
    assert float(row["max_kkt"]) <= 0.1

    state = json.loads((tmp_path / "out" / "state_seed0.json").read_text())
    assert state["converged"] is True
    assert state["shares"] == {"k0": 1.0}
    assert abs(state["objective"] - 4.0) / 4.0 <= 0.1
    assert (tmp_path / "out" / "outer_trace_seed0.csv").exists()


def test_solve_summary_matches_recomputed_kkt(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    scn = write_single_edge_scenario(tmp_path)
    assert run_cli(["solve", "--scenario", str(scn), "--out", "out"]) == 0

    state = json.loads((tmp_path / "out" / "state_seed0.json").read_text())
    net, pools, table = instances.single_edge()
    views = [lm.compile_pool(net, pools, k) for k in pools.pool_ids]
    sts = [state["pools"][view.pool_id] for view in views]
    report = lm.kkt_report(
        views,
        [table.coefficients_for(view) for view in views],
        [np.array([st["freqs"][lop] for lop in view.lop_ids]) for view, st in zip(views, sts)],
        [np.array([st["prices"][eid] for eid in view.edge_ids]) for view, st in zip(views, sts)],
        [state["shares"][k] for k in pools.pool_ids],
        state["cost_level"],
    )
    recorded = float(read_records(tmp_path / "out" / "records.csv")[0]["max_kkt"])
    # CSV numbers carry 6 significant digits
    assert report.max_scaled() == pytest.approx(recorded, rel=1e-4)


def test_solve_certifies_the_run_on_its_own_views(tmp_path, monkeypatch, compiles):
    """solve compiles each pool once, for the run, and records the run's own certificate:
    mechanism_kkt's on a fresh compile, to the digits the record carries."""
    monkeypatch.chdir(tmp_path)
    scn = json.loads(json.dumps(GRID_SCENARIO))
    scn["grid"]["pools"] = 2
    (tmp_path / "scn.json").write_text(json.dumps(scn), encoding="utf-8")
    assert run_cli(["solve", "--scenario", "scn.json", "--out", "out"]) == 0
    assert compiles == {"multi_pool": ["pool0", "pool1"], "oracle": []}
    net, pools, table = cli._build_instance(scn, 0, tmp_path)
    res = lm.run_mechanism(net, pools, table, cli._mech_config(scn))
    recorded = read_records(tmp_path / "out" / "records.csv")[0]["max_kkt"]
    assert recorded == cli._fmt(lm.mechanism_kkt(net, pools, table, res.state).max_scaled())


def test_outputs_are_byte_identical_across_reruns(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    scn = write_single_edge_scenario(tmp_path)
    assert run_cli(["solve", "--scenario", str(scn), "--out", "a"]) == 0
    assert run_cli(["solve", "--scenario", str(scn), "--out", "b"]) == 0
    for name in ("records.csv", "state_seed0.json", "outer_trace_seed0.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_timing_flag_is_retired(tmp_path, monkeypatch, capsys):
    """No output holds a wall-clock time, so no command takes --timing."""
    monkeypatch.chdir(tmp_path)
    scn = write_single_edge_scenario(tmp_path)
    for command in ("solve", "recover"):
        assert run_cli([command, "--scenario", str(scn), "--out", "out", "--timing"]) == 2, command
        assert "unrecognized arguments: --timing" in capsys.readouterr().err
    assert not (tmp_path / "out" / "records.csv").exists()


def test_generate_then_solve_from_files(tmp_path, monkeypatch, capsys):
    """The files generate writes for ci5, read back under the same scenario name, give the grid run's
    oracle, solve and recover files byte for byte; each command exits 0, so every run converges."""
    monkeypatch.chdir(tmp_path)
    grid = str(instances.SCENARIOS / "ci5.json")
    assert run_cli(["generate", "--scenario", grid, "--out", "gen"]) == 0
    assert "nodes=24 edges=38 pools=5 lines=20" in capsys.readouterr().out

    net, pools = lm.load_network_file(tmp_path / "gen" / "network_seed0.json")
    assert [lm.compile_pool(net, pools, k).n_lops for k in pools.pool_ids] == [4] * 5
    table = lm.UtilityTable.load(tmp_path / "gen" / "utilities_seed0.json")
    table.validate_against(pools)

    scn = instances.scenario("ci5")
    del scn["grid"], scn["utilities_gen"]
    scn.update(network_file="gen/network_seed0.json", utilities_file="gen/utilities_seed0.json")
    (tmp_path / "files.json").write_text(json.dumps(scn), encoding="utf-8")
    for command in ("oracle", "solve", "recover"):
        assert run_cli([command, "--scenario", grid, "--out", "grid"]) == 0, command
        assert run_cli([command, "--scenario", "files.json", "--out", "files"]) == 0, command
    written = sorted(path.name for path in (tmp_path / "grid").iterdir())
    assert written == ["oracle_seed0.json", "outer_trace_seed0.csv", "records.csv", "state_seed0.json"]
    for name in written:
        assert (tmp_path / "files" / name).read_bytes() == (tmp_path / "grid" / name).read_bytes(), name


def test_scenario_files_are_read_beside_the_scenario(tmp_path, monkeypatch):
    """A scenario's network_file and utilities_file are read from its own directory, wherever the command runs."""
    (tmp_path / "rel").mkdir()
    net, pools, table = instances.chain_instance(3)
    lm.dump_network_file(net, pools, tmp_path / "rel" / "net.json")
    table.dump(tmp_path / "rel" / "util.json")
    scn = {"name": "rel", "network_file": "net.json", "utilities_file": "util.json", "seeds": [0]}
    (tmp_path / "rel" / "scn.json").write_text(json.dumps(scn), encoding="utf-8")
    for cwd, path, out in ((tmp_path, "rel/scn.json", "above"), (tmp_path / "rel", "scn.json", "beside")):
        monkeypatch.chdir(cwd)
        assert run_cli(["solve", "--scenario", path, "--out", str(tmp_path / out)]) == 0, out
    for name in ("records.csv", "state_seed0.json", "outer_trace_seed0.csv"):
        assert (tmp_path / "above" / name).read_bytes() == (tmp_path / "beside" / name).read_bytes(), name


def test_oracle_command(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    scn = write_single_edge_scenario(tmp_path)
    assert run_cli(["oracle", "--scenario", str(scn), "--out", "out"]) == 0
    assert "objective=4" in capsys.readouterr().out
    doc = json.loads((tmp_path / "out" / "oracle_seed0.json").read_text())
    assert doc["objective"] == pytest.approx(4.0, rel=1e-6)
    assert doc["max_kkt"] < 1e-6

    # two pools, listed against sorted order, each pricing e1 and e3; no load
    # fills e2, so no optimum prices it
    net = lm.Network(["u", "v", "w", "z"], [lm.Edge("e1", "u", "v", 4.0), lm.Edge("e2", "v", "w", 50.0),
                                            lm.Edge("e3", "w", "z", 1.0)])
    lines = {(lop, k): lm.Line(edges) for k in ("k1", "k0") for lop, edges in (("lop0", ("e1",)), ("lop1", ("e2", "e3")))}
    pools = lm.PoolSystem(["k1", "k0"], lines)
    table = lm.UtilityTable({key: lm.UtilitySpec(a) for key, a in zip(lines, (2.0, 1.0, 3.0, 1.5))})
    scn = write_instance_scenario(tmp_path, "two", net, pools, table)
    assert run_cli(["oracle", "--scenario", str(scn), "--out", "two"]) == 0
    assert "shares=k0:" in capsys.readouterr().out
    doc = json.loads((tmp_path / "two" / "oracle_seed0.json").read_text())
    state = lm.solve_full(net, pools, table).state
    # per pool, every edge's price and every operator's bid and frequency,
    # unpriced edges included, as solve writes a run's state
    assert list(doc["pools"]) == ["k0", "k1"]
    for k, st in state.pool_states.items():
        assert doc["pools"][k] == st.to_json()
        assert [doc["pools"][k]["prices"][e] > 0.0 for e in ("e1", "e2", "e3")] == [True, False, True]
    assert doc["shares"] == state.shares.as_dict()
    assert doc["pool_costs"] == state.pool_costs
    assert doc["cost_level"] == state.cost_level


def test_demo_scenario_has_one_definition():
    """The benchmark's grid2_cold scenario is the committed demo.json, as the README's is (test_readme)."""
    root = instances.SCENARIOS.parents[1]
    demo = instances.scenario("demo")
    workloads = ast.parse((root / "bench" / "workloads.py").read_text(encoding="utf-8"))
    (bench,) = [node.value for node in workloads.body if isinstance(node, ast.Assign)
                and [getattr(target, "id", None) for target in node.targets] == ["DEMO_SCENARIO"]]
    assert ast.literal_eval(bench) == demo


def read_state(doc, net, pools):
    """The OuterState a state document holds, on the instance's compiled views."""
    states = {}
    for k in pools.pool_ids:
        view, st = lm.compile_pool(net, pools, k), doc["pools"][k]
        states[k] = lm.PoolMarketState(
            k, view.edge_ids, view.lop_ids, np.array([st["prices"][e] for e in view.edge_ids]),
            np.array([st["bids"][lop] for lop in view.lop_ids]), np.array([st["freqs"][lop] for lop in view.lop_ids]),
            st["share"],
        )
    shares = lm.ProportionVector(tuple(pools.pool_ids), np.array([doc["shares"][k] for k in pools.pool_ids]))
    return lm.OuterState(shares, states, doc["pool_costs"], doc["cost_level"], 0)


def test_oracle_file_holds_the_whole_optimum(tmp_path, monkeypatch):
    """The oracle writes solve's state schema, and what it writes is solve_full's optimum:
    read back, it certifies to the oracle's own report and a warm run stops at once."""
    monkeypatch.chdir(tmp_path)
    demo = str(instances.SCENARIOS / "demo.json")
    for command in ("oracle", "solve"):
        assert run_cli([command, "--scenario", demo, "--out", "out", "--seeds", "0"]) == 0
    doc = json.loads((tmp_path / "out" / "oracle_seed0.json").read_text())
    run_doc = json.loads((tmp_path / "out" / "state_seed0.json").read_text())
    def ids(d):
        return [list(d[key]) for key in ("shares", "pool_costs", "pools")] + [
            list(st[m]) for st in d["pools"].values() for m in ("prices", "bids", "freqs")]
    assert ids(doc) == ids(run_doc)

    scn = instances.scenario("demo")
    net, pools, table = cli._build_instance(scn, 0, instances.SCENARIOS)
    state = read_state(doc, net, pools)
    assert repr(lm.mechanism_kkt(net, pools, table, state)) == repr(lm.solve_full(net, pools, table).kkt)
    res = lm.run_mechanism(net, pools, table, cli._mech_config(scn), warm=state)
    assert res.converged
    assert (res.f_updates, sum(res.price_updates.values())) == (0, 0)


def test_recover_command_both_modes(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    scn = write_single_edge_scenario(
        tmp_path,
        disruption={"kind": "reduce", "edge_count": 1, "magnitude": 0.1, "seed": 3},
    )
    assert run_cli(["recover", "--scenario", str(scn), "--out", "out"]) == 0
    rows = read_records(tmp_path / "out" / "records.csv")
    assert [r["mode"] for r in rows] == ["cold", "warm"]
    assert all(r["status"] == "converged" for r in rows)

    (tmp_path / "out2").mkdir()
    assert run_cli(
        ["recover", "--scenario", str(scn), "--out", "out2", "--mode", "warm"]
    ) == 0
    rows2 = read_records(tmp_path / "out2" / "records.csv")
    assert [r["mode"] for r in rows2] == ["warm"]


def test_recover_exits_2_when_the_disruption_cannot_be_applied(tmp_path, capsys):
    """A disruption needing more congested edges than a seed's instance has is bad input, not a
    failed run: recover names that seed, exits 2 there and runs none after it."""
    scn = str(instances.SCENARIOS / "mixed40.json")
    # the scenario's seeds, then the same two the other way round; the
    # first seed's baseline holds 5 or 3 congested edges
    for flags, first, available in (([], 0, 5), (["--seeds", "1,0"], 1, 3)):
        out = tmp_path / f"out{first}"
        assert run_cli(["recover", "--scenario", scn, "--out", str(out), *flags]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"seed={first} error: disruption needs 80 congested edges, only {available} available\n"
        assert captured.out == "" and not (out / "records.csv").exists()


def test_nonconvergence_exit_code(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    # chain 0's pool k1 clears at share 0.5 in 360 updates, so 3 passes run out
    monkeypatch.setattr(single_pool, "_MAX_PASSES", 3)
    scn = write_instance_scenario(tmp_path, "chain0", *instances.chain_instance(0))
    assert run_cli(["solve", "--scenario", str(scn), "--out", "out"]) == 1
    row = read_records(tmp_path / "out" / "records.csv")[0]
    assert row["status"] == "nonconverged"


def test_recover_exits_1_when_the_baseline_does_not_converge(tmp_path, monkeypatch, capsys):
    """A baseline that spends its budget leaves nothing to restart from: recover names the seed
    and exits 1, as a run that does not converge does, and writes no record."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(single_pool, "_MAX_PASSES", 3)  # chain 0's pool k1 needs 36 passes
    scn = write_instance_scenario(tmp_path, "chain0", *instances.chain_instance(0),
                                  disruption={"kind": "reduce", "edge_count": 1, "magnitude": 0.1})
    assert run_cli(["recover", "--scenario", str(scn), "--out", "out"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("seed=0 error: baseline run failed to converge: pool ")
    assert not (tmp_path / "out" / "records.csv").exists()


def test_solve_gives_a_lopsided_pool_its_tiny_share(tmp_path, capsys):
    """A pool valued at 0.003 of the others is owed a share below 1e-5; every seed clears."""
    scn = str(instances.SCENARIOS / "lopsided.json")
    assert run_cli(["solve", "--scenario", scn, "--out", str(tmp_path)]) == 0, capsys.readouterr().out
    rows = read_records(tmp_path / "records.csv")
    assert [r["instance"] for r in rows] == ["lopsided-s0", "lopsided-s1", "lopsided-s2"]
    assert all(r["status"] == "converged" for r in rows)


def test_recover_restarts_every_seed_after_an_edge_closes(tmp_path):
    """A shock of magnitude 1 closes an edge, so the lines through it cannot run; yet every cold and warm
    restart of the closing scenario's five seeds converges."""
    scn = str(instances.SCENARIOS / "closing.json")
    assert run_cli(["recover", "--scenario", scn, "--out", str(tmp_path)]) == 0
    rows = read_records(tmp_path / "records.csv")
    assert [(r["instance"], r["mode"]) for r in rows] == [
        (f"closing-s{seed}", mode) for seed in range(5) for mode in ("cold", "warm")]
    assert all(r["status"] == "converged" for r in rows)


def _long_line(doc):
    return next(line for pool in doc["pools"] for line in pool["lines"] if len(line["edges"]) >= 2)


# (case, edit of the network and valuation documents of chain 3, the reason
# both solve and generate must print on exit 2, or None for a legal instance)
BOUNDARY_CASES = [
    ("closed-edge", lambda net, util: net["edges"][5].update(capacity=0.0), None),
    ("negative-capacity", lambda net, util: net["edges"][0].update(capacity=-1.0), "non-finite capacity"),
    ("nan-capacity", lambda net, util: net["edges"][0].update(capacity=float("nan")), "non-finite capacity"),
    ("infinite-capacity", lambda net, util: net["edges"][0].update(capacity=float("inf")), "non-finite capacity"),
    ("duplicate-edge-id", lambda net, util: net["edges"].append(dict(net["edges"][0])), "not unique"),
    ("duplicate-pool-id", lambda net, util: net["pools"].append({"id": "k0", "lines": []}),
     "pool ids ['k0'] are not unique"),
    ("empty-line", lambda net, util: _long_line(net).update(edges=[]), "empty or repeats an edge"),
    ("repeated-edge", lambda net, util: _long_line(net).update(edges=_long_line(net)["edges"][:1] * 2),
     "empty or repeats an edge"),
    ("unknown-edge", lambda net, util: _long_line(net)["edges"].append("ghost"), "unknown edge 'ghost'"),
    ("broken-path", lambda net, util: _long_line(net)["edges"].reverse(), "is not a path"),
    # a network document files each line under the pool that lists it, so
    # an unknown pool reaches the CLI through the valuations
    ("unknown-pool", lambda net, util: util["utilities"].append({"lop": "lop0", "pool": "kX", "a": 2.0}),
     "'kX'"),
    ("unknown-node", lambda net, util: net["edges"][0].update(tail="nowhere"),
     "edges ['e0'] end at a node the network does not list"),
    ("duplicate-valuation", lambda net, util: util["utilities"].append({**util["utilities"][0], "a": 5.0}),
     "duplicate valuation for ('lop0', 'k0')"),
    # the readers take JSON numbers only: float() would read true as 1.0 and "4" as 4.0
    ("bool-capacity", lambda net, util: net["edges"][0].update(capacity=True),
     "capacity of edge 'e0' must be a real number, got True"),
    ("string-capacity", lambda net, util: net["edges"][0].update(capacity="4"),
     "capacity of edge 'e0' must be a real number, got '4'"),
    ("huge-capacity", lambda net, util: net["edges"][0].update(capacity=10 ** 400),
     "capacity of edge 'e0' is out of the float range"),
    ("bool-valuation", lambda net, util: util["utilities"][0].update(a=True),
     "valuation 'a' of ('lop0', 'k0') must be a real number, got True"),
    ("string-valuation", lambda net, util: util["utilities"][0].update(a="4"),
     "valuation 'a' of ('lop0', 'k0') must be a real number, got '4'"),
]


@pytest.mark.parametrize("case, edit, reason", BOUNDARY_CASES, ids=[c[0] for c in BOUNDARY_CASES])
def test_network_file_boundary(tmp_path, monkeypatch, capsys, case, edit, reason):
    """solve and generate accept and reject the same network files, as the engines do."""
    monkeypatch.chdir(tmp_path)
    net, pools, table = instances.chain_instance(3)
    doc, util = lm.network_to_json(net, pools), table.to_json()
    assert doc["edges"][5]["id"] == "e5"
    edit(doc, util)
    (tmp_path / "net.json").write_text(json.dumps(doc), encoding="utf-8")
    scn = {"name": case, "network_file": "net.json", "utilities": util, "seeds": [0]}
    (tmp_path / "scn.json").write_text(json.dumps(scn), encoding="utf-8")
    for command in ("solve", "generate"):
        code = run_cli([command, "--scenario", "scn.json", "--out", "out"])
        err = capsys.readouterr().err
        if reason is None:
            assert code == 0, err
        else:
            assert code == 2 and reason in err, (command, err)
    if reason is None:
        assert read_records(tmp_path / "out" / "records.csv")[0]["status"] == "converged"


@pytest.mark.parametrize("a", [True, "4"], ids=["bool", "string"])
def test_valuation_file_boundary(tmp_path, monkeypatch, capsys, a):
    """A valuation file read through utilities_file takes JSON numbers only, as an inline table does."""
    monkeypatch.chdir(tmp_path)
    net, pools, table = instances.chain_instance(3)
    lm.dump_network_file(net, pools, tmp_path / "net.json")
    util = table.to_json()
    util["utilities"][0]["a"] = a
    (tmp_path / "util.json").write_text(json.dumps(util), encoding="utf-8")
    scn = {"name": "valuation-file", "network_file": "net.json", "utilities_file": "util.json", "seeds": [0]}
    (tmp_path / "scn.json").write_text(json.dumps(scn), encoding="utf-8")
    assert run_cli(["solve", "--scenario", "scn.json", "--out", "out"]) == 2
    assert f"valuation 'a' of ('lop0', 'k0') must be a real number, got {a!r}" in capsys.readouterr().err


def test_network_file_run_reuses_the_validating_compile(tmp_path, monkeypatch, builds):
    """The compile that validates a network file is the one solve and oracle read: each pool builds once a seed."""
    write_instance_scenario(tmp_path, "chain", *instances.chain_instance(3))
    monkeypatch.chdir(tmp_path)
    for command in ("solve", "oracle"):
        builds.clear()
        assert run_cli([command, "--scenario", "scn.json", "--out", "out"]) == 0
        assert builds == ["k0", "k1"]


def test_network_file_without_pools_exits_2(tmp_path, monkeypatch, capsys):
    """Every command rejects a network file that lists no pools, with exit 2."""
    monkeypatch.chdir(tmp_path)
    doc = {"nodes": ["u", "v"], "edges": [{"id": "e1", "tail": "u", "head": "v", "capacity": 4.0}], "pools": []}
    (tmp_path / "net.json").write_text(json.dumps(doc), encoding="utf-8")
    scn = {
        "name": "no-pools", "network_file": "net.json", "utilities": {"utilities": []}, "seeds": [0],
        "disruption": {"kind": "reduce", "edge_count": 1, "magnitude": 0.1},
    }
    (tmp_path / "scn.json").write_text(json.dumps(scn), encoding="utf-8")
    for command in ("solve", "oracle", "recover", "generate"):
        assert run_cli([command, "--scenario", "scn.json", "--out", "out"]) == 2, command
        assert "lists no pools" in capsys.readouterr().err, command


class TestBadInput:
    def test_missing_scenario_file(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert run_cli(["solve", "--scenario", "missing.json", "--out", "o"]) == 2

    def test_invalid_json(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "bad.json").write_text("{nope", encoding="utf-8")
        assert run_cli(["solve", "--scenario", "bad.json", "--out", "o"]) == 2

    def test_unknown_engine_field(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        # a retired option's key is rejected like any unknown one
        retired = ({"normalized_f_update": False}, {"overload_factor": 1.25}, {"abs_tol": 0.1},
                   {"rel_tol": 0.1}, {"trace_stride": 50}, {"f_floor": 1e-4}, {"bid_refresh_period": 10},
                   {"max_inner": 3}, {"max_outer": 5}, {"eps_cost": 0.02})
        for engine in ({"warp": 9},) + retired:
            scn = write_single_edge_scenario(tmp_path, engine=engine)
            assert run_cli(["solve", "--scenario", str(scn), "--out", "o"]) == 2
            assert f"unknown engine fields: {sorted(engine)}" in capsys.readouterr().err

    def test_retired_split_step_is_rejected(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        scn = write_single_edge_scenario(tmp_path, engine={"eta_f": 0.1})
        assert run_cli(["solve", "--scenario", str(scn), "--out", "o"]) == 2
        assert "unknown engine fields: ['eta_f']" in capsys.readouterr().err
        scn = write_single_edge_scenario(tmp_path)
        assert run_cli(["solve", "--scenario", str(scn), "--out", "o", "--eta-f", "0.1"]) == 2
        assert "unrecognized arguments: --eta-f" in capsys.readouterr().err

    def test_grid_and_network_file_conflict(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        scn = write_single_edge_scenario(tmp_path, grid={"rows": 3, "cols": 3})
        assert run_cli(["solve", "--scenario", str(scn), "--out", "o"]) == 2

    def test_bad_seed_list(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        scn = write_single_edge_scenario(tmp_path)
        assert run_cli(["solve", "--scenario", str(scn), "--out", "o", "--seeds", "a,b"]) == 2

    @pytest.mark.parametrize("source", ["flag", "scenario"])
    def test_empty_seed_list(self, tmp_path, monkeypatch, capsys, source):
        """--seeds "," and a scenario's empty seed list name no seed to run."""
        monkeypatch.chdir(tmp_path)
        scn = write_single_edge_scenario(tmp_path, seeds=[] if source == "scenario" else [0])
        flags = ["--seeds", ","] if source == "flag" else []
        assert run_cli(["solve", "--scenario", str(scn), "--out", "o", *flags]) == 2
        assert capsys.readouterr() == ("", "error: no seeds given\n")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("sources", [(), ("utilities", "utilities_gen")], ids=["none", "two"])
    def test_utilities_need_exactly_one_source(self, tmp_path, monkeypatch, capsys, sources):
        monkeypatch.chdir(tmp_path)
        scn = write_single_edge_scenario(tmp_path, utilities_gen={"kind": "uniform", "low": 5, "high": 15})
        doc = json.loads(scn.read_text(encoding="utf-8"))
        for key in ("utilities", "utilities_gen"):
            if key not in sources:
                del doc[key]
        scn.write_text(json.dumps(doc), encoding="utf-8")
        assert run_cli(["solve", "--scenario", str(scn), "--out", "o"]) == 2
        err = "seed=0 error: scenario needs exactly one of 'utilities', 'utilities_file', 'utilities_gen'\n"
        assert capsys.readouterr() == ("", err)

    @pytest.mark.parametrize("command", ["generate", "solve"])
    @pytest.mark.parametrize("source", ["flag", "scenario"])
    def test_negative_seed_names_the_seeds(self, tmp_path, monkeypatch, capsys, command, source):
        """A negative seed, from --seeds or the scenario's seeds, is bad input met before any seed runs."""
        monkeypatch.chdir(tmp_path)
        scn = write_single_edge_scenario(tmp_path, seeds=[0, -1] if source == "scenario" else [0])
        flags = ["--seeds", "0,-2"] if source == "flag" else []
        assert run_cli([command, "--scenario", str(scn), "--out", "o", *flags]) == 2
        out, err = capsys.readouterr()
        bad = -2 if source == "flag" else -1
        assert (out, err) == ("", f"error: seeds must be a whole number of at least 0, got {bad}\n")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["generate", "solve"])
    @pytest.mark.parametrize("source", ["flag", "scenario"])
    def test_repeated_seed_names_the_seed(self, tmp_path, monkeypatch, capsys, command, source):
        """A seed given twice, in --seeds or the scenario's seeds, is bad input met before any seed runs."""
        monkeypatch.chdir(tmp_path)
        scn = write_single_edge_scenario(tmp_path, seeds=[3, 0, 3] if source == "scenario" else [0])
        flags = ["--seeds", "1,0,1"] if source == "flag" else []
        assert run_cli([command, "--scenario", str(scn), "--out", "o", *flags]) == 2
        out, err = capsys.readouterr()
        again = 1 if source == "flag" else 3
        assert (out, err) == ("", f"error: seeds must not repeat, got {again} more than once\n")
        assert not (tmp_path / "o").exists()

    def test_bad_flag_value(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        scn = write_single_edge_scenario(tmp_path, engine={"eta_price": -1})
        assert run_cli(["solve", "--scenario", str(scn), "--out", "o"]) == 2
        assert "price_eta must be a real number in (0, inf), got -1.0" in capsys.readouterr().err
        # engine values are JSON numbers; the error names the key
        for key, value in (
            ("eta_price", [0.001]), ("eta_price", {"v": 0.001}), ("eta_price", "0.05"), ("eta_price", True),
            ("eta_price", 10**400),
        ):
            scn = write_single_edge_scenario(tmp_path, engine={key: value})
            assert run_cli(["solve", "--scenario", str(scn), "--out", "o"]) == 2, (key, value)
            assert f"engine field {key!r}" in capsys.readouterr().err
        # JSON Infinity is a number, and the config rejects it
        scn = write_single_edge_scenario(tmp_path, engine={"eta_price": float("inf")})
        assert run_cli(["solve", "--scenario", str(scn), "--out", "o"]) == 2
        assert "price_eta must be a real number in (0, inf), got inf" in capsys.readouterr().err
        for engine in ([0.001], "eta_price", 5):
            scn = write_single_edge_scenario(tmp_path, engine=engine)
            assert run_cli(["solve", "--scenario", str(scn), "--out", "o"]) == 2, engine
            assert "engine must be a JSON object" in capsys.readouterr().err
        # engine values come from the scenario alone: the retired flags are unknown
        scn = write_single_edge_scenario(tmp_path)
        for flag in ("--eta-price", "--abs-tol", "--rel-tol", "--eps-cost", "--max-inner", "--max-outer", "--trace-stride"):
            assert run_cli(["solve", "--scenario", str(scn), "--out", "o", flag, "1"]) == 2
            assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
        # each command takes only the flags it reads: --mode picks recover's restarts
        for command, flags in (
            ("solve", ["--mode", "warm"]), ("generate", ["--mode", "cold"]), ("oracle", ["--mode", "both"]),
            ("oracle", ["--timing"]), ("generate", ["--timing"]),
        ):
            assert run_cli([command, "--scenario", str(scn), "--out", "o", *flags]) == 2, (command, flags)
            assert f"unrecognized arguments: {flags[0]}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "block, key, value, message", BAD_SCENARIO_VALUES,
        ids=[f"{block or 'scenario'}.{key}={'drop' if value is DROP else value!r}"
             for block, key, value, _ in BAD_SCENARIO_VALUES],
    )
    def test_bad_scenario_value(self, tmp_path, monkeypatch, capsys, block, key, value, message):
        """Every block types its values, rejects unknown keys and names missing ones."""
        monkeypatch.chdir(tmp_path)
        scn = json.loads(json.dumps(GRID_SCENARIO))
        doc = scn[block] if block else scn
        if value is DROP:
            del doc[key]
        else:
            doc[key] = value
        (tmp_path / "scn.json").write_text(json.dumps(scn), encoding="utf-8")
        assert run_cli(["recover", "--scenario", "scn.json", "--out", "o"]) == 2
        assert f"error: {message}" in capsys.readouterr().err

    def test_missing_required_flag(self):
        assert run_cli(["solve"]) == 2

    def test_recover_without_disruption(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        scn = write_single_edge_scenario(tmp_path)
        assert run_cli(["recover", "--scenario", str(scn), "--out", "o"]) == 2


def test_emit_record_header_once():
    rec = ExperimentRecord(
        instance="x", mode="cold", f_updates=1,
        price_updates={"k0": 10, "k1": 4}, bid_updates=2,
        max_kkt=0.01, status="converged",
    )
    bad = ExperimentRecord(
        instance="y", mode="warm", f_updates=0,
        price_updates={"k0": 1, "k1": 1}, bid_updates=0,
        max_kkt=0.9, status="nonconverged",
    )
    sink = io.StringIO()
    emit_record(rec, sink)
    emit_record(bad, sink)
    lines = sink.getvalue().strip().splitlines()
    assert lines == [
        "instance,mode,f_updates,price_updates_total,price_updates,bid_updates,max_kkt,status",
        "x,cold,1,14,k0:10;k1:4,2,0.01,converged",
        "y,warm,0,2,k0:1;k1:1,0,0.9,nonconverged",
    ]


def test_scenario_blocks_read_typed_values():
    """The table's base scenario reads; integral floats are integers and null keeps a default."""
    scn = json.loads(json.dumps(GRID_SCENARIO))
    scn["grid"].update(rows=3.0, seed=None)
    scn["seeds"] = None
    top = cli._read(scn, "scenario", cli._SCENARIO)
    assert "seeds" not in top and cli._mech_config(top).inner.price_eta == 0.001
    spec = cli._grid_spec(top["grid"], 0)
    assert spec.rows == 3 and type(spec.rows) is int and spec.seed == cli.child_seed(0, "grid")
    assert spec.shared_first_edge == ((0, 1), (1, 1))
    net, pools, table = cli._build_instance(top, 0, Path("."))
    assert len(pools.pool_ids) == 1 and len(table.entries) == 2
    assert cli._disruption(top, 0) == lm.DisruptionSpec("reduce", 1, 0.1, cli.child_seed(0, "disruption"))
    # a seed the scenario gives replaces the one derived from the run's seed
    scn["grid"]["seed"], scn["utilities_gen"]["seed"] = 5, 7
    net, pools, table = cli._build_instance(scn, 0, Path("."))
    assert lm.network_to_json(net, pools) == lm.network_to_json(*lm.generate_grid(replace(spec, seed=5)))
    assert table.to_json() == lm.uniform_utilities(pools, 5.0, 15.0, 7).to_json()


def test_empty_engine_block_keeps_config_defaults():
    assert cli._mech_config({"engine": {}}) == lm.MechanismConfig()
    assert cli._mech_config({}) == lm.MechanismConfig()
    # an integer is a number; the equal-cost tolerance is the config's own
    cfg = cli._mech_config({"engine": {"eta_price": 1}})
    assert cfg.inner.price_eta == 1.0 and type(cfg.inner.price_eta) is float
    assert cfg == lm.MechanismConfig(lm.DynamicsConfig(1.0))
