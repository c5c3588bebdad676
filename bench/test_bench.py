"""Tests of the benchmark itself.

    PYTHONPATH=src python -m pytest -q bench
"""
import json
import re
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(BENCH)]

import numpy as np  # noqa: E402

import instances  # noqa: E402  (the test suite's instance families)
import metrics  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from linemarket import multi_pool  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]{1,64}")


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _describe(net, pools, table):
    return (
        list(net.nodes),
        [(e.id, e.tail, e.head, e.capacity) for e in net.edges],
        pools.pool_ids,
        list(pools.lines.items()),
        [(key, table.spec(*key).coefficient) for key in pools.lines],
    )


def test_chain_generator_matches_the_test_suite_draw_for_draw():
    for index in range(20):
        assert _describe(*workloads.chain_instance(index)) == _describe(*instances.chain_instance(index))


def test_grid_generator_matches_the_test_suite():
    for n_pools, seed, _ in workloads.RECOVER_GRIDS:
        assert _describe(*workloads.grid_instance(seed, n_pools)) == _describe(*instances.grid_instance(seed, n_pools))
        assert seed in (instances.GRID_SEEDS_K1 if n_pools == 1 else instances.GRID_SEEDS_K2)


def test_default_seed_runs_the_canonical_chain_set_in_order(tmp_path):
    assert [item.name for item in workloads.chain20(0, tmp_path)] == [f"chain{i}" for i in range(20)]
    assert sorted(item.name for item in workloads.chain20(5, tmp_path)) == sorted(f"chain{i}" for i in range(20))


def test_relabelled_instance_is_the_same_problem():
    inputs = instances.chain_instance(0)
    renamed = workloads.relabel(*inputs, np.random.default_rng(3), "w3.")
    assert _describe(*renamed) != _describe(*inputs)
    a = multi_pool.run_mechanism(*inputs)
    b = multi_pool.run_mechanism(*renamed)
    assert (a.price_updates["k0"], a.price_updates["k1"], a.f_updates) == (
        b.price_updates["w3.k0"], b.price_updates["w3.k1"], b.f_updates)
    assert a.objective == b.objective


def test_metric_names_and_units():
    for m in metrics.END_TO_END + metrics.PER_LAYER:
        assert NAME.fullmatch(m.name), m.name
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", m.unit), m.unit
        assert m.better in ("lower", "higher")
    spec = _spec()
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert NAME.fullmatch(m["name"]), m["name"]
    names = [m.name for m in metrics.END_TO_END + metrics.PER_LAYER]
    assert len(names) == len(set(names))


def test_each_workload_records_one_sentence_why():
    spec = _spec()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS) == list(run.WORKLOAD_NAMES)
    for w in spec["workloads"]:
        why = w["why"]
        assert set(w) == {"name", "why"}
        assert "\n" not in why and len(why) <= 200 and why.endswith(".")
        assert ". " not in why[:-1], f"{w['name']}: more than one sentence"


def test_benchmark_json_lists_the_gated_metrics():
    spec = _spec()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == [
        (m.name, m.unit, m.better) for m in metrics.END_TO_END if m.gated]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (m.name, m.unit, m.better) for m in metrics.PER_LAYER if m.gated]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_layer_mapping_names_known_metrics_and_workloads():
    end_to_end = {m.name for m in metrics.END_TO_END}
    for m in metrics.PER_LAYER:
        if m.name != "trace_overhead_frac":
            assert m.moves, f"{m.name} predicts nothing"
        for move in m.moves:
            metric, workload = move.split("@")
            assert metric in end_to_end and workload in workloads.WORKLOADS, move


def test_tracer_counts_match_results_and_bindings_come_back():
    sites = [(module, attr) for _, where, _ in tracing.BINDINGS for module, attr in where]
    before = [getattr(module, attr) for module, attr in sites]
    with tracing.Tracer() as tracer:
        res = multi_pool.run_mechanism(*instances.chain_instance(0))
        stats = tracer.take()
    assert [getattr(module, attr) for module, attr in sites] == before
    assert stats["calls:single_pool.price_step"] == sum(res.price_updates.values())
    assert stats["calls:multi_pool.update_proportions"] == res.f_updates
    assert stats["n:multi_pool.outer_steps"] == res.state.outer_iter + 1
    assert stats["self:single_pool.run_pool"] < stats["s:single_pool.run_pool"]
