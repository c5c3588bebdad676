"""Command line front end: generate, solve, oracle, recover.

A scenario JSON names an instance (either a lattice recipe or a network
file), its valuations, optional disruption, and engine settings.  Every
command takes one or more seeds; all randomness of a run flows from its
seed, split deterministically per component, and no output holds a
wall-clock time, so reruns with the same scenario and seed write
byte-identical files.

run_cli has one loop over the seeds: it builds each seed's instance and
hands it to the command's per-seed handler, which writes that seed's files
and line and returns whether its runs converged.  solve and recover append
their records to records.csv through one writer (_append_records).  solve's
end state and oracle's optimum are both an OuterState, and one writer
(_state_doc) writes both in one schema: the split, the pool costs, the cost
level and per pool its prices, bids and frequencies, plus each command's
own scalars.

Exit codes: 0 all runs converged, 1 at least one run did not, 2 bad input.
Bad input met at one seed, such as a disruption that seed's instance has
too few congested edges for, stops the command there: its error line names
the seed (seed=1 error: ...), and later seeds do not run.
"""
from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Mapping, Sequence

from .multi_pool import MechanismConfig, MechanismResult, OuterState, run_mechanism
from .network import (
    Network,
    PoolSystem,
    _check_count,
    _write_json,
    compile_pool,
    dump_network_file,
    load_network_file,
)
from .oracle import _state_kkt, solve_full
from .scenarios import (
    DisruptionSpec,
    ExperimentRecord,
    GridSpec,
    _record,
    child_seed,
    generate_grid,
    pool_scaled_utilities,
    run_recovery_experiment,
    uniform_utilities,
)
from .single_pool import DynamicsConfig
from .utility import UtilityTable

__all__ = ["RunConfig", "run_cli", "emit_record", "main"]

_FLOAT_FMT = "%.6g"


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved invocation: command, scenario document, engine config."""

    command: str
    scenario: dict
    out_dir: Path
    seeds: tuple[int, ...]
    mode: str       # recover's restarts: cold, warm or both
    mech: MechanismConfig


def _fmt(value: float) -> str:
    return _FLOAT_FMT % value


def emit_record(record: ExperimentRecord, sink: IO[str]) -> None:
    """Append one experiment record as a CSV row, header exactly once.

    The header is written when the sink is at offset zero.
    """
    writer = csv.writer(sink, lineterminator="\n")
    if sink.tell() == 0:
        writer.writerow(
            [
                "instance",
                "mode",
                "f_updates",
                "price_updates_total",
                "price_updates",
                "bid_updates",
                "max_kkt",
                "status",
            ]
        )
    per_pool = ";".join(f"{k}:{v}" for k, v in sorted(record.price_updates.items()))
    writer.writerow(
        [
            record.instance,
            record.mode,
            record.f_updates,
            record.total_price_updates,
            per_pool,
            record.bid_updates,
            _fmt(record.max_kkt),
            record.status,
        ]
    )


# ---------------------------------------------------------------------------
# Scenario parsing.

def _parse_seeds(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(",") if part.strip() != "")
    except ValueError:
        raise ValueError(f"seeds must be a comma-separated integer list, got {text!r}") from None


_KIND_NAMES = {int: "an integer", float: "a number", str: "a string"}


def _value(where: str, value, kind):
    """One scenario value checked against its JSON type (see _read)."""
    if isinstance(kind, list) and isinstance(value, list):
        return tuple(_value(where, item, kind[0]) for item in value)
    if kind is None or (kind is str and isinstance(value, str)):
        return value
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if kind not in (int, float) or not number or (kind is int and value % 1 != 0):
        raise ValueError(f"{where} must be {'a list' if isinstance(kind, list) else _KIND_NAMES[kind]}, got {value!r}")
    try:
        return kind(value)
    except OverflowError:  # an integer beyond the float range
        raise ValueError(f"{where} is out of range") from None


def _read(doc, block: str, fields: Mapping, required: Sequence[str] = ()) -> dict:
    """A scenario block's given values, each parsed by its JSON type.

    fields maps every key the block may hold to its type: float for a JSON
    number, int for a whole one (3.0 reads as 3), str, [t] for a list of t
    (read as a tuple), and None for a block that its own reader parses.  A
    block that is not an object, an unknown key, a missing required key or
    a value of another type raises ValueError naming the block and the key;
    null counts as absent, so it keeps the default.
    """
    if not isinstance(doc, dict):
        raise ValueError(f"{block} must be a JSON object, got {doc!r}")
    extra = set(doc) - set(fields)
    if extra:
        raise ValueError(f"unknown {block} fields: {sorted(extra)}")
    missing = [key for key in required if doc.get(key) is None]
    if missing:
        raise ValueError(f"missing {block} fields: {missing}")
    return {key: _value(f"{block} field {key!r}", v, fields[key]) for key, v in doc.items() if v is not None}


# Each block's keys and their types, for _read
_SCENARIO = {"name": str, "seeds": [int], "grid": None, "network_file": str, "utilities": None,
             "utilities_file": str, "utilities_gen": None, "disruption": None, "engine": None}
_GRID = {"rows": int, "cols": int, "pools": int, "lines_per_pool": int, "capacity_range": [float],
         "shared_first_edge": [[int]], "min_line_len": int, "seed": int}
# per kind: its keys and the required ones; the first read types every key
# any kind takes, then the kind's own read rejects the others
_UTILITIES_GEN = {
    "uniform": ({"kind": str, "low": float, "high": float, "seed": int}, ("low", "high")),
    "pool_scale": ({"kind": str, "base": float, "scales": [float]}, ("base", "scales")),
}
_GEN_KEYS = {key: kind for fields, _ in _UTILITIES_GEN.values() for key, kind in fields.items()}
_DISRUPTION = {"kind": str, "edge_count": int, "magnitude": float, "seed": int}


def _grid_spec(doc: Mapping, seed: int) -> GridSpec:
    kwargs = _read(doc, "grid", _GRID, ("rows", "cols", "pools", "lines_per_pool"))
    kwargs.setdefault("seed", child_seed(seed, "grid"))
    return GridSpec(**kwargs)


def _build_instance(
    scn: Mapping, seed: int, base: Path
) -> tuple[Network, PoolSystem, UtilityTable]:
    if ("grid" in scn) == ("network_file" in scn):
        raise ValueError("scenario needs exactly one of 'grid' or 'network_file'")
    if "grid" in scn:
        net, pools = generate_grid(_grid_spec(scn["grid"], seed))
    else:
        net, pools = load_network_file(base / scn["network_file"])
        # compile each pool, so generate rejects what solve does; the views
        # stay filed with the pool system, and the run, the oracle and the
        # certifier of this instance read them without compiling again
        for k in pools.pool_ids:
            compile_pool(net, pools, k)

    sources = [k for k in ("utilities", "utilities_file", "utilities_gen") if k in scn]
    if len(sources) != 1:
        raise ValueError("scenario needs exactly one of 'utilities', 'utilities_file', 'utilities_gen'")
    if "utilities" in scn:
        table = UtilityTable.from_json(scn["utilities"])
    elif "utilities_file" in scn:
        table = UtilityTable.load(base / scn["utilities_file"])
    else:
        kind = _read(scn["utilities_gen"], "utilities_gen", _GEN_KEYS, ("kind",))["kind"]
        if kind not in _UTILITIES_GEN:
            raise ValueError(f"unknown utilities_gen kind {kind!r}")
        gen = _read(scn["utilities_gen"], "utilities_gen", *_UTILITIES_GEN[kind])
        if kind == "uniform":
            table = uniform_utilities(pools, gen["low"], gen["high"], gen.get("seed", child_seed(seed, "utilities")))
        else:
            table = pool_scaled_utilities(pools, gen["base"], gen["scales"])
    table.validate_against(pools)
    return net, pools, table


def _disruption(scn: Mapping, seed: int) -> DisruptionSpec:
    if "disruption" not in scn:
        raise ValueError("recover needs a 'disruption' entry in the scenario")
    doc = _read(scn["disruption"], "disruption", _DISRUPTION, ("kind", "edge_count", "magnitude"))
    doc.setdefault("seed", child_seed(seed, "disruption"))
    return DisruptionSpec(**doc)


# The scenario "engine" key: the price step (DynamicsConfig.price_eta).  The
# engine block is the one place a run's engine settings come from; an
# absent key keeps the config's own default.  The run budgets are engine
# constants, and the equal-cost tolerance keeps MechanismConfig's default.
_ENGINE = {"eta_price": float}


def _mech_config(scn: Mapping) -> MechanismConfig:
    eng = _read(scn.get("engine", {}), "engine", _ENGINE)
    return MechanismConfig(DynamicsConfig(eng.get("eta_price")))


def _load_config(args: argparse.Namespace) -> RunConfig:
    path = Path(args.scenario)
    try:
        scn = json.loads(path.read_text(encoding="utf-8"))
    except OSError as err:
        raise ValueError(f"cannot read scenario: {err}") from None
    except json.JSONDecodeError as err:
        raise ValueError(f"scenario is not valid JSON: {err}") from None
    scn = _read(scn, "scenario", _SCENARIO)

    seeds = _parse_seeds(args.seeds) if args.seeds is not None else scn.get("seeds", (0,))
    if not seeds:
        raise ValueError("no seeds given")
    # a negative or repeated seed is bad input before any seed runs, not
    # numpy's error at its own or a second run of the same seed
    seeds = tuple(_check_count("seeds", seed, least=0) for seed in seeds)
    repeated = next((seed for i, seed in enumerate(seeds) if seed in seeds[:i]), None)
    if repeated is not None:
        raise ValueError(f"seeds must not repeat, got {repeated} more than once")
    return RunConfig(
        command=args.command,
        scenario=scn,
        out_dir=Path(args.out),
        seeds=seeds,
        mode=args.mode,
        mech=_mech_config(scn),
    )


# ---------------------------------------------------------------------------
# Output writers.

def _state_doc(state: OuterState, **fields) -> dict:
    """A state's JSON document: its split, costs and per-pool maps, plus the caller's fields."""
    return {
        "shares": state.shares.as_dict(),
        "pool_costs": state.pool_costs,
        "cost_level": state.cost_level,
        "pools": {k: s.to_json() for k, s in state.pool_states.items()},
        **fields,
    }


def _write_outer_trace(path: Path, res: MechanismResult) -> None:
    pool_ids = sorted(res.price_updates)
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(
            ["outer_iter"]
            + [f"share_{k}" for k in pool_ids]
            + [f"cost_{k}" for k in pool_ids]
            + ["cost_level", "price_updates_total"]
        )
        for row in res.outer_trace:
            writer.writerow(
                [row["outer_iter"]]
                + [_fmt(row["shares"][k]) for k in pool_ids]
                + [_fmt(row["costs"][k]) for k in pool_ids]
                + [_fmt(row["cost_level"]), sum(row["price_updates"].values())]
            )


def _summary(seed: int, res: MechanismResult, max_kkt: float) -> str:
    per_pool = ";".join(f"{k}:{v}" for k, v in sorted(res.price_updates.items()))
    status = "converged" if res.converged else "nonconverged"
    return (
        f"seed={seed} status={status} f_updates={res.f_updates} "
        f"price_updates={per_pool} bid_updates={res.bid_updates} "
        f"cost_level={_fmt(res.state.cost_level)} max_kkt={_fmt(max_kkt)}"
    )


# ---------------------------------------------------------------------------
# Commands.

def _append_records(cfg: RunConfig, records: Sequence[ExperimentRecord]) -> None:
    with (cfg.out_dir / "records.csv").open("a", newline="", encoding="utf-8") as fh:
        for record in records:
            emit_record(record, fh)


def _instance_name(cfg: RunConfig, seed: int) -> str:
    return f"{cfg.scenario.get('name', 'run')}-s{seed}"


def _cmd_generate(cfg: RunConfig, seed: int, net: Network, pools: PoolSystem, table: UtilityTable) -> bool:
    dump_network_file(net, pools, cfg.out_dir / f"network_seed{seed}.json")
    table.dump(cfg.out_dir / f"utilities_seed{seed}.json")
    print(
        f"seed={seed} nodes={len(net.nodes)} edges={len(net.edges)} "
        f"pools={len(pools.pool_ids)} lines={len(pools.lines)}"
    )
    return True


def _cmd_solve(cfg: RunConfig, seed: int, net: Network, pools: PoolSystem, table: UtilityTable) -> bool:
    res = run_mechanism(net, pools, table, cfg.mech)
    max_kkt = _state_kkt(res.views, res.coefficients, res.state).max_scaled()
    doc = _state_doc(res.state, converged=res.converged, diagnostics=res.diagnostics, objective=res.objective,
                     f_updates=res.f_updates, price_updates=res.price_updates, bid_updates=res.bid_updates)
    _write_json(cfg.out_dir / f"state_seed{seed}.json", doc)
    _write_outer_trace(cfg.out_dir / f"outer_trace_seed{seed}.csv", res)
    _append_records(cfg, [_record(_instance_name(cfg, seed), "cold", res, max_kkt)])
    print(_summary(seed, res, max_kkt))
    return res.converged


def _cmd_oracle(cfg: RunConfig, seed: int, net: Network, pools: PoolSystem, table: UtilityTable) -> bool:
    sol = solve_full(net, pools, table)
    st = sol.state
    doc = _state_doc(st, converged=sol.converged, objective=sol.objective, cost_gap=sol.cost_gap,
                     max_kkt=sol.kkt.max_scaled())
    _write_json(cfg.out_dir / f"oracle_seed{seed}.json", doc)
    print(
        f"seed={seed} objective={_fmt(sol.objective)} "
        f"shares={';'.join(f'{k}:{_fmt(v)}' for k, v in sorted(doc['shares'].items()))} "
        f"cost_level={_fmt(st.cost_level)}"
    )
    return sol.converged


def _cmd_recover(cfg: RunConfig, seed: int, net: Network, pools: PoolSystem, table: UtilityTable) -> bool:
    spec = _disruption(cfg.scenario, seed)
    modes = ("cold", "warm") if cfg.mode == "both" else (cfg.mode,)
    try:
        result = run_recovery_experiment(
            net, pools, table, spec, cfg.mech, instance=_instance_name(cfg, seed), modes=modes,
        )
    except RuntimeError as err:  # the baseline did not converge
        print(f"seed={seed} error: {err}", file=sys.stderr)
        return False
    records = result.records()
    _append_records(cfg, records)
    for rec in records:
        print(
            f"seed={seed} mode={rec.mode} status={rec.status} "
            f"f_updates={rec.f_updates} price_updates={rec.total_price_updates} "
            f"bid_updates={rec.bid_updates} max_kkt={_fmt(rec.max_kkt)}"
        )
    return all(rec.status == "converged" for rec in records)


# Per-seed handlers: each runs one seed's instance and returns whether it converged
_COMMANDS = {"generate": _cmd_generate, "solve": _cmd_solve, "oracle": _cmd_oracle, "recover": _cmd_recover}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="linemarket",
        description="Decentralized capacity pricing for railway line pools.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in (
        ("generate", "write network and valuation files for a scenario"),
        ("solve", "run the mechanism cold and write state, traces, records"),
        ("oracle", "solve the centralized reference problem"),
        ("recover", "disrupt a converged instance and compare warm vs cold restarts"),
    ):
        p = sub.add_parser(name, help=helptext)
        # each flag only on the commands that read it; the others run with
        # these values
        p.set_defaults(mode="both")
        p.add_argument("--scenario", required=True, help="scenario JSON path")
        p.add_argument("--out", default=".", help="output directory (default: current)")
        p.add_argument("--seeds", default=None, help="comma-separated seeds, overrides the scenario")
        if name == "recover":
            p.add_argument("--mode", choices=["cold", "warm", "both"], help="restarts to run (default: both)")
    return parser


def run_cli(argv: Sequence[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return 2 if err.code not in (0, None) else 0
    seed = None  # the seed being run, which an error met there names
    try:
        cfg = _load_config(args)
        cfg.out_dir.mkdir(parents=True, exist_ok=True)
        handler = _COMMANDS[cfg.command]
        converged = []
        for seed in cfg.seeds:
            converged.append(handler(cfg, seed, *_build_instance(cfg.scenario, seed, Path("."))))
        return 0 if all(converged) else 1
    except (ValueError, OSError) as err:
        where = "" if seed is None else f"seed={seed} "
        print(f"{where}error: {err}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))
