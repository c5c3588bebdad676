"""Benchmark of the linemarket stack, end to end and per layer.

    python3 bench/run.py --workload chain20 --seed 0 --seconds 20 --trace 0

Workloads (see workloads.py): chain20, grid2_cold, grid_recover.  A run

1. times set-up (import plus input generation) in 5 fresh processes and
   reports the median;
2. builds the workload's items from --seed and runs one untimed, untraced
   warm-up pass, which also serves as the reference outputs;
3. runs every item once, then re-runs the items with the most time per run
   so far until --seconds have passed, each run watched by a calibration
   Speedometer (calibration.py); with --trace 1 each of these runs is a
   traced run plus an untraced twin, for the tracing overhead;
4. checks the correctness gates on every item run: KKT residuals, the
   chain20 objective gap, byte-identical CLI outputs, counts and objectives
   equal to the reference pass, and (traced) call counts equal to the
   reported update counts;
5. prints every metric by name and unit, then, as the last line, one JSON
   object with the BENCHMARK.json metrics of the mode: the end-to-end ones
   with --trace 0, the per-layer ones with --trace 1.

Pass totals are sums over items of each item's median run, in reference
seconds.  The exit code is 0 only when every gate held and no operation
failed; 2 means the program could not be found or the arguments are wrong.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from contextlib import nullcontext
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_PROBES = 5
WORKLOAD_NAMES = ("chain20", "grid2_cold", "grid_recover")


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", type=Path, default=None, help="append this run's full record to a JSON list file")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def _load_program():
    """Import the bench modules against this checkout's src/, never an installed copy."""
    src = ROOT / "src"
    if not (src / "linemarket" / "__init__.py").is_file():
        print(f"error: no linemarket package under {src}", file=sys.stderr)
        raise SystemExit(2)
    sys.path[:0] = [str(src), str(BENCH)]
    import linemarket
    import workloads

    if not Path(linemarket.__file__).resolve().is_relative_to(src):
        print(f"error: imported linemarket from {linemarket.__file__}, not from {src}", file=sys.stderr)
        raise SystemExit(2)
    return workloads


def _setup_seconds(args) -> list[tuple[float, float]]:
    """(wall, reference) seconds of set-up, each from a fresh process."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    out = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        wall, ref = map(float, done.stdout.split()[-2:])
        out.append((wall, ref))
    return out


def _machine() -> dict:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def _reference_s(sample) -> float:
    """Reference seconds of one item run."""
    return sum(sample.times.values()) * sample.speed


def _typical(runs):
    """An item's lower-median run by reference time."""
    return sorted(runs, key=_reference_s)[(len(runs) - 1) // 2]


def _pass_total(runs_per_item) -> dict[str, float]:
    """Counters of one pass: the sum over items of each item's typical run.

    `t:` keys are phase times and `s:`/`self:` keys traced span times, all
    in reference seconds; `raw:wall` is the same runs' wall seconds; `c:`
    keys are counts; `max:` counters take the maximum over items.
    """
    total: dict[str, float] = defaultdict(float)
    for runs in runs_per_item:
        run = _typical(runs)
        flat = {f"t:{k}": v * run.speed for k, v in run.times.items()}
        flat["raw:wall"] = sum(run.times.values())
        flat.update({f"c:{k}": v for k, v in run.counts.items()})
        for key, value in (run.layers or {}).items():
            flat[key] = value * run.speed if key.startswith(("s:", "self:")) else value
        for key, value in flat.items():
            total[key] = max(total[key], value) if key.startswith("max:") else total[key] + value
    return dict(total)


def _prefixed(total: dict, prefix: str) -> dict:
    return {k[len(prefix):]: v for k, v in total.items() if k.startswith(prefix)}


def _check(item, sample, ref) -> list[str]:
    problems = list(sample.problems)
    if dict(sample.counts) != dict(ref.counts) or sample.values != ref.values:
        problems.append(f"{item}: counts or objectives differ from the reference pass")
    if sample.layers is not None:
        for counter, count in (("calls:single_pool.price_step", "price_updates"),
                               ("calls:multi_pool.update_proportions", "split_updates")):
            if sample.layers.get(counter, 0) != sample.counts.get(count, 0):
                problems.append(f"{item}: traced {counter} = {sample.layers.get(counter, 0):g}, "
                                f"results report {count} = {sample.counts.get(count, 0)}")
    return problems


def _exact_layer_counts(item, runs) -> list[str]:
    keys = {k for r in runs for k in r.layers if not k.startswith(("s:", "self:"))}
    if any(r.layers.get(k) != runs[0].layers.get(k) for r in runs for k in keys):
        return [f"{item}: traced call counts differ between runs"]
    return []


def _fmt(value) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, int):
        return f"{value:,}"
    return f"{value:.6g}"


def _append_record(path: Path, record: dict) -> None:
    doc = json.loads(path.read_text(encoding="utf-8")) if path.exists() else []
    doc.append(record)
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


def _benchmark(args, workloads, workdir: Path) -> int:
    import calibration
    import metrics
    import tracing

    setup_probes = _setup_seconds(args)
    traced = bool(args.trace)
    tracer = tracing.Tracer() if traced else None

    with tracer or nullcontext():
        items = workloads.WORKLOADS[args.workload](args.seed, workdir)
    setup_layers = tracer.take() if tracer else {}

    reference = {item.name: item.run() for item in items}
    runs: dict[str, list] = {item.name: [] for item in items}
    plain: dict[str, list] = {item.name: [] for item in items}   # untraced twins of traced runs

    def timed(item, traced: bool):
        with calibration.Speedometer() as meter:
            if traced:
                with tracer:
                    sample = item.run()
            else:
                sample = item.run()
        sample.speed = meter.speed
        if traced:
            sample.layers = tracer.take()
        return sample

    def measure(item) -> None:
        if tracer:
            plain[item.name].append(timed(item, False))
        runs[item.name].append(timed(item, bool(tracer)))

    t0 = time.perf_counter()
    for item in items:
        measure(item)
    # Then re-run whichever item has the most time per run so far: long items
    # get the extra runs, since their typical run moves the pass total most.
    while time.perf_counter() - t0 < args.seconds:
        measure(max(items, key=lambda it: _reference_s(_typical(runs[it.name])) / len(runs[it.name])))
    measured_s = time.perf_counter() - t0

    problems: list[str] = [p for ref in reference.values() for p in ref.problems]
    for name, samples in runs.items():
        for sample in samples + plain[name]:
            problems += _check(name, sample, reference[name])
        if traced:
            problems += _exact_layer_counts(name, samples)
    everything = [s for group in (reference.values(), *runs.values(), *plain.values()) for s in group]
    attempted = sum(s.ops for s in everything)
    failed = sum(s.failed for s in everything)

    total = _pass_total(runs[item.name] for item in items)
    kkts = [v for s in everything for k, v in s.values.items() if k.endswith(".kkt")]
    gaps = [s.values["gap"] for s in everything if "gap" in s.values]
    e2e = metrics.end_to_end(
        _prefixed(total, "t:"), _prefixed(total, "c:"),
        kkt_max=max(kkts, default=0.0), gap_max=max(gaps, default=None),
        setup_s=statistics.median(ref for _, ref in setup_probes),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        ops=attempted, failed=failed,
        wall_clock_s=total["raw:wall"],
        speed=statistics.median(s.speed for samples in runs.values() for s in samples),
    )
    layers = None
    if traced:
        for key, value in setup_layers.items():
            total[key] = max(total.get(key, 0), value) if key.startswith("max:") else total.get(key, 0) + value
        untraced = _pass_total(plain[item.name] for item in items)
        layers = metrics.per_layer(total, sum(_prefixed(total, "t:").values()),
                                   sum(_prefixed(untraced, "t:").values()))
    shown = metrics.PER_LAYER if traced else metrics.END_TO_END
    chosen = layers if traced else e2e
    problems += [f"metric {m.name} has no value" for m in shown if m.gated and chosen[m.name] is None]

    machine = _machine()
    print(f"machine: {', '.join(f'{k}={v}' for k, v in machine.items())}")
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: {len(items)} items, "
          f"warm-up pass + {sum(map(len, runs.values()))} item runs in {measured_s:.1f} s")
    for item in items:
        samples = runs[item.name]
        print(f"  {item.name:<22} {_reference_s(_typical(samples)):9.4f} ref s  x{len(samples):<3} "
              f"price_updates={samples[0].counts['price_updates']:,} "
              f"split_updates={samples[0].counts['split_updates']:,}")
    print("per-layer (traced):" if traced else "end-to-end (untraced):")
    for m in shown:
        mark = "" if m.gated else "   [not in BENCHMARK.json]"
        print(f"  {m.name:<38} {_fmt(chosen[m.name]):>14} {m.unit:<6} {m.better} is better{mark}")
    print(f"operations: {attempted} attempted, {failed} failed")
    for p in problems:
        print(f"GATE FAILED: {p}")
    print("gates: " + ("all passed" if not problems else f"{len(problems)} failed"))

    correct = not problems
    if args.out is not None:
        _append_record(args.out, {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
            "machine": machine, "setup_probes_wall_ref_s": setup_probes, "measured_s": measured_s,
            "end_to_end": e2e, "per_layer": layers,
            "items": {
                item.name: {
                    "runs": len(runs[item.name]),
                    "wall_s": [sum(s.times.values()) for s in runs[item.name]],
                    "reference_s": [_reference_s(s) for s in runs[item.name]],
                    "counts": dict(reference[item.name].counts),
                    "values": reference[item.name].values,
                }
                for item in items
            },
            "correct": correct, "attempted": attempted, "failed": failed, "problems": problems,
        })
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m.name: {"value": chosen[m.name], "unit": m.unit}
                    for m in shown if m.gated and chosen[m.name] is not None},
    }
    print(json.dumps(result))
    return 0 if correct and failed == 0 else 1


def main(argv=None) -> int:
    args = _parse(argv)
    os.environ["OPENBLAS_NUM_THREADS"] = "1"   # before numpy loads, here and in the probes
    os.environ["OMP_NUM_THREADS"] = "1"
    tmp_root = ROOT / ".bench_tmp"
    tmp_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=tmp_root))
    try:
        if args.setup_probe:
            t0 = time.perf_counter()
            workloads = _load_program()
            workloads.WORKLOADS[args.workload](args.seed, workdir)
            wall = time.perf_counter() - t0
            import calibration

            calibration.kernel_seconds()   # the first call pays numpy's lazy set-up
            kernel = statistics.median(calibration.kernel_seconds() for _ in range(5))
            print(wall, wall * calibration.REFERENCE_S / kernel)
            return 0
        return _benchmark(args, _load_program(), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            tmp_root.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
