#!/usr/bin/env python3
"""Run the benchmark on every workload and write the numbers as one JSON record.

For every workload ``BENCHMARK.json`` lists, this runs ``perfbench/run.py``
at seed 0, each run in a fresh process: once untraced for the end-to-end
metrics, and ``TRACED_RUNS`` times with ``--trace 1`` for the per-layer
self times, counters and rates.  A layer metric timed in wall seconds
(unit ``s`` or ``1/s``) is recorded as its median over the traced runs, so
one run's host drift does not reach the record; the counters and
``correct`` must agree in every traced run.  Together with the interpreter
version, the CPU count and ``tools/code_size.py``'s numbers, it writes a
record with the keys in ``KEYS``, so two records can be diffed key by key::

    python tools/bench.py BENCH_<n>.json

``--diff OLD NEW`` instead prints, for every workload, the relative change
of each end-to-end and layer metric from record OLD to record NEW::

    python tools/bench.py --diff BENCH_<m>.json BENCH_<n>.json

Records made at different times differ by host drift as well.  To compare
two checkouts on one workload, ``--pairs OTHER N --workload W`` runs
``perfbench/run.py`` untraced N times in checkout OTHER and N times in this
one, alternating which side runs first, and prints for each end-to-end
metric both medians, OTHER's quartiles and how many pairs this checkout
won (ties count for neither side)::

    python tools/bench.py --pairs ../parent 10 --workload attack-s298

Nothing under ``perfbench/`` is changed; each run takes about
``BENCHMARK.json``'s ``run_seconds`` plus set-up.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCHEMA = 1
KEYS = ("schema", "env", "end_to_end", "layers", "code")
TRACED_RUNS = 3


def run(workload: str, trace: int, root: Path = ROOT) -> tuple[dict, dict]:
    """``correct`` and the value of every metric of one run in checkout
    ``root``, and its ``perfbench-info`` object."""
    cmd = [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "0", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=1800)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd[1:])}: exit {proc.returncode}\n{proc.stderr}")
    info = next(json.loads(ln.split(" ", 1)[1]) for ln in lines if ln.startswith("perfbench-info "))
    res = json.loads(lines[-1])
    return {"correct": res["correct"], **{k: v["value"] for k, v in res["metrics"].items()}}, info


def record() -> dict:
    workloads = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    end_to_end, layers = {}, {}
    for name in workloads:
        end_to_end[name], info = run(name, 0)
        end_to_end[name]["failed_ratio"] = info["failed_ratio"]
        layers[name] = traced_layers(name)
    env = {"python": info["env.python"], "nproc": info["env.nproc"]}
    code = subprocess.run([sys.executable, str(ROOT / "tools" / "code_size.py")],
                          capture_output=True, text=True, check=True, timeout=120).stdout
    return dict(zip(KEYS, (SCHEMA, env, end_to_end, layers, json.loads(code))))


def traced_layers(workload: str) -> dict:
    """The layer metrics of ``TRACED_RUNS`` traced runs of ``workload``: the
    median of each metric whose unit in ``BENCHMARK.json`` is ``s`` or
    ``1/s``, and every other value, which all the runs must agree on."""
    units = {m["name"]: m["unit"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    runs = [run(workload, 1)[0] for _ in range(TRACED_RUNS)]
    layers = {}
    for name in runs[0]:
        values = [r[name] for r in runs]
        if units.get(name) in ("s", "1/s"):
            layers[name] = statistics.median(values)
        elif values.count(values[0]) != len(values):
            raise SystemExit(f"{workload}: {name} differs across the {len(runs)} traced runs: {values}")
        else:
            layers[name] = values[0]
    return layers


def diff(old: dict, new: dict) -> list[str]:
    """One line per metric of two records' ``end_to_end`` and ``layers``:
    section, workload, metric, old and new value and the relative change,
    ``n/a`` for a flag or an old value of 0."""
    lines = []
    for section in ("end_to_end", "layers"):
        for workload, metrics in old[section].items():
            for name, a in metrics.items():
                b = new[section][workload][name]
                change = "n/a" if isinstance(a, bool) or not a else f"{(b - a) / a:+.1%}"
                lines.append(f"{section} {workload} {name} {_show(a)} -> {_show(b)} {change}")
    return lines


def pairs(other: Path, n: int, workload: str) -> list[str]:
    """``n`` untraced runs of ``workload`` in checkout ``other`` and in this
    one, alternating which runs first; one line per end-to-end metric."""
    theirs, ours = [], []
    for i in range(n):
        sides = [(other, theirs), (ROOT, ours)]
        for root, runs in sides if i % 2 == 0 else sides[::-1]:
            runs.append(run(workload, 0, root)[0])
    lines = [f"{workload} correct {sum(r['correct'] for r in theirs)}/{n} -> {sum(r['correct'] for r in ours)}/{n}"]
    for metric in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]:
        name, sign = metric["name"], 1 if metric["better"] == "lower" else -1
        a, b = [r[name] for r in theirs], [r[name] for r in ours]
        q1, _, q3 = statistics.quantiles(a, n=4)
        won = sum(sign * (x - y) > 0 for x, y in zip(a, b))
        lines.append(f"{workload} {name} {_show(statistics.median(a))} -> {_show(statistics.median(b))} "
                     f"other quartiles {_show(q1)}..{_show(q3)} won {won}/{n}")
    return lines


def _show(x) -> str:
    return str(x) if isinstance(x, bool) else f"{x:.4g}"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("out", type=Path, nargs="?", help="JSON file to write")
    p.add_argument("--diff", type=Path, nargs=2, metavar=("OLD", "NEW"),
                   help="print the change from record OLD to record NEW instead")
    p.add_argument("--pairs", nargs=2, metavar=("OTHER", "N"),
                   help="compare N alternating untraced runs of checkout OTHER and this one instead")
    p.add_argument("--workload", help="the workload --pairs runs")
    args = p.parse_args(argv)
    if args.pairs is not None:
        other, n = Path(args.pairs[0]).resolve(), args.pairs[1]
        if not n.isdigit() or int(n) < 2:
            p.error(f"--pairs needs N >= 2 runs a side, got {n}")
        if args.workload is None:
            p.error("--pairs needs --workload")
        print("\n".join(pairs(other, int(n), args.workload)))
    elif args.diff is not None:
        print("\n".join(diff(*(json.loads(path.read_text()) for path in args.diff))))
    elif args.out is not None:
        args.out.write_text(json.dumps(record(), indent=2) + "\n")
    else:
        p.error("give OUT, --diff OLD NEW or --pairs OTHER N --workload W")
    return 0


if __name__ == "__main__":
    sys.exit(main())
