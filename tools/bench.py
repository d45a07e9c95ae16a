#!/usr/bin/env python3
"""Run the benchmark once per workload and write the numbers as one JSON record.

For every workload ``BENCHMARK.json`` lists, this runs ``perfbench/run.py``
at seed 0 twice, each in a fresh process: untraced for the end-to-end
metrics, and with ``--trace 1`` for the per-layer self times, counters and
rates.  Together with the interpreter version, the CPU count and
``tools/code_size.py``'s numbers, it writes a record with the keys in
``KEYS``, so two records can be diffed key by key::

    python tools/bench.py BENCH_<n>.json

Nothing under ``perfbench/`` is changed; each run takes about
``BENCHMARK.json``'s ``run_seconds`` plus set-up.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCHEMA = 1
KEYS = ("schema", "env", "end_to_end", "layers", "code")


def run(workload: str, trace: int) -> tuple[dict, dict]:
    """``correct`` and the value of every metric of one run, and its
    ``perfbench-info`` object."""
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "0", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=1800)
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
        layers[name], _ = run(name, 1)
    env = {"python": info["env.python"], "nproc": info["env.nproc"]}
    code = subprocess.run([sys.executable, str(ROOT / "tools" / "code_size.py")],
                          capture_output=True, text=True, check=True, timeout=120).stdout
    return dict(zip(KEYS, (SCHEMA, env, end_to_end, layers, json.loads(code))))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("out", type=Path, help="JSON file to write")
    args = p.parse_args(argv)
    args.out.write_text(json.dumps(record(), indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
