"""relock benchmark: one workload per process, or every workload as a table.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --table [--seed N] [--seconds S]

Run from the root of a checkout; the program is imported from ``src/``
there and nowhere else.  With ``--trace 0`` the last line of stdout is a JSON
object whose metrics are BENCHMARK.json's ``end_to_end`` list; with
``--trace 1`` they are its ``per_layer`` list.  ``--table`` runs every
workload untraced in a fresh process, one after another, and prints one row
of end-to-end metrics each.
Untraced times are reported at a nominal host speed: refclock.py times a
fixed reference kernel around every timed call (see manifest.json,
``host_speed``); the wall-clock medians are on the ``perfbench-info`` line.
Workload configs and the meaning of each metric are in manifest.json.
Files the run writes go to ``.perfbench_work/`` in the checkout.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from refclock import RefClock
from tracing import Recorder, traced
from workloads import WORKLOADS, CheckFailed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
MANIFEST = json.loads((HERE / "manifest.json").read_text())

# span name -> metric holding that layer's self time; these sum to trace.op_s
SELF_METRIC = {
    "op": "trace.unattributed_s",
    "cli.main": "cli.self_s",
    "bench.parse": "bench.parse_s",
    "bench.compile": "bench.compile_s",
    "bench.eval": "bench.eval_s",
    "encrypt.encrypt": "encrypt.encrypt_s",
    "sim.schedule": "sim.schedule_s",
    "sim.simulate": "sim.simulate_self_s",
    "sim.write": "sim.write_s",
    "evaluate.run_case": "evaluate.run_case_self_s",
    "unroll.encode": "unroll.encode_s",
    "sat.ingest": "sat.ingest_s",
    "sat.search": "sat.search_s",
    "attack.recover": "attack.self_s",
    "attack.oracle": "attack.oracle_self_s",
}
TOTAL_METRIC = {
    "cli.main": "cli.main_s",
    "sim.simulate": "sim.simulate_s",
    "evaluate.run_case": "evaluate.run_case_s",
    "attack.recover": "attack.recover_s",
    "attack.oracle": "attack.oracle_s",
}
# what the tracing hooks count (and attack.verify_s, which they add up)
RECORDED = (
    "bench.compile_calls", "bench.eval_calls", "bench.gate_lane_evals",
    "encrypt.calls", "encrypt.added_gates",
    "sim.schedule_calls", "sim.schedule_windows", "sim.simulate_cycles",
    "evaluate.run_case_calls",
    "unroll.encode_calls", "unroll.clauses",
    "sat.calls", "sat.clauses_in", "sat.conflicts", "sat.decisions", "sat.propagations",
    "attack.oracle_queries", "attack.dips", "attack.verify_s",
)


def log(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


# run in a fresh interpreter: prints how long importing relock and its CLI took
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import relock, relock.cli; print(time.perf_counter() - t)"
)


def import_relock():
    """Import relock from this checkout's src/."""
    src = ROOT / "src"
    if not (src / "relock" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no relock sources at {src / 'relock'}; run from a full checkout")
    sys.path.insert(0, str(src))
    import relock
    import relock.cli  # noqa: F401  (the CLI is not imported by the package)

    if Path(relock.__file__).resolve().parent != (src / "relock").resolve():
        raise SystemExit(f"perfbench: imported relock from {relock.__file__}, not from {src}")
    return relock


def import_seconds() -> float:
    """Seconds a fresh interpreter takes to import relock and its CLI."""
    proc = subprocess.run(
        [sys.executable, "-I", "-c", IMPORT_PROBE, str(ROOT / "src")],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=60,
    )
    return float(proc.stdout)


def setup_seconds(wl, clock: RefClock) -> tuple[float, float, int]:
    """Median import time plus median set-up time, at nominal host speed
    and as wall time, and the sample count.

    Imports and set-ups alternate for at least ``setup_reps`` rounds and
    ``setup_window_s`` seconds; each is scaled by the reference ticks around it.
    """
    imports: list[tuple[float, float]] = []
    setups: list[tuple[float, float]] = []
    start = time.perf_counter()
    while len(setups) < MANIFEST["setup_reps"] or time.perf_counter() - start < MANIFEST["setup_window_s"]:
        seconds, _wall, scale = clock.timed(import_seconds)
        imports.append((seconds * scale, seconds))
        gc.collect()
        _, wall, scale = clock.timed(wl.setup)
        setups.append((wall * scale, wall))
    nominal = statistics.median(x for x, _ in imports) + statistics.median(x for x, _ in setups)
    wall = statistics.median(x for _, x in imports) + statistics.median(x for _, x in setups)
    return nominal, wall, len(setups)


def _guarded(wl, k: int):
    try:
        return wl.op(k), None
    except Exception as e:  # an op that raises counts as failed; the run goes on
        return None, e


def run_op(wl, k: int, clock: RefClock, rec: Recorder | None = None) -> tuple[float, float, bool]:
    """Prepare, collect garbage, time one op, then check it (untimed).

    The op runs between ``clock``'s ticks, or traced into ``rec``.  Returns
    wall seconds, seconds at nominal host speed (the wall time for a traced
    op) and whether the op passed its check.
    """
    wl.prepare(k)
    gc.collect()
    scale = 1.0
    if rec is None:
        (out, err), dt, scale = clock.timed(_guarded, wl, k)
    else:
        out = err = None
        with traced(rec):
            idx = rec.open("op")
            try:
                out = wl.op(k)
            except Exception as e:
                err = e
            finally:
                rec.close(idx)
        dt = rec.spans[idx][2] - rec.spans[idx][1]
    if err is None:
        try:
            wl.check(k, out)
        except Exception as e:
            err = e
    if err is not None:
        log(f"{wl.name} op {k} failed: {err!r}")
        if not isinstance(err, CheckFailed):
            traceback.print_exception(err, file=sys.stderr)
    return dt, dt * scale, err is None


def tail(durations: list[float]) -> tuple[float | None, float | None]:
    """Highest percentile with at least ten ops beyond it, if it is >= p50."""
    n = len(durations)
    if n < 20:
        return None, None
    return sorted(durations)[n - 11], 100.0 * (n - 10) / n


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def measure(wl, seconds: float, clock: RefClock) -> tuple[list[float], list[float], int, float]:
    """Whole passes of ``pass_len`` ops until the next pass would end past
    ``seconds``, at least ``min_ops`` ops: wall and nominal-speed op times,
    failed ops (the warm-up op included) and peak RSS.

    Peak RSS is read after op ``min_ops``, so it covers the same work
    however many ops the machine's speed allows.
    """
    # one untimed (still checked) op first: it fills lazy caches and sizes
    # the reference ticks, which then bracket every timed op at full length
    _, _, ok = run_op(wl, 0, clock)
    walls: list[float] = []
    durations: list[float] = []
    failed = not ok
    start = time.perf_counter()
    for k in range(wl.max_ops):
        wall, dt, ok = run_op(wl, k, clock)
        walls.append(wall)
        durations.append(dt)
        failed += not ok
        if k + 1 == wl.min_ops:
            rss = peak_rss_mib()
        elapsed = time.perf_counter() - start
        done = k + 1 >= wl.min_ops and (k + 1) % wl.pass_len == 0
        if done and elapsed * (k + 1 + wl.pass_len) / (k + 1) > seconds:
            break
    return walls, durations, failed, rss


def measure_traced(wl, clock: RefClock, rec: Recorder, again: Recorder) -> tuple[list[float], list[float], int]:
    """Each instance once untraced, once traced into ``rec`` and once more
    traced into ``again``, whose counters must equal ``rec``'s."""
    plain: list[float] = []
    with_trace: list[float] = []
    failed = 0
    for k in range(wl.trace_ops):
        dt, _, ok = run_op(wl, k, clock)
        plain.append(dt)
        failed += not ok
        dt, _, ok = run_op(wl, k, clock, rec)
        with_trace.append(dt)
        failed += not ok
        _, _, ok = run_op(wl, k, clock, again)
        failed += not ok
    return plain, with_trace, failed


def layer_metrics(rec: Recorder, plain: list[float], with_trace: list[float]) -> tuple[dict, bool]:
    """Per-op layer metrics over the traced ops, and whether self times add up."""
    n = len(with_trace)
    total, own = rec.times()
    m = {metric: own.get(span, 0.0) / n for span, metric in SELF_METRIC.items()}
    m.update({metric: total.get(span, 0.0) / n for span, metric in TOTAL_METRIC.items()})
    m.update({name: rec.counts.get(name, 0) / n for name in RECORDED})
    m["bench.gate_lane_evals_per_s"] = m["bench.gate_lane_evals"] / m["bench.eval_s"] if m["bench.eval_s"] else 0.0
    m["unroll.clauses_per_s"] = m["unroll.clauses"] / m["unroll.encode_s"] if m["unroll.encode_s"] else 0.0
    m["sat.propagations_per_s"] = m["sat.propagations"] / m["sat.search_s"] if m["sat.search_s"] else 0.0
    m["trace.op_s"] = statistics.fmean(with_trace)
    m["trace.untraced_op_s"] = statistics.fmean(plain)
    m["trace.overhead_s"] = m["trace.op_s"] - m["trace.untraced_op_s"]
    unknown = set(own) - set(SELF_METRIC)
    if unknown:
        log(f"spans with no self-time metric: {sorted(unknown)}")
    selfs = sum(m[metric] for metric in SELF_METRIC.values())
    adds_up = not unknown and abs(selfs - m["trace.op_s"]) <= 1e-9 * max(1.0, m["trace.op_s"])
    if not adds_up:
        log(f"self times sum to {selfs!r}, traced op time is {m['trace.op_s']!r}")
    return m, adds_up


def counters_repeat(name: str, seed: int, code: str, rec: Recorder, again: Recorder) -> bool:
    """Exact counters must be equal in both traced passes of this run, and
    equal to those an earlier run of this code and workload config at this
    seed recorded (``code`` names both)."""
    now = {k: rec.counts.get(k, 0) for k in MANIFEST["exact_counters"]}
    second = {k: again.counts.get(k, 0) for k in MANIFEST["exact_counters"]}
    if second != now:
        log(f"exact counters differ between the two traced passes: {now} != {second}")
        return False
    path = WORK / "counters" / f"{name}-{seed}-{code}.json"
    if path.exists():
        before = json.loads(path.read_text())
        if before != now:
            log(f"exact counters differ from an earlier run at seed {seed}: {before} != {now}")
            return False
        return True
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(now, sort_keys=True) + "\n")
    return True


def code_size(relock) -> dict:
    """Line and public-name counts of relock, and a digest of its sources."""
    texts = [p.read_text() for p in sorted(Path(relock.__file__).resolve().parent.glob("*.py"))]
    return {
        "code.src_lines": sum(len(t.splitlines()) for t in texts),
        "code.public_names": len(relock.__all__),
        "code.sha256": hashlib.sha256("\0".join(texts).encode()).hexdigest()[:16],
    }


def run_workload(args) -> int:
    relock = import_relock()
    bench_cfg = json.loads((ROOT / "BENCHMARK.json").read_text())
    spec = MANIFEST["workloads"][args.workload]
    expected = json.loads((HERE / "expected.json").read_text()).get(args.workload, {})
    WORK.mkdir(exist_ok=True)
    wl = WORKLOADS[args.workload](ROOT, WORK, args.seed, spec["config"], expected)
    info = {
        "workload": wl.name,
        "seed": args.seed,
        "env.python": sys.version.split()[0],
        "env.nproc": len(os.sched_getaffinity(0)),
        **code_size(relock),
    }
    clock = RefClock(MANIFEST["ref_nominal_rep_s"], MANIFEST["ref_share"])
    try:
        if args.trace:
            wl.setup()
            rec, again = Recorder(), Recorder()
            plain, with_trace, failed = measure_traced(wl, clock, rec, again)
            attempted = 3 * len(plain)
            m, adds_up = layer_metrics(rec, plain, with_trace)
            config = hashlib.sha256(json.dumps(spec["config"], sort_keys=True).encode()).hexdigest()[:8]
            repeat = counters_repeat(wl.name, args.seed, f"{info['code.sha256']}-{config}", rec, again)
            correct = failed == 0 and adds_up and repeat
            spans = WORK / "spans" / f"{wl.name}-{args.seed}.json"
            spans.parent.mkdir(exist_ok=True)
            spans.write_text(json.dumps(rec.spans))
            names = [x["name"] for x in bench_cfg["per_layer"]]
            units = {x["name"]: x["unit"] for x in bench_cfg["per_layer"]}
            for metric in sorted(SELF_METRIC.values(), key=lambda k: -m[k]):
                print(f"{metric:28s} {m[metric]:10.4f} s  {100 * m[metric] / m['trace.op_s']:5.1f}%")
            info["traced_ops"] = len(with_trace)
        else:
            setup_s, info["setup_wall_s"], info["setup_samples"] = setup_seconds(wl, clock)
            walls, durations, failed, rss = measure(wl, args.seconds, clock)
            attempted = len(durations) + 1  # the warm-up op is checked too
            correct = failed == 0
            m = {
                "setup_s": setup_s,
                "op_s": statistics.median(durations),
                "peak_rss_mib": rss,
            }
            names = [x["name"] for x in bench_cfg["end_to_end"]]
            units = {x["name"]: x["unit"] for x in bench_cfg["end_to_end"]}
            info["ops"] = len(durations)
            info["op_wall_s"] = statistics.median(walls)
            info["ref_rep_s"] = statistics.median(clock.ticks)
            info["op_tail_s"], info["op_tail_pct"] = tail(durations)
            info["failed_ratio"] = failed / attempted
            print(
                f"{wl.name}: setup_s {m['setup_s']:.4f} s, op_s {m['op_s']:.4f} s over {len(durations)} timed ops, "
                f"peak_rss_mib {m['peak_rss_mib']:.1f} MiB, failed_ratio {failed / attempted:g}"
            )
    finally:
        wl.cleanup()
    print("perfbench-info " + json.dumps(info))
    result = {
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": m[k], "unit": units[k]} for k in names},
    }
    print(json.dumps(result), flush=True)
    return 0


def run_table(args) -> int:
    """Every workload untraced in a fresh process, one row of end-to-end metrics each."""
    bench_cfg = json.loads((ROOT / "BENCHMARK.json").read_text())
    for w in bench_cfg["workloads"]:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", w["name"], "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{w['name']}: exit {proc.returncode}\n{proc.stderr}")
            continue
        res = json.loads(lines[-1])
        info = next(json.loads(ln.split(" ", 1)[1]) for ln in lines if ln.startswith("perfbench-info "))
        row = [f"{w['name']}", f"correct={res['correct']}", f"ops={res['attempted']}", f"failed={res['failed']}"]
        row += [f"{name}={v['value']:.6g} {v['unit']}" for name, v in res["metrics"].items()]
        if info["op_tail_s"] is not None:
            row.append(f"op_tail_s=p{info['op_tail_pct']:.0f} {info['op_tail_s']:.6g} s")
        row.append(f"failed_ratio={info['failed_ratio']:g}")
        print("  ".join(row), flush=True)
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=int(MANIFEST["default_seed"]))
    p.add_argument("--seconds", type=float, help="measuring time (default: BENCHMARK.json run_seconds)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--table", action="store_true", help="run every workload untraced, one row each")
    args = p.parse_args(argv)
    if args.seconds is None:
        args.seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    if args.table:
        if args.trace:
            p.error("--table prints end-to-end metrics only; trace one workload at a time")
        return run_table(args)
    if args.workload is None:
        p.error("--workload is required without --table")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
