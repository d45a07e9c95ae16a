#!/usr/bin/env python3
"""Run the SAT attack on long-gap s27 locks and print its cost, as JSON lines.

Window starts grow as 2**n with the PRNG width n, and so does the gap the
attack probes after each window.  This locks s27 at widths 12, 14 and 16
(``key_len`` 4, ``sbj_bits`` 1, coverage 0.3, master seed 1, built-in taps)
and attacks its first 2 windows at seed 0, then the first 3 windows of the
width-16 lock.  Window 1's gap is 1876, 14,829 and 31,492 cycles; window 2
of the width-16 lock probes 62,733.  Each run is made in a fresh child
process whose address space is capped at ``AS_CAP_MIB``, so a run that
grows with the gap fails fast with ``"status": "memory-cap"`` instead of
taking gigabytes.  Each run prints one line: the width and window count,
the gaps, the attack's status, whether the replay check passed, whether the
keys are the schedule's, the attack's wall time and the child's peak RSS::

    python tools/long_gap.py
"""

from __future__ import annotations

import json
import resource
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# (PRNG width, windows attacked) of every run
RUNS = ((12, 2), (14, 2), (16, 2), (16, 3))
AS_CAP_MIB = 512

# run in a fresh interpreter: measure one run and print its JSON line
_CHILD = "import sys; sys.path.insert(0, sys.argv[1]); import long_gap; long_gap.child(*map(int, sys.argv[2:]))"


def child(width: int, windows: int) -> None:
    """Cap this process's address space, attack the first ``windows``
    windows of the width-``width`` lock and print the outcome as one JSON
    line."""
    cap = AS_CAP_MIB << 20
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
    sys.path.insert(0, str(ROOT / "src"))
    from relock import EncryptConfig, SequenceOracle, derive_window_starts, encrypt, load_bench, recover_key_sequences
    from relock.sim import authentication_schedule

    line = {"width": width, "windows": windows}
    try:
        orig = load_bench(ROOT / "benchmarks" / "s27.bench")
        cfg = EncryptConfig(lfsr_width=width, key_len=4, sbj_bits=1, coverage=0.3, master_seed=1)
        design = encrypt(orig, cfg)
        starts = derive_window_starts(design.schedule, windows)
        wins = authentication_schedule(design.schedule, starts[-1] + cfg.key_len)
        truth = tuple(design.schedule.key_table[w.chain] for w in wins[:windows])
        t0 = time.perf_counter()
        res = recover_key_sequences(design.netlist, SequenceOracle(orig), starts, cfg.key_len, windows, seed=0)
        line.update(
            gaps=[w.gap for w in res.windows],
            status=res.status,
            verified=res.verified,
            truth=res.keys == truth,
            wall_s=round(time.perf_counter() - t0, 3),
        )
    except MemoryError:
        line["status"] = "memory-cap"
    line["peak_rss_mib"] = round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)
    print(json.dumps(line), flush=True)


def measure(width: int, windows: int = 2) -> dict:
    """The JSON line of one run, made in a fresh capped child process."""
    cmd = [sys.executable, "-c", _CHILD, str(ROOT / "tools"), str(width), str(windows)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"width {width}, {windows} windows: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout)


def main() -> int:
    for width, windows in RUNS:
        print(json.dumps(measure(width, windows)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
