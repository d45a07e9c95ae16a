#!/usr/bin/env python3
"""Record the outputs of the stimulus builders and simulator callers.

Twelve locks (s27, s298 and s1238, each with ``key_len`` 1, 3, 4 and 8) are
made through ``relock encrypt``.  For each lock this stores:

* the ``encrypt`` stdout and digests of the locked netlist and key schedule,
* ``simulate`` in the no-keys mode and with ``--case`` 1, 2 and 3, at
  ``--cycles`` 0, 2, 60 and 150, with two seeds (exit code, stdout digest,
  stderr), plus one VCD digest per mode,
* ``eval-hd`` stdout and CSV for cases 1,2,3, and the exit-2 run whose
  horizon holds no workload cycle,
* ``run_case(...).as_dict()`` for each case at two horizons,
* the replayed ``authentication_schedule``, ``workload_cycle_mask``,
  ``trusted_user_stimulus`` and ``derive_window_starts``.

It also stores the ``relock attack`` report on the toy s27 lock.
``tests/test_golden.py`` replays every entry and requires the same values,
so a refactor of the stimulus builders or the run loops that changes any
output shows up as a failing test.

Regenerate ``tests/data/cli_golden.json`` with::

    PYTHONPATH=src python tools/record_cli_golden.py

Only do so on purpose: a refactor meant to keep outputs must pass the test
against the file as it stands.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from relock import (  # noqa: E402
    EncryptConfig,
    authentication_schedule,
    derive_window_starts,
    load_bench,
    load_schedule,
    run_case,
    trusted_user_stimulus,
    workload_cycle_mask,
)
from relock.cli import main as cli_main  # noqa: E402
from relock.encrypt import DEFAULT_SEED  # noqa: E402

OUT = ROOT / "tests" / "data" / "cli_golden.json"

CIRCUITS = ("s27", "s298", "s1238")
KEY_LENS = (1, 3, 4, 8)
MODES = (None, 1, 2, 3)  # None: no --keys/--case
SIM_CYCLES = (0, 2, 60, 150)
SIM_SEEDS = (0, 7)
VCD_CYCLES = 60
HD_ARGS = ("--vectors", "20", "--cycles", "60")
RUN_CASE_CYCLES = (100, None)  # None: key_len + 1, a one-cycle mask
REPLAY_CYCLES = 150

TOY_CONFIG = {
    "lfsr_width": 3,
    "lfsr_taps": [3, 1],
    "enc_out_width": 3,
    "key_len": 2,
    "sbj_bits": 1,
    "coverage": 0.5,
    "master_seed": 24302,
}


def lock_names():
    return [f"{circuit}-c{c}" for circuit in CIRCUITS for c in KEY_LENS]


def lock_config(key_len: int) -> dict:
    return EncryptConfig(lfsr_width=5, key_len=key_len, sbj_bits=2, coverage=0.2, master_seed=DEFAULT_SEED).to_dict()


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class Runner:
    """Runs CLI commands inside one work directory, with its path masked."""

    def __init__(self, work: Path) -> None:
        self.work = work

    def path(self, name: str) -> str:
        return str(self.work / name)

    def cli(self, *argv) -> tuple[int, str, str]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli_main([str(a) for a in argv])
        mask = lambda s: s.replace(str(self.work), "<work>")  # noqa: E731
        return rc, mask(out.getvalue()), mask(err.getvalue())

    def read(self, name: str) -> str:
        return (self.work / name).read_text()


def record_lock(run: Runner, name: str) -> dict:
    circuit, c = name.rsplit("-c", 1)
    key_len = int(c)
    orig_path = str(ROOT / "benchmarks" / f"{circuit}.bench")
    cfg, enc, keys = run.path(f"{name}.json"), run.path(f"{name}.bench"), run.path(f"{name}.keys.json")
    Path(cfg).write_text(json.dumps(lock_config(key_len)))
    rec: dict = {}
    rc, out, err = run.cli("encrypt", orig_path, "--config", cfg, "--out", enc, "--keys", keys)
    rec["encrypt"] = [rc, out, err, sha(run.read(f"{name}.bench")), sha(run.read(f"{name}.keys.json"))]

    for mode in MODES:
        flags = [] if mode is None else ["--keys", keys, "--case", mode]
        tag = "nokeys" if mode is None else f"case{mode}"
        for cycles in SIM_CYCLES:
            for seed in SIM_SEEDS:
                rc, out, err = run.cli("simulate", enc, *flags, "--cycles", cycles, "--seed", seed)
                rec[f"simulate/{tag}/{cycles}/{seed}"] = [rc, sha(out), err]
        vcd = run.path(f"{name}.vcd")
        rc, out, err = run.cli("simulate", enc, *flags, "--cycles", VCD_CYCLES, "--vcd", vcd)
        rec[f"vcd/{tag}"] = [rc, sha(out), err, sha(run.read(f"{name}.vcd"))]

    csv = run.path(f"{name}.csv")
    for seed in SIM_SEEDS:
        rc, out, err = run.cli("eval-hd", orig_path, enc, "--keys", keys, *HD_ARGS, "--seed", seed, "--csv", csv)
        rec[f"eval-hd/{seed}"] = [rc, out, err, run.read(f"{name}.csv")]
    rc, out, err = run.cli("eval-hd", orig_path, enc, "--keys", keys, "--cycles", key_len)
    rec["eval-hd/no-workload"] = [rc, out, err]

    orig = load_bench(orig_path)
    sched = load_schedule(keys)
    pair = (load_bench(enc), sched)
    for cycles in RUN_CASE_CYCLES:
        horizon = key_len + 1 if cycles is None else cycles
        for case in (1, 2, 3):
            rep = run_case(orig, pair, case, n_vectors=10, cycles=horizon, seed=3)
            rec[f"run_case/{case}/{'short' if cycles is None else horizon}"] = rep.as_dict()

    windows = authentication_schedule(sched, REPLAY_CYCLES)
    rec["schedule"] = [[w.start, w.chain, w.t_func] for w in windows]
    mask = workload_cycle_mask(sched, REPLAY_CYCLES)
    rec["mask"] = list(mask)
    rng = random.Random(f"golden/{name}")
    workload = [rng.getrandbits(sched.n_inputs) for _ in range(len(mask))]
    stim = trusted_user_stimulus(sched, workload, REPLAY_CYCLES)
    rec["stimulus"] = [list(stim.vectors), list(stim.tags)]
    rec["window_starts"] = list(derive_window_starts(sched, 3))
    return rec


def record_toy_attack(run: Runner) -> dict:
    cfg, enc, keys = run.path("toy.json"), run.path("toy.bench"), run.path("toy.keys.json")
    Path(cfg).write_text(json.dumps(TOY_CONFIG))
    s27 = str(ROOT / "benchmarks" / "s27.bench")
    run.cli("encrypt", s27, "--config", cfg, "--out", enc, "--keys", keys)
    rc, out, err = run.cli("attack", enc, "--oracle", s27, "--keys-timing", keys, "--max-seq", 3)
    return {"attack": [rc, out, err]}


def record_all() -> dict:
    with tempfile.TemporaryDirectory() as d:
        run = Runner(Path(d))
        record = {name: record_lock(run, name) for name in lock_names()}
        record["toy-attack"] = record_toy_attack(run)
    return record


def main() -> None:
    record = record_all()
    OUT.parent.mkdir(parents=True, exist_ok=True)
    OUT.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(record)} groups to {OUT.relative_to(ROOT)}")


if __name__ == "__main__":
    main()
