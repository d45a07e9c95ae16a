"""The four benchmark workloads: set-up, one timed op, and its correctness check.

Every workload takes its inputs from the workload seed alone.  Seed 0 is the
default: it uses the library's own defaults (master seed ``DEFAULT_SEED``,
CLI ``--seed 0``), and its outputs are compared with the values recorded in
``expected.json``.  Any other seed derives fresh master seeds and CLI seeds.

Ops reach relock through module attributes looked up at call time, so the
wrappers that ``tracing.traced`` installs see every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path


class CheckFailed(Exception):
    """An op's output is wrong."""


def _mod(name: str):
    return sys.modules[f"relock.{name}"]


def master_seed(seed: int, k: int) -> int:
    """Master seed of lock instance ``k``; seed 0 gives DEFAULT_SEED + k."""
    return _mod("encrypt").DEFAULT_SEED + seed * 100_003 + k


def report_digest(reports) -> str:
    """Short digest of HdReports, exact over every field."""
    doc = json.dumps([r.as_dict() for r in reports], sort_keys=True)
    return hashlib.sha256(doc.encode()).hexdigest()[:16]


def _run_cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = _mod("cli").main(argv)
    return rc, buf.getvalue()


class Workload:
    """One workload.

    An untraced run stops only after a multiple of ``pass_len`` ops;
    ``trace_ops`` is the fixed instance count of a traced run.
    """

    name = ""
    min_ops = 1
    max_ops = 10_000
    pass_len = 1
    trace_ops = 1

    def __init__(self, root: Path, work: Path, seed: int, config: dict, expected: dict) -> None:
        self.root = root
        self.work = work
        self.seed = seed
        self.cfg = config
        self.expected = expected

    def bench_path(self, circuit: str) -> str:
        return str(self.root / "benchmarks" / f"{circuit}.bench")

    def lock_seed(self, k: int) -> int:
        """Master seed of the lock instance op ``k`` uses."""
        return master_seed(self.seed, k)

    def encrypt_config(self, k: int):
        fields = dict(self.cfg.get("encrypt", {}), master_seed=self.lock_seed(k))
        return _mod("encrypt").EncryptConfig(**fields)

    def setup(self) -> None:
        raise NotImplementedError

    def prepare(self, k: int) -> None:
        """Untimed per-op preparation."""

    def op(self, k: int):
        raise NotImplementedError

    def check(self, k: int, out) -> None:
        raise NotImplementedError

    def cleanup(self) -> None:
        """Remove the files set-up wrote."""


class _LockedFiles(Workload):
    """Set-up locks the circuit once and writes the netlist and key schedule."""

    def setup(self) -> None:
        bench, encrypt = _mod("bench"), _mod("encrypt")
        self.orig = bench.load_bench(self.bench_path(self.cfg["circuit"]))
        self.design = encrypt.encrypt(self.orig, self.encrypt_config(0))
        tag = f"{self.name}-{self.seed}-{os.getpid()}"
        self.enc_path = str(self.work / f"{tag}.bench")
        self.keys_path = str(self.work / f"{tag}.keys.json")
        bench.save_bench(self.design.netlist, self.enc_path)
        encrypt.save_schedule(self.design.schedule, self.keys_path)
        self.first_stdout = None

    def cleanup(self) -> None:
        for p in (getattr(self, "enc_path", None), getattr(self, "keys_path", None)):
            if p is not None and os.path.exists(p):
                os.remove(p)

    def same_as_first(self, stdout: str) -> bool:
        """True for the first op; later ops must print the same bytes."""
        if self.first_stdout is None:
            self.first_stdout = stdout
            return True
        return stdout == self.first_stdout


class HdEval(_LockedFiles):
    name = "hd-s9234"

    def op(self, k: int):
        # eval-hd prints HD to six places; keep the exact reports it computed
        cli = _mod("cli")
        run_case = cli.run_case
        reports = []

        def keep(*args, **kwargs):
            reports.append(run_case(*args, **kwargs))
            return reports[-1]

        c = self.cfg
        cli.run_case = keep
        try:
            rc, out = _run_cli([
                "eval-hd", self.bench_path(c["circuit"]), self.enc_path, "--keys", self.keys_path,
                "--cases", c["cases"], "--vectors", str(c["vectors"]), "--cycles", str(c["cycles"]),
                "--seed", str(self.seed),
            ])
        finally:
            cli.run_case = run_case
        return rc, out, tuple(reports)

    def check(self, k: int, out) -> None:
        rc, stdout, reports = out
        if rc != 0:
            raise CheckFailed(f"eval-hd exited {rc}")
        if [int(r.case) for r in reports] != [1, 2, 3] or reports[0].mean_hd != 0.0:
            raise CheckFailed(f"trusted mean HD is {reports[0].mean_hd if reports else None}, not 0")
        if not self.same_as_first(stdout):
            raise CheckFailed("eval-hd stdout differs between ops")
        if self.seed == 0 and stdout != self.expected["stdout"]:
            raise CheckFailed("eval-hd stdout differs from the recorded bytes")


class TraceSim(_LockedFiles):
    name = "trace-s38584"
    min_ops = 2
    trace_ops = 2

    def op(self, k: int):
        c = self.cfg
        return _run_cli([
            "simulate", self.enc_path, "--keys", self.keys_path, "--case", str(c["case"]),
            "--cycles", str(c["cycles"]), "--seed", str(self.seed),
        ])

    def check(self, k: int, out) -> None:
        rc, stdout = out
        if rc != 0:
            raise CheckFailed(f"simulate exited {rc}")
        first = self.first_stdout is None
        if not self.same_as_first(stdout):
            raise CheckFailed("simulate stdout differs between ops")
        if first:
            self._check_trusted_outputs(stdout)
        if self.seed == 0 and hashlib.sha256(stdout.encode()).hexdigest() != self.expected["sha256"]:
            raise CheckFailed("simulate stdout digest differs from the recorded one")

    def _check_trusted_outputs(self, stdout: str) -> None:
        # columns: cycle, input, output, state (hex); workload cycles must
        # reproduce the original design fed the same workload uninterrupted
        rows = [ln.split() for ln in stdout.splitlines() if not ln.startswith("#")]
        cycles = self.cfg["cycles"]
        if len(rows) != cycles:
            raise CheckFailed(f"simulate printed {len(rows)} cycles, expected {cycles}")
        sim = _mod("sim")
        mask = sim.workload_cycle_mask(self.design.schedule, cycles)
        gold = sim.simulate(self.orig, sim.workload_stimulus(int(rows[t][1], 16) for t in mask))
        for j, t in enumerate(mask):
            if int(rows[t][2], 16) != gold.outputs[j]:
                raise CheckFailed(f"trusted output at cycle {t} differs from the original design")


class LockSweep(Workload):
    name = "lock-sweep-s1238"
    min_ops = 20
    max_ops = 400  # every op at seed 0 has a recorded digest
    trace_ops = 40

    def setup(self) -> None:
        self.orig = _mod("bench").load_bench(self.bench_path(self.cfg["circuit"]))
        self.orig.compiled  # the original is compiled once; each op compiles its lock

    def op(self, k: int):
        c = self.cfg
        cfg = self.encrypt_config(k)
        design = _mod("encrypt").encrypt(self.orig, cfg)
        run_case = _mod("evaluate").run_case
        return tuple(
            run_case(self.orig, design, case, n_vectors=c["vectors"], cycles=c["cycles"], seed=cfg.master_seed)
            for case in c["cases"]
        )

    def check(self, k: int, reports) -> None:
        if reports[0].mean_hd != 0.0:
            raise CheckFailed(f"instance {k}: trusted mean HD is {reports[0].mean_hd}, not 0")
        if self.seed == 0 and report_digest(reports) != self.expected["digests"][k]:
            raise CheckFailed(f"instance {k}: reports differ from the recorded ones")


class AttackKeys(Workload):
    """Ops cycle through a pool of lock instances that every seed shares.

    Attack effort varies about 20% between lock instances, so runs drawing
    their own few instances would differ more than a regression bound.  A
    run makes whole passes over the pool, so op_s and peak RSS always weigh
    the same formulas equally; the seed sets the probe and verify vectors.
    """

    name = "attack-s298"

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.min_ops = self.pass_len = self.trace_ops = self.cfg["lock_instances"]

    def lock_seed(self, k: int) -> int:
        return master_seed(0, k % self.cfg["lock_instances"])

    def setup(self) -> None:
        self.orig = _mod("bench").load_bench(self.bench_path(self.cfg["circuit"]))
        self.orig.compiled  # the oracle's design is compiled once
        self.prepare(0)

    def prepare(self, k: int) -> None:
        # lock afresh before every op, pool entries included, so no op
        # reuses the netlist caches an earlier op filled
        design = _mod("encrypt").encrypt(self.orig, self.encrypt_config(k))
        sched = design.schedule
        self.starts = _mod("attack").derive_window_starts(sched, self.cfg["windows"])
        windows = _mod("sim").authentication_schedule(sched, self.starts[-1])
        self.truth = tuple(sched.key_table[w.chain] for w in windows[: self.cfg["windows"]])
        self.locked = design.netlist

    def op(self, k: int):
        attack = _mod("attack")
        return attack.recover_key_sequences(
            self.locked, attack.SequenceOracle(self.orig), self.starts,
            self.cfg["encrypt"]["key_len"], self.cfg["windows"], seed=self.seed,
        )

    def check(self, k: int, res) -> None:
        if res.status != "recovered" or not res.verified:
            raise CheckFailed(f"instance {k}: status {res.status}, verified {res.verified}")
        if res.keys != self.truth:
            raise CheckFailed(f"instance {k}: recovered keys differ from the schedule's")


WORKLOADS = {w.name: w for w in (HdEval, TraceSim, LockSweep, AttackKeys)}
