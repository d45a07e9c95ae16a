"""Output-corruption and cost analyses for encrypted designs.

``run_case`` measures output Hamming distance between an encrypted design and
the original under three access levels:

* TRUSTED: the key manager authenticates on schedule and the workload runs in
  functional mode only.  The distance is exactly zero by construction.
* UNKEYED: no key is ever applied; the workload streams from reset and the
  design stays encrypted.
* SINGLE_AUTH: only the first chain is applied, then pure workload.  The
  first functional stretch is clean, after which the design back-jumps and
  never recovers, so the distance lands strictly below UNKEYED.

Comparison is index for index against the uninterrupted original: cycle
``t`` of the encrypted run carries workload vector ``j`` whenever ``t`` is
the ``j``-th non-authentication cycle, and is compared to cycle ``j`` of the
original.  All workloads run lane parallel (one bit per workload in a big
int), so a hundred independent runs cost one pass.

The closed-form cost helpers are exact: ``brute_force_effort`` returns a big
int and ``cycle_delay_overhead`` a Fraction.
"""

from __future__ import annotations

import random
from copy import deepcopy
from typing import NamedTuple

from .bench import Netlist
from .encrypt import EncryptedDesign, _site_count
from .sim import Case, case_plan, run_from_reset, workload_cycle_mask

# perfbench/tracing.py wraps this module attribute by name
from .sim import authentication_schedule  # noqa: F401


class HdReport(NamedTuple):
    circuit: str
    case: Case
    n_vectors: int
    cycles: int
    mask_size: int
    mean_hd: float
    per_run: tuple[float, ...]
    seed: int
    coverage: float
    config: dict

    def as_dict(self) -> dict:
        return {
            **self._asdict(),
            "case": int(self.case),
            "per_run": list(self.per_run),
            "config": deepcopy(self.config),  # so the report cannot be changed through it
        }


def run_case(
    orig: Netlist,
    enc: EncryptedDesign,
    case: Case | int,
    n_vectors: int = 100,
    cycles: int = 500,
    seed: int = 0,
) -> HdReport:
    """Mean output Hamming distance for one access level.

    Draws ``n_vectors`` independent random workloads, runs them lane parallel
    through both the encrypted and the original design, and averages the
    per-workload Hamming distance over the workload-cycle mask.  ``enc`` is
    an EncryptedDesign or a plain ``(netlist, schedule)`` pair, e.g. when
    both were loaded from files; either way the reported coverage is the
    share of ``orig``'s gates that the schedule's config corrupts.
    """
    case = Case(case)
    enc_nl, sched = enc[:2]
    if not orig.gates:
        raise ValueError(f"netlist '{orig.name}' has no gates to corrupt")
    if orig.name != sched.circuit:
        raise ValueError(f"schedule is for '{sched.circuit}', netlist is '{orig.name}'")
    if tuple(orig.inputs) != tuple(enc_nl.inputs):
        raise ValueError("original and encrypted netlists disagree on inputs")
    if tuple(orig.outputs) != tuple(enc_nl.outputs):
        raise ValueError("original and encrypted netlists disagree on outputs")
    if n_vectors < 1:
        raise ValueError("n_vectors must be >= 1")
    n_in = len(orig.inputs)
    mask = workload_cycle_mask(sched, cycles)
    if not mask:
        raise ValueError(f"no workload cycles in a {cycles}-cycle horizon")
    n_workload = len(mask)

    rng = random.Random(f"{seed}/hd/{int(case)}")
    # wl[j][b]: lane word for workload vector j, input bit b
    wl = [[rng.getrandbits(n_vectors) for _b in range(n_in)] for _j in range(cycles)]

    # the device takes the workload in order on its plan's free cycles and
    # the golden run takes exactly that history, so the distance isolates
    # corruption from stream misalignment: trusted workload cycle t is
    # compared with golden cycle rank[t], its rank among the free cycles
    plan = case_plan(sched, case, cycles)
    free = [t for t, key in enumerate(plan) if key is None]
    rank = {t: j for j, t in enumerate(free)}
    gold_out = [outs for outs, _ in run_from_reset(orig, (None,) * len(free), wl, n_vectors)]

    # the encrypted run is streamed: each cycle's output differences are
    # tallied as the cycle comes out, all lanes at once
    scored = set(mask)
    enc_out = enumerate(run_from_reset(enc_nl, plan, wl, n_vectors))
    diffs = (e ^ g for t, (eo, _) in enc_out if t in scored for e, g in zip(eo, gold_out[rank[t]]))
    counts = _lane_counts(diffs, n_vectors)

    width = len(orig.outputs)
    denom = width * n_workload
    per_run = tuple(cnt / denom for cnt in counts)
    mean_hd = sum(counts) / (n_vectors * denom)
    return HdReport(
        circuit=orig.name,
        case=case,
        n_vectors=n_vectors,
        cycles=cycles,
        mask_size=n_workload,
        mean_hd=mean_hd,
        per_run=per_run,
        seed=seed,
        coverage=_site_count(sched.config.coverage, len(orig.gates)) / len(orig.gates),
        config=sched.config.to_dict(),
    )


def _lane_counts(words, n_lanes: int) -> list[int]:
    """How many of ``words`` have bit k set, for each lane k < ``n_lanes``.

    Bit k of ``planes[i]`` is bit i of lane k's count, so each word is added
    to every lane at once, carrying into higher planes.
    """
    planes: list[int] = []
    for d in words:
        i = 0
        while d:
            if i == len(planes):
                planes.append(0)
            planes[i], d = planes[i] ^ d, planes[i] & d
            i += 1
    return [sum(((p >> k) & 1) << i for i, p in enumerate(planes)) for k in range(n_lanes)]


def write_hd_csv(reports, fh) -> None:
    """Flat CSV for sweep plots: one row per (circuit, coverage, case) report."""
    import csv  # here, not at the top: most callers never write a CSV

    w = csv.writer(fh)
    w.writerow(["circuit", "coverage", "case", "n_vectors", "cycles", "mask_size", "mean_hd"])
    for r in reports:
        w.writerow([r.circuit, f"{r.coverage:.4f}", int(r.case), r.n_vectors, r.cycles, r.mask_size, f"{r.mean_hd:.6f}"])


def brute_force_effort(n_inputs: int, key_len: int, lfsr_width: int) -> int:
    """Expected patterns an attacker must try to hit one full chain blind.

    The chain is ``key_len`` patterns of ``n_inputs`` bits, and the chain
    index depends on the PRNG state, one of ``2**lfsr_width`` possibilities:
    ``2**lfsr_width * 2**(n_inputs * key_len - 1)`` tries on average.  Exact
    big-int arithmetic; this overflows any float for realistic sizes.
    """
    if n_inputs < 1:
        raise ValueError("n_inputs must be >= 1")
    if key_len < 1:
        raise ValueError("key_len must be >= 1")
    if lfsr_width < 0:
        raise ValueError("lfsr_width must be >= 0")
    return 1 << (lfsr_width + n_inputs * key_len - 1)


def cycle_delay_overhead(auth_cycles: int, lfsr_width: int) -> Fraction:
    """Re-authentication time cost relative to functional time.

    One authentication costs ``auth_cycles``.  This is the idealised model:
    it assumes a uniformly distributed n-bit PRNG state (n = ``lfsr_width``),
    under which the mean functional stretch ``max(state, 1)`` over the
    2**n - 1 reachable states is 2**(n-1) - 1 + 1/(2**n - 1); the model
    rounds that to ``2**(n-1)`` and returns ``auth_cycles / 2**(n-1)`` as a
    Fraction.  The replayed
    schedule of a fixed tap set and seed can differ: at width 11 with
    8-cycle windows the model gives 0.781% and the default lock's replay
    0.987%.
    """
    if auth_cycles < 0:
        raise ValueError("auth_cycles must be >= 0")
    if lfsr_width < 1:
        raise ValueError("lfsr_width must be >= 1")
    from fractions import Fraction  # here: it imports decimal, which few callers need

    return Fraction(auth_cycles, 1 << (lfsr_width - 1))


def cycle_delay_sweep(auth_cycles=(8, 16, 64, 128), widths=range(5, 16)):
    """Overhead table over authentication costs and PRNG widths."""
    return [
        (t_a, n, cycle_delay_overhead(t_a, n))
        for t_a in auth_cycles
        for n in widths
    ]


class OverheadReport(NamedTuple):
    circuit: str
    orig_gates: int
    enc_gates: int
    orig_dffs: int
    enc_dffs: int
    n_sites: int
    requested_coverage: float
    achieved_coverage: float

    @property
    def gate_overhead(self) -> float:
        return (self.enc_gates - self.orig_gates) / self.orig_gates

    @property
    def dff_overhead(self) -> float:
        return (self.enc_dffs - self.orig_dffs) / self.orig_dffs if self.orig_dffs else float("inf")

    def as_dict(self) -> dict:
        return {
            "circuit": self.circuit,
            "orig_gates": self.orig_gates,
            "enc_gates": self.enc_gates,
            "gate_overhead": self.gate_overhead,
            "orig_dffs": self.orig_dffs,
            "enc_dffs": self.enc_dffs,
            "dff_overhead": self.dff_overhead if self.orig_dffs else None,
            "n_sites": self.n_sites,
            "requested_coverage": self.requested_coverage,
            "achieved_coverage": self.achieved_coverage,
        }


def overhead_report(orig: Netlist, enc: EncryptedDesign) -> OverheadReport:
    """Structural cost of encryption: gate and flip-flop growth."""
    return OverheadReport(
        circuit=orig.name,
        orig_gates=len(orig.gates),
        enc_gates=len(enc.netlist.gates),
        orig_dffs=len(orig.dffs),
        enc_dffs=len(enc.netlist.dffs),
        n_sites=len(enc.report.sites),
        requested_coverage=enc.report.requested_coverage,
        achieved_coverage=enc.report.achieved_coverage,
    )
