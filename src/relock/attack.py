"""Oracle-guided recovery of authentication key sequences.

The attacker holds the locked netlist and can run an unlocked chip from
reset, observing outputs for any input sequence.  Window timing is taken as
known input; per window, the search encodes two symbolic key candidates
driving the same probe inputs in the cycles after the window and asks a SAT
solver for a probe that makes their outputs differ.  Each such probe is
replayed on the unlocked chip and the observed outputs are added as
constraints, until no distinguishing probe remains; any surviving candidate
is then extracted and committed.  Earlier windows stay pinned to their
committed keys, so instances grow with the window index.

Output comparisons are rank aligned: the unlocked chip never sees the
window cycles, so its cycle ``j`` output is compared against the locked
design's output on the ``j``-th non-window cycle.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass

from .bench import Netlist
from .sat import UNKNOWN, UNSAT, solve
from .sim import key_plan, plan_stimulus, simulate, workload_stimulus
from .unroll import CnfBuilder

STATUS_RECOVERED = "recovered"
STATUS_NO_KEY = "no-consistent-key"
STATUS_BUDGET = "budget-exhausted"
STATUS_VERIFY_FAILED = "verify-failed"

DEFAULT_CONFLICT_BUDGET = 2_000_000


class SequenceOracle:
    """Black-box input/output access to the unlocked design.

    Every query restarts from reset; no internal state is exposed.  The
    query counter feeds the attack's effort report.
    """

    def __init__(self, nl: Netlist) -> None:
        self._nl = nl
        self.queries = 0

    @property
    def n_inputs(self) -> int:
        return len(self._nl.inputs)

    @property
    def n_outputs(self) -> int:
        return len(self._nl.outputs)

    def query(self, vectors) -> tuple[int, ...]:
        """Apply packed input words from reset; return packed output words."""
        limit = 1 << self.n_inputs
        for v in vectors:
            if not 0 <= v < limit:
                raise ValueError(f"input vector {v:#x} does not fit {self.n_inputs} inputs")
        self.queries += 1
        if not vectors:
            return ()
        return simulate(self._nl, workload_stimulus(vectors)).outputs


def _comb_core(nl: Netlist) -> Netlist:
    """One-cycle view of ``nl``: state bits become primary inputs."""
    qs = tuple(q for q, _ in nl.dffs)
    outs = list(nl.outputs)
    have = set(outs)
    for _, d in nl.dffs:
        if d not in have:
            have.add(d)
            outs.append(d)
    return Netlist(
        name=f"{nl.name}_core",
        inputs=nl.inputs + qs,
        outputs=tuple(outs),
        gates=nl.gates,
        dffs=(),
    )


class _SymbolicRun:
    """Thread one copy of a sequential netlist through consecutive cycles,
    starting from ``state`` (flip-flop output -> value).

    Net values are CnfBuilder values: bools fold, literals build clauses.
    """

    def __init__(self, b: CnfBuilder, nl: Netlist, core: Netlist, state: dict):
        self.b = b
        self.nl = nl
        self.core = core
        self.state = state

    def step(self, in_vals: dict) -> dict:
        pins = dict(in_vals)
        pins.update(self.state)
        val = self.b.encode_netlist(self.core, pins)
        self.state = {q: val[d] for q, d in self.nl.dffs}
        return {y: val[y] for y in self.nl.outputs}


def _state_after(nl: Netlist, vectors) -> dict:
    """Flip-flop values after running ``vectors`` from reset, as bools."""
    cc, n_in = nl.compiled, len(nl.inputs)
    state = (0,) * len(nl.dffs)
    for word in vectors:
        _outs, state = cc.eval([(word >> i) & 1 for i in range(n_in)], state)
    return {q: bool(v) for (q, _d), v in zip(nl.dffs, state)}


def _const_pins(nl: Netlist, word: int) -> dict:
    return {x: bool((word >> i) & 1) for i, x in enumerate(nl.inputs)}


def _var_pins(nl: Netlist, lits: list[int]) -> dict:
    return {x: lits[i] for i, x in enumerate(nl.inputs)}


def _model_word(model: dict, lits: list[int]) -> int:
    word = 0
    for i, v in enumerate(lits):
        if model[v]:
            word |= 1 << i
    return word


@dataclass(frozen=True)
class WindowRecovery:
    """Outcome and effort for one authentication window."""

    index: int
    start: int
    gap: int
    frames: int
    status: str
    key: tuple[int, ...] | None
    iterations: int
    solver_calls: int
    conflicts: int
    decisions: int
    propagations: int
    oracle_queries: int
    wall_time: float


@dataclass(frozen=True)
class AttackResult:
    circuit: str
    key_len: int
    windows: tuple[WindowRecovery, ...]
    keys: tuple[tuple[int, ...], ...]
    status: str
    verified: bool
    verify_comparisons: int
    oracle_queries: int
    wall_time: float

    def report(self) -> str:
        """Structured per-window effort report (wall time omitted so the
        text is identical across runs with equal seeds)."""
        lines = [
            f"attack report: {self.circuit}",
            f"status: {self.status}",
            f"windows recovered: {len(self.keys)}/{len(self.windows) or 0}",
            f"oracle queries: {self.oracle_queries}",
            f"verified: {'yes' if self.verified else 'no'} ({self.verify_comparisons} comparisons)",
        ]
        for w in self.windows:
            key = "-" if w.key is None else ",".join(f"{p:#x}" for p in w.key)
            lines.append(
                f"  q={w.index} start={w.start} gap={w.gap} frames={w.frames} "
                f"status={w.status} iterations={w.iterations} calls={w.solver_calls} "
                f"conflicts={w.conflicts} decisions={w.decisions} key={key}"
            )
        return "\n".join(lines) + "\n"


def recover_key_sequences(
    enc: Netlist,
    oracle: SequenceOracle,
    known_timing,
    key_len: int,
    max_seq: int,
    *,
    conflict_budget: int = DEFAULT_CONFLICT_BUDGET,
    seed: int = 0,
    verify_vectors: int = 1000,
) -> AttackResult:
    """Recover the first ``max_seq`` window key sequences of a locked design.

    Parameters
    ----------
    enc : Netlist
        The locked netlist.  Its primary inputs/outputs must match the
        oracle's dimensions.
    oracle : SequenceOracle
        Reset-per-query access to the unlocked design.
    known_timing : sequence of int
        Start cycles of the authentication windows, strictly increasing,
        at least ``max_seq + 1`` entries.  Entry ``max_seq`` bounds the
        last probed gap.
    key_len : int
        Patterns per window.
    max_seq : int
        Number of windows to recover, in order.

    Returns an :class:`AttackResult`; recovery stops at the first window
    whose status is not ``recovered``.
    """
    t_start = time.perf_counter()
    if key_len < 1:
        raise ValueError("key_len must be >= 1")
    if max_seq < 1:
        raise ValueError("max_seq must be >= 1")
    if len(enc.inputs) != oracle.n_inputs or len(enc.outputs) != oracle.n_outputs:
        raise ValueError(
            f"oracle width mismatch: locked design has {len(enc.inputs)} inputs / "
            f"{len(enc.outputs)} outputs, oracle has {oracle.n_inputs} / {oracle.n_outputs}"
        )
    starts = [int(s) for s in known_timing]
    if len(starts) < max_seq + 1:
        raise ValueError(f"known_timing needs at least {max_seq + 1} entries, got {len(starts)}")
    starts = starts[: max_seq + 1]
    if starts[0] < 0:
        raise ValueError("window start cycles must be nonnegative")
    for a, b in zip(starts, starts[1:]):
        if b < a + key_len:
            raise ValueError("window start cycles overlap or are out of order")

    n_in = len(enc.inputs)
    core = _comb_core(enc)
    rng = random.Random(f"{seed}/attack/probes")
    # one probe per non-window cycle before the last probed gap ends
    probes = [rng.getrandbits(n_in) for _ in range(starts[max_seq] - max_seq * key_len)]

    windows: list[WindowRecovery] = []
    keys: list[tuple[int, ...]] = []
    status = STATUS_RECOVERED

    for q in range(max_seq):
        w_t0 = time.perf_counter()
        start = starts[q]
        gap = starts[q + 1] - start - key_len
        frames = starts[q + 1]
        conflicts = decisions = propagations = 0
        queries_before = oracle.queries

        b = CnfBuilder()
        k_a = [[b.new_var() for _ in range(n_in)] for _ in range(key_len)]
        k_b = [[b.new_var() for _ in range(n_in)] for _ in range(key_len)]
        x_vars = [[b.new_var() for _ in range(n_in)] for _ in range(gap)]

        # committed keys in their windows, probes on every other cycle
        committed = plan_stimulus(key_plan(zip(starts, keys), start), probes, n_in)
        prefix_probe = probes[: committed.n_workload]

        # the committed prefix is concrete: one state, shared by all copies
        base_state = _state_after(enc, committed.vectors)

        def run_copy(key_vals, gap_vals, pin_outputs=None):
            # one locked-design copy over window + gap cycles; when
            # pin_outputs is given, gap outputs are constrained to it
            run = _SymbolicRun(b, enc, core, base_state)
            for u in range(key_len):
                run.step(key_vals[u])
            out_rows = []
            for j, vals in enumerate(gap_vals):
                outs = run.step(vals)
                if pin_outputs is None:
                    out_rows.append(outs)
                else:
                    word = pin_outputs[j]
                    for i, y in enumerate(enc.outputs):
                        b.pin(outs[y], (word >> i) & 1)
            return out_rows

        key_pins_a = [_var_pins(enc, row) for row in k_a]
        key_pins_b = [_var_pins(enc, row) for row in k_b]
        probe_pins = [_var_pins(enc, row) for row in x_vars]
        outs_a = run_copy(key_pins_a, probe_pins)
        outs_b = run_copy(key_pins_b, probe_pins)

        diffs = []
        for ra, rb in zip(outs_a, outs_b):
            for y in enc.outputs:
                d = b.xor_value(ra[y], rb[y])
                if d is True:
                    # both copies share all non-key inputs, so a constant
                    # difference would mean the copies are not copies
                    raise AssertionError("output differs for every key pair")
                if d is not False:
                    diffs.append(d)
        if diffs:
            b.add_clause(diffs)

        iterations = 0
        solver_calls = 0
        win_status = STATUS_RECOVERED
        learned: list[tuple[tuple[int, ...], tuple[int, ...]]] = []

        if diffs:
            while True:
                if b.contradiction:
                    break
                res = solve(b.clauses, n_vars=b.n_vars, conflict_budget=conflict_budget)
                solver_calls += 1
                conflicts += res.conflicts
                decisions += res.decisions
                propagations += res.propagations
                if res.status == UNKNOWN:
                    win_status = STATUS_BUDGET
                    break
                if res.status == UNSAT:
                    break
                probe_words = tuple(_model_word(res.model, row) for row in x_vars)
                answer = oracle.query(tuple(prefix_probe) + probe_words)
                oracle_out = tuple(answer[len(prefix_probe):])
                learned.append((probe_words, oracle_out))
                iterations += 1
                probe_consts = [_const_pins(enc, w) for w in probe_words]
                run_copy(key_pins_a, probe_consts, pin_outputs=oracle_out)
                run_copy(key_pins_b, probe_consts, pin_outputs=oracle_out)

        key = None
        if win_status == STATUS_RECOVERED:
            e = CnfBuilder()
            k_e = [[e.new_var() for _ in range(n_in)] for _ in range(key_len)]
            key_pins_e = [_var_pins(enc, row) for row in k_e]
            for probe_words, oracle_out in learned:
                run = _SymbolicRun(e, enc, core, base_state)
                for u in range(key_len):
                    run.step(key_pins_e[u])
                for j, w in enumerate(probe_words):
                    outs = run.step(_const_pins(enc, w))
                    for i, y in enumerate(enc.outputs):
                        e.pin(outs[y], (oracle_out[j] >> i) & 1)
            if e.contradiction:
                win_status = STATUS_NO_KEY
            else:
                res = solve(e.clauses, n_vars=e.n_vars, conflict_budget=conflict_budget)
                solver_calls += 1
                conflicts += res.conflicts
                decisions += res.decisions
                propagations += res.propagations
                if res.status == UNKNOWN:
                    win_status = STATUS_BUDGET
                elif res.status == UNSAT:
                    win_status = STATUS_NO_KEY
                else:
                    key = tuple(_model_word(res.model, row) for row in k_e)

        windows.append(
            WindowRecovery(
                index=q,
                start=start,
                gap=gap,
                frames=frames,
                status=win_status,
                key=key,
                iterations=iterations,
                solver_calls=solver_calls,
                conflicts=conflicts,
                decisions=decisions,
                propagations=propagations,
                oracle_queries=oracle.queries - queries_before,
                wall_time=time.perf_counter() - w_t0,
            )
        )
        if win_status != STATUS_RECOVERED:
            status = win_status
            break
        keys.append(key)

    verified = False
    comparisons = 0
    if keys:
        verified, comparisons = _replay_verify(enc, oracle, starts, keys, seed, verify_vectors)
        if status == STATUS_RECOVERED and not verified:
            status = STATUS_VERIFY_FAILED

    return AttackResult(
        circuit=enc.name,
        key_len=key_len,
        windows=tuple(windows),
        keys=tuple(keys),
        status=status,
        verified=verified,
        verify_comparisons=comparisons,
        oracle_queries=oracle.queries,
        wall_time=time.perf_counter() - t_start,
    )


def _replay_verify(enc, oracle, starts, keys, seed, verify_vectors):
    """Replay committed keys against fresh probes until enough comparisons.

    Each pass draws a fresh workload, runs the locked design with the
    committed keys in their windows, and checks every workload-cycle output
    against the unlocked design rank for rank.
    """
    plan = key_plan(zip(starts, keys), starts[len(keys)])
    free = [t for t, key in enumerate(plan) if key is None]
    if not free:
        return True, 0
    n_in = len(enc.inputs)
    rng = random.Random(f"{seed}/attack/verify")
    passes = max(1, math.ceil(verify_vectors / len(free)))
    comparisons = 0
    ok = True
    for _ in range(passes):
        workload = [rng.getrandbits(n_in) for _ in free]
        answer = oracle.query(workload)
        trace = simulate(enc, plan_stimulus(plan, workload, n_in))
        for rank, t in enumerate(free):
            comparisons += 1
            if trace.outputs[t] != answer[rank]:
                ok = False
    return ok, comparisons


def derive_window_starts(sched, max_seq: int) -> tuple[int, ...]:
    """First ``max_seq + 1`` window start cycles from a key schedule."""
    from .sim import authentication_schedule

    horizon = (sched.key_len + (1 << (sched.lfsr_width - 1))) * (max_seq + 2)
    while True:
        windows = authentication_schedule(sched, horizon)
        if len(windows) >= max_seq + 1:
            return tuple(w.start for w in windows[: max_seq + 1])
        horizon *= 2
