"""Oracle-guided recovery of authentication key sequences.

The attacker holds the locked netlist and can run an unlocked chip from
reset, observing outputs for any input sequence.  Window timing is taken as
known input.  Per window, the attack collects distinguishing probes (DIPs):
inputs for the cycles after the window on which two candidate keys give
different outputs.  Each probe is replayed on the unlocked chip, and the
observed outputs constrain the keys that survive.

A wrong key corrupts the outputs, so the window's first DIP usually comes
from simulation: one lane-parallel run from reset plays random key pairs on
random probes, and a probe on which its pair's outputs differ is
distinguishing.  After that, each step asks a SAT solver for a key that
fits every learned probe, then, with that key blocked on the same solver,
for a second one.  When no second key survives, no DIP can exist and the
window ends with the one key: the unique-completion check of El Massad,
Garg & Tripunitara (ICCAD 2017).  Only when two keys survive is a miter
encoded, two symbolic key copies driving the same probe inputs with some
output differing, and a fresh solver takes the next DIP from it.  If it
has none, the surviving keys agree on every probe and the window ends with
the first.  Earlier windows stay pinned to their committed keys, so
instances grow with the window index.

Output comparisons are rank aligned: the unlocked chip never sees the
window cycles, so its cycle ``j`` output is compared against the locked
design's output on the ``j``-th non-window cycle.
"""

from __future__ import annotations

import math
import random
import time
from itertools import islice
from typing import NamedTuple

from .bench import Netlist
from .sat import SAT, UNKNOWN, Solver
from .sim import key_plan, plan_stimulus, replay_windows, run_from_reset, simulate
from .unroll import CnfBuilder

STATUS_RECOVERED = "recovered"
STATUS_NO_KEY = "no-consistent-key"
STATUS_BUDGET = "budget-exhausted"
STATUS_VERIFY_FAILED = "verify-failed"

DEFAULT_CONFLICT_BUDGET = 2_000_000

# key pairs tried at once when looking for a window's first DIP by simulation
_DIP_LANES = 64
# locked-versus-unlocked output comparisons the replay check makes at least
_VERIFY_COMPARISONS = 1000


class SequenceOracle:
    """Black-box input/output access to the unlocked design.

    Every query restarts from reset; no internal state is exposed.  The
    query counter feeds the attack's effort report.  ``query_lanes``
    answers a batch of workloads in one lane-parallel run and counts one
    query per workload.
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
        """Apply packed input words from reset; return packed output words.

        A query that ``simulate`` rejects is not counted.
        """
        outputs = simulate(self._nl, vectors).outputs
        self.queries += 1
        return outputs

    def query_lanes(self, workloads) -> list[tuple[int, ...]]:
        """Apply equal-length workloads from reset, workload ``p`` on lane ``p``.

        Returns one tuple of output lane words per cycle: bit ``p`` of word
        ``i`` is output ``i`` under workload ``p``, which is what ``query``
        gives for that workload.  Counts one query per workload.  A batch
        holding a vector that ``query`` would reject, or workloads of
        different lengths, raises and counts nothing.
        """
        n_in = self.n_inputs
        if len({len(w) for w in workloads}) > 1:
            raise ValueError("workloads differ in length")
        for p, workload in enumerate(workloads):
            for t, word in enumerate(workload):
                if not 0 <= word < (1 << n_in):
                    raise ValueError(f"workload {p}, cycle {t}: input vector {word:#x} does not fit {n_in} inputs")
        if not workloads:
            return []
        rows = [_transpose(column, n_in) for column in zip(*workloads)]
        outputs = [outs for outs, _state in run_from_reset(self._nl, (None,) * len(rows), rows, len(workloads))]
        self.queries += len(workloads)
        return outputs


def _lane_dip(nl: Netlist, prefix, key_len: int, gap: int, rng: random.Random):
    """Look for a window's first DIP in one lane-parallel run from reset.

    Every lane plays ``prefix``, then random key rows (copy A on lanes
    ``[0, L)``, copy B on lanes ``[L, 2L)``), then random gap probes that
    lanes ``i`` and ``L + i`` share, with ``L`` = ``_DIP_LANES``.

    Returns the flip-flop values after ``prefix`` as bools in declaration
    order (every lane has the same), and ``(key_a, key_b, probe)`` of the
    lowest lane ``i`` whose gap outputs differ from lane ``L + i``, or None
    if no lane pair differs.
    """
    n_in, lanes = len(nl.inputs), _DIP_LANES
    keys = [[rng.getrandbits(2 * lanes) for _ in range(n_in)] for _ in range(key_len)]
    probes = [[rng.getrandbits(lanes) for _ in range(n_in)] for _ in range(gap)]
    rows = [*keys, *([p | p << lanes for p in row] for row in probes)]
    run = list(run_from_reset(nl, (*prefix, *(None,) * len(rows)), rows, 2 * lanes))
    state = [bool(v & 1) for v in run[len(prefix)][1]]
    differ = 0
    for outs, _state in run[len(prefix) + key_len :]:
        for v in outs:
            differ |= v ^ (v >> lanes)
    differ &= (1 << lanes) - 1
    if not differ:
        return state, None
    lane = (differ & -differ).bit_length() - 1

    def pick(rows, k):
        return tuple(sum(((w >> k) & 1) << b for b, w in enumerate(row)) for row in rows)

    return state, (pick(keys, lane), pick(keys, lanes + lane), pick(probes, lane))


def _transpose(words, width: int) -> list[int]:
    """Bit ``p`` of entry ``b`` is bit ``b`` of ``words[p]``, for ``b < width``:
    one packed word per lane becomes one lane word per bit, and back."""
    return [sum(((w >> b) & 1) << p for p, w in enumerate(words)) for b in range(width)]


def _encode_copy(b: CnfBuilder, nl: Netlist, state, key_rows, gap_rows, oracle_out=None):
    """Encode one copy of ``nl`` from flip-flop values ``state`` over a
    window's key cycles, driven by ``key_rows``, and the gap after it, driven
    by ``gap_rows``, one frame per cycle.

    Returns the copy's gap outputs, one list of output values per cycle.
    With ``oracle_out``, each gap cycle's outputs are also pinned to its
    packed word as the cycle is encoded.
    """
    outs = []
    for t, frame in enumerate(islice(b.encode_frames(nl, state, (*key_rows, *gap_rows)), len(key_rows), None)):
        outs.append(frame)
        if oracle_out is not None:
            for i, v in enumerate(frame):
                b.pin(v, (oracle_out[t] >> i) & 1)
    return outs


def _model_word(model: dict, lits: list[int]) -> int:
    return sum(1 << i for i, v in enumerate(lits) if model[v])


def _solver(cnf: CnfBuilder) -> Solver | None:
    """A solver over the builder's clauses; None if it holds the empty clause."""
    return None if cnf.contradiction else Solver(cnf.n_vars, cnf.clauses)


class WindowRecovery(NamedTuple):
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


class AttackResult(NamedTuple):
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


class _Window:
    """One window's DIP search from the state the committed prefix reaches,
    and the effort its solver calls took.

    ``e`` holds one key copy, ``k_e``, pinned to the oracle's answer on every
    learned probe.  Each step after the lane probe hands ``e`` to one
    ``Solver`` and solves it for a key K, then adds the clause blocking K to
    that solver and solves again; when no second key survives, the window
    ends with K.  Only when one does is the miter needed: two key copies, ``k_a``
    and ``k_b``, sharing the gap's probe variables, with some gap output
    differing.  It is built on first need and the learned probes are
    replayed into it in order, so its clauses equal those of a miter built
    up front and extended by every probe.  Each miter solve takes a fresh
    ``Solver``, so the DIPs do not depend on earlier miter searches.  When
    it has no DIP either, the window ends with K too.  The effort counters
    add up each call's share of its solver's running totals.
    """

    def __init__(self, enc: Netlist, prefix, key_len: int, gap: int, rng, conflict_budget: int) -> None:
        self.enc, self.gap, self.budget = enc, gap, conflict_budget
        self.e = CnfBuilder()
        self.k_e = [[self.e.new_var() for _ in enc.inputs] for _ in range(key_len)]
        # the committed prefix is concrete: one state, shared by all copies
        self.state, lane_dip = _lane_dip(enc, prefix, key_len, gap, rng)
        # a probe that tells two simulated keys apart is a DIP as good as
        # one the solver finds, so the solver starts with a constraint
        self._lane_probe = None if lane_dip is None else lane_dip[2]
        self.learned: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
        self.miter: CnfBuilder | None = None
        self._in_miter = 0  # learned probes replayed into the miter
        self._key = None
        self.status = STATUS_RECOVERED
        self.calls = self.conflicts = self.decisions = self.propagations = 0

    def next_dip(self) -> tuple[int, ...] | None:
        """The next probe on which two keys that fit every learned probe
        differ, or None."""
        probe, self._lane_probe = self._lane_probe, None
        if probe is not None:
            return probe
        solver = _solver(self.e)
        self._key = key = self._solve(solver, self.k_e)
        if key is None:
            if self.status == STATUS_RECOVERED:
                self.status = STATUS_NO_KEY
            return None
        # with K the only key left, no probe can tell two surviving keys apart
        solver.add_clause([-v if word >> i & 1 else v for row, word in zip(self.k_e, key) for i, v in enumerate(row)])
        if self._solve(solver, ()) is None:
            return None
        return self._solve(_solver(self._miter()), self.x_vars)

    def learn(self, probe, answer) -> None:
        """Pin ``e``'s key copy to the oracle's gap outputs ``answer`` on
        ``probe``; the miter replays it when next needed."""
        self.learned.append((probe, answer))
        _encode_copy(self.e, self.enc, self.state, self.k_e, probe, answer)

    def key(self) -> tuple[int, ...] | None:
        """The key the last step found, or None with ``status`` set."""
        return self._key if self.status == STATUS_RECOVERED else None

    def _miter(self) -> CnfBuilder:
        """The miter, built on first need, with every learned probe in it."""
        if self.miter is None:
            self._new_miter()
        for probe, answer in self.learned[self._in_miter :]:
            for keys in (self.k_a, self.k_b):
                _encode_copy(self.miter, self.enc, self.state, keys, probe, answer)
        self._in_miter = len(self.learned)
        return self.miter

    def _new_miter(self) -> None:
        n_in, key_len = len(self.enc.inputs), len(self.k_e)
        self.miter = b = CnfBuilder()
        self.k_a = [[b.new_var() for _ in range(n_in)] for _ in range(key_len)]
        self.k_b = [[b.new_var() for _ in range(n_in)] for _ in range(key_len)]
        self.x_vars = [[b.new_var() for _ in range(n_in)] for _ in range(self.gap)]
        outs_a = _encode_copy(b, self.enc, self.state, self.k_a, self.x_vars)
        outs_b = _encode_copy(b, self.enc, self.state, self.k_b, self.x_vars)
        diffs = []
        for ra, rb in zip(outs_a, outs_b):
            for va, vb in zip(ra, rb):
                d = b.xor_value(va, vb)
                if d is True:
                    # both copies share all non-key inputs, so a constant
                    # difference would mean the copies are not copies
                    raise AssertionError("output differs for every key pair")
                if d is not False:
                    diffs.append(d)
        # if no output can differ, the empty clause sets the contradiction flag
        b.add_clause(diffs)

    def _solve(self, solver: Solver | None, rows) -> tuple[int, ...] | None:
        """Solve once more; the model's word for each row of ``rows``.  None
        if there is no solver (its builder holds the empty clause), if the
        formula is unsatisfiable, or if the budget runs out, which sets
        ``status``."""
        if solver is None:
            return None
        before = solver.conflicts, solver.decisions, solver.propagations
        res = solver.solve(self.budget)
        self.calls += 1
        self.conflicts += res.conflicts - before[0]
        self.decisions += res.decisions - before[1]
        self.propagations += res.propagations - before[2]
        if res.status == UNKNOWN:
            self.status = STATUS_BUDGET
        if res.status != SAT:
            return None
        return tuple(_model_word(res.model, row) for row in rows)


def recover_key_sequences(
    enc: Netlist,
    oracle: SequenceOracle,
    known_timing,
    key_len: int,
    max_seq: int,
    *,
    conflict_budget: int = DEFAULT_CONFLICT_BUDGET,
    seed: int = 0,
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
        Start cycles of the authentication windows, each more than
        ``key_len`` after the last, at least ``max_seq + 1`` entries.
        Entry ``max_seq`` bounds the last probed gap.
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
    if conflict_budget < 0:
        raise ValueError(f"conflict budget must be >= 0, got {conflict_budget}")
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
        if b < a:
            raise ValueError(f"window starts {a} and {b} are out of order")
        if b < a + key_len:
            raise ValueError(f"window at {b} overlaps the {key_len}-cycle window at {a}")
        if b == a + key_len:
            raise ValueError(f"windows at {a} and {b} leave no cycle between them to probe")

    n_in = len(enc.inputs)
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
        queries_before = oracle.queries

        # committed keys in their windows, probes on every other cycle
        plan = key_plan(zip(starts, keys), start)
        prefix_probe = tuple(probes[: plan.count(None)])
        dip_rng = random.Random(f"{seed}/attack/dip/{q}")
        w = _Window(enc, plan_stimulus(plan, probes, n_in), key_len, gap, dip_rng, conflict_budget)
        while (probe := w.next_dip()) is not None:
            w.learn(probe, oracle.query(prefix_probe + probe)[len(prefix_probe):])
        key = w.key()

        windows.append(
            WindowRecovery(
                index=q,
                start=start,
                gap=gap,
                frames=starts[q + 1],
                status=w.status,
                key=key,
                iterations=len(w.learned),
                solver_calls=w.calls,
                conflicts=w.conflicts,
                decisions=w.decisions,
                propagations=w.propagations,
                oracle_queries=oracle.queries - queries_before,
                wall_time=time.perf_counter() - w_t0,
            )
        )
        if w.status != STATUS_RECOVERED:
            status = w.status
            break
        keys.append(key)

    verified = False
    comparisons = 0
    if keys:
        verified, comparisons = _replay_verify(enc, oracle, starts, keys, seed, _VERIFY_COMPARISONS)
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

    Each pass draws a fresh workload and checks every workload-cycle output
    of the locked design, run with the committed keys in their windows,
    against the unlocked design rank for rank.  Both sides run every pass
    at once, one lane per pass, and their lane words are compared as they
    are; the oracle counts one query per pass.
    """
    plan = key_plan(zip(starts, keys), starts[len(keys)])
    free = [t for t, key in enumerate(plan) if key is None]
    n_in = len(enc.inputs)
    rng = random.Random(f"{seed}/attack/verify")
    passes = max(1, math.ceil(verify_vectors / len(free)))
    workloads = [[rng.getrandbits(n_in) for _ in free] for _ in range(passes)]
    answers = oracle.query_lanes(workloads)

    # rank r of every pass's workload is one cycle of lane words
    free_in = (_transpose(column, n_in) for column in zip(*workloads))
    outs = [outs for outs, _state in run_from_reset(enc, plan, free_in, passes)]
    ok = all(outs[t] == answer for t, answer in zip(free, answers))
    return ok, passes * len(free)


def derive_window_starts(sched, max_seq: int) -> tuple[int, ...]:
    """First ``max_seq + 1`` window start cycles from a key schedule."""
    if max_seq < 0:
        raise ValueError(f"max_seq must be >= 0, got {max_seq}")
    return tuple(w.start for w in islice(replay_windows(sched), max_seq + 1))
