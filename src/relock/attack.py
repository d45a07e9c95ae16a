"""Oracle-guided recovery of authentication key sequences.

The attacker holds the locked netlist and can run an unlocked chip from
reset, observing outputs for any input sequence.  Window timing is taken as
known input.  Per window, the attack collects distinguishing probes (DIPs):
inputs for the cycles after the window on which two candidate keys give
different outputs.  Each probe is replayed on the unlocked chip, and the
observed outputs constrain the keys that survive.

A wrong key corrupts the outputs, so the window's first DIP usually comes
from simulation: one lane-parallel run from the window's start state plays
random key pairs on random probes, and a probe on which its pair's outputs
differ is distinguishing.  After that, each step asks a SAT solver for a
key that fits every learned probe, then, with that key blocked on the same
solver, for a second one.  When no second key survives, no DIP can exist
and the window ends with the one key: the unique-completion check of El
Massad, Garg & Tripunitara (ICCAD 2017).  A step unrolls only as much of
the gap as the key needs (incremental unrolling, as in Shamsi, Pan & Jin,
"KC2", DATE 2019): it checks the learned probes over their first 1, 2, 4,
... gap cycles, and a key unique on fewer cycles than the gap is kept only
if a concrete run shows it reproduces every answer over the whole gap.
Each copy in this key formula encodes its last two frames only over the
gates their pinned outputs and the next frame read (``Netlist.frame_cones``):
the gates left out define variables nothing constrains, so it admits the
same keys.  Only when two keys survive the whole gap is a miter built,
afresh from the learned DIPs: two symbolic key copies driving the same
probe inputs with some output differing, from which a fresh solver takes
the next DIP.  It encodes every frame in full, so the DIPs the oracle sees
do not depend on the key formula's encoding.  If it has none, the
surviving keys agree on every probe and the window ends with the first;
else the next step starts at the whole gap, since a DIP only drops keys.
So every formula a window solves is a function of its
start state, its learned DIPs and the depth alone, built where it is
solved.  Earlier windows are pinned to their committed keys by one carried
state, advanced once through each key and its gap; oracle queries replay
them from reset.  Every oracle access, a probe or the replay check's batch,
is one ``SequenceOracle.query``, which takes and answers cycles as
``sim.run_from`` does.

Output comparisons are rank aligned: the unlocked chip never sees the
window cycles, so its cycle ``j`` output is compared against the locked
design's output on the ``j``-th non-window cycle.
"""

from __future__ import annotations

import math
import random
import time
from itertools import chain, islice
from typing import NamedTuple

from .bench import Netlist
from .encrypt import _is_int
from .sat import SAT, UNKNOWN, Solver
from .sim import _word_fits, key_plan, replay_windows, run_from
from .unroll import CnfBuilder

# perfbench/tracing.py wraps this module attribute by name
from .sim import simulate  # noqa: F401

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
    query counter feeds the attack's effort report.  ``query`` takes a
    batch the way ``sim.run_from`` does, one workload per lane, and counts
    one query per lane.
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

    def query(self, plan, rows=(), width: int = 1) -> list[tuple[int, ...]]:
        """Run from reset on ``width`` lanes as ``sim.run_from`` does: a packed
        word of ``plan`` drives every lane, and a None cycle takes the next
        row of ``rows``, one lane word per input.  Returns each cycle's output
        lane words and counts ``width`` queries.  A plan word or row that does
        not fit, or a width below 1, raises ``ValueError`` and counts nothing.
        """
        n_in, plan, rows = self.n_inputs, tuple(plan), list(rows)
        if not _is_int(width) or width < 1:
            raise ValueError(f"width must be an integer >= 1, got {width!r}")
        for t, word in enumerate(plan):
            if word is not None and not _word_fits(word, n_in):
                raise ValueError(f"cycle {t}: input vector {word!r} does not fit {n_in} inputs")
        if len(rows) != plan.count(None):
            raise ValueError(f"{len(rows)} rows for {plan.count(None)} None cycles")
        for r, row in enumerate(rows):
            if len(row) != n_in or not all(_is_int(w) and 0 <= w < (1 << width) for w in row):
                raise ValueError(f"row {r} is not {n_in} lane words of {width} lanes")
        outputs = [outs for outs, _state in run_from(self._nl, plan, rows, width)]
        self.queries += width
        return outputs


def _lane_dip(nl: Netlist, state, key_len: int, gap: int, rng: random.Random):
    """Look for a window's first DIP in one lane-parallel run from the
    flip-flop values ``state``.

    Every lane plays random key rows (copy A on lanes ``[0, L)``, copy B on
    lanes ``[L, 2L)``), then random gap probes that lanes ``i`` and
    ``L + i`` share, with ``L`` = ``_DIP_LANES``.

    Returns ``(key_a, key_b, probe)`` of the lowest lane ``i`` whose gap
    outputs differ from lane ``L + i``, or None if no lane pair differs.
    """
    n_in, lanes = len(nl.inputs), _DIP_LANES
    keys = [[rng.getrandbits(2 * lanes) for _ in range(n_in)] for _ in range(key_len)]
    probes = [[rng.getrandbits(lanes) for _ in range(n_in)] for _ in range(gap)]
    rows = chain(keys, ([p | p << lanes for p in row] for row in probes))
    differ = 0
    for outs, _state in islice(run_from(nl, (None,) * (key_len + gap), rows, 2 * lanes, state), key_len, None):
        for v in outs:
            differ |= v ^ (v >> lanes)
    differ &= (1 << lanes) - 1
    if not differ:
        return None
    lane = (differ & -differ).bit_length() - 1

    def pick(rows, k):
        return tuple(sum(((w >> k) & 1) << b for b, w in enumerate(row)) for row in rows)

    return pick(keys, lane), pick(keys, lanes + lane), pick(probes, lane)


def _state_after(nl: Netlist, state, words) -> list[bool]:
    """The flip-flop values, as bools, after packed ``words`` from ``state``."""
    for _outs, state in run_from(nl, words, state=state):
        pass
    return [bool(v) for v in state]


def _transpose(words, width: int) -> list[int]:
    """Bit ``p`` of entry ``b`` is bit ``b`` of ``words[p]``, for ``b < width``:
    one packed word per lane becomes one lane word per bit, and back."""
    return [sum(((w >> b) & 1) << p for p, w in enumerate(words)) for b in range(width)]


def _encode_copy(b: CnfBuilder, nl: Netlist, state, key_rows, gap_rows, oracle_out=None, cones=False):
    """Encode one copy of ``nl`` from flip-flop values ``state`` over a
    window's key cycles, driven by ``key_rows``, and the gap after it, driven
    by ``gap_rows``, one frame per cycle.

    Returns the copy's gap outputs, one list of output values per cycle.
    With ``oracle_out``, each gap cycle's outputs are also pinned to its
    row of 0/1 output values as the cycle is encoded.  With ``cones``, the
    last two frames are encoded over ``nl.frame_cones``.
    """
    rows, outs = (*key_rows, *gap_rows), []
    programs = ((nl.frame_program,) * len(rows) + nl.frame_cones)[-len(rows) :] if cones else ()
    for t, frame in enumerate(islice(b.encode_frames(nl, state, rows, programs), len(key_rows), None)):
        outs.append(frame)
        if oracle_out is not None:
            for i, v in enumerate(frame):
                b.pin(v, oracle_out[t][i])
    return outs


def _solver(cnf: CnfBuilder) -> Solver | None:
    """A solver over the builder's clauses; None if it holds the empty clause."""
    return None if cnf.contradiction else Solver(cnf.n_vars, cnf.clauses)


class WindowRecovery(NamedTuple):
    """Outcome and effort for one authentication window.  ``frames`` is the
    cycle where its probed gap ends, the next window's start; it is not the
    frames encoded, which are its key and the gap depth it reaches."""

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


def _fits(enc: Netlist, state, key, learned) -> bool:
    """Whether ``key`` in a window from ``state`` reproduces every learned
    answer over the whole gap, in one single-lane run per learned probe."""
    for probe, answer in learned:
        gap_outs = islice(run_from(enc, (*key, *probe), state=state), len(key), None)
        if any(outs != bits for (outs, _state), bits in zip(gap_outs, answer)):
            return False
    return True


def _miter(enc: Netlist, state, key_len: int, gap: int, learned):
    """The miter of a window from ``state``: key copies A and B over shared
    gap probe variables with some gap output differing, then every learned
    probe pinned to its answer, A then B.

    Returns the builder and the probe variables, one row per gap cycle.
    """
    n_in = len(enc.inputs)
    b = CnfBuilder()
    k_a, k_b, x_vars = ([[b.new_var() for _ in range(n_in)] for _ in range(rows)] for rows in (key_len, key_len, gap))
    outs_a = _encode_copy(b, enc, state, k_a, x_vars)
    outs_b = _encode_copy(b, enc, state, k_b, x_vars)
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
    for probe, answer in learned:
        for keys in (k_a, k_b):
            _encode_copy(b, enc, state, keys, probe, answer)
    return b, x_vars


def _recover_window(enc: Netlist, state, key_len: int, gap: int, ask, rng, budget: int):
    """Recover the key of one window from ``state``, the flip-flop values
    (bools) its committed prefix reaches, with ``gap`` probe cycles after it.

    ``ask(probe)`` returns the oracle's gap outputs on ``probe``, one row
    of 0/1 output values per cycle; each probe asked is learned, the lane
    probe first if ``_lane_dip`` finds one.  Each step after that solves,
    at depth k = 1, 2, 4, ... up to the gap, one key copy per learned probe
    over the probe's and answer's first k gap cycles for a key K, then
    blocks K on the same ``Solver`` and solves again; each copy's last two
    frames are encoded over ``enc.frame_cones``.  A deeper formula only
    drops keys, so the step stops at the first k where no key fits
    (``no-consistent-key``) or K is unique; ``_fits`` decides a K unique on
    fewer than ``gap`` cycles.  If two keys survive the full gap, a fresh
    solver takes the next DIP from ``_miter``, over full frames, and later
    steps start at the gap; if it has none, the window ends with K.

    Returns ``(status, key, iterations, effort)``: the key is None unless
    the status is ``recovered``, ``iterations`` counts the learned probes,
    and ``effort`` is (solver calls, conflicts, decisions, propagations),
    adding up each call's share of its solver's running totals.
    """
    learned = []
    status = STATUS_RECOVERED
    effort = [0, 0, 0, 0]

    def solve(solver: Solver | None, rows) -> tuple[int, ...] | None:
        """Solve once more; the model's word for each row of ``rows``.  None
        if there is no solver (its builder holds the empty clause), if the
        formula is unsatisfiable, or if the budget runs out, which sets
        ``status``."""
        nonlocal status
        if solver is None:
            return None
        before = (0, solver.conflicts, solver.decisions, solver.propagations)
        res = solver.solve(budget)
        after = (1, res.conflicts, res.decisions, res.propagations)
        effort[:] = [n + a - b for n, a, b in zip(effort, after, before)]
        if res.status == UNKNOWN:
            status = STATUS_BUDGET
        if res.status != SAT:
            return None
        return tuple(sum(1 << i for i, v in enumerate(row) if res.model[v]) for row in rows)

    lane_dip = _lane_dip(enc, state, key_len, gap, rng)
    # a probe that tells two simulated keys apart is a DIP as good as one
    # the solver finds, so the solver starts with a constraint
    dip = None if lane_dip is None else lane_dip[2]
    depths = [1 << j for j in range((gap - 1).bit_length())] + [gap]  # powers of two below the gap, then it
    while True:
        if dip is not None:
            learned.append((dip, ask(dip)))
            dip = None
        # with nothing learned, every depth gives the same formula
        for depth in depths if learned else [gap]:
            e = CnfBuilder()
            k_e = [[e.new_var() for _ in enc.inputs] for _ in range(key_len)]
            for probe, answer in learned:
                _encode_copy(e, enc, state, k_e, probe[:depth], answer[:depth], cones=True)
            solver = _solver(e)
            key = solve(solver, k_e)
            if key is None:
                if status == STATUS_RECOVERED:
                    status = STATUS_NO_KEY
                break
            # with K the only key left, no probe can tell two surviving keys apart
            solver.add_clause([-v if word >> i & 1 else v for row, word in zip(k_e, key) for i, v in enumerate(row)])
            if solve(solver, ()) is None:
                if status == STATUS_RECOVERED and depth < gap and not _fits(enc, state, key, learned):
                    status = STATUS_NO_KEY
                break
        else:
            depths = [gap]  # two keys fit the whole gap, and a DIP only drops keys
            cnf, x_vars = _miter(enc, state, key_len, gap, learned)
            dip = solve(_solver(cnf), x_vars)
        if dip is None:
            return status, key if status == STATUS_RECOVERED else None, len(learned), tuple(effort)


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
    starts = list(known_timing)
    args = (("key_len", key_len), ("max_seq", max_seq), ("conflict_budget", conflict_budget))
    for name, value in (*args, *(("known_timing entry", s) for s in starts)):
        if not _is_int(value):
            raise ValueError(f"{name} must be an integer, got {value!r}")
    if key_len < 1:
        raise ValueError("key_len must be >= 1")
    if max_seq < 1:
        raise ValueError("max_seq must be >= 1")
    if conflict_budget < 0:
        raise ValueError(f"conflict_budget must be >= 0, got {conflict_budget}")
    if len(enc.inputs) != oracle.n_inputs or len(enc.outputs) != oracle.n_outputs:
        raise ValueError(
            f"oracle width mismatch: locked design has {len(enc.inputs)} inputs / "
            f"{len(enc.outputs)} outputs, oracle has {oracle.n_inputs} / {oracle.n_outputs}"
        )
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
    # the committed prefix's state (keys in their windows, probes elsewhere), carried along
    state = _state_after(enc, [False] * len(enc.dffs), probes[: starts[0]])

    for q in range(max_seq):
        w_t0 = time.perf_counter()
        start = starts[q]
        gap = starts[q + 1] - start - key_len
        queries_before = oracle.queries

        # the oracle restarts from reset, so each query replays the prefix
        prefix_probe = tuple(probes[: start - q * key_len])
        status, key, iterations, effort = _recover_window(
            enc, state, key_len, gap, lambda probe: oracle.query(prefix_probe + probe)[len(prefix_probe) :],
            random.Random(f"{seed}/attack/dip/{q}"), conflict_budget,
        )
        queries, wall_time = oracle.queries - queries_before, time.perf_counter() - w_t0
        windows.append(WindowRecovery(q, start, gap, starts[q + 1], status, key, iterations, *effort, queries, wall_time))
        if status != STATUS_RECOVERED:
            break
        keys.append(key)
        if q + 1 < max_seq:  # only a later window starts from the state after this gap
            state = _state_after(enc, state, (*key, *probes[len(prefix_probe) : len(prefix_probe) + gap]))

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
    n_free = plan.count(None)
    n_in = len(enc.inputs)
    rng = random.Random(f"{seed}/attack/verify")
    passes = max(1, math.ceil(verify_vectors / n_free))
    workloads = [[rng.getrandbits(n_in) for _ in range(n_free)] for _ in range(passes)]
    # rank r of every pass's workload is one cycle of lane words
    rows = [_transpose(column, n_in) for column in zip(*workloads)]
    answers = oracle.query((None,) * n_free, rows, passes)

    free_outs = (outs for (outs, _state), key in zip(run_from(enc, plan, rows, passes), plan) if key is None)
    return all(outs == answer for outs, answer in zip(free_outs, answers)), passes * n_free


def derive_window_starts(sched, max_seq: int) -> tuple[int, ...]:
    """First ``max_seq + 1`` window start cycles from a key schedule."""
    if not _is_int(max_seq) or max_seq < 0:
        raise ValueError(f"max_seq must be an integer >= 0, got {max_seq!r}")
    return tuple(w.start for w in islice(replay_windows(sched), max_seq + 1))
