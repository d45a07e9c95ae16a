"""Oracle-guided recovery of authentication key sequences.

The attacker holds the locked netlist and can run an unlocked chip from
reset, observing outputs for any input sequence.  Window timing is taken as
known input; per window, the search encodes two symbolic key candidates
driving the same probe inputs in the cycles after the window and asks a SAT
solver for a probe that makes their outputs differ.  A wrong key corrupts
the outputs, so the window's first such probe usually comes from simulation
instead: one lane-parallel run from reset plays random key pairs on random
probes, and a probe on which its pair's outputs differ is distinguishing.
The solver finds every later probe, and the first one too when no
simulated pair differs.  Each probe is replayed on the unlocked chip and the observed
outputs are added as constraints, until no distinguishing probe remains;
any surviving candidate is then extracted and committed.  Earlier windows
stay pinned to their committed keys, so instances grow with the window
index.

Output comparisons are rank aligned: the unlocked chip never sees the
window cycles, so its cycle ``j`` output is compared against the locked
design's output on the ``j``-th non-window cycle.
"""

from __future__ import annotations

import math
import random
import time
from itertools import islice
from operator import neg
from typing import NamedTuple

from .bench import Netlist
from .sat import SAT, UNKNOWN, solve
from .sim import key_plan, plan_stimulus, replay_windows, run_from_reset, simulate, workload_stimulus
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
        return tuple(_transpose(row, 2 * lanes)[k] for row in rows)

    return state, (pick(keys, lane), pick(keys, lanes + lane), pick(probes, lane))


def _transpose(words, width: int) -> list[int]:
    """Bit ``p`` of entry ``b`` is bit ``b`` of ``words[p]``, for ``b < width``:
    one packed word per lane becomes one lane word per bit, and back."""
    return [sum(((w >> b) & 1) << p for p, w in enumerate(words)) for b in range(width)]


def _encode_copy(b: CnfBuilder, nl: Netlist, state, keys, gap_rows, oracle_out=None):
    """Encode one copy of ``nl`` per entry of ``keys`` from flip-flop values
    ``state`` over a window's key cycles and the gap after it, one frame per
    cycle.  Each entry of ``keys`` holds one copy's key rows, of variables
    that no other argument holds.

    Only the first copy is encoded.  Every other copy appends the first
    copy's clauses renamed: its key variables to the copy's own and the
    variables the first copy allocated to the next free ones, in order.
    That equals a fresh encode, since folding depends only on constants and
    on which literals are equal or opposite, which a one-to-one renaming
    keeps.

    Returns each copy's gap outputs, one list of output values per cycle.
    With ``oracle_out``, each gap cycle's outputs are also pinned to its
    packed word as the cycle is encoded.
    """
    first, *others = keys
    n0, c0 = b.n_vars, len(b.clauses)
    outs = []
    for t, frame in enumerate(islice(b.encode_frames(nl, state, (*first, *gap_rows)), len(first), None)):
        outs.append(frame)
        if oracle_out is not None:
            for i, v in enumerate(frame):
                b.pin(v, (oracle_out[t] >> i) & 1)
    n1, clauses = b.n_vars, b.clauses[c0:]
    copies = [outs]
    for rows in others:
        # the renaming as a table over literals -n1..n1, a negative one
        # indexing from the end
        pos = list(range(n1 + 1))
        pos[n0 + 1 :] = range(b.n_vars + 1, b.n_vars + 1 + n1 - n0)
        for row_a, row in zip(first, rows):
            for v, w in zip(row_a, row):
                pos[v] = w
        table = pos + [*map(neg, reversed(pos[1:]))]
        b.clauses += [tuple(map(table.__getitem__, cl)) for cl in clauses]
        b.n_vars += n1 - n0
        copies.append([[v if v is True or v is False else table[v] for v in frame] for frame in outs])
    return copies


def _model_word(model: dict, lits: list[int]) -> int:
    return sum(1 << i for i, v in enumerate(lits) if model[v])


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
    """One window's DIP search: a miter of two key copies, ``k_a`` and
    ``k_b``, that share the gap's probe variables, encoded from the state the
    committed prefix reaches, and the effort its solver calls took."""

    def __init__(self, enc: Netlist, prefix, key_len: int, gap: int, rng, conflict_budget: int) -> None:
        n_in = len(enc.inputs)
        self.enc, self.budget = enc, conflict_budget
        self.b = b = CnfBuilder()
        self.k_a = [[b.new_var() for _ in range(n_in)] for _ in range(key_len)]
        self.k_b = [[b.new_var() for _ in range(n_in)] for _ in range(key_len)]
        self.x_vars = [[b.new_var() for _ in range(n_in)] for _ in range(gap)]
        # the committed prefix is concrete: one state, shared by all copies
        self.state, lane_dip = _lane_dip(enc, prefix, key_len, gap, rng)
        outs = _encode_copy(b, enc, self.state, (self.k_a, self.k_b), self.x_vars)
        diffs = []
        for ra, rb in zip(*outs):
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
        # a probe that tells two simulated keys apart is a DIP as good as
        # one the solver finds, so the solver starts with a constraint
        self._lane_probe = None if lane_dip is None else lane_dip[2]
        self.learned: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
        self.status = STATUS_RECOVERED
        self.calls = self.conflicts = self.decisions = self.propagations = 0

    def next_dip(self) -> tuple[int, ...] | None:
        """The next probe on which two keys left in the miter differ, or None."""
        probe, self._lane_probe = self._lane_probe, None
        return self._solve(self.b, self.x_vars) if probe is None else probe

    def learn(self, probe, answer) -> None:
        """Pin both key copies to the oracle's gap outputs ``answer`` on ``probe``."""
        self.learned.append((probe, answer))
        _encode_copy(self.b, self.enc, self.state, (self.k_a, self.k_b), probe, answer)

    def key(self) -> tuple[int, ...] | None:
        """A key consistent with every learned probe, or None with ``status`` set."""
        if self.status != STATUS_RECOVERED:
            return None
        # a fresh formula over one key copy and the learned DIPs only
        e = CnfBuilder()
        k_e = [[e.new_var() for _ in row] for row in self.k_a]
        for probe, answer in self.learned:
            _encode_copy(e, self.enc, self.state, (k_e,), probe, answer)
        key = self._solve(e, k_e)
        if key is None and self.status == STATUS_RECOVERED:
            self.status = STATUS_NO_KEY
        return key

    def _solve(self, cnf: CnfBuilder, rows) -> tuple[int, ...] | None:
        """The model's word for each row of ``rows``; None if ``cnf`` is
        unsatisfiable, or if the budget runs out, which sets ``status``."""
        if cnf.contradiction:
            return None
        res = solve(cnf, conflict_budget=self.budget)
        self.calls += 1
        self.conflicts += res.conflicts
        self.decisions += res.decisions
        self.propagations += res.propagations
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
        committed = plan_stimulus(key_plan(zip(starts, keys), start), probes, n_in)
        prefix_probe = tuple(probes[: committed.n_workload])
        dip_rng = random.Random(f"{seed}/attack/dip/{q}")
        w = _Window(enc, committed.vectors, key_len, gap, dip_rng, conflict_budget)
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
    against the unlocked design rank for rank.  The locked side runs every
    pass at once, one lane per pass; the oracle is queried once per pass.
    """
    plan = key_plan(zip(starts, keys), starts[len(keys)])
    free = [t for t, key in enumerate(plan) if key is None]
    n_in, n_out = len(enc.inputs), len(enc.outputs)
    rng = random.Random(f"{seed}/attack/verify")
    passes = max(1, math.ceil(verify_vectors / len(free)))
    workloads = [[rng.getrandbits(n_in) for _ in free] for _ in range(passes)]
    answers = [oracle.query(workload) for workload in workloads]

    # rank r of every pass's workload is one cycle of lane words
    free_in = (_transpose(column, n_in) for column in zip(*workloads))
    outs = [outs for outs, _state in run_from_reset(enc, plan, free_in, passes)]
    ok = all(list(outs[t]) == _transpose(column, n_out) for t, column in zip(free, zip(*answers)))
    return ok, passes * len(free)


def derive_window_starts(sched, max_seq: int) -> tuple[int, ...]:
    """First ``max_seq + 1`` window start cycles from a key schedule."""
    if max_seq < 0:
        raise ValueError(f"max_seq must be >= 0, got {max_seq}")
    return tuple(w.start for w in islice(replay_windows(sched), max_seq + 1))
