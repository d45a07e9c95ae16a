"""Cycle-accurate simulation of sequential netlists, plus the trusted user.

Cycles are numbered from 0 and all flip-flops reset to 0.  Per-cycle inputs,
outputs, and state are packed ints with bit ``k`` holding net ``k`` of the
corresponding name list (LSB first).  Outputs are sampled combinationally in
the same cycle as the inputs that produce them.

Every access level is a *key plan*: the tuple of the key pattern each cycle
applies, with None on workload cycles.  The trusted user plays every chain
a :class:`~relock.encrypt.KeySchedule` schedules: the design starts
encrypted, so the user first plays chain 0, then feeds workload vectors while
the design is functional, re-authenticating with the scheduled chain each
time the design jumps back to encrypted mode.  The keyless attacker plays no
chain, and the one-time authenticator plays chain 0 at cycle 0 and stops.
The workload is paused during authentication, never dropped, which is what
makes the trusted user's functional-mode output stream match an
uninterrupted run of the original design index for index.
"""

from __future__ import annotations

import enum
import math
from typing import NamedTuple

from .bench import Netlist
from .encrypt import KeySchedule
from .lfsr import _shift, new_lfsr


class AuthWindow(NamedTuple):
    """One authentication: ``key_len`` cycles starting at ``start``.

    ``chain`` selects the key table row the user must play; ``t_func`` is the
    number of functional cycles granted after the window before the design
    jumps back to encrypted mode.
    """

    start: int
    chain: int
    t_func: int


def replay_windows(sched: KeySchedule, cycles: float = math.inf):
    """Replay the controller's timing lazily, one window at a time.

    Window q occupies cycles [start, start + key_len); the design is then
    functional for t_func cycles and the next window begins at
    start + key_len + t_func.  Windows stop before the first one starting
    at or after ``cycles``.  The PRNG is stepped only as far as the last
    window yielded needs: to its start + key_len.
    """
    c = sched.key_len
    g = new_lfsr(sched.lfsr_width, sched.lfsr_taps, sched.reset_seed)
    mask, taps = (1 << g.width) - 1, g.taps
    state, now = g.state, 0  # the PRNG state during cycle now

    def state_at(t: int) -> int:
        # asked for nondecreasing t only, so no earlier state is kept
        nonlocal state, now
        while now < t:
            state = _shift(state, mask, taps)
            now += 1
        return state

    start = 0
    while start < cycles:
        # the next chain is selected by the PRNG's low sbj_bits bits
        chain = state_at(start) & ((1 << sched.sbj_bits) - 1) if start else 0
        t_func = max(state_at(start + c), 1)
        yield AuthWindow(start=start, chain=chain, t_func=t_func)
        start += c + t_func


def authentication_schedule(sched: KeySchedule, cycles: int) -> tuple[AuthWindow, ...]:
    """Replay the controller's timing for ``cycles`` cycles.

    The windows of :func:`replay_windows` that start before the horizon;
    the last may extend past it.  The PRNG is stepped at most
    ``cycles + key_len`` times.
    """
    if cycles < 0:
        raise ValueError("cycles must be nonnegative")
    return tuple(replay_windows(sched, cycles))


class _StimulusFields(NamedTuple):
    vectors: tuple[int, ...]
    tags: tuple[int | None, ...]


class Stimulus(_StimulusFields):
    """Per-cycle input vectors, validated on construction.

    ``vectors[t]`` is the packed input word for cycle ``t``.  ``tags[t]`` is
    None for an authentication cycle and the workload index otherwise.
    """

    __slots__ = ()

    def __new__(cls, vectors: tuple[int, ...], tags: tuple[int | None, ...]):
        if len(vectors) != len(tags):
            raise ValueError("vectors and tags must have equal length")
        expect = 0
        for tag in tags:
            if tag is None:
                continue
            if tag != expect:
                raise ValueError(f"workload indices must be consecutive from 0, saw {tag} after {expect - 1}")
            expect += 1
        return super().__new__(cls, vectors, tags)

    @classmethod
    def _make(cls, iterable):  # so _replace validates too
        return cls(*iterable)

    @property
    def n_workload(self) -> int:
        return sum(1 for t in self.tags if t is not None)


class Case(enum.IntEnum):
    """Access levels: which chains a user plays."""

    TRUSTED = 1
    UNKEYED = 2
    SINGLE_AUTH = 3


def key_plan(chains, cycles: int) -> tuple[int | None, ...]:
    """Per-cycle key patterns over [0, cycles), None on workload cycles.

    ``chains`` holds ``(start, patterns)`` pairs: pattern ``k`` is applied
    on cycle ``start + k``.  Patterns past the horizon are dropped.
    """
    if cycles < 0:
        raise ValueError("cycles must be nonnegative")
    plan: list[int | None] = [None] * cycles
    for start, patterns in chains:
        for t, pattern in zip(range(start, cycles), patterns):
            plan[t] = pattern
    return tuple(plan)


def case_plan(sched: KeySchedule, case: Case | int, cycles: int) -> tuple[int | None, ...]:
    """The key plan of one access level over ``cycles`` cycles.

    TRUSTED plays every scheduled window's chain, UNKEYED plays none, and
    SINGLE_AUTH plays chain 0 at cycle 0 only.
    """
    case = Case(case)
    if case is Case.TRUSTED:
        chains = [(w.start, sched.key_table[w.chain]) for w in authentication_schedule(sched, cycles)]
    elif case is Case.UNKEYED:
        chains = []
    else:
        chains = [(0, sched.key_table[0])]
    return key_plan(chains, cycles)


def plan_stimulus(plan, workload, n_inputs: int) -> Stimulus:
    """Fill the None cycles of a key plan with ``workload`` vectors, in order.

    Raises ValueError if the workload is too short or a vector does not fit
    ``n_inputs`` inputs.
    """
    limit = 1 << n_inputs
    vectors: list[int] = []
    tags: list[int | None] = []
    wi = 0
    for key in plan:
        if key is not None:
            vectors.append(key)
            tags.append(None)
            continue
        if wi >= len(workload):
            raise ValueError(f"workload has {len(workload)} vectors but the horizon needs {wi + 1} or more")
        v = workload[wi]
        if not 0 <= v < limit:
            raise ValueError(f"workload vector {v:#x} does not fit {n_inputs} inputs")
        vectors.append(v)
        tags.append(wi)
        wi += 1
    return Stimulus(tuple(vectors), tuple(tags))


def workload_cycle_mask(sched: KeySchedule, cycles: int) -> tuple[int, ...]:
    """Cycles in [0, cycles) that carry workload, i.e. lie in no auth window."""
    return tuple(t for t, key in enumerate(case_plan(sched, Case.TRUSTED, cycles)) if key is None)


def trusted_user_stimulus(sched: KeySchedule, workload, cycles: int) -> Stimulus:
    """Interleave scheduled authentication chains with workload vectors.

    ``workload`` is a sequence of packed input words; it must cover every
    non-window cycle of the horizon.  Raises ValueError if the workload is
    too short or a vector does not fit the design's input width.
    """
    return plan_stimulus(case_plan(sched, Case.TRUSTED, cycles), workload, sched.n_inputs)


def workload_stimulus(vectors) -> Stimulus:
    """A stimulus that is pure workload (no authentication cycles)."""
    vs = tuple(vectors)
    return Stimulus(vs, tuple(range(len(vs))))


class _TraceFields(NamedTuple):
    input_names: tuple[str, ...]
    output_names: tuple[str, ...]
    state_names: tuple[str, ...]
    inputs: tuple[int, ...]
    outputs: tuple[int, ...]
    states: tuple[int, ...]


class Trace(_TraceFields):
    """Recorded run: packed per-cycle inputs, outputs, and post-edge state.

    ``states[t]`` is the flip-flop state *during* cycle ``t`` (so
    ``states[0]`` is the reset state, all zeros).  ``len(trace)`` is the
    cycle count, not the field count.
    """

    __slots__ = ()

    def __len__(self) -> int:
        return len(self.inputs)

    @classmethod
    def _make(cls, iterable):  # the inherited one checks len() against the field count
        return cls(*iterable)

    def state_bit(self, t: int, name: str) -> int:
        return (self.states[t] >> self.state_names.index(name)) & 1


def run_from_reset(nl: Netlist, plan, rows=(), width: int = 1):
    """Run ``nl`` from reset through a key plan, one ``CompiledCircuit.eval``
    per cycle on ``width`` lanes.

    A pattern cycle of ``plan`` drives its packed pattern on every lane (bit
    ``b`` to input ``b``); a None cycle takes the next row of ``rows``, one
    lane word per primary input.  Yields ``(outputs, state)`` per cycle,
    where ``state`` is the flip-flop state during that cycle.
    """
    cc = nl.compiled
    n_in = len(nl.inputs)
    full = (1 << width) - 1
    rows = iter(rows)
    state = (0,) * len(nl.dffs)
    for key in plan:
        words = next(rows) if key is None else [full if (key >> b) & 1 else 0 for b in range(n_in)]
        outs, nxt = cc.eval(words, state, width=width)
        yield outs, state
        state = nxt


def simulate(nl: Netlist, stim: Stimulus, cycles: int | None = None) -> Trace:
    """Run ``nl`` from reset for ``cycles`` cycles (default: whole stimulus)."""
    if cycles is None:
        cycles = len(stim.vectors)
    if cycles < 0:
        raise ValueError("cycles must be nonnegative")
    if cycles > len(stim.vectors):
        raise ValueError(f"stimulus has {len(stim.vectors)} cycles, asked for {cycles}")
    n_in = len(nl.inputs)
    inputs = stim.vectors[:cycles]
    for t, word in enumerate(inputs):
        if not 0 <= word < (1 << n_in):
            raise ValueError(f"cycle {t}: input vector {word:#x} does not fit {n_in} inputs")
    outputs: list[int] = []
    states: list[int] = []
    for outs, state in run_from_reset(nl, inputs):
        outputs.append(_pack(outs))
        states.append(_pack(state))
    return Trace(
        input_names=nl.inputs,
        output_names=nl.outputs,
        state_names=tuple(q for q, _ in nl.dffs),
        inputs=inputs,
        outputs=tuple(outputs),
        states=tuple(states),
    )


_BIT_CHARS = bytes.maketrans(b"\0\1", b"01")


def _pack(bits) -> int:
    """Pack a sequence of 0/1 values into an int, element ``k`` at bit ``k``."""
    return int(bytes(bits[::-1]).translate(_BIT_CHARS) or b"0", 2)


def write_columnar(trace: Trace, fh) -> None:
    """One line per cycle: cycle number, input, output, and state in hex."""
    iw = max(1, (len(trace.input_names) + 3) // 4)
    ow = max(1, (len(trace.output_names) + 3) // 4)
    sw = max(1, (len(trace.state_names) + 3) // 4)
    fh.write(f"# cycle in[{len(trace.input_names)}] out[{len(trace.output_names)}] state[{len(trace.state_names)}]\n")
    for t in range(len(trace)):
        fh.write(f"{t:6d} {trace.inputs[t]:0{iw}x} {trace.outputs[t]:0{ow}x} {trace.states[t]:0{sw}x}\n")


def write_vcd(trace: Trace, fh, design: str = "design", timescale: str = "1ns") -> None:
    """Dump a trace in VCD form, one scalar wire per net."""
    nets: list[tuple[str, str, str]] = []  # (group, name, id)
    code = 33  # printable VCD id chars start at '!'

    def next_id() -> str:
        nonlocal code
        out = ""
        n = code
        while True:
            out += chr(33 + n % 94)
            n //= 94
            if n == 0:
                break
        code += 1
        return out

    for group, names in (("in", trace.input_names), ("out", trace.output_names), ("state", trace.state_names)):
        for name in names:
            nets.append((group, name, next_id()))

    fh.write(f"$timescale {timescale} $end\n$scope module {design} $end\n")
    for group, name, vid in nets:
        fh.write(f"$var wire 1 {vid} {group}.{name} $end\n")
    fh.write("$upscope $end\n$enddefinitions $end\n")

    prev: dict[str, int | None] = {vid: None for _, _, vid in nets}
    for t in range(len(trace)):
        words = {"in": trace.inputs[t], "out": trace.outputs[t], "state": trace.states[t]}
        idx = {"in": 0, "out": 0, "state": 0}
        fh.write(f"#{t}\n")
        for group, _name, vid in nets:
            bit = (words[group] >> idx[group]) & 1
            idx[group] += 1
            if prev[vid] != bit:
                fh.write(f"{bit}{vid}\n")
                prev[vid] = bit
    fh.write(f"#{len(trace)}\n")
