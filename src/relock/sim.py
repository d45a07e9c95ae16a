"""Cycle-accurate simulation of sequential netlists, plus the trusted user.

Cycles are numbered from 0 and all flip-flops reset to 0.  Per-cycle inputs,
outputs, and state are packed ints with bit ``k`` holding net ``k`` of the
corresponding name list (LSB first).  Outputs are sampled combinationally in
the same cycle as the inputs that produce them.

The trusted-user stimulus interleaves authentication chains from a
:class:`~relock.encrypt.KeySchedule` with workload vectors: the design starts
encrypted, so the user first plays chain 0, then feeds workload vectors while
the design is functional, re-authenticating with the scheduled chain each
time the design jumps back to encrypted mode.  The workload is paused during
authentication, never dropped, which is what makes the functional-mode output
stream match an uninterrupted run of the original design index for index.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bench import Netlist
from .encrypt import KeySchedule, derive_sbj
from .lfsr import new_lfsr, step


@dataclass(frozen=True)
class AuthWindow:
    """One authentication: ``key_len`` cycles starting at ``start``.

    ``chain`` selects the key table row the user must play; ``t_func`` is the
    number of functional cycles granted after the window before the design
    jumps back to encrypted mode.
    """

    start: int
    chain: int
    t_func: int


def authentication_schedule(sched: KeySchedule, cycles: int) -> tuple[AuthWindow, ...]:
    """Replay the controller's timing for ``cycles`` cycles.

    Window q occupies cycles [start, start + key_len); the design is then
    functional for t_func cycles and the next window begins at
    start + key_len + t_func.  The last window may extend past the horizon;
    the PRNG is stepped at most ``cycles + key_len`` times.
    """
    if cycles < 0:
        raise ValueError("cycles must be nonnegative")
    c = sched.key_len
    g = new_lfsr(sched.lfsr_width, sched.lfsr_taps, sched.reset_seed)
    states = [g.state]

    def state_at(t: int) -> int:
        nonlocal g
        while len(states) <= t:
            g, _ = step(g)
            states.append(g.state)
        return states[t]

    windows: list[AuthWindow] = []
    start = 0
    chain = 0
    while start < cycles:
        t_func = max(state_at(start + c), 1)
        windows.append(AuthWindow(start=start, chain=chain, t_func=t_func))
        nxt = start + c + t_func
        if nxt < cycles:  # the window past the horizon needs no chain
            chain = derive_sbj(state_at(nxt), sched.sbj_bits)
        start = nxt
    return tuple(windows)


def workload_cycle_mask(sched: KeySchedule, cycles: int) -> tuple[int, ...]:
    """Cycles in [0, cycles) that carry workload, i.e. lie in no auth window."""
    mask = []
    t = 0
    for w in authentication_schedule(sched, cycles):
        mask.extend(range(t, min(w.start, cycles)))
        t = w.start + sched.key_len
    mask.extend(range(t, cycles))
    return tuple(m for m in mask if m < cycles)


@dataclass(frozen=True)
class Stimulus:
    """Per-cycle input vectors.

    ``vectors[t]`` is the packed input word for cycle ``t``.  ``tags[t]`` is
    None for an authentication cycle and the workload index otherwise.
    """

    vectors: tuple[int, ...]
    tags: tuple[int | None, ...]

    def __post_init__(self) -> None:
        if len(self.vectors) != len(self.tags):
            raise ValueError("vectors and tags must have equal length")
        expect = 0
        for tag in self.tags:
            if tag is None:
                continue
            if tag != expect:
                raise ValueError(f"workload indices must be consecutive from 0, saw {tag} after {expect - 1}")
            expect += 1

    @property
    def n_workload(self) -> int:
        return sum(1 for t in self.tags if t is not None)


def trusted_user_stimulus(sched: KeySchedule, workload, cycles: int) -> Stimulus:
    """Interleave scheduled authentication chains with workload vectors.

    ``workload`` is a sequence of packed input words; it must cover every
    non-window cycle of the horizon.  Raises ValueError if the workload is
    too short or a vector does not fit the design's input width.
    """
    if cycles < 0:
        raise ValueError("cycles must be nonnegative")
    limit = 1 << sched.n_inputs
    windows = authentication_schedule(sched, cycles)
    in_window = {}
    for w in windows:
        for k in range(sched.key_len):
            in_window[w.start + k] = sched.key_table[w.chain][k]
    vectors: list[int] = []
    tags: list[int | None] = []
    wi = 0
    for t in range(cycles):
        if t in in_window:
            vectors.append(in_window[t])
            tags.append(None)
        else:
            if wi >= len(workload):
                raise ValueError(
                    f"workload has {len(workload)} vectors but the horizon needs {wi + 1} or more"
                )
            v = workload[wi]
            if not 0 <= v < limit:
                raise ValueError(f"workload vector {v:#x} does not fit {sched.n_inputs} inputs")
            vectors.append(v)
            tags.append(wi)
            wi += 1
    return Stimulus(tuple(vectors), tuple(tags))


def workload_stimulus(vectors) -> Stimulus:
    """A stimulus that is pure workload (no authentication cycles)."""
    vs = tuple(vectors)
    return Stimulus(vs, tuple(range(len(vs))))


@dataclass(frozen=True)
class Trace:
    """Recorded run: packed per-cycle inputs, outputs, and post-edge state.

    ``states[t]`` is the flip-flop state *during* cycle ``t`` (so
    ``states[0]`` is the reset state, all zeros).
    """

    input_names: tuple[str, ...]
    output_names: tuple[str, ...]
    state_names: tuple[str, ...]
    inputs: tuple[int, ...]
    outputs: tuple[int, ...]
    states: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.inputs)

    def output_bit(self, t: int, name: str) -> int:
        return (self.outputs[t] >> self.output_names.index(name)) & 1

    def state_bit(self, t: int, name: str) -> int:
        return (self.states[t] >> self.state_names.index(name)) & 1


def simulate(nl: Netlist, stim: Stimulus, cycles: int | None = None) -> Trace:
    """Run ``nl`` from reset for ``cycles`` cycles (default: whole stimulus)."""
    if cycles is None:
        cycles = len(stim.vectors)
    if cycles > len(stim.vectors):
        raise ValueError(f"stimulus has {len(stim.vectors)} cycles, asked for {cycles}")
    cc = nl.compiled
    n_in = len(nl.inputs)
    state = (0,) * len(nl.dffs)
    inputs: list[int] = []
    outputs: list[int] = []
    states: list[int] = []
    for t in range(cycles):
        word = stim.vectors[t]
        if not 0 <= word < (1 << n_in):
            raise ValueError(f"cycle {t}: input vector {word:#x} does not fit {n_in} inputs")
        in_bits = [(word >> b) & 1 for b in range(n_in)]
        outs, nxt = cc.eval(in_bits, state)
        inputs.append(word)
        outputs.append(_pack(outs))
        states.append(_pack(state))
        state = nxt
    return Trace(
        input_names=nl.inputs,
        output_names=nl.outputs,
        state_names=tuple(q for q, _ in nl.dffs),
        inputs=tuple(inputs),
        outputs=tuple(outputs),
        states=tuple(states),
    )


def _pack(bits) -> int:
    word = 0
    for k, b in enumerate(bits):
        word |= (b & 1) << k
    return word


def hamming_distance(a: Trace, b: Trace, mask) -> float:
    """Fraction of differing output bits between two traces over ``mask`` cycles."""
    if a.output_names != b.output_names:
        raise ValueError("traces have different output nets")
    cycles = list(mask)
    if not cycles:
        raise ValueError("empty cycle mask")
    width = len(a.output_names)
    if width == 0:
        raise ValueError("traces have no outputs")
    diff = 0
    for t in cycles:
        if t >= len(a) or t >= len(b):
            raise ValueError(f"mask cycle {t} out of range")
        diff += bin(a.outputs[t] ^ b.outputs[t]).count("1")
    return diff / (width * len(cycles))


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
