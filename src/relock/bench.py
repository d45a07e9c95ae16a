"""Gate-level sequential netlists in ISCAS'89 ``.bench`` form.

A netlist is a flat list of primitive gates plus D flip-flops.  Flip-flop
outputs act as sources of the combinational graph and flip-flop inputs as
sinks, so the gate subgraph must be acyclic.  Net names are case sensitive;
the ``INPUT``/``OUTPUT``/``DFF``/gate keywords are not.

Signal values are plain ints.  Every evaluator here is width parallel: a net
may carry a machine word whose bit ``k`` is simulation lane ``k``, so one pass
evaluates many independent assignments at once.  Single-assignment evaluation
is just width 1.
"""

from __future__ import annotations

import re
import warnings
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, chain, groupby
from pathlib import Path

GATE_KINDS = ("AND", "NAND", "OR", "NOR", "XOR", "XNOR", "NOT", "BUFF")

_UNARY_KINDS = frozenset({"NOT", "BUFF"})


class BenchError(ValueError):
    """Malformed netlist: bad syntax, duplicate or undefined nets, arity, cycles."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        loc = ""
        if line is not None:
            loc = f"line {line}"
            if column is not None:
                loc += f", column {column}"
            loc += ": "
        super().__init__(loc + message)
        self.line = line
        self.column = column


class DanglingNetWarning(UserWarning):
    """A gate output that no gate, flip-flop, or primary output consumes."""


@dataclass(frozen=True, slots=True)
class Gate:
    """One primitive gate: ``out = kind(ins...)``."""

    out: str
    kind: str
    ins: tuple[str, ...]


@dataclass(frozen=True)
class CircuitStats:
    n_inputs: int
    n_outputs: int
    n_dffs: int
    n_gates: int


@dataclass(frozen=True)
class Netlist:
    """An immutable parsed netlist.

    Attributes
    ----------
    name : str
        Circuit name (file stem by convention).
    inputs, outputs : tuple of str
        Primary input/output nets in declaration order.
    gates : tuple of Gate
        Combinational gates in declaration order (not necessarily topological).
    dffs : tuple of (str, str)
        ``(q, d)`` pairs in declaration order: ``q`` is the state output net,
        ``d`` the next-state input net.  All flip-flops reset to 0.
    """

    name: str
    inputs: tuple[str, ...]
    outputs: tuple[str, ...]
    gates: tuple[Gate, ...]
    dffs: tuple[tuple[str, str], ...]

    def __post_init__(self) -> None:
        self._validate()

    # -- validation -------------------------------------------------------

    def _validate(self) -> None:
        defined: dict[str, str] = {}
        for x in self.inputs:
            if x in defined:
                raise BenchError(f"duplicate definition of net '{x}'")
            defined[x] = "input"
        for q, _d in self.dffs:
            if q in defined:
                raise BenchError(f"duplicate definition of net '{q}'")
            defined[q] = "dff"
        for g in self.gates:
            if g.out in defined:
                raise BenchError(f"duplicate definition of net '{g.out}'")
            defined[g.out] = "gate"
            if g.kind not in GATE_KINDS:
                raise BenchError(f"unknown gate kind '{g.kind}' for net '{g.out}'")
            if g.kind in _UNARY_KINDS:
                if len(g.ins) != 1:
                    raise BenchError(f"{g.kind} gate '{g.out}' takes exactly one input, got {len(g.ins)}")
            elif len(g.ins) < 2:
                raise BenchError(f"{g.kind} gate '{g.out}' takes at least two inputs, got {len(g.ins)}")

        for g in self.gates:
            for a in g.ins:
                if a not in defined:
                    raise BenchError(f"gate '{g.out}' reads undefined net '{a}'")
        for q, d in self.dffs:
            if d not in defined:
                raise BenchError(f"flip-flop '{q}' reads undefined net '{d}'")
        seen_out: set[str] = set()
        for y in self.outputs:
            if y not in defined:
                raise BenchError(f"primary output '{y}' is undefined")
            if y in seen_out:
                raise BenchError(f"duplicate primary output '{y}'")
            seen_out.add(y)

        self.topo_order  # raises on combinational cycles

        consumed: set[str] = set(self.outputs)
        for g in self.gates:
            consumed.update(g.ins)
        for _q, d in self.dffs:
            consumed.add(d)
        dangling = [g.out for g in self.gates if g.out not in consumed]
        if dangling:
            warnings.warn(
                f"netlist '{self.name}': dangling gate outputs: {', '.join(dangling)}",
                DanglingNetWarning,
                stacklevel=3,
            )

    @cached_property
    def topo_order(self) -> tuple[int, ...]:
        """Gate indices in dependency order; raises BenchError on a cycle."""
        producer = {g.out: i for i, g in enumerate(self.gates)}
        n = len(self.gates)
        indeg = [0] * n
        fanout: list[list[int]] = [[] for _ in range(n)]
        for i, g in enumerate(self.gates):
            for a in g.ins:
                j = producer.get(a)
                if j is not None:
                    indeg[i] += 1
                    fanout[j].append(i)
        ready = [i for i in range(n) if indeg[i] == 0]
        order: list[int] = []
        while ready:
            i = ready.pop()
            order.append(i)
            for j in fanout[i]:
                indeg[j] -= 1
                if indeg[j] == 0:
                    ready.append(j)
        if len(order) != n:
            stuck = next(self.gates[i].out for i in range(n) if indeg[i] > 0)
            raise BenchError(f"combinational cycle through net '{stuck}'")
        return tuple(order)

    # -- conveniences ------------------------------------------------------

    def stats(self) -> CircuitStats:
        return CircuitStats(len(self.inputs), len(self.outputs), len(self.dffs), len(self.gates))

    @cached_property
    def net_names(self) -> frozenset[str]:
        names = set(self.inputs)
        names.update(q for q, _ in self.dffs)
        names.update(g.out for g in self.gates)
        return frozenset(names)

    @cached_property
    def compiled(self) -> "CompiledCircuit":
        return CompiledCircuit(self)


# -- parsing ---------------------------------------------------------------

_NAME = r"[^\s(),=#]+"
_IO_RE = re.compile(rf"^(INPUT|OUTPUT)\s*\(\s*({_NAME})\s*\)$", re.IGNORECASE)
_ASSIGN_RE = re.compile(rf"^({_NAME})\s*=\s*([A-Za-z]+)\s*\(([^()=#]*)\)$")
_NAME_RE = re.compile(_NAME)


def parse_bench(text: str, name: str = "bench") -> Netlist:
    """Parse ``.bench`` text into a Netlist.

    Comments start with ``#`` and run to end of line.  Raises BenchError with
    line (and column for syntax errors) on malformed input.
    """
    inputs: list[str] = []
    outputs: list[str] = []
    gates: list[Gate] = []
    dffs: list[tuple[str, str]] = []
    def_line: dict[str, int] = {}

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = _IO_RE.match(line)
        if m:
            kw, net = m.group(1).upper(), m.group(2)
            if kw == "INPUT":
                if net in def_line:
                    raise BenchError(f"duplicate definition of net '{net}' (first at line {def_line[net]})", lineno)
                def_line[net] = lineno
                inputs.append(net)
            else:
                outputs.append(net)
            continue
        m = _ASSIGN_RE.match(line)
        if m:
            out, kind, argstr = m.group(1), m.group(2).upper(), m.group(3)
            args = [a.strip() for a in argstr.split(",")]
            if any(not a or not _NAME_RE.fullmatch(a) for a in args):
                raise BenchError(f"bad argument list for '{out}'", lineno, line.index("(") + 1)
            if out in def_line:
                raise BenchError(f"duplicate definition of net '{out}' (first at line {def_line[out]})", lineno)
            def_line[out] = lineno
            if kind == "DFF":
                if len(args) != 1:
                    raise BenchError(f"DFF '{out}' takes exactly one input, got {len(args)}", lineno)
                dffs.append((out, args[0]))
            elif kind in GATE_KINDS:
                gates.append(Gate(out, kind, tuple(args)))
            else:
                raise BenchError(f"unknown gate kind '{kind}'", lineno, line.index("=") + 2)
            continue
        col = len(raw) - len(raw.lstrip()) + 1
        raise BenchError(f"unrecognized line: {line!r}", lineno, col)

    return Netlist(name, tuple(inputs), tuple(outputs), tuple(gates), tuple(dffs))


def emit_bench(nl: Netlist) -> str:
    """Render a Netlist back to ``.bench`` text (LF line endings, deterministic)."""
    lines = [f"# {nl.name}"]
    lines += [f"INPUT({x})" for x in nl.inputs]
    lines += [f"OUTPUT({y})" for y in nl.outputs]
    lines.append("")
    lines += [f"{q} = DFF({d})" for q, d in nl.dffs]
    lines += [f"{g.out} = {g.kind}({', '.join(g.ins)})" for g in nl.gates]
    return "\n".join(lines) + "\n"


def load_bench(path: str | Path) -> Netlist:
    p = Path(path)
    return parse_bench(p.read_text(), name=p.stem)


def save_bench(nl: Netlist, path: str | Path) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(emit_bench(nl))


# -- evaluation --------------------------------------------------------------

# Gate inputs per generated function (about 16 gates): compile() holds about
# 3 KB per gate input while it runs, so one function per netlist would add
# tens of MiB of peak memory.
_CHUNK = 40
# gate kind -> (operator joining its inputs, expression around the join); only
# NOR needs parentheses, which slow compile() by about a fifth per statement
_KERNEL_OPS = {
    "AND": (" & ", "{}"), "NAND": (" & ", "{} ^ m"), "OR": (" | ", "{}"), "NOR": (" | ", "({}) ^ m"),
    "XOR": (" ^ ", "{}"), "XNOR": (" ^ ", "{} ^ m"), "NOT": ("", "{} ^ m"), "BUFF": ("", "{}"),
}


class CompiledCircuit:
    """A netlist lowered to generated straight-line Python for fast evaluation.

    Net slots: inputs first, then flip-flop outputs, then gate outputs in
    topological order.  ``eval`` is width parallel; ``width`` is the number of
    lanes packed into each word, and input bits above them are ignored.

    The kernel is built on the first ``eval``/``eval_nets`` call: each gate
    becomes one statement such as ``v[9] = v[3] & v[4] ^ m`` over the slot
    list ``v`` and lane mask ``m``, compiled into functions of about
    ``_CHUNK`` gate inputs each, which evaluation calls in order.
    """

    def __init__(self, nl: Netlist):
        self.netlist = nl
        nets = [*nl.inputs, *(q for q, _d in nl.dffs), *(nl.gates[i].out for i in nl.topo_order)]
        self.slot = slot = {net: k for k, net in enumerate(nets)}
        self._out_slots = tuple(slot[y] for y in nl.outputs)
        self._d_slots = tuple(slot[d] for _q, d in nl.dffs)

    @cached_property
    def _kernel(self) -> tuple:
        """The generated functions in topological order; each holds the gates
        whose last input is in its ``_CHUNK``-wide stretch of all gate inputs."""
        nl, slot = self.netlist, self.slot
        filename = f"<{nl.name} kernel>"
        chunks, ns = [], {}  # ns: the functions' shared globals; they read none
        ends = accumulate(len(nl.gates[i].ins) for i in nl.topo_order)
        for _, run in groupby(zip(nl.topo_order, ends), key=lambda ie: (ie[1] - 1) // _CHUNK):
            lines = []
            for i, _end in run:
                g = nl.gates[i]
                op, expr = _KERNEL_OPS[g.kind]
                lines.append(f"v[{slot[g.out]}] = " + expr.format(op.join([f"v[{slot[a]}]" for a in g.ins])))
            exec(compile("def chunk(v, m):\n    " + "\n    ".join(lines) + "\n", filename, "exec"), ns)
            chunks.append(ns.pop("chunk"))  # so no function and its globals form a cycle
        return tuple(chunks)

    def _run(self, in_words, state_words, width: int) -> list[int]:
        nl = self.netlist
        if len(in_words) != len(nl.inputs):
            raise ValueError(f"expected {len(nl.inputs)} input values, got {len(in_words)}")
        if len(state_words) != len(nl.dffs):
            raise ValueError(f"expected {len(nl.dffs)} state values, got {len(state_words)}")
        mask = (1 << width) - 1
        v = [w & mask for w in chain(in_words, state_words)]
        v += [0] * len(nl.gates)
        for chunk in self._kernel:
            chunk(v, mask)
        return v

    def eval(self, in_words, state_words=(), width: int = 1):
        """Evaluate one combinational step.

        Returns ``(outputs, next_state)`` as tuples of words aligned with
        ``netlist.outputs`` and ``netlist.dffs``.
        """
        v = self._run(in_words, state_words, width)
        return (
            tuple(v[s] for s in self._out_slots),
            tuple(v[s] for s in self._d_slots),
        )

    def eval_nets(self, in_words, state_words=(), width: int = 1) -> dict[str, int]:
        """Like eval, but returns the value of every net by name."""
        v = self._run(in_words, state_words, width)
        return {net: v[s] for net, s in self.slot.items()}


def eval_comb(nl: Netlist, in_vals, state_vals=()):
    """Evaluate the combinational core for one (input, state) assignment.

    ``in_vals``/``state_vals`` are 0/1 sequences aligned with ``nl.inputs``
    and ``nl.dffs``.  Returns ``(outputs, next_state)`` as 0/1 tuples.
    """
    return nl.compiled.eval(tuple(in_vals), tuple(state_vals), width=1)
