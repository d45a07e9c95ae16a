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
from array import array
from copy import copy
from functools import cache, cached_property
from itertools import accumulate, chain
from operator import itemgetter
from pathlib import Path
from sys import intern
from typing import NamedTuple

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


class Gate(NamedTuple):
    """One primitive gate: ``out = kind(ins...)``."""

    out: str
    kind: str
    ins: tuple[str, ...]


class CircuitStats(NamedTuple):
    n_inputs: int
    n_outputs: int
    n_dffs: int
    n_gates: int


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
    topo_order : tuple of int
        Gate indices in dependency order, set by validation, which raises
        BenchError on a combinational cycle.

    Equality, hashing and ``repr`` cover the five declared fields only.
    Attributes cannot be set or deleted.
    """

    name: str
    inputs: tuple[str, ...]
    outputs: tuple[str, ...]
    gates: tuple[Gate, ...]
    dffs: tuple[tuple[str, str], ...]
    topo_order: tuple[int, ...]
    _reads: tuple[int, ...]  # gate inputs reading each gate

    def __init__(self, name: str, inputs, outputs, gates, dffs) -> None:
        d = self.__dict__  # written directly: assignment raises
        d.update(name=name, inputs=inputs, outputs=outputs, gates=gates, dffs=dffs)
        d["topo_order"], d["_reads"] = self._validate()

    def _key(self) -> tuple:
        return (self.name, self.inputs, self.outputs, self.gates, self.dffs)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return (
            f"Netlist(name={self.name!r}, inputs={self.inputs!r}, outputs={self.outputs!r}, "
            f"gates={self.gates!r}, dffs={self.dffs!r})"
        )

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field '{name}'")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field '{name}'")

    # -- validation -------------------------------------------------------

    def _validate(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Raise BenchError on a malformed netlist, else return the gate
        indices in dependency order and how many gate inputs read each gate."""
        ids = list(range(len(self.gates)))  # one int object per gate index, however often stored
        driver: dict[str, int] = {}  # net -> the gate that drives it, or -1 for a source
        for x in self.inputs:
            if x in driver:
                raise BenchError(f"duplicate definition of net '{x}'")
            driver[x] = -1
        for q, _d in self.dffs:
            if q in driver:
                raise BenchError(f"duplicate definition of net '{q}'")
            driver[q] = -1
        for i, (out, kind, ins) in zip(ids, self.gates):
            if out in driver:
                raise BenchError(f"duplicate definition of net '{out}'")
            driver[out] = i
            if kind not in GATE_KINDS:
                raise BenchError(f"unknown gate kind '{kind}' for net '{out}'")
            if kind in _UNARY_KINDS:
                if len(ins) != 1:
                    raise BenchError(f"{kind} gate '{out}' takes exactly one input, got {len(ins)}")
            elif len(ins) < 2:
                raise BenchError(f"{kind} gate '{out}' takes at least two inputs, got {len(ins)}")

        # one pass over the gate inputs: undefined nets, readers per gate and
        # the gate-to-gate edges, driver src[k] read by gate dst[k]
        n = len(ids)
        reads = [0] * n
        indeg = [0] * n
        src: list[int] = []
        dst: list[int] = []
        for i, g in zip(ids, self.gates):
            for a in g.ins:
                j = driver.get(a)
                if j is None:
                    raise BenchError(f"gate '{g.out}' reads undefined net '{a}'")
                if j >= 0:
                    reads[j] += 1
                    indeg[i] += 1
                    src.append(j)
                    dst.append(i)
        for q, d in self.dffs:
            if d not in driver:
                raise BenchError(f"flip-flop '{q}' reads undefined net '{d}'")
        seen_out: set[str] = set()
        for y in self.outputs:
            if y not in driver:
                raise BenchError(f"primary output '{y}' is undefined")
            if y in seen_out:
                raise BenchError(f"duplicate primary output '{y}'")
            seen_out.add(y)
        del driver

        # Kahn's sort over flat fan-out arrays: gate j's readers, in reading
        # order, are fan[start[j]:start[j + 1]]
        start = array("i", accumulate(reads, initial=0))
        fan = [0] * len(src)
        nxt = start[:-1]
        for j, i in zip(src, dst):
            fan[nxt[j]] = i
            nxt[j] += 1
        del src, dst, nxt
        ready = [i for i, d in zip(ids, indeg) if d == 0]
        order: list[int] = []
        while ready:
            i = ready.pop()
            order.append(i)
            for j in fan[start[i] : start[i + 1]]:
                indeg[j] -= 1
                if indeg[j] == 0:
                    ready.append(j)
        if len(order) != n:
            stuck = next(g.out for g, d in zip(self.gates, indeg) if d > 0)
            raise BenchError(f"combinational cycle through net '{stuck}'")

        sinks = seen_out.union(d for _q, d in self.dffs)
        dangling = [g.out for g, r in zip(self.gates, reads) if not r and g.out not in sinks]
        if dangling:
            warnings.warn(
                f"netlist '{self.name}': dangling gate outputs: {', '.join(dangling)}",
                DanglingNetWarning,
                stacklevel=3,
            )
        return tuple(order), tuple(reads)

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
    def frame_program(self) -> tuple:
        """``(gates, outputs, next_state)`` over the net slots of ``compiled.slot``.

        ``gates`` holds ``(kind, input slots)`` per gate in topological order;
        gate ``k`` writes slot ``len(inputs) + len(dffs) + k``.  ``outputs`` and
        ``next_state`` are the slots of the primary outputs and of the
        flip-flop inputs.  ``CnfBuilder`` steps it once per clock frame.
        """
        slot = self.compiled.slot
        gates = tuple((g.kind, tuple(slot[a] for a in g.ins)) for g in map(self.gates.__getitem__, self.topo_order))
        return gates, tuple(slot[y] for y in self.outputs), tuple(slot[d] for _q, d in self.dffs)

    @cached_property
    def frame_cones(self) -> tuple:
        """``frame_program``s of the last two frames of an unrolling that reads
        every output, in frame order, each over only the gates its outputs and
        the next frame's cone read.  Cone gate ``k`` writes slot
        ``len(inputs) + len(dffs) + k``; a next-state bit outside it is None."""
        gates, outputs, next_state = self.frame_program
        n_in, n_src = len(self.inputs), len(self.inputs) + len(self.dffs)
        cones, need = [], set(outputs)
        while len(cones) < 2:
            for k in range(len(gates) - 1, -1, -1):
                if n_src + k in need:
                    need.update(gates[k][1])
            keep = [k for k in range(len(gates)) if n_src + k in need]
            slot = {s: s for s in range(n_src)} | {n_src + k: n_src + i for i, k in enumerate(keep)}
            program = tuple((gates[k][0], tuple(slot[s] for s in gates[k][1])) for k in keep)
            cones.insert(0, (program, tuple(slot[s] for s in outputs), tuple(slot.get(s) for s in next_state)))
            need = {*outputs, *(d for i, d in enumerate(next_state) if n_in + i in need)}
        return tuple(cones)

    @cached_property
    def compiled(self) -> "CompiledCircuit":
        # built on a shallow copy, which caches no circuit: with no reference
        # cycle, a dropped netlist and its kernel are freed at once, not by
        # the next full garbage collection
        return CompiledCircuit(copy(self))


# -- parsing ---------------------------------------------------------------

_NAME = r"[^\s(),=#]+"
# the one line form emit_bench writes for a gate or flip-flop
_CANONICAL_RE = re.compile(rf"({_NAME}) = ([A-Z]+)\(({_NAME}(?:, {_NAME})*)\)")
_IO_RE = re.compile(rf"^(INPUT|OUTPUT)\s*\(\s*({_NAME})\s*\)$", re.IGNORECASE)


@cache
def _gate_line_res() -> tuple:
    """A gate line in any spelling, its argument list and one name, compiled
    on first use: a file that emit_bench wrote has no such line."""
    return (
        re.compile(rf"^({_NAME})\s*=\s*([A-Za-z]+)\s*\(([^()=#]*)\)$"),
        # a comma-separated list of names, each with optional whitespace around it
        re.compile(rf"\s*{_NAME}\s*(?:,\s*{_NAME}\s*)*"),
        re.compile(_NAME),
    )


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
        m = _CANONICAL_RE.fullmatch(raw)
        if m:  # the form emit_bench writes, which the general path below reads alike
            line = raw
            out, kind, argstr = m.groups()
            args = argstr.split(", ")
        else:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            m = _IO_RE.match(line)
            if m:
                kw, net = m.group(1).upper(), intern(m.group(2))
                if kw == "INPUT":
                    if net in def_line:
                        raise BenchError(f"duplicate definition of net '{net}' (first at line {def_line[net]})", lineno)
                    def_line[net] = lineno
                    inputs.append(net)
                else:
                    outputs.append(net)
                continue
            assign_re, args_re, name_re = _gate_line_res()
            m = assign_re.match(line)
            if not m:
                col = len(raw) - len(raw.lstrip()) + 1
                raise BenchError(f"unrecognized line: {line!r}", lineno, col)
            out, kind, argstr = m.groups()
            kind = kind.upper()
            if not args_re.fullmatch(argstr):
                raise BenchError(f"bad argument list for '{out}'", lineno, line.index("(") + 1)
            args = name_re.findall(argstr)
        # one string object per net name and per kind, however often read
        out, kind, args = intern(out), intern(kind), tuple(map(intern, args))
        if out in def_line:
            raise BenchError(f"duplicate definition of net '{out}' (first at line {def_line[out]})", lineno)
        def_line[out] = lineno
        if kind == "DFF":
            if len(args) != 1:
                raise BenchError(f"DFF '{out}' takes exactly one input, got {len(args)}", lineno)
            dffs.append((out, args[0]))
        elif kind in GATE_KINDS:
            gates.append(Gate(out, kind, args))
        else:
            raise BenchError(f"unknown gate kind '{kind}'", lineno, line.index("=") + 2)

    del def_line  # about 2 MiB on locked s38584, freed before validation adds its own peak
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

# The most gate inputs plus operators one expression may hold, so compile()
# stays shallow; and the gate inputs per generated function, so a cycle makes
# few calls while compile(), holding about 3 KB per gate input as it runs,
# peaks low (one function per netlist would add tens of MiB).
_CHUNK = 40
_FUNCTION_INPUTS = 320
# gate kind -> (operator joining its inputs, or None for one input; inverted)
_KERNEL_OPS = {
    "AND": ("&", False), "NAND": ("&", True), "OR": ("|", False), "NOR": ("|", True),
    "XOR": ("^", False), "XNOR": ("^", True), "NOT": (None, True), "BUFF": (None, False),
}
# Python binds & tighter than ^, and ^ tighter than |; a slot read is an atom
_PREC = {"|": 1, "^": 2, "&": 3}
_ATOM = 4


def _getter(slots):
    """``v -> tuple(v[s] for s in slots)``; itemgetter returns a bare item for one slot."""
    return itemgetter(*slots) if len(slots) > 1 else lambda v: tuple(v[s] for s in slots)


class CompiledCircuit:
    """A netlist lowered to generated straight-line Python for fast evaluation.

    Net slots: inputs first, then flip-flop outputs, then gate outputs in
    topological order.  ``eval`` is width parallel; ``width`` is the number of
    lanes packed into each word, and input bits above them are ignored.

    The kernel is built on the first ``eval`` call.  Each stored net gets one
    statement over the slot list ``v`` and lane mask ``m``, such as
    ``v[9] = v[3] & (v[4] | v[5]) ^ m``.  A gate read by exactly one gate
    input, and by no primary output or flip-flop, is not stored but inlined
    into its reader, parenthesised by precedence.  An inlined input that
    would carry its reader past ``_CHUNK`` gate inputs plus operators is
    stored first, so ``compile()`` stays shallow: no expression that
    inlines anything exceeds that bound (inlined whole, a 3000-gate inverter
    chain nests past the compiler's recursion limit).  A gate wider than
    ``_CHUNK`` is never inlined: it becomes a chain of statements over its
    own slot, each reading at most ``_CHUNK`` of its inputs, so no statement
    is wider.  Statements are compiled into functions of at most
    ``_FUNCTION_INPUTS`` gate inputs, which evaluation calls in order.  To
    read any net, list it among the outputs: an output is always stored.
    """

    def __init__(self, nl: Netlist):
        self.netlist = nl
        nets = [*nl.inputs, *(q for q, _d in nl.dffs), *(nl.gates[i].out for i in nl.topo_order)]
        self.slot = slot = {net: k for k, net in enumerate(nets)}
        self._outputs = _getter([slot[y] for y in nl.outputs])
        self._next_state = _getter([slot[d] for _q, d in nl.dffs])

    def _statements(self):
        """``(source, gate inputs)`` per statement in topological order."""
        nl, slot = self.netlist, self.slot
        inline = {g.out for g, r in zip(nl.gates, nl._reads) if r == 1}.difference(nl.outputs, (d for _q, d in nl.dffs))
        pending = {}  # inlined net -> (expression, precedence, gate inputs, operators)
        for i in nl.topo_order:
            out, kind, ins = nl.gates[i]
            op, inv = _KERNEL_OPS[kind]
            n_in = len(ins)
            n_op = (n_in - 1 if op else 0) + inv
            p = _PREC[op] if op else 0  # the least precedence an operand needs
            terms = []
            for a in ins:
                e = pending.pop(a, None)
                if e is not None and n_in + n_op + e[2] + e[3] > _CHUNK:
                    yield f"v[{slot[a]}] = {e[0]}", e[2]
                    e = None
                if e is None:
                    terms.append(f"v[{slot[a]}]")
                    q = _ATOM
                else:
                    n_in += e[2]
                    n_op += e[3]
                    q = e[1]
                    terms.append(e[0] if q >= p else f"({e[0]})")
            wide = len(ins) > _CHUNK
            if wide:  # every input was stored above: chain statements over the
                # gate's own slot, _CHUNK inputs each, and invert in the last
                here = f"v[{slot[out]}]"
                *head, terms = [terms[k : k + _CHUNK] for k in range(0, len(ins), _CHUNK)]
                for k, group in enumerate(head):
                    yield f"{here} = " + f" {op} ".join([here, *group] if k else group), len(group)
                n_in = len(terms)
                terms.insert(0, here)
            if op:
                text = f" {op} ".join(terms)
            else:  # NOT and BUFF take their operand's precedence
                text, p = terms[0], q
            if inv:
                text, p = (text if p >= _PREC["^"] else f"({text})") + " ^ m", _PREC["^"]
            if out in inline and not wide:
                pending[out] = (text, p, n_in, n_op)
            else:
                yield f"v[{slot[out]}] = {text}", n_in

    @cached_property
    def _kernel(self) -> tuple:
        """The statements compiled into functions of at most
        ``_FUNCTION_INPUTS`` gate inputs each, in topological order."""
        filename = f"<{self.netlist.name} kernel>"
        chunks, ns = [], {}  # ns: the functions' shared globals; they read none
        lines, size = [], 0
        # the sentinel statement at the end flushes the last function
        for line, n_in in chain(self._statements(), [("", _FUNCTION_INPUTS + 1)]):
            if lines and size + n_in > _FUNCTION_INPUTS:
                exec(compile("def chunk(v, m):\n    " + "\n    ".join(lines) + "\n", filename, "exec"), ns)
                chunks.append(ns.pop("chunk"))  # so no function and its globals form a cycle
                lines, size = [], 0
            lines.append(line)
            size += n_in
        return tuple(chunks)

    def eval(self, in_words, state_words=(), width: int = 1):
        """Evaluate one combinational step.

        Returns ``(outputs, next_state)`` as tuples of words aligned with
        ``netlist.outputs`` and ``netlist.dffs``.
        """
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
        return self._outputs(v), self._next_state(v)
