"""Time-frame expansion and CNF encoding of sequential netlists.

``unroll`` replicates the combinational core once per clock cycle: net ``x``
of frame ``t`` becomes flat net ``x@t``, a flip-flop output in frame ``t``
reads the flip-flop input net of frame ``t-1``, and frame 0 reads the
dedicated all-zeros net (every flip-flop resets to 0).  The result is an
ordinary combinational netlist whose inputs are the per-frame primary inputs
plus the zero net, so it can be evaluated, emitted, or encoded like any
other netlist.

``gate_clauses`` is the one Tseitin table.  ``to_cnf`` applies it plainly:
one variable per net per frame, a constant number of clauses per gate, with
auxiliary variables only for XOR and XNOR gates of arity above two.
``CnfBuilder`` is the incremental encoder used by the attack: it encodes one
clock frame of a netlist at a time into one growing clause set, with the
flip-flop outputs pinned to the previous frame's next-state values, and
folds constants on the fly, so frames with mostly pinned inputs shrink to
almost nothing.  Every gate it does not fold goes through ``gate_clauses``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

from .bench import DanglingNetWarning, Gate, Netlist

ZERO_NET = "@zero@"


@dataclass(frozen=True)
class UnrolledCircuit:
    """A sequential netlist expanded over a fixed number of frames."""

    base: Netlist
    frames: int
    netlist: Netlist
    zero_net: str

    def frame_net(self, net: str, frame: int) -> str:
        return f"{net}@{frame}"

    def frame_inputs(self, frame: int) -> tuple[str, ...]:
        return tuple(f"{x}@{frame}" for x in self.base.inputs)

    def frame_outputs(self, frame: int) -> tuple[str, ...]:
        return tuple(f"{y}@{frame}" for y in self.base.outputs)


def unroll(nl: Netlist, frames: int) -> UnrolledCircuit:
    """Expand ``nl`` over ``frames`` cycles into one combinational netlist."""
    if frames < 1:
        raise ValueError(f"frames must be >= 1, got {frames}")
    if any("@" in x and x.rpartition("@")[2].isdigit() for x in nl.net_names):
        # the @frame suffix must stay injective
        raise ValueError("net names ending in '@<digits>' would collide with frame names")
    d_of_q = dict(nl.dffs)
    gates: list[Gate] = []
    zero_used = False

    def resolve(net: str, t: int) -> str:
        # walk register-to-register chains back one frame per hop
        nonlocal zero_used
        while net in d_of_q:
            if t == 0:
                zero_used = True
                return ZERO_NET
            net = d_of_q[net]
            t -= 1
        return f"{net}@{t}"

    for t in range(frames):
        for g in nl.gates:
            gates.append(Gate(f"{g.out}@{t}", g.kind, tuple(resolve(a, t) for a in g.ins)))
        for y in nl.outputs:
            if y in d_of_q:
                # a state bit exported directly needs a defined flat net
                gates.append(Gate(f"{y}@{t}", "BUFF", (resolve(y, t),)))

    inputs = [ZERO_NET] if zero_used else []
    for t in range(frames):
        inputs.extend(f"{x}@{t}" for x in nl.inputs)
    outputs = [f"{y}@{t}" for t in range(frames) for y in nl.outputs]
    with warnings.catch_warnings():
        # last-frame next-state cones legitimately drive nothing
        warnings.simplefilter("ignore", DanglingNetWarning)
        flat = Netlist(
            name=f"{nl.name}_x{frames}",
            inputs=tuple(inputs),
            outputs=tuple(outputs),
            gates=tuple(gates),
            dffs=(),
        )
    return UnrolledCircuit(base=nl, frames=frames, netlist=flat, zero_net=ZERO_NET)


def eval_unrolled(u: UnrolledCircuit, frame_inputs) -> list[int]:
    """Evaluate the flat netlist on packed per-frame input words.

    ``frame_inputs[t]`` has bit ``b`` carrying input ``b`` of frame ``t``.
    Returns one packed output word per frame.  The zero net is tied to 0.
    """
    if len(frame_inputs) != u.frames:
        raise ValueError(f"expected {u.frames} frame inputs, got {len(frame_inputs)}")
    n_in = len(u.base.inputs)
    by_name = {}
    for t, w in enumerate(frame_inputs):
        for b in range(n_in):
            by_name[f"{u.base.inputs[b]}@{t}"] = (w >> b) & 1
    words = [0 if x == u.zero_net else by_name[x] for x in u.netlist.inputs]
    outs, _ = u.netlist.compiled.eval(words, ())
    n_out = len(u.base.outputs)
    result = []
    for t in range(u.frames):
        word = 0
        for b in range(n_out):
            word |= outs[t * n_out + b] << b
        result.append(word)
    return result


@dataclass
class Cnf:
    """A CNF formula with net annotations.

    ``var_of`` maps flat net names to DIMACS variables; ``note`` maps each
    variable back to ``(frame, net)`` (frame None for the zero net and for
    XOR chain auxiliaries).
    """

    n_vars: int
    clauses: list[tuple[int, ...]]
    var_of: dict[str, int] = field(default_factory=dict)
    note: dict[int, tuple[int | None, str]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for cl in self.clauses:
            if not cl:
                raise ValueError("empty clause at construction")
            if any(v == 0 or abs(v) > self.n_vars for v in cl):
                raise ValueError(f"literal out of range in {cl}")


def _split_frame(flat: str) -> tuple[int | None, str]:
    base, sep, t = flat.rpartition("@")
    if sep and t.isdigit():
        return int(t), base
    return None, flat


def gate_clauses(kind: str, y: int, ins: list[int], new_aux) -> list[tuple[int, ...]]:
    """Tseitin clauses for ``y <-> kind(ins)`` over signed literals.

    ``new_aux`` allocates a fresh variable for XOR/XNOR chains of arity
    above two.
    """
    if kind == "AND":
        return [(-y, a) for a in ins] + [tuple([y] + [-a for a in ins])]
    if kind == "NAND":
        return [(y, a) for a in ins] + [tuple([-y] + [-a for a in ins])]
    if kind == "OR":
        return [(y, -a) for a in ins] + [tuple([-y] + list(ins))]
    if kind == "NOR":
        return [(-y, -a) for a in ins] + [tuple([y] + list(ins))]
    if kind == "NOT":
        (a,) = ins
        return [(y, a), (-y, -a)]
    if kind == "BUFF":
        (a,) = ins
        return [(y, -a), (-y, a)]
    if kind in ("XOR", "XNOR"):
        clauses: list[tuple[int, ...]] = []
        cur = ins[0]
        for a in ins[1:-1]:
            aux = new_aux()
            clauses += _xor2(aux, cur, a)
            cur = aux
        last = ins[-1]
        if kind == "XOR":
            clauses += _xor2(y, cur, last)
        else:
            clauses += _xor2(-y, cur, last)
        return clauses
    raise ValueError(f"unknown gate kind {kind!r}")


def _xor2(y: int, a: int, b: int) -> list[tuple[int, ...]]:
    return [(-y, a, b), (-y, -a, -b), (y, -a, b), (y, a, -b)]


def to_cnf(u: UnrolledCircuit, assumptions=()) -> Cnf:
    """Tseitin-encode the unrolled circuit.

    ``assumptions`` are signed literals over the returned variables, added
    as unit clauses.  The zero net, when present, is pinned to false.
    """
    nl = u.netlist
    var_of: dict[str, int] = {}
    note: dict[int, tuple[int | None, str]] = {}

    def add_var(net: str) -> int:
        v = len(var_of) + 1
        var_of[net] = v
        note[v] = _split_frame(net) if net != u.zero_net else (None, u.zero_net)
        return v

    aux_notes: list[int] = []
    for x in nl.inputs:
        add_var(x)
    for i in nl.topo_order:
        add_var(nl.gates[i].out)

    n_vars = len(var_of)
    clauses: list[tuple[int, ...]] = []

    def new_aux() -> int:
        nonlocal n_vars
        n_vars += 1
        note[n_vars] = (None, f"@aux{len(aux_notes)}@")
        aux_notes.append(n_vars)
        return n_vars

    for i in nl.topo_order:
        g = nl.gates[i]
        clauses += gate_clauses(g.kind, var_of[g.out], [var_of[a] for a in g.ins], new_aux)
    if u.zero_net in var_of:
        clauses.append((-var_of[u.zero_net],))
    for lit in assumptions:
        clauses.append((int(lit),))
    return Cnf(n_vars=n_vars, clauses=clauses, var_of=var_of, note=note)


def to_dimacs(cnf: Cnf, comments=()) -> str:
    """Standard DIMACS text; deterministic byte-for-byte."""
    lines = [f"c {c}" for c in comments]
    lines.append(f"p cnf {cnf.n_vars} {len(cnf.clauses)}")
    for cl in cnf.clauses:
        lines.append(" ".join(str(v) for v in cl) + " 0")
    return "\n".join(lines) + "\n"


class CnfBuilder:
    """Incremental constant-folding encoder for netlist frames.

    Net values are either Python bools (constants) or nonzero signed ints
    (literals over allocated variables).  ``encode_netlist`` returns the
    value of every net of one frame; pinned inputs drive the folding, so a
    frame whose inputs are all constants reduces to pure evaluation.
    """

    def __init__(self) -> None:
        self.n_vars = 0
        self.clauses: list[tuple[int, ...]] = []
        self.contradiction = False

    def new_var(self) -> int:
        self.n_vars += 1
        return self.n_vars

    def add_clause(self, lits) -> None:
        cl = tuple(lits)
        if not cl:
            self.contradiction = True
            return
        self.clauses.append(cl)

    def pin(self, value, bit: int) -> None:
        """Constrain a net value to a constant bit."""
        if isinstance(value, bool):
            if value != bool(bit):
                self.contradiction = True
            return
        self.add_clause([value if bit else -value])

    def encode_netlist(self, nl: Netlist, pins: dict) -> dict:
        """Encode one clock frame of ``nl`` with its sources bound by ``pins``.

        ``pins`` maps every primary input name, and every flip-flop output
        name of a sequential netlist, to a bool or a signed literal.
        Returns net name -> value for all nets; the next state is the
        value of each flip-flop's input net.
        """
        val: dict[str, int | bool] = {}
        n_in = len(nl.inputs)
        for k, x in enumerate((*nl.inputs, *(q for q, _d in nl.dffs))):
            if x not in pins:
                if k < n_in:
                    raise ValueError(f"unpinned primary input '{x}'")
                raise ValueError(
                    f"unpinned flip-flop output '{x}': CnfBuilder encodes combinational"
                    " logic, so a sequential netlist needs its state pinned"
                )
            v = pins[x]
            if not isinstance(v, bool) and v == 0:
                # int literals must be nonzero; constants must be bools
                raise ValueError(f"pin for '{x}' is 0; use False for a constant")
            val[x] = v
        for i in nl.topo_order:
            g = nl.gates[i]
            val[g.out] = self._encode_gate(g.kind, [val[a] for a in g.ins])
        return val

    # -- gate folding ------------------------------------------------------

    def _encode_gate(self, kind: str, ins: list):
        if kind in ("NOT", "BUFF"):
            a = ins[0]
            flip = kind == "NOT"
            if isinstance(a, bool):
                return a ^ flip
            return -a if flip else a

        if kind in ("AND", "NAND", "OR", "NOR"):
            # normalize to an AND over literals, possibly inverted in or out
            invert_in = kind in ("OR", "NOR")
            invert_out = kind in ("NAND", "OR")
            lits: list[int] = []
            seen: set[int] = set()
            for a in ins:
                if invert_in:
                    a = (not a) if isinstance(a, bool) else -a
                if isinstance(a, bool):
                    if not a:
                        return invert_out
                    continue
                if -a in seen:
                    return invert_out
                if a not in seen:
                    seen.add(a)
                    lits.append(a)
            if not lits:
                return not invert_out
            if len(lits) == 1:
                y = lits[0]
            else:
                y = self.new_var()
                self.clauses += gate_clauses("AND", y, lits, self.new_var)
            return -y if invert_out else y

        if kind in ("XOR", "XNOR"):
            phase = kind == "XNOR"
            lits = []
            for a in ins:
                if isinstance(a, bool):
                    phase ^= a
                elif -a in lits:
                    # x xor (not x) contributes a constant one
                    lits.remove(-a)
                    phase = not phase
                elif a in lits:
                    lits.remove(a)
                else:
                    lits.append(a)
            if not lits:
                return phase
            if len(lits) == 1:
                return -lits[0] if phase else lits[0]
            cur = lits[0]
            for a in lits[1:]:
                aux = self.new_var()
                self.clauses += gate_clauses("XOR", aux, [cur, a], self.new_var)
                cur = aux
            return -cur if phase else cur

        raise ValueError(f"unknown gate kind {kind!r}")

    def xor_value(self, a, b):
        """Value of a ⊕ b for mixed bool/literal operands."""
        return self._encode_gate("XOR", [a, b])
