"""Time-frame expansion and CNF encoding of sequential netlists.

``CnfBuilder`` is the one encoder: it encodes a netlist one clock frame at
a time into one growing clause set, with the flip-flop outputs pinned to the
previous frame's next-state values, and folds constants on the fly, so
frames with mostly pinned inputs shrink to almost nothing.  A frame steps
the netlist's ``frame_program`` (each gate's kind and input slots, in
topological order) over a list of net values, folding each gate inline in
``CnfBuilder.encode_netlist``; only XORs wider than two inputs go through
``CnfBuilder._encode_gate``, the gate-by-gate form of the same folding.
NOT and BUFF only set a literal's sign; every other gate that does not fold
to a constant or a literal takes one of two Tseitin forms: an AND over
literals (``_and_clauses``, with NAND, OR and NOR inverting its inputs or
output) or a chain of two-input XORs (``_xor2``, with XNOR inverting the
result).  A frame may step a gate subset instead, a program of
``nl.frame_cones``, with the same folding and forms.
``CnfBuilder.encode_frames`` steps the frames; ``to_dimacs`` writes a
builder's formula, its empty clause too, as DIMACS text.
"""

from __future__ import annotations

from itertools import repeat

from .bench import Netlist


# kind -> (invert the inputs, invert the output) of the AND it folds into
_AND_FORMS = {"AND": (False, False), "NAND": (False, True), "OR": (True, True), "NOR": (True, False)}


def _and_clauses(y: int, lits: list[int]) -> list[tuple[int, ...]]:
    """Tseitin clauses for ``y <-> AND(lits)`` over signed literals."""
    return [*[(-y, a) for a in lits], (y, *[-a for a in lits])]


def _xor2(y: int, a: int, b: int) -> list[tuple[int, ...]]:
    """Tseitin clauses for ``y <-> a XOR b`` over signed literals."""
    return [(-y, a, b), (-y, -a, -b), (y, -a, b), (y, a, -b)]


class CnfBuilder:
    """Incremental constant-folding encoder for netlist frames.

    Net values are either Python bools (constants) or nonzero signed ints
    (literals over allocated variables).  ``encode_netlist`` returns the
    value of every net of one frame; pinned inputs drive the folding, so a
    frame whose inputs are all constants reduces to pure evaluation.
    A formula is false only by holding the empty clause ``()``, which
    pinning a constant to the other value adds.
    """

    def __init__(self) -> None:
        self.n_vars = 0
        self.clauses: list[tuple[int, ...]] = []

    def new_var(self) -> int:
        self.n_vars += 1
        return self.n_vars

    def add_clause(self, lits) -> None:
        self.clauses.append(tuple(lits))

    def pin(self, value, bit: int) -> None:
        """Constrain a net value to a constant bit."""
        if not isinstance(value, bool):
            self.add_clause([value if bit else -value])
        elif value != bool(bit):
            self.add_clause(())

    def encode_netlist(self, nl: Netlist, inputs, state=(), program=None) -> list:
        """Encode one clock frame of ``nl`` from the values of its sources.

        ``inputs`` holds a bool or a signed literal per primary input and
        ``state`` one per flip-flop output, both in declaration order.
        Returns the value of every net, indexed by its slot in
        ``nl.compiled.slot``: the sources, then the gate outputs in
        topological order.  ``nl.frame_program`` names the slots of the
        outputs and of the next state; with ``program``, one of
        ``nl.frame_cones``, the gates and slots are that program's.

        Every gate but a wide XOR is folded here, inline, into exactly the
        clauses, variable numbers and values that ``_encode_gate`` gives
        it, appended to ``self.clauses`` in place.
        """
        if (len(inputs), len(state)) != (len(nl.inputs), len(nl.dffs)):
            raise ValueError(
                f"{len(inputs)} input and {len(state)} state values for {len(nl.inputs)} inputs and"
                f" {len(nl.dffs)} flip-flops: a sequential netlist needs its state pinned"
            )
        val = [*inputs, *state]
        for k, v in enumerate(val):
            if v == 0 and v is not False:
                # int literals must be nonzero; constants must be bools
                x = (*nl.inputs, *(q for q, _d in nl.dffs))[k]
                raise ValueError(f"pin for '{x}' is 0; use False for a constant")
        push, clauses, n = val.append, self.clauses, self.n_vars
        for kind, slots in (program or nl.frame_program)[0]:
            form = _AND_FORMS.get(kind)
            if form is not None:
                invert_in, invert_out = form
                lits: list[int] = []
                for s in slots:
                    a = val[s]
                    if a is True or a is False:
                        if a is invert_in:
                            break  # a controlling input
                        continue
                    if invert_in:
                        a = -a
                    if a not in lits:
                        if -a in lits:
                            break  # x and not x
                        lits.append(a)
                else:
                    if len(lits) > 1:
                        n += 1
                        if len(lits) == 2:
                            a, b = lits
                            clauses += ((-n, a), (-n, b), (n, -a, -b))  # _and_clauses(n, lits)
                        else:
                            clauses += _and_clauses(n, lits)
                        push(-n if invert_out else n)
                    elif lits:
                        push(-lits[0] if invert_out else lits[0])
                    else:
                        push(not invert_out)
                    continue
                push(invert_out)  # the AND is false
            elif kind == "NOT":
                a = val[slots[0]]
                push((not a) if a is True or a is False else -a)
            elif kind == "BUFF":
                push(val[slots[0]])
            elif len(slots) == 2 and (kind == "XOR" or kind == "XNOR"):
                phase = kind == "XNOR"
                a, b = val[slots[0]], val[slots[1]]
                if a is True or a is False:
                    a, b = b, a  # a constant, if there is one, in b
                if b is True or b is False:
                    phase ^= b
                    if a is True or a is False:
                        push(phase ^ a)
                    else:
                        push(-a if phase else a)
                elif a == b or a == -b:
                    push(phase ^ (a != b))  # x xor (not x) is a constant one
                else:
                    n += 1
                    clauses += ((-n, a, b), (-n, -a, -b), (n, -a, b), (n, a, -b))  # _xor2(n, a, b)
                    push(-n if phase else n)
            else:
                self.n_vars = n
                push(self._encode_gate(kind, [val[s] for s in slots]))
                n = self.n_vars
        self.n_vars = n
        return val

    def encode_frames(self, nl: Netlist, state, rows, programs=()):
        """Encode ``nl`` one clock frame per row, starting from ``state``.

        ``state`` holds a bool or a literal per flip-flop output (all False
        for reset).  Each row binds the primary inputs of one frame: either
        a packed word of constants (bit ``i`` drives input ``i``) or a
        sequence of per-input values.  Yields each frame's output values
        as it is encoded, so clauses a caller adds between frames follow
        that frame's clauses.  ``programs``, if given, holds exactly one
        frame program per row (``nl.frame_program`` or one of
        ``nl.frame_cones``), or ``ValueError`` is raised; a next-state bit
        outside a cone is None.
        """
        n_in = len(nl.inputs)
        for row, program in zip(rows, programs or repeat(nl.frame_program), strict=bool(programs)):
            if isinstance(row, int):
                row = [bool((row >> i) & 1) for i in range(n_in)]
            val = self.encode_netlist(nl, row, state, program)
            _gates, outputs, next_state = program
            state = [None if s is None else val[s] for s in next_state]
            yield [val[s] for s in outputs]

    # -- gate folding ------------------------------------------------------

    def _encode_gate(self, kind: str, ins: list):
        form = _AND_FORMS.get(kind)
        if form is not None:
            # an AND over literals, possibly inverted in or out
            invert_in, invert_out = form
            lits: list[int] = []
            seen: set[int] = set()
            for a in ins:
                if a is True or a is False:
                    if a is invert_in:
                        return invert_out  # a controlling input
                    continue
                if invert_in:
                    a = -a
                if a not in seen:
                    if -a in seen:
                        return invert_out
                    seen.add(a)
                    lits.append(a)
            if not lits:
                return not invert_out
            if len(lits) == 1:
                y = lits[0]
            else:
                y = self.new_var()
                self.clauses += _and_clauses(y, lits)
            return -y if invert_out else y

        if kind in ("XOR", "XNOR"):
            phase = kind == "XNOR"
            # the live literals in first-seen order; a dict removes in O(1)
            live: dict[int, None] = {}
            for a in ins:
                if a is True or a is False:
                    phase ^= a
                elif -a in live:
                    # x xor (not x) contributes a constant one
                    del live[-a]
                    phase = not phase
                elif a in live:
                    del live[a]
                else:
                    live[a] = None
            if not live:
                return phase
            cur, *rest = live
            if not rest:
                return -cur if phase else cur
            for a in rest:
                aux = self.new_var()
                self.clauses += _xor2(aux, cur, a)
                cur = aux
            return -cur if phase else cur

        if kind in ("NOT", "BUFF"):
            a = ins[0]
            if kind == "BUFF":
                return a
            return (not a) if a is True or a is False else -a

        raise ValueError(f"unknown gate kind {kind!r}")

    def xor_value(self, a, b):
        """Value of a ⊕ b for mixed bool/literal operands."""
        return self._encode_gate("XOR", [a, b])


def to_dimacs(b: CnfBuilder, comments=()) -> str:
    """Standard DIMACS text of a builder's formula, the empty clause as the
    line ``0``; deterministic byte for byte."""
    lines = [f"c {c}" for c in comments]
    lines.append(f"p cnf {b.n_vars} {len(b.clauses)}")
    for cl in b.clauses:
        lines.append(" ".join([*map(str, cl), "0"]))
    return "\n".join(lines) + "\n"
