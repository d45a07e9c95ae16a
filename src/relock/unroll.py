"""Time-frame expansion and CNF encoding of sequential netlists.

``CnfBuilder`` is the one encoder: it encodes a netlist one clock frame at
a time into one growing clause set, with the flip-flop outputs pinned to the
previous frame's next-state values, and folds constants on the fly, so
frames with mostly pinned inputs shrink to almost nothing.  A frame steps
the netlist's ``frame_program`` (each gate's kind and input slots, in
topological order) over a list of net values.  NOT and BUFF only set a
literal's sign; every other gate it does not fold takes one of two Tseitin
forms: an AND over literals (``_and_clauses``, with NAND, OR and NOR
inverting its inputs or output) or a chain of two-input XORs (``_xor2``,
with XNOR inverting the result).  ``CnfBuilder.encode_frames`` steps the
frames; ``to_dimacs`` writes a builder's formula as DIMACS text.
"""

from __future__ import annotations

from .bench import Netlist


# kind -> (invert the inputs, invert the output) of the AND it folds into
_AND_FORMS = {"AND": (False, False), "NAND": (False, True), "OR": (True, True), "NOR": (True, False)}


def _and_clauses(y: int, lits: list[int]) -> list[tuple[int, ...]]:
    """Tseitin clauses for ``y <-> AND(lits)`` over signed literals."""
    return [(-y, a) for a in lits] + [(y, *(-a for a in lits))]


def _xor2(y: int, a: int, b: int) -> list[tuple[int, ...]]:
    """Tseitin clauses for ``y <-> a XOR b`` over signed literals."""
    return [(-y, a, b), (-y, -a, -b), (y, -a, b), (y, a, -b)]


class CnfBuilder:
    """Incremental constant-folding encoder for netlist frames.

    Net values are either Python bools (constants) or nonzero signed ints
    (literals over allocated variables).  ``encode_netlist`` returns the
    value of every net of one frame; pinned inputs drive the folding, so a
    frame whose inputs are all constants reduces to pure evaluation.
    An empty clause sets ``contradiction`` instead of entering ``clauses``,
    so ``to_dimacs`` and ``sat.solve`` reject a builder with the flag set.
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

    def encode_netlist(self, nl: Netlist, inputs, state=()) -> list:
        """Encode one clock frame of ``nl`` from the values of its sources.

        ``inputs`` holds a bool or a signed literal per primary input and
        ``state`` one per flip-flop output, both in declaration order.
        Returns the value of every net, indexed by its slot in
        ``nl.compiled.slot``: the sources, then the gate outputs in
        topological order.  ``nl.frame_program`` names the slots of the
        outputs and of the next state.
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
        fold, get = self._encode_gate, val.__getitem__
        for kind, slots in nl.frame_program[0]:
            val.append(fold(kind, [*map(get, slots)]))
        return val

    def encode_frames(self, nl: Netlist, state, rows):
        """Encode ``nl`` one clock frame per row, starting from ``state``.

        ``state`` holds a bool or a literal per flip-flop output (all False
        for reset).  Each row binds the primary inputs of one frame: either
        a packed word of constants (bit ``i`` drives input ``i``) or a
        sequence of per-input values.  Yields each frame's output values
        as it is encoded, so clauses a caller adds between frames follow
        that frame's clauses.
        """
        _gates, outputs, next_state = nl.frame_program
        n_in = len(nl.inputs)
        for row in rows:
            if isinstance(row, int):
                row = [bool((row >> i) & 1) for i in range(n_in)]
            val = self.encode_netlist(nl, row, state)
            state = [val[s] for s in next_state]
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
            lits = []
            for a in ins:
                if a is True or a is False:
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
    """Standard DIMACS text of a builder's formula; deterministic byte for byte."""
    if b.contradiction:
        raise ValueError("builder has its contradiction flag set: the formula is unsatisfiable")
    lines = [f"c {c}" for c in comments]
    lines.append(f"p cnf {b.n_vars} {len(b.clauses)}")
    for cl in b.clauses:
        lines.append(" ".join(str(v) for v in cl) + " 0")
    return "\n".join(lines) + "\n"
