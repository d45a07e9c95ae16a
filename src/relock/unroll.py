"""Time-frame expansion and CNF encoding of sequential netlists.

``CnfBuilder`` is the one encoder: it encodes a netlist one clock frame at
a time into one growing clause set, with the flip-flop outputs pinned to the
previous frame's next-state values, and folds constants on the fly, so
frames with mostly pinned inputs shrink to almost nothing.  NOT and BUFF
only set a literal's sign; every other gate it does not fold takes one of
two Tseitin forms: an AND over literals (``_and_clauses``, with NAND, OR and
NOR inverting its inputs or output) or a chain of two-input XORs
(``_xor2``, with XNOR inverting the result).  ``CnfBuilder.encode_frames``
steps the frames; ``to_dimacs`` writes a builder's formula as DIMACS text.
"""

from __future__ import annotations

from .bench import Netlist


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
            out, kind, ins = nl.gates[i]
            val[out] = self._encode_gate(kind, [val[a] for a in ins])
        return val

    def encode_frames(self, nl: Netlist, state: dict, rows):
        """Encode ``nl`` one clock frame per row, starting from ``state``.

        ``state`` maps every flip-flop output to a bool or a literal (all
        False for reset).  Each row binds the primary inputs of one frame:
        either a packed word of constants (bit ``i`` drives input ``i``) or
        a sequence of per-input values.  Yields each frame's output values
        as it is encoded, so clauses a caller adds between frames follow
        that frame's clauses.
        """
        for row in rows:
            if isinstance(row, int):
                pins = {x: bool((row >> i) & 1) for i, x in enumerate(nl.inputs)}
            else:
                pins = dict(zip(nl.inputs, row))
            val = self.encode_netlist(nl, {**pins, **state})
            state = {q: val[d] for q, d in nl.dffs}
            yield [val[y] for y in nl.outputs]

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
                self.clauses += _and_clauses(y, lits)
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
                self.clauses += _xor2(aux, cur, a)
                cur = aux
            return -cur if phase else cur

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
