"""XNOR-feedback Fibonacci LFSRs used as the on-chip PRNG.

State is an n-bit unsigned int; bit 0 is register cell 0 (the project-wide
LSB-first convention).  A step shifts every cell up by one position and
inserts the feedback bit at cell 0.  The feedback is a left fold of two-input
XNOR gates over the tapped cells (tap ``t`` reads bit ``t-1``), which for the
usual even-sized tap sets equals NOT(parity).  Under XNOR feedback the
all-ones state is the single absorbing state, so it is rejected as a seed;
all-zeros is a valid state, which lets the register free-run from the same
reset value as every other flip-flop in a design.

``MAXIMAL_TAPS`` holds one tap set per width that walks all ``2**n - 1``
non-absorbing states; every entry is re-verified by exhaustive enumeration in
the test suite.
"""

from __future__ import annotations

from typing import NamedTuple

MAXIMAL_TAPS: dict[int, tuple[int, ...]] = {
    2: (2, 1),
    3: (3, 2),
    4: (4, 3),
    5: (5, 3),
    6: (6, 5),
    7: (7, 6),
    8: (8, 6, 5, 4),
    9: (9, 5),
    10: (10, 7),
    11: (11, 9),
    12: (12, 6, 4, 1),
    13: (13, 4, 3, 1),
    14: (14, 5, 3, 1),
    15: (15, 14),
    16: (16, 15, 13, 4),
}

_PERIOD_WIDTH_LIMIT = 22


class _LfsrFields(NamedTuple):
    width: int
    taps: tuple[int, ...]
    state: int


class Lfsr(_LfsrFields):
    """An LFSR configuration plus its current state, validated on construction."""

    __slots__ = ()

    def __new__(cls, width: int, taps: tuple[int, ...], state: int):
        if width < 1:
            raise ValueError(f"width must be >= 1, got {width}")
        if not taps:
            raise ValueError("tap set must be nonempty")
        if len(set(taps)) != len(taps):
            raise ValueError(f"repeated tap in {taps}")
        if any(t < 1 or t > width for t in taps):
            raise ValueError(f"taps {taps} out of range for width {width}")
        if max(taps) != width:
            raise ValueError(f"highest tap must equal the width, got {taps}")
        mask = (1 << width) - 1
        if not 0 <= state <= mask:
            raise ValueError(f"state {state:#x} does not fit in {width} bits")
        if state == mask:
            raise ValueError("all-ones is the absorbing state and not a valid seed")
        return super().__new__(cls, width, taps, state)

    @classmethod
    def _make(cls, iterable):  # so _replace validates too
        return cls(*iterable)


def new_lfsr(width: int, taps=None, seed: int = 0) -> Lfsr:
    """Build an LFSR.

    With ``taps=None`` the built-in maximal-length tap set for the width is
    used (widths 2..16).  ``seed`` is the initial state; all-zeros is the
    default so the register free-runs from circuit reset.
    """
    if taps is None:
        if width not in MAXIMAL_TAPS:
            raise ValueError(f"no built-in tap set for width {width}; pass taps explicitly")
        taps = MAXIMAL_TAPS[width]
    return Lfsr(width, tuple(sorted(set(taps))), seed)


def _feedback(state: int, taps: tuple[int, ...]) -> int:
    acc = (state >> (taps[0] - 1)) & 1
    for t in taps[1:]:
        acc = 1 - (acc ^ ((state >> (t - 1)) & 1))
    return acc


def _shift(state: int, mask: int, taps: tuple[int, ...]) -> int:
    """The state one clock after ``state``; ``mask`` is ``2**width - 1``."""
    return ((state << 1) & mask) | _feedback(state, taps)


def step(g: Lfsr) -> tuple[Lfsr, int]:
    """Advance one clock; tested reference API (the package steps ``_shift``).

    Returns ``(next_lfsr, out)``, ``out`` the register state before the shift.
    """
    return Lfsr(g.width, g.taps, _shift(g.state, (1 << g.width) - 1, g.taps)), g.state


def period(g: Lfsr) -> int:
    """Length of the state cycle containing ``g.state``, by enumeration.

    Stepping is a bijection on non-absorbing states, so every valid seed lies
    on a closed cycle.  Guarded to small widths; enumeration is exponential.
    Tested reference API: the tests re-verify ``MAXIMAL_TAPS`` with it.
    """
    if g.width > _PERIOD_WIDTH_LIMIT:
        raise ValueError(f"period enumeration capped at width {_PERIOD_WIDTH_LIMIT}")
    mask = (1 << g.width) - 1
    cur = _shift(g.state, mask, g.taps)
    n = 1
    while cur != g.state:
        cur = _shift(cur, mask, g.taps)
        n += 1
    return n
