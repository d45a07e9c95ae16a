"""LFSR stepping, periods, and the built-in tap table."""

import pytest

from relock import new_lfsr, period, step
from relock.lfsr import MAXIMAL_TAPS, _feedback


def enumerate_states(g):
    """Walk from g.state until the state repeats; return the visited list."""
    seen = [g.state]
    cur, _ = step(g)
    while cur.state != g.state:
        seen.append(cur.state)
        cur, _ = step(cur)
    return seen


def outputs(g, count):
    """The next ``count`` outputs of ``step``, starting with the current state."""
    out = []
    for _ in range(count):
        g, r = step(g)
        out.append(r)
    return out


def test_all_ones_seed_rejected():
    with pytest.raises(ValueError, match="absorbing"):
        new_lfsr(3, seed=0b111)


def test_all_ones_is_a_fixed_point_of_the_update():
    # shifting all-ones and inserting its feedback bit reproduces all-ones,
    # so the state is absorbing; checked on the raw update, the constructor
    # refuses to build it
    state = 0b111
    fb = _feedback(state, (2, 3))
    assert fb == 1
    assert ((state << 1) & 0b111) | fb == state


def test_empty_and_out_of_range_taps_rejected():
    with pytest.raises(ValueError):
        new_lfsr(3, taps=())
    with pytest.raises(ValueError):
        new_lfsr(3, taps=(4, 2))
    with pytest.raises(ValueError, match="highest tap"):
        new_lfsr(3, taps=(2, 1))


def test_unknown_width_needs_explicit_taps():
    with pytest.raises(ValueError, match="built-in"):
        new_lfsr(40)
    assert new_lfsr(40, taps=(40, 21)).width == 40


def test_step_from_zero_sets_exactly_one_bit():
    # XNOR of all-zero taps is 1, shifted into cell 0
    g = new_lfsr(3, taps=(3, 2), seed=0)
    nxt, out = step(g)
    assert out == 0
    assert nxt.state == 0b001


def test_step_output_is_pre_shift_state():
    g = new_lfsr(5, seed=0b01011)
    _, out = step(g)
    assert out == 0b01011


def test_step_is_pure():
    g = new_lfsr(5, seed=3)
    assert step(g) == step(g)
    assert g.state == 3  # untouched


def test_width3_reference_sequence():
    # hand-stepped: 000 -> 001 -> 011 -> 110 -> 101 -> 010 -> 100 -> 000
    g = new_lfsr(3, taps=(3, 2), seed=0)
    assert outputs(g, 8) == [0, 1, 3, 6, 5, 2, 4, 0]


def test_width3_alternate_taps_sequence():
    g = new_lfsr(3, taps=(3, 1), seed=0)
    assert outputs(g, 8) == [0, 1, 2, 5, 3, 6, 4, 0]


def test_seven_steps_visit_seven_distinct_states():
    g = new_lfsr(3, taps=(3, 2), seed=0)
    states = enumerate_states(g)
    assert len(states) == 7
    assert len(set(states)) == 7


def test_period_examples():
    assert period(new_lfsr(5)) == 31
    assert period(new_lfsr(3, taps=(3, 2))) == 7
    assert period(new_lfsr(1, taps=(1,), seed=0)) == 1


def test_period_rejects_large_widths():
    with pytest.raises(ValueError, match="capped"):
        period(new_lfsr(30, taps=(30, 1)))


def test_period_is_seed_independent_for_maximal_taps():
    for seed in range(31):
        assert period(new_lfsr(5, seed=seed)) == 31


@pytest.mark.parametrize("n", sorted(MAXIMAL_TAPS))
def test_builtin_taps_are_maximal(n):
    # exhaustive: the cycle from seed 0 covers every non-absorbing state
    g = new_lfsr(n, seed=0)
    states = enumerate_states(g)
    assert len(states) == 2**n - 1
    assert len(set(states)) == 2**n - 1


def test_output_sum_over_full_period():
    # sum of outputs over one period = sum of all n-bit values minus all-ones
    for n in (3, 5, 8):
        g = new_lfsr(n, seed=0)
        p = period(g)
        total = sum(outputs(g, p))
        mask = (1 << n) - 1
        assert total == (1 << n) * mask // 2 - mask


def test_sequence_prefix_of_longer_run():
    g = new_lfsr(6, seed=0)
    assert outputs(g, 10) == outputs(g, 40)[:10]
