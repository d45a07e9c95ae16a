"""Sequential simulation, stimulus construction, and trace utilities."""

import io
import random

import pytest

from relock import (
    EncryptConfig,
    Stimulus,
    authentication_schedule,
    encrypt,
    new_lfsr,
    parse_bench,
    simulate,
    step,
    trusted_user_stimulus,
    workload_cycle_mask,
    workload_stimulus,
    write_columnar,
    write_vcd,
)
from relock.sim import Case, case_plan, key_plan, plan_stimulus, run_from_reset

TOGGLE_TEXT = "OUTPUT(y)\nq = DFF(y)\ny = NOT(q)"

TOY_CFG = EncryptConfig(
    lfsr_width=3,
    lfsr_taps=(3, 2),
    enc_out_width=2,
    key_len=2,
    sbj_bits=1,
    coverage=0.5,
    master_seed=24302,
)


@pytest.fixture(scope="module")
def toy(s27):
    return encrypt(s27, TOY_CFG)


# -- stimulus type ------------------------------------------------------------

def test_stimulus_lengths_must_match():
    with pytest.raises(ValueError, match="equal length"):
        Stimulus((1, 2), (None,))


def test_stimulus_workload_indices_consecutive():
    Stimulus((1, 2, 3), (None, 0, 1))
    with pytest.raises(ValueError, match="consecutive"):
        Stimulus((1, 2, 3), (None, 1, 2))
    with pytest.raises(ValueError, match="consecutive"):
        Stimulus((1, 2, 3), (0, 0, 1))


def test_workload_stimulus_tags_every_cycle():
    stim = workload_stimulus([5, 6, 7])
    assert stim.tags == (0, 1, 2)
    assert stim.n_workload == 3


# -- simulate ------------------------------------------------------------------

def test_toggle_register_alternates():
    nl = parse_bench(TOGGLE_TEXT, name="toggle")
    tr = simulate(nl, Stimulus((0,) * 6, tuple(range(6))))
    assert tr.outputs == (1, 0, 1, 0, 1, 0)
    assert tr.states == (0, 1, 0, 1, 0, 1)


def test_simulate_starts_from_all_zero_state(s27):
    tr = simulate(s27, workload_stimulus([0]))
    assert tr.states[0] == 0


def test_simulate_is_deterministic(s27):
    rng = random.Random(1)
    stim = workload_stimulus([rng.getrandbits(4) for _ in range(40)])
    assert simulate(s27, stim) == simulate(s27, stim)


def test_simulate_agrees_with_manual_stepping(s27):
    # fold compiled.eval by hand and compare against the packed trace
    rng = random.Random(17)
    vectors = [rng.getrandbits(4) for _ in range(30)]
    tr = simulate(s27, workload_stimulus(vectors))
    state = [0, 0, 0]
    for t, word in enumerate(vectors):
        bits = [(word >> b) & 1 for b in range(4)]
        outs, nxt = s27.compiled.eval(bits, state)
        assert tr.outputs[t] == outs[0]
        assert tr.states[t] == sum(s << k for k, s in enumerate(state))
        state = list(nxt)


# -- run_from_reset: the one place a key plan becomes lane words ---------------

def lane(words, k):
    """Lane ``k`` of a sequence of lane words, as 0/1 values."""
    return [(w >> k) & 1 for w in words]


def test_run_from_reset_drives_a_pattern_on_every_lane(s27):
    rng = random.Random(3)
    plan = tuple(rng.getrandbits(4) for _ in range(20))
    trace = simulate(s27, workload_stimulus(plan))
    full = (1 << 5) - 1
    run = list(run_from_reset(s27, plan, width=5))
    assert len(run) == len(plan)
    for (outs, state), out_word, state_word in zip(run, trace.outputs, trace.states):
        assert list(outs) == [full if (out_word >> j) & 1 else 0 for j in range(len(s27.outputs))]
        assert list(state) == [full if (state_word >> k) & 1 else 0 for k in range(len(s27.dffs))]


def test_run_from_reset_takes_the_next_row_on_each_none_cycle(s27):
    # None cycles take rows 0, 1, 2 in order; row 3 is never asked for
    rows = iter([[1, 0, 1, 0], [0, 1, 1, 0], [1, 1, 1, 1], "unused"])
    plan = (None, 0b1001, None, None, 0b0010)
    run = [list(outs) for outs, _state in run_from_reset(s27, plan, rows)]
    trace = simulate(s27, workload_stimulus([0b0101, 0b1001, 0b0110, 0b1111, 0b0010]))
    assert run == [[w] for w in trace.outputs]  # s27 has one output
    assert next(rows) == "unused"


def test_run_from_reset_lanes_are_independent_width_1_runs(s27):
    rng = random.Random(8)
    width, cycles = 6, 25
    plan = tuple(None if rng.random() < 0.6 else rng.getrandbits(4) for _ in range(cycles))
    rows = [[rng.getrandbits(width) for _ in range(4)] for _ in range(plan.count(None))]
    wide = list(run_from_reset(s27, plan, rows, width))
    for k in range(width):
        narrow = run_from_reset(s27, plan, [lane(row, k) for row in rows])
        assert [(list(outs), list(state)) for outs, state in narrow] == [
            (lane(outs, k), lane(state, k)) for outs, state in wide
        ]


def test_simulate_rejects_short_stimulus(s27):
    stim = workload_stimulus([0, 1])
    with pytest.raises(ValueError, match="stimulus has 2"):
        simulate(s27, stim, cycles=3)


def test_simulate_rejects_wide_vectors(s27):
    with pytest.raises(ValueError, match="does not fit"):
        simulate(s27, workload_stimulus([1 << 4]))


# -- scheduled authentication ----------------------------------------------------

def test_schedule_first_window_starts_at_reset(toy):
    windows = authentication_schedule(toy.schedule, 50)
    assert windows[0].start == 0
    assert windows[0].chain == 0


def test_schedule_t_func_replays_the_prng(toy):
    sched = toy.schedule
    windows = authentication_schedule(sched, 60)
    g, states = new_lfsr(sched.lfsr_width, sched.lfsr_taps, 0), []
    for _ in range(80):
        g, out = step(g)
        states.append(out)
    c = sched.key_len
    for w in windows:
        assert w.t_func == max(states[w.start + c], 1)


def test_schedule_windows_tile_the_horizon(toy):
    sched = toy.schedule
    cycles = 90
    windows = authentication_schedule(sched, cycles)
    t = 0
    for w in windows:
        assert w.start == t
        t = w.start + sched.key_len + w.t_func
    assert t >= cycles


def test_schedule_replay_stops_at_the_horizon(toy, monkeypatch):
    """A wide PRNG's first functional span runs far past a short horizon;
    the replay must not step the PRNG out to the window beyond it."""
    import relock.sim

    sched = toy.schedule._replace(lfsr_width=40, lfsr_taps=(40, 1))
    cycles = 200
    limit = cycles + sched.key_len
    steps = 0
    real_shift = relock.sim._shift

    def counting_shift(*args):
        nonlocal steps
        steps += 1
        assert steps <= limit, f"replay stepped the PRNG more than {limit} times"
        return real_shift(*args)

    monkeypatch.setattr(relock.sim, "_shift", counting_shift)
    windows = authentication_schedule(sched, cycles)
    assert steps <= limit
    assert windows[0].start == 0
    assert windows[-1].start < cycles
    assert windows[-1].start + sched.key_len + windows[-1].t_func >= cycles


def test_derive_window_starts_steps_only_to_the_last_window(toy, monkeypatch):
    """Deriving the first windows replays the PRNG only as far as the last
    derived window's key cycles, not out to a guessed horizon."""
    import relock.sim
    from relock import MAXIMAL_TAPS, derive_window_starts

    sched = toy.schedule._replace(lfsr_width=14, lfsr_taps=MAXIMAL_TAPS[14])
    steps = 0
    real_shift = relock.sim._shift

    def counting_shift(*args):
        nonlocal steps
        steps += 1
        return real_shift(*args)

    monkeypatch.setattr(relock.sim, "_shift", counting_shift)
    starts = derive_window_starts(sched, 3)
    assert len(starts) == 4
    assert steps <= starts[3] + sched.key_len


def test_schedule_replay_memory_does_not_grow_with_the_horizon(toy):
    """The replay keeps the current PRNG state only: deriving the window
    starts of a width-14 lock walks a ~41k-cycle horizon in bounded memory."""
    import tracemalloc

    from relock import MAXIMAL_TAPS, derive_window_starts

    sched = toy.schedule._replace(lfsr_width=14, lfsr_taps=MAXIMAL_TAPS[14])
    tracemalloc.start()
    try:
        starts = derive_window_starts(sched, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(starts) == 4
    assert peak < 64 * 1024, f"replay peaked at {peak} bytes"


def test_workload_mask_is_the_window_complement(toy):
    sched = toy.schedule
    cycles = 90
    mask = set(workload_cycle_mask(sched, cycles))
    in_window = set()
    for w in authentication_schedule(sched, cycles):
        in_window.update(range(w.start, w.start + sched.key_len))
    assert mask == set(range(cycles)) - in_window


def test_key_plan_places_chains_and_drops_what_runs_past_the_horizon():
    assert key_plan([(1, (7, 8)), (4, (5, 6, 9))], 6) == (None, 7, 8, None, 5, 6)
    assert key_plan([], 3) == (None,) * 3
    with pytest.raises(ValueError, match="nonnegative"):
        key_plan([], -1)


def test_case_plans_of_the_three_access_levels(toy):
    sched = toy.schedule
    c = sched.key_len
    expect = [None] * 60
    for w in authentication_schedule(sched, 60):
        for k in range(min(c, 60 - w.start)):
            expect[w.start + k] = sched.key_table[w.chain][k]
    assert case_plan(sched, Case.TRUSTED, 60) == tuple(expect)
    assert case_plan(sched, Case.UNKEYED, 60) == (None,) * 60
    assert case_plan(sched, Case.SINGLE_AUTH, 60) == sched.key_table[0] + (None,) * (60 - c)
    assert case_plan(sched, Case.SINGLE_AUTH, 1) == sched.key_table[0][:1]


def test_plan_stimulus_fills_workload_cycles_in_order():
    stim = plan_stimulus((3, None, None, 2), [9, 10, 11], 4)
    assert stim.vectors == (3, 9, 10, 2)
    assert stim.tags == (None, 0, 1, None)


def test_trusted_stimulus_opens_with_first_chain(toy):
    sched = toy.schedule
    stim = trusted_user_stimulus(sched, [0] * 100, 100)
    c = sched.key_len
    assert stim.vectors[:c] == sched.key_table[0]
    assert stim.tags[:c] == (None,) * c


def test_trusted_stimulus_rejects_short_workload(toy):
    with pytest.raises(ValueError, match="workload has"):
        trusted_user_stimulus(toy.schedule, [0] * 3, 60)


def test_trusted_stimulus_rejects_wide_workload(toy):
    with pytest.raises(ValueError, match="does not fit"):
        trusted_user_stimulus(toy.schedule, [1 << 8] * 60, 60)


def test_first_backjump_cycle_matches_offline_replay(s27, toy):
    """Corruption returns exactly at the replayed back-jump cycle.

    The offline schedule predicts the design leaves functional mode at
    start + c + t_func of window 0.  From that cycle on, the trusted
    stimulus plays window-1 patterns, so golden equality must hold for
    every workload cycle before it and fail somewhere after it if the
    window-1 patterns are replaced by workload.
    """
    sched = toy.schedule
    rng = random.Random(5)
    cycles = 40
    workload = [rng.getrandbits(4) for _ in range(cycles)]
    stim = trusted_user_stimulus(sched, workload, cycles)
    w0 = authentication_schedule(sched, cycles)[0]
    jump = w0.start + sched.key_len + w0.t_func
    # workload cycles strictly before the jump behave golden even when all
    # later authentications are spoiled
    spoiled = tuple(
        v ^ 1 if (tag is None and t >= jump) else v
        for t, (v, tag) in enumerate(zip(stim.vectors, stim.tags))
    )
    tr = simulate(toy.netlist, Stimulus(spoiled, stim.tags))
    golden = simulate(s27, workload_stimulus(workload))
    for t, tag in enumerate(stim.tags):
        if tag is None or t >= jump:
            continue
        assert tr.outputs[t] == golden.outputs[tag]


def test_restore_resumes_the_pre_jump_state(s27, toy):
    """Original flip-flops continue from where the last functional span ended."""
    sched = toy.schedule
    rng = random.Random(6)
    cycles = 80
    workload = [rng.getrandbits(4) for _ in range(cycles)]
    stim = trusted_user_stimulus(sched, workload, cycles)
    tr = simulate(toy.netlist, stim)
    golden = simulate(s27, workload_stimulus(workload))
    # the encrypted design's first DFFs are the original ones, same names
    orig_qs = [q for q, _ in s27.dffs]
    for t, tag in enumerate(stim.tags):
        if tag is None:
            continue
        got = tuple(tr.state_bit(t, q) for q in orig_qs)
        want = tuple(golden.state_bit(tag, q) for q in orig_qs)
        assert got == want


# -- exports -----------------------------------------------------------------------

def test_columnar_export(s27):
    tr = simulate(s27, workload_stimulus([3, 8, 14]))
    buf = io.StringIO()
    write_columnar(tr, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0].startswith("# cycle")
    assert len(lines) == 4
    assert lines[1].split() == ["0", "3", "1", "0"]


def test_vcd_export(s27):
    tr = simulate(s27, workload_stimulus([3, 8, 14]))
    buf = io.StringIO()
    write_vcd(tr, buf, design="s27")
    text = buf.getvalue()
    assert "$scope module s27 $end" in text
    assert "$enddefinitions" in text
    assert text.count("#") >= 3  # one timestamp per cycle
