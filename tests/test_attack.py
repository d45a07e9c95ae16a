"""Key recovery attack on a deliberately small locked design.

The toy target is s27 locked with a 3-bit PRNG and 2-cycle windows, small
enough that every candidate key sequence can be enumerated and checked
against the black-box oracle, so the attack's answers are provably the
only consistent ones.
"""

import itertools
import random

import pytest

from relock import (
    DEFAULT_SEED,
    STATUS_BUDGET,
    STATUS_NO_KEY,
    STATUS_RECOVERED,
    CnfBuilder,
    EncryptConfig,
    SequenceOracle,
    derive_window_starts,
    encrypt,
    parse_bench,
    recover_key_sequences,
    simulate,
    workload_stimulus,
)
from relock.attack import _Window, _encode_copy, _lane_dip, _replay_verify
from relock.sim import authentication_schedule, key_plan, plan_stimulus

TOY_CFG = EncryptConfig(
    lfsr_width=3,
    lfsr_taps=(3, 1),
    enc_out_width=3,
    key_len=2,
    sbj_bits=1,
    coverage=0.5,
    master_seed=24302,
)
N_WINDOWS = 3


@pytest.fixture(scope="module")
def toy(s27):
    enc = encrypt(s27, TOY_CFG)
    starts = derive_window_starts(enc.schedule, N_WINDOWS)
    wins = authentication_schedule(enc.schedule, starts[-1] + TOY_CFG.key_len)
    truth = tuple(enc.schedule.key_table[w.chain] for w in wins[:N_WINDOWS])
    return s27, enc, starts, truth


@pytest.fixture()
def run_toy(toy):
    nl, enc, starts, _ = toy

    def run(**kw):
        kw.setdefault("seed", 0)
        oracle = SequenceOracle(nl)
        res = recover_key_sequences(
            enc.netlist, oracle, starts, TOY_CFG.key_len, N_WINDOWS, **kw
        )
        return res, oracle

    return run


# -- soundness ---------------------------------------------------------------

def test_recovers_the_scheduled_keys(toy, run_toy):
    _, _, _, truth = toy
    res, _ = run_toy()
    assert res.status == STATUS_RECOVERED
    assert res.keys == truth
    assert all(w.status == STATUS_RECOVERED for w in res.windows)


def test_replay_verification_passes(run_toy):
    res, _ = run_toy()
    assert res.verified
    assert res.verify_comparisons >= 1000


def test_window_timing_echoed_in_result(toy, run_toy):
    _, _, starts, _ = toy
    res, _ = run_toy()
    assert tuple(w.start for w in res.windows) == starts[:N_WINDOWS]
    gaps = tuple(b - (a + TOY_CFG.key_len) for a, b in zip(starts, starts[1:]))
    assert tuple(w.gap for w in res.windows) == gaps


def test_exhaustive_candidate_sweep_leaves_only_the_truth(toy):
    """Brute force every key pair per window; the survivor set must be
    exactly the schedule's answer, so recovery is unique, not just valid."""
    nl, enc, starts, truth = toy
    c = TOY_CFG.key_len
    n_in = len(nl.inputs)

    def window_of(t):
        for q, s in enumerate(starts[:N_WINDOWS]):
            if s <= t < s + c:
                return q, t - s
        return None

    rng = random.Random(99)
    for q in range(N_WINDOWS):
        horizon = starts[q + 1]
        trials = [[rng.randrange(1 << n_in) for _ in range(horizon)] for _ in range(6)]

        def consistent(cand, wl):
            # earlier windows get the true keys so the device reaches window q
            stream, gaps = [], []
            for t in range(horizon):
                w = window_of(t)
                if w is None:
                    gaps.append(t)
                    stream.append(wl[t])
                elif w[0] < q:
                    stream.append(truth[w[0]][w[1]])
                else:
                    stream.append(cand[w[1]])
            dev = simulate(enc.netlist, workload_stimulus(stream))
            gold = simulate(nl, workload_stimulus([wl[t] for t in gaps]))
            return all(dev.outputs[t] == gold.outputs[r] for r, t in enumerate(gaps))

        alive = [
            cand
            for cand in itertools.product(range(1 << n_in), repeat=c)
            if all(consistent(cand, wl) for wl in trials)
        ]
        assert alive == [truth[q]], f"window {q}: {alive}"


def test_shifted_window_starts_admit_no_consistent_key(toy):
    """Scanning with the wrong phase must fail loudly, not hallucinate keys."""
    nl, enc, starts, _ = toy
    for delta in (1, 2):
        oracle = SequenceOracle(nl)
        res = recover_key_sequences(
            enc.netlist,
            oracle,
            [s + delta for s in starts],
            TOY_CFG.key_len,
            N_WINDOWS,
            seed=0,
        )
        assert res.status == STATUS_NO_KEY
        assert len(res.keys) < N_WINDOWS
        assert not res.verified


# -- first DIP by simulation -------------------------------------------------

def test_lane_dip_separates_its_two_keys(toy):
    """The probe the lane run picks really tells its two keys apart, and the
    state it reports is the prefix's: both checked by single-lane runs."""
    nl, enc, starts, truth = toy
    c = TOY_CFG.key_len
    n_in = len(nl.inputs)
    rng = random.Random(5)
    found = 0
    for q in range(N_WINDOWS):
        # earlier windows get their true keys, every other cycle a random word
        plan = key_plan(zip(starts, truth[:q]), starts[q])
        prefix = plan_stimulus(plan, [rng.getrandbits(n_in) for _ in plan], n_in)
        gap = starts[q + 1] - starts[q] - c
        state, dip = _lane_dip(enc.netlist, prefix, c, gap, random.Random(q))

        ref = simulate(enc.netlist, workload_stimulus([*prefix, 0]))
        assert state == [bool(ref.state_bit(len(prefix), name)) for name in ref.state_names]
        if dip is None:
            continue
        found += 1
        key_a, key_b, probe = dip
        assert len(key_a) == len(key_b) == c and len(probe) == gap
        gap_outs = [
            simulate(enc.netlist, workload_stimulus([*prefix, *key, *probe])).outputs[len(prefix) + c :]
            for key in (key_a, key_b)
        ]
        assert gap_outs[0] != gap_outs[1], f"window {q}"
    assert found == N_WINDOWS


# 24 inputs; the lock's output is inverted until the one key below has been
# applied, so a random key pair almost never differs on any probe
NEEDLE_KEY = 0xA5C3E1
NEEDLE_INPUTS = 24


def _needle_lock():
    ins = [f"a{i}" for i in range(NEEDLE_INPUTS)]
    header = "".join(f"INPUT({a})\n" for a in ins) + "OUTPUT(y)\n"
    orig = parse_bench(header + "y = BUFF(a0)\n", "needle")
    match = "".join(
        f"m{i} = {'BUFF' if (NEEDLE_KEY >> i) & 1 else 'NOT'}({a})\n" for i, a in enumerate(ins)
    )
    locked = parse_bench(
        header
        + "u = DFF(un)\n"
        + match
        + f"hit = AND({', '.join(f'm{i}' for i in range(NEEDLE_INPUTS))})\n"
        + "un = OR(u, hit)\nnu = NOT(u)\ny = XOR(a0, nu)\n",
        "needle_enc",
    )
    return orig, locked


def test_sat_finds_the_first_dip_when_no_lane_differs():
    orig, locked = _needle_lock()
    starts = (0, 4)
    assert _lane_dip(locked, (), 1, 3, random.Random("0/attack/dip/0"))[1] is None
    res = recover_key_sequences(locked, SequenceOracle(orig), starts, 1, 1, seed=0)
    assert res.status == STATUS_RECOVERED and res.verified
    assert res.keys == ((NEEDLE_KEY,),)
    (w,) = res.windows
    # every DIP came from the miter, after a key and a second key were
    # found; the last two calls find the key and show no second one is left
    assert w.iterations >= 1
    assert w.solver_calls == 3 * w.iterations + 2


def test_key_no_output_reads_ends_the_window_on_an_empty_miter():
    """Every key survives, so the miter gets built, but no gap output can
    differ: its empty difference clause ends the window without a DIP."""
    nl = parse_bench("INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n", "stateless")
    res = recover_key_sequences(nl, SequenceOracle(nl), (0, 3), 2, 1, seed=0)
    assert res.status == STATUS_RECOVERED and res.verified
    (w,) = res.windows
    # a key, a second key, and no call on the contradictory miter
    assert (w.iterations, w.solver_calls, w.oracle_queries) == (0, 2, 0)
    assert res.keys == (w.key,) and len(w.key) == 2


def test_miter_built_late_equals_one_built_up_front(toy):
    """The miter replays the probes learned before it was built, so its
    clauses equal those of a miter built at once and extended by each probe."""
    nl, enc, starts, _ = toy
    n_in, gap = len(nl.inputs), starts[1] - TOY_CFG.key_len
    rng = random.Random(3)
    oracle = SequenceOracle(nl)
    early, late = (_Window(enc.netlist, (), TOY_CFG.key_len, gap, random.Random(0), 100) for _ in range(2))
    early._miter()
    for _ in range(3):
        probe = tuple(rng.getrandbits(n_in) for _ in range(gap))
        answer = oracle.query(probe)
        for w in (early, late):
            w.learn(probe, answer)
        early._miter()
    built = [(m.n_vars, m.clauses, m.contradiction) for m in (early._miter(), late._miter())]
    assert built[0] == built[1]
    assert len(built[0][1]) > 0


# the lock of the first attack-s298 benchmark op
S298_POOL_CFG = EncryptConfig(
    lfsr_width=4, enc_out_width=3, key_len=4, sbj_bits=1, coverage=0.3, master_seed=DEFAULT_SEED
)


@pytest.mark.parametrize("circuit", ["s27", "s298"])
def test_a_key_copy_from_a_second_state_equals_its_encode_alone(circuit, request):
    """Two key copies from two different flip-flop states, each over the
    miter's probe variables and over a learned probe pinned to an answer,
    share one builder: the second copy adds the variables, clauses and gap
    outputs it gets when encoded alone after the first copy's variables."""
    cfg = TOY_CFG if circuit == "s27" else S298_POOL_CFG
    nl = encrypt(request.getfixturevalue(circuit), cfg).netlist
    n_in, gap = len(nl.inputs), 6
    rng = random.Random(circuit)
    state_a, state_b = (_lane_dip(nl, [rng.getrandbits(n_in) for _ in range(t)], cfg.key_len, gap, rng)[0] for t in (9, 12))
    assert state_a != state_b
    probe = [rng.getrandbits(n_in) for _ in range(gap)]
    answer = [rng.getrandbits(len(nl.outputs)) for _ in range(gap)]

    def encode(b, state, keys):
        return [_encode_copy(b, nl, state, keys, x), _encode_copy(b, nl, state, keys, probe, answer)]

    b = CnfBuilder()
    k_a, k_b, x = ([[b.new_var() for _ in range(n_in)] for _ in range(k)] for k in (cfg.key_len, cfg.key_len, gap))
    encode(b, state_a, k_a)
    n_a, c_a, flag_a = b.n_vars, len(b.clauses), b.contradiction
    assert n_a > (2 * cfg.key_len + gap) * n_in  # the first copy allocated variables
    outs = encode(b, state_b, k_b)
    alone, from_a = CnfBuilder(), CnfBuilder()
    alone.n_vars = from_a.n_vars = n_a
    want = encode(alone, state_b, k_b)
    assert (b.n_vars, b.clauses[c_a:], outs) == (alone.n_vars, alone.clauses, want)
    assert b.contradiction == (flag_a or alone.contradiction)
    # no renaming of the first copy gives the second: the state changes the formula
    encode(from_a, state_a, k_b)
    assert from_a.clauses != alone.clauses


def _replay_verify_one_lane(enc, oracle, starts, keys, seed, verify_vectors):
    """The replay check one pass at a time, as it ran before it used lanes."""
    plan = key_plan(zip(starts, keys), starts[len(keys)])
    free = [t for t, key in enumerate(plan) if key is None]
    n_in = len(enc.inputs)
    rng = random.Random(f"{seed}/attack/verify")
    ok, comparisons = True, 0
    for _ in range(max(1, -(-verify_vectors // len(free)))):
        workload = [rng.getrandbits(n_in) for _ in free]
        answer = oracle.query(workload)
        trace = simulate(enc, plan_stimulus(plan, workload, n_in))
        for rank, t in enumerate(free):
            comparisons += 1
            ok &= trace.outputs[t] == answer[rank]
    return ok, comparisons


@pytest.mark.parametrize("flip", [None, (0, 0), (1, 1), (2, 0)])
def test_replay_verify_matches_one_lane_per_pass(toy, flip):
    nl, enc, starts, truth = toy
    keys = [list(k) for k in truth]
    if flip is not None:
        keys[flip[0]][flip[1]] ^= 1
    verdicts = []
    for seed, vectors in ((0, 1000), (3, 7)):
        got, want = (SequenceOracle(nl), SequenceOracle(nl))
        lanes = _replay_verify(enc.netlist, got, starts, keys, seed, vectors)
        assert lanes == _replay_verify_one_lane(enc.netlist, want, starts, keys, seed, vectors)
        assert got.queries == want.queries
        verdicts.append(lanes[0])
    # a wrong key is caught by the full check, not always by a 7-vector one
    assert verdicts[0] == (flip is None)


# -- effort accounting ---------------------------------------------------------

def test_conflicts_grow_with_window_depth(run_toy):
    res, _ = run_toy()
    conflicts = [w.conflicts for w in res.windows]
    assert all(a < b for a, b in zip(conflicts, conflicts[1:])), conflicts


def test_effort_counters_are_deterministic(run_toy):
    a, _ = run_toy()
    b, _ = run_toy()
    key = lambda r: [
        (w.iterations, w.solver_calls, w.conflicts, w.decisions, w.propagations)
        for w in r.windows
    ]
    assert key(a) == key(b)
    assert a.keys == b.keys


def test_report_text_omits_wall_time(run_toy):
    a, _ = run_toy()
    b, _ = run_toy()
    assert a.report() == b.report()
    assert "q=2" in a.report()


def test_oracle_queries_are_counted(run_toy):
    res, oracle = run_toy()
    assert oracle.queries > 0
    assert res.oracle_queries == oracle.queries


def test_budget_exhaustion_is_reported(run_toy):
    res, _ = run_toy(conflict_budget=10)
    assert res.status == STATUS_BUDGET
    assert len(res.keys) < N_WINDOWS
    assert res.windows[-1].status == STATUS_BUDGET


# -- oracle and input validation ---------------------------------------------------

def test_oracle_rejects_oversized_vectors(s27):
    oracle = SequenceOracle(s27)
    with pytest.raises(ValueError, match="does not fit"):
        oracle.query([1 << len(s27.inputs)])
    assert oracle.queries == 0  # a rejected query is not counted


@pytest.mark.parametrize("circuit", ["s27", "s298"])
def test_query_lanes_answers_each_workload_as_query_does(circuit, request):
    nl = request.getfixturevalue(circuit)
    rng = random.Random(circuit)
    workloads = [[rng.getrandbits(len(nl.inputs)) for _ in range(9)] for _ in range(13)]
    lanes_oracle, one_oracle = SequenceOracle(nl), SequenceOracle(nl)
    lanes = lanes_oracle.query_lanes(workloads)
    assert len(lanes) == 9
    for p, workload in enumerate(workloads):
        answer = tuple(sum(((w >> p) & 1) << i for i, w in enumerate(outs)) for outs in lanes)
        assert answer == one_oracle.query(workload), p
    assert lanes_oracle.queries == one_oracle.queries == len(workloads)


def test_query_lanes_rejects_a_bad_batch_and_counts_nothing(s27):
    oracle = SequenceOracle(s27)
    with pytest.raises(ValueError, match="workload 1, cycle 2: .* does not fit"):
        oracle.query_lanes([[0, 0, 0], [0, 0, 1 << len(s27.inputs)]])
    with pytest.raises(ValueError, match="differ in length"):
        oracle.query_lanes([[0, 0, 0], [0, 0]])
    assert oracle.queries == 0
    assert oracle.query_lanes([]) == []
    assert oracle.queries == 0


def test_oracle_empty_query(s27):
    oracle = SequenceOracle(s27)
    assert oracle.query([]) == ()
    assert oracle.queries == 1


def test_oracle_width_mismatch_raises(toy, s298):
    _, enc, starts, _ = toy
    with pytest.raises(ValueError, match="width mismatch"):
        recover_key_sequences(
            enc.netlist, SequenceOracle(s298), starts, TOY_CFG.key_len, N_WINDOWS
        )


def test_timing_must_cover_one_extra_window(toy):
    nl, enc, starts, _ = toy
    with pytest.raises(ValueError):
        recover_key_sequences(
            enc.netlist, SequenceOracle(nl), starts[:N_WINDOWS], TOY_CFG.key_len, N_WINDOWS
        )


@pytest.mark.parametrize("kw", [{"key_len": 0}, {"max_seq": 0}])
def test_degenerate_arguments_raise(toy, kw):
    nl, enc, starts, _ = toy
    args = {"key_len": TOY_CFG.key_len, "max_seq": N_WINDOWS}
    args.update(kw)
    with pytest.raises(ValueError):
        recover_key_sequences(
            enc.netlist, SequenceOracle(nl), starts, args["key_len"], args["max_seq"]
        )


@pytest.mark.parametrize(
    "starts, message",
    [
        ((-1, 4, 10, 18), "nonnegative"),
        ((0, 1, 10, 18), "overlap"),  # window 1 starts inside window 0
        ((0, 10, 4, 18), "out of order"),
        ((0, 2, 4, 6), "no cycle between"),  # zero-cycle gaps: nothing to probe
    ],
)
def test_window_starts_must_leave_a_cycle_between_windows(toy, starts, message):
    nl, enc, _, _ = toy
    with pytest.raises(ValueError, match=message):
        recover_key_sequences(enc.netlist, SequenceOracle(nl), starts, TOY_CFG.key_len, N_WINDOWS)


def test_derive_window_starts_matches_controller_replay(toy):
    _, enc, starts, _ = toy
    wins = authentication_schedule(enc.schedule, starts[-1] + 1)
    assert starts == tuple(w.start for w in wins[: N_WINDOWS + 1])
    assert all(a < b for a, b in zip(starts, starts[1:]))


def test_derive_window_starts_rejects_negative_counts(toy):
    _, enc, _, _ = toy
    assert derive_window_starts(enc.schedule, 0) == (0,)
    with pytest.raises(ValueError, match="max_seq"):
        derive_window_starts(enc.schedule, -2)
