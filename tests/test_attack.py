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
    SAT,
    CnfBuilder,
    EncryptConfig,
    SequenceOracle,
    Solver,
    derive_window_starts,
    encrypt,
    parse_bench,
    recover_key_sequences,
    simulate,
    workload_stimulus,
)
from relock import attack
from relock.attack import _encode_copy, _lane_dip, _replay_verify
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


def state_after(nl, prefix):
    """The flip-flop values, as bools, that ``simulate`` from reset reaches
    after packed input words ``prefix``."""
    ref = simulate(nl, workload_stimulus([*prefix, 0]))
    return [bool(ref.state_bit(len(prefix), name)) for name in ref.state_names]


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


@pytest.mark.parametrize("delta", [0, 1, 2])
def test_each_window_starts_from_the_state_of_its_committed_prefix(toy, monkeypatch, delta):
    """The state every window starts from is the one ``simulate`` reaches
    from reset over the committed prefix: the keys committed so far in
    their windows, the attack's probes on every other cycle.  Starts
    shifted by ``delta`` put probe cycles before window 0."""
    nl, enc, starts, _ = toy
    starts = [s + delta for s in starts]
    c, n_in = TOY_CFG.key_len, len(nl.inputs)
    states = []
    recover = attack._recover_window

    def recording(locked, state, *args):
        states.append(list(state))
        return recover(locked, state, *args)

    monkeypatch.setattr(attack, "_recover_window", recording)
    res = recover_key_sequences(enc.netlist, SequenceOracle(nl), starts, c, N_WINDOWS, seed=0)
    assert len(states) == len(res.windows) == (N_WINDOWS if delta == 0 else len(res.keys) + 1)
    # the probes the attack draws at seed 0, one per non-window cycle
    rng = random.Random("0/attack/probes")
    probes = [rng.getrandbits(n_in) for _ in range(starts[N_WINDOWS] - N_WINDOWS * c)]
    for q, state in enumerate(states):
        prefix = plan_stimulus(key_plan(zip(starts, res.keys[:q]), starts[q]), probes, n_in)
        assert state == state_after(enc.netlist, prefix), q


# -- first DIP by simulation -------------------------------------------------

def test_lane_dip_separates_its_two_keys(toy):
    """The probe the lane run picks from the prefix's state really tells its
    two keys apart: checked by single-lane runs from reset."""
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
        dip = _lane_dip(enc.netlist, state_after(enc.netlist, prefix), c, gap, random.Random(q))
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
    assert _lane_dip(locked, [False] * len(locked.dffs), 1, 3, random.Random("0/attack/dip/0")) is None
    res = recover_key_sequences(locked, SequenceOracle(orig), starts, 1, 1, seed=0)
    assert res.status == STATUS_RECOVERED and res.verified
    assert res.keys == ((NEEDLE_KEY,),)
    (w,) = res.windows
    # the one DIP came from the miter: with nothing learned, the first step
    # solves over the full gap for a key, a second key and the DIP; the next
    # finds the key and no second one over the DIP's first gap cycle
    assert w.iterations == 1
    assert w.solver_calls == 3 + 2


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


class _LastCycleFlipped(SequenceOracle):
    """The oracle with output 0 of every answer's last cycle flipped on
    every lane; keeps each query's plan and its flipped answer."""

    def __init__(self, nl) -> None:
        super().__init__(nl)
        self.asked = []

    def query(self, plan, rows=(), width=1):
        outs = super().query(plan, rows, width)
        first, *rest = outs[-1]
        outs[-1] = (first ^ ((1 << width) - 1), *rest)
        self.asked.append((tuple(plan), outs))
        return outs


def test_a_key_unique_on_part_of_the_gap_must_fit_all_of_it(s298):
    """With the last gap cycle of the answer flipped, one key still fits the
    rest of the gap, but no key fits all of it: the run over the full gap
    rejects the key, and the window ends as the full-gap formula says."""
    design = encrypt(s298, S298_POOL_CFG)
    enc, c = design.netlist, S298_POOL_CFG.key_len
    starts = derive_window_starts(design.schedule, 1)
    gap = starts[1] - starts[0] - c
    oracle = _LastCycleFlipped(s298)
    res = recover_key_sequences(enc, oracle, starts, c, 1, seed=0)
    assert res.status == STATUS_NO_KEY and res.keys == () and not res.verified
    (w,) = res.windows
    assert w.status == STATUS_NO_KEY and w.key is None

    # no window comes before the first, so its prefix is the query's first cycles
    prefix = oracle.asked[0][0][: starts[0]]
    learned = [(vectors[starts[0] :], answer[starts[0] :]) for vectors, answer in oracle.asked]
    assert len(learned) == w.iterations >= 1
    state = state_after(enc, prefix)

    def keys_over(depth):
        """Up to two keys that fit every learned probe's first ``depth`` gap cycles."""
        b = CnfBuilder()
        k = [[b.new_var() for _ in enc.inputs] for _ in range(c)]
        for probe, answer in learned:
            _encode_copy(b, enc, state, k, probe[:depth], answer[:depth])
        if b.contradiction:
            return []
        solver, keys = Solver(b.n_vars, b.clauses), []
        while len(keys) < 2 and (r := solver.solve()).status == SAT:
            keys.append(tuple(sum(r.model[v] << i for i, v in enumerate(row)) for row in k))
            solver.add_clause([-v if r.model[v] else v for row in k for v in row])
        return keys

    assert len(keys_over(gap - 1)) == 1
    assert keys_over(gap) == []


# the lock of ROADMAP item 13's baseline: window 1 probes a 1876-cycle gap
LONG_GAP_CFG = EncryptConfig(lfsr_width=12, key_len=4, sbj_bits=1, coverage=0.3, master_seed=1)


def test_a_long_gap_is_unrolled_only_as_deep_as_its_key_needs(s27, monkeypatch):
    design = encrypt(s27, LONG_GAP_CFG)
    c = LONG_GAP_CFG.key_len
    starts = derive_window_starts(design.schedule, 2)
    wins = authentication_schedule(design.schedule, starts[-1] + c)
    truth = tuple(design.schedule.key_table[w.chain] for w in wins[:2])
    # frames encoded per window, over every formula its steps build
    frames = []
    recover, encode = attack._recover_window, CnfBuilder.encode_netlist

    def counting(*args):
        frames.append(0)
        return recover(*args)

    def counting_encode(self, *args, **kwargs):
        frames[-1] += 1
        return encode(self, *args, **kwargs)

    monkeypatch.setattr(attack, "_recover_window", counting)
    monkeypatch.setattr(CnfBuilder, "encode_netlist", counting_encode)
    res = recover_key_sequences(design.netlist, SequenceOracle(s27), starts, c, 2, seed=0)
    assert res.status == STATUS_RECOVERED and res.verified
    assert res.keys == truth
    assert [w.gap for w in res.windows] == [10, 1876]
    assert len(frames) == 2 and all(n < 128 for n in frames), frames


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
    state_a, state_b = (state_after(nl, [rng.getrandbits(n_in) for _ in range(t)]) for t in (9, 12))
    assert state_a != state_b
    probe = [rng.getrandbits(n_in) for _ in range(gap)]
    answer = [tuple(rng.getrandbits(1) for _ in nl.outputs) for _ in range(gap)]

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


@pytest.mark.parametrize("circuit", ["s27", "s298"])
def test_a_key_formula_over_the_frame_cones_admits_the_keys_of_full_frames(circuit, request):
    """Window 1's key formula over two learned probes, its last two frames
    encoded over the cones of the pinned outputs, admits exactly the keys
    the full-frame formula admits, enumerated with blocking clauses at
    depths 1, 2 and the whole gap, with fewer clauses."""
    orig = request.getfixturevalue(circuit)
    cfg = TOY_CFG if circuit == "s27" else S298_POOL_CFG
    design = encrypt(orig, cfg)
    enc, c, n_in = design.netlist, cfg.key_len, len(orig.inputs)
    starts = derive_window_starts(design.schedule, 2)
    key_0, key_1 = (design.schedule.key_table[w.chain] for w in authentication_schedule(design.schedule, starts[2])[:2])
    # on s27 these probes leave 180 of 256 keys over their first two gap cycles
    rng = random.Random(2)
    free = [rng.getrandbits(n_in) for _ in range(starts[1] - c)]
    state = state_after(enc, [*free[: starts[0]], *key_0, *free[starts[0] :]])
    gap = starts[2] - starts[1] - c
    assert gap > 2
    oracle = SequenceOracle(orig)
    learned = []
    for _ in range(2):
        probe = [rng.getrandbits(n_in) for _ in range(gap)]
        learned.append((probe, oracle.query(free + probe)[len(free) :]))

    def keys(depth, cones):
        b = CnfBuilder()
        k = [[b.new_var() for _ in range(n_in)] for _ in range(c)]
        for probe, answer in learned:
            _encode_copy(b, enc, state, k, probe[:depth], answer[:depth], cones=cones)
        assert not b.contradiction
        solver, found = Solver(b.n_vars, b.clauses), set()
        while (r := solver.solve()).status == SAT:
            found.add(tuple(sum(r.model[v] << i for i, v in enumerate(row)) for row in k))
            solver.add_clause([-v if r.model[v] else v for row in k for v in row])
        return found, len(b.clauses)

    for depth in (1, 2, gap):
        (cone_keys, cone_clauses), (full_keys, full_clauses) = keys(depth, True), keys(depth, False)
        assert key_1 in cone_keys
        assert cone_keys == full_keys, depth
        assert cone_clauses < full_clauses


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
            ok &= trace.outputs[t] == sum(v << i for i, v in enumerate(answer[rank]))
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
def test_query_answers_each_lane_as_a_one_lane_query_does(circuit, request):
    """A width-13 query whose plan mixes packed words, driven on every lane,
    with None cycles, which take one lane word per input from the rows."""
    nl = request.getfixturevalue(circuit)
    n_in, width = len(nl.inputs), 13
    rng = random.Random(circuit)
    plan = [None if t % 3 else rng.getrandbits(n_in) for t in range(9)]
    rows = [[rng.getrandbits(width) for _ in range(n_in)] for _ in range(plan.count(None))]
    lanes_oracle, one_oracle = SequenceOracle(nl), SequenceOracle(nl)
    lanes = lanes_oracle.query(plan, rows, width)
    assert len(lanes) == 9
    for p in range(width):
        free = iter(rows)
        workload = [sum(((w >> p) & 1) << b for b, w in enumerate(next(free))) if key is None else key for key in plan]
        assert [tuple((w >> p) & 1 for w in outs) for outs in lanes] == one_oracle.query(workload), p
    assert lanes_oracle.queries == one_oracle.queries == width


def test_query_rejects_a_bad_batch_and_counts_nothing(s27):
    n_in = len(s27.inputs)
    oracle = SequenceOracle(s27)
    bad = [
        (([0, 0, 1 << n_in],), "cycle 2: .* does not fit"),
        (([-1],), "does not fit"),
        (([0, 1.0],), "does not fit"),
        ((["1"],), "does not fit"),
        (([True],), "does not fit"),
        (([], (), 0), "width"),
        (([], (), 1.0), "width"),
        (([None, None], [[0] * n_in]), "1 rows for 2 None cycles"),
        (([0], [[0] * n_in]), "1 rows for 0 None cycles"),
        (([None], [[0] * (n_in - 1)]), f"row 0 is not {n_in} lane words"),
        (([None], [[0] * (n_in + 1)]), f"row 0 is not {n_in} lane words"),
        (([None, None], [[0] * n_in, [0b100] + [0] * (n_in - 1)], 2), "row 1 .* of 2 lanes"),
        (([None], [[-1] + [0] * (n_in - 1)], 2), "row 0 .* of 2 lanes"),
        (([None], [[0.0] * n_in]), "row 0"),
    ]
    for args, message in bad:
        with pytest.raises(ValueError, match=message):
            oracle.query(*args)
        assert oracle.queries == 0, args
    assert oracle.query([None, 0], [[0b11] * n_in], 2) == oracle.query([(1 << n_in) - 1, 0], width=2)
    assert oracle.queries == 4


def test_oracle_empty_query(s27):
    oracle = SequenceOracle(s27)
    assert oracle.query([]) == []
    assert oracle.queries == 1


def test_every_oracle_access_of_the_attack_is_one_query(toy, monkeypatch):
    """The unlocked design is evaluated only inside ``SequenceOracle.query``,
    and the widths of its calls add up to the attack's query count: width 1
    per probe, then one batch for the replay check."""
    nl, enc, starts, _ = toy
    widths, inside = [], []

    class Wrapped(SequenceOracle):
        def query(self, plan, rows=(), width=1):
            widths.append(width)
            inside.append(True)
            try:
                return super().query(plan, rows, width)
            finally:
                inside.pop()

    cc = nl.compiled
    evaluate = cc.eval

    def eval_in_query(*args, **kwargs):
        assert inside, "the unlocked design ran outside SequenceOracle.query"
        return evaluate(*args, **kwargs)

    monkeypatch.setattr(cc, "eval", eval_in_query)
    oracle = Wrapped(nl)
    res = recover_key_sequences(enc.netlist, oracle, starts, TOY_CFG.key_len, N_WINDOWS, seed=0)
    assert res.status == STATUS_RECOVERED and res.verified
    assert sum(widths) == res.oracle_queries == oracle.queries
    assert set(widths[:-1]) == {1} and widths[-1] > 1
    assert len(widths) - 1 == sum(w.oracle_queries for w in res.windows)


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


@pytest.mark.parametrize(
    "kw",
    [
        {"key_len": 0},
        {"max_seq": 0},
        {"key_len": 2.0},
        {"max_seq": 3.0},
        {"known_timing": (0.7, 4.7, 10.7, 18.7)},  # not truncated to the toy's starts
        {"known_timing": ("0", "4", "10", "18")},
        {"known_timing": (True, 5, 11, 19)},
        {"conflict_budget": -1},
        {"conflict_budget": 2.5},
        {"conflict_budget": True},
        {"conflict_budget": "10"},
        {"conflict_budget": None},
    ],
)
def test_degenerate_arguments_raise(toy, kw):
    nl, enc, starts, _ = toy
    assert starts == (0, 4, 10, 18)
    args = {"known_timing": starts, "key_len": TOY_CFG.key_len, "max_seq": N_WINDOWS}
    args.update(kw)
    with pytest.raises(ValueError, match=next(iter(kw))):
        recover_key_sequences(enc.netlist, SequenceOracle(nl), **args)


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


@pytest.mark.parametrize("max_seq", [True, 2.0, "2"])
def test_derive_window_starts_rejects_a_non_int_max_seq(toy, max_seq):
    _, enc, _, _ = toy
    with pytest.raises(ValueError, match="max_seq must be an integer"):
        derive_window_starts(enc.schedule, max_seq)

