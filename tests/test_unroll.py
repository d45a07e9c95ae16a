"""Frame expansion and CNF encoding."""

import random
import warnings

import pytest
from hypothesis import given, settings, strategies as st

from relock import (
    SAT,
    CnfBuilder,
    DanglingNetWarning,
    parse_bench,
    simulate,
    solve,
    to_dimacs,
    workload_stimulus,
)

from test_bench import netlists

AND_TEXT = "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)"
NOT_TEXT = "INPUT(a)\nOUTPUT(y)\ny = NOT(a)"
TOGGLE_Q = "OUTPUT(q)\nq = DFF(y)\ny = NOT(q)"


def reset(nl):
    return [False] * len(nl.dffs)


def value(model, v):
    """A net value under a solver model: constants stay, literals decode."""
    return v if isinstance(v, bool) else model[abs(v)] ^ (v < 0)


def word(bits):
    return sum(int(b) << i for i, b in enumerate(bits))


# -- frame stepping --------------------------------------------------------------

def test_unroll_toggle_constant_frames():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DanglingNetWarning)
        nl = parse_bench(TOGGLE_Q, name="toggle")
    b = CnfBuilder()
    assert list(b.encode_frames(nl, reset(nl), [0, 0, 0])) == [[False], [True], [False]]


def test_unroll_single_frame_equals_reset_eval(s27):
    rng = random.Random(1)
    for _ in range(50):
        w = rng.getrandbits(4)
        outs, _ = s27.compiled.eval([(w >> b) & 1 for b in range(4)], [0, 0, 0])
        (got,) = CnfBuilder().encode_frames(s27, reset(s27), [w])
        assert got == [bool(v) for v in outs]


def test_encode_frames_is_lazy(s27):
    b = CnfBuilder()
    rows = [[b.new_var() for _ in s27.inputs] for _ in range(2)]
    frames = b.encode_frames(s27, reset(s27), rows)
    assert b.clauses == []
    next(frames)
    n0 = len(b.clauses)
    # a clause added between frames lands between their clauses
    b.add_clause([1])
    next(frames)
    assert b.clauses[n0] == (1,) and len(b.clauses) > n0 + 1


@given(netlists(), st.integers(1, 5), st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_unroll_matches_simulation(nl, T, rng):
    """Per-frame outputs over constant rows equal a cycle-accurate run and
    fold away without a clause."""
    vectors = [rng.getrandbits(len(nl.inputs)) for _ in range(T)]
    want = list(simulate(nl, workload_stimulus(vectors)).outputs)
    b = CnfBuilder()
    assert [word(outs) for outs in b.encode_frames(nl, reset(nl), vectors)] == want
    assert b.clauses == [] and b.n_vars == 0


@given(netlists(), st.integers(1, 5), st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_cnf_models_decode_to_circuit_values(nl, T, rng):
    """Pin the literal input rows; the model decodes to a cycle-accurate run."""
    vectors = [rng.getrandbits(len(nl.inputs)) for _ in range(T)]
    want = list(simulate(nl, workload_stimulus(vectors)).outputs)
    b = CnfBuilder()
    rows = [[b.new_var() for _ in nl.inputs] for _ in vectors]
    frames = list(b.encode_frames(nl, reset(nl), rows))
    for row, w in zip(rows, vectors):
        for i, v in enumerate(row):
            b.pin(v, (w >> i) & 1)
    res = solve(b)
    assert res.status == SAT
    assert [word(value(res.model, v) for v in outs) for outs in frames] == want


# -- Tseitin encoding and export ---------------------------------------------------

def encoded(text):
    """A builder holding one frame of ``text`` over fresh input variables."""
    nl = parse_bench(text)
    b = CnfBuilder()
    (outs,) = b.encode_frames(nl, [], [[b.new_var() for _ in nl.inputs]])
    return b, outs


def test_cnf_textbook_and():
    b, outs = encoded(AND_TEXT)
    assert b.n_vars == 3
    assert b.clauses == [(-3, 1), (-3, 2), (3, -1, -2)]
    assert outs == [3]


def test_cnf_textbook_not():
    # an inverter folds into the literal's sign
    b, outs = encoded(NOT_TEXT)
    assert (b.n_vars, b.clauses, outs) == (1, [], [-1])


def test_dimacs_bytes():
    b, _ = encoded(AND_TEXT)
    assert to_dimacs(b) == "p cnf 3 3\n-3 1 0\n-3 2 0\n3 -1 -2 0\n"


def test_dimacs_comments():
    b, _ = encoded(NOT_TEXT)
    assert to_dimacs(b, comments=("hello",)) == "c hello\np cnf 1 0\n"


def test_dimacs_rejects_contradiction():
    b = CnfBuilder()
    b.pin(True, 0)
    with pytest.raises(ValueError, match="contradiction"):
        to_dimacs(b)


def test_solve_rejects_contradiction():
    b = CnfBuilder()
    b.pin(True, 0)
    with pytest.raises(ValueError, match="contradiction"):
        solve(b)


def test_cnf_rejects_empty_clause():
    b = CnfBuilder()
    b.add_clause([])
    assert b.contradiction and b.clauses == []
    with pytest.raises(ValueError, match="contradiction"):
        to_dimacs(b)


def test_cnf_rejects_out_of_range_literal():
    with pytest.raises(ValueError, match="bad literal"):
        solve([(2,)], n_vars=1)


# -- incremental builder -----------------------------------------------------------

def _comb(nl_text):
    return parse_bench(nl_text)


def test_builder_all_constant_inputs_fold_away():
    b = CnfBuilder()
    nl = _comb(AND_TEXT)
    for a in (False, True):
        for c in (False, True):
            val = b.encode_netlist(nl, [a, c])
            assert val[nl.compiled.slot["y"]] is (a and c)
    assert b.n_vars == 0
    assert b.clauses == []


def test_builder_symbolic_matches_eval(s27):
    # strip the registers so the builder accepts it
    comb = parse_bench(
        "\n".join(
            [f"INPUT({x})" for x in s27.inputs]
            + [f"INPUT({q})" for q, _ in s27.dffs]
            + [f"OUTPUT({y})" for y in s27.outputs]
            + [f"{g.out} = {g.kind}({', '.join(g.ins)})" for g in s27.gates]
        ),
        name="s27comb",
    )
    b = CnfBuilder()
    pins = {x: b.new_var() for x in comb.inputs}
    val = b.encode_netlist(comb, list(pins.values()))
    rng = random.Random(12)
    for _ in range(30):
        bits = {x: rng.randrange(2) for x in comb.inputs}
        cls = list(b.clauses)
        for x, v in pins.items():
            cls.append((v,) if bits[x] else (-v,))
        res = solve(cls, n_vars=b.n_vars)
        assert res.status == SAT
        outs, _ = comb.compiled.eval([bits[x] for x in comb.inputs], [])
        for y, want in zip(comb.outputs, outs):
            lit = val[comb.compiled.slot[y]]
            got = res.model[abs(lit)] ^ (lit < 0)
            assert got == bool(want)

    # s27 itself, flip-flop outputs pinned, encodes as the same frame
    frame = CnfBuilder()
    sources = [frame.new_var() for _x in comb.inputs]
    frame_val = frame.encode_netlist(s27, sources[: len(s27.inputs)], sources[len(s27.inputs) :])
    assert frame.clauses == b.clauses
    assert frame.n_vars == b.n_vars
    assert frame_val == val


@given(netlists(max_arity=4), st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_frames_over_the_cones_give_the_outputs_of_full_frames(nl, rng):
    """Three constant frames, the last two over ``nl.frame_cones``, yield
    every frame's outputs as three full frames do, and each cone keeps at
    most the full frame's gates."""
    state = [rng.choice([True, False]) for _ in nl.dffs]
    rows = [rng.getrandbits(len(nl.inputs)) for _ in range(3)]
    full = list(CnfBuilder().encode_frames(nl, state, rows))
    programs = (nl.frame_program, *nl.frame_cones)
    assert list(CnfBuilder().encode_frames(nl, state, rows, programs)) == full
    assert all(len(cone[0]) <= len(nl.frame_program[0]) for cone in nl.frame_cones)


@given(netlists(max_arity=4), st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_encode_netlist_equals_folding_gate_by_gate(nl, rng):
    """The frame program gives the clauses and net values that folding each
    gate by name in topological order gives, on sources mixing constants,
    literals, repeated literals and their negations."""
    b, ref = CnfBuilder(), CnfBuilder()
    pool = [b.new_var() for _ in range(3)]
    ref.n_vars = b.n_vars
    sources = [
        rng.choice([True, False, rng.choice(pool), -rng.choice(pool)])
        for _x in (*nl.inputs, *nl.dffs)
    ]
    got = b.encode_netlist(nl, sources[: len(nl.inputs)], sources[len(nl.inputs) :])

    val = dict(zip((*nl.inputs, *(q for q, _d in nl.dffs)), sources))
    for i in nl.topo_order:
        out, kind, ins = nl.gates[i]
        val[out] = ref._encode_gate(kind, [val[a] for a in ins])
    assert (b.clauses, b.n_vars) == (ref.clauses, ref.n_vars)
    slot = nl.compiled.slot
    assert got == [val[net] for net in sorted(slot, key=slot.get)]


@given(netlists(max_arity=4), st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_encode_netlist_values_have_the_gate_by_gate_types(nl, rng):
    """A frame's constants stay bools and its literals ints, as folding
    gate by gate gives them: ``True == 1`` would hide a constant turned
    into literal 1, which this pool makes a live variable."""
    b, ref = CnfBuilder(), CnfBuilder()
    pool = [b.new_var() for _ in range(2)]
    ref.n_vars = b.n_vars
    sources = [rng.choice([True, False, *pool, *(-v for v in pool)]) for _x in (*nl.inputs, *nl.dffs)]
    got = b.encode_netlist(nl, sources[: len(nl.inputs)], sources[len(nl.inputs) :])
    val = sources[:]
    for kind, slots in nl.frame_program[0]:
        val.append(ref._encode_gate(kind, [val[s] for s in slots]))
    assert [(type(v), v) for v in got] == [(type(v), v) for v in val]


def test_builder_rejects_int_zero_pin():
    b = CnfBuilder()
    with pytest.raises(ValueError, match="use False"):
        b.encode_netlist(_comb(NOT_TEXT), [0])


def test_builder_rejects_sequential_netlists():
    b = CnfBuilder()
    nl = parse_bench("INPUT(a)\nOUTPUT(y)\nq = DFF(a)\ny = AND(a, q)")
    with pytest.raises(ValueError, match="needs its state pinned"):
        b.encode_netlist(nl, [True])


def test_builder_requires_all_pins():
    b = CnfBuilder()
    with pytest.raises(ValueError, match="1 input and 0 state values for 2 inputs and 0 flip-flops"):
        b.encode_netlist(_comb(AND_TEXT), [True])


def test_builder_pin_contradiction_flag():
    b = CnfBuilder()
    b.pin(True, 0)
    assert b.contradiction


def test_builder_pin_literal_adds_unit():
    b = CnfBuilder()
    v = b.new_var()
    b.pin(v, 1)
    b.pin(v, 0)
    assert b.clauses == [(v,), (-v,)]
    assert not b.contradiction  # conflict is the solver's to find


def test_builder_xor_value_folding():
    b = CnfBuilder()
    v = b.new_var()
    assert b.xor_value(True, False) is True
    assert b.xor_value(v, False) == v
    assert b.xor_value(v, True) == -v
    assert b.xor_value(v, v) is False
    assert b.xor_value(v, -v) is True
    w = b.xor_value(v, b.new_var())
    assert isinstance(w, int) and abs(w) > 2


def list_xor_fold(b, kind, ins):
    """The XOR fold over a list of live literals, quadratic in fan-in: the
    reference ``CnfBuilder`` must match literal for literal."""
    phase = kind == "XNOR"
    lits = []
    for a in ins:
        if a is True or a is False:
            phase ^= a
        elif -a in lits:
            lits.remove(-a)
            phase = not phase
        elif a in lits:
            lits.remove(a)
        else:
            lits.append(a)
    if not lits:
        return phase
    cur = lits[0]
    for a in lits[1:]:
        aux = b.new_var()
        b.clauses += [(-aux, cur, a), (-aux, -cur, -a), (aux, -cur, a), (aux, cur, -a)]
        cur = aux
    return -cur if phase else cur


@pytest.mark.parametrize("seed", range(40))
def test_builder_xor_fold_matches_the_list_fold(seed):
    rng = random.Random(seed)
    kind = rng.choice(["XOR", "XNOR"])
    b, ref = CnfBuilder(), CnfBuilder()
    pool = [b.new_var() for _ in range(rng.randint(1, 12))]
    ref.n_vars = b.n_vars
    ins = [
        rng.choice([True, False, rng.choice(pool), -rng.choice(pool)])
        for _ in range(rng.choice([1, 2, 3, 5, 17, 200]))
    ]
    assert b._encode_gate(kind, ins) == list_xor_fold(ref, kind, ins)
    assert (b.clauses, b.n_vars) == (ref.clauses, ref.n_vars)


def test_builder_and_or_fold_rules():
    b = CnfBuilder()
    v = b.new_var()
    assert b._encode_gate("AND", [v, False]) is False
    assert b._encode_gate("OR", [v, True]) is True
    assert b._encode_gate("AND", [v, v]) == v
    assert b._encode_gate("AND", [v, -v]) is False
    assert b._encode_gate("NOR", [False, False]) is True


def test_encode_gate_names_an_unknown_kind():
    b = CnfBuilder()
    with pytest.raises(ValueError, match="^unknown gate kind 'MUX'$"):
        b._encode_gate("MUX", [b.new_var(), b.new_var()])
