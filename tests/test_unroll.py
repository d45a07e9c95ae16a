"""Frame expansion and CNF encoding."""

import random
import warnings

import pytest
from hypothesis import given, settings, strategies as st

from relock import (
    SAT,
    Cnf,
    CnfBuilder,
    DanglingNetWarning,
    eval_comb,
    parse_bench,
    simulate,
    solve,
    to_cnf,
    to_dimacs,
    unroll,
    workload_stimulus,
)

from test_bench import netlists

AND_TEXT = "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)"
NOT_TEXT = "INPUT(a)\nOUTPUT(y)\ny = NOT(a)"
TOGGLE_Q = "OUTPUT(q)\nq = DFF(y)\ny = NOT(q)"


# -- unrolling -----------------------------------------------------------------

def test_unroll_rejects_bad_frame_count(s27):
    with pytest.raises(ValueError):
        unroll(s27, 0)


def test_unroll_rejects_colliding_names():
    nl = parse_bench("INPUT(a@1)\nOUTPUT(y)\ny = NOT(a@1)")
    with pytest.raises(ValueError, match="collide"):
        unroll(nl, 2)


def test_unroll_gate_count_scales(s27):
    for T in (1, 2, 5):
        u = unroll(s27, T)
        assert len(u.netlist.gates) == T * len(s27.gates)
        assert u.netlist.dffs == ()


def test_unroll_toggle_constant_frames():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DanglingNetWarning)
        nl = parse_bench(TOGGLE_Q, name="toggle")
    u = unroll(nl, 3)
    from relock.unroll import eval_unrolled

    assert eval_unrolled(u, [0, 0, 0]) == [0, 1, 0]


def test_unroll_single_frame_equals_reset_eval(s27):
    from relock.unroll import eval_unrolled

    u = unroll(s27, 1)
    rng = random.Random(1)
    for _ in range(50):
        word = rng.getrandbits(4)
        bits = [(word >> b) & 1 for b in range(4)]
        outs, _ = eval_comb(s27, bits, [0, 0, 0])
        want = sum(v << k for k, v in enumerate(outs))
        assert eval_unrolled(u, [word]) == [want]


def test_unroll_frame_helpers(s27):
    u = unroll(s27, 2)
    assert u.frame_net("G17", 1) == "G17@1"
    assert u.frame_inputs(0) == tuple(f"{x}@0" for x in s27.inputs)
    assert set(u.frame_outputs(1)) <= set(u.netlist.outputs)


def test_eval_unrolled_validates_frame_count(s27):
    from relock.unroll import eval_unrolled

    u = unroll(s27, 3)
    with pytest.raises(ValueError, match="frame inputs"):
        eval_unrolled(u, [0, 0])


@given(netlists(), st.integers(1, 5), st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_unroll_matches_simulation(nl, T, rng):
    """Per-frame unrolled outputs equal a cycle-accurate run."""
    from relock.unroll import eval_unrolled

    vectors = [rng.getrandbits(len(nl.inputs)) for _ in range(T)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DanglingNetWarning)
        u = unroll(nl, T)
    tr = simulate(nl, workload_stimulus(vectors))
    assert eval_unrolled(u, vectors) == list(tr.outputs)


# -- Tseitin encoding ------------------------------------------------------------

def test_cnf_textbook_and():
    u = unroll(parse_bench(AND_TEXT), 1)
    cnf = to_cnf(u)
    assert cnf.n_vars == 3
    assert cnf.clauses == [(-3, 1), (-3, 2), (3, -1, -2)]


def test_cnf_textbook_not():
    u = unroll(parse_bench(NOT_TEXT), 1)
    cnf = to_cnf(u)
    assert cnf.n_vars == 2
    assert len(cnf.clauses) == 2


def test_cnf_assumptions_are_units():
    u = unroll(parse_bench(AND_TEXT), 1)
    cnf = to_cnf(u, assumptions=[1, -2])
    assert cnf.clauses[-2:] == [(1,), (-2,)]


def test_dimacs_bytes():
    u = unroll(parse_bench(AND_TEXT), 1)
    text = to_dimacs(to_cnf(u))
    assert text == "p cnf 3 3\n-3 1 0\n-3 2 0\n3 -1 -2 0\n"


def test_dimacs_comments():
    u = unroll(parse_bench(NOT_TEXT), 1)
    text = to_dimacs(to_cnf(u), comments=("hello",))
    assert text.startswith("c hello\np cnf 2 2\n")


def test_cnf_rejects_empty_clause():
    with pytest.raises(ValueError, match="empty"):
        Cnf(n_vars=1, clauses=[()])


def test_cnf_rejects_out_of_range_literal():
    with pytest.raises(ValueError, match="out of range"):
        Cnf(n_vars=1, clauses=[(2,)])


def test_cnf_notes_point_back_to_frames(s27):
    u = unroll(s27, 2)
    cnf = to_cnf(u)
    v = cnf.var_of["G17@1"]
    assert cnf.note[v] == (1, "G17")


@given(netlists(), st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_cnf_models_decode_to_circuit_values(nl, rng):
    """Pin the inputs; the unique model must equal direct evaluation."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DanglingNetWarning)
        u = unroll(nl, 1)
    cnf = to_cnf(u)
    word = rng.getrandbits(len(nl.inputs))
    assumptions = []
    for b, x in enumerate(nl.inputs):
        v = cnf.var_of[f"{x}@0"]
        assumptions.append(v if (word >> b) & 1 else -v)
    pinned = Cnf(
        n_vars=cnf.n_vars,
        clauses=cnf.clauses + [(a,) for a in assumptions],
        var_of=cnf.var_of,
        note=cnf.note,
    )
    res = solve(pinned)
    assert res.status == SAT
    bits = [(word >> b) & 1 for b in range(len(nl.inputs))]
    state = [0] * len(nl.dffs)
    outs, _ = eval_comb(nl, bits, state)
    for y, want in zip(nl.outputs, outs):
        assert res.model[cnf.var_of[f"{y}@0"]] == bool(want)


# -- incremental builder -----------------------------------------------------------

def _comb(nl_text):
    return parse_bench(nl_text)


def test_builder_all_constant_inputs_fold_away():
    b = CnfBuilder()
    nl = _comb(AND_TEXT)
    for a in (False, True):
        for c in (False, True):
            val = b.encode_netlist(nl, {"a": a, "b": c})
            assert val["y"] is (a and c)
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
    val = b.encode_netlist(comb, pins)
    rng = random.Random(12)
    for _ in range(30):
        bits = {x: rng.randrange(2) for x in comb.inputs}
        cls = list(b.clauses)
        for x, v in pins.items():
            cls.append((v,) if bits[x] else (-v,))
        res = solve(cls, n_vars=b.n_vars)
        assert res.status == SAT
        outs, _ = eval_comb(comb, [bits[x] for x in comb.inputs], [])
        for y, want in zip(comb.outputs, outs):
            lit = val[y]
            got = res.model[abs(lit)] ^ (lit < 0)
            assert got == bool(want)

    # s27 itself, flip-flop outputs pinned, encodes as the same frame
    frame = CnfBuilder()
    frame_val = frame.encode_netlist(s27, {x: frame.new_var() for x in comb.inputs})
    assert frame.clauses == b.clauses
    assert frame.n_vars == b.n_vars
    assert [frame_val[y] for y in s27.outputs] == [val[y] for y in comb.outputs]


def test_builder_rejects_int_zero_pin():
    b = CnfBuilder()
    with pytest.raises(ValueError, match="use False"):
        b.encode_netlist(_comb(NOT_TEXT), {"a": 0})


def test_builder_rejects_sequential_netlists():
    b = CnfBuilder()
    nl = parse_bench("INPUT(a)\nOUTPUT(y)\nq = DFF(a)\ny = AND(a, q)")
    with pytest.raises(ValueError, match="combinational"):
        b.encode_netlist(nl, {"a": True})


def test_builder_requires_all_pins():
    b = CnfBuilder()
    with pytest.raises(ValueError, match="unpinned"):
        b.encode_netlist(_comb(AND_TEXT), {"a": True})


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


def test_builder_and_or_fold_rules():
    b = CnfBuilder()
    v = b.new_var()
    assert b._encode_gate("AND", [v, False]) is False
    assert b._encode_gate("OR", [v, True]) is True
    assert b._encode_gate("AND", [v, v]) == v
    assert b._encode_gate("AND", [v, -v]) is False
    assert b._encode_gate("NOR", [False, False]) is True
