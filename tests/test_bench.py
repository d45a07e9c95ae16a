"""Netlist parsing, emission, and combinational evaluation."""

import gc
import itertools
import operator
import random
import re
import subprocess
import sys
import tracemalloc
import warnings
import weakref
from collections import Counter
from functools import reduce
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import relock
from relock import (
    BenchError,
    CircuitStats,
    DanglingNetWarning,
    EncryptConfig,
    Gate,
    Netlist,
    emit_bench,
    encrypt,
    load_bench,
    parse_bench,
)
from relock.bench import _CHUNK, _FUNCTION_INPUTS, GATE_KINDS, CompiledCircuit

from conftest import BENCH_STATS, bench_path

NOT_TEXT = "INPUT(a)\nOUTPUT(y)\ny = NOT(a)"


# -- a second, deliberately naive evaluator used as the oracle ----------------

def naive_nets(nl, in_vals, state_vals):
    """Evaluate every net by recursion over gate definitions.

    No topological sort, no caching across calls; memoization only to stay
    polynomial.  Bit values in, and a bit per net name out.
    """
    driver = {g.out: g for g in nl.gates}
    env = dict(zip(nl.inputs, in_vals))
    env.update({q: v for (q, _d), v in zip(nl.dffs, state_vals)})
    memo = {}

    def value(net):
        if net in env:
            return env[net]
        if net in memo:
            return memo[net]
        g = driver[net]
        ins = [value(x) for x in g.ins]
        if g.kind == "AND":
            v = int(all(ins))
        elif g.kind == "NAND":
            v = int(not all(ins))
        elif g.kind == "OR":
            v = int(any(ins))
        elif g.kind == "NOR":
            v = int(not any(ins))
        elif g.kind == "XOR":
            v = sum(ins) & 1
        elif g.kind == "XNOR":
            v = (sum(ins) & 1) ^ 1
        elif g.kind == "NOT":
            v = ins[0] ^ 1
        else:  # BUFF
            v = ins[0]
        memo[net] = v
        return v

    return {net: value(net) for net in nl.net_names}


def naive_eval(nl, in_vals, state_vals):
    nets = naive_nets(nl, in_vals, state_vals)
    return tuple(nets[y] for y in nl.outputs), tuple(nets[d] for (_q, d) in nl.dffs)


# -- parsing ------------------------------------------------------------------

def test_parse_minimal_not():
    nl = parse_bench(NOT_TEXT)
    assert nl.stats() == CircuitStats(1, 1, 0, 1)
    assert nl.gates[0].kind == "NOT"


@pytest.mark.parametrize("name", sorted(BENCH_STATS))
def test_parse_stock_benchmarks(name):
    nl = load_bench(bench_path(name))
    s = nl.stats()
    assert (s.n_inputs, s.n_outputs, s.n_dffs, s.n_gates) == BENCH_STATS[name]


def test_parse_keeps_one_string_per_net_name(s1238):
    # a 30k-gate netlist holds about 6 MiB less when every read of a net
    # shares the string its definition made
    nl = parse_bench(emit_bench(s1238))
    refs = [*nl.inputs, *nl.outputs, *(x for qd in nl.dffs for x in qd)]
    refs += [x for g in nl.gates for x in (g.out, g.kind, *g.ins)]
    assert len({id(x) for x in refs}) == len(set(refs))


def test_parse_is_case_insensitive_on_keywords():
    nl = parse_bench("input(a)\noutput(y)\ny = not(a)")
    assert nl.gates[0].kind == "NOT"


def test_parse_preserves_case_of_net_names():
    nl = parse_bench("INPUT(Alpha)\nOUTPUT(Y)\nY = BUFF(Alpha)")
    assert nl.inputs == ("Alpha",)


def test_parse_tolerates_crlf_comments_blank_lines():
    text = "# hdr\r\nINPUT(a)\r\n\r\nOUTPUT(y)\r\ny = NOT(a)  # tail\r\n"
    assert parse_bench(text).stats() == CircuitStats(1, 1, 0, 1)


def test_parse_undefined_net_reports_error():
    with pytest.raises(BenchError, match="undefined"):
        parse_bench("OUTPUT(y)\ny = AND(a, b)")


def test_parse_duplicate_definition_rejected():
    with pytest.raises(BenchError, match="duplicate"):
        parse_bench("INPUT(a)\nOUTPUT(y)\ny = NOT(a)\ny = BUFF(a)")


def test_parse_syntax_error_carries_line_number():
    with pytest.raises(BenchError) as exc:
        parse_bench("INPUT(a)\nOUTPUT(y)\ny = NOT a")
    assert exc.value.line == 3


def test_parse_bad_arity_rejected():
    with pytest.raises(BenchError, match="arity|input"):
        parse_bench("INPUT(a)\nOUTPUT(y)\ny = NOT(a, a)")
    with pytest.raises(BenchError, match="arity|input"):
        parse_bench("INPUT(a)\nOUTPUT(y)\ny = AND(a)")


def test_parse_unknown_gate_kind_rejected():
    with pytest.raises(BenchError):
        parse_bench("INPUT(a)\nOUTPUT(y)\ny = MAJ3(a, a, a)")


def test_parse_combinational_cycle_rejected():
    text = "INPUT(a)\nOUTPUT(y)\ny = AND(a, z)\nz = BUFF(y)"
    with pytest.raises(BenchError, match="cycle"):
        parse_bench(text)


def test_dff_breaks_cycles():
    # feedback through a register is fine
    text = "INPUT(a)\nOUTPUT(y)\nq = DFF(y)\ny = XOR(a, q)"
    nl = parse_bench(text)
    assert nl.dffs == (("q", "y"),)


def test_dangling_gate_output_warns_but_parses():
    text = "INPUT(a)\nOUTPUT(y)\ny = NOT(a)\nunused = BUFF(a)"
    with pytest.warns(DanglingNetWarning):
        nl = parse_bench(text)
    assert nl.stats().n_gates == 2


def test_duplicate_output_rejected():
    with pytest.raises(BenchError, match="output"):
        parse_bench("INPUT(a)\nOUTPUT(y)\nOUTPUT(y)\ny = NOT(a)")


@pytest.mark.parametrize("text, message", [
    ("INPUT(a)\nINPUT(a)\nOUTPUT(a)", "line 2: duplicate definition of net 'a' (first at line 1)"),
    ("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a,,b)", "line 4, column 8: bad argument list for 'y'"),
], ids=["repeated-input", "empty-argument"])
def test_parse_errors_give_line_and_message(text, message):
    with pytest.raises(BenchError, match=f"^{re.escape(message)}$"):
        parse_bench(text)


@pytest.mark.parametrize("inputs, gates, dffs, message", [
    (("a", "a"), (), (), "duplicate definition of net 'a'"),
    (("a",), (), (("a", "a"),), "duplicate definition of net 'a'"),
    (("a",), (Gate("y", "NOT", ("a",)), Gate("y", "BUFF", ("a",))), (), "duplicate definition of net 'y'"),
    (("a",), (Gate("y", "MAJ", ("a", "a", "a")),), (), "unknown gate kind 'MAJ' for net 'y'"),
    (("a",), (), (("q", "d"),), "flip-flop 'q' reads undefined net 'd'"),
], ids=["input", "flip-flop", "gate", "kind", "flip-flop-input"])
def test_netlist_built_directly_is_validated(inputs, gates, dffs, message):
    with pytest.raises(BenchError, match=f"^{re.escape(message)}$"):
        Netlist("t", inputs, ("a",), gates, dffs)


# parses a stock netlist or a hand-written text per argument in a fresh
# interpreter, printing how often the general gate-line patterns were
# compiled so far and the netlist or the error
_FRESH_PARSE = """
import sys
sys.path.insert(0, sys.argv[1])
from relock.bench import BenchError, _gate_line_res, load_bench, parse_bench
for arg in sys.argv[2:]:
    try:
        nl = load_bench(arg) if arg.endswith(".bench") else parse_bench(arg, "hand")
        out = repr(nl) if nl.name == "hand" else nl.name
    except BenchError as e:
        out = str(e)
    print(_gate_line_res.cache_info().misses, out)
"""


def test_hand_written_lines_parse_alike_in_a_fresh_process():
    # the stock netlists are all canonical lines, so the general gate-line
    # patterns are compiled only at the first hand-written gate line, and a
    # fresh process accepts and rejects those lines with the same messages
    stock = sorted((Path(__file__).resolve().parent.parent / "benchmarks").glob("*.bench"))
    cases = [
        ("input( a )\nINPUT(b)\noutput(y)\nq  =  dff( y )\ny = nand( a ,b , q )  # tail\n",
         "Netlist(name='hand', inputs=('a', 'b'), outputs=('y',), "
         "gates=(Gate(out='y', kind='NAND', ins=('a', 'b', 'q')),), dffs=(('q', 'y'),))"),
        ("INPUT(a)\nOUTPUT(y)\n  y = NOT a", "line 3, column 3: unrecognized line: 'y = NOT a'"),
        ("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a,,b)", "line 4, column 8: bad argument list for 'y'"),
        ("INPUT(a)\nOUTPUT(y)\ny  =  maj ( a, a, a )", "line 3, column 5: unknown gate kind 'MAJ'"),
        ("INPUT(a)\nOUTPUT(y)\ny = Not(a, a)", "NOT gate 'y' takes exactly one input, got 2"),
    ]
    src = Path(relock.__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-I", "-c", _FRESH_PARSE, str(src), *map(str, stock), *(text for text, _ in cases)],
        capture_output=True, text=True, check=True, timeout=120,
    )
    assert len(stock) == 7
    assert proc.stdout.splitlines() == [f"0 {p.stem}" for p in stock] + [f"1 {want}" for _, want in cases]


# -- emission -----------------------------------------------------------------

def test_emit_round_trip_not():
    nl = parse_bench(NOT_TEXT)
    assert parse_bench(emit_bench(nl)) == nl


def test_emit_round_trip_s27_preserves_stats(s27):
    again = parse_bench(emit_bench(s27), name=s27.name)
    assert again.stats() == CircuitStats(4, 1, 3, 10)
    assert again == s27


def test_emit_is_deterministic(s27):
    assert emit_bench(s27) == emit_bench(s27)


def test_emit_uses_lf_newlines(s27):
    assert "\r" not in emit_bench(s27)


# -- random netlist generator for property tests -------------------------------

@st.composite
def netlists(draw, min_gates=1, max_gates=12, max_arity=3):
    """Random valid netlist: inputs, then gates over already-defined nets."""
    n_in = draw(st.integers(1, 4))
    n_gates = draw(st.integers(min_gates, max_gates))
    n_dffs = draw(st.integers(0, 3))
    names = [f"i{k}" for k in range(n_in)]
    inputs = tuple(names)
    dff_qs = [f"q{k}" for k in range(n_dffs)]
    names += dff_qs  # DFF outputs usable as sources before their D is picked

    def pick():
        # an index into the growing list: sampled_from would copy it per draw
        return names[draw(st.integers(0, len(names) - 1))]

    gates = []
    for k in range(n_gates):
        kind = draw(st.sampled_from(GATE_KINDS))
        arity = 1 if kind in ("NOT", "BUFF") else draw(st.integers(2, max_arity))
        ins = tuple(pick() for _ in range(arity))
        out = f"g{k}"
        gates.append(Gate(out=out, kind=kind, ins=ins))
        names.append(out)
    dffs = tuple((q, pick()) for q in dff_qs)
    picks = draw(st.lists(st.integers(0, len(names) - 1), min_size=1, max_size=3, unique=True))
    outputs = tuple(names[i] for i in picks)
    return Netlist(
        name="fuzz",
        inputs=inputs,
        outputs=outputs,
        gates=tuple(gates),
        dffs=dffs,
    )


@given(netlists())
@settings(max_examples=60, deadline=None)
def test_emit_parse_round_trip_random(nl):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DanglingNetWarning)
        text = emit_bench(nl)
        again = parse_bench(text, name=nl.name)
        assert again == nl
        assert emit_bench(again) == text  # idempotent


def respell(text, rng):
    """``text`` with every gate and flip-flop line spelled off the one form
    emit_bench writes: other spacing, lower-case kinds, trailing comments."""
    lines = []
    for line in text.splitlines():
        m = re.fullmatch(r"(\S+) = (\w+)\((.*)\)", line)
        if m:
            out, kind, args = m.groups()
            sep = rng.choice([",", " , ", ",\t"])
            line = f"{rng.choice(['', '  '])}{out}{rng.choice(['=', ' =  '])}{rng.choice([kind, kind.lower()])}({sep.join(args.split(', '))})"
            if rng.random() < 0.5:
                line += f"  # {out}"
        lines.append(line)
    return "\n".join(lines)


def bench_error(text):
    with pytest.raises(BenchError) as exc:
        parse_bench(text)
    return str(exc.value), exc.value.line, exc.value.column


@given(netlists(), st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_canonical_and_general_spellings_parse_alike(nl, rng):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DanglingNetWarning)
        text = emit_bench(nl)
        assert parse_bench(respell(text, rng), name=nl.name) == parse_bench(text, name=nl.name) == nl
    # a malformed line in the canonical form, and the same line with a
    # comment, which sends it down the general path at the same columns
    lines = text.splitlines()
    at = rng.randrange(1 + len(nl.inputs) + len(nl.outputs), len(lines) + 1)
    bad = rng.choice([f"new = MAJ({nl.inputs[0]}, {nl.inputs[0]})", f"{nl.gates[0].out} = DFF({nl.inputs[0]})"])
    canonical = "\n".join([*lines[:at], bad, *lines[at:]])
    general = "\n".join([*lines[:at], bad + "  # spelled with a comment", *lines[at:]])
    assert bench_error(canonical) == bench_error(general)


@given(netlists(), st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_eval_matches_naive_recursive_oracle(nl, rng):
    in_vals = [rng.randrange(2) for _ in nl.inputs]
    st_vals = [rng.randrange(2) for _ in nl.dffs]
    outs, nxt = nl.compiled.eval(in_vals, st_vals)
    assert (outs, nxt) == naive_eval(nl, in_vals, st_vals)


def reference_topo_order(nl):
    """Kahn's sort with a producer dict and one fan-out list per gate: the
    order ``Netlist.topo_order`` must reproduce."""
    producer = {g.out: i for i, g in enumerate(nl.gates)}
    indeg = [0] * len(nl.gates)
    fanout = [[] for _ in nl.gates]
    for i, g in enumerate(nl.gates):
        for a in g.ins:
            if a in producer:
                indeg[i] += 1
                fanout[producer[a]].append(i)
    ready = [i for i, d in enumerate(indeg) if d == 0]
    order = []
    while ready:
        i = ready.pop()
        order.append(i)
        for j in fanout[i]:
            indeg[j] -= 1
            if indeg[j] == 0:
                ready.append(j)
    return tuple(order)


@given(netlists(max_gates=40), st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_topo_order_matches_reference_kahn(nl, rng):
    gates = list(nl.gates)
    rng.shuffle(gates)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DanglingNetWarning)
        nl = Netlist(nl.name, nl.inputs, nl.outputs, tuple(gates), nl.dffs)
    assert nl.topo_order == reference_topo_order(nl)
    reads = Counter(a for g in gates for a in g.ins)
    assert nl._reads == tuple(reads[g.out] for g in gates)


def test_validation_peak_memory_stays_small():
    # a producer dict and one fan-out list per gate peaked at 1.49 MiB here;
    # one driver dict and flat fan-out arrays peak at 0.86 MiB
    cfg = EncryptConfig(lfsr_width=5, enc_out_width=3, key_len=8, sbj_bits=2, coverage=0.1)
    nl = parse_bench(emit_bench(encrypt(load_bench(bench_path("s9234")), cfg).netlist))
    tracemalloc.start()
    try:
        Netlist(nl.name, nl.inputs, nl.outputs, nl.gates, nl.dffs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.2 * 2**20


def test_dropped_netlist_is_freed_without_a_collection(s27):
    nl = parse_bench(emit_bench(s27), name=s27.name)
    want = nl.compiled.eval([1, 0, 1, 1], [0, 1, 1])
    ref = weakref.ref(nl)
    gc.disable()
    try:
        del nl
        assert ref() is None
    finally:
        gc.enable()
    # a circuit built directly keeps its netlist
    cc = CompiledCircuit(parse_bench(emit_bench(s27), name=s27.name))
    gc.collect()
    assert cc.eval([1, 0, 1, 1], [0, 1, 1]) == want
    assert cc.netlist == s27


# -- evaluation corner cases ----------------------------------------------------

def test_eval_not():
    nl = parse_bench(NOT_TEXT)
    assert nl.compiled.eval([1])[0] == (0,)
    assert nl.compiled.eval([0])[0] == (1,)


def test_eval_xor_pair():
    nl = parse_bench("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = XOR(a, b)")
    assert nl.compiled.eval([1, 1])[0] == (0,)
    assert nl.compiled.eval([1, 0])[0] == (1,)


def test_eval_s27_against_oracle(s27):
    rng = random.Random(2701)
    for _ in range(50):
        iv = [rng.randrange(2) for _ in s27.inputs]
        sv = [rng.randrange(2) for _ in s27.dffs]
        assert s27.compiled.eval(iv, sv) == naive_eval(s27, iv, sv)


def test_eval_requires_exact_widths(s27):
    with pytest.raises(ValueError):
        s27.compiled.eval([0, 1], [0, 0, 0])
    with pytest.raises(ValueError):
        s27.compiled.eval([0, 1, 0, 1], [0])


def test_compiled_eval_packs_lanes(s27):
    # 8 lanes at once must agree with 8 single-lane calls
    rng = random.Random(99)
    vecs = [[rng.randrange(2) for _ in range(8)] for _ in s27.inputs]
    states = [[rng.randrange(2) for _ in range(8)] for _ in s27.dffs]
    in_words = [sum(bit << k for k, bit in enumerate(col)) for col in vecs]
    st_words = [sum(bit << k for k, bit in enumerate(col)) for col in states]
    outs, nxt = s27.compiled.eval(in_words, st_words, width=8)
    for lane in range(8):
        iv = [col[lane] for col in vecs]
        sv = [col[lane] for col in states]
        o1, n1 = s27.compiled.eval(iv, sv)
        assert tuple((w >> lane) & 1 for w in outs) == o1
        assert tuple((w >> lane) & 1 for w in nxt) == n1


# -- generated kernels across chunk boundaries ---------------------------------

def kind_arity_netlist(rng, n_in=5, n_dffs=3):
    """Gate k has kind GATE_KINDS[k % 8] and, if it takes several inputs,
    arity 2 + k // 8 % 13: every kind at every arity up to 14, in shuffled
    declaration order, mostly reading recent nets so values cross chunks."""
    names = [f"i{k}" for k in range(n_in)] + [f"q{k}" for k in range(n_dffs)]
    gates = []
    # one pass over the 13 arities takes 650 gate inputs; enough passes to
    # fill more than two kernel functions
    passes = 2 * _FUNCTION_INPUTS // 650 + 1
    for k in range(len(GATE_KINDS) * 13 * passes):
        kind = GATE_KINDS[k % len(GATE_KINDS)]
        arity = 1 if kind in ("NOT", "BUFF") else 2 + k // len(GATE_KINDS) % 13
        pool = names[-24:] if rng.random() < 0.7 else names
        gates.append(Gate(f"g{k}", kind, tuple(rng.choice(pool) for _ in range(arity))))
        names.append(f"g{k}")
    rng.shuffle(gates)
    dffs = tuple((f"q{k}", rng.choice(names[n_in + n_dffs :])) for k in range(n_dffs))
    outputs = tuple(rng.sample(names, 8))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DanglingNetWarning)
        return Netlist("kinds", tuple(names[:n_in]), outputs, tuple(gates), dffs)


def assert_kernel_matches_naive(nl, rng, width):
    # a copy whose outputs list every net stores every net, so its eval
    # shows each one; the original's eval runs the inlining kernel
    all_nets = (*nl.inputs, *(q for q, _d in nl.dffs), *(g.out for g in nl.gates))
    every = Netlist(nl.name, nl.inputs, all_nets, nl.gates, nl.dffs)
    assert set(every.outputs) == nl.net_names
    # words carry junk above the lane mask, which evaluation must ignore
    in_words = [rng.getrandbits(width + 9) for _ in nl.inputs]
    st_words = [rng.getrandbits(width + 9) for _ in nl.dffs]
    nets = dict(zip(every.outputs, CompiledCircuit(every).eval(in_words, st_words, width)[0]))
    for lane in range(width):
        iv = [(w >> lane) & 1 for w in in_words]
        sv = [(w >> lane) & 1 for w in st_words]
        want = naive_nets(nl, iv, sv)
        assert {net: (w >> lane) & 1 for net, w in nets.items()} == want
    assert all(w >> width == 0 for w in nets.values())
    outs, nxt = CompiledCircuit(nl).eval(in_words, st_words, width)
    assert outs == tuple(nets[y] for y in nl.outputs)
    assert nxt == tuple(nets[d] for _q, d in nl.dffs)


@pytest.mark.parametrize("width", [1, 64, 1000])
@pytest.mark.parametrize("seed", [0, 1])
def test_kernel_every_kind_and_arity_matches_naive(width, seed):
    rng = random.Random(f"kinds/{seed}/{width}")
    nl = kind_arity_netlist(rng)
    assert len(CompiledCircuit(nl)._kernel) >= 3
    assert {(g.kind, len(g.ins)) for g in nl.gates} >= {(k, 14) for k in GATE_KINDS if k not in ("NOT", "BUFF")}
    assert_kernel_matches_naive(nl, rng, width)


def random_netlist(rng, n_gates, max_arity):
    """Random valid netlist like ``netlists()``, drawn from a plain ``rng``:
    hypothesis draws one choice at a time, too slowly for hundreds of gates."""
    inputs = tuple(f"i{k}" for k in range(rng.randint(1, 4)))
    dff_qs = [f"q{k}" for k in range(rng.randint(0, 3))]
    names = [*inputs, *dff_qs]
    gates = []
    for k in range(n_gates):
        kind = rng.choice(GATE_KINDS)
        arity = 1 if kind in ("NOT", "BUFF") else rng.randint(2, max_arity)
        gates.append(Gate(f"g{k}", kind, tuple(rng.choice(names) for _ in range(arity))))
        names.append(f"g{k}")
    dffs = tuple((q, rng.choice(names)) for q in dff_qs)
    outputs = tuple(rng.sample(names, rng.randint(1, 3)))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DanglingNetWarning)
        return Netlist("fuzz", inputs, outputs, tuple(gates), dffs)


@given(st.randoms(use_true_random=True))
@settings(max_examples=25, deadline=None)
def test_kernel_across_chunks_matches_naive_random(rng):
    # every gate has an input, so more than two functions' worth of gate inputs
    nl = random_netlist(rng, rng.randint(2 * _FUNCTION_INPUTS + 1, 3 * _FUNCTION_INPUTS), max_arity=14)
    assert len(CompiledCircuit(nl)._kernel) >= 3
    assert_kernel_matches_naive(nl, rng, rng.choice([1, 3, 64]))


def statement_gate_inputs(cc, statements):
    """Gate inputs each fused statement covers, derived from its source alone.

    A statement stores one slot; the gates it evaluates are the cone behind
    that net up to nets that are primary inputs, flip-flop outputs or stored
    by some statement.  The slots it reads must be exactly that cone's leaves.
    """
    net_of = {k: net for net, k in cc.slot.items()}
    driver = {g.out: g for g in cc.netlist.gates}
    parsed = [re.fullmatch(r"v\[(\d+)\] = (.*)", src).groups() for src, _n in statements]
    stored = {net_of[int(k)] for k, _expr in parsed} | set(cc.netlist.inputs) | {q for q, _d in cc.netlist.dffs}
    widths = []
    for k, expr in parsed:
        cone, leaves, todo = [], set(), [driver[net_of[int(k)]]]
        while todo:
            g = todo.pop()
            cone.append(g)
            for a in g.ins:
                if a in stored:
                    leaves.add(a)
                else:
                    todo.append(driver[a])
        assert {net_of[int(r)] for r in re.findall(r"v\[(\d+)\]", expr)} == leaves
        widths.append(sum(len(g.ins) for g in cone))
    return widths


def test_kernel_build_peak_memory_stays_small():
    # compile() holds about 3 KB per gate input while it runs, so the kernel
    # is built in small chunks; one function per netlist peaks above 50 MiB
    cfg = EncryptConfig(lfsr_width=5, enc_out_width=3, key_len=8, sbj_bits=2, coverage=0.1)
    cc = CompiledCircuit(encrypt(load_bench(bench_path("s9234")), cfg).netlist)
    tracemalloc.start()
    try:
        cc._kernel
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert max(len(g.ins) for g in cc.netlist.gates) <= _CHUNK
    statements = list(cc._statements())
    assert len(statements) < 0.6 * len(cc.netlist.gates)
    assert max(statement_gate_inputs(cc, statements)) <= _CHUNK
    assert peak < 4 * 2**20


# -- fused kernel expressions ----------------------------------------------------

@st.composite
def chain_netlists(draw, max_gates=40):
    """Random netlist biased towards single-reader chains: four in five gates
    read the gate declared just before them, so most gates are inlined into
    their reader and every kind comes to feed every kind."""
    n_in = draw(st.integers(1, 4))
    sources = [f"i{k}" for k in range(n_in)] + [f"q{k}" for k in range(draw(st.integers(0, 2)))]
    names = list(sources)
    gates = []
    for k in range(draw(st.integers(1, max_gates))):
        kind = draw(st.sampled_from(GATE_KINDS))
        arity = 1 if kind in ("NOT", "BUFF") else draw(st.integers(2, 4))
        ins = [draw(st.sampled_from(sources if draw(st.booleans()) else names)) for _ in range(arity)]
        if gates and draw(st.integers(0, 4)):
            ins[draw(st.integers(0, arity - 1))] = gates[-1].out
        gates.append(Gate(f"g{k}", kind, tuple(ins)))
        names.append(f"g{k}")
    dffs = tuple((q, draw(st.sampled_from(names))) for q in sources[n_in:])
    outputs = tuple(dict.fromkeys([names[-1], *draw(st.lists(st.sampled_from(names), max_size=2))]))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DanglingNetWarning)
        return Netlist("chains", tuple(sources[:n_in]), outputs, tuple(gates), dffs)


def assert_eval_matches_naive(nl, rng, width):
    in_words = [rng.getrandbits(width + 9) for _ in nl.inputs]
    st_words = [rng.getrandbits(width + 9) for _ in nl.dffs]
    outs, nxt = CompiledCircuit(nl).eval(in_words, st_words, width)
    for lane in range(width):
        iv = [(w >> lane) & 1 for w in in_words]
        sv = [(w >> lane) & 1 for w in st_words]
        got = tuple((w >> lane) & 1 for w in outs), tuple((w >> lane) & 1 for w in nxt)
        assert got == naive_eval(nl, iv, sv)
    assert all(w >> width == 0 for w in outs + nxt)


@pytest.mark.parametrize("width", [1, 3, 64, 1000])
@given(nl=chain_netlists(), rng=st.randoms(use_true_random=False))
@settings(max_examples=30, deadline=None)
def test_fused_eval_matches_naive_on_chains(width, nl, rng):
    assert_eval_matches_naive(nl, rng, width)


def test_fused_eval_every_kind_triple():
    # gate c reads gate b, which reads gate a, for every ordered kind triple
    names, gates, outputs = ["x0", "x1", "x2"], [], []
    for k, kinds in enumerate(itertools.product(GATE_KINDS, repeat=3)):
        prev = None
        for j, kind in enumerate(kinds):
            ins = (prev or "x0",) if kind in ("NOT", "BUFF") else (prev or "x0", names[1 + j % 2])
            prev = f"t{k}_{j}"
            gates.append(Gate(prev, kind, ins))
        outputs.append(prev)
    nl = Netlist("triples", tuple(names), tuple(outputs), tuple(gates), ())
    assert len(list(nl.compiled._statements())) == len(outputs)
    for width in (1, 64):
        assert_eval_matches_naive(nl, random.Random(width), width)


LONG_CHAINS = {
    "NOT": (3000, lambda x, _b, m: x ^ m),
    "BUFF": (3000, lambda x, _b, _m: x),
    "XNOR": (3000, lambda x, b, m: x ^ b ^ m),
    "NOR": (300, lambda x, b, m: (x | b) ^ m),
}


@pytest.mark.parametrize("kind", sorted(LONG_CHAINS))
def test_long_single_reader_chain_stays_within_bounds(kind):
    # inlined whole, a 3000-gate chain nests past compile()'s recursion limit
    n, step = LONG_CHAINS[kind]
    extra = () if kind in ("NOT", "BUFF") else ("b",)
    gates = [Gate(f"g{k}", kind, (f"g{k - 1}" if k else "a", *extra)) for k in range(n)]
    nl = Netlist("long", ("a", "b"), (f"g{n - 1}",), tuple(gates), ())
    cc = nl.compiled
    statements = list(cc._statements())
    assert len(statements) < len(gates) / 5
    assert max(statement_gate_inputs(cc, statements)) <= _CHUNK
    width = 64
    rng = random.Random(kind)
    a, b = rng.getrandbits(width), rng.getrandbits(width)
    want, m = a, (1 << width) - 1
    for _ in range(n):
        want = step(want, b, m)
    assert cc.eval([a, b], (), width) == ((want,), ())


# gate kind -> (the operator folded over its inputs, inverted)
WIDE_FOLDS = {
    "AND": (operator.and_, False), "NAND": (operator.and_, True), "OR": (operator.or_, False),
    "NOR": (operator.or_, True), "XOR": (operator.xor, False), "XNOR": (operator.xor, True),
}


@pytest.mark.parametrize("kind", sorted(WIDE_FOLDS))
def test_gate_wider_than_a_statement_is_chained(kind):
    # one expression over 3000 inputs nests past compile()'s recursion limit;
    # the gate is read once, so it would be inlined into the NOT if it could be
    n = 4096
    ins = tuple(f"i{k}" for k in range(n))
    nl = Netlist("wide", ins, ("y",), (Gate("w", kind, ins), Gate("y", "NOT", ("w",))), ())
    assert max(n_in for _src, n_in in nl.compiled._statements()) <= _CHUNK
    assert_kernel_matches_naive(nl, random.Random(kind), 8)
    # lane k flips input k alone away from the value that decides an AND or
    # an OR, so an input dropped or read twice changes the output
    width = n + 1
    full = (1 << width) - 1
    words = [(full if kind in ("AND", "NAND") else 0) ^ (1 << k) for k in range(n)]
    fold, inv = WIDE_FOLDS[kind]
    want = reduce(fold, words) ^ (0 if inv else full)
    assert nl.compiled.eval(words, (), width) == ((want,), ())
