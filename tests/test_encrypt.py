"""Encryption transform: key tables, XOR taps, and the full lowering."""

import json
import math
import random

import pytest

from relock import (
    EncryptConfig,
    EncryptedDesign,
    KeySchedule,
    Netlist,
    derive_sbj,
    emit_bench,
    encrypt,
    parse_bench,
    simulate,
    trusted_user_stimulus,
)
from relock.bench import GATE_KINDS
from relock.encrypt import DEFAULT_SEED, _build_enc_fsm, _xor_gates

TOY_CFG = EncryptConfig(
    lfsr_width=3,
    lfsr_taps=(3, 2),
    enc_out_width=2,
    key_len=2,
    sbj_bits=1,
    coverage=0.4,
    master_seed=77,
)


def rand_bits(rng, n):
    return [rng.randrange(2) for _ in range(n)]


# -- config validation ----------------------------------------------------------

def test_config_defaults_are_valid():
    EncryptConfig().validate()


@pytest.mark.parametrize(
    "kwargs",
    [
        {"lfsr_width": 0},
        {"key_len": 0},
        {"sbj_bits": 0},
        {"sbj_bits": 6, "lfsr_width": 5},
        {"enc_out_width": 0},
        {"coverage": 0.0},
        {"coverage": 1.5},
        {"sbj_bits": 10, "lfsr_width": 12, "key_len": 100},
    ],
)
def test_config_rejects_bad_fields(kwargs):
    with pytest.raises(ValueError):
        EncryptConfig(**kwargs).validate()


def test_single_bit_corruption_word_needs_single_cycle_chains():
    # a 1-bit word cannot change value between consecutive nonzero states
    with pytest.raises(ValueError, match="enc_out_width=1"):
        EncryptConfig(enc_out_width=1, key_len=2).validate()
    EncryptConfig(enc_out_width=1, key_len=1).validate()


def test_config_dict_round_trip():
    cfg = TOY_CFG
    assert EncryptConfig.from_dict(cfg.to_dict()) == cfg
    with pytest.raises(ValueError, match="unknown"):
        EncryptConfig.from_dict({"bogus": 1})


# -- secret table construction ----------------------------------------------------

def test_enc_fsm_words_nonzero_and_switching():
    rng = random.Random(5)
    spec = _build_enc_fsm(8, EncryptConfig(enc_out_width=3, key_len=8), rng)
    for row in spec.enc_out_table:
        assert all(w != 0 for w in row)
        assert all(a != b for a, b in zip(row, row[1:]))


def test_enc_fsm_key_table_shape():
    cfg = EncryptConfig(sbj_bits=2, key_len=8)
    spec = _build_enc_fsm(14, cfg, random.Random(1))
    assert len(spec.key_table) == 4
    assert all(len(row) == 8 for row in spec.key_table)
    assert all(0 <= p < 2**14 for row in spec.key_table for p in row)


def test_enc_fsm_deterministic_in_seed():
    cfg = EncryptConfig()
    a = _build_enc_fsm(6, cfg, random.Random(42))
    b = _build_enc_fsm(6, cfg, random.Random(42))
    assert a.key_table == b.key_table
    assert a.enc_out_table == b.enc_out_table


# -- chain selector -----------------------------------------------------------------

def test_derive_sbj_examples():
    assert derive_sbj(0b1101, 2) == 1
    assert derive_sbj(0b1101, 4) == 0b1101  # full-width slice is identity
    assert derive_sbj(0, 7) == 0


def test_derive_sbj_rejects_bad_args():
    with pytest.raises(ValueError):
        derive_sbj(3, 0)
    with pytest.raises(ValueError):
        derive_sbj(-1, 2)


# -- XOR tap insertion ----------------------------------------------------------------

def xor_netlist(nl, enc_out_width, coverage, rng):
    """``nl`` with XOR taps at random sites, each ``LK_corrupt<j>`` net a new
    primary input, and the sites."""
    gates, sites = _xor_gates(nl, enc_out_width, coverage, rng, "LK_")
    corrupt = tuple(f"LK_corrupt{j}" for j in range(min(enc_out_width, len(sites))))
    return Netlist(nl.name, nl.inputs + corrupt, nl.outputs, tuple(gates), nl.dffs), sites


def test_insert_xor_site_count(s27):
    for rho in (0.05, 0.2, 0.5, 1.0):
        sites = encrypt(s27, EncryptConfig(coverage=rho)).report.sites
        assert len(sites) == math.ceil(rho * len(s27.gates))


def test_insert_xor_round_robin_assignment(s1238):
    sites = encrypt(s1238, EncryptConfig(enc_out_width=3, coverage=6 / len(s1238.gates))).report.sites
    assert len(sites) == 6
    per_bit = [sum(1 for s in sites if s.enc_bit == b) for b in range(3)]
    assert per_bit == [2, 2, 2]


def test_insert_xor_zero_word_is_identity(s27):
    nlx, _ = xor_netlist(s27, 3, 0.5, random.Random(9))
    rng = random.Random(10)
    extra = len(nlx.inputs) - len(s27.inputs)
    for _ in range(1000):
        iv = rand_bits(rng, len(s27.inputs))
        sv = rand_bits(rng, len(s27.dffs))
        assert nlx.compiled.eval(iv + [0] * extra, sv) == s27.compiled.eval(iv, sv)


FLAT6_TEXT = "\n".join(
    [f"INPUT(a{k})" for k in range(4)]
    + [f"OUTPUT(y{k})" for k in range(6)]
    + [
        "y0 = AND(a0, a1)",
        "y1 = OR(a1, a2)",
        "y2 = NAND(a2, a3)",
        "y3 = NOR(a0, a3)",
        "y4 = XOR(a1, a3)",
        "y5 = XNOR(a0, a2)",
    ]
)


def test_insert_xor_set_bit_complements_its_sites():
    # gates read primary inputs only and drive the outputs, so corruption
    # cannot cascade and eval shows the complement at each tapped net
    flat = parse_bench(FLAT6_TEXT, name="flat6")
    nlx, sites = xor_netlist(flat, 3, 1.0, random.Random(4))
    assert len(sites) == 6
    rng = random.Random(11)
    for j in range(3):
        corrupt = [1 if b == j else 0 for b in range(3)]
        for _ in range(50):
            iv = rand_bits(rng, 4)
            base = dict(zip(flat.outputs, flat.compiled.eval(iv)[0]))
            poked = dict(zip(nlx.outputs, nlx.compiled.eval(iv + corrupt)[0]))
            for site in sites:
                want = base[site.net] ^ (1 if site.enc_bit == j else 0)
                assert poked[site.net] == want


def test_insert_xor_rejects_gateless_netlist():
    nl = parse_bench("INPUT(a)\nOUTPUT(a)")
    with pytest.raises(ValueError, match="no gates"):
        encrypt(nl, EncryptConfig())


# -- full encryption --------------------------------------------------------------------

def test_encrypt_grows_the_design(s27):
    enc = encrypt(s27, TOY_CFG)
    assert len(enc.netlist.gates) > len(s27.gates)
    assert len(enc.netlist.dffs) > len(s27.dffs)
    assert enc.netlist.inputs == s27.inputs
    assert enc.netlist.outputs == s27.outputs


def test_encrypt_uses_only_primitive_kinds(s27):
    enc = encrypt(s27, TOY_CFG)
    assert {g.kind for g in enc.netlist.gates} <= set(GATE_KINDS)


def test_encrypt_is_deterministic(s27):
    a = encrypt(s27, TOY_CFG)
    b = encrypt(s27, TOY_CFG)
    assert emit_bench(a.netlist) == emit_bench(b.netlist)
    assert a.schedule == b.schedule


def test_encrypt_seed_changes_output(s27):
    a = encrypt(s27, TOY_CFG)
    b = encrypt(s27, EncryptConfig(**{**TOY_CFG.to_dict(), "master_seed": 78}))
    assert a.schedule.key_table != b.schedule.key_table


def test_encrypt_report_counts(s27):
    enc = encrypt(s27, TOY_CFG)
    rep = enc.report
    assert rep.added_gates == len(enc.netlist.gates) - len(s27.gates)
    assert rep.added_dffs == len(enc.netlist.dffs) - len(s27.dffs)
    assert rep.achieved_coverage == len(rep.sites) / len(s27.gates)
    # shadow registers + LFSR + counter + controller state all add DFFs
    assert rep.added_dffs >= len(s27.dffs) + 2 * TOY_CFG.lfsr_width


def test_encrypt_emits_parseable_bench(s27):
    enc = encrypt(s27, TOY_CFG)
    again = parse_bench(emit_bench(enc.netlist), name=enc.netlist.name)
    assert again == enc.netlist


def test_encrypt_validates_one_netlist_per_lock(s27, monkeypatch):
    validated = []
    real = Netlist._validate
    monkeypatch.setattr(Netlist, "_validate", lambda nl: validated.append(nl.name) or real(nl))
    enc = encrypt(s27, TOY_CFG)
    assert validated == [enc.netlist.name]
    # the XOR rewrite is the head of the locked gate list, never a netlist of its own
    rng = random.Random(f"{TOY_CFG.master_seed}/sites")
    gates, sites = _xor_gates(s27, TOY_CFG.enc_out_width, TOY_CFG.coverage, rng, enc.report.prefix)
    assert validated == [enc.netlist.name]
    assert sites == enc.report.sites
    assert enc.netlist.gates[: len(gates)] == tuple(gates)


def test_schedule_json_round_trip(s27):
    sched = encrypt(s27, TOY_CFG).schedule
    assert KeySchedule.from_json(sched.to_json()) == sched


def test_schedule_json_rejects_other_versions(s27):
    sched = encrypt(s27, TOY_CFG).schedule
    text = sched.to_json().replace('"version": 1', '"version": 99')
    with pytest.raises(ValueError, match="version"):
        KeySchedule.from_json(text)


# each edit leaves valid JSON that is not a valid schedule of the toy lock
# (n=3, taps 3,2, c=2, l=1, i=4)
MALFORMED_SCHEDULES = {
    "too-few-rows": lambda d: d.update(key_table=d["key_table"][:1]),
    "too-many-rows": lambda d: d.update(key_table=d["key_table"] * 2),
    "short-row": lambda d: d.update(c=3),
    "wide-pattern": lambda d: d["key_table"][0].__setitem__(0, "0x10"),
    "negative-pattern": lambda d: d["key_table"][0].__setitem__(0, "-0x1"),
    "integer-patterns": lambda d: d.update(key_table=[[int(w, 16) for w in row] for row in d["key_table"]]),
    "row-as-string": lambda d: d.update(key_table=["".join(w[2:] for w in row) for row in d["key_table"]]),
    "table-as-object": lambda d: d.update(key_table={str(s): row for s, row in enumerate(d["key_table"])}),
    "integer-seed": lambda d: d.update(seed=0),
    "all-ones-seed": lambda d: d.update(seed="0x7"),
    "taps-not-a-list": lambda d: d.update(taps=3),
    "taps-beyond-width": lambda d: d.update(taps=[4, 2]),
    "string-c": lambda d: d.update(c="2"),
    "boolean-l": lambda d: d.update(l=True),
    "l-above-n": lambda d: d.update(l=4),
    "zero-inputs": lambda d: d.update(i=0),
    "config-not-an-object": lambda d: d.update(config=[]),
    "config-taps-not-a-list": lambda d: d["config"].update(lfsr_taps=3),
    # a config valid on its own that disagrees with the schedule's fields
    "config-width-mismatch": lambda d: d["config"].update(lfsr_width=4, lfsr_taps=[4, 3]),
    "config-key-len-mismatch": lambda d: d["config"].update(key_len=7),
    "config-sbj-bits-mismatch": lambda d: d["config"].update(sbj_bits=2),
    "config-master-seed-mismatch": lambda d: d["config"].update(master_seed=d["master_seed"] + 1),
    "config-taps-mismatch": lambda d: d["config"].update(lfsr_taps=[3, 1]),
}


@pytest.mark.parametrize("defect", sorted(MALFORMED_SCHEDULES))
def test_schedule_json_rejects_malformed_schedules(s27, defect):
    doc = json.loads(encrypt(s27, TOY_CFG).schedule.to_json())
    MALFORMED_SCHEDULES[defect](doc)
    with pytest.raises(ValueError):
        KeySchedule.from_json(json.dumps(doc))


def test_schedule_json_must_be_an_object():
    with pytest.raises(ValueError, match="object"):
        KeySchedule.from_json("[1, 2]")


def test_corrupted_after_reset_without_keys(s27):
    # encrypted mode from reset: outputs must diverge from golden somewhere
    enc = encrypt(s27, TOY_CFG)
    rng = random.Random(123)
    vectors = [rng.getrandbits(len(s27.inputs)) for _ in range(64)]
    from relock import workload_stimulus

    enc_tr = simulate(enc.netlist, workload_stimulus(vectors))
    org_tr = simulate(s27, workload_stimulus(vectors))
    assert enc_tr.outputs != org_tr.outputs


def test_trusted_stimulus_restores_golden_behavior(s27):
    enc = encrypt(s27, TOY_CFG)
    sched = enc.schedule
    rng = random.Random(7)
    cycles = 160
    workload = [rng.getrandbits(len(s27.inputs)) for _ in range(cycles)]
    stim = trusted_user_stimulus(sched, workload, cycles)
    enc_tr = simulate(enc.netlist, stim)
    golden = simulate(s27, _plain(workload))
    for t, tag in enumerate(stim.tags):
        if tag is not None:
            assert enc_tr.outputs[t] == golden.outputs[tag]


def _plain(vectors):
    from relock import workload_stimulus

    return workload_stimulus(vectors)


def test_wrong_keys_never_authenticate(s27):
    # spoil one bit of every authentication vector; no window can complete,
    # so workload outputs keep diverging from golden
    enc = encrypt(s27, TOY_CFG)
    sched = enc.schedule
    rng = random.Random(8)
    cycles = 120
    workload = [rng.getrandbits(len(s27.inputs)) for _ in range(cycles)]
    stim = trusted_user_stimulus(sched, workload, cycles)
    bad = tuple(
        v ^ 1 if tag is None else v for v, tag in zip(stim.vectors, stim.tags)
    )
    from relock import Stimulus

    enc_tr = simulate(enc.netlist, Stimulus(bad, stim.tags))
    golden = simulate(s27, _plain(workload))
    diffs = sum(
        enc_tr.outputs[t] != golden.outputs[tag]
        for t, tag in enumerate(stim.tags)
        if tag is not None
    )
    assert diffs > stim.n_workload // 4


def test_encrypt_larger_circuit_keeps_io(s298):
    cfg = EncryptConfig(coverage=0.1, master_seed=3)
    enc = encrypt(s298, cfg)
    assert enc.netlist.inputs == s298.inputs
    assert enc.netlist.outputs == s298.outputs
    assert enc.schedule.n_inputs == len(s298.inputs)
