"""Value semantics of the public record types: immutable, compared and
hashed by field values, with a dataclass-style ``repr``."""

import pytest

from relock import (
    AttackResult,
    AuthWindow,
    Case,
    CircuitStats,
    EncryptConfig,
    EncryptedDesign,
    EncryptReport,
    Gate,
    HdReport,
    KeySchedule,
    Lfsr,
    Netlist,
    OverheadReport,
    SolveResult,
    Stimulus,
    Trace,
    WindowRecovery,
    XorSite,
)


def one_gate_netlist():
    return Netlist("t", ("a",), ("y",), (Gate("y", "NOT", ("a",)),), ())


def schedule():
    cfg = EncryptConfig(lfsr_width=3, lfsr_taps=(3, 2), key_len=2, sbj_bits=1)
    return KeySchedule("t", 3, (3, 2), 0, 2, 1, 1, ((1, 0), (0, 1)), cfg.master_seed, cfg)


def report():
    return EncryptReport("LK_", (XorSite("y", 0, "LK_raw0"),), 0.5, 1.0, 2, 3)


def window():
    return WindowRecovery(0, 0, 0, 2, "recovered", (1, 0), 1, 1, 0, 2, 5, 0, 0.01)


# every public record type -> a factory of equal, fresh instances, and
# whether the instances are hashable (a dict field makes them unhashable)
RECORDS = {
    Gate: (lambda: Gate("y", "AND", ("a", "b")), True),
    CircuitStats: (lambda: CircuitStats(1, 1, 0, 1), True),
    Netlist: (one_gate_netlist, True),
    EncryptConfig: (lambda: EncryptConfig(coverage=0.5), True),
    XorSite: (lambda: XorSite("y", 0, "LK_raw0"), True),
    KeySchedule: (schedule, True),
    EncryptReport: (report, True),
    EncryptedDesign: (lambda: EncryptedDesign(one_gate_netlist(), schedule(), report()), True),
    HdReport: (lambda: HdReport("t", Case.TRUSTED, 1, 2, 2, 0.0, (0.0,), 0, 0.5, {"lfsr_taps": [3, 2]}), False),
    OverheadReport: (lambda: OverheadReport("t", 1, 2, 0, 3, 1, 0.5, 1.0), True),
    SolveResult: (lambda: SolveResult("SAT", None, 1, 2, 3, 0, 1), True),
    AuthWindow: (lambda: AuthWindow(0, 1, 3), True),
    Stimulus: (lambda: Stimulus((1, 2), (None, 0)), True),
    Trace: (lambda: Trace(("a",), ("y",), ("q",), (0, 1, 1), (1, 0, 0), (0, 1, 0)), True),
    Lfsr: (lambda: Lfsr(3, (3, 2), 0), True),
    WindowRecovery: (window, True),
    AttackResult: (lambda: AttackResult("t", 2, (window(),), ((1, 0),), "recovered", True, 4, 5, 0.02), True),
}


def test_every_public_record_type_is_covered():
    import relock

    records = {getattr(relock, n) for n in relock.__all__ if isinstance(getattr(relock, n), type)}
    records = {t for t in records if hasattr(t, "_fields") or t is Netlist}
    assert records == set(RECORDS)


@pytest.mark.parametrize("kind", RECORDS, ids=lambda t: t.__name__)
def test_records_compare_and_hash_by_value_and_refuse_assignment(kind):
    make, hashable = RECORDS[kind]
    a, b = make(), make()
    assert a is not b
    assert a == b
    assert not a != b
    if hashable:
        assert hash(a) == hash(b)
    else:
        with pytest.raises(TypeError):
            hash(a)
    field = "name" if kind is Netlist else kind._fields[0]
    with pytest.raises(AttributeError):
        setattr(a, field, getattr(b, field))
    with pytest.raises(AttributeError):
        delattr(a, field)
    assert a == b


def test_record_reprs_are_pinned():
    assert repr(Gate("y", "AND", ("a", "b"))) == "Gate(out='y', kind='AND', ins=('a', 'b'))"
    assert repr(one_gate_netlist()) == (
        "Netlist(name='t', inputs=('a',), outputs=('y',), "
        "gates=(Gate(out='y', kind='NOT', ins=('a',)),), dffs=())"
    )
    assert repr(Lfsr(3, (3, 2), 0)) == "Lfsr(width=3, taps=(3, 2), state=0)"


def test_netlist_equality_ignores_derived_attributes_and_other_types():
    a, b = one_gate_netlist(), one_gate_netlist()
    _ = a.compiled, a.net_names  # cached on a only
    assert a == b and hash(a) == hash(b)
    assert a != Netlist("u", ("a",), ("y",), (Gate("y", "NOT", ("a",)),), ())
    assert a != ("t", ("a",), ("y",), (Gate("y", "NOT", ("a",)),), ())
    assert Netlist(name="t", inputs=("a",), outputs=("y",), gates=a.gates, dffs=()) == a


def test_hd_report_as_dict_is_a_copy():
    rep = RECORDS[HdReport][0]()
    d = rep.as_dict()
    assert d["case"] == 1 and type(d["case"]) is int
    assert d["per_run"] == [0.0]
    d["config"]["lfsr_taps"].append(1)
    d["config"]["extra"] = True
    assert rep.config == {"lfsr_taps": [3, 2]}


def test_trace_length_is_its_cycle_count_and_replace_works():
    tr = RECORDS[Trace][0]()
    assert len(tr) == 3
    shorter = tr._replace(inputs=(0,), outputs=(1,), states=(0,))
    assert len(shorter) == 1
    assert shorter.input_names == tr.input_names
    assert shorter.state_bit(0, "q") == 0


def test_replace_validates_like_construction():
    with pytest.raises(ValueError, match="absorbing"):
        Lfsr(3, (3, 2), 0)._replace(state=7)
    assert Lfsr(3, (3, 2), 0)._replace(state=5) == Lfsr(3, (3, 2), 5)
    with pytest.raises(ValueError, match="equal length"):
        Stimulus((1, 2), (None, 0))._replace(tags=(0,))
