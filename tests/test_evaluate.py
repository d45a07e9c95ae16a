"""Corruptibility experiments and the closed-form cost models."""

import io
from fractions import Fraction

import random

import pytest
from hypothesis import given, settings, strategies as st

from relock import (
    Case,
    EncryptConfig,
    Netlist,
    brute_force_effort,
    cycle_delay_overhead,
    cycle_delay_sweep,
    encrypt,
    load_schedule,
    overhead_report,
    run_case,
    save_bench,
    save_schedule,
    load_bench,
    write_hd_csv,
)
from relock.evaluate import _lane_counts

CFG = EncryptConfig(
    lfsr_width=5,
    enc_out_width=3,
    key_len=4,
    sbj_bits=2,
    coverage=0.3,
    master_seed=11,
)


@pytest.fixture(scope="module")
def enc27(s27):
    return encrypt(s27, CFG)


# -- run_case ---------------------------------------------------------------------

def test_case1_is_exactly_zero(s27, enc27):
    rep = run_case(s27, enc27, Case.TRUSTED, n_vectors=40, cycles=200, seed=0)
    assert rep.mean_hd == 0.0
    assert all(hd == 0.0 for hd in rep.per_run)


def naive_lane_counts(words, n_lanes):
    return [sum((w >> k) & 1 for w in words) for k in range(n_lanes)]


@given(st.integers(1, 200).flatmap(lambda n: st.tuples(st.just(n), st.lists(st.integers(0, (1 << n) - 1), max_size=70))))
@settings(max_examples=80, deadline=None)
def test_bit_sliced_tally_matches_per_lane_popcount(lanes_words):
    n_lanes, words = lanes_words
    assert _lane_counts(words, n_lanes) == naive_lane_counts(words, n_lanes)


def test_bit_sliced_tally_long_carries_at_1000_lanes():
    # all-ones words carry through every plane; sparse high lanes stay apart
    rng = random.Random(1000)
    full = (1 << 1000) - 1
    words = [full] * 1023 + [rng.getrandbits(1000) & rng.getrandbits(1000) for _ in range(300)] + [1 << 999, 0]
    assert _lane_counts(iter(words), 1000) == naive_lane_counts(words, 1000)


def test_case2_corrupts(s27, enc27):
    rep = run_case(s27, enc27, Case.UNKEYED, n_vectors=40, cycles=200, seed=0)
    assert rep.mean_hd > 0.02


def test_case3_below_case2(s27):
    """A single authentication helps, averaged over independent designs.

    Per design the two outcomes park the controller in different corruption
    table rows, so the ordering is noisy seed by seed; the transparency
    window before the first jump makes the averaged distance strictly
    smaller.  The horizon covers three jumps.
    """
    from relock.encrypt import DEFAULT_SEED

    d2 = d3 = 0.0
    seeds = 32
    for k in range(seeds):
        cfg = EncryptConfig(
            lfsr_width=5,
            enc_out_width=3,
            key_len=8,
            sbj_bits=2,
            coverage=0.15,
            master_seed=DEFAULT_SEED + k,
        )
        e = encrypt(s27, cfg)
        d2 += run_case(s27, e, 2, n_vectors=100, cycles=80, seed=DEFAULT_SEED + k).mean_hd
        d3 += run_case(s27, e, 3, n_vectors=100, cycles=80, seed=DEFAULT_SEED + k).mean_hd
    assert 0.02 < d3 / seeds < d2 / seeds


def test_case2_corruption_grows_with_coverage(s27):
    """More corrupted nets means more damage, as a seed-averaged trend."""
    from relock.encrypt import DEFAULT_SEED

    seeds = 8
    means = []
    for cov in (0.05, 0.1, 0.2, 0.4):
        tot = 0.0
        for k in range(seeds):
            cfg = EncryptConfig(
                lfsr_width=5,
                enc_out_width=3,
                key_len=8,
                sbj_bits=2,
                coverage=cov,
                master_seed=DEFAULT_SEED + k,
            )
            e = encrypt(s27, cfg)
            tot += run_case(s27, e, 2, n_vectors=50, cycles=80, seed=DEFAULT_SEED + k).mean_hd
        means.append(tot / seeds)
    # site counts quantize on a 10-gate circuit, so ties are legitimate
    assert all(a <= b for a, b in zip(means, means[1:])), means


def test_case_accepts_plain_ints(s27, enc27):
    a = run_case(s27, enc27, 1, n_vectors=10, cycles=120, seed=3)
    b = run_case(s27, enc27, Case.TRUSTED, n_vectors=10, cycles=120, seed=3)
    assert a == b


def test_run_case_accepts_netlist_schedule_pair(s298, tmp_path):
    # loading both halves from disk must reproduce the in-memory report, its
    # coverage included: 36 of s298's 119 gates, not the requested 0.3
    design = encrypt(s298, CFG)
    save_bench(design.netlist, tmp_path / "enc.bench")
    save_schedule(design.schedule, tmp_path / "enc.keys.json")
    pair = (load_bench(tmp_path / "enc.bench"), load_schedule(tmp_path / "enc.keys.json"))
    a = run_case(s298, pair, 2, n_vectors=20, cycles=150, seed=1)
    b = run_case(s298, design, 2, n_vectors=20, cycles=150, seed=1)
    assert a == b
    assert a.coverage == design.report.achieved_coverage == 36 / 119


def test_run_case_rejects_an_original_without_gates(enc27):
    with pytest.raises(ValueError, match="no gates"):
        run_case(Netlist("s27", ("a",), ("a",), (), ()), enc27, 1)


def test_run_case_on_a_lock_with_a_4096_input_gate(s27):
    # 2**sbj_bits * key_len = 4096 controller states, the most a config
    # allows; the OR gate over all of them compiles as a chain
    design = encrypt(s27, EncryptConfig(lfsr_width=10, sbj_bits=9, key_len=8, coverage=0.5))
    assert max(len(g.ins) for g in design.netlist.gates) == 4096
    assert run_case(s27, design, 1, n_vectors=10, cycles=50).mean_hd == 0


def test_run_case_is_deterministic(s27, enc27):
    a = run_case(s27, enc27, 2, n_vectors=15, cycles=150, seed=9)
    b = run_case(s27, enc27, 2, n_vectors=15, cycles=150, seed=9)
    assert a == b


def test_run_case_mask_excludes_auth_windows(s27, enc27):
    rep = run_case(s27, enc27, 1, n_vectors=5, cycles=100, seed=0)
    assert rep.mask_size < rep.cycles
    assert rep.mask_size > 0


def test_run_case_validates(s27, enc27):
    with pytest.raises(ValueError, match="n_vectors"):
        run_case(s27, enc27, 1, n_vectors=0, cycles=100)
    with pytest.raises(ValueError, match="workload cycles"):
        run_case(s27, enc27, 1, n_vectors=5, cycles=1)
    other = load_bench("benchmarks/s298.bench")
    with pytest.raises(ValueError, match="schedule is for"):
        run_case(other, enc27, 1, n_vectors=5, cycles=100)


def test_hd_csv(s27, enc27):
    reps = [run_case(s27, enc27, c, n_vectors=5, cycles=100) for c in (1, 2)]
    buf = io.StringIO()
    write_hd_csv(reps, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0].split(",")[:3] == ["circuit", "coverage", "case"]
    assert len(lines) == 3
    assert lines[1].split(",")[2] == "1"


# -- brute-force effort --------------------------------------------------------------

def test_brute_force_flagship_value():
    assert brute_force_effort(32, 8, 10) == 2**265
    assert float(f"{float(2**265):.3g}") == pytest.approx(5.93e79, rel=1e-3)


def test_brute_force_small_values():
    assert brute_force_effort(1, 1, 0) == 1
    assert brute_force_effort(2, 2, 2) == 32


def test_brute_force_is_exact_int():
    v = brute_force_effort(64, 16, 15)
    assert isinstance(v, int)
    assert v == 2 ** (15 + 64 * 16 - 1)


def test_brute_force_validates():
    with pytest.raises(ValueError):
        brute_force_effort(0, 1, 1)
    with pytest.raises(ValueError):
        brute_force_effort(1, 0, 1)
    with pytest.raises(ValueError):
        brute_force_effort(1, 1, -1)


# -- cycle-delay overhead --------------------------------------------------------------

def test_cycle_delay_examples():
    assert cycle_delay_overhead(8, 11) == Fraction(1, 128)
    assert float(cycle_delay_overhead(8, 11)) == 0.0078125
    assert cycle_delay_overhead(0, 7) == 0
    assert cycle_delay_overhead(128, 5) == 8


def test_cycle_delay_returns_exact_rationals():
    v = cycle_delay_overhead(3, 9)
    assert isinstance(v, Fraction)
    assert v == Fraction(3, 256)


def test_cycle_delay_monotone_in_width():
    for t_a in (8, 16, 64, 128):
        vals = [cycle_delay_overhead(t_a, n) for n in range(5, 16)]
        assert all(a > b for a, b in zip(vals, vals[1:]))


def test_cycle_delay_sweep_covers_grid():
    rows = cycle_delay_sweep()
    assert len(rows) == 4 * 11
    assert (8, 11, Fraction(1, 128)) in rows


def test_cycle_delay_validates():
    with pytest.raises(ValueError):
        cycle_delay_overhead(-1, 5)
    with pytest.raises(ValueError):
        cycle_delay_overhead(8, 0)


# -- structural overhead ------------------------------------------------------------------

def test_overhead_coverage_quantization(s27):
    enc = encrypt(s27, EncryptConfig(coverage=0.2, master_seed=1))
    rep = overhead_report(s27, enc)
    assert rep.n_sites == 2  # ceil(0.2 * 10)
    assert rep.achieved_coverage == 0.2


def test_overhead_is_strictly_additive(s27, enc27):
    rep = overhead_report(s27, enc27)
    assert rep.enc_gates > rep.orig_gates
    assert rep.enc_dffs > rep.orig_dffs
    assert rep.gate_overhead > 0


def test_overhead_dff_lower_bound(s27, enc27):
    # shadows for every original register, the PRNG, and the countdown
    rep = overhead_report(s27, enc27)
    added = rep.enc_dffs - rep.orig_dffs
    assert added >= rep.orig_dffs + 2 * CFG.lfsr_width


def test_overhead_as_dict_round_trips(s27, enc27):
    d = overhead_report(s27, enc27).as_dict()
    assert d["circuit"] == "s27"
    assert d["enc_gates"] == len(enc27.netlist.gates)
