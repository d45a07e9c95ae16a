"""Release gate.

One test per acceptance criterion, so ``pytest -v`` prints one pass/fail
line each.  Tolerances are stated per test; "exact" means bit-for-bit or
integer equality, never a float comparison with slack.  A failing line
here means the claim under test does not hold as stated; the assertions
are kept faithful rather than loosened.
"""

import itertools
import json
import math
import random
from decimal import Decimal
from fractions import Fraction

import pytest

from relock import (
    STATUS_RECOVERED,
    EncryptConfig,
    SequenceOracle,
    brute_force_effort,
    cycle_delay_overhead,
    derive_window_starts,
    encrypt,
    load_bench,
    new_lfsr,
    overhead_report,
    period,
    recover_key_sequences,
    run_case,
    simulate,
    workload_stimulus,
)
from relock.cli import EXIT_OK, main
from relock.encrypt import DEFAULT_SEED
from relock.evaluate import Case
from relock.sim import authentication_schedule, trusted_user_stimulus, workload_cycle_mask

from conftest import BENCH_STATS, bench_path

MATRIX_CIRCUITS = ("s27", "s298", "s1238")
MATRIX_COVERAGES = (0.05, 0.10, 0.15, 0.20)


def matrix_config(coverage: float, master_seed: int = DEFAULT_SEED) -> EncryptConfig:
    """The evaluation corner shared by the distance criteria."""
    return EncryptConfig(
        lfsr_width=5,
        enc_out_width=3,
        key_len=8,
        sbj_bits=2,
        coverage=coverage,
        master_seed=master_seed,
    )


@pytest.fixture(scope="module")
def matrix_netlists():
    return {name: load_bench(bench_path(name)) for name in MATRIX_CIRCUITS}


# criterion 1 -- benchmark inventory, exact counts

def test_criterion_01_benchmarks_parse_with_published_counts():
    for name, (i, o, d, g) in BENCH_STATS.items():
        s = load_bench(bench_path(name)).stats()
        assert (s.n_inputs, s.n_outputs, s.n_dffs, s.n_gates) == (i, o, d, g), name


# criterion 2 -- trusted user sees distance exactly zero

def test_criterion_02_trusted_user_distance_is_exactly_zero(matrix_netlists):
    for name, cov in itertools.product(MATRIX_CIRCUITS, MATRIX_COVERAGES):
        orig = matrix_netlists[name]
        enc = encrypt(orig, matrix_config(cov))
        rep = run_case(orig, enc, Case.TRUSTED, n_vectors=100, cycles=500, seed=DEFAULT_SEED)
        assert rep.n_vectors == 100
        assert rep.mean_hd == 0.0, (name, cov, rep.mean_hd)


# criterion 3 -- unauthorized use is corrupted; one authentication helps

def test_criterion_03_corruption_present_and_single_auth_strictly_smaller(matrix_netlists):
    """Per cell, averaged over 32 independent lock instances.

    Seed by seed the ordering is a coin flip (the controller parks in a
    different corruption-table row per access case), so the claim is about
    the mean.  Horizon 80 covers three jumps back to encrypted mode for
    every instance at this width and window length.
    """
    seeds = 32
    for name, cov in itertools.product(MATRIX_CIRCUITS, MATRIX_COVERAGES):
        orig = matrix_netlists[name]
        d2 = d3 = 0.0
        for k in range(seeds):
            enc = encrypt(orig, matrix_config(cov, master_seed=DEFAULT_SEED + k))
            jumps = len(authentication_schedule(enc.schedule, 80)) - 1
            assert jumps >= 3, (name, cov, k, jumps)
            d2 += run_case(orig, enc, Case.UNKEYED, n_vectors=100, cycles=80,
                           seed=DEFAULT_SEED + k).mean_hd
            d3 += run_case(orig, enc, Case.SINGLE_AUTH, n_vectors=100, cycles=80,
                           seed=DEFAULT_SEED + k).mean_hd
        d2 /= seeds
        d3 /= seeds
        assert d2 > 0.02, (name, cov, d2)
        assert d3 > 0.02, (name, cov, d3)
        assert d3 < d2, (name, cov, d3, d2)


# criterion 4 -- corruption word at zero is perfectly transparent

def test_criterion_04_authenticated_design_matches_golden_on_1000_probes(matrix_netlists):
    """1000 random (input, state) probes per circuit, exact equality.

    The lock's own registers are pinned to a snapshot taken after a real
    authentication, which holds the corruption word at zero; the original
    state bits and inputs are then free variables.
    """
    rng = random.Random(2026)
    n_probes = 1000
    lanes = (1 << n_probes) - 1
    for name in MATRIX_CIRCUITS:
        orig = matrix_netlists[name]
        enc = encrypt(orig, matrix_config(0.10))
        horizon = 40
        mask = workload_cycle_mask(enc.schedule, horizon)
        wl = [rng.getrandbits(len(orig.inputs)) for _ in range(horizon)]
        tr = simulate(enc.netlist, trusted_user_stimulus(enc.schedule, wl, horizon))
        orig_qs = {q for q, _ in orig.dffs}
        lock_bits = {
            q: tr.state_bit(mask[0], q) for q, _ in enc.netlist.dffs if q not in orig_qs
        }
        in_words = [rng.getrandbits(n_probes) for _ in orig.inputs]
        state_words = {q: rng.getrandbits(n_probes) for q, _ in orig.dffs}
        enc_state = [
            state_words[q] if q in state_words else (lanes if lock_bits[q] else 0)
            for q, _ in enc.netlist.dffs
        ]
        got, _ = enc.netlist.compiled.eval(in_words, enc_state, width=n_probes)
        want, _ = orig.compiled.eval(
            in_words, [state_words[q] for q, _ in orig.dffs], width=n_probes
        )
        assert got == want, name


# criterion 5 -- closed-form effort and delay models, exact arithmetic

def test_criterion_05a_blind_guess_effort_headline_number():
    effort = brute_force_effort(32, 8, 10)
    assert effort == 2 ** 265
    d = Decimal(effort)
    mant = d.scaleb(-d.adjusted()).quantize(Decimal("1.00"))
    assert (mant, d.adjusted()) == (Decimal("5.93"), 79)


def _replayed_overhead(netlist, lfsr_width: int) -> Fraction:
    """Auth-to-functional cycle ratio over the lock's steady window cycle.

    The PRNG is periodic from reset, so each window is fixed by its start
    modulo the period; once a start residue repeats, the windows between
    the two repeat forever and their ratio is the long-run overhead.
    """
    enc = encrypt(netlist, EncryptConfig(lfsr_width=lfsr_width, key_len=8))
    p = period(new_lfsr(lfsr_width))
    horizon = p
    while True:
        windows = authentication_schedule(enc.schedule, horizon)
        first_at = {}
        for i, w in enumerate(windows):
            residue = w.start % p
            if residue in first_at:
                cycle = windows[first_at[residue]:i]
                return Fraction(
                    enc.schedule.key_len * len(cycle), sum(w.t_func for w in cycle)
                )
            first_at[residue] = i
        horizon *= 2


def test_criterion_05b_reauth_overhead_below_one_percent_at_width_11(matrix_netlists):
    """Under 1% at width 11 for 8-cycle windows, the default ``key_len``.

    (a) the idealised model, (b) the replayed schedule of a lock
    encrypted at that width, with width 10 pinned above the bound so that
    11 is the boundary, and (c) the width at which each longer listed
    window length first drops below 1%.  Exact rationals throughout.
    """
    bound = Fraction(1, 100)
    model = cycle_delay_overhead(8, 11)
    assert model == Fraction(1, 128) and model < bound, f"model overhead {model} at width 11"

    at_11 = _replayed_overhead(matrix_netlists["s27"], 11)
    assert at_11 < bound, f"replayed overhead {float(at_11):.4%} at width 11"
    at_10 = _replayed_overhead(matrix_netlists["s27"], 10)
    assert at_10 >= bound, f"replayed overhead {float(at_10):.4%} at width 10"

    table = {
        t_a: next(
            (n for n in range(5, 16) if cycle_delay_overhead(t_a, n) < bound), None
        )
        for t_a in (16, 64, 128)
    }
    assert table == {16: 12, 64: 14, 128: 15}, f"first width below 1% by t_a: {table}"


# criterion 6 -- built-in feedback taps are maximal length

def test_criterion_06_builtin_taps_are_maximal_for_widths_5_to_15():
    for n in range(5, 16):
        assert period(new_lfsr(n)) == (1 << n) - 1, n


# criteria 7 and 8 -- desk-scale key recovery

TOY_CFG = EncryptConfig(
    lfsr_width=3,
    lfsr_taps=(3, 1),
    enc_out_width=3,
    key_len=2,
    sbj_bits=1,
    coverage=0.5,
    master_seed=24302,
)


@pytest.fixture(scope="module")
def toy_attack(matrix_netlists):
    orig = matrix_netlists["s27"]
    enc = encrypt(orig, TOY_CFG)
    starts = derive_window_starts(enc.schedule, 3)
    res = recover_key_sequences(
        enc.netlist, SequenceOracle(orig), starts, TOY_CFG.key_len, 3, seed=0
    )
    wins = authentication_schedule(enc.schedule, starts[-1] + TOY_CFG.key_len)
    truth = tuple(enc.schedule.key_table[w.chain] for w in wins[:3])
    return orig, enc, starts, res, truth


def test_criterion_07_attack_recovers_exact_keys_cross_checked_exhaustively(toy_attack):
    orig, enc, starts, res, truth = toy_attack
    assert res.status == STATUS_RECOVERED
    assert res.verified
    assert res.keys == truth

    # independent check: sweep all candidate sequences per window and keep
    # those the black box cannot distinguish; each survivor set must be
    # exactly the schedule's row
    c = TOY_CFG.key_len
    n_in = len(orig.inputs)

    def window_of(t):
        for q, s in enumerate(starts[:3]):
            if s <= t < s + c:
                return q, t - s
        return None

    rng = random.Random(99)
    for q in range(3):
        horizon = starts[q + 1]
        trials = [[rng.randrange(1 << n_in) for _ in range(horizon)] for _ in range(6)]

        def consistent(cand, wl):
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
            gold = simulate(orig, workload_stimulus([wl[t] for t in gaps]))
            return all(dev.outputs[t] == gold.outputs[r] for r, t in enumerate(gaps))

        alive = [
            cand
            for cand in itertools.product(range(1 << n_in), repeat=c)
            if all(consistent(cand, wl) for wl in trials)
        ]
        assert alive == [truth[q]], (q, alive)


def test_criterion_08_solver_conflicts_strictly_increase_over_windows(toy_attack):
    _, _, _, res, _ = toy_attack
    conflicts = [w.conflicts for w in res.windows]
    assert len(conflicts) == 3
    assert all(a < b for a, b in zip(conflicts, conflicts[1:])), conflicts


# per-window (iterations, solver_calls, conflicts, decisions, propagations) of
# the toy attack, recorded with the solver whose search tests/test_sat.py pins
# with each window's first DIP taken from the lane run, with each window
# ending once one key fits its DIPs, with each step's second-key solve
# continuing the first one's solver, with each step solving the DIPs over
# their first 1, 2, 4, ... gap cycles, a step after a miter only over the
# whole gap, and with each key formula's last two frames encoded over the
# gates its pinned outputs read; criterion 08's rising conflicts rest on
# these exact numbers
TOY_WINDOW_EFFORT = (
    (1, 4, 3, 20, 173),
    (2, 9, 113, 241, 11423),
    (2, 11, 138, 352, 16775),
)


def test_criterion_08_per_window_effort_is_pinned(toy_attack):
    _, _, _, res, _ = toy_attack
    effort = tuple(
        (w.iterations, w.solver_calls, w.conflicts, w.decisions, w.propagations)
        for w in res.windows
    )
    assert effort == TOY_WINDOW_EFFORT


# criterion 9 -- byte-identical reruns

def test_criterion_09_encrypt_and_eval_hd_are_byte_deterministic(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(matrix_config(0.15).to_dict()))
    snapshots = []
    for tag in ("one", "two"):
        enc = tmp_path / f"{tag}.bench"
        keys = tmp_path / f"{tag}.json"
        csv = tmp_path / f"{tag}.csv"
        assert main([
            "encrypt", str(bench_path("s27")),
            "--config", str(cfg), "--out", str(enc), "--keys", str(keys),
        ]) == EXIT_OK
        enc_out = capsys.readouterr().out.replace(tag, "")
        assert main([
            "eval-hd", str(bench_path("s27")), str(enc), "--keys", str(keys),
            "--cases", "1,2,3", "--vectors", "50", "--cycles", "60", "--csv", str(csv),
        ]) == EXIT_OK
        hd_out = capsys.readouterr().out
        snapshots.append(
            (enc.read_bytes(), keys.read_bytes(), csv.read_bytes(), enc_out, hd_out)
        )
    assert snapshots[0] == snapshots[1]


# criterion 10 -- structural overhead accounting

def test_criterion_10_overhead_report_respects_register_lower_bound(matrix_netlists):
    cov = 0.20
    for name in MATRIX_CIRCUITS:
        orig = matrix_netlists[name]
        cfg = matrix_config(cov)
        rep = overhead_report(orig, encrypt(orig, cfg))
        assert rep.enc_gates > rep.orig_gates, name
        assert rep.n_sites == math.ceil(cov * rep.orig_gates), name
        # shadows + PRNG + countdown + controller (chain, progress, mode)
        controller_bits = cfg.sbj_bits + math.ceil(math.log2(cfg.key_len)) + 1
        floor = rep.orig_dffs + 2 * cfg.lfsr_width + controller_bits
        assert rep.enc_dffs - rep.orig_dffs >= floor, (name, rep.enc_dffs, floor)
