"""CDCL solver: correctness against brute force, budgets, determinism."""

import importlib.util
import itertools
import json
import random
from pathlib import Path

import pytest

import relock.sat
from relock import SAT, UNKNOWN, UNSAT, CnfBuilder, SolveResult, solve

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "record_sat_trajectories", ROOT / "tools" / "record_sat_trajectories.py"
)
trajectories = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(trajectories)
pigeonhole = trajectories.pigeonhole


def brute_force(n_vars, clauses):
    """Truth-table satisfiability; returns a model dict or None."""
    for bits in itertools.product((False, True), repeat=n_vars):
        env = {v: bits[v - 1] for v in range(1, n_vars + 1)}
        if all(any(env[abs(l)] ^ (l < 0) for l in cl) for cl in clauses):
            return env
    return None


def check_model(clauses, model):
    return all(any(model[abs(l)] ^ (l < 0) for l in cl) for cl in clauses)


# -- tiny canned formulas -----------------------------------------------------

def test_contradiction_is_unsat():
    res = solve([(1,), (-1,)], n_vars=1)
    assert res.status == UNSAT
    assert res.conflicts >= 1  # the root conflict is still a conflict


def test_unit_propagation_finds_the_model():
    res = solve([(1, 2), (-1,)], n_vars=2)
    assert res.status == SAT
    assert res.model[2] is True
    assert res.model[1] is False


def test_empty_formula_is_sat():
    res = solve([], n_vars=3)
    assert res.status == SAT
    assert set(res.model) == {1, 2, 3}


def test_empty_clause_is_unsat():
    res = solve([()], n_vars=1)
    assert res.status == UNSAT


def test_result_truthiness():
    assert solve([(1,)], n_vars=1)
    assert not solve([(1,), (-1,)], n_vars=1)


def test_duplicate_and_tautological_clauses():
    res = solve([(1, 1, 2), (1, -1), (-2, -2)], n_vars=2)
    assert res.status == SAT
    assert check_model([(1, 2), (-2,)], res.model)


def test_n_vars_inferred_from_clauses():
    res = solve([(3, -5)])
    assert res.status == SAT
    assert 5 in res.model


# -- fuzz against the truth table ------------------------------------------------

def test_agrees_with_brute_force_on_1000_formulas():
    rng = random.Random(4242)
    n_sat = n_unsat = 0
    for _ in range(1000):
        n_vars = rng.randint(1, 4)
        n_clauses = rng.randint(1, 8)
        clauses = []
        for _ in range(n_clauses):
            width = rng.randint(1, 3)
            cl = tuple(
                rng.choice((1, -1)) * rng.randint(1, n_vars) for _ in range(width)
            )
            clauses.append(cl)
        want = brute_force(n_vars, clauses)
        res = solve(clauses, n_vars=n_vars)
        if want is None:
            assert res.status == UNSAT, (clauses, res.status)
            n_unsat += 1
        else:
            assert res.status == SAT, (clauses, res.status)
            assert check_model(clauses, res.model), (clauses, res.model)
            n_sat += 1
    assert n_sat > 100 and n_unsat > 100  # both outcomes well exercised


def test_larger_random_sat_instances_have_valid_models():
    rng = random.Random(7)
    for _ in range(50):
        n_vars = rng.randint(8, 20)
        clauses = []
        # planted solution keeps these satisfiable
        planted = {v: rng.random() < 0.5 for v in range(1, n_vars + 1)}
        for _ in range(rng.randint(10, 60)):
            v = rng.randint(1, n_vars)
            cl = [v if planted[v] else -v]  # one literal agrees with the plant
            for _ in range(2):
                cl.append(rng.choice((1, -1)) * rng.randint(1, n_vars))
            clauses.append(tuple(cl))
        res = solve(clauses, n_vars=n_vars)
        assert res.status == SAT
        assert check_model(clauses, res.model)


def test_pigeonhole_unsat():
    n_vars, clauses = pigeonhole(6)
    res = solve(clauses, n_vars=n_vars)
    assert res.status == UNSAT
    assert res.conflicts > 50  # requires real clause learning, not luck


# -- budget and determinism ----------------------------------------------------------

def test_conflict_budget_yields_unknown():
    n_vars, clauses = pigeonhole(7)
    res = solve(clauses, n_vars=n_vars, conflict_budget=20)
    assert res.status == UNKNOWN
    assert res.model is None
    assert res.conflicts >= 20


def test_unknown_is_falsy():
    n_vars, clauses = pigeonhole(7)
    assert not solve(clauses, n_vars=n_vars, conflict_budget=20)


def test_deterministic_statistics():
    n_vars, clauses = pigeonhole(5)
    a = solve(clauses, n_vars=n_vars)
    b = solve(clauses, n_vars=n_vars)
    assert (a.conflicts, a.decisions, a.propagations, a.restarts) == (
        b.conflicts,
        b.decisions,
        b.propagations,
        b.restarts,
    )


def test_restarts_counted_on_long_runs():
    n_vars, clauses = pigeonhole(6)
    res = solve(clauses, n_vars=n_vars)
    assert res.restarts >= 1


def test_result_fields_populated():
    res = solve([(1, 2), (-1, 2), (1, -2), (-1, -2)], n_vars=2)
    assert isinstance(res, SolveResult)
    assert res.status == UNSAT
    assert res.model is None
    assert res.decisions >= 1
    assert res.propagations >= 1


def test_solve_accepts_cnf_objects(s27):
    b = CnfBuilder()
    rows = [[b.new_var() for _ in s27.inputs] for _ in range(2)]
    list(b.encode_frames(s27, {q: False for q, _d in s27.dffs}, rows))
    res = solve(b)
    assert res.status == SAT
    assert len(res.model) == b.n_vars


# -- pinned search trajectories ---------------------------------------------------

RECORDED = json.loads((ROOT / "tests" / "data" / "sat_trajectories.json").read_text())
CASES = trajectories.cases()


def test_trajectory_cases_match_the_record():
    assert sorted(CASES) == sorted(RECORDED)


@pytest.mark.parametrize("name", sorted(RECORDED))
def test_search_trajectory_is_unchanged(name):
    """Counts and model digest equal those recorded by
    tools/record_sat_trajectories.py, so the solver explores the same path."""
    assert trajectories.trajectory(*CASES[name]) == RECORDED[name]


def test_rescale_case_passes_the_activity_limit():
    # var_inc grows by 1/_ACT_DECAY per conflict from 1.0, so this many
    # conflicts push it past the lowered limit: the rescale branch ran
    act_limit = CASES["pigeonhole-6-rescale"][3]
    conflicts = RECORDED["pigeonhole-6-rescale"]["conflicts"]
    assert relock.sat._ACT_DECAY ** -conflicts > act_limit
