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
    # the same shapes in clauses of 4 to 9 literals
    res = solve([(1, 1, 2, 3), (3, 4, 5, 6, -4), (-2, -3, -2, -3, -4, -5, -3, -4, -5)], n_vars=6)
    assert res.status == SAT
    assert check_model([(1, 2, 3), (-2, -3, -4, -5)], res.model)
    assert solve([(1, 2, 3, 4, 2, 1), (-1,), (-2,), (-3,), (-4, -4, -4, -4)], n_vars=4).status == UNSAT


def general_load(n_vars, clauses):
    """``Solver.__init__``'s clause loop without its table path, as
    ``(watches, units, unsat)``: the reference the table path must match."""
    watches = [[] for _ in range(2 * n_vars + 2)]
    units, unsat = [], False
    for lits in clauses:
        seen, cl = set(), []
        for lit in lits:
            if lit == 0 or abs(lit) > n_vars:
                raise ValueError(f"bad literal {lit}")
            if -lit in seen:
                break
            if lit not in seen:
                seen.add(lit)
                cl.append(2 * lit if lit > 0 else 1 - 2 * lit)
        else:
            if len(cl) > 1:
                watches[cl[0]].append(cl)
                watches[cl[1]].append(cl)
            elif cl:
                units.append(cl[0])
            else:
                unsat = True
    return watches, units, unsat


BAD_LITERALS = ("zero", "just out", "far out")


def wide_clause(rng, n_vars, fault):
    """A clause of 4 to 9 literals over distinct variables, one of them
    replaced by ``fault``'s literal unless it is "clean"."""
    cl = [v if rng.random() < 0.5 else -v for v in rng.sample(range(1, n_vars + 1), rng.randint(4, 9))]
    i, j = rng.sample(range(len(cl)), 2)
    bad = {
        "clean": cl[i],
        "repeat": cl[j],
        "tautology": -cl[j],
        "zero": 0,
        "just out": rng.choice((n_vars + 1, -n_vars - 1)),
        "far out": rng.choice((2 * n_vars + 1, -2 * n_vars - 1, 10 * n_vars, -10 * n_vars)),
    }[fault]
    cl[i] = bad
    return tuple(cl)


def test_clause_table_path_matches_the_general_loop(monkeypatch):
    """Clauses of 2 to 9 literals with a duplicate, a tautology, a 0 or an
    out-of-range literal load as the general loop loads them, or fail with
    its message.  Of those with 4 or more literals, only the ones with a
    repeated variable or a bad literal go through ``_add``."""
    rng = random.Random(18)
    n_vars = 4
    pool = [0, n_vars + 1, -n_vars - 1, *range(1, n_vars + 1), *range(-n_vars, 0)]
    shapes = set()
    for _ in range(3000):
        clauses = [tuple(rng.choice(pool) for _ in range(rng.randint(0, 4))) for _ in range(3)]
        try:
            want = general_load(n_vars, clauses)
        except ValueError as e:
            with pytest.raises(ValueError, match=f"^{e}$"):
                relock.sat.Solver(n_vars, clauses)
            shapes.add("error")
            continue
        got = relock.sat.Solver(n_vars, clauses)
        assert (got.watches, got._units, got.unsat) == want, clauses
        shapes.update(len(set(map(abs, cl))) < len(cl) for cl in clauses if len(cl) in (2, 3))
    assert shapes == {"error", True, False}  # repeated variables and clean ones both loaded

    # wider clauses, each with at most one fault
    n_vars = 12
    faults = ["clean", "repeat", "tautology", *BAD_LITERALS]
    added = []
    general = relock.sat.Solver._add
    monkeypatch.setattr(relock.sat.Solver, "_add", lambda self, lits: (added.append(lits), general(self, lits))[1])
    seen = set()
    for _ in range(1500):
        kinds = [rng.choice(faults) for _ in range(3)]
        clauses = [wide_clause(rng, n_vars, kind) for kind in kinds]
        added.clear()
        try:
            want = general_load(n_vars, clauses)
        except ValueError as e:
            with pytest.raises(ValueError, match=f"^{e}$"):
                relock.sat.Solver(n_vars, clauses)
            assert added[-1] == next(cl for cl, kind in zip(clauses, kinds) if kind in BAD_LITERALS)
            seen.add("error")
            continue
        got = relock.sat.Solver(n_vars, clauses)
        assert (got.watches, got._units, got.unsat) == want, clauses
        assert added == [cl for cl, kind in zip(clauses, kinds) if kind != "clean"], clauses
        seen.update(kinds)
    assert seen == {"error", "clean", "repeat", "tautology"}


@pytest.mark.parametrize("lit", [9, -9, 12, -12, 13, -13, 40, -40, 5, -5])
def test_a_literal_far_out_of_range_is_rejected(lit):
    """A literal beyond 2n (n = 4 here), which a table indexed from both
    ends would alias to a literal in range, or just beyond n, fails in every
    table shape with the general loop's message."""
    for clause in [(lit, 1), (2, lit), (lit, 1, -3), (1, -3, lit), (lit, 1, -2, 3), (1, -2, 3, -4, lit)]:
        with pytest.raises(ValueError, match=f"^bad literal {lit}$"):
            relock.sat.Solver(4, [clause])


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


def test_clauses_added_after_a_solve_agree_with_brute_force():
    """Solve, add the model's blocking clause or a random clause, and solve
    again on the same solver, some calls under a tiny budget and continued
    after an UNKNOWN; every status matches the truth table of the clauses
    so far."""
    rng = random.Random(2003)

    def random_clause(n_vars):
        return tuple(rng.choice((1, -1)) * rng.randint(1, n_vars) for _ in range(rng.randint(1, 3)))

    n_sat = n_unsat = n_unknown = 0
    for _ in range(400):
        n_vars = rng.randint(1, 4)
        clauses = [random_clause(n_vars) for _ in range(rng.randint(0, 6))]
        solver = relock.sat.Solver(n_vars, clauses)
        for _ in range(6):
            before = solver.conflicts
            res = solver.solve(rng.choice((None, None, 0, 1)))
            if res.status == UNKNOWN:
                n_unknown += 1
                res = solver.solve()
            assert res.conflicts > before or res.status == SAT
            want = brute_force(n_vars, clauses)
            assert res.status == (UNSAT if want is None else SAT), clauses
            if res.status == UNSAT:
                n_unsat += 1
                break
            n_sat += 1
            assert check_model(clauses, res.model), (clauses, res.model)
            if rng.random() < 0.5:
                clause = tuple(-v if res.model[v] else v for v in range(1, n_vars + 1))
            else:
                clause = random_clause(n_vars)
            clauses.append(clause)
            solver.add_clause(clause)
    assert n_sat > 300 and n_unsat > 200 and n_unknown > 20


def test_blocking_every_model_counts_the_truth_table():
    rng = random.Random(11)
    for _ in range(100):
        n_vars = rng.randint(1, 5)
        clauses = [
            tuple(rng.choice((1, -1)) * rng.randint(1, n_vars) for _ in range(rng.randint(1, 3)))
            for _ in range(rng.randint(0, 5))
        ]
        solver = relock.sat.Solver(n_vars, clauses)
        models = set()
        while (res := solver.solve()).status == SAT:
            model = tuple(res.model[v] for v in range(1, n_vars + 1))
            assert model not in models
            models.add(model)
            solver.add_clause([-v if res.model[v] else v for v in range(1, n_vars + 1)])
        want = {
            bits for bits in itertools.product((False, True), repeat=n_vars)
            if check_model(clauses, dict(zip(range(1, n_vars + 1), bits)))
        }
        assert models == want


def test_an_added_clause_false_at_level_0_makes_the_formula_unsat():
    solver = relock.sat.Solver(3, [(1,), (-1, 2), (2, 3)])
    assert solver.solve().status == SAT
    solver.add_clause((-1, -2))
    assert solver.unsat
    first = solver.solve()
    assert first.status == UNSAT
    # each call that finds UNSAT at the root counts one conflict of its own
    assert solver.solve().conflicts == first.conflicts + 1


def test_an_added_clause_with_one_literal_left_becomes_a_unit():
    solver = relock.sat.Solver(3, [(1,), (-1, 2, 3)])
    assert solver.solve().status == SAT
    solver.add_clause((-1, 2, 2))  # 1 holds at level 0, so only 2 is left
    res = solver.solve()
    assert res.status == SAT and res.model[1] and res.model[2]
    assert solver.level[2] == 0  # set as a unit, not decided
    solver.add_clause((-2, -1))
    assert solver.unsat and solver.solve().status == UNSAT
    with pytest.raises(ValueError, match="bad literal 4"):
        solver.add_clause((1, 4))


def test_a_continued_solver_meters_each_call_on_its_own_budget():
    n_vars, clauses = pigeonhole(7)
    solver = relock.sat.Solver(n_vars, clauses)
    first = solver.solve(20)
    second = solver.solve(20)
    assert first.status == second.status == UNKNOWN
    # a fresh solver stops one conflict past the budget; so does each call
    assert first.conflicts == 21
    assert second.conflicts - first.conflicts == 21
    assert second.decisions > first.decisions and second.propagations > first.propagations


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
    """``sat.solve`` takes a builder's clause list and variable count."""
    b = CnfBuilder()
    rows = [[b.new_var() for _ in s27.inputs] for _ in range(2)]
    list(b.encode_frames(s27, [False] * len(s27.dffs), rows))
    res = solve(b.clauses, b.n_vars)
    assert res.status == SAT
    assert len(res.model) == b.n_vars


# -- the decision rule against a brute-force reference -----------------------------

def check_decisions(solver, zero_at=()):
    """Wrap ``solver._decide`` so that each pick is checked against the rule
    it implements: the free variable of highest activity, ties going to the
    smaller index, in its saved phase, or 0 when no variable is free.

    Before each decision whose number is in ``zero_at``, the variable about
    to be picked, if bumped, has its activity set to 0.0, as enough rescales
    leave it.  Returns the list the picks go to and the list of zeroed
    variables.
    """
    decide = solver._decide
    picks, zeroed = [], []

    def best():
        free = [v for v in range(1, solver.n_vars + 1) if solver.val[2 * v] == relock.sat._FREE]
        return max(free, key=lambda v: (solver.activity[v], -v), default=0)

    def checked():
        v = best()
        if len(picks) in zero_at and solver.activity[v] > 0:
            solver.activity[v] = 0.0
            zeroed.append(v)
            v = best()
        got = decide()
        assert got == (solver.phase[v] if v else 0), (len(picks), v, got)
        picks.append(got)
        return got

    solver._decide = checked
    return picks, zeroed


def test_every_decision_takes_the_free_variable_of_highest_activity():
    """Random formulas of 1 to 6 literals a clause, each solved, then solved
    again with its model blocked, which backtracks to level 0.  In every
    other formula some variables are set to activity 0.0 on the way, so
    the cursor takes them back below where it has already scanned."""
    rng = random.Random(2003)
    n_picks = n_bumped = n_calls = n_zeroed = 0
    for i in range(100):
        n_vars = rng.randint(3, 40)
        clauses = [
            tuple(v if rng.random() < 0.5 else -v for v in rng.sample(range(1, n_vars + 1), rng.randint(1, min(n_vars, 6))))
            for _ in range(rng.randint(n_vars, 4 * n_vars))
        ]
        solver = relock.sat.Solver(n_vars, clauses)
        picks, zeroed = check_decisions(solver, zero_at=range(3, 10_000, 4) if i % 2 else ())
        res = solver.solve()
        for _ in range(4):
            n_calls += 1
            if not res:
                break
            solver.add_clause([-v if res.model[v] else v for v in range(1, n_vars + 1)])
            res = solver.solve()
        n_picks += len(picks)
        n_bumped += sum(a > 0 for a in solver.activity)
        n_zeroed += len(zeroed)
    assert n_picks > 2000 and n_bumped > 400 and n_calls > 200 and n_zeroed > 50


def test_decisions_keep_the_rule_past_rescales_and_activities_of_zero(monkeypatch):
    """A low activity limit makes the solver rescale many times, and some
    bumped variables are set to activity 0.0 just before they would be
    picked, so their stale heap entries pop at a free variable of activity
    0.0 and hand it to the cursor."""
    rescales = []
    rescale = relock.sat.Solver._rescale
    monkeypatch.setattr(relock.sat, "_ACT_LIMIT", 100.0)
    monkeypatch.setattr(relock.sat.Solver, "_rescale", lambda self: (rescales.append(1), rescale(self))[1])
    for holes in (5, 6):
        solver = relock.sat.Solver(*pigeonhole(holes))
        picks, zeroed = check_decisions(solver, zero_at=range(5, 10_000, 7))
        assert solver.solve().status == UNSAT
        assert len(zeroed) > 20 and len(picks) > 100
    assert len(rescales) > 10


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
