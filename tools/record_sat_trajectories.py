#!/usr/bin/env python3
"""Record the CDCL solver's search trajectory on a fixed set of formulas.

For each case this stores the result status, the conflict, decision,
propagation, restart and learned-clause counts, and a SHA-256 digest of the
model.  ``tests/test_sat.py`` replays every case and requires the same values,
so any change to the solver that alters its search (decision order, watch
order, restarts, activity rescaling) shows up as a failing test.

Regenerate ``tests/data/sat_trajectories.json`` with::

    PYTHONPATH=src python tools/record_sat_trajectories.py

Only do so on purpose: a solver rewrite meant to be search-preserving must
pass the test against the file as it stands.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import relock.sat  # noqa: E402
from relock import CnfBuilder, load_bench  # noqa: E402

OUT = ROOT / "tests" / "data" / "sat_trajectories.json"


def pigeonhole(holes):
    """holes+1 pigeons into holes; classically UNSAT."""
    n = holes + 1
    var = lambda p, h: p * holes + h + 1  # noqa: E731
    clauses = [tuple(var(p, h) for h in range(holes)) for p in range(n)]
    for h in range(holes):
        for p1 in range(n):
            for p2 in range(p1 + 1, n):
                clauses.append((-var(p1, h), -var(p2, h)))
    return n * holes, clauses


def planted_3sat(seed):
    """A random 3-SAT formula near the threshold with a planted model."""
    rng = random.Random(seed)
    n_vars = rng.randint(40, 90)
    planted = [None] + [rng.random() < 0.5 for _ in range(n_vars)]
    clauses = []
    while len(clauses) < int(4.2 * n_vars):
        vs = rng.sample(range(1, n_vars + 1), 3)
        cl = tuple(v if rng.random() < 0.5 else -v for v in vs)
        if any(planted[abs(l)] == (l > 0) for l in cl):
            clauses.append(cl)
    return n_vars, clauses


def frames_from_reset(nl, frames):
    """``nl`` over ``frames`` clock frames from reset, with one fresh
    variable per input per frame.

    Each frame's input variables are numbered just before its gates, which
    ``CnfBuilder.encode_frames`` cannot do (its rows exist up front), so the
    frames are stepped here with ``encode_netlist``.
    """
    b = CnfBuilder()
    state = {q: False for q, _d in nl.dffs}
    for _ in range(frames):
        val = b.encode_netlist(nl, {**{x: b.new_var() for x in nl.inputs}, **state})
        state = {q: val[d] for q, d in nl.dffs}
    return b.n_vars, b.clauses


def cases():
    """name -> (n_vars, clauses, conflict_budget, act_limit or None)."""
    out = {}
    for holes in (5, 6):
        out[f"pigeonhole-{holes}"] = (*pigeonhole(holes), None, None)
    out["pigeonhole-7-budget-20"] = (*pigeonhole(7), 20, None)
    for seed in range(20):
        out[f"planted-3sat-{seed}"] = (*planted_3sat(seed), None, None)
    s27 = load_bench(ROOT / "benchmarks" / "s27.bench")
    out["s27-frames-3"] = (*frames_from_reset(s27, 3), None, None)
    # a low limit makes the activity rescale branch run
    out["pigeonhole-6-rescale"] = (*pigeonhole(6), None, 1e6)
    return out


def model_digest(model):
    if model is None:
        return None
    text = " ".join(str(v if model[v] else -v) for v in sorted(model))
    return hashlib.sha256(text.encode()).hexdigest()


def trajectory(n_vars, clauses, budget, act_limit):
    saved = relock.sat._ACT_LIMIT
    if act_limit is not None:
        relock.sat._ACT_LIMIT = act_limit
    try:
        res = relock.sat.solve(clauses, n_vars=n_vars, conflict_budget=budget)
    finally:
        relock.sat._ACT_LIMIT = saved
    return {
        "status": res.status,
        "conflicts": res.conflicts,
        "decisions": res.decisions,
        "propagations": res.propagations,
        "restarts": res.restarts,
        "learned": res.learned,
        "model_sha256": model_digest(res.model),
    }


def main():
    record = {name: trajectory(*case) for name, case in cases().items()}
    OUT.parent.mkdir(parents=True, exist_ok=True)
    OUT.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(record)} cases to {OUT.relative_to(ROOT)}")


if __name__ == "__main__":
    main()
