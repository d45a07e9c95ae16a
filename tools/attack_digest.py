#!/usr/bin/env python3
"""Print two SHA-256 digests of the SAT attack, effort and outcome, as JSON.

The effort digest covers, in call order, every formula handed to
``relock.sat.Solver`` (variable count and clauses), every clause added to a
solver after it was built, every result its ``solve`` returns (status,
model and search counts) and the ``report()`` of every attack.  The outcome
digest leaves all solver effort out: it covers every oracle query's input
and answer, each attack's status, keys, verdict and verify comparisons, and
each window's index, start, gap, frames, status, key, iterations and oracle
queries.  A ``SequenceOracle.query`` batch is written as one query per
lane, in lane order: the lane's input words, rebuilt from the plan and the
rows, and its packed output words, the bytes that a one-lane query of that
workload writes.  Both run over a fixed set of locks:

- the s27 toy lock of ``tests/test_attack.py``;
- the four ``attack-s298`` pool locks of ``perfbench/`` (master seeds
  ``DEFAULT_SEED`` + 0..3);
- two s27 locks, master seed 1001, whose window-2 key fails the replay check.

Every attack runs at seed 0.  A refactor of the attack that is meant to keep
its search must leave both digests unchanged.  A change to how the solver
reaches the same answers (other formulas for the key checks, fewer or more
calls) moves only the effort digest.  A change to the miter formulas or to
how their DIPs are solved can pick other DIPs and so moves the outcome
digest too.  ``tests/test_tools.py`` pins both.  The solver and the oracle
are patched from outside, so nothing under ``src/`` changes::

    python tools/attack_digest.py
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import relock.sat  # noqa: E402
from relock import (  # noqa: E402
    DEFAULT_SEED,
    EncryptConfig,
    SequenceOracle,
    derive_window_starts,
    encrypt,
    load_bench,
    recover_key_sequences,
)

WINDOWS = 3
_S298 = dict(lfsr_width=4, enc_out_width=3, key_len=4, sbj_bits=1, coverage=0.3)
# (circuit, encrypt config) of every lock the digest covers
LOCKS = (
    ("s27", EncryptConfig(lfsr_width=3, lfsr_taps=(3, 1), enc_out_width=3, key_len=2,
                          sbj_bits=1, coverage=0.5, master_seed=24302)),
    *(("s298", EncryptConfig(**_S298, master_seed=DEFAULT_SEED + k)) for k in range(4)),
    ("s27", EncryptConfig(lfsr_width=3, key_len=4, sbj_bits=1, coverage=0.3, master_seed=1001)),
    ("s27", EncryptConfig(lfsr_width=4, key_len=2, sbj_bits=1, coverage=0.3, master_seed=1001)),
)


def digest() -> tuple[str, str, list[str]]:
    """The effort and the outcome SHA-256 hex digests, and each attack's
    status in ``LOCKS`` order."""
    h, out = hashlib.sha256(), hashlib.sha256()
    solver, oracle = relock.sat.Solver, SequenceOracle
    init, add_clause, solve = solver.__init__, solver.add_clause, solver.solve
    query = oracle.query

    def traced_init(self, n_vars, clauses):
        h.update(f"formula {n_vars} {[tuple(cl) for cl in clauses]}\n".encode())
        init(self, n_vars, clauses)

    def traced_add_clause(self, lits):
        h.update(f"clause {tuple(lits)}\n".encode())
        add_clause(self, lits)

    def traced_solve(self, *args, **kwargs):
        res = solve(self, *args, **kwargs)
        model = None if res.model is None else sorted(res.model.items())
        h.update(f"result {res._replace(model=model)!r}\n".encode())
        return res

    def traced_query(self, plan, rows=(), width=1):
        plan, rows = tuple(plan), list(rows)
        lanes = query(self, plan, rows, width)

        def packed(words, p):
            return sum(((w >> p) & 1) << b for b, w in enumerate(words))

        for p in range(width):
            row = iter(rows)
            vectors = tuple(packed(next(row), p) if key is None else key for key in plan)
            answer = tuple(packed(outs, p) for outs in lanes)
            out.update(f"query {vectors} {answer}\n".encode())
        return lanes

    statuses = []
    solver.__init__, solver.add_clause, solver.solve = traced_init, traced_add_clause, traced_solve
    oracle.query = traced_query
    try:
        for circuit, cfg in LOCKS:
            orig = load_bench(ROOT / "benchmarks" / f"{circuit}.bench")
            design = encrypt(orig, cfg)
            starts = derive_window_starts(design.schedule, WINDOWS)
            res = recover_key_sequences(
                design.netlist, SequenceOracle(orig), starts, cfg.key_len, WINDOWS, seed=0
            )
            h.update(res.report().encode())
            out.update(f"attack {res.status} {res.keys} {res.verified} {res.verify_comparisons}\n".encode())
            for w in res.windows:
                out.update(f"window {w.index} {w.start} {w.gap} {w.frames} {w.status} {w.key} "
                           f"{w.iterations} {w.oracle_queries}\n".encode())
            statuses.append(res.status)
    finally:
        solver.__init__, solver.add_clause, solver.solve = init, add_clause, solve
        oracle.query = query
    return h.hexdigest(), out.hexdigest(), statuses


if __name__ == "__main__":
    effort, outcome, statuses = digest()
    print(json.dumps({"sha256": effort, "outcome_sha256": outcome, "statuses": statuses}))
