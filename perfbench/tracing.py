"""Per-layer spans and counters, recorded from outside the program.

While a traced op runs, selected public functions and methods of relock are
replaced by thin wrappers.  Each wrapper records a span (name, start, end,
parent) into a :class:`Recorder` and bumps that layer's counters; nothing
under ``src/relock`` is edited.  A module that imported a function by name
holds its own reference, so that module's copy is patched too.
``traced`` puts every original back when the op ends.

A layer's self time is its span minus the spans of the calls it made into
other traced layers; the runner's own root span ``op`` collects what no
layer claims, so the self times of one op sum to its duration.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time


class Recorder:
    """Spans and counters of traced ops, kept in memory until the run ends."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def count(self, name: str, n: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def times(self) -> tuple[dict[str, float], dict[str, float]]:
        """Total and self seconds per span name, over every recorded span."""
        child = [0.0] * len(self.spans)
        for _name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        total: dict[str, float] = {}
        own: dict[str, float] = {}
        for i, (name, start, end, _parent) in enumerate(self.spans):
            total[name] = total.get(name, 0.0) + (end - start)
            own[name] = own.get(name, 0.0) + (end - start - child[i])
        return total, own


def _wrap(rec: Recorder, name: str, fn, before=None, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        token = before(*args, **kwargs) if before is not None else None
        idx = rec.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(idx)
        if after is not None:
            after(result, token, *args, **kwargs)
        return result

    return wrapper


def _hooks(rec: Recorder) -> dict[str, tuple]:
    """Span name -> (before, after) counter hooks, for spans that count."""
    c = rec.count

    def eval_after(_res, _tok, cc, _ins, _state=(), width=1):
        c("bench.eval_calls")
        c("bench.gate_lane_evals", len(cc.netlist.gates) * width)

    def encrypt_after(design, _tok, *_a, **_k):
        c("encrypt.calls")
        c("encrypt.added_gates", design.report.added_gates)

    def schedule_after(windows, _tok, *_a, **_k):
        c("sim.schedule_calls")
        c("sim.schedule_windows", len(windows))

    def encode_before(cnf, *_a, **_k):
        return len(cnf.clauses)

    def encode_after(_val, n0, cnf, *_a, **_k):
        c("unroll.encode_calls")
        c("unroll.clauses", len(cnf.clauses) - n0)

    def ingest_before(_solver, _n_vars, clauses):
        c("sat.clauses_in", len(clauses))

    def search_before(solver, *_a, **_k):
        return solver.conflicts, solver.decisions, solver.propagations

    def search_after(res, tok, *_a, **_k):
        c("sat.calls")
        c("sat.conflicts", res.conflicts - tok[0])
        c("sat.decisions", res.decisions - tok[1])
        c("sat.propagations", res.propagations - tok[2])

    def recover_after(res, _tok, *_a, **_k):
        c("attack.dips", sum(w.iterations for w in res.windows))
        c("attack.oracle_queries", res.oracle_queries)
        c("attack.verify_s", res.wall_time - sum(w.wall_time for w in res.windows))

    return {
        "bench.compile": (None, lambda *_a, **_k: c("bench.compile_calls")),
        "bench.eval": (None, eval_after),
        "encrypt.encrypt": (None, encrypt_after),
        "sim.schedule": (None, schedule_after),
        "sim.simulate": (None, lambda trace, *_a, **_k: c("sim.simulate_cycles", len(trace))),
        "evaluate.run_case": (None, lambda *_a, **_k: c("evaluate.run_case_calls")),
        "unroll.encode": (encode_before, encode_after),
        "sat.ingest": (ingest_before, None),
        "sat.search": (search_before, search_after),
        "attack.recover": (None, recover_after),
    }


# (module, class or None, attribute) -> span name
PATCHES = (
    ("relock.bench", None, "parse_bench", "bench.parse"),
    ("relock.bench", "CompiledCircuit", "__init__", "bench.compile"),
    ("relock.bench", "CompiledCircuit", "eval", "bench.eval"),
    ("relock.encrypt", None, "encrypt", "encrypt.encrypt"),
    ("relock.cli", None, "encrypt", "encrypt.encrypt"),
    ("relock.sim", None, "authentication_schedule", "sim.schedule"),
    ("relock.evaluate", None, "authentication_schedule", "sim.schedule"),
    ("relock.sim", None, "simulate", "sim.simulate"),
    ("relock.attack", None, "simulate", "sim.simulate"),
    ("relock.cli", None, "simulate", "sim.simulate"),
    ("relock.cli", None, "write_columnar", "sim.write"),
    ("relock.evaluate", None, "run_case", "evaluate.run_case"),
    ("relock.cli", None, "run_case", "evaluate.run_case"),
    ("relock.unroll", "CnfBuilder", "encode_netlist", "unroll.encode"),
    ("relock.sat", "Solver", "__init__", "sat.ingest"),
    ("relock.sat", "Solver", "solve", "sat.search"),
    ("relock.attack", None, "recover_key_sequences", "attack.recover"),
    ("relock.cli", None, "recover_key_sequences", "attack.recover"),
    ("relock.attack", "SequenceOracle", "query", "attack.oracle"),
    ("relock.cli", None, "main", "cli.main"),
)


@contextlib.contextmanager
def traced(rec: Recorder):
    """Patch every entry of PATCHES to record into ``rec``; restore on exit."""
    hooks = _hooks(rec)
    saved = []
    try:
        for module, cls, attr, name in PATCHES:
            owner = sys.modules[module]
            if cls is not None:
                owner = getattr(owner, cls)
            original = vars(owner)[attr]
            saved.append((owner, attr, original))
            before, after = hooks.get(name, (None, None))
            setattr(owner, attr, _wrap(rec, name, original, before, after))
        yield rec
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
