"""A small, deterministic CDCL SAT solver.

Two-watched-literal propagation, first-UIP conflict analysis with clause
learning, exponentially decayed variable activities, phase saving, and Luby
restarts.  There is no randomization anywhere, so a formula always produces
the same run, the same model, and the same statistics.

``Solver.solve`` accepts an optional conflict budget for that call;
exceeding it aborts the search with status ``UNKNOWN`` and the statistics
gathered so far, which is how callers meter attack effort.  A solver can
take more clauses after a solve (``Solver.add_clause``) and solve again,
keeping what it learned, as in Een & Sorensson's extensible solver.

Clauses come in and models go out in DIMACS form (nonzero ints, ``-v`` for
"not v").  Inside the solver, as in MiniSat (Een & Sorensson, SAT 2003),
variable v is the literal index ``2v`` when true and ``2v + 1`` when false,
so negation is ``lit ^ 1`` and the variable is ``lit >> 1``; values and watch
lists are plain lists indexed by literal.  Loading maps each clause of two
or more literals whose variables are distinct and in range through two
lists indexed by the variable, one per sign, so that a literal out of range
raises instead of reading another literal's entry; every other clause goes
through the general path that dedupes it and reports a bad literal.
Propagation scans each watch list in place, rebuilding it only when a
clause moved its watch.
"""

from __future__ import annotations

import heapq
from typing import NamedTuple

SAT = "SAT"
UNSAT = "UNSAT"
UNKNOWN = "UNKNOWN"

_RESTART_BASE = 128
_ACT_DECAY = 0.95
_ACT_LIMIT = 1e100

# values of ``Solver.val[lit]``; only FALSE is falsy, which the propagation
# loop's replacement-watch scan relies on
_FALSE, _TRUE, _FREE = 0, 1, 2


class SolveResult(NamedTuple):
    status: str
    model: dict[int, bool] | None
    conflicts: int
    decisions: int
    propagations: int
    restarts: int
    learned: int

    def __bool__(self) -> bool:
        return self.status == SAT


def _luby(i: int) -> int:
    # Luby restart sequence: 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ...
    size = 1
    seq = 0
    while size < i + 1:
        seq += 1
        size = 2 * size + 1
    while size - 1 != i:
        size = (size - 1) >> 1
        seq -= 1
        i = i % size
    return 1 << seq


class Solver:
    """CDCL search over a clause set that can grow between solves.

    ``add_clause`` after a solve backtracks to level 0 and keeps the learned
    clauses, activities and saved phases, so the next ``solve`` continues
    from them.  The counters (``conflicts``, ``decisions``, ``propagations``,
    ``restarts``, ``learned``) are running totals over every call, as is
    each ``SolveResult``'s; the conflict budget, and the one conflict a root
    UNSAT counts, apply per call.

    Decisions take the free variable of highest activity, ties going to the
    smaller variable.  Bumped variables (activity above 0) come from a lazy
    ``heapq`` of ``(-activity, v)`` entries: a popped entry of an assigned
    variable is dropped, and one above a free variable's activity (left by a
    rescale) is re-keyed.  Activity only rises while a variable is assigned,
    and unassigning a bumped variable pushes its current activity, so a free
    variable's best entry always holds its current activity.  ``heap_act[v]``
    keeps the activity of v's newest entry (None once popped), and a push is
    skipped when it would equal that live entry: identical tuples are
    indistinguishable, so the skip leaves every decision unchanged.  A
    variable of activity 0 ranks below every bumped one and by index among
    its peers, so when no bumped variable is free the decision is the
    smallest free variable, found by scanning up from the cursor
    ``next_var``.  No free variable of activity 0 lies below the cursor:
    unassigning one moves the cursor down to it, and so does popping the
    entry of one that rescales took down to 0.0.  The heap thus holds the
    variables the search bumped, not every variable of the formula.
    """

    def __init__(self, n_vars: int, clauses) -> None:
        self.n_vars = n_vars
        self.val: list[int] = [_FREE] * (2 * n_vars + 2)
        self.level: list[int] = [0] * (n_vars + 1)
        self.reason: list[list[int] | None] = [None] * (n_vars + 1)
        self.watches: list[list[list[int]]] = [[] for _ in range(2 * n_vars + 2)]
        self.trail: list[int] = []
        self.trail_lim: list[int] = []
        self.qhead = 0
        self.activity: list[float] = [0.0] * (n_vars + 1)
        self.var_inc = 1.0
        # saved phase as a literal; a fresh variable is first tried false
        self.phase: list[int] = list(range(1, 2 * n_vars + 2, 2))
        self.heap: list[tuple[float, int]] = []
        self.heap_act: list[float | None] = [None] * (n_vars + 1)
        self.next_var = 1
        self.conflicts = 0
        self.decisions = 0
        self.propagations = 0
        self.restarts = 0
        self.learned = 0
        self.unsat = False
        self._units: list[int] = []
        self._seen: list[bool] = [False] * (n_vars + 1)  # _analyze's marks, all False between calls
        watches = self.watches
        # the table path: a clause of two or more literals that are all in
        # range and whose variables differ is watched as is; any other
        # clause, including every bad one, takes the general path below.
        # Literal v indexes pos[v] and -v indexes neg[v]: an index is never
        # negative, so no literal out of range reads another's entry.  neg
        # holds the initial phases' int objects (2v + 1) rather than new ones
        pos = [None, *range(2, 2 * n_vars + 1, 2)]
        neg = [None, *self.phase[1:]]
        for lits in clauses:
            k = len(lits)
            try:
                if k == 2:
                    a, b = lits
                    x = pos[a] if a > 0 else neg[-a]
                    y = pos[b] if b > 0 else neg[-b]
                    if x is not None and y is not None and a != b and a != -b:
                        cl = [x, y]
                        watches[x].append(cl)
                        watches[y].append(cl)
                        continue
                elif k == 3:
                    a, b, c = lits
                    x = pos[a] if a > 0 else neg[-a]
                    y = pos[b] if b > 0 else neg[-b]
                    z = pos[c] if c > 0 else neg[-c]
                    # squares differ exactly when variables do
                    if x is not None and y is not None and z is not None and a * a != b * b != c * c != a * a:
                        cl = [x, y, z]
                        watches[x].append(cl)
                        watches[y].append(cl)
                        continue
                elif k > 3:
                    cl = [pos[a] if a > 0 else neg[-a] for a in lits]
                    if None not in cl and len({x >> 1 for x in cl}) == k:
                        watches[cl[0]].append(cl)
                        watches[cl[1]].append(cl)
                        continue
            except IndexError:
                pass
            self._add(lits)

    def add_clause(self, lits) -> None:
        """Add a DIMACS clause, before or after a solve.

        Backtracks to level 0.  Literals false there stay false, so they
        are dropped: the clause watches two of the rest, becomes a unit
        when one is left, and makes the formula UNSAT when none is.
        """
        self._cancel_until(0)
        self._add(lits)

    def _add(self, lits) -> None:
        val = self.val
        seen = set()
        cl = []
        for lit in lits:
            if lit == 0 or abs(lit) > self.n_vars:
                raise ValueError(f"bad literal {lit}")
            if -lit in seen:
                return  # tautology
            if lit not in seen:
                seen.add(lit)
                x = 2 * lit if lit > 0 else 1 - 2 * lit
                if val[x]:  # not false at level 0; before a solve, none is
                    cl.append(x)
        if len(cl) > 1:
            self.watches[cl[0]].append(cl)
            self.watches[cl[1]].append(cl)
        elif cl:
            self._units.append(cl[0])
        else:
            self.unsat = True

    # -- assignment ---------------------------------------------------------

    def _enqueue(self, lit: int, reason: list[int] | None) -> bool:
        val = self.val
        if val[lit] != _FREE:
            return val[lit] == _TRUE
        val[lit] = _TRUE
        val[lit ^ 1] = _FALSE
        self.level[lit >> 1] = len(self.trail_lim)
        self.reason[lit >> 1] = reason
        self.trail.append(lit)
        return True

    def _propagate(self) -> list[int] | None:
        trail = self.trail
        val = self.val
        watches = self.watches
        level = self.level
        reason = self.reason
        push = trail.append
        dl = len(self.trail_lim)
        qhead = self.qhead
        start = qhead
        confl = None
        while qhead < len(trail):
            falsified = trail[qhead] ^ 1
            qhead += 1
            wl = watches[falsified]
            # scan in place; a clause that moves its watch leaves the list
            # afterwards, so the rest keep their order
            moved = False
            for cl in wl:
                # keep the falsified watch in cl[1]
                first = cl[0]
                if first == falsified:
                    first = cl[1]
                    cl[0] = first
                    cl[1] = falsified
                vf = val[first]
                if vf == _TRUE:
                    continue
                for k in range(2, len(cl)):
                    lk = cl[k]
                    if val[lk]:
                        cl[1] = lk
                        cl[k] = falsified
                        watches[lk].append(cl)
                        moved = True
                        break
                else:
                    if vf == _FALSE:
                        confl = cl
                        break
                    val[first] = _TRUE
                    val[first ^ 1] = _FALSE
                    level[first >> 1] = dl
                    reason[first >> 1] = cl
                    push(first)
            if moved:
                # a clause still watching ``falsified`` holds it in cl[0] or cl[1]
                watches[falsified] = [cl for cl in wl if cl[1] == falsified or cl[0] == falsified]
            if confl is not None:
                break
        self.propagations += qhead - start
        self.qhead = qhead
        return confl

    # -- learning -----------------------------------------------------------

    def _rescale(self) -> None:
        scale = 1.0 / _ACT_LIMIT
        activity = self.activity
        for u in range(1, self.n_vars + 1):
            activity[u] *= scale
        self.var_inc *= scale

    def _analyze(self, confl: list[int]) -> tuple[list[int], int]:
        level = self.level
        activity = self.activity
        trail = self.trail
        learnt = [0]
        seen = self._seen
        counter = 0
        lit = None
        idx = len(trail) - 1
        cur_level = len(self.trail_lim)
        reason = confl
        while True:
            for q in reason if lit is None else reason[1:]:
                v = q >> 1
                if not seen[v] and level[v] > 0:
                    seen[v] = True
                    activity[v] += self.var_inc
                    if activity[v] > _ACT_LIMIT:
                        self._rescale()
                    if level[v] >= cur_level:
                        counter += 1
                    else:
                        learnt.append(q)
            while not seen[trail[idx] >> 1]:
                idx -= 1
            lit = trail[idx]
            v = lit >> 1
            seen[v] = False
            counter -= 1
            idx -= 1
            if counter == 0:
                learnt[0] = lit ^ 1
                break
            # a reason clause holds its implied literal in reason[0]:
            # propagation puts it there and never moves a true cl[0]
            reason = self.reason[v]
        # only the literals below the conflict level are still marked
        for q in learnt[1:]:
            seen[q >> 1] = False
        if len(learnt) == 1:
            return learnt, 0
        back = max(level[q >> 1] for q in learnt[1:])
        # move one literal of the backtrack level into watch position
        for k in range(1, len(learnt)):
            if level[learnt[k] >> 1] == back:
                learnt[1], learnt[k] = learnt[k], learnt[1]
                break
        return learnt, back

    def _cancel_until(self, lvl: int) -> None:
        if len(self.trail_lim) <= lvl:
            return
        mark = self.trail_lim[lvl]
        del self.trail_lim[lvl:]
        val = self.val
        phase = self.phase
        activity = self.activity
        heap = self.heap
        heap_act = self.heap_act
        next_var = self.next_var
        for lit in reversed(self.trail[mark:]):
            v = lit >> 1
            phase[v] = lit
            val[lit] = val[lit ^ 1] = _FREE
            act = activity[v]
            if not act:
                if v < next_var:
                    next_var = v
            elif heap_act[v] != act:
                heap_act[v] = act
                heapq.heappush(heap, (-act, v))
        self.next_var = next_var
        del self.trail[mark:]
        self.qhead = min(self.qhead, mark)

    def _decide(self) -> int:
        val = self.val
        activity = self.activity
        heap = self.heap
        heap_act = self.heap_act
        while heap:
            neg, v = heapq.heappop(heap)
            if heap_act[v] == -neg:
                heap_act[v] = None
            if val[2 * v] != _FREE:
                continue
            act = activity[v]
            if -neg <= act:
                return self.phase[v]
            # pushed before a rescale: re-key at the current activity, or
            # hand v to the cursor if rescales took it down to 0.0
            if not act:
                if v < self.next_var:
                    self.next_var = v
            elif heap_act[v] != act:
                heap_act[v] = act
                heapq.heappush(heap, (-act, v))
        # no free variable is bumped: the smallest free one
        v = self.next_var
        n = self.n_vars
        while v <= n and val[2 * v] != _FREE:
            v += 1
        self.next_var = v
        return self.phase[v] if v <= n else 0  # 0: no variable is free

    # -- search -------------------------------------------------------------

    def solve(self, conflict_budget: int | None = None) -> SolveResult:
        """Search from level 0, with at most ``conflict_budget`` conflicts
        in this call."""
        self._cancel_until(0)
        self._call_start = self.conflicts
        if not self.unsat:
            # a conflict at level 0 is never undone, so UNSAT is final
            self.unsat = not all(self._enqueue(lit, None) for lit in self._units) or self._propagate() is not None
        if self.unsat:
            return self._result(UNSAT)
        limit = _RESTART_BASE * _luby(self.restarts)
        conflicts_here = 0
        while True:
            confl = self._propagate()
            if confl is not None:
                self.conflicts += 1
                conflicts_here += 1
                if not self.trail_lim:
                    self.unsat = True
                if conflict_budget is not None and self.conflicts - self._call_start > conflict_budget:
                    return self._result(UNKNOWN)
                if self.unsat:
                    return self._result(UNSAT)
                learnt, back = self._analyze(confl)
                self._cancel_until(back)
                if len(learnt) == 1:
                    # back is 0, so cancelling to it freed the UIP's variable
                    self._enqueue(learnt[0], None)
                else:
                    self.learned += 1
                    self.watches[learnt[0]].append(learnt)
                    self.watches[learnt[1]].append(learnt)
                    self._enqueue(learnt[0], learnt)
                self.var_inc /= _ACT_DECAY
                continue
            if conflicts_here >= limit:
                conflicts_here = 0
                self.restarts += 1
                limit = _RESTART_BASE * _luby(self.restarts)
                self._cancel_until(0)
                continue
            lit = self._decide()
            if not lit:
                return self._result(SAT)
            self.decisions += 1
            self.trail_lim.append(len(self.trail))
            self._enqueue(lit, None)

    def _result(self, status: str) -> SolveResult:
        model = None
        if status == SAT:
            val = self.val
            model = {v: val[2 * v] == _TRUE for v in range(1, self.n_vars + 1)}
        elif status == UNSAT and self.conflicts == self._call_start:
            # deriving the empty clause at the root still counts as one
            self.conflicts += 1
        return SolveResult(
            status=status,
            model=model,
            conflicts=self.conflicts,
            decisions=self.decisions,
            propagations=self.propagations,
            restarts=self.restarts,
            learned=self.learned,
        )


def solve(clauses, n_vars: int | None = None, conflict_budget: int | None = None) -> SolveResult:
    """Solve a clause list over ``n_vars`` variables, by default the largest
    variable it names.

    Deterministic: equal formulas give equal results and statistics.  An
    empty clause makes the formula UNSAT, counted as one conflict.
    """
    if n_vars is None:
        n_vars = max((abs(v) for cl in clauses for v in cl), default=0)
    return Solver(n_vars, clauses).solve(conflict_budget)
