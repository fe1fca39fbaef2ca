"""Iterative SLD resolution engine (ordinary Prolog evaluation).

This is the *incomplete* baseline: depth-first, left-to-right, with
backtracking, cut, if-then-else and negation as failure.  It runs the
concrete benchmark programs (used to validate analysis results against
actual execution) and serves as the comparison point motivating tabling:
left-recursive programs loop here and terminate on
:class:`repro.engine.tabling.TabledEngine`.

The machine is fully iterative — an explicit choicepoint stack of
alternative-state generators — so derivation depth is not limited by the
Python recursion limit.
"""

from __future__ import annotations

from repro.engine.builtins import (
    DET_BUILTINS,
    NONDET_BUILTINS,
    PrologError,
)
from repro.engine.clausedb import ClauseDB
from repro.obs.observer import NULL_OBSERVER, resolve_observer
from repro.prolog.program import Program
from repro.runtime.budget import StepLimitExceeded
from repro.terms.subst import EMPTY_SUBST, Subst
from repro.terms.term import Struct, Term, Var, term_to_str


class _Cut(Exception):
    pass


_CUT_MARK = "$sld_cut"


class SLDEngine:
    """A Prolog-style SLD engine over a :class:`ClauseDB`.

    Parameters
    ----------
    program:
        A :class:`Program` or prebuilt :class:`ClauseDB`.
    compiled:
        Build the clause database in compiled (indexed, templated) mode.
    unknown:
        ``"error"`` (default) raises on calls to undefined predicates,
        ``"fail"`` makes them fail silently.
    governor:
        A :class:`~repro.runtime.budget.ResourceGovernor` enforcing
        step/deadline budgets and cancellation.  Sub-engines spawned
        for ``\\+`` goals share it, so nested work draws down the same
        budget.
    """

    def __init__(
        self,
        program: Program | ClauseDB,
        compiled: bool = False,
        unknown: str = "error",
        governor=None,
        obs=None,
    ):
        if isinstance(program, ClauseDB):
            self.db = program
        else:
            prepared = getattr(program, "prepared_db", None)
            self.db = prepared if prepared is not None else ClauseDB(program, compiled)
        self.unknown = unknown
        self.governor = governor
        self.obs = resolve_observer(obs)
        self.steps = 0

    # ------------------------------------------------------------------
    def solve(self, goal: Term, subst: Subst = EMPTY_SUBST):
        """Yield one substitution per SLD solution of ``goal``."""
        obs = self.obs
        if not obs.enabled:
            yield from self._solve(goal, subst)
            return
        start_steps = self.steps
        with obs.span("engine.sld.solve", goal=term_to_str(goal)) as span:
            try:
                yield from self._solve(goal, subst)
            finally:
                # flush on normal exhaustion, close() and budget trips
                delta = self.steps - start_steps
                span.attrs["steps"] = delta
                obs.registry.counter("engine.sld.steps").value += delta
                obs.registry.counter("engine.sld.solves").value += 1

    def _solve(self, goal: Term, subst: Subst = EMPTY_SUBST):
        goals = ((goal, 0), None)
        cps: list = []
        state = (goals, subst)
        while True:
            if state is None:
                while cps:
                    try:
                        state = next(cps[-1])
                        break
                    except StopIteration:
                        cps.pop()
                if state is None:
                    return
            goals, subst = state
            if goals is None:
                yield subst
                state = None
                continue
            state = self._step(goals, subst, cps)

    def _step(self, goals, subst: Subst, cps: list):
        (goal, barrier), rest = goals
        goal = subst.walk(goal)
        self.steps += 1
        if self.governor is not None:
            self.governor.charge("steps", goal)

        if isinstance(goal, Var):
            raise PrologError("call: unbound goal")
        if isinstance(goal, int):
            raise PrologError(f"call: integer goal {goal}")

        indicator = goal.indicator if isinstance(goal, Struct) else (goal, 0)
        name, arity = indicator

        # --- control constructs ------------------------------------------
        if name == "true" and arity == 0 or name == "otherwise" and arity == 0:
            return (rest, subst)
        if (name == "fail" or name == "false") and arity == 0:
            return None
        if name == "," and arity == 2:
            return (
                ((goal.args[0], barrier), ((goal.args[1], barrier), rest)),
                subst,
            )
        if name == ";" and arity == 2:
            left, right = goal.args
            if isinstance(subst.walk(left), Struct) and subst.walk(left).indicator == (
                "->",
                2,
            ):
                cond_then = subst.walk(left)
                return self._push_ite(
                    cond_then.args[0], cond_then.args[1], right, barrier, rest, subst, cps
                )
            height_barrier = barrier
            frame = iter(
                [
                    (((left, height_barrier), rest), subst),
                    (((right, height_barrier), rest), subst),
                ]
            )
            cps.append(frame)
            return None
        if name == "->" and arity == 2:
            return self._push_ite(
                goal.args[0], goal.args[1], "fail", barrier, rest, subst, cps
            )
        if name == "!" and arity == 0:
            del cps[barrier:]
            return (rest, subst)
        if name == _CUT_MARK and arity == 1:
            del cps[goal.args[0] :]
            return (rest, subst)
        if (name == "\\+" or name == "not") and arity == 1:
            # the sub-engine shares this engine's governor, so nested
            # resolution charges the same step budget as it happens —
            # an exhausted parent cannot be overrun via nested goals.
            # Its steps fold into self.steps below, so it must NOT also
            # report to the observer (that would double-count).
            if self.obs.enabled:
                # the sub-engine is muted (see above), so the parent
                # records the negation call it is about to make
                self.obs.registry.counter("engine.negation.calls").inc()
            sub = SLDEngine(
                self.db, unknown=self.unknown, governor=self.governor,
                obs=NULL_OBSERVER,
            )
            for _ in sub.solve(goal.args[0], subst):
                self.steps += sub.steps
                return None
            self.steps += sub.steps
            return (rest, subst)
        if name == "call" and arity >= 1:
            target = subst.walk(goal.args[0])
            if arity > 1:
                target = _add_args(target, goal.args[1:])
            return (((target, len(cps)), rest), subst)

        # --- user-defined predicates take priority over builtins ---------
        if self.db.defines(indicator):
            return self._push_clauses(indicator, goal, barrier, rest, subst, cps)

        det = DET_BUILTINS.get(indicator)
        if det is not None:
            args = goal.args if isinstance(goal, Struct) else ()
            extended = det(args, subst)
            return (rest, extended) if extended is not None else None
        nondet = NONDET_BUILTINS.get(indicator)
        if nondet is not None:
            args = goal.args if isinstance(goal, Struct) else ()
            frame = ((rest, extended) for extended in nondet(args, subst))
            cps.append(frame)
            return None

        if self.unknown == "fail":
            return None
        raise PrologError(f"undefined predicate {name}/{arity}")

    def _push_ite(self, cond, then, orelse, barrier, rest, subst, cps):
        height = len(cps)
        then_goals = (
            (cond, height + 1),
            ((Struct(_CUT_MARK, (height,)), barrier), ((then, barrier), rest)),
        )
        else_goals = ((orelse, barrier), rest)
        cps.append(iter([(then_goals, subst), (else_goals, subst)]))
        return None

    def _push_clauses(self, indicator, goal, barrier, rest, subst, cps):
        height = len(cps)
        records = self.db.candidates(indicator, goal, subst)
        frame = self._clause_states(records, goal, height, rest, subst)
        cps.append(frame)
        return None

    def _clause_states(self, records, goal, height, rest, subst):
        from repro.terms.unify import unify

        for record in records:
            head, body = self.db.rename(record)
            extended = unify(goal, head, subst)
            if extended is not None:
                yield (((body, height), rest), extended)


def _add_args(target: Term, extra: tuple) -> Term:
    if isinstance(target, str):
        return Struct(target, tuple(extra))
    if isinstance(target, Struct):
        return Struct(target.functor, target.args + tuple(extra))
    raise PrologError("call/N: not callable")


def sld_solve(program: Program, goal: Term, max_solutions: int | None = None, **kw):
    """Convenience wrapper: solve ``goal`` and return resolved instances."""
    engine = SLDEngine(program, **kw)
    results = []
    for subst in engine.solve(goal):
        results.append(subst.resolve(goal))
        if max_solutions is not None and len(results) >= max_solutions:
            break
    return results
