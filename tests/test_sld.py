"""SLD engine: Prolog-style evaluation, cut, control, incompleteness."""

import pytest

from repro.engine import SLDEngine, sld_solve
from repro.engine.builtins import PrologError
from repro.engine.sld import StepLimitExceeded
from repro.prolog import load_program, parse_query
from repro.runtime import Budget, ResourceGovernor
from repro.terms import term_to_str


def solve_all(src, query, **kw):
    program = load_program(src)
    goal, varmap = parse_query(query)
    engine = SLDEngine(program, **kw)
    return [
        {name: term_to_str(s.resolve(v)) for name, v in varmap.items()}
        for s in engine.solve(goal)
    ]


LISTS = """
app([], Ys, Ys).
app([X|Xs], Ys, [X|Zs]) :- app(Xs, Ys, Zs).
rev([], []).
rev([X|Xs], R) :- rev(Xs, R1), app(R1, [X], R).
"""


def test_append_forward_and_backward():
    assert solve_all(LISTS, "app([1,2], [3], Z)") == [{"Z": "[1,2,3]"}]
    splits = solve_all(LISTS, "app(X, Y, [1,2])")
    assert len(splits) == 3
    assert {"X": "[]", "Y": "[1,2]"} in splits
    assert {"X": "[1,2]", "Y": "[]"} in splits


def test_reverse():
    assert solve_all(LISTS, "rev([1,2,3], R)") == [{"R": "[3,2,1]"}]


def test_solution_order_is_clause_order():
    src = "c(1). c(2). c(3)."
    assert [d["X"] for d in solve_all(src, "c(X)")] == ["1", "2", "3"]


def test_cut_prunes_clause_alternatives():
    src = """
    first([X|_], X) :- !.
    first(_, none).
    t(Y) :- first([1,2], Y).
    """
    assert solve_all(src, "t(Y)") == [{"Y": "1"}]


def test_cut_is_local_to_predicate():
    src = """
    p(X) :- q(X), !.
    p(99).
    q(1). q(2).
    outer(X, Y) :- r(Y), p(X).
    r(a). r(b).
    """
    # cut inside p cuts p's alternatives, not r's
    results = solve_all(src, "outer(X, Y)")
    assert results == [{"X": "1", "Y": "a"}, {"X": "1", "Y": "b"}]


def test_if_then_else():
    src = """
    classify(X, neg) :- X < 0.
    classify(X, Y) :- X >= 0, (X =:= 0 -> Y = zero ; Y = pos).
    """
    assert solve_all(src, "classify(-1, C)") == [{"C": "neg"}]
    assert solve_all(src, "classify(0, C)") == [{"C": "zero"}]
    assert solve_all(src, "classify(5, C)") == [{"C": "pos"}]


def test_if_then_else_condition_commits():
    src = "m(X) :- (member(X, [1,2,3]) -> true ; X = none)."
    # the condition commits to its first solution
    assert solve_all(src, "m(X)") == [{"X": "1"}]


def test_negation_as_failure():
    src = """
    q(1).
    p(X) :- member(X, [1,2]), \\+ q(X).
    """
    assert solve_all(src, "p(X)") == [{"X": "2"}]


def test_disjunction():
    src = "d(X) :- (X = a ; X = b)."
    assert [r["X"] for r in solve_all(src, "d(X)")] == ["a", "b"]


def test_call_meta():
    src = """
    apply(G, X) :- call(G, X).
    even(0). even(2).
    """
    assert [r["X"] for r in solve_all(src, "apply(even, X)")] == ["0", "2"]


def test_left_recursion_loops():
    src = """
    path(X, Y) :- path(X, Z), edge(Z, Y).
    path(X, Y) :- edge(X, Y).
    edge(a, b).
    """
    program = load_program(src)
    goal, _ = parse_query("path(a, X)")
    engine = SLDEngine(program, governor=ResourceGovernor(Budget(steps=5000)))
    with pytest.raises(StepLimitExceeded):
        list(engine.solve(goal))


def test_unknown_predicate_modes():
    program = load_program("p(a).")
    goal, _ = parse_query("missing(X)")
    with pytest.raises(PrologError):
        list(SLDEngine(program).solve(goal))
    assert list(SLDEngine(program, unknown="fail").solve(goal)) == []


def test_user_clauses_shadow_builtin_member():
    src = "member(only, _)."
    assert [r["X"] for r in solve_all(src, "member(X, [1,2])")] == ["only"]


def test_compiled_mode_equivalence():
    src = LISTS + "f(a, 1). f(b, 2). f(c, 3)."
    for query in ("app(X, Y, [1,2,3])", "f(b, N)", "rev([1,2], R)"):
        interpreted = solve_all(src, query, compiled=False)
        compiled = solve_all(src, query, compiled=True)
        assert interpreted == compiled


def test_sld_solve_helper():
    program = load_program("c(1). c(2). c(3).")
    goal, _ = parse_query("c(X)")
    assert len(sld_solve(program, goal)) == 3
    assert len(sld_solve(program, goal, max_solutions=2)) == 2
