"""Benchmark suites: loadability, analysability, concrete correctness."""

import pytest

from repro.benchdata import (
    PAPER_TABLE1,
    PAPER_TABLE2,
    PAPER_TABLE3,
    PAPER_TABLE4,
    funlang_benchmark_names,
    load_funlang_benchmark,
    load_prolog_benchmark,
    prolog_benchmark_names,
)
from repro.core import analyze_groundness
from repro.engine import SLDEngine
from repro.funlang import LazyInterpreter
from repro.prolog import parse_query
from repro.runtime import Budget, ResourceGovernor
from repro.terms import term_to_str


def test_suite_names_match_paper_tables():
    assert set(prolog_benchmark_names()) == set(PAPER_TABLE1)
    assert set(prolog_benchmark_names()) == set(PAPER_TABLE2)
    assert set(funlang_benchmark_names()) == set(PAPER_TABLE3)
    assert set(PAPER_TABLE4) <= set(PAPER_TABLE1)


@pytest.mark.parametrize("name", prolog_benchmark_names())
def test_prolog_benchmarks_load_and_analyze(name):
    program = load_prolog_benchmark(name)
    assert program.clause_count() > 0
    assert program.source_lines > 10
    result = analyze_groundness(program)
    assert result.predicates
    assert not result.warnings, result.warnings


@pytest.mark.parametrize("name", funlang_benchmark_names())
def test_funlang_benchmarks_load(name):
    program = load_funlang_benchmark(name)
    assert len(program.functions()) >= 3
    assert program.defines("main", 1)


# ----------------------------------------------------------------------
# concrete execution of the runnable logic benchmarks


def run_query(name, query, max_solutions=1):
    program = load_prolog_benchmark(name)
    goal, varmap = parse_query(query)
    engine = SLDEngine(
        program, governor=ResourceGovernor(Budget(steps=3_000_000))
    )
    out = []
    for s in engine.solve(goal):
        out.append({k: term_to_str(s.resolve(v)) for k, v in varmap.items()})
        if len(out) >= max_solutions:
            break
    return out


def test_qsort_runs():
    [sol] = run_query("qsort", "qsort([3,1,4,1,5,9,2,6], S)")
    assert sol["S"] == "[1,1,2,3,4,5,6,9]"


def test_queens_runs():
    [sol] = run_query("queens", "queens(6, Qs)")
    placed = sol["Qs"]
    assert placed.count(",") == 5  # six queens


def test_plan_runs():
    [sol] = run_query(
        "plan",
        "plan(state([[a, b], [c]]), [on(b, c)], P)",
    )
    assert "move" in sol["P"]


def test_press_solves_equations():
    [sol] = run_query("press1", "solve_equation(equal(plus(times(2, x), 3), 9), x, S)")
    assert "x" in sol["S"]


def test_read_parses_terms():
    [sol] = run_query("read", 'read_term("f(X, g(a)).", T)')
    assert sol["T"].startswith("f(")


def test_peep_optimizes():
    [sol] = run_query("peep", "optimize_sample(O)")
    text = sol["O"]
    assert "move(r3,r3)" not in text  # move-to-self removed
    assert "shift" in text  # strength reduction applied


def test_gabriel_browse_runs():
    [sol] = run_query("gabriel", "browse(1, M)")
    assert int(sol["M"]) > 0


def test_disj_schedules():
    [sol] = run_query("disj", "schedule(14, S)")
    assert "slot" in sol["S"]


# ----------------------------------------------------------------------
# concrete execution of the functional benchmarks


RUNS = {
    "eu": ("main(10)", None),
    "event": ("main(40)", None),
    "fft": ("main(8)", None),
    "listcompr": ("main(8)", None),
    "mergesort": ("main(12)", ("True",)),
    "nq": ("main(5)", 10),
    "odprove": ("main(0)", 5),
    "pcprove": ("main(0)", 6),
    "quicksort": ("main(15)", ("True",)),
    "strassen": ("main(2)", None),
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_funlang_benchmarks_run(name):
    expr, expected = RUNS[name]
    program = load_funlang_benchmark(name)
    interp = LazyInterpreter(program, fuel=3_000_000)
    value = interp.run(expr)
    if expected is not None:
        assert value == expected
    else:
        assert value is not None
