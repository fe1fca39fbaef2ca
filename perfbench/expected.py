"""Expected results for every benchmark output, and the checks against them.

``expected.json`` beside this file holds, per analysis and program, the
result a correct analyzer produces:

* ``groundness``: the enumerative Prop oracle (``prop_backend="enum"``),
  never the BDD path the benchmark times;
* ``strictness`` / ``depthk``: exact (unbudgeted) results;
* ``lint``: the diagnostics ``lint_file`` reports with default options;
* ``serve``: the payload each daemon task returns for each original
  corpus file (groundness again from the enum oracle).

An exact result must equal its expected entry.  A degraded (non-exact)
result passes when the :mod:`repro.runtime.soundness` comparators show
that it over-approximates the expected one (for depth-k, after each
expected answer is refined by the predicate's clause heads; see
:func:`check_depthk`).

Regenerate with ``python3 perfbench/expected.py`` (a few minutes:
exact depth-k ``read`` dominates).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXPECTED_PATH = HERE / "expected.json"


def ensure_src_path() -> None:
    """Make ``import repro`` resolve to this checkout's ``src``."""
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)


def prolog_path(name: str) -> Path:
    return ROOT / "src" / "repro" / "benchdata" / "prolog" / f"{name}.pl"


def load_expected() -> dict:
    with open(EXPECTED_PATH, encoding="utf-8") as handle:
        return json.load(handle)


# ----------------------------------------------------------------------
# Normal forms (JSON-able, independent of fresh-variable numbering)


def _indicator(indicator) -> str:
    return f"{indicator[0]}/{indicator[1]}"


def _row(row) -> str:
    return "".join("1" if value else "0" for value in row)


def groundness_form(result) -> dict:
    return {
        _indicator(ind): {
            "rows": sorted(_row(row) for row in info.success.rows),
            "ground_at_call": list(info.ground_at_call),
        }
        for ind, info in sorted(result.predicates.items())
    }


def strictness_form(result) -> dict:
    return {
        _indicator(key): [list(info.demand_e), list(info.demand_d)]
        for key, info in sorted(result.functions.items())
    }


def shape_str(term) -> str:
    """``term_to_str`` with variables numbered by first occurrence."""
    from repro.terms.term import Struct, Var, term_to_str

    numbers: dict = {}

    def number(t):
        if isinstance(t, Var):
            return Struct("$VAR", (numbers.setdefault(t.id, len(numbers)),))
        if isinstance(t, Struct):
            return Struct(t.functor, tuple(number(a) for a in t.args))
        return t

    return term_to_str(number(term))


def _unshape(text: str):
    """Parse a :func:`shape_str` string back, ``'$VAR'(n)`` as variables."""
    from repro.prolog.parser import parse_term
    from repro.terms.term import Struct, fresh_var

    variables: dict = {}

    def revar(t):
        if isinstance(t, Struct):
            if t.functor == "$VAR" and len(t.args) == 1:
                return variables.setdefault(t.args[0], fresh_var())
            return Struct(t.functor, tuple(revar(a) for a in t.args))
        return t

    return revar(parse_term(text))


def depthk_form(result) -> dict:
    return {
        _indicator(ind): {
            "ground_on_success": list(info.ground_on_success),
            "answers": sorted(shape_str(answer) for answer in info.answers),
        }
        for ind, info in sorted(result.predicates.items())
    }


def diagnostics_form(diagnostics) -> list:
    """Diagnostics without file names (daemon copies live elsewhere)."""
    return sorted(
        [d["line"], d["rule"], d["severity"], d["message"]]
        for d in (x if isinstance(x, dict) else x.to_dict() for x in diagnostics)
    )


def serve_form(task: str, payload: dict) -> dict:
    """The comparable part of a daemon reply payload.

    Groundness drops ``table_space``: a worker's table bytes grow with
    the fresh-variable counter of its long-lived process.  Diagnostic
    rows drop their line numbers, because a cached reply keeps the line
    numbers of the file version it was computed on while variant-only
    rewrites move clauses around.
    """
    if task == "groundness":
        return {
            "completeness": payload["completeness"],
            "predicates": payload["predicates"],
        }
    return {"diagnostics": [row[1:] for row in diagnostics_form(payload["rows"])]}


# ----------------------------------------------------------------------
# Checks


def _unindicator(text: str) -> tuple:
    name, _, arity = text.rpartition("/")
    return name, int(arity)


def check_groundness(result, expected: dict) -> bool:
    if result.completeness == "exact":
        return groundness_form(result) == expected
    from repro.runtime.soundness import groundness_over_approximates

    exact = SimpleNamespace(predicates={
        _unindicator(ind): SimpleNamespace(
            success=SimpleNamespace(rows={
                tuple(bit == "1" for bit in row) for row in entry["rows"]
            }),
            ground_at_call=tuple(entry["ground_at_call"]),
        )
        for ind, entry in expected.items()
    })
    return groundness_over_approximates(result, exact)


def check_strictness(result, expected: dict) -> bool:
    if result.completeness == "exact":
        return strictness_form(result) == expected
    from repro.runtime.soundness import strictness_over_approximates

    exact = SimpleNamespace(functions={
        _unindicator(key): SimpleNamespace(
            demand_e=tuple(demands[0]), demand_d=tuple(demands[1])
        )
        for key, demands in expected.items()
    })
    return strictness_over_approximates(result, exact)


def check_depthk(result, expected: dict, program) -> bool:
    """Exact: equal.  Degraded: covers every expected answer's successes.

    Answer shapes are compared syntactically, and an exact answer is
    only as general as the call that produced it: ``can_start_term`` of
    ``read`` answers ``'$gamma'`` to a ``'$gamma'`` call, while a
    degraded run that calls it with a variable answers ``[_|_]`` -- a
    sound answer, which ``shape_covers`` does not accept as covering
    ``'$gamma'``.  Every concrete
    success of a predicate is an instance of one of its clause heads,
    so each expected answer is first met with each head it unifies
    with, and only those instances must be covered.
    """
    if result.completeness == "exact":
        return depthk_form(result) == expected
    from repro.runtime.soundness import depthk_over_approximates

    exact = SimpleNamespace(predicates={
        _unindicator(ind): SimpleNamespace(
            ground_on_success=tuple(entry["ground_on_success"]),
            answers=[
                instance
                for text in entry["answers"]
                for instance in _head_instances(
                    _unshape(text), program.clauses_for(_unindicator(ind)))
            ],
        )
        for ind, entry in expected.items()
    })
    return depthk_over_approximates(result, exact)


def _head_instances(answer, clauses) -> list:
    """``answer`` met with each clause head it abstractly unifies with."""
    from repro.core.depthk import abstract_unify, gpk_name
    from repro.terms.subst import Subst
    from repro.terms.term import Struct
    from repro.terms.variant import rename_apart

    instances = []
    for clause in clauses:
        head = clause.head
        if isinstance(head, Struct):
            head = rename_apart(Struct(gpk_name(head.functor), head.args))
        else:
            head = gpk_name(head)
        subst = abstract_unify(answer, head, Subst())
        if subst is not None:
            instances.append(subst.resolve(head))
    return instances


def check_lint(report, expected: list) -> bool:
    return diagnostics_form(report.diagnostics) == expected


def check_serve(task: str, payload: dict, expected: dict) -> bool:
    return serve_form(task, payload) == expected


# ----------------------------------------------------------------------
# Regeneration


def generate() -> dict:
    ensure_src_path()
    from repro.analysis.cli import lint_file
    from repro.benchdata.loader import (
        PAPER_TABLE4,
        funlang_benchmark_names,
        load_funlang_benchmark,
        load_prolog_benchmark,
        prolog_benchmark_names,
    )
    from repro.core import analyze_depthk, analyze_groundness, analyze_strictness
    from repro.parallel.corpus import TASKS

    def exact(result):
        if result.completeness != "exact":
            raise RuntimeError(f"reference run degraded: {result.completeness}")
        return result

    out: dict = {"groundness": {}, "strictness": {}, "depthk": {},
                 "lint": {}, "serve": {}}
    for name in prolog_benchmark_names():
        program = load_prolog_benchmark(name)
        out["groundness"][name] = groundness_form(
            exact(analyze_groundness(program, prop_backend="enum")))
        report, fatal = lint_file(str(prolog_path(name)), None)
        if fatal is not None:
            raise RuntimeError(fatal)
        out["lint"][name] = diagnostics_form(report.diagnostics)
        for task, options in SERVE_TASKS.items():
            if task == "groundness":
                options = dict(options, prop_backend="enum")
            payload = TASKS[task](str(prolog_path(name)), dict(options))
            out["serve"].setdefault(task, {})[name] = serve_form(task, payload)
    for name in funlang_benchmark_names():
        out["strictness"][name] = strictness_form(
            exact(analyze_strictness(load_funlang_benchmark(name))))
    for name in sorted(PAPER_TABLE4):
        out["depthk"][name] = depthk_form(
            exact(analyze_depthk(load_prolog_benchmark(name), depth=2)))
    return out


#: the daemon tasks ``serve-edit`` draws from, with their request options
#: (failcheck is ``lint-corpus``'s to measure; see ``serve_edit``)
SERVE_TASKS = {
    "groundness": {},
    "modecheck": {},
    "lint": {"failcheck": False},
}


if __name__ == "__main__":
    data = generate()
    with open(EXPECTED_PATH, "w", encoding="utf-8") as handle:
        json.dump(data, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {EXPECTED_PATH}")
