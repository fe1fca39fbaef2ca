"""Batch workloads: the paper's tables and per-file lint.

Each item is one call into the analyzer's public API on one program:

* ``tables-prop``: ``analyze_groundness`` (default BDD backend) on the
  12 Prolog programs of Table 1 and ``analyze_strictness`` on the 10
  functional programs of Table 3;
* ``tables-depthk``: ``analyze_depthk(depth=2)`` on the 9 programs of
  Table 4, ``read`` included, under a deterministic task budget of
  ``DEPTHK_TASKS`` (the repo's own per-analysis default, failcheck's
  ``DEFAULT_TASK_BUDGET``).  Unbudgeted, ``read`` alone takes about
  80 s, longer than a run may last; budgeted, it trips, degrades, and
  shows up in ``exact_share`` while still dominating the run's time;
* ``lint-corpus``: ``repro.analysis.cli.lint_file`` with default
  options (what ``python -m repro.lint FILE`` runs) on the same 9
  programs.  ``gabriel``, ``press1`` and ``press2`` are left out: at
  32-43 s each they do not fit in a run.

Every item starts from a fresh fresh-variable counter and a fresh BDD
manager, as the command-line user does, so table bytes repeat exactly
and no item inherits another's warm caches.
"""

from __future__ import annotations

import random
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext

from expected import (
    ROOT,
    check_depthk,
    check_groundness,
    check_lint,
    check_strictness,
    prolog_path,
)

DEPTHK_TASKS = 30_000
SETUP_REPEATS = 5
#: least samples per item, by item kind.  A ``tables-depthk`` pass is
#: mostly ``read`` (6-9 s a reading), so it gets two readings, not one.
#: Each further reading of a long item (``read`` here; ``strassen`` and
#: lint of ``peep`` and ``read``, 5-7 s each, elsewhere) adds its whole
#: time to every run, so those stay at two and one
MIN_REPEATS = {"depthk": 2}
ITEM_SECONDS = 0.3
ITEM_REPEATS = 10

_TABLE4 = ["cs", "disj", "kalah", "peep", "pg", "plan", "qsort", "queens", "read"]
_PROLOG = ["cs", "disj", "gabriel", "kalah", "peep", "pg", "plan", "press1",
           "press2", "qsort", "queens", "read"]
_FUNLANG = ["eu", "event", "fft", "listcompr", "mergesort", "nq", "odprove",
            "pcprove", "quicksort", "strassen"]

ITEMS = {
    "tables-prop": [("groundness", n) for n in _PROLOG]
    + [("strictness", n) for n in _FUNLANG],
    "tables-depthk": [("depthk", n) for n in _TABLE4],
    "lint-corpus": [("lint", n) for n in _TABLE4],
}

#: what a fresh process imports and parses before its first item
_SETUP_CODE = {
    "tables-prop": "import repro.core\n"
    "from repro.benchdata.loader import *\n"
    "[load_prolog_benchmark(n) for n in prolog_benchmark_names()]\n"
    "[load_funlang_benchmark(n) for n in funlang_benchmark_names()]\n",
    "tables-depthk": "import repro.core\n"
    "from repro.benchdata.loader import *\n"
    "[load_prolog_benchmark(n) for n in sorted(PAPER_TABLE4)]\n",
    "lint-corpus": "import repro.analysis.cli\n"
    "from repro.benchdata.loader import *\n"
    "[load_prolog_benchmark(n) for n in sorted(PAPER_TABLE4)]\n",
}


def seeded_items(workload: str, seed: int) -> list[tuple[str, str]]:
    items = list(ITEMS[workload])
    random.Random(f"{seed}:{workload}").shuffle(items)
    return items


def setup_seconds(workload: str) -> float:
    """Median wall time of a fresh interpreter importing and parsing."""
    code = f"import sys\nsys.path.insert(0, {str(ROOT / 'src')!r})\n" + _SETUP_CODE[workload]
    times = []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True, cwd=ROOT)
        times.append(time.perf_counter() - started)
    return statistics.median(times)


class Captured:
    """Results the lint hooks capture at the calls into the passes."""

    def __init__(self):
        self.mode_reports: list = []
        self.failcheck_reports: list = []
        self.depthk_results: list = []

    def clear(self) -> None:
        self.mode_reports.clear()
        self.failcheck_reports.clear()
        self.depthk_results.clear()


def run_item(kind: str, name: str, expected: dict, captured: Captured,
             tracer=None, on_result=None, repeat: bool = True) -> dict:
    """One item: its median seconds over repetitions, checked outputs.

    An item runs at least ``MIN_REPEATS`` times (by kind, else once),
    and a short one repeats until ``ITEM_SECONDS`` of it have run, at
    most ``ITEM_REPEATS`` times, so its median is not one noisy sample.
    ``repeat=False`` runs it once (the traced run, whose counters must
    not depend on the machine's speed).  Only the analyzer call is
    timed; every repetition's output is checked.
    """
    minimum = MIN_REPEATS.get(kind, 1)
    times: list[float] = []
    table_spaces: set = set()
    ok = True
    exact = None
    while True:
        seconds, good, flags, table_space = _run_once(
            kind, name, expected, captured, tracer, on_result)
        times.append(seconds)
        table_spaces.add(table_space)
        ok = ok and good
        exact = flags if exact is None else exact
        if not repeat or len(times) >= minimum and (
                sum(times) >= ITEM_SECONDS or len(times) >= ITEM_REPEATS):
            break
    return {"item": f"{kind}:{name}", "seconds": statistics.median(times),
            "ok": ok and len(table_spaces) == 1, "exact": exact,
            "table_space": table_spaces.pop(), "edit": True}


def _run_once(kind, name, expected, captured, tracer, on_result):
    from repro.bdd.propfn import reset_global_manager
    from repro.benchdata.loader import load_funlang_benchmark, load_prolog_benchmark
    from repro.core import analyze_depthk, analyze_groundness, analyze_strictness
    from repro.runtime.budget import Budget
    from repro.terms.term import reset_var_counter

    reset_var_counter()
    reset_global_manager()
    captured.clear()
    span = tracer.span if tracer is not None else (lambda name: nullcontext())
    if kind == "lint":
        from repro.analysis.cli import lint_file

        started = time.perf_counter()
        with span("lint_file"):
            report, fatal = lint_file(str(prolog_path(name)), None)
        seconds = time.perf_counter() - started
        ok = fatal is None and check_lint(report, expected["lint"][name])
        exact = [m.completeness == "prop" for m in captured.mode_reports]
        exact += [f.completeness == "exact" for f in captured.failcheck_reports]
        ok = ok and len(exact) == 2
        table_space = sum(r.table_space for r in captured.depthk_results)
        result = report
    else:
        if kind == "strictness":
            program = load_funlang_benchmark(name)
        else:
            program = load_prolog_benchmark(name)
        analyze, check, kwargs = {
            "groundness": (analyze_groundness, check_groundness, {}),
            "strictness": (analyze_strictness, check_strictness, {}),
            "depthk": (analyze_depthk,
                       lambda result, want: check_depthk(result, want, program),
                       {"depth": 2, "budget": Budget(tasks=DEPTHK_TASKS)}),
        }[kind]
        started = time.perf_counter()
        with span(f"analyze_{kind}"):
            result = analyze(program, **kwargs)
        seconds = time.perf_counter() - started
        ok = check(result, expected[kind][name])
        exact = [result.completeness == "exact"]
        table_space = result.table_space
    if on_result is not None:
        on_result(kind, result)
    return seconds, ok, exact, table_space


def measure(items, seconds: float, run) -> list[dict]:
    """Whole passes over ``items``: the first always, more while they fit.

    Another pass starts only if the last pass's time still fits in
    ``seconds``, so every run attempts the same item multiset whatever
    the seed's order.
    """
    records: list[dict] = []
    started = time.perf_counter()
    last_pass = 0.0
    while not records or time.perf_counter() - started + last_pass <= seconds:
        pass_started = time.perf_counter()
        records.extend(run(*item) for item in items)
        last_pass = time.perf_counter() - pass_started
    return records


def check_table_space(records: list[dict]) -> None:
    """Table bytes must repeat exactly: mark every disagreeing record failed."""
    by_item: dict = {}
    for record in records:
        by_item.setdefault(record["item"], set()).add(record["table_space"])
    for record in records:
        if len(by_item[record["item"]]) != 1:
            record["ok"] = False


def table_space_per_pass(records: list[dict]) -> int:
    seen: dict = {}
    for record in records:
        seen.setdefault(record["item"], record["table_space"])
    return sum(seen.values())
