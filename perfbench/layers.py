"""Layer hooks: result capture for every run, spans and profiles for traced runs.

The benchmark measures from outside: it wraps public functions where
their callers look them up, and restores them afterwards.  Hook points:

* ``repro.analysis.lint.check_modes`` — ``lint.py`` binds
  ``check_modes`` at import time (``from repro.analysis.modecheck import
  check_modes``), so the wrapper must replace the name in
  ``repro.analysis.lint``; patching ``repro.analysis.modecheck`` would
  not be seen;
* ``repro.analysis.failcheck.failcheck_program`` — ``lint_program``
  imports it at call time, so the module attribute is the one to patch;
* ``repro.analysis.summaries.depthk_via_summaries`` — likewise imported
  at call time, inside ``failcheck_program``;
* ``repro.engine.tabling.TabledEngine.solve``,
  ``repro.serve.cache.ResultCache.probe`` and
  ``repro.serve.pool.WorkerPool.submit`` — methods, patched on the
  class, so every instance in the process sees them.

The three lint hooks are installed in every run: ``exact_share`` for
lint needs the modecheck and failcheck completeness, which
``lint_file`` does not return.  The rest are installed only for the
traced run.

A traced run records a span at each boundary (name, start, end,
parent; kept in memory until the run ends).  A layer's ``.s`` metric is
the time of its outermost spans, so a recursive call is not counted
twice.  The terms, engine and BDD functions are called millions of
times, so their call counts and self time (``*.self_s``: time in the
package's own functions, excluding what they call elsewhere) come from
the stdlib ``cProfile``, folded by module, not from spans.
In ``serve-edit`` the analyses run in worker processes: its engine and
BDD numbers are the workers' metrics as merged into the daemon's
registry, and its profile covers the two client threads only.

What each layer's metrics should move (``BENCHMARK.json`` has no room
for it, so it is kept here):

* ``prolog.*``: ``setup_s`` everywhere; ``request_s_p50`` on
  ``serve-edit``, where every cache probe reparses the file;
* ``terms.*``: ``wall_s`` on ``tables-depthk`` (most of its work) and
  ``lint-corpus``; little on ``tables-prop``;
* ``engine.*``: ``wall_s`` and ``table_space_bytes`` on
  ``tables-depthk``; ``wall_s`` on ``lint-corpus``;
* ``bdd.*``: ``item_s_geomean`` on ``tables-prop``, ``request_s_p50``
  on ``serve-edit``; nothing on ``tables-depthk``;
* ``core.*``: splits ``wall_s`` of the ``tables-*`` workloads by paper
  table and by the paper's preprocess / analysis / collection phases;
* ``analysis.*``: ``wall_s`` and ``exact_share`` on ``lint-corpus``;
  nothing on ``tables-*`` or ``serve-edit``;
* ``serve.*``: hit ratio and probe time move ``request_s_p50``; worker
  time and dirty components move ``edit_request_s_*``; queue and
  dispatch time move ``request_s_p99`` and ``requests_per_s``.
"""

from __future__ import annotations

import pstats
import threading
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext


class Tracer:
    """In-memory spans with per-thread parent stacks."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self._local = threading.local()
        self._lock = threading.Lock()

    @contextmanager
    def span(self, name: str):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        record = [name, time.perf_counter(), None, stack[-1] if stack else None]
        with self._lock:
            index = len(self.spans)
            self.spans.append(record)
        stack.append(index)
        try:
            yield record
        finally:
            record[2] = time.perf_counter()
            stack.pop()

    def totals(self) -> dict:
        """Seconds per span name, counting only its outermost spans."""
        inclusive: dict = defaultdict(float)
        for name, start, end, parent in self.spans:
            ancestor = parent
            while ancestor is not None and self.spans[ancestor][0] != name:
                ancestor = self.spans[ancestor][3]
            if ancestor is None:
                inclusive[name] += end - start
        return inclusive


class Hooks:
    """Installs and removes the wrappers; accumulates what they see."""

    def __init__(self, captured=None, tracer: Tracer | None = None):
        self.captured = captured
        self.tracer = tracer
        self._restore: list = []
        self.engine = defaultdict(int)
        self.submits: list = []   # (span seconds, queue seconds, worker seconds)

    def _span(self, name: str):
        if self.tracer is None:
            return nullcontext()
        return self.tracer.span(name)

    def _patch(self, owner, attr: str, make) -> None:
        original = getattr(owner, attr)
        setattr(owner, attr, make(original))
        self._restore.append((owner, attr, original))

    def install_lint(self) -> None:
        import repro.analysis.failcheck as failcheck
        import repro.analysis.lint as lint
        import repro.analysis.summaries as summaries

        def capture(span_name, sink):
            def make(original):
                def wrapper(*args, **kwargs):
                    with self._span(span_name):
                        result = original(*args, **kwargs)
                    if self.captured is not None:
                        getattr(self.captured, sink).append(result)
                    return result
                return wrapper
            return make

        self._patch(lint, "check_modes", capture("check_modes", "mode_reports"))
        self._patch(failcheck, "failcheck_program",
                    capture("failcheck_program", "failcheck_reports"))
        self._patch(summaries, "depthk_via_summaries",
                    capture("depthk_via_summaries", "depthk_results"))

    def install_traced(self) -> None:
        from repro.engine.tabling import TabledEngine
        from repro.serve.cache import ResultCache
        from repro.serve.pool import WorkerPool

        hooks = self

        def make_solve(original):
            def solve(engine, goal):
                before = engine.stats.as_dict()
                table_bytes = engine.table_space_bytes()
                try:
                    with hooks._span("TabledEngine.solve"):
                        return original(engine, goal)
                finally:
                    for key, value in engine.stats.as_dict().items():
                        hooks.engine[key] += value - before.get(key, 0)
                    hooks.engine["table_space_bytes"] += (
                        engine.table_space_bytes() - table_bytes)
            return solve

        def make_probe(original):
            def probe(cache, key, program):
                with hooks._span("ResultCache.probe"):
                    return original(cache, key, program)
            return probe

        def make_submit(original):
            def submit(pool, *args, **kwargs):
                started = time.perf_counter()
                with hooks._span("WorkerPool.submit"):
                    record = original(pool, *args, **kwargs)
                hooks.submits.append((time.perf_counter() - started,
                                      record.get("queue_seconds", 0.0),
                                      record.get("seconds", 0.0)))
                return record
            return submit

        self._patch(TabledEngine, "solve", make_solve)
        self._patch(ResultCache, "probe", make_probe)
        self._patch(WorkerPool, "submit", make_submit)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)


# ----------------------------------------------------------------------
# cProfile folding

_PACKAGES = ("terms", "engine", "bdd", "prolog")

#: per-layer call counters: metric -> (module file suffix, function name)
_CALLS = {
    "terms.unify.calls": ("repro/terms/unify.py", "unify"),
    "terms.match.calls": ("repro/terms/unify.py", "match"),
    "terms.canonical.calls": ("repro/terms/variant.py", "canonical"),
    "terms.variant_key.calls": ("repro/terms/variant.py", "variant_key"),
    "terms.walk.calls": ("repro/terms/subst.py", "walk"),
    "terms.rename_apart.calls": ("repro/terms/variant.py", "rename_apart"),
    "terms.term_to_str.calls": ("repro/terms/term.py", "term_to_str"),
    "prolog.load_program.calls": ("repro/prolog/program.py", "load_program"),
}


def fold_profile(profiles: list) -> dict:
    """Call counts of the named functions and self seconds per package."""
    stats = pstats.Stats(*profiles).stats if profiles else {}
    out = {name: 0 for name in _CALLS}
    out["prolog.load_program.s"] = 0.0
    for package in _PACKAGES:
        out[f"{package}.self_s"] = 0.0
    for (filename, _line, function), (_cc, calls, own, cumulative, _) in stats.items():
        path = filename.replace("\\", "/")
        for package in _PACKAGES:
            if f"/repro/{package}/" in path:
                out[f"{package}.self_s"] += own
        for metric, (suffix, name) in _CALLS.items():
            if function == name and path.endswith(suffix):
                out[metric] += calls
                if metric == "prolog.load_program.calls":
                    out["prolog.load_program.s"] += cumulative
    del out["prolog.self_s"]
    return out
