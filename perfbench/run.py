"""The analyzer's benchmark: one workload, one seed, every metric.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see ``BENCHMARK.json`` for why each was chosen):
``tables-prop``, ``tables-depthk``, ``lint-corpus`` (batch; see
``batch.py``) and ``serve-edit`` (daemon traffic; see
``serve_edit.py``).  The seed fixes item order and the serve
request/edit sequence.

``--trace 0`` measures with no tracing and prints the end-to-end
metrics.  ``--trace 1`` runs the workload once untraced and once with
spans and ``cProfile`` on (see ``layers.py``), and prints the per-layer
metrics plus ``obs.tracing_overhead``.  Every output is checked; the
last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.

An *item* is one analyzer call on one program (batch) or one (task,
file) pair (``serve-edit``).  ``wall_s`` is one pass: the sum over items
of each item's median seconds; a ``serve-edit`` item mixes cache hits
and misses, so it takes the mean, which does not flip between the two.
For ``serve-edit`` a request is one daemon request.  A batch workload
is one job, as a user runs it: its request is one pass over its items,
and since it has no cache, every pass re-analyses its inputs from
scratch and counts as an edit request.

``exact_share`` is the share of results whose completeness is exact
(for lint: the modecheck and failcheck completeness), ``ok_share`` the
share of operations that neither raised nor failed their check.  They
count the good outcomes, not the bad ones, so that no end-to-end
metric is ever 0.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from expected import ROOT, ensure_src_path  # noqa: E402

WORKLOADS = ("tables-prop", "tables-depthk", "lint-corpus", "serve-edit")
#: serve requests per segment of a traced run (untraced, then traced):
#: one round per client
TRACED_REQUESTS = 288

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "item_s_geomean": "s",
    "table_space_bytes": "bytes",
    "peak_rss_mb": "MB",
    "exact_share": "ratio",
    "ok_share": "ratio",
    "requests_per_s": "1/s",
    "request_s_p50": "s",
    "request_s_p99": "s",
    "edit_request_s_p50": "s",
    "edit_request_s_p95": "s",
}


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))]


def per_item(records: list[dict], statistic) -> list[float]:
    by_item: dict = {}
    for record in records:
        by_item.setdefault(record["item"], []).append(record["seconds"])
    return [statistic(times) for times in by_item.values()]


def end_to_end(records, requests, setup_s, table_space, busy_s, extra_failed=0,
               extra_attempted=0, statistic=statistics.median) -> dict:
    medians = per_item(records, statistic)
    latencies = [r["seconds"] for r in requests]
    edits = [r["seconds"] for r in requests if r["edit"]]
    flags = [flag for r in records for flag in (r["exact"] if r["ok"] else [False])]
    attempted = len(records) + extra_attempted
    failed = sum(not r["ok"] for r in records) + extra_failed
    return {
        "setup_s": setup_s,
        "wall_s": sum(medians),
        "item_s_geomean": math.exp(statistics.fmean(math.log(m) for m in medians)),
        "table_space_bytes": table_space,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "exact_share": sum(flags) / len(flags),
        "ok_share": 1 - failed / attempted,
        "requests_per_s": len(requests) / busy_s,
        "request_s_p50": percentile(latencies, 0.50),
        "request_s_p99": percentile(latencies, 0.99),
        "edit_request_s_p50": percentile(edits, 0.50),
        "edit_request_s_p95": percentile(edits, 0.95),
    }, attempted, failed


# ----------------------------------------------------------------------
# batch workloads


def run_batch(workload: str, seed: int, seconds: float, trace: bool, expected):
    import batch
    import layers

    items = batch.seeded_items(workload, seed)
    captured = batch.Captured()
    hooks = layers.Hooks(captured)
    hooks.install_lint()
    try:
        if not trace:
            setup_s = batch.setup_seconds(workload)
            records = batch.measure(
                items, seconds,
                lambda kind, name: batch.run_item(kind, name, expected, captured))
            batch.check_table_space(records)
            passes = [
                {"seconds": sum(r["seconds"] for r in records[i:i + len(items)]),
                 "edit": True}
                for i in range(0, len(records), len(items))
            ]
            return end_to_end(records, passes, setup_s,
                              batch.table_space_per_pass(records),
                              sum(r["seconds"] for r in records))
        untraced = batch.measure(
            items, 0, lambda kind, name: batch.run_item(
                kind, name, expected, captured, repeat=False))
        return traced_batch(items, expected, captured, hooks, untraced)
    finally:
        hooks.uninstall()


def traced_batch(items, expected, captured, hooks, untraced):
    import cProfile

    import batch
    import layers
    from repro.bdd.propfn import global_manager

    tracer = layers.Tracer()
    hooks.tracer = tracer
    hooks.install_traced()
    acc = {"core.preprocess_s": 0.0, "core.analysis_s": 0.0,
           "core.collection_s": 0.0, "bdd.nodes": 0, "bdd.peak_nodes": 0,
           "bdd_hits": 0, "bdd_misses": 0, "done": 0, "total": 0, "tripped": 0}

    def on_result(kind, result):
        manager = global_manager()
        acc["bdd.nodes"] += manager.node_count()
        acc["bdd.peak_nodes"] = max(acc["bdd.peak_nodes"], manager.peak_nodes)
        acc["bdd_hits"] += manager.apply_cache_hits
        acc["bdd_misses"] += manager.apply_cache_misses
        if kind == "lint":
            for report in captured.failcheck_reports:
                acc["done"] += report.components_done
                acc["total"] += report.components_total
            for summary in captured.depthk_results:
                acc["tripped"] += len(summary.trip_kinds)
        else:
            for phase in ("preprocess", "analysis", "collection"):
                acc[f"core.{phase}_s"] += result.times[phase]

    profile = cProfile.Profile(builtins=False)
    profile.enable()
    try:
        traced = batch.measure(
            items, 0, lambda kind, name: batch.run_item(
                kind, name, expected, captured, tracer, on_result, repeat=False))
    finally:
        profile.disable()
    records = untraced + traced
    batch.check_table_space(records)
    inclusive = tracer.totals()
    engine = hooks.engine
    metrics = layer_defaults()
    metrics.update(layers.fold_profile([profile]))
    metrics.update({
        "engine.solve.s": inclusive.get("TabledEngine.solve", 0.0),
        "engine.tasks": engine["tasks"],
        "engine.resumptions": engine["resumptions"],
        "engine.answers": engine["answers"],
        "engine.answer_dedup_hits": engine["duplicate_answers"],
        "engine.answer_yield": ratio(engine["answers"],
                                     engine["answers"] + engine["duplicate_answers"]),
        "engine.table_space_bytes": engine["table_space_bytes"],
        "bdd.nodes": acc["bdd.nodes"],
        "bdd.peak_nodes": acc["bdd.peak_nodes"],
        "bdd.apply_cache_hit_ratio": ratio(acc["bdd_hits"],
                                           acc["bdd_hits"] + acc["bdd_misses"]),
        "core.groundness.s": inclusive.get("analyze_groundness", 0.0),
        "core.strictness.s": inclusive.get("analyze_strictness", 0.0),
        "core.depthk.s": inclusive.get("analyze_depthk", 0.0),
        "core.preprocess_s": acc["core.preprocess_s"],
        "core.analysis_s": acc["core.analysis_s"],
        "core.collection_s": acc["core.collection_s"],
        "analysis.check_modes.s": inclusive.get("check_modes", 0.0),
        "analysis.failcheck.s": inclusive.get("failcheck_program", 0.0),
        "analysis.failcheck.component_ratio": ratio(acc["done"], acc["total"]),
        "analysis.failcheck.tripped_components": acc["tripped"],
        "obs.tracing_overhead": sum(r["seconds"] for r in traced)
        / sum(r["seconds"] for r in untraced) - 1,
    })
    attempted = len(records)
    failed = sum(not r["ok"] for r in records)
    return metrics, attempted, failed


def ratio(numerator, denominator) -> float:
    return numerator / denominator if denominator else 0.0


# ----------------------------------------------------------------------
# serve-edit


def run_serve(seed: int, seconds: float, trace: bool, expected):
    import serve_edit

    workdir = ROOT / ".perfbench-work"
    workdir.mkdir(exist_ok=True)
    workload = serve_edit.ServeEdit(seed, expected, workdir)
    try:
        if not trace:
            setups = [workload.setup_once() for _ in range(3)]
            records, elapsed = workload.measure(seconds)
            return end_to_end(records, records, statistics.median(setups),
                              workload.table_space, elapsed,
                              workload.failed_setup, workload.setup_requests,
                              statistics.fmean)
        workload.setup_once()
        return traced_serve(workload)
    finally:
        workload.close()
        try:
            workdir.rmdir()
        except OSError:
            pass


def traced_serve(workload):
    import layers

    untraced, untraced_s = workload.measure(0, TRACED_REQUESTS)
    registry = workload.daemon.observer.registry
    before = registry.snapshot()["counters"]
    cache = workload.daemon.cache
    dirty_before = cache.dirty_components
    tracer = layers.Tracer()
    hooks = layers.Hooks(tracer=tracer)
    hooks.install_traced()
    daemon = workload.daemon
    original = daemon.handle

    def handle(request):
        with tracer.span("daemon.handle"):
            return original(request)

    daemon.handle = handle
    profiles: list = []
    try:
        traced, traced_s = workload.measure(0, TRACED_REQUESTS, profilers=profiles)
    finally:
        del daemon.handle
        hooks.uninstall()
    snapshot = registry.snapshot()
    gauges = snapshot["gauges"]

    def delta(name):
        return snapshot["counters"].get(name, 0) - before.get(name, 0)

    inclusive = tracer.totals()
    submits = hooks.submits
    metrics = layer_defaults()
    metrics.update(layers.fold_profile(profiles))
    answers = delta("engine.tabled.answers")
    dups = delta("engine.tabled.answer_dedup_hits")
    hits = gauges.get("bdd.apply_cache_hits", 0)
    misses = gauges.get("bdd.apply_cache_misses", 0)
    cache_hits = delta("serve.cache.hits")
    metrics.update({
        "engine.tasks": delta("engine.tabled.tasks"),
        "engine.resumptions": delta("engine.tabled.resumptions"),
        "engine.answers": answers,
        "engine.answer_dedup_hits": dups,
        "engine.answer_yield": ratio(answers, answers + dups),
        "bdd.nodes": gauges.get("bdd.nodes", 0),
        "bdd.peak_nodes": gauges.get("bdd.peak_nodes", 0),
        "bdd.apply_cache_hit_ratio": ratio(hits, hits + misses),
        "serve.cache.hit_ratio": ratio(
            cache_hits, cache_hits + delta("serve.cache.misses")),
        "serve.cache.probe_s": inclusive.get("ResultCache.probe", 0.0),
        "serve.queue_s": sum(queue for _, queue, _ in submits),
        "serve.dispatch_s": sum(span - queue - worker for span, queue, worker in submits),
        "serve.worker_s": sum(worker for _, _, worker in submits),
        "serve.retries": delta("serve.retries"),
        "serve.shed": delta("serve.replies.shed"),
        "serve.dirty_components": cache.dirty_components - dirty_before,
        "obs.tracing_overhead": (traced_s / len(traced))
        / (untraced_s / len(untraced)) - 1,
    })
    records = untraced + traced
    attempted = len(records) + workload.setup_requests
    failed = sum(not r["ok"] for r in records) + workload.failed_setup
    return metrics, attempted, failed


# ----------------------------------------------------------------------
# per-layer metric names and units


PER_LAYER_UNITS = {
    "prolog.load_program.calls": "count",
    "prolog.load_program.s": "s",
    "terms.unify.calls": "count",
    "terms.match.calls": "count",
    "terms.canonical.calls": "count",
    "terms.variant_key.calls": "count",
    "terms.walk.calls": "count",
    "terms.rename_apart.calls": "count",
    "terms.term_to_str.calls": "count",
    "terms.self_s": "s",
    "engine.solve.s": "s",
    "engine.tasks": "count",
    "engine.resumptions": "count",
    "engine.answers": "count",
    "engine.answer_dedup_hits": "count",
    "engine.answer_yield": "ratio",
    "engine.table_space_bytes": "bytes",
    "engine.self_s": "s",
    "bdd.nodes": "count",
    "bdd.peak_nodes": "count",
    "bdd.apply_cache_hit_ratio": "ratio",
    "bdd.self_s": "s",
    "core.groundness.s": "s",
    "core.strictness.s": "s",
    "core.depthk.s": "s",
    "core.preprocess_s": "s",
    "core.analysis_s": "s",
    "core.collection_s": "s",
    "analysis.check_modes.s": "s",
    "analysis.failcheck.s": "s",
    "analysis.failcheck.component_ratio": "ratio",
    "analysis.failcheck.tripped_components": "count",
    "serve.cache.hit_ratio": "ratio",
    "serve.cache.probe_s": "s",
    "serve.queue_s": "s",
    "serve.dispatch_s": "s",
    "serve.worker_s": "s",
    "serve.retries": "count",
    "serve.shed": "count",
    "serve.dirty_components": "count",
    "obs.tracing_overhead": "ratio",
}


def layer_defaults() -> dict:
    """Every per-layer metric at zero: a layer the workload never enters."""
    return {name: 0 for name in PER_LAYER_UNITS}


# ----------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"no analyzer sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    ensure_src_path()
    from expected import load_expected

    expected = load_expected()
    if args.workload == "serve-edit":
        metrics, attempted, failed = run_serve(
            args.seed, args.seconds, bool(args.trace), expected)
    else:
        metrics, attempted, failed = run_batch(
            args.workload, args.seed, args.seconds, bool(args.trace), expected)
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
