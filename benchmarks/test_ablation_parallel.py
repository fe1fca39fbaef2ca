"""E12 — corpus fan-out: whole-file analyses across processes.

``repro.parallel.map_corpus`` runs whole-file analyses in worker
*processes*; that is where multi-core throughput comes from.  On a
multi-core box linting the benchmark corpus with ``jobs=4`` should beat
the serial sweep by >= 1.5x (asserted only when the machine actually
has >= 4 CPUs; the speedup is recorded either way).

The ``variant_key`` ground-term memo rides along: it keeps the fact-key
dedup of semi-naive evaluation and answer tables cheap, and its
micro-benchmark row documents the cached/uncached gap.
"""

import os
import time
from pathlib import Path

import pytest

import repro.benchdata as benchdata
from repro.parallel import map_corpus
from repro.terms import variant_key
from repro.terms.term import Struct

CORPUS_DIR = Path(benchdata.__file__).parent / "prolog"


def _corpus_paths():
    return sorted(str(p) for p in CORPUS_DIR.glob("*.pl"))


def _corpus_lines():
    return sum(
        len(Path(p).read_text().splitlines()) for p in _corpus_paths()
    )


@pytest.mark.table("parallel")
def test_corpus_fanout_speedup(benchmark, bench_record):
    """Serial vs ``jobs=4`` lint sweep over the 12 benchmark programs."""
    paths = _corpus_paths()

    t0 = time.perf_counter()
    serial = map_corpus(paths, task="lint", jobs=1)
    serial_seconds = time.perf_counter() - t0

    def run():
        return map_corpus(paths, task="lint", jobs=4)

    # timed manually (not via benchmark.stats) so the sanity run with
    # --benchmark-disable still exercises and records everything
    t0 = time.perf_counter()
    fanned = benchmark.pedantic(run, rounds=1, iterations=1)
    fanned_seconds = time.perf_counter() - t0

    assert [r.error for r in serial] == [r.error for r in fanned] == [None] * len(paths)
    strip = lambda p: {k: v for k, v in p.items() if k != "timings"}  # noqa: E731
    assert [strip(r.payload) for r in serial] == [strip(r.payload) for r in fanned]

    speedup = serial_seconds / fanned_seconds if fanned_seconds else 0.0
    cpus = os.cpu_count() or 1
    benchmark.extra_info.update(
        {
            "serial_seconds": round(serial_seconds, 4),
            "jobs4_seconds": round(fanned_seconds, 4),
            "speedup": round(speedup, 2),
            "cpus": cpus,
        }
    )
    lines = _corpus_lines()
    for name, seconds, jobs in (
        ("corpus_serial", serial_seconds, 1),
        ("corpus_jobs4", fanned_seconds, 4),
    ):
        bench_record(
            "parallel",
            {
                "name": name,
                "lines": lines,
                "preprocess": 0.0,
                "analysis": seconds,
                "collection": 0.0,
                "total": seconds,
                "table_space": 0,
                "extra": {"jobs": jobs, "speedup": round(speedup, 2),
                          "cpus": cpus},
            },
        )
    if cpus >= 4:
        assert speedup >= 1.5, (
            f"corpus fan-out speedup {speedup:.2f}x < 1.5x on {cpus} CPUs"
        )


@pytest.mark.table("parallel")
def test_variant_key_memo_micro(benchmark, bench_record):
    """Ground-term key memoization: rekeying a stored fact set is the
    semi-naive inner loop's fixed cost; the cache turns the repeated
    tree walks into one attribute read per term."""
    facts = [
        Struct("p", (Struct("s", (Struct("s", (i, "a")), "b")), i % 7))
        for i in range(500)
    ]

    def uncached():
        for fact in facts:
            fact._vkey = None
            fact.args[0]._vkey = None
            fact.args[0].args[0]._vkey = None
        return [variant_key(f) for f in facts]

    t0 = time.perf_counter()
    baseline_keys = uncached()
    uncached_seconds = time.perf_counter() - t0

    [variant_key(f) for f in facts]  # warm the caches

    def cached():
        return [variant_key(f) for f in facts]

    keys = benchmark.pedantic(cached, rounds=3, iterations=5)
    t0 = time.perf_counter()
    for _ in range(5):
        cached()
    cached_seconds = (time.perf_counter() - t0) / 5
    assert keys == baseline_keys
    assert all(f._vkey is not None for f in facts)
    ratio = uncached_seconds / cached_seconds if cached_seconds else 0.0
    benchmark.extra_info.update(
        {
            "uncached_seconds": round(uncached_seconds, 6),
            "cached_seconds": round(cached_seconds, 6),
            "speedup": round(ratio, 1),
        }
    )
    bench_record(
        "parallel",
        {
            "name": "variant_key_memo",
            "lines": len(facts),
            "preprocess": 0.0,
            "analysis": cached_seconds,
            "collection": 0.0,
            "total": cached_seconds,
            "table_space": 0,
            "extra": {
                "uncached_seconds": round(uncached_seconds, 6),
                "speedup": round(ratio, 1),
            },
        },
    )
