"""Corpus fan-out: whole-file analyses across processes.

:func:`map_corpus` (:mod:`repro.parallel.corpus`) runs one whole-file
analysis per task in a process pool, which is where multi-core
throughput comes from; per-worker metrics snapshots are folded back
into the session observer so the merged registry equals a serial
run's.  Within one program every engine evaluates serially.
"""

from repro.parallel.corpus import (
    TASKS,
    CorpusResult,
    map_corpus,
    resolve_jobs,
)

__all__ = [
    "TASKS",
    "CorpusResult",
    "map_corpus",
    "resolve_jobs",
]
