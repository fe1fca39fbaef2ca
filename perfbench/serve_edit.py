"""``serve-edit``: editor traffic against an in-process analysis daemon.

An :class:`~repro.serve.AnalysisDaemon` with default settings (a pool of
two workers) serves two closed-loop client threads.  Each client owns
half of the twelve corpus files (temp copies; ``CLIENT_FILES`` splits
them into halves of about equal analysis cost) and waits for every
reply before it sends the next request, as an editor integration does.
Tasks are drawn by seed from ``groundness``, ``modecheck`` and ``lint``
without failcheck.  Before a seeded quarter of the requests the client
rewrites the file first:

* half of the rewrites are variant-only (variables renamed, two
  adjacent predicates swapped, a comment added), which must hit the
  cache;
* the other half change one clause of one predicate (a no-op goal
  ``k = k`` is appended to a rule, ``k`` the client's edit count, so
  every edit gives new text), which must miss with a non-empty dirty
  set.

The no-op edit keeps every analysis result equal to the original
file's, so each reply is checked against the same expected payload.
Clients own disjoint files, so each client's request/edit sequence is a
pure function of the seed, whatever the interleaving.  Tasks, files and
rewrites are drawn by seed in balanced rounds (see :func:`client_ops`),
so every seed sends the same mix.
"""

from __future__ import annotations

import random
import shutil
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from expected import SERVE_TASKS, check_serve, prolog_path

#: closed-loop clients; the machine this benchmark targets has 2 CPUs
CLIENTS = 2
#: a run serves at least this many requests, so p99 has 10 samples beyond it
MIN_REQUESTS = 1000
EDIT_SHARE = 0.25


class ProgramText:
    """Renders a corpus file in one semantic state and one variant style.

    ``edit`` is ``None`` or ``(clause_index, k)``: clause ``clause_index``
    gets the no-op goal ``k = k``.  ``style`` 0 keeps the clauses as they
    are; each other style renames every variable, swaps one adjacent
    pair of predicate blocks and adds a comment, all chosen from
    ``style``.  The original file, unedited in style 0, is its own text;
    every other version is written back from the parsed clauses.
    """

    def __init__(self, source: str):
        from repro.prolog.parser import parse_program

        self.source = source
        self.clauses = parse_program(source)
        # rules only: turning a fact into a rule changes what lint
        # checks (a rule's head variables must be range-restricted)
        self.editable = [
            index for index, clause in enumerate(self.clauses)
            if clause.head != ":-" and not clause.is_fact()
        ]
        # predicate blocks: maximal runs of clauses of one predicate;
        # a directive is a block of its own
        self.blocks: list[list[int]] = []
        for index, clause in enumerate(self.clauses):
            last = self.blocks[-1][0] if self.blocks else None
            if (last is not None and clause.head != ":-"
                    and self.clauses[last].indicator == clause.indicator):
                self.blocks[-1].append(index)
            else:
                self.blocks.append([index])
        self.swappable = [
            b for b in range(len(self.blocks) - 1)
            if self.clauses[self.blocks[b][0]].head != ":-"
            and self.clauses[self.blocks[b + 1][0]].head != ":-"
        ]

    def render(self, edit=None, style: int = 0) -> str:
        from repro.prolog.parser import Clause
        from repro.terms.term import Struct

        if edit is None and style == 0:
            return self.source
        clauses = list(self.clauses)
        if edit is not None:
            index, k = edit
            clause = clauses[index]
            clauses[index] = Clause(
                clause.head, Struct(",", (clause.body, Struct("=", (k, k)))))
        order = list(range(len(self.blocks)))
        comment = None
        if style:
            rng = random.Random(style)
            if self.swappable:
                b = rng.choice(self.swappable)
                order[b], order[b + 1] = order[b + 1], order[b]
            clauses = [
                Clause(_renamed(c.head, f"_{style}"), _renamed(c.body, f"_{style}"))
                for c in clauses
            ]
            comment = rng.randrange(len(clauses))
        lines = []
        for index in (i for b in order for i in self.blocks[b]):
            if index == comment:
                lines.append(f"% variant rewrite {style}")
            lines.append(_write(clauses[index]))
        return "\n".join(lines) + "\n"


def _renamed(term, suffix: str):
    """``term`` with every named variable renamed by ``suffix``."""
    from repro.terms.term import Struct, Var

    if isinstance(term, Var):
        return Var(term.id, term.name + suffix) if term.name not in (None, "_") else term
    if isinstance(term, Struct):
        return Struct(term.functor, tuple(_renamed(a, suffix) for a in term.args))
    return term


def _write(clause) -> str:
    from repro.prolog.writer import write_clause, write_term

    if clause.head == ":-":
        return ":- " + write_term(clause.body, 1199) + "."
    return write_clause(clause)


@dataclass(frozen=True)
class Op:
    """One client step: an optional rewrite, then one request."""

    task: str
    file: str
    #: None, "variant" or "clause"
    rewrite: str | None
    #: for a clause rewrite: picks the clause among the editable ones
    choice: int


#: the corpus split between the clients into halves of about equal
#: analysis cost, so neither client's share of the traffic is heavier
CLIENT_FILES = (
    ["press2", "read", "peep", "plan", "gabriel", "pg"],
    ["disj", "kalah", "press1", "cs", "qsort", "queens"],
)
#: a round requests every (task, file) pair of a client this many times
ROUND_PASSES = 8


def client_ops(seed: int, client: int):
    """The endless request/edit sequence of one client (a generator).

    The sequence is a series of seeded rounds of ``round_length()`` ops.
    In a round each (task, file) pair is requested ``ROUND_PASSES``
    times, and a quarter of those requests come right after a rewrite
    of the file: one after a one-clause edit, the rest after
    variant-only rewrites.  The seed orders the round and places the
    rewrites, so every whole round sends the same mix.
    """
    rng = random.Random(f"{seed}:client:{client}")
    rewrites_per_pair = round(ROUND_PASSES * EDIT_SHARE)
    while True:
        ops = []
        for name in CLIENT_FILES[client]:
            for task in sorted(SERVE_TASKS):
                rewrites = ["clause"] + ["variant"] * (rewrites_per_pair - 1)
                rewrites += [None] * (ROUND_PASSES - len(rewrites))
                rng.shuffle(rewrites)
                ops += [Op(task, name, rewrite, rng.randrange(1 << 30))
                        for rewrite in rewrites]
        rng.shuffle(ops)
        yield from ops


def round_length(client: int) -> int:
    return len(SERVE_TASKS) * len(CLIENT_FILES[client]) * ROUND_PASSES


class _Client:
    """One client's sequence and its model of the files and the cache."""

    def __init__(self, seed: int, index: int):
        files = CLIENT_FILES[index]
        self.index = index
        self.ops = client_ops(seed, index)
        #: per file: None (original) or (edited clause, edit number)
        self.state = {name: None for name in files}
        self.style = {name: 0 for name in files}
        #: per (task, file): the file state the daemon's entry was made from
        self.cached = {(task, name): None for task in SERVE_TASKS for name in files}
        self.edits = 0


def _recording_cache():
    from repro.serve import ResultCache

    class RecordingCache(ResultCache):
        """Remembers each thread's last probe, so a client can check it,
        and counts the dirty components of every probe."""

        def __init__(self):
            super().__init__()
            self._last = threading.local()
            self._lock = threading.Lock()
            self.dirty_components = 0

        def probe(self, key, program):
            result = super().probe(key, program)
            self._last.probe = result
            with self._lock:
                self.dirty_components += len(result.dirty)
            return result

        def last_probe(self):
            return getattr(self._last, "probe", None)

    return RecordingCache()


class ServeEdit:
    """The daemon, its working copies, and the two clients."""

    def __init__(self, seed: int, expected: dict, workdir: Path):
        self.seed = seed
        self.expected = expected
        self.names = sorted(CLIENT_FILES[0] + CLIENT_FILES[1])
        self.texts = {n: ProgramText(prolog_path(n).read_text()) for n in self.names}
        self.tmp = Path(tempfile.mkdtemp(prefix="serve-", dir=workdir))
        self.daemon = None
        self.clients: list[_Client] | None = None
        self.table_space = 0
        self.setup_requests = 0
        self.failed_setup = 0

    # -- set-up --------------------------------------------------------

    def path(self, name: str) -> str:
        return str(self.tmp / f"{name}.pl")

    def _make_daemon(self):
        from repro.serve import AnalysisDaemon
        from repro.terms.term import reset_var_counter

        # workers fork from this process: start their fresh-variable
        # counters from one value so their table bytes repeat
        reset_var_counter()
        return AnalysisDaemon(cache=_recording_cache())

    def setup_once(self) -> float:
        """Start a daemon on fresh copies and warm its cache; returns seconds."""
        if self.daemon is not None:
            self.daemon.close()
            self.daemon = None
        self.clients = None
        for name in self.names:
            Path(self.path(name)).write_text(self.texts[name].render())
        started = time.perf_counter()
        self.daemon = self._make_daemon()
        # groundness first and one at a time: the two workers alternate
        # in a fixed order, so the replies' table bytes repeat exactly
        records = []
        table_space = 0
        for name in self.names:
            record, reply = self._request("groundness", name, name)
            records.append(record)
            if record["ok"]:
                table_space += reply["payload"]["table_space"]
        threads = [
            threading.Thread(target=self._warm, args=(files, records))
            for files in CLIENT_FILES
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - started
        self.table_space = table_space
        self.setup_requests += len(records)
        self.failed_setup += sum(not record["ok"] for record in records)
        return elapsed

    def _warm(self, files: list[str], records: list) -> None:
        for name in files:
            for task in sorted(SERVE_TASKS):
                if task != "groundness":
                    records.append(self._request(task, name, name)[0])

    def _request(self, task: str, name: str, request_id) -> tuple[dict, dict]:
        """Send one request and check its reply: (record, reply)."""
        from repro.serve import check_reply

        started = time.perf_counter()
        reply = self.daemon.handle({
            "id": request_id, "task": task, "path": self.path(name),
            "options": dict(SERVE_TASKS[task]),
        })
        seconds = time.perf_counter() - started
        try:
            kind = check_reply(reply)
            ok = kind != "error" and check_serve(
                task, reply["payload"], self.expected["serve"][task][name])
        except Exception:  # noqa: BLE001 — any contract breach is a failure
            kind, ok = "error", False
        degraded = kind == "degraded" or (
            ok and reply["payload"].get("completeness", "exact") != "exact")
        return {"item": f"{task}:{name}", "seconds": seconds, "ok": ok,
                "exact": [ok and not degraded], "degraded": degraded,
                "cached": bool(reply.get("cached"))}, reply

    # -- measurement ---------------------------------------------------

    def measure(self, seconds: float, min_requests: int | None = None,
                profilers: list | None = None) -> tuple[list[dict], float]:
        """Run both clients for whole rounds until both limits are met.

        Each client stops at the end of the first round by which it has
        sent its share of ``min_requests`` and ``seconds`` have passed,
        so every run sends whole rounds.  Successive calls continue each
        client's sequence.  With a ``profilers`` list, each client
        thread profiles itself with ``cProfile`` (which sees only the
        thread that enabled it) and appends its profile there.
        """
        if min_requests is None:
            min_requests = MIN_REQUESTS
        if self.clients is None:
            self.clients = [_Client(self.seed, c) for c in range(CLIENTS)]
        lock = threading.Lock()
        records: list[dict] = []
        started = time.perf_counter()
        share = -(-min_requests // CLIENTS)

        def client(state: "_Client") -> None:
            profile = None
            if profilers is not None:
                import cProfile

                profile = cProfile.Profile(builtins=False)
                profile.enable()
            try:
                sent = 0
                length = round_length(state.index)
                while sent % length or sent < share or (
                        time.perf_counter() - started < seconds):
                    record = self._step(state)
                    sent += 1
                    with lock:
                        records.append(record)
            finally:
                if profile is not None:
                    profile.disable()
                    with lock:
                        profilers.append(profile)

        threads = [threading.Thread(target=client, args=(c,)) for c in self.clients]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return records, time.perf_counter() - started

    def _step(self, client: "_Client") -> dict:
        """One op: rewrite the file if the op says so, request, check."""
        op = next(client.ops)
        text = self.texts[op.file]
        if op.rewrite == "variant":
            client.style[op.file] += 1
        elif op.rewrite == "clause":
            client.edits += 1
            clause = text.editable[op.choice % len(text.editable)]
            client.state[op.file] = (clause, client.edits)
        if op.rewrite is not None:
            Path(self.path(op.file)).write_text(
                text.render(client.state[op.file], client.style[op.file]))
        record, _ = self._request(op.task, op.file, client.index)
        expect_hit = client.cached[(op.task, op.file)] == client.state[op.file]
        probe = self.daemon.cache.last_probe()
        if record["ok"]:
            if record["cached"] != expect_hit:
                record["ok"] = False
            elif not expect_hit and not (probe and probe.dirty):
                record["ok"] = False
        if record["ok"] and not record["degraded"]:
            client.cached[(op.task, op.file)] = client.state[op.file]
        record["edit"] = op.rewrite == "clause"
        return record

    def close(self) -> None:
        if self.daemon is not None:
            self.daemon.close()
            self.daemon = None
        shutil.rmtree(self.tmp, ignore_errors=True)
