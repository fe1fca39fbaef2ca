"""The benchmark's own tests: ``python3 -m pytest perfbench -q``.

They check the benchmark, not the analyzer: that every metric
``BENCHMARK.json`` names is printed for every workload, that the
``serve-edit`` sequence is a function of the seed, that the rewrites
mean what they claim, and that table bytes repeat between passes.
"""

from __future__ import annotations

import io
import itertools
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import batch  # noqa: E402
import run  # noqa: E402
import serve_edit  # noqa: E402
from expected import ROOT, ensure_src_path, load_expected, prolog_path  # noqa: E402

ensure_src_path()

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = ["cs", "disj", "gabriel", "kalah", "peep", "pg", "plan", "press1",
         "press2", "qsort", "queens", "read"]


def _run(argv) -> dict:
    out = io.StringIO()
    with redirect_stdout(out):
        assert run.main(argv) == 0
    return json.loads(out.getvalue().strip().splitlines()[-1])


def test_benchmark_json_matches_the_runner():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == \
        run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == \
        run.PER_LAYER_UNITS


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_printed(monkeypatch, workload, trace):
    # a shortened run: two small items, or a few dozen requests
    monkeypatch.setitem(batch.ITEMS, "tables-prop",
                        [("groundness", "qsort"), ("strictness", "eu")])
    monkeypatch.setitem(batch.ITEMS, "tables-depthk",
                        [("depthk", "qsort"), ("depthk", "pg")])
    monkeypatch.setitem(batch.ITEMS, "lint-corpus",
                        [("lint", "qsort"), ("lint", "pg")])
    monkeypatch.setattr(serve_edit, "MIN_REQUESTS", 40)
    monkeypatch.setattr(run, "TRACED_REQUESTS", 20)
    result = _run(["--workload", workload, "--seed", "3", "--seconds", "0",
                   "--trace", str(trace)])
    kind = "per_layer" if trace else "end_to_end"
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    for metric in BENCHMARK[kind]:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert isinstance(printed["value"], (int, float))
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] != 0
                   for m in BENCHMARK["end_to_end"])


def test_serve_sequence_is_a_function_of_the_seed():
    def sequence(seed):
        return [
            list(itertools.islice(serve_edit.client_ops(seed, c), 400))
            for c in range(serve_edit.CLIENTS)
        ]

    first, again, other = sequence(11), sequence(11), sequence(12)
    assert first == again
    assert first != other
    files = serve_edit.CLIENT_FILES
    assert sorted(files[0] + files[1]) == sorted(NAMES)
    for client, ops in enumerate(first):
        one_round = ops[:serve_edit.round_length(client)]
        pairs = {(op.task, op.file) for op in one_round}
        assert len(pairs) * serve_edit.ROUND_PASSES == len(one_round)
        for pair in pairs:
            rewrites = [op.rewrite for op in one_round if (op.task, op.file) == pair]
            assert rewrites.count("clause") == 1
            assert len(rewrites) - rewrites.count(None) == len(rewrites) // 4


@pytest.mark.parametrize("name", NAMES)
def test_rewrites_are_variant_or_one_clause(name):
    from repro.prolog.program import load_program
    from repro.serve import ResultCache

    text = serve_edit.ProgramText(prolog_path(name).read_text())
    assert text.render() == prolog_path(name).read_text()
    cache = ResultCache()
    cache.store("k", cache.probe("k", load_program(text.render())), {})
    for style in (1, 2, 3):
        assert cache.probe("k", load_program(text.render(None, style))).hit
    for pick in (0, len(text.editable) // 2, len(text.editable) - 1):
        edit = (text.editable[pick], 7)
        probe = cache.probe("k", load_program(text.render(edit, 5)))
        assert not probe.hit and probe.changed and probe.dirty


@pytest.mark.parametrize("name", NAMES)
def test_one_clause_edit_keeps_every_result(tmp_path, name):
    from repro.parallel.corpus import TASKS

    expected = load_expected()["serve"]
    text = serve_edit.ProgramText(prolog_path(name).read_text())
    path = tmp_path / f"{name}.pl"
    for index in text.editable:
        path.write_text(text.render((index, 9), 4))
        for task, options in serve_edit.SERVE_TASKS.items():
            payload = TASKS[task](str(path), dict(options))
            assert serve_edit.check_serve(task, payload, expected[task][name])


@pytest.mark.parametrize("item", [("groundness", "disj"), ("depthk", "peep"),
                                  ("strictness", "eu"), ("lint", "plan")])
def test_table_space_repeats_between_passes(item):
    import layers

    expected = load_expected()
    captured = batch.Captured()
    hooks = layers.Hooks(captured)
    hooks.install_lint()
    try:
        records = [batch.run_item(*item, expected, captured) for _ in range(2)]
    finally:
        hooks.uninstall()
    assert all(record["ok"] for record in records)
    assert records[0]["table_space"] == records[1]["table_space"] > 0


def test_degraded_depthk_check_accepts_sound_and_rejects_lost_answers():
    from repro.benchdata.loader import load_prolog_benchmark
    from repro.core import analyze_depthk
    from repro.runtime.budget import Budget

    expected = load_expected()["depthk"]["read"]
    program = load_prolog_benchmark("read")
    result = analyze_depthk(program, depth=2,
                            budget=Budget(tasks=batch.DEPTHK_TASKS))
    assert result.completeness == "widened"
    # the widened run calls can_start_term with a variable, not '$gamma':
    # its list-shaped answers cover what the exact '$gamma' answer denotes
    assert batch.check_depthk(result, expected, program)
    result.predicates[("can_start_term", 1)].answers.clear()
    assert not batch.check_depthk(result, expected, program)
