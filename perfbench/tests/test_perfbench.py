"""Tests of the benchmark's own code; the library's suite lives in tests/.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import sys
import time

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import Job, table  # noqa: E402

CHAIN3 = "fixtures/scalar-twist-3chain.json"
GS3 = Job(("cohomology", CHAIN3, "--complex", "gs", "--max-degree", "3"),
          CHAIN3, 0, table([1, 0, 0, 0]))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")


def _deadline():
    return time.monotonic() + 120


def _snapshot():
    """Every attribute of every prestacks module and class, by identity."""
    snap = {}
    for mod_name, module in list(sys.modules.items()):
        if not mod_name.startswith("prestacks"):
            continue
        for name, value in vars(module).items():
            snap[(mod_name, name)] = value
            if isinstance(value, type) and value.__module__ == mod_name:
                for attr, member in vars(value).items():
                    snap[(mod_name, name, attr)] = member
    return snap


def test_traced_job_prints_the_same_table(tmp_path):
    plain = run.run_child(GS3, _deadline())
    spans = str(tmp_path / "spans.json")
    traced = run.run_child(GS3, _deadline(), spans=spans)
    assert run.failure(GS3, plain) is None
    assert run.failure(GS3, traced) is None
    assert traced["stdout"] == plain["stdout"]
    with open(spans) as fh:
        names = {s[2] for s in json.load(fh)["spans"]}
    assert {"gscomplex.matrix", "combinatorics.shuffles", "linalg.rank"} <= names


def test_uninstall_restores_every_wrapped_attribute():
    from prestacks import cli, gscomplex
    from prestacks.combinatorics import enumerate_shuffles

    before = _snapshot()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        # the import site in gscomplex is wrapped, not only the defining module
        assert gscomplex.enumerate_shuffles is not enumerate_shuffles
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert cli.main(list(GS3.argv)) == 0
    finally:
        tracer.uninstall()
    assert out.getvalue() == GS3.expected_stdout
    assert tracer.counts["gscomplex.contrib.terms"] > 0
    after = _snapshot()
    changed = [k for k, v in before.items() if after.get(k) is not v]
    assert changed == []


def test_self_time_of_nested_spans():
    spans = [
        (0, -1, "a", 0.0, 10.0),
        (1, 0, "b", 1.0, 4.0),
        (2, 1, "c", 2.0, 3.0),
        (3, 0, "b", 5.0, 6.0),
        (4, -1, "c", 11.0, 11.5),
    ]
    own, calls, covered = tracing.self_times(spans)
    assert own == {"a": 6.0, "b": 3.0, "c": 1.5}
    assert calls == {"a": 1, "b": 2, "c": 2}
    assert covered == 10.5


def test_tracer_nests_spans_by_call():
    ticks = iter(range(100))
    tracer = tracing.Tracer(clock=lambda: next(ticks))

    def inner():
        return 1

    inner_w = tracer._timed(inner, "inner", None)
    outer_w = tracer._timed(lambda: inner_w() + inner_w(), "outer", None)
    assert outer_w() == 2
    own, calls, covered = tracing.self_times(tracer.spans)
    assert calls == {"outer": 1, "inner": 2}
    assert own == {"outer": 3, "inner": 2}   # outer spans ticks 0..5
    assert covered == 5


def test_metric_names_and_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = [n for n, _ in run.END_TO_END + run.PER_LAYER] + list(workloads.WORKLOADS)
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names), [n for n in names if not NAME.match(n)]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert sorted(run.Tally().per_layer()) == [n for n, _ in run.PER_LAYER]


def test_wrong_expected_table_counts_as_failed():
    wrong = Job(GS3.argv, GS3.input, 0, table([2, 0, 0, 0]))
    exits = Job(("cohomology", "no-such-file.json"), CHAIN3, 0, table([1]))
    raises = Job(("export-matrix", CHAIN3, "--degree", "1", "--out", "no/such/dir"),
                 CHAIN3, 0, "")
    tally = run.Tally()
    tally.run_jobs([GS3, wrong, exits, raises], _deadline())
    assert tally.attempted == 4
    assert len(tally.failures) == 3
    assert "FileNotFoundError" in tally.failures[-1]
    assert len(tally.failures) / tally.attempted > 0
