import importlib.util
import os

import pytest

_PATH = os.path.join(os.path.dirname(__file__), "..", "scripts", "bench_pairs.py")
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

WIDE_PARENT = [1.0, 1.5, 0.7, 1.3, 0.9]  # quartiles 0.9 and 1.3: 40 % of the median


def test_summarize_a_clear_gain():
    s = bench_pairs.summarize([1.00, 1.02, 0.98, 1.01, 0.99], [0.80, 0.82, 0.79, 0.81, 0.80],
                              0.25, True)
    assert s == {
        "parent_median": 1.0,
        "parent_iqr": [0.99, 1.01],
        "parent_min": 0.98,
        "change_median": 0.8,
        "change_iqr": [0.8, 0.81],
        "change_min": 0.79,
        "pair_ratios": [0.8, 0.8039, 0.8061, 0.802, 0.8081],
        "change_lower_pairs": 5,
        "change_vs_parent": -0.2,
        "within_bound": True,
        "resolved": True,
        "meets_gain_rule": True,
    }


@pytest.mark.parametrize("change,resolved", [
    ([0.95, 1.2, 0.8, 1.25, 1.0], False),  # inside the parent's spread
    ([0.5, 0.6, 0.55, 0.65, 0.6], True),   # every run below every parent run
    ([0.5, 0.6, 0.55, 0.65, 0.7], False),  # one run ties the parent's best
])
def test_summarize_resolves_a_wide_parent_only_by_separation(change, resolved):
    s = bench_pairs.summarize(WIDE_PARENT, change, 0.25, True)
    assert s["parent_iqr"] == [0.9, 1.3] and s["parent_min"] == 0.7
    assert s["resolved"] is resolved


def test_summarize_when_higher_is_better():
    s = bench_pairs.summarize([10, 20, 15, 12], [25, 30, 21, 22], 0.25, False)
    assert s["resolved"] and s["within_bound"] and s["change_lower_pairs"] == 0
    assert s["pair_ratios"] == [2.5, 1.5, 1.4, 1.8333]
    s = bench_pairs.summarize([10, 20, 15, 12], [7, 15, 11, 9], 0.25, False)
    assert not s["resolved"] and not s["within_bound"] and s["change_min"] == 7


def test_src_lines_counts_the_python_files_under_src(tmp_path):
    pkg = tmp_path / "src" / "pkg"
    (pkg / "sub").mkdir(parents=True)
    (pkg / "a.py").write_text("one\ntwo\nthree\n")
    (pkg / "sub" / "b.py").write_text("four\nfive")  # no newline at the end
    (pkg / "notes.txt").write_text("not\ncounted\n")
    (tmp_path / "top.py").write_text("outside src\n")
    assert bench_pairs.src_lines(str(tmp_path)) == 4
    assert bench_pairs.src_lines(bench_pairs.ROOT) > 0


def _report(spawn, setup, wall, cpu, rss_kb):
    return {"spawn": spawn, "ready": spawn + setup, "done": spawn + setup + wall,
            "cpu_s": cpu, "rss_kb": rss_kb, "failure": None}


def test_repetition_metrics_are_perfbench_s():
    reports = [_report(0.0, 0.2, 1.0, 0.9, 20480), _report(5.0, 0.4, 0.5, 0.5, 10240),
               _report(9.0, 0.3, 0.25, 0.25, 30720)]
    m = bench_pairs.repetition_metrics(reports)
    assert m == pytest.approx({"setup_s": 0.3, "wall_s": 1.75, "cpu_s": 1.65,
                               "peak_rss_mb": 30.0})


def test_job_mode_alternates_the_sides_job_by_job(monkeypatch):
    calls = []

    def fake_run_job(checkout, job):
        calls.append((checkout, job[0][0]))
        wall = {"p": 1.0, "c": 0.5}[checkout]
        r = _report(0.0, 0.1, wall, wall, 1024)
        if checkout == "c" and job[0][0] == "bad":
            r["failure"] = "exit code 1, expected 0"
        return r

    monkeypatch.setattr(bench_pairs, "run_job", fake_run_job)
    jobs = {"w1": [[["a"], "in", 0, ""], [["b"], "in", 0, ""]], "w2": [[["bad"], "in", 0, ""]]}
    rep = bench_pairs.job_repetition({"parent": "p", "change": "c"},
                                     {"parent": jobs, "change": jobs}, ["change", "parent"])
    assert calls == [("c", "a"), ("p", "a"), ("c", "b"), ("p", "b"), ("c", "bad"), ("p", "bad")]
    assert rep["parent"]["attempted"] == rep["change"]["attempted"] == 3
    assert rep["parent"]["metrics"]["w1"]["wall_s"] == pytest.approx(2.0)
    assert rep["change"]["metrics"]["w1"]["wall_s"] == pytest.approx(1.0)
    assert rep["parent"]["failures"] == [] and "w2" in rep["parent"]["metrics"]
    assert rep["change"]["failures"] == ["bad: exit code 1, expected 0"]
    assert "w2" not in rep["change"]["metrics"]


def test_job_mode_runs_the_checkouts_own_jobs(tmp_path):
    jobs = bench_pairs.list_jobs(bench_pairs.ROOT, "gs-chain", 3, str(tmp_path / "in"))
    assert list(jobs) == ["gs-chain"] and len(jobs["gs-chain"]) == 2
    argv, path, _, _ = nr = jobs["gs-chain"][1]
    assert argv[-3:] == ["nr", "--max-degree", "5"] and os.path.isfile(path)
    report = bench_pairs.run_job(bench_pairs.ROOT, nr)
    assert report["failure"] is None and report["spawn"] < report["ready"] < report["done"]
    wrong = bench_pairs.run_job(bench_pairs.ROOT, nr[:3] + ["another answer"])
    assert wrong["failure"].startswith("stdout ")
    m = bench_pairs.repetition_metrics([report])
    assert m["wall_s"] > 0 and m["peak_rss_mb"] > 1
