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
