#!/usr/bin/env python3
"""Paired benchmark runs of a parent commit and the working tree.

    python3 scripts/bench_pairs.py --parent REV --seeds 100-109
        --out BENCH_name.json [--workload NAME|all] [--what TEXT]
        [--mode run|job]

For each seed, ``perfbench/run.py --workload W --seed S`` runs once on a git
archive of the parent commit ``--parent`` and once on the working tree,
alternately: the parent first on even seeds, the change first on odd ones.
The parent is recorded by its full commit id, and a working tree whose
tracked files equal the parent's is refused, since it would be compared
with itself.  Then one ``--trace 1 --seed 1`` run per side records the
per-layer metrics: the seconds per layer and the deterministic work counters.
Each side's ``src/`` line count (``src_lines``, as ``wc -l`` counts the
Python files) is recorded too.

With ``--mode job`` the two sides alternate one job at a time instead of
one whole run at a time.  Per seed, each side writes the workload's inputs
with its own ``perfbench/workloads.py`` and the job list runs once: every
job runs through that side's ``perfbench/job.py`` in a fresh process, the
parent's run of a job right before or after the change's (the parent first
on even seeds), so both sides of a pair see the same moment of the machine.
Each job's exit code and stdout are checked against its known answer.  A
repetition of the job list gives the same four end-to-end metrics as a
perfbench run: ``setup_s`` the median set-up over its jobs, ``wall_s`` and
``cpu_s`` the sums over its jobs and ``peak_rss_mb`` the largest peak; the
pairs are the seeds.  The traced runs are the same in both modes.

The output has the shape of the committed ``BENCH_*.json`` files.  Per
workload and end-to-end metric it gives each side's median, interquartile
range (``statistics.quantiles(n=4, method='inclusive')``) and minimum, the
change/parent ratio of each pair, the number of pairs in which the change
read lower, the relative change of the medians, ``within_bound`` against the
metric's bound in BENCHMARK.json, ``resolved`` and ``meets_gain_rule``.  A
metric is resolved when the parent's interquartile distance, as a share of
its median, is within the bound, or when every change run reads better than
every parent run; otherwise the runs spread too widely to call it unchanged.
The gain rule asks for better in at least nine pairs of ten, and the medians
apart by more than the parent's interquartile distance.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TRACE_SEED = 1  # the seed of the traced runs that earlier BENCH files report

# Run in a checkout: print its workloads' job lists, their inputs written
# under argv[2]/<workload> for the seed argv[3], as JSON.
LIST_JOBS = """
import json, os, sys
sys.path[:0] = ["perfbench", "src"]
from workloads import WORKLOADS
names = sorted(WORKLOADS) if sys.argv[1] == "all" else [sys.argv[1]]
jobs = {}
for name in names:
    workdir = os.path.join(sys.argv[2], name)
    os.makedirs(workdir)
    jobs[name] = [[list(j.argv), j.input, j.expected_rc, j.expected_stdout]
                  for j in WORKLOADS[name](workdir, int(sys.argv[3]))]
print(json.dumps(jobs))
"""


def parse_seeds(text):
    """"100-109" or "1,5,9" -> a list of ints."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def resolve(rev):
    """The full commit id of ``rev``; exits if the working tree's tracked
    files do not differ from that commit."""
    proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "--verify", rev + "^{commit}"],
                          capture_output=True, text=True)
    if proc.returncode:
        sys.exit("not a commit: %s" % rev)
    sha = proc.stdout.strip()
    if subprocess.run(["git", "-C", ROOT, "diff", "--quiet", sha]).returncode == 0:
        sys.exit("the working tree equals %s: nothing to compare" % sha)
    return sha


def archive(rev, dest):
    """Extract the tracked files of commit ``rev`` into ``dest``."""
    proc = subprocess.Popen(["git", "-C", ROOT, "archive", rev], stdout=subprocess.PIPE)
    with tarfile.open(fileobj=proc.stdout, mode="r|") as tar:
        tar.extractall(dest)
    if proc.wait():
        sys.exit("git archive %s failed" % rev)


def src_lines(checkout):
    """The number of lines of the Python files under ``checkout``/src."""
    total = 0
    for dirpath, _, names in os.walk(os.path.join(checkout, "src")):
        for name in names:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), "rb") as fh:
                    total += fh.read().count(b"\n")
    return total


def run_bench(checkout, workload, seed, trace=0):
    """One perfbench run; returns its report: correct, attempted, failed, and
    metrics as workload -> metric -> value."""
    cmd = [sys.executable, os.path.join(checkout, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    try:
        report = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        sys.exit("perfbench gave no report (exit %d): %s"
                 % (proc.returncode, proc.stderr.strip()[-400:]))
    metrics = {}
    for key, m in report["metrics"].items():
        name, metric = key.split(".", 1) if workload == "all" else (workload, key)
        metrics.setdefault(name, {})[metric] = m["value"]
    report["metrics"] = metrics
    return report


def child_env():
    """perfbench's child environment: fixed hashing, no bytecode written."""
    return dict(os.environ, PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1")


def list_jobs(checkout, workload, seed, workdir):
    """The job lists of ``checkout``'s workloads, as workload -> [[argv,
    input, expected rc, expected stdout], ...], inputs written under workdir."""
    proc = subprocess.run([sys.executable, "-c", LIST_JOBS, workload, workdir, str(seed)],
                          cwd=checkout, env=child_env(), capture_output=True, text=True)
    if proc.returncode:
        sys.exit("listing the jobs in %s failed: %s" % (checkout, proc.stderr.strip()[-400:]))
    return json.loads(proc.stdout)


def run_job(checkout, job):
    """One job through ``checkout``'s perfbench/job.py in a fresh process: its
    report, with ``spawn`` and ``failure``, why it failed or None."""
    argv, path, rc, stdout = job
    cmd = [sys.executable, os.path.join(checkout, "perfbench", "job.py"),
           "--input", path, "--", *argv]
    spawn = time.monotonic()
    proc = subprocess.run(cmd, cwd=checkout, env=child_env(), capture_output=True, text=True)
    try:
        report = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        report = {"error": "no report, exit %d: %s" % (proc.returncode, proc.stderr.strip()[-400:])}
    report["spawn"] = spawn
    if report.get("error"):
        report["failure"] = report["error"]
    elif report["rc"] != rc:
        report["failure"] = "exit code %s, expected %s" % (report["rc"], rc)
    elif report["stdout"] != stdout:
        report["failure"] = "stdout %r, expected %r" % (report["stdout"][:200], stdout[:200])
    else:
        report["failure"] = None
    return report


def repetition_metrics(reports):
    """The end-to-end metrics of one repetition of a job list, from its jobs'
    reports, as perfbench/run.py computes them over a repetition."""
    return {
        "setup_s": statistics.median(r["ready"] - r["spawn"] for r in reports),
        "wall_s": sum(r["done"] - r["ready"] for r in reports),
        "cpu_s": sum(r["cpu_s"] for r in reports),
        "peak_rss_mb": max(r["rss_kb"] for r in reports) / 1024.0,
    }


def job_repetition(sides, jobs, order):
    """One repetition of each workload's job list on both sides, alternating
    job by job in ``order``.  ``jobs`` gives each side's job lists.  Returns
    per side the metrics by workload, the jobs attempted and the failures."""
    out = {side: {"metrics": {}, "attempted": 0, "failures": []} for side in order}
    for name in sorted(jobs[order[0]]):
        reports = {side: [] for side in order}
        for i in range(len(jobs[order[0]][name])):
            for side in order:
                job = jobs[side][name][i]
                report = run_job(sides[side], job)
                out[side]["attempted"] += 1
                if report["failure"] is not None:
                    out[side]["failures"].append("%s: %s" % (" ".join(job[0]), report["failure"]))
                else:
                    reports[side].append(report)
        for side in order:
            if len(reports[side]) == len(jobs[side][name]):
                out[side]["metrics"][name] = repetition_metrics(reports[side])
    return out


def quartiles(values):
    if len(values) < 2:
        return [values[0], values[0]]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return [q[0], q[2]]


def summarize(parent, change, bound, lower_is_better):
    """One metric's summary over the paired values of both sides."""
    def better(c, p):
        return c < p if lower_is_better else c > p

    p_med, c_med = statistics.median(parent), statistics.median(change)
    p_iqr = quartiles(parent)
    n = len(parent)
    pairs_better = sum(better(c, p) for p, c in zip(parent, change))
    pairs_lower = sum(c < p for p, c in zip(parent, change))
    ratio = c_med / p_med - 1 if p_med else 0.0
    worse = ratio if lower_is_better else -ratio
    spread = (p_iqr[1] - p_iqr[0]) / abs(p_med) if p_med else 0.0
    best_parent = min(parent) if lower_is_better else max(parent)
    return {
        "parent_median": round(p_med, 4),
        "parent_iqr": [round(v, 4) for v in p_iqr],
        "parent_min": round(min(parent), 4),
        "change_median": round(c_med, 4),
        "change_iqr": [round(v, 4) for v in quartiles(change)],
        "change_min": round(min(change), 4),
        "pair_ratios": [round(c / p, 4) if p else None for p, c in zip(parent, change)],
        "change_lower_pairs": pairs_lower,
        "change_vs_parent": round(ratio, 4),
        "within_bound": worse <= bound,
        "resolved": spread <= bound or all(better(c, best_parent) for c in change),
        "meets_gain_rule": (pairs_better >= math.ceil(0.9 * n)
                            and better(c_med, p_med)
                            and abs(p_med - c_med) > p_iqr[1] - p_iqr[0]),
    }


def traced(parent_dir, seed, workload):
    """One traced run per side: each side's nonzero per-layer metrics, and
    which work counters (count metrics) are equal on both sides."""
    sides = {side: run_bench(path, workload, seed, trace=1)
             for side, path in (("parent", parent_dir), ("change", ROOT))}
    flat = {side: {"%s.%s" % (w, m): v for w, ms in r["metrics"].items()
                   for m, v in ms.items()} for side, r in sides.items()}
    out = {"seed": seed, "correct": {s: r["correct"] for s, r in sides.items()}}
    for side in sides:
        out[side] = {k: round(v, 4) for k, v in sorted(flat[side].items()) if v}
    counters = sorted(k for k in flat["parent"]
                      if ".trace." not in k and not k.endswith((".s", "_ratio")))
    out["equal_counters"] = [k for k in counters
                             if flat["parent"][k] == flat["change"].get(k)]
    out["differing_counters"] = {k: {"parent": flat["parent"][k],
                                     "change": flat["change"].get(k)}
                                 for k in counters if k not in out["equal_counters"]}
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default="all")
    ap.add_argument("--seeds", required=True, help='e.g. "100-109" or "1,5,9"')
    ap.add_argument("--parent", required=True, help="git revision of the parent")
    ap.add_argument("--what", default="", help="what the two sides are")
    ap.add_argument("--out", required=True)
    ap.add_argument("--mode", choices=["run", "job"], default="run",
                    help="alternate the sides run by run (default) or job by job")
    args = ap.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    parent = resolve(args.parent)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = {m["name"]: m for m in json.load(fh)["end_to_end"]}

    with tempfile.TemporaryDirectory(prefix="bench-parent-") as parent_dir:
        archive(parent, parent_dir)
        sides = {"parent": parent_dir, "change": ROOT}
        runs = []
        totals = {s: {"correct": True, "attempted": 0, "failed": 0} for s in sides}
        for seed in seeds:
            order = ["parent", "change"] if seed % 2 == 0 else ["change", "parent"]
            run = {"seed": seed, "first": order[0]}
            if args.mode == "job":
                with tempfile.TemporaryDirectory(prefix="bench-inputs-") as work:
                    jobs = {side: list_jobs(sides[side], args.workload, seed,
                                            os.path.join(work, side)) for side in order}
                    rep = job_repetition(sides, jobs, order)
            for side in order:
                if args.mode == "job":
                    report = {"correct": not rep[side]["failures"],
                              "attempted": rep[side]["attempted"],
                              "failed": len(rep[side]["failures"]),
                              "metrics": rep[side]["metrics"]}
                    for why in rep[side]["failures"]:
                        print("FAILED %s: %s" % (side, why), file=sys.stderr)
                else:
                    report = run_bench(sides[side], args.workload, seed)
                totals[side]["correct"] &= report["correct"]
                totals[side]["attempted"] += report["attempted"]
                totals[side]["failed"] += report["failed"]
                run[side] = report["metrics"]
                print("seed %d %s: %s" % (seed, side, json.dumps(report["metrics"])),
                      file=sys.stderr)
            runs.append(run)
        trace = traced(parent_dir, TRACE_SEED, args.workload)
        lines = {side: src_lines(path) for side, path in sides.items()}

    workloads = {}
    for name in sorted(runs[0]["parent"]):
        summary = {}
        for metric, spec in declared.items():
            p = [r["parent"][name][metric] for r in runs]
            c = [r["change"][name][metric] for r in runs]
            summary[metric] = summarize(p, c, spec["bound"], spec["better"] == "lower")
        workloads[name] = {
            "summary": summary,
            "runs": [{"seed": r["seed"], "first": r["first"],
                      "parent": {m: round(r["parent"][name][m], 4) for m in declared},
                      "change": {m: round(r["change"][name][m], 4) for m in declared}}
                     for r in runs],
        }
    doc = {
        "what": args.what,
        "how": ("scripts/bench_pairs.py --workload %s --seeds %s --parent %s --mode %s: "
                "%s, the parent from a git archive and the change from the working "
                "tree, the parent first on even seeds"
                % (args.workload, args.seeds, parent, args.mode,
                   "perfbench/run.py once per side per seed" if args.mode == "run" else
                   "per seed one repetition of the job list, each job through "
                   "perfbench/job.py in a fresh process, the sides alternating job by job")),
        "machine": "%d CPUs, Python %s, %s" % (os.cpu_count(), platform.python_version(),
                                               platform.system()),
        "seeds": seeds,
        "correct": {s: t["correct"] for s, t in totals.items()},
        "failed": {s: t["failed"] for s, t in totals.items()},
        "attempted": {s: t["attempted"] for s, t in totals.items()},
        "src_lines": lines,
        "workloads": workloads,
        "traced": trace,
    }
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return 0 if all(t["correct"] for t in totals.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
