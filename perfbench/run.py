"""The prestacks benchmark: CLI workloads, end-to-end metrics, a layer trace.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                             [--trace 0|1]

Run from anywhere inside a checkout; the library is imported from ``src/``.
Every job is one ``prestacks`` command run in its own fresh child process
(perfbench/job.py), one after another, and its exit code and stdout are
checked against the known answer in workloads.py.

``--trace 0`` prints the end-to-end metrics.  The workload's job list is
repeated while another repetition still fits in ``--seconds``; times are
medians over repetitions.  ``--trace 1`` runs the job list once untraced and
once traced and prints the per-layer metrics.  Each metric is printed as
``name value unit``; the last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter, defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, ".work")
sys.dont_write_bytecode = True
sys.path.insert(0, os.path.join(ROOT, "src"))

from tracing import self_times  # noqa: E402
from workloads import WORKLOADS, Job  # noqa: E402

RUN_LIMIT_S = 170      # a run, set-up included, ends well within three minutes
SETUP_PROBES = 9       # set-up-only children per run, besides one per job

END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
]

_SPAN_S = [
    "linalg.rank", "linalg.mul", "linalg.matvec", "linalg.eq", "linalg.kernel",
    "combinatorics.shuffles", "combinatorics.conditioned", "combinatorics.paths",
    "combinatorics.partitions",
    "gscomplex.cells", "gscomplex.matrix", "graded.cells", "graded.matrix",
    "complexbase.cochain",
    "compare.matrix_F", "compare.matrix_G", "compare.matrix_T",
    "compare.apply_F", "compare.apply_G",
    "compare.seq_elements", "compare.seqq_elements",
    "deform.classify_h2", "deform.build_deformation",
    "io.load_prestack", "io.save", "prestack.validate",
]
_CALLS = [
    "linalg.rank", "linalg.mul",
    "combinatorics.shuffles", "combinatorics.conditioned", "combinatorics.paths",
    "combinatorics.partitions",
    "compare.seq_elements", "compare.seqq_elements", "prestack.validate",
    "graded.mu",
]
_COUNTS = [
    "linalg.rank.nnz_in", "linalg.rank.repeat_calls", "linalg.mul.nnz_out",
    "gscomplex.cells.count", "gscomplex.matrix.nnz", "gscomplex.contrib.terms",
    "graded.cells.count", "graded.matrix.nnz", "graded.contrib.terms",
    "compare.contrib.terms",
]
_DISTINCT = ["combinatorics.shuffles", "combinatorics.conditioned",
             "combinatorics.paths", "combinatorics.partitions"]
_HITS = ["gscomplex.contrib", "graded.contrib"]

PER_LAYER = sorted(
    [(n + ".s", "s") for n in _SPAN_S]
    + [(n + ".calls", "count") for n in _CALLS]
    + [(n, "count") for n in _COUNTS]
    + [(n + ".distinct_ratio", "ratio") for n in _DISTINCT]
    + [(n + ".hit_ratio", "ratio") for n in _HITS]
    + [("trace.overhead_ratio", "ratio"), ("trace.coverage", "ratio"),
       ("trace.wall_s", "s"), ("trace.spans", "count")])


def _child_env():
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"  # set iteration order, and so timing, fixed per input
    env["PYTHONDONTWRITEBYTECODE"] = "1"  # every set-up compiles; nothing lands in src/
    return env


def run_child(job, deadline, spans=None):
    """Run one job (or, with empty argv, set-up only) in a fresh process."""
    cmd = [sys.executable, os.path.join(HERE, "job.py"), "--input", job.input]
    if spans:
        cmd += ["--spans", spans]
    if job.argv:
        cmd += ["--", *job.argv]
    spawn = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_child_env(), text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - spawn))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return {"spawn": spawn, "error": "timed out"}
    try:
        report = json.loads(out.strip().splitlines()[-1])
    except (IndexError, ValueError):
        report = {"error": "no report, exit %s: %s" % (proc.returncode, err.strip()[-400:])}
    report["spawn"] = spawn
    return report


def failure(job, report):
    """Why a job's report does not match its known answer, or None."""
    if report.get("error"):
        return report["error"]
    if report["rc"] != job.expected_rc:
        return "exit code %s, expected %s" % (report["rc"], job.expected_rc)
    if report["stdout"] != job.expected_stdout:
        return "stdout %r, expected %r" % (report["stdout"][:200], job.expected_stdout[:200])
    return None


class Tally:
    """Everything one run measures, over its repetitions of the job list."""

    def __init__(self):
        self.attempted = 0
        self.failures = []
        self.setup = []
        self.reps = []           # (wall, cpu, peak rss MB) per repetition
        self.traced_wall = 0.0
        self.covered = 0.0
        self.own = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self.distinct = Counter()
        self.spans = 0

    def run_jobs(self, jobs, deadline, spans_dir=None):
        """Run the job list once; return False if it was cut by the deadline."""
        wall = cpu = rss = 0.0
        for i, job in enumerate(jobs):
            if time.monotonic() >= deadline:
                return False
            spans = os.path.join(spans_dir, "spans-%d.json" % i) if spans_dir else None
            report = run_child(job, deadline, spans)
            self.attempted += 1
            why = failure(job, report)
            if why is not None:
                self.failures.append("%s: %s" % (" ".join(job.argv), why))
                continue
            self.setup.append(report["ready"] - report["spawn"])
            wall += report["done"] - report["ready"]
            cpu += report["cpu_s"]
            rss = max(rss, report["rss_kb"] / 1024.0)
            if spans:
                self.add_trace(spans)
        if spans_dir:
            self.traced_wall += wall
        else:
            self.reps.append((wall, cpu, rss))
        return True

    def add_trace(self, path):
        with open(path) as fh:
            trace = json.load(fh)
        os.remove(path)
        own, calls, covered = self_times(trace["spans"])
        for name, s in own.items():
            self.own[name] += s
        self.calls.update(calls)
        self.counts.update(trace["counts"])
        self.distinct.update(trace["distinct"])
        self.covered += covered
        self.spans += len(trace["spans"])

    def end_to_end(self):
        return {
            "setup_s": statistics.median(self.setup),
            "wall_s": statistics.median(r[0] for r in self.reps),
            "cpu_s": statistics.median(r[1] for r in self.reps),
            "peak_rss_mb": statistics.median(r[2] for r in self.reps),
        }

    def per_layer(self):
        def ratio(a, b):
            return a / b if b else 0.0

        m = {n + ".s": self.own[n] for n in _SPAN_S}
        m.update({n + ".calls": self.calls[n] or self.counts[n + ".calls"] for n in _CALLS})
        m.update({n: self.counts[n] for n in _COUNTS})
        m.update({n + ".distinct_ratio": ratio(self.distinct[n], self.calls[n])
                  for n in _DISTINCT})
        m.update({n + ".hit_ratio": ratio(self.counts[n + ".hits"],
                                          self.counts[n + ".assembled"])
                  for n in _HITS})
        untraced = self.reps[0][0] if self.reps else 0.0
        m["trace.overhead_ratio"] = ratio(self.traced_wall, untraced)
        m["trace.coverage"] = ratio(self.covered, self.traced_wall)
        m["trace.wall_s"] = self.traced_wall
        m["trace.spans"] = self.spans
        return m


def measure(workload, seed, seconds, trace):
    """One run of one workload; returns (Tally, metrics as name -> (value, unit))."""
    start = time.monotonic()
    hard = start + RUN_LIMIT_S
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=WORK)
    try:
        jobs = WORKLOADS[workload](os.path.relpath(workdir, ROOT), seed)
        tally = Tally()
        if trace:
            if tally.run_jobs(jobs, hard):
                tally.run_jobs(jobs, hard, spans_dir=workdir)
            metrics = tally.per_layer()
            units = dict(PER_LAYER)
        else:
            inputs = sorted({job.input for job in jobs})
            for i in range(SETUP_PROBES):
                probe = Job((), inputs[i % len(inputs)], 0, "")
                report = run_child(probe, hard)
                tally.attempted += 1
                if report.get("error"):
                    tally.failures.append("set-up: " + report["error"])
                    break
                tally.setup.append(report["ready"] - report["spawn"])
            deadline = min(hard, time.monotonic() + seconds)
            while not tally.failures:
                t = time.monotonic()
                if not tally.run_jobs(jobs, hard):
                    break
                if time.monotonic() + (time.monotonic() - t) > deadline:
                    break
            metrics = tally.end_to_end() if tally.reps and tally.setup else {}
            units = dict(END_TO_END)
        return tally, {n: (v, units[n]) for n, v in metrics.items()}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default="all", choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=28)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "prestacks", "cli.py")):
        print("perfbench: no prestacks sources under %s" % os.path.join(ROOT, "src"),
              file=sys.stderr)
        return 2
    os.chdir(ROOT)

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    attempted = failed = 0
    metrics = {}
    for name in names:
        tally, got = measure(name, args.seed, args.seconds, bool(args.trace))
        attempted += tally.attempted
        failed += len(tally.failures)
        for why in tally.failures:
            print("FAILED %s: %s" % (name, why), file=sys.stderr)
        print("%s fail_ratio %d/%d" % (name, len(tally.failures), tally.attempted))
        for metric, (value, unit) in sorted(got.items()):
            print("%s %s %r %s" % (name, metric, value, unit))
            key = metric if len(names) == 1 else "%s.%s" % (name, metric)
            metrics[key] = {"value": value, "unit": unit}
    correct = failed == 0 and attempted > 0
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
