"""Run one prestacks CLI job in this fresh process and report measurements.

    python3 perfbench/job.py --input FILE [--spans OUT] [-- CLI ARGS...]

Set-up is the interpreter start, ``import prestacks``, loading ``--input`` and
``Prestack.validate()``; the process then notes the time it became ready and
runs ``prestacks.cli.main`` on the CLI arguments with stdout captured.  With
``--spans`` the library is traced from outside (see tracing.py) and the spans
are written to OUT after the job.  Without CLI arguments the process stops
after set-up.  The last stdout line is one JSON object: ``ready`` and ``done``
on the system-wide monotonic clock, ``cpu_s``, ``rss_kb``, ``rc``, ``stdout``
and ``error``.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback


def _cpu():
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def main(argv):
    cli_args = []
    if "--" in argv:
        cut = argv.index("--")
        argv, cli_args = argv[:cut], argv[cut + 1:]
    opts = dict(zip(argv[::2], argv[1::2]))
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))

    from prestacks import cli
    from prestacks.io import load_prestack

    bad = load_prestack(opts["--input"]).validate()
    report = {"ready": time.monotonic(), "error": None}
    if bad is not None:
        report["error"] = "input fails validation: %s" % bad
    if not cli_args or bad is not None:
        print(json.dumps(report))
        return 0

    cpu0 = _cpu()
    tracer = None
    if "--spans" in opts:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    out = io.StringIO()
    rc = None
    try:
        with contextlib.redirect_stdout(out):
            rc = cli.main(cli_args)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a job that raises is a failed job, reported, not fatal
        report["error"] = traceback.format_exc(limit=-3)
    report["done"] = time.monotonic()
    report["cpu_s"] = _cpu() - cpu0
    if tracer is not None:
        tracer.uninstall()
        tracer.dump(opts["--spans"])
    report["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    report["rc"] = rc
    report["stdout"] = out.getvalue()
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
