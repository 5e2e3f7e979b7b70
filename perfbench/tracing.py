"""Outside-in tracing of the prestacks layers.

``Tracer.install`` replaces public functions and methods of the library with
wrappers defined here; the library itself is not changed.  A module-level
function is replaced in its defining module and at every import site that
bound it by name (``from .combinatorics import enumerate_shuffles``), so no
caller bypasses the wrapper.  ``uninstall`` puts every original back.

Timed wrappers record spans ``(id, parent_id, name, start, end)`` in memory;
``dump`` writes them out with the counters once the job is over.  Generator
functions (the pull-style contribution streams) and very hot small functions
only count calls or yielded terms: their time stays in the caller's span.
"""

from __future__ import annotations

import json
import sys
import time
import weakref
from collections import Counter, defaultdict


def _first_arg_key(args, kwargs):
    arg = args[0] if args else next(iter(kwargs.values()))
    return tuple(arg) if isinstance(arg, (list, tuple)) else arg


def _targets():
    """What to wrap: timed (owner, attribute, span name, observer kind),
    counted (owner, attribute, counter) and streams (owner, attribute, counter).

    Imported lazily so that importing this module loads no library code.
    """
    from prestacks import combinatorics, compare, deform, io
    from prestacks.complexbase import ComplexBase
    from prestacks.graded import GradedBimodule, GradedComplex
    from prestacks.gscomplex import GSComplex
    from prestacks.linalg import SparseMatrix
    from prestacks.prestack import Prestack

    def layer_of(args):
        return "graded" if isinstance(args[0], GradedComplex) else "gscomplex"

    timed = [
        (io, "load_prestack", "io.load_prestack", None),
        (io, "prestack_from_doc", "io.load_prestack", None),
        (io, "save_prestack", "io.save", None),
        (io, "cochain_to_text", "io.save", None),
        (Prestack, "validate", "prestack.validate", None),
        (combinatorics, "enumerate_shuffles", "combinatorics.shuffles", "distinct"),
        (combinatorics, "enumerate_conditioned", "combinatorics.conditioned", "distinct"),
        (combinatorics, "paths_or_trivial", "combinatorics.paths", "distinct"),
        (combinatorics, "partitions", "combinatorics.partitions", "distinct"),
        (GSComplex, "cells", "gscomplex.cells", "cells"),
        (GradedComplex, "cells", "graded.cells", "cells"),
        (ComplexBase, "matrix", lambda args: layer_of(args) + ".matrix", "matrix"),
        (ComplexBase, "apply_diff", "complexbase.cochain", None),
        (ComplexBase, "random_cochain", "complexbase.cochain", None),
        (ComplexBase, "to_vector", "complexbase.cochain", None),
        (ComplexBase, "from_vector", "complexbase.cochain", None),
        (compare.Comparison, "matrix_F", "compare.matrix_F", None),
        (compare.Comparison, "matrix_G", "compare.matrix_G", None),
        (compare.Comparison, "matrix_T", "compare.matrix_T", None),
        (compare.Comparison, "apply_F", "compare.apply_F", None),
        (compare.Comparison, "apply_G", "compare.apply_G", None),
        (compare, "seq_elements", "compare.seq_elements", None),
        (compare, "seqq_elements", "compare.seqq_elements", None),
        (SparseMatrix, "rank", "linalg.rank", "rank"),
        (SparseMatrix, "mul", "linalg.mul", "mul"),
        (SparseMatrix, "matvec", "linalg.matvec", None),
        (SparseMatrix, "__eq__", "linalg.eq", None),
        (SparseMatrix, "kernel_basis", "linalg.kernel", None),
        (deform, "classify_h2", "deform.classify_h2", None),
        (deform, "build_deformation", "deform.build_deformation", None),
    ]
    counted = [
        (GradedBimodule, "left_mu", "graded.mu"),
        (GradedBimodule, "right_mu", "graded.mu"),
    ]
    streams = [
        (GSComplex, "diff_contributions", "gscomplex.contrib"),
        (GradedComplex, "diff_contributions", "graded.contrib"),
        (compare.Comparison, "f_contributions", "compare.contrib"),
        (compare.Comparison, "g_contributions", "compare.contrib"),
        (compare.Comparison, "t_contributions", "compare.contrib"),
    ]
    return timed, counted, streams


class Tracer:
    """Spans and counters for one process; install, run, uninstall, dump."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []          # (id, parent id or -1, name, start, end)
        self.counts = Counter()
        self.distinct = defaultdict(set)
        self.patches = []        # (owner, attribute, original)
        self._stack = []
        self._inputs = []        # input bases of the matrix assemblies in progress
        self._ranked = {}        # id(matrix) -> weakref, for repeat_calls

    # -- wrappers ------------------------------------------------------------------

    def _timed(self, fn, name, observe):
        spans, stack, clock = self.spans, self._stack, self.clock

        def wrapper(*args, **kwargs):
            label = name(args) if callable(name) else name
            finish = observe(self, label, args, kwargs) if observe else None
            sid = len(spans)
            spans.append(None)   # reserve the id; filled in when the span ends
            stack.append(sid)
            result = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = clock()
                stack.pop()
                spans[sid] = (sid, stack[-1] if stack else -1, label, t0, t1)
                if finish is not None:
                    finish(result)

        return wrapper

    def _counted(self, fn, name):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name + ".calls"] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _stream(self, fn, name):
        counts, inputs = self.counts, self._inputs

        def wrapper(*args, **kwargs):
            basis = inputs[-1]() if inputs else None
            for item in fn(*args, **kwargs):
                counts[name + ".terms"] += 1
                if basis is not None:
                    counts[name + ".assembled"] += 1
                    if item[0] in basis:
                        counts[name + ".hits"] += 1
                yield item

        return wrapper

    # -- observers: run before a timed call, may return a callback for its result --

    def observe_distinct(self, label, args, kwargs):
        self.distinct[label].add(_first_arg_key(args, kwargs))

    def observe_cells(self, label, args, kwargs):
        complex_, n = args[0], args[1]
        if n in complex_._cells:
            return None

        def count(result):
            self.counts[label + ".count"] += len(result or ())
        return count

    def observe_matrix(self, label, args, kwargs):
        complex_, n = args[0], args[1]
        keys_in = kwargs.get("keys_in", args[2] if len(args) > 2 else None)
        cache = []

        def basis():
            # resolved on first use, when the assembly has already indexed C^{n-1}
            if not cache:
                cache.append(complex_.index(n - 1)[0] if keys_in is None
                             else set(keys_in))
            return cache[0]

        self._inputs.append(basis)

        def done(result):
            self._inputs.pop()
            if result is not None:
                self.counts[label + ".nnz"] += result.nnz
        return done

    def observe_rank(self, label, args, kwargs):
        m = args[0]
        self.counts[label + ".nnz_in"] += m.nnz
        ref = self._ranked.get(id(m))
        if ref is not None and ref() is m:
            self.counts[label + ".repeat_calls"] += 1
        self._ranked[id(m)] = weakref.ref(m)

    def observe_mul(self, label, args, kwargs):
        def done(result):
            if result is not None:
                self.counts[label + ".nnz_out"] += result.nnz
        return done

    # -- install / uninstall -----------------------------------------------------

    def _patch(self, owner, attr, wrapper):
        original = owner.__dict__[attr]
        self.patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)
        if isinstance(owner, type):
            return
        # rebind every import site of a module-level function
        for mod_name, module in list(sys.modules.items()):
            if module is owner or not mod_name.startswith("prestacks"):
                continue
            for name, value in list(vars(module).items()):
                if value is original:
                    self.patches.append((module, name, original))
                    setattr(module, name, wrapper)

    def install(self):
        timed, counted, streams = _targets()
        for owner, attr, name, kind in timed:
            observe = getattr(Tracer, "observe_" + kind) if kind else None
            self._patch(owner, attr, self._timed(owner.__dict__[attr], name, observe))
        for owner, attr, name in counted:
            self._patch(owner, attr, self._counted(owner.__dict__[attr], name))
        for owner, attr, name in streams:
            self._patch(owner, attr, self._stream(owner.__dict__[attr], name))

    def uninstall(self):
        while self.patches:
            owner, attr, original = self.patches.pop()
            setattr(owner, attr, original)

    # -- results ---------------------------------------------------------------------

    def dump(self, path):
        """Write spans and counters as one JSON file."""
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counts": self.counts,
                       "distinct": {k: len(v) for k, v in self.distinct.items()}},
                      fh, separators=(",", ":"))


def self_times(spans):
    """Per span name: (self seconds, calls), and the seconds covered by roots.

    A span's self time is its duration minus the durations of the spans whose
    parent it is; spans of one process never overlap except by nesting.
    """
    child = defaultdict(float)
    for sid, parent, name, t0, t1 in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    own = defaultdict(float)
    calls = Counter()
    covered = 0.0
    for sid, parent, name, t0, t1 in spans:
        own[name] += (t1 - t0) - child[sid]
        calls[name] += 1
        if parent < 0:
            covered += t1 - t0
    return own, calls, covered
