"""Layer spans recorded from outside the solver.

The solver looks up its kernels as module attributes at call time
(``sympeig.solver.evaluate``, ``sympeig.factor.ssvd``, ...), so a span
can be put around each layer boundary by rebinding those attributes for
the length of one solve and restoring them afterwards.  The operator is
wrapped in a proxy that exposes the ``.n`` / ``.apply`` / ``.trace``
protocol ``solve`` accepts.

Spans are ``(name, start, end, parent)`` rows kept in flat arrays, so a
span costs two clock reads and four appends; they are written out when
the benchmark ends.
"""

import contextlib
import time
from array import array

import numpy as np

import sympeig.factor
import sympeig.penalty
import sympeig.solver

# (module, attribute, span name): the places where the solver and its
# helpers resolve each layer's public function.
PATCH_POINTS = (
    (sympeig.solver, "evaluate", "penalty.evaluate"),
    (sympeig.solver, "gll_search", "stepper.gll_search"),
    (sympeig.solver, "bb_step", "stepper.bb_step"),
    (sympeig.solver, "srr", "factor.srr"),
    (sympeig.solver, "restart_point", "factor.restart_point"),
    (sympeig.solver, "residue", "metrics.residue"),
    (sympeig.penalty, "symplectic_gram", "operators.symplectic_gram"),
    (sympeig.penalty, "j_left", "operators.j_left"),
    (sympeig.factor, "ssvd", "factor.ssvd"),
    (sympeig.factor, "williamson_small", "factor.williamson_small"),
    (sympeig.penalty.PenaltyEval, "ensure_gradient", "penalty.ensure_gradient"),
)

SOLVE = "solver.solve"
APPLY = "operators.apply"


class Tracer:
    """In-memory span store plus the counters taken at the same boundaries."""

    def __init__(self):
        self.names = [SOLVE, APPLY] + [name for _, _, name in PATCH_POINTS]
        self._ids = {name: i for i, name in enumerate(self.names)}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.failed = array("b")
        self._stack = []
        self.apply_cols = 0
        self.backtracks = 0
        self.capped = 0

    def open(self, name):
        idx = len(self.name_id)
        self.name_id.append(self._ids[name])
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.failed.append(0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx, failed=False):
        self.end[idx] = time.perf_counter()
        self._stack.pop()
        if failed:
            self.failed[idx] = 1

    def span(self, name, fn):
        """Wrap `fn` so each call records a span named `name`."""

        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                self.close(idx, failed=True)
                raise
            self.close(idx)
            return out

        return traced

    def summarize(self, first, last):
        """Per-layer calls, failures, seconds and self seconds of spans
        first..last-1 (one solve).  Self time is a span's duration minus
        the durations of its direct children."""
        ids = np.frombuffer(self.name_id, dtype=np.int32)[first:last]
        parent = np.frombuffer(self.parent, dtype=np.int32)[first:last]
        dur = (np.frombuffer(self.end)[first:last]
               - np.frombuffer(self.start)[first:last])
        failed = np.frombuffer(self.failed, dtype=np.int8)[first:last]
        child = np.zeros_like(dur)
        inside = parent >= first
        np.add.at(child, parent[inside] - first, dur[inside])
        self_time = dur - child
        out = {}
        for i, name in enumerate(self.names):
            mask = ids == i
            out[name] = {
                "calls": int(mask.sum()),
                "failed": int(failed[mask].sum()),
                "s": float(dur[mask].sum()),
                "self_s": float(self_time[mask].sum()),
            }
        # evaluations made inside a line search are its trial points
        gll = self._ids["stepper.gll_search"]
        trial_parent = parent[(ids == self._ids["penalty.evaluate"]) & inside]
        out["penalty.evaluate"]["trials"] = int(
            np.count_nonzero(ids[trial_parent - first] == gll)
        )
        return out

    def write(self, path):
        """Write every span as CSV: index,name,start_s,end_s,parent."""
        with open(path, "w") as fh:
            fh.write("index,name,start_s,end_s,parent\n")
            for i in range(len(self.name_id)):
                fh.write(f"{i},{self.names[self.name_id[i]]},"
                         f"{self.start[i]:.9f},{self.end[i]:.9f},{self.parent[i]}\n")


class CountingOperator:
    """Operator proxy that only counts applications (tracing off)."""

    def __init__(self, op):
        self._op = op
        self.n = op.n
        self.applies = 0

    def trace(self):
        return self._op.trace()

    def apply(self, x):
        self.applies += 1
        return self._op.apply(x)


class TracedOperator(CountingOperator):
    """Operator proxy that records an ``operators.apply`` span per call."""

    def __init__(self, op, tracer):
        super().__init__(op)
        self._tracer = tracer

    def apply(self, x):
        self.applies += 1
        self._tracer.apply_cols += 1 if np.ndim(x) == 1 else np.shape(x)[1]
        idx = self._tracer.open(APPLY)
        out = self._op.apply(x)
        self._tracer.close(idx)
        return out


@contextlib.contextmanager
def installed(tracer):
    """Rebind every patch point to a span-recording wrapper; restore on exit."""
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in PATCH_POINTS]
    try:
        for owner, attr, name in PATCH_POINTS:
            wrapped = tracer.span(name, owner.__dict__[attr])
            if attr == "gll_search":
                wrapped = _count_line_search(tracer, wrapped)
            setattr(owner, attr, wrapped)
        yield tracer
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)


def _count_line_search(tracer, fn):
    def counted(*args, **kwargs):
        ls = fn(*args, **kwargs)
        tracer.backtracks += ls.t
        tracer.capped += int(ls.capped)
        return ls

    return counted
