"""Spans and counters around roprec's layers, recorded from outside roprec.

``Tracer`` wraps every public function of each roprec module and the
numpy/scipy LAPACK entry points roprec calls, by rebinding the names the
consuming modules look up (``roprec.solvers.apply_map``,
``numpy.linalg.lstsq``, ...).  Each wrapped call records a span
``[name, start, end, parent, request]``; a few very hot functions get a
call counter instead, because a span per call would distort the run.
``remove()`` restores every original binding.

A layer is the first component of a span name.  Its self time is the
duration of its spans minus the part covered by their child spans, so the
self times of all layers sum to the traced wall time of the requests.
"""

from __future__ import annotations

import collections
import functools
import inspect
import os
import sys
import time

LAYERS = ("cli", "harness", "solvers", "certify", "measure", "linalg", "fileio")
# (owner module, attribute) pairs of the LAPACK-backed entry points.
LAPACK = (("numpy.linalg", "lstsq"), ("numpy.linalg", "eigh"), ("numpy.linalg", "svd"),
          ("scipy.linalg", "cho_factor"), ("scipy.linalg", "cho_solve"))
# Called millions of times per solve: counted, not spanned.
COUNT_ONLY = {"solvers.prox_power_scalar", "measure.op_shape"}
SOLVER_ENTRY = ("schatten_p_minimize", "least_q_minimize", "phaselift_lad")


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = collections.Counter()
        self.request = 0
        self._stack = []
        self._saved = []  # (owner, attribute, original)

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        modules = [sys.modules[f"roprec.{layer}"] for layer in LAYERS]
        wrappers = {}  # id(original) -> (original, wrapper)
        for layer, mod in zip(LAYERS, modules):
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        for mod in [sys.modules["roprec"]] + modules:
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._rebind(mod, attr, hit[1])
        for owner_name, attr in LAPACK:
            owner = sys.modules[owner_name]
            self._rebind(owner, attr, self._wrap(f"lapack.{attr}", getattr(owner, attr)))

    def remove(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()
        return False

    def _rebind(self, owner, attr, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    # -- recording ----------------------------------------------------------

    def _wrap(self, name: str, fn):
        counts = self.counts
        if name in COUNT_ONLY:
            key = f"{name}.calls"

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)

            return counted

        spans, stack, clock = self.spans, self._stack, time.perf_counter
        on_return = self._return_hook(name)

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            idx = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.request]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                counts[f"{name}.errors"] += 1
                raise
            finally:
                span[2] = clock()
                stack.pop()
            if on_return is not None:
                on_return(args, result, span[2] - span[1])
            return result

        return spanned

    def _return_hook(self, name: str):
        counts = self.counts
        layer, _, func = name.partition(".")
        if layer == "solvers" and func in SOLVER_ENTRY:
            def solver_report(args, report, seconds):
                counts["solvers.reports"] += 1
                counts["solvers.iterations"] += report.iterations_used
                counts["solvers.restarts"] += len(report.objective_traces)
                counts["solvers.converged"] += bool(report.converged)
                counts[f"{name}.ok_s"] += seconds
                counts[f"{name}.iterations"] += report.iterations_used
            return solver_report
        if name == "measure.explicit_operator":
            def operator_bytes(args, result, seconds):
                counts[f"{name}.bytes"] += result.nbytes
            return operator_bytes
        if layer == "fileio" and func.startswith("write_"):
            def written(args, result, seconds):
                counts["fileio.bytes_written"] += os.path.getsize(args[0])
            return written
        return None

    # -- summary ------------------------------------------------------------

    def summary(self) -> dict:
        """Per-name calls and inclusive seconds, per-layer self seconds."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        calls = collections.Counter()
        inclusive = collections.defaultdict(float)
        self_s = collections.defaultdict(float)
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            calls[name] += 1
            inclusive[name] += end - start
            self_s[name.partition(".")[0]] += end - start - covered[i]
        return {"calls": calls, "s": inclusive, "self_s": self_s,
                "counts": collections.Counter(self.counts)}

    def reset(self) -> None:
        self.spans = []
        self.counts.clear()
        self._stack.clear()


def layer_metrics(summary: dict) -> dict:
    """The per-layer metrics of BENCHMARK.json from one traced cycle."""
    calls, secs, self_s, counts = (summary[k] for k in ("calls", "s", "self_s", "counts"))
    out = {
        "solvers.self_s": self_s["solvers"],
        "solvers.iterations": counts["solvers.iterations"],
        "solvers.restarts": counts["solvers.restarts"],
        "solvers.converged_ratio": (counts["solvers.converged"] / counts["solvers.reports"]
                                    if counts["solvers.reports"] else 0.0),
        "solvers.errors": sum(counts[f"solvers.{f}.errors"] for f in SOLVER_ENTRY),
    }
    for func in SOLVER_ENTRY:
        name = f"solvers.{func}"
        iters = counts[f"{name}.iterations"]
        out[f"{name}.s"] = secs[name]
        out[f"{name}.s_per_iter"] = counts[f"{name}.ok_s"] / iters if iters else 0.0
    for func in ("project_lq_ball", "prox_schatten_p", "project_l1_ball"):
        out[f"solvers.{func}.calls"] = calls[f"solvers.{func}"]
        out[f"solvers.{func}.s"] = secs[f"solvers.{func}"]
    out["solvers.prox_power_scalar.calls"] = counts["solvers.prox_power_scalar.calls"]
    for _, func in LAPACK:
        out[f"lapack.{func}.calls"] = calls[f"lapack.{func}"]
        out[f"lapack.{func}.s"] = secs[f"lapack.{func}"]
    out["lapack.cho_factor.failed"] = counts["lapack.cho_factor.errors"]
    out["measure.self_s"] = self_s["measure"]
    for func in ("apply_map", "adjoint_map"):
        out[f"measure.{func}.calls"] = calls[f"measure.{func}"]
        out[f"measure.{func}.s"] = secs[f"measure.{func}"]
    for func in ("sample_gaussian_rop", "check_feasible", "debias"):
        out[f"measure.{func}.s"] = secs[f"measure.{func}"]
    out["measure.explicit_operator.calls"] = calls["measure.explicit_operator"]
    out["measure.explicit_operator.bytes"] = counts["measure.explicit_operator.bytes"]
    out["linalg.self_s"] = self_s["linalg"]
    for func in ("svd", "singular_values", "schatten_norm", "spectahedron_project",
                 "simplex_project"):
        out[f"linalg.{func}.calls"] = calls[f"linalg.{func}"]
        out[f"linalg.{func}.s"] = secs[f"linalg.{func}"]
    out["certify.self_s"] = self_s["certify"]
    out["certify.estimate_rub.calls"] = calls["certify.estimate_rub"]
    out["certify.estimate_rub.s"] = secs["certify.estimate_rub"]
    out["harness.self_s"] = self_s["harness"]
    out["harness.plant_truth.s"] = secs["harness.plant_truth"]
    out["fileio.s"] = self_s["fileio"]
    out["fileio.bytes_written"] = counts["fileio.bytes_written"]
    out["cli.self_s"] = self_s["cli"]
    return out
