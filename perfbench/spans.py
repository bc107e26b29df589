"""Span tracer for the benchmark's traced runs.

Wraps modnod's public functions in every modnod module namespace that holds
them, from outside the library:

* span functions record one span each (name, start, end, parent span,
  task id), kept in memory and written out when the run ends;
* leaf functions (``vector_field``, ``jacobian``) and the numpy/scipy eigen
  and linear solves are too frequent for a span per call: they are counted,
  and timed in aggregate, against the innermost open span.

Per-layer metrics are derived from the spans afterwards; counts are
normalised per round of the workload's task list, so they repeat exactly
between runs of the same seed.
"""

from __future__ import annotations

import json
import sys
import time

import numpy as np

#: (module, function) pairs traced as spans
SPAN_FUNCS = [
    ("cli", "main"),
    ("config", "parse_config"),
    ("continuation", "diagram"),
    ("continuation", "trace_branch"),
    ("continuation", "detect_events"),
    ("continuation", "switch_branch"),
    ("continuation", "newton_equilibrium"),
    ("dynamics", "settle"),
    ("dynamics", "integrate"),
    ("spectral", "leading_eigenpair"),
    ("reduction", "ls_derivatives"),
    ("reduction", "ls_reduced_g"),
    ("output", "branches_to_csv"),
    ("output", "branches_to_svg"),
    ("output", "trajectory_to_csv"),
]

# counter slots of a span record
NAME, START, END, PARENT, TASK, VF, JAC, EIG, SOLVE, INFO = range(10)
LEAF_SLOTS = {"vector_field": VF, "jacobian": JAC}

#: per-layer metrics: name -> (unit, better)
METRICS = {
    "model.vector_field.calls": ("count", "lower"),
    "model.vector_field.us_per_call": ("us", "lower"),
    "model.jacobian.calls": ("count", "lower"),
    "model.jacobian.us_per_call": ("us", "lower"),
    "dynamics.settle.ms_per_call": ("ms", "lower"),
    "dynamics.settle.rhs_per_call": ("count", "lower"),
    "dynamics.integrate.ms_per_call": ("ms", "lower"),
    "dynamics.integrate.rhs_per_call": ("count", "lower"),
    "continuation.points": ("count", "lower"),
    "continuation.jacobians_per_point": ("count", "lower"),
    "continuation.eigen_solves_per_point": ("count", "lower"),
    "continuation.linear_solves_per_point": ("count", "lower"),
    "continuation.trace_branch.self_ms": ("ms", "lower"),
    "continuation.detect_events.self_ms": ("ms", "lower"),
    "continuation.switch_branch.self_ms": ("ms", "lower"),
    "continuation.diagram.self_ms": ("ms", "lower"),
    "continuation.switch_branch.ok_ratio": ("ratio", "higher"),
    "continuation.newton_equilibrium.calls": ("count", "lower"),
    "spectral.leading_eigenpair.us_per_call": ("us", "lower"),
    "reduction.ls_derivatives.ms_per_call": ("ms", "lower"),
    "reduction.ls_reduced_g.per_derivatives": ("count", "lower"),
    "output.branches_to_csv.ms_per_call": ("ms", "lower"),
    "output.branches_to_svg.ms_per_call": ("ms", "lower"),
    "output.trajectory_to_csv.ms_per_call": ("ms", "lower"),
    "config.parse_config.us_per_call": ("us", "lower"),
    "cli.main.self_ms": ("ms", "lower"),
}


class Tracer:
    """``install()`` patches, ``uninstall()`` restores every patched name.
    The caller sets ``task`` before each task and counts traced ``rounds``."""

    def __init__(self):
        root = [None, 0.0, 0.0, -1, None, 0, 0, 0, 0, None]
        self.spans = [root]
        self.stack = [0]
        self.leaf_time = {"vector_field": 0.0, "jacobian": 0.0}
        self.rounds = 0
        self.task = None
        self._patches = []

    # -- wrapping ------------------------------------------------------------
    def _span(self, fn, name):
        spans, stack, perf = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1], self.task, 0, 0, 0, 0, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = perf()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec[INFO] = "raised"
                raise
            else:
                if name == "continuation.trace_branch":
                    rec[INFO] = len(result.points)
                return result
            finally:
                rec[END] = perf()
                stack.pop()

        return traced

    def _leaf(self, fn, slot, timer_key):
        spans, stack, perf, times = self.spans, self.stack, time.perf_counter, self.leaf_time

        def counted(*args, **kwargs):
            spans[stack[-1]][slot] += 1
            if timer_key is None:
                return fn(*args, **kwargs)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                times[timer_key] += perf() - t0

        return counted

    def _patch_everywhere(self, original, wrapper):
        for mod in list(sys.modules.values()):
            if mod is None or not (mod.__name__ == "modnod" or mod.__name__.startswith("modnod.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def install(self):
        import scipy.linalg

        import modnod.model

        for module, func in SPAN_FUNCS:
            mod = sys.modules[f"modnod.{module}"]
            original = getattr(mod, func)
            self._patch_everywhere(original, self._span(original, f"{module}.{func}"))
        for func, slot in LEAF_SLOTS.items():
            original = getattr(modnod.model, func)
            self._patch_everywhere(original, self._leaf(original, slot, func))
        for mod, attr, slot in ((np.linalg, "eig", EIG), (np.linalg, "eigvals", EIG),
                                (scipy.linalg, "eig", EIG), (np.linalg, "solve", SOLVE)):
            original = getattr(mod, attr)
            self._patches.append((mod, attr, original))
            setattr(mod, attr, self._leaf(original, slot, None))

    def uninstall(self):
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches = []

    # -- analysis ------------------------------------------------------------
    def metrics(self) -> dict:
        spans = self.spans
        n = len(spans)
        inclusive = [list(s[VF:SOLVE + 1]) for s in spans]
        child_time = [0.0] * n
        for i in range(n - 1, 0, -1):
            parent = spans[i][PARENT]
            for c in range(4):
                inclusive[parent][c] += inclusive[i][c]
            child_time[parent] += spans[i][END] - spans[i][START]

        by_name = {}
        for i in range(1, n):
            by_name.setdefault(spans[i][NAME], []).append(i)

        def calls(name):
            return len(by_name.get(name, ()))

        def mean_dur(name, scale):
            idx = by_name.get(name, ())
            return scale * sum(spans[i][END] - spans[i][START] for i in idx) / len(idx) if idx else 0.0

        def self_ms_per_round(name):
            idx = by_name.get(name, ())
            return 1e3 * sum(spans[i][END] - spans[i][START] - child_time[i] for i in idx) / self.rounds

        def incl(name, slot):
            return sum(inclusive[i][slot - VF] for i in by_name.get(name, ()))

        def ratio(a, b):
            return a / b if b else 0.0

        total = [sum(s[slot] for s in spans) for slot in (VF, JAC)]
        points = sum(spans[i][INFO] or 0 for i in by_name.get("continuation.trace_branch", ()))
        switches = by_name.get("continuation.switch_branch", ())
        rounds = self.rounds
        values = {
            "model.vector_field.calls": total[0] / rounds,
            "model.vector_field.us_per_call": 1e6 * ratio(self.leaf_time["vector_field"], total[0]),
            "model.jacobian.calls": total[1] / rounds,
            "model.jacobian.us_per_call": 1e6 * ratio(self.leaf_time["jacobian"], total[1]),
            "dynamics.settle.ms_per_call": mean_dur("dynamics.settle", 1e3),
            "dynamics.settle.rhs_per_call": ratio(incl("dynamics.settle", VF), calls("dynamics.settle")),
            "dynamics.integrate.ms_per_call": mean_dur("dynamics.integrate", 1e3),
            "dynamics.integrate.rhs_per_call": ratio(incl("dynamics.integrate", VF),
                                                     calls("dynamics.integrate")),
            "continuation.points": points / rounds,
            "continuation.jacobians_per_point": ratio(incl("continuation.diagram", JAC), points),
            "continuation.eigen_solves_per_point": ratio(incl("continuation.diagram", EIG), points),
            "continuation.linear_solves_per_point": ratio(incl("continuation.diagram", SOLVE), points),
            "continuation.trace_branch.self_ms": self_ms_per_round("continuation.trace_branch"),
            "continuation.detect_events.self_ms": self_ms_per_round("continuation.detect_events"),
            "continuation.switch_branch.self_ms": self_ms_per_round("continuation.switch_branch"),
            "continuation.diagram.self_ms": self_ms_per_round("continuation.diagram"),
            "continuation.switch_branch.ok_ratio": ratio(
                sum(spans[i][INFO] != "raised" for i in switches), len(switches)),
            "continuation.newton_equilibrium.calls": calls("continuation.newton_equilibrium") / rounds,
            "spectral.leading_eigenpair.us_per_call": mean_dur("spectral.leading_eigenpair", 1e6),
            "reduction.ls_derivatives.ms_per_call": mean_dur("reduction.ls_derivatives", 1e3),
            "reduction.ls_reduced_g.per_derivatives": ratio(calls("reduction.ls_reduced_g"),
                                                            calls("reduction.ls_derivatives")),
            "output.branches_to_csv.ms_per_call": mean_dur("output.branches_to_csv", 1e3),
            "output.branches_to_svg.ms_per_call": mean_dur("output.branches_to_svg", 1e3),
            "output.trajectory_to_csv.ms_per_call": mean_dur("output.trajectory_to_csv", 1e3),
            "config.parse_config.us_per_call": mean_dur("config.parse_config", 1e6),
            "cli.main.self_ms": self_ms_per_round("cli.main"),
        }
        return {k: {"value": float(v), "unit": METRICS[k][0]} for k, v in values.items()}

    def write(self, path, extra: dict):
        t0 = self.spans[1][START] if len(self.spans) > 1 else 0.0
        fields = ["name", "start_s", "end_s", "parent", "task", "vector_field", "jacobian",
                  "eigen", "solve", "info"]
        # span i is row i - 1; the root pseudo-span becomes parent -1
        rows = [[s[NAME], s[START] - t0, s[END] - t0, s[PARENT] - 1] + s[TASK:]
                for s in self.spans[1:]]
        doc = dict(extra, rounds=self.rounds, span_fields=fields, spans=rows)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc) + "\n", encoding="utf-8")
