"""Spans around rbfstudy's public functions, recorded from outside the program.

``install`` replaces each traced function in every rbfstudy module that
holds it, because callers look functions up in their own namespace:
``study.py`` imports ``fill_distance`` by name, so wrapping it only in
``geometry`` would miss the study's calls. Methods are wrapped on their
class. numpy, scipy and mpmath are never wrapped. Spans (name, start, end,
parent, count, allocation peak) stay in memory until the process writes
them out; ``layer_metrics`` turns them into the per-layer metrics.
"""

from __future__ import annotations

import functools
import math
import statistics
import sys
import time
import tracemalloc

import numpy as np

NAME, START, END, PARENT, COUNT, PEAK = range(6)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, func, name: str, count=None, track_alloc: bool = False):
        """``func`` recording a span per call; ``count(*args, **kwargs)`` gives
        the span's work count, ``track_alloc`` its traced allocation peak."""

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1,
                    count(*args, **kwargs) if count else 0, 0]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            owns_alloc = track_alloc and not tracemalloc.is_tracing()
            if owns_alloc:
                tracemalloc.start()
            span[START] = time.perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                if owns_alloc:
                    span[PEAK] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                self._stack.pop()

        return wrapper


def _levels(config, *_, **__) -> int:
    return len(config.spacings if config.refinement_scheme == "grid" else config.counts)


def _fill_probes(domain, nodes, resolution=None) -> int:
    r = resolution or (128 if domain.dim <= 2 else 32)
    return (r + 1) ** domain.dim + r**domain.dim


def _unknowns(problem, *_, **__) -> int:
    dim, m = problem.kernel.dim, problem.kernel.cpd_order
    return len(problem.nodes) + (math.comb(dim + m - 1, dim) if m > 0 else 0)


def _pairs(self, *args, **kwargs) -> int:
    x = kwargs.get("x", args[-1] if args else None)
    return int(np.prod(np.shape(x)[:-1])) if np.ndim(x) > 1 else 1


def _mp_kernel_evals(kernel, centers, weights, poly_coeffs, nodes, probes, inner_probes,
                     alphas, *_, **__) -> int:
    """Kernel evaluations of one mp level, from sizes: the symmetric system,
    the right-hand side, and f and s at every value and derivative probe."""
    n, nc = len(nodes), len(centers)
    sweeps = len(probes) + len(alphas) * len(inner_probes)
    return n * (n + 1) // 2 + n * nc + sweeps * (nc + n)


FUNCTIONS = (
    # module, attribute, span name, work count
    ("study", "run_study", "study.run_study", _levels),
    ("study", "build_approximand", "study.build_approximand", None),
    ("study", "check_bounds", "study.check_bounds", None),
    ("study", "write_rows_csv", "study.write_outputs", None),
    ("study", "write_summary_json", "study.write_outputs", None),
    ("geometry", "fill_distance", "geometry.fill_distance", _fill_probes),
    ("geometry", "generate_points", "geometry.generate_points", None),
    ("polybasis", "is_determining_set", "polybasis.is_determining_set", None),
    ("interpolant", "solve", "interpolant.solve", _unknowns),
    ("interpolant", "assemble_system", "interpolant.assemble_system", None),
    ("bounds", "fit_mq_rate", "bounds.fit", None),
    ("bounds", "fit_gaussian_rate", "bounds.fit", None),
    ("highprec", "measure_level", "highprec.measure_level", _mp_kernel_evals),
    ("highprec", "estimate_condition", "highprec.estimate_condition", None),
)

METHODS = (
    # module, class, method, span name, work count, track allocations
    ("kernels", "Kernel", "evaluate", "kernels.evaluate", _pairs, False),
    ("kernels", "Kernel", "evaluate_derivative", "kernels.evaluate_derivative", _pairs, False),
    ("kernels", "Kernel", "gram", "kernels.gram", None, False),
    ("interpolant", "Interpolant", "evaluate", "interpolant.evaluate", None, True),
    ("interpolant", "Interpolant", "evaluate_derivative", "interpolant.evaluate_derivative",
     None, True),
    ("interpolant", "KernelExpansion", "evaluate", "interpolant.evaluate", None, True),
    ("interpolant", "KernelExpansion", "evaluate_derivative", "interpolant.evaluate_derivative",
     None, True),
)


def install(tracer: Tracer) -> None:
    """Wrap the traced functions wherever rbfstudy's modules look them up."""
    program = {name: mod for name, mod in sys.modules.items()
               if name == "rbfstudy" or name.startswith("rbfstudy.")}
    for module, attr, span, count in FUNCTIONS:
        original = getattr(program[f"rbfstudy.{module}"], attr)
        wrapper = tracer.wrap(original, span, count)
        for mod in program.values():
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
    for module, cls_name, attr, span, count, alloc in METHODS:
        cls = getattr(program[f"rbfstudy.{module}"], cls_name)
        setattr(cls, attr, tracer.wrap(getattr(cls, attr), span, count, alloc))


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer totals of one traced process.

    Kernel evaluations made inside ``kernels.gram`` count towards the Gram
    matrix, not towards ``kernels.evaluate``. A span's self time is its
    duration minus its direct children's (calls are sequential, so the
    children never overlap).
    """
    child_time = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child_time[s[PARENT]] += s[END] - s[START]

    def under_gram(s):
        return s[PARENT] >= 0 and spans[s[PARENT]][NAME] == "kernels.gram"

    def picked(name, skip_gram=False):
        return [(i, s) for i, s in enumerate(spans)
                if s[NAME] == name and not (skip_gram and under_gram(s))]

    def total(name, skip_gram=False):
        return sum(s[END] - s[START] for _, s in picked(name, skip_gram))

    def self_time(name):
        return sum(s[END] - s[START] - child_time[i] for i, s in picked(name))

    def counted(name, skip_gram=False):
        return sum(s[COUNT] for _, s in picked(name, skip_gram))

    evals = ("interpolant.evaluate", "interpolant.evaluate_derivative")
    return {
        "highprec.measure_level_s": total("highprec.measure_level"),
        "highprec.estimate_condition_s": total("highprec.estimate_condition"),
        "highprec.kernel_evals": counted("highprec.measure_level"),
        "interpolant.evaluate_s": total("interpolant.evaluate"),
        "interpolant.evaluate_derivative_s": total("interpolant.evaluate_derivative"),
        "kernels.evaluate_s": total("kernels.evaluate", skip_gram=True),
        "kernels.evaluate_derivative_s": total("kernels.evaluate_derivative", skip_gram=True),
        "kernels.pairs": counted("kernels.evaluate", True)
        + counted("kernels.evaluate_derivative", True),
        "interpolant.eval_peak_mb": max(
            (s[PEAK] for name in evals for _, s in picked(name)), default=0
        ) / 2**20,
        "interpolant.solve_s": total("interpolant.solve"),
        "interpolant.solve_self_s": self_time("interpolant.solve"),
        "interpolant.assemble_system_s": total("interpolant.assemble_system"),
        "kernels.gram_s": total("kernels.gram"),
        "interpolant.solves": len(picked("interpolant.solve")),
        "interpolant.unknowns": counted("interpolant.solve"),
        "geometry.fill_distance_s": total("geometry.fill_distance"),
        "geometry.fill_probes": counted("geometry.fill_distance"),
        "geometry.generate_points_s": total("geometry.generate_points"),
        "polybasis.is_determining_set_s": total("polybasis.is_determining_set"),
        "bounds.fit_s": total("bounds.fit"),
        "study.build_approximand_s": total("study.build_approximand"),
        "study.check_bounds_s": total("study.check_bounds"),
        "study.write_outputs_s": total("study.write_outputs"),
        "study.self_s": self_time("study.run_study"),
        "study.levels": counted("study.run_study"),
    }


def median_metrics(per_process: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(m[k] for m in per_process) for k in per_process[0]}
