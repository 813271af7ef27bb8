"""Wall-clock benchmarking of the batch evaluators with log-log scaling fits.

The protocol: for each mesh size k, draw a fresh seeded random mesh, run the
prepared evaluator ``repeats`` times sequentially, and record the mean and
sample standard deviation of the wall time.  Input parsing, symbolic
construction and compilation happen once in ``prepare_*`` before timing
starts; the timed region covers per-point evaluation and output layout.
A log10-log10 ordinary-least-squares fit of mean time against mesh size
summarizes the empirical scaling: slope near 1 means linear growth in the
point count.

``method_case`` builds a method's case from its ``prepare_*`` inputs; it
is the one place that knows how each method takes its dimension, and the
command line builds every case through it.  ``benchmark_suite`` provides a
fixed set of inputs — one per method, built by ``method_case`` — used by
the scaling tests and the command-line ``bench`` subcommand.
"""

from __future__ import annotations

import gc
import platform
import statistics
import timeit
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, Sequence

import numpy as np

from . import evaluate as ev
from .evaluate import EvalOptions
from .geometry import BatchResult, Mesh, Multivector, MultivectorError, random_mesh

__all__ = [
    "TimingReport",
    "BenchCase",
    "method_case",
    "time_method",
    "fit_loglog",
    "benchmark_suite",
    "default_environment",
]


def default_environment() -> str:
    return (
        f"python {platform.python_version()}, numpy {np.__version__}, "
        f"{platform.platform()}"
    )


@dataclass(frozen=True)
class TimingReport:
    """Per-size wall-time statistics plus an optional log-log fit."""

    method: str
    sizes: tuple[int, ...]
    mean_s: tuple[float, ...]
    std_s: tuple[float, ...]
    repeats: int
    seed: int
    mode: str = "records"  # the output layout the evaluator was timed in
    environment: str = ""
    slope: float | None = None
    intercept: float | None = None
    r2: float | None = None
    threads: tuple[int, ...] | None = None  # per size, the threads its calls ran on

    def __post_init__(self):
        if len(self.sizes) != len(self.mean_s) or len(self.sizes) != len(
            self.std_s
        ):
            raise MultivectorError("sizes, mean_s, and std_s must align")
        if any(b <= a for a, b in zip(self.sizes, self.sizes[1:])):
            raise MultivectorError(
                f"sizes must be strictly increasing, got {self.sizes}"
            )
        if any(m <= 0 for m in self.mean_s):
            raise MultivectorError("mean times must be positive")
        if any(s < 0 for s in self.std_s):
            raise MultivectorError("standard deviations must be non-negative")
        if self.r2 is not None and not 0.0 <= self.r2 <= 1.0:
            raise MultivectorError(f"R^2 must lie in [0, 1], got {self.r2}")
        if self.threads is not None and len(self.threads) != len(self.sizes):
            raise MultivectorError("sizes and threads must align")

    def to_json_dict(self) -> dict:
        return {
            "method": self.method,
            "sizes": list(self.sizes),
            "mean_s": list(self.mean_s),
            "std_s": list(self.std_s),
            "slope": self.slope,
            "intercept": self.intercept,
            "r2": self.r2,
            "repeats": self.repeats,
            "seed": self.seed,
            "mode": self.mode,
            "threads": None if self.threads is None else list(self.threads),
            "environment": self.environment,
        }


def time_method(
    case: BenchCase,
    sizes: Sequence[int],
    options: EvalOptions | None = None,
    repeats: int = 5,
    seed: int = 0,
) -> TimingReport:
    """Prepare a case's evaluator and time it over seeded random meshes of
    each size.

    ``case.factory(options)`` runs once, before timing starts.  The report
    names the case's method and the ``mode`` of the options (default
    ``EvalOptions()``) the evaluator was prepared with, and per size the
    threads its calls ran on (the warm-up call's ``BatchResult.threads``):
    a fit across sizes that ran on different thread counts is not per-point
    work.  Mesh generation is excluded from the timed region; each repeat
    times a single evaluator call and one read of its ``data`` (records
    build there).  Per size, garbage from earlier work is collected, then
    one untimed warm-up call pre-faults pages and rebuilds allocator
    arenas, and each repeat runs under ``timeit``, which pauses the cyclic
    garbage collector during the timed call (reference counting still frees
    its output), so the repeats measure steady-state cost.
    """
    options = EvalOptions() if options is None else options
    # Prepared first, so that an input error outranks a bad repeat count.
    evaluator = case.factory(options)
    if repeats < 1:
        raise MultivectorError(f"repeats must be >= 1, got {repeats}")
    sizes = tuple(int(k) for k in sizes)
    means, stds, threads = [], [], []
    for index, k in enumerate(sizes):
        mesh = random_mesh(k, case.dim, seed=seed + index)
        gc.collect()
        warm_up = evaluator(mesh)
        warm_up.data
        threads.append(warm_up.threads)
        del warm_up  # freed before the timed calls, as each of them is
        samples = timeit.Timer(lambda: evaluator(mesh).data).repeat(repeats, number=1)
        means.append(statistics.fmean(samples))
        stds.append(statistics.stdev(samples) if repeats > 1 else 0.0)
    return TimingReport(
        method=case.method,
        sizes=sizes,
        mean_s=tuple(means),
        std_s=tuple(stds),
        repeats=repeats,
        seed=seed,
        mode=options.mode,
        environment=default_environment(),
        threads=tuple(threads),
    )


def fit_loglog(report: TimingReport) -> TimingReport:
    """Attach the log10-log10 least-squares fit of mean time vs size."""
    if len(report.sizes) < 2:
        raise MultivectorError(
            f"log-log fit needs at least 2 sizes, got {len(report.sizes)}"
        )
    xs = np.log10(np.array(report.sizes, dtype=float))
    ys = np.log10(np.array(report.mean_s, dtype=float))
    slope, intercept = np.polyfit(xs, ys, 1)
    predicted = slope * xs + intercept
    ss_res = float(np.sum((ys - predicted) ** 2))
    ss_tot = float(np.sum((ys - np.mean(ys)) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return replace(
        report,
        slope=float(slope),
        intercept=float(intercept),
        r2=min(max(r2, 0.0), 1.0),
    )


# --- Fixed benchmark input set ---------------------------------------------

# One representative input per method: a 3D linear bivector with quadratic
# Hamiltonian/Casimir data, a heavy flat-at-the-cone one-form for the
# coboundary (a large derived field to build and compile), a quartic
# bivector for the divergence-type methods (its divergence is nonzero, so
# their timing reflects real per-point work rather than empty-result
# assembly), and a pair of Casimirs on R^4 for the constructed-bivector
# method.

_P3 = {(1, 2): "-x3", (1, 3): "-x2", (2, 3): "x1"}
_P3_NEG = {(1, 2): "x3", (1, 3): "x2", (2, 3): "-x1"}
_Q3 = {
    (1, 2): "1/4*x3*(x1**4 + x2**4 + x3**4)",
    (1, 3): "-1/4*x2*(x1**4 + x2**4 + x3**4)",
    (2, 3): "1/4*x1*(x1**4 + x2**4 + x3**4)",
}
# Radially modulated rotational field f(x) * (x3, -x2, x1)-type: its
# transcendental coefficients give the matrix method enough per-point
# arithmetic that the timing is not dominated by fixed call overhead at
# small sizes or by output bandwidth at large ones.
_BUMP = "(exp(-x1**2-x2**2-x3**2) + 1/(1 + x1**2+x2**2+x3**2) + sin(x1*x2)*cos(x3))"
_E3 = {
    (1, 2): f"x3*{_BUMP}",
    (1, 3): f"-x2*{_BUMP}",
    (2, 3): f"x1*{_BUMP}",
}
_H3 = "x1**2 + x2**2 - x3**2"
_G3 = "x1 + x2 + x3"
_ALPHA3 = {(1,): "x1", (2,): "x2", (3,): "-x3"}
_BETA3 = {(1,): "1", (2,): "1", (3,): "1"}
_HEAVY_ONE_FORM = {
    (1,): "x1 * x3 * exp(-1/(x1**2 + x2**2 - x3**2)**2) / (x1**2 + x2**2)",
    (2,): "x2 * x3 * exp(-1/(x1**2 + x2**2 - x3**2)**2) / (x1**2 + x2**2)",
    (3,): "exp(-1/(x1**2 + x2**2 - x3**2)**2)",
}
_LAMBDA3 = {(1, 2): "x1 - x2", (1, 3): "x1 - x3", (2, 3): "x2 - x3"}
_CASIMIRS4 = ["1/2*x4", "-x1**2 + x2**2 + x3**2"]


@dataclass(frozen=True)
class BenchCase:
    """A method name, its ambient dimension, and an evaluator factory."""

    method: str
    dim: int
    factory: Callable[[EvalOptions], Callable[[Mesh], BatchResult]]


def method_case(method: str, inputs: Sequence, dim: int | None = None) -> BenchCase:
    """The case of ``num_<name>`` whose factory calls ``evaluate.prepare_<name>``
    with ``inputs``, in its parameter order, and the options it is given.

    The factory is ``partial(prepare, *inputs, dim=dim)``, with two
    exceptions: the R^3 normal form takes no ``dim`` and its case dimension
    is 3, and the Flaschka-Ratiu construction takes ``dim`` by position.
    Otherwise the case dimension is that of the first input if it is a
    ``Multivector``, else ``dim``.
    """
    if not (method.startswith("num_") and method in ev.__all__):
        raise MultivectorError(f"unknown method {method!r}")
    prepare = getattr(ev, "prepare_" + method.removeprefix("num_"))
    if method == "num_linear_normal_form_r3":
        return BenchCase(method, 3, partial(prepare, *inputs))
    case_dim = inputs[0].dim if isinstance(inputs[0], Multivector) else dim
    if case_dim is None:
        raise MultivectorError(f"{method}: no input gives a dimension; pass dim")
    if method == "num_flaschka_ratiu_bivector":
        return BenchCase(method, case_dim, partial(prepare, *inputs, dim))
    return BenchCase(method, case_dim, partial(prepare, *inputs, dim=dim))


# Each method's ``prepare_*`` inputs; every case is on R^3 but Flaschka-Ratiu's.
_SUITE = {
    "num_bivector": (_P3,),
    "num_bivector_to_matrix": (_E3,),
    "num_hamiltonian_vf": (_P3, _H3),
    "num_poisson_bracket": (_P3, _H3, _G3),
    "num_sharp_morphism": (_P3, _ALPHA3),
    "num_coboundary_operator": (_P3, _HEAVY_ONE_FORM),
    "num_modular_vf": (_Q3, "exp(x3)"),
    "num_curl_operator": (_Q3, "1"),
    "num_one_forms_bracket": (_P3, _ALPHA3, _BETA3),
    "num_gauge_transformation": (_P3, _LAMBDA3),
    "num_linear_normal_form_r3": (_P3_NEG,),
    "num_flaschka_ratiu_bivector": (_CASIMIRS4,),
}


def benchmark_suite() -> dict[str, BenchCase]:
    """The fixed per-method benchmark inputs, keyed by method name."""
    return {
        method: method_case(method, inputs, 4 if method == "num_flaschka_ratiu_bivector" else 3)
        for method, inputs in _SUITE.items()
    }
