"""Wall-clock benchmarking of the batch evaluators with log-log scaling fits.

The protocol: for each mesh size k, draw a fresh seeded random mesh, run the
prepared evaluator ``repeats`` times sequentially, and record the mean and
sample standard deviation of the wall time.  Input parsing, symbolic
construction and compilation happen once in ``prepare_*`` before timing
starts; the timed region covers per-point evaluation and output layout.
A log10-log10 ordinary-least-squares fit of mean time against mesh size
summarizes the empirical scaling: slope near 1 means linear growth in the
point count.

``benchmark_suite`` provides a fixed set of inputs — one per method — used
by the scaling tests and the command-line ``bench`` subcommand.
"""

from __future__ import annotations

import gc
import platform
import statistics
import time
from dataclasses import dataclass, replace
from typing import Callable, Mapping, Sequence

import numpy as np

from . import evaluate as ev
from .evaluate import EvalOptions
from .geometry import BatchResult, Mesh, MultivectorError, random_mesh

__all__ = [
    "TimingReport",
    "BenchCase",
    "time_method",
    "fit_loglog",
    "benchmark_suite",
    "run_benchmark",
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
    workers: int | None = None
    environment: str = ""
    slope: float | None = None
    intercept: float | None = None
    r2: float | None = None

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
            "workers": self.workers,
            "environment": self.environment,
        }

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "TimingReport":
        return cls(
            method=data["method"],
            sizes=tuple(int(k) for k in data["sizes"]),
            mean_s=tuple(float(v) for v in data["mean_s"]),
            std_s=tuple(float(v) for v in data["std_s"]),
            repeats=int(data["repeats"]),
            seed=int(data["seed"]),
            workers=data.get("workers"),
            environment=data.get("environment", ""),
            slope=data.get("slope"),
            intercept=data.get("intercept"),
            r2=data.get("r2"),
        )


def time_method(
    method: str,
    evaluator: Callable[[Mesh], BatchResult],
    dim: int,
    sizes: Sequence[int],
    repeats: int = 5,
    seed: int = 0,
    workers: int | None = None,
    environment: str | None = None,
) -> TimingReport:
    """Time a prepared evaluator over seeded random meshes of each size.

    Mesh generation is excluded from the timed region; each repeat times a
    single evaluator call (per-point work and output layout only).
    Per size, garbage from earlier work is collected, then one untimed
    warm-up call pre-faults pages and rebuilds allocator arenas, and the
    cyclic garbage collector stays paused across the timed repeats (as
    ``timeit`` does; reference counting still frees each call's output),
    so the repeats measure steady-state cost.
    """
    if repeats < 1:
        raise MultivectorError(f"repeats must be >= 1, got {repeats}")
    sizes = tuple(int(k) for k in sizes)
    means, stds = [], []
    gc_was_enabled = gc.isenabled()
    try:
        for index, k in enumerate(sizes):
            mesh = random_mesh(k, dim, seed=seed + index)
            gc.collect()
            evaluator(mesh)
            if gc_was_enabled:
                gc.disable()
            samples = []
            for _ in range(repeats):
                start = time.perf_counter()
                evaluator(mesh)
                samples.append(time.perf_counter() - start)
            if gc_was_enabled:
                gc.enable()
            means.append(statistics.fmean(samples))
            stds.append(statistics.stdev(samples) if repeats > 1 else 0.0)
    finally:
        if gc_was_enabled:
            gc.enable()
    return TimingReport(
        method=method,
        sizes=sizes,
        mean_s=tuple(means),
        std_s=tuple(stds),
        repeats=repeats,
        seed=seed,
        workers=workers,
        environment=(
            default_environment() if environment is None else environment
        ),
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


def benchmark_suite() -> dict[str, BenchCase]:
    """The fixed per-method benchmark inputs, keyed by method name."""
    cases = [
        BenchCase(
            "num_bivector", 3,
            lambda o: ev.prepare_bivector(_P3, o, dim=3),
        ),
        BenchCase(
            "num_bivector_to_matrix", 3,
            lambda o: ev.prepare_bivector_to_matrix(_E3, o, dim=3),
        ),
        BenchCase(
            "num_hamiltonian_vf", 3,
            lambda o: ev.prepare_hamiltonian_vf(_P3, _H3, o, dim=3),
        ),
        BenchCase(
            "num_poisson_bracket", 3,
            lambda o: ev.prepare_poisson_bracket(_P3, _H3, _G3, o, dim=3),
        ),
        BenchCase(
            "num_sharp_morphism", 3,
            lambda o: ev.prepare_sharp_morphism(_P3, _ALPHA3, o, dim=3),
        ),
        BenchCase(
            "num_coboundary_operator", 3,
            lambda o: ev.prepare_coboundary_operator(
                _P3, _HEAVY_ONE_FORM, o, dim=3, degree=1
            ),
        ),
        BenchCase(
            "num_modular_vf", 3,
            lambda o: ev.prepare_modular_vf(_Q3, "exp(x3)", o, dim=3),
        ),
        BenchCase(
            "num_curl_operator", 3,
            lambda o: ev.prepare_curl_operator(_Q3, "1", o, dim=3, degree=2),
        ),
        BenchCase(
            "num_one_forms_bracket", 3,
            lambda o: ev.prepare_one_forms_bracket(_P3, _ALPHA3, _BETA3, o, dim=3),
        ),
        BenchCase(
            "num_gauge_transformation", 3,
            lambda o: ev.prepare_gauge_transformation(_P3, _LAMBDA3, o, dim=3),
        ),
        BenchCase(
            "num_linear_normal_form_r3", 3,
            lambda o: ev.prepare_linear_normal_form_r3(_P3_NEG, o),
        ),
        BenchCase(
            "num_flaschka_ratiu_bivector", 4,
            lambda o: ev.prepare_flaschka_ratiu_bivector(_CASIMIRS4, 4, o),
        ),
    ]
    return {case.method: case for case in cases}


def run_benchmark(
    case: BenchCase,
    sizes: Sequence[int],
    repeats: int = 5,
    seed: int = 0,
    workers: int | None = None,
    mode: str = "records",
    params: Mapping[str, float] | None = None,
) -> TimingReport:
    """Prepare a case's evaluator, time it over the sizes, and fit."""
    options = EvalOptions(mode=mode, params=dict(params or {}), workers=workers)
    evaluator = case.factory(options)
    report = time_method(
        case.method,
        evaluator,
        case.dim,
        sizes,
        repeats=repeats,
        seed=seed,
        workers=workers,
    )
    if len(report.sizes) >= 2:
        report = fit_loglog(report)
    return report
