"""Seeded workload definitions: prepared cases, meshes and operations.

A workload is a list of cases and a list of operations.  A case is one
method with its raw inputs (coefficient text) and its output layout; it is
prepared once.  An operation applies a prepared case to one mesh file and
writes one output file, as ``poissonmesh eval`` does.

Everything is a pure function of the seed: the library receives only the
generated coefficient text and the mesh files written here.  Meshes are
drawn with NumPy directly and saved in the formats ``geometry.load_mesh``
reads, so mesh generation shares no code with the library.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from poissonmesh import bench as suite_module
from poissonmesh import evaluate as ev

METHODS = (
    "num_bivector",
    "num_bivector_to_matrix",
    "num_hamiltonian_vf",
    "num_poisson_bracket",
    "num_sharp_morphism",
    "num_coboundary_operator",
    "num_modular_vf",
    "num_curl_operator",
    "num_one_forms_bracket",
    "num_gauge_transformation",
    "num_linear_normal_form_r3",
    "num_flaschka_ratiu_bivector",
)

# Methods whose evaluator builds a derived symbolic field on every call.
CONSTRUCTING = frozenset(
    {
        "num_coboundary_operator",
        "num_modular_vf",
        "num_curl_operator",
        "num_linear_normal_form_r3",
        "num_flaschka_ratiu_bivector",
    }
)

SAMPLE_ROWS = 16  # output rows checked per operation


@dataclass(frozen=True)
class Case:
    """One method with its raw inputs, prepared once per run."""

    case_id: int
    method: str
    dim: int
    inputs: Mapping  # raw coefficient text, keyed like the prepare_* arguments
    mode: str  # "dense" | "records"
    fmt: str  # output format: "npy" | "csv" | "jsonl"


@dataclass(frozen=True)
class Op:
    """One evaluation: a prepared case applied to one mesh file."""

    op_id: int
    case_id: int
    k: int
    dim: int
    mesh_file: str  # relative to the work directory
    out_file: str


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    cases: tuple[Case, ...]
    ops: tuple[Op, ...]


# --- Case inputs from poissonmesh.bench.benchmark_suite() --------------------


def suite_inputs() -> dict[str, tuple[int, dict]]:
    """(dim, raw inputs) per method, the same data ``benchmark_suite()`` uses.

    The coefficient maps are imported from ``poissonmesh.bench``; the two
    volume functions are the literals its factories pass.
    """
    s = suite_module
    return {
        "num_bivector": (3, {"P": s._P3}),
        "num_bivector_to_matrix": (3, {"P": s._E3}),
        "num_hamiltonian_vf": (3, {"P": s._P3, "h": s._H3}),
        "num_poisson_bracket": (3, {"P": s._P3, "f": s._H3, "g": s._G3}),
        "num_sharp_morphism": (3, {"P": s._P3, "alpha": s._ALPHA3}),
        "num_coboundary_operator": (
            3,
            {"P": s._P3, "A": s._HEAVY_ONE_FORM, "degree": 1},
        ),
        "num_modular_vf": (3, {"P": s._Q3, "f0": "exp(x3)"}),
        "num_curl_operator": (3, {"A": s._Q3, "f0": "1", "degree": 2}),
        "num_one_forms_bracket": (
            3,
            {"P": s._P3, "alpha": s._ALPHA3, "beta": s._BETA3},
        ),
        "num_gauge_transformation": (3, {"P": s._P3, "lam": s._LAMBDA3}),
        "num_linear_normal_form_r3": (3, {"P": s._P3_NEG}),
        "num_flaschka_ratiu_bivector": (4, {"casimirs": list(s._CASIMIRS4)}),
    }


def prepare(case: Case, options: ev.EvalOptions):
    """Call the case's ``evaluate.prepare_*`` function; returns the evaluator."""
    i, d = case.inputs, case.dim
    method = case.method
    if method == "num_bivector":
        return ev.prepare_bivector(i["P"], options, dim=d)
    if method == "num_bivector_to_matrix":
        return ev.prepare_bivector_to_matrix(i["P"], options, dim=d)
    if method == "num_hamiltonian_vf":
        return ev.prepare_hamiltonian_vf(i["P"], i["h"], options, dim=d)
    if method == "num_poisson_bracket":
        return ev.prepare_poisson_bracket(i["P"], i["f"], i["g"], options, dim=d)
    if method == "num_sharp_morphism":
        return ev.prepare_sharp_morphism(i["P"], i["alpha"], options, dim=d)
    if method == "num_coboundary_operator":
        return ev.prepare_coboundary_operator(
            i["P"], i["A"], options, dim=d, degree=i["degree"]
        )
    if method == "num_modular_vf":
        return ev.prepare_modular_vf(i["P"], i["f0"], options, dim=d)
    if method == "num_curl_operator":
        return ev.prepare_curl_operator(
            i["A"], i["f0"], options, dim=d, degree=i["degree"]
        )
    if method == "num_one_forms_bracket":
        return ev.prepare_one_forms_bracket(
            i["P"], i["alpha"], i["beta"], options, dim=d
        )
    if method == "num_gauge_transformation":
        return ev.prepare_gauge_transformation(i["P"], i["lam"], options, dim=d)
    if method == "num_linear_normal_form_r3":
        return ev.prepare_linear_normal_form_r3(i["P"], options)
    if method == "num_flaschka_ratiu_bivector":
        return ev.prepare_flaschka_ratiu_bivector(i["casimirs"], d, options)
    raise ValueError(f"unknown method {method!r}")


def options_for(case: Case) -> ev.EvalOptions:
    # workers stays unset: the single-threaded baseline.
    return ev.EvalOptions(mode=case.mode)


# --- Seeded random polynomial inputs -----------------------------------------

# Terms per coefficient, cycled over the coefficients of each generated
# field.  The schedule is fixed, so every seed asks for the same amount of
# symbolic work and only the monomials change.  The largest derived sums stay
# far below the ~500-term sums that overflow the recursive tree walkers.
TERM_SCHEDULE = (3, 10, 17, 24, 32, 40)


class _PolyGen:
    def __init__(self, rng: np.random.Generator, dim: int):
        self.rng = rng
        self.dim = dim
        self.turn = 0

    def _terms(self) -> int:
        n = TERM_SCHEDULE[self.turn % len(TERM_SCHEDULE)]
        self.turn += 1
        return n

    def _monomial(self, coeff: int) -> str:
        exps = self.rng.integers(0, 4, size=self.dim)
        factors = [str(coeff)]
        for i, e in enumerate(exps, start=1):
            if e == 1:
                factors.append(f"x{i}")
            elif e > 1:
                factors.append(f"x{i}**{e}")
        return "*".join(factors)

    def poly(self) -> str:
        """Integer-coefficient polynomial with mixed signs."""
        text = ""
        for t in range(self._terms()):
            coeff = int(self.rng.integers(1, 10))
            negative = bool(self.rng.random() < 0.5)
            mono = self._monomial(coeff)
            if t == 0:
                text = ("-" if negative else "") + mono
            else:
                text += (" - " if negative else " + ") + mono
        return text

    def positive(self, terms: int) -> str:
        """1 plus positive monomials: a volume density with no zeros on [0,1)^m."""
        return "1 + " + " + ".join(
            self._monomial(int(self.rng.integers(1, 10))) for _ in range(terms)
        )

    def bivector(self) -> dict:
        m = self.dim
        return {(i, j): self.poly() for i in range(1, m + 1) for j in range(i + 1, m + 1)}

    def form(self) -> dict:
        return {(i,): self.poly() for i in range(1, self.dim + 1)}


def _linear_r3(rng: np.random.Generator) -> dict:
    """Random unimodular linear Poisson bivector on R^3.

    With w = (c23, -c13, c12) = L x for a symmetric L, the bivector satisfies
    the Jacobi identity; a non-singular L classifies as so3 or sl2.
    """
    while True:
        a = rng.integers(-5, 6, size=(3, 3))
        L = a + a.T
        if round(abs(np.linalg.det(L))) >= 1:
            break

    def linear(row) -> str:
        return " + ".join(f"{int(c)}*x{j}" for j, c in enumerate(row, start=1) if c) or "0"

    return {(2, 3): linear(L[0]), (1, 3): linear(-L[1]), (1, 2): linear(L[2])}


def symbolic_inputs(rng: np.random.Generator) -> dict[str, tuple[int, dict]]:
    """Random polynomial inputs on R^4 (the normal form lives on R^3)."""
    g = _PolyGen(rng, 4)
    out = {
        "num_bivector": {"P": g.bivector()},
        "num_bivector_to_matrix": {"P": g.bivector()},
        "num_hamiltonian_vf": {"P": g.bivector(), "h": g.poly()},
        "num_poisson_bracket": {"P": g.bivector(), "f": g.poly(), "g": g.poly()},
        "num_sharp_morphism": {"P": g.bivector(), "alpha": g.form()},
        "num_coboundary_operator": {"P": g.bivector(), "A": g.form(), "degree": 1},
        "num_modular_vf": {"P": g.bivector(), "f0": g.positive(6)},
        "num_curl_operator": {"A": g.bivector(), "f0": g.positive(6), "degree": 2},
        "num_one_forms_bracket": {
            "P": g.bivector(),
            "alpha": g.form(),
            "beta": g.form(),
        },
        "num_gauge_transformation": {"P": g.bivector(), "lam": g.bivector()},
        "num_flaschka_ratiu_bivector": {"casimirs": [g.poly(), g.poly()]},
    }
    dims = {method: (4, inputs) for method, inputs in out.items()}
    dims["num_linear_normal_form_r3"] = (3, {"P": _linear_r3(rng)})
    return dims


# --- Workloads ----------------------------------------------------------------


def _dense_npy(seed: int):
    k = 1_000_000
    plan = [(method, "dense", "npy", [k]) for method in METHODS]
    return suite_inputs(), plan, "npy"


def _records_text(seed: int):
    big, small = 100_000, 10_000
    # The operations named by the workload run at ~1e5 points (the normal
    # form's per-point partial evaluation at 1e4); the remaining methods run
    # at 1e4 so that every method appears in every workload's trace.
    sizes = {
        "num_hamiltonian_vf": big,
        "num_sharp_morphism": big,
        "num_one_forms_bracket": big,
        "num_gauge_transformation": big,
        "num_bivector_to_matrix": big,
        "num_flaschka_ratiu_bivector": big,
    }
    dense_csv = {"num_bivector_to_matrix", "num_flaschka_ratiu_bivector"}
    plan = []
    for method in METHODS:
        k = sizes.get(method, small)
        if method in dense_csv:
            plan.append((method, "dense", "csv", [k]))
        else:
            plan.append((method, "records", "jsonl", [k]))
    return suite_inputs(), plan, "csv"


def _symbolic_many(seed: int):
    k = 2_000
    rng = np.random.default_rng([seed, 0x5EED])
    plan = [(method, "records", "jsonl", [k, k, k]) for method in METHODS]
    return symbolic_inputs(rng), plan, "npy"


BUILDERS = {
    "dense_npy": _dense_npy,
    "records_text": _records_text,
    "symbolic_many": _symbolic_many,
}


def build(name: str, seed: int) -> Workload:
    """The workload's cases and operations for ``seed``."""
    if name not in BUILDERS:
        raise ValueError(f"unknown workload {name!r}; expected one of {sorted(BUILDERS)}")
    inputs, plan, mesh_fmt = BUILDERS[name](seed)
    cases, ops = [], []
    for method, mode, fmt, sizes in plan:
        dim, raw = inputs[method]
        case = Case(len(cases), method, dim, raw, mode, fmt)
        cases.append(case)
        for k in sizes:
            op_id = len(ops)
            ops.append(
                Op(
                    op_id,
                    case.case_id,
                    k,
                    dim,
                    f"mesh_{op_id:03d}.{mesh_fmt}",
                    f"out_{op_id:03d}.{fmt}",
                )
            )
    return Workload(name, seed, tuple(cases), tuple(ops))


# --- Meshes -------------------------------------------------------------------


def mesh_points(workload: Workload, op: Op) -> np.ndarray:
    """The op's mesh: uniform points in [0, 1)^dim from the seed and op id."""
    rng = np.random.default_rng([workload.seed, 0xBE7C, op.op_id])
    return rng.random((op.k, op.dim))


def sample_rows(workload: Workload, op: Op) -> np.ndarray:
    """Sorted indices of the output rows the correctness check reads back."""
    rng = np.random.default_rng([workload.seed, 0xC4EC, op.op_id])
    n = min(SAMPLE_ROWS, op.k)
    return np.sort(rng.choice(op.k, size=n, replace=False))


def write_meshes(workload: Workload, work_dir: str) -> dict[int, tuple]:
    """Write every op's mesh file; return (rows, points) of each op's sample."""
    samples = {}
    for op in workload.ops:
        points = mesh_points(workload, op)
        path = os.path.join(work_dir, op.mesh_file)
        if path.endswith(".npy"):
            np.save(path, points)
        else:
            np.savetxt(path, points, delimiter=",", fmt="%.17g")
        rows = sample_rows(workload, op)
        samples[op.op_id] = (rows, points[rows].copy())
    return samples
