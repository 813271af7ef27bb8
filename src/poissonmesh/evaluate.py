"""Batch numerical evaluation of the symbolic operators over point meshes.

Every public method maps (inputs, Mesh) to a BatchResult and comes in two
pieces: ``prepare_*`` validates the inputs, builds the derived symbolic
field once (Schouten bracket, sharp image, curl, normal form, minors) and
compiles its coefficients, returning an evaluator closure; calling the
evaluator with a mesh does only per-point work and output layout.  The
``num_*`` front ends chain the two.  Prepared evaluators are what the
benchmark harness times, so the split also fixes the timed region: parsing,
symbolic construction and compilation are outside it, per-point evaluation
and assembly are inside.  The gauge transformation is the one method that is
not a compiled field: it inverts a matrix per point.

Concurrency: meshes are processed in fixed-size row chunks (the chunk
boundaries never depend on the worker count), and worker threads only spread
the same chunk list, so outputs are bitwise identical for any worker count.

Output layout: every method evaluates float64 coefficient columns and lays
them out with the same two helpers.  ``records`` mode yields one mapping per
mesh point (the benchmarked mode); ``dense`` mode yields a scalar column
(k,), a vector block (k, m), or an antisymmetric matrix block (k, m, m).
Results of degree three or higher are records-only.  Only a normal form with
an unbound modulus differs: its records keep the modulus as residual text,
so each point is partially evaluated.  Non-finite values (poles on the mesh)
propagate into the output and are tallied in ``BatchResult.nonfinite``.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Mapping, Sequence

import numpy as np

from .expressions import (
    CompiledFunction,
    Expression,
    Num,
    compile_expression,
    differentiate,
    fold_add,
    fold_mul,
    parse,
    partial_eval,
    to_source,
)
from .geometry import BatchResult, Mesh, Multivector, MultivectorError, as_mesh
from .symbolic import (
    as_field,
    curl_sym,
    flaschka_ratiu_sym,
    linear_normal_form_r3,
    modular_vf_sym,
    one_forms_bracket_sym,
    schouten_coboundary,
    sharp_sym,
)

__all__ = [
    "EvalOptions",
    "MeshDimensionError",
    "GAUGE_SINGULAR_TOLERANCE",
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
    "prepare_bivector",
    "prepare_bivector_to_matrix",
    "prepare_hamiltonian_vf",
    "prepare_poisson_bracket",
    "prepare_sharp_morphism",
    "prepare_coboundary_operator",
    "prepare_modular_vf",
    "prepare_curl_operator",
    "prepare_one_forms_bracket",
    "prepare_gauge_transformation",
    "prepare_linear_normal_form_r3",
    "prepare_flaschka_ratiu_bivector",
]

_CHUNK_ROWS = 65536

GAUGE_SINGULAR_TOLERANCE = 1e-12


class MeshDimensionError(MultivectorError):
    """Mesh dimension does not match the field's dimension."""


@dataclass(frozen=True)
class EvalOptions:
    """Output mode, parameter bindings, and parallelism for batch methods.

    ``mode`` is "records" or "dense".  Dense output requires every free
    parameter bound through ``params`` (the normal-form method in records
    mode is the one consumer of unbound parameters, emitted as residual
    text).  ``workers`` is a thread count; None means single-threaded.
    """

    mode: str = "records"
    params: Mapping[str, float] = field(default_factory=dict)
    workers: int | None = None

    def __post_init__(self):
        if self.mode not in ("records", "dense"):
            raise MultivectorError(
                f"unknown output mode {self.mode!r}; expected 'records' or 'dense'"
            )


def _opts(options: EvalOptions | None) -> EvalOptions:
    return options if options is not None else EvalOptions()


def _check_mesh(mesh, m: int) -> Mesh:
    mesh = as_mesh(mesh)
    if mesh.dim != m:
        raise MeshDimensionError(
            f"mesh has dimension {mesh.dim}, field has dimension {m}"
        )
    return mesh


def _compile_coeffs(mv: Multivector, params) -> dict[tuple, CompiledFunction]:
    return {
        key: compile_expression(coeff, mv.dim, params) for key, coeff in mv.items()
    }


def _run_chunks(kernel, mesh: Mesh, workers: int | None) -> None:
    """Call ``kernel(points, rows)`` on fixed-size row chunks of the mesh.

    ``rows`` is the chunk's slice; the kernel writes its output into those
    rows of arrays the caller allocated, so chunks are never copied or
    joined.  Chunk boundaries are independent of the worker count and chunks
    write disjoint rows, so results are deterministic.
    """
    pts = mesh.points
    k = len(pts)
    spans = [slice(a, min(a + _CHUNK_ROWS, k)) for a in range(0, k, _CHUNK_ROWS)]
    run = lambda rows: kernel(pts[rows], rows)
    if workers is None or workers <= 1 or len(spans) == 1:
        for rows in spans:
            run(rows)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(run, spans))  # re-raises a kernel's exception


def _count_nonfinite(values: np.ndarray) -> int:
    return int(np.count_nonzero(~np.isfinite(values)))


# --- Shared assembly ---------------------------------------------------------


def _records_from_columns(keys, columns, k: int) -> list:
    """One dict per row from one 1-D column per key (``block.T`` of a block);
    a bool column (the gauge's ``valid``) gives Python bools."""
    keys = list(keys)
    if not keys:
        return [{} for _ in range(k)]
    records = []
    # tolist() converts a column to Python scalars at C speed; zipping the
    # ready lists into row dicts is several times faster than indexing the
    # arrays per entry.  Converting one chunk of rows at a time bounds the
    # lists, which only feed the dicts, so the records alone set the peak.
    for start in range(0, k, _CHUNK_ROWS):
        lists = [column[start : start + _CHUNK_ROWS].tolist() for column in columns]
        records += [dict(zip(keys, row)) for row in zip(*lists)]
    return records


def _dense_fill(out: np.ndarray, keys, columns) -> None:
    """Write one column per coefficient key into a dense (k,) / (k, m) /
    (k, m, m) block; a bivector key also fills its transposed entry with
    the negated column, so matrix blocks come out antisymmetric."""
    for key, column in zip(keys, columns):
        out[(slice(None),) + tuple(i - 1 for i in key)] = column
        if len(key) == 2:
            out[:, key[1] - 1, key[0] - 1] = -column


def _multivector_result(sym: Multivector, fns, keys, mesh, options) -> BatchResult:
    """Evaluate a compiled symbolic result over the mesh in the requested layout.

    ``keys`` fixes the coefficient columns, in order; a key without a
    compiled function is a structural zero and evaluates to a zero column.
    """
    m = sym.dim
    degree = sym.degree
    if options.mode == "dense" and degree > 2:
        raise MultivectorError(
            f"dense mode supports results of degree <= 2, got degree {degree}; "
            "use records mode"
        )

    columns = np.zeros((len(mesh), len(keys)))

    def kernel(pts, rows):
        for idx, key in enumerate(keys):
            if key in fns:
                columns[rows, idx] = fns[key].evaluate_block(pts)

    _run_chunks(kernel, mesh, options.workers)
    nonfinite = _count_nonfinite(columns)
    if options.mode == "records":
        record_keys = tuple("value" if key == () else key for key in keys)
        return BatchResult(
            "records",
            _records_from_columns(record_keys, columns.T, len(mesh)),
            keys=record_keys,
            nonfinite=nonfinite,
        )
    out = np.zeros((len(mesh),) + (m,) * degree)
    _dense_fill(out, keys, columns.T)
    kind = ("scalar", "vector", "matrix")[degree]
    return BatchResult(kind, out, nonfinite=nonfinite)


def _field_evaluator(sym: Multivector, options: EvalOptions, keys=None):
    """Compile ``sym`` once; the evaluator applies it to a mesh.

    ``keys`` are the output coefficients, by default the structurally
    nonzero ones; the vector methods key all m components, the bracket its
    one value.
    """
    fns = _compile_coeffs(sym, options.params)
    keys = tuple(sorted(fns)) if keys is None else keys

    def evaluator(mesh) -> BatchResult:
        mesh = _check_mesh(mesh, sym.dim)
        return _multivector_result(sym, fns, keys, mesh, options)

    return evaluator


def _components(m: int) -> tuple:
    return tuple((i,) for i in range(1, m + 1))


def _as_expression(source, m: int) -> Expression:
    return source if isinstance(source, Expression) else parse(str(source), m)


# --- 1. Bivector evaluation -------------------------------------------------


def prepare_bivector(P, options: EvalOptions | None = None, dim: int | None = None):
    P = as_field(P, dim, 2, "num_bivector")
    return _field_evaluator(P, _opts(options))


def num_bivector(P, mesh, options=None, dim=None) -> BatchResult:
    """Evaluate a bivector field's coefficients at every mesh point."""
    return prepare_bivector(P, options, dim)(mesh)


# --- 2. Matrix form ---------------------------------------------------------


def prepare_bivector_to_matrix(P, options=None, dim=None):
    P = as_field(P, dim, 2, "num_bivector_to_matrix")
    # The matrix form is a dense layout whatever the requested mode.
    return _field_evaluator(P, replace(_opts(options), mode="dense"))


def num_bivector_to_matrix(P, mesh, options=None, dim=None) -> BatchResult:
    """Evaluate the antisymmetric coefficient matrix at every mesh point."""
    return prepare_bivector_to_matrix(P, options, dim)(mesh)


# --- 3. Hamiltonian vector field -------------------------------------------


def prepare_hamiltonian_vf(P, h, options=None, dim=None):
    P = as_field(P, dim, 2, "num_hamiltonian_vf")
    field = schouten_coboundary(P, _as_expression(h, P.dim))
    return _field_evaluator(field, _opts(options), _components(P.dim))


def num_hamiltonian_vf(P, h, mesh, options=None, dim=None) -> BatchResult:
    """Evaluate the Hamiltonian vector field -M grad h at every mesh point."""
    return prepare_hamiltonian_vf(P, h, options, dim)(mesh)


# --- 4. Poisson bracket -----------------------------------------------------


def prepare_poisson_bracket(P, f, g, options=None, dim=None):
    options = _opts(options)
    P = as_field(P, dim, 2, "num_poisson_bracket")
    m = P.dim
    f_expr = _as_expression(f, m)
    g_expr = _as_expression(g, m)
    bracket: Expression = Num(0.0)
    # Structurally identical canonical ASTs bracket to zero: the zero field
    # compiles nothing, so an unbound parameter in f is not an error.
    if f_expr != g_expr:
        for (i,), x_i in schouten_coboundary(P, f_expr).items():
            bracket = fold_add(bracket, fold_mul(differentiate(g_expr, i), x_i))
    return _field_evaluator(Multivector.build(m, 0, bracket), options, ((),))


def num_poisson_bracket(P, f, g, mesh, options=None, dim=None) -> BatchResult:
    """Evaluate the bracket {f, g} = <grad g, X_f> at every mesh point."""
    return prepare_poisson_bracket(P, f, g, options, dim)(mesh)


# --- 5. Sharp morphism ------------------------------------------------------


def prepare_sharp_morphism(P, alpha, options=None, dim=None):
    P = as_field(P, dim, 2, "num_sharp_morphism")
    return _field_evaluator(sharp_sym(P, alpha), _opts(options), _components(P.dim))


def num_sharp_morphism(P, alpha, mesh, options=None, dim=None) -> BatchResult:
    """Evaluate the sharp image -M alpha at every mesh point."""
    return prepare_sharp_morphism(P, alpha, options, dim)(mesh)


# --- 6. Coboundary (Schouten) operator -------------------------------------


def prepare_coboundary_operator(P, A, options=None, dim=None, degree=None):
    P = as_field(P, dim, 2, "num_coboundary_operator")
    return _field_evaluator(schouten_coboundary(P, A, degree=degree), _opts(options))


def num_coboundary_operator(P, A, mesh, options=None, dim=None, degree=None):
    """Evaluate the Schouten bracket [[P, A]] at every mesh point."""
    return prepare_coboundary_operator(P, A, options, dim, degree)(mesh)


# --- 7. Modular vector field ------------------------------------------------


def prepare_modular_vf(P, f0="1", options=None, dim=None):
    P = as_field(P, dim, 2, "num_modular_vf")
    return _field_evaluator(modular_vf_sym(P, f0), _opts(options))


def num_modular_vf(P, f0="1", mesh=None, options=None, dim=None) -> BatchResult:
    """Evaluate the modular vector field w.r.t. the volume f0 * Omega0."""
    return prepare_modular_vf(P, f0, options, dim)(mesh)


# --- 8. Curl (divergence) operator -----------------------------------------


def prepare_curl_operator(A, f0="1", options=None, dim=None, degree=None):
    A = as_field(A, dim, degree, "num_curl_operator")
    return _field_evaluator(curl_sym(A, f0), _opts(options))


def num_curl_operator(A, f0="1", mesh=None, options=None, dim=None, degree=None):
    """Evaluate the divergence of A w.r.t. f0 * Omega0 at every mesh point."""
    return prepare_curl_operator(A, f0, options, dim, degree)(mesh)


# --- 9. Bracket of one-forms ------------------------------------------------


def prepare_one_forms_bracket(P, alpha, beta, options=None, dim=None):
    P = as_field(P, dim, 2, "num_one_forms_bracket")
    field = one_forms_bracket_sym(P, alpha, beta)
    return _field_evaluator(field, _opts(options), _components(P.dim))


def num_one_forms_bracket(P, alpha, beta, mesh, options=None, dim=None):
    """Evaluate the bracket of one-forms induced by P at every mesh point."""
    return prepare_one_forms_bracket(P, alpha, beta, options, dim)(mesh)


# --- 10. Gauge transformation ----------------------------------------------


def prepare_gauge_transformation(P, lam, options=None, dim=None):
    options = _opts(options)
    P = as_field(P, dim, 2, "num_gauge_transformation")
    m = P.dim
    lam = as_field(lam, m, 2, "num_gauge_transformation")
    P_fns = _compile_coeffs(P, options.params)
    lam_fns = _compile_coeffs(lam, options.params)
    identity = np.eye(m)
    upper = [(i, j) for i in range(1, m + 1) for j in range(i + 1, m + 1)]

    def evaluator(mesh) -> BatchResult:
        mesh = _check_mesh(mesh, m)
        out = np.full((len(mesh), m, m), np.nan)
        valid = np.zeros(len(mesh), dtype=bool)

        def kernel(pts, rows):
            k = len(pts)
            M = np.zeros((k, m, m))
            _dense_fill(M, P_fns, (fn.evaluate_block(pts) for fn in P_fns.values()))
            L = np.zeros((k, m, m))
            _dense_fill(L, lam_fns, (fn.evaluate_block(pts) for fn in lam_fns.values()))
            G = identity - L @ M
            with np.errstate(all="ignore"):
                dets = np.linalg.det(G)
            ok = np.isfinite(dets) & (np.abs(dets) > GAUGE_SINGULAR_TOLERANCE)
            valid[rows] = ok
            if ok.any():
                with np.errstate(all="ignore"):
                    inverses = np.linalg.inv(G[ok])
                out[rows][ok] = M[ok] @ inverses

        _run_chunks(kernel, mesh, options.workers)
        nonfinite = _count_nonfinite(out[valid]) if valid.any() else 0
        if options.mode == "records":
            columns = [out[:, i - 1, j - 1] for i, j in upper] + [valid]
            records = _records_from_columns(upper + ["valid"], columns, len(mesh))
            return BatchResult(
                "records", records, keys=tuple(upper), valid=valid, nonfinite=nonfinite
            )
        return BatchResult("matrix", out, valid=valid, nonfinite=nonfinite)

    return evaluator


def num_gauge_transformation(P, lam, mesh, options=None, dim=None) -> BatchResult:
    """Evaluate the gauge transform M (I - Lambda M)^{-1} at every point.

    Points where |det(I - Lambda M)| <= 1e-12 are marked invalid: the valid
    mask is False there, and matrix entries are NaN.
    """
    return prepare_gauge_transformation(P, lam, options, dim)(mesh)


# --- 11. Linear normal form on R^3 -----------------------------------------


def prepare_linear_normal_form_r3(P, options=None):
    options = _opts(options)
    rep = linear_normal_form_r3(P).representative
    if options.mode == "dense" or rep.free_parameters().issubset(options.params):
        return _field_evaluator(rep, options)
    # The class modulus is unbound: records keep it as residual text.
    keys = rep.keys()
    params = options.params

    def evaluator(mesh) -> BatchResult:
        mesh = _check_mesh(mesh, 3)
        records = []
        nonfinite = 0
        for point in mesh.points:
            rec = {}
            for key in keys:
                value = partial_eval(rep.coefficient(key), 3, params, point)
                if isinstance(value, float):
                    rec[key] = value
                    if not np.isfinite(value):
                        nonfinite += 1
                else:
                    rec[key] = to_source(value)
            records.append(rec)
        return BatchResult("records", records, keys=keys, nonfinite=nonfinite)

    return evaluator


def num_linear_normal_form_r3(P, mesh, options=None) -> BatchResult:
    """Evaluate the normal-form representative of a linear bivector on R^3.

    Records mode contains residual text in the modulus parameter `a` only
    while `a` is unbound; dense mode requires `a` bound through the options.
    """
    return prepare_linear_normal_form_r3(P, options)(mesh)


# --- 12. Flaschka-Ratiu bivector -------------------------------------------


def prepare_flaschka_ratiu_bivector(casimirs: Sequence, dim: int, options=None):
    return _field_evaluator(flaschka_ratiu_sym(casimirs, dim), _opts(options))


def num_flaschka_ratiu_bivector(casimirs, dim, mesh, options=None) -> BatchResult:
    """Evaluate the bivector with prescribed Casimirs at every mesh point."""
    return prepare_flaschka_ratiu_bivector(casimirs, dim, options)(mesh)
