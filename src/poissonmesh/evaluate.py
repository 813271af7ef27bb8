"""Batch numerical evaluation of the symbolic operators over point meshes.

Every public method maps (inputs, Mesh) to a BatchResult and comes in two
pieces: ``prepare_*`` validates the inputs, builds the derived symbolic
field once (Schouten bracket, sharp image, curl, normal form, minors) and
compiles all its coefficients into one program, returning an evaluator
closure; calling the evaluator with a mesh does only per-point work and
output layout.  The ``num_*`` front ends chain the two.  Prepared evaluators
are what the benchmark harness times, so the split also fixes the timed
region: parsing, symbolic construction and compilation are outside it,
per-point evaluation and assembly are inside.  The gauge transformation's
program computes P and Lambda, which feed a linear solve per point: one
Gauss-Jordan elimination over a chunk's points at once.

Chunks: meshes are processed in row chunks of ``_CHUNK_ROWS`` = 16,384 rows.
Each (k,) temporary of a program is then 128 KB, not 512 KB as at 65,536
rows, so a chunk's working set stays in the CPU cache: the dense calls of
``bench.benchmark_suite()`` at 10**6 points took about a fifth less time.
Smaller chunks cost more interpreter time per point, which worker threads
pay under the GIL: at 8,192 rows ``workers=2`` ran slower than serial for
the smaller programs.  Every op is row-wise, so the chunk size never
changes a value.  Worker threads only spread the same chunk list (the chunk
boundaries never depend on the worker count), so outputs are bitwise
identical for any worker count.

Output layout: a program writes each coefficient straight into the result.
``records`` mode fills a (coefficients, k) block, the result's columns (its
mappings are built when ``data`` is read); ``dense`` mode yields a scalar
column (k,), a vector block (k, m), or an antisymmetric matrix block
(k, m, m); degree three and up is records-only.  Only a normal form with an
unbound modulus differs: its records keep the modulus as residual text, so
each point is partially evaluated.  Non-finite values (poles on the mesh)
propagate into the output and are tallied in ``BatchResult.nonfinite``.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Mapping, Sequence

import numpy as np

from .expressions import (
    Expression,
    Num,
    compile_expressions,
    differentiate,
    fold_add,
    fold_mul,
    parse,
    partial_eval,
    to_source,
)
from .geometry import BatchResult, Mesh, Multivector, MultivectorError, _row_chunks, as_mesh
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

_CHUNK_ROWS = 16384

GAUGE_SINGULAR_TOLERANCE = 1e-12


class MeshDimensionError(MultivectorError):
    """Mesh dimension does not match the field's dimension."""


@dataclass(frozen=True)
class EvalOptions:
    """Output mode, parameter bindings, and parallelism for batch methods.

    ``mode`` is "records" or "dense".  Dense output requires every free
    parameter bound through ``params`` (the normal-form method in records
    mode is the one consumer of unbound parameters, emitted as residual
    text).  ``workers`` is a thread count, an int >= 1; None means
    single-threaded.
    """

    mode: str = "records"
    params: Mapping[str, float] = field(default_factory=dict)
    workers: int | None = None

    def __post_init__(self):
        if self.mode not in ("records", "dense"):
            raise MultivectorError(
                f"unknown output mode {self.mode!r}; expected 'records' or 'dense'"
            )
        workers = self.workers
        if workers is not None and (
            not isinstance(workers, int) or isinstance(workers, bool) or workers < 1
        ):
            raise MultivectorError(
                f"workers must be None or an int >= 1, got {workers!r}"
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


def _run_chunks(kernel, mesh: Mesh, workers: int | None) -> None:
    """Call ``kernel(points, rows)`` on fixed-size row chunks of the mesh.

    ``rows`` is the chunk's slice; the kernel writes its output into those
    rows of arrays the caller allocated, so chunks are never copied or
    joined.  Chunk boundaries are independent of the worker count and chunks
    write disjoint rows, so results are deterministic.
    """
    pts = mesh.points
    spans = _row_chunks(len(pts), _CHUNK_ROWS)

    def run(share):
        for rows in share:
            kernel(pts[rows], rows)

    workers = min(workers or 1, len(spans))
    if workers <= 1:
        run(spans)
    else:
        # One task per thread, each taking every workers-th chunk: a task
        # per chunk would cost a future's overhead on every chunk.
        shares = [spans[i::workers] for i in range(workers)]
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(run, shares))  # re-raises a kernel's exception


def _count_nonfinite(values: np.ndarray) -> int:
    return int(np.count_nonzero(~np.isfinite(values)))


def _field_evaluator(sym: Multivector, options: EvalOptions, keys=None):
    """Compile ``sym`` once, to one program; the evaluator applies it to a mesh.

    ``keys`` are the output coefficients, by default the structurally nonzero
    ones; the vector methods key all m components, the bracket its one value.
    Each output goes straight to its row of a (len(keys), k) records block or
    its entry of the dense block, a bivector's negation to the transposed one.
    """
    m, degree = sym.dim, sym.degree
    records = options.mode == "records"
    keys = tuple(sorted(sym.keys())) if keys is None else keys
    fn = compile_expressions([sym.coefficient(key) for key in keys], m, options.params)
    targets = [
        ((j,), None) if records else
        ((slice(None), *(i - 1 for i in key)),
         (slice(None), key[1] - 1, key[0] - 1) if len(key) == 2 else None)
        for j, key in enumerate(keys)
    ]

    def evaluator(mesh) -> BatchResult:
        mesh = _check_mesh(mesh, m)
        if not records and degree > 2:
            raise MultivectorError(
                f"dense mode supports results of degree <= 2, got degree {degree}; "
                "use records mode"
            )
        shape = (len(keys), len(mesh)) if records else (len(mesh),) + (m,) * degree
        block = np.zeros(shape)
        counts = []

        def kernel(pts, rows):
            view = block[:, rows] if records else block[rows]

            def sink(j, value):
                direct, transposed = targets[j]
                view[direct] = value
                if transposed is not None:
                    np.negative(value, out=view[transposed])

            fn.run(pts, sink)
            counts.append(_count_nonfinite(view))

        _run_chunks(kernel, mesh, options.workers)
        # Counted per coefficient: a matrix block holds each one twice.
        nonfinite = sum(counts) // (2 if degree == 2 and not records else 1)
        if records:
            record_keys = tuple("value" if key == () else key for key in keys)
            return BatchResult(
                "records", keys=record_keys, nonfinite=nonfinite, columns=block
            )
        kind = ("scalar", "vector", "matrix")[degree]
        return BatchResult(kind, block, nonfinite=nonfinite)

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
    # compiles to a constant, so an unbound parameter in f is not an error.
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
    # One program, P's outputs first: M is complete before Lambda's arrive.
    items, n_P = [*P.items(), *lam.items()], len(P.keys())
    fn = compile_expressions([coeff for _, coeff in items], m, options.params)
    upper = [(i, j) for i in range(1, m + 1) for j in range(i + 1, m + 1)]
    upper_rows, upper_cols = np.triu_indices(m, 1)  # ``upper``, 0-based
    records = options.mode == "records"

    def evaluator(mesh) -> BatchResult:
        mesh = _check_mesh(mesh, m)
        shape = (len(upper), len(mesh)) if records else (len(mesh), m, m)
        out = np.full(shape, np.nan)
        valid = np.zeros(len(mesh), dtype=bool)
        counts = []

        def kernel(pts, rows):
            # X = M G^{-1}, G = I - Lambda M, solves G^T X^T = M^T: Gauss-Jordan
            # elimination with partial pivoting on A = [G^T | M^T], entry-major
            # (m, 2m, points), so each step is a whole-column operation.
            k = len(pts)
            A = np.zeros((m, 2 * m, k))
            A[range(m), range(m)] = 1.0
            right = A[:, m:].transpose(2, 1, 0)  # right[r] is M, then X, at point r
            det = np.ones(k)  # the product of the pivots: det G up to its sign
            buf = np.empty((2 * m, k))
            pivot = np.empty(k, dtype=np.intp)

            def sink(j, value):
                a, b = items[j][0]
                if j < n_P:  # M^T: A[b, m + a] = M[a, b] = -M[b, a]
                    A[b - 1, m + a - 1] = value
                    np.negative(value, out=A[a - 1, m + b - 1])
                else:  # G^T = I + M^T Lambda, Lambda[a, b] = -Lambda[b, a]
                    A[:, b - 1] += A[:, m + a - 1] * value
                    A[:, a - 1] -= A[:, m + b - 1] * value

            fn.run(pts, sink)
            with np.errstate(all="ignore"):
                for c in range(m):
                    _pivot_rows(A, c, pivot)
                    # Swap the pivot row into row c (det G only changes sign).
                    buf[c:] = A[c, c:]
                    for r in range(c + 1, m):
                        swap = pivot == r
                        np.copyto(A[c, c:], A[r, c:], where=swap)
                        np.copyto(A[r, c:], buf[c:], where=swap)
                    # Columns left of c are eliminated and c is not read again.
                    det *= A[c, c]
                    A[c, c + 1 :] /= A[c, c]
                    for r in (*range(c), *range(c + 1, m)):
                        np.multiply(A[c, c + 1 :], A[r, c], out=buf[c + 1 :])
                        A[r, c + 1 :] -= buf[c + 1 :]
            ok = np.isfinite(det) & (np.abs(det) > GAUGE_SINGULAR_TOLERANCE)
            valid[rows] = ok
            entries = A[upper_cols, m + upper_rows]  # X's upper entries, (len(upper), k)
            # Each coefficient is counted once, at the valid points only.
            counts.append(int(np.count_nonzero(~np.isfinite(entries) & ok)))
            if records:
                np.copyto(out[:, rows], entries, where=ok)
            else:
                np.copyto(out[rows], right, where=ok[:, None, None])

        _run_chunks(kernel, mesh, options.workers)
        nonfinite = sum(counts)
        if records:
            return BatchResult(
                "records", keys=tuple(upper), valid=valid, nonfinite=nonfinite,
                columns=out,
            )
        return BatchResult("matrix", out, valid=valid, nonfinite=nonfinite)

    return evaluator


def _pivot_rows(A: np.ndarray, c: int, pivot: np.ndarray) -> None:
    """Set ``pivot`` to ``np.abs(A[c:, c]).argmax(axis=0) + c``: the row of
    each point's largest candidate, the first on a tie, NaN the largest.

    One whole-column comparison per row, where argmax along axis 0 runs one
    tiny reduction per point: a later row wins only if it is larger, and a
    NaN wins unless an earlier one did.
    """
    pivot.fill(c)
    best = np.abs(A[c, c])
    for r in range(c + 1, len(A)):
        candidate = np.abs(A[r, c])
        wins = ~(candidate <= best) & (best == best)
        np.copyto(pivot, r, where=wins)
        np.copyto(best, candidate, where=wins)


def num_gauge_transformation(P, lam, mesh, options=None, dim=None) -> BatchResult:
    """Evaluate the gauge transform M (I - Lambda M)^{-1} at every point.

    Points where |det(I - Lambda M)| <= 1e-12 are marked invalid: the valid
    mask is False there, and matrix entries are NaN.  The bound applies to the
    dimensionless det(I - Lambda M), invariant under P -> sP, Lambda -> Lambda/s.
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
        columns = np.empty((len(keys), len(mesh)), dtype=object)
        nonfinite = 0
        for r, point in enumerate(mesh.points):
            for j, key in enumerate(keys):
                value = partial_eval(rep.coefficient(key), 3, params, point)
                if isinstance(value, float):
                    nonfinite += not np.isfinite(value)
                else:
                    value = to_source(value)
                columns[j, r] = value
        return BatchResult("records", keys=keys, nonfinite=nonfinite, columns=columns)

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
