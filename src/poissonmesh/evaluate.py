"""Batch numerical evaluation of the symbolic operators over point meshes.

Every public method maps (inputs, Mesh) to a BatchResult and comes in two
pieces: ``prepare_*`` validates the inputs, builds the derived symbolic
field once (Schouten bracket, sharp image, curl, normal form, Pfaffians) and
compiles all its coefficients into one program, returning an evaluator
closure; calling the evaluator with a mesh does only per-point work and
output layout.  The ``num_*`` front ends chain the two.  Prepared evaluators
are what the benchmark harness times, so the split also fixes the timed
region: parsing, symbolic construction and compilation are outside it,
per-point evaluation and assembly are inside.  The gauge transformation is
such a field too, in Pfaffian form: X = M (I - Lambda M)^{-1} is a sum of
Pfaffian products over F, with det(I - Lambda M) = F^2 as one more output
of its program, a guard that marks the points where it vanishes invalid.

Set-up: every ``prepare_*`` runs inside one ``expressions.interning()``
scope, so the equal subtrees it builds (the Schouten brackets, one-forms
bracket and Pfaffians repeat many) are one node, and the derivative memo
and the compile table find them by identity instead of walking them.
Equality stays structural, and the table is emptied when the set-up
returns, so nothing is kept from one set-up to the next.  A tree too deep
for the recursive walkers raises ``ExpressionDepthError``.

Chunks: meshes are processed in row chunks of ``_CHUNK_ROWS`` = 16,384 rows.
Each (k,) temporary of a program is then 128 KB, not 512 KB as at 65,536
rows, so a chunk's working set stays in the CPU cache: the dense calls of
``bench.benchmark_suite()`` at 10**6 points took about a fifth less time.
Smaller chunks cost more interpreter time per point, which threads pay
under the GIL: at 8,192 rows two threads ran slower than one for the
smaller programs.  Every op is row-wise, so the chunk size never changes a
value.  Threads only spread the same chunk list (the chunk boundaries never
depend on the thread count), so outputs are bitwise identical for any
thread count.

Threads: a call runs on the process's usable cores (``os.sched_getaffinity``,
so ``taskset`` and cpusets cap it), at most one thread per
``_CHUNKS_PER_THREAD`` = 8 chunks (``_thread_count``), and reports the count
in ``BatchResult.threads``.  The threads take the chunks in row order, at
most two per thread ahead of the one the writer takes next.  On 2 cores,
over the dense suite calls, a second thread took 1.04x the serial time at 4
chunks, 0.89x at 8, 0.83x at 16 and 0.69x at 62, while the smallest
programs took 1.4-1.8x at 4 chunks and about 1.0x at 16.  So calls under 16
chunks (up to 245,760 rows) stay serial and start no pool, which would also
cost a second allocator arena.

Input: a chunk reads its rows of ``mesh.points`` and, once its kernel is
done, calls ``mesh._release`` on them.  For a .npy mesh ``load_mesh`` has
mapped (not copied) that drops the chunk's pages, so a call holds about one
chunk of its input in memory, as it does of its output.

Output layout: an evaluator checks the mesh and returns a lazy result, which
holds the program and the mesh.  Its chunks run when it is written, and a
program writes each coefficient straight into its chunk's block, which the
writer turns into bytes before later chunks are done; reading ``data`` or
``columns`` runs them into the whole block instead.  ``records`` mode makes
a (coefficients, k) block, the result's columns (its mappings are built
when ``data`` is read); ``dense`` mode a scalar column (k,), a vector block
(k, m), or an antisymmetric matrix block (k, m, m); degree three and up is
records-only.  A guarded result (the gauge) also carries a valid mask, with
NaN entries where it is False.  Only a normal form with an unbound modulus
differs: its records keep the modulus as residual text, so each point is
partially evaluated when the evaluator is called, in Python and on one
thread.  Non-finite values (poles on the mesh) propagate into the output
and are tallied in ``BatchResult.nonfinite``.
"""

from __future__ import annotations

import collections
import functools
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Mapping, Sequence

import numpy as np

from .expressions import (
    Expression,
    ExpressionDepthError,
    Num,
    compile_expressions,
    differentiate,
    fold_add,
    fold_mul,
    interning,
    partial_eval,
    to_source,
)
from .geometry import (
    BatchResult,
    Mesh,
    Multivector,
    MultivectorError,
    _row_chunks,
    _Stream,
    as_expression,
    as_mesh,
    validate_multivector,
)
from .symbolic import (
    curl_sym,
    flaschka_ratiu_sym,
    gauge_transformation_sym,
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
_CHUNKS_PER_THREAD = 8

GAUGE_SINGULAR_TOLERANCE = 1e-12


class MeshDimensionError(MultivectorError):
    """Mesh dimension does not match the field's dimension."""


@dataclass(frozen=True)
class EvalOptions:
    """Output mode and parameter bindings for batch methods.

    ``mode`` is "records" or "dense".  Dense output requires every free
    parameter bound through ``params`` (the normal-form method in records
    mode is the one consumer of unbound parameters, emitted as residual
    text).
    """

    mode: str = "records"
    params: Mapping[str, float] = field(default_factory=dict)

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


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _thread_count(rows: int) -> int:
    """The threads a call over ``rows`` mesh points runs on: the usable
    cores, at most one per ``_CHUNKS_PER_THREAD`` chunks, and at least one."""
    chunks = -(-rows // _CHUNK_ROWS)
    return max(1, min(_usable_cores(), chunks // _CHUNKS_PER_THREAD))


def _run_chunks(kernel, mesh: Mesh, spans: list, threads: int, out):
    """``kernel(points, block)`` of each row chunk ``spans`` cuts from the
    mesh, in row order, on ``threads`` threads.

    ``block`` is ``out(rows)`` for the chunk's slice ``rows``, an array the
    kernel fills: a chunk-sized one of its own when the caller streams the
    chunks to a file, or a view of the whole block.  Once the kernel is
    done, ``mesh._release(rows)`` drops the chunk's pages of a mapped mesh.
    Chunk boundaries are independent of the thread count, so results are
    deterministic.  With threads, the caller takes each chunk in order while
    at most ``2 * threads`` are in flight.
    """

    def step(rows, block):
        done = kernel(mesh.points[rows], block)
        mesh._release(rows)
        return done

    if threads == 1:
        for rows in spans:
            yield step(rows, out(rows))
        return
    with ThreadPoolExecutor(threads) as pool:
        flight = collections.deque()
        for rows in spans:
            flight.append(pool.submit(step, rows, out(rows)))
            if len(flight) == 2 * threads:
                yield flight.popleft().result()  # re-raises a kernel's exception
        while flight:
            yield flight.popleft().result()


def _count_nonfinite(values: np.ndarray) -> int:
    return int(np.count_nonzero(~np.isfinite(values)))


def _field_evaluator(sym: Multivector, options: EvalOptions, keys=None, guard=None):
    """Compile ``sym`` once, to one program; the evaluator applies it to a mesh.

    ``keys`` are the output coefficients, by default the structurally nonzero
    ones; the vector methods key all m components, the bracket its one value.
    The evaluator checks the mesh and returns a lazy result: each chunk's
    outputs go straight to their rows of a (len(keys), rows) records block or
    their entries of a dense block, a bivector's negation to the transposed
    one.  A ``guard`` expression is one more output, read and not written: a
    point is valid where it is finite with modulus above
    GAUGE_SINGULAR_TOLERANCE.  An invalid point's entries are NaN and not
    counted as non-finite.
    """
    m, degree = sym.dim, sym.degree
    records = options.mode == "records"
    keys = tuple(sorted(sym.keys())) if keys is None else keys
    exprs = [sym.coefficient(key) for key in keys]
    fn = compile_expressions(exprs + ([] if guard is None else [guard]), m, options.params)
    targets = [
        ((j,), None) if records else
        ((slice(None), *(i - 1 for i in key)),
         (slice(None), key[1] - 1, key[0] - 1) if len(key) == 2 else None)
        for j, key in enumerate(keys)
    ]
    # Counted per coefficient: a matrix block holds each one twice.
    per_coefficient = 2 if degree == 2 and not records else 1

    def kernel(pts, block):
        det = None if guard is None else np.empty(len(pts))

        def sink(j, value):
            if j == len(targets):
                det[...] = value
                return
            direct, transposed = targets[j]
            block[direct] = value
            if transposed is not None:
                np.negative(value, out=block[transposed])

        fn.run(pts, sink)
        ok, count = None, 0
        if guard is not None:
            ok = np.isfinite(det) & (np.abs(det) > GAUGE_SINGULAR_TOLERANCE)
            (block.T if records else block)[~ok] = np.nan
            # An invalid point is NaN throughout and not counted.
            count = -int(np.count_nonzero(~ok)) * (block.size // len(pts))
        count += _count_nonfinite(block)
        return block, ok, count // per_coefficient

    def evaluator(mesh) -> BatchResult:
        mesh = _check_mesh(mesh, m)
        if not records and degree > 2:
            raise MultivectorError(
                f"dense mode supports results of degree <= 2, got degree {degree}; "
                "use records mode"
            )
        shape = (len(keys), len(mesh)) if records else (len(mesh),) + (m,) * degree
        # The chunks and threads are fixed here, whenever the result runs.
        spans, threads = _row_chunks(len(mesh), _CHUNK_ROWS), _thread_count(len(mesh))
        run = functools.partial(_run_chunks, kernel, mesh, spans, threads)
        stream = _Stream(shape, guard is not None, threads, run)
        if records:
            record_keys = tuple("value" if key == () else key for key in keys)
            return BatchResult._lazy("records", record_keys, stream)
        return BatchResult._lazy(("scalar", "vector", "matrix")[degree], None, stream)

    return evaluator


def _set_up(prepare):
    """``prepare`` run in one intern scope (``expressions.interning``), so the
    equal subtrees it builds are one node, and with a tree too deep for the
    recursive walkers (derivative, rendering, substitution) reported as an
    ExpressionDepthError, not a bare RecursionError."""

    @functools.wraps(prepare)
    def set_up(*args, **kwargs):
        try:
            with interning():
                return prepare(*args, **kwargs)
        except RecursionError:
            raise ExpressionDepthError() from None

    return set_up


def _components(m: int) -> tuple:
    return tuple((i,) for i in range(1, m + 1))


# --- 1. Bivector evaluation -------------------------------------------------


@_set_up
def prepare_bivector(P, options: EvalOptions | None = None, dim: int | None = None):
    P = validate_multivector(P, dim, 2)
    return _field_evaluator(P, _opts(options))


def num_bivector(P, mesh, options=None, dim=None) -> BatchResult:
    """Evaluate a bivector field's coefficients at every mesh point."""
    return prepare_bivector(P, options, dim)(mesh)


# --- 2. Matrix form ---------------------------------------------------------


@_set_up
def prepare_bivector_to_matrix(P, options=None, dim=None):
    P = validate_multivector(P, dim, 2)
    # The matrix form is a dense layout whatever the requested mode.
    return _field_evaluator(P, replace(_opts(options), mode="dense"))


def num_bivector_to_matrix(P, mesh, options=None, dim=None) -> BatchResult:
    """Evaluate the antisymmetric coefficient matrix at every mesh point."""
    return prepare_bivector_to_matrix(P, options, dim)(mesh)


# --- 3. Hamiltonian vector field -------------------------------------------


@_set_up
def prepare_hamiltonian_vf(P, h, options=None, dim=None):
    P = validate_multivector(P, dim, 2)
    field = schouten_coboundary(P, as_expression(h, P.dim))
    return _field_evaluator(field, _opts(options), _components(P.dim))


def num_hamiltonian_vf(P, h, mesh, options=None, dim=None) -> BatchResult:
    """Evaluate the Hamiltonian vector field -M grad h at every mesh point."""
    return prepare_hamiltonian_vf(P, h, options, dim)(mesh)


# --- 4. Poisson bracket -----------------------------------------------------


@_set_up
def prepare_poisson_bracket(P, f, g, options=None, dim=None):
    options = _opts(options)
    P = validate_multivector(P, dim, 2)
    m = P.dim
    f_expr = as_expression(f, m)
    g_expr = as_expression(g, m)
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


@_set_up
def prepare_sharp_morphism(P, alpha, options=None, dim=None):
    P = validate_multivector(P, dim, 2)
    return _field_evaluator(sharp_sym(P, alpha), _opts(options), _components(P.dim))


def num_sharp_morphism(P, alpha, mesh, options=None, dim=None) -> BatchResult:
    """Evaluate the sharp image -M alpha at every mesh point."""
    return prepare_sharp_morphism(P, alpha, options, dim)(mesh)


# --- 6. Coboundary (Schouten) operator -------------------------------------


@_set_up
def prepare_coboundary_operator(P, A, options=None, dim=None, degree=None):
    P = validate_multivector(P, dim, 2)
    return _field_evaluator(schouten_coboundary(P, A, degree=degree), _opts(options))


def num_coboundary_operator(P, A, mesh, options=None, dim=None, degree=None):
    """Evaluate the Schouten bracket [[P, A]] at every mesh point."""
    return prepare_coboundary_operator(P, A, options, dim, degree)(mesh)


# --- 7. Modular vector field ------------------------------------------------


@_set_up
def prepare_modular_vf(P, f0="1", options=None, dim=None):
    P = validate_multivector(P, dim, 2)
    return _field_evaluator(modular_vf_sym(P, f0), _opts(options))


def num_modular_vf(P, f0="1", mesh=None, options=None, dim=None) -> BatchResult:
    """Evaluate the modular vector field w.r.t. the volume f0 * Omega0."""
    return prepare_modular_vf(P, f0, options, dim)(mesh)


# --- 8. Curl (divergence) operator -----------------------------------------


@_set_up
def prepare_curl_operator(A, f0="1", options=None, dim=None, degree=None):
    A = validate_multivector(A, dim, degree)
    return _field_evaluator(curl_sym(A, f0), _opts(options))


def num_curl_operator(A, f0="1", mesh=None, options=None, dim=None, degree=None):
    """Evaluate the divergence of A w.r.t. f0 * Omega0 at every mesh point."""
    return prepare_curl_operator(A, f0, options, dim, degree)(mesh)


# --- 9. Bracket of one-forms ------------------------------------------------


@_set_up
def prepare_one_forms_bracket(P, alpha, beta, options=None, dim=None):
    P = validate_multivector(P, dim, 2)
    field = one_forms_bracket_sym(P, alpha, beta)
    return _field_evaluator(field, _opts(options), _components(P.dim))


def num_one_forms_bracket(P, alpha, beta, mesh, options=None, dim=None):
    """Evaluate the bracket of one-forms induced by P at every mesh point."""
    return prepare_one_forms_bracket(P, alpha, beta, options, dim)(mesh)


# --- 10. Gauge transformation ----------------------------------------------


@_set_up
def prepare_gauge_transformation(P, lam, options=None, dim=None):
    P = validate_multivector(P, dim, 2)
    m = P.dim
    field, det = gauge_transformation_sym(P, lam)
    upper = tuple((i, j) for i in range(1, m + 1) for j in range(i + 1, m + 1))
    return _field_evaluator(field, _opts(options), upper, guard=det)


def num_gauge_transformation(P, lam, mesh, options=None, dim=None) -> BatchResult:
    """Evaluate the gauge transform M (I - Lambda M)^{-1} at every point.

    It is compiled in Pfaffian form, G = I - Lambda M is never solved, and
    the error grows like eps cond(G).  The result is antisymmetric, as
    M (I - Lambda M)^{-1} = (I - M Lambda)^{-1} M: records hold the upper
    entries, and dense blocks their negations below and an exact-zero
    diagonal.  det G is a guard output: points where it is not finite or
    |det G| <= 1e-12 are marked invalid, and their entries are NaN.  The
    bound applies to the dimensionless det G, invariant under P -> sP,
    Lambda -> Lambda/s.
    """
    return prepare_gauge_transformation(P, lam, options, dim)(mesh)


# --- 11. Linear normal form on R^3 -----------------------------------------


@_set_up
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
        # partial_eval is pure Python: threads would only queue for the GIL.
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


@_set_up
def prepare_flaschka_ratiu_bivector(casimirs: Sequence, dim: int, options=None):
    return _field_evaluator(flaschka_ratiu_sym(casimirs, dim), _opts(options))


def num_flaschka_ratiu_bivector(casimirs, dim, mesh, options=None) -> BatchResult:
    """Evaluate the bivector with prescribed Casimirs at every mesh point."""
    return prepare_flaschka_ratiu_bivector(casimirs, dim, options)(mesh)
