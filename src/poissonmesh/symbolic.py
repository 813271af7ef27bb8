"""Symbolic operators on multivector fields.

All results are assembled with constant folding only (no algebraic
simplification), so a coefficient is dropped exactly when it folds to the
literal zero.  Sign conventions are fixed by the matrix form of a bivector,
M[i][j] = coefficient (i, j) for i < j, together with the Hamiltonian field
X_h = -M grad h; every operator below is consistent with that pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Mapping, Sequence, Union

import numpy as np

from .expressions import (
    Expression,
    Num,
    differentiate,
    differentiate_all,
    fold_add,
    fold_div,
    fold_mul,
    fold_neg,
    fold_sub,
    partial_eval,
    to_source,
)
from .geometry import Multivector, MultivectorError, as_expression, validate_multivector

__all__ = [
    "SymbolicMatrix",
    "NormalFormClass",
    "bivector_to_matrix_sym",
    "sharp_sym",
    "schouten_coboundary",
    "curl_sym",
    "modular_vf_sym",
    "flaschka_ratiu_sym",
    "gauge_transformation_sym",
    "linear_normal_form_r3",
    "one_forms_bracket_sym",
]


# --- Odd-coordinate calculus -------------------------------------------------
#
# A degree-a monomial is f * xi_{i1} ... xi_{ia}; with P of degree 2,
#
#     [[P, A]] = sum_l ( dP/dxi_l * dA/dx_l  +  dP/dx_l * dA/dxi_l ),
#
# where dP/dxi_l is the left Grassmann derivative and products of odd
# monomials carry the permutation sign of merging their index tuples.  The
# matrix form is M[k][j] = coefficient (j,) of dP/dxi_k, and the Euclidean
# divergence is sum_l d/dxi_l d/dx_l.


def _perm_sign(seq: Sequence[int]) -> int:
    """Sign of the permutation given by ``seq``; 0 on repeats."""
    items = list(seq)
    if len(set(items)) != len(items):
        return 0
    sign = 1
    for i in range(len(items)):
        for j in range(i + 1, len(items)):
            if items[i] > items[j]:
                sign = -sign
    return sign


def _accumulate(acc: dict, key: tuple[int, ...], term: Expression) -> None:
    if isinstance(term, Num) and term.value == 0.0:
        return
    if key in acc:
        acc[key] = fold_add(acc[key], term)
    else:
        acc[key] = term


def _xi_derivative(coeffs: Mapping, l: int, out: dict | None = None) -> dict:
    """Left derivative d/dxi_l of the monomials ``coeffs``, added into ``out``."""
    out = {} if out is None else out
    for key, coeff in coeffs.items():
        if l in key:
            pos = key.index(l)
            term = coeff if pos % 2 == 0 else fold_neg(coeff)
            _accumulate(out, key[:pos] + key[pos + 1 :], term)
    return out


# --- Matrix form and sharp morphism ----------------------------------------


@dataclass(frozen=True)
class SymbolicMatrix:
    """Antisymmetric matrix of Expressions attached to a bivector field."""

    dim: int
    entries: tuple[tuple[Expression, ...], ...]

    def entry(self, i: int, j: int) -> Expression:
        return self.entries[i - 1][j - 1]


def bivector_to_matrix_sym(
    P: Union[Multivector, Mapping], dim: int | None = None
) -> SymbolicMatrix:
    """Matrix M with M[i][j] = coefficient (i, j), lower half negated."""
    P = validate_multivector(P, dim, 2)
    m = P.dim
    rows = []
    for i in range(1, m + 1):
        row = []
        for j in range(1, m + 1):
            if i < j:
                row.append(P.coefficient((i, j)))
            elif i > j:
                row.append(fold_neg(P.coefficient((j, i))))
            else:
                row.append(Num(0.0))
        rows.append(tuple(row))
    return SymbolicMatrix(m, tuple(rows))


def sharp_sym(
    P: Union[Multivector, Mapping],
    alpha: Union[Multivector, Mapping],
    dim: int | None = None,
) -> Multivector:
    """Image of the one-form alpha under the sharp map: -M alpha.

    Component j is built as sum_k M[k][j] alpha_k (M is antisymmetric), so
    terms that cancel exactly evaluate to +0.0, as a numeric sum would.
    Row k of M is the xi-derivative dP/dxi_k; a zero entry stays a term, as
    0 * alpha_k is NaN where alpha_k is not finite.
    """
    P = validate_multivector(P, dim, 2)
    alpha = validate_multivector(alpha, P.dim, 1)
    m = P.dim
    out = {(j,): Num(0.0) for j in range(1, m + 1)}
    for (k,), ak in alpha.items():
        row = _xi_derivative(P.coeffs, k)
        for key in out:
            out[key] = fold_add(out[key], fold_mul(row.get(key, Num(0.0)), ak))
    return Multivector.build(m, 1, out)


# --- Schouten coboundary ----------------------------------------------------


def _x_derivative(field: Multivector, l: int) -> dict:
    partials = differentiate_all(list(field.coeffs.values()), l)
    return {
        key: d
        for key, d in zip(field.coeffs, partials)
        if not (isinstance(d, Num) and d.value == 0.0)
    }


def _grassmann_product_into(acc: dict, left: Mapping, right: Mapping) -> None:
    for key_l in sorted(left):
        for key_r in sorted(right):
            merged = key_l + key_r
            sign = _perm_sign(merged)
            if sign == 0:
                continue
            term = fold_mul(left[key_l], right[key_r])
            if sign < 0:
                term = fold_neg(term)
            _accumulate(acc, tuple(sorted(merged)), term)


def schouten_coboundary(
    P: Union[Multivector, Mapping],
    A: Union[Multivector, Mapping, str, int, float],
    dim: int | None = None,
    degree: int | None = None,
) -> Multivector:
    """Schouten bracket [[P, A]] of a bivector with a multivector field.

    For a degree-0 argument this is the Hamiltonian field -M grad A; at top
    degree (a = m) the bracket is the zero multivector of degree m + 1.
    """
    P = validate_multivector(P, dim, 2)
    A = validate_multivector(A, P.dim, degree)
    m = P.dim
    out: dict = {}
    for l in range(1, m + 1):
        _grassmann_product_into(out, _xi_derivative(P.coeffs, l), _x_derivative(A, l))
        _grassmann_product_into(out, _x_derivative(P, l), _xi_derivative(A.coeffs, l))
    return Multivector.build(m, A.degree + 1, out)


# --- Curl (divergence) operator --------------------------------------------


def _euclidean_divergence(field: Multivector) -> dict:
    """Divergence w.r.t. the standard volume, degree a -> a - 1:
    sum_l d/dxi_l d/dx_l of the field in the odd-coordinate calculus."""
    out: dict = {}
    for l in range(1, field.dim + 1):
        with_l = [key for key in field.coeffs if l in key]
        derivs = differentiate_all([field.coeffs[key] for key in with_l], l)
        _xi_derivative(dict(zip(with_l, derivs)), l, out)
    return out


def curl_sym(
    A: Union[Multivector, Mapping],
    f0=None,
    dim: int | None = None,
    degree: int | None = None,
) -> Multivector:
    """Divergence of A w.r.t. the volume f0 * dx1^...^dxm (f0 defaults to 1).

    Defined by  i_{curl(A)} Omega = d(i_A Omega); for a general volume this
    is (1/f0) times the Euclidean divergence of f0 * A.
    """
    A = validate_multivector(A, dim, degree)
    if A.degree < 1:
        raise MultivectorError(f"curl expects degree >= 1, got {A.degree}")
    m = A.dim
    if isinstance(f0, Multivector):
        f0 = f0.as_scalar()
    f0e = Num(1.0) if f0 is None else as_expression(f0, m)
    scaled = Multivector.build(m, A.degree, {key: fold_mul(f0e, c) for key, c in A.items()})
    div = _euclidean_divergence(scaled)
    return Multivector.build(m, A.degree - 1, {key: fold_div(c, f0e) for key, c in div.items()})


def modular_vf_sym(
    P: Union[Multivector, Mapping], f0=None, dim: int | None = None
) -> Multivector:
    """Modular vector field of a bivector w.r.t. the volume f0 * Omega0."""
    P = validate_multivector(P, dim, 2)
    return curl_sym(P, f0)


# --- Pfaffians: Flaschka-Ratiu bivector and gauge transformation -----------


def _pfaffians(A: Sequence[Sequence[Expression]]):
    """``pf(idx)``: the Pfaffian of the antisymmetric ``A`` on the increasing
    index tuple ``idx``, expanded along its first index (pf(()) = 1).

    Only entries A[i][j] with i < j are read.  A term's sign goes on its
    entry, so two negations fold away; a literal-zero entry, whose term
    folds to zero, is skipped.  Memoized by index tuple, the Pfaffians of
    one matrix share their sub-Pfaffians: O(m 2^m) nodes in all.
    """
    memo: dict = {(): Num(1.0)}

    def pf(idx: tuple) -> Expression:
        value = memo.get(idx)
        if value is None:
            value = Num(0.0)
            first, rest = idx[0], idx[1:]
            for t, j in enumerate(rest):
                entry = A[first][j]
                if isinstance(entry, Num) and entry.value == 0.0:
                    continue
                entry = entry if t % 2 == 0 else fold_neg(entry)
                value = fold_add(value, fold_mul(entry, pf(rest[:t] + rest[t + 1 :])))
            memo[idx] = value
        return value

    return pf


def flaschka_ratiu_sym(
    casimirs: Sequence[Union[str, Expression]], dim: int
) -> Multivector:
    """Bivector with prescribed Casimir candidates K1..K_{m-2} on R^m.

    Coefficient (i, j) is -eps((i,j), complement) = (-1)^(i+j) times the
    Jacobian minor of the K's over the complementary columns, expanded as a
    Pfaffian; degenerate inputs yield the zero bivector rather than an error.
    """
    if dim < 3:
        raise MultivectorError(f"dimension must be >= 3, got {dim}")
    n = dim - 2
    if len(casimirs) != n:
        raise MultivectorError(
            f"expected {n} scalar functions for dimension {dim}, "
            f"got {len(casimirs)}"
        )
    exprs = [as_expression(k, dim) for k in casimirs]
    columns = [differentiate_all(exprs, j) for j in range(1, dim + 1)]
    # With rows n-2, n-4, ... of the n x m Jacobian J negated, the Pfaffian of
    # [[0, J], [-J^T, 0]] on all rows and the columns C is det J[:, C], term for term.
    block = [
        [Num(0.0)] * n + [c[r] if (n - r) % 2 else fold_neg(c[r]) for c in columns]
        for r in range(n)
    ]
    pf = _pfaffians(block)
    out = {}
    for i in range(1, dim + 1):
        for j in range(i + 1, dim + 1):
            comp = tuple(n + c for c in range(dim) if c not in (i - 1, j - 1))
            minor = pf(tuple(range(n)) + comp)
            out[(i, j)] = minor if (i + j) % 2 == 0 else fold_neg(minor)
    return Multivector.build(dim, 2, out)


def gauge_transformation_sym(
    P: Union[Multivector, Mapping],
    lam: Union[Multivector, Mapping],
    dim: int | None = None,
) -> tuple[Multivector, Expression]:
    """The gauge transform X = M (I - Lambda M)^{-1} of P by the two-form lam,
    and det G, G = I - Lambda M; the transform is singular where det G vanishes.

    By Pfaffian minor summation, det G = F^2 with F the sum over the even
    index sets J of Pf(Lambda_J) Pf(M_J), and X_ij is the sum over the even
    J without i and j of Pf(M on i, j, J in that order) Pf(Lambda_J) / F.
    Nothing is solved or pivoted, so the error grows like eps cond(G).  X is
    antisymmetric, so only its upper entries are built.
    """
    P = validate_multivector(P, dim, 2)
    m = P.dim
    pf_M = _pfaffians(bivector_to_matrix_sym(P).entries)
    pf_L = _pfaffians(bivector_to_matrix_sym(validate_multivector(lam, m, 2)).entries)
    even = [J for k in range(0, m + 1, 2) for J in combinations(range(m), k)]
    F = Num(0.0)
    for J in even:
        F = fold_add(F, fold_mul(pf_L(J), pf_M(J)))
    out = {}
    for i, j in combinations(range(m), 2):
        total: Expression = Num(0.0)
        for J in even:
            if i in J or j in J:
                continue
            term = fold_mul(pf_M(tuple(sorted((i, j) + J))), pf_L(J))
            total = fold_add(total, term) if _perm_sign((i, j) + J) > 0 else fold_sub(total, term)
        out[(i + 1, j + 1)] = fold_div(total, F)
    return Multivector.build(m, 2, out), fold_mul(F, F)


# --- Linear normal forms on R^3 --------------------------------------------


@dataclass(frozen=True)
class NormalFormClass:
    """Isomorphism class of a linear bivector on R^3.

    ``representative`` may carry the free parameter `a` (a positive
    modulus) for the two families that need one.
    """

    label: str
    representative: Multivector
    has_modulus: bool = False


_REPRESENTATIVES = {
    "trivial": {},
    "heisenberg": {(2, 3): "x1"},
    "e2": {(1, 3): "-x2", (2, 3): "x1"},
    "e11": {(1, 3): "x2", (2, 3): "x1"},
    "so3": {(1, 2): "x3", (1, 3): "-x2", (2, 3): "x1"},
    "sl2": {(1, 2): "-x3", (1, 3): "-x2", (2, 3): "x1"},
    "aff_diag": {(1, 3): "x1", (2, 3): "x2"},
    "aff_jordan": {(1, 3): "x1", (2, 3): "x1 + x2"},
    "aff_rotation": {(1, 3): "x1 - 4*a*x2", (2, 3): "4*a*x1 + x2"},
    "aff_boost": {(1, 3): "x1 - 4*a*x2", (2, 3): "-4*a*x1 + x2"},
}

_MODULUS_CLASSES = {"aff_rotation", "aff_boost"}


_CLASSES = {
    label: NormalFormClass(
        label, Multivector.build(3, 2, rep), label in _MODULUS_CLASSES
    )
    for label, rep in _REPRESENTATIVES.items()
}


def linear_normal_form_r3(P: Union[Multivector, Mapping]) -> NormalFormClass:
    """Classify a homogeneous-linear bivector on R^3 up to isomorphism.

    The class is read off the linear part L of the coefficient vector
    w = (c23, -c13, c12): the symmetric part S and the axial vector a of
    the skew part determine it.  L holds the coefficients' partial
    derivatives, which must fold to numbers; each coefficient must vanish
    at the origin.  The bivector is assumed to satisfy the Jacobi identity
    (S a = 0); that precondition is not checked.
    """
    P = validate_multivector(P, 3, 2)
    keys = ((2, 3), (1, 3), (1, 2))
    coeffs = [P.coefficient(key) for key in keys]
    rows = []
    for key, coeff in zip(keys, coeffs):
        names = coeff.free_parameters()
        if names:
            raise MultivectorError(
                f"coefficient at key {key} contains parameter {min(names)!r}; "
                "normal-form classification needs numeric linear coefficients"
            )
        partials = [differentiate(coeff, j) for j in (1, 2, 3)]
        # d sign(u)/dx folds to 0, so a sign term would pass for a constant.
        if any(type(d) is not Num for d in partials) or "sign(" in to_source(coeff):
            raise MultivectorError(f"coefficient at key {key} is not linear")
        rows.append([d.value for d in partials])
    for key, coeff, row in zip(keys, coeffs, rows):
        if partial_eval(coeff, 3, None, (0.0, 0.0, 0.0)) != 0.0:
            raise MultivectorError(f"coefficient at key {key} is not homogeneous linear")
        if not np.isfinite(row).all():
            raise MultivectorError(f"coefficient at key {key} is not finite")
    L = np.array(rows) * np.array([[1.0], [-1.0], [1.0]])
    S = (L + L.T) / 2.0
    C = (L - L.T) / 2.0
    avec = np.array([C[2, 1], C[0, 2], C[1, 0]])
    tol = 1e-12 * max(1.0, float(np.linalg.norm(L)))
    a_zero = float(np.linalg.norm(avec)) <= tol
    eigs = np.linalg.eigvalsh(S)
    npos = int(np.sum(eigs > tol))
    nneg = int(np.sum(eigs < -tol))
    rank = npos + nneg
    definite = rank > 0 and (npos == rank or nneg == rank)
    if a_zero:
        if rank == 0:
            return _CLASSES["trivial"]
        if rank == 1:
            return _CLASSES["heisenberg"]
        if rank == 2:
            return _CLASSES["e2" if definite else "e11"]
        return _CLASSES["so3" if definite else "sl2"]
    if rank == 0:
        return _CLASSES["aff_diag"]
    if rank == 1:
        return _CLASSES["aff_jordan"]
    if rank == 2:
        return _CLASSES["aff_rotation" if definite else "aff_boost"]
    raise MultivectorError(
        "linear bivector has full-rank symmetric part with a non-zero axial "
        "vector; no Poisson structure has this form"
    )


# --- Bracket of one-forms ---------------------------------------------------


def one_forms_bracket_sym(
    P: Union[Multivector, Mapping],
    alpha: Union[Multivector, Mapping],
    beta: Union[Multivector, Mapping],
    dim: int | None = None,
) -> Multivector:
    """Bracket of one-forms induced by a bivector.

    Component i is  sum_j (d beta_i/dx_j - d beta_j/dx_i) sharp(alpha)_j
    minus the same expression with alpha and beta swapped, plus the
    gradient of the pairing <beta, sharp(alpha)>.
    """
    P = validate_multivector(P, dim, 2)
    m = P.dim
    alpha = validate_multivector(alpha, m, 1)
    beta = validate_multivector(beta, m, 1)
    sharp_a = sharp_sym(P, alpha)
    sharp_b = sharp_sym(P, beta)

    def partials(gamma: Multivector) -> list:
        """partials(gamma)[j - 1][k - 1] = d gamma_k / dx_j."""
        coeffs = [gamma.coefficient((k,)) for k in range(1, m + 1)]
        return [differentiate_all(coeffs, j) for j in range(1, m + 1)]

    d_alpha, d_beta = partials(alpha), partials(beta)

    def antisym_terms(d_gamma: list, sharp_img: Multivector, i: int):
        """(d gamma_i/dx_j - d gamma_j/dx_i) sharp_img_j for each j."""
        for (j,), s_j in sharp_img.items():
            jac = fold_sub(d_gamma[j - 1][i - 1], d_gamma[i - 1][j - 1])
            yield fold_mul(jac, s_j)

    pairing: Expression = Num(0.0)
    for k in range(1, m + 1):
        bk = beta.coeffs.get((k,))
        sk = sharp_a.coeffs.get((k,))
        if bk is None or sk is None:
            continue
        pairing = fold_add(pairing, fold_mul(bk, sk))

    out = {}
    for i in range(1, m + 1):
        # One running sum, term by term: compiled, it rounds exactly like a
        # numeric assembly of the three terms in this order.
        total: Expression = Num(0.0)
        for term in antisym_terms(d_beta, sharp_a, i):
            total = fold_add(total, term)
        for term in antisym_terms(d_alpha, sharp_b, i):
            total = fold_sub(total, term)
        out[(i,)] = fold_add(total, differentiate(pairing, i))
    return Multivector.build(m, 1, out)
