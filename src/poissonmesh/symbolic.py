"""Symbolic operators on multivector fields.

All results are assembled with constant folding only (no algebraic
simplification), so a coefficient is dropped exactly when it folds to the
literal zero.  Sign conventions are fixed by the matrix form of a bivector,
M[i][j] = coefficient (i, j) for i < j, together with the Hamiltonian field
X_h = -M grad h; every operator below is consistent with that pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence, Union

import numpy as np

from .expressions import (
    Add,
    Call,
    Coord,
    Div,
    Expression,
    Mul,
    Neg,
    Num,
    Param,
    Pow,
    Sub,
    differentiate,
    differentiate_all,
    fold_add,
    fold_div,
    fold_mul,
    fold_neg,
    fold_sub,
    parse,
)
from .geometry import Multivector, MultivectorError, validate_multivector

__all__ = [
    "as_field",
    "as_scalar_expression",
    "SymbolicMatrix",
    "NormalFormClass",
    "bivector_to_matrix_sym",
    "sharp_sym",
    "schouten_coboundary",
    "curl_sym",
    "modular_vf_sym",
    "flaschka_ratiu_sym",
    "linear_normal_form_r3",
    "one_forms_bracket_sym",
]


def as_field(
    data: Union[Multivector, Mapping, str, int, float],
    dim: int | None,
    degree: int | None,
    what: str,
) -> Multivector:
    """Validate a field given as a Multivector, coefficient map or scalar.

    ``what`` names the caller in the error raised when raw data arrives
    without a dimension.
    """
    if isinstance(data, Multivector):
        return validate_multivector(data, data.dim if dim is None else dim, degree)
    if dim is None:
        raise MultivectorError(f"{what}: dimension required for raw coefficient data")
    if isinstance(data, (str, int, float)) and degree == 0:
        return Multivector.build(dim, 0, data)
    return validate_multivector(data, dim, degree)


def as_scalar_expression(f0, dim: int) -> Expression:
    """A scalar function (text, number, Expression or degree-0 field); None is 1."""
    if f0 is None:
        return Num(1.0)
    if isinstance(f0, Multivector):
        return f0.as_scalar()
    if isinstance(f0, Expression):
        return f0
    if isinstance(f0, (int, float)):
        return Num(float(f0))
    return parse(str(f0), dim)


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


def _sort_with_sign(seq: Sequence[int]) -> tuple[tuple[int, ...], int]:
    sign = _perm_sign(seq)
    return tuple(sorted(seq)), sign


def _accumulate(acc: dict, key: tuple[int, ...], term: Expression) -> None:
    if isinstance(term, Num) and term.value == 0.0:
        return
    if key in acc:
        acc[key] = fold_add(acc[key], term)
    else:
        acc[key] = term


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
    P = as_field(P, dim, 2, "bivector_to_matrix_sym")
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
    """
    P = as_field(P, dim, 2, "sharp_sym")
    alpha = as_field(alpha, P.dim, 1, "sharp_sym")
    matrix = bivector_to_matrix_sym(P)
    m = P.dim
    out = {}
    for j in range(1, m + 1):
        total: Expression = Num(0.0)
        for (k,), ak in alpha.items():
            total = fold_add(total, fold_mul(matrix.entry(k, j), ak))
        out[(j,)] = total
    return Multivector.build(m, 1, out)


# --- Schouten coboundary ----------------------------------------------------
#
# Computed in the odd-coordinate calculus: a degree-a monomial is
# f * xi_{i1} ... xi_{ia}; with P of degree 2,
#
#     [[P, A]] = sum_l ( dP/dxi_l * dA/dx_l  +  dP/dx_l * dA/dxi_l ),
#
# where dP/dxi_l is the left Grassmann derivative and products of odd
# monomials carry the permutation sign of merging their index tuples.


def _xi_derivative(field: Multivector, l: int) -> dict:
    out: dict = {}
    for key, coeff in field.items():
        if l not in key:
            continue
        pos = key.index(l)
        rest = key[:pos] + key[pos + 1 :]
        term = coeff if pos % 2 == 0 else fold_neg(coeff)
        _accumulate(out, rest, term)
    return out


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
            merged, sign = _sort_with_sign(tuple(key_l) + tuple(key_r))
            if sign == 0:
                continue
            term = fold_mul(left[key_l], right[key_r])
            if sign < 0:
                term = fold_neg(term)
            _accumulate(acc, merged, term)


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
    P = as_field(P, dim, 2, "schouten_coboundary")
    if isinstance(A, (str, int, float, Expression)) and degree is None:
        degree = 0
    A = as_field(A, P.dim, degree, "schouten_coboundary")
    m = P.dim
    out: dict = {}
    for l in range(1, m + 1):
        _grassmann_product_into(out, _xi_derivative(P, l), _x_derivative(A, l))
        _grassmann_product_into(out, _x_derivative(P, l), _xi_derivative(A, l))
    return Multivector.build(m, A.degree + 1, out)


# --- Curl (divergence) operator --------------------------------------------


def _complement(key: tuple[int, ...], m: int) -> tuple[int, ...]:
    return tuple(i for i in range(1, m + 1) if i not in key)


def _euclidean_divergence(field: Multivector) -> dict:
    """Divergence w.r.t. the standard volume, degree a -> a - 1."""
    m = field.dim
    a = field.degree
    keys = sorted(field.coeffs)
    partials = {}  # (key, l) -> d coefficient / d x_l, for l in key
    for l in range(1, m + 1):
        with_l = [key for key in keys if l in key]
        derivs = differentiate_all([field.coeffs[key] for key in with_l], l)
        partials.update(((key, l), d) for key, d in zip(with_l, derivs))
    out: dict = {}
    for key in keys:
        comp = _complement(key, m)
        eps_key = _perm_sign(key + comp)
        for pos, l in enumerate(key):
            reduced = key[:pos] + key[pos + 1 :]
            reduced_comp = _complement(reduced, m)
            d = partials[key, l]
            if isinstance(d, Num) and d.value == 0.0:
                continue
            sigma = (-1) ** sum(1 for c in comp if c < l)
            sign = (
                ((-1) ** (a - 1))
                * _perm_sign(reduced + reduced_comp)
                * eps_key
                * sigma
            )
            _accumulate(out, reduced, d if sign > 0 else fold_neg(d))
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
    A = as_field(A, dim, degree, "curl_sym")
    if A.degree < 1:
        raise MultivectorError(f"curl expects degree >= 1, got {A.degree}")
    m = A.dim
    f0e = as_scalar_expression(f0, m)
    trivial_volume = isinstance(f0e, Num) and f0e.value == 1.0
    if trivial_volume:
        scaled = A
    else:
        scaled = Multivector.build(
            m, A.degree, {key: fold_mul(f0e, c) for key, c in A.items()}
        )
    div = _euclidean_divergence(scaled)
    if not trivial_volume:
        div = {key: fold_div(c, f0e) for key, c in div.items()}
    return Multivector.build(m, A.degree - 1, div)


def modular_vf_sym(
    P: Union[Multivector, Mapping], f0=None, dim: int | None = None
) -> Multivector:
    """Modular vector field of a bivector w.r.t. the volume f0 * Omega0."""
    P = as_field(P, dim, 2, "modular_vf_sym")
    return curl_sym(P, f0)


# --- Flaschka-Ratiu bivector ------------------------------------------------


def _sym_det(rows: list[list[Expression]]) -> Expression:
    n = len(rows)
    if n == 0:
        return Num(1.0)
    if n == 1:
        return rows[0][0]
    if n == 2:
        return fold_sub(
            fold_mul(rows[0][0], rows[1][1]), fold_mul(rows[0][1], rows[1][0])
        )
    total: Expression = Num(0.0)
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in rows[1:]]
        term = fold_mul(rows[0][j], _sym_det(minor))
        total = fold_add(total, term if j % 2 == 0 else fold_neg(term))
    return total


def flaschka_ratiu_sym(
    casimirs: Sequence[Union[str, Expression]], dim: int
) -> Multivector:
    """Bivector with prescribed Casimir candidates K1..K_{m-2} on R^m.

    Coefficient (i, j) is -eps((i,j), complement) times the Jacobian minor
    of the K's over the complementary columns; degenerate inputs yield the
    zero bivector rather than an error.
    """
    if dim < 3:
        raise MultivectorError(f"dimension must be >= 3, got {dim}")
    if len(casimirs) != dim - 2:
        raise MultivectorError(
            f"expected {dim - 2} scalar functions for dimension {dim}, "
            f"got {len(casimirs)}"
        )
    exprs = [k if isinstance(k, Expression) else parse(str(k), dim) for k in casimirs]
    columns = [differentiate_all(exprs, j) for j in range(1, dim + 1)]
    gradients = [[column[r] for column in columns] for r in range(dim - 2)]
    out = {}
    for i in range(1, dim + 1):
        for j in range(i + 1, dim + 1):
            comp = _complement((i, j), dim)
            rows = [[gradients[r][c - 1] for c in comp] for r in range(dim - 2)]
            minor = _sym_det(rows)
            sign = -_perm_sign((i, j) + comp)
            out[(i, j)] = minor if sign > 0 else fold_neg(minor)
    return Multivector.build(dim, 2, out)


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


def _linear_form(e: Expression, key) -> np.ndarray:
    """Coefficients (c0, c1, c2, c3) of a homogeneous-linear expression."""
    if isinstance(e, Num):
        return np.array([e.value, 0.0, 0.0, 0.0])
    if isinstance(e, Coord):
        out = np.zeros(4)
        out[e.index] = 1.0
        return out
    if isinstance(e, Param):
        raise MultivectorError(
            f"coefficient at key {key} contains parameter {e.name!r}; "
            "normal-form classification needs numeric linear coefficients"
        )
    if isinstance(e, Neg):
        return -_linear_form(e.child, key)
    if isinstance(e, Add):
        return _linear_form(e.left, key) + _linear_form(e.right, key)
    if isinstance(e, Sub):
        return _linear_form(e.left, key) - _linear_form(e.right, key)
    if isinstance(e, Mul):
        left = _linear_form(e.left, key)
        right = _linear_form(e.right, key)
        if not left[1:].any():
            return left[0] * right
        if not right[1:].any():
            return right[0] * left
        raise MultivectorError(f"coefficient at key {key} is not linear")
    if isinstance(e, Div):
        left = _linear_form(e.left, key)
        right = _linear_form(e.right, key)
        if not right[1:].any() and right[0] != 0.0:
            return left / right[0]
        raise MultivectorError(f"coefficient at key {key} is not linear")
    if isinstance(e, (Pow, Call)):
        raise MultivectorError(f"coefficient at key {key} is not linear")
    raise MultivectorError(f"coefficient at key {key} is not linear")


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
    the skew part determine it.  The bivector is assumed to satisfy the
    Jacobi identity (S a = 0); that precondition is not checked.
    """
    P = as_field(P, 3, 2, "linear_normal_form_r3")
    if P.dim != 3:
        raise MultivectorError(f"normal forms are defined on R^3, got dimension {P.dim}")
    rows = [
        _linear_form(P.coefficient((2, 3)), (2, 3)),
        -_linear_form(P.coefficient((1, 3)), (1, 3)),
        _linear_form(P.coefficient((1, 2)), (1, 2)),
    ]
    for key, row in zip(((2, 3), (1, 3), (1, 2)), rows):
        if row[0] != 0.0:
            raise MultivectorError(
                f"coefficient at key {key} is not homogeneous linear"
            )
        if not np.isfinite(row).all():
            raise MultivectorError(f"coefficient at key {key} is not finite")
    L = np.array([row[1:] for row in rows])
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
    P = as_field(P, dim, 2, "one_forms_bracket_sym")
    m = P.dim
    alpha = as_field(alpha, m, 1, "one_forms_bracket_sym")
    beta = as_field(beta, m, 1, "one_forms_bracket_sym")
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
