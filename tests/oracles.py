"""Independent numerical oracles used to cross-check the library.

Everything here works on plain Python callables (point -> float) and dict
representations of multivector fields, and gets derivatives from central
finite differences.  None of it shares code with the package's symbolic
differentiation, Schouten assembly, or exterior-calculus routines, so an
agreement between the two routes is meaningful evidence of correctness.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Callable, Mapping, Sequence

import numpy as np

Point = Sequence[float]
ScalarField = Callable[[Point], float]

FD_STEP = 1e-6


def central_fd(f: ScalarField, point: Point, index: int, h: float = FD_STEP) -> float:
    """Central finite difference of f along 1-based coordinate ``index``."""
    p = np.asarray(point, dtype=float)
    hi = p.copy()
    lo = p.copy()
    hi[index - 1] += h
    lo[index - 1] -= h
    return (f(hi) - f(lo)) / (2.0 * h)


def fd_gradient(f: ScalarField, point: Point, m: int, h: float = FD_STEP) -> np.ndarray:
    return np.array([central_fd(f, point, i, h) for i in range(1, m + 1)])


def perm_sign(indices: Sequence[int]) -> int:
    """Sign of the permutation sorting ``indices``; 0 if any index repeats."""
    seq = list(indices)
    if len(set(seq)) != len(seq):
        return 0
    sign = 1
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if seq[i] > seq[j]:
                sign = -sign
    return sign


def wedge_insert(acc: dict, indices: Sequence[int], value: float) -> None:
    """Accumulate value * e_{indices} into acc keyed by sorted index tuples."""
    sign = perm_sign(indices)
    if sign == 0 or value == 0.0:
        return
    key = tuple(sorted(indices))
    acc[key] = acc.get(key, 0.0) + sign * value


def wedge_product(a: Mapping[tuple, float], b: Mapping[tuple, float]) -> dict:
    """Numeric wedge product of two multivectors given as {key: value} dicts."""
    out: dict = {}
    for ka, va in a.items():
        for kb, vb in b.items():
            wedge_insert(out, tuple(ka) + tuple(kb), va * vb)
    return {k: v for k, v in out.items() if v != 0.0}


# ---------------------------------------------------------------------------
# Schouten bracket oracle.
#
# Route: factor every coefficient monomial f * d_{i1} ^ ... ^ d_{ia} into the
# decomposable field (f d_{i1}) ^ d_{i2} ^ ... ^ d_{ia}, expand the bracket of
# two decomposables into pairwise Lie brackets,
#
#   [[X1^...^Xp, Y1^...^Yq]]
#       = sum_{k,l} (-1)^{k+l} [Xk, Yl] ^ X_{without k} ^ Y_{without l},
#   [[X1^...^Xp, g]] = sum_k (-1)^{p-k} Xk(g) X_{without k},
#
# evaluate Lie brackets with central finite differences, and assemble with the
# numeric wedge.  This textbook convention differs from the library's by a
# fixed factor of -1 when the first argument is a bivector (calibrated by hand
# on degree pairs (2,0), (2,1), (2,2)), which _schouten_decomposable's caller
# applies.
# ---------------------------------------------------------------------------


def _vf_component(field: Mapping[int, ScalarField], j: int) -> ScalarField:
    """Component as a callable; plain numbers (e.g. evaluated Lie brackets)
    are wrapped as constants."""
    fn = field.get(j)
    if fn is None:
        return lambda p: 0.0
    if callable(fn):
        return fn
    return lambda p, v=float(fn): v


def lie_bracket_fd(
    x: Mapping[int, ScalarField], y: Mapping[int, ScalarField], m: int, point: Point
) -> dict:
    """[x, y]^j = sum_i x^i d_i y^j - y^i d_i x^j at ``point``, via FD."""
    out = {}
    for j in range(1, m + 1):
        total = 0.0
        yj = _vf_component(y, j)
        xj = _vf_component(x, j)
        for i in range(1, m + 1):
            xi = _vf_component(x, i)(point)
            yi = _vf_component(y, i)(point)
            if xi != 0.0:
                total += xi * central_fd(yj, point, i)
            if yi != 0.0:
                total -= yi * central_fd(xj, point, i)
        out[j] = total
    return out


def _factor_monomial(key: tuple, coeff: ScalarField) -> list[dict]:
    """Monomial coeff * d_key as a list of vector fields {component: fn}."""
    factors = [{key[0]: coeff}]
    for idx in key[1:]:
        factors.append({idx: lambda p: 1.0})
    return factors


def _schouten_decomposable(
    xs: list[dict], ys: list[dict], m: int, point: Point
) -> dict:
    out: dict = {}
    p = len(xs)
    for k in range(p):
        rest_x = xs[:k] + xs[k + 1 :]
        for l in range(len(ys)):
            rest_y = ys[:l] + ys[l + 1 :]
            bracket = lie_bracket_fd(xs[k], ys[l], m, point)
            sign = (-1) ** ((k + 1) + (l + 1))
            base = {(): float(sign)}
            for vf in [bracket] + rest_x + rest_y:
                vals = {(j,): _vf_component(vf, j)(point) for j in range(1, m + 1)}
                base = wedge_product(base, vals)
            for key, val in base.items():
                out[key] = out.get(key, 0.0) + val
    return out


def _schouten_with_function(xs: list[dict], g: ScalarField, m: int, point: Point) -> dict:
    out: dict = {}
    p = len(xs)
    for k in range(p):
        rest = xs[:k] + xs[k + 1 :]
        directional = 0.0
        for i in range(1, m + 1):
            xi = _vf_component(xs[k], i)(point)
            if xi != 0.0:
                directional += xi * central_fd(g, point, i)
        sign = (-1) ** (p - (k + 1))
        base = {(): sign * directional}
        for vf in rest:
            vals = {(j,): _vf_component(vf, j)(point) for j in range(1, m + 1)}
            base = wedge_product(base, vals)
        for key, val in base.items():
            out[key] = out.get(key, 0.0) + val
    return out


def schouten_oracle(
    bivector: Mapping[tuple, ScalarField],
    arg: Mapping[tuple, ScalarField] | ScalarField,
    degree: int,
    m: int,
    point: Point,
) -> dict:
    """[[bivector, arg]] at ``point`` in the library's sign convention.

    ``bivector`` maps increasing pairs (i, j) with i < j to coefficient
    callables; ``arg`` likewise for degree >= 1, or a single callable for
    degree 0.  Returns {increasing key: value} with near-zero entries kept.
    """
    out: dict = {}
    for key_p, coeff_p in bivector.items():
        xs = _factor_monomial(key_p, coeff_p)
        if degree == 0:
            partial = _schouten_with_function(xs, arg, m, point)
        else:
            partial = {}
            for key_a, coeff_a in arg.items():
                ys = _factor_monomial(key_a, coeff_a)
                for key, val in _schouten_decomposable(xs, ys, m, point).items():
                    partial[key] = partial.get(key, 0.0) + val
        for key, val in partial.items():
            out[key] = out.get(key, 0.0) - val
    return out


# ---------------------------------------------------------------------------
# Exterior-calculus oracle for the curl (divergence) operator.
#
# Forms at a point are dicts {increasing tuple: value}.  The contraction of a
# multivector A into the volume f0 * dx1^...^dxm is computed with nested
# interior products (i_{X^Y} = i_X o i_Y); the exterior derivative comes from
# finite differences of the contraction's coefficient functions.  The curl
# operator D must then satisfy  i_{D(A)} (f0 Omega0) = d ( i_A (f0 Omega0) ).
# ---------------------------------------------------------------------------


def interior_product_basis(index: int, form: Mapping[tuple, float]) -> dict:
    """i_{d_index} of a numeric form."""
    out: dict = {}
    for key, val in form.items():
        if index not in key:
            continue
        pos = key.index(index)
        rest = key[:pos] + key[pos + 1 :]
        out[rest] = out.get(rest, 0.0) + ((-1) ** pos) * val
    return {k: v for k, v in out.items() if v != 0.0}


def contract_into_volume(
    field: Mapping[tuple, ScalarField], f0: ScalarField, m: int, point: Point
) -> dict:
    """i_A (f0 Omega0) evaluated at ``point``."""
    volume = {tuple(range(1, m + 1)): f0(point)}
    out: dict = {}
    for key, coeff in field.items():
        # i_{X1 ^ ... ^ Xa} = i_{X1} o ... o i_{Xa}: the highest index is
        # contracted first, so iterate the key from the right.
        form = volume
        for idx in reversed(key):
            form = interior_product_basis(idx, form)
        c = coeff(point)
        for fkey, val in form.items():
            out[fkey] = out.get(fkey, 0.0) + c * val
    return out


def exterior_derivative_fd(
    coefficient: Callable[[tuple, Point], float],
    keys: Sequence[tuple],
    m: int,
    point: Point,
    h: float = FD_STEP,
) -> dict:
    """d of the form whose coefficient over ``keys`` is ``coefficient(key, p)``."""
    out: dict = {}
    for key in keys:
        for l in range(1, m + 1):
            if l in key:
                continue
            dval = central_fd(lambda p, k=key: coefficient(k, p), point, l, h)
            wedge_insert(out, (l,) + tuple(key), dval)
    return out


def curl_defect(
    field: Mapping[tuple, ScalarField],
    f0: ScalarField,
    curl_field: Mapping[tuple, ScalarField],
    m: int,
    point: Point,
) -> float:
    """Max |i_{D(A)}(f0 Omega0) - d(i_A(f0 Omega0))| coefficient at ``point``."""
    lhs = contract_into_volume(curl_field, f0, m, point)
    all_keys = [
        key
        for key in itertools.combinations(range(1, m + 1), m - _degree_of(field))
    ]
    rhs = exterior_derivative_fd(
        lambda key, p: contract_into_volume(field, f0, m, p).get(key, 0.0),
        all_keys,
        m,
        point,
    )
    defect = 0.0
    for key in set(lhs) | set(rhs):
        defect = max(defect, abs(lhs.get(key, 0.0) - rhs.get(key, 0.0)))
    return defect


def _degree_of(field: Mapping[tuple, ScalarField]) -> int:
    for key in field:
        return len(key)
    return 0


# ---------------------------------------------------------------------------
# Deterministic random polynomial coefficients for oracle sweeps.  Plain
# polynomials keep the finite-difference error of the oracles far below the
# comparison tolerances.
# ---------------------------------------------------------------------------


def random_polynomial_text(rng: np.random.Generator, m: int, max_terms: int = 3) -> str:
    terms = []
    for _ in range(int(rng.integers(1, max_terms + 1))):
        coeff = int(rng.integers(-3, 4))
        if coeff == 0:
            coeff = 1
        factors = [str(coeff)]
        for _ in range(int(rng.integers(0, 3))):
            factors.append(f"x{int(rng.integers(1, m + 1))}")
        terms.append("*".join(factors))
    return " + ".join(terms)


def random_multivector_dict(
    rng: np.random.Generator, m: int, degree: int, density: float = 0.8
) -> dict:
    out = {}
    for key in itertools.combinations(range(1, m + 1), degree):
        if rng.random() < density:
            out[key] = random_polynomial_text(rng, m)
    if not out:
        out[tuple(range(1, degree + 1))] = random_polynomial_text(rng, m)
    return out


# ---------------------------------------------------------------------------
# Gauge transformation in exact rational arithmetic.
# ---------------------------------------------------------------------------


def exact_gauge(M: np.ndarray, L: np.ndarray) -> tuple:
    """(X, det G) for G = I - L M and X = M G^{-1}, as Fractions, from the
    float matrices M and L (each float is read as the rational it is); X is
    None where G is singular.  Gauss-Jordan elimination on [G | I]."""
    m = len(M)
    Mq = [[Fraction(float(v)) for v in row] for row in M]
    Lq = [[Fraction(float(v)) for v in row] for row in L]
    A = [
        [int(i == j) - sum(Lq[i][k] * Mq[k][j] for k in range(m)) for j in range(m)]
        + [Fraction(int(i == j)) for j in range(m)]
        for i in range(m)
    ]
    det = Fraction(1)
    for c in range(m):
        p = next((r for r in range(c, m) if A[r][c] != 0), None)
        if p is None:
            return None, Fraction(0)
        if p != c:
            A[c], A[p] = A[p], A[c]
            det = -det
        det *= A[c][c]
        A[c] = [v / A[c][c] for v in A[c]]
        for r in range(m):
            if r != c and A[r][c] != 0:
                A[r] = [a - A[r][c] * b for a, b in zip(A[r], A[c])]
    inverse = [row[m:] for row in A]
    X = [[sum(Mq[i][k] * inverse[k][j] for k in range(m)) for j in range(m)] for i in range(m)]
    return X, det
