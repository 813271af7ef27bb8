"""Correctness check: sampled output rows against an independent reference.

The reference never calls the library.  It evaluates the raw coefficient
text as Python expressions over NumPy complex arrays and takes first
derivatives by the complex step, f'(x) = Im f(x + ih) / h, which is exact to
rounding for the analytic functions the inputs use.  Each method's result is
then assembled from its textbook formula with dense per-point linear
algebra.  Outputs are read back from the written files, so the check covers
the evaluator, the layout assembly and the writer together.

A sampled value passes when |out - ref| <= RTOL * (1 + max |ref row|),
multiplied by the condition number of I - Lambda M for the gauge
transformation.  Non-finite entries and validity flags must match exactly.
"""

from __future__ import annotations

import json

import numpy as np

RTOL = 1e-8
GAUGE_SINGULAR_TOLERANCE = 1e-12  # the documented validity threshold
_STEP = 1e-20

_FUNCS = {
    name: getattr(np, name)
    for name in ("exp", "log", "sqrt", "sin", "cos", "tan", "sinh", "cosh", "tanh")
}


class CheckFailure(Exception):
    """An output that disagrees with the reference."""


# --- Complex-step evaluation of coefficient text ------------------------------


def _value_grad(text, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Value (n,) and gradient (n, m) of an expression at each row of pts."""
    n, m = pts.shape
    z = np.repeat(pts[None, :, :].astype(complex), m, axis=0)  # (m, n, m)
    for j in range(m):
        z[j, :, j] += 1j * _STEP
    namespace = dict(_FUNCS)
    namespace.update({f"x{i + 1}": z[:, :, i] for i in range(m)})
    with np.errstate(all="ignore"):
        raw = eval(str(text), {"__builtins__": {}}, namespace)  # noqa: S307
        v = np.broadcast_to(np.asarray(raw, dtype=complex), (m, n))
        return v[0].real.copy(), (v.imag / _STEP).T.copy()


def _bivector(coeffs, pts):
    """Matrix M (n, m, m) and its derivatives dM (n, m, m, m), last axis d/dx_l."""
    n, m = pts.shape
    M = np.zeros((n, m, m))
    dM = np.zeros((n, m, m, m))
    for (i, j), text in coeffs.items():
        v, g = _value_grad(text, pts)
        M[:, i - 1, j - 1], M[:, j - 1, i - 1] = v, -v
        dM[:, i - 1, j - 1], dM[:, j - 1, i - 1] = g, -g
    return M, dM


def _vector(coeffs, pts):
    """Components (n, m) and Jacobian J (n, m, m) with J[:, i, l] = d v_i/dx_l."""
    n, m = pts.shape
    v = np.zeros((n, m))
    J = np.zeros((n, m, m))
    for key, text in coeffs.items():
        i = key[0] if isinstance(key, tuple) else int(key)
        v[:, i - 1], J[:, i - 1] = _value_grad(text, pts)
    return v, J


def _perm_sign(seq) -> int:
    sign = 1
    seq = list(seq)
    for a in range(len(seq)):
        for b in range(a + 1, len(seq)):
            if seq[a] > seq[b]:
                sign = -sign
    return sign


# --- Per-method references ------------------------------------------------------


def _curl(coeffs, degree, f0, pts):
    """(1/f0) times the Euclidean divergence of f0 * A, for degree 1 or 2."""
    f, df = _value_grad(f0, pts)
    log_grad = df / f[:, None]
    if degree == 1:
        v, J = _vector(coeffs, pts)
        return np.trace(J, axis1=1, axis2=2) + np.einsum("nl,nl->n", log_grad, v)
    if degree == 2:
        A, dA = _bivector(coeffs, pts)
        # (curl A)_j = sum_i d(f0 A^{ij})/dx_i / f0
        return np.einsum("niji->nj", dA) + np.einsum("ni,nij->nj", log_grad, A)
    raise ValueError(f"curl reference covers degrees 1 and 2, got {degree}")


def _coboundary(P, A, degree, pts):
    M, dM = _bivector(P, pts)
    if degree == 0:
        _, grad = _value_grad(A, pts)
        return -np.einsum("nij,nj->ni", M, grad)
    if degree == 1:
        X, J = _vector(A, pts)
        # [[P, X]] = L_X P:  -M J^T - J M + sum_l X_l dM/dx_l
        return (
            -np.einsum("nil,njl->nij", M, J)
            - np.einsum("nil,nlj->nij", J, M)
            + np.einsum("nl,nijl->nij", X, dM)
        )
    raise ValueError(f"coboundary reference covers degrees 0 and 1, got {degree}")


def _one_forms(P, alpha, beta, pts):
    M, dM = _bivector(P, pts)
    a, Ja = _vector(alpha, pts)
    b, Jb = _vector(beta, pts)
    sharp_a = -np.einsum("nij,nj->ni", M, a)
    sharp_b = -np.einsum("nij,nj->ni", M, b)
    # antisymmetrized Jacobians  d_j gamma_i - d_i gamma_j
    Wb = Jb - np.swapaxes(Jb, 1, 2)
    Wa = Ja - np.swapaxes(Ja, 1, 2)
    # gradient of <beta, -M alpha> by the product rule
    pairing_grad = -(
        np.einsum("nkl,nkj,nj->nl", Jb, M, a)
        + np.einsum("nk,nkjl,nj->nl", b, dM, a)
        + np.einsum("nk,nkj,njl->nl", b, M, Ja)
    )
    return (
        np.einsum("nij,nj->ni", Wb, sharp_a)
        - np.einsum("nij,nj->ni", Wa, sharp_b)
        + pairing_grad
    )


def _gauge(P, lam, pts):
    M, _ = _bivector(P, pts)
    L, _ = _bivector(lam, pts)
    m = pts.shape[1]
    G = np.eye(m) - L @ M
    with np.errstate(all="ignore"):
        det = np.linalg.det(G)
    valid = np.isfinite(det) & (np.abs(det) > GAUGE_SINGULAR_TOLERANCE)
    out = np.full_like(M, np.nan)
    cond = np.ones(len(pts))
    for r in np.flatnonzero(valid):
        out[r] = np.linalg.solve(G[r].T, M[r].T).T  # M G^{-1}
        cond[r] = np.linalg.cond(G[r])
    return out, valid, cond


_SO3 = {(1, 2): "x3", (1, 3): "-x2", (2, 3): "x1"}
_SL2 = {(1, 2): "-x3", (1, 3): "-x2", (2, 3): "x1"}
_E2 = {(1, 3): "-x2", (2, 3): "x1"}
_E11 = {(1, 3): "x2", (2, 3): "x1"}
_HEISENBERG = {(2, 3): "x1"}


def _normal_form(P, pts):
    """Representative of a unimodular linear bivector on R^3 (axial part 0)."""
    basis = np.eye(3)
    M, _ = _bivector(P, basis)
    # w = (c23, -c13, c12) = L x; column j of L is w(e_j)
    L = np.stack([M[:, 1, 2], -M[:, 0, 2], M[:, 0, 1]], axis=0)
    if np.abs(L - L.T).max() > 1e-12 * max(1.0, np.abs(L).max()):
        raise ValueError("normal-form reference covers unimodular inputs only")
    eigs = np.linalg.eigvalsh(L)
    tol = 1e-12 * max(1.0, float(np.linalg.norm(L)))
    npos, nneg = int((eigs > tol).sum()), int((eigs < -tol).sum())
    rank = npos + nneg
    definite = npos == rank or nneg == rank
    rep = {
        0: {},
        1: _HEISENBERG,
        2: _E2 if definite else _E11,
        3: _SO3 if definite else _SL2,
    }[rank]
    R, _ = _bivector(rep, pts)
    return R


def _flaschka_ratiu(casimirs, pts):
    n, m = pts.shape
    grads = np.stack([_value_grad(k, pts)[1] for k in casimirs], axis=1)  # (n, m-2, m)
    out = np.zeros((n, m, m))
    for i in range(1, m + 1):
        for j in range(i + 1, m + 1):
            comp = [c for c in range(1, m + 1) if c not in (i, j)]
            minor = np.linalg.det(grads[:, :, [c - 1 for c in comp]])
            value = -_perm_sign((i, j, *comp)) * minor
            out[:, i - 1, j - 1], out[:, j - 1, i - 1] = value, -value
    return out


def reference(method: str, inputs, pts: np.ndarray):
    """(values, valid, scale) for the sampled points.

    ``values`` is (n,), (n, m) or (n, m, m) by the result degree; ``valid`` is
    a bool mask or None; ``scale`` multiplies the tolerance per row.
    """
    i = inputs
    ones = np.ones(len(pts))
    if method in ("num_bivector", "num_bivector_to_matrix"):
        return _bivector(i["P"], pts)[0], None, ones
    if method in ("num_hamiltonian_vf", "num_sharp_morphism", "num_poisson_bracket"):
        M, _ = _bivector(i["P"], pts)
        if method == "num_sharp_morphism":
            cov, _ = _vector(i["alpha"], pts)
        else:
            cov = _value_grad(i["h" if method == "num_hamiltonian_vf" else "f"], pts)[1]
        field = -np.einsum("nij,nj->ni", M, cov)
        if method != "num_poisson_bracket":
            return field, None, ones
        grad_g = _value_grad(i["g"], pts)[1]
        return np.einsum("ni,ni->n", grad_g, field), None, ones
    if method == "num_coboundary_operator":
        return _coboundary(i["P"], i["A"], i["degree"], pts), None, ones
    if method == "num_modular_vf":
        return _curl(i["P"], 2, i["f0"], pts), None, ones
    if method == "num_curl_operator":
        return _curl(i["A"], i["degree"], i["f0"], pts), None, ones
    if method == "num_one_forms_bracket":
        return _one_forms(i["P"], i["alpha"], i["beta"], pts), None, ones
    if method == "num_gauge_transformation":
        return _gauge(i["P"], i["lam"], pts)
    if method == "num_linear_normal_form_r3":
        return _normal_form(i["P"], pts), None, ones
    if method == "num_flaschka_ratiu_bivector":
        return _flaschka_ratiu(i["casimirs"], pts), None, ones
    raise ValueError(f"no reference for {method!r}")


# --- Reading outputs back from disk --------------------------------------------


def _fill_coeffs(coeffs: dict, shape) -> np.ndarray:
    out = np.zeros(shape)
    for key, value in coeffs.items():
        value = float(value)
        if key == "value":
            out[()] = value
            continue
        idx = [int(part) - 1 for part in key.split(",")]
        if len(idx) == 1:
            out[idx[0]] = value
        else:
            a, b = idx
            out[a, b], out[b, a] = value, -value
    return out


def read_rows(path: str, fmt: str, rows: np.ndarray, shape) -> tuple:
    """(row count, values (n, *shape), valid flags or None) from a written file."""
    n = len(rows)
    values = np.zeros((n,) + tuple(shape))
    if fmt == "npy":
        data = np.load(path, mmap_mode="r")
        values[:] = np.asarray(data[rows]).reshape(values.shape)
        count = data.shape[0]
        valid = None
        try:
            valid = np.load(f"{path}.valid.npy")[rows].astype(bool)
        except FileNotFoundError:
            pass
        return count, values, valid
    with open(path, "rb") as fh:
        lines = fh.read().split(b"\n")
    if lines and lines[-1] == b"":
        lines.pop()
    if fmt == "csv":
        for r, row in enumerate(rows):
            flat = [float(v) for v in lines[row].split(b",")]
            values[r] = np.asarray(flat).reshape(shape)
        return len(lines), values, None
    flags = []
    for r, row in enumerate(rows):
        obj = json.loads(lines[row])
        if "coeffs" in obj:
            values[r] = _fill_coeffs(obj["coeffs"], shape)
        else:
            (payload,) = (obj[key] for key in ("matrix", "vector", "value") if key in obj)
            values[r] = np.asarray(payload, dtype=float).reshape(shape)
        if "valid" in obj:
            flags.append(bool(obj["valid"]))
    valid = np.array(flags) if flags else None
    return len(lines), values, valid


def compare(ref, out, k_expected: int, count: int, ref_valid, out_valid, scale):
    """Raise CheckFailure on the first disagreement."""
    if count != k_expected:
        raise CheckFailure(f"{count} output rows, expected {k_expected}")
    if ref_valid is not None:
        if out_valid is None:
            raise CheckFailure("output carries no validity flags")
        if not np.array_equal(ref_valid, out_valid):
            raise CheckFailure("validity flags differ from the reference")
    n = len(ref)
    ref2 = ref.reshape(n, -1)
    out2 = out.reshape(n, -1)
    for r in range(n):
        if ref_valid is not None and not ref_valid[r]:
            if not np.isnan(out2[r]).all():
                raise CheckFailure(f"sample {r}: invalid point carries values")
            continue
        a, b = ref2[r], out2[r]
        finite = np.isfinite(a)
        if not np.array_equal(finite, np.isfinite(b)) or not np.array_equal(
            a[~finite], b[~finite], equal_nan=True
        ):
            raise CheckFailure(f"sample {r}: non-finite entries differ")
        if finite.any():
            bound = RTOL * (1.0 + np.abs(a[finite]).max()) * scale[r]
            err = np.abs(a[finite] - b[finite]).max()
            if not err <= bound:
                raise CheckFailure(
                    f"sample {r}: |out - ref| = {err:.3g} exceeds {bound:.3g}"
                )
