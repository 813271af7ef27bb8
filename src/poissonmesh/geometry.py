"""Containers: multivector fields, point meshes, batch results.

A multivector field of degree a on R^m is stored sparsely as a map from
strictly increasing index tuples (1-based, length a) to coefficient
Expressions; absent keys are zero.  Differential forms use the same
container.  Degree 0 stores its single coefficient under the empty tuple.
"""

from __future__ import annotations

import itertools
import json
import os
from dataclasses import dataclass, field
from typing import BinaryIO, Callable, Iterable, Mapping, Sequence, Union

import numpy as np

from .expressions import (
    Expression,
    ExpressionError,
    Num,
    parse,
    to_source,
)

__all__ = [
    "Multivector",
    "MultivectorError",
    "Mesh",
    "BatchResult",
    "validate_multivector",
    "corners_mesh",
    "random_mesh",
    "as_mesh",
    "save_mesh",
    "load_mesh",
    "atomic_write",
]


class MultivectorError(ValueError):
    """Invalid multivector data; the message names the offending key."""


CoefficientValue = Union[str, int, float, Expression]


def _coerce_key(key, degree: int, dim: int) -> tuple[int, ...]:
    if isinstance(key, int):
        key = (key,)
    try:
        tup = tuple(map(int, key))
    except TypeError:
        raise MultivectorError(f"key {key!r} is not an index tuple")
    if len(tup) != degree:
        raise MultivectorError(
            f"key {tup} has length {len(tup)}, expected degree {degree}"
        )
    for i in tup:
        if i < 1 or i > dim:
            raise MultivectorError(f"key {tup} has index {i} outside 1..{dim}")
    for a, b in zip(tup, tup[1:]):
        if a >= b:
            raise MultivectorError(f"key {tup} is not strictly increasing")
    return tup


def _coerce_value(key, value: CoefficientValue, dim: int) -> Expression:
    if isinstance(value, Expression):
        if value.max_coordinate() > dim:
            raise MultivectorError(
                f"coefficient at key {key} uses x{value.max_coordinate()}, "
                f"beyond dimension {dim}"
            )
        return value
    if isinstance(value, (int, float)):
        return Num(float(value))
    if isinstance(value, str):
        try:
            return parse(value, dim)
        except ExpressionError as err:
            raise MultivectorError(f"coefficient at key {key} does not parse: {err}")
    raise MultivectorError(f"coefficient at key {key} has unsupported type")


@dataclass(frozen=True)
class Multivector:
    """Sparse multivector (or differential form) field on R^dim."""

    dim: int
    degree: int
    coeffs: Mapping[tuple[int, ...], Expression] = field(default_factory=dict)

    @classmethod
    def build(
        cls,
        dim: int,
        degree: int,
        coeffs: Mapping | CoefficientValue | None,
    ) -> "Multivector":
        """Validate and coerce raw coefficient data.

        ``coeffs`` maps index tuples to expression text, numbers, or
        Expressions.  For degree 0 a bare value is also accepted.  Exact
        zero coefficients are dropped, so absent-is-zero is canonical.
        """
        if not isinstance(dim, int) or dim < 1:
            raise MultivectorError(f"dimension must be a positive integer, got {dim!r}")
        if not isinstance(degree, int) or degree < 0:
            raise MultivectorError(f"degree must be a non-negative integer, got {degree!r}")
        if coeffs is None:
            coeffs = {}
        if degree == 0 and not isinstance(coeffs, Mapping):
            coeffs = {(): coeffs}
        if not isinstance(coeffs, Mapping):
            raise MultivectorError("coefficients must be a mapping from keys to values")
        out: dict[tuple[int, ...], Expression] = {}
        for key, value in coeffs.items():
            tup = _coerce_key(key, degree, dim)
            if tup in out:
                raise MultivectorError(f"key {tup} appears more than once")
            expr = _coerce_value(tup, value, dim)
            if isinstance(expr, Num) and expr.value == 0.0:
                continue
            out[tup] = expr
        ordered = {key: out[key] for key in sorted(out)}
        return cls(dim, degree, ordered)

    def keys(self) -> tuple[tuple[int, ...], ...]:
        return tuple(self.coeffs.keys())

    def coefficient(self, key: Sequence[int]) -> Expression:
        return self.coeffs.get(tuple(key), Num(0.0))

    def items(self):
        return self.coeffs.items()

    def is_zero(self) -> bool:
        return not self.coeffs

    def free_parameters(self) -> frozenset[str]:
        names: set[str] = set()
        for expr in self.coeffs.values():
            names |= expr.free_parameters()
        return frozenset(names)

    def as_scalar(self) -> Expression:
        if self.degree != 0:
            raise MultivectorError(f"degree {self.degree} field is not a scalar")
        return self.coeffs.get((), Num(0.0))

    def to_json_dict(self) -> dict:
        return {
            "dim": self.dim,
            "degree": self.degree,
            "coeffs": {
                ",".join(str(i) for i in key): to_source(expr)
                for key, expr in self.coeffs.items()
            },
        }

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "Multivector":
        try:
            dim = data["dim"]
            degree = data["degree"]
            raw = data.get("coeffs", {})
        except (TypeError, KeyError) as err:
            raise MultivectorError(f"multivector JSON needs dim/degree/coeffs: {err}")
        coeffs = {}
        for key_text, value in dict(raw).items():
            if key_text == "":
                key: tuple[int, ...] = ()
            else:
                try:
                    key = tuple(int(part) for part in str(key_text).split(","))
                except ValueError:
                    raise MultivectorError(f"key {key_text!r} is not an index tuple")
            coeffs[key] = value
        return cls.build(int(dim), int(degree), coeffs)

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "Multivector":
        return cls.from_json_dict(json.loads(text))


def validate_multivector(
    data: Union[Multivector, Mapping, CoefficientValue],
    dim: int,
    degree: int | None = None,
) -> Multivector:
    """Validate multivector data for dimension ``dim`` and return it built.

    Raises MultivectorError naming the offending key on any violation.
    """
    if isinstance(data, Multivector):
        if data.dim != dim:
            raise MultivectorError(
                f"multivector has dimension {data.dim}, expected {dim}"
            )
        if degree is not None and data.degree != degree:
            raise MultivectorError(
                f"multivector has degree {data.degree}, expected {degree}"
            )
        return Multivector.build(dim, data.degree, data.coeffs)
    if degree is None:
        if isinstance(data, Mapping) and data:
            first = next(iter(data))
            degree = 1 if isinstance(first, int) else len(tuple(first))
        elif not isinstance(data, Mapping):
            degree = 0
        else:
            raise MultivectorError("cannot infer degree of an empty coefficient map")
    return Multivector.build(dim, degree, data)


# --- Meshes -----------------------------------------------------------------


@dataclass(frozen=True)
class Mesh:
    """A finite list of evaluation points: float64 array of shape (k, m)."""

    points: np.ndarray

    def __post_init__(self):
        arr = np.ascontiguousarray(self.points, dtype=np.float64)
        if arr.ndim != 2:
            raise ValueError(f"mesh must be a 2-d array, got shape {arr.shape}")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError(f"mesh must be non-empty, got shape {arr.shape}")
        if not np.isfinite(arr).all():
            raise ValueError("mesh contains non-finite entries")
        object.__setattr__(self, "points", arr)

    @property
    def k(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def __len__(self) -> int:
        return self.k


def as_mesh(points: Union[Mesh, np.ndarray, Iterable], dim: int | None = None) -> Mesh:
    mesh = points if isinstance(points, Mesh) else Mesh(np.asarray(points, dtype=float))
    if dim is not None and mesh.dim != dim:
        raise ValueError(f"mesh has dimension {mesh.dim}, expected {dim}")
    return mesh


def corners_mesh(dim: int) -> Mesh:
    """All 2^dim binary corners, lexicographic, last coordinate fastest."""
    if dim < 1:
        raise ValueError(f"dimension must be >= 1, got {dim}")
    if dim > 20:
        raise ValueError(f"corner mesh of dimension {dim} would be too large")
    rows = list(itertools.product((0.0, 1.0), repeat=dim))
    return Mesh(np.array(rows, dtype=np.float64))


def random_mesh(k: int, dim: int, seed: int) -> Mesh:
    """k uniform points in [0,1)^dim from a seeded PCG64 generator."""
    if k < 1:
        raise ValueError(f"mesh size must be >= 1, got {k}")
    if dim < 1:
        raise ValueError(f"dimension must be >= 1, got {dim}")
    rng = np.random.default_rng(seed)
    return Mesh(rng.random((k, dim), dtype=np.float64))


def atomic_write(path, write: Callable[[BinaryIO], object]) -> None:
    """Create or replace ``path`` with what ``write`` writes to a binary handle
    on a temporary file beside it; on failure ``path`` keeps its old content."""
    tmp = f"{os.fspath(path)}.tmp.{os.getpid()}"
    try:
        with open(tmp, "wb") as fh:
            write(fh)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


# Values per chunk of csv or jsonl text: text is formatted one chunk at a
# time, so only one chunk's strings are alive, whatever the row width.
_CHUNK_VALUES = 49_152


def _row_chunks(k: int, rows: int) -> list:
    """Slices of at most ``rows`` rows covering ``range(k)``."""
    return [slice(a, min(a + rows, k)) for a in range(0, k, rows)]


def _text_chunks(k: int, width: int) -> list:
    """Slices of ``range(k)``, each ``_CHUNK_VALUES // width`` rows, at least one."""
    return _row_chunks(k, max(1, _CHUNK_VALUES // max(1, width)))


def _write_csv(fh: BinaryIO, rows: np.ndarray) -> None:
    """Write a (k, n) float array as csv, each value ``%.17g``, filling one
    row template per chunk (the bytes NumPy's savetxt writes with that fmt)."""
    template = b",".join([b"%.17g"] * rows.shape[1]) + b"\n"
    for span in _text_chunks(len(rows), rows.shape[1]):
        values = tuple(rows[span].ravel().tolist())
        fh.write((template * (span.stop - span.start)) % values)


def save_csv(path, rows: np.ndarray) -> None:
    """Atomically write a (k, n) float array as csv, one row per line."""
    atomic_write(path, lambda fh: _write_csv(fh, rows))


def save_mesh(mesh: Mesh, path: str) -> None:
    """Write a mesh as .npy (float64, shape (k, m)) or .csv (row per point)."""
    text = str(path)
    if text.endswith(".npy"):
        atomic_write(text, lambda fh: np.save(fh, mesh.points))
    elif text.endswith(".csv"):
        save_csv(text, mesh.points)
    else:
        raise ValueError(f"unsupported mesh format: {text}")


def load_mesh(path: str, dim: int | None = None) -> Mesh:
    text = str(path)
    if text.endswith(".npy"):
        arr = np.load(text)
    elif text.endswith(".csv"):
        arr = np.loadtxt(text, delimiter=",", ndmin=2)
    else:
        raise ValueError(f"unsupported mesh format: {text}")
    return as_mesh(arr, dim)


# --- Batch results ----------------------------------------------------------


def _records_from_columns(result: "BatchResult") -> list:
    """One dict per point from a records result's columns: its ``keys`` in
    order, then ``"valid"`` (a Python bool) when ``valid`` is set."""
    keys, columns = list(result.keys), list(result.columns)
    if result.valid is not None:
        keys.append("valid")
        columns.append(result.valid)
    # tolist() converts a column to Python scalars at C speed; zipping the
    # ready lists is several times faster than indexing the arrays per entry.
    rows = zip(*(column.tolist() for column in columns)) if keys else [()] * len(result)
    return [dict(zip(keys, row)) for row in rows]


class _Data:
    """``BatchResult.data``: what it was given, or for a records result the
    dicts, built from ``columns`` on first read and kept."""

    def __get__(self, result, owner=None):
        if result is not None and result._data is None and result.columns is not None:
            result._data = _records_from_columns(result)
        return None if result is None else result._data  # None: the field default

    def __set__(self, result, value) -> None:
        result._data = value


@dataclass
class BatchResult:
    """Evaluation output over a mesh.

    kind 'scalar': data is a (k,) column.
    kind 'vector': data is (k, m).
    kind 'matrix': data is (k, m, m).
    kind 'records': ``columns`` is a (len(keys), k) block of floats (object
    dtype with residual text for an unbound normal-form modulus); ``data``
    is a list of k dicts built from it on first access.  Every record holds
    exactly ``keys``, in that order, then ``"valid"`` (a bool) when
    ``valid`` is set; ``len`` and the writers read only the columns.
    ``valid`` (optional) marks points where the operation was defined;
    ``nonfinite`` counts non-finite coefficient evaluations.
    """

    kind: str
    data: Union[np.ndarray, list, None] = _Data()
    keys: tuple | None = None
    valid: np.ndarray | None = None
    nonfinite: int = 0
    columns: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.data) if self.columns is None else self.columns.shape[1]
