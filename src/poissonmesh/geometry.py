"""Containers: multivector fields, point meshes, batch results.

A multivector field of degree a on R^m is stored sparsely as a map from
strictly increasing index tuples (1-based, length a) to coefficient
Expressions; absent keys are zero.  Differential forms use the same
container.  Degree 0 stores its single coefficient under the empty tuple.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import re
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
    "as_expression",
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


def as_expression(value: CoefficientValue, dim: int) -> Expression:
    """The one coercion of a scalar input to an Expression on R^dim.

    An Expression passes if its coordinates fit ``dim``; an int or float (not
    a bool) becomes a ``Num``; text is parsed.  Raises ExpressionError.
    """
    if isinstance(value, Expression):
        if value.max_coordinate() > dim:
            raise ExpressionError(
                f"expression uses x{value.max_coordinate()}, beyond dimension {dim}"
            )
        return value
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            return Num(float(value))
        except OverflowError:  # an integer beyond the float64 range
            raise ExpressionError("integer too large for a float") from None
    if isinstance(value, str):
        return parse(value, dim)
    raise ExpressionError(f"not a scalar: {type(value).__name__}")


# The keys ``_key_text`` writes and ``from_json_dict`` reads.
_KEY_TEXT = re.compile(r"(?:[0-9]+(?:,[0-9]+)*)?")


def _key_text(key: tuple[int, ...]) -> str:
    """The JSON key of an index tuple: ``"1,2"`` for (1, 2), ``""`` for ()."""
    return ",".join(map(str, key))


def _coerce_key(key, degree: int, dim: int) -> tuple[int, ...]:
    tup = (key,) if type(key) is int else key
    if not (isinstance(tup, tuple) and all(type(i) is int for i in tup)):
        raise MultivectorError(f"key {key!r:.40} is not an int or a tuple of ints")
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

        ``coeffs`` maps index tuples (an int for degree 1) to scalars as
        ``as_expression`` takes them.  For degree 0 a bare scalar is also
        accepted; it raises ExpressionError where a mapped coefficient
        raises MultivectorError naming its key.  Exact zero coefficients are
        dropped, so absent-is-zero is canonical.
        """
        if not isinstance(dim, int) or dim < 1:
            raise MultivectorError(f"dimension must be a positive integer, got {dim!r}")
        if not isinstance(degree, int) or degree < 0:
            raise MultivectorError(f"degree must be a non-negative integer, got {degree!r}")
        if coeffs is None:
            coeffs = {}
        if degree == 0 and not isinstance(coeffs, Mapping):
            coeffs = {(): as_expression(coeffs, dim)}
        if not isinstance(coeffs, Mapping):
            raise MultivectorError("coefficients must be a mapping from keys to values")
        out: dict[tuple[int, ...], Expression] = {}
        for key, value in coeffs.items():
            tup = _coerce_key(key, degree, dim)
            if tup in out:
                raise MultivectorError(f"key {tup} appears more than once")
            try:
                expr = as_expression(value, dim)
            except ExpressionError as err:
                raise MultivectorError(f"coefficient at key {tup}: {err}") from None
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
            "coeffs": {_key_text(key): to_source(expr) for key, expr in self.coeffs.items()},
        }

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "Multivector":
        try:
            dim = data["dim"]
            degree = data["degree"]
            raw = data.get("coeffs", {})
        except (TypeError, KeyError) as err:
            raise MultivectorError(f"multivector JSON needs dim/degree/coeffs: {err}")
        for name, value in (("dim", dim), ("degree", degree)):
            if type(value) is not int:  # a JSON integer: not a bool, float or string
                raise MultivectorError(f"{name} must be a JSON integer, got {value!r:.40}")
        if not isinstance(raw, Mapping):
            raise MultivectorError(f"coeffs must be a JSON object, got {type(raw).__name__}")
        coeffs = {}
        for text, value in raw.items():
            if not (isinstance(text, str) and _KEY_TEXT.fullmatch(text)):
                raise MultivectorError(f"key {text!r:.40} is not indices joined by commas")
            try:
                key = tuple(map(int, text.split(","))) if text else ()
            except ValueError:  # a run beyond Python's limit on integer digits
                raise MultivectorError(f"key {text!r:.40} has an index too long") from None
            if key in coeffs:
                raise MultivectorError(f"key {key} appears more than once")
            coeffs[key] = value
        return cls.build(dim, degree, coeffs)

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "Multivector":
        return cls.from_json_dict(json.loads(text))


def validate_multivector(
    data: Union[Multivector, Mapping, CoefficientValue],
    dim: int | None = None,
    degree: int | None = None,
) -> Multivector:
    """Validate a field on R^dim and return it built.

    ``data`` is a Multivector, a map from index tuples to scalars, or a bare
    scalar (degree 0); scalars are what ``as_expression`` takes.  ``dim``
    may be left out for a Multivector, which brings its own.  ``degree``,
    when given, must match; otherwise it is the Multivector's own, the
    length of a map's first key (1 for an int key), or 0 for a bare scalar,
    and an empty map needs it.  Raises MultivectorError naming the offending
    key, or ExpressionError for a bare scalar that is not one.
    """
    if isinstance(data, Multivector):
        if dim is not None and data.dim != dim:
            raise MultivectorError(
                f"multivector has dimension {data.dim}, expected {dim}"
            )
        if degree is not None and data.degree != degree:
            raise MultivectorError(
                f"multivector has degree {data.degree}, expected {degree}"
            )
        return Multivector.build(data.dim, data.degree, data.coeffs)
    if dim is None:
        raise MultivectorError("a dimension is required for raw coefficient data")
    if degree is None:
        if isinstance(data, Mapping) and data:
            first = next(iter(data))
            degree = len(first) if isinstance(first, tuple) else 1
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


def as_mesh(points: Union[Mesh, np.ndarray, Iterable]) -> Mesh:
    return points if isinstance(points, Mesh) else Mesh(np.asarray(points, dtype=float))


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


_SIGN_BIT = np.uint64(1 << 63)


def _mirror_pairs(shape: tuple) -> tuple:
    """(lower, upper) flat places of the entries (i, j), i > j, and (j, i) of
    a row shaped (m, m); none for any other row shape."""
    m = shape[0] if len(shape) == 2 and shape[0] == shape[1] else 0
    return tuple((i * m + j, j * m + i) for i in range(m) for j in range(i))


def _format_columns(template: str, values: np.ndarray, spec: str, order=None) -> str:
    """Fill ``template`` row by row from the (columns, rows) block ``values``:
    with each value, or, given ``order``, with the ``spec`` texts of the
    columns it lists, so that one column's text can fill several slots."""
    if order is None:
        return template % tuple(values.T.ravel().tolist())
    texts = ((spec + "\n") * values.size % tuple(values.ravel().tolist())).split("\n")
    texts = np.array(texts[:-1], dtype=object).reshape(values.shape)
    return template % tuple(texts[order].T.ravel().tolist())


def _chunk_text(block: np.ndarray, spec: str, lines: tuple, choice=None,
                pairs: tuple = (), ready=None) -> str:
    """The text of the (columns, rows) chunk ``block``, each distinct column
    formatted once.

    ``lines`` are line templates, one ``%s`` per column and no ``-`` before
    one; row r takes ``lines[choice[r]]``, or ``lines[0]`` if ``choice`` is
    None.  The plan is checked on the chunk's data, and the text is that of
    formatting every value by ``spec``:

    - a float64 column whose bits are all equal is a literal in the lines;
    - the lower column of a ``pairs`` entry (lower, upper), neither
      constant, that is the sign flip of the upper's bits in every row, or
      NaN where it is, takes the upper's text with the sign flipped: a
      leading ``-`` dropped, a NaN's text kept, else ``-`` prepended;
    - every other column is formatted from ``ready(values)`` (by default
      the values themselves).
    """
    ready = ready or (lambda values: values)
    n, rows = block.shape
    literals, mirrors = {}, {}
    if block.dtype == np.float64 and n:
        bits = block.view(np.uint64)
        constant = (bits == bits[:, :1]).all(axis=1)
        columns = np.flatnonzero(constant)
        literals = dict(zip(columns.tolist(), (
            spec % value for value in ready(block[columns, :1]).ravel().tolist()
        )))
        if pairs:
            lower, upper = np.array(pairs).T
            nan = np.isnan(block[lower])
            flipped = (bits[lower] == bits[upper] ^ _SIGN_BIT) | nan & np.isnan(block[upper])
            keep = flipped.all(axis=1) & ~constant[lower] & ~constant[upper]
            mirrors = dict(zip(lower[keep].tolist(), upper[keep].tolist()))
    formatted = [c for c in range(n) if c not in literals and c not in mirrors]
    values = ready(block if len(formatted) == n else block[formatted])
    order, slot = None, spec
    if mirrors:
        place = {c: i for i, c in enumerate(formatted)}
        order = [place[mirrors.get(c, c)] for c in range(n) if c not in literals]
        slot = "%s"  # each slot takes a text, not a value
    slots = tuple(literals.get(c, "-%s" if c in mirrors else slot) for c in range(n))
    text = _format_columns(_chunk_lines(lines, slots, rows, choice), values, spec, order)
    if mirrors:
        text = text.replace("--", "")  # a negative text in a "-%s" slot
        if nan[keep].any():
            nan_text = spec % ready(np.full((1, 1), np.nan))[0, 0]
            text = text.replace("-" + nan_text, nan_text)
    return text


def _chunk_lines(lines: tuple, slots: tuple, rows: int, choice) -> str:
    """The chunk's template: ``lines`` with ``slots`` filled in, one a row."""
    if choice is None:
        return lines[0] % slots * rows
    filled = tuple(line % slots for line in lines)
    return "".join(map(filled.__getitem__, choice))


def _write_csv(fh: BinaryIO, data: np.ndarray) -> None:
    """Write a float array of k rows as csv, each row flattened row-major.

    The bytes are those NumPy's savetxt writes with ``fmt="%.17g"`` and
    ``delimiter=","``.  Each chunk formats each distinct column once
    (``_chunk_text``): a column constant over the chunk is one literal, and
    an entry (i, j), i > j, of a (k, m, m) array that is the exact negation
    of (j, i), as in an antisymmetric matrix, reuses its text.
    """
    rows = data.reshape(len(data), math.prod(data.shape[1:]))
    line = ",".join(["%s"] * rows.shape[1]) + "\n"
    pairs = _mirror_pairs(data.shape[1:])
    for span in _text_chunks(len(rows), rows.shape[1]):
        fh.write(_chunk_text(rows[span].T, "%.17g", (line,), pairs=pairs).encode())


def save_csv(path, data: np.ndarray) -> None:
    """Atomically write a float array of k rows as csv, one row per line."""
    atomic_write(path, lambda fh: _write_csv(fh, data))


def save_mesh(mesh: Mesh, path: str) -> None:
    """Write a mesh as .npy (float64, shape (k, m)) or .csv (row per point)."""
    text = str(path)
    if text.endswith(".npy"):
        atomic_write(text, lambda fh: np.save(fh, mesh.points))
    elif text.endswith(".csv"):
        save_csv(text, mesh.points)
    else:
        raise ValueError(f"unsupported mesh format: {text}")


def load_mesh(path: str) -> Mesh:
    text = str(path)
    if text.endswith(".npy"):
        arr = np.load(text)
    elif text.endswith(".csv"):
        arr = np.loadtxt(text, delimiter=",", ndmin=2)
    else:
        raise ValueError(f"unsupported mesh format: {text}")
    return as_mesh(arr)


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
