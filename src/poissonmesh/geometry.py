"""Containers: multivector fields, point meshes, batch results.

A multivector field of degree a on R^m is stored sparsely as a map from
strictly increasing index tuples (1-based, length a) to coefficient
Expressions; absent keys are zero.  Differential forms use the same
container.  Degree 0 stores its single coefficient under the empty tuple.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import mmap
import os
import re
from dataclasses import dataclass, field
from typing import BinaryIO, Callable, Iterable, Mapping, NamedTuple, Sequence, Union

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


def _keep_pages(rows: slice) -> None:
    """``Mesh._release`` of a mesh in memory (a named function, so such a
    mesh pickles): there are no pages to drop."""


@dataclass(frozen=True)
class Mesh:
    """A finite list of evaluation points: float64 array of shape (k, m).

    The entries are checked for finiteness a row chunk at a time, with no
    whole-mesh temporary.  ``_release(rows)`` is called once a whole-mesh
    pass (this check, an evaluator's kernel chunks) is done with a slice of
    rows.  For a mesh ``load_mesh`` maps from a .npy file it drops the
    resident pages of those rows, so a pass keeps about one chunk of the
    mesh in memory; for any other mesh it does nothing.
    """

    points: np.ndarray
    _release: Callable[[slice], None] = field(default=_keep_pages, repr=False, compare=False)

    def __post_init__(self):
        arr = np.asarray(self.points)
        # float64 would keep a complex number's real part only, and would turn
        # dates, durations, text or records into numbers or a TypeError.
        if arr.dtype.kind not in "biuf":
            kind = "complex" if arr.dtype.kind == "c" else arr.dtype
            raise ValueError(f"mesh has {kind} entries; coordinates must be real numbers")
        arr = np.ascontiguousarray(arr, dtype=np.float64)
        if arr.ndim != 2:
            raise ValueError(f"mesh must be a 2-d array, got shape {arr.shape}")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError(f"mesh must be non-empty, got shape {arr.shape}")
        for rows in _row_chunks(len(arr), max(1, _CHUNK_VALUES // arr.shape[1])):
            if not np.isfinite(arr[rows]).all():
                raise ValueError("mesh contains non-finite entries")
            self._release(rows)
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
    return points if isinstance(points, Mesh) else Mesh(points)


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
# time, so only one chunk's slots, line and kernel temporaries (some 2.6 MB)
# are alive, whatever the row width.
_CHUNK_VALUES = 16_384


def _row_chunks(k: int, rows: int) -> list:
    """Slices of at most ``rows`` rows covering ``range(k)``."""
    return [slice(a, min(a + rows, k)) for a in range(0, k, rows)]


def _text_chunks(k: int, width: int) -> list:
    """Slices of ``range(k)`` of equal sizes, give or take a row, as few as
    hold at most ``_CHUNK_VALUES // width`` rows each (at least one): a row
    count that is not a multiple leaves no short chunk at the end."""
    count = -(-k // max(1, _CHUNK_VALUES // max(1, width)))
    return [slice(k * i // count, k * (i + 1) // count) for i in range(count)]


_SIGN_BIT = np.uint64(1 << 63)


def _mirror_pairs(shape: tuple) -> tuple:
    """(lower, upper) flat places of the entries (i, j), i > j, and (j, i) of
    a row shaped (m, m); none for any other row shape."""
    m = shape[0] if len(shape) == 2 and shape[0] == shape[1] else 0
    return tuple((i * m + j, j * m + i) for i in range(m) for j in range(i))


# --- Float text ---------------------------------------------------------------
#
# ``_float_slots`` writes float64 values as text in one of two styles:
# "json", the bytes of ``json.dumps`` (``float.__repr__``: the shortest
# digits that read back to the value; NaN, Infinity, -Infinity), and
# "%.17g", the bytes of ``'%.17g' %`` (17 significant digits; nan, inf,
# -inf).  Each value gets a 24-byte slot: "-" or NUL at byte 0, then the
# rest of its text (at most 23 bytes) and NUL padding, which
# ``bytes.translate(None, b"\0")`` deletes with the sign's NUL.
#
# With E = floor(log10 |x|), the digits are those of an integer near
# y = |x| * 10**(16 - E), in [1e16, 1e17).  y is the double-double product
# of |x| and a 10**(16 - E) built from exact integers; its error is below
# 1e-13 (in units of the 17th digit).  "%.17g" takes the integer nearest y.
# "json" takes, of the integers in the rounding interval of x (half way to
# each neighbour, scaled likewise), the one with the most trailing zeros,
# and of two or more such the one nearest y.  Where a rounding lies within
# _TOL of a tie or an interval end within _TOL of an integer (_TOL is far
# above y's error), the kernel decides it in int64 from the value's bits if
# it is exactly one: a tie goes to the even integer and an end belongs to
# the interval where the significand is even, as Python rounds.  Python
# formats the other such values, and those with |x| outside [1e-290, max)
# other than 0, inf and nan, so the bytes are exact by construction.

_EMIN, _EMAX = -290, 308  # the decimal exponents the table covers
_TOL = 2.0 ** -30
_SLOT = 24
_E16, _E17 = 10 ** 16, 10 ** 17


def _split(a: np.ndarray) -> tuple:
    """(head, tail) of ``a`` with ``head`` its top 27 significand bits: with
    ``_halves`` of a power, every product of two parts is exact."""
    head = (a.view(np.uint64) & np.uint64(0xFFFF_FFFF_FC00_0000)).view(np.float64)
    return head, a - head


def _halves(power: float) -> tuple:
    """(head, tail) of ``power`` with ``head`` its top 26 bits, rounded."""
    m, q = math.frexp(power)
    head = math.ldexp(round(m * 2.0 ** 26), q - 26)
    return head, power - head


def _ratio(e: int) -> tuple:
    """10**e as an exact (numerator, denominator) of Python ints."""
    return (10 ** e, 1) if e >= 0 else (1, 10 ** -e)


def _power_tables() -> tuple:
    """For E in [_EMIN, _EMAX]: 10**(16 - E) as high part, its halves and low
    part; and for E in [_EMIN, _EMAX + 1] the least float64 >= 10**E.  Each
    int division is correctly rounded."""
    high, low, least = [], [], []
    for e in range(_EMIN, _EMAX + 2):
        num, den = _ratio(e)
        f = num / den if e <= 308 else math.inf
        if f < math.inf:
            f_num, f_den = f.as_integer_ratio()
            f = math.nextafter(f, math.inf) if f_num * den < num * f_den else f
        least.append(f)
        num, den = _ratio(16 - e)
        high.append(num / den)
        h_num, h_den = high[-1].as_integer_ratio()
        low.append((num * h_den - h_num * den) / (den * h_den))
    del high[-1], low[-1]
    head, tail = zip(*map(_halves, high))
    return tuple(map(np.array, (high, head, tail, low, least)))


_HIGH, _HEAD, _TAIL, _LOW, _LEAST = _power_tables()
_MAX = np.finfo(np.float64).max


def _product(a: np.ndarray, k: np.ndarray) -> tuple:
    """a * 10**(16 - E), k = E - _EMIN, as ``p + rest``: p the rounded
    product of ``a`` and _HIGH[k], and rest the exact error of p plus
    a * _LOW[k]."""
    p = a * _HIGH[k]
    ah, at = _split(a)
    hh, ht = _HEAD[k], _TAIL[k]
    return p, ((ah * hh - p) + ah * ht + at * hh) + at * ht + a * _LOW[k]


def _scaled(a: np.ndarray, e: np.ndarray) -> tuple:
    """y = a * 10**(16 - e) as ``whole + rest``: an int64 and a float64 of
    at most about 10, with an error below 1e-13."""
    p, rest = _product(a, e - _EMIN)
    return p.astype(np.int64), rest  # p >= 2**53 is a whole number


def _nearest(whole: np.ndarray, rest: np.ndarray) -> tuple:
    """The int64 nearest ``whole + rest``, and where that is within _TOL of a tie."""
    fl = np.floor(rest)
    frac = rest - fl
    return whole + fl.astype(np.int64) + (frac > 0.5), np.abs(frac - 0.5) < _TOL


_FIVES = 5 ** np.arange(28, dtype=np.int64)  # every power of 5 below 2**63
_ONE = 1 << 52  # the implicit bit of a normal significand


def _integer(n, twos, s) -> tuple:
    """Where n * 2**twos * 10**s, for odd int64 ``n``, is an integer, and
    its int64 value there (which must be below 2**63)."""
    fives = _FIVES[np.minimum(np.abs(s), len(_FIVES) - 1)]
    twos = twos + s
    where = (twos >= 0) & (np.abs(s) < len(_FIVES)) & ((s >= 0) | (n % fives == 0))
    return where, np.where(s >= 0, n * fives, n // fives) << np.clip(twos, 0, 62)


def _binary(a: np.ndarray) -> tuple:
    """(M, q) of the normal float64s a = M * 2**q, M in [2**52, 2**53)."""
    bits = a.view(np.int64)
    return bits & (_ONE - 1) | _ONE, (bits >> 52) - 1075


def _even_ties(a, e, rows, tens: int) -> tuple:
    """For ``rows`` of ``a`` whose y / ``tens`` is within _TOL of a tie:
    which are exactly ties (2y is then an integer), and the even integer
    Python rounds those to."""
    m, q = _binary(a[rows])
    zeros = np.frexp((m & -m).astype(np.float64))[1] - 1  # M's trailing zero bits
    exact, twice = _integer(m >> zeros, q + 1 + zeros, 16 - e[rows])
    half = twice[exact] // (2 * tens)
    return exact, half + (half & 1)


def _integer_ends(a, e, whole, ends, marks) -> None:
    """Where ``marks`` flag an end of the rounding interval of ``a`` that
    is exactly an integer in y's units, set ``ends`` (first, last) there as
    ``_shortest`` reads them and clear the mark.

    With a = M * 2**q, the ends are (2M -+ 1) * 2**(q - 1) * 10**(16 - e),
    and the lower one of a power of two (4M - 1) * 2**(q - 2).  Python
    reads ``a`` back from an end exactly where M is even (round half to
    even), so those intervals hold their ends.
    """
    rows = np.flatnonzero(marks[0] | marks[1])
    if not len(rows):
        return
    m, q = _binary(a[rows])
    s = 16 - e[rows]
    closed = m % 2 == 0
    for side, (end, mark) in enumerate(zip(ends, marks)):
        n, twos = 2 * m + (2 * side - 1), q - 1
        if side == 0:  # the gap below a power of two is half the gap above
            power = m == _ONE
            n[power], twos[power] = 4 * _ONE - 1, q[power] - 2
        exact, value = _integer(n, twos, s)
        at = rows[exact]
        # first is the integer before the interval's first, last its last.
        end[at] = value[exact] - whole[at] - (closed if side == 0 else ~closed)[exact]
        mark[at] = False


def _shortest(a, e, whole, rest, digits, unsure) -> None:
    """Set ``digits`` (the integers nearest y) to the integers with the
    most trailing zeros in the rounding interval of ``a`` scaled as y is,
    the one nearest y of two or more, and mark ``unsure`` where an end of
    the interval is within _TOL of an integer or the nearest of a tie, and
    not exactly one."""
    # The interval is (y - below, y + above).  ``first`` and ``last`` are
    # its first and last integers, and a multiple of 10**p lies in it iff
    # the last p digits of ``last`` are below ``count``, its integer count.
    high = _HIGH[e - _EMIN] * 0.5
    below = rest - (a - np.nextafter(a, 0)) * high
    above = rest + (np.nextafter(a, math.inf) - a) * high
    first, last = np.floor(below), np.floor(above)
    marks = np.abs(below - first - 0.5) > 0.5 - _TOL, np.abs(above - last - 0.5) > 0.5 - _TOL
    _integer_ends(a, e, whole, (first, last), marks)
    unsure |= marks[0] | marks[1]
    count = last - first
    last = whole + last.astype(np.int64)
    last2 = (last % 100).astype(np.float64)
    last1 = last2 - np.floor(last2 * 0.1) * 10
    tens = np.flatnonzero((last1 < count) & (last2 >= count))
    digits[tens] = last[tens] - last1[tens].astype(np.int64)
    many = tens[last1[tens] + 10 < count[tens]]  # two or more multiples of ten
    near, tie = _nearest(whole[many] // 10, (whole[many] % 10 + rest[many]) * 0.1)
    ties = np.flatnonzero(tie)
    if len(ties):
        exact, even = _even_ties(a, e, many[ties], 10)
        near[ties[exact]] = even
        unsure[many[ties[~exact]]] = True
    least = digits[many] - ((count[many] - last1[many] - 1) // 10 * 10).astype(np.int64)
    digits[many] = np.clip(near * 10, least, digits[many])
    hundreds = np.flatnonzero(last2 < count)  # one multiple of 100 at most
    digits[hundreds] = last[hundreds] - last2[hundreds].astype(np.int64)


def _decimal(a: np.ndarray, shortest: bool) -> tuple:
    """(digits, E, unsure) of the finite ``a`` in [_LEAST[0], _MAX): the
    17-digit int64 in [1e16, 1e17) of ``a`` as "%.17g" or, if ``shortest``,
    as "json" has them, with trailing zeros; the decimal exponent of the
    first digit; and where the choice was within _TOL of undecidable."""
    e = np.floor(np.log10(a)).astype(np.intp)  # off by one at worst, and >= _EMIN - 1
    e += a >= _LEAST[e + 1 - _EMIN]
    e -= a < _LEAST[e - _EMIN]
    whole, rest = _scaled(a, e)
    digits, unsure = _nearest(whole, rest)
    rows = np.flatnonzero(unsure)
    if len(rows):
        exact, even = _even_ties(a, e, rows, 1)
        digits[rows[exact]] = even
        unsure[rows[exact]] = False
    if shortest:
        _shortest(a, e, whole, rest, digits, unsure)
    over = digits == _E17
    digits[over] = _E16
    e += over
    return digits, e, unsure


def _table(texts, width: int, dtype=np.uint8) -> np.ndarray:
    """The ``texts`` padded with NULs to ``width`` bytes, a row of ``dtype`` each."""
    return np.array(list(texts), f"S{width}")[:, None].view(dtype)


def _slot_text(text: bytes) -> bytes:
    """``text`` as a slot holds it: its "-" at byte 0, the rest from byte 1."""
    return text if text[:1] == b"-" else b"\0" + text


_WORD = np.dtype("<u8")  # eight bytes of text, the first in the low byte
_TENS = 10 ** np.minimum(np.arange(25), 18).astype(np.uint64)  # 10**n, and 10**18 from n = 18 on
# The text of 0 to 9999 as four digits; the masks of bytes 1 to n - 1 of a
# slot (_SHOWN[n]); and XORs that turn a "0" at byte n > 0 into "." (_MARKS[n])
# or, by ``stop`` and E, the one at byte 2 if stop > 2 and write "e-XXX" at stop.
_FOUR = _table((b"%04d" % n for n in range(10_000)), 8, _WORD).ravel()
_SHOWN = _table((b"\0" + b"\xff" * (n - 1) for n in range(_SLOT + 1)), _SLOT, _WORD)
_MARKS = _table([bytes(n) + b"\x1e" * (n > 0) for n in range(_SLOT)] + [
    (b"\0\0" + b"\x1e" * (stop > 2)).ljust(stop, b"\0") + b"e%+03d" % e
    for stop in range(2, 20) for e in range(_EMIN - 1, _EMAX + 2)], _SLOT, _WORD)


# The trailing zeros of 0 to 9999 as four digits.
_ZEROS = sum((np.arange(10_000) % 10 ** n == 0).astype(np.int16) for n in range(1, 5))


def _trailing_zeros(digits: np.ndarray) -> np.ndarray:
    """The trailing decimal zeros of each nonzero uint64 of ``digits``, four
    digits at a time: where the last four are all 0, count on above them."""
    high = digits // 10 ** 4
    low = digits - high * 10 ** 4
    zeros = _ZEROS.take(low.view(np.intp))
    more = np.flatnonzero(low == 0)
    if len(more):
        zeros[more] += _trailing_zeros(high[more])
    return zeros


class _Style(NamedTuple):
    shortest: bool  # the shortest digits that read back, else 17
    exponent_from: int  # E at and above which the text has an exponent
    tokens: np.ndarray  # the slot words of 0, -0, nan, nan, inf, -inf
    python: Callable[[float], str]


def _style(shortest: bool, exponent_from: int, python) -> _Style:
    tokens = (python(x).encode() for x in (0.0, -0.0, math.nan, math.nan, math.inf, -math.inf))
    return _Style(shortest, exponent_from, _table(map(_slot_text, tokens), _SLOT, _WORD), python)


_STYLES = {
    "json": _style(True, 16, json.dumps),
    "%.17g": _style(False, 17, "%.17g".__mod__),
}


def _float_slots(values: np.ndarray, style: str) -> tuple:
    """The ``style`` text of each float64 of the 1-d ``values`` in its
    (len(values), 24) uint8 slot, and how many of the values Python formatted."""
    form = _STYLES[style]
    a = np.abs(values)
    odd = ~((a >= _LEAST[0]) & (a < _MAX))
    a[odd] = 1.0
    digits, e, unsure = _decimal(a, form.shortest)
    digits, e = digits.view(_WORD), e.astype(np.int16)
    shown = 17 - _trailing_zeros(digits)  # the digits without trailing zeros
    plain = (e >= -4) & (e < form.exponent_from)
    integral = plain & (e >= 0)  # the point follows digit e + 1
    kept = np.maximum(shown, (e + 1 + form.shortest) * integral)  # "1200", json "12.0"
    point = integral & ((shown > e + 1) | form.shortest) | ~plain & (shown > 1)
    lead = plain & (e < 0)  # "0." and -e - 1 zeros before the digits
    dotted = point | lead
    # A 0 digit put after digit ``cut`` makes ``whole`` (cut = 17: no point,
    # 0: a lead).  The text from byte 1 is then the 23 digits of
    # whole * 10**(5 - z), z = -e in a lead and 0 otherwise, up to ``stop``:
    # a lead's leading zeros give its "0." and zeros, and the "0" at byte
    # cut + 1, or 2 in a lead, turns into the point.
    cut = point * (1 + integral * e) + ~dotted * np.int16(17)
    z = lead * -e
    scale = _TENS.take(17 - cut)
    whole = digits + digits // scale * 9 * scale
    scale = _TENS.take(3 + z)
    high = whole // scale
    words = np.empty((len(values), 3), _WORD)  # the 8-digit number of each word, then its text
    words[:, 0] = high // 10 ** 8
    words[:, 1] = high - words[:, 0] * 10 ** 8
    words[:, 2] = (whole - high * scale) * _TENS.take(5 - z)
    del whole, high, scale  # the text step holds three (n, 3) arrays at its peak
    four = words // 10 ** 4  # each word's first four digits; its last four stay in place
    np.remainder(words, 10 ** 4, out=words)
    low = _FOUR.take(words.view(np.intp))
    np.take(_FOUR, four.view(np.intp), out=words, mode="clip")  # "clip" writes out unbuffered
    low <<= 32
    words |= low
    del four, low
    stop = kept + z + dotted + 1  # the first byte after the digits
    words &= _SHOWN.take(stop, axis=0)
    exponent = _SLOT + (stop - 2) * (_EMAX + 3 - _EMIN) + e + 1 - _EMIN
    words ^= _MARKS.take(np.where(plain, (cut + 1 + lead) * dotted, exponent), axis=0)
    words[:, 0] |= np.signbit(values) * np.uint64(45)
    slots = words.view(np.uint8)
    special = np.flatnonzero(odd)  # 0, nan and inf are tokens; Python formats the rest
    xs = values[special]
    token = ~np.isfinite(xs) | (xs == 0)
    code = 2 * np.isnan(xs) + 4 * np.isinf(xs) + np.signbit(xs)
    words[special[token]] = form.tokens[code[token]]
    unsure[special[~token]] = True
    python = np.flatnonzero(unsure)
    texts = (_slot_text(form.python(x).encode()) for x in values[python].tolist())
    slots[python] = _table(texts, _SLOT)
    return slots, len(python)


_FLAGS = _table((b"false", b"true"), 8, _WORD).ravel()


def _chunk_text(block: np.ndarray, style: str, pieces: tuple, flags=None,
                pairs: tuple = ()) -> bytearray:
    """The text of the float64 (columns, rows) chunk ``block``: row r is
    ``pieces`` (bytes) with the ``style`` text of column c's row-r value
    between pieces c and c + 1 and, given ``flags``, ``false`` or ``true``
    between the last two pieces.

    Each distinct column is formatted once, by a plan checked on the chunk's
    data, and the text is that of formatting every value:

    - a column whose bits are all equal is formatted once, into the pieces;
    - the lower column of a ``pairs`` entry (lower, upper), neither
      constant, that is the sign flip of the upper's bits in every row, or
      NaN where it is, takes the upper's slots with the sign flipped (a
      NaN's text has none);
    - every other column is formatted value by value.
    """
    n, rows = block.shape
    bits = block.view(np.uint64)
    constant = (bits == bits[:, :1]).all(axis=1)
    mirrors = {}
    if pairs:
        lower, upper = np.array(pairs).T
        nan = np.isnan(block[lower]) & np.isnan(block[upper])
        flipped = (bits[lower] == bits[upper] ^ _SIGN_BIT) | nan
        keep = flipped.all(axis=1) & ~constant[lower] & ~constant[upper]
        mirrors = dict(zip(lower[keep].tolist(), upper[keep].tolist()))
    constants = np.flatnonzero(constant).tolist()
    formatted = [c for c in range(n) if not constant[c] and c not in mirrors]
    slots, _ = _float_slots(np.concatenate((block[formatted].ravel(), block[constants, 0])), style)
    texts = {c: slots[i * rows:(i + 1) * rows] for i, c in enumerate(formatted)}
    literals = {c: slots[len(formatted) * rows + i].tobytes().translate(None, b"\0")
                for i, c in enumerate(constants)}
    # The line: literal runs, each followed by a column's slots, then the flag.
    runs, columns = [pieces[0]], []
    for c in range(n):
        if c in literals:
            runs[-1] += literals[c] + pieces[c + 1]
        else:
            columns.append(c)
            runs.append(pieces[c + 1])
    runs += pieces[n + 1:]
    widths = [_SLOT] * len(columns) + [8] * len(pieces[n + 1:]) + [0]
    template = bytearray(b"".join(run + bytes(width) for run, width in zip(runs, widths)))
    text = template * rows  # written through ``line``, then stripped of its NULs
    line = np.frombuffer(text, np.uint8).reshape(rows, len(template))
    at = 0
    for run, c in zip(runs, columns):
        at += len(run)
        line[:, at:at + _SLOT] = texts[mirrors.get(c, c)]
        if c in mirrors:
            line[:, at] = np.where(np.isnan(block[c]), 0, 45 - line[:, at])
        at += _SLOT
    if flags is not None:
        at += len(runs[-2])
        line[:, at:at + 8] = _FLAGS[flags.astype(np.intp)].view(np.uint8).reshape(rows, 8)
    return text.translate(None, b"\0")


def _token_text(block: np.ndarray, pieces: tuple, flags=None) -> bytes:
    """The lines of a chunk that is not float64 (residual text, other
    dtypes): ``pieces`` with the ``json.dumps`` token of each value, and of
    each flag, between them."""
    columns = block.tolist() + ([] if flags is None else [flags.tolist()])
    line = "%s".join(piece.decode().replace("%", "%%") for piece in pieces)
    values = [value for row in zip(*columns) for value in row]
    return (line * block.shape[1] % tuple(map(json.dumps, values))).encode()


def _write_text(fh: BinaryIO, chunks: Iterable, style: str, pieces: tuple,
                pairs: tuple = ()) -> None:
    """Write one line per row of each (width, n) block of ``chunks``, given
    with its (n,) valid flags or None, a text chunk of rows at a time:
    ``pieces`` with the row's values, and its flag, between them.  A
    float64 chunk is formatted by ``_chunk_text`` in ``style`` (``pairs`` as
    it takes them); any other chunk (residual text, other dtypes, only ever
    jsonl) is filled with ``json.dumps`` tokens."""
    for columns, valid in chunks:
        for span in _text_chunks(columns.shape[1], len(columns) + (valid is not None)):
            flags = None if valid is None else valid[span]
            # Unnamed, so a chunk's text is freed before the next one is formatted.
            fh.write(
                _chunk_text(columns[:, span], style, pieces, flags, pairs)
                if columns.dtype == np.float64 else _token_text(columns[:, span], pieces, flags)
            )


def _write_csv(fh: BinaryIO, blocks: Iterable, shape: tuple) -> None:
    """Write the float rows of ``blocks``, each an array of rows shaped
    ``shape``, as csv, each row flattened row-major.

    The bytes are those NumPy's savetxt writes of the rows with
    ``fmt="%.17g"`` and ``delimiter=","``.  Each chunk formats each distinct
    column once (``_chunk_text``): a column constant over the chunk is one
    literal, and an entry (i, j), i > j, of (m, m) rows that is the exact
    negation of (j, i), as in an antisymmetric matrix, reuses its text.
    """
    width = math.prod(shape)
    pieces = tuple((b",".join([b"%s"] * width) + b"\n").split(b"%s"))
    columns = (np.asarray(block, dtype=np.float64).reshape(len(block), width).T for block in blocks)
    _write_text(fh, ((block, None) for block in columns), "%.17g", pieces, _mirror_pairs(shape))


def save_csv(path, data: np.ndarray) -> None:
    """Atomically write a float array of k rows as csv, one row per line."""
    atomic_write(path, lambda fh: _write_csv(fh, [data], np.shape(data)[1:]))


def _write_npy(fh: BinaryIO, blocks: Iterable, shape: tuple) -> None:
    """Write the rows of ``blocks`` as ``np.save`` writes the float64 array of
    ``shape`` they make up: the header, then each block's bytes in turn."""
    header = {"descr": np.lib.format.dtype_to_descr(np.dtype(np.float64)),
              "fortran_order": False, "shape": shape}
    np.lib.format.write_array_header_1_0(fh, header)
    for block in blocks:
        fh.write(np.ascontiguousarray(block, dtype=np.float64))


_PLACE = "%s"  # a value's place in a jsonl line


def _write_jsonl(result: "BatchResult", fh: BinaryIO) -> None:
    """Write one line per row, from line pieces built once per result.

    A record's places are its ``keys``, read from ``columns``; a dense row's
    are its entries in row-major order.  A row of a result with a valid
    mask, records or dense, ends in a ``"valid"`` flag.  Every value, pole
    and flag is written as ``json.dumps`` writes it.
    """
    pairs, chunks = (), result._chunks()
    if result.kind == "records":
        skeleton = {"coeffs": {
            _key_text(key) if isinstance(key, tuple) else key: _PLACE for key in result.keys
        }}
    else:
        row = result._shape()[1:]
        width = math.prod(row)
        pairs = _mirror_pairs(row)
        chunks = ((block.reshape(len(block), width).T, valid) for block, valid in chunks)
        name = "value" if result.kind == "scalar" else result.kind
        skeleton = {name: np.full(row, _PLACE, dtype=object).tolist()}
    if result._guarded():
        skeleton["valid"] = _PLACE
    line = json.dumps(skeleton) + "\n"
    pieces = tuple(piece.encode() for piece in line.split(json.dumps(_PLACE)))
    _write_text(fh, chunks, "json", pieces, pairs)


def write_result(result: "BatchResult", path: str, fmt: str) -> None:
    """Atomically write ``result`` to ``path`` as ``fmt``: "jsonl" (a line
    per point), or for a dense result "npy" (the float64 block) or "csv"
    (a row per point).  A lazy result's chunks are computed as they are
    written.  An npy of a result with a valid mask gets it as
    ``<path>.valid.npy``; any other write removes a mask an earlier result
    left there, since it describes another file."""
    if fmt == "jsonl":
        atomic_write(path, lambda fh: _write_jsonl(result, fh))
    elif result.kind == "records":
        raise MultivectorError(f"format {fmt!r} requires a dense result; use jsonl")
    elif fmt == "npy":
        blocks = (block for block, _ in result._chunks())
        atomic_write(path, lambda fh: _write_npy(fh, blocks, result._shape()))
    elif fmt == "csv":
        blocks = (block for block, _ in result._chunks())
        atomic_write(path, lambda fh: _write_csv(fh, blocks, result._shape()[1:]))
    else:
        raise MultivectorError(f"unknown output format {fmt!r}")
    sidecar = f"{path}.valid.npy"
    if fmt == "npy" and result.valid is not None:
        atomic_write(sidecar, lambda fh: np.save(fh, result.valid))
    elif os.path.exists(sidecar):
        os.unlink(sidecar)


# --- Csv meshes -----------------------------------------------------------------
#
# ``_read_csv`` reads a plain csv mesh (lines of equally many fields, each
# a decimal such as "-0.12345678901234567", every line ended by "\n") to
# the float64s ``np.loadtxt`` reads, bit for bit.  A first pass counts the
# lines; the second streams the file through one buffer, _READ_BLOCK bytes
# at a time after _PAD bytes of "0", and converts the whole lines of each
# block while the unfinished last one moves to the front.  Per field:
#
#   1. the separators ("," and "\n") and points are found by byte compares;
#   2. the 24 bytes that end at the field's separator are read as three
#      words, and tables by field width (sign left out) and fraction length
#      f keep only the field's bytes, turn its digits into 0..9 and its
#      point into a 0, which leaves the 24-digit integer N' of the digits;
#   3. SWAR steps (several digits at once inside one uint64) turn each word
#      into its 8-digit number, and N' of at most 19 digits is formed;
#   4. with I = floor(N' / 10**(f + 1)) the integer part, N = N' - 9 I 10**f
#      is the field's digits without the point;
#   5. N * 10**-f is formed as the double-double product of N and _HIGH +
#      _LOW, whose rounding is the correctly rounded value unless it lies
#      within _TOL ulp of a rounding boundary;
#   6. the sign of a leading "-" is set last.
#
# Python's ``float`` reads, from the field's text, the values within _TOL
# of a boundary (or just below a power of two), fields of more than 19
# digits and fields with a "+" or an exponent.  Any other text (comments,
# blank lines, spaces, CR, quotes, ragged rows, empty fields, no final
# newline, a line longer than a block, nan, inf or any other byte) sends
# the whole file to ``np.loadtxt``, for its values, warnings and errors; so
# does a path that is not a regular file, such as a named pipe, which the
# two passes could not read.

_READ_BLOCK = 1 << 18  # bytes of csv text converted at a time
_PAD = 24  # bytes of "0" before a block; a field's window: the bytes before its separator
_POINTLESS = 24  # the fraction length index of a field without a point


def _window_tables() -> tuple:
    """(keep, flip): three words per field width w, kept are the window's
    last w bytes; and per fraction length f (_POINTLESS: none), the bytes
    whose xor turns digits into 0..9 and the point, f bytes from the end,
    into 0."""
    keep = np.zeros((25, _PAD), np.uint8)
    flip = np.full((25, _PAD), ord("0"), np.uint8)
    for n in range(25):
        keep[n, _PAD - n:] = 0xFF
    for f in range(_POINTLESS):
        flip[f, _PAD - 1 - f] = ord(".")
    return keep.view(_WORD), flip.view(_WORD)


_KEEP, _FLIP = _window_tables()
_FRACTION = np.append(np.arange(_POINTLESS), 0)  # f by fraction length index: 0 without a point
_PLAIN_FIELD = re.compile(rb"[-+]?(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][-+]?[0-9]+)?")


class _NotPlain(Exception):
    """Csv text that ``_read_csv`` leaves to ``np.loadtxt``."""


def _swar_digits(words: np.ndarray) -> np.ndarray:
    """The 8-digit numbers of words of eight digits 0..9, the first digit
    in the low byte: pairs, then fours, then all eight."""
    for mul, shift, mask in ((10 << 8 | 1, 8, 0x00FF00FF00FF00FF),
                             (100 << 16 | 1, 16, 0x0000FFFF0000FFFF)):
        words *= np.uint64(mul)
        words >>= np.uint64(shift)
        words &= np.uint64(mask)
    words *= np.uint64(10000 << 32 | 1)
    words >>= np.uint64(32)
    return words


def _block_values(data: np.ndarray, windows: np.ndarray, stop: int, cols: int) -> tuple:
    """The values of the whole lines ``data[_PAD:stop]`` of ``cols`` fields,
    in order, and how many of them Python read; raises _NotPlain for text
    that is not plain."""
    marks = np.flatnonzero(data[_PAD:stop] < ord("/")) + _PAD  # "\n" "+" "," "-" "." and others
    kinds = data[marks]
    wanted = ((kinds | 2) == ord(".")) | (kinds == ord("\n"))  # "," "." "\n"
    marks, kinds = marks[wanted], kinds[wanted]
    separator = kinds != ord(".")
    at = np.flatnonzero(separator)
    ends = marks[at]
    newline = kinds[at] == ord("\n")
    if len(ends) % cols or np.count_nonzero(newline) * cols != len(ends) or not newline[cols - 1::cols].all():
        raise _NotPlain  # ragged rows or blank lines
    point = ~separator[at - 1]  # the mark before the separator is a point in its field
    starts = np.empty_like(ends)
    starts[0], starts[1:] = _PAD, ends[:-1] + 1
    negative = data[starts] == ord("-")
    width = ends - starts - negative
    frac = np.where(point, ends - marks[at - 1] - 1, _POINTLESS)
    python = (width <= point) | (width > _PAD)  # no digit, or wider than the window
    np.minimum(frac, _POINTLESS, out=frac)
    np.minimum(width, _PAD, out=width)
    words = windows[ends - _PAD].view(_WORD).reshape(-1, 3)
    words ^= np.take(_FLIP, frac, axis=0)
    words &= np.take(_KEEP, width, axis=0)
    over = words + np.uint64(0x7676767676767676)  # top bit of a byte 10..0x7F
    over |= words  # bytes from 0x80 up carry into the next byte: their own top bit
    python |= ((over[:, 0] | over[:, 1] | over[:, 2]) & np.uint64(0x8080808080808080)) != 0
    digits = _swar_digits(words)
    python |= digits[:, 0] >= 1000  # N' of more than 19 digits
    np.minimum(digits[:, 0], 999, out=digits[:, 0])
    n = (digits[:, 0] * np.uint64(10 ** 8) + digits[:, 1]) * np.uint64(10 ** 8) + digits[:, 2]
    tens = _TENS[frac]  # I is 0 from f = 18, where tens stays 10**18
    n -= n // (tens * np.uint64(10)) * (tens * np.uint64(9))
    high = n.astype(np.float64)
    low = (n - high.astype(np.uint64)).view(np.int64).astype(np.float64)
    k = 16 + _FRACTION[frac] - _EMIN  # 10**-f = _HIGH[k] + _LOW[k]
    p, rest = _product(high, k)
    rest += low * _HIGH[k]
    values = p + rest
    off = rest - (values - p)  # exact: the value's distance above ``values``
    bits = values.view(np.uint64)
    ulp = (bits & np.uint64(0x7FF << 52)).view(np.float64) * 2.0 ** -52
    python |= np.abs(np.abs(off) - 0.5 * ulp) < _TOL * ulp
    python |= ((bits & np.uint64(_ONE - 1)) == 0) & (off < 0)  # the gap below 2**q is half
    bits |= negative.astype(np.uint64) << np.uint64(63)
    rows = np.flatnonzero(python)
    for i in rows.tolist():
        text = data[starts[i]:ends[i]].tobytes()
        if not _PLAIN_FIELD.fullmatch(text):
            raise _NotPlain
        values[i] = float(text)
    return values, len(rows)


def _read_csv(path) -> tuple:
    """The (lines, fields) float64 array of a plain csv file, and how many
    of its values Python read; raises _NotPlain for any other text."""
    if not os.path.isfile(path):
        raise _NotPlain  # a pipe or device is read once, by np.loadtxt
    buf = bytearray(b"0" * _PAD + bytes(_READ_BLOCK))
    data = np.frombuffer(buf, np.uint8)
    windows = np.ndarray((len(buf) - _PAD + 1,), f"V{_PAD}", buffer=buf, strides=(1,))
    block = memoryview(buf)[_PAD:]
    with open(path, "rb", buffering=0) as fh:
        lines = cols = 0
        while size := fh.readinto(block):
            if not cols:
                first = buf.find(b"\n", _PAD, _PAD + size)
                if first < 0:
                    raise _NotPlain  # a first line longer than a block
                cols = buf.count(b",", _PAD, first) + 1
            lines += np.count_nonzero(data[_PAD:_PAD + size] == ord("\n"))
        if not lines:
            raise _NotPlain
        values = np.empty(lines * cols)
        fh.seek(0)
        done = carry = python = 0
        while size := fh.readinto(block[carry:]):
            end = _PAD + carry + size
            stop = buf.rfind(b"\n", _PAD, end) + 1
            if not stop:
                carry = end - _PAD
                continue
            got, read = _block_values(data, windows, stop, cols)
            python += read
            if done + len(got) > len(values):
                raise _NotPlain  # the file grew
            values[done:done + len(got)] = got
            done += len(got)
            carry = end - stop
            buf[_PAD:_PAD + carry] = buf[stop:end]
        if carry or done < len(values):
            raise _NotPlain  # no final newline, a line longer than a block
    return values.reshape(lines, cols), python


def _mesh_format(path: str) -> str:
    """The mesh format of ``path`` from its suffix, in any case."""
    for fmt in ("npy", "csv"):
        if path.lower().endswith("." + fmt):
            return fmt
    raise ValueError(f"unsupported mesh format: {path}")


def save_mesh(mesh: Mesh, path: str) -> None:
    """Write a mesh as .npy (float64, shape (k, m)) or .csv (row per point)."""
    text = str(path)
    if _mesh_format(text) == "npy":
        atomic_write(text, lambda fh: np.save(fh, mesh.points))
    else:
        save_csv(text, mesh.points)


# Releasing the pages of a mapped mesh needs madvise(MADV_DONTNEED); where
# either is missing, the pages stay until the mesh is freed.
_DONTNEED = getattr(mmap, "MADV_DONTNEED", None) if hasattr(mmap.mmap, "madvise") else None
_NPY_HEADERS = {(1, 0): np.lib.format.read_array_header_1_0,
                (2, 0): np.lib.format.read_array_header_2_0}


def _drop_pages(view: mmap.mmap, offset: int, row_bytes: int, rows: slice) -> None:
    """Drop the resident pages that hold the bytes of ``rows`` of a mapped
    .npy body at ``offset``.  The page cache keeps the data, and a later
    read faults it back in.

    The pages a chunk shares with its neighbours go too: with only the
    pages wholly inside each chunk dropped, a 48 MB mesh checked in chunks
    of 5,461 rows of 3 values kept 42 MB resident (Linux 6.18, ext4, where
    a read fault maps a whole large folio back), against 3 MB this way."""
    page = mmap.PAGESIZE
    start = (offset + rows.start * row_bytes) // page * page
    stop = min(-(-(offset + rows.stop * row_bytes) // page) * page, len(view))
    if _DONTNEED is not None:
        view.madvise(_DONTNEED, start, stop - start)


def _map_npy(path: str) -> Mesh | None:
    """The mesh of a regular .npy file that holds a non-empty 2-d C-order
    float64 array, read through a read-only mapping, never copied; None for
    any other file, which ``np.load`` then reads (or rejects)."""
    if not os.path.isfile(path):
        return None  # a pipe or device is read once, by np.load
    try:
        with open(path, "rb") as fh:
            read = _NPY_HEADERS.get(np.lib.format.read_magic(fh))
            if read is None:
                return None  # a version 3.0 header
            shape, fortran, dtype = read(fh)
            offset, size = fh.tell(), os.fstat(fh.fileno()).st_size
            body = math.prod(shape) * dtype.itemsize
            if fortran or dtype != np.float64 or len(shape) != 2 or not 0 < body <= size - offset:
                return None
            view = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
    except (OSError, ValueError):  # unreadable, or no .npy header: np.load reports it
        return None
    points = np.ndarray(shape, np.float64, buffer=view, offset=offset)
    return Mesh(points, functools.partial(_drop_pages, view, offset, shape[1] * 8))


def load_mesh(path: str) -> Mesh:
    """Read a mesh from .npy or .csv (suffix in any case).

    A regular .npy file that holds a 2-d C-order float64 array is mapped
    read-only and never copied: ``points`` is a read-only view of the file,
    and each whole-mesh pass releases the pages of the rows it is done with
    (``Mesh._release``), so memory stays at about one chunk however large
    the mesh.  The file may be replaced (renamed over) while the mesh is in
    use, but not truncated or rewritten in place.  Any other .npy (a pipe,
    an empty or short body, another dtype or order) is read by ``np.load``,
    with its values and errors.

    A csv is read as ``np.loadtxt(path, delimiter=",", ndmin=2)`` reads it:
    the same float64 bits, or the same warning or exception.  Plain text,
    lines of equally many decimals each ended by a newline as ``save_mesh``
    and ``np.savetxt`` write them, goes through a NumPy digit kernel; any
    other text is read by ``np.loadtxt`` itself.
    """
    text = str(path)
    if _mesh_format(text) == "npy":
        mesh = _map_npy(text)
        return mesh if mesh is not None else as_mesh(np.load(text))
    try:
        return as_mesh(_read_csv(text)[0])
    except (_NotPlain, OSError):
        pass  # outside the handler, np.loadtxt's errors carry no context
    return as_mesh(np.loadtxt(text, delimiter=",", ndmin=2))


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


class _Stream(NamedTuple):
    """How a lazy BatchResult computes its block: ``run(out)`` is an
    iterator, in row order, over each row chunk's (block, valid, nonfinite),
    the chunk's ``block`` being ``out(rows)`` filled; ``shape`` is the whole
    block's, ``guarded`` whether chunks carry a valid mask, and ``threads``
    how many threads run them."""

    shape: tuple
    guarded: bool
    threads: int
    run: Callable


_UNKNOWN = object()  # a lazy result's field before its chunks have run


class _Lazy:
    """A BatchResult field that a lazy result knows only once its chunks
    have run: a read before that runs them into the whole block."""

    def __init__(self, default=None):
        self.default = default

    def __set_name__(self, owner, name):
        self.name = "_" + name

    def __get__(self, result, owner=None):
        if result is None:
            return self.default  # the field default
        if result.__dict__[self.name] is _UNKNOWN:
            result._fill()
        return result.__dict__[self.name]

    def __set__(self, result, value) -> None:
        result.__dict__[self.name] = value


class _Data(_Lazy):
    """``BatchResult.data``: the block or, for a records result, the dicts,
    built from ``columns`` on first read and kept."""

    def __get__(self, result, owner=None):
        data = super().__get__(result, owner)
        if data is None and result is not None and result.columns is not None:
            data = result._data = _records_from_columns(result)
        return data


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
    ``valid`` is set.
    ``valid`` (optional) marks points where the operation was defined;
    ``nonfinite`` counts non-finite coefficient evaluations; ``threads`` is
    the number of threads the evaluation ran on.

    An evaluator returns a lazy result, which holds the compiled program
    and the mesh (whose points must not change until it has run) but no
    block.  ``write_result`` runs its row chunks and
    writes each as it is done, so no whole block is ever allocated, and
    then ``valid`` and ``nonfinite`` are known.  A read of ``data`` or
    ``columns``, or of ``valid`` or ``nonfinite`` before a write, runs the
    chunks into the whole block once and keeps it.  ``len``, ``threads``
    and the writers never build the records.
    """

    kind: str
    data: Union[np.ndarray, list, None] = _Data()
    keys: tuple | None = None
    valid: np.ndarray | None = _Lazy()
    nonfinite: int = _Lazy(0)
    columns: np.ndarray | None = _Lazy()
    threads: int = 1
    _stream: _Stream | None = field(default=None, init=False, repr=False, compare=False)

    @classmethod
    def _lazy(cls, kind: str, keys: tuple | None, stream: _Stream) -> "BatchResult":
        """A result whose block ``stream`` computes when it is written or read."""
        records = kind == "records"
        result = cls(kind, None if records else _UNKNOWN, keys, _UNKNOWN, _UNKNOWN,
                     _UNKNOWN if records else None, stream.threads)
        result._stream = stream
        return result

    def __len__(self) -> int:
        if self._stream is not None:
            return self._stream.shape[self.kind == "records"]
        return len(self.data) if self.columns is None else self.columns.shape[1]

    def _shape(self) -> tuple:
        """The whole block's shape: (len(keys), k) for records, else (k, ...)."""
        if self._stream is not None:
            return self._stream.shape
        return np.shape(self.columns if self.kind == "records" else self.data)

    def _guarded(self) -> bool:
        return self._stream.guarded if self._stream is not None else self.valid is not None

    def _chunks(self, out: Callable | None = None):
        """The result's (block, valid) chunks in row order: rows of a dense
        block or columns of a records block, and their valid mask or None.

        A lazy result runs its chunks into ``out(rows)``, by default a new
        array each, and knows ``valid`` and ``nonfinite`` once the last one
        is taken; any other result is one chunk.
        """
        if self._stream is None:
            yield (self.columns if self.kind == "records" else self.data), self.valid
            return
        stream, records = self._stream, self.kind == "records"

        def new(rows):
            n = rows.stop - rows.start
            return np.zeros((stream.shape[0], n) if records else (n,) + stream.shape[1:])

        masks, nonfinite = [], 0
        for block, valid, count in stream.run(out or new):
            masks.append(valid)
            nonfinite += count
            yield block, valid
        self.valid = np.concatenate(masks) if stream.guarded else None
        self.nonfinite = nonfinite

    def _fill(self) -> None:
        """Run a lazy result's chunks into its whole block, and keep it."""
        block = np.zeros(self._stream.shape)
        records = self.kind == "records"
        for _ in self._chunks(lambda rows: block[:, rows] if records else block[rows]):
            pass
        self._stream = None
        if records:
            self.columns = block
        else:
            self.data = block
