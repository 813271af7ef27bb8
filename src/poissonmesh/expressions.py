"""Scalar expression language used for all coefficient functions.

The language covers float literals, coordinates ``x1 .. xm``, free named
parameters, the operators ``+ - * / **`` with unary minus, and a fixed set
of elementary functions.  Expressions are immutable trees; construction,
differentiation and partial evaluation apply numeric constant folding plus
the 0/1 identities, and nothing else (no algebraic simplification), so the
printed form of a result stays predictable.

Every operation is one NumPy float64 ufunc, used both to fold constants and
to run a program, so the two never differ in a bit.  ``compile_expressions``
turns trees into one stack program with an output per tree and
``CompiledFunction.run`` runs it over a block of points; one tree or one point
is its smallest case.  ``partial_eval`` folds what is bound and keeps the rest
as residual text; bound fully, it returns the compiled value.  Singular
evaluations never raise: they produce IEEE inf/-inf/nan.
"""

from __future__ import annotations

import functools
import math
import re
import struct
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence, Union

import numpy as np

__all__ = [
    "Expression",
    "Num",
    "Coord",
    "Param",
    "Neg",
    "Add",
    "Sub",
    "Mul",
    "Div",
    "Pow",
    "Call",
    "ExpressionError",
    "ExpressionDepthError",
    "UnboundParameterError",
    "CompiledFunction",
    "parse",
    "differentiate",
    "differentiate_all",
    "compile_expression",
    "compile_expressions",
    "partial_eval",
    "to_source",
]


class ExpressionError(ValueError):
    """Invalid source text or an invalid operation on an expression."""

    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class ExpressionDepthError(ExpressionError):
    """An expression is nested too deeply for the recursive tree walkers."""

    def __init__(
        self,
        message: str = "an expression is nested too deeply to process; "
        "split it into smaller expressions",
        position: int | None = None,
    ):
        super().__init__(message, position)


def _depth_checked(walk):
    """``walk`` with a tree too deep for the recursive walkers (derivative,
    rendering, substitution, parameter collection) reported as an
    ExpressionDepthError, not a bare RecursionError."""

    @functools.wraps(walk)
    def checked(*args, **kwargs):
        try:
            return walk(*args, **kwargs)
        except RecursionError:
            raise ExpressionDepthError() from None

    return checked


class UnboundParameterError(ExpressionError):
    """A compilation or evaluation was missing parameter bindings."""

    def __init__(self, names: Sequence[str]):
        self.names = tuple(sorted(names))
        super().__init__("unbound parameters: " + ", ".join(self.names))


# --- Arithmetic -------------------------------------------------------------
#
# One ufunc per operation, for folding and for programs alike.  Folding
# ``+ - *`` and division by a nonzero number uses Python floats instead: they
# round exactly like the ufuncs and never raise, while a ufunc fold costs
# microseconds, mostly in ``errstate``.  Every other fold, and one of those
# four that gives NaN, goes through ``_fold`` with errors suppressed, so
# singular constants are IEEE values with the ufunc's bits.

_CALLS: dict[str, np.ufunc] = {
    "exp": np.exp,
    "log": np.log,
    "sqrt": np.sqrt,
    "abs": np.abs,
    "sign": np.sign,
    "sin": np.sin,
    "cos": np.cos,
    "tan": np.tan,
    "sinh": np.sinh,
    "cosh": np.cosh,
    "tanh": np.tanh,
}

FUNCTION_NAMES = tuple(_CALLS)

_float_bits = struct.Struct("d").pack


def _fold(ufunc: np.ufunc, *args: float) -> Num:
    with np.errstate(all="ignore"):
        return Num(float(ufunc(*args)))


def _fold_float(ufunc: np.ufunc, value: float, a: float, b: float) -> Num:
    # ``value`` is Python's ``a op b``.  Of two NaN operands C may return
    # either, and not the one the ufunc returns, so the ufunc decides a NaN.
    return Num(value) if value == value else _fold(ufunc, a, b)


# --- AST --------------------------------------------------------------------


class Expression:
    """Base class for all expression nodes.

    Nodes are immutable and compare structurally.  The structural hash and
    the largest coordinate index are computed when a node is built, from its
    children's cached values, and kept in slots: neither ever walks a tree.
    Common-subexpression elimination hashes every node it visits, and every
    field validation asks for the coordinate bound, so both depend on that.
    ``==`` walks both trees with an explicit stack, so it has no depth limit,
    and tries identity and the cached hash at every pair of nodes first.

    Inside ``interning()``, which every ``evaluate.prepare_*`` opens, the
    constructors return the node already built with the same type, child
    identities and value, so equal subtrees built there are one object and
    the derivative memo and the compile table find them by identity.
    Equality stays structural: nodes built outside a scope, or on either
    side of one, compare and hash as before.
    """

    __slots__ = ("_hash", "_top")

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Expression):
            return NotImplemented
        # Pairs still to compare wait on a stack; a left operand is compared
        # next without one (sums nest to the left), an identical pair never.
        a, b, todo = self, other, []
        while True:
            kind = type(a)
            if kind is not type(b) or a._hash != b._hash:
                return False
            if isinstance(a, _Binary):
                if a.right is not b.right:
                    todo.append((a.right, b.right))
                a, b = a.left, b.left
                if a is not b:
                    continue
            elif kind is Num:
                # Equal float64 bits: 0.0 and -0.0 are different constants
                # (their reciprocals differ), and a NaN constant equals itself.
                x, y = a.value, b.value
                if not ((x == y and x != 0.0) or _float_bits(x) == _float_bits(y)):
                    return False
            elif kind is Coord:
                if a.index != b.index:
                    return False
            elif kind is Param:
                if a.name != b.name:
                    return False
            elif kind is Neg:
                a, b = a.child, b.child
                if a is not b:
                    continue
            else:
                if a.fn != b.fn:
                    return False
                a, b = a.arg, b.arg
                if a is not b:
                    continue
            if not todo:
                return True
            a, b = todo.pop()

    def __reduce__(self):
        # Copies and pickles rebuild through the constructor, which fills the
        # cached slots (a hash is only valid in the process that made it).
        return type(self), tuple(getattr(self, name) for name in self.__match_args__)

    @_depth_checked
    def free_parameters(self) -> frozenset[str]:
        names: set[str] = set()
        _collect_parameters(self, names)
        return frozenset(names)

    def max_coordinate(self) -> int:
        return self._top

    def __str__(self) -> str:
        return to_source(self)


# --- Interning --------------------------------------------------------------
#
# While a scope is open, each constructor keys the nodes it builds by type,
# child identities and value (a ``Num`` by its float64 bits, so 0.0 and -0.0
# and NaN payloads stay apart) and returns the node it built before for the
# same key.  Keys name children by ``id``; the node each key maps to holds
# those children, so no id is reused while the key is in the table.  The
# scope also holds one derivative memo per coordinate (``differentiate_all``).
# The outermost scope empties both on exit, so nothing outlives the set-up
# that opened it, and a second set-up of the same inputs redoes all the work
# of the first.  The scope is process-wide: a node built on a thread outside
# any scope while another thread's is open may be shared, or stay in the table
# until the next outermost scope exits; neither changes a value.

_interned: dict = {}
_derivatives: dict = {}  # coordinate index -> derivative memo of the scope
_scopes = 0
_scope_lock = threading.Lock()


@contextmanager
def interning():
    """Intern the nodes built until the outermost open scope exits."""
    global _scopes
    with _scope_lock:
        if not _scopes:
            # The folds return these two, so they are the scope's 0.0 and 1.0.
            _interned.update({(Num, _float_bits(num.value)): num for num in (_ZERO, _ONE)})
        _scopes += 1
    try:
        yield
    finally:
        with _scope_lock:
            _scopes -= 1
            if not _scopes:
                _interned.clear()
                _derivatives.clear()


def _node(cls):
    """Frozen slotted dataclass; equality and hash are ``Expression``'s."""
    return dataclass(frozen=True, slots=True, init=False, eq=False)(cls)


# Nodes are frozen, so a constructor fills the slots of ``_new(cls)``
# through the slot descriptors' own setters: the cheapest way, and building
# nodes is the hot path of parsing, differentiation and folding.
_new = object.__new__


@_node
class Num(Expression):
    value: float

    def __new__(cls, value: float):
        bits = _float_bits(value)
        scoped = _scopes
        if scoped:
            key = (Num, bits)
            node = _interned.get(key)
            if node is not None:
                return node
        node = _new(cls)
        _set_value(node, value)
        _set_hash(node, hash(bits))
        _set_top(node, 0)
        if scoped:
            _interned[key] = node
        return node


@_node
class Coord(Expression):
    index: int  # 1-based

    def __new__(cls, index: int):
        scoped = _scopes
        if scoped:
            key = (Coord, index)
            node = _interned.get(key)
            if node is not None:
                return node
        node = _new(cls)
        _set_index(node, index)
        _set_hash(node, hash((Coord, index)))
        _set_top(node, index)
        if scoped:
            _interned[key] = node
        return node


@_node
class Param(Expression):
    name: str

    def __new__(cls, name: str):
        scoped = _scopes
        if scoped:
            key = (Param, name)
            node = _interned.get(key)
            if node is not None:
                return node
        node = _new(cls)
        _set_name(node, name)
        _set_hash(node, hash((Param, name)))
        _set_top(node, 0)
        if scoped:
            _interned[key] = node
        return node


@_node
class Neg(Expression):
    child: Expression

    def __new__(cls, child: Expression):
        scoped = _scopes
        if scoped:
            key = (Neg, id(child))
            node = _interned.get(key)
            if node is not None:
                return node
        node = _new(cls)
        _set_child(node, child)
        _set_hash(node, hash((Neg, child._hash)))
        _set_top(node, child._top)
        if scoped:
            _interned[key] = node
        return node


@_node
class _Binary(Expression):
    left: Expression
    right: Expression

    def __new__(cls, left: Expression, right: Expression):
        scoped = _scopes
        if scoped:
            key = (cls, id(left), id(right))
            node = _interned.get(key)
            if node is not None:
                return node
        node = _new(cls)
        _set_left(node, left)
        _set_right(node, right)
        _set_hash(node, hash((cls, left._hash, right._hash)))
        _set_top(node, left._top if left._top > right._top else right._top)
        if scoped:
            _interned[key] = node
        return node


@_node
class Add(_Binary):
    pass


@_node
class Sub(_Binary):
    pass


@_node
class Mul(_Binary):
    pass


@_node
class Div(_Binary):
    pass


@_node
class Pow(_Binary):
    pass


@_node
class Call(Expression):
    fn: str
    arg: Expression

    def __new__(cls, fn: str, arg: Expression):
        scoped = _scopes
        if scoped:
            key = (Call, fn, id(arg))
            node = _interned.get(key)
            if node is not None:
                return node
        node = _new(cls)
        _set_fn(node, fn)
        _set_arg(node, arg)
        _set_hash(node, hash((Call, fn, arg._hash)))
        _set_top(node, arg._top)
        if scoped:
            _interned[key] = node
        return node


_set_hash = Expression._hash.__set__
_set_top = Expression._top.__set__
_set_value = Num.value.__set__
_set_index = Coord.index.__set__
_set_name = Param.name.__set__
_set_child = Neg.child.__set__
_set_left = _Binary.left.__set__
_set_right = _Binary.right.__set__
_set_fn = Call.fn.__set__
_set_arg = Call.arg.__set__

_ZERO = Num(0.0)
_ONE = Num(1.0)


def _collect_parameters(e: Expression, names: set[str]) -> None:
    if isinstance(e, Param):
        names.add(e.name)
    elif isinstance(e, Neg):
        _collect_parameters(e.child, names)
    elif isinstance(e, (Add, Sub, Mul, Div, Pow)):
        _collect_parameters(e.left, names)
        _collect_parameters(e.right, names)
    elif isinstance(e, Call):
        _collect_parameters(e.arg, names)


# --- Folding constructors ---------------------------------------------------
#
# Every code path that builds expressions goes through these, so folded
# forms are canonical: rendering and re-parsing reproduces the same tree.


def fold_neg(u: Expression) -> Expression:
    if type(u) is Num:
        return Num(-u.value)
    if type(u) is Neg:
        return u.child
    if type(u) is Mul and type(u.left) is Num:
        return fold_mul(Num(-u.left.value), u.right)
    return Neg(u)


def fold_add(a: Expression, b: Expression) -> Expression:
    if type(a) is Num:
        if type(b) is Num:
            return _fold_float(np.add, a.value + b.value, a.value, b.value)
        if a.value == 0.0:
            return b
    elif type(b) is Num and b.value == 0.0:
        return a
    return Add(a, b)


def fold_sub(a: Expression, b: Expression) -> Expression:
    if type(b) is Num:
        if type(a) is Num:
            return _fold_float(np.subtract, a.value - b.value, a.value, b.value)
        if b.value == 0.0:
            return a
    elif type(a) is Num and a.value == 0.0:
        return fold_neg(b)
    return Sub(a, b)


def fold_mul(a: Expression, b: Expression) -> Expression:
    if type(a) is Num:
        if type(b) is Num:
            return _fold_float(np.multiply, a.value * b.value, a.value, b.value)
        if a.value == 0.0:
            return _ZERO
        if a.value == 1.0:
            return b
    elif type(b) is Num:
        if b.value == 0.0:
            return _ZERO
        if b.value == 1.0:
            return a
    return Mul(a, b)


def fold_div(a: Expression, b: Expression) -> Expression:
    if type(b) is Num:
        if type(a) is Num:
            if b.value == 0.0:
                return _fold(np.divide, a.value, b.value)
            return _fold_float(np.divide, a.value / b.value, a.value, b.value)
        if b.value == 1.0:
            return a
    if type(a) is Num and a.value == 0.0:
        return _ZERO
    return Div(a, b)


def fold_pow(a: Expression, b: Expression) -> Expression:
    if type(b) is Num:
        if type(a) is Num:
            return _fold(np.power, a.value, b.value)
        if b.value == 1.0:
            return a
        if b.value == 0.0:
            return _ONE
    if type(a) is Num and a.value == 1.0:
        return _ONE
    return Pow(a, b)


def fold_call(fn: str, arg: Expression) -> Expression:
    if type(arg) is Num:
        return _fold(_CALLS[fn], arg.value)
    return Call(fn, arg)


# --- Tokenizer and parser ---------------------------------------------------

# Each match is one token with the whitespace before it; exactly one group
# is non-empty: an operator, a number, an identifier, or a stray character.
_TOKEN_RE = re.compile(
    r"\s*(?:(\*\*|[-+*/()])"
    r"|((?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|([A-Za-z_][A-Za-z_0-9]*)"
    r"|(\S))"
)
_COORD_RE = re.compile(r"^x(\d+)$")


class _Parser:
    """Recursive descent: sum := term (('+'|'-') term)*,
    term := unary (('*'|'/') unary)*, unary := ('-'|'+') unary | power,
    power := atom ('**' unary)?  (right associative, signed exponent).

    Token kinds are 'num', 'ident', 'end' or, for an operator, the operator
    itself.  Token positions are only needed for error messages, so they are
    found again when one is raised.
    """

    def __init__(self, source: str, dim: int):
        found = _TOKEN_RE.findall(source)
        self.source = source
        self.kinds = [
            op or ("num" if num else "ident" if ident else "bad")
            for op, num, ident, _ in found
        ] + ["end"]
        self.texts = [op or num or ident or bad for op, num, ident, bad in found] + [""]
        self.dim = dim
        self.at = 0  # index of the next token
        if "bad" in self.kinds:
            index = self.kinds.index("bad")
            self.error(f"unexpected character {self.texts[index]!r}", index)

    def position(self, index: int) -> int:
        starts = [m.start(m.lastindex) for m in _TOKEN_RE.finditer(self.source)]
        return (starts + [len(self.source)])[index]

    def error(self, message: str, index: int):
        raise ExpressionError(message, self.position(index))

    def parse_sum(self) -> Expression:
        node = self.parse_term()
        while True:
            kind = self.kinds[self.at]
            if kind == "+":
                self.at += 1
                node = fold_add(node, self.parse_term())
            elif kind == "-":
                self.at += 1
                node = fold_sub(node, self.parse_term())
            else:
                return node

    def parse_term(self) -> Expression:
        node = self.parse_unary()
        while True:
            kind = self.kinds[self.at]
            if kind == "*":
                self.at += 1
                node = fold_mul(node, self.parse_unary())
            elif kind == "/":
                self.at += 1
                node = fold_div(node, self.parse_unary())
            else:
                return node

    def parse_unary(self) -> Expression:
        kind = self.kinds[self.at]
        if kind == "-":
            self.at += 1
            return fold_neg(self.parse_unary())
        if kind == "+":
            self.at += 1
            return self.parse_unary()
        base = self.parse_atom()
        if self.kinds[self.at] == "**":
            self.at += 1
            return fold_pow(base, self.parse_unary())
        return base

    def expect_close(self) -> None:
        if self.kinds[self.at] != ")":
            self.error("expected ')'", self.at)
        self.at += 1

    def parse_atom(self) -> Expression:
        at = self.at
        kind, text = self.kinds[at], self.texts[at]
        self.at += 1
        if kind == "num":
            return Num(float(text))
        if kind == "ident":
            if self.kinds[self.at] == "(":
                if text not in _CALLS:
                    self.error(f"unknown function {text!r}", at)
                self.at += 1
                arg = self.parse_sum()
                self.expect_close()
                return fold_call(text, arg)
            coord = _COORD_RE.match(text)
            if coord:
                index = int(coord.group(1))
                if index < 1 or index > self.dim:
                    self.error(
                        f"coordinate {text} out of range for dimension {self.dim}", at
                    )
                return Coord(index)
            return Param(text)
        if kind == "(":
            node = self.parse_sum()
            self.expect_close()
            return node
        if kind == "end":
            self.error("unexpected end of input", at)
        self.error(f"unexpected token {text!r}", at)


def parse(source: str, dim: int) -> Expression:
    """Parse ``source`` into an Expression valid in dimension ``dim``.

    Identifiers of the shape x<k> with 1 <= k <= dim are coordinates; any
    other identifier not followed by '(' is a free parameter.  A coordinate
    index outside 1..dim is an error, not a parameter.
    """
    if dim < 1:
        raise ExpressionError(f"dimension must be >= 1, got {dim}")
    if not isinstance(source, str):
        raise ExpressionError(f"expression source must be text, got {type(source).__name__}")
    parser = _Parser(source, dim)
    try:
        node = parser.parse_sum()
    except RecursionError:
        # Each parenthesis, call, sign or ``**`` nests the parser deeper.
        raise ExpressionDepthError(position=parser.position(parser.at)) from None
    if parser.kinds[parser.at] != "end":
        parser.error(f"unexpected token {parser.texts[parser.at]!r}", parser.at)
    return node


# --- Differentiation --------------------------------------------------------


def differentiate(e: Expression, index: int) -> Expression:
    """Symbolic partial derivative w.r.t. the 1-based coordinate ``index``."""
    return differentiate_all([e], index)[0]


@_depth_checked
def differentiate_all(exprs: Sequence[Expression], index: int) -> list[Expression]:
    """Partial derivatives of several expressions w.r.t. one coordinate.

    Equal to differentiating each on its own, but a subtree that occurs more
    than once among them is differentiated once and its result shared.
    Inside ``interning()`` the memo is the scope's, so that holds across
    every call of the scope too.
    """
    if index < 1:
        raise ExpressionError(f"coordinate index must be >= 1, got {index}")
    memo = _derivatives.setdefault(index, {}) if _scopes else {}
    return [_derivative(e, index, memo) for e in exprs]


def _derivative(e: Expression, index: int, memo: dict) -> Expression:
    """Derivative of ``e``; a composite subtree that occurs more than once
    (up to structural equality) is differentiated once and its result shared."""
    kind = type(e)
    if kind is Coord:
        return _ONE if e.index == index else _ZERO
    if kind is Num or kind is Param:
        return _ZERO
    d = memo.get(e)
    if d is not None:
        return d
    if kind is Mul:
        du = _derivative(e.left, index, memo)
        dv = _derivative(e.right, index, memo)
        d = fold_add(fold_mul(du, e.right), fold_mul(e.left, dv))
    elif kind is Add:
        d = fold_add(_derivative(e.left, index, memo), _derivative(e.right, index, memo))
    elif kind is Sub:
        d = fold_sub(_derivative(e.left, index, memo), _derivative(e.right, index, memo))
    elif kind is Neg:
        d = fold_neg(_derivative(e.child, index, memo))
    elif kind is Div:
        du = _derivative(e.left, index, memo)
        dv = _derivative(e.right, index, memo)
        numerator = fold_sub(fold_mul(du, e.right), fold_mul(e.left, dv))
        d = fold_div(numerator, fold_mul(e.right, e.right))
    elif kind is Pow:
        d = _power_derivative(e, index, memo)
    elif kind is Call:
        d = _call_derivative(e, _derivative(e.arg, index, memo))
    else:
        raise ExpressionError(f"cannot differentiate node {kind.__name__}")
    memo[e] = d
    return d


def _power_derivative(e: Pow, index: int, memo: dict) -> Expression:
    du = _derivative(e.left, index, memo)
    if e.right.max_coordinate() == 0:
        # Exponent is constant in the coordinates: plain power rule, which
        # folds to zero with du (the base is never a number).
        if type(du) is Num and du.value == 0.0:
            return _ZERO
        lowered = fold_pow(e.left, fold_sub(e.right, _ONE))
        return fold_mul(fold_mul(e.right, lowered), du)
    dv = _derivative(e.right, index, memo)
    logs = fold_add(
        fold_mul(dv, fold_call("log", e.left)),
        fold_div(fold_mul(e.right, du), e.left),
    )
    return fold_mul(e, logs)


def _call_derivative(e: Call, du: Expression) -> Expression:
    u = e.arg
    if e.fn == "exp":
        return fold_mul(e, du)
    if e.fn == "log":
        return fold_div(du, u)
    if e.fn == "sqrt":
        return fold_div(du, fold_mul(Num(2.0), e))
    if e.fn == "abs":
        # sign(0) = 0 exactly, so the derivative of |u| at u = 0 is 0.
        return fold_mul(fold_call("sign", u), du)
    if e.fn == "sign":
        return _ZERO
    if e.fn == "sin":
        return fold_mul(fold_call("cos", u), du)
    if e.fn == "cos":
        return fold_neg(fold_mul(fold_call("sin", u), du))
    if e.fn == "tan":
        return fold_div(du, fold_pow(fold_call("cos", u), Num(2.0)))
    if e.fn == "sinh":
        return fold_mul(fold_call("cosh", u), du)
    if e.fn == "cosh":
        return fold_mul(fold_call("sinh", u), du)
    if e.fn == "tanh":
        return fold_div(du, fold_pow(fold_call("cosh", u), Num(2.0)))
    raise ExpressionError(f"cannot differentiate function {e.fn!r}")


# --- Rendering --------------------------------------------------------------
#
# Compact canonical text: no whitespace, shortest round-trip float literals,
# minimal parentheses.  Rendering then re-parsing returns a structurally
# identical tree.

_PREC_ADD = 10
_PREC_MUL = 20
_PREC_NEG = 25
_PREC_POW = 30
_PREC_ATOM = 40


def _format_number(value: float) -> str:
    if math.isinf(value):
        return "1e999" if value > 0 else "-1e999"
    if math.isnan(value):
        return "(0.0/0.0)"
    return repr(value)


def _prec(e: Expression) -> int:
    if isinstance(e, Num):
        # The sign-bit check catches -0.0, whose literal also starts with '-'.
        negative = math.isnan(e.value) or math.copysign(1.0, e.value) < 0
        return _PREC_NEG if negative else _PREC_ATOM
    if isinstance(e, (Coord, Param, Call)):
        return _PREC_ATOM
    if isinstance(e, Pow):
        return _PREC_POW
    if isinstance(e, Neg):
        return _PREC_NEG
    if isinstance(e, (Mul, Div)):
        return _PREC_MUL
    return _PREC_ADD


def _render(e: Expression, context: int) -> str:
    if isinstance(e, Num):
        text = _format_number(e.value)
    elif isinstance(e, Coord):
        text = f"x{e.index}"
    elif isinstance(e, Param):
        text = e.name
    elif isinstance(e, Call):
        text = f"{e.fn}({_render(e.arg, 0)})"
    elif isinstance(e, Neg):
        text = "-" + _render(e.child, _PREC_NEG + 1)
    elif isinstance(e, Add):
        text = _render(e.left, _PREC_ADD) + "+" + _render(e.right, _PREC_ADD + 1)
    elif isinstance(e, Sub):
        text = _render(e.left, _PREC_ADD) + "-" + _render(e.right, _PREC_ADD + 1)
    elif isinstance(e, Mul):
        text = _render(e.left, _PREC_MUL) + "*" + _render(e.right, _PREC_MUL + 1)
    elif isinstance(e, Div):
        text = _render(e.left, _PREC_MUL) + "/" + _render(e.right, _PREC_MUL + 1)
    elif isinstance(e, Pow):
        text = _render(e.left, _PREC_POW + 1) + "**" + _render(e.right, _PREC_NEG)
    else:
        raise ExpressionError(f"cannot render node {type(e).__name__}")
    if _prec(e) < context:
        return "(" + text + ")"
    return text


@_depth_checked
def to_source(e: Expression) -> str:
    """Canonical compact source text of ``e``."""
    return _render(e, 0)


# --- Compilation ------------------------------------------------------------

_OP_CONST = 0
_OP_COORD = 1
_OP_CALL = 2  # apply a unary ufunc to the top of the stack
_OP_BINARY = 3  # pop the right operand, apply a binary ufunc to both
_OP_TEE = 4  # copy the top of the stack into a value slot
_OP_LOAD = 5  # push a previously stored slot value
_OP_FREE = 6  # release a slot after its last LOAD
_OP_OUT = 7  # pop an output value into the sink


class CompiledFunction:
    """A flat post-order instruction program over a value stack.

    Instances are pure functions of the evaluation point: all parameters
    were bound at compilation time.  Each operation carries its ufunc, the
    one constant folding uses, and applies it whether its operands are
    arrays or bound constants.  Each output ends in an op that hands it to
    a sink.  ``run`` is the only evaluator; ``evaluate_block`` is its
    one-output case and ``__call__`` a 1-row block.  A subexpression
    appearing more than once, in one output or across outputs, is computed
    once per block, kept in a value slot until its last use.  ``run`` copies
    a block's coordinates once into a contiguous (m, k) block, and a
    coordinate op pushes one of its rows, so no op reads a strided column.
    """

    __slots__ = ("program", "dim", "n_slots")

    def __init__(self, program: list, dim: int, n_slots: int = 0):
        self.program = program
        self.dim = dim
        self.n_slots = n_slots

    def __call__(self, point: Sequence[float]) -> float:
        """Evaluate at one point, as a 1-row block."""
        row = np.asarray(point, dtype=float).reshape(1, -1)
        return float(self.evaluate_block(row)[0])

    def evaluate_block(self, points: np.ndarray) -> np.ndarray:
        """Evaluate a single-output program at every row of ``points``
        (shape (k, m)) -> shape (k,)."""
        out = np.empty(len(points))
        self.run(points, lambda _, value: np.copyto(out, value))
        return out

    def run(self, points: np.ndarray, sink: Callable) -> None:
        """Run at every row of ``points`` (k, m); output ``j`` calls
        ``sink(j, value)`` with a float or a (k,) array the sink may only read."""
        points = np.asarray(points, dtype=float)
        if points.shape[1] != self.dim:
            raise ExpressionError(
                f"points have {points.shape[1]} coordinates, "
                f"the program was compiled for {self.dim}"
            )
        coords = np.ascontiguousarray(points.T)
        stack: list = []
        push = stack.append
        slots: list = [None] * self.n_slots
        with np.errstate(all="ignore"):
            for op, arg in self.program:
                if op == _OP_BINARY:
                    b = stack.pop()
                    stack[-1] = arg(stack[-1], b)
                elif op == _OP_COORD:
                    push(coords[arg])
                elif op == _OP_CONST:
                    push(arg)
                elif op == _OP_CALL:
                    stack[-1] = arg(stack[-1])
                elif op == _OP_LOAD:
                    push(slots[arg])
                elif op == _OP_TEE:
                    slots[arg] = stack[-1]
                elif op == _OP_FREE:
                    slots[arg] = None
                else:
                    sink(arg, stack.pop())


_BINARY_UFUNCS = {Add: np.add, Sub: np.subtract, Mul: np.multiply, Div: np.divide, Pow: np.power}


def compile_expression(
    e: Expression, dim: int, params: Mapping[str, float] | None = None
) -> CompiledFunction:
    """Compile ``e`` for dimension ``dim`` with every free parameter bound.

    Raises UnboundParameterError listing the missing names if ``params``
    does not cover the expression's free parameters.
    """
    return compile_expressions([e], dim, params)


def compile_expressions(
    exprs: Sequence[Expression], dim: int, params: Mapping[str, float] | None = None
) -> CompiledFunction:
    """Compile ``exprs`` into one program whose output ``j`` is ``exprs[j]``;
    a subtree they share is computed once.  Raises as ``compile_expression``."""
    params = dict(params or {})
    program: list = []
    names: set = set()  # parameters used; a missing one raises below
    end_of: dict = {}  # composite subtree -> index of its last instruction
    repeats: list = []  # indices of the LOADs of subtrees seen before
    # Post-order by an explicit stack, so depth is unbounded: a node is checked
    # for a repeat when popped, as a recursive walk would on reaching it, and
    # an (instruction, node) pair finishes a node whose operands are emitted.
    append = program.append
    for out, root in enumerate(exprs):
        todo = [root]
        while todo:
            node = todo.pop()
            kind = type(node)
            if kind is tuple:
                append(node[0])
                end_of[node[1]] = len(program) - 1
            elif kind is Num:
                append((_OP_CONST, float(node.value)))
            elif kind is Coord:
                append((_OP_COORD, node.index - 1))
            elif kind is Param:
                names.add(node.name)
                value = float(params[node.name]) if node.name in params else None
                append((_OP_CONST, value))
            elif (end := end_of.get(node)) is not None:
                repeats.append(len(program))
                append((_OP_LOAD, end))
            # An operation carries its ufunc, so evaluation looks up nothing.
            elif (ufunc := _BINARY_UFUNCS.get(kind)) is not None:
                todo += (((_OP_BINARY, ufunc), node), node.right, node.left)
            elif kind is Neg:
                todo += (((_OP_CALL, np.negative), node), node.child)
            elif kind is Call:
                todo += (((_OP_CALL, _CALLS[node.fn]), node), node.arg)
            else:
                raise ExpressionError(f"cannot compile node {kind.__name__}")
        append((_OP_OUT, out))
    missing = sorted(names - set(params))
    if missing:
        raise UnboundParameterError(missing)
    top = max((e.max_coordinate() for e in exprs), default=0)
    if top > dim:
        raise ExpressionError(f"expression uses x{top}, beyond dimension {dim}")
    # A repeated subtree is stored (TEE) right after its first computation,
    # slots numbered in that order, reloaded at each repeat and released (FREE)
    # after the last; a subtree inside a reloaded one is not visited again.
    ends = sorted({program[index][1] for index in repeats})
    slot_at = {end: slot for slot, end in enumerate(ends)}
    for index in repeats:
        program[index] = (_OP_LOAD, slot_at[program[index][1]])
    last_load = {program[index][1]: index for index in repeats}  # slot -> index
    inserts = [(end, (_OP_TEE, slot)) for slot, end in enumerate(ends)]
    inserts += [(index, (_OP_FREE, slot)) for slot, index in last_load.items()]
    resolved, start = [], 0
    for index, instruction in sorted(inserts):
        resolved += program[start : index + 1]
        resolved.append(instruction)
        start = index + 1
    resolved += program[start:]
    return CompiledFunction(resolved, dim, n_slots=len(ends))


# --- Partial evaluation -----------------------------------------------------


@_depth_checked
def partial_eval(
    e: Expression,
    dim: int | None = None,
    params: Mapping[str, float] | None = None,
    coords: Mapping[int, float] | Sequence[float] | None = None,
) -> Union[float, Expression]:
    """Substitute bound parameters and coordinates, folding constants.

    Returns a plain float when everything folds to a number, otherwise the
    residual Expression (whose str() is the canonical rendering).  Folding
    uses the compiled program's ufuncs, so with every parameter and
    coordinate bound the float has the bits ``compile_expression`` computes.
    """
    params = params or {}
    if coords is None:
        coord_map: Mapping[int, float] = {}
    elif isinstance(coords, Mapping):
        coord_map = {int(k): float(v) for k, v in coords.items()}
    else:
        coord_map = {i + 1: float(v) for i, v in enumerate(coords)}
    if dim is not None:
        top = e.max_coordinate()
        if top > dim:
            raise ExpressionError(f"expression uses x{top}, beyond dimension {dim}")
    result = _substitute(e, params, coord_map)
    if isinstance(result, Num):
        return float(result.value)
    return result


def _substitute(
    e: Expression, params: Mapping[str, float], coords: Mapping[int, float]
) -> Expression:
    if isinstance(e, Num):
        return e
    if isinstance(e, Coord):
        if e.index in coords:
            return Num(float(coords[e.index]))
        return e
    if isinstance(e, Param):
        if e.name in params:
            return Num(float(params[e.name]))
        return e
    if isinstance(e, Neg):
        return fold_neg(_substitute(e.child, params, coords))
    if isinstance(e, Add):
        return fold_add(_substitute(e.left, params, coords), _substitute(e.right, params, coords))
    if isinstance(e, Sub):
        return fold_sub(_substitute(e.left, params, coords), _substitute(e.right, params, coords))
    if isinstance(e, Mul):
        return fold_mul(_substitute(e.left, params, coords), _substitute(e.right, params, coords))
    if isinstance(e, Div):
        return fold_div(_substitute(e.left, params, coords), _substitute(e.right, params, coords))
    if isinstance(e, Pow):
        return fold_pow(_substitute(e.left, params, coords), _substitute(e.right, params, coords))
    if isinstance(e, Call):
        return fold_call(e.fn, _substitute(e.arg, params, coords))
    raise ExpressionError(f"cannot substitute into node {type(e).__name__}")
