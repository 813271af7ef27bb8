"""Tests for the expression language: parsing, differentiation, compilation."""

import math
import struct

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from poissonmesh import expressions as ex

from corpus import DERIVATIVE_CORPUS
from oracles import central_fd


# --- Parsing ----------------------------------------------------------------


class TestParse:
    def test_precedence_mul_over_add(self):
        e = ex.parse("1 + 2*x1", 1)
        assert e == ex.Add(ex.Num(1.0), ex.Mul(ex.Num(2.0), ex.Coord(1)))

    def test_power_right_associative(self):
        assert ex.parse("2**3**2", 1) == ex.Num(512.0)

    def test_power_binds_tighter_than_unary_minus(self):
        e = ex.parse("-x1**2", 1)
        assert e == ex.Neg(ex.Pow(ex.Coord(1), ex.Num(2.0)))

    def test_parenthesized_negative_base(self):
        e = ex.parse("(-x1)**2", 1)
        assert e == ex.Pow(ex.Neg(ex.Coord(1)), ex.Num(2.0))

    def test_negative_exponent(self):
        e = ex.parse("x1**-2", 1)
        assert e == ex.Pow(ex.Coord(1), ex.Num(-2.0))

    def test_unary_plus(self):
        assert ex.parse("+x1", 1) == ex.Coord(1)

    def test_integer_literal_becomes_float(self):
        e = ex.parse("7", 1)
        assert isinstance(e, ex.Num) and e.value == 7.0

    def test_scientific_notation(self):
        assert ex.parse("1.5e-3", 1) == ex.Num(0.0015)

    def test_rational_prefix_folds(self):
        assert ex.parse("1/2*x4", 4) == ex.Mul(ex.Num(0.5), ex.Coord(4))

    def test_function_call(self):
        assert ex.parse("exp(x1)", 1) == ex.Call("exp", ex.Coord(1))

    def test_nested_call(self):
        e = ex.parse("exp(-1/(x1**2 + x2**2 - x3**2)**2)", 3)
        assert isinstance(e, ex.Call) and e.fn == "exp"

    def test_identifiers_that_are_not_coordinates_are_parameters(self):
        for name in ("a", "x", "xy", "x_1", "alpha2"):
            e = ex.parse(name, 3)
            assert e == ex.Param(name)

    def test_coordinate_zero_is_an_error(self):
        with pytest.raises(ex.ExpressionError):
            ex.parse("x0", 3)

    def test_coordinate_beyond_dimension_is_an_error(self):
        with pytest.raises(ex.ExpressionError) as err:
            ex.parse("x4", 3)
        assert "x4" in str(err.value)

    def test_unknown_function(self):
        with pytest.raises(ex.ExpressionError) as err:
            ex.parse("foo(x1)", 1)
        assert "foo" in str(err.value)

    def test_syntax_error_reports_position(self):
        with pytest.raises(ex.ExpressionError) as err:
            ex.parse("x1 @ x2", 2)
        assert err.value.position == 3

    def test_unexpected_end(self):
        with pytest.raises(ex.ExpressionError):
            ex.parse("1 +", 1)

    def test_unbalanced_parenthesis(self):
        with pytest.raises(ex.ExpressionError):
            ex.parse("(x1", 1)

    def test_trailing_garbage(self):
        with pytest.raises(ex.ExpressionError):
            ex.parse("x1 x2", 2)

    def test_empty_source(self):
        with pytest.raises(ex.ExpressionError):
            ex.parse("", 1)

    def test_bad_dimension(self):
        with pytest.raises(ex.ExpressionError):
            ex.parse("x1", 0)

    # The parser recurses once or more per level; a RecursionError becomes
    # an ExpressionDepthError at the token it stopped on.
    @pytest.mark.parametrize("source, tokens", [
        pytest.param("(" * 400 + "x1" + ")" * 400, "(", id="parentheses"),
        pytest.param("-" * 2000 + "x1", "-", id="signs"),
        pytest.param("x1**" * 1200 + "x1", "x*", id="exponents"),
    ])
    def test_nesting_past_the_stack_is_a_depth_error(self, source, tokens):
        with pytest.raises(ex.ExpressionDepthError, match="nested too deeply") as err:
            ex.parse(source, 1)
        assert source[err.value.position] in tokens
        assert f"(at position {err.value.position})" in str(err.value)

    def test_nesting_well_inside_the_stack_parses(self):
        assert ex.parse("(" * 150 + "x1" + ")" * 150, 1) == ex.Coord(1)
        calls = "sin(" * 150 + "x1" + ")" * 150
        assert ex.parse(calls, 1) == ex.parse(calls, 1)
        assert ex.parse("-" * 600 + "x1", 1) == ex.Coord(1)
        assert isinstance(ex.parse("x1**" * 600 + "x1", 1), ex.Expression)


# --- Rendering and round trips ---------------------------------------------


def _all_nums_finite(e: ex.Expression) -> bool:
    if isinstance(e, ex.Num):
        return math.isfinite(e.value)
    if isinstance(e, ex.Neg):
        return _all_nums_finite(e.child)
    if isinstance(e, (ex.Add, ex.Sub, ex.Mul, ex.Div, ex.Pow)):
        return _all_nums_finite(e.left) and _all_nums_finite(e.right)
    if isinstance(e, ex.Call):
        return _all_nums_finite(e.arg)
    return True


_leaves = st.one_of(
    st.floats(min_value=-100.0, max_value=100.0, allow_nan=False).map(ex.Num),
    st.integers(min_value=1, max_value=4).map(ex.Coord),
    st.sampled_from(["a", "b", "mu"]).map(ex.Param),
)


def _combine(inner):
    binary = st.sampled_from(
        [ex.fold_add, ex.fold_sub, ex.fold_mul, ex.fold_div, ex.fold_pow]
    )
    return st.one_of(
        st.builds(ex.fold_neg, inner),
        st.builds(lambda f, a, b: f(a, b), binary, inner, inner),
        st.builds(ex.fold_call, st.sampled_from(ex.FUNCTION_NAMES), inner),
    )


_canonical_exprs = st.recursive(_leaves, _combine, max_leaves=12)


def _bits(value) -> bytes:
    """The float64 bits of a number or array: NaNs and zero signs count."""
    return np.asarray(value, dtype=np.float64).tobytes()


class TestRendering:
    def test_compact_rendering(self):
        assert ex.to_source(ex.parse("x1 - 4*a*x2", 2)) == "x1-4.0*a*x2"

    def test_rendering_keeps_structure(self):
        assert ex.to_source(ex.parse("(x1 + x2)**3", 2)) == "(x1+x2)**3.0"

    def test_right_assoc_power_needs_no_parens(self):
        e = ex.Pow(ex.Coord(1), ex.Pow(ex.Coord(2), ex.Coord(3)))
        assert ex.to_source(e) == "x1**x2**x3"

    def test_left_assoc_power_keeps_parens(self):
        e = ex.Pow(ex.Pow(ex.Coord(1), ex.Coord(2)), ex.Coord(3))
        assert ex.to_source(e) == "(x1**x2)**x3"
        assert ex.parse(ex.to_source(e), 3) == e

    def test_corpus_round_trip(self):
        for entry in DERIVATIVE_CORPUS:
            e = ex.parse(entry.source, entry.dim)
            assert ex.parse(ex.to_source(e), entry.dim) == e

    def test_negated_product_is_canonical(self):
        # -((-1)*x1) is x1, as fold_mul(1.0, x1) is, not the product 1.0*x1,
        # which would render as "1.0*x1" and parse back as x1.
        x1 = ex.Coord(1)
        assert ex.fold_neg(ex.Mul(ex.Num(-1.0), x1)) is x1
        assert ex.fold_neg(ex.Mul(ex.Num(2.0), x1)) == ex.Mul(ex.Num(-2.0), x1)
        assert ex.to_source(ex.fold_neg(ex.parse("-1.0*(x1 + x2)", 2))) == "x1+x2"

    @settings(max_examples=300, deadline=None)
    @given(_canonical_exprs)
    @example(ex.fold_neg(ex.Mul(ex.Num(-1.0), ex.Coord(1))))
    @example(ex.fold_neg(ex.Mul(ex.Num(-1.0), ex.fold_add(ex.Coord(2), ex.Param("a")))))
    def test_random_round_trip(self, e):
        assume(_all_nums_finite(e))
        text = ex.to_source(e)
        assert ex.parse(text, 4) == e


# --- Differentiation --------------------------------------------------------


class TestDifferentiate:
    def test_simple_product(self):
        e = ex.parse("x3*x2", 3)
        assert ex.differentiate(e, 2) == ex.Coord(3)
        assert ex.differentiate(e, 1) == ex.Num(0.0)

    def test_corpus_against_central_differences(self):
        rng = np.random.default_rng(20250825)
        for entry in DERIVATIVE_CORPUS:
            e = ex.parse(entry.source, entry.dim)
            f = ex.compile_expression(e, entry.dim, entry.params)
            derivatives = [
                ex.compile_expression(ex.differentiate(e, i), entry.dim, entry.params)
                for i in range(1, entry.dim + 1)
            ]
            for p in entry.sample(rng, 100):
                for i in range(1, entry.dim + 1):
                    fd = central_fd(f, p, i)
                    sym = derivatives[i - 1](p)
                    assert abs(sym - fd) / (1.0 + abs(fd)) <= 1e-6, (
                        entry.source,
                        i,
                        p,
                    )

    def test_linearity(self):
        rng = np.random.default_rng(7)
        f_src = "sin(x1)*cos(x2)"
        g_src = "(x1 + x2)**3"
        combo = ex.parse(f"3*({f_src}) - 2*({g_src})", 2)
        f = ex.parse(f_src, 2)
        g = ex.parse(g_src, 2)
        for i in (1, 2):
            d_combo = ex.differentiate(combo, i)
            df = ex.differentiate(f, i)
            dg = ex.differentiate(g, i)
            d_combo, df, dg = (ex.compile_expression(d, 2) for d in (d_combo, df, dg))
            for p in rng.random((50, 2)) * 4 - 2:
                lhs = d_combo(p)
                rhs = 3 * df(p) - 2 * dg(p)
                assert abs(lhs - rhs) <= 1e-12 * (1 + abs(rhs))

    def test_abs_derivative_is_zero_at_zero(self):
        d = ex.compile_expression(ex.differentiate(ex.parse("abs(x1)", 1), 1), 1)
        assert d([0.0]) == 0.0
        assert d([2.5]) == 1.0
        assert d([-2.5]) == -1.0

    def test_power_rule_with_symbolic_exponent(self):
        e = ex.parse("x1**a", 1)
        d = ex.differentiate(e, 1)
        val = ex.compile_expression(d, 1, {"a": 3.0})([2.0])
        assert abs(val - 12.0) < 1e-12

    def test_general_power(self):
        e = ex.parse("x1**x2", 2)
        d1 = ex.compile_expression(ex.differentiate(e, 1), 2)
        d2 = ex.compile_expression(ex.differentiate(e, 2), 2)
        p = [1.7, 2.3]
        assert abs(d1(p) - 2.3 * 1.7**1.3) < 1e-12
        assert abs(d2(p) - (1.7**2.3) * math.log(1.7)) < 1e-12

    def test_parameters_have_zero_derivative(self):
        assert ex.differentiate(ex.parse("a", 1), 1) == ex.Num(0.0)


# --- Compilation and evaluation ---------------------------------------------


class TestNodeIdentity:
    def test_separately_built_trees_are_equal_and_hash_equal(self):
        a = ex.parse("x1*sin(x2) - x3**2/a", 3)
        b = ex.parse("x1*sin(x2) - x3**2/a", 3)
        assert a is not b
        assert a == b
        assert hash(a) == hash(b)

    def test_node_type_is_part_of_equality(self):
        a, b = ex.Coord(1), ex.Coord(2)
        assert ex.Add(a, b) != ex.Mul(a, b)
        assert ex.Add(a, b) != ex.Add(b, a)

    def test_signed_zeros_are_different_constants(self):
        assert ex.Num(0.0) != ex.Num(-0.0)
        assert ex.Div(ex.Coord(1), ex.Num(0.0)) != ex.Div(ex.Coord(1), ex.Num(-0.0))
        assert ex.Num(-0.0) == ex.Num(-0.0)
        assert hash(ex.Num(-0.0)) == hash(ex.Num(-0.0))
        nan = ex.parse("0/0", 1)
        assert nan == ex.Num(nan.value) and hash(nan) == hash(ex.Num(nan.value))
        # Common-subexpression elimination must not merge the two quotients:
        # inf + -inf is NaN, where one reused quotient would give -inf.
        e = ex.parse("x1/-0.0 + x1/0.0", 1)
        assert ex.compile_expression(e, 1).n_slots == 0
        assert math.isnan(ex.compile_expression(e, 1)([1.0]))

    def test_equality_of_deep_trees_has_no_depth_limit(self):
        # Sums nest to the left, so the first term is the deepest leaf.
        terms = [f"x1*x2**{i}" for i in range(10_000)]
        a = ex.parse(" + ".join(terms), 3)
        b = ex.parse(" + ".join(terms), 3)
        assert a is not b
        assert a == b and hash(a) == hash(b)
        assert a != ex.parse(" + ".join(["x1*x2**0.5"] + terms[1:]), 3)
        zero = ex.parse(" + ".join(["x1*0.0**x3"] + terms[1:]), 3)
        negative_zero = ex.parse(" + ".join(["x1*(-0.0)**x3"] + terms[1:]), 3)
        assert zero != negative_zero
        assert zero == ex.parse(" + ".join(["x1*0.0**x3"] + terms[1:]), 3)

    # The walkers recurse once per level, and a 1,000-term sum nests 1,000 deep.
    @pytest.mark.parametrize("walk", [
        pytest.param(lambda e: ex.differentiate(e, 1), id="differentiate"),
        pytest.param(ex.to_source, id="to_source"),
        pytest.param(str, id="str"),
        pytest.param(lambda e: ex.partial_eval(e, 3, None, (1.0, 2.0, 3.0)), id="partial_eval"),
        pytest.param(lambda e: e.free_parameters(), id="free_parameters"),
    ])
    def test_walking_a_tree_past_the_stack_is_a_depth_error(self, walk):
        e = ex.parse(" + ".join(f"x1*x2**{i}" for i in range(1000)), 3)
        with pytest.raises(ex.ExpressionDepthError, match="nested too deeply") as err:
            walk(e)
        assert not isinstance(err.value, RecursionError)
        assert ex.compile_expression(e, 3) is not None

    def test_interning_shares_equal_nodes_until_the_outermost_scope_exits(self):
        source = "x1*sin(x2) - x3**2/a + -x1"
        nan = struct.unpack("<d", struct.pack("<Q", 0x7FF8000000000001))[0]
        other_nan = struct.unpack("<d", struct.pack("<Q", 0x7FF8000000000002))[0]
        with ex.interning():
            a = ex.parse(source, 3)
            assert ex.parse(source, 3) is a
            # Constants are keyed by their bits.
            assert ex.Num(0.0) is ex.Num(0.0) and ex.Num(0.0) is not ex.Num(-0.0)
            assert ex.Num(nan) is ex.Num(nan) and ex.Num(nan) is not ex.Num(other_nan)
            with ex.interning():
                assert ex.parse(source, 3) is a
            assert ex.parse(source, 3) is a
        assert not ex._interned and not ex._derivatives
        b = ex.parse(source, 3)
        assert b is not a and b == a and hash(b) == hash(a)

    def test_nodes_have_no_instance_dict(self):
        x = ex.Coord(1)
        nodes = [ex.Num(1.0), x, ex.Param("a"), ex.Neg(x), ex.Call("sin", x)]
        nodes += [cls(x, x) for cls in (ex.Add, ex.Sub, ex.Mul, ex.Div, ex.Pow)]
        for node in nodes:
            hash(node)
            assert not hasattr(node, "__dict__"), type(node).__name__


class TestCompile:
    def test_compiled_matches_sympy_at_40_digits(self):
        # Independent reference: sympy reads the source text itself and
        # mpmath evaluates it at 40 significant digits.
        sympy = pytest.importorskip("sympy")
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(11)
        for entry in DERIVATIVE_CORPUS:
            f = ex.compile_expression(
                ex.parse(entry.source, entry.dim), entry.dim, entry.params
            )
            coords = sympy.symbols(f"x1:{entry.dim + 1}")
            names = {str(c): c for c in coords} | {"abs": sympy.Abs}
            reference = sympy.sympify(entry.source, locals=names).subs(entry.params)
            exact = sympy.lambdify(coords, reference, modules="mpmath")
            for p in entry.sample(rng, 25):
                with mpmath.workdps(40):
                    expected = float(exact(*(mpmath.mpf(float(v)) for v in p)))
                assert math.isclose(f(p), expected, rel_tol=1e-12, abs_tol=1e-12), (
                    entry.source,
                    p,
                )

    def test_block_matches_scalar(self):
        # A point is evaluated as a 1-row block, so it must reproduce its
        # row of a many-row block bit for bit.
        rng = np.random.default_rng(13)
        for entry in DERIVATIVE_CORPUS:
            e = ex.parse(entry.source, entry.dim)
            f = ex.compile_expression(e, entry.dim, entry.params)
            points = entry.sample(rng, 50)
            block = f.evaluate_block(points)
            for row, expected in zip(points, block):
                assert np.float64(f(row)).tobytes() == expected.tobytes(), (
                    entry.source,
                    row,
                )

    def test_partial_eval_matches_compiled_on_corpus(self):
        # Folding and the compiled program share one arithmetic, so a fully
        # bound partial evaluation has the compiled value's bits.
        rng = np.random.default_rng(17)
        for entry in DERIVATIVE_CORPUS:
            e = ex.parse(entry.source, entry.dim)
            f = ex.compile_expression(e, entry.dim, entry.params)
            for p in entry.sample(rng, 50):
                folded = ex.partial_eval(e, entry.dim, entry.params, p)
                assert _bits(folded) == _bits(f(p)), (entry.source, p)

    @given(
        _canonical_exprs,
        st.lists(st.floats(-3.0, 3.0), min_size=7, max_size=7),
    )
    # A point where math.sinh and np.sinh differ in the last bit, and NaNs of
    # opposite signs meeting in a sum and in a product, where CPython may
    # return either operand.
    @example(ex.parse("sinh(x2)", 4), [0.0, 0.046875] + [0.0] * 5)
    @example(ex.parse("-log(a) + log(b)", 4), [0.5] * 4 + [-1.0, -2.0, 1.0])
    @example(ex.parse("log(a)*-log(b)", 4), [0.5] * 4 + [-1.0, -2.0, 1.0])
    def test_partial_eval_matches_compiled_on_random_trees(self, e, values):
        params = dict(zip(["a", "b", "mu"], values[4:]))
        f = ex.compile_expression(e, 4, params)
        folded = ex.partial_eval(e, 4, params, values[:4])
        assert _bits(folded) == _bits(f(values[:4]))

    def test_literal_and_bound_parameter_agree(self):
        # x1/f(0.3) folds f(0.3) at parse time; x1/f(a) with a = 0.3 computes
        # it in the program.  Both give the same bits, poles included.  A
        # quotient, not a product: 0*x1 folds to 0 whatever x1 is, while x1/1
        # folds to x1 exactly.
        rng = np.random.default_rng(19)
        points = rng.uniform(-2.0, 2.0, size=(4, 1))
        values = [*rng.uniform(-4.0, 4.0, 200), 0.0, -0.0, 1e3, -1e3, np.pi / 2]
        cases = [(f"x1/{name}({{}})", f"x1/{name}(a)") for name in ex.FUNCTION_NAMES]
        cases.append(("x1/({})**({})", "x1/a**b"))
        for literal, bound in cases:
            for a in values:
                args = (a, rng.uniform(-3.0, 3.0))  # a unary case ignores b
                source = literal.format(*map(repr, map(float, args)))
                params = dict(zip("ab", args))
                expected = ex.compile_expression(ex.parse(bound, 1), 1, params)
                got = ex.compile_expression(ex.parse(source, 1), 1)
                assert _bits(got.evaluate_block(points)) == _bits(
                    expected.evaluate_block(points)
                ), source

    def test_unbound_parameter_lists_names(self):
        e = ex.parse("a*x1 + b", 1)
        with pytest.raises(ex.UnboundParameterError) as err:
            ex.compile_expression(e, 1, {"a": 1.0})
        assert err.value.names == ("b",)
        assert "b" in str(err.value)

    def test_extra_parameters_are_fine(self):
        e = ex.parse("a*x1", 1)
        f = ex.compile_expression(e, 1, {"a": 2.0, "unused": 9.0})
        assert f([3.0]) == 6.0

    def test_dimension_check(self):
        e = ex.parse("x3", 3)
        with pytest.raises(ex.ExpressionError):
            ex.compile_expression(e, 2)
        # Points of another width are refused, not truncated or misindexed.
        f = ex.compile_expression(ex.parse("x1 + x2", 2), 2)
        assert f([1.0, 2.0]) == 3.0
        for point, width in (([1.0, 2.0, 100.0], "3"), ([1.0], "1")):
            with pytest.raises(ex.ExpressionError, match=f"have {width} .* for 2"):
                f(point)
        with pytest.raises(ex.ExpressionError, match="have 3 .* for 2"):
            f.evaluate_block(np.zeros((4, 3)))

    def test_constant_block(self):
        f = ex.compile_expression(ex.parse("2 + 3", 1), 1)
        out = f.evaluate_block(np.zeros((5, 1)))
        assert out.shape == (5,)
        assert np.all(out == 5.0)

    def test_singular_evaluations_give_ieee_values(self):
        cases = [
            ("1/x1", [0.0], math.inf),
            ("-1/x1", [0.0], -math.inf),
            ("log(x1)", [0.0], -math.inf),
            ("x1**-1", [0.0], math.inf),
        ]
        for src, p, expected in cases:
            f = ex.compile_expression(ex.parse(src, 1), 1)
            assert f(p) == expected
            block = f.evaluate_block(np.array([p]))
            assert block[0] == expected
        nan_cases = [("log(x1)", [-1.0]), ("sqrt(x1)", [-4.0]), ("x1**0.5", [-2.0])]
        for src, p in nan_cases:
            f = ex.compile_expression(ex.parse(src, 1), 1)
            assert math.isnan(f(p))
            assert math.isnan(f.evaluate_block(np.array([p]))[0])
        # Constant-only sources fold at parse time, to the ufunc's value.
        folded = [
            ("log(-1)", np.log, (-1.0,)),
            ("sqrt(-1)", np.sqrt, (-1.0,)),
            ("0**-1", np.power, (0.0, -1.0)),
            ("(-8)**(1/3)", np.power, (-8.0, 1 / 3)),
            ("exp(1000)", np.exp, (1000.0,)),
            ("1/0", np.divide, (1.0, 0.0)),
            ("-1/0", np.divide, (-1.0, 0.0)),
            ("0/0", np.divide, (0.0, 0.0)),
        ]
        for src, ufunc, args in folded:
            e = ex.parse(src, 1)
            assert type(e) is ex.Num, src
            with np.errstate(all="ignore"):
                expected = ufunc(*map(np.float64, args))
            assert _bits(e.value) == _bits(expected), src

    def test_zero_over_zero_is_nan_when_not_folded(self):
        f = ex.compile_expression(ex.parse("x1/x2", 2), 2)
        assert math.isnan(f([0.0, 0.0]))

    def test_purity(self):
        f = ex.compile_expression(ex.parse("x1**2 + 1", 1), 1)
        assert f([3.0]) == f([3.0]) == 10.0

    def test_repeated_subtree_gets_one_slot(self):
        # The two operands are parsed separately, so only structural
        # equality (not identity) can find the repeat.
        left = ex.parse("x1*x2 + 1", 2)
        right = ex.parse("x1*x2 + 1", 2)
        assert left is not right
        f = ex.compile_expression(ex.fold_add(left, right), 2)
        ops = [op for op, _ in f.program]
        assert ops.count(ex._OP_TEE) == 1
        assert ops.count(ex._OP_LOAD) == 1
        assert f.n_slots == 1
        assert f([2.0, 3.0]) == 14.0
        assert f.evaluate_block(np.array([[2.0, 3.0]]))[0] == 14.0

    def test_subtree_shared_across_outputs_is_computed_once(self):
        exprs = [ex.parse("exp(x1*x2)*x1", 2), ex.parse("x2 - exp(x1*x2)", 2)]
        f = ex.compile_expressions(exprs, 2)
        assert [arg for op, arg in f.program if op == ex._OP_CALL] == [np.exp]
        assert [arg for op, arg in f.program if op == ex._OP_OUT] == [0, 1]
        points = np.random.default_rng(3).uniform(-1.0, 1.0, size=(9, 2))
        outputs = {}
        f.run(points, lambda j, value: outputs.setdefault(j, np.copy(value)))
        for j, e in enumerate(exprs):
            alone = ex.compile_expression(e, 2).evaluate_block(points)
            assert outputs[j].tobytes() == alone.tobytes()

    def test_every_slot_freed_once_after_its_last_load(self):
        exprs = [ex.parse(entry.source, entry.dim) for entry in DERIVATIVE_CORPUS]
        exprs = [ex.differentiate(e, 1) for e in exprs if e.max_coordinate() <= 3]
        programs = [ex.compile_expression(e, 3, {"a": 1.5, "b": -2.0}) for e in exprs]
        programs.append(ex.compile_expressions(exprs, 3, {"a": 1.5, "b": -2.0}))
        assert sum(f.n_slots for f in programs) > 10
        slot_ops = (ex._OP_TEE, ex._OP_LOAD, ex._OP_FREE)
        for f in programs:
            for slot in range(f.n_slots):
                at = [
                    i
                    for i, (op, arg) in enumerate(f.program)
                    if op in slot_ops and arg == slot
                ]
                ops = [f.program[i][0] for i in at]
                assert ops.count(ex._OP_TEE) == 1 and ops[0] == ex._OP_TEE
                assert ops.count(ex._OP_FREE) == 1 and ops[-1] == ex._OP_FREE
                assert f.program[at[-1] - 1] == (ex._OP_LOAD, slot)

    def test_very_long_sum_compiles_and_evaluates(self):
        # Far deeper than the interpreter's recursion limit.
        n = 10_000
        e = ex.parse(" + ".join(f"x1*x2**{i}" for i in range(1, n + 1)), 2)
        f = ex.compile_expression(e, 2)
        points = np.random.default_rng(4).uniform(0.5, 1.0, size=(8, 2))
        expected = points[:, 0] * points[:, 1]
        for i in range(2, n + 1):
            expected = expected + points[:, 0] * points[:, 1] ** float(i)
        assert f.evaluate_block(points).tobytes() == expected.tobytes()
        assert f(points[0]) == expected[0]


# --- Partial evaluation -----------------------------------------------------


class TestPartialEval:
    def test_full_binding_returns_float(self):
        e = ex.parse("x1 + x2", 2)
        assert ex.partial_eval(e, 2, coords=[1.0, 2.0]) == 3.0

    def test_residual_rendering_matches_expected_strings(self):
        e13 = ex.parse("x1 - 4*a*x2", 3)
        e23 = ex.parse("4*a*x1 + x2", 3)
        cases = [
            (e13, {1: 0.0, 2: 1.0}, "-4.0*a"),
            (e13, {1: 1.0, 2: 1.0}, "1.0-4.0*a"),
            (e23, {1: 1.0, 2: 0.0}, "4.0*a"),
            (e23, {1: 1.0, 2: 1.0}, "4.0*a+1.0"),
        ]
        for e, coords, expected in cases:
            out = ex.partial_eval(e, 3, coords=coords)
            assert isinstance(out, ex.Expression)
            assert str(out) == expected

    def test_residual_folds_to_number_when_coefficient_vanishes(self):
        e = ex.parse("4*a*x1 + x2", 3)
        assert ex.partial_eval(e, 3, coords={1: 0.0, 2: 1.0}) == 1.0

    def test_parameter_binding(self):
        e = ex.parse("4*a*x1 + x2", 3)
        assert ex.partial_eval(e, 3, params={"a": 0.25}, coords={1: 1.0, 2: 0.0}) == 1.0

    def test_unbound_parameter_passes_through(self):
        out = ex.partial_eval(ex.parse("b", 1), 1)
        assert out == ex.Param("b")

    def test_round_trip_of_residual(self):
        e = ex.parse("x1 - 4*a*x2", 3)
        residual = ex.partial_eval(e, 3, coords={1: 1.0, 2: 1.0})
        assert ex.parse(str(residual), 3) == residual
