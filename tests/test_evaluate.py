"""Tests for the batch mesh-evaluation layer."""

import hashlib
import importlib.util
import itertools
import struct
import sys
import threading
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import goldens as g
import oracles
from poissonmesh import bench
from poissonmesh import evaluate as ev
from poissonmesh import expressions as ex
from poissonmesh.evaluate import EvalOptions, MeshDimensionError
from poissonmesh.expressions import (
    ExpressionDepthError,
    ExpressionError,
    Num,
    UnboundParameterError,
    compile_expression,
    compile_expressions,
    differentiate,
    fold_add,
    fold_mul,
    parse,
)
from poissonmesh.geometry import (
    Multivector,
    MultivectorError,
    as_mesh,
    corners_mesh,
    random_mesh,
    validate_multivector,
)
from poissonmesh.symbolic import (
    curl_sym,
    flaschka_ratiu_sym,
    linear_normal_form_r3,
    modular_vf_sym,
    one_forms_bracket_sym,
    schouten_coboundary,
    sharp_sym,
)

SEED = 20250825

DENSE = EvalOptions(mode="dense")


def use_cores(monkeypatch, cores: int) -> None:
    """Calls run as on ``cores`` usable cores, with one thread per chunk (not
    per 8), so that a small mesh is shared by up to ``cores`` threads."""
    monkeypatch.setattr(ev, "_usable_cores", lambda: cores)
    monkeypatch.setattr(ev, "_CHUNKS_PER_THREAD", 1)


# G = I - Lambda M has G[0, 0] = 0 everywhere, and seven of the twelve
# entries (i, j), i < j, of Lambda and M are literal zeros, whose terms the
# Pfaffian expansion skips; det G = (x1 x2 x3)^2.
GAUGE_ALL_PIVOT_R4 = (
    {(1, 2): "-1", (1, 3): "x2", (2, 4): "x3"},
    {(1, 2): "1", (3, 4): "x1"},
)


def _pfaffian_gauge_cases() -> list:
    rng = np.random.default_rng(SEED + 23)
    cases = [
        pytest.param(
            m,
            oracles.random_multivector_dict(rng, m, 2),
            oracles.random_multivector_dict(rng, m, 2),
            id=f"random-r{m}",
        )
        for m in (2, 3, 4, 5)
    ]
    return cases + [pytest.param(4, *GAUGE_ALL_PIVOT_R4, id="all-pivot-r4")]


PFAFFIAN_GAUGE_CASES = _pfaffian_gauge_cases()


def _gauge_exact_cases() -> list:
    """(m, P, Lambda, extra points): integer coefficients, and points off the
    grid of eighths where det G falls through 1e-12 (14 steps, the last
    three below it), so M and Lambda are rounded there."""
    rng = np.random.default_rng(SEED + 26)
    cases = [
        pytest.param(
            m,
            oracles.random_multivector_dict(rng, m, 2),
            oracles.random_multivector_dict(rng, m, 2),
            np.empty((0, m)),
            id=f"random-r{m}",
        )
        for m in (3, 4, 5)
    ]
    steps = 0.3 ** np.arange(1, 15)
    # det G = (1 + x3)^2: x3 -> -1.
    so3 = np.tile([1 / 3, 1.1, 0.9], (14, 1))
    so3[:, 2] = -1.0 + steps
    # det G = (x1 x2 x3)^2: x1 -> 0.
    all_pivot = np.tile([0.0, 1.1, 0.9, 0.7], (14, 1))
    all_pivot[:, 0] = steps
    return cases + [
        pytest.param(
            3, g.SO3, {(1, 2): "1", (1, 3): "x1", (2, 3): "x2"}, so3,
            id="near-singular-r3",
        ),
        pytest.param(4, *GAUGE_ALL_PIVOT_R4, all_pivot, id="near-singular-r4"),
    ]


GAUGE_EXACT_CASES = _gauge_exact_cases()

# Integer entries with a pole at x1 = 0 that Lambda does not reach, so
# G = I - Lambda M stays finite there: det G = (1 + (x1 + x3) x2)^2.
GAUGE_POLE_P = {(1, 2): "x3 - 1/x1", (1, 3): "x2 + 1", (2, 4): "x1 - x4", (3, 4): "x2"}
GAUGE_POLE_LAM = {(3, 4): "x1 + x3"}


def gauge_pole_mesh():
    """{-1, 0, 1, 2}^4: poles at x1 = 0, singular points where (x1 + x3) x2 = -1."""
    return as_mesh(np.array(np.meshgrid(*[[-1.0, 0.0, 1.0, 2.0]] * 4)).reshape(4, -1).T)


def benchmark_workloads():
    """``perfbench/workloads.py``, loaded by path and read only; it imports
    nothing but numpy and poissonmesh."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def hamiltonian_product_mesh():
    pts = [
        (a, b, c, d, e, f)
        for a in (-2, -1)
        for b in (0, 1)
        for c in (2, 3)
        for d in (0, 1)
        for e in (0, 1)
        for f in (0, 1)
    ]
    return as_mesh(pts)


def evaluated_one_form(raw, mesh) -> np.ndarray:
    """(k, m) values of a one-form given as coefficient text, zeros elsewhere."""
    m = mesh.dim
    out = np.zeros((len(mesh), m))
    for (i,), text in raw.items():
        out[:, i - 1] = compile_expression(parse(text, m), m).evaluate_block(
            mesh.points
        )
    return out


def pointwise_one_form(raw, m: int):
    """point -> (m,) values of a one-form given as coefficient text."""
    fns = {i: compile_expression(parse(text, m), m) for (i,), text in raw.items()}
    return lambda p: np.array([fns[i](p) if i in fns else 0.0 for i in range(1, m + 1)])


def pointwise_matrix(P_raw, m: int):
    """point -> (m, m) antisymmetric matrix form of a bivector."""
    fns = {key: compile_expression(parse(text, m), m) for key, text in P_raw.items()}

    def matrix(p):
        out = np.zeros((m, m))
        for (i, j), fn in fns.items():
            out[i - 1, j - 1] = fn(p)
            out[j - 1, i - 1] = -out[i - 1, j - 1]
        return out

    return matrix


class TestBivector:
    def test_corner_records(self):
        res = ev.num_bivector(g.SO3, corners_mesh(3), dim=3)
        assert res.kind == "records"
        assert res.keys == ((1, 2), (1, 3), (2, 3))
        assert len(res.data) == 8
        for rec, expected in zip(res.data, g.SO3_CORNER_RECORDS):
            assert set(rec) == set(expected)
            for key, val in expected.items():
                assert rec[key] == pytest.approx(val, abs=1e-9)

    def test_corner_dense_matrices(self):
        res = ev.num_bivector(g.SO3, corners_mesh(3), DENSE, dim=3)
        assert res.kind == "matrix"
        assert res.data.shape == (8, 3, 3)
        assert np.array_equal(res.data, g.SO3_CORNER_MATRICES)

    def test_dense_corner_pinned_row(self):
        # Corner (0, 1, 1): coefficients (x3, -x2, x1) = (1, -1, 0).
        res = ev.num_bivector(g.SO3, as_mesh([(0.0, 1.0, 1.0)]), DENSE, dim=3)
        assert np.array_equal(
            res.data[0], np.array([[0, 1, -1], [-1, 0, 0], [1, 0, 0]], float)
        )

    def test_records_keep_structural_keys_at_zeros(self):
        res = ev.num_bivector(g.SO3, as_mesh([(0.0, 0.0, 0.0)]), dim=3)
        assert res.data[0] == {(1, 2): 0.0, (1, 3): 0.0, (2, 3): 0.0}

    def test_parameterized_coefficients(self):
        res = ev.num_bivector(
            {(1, 2): "c*x1"},
            as_mesh([(2.0, 0.0), (3.0, 0.0)]),
            EvalOptions(mode="dense", params={"c": 10.0}),
            dim=2,
        )
        assert res.data[:, 0, 1] == pytest.approx([20.0, 30.0])

    def test_unbound_parameter_raises(self):
        with pytest.raises(UnboundParameterError):
            ev.num_bivector({(1, 2): "c*x1"}, corners_mesh(2), dim=2)

    def test_mesh_dimension_mismatch(self):
        with pytest.raises(MeshDimensionError):
            ev.num_bivector(g.SO3, corners_mesh(4), dim=3)

    def test_bad_mode_rejected(self):
        with pytest.raises(MultivectorError, match="mode"):
            EvalOptions(mode="tensor")

    def test_zero_bivector(self):
        res = ev.num_bivector({}, corners_mesh(3), dim=3)
        assert res.keys == ()
        assert res.data == [{}] * 8
        dense = ev.num_bivector({}, corners_mesh(3), DENSE, dim=3)
        assert np.array_equal(dense.data, np.zeros((8, 3, 3)))


class TestMatrixForm:
    def test_sl2_corner_matrices(self):
        res = ev.num_bivector_to_matrix(g.SL2, corners_mesh(3), dim=3)
        assert res.kind == "matrix"
        assert np.array_equal(res.data, g.SL2_CORNER_MATRICES)

    def test_matrix_layout_in_both_modes(self):
        records_opts = EvalOptions(mode="records")
        r1 = ev.num_bivector_to_matrix(g.SO3, corners_mesh(3), records_opts, dim=3)
        r2 = ev.num_bivector_to_matrix(g.SO3, corners_mesh(3), DENSE, dim=3)
        assert r1.kind == "matrix" and r2.kind == "matrix"
        assert np.array_equal(r1.data, r2.data)

    def test_antisymmetry(self):
        mesh = random_mesh(64, 6, seed=SEED)
        res = ev.num_bivector_to_matrix(g.TWIST_R6, mesh, dim=6)
        assert np.array_equal(res.data, -np.transpose(res.data, (0, 2, 1)))


class TestHamiltonianVF:
    def test_oscillator_rows(self):
        mesh = hamiltonian_product_mesh()
        res = ev.num_hamiltonian_vf(
            g.CANONICAL_R6, g.OSCILLATOR_HAMILTONIAN_R6, mesh, DENSE, dim=6
        )
        assert res.data.shape == (64, 6)
        assert res.data[0] == pytest.approx(g.HAMILTONIAN_R6_FIRST_ROW, abs=1e-9)
        assert res.data[-1] == pytest.approx(g.HAMILTONIAN_R6_LAST_ROW, abs=1e-9)

    def test_records_cover_all_components(self):
        mesh = as_mesh([g.HAMILTONIAN_R6_FIRST_POINT])
        res = ev.num_hamiltonian_vf(
            g.CANONICAL_R6, g.OSCILLATOR_HAMILTONIAN_R6, mesh, dim=6
        )
        assert res.keys == tuple((i,) for i in range(1, 7))
        assert res.data[0] == {
            (i,): pytest.approx(v, abs=1e-9)
            for i, v in enumerate(g.HAMILTONIAN_R6_FIRST_ROW, start=1)
        }

    def test_casimir_gives_exact_zero_field(self):
        # x1**2 + x2**2 + x3**2 is a Casimir of SO3: the sparse assembly
        # cancels the paired products bitwise, not merely to rounding.
        mesh = random_mesh(256, 3, seed=SEED)
        res = ev.num_hamiltonian_vf(
            g.SO3, "x1**2 + x2**2 + x3**2", mesh, DENSE, dim=3
        )
        assert np.all(res.data == 0.0)

    def test_matches_gradient_rule(self):
        mesh = random_mesh(128, 3, seed=SEED + 1)
        h = "x1*x2**2 - 3*x3 + x1*x3"
        res = ev.num_hamiltonian_vf(g.SL2, h, mesh, DENSE, dim=3)
        h_expr = parse(h, 3)
        grads = np.column_stack(
            [
                compile_expression(differentiate(h_expr, i), 3).evaluate_block(
                    mesh.points
                )
                for i in (1, 2, 3)
            ]
        )
        M = ev.num_bivector_to_matrix(g.SL2, mesh, dim=3).data
        expected = -np.einsum("kij,kj->ki", M, grads)
        assert res.data == pytest.approx(expected, abs=1e-12)


class TestPoissonBracket:
    def test_twist_value(self):
        pts = [(0, 1, 0, 0, 0.5, -2), (1, -1, 2, 3, 4, 5), (2, 1, 0, 1, 1, 1)]
        res = ev.num_poisson_bracket(
            g.TWIST_R6, g.TWIST_BRACKET_F, g.TWIST_BRACKET_G, as_mesh(pts),
            DENSE, dim=6,
        )
        assert res.data == pytest.approx(
            [g.TWIST_BRACKET_VALUE_AT_X2_ONE] * 3, abs=1e-9
        )

    def test_scalar_records(self):
        res = ev.num_poisson_bracket(
            g.TWIST_R6, "x6", "x5", as_mesh([(0, 1, 0, 0, 0, 0)]), dim=6
        )
        assert res.data == [{"value": pytest.approx(-1.0, abs=1e-9)}]

    def test_antisymmetry(self):
        mesh = random_mesh(200, 3, seed=SEED + 2)
        f, gfun = "x1*x3 + x2**2", "x2 - x1*x2*x3"
        a = ev.num_poisson_bracket(g.SO3, f, gfun, mesh, DENSE, dim=3).data
        b = ev.num_poisson_bracket(g.SO3, gfun, f, mesh, DENSE, dim=3).data
        scale = max(1.0, np.max(np.abs(a)))
        assert np.max(np.abs(a + b)) <= 1e-9 * scale

    def test_identical_arguments_shortcut(self):
        # Structurally identical entries yield the zero column without any
        # evaluation: an unbound parameter inside must not be an error.
        mesh = random_mesh(16, 3, seed=SEED)
        res = ev.num_poisson_bracket(g.SO3, "c*x1", "c*x1", mesh, DENSE, dim=3)
        assert res.kind == "scalar"
        assert np.array_equal(res.data, np.zeros(16))
        rec = ev.num_poisson_bracket(g.SO3, "c*x1", "c*x1", mesh, dim=3)
        assert rec.data[0] == {"value": 0.0}
        # The zero field goes through the shared layout like any bracket.
        assert rec.keys == ("value",)
        assert res.nonfinite == rec.nonfinite == 0

    def test_signed_zero_arguments_are_not_identical(self):
        # x1/0.0 and x1/-0.0 differ (inf against -inf), so no shortcut: the
        # bracket at (1, 1) divides by zero and is NaN, not the zero field.
        res = ev.num_poisson_bracket(
            {(1, 2): "1"}, "x1/0.0*x2", "x1/-0.0*x2", [[1.0, 1.0]], DENSE, dim=2
        )
        assert np.isnan(res.data[0])

    def test_matches_coefficient_expansion(self):
        mesh = random_mesh(150, 4, seed=SEED + 3)
        P = g.PAIS_UHLENBECK_R4
        f, gfun = "x1*x4 - x2", "x3**2 + x1"
        res = ev.num_poisson_bracket(P, f, gfun, mesh, DENSE, dim=4).data
        f_e, g_e = parse(f, 4), parse(gfun, 4)
        df = [compile_expression(differentiate(f_e, i), 4).evaluate_block(mesh.points) for i in range(1, 5)]
        dg = [compile_expression(differentiate(g_e, i), 4).evaluate_block(mesh.points) for i in range(1, 5)]
        expected = np.zeros(len(mesh.points))
        for (i, j), coeff in P.items():
            c = compile_expression(parse(coeff, 4), 4).evaluate_block(mesh.points)
            expected += c * (df[i - 1] * dg[j - 1] - df[j - 1] * dg[i - 1])
        scale = max(1.0, np.max(np.abs(expected)))
        assert np.max(np.abs(res - expected)) <= 1e-9 * scale


class TestSharpMorphism:
    def test_twist_images(self):
        mesh = random_mesh(64, 6, seed=SEED + 4)
        r5 = ev.num_sharp_morphism(g.TWIST_R6, {(5,): "1"}, mesh, DENSE, dim=6)
        r6 = ev.num_sharp_morphism(g.TWIST_R6, {(6,): "1"}, mesh, DENSE, dim=6)
        x2sq = mesh.points[:, 1] ** 2
        expected5 = np.zeros((64, 6))
        expected5[:, 1] = -1.0
        expected5[:, 5] = x2sq
        expected6 = np.zeros((64, 6))
        expected6[:, 2] = -1.0
        expected6[:, 4] = -x2sq
        assert r5.data == pytest.approx(expected5, abs=1e-12)
        assert r6.data == pytest.approx(expected6, abs=1e-12)

    def test_radial_form_annihilated_exactly(self):
        mesh = random_mesh(256, 3, seed=SEED + 5)
        res = ev.num_sharp_morphism(g.SO3, g.RADIAL_ONE_FORM_R3, mesh, DENSE, dim=3)
        assert np.all(res.data == 0.0)

    def test_agrees_with_matrix_product(self):
        mesh = random_mesh(200, 3, seed=SEED + 6)
        alpha = {(1,): "x2*x3", (2,): "-x1", (3,): "x1 + x2**2"}
        res = ev.num_sharp_morphism(g.SL2, alpha, mesh, DENSE, dim=3)
        M = ev.num_bivector_to_matrix(g.SL2, mesh, dim=3).data
        expected = -np.einsum("kij,kj->ki", M, evaluated_one_form(alpha, mesh))
        scale = max(1.0, np.max(np.abs(expected)))
        assert np.max(np.abs(res.data - expected)) <= 1e-9 * scale

    def test_gradient_input_equals_hamiltonian_field(self):
        mesh = random_mesh(100, 3, seed=SEED + 7)
        h = "x1**2*x3 - x2*x3 + x1"
        h_expr = parse(h, 3)
        alpha = {
            (i,): differentiate(h_expr, i) for i in (1, 2, 3)
        }
        via_sharp = ev.num_sharp_morphism(g.SO3, alpha, mesh, DENSE, dim=3)
        via_ham = ev.num_hamiltonian_vf(g.SO3, h, mesh, DENSE, dim=3)
        assert np.array_equal(via_sharp.data, via_ham.data)


class TestCoboundary:
    def test_degree_zero_matches_hamiltonian_route(self):
        mesh = random_mesh(150, 3, seed=SEED + 8)
        h = "x1*x2 - x3**2 + 2*x2"
        cob = ev.num_coboundary_operator(g.SO3, h, mesh, DENSE, dim=3)
        ham = ev.num_hamiltonian_vf(g.SO3, h, mesh, DENSE, dim=3)
        assert cob.kind == "vector"
        scale = max(1.0, np.max(np.abs(ham.data)))
        assert np.max(np.abs(cob.data - ham.data)) <= 1e-9 * scale

    def test_self_bracket_vanishes_for_examples(self):
        for dim, field in g.POISSON_EXAMPLES:
            mesh = random_mesh(1000, dim, seed=SEED + dim)
            res = ev.num_coboundary_operator(field, field, mesh, dim=dim, degree=2)
            worst = max(
                (abs(v) for rec in res.data for v in rec.values()), default=0.0
            )
            assert worst <= 1e-9, f"self-bracket of {field} reached {worst}"

    def test_jacobi_violation_detected(self):
        field = {(1, 2): "x3", (1, 3): "x1"}
        mesh = as_mesh([(1.0, 1.0, 1.0)])
        res = ev.num_coboundary_operator(field, field, mesh, dim=3, degree=2)
        assert res.keys == ((1, 2, 3),)
        assert res.data[0][(1, 2, 3)] == pytest.approx(-2.0, abs=1e-12)

    def test_degree_one_argument_gives_matrix_dense(self):
        mesh = random_mesh(32, 3, seed=SEED + 9)
        W = {(1,): "x2", (2,): "x3*x1", (3,): "1"}
        res = ev.num_coboundary_operator(g.SO3, W, mesh, DENSE, dim=3, degree=1)
        assert res.kind == "matrix"
        assert np.array_equal(res.data, -np.transpose(res.data, (0, 2, 1)))

    def test_dense_rejected_above_degree_two(self):
        mesh = corners_mesh(4)
        A = {(1, 2): "x3*x4"}
        with pytest.raises(MultivectorError, match="degree"):
            ev.num_coboundary_operator(
                g.PAIS_UHLENBECK_R4, A, mesh, DENSE, dim=4, degree=2
            )

    def test_records_for_degree_three_result(self):
        mesh = corners_mesh(4)
        A = {(1, 2): "x3*x4"}
        res = ev.num_coboundary_operator(
            g.PAIS_UHLENBECK_R4, A, mesh, dim=4, degree=2
        )
        assert res.kind == "records"
        assert all(len(key) == 3 for key in res.keys)


class TestModularAndCurl:
    def test_quartic_modular_point(self):
        mesh = as_mesh([g.QUARTIC_SO3_MODULAR_POINT])
        res = ev.num_modular_vf(g.QUARTIC_SO3, "1", mesh, DENSE, dim=3)
        assert res.data[0] == pytest.approx(g.QUARTIC_SO3_MODULAR_VALUE, abs=1e-9)

    def test_quartic_modular_reference_sweep(self):
        mesh = random_mesh(100, 3, seed=SEED + 10)
        res = ev.num_modular_vf(g.QUARTIC_SO3, "1", mesh, DENSE, dim=3)
        expected = np.array(
            [g.quartic_so3_modular_reference(p) for p in mesh.points]
        )
        scale = max(1.0, np.max(np.abs(expected)))
        assert np.max(np.abs(res.data - expected)) <= 1e-9 * scale

    def test_unimodular_examples_give_empty_records(self):
        for field in (g.SO3, g.SL2, g.PAIS_UHLENBECK_R4):
            dim = 4 if field is g.PAIS_UHLENBECK_R4 else 3
            res = ev.num_modular_vf(field, "1", corners_mesh(dim), dim=dim)
            assert res.keys == ()
            assert res.data == [{}] * len(res.data)

    def test_modular_with_volume_scale(self):
        # Changing the volume by exp(g) shifts the modular field by
        # sharp(d g); with g = x3 and SO3 that is the field (-x2, x1, 0).
        mesh = random_mesh(80, 3, seed=SEED + 11)
        base = ev.num_modular_vf(g.SO3, "1", mesh, DENSE, dim=3)
        scaled = ev.num_modular_vf(g.SO3, "exp(x3)", mesh, DENSE, dim=3)
        shift = ev.num_sharp_morphism(
            g.SO3, {(3,): "1"}, mesh, DENSE, dim=3
        )
        scale = max(1.0, np.max(np.abs(shift.data)))
        assert (
            np.max(np.abs(scaled.data - base.data - shift.data)) <= 1e-9 * scale
        )

    def test_curl_of_vector_field_is_scalar_divergence(self):
        mesh = random_mesh(60, 3, seed=SEED + 12)
        W = {(1,): "x1*x2", (2,): "x3", (3,): "x2**2"}
        res = ev.num_curl_operator(W, "1", mesh, DENSE, dim=3, degree=1)
        assert res.kind == "scalar"
        expected = mesh.points[:, 1]  # d1(x1*x2) + d2(x3) + d3(x2**2) = x2
        assert res.data == pytest.approx(expected, abs=1e-12)
        rec = ev.num_curl_operator(W, "1", mesh, dim=3, degree=1)
        assert rec.keys == ("value",)
        assert rec.data[0]["value"] == pytest.approx(expected[0], abs=1e-12)

    def test_curl_degree_zero_rejected(self):
        with pytest.raises(MultivectorError, match="degree"):
            ev.num_curl_operator("x1", "1", corners_mesh(3), dim=3, degree=0)


# Every scalar input goes through geometry.as_expression: a number beyond
# float64, a bool or text that does not parse is an ExpressionError.
@pytest.mark.parametrize(
    "bad", [pytest.param(10**400, id="int_beyond_float64"), True, "x1 +", "x4"]
)
def test_bad_scalar_input_is_expression_error(bad):
    mesh = corners_mesh(3)
    calls = [
        lambda: ev.num_curl_operator(g.SO3, bad, mesh, dim=3),
        lambda: ev.num_modular_vf(g.SO3, bad, mesh, dim=3),
        lambda: ev.num_hamiltonian_vf(g.SO3, bad, mesh, dim=3),
        lambda: ev.num_poisson_bracket(g.SO3, "x1", bad, mesh, dim=3),
        lambda: ev.num_coboundary_operator(g.SO3, bad, mesh, dim=3),
        lambda: ev.num_flaschka_ratiu_bivector([bad], 3, mesh),
    ]
    for call in calls:
        with pytest.raises(ExpressionError) as err:
            call()
        assert not isinstance(err.value, MultivectorError)


class TestOneFormsBracket:
    def test_twist_golden(self):
        pts = [(0, 1, 0, 0, 0.5, -2), (3, -1, 2, 3, 4, 5)]
        res = ev.num_one_forms_bracket(
            g.TWIST_R6, g.TWIST_ONE_FORMS_ALPHA, g.TWIST_ONE_FORMS_BETA,
            as_mesh(pts), DENSE, dim=6,
        )
        assert res.data[0] == pytest.approx(g.TWIST_ONE_FORMS_AT_X2_ONE, abs=1e-9)
        assert res.data[1] == pytest.approx([0, -2, 0, 0, 0, 0], abs=1e-9)

    def test_records_cover_all_components(self):
        res = ev.num_one_forms_bracket(
            g.TWIST_R6, g.TWIST_ONE_FORMS_ALPHA, g.TWIST_ONE_FORMS_BETA,
            as_mesh([(0, 1, 0, 0, 0, 0)]), dim=6,
        )
        assert res.keys == tuple((i,) for i in range(1, 7))
        assert res.data[0][(2,)] == pytest.approx(2.0, abs=1e-9)

    def test_matches_numeric_three_term_formula(self):
        # Reference per point: (J_beta - J_beta^T) sharp(alpha) minus the
        # alpha/beta swap, plus grad <beta, sharp(alpha)>, with sharp = -M
        # and every derivative taken by central finite differences.
        mesh = random_mesh(120, 3, seed=SEED + 13)
        cases = [
            (g.SO3, {(1,): "x2", (2,): "x3**2", (3,): "x1*x2"},
             {(1,): "1", (3,): "x2 - x1"}),
            (g.SL2, {(1,): "x1*x3", (2,): "-x2"}, {(2,): "x1", (3,): "x3**2"}),
        ]
        for P_raw, a_raw, b_raw in cases:
            matrix = pointwise_matrix(P_raw, 3)
            alpha = pointwise_one_form(a_raw, 3)
            beta = pointwise_one_form(b_raw, 3)

            def antisym_jacobian(form, p):
                J = np.array(
                    [oracles.fd_gradient(lambda q: form(q)[i], p, 3) for i in range(3)]
                )
                return J - J.T

            def pairing(p):
                return beta(p) @ (-matrix(p) @ alpha(p))

            expected = np.array([
                antisym_jacobian(beta, p) @ (-matrix(p) @ alpha(p))
                - antisym_jacobian(alpha, p) @ (-matrix(p) @ beta(p))
                + oracles.fd_gradient(pairing, p, 3)
                for p in mesh.points
            ])
            res = ev.num_one_forms_bracket(P_raw, a_raw, b_raw, mesh, DENSE, dim=3)
            scale = max(1.0, np.max(np.abs(expected)))
            assert np.max(np.abs(res.data - expected)) <= 1e-6 * scale

    def test_antisymmetry(self):
        mesh = random_mesh(100, 3, seed=SEED + 14)
        a_raw = {(1,): "x2*x3", (2,): "x1"}
        b_raw = {(2,): "x3", (3,): "x1**2"}
        r1 = ev.num_one_forms_bracket(g.SO3, a_raw, b_raw, mesh, DENSE, dim=3)
        r2 = ev.num_one_forms_bracket(g.SO3, b_raw, a_raw, mesh, DENSE, dim=3)
        scale = max(1.0, np.max(np.abs(r1.data)))
        assert np.max(np.abs(r1.data + r2.data)) <= 1e-9 * scale

    def test_identical_forms_bracket_to_zero(self):
        mesh = random_mesh(100, 3, seed=SEED + 15)
        a_raw = {(1,): "x2*x3", (2,): "x1", (3,): "x3"}
        res = ev.num_one_forms_bracket(g.SO3, a_raw, a_raw, mesh, DENSE, dim=3)
        assert np.max(np.abs(res.data)) <= 1e-9

    def test_exact_forms_give_gradient_of_bracket(self):
        mesh = random_mesh(100, 3, seed=SEED + 16)
        f, gfun = "x1*x3", "x2**2 - x1"
        f_e, g_e = parse(f, 3), parse(gfun, 3)
        df = {(i,): differentiate(f_e, i) for i in (1, 2, 3)}
        dg = {(i,): differentiate(g_e, i) for i in (1, 2, 3)}
        res = ev.num_one_forms_bracket(g.SO3, df, dg, mesh, DENSE, dim=3)
        # [df, dg] = d{f, g}: finite-difference the scalar bracket.
        prep = ev.prepare_poisson_bracket(g.SO3, f, gfun, DENSE, dim=3)

        def bracket_at(p):
            return float(prep(as_mesh([p])).data[0])

        expected = np.array(
            [oracles.fd_gradient(bracket_at, p, 3) for p in mesh.points]
        )
        scale = max(1.0, np.max(np.abs(expected)))
        assert np.max(np.abs(res.data - expected)) <= 1e-6 * scale


class TestGaugeTransformation:
    def test_identity_scaling_golden(self):
        res = ev.num_gauge_transformation(
            g.SO3, g.DIFFERENCE_TWO_FORM_R3, corners_mesh(3), DENSE, dim=3
        )
        assert res.valid.all()
        assert res.data == pytest.approx(g.GAUGE_SO3_EXPECTED, abs=1e-9)

    def test_three_dim_scaling_law(self):
        mesh = random_mesh(100, 3, seed=SEED + 17)
        lam = {(1, 2): "x1 - x2", (1, 3): "0.25*x3", (2, 3): "2 + x2"}
        res = ev.num_gauge_transformation(g.SO3, lam, mesh, DENSE, dim=3)
        M = ev.num_bivector_to_matrix(g.SO3, mesh, dim=3).data
        lam_vals = ev.num_bivector_to_matrix(lam, mesh, dim=3).data
        pairing = np.zeros(len(mesh.points))
        for i, j in ((1, 2), (1, 3), (2, 3)):
            pairing += lam_vals[:, i - 1, j - 1] * M[:, i - 1, j - 1]
        F = 1.0 + pairing
        valid = np.abs(F) > 1e-6
        expected = M[valid] / F[valid, None, None]
        scale = max(1.0, np.max(np.abs(expected)))
        assert np.max(np.abs(res.data[valid] - expected)) <= 1e-9 * scale

    def test_singular_points_flagged(self):
        # With lam = dx1^dx2 and SO3, F = 1 + x3: singular exactly at x3 = -1.
        pts = [(0.0, 0.0, -1.0), (0.0, 0.0, 0.0), (1.0, 2.0, -1.0), (1.0, 1.0, 1.0)]
        res = ev.num_gauge_transformation(
            g.SO3, {(1, 2): "1"}, as_mesh(pts), DENSE, dim=3
        )
        assert res.valid.tolist() == [False, True, False, True]
        assert np.isnan(res.data[0]).all()
        assert np.isfinite(res.data[1]).all()
        assert res.nonfinite == 0  # invalid rows are not poles

    def test_records_carry_validity(self):
        pts = [(0.0, 0.0, -1.0), (0.0, 0.0, 1.0)]
        res = ev.num_gauge_transformation(
            g.SO3, {(1, 2): "1"}, as_mesh(pts), dim=3
        )
        assert res.data[0]["valid"] is False
        assert res.data[1]["valid"] is True
        assert np.isnan(res.data[0][(1, 2)])
        assert res.data[1][(1, 2)] == pytest.approx(0.5)

    def test_records_equal_dense_upper_triangle(self, monkeypatch):
        # Small chunks, so records are assembled across chunk boundaries.
        monkeypatch.setattr(ev, "_CHUNK_ROWS", 16)
        # Rows 0 and 2 are singular (x3 = -1 with lam = dx1^dx2).
        pts = [(0.0, 0.0, -1.0), (0.5, 0.0, 0.0), (0.0, 2.0, -1.0)]
        pts += random_mesh(40, 3, seed=SEED + 19).points.tolist()
        mesh = as_mesh(pts)
        lam = {(1, 2): "1", (2, 3): "0.5*x1"}
        dense = ev.num_gauge_transformation(g.SO3, lam, mesh, DENSE, dim=3)
        rec = ev.num_gauge_transformation(g.SO3, lam, mesh, dim=3)
        assert rec.keys == ((1, 2), (1, 3), (2, 3))
        assert not dense.valid[0] and not dense.valid[2]
        assert np.array_equal(rec.valid, dense.valid)
        assert rec.nonfinite == dense.nonfinite
        assert len(rec.data) == len(mesh)
        for row, record in enumerate(rec.data):
            assert list(record) == [*rec.keys, "valid"]
            assert type(record["valid"]) is bool
            assert record["valid"] == bool(dense.valid[row])
            for i, j in rec.keys:
                expected = dense.data[row, i - 1, j - 1]
                assert type(record[(i, j)]) is float
                assert np.float64(record[(i, j)]).tobytes() == expected.tobytes()

    def test_zero_gauge_is_identity(self):
        mesh = random_mesh(32, 6, seed=SEED + 18)
        res = ev.num_gauge_transformation(g.TWIST_R6, {}, mesh, DENSE, dim=6)
        M = ev.num_bivector_to_matrix(g.TWIST_R6, mesh, dim=6).data
        assert res.data == pytest.approx(M, abs=1e-12)

    @pytest.mark.parametrize("m, P, lam", PFAFFIAN_GAUGE_CASES)
    def test_pfaffian_gauge_matches_inverse(self, m, P, lam, monkeypatch):
        pts = np.random.default_rng(SEED + 24).uniform(-1.0, 1.0, size=(300, m))
        for i in range(min(m, 3)):
            pts[i, i] = 0.0  # singular for the all-pivot case
        mesh = as_mesh(pts)
        res = ev.num_gauge_transformation(P, lam, mesh, DENSE, dim=m)
        M = ev.num_bivector_to_matrix(P, mesh, dim=m).data
        L = ev.num_bivector_to_matrix(lam, mesh, dim=m).data
        G = np.eye(m) - L @ M
        det = np.abs(np.linalg.det(G))
        decided = (det < 0.5e-12) | (det > 2e-12)
        assert np.array_equal(res.valid[decided], det[decided] > 1e-12)
        ok = res.valid
        assert ok.sum() > 250
        assert np.isnan(res.data[~ok]).all()
        expected = M[ok] @ np.linalg.inv(G[ok])
        scale = np.maximum(1.0, np.abs(expected).max(axis=(1, 2)))
        error = np.abs(res.data[ok] - expected).max(axis=(1, 2))
        assert np.all(error <= 1e-14 * scale * np.linalg.cond(G[ok]))
        # Chunks cut through the mesh, and threads share them, bitwise.
        monkeypatch.setattr(ev, "_CHUNK_ROWS", 16)
        use_cores(monkeypatch, 1)
        serial = ev.num_gauge_transformation(P, lam, mesh, DENSE, dim=m)
        use_cores(monkeypatch, 2)
        threaded = ev.num_gauge_transformation(P, lam, mesh, DENSE, dim=m)
        assert (serial.threads, threaded.threads) == (1, 2)
        assert np.array_equal(serial.valid, ok)
        assert np.array_equal(threaded.valid, ok)
        assert serial.data.tobytes() == threaded.data.tobytes()

    @pytest.mark.parametrize("s", [2.0**-20, 2.0**20])
    def test_singular_tolerance_under_rescaling(self, s):
        # I - Lambda M is unchanged by P -> sP, Lambda -> Lambda/s, so the
        # mask is too and the output scales by s; a power of two keeps both
        # exact, since each Pfaffian product scales by a power of s.
        # With x1 = 0, det(I - Lambda M) = (1 + x3)^2: 0, 1, 0, 1e-10, 1e-14.
        pts = [(0.0, 0.0, -1.0), (0.0, 0.5, 0.0), (0.0, 2.0, -1.0)]
        pts += [(0.0, 0.5, -1.0 + 1e-5), (0.0, 0.5, -1.0 + 1e-7)]
        pts += random_mesh(200, 3, seed=SEED + 25).points.tolist()
        mesh = as_mesh(pts)
        lam = {(1, 2): "1", (2, 3): "0.5*x1"}
        base = ev.num_gauge_transformation(g.SO3, lam, mesh, DENSE, dim=3)
        scaled = ev.num_gauge_transformation(
            {key: f"({c})*{s!r}" for key, c in g.SO3.items()},
            {key: f"({c})*{1 / s!r}" for key, c in lam.items()},
            mesh, DENSE, dim=3,
        )
        assert base.valid.tolist()[:5] == [False, True, False, True, False]
        assert np.array_equal(scaled.valid, base.valid)
        assert scaled.data.tobytes() == (base.data * s).tobytes()

    @pytest.mark.parametrize("m, P, lam, near", GAUGE_EXACT_CASES)
    def test_matches_exact_rational_solve(self, m, P, lam, near):
        grid = np.random.default_rng(SEED + 27).integers(-16, 17, size=(150, m)) / 8.0
        mesh = as_mesh(np.vstack([grid, near]))
        res = ev.num_gauge_transformation(P, lam, mesh, DENSE, dim=m)
        M = ev.num_bivector_to_matrix(P, mesh, dim=m).data
        L = ev.num_bivector_to_matrix(lam, mesh, dim=m).data
        checked = 0
        for r in range(len(mesh)):
            X, det = oracles.exact_gauge(M[r], L[r])
            if not 0.5e-12 <= abs(det) <= 2e-12:
                assert res.valid[r] == (abs(det) > 1e-12), r
            if not res.valid[r]:
                assert np.isnan(res.data[r]).all(), r
                continue
            exact = np.array(X, dtype=float)
            cond = np.linalg.cond(np.eye(m) - L[r] @ M[r])
            scale = max(1.0, np.abs(exact).max())
            assert np.abs(res.data[r] - exact).max() <= 1e-10 * scale * cond, r
            checked += 1
        assert checked > 140
        if len(near):
            assert res.valid[-14:].tolist() == [True] * 11 + [False] * 3

    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
    def test_error_linear_in_cond(self, m):
        # Uniform float points, so M and Lambda are rounded.  The exact solve
        # takes the float M and Lambda, so forming G = I - Lambda M belongs to
        # the problem, and its rounding weighs |Lambda| |M| / |G|, which
        # cond(G) misses: for m = 2, G = F I has cond 1 however small F is.
        rng = np.random.default_rng(SEED + 50 + m)
        P = oracles.random_multivector_dict(rng, m, 2)
        lam = oracles.random_multivector_dict(rng, m, 2)
        mesh = random_mesh(300, m, seed=SEED + 50)
        res = ev.num_gauge_transformation(P, lam, mesh, DENSE, dim=m)
        M = ev.num_bivector_to_matrix(P, mesh, dim=m).data
        L = ev.num_bivector_to_matrix(lam, mesh, dim=m).data
        assert res.valid.sum() > 290
        eps = np.finfo(float).eps
        for r in np.flatnonzero(res.valid):
            X, _ = oracles.exact_gauge(M[r], L[r])
            exact = np.array(X, dtype=float)
            G = np.eye(m) - L[r] @ M[r]
            scale = max(1.0, np.abs(exact).max())
            norms = np.linalg.norm([L[r], M[r], G], 2, axis=(1, 2))
            growth = 1.0 + norms[0] * norms[1] / norms[2]
            bound = 4 * eps * scale * np.linalg.cond(G) * growth
            assert np.abs(res.data[r] - exact).max() <= bound, r

    def test_matches_exact_solve_at_a_benchmark_point_near_singular(self):
        # symbolic_many seed 1, op 27, row 426, where cond(G) is 9.1e7: a
        # cofactor form M adj(G) / det G read a relative error of 3.6e-2.
        workloads = benchmark_workloads()
        workload = workloads.build("symbolic_many", 1)
        op = workload.ops[27]
        case = workload.cases[op.case_id]
        assert case.method == "num_gauge_transformation"
        P, lam = case.inputs["P"], case.inputs["lam"]
        mesh = as_mesh(workloads.mesh_points(workload, op)[426:427])
        res = ev.num_gauge_transformation(P, lam, mesh, DENSE, dim=4)
        M = ev.num_bivector_to_matrix(P, mesh, dim=4).data[0]
        L = ev.num_bivector_to_matrix(lam, mesh, dim=4).data[0]
        X, _ = oracles.exact_gauge(M, L)
        exact = np.array(X, dtype=float)
        assert np.linalg.cond(np.eye(4) - L @ M) > 9e7
        assert res.valid[0]
        assert np.abs(res.data[0] - exact).max() <= 1e-9 * np.abs(exact).max()

    def test_poles_keep_their_places(self):
        # On this grid det G = (1 + (x1 + x3) x2)^2 is an integer, and the
        # pole of P at x1 = 0 reaches X through M[0, 1] alone: there X[0, 1]
        # is not finite, and every other entry is.
        mesh = gauge_pole_mesh()
        res = ev.num_gauge_transformation(GAUGE_POLE_P, GAUGE_POLE_LAM, mesh, DENSE, dim=4)
        x1, x2, x3 = mesh.points[:, :3].T
        assert np.array_equal(res.valid, 1 + (x1 + x3) * x2 != 0)
        rows, cols = np.triu_indices(4, 1)
        upper = res.data[res.valid][:, rows, cols]
        expected = np.zeros(upper.shape, dtype=bool)
        expected[x1[res.valid] == 0, 0] = True
        assert np.array_equal(~np.isfinite(upper), expected)
        assert res.nonfinite == expected.sum() == 56
        assert not np.isnan(upper).all(axis=1).any()

    def test_dense_block_exactly_antisymmetric(self):
        cases = [
            (4, GAUGE_POLE_P, GAUGE_POLE_LAM, gauge_pole_mesh()),
            (3, bench._P3, bench._LAMBDA3, pole_mesh(3)),
        ]
        for m, P, lam, mesh in cases:
            res = ev.num_gauge_transformation(P, lam, mesh, DENSE, dim=m)
            ok = res.valid
            assert ok.sum() > 20 and not ok.all()
            assert np.isnan(res.data[~ok]).all()
            X = res.data[ok]
            rows, cols = np.triu_indices(m, 1)
            assert X[:, rows, cols].tobytes() == (-X[:, cols, rows]).tobytes()
            assert X[:, range(m), range(m)].tobytes() == bytes(8 * m * len(X))

    @pytest.mark.parametrize("mode", ["records", "dense"])
    def test_bitwise_across_chunks_and_workers(self, mode, monkeypatch):
        mesh = gauge_pole_mesh()

        def run(cores):
            use_cores(monkeypatch, cores)
            options = EvalOptions(mode=mode)
            res = ev.num_gauge_transformation(GAUGE_POLE_P, GAUGE_POLE_LAM, mesh, options, dim=4)
            assert res.threads == cores
            block = res.columns if mode == "records" else res.data
            return block.tobytes(), res.valid.tobytes(), res.nonfinite

        reference = run(1)
        assert reference[2] > 0 and 0 < np.frombuffer(reference[1], bool).sum() < len(mesh)
        monkeypatch.setattr(ev, "_CHUNK_ROWS", 16)  # 16 chunks of the 256 points
        for cores in (1, 2, 4):
            assert run(cores) == reference

    def test_lambda_dimension_mismatch(self):
        with pytest.raises(MultivectorError):
            ev.num_gauge_transformation(
                g.SO3, Multivector.build(4, 2, {(1, 2): "1"}), corners_mesh(3),
                dim=3,
            )


class TestNormalFormR3:
    def test_records_with_residual_modulus(self):
        res = ev.num_linear_normal_form_r3(g.LINEAR_MIXED_R3, corners_mesh(3))
        assert res.keys == g.NORMAL_FORM_KEYS
        assert res.columns.dtype == object
        assert res.data == g.NORMAL_FORM_RECORDS
        assert all(type(v) in (float, str) for rec in res.data for v in rec.values())

    def test_records_with_bound_modulus(self):
        res = ev.num_linear_normal_form_r3(
            g.LINEAR_MIXED_R3, corners_mesh(3), EvalOptions(params={"a": 1.0})
        )
        assert res.data == g.NORMAL_FORM_RECORDS_AT_A1

    def test_dense_requires_bound_modulus(self):
        with pytest.raises(UnboundParameterError):
            ev.num_linear_normal_form_r3(g.LINEAR_MIXED_R3, corners_mesh(3), DENSE)

    def test_dense_with_bound_modulus(self):
        res = ev.num_linear_normal_form_r3(
            g.LINEAR_MIXED_R3,
            corners_mesh(3),
            EvalOptions(mode="dense", params={"a": 1.0}),
        )
        assert res.kind == "matrix"
        for row, rec in zip(res.data, g.NORMAL_FORM_RECORDS_AT_A1):
            for (i, j), val in rec.items():
                assert row[i - 1, j - 1] == pytest.approx(val, abs=1e-12)

    def test_modulus_free_class_needs_no_parameters(self):
        res = ev.num_linear_normal_form_r3(g.SO3, corners_mesh(3), DENSE)
        assert res.kind == "matrix"
        rec = ev.num_linear_normal_form_r3(g.SO3, corners_mesh(3))
        assert all(
            isinstance(v, float) for record in rec.data for v in record.values()
        )

    def test_records_equal_dense_entries_bitwise(self, monkeypatch):
        monkeypatch.setattr(ev, "_CHUNK_ROWS", 16)
        mesh = random_mesh(70, 3, seed=SEED + 20)
        for P, params in ((g.SO3, {}), (g.LINEAR_MIXED_R3, {"a": 1.0})):
            dense = ev.num_linear_normal_form_r3(
                P, mesh, EvalOptions(mode="dense", params=params)
            )
            rec = ev.num_linear_normal_form_r3(P, mesh, EvalOptions(params=params))
            assert rec.keys and rec.nonfinite == dense.nonfinite == 0
            assert len(rec.data) == len(mesh)
            for row, record in zip(dense.data, rec.data):
                assert tuple(record) == rec.keys
                for (i, j), value in record.items():
                    assert type(value) is float
                    expected = row[i - 1, j - 1]
                    assert np.float64(value).tobytes() == expected.tobytes()

    def test_zero_bivector_gives_empty_records(self):
        res = ev.num_linear_normal_form_r3({}, corners_mesh(3))
        assert res.keys == ()
        assert res.columns.shape == (0, 8) and len(res) == 8
        assert res.data == [{}] * 8

    def test_nonlinear_input_rejected(self):
        with pytest.raises(MultivectorError):
            ev.num_linear_normal_form_r3({(1, 2): "x3**2"}, corners_mesh(3))


def _pinned_casimirs(m: int, kind: str) -> list:
    rng = np.random.default_rng(SEED + 40 + m)
    polys = [
        f"{oracles.random_polynomial_text(rng, m, 5)} + x{k}*x{k + 1}**2"
        for k in range(1, m - 1)
    ]
    if kind == "poly":
        return polys
    return ["1/x1"] + [f"{p} + x{k + 1}/(x{k + 2} - 0.5)" for k, p in enumerate(polys[1:], 1)]


# sha256 of the dense blocks of ``_pinned_casimirs`` on the corners, the grid
# {-1, -1/2, 0, 1/2}^m and 300 random points, with every NaN made one NaN.
# The Pfaffian expansion must give the bits of a row-by-row expansion of the
# Jacobian minors, which recorded these.
FLASCHKA_RATIU_SHA256 = {
    (3, "poly"): "8a03aa2e60dfb95b0ace7e851fb3280fc41af9c55fde21794e425e3fee74f773",
    (3, "pole"): "c5c470d205c5f1e4474aefbd722107a8997279b60ed16db4455f8a0b453c80e6",
    (4, "poly"): "cbfb51714a5249e65e45c4bd022f8ee2308cb5aed12ed9856001347d82d0471c",
    (4, "pole"): "5ee1ec1868da5d8ab7d660990f90bea4d1ae716fe09b517416146781da6b6ae1",
    (5, "poly"): "295eef691d0b73c4aaf54aa7f323fc20326ca1cfccc8d4dfd400b7524516bdf3",
    (5, "pole"): "2201252d5937ac5a6786aee60b53544b9aeb5e9a48470b1f1127b963ee0ce885",
    (6, "poly"): "18e9c10207a72c87c7b3acadbf299a1fa8f65d183950b4074612a66f290b9fb2",
    (6, "pole"): "bfb381a3c960b447fea19c613103fa1c2817406e1eae2a530efab553632278c4",
}


class TestFlaschkaRatiu:
    @pytest.mark.parametrize("m, kind", sorted(FLASCHKA_RATIU_SHA256))
    def test_pinned_bits(self, m, kind):
        grid = np.array(list(itertools.product((-1.0, -0.5, 0.0, 0.5), repeat=m)))
        digest = hashlib.sha256()
        nonfinite = 0
        for mesh in (corners_mesh(m), as_mesh(grid), random_mesh(300, m, seed=SEED + 41)):
            res = ev.num_flaschka_ratiu_bivector(_pinned_casimirs(m, kind), m, mesh, DENSE)
            nonfinite += res.nonfinite
            digest.update(np.where(np.isnan(res.data), np.nan, res.data).tobytes())
        assert digest.hexdigest() == FLASCHKA_RATIU_SHA256[m, kind]
        assert (nonfinite > 0) == (kind == "pole")

    def test_corner_records(self):
        res = ev.num_flaschka_ratiu_bivector(g.CASIMIR_PAIR_R4, 4, corners_mesh(4))
        assert res.keys == g.FLASCHKA_RATIU_KEYS
        for rec, expected in zip(res.data, g.FLASCHKA_RATIU_RECORDS):
            for key, val in expected.items():
                assert rec[key] == pytest.approx(val, abs=1e-9)

    def test_casimirs_annihilated(self):
        from poissonmesh.symbolic import flaschka_ratiu_sym

        mesh = random_mesh(60, 4, seed=SEED + 19)
        field = flaschka_ratiu_sym([parse(c, 4) for c in g.CASIMIR_PAIR_R4], 4)
        for casimir in g.CASIMIR_PAIR_R4:
            ham = ev.num_hamiltonian_vf(field, casimir, mesh, DENSE)
            scale = max(1.0, float(np.max(np.abs(mesh.points))) ** 3)
            assert np.max(np.abs(ham.data)) <= 1e-9 * scale

    def test_degenerate_casimirs_give_zero(self):
        res = ev.num_flaschka_ratiu_bivector(["x1", "2*x1"], 4, corners_mesh(4))
        assert res.keys == ()
        assert res.data == [{}] * 16

    def test_wrong_count_rejected(self):
        with pytest.raises(MultivectorError, match="expected 2"):
            ev.num_flaschka_ratiu_bivector(["x1"], 4, corners_mesh(4))

    def test_low_dimension_rejected(self):
        with pytest.raises(MultivectorError, match=">= 3"):
            ev.num_flaschka_ratiu_bivector([], 2, corners_mesh(2))


class TestModesAndConcurrency:
    def test_records_and_dense_agree(self):
        mesh = random_mesh(64, 3, seed=SEED + 20)
        cases = [
            lambda opts: ev.num_bivector(g.SO3, mesh, opts, dim=3),
            lambda opts: ev.num_hamiltonian_vf(g.SO3, "x1*x2", mesh, opts, dim=3),
            lambda opts: ev.num_poisson_bracket(
                g.SO3, "x1", "x2", mesh, opts, dim=3
            ),
            lambda opts: ev.num_sharp_morphism(
                g.SO3, {(1,): "x2"}, mesh, opts, dim=3
            ),
            lambda opts: ev.num_modular_vf(g.QUARTIC_SO3, "1", mesh, opts, dim=3),
            lambda opts: ev.num_one_forms_bracket(
                g.SO3, {(1,): "x2"}, {(2,): "x3"}, mesh, opts, dim=3
            ),
        ]
        for case in cases:
            rec = case(EvalOptions(mode="records"))
            den = case(DENSE)
            assert len(rec.data) == len(mesh.points)
            for row, record in enumerate(rec.data):
                for key, val in record.items():
                    if key == "value":
                        assert val == den.data[row]
                    elif len(key) == 1:
                        assert val == den.data[row, key[0] - 1]
                    else:
                        assert val == den.data[row, key[0] - 1, key[1] - 1]

    def test_worker_count_does_not_change_results(self, monkeypatch):
        monkeypatch.setattr(ev, "_CHUNK_ROWS", 257)  # 8 chunks of the 2,000 points
        mesh = random_mesh(2000, 3, seed=SEED + 21)
        dense, records = [], []
        for cores in (1, 2, 4):
            use_cores(monkeypatch, cores)
            res = ev.num_hamiltonian_vf(g.SO3, "x1*x2 - x3**2", mesh, DENSE, dim=3)
            rec = ev.num_bivector(g.SO3, mesh, dim=3)
            assert (res.threads, rec.threads) == (cores, cores)
            dense.append(res.data.tobytes())
            records.append(rec.data)
        assert dense[1:] == dense[:-1]
        assert records[1:] == records[:-1]

    def test_default_thread_count(self, monkeypatch):
        # The usable cores, at most one thread per 8 chunks of 16,384 rows,
        # so calls under 16 chunks run serially.
        chunk = ev._CHUNK_ROWS
        rows = (0, 8, 15 * chunk, 15 * chunk + 1, 24 * chunk + 1, 10**6)
        table = {
            1: [1, 1, 1, 1, 1, 1],
            2: [1, 1, 1, 2, 2, 2],
            64: [1, 1, 1, 2, 3, 7],
        }
        for cores, threads in table.items():
            monkeypatch.setattr(ev, "_usable_cores", lambda cores=cores: cores)
            assert [ev._thread_count(k) for k in rows] == threads, cores

    def test_unbound_normal_form_on_one_thread(self, monkeypatch):
        # Residual-text records are partial evaluations in Python, which
        # threads could only take turns at: one thread, whatever the cores.
        monkeypatch.setattr(ev, "_CHUNK_ROWS", 3)
        for cores in (1, 3):
            use_cores(monkeypatch, cores)
            result = ev.num_linear_normal_form_r3(g.LINEAR_MIXED_R3, corners_mesh(3))
            assert result.threads == 1
            assert result.data == g.NORMAL_FORM_RECORDS

    def test_more_workers_than_chunks(self, monkeypatch):
        # 64 cores, 3 chunks: a thread per chunk, never more.
        monkeypatch.setattr(ev, "_CHUNK_ROWS", 100)
        mesh = random_mesh(250, 3, seed=SEED + 22)
        serial = ev.num_hamiltonian_vf(g.SO3, "x1*x3", mesh, DENSE, dim=3)
        use_cores(monkeypatch, 64)
        wide = ev.num_hamiltonian_vf(g.SO3, "x1*x3", mesh, DENSE, dim=3)
        assert (serial.threads, wide.threads) == (1, 3)
        assert wide.data.tobytes() == serial.data.tobytes()

    def test_multi_chunk_paths_used(self, monkeypatch):
        monkeypatch.setattr(ev, "_CHUNK_ROWS", 100)
        mesh = random_mesh(350, 3, seed=SEED + 22)
        serial = ev.num_gauge_transformation(
            g.SO3, {(1, 2): "1"}, mesh, DENSE, dim=3
        )
        use_cores(monkeypatch, 3)
        res = ev.num_gauge_transformation(g.SO3, {(1, 2): "1"}, mesh, DENSE, dim=3)
        assert (serial.threads, res.threads) == (1, 3)
        assert res.data.shape == (350, 3, 3)
        assert res.valid.shape == (350,)
        assert np.array_equal(res.valid, serial.valid)
        both = np.stack([res.data, serial.data])
        assert np.array_equal(
            np.nan_to_num(both[0], nan=-1.0), np.nan_to_num(both[1], nan=-1.0)
        )


class TestNonFinitePropagation:
    def test_pole_counted_in_dense(self):
        mesh = as_mesh([(0.0, 1.0), (1.0, 1.0)])
        res = ev.num_bivector({(1, 2): "1/x1"}, mesh, DENSE, dim=2)
        # One coefficient evaluation hit the pole; the count is per
        # coefficient, so records and dense modes agree on it.
        assert res.nonfinite == 1
        assert np.isinf(res.data[0, 0, 1])
        assert np.isinf(res.data[0, 1, 0])
        assert res.data[1, 0, 1] == pytest.approx(1.0)

    def test_pole_counted_in_records(self):
        mesh = as_mesh([(0.0, 1.0), (1.0, 1.0)])
        res = ev.num_bivector({(1, 2): "1/x1"}, mesh, dim=2)
        assert res.nonfinite == 1
        assert np.isinf(res.data[0][(1, 2)])

    def test_bracket_propagates_nan(self):
        mesh = as_mesh([(0.0, 0.0, 1.0)])
        res = ev.num_poisson_bracket(
            {(1, 2): "1/x1"}, "x1", "x2", mesh, DENSE, dim=3
        )
        assert res.nonfinite == 1
        assert not np.isfinite(res.data[0])

    @pytest.mark.parametrize("mode", ["records", "dense"])
    def test_gauge_counts_each_coefficient_once(self, mode):
        # With Lambda = 0 the transform is M, so the pole at x1 = 0 makes
        # entry (1, 2) of the valid first row infinite and nothing else; its
        # negation in the lower triangle is not counted.
        P = {(1, 2): "1/x1", (1, 3): "x2", (2, 3): "x3"}
        mesh = as_mesh([(0.0, 1.0, 1.0), (0.5, 0.25, 2.0)])
        res = ev.num_gauge_transformation(P, {}, mesh, EvalOptions(mode=mode), dim=3)
        assert res.valid.all()
        upper = res.columns.T if mode == "records" else res.data[:, [0, 0, 1], [1, 2, 2]]
        assert upper[0].tolist() == [np.inf, 1.0, 1.0]
        assert res.nonfinite == np.count_nonzero(~np.isfinite(upper)) == 1


# --- One program per result ---------------------------------------------------


def suite_reference_fields() -> dict:
    """method -> (symbolic result, output keys or None for its nonzero keys),
    built from the benchmark_suite() inputs as prepare_* builds them."""
    b = bench
    P = validate_multivector(b._P3, 3, 2)
    h, g_ = parse(b._H3, 3), parse(b._G3, 3)
    bracket = Num(0.0)
    for (i,), x_i in schouten_coboundary(P, h).items():
        bracket = fold_add(bracket, fold_mul(differentiate(g_, i), x_i))
    components = ((1,), (2,), (3,))
    Q = validate_multivector(b._Q3, 3, 2)
    return {
        "num_bivector": (P, None),
        "num_bivector_to_matrix": (validate_multivector(b._E3, 3, 2), None),
        "num_hamiltonian_vf": (schouten_coboundary(P, h), components),
        "num_poisson_bracket": (Multivector.build(3, 0, bracket), ((),)),
        "num_sharp_morphism": (sharp_sym(P, b._ALPHA3), components),
        "num_coboundary_operator": (
            schouten_coboundary(P, b._HEAVY_ONE_FORM, degree=1), None
        ),
        "num_modular_vf": (modular_vf_sym(Q, "exp(x3)"), None),
        "num_curl_operator": (curl_sym(Q, "1"), None),
        "num_one_forms_bracket": (
            one_forms_bracket_sym(P, b._ALPHA3, b._BETA3), components
        ),
        "num_linear_normal_form_r3": (
            linear_normal_form_r3(b._P3_NEG).representative, None
        ),
        "num_flaschka_ratiu_bivector": (flaschka_ratiu_sym(b._CASIMIRS4, 4), None),
    }


def per_coefficient_reference(field, keys, mesh):
    """Each coefficient compiled and evaluated on its own: the (keys, k)
    columns, the dense block laid out with NumPy, and the non-finite count."""
    coeffs = dict(field.items())
    keys = tuple(sorted(coeffs)) if keys is None else keys
    columns = np.zeros((len(keys), len(mesh)))
    for row, key in enumerate(keys):
        if key in coeffs:
            fn = compile_expression(coeffs[key], field.dim)
            columns[row] = fn.evaluate_block(mesh.points)
    dense = np.zeros((len(mesh),) + (field.dim,) * field.degree)
    for key, column in zip(keys, columns):
        dense[(slice(None), *(i - 1 for i in key))] = column
        if len(key) == 2:
            dense[:, key[1] - 1, key[0] - 1] = -column
    return keys, columns, dense, int(np.count_nonzero(~np.isfinite(columns)))


def pole_mesh(dim: int):
    """Random points plus the heavy one-form's poles and cone, and points
    where the suite's gauge is singular (det G = 1 -+ 2 x3 (x1 - x2) = 0)."""
    pts = np.random.default_rng(SEED + 30).uniform(-1.5, 1.5, size=(150, dim))
    pts[:3] = 0.0
    pts[3:6, :2] = 0.0
    pts[6:9, 2] = np.hypot(pts[6:9, 0], pts[6:9, 1])
    pts[9:11, :3] = [(0.5, 0.0, 1.0), (0.0, 0.5, 1.0)]
    return as_mesh(pts)


class TestOneProgramPerResult:
    def test_one_compile_per_prepare(self, monkeypatch):
        calls = []
        compile_expressions = ev.compile_expressions

        def counting(exprs, dim, params=None):
            calls.append(len(exprs))
            return compile_expressions(exprs, dim, params)

        monkeypatch.setattr(ev, "compile_expressions", counting)
        for case in bench.benchmark_suite().values():
            for options in (EvalOptions(), DENSE):
                calls.clear()
                evaluator = case.factory(options)
                assert len(calls) == 1, case.method
                evaluator(random_mesh(20, case.dim, seed=SEED))
                assert len(calls) == 1, case.method
                if case.method == "num_gauge_transformation":
                    assert calls == [4]  # the three upper entries, then det G

    @pytest.mark.parametrize("cores", [None, 2])  # None: the machine's own
    @pytest.mark.parametrize("mode", ["records", "dense"])
    def test_suite_matches_per_coefficient_reference(self, mode, cores, monkeypatch):
        monkeypatch.setattr(ev, "_CHUNK_ROWS", 16)
        if cores is not None:
            use_cores(monkeypatch, cores)
        options = EvalOptions(mode=mode)
        references = suite_reference_fields()
        poles = 0
        for method, case in bench.benchmark_suite().items():
            mesh = pole_mesh(case.dim)
            res = case.factory(options)(mesh)
            assert cores is None or res.threads == cores, method
            if method == "num_gauge_transformation":
                self.check_gauge(res, mesh, mode)
                continue
            keys, columns, dense, nonfinite = per_coefficient_reference(
                *references[method], mesh
            )
            assert res.nonfinite == nonfinite, method
            poles += nonfinite
            if res.kind == "records":
                assert res.keys == tuple("value" if k == () else k for k in keys)
                assert all(tuple(rec) == res.keys for rec in res.data), method
                values = np.array([list(rec.values()) for rec in res.data])
                assert values.T.tobytes() == columns.tobytes(), method
            else:
                assert res.data.shape == dense.shape, method
                assert res.data.tobytes() == dense.tobytes(), method
        assert poles > 0

    @staticmethod
    def check_gauge(res, mesh, mode):
        P = per_coefficient_reference(validate_multivector(bench._P3, 3, 2), None, mesh)[2]
        L = per_coefficient_reference(
            validate_multivector(bench._LAMBDA3, 3, 2), None, mesh
        )[2]
        G = np.eye(3) - L @ P
        det = np.abs(np.linalg.det(G))
        decided = (det < 0.5e-12) | (det > 2e-12)
        assert np.array_equal(res.valid[decided], det[decided] > 1e-12)
        ok = res.valid
        if mode == "records":
            data = np.zeros((len(mesh), 3, 3))
            for row, rec in enumerate(res.data):
                assert tuple(rec) == (*res.keys, "valid") and rec["valid"] == ok[row]
                for i, j in res.keys:
                    data[row, i - 1, j - 1] = rec[(i, j)]
                    data[row, j - 1, i - 1] = -rec[(i, j)]
        else:
            data = res.data
        assert ok.sum() > 100 and not ok.all()
        assert np.isnan(data[~ok][:, [0, 0, 1], [1, 2, 2]]).all()
        expected = P[ok] @ np.linalg.inv(G[ok])
        scale = np.maximum(1.0, np.abs(expected).max(axis=(1, 2)))
        error = np.abs(data[ok] - expected).max(axis=(1, 2))
        assert np.all(error <= 1e-14 * scale * np.linalg.cond(G[ok]))


def records_from_dense(keys, dense) -> list:
    """The records of a result with these keys, read entry by entry from the
    same method's dense result: Python floats, then a Python bool flag."""
    records = []
    for row, values in enumerate(dense.data):
        record = {
            key: float(values[() if key == "value" else tuple(i - 1 for i in key)])
            for key in keys
        }
        if dense.valid is not None:
            record["valid"] = bool(dense.valid[row])
        records.append(record)
    return records


class TestColumnarRecords:
    def test_data_equals_dense_entries_for_every_method(self, monkeypatch):
        monkeypatch.setattr(ev, "_CHUNK_ROWS", 16)
        for method, case in bench.benchmark_suite().items():
            mesh = pole_mesh(case.dim)
            res = case.factory(EvalOptions())(mesh)
            dense = case.factory(DENSE)(mesh)
            if res.kind != "records":  # the always-dense matrix form
                assert res.data.tobytes() == dense.data.tobytes(), method
                continue
            assert len(res) == len(mesh), method
            # repr tells -0.0 from 0.0 and a NumPy scalar from a Python one.
            assert repr(res.data) == repr(records_from_dense(res.keys, dense)), method
            assert res.data is res.data  # built once

    def test_dense_data_is_the_block(self):
        res = ev.num_bivector(g.SO3, corners_mesh(3), DENSE, dim=3)
        assert res.columns is None and isinstance(res.data, np.ndarray)
        assert len(res) == 8
        scaled = replace(res, data=res.data * 2.0)
        assert np.array_equal(scaled.data, 2.0 * res.data) and scaled.kind == "matrix"


# A coordinate row, a reloaded (TEE/LOAD) subtree and the parameter-only
# product a*b, a scalar, each beside temporaries; some outputs are such values.
SHARED_VALUES_FIELD = {
    (1, 2): "x1 - x2*x3",
    (1, 3): "(x1*x2 + x1)*x3",
    (1, 4): "exp(x1*x2)*(x3 + 1) + exp(x1*x2)",
    (1, 5): "a*b + x1*x4",
    (2, 3): "a*b*x2 - sin(x3)",
    (2, 4): "-(a*b) + exp(x1*x2)/x5",
    (2, 5): "x2",
    (3, 4): "exp(x1*x2)",
    (3, 5): "a*b",
    (4, 5): "sqrt(x4*x5)*x4 - (x4 - x5*x5)",
}
SHARED_VALUES_PARAMS = {"a": 1.5, "b": -2.0}


def read_only_points(k: int, dim: int) -> np.ndarray:
    points = np.random.default_rng(SEED + 40).uniform(-1.0, 1.0, size=(k, dim))
    points[:4] = 0.0  # a pole of the division
    points.setflags(write=False)
    return points


class TestReadOnlyPoints:
    def test_program_leaves_points_and_outputs_alone(self):
        exprs = [parse(source, 5) for source in SHARED_VALUES_FIELD.values()]
        fn = compile_expressions(exprs, 5, SHARED_VALUES_PARAMS)
        for order in "CF":
            points = np.array(read_only_points(300, 5), order=order)
            points.setflags(write=False)
            before = points.copy()
            # The sink keeps the values themselves: no later op may write them.
            got = {}
            fn.run(points, got.__setitem__)
            assert sorted(got) == list(range(len(exprs)))
            for j, e in enumerate(exprs):
                alone = compile_expression(e, 5, SHARED_VALUES_PARAMS)
                want = alone.evaluate_block(before.copy())
                assert np.broadcast_to(got[j], (300,)).tobytes() == want.tobytes(), j
            assert np.shape(got[8]) == ()  # a*b stays a scalar
            assert points.tobytes() == before.tobytes()

    @pytest.mark.parametrize("chunk_rows", [16, 16384])
    @pytest.mark.parametrize("cores", [None, 2])  # None: the machine's own
    def test_outputs_equal_per_coefficient_programs(self, chunk_rows, cores, monkeypatch):
        monkeypatch.setattr(ev, "_CHUNK_ROWS", chunk_rows)
        if cores is not None:
            use_cores(monkeypatch, cores)
        points = read_only_points(20_000, 5)
        before = points.copy()
        mesh = as_mesh(points)
        assert mesh.points is points  # so a write into the mesh would raise
        reference = {}
        for key, source in SHARED_VALUES_FIELD.items():
            fn = compile_expression(parse(source, 5), 5, SHARED_VALUES_PARAMS)
            reference[key] = fn.evaluate_block(before.copy())
        for mode in ("records", "dense"):
            options = EvalOptions(mode=mode, params=SHARED_VALUES_PARAMS)
            res = ev.prepare_bivector(SHARED_VALUES_FIELD, options, dim=5)(mesh)
            assert cores is None or res.threads == cores
            for row, key in enumerate(sorted(SHARED_VALUES_FIELD)):
                if mode == "records":
                    value = res.columns[row]
                else:
                    value = res.data[:, key[0] - 1, key[1] - 1]
                    transposed = res.data[:, key[1] - 1, key[0] - 1]
                    assert transposed.tobytes() == (-reference[key]).tobytes(), key
                assert value.tobytes() == reference[key].tobytes(), (mode, key)
        assert points.tobytes() == before.tobytes()


# --- Interned set-up ----------------------------------------------------------


def _ops(fn) -> tuple:
    """A program as data: each op with its ufunc, slot or output number, and
    its constant by float64 bits."""
    return fn.dim, fn.n_slots, [
        (op, struct.pack("<d", arg) if isinstance(arg, float) else arg)
        for op, arg in fn.program
    ]


def _set_up_programs(case, options, interned: bool) -> list:
    """The programs a case's set-up compiles, with its trees built inside the
    set-up's intern scope or, through the undecorated ``prepare_*``, outside."""
    made = []

    def recording(exprs, dim, params=None):
        fn = compile_expressions(exprs, dim, params)
        made.append(_ops(fn))
        return fn

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ev, "compile_expressions", recording)
        if interned:
            case.factory(options)
        else:
            factory = case.factory
            factory.func.__wrapped__(*factory.args, options, **factory.keywords)
    return made


def _random_case(method: str, m: int, rng) -> bench.BenchCase:
    """The case of ``method`` on random polynomial fields from ``oracles``."""
    field = oracles.random_multivector_dict
    scalar = oracles.random_polynomial_text
    inputs = {
        "num_bivector": lambda: (field(rng, m, 2),),
        "num_bivector_to_matrix": lambda: (field(rng, m, 2),),
        "num_hamiltonian_vf": lambda: (field(rng, m, 2), scalar(rng, m)),
        "num_poisson_bracket": lambda: (field(rng, m, 2), scalar(rng, m), scalar(rng, m)),
        "num_sharp_morphism": lambda: (field(rng, m, 2), field(rng, m, 1)),
        "num_coboundary_operator": lambda: (field(rng, m, 2), field(rng, m, 1)),
        "num_modular_vf": lambda: (field(rng, m, 2), scalar(rng, m)),
        "num_curl_operator": lambda: (field(rng, m, 2), scalar(rng, m)),
        "num_one_forms_bracket": lambda: (field(rng, m, 2), field(rng, m, 1), field(rng, m, 1)),
        "num_gauge_transformation": lambda: (field(rng, m, 2), field(rng, m, 2)),
        "num_flaschka_ratiu_bivector": lambda: ([scalar(rng, m) for _ in range(m - 2)],),
    }[method]()
    return bench.method_case(method, inputs, m)


def _long_sum(terms: int) -> str:
    return " + ".join(f"x1*x2**{i}" for i in range(terms))


class TestInternedSetUp:
    @pytest.mark.parametrize("options", [EvalOptions(), DENSE], ids=["records", "dense"])
    def test_suite_programs_equal_those_of_trees_built_outside_a_scope(self, options):
        for method, case in bench.benchmark_suite().items():
            inside = _set_up_programs(case, options, interned=True)
            assert inside == _set_up_programs(case, options, interned=False), method
            assert len(inside) == 1, method

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), m=st.integers(3, 4))
    def test_random_field_programs_equal_those_built_outside_a_scope(self, seed, m):
        rng = np.random.default_rng(seed)
        for method in bench._SUITE:
            if method == "num_linear_normal_form_r3":
                continue
            case = _random_case(method, m, rng)
            inside = _set_up_programs(case, EvalOptions(), interned=True)
            assert inside == _set_up_programs(case, EvalOptions(), interned=False), method
            assert len(inside) == 1, method

    def test_table_is_empty_whenever_no_set_up_runs(self, monkeypatch):
        sizes = []
        compile_in_scope = ev.compile_expressions

        def recording(exprs, dim, params=None):
            sizes.append(len(ex._interned))
            return compile_in_scope(exprs, dim, params)

        monkeypatch.setattr(ev, "compile_expressions", recording)
        for case in bench.benchmark_suite().values():
            case.factory(EvalOptions(mode="dense"))
            assert (ex._scopes, ex._interned, ex._derivatives) == (0, {}, {}), case.method
        assert len(sizes) == 12 and min(sizes) > 0
        failing = [
            lambda: ev.prepare_hamiltonian_vf(g.SO3, "c*x1", dim=3),  # unbound parameter
            lambda: ev.prepare_hamiltonian_vf(g.SO3, "x1 +", dim=3),  # parse error
            lambda: ev.prepare_hamiltonian_vf(g.SO3, _long_sum(1000), dim=3),  # too deep
        ]
        for prepare in failing:
            with pytest.raises(ExpressionError):
                prepare()
            assert (ex._scopes, ex._interned, ex._derivatives) == (0, {}, {})

    def test_concurrent_set_ups_share_one_scope_count(self):
        # Set-ups on several threads open and close their scopes in any
        # order; a lost update of the count would leave the table full or
        # empty it under a running set-up.
        cases = list(bench.benchmark_suite().values())
        meshes = [random_mesh(50, case.dim, seed=SEED) for case in cases]

        def outputs():
            return [
                case.factory(DENSE)(mesh).data.tobytes() for case, mesh in zip(cases, meshes)
            ]

        serial, results, switch = outputs(), {}, sys.getswitchinterval()

        def work(thread):
            results[thread] = [outputs() for _ in range(3)]

        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(t,)) for t in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(switch)
        assert not any(t.is_alive() for t in threads)
        assert (ex._scopes, ex._interned, ex._derivatives) == (0, {}, {})
        assert results == {t: [serial] * 3 for t in range(4)}

    def test_too_deep_for_the_walkers_is_an_expression_error(self):
        with pytest.raises(ExpressionDepthError, match="nested too deeply") as err:
            ev.prepare_hamiltonian_vf(g.SO3, _long_sum(1000), dim=3)
        assert not isinstance(err.value, RecursionError)

    def test_bracket_of_a_long_sum_with_itself_is_zero(self):
        h = _long_sum(1000)
        zero = [(3, 0, [(ex._OP_CONST, struct.pack("<d", 0.0)), (ex._OP_OUT, 0)])]
        # The same text, and equal trees parsed outside the set-up.
        for f, g_ in ((h, h), (parse(h, 3), parse(h, 3))):
            case = bench.method_case("num_poisson_bracket", (g.SO3, f, g_), 3)
            assert _set_up_programs(case, DENSE, interned=True) == zero
            res = case.factory(DENSE)(corners_mesh(3))
            assert res.data.tobytes() == np.zeros(8).tobytes()
