"""Tests for the symbolic operator layer.

The deep checks compare two independent routes: the library's symbolic
assembly versus the finite-difference oracles in ``oracles.py`` (decomposable
Schouten expansion, exterior-calculus contraction identity), plus frozen
golden values.
"""

import numpy as np
import pytest

from goldens import (
    CANONICAL_R6,
    CASIMIR_PAIR_R4,
    CORNERS_3,
    FLASCHKA_RATIU_KEYS,
    FLASCHKA_RATIU_RECORDS,
    LINEAR_MIXED_R3,
    NORMAL_FORM_KEYS,
    PAIS_UHLENBECK_R4,
    PAIS_UHLENBECK_R4_NON_JACOBI,
    POISSON_EXAMPLES,
    QUARTIC_SO3,
    QUARTIC_SO3_MODULAR_POINT,
    QUARTIC_SO3_MODULAR_VALUE,
    RADIAL_ONE_FORM_R3,
    SL2,
    SL2_CORNER_MATRICES,
    SO3,
    SO3_CORNER_MATRICES,
    TWIST_ONE_FORMS_ALPHA,
    TWIST_ONE_FORMS_AT_X2_ONE,
    TWIST_ONE_FORMS_BETA,
    TWIST_R6,
    quartic_so3_modular_reference,
)
from oracles import (
    curl_defect,
    lie_bracket_fd,
    random_multivector_dict,
    random_polynomial_text,
    schouten_oracle,
)
from poissonmesh.expressions import (
    ExpressionError,
    Num,
    compile_expression,
    differentiate,
    parse,
    partial_eval,
    to_source,
)
from poissonmesh.geometry import Multivector, MultivectorError, corners_mesh
from poissonmesh.symbolic import (
    NormalFormClass,
    bivector_to_matrix_sym,
    curl_sym,
    flaschka_ratiu_sym,
    linear_normal_form_r3,
    modular_vf_sym,
    one_forms_bracket_sym,
    schouten_coboundary,
    sharp_sym,
)

SEED = 20250825


def compiled_field(mv: Multivector, params=None):
    return {
        key: compile_expression(coeff, mv.dim, params or {})
        for key, coeff in mv.items()
    }


def compiled_dict(raw: dict, m: int):
    return {key: compile_expression(parse(str(src), m), m) for key, src in raw.items()}


def field_values(mv: Multivector, point, params=None):
    return {key: fn(point) for key, fn in compiled_field(mv, params).items()}


def max_defect(a: dict, b: dict) -> float:
    keys = set(a) | set(b)
    return max((abs(a.get(k, 0.0) - b.get(k, 0.0)) for k in keys), default=0.0)


def gradient_form(source: str, m: int) -> dict:
    e = parse(source, m)
    return {(i,): differentiate(e, i) for i in range(1, m + 1)}


def matrix_at(matrix, point) -> np.ndarray:
    m = matrix.dim
    out = np.zeros((m, m))
    for i in range(1, m + 1):
        for j in range(1, m + 1):
            fn = compile_expression(matrix.entry(i, j), m)
            out[i - 1, j - 1] = fn(point)
    return out


# --- Matrix form ------------------------------------------------------------


class TestMatrixForm:
    def test_entries_render(self):
        M = bivector_to_matrix_sym(SO3, dim=3)
        assert to_source(M.entry(1, 2)) == "x3"
        assert to_source(M.entry(2, 1)) == "-x3"
        assert to_source(M.entry(2, 2)) == "0.0"
        assert to_source(M.entry(1, 3)) == "-x2"
        assert to_source(M.entry(3, 1)) == "x2"

    @pytest.mark.parametrize(
        "field,expected",
        [(SO3, SO3_CORNER_MATRICES), (SL2, SL2_CORNER_MATRICES)],
        ids=["so3", "sl2"],
    )
    def test_corner_goldens(self, field, expected):
        M = bivector_to_matrix_sym(field, dim=3)
        got = np.array([matrix_at(M, p) for p in CORNERS_3])
        assert np.array_equal(got, expected)

    def test_antisymmetry_of_entries(self):
        M = bivector_to_matrix_sym(PAIS_UHLENBECK_R4, dim=4)
        rng = np.random.default_rng(SEED)
        for point in rng.uniform(-2, 2, size=(5, 4)):
            numeric = matrix_at(M, point)
            assert np.allclose(numeric + numeric.T, 0.0, atol=1e-12)

    def test_requires_degree_two(self):
        with pytest.raises(MultivectorError):
            bivector_to_matrix_sym(RADIAL_ONE_FORM_R3, dim=3)

    def test_raw_dict_needs_dim(self):
        with pytest.raises(MultivectorError):
            bivector_to_matrix_sym(SO3)


# --- Sharp morphism ---------------------------------------------------------


class TestSharp:
    def test_matches_matrix_vector_product(self):
        rng = np.random.default_rng(SEED)
        for m in (3, 4):
            for _ in range(4):
                P_raw = random_multivector_dict(rng, m, 2)
                a_raw = random_multivector_dict(rng, m, 1)
                result = sharp_sym(P_raw, a_raw, dim=m)
                M = bivector_to_matrix_sym(P_raw, dim=m)
                alpha = {
                    key: compile_expression(parse(src, m), m)
                    for key, src in a_raw.items()
                }
                for point in rng.uniform(-1.5, 1.5, size=(10, m)):
                    vec = np.array(
                        [alpha.get((k,), lambda p: 0.0)(point) for k in range(1, m + 1)]
                    )
                    expected = -matrix_at(M, point) @ vec
                    got = field_values(result, point)
                    full = np.array([got.get((k,), 0.0) for k in range(1, m + 1)])
                    assert np.allclose(full, expected, atol=1e-12)

    def test_radial_form_annihilated_exactly(self):
        # The rotational field pairs each coordinate with an equal and
        # opposite product, so the sum is 0.0 in exact float arithmetic.
        result = sharp_sym(SO3, RADIAL_ONE_FORM_R3, dim=3)
        fns = compiled_field(result)
        rng = np.random.default_rng(SEED)
        for point in rng.uniform(-50, 50, size=(200, 3)):
            for fn in fns.values():
                assert fn(point) == 0.0

    def test_twist_images(self):
        image5 = sharp_sym(TWIST_R6, TWIST_ONE_FORMS_ALPHA, dim=6)
        image6 = sharp_sym(TWIST_R6, TWIST_ONE_FORMS_BETA, dim=6)
        point = (0.3, -1.25, 0.7, 0.1, 0.2, 0.9)
        vals5 = field_values(image5, point)
        vals6 = field_values(image6, point)
        x2 = point[1]
        assert max_defect(vals5, {(2,): -1.0, (6,): x2**2}) <= 1e-12
        assert max_defect(vals6, {(3,): -1.0, (5,): -(x2**2)}) <= 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(MultivectorError):
            sharp_sym(SO3, {(4,): "1"}, dim=3)


# --- Schouten coboundary ----------------------------------------------------


class TestSchouten:
    def test_degree_zero_equals_sharp_of_gradient(self):
        rng = np.random.default_rng(SEED)
        for m, field in ((3, SO3), (6, TWIST_R6)):
            for _ in range(3):
                h = random_polynomial_text(rng, m)
                ham = schouten_coboundary(field, h, dim=m)
                expected = sharp_sym(field, gradient_form(h, m), dim=m)
                assert ham.degree == 1
                for point in rng.uniform(-1.5, 1.5, size=(10, m)):
                    defect = max_defect(
                        field_values(ham, point), field_values(expected, point)
                    )
                    assert defect <= 1e-9

    def test_poisson_examples_have_zero_self_bracket(self):
        rng = np.random.default_rng(SEED)
        for m, field in POISSON_EXAMPLES:
            result = schouten_coboundary(field, field, dim=m, degree=2)
            assert result.degree == 3
            fns = compiled_field(result)
            for point in rng.uniform(-2, 2, size=(100, m)):
                for fn in fns.values():
                    assert abs(fn(point)) <= 1e-12

    def test_structural_zero_examples(self):
        # Linear coefficients supported on disjoint index pairs die on
        # repeated odd coordinates, with no numeric cancellation needed.
        for m, field in ((3, SO3), (3, SL2), (6, CANONICAL_R6), (6, TWIST_R6)):
            assert schouten_coboundary(field, field, dim=m, degree=2).is_zero()

    def test_jacobi_defect_detected(self):
        bad = {(1, 2): "x3", (1, 3): "x1"}
        result = schouten_coboundary(bad, bad, dim=3, degree=2)
        assert not result.is_zero()
        fn = compile_expression(result.coefficient((1, 2, 3)), 3)
        for x3 in (-1.5, 0.25, 2.0):
            assert fn((0.1, 0.2, x3)) == pytest.approx(-2.0 * x3, abs=1e-12)

    def test_one_sign_off_oscillator_variant_is_not_poisson(self):
        # Flipping the (1, 4) sign of the oscillator-invariant field breaks
        # Jacobi; the self-bracket is 16*x3 xi123 - 16*x4 xi124, and the
        # independent finite-difference oracle reproduces the same values.
        raw = PAIS_UHLENBECK_R4_NON_JACOBI
        result = schouten_coboundary(raw, raw, dim=4, degree=2)
        assert not result.is_zero()
        rng = np.random.default_rng(SEED)
        for point in rng.uniform(-2, 2, size=(10, 4)):
            got = field_values(result, point)
            expected = {(1, 2, 3): 16.0 * point[2], (1, 2, 4): -16.0 * point[3]}
            assert max_defect(got, expected) <= 1e-9
            oracle = schouten_oracle(
                compiled_dict(raw, 4), compiled_dict(raw, 4), 2, 4, point
            )
            assert max_defect(got, oracle) <= 1e-8

    def test_oracle_agreement_sweep(self):
        rng = np.random.default_rng(SEED)
        checked = 0
        for m in (2, 3, 4):
            for degree in (0, 1, 2):
                for _ in range(6):
                    P_raw = random_multivector_dict(rng, m, 2)
                    if degree == 0:
                        arg_raw = random_polynomial_text(rng, m)
                        arg_oracle = compile_expression(parse(arg_raw, m), m)
                    else:
                        arg_raw = random_multivector_dict(rng, m, degree)
                        arg_oracle = compiled_dict(arg_raw, m)
                    result = schouten_coboundary(P_raw, arg_raw, dim=m, degree=degree)
                    point = rng.uniform(-1.5, 1.5, size=m)
                    expected = schouten_oracle(
                        compiled_dict(P_raw, m), arg_oracle, degree, m, point
                    )
                    defect = max_defect(field_values(result, point), expected)
                    assert defect <= 1e-8, (m, degree, P_raw, arg_raw, defect)
                    checked += 1
        assert checked >= 50

    def test_coboundary_squares_to_zero(self):
        rng = np.random.default_rng(SEED)
        cases = [(3, SO3), (3, SL2), (6, CANONICAL_R6)]
        for m, field in cases:
            for degree in (0, 1):
                for _ in range(2):
                    if degree == 0:
                        arg = random_polynomial_text(rng, m)
                    else:
                        arg = random_multivector_dict(rng, m, 1)
                    once = schouten_coboundary(field, arg, dim=m, degree=degree)
                    twice = schouten_coboundary(field, once, dim=m)
                    fns = compiled_field(twice)
                    for point in rng.uniform(-1.5, 1.5, size=(25, m)):
                        for fn in fns.values():
                            assert abs(fn(point)) <= 1e-9

    def test_top_degree_argument_gives_zero(self):
        top = {(1, 2, 3): "x1*x2 + x3"}
        result = schouten_coboundary(SO3, top, dim=3, degree=3)
        assert result.degree == 4
        assert result.is_zero()

    def test_result_metadata(self):
        result = schouten_coboundary(PAIS_UHLENBECK_R4, "x1*x4", dim=4)
        assert (result.dim, result.degree) == (4, 1)


# --- Curl / modular field ---------------------------------------------------


class TestCurl:
    def test_structural_zeros(self):
        assert curl_sym(SL2, dim=3, degree=2).is_zero()
        assert curl_sym(PAIS_UHLENBECK_R4, dim=4, degree=2).is_zero()
        assert modular_vf_sym(SO3, dim=3).is_zero()

    def test_linear_mixed_modular_field_constant(self):
        result = modular_vf_sym(LINEAR_MIXED_R3, dim=3)
        assert result.coeffs == {(1,): Num(-2.0), (2,): Num(-2.0), (3,): Num(2.0)}

    def test_quartic_reference(self):
        result = modular_vf_sym(QUARTIC_SO3, dim=3)
        fns = compiled_field(result)
        at_golden = np.array(
            [fns.get((k,), lambda p: 0.0)(QUARTIC_SO3_MODULAR_POINT) for k in (1, 2, 3)]
        )
        assert np.allclose(at_golden, QUARTIC_SO3_MODULAR_VALUE, atol=1e-9)
        rng = np.random.default_rng(SEED)
        for point in rng.uniform(-2, 2, size=(100, 3)):
            got = np.array([fns.get((k,), lambda p: 0.0)(point) for k in (1, 2, 3)])
            expected = quartic_so3_modular_reference(point)
            assert np.allclose(got, expected, atol=1e-9, rtol=1e-9)

    def test_contraction_identity_sweep(self):
        rng = np.random.default_rng(SEED)
        volumes = ["1", "2 + x1**2", "exp(x1/2)"]
        checked = 0
        for m in (2, 3, 4):
            for degree in range(1, min(m, 3) + 1):
                for i in range(7):
                    raw = random_multivector_dict(rng, m, degree)
                    f0 = volumes[i % len(volumes)]
                    result = curl_sym(raw, f0, dim=m, degree=degree)
                    point = rng.uniform(-1.2, 1.2, size=m)
                    defect = curl_defect(
                        compiled_dict(raw, m),
                        compile_expression(parse(f0, m), m),
                        compiled_dict(
                            {k: to_source(v) for k, v in result.items()}, m
                        ),
                        m,
                        point,
                    )
                    assert defect <= 1e-8, (m, degree, raw, f0, defect)
                    checked += 1
        assert checked >= 50

    def test_divergence_composes_to_zero(self):
        rng = np.random.default_rng(SEED)
        for m in (3, 4):
            for degree in (2, 3):
                for _ in range(3):
                    raw = random_multivector_dict(rng, m, degree)
                    twice = curl_sym(curl_sym(raw, dim=m, degree=degree))
                    fns = compiled_field(twice)
                    for point in rng.uniform(-1.5, 1.5, size=(10, m)):
                        for fn in fns.values():
                            assert abs(fn(point)) <= 1e-12

    def test_volume_change_law(self):
        # Changing the volume by exp(g) shifts the modular field by the
        # image of dg under the sharp map, for any bivector.
        rng = np.random.default_rng(SEED)
        for field in (SO3, None, None):
            raw = field if field is not None else random_multivector_dict(rng, 3, 2)
            g = random_polynomial_text(rng, 3)
            weighted = modular_vf_sym(raw, f"exp({g})", dim=3)
            plain = modular_vf_sym(raw, dim=3)
            shift = sharp_sym(raw, gradient_form(g, 3), dim=3)
            for point in rng.uniform(-1.2, 1.2, size=(20, 3)):
                w = field_values(weighted, point)
                p0 = field_values(plain, point)
                s = field_values(shift, point)
                expected = {
                    key: p0.get(key, 0.0) + s.get(key, 0.0) for key in set(p0) | set(s)
                }
                scale = 1.0 + max((abs(v) for v in expected.values()), default=0.0)
                assert max_defect(w, expected) <= 1e-9 * scale

    def test_trivial_volume_spellings_agree(self):
        raw = random_multivector_dict(np.random.default_rng(SEED), 3, 2)
        base = curl_sym(raw, dim=3, degree=2)
        assert curl_sym(raw, "1", dim=3, degree=2) == base
        assert curl_sym(raw, 1, dim=3, degree=2) == base
        assert curl_sym(raw, 1.0, dim=3, degree=2) == base

    def test_degree_zero_rejected(self):
        with pytest.raises(MultivectorError):
            curl_sym("x1", dim=3, degree=0)

    def test_volume_density_is_one_scalar(self):
        raw = {(1, 2): "x3"}
        base = curl_sym(raw, "x1 + 2", dim=3)
        assert curl_sym(raw, Multivector.build(3, 0, "x1 + 2"), dim=3) == base
        assert curl_sym(raw, parse("x1 + 2", 3), dim=3) == base
        for bad in ("x1 +", "x4", True, 10**400, [1.0]):
            with pytest.raises(ExpressionError):
                curl_sym(raw, bad, dim=3)

    def test_modular_requires_bivector(self):
        with pytest.raises(MultivectorError):
            modular_vf_sym(RADIAL_ONE_FORM_R3, dim=3)


# --- Flaschka-Ratiu construction -------------------------------------------


class TestFlaschkaRatiu:
    def test_casimir_pair_golden(self):
        result = flaschka_ratiu_sym(CASIMIR_PAIR_R4, 4)
        assert result.keys() == FLASCHKA_RATIU_KEYS
        fns = compiled_field(result)
        for point, expected in zip(corners_mesh(4).points, FLASCHKA_RATIU_RECORDS):
            got = {key: fn(point) for key, fn in fns.items()}
            assert max_defect(got, expected) <= 1e-9

    def test_sharp_annihilates_casimirs(self):
        rng = np.random.default_rng(SEED)
        casimir_sets = [
            (4, CASIMIR_PAIR_R4),
            (4, [random_polynomial_text(rng, 4), random_polynomial_text(rng, 4)]),
            (
                5,
                [
                    random_polynomial_text(rng, 5),
                    random_polynomial_text(rng, 5),
                    random_polynomial_text(rng, 5),
                ],
            ),
        ]
        for m, casimirs in casimir_sets:
            bivector = flaschka_ratiu_sym(casimirs, m)
            for source in casimirs:
                image = sharp_sym(bivector, gradient_form(str(source), m), dim=m)
                fns = compiled_field(image)
                for point in rng.uniform(-1.5, 1.5, size=(50, m)):
                    for fn in fns.values():
                        assert abs(fn(point)) <= 1e-9

    def test_result_satisfies_jacobi(self):
        bivector = flaschka_ratiu_sym(CASIMIR_PAIR_R4, 4)
        self_bracket = schouten_coboundary(bivector, bivector)
        fns = compiled_field(self_bracket)
        rng = np.random.default_rng(SEED)
        for point in rng.uniform(-1.5, 1.5, size=(50, 4)):
            for fn in fns.values():
                assert abs(fn(point)) <= 1e-9

    def test_degenerate_input_gives_zero_bivector(self):
        result = flaschka_ratiu_sym(["1", "2"], 4)
        assert result.is_zero()
        assert (result.dim, result.degree) == (4, 2)

    def test_wrong_count_rejected(self):
        with pytest.raises(MultivectorError, match="expected 2"):
            flaschka_ratiu_sym(["x1"], 4)

    def test_small_dimension_rejected(self):
        with pytest.raises(MultivectorError):
            flaschka_ratiu_sym([], 2)


# --- Linear normal forms on R^3 --------------------------------------------


REPRESENTATIVE_INPUTS = {
    "trivial": {},
    "heisenberg": {(2, 3): "x1"},
    "e2": {(1, 3): "-x2", (2, 3): "x1"},
    "e11": {(1, 3): "x2", (2, 3): "x1"},
    "so3": {(1, 2): "x3", (1, 3): "-x2", (2, 3): "x1"},
    "sl2": {(1, 2): "-x3", (1, 3): "-x2", (2, 3): "x1"},
    "aff_diag": {(1, 3): "x1", (2, 3): "x2"},
    "aff_jordan": {(1, 3): "x1", (2, 3): "x1 + x2"},
    "aff_rotation": {(1, 3): "x1 - 4*x2", (2, 3): "4*x1 + x2"},
    "aff_boost": {(1, 3): "x1 - 4*x2", (2, 3): "-4*x1 + x2"},
}


class TestNormalForm:
    def test_golden_classification(self):
        nf = linear_normal_form_r3(LINEAR_MIXED_R3)
        assert isinstance(nf, NormalFormClass)
        assert nf.label == "aff_rotation"
        assert nf.has_modulus
        rep = nf.representative
        assert rep.keys() == NORMAL_FORM_KEYS
        assert to_source(rep.coefficient((1, 3))) == "x1-4.0*a*x2"
        assert to_source(rep.coefficient((2, 3))) == "4.0*a*x1+x2"
        assert rep.free_parameters() == {"a"}

    @pytest.mark.parametrize("label", sorted(REPRESENTATIVE_INPUTS))
    def test_each_class_self_classifies(self, label):
        nf = linear_normal_form_r3(REPRESENTATIVE_INPUTS[label])
        assert nf.label == label

    @pytest.mark.parametrize("label", sorted(REPRESENTATIVE_INPUTS))
    def test_representative_reclassifies_to_itself(self, label):
        nf = linear_normal_form_r3(REPRESENTATIVE_INPUTS[label])
        rep = nf.representative
        if nf.has_modulus:
            bound = {
                key: partial_eval(coeff, dim=3, params={"a": 1.0})
                for key, coeff in rep.items()
            }
            rep = Multivector.build(3, 2, bound)
        assert linear_normal_form_r3(rep).label == nf.label

    def test_negation_and_scaling_preserve_class(self):
        assert linear_normal_form_r3(
            {(1, 2): "-x3", (1, 3): "x2", (2, 3): "-x1"}
        ).label == "so3"
        assert linear_normal_form_r3(
            {(1, 2): "x3", (1, 3): "x2", (2, 3): "-x1"}
        ).label == "sl2"
        assert linear_normal_form_r3({(2, 3): "-x1"}).label == "heisenberg"
        assert linear_normal_form_r3(
            {(1, 2): "3*x3", (1, 3): "-3*x2", (2, 3): "3*x1"}
        ).label == "so3"
        assert linear_normal_form_r3({(2, 3): "x1/2"}).label == "heisenberg"

    def test_rotation_boost_split(self):
        rot = linear_normal_form_r3({(1, 3): "x1 - 8*x2", (2, 3): "8*x1 + x2"})
        boost = linear_normal_form_r3({(1, 3): "x1 - 8*x2", (2, 3): "-8*x1 + x2"})
        assert rot.label == "aff_rotation"
        assert boost.label == "aff_boost"
        assert rot.has_modulus and boost.has_modulus

    def test_modulus_free_classes_have_no_parameters(self):
        for label, raw in REPRESENTATIVE_INPUTS.items():
            nf = linear_normal_form_r3(raw)
            if not nf.has_modulus:
                assert nf.representative.free_parameters() == set()

    def test_nonlinear_coefficient_rejected(self):
        with pytest.raises(MultivectorError, match=r"\(1, 2\)"):
            linear_normal_form_r3({(1, 2): "x1**2"})
        with pytest.raises(MultivectorError):
            linear_normal_form_r3({(1, 2): "sin(x1)"})
        with pytest.raises(MultivectorError):
            linear_normal_form_r3({(1, 2): "x1*x2"})

    def test_parameter_coefficient_rejected(self):
        with pytest.raises(MultivectorError, match="parameter"):
            linear_normal_form_r3({(1, 2): "a*x1"})

    def test_affine_coefficient_rejected(self):
        with pytest.raises(MultivectorError, match="homogeneous"):
            linear_normal_form_r3({(1, 2): "x1 + 1"})

    def test_impossible_rank_pattern_rejected(self):
        bad = {(1, 2): "x3 - x2", (1, 3): "-x2 - x3", (2, 3): "x1"}
        with pytest.raises(MultivectorError, match="full-rank"):
            linear_normal_form_r3(bad)

    def test_wrong_dimension_rejected(self):
        with pytest.raises(MultivectorError):
            linear_normal_form_r3({(1, 4): "x1"})

    # The linear part is read from the partial derivatives; each must fold
    # to a number.
    @pytest.mark.parametrize("coeff", [
        "x1", "2*x1 - x1", "x1/4", "-(-x1)", "exp(0)*x1 + 0*x2", "x1 + 0*sin(x2)",
    ])
    def test_linear_coefficient_accepted(self, coeff):
        assert linear_normal_form_r3({(2, 3): coeff}).label == "heisenberg"

    # 1e999*x1 is NaN at the origin (inf * 0), and reading it must not warn.
    # d sign(x2)/dx2 folds to 0, so a sign term is refused on its own.
    @pytest.mark.parametrize("coeff, message", [
        ("x1**2", "not linear"),
        ("sin(x1)", "not linear"),
        ("x1*x2", "not linear"),
        ("x1/x2", "not linear"),
        ("x1 + sign(x2)", "not linear"),
        ("a*x1", "parameter 'a'"),
        ("x1 + 1", "not homogeneous"),
        ("1e999*x1", "not homogeneous"),
        ("1e308*x1*10", "not finite"),
    ])
    def test_coefficient_rejected(self, coeff, message):
        with pytest.raises(MultivectorError, match=rf"key \(2, 3\).*{message}"):
            linear_normal_form_r3({(2, 3): coeff})


# --- Bracket of one-forms ---------------------------------------------------


class TestOneFormsBracket:
    def test_twist_golden(self):
        result = one_forms_bracket_sym(
            TWIST_R6, TWIST_ONE_FORMS_ALPHA, TWIST_ONE_FORMS_BETA, dim=6
        )
        assert result.keys() == ((2,),)
        fns = compiled_field(result)
        point = (0.4, 1.0, -0.2, 0.5, 0.6, 0.7)
        got = np.array([fns.get((k,), lambda p: 0.0)(point) for k in range(1, 7)])
        assert np.allclose(got, TWIST_ONE_FORMS_AT_X2_ONE, atol=1e-12)

    def test_exact_forms_reduce_to_bracket_gradient(self):
        # With both arguments exact, the result must be the gradient of the
        # scalar bracket of the potentials.
        rng = np.random.default_rng(SEED)
        for m, field in ((3, SO3), (3, SL2), (6, CANONICAL_R6)):
            for _ in range(2):
                f = random_polynomial_text(rng, m)
                g = random_polynomial_text(rng, m)
                lhs = one_forms_bracket_sym(
                    field, gradient_form(f, m), gradient_form(g, m), dim=m
                )
                hamiltonian = sharp_sym(field, gradient_form(f, m), dim=m)
                ge = parse(g, m)
                bracket = Num(0.0)
                from poissonmesh.expressions import fold_add, fold_mul

                for i in range(1, m + 1):
                    xi = hamiltonian.coeffs.get((i,))
                    if xi is None:
                        continue
                    bracket = fold_add(bracket, fold_mul(differentiate(ge, i), xi))
                rhs = {(i,): differentiate(bracket, i) for i in range(1, m + 1)}
                rhs_mv = Multivector.build(m, 1, rhs)
                for point in rng.uniform(-1.5, 1.5, size=(25, m)):
                    lv = field_values(lhs, point)
                    rv = field_values(rhs_mv, point)
                    scale = 1.0 + max((abs(v) for v in rv.values()), default=0.0)
                    assert max_defect(lv, rv) <= 1e-9 * scale

    def test_antisymmetry(self):
        rng = np.random.default_rng(SEED)
        for _ in range(4):
            a_raw = random_multivector_dict(rng, 3, 1)
            b_raw = random_multivector_dict(rng, 3, 1)
            ab = one_forms_bracket_sym(SO3, a_raw, b_raw, dim=3)
            ba = one_forms_bracket_sym(SO3, b_raw, a_raw, dim=3)
            for point in rng.uniform(-1.5, 1.5, size=(15, 3)):
                av = field_values(ab, point)
                bv = field_values(ba, point)
                flipped = {k: -v for k, v in bv.items()}
                scale = 1.0 + max((abs(v) for v in av.values()), default=0.0)
                assert max_defect(av, flipped) <= 1e-9 * scale

    def test_sharp_is_a_morphism_onto_field_brackets(self):
        # sharp([alpha, beta]) equals the Lie bracket of the sharp images;
        # the right side is evaluated by finite differences.
        rng = np.random.default_rng(SEED)
        for _ in range(3):
            a_raw = random_multivector_dict(rng, 3, 1)
            b_raw = random_multivector_dict(rng, 3, 1)
            bracket = one_forms_bracket_sym(SO3, a_raw, b_raw, dim=3)
            lhs = sharp_sym(SO3, bracket, dim=3)
            sharp_a = compiled_field(sharp_sym(SO3, a_raw, dim=3))
            sharp_b = compiled_field(sharp_sym(SO3, b_raw, dim=3))
            xa = {key[0]: fn for key, fn in sharp_a.items()}
            xb = {key[0]: fn for key, fn in sharp_b.items()}
            fns = compiled_field(lhs)
            for point in rng.uniform(-1.0, 1.0, size=(8, 3)):
                rhs = lie_bracket_fd(xa, xb, 3, point)
                for j in range(1, 4):
                    got = fns.get((j,), lambda p: 0.0)(point)
                    scale = 1.0 + abs(rhs[j])
                    assert abs(got - rhs[j]) <= 1e-6 * scale

    def test_constant_ingredients_fold_away(self):
        result = one_forms_bracket_sym(
            CANONICAL_R6, {(1,): "1"}, {(4,): "1"}, dim=6
        )
        assert result.is_zero()

    def test_dimension_mismatch(self):
        with pytest.raises(MultivectorError):
            one_forms_bracket_sym(SO3, {(1,): "1"}, {(4,): "1"}, dim=3)
