"""End-to-end acceptance suites: golden outputs, analytic zero fields,
pinned constants, oracle agreement, empirical scaling, and determinism."""

import filecmp
import time

import numpy as np
import pytest

import goldens as g
import oracles
from corpus import DERIVATIVE_CORPUS
from poissonmesh import bench, cli
from poissonmesh import evaluate as ev
from poissonmesh.evaluate import EvalOptions
from poissonmesh.expressions import compile_expression, differentiate, parse, to_source
from poissonmesh.geometry import Multivector, as_mesh, corners_mesh, random_mesh
from poissonmesh.symbolic import curl_sym, schouten_coboundary

SEED = 20250825

DENSE = EvalOptions(mode="dense")


def _compiled_dict(raw, m):
    return {
        key: compile_expression(parse(text, m), m) for key, text in raw.items()
    }


def _field_values(mv, point):
    out = {}
    for key, coeff in mv.items():
        out[key] = compile_expression(coeff, mv.dim)(point)
    return out


def _max_defect(got, expected):
    keys = set(got) | set(expected)
    return max(
        (abs(got.get(k, 0.0) - expected.get(k, 0.0)) for k in keys),
        default=0.0,
    )


class TestGoldenOutputs:
    """Pinned example outputs, 1e-9 per entry, under five seconds total."""

    def test_all_golden_outputs(self):
        start = time.perf_counter()

        res = ev.num_bivector(g.SO3, corners_mesh(3), dim=3)
        assert len(res.data) == 8
        for rec, expected in zip(res.data, g.SO3_CORNER_RECORDS):
            assert set(rec) == set(expected)
            for key, val in expected.items():
                assert rec[key] == pytest.approx(val, abs=1e-9)

        res = ev.num_bivector_to_matrix(g.SL2, corners_mesh(3), dim=3)
        assert np.max(np.abs(res.data - g.SL2_CORNER_MATRICES)) <= 1e-9

        res = ev.num_gauge_transformation(
            g.SO3, g.DIFFERENCE_TWO_FORM_R3, corners_mesh(3), DENSE, dim=3
        )
        assert res.valid.all()
        assert np.max(np.abs(res.data - g.GAUGE_SO3_EXPECTED)) <= 1e-9

        res = ev.num_linear_normal_form_r3(g.LINEAR_MIXED_R3, corners_mesh(3))
        assert res.keys == g.NORMAL_FORM_KEYS
        assert res.data == g.NORMAL_FORM_RECORDS
        res = ev.num_linear_normal_form_r3(
            g.LINEAR_MIXED_R3, corners_mesh(3), EvalOptions(params={"a": 1.0})
        )
        for rec, expected in zip(res.data, g.NORMAL_FORM_RECORDS_AT_A1):
            for key, val in expected.items():
                assert rec[key] == pytest.approx(val, abs=1e-9)

        res = ev.num_flaschka_ratiu_bivector(
            g.CASIMIR_PAIR_R4, 4, corners_mesh(4)
        )
        assert len(res.data) == 16
        for rec, expected in zip(res.data, g.FLASCHKA_RATIU_RECORDS):
            for key, val in expected.items():
                assert rec[key] == pytest.approx(val, abs=1e-9)

        assert time.perf_counter() - start < 5.0


class TestZeroFields:
    """Analytically zero outputs stay below 1e-9 on 10^4 seeded points."""

    def test_zero_fields_within_budget(self):
        start = time.perf_counter()
        k = 10**4

        mesh3 = random_mesh(k, 3, seed=SEED)
        res = ev.num_sharp_morphism(
            g.SO3, g.RADIAL_ONE_FORM_R3, mesh3, DENSE, dim=3
        )
        assert np.max(np.abs(res.data)) <= 1e-9

        res = ev.num_coboundary_operator(
            g.SL2, g.FLAT_COCYCLE_R3, mesh3, dim=3, degree=1
        )
        worst = max(
            (abs(v) for rec in res.data for v in rec.values()), default=0.0
        )
        assert worst <= 1e-9
        assert res.nonfinite == 0

        mesh4 = random_mesh(k, 4, seed=SEED + 1)
        res = ev.num_curl_operator(
            g.PAIS_UHLENBECK_R4, "1", mesh4, dim=4, degree=2
        )
        worst = max(
            (abs(v) for rec in res.data for v in rec.values()), default=0.0
        )
        assert worst <= 1e-9

        for dim, field in g.POISSON_EXAMPLES:
            mesh = random_mesh(k, dim, seed=SEED + dim)
            res = ev.num_coboundary_operator(field, field, mesh, dim=dim, degree=2)
            worst = max(
                (abs(v) for rec in res.data for v in rec.values()), default=0.0
            )
            assert worst <= 1e-9, f"self-bracket of {field} reached {worst}"

        assert time.perf_counter() - start < 60.0


class TestConstantValues:
    """Pinned constant outputs at 1e-9."""

    def test_bracket_minus_one_where_x2_is_one(self):
        pts = [(0, 1, 0, 0, 0.5, -2), (1, 1, 2, 3, 4, 5), (-3, 1, 1, 1, 1, 1)]
        res = ev.num_poisson_bracket(
            g.TWIST_R6, g.TWIST_BRACKET_F, g.TWIST_BRACKET_G, as_mesh(pts),
            DENSE, dim=6,
        )
        assert np.max(np.abs(res.data - (-1.0))) <= 1e-9

    def test_one_forms_constant_vector_where_x2_is_one(self):
        pts = [(0, 1, 0, 0, 0.5, -2), (1, 1, 2, 3, 4, 5)]
        res = ev.num_one_forms_bracket(
            g.TWIST_R6, g.TWIST_ONE_FORMS_ALPHA, g.TWIST_ONE_FORMS_BETA,
            as_mesh(pts), DENSE, dim=6,
        )
        expected = np.array(g.TWIST_ONE_FORMS_AT_X2_ONE)
        assert np.max(np.abs(res.data - expected)) <= 1e-9

    def test_hamiltonian_first_row(self):
        res = ev.num_hamiltonian_vf(
            g.CANONICAL_R6,
            g.OSCILLATOR_HAMILTONIAN_R6,
            as_mesh([g.HAMILTONIAN_R6_FIRST_POINT]),
            DENSE,
            dim=6,
        )
        expected = np.array(g.HAMILTONIAN_R6_FIRST_ROW)
        assert np.max(np.abs(res.data[0] - expected)) <= 1e-9


class TestOracleAgreement:
    """Independent brute-force routes agree with the implementations."""

    def test_schouten_bracket_against_wedge_oracle(self):
        rng = np.random.default_rng(SEED)
        checked = 0
        for m in (2, 3, 4):
            for degree in (0, 1, 2):
                for _ in range(6):
                    P_raw = oracles.random_multivector_dict(rng, m, 2)
                    if degree == 0:
                        arg_raw = oracles.random_polynomial_text(rng, m)
                        arg_oracle = compile_expression(parse(arg_raw, m), m)
                    else:
                        arg_raw = oracles.random_multivector_dict(rng, m, degree)
                        arg_oracle = _compiled_dict(arg_raw, m)
                    result = schouten_coboundary(
                        P_raw, arg_raw, dim=m, degree=degree
                    )
                    point = rng.uniform(-1.5, 1.5, size=m)
                    expected = oracles.schouten_oracle(
                        _compiled_dict(P_raw, m), arg_oracle, degree, m, point
                    )
                    defect = _max_defect(_field_values(result, point), expected)
                    assert defect <= 1e-8, (m, degree, defect)
                    checked += 1
        assert checked >= 50

    def test_curl_against_contraction_identity(self):
        rng = np.random.default_rng(SEED)
        volumes = ["1", "2 + x1**2", "exp(x1/2)"]
        checked = 0
        for m in (2, 3, 4):
            for degree in range(1, min(m, 3) + 1):
                for i in range(7):
                    raw = oracles.random_multivector_dict(rng, m, degree)
                    f0 = volumes[i % len(volumes)]
                    result = curl_sym(raw, f0, dim=m, degree=degree)
                    point = rng.uniform(-1.2, 1.2, size=m)
                    defect = oracles.curl_defect(
                        _compiled_dict(raw, m),
                        compile_expression(parse(f0, m), m),
                        _compiled_dict(
                            {k: to_source(v) for k, v in result.items()}, m
                        ),
                        m,
                        point,
                    )
                    assert defect <= 1e-8, (m, degree, raw, f0, defect)
                    checked += 1
        assert checked >= 50

    def test_gauge_against_closed_form(self):
        rng = np.random.default_rng(SEED)
        keys = [(1, 2), (1, 3), (2, 3)]
        checked = 0
        while checked < 100:
            P_raw = oracles.random_multivector_dict(rng, 3, 2)
            lam_raw = oracles.random_multivector_dict(rng, 3, 2)
            if not P_raw or not lam_raw:
                continue
            point = rng.uniform(-1.0, 1.0, size=3)
            mesh = as_mesh([point])
            M = ev.num_bivector_to_matrix(P_raw, mesh, dim=3).data[0]
            L = ev.num_bivector_to_matrix(lam_raw, mesh, dim=3).data[0]
            F = 1.0 + sum(L[i - 1, j - 1] * M[i - 1, j - 1] for i, j in keys)
            if abs(F) < 0.05:
                continue
            res = ev.num_gauge_transformation(P_raw, lam_raw, mesh, DENSE, dim=3)
            assert res.valid[0]
            expected = M / F
            scale = max(1.0, float(np.max(np.abs(expected))))
            assert np.max(np.abs(res.data[0] - expected)) <= 1e-9 * scale
            checked += 1

    def test_derivatives_against_central_differences(self):
        rng = np.random.default_rng(SEED)
        assert len(DERIVATIVE_CORPUS) >= 20
        for entry in DERIVATIVE_CORPUS:
            expr = parse(entry.source, entry.dim)
            base = compile_expression(expr, entry.dim, entry.params)
            for point in entry.sample(rng, 4):
                for i in range(1, entry.dim + 1):
                    sym = compile_expression(
                        differentiate(expr, i), entry.dim, entry.params
                    )(point)
                    fd = oracles.central_fd(base, point, i)
                    scale = max(1.0, abs(fd))
                    assert abs(sym - fd) <= 1e-6 * scale, (entry.source, i)


SCALING_SIZES = (10**3, 10**4, 10**5, 10**6)

SLOPE_METHODS = (
    "num_bivector",
    "num_bivector_to_matrix",
    "num_hamiltonian_vf",
    "num_poisson_bracket",
    "num_sharp_morphism",
    "num_coboundary_operator",
    "num_curl_operator",
    "num_one_forms_bracket",
    "num_gauge_transformation",
    "num_linear_normal_form_r3",
)


@pytest.fixture(scope="module")
def scaling_reports():
    suite = bench.benchmark_suite()
    reports = {}
    start = time.perf_counter()
    for name in SLOPE_METHODS:
        reports[name] = bench.run_benchmark(
            suite[name], SCALING_SIZES, repeats=7, seed=SEED
        )
    reports["num_modular_vf"] = bench.run_benchmark(
        suite["num_modular_vf"], (10**4, 10**5, 10**6), repeats=7, seed=SEED
    )
    reports["_elapsed"] = time.perf_counter() - start
    return reports


class TestEmpiricalScaling:
    """Per-point work scales linearly in the mesh size."""

    @pytest.mark.parametrize("method", SLOPE_METHODS)
    def test_linear_scaling(self, scaling_reports, method):
        report = scaling_reports[method]
        assert 0.8 <= report.slope <= 1.15, (method, report.mean_s, report.slope)
        assert report.r2 >= 0.98, (method, report.mean_s, report.r2)

    def test_construction_happens_in_prepare(self, monkeypatch):
        # The timed evaluator call covers only per-point work: each derived
        # field is built once by prepare_* and never by the evaluator.
        built = {
            "num_hamiltonian_vf": "schouten_coboundary",
            "num_poisson_bracket": "schouten_coboundary",
            "num_coboundary_operator": "schouten_coboundary",
            "num_modular_vf": "modular_vf_sym",
            "num_curl_operator": "curl_sym",
            "num_linear_normal_form_r3": "linear_normal_form_r3",
            "num_flaschka_ratiu_bivector": "flaschka_ratiu_sym",
        }
        calls = {name: 0 for name in set(built.values())}
        for name in calls:
            def counting(*args, _name=name, _original=getattr(ev, name), **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(ev, name, counting)
        suite = bench.benchmark_suite()
        for method, constructor in built.items():
            for mode in ("records", "dense"):
                calls.update(dict.fromkeys(calls, 0))
                case = suite[method]
                evaluator = case.factory(EvalOptions(mode=mode))
                expected = {name: int(name == constructor) for name in calls}
                assert calls == expected, (method, mode)
                for seed in range(3):
                    evaluator(random_mesh(100, case.dim, seed=SEED + seed))
                assert calls == expected, (method, mode)

    def test_modular_late_window_slope(self, scaling_reports):
        report = scaling_reports["num_modular_vf"]
        assert 0.8 <= report.slope <= 1.15, (report.mean_s, report.slope)

    def test_total_runtime_budget(self, scaling_reports):
        assert scaling_reports["_elapsed"] < 1800.0


class TestDeterminism:
    """Identical seeds and inputs give bitwise-identical output files for
    single- and multi-worker runs."""

    def test_output_files_bitwise_identical(self, tmp_path):
        mesh_path = tmp_path / "mesh.npy"
        assert cli.main([
            "mesh", "random", "--k", "140000", "--dim", "3", "--seed",
            str(SEED), "--out", str(mesh_path),
        ]) == 0

        def run(method, out, workers, extra):
            argv = [
                "eval", method, "--mesh", str(mesh_path),
                "--out", str(out), "--workers", str(workers),
            ] + extra
            assert cli.main(argv) == 0

        biv = tmp_path / "sl2.json"
        biv.write_text(Multivector.build(3, 2, g.SL2).to_json())
        lam = tmp_path / "lam.json"
        lam.write_text(
            Multivector.build(3, 2, g.DIFFERENCE_TWO_FORM_R3).to_json()
        )

        cases = [
            ("num_hamiltonian_vf", "ham.npy",
             ["--bivector", str(biv), "--h", "x1**2 + x2**2 - x3**2"]),
            ("num_bivector", "biv.jsonl", ["--bivector", str(biv)]),
            ("num_gauge_transformation", "gauge.npy",
             ["--bivector", str(biv), "--lam", str(lam)]),
        ]
        for method, out_name, extra in cases:
            out1 = tmp_path / f"w1_{out_name}"
            out4 = tmp_path / f"w4_{out_name}"
            out4_again = tmp_path / f"w4b_{out_name}"
            run(method, out1, 1, extra)
            run(method, out4, 4, extra)
            run(method, out4_again, 4, extra)
            assert filecmp.cmp(out1, out4, shallow=False), method
            assert filecmp.cmp(out4, out4_again, shallow=False), method
