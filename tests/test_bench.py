"""Tests for the timing harness and log-log scaling fits."""

import json

import numpy as np
import pytest

import goldens as g
from poissonmesh import bench, geometry
from poissonmesh import evaluate as ev
from poissonmesh.bench import BenchCase, TimingReport, fit_loglog, method_case, time_method
from poissonmesh.evaluate import EvalOptions
from poissonmesh.geometry import MultivectorError


def make_report(sizes, means, **kw):
    return TimingReport(
        method="num_bivector",
        sizes=tuple(sizes),
        mean_s=tuple(means),
        std_s=tuple(0.0 for _ in sizes),
        repeats=kw.pop("repeats", 3),
        seed=kw.pop("seed", 0),
        **kw,
    )


class TestTimingReport:
    def test_sizes_must_increase(self):
        with pytest.raises(MultivectorError, match="increasing"):
            make_report([1000, 1000], [0.1, 0.2])
        with pytest.raises(MultivectorError, match="increasing"):
            make_report([2000, 1000], [0.1, 0.2])

    def test_means_must_be_positive(self):
        with pytest.raises(MultivectorError, match="positive"):
            make_report([10, 20], [0.1, 0.0])

    def test_lengths_must_align(self):
        with pytest.raises(MultivectorError, match="align"):
            TimingReport(
                method="m", sizes=(1, 2), mean_s=(0.1,), std_s=(0.0, 0.0),
                repeats=1, seed=0,
            )
        with pytest.raises(MultivectorError, match="threads must align"):
            make_report([10, 20], [0.1, 0.2], threads=(1,))

    def test_r2_range_enforced(self):
        with pytest.raises(MultivectorError, match="R\\^2"):
            make_report([10, 20], [0.1, 0.2], r2=1.5)

    def test_json_round_trip(self):
        # Every field, in the key order ``bench`` writes, through JSON text.
        report = make_report(
            [10, 20], [0.1, 0.2], slope=1.0, intercept=-2.0, r2=0.999,
            mode="dense", environment="env", threads=(1, 2),
        )
        data = json.loads(json.dumps(report.to_json_dict()))
        assert list(data.items()) == [
            ("method", "num_bivector"), ("sizes", [10, 20]), ("mean_s", [0.1, 0.2]),
            ("std_s", [0.0, 0.0]), ("slope", 1.0), ("intercept", -2.0), ("r2", 0.999),
            ("repeats", 3), ("seed", 0), ("mode", "dense"), ("threads", [1, 2]),
            ("environment", "env"),
        ]


class TestFitLoglog:
    def test_exact_linear_power_law(self):
        sizes = [10**3, 10**4, 10**5, 10**6]
        report = make_report(sizes, [3.0 * k * 1e-6 for k in sizes])
        fitted = fit_loglog(report)
        assert fitted.slope == pytest.approx(1.0, abs=1e-12)
        assert fitted.r2 == pytest.approx(1.0, abs=1e-12)

    def test_exact_quadratic_power_law(self):
        sizes = [10**2, 10**3, 10**4]
        report = make_report(sizes, [float(k) ** 2 * 1e-9 for k in sizes])
        fitted = fit_loglog(report)
        assert fitted.slope == pytest.approx(2.0, abs=1e-12)

    def test_reference_means_fit_linearly(self):
        # Published per-size means of the one-forms bracket on meshes of
        # 10^3..10^7 points: the fit must be tightly linear.
        report = make_report(g.ONE_FORMS_REFERENCE_SIZES,
                             g.ONE_FORMS_REFERENCE_MEANS)
        fitted = fit_loglog(report)
        assert fitted.slope == pytest.approx(0.99, abs=0.02)
        assert fitted.r2 > 0.999

    def test_constant_means_give_unit_r2(self):
        report = make_report([10, 100], [0.5, 0.5])
        fitted = fit_loglog(report)
        assert fitted.slope == pytest.approx(0.0, abs=1e-12)
        assert fitted.r2 == 1.0

    def test_single_size_rejected(self):
        with pytest.raises(MultivectorError, match="at least 2"):
            fit_loglog(make_report([1000], [0.1]))


class TestTimeMethod:
    def test_single_repeat_reports_zero_std(self):
        case = bench.benchmark_suite()["num_bivector"]
        report = time_method(case, [100, 200], repeats=1, seed=2)
        assert report.std_s == (0.0, 0.0)
        assert report.slope is None

    def test_monotone_means_across_decades(self):
        case = bench.benchmark_suite()["num_bivector"]
        report = time_method(case, [200, 20000], repeats=3, seed=3)
        assert report.mean_s[1] > report.mean_s[0]

    def test_records_timing_builds_data(self, monkeypatch):
        # A records call keeps columns; the timed region also covers the
        # dicts a caller gets, once per call (warm-up included).
        built = []
        build = geometry._records_from_columns

        def counting(result):
            built.append(len(result))
            return build(result)

        monkeypatch.setattr(geometry, "_records_from_columns", counting)
        case = bench.benchmark_suite()["num_hamiltonian_vf"]
        time_method(case, [10, 20], repeats=2, seed=1)
        assert built == [10] * 3 + [20] * 3

    def test_method_errors_propagate(self):
        def broken(mesh):
            raise RuntimeError("boom")

        case = BenchCase("broken", 3, lambda options: broken)
        with pytest.raises(RuntimeError, match="boom"):
            time_method(case, [10, 20], repeats=1, seed=0)

    def test_invalid_repeats(self):
        case = bench.benchmark_suite()["num_bivector"]
        with pytest.raises(MultivectorError, match="repeats"):
            time_method(case, [10], repeats=0, seed=0)

    def test_reports_the_options_it_prepared_with(self):
        # The report's mode is that of the options the factory was given,
        # and the factory runs once, before any timed call.
        suite_case = bench.benchmark_suite()["num_sharp_morphism"]
        given = []

        def factory(options):
            given.append(options)
            return suite_case.factory(options)

        case = BenchCase(suite_case.method, suite_case.dim, factory)
        options = EvalOptions(mode="dense")
        report = fit_loglog(time_method(case, [100, 400], options, repeats=2, seed=4))
        assert given == [options]
        assert report.mode == "dense"
        assert report.method == "num_sharp_morphism"
        assert report.environment == bench.default_environment()
        assert report.slope is not None and report.r2 is not None

    def test_default_options_report_records_single_threaded(self):
        case = bench.benchmark_suite()["num_bivector"]
        report = time_method(case, [10, 20], repeats=1, seed=0)
        assert (report.mode, report.threads) == ("records", (1, 1))

    def test_reports_the_threads_of_each_size(self, monkeypatch):
        # 300,000 points are 19 chunks of 16,384: they run on up to 2 usable
        # cores, and a slope across the two sizes mixes counts.
        case = bench.benchmark_suite()["num_bivector"]
        sizes = (1_000, 300_000)
        for cores, threads in ((1, (1, 1)), (4, (1, 2))):
            monkeypatch.setattr(ev, "_usable_cores", lambda cores=cores: cores)
            report = time_method(case, sizes, EvalOptions(mode="dense"), repeats=1)
            assert report.threads == threads


class TestBenchmarkSuite:
    def test_covers_all_twelve_methods(self):
        suite = bench.benchmark_suite()
        assert len(suite) == 12
        assert set(suite) == {
            "num_bivector", "num_bivector_to_matrix", "num_hamiltonian_vf",
            "num_poisson_bracket", "num_sharp_morphism",
            "num_coboundary_operator", "num_modular_vf", "num_curl_operator",
            "num_one_forms_bracket", "num_gauge_transformation",
            "num_linear_normal_form_r3", "num_flaschka_ratiu_bivector",
        }

    def test_cases_give_the_bits_of_the_explicit_prepare_calls(self):
        # The calls each suite case replaced, coboundary and curl degrees
        # given explicitly; the suite infers them from the coefficient keys.
        b = bench
        explicit = {
            "num_bivector": lambda o: ev.prepare_bivector(b._P3, o, dim=3),
            "num_bivector_to_matrix": lambda o: ev.prepare_bivector_to_matrix(b._E3, o, dim=3),
            "num_hamiltonian_vf": lambda o: ev.prepare_hamiltonian_vf(b._P3, b._H3, o, dim=3),
            "num_poisson_bracket":
                lambda o: ev.prepare_poisson_bracket(b._P3, b._H3, b._G3, o, dim=3),
            "num_sharp_morphism": lambda o: ev.prepare_sharp_morphism(b._P3, b._ALPHA3, o, dim=3),
            "num_coboundary_operator": lambda o: ev.prepare_coboundary_operator(
                b._P3, b._HEAVY_ONE_FORM, o, dim=3, degree=1
            ),
            "num_modular_vf": lambda o: ev.prepare_modular_vf(b._Q3, "exp(x3)", o, dim=3),
            "num_curl_operator": lambda o: ev.prepare_curl_operator(b._Q3, "1", o, dim=3, degree=2),
            "num_one_forms_bracket":
                lambda o: ev.prepare_one_forms_bracket(b._P3, b._ALPHA3, b._BETA3, o, dim=3),
            "num_gauge_transformation":
                lambda o: ev.prepare_gauge_transformation(b._P3, b._LAMBDA3, o, dim=3),
            "num_linear_normal_form_r3": lambda o: ev.prepare_linear_normal_form_r3(b._P3_NEG, o),
            "num_flaschka_ratiu_bivector":
                lambda o: ev.prepare_flaschka_ratiu_bivector(b._CASIMIRS4, 4, o),
        }
        suite = bench.benchmark_suite()
        assert list(suite) == list(explicit)
        for method, case in suite.items():
            assert case.method == method
            assert case.dim == (4 if method == "num_flaschka_ratiu_bivector" else 3)
            mesh = geometry.random_mesh(50, case.dim, seed=5)
            for mode in ("records", "dense"):
                ours = case.factory(EvalOptions(mode=mode))(mesh)
                theirs = explicit[method](EvalOptions(mode=mode))(mesh)
                assert (ours.kind, ours.keys) == (theirs.kind, theirs.keys), (method, mode)
                for x, y in ((ours.columns, theirs.columns), (ours.valid, theirs.valid)):
                    assert (x is None) == (y is None), (method, mode)
                    if x is not None:
                        assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), (method, mode)
                if ours.columns is None:
                    assert ours.data.tobytes() == theirs.data.tobytes(), (method, mode)

    def test_every_case_evaluates(self):
        from poissonmesh.geometry import random_mesh

        for name, case in bench.benchmark_suite().items():
            evaluator = case.factory(EvalOptions())
            mesh = random_mesh(20, case.dim, seed=1)
            result = evaluator(mesh)
            assert len(result.data) == 20, name


class TestMethodCase:
    def test_no_dimension_is_an_error(self):
        with pytest.raises(MultivectorError, match="no input gives a dimension"):
            method_case("num_curl_operator", ("x1*x2", "1"))
        with pytest.raises(MultivectorError, match="no input gives a dimension"):
            method_case("num_flaschka_ratiu_bivector", (["x1", "x2"],))
        with pytest.raises(MultivectorError, match="no input gives a dimension"):
            method_case("num_bivector", (bench._P3,))

    def test_unknown_method_is_an_error(self):
        for name in ("num_everything", "bivector", "prepare_bivector", "num_"):
            with pytest.raises(MultivectorError, match="unknown method"):
                method_case(name, (bench._P3,), 3)

    def test_dimension_from_the_first_multivector_input(self):
        P = geometry.Multivector.build(4, 2, {(1, 2): "x3", (3, 4): "x1"})
        case = method_case("num_hamiltonian_vf", (P, "x1*x4"))
        assert (case.method, case.dim) == ("num_hamiltonian_vf", 4)
        assert case.factory(EvalOptions(mode="dense"))(geometry.random_mesh(5, 4, seed=0)).data.shape == (5, 4)
        # The normal form is on R^3 whatever dim says.
        assert method_case("num_linear_normal_form_r3", (bench._P3_NEG,), 7).dim == 3
