"""End-to-end tests of the command-line interface."""

import filecmp
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import goldens as g
from poissonmesh import bench, cli, geometry
from poissonmesh import evaluate as ev
from poissonmesh.evaluate import EvalOptions
from poissonmesh.geometry import (
    BatchResult,
    Multivector,
    as_mesh,
    random_mesh,
    save_mesh,
)

EXAMPLES = Path(__file__).resolve().parent.parent / "examples_data"


def run_cli(*argv) -> int:
    return cli.main([str(a) for a in argv])


def read_jsonl(path) -> list:
    return [json.loads(line) for line in Path(path).read_text().splitlines()]


def coeffs_to_tuples(obj) -> dict:
    out = {}
    for key, value in obj["coeffs"].items():
        if key == "value":
            out["value"] = value
        else:
            out[tuple(int(p) for p in key.split(","))] = value
    return out


def _poles_bivector(tmp_path) -> Path:
    """A bivector with NaN, +-Infinity and -0.0 entries on ``_poles_mesh``."""
    path = tmp_path / "poles.json"
    path.write_text(
        Multivector.build(3, 2, {(1, 2): "x2/x1", (1, 3): "-x2/x1", (2, 3): "-x2"}).to_json()
    )
    return path


def _poles_mesh(tmp_path) -> Path:
    path = tmp_path / "poles.csv"
    save_mesh(as_mesh([(0.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, -1.0, 0.0)]), str(path))
    return path


def _zero_bivector(tmp_path) -> Path:
    path = tmp_path / "zero.json"
    path.write_text(Multivector.build(3, 2, {}).to_json())
    return path


def _singular_gauge(tmp_path) -> list:
    lam = tmp_path / "lam.json"
    lam.write_text(Multivector.build(3, 2, {(1, 2): "1"}).to_json())
    mesh = tmp_path / "mesh.csv"
    save_mesh(as_mesh([(0.0, 0.0, -1.0), (0.0, 0.0, 1.0)]), str(mesh))
    return ["--bivector", EXAMPLES / "so3.json", "--lam", lam, "--mesh", mesh]


# Every jsonl line shape the CLI writes: eval arguments (without --out) and a
# check on the output lines.
JSONL_CASES = {
    "records": lambda tmp: (
        ["num_bivector", "--dim", 3, "--bivector", EXAMPLES / "so3.json",
         "--mesh", "corners"],
        lambda lines: len(lines) == 8 and all('"coeffs": {"1,2": ' in l for l in lines),
    ),
    "matrix": lambda tmp: (
        ["num_bivector_to_matrix", "--bivector", EXAMPLES / "sl2.json",
         "--mesh", "corners"],
        lambda lines: [json.loads(l)["matrix"] for l in lines]
        == g.SL2_CORNER_MATRICES.tolist(),
    ),
    "poles": lambda tmp: (
        ["num_bivector", "--bivector", _poles_bivector(tmp),
         "--mesh", _poles_mesh(tmp)],
        lambda lines: lines == [
            '{"coeffs": {"1,2": NaN, "1,3": NaN, "2,3": -0.0}}',
            '{"coeffs": {"1,2": Infinity, "1,3": -Infinity, "2,3": -1.0}}',
            '{"coeffs": {"1,2": -Infinity, "1,3": Infinity, "2,3": 1.0}}',
        ],
    ),
    "normal_form_unbound": lambda tmp: (
        ["num_linear_normal_form_r3", "--bivector",
         EXAMPLES / "linear_mixed_r3.json", "--mesh", "corners"],
        lambda lines: [coeffs_to_tuples(json.loads(l)) for l in lines]
        == g.NORMAL_FORM_RECORDS
        and any(isinstance(v, str) for l in lines for v in json.loads(l)["coeffs"].values()),
    ),
    "normal_form_trivial": lambda tmp: (
        ["num_linear_normal_form_r3", "--bivector", _zero_bivector(tmp),
         "--mesh", "corners"],
        lambda lines: lines == ['{"coeffs": {}}'] * 8,
    ),
    "gauge_singular": lambda tmp: (
        ["num_gauge_transformation", *_singular_gauge(tmp)],
        lambda lines: lines[0]
        == '{"coeffs": {"1,2": NaN, "1,3": NaN, "2,3": NaN}, "valid": false}'
        and lines[1].endswith(', "valid": true}'),
    ),
}


class TestEval:
    def test_bivector_corner_records(self, tmp_path, capsys):
        out = tmp_path / "so3.jsonl"
        code = run_cli(
            "eval", "num_bivector", "--dim", 3,
            "--bivector", EXAMPLES / "so3.json",
            "--mesh", "corners", "--out", out,
        )
        assert code == 0
        summary = capsys.readouterr().out
        assert "8 points" in summary and "0 non-finite" in summary
        for phase in ("prepare", "load", "eval", "write"):
            assert f"{phase} " in summary
        rows = read_jsonl(out)
        assert len(rows) == 8
        for row, expected in zip(rows, g.SO3_CORNER_RECORDS):
            got = coeffs_to_tuples(row)
            assert set(got) == set(expected)
            for key, val in expected.items():
                assert got[key] == pytest.approx(val, abs=1e-9)

    @pytest.mark.parametrize("case", sorted(JSONL_CASES))
    def test_jsonl_round_trip_byte_identical(self, tmp_path, case):
        argv, expected = JSONL_CASES[case](tmp_path)
        out = tmp_path / "out.jsonl"
        assert run_cli("eval", *argv, "--out", out) == 0
        lines = out.read_text().splitlines()
        for line in lines:
            assert json.dumps(json.loads(line)) == line
        assert expected(lines)

    def test_csv_non_finite_and_negative_zero(self, tmp_path):
        out_csv = tmp_path / "out.csv"
        out_npy = tmp_path / "out.npy"
        for out in (out_csv, out_npy):
            assert run_cli(
                "eval", "num_bivector", "--bivector", _poles_bivector(tmp_path),
                "--mesh", _poles_mesh(tmp_path), "--out", out,
            ) == 0
        expected = "".join(
            ",".join(f"{v:.17g}" for v in row) + "\n"
            for row in np.load(out_npy).reshape(3, -1)
        )
        assert out_csv.read_text() == expected
        assert out_csv.read_text().splitlines()[0] == "0,nan,nan,nan,0,-0,nan,0,0"
        assert {"inf", "-inf"} <= set(out_csv.read_text().replace("\n", ",").split(","))

    def test_matrix_form_npy(self, tmp_path):
        out = tmp_path / "sl2.npy"
        assert run_cli(
            "eval", "num_bivector_to_matrix",
            "--bivector", EXAMPLES / "sl2.json",
            "--mesh", "corners", "--out", out,
        ) == 0
        assert np.array_equal(np.load(out), g.SL2_CORNER_MATRICES)

    def test_hamiltonian_golden_via_files(self, tmp_path):
        out = tmp_path / "ham.npy"
        assert run_cli(
            "eval", "num_hamiltonian_vf",
            "--bivector", EXAMPLES / "canonical_r6.json",
            "--h", "@" + str(EXAMPLES / "hamiltonian_r6.txt"),
            "--mesh", EXAMPLES / "hamiltonian_mesh_r6.csv",
            "--out", out,
        ) == 0
        rows = np.load(out)
        assert rows.shape == (64, 6)
        assert rows[0] == pytest.approx(g.HAMILTONIAN_R6_FIRST_ROW, abs=1e-9)
        assert rows[-1] == pytest.approx(g.HAMILTONIAN_R6_LAST_ROW, abs=1e-9)

    def test_bracket_shortcut_zero_column(self, tmp_path):
        out = tmp_path / "zero.jsonl"
        assert run_cli(
            "eval", "num_poisson_bracket",
            "--bivector", EXAMPLES / "so3.json",
            "--f", "x1", "--g", "x1",
            "--mesh", "corners", "--out", out,
        ) == 0
        assert all(row == {"coeffs": {"value": 0.0}} for row in read_jsonl(out))

    def test_twist_bracket_constant(self, tmp_path):
        out = tmp_path / "bracket.npy"
        assert run_cli(
            "eval", "num_poisson_bracket",
            "--bivector", EXAMPLES / "twist_r6.json",
            "--f", "x6", "--g", "x5",
            "--mesh", EXAMPLES / "x2_unit_mesh_r6.csv",
            "--out", out,
        ) == 0
        assert np.load(out) == pytest.approx([-1.0, -1.0, -1.0], abs=1e-9)

    def test_one_forms_golden(self, tmp_path):
        out = tmp_path / "forms.npy"
        assert run_cli(
            "eval", "num_one_forms_bracket",
            "--bivector", EXAMPLES / "twist_r6.json",
            "--alpha", EXAMPLES / "dx5_r6.json",
            "--beta", EXAMPLES / "dx6_r6.json",
            "--mesh", EXAMPLES / "x2_unit_mesh_r6.csv",
            "--out", out,
        ) == 0
        rows = np.load(out)
        # The second component is 2*x2; the mesh has x2 = 1, -1, 1.
        assert rows[0] == pytest.approx(g.TWIST_ONE_FORMS_AT_X2_ONE, abs=1e-9)
        assert rows[1] == pytest.approx([0, -2, 0, 0, 0, 0], abs=1e-9)
        assert rows[2] == pytest.approx(g.TWIST_ONE_FORMS_AT_X2_ONE, abs=1e-9)

    def test_sharp_zero_field(self, tmp_path):
        out = tmp_path / "sharp.npy"
        assert run_cli(
            "eval", "num_sharp_morphism",
            "--bivector", EXAMPLES / "so3.json",
            "--alpha", EXAMPLES / "radial_one_form_r3.json",
            "--mesh", "corners", "--out", out,
        ) == 0
        assert np.all(np.load(out) == 0.0)

    def test_coboundary_scalar_argument(self, tmp_path):
        out_c = tmp_path / "cob.npy"
        out_h = tmp_path / "ham.npy"
        h = "x1*x2 - x3**2"
        assert run_cli(
            "eval", "num_coboundary_operator",
            "--bivector", EXAMPLES / "so3.json",
            "--argument", h, "--mesh", "corners", "--out", out_c,
        ) == 0
        assert run_cli(
            "eval", "num_hamiltonian_vf",
            "--bivector", EXAMPLES / "so3.json",
            "--h", h, "--mesh", "corners", "--out", out_h,
        ) == 0
        assert np.load(out_c) == pytest.approx(np.load(out_h), abs=1e-9)

    def test_curl_with_multivector_argument(self, tmp_path):
        out = tmp_path / "curl.npy"
        assert run_cli(
            "eval", "num_curl_operator",
            "--argument", EXAMPLES / "sl2.json",
            "--mesh", "corners", "--out", out,
        ) == 0
        assert np.all(np.load(out) == 0.0)

    def test_modular_golden_point(self, tmp_path):
        mesh_path = tmp_path / "pt.csv"
        save_mesh(as_mesh([g.QUARTIC_SO3_MODULAR_POINT]), str(mesh_path))
        out = tmp_path / "modular.npy"
        assert run_cli(
            "eval", "num_modular_vf",
            "--bivector", EXAMPLES / "quartic_so3.json",
            "--mesh", mesh_path, "--out", out,
        ) == 0
        assert np.load(out)[0] == pytest.approx(
            g.QUARTIC_SO3_MODULAR_VALUE, abs=1e-9
        )

    def test_gauge_identity_golden(self, tmp_path):
        out = tmp_path / "gauge.npy"
        assert run_cli(
            "eval", "num_gauge_transformation",
            "--bivector", EXAMPLES / "so3.json",
            "--lam", EXAMPLES / "difference_two_form_r3.json",
            "--mesh", "corners", "--out", out,
        ) == 0
        assert np.load(out) == pytest.approx(g.GAUGE_SO3_EXPECTED, abs=1e-9)
        assert np.load(str(out) + ".valid.npy").all()

    def test_gauge_singular_row_marked_invalid(self, tmp_path):
        lam_path = tmp_path / "lam.json"
        lam_path.write_text(Multivector.build(3, 2, {(1, 2): "1"}).to_json())
        mesh_path = tmp_path / "mesh.csv"
        save_mesh(
            as_mesh([(0.0, 0.0, -1.0), (0.0, 0.0, 1.0)]), str(mesh_path)
        )
        out = tmp_path / "gauge.jsonl"
        code = run_cli(
            "eval", "num_gauge_transformation",
            "--bivector", EXAMPLES / "so3.json",
            "--lam", lam_path, "--mesh", mesh_path, "--out", out,
        )
        assert code == 0
        rows = read_jsonl(out)
        assert rows[0]["valid"] is False
        assert rows[1]["valid"] is True
        assert rows[1]["coeffs"]["1,2"] == pytest.approx(0.5)

    def test_normal_form_residual_records(self, tmp_path):
        out = tmp_path / "nf.jsonl"
        assert run_cli(
            "eval", "num_linear_normal_form_r3",
            "--bivector", EXAMPLES / "linear_mixed_r3.json",
            "--mesh", "corners", "--out", out,
        ) == 0
        rows = [coeffs_to_tuples(row) for row in read_jsonl(out)]
        assert rows == g.NORMAL_FORM_RECORDS

    def test_normal_form_with_bound_modulus(self, tmp_path):
        out = tmp_path / "nf.jsonl"
        assert run_cli(
            "eval", "num_linear_normal_form_r3",
            "--bivector", EXAMPLES / "linear_mixed_r3.json",
            "--param", "a=1",
            "--mesh", "corners", "--out", out,
        ) == 0
        rows = [coeffs_to_tuples(row) for row in read_jsonl(out)]
        assert rows == g.NORMAL_FORM_RECORDS_AT_A1

    def test_flaschka_ratiu_from_casimir_file(self, tmp_path):
        out = tmp_path / "fr.jsonl"
        assert run_cli(
            "eval", "num_flaschka_ratiu_bivector",
            "--casimir", "@" + str(EXAMPLES / "casimirs_r4.txt"),
            "--dim", 4, "--mesh", "corners", "--out", out,
        ) == 0
        rows = read_jsonl(out)
        assert len(rows) == 16
        for row, expected in zip(rows, g.FLASCHKA_RATIU_RECORDS):
            got = coeffs_to_tuples(row)
            for key, val in expected.items():
                assert got[key] == pytest.approx(val, abs=1e-9)

    def test_csv_output_matches_npy(self, tmp_path):
        out_csv = tmp_path / "ham.csv"
        out_npy = tmp_path / "ham.npy"
        for out in (out_csv, out_npy):
            assert run_cli(
                "eval", "num_hamiltonian_vf",
                "--bivector", EXAMPLES / "so3.json",
                "--h", "x1*x2", "--mesh", "corners", "--out", out,
            ) == 0
        csv_rows = np.loadtxt(out_csv, delimiter=",")
        assert np.array_equal(csv_rows, np.load(out_npy))

    def test_worker_count_gives_identical_files(self, tmp_path):
        mesh_path = tmp_path / "mesh.npy"
        assert run_cli(
            "mesh", "random", "--k", 5000, "--dim", 3, "--seed", 9,
            "--out", mesh_path,
        ) == 0
        outs = []
        for workers in (1, 4):
            out = tmp_path / f"out_{workers}.npy"
            assert run_cli(
                "eval", "num_hamiltonian_vf",
                "--bivector", EXAMPLES / "sl2.json",
                "--h", "x1**2 + x2**2 - x3**2",
                "--workers", workers,
                "--mesh", mesh_path, "--out", out,
            ) == 0
            outs.append(out)
        assert filecmp.cmp(outs[0], outs[1], shallow=False)


@pytest.mark.parametrize("writer", ["save_mesh", "write_result"])
@pytest.mark.parametrize("suffix", [".csv", ".npy"])
def test_failed_write_keeps_old_file(tmp_path, monkeypatch, writer, suffix):
    target = tmp_path / f"out{suffix}"
    target.write_bytes(b"old bytes\n")

    def fail_midway(fh, *args, **kwargs):
        fh.write(b"partial")
        raise OSError("disk full")

    if suffix == ".csv":  # the csv writer save_mesh and write_result share
        monkeypatch.setattr(geometry, "_write_csv", fail_midway)
    else:
        monkeypatch.setattr(np, "save", fail_midway)
    with pytest.raises(OSError, match="disk full"):
        if writer == "save_mesh":
            save_mesh(as_mesh([(0.0, 1.0)]), str(target))
        else:
            result = BatchResult("scalar", np.zeros(2), valid=np.ones(2, dtype=bool))
            cli.write_result(result, str(target), suffix[1:])
    assert target.read_bytes() == b"old bytes\n"
    assert [p.name for p in tmp_path.iterdir()] == [target.name]


def suite_results(k: int) -> list:
    """Every benchmark-suite method in both modes, plus the residual-text
    normal form and an empty-keys result, on k points."""
    results = []
    for case in bench.benchmark_suite().values():
        mesh = random_mesh(k, case.dim, seed=k)
        for mode in ("records", "dense"):
            results.append(case.factory(EvalOptions(mode=mode))(mesh))
    mesh = random_mesh(k, 3, seed=k)
    results.append(ev.num_linear_normal_form_r3(g.LINEAR_MIXED_R3, mesh))
    results.append(ev.num_modular_vf(g.SO3, "1", mesh, dim=3))
    return results


def reference_jsonl(result: BatchResult) -> str:
    """``json.dumps`` of each record or dense row, one per line."""
    if result.kind != "records":
        name = "value" if result.kind == "scalar" else result.kind
        return "".join(json.dumps({name: row}) + "\n" for row in result.data.tolist())
    lines = []
    for record in result.data:
        obj = {"coeffs": {
            ",".join(map(str, key)) if isinstance(key, tuple) else key: record[key]
            for key in result.keys
        }}
        if result.valid is not None:
            obj["valid"] = record["valid"]
        lines.append(json.dumps(obj) + "\n")
    return "".join(lines)


class TestColumnarOutput:
    def test_len_and_writers_never_build_records(self, tmp_path, monkeypatch):
        results = suite_results(40)

        def refuse(result):
            raise AssertionError("the records were built")

        monkeypatch.setattr(geometry, "_records_from_columns", refuse)
        for result in results:
            assert len(result) == 40
            cli.write_result(result, str(tmp_path / "out.jsonl"), "jsonl")
            if result.kind != "records":
                cli.write_result(result, str(tmp_path / "out.csv"), "csv")

    def test_text_identical_across_chunk_boundaries(self, tmp_path, monkeypatch):
        # 70 rows in chunks of at most 48 values: 16 rows of a 3-value result,
        # 5 of a 9-value matrix, so full chunks and a partial one, each
        # byte-identical to formatting the rows one at a time.
        results = suite_results(70)
        monkeypatch.setattr(geometry, "_CHUNK_VALUES", 48)
        out, ref = tmp_path / "out", tmp_path / "ref"
        for result in results:
            cli.write_result(result, str(out), "jsonl")
            assert out.read_text() == reference_jsonl(result)
            if result.kind != "records":
                cli.write_result(result, str(out), "csv")
                rows = result.data.reshape(70, -1)
                np.savetxt(ref, rows, fmt="%.17g", delimiter=",")
                assert out.read_bytes() == ref.read_bytes()


class TestExitCodes:
    def test_missing_input_file_is_io_failure(self, tmp_path):
        code = run_cli(
            "eval", "num_bivector", "--dim", 3,
            "--bivector", tmp_path / "absent.json",
            "--mesh", "corners", "--out", tmp_path / "out.jsonl",
        )
        assert code == cli.EXIT_IO

    def test_bad_expression_is_parse_failure(self, tmp_path):
        code = run_cli(
            "eval", "num_hamiltonian_vf",
            "--bivector", EXAMPLES / "so3.json",
            "--h", "x1 +* 2",
            "--mesh", "corners", "--out", tmp_path / "out.jsonl",
        )
        assert code == cli.EXIT_PARSE

    def test_unbound_parameter(self, tmp_path):
        code = run_cli(
            "eval", "num_hamiltonian_vf",
            "--bivector", EXAMPLES / "so3.json",
            "--h", "c*x1",
            "--mesh", "corners", "--out", tmp_path / "out.jsonl",
        )
        assert code == cli.EXIT_UNBOUND_PARAMETER

    def test_mesh_dimension_mismatch(self, tmp_path):
        mesh_path = tmp_path / "mesh4.csv"
        assert run_cli(
            "mesh", "random", "--k", 10, "--dim", 4, "--seed", 1,
            "--out", mesh_path,
        ) == 0
        code = run_cli(
            "eval", "num_bivector",
            "--bivector", EXAMPLES / "so3.json",
            "--mesh", mesh_path, "--out", tmp_path / "out.jsonl",
        )
        assert code == cli.EXIT_DIMENSION

    def test_missing_required_flag_is_validation(self, tmp_path):
        code = run_cli(
            "eval", "num_hamiltonian_vf",
            "--bivector", EXAMPLES / "so3.json",
            "--mesh", "corners", "--out", tmp_path / "out.jsonl",
        )
        assert code == cli.EXIT_VALIDATION

    def test_nonlinear_normal_form_input_is_validation(self, tmp_path):
        code = run_cli(
            "eval", "num_linear_normal_form_r3",
            "--bivector", EXAMPLES / "quartic_so3.json",
            "--mesh", "corners", "--out", tmp_path / "out.jsonl",
        )
        assert code == cli.EXIT_VALIDATION

    def test_very_long_expression_is_validation(self, tmp_path, capsys):
        h = tmp_path / "h.txt"
        h.write_text(" + ".join(f"x1*x2**{i}" for i in range(1000)) + "\n")
        out = tmp_path / "out.jsonl"
        code = run_cli(
            "eval", "num_hamiltonian_vf",
            "--bivector", EXAMPLES / "so3.json",
            "--h", f"@{h}",
            "--mesh", "corners", "--out", out,
        )
        assert code == cli.EXIT_VALIDATION
        assert "nested too deeply" in capsys.readouterr().err
        assert not out.exists()

    def test_no_output_file_on_failure(self, tmp_path):
        out = tmp_path / "out.jsonl"
        run_cli(
            "eval", "num_hamiltonian_vf",
            "--bivector", EXAMPLES / "so3.json",
            "--h", "c*x1",
            "--mesh", "corners", "--out", out,
        )
        assert not out.exists()

    @pytest.mark.parametrize("workers", [0, -3])
    def test_bad_worker_count_is_validation(self, tmp_path, capsys, workers):
        out = tmp_path / "out.npy"
        code = run_cli(
            "eval", "num_bivector", "--dim", 3,
            "--bivector", EXAMPLES / "so3.json",
            "--mesh", "corners", "--out", out, "--workers", workers,
        )
        assert code == cli.EXIT_VALIDATION
        assert "workers" in capsys.readouterr().err
        assert not out.exists()
        code = run_cli(
            "bench", "--method", "num_bivector", "--sizes", "100,200",
            "--repeats", 1, "--out", tmp_path / "report.json", "--workers", workers,
        )
        assert code == cli.EXIT_VALIDATION
        assert not (tmp_path / "report.json").exists()

    def test_non_integer_worker_count_rejected_by_parser(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            run_cli("eval", "num_bivector", "--dim", 3,
                    "--bivector", EXAMPLES / "so3.json", "--mesh", "corners",
                    "--out", tmp_path / "out.npy", "--workers", "2.5")
        assert err.value.code == 2

    def test_unknown_method_rejected_by_parser(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            run_cli("eval", "num_everything", "--mesh", "corners",
                    "--out", tmp_path / "x")
        assert err.value.code == 2


class TestMesh:
    def test_corners_golden_order(self, tmp_path):
        out = tmp_path / "q3.csv"
        assert run_cli("mesh", "corners", "--dim", 3, "--out", out) == 0
        rows = np.loadtxt(out, delimiter=",")
        assert np.array_equal(rows, np.array(g.CORNERS_3))

    def test_random_mesh_deterministic_files(self, tmp_path):
        a, b = tmp_path / "a.npy", tmp_path / "b.npy"
        for out in (a, b):
            assert run_cli(
                "mesh", "random", "--k", 500, "--dim", 3, "--seed", 7,
                "--out", out,
            ) == 0
        assert filecmp.cmp(a, b, shallow=False)

    def test_zero_points_is_validation_error(self, tmp_path):
        code = run_cli(
            "mesh", "random", "--k", 0, "--dim", 3,
            "--out", tmp_path / "m.csv",
        )
        assert code == cli.EXIT_VALIDATION


class TestBench:
    def test_report_schema(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = run_cli(
            "bench", "--method", "num_bivector",
            "--sizes", "200,400", "--repeats", 2, "--seed", 5,
            "--out", out,
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert set(report) == {
            "method", "sizes", "mean_s", "std_s", "slope", "intercept",
            "r2", "repeats", "seed", "workers", "mode", "environment",
        }
        assert report["mode"] == "records"
        assert "num_bivector (records): slope=" in capsys.readouterr().out
        assert report["method"] == "num_bivector"
        assert report["sizes"] == [200, 400]
        assert len(report["mean_s"]) == 2
        assert all(m > 0 for m in report["mean_s"])
        assert 0.0 <= report["r2"] <= 1.0

    def test_custom_inputs(self, tmp_path):
        out = tmp_path / "report.json"
        code = run_cli(
            "bench", "--method", "num_bivector",
            "--bivector", EXAMPLES / "so3.json",
            "--sizes", "100,300", "--repeats", 1, "--out", out,
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["std_s"] == [0.0, 0.0]

    def test_single_size_rejected(self, tmp_path):
        code = run_cli(
            "bench", "--method", "num_bivector",
            "--sizes", "1000", "--out", tmp_path / "report.json",
        )
        assert code == cli.EXIT_VALIDATION


def test_module_entry_point(tmp_path):
    out = tmp_path / "mesh.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "poissonmesh.cli", "mesh", "corners",
         "--dim", "2", "--out", str(out)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert out.exists()
