"""End-to-end tests of the command-line interface."""

import argparse
import ast
import filecmp
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import goldens as g
from poissonmesh import bench, cli, geometry
from poissonmesh import evaluate as ev
from poissonmesh.evaluate import EvalOptions
from poissonmesh.expressions import ExpressionError, UnboundParameterError, parse
from poissonmesh.geometry import (
    BatchResult,
    Multivector,
    as_mesh,
    corners_mesh,
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
        assert "8 points" in summary and summary.endswith(" 0 non-finite\n")
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

    @pytest.mark.parametrize("fmt", ["npy", "csv", "jsonl"])
    def test_result_without_mask_removes_an_earlier_mask(self, tmp_path, fmt):
        # The gauge's mask would otherwise sit beside a file it does not describe.
        out = tmp_path / "o.npy"
        assert run_cli(
            "eval", "num_gauge_transformation",
            "--bivector", EXAMPLES / "so3.json",
            "--lam", EXAMPLES / "difference_two_form_r3.json",
            "--mesh", "corners", "--out", out,
        ) == 0
        assert np.load(str(out) + ".valid.npy").shape == (8,)
        cli.write_result(ev.num_bivector_to_matrix(g.SO3, corners_mesh(3), dim=3), str(out), fmt)
        if fmt == "npy":
            assert np.load(out).shape == (8, 3, 3)
        else:
            assert len(out.read_text().splitlines()) == 8
        assert not Path(str(out) + ".valid.npy").exists()

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

    @pytest.mark.parametrize("chunks", [0, 16])
    def test_summary_names_the_threads(self, tmp_path, capsys, chunks):
        # By default a call runs on the usable cores, one thread per 8 of
        # its 16,384-point chunks: the corners' 8 points on one thread.
        if chunks:
            mesh = tmp_path / "mesh.npy"
            save_mesh(random_mesh(chunks * 16384, 3, seed=5), str(mesh))
        affinity = getattr(os, "sched_getaffinity", None)
        cores = len(affinity(0)) if affinity else os.cpu_count()
        assert run_cli(
            "eval", "num_bivector", "--bivector", EXAMPLES / "so3.json", "--dim", 3,
            "--mesh", mesh if chunks else "corners", "--out", tmp_path / "out.npy",
        ) == 0
        summary = capsys.readouterr().out
        threads = min(cores, 2) if chunks else 1
        assert re.search(
            rf", eval and write [0-9.]+ s on {threads} thread{'s' if threads > 1 else ''}, ", summary
        ), summary
        assert summary.endswith(" 0 non-finite\n")

    def test_gauge_summary_counts_invalid_points(self, tmp_path, capsys):
        out = tmp_path / "gauge.jsonl"
        assert run_cli(
            "eval", "num_gauge_transformation", *_singular_gauge(tmp_path), "--out", out
        ) == 0
        assert capsys.readouterr().out.endswith(" 0 non-finite, 1 invalid\n")

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

    def test_worker_count_gives_identical_files(self, tmp_path, monkeypatch, capsys):
        mesh_path = tmp_path / "mesh.npy"
        assert run_cli(
            "mesh", "random", "--k", 5000, "--dim", 3, "--seed", 9,
            "--out", mesh_path,
        ) == 0
        # 10 chunks of 512 points, one thread per chunk up to the cores.
        monkeypatch.setattr(ev, "_CHUNK_ROWS", 512)
        monkeypatch.setattr(ev, "_CHUNKS_PER_THREAD", 1)
        outs = []
        for cores in (1, 2, 4):
            monkeypatch.setattr(ev, "_usable_cores", lambda cores=cores: cores)
            out = tmp_path / f"out_{cores}.npy"
            capsys.readouterr()
            assert run_cli(
                "eval", "num_hamiltonian_vf",
                "--bivector", EXAMPLES / "sl2.json",
                "--h", "x1**2 + x2**2 - x3**2",
                "--mesh", mesh_path, "--out", out,
            ) == 0
            assert f" on {cores} thread{'s' * (cores > 1)}, " in capsys.readouterr().out
            outs.append(out)
        assert filecmp.cmp(outs[0], outs[1], shallow=False)
        assert filecmp.cmp(outs[0], outs[2], shallow=False)


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
    elif writer == "save_mesh":
        monkeypatch.setattr(np, "save", fail_midway)
    else:  # a result's npy is streamed, a chunk at a time
        monkeypatch.setattr(geometry, "_write_npy", fail_midway)
    with pytest.raises(OSError, match="disk full"):
        if writer == "save_mesh":
            save_mesh(as_mesh([(0.0, 1.0)]), str(target))
        else:
            result = BatchResult("scalar", np.zeros(2), valid=np.ones(2, dtype=bool))
            cli.write_result(result, str(target), suffix[1:])
    assert target.read_bytes() == b"old bytes\n"
    assert [p.name for p in tmp_path.iterdir()] == [target.name]


def test_cli_imports_no_private_geometry_name():
    # The line, slot and chunk layout of the output files stays in geometry.
    tree = ast.parse(Path(cli.__file__).read_text())
    private = [
        alias.name for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module in ("geometry", "poissonmesh.geometry")
        for alias in node.names if alias.name.startswith("_")
    ]
    assert private == []


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
    """``json.dumps`` of each record or dense row, one per line, with its
    ``"valid"`` flag when the result has a mask."""
    if result.kind != "records":
        name = "value" if result.kind == "scalar" else result.kind
        flags = [None] * len(result) if result.valid is None else result.valid.tolist()
        return "".join(
            json.dumps({name: row} if flag is None else {name: row, "valid": flag}) + "\n"
            for row, flag in zip(result.data.tolist(), flags)
        )
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


# Values whose repr is easy to get wrong: signed zero, the smallest
# subnormal, the switch to exponent notation at 1e16 and 1e-5, and the
# extremes of the exponent range.
REPR_EDGES = [-0.0, 5e-324, 0.1, 1e16, 9999999999999998.0, 1e-5, 1e22, -1.5e-300]


def _edge_block(*shape) -> np.ndarray:
    return np.resize(np.array(REPR_EDGES), shape)


def _records(columns, keys=None, valid=None) -> BatchResult:
    keys = [(i + 1, i + 2) for i in range(len(columns))] if keys is None else keys
    return BatchResult("records", keys=tuple(keys), columns=columns, valid=valid)


def _with_poles(columns: np.ndarray, *poles) -> np.ndarray:
    """``columns`` with each (row, column, value) of ``poles`` written in."""
    columns = columns.copy()
    for row, col, value in poles:
        columns[col, row] = value
    return columns


def _valid_mask(k: int, *invalid) -> np.ndarray:
    valid = np.ones(k, dtype=bool)
    valid[list(invalid)] = False
    return valid


def _antisymmetric(k: int, m: int) -> np.ndarray:
    """A (k, m, m) block as the evaluator lays one out: the repr edges in
    each upper entry, their ``np.negative`` below it, +0.0 on the diagonal."""
    block = np.zeros((k, m, m))
    upper = [(i, j) for i in range(m) for j in range(i + 1, m)]
    for (i, j), column in zip(upper, _edge_block(len(upper), k + 3)[:, 3:]):
        block[:, i, j] = column
        np.negative(column, out=block[:, j, i])
    return block


def _with_entries(block: np.ndarray, *entries) -> np.ndarray:
    """``block`` with each (row, i, j, value) of ``entries`` written in."""
    block = block.copy()
    for row, i, j, value in entries:
        block[row, i, j] = value
    return block


def _with_upper(block: np.ndarray, *entries) -> np.ndarray:
    """``block`` with each (row, i, j, value) of ``entries`` written in
    above the diagonal and its ``np.negative`` below it."""
    return _with_entries(block, *entries, *(
        (row, j, i, np.negative(value)) for row, i, j, value in entries
    ))


def _constant_columns(k: int) -> np.ndarray:
    """Columns of 0.0, -0.0, NaN and 1e16, then one of the repr edges."""
    return np.vstack((np.repeat([[0.0], [-0.0], [np.nan], [1e16]], k, axis=1), _edge_block(1, k)))


def _residual_text_columns() -> np.ndarray:
    columns = _edge_block(2, 40).astype(object)
    columns[0, 17] = "2.0*a*x1"
    columns[1, 30] = "-x3/b"
    return columns


# Hand-built results for the jsonl writer.  At 48 values a chunk, a
# 3-column record result has 16 rows a chunk, so poles at rows 20 and 40
# put a finite chunk before and after each non-finite one.  A 3x3 matrix
# has 5 rows a chunk and a 4x4 one 3, so the matrix cases below put a pole,
# an invalid row or a row that is not antisymmetric inside a chunk whose
# other rows are.
WRITER_CASES = {
    "repr_edges": lambda: _records(_edge_block(3, 40)),
    "nan_chunk": lambda: _records(_with_poles(_edge_block(3, 64), (20, 1, np.nan))),
    "infinity_chunk": lambda: _records(
        _with_poles(_edge_block(3, 64), (40, 0, np.inf), (41, 2, -np.inf))
    ),
    "valid_all_true": lambda: _records(_edge_block(3, 30), valid=_valid_mask(30)),
    # Finite values in an invalid row: the evaluator writes NaN there, so
    # only a hand-built result has this.
    "invalid_finite_row": lambda: _records(_edge_block(3, 30), valid=_valid_mask(30, 13)),
    "invalid_nan_row": lambda: _records(
        _with_poles(_edge_block(3, 30), (25, 0, np.nan), (25, 1, np.nan), (25, 2, np.nan)),
        valid=_valid_mask(30, 25),
    ),
    "residual_text": lambda: _records(_residual_text_columns()),
    "zero_keys": lambda: _records(np.empty((0, 30)), keys=()),
    "zero_keys_valid": lambda: _records(np.empty((0, 30)), keys=(), valid=_valid_mask(30, 4)),
    "value_key": lambda: _records(_edge_block(1, 100), keys=("value",)),
    "records_k0": lambda: _records(np.empty((3, 0)), valid=np.ones(0, dtype=bool)),
    "scalar": lambda: BatchResult("scalar", _edge_block(100)),
    "scalar_poles": lambda: BatchResult(
        "scalar", _with_poles(_edge_block(1, 100), (50, 0, np.nan), (99, 0, -np.inf))[0]
    ),
    "vector": lambda: BatchResult("vector", _edge_block(40, 3)),
    "vector_poles": lambda: BatchResult(
        "vector", _with_poles(_edge_block(3, 40), (17, 2, np.inf)).T
    ),
    "matrix": lambda: BatchResult("matrix", _edge_block(20, 3, 3)),
    "matrix_poles": lambda: BatchResult(
        "matrix", np.where(np.arange(180).reshape(20, 3, 3) == 100, np.nan, _edge_block(20, 3, 3))
    ),
    "matrix_k0": lambda: BatchResult("matrix", np.empty((0, 3, 3))),
    "antisymmetric_m3_poles": lambda: BatchResult("matrix", _with_upper(
        _antisymmetric(20, 3), (7, 0, 1, np.nan), (8, 0, 2, np.inf), (12, 1, 2, -np.inf)
    )),
    "antisymmetric_m4_poles": lambda: BatchResult("matrix", _with_upper(
        _antisymmetric(20, 4), (4, 0, 3, np.nan), (5, 1, 2, np.inf), (10, 2, 3, -np.inf)
    )),
    # -0.0 above the diagonal and +0.0 below it, in every row of (1, 2).
    "antisymmetric_negative_zero": lambda: BatchResult("matrix", _with_upper(
        _antisymmetric(20, 3), *((row, 0, 1, -0.0) for row in range(20))
    )),
    # The evaluator writes neither side of an absent key: +0.0 both sides.
    "antisymmetric_absent_key": lambda: BatchResult("matrix", _with_entries(
        _antisymmetric(20, 4), *((row, i, j, 0.0) for row in range(20) for i, j in ((1, 3), (3, 1)))
    )),
    # A gauge-invalid row is NaN throughout, the diagonal too.
    "antisymmetric_invalid_row": lambda: BatchResult("matrix", _with_entries(
        _antisymmetric(20, 3), *((7, i, j, np.nan) for i in range(3) for j in range(3))
    ), valid=_valid_mask(20, 7)),
    "antisymmetry_broken_in_one_row": lambda: BatchResult("matrix", _with_entries(
        _antisymmetric(20, 3), (6, 1, 0, 0.1)
    )),
    "records_constant_columns": lambda: _records(
        _with_poles(_constant_columns(30), *((20, c, np.nan) for c in range(5))),
        valid=_valid_mask(30, 20),
    ),
    "vector_constant_columns": lambda: BatchResult("vector", _constant_columns(40).T),
    # 48 rows a chunk: one chunk of each constant, then a chunk of edges.
    "scalar_constant_chunks": lambda: BatchResult("scalar", _constant_columns(48).ravel()),
    "vector_float32": lambda: BatchResult("vector", _edge_block(40, 3).astype(np.float32)),
    "scalar_int64": lambda: BatchResult("scalar", np.arange(-50, 50)),
    # json.dumps writes true where a bare %s fill would write True.
    "scalar_bool": lambda: BatchResult("scalar", np.arange(100) % 3 == 0),
    # 3 values and a flag a row: rows 5 (a NaN, valid) and 8 (invalid) share
    # the first 48-value chunk.
    "pole_and_invalid_row": lambda: _records(
        _with_poles(_edge_block(3, 30), (5, 1, np.nan), *((8, c, np.nan) for c in range(3))),
        valid=_valid_mask(30, 8),
    ),
}


def _all_finite(result: BatchResult) -> bool:
    block = result.columns if result.kind == "records" else result.data
    return (
        block.dtype == np.float64
        and bool(np.isfinite(block).all())
        and (result.valid is None or bool(result.valid.all()))
    )


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

    @pytest.mark.parametrize("case", sorted(WRITER_CASES))
    def test_both_writer_paths_match_json_dumps(self, tmp_path, monkeypatch, case):
        # At 48 values a chunk, float64 chunks, with or without poles, invalid
        # rows, constant or mirrored columns, go through the float kernel, and
        # chunks of text or other dtypes through json.dumps tokens.
        monkeypatch.setattr(geometry, "_CHUNK_VALUES", 48)
        result = WRITER_CASES[case]()
        out = tmp_path / "out.jsonl"
        cli.write_result(result, str(out), "jsonl")
        assert out.read_text() == reference_jsonl(result)
        if result.kind != "records":
            ref = tmp_path / "ref.csv"
            cli.write_result(result, str(out), "csv")
            rows = result.data.reshape(len(result), math.prod(result.data.shape[1:]))
            np.savetxt(ref, rows, fmt="%.17g", delimiter=",")
            assert out.read_bytes() == ref.read_bytes()

    def test_finite_results_never_tokenized(self, tmp_path, monkeypatch):
        # Every float64 chunk, poles and invalid rows included, is written by
        # the float kernel; only other dtypes take the json.dumps token path.
        def refuse(block, pieces, flags=None):
            raise AssertionError("a chunk was tokenized")

        monkeypatch.setattr(geometry, "_CHUNK_VALUES", 48)
        monkeypatch.setattr(geometry, "_token_text", refuse)
        out = tmp_path / "out.jsonl"
        results = [r for r in suite_results(70) if (
            r.columns if r.kind == "records" else r.data).dtype == np.float64]
        assert len(results) == 25  # all but the residual-text normal form
        assert sum(_all_finite(r) for r in results) == 25
        results += [WRITER_CASES[case]() for case in (
            "nan_chunk", "infinity_chunk", "invalid_nan_row", "pole_and_invalid_row",
            "antisymmetric_invalid_row", "records_constant_columns",
        )]
        for result in results:
            cli.write_result(result, str(out), "jsonl")
            assert out.read_text() == reference_jsonl(result)
        # The spy sits on the step a residual-text chunk does take.
        with pytest.raises(AssertionError, match="tokenized"):
            cli.write_result(WRITER_CASES["residual_text"](), str(out), "jsonl")

    def test_only_distinct_upper_entries_formatted(self, tmp_path, monkeypatch):
        # Per chunk, an antisymmetric matrix's text needs only the entries on
        # and above the diagonal that are not constant there, value by value,
        # and one value of each constant entry; each entry below reuses its
        # transpose's text.  In the suite's matrices the diagonal is constant.
        calls = []
        float_slots = geometry._float_slots

        def spy(values, style):
            calls.append(values.tolist())
            return float_slots(values, style)

        monkeypatch.setattr(geometry, "_CHUNK_VALUES", 48)
        monkeypatch.setattr(geometry, "_float_slots", spy)
        matrices = [r for r in suite_results(70) if r.kind == "matrix"]
        assert len(matrices) == 7
        matrices += [WRITER_CASES[case]() for case in (
            "antisymmetric_m3_poles", "antisymmetric_m4_poles", "antisymmetric_negative_zero",
            "antisymmetric_absent_key", "antisymmetric_invalid_row",
        )]
        for result in matrices:
            k, m = result.data.shape[:2]
            rows = result.data.reshape(k, m * m)
            lower = {i * m + j for i in range(m) for j in range(i)}
            for fmt in ("jsonl", "csv"):
                # A jsonl line of a masked result also holds its valid flag.
                width = m * m + (fmt == "jsonl" and result.valid is not None)
                expected = []
                for span in geometry._text_chunks(k, width):
                    bits = rows[span].view(np.uint64)
                    varies = (bits != bits[0]).any(axis=0)
                    expected.append(
                        [v for c in range(m * m) if varies[c] and c not in lower
                         for v in rows[span, c].tolist()]
                        + [rows[span][0, c] for c in range(m * m) if not varies[c]]
                    )
                calls.clear()
                cli.write_result(result, str(tmp_path / f"out.{fmt}"), fmt)
                assert [np.array(call).view(np.uint64).tolist() for call in calls] == [
                    np.array(values).view(np.uint64).tolist() for values in expected
                ]


# Multivector files that are valid JSON but not a multivector: a non-object
# "coeffs", "dim" or "degree" that are not JSON integers, a coefficient
# beyond the float64 range or a bool, and keys outside the key rule.
MALFORMED_MULTIVECTORS = {
    "coeffs_number": '{"dim": 3, "degree": 2, "coeffs": 5}',
    "coeffs_list": '{"dim": 3, "degree": 2, "coeffs": ["x1"]}',
    "coeffs_null": '{"dim": 3, "degree": 2, "coeffs": null}',
    "dim_null": '{"dim": null, "degree": 2, "coeffs": {}}',
    "degree_null": '{"dim": 3, "degree": null, "coeffs": {}}',
    "dim_fraction": '{"dim": 3.7, "degree": 2, "coeffs": {"1,2": "x3"}}',
    "dim_float": '{"dim": 3.0, "degree": 2, "coeffs": {"1,2": "x3"}}',
    "degree_fraction": '{"dim": 3, "degree": 2.5, "coeffs": {"1,2": "x3"}}',
    "dim_bool": '{"dim": true, "degree": 2, "coeffs": {}}',
    "dim_string": '{"dim": "3", "degree": 2, "coeffs": {}}',
    "coefficient_beyond_float": '{"dim": 3, "degree": 2, "coeffs": {"1,2": 1%s}}' % ("0" * 400),
    "coefficient_bool": '{"dim": 3, "degree": 2, "coeffs": {"1,2": true}}',
    "document_list": '[3, 2, {}]',
    # A key is ASCII digit runs joined by commas, and no key is written twice.
    "key_with_space_twice": '{"dim": 3, "degree": 2, "coeffs": {"1,2": "x3", "1, 2": "x1"}}',
    "key_with_zero_twice": '{"dim": 3, "degree": 2, "coeffs": {"1,2": "x3", "01,2": "x1"}}',
    "key_underscore_sign": '{"dim": 3, "degree": 2, "coeffs": {"0_1,+2": "x3"}}',
    "key_arabic_digit": '{"dim": 3, "degree": 2, "coeffs": {" 1 , \\u0663": "x2"}}',
    # An index of more digits than Python's int() reads.
    "key_beyond_int_digits": '{"dim": 3, "degree": 1, "coeffs": {"%s": "x1"}}' % ("1" * 5000),
}

_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
# Expressions that parse in R^3, some with a pole on the mesh or a parameter.
_expressions = st.sampled_from(
    ["x1", "x3", "-x2/x1", "a*x1", "sin(x2)**2", "x1**0.5", "log(x2)", "1/0", "1e308*10"]
)
_expression_text = _expressions | st.text(alphabet="x0123456789abe+-*/^()., ", max_size=12)
_multivector_keys = st.sampled_from(
    ["1,2", "1,3", "2,3", "2,1", "1,1", "0,1", "1,4", "1", "1,2,3", "", " 1, 2"]
) | st.text(alphabet="0123456789,-", max_size=5) | st.text(max_size=3)
# Near-valid documents, the same with any JSON value in any field, and any JSON.
_multivector_documents = st.fixed_dictionaries({
    "dim": st.sampled_from([3, 3, 3, 4]),
    "degree": st.sampled_from([2, 2, 2, 1]),
    "coeffs": st.dictionaries(
        st.sampled_from(["1,2", "1,3", "2,3"]), _expressions | st.floats() | st.integers(), max_size=3
    ),
}) | st.fixed_dictionaries({
    "dim": st.just(3) | st.integers() | _json_values,
    "degree": st.just(2) | st.integers() | _json_values,
    "coeffs": st.dictionaries(_multivector_keys, _expression_text | _json_values, max_size=3)
    | _json_values,
}) | _json_values


# Each scalar flag as a method takes it, on R^3.
SCALAR_FLAGS = {
    "h": lambda text: ["num_hamiltonian_vf", "--bivector", EXAMPLES / "so3.json", f"--h={text}"],
    "f0": lambda text: ["num_modular_vf", "--bivector", EXAMPLES / "so3.json", f"--f0={text}"],
    "coboundary_argument": lambda text: [
        "num_coboundary_operator", "--bivector", EXAMPLES / "so3.json", f"--argument={text}"
    ],
    "casimir": lambda text: ["num_flaschka_ratiu_bivector", "--dim", 3, f"--casimir={text}"],
}
# Grammar tokens of the expression language and characters outside it.
_TOKENS = [
    "x1", "x2", "x3", "x4", "x0", "a", "0", "2.5", "1e999", ".5e-3", "+", "-", "*", "/",
    "**", "(", ")", "sin(", "sign(", "foo(", " ", "\t", ",", "$", "\x00", "é", "--", "1.2.3",
]
_scalar_texts = st.recursive(
    st.lists(st.sampled_from(_TOKENS), max_size=6).map("".join),
    lambda inner: st.tuples(inner, st.sampled_from(_TOKENS), inner).map(
        lambda t: f"({t[0]}){t[1]}{t[2]}"
    ),
    max_leaves=8,
)


def exit_code(*argv) -> int:
    """``run_cli``, with argparse's usage error as its exit code."""
    try:
        return run_cli(*argv)
    except SystemExit as exc:
        return exc.code


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

    def test_complex_npy_mesh_is_validation(self, tmp_path, capsys):
        mesh_path = tmp_path / "complex.npy"
        np.save(mesh_path, np.array([[1 + 2j, 0, 1]]))
        out = tmp_path / "out.jsonl"
        code = run_cli(
            "eval", "num_bivector", "--bivector", EXAMPLES / "so3.json",
            "--mesh", mesh_path, "--out", out,
        )
        assert code == cli.EXIT_VALIDATION
        assert "complex" in capsys.readouterr().err
        assert not out.exists()

    def test_structured_npy_mesh_is_validation(self, tmp_path, capsys):
        mesh_path = tmp_path / "structured.npy"
        np.save(mesh_path, np.zeros(4, dtype=[("x1", float), ("x2", float), ("x3", float)]))
        out = tmp_path / "out.jsonl"
        code = run_cli(
            "eval", "num_bivector", "--bivector", EXAMPLES / "so3.json",
            "--mesh", mesh_path, "--out", out,
        )
        assert code == cli.EXIT_VALIDATION
        assert "coordinates must be real numbers" in capsys.readouterr().err
        assert not out.exists()

    def test_empty_npy_mesh_is_validation(self, tmp_path, capsys):
        mesh_path = tmp_path / "empty.npy"
        mesh_path.write_bytes(b"")
        out = tmp_path / "out.npy"
        code = run_cli(
            "eval", "num_bivector", "--bivector", EXAMPLES / "so3.json",
            "--mesh", mesh_path, "--out", out,
        )
        assert code == cli.EXIT_VALIDATION
        assert "error: invalid input: No data left in file" in capsys.readouterr().err
        assert not out.exists()

    def test_ragged_csv_mesh_is_validation(self, tmp_path, capsys):
        mesh_path = tmp_path / "ragged.csv"
        mesh_path.write_text("0,1,2\n3,4\n")
        out = tmp_path / "out.jsonl"
        code = run_cli(
            "eval", "num_bivector", "--bivector", EXAMPLES / "so3.json",
            "--mesh", mesh_path, "--out", out,
        )
        assert code == cli.EXIT_VALIDATION
        assert "error: invalid input" in capsys.readouterr().err
        assert not out.exists()

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

    @pytest.mark.parametrize("case", sorted(MALFORMED_MULTIVECTORS))
    def test_malformed_multivector_json_is_validation(self, tmp_path, case):
        bivector, out = tmp_path / "bad.json", tmp_path / "out.jsonl"
        bivector.write_text(MALFORMED_MULTIVECTORS[case])
        code = run_cli(
            "eval", "num_bivector", "--bivector", bivector,
            "--mesh", _poles_mesh(tmp_path), "--out", out,
        )
        assert code == cli.EXIT_VALIDATION
        assert not out.exists()

    @settings(max_examples=150, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(_multivector_documents)
    @example({"dim": 3, "degree": 2, "coeffs": 5})
    @example({"dim": None, "degree": 2, "coeffs": {}})
    @example({"dim": 3, "degree": 2, "coeffs": {"1,2": 10**400}})
    @example({"dim": 3, "degree": 2, "coeffs": {"1,2": "a*x1", "2,3": "-x2/x1"}})
    def test_any_json_bivector_exits_with_a_documented_code(self, tmp_path, document):
        bivector, mesh = tmp_path / "fuzz.json", tmp_path / "poles.csv"
        bivector.write_text(json.dumps(document))
        if not mesh.exists():
            _poles_mesh(tmp_path)
        code = run_cli(
            "eval", "num_bivector", "--bivector", bivector,
            "--mesh", mesh, "--out", tmp_path / "out.jsonl",
        )
        assert code in (0, 2, 3, 4, 5, 6)

    @pytest.mark.parametrize("flag", sorted(SCALAR_FLAGS))
    def test_unparsable_scalar_is_parse_failure(self, tmp_path, flag):
        out = tmp_path / "out.jsonl"
        code = run_cli("eval", *SCALAR_FLAGS[flag]("x1 +"), "--mesh", "corners", "--out", out)
        assert code == cli.EXIT_PARSE
        assert not out.exists()

    # Expression text from grammar tokens and stray characters, through
    # every scalar flag: a documented exit code, and 3 wherever the text
    # does not parse, except for "--", which argparse cannot take as a value.
    @settings(max_examples=200, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(_scalar_texts)
    @example("--")
    @example("x1 +")
    @example("((x1)")
    def test_any_scalar_text_exits_with_a_documented_code(self, tmp_path, monkeypatch, text):
        monkeypatch.chdir(tmp_path)  # no text names a file there
        try:
            parse(text, 3)
            fails = False
        except ExpressionError as err:
            fails = not isinstance(err, UnboundParameterError)
        for flag, argv in SCALAR_FLAGS.items():
            code = exit_code("eval", *argv(text), "--mesh", "corners", "--out", "out.jsonl")
            assert code in (0, 2, 3, 4, 5, 6), (flag, text)
            if fails:
                assert code == (2 if text == "--" else cli.EXIT_PARSE), (flag, text)

    @pytest.mark.parametrize("argv", [
        ["eval", "num_flaschka_ratiu_bivector", "--dim", 3, "--casimir=--"],
        ["eval", "num_modular_vf", "--bivector", EXAMPLES / "so3.json", "--f0=--"],
        ["eval", "num_bivector", "--bivector", EXAMPLES / "so3.json", "--param=--"],
        ["eval", "num_bivector", "--bivector", EXAMPLES / "so3.json", "--out=--"],
        ["bench", "--method", "num_bivector", "--sizes=--"],
    ])
    def test_dashes_as_option_value_is_usage_error(self, tmp_path, monkeypatch, capsys, argv):
        # argparse reads "--name=--" as an empty list, whatever the option's type.
        monkeypatch.chdir(tmp_path)
        if "--out=--" not in argv:
            argv = argv + ["--out", "out.json"]
        if argv[0] == "eval":
            argv = argv + ["--mesh", "corners"]
        with pytest.raises(SystemExit) as err:
            run_cli(*argv)
        assert err.value.code == 2
        assert "'--'" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_input_flag_outside_the_method_row_is_validation(self, tmp_path, capsys):
        out = tmp_path / "out.jsonl"
        code = run_cli(
            "eval", "num_bivector", "--bivector", EXAMPLES / "so3.json",
            "--h", "not valid ((", "--alpha", tmp_path / "nothere.json",
            "--mesh", "corners", "--out", out,
        )
        assert code == cli.EXIT_VALIDATION
        assert "--h is not an input of num_bivector" in capsys.readouterr().err
        assert not out.exists()
        code = run_cli(
            "eval", "num_curl_operator", "--argument", EXAMPLES / "quartic_so3.json",
            "--bivector", EXAMPLES / "so3.json", "--mesh", "corners", "--out", out,
        )
        assert code == cli.EXIT_VALIDATION
        assert "--bivector is not an input of num_curl_operator" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["num_flaschka_ratiu_bivector", "--casimir", "x1", "--casimir", "x2"],
    ], ids=["casimirs"])
    def test_dim_is_named_where_no_input_gives_the_dimension(self, tmp_path, capsys, argv):
        code = run_cli("eval", *argv, "--mesh", "corners", "--out", tmp_path / "out.jsonl")
        assert code == cli.EXIT_VALIDATION
        assert f"--dim is required for {argv[0]}" in capsys.readouterr().err

    # Curl takes a field of degree >= 1, so no scalar can succeed: it is
    # refused before --dim is asked for or the text is parsed.
    @pytest.mark.parametrize("argv", [
        ["--argument", "x1*x2"],
        ["--argument", "x1*x2", "--dim", 3],
        ["--argument", "x1 +", "--dim", 3],
        ["--argument", "@scalar.txt", "--dim", 3],
    ], ids=["inline", "inline_with_dim", "unparsable_with_dim", "scalar_file"])
    def test_curl_refuses_a_scalar_argument(self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "scalar.txt").write_text("x1*x2\n")
        code = run_cli("eval", "num_curl_operator", *argv, "--mesh", "corners", "--out", "out.jsonl")
        assert code == cli.EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "--argument of num_curl_operator must be a multivector JSON file" in err
        assert "--dim" not in err
        assert not (tmp_path / "out.jsonl").exists()

    def test_degree_option_is_gone(self, tmp_path):
        # A JSON argument carries its own degree and inline text is degree 0.
        with pytest.raises(SystemExit) as err:
            run_cli("eval", "num_coboundary_operator", "--bivector", EXAMPLES / "so3.json",
                    "--argument", "x1", "--degree", 0, "--mesh", "corners",
                    "--out", tmp_path / "out.jsonl")
        assert err.value.code == 2

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

    def test_deeply_nested_expression_is_validation(self, tmp_path, capsys):
        # The parser reports its RecursionError as an ExpressionDepthError.
        out = tmp_path / "out.jsonl"
        code = run_cli("eval", "num_hamiltonian_vf", "--bivector", EXAMPLES / "so3.json",
                       "--h=" + "-" * 2000 + "x1", "--mesh", "corners", "--out", out)
        assert code == cli.EXIT_VALIDATION
        assert "nested too deeply" in capsys.readouterr().err
        assert not out.exists()

    def test_deeply_nested_multivector_file_is_validation(self, tmp_path, capsys):
        # Multivector files are read before any set-up, and the parser recurses
        # once per parenthesis.
        deep = tmp_path / "deep.json"
        deep.write_text(json.dumps(
            {"dim": 3, "degree": 2, "coeffs": {"1,2": "(" * 400 + "x1" + ")" * 400}}
        ))
        out = tmp_path / "out.jsonl"
        code = run_cli("eval", "num_bivector", "--bivector", deep, "--mesh", "corners",
                       "--out", out)
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

    def test_thread_count_is_not_an_option(self, tmp_path):
        # Threads follow from the usable cores; a user caps them with taskset.
        for argv in (
            ("eval", "num_bivector", "--dim", 3, "--bivector", EXAMPLES / "so3.json",
             "--mesh", "corners", "--out", tmp_path / "out.npy"),
            ("bench", "--method", "num_bivector", "--sizes", "100,200",
             "--out", tmp_path / "report.json"),
        ):
            with pytest.raises(SystemExit) as err:
                run_cli(*argv, "--workers", 2)
            assert err.value.code == 2
        assert not (tmp_path / "out.npy").exists()
        assert not (tmp_path / "report.json").exists()

    def test_format_is_not_an_option(self, tmp_path):
        # The --out suffix alone decides the output format.
        with pytest.raises(SystemExit) as err:
            run_cli("eval", "num_bivector", "--bivector", EXAMPLES / "so3.json",
                    "--mesh", "corners", "--out", tmp_path / "out.jsonl", "--format", "npy")
        assert err.value.code == 2
        assert not (tmp_path / "out.jsonl").exists()

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

    def test_suffixes_in_any_case(self, tmp_path):
        # m.CSV is a csv mesh and o.NPY an npy output, as in lower case.
        for mesh, out in (("m.csv", "o.npy"), ("m.CSV", "o.NPY")):
            assert run_cli("mesh", "random", "--k", 50, "--dim", 3, "--seed", 2,
                           "--out", tmp_path / mesh) == 0
            assert run_cli("eval", "num_bivector", "--bivector", EXAMPLES / "so3.json",
                           "--mesh", tmp_path / mesh, "--out", tmp_path / out) == 0
        assert (tmp_path / "m.CSV").read_bytes() == (tmp_path / "m.csv").read_bytes()
        assert (tmp_path / "o.NPY").read_bytes() == (tmp_path / "o.npy").read_bytes()


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
            "r2", "repeats", "seed", "mode", "threads", "environment",
        }
        assert report["mode"] == "records"
        assert report["threads"] == [1, 1]
        out = capsys.readouterr().out
        assert "num_bivector (records): slope=" in out and " threads=1,1 -> " in out
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

    @pytest.mark.parametrize(
        "inputs", [(), ("--bivector", EXAMPLES / "so3.json")], ids=["suite", "custom"]
    )
    def test_report_names_the_options_it_ran_with(self, tmp_path, inputs):
        out = tmp_path / "report.json"
        code = run_cli(
            "bench", "--method", "num_bivector", *inputs,
            "--sizes", "100,300", "--repeats", 1, "--out", out,
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert (report["method"], report["mode"]) == ("num_bivector", "records")

    def test_dim_without_custom_inputs_is_validation(self, tmp_path, capsys):
        # The suite case brings its own dimension; --dim once was dropped
        # silently and the suite's R^4 case timed.
        out = tmp_path / "report.json"
        code = run_cli(
            "bench", "--method", "num_flaschka_ratiu_bivector", "--dim", 6,
            "--sizes", "100,200", "--repeats", 1, "--out", out,
        )
        assert code == cli.EXIT_VALIDATION
        assert "--dim applies only to custom inputs" in capsys.readouterr().err
        assert not out.exists()
        code = run_cli(
            "bench", "--method", "num_flaschka_ratiu_bivector", "--dim", 6,
            "--casimir", "x1*x2", "--casimir", "x3+x4", "--casimir", "x5*x6",
            "--casimir", "x1+x6", "--sizes", "100,200", "--repeats", 1, "--out", out,
        )
        assert code == 0
        assert json.loads(out.read_text())["method"] == "num_flaschka_ratiu_bivector"

    def test_any_given_input_flag_means_custom_inputs(self, tmp_path, capsys):
        # --f0 alone once timed the suite's exp(x3) and dropped the flag.
        out = tmp_path / "report.json"
        code = run_cli(
            "bench", "--method", "num_modular_vf", "--f0", "1/0*x1",
            "--sizes", "100,200", "--out", out,
        )
        assert code == cli.EXIT_VALIDATION
        assert "--bivector is required for num_modular_vf" in capsys.readouterr().err
        assert not out.exists()

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


class TestMethodTable:
    def test_methods_are_the_suite_in_evaluate_order(self):
        names = tuple(name for name in ev.__all__ if name.startswith("num_"))
        assert cli.METHODS == names == tuple(bench.benchmark_suite())
        assert tuple(cli._INPUTS) == cli.METHODS

    def test_every_input_flag_is_an_eval_and_bench_option(self):
        commands = next(
            action for action in cli.build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        ).choices
        for command in ("eval", "bench"):
            options = commands[command]._option_string_actions
            for row in cli._INPUTS.values():
                for flag in row:
                    assert f"--{flag}" in options, (command, flag)
        f0 = commands["eval"]._option_string_actions["--f0"]
        assert f0.default is None and "default 1" in f0.help

    def test_readme_table_is_the_input_table(self):
        text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        rows = re.findall(r"^\| `(num_\w+)` \| (.*) \|$", text, re.M)
        table = {method: tuple(re.findall(r"`--(\w+)`", flags)) for method, flags in rows}
        assert list(table.items()) == list(cli._INPUTS.items())
