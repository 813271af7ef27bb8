"""Tests for multivector containers, meshes, and serialization."""

import os
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from poissonmesh import expressions as ex
from poissonmesh import geometry
from poissonmesh.geometry import (
    Mesh,
    Multivector,
    MultivectorError,
    as_expression,
    as_mesh,
    corners_mesh,
    load_mesh,
    random_mesh,
    save_mesh,
    validate_multivector,
)

import goldens

BEYOND_FLOAT64 = pytest.param(10**400, id="int_beyond_float64")


def _loadtxt_mesh(path):
    return as_mesh(np.loadtxt(path, delimiter=",", ndmin=2))


def _read_outcome(read, path) -> tuple:
    """The shape and bits ``read(str(path))`` gives, or its ValueError, with
    its warnings."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            points = read(str(path)).points
            outcome = (points.shape, points.tobytes())
        except ValueError as exc:
            outcome = (type(exc), str(exc), type(exc.__context__))
    return outcome, [str(w.message) for w in caught]


class TestCornersMesh:
    def test_dimension_one(self):
        assert corners_mesh(1).points.tolist() == [[0.0], [1.0]]

    def test_dimension_two_order(self):
        assert corners_mesh(2).points.tolist() == [
            [0.0, 0.0],
            [0.0, 1.0],
            [1.0, 0.0],
            [1.0, 1.0],
        ]

    def test_dimension_three_matches_expected_order(self):
        assert corners_mesh(3).points.tolist() == [list(p) for p in goldens.CORNERS_3]

    def test_counts_and_distinctness(self):
        for dim in (1, 2, 3, 4, 6):
            mesh = corners_mesh(dim)
            assert mesh.k == 2**dim
            assert len({tuple(row) for row in mesh.points}) == 2**dim

    def test_rejects_bad_dimension(self):
        with pytest.raises(ValueError):
            corners_mesh(0)
        with pytest.raises(ValueError):
            corners_mesh(21)


class TestRandomMesh:
    def test_deterministic_for_seed(self):
        a = random_mesh(100, 3, seed=42)
        b = random_mesh(100, 3, seed=42)
        assert np.array_equal(a.points, b.points)

    def test_different_seeds_differ(self):
        a = random_mesh(100, 3, seed=1)
        b = random_mesh(100, 3, seed=2)
        assert not np.array_equal(a.points, b.points)

    def test_range_shape_dtype(self):
        mesh = random_mesh(1000, 4, seed=0)
        assert mesh.points.shape == (1000, 4)
        assert mesh.points.dtype == np.float64
        assert mesh.points.min() >= 0.0
        assert mesh.points.max() < 1.0

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            random_mesh(0, 3, seed=0)
        with pytest.raises(ValueError):
            random_mesh(5, 0, seed=0)


class TestMesh:
    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Mesh(np.array([[0.0, np.nan]]))

    def test_rejects_complex(self):
        # Converting to float64 would keep the real parts, with only a warning.
        for points in (np.array([[1 + 2j, 0, 1]]), [[1 + 2j, 0, 1]], np.zeros((1, 3), complex)):
            with pytest.raises(ValueError, match="complex"):
                as_mesh(points)

    @pytest.mark.parametrize(
        "points",
        [
            np.zeros((2, 3), dtype=[("x", float), ("y", float)]),
            np.array([["2020-01-01", "2021-06-01"]], dtype="datetime64[D]"),
            np.array([[1, 2, 3]], dtype="timedelta64[s]"),
            np.array([["1", "2", "3"]]),
            np.array([[b"1", b"2", b"3"]]),
        ],
        ids=["structured", "datetime64", "timedelta64", "str", "bytes"],
    )
    def test_rejects_entries_that_are_not_real_numbers(self, points):
        with pytest.raises(ValueError, match="coordinates must be real numbers"):
            as_mesh(points)

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            Mesh(np.zeros(3))
        with pytest.raises(ValueError):
            Mesh(np.zeros((0, 3)))

    def test_as_mesh_passes_a_mesh_through(self):
        mesh = random_mesh(10, 3, seed=0)
        assert as_mesh(mesh) is mesh
        built = as_mesh([(0, 1), (2, 3)])
        assert built.points.dtype == np.float64
        assert built.points.tolist() == [[0.0, 1.0], [2.0, 3.0]]

    def test_len(self):
        assert len(random_mesh(7, 2, seed=0)) == 7


class TestMeshSerialization:
    def test_npy_round_trip(self, tmp_path):
        mesh = random_mesh(50, 3, seed=5)
        path = str(tmp_path / "mesh.npy")
        save_mesh(mesh, path)
        back = load_mesh(path)
        assert np.array_equal(back.points, mesh.points)
        assert back.points.dtype == np.float64

    def test_csv_round_trip(self, tmp_path):
        mesh = random_mesh(50, 3, seed=6)
        path = str(tmp_path / "mesh.csv")
        save_mesh(mesh, path)
        back = load_mesh(path)
        assert np.array_equal(back.points, mesh.points)

    # 16 values per chunk: 16 rows of one column, 5 of three, and one row of
    # 41 (a chunk holds at least one row).
    @pytest.mark.parametrize("chunk_values", [16, 16384])
    @pytest.mark.parametrize("shape", [(0, 3), (41, 1), (41, 3), (3, 41)])
    def test_csv_bytes_match_savetxt(self, tmp_path, monkeypatch, chunk_values, shape):
        monkeypatch.setattr(geometry, "_CHUNK_VALUES", chunk_values)
        special = [
            np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -2.5e-310, 2.2250738585072014e-308,
            1e300, -1e300, 1e-300, -1e-300, 0.1, 1 / 3, 2.0**53 + 2, -7.0,
        ]
        values = np.random.default_rng(7).normal(size=shape[0] * shape[1])
        values[: len(special)] = special[: len(values)]
        rows = values.reshape(shape)
        ours, ref = tmp_path / "ours.csv", tmp_path / "ref.csv"
        geometry.save_csv(str(ours), rows)
        np.savetxt(ref, rows, fmt="%.17g", delimiter=",")
        assert ours.read_bytes() == ref.read_bytes()

    # load_mesh reads a csv exactly as np.loadtxt(delimiter=",", ndmin=2):
    # the same array, or the same exception, with the same warnings.
    @pytest.mark.parametrize("text", [
        pytest.param(b"# x1,x2\n1,2\n3,4 # a point\n", id="comments"),
        pytest.param(b"\n1,2\n\n3,4\n\n", id="blank_lines"),
        pytest.param(b" 1 , 2\n\t3,\t4 \n", id="spaces"),
        pytest.param(b"1,2\r\n3,4\r\n", id="crlf"),
        pytest.param(b"1\n2\n3\n", id="one_column"),
        pytest.param(b"1,2,3,4\n", id="one_row"),
        pytest.param(b"1e3,-2.5E-3\n+4,.5\n5.,1e-310\n", id="exponents"),
        pytest.param(b"nan,1\n2,3\n", id="nan"),
        pytest.param(b"inf,-inf\n", id="inf"),
        pytest.param(b"1,2\n3\n", id="ragged"),
        pytest.param(b"1,x\n", id="not_a_number"),
        pytest.param(b"1,,2\n", id="empty_field"),
        pytest.param(b"1,2\n3,4", id="no_final_newline"),
        pytest.param(b"", id="empty_file"),
        pytest.param(b"1,2,\n3,4,\n", id="trailing_comma"),
        pytest.param(b"+1,-0\n-0.0,+.5\n-.25,5.\n", id="plus_and_negative_zero"),
        pytest.param(b"12345678901234567890,-0.12345678901234567890123\n"
                     b"1234567890123456789012345,2.000000000000000000000001\n", id="long_tokens"),
        pytest.param(b"0,1,-2\n3,40,-500\n", id="integers"),
        pytest.param(b"1,2\x00\n", id="nul_byte"),
        pytest.param(b"1,\xc2\xb2\n", id="non_ascii_byte"),
        pytest.param(b"1,\xe9\n", id="latin_1_byte"),
        pytest.param(b"1,2\xc3\n", id="cut_utf_8"),
        pytest.param(b"\xef\xbb\xbf1,2\n3,4\n", id="byte_order_mark"),
        pytest.param(b",".join([b"0.5"] * 70_000) + b"\n", id="line_longer_than_a_block"),
        pytest.param(b"9007199254740993,4384900859089420.25,8789748785565816.50\n"
                     b"9007199254740993.0,4402272062787084.25,0.30000000000000001665\n",
                     id="exact_ties"),
        pytest.param(b"1_0,2\n", id="underscore"),
    ])
    def test_csv_reads_as_loadtxt(self, tmp_path, text):
        path = tmp_path / "mesh.csv"
        path.write_bytes(text)
        assert _read_outcome(load_mesh, path) == _read_outcome(_loadtxt_mesh, path)

    # Every byte inside, before and after a field's digits: a byte of 0x80 or
    # more must not pass as a digit.
    @pytest.mark.parametrize("template", [
        b"%s1,2\n3,4\n", b"1,-%s2\n3,4\n", b"1,2.%s5\n3,4\n", b"1,2%s\n3,4\n",
        b"1,0.1234567%s8\n3,4\n",
    ])
    def test_every_byte_reads_as_loadtxt(self, tmp_path, template):
        path = tmp_path / "mesh.csv"
        for byte in range(256):
            path.write_bytes(template.replace(b"%s", bytes([byte])))
            expected = _read_outcome(_loadtxt_mesh, path)
            assert _read_outcome(load_mesh, path) == expected, byte

    def test_csv_from_a_pipe(self, tmp_path):
        # A named pipe can be read only once: np.loadtxt reads it.
        path = tmp_path / "mesh.csv"
        os.mkfifo(path)
        read = []
        reader = threading.Thread(
            target=lambda: read.append(load_mesh(str(path)).points.tolist()), daemon=True)
        reader.start()
        path.write_bytes(b"1,2\n3,4.5\n")
        reader.join(10)
        if reader.is_alive():  # blocked opening the pipe again, for a writer that is gone
            path.write_bytes(b"")
            reader.join()
        assert read == [[[1.0, 2.0], [3.0, 4.5]]]

    @settings(max_examples=60, deadline=None)
    @given(points=hnp.arrays(
        np.float64,
        hnp.array_shapes(min_dims=2, max_dims=2, max_side=12),
        elements=st.floats(allow_nan=False, allow_infinity=False),
    ))
    def test_csv_round_trip_keeps_bits(self, tmp_path_factory, points):
        # Negatives, -0.0, subnormals and huge values: %.17g text reads back
        # to the same bits.
        path = tmp_path_factory.mktemp("mesh") / "mesh.csv"
        geometry.save_csv(str(path), points)
        assert load_mesh(str(path)).points.tobytes() == points.tobytes()

    @pytest.mark.parametrize("extra", [1, 2, 3, 5, 8, 13])
    def test_fields_on_every_block_boundary(self, tmp_path, monkeypatch, extra):
        # A block a few bytes longer than the longest line: the unfinished
        # line moves to the front of each block, so block ends fall inside
        # and between every kind of field.
        rng = np.random.default_rng(extra)
        points = rng.normal(size=(60, 3)) * 10.0 ** rng.integers(-6, 20, size=(60, 3))
        points[::7, 1] = np.round(points[::7, 1])
        path = tmp_path / "mesh.csv"
        geometry.save_csv(str(path), points)
        longest = max(map(len, path.read_bytes().splitlines(keepends=True)))
        monkeypatch.setattr(geometry, "_READ_BLOCK", longest + extra)
        assert geometry._read_csv(str(path))[0].tobytes() == points.tobytes()

    @pytest.mark.parametrize("case", [
        "length_a_multiple_of_the_block", "newline_ends_a_block", "line_over_three_blocks",
    ])
    def test_block_boundaries_read_as_loadtxt(self, tmp_path, monkeypatch, case):
        # Zeros before a field's digits lengthen it without changing its
        # value, so that the file meets the 64-byte blocks as the case says.
        block = 64
        points = np.random.default_rng(4).normal(size=(30, 2))
        path = tmp_path / "mesh.csv"
        geometry.save_csv(str(path), points)
        lines = path.read_bytes().splitlines(keepends=True)
        zeros = [0] * len(lines)
        if case == "length_a_multiple_of_the_block":
            for i in range(-len(b"".join(lines)) % block):
                zeros[i % len(lines)] += 1
        elif case == "newline_ends_a_block":
            zeros[0] = block - len(lines[0])
        else:  # line 1 starts in the first block and ends in the third
            zeros[1] = 2 * block + 8 - len(lines[1])
        text = b"".join(
            line[:line[:1] == b"-"] + b"0" * n + line[line[:1] == b"-":]
            for line, n in zip(lines, zeros)
        )
        start, stop = len(text.splitlines()[0]) + 1, sum(map(len, text.splitlines(True)[:2]))
        assert {
            "length_a_multiple_of_the_block": len(text) % block == 0,
            "newline_ends_a_block": text[block - 1:block] == b"\n",
            "line_over_three_blocks": (start // block, (stop - 1) // block) == (0, 2),
        }[case]
        path.write_bytes(text)
        monkeypatch.setattr(geometry, "_READ_BLOCK", block)
        expected = _read_outcome(_loadtxt_mesh, path)
        assert expected == (((30, 2), points.tobytes()), [])
        assert _read_outcome(load_mesh, path) == expected
        if case == "line_over_three_blocks":
            with pytest.raises(geometry._NotPlain):
                geometry._read_csv(str(path))
        else:  # read by the kernel itself
            assert geometry._read_csv(str(path))[0].tobytes() == points.tobytes()

    def test_plain_csv_does_not_reach_loadtxt(self, tmp_path, monkeypatch):
        # A silent fall back to np.loadtxt would only be slower; here it fails.
        points = random_mesh(100_000, 3, seed=8).points
        points[::3] -= 0.5
        path = tmp_path / "mesh.csv"
        save_mesh(Mesh(points), str(path))

        def refuse(*args, **kwargs):
            raise AssertionError("np.loadtxt called")

        monkeypatch.setattr(np, "loadtxt", refuse)
        assert load_mesh(str(path)).points.tobytes() == points.tobytes()

    @pytest.mark.parametrize("name", ["mesh.NPY", "mesh.CSV", "mesh.Csv"])
    def test_suffix_in_any_case(self, tmp_path, name):
        mesh = random_mesh(20, 3, seed=9)
        path = str(tmp_path / name)
        save_mesh(mesh, path)
        assert load_mesh(path).points.tobytes() == mesh.points.tobytes()
        if name.endswith("NPY"):
            assert np.load(path).tobytes() == mesh.points.tobytes()
        else:
            assert np.loadtxt(path, delimiter=",").tobytes() == mesh.points.tobytes()

    def test_unknown_format(self, tmp_path):
        mesh = random_mesh(5, 2, seed=0)
        with pytest.raises(ValueError):
            save_mesh(mesh, str(tmp_path / "mesh.bin"))
        with pytest.raises(ValueError):
            load_mesh(str(tmp_path / "mesh.bin"))


class TestMultivector:
    def test_build_bivector(self):
        mv = Multivector.build(3, 2, goldens.SO3)
        assert mv.keys() == ((1, 2), (1, 3), (2, 3))
        assert str(mv.coefficient((1, 3))) == "-x2"

    def test_numeric_values_coerced(self):
        mv = Multivector.build(6, 2, goldens.CANONICAL_R6)
        assert mv.coefficient((1, 4)) == ex.Num(1.0)
        mv2 = Multivector.build(6, 2, {(1, 4): 1, (2, 5): 1.0, (3, 6): "1"})
        assert mv2 == mv

    def test_zero_coefficients_dropped(self):
        mv = Multivector.build(3, 2, {(1, 2): "0", (1, 3): "x1"})
        assert mv.keys() == ((1, 3),)
        assert mv.coefficient((1, 2)) == ex.Num(0.0)

    def test_keys_sorted(self):
        mv = Multivector.build(3, 2, {(2, 3): "x1", (1, 2): "x3"})
        assert mv.keys() == ((1, 2), (2, 3))

    def test_degree_zero_scalar(self):
        mv = Multivector.build(3, 0, "x1 + 1")
        assert str(mv.as_scalar()) == "x1+1.0"
        same = Multivector.build(3, 0, {(): "x1 + 1"})
        assert same == mv

    def test_zero_multivector(self):
        mv = Multivector.build(3, 3, {})
        assert mv.is_zero()

    def test_free_parameters(self):
        mv = Multivector.build(3, 2, {(1, 3): "x1 - 4*a*x2", (2, 3): "4*a*x1 + x2"})
        assert mv.free_parameters() == frozenset({"a"})

    def test_non_increasing_key_rejected(self):
        with pytest.raises(MultivectorError) as err:
            Multivector.build(3, 2, {(2, 1): "x1"})
        assert "(2, 1)" in str(err.value)

    def test_repeated_index_rejected(self):
        with pytest.raises(MultivectorError):
            Multivector.build(3, 2, {(1, 1): "x1"})

    def test_out_of_range_index_rejected(self):
        with pytest.raises(MultivectorError):
            Multivector.build(3, 2, {(0, 2): "x1"})
        with pytest.raises(MultivectorError):
            Multivector.build(3, 2, {(1, 7): "x1"})

    def test_wrong_key_length_rejected(self):
        with pytest.raises(MultivectorError):
            Multivector.build(3, 2, {(1, 2, 3): "x1"})

    def test_parse_failure_names_key(self):
        with pytest.raises(MultivectorError) as err:
            Multivector.build(3, 2, {(1, 2): "x1 +"})
        assert "(1, 2)" in str(err.value)

    def test_coordinate_beyond_dimension_rejected(self):
        with pytest.raises(MultivectorError):
            Multivector.build(3, 2, {(1, 2): "x5"})

    # A key is an int or a tuple of ints: text, floats and bools are not read.
    @pytest.mark.parametrize("key", ["12", "1,2", (1.9, 2.9), (True, 2), (1, np.int64(2)), 1.0])
    def test_key_must_be_int_or_int_tuple(self, key):
        with pytest.raises(MultivectorError, match="not an int or a tuple of ints"):
            Multivector.build(3, 2, {key: "x1"})

    def test_int_key_is_degree_one(self):
        assert Multivector.build(3, 1, {2: "x1"}).keys() == ((2,),)

    @pytest.mark.parametrize(
        "value", [True, None, BEYOND_FLOAT64, [1.0], Multivector.build(3, 0, "x1")]
    )
    def test_bad_coefficient_names_its_key(self, value):
        with pytest.raises(MultivectorError, match=r"coefficient at key \(1, 2\)"):
            Multivector.build(3, 2, {(1, 2): value})

    @pytest.mark.parametrize(
        "value", ["x1 +", True, BEYOND_FLOAT64, ex.parse("x5", 5), [1.0]]
    )
    def test_bad_bare_scalar_is_expression_error(self, value):
        with pytest.raises(ex.ExpressionError) as err:
            Multivector.build(3, 0, value)
        assert not isinstance(err.value, MultivectorError)


class TestAsExpression:
    def test_scalars(self):
        x1 = ex.parse("x1", 3)
        assert as_expression(x1, 3) is x1
        assert as_expression(2, 3) == ex.Num(2.0)
        assert as_expression(-0.0, 3) == ex.Num(-0.0)
        assert as_expression(np.float64(0.5), 3) == ex.Num(0.5)
        assert as_expression("x1 + 1", 3) == ex.parse("x1 + 1", 3)

    @pytest.mark.parametrize("value", [
        "x1 +", "x4", ex.parse("x4", 4), True, False, BEYOND_FLOAT64, None, b"x1",
        np.int64(1),
    ])
    def test_rejected(self, value):
        with pytest.raises(ex.ExpressionError):
            as_expression(value, 3)


class TestValidateMultivector:
    def test_accepts_all_example_fields(self):
        for dim, coeffs in goldens.POISSON_EXAMPLES:
            mv = validate_multivector(coeffs, dim, degree=2)
            assert mv.dim == dim and mv.degree == 2
        validate_multivector(goldens.QUARTIC_SO3, 3, degree=2)
        validate_multivector(goldens.FLAT_COCYCLE_R3, 3, degree=1)
        validate_multivector(goldens.RADIAL_ONE_FORM_R3, 3, degree=1)
        validate_multivector(goldens.DIFFERENCE_TWO_FORM_R3, 3, degree=2)

    def test_degree_inferred_from_keys(self):
        mv = validate_multivector(goldens.SO3, 3)
        assert mv.degree == 2

    def test_multivector_passthrough(self):
        mv = Multivector.build(3, 2, goldens.SO3)
        assert validate_multivector(mv, 3) == mv
        assert validate_multivector(mv) == mv
        with pytest.raises(MultivectorError):
            validate_multivector(mv, 4)
        with pytest.raises(MultivectorError):
            validate_multivector(mv, 3, degree=1)

    def test_empty_map_needs_degree(self):
        with pytest.raises(MultivectorError):
            validate_multivector({}, 3)
        assert validate_multivector({}, 3, degree=2).is_zero()

    def test_raw_data_needs_dimension(self):
        with pytest.raises(MultivectorError, match="dimension"):
            validate_multivector(goldens.SO3)

    def test_bare_scalar_is_degree_zero(self):
        assert validate_multivector("x1*x2", 2) == Multivector.build(2, 0, "x1*x2")
        with pytest.raises(ex.ExpressionError):
            validate_multivector("x1 +", 2)


class TestJson:
    def test_round_trip(self):
        for dim, coeffs in goldens.POISSON_EXAMPLES:
            mv = Multivector.build(dim, 2, coeffs)
            assert Multivector.from_json(mv.to_json()) == mv

    def test_degree_zero_round_trip(self):
        mv = Multivector.build(2, 0, "x1*x2 + 1")
        assert Multivector.from_json(mv.to_json()) == mv

    def test_json_shape(self):
        mv = Multivector.build(3, 2, goldens.SO3)
        data = mv.to_json_dict()
        assert data["dim"] == 3
        assert data["degree"] == 2
        assert data["coeffs"]["1,2"] == "x3"

    def test_bad_json_rejected(self):
        with pytest.raises(MultivectorError):
            Multivector.from_json_dict({"dim": 3})
        with pytest.raises(MultivectorError):
            Multivector.from_json_dict({"dim": 3, "degree": 2, "coeffs": {"1;2": "x1"}})

    @pytest.mark.parametrize("data", [
        {"dim": 3, "degree": 2, "coeffs": 5},
        {"dim": 3, "degree": 2, "coeffs": ["x1"]},
        {"dim": 3, "degree": 2, "coeffs": None},
        {"dim": None, "degree": 2, "coeffs": {}},
        {"dim": 3, "degree": None, "coeffs": {}},
        {"dim": 3.7, "degree": 2, "coeffs": {"1,2": "x3"}},
        {"dim": 3.0, "degree": 2, "coeffs": {"1,2": "x3"}},
        {"dim": 3, "degree": 2.5, "coeffs": {"1,2": "x3"}},
        {"dim": True, "degree": 2, "coeffs": {}},
        {"dim": 3, "degree": False, "coeffs": {}},
        {"dim": "3", "degree": 2, "coeffs": {}},
        {"dim": 3, "degree": 2, "coeffs": {"1,2": 10**400}},
        {"dim": 3, "degree": 2, "coeffs": {"1,2": True}},
        # Keys are ASCII digit runs joined by commas, each key written once.
        {"dim": 3, "degree": 2, "coeffs": {"1,2": "x1", "1, 2": "x2"}},
        {"dim": 3, "degree": 2, "coeffs": {"1,2": "x1", "01,2": "x2"}},
        {"dim": 20, "degree": 2, "coeffs": {"1_2,+13": "x1"}},
        {"dim": 20, "degree": 2, "coeffs": {" 2 , \u0663": "x1"}},
        {"dim": 3, "degree": 2, "coeffs": {"1,2,": "x1"}},
        {"dim": 3, "degree": 2, "coeffs": {",": "x1"}},
        [3, 2, {}],
        None,
        # A digit run beyond Python's 4,300-digit limit on int().
        {"dim": 3, "degree": 1, "coeffs": {"1" * 5000: "x1"}},
    ])
    def test_malformed_json_rejected(self, data):
        # dim and degree are JSON integers, never truncated; coeffs is an object.
        with pytest.raises(MultivectorError):
            Multivector.from_json_dict(data)
