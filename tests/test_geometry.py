"""Tests for multivector containers, meshes, and serialization."""

import numpy as np
import pytest

from poissonmesh import expressions as ex
from poissonmesh import geometry
from poissonmesh.geometry import (
    Mesh,
    Multivector,
    MultivectorError,
    as_mesh,
    corners_mesh,
    load_mesh,
    random_mesh,
    save_mesh,
    validate_multivector,
)

import goldens


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

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            Mesh(np.zeros(3))
        with pytest.raises(ValueError):
            Mesh(np.zeros((0, 3)))

    def test_as_mesh_checks_dimension(self):
        mesh = random_mesh(10, 3, seed=0)
        assert as_mesh(mesh, 3) is mesh
        with pytest.raises(ValueError):
            as_mesh(mesh, 4)

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
        with pytest.raises(MultivectorError):
            validate_multivector(mv, 4)
        with pytest.raises(MultivectorError):
            validate_multivector(mv, 3, degree=1)

    def test_empty_map_needs_degree(self):
        with pytest.raises(MultivectorError):
            validate_multivector({}, 3)
        assert validate_multivector({}, 3, degree=2).is_zero()


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
