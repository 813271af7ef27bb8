"""Tests of .npy meshes read through a read-only mapping.

``load_mesh`` maps a regular .npy file that holds a 2-d C-order float64
array and never copies it; each whole-mesh pass releases the pages of the
rows it is done with.  Every other .npy is read by ``np.load``, with its
values, errors and exit codes; a pipe is read into memory first.
"""

import io
import os
import subprocess
import sys
import textwrap
import threading
from pathlib import Path

import numpy as np
import pytest

from poissonmesh import bench, cli, geometry
from poissonmesh import evaluate as ev
from poissonmesh.evaluate import EvalOptions
from poissonmesh.geometry import Mesh, load_mesh
from test_stream import npy_bytes, written

SRC = Path(__file__).resolve().parent.parent / "src"
EXAMPLES = Path(__file__).resolve().parent.parent / "examples_data"


def outcome(read, path) -> tuple:
    """The dtype, shape and bits of ``read(path).points``, or the type and
    text of the exception it raised."""
    try:
        points = read(str(path)).points
        return points.dtype.str, points.shape, points.tobytes()
    except Exception as exc:
        return type(exc), str(exc)


def np_load_mesh(path) -> Mesh:
    return geometry.as_mesh(np.load(path))


def npy_version_bytes(array, version: tuple) -> bytes:
    buffer = io.BytesIO()
    np.lib.format.write_array(buffer, array, version=version)
    return buffer.getvalue()


POINTS = np.random.default_rng(11).uniform(-2.0, 2.0, size=(200, 3))


class TestMappedOutputs:
    # 1 point, a chunk less one row, one chunk, a chunk and a row, 19 chunks;
    # on 2 cores every call of two chunks or more runs on 2 threads.
    @pytest.mark.parametrize("k", [1, 16_383, 16_384, 16_385, 300_000])
    def test_mapped_mesh_writes_the_in_memory_bytes(self, tmp_path, monkeypatch, k):
        monkeypatch.setattr(ev, "_CHUNKS_PER_THREAD", 1)
        suite = bench.benchmark_suite()
        for method in ("num_gauge_transformation", "num_flaschka_ratiu_bivector"):
            case = suite[method]
            points = np.random.default_rng(k).uniform(-2.0, 2.0, size=(k, case.dim))
            path = tmp_path / f"mesh_{case.dim}.npy"
            np.save(path, points)
            for fmt in ("npy", "csv", "jsonl"):
                evaluator = case.factory(EvalOptions(mode="records" if fmt == "jsonl" else "dense"))
                monkeypatch.setattr(ev, "_usable_cores", lambda: 1)
                expected = written(evaluator(Mesh(points.copy())), tmp_path / f"ref.{fmt}", fmt)
                for cores in (1, 2):
                    monkeypatch.setattr(ev, "_usable_cores", lambda cores=cores: cores)
                    mesh = load_mesh(str(path))
                    assert not mesh.points.flags.writeable
                    result = evaluator(mesh)
                    assert result.threads == min(cores, -(-k // ev._CHUNK_ROWS))
                    assert written(result, tmp_path / f"out.{fmt}", fmt) == expected, (method, fmt, cores)

    def test_every_chunk_releases_its_rows(self, tmp_path, monkeypatch):
        # The check and the kernel chunks each release every row once, in
        # spans that cover the mesh.
        monkeypatch.setattr(geometry, "_CHUNK_VALUES", 48)  # checks of 16 rows
        monkeypatch.setattr(ev, "_CHUNK_ROWS", 16)
        np.save(tmp_path / "mesh.npy", POINTS)
        released = []
        drop = geometry._drop_pages
        monkeypatch.setattr(geometry, "_drop_pages",
                            lambda *args: (released.append(args[-1]), drop(*args)))
        mesh = load_mesh(str(tmp_path / "mesh.npy"))
        assert sorted((r.start, r.stop) for r in released) == [
            (a, min(a + 16, 200)) for a in range(0, 200, 16)]
        released.clear()
        case = bench.benchmark_suite()["num_hamiltonian_vf"]
        geometry.write_result(case.factory(EvalOptions(mode="dense"))(mesh),
                              str(tmp_path / "out.npy"), "npy")
        assert sorted((r.start, r.stop) for r in released) == [
            (a, min(a + 16, 200)) for a in range(0, 200, 16)]
        assert np.load(tmp_path / "out.npy").tobytes() == case.factory(
            EvalOptions(mode="dense"))(Mesh(POINTS)).data.tobytes()


class TestMappedMesh:
    def test_points_are_a_read_only_view_of_the_file(self, tmp_path):
        path = tmp_path / "mesh.npy"
        np.save(path, POINTS)
        points = load_mesh(str(path)).points
        assert type(points) is np.ndarray and points.dtype == np.float64
        assert not points.flags.writeable and points.flags.c_contiguous
        assert points.tobytes() == POINTS.tobytes()
        with pytest.raises(ValueError, match="read-only"):
            points[0, 0] = 1.0

    def test_in_memory_mesh_stays_writeable(self):
        assert Mesh(POINTS.copy()).points.flags.writeable

    @pytest.mark.parametrize("case", ["version_2", "longer_than_its_header"])
    def test_other_mappable_files(self, tmp_path, case):
        path = tmp_path / "mesh.npy"
        body = npy_version_bytes(POINTS, (2, 0)) if case == "version_2" else npy_bytes(POINTS) + b"extra"
        path.write_bytes(body)
        assert not load_mesh(str(path)).points.flags.writeable
        assert outcome(load_mesh, path) == outcome(np_load_mesh, path)

    def test_mesh_replaced_by_the_output_of_its_own_call(self, tmp_path):
        # The output is renamed over the mapped file; the mapping keeps the
        # old file's points until the call is done.
        path = tmp_path / "mesh.npy"
        points = np.random.default_rng(5).random((40_000, 3))
        np.save(path, points)
        code = cli.main(["eval", "num_hamiltonian_vf", "--bivector", str(EXAMPLES / "so3.json"),
                         "--h", "x1*x2 + x3", "--mesh", str(path), "--out", str(path)])
        assert code == 0
        so3 = geometry.Multivector.from_json((EXAMPLES / "so3.json").read_text())
        expected = ev.num_hamiltonian_vf(so3, "x1*x2 + x3", points, EvalOptions(mode="dense"))
        assert path.read_bytes() == npy_bytes(expected.data)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["mesh.npy"]


def _feed(path: Path, data: bytes) -> threading.Thread:
    """A thread writing ``data`` into the named pipe ``path`` once a reader
    opens it; a reader that closes early ends the write."""

    def write():
        try:
            with open(path, "wb") as fh:
                fh.write(data)
        except BrokenPipeError:
            pass

    writer = threading.Thread(target=write, daemon=True)
    writer.start()
    return writer


# Files that are not a regular file holding a non-empty 2-d C-order float64
# array: each is read (or refused) by np.load, not mapped.
FALLBACKS = {
    "empty_file": lambda: b"",
    "empty_body": lambda: npy_bytes(np.empty((0, 3))),
    "no_columns": lambda: npy_bytes(np.empty((4, 0))),
    "shorter_than_its_header": lambda: npy_bytes(POINTS)[:-100],
    "header_only": lambda: npy_bytes(POINTS)[:128],
    "cut_header": lambda: npy_bytes(POINTS)[:50],
    "not_npy": lambda: b"1,2,3\n",
    "bad_dtype": lambda: npy_bytes(POINTS).replace(b"'<f8'", b"'<x9'"),
    "bad_header": lambda: npy_bytes(POINTS).replace(b"'shape'", b"'shope'"),
    "object_dtype": lambda: npy_bytes(POINTS.astype(object)),
    "fortran_order": lambda: npy_bytes(np.asfortranarray(POINTS)),
    "int": lambda: npy_bytes((POINTS * 100).astype(np.int64)),
    "float32": lambda: npy_bytes(POINTS.astype(np.float32)),
    "big_endian": lambda: npy_bytes(POINTS.astype(">f8")),
    "one_dimensional": lambda: npy_bytes(POINTS[:, 0].copy()),
    "three_dimensional": lambda: npy_bytes(POINTS.reshape(20, 10, 3)),
    "complex": lambda: npy_bytes(POINTS.astype(complex)),
    "version_3": lambda: npy_version_bytes(POINTS, (3, 0)),
}


class TestFallback:
    @pytest.mark.parametrize("case", sorted(FALLBACKS))
    def test_reads_as_np_load(self, tmp_path, monkeypatch, case):
        path = tmp_path / "mesh.npy"
        path.write_bytes(FALLBACKS[case]())
        assert geometry._map_npy(str(path)) is None
        expected = outcome(np_load_mesh, path)
        assert outcome(load_mesh, path) == expected
        if case in ("fortran_order", "int", "float32", "big_endian", "version_3"):
            assert expected[:2] == ("<f8", (200, 3))  # these still load
        out = tmp_path / "out.npy"
        argv = ["eval", "num_bivector", "--bivector", str(EXAMPLES / "so3.json"),
                "--mesh", str(path), "--out", str(out)]
        codes = []
        for mapping in (True, False):
            if not mapping:
                monkeypatch.setattr(geometry, "_map_npy", lambda path: None)
            codes.append(cli.main(argv))  # an empty file's EOFError exits 2 too
            codes.append(out.read_bytes() if out.exists() else None)
        assert codes[:2] == codes[2:]

    def test_pipe_reads_as_np_load(self, tmp_path):
        # np.load seeks back after the magic string, which a pipe cannot do,
        # so a named pipe is read into memory once: the mesh, or the error,
        # is np.load's of those bytes in a regular file, and the CLI's exit
        # code and output are those of that file.  The bytes: the points, an
        # empty stream, a float32 array (np.load keeps it, as_mesh converts
        # it) and text that is not a .npy at all.
        for case in ("points", "empty_file", "float32", "not_npy"):
            data = npy_bytes(POINTS) if case == "points" else FALLBACKS[case]()
            path, regular = tmp_path / f"{case}.npy", tmp_path / f"{case}_file.npy"
            os.mkfifo(path)
            regular.write_bytes(data)
            writer = _feed(path, data)
            got = outcome(load_mesh, path)
            writer.join(10)
            assert not writer.is_alive()
            assert got == outcome(np_load_mesh, regular)
            writer = _feed(path, data)
            results = []
            for mesh in (path, regular):
                out = tmp_path / f"out_{mesh.stem}.npy"
                results.append(cli.main(["eval", "num_bivector", "--bivector",
                                         str(EXAMPLES / "so3.json"), "--mesh", str(mesh),
                                         "--out", str(out)]))
                results.append(out.read_bytes() if out.exists() else None)
            writer.join(10)
            assert not writer.is_alive()
            assert results[:2] == results[2:]
            assert results[0] == (0 if case in ("points", "float32") else 2)

    def test_stdin_reads_as_a_file(self, tmp_path):
        # A .npy name for standard input (a link to /dev/stdin): fed by a
        # pipe it is read once; fed from a file it is mapped.  Both give the
        # output of the mesh file itself.
        mesh, link = tmp_path / "mesh.npy", tmp_path / "stdin.npy"
        mesh.write_bytes(npy_bytes(POINTS))
        link.symlink_to("/dev/stdin")
        env = dict(os.environ, PYTHONPATH=str(SRC))
        outputs = []
        for tag, source in (("file", str(mesh)), ("pipe", str(link)), ("redirect", str(link))):
            out = tmp_path / f"out_{tag}.csv"
            argv = [sys.executable, "-m", "poissonmesh.cli", "eval", "num_bivector",
                    "--bivector", str(EXAMPLES / "so3.json"), "--mesh", source, "--out", str(out)]
            if tag == "pipe":
                done = subprocess.run(argv, env=env, input=mesh.read_bytes(), capture_output=True,
                                      timeout=60)
            else:
                with open(mesh, "rb") as stdin:
                    done = subprocess.run(argv, env=env, stdin=stdin, capture_output=True, timeout=60)
            assert done.returncode == 0, done.stderr
            outputs.append(out.read_bytes())
        assert outputs[1] == outputs[0] and outputs[2] == outputs[0]

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_last_row_exits_2_without_output(self, tmp_path, capsys, value):
        path = tmp_path / "mesh.npy"
        points = np.random.default_rng(3).random((50_000, 3))
        points[-1, 2] = value
        np.save(path, points)
        with pytest.raises(ValueError, match="non-finite"):
            load_mesh(str(path))
        out = tmp_path / "out.npy"
        code = cli.main(["eval", "num_bivector", "--bivector", str(EXAMPLES / "so3.json"),
                         "--mesh", str(path), "--out", str(out)])
        assert code == 2
        assert "non-finite" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs /proc/self/status")
def test_mapped_mesh_peak_memory(tmp_path):
    # A 2*10^6 x 3 mesh is 48 MB, and so is the Hamiltonian field's block.
    # Mapped, checked and evaluated a chunk at a time, with each chunk's
    # pages released, neither is ever resident: the process's peak (its own
    # VmHWM, since ru_maxrss would carry the parent's) rises less than half
    # the mesh's size from before the load to after the write.
    path = tmp_path / "mesh.npy"
    np.save(path, np.random.default_rng(2).uniform(-2.0, 2.0, size=(2 * 10 ** 6, 3)))
    script = textwrap.dedent("""
        import sys
        from poissonmesh import bench, geometry
        from poissonmesh.evaluate import EvalOptions

        def peak():
            with open("/proc/self/status") as fh:
                return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))

        case = bench.benchmark_suite()["num_hamiltonian_vf"]
        evaluator = case.factory(EvalOptions(mode="dense"))
        before = peak()
        result = evaluator(geometry.load_mesh(sys.argv[1]))
        geometry.write_result(result, sys.argv[2], "npy")
        print((peak() - before) / 1024, result.threads)
    """)
    out = tmp_path / "out.npy"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", script, str(path), str(out)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    rise, threads = done.stdout.split()
    assert float(rise) < 24, done.stdout
    assert np.load(out, mmap_mode="r").shape == (2 * 10 ** 6, 3)
