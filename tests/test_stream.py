"""Tests of lazy results: kernel chunks streamed straight into the output file."""

import io
import itertools
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from poissonmesh import bench, cli, geometry
from poissonmesh import evaluate as ev
from poissonmesh import expressions as ex
from poissonmesh.evaluate import EvalOptions
from poissonmesh.geometry import BatchResult, random_mesh

SRC = Path(__file__).resolve().parent.parent / "src"
FORMATS = {"records": ("jsonl",), "dense": ("npy", "csv", "jsonl")}


def suite_mesh(k: int, dim: int) -> geometry.Mesh:
    """k random points in [-2, 2)^dim, the first of them on the unit
    corners, where poles sit, and then where the suite's gauge is singular
    (det G = 1 -+ 2 x3 (x1 - x2) = 0)."""
    pts = np.random.default_rng(k).uniform(-2.0, 2.0, size=(k, dim))
    special = np.array(list(itertools.product((0.0, 1.0), repeat=dim)))
    special = np.vstack([special, np.zeros((2, dim))])
    special[-2:, :3] = [(0.5, 0.0, 1.0), (0.0, 0.5, 1.0)]
    pts[:len(special)] = special[:k]
    return geometry.as_mesh(pts)


def written(result: BatchResult, path: Path, fmt: str) -> dict:
    """The bytes ``write_result`` writes for ``result``, the mask's too."""
    cli.write_result(result, str(path), fmt)
    files = {fmt: path.read_bytes()}
    sidecar = Path(f"{path}.valid.npy")
    if sidecar.exists():
        files["valid"] = sidecar.read_bytes()
    return files


def npy_bytes(array) -> bytes:
    buffer = io.BytesIO()
    np.save(buffer, array)
    return buffer.getvalue()


def check_stream_matches_the_block(tmp_path, k: int) -> int:
    """Every suite method in both modes on k points: the streamed files equal
    those of the same result once its whole block is read (the one-chunk
    layout), and the npy equals ``np.save`` of the block.  Returns the
    largest thread count a result ran on."""
    threads = 0
    for method, case in bench.benchmark_suite().items():
        mesh = suite_mesh(k, case.dim)
        for mode, formats in FORMATS.items():
            evaluator = case.factory(EvalOptions(mode=mode))
            for fmt in formats:
                result = evaluator(mesh)
                streamed = written(result, tmp_path / f"out.{fmt}", fmt)
                block = result.columns if result.kind == "records" else result.data
                whole = written(result, tmp_path / f"whole.{fmt}", fmt)
                assert streamed == whole, (method, mode, fmt, k)
                if fmt == "npy":
                    assert streamed["npy"] == npy_bytes(block), (method, k)
                    assert ("valid" in streamed) == (result.valid is not None)
                    if result.valid is not None:
                        assert streamed["valid"] == npy_bytes(result.valid), (method, k)
                threads = max(threads, result.threads)
    return threads


class TestBytes:
    @pytest.mark.parametrize("k", [1, 16_383, 16_384, 16_385])
    def test_stream_matches_the_whole_block(self, tmp_path, k):
        assert check_stream_matches_the_block(tmp_path, k) == 1

    @pytest.mark.parametrize("cores", [1, 2])
    def test_stream_over_many_chunks_matches_on_any_thread_count(self, tmp_path, monkeypatch, cores):
        # 17 chunks of 1,024 rows and a 5-row one: 2 threads at 2 cores.
        monkeypatch.setattr(ev, "_CHUNK_ROWS", 1024)
        monkeypatch.setattr(ev, "_usable_cores", lambda: cores)
        assert check_stream_matches_the_block(tmp_path, 17 * 1024 + 5) == cores

    def test_text_matches_savetxt_and_json_dumps_across_a_chunk_boundary(self, tmp_path):
        # 16,385 rows are a full kernel chunk and a 1-row one.
        for case in bench.benchmark_suite().values():
            mesh = suite_mesh(16_385, case.dim)
            result = case.factory(EvalOptions(mode="dense"))(mesh)
            csv, jsonl = (written(result, tmp_path / f"out.{fmt}", fmt)[fmt] for fmt in ("csv", "jsonl"))
            rows = result.data.reshape(len(result), -1)
            ref = io.BytesIO()
            np.savetxt(ref, rows, fmt="%.17g", delimiter=",")
            assert csv == ref.getvalue(), case.method
            name = "value" if result.kind == "scalar" else result.kind
            flags = [None] * len(result) if result.valid is None else result.valid.tolist()
            assert jsonl.decode() == "".join(
                json.dumps({name: row} if flag is None else {name: row, "valid": flag}) + "\n"
                for row, flag in zip(result.data.tolist(), flags)
            ), case.method


def kernel_spy(monkeypatch, fail_at=None) -> list:
    """Record each ``CompiledFunction.run`` call; the one numbered
    ``fail_at`` (from 0) raises instead."""
    calls, counter = [], itertools.count()
    run = ex.CompiledFunction.run

    def spy(self, points, sink):
        if next(counter) == fail_at:
            raise MemoryError("kernel failed")
        calls.append(len(points))
        return run(self, points, sink)

    monkeypatch.setattr(ex.CompiledFunction, "run", spy)
    return calls


class TestLazyResult:
    @pytest.mark.parametrize("cores", [1, 2])
    @pytest.mark.parametrize("fmt", ["npy", "csv", "jsonl"])
    def test_kernel_error_mid_stream_keeps_the_old_file(self, tmp_path, monkeypatch, fmt, cores):
        monkeypatch.setattr(ev, "_CHUNK_ROWS", 16)
        monkeypatch.setattr(ev, "_CHUNKS_PER_THREAD", 1)
        monkeypatch.setattr(ev, "_usable_cores", lambda: cores)
        case = bench.benchmark_suite()["num_gauge_transformation"]
        mode = "records" if fmt == "jsonl" else "dense"
        result = case.factory(EvalOptions(mode=mode))(random_mesh(100, 3, seed=1))
        target = tmp_path / f"out.{fmt}"
        target.write_bytes(b"old bytes\n")
        Path(f"{target}.valid.npy").write_bytes(b"old mask\n")
        kernel_spy(monkeypatch, fail_at=2)  # the third of 7 chunks
        with pytest.raises(MemoryError, match="kernel failed"):
            cli.write_result(result, str(target), fmt)
        assert target.read_bytes() == b"old bytes\n"
        assert Path(f"{target}.valid.npy").read_bytes() == b"old mask\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out." + fmt, f"out.{fmt}.valid.npy"]

    @pytest.mark.parametrize("mode", ["records", "dense"])
    def test_fields_after_a_write_run_no_kernel(self, tmp_path, monkeypatch, mode):
        monkeypatch.setattr(ev, "_CHUNK_ROWS", 16)
        case = bench.benchmark_suite()["num_gauge_transformation"]
        mesh = suite_mesh(100, 3)
        expected = case.factory(EvalOptions(mode=mode))(mesh)
        expected.valid  # runs its chunks into the block
        result = case.factory(EvalOptions(mode=mode))(mesh)
        calls = kernel_spy(monkeypatch)
        assert len(result) == 100 and result.threads == 1 and calls == []
        cli.write_result(result, str(tmp_path / "out.jsonl"), "jsonl")
        assert calls == [16] * 6 + [4]  # each chunk once
        calls.clear()
        assert len(result) == 100 and result.threads == 1
        assert result.nonfinite == expected.nonfinite and type(result.nonfinite) is int
        assert np.array_equal(result.valid, expected.valid) and not result.valid.all()
        assert calls == []

    @pytest.mark.parametrize("method", ["num_gauge_transformation", "num_flaschka_ratiu_bivector"])
    def test_block_read_before_or_after_a_write_is_the_file(self, tmp_path, monkeypatch, method):
        monkeypatch.setattr(ev, "_CHUNK_ROWS", 16)
        case = bench.benchmark_suite()[method]
        mesh = suite_mesh(100, case.dim)
        for mode in ("records", "dense"):
            fmt = "jsonl" if mode == "records" else "npy"
            before = case.factory(EvalOptions(mode=mode))(mesh)
            block = before.columns if mode == "records" else before.data
            first = written(before, tmp_path / f"before.{fmt}", fmt)
            after = case.factory(EvalOptions(mode=mode))(mesh)
            second = written(after, tmp_path / f"after.{fmt}", fmt)
            again = after.columns if mode == "records" else after.data
            assert first == second
            assert block.tobytes() == again.tobytes()
            if mode == "dense":
                assert first["npy"] == npy_bytes(again)
            else:
                eager = BatchResult("records", keys=after.keys, columns=again, valid=after.valid)
                assert written(eager, tmp_path / "eager.jsonl", "jsonl") == second


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs /proc/self/status")
def test_streamed_npy_peak_memory(tmp_path):
    # 10^6 points of R^4 give a 128 MB Flaschka-Ratiu block; streamed, the
    # process's peak rises far less than that over its size before the call.
    script = textwrap.dedent("""
        import sys
        import numpy as np
        from poissonmesh import bench, geometry
        from poissonmesh.evaluate import EvalOptions

        def status(key):
            with open("/proc/self/status") as fh:
                return next(int(line.split()[1]) for line in fh if line.startswith(key))

        case = bench.benchmark_suite()["num_flaschka_ratiu_bivector"]
        evaluator = case.factory(EvalOptions(mode="dense"))
        mesh = geometry.Mesh(np.random.default_rng(1).random((10 ** 6, 4)))
        before = status("VmRSS:")
        geometry.write_result(evaluator(mesh), sys.argv[1], "npy")
        print((status("VmHWM:") - before) / 1024)
    """)
    out = tmp_path / "fr.npy"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", script, str(out)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert float(done.stdout) < 32, done.stdout
    assert np.load(out, mmap_mode="r").shape == (10 ** 6, 4, 4)


def test_more_threads_than_cores_stream_the_serial_bytes(tmp_path, monkeypatch):
    # 8 threads, one chunk each at a time, switching every microsecond: each
    # chunk's block, mask and count still reach the file in row order.
    monkeypatch.setattr(ev, "_CHUNK_ROWS", 16)
    monkeypatch.setattr(ev, "_CHUNKS_PER_THREAD", 1)
    case = bench.benchmark_suite()["num_gauge_transformation"]
    mesh = suite_mesh(1000, 3)
    files = {}
    interval = sys.getswitchinterval()
    try:
        sys.setswitchinterval(1e-6)
        for cores in (1, 8):
            monkeypatch.setattr(ev, "_usable_cores", lambda cores=cores: cores)
            for mode, fmt in (("dense", "npy"), ("records", "jsonl")):
                result = case.factory(EvalOptions(mode=mode))(mesh)
                files[cores, fmt] = written(result, tmp_path / f"out.{fmt}", fmt), result.nonfinite
                assert result.threads == cores
    finally:
        sys.setswitchinterval(interval)
    for fmt in ("npy", "jsonl"):
        assert files[1, fmt] == files[8, fmt]
