"""Benchmark entry point.

    python3 perfbench/run.py --workload dense_npy --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 20

Run from the repository root.  The library is imported from ``src/`` of the
checkout this file sits in, never from an installed copy; without it the run
exits with status 2 and prints no result.

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics from a traced run.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
Inputs, meshes and outputs live in ``.perfbench_work/`` under the checkout
and are removed at exit; spans and the run record are written to
``.perfbench_out/``.
"""

from __future__ import annotations

import os

# One thread everywhere, before NumPy loads its BLAS.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("dense_npy", "records_text", "symbolic_many")
CHILD_TIMEOUT_S = 150


def _import_library() -> None:
    src = ROOT / "src"
    if not (src / "poissonmesh" / "__init__.py").is_file():
        print(f"error: no poissonmesh sources under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(ROOT))
    import poissonmesh

    if Path(poissonmesh.__file__).resolve().parent != (src / "poissonmesh").resolve():
        print(f"error: poissonmesh imported from {poissonmesh.__file__}", file=sys.stderr)
        sys.exit(2)


def _llc() -> str:
    """Size and sharing of the last-level cache, from sysfs."""
    best = None
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    try:
        for index in base.glob("index*"):
            level = int((index / "level").read_text())
            kind = (index / "type").read_text().strip()
            if kind == "Instruction":
                continue
            if best is None or level > best[0]:
                shared = (index / "shared_cpu_list").read_text().strip()
                best = (level, (index / "size").read_text().strip(), shared)
    except OSError:
        return "unknown"
    if best is None:
        return "unknown"
    return f"L{best[0]} {best[1]} shared by cpus {best[2]}"


def environment() -> dict:
    import numpy as np

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "llc": _llc(),
    }


def array_sizes(workload, runner) -> str:
    """Largest mesh and dense result arrays of the workload, in MiB."""
    mesh = max(op.k * op.dim * 8 for op in workload.ops)
    result = 0
    for op in workload.ops:
        ref = runner.refs[op.op_id][0]
        result = max(result, op.k * int(max(1, ref[0].size)) * 8)
    return f"largest mesh {mesh / 2**20:.1f} MiB, largest result block {result / 2**20:.1f} MiB"


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def own_peak_rss_kb() -> int:
    """Peak resident set of this process's own address space (VmHWM).

    Not ru_maxrss: on Linux exec carries the spawning process's high-water
    mark into the child's ru_maxrss, so it would read the parent's size.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def peak_rss_mb(name: str, seed: int, work_dir: str) -> float:
    """Peak RSS of a fresh process that prepares and runs one pass."""
    cmd = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--workload", name,
        "--seed", str(seed),
        "--rss-child", work_dir,
    ]
    child = subprocess.Popen(cmd, cwd=str(ROOT), stdout=subprocess.PIPE, text=True)
    try:
        out, _ = child.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        child.kill()
        child.communicate()
        raise RuntimeError("peak-RSS child timed out")
    if child.returncode != 0:
        raise RuntimeError(f"peak-RSS child exited with {child.returncode}")
    return int(out.split()[-1]) / 1024.0


def run_untraced(runner, seconds: float, name: str, seed: int, work_dir: str) -> dict:
    from perfbench.harness import REF_CAL_S, reference_s
    from perfbench.metrics import END_TO_END

    prepare_s, setup_cal_s = runner.setup()
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        passes.append(runner.untraced_pass())
    done = [p for p in passes if p.wall_s > 0]
    wall_rate = statistics.median(p.points / p.wall_s for p in done) if done else 0.0
    values = {
        "points_per_s": statistics.median(
            p.points / reference_s(p.wall_s, p.cal_s) for p in done
        ) if done else 0.0,
        "setup_s": reference_s(prepare_s, setup_cal_s),
        "peak_rss_mb": peak_rss_mb(name, seed, work_dir),
        "ok_frac": 1.0 - runner.failed / runner.attempted,
    }
    cal_s = statistics.fmean(p.cal_s for p in passes)
    print(f"passes: {len(passes)}, points per pass: {passes[0].points}")
    print(f"calibration loop: {1e3 * cal_s:.3f} ms mean in the passes, "
          f"{1e3 * setup_cal_s:.3f} ms in set-up, reference {1e3 * REF_CAL_S:.3f} ms")
    print(f"wall clock: points_per_s = {wall_rate:.6g} points/s, setup_s = {prepare_s:.6g} s "
          "(the metrics below are in reference seconds)")
    return {key: metric(values[key], unit) for key, unit in END_TO_END.items()}


def run_traced(runner, seconds: float) -> tuple[dict, list]:
    from perfbench import harness, tracing
    from perfbench.metrics import PER_LAYER

    prep_tracer = tracing.Tracer()
    replays = runner.traced_prepare(prep_tracer)
    untraced, traced = [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        untraced.append(runner.untraced_pass())
        tracer = tracing.Tracer()
        result, counts = runner.traced_pass(tracer, replays)
        traced.append((tracer, result, counts))

    cases = {c.case_id: c for c in runner.workload.cases}
    ops = {op.op_id: op for op in runner.workload.ops}
    prep = harness.layer_times(prep_tracer.spans, cases, ops)
    per_pass = [harness.layer_times(t.spans, cases, ops) for t, _, _ in traced]
    layers = {
        key: prep[key] + statistics.fmean(p[key] for p in per_pass) for key in prep
    }
    counts = traced[0][2]
    if any(c != counts for _, _, c in traced):
        harness.log("warning: per-layer counts differ between traced passes")
    layers.update(counts)
    layers["trace.untraced_wall_s"] = statistics.fmean(u.wall_s for u in untraced)
    layers["machine.calibration_s"] = statistics.fmean(u.cal_s for u in untraced)
    layers["trace.overhead_s"] = (
        statistics.fmean(r.wall_s for _, r, _ in traced) - layers["trace.untraced_wall_s"]
    )
    layers["trace.spans"] = len(traced[0][0].spans)
    gap = layers["trace.wall_s"] - harness.self_sum(layers)
    print(
        f"traced passes: {len(traced)}; traced wall {layers['trace.wall_s']:.6f} s "
        f"= layer self times {harness.self_sum(layers):.6f} s + gap {gap:.6f} s "
        f"({100 * gap / layers['trace.wall_s']:.3f}%); "
        f"tracing overhead {layers['trace.overhead_s']:.6f} s on "
        f"{layers['trace.untraced_wall_s']:.6f} s untraced"
    )
    spans = [{"segment": "prepare", **s} for s in prep_tracer.spans]
    for index, (tracer, _, _) in enumerate(traced):
        spans.extend({"segment": f"pass{index}", **s} for s in tracer.spans)
    return {key: metric(layers[key], unit) for key, unit in PER_LAYER.items()}, spans


def run_workload(args) -> int:
    _import_library()
    from perfbench import harness, workloads

    workload = workloads.build(args.workload, args.seed)
    if args.rss_child:
        runner = harness.Runner(workload, args.rss_child)
        runner.prepare_all()
        runner.untraced_pass(measured=False)
        print(f"peak_rss_kb {own_peak_rss_kb()}")
        return 0

    env = environment()
    print("environment: " + json.dumps(env, sort_keys=True))
    work_root = ROOT / ".perfbench_work"
    work_dir = work_root / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    try:
        runner = harness.Runner(workload, str(work_dir))
        runner.write_inputs()
        print(f"workload {args.workload}: {len(workload.cases)} cases, "
              f"{len(workload.ops)} operations, {array_sizes(workload, runner)}, "
              f"LLC {env['llc']}")
        spans = []
        if args.trace:
            metrics, spans = run_traced(runner, args.seconds)
        else:
            metrics = run_untraced(runner, args.seconds, args.workload, args.seed, str(work_dir))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass

    for message in runner.failures:
        harness.log(f"FAILED {message}")
    failed_frac = runner.failed / runner.attempted
    for key, m in metrics.items():
        print(f"  {key} = {m['value']:.6g} {m['unit']}")
    print(f"  failed_frac = {failed_frac:.6g} ({runner.failed} of {runner.attempted} operations)")

    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "metrics": metrics,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "failures": runner.failures,
        "spans": spans,
    }
    out_file = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record) + "\n")

    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0


def run_all(args) -> int:
    """Run every workload in its own process and print one table."""
    rows = []
    for name in WORKLOADS:
        cmd = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", "0",
        ]
        proc = subprocess.run(cmd, cwd=str(ROOT), capture_output=True, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        rows.append((name, result))
    print("times in reference seconds (see perfbench/README.md)")
    for name, result in rows:
        m = result["metrics"]
        print(
            f"{name:14s} points_per_s {m['points_per_s']['value']:12.1f} points/s  "
            f"setup_s {m['setup_s']['value']:9.4f} s  "
            f"peak_rss_mb {m['peak_rss_mb']['value']:8.1f} MB  "
            f"failed_frac {result['failed'] / result['attempted']:.4f} "
            f"({result['failed']}/{result['attempted']})"
        )
    return 0 if all(r["failed"] == 0 for _, r in rows) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--all", action="store_true", help="run every workload, untraced")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rss-child", default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.all:
        return run_all(args)
    if args.workload is None:
        parser.error("--workload or --all is required")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
