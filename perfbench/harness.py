"""Runs a workload's operations: set-up, timed passes, traced passes, checks.

One operation does what ``poissonmesh eval`` does minus argument parsing:
``geometry.load_mesh`` -> evaluator call -> ``cli.write_result``, with the
evaluator prepared once per case by ``evaluate.prepare_*``.  Everything runs
in this process on one thread.  Correctness checks read each output back
from disk after the operation, outside every timed region.
"""

from __future__ import annotations

import math
import os
import statistics
import sys
import time
from dataclasses import dataclass

import numpy as np

from poissonmesh import cli, geometry

from . import oracle, tracing
from .workloads import CONSTRUCTING, METHODS, Workload, options_for, prepare, write_meshes

# Machine-speed calibration.  The CPU speed of the host the benchmark was
# defined on swings by about +-30% over tens of seconds, which moves wall
# times by as much.  Fixed kernels timed before every operation track those
# swings, and end-to-end times are reported in reference seconds: wall
# seconds scaled by REF_CAL_S / (the calibration's mean time in the same pass).
REF_CAL_S = 2.2e-3  # the calibration's median time on the machine the benchmark was defined on


class Calibrator:
    """Times four fixed kernels that stand for the machine's current speed.

    Interpreter arithmetic, object allocation, random loads from a large
    list and a streaming read of a large array: together they cover what
    the three workloads spend their time on.  A call returns the geometric
    mean of the four times.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self._list = list(range(1_000_000))
        self._index = rng.integers(0, len(self._list), size=15_000).tolist()
        self._array = np.ones(2_000_000)

    def __call__(self) -> float:
        times = []
        start = time.perf_counter()
        acc = 0
        for i in range(25_000):
            acc += i * i
        times.append(time.perf_counter() - start)
        start = time.perf_counter()
        table = {}
        for i in range(5_000):
            table[(i, i & 7)] = str(i)
        times.append(time.perf_counter() - start)
        start = time.perf_counter()
        values = self._list
        for j in self._index:
            acc += values[j]
        times.append(time.perf_counter() - start)
        start = time.perf_counter()
        self._array.sum()
        times.append(time.perf_counter() - start)
        return math.prod(times) ** 0.25


def reference_s(seconds: float, cal_s: float) -> float:
    """Wall seconds measured while the calibration took ``cal_s``, in reference seconds."""
    return seconds * REF_CAL_S / cal_s


COUNT_NAMES = (
    "geometry.mesh_bytes",
    "evaluate.rows",
    "evaluate.calls",
    "evaluate.nonfinite",
    "evaluate.invalid",
    "symbolic.result_nodes",
    "expressions.program_len",
    "expressions.slots",
    "expressions.ops_computed",
    "expressions.bytes_computed",
    "cli.bytes_written",
)


@dataclass
class PassResult:
    """Boundary times of one pass over all operations."""

    points: int = 0
    wall_s: float = 0.0  # load + call + write, summed over operations
    cal_s: float = 0.0  # mean calibration time, measured before each operation


class Runner:
    def __init__(self, workload: Workload, work_dir: str):
        self.workload = workload
        self.work_dir = work_dir
        self.cases = {c.case_id: c for c in workload.cases}
        self.evaluators: dict = {}
        self.samples: dict = {}
        self.refs: dict = {}
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self._calibrator: Calibrator | None = None

    def calibrate(self) -> float:
        if self._calibrator is None:
            self._calibrator = Calibrator()
        return self._calibrator()

    def path(self, name: str) -> str:
        return os.path.join(self.work_dir, name)

    # --- set-up ---------------------------------------------------------------

    def write_inputs(self) -> None:
        """Write the mesh files and compute each op's reference (untimed)."""
        self.samples = write_meshes(self.workload, self.work_dir)
        for op in self.workload.ops:
            case = self.cases[op.case_id]
            _, points = self.samples[op.op_id]
            self.refs[op.op_id] = oracle.reference(case.method, case.inputs, points)

    def prepare_all(self) -> float:
        """Prepare every case; returns the summed ``prepare_*`` time."""
        total = 0.0
        for case in self.workload.cases:
            options = options_for(case)
            start = time.perf_counter()
            self.evaluators[case.case_id] = prepare(case, options)
            total += time.perf_counter() - start
        return total

    def setup(self) -> tuple[float, float]:
        """Median summed prepare time over at least 3 set-ups and 1 s, and
        the mean calibration time measured before each set-up."""
        samples, cals = [], []
        start = time.perf_counter()
        while len(samples) < 3 or (
            time.perf_counter() - start < 1.0 and len(samples) < 200
        ):
            cals.append(self.calibrate())
            samples.append(self.prepare_all())
        return statistics.median(samples), statistics.fmean(cals)

    # --- one operation --------------------------------------------------------

    def _record_failure(self, op, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            case = self.cases[op.case_id]
            self.failures.append(f"op {op.op_id} ({case.method}): {message}")

    def check(self, op) -> None:
        """Compare the op's sampled output rows with the reference."""
        case = self.cases[op.case_id]
        rows, _ = self.samples[op.op_id]
        ref, ref_valid, scale = self.refs[op.op_id]
        out_path = self.path(op.out_file)
        try:
            count, out, out_valid = oracle.read_rows(
                out_path, case.fmt, rows, ref.shape[1:]
            )
            oracle.compare(ref, out, op.k, count, ref_valid, out_valid, scale)
        except Exception as exc:  # any unreadable or wrong output is a failure
            self._record_failure(op, f"{type(exc).__name__}: {exc}")
        finally:
            for leftover in (out_path, f"{out_path}.valid.npy"):
                if os.path.exists(leftover):
                    os.unlink(leftover)

    def run_op(self, op):
        """Load, call, write; returns (times, mesh, result) or None on error."""
        case = self.cases[op.case_id]
        evaluator = self.evaluators[case.case_id]
        try:
            t0 = time.perf_counter()
            mesh = geometry.load_mesh(self.path(op.mesh_file))
            t1 = time.perf_counter()
            result = evaluator(mesh)
            t2 = time.perf_counter()
            cli.write_result(result, self.path(op.out_file), case.fmt)
            t3 = time.perf_counter()
        except Exception as exc:  # an operation that raises counts as failed
            self._record_failure(op, f"raised {type(exc).__name__}: {exc}")
            return None
        return (t1 - t0, t2 - t1, t3 - t2), mesh, result

    # --- untraced pass --------------------------------------------------------

    def untraced_pass(self, measured: bool = True) -> PassResult:
        """One pass over all operations.  ``measured=False`` is the bare pass
        of the peak-RSS child: no calibration and no checks."""
        res = PassResult()
        cals = []
        for op in self.workload.ops:
            self.attempted += 1
            if measured:
                cals.append(self.calibrate())
            done = self.run_op(op)
            if done is None:
                continue
            res.points += op.k
            res.wall_s += sum(done[0])
            del done
            if measured:
                self.check(op)
        res.cal_s = statistics.fmean(cals) if cals else 0.0
        return res

    # --- traced prepare and pass ----------------------------------------------

    def traced_prepare(self, tracer: tracing.Tracer) -> dict:
        """Prepare every case under spans, with parse and compile replays."""
        replays = {}
        for case in self.workload.cases:
            op = f"c{case.case_id}"
            options = options_for(case)
            with tracer.span("evaluate.prepare", op) as sp:
                self.evaluators[case.case_id] = prepare(case, options)
            with tracer.span("expressions.parse", op, sp.id):
                parsed = tracing.parse_inputs(case)
            rep = tracing.build_replay(case, parsed)
            with tracer.span("expressions.compile", op, sp.id):
                rep.compiled = tracing.compile_all(rep.prepare_exprs, case.dim)
            replays[case.case_id] = rep
        return replays

    def traced_pass(self, tracer: tracing.Tracer, replays: dict) -> tuple[PassResult, dict]:
        """One pass with spans; returns boundary times and per-pass counts."""
        res = PassResult()
        counts = dict.fromkeys(COUNT_NAMES, 0)
        for op in self.workload.ops:
            self.attempted += 1
            case = self.cases[op.case_id]
            evaluator = self.evaluators[case.case_id]
            tag = f"o{op.op_id}"
            try:
                with tracer.span("operation", tag) as root:
                    with tracer.span("geometry.load_mesh", tag, root.id):
                        mesh = geometry.load_mesh(self.path(op.mesh_file))
                    with tracer.span("evaluate.call", tag, root.id) as call:
                        result = evaluator(mesh)
                    with tracer.span("cli.write", tag, root.id):
                        cli.write_result(result, self.path(op.out_file), case.fmt)
            except Exception as exc:  # an operation that raises counts as failed
                self._record_failure(op, f"raised {type(exc).__name__}: {exc}")
                continue
            res.points += op.k
            res.wall_s += root.record["end"] - root.record["start"]

            rep = replays[case.case_id]
            fns = list(rep.compiled) + [rep.compiled[i] for i in rep.kernel_repeats]
            if case.method in CONSTRUCTING:
                with tracer.span("symbolic.construct", tag, call.id):
                    sym = tracing.construct(case, rep)
                counts["symbolic.result_nodes"] += tracing.count_nodes(sym.coeffs.values())
                compiles_in_call = not (
                    case.method == "num_linear_normal_form_r3" and case.mode == "records"
                )
                if compiles_in_call:
                    with tracer.span("expressions.compile", tag, call.id):
                        fns = tracing.compile_all(sym.coeffs.values(), case.dim)
                else:  # per-point partial evaluation, no compiled kernels
                    fns = []
            with tracer.span("expressions.kernel", tag, call.id):
                tracing.run_kernels(fns, mesh.points)

            out_path = self.path(op.out_file)
            program_len = sum(len(fn.program) for fn in fns)
            counts["geometry.mesh_bytes"] += os.path.getsize(self.path(op.mesh_file))
            counts["evaluate.rows"] += op.k
            counts["evaluate.calls"] += 1
            counts["evaluate.nonfinite"] += int(result.nonfinite)
            if result.valid is not None:
                counts["evaluate.invalid"] += int(np.count_nonzero(~np.asarray(result.valid)))
            counts["expressions.program_len"] += program_len
            counts["expressions.slots"] += sum(fn.n_slots for fn in fns)
            counts["expressions.ops_computed"] += program_len * op.k
            counts["expressions.bytes_computed"] += 8 * program_len * op.k
            counts["cli.bytes_written"] += os.path.getsize(out_path) + (
                os.path.getsize(f"{out_path}.valid.npy")
                if os.path.exists(f"{out_path}.valid.npy")
                else 0
            )
            del mesh, result
            self.check(op)
        return res, counts


def layer_times(spans: list[dict], cases: dict, ops: dict) -> dict[str, float]:
    """Per-layer totals (seconds) from a list of spans."""
    self_of = tracing.self_times(spans)
    out = {
        "geometry.load_mesh_s": 0.0,
        "evaluate.prepare_s": 0.0,
        "evaluate.prepare_self_s": 0.0,
        "evaluate.call_s": 0.0,
        "evaluate.self_s": 0.0,
        "symbolic.construct_s": 0.0,
        "expressions.parse_s": 0.0,
        "expressions.compile_s": 0.0,
        "expressions.kernel_s": 0.0,
        "cli.write_s": 0.0,
        "trace.gap_s": 0.0,
        "trace.wall_s": 0.0,
    }
    for method in METHODS:
        out[f"evaluate.call_s.{method}"] = 0.0
    simple = {
        "geometry.load_mesh": "geometry.load_mesh_s",
        "symbolic.construct": "symbolic.construct_s",
        "expressions.parse": "expressions.parse_s",
        "expressions.compile": "expressions.compile_s",
        "expressions.kernel": "expressions.kernel_s",
        "cli.write": "cli.write_s",
    }
    for s in spans:
        name = s["name"]
        duration = s["end"] - s["start"]
        if name in simple:
            out[simple[name]] += duration
        elif name == "evaluate.prepare":
            out["evaluate.prepare_s"] += duration
            out["evaluate.prepare_self_s"] += self_of[s["id"]]
            out["trace.wall_s"] += duration
        elif name == "evaluate.call":
            out["evaluate.call_s"] += duration
            out["evaluate.self_s"] += self_of[s["id"]]
            op = ops[int(s["op"][1:])]
            out[f"evaluate.call_s.{cases[op.case_id].method}"] += duration
        elif name == "operation":
            out["trace.gap_s"] += self_of[s["id"]]
            out["trace.wall_s"] += duration
    return out


def self_sum(layers: dict[str, float]) -> float:
    """Sum of every layer's self time; equals trace.wall_s - trace.gap_s."""
    return sum(
        layers[name]
        for name in (
            "geometry.load_mesh_s",
            "evaluate.prepare_self_s",
            "expressions.parse_s",
            "expressions.compile_s",
            "evaluate.self_s",
            "symbolic.construct_s",
            "expressions.kernel_s",
            "cli.write_s",
        )
    )


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)
