"""Names and units of every metric the benchmark reports.

``BENCHMARK.json`` at the repository root lists the same names and units;
the benchmark's tests keep the two in step.
"""

from __future__ import annotations

import re

from .harness import COUNT_NAMES
from .workloads import METHODS

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

END_TO_END = {
    "points_per_s": "points/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
}

_BYTES = {"geometry.mesh_bytes", "expressions.bytes_computed", "cli.bytes_written"}

PER_LAYER = {
    "geometry.load_mesh_s": "s",
    "evaluate.prepare_s": "s",
    "evaluate.prepare_self_s": "s",
    "evaluate.call_s": "s",
    **{f"evaluate.call_s.{method}": "s" for method in METHODS},
    "evaluate.self_s": "s",
    "symbolic.construct_s": "s",
    "expressions.parse_s": "s",
    "expressions.compile_s": "s",
    "expressions.kernel_s": "s",
    "cli.write_s": "s",
    **{name: "bytes" if name in _BYTES else "count" for name in COUNT_NAMES},
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
    "trace.gap_s": "s",
    "trace.spans": "count",
    "machine.calibration_s": "s",
}
