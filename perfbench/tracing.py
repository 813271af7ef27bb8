"""Spans recorded around the library's layers, replays, and self times.

Spans are recorded from the benchmark's side of each call: around
``geometry.load_mesh``, ``evaluate.prepare_*``, the evaluator call and
``cli.write_result``.  Work that happens inside those calls cannot be seen
from outside, so it is replayed on the same inputs right after the call, and
the replay span is attributed to the call as a child:

* ``expressions.parse`` and ``expressions.compile`` under ``evaluate.prepare``
  (the coefficient text ``prepare_*`` parses and the expressions it compiles);
* ``symbolic.construct`` (``schouten_coboundary``, ``curl_sym``,
  ``modular_vf_sym``, ``flaschka_ratiu_sym``, ``linear_normal_form_r3``),
  ``expressions.compile`` of the constructed field, and ``expressions.kernel``
  (``evaluate_block`` per coefficient over 65,536-row chunks) under
  ``evaluate.call``.

A span's self time is its duration minus the durations of its children, so
the self times of all spans add up to the root spans' durations exactly; the
self time of the ``operation`` roots is the benchmark's own glue and is
reported as the gap.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from poissonmesh import (
    Multivector,
    bivector_to_matrix_sym,
    compile_expression,
    curl_sym,
    differentiate,
    flaschka_ratiu_sym,
    linear_normal_form_r3,
    modular_vf_sym,
    parse,
    schouten_coboundary,
)
from poissonmesh.expressions import Num, fold_add, fold_mul, fold_neg, fold_sub

CHUNK_ROWS = 65536  # the evaluator's row chunk


class Tracer:
    """Spans kept in memory: name, start, end, parent id and operation id."""

    def __init__(self):
        self.spans: list[dict] = []

    def span(self, name: str, op: str, parent: int | None = None) -> "_Span":
        return _Span(self, name, op, parent)


class _Span:
    def __init__(self, tracer: Tracer, name: str, op: str, parent: int | None):
        self.record = {
            "id": len(tracer.spans),
            "name": name,
            "op": op,
            "parent": parent,
            "start": 0.0,
            "end": 0.0,
        }
        tracer.spans.append(self.record)

    @property
    def id(self) -> int:
        return self.record["id"]

    def __enter__(self):
        self.record["start"] = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.record["end"] = time.perf_counter()
        return False


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the durations of its child spans."""
    out = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            out[s["parent"]] -= s["end"] - s["start"]
    return out


def count_nodes(exprs) -> int:
    """Nodes in the expression trees, counting a shared subtree each time."""
    total = 0
    stack = list(exprs)
    while stack:
        node = stack.pop()
        total += 1
        for attr in ("child", "left", "right", "arg"):
            child = getattr(node, attr, None)
            if child is not None:
                stack.append(child)
    return total


# --- Replays of the work inside prepare_* and the evaluator call ---------------


def _nonzero(e) -> bool:
    return not (isinstance(e, Num) and e.value == 0.0)


def _gradient(expr, m: int) -> list:
    return [d for d in (differentiate(expr, i) for i in range(1, m + 1)) if _nonzero(d)]


def _antisym_jacobian(form: Multivector, m: int) -> list:
    out = []
    for i in range(1, m + 1):
        for j in range(1, m + 1):
            if i == j:
                continue
            entry = fold_sub(
                differentiate(form.coefficient((i,)), j),
                differentiate(form.coefficient((j,)), i),
            )
            if _nonzero(entry):
                out.append(entry)
    return out


@dataclass
class CaseReplay:
    """Parsed inputs of one case and the expressions its prepare compiles."""

    fields: dict = field(default_factory=dict)  # input name -> Multivector / Expression / list
    prepare_exprs: list = field(default_factory=list)  # compiled inside prepare_*
    kernel_repeats: list = field(default_factory=list)  # prepare_exprs indices evaluated twice
    compiled: list = field(default_factory=list)


def parse_inputs(case) -> dict:
    """Replay of ``prepare_*`` parsing: every coefficient text of the case."""
    dim = case.dim
    out = {}
    for name, raw in case.inputs.items():
        if name == "degree":
            continue
        if isinstance(raw, dict):
            out[name] = {key: parse(str(text), dim) for key, text in raw.items()}
        elif isinstance(raw, list):
            out[name] = [parse(str(text), dim) for text in raw]
        else:
            out[name] = parse(str(raw), dim)
    return out


def build_replay(case, parsed: dict) -> CaseReplay:
    """Fields for the construct replays and the prepare compile list (untimed)."""
    dim = case.dim
    rep = CaseReplay()
    for name, value in parsed.items():
        if isinstance(value, dict):
            degree = len(next(iter(value)))
            rep.fields[name] = Multivector.build(dim, degree, value)
        else:
            rep.fields[name] = value
    f = rep.fields
    method = case.method

    def coeffs(name):
        return list(f[name].coeffs.values())

    if method in ("num_bivector", "num_bivector_to_matrix"):
        rep.prepare_exprs = coeffs("P")
    elif method == "num_hamiltonian_vf":
        rep.prepare_exprs = coeffs("P") + _gradient(f["h"], dim)
    elif method == "num_poisson_bracket":
        rep.prepare_exprs = coeffs("P") + _gradient(f["f"], dim) + _gradient(f["g"], dim)
    elif method == "num_sharp_morphism":
        rep.prepare_exprs = coeffs("P") + coeffs("alpha")
    elif method == "num_gauge_transformation":
        rep.prepare_exprs = coeffs("P") + coeffs("lam")
    elif method == "num_one_forms_bracket":
        P, alpha, beta = f["P"], f["alpha"], f["beta"]
        # <beta, sharp(alpha)> assembled as evaluate.prepare_one_forms_bracket does
        matrix = bivector_to_matrix_sym(P)
        pairing = Num(0.0)
        for (k,), b_k in beta.coeffs.items():
            component = Num(0.0)
            for (j,), a_j in alpha.coeffs.items():
                component = fold_add(component, fold_mul(matrix.entry(k, j), a_j))
            pairing = fold_add(pairing, fold_mul(b_k, fold_neg(component)))
        p_exprs = coeffs("P")
        rep.prepare_exprs = (
            p_exprs
            + _antisym_jacobian(beta, dim)
            + _antisym_jacobian(alpha, dim)
            + coeffs("alpha")
            + coeffs("beta")
            + _gradient(pairing, dim)
        )
        # the two sharp kernels each evaluate the bivector's coefficients
        rep.kernel_repeats = list(range(len(p_exprs)))
    return rep


def construct(case, rep: CaseReplay):
    """Replay of the per-call symbolic construction; None for hand kernels."""
    f = rep.fields
    method = case.method
    if method == "num_coboundary_operator":
        return schouten_coboundary(f["P"], f["A"])
    if method == "num_modular_vf":
        return modular_vf_sym(f["P"], f["f0"])
    if method == "num_curl_operator":
        return curl_sym(f["A"], f["f0"])
    if method == "num_flaschka_ratiu_bivector":
        return flaschka_ratiu_sym(f["casimirs"], case.dim)
    if method == "num_linear_normal_form_r3":
        return linear_normal_form_r3(f["P"]).representative
    return None


def compile_all(exprs, dim: int) -> list:
    return [compile_expression(e, dim) for e in exprs]


def run_kernels(fns, points) -> None:
    """Replay of the chunked block evaluation: each function over each chunk."""
    k = len(points)
    for a in range(0, k, CHUNK_ROWS):
        chunk = points[a : a + CHUNK_ROWS]
        for fn in fns:
            fn.evaluate_block(chunk)
