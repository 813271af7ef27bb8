"""Command-line front end: evaluate methods over meshes, generate meshes,
and run scaling benchmarks.

Exit codes: 0 success (the output file was fully written), 2 input
validation failure, 3 expression parse failure, 4 unbound parameter,
5 mesh dimension mismatch, 6 I/O failure.

Output formats: ``jsonl`` (one JSON object per mesh point; coefficient keys
are comma-joined index tuples under "coeffs", with a "valid" flag where the
method produces one; a dense result, such as the always-dense
``num_bivector_to_matrix``, gives {"matrix": [[...], ...]}, {"vector": [...]}
or {"value": ...} lines), ``npy`` (a float64 tensor shaped (k,), (k, m), or
(k, m, m); a sibling ``<out>.valid.npy`` carries the validity mask when
present), and ``csv`` (the same tensor flattened to one row per point).
``jsonl`` uses the records output mode; ``npy`` and ``csv`` use dense mode.
Non-finite values are the non-strict JSON tokens NaN, Infinity and -Infinity
(csv: nan, inf, -inf).  jsonl and csv are written in chunks of at most
49,152 values (16,384 rows of three).
Every file, ``mesh`` output included, is written beside its target and then
renamed into place, so a failed write leaves no partial file.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import bench as bench_mod
from . import evaluate as ev
from .evaluate import EvalOptions, MeshDimensionError
from .expressions import ExpressionError, UnboundParameterError
from .geometry import (
    BatchResult,
    Mesh,
    Multivector,
    MultivectorError,
    _text_chunks,
    atomic_write,
    corners_mesh,
    load_mesh,
    random_mesh,
    save_csv,
    save_mesh,
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_PARSE = 3
EXIT_UNBOUND_PARAMETER = 4
EXIT_DIMENSION = 5
EXIT_IO = 6

METHODS = (
    "num_bivector",
    "num_bivector_to_matrix",
    "num_hamiltonian_vf",
    "num_poisson_bracket",
    "num_sharp_morphism",
    "num_coboundary_operator",
    "num_modular_vf",
    "num_curl_operator",
    "num_one_forms_bracket",
    "num_gauge_transformation",
    "num_linear_normal_form_r3",
    "num_flaschka_ratiu_bivector",
)

_INPUT_FLAGS = (
    "bivector",
    "argument",
    "alpha",
    "beta",
    "lam",
    "h",
    "f",
    "g",
    "casimir",
)


# --- Input loading ----------------------------------------------------------


def _scalar_arg(value: str) -> str:
    """A scalar expression given inline or as @path to a file."""
    if value.startswith("@"):
        return Path(value[1:]).read_text().strip()
    return value


def _scalar_list_arg(values) -> list[str]:
    """Scalar expressions, inline or @path files with one per line."""
    out = []
    for value in values:
        if value.startswith("@"):
            for line in Path(value[1:]).read_text().splitlines():
                line = line.strip()
                if line:
                    out.append(line)
        else:
            out.append(value)
    return out


def _load_multivector(path: str, what: str) -> Multivector:
    text = Path(path).read_text()
    try:
        return Multivector.from_json(text)
    except json.JSONDecodeError as exc:
        raise MultivectorError(f"{what}: {path} is not valid JSON: {exc}") from exc


def _load_mesh_arg(value: str, dim: int | None) -> Mesh:
    if value == "corners":
        if dim is None:
            raise MultivectorError("--mesh corners requires --dim")
        return corners_mesh(dim)
    return load_mesh(value)


def _parse_params(items) -> dict[str, float]:
    params = {}
    for item in items or ():
        name, sep, value = item.partition("=")
        if not sep or not name:
            raise MultivectorError(
                f"--param expects name=value, got {item!r}"
            )
        try:
            params[name] = float(value)
        except ValueError as exc:
            raise MultivectorError(
                f"--param {name}: {value!r} is not a number"
            ) from exc
    return params


def _require(args, flag: str):
    value = getattr(args, flag.replace("-", "_"), None)
    if value is None or (isinstance(value, list) and not value):
        raise MultivectorError(
            f"--{flag} is required for {args.method}"
        )
    return value


def _argument_input(args) -> tuple:
    """The coboundary/curl argument: JSON multivector file or scalar text.

    Returns (value, degree) where degree None defers to the file's own.
    """
    raw = _require(args, "argument")
    if raw.startswith("@"):
        return _scalar_arg(raw), 0
    if os.path.isfile(raw):
        return _load_multivector(raw, "--argument"), args.degree
    return raw, 0 if args.degree is None else args.degree


def _build_case(args, options: EvalOptions):
    """(dim, evaluator) for the requested method from parsed flags."""
    method = args.method
    dim = args.dim

    def bivector():
        return _load_multivector(_require(args, "bivector"), "--bivector")

    if method == "num_bivector":
        P = bivector()
        return P.dim, ev.prepare_bivector(P, options, dim=dim)
    if method == "num_bivector_to_matrix":
        P = bivector()
        return P.dim, ev.prepare_bivector_to_matrix(P, options, dim=dim)
    if method == "num_hamiltonian_vf":
        P = bivector()
        h = _scalar_arg(_require(args, "h"))
        return P.dim, ev.prepare_hamiltonian_vf(P, h, options, dim=dim)
    if method == "num_poisson_bracket":
        P = bivector()
        f = _scalar_arg(_require(args, "f"))
        g = _scalar_arg(_require(args, "g"))
        return P.dim, ev.prepare_poisson_bracket(P, f, g, options, dim=dim)
    if method == "num_sharp_morphism":
        P = bivector()
        alpha = _load_multivector(_require(args, "alpha"), "--alpha")
        return P.dim, ev.prepare_sharp_morphism(P, alpha, options, dim=dim)
    if method == "num_coboundary_operator":
        P = bivector()
        A, degree = _argument_input(args)
        return P.dim, ev.prepare_coboundary_operator(
            P, A, options, dim=dim, degree=degree
        )
    if method == "num_modular_vf":
        P = bivector()
        f0 = _scalar_arg(args.f0)
        return P.dim, ev.prepare_modular_vf(P, f0, options, dim=dim)
    if method == "num_curl_operator":
        A, degree = _argument_input(args)
        f0 = _scalar_arg(args.f0)
        a_dim = A.dim if isinstance(A, Multivector) else dim
        if a_dim is None:
            raise MultivectorError("--dim is required for a scalar --argument")
        return a_dim, ev.prepare_curl_operator(
            A, f0, options, dim=dim, degree=degree
        )
    if method == "num_one_forms_bracket":
        P = bivector()
        alpha = _load_multivector(_require(args, "alpha"), "--alpha")
        beta = _load_multivector(_require(args, "beta"), "--beta")
        return P.dim, ev.prepare_one_forms_bracket(
            P, alpha, beta, options, dim=dim
        )
    if method == "num_gauge_transformation":
        P = bivector()
        lam = _load_multivector(_require(args, "lam"), "--lam")
        return P.dim, ev.prepare_gauge_transformation(P, lam, options, dim=dim)
    if method == "num_linear_normal_form_r3":
        P = bivector()
        return 3, ev.prepare_linear_normal_form_r3(P, options)
    if method == "num_flaschka_ratiu_bivector":
        casimirs = _scalar_list_arg(_require(args, "casimir"))
        if dim is None:
            raise MultivectorError(
                "--dim is required for num_flaschka_ratiu_bivector"
            )
        return dim, ev.prepare_flaschka_ratiu_bivector(casimirs, dim, options)
    raise MultivectorError(f"unknown method {method!r}")


# --- Output writing ---------------------------------------------------------


_SLOT = "%s"  # a value's place in a line template, quoted until the template is done
_NONFINITE_TOKENS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
_BOOL_TOKENS = ("false", "true")


def _json_tokens(column: list) -> list:
    """Each value as ``json.dumps`` writes it: a float is its repr, except
    for the NaN, Infinity and -Infinity tokens."""
    try:
        reprs = list(map(float.__repr__, column))
    except TypeError:  # residual text
        return list(map(json.dumps, column))
    return list(map(_NONFINITE_TOKENS.get, reprs, reprs))


def _write_jsonl(result: BatchResult, fh) -> None:
    """Fill one line template per result, one chunk of rows at a time.

    A record's slots are its ``keys``, read from ``columns``, then its valid
    flag; a dense row's are its entries in row-major order.
    """
    valid = None
    if result.kind == "records":
        columns, valid = result.columns, result.valid
        skeleton = {"coeffs": {
            ",".join(map(str, key)) if isinstance(key, tuple) else key: _SLOT
            for key in result.keys
        }}
        if valid is not None:
            skeleton["valid"] = _SLOT
    else:
        columns = result.data.reshape(len(result), -1).T
        name = "value" if result.kind == "scalar" else result.kind
        skeleton = {name: np.full(result.data.shape[1:], _SLOT, dtype=object).tolist()}
    template = json.dumps(skeleton).replace(json.dumps(_SLOT), _SLOT) + "\n"
    for span in _text_chunks(len(result), len(columns) + (valid is not None)):
        # One column at a time, so only its tokens outlive it.
        tokens = [_json_tokens(column[span].tolist()) for column in columns]
        if valid is not None:
            tokens.append([_BOOL_TOKENS[flag] for flag in valid[span].tolist()])
        rows = itertools.chain.from_iterable(zip(*tokens))
        del tokens  # so the spent chain frees this chunk's tokens
        fh.write(((template * (span.stop - span.start)) % tuple(rows)).encode())


def write_result(result: BatchResult, path: str, fmt: str):
    if fmt == "jsonl":
        atomic_write(path, lambda fh: _write_jsonl(result, fh))
        return
    if result.kind == "records":
        raise MultivectorError(
            f"format {fmt!r} requires a dense result; use --format jsonl"
        )
    data = np.asarray(result.data, dtype=np.float64)
    if fmt == "npy":
        atomic_write(path, lambda fh: np.save(fh, data))
        if result.valid is not None:
            atomic_write(f"{path}.valid.npy", lambda fh: np.save(fh, result.valid))
        return
    if fmt == "csv":
        save_csv(path, data.reshape(len(data), -1))
        return
    raise MultivectorError(f"unknown output format {fmt!r}")


def _infer_format(path: str, explicit: str | None) -> str:
    suffix = Path(path).suffix.lower()
    return explicit or {".npy": "npy", ".csv": "csv"}.get(suffix, "jsonl")


# --- Subcommands ------------------------------------------------------------


def cmd_eval(args) -> int:
    fmt = _infer_format(args.out, args.format)
    mode = "records" if fmt == "jsonl" else "dense"
    options = EvalOptions(
        mode=mode, params=_parse_params(args.param), workers=args.workers
    )
    t0 = time.perf_counter()
    dim, evaluator = _build_case(args, options)
    t1 = time.perf_counter()
    mesh = _load_mesh_arg(args.mesh, args.dim if args.dim is not None else dim)
    t2 = time.perf_counter()
    result = evaluator(mesh)
    t3 = time.perf_counter()
    write_result(result, args.out, fmt)
    t4 = time.perf_counter()
    print(
        f"{len(mesh.points)} points, prepare {t1 - t0:.3f} s, load {t2 - t1:.3f} s, "
        f"eval {t3 - t2:.3f} s, write {t4 - t3:.3f} s, "
        f"{result.nonfinite} non-finite"
    )
    return EXIT_OK


def cmd_mesh(args) -> int:
    if args.dim is None:
        raise MultivectorError(f"mesh {args.kind} requires --dim")
    if args.kind == "corners":
        mesh = corners_mesh(args.dim)
    else:
        mesh = random_mesh(args.k, args.dim, seed=args.seed)
    save_mesh(mesh, args.out)
    print(f"wrote {len(mesh.points)} x {mesh.dim} mesh to {args.out}")
    return EXIT_OK


def cmd_bench(args) -> int:
    sizes = sorted({int(s) for s in args.sizes.split(",") if s.strip()})
    if len(sizes) < 2:
        raise MultivectorError(
            f"bench needs at least 2 distinct sizes, got {sizes}"
        )
    custom = any(getattr(args, flag, None) for flag in _INPUT_FLAGS)
    options = EvalOptions(
        mode="records", params=_parse_params(args.param), workers=args.workers
    )
    if custom:
        dim, evaluator = _build_case(args, options)
    else:
        case = bench_mod.benchmark_suite()[args.method]
        dim, evaluator = case.dim, case.factory(options)
    report = bench_mod.fit_loglog(bench_mod.time_method(
        args.method, evaluator, dim, sizes, repeats=args.repeats, seed=args.seed,
        workers=args.workers, mode=options.mode,
    ))
    text = json.dumps(report.to_json_dict(), indent=2) + "\n"
    atomic_write(args.out, lambda fh: fh.write(text.encode()))
    print(
        f"{args.method} ({report.mode}): slope={report.slope:.3f} "
        f"r2={report.r2:.4f} -> {args.out}"
    )
    return EXIT_OK


# --- Argument parsing -------------------------------------------------------


def _add_eval_input_flags(parser):
    parser.add_argument("--dim", type=int, default=None,
                        help="ambient dimension (required for corners meshes, "
                             "scalar curl arguments, and Casimir constructions)")
    parser.add_argument("--bivector", help="bivector field JSON file")
    parser.add_argument("--argument",
                        help="multivector JSON file, inline scalar expression, "
                             "or @file scalar (coboundary/curl argument)")
    parser.add_argument("--degree", type=int, default=None,
                        help="degree of --argument when it needs overriding")
    parser.add_argument("--alpha", help="one-form JSON file")
    parser.add_argument("--beta", help="one-form JSON file")
    parser.add_argument("--lam", help="two-form JSON file")
    parser.add_argument("--h", help="Hamiltonian expression or @file")
    parser.add_argument("--f", help="first bracket argument or @file")
    parser.add_argument("--g", help="second bracket argument or @file")
    parser.add_argument("--f0", default="1",
                        help="volume scaling function (default 1)")
    parser.add_argument("--casimir", action="append", default=[],
                        help="Casimir expression or @file with one per line "
                             "(repeatable)")
    parser.add_argument("--param", action="append", default=[],
                        help="parameter binding name=value (repeatable)")
    parser.add_argument("--workers", type=int, default=None,
                        help="worker thread count (default: single-threaded)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="poissonmesh",
        description="Evaluate Poisson-geometry operators over point meshes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="run a method over a mesh")
    p_eval.add_argument("method", choices=METHODS)
    _add_eval_input_flags(p_eval)
    p_eval.add_argument("--mesh", required=True,
                        help="'corners' or a mesh file (.csv/.npy)")
    p_eval.add_argument("--out", required=True, help="output file path")
    p_eval.add_argument("--format", choices=("jsonl", "npy", "csv"),
                        default=None,
                        help="output format (default: from --out extension)")
    p_eval.set_defaults(func=cmd_eval)

    p_mesh = sub.add_parser("mesh", help="generate a mesh file")
    p_mesh.add_argument("kind", choices=("corners", "random"))
    p_mesh.add_argument("--dim", type=int, default=None)
    p_mesh.add_argument("--k", type=int, default=1000,
                        help="point count for random meshes (corners ignores it)")
    p_mesh.add_argument("--seed", type=int, default=0)
    p_mesh.add_argument("--out", required=True)
    p_mesh.set_defaults(func=cmd_mesh)

    p_bench = sub.add_parser("bench", help="time a method across mesh sizes")
    p_bench.add_argument("--method", choices=METHODS, required=True)
    _add_eval_input_flags(p_bench)
    p_bench.add_argument("--sizes", required=True,
                         help="comma-separated mesh sizes (at least 2)")
    p_bench.add_argument("--repeats", type=int, default=5)
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--out", required=True, help="report JSON path")
    p_bench.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UnboundParameterError as exc:
        print(f"error: unbound parameter: {exc}", file=sys.stderr)
        return EXIT_UNBOUND_PARAMETER
    except ExpressionError as exc:
        print(f"error: expression parse failure: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except MeshDimensionError as exc:
        print(f"error: dimension mismatch: {exc}", file=sys.stderr)
        return EXIT_DIMENSION
    except (MultivectorError, ValueError) as exc:
        print(f"error: invalid input: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"error: I/O failure: {exc}", file=sys.stderr)
        return EXIT_IO
    except RecursionError:
        # The expression core walks trees recursively, so a very long
        # expression (a sum of about 500 or more terms) exceeds the
        # interpreter's recursion limit.
        print(
            "error: invalid input: an expression is nested too deeply to "
            "process; split it into smaller expressions",
            file=sys.stderr,
        )
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
