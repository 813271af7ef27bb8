"""Command-line front end: evaluate methods over meshes, generate meshes,
and run scaling benchmarks.

Exit codes: 0 success (the output file was fully written), 2 input
validation failure, 3 expression parse failure, 4 unbound parameter,
5 mesh dimension mismatch, 6 I/O failure.

Output formats, from the ``--out`` suffix in any case: ``.npy`` (dense mode:
the float64 block, with a sibling ``<out>.valid.npy`` mask where the method
has one), ``.csv`` (dense mode, one flattened row per point) and jsonl for
any other suffix (records mode, one JSON object per point; an always-dense
result such as ``num_bivector_to_matrix`` gives {"matrix": [[...], ...]}
lines).  ``geometry.write_result`` writes each of them atomically.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from .bench import BenchCase, benchmark_suite, fit_loglog, method_case, time_method
from .evaluate import EvalOptions, MeshDimensionError
from .expressions import ExpressionDepthError, ExpressionError, UnboundParameterError
from .geometry import (
    Mesh,
    Multivector,
    MultivectorError,
    atomic_write,
    corners_mesh,
    load_mesh,
    random_mesh,
    save_mesh,
    write_result,
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_PARSE = 3
EXIT_UNBOUND_PARAMETER = 4
EXIT_DIMENSION = 5
EXIT_IO = 6

# Each method's input flags, in the order its ``prepare_*`` takes them.
_INPUTS = {
    "num_bivector": ("bivector",),
    "num_bivector_to_matrix": ("bivector",),
    "num_hamiltonian_vf": ("bivector", "h"),
    "num_poisson_bracket": ("bivector", "f", "g"),
    "num_sharp_morphism": ("bivector", "alpha"),
    "num_coboundary_operator": ("bivector", "argument"),
    "num_modular_vf": ("bivector", "f0"),
    "num_curl_operator": ("argument", "f0"),
    "num_one_forms_bracket": ("bivector", "alpha", "beta"),
    "num_gauge_transformation": ("bivector", "lam"),
    "num_linear_normal_form_r3": ("bivector",),
    "num_flaschka_ratiu_bivector": ("casimir",),
}
METHODS = tuple(_INPUTS)
_INPUT_FLAGS = tuple(dict.fromkeys(flag for row in _INPUTS.values() for flag in row))


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


def _read_input(args, flag: str):
    """One input flag's value, read and checked: a multivector JSON file, a
    scalar inline or as @path, or a list of Casimirs.  An ``--argument`` is
    a multivector if it names a file, and the library infers its degree."""
    if flag == "f0":
        return _scalar_arg("1" if args.f0 is None else args.f0)
    raw = _require(args, flag)
    if flag == "casimir":
        return _scalar_list_arg(raw)
    if flag in ("bivector", "alpha", "beta", "lam") or (
        flag == "argument" and not raw.startswith("@") and os.path.isfile(raw)
    ):
        return _load_multivector(raw, f"--{flag}")
    if flag == "argument" and args.method == "num_curl_operator":
        raise MultivectorError(
            "--argument of num_curl_operator must be a multivector JSON file: "
            "curl needs degree >= 1, and a scalar has degree 0"
        )
    return _scalar_arg(raw)


def _build_case(args) -> BenchCase:
    """The requested method's inputs, read and checked from parsed flags in
    the order of its ``_INPUTS`` row, as a case whose factory prepares the
    method with the options it is given.  A given input flag outside the
    row is an error, not silently dropped."""
    method, row = args.method, _INPUTS[args.method]
    for flag in _INPUT_FLAGS:
        if flag not in row and getattr(args, flag) is not None:
            raise MultivectorError(f"--{flag} is not an input of {method}")
    inputs = [_read_input(args, flag) for flag in row]
    try:
        return method_case(method, inputs, args.dim)
    except MultivectorError:
        raise MultivectorError(
            f"--dim is required for {method}: no input gives a dimension"
        ) from None


# --- Output writing ---------------------------------------------------------


def _infer_format(path: str) -> str:
    """The output format of ``path``: its suffix in any case, jsonl for any other."""
    return {".npy": "npy", ".csv": "csv"}.get(Path(path).suffix.lower(), "jsonl")


# --- Subcommands ------------------------------------------------------------


def cmd_eval(args) -> int:
    fmt = _infer_format(args.out)
    mode = "records" if fmt == "jsonl" else "dense"
    options = EvalOptions(mode=mode, params=_parse_params(args.param))
    t0 = time.perf_counter()
    case = _build_case(args)
    evaluator = case.factory(options)
    t1 = time.perf_counter()
    mesh = _load_mesh_arg(args.mesh, args.dim if args.dim is not None else case.dim)
    t2 = time.perf_counter()
    # The result is lazy: its kernel chunks run as they are written.
    result = evaluator(mesh)
    write_result(result, args.out, fmt)
    t3 = time.perf_counter()
    invalid = "" if result.valid is None else (
        f", {len(result) - np.count_nonzero(result.valid)} invalid"
    )
    threads = result.threads
    print(
        f"{len(mesh.points)} points, prepare {t1 - t0:.3f} s, load {t2 - t1:.3f} s, "
        f"eval and write {t3 - t2:.3f} s on {threads} thread{'s' * (threads > 1)}, "
        f"{result.nonfinite} non-finite{invalid}"
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
    custom = any(getattr(args, flag) is not None for flag in _INPUT_FLAGS)
    if args.dim is not None and not custom:
        raise MultivectorError(
            f"--dim applies only to custom inputs; the suite case of {args.method} "
            "has its own dimension"
        )
    options = EvalOptions(mode="records", params=_parse_params(args.param))
    case = _build_case(args) if custom else benchmark_suite()[args.method]
    report = fit_loglog(time_method(case, sizes, options, repeats=args.repeats, seed=args.seed))
    text = json.dumps(report.to_json_dict(), indent=2) + "\n"
    atomic_write(args.out, lambda fh: fh.write(text.encode()))
    print(
        f"{args.method} ({report.mode}): slope={report.slope:.3f} "
        f"r2={report.r2:.4f} threads={','.join(map(str, report.threads))} -> {args.out}"
    )
    return EXIT_OK


# --- Argument parsing -------------------------------------------------------


def _add_eval_input_flags(parser):
    parser.add_argument("--dim", type=int, default=None,
                        help="ambient dimension (required for corners meshes and "
                             "Casimir constructions)")
    parser.add_argument("--bivector", help="bivector field JSON file")
    parser.add_argument("--argument",
                        help="multivector JSON file (coboundary or curl argument), "
                             "or inline or @file scalar (coboundary only)")
    parser.add_argument("--alpha", help="one-form JSON file")
    parser.add_argument("--beta", help="one-form JSON file")
    parser.add_argument("--lam", help="two-form JSON file")
    parser.add_argument("--h", help="Hamiltonian expression or @file")
    parser.add_argument("--f", help="first bracket argument or @file")
    parser.add_argument("--g", help="second bracket argument or @file")
    parser.add_argument("--f0",
                        help="volume scaling function (default 1)")
    parser.add_argument("--casimir", action="append",
                        help="Casimir expression or @file with one per line "
                             "(repeatable)")
    parser.add_argument("--param", action="append",
                        help="parameter binding name=value (repeatable)")


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
    p_eval.add_argument("--out", required=True,
                        help="output file: .npy, .csv, or jsonl for any other suffix")
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
    # argparse reads "--name=--" as an empty list, whatever the option's type.
    values = vars(args).values()
    if [] in values or any([] in value for value in values if isinstance(value, list)):
        parser.error("an option was given '--' as its value")
    try:
        return args.func(args)
    except UnboundParameterError as exc:
        print(f"error: unbound parameter: {exc}", file=sys.stderr)
        return EXIT_UNBOUND_PARAMETER
    except (ExpressionDepthError, RecursionError):
        # A set-up reports a tree too deep for its recursive walkers, such as
        # the derivative of a sum of about 990 terms, as ExpressionDepthError.
        # Multivector files are read before it; the expression parser turns its
        # own RecursionError into ExpressionDepthError, but the JSON decoder
        # recurses once per level of nesting and raises it bare.
        print(f"error: invalid input: {ExpressionDepthError()}", file=sys.stderr)
        return EXIT_VALIDATION
    except ExpressionError as exc:
        print(f"error: expression parse failure: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except MeshDimensionError as exc:
        print(f"error: dimension mismatch: {exc}", file=sys.stderr)
        return EXIT_DIMENSION
    except (MultivectorError, ValueError, EOFError) as exc:  # np.load: an empty .npy
        print(f"error: invalid input: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"error: I/O failure: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
