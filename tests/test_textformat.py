"""Exactness of the float64 text kernels, ``geometry._float_slots`` and
the csv reader ``geometry._read_csv``.

Both styles are checked against Python itself: "json" against
``json.dumps`` and "%.17g" against ``'%.17g' %``; the finite "%.17g" text
then reads back to the same bits.  Run as a script, the module sweeps random
bit patterns and every power of 2 and of 10 with their neighbours, and
prints the share of values Python formatted and read:

    PYTHONPATH=src python tests/test_textformat.py --count 10000000
"""

import argparse
import io
import json
import math
import os
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from poissonmesh import cli, geometry
from poissonmesh.geometry import BatchResult

REFERENCE = {"json": json.dumps, "%.17g": "%.17g".__mod__}


def kernel_texts(values, style: str) -> tuple:
    """(texts, count Python formatted) of the kernel for ``values``."""
    values = np.ascontiguousarray(values, dtype=np.float64).ravel()
    slots, python = geometry._float_slots(values, style)
    lines = np.hstack((slots, np.full((len(values), 1), ord("\n"), np.uint8)))
    return lines.tobytes().translate(None, b"\0").decode().split("\n")[:-1], python


def mismatches(values, style: str) -> tuple:
    """([(value, kernel text, Python text)] where they differ, Python count)."""
    values = np.ascontiguousarray(values, dtype=np.float64).ravel()
    texts, python = kernel_texts(values, style)
    reference = map(REFERENCE[style], values.tolist())
    return [(v, t, r) for v, t, r in zip(values.tolist(), texts, reference) if t != r], python


def with_neighbours(values) -> np.ndarray:
    """``values``, their negations, and the float64s next to each."""
    values = np.asarray(values, dtype=np.float64)
    values = np.concatenate((values, -values))
    return np.concatenate((values, np.nextafter(values, np.inf), np.nextafter(values, -np.inf)))


def powers() -> np.ndarray:
    """Every power of 2 (2**-1074 to 2**1023) and of 10 (as float64 reads
    "1e-323" to "1e308"), with their neighbours."""
    twos = np.ldexp(1.0, np.arange(-1074, 1024))
    tens = np.array([float(f"1e{e}") for e in range(-323, 309)])
    return with_neighbours(np.concatenate((twos, tens)))


def random_bits(count: int, seed: int) -> np.ndarray:
    """``count`` float64s with uniformly random bit patterns."""
    rng = np.random.default_rng(seed)
    return rng.integers(0, 2**64, size=count, dtype=np.uint64).view(np.float64)


def plain_bits(count: int, seed: int) -> np.ndarray:
    """``count`` float64s with random sign and significand bits and a
    binary exponent from -13 to 55, so 1.2e-4 < |x| < 7.3e16: "%.17g"
    writes them without an exponent, and the reader's digit kernel reads
    them."""
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2**64, size=count, dtype=np.uint64) & np.uint64(0x800F_FFFF_FFFF_FFFF)
    bits |= rng.integers(1023 - 13, 1023 + 56, size=count).astype(np.uint64) << np.uint64(52)
    return bits.view(np.float64)


def round_trip(values, path: str) -> tuple:
    """(values whose bits came back changed, values Python read, values
    read) for the finite ``values`` saved as "%.17g" csv, three a line, and
    read back by the csv reader."""
    finite = values[np.isfinite(values)]
    rows = finite[:len(finite) // 3 * 3].reshape(-1, 3)
    geometry.save_csv(path, rows)
    back, python = geometry._read_csv(path)
    return np.count_nonzero(back.view(np.uint64) != rows.view(np.uint64)), python, rows.size


STYLES = sorted(REFERENCE)


@pytest.mark.parametrize("style", STYLES)
@given(values=st.lists(st.floats(), min_size=1, max_size=40))
def test_any_float(style, values):
    assert mismatches(values, style)[0] == []


@pytest.mark.parametrize("style", STYLES)
def test_random_bit_patterns(style):
    assert mismatches(random_bits(10**6, seed=20), style)[0] == []


@pytest.mark.parametrize("style", STYLES)
def test_powers_of_two_and_ten(style):
    assert mismatches(powers(), style)[0] == []


@pytest.mark.parametrize("style", STYLES)
def test_integers(style):
    rng = np.random.default_rng(21)
    integers = np.concatenate((
        np.arange(0, 100_001), 2**53 - np.arange(0, 1001), 10 ** np.arange(16),
        rng.integers(0, 2**53, size=100_000, endpoint=True),
    )).astype(np.float64)
    assert mismatches(with_neighbours(integers), style)[0] == []


@pytest.mark.parametrize("style", STYLES)
def test_switch_to_exponent_form(style):
    # json switches at 1e-5 and 1e16, "%.17g" at 1e-5 and 1e17; 1e-4 and
    # 1e15 are the last positional powers.
    steps = np.arange(-50, 51)
    values = []
    for edge in (1e-5, 1e-4, 1e15, 1e16, 1e17):
        ulp = np.spacing(edge)
        values.append(edge + steps * ulp)
    values = np.concatenate(values)
    assert mismatches(with_neighbours(values), style)[0] == []


def test_tokens_zeros_and_subnormals():
    values = [0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324, -2.5e-310,
              2.2250738585072014e-308, np.finfo(np.float64).max, -np.finfo(np.float64).max]
    for style in STYLES:
        assert mismatches(values, style)[0] == []
    assert kernel_texts(values[:6], "json")[0] == [
        "0.0", "-0.0", "NaN", "NaN", "Infinity", "-Infinity"
    ]
    assert kernel_texts(values[:6], "%.17g")[0] == ["0", "-0", "nan", "nan", "inf", "-inf"]


def test_python_formats_few_values():
    # Random data needs Python for none of its values, whole magnitudes
    # with exact ties and integer interval ends included; only |x| below
    # 1e-290 and decisions within the error bound that are not exact do.
    scales = 10.0 ** np.arange(-6, 21).repeat(10**4)
    values = np.random.default_rng(22).normal(size=len(scales)) * scales
    for style in STYLES:
        assert mismatches(values, style) == ([], 0)
    assert kernel_texts([1 + 2**-17], "%.17g") == (["1.0000076293945312"], 0)  # a tie
    assert kernel_texts([5e-324], "json") == (["5e-324"], 1)


@pytest.mark.parametrize("style", STYLES)
def test_exact_ties_and_interval_ends(style):
    # Few significant bits make exact ties at every scale, and magnitudes
    # from 1e15 to 1e40 rounding-interval ends that are integers of the
    # 17th digit; the kernel decides all of them itself.
    rng = np.random.default_rng(25)
    n = 3 * 10**4
    few_bits = rng.integers(1, 2**20, n) * np.ldexp(1.0, rng.integers(-80, 80, n))
    large = (10.0 ** rng.uniform(15, 40, n)).view(np.int64) ^ rng.integers(0, 2**12, n)
    values = np.concatenate((few_bits, large.view(np.float64)))
    assert mismatches(with_neighbours(values), style) == ([], 0)


def test_csv_round_trip(tmp_path):
    # Random bits are mostly text with an exponent, which Python reads; the
    # digit kernel reads nearly all plain bits.
    path = str(tmp_path / "values.csv")
    assert round_trip(random_bits(10**6, seed=26), path)[0] == 0
    changed, python, count = round_trip(plain_bits(10**6, seed=27), path)
    assert changed == 0 and python < count // 1000


def test_writer_mixes_every_kind(tmp_path, monkeypatch):
    # One chunk of each writer holds zeros, powers, integers, switch points,
    # subnormals, poles and (jsonl) invalid rows, next to random values.
    monkeypatch.setattr(geometry, "_CHUNK_VALUES", 4096)
    rng = np.random.default_rng(23)
    edges = np.concatenate((
        [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, 1e-5, 1e16, 1e17, 2.0**53, 0.1, 1 + 2**-17],
        powers()[::97], with_neighbours(np.arange(40.0)), random_bits(400, seed=24),
    ))
    values = rng.permutation(np.concatenate((edges, rng.normal(size=3 * 1024 - len(edges)))))
    columns = values.reshape(3, 1024)
    valid = rng.random(1024) > 0.1
    records = BatchResult("records", keys=((1, 2), (1, 3), (2, 3)), columns=columns, valid=valid)
    out = tmp_path / "out.jsonl"
    cli.write_result(records, str(out), "jsonl")
    expected = "".join(
        json.dumps({"coeffs": {"1,2": a, "1,3": b, "2,3": c}, "valid": flag}) + "\n"
        for a, b, c, flag in zip(*columns.tolist(), valid.tolist())
    )
    assert out.read_text() == expected
    matrix = np.zeros((1024, 3, 3))
    matrix[:, 0, 1], matrix[:, 0, 2], matrix[:, 1, 2] = columns
    matrix -= matrix.transpose(0, 2, 1)
    for result in (BatchResult("matrix", matrix), BatchResult("vector", columns.T.copy())):
        cli.write_result(result, str(out), "jsonl")
        name = result.kind
        rows = result.data.tolist()
        assert out.read_text() == "".join(json.dumps({name: row}) + "\n" for row in rows)
        cli.write_result(result, str(tmp_path / "out.csv"), "csv")
        ref = io.BytesIO()
        np.savetxt(ref, result.data.reshape(1024, -1), fmt="%.17g", delimiter=",")
        assert (tmp_path / "out.csv").read_bytes() == ref.getvalue()


def test_longest_texts_fill_the_slot(tmp_path):
    # A slot holds 24 bytes, the longest text with its "-": values with 17
    # digits and a three-digit exponent, a "0.000" lead, Python's own text
    # below 1e-290, and json's "-1234567890123456.0"; as mirror pairs whose
    # upper entry is positive, as constant columns (one literal a chunk),
    # and in records with valid flags.
    rng = np.random.default_rng(29)
    rows = 64

    def seventeen_digits(exponent: int) -> np.ndarray:
        digits = rng.integers(10**16, 10**17, rows).astype(str)
        return np.array([-float(f"{d[0]}.{d[1:]}e{exponent}") for d in digits])

    exponent, lead, small, tiny = (seventeen_digits(e) for e in (-100, -4, -5, -300))
    integral = -np.floor(rng.uniform(1e15, 9e15, rows))
    values = np.concatenate((exponent, lead, small, tiny, integral))
    for form in REFERENCE.values():
        assert max(len(form(v)) for v in values.tolist()) == geometry._SLOT
    matrix = np.zeros((rows, 3, 3))
    matrix[:, 0, 1], matrix[:, 1, 2] = -exponent, -lead  # positive upper entries
    matrix[:, 0, 2] = -1.2345678901234567e-100
    matrix -= matrix.transpose(0, 2, 1)
    matrix[:, 0, 0], matrix[:, 1, 1], matrix[:, 2, 2] = tiny, integral, -2.2250738585072014e-308
    result = BatchResult("matrix", matrix)
    out = tmp_path / "out"
    cli.write_result(result, f"{out}.csv", "csv")
    ref = io.BytesIO()
    np.savetxt(ref, matrix.reshape(rows, -1), fmt="%.17g", delimiter=",")
    assert (tmp_path / "out.csv").read_bytes() == ref.getvalue()
    cli.write_result(result, f"{out}.jsonl", "jsonl")
    lines = "".join(json.dumps({"matrix": row}) + "\n" for row in matrix.tolist())
    assert (tmp_path / "out.jsonl").read_text() == lines
    columns = np.stack((exponent, lead, small, tiny, integral, np.full(rows, -1e-5)))
    keys = ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4))
    valid = rng.random(rows) > 0.5
    cli.write_result(BatchResult("records", keys=keys, columns=columns, valid=valid),
                     f"{out}.jsonl", "jsonl")
    expected = "".join(
        json.dumps({"coeffs": {f"{i},{j}": x for (i, j), x in zip(keys, row)}, "valid": flag}) + "\n"
        for row, flag in zip(columns.T.tolist(), valid.tolist())
    )
    assert (tmp_path / "out.jsonl").read_text() == expected


def sweep(count: int, seed: int, batch: int = 250_000) -> int:
    """Check ``count`` random bit patterns and every power of 2 and 10 with
    neighbours in both styles, and read the finite "%.17g" text of those
    and of as many ``plain_bits`` back; print each Python share and return
    the number of mismatches."""
    failures = 0
    with tempfile.TemporaryDirectory() as scratch:
        path = os.path.join(scratch, "values.csv")
        for name, draw in (("random bits", random_bits), ("plain bits", plain_bits)):
            changed = python = checked = 0
            for start in range(0, count, batch):
                values = draw(min(batch, count - start), seed + start)
                if start == 0:
                    values = np.concatenate((values, powers()))
                bad, read, size = round_trip(values, path)
                changed += bad
                python += read
                checked += size
            failures += changed
            print(f"csv reader, {name}: {checked} values read back, {changed} changed, "
                  f"Python read {python} ({python / checked:.3%})")
    for style in STYLES:
        checked = python = 0
        for start in range(0, count, batch):
            values = random_bits(min(batch, count - start), seed + start)
            if start == 0:
                values = np.concatenate((values, powers()))
            bad, formatted = mismatches(values, style)
            failures += len(bad)
            for value, text, reference in bad[:10]:
                print(f"{style}: {value!r} gave {text!r}, Python {reference!r}")
            checked += len(values)
            python += formatted
        print(f"{style}: {checked} values checked, "
              f"Python formatted {python} ({python / checked:.3%})")
    return failures


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--count", type=int, default=10**7, help="random bit patterns")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    sys.exit(1 if sweep(args.count, args.seed) else 0)
