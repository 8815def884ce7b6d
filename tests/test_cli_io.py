"""The bulk number paths of the CLI against per-number references.

Operator files are parsed, and report matrices and CSV tables formatted,
in bulk; these tests keep the per-entry versions as references and
require equal results bit for bit.  Parsing and small tables do the
per-entry arithmetic in C; tables from ``cli._KERNEL_MIN_CELLS`` cells on
get their digits from the numpy kernel of ``qherm._fmt17``, which must
write ``format(x, ".17g")`` for every finite double.
"""

from __future__ import annotations

import csv
import io
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from qherm import ParseError, _fmt17
from qherm.cli import (
    _KERNEL_MIN_CELLS,
    _bulk_entries,
    _first_bad_entry,
    load_operator_file,
    matrix_entries,
    operator_payload,
    render_json,
    write_csv,
)
from qherm.core import Operator, eig_general
from qherm.quasihermitian import solve_metric, solve_pseudo_metric

from helpers import rng, well_conditioned

SPECIAL = [
    -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, -1.7976931348623157e308,
]
INTS = [0, -3, 2**53 + 1, 2**53 + 3, -(2**63) - 1, 2**64 - 1, 2**70 + 1, 10**300 + 7]


def _bits(values) -> list[tuple[str, str]]:
    return [(float(z.real).hex(), float(z.imag).hex()) for z in values]


def _pairs(gen, count: int) -> list[list]:
    """[re, im] pairs mixing random floats, special values and JSON ints."""
    pool = SPECIAL + INTS + list(gen.standard_normal(16) * 10.0 ** gen.integers(-300, 300, 16))
    picks = gen.integers(0, len(pool), (count, 2))
    return [[pool[i], pool[j]] for i, j in picks]


def _load(tmp_path, entries, dim):
    path = tmp_path / "op.json"
    path.write_text(json.dumps({"format": 1, "kind": "dense", "dim": dim, "entries": entries}))
    return load_operator_file(str(path))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_parse_matches_complex_per_entry(tmp_path, seed):
    dim = 9
    entries = _pairs(rng(seed), dim * dim)
    op = _load(tmp_path, entries, dim)
    reference = [complex(re, im) for re, im in entries]
    assert _bits(op.matrix.reshape(-1)) == _bits(reference)


def test_parse_special_values_bit_exact(tmp_path):
    entries = [[-0.0, 5e-324], [1.7976931348623157e308, -0.0], [2**53 + 1, 0.25], [3, -7]]
    op = _load(tmp_path, entries, 2)
    assert _bits(op.matrix.reshape(-1)) == _bits(complex(re, im) for re, im in entries)
    # 2**53 + 1 rounds to even, as float() rounds it
    assert op.matrix[1, 0].real == float(2**53)


_ATOMS = st.one_of(
    st.integers(-(2**70), 2**70),
    st.floats(),
    st.sampled_from([10**400, -(10**400)]),
    st.booleans(),
    st.text(max_size=3),
    st.none(),
)
_ENTRIES = st.one_of(
    st.lists(st.one_of(st.integers(-9, 9), st.floats(-1e3, 1e3)), min_size=2, max_size=2),
    st.lists(_ATOMS, min_size=2, max_size=2),
    st.lists(_ATOMS, max_size=3),
    st.lists(st.lists(_ATOMS, max_size=2), min_size=2, max_size=2),
    _ATOMS,
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_ENTRIES, min_size=1, max_size=6))
def test_a_refused_entry_list_raises_naming_its_first_bad_entry(entries):
    # the bulk pass refuses a list exactly when one of its entries is bad, so
    # the checked pass only has to name the first of them
    bad = [k for k, entry in enumerate(entries) if _bulk_entries([entry]) is None]
    if _bulk_entries(entries) is not None:
        assert bad == []
        return
    with pytest.raises(ParseError, match=rf"^op\.json: entry {bad[0]}( must be|: )"):
        _first_bad_entry("op.json", entries)


def _reference_payload(op: Operator) -> str:
    """The operator payload rendered one number at a time."""
    pairs = ",".join(
        f"[{format(float(z.real), '.17g')},{format(float(z.imag), '.17g')}]"
        for z in op.matrix.reshape(-1)
    )
    return f'{{"dim":{op.dim},"entries":[{pairs}]}}'


def _render_matches_reference(gen, complex_dim: int, real_dim: int) -> None:
    values = [complex(re, im) for re, im in _pairs(gen, complex_dim**2)]
    square = Operator(np.reshape(values, (complex_dim, complex_dim)))
    for op in (square, Operator(gen.standard_normal((real_dim, real_dim)))):
        assert render_json(operator_payload(op)) == _reference_payload(op)


@pytest.mark.parametrize("seed", [0, 1])
def test_render_matrix_matches_per_element_reference(seed):
    _render_matches_reference(rng(seed), 8, 5)


def test_render_matrix_above_the_kernel_switch_matches_per_element_reference():
    # 2 * 48^2 and 2 * 70^2 cells, where the numpy kernel writes the digits
    # in two chunks
    assert _KERNEL_MIN_CELLS <= 2 * 48**2 <= _fmt17.CHUNK_CELLS * 2
    _render_matches_reference(rng(2), 48, 70)


def test_matrix_entries_of_a_strided_matrix():
    mat = np.arange(16.0).reshape(4, 4) + 1j
    view = mat[::2, ::2]
    assert matrix_entries(view).tolist() == [[z.real, z.imag] for z in view.reshape(-1)]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_render_matrix_rejects_non_finite(bad):
    mat = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=np.complex128)
    mat[1, 0] = complex(0.5, bad)
    with pytest.raises(ValueError, match=f"reports must contain finite numbers, got {bad}"):
        render_json({"m": matrix_entries(mat)})


def _reference_csv(header, rows) -> str:
    """The table through csv.writer, one cell at a time."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([format(v, ".17g") if isinstance(v, float) else v for v in row])
    return buf.getvalue()


def _csv_matches_reference(tmp_path, count: int) -> None:
    gen = rng(3)
    header = ["k", "x", "y"]
    rows = [[k, float(x), float(y)] for k, (x, y) in enumerate(gen.standard_normal((count, 2)))]
    rows += [[count, -0.0, 5e-324], [count + 1, 1.7976931348623157e308, None]]
    rows += [[count + 2, None, 0.0]]
    path = tmp_path / "t.csv"
    write_csv(str(path), header, rows)
    assert path.read_text() == _reference_csv(header, rows)


def test_csv_matches_per_cell_reference(tmp_path):
    _csv_matches_reference(tmp_path, 50)


def test_csv_above_the_kernel_switch_matches_per_cell_reference(tmp_path):
    # 1500 rows of three cells: two chunks of the numpy kernel
    assert _fmt17.CHUNK_CELLS < 3 * 1500 <= _fmt17.CHUNK_CELLS * 2
    _csv_matches_reference(tmp_path, 1497)


def _nan_and_infinity(tmp_path, repeat: int) -> None:
    path = tmp_path / "t.csv"
    write_csv(str(path), ["a", "b"], np.tile([[1.0, np.nan], [-np.nan, 2.5]], (repeat, 1)))
    assert path.read_text() == "a,b\n" + "1,\n,2.5\n" * repeat
    with pytest.raises(ValueError, match="reports must contain finite numbers, got inf"):
        write_csv(str(path), ["a", "b"], [[1.0, np.inf]] * repeat)


def test_csv_nan_is_an_empty_field_and_infinity_raises(tmp_path):
    _nan_and_infinity(tmp_path, 1)


def test_csv_nan_above_the_kernel_switch_is_an_empty_field(tmp_path):
    _nan_and_infinity(tmp_path, _KERNEL_MIN_CELLS)


def _kernel(values) -> list[str]:
    """Each value's text from the kernel, one single-cell row per value."""
    out: list[str] = []
    _fmt17.format_rows(np.asarray(values, dtype=np.float64).reshape(-1, 1), "", "\n", "", out)
    return "".join(out).split("\n")[:-1]


def _reference(values) -> list[str]:
    return [format(v, ".17g") for v in np.asarray(values, dtype=np.float64).tolist()]


def _ties(gen) -> list[float]:
    """Doubles whose 18th significant digit is an exact 5 and nothing
    follows: ``x = M 2^-(p+1)`` with odd ``M`` and ``M 5^p`` in
    ``[2e16, 2e17)``, so that ``x 10^p = M 5^p / 2`` is a half-integer in
    the 17-digit range.  They exist for ``p`` up to 24 (``5^p`` is exact
    to 22)."""
    ties = []
    for p in range(1, 25):
        low, high = -(-2 * 10**16 // 5**p), 2 * 10**17 // 5**p
        for m in (gen.integers(low, high + 1, 4) | 1).tolist():
            if 2 * 10**16 <= m * 5**p < 2 * 10**17 and m < 2**53:
                ties.append(m * 2.0 ** -(p + 1))
    return ties


def _around(values) -> list[float]:
    return [w for v in values for w in (np.nextafter(v, -np.inf), v, np.nextafter(v, np.inf))]


_EDGES = (
    [0.0, -0.0, 5e-324, -5e-324, 1e-323, 2.225073858507201e-308, 2.2250738585072014e-308,
     1.7976931348623157e308, -1.7976931348623157e308]
    # every power of ten: log10 rounds to the decade above some doubles below it
    + _around([float(f"1e{e}") for e in range(-307, 309)])
    # next to decade boundaries; 1e-14 and 1e-305 lie below their powers of
    # ten, and their 17 digits round up to them
    + [9.9999999999999995e-5, 9.9999999999999995e-6, 0.99999999999999994, 99999.999999999993,
       9999999999999999.0, 99999999999999984.0, 9.9999999999999991e-301, 1e-14, 1e-305]
    # integers up to 2^53, and the last digit of 2^53 + 2
    + [float(2**53), float(2**53 - 1), float(2**52 + 1), 123456789.0, 1e15 + 1, float(2**53 + 2)]
    # exact ties at 5^1, 5^23 and 5^24
    + [1000000000000000.25, 3 * 2.0**-24, 2.0**-25]
)


def test_kernel_writes_the_edge_values_as_format_does():
    values = _EDGES + _ties(rng(28))
    values += [-v for v in values]
    assert _kernel(values) == _reference(values)


def test_kernel_matches_format_on_a_million_doubles_across_all_binades():
    # uniform bit patterns: every binade from the subnormals to 2^1023 alike,
    # about half of them inside the kernel's range 2.2e-308 <= |x| < 1e17
    gen = rng(17)
    count = 0
    for _ in range(16):
        values = gen.integers(0, 2**64, 2**16, dtype=np.uint64).view(np.float64)
        values = values[np.isfinite(values)]
        assert _kernel(values) == _reference(values)
        count += values.size
    assert count >= 10**6


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=200, deadline=None)
@given(arrays(np.float64, st.integers(1, 300), elements=_FINITE))
@example(np.array(_EDGES))
def test_kernel_matches_format_on_float_arrays(values):
    assert _kernel(values) == _reference(values)


def test_the_kernel_falls_back_only_where_it_cannot_decide():
    # decided: the top decade below 1e17 (where log10 rounds up to 17), an
    # exact tie at 5^1, a 17-digit integer; left to the fallback: |x| >= 1e17,
    # subnormals, decades log10 misjudges (the doubles nearest 1e-12 and
    # 1e23 lie below them; 1e-14 lies below and its 17 digits round up to
    # it), exact ties at 5^23 and 5^24
    decided = [0.99999999999999994, 99999999999999984.0, 1e16, 1000000000000000.25, -12345.678]
    undecided = [1e17, -2e300, 5e-324, 2.225073858507201e-308, 9.9999999999999995e-5,
                 1e-12, 1e23, 1e-14, 3 * 2.0**-24, 2.0**-25]
    digits, exponents, ok = _fmt17._digits(np.array(decided + undecided))
    assert ok.tolist() == [True] * len(decided) + [False] * len(undecided)
    for value, d, x in zip(decided, digits.tolist(), exponents.tolist()):
        mantissa, exponent = format(abs(value), ".16e").split("e")
        assert (d, x) == (int(mantissa.replace(".", "")), int(exponent))


def test_a_decade_judged_too_low_goes_to_the_fallback(monkeypatch):
    # under a log10 one ulp low, 10^k and the doubles just above it take the
    # decade below: their products reach 10^17, which no 17 digits equal
    log10 = np.log10
    monkeypatch.setattr(np, "log10", lambda v: np.nextafter(log10(v), -np.inf))
    values = _around([float(f"1e{e}") for e in range(-300, 17)])
    assert _kernel(values) == _reference(values)


def test_the_kernel_decides_every_cell_of_a_metric_and_a_pseudo_metric():
    # the per-number fallback is for |x| >= 1e17, subnormals, a misjudged
    # decade and near-midpoint products: none occurs in a metric G or a
    # pseudo-metric T at n = 160 like those of the benchmark's mixed workload
    gen = rng(160)
    n = 160
    v = well_conditioned(gen, n)
    lam = -3.0 + 6.0 / n * (np.arange(n) + gen.uniform(0.0, 0.5, n))
    g = solve_metric(Operator((v * lam) @ np.linalg.inv(v))).canonical.G
    block = np.diag(np.linspace(-3.0, 3.0, n))
    for k in range(0, n // 2, 2):
        block[k, k + 1], block[k + 1, k] = 1.0, -1.0
        block[k + 1, k + 1] = block[k, k]
    v = well_conditioned(gen, n, real=True)
    t, _ = solve_pseudo_metric(eig_general(Operator(v @ block @ np.linalg.inv(v))))
    for op in (g, t):
        cells = matrix_entries(op.matrix).reshape(-1)
        _, _, decided = _fmt17._digits(cells)
        assert np.count_nonzero(~decided & (cells != 0.0)) == 0
    # T's roundoff-sized imaginary parts are written in exponent form
    assert np.count_nonzero((cells != 0.0) & (np.abs(cells) < 1e-4)) > 0
