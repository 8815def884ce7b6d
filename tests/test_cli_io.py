"""The bulk number paths of the CLI against per-number references.

Operator files are parsed, and report matrices and CSV tables formatted,
in bulk; these tests keep the per-entry versions as references and
require equal results bit for bit (the arithmetic is the same, only the
loop moved into C).
"""

from __future__ import annotations

import csv
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qherm import ParseError
from qherm.cli import (
    _bulk_entries,
    _first_bad_entry,
    load_operator_file,
    matrix_entries,
    operator_payload,
    render_json,
    write_csv,
)
from qherm.core import Operator

from helpers import rng

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


@pytest.mark.parametrize("seed", [0, 1])
def test_render_matrix_matches_per_element_reference(seed):
    gen = rng(seed)
    values = [complex(re, im) for re, im in _pairs(gen, 64)]
    for op in (Operator(np.reshape(values, (8, 8))), Operator(gen.standard_normal((5, 5)))):
        assert render_json(operator_payload(op)) == _reference_payload(op)


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


def test_csv_matches_per_cell_reference(tmp_path):
    gen = rng(3)
    header = ["k", "x", "y"]
    rows = [[k, float(x), float(y)] for k, (x, y) in enumerate(gen.standard_normal((50, 2)))]
    rows += [[50, -0.0, 5e-324], [51, 1.7976931348623157e308, None], [52, None, 0.0]]
    path = tmp_path / "t.csv"
    write_csv(str(path), header, rows)
    assert path.read_text() == _reference_csv(header, rows)


def test_csv_nan_is_an_empty_field_and_infinity_raises(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(str(path), ["a", "b"], np.array([[1.0, np.nan], [np.nan, 2.5]]))
    assert path.read_text() == "a,b\n1,\n,2.5\n"
    with pytest.raises(ValueError, match="reports must contain finite numbers, got inf"):
        write_csv(str(path), ["a", "b"], [[1.0, np.inf]])
