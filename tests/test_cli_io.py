"""The bulk number paths of the CLI against per-number references.

Operator files are parsed, and report matrices and CSV tables formatted,
in bulk; these tests keep the per-entry versions as references and
require equal results bit for bit.  Operator files are decoded by orjson
where it is installed, and the stdlib ``json`` alone is the reference
for that too: the same Operator bits or the same ParseError text.  Parsing and small tables do the
per-entry arithmetic in C; tables from ``cli._KERNEL_MIN_CELLS`` cells on
get their digits from the numpy kernel of ``qherm._fmt17``, which must
write ``format(x, ".17g")`` for every finite double.
"""

from __future__ import annotations

import contextlib
import csv
import decimal
import io
import json
import math
import os
import subprocess
import sys
import types
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import qherm
from qherm import ParseError, _fmt17, cli
from qherm.cli import (
    _KERNEL_MIN_CELLS,
    _bulk_entries,
    _first_bad_entry,
    _parse_document,
    _spectral_summary,
    load_operator_file,
    main,
    matrix_entries,
    operator_payload,
    render_json,
    write_csv,
)
from qherm.core import Operator, eig_general
from qherm.quasihermitian import solve_metric, solve_pseudo_metric

from helpers import DECODERS, operator_decoder, rng, well_conditioned

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


def _load_each(tmp_path, entries, dim) -> list[Operator]:
    """The operator file of ``entries`` as each decoder of DECODERS loads it."""
    path = tmp_path / "op.json"
    path.write_text(json.dumps({"format": 1, "kind": "dense", "dim": dim, "entries": entries}))
    loaded = []
    for name in DECODERS:
        with operator_decoder(name):
            loaded.append(load_operator_file(str(path)))
    return loaded


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_parse_matches_complex_per_entry(tmp_path, seed):
    dim = 9
    entries = _pairs(rng(seed), dim * dim)
    reference = [complex(re, im) for re, im in entries]
    for op in _load_each(tmp_path, entries, dim):
        assert _bits(op.matrix.reshape(-1)) == _bits(reference)


def test_parse_special_values_bit_exact(tmp_path):
    entries = [[-0.0, 5e-324], [1.7976931348623157e308, -0.0], [2**53 + 1, 0.25], [3, -7]]
    for op in _load_each(tmp_path, entries, 2):
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


# The orjson decoder against the stdlib json alone: operator files written
# as text, numbers in the forms writers use and in the hard ones (the exact
# decimal of a double, the midpoint of two doubles and the decimals next to
# it), in the JSON that one of the two decoders refuses and in the files
# the schema checks refuse.

_EXACT = decimal.Context(prec=1200)


def _midpoint(x: float, offset: int) -> str:
    """The exact decimal halfway from ``x`` up to the next double, moved by
    ``offset`` units in its last place (1200 digits hold any midpoint)."""
    low, high = decimal.Decimal(x), decimal.Decimal(math.nextafter(x, math.inf))
    mid = _EXACT.divide(_EXACT.add(low, high), 2)
    return str(_EXACT.next_toward(mid, offset) if offset else mid)


_DOUBLES = st.floats(allow_nan=False, allow_infinity=False)
_NUMBERS = st.one_of(
    st.builds(repr, _DOUBLES),
    st.builds("%.17g".__mod__, _DOUBLES),
    st.builds("%.25g".__mod__, _DOUBLES),
    st.builds("%.40e".__mod__, _DOUBLES),
    st.builds(lambda x: str(decimal.Decimal(x)), _DOUBLES),
    st.builds(
        _midpoint, _DOUBLES.filter(lambda x: x < sys.float_info.max), st.sampled_from([-1, 0, 1])
    ),
    st.builds(str, st.integers(-(2**70), 2**70)),
    st.builds(lambda k, sign: str(sign * 2**k + k), st.integers(64, 1020), st.sampled_from([1, -1])),
)
# values at the edges of float range, and values one decoder or the schema refuses
_SPECIAL = st.sampled_from([
    "-0", "-0.0", "0e0", "1E5", "1e-400", "5e-324", "2.4703282292062328e-324",
    "2.4703282292062327e-324", "1.7976931348623158e308", "1.7976931348623159e308",
    "1e400", "-1e400", str(10**400), "1" * 4400, "NaN", "Infinity", "-Infinity",
    "true", "false", "null", '"1.5"',
])
# escapes that write an "a" or a "u" with neither letter, or either letter
# with none, move the letter census that lets orjson skip the type pass
_LABELS = st.sampled_from([
    '"op"', r'"M\u00f6\u00dfbauer \ud835\udd38"', '"Mößbauer 𝔸"', r'"\ud800"', r'"\udc00x"', "1",
    r'"\u0061"', r'"\u0075\u0061u"', r'"a\\u\"a"', r'"\u00a9"',
])
_KEYS = st.sampled_from(["dim", "label", "format", "kind", "entries", "n", "d", "meta"])
# a member repeated with another value, of which JSON keeps the last, or one
# holding lists and objects: json refuses more than about 1000 levels of
# nesting, where orjson takes any
_EXTRA = st.one_of(
    st.builds('"{}": {}'.format, _KEYS, _NUMBERS),
    st.builds(
        lambda key, depth: f'"{key}": ' + "[" * depth + "]" * depth, _KEYS, st.sampled_from([1, 3, 3000])
    ),
    st.builds('"{}": {{"a": [1, {{"b": null}}]}}'.format, _KEYS),
)


def _sometimes(draw, usual, unusual):
    """``usual``, or one in eight times a value drawn from ``unusual``."""
    return draw(unusual) if draw(st.integers(0, 7)) == 0 else usual


@st.composite
def _operator_files(draw) -> bytes:
    """The bytes of a dense or half-line operator file, mostly valid."""
    fields = {"format": _sometimes(draw, "1", st.sampled_from(["1.0", "2", "true"]))}
    if draw(st.booleans()):
        dim = draw(st.integers(1, 3))
        fields["kind"] = '"dense"'
        fields["dim"] = _sometimes(
            draw, str(dim), st.sampled_from([str(2**64 + 1), "2.0", "-1", "true"])
        )
        numbers = draw(st.lists(_NUMBERS, min_size=2 * dim * dim, max_size=2 * dim * dim))
        k = draw(st.integers(0, len(numbers) - 1))
        numbers[k] = _sometimes(draw, numbers[k], _SPECIAL)
        pairs = (f"[{re},{im}]" for re, im in zip(numbers[::2], numbers[1::2]))
        fields["entries"] = "[" + ",".join(pairs) + "]"
        fields["label"] = draw(_LABELS)
    else:
        fields["kind"] = '"samsonov"'
        for name, low, high in (("d", -3, 3), ("b", -3, 3), ("box_length", 1, 50)):
            fields[name] = _sometimes(
                draw, repr(draw(st.floats(low, high))), st.one_of(_NUMBERS, _SPECIAL)
            )
        fields["n"] = _sometimes(
            draw, str(draw(st.integers(16, 64))), st.sampled_from(["16.0", str(2**64 + 16), "true"])
        )
    members = [f'"{key}": {value}' for key, value in fields.items()]
    members.append(_sometimes(draw, members[-1], _EXTRA))
    text = "{" + ", ".join(draw(st.permutations(members))) + "}\r\n"
    prefix = _sometimes(
        draw, b"", st.sampled_from([b"\xef\xbb\xbf", b"\xff", b"\xed\xa0\x80", b"[" * 5000])
    )
    return prefix + text.encode()


def _outcome(path: str):
    """What ``load_operator_file`` gives: the loaded object's bits, or its error."""
    try:
        loaded = load_operator_file(path)
    except ParseError as exc:
        return type(exc).__name__, str(exc)
    if isinstance(loaded, Operator):
        return loaded.label, loaded.matrix.dtype.str, loaded.matrix.tobytes()
    return repr(loaded)


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_operator_files())
@example(b'{"format": 1, "kind": "dense", "dim": 18446744073709551617, "entries": []}')
@example(b'{"format": 1, "kind": "samsonov", "d": -1, "b": 1, "n": 18446744073709551616}')
@example(b'{"format": 1, "kind": "dense", "dim": 1, "entries": [[1e400, 0]]}')
# entries that the letter and quote census must not take for numbers: the
# word's letter matched by a label's, plain or escaped, a string entry, and
# a letter hidden in a repeated member; top-level words are counted apart
@example(b'{"format": 1, "kind": "dense", "dim": 1, "entries": [[false, 0]], "label": "a"}')
@example(b'{"format": 1, "kind": "dense", "dim": 1, "entries": [[false, 0]], "label": "\\u0061"}')
@example(b'{"format": 1, "kind": "dense", "dim": 1, "entries": [[true, 0]], "label": "u"}')
@example(b'{"format": 1, "kind": "dense", "dim": 1, "entries": [[null, 0]]}')
@example(b'{"format": 1, "kind": "dense", "dim": 1, "entries": [["1.5", 1]]}')
@example(
    b'{"format": 1, "kind": "dense", "dim": 1, "label": "u", "entries": [[null, 0]], "label": "x"}'
)
@example(
    b'{"format": 1, "kind": "dense", "dim": 1, "entries": [[2, 0]], "t": true, "f": false, "z": null}'
)
@example(
    b'{"format": 1, "kind": "dense", "dim": 1, "entries": [[true, 0]], "f": false, "z": null}'
)
def test_orjson_and_json_load_every_file_alike(tmp_path, data):
    orjson = pytest.importorskip("orjson")
    path = tmp_path / "op.json"
    path.write_bytes(data)
    outcomes = []
    for name in ("json", "orjson"):
        with operator_decoder(name), mock.patch.object(json, "load", wraps=json.load) as spy:
            outcomes.append(_outcome(str(path)))
    assert outcomes[1] == outcomes[0]
    # json decides exactly where the bracket count alone sent the file to it
    assert spy.called != _bracket_rule_lets_orjson_decide(orjson.loads, data)


def _bracket_rule_lets_orjson_decide(loads, data: bytes) -> bool:
    """Whether orjson decides a file by the rule of brackets alone: it
    decodes the bytes, the checks accept what it returns, and the text
    opens no list or object but the top object and a dense file's entries
    and pairs."""
    try:
        loaded = _parse_document("op.json", loads(data))
    except (ValueError, RecursionError, ParseError):
        return False
    lists = 1 + (1 + loaded.dim**2 if isinstance(loaded, Operator) else 0)
    return data.count(b"[") + data.count(b"{") == lists


@pytest.mark.parametrize(
    "text, decided_by_json",
    [
        ('{"format": 1, "kind": "dense", "dim": 1, "entries": [[1, 2]], "label": "A"}', False),
        ('{"format": 1, "kind": "samsonov", "d": -1, "b": 1, "n": 64}', False),
        # a bracket in a string, and a list where the schema reads none
        ('{"format": 1, "kind": "dense", "dim": 1, "entries": [[1, 2]], "label": "A[1]"}', True),
        ('{"format": 1, "kind": "samsonov", "d": -1, "b": 1, "n": 64, "meta": []}', True),
        ('{"format": 1, "kind": "dense", "dim": 1, "entries": [[1e400, 2]]}', True),
    ],
)
def test_orjson_decides_a_file_unless_json_must(tmp_path, monkeypatch, text, decided_by_json):
    pytest.importorskip("orjson")
    path = tmp_path / "op.json"
    path.write_text(text)
    decoded = []
    json_load = json.load
    monkeypatch.setattr(json, "load", lambda handle: decoded.append(path) or json_load(handle))
    with operator_decoder("orjson"):
        try:
            load_operator_file(str(path))
        except ParseError:
            pass
    assert decoded == ([path] if decided_by_json else [])


@pytest.mark.parametrize(
    "label, plain",
    [
        ('"A"', True),
        ('""', True),
        ('"quasi-unitary"', True),  # the letters of a label are counted
        ('"Mößbauer 𝔸"', True),  # no byte of a multi-byte UTF-8 character is ASCII
        (r'"\u0041"', False),  # any backslash keeps the type pass
        (r'"a\\u"', False),
    ],
)
def test_the_census_spares_a_dense_file_of_numbers_the_type_pass(tmp_path, label, plain):
    pytest.importorskip("orjson")
    path = tmp_path / "op.json"
    text = (
        '{"format": 1, "kind": "dense", "dim": 2, "label": %s, "meta": null, "t": true,'
        ' "f": false, "entries": [[1, 2.5], [-0.0, 1e-300], [3, 2e300], [-4, 18446744073709551617]]}'
    )
    path.write_text(text % label, encoding="utf-8")
    passes = []
    bulk = cli._bulk_entries
    with (
        operator_decoder("orjson"),
        mock.patch.object(json, "load", wraps=json.load) as decoded_by_json,
        mock.patch.object(cli, "_bulk_entries", lambda e, p: passes.append(p) or bulk(e, p)),
    ):
        loaded = load_operator_file(str(path))
    assert passes == [plain]
    assert not decoded_by_json.called
    assert loaded.matrix.tolist() == [[1 + 2.5j, -0.0 + 1e-300j], [3 + 2e300j, -4 + 2.0**64 * 1j]]


def test_a_non_ascii_label_gives_one_report_under_each_decoder_and_locale(tmp_path):
    # operator files are UTF-8 whatever the locale's encoding; here the
    # locale is plain C with Python's UTF-8 mode and locale coercion off
    path = tmp_path / "op.json"
    doc = '{"format": 1, "kind": "dense", "dim": 1, "entries": [[2, 0]], "label": "Mößbauer 𝔸"}'
    path.write_bytes(doc.encode("utf-8"))
    reports = []
    for name in DECODERS:
        with operator_decoder(name), contextlib.redirect_stdout(io.StringIO()):
            out = tmp_path / f"{name}.json"
            assert main(["analyze", str(path), "--json-out", str(out)]) == 0
            reports.append(out.read_bytes())
    here = os.path.dirname(os.path.abspath(__file__))
    env = dict(os.environ, LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0")
    env["PYTHONPATH"] = os.pathsep.join([here, os.path.dirname(os.path.dirname(qherm.__file__))])
    script = (
        "import sys\n"
        "from helpers import operator_decoder\n"
        "from qherm.cli import main\n"
        "with operator_decoder('json'):\n"
        "    sys.exit(main(['analyze', sys.argv[1], '--json-out', sys.argv[2]]))\n"
    )
    out = tmp_path / "c_locale.json"
    done = subprocess.run(
        [sys.executable, "-c", script, str(path), str(out)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    reports.append(out.read_bytes())
    assert reports == [reports[0]] * len(reports)
    assert b'"label":"M\\u00f6\\u00dfbauer \\ud835\\udd38"' in reports[0]


def _reference_pairs(values) -> str:
    """Complex numbers rendered one number at a time, as ``[re, im]`` pairs."""
    pairs = ",".join(
        f"[{format(float(z.real), '.17g')},{format(float(z.imag), '.17g')}]" for z in values
    )
    return f"[{pairs}]"


def _reference_payload(op: Operator) -> str:
    """The operator payload rendered one number at a time."""
    return f'{{"dim":{op.dim},"entries":{_reference_pairs(op.matrix.reshape(-1))}}}'


def _render_matches_reference(gen, complex_dim: int, real_dim: int) -> None:
    values = [complex(re, im) for re, im in _pairs(gen, complex_dim**2)]
    square = Operator(np.reshape(values, (complex_dim, complex_dim)))
    for op in (square, Operator(gen.standard_normal((real_dim, real_dim)))):
        assert render_json(operator_payload(op)) == _reference_payload(op)
        # an eigenvalue list is its (n, 2) view, a 1-D float array one row
        flat = op.matrix.reshape(-1)
        es = types.SimpleNamespace(
            eigenvalues=flat, real=flat.imag == 0, defective=False, vector_condition=1.5
        )
        summary = '{"eigenvalues":%s,"all_real":%s,"defective":false,"vector_condition":1.5}'
        all_real = "true" if es.real.all() else "false"
        assert render_json(_spectral_summary(es)) == summary % (_reference_pairs(flat), all_real)
        for row in (flat.real.copy(), flat.imag[::-1], np.empty(0)):
            reference = "[" + ",".join(format(x, ".17g") for x in row.tolist()) + "]"
            assert render_json({"v": row}) == f'{{"v":{reference}}}'


@pytest.mark.parametrize("seed", [0, 1])
def test_render_matrix_matches_per_element_reference(seed):
    _render_matches_reference(rng(seed), 8, 5)


def test_render_matrix_above_the_kernel_switch_matches_per_element_reference():
    # 2 * 48^2 and 2 * 70^2 cells, where the numpy kernel writes the digits
    # in two chunks; rows of 48^2 and 70^2 cells, the latter one chunk
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
    with pytest.raises(ValueError, match=f"reports must contain finite numbers, got {bad}"):
        render_json({"v": np.array([1.0, -0.0, bad])})


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


@pytest.mark.parametrize("zeros", [0.0, 0.1, 0.25, 0.3, 0.5, 0.9, 1.0])
def test_kernel_writes_tables_of_signed_zeros_as_format_does(zeros):
    # chunks from a quarter zeros on write their zeros apart from the digits;
    # a real matrix's view is half +0, and the NaN of a CSV table stays empty
    gen = rng(31)
    values = gen.integers(0, 2**64, 3 * _fmt17.CHUNK_CELLS, dtype=np.uint64).view(np.float64)
    values = np.where(np.isfinite(values), values, 1.0)
    values[gen.random(values.size) < zeros] = 0.0
    values[gen.random(values.size) < zeros / 2] = -0.0
    assert _kernel(values) == _reference(values)
    real = matrix_entries(gen.standard_normal((70, 70)) * gen.choice([0.0, -0.0, 1.0], (70, 70)))
    out: list[str] = []
    _fmt17.format_rows(real, "[", "]", ",", out)
    assert "".join(out) == _reference_pairs(real.view(np.complex128).reshape(-1))[1:-1]
    table = np.tile([[np.nan, 0.0], [-0.0, 2.5]], (_KERNEL_MIN_CELLS, 1))
    out = []
    _fmt17.format_rows(table, "", "\n", "", out)
    assert "".join(out) == ",0\n-0,2.5\n" * _KERNEL_MIN_CELLS


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
