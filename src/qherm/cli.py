"""Command-line front end.

Reads operator/spec files (JSON, ``"format": 1``), runs one module
pipeline per subcommand, prints a short human summary and optionally
writes machine artifacts (``--json-out`` / ``--csv-out``).  Each
subcommand returns its exit code and report body; :func:`main` puts the
common head (tool, version, command, tolerances) in front of the body and
writes the ``--json-out`` report.

Exit codes: 0 = analysis completed, 1 = a verification assertion failed,
2 = input or usage error.  JSON output is byte-identical for identical
inputs and flags: key order is fixed and floats carry 17 significant
digits.  Complex numbers are serialized as ``[re, im]`` pairs, and
dataclasses as objects of their fields in declaration order.

Numbers move in bulk at both ends.  Operator files are decoded by orjson
where it is installed, with the stdlib ``json`` decoder as the fallback
that decides every refusal (:func:`load_operator_file`).  A dense operator
file whose entries are all pairs of JSON numbers becomes one float64 array
in a single ``np.fromiter`` pass; any other file is checked entry by
entry, and that check alone writes the error naming the first bad entry.
Under orjson, one numpy census of the file's bytes replaces the per-item
type check: a text with no backslash, whose quotes and letters ``a`` and
``u`` are all those of its top-level keys, strings, ``true``, ``false``
and ``null``, holds no other string, bool or null, since no JSON number
holds either letter.  A matrix in a report is its ``(n*n, 2)`` float64
view, a list of eigenvalues its ``(n, 2)`` view and a 1-D float64 array
one row.  Each of them and every CSV table is formatted whole: below
:data:`_KERNEL_MIN_CELLS` cells by one ``%``-template over all their
rows, from it on by the exact numpy ``%.17g`` kernel of
:mod:`qherm._fmt17`, whose chunks of text go to the file one by one.

:func:`main` may be called any number of times in one process: the
argument parser is built once, at import, and each call parses into a
fresh namespace.  Report files are written atomically and get the mode
``open(path, "w")`` would give them under the process umask.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import gc
import itertools
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .core import DEFAULT_TOL, Operator, eig_general, herm_residual
from .errors import IntertwiningViolated, ParseError, QhermError, SpectrumNotConjugateClosed
from .halfline import HalfLineSpec, default_box_length, samsonov_report
from .lattice import LatticeNorms, make_metric, verify_lattice
from .quasihermitian import (
    hermitian_partner,
    quasi_hermiticity_residual,
    quasi_sa_transform,
    solve_metric,
    solve_pseudo_metric,
)
from .quasisimilarity import MATCH_TOL, push_eigenvectors, spectral_comparison
from .spectralfamily import x_family, x_properties

EXIT_OK = 0
EXIT_VERIFICATION_FAILED = 1
EXIT_INPUT_ERROR = 2


# ---------------------------------------------------------------------------
# deterministic serialization

def _fmt_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError(f"reports must contain finite numbers, got {x}")
    return format(float(x), ".17g")


def render_json(value) -> str:
    """Render to JSON text with fixed key order and 17-digit floats."""
    parts: list[str] = []
    _render(value, parts)
    return "".join(parts)


def _finite_or_none(x):
    """An undefined (non-finite) estimate: null in JSON, an empty CSV field."""
    return x if math.isfinite(x) else None


def _render(value, out: list[str]) -> None:
    if value is None:
        out.append("null")
    elif isinstance(value, (bool, np.bool_)):
        out.append("true" if value else "false")
    elif isinstance(value, str):
        out.append(json.dumps(value))
    elif isinstance(value, (int, np.integer)):
        out.append(str(int(value)))
    elif isinstance(value, (float, np.floating)):
        out.append(_fmt_float(float(value)))
    elif isinstance(value, (complex, np.complexfloating)):
        out.append(f"[{_fmt_float(value.real)},{_fmt_float(value.imag)}]")
    elif isinstance(value, dict):
        out.append("{")
        for k, v in value.items():
            if out[-1] != "{":
                out.append(",")
            out.append(json.dumps(str(k)) + ":")
            _render(v, out)
        out.append("}")
    elif isinstance(value, (list, tuple)):
        out.append("[")
        for v in value:
            if out[-1] != "[":
                out.append(",")
            _render(v, out)
        out.append("]")
    elif isinstance(value, np.ndarray):
        if value.ndim == 2 and value.dtype == np.float64:
            _check_finite(value)
            out.append("[")
            _format_rows(value, "[", "]", ",", out)
            out.append("]")
        elif value.ndim == 1 and value.dtype == np.float64:
            _check_finite(value)
            _format_rows(value.reshape(1, -1), "[", "]", "", out)
        else:
            _render(value.tolist(), out)
    elif dataclasses.is_dataclass(value):
        _render({f.name: getattr(value, f.name) for f in dataclasses.fields(value)}, out)
    else:
        raise TypeError(f"cannot serialize {type(value)!r}")


def _check_finite(values: np.ndarray) -> None:
    bad = values[~np.isfinite(values)]
    if bad.size:
        _fmt_float(float(bad[0]))  # raises the finite-number error


# Tables of at least this many cells are formatted by the numpy kernel of
# ._fmt17, smaller ones by one %-template, which is faster there: the kernel
# pays about 60 numpy calls per chunk.  Measured crossover: about 250 cells
# of a complex matrix, 350 of a CSV table, 500 of a real matrix (half of it
# zeros, which both write fast); 512 is a complex 16 x 16 matrix.
_KERNEL_MIN_CELLS = 512


def _format_rows(table: np.ndarray, head: str, tail: str, sep: str, out: list[str]) -> None:
    """Append the rows of a 2-D float array to ``out``, each written
    ``head + ",".join(cells) + tail`` and joined by ``sep``.

    Each cell is ``"%.17g" % x``, which is ``format(x, ".17g")`` and so the
    digits of :func:`_fmt_float`, or nothing for NaN (an undefined CSV
    number); the caller checks finiteness.
    """
    if table.size >= _KERNEL_MIN_CELLS:
        from ._fmt17 import format_rows  # on first use, so import qherm.cli stays quick

        format_rows(table, head, tail, sep, out)
        return
    row = head + ",".join(["%.17g"] * table.shape[1]) + tail
    text = sep.join([row] * len(table)) % tuple(table.reshape(-1).tolist())
    # "%.17g" writes NaN as "nan", and no finite number's text holds an "n"
    out.append(text.replace("nan", ""))


def matrix_entries(mat: np.ndarray) -> np.ndarray:
    """Row-major ``[re, im]`` pairs, the operator-file wire format.

    Returns the ``(n*n, 2)`` float64 view of the complex matrix (a copy
    only if ``mat`` is not C-contiguous complex128).
    """
    flat = np.ascontiguousarray(mat, dtype=np.complex128).reshape(-1)
    return flat.view(np.float64).reshape(-1, 2)


def operator_payload(op: Operator) -> dict:
    return {"dim": op.dim, "entries": matrix_entries(op.matrix)}


def _write_text_atomic(path: str, parts: list[str]) -> None:
    """Write the concatenated ``parts`` to a new file in ``path``'s
    directory, then rename it over ``path``; the file gets the mode
    ``open(path, "w")`` would give: that of the file it replaces, else
    0o666 less the umask."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    tmp = os.path.join(directory, f".{os.path.basename(path)}.{os.urandom(8).hex()}.tmp")
    # exclusive like mkstemp, but 0o666 so that the umask decides the mode
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        try:
            os.fchmod(fd, os.stat(path).st_mode & 0o777)
        except FileNotFoundError:
            pass
        with os.fdopen(fd, "w") as handle:
            handle.writelines(parts)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json(path: str, payload) -> None:
    """Write :func:`render_json`'s text and a newline, part by part."""
    parts: list[str] = []
    _render(payload, parts)
    parts.append("\n")
    _write_text_atomic(path, parts)


def write_csv(path: str, header: list[str], rows) -> None:
    """Write a table of numbers, 17 significant digits per cell.

    ``rows`` is a 2-D float array or a list of number rows.  ``None`` or
    NaN is an undefined number and leaves its field empty; an infinite
    cell raises.  Integers up to 2**53 print as they would with ``str``.
    """
    table = np.asarray(rows, dtype=np.float64).reshape(-1, len(header))
    _check_finite(table[~np.isnan(table)])
    parts = [",".join(header) + "\n"]
    _format_rows(table, "", "\n", "", parts)
    _write_text_atomic(path, parts)


# ---------------------------------------------------------------------------
# operator files

@functools.cache
def _orjson_loads():
    """``orjson.loads``, or ``None`` where orjson is not installed.

    Imported on the first load, so that ``import qherm.cli`` does not pay
    for it.
    """
    try:
        import orjson
    except ImportError:
        return None
    return orjson.loads


def load_operator_file(path: str):
    """Parse an operator file; returns an Operator or a HalfLineSpec.

    Where orjson is installed (the ``fast`` extra), ``orjson.loads``
    decodes the file's bytes first.  The stdlib ``json`` decoder reads the
    file anew and decides wherever orjson refuses the bytes (NaN, a number
    beyond float range, a BOM, a lone surrogate), the checks refuse what it
    returns (an int past 2**64, which orjson makes a float, as ``dim``), or
    the text holds a list or an object besides the top object and a dense
    file's entries and pairs (``json`` refuses nesting past the recursion
    limit, orjson does not; a repeated key can hide such a value).
    Both decoders round a JSON number to the nearest double, so every
    Operator is bit for bit, and every ParseError word for word, that of
    ``json`` alone; a value nested too deeply for ``json`` is a ParseError.

    Before orjson decodes the bytes, one numpy census counts their ``[``,
    ``{``, ``"``, ``\\``, ``a`` and ``u``.  The brackets give the rule
    above.  The rest spare a dense file the per-entry type check where
    they prove that no entry holds a string, a bool or a null: no
    backslash, two quotes per top-level key and string value, and no ``a``
    or ``u`` but those of these strings and of the top-level ``true``,
    ``false`` and ``null`` (:func:`_plain_entries`).
    """
    # The cyclic garbage collector is held off: a decode allocates a list
    # and two floats per matrix entry, and each collection they start walks
    # every list made so far, to free nothing, since the decoded document
    # holds no cycles and reference counting frees it before the collector
    # runs again.  At n = 2000 the collections took half of json.load's time.
    enabled = gc.isenabled()
    gc.disable()
    try:
        loaded = _decode_with_orjson(path)
        return _decode_with_json(path) if loaded is None else loaded
    finally:
        if enabled:
            gc.enable()


def _decode_with_orjson(path: str):
    """The operator file as orjson decodes it, or ``None`` where orjson is
    not installed or :func:`load_operator_file` leaves the decision to
    ``json``."""
    loads = _orjson_loads()
    if loads is None:
        return None
    try:
        with open(path, "rb") as handle:
            data = handle.read()
        raw = np.frombuffer(data, dtype=np.uint8)
        census = [np.count_nonzero(raw == c) for c in b'[{"\\au']
        doc = loads(data)
        del data, raw  # the bytes go before the entries' array is made
        plain = _plain_entries(doc, census)
        return None if plain is None else _parse_document(path, doc, plain)
    except (OSError, ValueError, ParseError):
        return None


def _plain_entries(doc, census: list[int]) -> bool | None:
    """The census's verdict on orjson's document (see :func:`load_operator_file`):
    ``None`` leaves the file to ``json``, ``True`` spares the type pass."""
    opened, braces, quotes, escapes, a, u = census
    if not isinstance(doc, dict):
        return None
    entries = doc.get("entries") if doc.get("kind") == "dense" else None
    if opened + braces != (2 + len(entries) if isinstance(entries, list) else 1):
        return None
    values = doc.values()
    strings = [*doc, *(v for v in values if isinstance(v, str))]
    text = "".join(strings)
    return (
        not escapes
        and quotes == 2 * len(strings)
        and a == text.count("a") + sum(v is False for v in values)
        and u == text.count("u") + sum(v is True or v is None for v in values)
    )


def _decode_with_json(path: str):
    # RecursionError: nesting past the recursion limit, in the decoder or in
    # a ParseError that writes out the nested value
    try:
        try:
            with open(path, encoding="utf-8") as handle:
                doc = json.load(handle)
        except OSError as exc:
            raise ParseError(f"cannot read {path}: {exc}") from exc
        except ValueError as exc:  # bad JSON, bad UTF-8, an int past the digit limit
            raise ParseError(f"{path} is not valid JSON: {exc}") from exc
        return _parse_document(path, doc)
    except RecursionError as exc:
        raise ParseError(f"{path}: a value is nested too deeply") from exc


def _parse_document(path: str, doc, plain: bool = False):
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: top level must be an object")
    if doc.get("format") != 1:
        raise ParseError(f"{path}: unsupported format {doc.get('format')!r}")
    kind = doc.get("kind")
    if kind == "dense":
        return _parse_dense(path, doc, plain)
    if kind == "samsonov":
        return _parse_samsonov(path, doc)
    raise ParseError(f"{path}: unknown kind {kind!r}")


def _parse_dense(path: str, doc: dict, plain: bool) -> Operator:
    dim = doc.get("dim")
    if not isinstance(dim, int) or isinstance(dim, bool) or dim <= 0:
        raise ParseError(f"{path}: dim must be a positive integer")
    entries = doc.get("entries")
    if not isinstance(entries, list) or len(entries) != dim * dim:
        raise ParseError(f"{path}: expected {dim * dim} entries")
    values = _bulk_entries(entries, plain)
    if values is None:
        _first_bad_entry(path, entries)
    label = doc.get("label", "")
    if not isinstance(label, str):
        raise ParseError(f"{path}: label must be a string")
    try:
        return Operator(values.reshape(dim, dim), label)
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from exc


def _bulk_entries(entries: list, plain: bool = False) -> np.ndarray | None:
    """All ``[re, im]`` pairs as complex128 in C-level passes, or ``None``.

    ``None`` means some entry is not a list of two JSON numbers (``bool``
    is its own type here, so ``true`` is not taken for 1) or holds an int
    beyond float range; :func:`_first_bad_entry` then finds and names it.
    A JSON scalar has no ``len``; a 2-character string or a 2-key object
    yields ``str`` items, which the item-type pass refuses; ``plain``
    skips that pass where :func:`_plain_entries` has shown that no item is
    a string, a bool or a null.  numpy rounds an int to float as
    ``float()`` does, so the values equal ``complex(re, im)`` bit for bit.
    """
    try:
        lengths = set(map(len, entries))
    except TypeError:
        return None
    if lengths != {2}:
        return None
    if not plain and not set(map(type, itertools.chain.from_iterable(entries))) <= {int, float}:
        return None
    numbers = itertools.chain.from_iterable(entries)
    try:
        return np.fromiter(numbers, np.float64, 2 * len(entries)).view(np.complex128)
    except OverflowError:
        return None


def _first_bad_entry(path: str, entries: list) -> None:
    """Raise the :class:`ParseError` naming the first entry that is not a
    ``[re, im]`` pair of JSON numbers within float range.

    Called on the lists :func:`_bulk_entries` refuses, each of which holds
    such an entry, so it always raises.
    """
    for k, pair in enumerate(entries):
        if (
            not isinstance(pair, list)
            or len(pair) != 2
            or not all(isinstance(p, (int, float)) and not isinstance(p, bool) for p in pair)
        ):
            raise ParseError(f"{path}: entry {k} must be a [re, im] number pair")
        try:
            complex(pair[0], pair[1])
        except OverflowError as exc:
            raise ParseError(f"{path}: entry {k}: {exc}") from exc


def _parse_samsonov(path: str, doc: dict) -> HalfLineSpec:
    # JSON numbers only: bool is its own type here, so true is not taken for 1
    for field in ("d", "b", "box_length"):
        value = doc.get(field, 0)
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ParseError(f"{path}: {field} must be a number")
    try:
        d = float(doc["d"])
        b = float(doc["b"])
        n = doc["n"]
        box = float(doc.get("box_length", default_box_length(d)))
    except (KeyError, OverflowError) as exc:
        raise ParseError(f"{path}: bad half-line parameters: {exc}") from exc
    if not isinstance(n, int) or isinstance(n, bool):
        raise ParseError(f"{path}: n must be an integer")
    try:
        return HalfLineSpec(d, b, box, n)
    except QhermError as exc:
        raise ParseError(f"{path}: {exc}") from exc


def _load_dense(path: str) -> Operator:
    loaded = load_operator_file(path)
    if not isinstance(loaded, Operator):
        raise ParseError(f"{path}: expected a dense operator file")
    return loaded


# ---------------------------------------------------------------------------
# report fragments

def _digest(op: Operator) -> dict:
    return {"dim": op.dim, "label": op.label}


def _spectral_summary(es) -> dict:
    return {
        "eigenvalues": matrix_entries(es.eigenvalues),
        "all_real": bool(es.real.all()),
        "defective": es.defective,
        "vector_condition": _finite_or_none(es.vector_condition),
    }


# ---------------------------------------------------------------------------
# subcommands: each returns (exit code, report body); main adds the head

def cmd_analyze(args) -> tuple[int, dict]:
    A = _load_dense(args.path)
    tol = args.tol
    # one diagonalization decides the class and feeds the metric builders
    es = eig_general(A, tol)
    metric_summary = None
    transform_summary = None
    herm_res = herm_residual(A.matrix)
    if es.defective:
        classification = "defective"
    elif herm_res <= tol:
        classification = "hermitian"
        metric_summary = {"eig_min": 1.0, "condition": 1.0, "residual": 0.0}
        transform_summary = {"herm_residual": herm_res}
    elif es.real.all():
        # the record keeps the condition number of solve_metric's SVD
        sol = solve_metric(es, tol)
        classification = "quasi_hermitian_pd"
        M = sol.canonical
        metric_summary = {
            "eig_min": M.eig_min,
            "condition": M.eig_max / M.eig_min,
            "residual": sol.residual,
            "scale": sol.scale,
            "G": operator_payload(M.G),
        }
        # sol.residual is the metric relation's residual, so K needs no check
        K = hermitian_partner(A, M)
        transform_summary = {"herm_residual": herm_residual(K.matrix)}
    else:
        try:
            T, signature = solve_pseudo_metric(es, tol)
            classification = "pseudo_hermitian_indefinite"
            metric_summary = {
                "signature": list(signature),
                "residual": quasi_hermiticity_residual(A, T),
                "T": operator_payload(T),
            }
        except SpectrumNotConjugateClosed:
            classification = "not_pseudo_hermitian"
    print(f"classification: {classification}")
    if metric_summary and "residual" in metric_summary:
        print(f"metric residual: {metric_summary['residual']:.3e}")
    return EXIT_OK, {
        "input": _digest(A),
        "classification": classification,
        "metric": metric_summary,
        "transform": transform_summary,
        "spectrum": _spectral_summary(es),
    }


def cmd_metric(args) -> tuple[int, dict]:
    A = _load_dense(args.path)
    sol = solve_metric(A, args.tol)
    print(
        f"metric found: residual {sol.residual:.3e}, "
        f"eig_min {sol.canonical.eig_min:.3e}, scale {sol.scale:.6g}"
    )
    return EXIT_OK, {
        "input": _digest(A),
        "residual": sol.residual,
        "scale": sol.scale,
        "vector_condition": sol.vector_condition,
        "eig_min": sol.canonical.eig_min,
        "eig_max": sol.canonical.eig_max,
        "freedom": sol.freedom,
        "G": operator_payload(sol.canonical.G),
    }


def cmd_transform(args) -> tuple[int, dict]:
    A = _load_dense(args.path)
    if args.metric:
        M = make_metric(_load_dense(args.metric), args.tol)
    else:
        M = solve_metric(A, args.tol).canonical
    K = quasi_sa_transform(A, M, args.tol, force=args.force)
    res = herm_residual(K.matrix)
    print(f"transform Hermiticity residual: {res:.3e}")
    return EXIT_OK, {"input": _digest(A), "herm_residual": res, "K": operator_payload(K)}


def cmd_qsim(args) -> tuple[int, dict]:
    A = _load_dense(args.a)
    B = _load_dense(args.b)
    T = _load_dense(args.t)
    tol = args.tol
    # one record of A, at the match tolerance, serves the push (which reads
    # only its eigenpairs and judges at tol) and the match (its clusters)
    es_a = eig_general(A, MATCH_TOL)
    try:
        push = push_eigenvectors(es_a, B, T, tol)
        rep = push.intertwiner
    except IntertwiningViolated as exc:
        push, rep = None, exc.report
    match = spectral_comparison(es_a, B, MATCH_TOL)
    ok = push is not None and push.passed
    push_summary = None
    if push is not None:
        push_summary = {
            "max_residual": push.max_residual,
            "annihilated": [
                {"eigenvalue": lam, "image_norm": nrm} for lam, nrm in push.annihilated
            ],
            "passed": push.passed,
        }
    print(
        f"intertwining residual {rep.residual:.3e}; quasi-affine: {rep.quasi_affinity}; "
        f"verdict: {'pass' if ok else 'fail'}"
    )
    return EXIT_OK if ok else EXIT_VERIFICATION_FAILED, {
        "intertwining": {
            "residual": rep.residual,
            "min_sv": rep.min_sv,
            "numerical_rank": rep.numerical_rank,
            "quasi_affinity": rep.quasi_affinity,
            "singular_values": rep.singular_values,
        },
        "spectral_match": {
            "tolerance": match.tolerance,
            "inclusion": match.inclusion,
            "pairs": match.pairs,
            "unmatched_a": [{"value": v, "mult": m} for v, m in match.unmatched_a],
            "unmatched_b": [{"value": v, "mult": m} for v, m in match.unmatched_b],
        },
        "push": push_summary,
        "passed": ok,
    }


def cmd_spectral(args) -> tuple[int, dict]:
    A = _load_dense(args.path)
    tol = args.tol
    XF = x_family(eig_general(A, tol), tol)
    # one draw in the order of one draw per part: re xi, im xi, re eta, im eta per sample
    z = np.random.default_rng(args.seed).standard_normal((args.samples, 2, 2, A.dim))
    props = x_properties(XF, A, z[:, :, 0] + 1j * z[:, :, 1], tol)
    print(
        f"{len(XF.thresholds)} thresholds; reconstruction residual "
        f"{props.max_reconstruction_residual:.3e}; verdict: "
        f"{'pass' if props.passed else 'fail'}"
    )
    if args.csv_out:
        # column k is the path <X(t) xi_k, eta_k> over the thresholds t
        paths = np.cumsum(props.jump_values, axis=0)
        steps, count = paths.shape
        flat = paths.T.reshape(-1)  # sample-major: all thresholds of sample 0 first
        table = np.column_stack(
            [
                np.repeat(np.arange(count), steps),
                np.tile(XF.thresholds, count),
                flat.real,
                flat.imag,
            ]
        )
        write_csv(args.csv_out, ["sample", "lambda", "re", "im"], table)
    return EXIT_OK if props.passed else EXIT_VERIFICATION_FAILED, {
        "input": _digest(A),
        "seed": args.seed,
        "thresholds": [float(t) for t in XF.thresholds],
        "max_reconstruction_residual": props.max_reconstruction_residual,
        "variation_violations": props.variation_violations,
        "max_endpoint_residual": props.max_endpoint_residual,
        "right_continuous": props.right_continuous,
        "passed": props.passed,
    }


def cmd_lattice(args) -> tuple[int, dict]:
    G = _load_dense(args.path)
    tol = args.tol
    M = make_metric(G, tol)
    # one draw in the order of one draw per part: re xi, then im xi per sample
    z = np.random.default_rng(args.seed).standard_normal((args.samples, 2, M.dim))
    rep = verify_lattice(M, z[:, 0] + 1j * z[:, 1], tol)
    print(
        f"lattice checks over {args.samples} samples: "
        f"{'pass' if rep.passed else 'fail'} "
        f"(projective {rep.max_projective_residual:.3e})"
    )
    return EXIT_OK if rep.passed else EXIT_VERIFICATION_FAILED, {
        "input": _digest(G),
        "seed": args.seed,
        "rescale_factor": rep.rescale_factor,
        "max_projective_residual": rep.max_projective_residual,
        "max_duality_residual": rep.max_duality_residual,
        "max_unitarity_residual": rep.max_unitarity_residual,
        "chain_holds": rep.chain_holds,
        "passed": rep.passed,
        "norms": [LatticeNorms(*col) for col in rep.norms.T.tolist()],
    }


def _parse_schedule(text: str) -> list[int]:
    try:
        return [int(s) for s in text.split(",")]
    except ValueError as exc:
        raise ParseError(f"bad schedule {text!r}: {exc}") from exc


# the report and CSV names of the fields of a SamsonovRow, in their order
_SAMSONOV_COLUMNS = (
    "n", "h", "min_eig_G", "gap_to_d2", "residual_full", "herm_residual_h",
    "max_im_lambda_H", "order_estimates",
)


def cmd_samsonov(args) -> tuple[int, dict]:
    if args.path:
        spec = load_operator_file(args.path)
        if not isinstance(spec, HalfLineSpec):
            raise ParseError(f"{args.path}: expected a samsonov spec file")
        schedule = _parse_schedule(args.n) if args.n else [spec.n]
    else:
        box = args.L if args.L is not None else default_box_length(args.d)
        schedule = _parse_schedule(args.n) if args.n else [200, 400, 800]
        spec = HalfLineSpec(args.d, args.b, box, schedule[0])
    rep = samsonov_report(spec, schedule)
    rows = [dict(zip(_SAMSONOV_COLUMNS, map(_finite_or_none, vars(r).values()))) for r in rep.rows]
    for row in rep.rows:
        print(
            f"n={row.n:5d} min_eig_G={row.min_eig_G:.9f} "
            f"residual_full={row.residual_full:.3e} "
            f"max_im={row.max_im_lambda_H:.3e}"
        )
    print(f"verdict: {'pass' if rep.passed else 'fail'}")
    if args.csv_out:
        write_csv(args.csv_out, list(rows[0]), [list(row.values()) for row in rows])
    return EXIT_OK if rep.passed else EXIT_VERIFICATION_FAILED, {
        "d": spec.d,
        "b": spec.b,
        "box_length": spec.box_length,
        "floor_epsilon": rep.floor_epsilon,
        "d_squared": rep.d_squared,
        "max_im_nonincreasing": rep.max_im_nonincreasing,
        "gap_monotone": rep.gap_monotone,
        "passed": rep.passed,
        "rows": rows,
    }


# ---------------------------------------------------------------------------

def _at_least(kind: type, low):
    """An argparse type: a finite ``kind`` no less than ``low`` (else exit 2)."""

    def parse(text: str):
        value = kind(text)  # argparse reports a ValueError as "invalid <kind> value"
        if not value >= low or (kind is float and not math.isfinite(value)):
            raise argparse.ArgumentTypeError(f"expected a finite value >= {low}, got {text!r}")
        return value

    parse.__name__ = kind.__name__
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qherm",
        description="metric operators and quasi-Hermitian analysis for dense matrices",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, csv_out=False, seed=False, tol=True):
        if tol:
            p.add_argument("--tol", type=_at_least(float, 0.0), default=DEFAULT_TOL)
        p.add_argument("--json-out", metavar="PATH")
        if csv_out:
            p.add_argument("--csv-out", metavar="PATH")
        if seed:
            p.add_argument("--seed", type=_at_least(int, 0), default=0)

    p = sub.add_parser("analyze", help="classify an operator and build its metric")
    p.add_argument("path")
    common(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("metric", help="solve G A = A* G for a positive metric")
    p.add_argument("path")
    common(p)
    p.set_defaults(func=cmd_metric)

    p = sub.add_parser("transform", help="compute K = G^1/2 A G^-1/2")
    p.add_argument("path")
    p.add_argument("--metric", metavar="PATH", help="dense file with an explicit G")
    p.add_argument("--force", action="store_true")
    common(p)
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser("qsim", help="verify an intertwining relation T A = B T")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("t")
    common(p)
    p.set_defaults(func=cmd_qsim)

    p = sub.add_parser("spectral", help="build X(lambda) and verify its properties")
    p.add_argument("path")
    p.add_argument("--samples", type=_at_least(int, 1), default=8)
    common(p, csv_out=True, seed=True)
    p.set_defaults(func=cmd_spectral)

    p = sub.add_parser("lattice", help="verify the seven-norm lattice of a metric")
    p.add_argument("path")
    p.add_argument("--samples", type=_at_least(int, 1), default=8)
    common(p, seed=True)
    p.set_defaults(func=cmd_lattice)

    p = sub.add_parser("samsonov", help="half-line Robin refinement study")
    p.add_argument("path", nargs="?")
    p.add_argument("--d", type=float, default=-1.0)
    p.add_argument("--b", type=float, default=1.0)
    p.add_argument("--L", type=float)
    p.add_argument("--n", help="comma-separated ascending grid sizes")
    # the refinement study takes no tolerance; its report records the default
    common(p, csv_out=True, tol=False)
    p.set_defaults(func=cmd_samsonov, tol=DEFAULT_TOL)

    return parser


# Built once, at import, and shared by every call of :func:`main`.  Parsing
# fills a fresh Namespace and leaves the tree as it was, as long as no
# action appends to a default: no ``append`` actions, no mutable defaults.
_PARSER = build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        code, body = args.func(args)
        if args.json_out:
            head = {
                "tool": "qherm",
                "version": __version__,
                "command": args.command,
                "tolerances": {"tol": args.tol},
            }
            write_json(args.json_out, {**head, **body})
        return code
    except (QhermError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
