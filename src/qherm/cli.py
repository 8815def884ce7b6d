"""Command-line front end.

Reads operator/spec files (JSON, ``"format": 1``), runs one module
pipeline per subcommand, prints a short human summary and optionally
writes machine artifacts (``--json-out`` / ``--csv-out``).

Exit codes: 0 = analysis completed, 1 = a verification assertion failed,
2 = input or usage error.  JSON output is byte-identical for identical
inputs and flags: key order is fixed and floats carry 17 significant
digits.  Complex numbers are serialized as ``[re, im]`` pairs.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import tempfile

import numpy as np

from . import __version__
from .core import DEFAULT_TOL, Operator, eig_general, herm_residual, real_eigenvalue_mask
from .errors import ParseError, QhermError, SpectrumNotConjugateClosed
from .halfline import HalfLineSpec, default_box_length, samsonov_report
from .lattice import make_metric, verify_lattice
from .quasihermitian import (
    _canonical_metric,
    _pseudo_metric,
    quasi_hermiticity_residual,
    quasi_sa_transform,
    solve_metric,
)
from .quasisimilarity import (
    push_eigenvectors,
    spectral_comparison,
    verify_intertwining,
)
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
        _render(value.tolist(), out)
    else:
        raise TypeError(f"cannot serialize {type(value)!r}")


def matrix_entries(mat: np.ndarray) -> list[list[float]]:
    """Row-major ``[re, im]`` pairs, the operator-file wire format."""
    flat = np.asarray(mat, dtype=np.complex128).reshape(-1)
    return [[float(z.real), float(z.imag)] for z in flat]


def operator_payload(op: Operator) -> dict:
    return {"dim": op.dim, "entries": matrix_entries(op.matrix)}


def _write_text_atomic(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json(path: str, payload) -> None:
    _write_text_atomic(path, render_json(payload) + "\n")


def write_csv(path: str, header: list[str], rows: list[list]) -> None:
    import io

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(
            [_fmt_float(v) if isinstance(v, float) else v for v in row]
        )
    _write_text_atomic(path, buf.getvalue())


# ---------------------------------------------------------------------------
# operator files

def load_operator_file(path: str):
    """Parse an operator file; returns an Operator or a HalfLineSpec."""
    try:
        with open(path) as handle:
            doc = json.load(handle)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: top level must be an object")
    if doc.get("format") != 1:
        raise ParseError(f"{path}: unsupported format {doc.get('format')!r}")
    kind = doc.get("kind")
    if kind == "dense":
        return _parse_dense(path, doc)
    if kind == "samsonov":
        return _parse_samsonov(path, doc)
    raise ParseError(f"{path}: unknown kind {kind!r}")


def _parse_dense(path: str, doc: dict) -> Operator:
    dim = doc.get("dim")
    if not isinstance(dim, int) or isinstance(dim, bool) or dim <= 0:
        raise ParseError(f"{path}: dim must be a positive integer")
    entries = doc.get("entries")
    if not isinstance(entries, list) or len(entries) != dim * dim:
        raise ParseError(f"{path}: expected {dim * dim} entries")
    values = np.empty(dim * dim, dtype=np.complex128)
    for k, pair in enumerate(entries):
        if (
            not isinstance(pair, list)
            or len(pair) != 2
            or not all(isinstance(p, (int, float)) and not isinstance(p, bool) for p in pair)
        ):
            raise ParseError(f"{path}: entry {k} must be a [re, im] number pair")
        values[k] = complex(pair[0], pair[1])
    label = doc.get("label", "")
    if not isinstance(label, str):
        raise ParseError(f"{path}: label must be a string")
    try:
        return Operator(values.reshape(dim, dim), label)
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from exc


def _parse_samsonov(path: str, doc: dict) -> HalfLineSpec:
    try:
        d = float(doc["d"])
        b = float(doc["b"])
        n = doc["n"]
        box = float(doc.get("box_length", default_box_length(d)))
    except (KeyError, TypeError, ValueError) as exc:
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

def _report_head(command: str, tol: float) -> dict:
    return {
        "tool": "qherm",
        "version": __version__,
        "command": command,
        "tolerances": {"tol": tol},
    }


def _digest(op: Operator) -> dict:
    return {"dim": op.dim, "label": op.label}


def _spectral_summary(es, tol: float) -> dict:
    return {
        "eigenvalues": [complex(z) for z in es.eigenvalues],
        "all_real": bool(real_eigenvalue_mask(es.eigenvalues, tol).all()),
        "defective": es.defective,
        "vector_condition": es.vector_condition,
    }


# ---------------------------------------------------------------------------
# subcommands

def cmd_analyze(args) -> int:
    A = _load_dense(args.path)
    tol = args.tol
    report = _report_head("analyze", tol)
    report["input"] = _digest(A)
    # one diagonalization decides the class and feeds the metric builders
    es = eig_general(A, tol)
    spectral = _spectral_summary(es, tol)
    metric_summary = None
    transform_summary = None
    if es.defective:
        classification = "defective"
    elif herm_residual(A.matrix) <= tol:
        classification = "hermitian"
        metric_summary = {"eig_min": 1.0, "condition": 1.0, "residual": 0.0}
        transform_summary = {"herm_residual": herm_residual(A.matrix)}
    elif spectral["all_real"]:
        sol = _canonical_metric(A, es, tol)
        classification = "quasi_hermitian_pd"
        M = sol.canonical
        metric_summary = {
            "eig_min": M.eig_min,
            "condition": M.eig_max / M.eig_min,
            "residual": sol.residual,
            "scale": sol.scale,
            "G": operator_payload(M.G),
        }
        K = quasi_sa_transform(A, M, tol=np.inf, force=False)
        transform_summary = {"herm_residual": herm_residual(K.matrix)}
    else:
        try:
            T, signature = _pseudo_metric(A, es, tol)
            classification = "pseudo_hermitian_indefinite"
            metric_summary = {
                "signature": list(signature),
                "residual": quasi_hermiticity_residual(A, T),
                "T": operator_payload(T),
            }
        except SpectrumNotConjugateClosed:
            classification = "not_pseudo_hermitian"
    report["classification"] = classification
    report["metric"] = metric_summary
    report["transform"] = transform_summary
    report["spectrum"] = spectral
    print(f"classification: {classification}")
    if metric_summary and "residual" in metric_summary:
        print(f"metric residual: {metric_summary['residual']:.3e}")
    if args.json_out:
        write_json(args.json_out, report)
    return EXIT_OK


def cmd_metric(args) -> int:
    A = _load_dense(args.path)
    sol = solve_metric(A, args.tol)
    report = _report_head("metric", args.tol)
    report["input"] = _digest(A)
    report["residual"] = sol.residual
    report["scale"] = sol.scale
    report["vector_condition"] = sol.vector_condition
    report["eig_min"] = sol.canonical.eig_min
    report["eig_max"] = sol.canonical.eig_max
    report["freedom"] = [
        {"start": c.start, "size": c.size, "value": complex(c.value)}
        for c in sol.freedom
    ]
    report["G"] = operator_payload(sol.canonical.G)
    print(
        f"metric found: residual {sol.residual:.3e}, "
        f"eig_min {sol.canonical.eig_min:.3e}, scale {sol.scale:.6g}"
    )
    if args.json_out:
        write_json(args.json_out, report)
    return EXIT_OK


def cmd_transform(args) -> int:
    A = _load_dense(args.path)
    if args.metric:
        M = make_metric(_load_dense(args.metric), args.tol)
    else:
        M = solve_metric(A, args.tol).canonical
    K = quasi_sa_transform(A, M, args.tol, force=args.force)
    res = herm_residual(K.matrix)
    report = _report_head("transform", args.tol)
    report["input"] = _digest(A)
    report["herm_residual"] = res
    report["K"] = operator_payload(K)
    print(f"transform Hermiticity residual: {res:.3e}")
    if args.json_out:
        write_json(args.json_out, report)
    return EXIT_OK


def cmd_qsim(args) -> int:
    A = _load_dense(args.a)
    B = _load_dense(args.b)
    T = _load_dense(args.t)
    tol = args.tol
    rep = verify_intertwining(A, B, T, tol)
    match = spectral_comparison(A, B)
    report = _report_head("qsim", tol)
    report["intertwining"] = {
        "residual": rep.residual,
        "min_sv": rep.min_sv,
        "numerical_rank": rep.numerical_rank,
        "quasi_affinity": rep.quasi_affinity,
        "singular_values": list(rep.singular_values),
    }
    report["spectral_match"] = {
        "tolerance": match.tolerance,
        "inclusion": match.inclusion,
        "pairs": [
            {
                "value_a": p.value_a,
                "value_b": p.value_b,
                "distance": p.distance,
                "mult_a": p.mult_a,
                "mult_b": p.mult_b,
            }
            for p in match.pairs
        ],
        "unmatched_a": [{"value": v, "mult": m} for v, m in match.unmatched_a],
        "unmatched_b": [{"value": v, "mult": m} for v, m in match.unmatched_b],
    }
    ok = rep.residual <= tol
    push_summary = None
    if ok:
        push = push_eigenvectors(A, B, T, tol)
        push_summary = {
            "max_residual": push.max_residual,
            "annihilated": [
                {"eigenvalue": lam, "image_norm": nrm} for lam, nrm in push.annihilated
            ],
            "passed": push.passed,
        }
        ok = push.passed
    report["push"] = push_summary
    report["passed"] = ok
    print(
        f"intertwining residual {rep.residual:.3e}; quasi-affine: {rep.quasi_affinity}; "
        f"verdict: {'pass' if ok else 'fail'}"
    )
    if args.json_out:
        write_json(args.json_out, report)
    return EXIT_OK if ok else EXIT_VERIFICATION_FAILED


def cmd_spectral(args) -> int:
    A = _load_dense(args.path)
    tol = args.tol
    sol = solve_metric(A, tol)
    XF = x_family(A, sol.canonical, tol)
    rng = np.random.default_rng(args.seed)
    dim = A.dim
    samples = []
    for _ in range(args.samples):
        xi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        eta = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        samples.append((xi, eta))
    props = x_properties(XF, A, samples, tol)
    report = _report_head("spectral", tol)
    report["input"] = _digest(A)
    report["seed"] = args.seed
    report["thresholds"] = [float(t) for t in XF.thresholds]
    report["max_reconstruction_residual"] = props.max_reconstruction_residual
    report["variation_violations"] = props.variation_violations
    report["max_endpoint_residual"] = props.max_endpoint_residual
    report["right_continuous"] = props.right_continuous
    report["passed"] = props.passed
    print(
        f"{len(XF.thresholds)} thresholds; reconstruction residual "
        f"{props.max_reconstruction_residual:.3e}; verdict: "
        f"{'pass' if props.passed else 'fail'}"
    )
    if args.csv_out:
        # column k is the path <X(t) xi_k, eta_k> over the thresholds t
        paths = np.cumsum(
            XF.jump_values(
                np.array([xi for xi, _ in samples]).T,
                np.array([eta for _, eta in samples]).T,
            ),
            axis=0,
        )
        rows = [
            [k, float(t), value.real, value.imag]
            for k, path in enumerate(paths.T)
            for t, value in zip(XF.thresholds, path.tolist())
        ]
        write_csv(args.csv_out, ["sample", "lambda", "re", "im"], rows)
    if args.json_out:
        write_json(args.json_out, report)
    return EXIT_OK if props.passed else EXIT_VERIFICATION_FAILED


def cmd_lattice(args) -> int:
    G = _load_dense(args.path)
    tol = args.tol
    M = make_metric(G, tol)
    rng = np.random.default_rng(args.seed)
    samples = [
        rng.standard_normal(M.dim) + 1j * rng.standard_normal(M.dim)
        for _ in range(args.samples)
    ]
    rep = verify_lattice(M, samples, tol)
    report = _report_head("lattice", tol)
    report["input"] = _digest(G)
    report["seed"] = args.seed
    report["rescale_factor"] = rep.rescale_factor
    report["max_projective_residual"] = rep.max_projective_residual
    report["max_duality_residual"] = rep.max_duality_residual
    report["max_unitarity_residual"] = rep.max_unitarity_residual
    report["chain_holds"] = rep.chain_holds
    report["passed"] = rep.passed
    report["norms"] = [
        {
            "plain": r.norms.plain,
            "g": r.norms.g,
            "g_inv": r.norms.g_inv,
            "rg": r.norms.rg,
            "rg_inv": r.norms.rg_inv,
            "rginv": r.norms.rginv,
            "rginv_inv": r.norms.rginv_inv,
        }
        for r in rep.samples
    ]
    print(
        f"lattice checks over {args.samples} samples: "
        f"{'pass' if rep.passed else 'fail'} "
        f"(projective {rep.max_projective_residual:.3e})"
    )
    if args.json_out:
        write_json(args.json_out, report)
    return EXIT_OK if rep.passed else EXIT_VERIFICATION_FAILED


def _parse_schedule(text: str) -> list[int]:
    try:
        return [int(s) for s in text.split(",")]
    except ValueError as exc:
        raise ParseError(f"bad schedule {text!r}: {exc}") from exc


def cmd_samsonov(args) -> int:
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
    report = _report_head("samsonov", DEFAULT_TOL)
    report["d"] = spec.d
    report["b"] = spec.b
    report["box_length"] = spec.box_length
    report["floor_epsilon"] = rep.floor_epsilon
    report["d_squared"] = rep.d_squared
    report["interior_residual_nonincreasing"] = rep.interior_residual_nonincreasing
    report["max_im_nonincreasing"] = rep.max_im_nonincreasing
    report["gap_monotone"] = rep.gap_monotone
    report["passed"] = rep.passed
    # an undefined estimate (NaN) is null in JSON and an empty CSV field
    rows = [
        {k: None if isinstance(v, float) and math.isnan(v) else v for k, v in row.items()}
        for row in rep.csv_rows()
    ]
    report["rows"] = rows
    for row in rep.rows:
        print(
            f"n={row.n:5d} min_eig_G={row.min_eig_G:.9f} "
            f"residual_full={row.residual_full:.3e} "
            f"residual_interior={row.residual_interior:.3e} "
            f"max_im={row.max_im_lambda_H:.3e}"
        )
    print(f"verdict: {'pass' if rep.passed else 'fail'}")
    if args.csv_out:
        write_csv(args.csv_out, list(rows[0]), [list(row.values()) for row in rows])
    if args.json_out:
        write_json(args.json_out, report)
    return EXIT_OK if rep.passed else EXIT_VERIFICATION_FAILED


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qherm",
        description="metric operators and quasi-Hermitian analysis for dense matrices",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, csv_out=False, seed=False):
        p.add_argument("--tol", type=float, default=DEFAULT_TOL)
        p.add_argument("--json-out", metavar="PATH")
        if csv_out:
            p.add_argument("--csv-out", metavar="PATH")
        if seed:
            p.add_argument("--seed", type=int, default=0)

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
    p.add_argument("--samples", type=int, default=8)
    common(p, csv_out=True, seed=True)
    p.set_defaults(func=cmd_spectral)

    p = sub.add_parser("lattice", help="verify the seven-norm lattice of a metric")
    p.add_argument("path")
    p.add_argument("--samples", type=int, default=8)
    common(p, seed=True)
    p.set_defaults(func=cmd_lattice)

    p = sub.add_parser("samsonov", help="half-line Robin refinement study")
    p.add_argument("path", nargs="?")
    p.add_argument("--d", type=float, default=-1.0)
    p.add_argument("--b", type=float, default=1.0)
    p.add_argument("--L", type=float)
    p.add_argument("--n", help="comma-separated ascending grid sizes")
    common(p, csv_out=True)
    p.set_defaults(func=cmd_samsonov)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except QhermError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
