"""Per-operation oracle, in plain numpy, for the benchmark's qherm outputs.

``load`` reads what one operation wrote (its JSON report, and its CSV
where there is one); ``verify`` returns the list of problems found, empty
when the output is right.  Expected values come from the generator
(``gen.py``): classes, eigenvalues, and the manufactured eigenvector
matrices, metrics and intertwiners in ``oracle.npz``.  ``corrupt``
damages a loaded output the way a wrong answer would look, so a run can
show that ``verify`` is not vacuous.

Thresholds: the metric relation residual ``||GA - A*G||_F / (||G||_F
||A||_F)`` and Hermiticity residuals must be <= 1e-9; eigenvalues and
thresholds must agree with the generated ones to 1e-8 of the spectral
radius (at least 1); recomputed norms and singular values to 1e-8
relative.
"""

from __future__ import annotations

import csv
import json
import math
import os

import numpy as np

RESIDUAL_TOL = 1e-9
VALUE_TOL = 1e-8


def _matrix(payload: dict) -> np.ndarray:
    e = np.asarray(payload["entries"], dtype=np.float64)
    n = payload["dim"]
    return (e[:, 0] + 1j * e[:, 1]).reshape(n, n)


def _complex(pairs) -> np.ndarray:
    e = np.asarray(pairs, dtype=np.float64).reshape(-1, 2)
    return e[:, 0] + 1j * e[:, 1]


def _fro(a) -> float:
    return float(np.linalg.norm(a))


def metric_residual(a: np.ndarray, g: np.ndarray) -> float:
    ga = g @ a
    return _fro(ga - ga.conj().T) / (_fro(g) * _fro(a))


def herm_residual(k: np.ndarray) -> float:
    return _fro(k - k.conj().T) / _fro(k)


def _sorted(values: np.ndarray, scale: float) -> np.ndarray:
    # real parts equal to within rounding sort by imaginary part
    key = np.round(values.real / (1e-6 * scale))
    return values[np.lexsort((values.imag, key))]


def spectrum_problems(got, expected_pairs, what: str) -> list[str]:
    expected = _complex(expected_pairs)
    got = np.asarray(got, dtype=np.complex128)
    if got.shape != expected.shape:
        return [f"{what}: {got.size} values, expected {expected.size}"]
    scale = max(1.0, float(np.abs(expected).max()))
    err = float(np.abs(_sorted(got, scale) - _sorted(expected, scale)).max())
    if not err <= VALUE_TOL * scale:
        return [f"{what}: off by {err:.3e} (limit {VALUE_TOL * scale:.1e})"]
    return []


def _relative_problems(got, expected, what: str) -> list[str]:
    got = np.asarray(got, dtype=np.float64)
    expected = np.asarray(expected, dtype=np.float64)
    if got.shape != expected.shape:
        return [f"{what}: shape {got.shape}, expected {expected.shape}"]
    err = float((np.abs(got - expected) / np.maximum(np.abs(expected), 1e-300)).max())
    if not err <= VALUE_TOL:
        return [f"{what}: relative error {err:.3e}"]
    return []


def _residual_problem(value: float, what: str) -> list[str]:
    if not value <= RESIDUAL_TOL:
        return [f"{what} residual {value:.3e} exceeds {RESIDUAL_TOL:.0e}"]
    return []


def _samples(seed: int, dim: int, count: int, paired: bool) -> list:
    # the draw order of qherm's `spectral` and `lattice` commands
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        xi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        if paired:
            eta = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            out.append((xi, eta))
        else:
            out.append(xi)
    return out


# ---------------------------------------------------------------------------


def load_arrays(indir: str) -> dict[str, np.ndarray]:
    with np.load(os.path.join(indir, "oracle.npz")) as data:
        return dict(data)


def load(op: dict, prefix: str) -> dict:
    with open(prefix + ".json") as handle:
        out = {"report": json.load(handle)}
    if op["kind"] in ("spectral", "samsonov"):
        with open(prefix + ".csv", newline="") as handle:
            out["csv"] = list(csv.reader(handle))
    return out


def _analyze(op, rep, arrays):
    problems = []
    if rep["classification"] != op["classification"]:
        problems.append(f"classification {rep['classification']}, expected {op['classification']}")
    problems += spectrum_problems(_complex(rep["spectrum"]["eigenvalues"]), op["eigenvalues"],
                                  "spectrum")
    a = arrays[op["input"] + ".A"]
    cls = op["classification"]
    if cls == "quasi_hermitian_pd":
        g = _matrix(rep["metric"]["G"])
        problems += _residual_problem(metric_residual(a, g), "metric relation")
        problems += _residual_problem(herm_residual(g), "G Hermiticity")
        if not np.linalg.eigvalsh(0.5 * (g + g.conj().T))[0] > 0:
            problems.append("G is not positive definite")
        problems += _residual_problem(rep["transform"]["herm_residual"], "K Hermiticity")
    elif cls == "pseudo_hermitian_indefinite":
        t = _matrix(rep["metric"]["T"])
        problems += _residual_problem(metric_residual(a, t), "pseudo-metric relation")
        problems += _residual_problem(herm_residual(t), "T Hermiticity")
        w = np.linalg.eigvalsh(0.5 * (t + t.conj().T))
        inertia = [int((w > 0).sum()), int((w < 0).sum())]
        if inertia != op["signature"] or rep["metric"]["signature"] != op["signature"]:
            problems.append(f"signature {rep['metric']['signature']} / inertia {inertia}, "
                            f"expected {op['signature']}")
    elif rep["metric"] is not None and cls != "hermitian":
        problems.append(f"{cls} input reported a metric")
    return problems


def _metric(op, rep, arrays):
    a = arrays[op["input"] + ".A"]
    g = _matrix(rep["G"])
    problems = _residual_problem(metric_residual(a, g), "metric relation")
    problems += _residual_problem(herm_residual(g), "G Hermiticity")
    w = np.linalg.eigvalsh(0.5 * (g + g.conj().T))
    if not w[0] > 0:
        problems.append("G is not positive definite")
    elif abs(w[-1] - 1.0) > VALUE_TOL:
        problems.append(f"G not normalized to unit norm: {w[-1]!r}")
    return problems


def _transform(op, rep, arrays):
    k = _matrix(rep["K"])
    problems = _residual_problem(herm_residual(k), "K Hermiticity")
    eigs = np.linalg.eigvalsh(0.5 * (k + k.conj().T))
    return problems + spectrum_problems(eigs, op["eigenvalues"], "spectrum of K")


def _qsim(op, rep, arrays):
    problems = []
    if rep["passed"] is not True:
        problems.append("qsim verdict is not pass")
    problems += _residual_problem(rep["intertwining"]["residual"], "intertwining")
    problems += _relative_problems(rep["intertwining"]["singular_values"],
                                   op["singular_values"], "singular values of T")
    match = rep["spectral_match"]
    n = arrays[op["input"] + ".A"].shape[0]
    if not (match["inclusion"] and len(match["pairs"]) == n and not match["unmatched_b"]):
        problems.append("spectra of A and B not matched one to one")
    if rep["push"] is None or not rep["push"]["max_residual"] <= RESIDUAL_TOL:
        problems.append("pushed eigenvectors fail")
    return problems


def _lattice(op, rep, arrays):
    problems = [] if rep["passed"] is True else ["lattice verdict is not pass"]
    g = arrays[op["input"] + ".A"]
    g_inv = arrays[op["input"] + ".Ginv"]
    xs = _samples(op["sample_seed"], g.shape[0], op["samples"], paired=False)
    got = np.array([[r["plain"], r["g"], r["g_inv"], r["rg"]] for r in rep["norms"]])
    expected = []
    for xi in xs:
        plain = float(np.linalg.norm(xi))
        gn = math.sqrt(float(np.vdot(xi, g @ xi).real))
        expected.append([plain, gn, math.sqrt(float(np.vdot(xi, g_inv @ xi).real)),
                         math.hypot(plain, gn)])
    return problems + _relative_problems(got, expected, "lattice norms")


def _spectral(op, rep, csv_rows, arrays):
    problems = [] if rep["passed"] is True else ["spectral verdict is not pass"]
    problems += spectrum_problems(np.asarray(rep["thresholds"]), op["eigenvalues"], "thresholds")
    v = arrays[op["input"] + ".V"]
    v_inv = arrays[op["input"] + ".Vinv"]
    n = v.shape[0]
    body = csv_rows[1:]
    if csv_rows[:1] != [["sample", "lambda", "re", "im"]] or len(body) != op["samples"] * n:
        return problems + [f"CSV has {len(body)} rows, expected {op['samples'] * n}"]
    got = np.array([[float(r[2]), float(r[3])] for r in body])
    got = (got[:, 0] + 1j * got[:, 1]).reshape(op["samples"], n)
    # <X(lam_k) xi, eta> with X(lam_k) = V[:, :k+1] V^-1[:k+1, :], the
    # cumulative Riesz projectors, which do not depend on the metric
    worst = 0.0
    for s, (xi, eta) in enumerate(_samples(op["sample_seed"], n, op["samples"], paired=True)):
        expected = np.cumsum((eta.conj() @ v) * (v_inv @ xi))
        scale = float(np.linalg.norm(xi) * np.linalg.norm(eta))
        worst = max(worst, float(np.abs(got[s] - expected).max()) / scale)
    if not worst <= VALUE_TOL:
        problems.append(f"CSV path values off by {worst:.3e} (relative)")
    return problems


def _halfline_min_eig(d: float, b: float, box: float, n: int) -> float:
    h = box / n
    lmat = (np.diag(np.full(n, -1.0 / h)) + np.diag(np.full(n - 1, 1.0 / h), 1)
            + complex(d, b) * np.eye(n))
    return float(np.linalg.eigvalsh(lmat.conj().T @ lmat)[0])


def _samsonov(op, rep, csv_rows, arrays):
    problems = [] if rep["passed"] is True else ["samsonov verdict is not pass"]
    rows = rep["rows"]
    if [r["n"] for r in rows] != op["schedule"]:
        return problems + [f"rows for n={[r['n'] for r in rows]}, expected {op['schedule']}"]
    d2 = op["d"] ** 2
    gaps = [abs(r["min_eig_G"] - d2) for r in rows]
    if not all(b < a for a, b in zip(gaps, gaps[1:])):
        problems.append(f"min_eig_G does not approach d^2: gaps {gaps}")
    expected = _halfline_min_eig(op["d"], op["b"], op["box_length"], op["schedule"][0])
    problems += _relative_problems([rows[0]["min_eig_G"]], [expected], "min_eig_G")
    csv_min = [float(r[2]) for r in csv_rows[1:]]
    if csv_min != [r["min_eig_G"] for r in rows]:
        problems.append("CSV and JSON rows disagree")
    return problems


def verify(op: dict, record: dict, outputs: dict | None, arrays) -> list[str]:
    """Problems with one operation's outcome; empty when it is right."""
    if record["error"]:
        return [f"raised: {record['error'].strip().splitlines()[-1]}"]
    if record["exit"] != op["exit"]:
        return [f"exit code {record['exit']}, expected {op['exit']} {record['stderr'].strip()}"]
    if outputs is None:
        return ["no output written"]
    rep = outputs["report"]
    kind = op["kind"]
    if rep.get("command") != kind:
        return [f"report for command {rep.get('command')!r}, expected {kind!r}"]
    if kind == "analyze":
        return _analyze(op, rep, arrays)
    if kind == "metric":
        return _metric(op, rep, arrays)
    if kind == "transform":
        return _transform(op, rep, arrays)
    if kind == "qsim":
        return _qsim(op, rep, arrays)
    if kind == "lattice":
        return _lattice(op, rep, arrays)
    if kind == "spectral":
        return _spectral(op, rep, outputs["csv"], arrays)
    if kind == "samsonov":
        return _samsonov(op, rep, outputs["csv"], arrays)
    raise ValueError(f"no oracle for {kind!r}")


def _nudge_entry(payload: dict) -> dict:
    # an off-diagonal entry, so a Hermitian matrix stops being Hermitian
    entries = payload["entries"]
    re, im = entries[1]
    return dict(payload, entries=[entries[0], [re * (1 + 1e-6) + 1e-6, im]] + entries[2:])


def corrupt(op: dict, outputs: dict) -> dict:
    """A copy of ``outputs`` with one wrong number (or verdict) in it."""
    rep = dict(outputs["report"])
    kind = op["kind"]
    if kind == "analyze":
        metric = rep["metric"]
        if metric and "G" in metric:
            rep["metric"] = dict(metric, G=_nudge_entry(metric["G"]))
        elif metric and "T" in metric:
            rep["metric"] = dict(metric, T=_nudge_entry(metric["T"]))
        else:
            spectrum = rep["spectrum"]
            eigs = spectrum["eigenvalues"]
            shift = 1e-6 * max(1.0, float(np.abs(_complex(eigs)).max()))
            rep["spectrum"] = dict(spectrum, eigenvalues=[[eigs[0][0] + shift, eigs[0][1]]] + eigs[1:])
    elif kind == "metric":
        rep["G"] = _nudge_entry(rep["G"])
    elif kind == "transform":
        rep["K"] = _nudge_entry(rep["K"])
    elif kind == "qsim":
        sv = rep["intertwining"]["singular_values"]
        rep["intertwining"] = dict(rep["intertwining"], singular_values=[sv[0] * 1.001] + sv[1:])
    elif kind == "lattice":
        rep["norms"] = [dict(rep["norms"][0], g=rep["norms"][0]["g"] * 1.001)] + rep["norms"][1:]
    elif kind == "spectral":
        rows = outputs["csv"]
        sample, lam, re, im = rows[1]
        return dict(outputs, csv=[rows[0], [sample, lam, repr(float(re) + 1.0), im]] + rows[2:])
    elif kind == "samsonov":
        rep["rows"] = [dict(rep["rows"][0], min_eig_G=rep["rows"][0]["min_eig_G"] * 1.001)] + rep["rows"][1:]
    return dict(outputs, report=rep)
