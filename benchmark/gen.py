"""Seeded input generator for the qherm benchmark.

``make_plan`` writes the operator files one workload needs into a work
directory and returns the plan: the list of ``qherm`` invocations making
up one round of the closed loop, each with what the oracle expects of it.
Arrays the oracle needs (the manufactured eigenvector matrices, metrics
and intertwiners) go to ``oracle.npz`` beside the operator files.

Spectra are built on a jittered grid, so the gap between neighbouring
eigenvalues is at least half the grid step by construction; no rejection
loop is needed at any size.
"""

from __future__ import annotations

import json
import os

import numpy as np

WORKLOADS = ("spectral_x", "classify_mix", "halfline_refine")

SPECTRAL_N = 120
SPECTRAL_POOL = 3
SPECTRAL_SAMPLES = 8

MIX_N = 160
MIX_CLUSTER = 8
LATTICE_SAMPLES = 32

HALFLINE_PAIRS = 3
HALFLINE_BOX = 40.0
HALFLINE_SCHEDULE = (100, 200, 400)


def _rng(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([seed, WORKLOADS.index(workload)])


def spaced(gen: np.random.Generator, n: int, lo: float, hi: float) -> np.ndarray:
    """Ascending values in ``[lo, hi)`` with neighbouring gaps >= (hi-lo)/(2n)."""
    step = (hi - lo) / n
    return lo + step * (np.arange(n) + gen.uniform(0.0, 0.5, n))


def random_unitary(gen: np.random.Generator, n: int, real: bool = False) -> np.ndarray:
    z = gen.standard_normal((n, n))
    if not real:
        z = z + 1j * gen.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def well_conditioned(
    gen: np.random.Generator, n: int, spread: float = 2.0, real: bool = False
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(V, V^-1, singular values)`` with singular values in ``[1/spread, spread]``."""
    u1 = random_unitary(gen, n, real)
    u2 = random_unitary(gen, n, real)
    s = np.exp(gen.uniform(-np.log(spread), np.log(spread), n))
    v = (u1 * s) @ u2.conj().T
    v_inv = (u2 / s) @ u1.conj().T
    return v, v_inv, s


def write_operator(path: str, mat: np.ndarray, label: str) -> None:
    """Dense operator file: row-major ``[re, im]`` pairs, exact float round trip."""
    mat = np.asarray(mat, dtype=np.complex128)
    pairs = np.stack([mat.real.ravel(), mat.imag.ravel()], axis=1).tolist()
    doc = {"format": 1, "kind": "dense", "dim": mat.shape[0], "entries": pairs, "label": label}
    with open(path, "w") as handle:
        handle.write(json.dumps(doc))


def _eig_list(values: np.ndarray) -> list[list[float]]:
    values = np.asarray(values, dtype=np.complex128)
    order = np.lexsort((values.imag, values.real))
    return [[float(z.real), float(z.imag)] for z in values[order]]


def _spectral_x(gen, indir, arrays):
    ops = []
    for k in range(SPECTRAL_POOL):
        lam = spaced(gen, SPECTRAL_N, -3.0, 3.0)
        v, v_inv, _ = well_conditioned(gen, SPECTRAL_N)
        name = f"x{k}"
        write_operator(os.path.join(indir, f"{name}.json"), (v * lam) @ v_inv, name)
        arrays[f"{name}.V"] = v
        arrays[f"{name}.Vinv"] = v_inv
        sample_seed = int(gen.integers(0, 2**31))
        ops.append({
            "kind": "spectral",
            "input": name,
            "argv": ["spectral", f"{{in}}/{name}.json", "--samples", str(SPECTRAL_SAMPLES),
                     "--seed", str(sample_seed), "--csv-out", "{out}.csv",
                     "--json-out", "{out}.json"],
            "exit": 0,
            "eigenvalues": _eig_list(lam),
            "samples": SPECTRAL_SAMPLES,
            "sample_seed": sample_seed,
        })
    return ops


def _classify_mix(gen, indir, arrays):
    n = MIX_N
    ops = []

    def dense(name, mat, eigs, cls, **extra):
        write_operator(os.path.join(indir, f"{name}.json"), mat, name)
        arrays[f"{name}.A"] = mat
        ops.append({
            "kind": "analyze",
            "input": name,
            "argv": ["analyze", f"{{in}}/{name}.json", "--json-out", "{out}.json"],
            "exit": 0,
            "classification": cls,
            "eigenvalues": _eig_list(eigs),
            **extra,
        })

    # real simple spectrum: a positive metric exists
    lam = spaced(gen, n, -3.0, 3.0)
    v, v_inv, _ = well_conditioned(gen, n)
    simple = (v * lam) @ v_inv
    dense("simple", simple, lam, "quasi_hermitian_pd")

    # real spectrum in clusters of MIX_CLUSTER equal eigenvalues: the
    # defectiveness test runs one SVD per cluster
    lam_c = np.repeat(spaced(gen, n // MIX_CLUSTER, -3.0, 3.0), MIX_CLUSTER)
    v, v_inv, _ = well_conditioned(gen, n)
    dense("clustered", (v * lam_c) @ v_inv, lam_c, "quasi_hermitian_pd")

    # real matrix, conjugate pairs a +- ib next to real eigenvalues: only
    # an indefinite pseudo-metric exists
    pairs = n // 4
    re = spaced(gen, n - pairs, -3.0, 3.0)
    pair_at = np.sort(gen.choice(n - pairs, pairs, replace=False))
    imag = gen.uniform(0.5, 1.5, pairs)
    block = np.zeros((n, n))
    eigs, col, p = [], 0, 0
    for k, a in enumerate(re):
        if p < pairs and pair_at[p] == k:
            b = imag[p]
            block[col:col + 2, col:col + 2] = [[a, b], [-b, a]]
            eigs += [complex(a, b), complex(a, -b)]
            col += 2
            p += 1
        else:
            block[col, col] = a
            eigs.append(complex(a))
            col += 1
    v, v_inv, _ = well_conditioned(gen, n, real=True)
    dense("conjugate", v @ block @ v_inv, np.array(eigs), "pseudo_hermitian_indefinite",
          signature=[n - pairs, pairs])

    # complex eigenvalues without conjugate partners: no Hermitian intertwiner
    lam_nc = spaced(gen, n, -3.0, 3.0) + 1j * gen.uniform(0.5, 1.5, n)
    v, v_inv, _ = well_conditioned(gen, n)
    dense("nonconjugate", (v * lam_nc) @ v_inv, lam_nc, "not_pseudo_hermitian")

    # upper triangular with a Jordan block: LAPACK returns the diagonal
    # exactly, so the repeated eigenvalue clusters and the rank test sees
    # the missing eigenvector
    block_size = int(gen.integers(2, 5))
    diag = spaced(gen, n, -3.0 * n, 3.0 * n)
    jordan = np.triu(gen.standard_normal((n, n)) * (0.5 / np.sqrt(n)), 1).astype(np.complex128)
    jordan[np.diag_indices(n)] = diag
    jordan[:block_size, :block_size] = 0.0
    jordan[:block_size, :block_size] += diag[0] * np.eye(block_size) + np.diag(np.ones(block_size - 1), 1)
    dense("jordan", jordan, np.r_[np.full(block_size, diag[0]), diag[block_size:]], "defective")

    # Hermitian
    lam_h = spaced(gen, n, -3.0, 3.0)
    u = random_unitary(gen, n)
    herm = (u * lam_h) @ u.conj().T
    dense("hermitian", 0.5 * (herm + herm.conj().T), lam_h, "hermitian")

    # metric, then transform with the metric it wrote
    ops.append({
        "kind": "metric",
        "input": "simple",
        "argv": ["metric", "{in}/simple.json", "--json-out", "{out}.json"],
        "exit": 0,
        "eigenvalues": _eig_list(lam),
    })
    ops.append({
        "kind": "transform",
        "input": "simple",
        "metric_from": len(ops) - 1,
        "argv": ["transform", "{in}/simple.json", "--metric", "{out}.g.json",
                 "--json-out", "{out}.json"],
        "exit": 0,
        "eigenvalues": _eig_list(lam),
    })

    # intertwiner T A = B T with B = T A T^-1
    t, t_inv, t_sv = well_conditioned(gen, n)
    write_operator(os.path.join(indir, "qsim_b.json"), t @ simple @ t_inv, "qsim_b")
    write_operator(os.path.join(indir, "qsim_t.json"), t, "qsim_t")
    ops.append({
        "kind": "qsim",
        "input": "simple",
        "argv": ["qsim", "{in}/simple.json", "{in}/qsim_b.json", "{in}/qsim_t.json",
                 "--json-out", "{out}.json"],
        "exit": 0,
        "singular_values": sorted(t_sv.tolist(), reverse=True),
    })

    # lattice of a positive metric with known spectrum
    w = np.exp(gen.uniform(np.log(0.1), np.log(10.0), n))
    u = random_unitary(gen, n)
    g = (u * w) @ u.conj().T
    g = 0.5 * (g + g.conj().T)
    write_operator(os.path.join(indir, "metric_g.json"), g, "metric_g")
    arrays["metric_g.A"] = g
    arrays["metric_g.Ginv"] = (u / w) @ u.conj().T
    sample_seed = int(gen.integers(0, 2**31))
    ops.append({
        "kind": "lattice",
        "input": "metric_g",
        "argv": ["lattice", "{in}/metric_g.json", "--samples", str(LATTICE_SAMPLES),
                 "--seed", str(sample_seed), "--json-out", "{out}.json"],
        "exit": 0,
        "samples": LATTICE_SAMPLES,
        "sample_seed": sample_seed,
    })
    return ops


def _halfline_refine(gen, indir, arrays):
    ops = []
    schedule = ",".join(str(n) for n in HALFLINE_SCHEDULE)
    for _ in range(HALFLINE_PAIRS):
        # below b ~ 0.4 (at |d| >= 1) max|Im lambda(H)| ~ b/20 creeps up with
        # n and the study's verdict flips to fail (see README, "Findings")
        d = float(np.round(gen.uniform(-1.5, -0.5), 6))
        b = float(np.round(gen.uniform(0.5, 1.5), 6))
        ops.append({
            "kind": "samsonov",
            "input": f"d={d},b={b}",
            "argv": ["samsonov", f"--d={d}", f"--b={b}", f"--L={HALFLINE_BOX}",
                     f"--n={schedule}", "--csv-out", "{out}.csv", "--json-out", "{out}.json"],
            "exit": 0,
            "d": d,
            "b": b,
            "box_length": HALFLINE_BOX,
            "schedule": list(HALFLINE_SCHEDULE),
        })
    return ops


_PLAN_MAKERS = {
    "spectral_x": _spectral_x,
    "classify_mix": _classify_mix,
    "halfline_refine": _halfline_refine,
}


def make_plan(workload: str, seed: int, indir: str) -> dict:
    """Write the inputs of ``workload`` into ``indir`` and return its plan."""
    os.makedirs(indir, exist_ok=True)
    arrays: dict[str, np.ndarray] = {}
    ops = _PLAN_MAKERS[workload](_rng(workload, seed), indir, arrays)
    np.savez(os.path.join(indir, "oracle.npz"), **arrays)
    plan = {"workload": workload, "seed": seed, "ops": ops}
    with open(os.path.join(indir, "plan.json"), "w") as handle:
        json.dump(plan, handle)
    return plan
