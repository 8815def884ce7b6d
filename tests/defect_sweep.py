"""Sweep of random inputs with repeated eigenvalues: does the eigenvector-block
verdict of ``eig_general`` agree with the rank test it replaced?

Run with ``PYTHONPATH=src python tests/defect_sweep.py`` (no arguments; the
seeds are fixed).  For every input of each family the script compares
``eig_general(A, tol).defective`` with ``dense_oracle.rank_defective``, the
old test of one SVD of ``A - lam I`` per cluster, and prints how often they
agree, how many inputs are defective, and the margins of the threshold
``sqrt(tol)``: the smallest ``sigma_min(V_c)`` of any block of an input found
diagonalizable and the largest smallest-block ``sigma_min(V_c)`` of an input
found defective, each over ``sqrt(tol)``.  An input on which the verdicts
disagree is printed with its Jordan structure in 50 digits
(``dense_oracle.mp_defective``) where its dimension allows.  The families:

* ``clusters-8``: n = 160 in 20 clusters of 8 equal real eigenvalues under a
  complex similarity with singular values in [1/2, 2], as in the benchmark;
* ``clusters-4``: n = 200 in 50 clusters of 4, likewise;
* ``jordan``: upper triangular, n in [6, 40], one Jordan block of size 2 to
  4 and a random strictly upper part, so ``eig`` returns the diagonal;
* ``unitary-jordan``: a Jordan block of size 2 to 4 next to simple
  eigenvalues under a random unitary similarity, n in [6, 16], at the
  smallest ``tol`` of 1e-10, 1e-8, ..., 1e-2 at which ``eig``'s split
  eigenvalues form the block's cluster;
* ``ill-conditioned``: diagonalizable, n in [8, 16] with clusters of 2 to
  4, under a similarity whose condition number is log-uniform up to 1e8,
  at the smallest such ``tol`` at which the clusters form as built;
* ``real-clusters``: as ``clusters-4`` under a real similarity, so
  ``eig_general`` runs the real driver;
* ``real-jordan``: as ``unitary-jordan`` under a real orthogonal
  similarity, so again the real driver.

Every matrix of ``jordan`` and of the two real families has zero
imaginary parts, so ``eig_general`` takes the real driver for all three.
"""

from __future__ import annotations

import math
import time

import numpy as np

from dense_oracle import mp_defective, rank_defective
from helpers import block_sigma_mins, random_orthogonal, random_unitary, well_conditioned
from qherm import eig_general

# tolerances tried, smallest first, for the families whose clusters need one
_LADDER = (1e-10, 1e-8, 1e-6, 1e-4, 1e-3, 1e-2)

# largest dimension the 50-digit Jordan structure is computed at
_MP_MAX_DIM = 40


def _clusters(gen, n: int, size: int, real: bool = False):
    step = 6.0 / (n // size)
    values = -3.0 + step * (np.arange(n // size) + gen.uniform(0.0, 0.5, n // size))
    v = well_conditioned(gen, n, spread=2.0, real=real)
    return (v * np.repeat(values, size)) @ np.linalg.inv(v), 1e-10, False


def _jordan(gen):
    n, block = int(gen.integers(6, 41)), int(gen.integers(2, 5))
    a = np.triu(gen.standard_normal((n, n)) * (0.5 / math.sqrt(n)), 1).astype(np.complex128)
    a[np.diag_indices(n)] = np.arange(n) * 2.0 + 5.0
    a[:block, :block] = -1.0 * np.eye(block) + np.diag(np.ones(block - 1), 1)
    return a, 1e-10, True


def _smallest_clustering_tol(a: np.ndarray, sizes: list[int]):
    for tol in _LADDER:
        if sorted(c.size for c in eig_general(a, tol).clusters) == sorted(sizes):
            return tol
    return None


def _unitary_jordan(gen, real: bool = False):
    n, block = int(gen.integers(6, 17)), int(gen.integers(2, 5))
    j = np.diag(np.r_[np.zeros(block), 2.0 * np.arange(1, n - block + 1)]).astype(np.complex128)
    j += np.diag(np.r_[np.ones(block - 1), np.zeros(n - block)], 1)
    u = random_orthogonal(gen, n) if real else random_unitary(gen, n)
    a = u @ j @ u.conj().T
    return a, _smallest_clustering_tol(a, [block] + [1] * (n - block)), True


def _ill_conditioned(gen):
    n = int(gen.integers(8, 17))
    sizes = []
    while sum(sizes) < n:
        sizes.append(min(int(gen.integers(2, 5)), n - sum(sizes)))
    sizes = [s for s in sizes if s > 1] + [1] * sum(s == 1 for s in sizes)
    lam = np.repeat(2.0 * np.arange(len(sizes)), sizes)
    kappa = 10.0 ** gen.uniform(0.0, 8.0)
    s = np.exp(np.linspace(0.0, -math.log(kappa), n))
    v = (random_unitary(gen, n) * gen.permutation(s)) @ random_unitary(gen, n).conj().T
    a = (v * lam) @ np.linalg.inv(v)
    return a, _smallest_clustering_tol(a, sizes), False


FAMILIES = [
    ("clusters-8", 3001, 40, lambda gen: _clusters(gen, 160, 8)),
    ("clusters-4", 3002, 12, lambda gen: _clusters(gen, 200, 4)),
    ("jordan", 3003, 300, _jordan),
    ("unitary-jordan", 3004, 300, _unitary_jordan),
    ("ill-conditioned", 3005, 300, _ill_conditioned),
    ("real-clusters", 3006, 12, lambda gen: _clusters(gen, 200, 4, real=True)),
    ("real-jordan", 3007, 300, lambda gen: _unitary_jordan(gen, real=True)),
]


def sweep(seed: int, count: int, draw):
    gen = np.random.default_rng(seed)
    agree = defective = unclustered = wrong = 0
    kept, lost, disagreements = math.inf, 0.0, []
    for _ in range(count):
        a, tol, built_defective = draw(gen)
        if tol is None:
            unclustered += 1
            continue
        es = eig_general(a, tol)
        old = rank_defective(es)
        agree += es.defective == old
        defective += es.defective
        wrong += es.defective != built_defective
        smallest = min(block_sigma_mins(es)) / math.sqrt(tol)
        if es.defective:
            lost = max(lost, smallest)
        else:
            kept = min(kept, smallest)
        if es.defective != old:
            mp = mp_defective(es) if es.dim <= _MP_MAX_DIM else "not computed"
            disagreements.append((es.dim, tol, es.defective, old, mp))
    return agree, defective, unclustered, wrong, kept, lost, disagreements


def main() -> None:
    for name, seed, count, draw in FAMILIES:
        start = time.perf_counter()
        agree, defective, unclustered, wrong, kept, lost, disagreements = sweep(seed, count, draw)
        compared = count - unclustered
        print(f"{name} (seed {seed}): {compared} inputs compared, {unclustered} not "
              f"clustered at tol <= {_LADDER[-1]:g}; verdicts agree on {agree}; "
              f"{defective} defective; {wrong} differ from the construction; "
              f"{time.perf_counter() - start:.1f} s")
        kept_text = f">= {kept:.3g}" if kept < math.inf else "none"
        lost_text = f"<= {lost:.3g}" if defective else "none"
        print(f"  sigma_min(V_c)/sqrt(tol): diagonalizable {kept_text}, defective {lost_text}")
        for dim, tol, new, old, mp in disagreements:
            print(f"  n={dim} tol={tol:g}: blocks {new}, rank test {old}, 50 digits {mp}")


if __name__ == "__main__":
    main()
