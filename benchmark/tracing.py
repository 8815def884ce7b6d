"""Span tracing of qherm's layers from outside the package.

``Tracer.install`` replaces the listed public functions of each ``qherm``
module, in every ``qherm.*`` namespace that binds them, and the
``numpy.linalg`` kernels qherm calls, with wrappers that record one span
per call: ``[name, start, end, parent, op, raised, extra]``.  Spans stay
in memory until ``dump``.  ``summarize`` turns a span list into the
per-layer metrics (calls, inclusive and self time, typed errors that
cross a module boundary, computed kernel flops).

Kernels are wrapped in the ``numpy.linalg`` namespace only, so a call
that numpy makes internally (``cond`` and ``norm(., 2)`` call ``svd``) is
not counted a second time: each kernel is counted at the qherm call site.
"""

from __future__ import annotations

import functools
import hashlib
import json
import sys
import time
import tracemalloc

import numpy as np

LAYERS = ("cli", "core", "quasihermitian", "lattice", "spectralfamily",
          "quasisimilarity", "halfline", "linalg")

# (module, public function) pairs wrapped as spans named "<module>.<function>"
FUNCTIONS = {
    "cli": ("main", "load_operator_file", "write_json", "write_csv"),
    "core": ("eig_general", "eig_hermitian", "cluster_eigenvalues"),
    "quasihermitian": ("solve_metric", "solve_pseudo_metric", "quasi_sa_transform",
                       "quasi_hermiticity_residual"),
    "lattice": ("make_metric", "verify_lattice"),
    "spectralfamily": ("x_family", "spectral_family", "x_properties"),
    "quasisimilarity": ("verify_intertwining", "spectral_comparison", "push_eigenvectors"),
    "halfline": ("build_pair", "samsonov_report"),
}
# methods wrapped on their class: (module, class, method, span name)
METHODS = (
    ("core", "Operator", "__post_init__", "core.operator_new"),
    ("spectralfamily", "XFamily", "evaluate", "spectralfamily.XFamily.evaluate"),
)
KERNELS = ("eig", "eigh", "eigvals", "eigvalsh", "svd", "inv", "cond", "norm")

# Real flops per kernel call for an n x n input (Golub & Van Loan operation
# counts, leading terms); a complex input counts four times as many.
_FLOPS = {
    "eig": lambda n, kw: 25 * n**3,
    "eigvals": lambda n, kw: 10 * n**3,
    "eigh": lambda n, kw: 9 * n**3,
    "eigvalsh": lambda n, kw: 4 * n**3 / 3,
    "svd": lambda n, kw: (21 * n**3 if kw.get("compute_uv", True) else 8 * n**3 / 3),
    "inv": lambda n, kw: 2 * n**3,
    "cond": lambda n, kw: 8 * n**3 / 3,
    "norm": lambda n, kw: 8 * n**3 / 3,
}


def _is_spectral_norm(args, kwargs) -> bool:
    x = args[0] if args else kwargs.get("x")
    ord_ = args[1] if len(args) > 1 else kwargs.get("ord")
    return ord_ == 2 and getattr(x, "ndim", 0) == 2


class Tracer:
    """Collects spans while installed; one instance per run."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        self._error: type = Exception

    # -- recording ----------------------------------------------------------

    def _span(self, name, fn, args, kwargs, after=None):
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op, "", None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except self._error as exc:
            rec[5] = type(exc).__name__
            raise
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()
        if after is not None:
            rec[6] = after(args, kwargs, result)
        return result

    def _wrap_function(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self._span(name, fn, args, kwargs)
        return wrapper

    def _wrap_x_family(self, fn):
        # tracemalloc only while x_family runs: its peak is the metric
        def after(args, kwargs, result):
            return tracemalloc.get_traced_memory()[1]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracemalloc.start()
            try:
                return self._span("spectralfamily.x_family", fn, args, kwargs, after)
            finally:
                tracemalloc.stop()
        return wrapper

    def _wrap_operator_new(self, fn):
        def after(args, kwargs, result):
            return 16 * args[0].matrix.size

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self._span("core.operator_new", fn, args, kwargs, after)
        return wrapper

    def _wrap_kernel(self, kernel, fn):
        name = f"linalg.{kernel}"
        flops = _FLOPS[kernel]

        def after(args, kwargs, result):
            a = np.asarray(args[0] if args else kwargs["a"])
            n = a.shape[-1]
            extra = {"flops": flops(n, kwargs) * (4 if np.iscomplexobj(a) else 1)}
            if kernel == "eig":
                extra["digest"] = hashlib.blake2b(
                    np.ascontiguousarray(a).tobytes(), digest_size=16).hexdigest()
            return extra

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if kernel == "norm" and not _is_spectral_norm(args, kwargs):
                return fn(*args, **kwargs)
            return self._span(name, fn, args, kwargs, after)
        return wrapper

    # -- installation -------------------------------------------------------

    def _replace(self, owner, attr, new):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Wrap every listed function in every loaded ``qherm`` namespace."""
        self._error = sys.modules["qherm.errors"].QhermError
        namespaces = [m for k, m in sorted(sys.modules.items())
                      if k == "qherm" or k.startswith("qherm.")]
        for module, names in FUNCTIONS.items():
            home = sys.modules[f"qherm.{module}"]
            for fname in names:
                original = getattr(home, fname)
                if (module, fname) == ("spectralfamily", "x_family"):
                    wrapped = self._wrap_x_family(original)
                else:
                    wrapped = self._wrap_function(f"{module}.{fname}", original)
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is original:
                            self._replace(ns, attr, wrapped)
        for module, cls_name, method, span in METHODS:
            cls = getattr(sys.modules[f"qherm.{module}"], cls_name)
            original = getattr(cls, method)
            if span == "core.operator_new":
                wrapped = self._wrap_operator_new(original)
            else:
                wrapped = self._wrap_function(span, original)
            self._replace(cls, method, wrapped)
        for kernel in KERNELS:
            self._replace(np.linalg, kernel, self._wrap_kernel(kernel, getattr(np.linalg, kernel)))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def dump(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump(self.spans, handle)


def summarize(spans: list[list], n_ops: int) -> dict[str, float]:
    """Per-layer metrics per operation from a span list.

    ``<module>.<function>.calls`` and ``.s`` (inclusive seconds) per op;
    ``<module>.self_s``: span time minus the time of direct child spans,
    summed over the module's spans, per op; ``<module>.raised``: typed
    errors leaving a span whose caller is another module (or the client),
    per op.  ``linalg.eig.distinct_ratio`` is distinct input matrices
    over ``eig`` calls, counted within each op (1 when no ``eig`` ran).
    """
    n_ops = max(n_ops, 1)
    child_time = [0.0] * len(spans)
    for name, start, end, parent, *_ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, float] = {}

    def add(key, value):
        out[key] = out.get(key, 0.0) + value

    span_names = ([f"{module}.{fname}" for module, names in FUNCTIONS.items() for fname in names]
                  + [span for *_, span in METHODS] + [f"linalg.{k}" for k in KERNELS])
    for key in ([f"{n}.{suffix}" for n in span_names for suffix in ("calls", "s")]
                + [f"{layer}.{suffix}" for layer in LAYERS for suffix in ("self_s", "raised")]
                + ["linalg.flops_computed", "core.operator_new.bytes"]):
        out[key] = 0.0
    peak = 0
    eig_calls: dict[int, set] = {}
    eig_count = 0
    for idx, (name, start, end, parent, op, raised, extra) in enumerate(spans):
        layer = name.split(".", 1)[0]
        add(f"{name}.calls", 1)
        add(f"{name}.s", end - start)
        add(f"{layer}.self_s", end - start - child_time[idx])
        if raised and (parent < 0 or spans[parent][0].split(".", 1)[0] != layer):
            add(f"{layer}.raised", 1)
        if name == "core.operator_new":
            add("core.operator_new.bytes", extra)
        elif name == "spectralfamily.x_family":
            peak = max(peak, extra or 0)
        elif layer == "linalg" and extra:  # no extra when the kernel raised
            add("linalg.flops_computed", extra["flops"])
            if name == "linalg.eig":
                eig_calls.setdefault(op, set()).add(extra["digest"])
                eig_count += 1
    out = {k: v / n_ops for k, v in out.items()}
    out["spectralfamily.x_family.peak_mb"] = peak / 2**20
    distinct = sum(len(s) for s in eig_calls.values())
    out["linalg.eig.distinct_ratio"] = distinct / eig_count if eig_count else 1.0
    return out
