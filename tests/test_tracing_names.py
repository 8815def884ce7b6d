"""Every name the benchmark's span tracer wraps resolves in ``qherm``.

``benchmark/tracing.py`` wraps functions and methods by name with
``getattr``; a name that no longer resolves fails only inside a traced
benchmark run (``--trace 1``).  This test loads that file by path and
checks its ``FUNCTIONS`` and ``METHODS`` tables against the package.
"""

import importlib
import importlib.util
import inspect
import pathlib

TRACING = pathlib.Path(__file__).resolve().parents[1] / "benchmark" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("qherm_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_and_methods_resolve():
    tracing = _tracing()
    missing = []
    for module, names in tracing.FUNCTIONS.items():
        home = importlib.import_module(f"qherm.{module}")
        missing += [f"{module}.{name}" for name in names
                    if not inspect.isfunction(getattr(home, name, None))]
    for module, cls_name, method, _ in tracing.METHODS:
        cls = getattr(importlib.import_module(f"qherm.{module}"), cls_name, None)
        if not inspect.isclass(cls) or not callable(getattr(cls, method, None)):
            missing.append(f"{module}.{cls_name}.{method}")
    assert missing == []

