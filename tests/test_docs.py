"""The documentation keeps its promises: public docstrings exist, README examples run."""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import numpy as np

import mirrorvi

README = Path(__file__).resolve().parents[1] / "README.md"


def _public_functions_and_classes():
    for info in pkgutil.iter_modules(mirrorvi.__path__):
        module = importlib.import_module(f"mirrorvi.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or not (inspect.isfunction(obj) or inspect.isclass(obj)):
                continue
            if obj.__module__ == module.__name__:
                yield f"{module.__name__}.{name}", obj


def _has_docstring(obj) -> bool:
    doc = (obj.__doc__ or "").strip()
    # A dataclass without a docstring gets "Name(field: type, ...)".
    if dataclasses.is_dataclass(obj) and doc.startswith(f"{obj.__name__}("):
        return False
    return bool(doc)


def test_every_public_function_and_class_has_a_docstring():
    names = dict(_public_functions_and_classes())
    assert "mirrorvi.kernels.mirror_step" in names and "mirrorvi.vi.RunTrace" in names
    missing = sorted(name for name, obj in names.items() if not _has_docstring(obj))
    assert missing == []


def test_every_name_in_the_library_tour_is_importable_from_mirrorvi():
    # The README says so under its "Library tour" table; the table's second
    # column lists the names.
    tour = README.read_text(encoding="utf-8").split("## Library tour\n\n", 1)[1]
    table = tour.split("\n\n", 1)[0]
    rows = re.findall(r"^\| `mirrorvi\.\w+` \| (.*) \|$", table, re.MULTILINE)
    assert len(rows) == 6
    names = [name for row in rows for name in re.findall(r"`(\w+)`", row)]
    assert "GenSpec" in names and "auto_step_size" in names
    missing = [name for name in names if not hasattr(mirrorvi, name)]
    assert missing == []


def test_readme_python_examples_run():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.DOTALL)
    assert len(blocks) == 2
    results = []
    for block in blocks:
        namespace: dict = {}
        exec(compile(block, str(README), "exec"), namespace)
        results.append(namespace)
    rotation, market = results
    assert rotation["gap"](rotation["problem"], rotation["trace"].best_iterate) <= 1e-6
    run = market["run"]
    assert run.certificate.passes(1e-3)
    assert np.abs(run.trace.best_iterate - 1.0 / 3.0).max() <= 1e-3
