"""The benchmark tracer's names against the package.

``perfbench/tracing.py`` wraps functions by module attribute and figure
methods by name; a name that no longer resolves would otherwise surface only
in the benchmark's traced rounds.
"""

import importlib
import importlib.util
from pathlib import Path

from kepler_billiard import svg

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_wrapped_names_resolve():
    tracing = load_tracing()
    missing = [f"{mod}.{attr}" for mod, attr, _ in tracing.WRAPPED
               if not callable(getattr(importlib.import_module(f"kepler_billiard.{mod}"), attr, None))]
    assert missing == []


def test_figure_methods_resolve():
    tracing = load_tracing()
    assert [m for m in tracing.FIGURE_METHODS if not callable(getattr(svg.Figure, m, None))] == []
