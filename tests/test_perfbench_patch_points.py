"""The benchmark's trace patches program names; each one must still exist.

`perfbench/spans.py` wraps layer entry points by (module, attribute), and
`Tracer.install` fails on a missing attribute. This loads that file as it
is and checks every patch point, so a refactor that drops or renames one
fails here, not only in the benchmark's own tests.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_patch_point_resolves():
    spans = _load_spans()
    missing = [
        f"{module.__name__}.{attr}"
        for module, attr, _, _ in spans.SPAN_POINTS
        if not callable(getattr(module, attr, None))
    ]
    assert missing == []


def test_install_then_uninstall_restores_originals():
    spans = _load_spans()
    points = [(module, attr) for module, attr, _, _ in spans.SPAN_POINTS]
    points.append((spans.leleec.endcut, "rect_overlaps_polygon"))
    before = [getattr(module, attr) for module, attr in points]
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert all(getattr(m, a) is not f for (m, a), f in zip(points, before))
    finally:
        tracer.uninstall()
    assert all(getattr(m, a) is f for (m, a), f in zip(points, before))
