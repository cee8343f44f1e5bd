"""The benchmark's tracing hooks against the library they wrap.

`perfbench/spans.py` replaces named functions, methods and bindings of
the library modules; a rename in the library breaks it.  This runs the
instrumentation and its undo in the test suite.
"""

import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load_spans():
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", os.path.join(ROOT, "perfbench", "spans.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_instrument_wraps_and_restores_every_hook():
    spans = _load_spans()
    tracer = spans.Tracer()
    originals = {}
    try:
        spans.instrument(tracer)
        # the first replacement of an attribute saw the library's own
        # object; some attributes are wrapped twice
        for owner, attr, original in tracer._undo:
            originals.setdefault((owner, attr), original)
        assert originals
        for (owner, attr), original in originals.items():
            assert getattr(owner, attr) is not original, (owner, attr)
    finally:
        tracer.restore()
    for (owner, attr), original in originals.items():
        assert getattr(owner, attr) is original, (owner, attr)
