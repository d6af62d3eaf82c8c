"""The benchmark's tracer still finds every function and method it patches.

``perfbench/spans.py`` times hipgraf from outside the package by replacing
named functions and methods (``ops.unfold_neighborhoods``,
``phantom.render_phantom``, ``LandmarkNet.forward``, ...). Renaming or
removing one breaks the benchmark, whose own tests run outside this suite;
installing the tracer here fails on the first name it cannot find.
"""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def test_tracer_installs_on_every_target():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    tracer = spans.Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()
