"""The benchmark tracer (``bench/spans.py``) wraps package functions by name;
a renamed or deleted one makes ``bench/run.py --trace 1`` fail at install.
Resolve every wrapped name with the tracer's own resolver."""

from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _load_spans() -> dict:
    # executed from its source so no bytecode cache is written under bench/
    namespace = {"__name__": "bench_spans"}
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), namespace)
    return namespace


SPANS_NS = _load_spans()
TARGETS = {**SPANS_NS["LAYERS"], **SPANS_NS["RUNNERS"]}


@pytest.mark.parametrize("name", sorted(TARGETS))
def test_traced_name_resolves(name):
    owner, attr, obj = SPANS_NS["_resolve"](TARGETS[name])
    assert callable(obj)
    assert getattr(owner, attr) is obj
