"""The benchmark's span hooks resolve against the package: every function
that ``bench/spans.py`` wraps exists where it looks for it, and the size
counters it reads off the results match what the pipeline returns."""

import importlib.util
import sys
from pathlib import Path

import afkit.cli  # noqa: F401  (loads every afkit module the tracer patches)
import afkit.sat as X
import afkit.syntax as S
from corpus import AF3_CORPUS, nf_text

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def layer(label: str):
    """The function a span label names, as its module holds it now."""
    module, name = label.split(".")
    return getattr(sys.modules[f"afkit.{module}"], name)


def test_span_hooks_resolve_and_count_the_model():
    spans = load_spans()
    originals = {label: layer(label) for label in spans.LABELS}
    gammas, delta, _label = AF3_CORPUS[11]
    f = S.parse(nf_text(gammas, delta, 2))
    tracer = spans.Tracer()
    tracer.install()
    try:
        wrapped = {label: layer(label) for label in spans.LABELS}
        tracer.begin_item()
        res = X.decide(f, want_model=True)
        tracer.end_item()
    finally:
        tracer.uninstall()
    for label, fn in originals.items():
        assert wrapped[label] is not fn and wrapped[label].__wrapped__ is fn
        assert layer(label) is fn
    counters, = tracer.item_counters()
    assert len(res.id_model.domain) == 150
    assert counters["sat.build_model.elems"] == 150
    assert counters["sat.decide_af3.cert_size"] == len(res.certificate)
